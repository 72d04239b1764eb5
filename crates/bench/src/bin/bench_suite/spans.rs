//! In-memory spans recorded by the benchmark's own code around its
//! calls into each layer. Written out as JSON lines when the traced run
//! ends; never touched during end-to-end timing.

use crate::{alloc, stats};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call. `id` is the span's index, `parent` the index of the
/// span that caused it; spans of one window of one replay share
/// `(replay, window)`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub replay: u32,
    pub window: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Allocations and bytes inside the span; 0 unless the counting
    /// allocator was enabled around it.
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// Span recorder for one traced run.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    /// Stamped onto every span recorded from now on.
    pub replay: u32,
    pub window: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            replay: 0,
            window: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span that will have children; pair with [`Self::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let (allocs, alloc_bytes) = alloc::snapshot();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            replay: self.replay,
            window: self.window,
            start_ns,
            end_ns: start_ns,
            parent,
            allocs,
            alloc_bytes,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        let end_ns = self.now();
        let (allocs, alloc_bytes) = alloc::snapshot();
        let s = &mut self.spans[id];
        s.end_ns = end_ns;
        s.allocs = allocs - s.allocs;
        s.alloc_bytes = alloc_bytes - s.alloc_bytes;
    }

    /// Time one call as a childless span.
    pub fn leaf<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent);
        let r = f();
        self.close(id);
        r
    }

    /// Self time of every span, index-aligned with `spans`.
    pub fn self_times(&self) -> Vec<u64> {
        let triples: Vec<_> = self
            .spans
            .iter()
            .map(|s| (s.start_ns, s.end_ns, s.parent))
            .collect();
        stats::self_times(&triples)
    }

    /// Self time (ns) and allocations summed per `(replay, window)` over
    /// the spans called `name`.
    pub fn per_window(&self, name: &str) -> BTreeMap<(u32, u64), (u64, u64)> {
        let own = self.self_times();
        let mut out: BTreeMap<(u32, u64), (u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            if s.name == name {
                let slot = out.entry((s.replay, s.window)).or_default();
                slot.0 += own;
                slot.1 += s.allocs;
            }
        }
        out
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, workload: &str, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"workload\":\"{workload}\",\"replay\":{},\"window\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"allocs\":{},\"alloc_bytes\":{}}}",
                s.name, s.replay, s.window, s.start_ns, s.end_ns, s.allocs, s.alloc_bytes
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_attribute_self_time_and_serialize() {
        let mut tr = Tracer::new();
        tr.replay = 2;
        tr.window = 5;
        let root = tr.open("shadow.window", None);
        tr.leaf("pisa.batch", Some(root), || std::hint::black_box(1 + 1));
        tr.leaf("pisa.batch", Some(root), || std::hint::black_box(2 + 2));
        tr.close(root);
        let own = tr.self_times();
        let children: u64 = tr.spans[1..].iter().map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!(own[0], tr.spans[0].end_ns - tr.spans[0].start_ns - children);
        let per = tr.per_window("pisa.batch");
        assert_eq!(per.len(), 1);
        assert_eq!(per[&(2, 5)].0, children);

        let mut buf = Vec::new();
        tr.write_jsonl("w", &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            let v = sonata_obs::json::parse(line).expect("span line is JSON");
            assert_eq!(v.get("workload").and_then(|w| w.as_str()), Some("w"));
        }
    }
}
