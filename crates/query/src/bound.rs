//! Bound pipelines: the stream-side compiled fast path.
//!
//! [`crate::interpret::run_operator`] re-binds expressions and
//! re-resolves column names every window, and materializes an
//! intermediate `Vec<Tuple>` after every operator. A [`BoundPipeline`]
//! does all of that work once at registration: expressions are bound,
//! `Schema::index_of` lookups are resolved to offsets, and runs of
//! stateless operators (`filter`/`map`) are *fused* — each row flows
//! through the whole run in one pass, feeding a stateful sink
//! (`reduce`/`distinct`) or the output directly.
//!
//! It runs on fixed-width `u64` rows from entry to output
//! ([`RowRun`]): mirrored packets are read in place from their chunk's
//! field columns, report and dump rows from their flat cells, a `map`
//! writes into one of two scratch rows, and the sinks are tables of
//! `[u64; width]` keys. A [`Tuple`] is built only from what comes out
//! ([`Rows::tuples`]); the `Vec<Tuple>` entry points convert into the
//! same rows and run the same code.
//!
//! ## Fusion rules
//!
//! The pipeline is split into segments `[i..sink]` where `ops[i..sink]`
//! are stateless and `ops[sink]` is stateful (or the pipeline end).
//! Rows may enter at any operator index (collision shunts and window
//! dumps resume mid-pipeline); within a segment the sources are drained
//! in entry-index order — the previous sink's output first, then each
//! entry run.
//!
//! ## Order
//!
//! Every [`Agg`] is commutative and associative and a `distinct` is a
//! set, so what a sink holds at the end of a window does not depend on
//! the order rows reached it, nor on the tables' hash function. Order
//! is observable only in what the *last* sink emits into the output:
//! that emission is sorted by key — the order the reference's
//! `BTreeMap` produces — and stateless operators preserve it, so the
//! output is bit-identical to the reference interpreter's. A sink that
//! feeds another sink emits in table order, unsorted.

use crate::expr::{BindError, BoundExpr, BoundPred};
use crate::interpret::InterpretError;
use crate::ops::{Agg, Operator};
use crate::query::{joined_schema, Join, QueryError};
use crate::tuple::{Heap, RowRun, RowSource, Rows, Schema, Tuple};
use std::collections::BTreeMap;
use std::hash::BuildHasher;

/// Execution failure of a bound pipeline. Binding failures surface
/// earlier, from [`BoundPipeline::bind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundError {
    /// A batch entry index is past the end of the pipeline.
    BadEntry {
        /// The offending op index.
        op: usize,
        /// Ops in the pipeline.
        len: usize,
    },
}

impl std::fmt::Display for BoundError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoundError::BadEntry { op, len } => {
                write!(f, "batch entry at op {op} but pipeline has {len} ops")
            }
        }
    }
}

impl std::error::Error for BoundError {}

/// The rows entering a pipeline, by the operator they enter at.
pub type Entries = BTreeMap<usize, Vec<RowRun>>;

/// `tuples` as the runs of one entry point.
fn runs_of<'a>(tuples: impl IntoIterator<Item = &'a Tuple>) -> Vec<RowRun> {
    let mut runs = Vec::new();
    for t in tuples {
        RowRun::push_tuple(&mut runs, t);
    }
    runs
}

/// A set of fixed-width `u64` keys in first-seen order, each with an
/// accumulator: the state of a `reduce` (and, accumulators unused, of
/// a `distinct` or a join index). Open addressing over a
/// multiplicative hash; buffers are kept from window to window.
#[derive(Debug)]
struct Table {
    width: usize,
    len: usize,
    /// `len × width` cells.
    keys: Vec<u64>,
    accs: Vec<u64>,
    /// Key number + 1 per slot, 0 for empty; a power of two long and
    /// at most half full.
    slots: Vec<u32>,
    /// Mixed into every hash, drawn once per process, so colliding
    /// keys cannot be prepared offline.
    seed: u64,
}

impl Table {
    fn new(width: usize) -> Self {
        Table {
            width,
            len: 0,
            keys: Vec::new(),
            accs: Vec::new(),
            slots: vec![0; 16],
            seed: std::collections::hash_map::RandomState::new().hash_one(0u8),
        }
    }

    fn clear(&mut self) {
        if self.len > 0 {
            self.len = 0;
            self.keys.clear();
            self.accs.clear();
            self.slots.fill(0);
        }
    }

    fn key(&self, k: usize) -> &[u64] {
        &self.keys[k * self.width..(k + 1) * self.width]
    }

    /// The slot `key` sits in, or the empty one it would take.
    #[inline]
    fn slot_of(&self, key: &[u64]) -> usize {
        let fold = |h: u64, &w: &u64| (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
        let hash = key.iter().fold(self.seed, fold);
        let mask = self.slots.len() - 1;
        let mut i = (hash >> (64 - self.slots.len().trailing_zeros())) as usize;
        // Keys are a few cells wide: compared in line, not by a call.
        let same = |k: u32| {
            self.key(k as usize - 1)
                .iter()
                .zip(key)
                .all(|(a, b)| a == b)
        };
        while self.slots[i] != 0 && !same(self.slots[i]) {
            i = (i + 1) & mask;
        }
        i
    }

    /// The number of `key` among the keys, if it is one.
    #[inline]
    fn find(&self, key: &[u64]) -> Option<usize> {
        (self.slots[self.slot_of(key)] as usize).checked_sub(1)
    }

    /// The number of `key` among the keys, and whether this call
    /// added it.
    #[inline]
    fn entry(&mut self, key: &[u64]) -> (usize, bool) {
        let slot = self.slot_of(key);
        if let Some(k) = (self.slots[slot] as usize).checked_sub(1) {
            return (k, false);
        }
        self.keys.extend_from_slice(key);
        self.len += 1;
        self.slots[slot] = self.len as u32;
        if self.len * 2 > self.slots.len() {
            let doubled = self.slots.len() * 2;
            self.slots.clear();
            self.slots.resize(doubled, 0);
            for k in 0..self.len {
                let slot = self.slot_of(self.key(k));
                self.slots[slot] = k as u32 + 1;
            }
        }
        (self.len - 1, true)
    }
}

/// One operator with every column reference resolved to an offset.
#[derive(Debug)]
enum BoundOp {
    Filter(BoundPred),
    Map(Vec<BoundExpr>),
    Reduce {
        key_idx: Vec<usize>,
        val_idx: usize,
        agg: Agg,
        groups: Table,
    },
    Distinct(Table),
}

impl BoundOp {
    /// The table of a stateful operator.
    fn table(&self) -> Option<&Table> {
        match self {
            BoundOp::Reduce { groups, .. } => Some(groups),
            BoundOp::Distinct(seen) => Some(seen),
            _ => None,
        }
    }

    /// Row `k` of what a finished sink emits — key `k`, a reduce's
    /// with its accumulator — written over `row`.
    fn emitted(&self, k: usize, row: &mut Vec<u64>, heap: &mut Heap) {
        let table = self.table().expect("only sinks emit");
        row.clear();
        row.extend_from_slice(table.key(k));
        if matches!(self, BoundOp::Reduce { .. }) {
            row.push(heap.scalar(table.accs[k]));
        }
    }

    /// The numbers of the keys a finished sink emits, in emission
    /// order: those whose rows pass `filters`, the run of filters that
    /// follows — a threshold drops most groups, so it is asked before
    /// anything is sorted — in key order if `sorted`. `None` stands
    /// for every key in table order.
    fn emission(
        &self,
        filters: &[BoundOp],
        sorted: bool,
        scratch: &mut Scratch,
    ) -> Option<Vec<u32>> {
        let table = self.table().expect("only sinks emit");
        if filters.is_empty() && !sorted {
            return None;
        }
        let Scratch { heap, key, .. } = scratch;
        let mut keep = |k: &u32| {
            self.emitted(*k as usize, key, heap);
            let pass =
                |op: &BoundOp| matches!(op, BoundOp::Filter(p) if p.eval_row(&key[..], heap));
            filters.iter().all(pass)
        };
        let mut ks: Vec<u32> = (0..table.len as u32).filter(|k| keep(k)).collect();
        if sorted {
            // Keys are unique, so key order is row order.
            ks.sort_unstable_by(|&a, &b| {
                heap.cmp_rows(table.key(a as usize), table.key(b as usize))
            });
        }
        Some(ks)
    }
}

/// Flat rows of one width, cells of the run's heap.
#[derive(Default)]
struct Flat {
    cells: Vec<u64>,
    /// Stated, not derived: a row may have no columns.
    rows: usize,
}

impl Flat {
    fn push(&mut self, row: &[u64]) {
        self.cells.extend_from_slice(row);
        self.rows += 1;
    }
}

/// What a run carries from row to row: the heap its cells belong to,
/// the two scratch rows `map`s alternate between, and a scratch key.
#[derive(Default)]
struct Scratch {
    heap: Heap,
    bufs: [Vec<u64>; 2],
    key: Vec<u64>,
}

impl Scratch {
    /// Pipe one row of `width` cells through a run of stateless
    /// operators. A survivor's cells are left in the scratch row whose
    /// number is returned.
    #[inline]
    fn pipe<R: RowSource + ?Sized>(
        &mut self,
        ops: &[BoundOp],
        row: &R,
        width: usize,
    ) -> Option<usize> {
        let Scratch { heap, bufs, .. } = self;
        let mut ops = ops.iter();
        // On the row as it came: the filters up to the first map,
        // which writes scratch row 0 (as does a row no map changes).
        loop {
            match ops.next() {
                Some(BoundOp::Filter(pred)) => {
                    if !pred.eval_row(row, heap) {
                        return None;
                    }
                }
                first_map => {
                    bufs[0].clear();
                    match first_map {
                        Some(BoundOp::Map(exprs)) => {
                            bufs[0].extend(exprs.iter().map(|e| e.eval_row(row, heap)))
                        }
                        None => bufs[0].extend((0..width).map(|c| row.cell(c, heap))),
                        Some(_) => unreachable!("stateful op inside a stateless segment"),
                    }
                    break;
                }
            }
        }
        // On scratch rows from there on, each map writing the other.
        let mut cur = 0;
        for op in ops {
            let (lo, hi) = bufs.split_at_mut(1);
            let (from, to) = match cur {
                0 => (&lo[0], &mut hi[0]),
                _ => (&hi[0], &mut lo[0]),
            };
            match op {
                BoundOp::Filter(pred) => {
                    if !pred.eval_row(&from[..], heap) {
                        return None;
                    }
                }
                BoundOp::Map(exprs) => {
                    to.clear();
                    to.extend(exprs.iter().map(|e| e.eval_row(&from[..], heap)));
                    cur = 1 - cur;
                }
                _ => unreachable!("stateful op inside a stateless segment"),
            }
        }
        Some(cur)
    }
}

/// Where the rows that survive one segment of a run go: into the
/// stateful operator that ends the segment, or out of the pipeline.
struct Segment<'a> {
    sink: Option<&'a mut BoundOp>,
    out: Flat,
}

impl Segment<'_> {
    #[inline]
    fn feed<R: RowSource + ?Sized>(
        &mut self,
        (ops, width): (&[BoundOp], usize),
        row: &R,
        scratch: &mut Scratch,
    ) {
        let Some(b) = scratch.pipe(ops, row, width) else {
            return;
        };
        let Scratch { heap, bufs, key } = scratch;
        let row = &bufs[b][..];
        match &mut self.sink {
            None => self.out.push(row),
            Some(BoundOp::Distinct(seen)) => {
                seen.entry(row);
            }
            Some(BoundOp::Reduce {
                key_idx,
                val_idx,
                agg,
                groups,
            }) => {
                key.clear();
                key.extend(key_idx.iter().map(|&k| row[k]));
                let v = heap.as_u64(row[*val_idx]).unwrap_or(0);
                match groups.entry(key) {
                    (_, true) => groups.accs.push(agg.init(v)),
                    (k, false) => groups.accs[k] = agg.fold(groups.accs[k], v),
                }
            }
            Some(_) => unreachable!("a segment ends at a stateful op"),
        }
    }
}

/// A pipeline bound to its input schema once, executed many times.
#[derive(Debug)]
pub struct BoundPipeline {
    ops: Vec<BoundOp>,
    /// Schema before each op; `schemas[ops.len()]` is the output.
    schemas: Vec<Schema>,
}

impl BoundPipeline {
    /// Bind a pipeline to its input schema, resolving every column
    /// reference to an offset.
    pub fn bind(ops: &[Operator], input: &Schema) -> Result<Self, BindError> {
        let mut schemas = Vec::with_capacity(ops.len() + 1);
        schemas.push(input.clone());
        let mut bops = Vec::with_capacity(ops.len());
        for op in ops {
            let schema = schemas.last().expect("seeded with input schema");
            let unknown = |column: &crate::tuple::ColName| BindError::UnknownColumn {
                column: column.clone(),
                schema: schema.clone(),
            };
            let bop = match op {
                Operator::Filter(p) => BoundOp::Filter(p.bind(schema)?),
                Operator::Map { exprs } => BoundOp::Map(
                    exprs
                        .iter()
                        .map(|(_, e)| e.bind(schema))
                        .collect::<Result<_, _>>()?,
                ),
                Operator::Reduce {
                    keys, agg, value, ..
                } => BoundOp::Reduce {
                    key_idx: keys
                        .iter()
                        .map(|k| schema.index_of(k).ok_or_else(|| unknown(k)))
                        .collect::<Result<_, _>>()?,
                    val_idx: schema.index_of(value).ok_or_else(|| unknown(value))?,
                    agg: *agg,
                    groups: Table::new(keys.len()),
                },
                Operator::Distinct => BoundOp::Distinct(Table::new(schema.len())),
            };
            let next = op.output_schema(schema).map_err(|c| unknown(&c))?;
            bops.push(bop);
            schemas.push(next);
        }
        Ok(BoundPipeline { ops: bops, schemas })
    }

    /// The schema of the pipeline's output.
    pub fn output_schema(&self) -> &Schema {
        self.schemas.last().expect("schemas is never empty")
    }

    /// What each stateful op held at the end of the last run — a
    /// reduce's groups, a distinct's set — in op order. This is the
    /// planner's `B`: the keys a register for that op must fit.
    pub fn cardinalities(&self) -> impl Iterator<Item = usize> + '_ {
        self.ops.iter().filter_map(|op| op.table().map(|t| t.len))
    }

    /// Run the whole pipeline over a batch entering at op 0.
    pub fn run(&mut self, tuples: Vec<Tuple>) -> Vec<Tuple> {
        let entries = Entries::from([(0, runs_of(&tuples))]);
        self.run_from(&entries, 0).tuples().collect()
    }

    /// [`Self::run_rows`] from tuples and back to tuples — the
    /// reference `run_entries` signature, for tests and oracles.
    pub fn run_entries(
        &mut self,
        entries: BTreeMap<usize, Vec<Tuple>>,
    ) -> Result<(Schema, Vec<Tuple>), BoundError> {
        let entries = entries.iter().map(|(&op, t)| (op, runs_of(t))).collect();
        let out = self.run_rows(&entries)?;
        Ok((self.output_schema().clone(), out.tuples().collect()))
    }

    /// Run with rows injected at arbitrary operator indices,
    /// reproducing the reference `run_entries` merge semantics.
    pub fn run_rows(&mut self, entries: &Entries) -> Result<Rows, BoundError> {
        let len = self.ops.len();
        if let Some(&op) = entries.keys().find(|&&op| op > len) {
            return Err(BoundError::BadEntry { op, len });
        }
        let first = entries.keys().next().copied().unwrap_or(len);
        Ok(self.run_from(entries, first))
    }

    /// Fused segment-by-segment execution from op `start`.
    fn run_from(&mut self, entries: &Entries, start: usize) -> Rows {
        let len = self.ops.len();
        let stateful = |op: &BoundOp| op.table().is_some();
        let mut scratch = Scratch::default();
        let mut row = Vec::new();
        // The previous sink and what it emits ([`BoundOp::emission`]),
        // read where it is and entering at `seed_at`: past the filters
        // already asked.
        let mut seed: Option<(usize, Option<Vec<u32>>)> = None;
        let mut seed_at = start;
        let mut i = start;
        loop {
            let sink_at = (i..len).find(|&j| stateful(&self.ops[j])).unwrap_or(len);
            let (head, tail) = self.ops.split_at_mut(sink_at);
            let (sink, tail) = match tail.split_first_mut() {
                Some((sink, tail)) => (Some(sink), &*tail),
                None => (None, &*tail),
            };
            if let Some(BoundOp::Reduce { groups: t, .. } | BoundOp::Distinct(t)) = sink {
                t.clear();
            }
            let head = &*head;
            let mut segment = Segment {
                sink,
                out: Flat::default(),
            };
            // Drain this segment's sources in entry order: the
            // previous sink's output, then each entry run.
            let entering = |at: usize| (&head[at..], self.schemas[at].len());
            if let Some((from, ks)) = &seed {
                let from: &BoundOp = &head[*from];
                let all = 0..from.table().map_or(0, |t| t.len as u32);
                let ks: &mut dyn Iterator<Item = u32> = match ks {
                    Some(ks) => &mut ks.iter().copied(),
                    None => &mut all.into_iter(),
                };
                for k in ks {
                    from.emitted(k as usize, &mut row, &mut scratch.heap);
                    segment.feed(entering(seed_at), &row[..], &mut scratch);
                }
            }
            for at in i..=sink_at {
                let path = entering(at);
                for run in entries.get(&at).into_iter().flatten() {
                    match run {
                        RowRun::Packets { block, sel } => {
                            for &p in sel.iter().filter(|&&p| block.is_valid(p)) {
                                segment.feed(path, &block.row(p), &mut scratch);
                            }
                        }
                        RowRun::Cells(rows) => {
                            for r in 0..rows.len() {
                                segment.feed(path, &rows.row(r), &mut scratch);
                            }
                        }
                    }
                }
            }
            let Some(sink) = segment.sink else {
                let width = self.schemas[len].len();
                let Flat { cells, rows } = segment.out;
                return Rows::from_parts(width, rows, cells, scratch.heap);
            };
            let filters = tail
                .iter()
                .take_while(|op| matches!(op, BoundOp::Filter(_)));
            let filters = &tail[..filters.count()];
            let ks = sink.emission(filters, !tail.iter().any(stateful), &mut scratch);
            seed = Some((sink_at, ks));
            seed_at = sink_at + 1 + filters.len();
            i = sink_at + 1;
        }
    }
}

/// A join bound to its two branch output schemas once: key offsets,
/// key expressions, the right-side append projection and the post-join
/// pipeline, as [`crate::interpret::run_query_with_schema`] resolves
/// them per call.
#[derive(Debug)]
pub struct BoundJoin {
    right_key_idx: Vec<usize>,
    left_key_exprs: Vec<BoundExpr>,
    append_idx: Vec<usize>,
    post: BoundPipeline,
}

impl BoundJoin {
    /// Bind `join` between branch outputs of the given schemas, with
    /// the reference interpreter's error precedence.
    pub fn bind(join: &Join, left: &Schema, right: &Schema) -> Result<Self, InterpretError> {
        let right_key_idx = (join.keys.iter())
            .map(|k| {
                let missing = || QueryError::JoinKeyMissing { key: k.clone() };
                right.index_of(k).ok_or_else(missing)
            })
            .collect::<Result<_, _>>()?;
        let left_key_exprs = (join.left_keys.iter())
            .map(|e| e.bind(left))
            .collect::<Result<_, _>>()?;
        let append_idx = (0..right.len())
            .filter(|&i| !left.contains(&right.columns()[i]))
            .collect();
        let joined = joined_schema(left, right, &join.keys);
        Ok(BoundJoin {
            right_key_idx,
            left_key_exprs,
            append_idx,
            post: BoundPipeline::bind(&join.post.ops, &joined)?,
        })
    }

    /// The schema of [`BoundJoin::run_rows`]'s output.
    pub fn output_schema(&self) -> &Schema {
        self.post.output_schema()
    }

    /// Hash-join the two branch outputs — left order, then right order
    /// within a key, as the reference does — and run the post-join
    /// pipeline over the result.
    pub fn run_rows(&mut self, left: &Rows, right: &Rows) -> Rows {
        let mut heap = Heap::default();
        let mut key = Vec::new();
        // Right rows by key: `index.accs[k]` is the last row of key
        // `k`, `prev[r]` the one before row `r` (itself at the first).
        let mut index = Table::new(self.right_key_idx.len());
        let mut prev: Vec<usize> = Vec::with_capacity(right.len());
        for r in 0..right.len() {
            let row = right.row(r);
            key.clear();
            key.extend(self.right_key_idx.iter().map(|&i| row.cell(i, &mut heap)));
            match index.entry(&key) {
                (_, true) => {
                    index.accs.push(r as u64);
                    prev.push(r);
                }
                (k, false) => prev.push(std::mem::replace(&mut index.accs[k], r as u64) as usize),
            }
        }
        let width = left.width() + self.append_idx.len();
        let mut joined = Flat::default();
        let mut matches = Vec::new();
        for l in 0..left.len() {
            let lrow = left.row(l);
            key.clear();
            key.extend(
                self.left_key_exprs
                    .iter()
                    .map(|e| e.eval_row(&lrow, &mut heap)),
            );
            let Some(k) = index.find(&key) else {
                continue;
            };
            matches.clear();
            let mut r = index.accs[k] as usize;
            loop {
                matches.push(r);
                if prev[r] == r {
                    break;
                }
                r = prev[r];
            }
            for &r in matches.iter().rev() {
                let rrow = right.row(r);
                let cells = &mut joined.cells;
                cells.extend((0..left.width()).map(|c| lrow.cell(c, &mut heap)));
                cells.extend(self.append_idx.iter().map(|&c| rrow.cell(c, &mut heap)));
                joined.rows += 1;
            }
        }
        let joined = Rows::from_parts(width, joined.rows, joined.cells, heap);
        let entries = Entries::from([(0, vec![RowRun::Cells(joined)])]);
        self.post.run_from(&entries, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, field, lit};
    use crate::interpret::run_pipeline;
    use sonata_packet::{Field, PacketBuilder, TcpFlags, Value};

    fn syn(src: u32, dst: u32) -> Tuple {
        Tuple::from_packet(
            &PacketBuilder::tcp_raw(src, 999, dst, 80)
                .flags(TcpFlags::SYN)
                .build(),
        )
    }

    fn q1_ops(th: u64) -> Vec<Operator> {
        crate::catalog::newly_opened_tcp_conns(&crate::catalog::Thresholds {
            new_tcp: th,
            ..crate::catalog::Thresholds::default()
        })
        .pipeline
        .ops
    }

    #[test]
    fn fused_run_matches_reference_pipeline() {
        let ops = q1_ops(2);
        let packet = Schema::packet();
        let mut bound = BoundPipeline::bind(&ops, &packet).unwrap();
        let tuples: Vec<Tuple> = (0..20).map(|i| syn(i % 6, 0xaa + (i % 3))).collect();
        let (ref_schema, mut reference) = run_pipeline(&ops, &packet, tuples.clone()).unwrap();
        let mut fused = bound.run(tuples);
        assert_eq!(bound.output_schema(), &ref_schema);
        reference.sort();
        fused.sort();
        assert_eq!(fused, reference);
    }

    #[test]
    fn entry_merge_order_matches_reference() {
        use crate::interpret::run_operator;
        // Mid-pipeline entries (shunts at the reduce, dumps at the
        // end) must merge exactly as the reference loop does.
        let ops = q1_ops(0);
        let packet = Schema::packet();
        let mut bound = BoundPipeline::bind(&ops, &packet).unwrap();
        let mut entries: BTreeMap<usize, Vec<Tuple>> = BTreeMap::new();
        entries.insert(0, (0..5).map(|i| syn(i, 0xcc)).collect());
        entries.insert(
            2,
            (0..3)
                .map(|_| Tuple::new(vec![Value::U64(0xcc), Value::U64(1)]))
                .collect(),
        );
        entries.insert(4, vec![Tuple::new(vec![Value::U64(0xdd), Value::U64(9)])]);
        // Reference: replicate run_entries_owned inline.
        let mut schema = packet;
        let mut tuples: Vec<Tuple> = Vec::new();
        let mut ref_entries = entries.clone();
        for i in 0..=ops.len() {
            if let Some(inc) = ref_entries.remove(&i) {
                tuples.extend(inc);
            }
            if i == ops.len() {
                break;
            }
            let (s, t) = run_operator(&ops[i], &schema, tuples).unwrap();
            schema = s;
            tuples = t;
        }
        let (bschema, bout) = bound.run_entries(entries).unwrap();
        assert_eq!(bschema, schema);
        assert_eq!(bout, tuples);
    }

    #[test]
    fn bad_entry_rejected() {
        let ops = q1_ops(1);
        let mut bound = BoundPipeline::bind(&ops, &Schema::packet()).unwrap();
        let mut entries = BTreeMap::new();
        entries.insert(99, vec![Tuple::new(vec![])]);
        assert_eq!(
            bound.run_entries(entries),
            Err(BoundError::BadEntry { op: 99, len: 4 })
        );
    }

    #[test]
    fn text_and_scalar_keys_share_one_table() {
        // Text group keys (DNS-name refinement) are cells like any
        // other; mixed with scalar keys, every accumulator is kept and
        // the emission orders scalars before text, as `Value` does.
        let ops = vec![Operator::Reduce {
            keys: vec!["k".into()],
            agg: Agg::Sum,
            value: "v".into(),
            out: "sum".into(),
        }];
        let schema = Schema::new(["k", "v"]);
        let mut bound = BoundPipeline::bind(&ops, &schema).unwrap();
        let tuples = vec![
            Tuple::new(vec![Value::U64(1), Value::U64(10)]),
            Tuple::new(vec![Value::Text("a".into()), Value::U64(5)]),
            Tuple::new(vec![Value::U64(1), Value::U64(7)]),
            Tuple::new(vec![Value::Text("a".into()), Value::U64(2)]),
        ];
        let (_, reference) = run_pipeline(&ops, &schema, tuples.clone()).unwrap();
        let fused = bound.run(tuples);
        assert_eq!(fused, reference);
    }

    #[test]
    fn cardinalities_are_the_last_runs() {
        let ops = q1_ops(0);
        let mut bound = BoundPipeline::bind(&ops, &Schema::packet()).unwrap();
        bound.run((0..10).map(|i| syn(i, 0xaa + i)).collect());
        // The reduce at op 2 saw 10 distinct destinations.
        assert_eq!(bound.cardinalities().collect::<Vec<_>>(), [10]);
        bound.run(vec![]);
        assert_eq!(bound.cardinalities().collect::<Vec<_>>(), [0]);
    }

    #[test]
    fn stateless_tail_after_reduce() {
        // map after reduce exercises a seed flowing into a
        // trailing stateless segment.
        let ops = vec![
            Operator::Map {
                exprs: vec![("dIP".into(), field(Field::Ipv4Dst)), ("c".into(), lit(1))],
            },
            Operator::Reduce {
                keys: vec!["dIP".into()],
                agg: Agg::Sum,
                value: "c".into(),
                out: "c".into(),
            },
            Operator::Map {
                exprs: vec![("double".into(), col("c").add(col("c")))],
            },
        ];
        let packet = Schema::packet();
        let mut bound = BoundPipeline::bind(&ops, &packet).unwrap();
        let tuples: Vec<Tuple> = (0..6).map(|i| syn(i, 0xaa + (i % 2))).collect();
        let (_, reference) = run_pipeline(&ops, &packet, tuples.clone()).unwrap();
        assert_eq!(bound.run(tuples), reference);
    }
}
