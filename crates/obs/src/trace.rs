//! Structured event tracing: a bounded ring of typed, timestamped
//! events, exported as JSONL (one object per line).

use crate::json::JsonWriter;
use crate::profile::Stage;
use std::collections::VecDeque;
use std::sync::Mutex;

/// One structured runtime event.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A window started processing.
    WindowOpen {
        /// Window index.
        window: u64,
        /// Packets in the window.
        packets: u64,
    },
    /// A window closed.
    WindowClose {
        /// Window index.
        window: u64,
        /// Tuples delivered to the stream processor.
        tuples_to_sp: u64,
        /// Collision shunts within the window.
        shunts: u64,
    },
    /// The planner produced a global plan.
    PlanCompile {
        /// Strategy label (`Sonata`, `Max-DP`, ...).
        mode: String,
        /// Queries planned.
        queries: u64,
        /// Predicted tuples per window.
        predicted_tuples: f64,
    },
    /// The chosen refinement chain for one query.
    RefinementChain {
        /// The query.
        query: u32,
        /// Levels in execution order.
        levels: Vec<u8>,
    },
    /// One ILP solve finished.
    IlpSolve {
        /// Branch-and-bound nodes explored.
        nodes: u64,
        /// Simplex pivots performed.
        pivots: u64,
        /// Solve wall time.
        wall_ns: u64,
        /// Objective of the incumbent.
        objective: f64,
    },
    /// A window-boundary control-plane update was applied.
    BoundaryUpdate {
        /// Window index.
        window: u64,
        /// Dynamic-filter entries written.
        entries: u64,
        /// Simulated control-plane latency.
        latency_ns: u64,
    },
    /// Collision pressure crossed the re-plan threshold.
    ReplanTrigger {
        /// Window index.
        window: u64,
        /// Plan divergence on the drift monitor's unified scale
        /// (1.0 = per-query load off by 100% of prediction, or
        /// shunts at the configured re-plan fraction).
        divergence: f64,
    },
    /// A re-solved plan was swapped in at a window boundary.
    PlanSwap {
        /// First window executed under the new plan.
        window: u64,
        /// Epoch of the swapped-in plan.
        epoch: u64,
        /// Digest of the swapped-in plan's deployment.
        plan_digest: u64,
        /// Re-solve wall time (planner thread, off the window path).
        solve_wall_ns: u64,
    },
    /// A stream job panicked (contained).
    WorkerPanic {
        /// The stream job.
        job: u32,
        /// Rendered panic payload.
        message: String,
    },
    /// A panicked job's executor was rebuilt from its registered query.
    WorkerRespawn {
        /// The stream job.
        job: u32,
    },
    /// Faults of one kind were injected into a window (emitted at
    /// window close from the injector's record).
    FaultInjected {
        /// Window index.
        window: u64,
        /// Fault kind label (matches the
        /// `sonata_faults_injected{kind=...}` metric).
        kind: String,
        /// Injections of this kind within the window.
        count: u64,
    },
    /// A window completed under injected faults and/or degradation
    /// responses — the event form of the report's `DegradedWindow`
    /// marker.
    WindowDegraded {
        /// Window index.
        window: u64,
        /// Total faults injected in the window.
        faults: u64,
    },
    /// A profiled pipeline stage completed (also folded into the
    /// `sonata_stage_ns` histogram).
    StageSpan {
        /// The stage.
        stage: Stage,
        /// Window index (0 when not window-scoped).
        window: u64,
        /// Stage wall time.
        wall_ns: u64,
    },
    /// A notable transport frame crossed the switch↔collector wire
    /// (window dumps, report-block chunks and control batches; single
    /// report frames are counted, not traced).
    NetFrame {
        /// Window index the frame belongs to.
        window: u64,
        /// Frame label (`window_dump`, `control`, ...).
        kind: String,
        /// Encoded frame size in bytes.
        bytes: u64,
    },
    /// The switch-side transport client re-dialed the collector.
    Reconnect {
        /// Re-dial attempt number within one reconnect episode.
        attempt: u64,
        /// Backoff slept before this attempt.
        backoff_ms: u64,
    },
    /// A distributed-trace span completed: a stage execution with
    /// trace identity, parented across process (and wire) boundaries.
    /// Stage-shaped spans are also folded into `sonata_stage_ns`.
    Span {
        /// Trace id (shared by every span of one window, fabric-wide).
        trace: u64,
        /// This span's id.
        span: u64,
        /// Parent span id (0 for a window root).
        parent: u64,
        /// Span name — a stage label, or `window` for roots.
        name: &'static str,
        /// Emitting process (`switch-0`, `shard-1`, `collector`).
        process: String,
        /// Window index.
        window: u64,
        /// Span wall time.
        wall_ns: u64,
    },
    /// A sketch-backed register exceeded its design load: the
    /// declared error bound no longer holds and the planner should
    /// re-size (or the operator widen) the sketch.
    SketchSaturated {
        /// The owning stateful task (`q1_r32_b0` form).
        task: String,
        /// Layout name (`count-min`, `bloom`, `hll`).
        layout: &'static str,
        /// Keys admitted this window.
        keys: u64,
        /// Design capacity the sketch was provisioned for.
        capacity: u64,
    },
    /// A fabric merged one window's per-switch partials into the
    /// global result (multi-switch runs only).
    FabricMerge {
        /// Window index.
        window: u64,
        /// Switches whose partials contributed.
        switches: u64,
        /// Bitmask of switches that failed to close the window and
        /// whose partials were discarded.
        stragglers: u64,
    },
}

impl EventKind {
    /// Short type tag used in exports.
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::WindowOpen { .. } => "window_open",
            EventKind::WindowClose { .. } => "window_close",
            EventKind::PlanCompile { .. } => "plan_compile",
            EventKind::RefinementChain { .. } => "refinement_chain",
            EventKind::IlpSolve { .. } => "ilp_solve",
            EventKind::BoundaryUpdate { .. } => "boundary_update",
            EventKind::ReplanTrigger { .. } => "replan_trigger",
            EventKind::PlanSwap { .. } => "plan_swap",
            EventKind::WorkerPanic { .. } => "worker_panic",
            EventKind::WorkerRespawn { .. } => "worker_respawn",
            EventKind::FaultInjected { .. } => "fault_injected",
            EventKind::WindowDegraded { .. } => "window_degraded",
            EventKind::StageSpan { .. } => "stage_span",
            EventKind::NetFrame { .. } => "net_frame",
            EventKind::Reconnect { .. } => "reconnect",
            EventKind::Span { .. } => "span",
            EventKind::SketchSaturated { .. } => "sketch_saturated",
            EventKind::FabricMerge { .. } => "fabric_merge",
        }
    }

    /// Write the event-specific fields into an open JSON object.
    fn write_fields(&self, w: &mut JsonWriter) {
        match self {
            EventKind::WindowOpen { window, packets } => {
                w.key("window");
                w.value_u64(*window);
                w.key("packets");
                w.value_u64(*packets);
            }
            EventKind::WindowClose {
                window,
                tuples_to_sp,
                shunts,
            } => {
                w.key("window");
                w.value_u64(*window);
                w.key("tuples_to_sp");
                w.value_u64(*tuples_to_sp);
                w.key("shunts");
                w.value_u64(*shunts);
            }
            EventKind::PlanCompile {
                mode,
                queries,
                predicted_tuples,
            } => {
                w.key("mode");
                w.value_str(mode);
                w.key("queries");
                w.value_u64(*queries);
                w.key("predicted_tuples");
                w.value_f64(*predicted_tuples);
            }
            EventKind::RefinementChain { query, levels } => {
                w.key("query");
                w.value_u64(*query as u64);
                w.key("levels");
                w.begin_array();
                for l in levels {
                    w.value_u64(*l as u64);
                }
                w.end_array();
            }
            EventKind::IlpSolve {
                nodes,
                pivots,
                wall_ns,
                objective,
            } => {
                w.key("nodes");
                w.value_u64(*nodes);
                w.key("pivots");
                w.value_u64(*pivots);
                w.key("wall_ns");
                w.value_u64(*wall_ns);
                w.key("objective");
                w.value_f64(*objective);
            }
            EventKind::BoundaryUpdate {
                window,
                entries,
                latency_ns,
            } => {
                w.key("window");
                w.value_u64(*window);
                w.key("entries");
                w.value_u64(*entries);
                w.key("latency_ns");
                w.value_u64(*latency_ns);
            }
            EventKind::ReplanTrigger { window, divergence } => {
                w.key("window");
                w.value_u64(*window);
                w.key("divergence");
                w.value_f64(*divergence);
            }
            EventKind::PlanSwap {
                window,
                epoch,
                plan_digest,
                solve_wall_ns,
            } => {
                w.key("window");
                w.value_u64(*window);
                w.key("epoch");
                w.value_u64(*epoch);
                w.key("plan_digest");
                w.value_u64(*plan_digest);
                w.key("solve_wall_ns");
                w.value_u64(*solve_wall_ns);
            }
            EventKind::WorkerPanic { job, message } => {
                w.key("job");
                w.value_u64(*job as u64);
                w.key("message");
                w.value_str(message);
            }
            EventKind::WorkerRespawn { job } => {
                w.key("job");
                w.value_u64(*job as u64);
            }
            EventKind::FaultInjected {
                window,
                kind,
                count,
            } => {
                w.key("window");
                w.value_u64(*window);
                w.key("kind");
                w.value_str(kind);
                w.key("count");
                w.value_u64(*count);
            }
            EventKind::WindowDegraded { window, faults } => {
                w.key("window");
                w.value_u64(*window);
                w.key("faults");
                w.value_u64(*faults);
            }
            EventKind::StageSpan {
                stage,
                window,
                wall_ns,
            } => {
                w.key("stage");
                w.value_str(stage.name());
                w.key("window");
                w.value_u64(*window);
                w.key("wall_ns");
                w.value_u64(*wall_ns);
            }
            EventKind::NetFrame {
                window,
                kind,
                bytes,
            } => {
                w.key("window");
                w.value_u64(*window);
                w.key("kind");
                w.value_str(kind);
                w.key("bytes");
                w.value_u64(*bytes);
            }
            EventKind::Reconnect {
                attempt,
                backoff_ms,
            } => {
                w.key("attempt");
                w.value_u64(*attempt);
                w.key("backoff_ms");
                w.value_u64(*backoff_ms);
            }
            EventKind::SketchSaturated {
                task,
                layout,
                keys,
                capacity,
            } => {
                w.key("task");
                w.value_str(task);
                w.key("layout");
                w.value_str(layout);
                w.key("keys");
                w.value_u64(*keys);
                w.key("capacity");
                w.value_u64(*capacity);
            }
            EventKind::Span {
                trace,
                span,
                parent,
                name,
                process,
                window,
                wall_ns,
            } => {
                w.key("trace");
                w.value_u64(*trace);
                w.key("span");
                w.value_u64(*span);
                w.key("parent");
                w.value_u64(*parent);
                w.key("name");
                w.value_str(name);
                w.key("process");
                w.value_str(process);
                w.key("window");
                w.value_u64(*window);
                w.key("wall_ns");
                w.value_u64(*wall_ns);
            }
            EventKind::FabricMerge {
                window,
                switches,
                stragglers,
            } => {
                w.key("window");
                w.value_u64(*window);
                w.key("switches");
                w.value_u64(*switches);
                w.key("stragglers");
                w.value_u64(*stragglers);
            }
        }
    }
}

/// A timestamped event.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedEvent {
    /// Nanoseconds since the handle's epoch.
    pub ts_ns: u64,
    /// The typed payload.
    pub kind: EventKind,
}

impl TracedEvent {
    /// Render as one JSON object (a JSONL line, sans newline).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("ts_ns");
        w.value_u64(self.ts_ns);
        w.key("type");
        w.value_str(self.kind.tag());
        self.kind.write_fields(&mut w);
        w.end_object();
        w.finish()
    }
}

/// A bounded ring of events: pushes past the capacity evict the oldest
/// entry, and a drop counter records the loss (collection overhead
/// must itself stay bounded and measured).
#[derive(Debug)]
pub struct EventRing {
    inner: Mutex<RingInner>,
    capacity: usize,
}

#[derive(Debug, Default)]
struct RingInner {
    events: VecDeque<TracedEvent>,
    dropped: u64,
}

impl EventRing {
    /// A ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        EventRing {
            inner: Mutex::new(RingInner::default()),
            capacity: capacity.max(1),
        }
    }

    /// Append an event, evicting the oldest when full.
    pub fn push(&self, event: TracedEvent) {
        let mut inner = self.inner.lock().unwrap();
        if inner.events.len() == self.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(event);
    }

    /// Copy the retained events, oldest first.
    pub fn events(&self) -> Vec<TracedEvent> {
        self.inner.lock().unwrap().events.iter().cloned().collect()
    }

    /// Events evicted so far.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }

    /// The ring's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Render events as JSONL (one JSON object per line).
pub fn to_jsonl(events: &[TracedEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_json());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn ev(ts: u64, window: u64) -> TracedEvent {
        TracedEvent {
            ts_ns: ts,
            kind: EventKind::WindowOpen {
                window,
                packets: 10,
            },
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let ring = EventRing::new(2);
        ring.push(ev(1, 0));
        ring.push(ev(2, 1));
        ring.push(ev(3, 2));
        let events = ring.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].ts_ns, 2);
        assert_eq!(ring.dropped(), 1);
        assert_eq!(ring.capacity(), 2);
    }

    #[test]
    fn jsonl_lines_parse_individually() {
        let events = vec![
            ev(5, 0),
            TracedEvent {
                ts_ns: 9,
                kind: EventKind::StageSpan {
                    stage: Stage::PacketLoop,
                    window: 0,
                    wall_ns: 4,
                },
            },
        ];
        let jsonl = to_jsonl(&events);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = json::parse(lines[0]).unwrap();
        assert_eq!(
            first.get("type").and_then(json::JsonValue::as_str),
            Some("window_open")
        );
        let second = json::parse(lines[1]).unwrap();
        assert_eq!(
            second.get("stage").and_then(json::JsonValue::as_str),
            Some("packet_loop")
        );
    }

    #[test]
    fn every_event_kind_renders() {
        let kinds = vec![
            EventKind::WindowClose {
                window: 1,
                tuples_to_sp: 2,
                shunts: 3,
            },
            EventKind::PlanCompile {
                mode: "Sonata".into(),
                queries: 2,
                predicted_tuples: 10.5,
            },
            EventKind::RefinementChain {
                query: 1,
                levels: vec![8, 32],
            },
            EventKind::IlpSolve {
                nodes: 4,
                pivots: 100,
                wall_ns: 12,
                objective: 8.0,
            },
            EventKind::BoundaryUpdate {
                window: 0,
                entries: 5,
                latency_ns: 9,
            },
            EventKind::ReplanTrigger {
                window: 2,
                divergence: 0.25,
            },
            EventKind::PlanSwap {
                window: 4,
                epoch: 1,
                plan_digest: 0xFEED,
                solve_wall_ns: 1_250_000,
            },
            EventKind::WorkerPanic {
                job: 1001,
                message: "boom \"quoted\"".into(),
            },
            EventKind::WorkerRespawn { job: 1001 },
            EventKind::FaultInjected {
                window: 4,
                kind: "report_drop".into(),
                count: 6,
            },
            EventKind::WindowDegraded {
                window: 4,
                faults: 7,
            },
            EventKind::NetFrame {
                window: 5,
                kind: "window_dump".into(),
                bytes: 512,
            },
            EventKind::Reconnect {
                attempt: 2,
                backoff_ms: 4,
            },
            EventKind::Span {
                trace: 0xABC,
                span: 0xDEF,
                parent: 0x123,
                name: "packet_loop",
                process: "switch-0".into(),
                window: 3,
                wall_ns: 450,
            },
            EventKind::SketchSaturated {
                task: "q1_r32_b0".into(),
                layout: "count-min",
                keys: 2048,
                capacity: 1024,
            },
            EventKind::FabricMerge {
                window: 6,
                switches: 4,
                stragglers: 0b10,
            },
        ];
        for kind in kinds {
            let e = TracedEvent { ts_ns: 1, kind };
            let parsed = json::parse(&e.to_json()).unwrap();
            assert_eq!(
                parsed.get("type").and_then(json::JsonValue::as_str),
                Some(e.kind.tag())
            );
        }
    }
}
