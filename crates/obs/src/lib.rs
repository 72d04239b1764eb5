//! # sonata-obs — cross-layer observability for the Sonata runtime
//!
//! Sonata's claims are quantitative (tuples delivered to the stream
//! processor, switch occupancy, update latency), so the runtime needs
//! a measurement substrate that is itself cheap enough not to distort
//! what it measures. This crate provides three pieces, all behind one
//! [`ObsHandle`]:
//!
//! 1. a **metrics registry** ([`metrics`]) — counters, gauges, and
//!    fixed-bucket latency histograms addressed as `name{label=value}`,
//!    exported as one JSON document ([`MetricsSnapshot::to_json`],
//!    checked by [`validate_snapshot_json`]);
//! 2. a **structured event trace** ([`trace`]) — a bounded ring of
//!    typed, nanosecond-stamped events, exported as JSONL
//!    ([`ObsHandle::events_jsonl`]);
//! 3. a **per-window profiler** ([`profile`], [`StageTimer`]) — a
//!    drop-guard that times each pipeline stage and folds the result
//!    into the `sonata_stage_ns{stage=...}` histograms.
//!
//! ## The overhead contract
//!
//! A *disabled* handle (the default) must be a near-no-op: handles it
//! returns are unregistered atomics (the instrumented code still does
//! the relaxed atomic add and nothing else), [`ObsHandle::event`]
//! returns before constructing anything, and [`ObsHandle::stage`]
//! returns an unarmed guard without reading the clock. No allocation
//! happens on any disabled hot path. The crate has **zero external
//! dependencies** so every runtime crate in the vendored-only build
//! can use it.

pub mod json;
pub mod metrics;
pub mod profile;
pub mod span;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry};
pub use profile::Stage;
pub use span::TraceContext;
pub use trace::{EventKind, EventRing, TracedEvent};

use std::sync::Arc;
use std::time::Instant;

/// Default event-ring capacity for [`ObsHandle::enabled`].
pub const DEFAULT_EVENT_CAPACITY: usize = 65_536;

#[derive(Debug)]
struct ObsInner {
    epoch: Instant,
    registry: Registry,
    ring: EventRing,
    /// Stage histograms pre-registered in [`Stage::ALL`] order so the
    /// profiler never takes the registry mutex per window.
    stage_hist: Vec<Histogram>,
}

/// The cross-layer observability handle threaded from `RuntimeConfig`
/// through the switch, planner, and stream engine. Cloning shares the
/// underlying registry and event ring; the disabled handle (also the
/// `Default`) costs one `Option` check per use.
#[derive(Debug, Clone, Default)]
pub struct ObsHandle {
    inner: Option<Arc<ObsInner>>,
}

impl ObsHandle {
    /// The no-op handle: metrics become unregistered atomics, events
    /// and stage timers vanish.
    pub fn disabled() -> Self {
        ObsHandle { inner: None }
    }

    /// An enabled handle with the default event-ring capacity.
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// An enabled handle retaining at most `events` trace events.
    pub fn with_capacity(events: usize) -> Self {
        let registry = Registry::default();
        let stage_hist = Stage::ALL
            .iter()
            .map(|s| registry.histogram("sonata_stage_ns", &[("stage", s.name())]))
            .collect();
        ObsHandle {
            inner: Some(Arc::new(ObsInner {
                epoch: Instant::now(),
                registry,
                ring: EventRing::new(events),
                stage_hist,
            })),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Nanoseconds since this handle was created (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.epoch.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// Get or create a counter (an unregistered atomic when disabled).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match &self.inner {
            Some(inner) => inner.registry.counter(name, labels),
            None => Counter::default(),
        }
    }

    /// Get or create a gauge (an unregistered atomic when disabled).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match &self.inner {
            Some(inner) => inner.registry.gauge(name, labels),
            None => Gauge::default(),
        }
    }

    /// Get or create a latency histogram (unregistered when disabled).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        match &self.inner {
            Some(inner) => inner.registry.histogram(name, labels),
            None => Histogram::default(),
        }
    }

    /// Record a structured event. Callers on hot paths should guard
    /// with [`Self::is_enabled`] when *building* the event allocates.
    pub fn event(&self, kind: EventKind) {
        if let Some(inner) = &self.inner {
            inner.ring.push(TracedEvent {
                ts_ns: inner.epoch.elapsed().as_nanos() as u64,
                kind,
            });
        }
    }

    /// Start timing a pipeline stage. The returned guard records on
    /// drop; when disabled it is inert (no clock read).
    pub fn stage(&self, stage: Stage, window: u64) -> StageTimer {
        match &self.inner {
            Some(inner) => StageTimer {
                state: Some(TimerState {
                    stage: Some(stage),
                    window,
                    started: Instant::now(),
                    inner: Arc::clone(inner),
                    span: None,
                }),
            },
            None => StageTimer { state: None },
        }
    }

    /// Start timing a pipeline stage *as a distributed-trace span*
    /// parented under `parent` and attributed to `process`
    /// (`switch-0`, `shard-1`, `collector`). Folds into the same
    /// `sonata_stage_ns` histogram as [`Self::stage`], but emits an
    /// [`EventKind::Span`] carrying trace identity instead of a bare
    /// `StageSpan`. With an absent parent context it degrades to a
    /// plain stage timer; disabled handles return an inert guard.
    pub fn trace_span(
        &self,
        stage: Stage,
        window: u64,
        parent: TraceContext,
        process: &str,
    ) -> StageTimer {
        match &self.inner {
            Some(inner) => {
                let span = parent.is_some().then(|| SpanInfo {
                    ctx: parent.child(stage.index() as u64 + 1),
                    parent: parent.span,
                    name: stage.name(),
                    process: process.to_string(),
                });
                StageTimer {
                    state: Some(TimerState {
                        stage: Some(stage),
                        window,
                        started: Instant::now(),
                        inner: Arc::clone(inner),
                        span,
                    }),
                }
            }
            None => StageTimer { state: None },
        }
    }

    /// Record an already-measured stage span. For sections whose
    /// parent context is only learned *while* they run (the collector
    /// drain discovers the window's trace from the frames it is
    /// draining), callers measure with [`Self::now_ns`] and report
    /// here afterwards. Exactly `wall_ns` is observed into the stage
    /// histogram — the same reconciliation guarantee as
    /// [`StageTimer::finish`]. Degrades to a bare `StageSpan` event
    /// without a parent; no-op when disabled.
    pub fn record_span(
        &self,
        stage: Stage,
        window: u64,
        parent: TraceContext,
        wall_ns: u64,
        process: &str,
    ) {
        if let Some(inner) = &self.inner {
            inner.stage_hist[stage.index()].observe(wall_ns);
            let kind = if parent.is_some() {
                EventKind::Span {
                    trace: parent.trace,
                    span: parent.child(stage.index() as u64 + 1).span,
                    parent: parent.span,
                    name: stage.name(),
                    process: process.to_string(),
                    window,
                    wall_ns,
                }
            } else {
                EventKind::StageSpan {
                    stage,
                    window,
                    wall_ns,
                }
            };
            inner.ring.push(TracedEvent {
                ts_ns: inner.epoch.elapsed().as_nanos() as u64,
                kind,
            });
        }
    }

    /// Open the root span of one (window, switch) trace. The guard's
    /// [`StageTimer::ctx`] is the parent context for every stage span
    /// of the window — locally and, propagated in-band on frame
    /// headers, on the far side of the wire. Roots have no stage
    /// histogram; their wall time is the whole window.
    pub fn root_span(&self, window: u64, switch: u16, process: &str) -> StageTimer {
        match &self.inner {
            Some(inner) => StageTimer {
                state: Some(TimerState {
                    stage: None,
                    window,
                    started: Instant::now(),
                    inner: Arc::clone(inner),
                    span: Some(SpanInfo {
                        ctx: TraceContext::root(window, switch),
                        parent: 0,
                        name: "window",
                        process: process.to_string(),
                    }),
                }),
            },
            None => StageTimer { state: None },
        }
    }

    /// Freeze every registered metric (empty when disabled). The
    /// event-ring drop counter is injected as
    /// `sonata_obs_events_dropped_total` so exporters can tell an
    /// incomplete trace from a quiet one.
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(inner) => {
                let mut snap = inner.registry.snapshot();
                let key = "sonata_obs_events_dropped_total".to_string();
                let dropped = inner.ring.dropped();
                match snap.counters.binary_search_by(|(k, _)| k.cmp(&key)) {
                    Ok(i) => snap.counters[i].1 = dropped,
                    Err(i) => snap.counters.insert(i, (key, dropped)),
                }
                snap
            }
            None => MetricsSnapshot::default(),
        }
    }

    /// Copy the retained trace events, oldest first.
    pub fn events(&self) -> Vec<TracedEvent> {
        match &self.inner {
            Some(inner) => inner.ring.events(),
            None => Vec::new(),
        }
    }

    /// Render the retained events as JSONL. The document ends with a
    /// `ring_status` trailer line carrying the drop counter and ring
    /// capacity, so consumers can tell whether the trace is complete.
    pub fn events_jsonl(&self) -> String {
        let mut out = trace::to_jsonl(&self.events());
        if let Some(inner) = &self.inner {
            let mut w = json::JsonWriter::new();
            w.begin_object();
            w.key("ts_ns");
            w.value_u64(self.now_ns());
            w.key("type");
            w.value_str("ring_status");
            w.key("dropped");
            w.value_u64(inner.ring.dropped());
            w.key("capacity");
            w.value_u64(inner.ring.capacity() as u64);
            w.end_object();
            out.push_str(&w.finish());
            out.push('\n');
        }
        out
    }
}

/// Trace identity attached to a span-shaped timer.
struct SpanInfo {
    /// The span's own context (trace id + span id).
    ctx: TraceContext,
    /// Parent span id (0 for window roots).
    parent: u64,
    name: &'static str,
    process: String,
}

struct TimerState {
    /// Stage whose histogram absorbs the wall time (`None` for window
    /// roots, which have no stage lane).
    stage: Option<Stage>,
    window: u64,
    started: Instant,
    inner: Arc<ObsInner>,
    span: Option<SpanInfo>,
}

impl TimerState {
    /// Record the elapsed time into the stage histogram and event
    /// ring; returns the observed nanoseconds. Exactly this value is
    /// observed into the histogram, so callers threading the return
    /// into `WindowLatency` reconcile with the profiler by
    /// construction.
    fn record(self) -> u64 {
        let wall_ns = self.started.elapsed().as_nanos() as u64;
        if let Some(stage) = self.stage {
            self.inner.stage_hist[stage.index()].observe(wall_ns);
        }
        let kind = match self.span {
            Some(info) => EventKind::Span {
                trace: info.ctx.trace,
                span: info.ctx.span,
                parent: info.parent,
                name: info.name,
                process: info.process,
                window: self.window,
                wall_ns,
            },
            None => EventKind::StageSpan {
                // Unreachable fallback stage only if neither span nor
                // stage was set; constructors always set one.
                stage: self.stage.unwrap_or(Stage::PacketLoop),
                window: self.window,
                wall_ns,
            },
        };
        self.inner.ring.push(TracedEvent {
            ts_ns: self.inner.epoch.elapsed().as_nanos() as u64,
            kind,
        });
        wall_ns
    }
}

/// Drop-guard stage timer from [`ObsHandle::stage`],
/// [`ObsHandle::trace_span`], or [`ObsHandle::root_span`]. Dropping an
/// armed timer folds the elapsed nanoseconds into the stage histogram
/// and pushes a [`EventKind::StageSpan`] (or [`EventKind::Span`])
/// event; an unarmed timer does nothing.
pub struct StageTimer {
    state: Option<TimerState>,
}

impl StageTimer {
    /// Whether this timer will record on drop.
    pub fn is_armed(&self) -> bool {
        self.state.is_some()
    }

    /// This timer's own trace context — the parent for any child
    /// spans. [`TraceContext::NONE`] when unarmed or untraced.
    pub fn ctx(&self) -> TraceContext {
        self.state
            .as_ref()
            .and_then(|s| s.span.as_ref())
            .map(|s| s.ctx)
            .unwrap_or(TraceContext::NONE)
    }

    /// Stop the timer now and return the observed wall nanoseconds
    /// (0 when unarmed). The identical value lands in the stage
    /// histogram, so a `WindowLatency` built from `finish` results
    /// reconciles exactly against the profiler.
    pub fn finish(mut self) -> u64 {
        match self.state.take() {
            Some(state) => state.record(),
            None => 0,
        }
    }
}

impl Drop for StageTimer {
    fn drop(&mut self) {
        if let Some(state) = self.state.take() {
            state.record();
        }
    }
}

/// Validate a [`MetricsSnapshot::to_json`] document against the
/// documented schema:
///
/// ```text
/// {
///   "counters":   { "<name{labels}>": u64, ... },
///   "gauges":     { "<name{labels}>": u64, ... },
///   "histograms": [
///     { "name": str, "count": u64, "sum_ns": u64,
///       "buckets": [ { "le_ns": u64 | null, "count": u64 }, ... ] },
///     ...
///   ]
/// }
/// ```
///
/// Histogram buckets must be cumulative (non-decreasing), end with the
/// `le_ns: null` (+Inf) bucket, and the final cumulative count must
/// equal `count`.
pub fn validate_snapshot_json(text: &str) -> Result<(), String> {
    let doc = json::parse(text)?;
    let counters = doc
        .get("counters")
        .and_then(json::JsonValue::as_object)
        .ok_or("missing `counters` object")?;
    for (k, v) in counters {
        v.as_u64().ok_or_else(|| format!("counter `{k}` not u64"))?;
    }
    let gauges = doc
        .get("gauges")
        .and_then(json::JsonValue::as_object)
        .ok_or("missing `gauges` object")?;
    for (k, v) in gauges {
        v.as_u64().ok_or_else(|| format!("gauge `{k}` not u64"))?;
    }
    let histograms = doc
        .get("histograms")
        .and_then(json::JsonValue::as_array)
        .ok_or("missing `histograms` array")?;
    for h in histograms {
        let name = h
            .get("name")
            .and_then(json::JsonValue::as_str)
            .ok_or("histogram missing `name`")?;
        let count = h
            .get("count")
            .and_then(json::JsonValue::as_u64)
            .ok_or_else(|| format!("histogram `{name}` missing `count`"))?;
        h.get("sum_ns")
            .and_then(json::JsonValue::as_u64)
            .ok_or_else(|| format!("histogram `{name}` missing `sum_ns`"))?;
        let buckets = h
            .get("buckets")
            .and_then(json::JsonValue::as_array)
            .ok_or_else(|| format!("histogram `{name}` missing `buckets`"))?;
        if buckets.is_empty() {
            return Err(format!("histogram `{name}` has no buckets"));
        }
        let mut prev = 0u64;
        for (i, b) in buckets.iter().enumerate() {
            let c = b
                .get("count")
                .and_then(json::JsonValue::as_u64)
                .ok_or_else(|| format!("histogram `{name}` bucket {i} missing `count`"))?;
            if c < prev {
                return Err(format!("histogram `{name}` buckets not cumulative at {i}"));
            }
            prev = c;
            let le = b
                .get("le_ns")
                .ok_or_else(|| format!("histogram `{name}` bucket {i} missing `le_ns`"))?;
            let is_last = i == buckets.len() - 1;
            match le {
                json::JsonValue::Null if is_last => {}
                json::JsonValue::Null => {
                    return Err(format!("histogram `{name}`: +Inf bucket not last"));
                }
                json::JsonValue::Number(_) if !is_last => {}
                json::JsonValue::Number(_) => {
                    return Err(format!("histogram `{name}`: last bucket must be +Inf"));
                }
                _ => return Err(format!("histogram `{name}` bucket {i}: bad `le_ns`")),
            }
        }
        if prev != count {
            return Err(format!(
                "histogram `{name}`: +Inf cumulative {prev} != count {count}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = ObsHandle::disabled();
        assert!(!obs.is_enabled());
        let c = obs.counter("x_total", &[]);
        c.add(5);
        assert_eq!(c.get(), 5); // the atomic works...
        assert!(obs.snapshot().counters.is_empty()); // ...but is unregistered
        obs.event(EventKind::WindowOpen {
            window: 0,
            packets: 1,
        });
        assert!(obs.events().is_empty());
        let t = obs.stage(Stage::PacketLoop, 0);
        assert!(!t.is_armed());
        drop(t);
        assert_eq!(obs.now_ns(), 0);
    }

    #[test]
    fn enabled_handle_shares_state_across_clones() {
        let obs = ObsHandle::with_capacity(16);
        let other = obs.clone();
        obs.counter("x_total", &[("q", "0")]).add(2);
        other.counter("x_total", &[("q", "0")]).inc();
        assert_eq!(obs.snapshot().counter("x_total{q=\"0\"}"), Some(3));
        other.event(EventKind::ReplanTrigger {
            window: 4,
            divergence: 0.5,
        });
        assert_eq!(obs.events().len(), 1);
    }

    #[test]
    fn stage_timer_folds_into_histogram_and_ring() {
        let obs = ObsHandle::with_capacity(8);
        {
            let _t = obs.stage(Stage::Merge, 3);
        }
        let snap = obs.snapshot();
        let h = snap
            .histogram("sonata_stage_ns{stage=\"merge\"}")
            .expect("stage histogram registered");
        assert_eq!(h.count, 1);
        let events = obs.events();
        assert_eq!(events.len(), 1);
        match &events[0].kind {
            EventKind::StageSpan { stage, window, .. } => {
                assert_eq!(*stage, Stage::Merge);
                assert_eq!(*window, 3);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn all_stage_histograms_preregistered() {
        let obs = ObsHandle::enabled();
        let snap = obs.snapshot();
        for s in Stage::ALL {
            let key = format!("sonata_stage_ns{{stage=\"{}\"}}", s.name());
            assert!(snap.histogram(&key).is_some(), "missing {key}");
        }
    }

    #[test]
    fn trace_span_emits_parented_span_and_reconciles() {
        let obs = ObsHandle::with_capacity(8);
        let root = obs.root_span(3, 1, "switch-1");
        let root_ctx = root.ctx();
        assert!(root_ctx.is_some());
        let child = obs.trace_span(Stage::PacketLoop, 3, root_ctx, "switch-1");
        let child_ctx = child.ctx();
        assert_eq!(child_ctx.trace, root_ctx.trace);
        let wall = child.finish();
        drop(root);
        let snap = obs.snapshot();
        let h = snap
            .histogram("sonata_stage_ns{stage=\"packet_loop\"}")
            .unwrap();
        // finish() returns exactly what the histogram observed.
        assert_eq!(h.sum, wall);
        assert_eq!(h.count, 1);
        let events = obs.events();
        assert_eq!(events.len(), 2);
        match &events[0].kind {
            EventKind::Span {
                trace,
                span,
                parent,
                name,
                process,
                window,
                ..
            } => {
                assert_eq!(*trace, root_ctx.trace);
                assert_eq!(*span, child_ctx.span);
                assert_eq!(*parent, root_ctx.span);
                assert_eq!(*name, "packet_loop");
                assert_eq!(process, "switch-1");
                assert_eq!(*window, 3);
            }
            other => panic!("unexpected event {other:?}"),
        }
        match &events[1].kind {
            EventKind::Span { parent, name, .. } => {
                assert_eq!(*parent, 0);
                assert_eq!(*name, "window");
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn trace_span_without_parent_degrades_to_stage_span() {
        let obs = ObsHandle::with_capacity(8);
        let t = obs.trace_span(Stage::Merge, 1, TraceContext::NONE, "collector");
        assert!(t.is_armed());
        assert!(!t.ctx().is_some());
        drop(t);
        match &obs.events()[0].kind {
            EventKind::StageSpan { stage, .. } => assert_eq!(*stage, Stage::Merge),
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn snapshot_injects_ring_drop_counter_and_jsonl_trailer() {
        let obs = ObsHandle::with_capacity(2);
        for w in 0..5 {
            obs.event(EventKind::WindowOpen {
                window: w,
                packets: 0,
            });
        }
        let snap = obs.snapshot();
        assert_eq!(snap.counter("sonata_obs_events_dropped_total"), Some(3));
        let jsonl = obs.events_jsonl();
        let last = jsonl.lines().last().unwrap();
        let doc = json::parse(last).unwrap();
        assert_eq!(
            doc.get("type").and_then(json::JsonValue::as_str),
            Some("ring_status")
        );
        assert_eq!(
            doc.get("dropped").and_then(json::JsonValue::as_u64),
            Some(3)
        );
        assert_eq!(
            doc.get("capacity").and_then(json::JsonValue::as_u64),
            Some(2)
        );
    }

    #[test]
    fn snapshot_json_validates() {
        let obs = ObsHandle::enabled();
        obs.counter("sonata_packets_total", &[]).add(100);
        obs.gauge("sonata_register_occupancy", &[]).set(42);
        obs.histogram("sonata_update_latency_ns", &[]).observe(1234);
        let json = obs.snapshot().to_json();
        validate_snapshot_json(&json).expect("schema valid");
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_snapshot_json("{}").is_err());
        assert!(validate_snapshot_json(r#"{"counters":{},"gauges":{}}"#).is_err());
        assert!(
            validate_snapshot_json(r#"{"counters":{"c":-1},"gauges":{},"histograms":[]}"#).is_err()
        );
        // Non-cumulative buckets.
        assert!(validate_snapshot_json(
            r#"{"counters":{},"gauges":{},"histograms":[
                {"name":"h","count":1,"sum_ns":5,"buckets":[
                    {"le_ns":10,"count":1},{"le_ns":null,"count":0}]}]}"#
        )
        .is_err());
        // +Inf total disagrees with count.
        assert!(validate_snapshot_json(
            r#"{"counters":{},"gauges":{},"histograms":[
                {"name":"h","count":2,"sum_ns":5,"buckets":[
                    {"le_ns":10,"count":1},{"le_ns":null,"count":1}]}]}"#
        )
        .is_err());
        assert!(validate_snapshot_json(
            r#"{"counters":{},"gauges":{},"histograms":[
                {"name":"h","count":1,"sum_ns":5,"buckets":[
                    {"le_ns":10,"count":1},{"le_ns":null,"count":1}]}]}"#
        )
        .is_ok());
    }
}
