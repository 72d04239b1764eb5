//! The runtime orchestration loop.
//!
//! Per window: push every packet through the switch, collect mirrored
//! reports in the emitter; at the window boundary, poll the registers
//! (window dump), run each stream job on its batch, surface the
//! finest-level outputs as alerts, and push each coarser level's
//! output keys into the next level's dynamic filter table through the
//! control API — paying the measured update latency (Section 6.2).

use crate::drift::{DriftConfig, DriftMonitor};
use crate::driver::{deploy, plan_digest, DeployError, DeployedPlan, Deployment, QueryInstance};
use crate::emitter::Emitter;
use crate::fabric::TopologyConfig;
use sonata_faults::{FaultInjector, FaultKind, FaultPlan, FaultRecord};
use sonata_net::loopback::{loopback_pair, DEFAULT_CAPACITY};
use sonata_net::tcp::{tcp_pair, TcpOptions};
use sonata_net::{
    CollectorEndpoint, Frame, NetError, NetMetrics, SwitchEndpoint, Transport, TransportKind,
};
use sonata_obs::{
    Counter, EventKind, Gauge, Histogram, MetricsSnapshot, ObsHandle, Stage, TraceContext,
};
use sonata_packet::{Packet, PacketArena, Value};
use sonata_pisa::{
    ControlOp, ReportBatch, ReportKind, SketchConfig, StateLayout, Switch, SwitchConstraints,
    TaskId, UpdateCostModel, WindowDump,
};
use sonata_planner::{GlobalPlan, ReplanOutcome, Replanner, SolveOptions};
use sonata_query::{QueryId, Tuple};
use sonata_stream::{MicroBatchEngine, ShardedEngine, StreamError, WindowBatch};
use sonata_traffic::Trace;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Duration;

/// How many times a boundary write may fail (first attempt plus
/// retries) before the runtime gives up, skips the filter update for
/// the window, and marks it degraded. Each failure adds a simulated
/// doubling backoff (1 ms, 2 ms, ...) to the window's update latency.
pub(crate) const MAX_BOUNDARY_ATTEMPTS: u64 = 3;

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Switch resource limits (the deployed program is validated
    /// against them at load).
    pub constraints: SwitchConstraints,
    /// Control-plane latency model.
    pub cost_model: UpdateCostModel,
    /// Window size in milliseconds (defaults to the first query's).
    pub window_ms: Option<u64>,
    /// Re-planning trigger: when shunted packets exceed this fraction
    /// of a window's packets, the window counts as diverged
    /// (Section 5: "when it detects too many hash collisions, the
    /// runtime triggers the query planner"). Folded — together with
    /// the per-query budget reconciliation — into the plan-drift
    /// monitor's divergence scale; see [`DriftConfig`].
    pub shunt_replan_fraction: f64,
    /// Sustained-threshold rule turning plan divergence into the
    /// re-plan trigger ([`crate::drift::DriftMonitor`]).
    pub drift: DriftConfig,
    /// Stream-processor worker threads. 1 (the default) runs windows
    /// inline; N > 1 hash-partitions each window by the query's group
    /// key across N engine shards with byte-identical results (the
    /// differential suite in `sonata-stream` asserts this).
    pub workers: usize,
    /// Observability sink threaded through the switch, planner, and
    /// stream engine. Disabled (near-zero overhead) by default; enable
    /// with [`ObsHandle::enabled`] to collect metrics, events, and
    /// per-stage timings.
    pub obs: ObsHandle,
    /// Deterministic fault-injection plan threaded through the
    /// transport egress seam, the stream engine, and the
    /// boundary-write path. [`FaultPlan::none`] (the default) disables
    /// the layer entirely: the runtime is byte-identical to one built
    /// before the fault layer existed. A non-empty plan makes every
    /// fault a pure function of `(seed, window, site)`, and every
    /// injected fault is paired with a graceful-degradation response
    /// recorded in the window's [`WindowReport::degraded`] marker.
    pub faults: FaultPlan,
    /// Transport carrying the switch↔collector boundary traffic
    /// (reports, window dumps, control batches).
    /// [`TransportKind::Loopback`] (the default) passes frames
    /// in-process over bounded queues and is bit-identical to the
    /// pre-wire runtime; [`TransportKind::Tcp`] sends every frame
    /// through the versioned binary codec over localhost sockets.
    pub transport: TransportKind,
    /// Debug knob: force the tree-walking reference interpreters on
    /// both sides of the wire instead of the compiled fast paths. The
    /// switch then runs each packet through
    /// [`Switch::process_reference`] and ships its reports one frame
    /// each, instead of one [`Switch::process_batch`] per window
    /// shipped as report blocks; the stream side interprets instead of
    /// running `BoundPipeline`s. The fast paths are bit-identical to
    /// the reference (asserted by the differential suite in
    /// `tests/differential_fastpath.rs`); this flag exists to verify
    /// exactly that claim and to bisect any future divergence.
    pub force_reference_path: bool,
    /// Multi-switch fabric topology. `None` (the default) runs the
    /// classic one-switch↔one-collector [`Runtime`] shape. `Some`
    /// topologies are consumed by [`crate::fabric::Fabric`], which
    /// splits the trace across N switch instances and merges their
    /// per-window partials across M collector shards.
    pub topology: Option<TopologyConfig>,
    /// Closed-loop replanning: what the runtime *does* when the drift
    /// monitor fires. Disabled by default — triggers are still
    /// reported on the window, but no re-solve runs and no swap
    /// happens, keeping replan-free runs bit-identical to earlier
    /// seeds.
    pub replan: ReplanConfig,
    /// Approximate data-plane state ([`sonata_pisa::SketchConfig`]):
    /// which register layout family stateful tasks use (exact
    /// key-value arrays, count-min, Bloom, HyperLogLog). The default
    /// (`StateLayout::Exact`) is an off-path no-op — runs are
    /// bit-identical to pre-sketch builds, asserted by
    /// `tests/differential_sketch.rs`. Non-exact layouts attach
    /// per-query [`crate::ErrorBoundReport`]s to every
    /// [`WindowReport`].
    pub sketch: SketchConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            constraints: SwitchConstraints::default(),
            cost_model: UpdateCostModel::default(),
            window_ms: None,
            shunt_replan_fraction: 0.05,
            drift: DriftConfig::default(),
            workers: 1,
            obs: ObsHandle::disabled(),
            faults: FaultPlan::none(),
            transport: TransportKind::Loopback,
            force_reference_path: false,
            topology: None,
            replan: ReplanConfig::default(),
            sketch: SketchConfig::default(),
        }
    }
}

/// Configuration of the closed replanning loop: how the runtime acts
/// on a fired [`EventKind::ReplanTrigger`].
///
/// With a [`Replanner`] installed, a sustained drift breach enqueues
/// an incremental re-solve on a planner thread (re-cost from observed
/// loads, warm-start from the committed plan), and the epoch-bumped
/// result is swapped in atomically at the first window boundary at
/// least [`ReplanConfig::swap_delay`] windows after the trigger. The
/// swap commits the collector endpoint first, replays the switch
/// session `Hello` under the new digest, and re-bases the drift
/// monitor on the new plan's budget; every [`WindowReport`] carries
/// the epoch it executed under, so no window ever mixes plans.
///
/// Only the interleaved drivers ([`Runtime::process_window`] /
/// [`Runtime::process_trace`] and the fabric analogues) swap; the
/// threaded driver ([`Runtime::process_trace_threaded`]) reports
/// triggers but never swaps — its switch half is pinned on its own
/// thread for the whole run.
#[derive(Debug, Clone)]
pub struct ReplanConfig {
    /// The incremental re-solver, built from the same queries and
    /// training windows the initial plan was solved against (e.g. via
    /// [`Replanner::from_training`]). `None` disables the loop.
    pub replanner: Option<Replanner>,
    /// Windows between the trigger firing and the swap taking effect
    /// — the planner thread gets this much window-time off the hot
    /// path before the boundary poll joins it. Clamped to ≥ 1: a swap
    /// can never land on the window that triggered it.
    pub swap_delay: u64,
    /// Re-solve with the warm-started MILP ([`Replanner::replan_ilp`])
    /// instead of the greedy combinatorial planner.
    pub use_ilp: bool,
    /// Churn bound for the warm-started MILP: at most this many
    /// partition/refinement decision flips from the committed plan.
    pub delta: Option<usize>,
}

impl Default for ReplanConfig {
    fn default() -> Self {
        ReplanConfig {
            replanner: None,
            swap_delay: 2,
            use_ilp: false,
            delta: None,
        }
    }
}

impl ReplanConfig {
    /// Whether the closed loop is active.
    pub fn enabled(&self) -> bool {
        self.replanner.is_some()
    }
}

/// Per-window degradation marker: what was injected and how the
/// runtime absorbed it. Attached to [`WindowReport::degraded`] only
/// when something actually fired, so a fault-enabled run over a lucky
/// seed still reports `None` everywhere.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradedWindow {
    /// Per-kind injected-fault counts for the window.
    pub injected: FaultRecord,
    /// Duplicate reports the emitter's suppression dropped.
    pub duplicates_suppressed: u64,
    /// Stream jobs retried after an injected worker crash (the dead
    /// worker was respawned first).
    pub worker_retries: u64,
    /// Stream jobs that crashed again on retry and ran on the safe
    /// single-mode fallback engine instead.
    pub single_mode_fallbacks: u64,
    /// Boundary-write attempts that failed and were retried with
    /// backoff.
    pub boundary_retries: u64,
    /// Whether the dynamic-filter update was skipped after exhausting
    /// [`MAX_BOUNDARY_ATTEMPTS`] (registers were still reset).
    pub boundary_update_skipped: bool,
    /// Fabric runs only: bitmask of switch ids that failed to close
    /// the window (outage or mid-window loss). Their partials were
    /// discarded wholesale — bounded staleness, never a stall — so the
    /// merged window reflects only the switches that completed.
    /// Always 0 on single-switch runs.
    pub straggler_switches: u64,
}

impl DegradedWindow {
    /// True when nothing was injected and no degradation path fired.
    pub fn is_clean(&self) -> bool {
        self.injected.is_empty()
            && self.duplicates_suppressed == 0
            && self.worker_retries == 0
            && self.single_mode_fallbacks == 0
            && self.boundary_retries == 0
            && !self.boundary_update_skipped
            && self.straggler_switches == 0
    }
}

/// When one switch's `WindowClose` reached the collector, on the
/// collector's clock — the raw material for straggler attribution in
/// fabric runs (the last arrival gates the merge).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchArrival {
    /// Switch id.
    pub switch: u16,
    /// Collector-clock nanoseconds when the close marker arrived
    /// (0 when observability is disabled).
    pub close_ns: u64,
}

/// Wall-clock waterfall of one window across the pipeline: the
/// switch-side stages arrive in-band on the `WindowClose` frame
/// (INT-style), the collector-side stages are measured locally. Every
/// field is the *same number* the `sonata_stage_ns{stage=...}`
/// profiler histogram observed — the waterfall and the profiler
/// reconcile exactly by construction. All zeros when observability is
/// disabled, so disabled-obs reports stay bit-identical.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowLatency {
    /// Switch packet loop (summed across switches in fabric runs).
    pub packet_loop_ns: u64,
    /// Register dump + encode at the window boundary (summed across
    /// switches).
    pub dump_encode_ns: u64,
    /// Shipping the window dump onto the wire (summed across
    /// switches).
    pub transport_ns: u64,
    /// Collector blocking on the close marker(s).
    pub collector_drain_ns: u64,
    /// Stream-job execution across the engine.
    pub shard_execute_ns: u64,
    /// Cross-switch partial-aggregate merge (fabric runs only; 0 on
    /// single-switch runs).
    pub merge_ns: u64,
    /// Per-switch close-marker arrival times, for straggler
    /// attribution.
    pub arrivals: Vec<SwitchArrival>,
}

impl WindowLatency {
    /// Sum of every stage in the waterfall.
    pub fn total_ns(&self) -> u64 {
        self.packet_loop_ns
            + self.dump_encode_ns
            + self.transport_ns
            + self.collector_drain_ns
            + self.shard_execute_ns
            + self.merge_ns
    }

    /// The switch whose close marker arrived last (the window's
    /// straggler), when arrivals were recorded.
    pub fn straggler(&self) -> Option<SwitchArrival> {
        self.arrivals.iter().copied().max_by_key(|a| a.close_ns)
    }
}

/// Per-window execution record.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowReport {
    /// Window index.
    pub window: u64,
    /// Epoch of the plan this window executed under (0 for an initial
    /// plan; bumped by each mid-run swap). Every window executes under
    /// exactly one epoch — the swap happens only between windows — and
    /// the fabric refuses to merge per-switch partials whose epochs
    /// disagree.
    pub epoch: u64,
    /// Packets the switch processed.
    pub packets: u64,
    /// Tuples delivered to the stream processor (the headline metric).
    pub tuples_to_sp: u64,
    /// Collision shunts within those tuples.
    pub shunts: u64,
    /// Tuples delivered per *source* query (refinement levels of one
    /// query fold into its entry), sorted by query id; sums to
    /// `tuples_to_sp`.
    pub tuples_per_query: Vec<(QueryId, u64)>,
    /// Collision shunts per *source* query, sorted by query id; sums
    /// to `shunts`. Like `shunts` itself this is switch-local physics:
    /// it depends on which keys share a register, so it is exact for a
    /// single switch and merely the per-switch sum across a fabric.
    /// Together with `tuples_per_query` it gives the replanner the
    /// observed *channel* load per query — the quantity the cost
    /// model's per-branch `n` actually predicts.
    pub shunts_per_query: Vec<(QueryId, u64)>,
    /// Final (finest-level) query results: `(query, tuples)`.
    pub alerts: Vec<(QueryId, Vec<Tuple>)>,
    /// Dynamic-refinement filter entries written at the boundary.
    pub filter_entries_written: usize,
    /// Simulated control-plane latency of the boundary update.
    pub update_latency: Duration,
    /// Whether plan divergence completed a sustained breach and fired
    /// the re-plan trigger ([`crate::drift::DriftMonitor`]).
    pub replan_triggered: bool,
    /// Wall-clock stage waterfall (all zeros when observability is
    /// disabled).
    pub latency: WindowLatency,
    /// Degradation marker: present iff faults were injected (or a
    /// degradation path fired) in this window. Always `None` when
    /// [`RuntimeConfig::faults`] is [`FaultPlan::none`].
    pub degraded: Option<DegradedWindow>,
    /// Per-query approximation guarantees, one entry per source query
    /// with at least one sketch-layout register this window. Always
    /// empty under [`StateLayout::Exact`] (the default), which keeps
    /// exact runs byte-identical to pre-sketch builds.
    pub error_bounds: Vec<ErrorBoundReport>,
}

/// Folded approximation guarantee for one query's window results.
///
/// Registers report per-task [`sonata_pisa::SketchBound`]s in the
/// window dump; the collector folds them per *source* query (and the
/// fabric folds again across switches): ε and δ are component-wise
/// maxima — a merged sketch of the union stream keeps each side's
/// relative guarantee — while mass and update counts add and
/// saturation ORs.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorBoundReport {
    /// Source query the guarantee covers.
    pub query: QueryId,
    /// Layout of the loosest (max-ε) contributing register.
    pub layout: StateLayout,
    /// Relative error vs the window's L1 update mass: for count-min,
    /// every reported aggregate overestimates the true value by at
    /// most `⌈epsilon × mass⌉` with probability ≥ 1 − `delta`.
    pub epsilon: f64,
    /// Failure probability of the `epsilon` guarantee (0 for Bloom
    /// admission, where false negatives are impossible).
    pub delta: f64,
    /// Total L1 update mass over contributing registers.
    pub mass: u64,
    /// Updates applied (distinct first-touch keys for Bloom).
    pub updates: u64,
    /// Some contributing register exceeded its design capacity — the
    /// declared ε no longer holds and the planner should resize.
    pub saturated: bool,
}

/// Fold per-register sketch bounds into per-query reports, sorted by
/// query id. Empty input (every register exact) yields an empty vec.
pub(crate) fn fold_error_bounds(bounds: &[sonata_pisa::SketchBound]) -> Vec<ErrorBoundReport> {
    let mut per_query: std::collections::BTreeMap<QueryId, ErrorBoundReport> =
        std::collections::BTreeMap::new();
    for b in bounds {
        let e = per_query
            .entry(b.task.query)
            .or_insert_with(|| ErrorBoundReport {
                query: b.task.query,
                layout: b.layout,
                epsilon: 0.0,
                delta: 0.0,
                mass: 0,
                updates: 0,
                saturated: false,
            });
        if b.epsilon > e.epsilon {
            e.epsilon = b.epsilon;
            e.layout = b.layout;
        }
        e.delta = e.delta.max(b.delta);
        e.mass += b.mass;
        e.updates += b.updates;
        e.saturated |= b.saturated;
    }
    per_query.into_values().collect()
}

/// Aggregated run results.
#[derive(Debug, Clone, Default)]
pub struct TelemetryReport {
    /// Per-window records.
    pub windows: Vec<WindowReport>,
    /// Metrics snapshot taken when the run finished (empty when the
    /// runtime's [`ObsHandle`] is disabled).
    pub metrics: MetricsSnapshot,
}

impl TelemetryReport {
    /// Total packets processed.
    pub fn total_packets(&self) -> u64 {
        self.windows.iter().map(|w| w.packets).sum()
    }

    /// Total tuples at the stream processor.
    pub fn total_tuples(&self) -> u64 {
        self.windows.iter().map(|w| w.tuples_to_sp).sum()
    }

    /// Total collision shunts across windows.
    pub fn total_shunts(&self) -> u64 {
        self.windows.iter().map(|w| w.shunts).sum()
    }

    /// Total tuples one source query (all its refinement levels)
    /// delivered to the stream processor.
    pub fn tuples_for(&self, query: QueryId) -> u64 {
        self.windows
            .iter()
            .flat_map(|w| &w.tuples_per_query)
            .filter(|(q, _)| *q == query)
            .map(|(_, n)| n)
            .sum()
    }

    /// All alerts for one query across windows: `(window, tuple)`.
    pub fn alerts_for(&self, query: QueryId) -> Vec<(u64, Tuple)> {
        let mut out = Vec::new();
        for w in &self.windows {
            for (q, tuples) in &w.alerts {
                if *q == query {
                    out.extend(tuples.iter().map(|t| (w.window, t.clone())));
                }
            }
        }
        out
    }

    /// The run's aggregate latency waterfall: per-stage sums across
    /// every window. Each field reconciles exactly with the `sum` of
    /// the matching `sonata_stage_ns{stage=...}` histogram in
    /// [`Self::metrics`] (per-window arrivals stay on the windows).
    pub fn window_latency(&self) -> WindowLatency {
        let mut total = WindowLatency::default();
        for w in &self.windows {
            total.packet_loop_ns += w.latency.packet_loop_ns;
            total.dump_encode_ns += w.latency.dump_encode_ns;
            total.transport_ns += w.latency.transport_ns;
            total.collector_drain_ns += w.latency.collector_drain_ns;
            total.shard_execute_ns += w.latency.shard_execute_ns;
            total.merge_ns += w.latency.merge_ns;
        }
        total
    }

    /// Total refinement-update latency.
    pub fn total_update_latency(&self) -> Duration {
        self.windows.iter().map(|w| w.update_latency).sum()
    }

    /// Windows that carry a degradation marker.
    pub fn degraded_windows(&self) -> usize {
        self.windows.iter().filter(|w| w.degraded.is_some()).count()
    }

    /// Per-kind injected-fault totals across every window.
    pub fn total_faults(&self) -> FaultRecord {
        let mut total = FaultRecord::default();
        for w in &self.windows {
            if let Some(d) = &w.degraded {
                total.merge(&d.injected);
            }
        }
        total
    }
}

/// Runtime failure.
#[derive(Debug)]
pub enum RuntimeError {
    /// Deployment failed.
    Deploy(DeployError),
    /// The program violates the switch constraints (planner bug).
    Load(sonata_pisa::ResourceError),
    /// A stream job failed.
    Stream(StreamError),
    /// A control update failed.
    Control(String),
    /// The switch↔collector transport failed.
    Net(NetError),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Deploy(e) => write!(f, "deploy: {e}"),
            RuntimeError::Load(e) => write!(f, "load: {e}"),
            RuntimeError::Stream(e) => write!(f, "stream: {e}"),
            RuntimeError::Control(e) => write!(f, "control: {e}"),
            RuntimeError::Net(e) => write!(f, "net: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<DeployError> for RuntimeError {
    fn from(e: DeployError) -> Self {
        RuntimeError::Deploy(e)
    }
}

impl From<StreamError> for RuntimeError {
    fn from(e: StreamError) -> Self {
        RuntimeError::Stream(e)
    }
}

impl From<NetError> for RuntimeError {
    fn from(e: NetError) -> Self {
        RuntimeError::Net(e)
    }
}

/// The assembled system, split along the wire: the switch half and
/// the stream-processor half talk only through a [`Transport`] — the
/// same frame vocabulary whether the backend is the in-process
/// loopback or localhost TCP.
pub struct Runtime {
    sw: SwitchHalf,
    sp: SpHalf,
    cfg: RuntimeConfig,
    window_ms: u64,
    /// Closed replanning loop (`None` when [`RuntimeConfig::replan`]
    /// is disabled).
    replan: Option<ReplanState>,
}

/// The switch side of the wire: the PISA model, the control-plane
/// cost model, and the switch protocol endpoint (which owns the
/// egress report-fault seam).
struct SwitchHalf {
    switch: Switch,
    cost_model: UpdateCostModel,
    ingest: Ingest,
    faults: FaultInjector,
    link: SwitchEndpoint,
    obs: ObsHandle,
}

/// How a switch takes in a window — one shared path for every driver.
/// The window's packets are laid into the packet arena once; then the
/// whole window runs as one [`Switch::process_batch`] and ships as
/// report blocks, or, under [`RuntimeConfig::force_reference_path`],
/// each packet runs through [`Switch::process_reference`] and ships
/// its reports one frame each.
pub(crate) struct Ingest {
    /// Window packet arena, rebuilt in place per window (allocations
    /// retained across windows).
    arena: PacketArena,
    /// Report arena filled by [`Switch::process_batch`], reused across
    /// windows.
    reports: ReportBatch,
    /// [`RuntimeConfig::force_reference_path`].
    reference: bool,
}

impl Ingest {
    pub(crate) fn new(reference: bool) -> Self {
        Ingest {
            arena: PacketArena::new(),
            reports: ReportBatch::new(),
            reference,
        }
    }

    /// Run `packets` through `switch` and ship their reports over
    /// `link`, `pump`ing after every send (see
    /// [`SwitchEndpoint::send_batch_reports`]) — on the reference
    /// path, after every packet.
    pub(crate) fn feed(
        &mut self,
        switch: &mut Switch,
        link: &mut SwitchEndpoint,
        packets: &[Packet],
        mut pump: impl FnMut() -> Result<(), RuntimeError>,
    ) -> Result<(), RuntimeError> {
        self.arena.rebuild_from_packets(packets);
        let batch = self.arena.batch();
        if self.reference {
            for view in batch.iter() {
                link.send_packet_reports(switch.process_reference(view))?;
                pump()?;
            }
            return Ok(());
        }
        switch.process_batch(&batch, &mut self.reports);
        link.send_batch_reports(&self.reports, batch, pump)
    }
}

/// The stream-processor side of the wire: emitter, sharded engine,
/// refinement feed-forward state, and the collector endpoint.
struct SpHalf {
    emitter: Emitter,
    engine: ShardedEngine,
    /// Safe single-mode engine the runtime falls back to when a job
    /// keeps crashing after a respawn-and-retry; kept registration-
    /// synchronised with the sharded engine. Only built when faults
    /// are enabled — the fault-free path never pays for it.
    fallback: Option<MicroBatchEngine>,
    faults: FaultInjector,
    instances: Vec<QueryInstance>,
    /// `(job of level ℓ, its dynfilter tables, out_col)` per chain
    /// link: output of job feeds the tables of the *next* level.
    feed_forward: Vec<FeedForward>,
    shunt_replan_fraction: f64,
    drift: DriftMonitor,
    link: CollectorEndpoint,
    obs: RuntimeObs,
}

/// Collector-side accumulator for one in-flight window's frames.
#[derive(Default)]
pub(crate) struct WindowRx {
    pub(crate) window: u64,
    /// Plan epoch stamped on the window's frames (read off the wire
    /// header at `WindowOpen`/`WindowClose`).
    pub(crate) epoch: u64,
    pub(crate) packets: u64,
    pub(crate) opened: bool,
    pub(crate) shunts: u64,
    /// Shunts by the *task* (per-level job) that emitted them; folded
    /// to source queries at window completion.
    pub(crate) shunts_per_task: BTreeMap<QueryId, u64>,
    pub(crate) dump: Option<WindowDump>,
    pub(crate) closed: bool,
    /// Trace context of the last data frame — the switch's window
    /// root, propagated in-band; parents the collector-side spans.
    pub(crate) ctx: TraceContext,
    /// Switch-side stage waterfall carried on the `WindowClose` frame.
    pub(crate) packet_loop_ns: u64,
    pub(crate) dump_encode_ns: u64,
    pub(crate) transport_ns: u64,
    /// Collector-clock arrival of the close marker.
    pub(crate) close_ns: u64,
    /// Wall time the collector spent blocking on the close marker.
    pub(crate) collector_drain_ns: u64,
}

impl WindowRx {
    /// Count `n` received reports of `task` if they are collision
    /// shunts.
    pub(crate) fn note_shunts(&mut self, kind: ReportKind, task: TaskId, n: u64) {
        if kind == ReportKind::Shunt && n > 0 {
            self.shunts += n;
            *self.shunts_per_task.entry(task.query).or_default() += n;
        }
    }
}

/// Everything the collector computed for a window between sending the
/// control batch and receiving the switch's ack.
struct PendingWindow {
    window: u64,
    epoch: u64,
    packets: u64,
    shunts: u64,
    tuples_to_sp: u64,
    tuples_per_query: Vec<(QueryId, u64)>,
    shunts_per_query: Vec<(QueryId, u64)>,
    alerts: Vec<(QueryId, Vec<Tuple>)>,
    worker_retries: u64,
    single_mode_fallbacks: u64,
    boundary_retries: u64,
    boundary_skipped: bool,
    boundary_backoff: Duration,
    latency: WindowLatency,
    error_bounds: Vec<ErrorBoundReport>,
}

/// Pre-resolved runtime-level metric handles: the per-window path only
/// touches atomics, never the registry lock.
pub(crate) struct RuntimeObs {
    pub(crate) handle: ObsHandle,
    pub(crate) windows: Counter,
    pub(crate) shunts: Counter,
    pub(crate) alerts: Counter,
    pub(crate) replans: Counter,
    pub(crate) swaps: Counter,
    pub(crate) filter_entries: Gauge,
    pub(crate) update_latency: Histogram,
    pub(crate) degraded_windows: Counter,
    /// Reports the emitter dropped as malformed (decodable, but not
    /// something the deployed plan's switch sends).
    pub(crate) malformed_reports: Counter,
    /// One counter per [`FaultKind`], in [`FaultKind::ALL`] order —
    /// registered eagerly so every kind appears in snapshots (at zero)
    /// even on runs that never injected it.
    pub(crate) faults_injected: Vec<Counter>,
}

impl RuntimeObs {
    pub(crate) fn new(handle: &ObsHandle) -> Self {
        RuntimeObs {
            handle: handle.clone(),
            windows: handle.counter("sonata_runtime_windows_total", &[]),
            shunts: handle.counter("sonata_runtime_shunts_total", &[]),
            alerts: handle.counter("sonata_runtime_alerts_total", &[]),
            replans: handle.counter("sonata_runtime_replans_total", &[]),
            swaps: handle.counter("sonata_runtime_plan_swaps_total", &[]),
            filter_entries: handle.gauge("sonata_runtime_filter_entries", &[]),
            update_latency: handle.histogram("sonata_runtime_update_latency_ns", &[]),
            degraded_windows: handle.counter("sonata_degraded_windows", &[]),
            malformed_reports: handle.counter("sonata_emitter_malformed_reports_total", &[]),
            faults_injected: FaultKind::ALL
                .iter()
                .map(|k| handle.counter("sonata_faults_injected", &[("kind", k.name())]))
                .collect(),
        }
    }
}

/// Live state of the closed replanning loop: the re-solver with its
/// observation ring, the currently committed plan (warm-start base for
/// the next re-solve), and the in-flight planner thread, if any.
/// Shared by [`Runtime`] and [`crate::fabric::Fabric`].
pub(crate) struct ReplanState {
    pub(crate) replanner: Replanner,
    pub(crate) committed: GlobalPlan,
    swap_delay: u64,
    use_ilp: bool,
    delta: Option<usize>,
    pending: Option<PendingReplan>,
}

/// A re-solve in flight on its planner thread, due to be joined and
/// swapped in at `due_window`'s boundary.
struct PendingReplan {
    due_window: u64,
    handle: std::thread::JoinHandle<Result<(ReplanOutcome, u64), String>>,
}

impl ReplanState {
    pub(crate) fn from_config(cfg: &ReplanConfig, plan: &GlobalPlan) -> Option<Self> {
        cfg.replanner.clone().map(|replanner| ReplanState {
            replanner,
            committed: plan.clone(),
            swap_delay: cfg.swap_delay.max(1),
            use_ilp: cfg.use_ilp,
            delta: cfg.delta,
            pending: None,
        })
    }

    /// Feed one completed window into the observation ring and, on a
    /// fired trigger, enqueue the incremental re-solve on a planner
    /// thread — the window path never blocks on the solver. At most
    /// one re-solve is in flight: a trigger landing while one is
    /// pending is already answered by it.
    pub(crate) fn note_window(&mut self, report: &WindowReport) {
        // Observe the per-query *channel* load — batch tuples plus
        // collision shunts — since that is what the cost model's
        // per-branch `n` predicts. A drift that shows up purely as
        // register pressure (a flash crowd colliding in a
        // distinct-count register) would be invisible to the re-cost
        // if only post-merge batch tuples were fed back.
        let mut loads: BTreeMap<QueryId, u64> = report.tuples_per_query.iter().copied().collect();
        for (q, n) in &report.shunts_per_query {
            *loads.entry(*q).or_default() += n;
        }
        let loads: Vec<(QueryId, u64)> = loads.into_iter().collect();
        self.replanner.observe_window(&loads);
        if report.replan_triggered && self.pending.is_none() {
            let replanner = self.replanner.clone();
            let committed = self.committed.clone();
            let use_ilp = self.use_ilp;
            let delta = self.delta;
            let handle = std::thread::spawn(move || {
                let started = std::time::Instant::now();
                let out = if use_ilp {
                    replanner
                        .replan_ilp(&committed, &SolveOptions::default(), delta)
                        .map_err(|e| e.to_string())
                } else {
                    replanner.replan(&committed).map_err(|e| e.to_string())
                };
                out.map(|o| (o, started.elapsed().as_nanos() as u64))
            });
            self.pending = Some(PendingReplan {
                due_window: report.window + self.swap_delay,
                handle,
            });
        }
    }

    /// At the boundary *before* `window` opens: join the planner
    /// thread once its due window arrived and hand back the outcome
    /// (with the solve wall time) to swap in. `None` when nothing is
    /// due, or when the re-solve failed — the committed plan simply
    /// stays in force.
    pub(crate) fn take_due(&mut self, window: u64) -> Option<(ReplanOutcome, u64)> {
        if self.pending.as_ref().is_none_or(|p| window < p.due_window) {
            return None;
        }
        let pending = self.pending.take().expect("checked above");
        match pending.handle.join() {
            Ok(Ok(res)) => Some(res),
            _ => None,
        }
    }
}

pub(crate) struct FeedForward {
    /// The producing (coarser) job.
    pub(crate) from_job: QueryId,
    /// Key column in the producer's output.
    pub(crate) out_col: sonata_query::ColName,
    /// Dynamic filter tables of the consuming (finer) level.
    pub(crate) tables: Vec<String>,
    /// The consuming job, when some of its branches run their dynamic
    /// filter at the stream processor (partition 0): the runtime
    /// rewrites the registered query's `InSet` each window.
    pub(crate) sp_job: Option<QueryId>,
    /// Branches needing the SP-side rewrite.
    pub(crate) sp_branches: Vec<u8>,
}

/// Extract the refinement-key set a coarse level feeds forward.
///
/// Join-free queries feed their final output keys. For join queries
/// the paper says "their [the sub-queries'] output at coarser levels
/// determines which portion of traffic to process" (Section 4.1): we
/// feed the final (post-join) output **plus** the output of any branch
/// that is itself a thresholded aggregation — e.g. Query 3's counting
/// sub-query, whose coarse output must steer the zoom-in even before
/// the payload keyword (which only the joined output sees) appears.
fn refinement_keys(
    result: &sonata_stream::JobResult,
    inst: &QueryInstance,
    out_col: &sonata_query::ColName,
) -> BTreeSet<Value> {
    let level = inst.level;
    let field_col = inst
        .refined
        .refinement
        .as_ref()
        .map(|h| h.field.name())
        .unwrap_or("");
    let mut keys: BTreeSet<Value> = BTreeSet::new();
    // Final output keys.
    if let Ok(schema) = inst.refined.output_schema() {
        let idx = schema.index_of(out_col).unwrap_or(0);
        keys.extend(
            result
                .output
                .iter()
                .map(|t| t.get(idx).mask_to_level(level)),
        );
    }
    // Self-thresholded branches contribute their own signal — but
    // only when the joined output hinges on a content predicate the
    // coarse level cannot wait for (Query 3's "zorro" keyword). For
    // arithmetic post-join thresholds (SYN−ACK difference, conns/KB)
    // the trained relaxed thresholds make the final output the
    // faithful coarse signal (Section 4.1's Slowloris argument).
    let post_confirms = inst
        .refined
        .join
        .as_ref()
        .map(|j| j.post.has_content_predicate())
        .unwrap_or(false);
    let branch_thresholded = |b: usize| -> bool {
        if !post_confirms {
            return false;
        }
        if b == 0 {
            inst.refined.pipeline.ends_with_threshold_filter()
        } else {
            inst.refined
                .join
                .as_ref()
                .map(|j| j.right.ends_with_threshold_filter())
                .unwrap_or(false)
        }
    };
    for (b, (schema, tuples)) in result.branch_outputs.iter().enumerate() {
        if !branch_thresholded(b) {
            continue;
        }
        let Some(idx) = schema
            .index_of(out_col)
            .or_else(|| schema.index_of(field_col))
        else {
            continue;
        };
        keys.extend(tuples.iter().map(|t| t.get(idx).mask_to_level(level)));
    }
    keys
}

/// Replace the entries of the first `InSet` filter in a branch of a
/// refined query (the SP-side analogue of a dynamic filter table
/// update).
fn rewrite_inset(q: &mut sonata_query::Query, branch: u8, set: std::collections::BTreeSet<Value>) {
    use sonata_query::expr::Pred;
    use sonata_query::Operator;
    let pipeline = match branch {
        0 => &mut q.pipeline,
        _ => match &mut q.join {
            Some(j) => &mut j.right,
            None => return,
        },
    };
    for op in &mut pipeline.ops {
        if let Operator::Filter(Pred::InSet { set: s, .. }) = op {
            *s = std::sync::Arc::new(set);
            return;
        }
    }
}

/// Resolve the refinement feed-forward links of a deployed plan: for
/// each instance with a chain predecessor, the predecessor's job and
/// the instance's dynamic-filter tables (or SP-side branches when the
/// filter runs at the stream processor). Shared by [`Runtime`] and the
/// multi-switch [`crate::fabric::Fabric`].
pub(crate) fn build_feed_forward(
    deployments: &[Deployment],
    instances: &[QueryInstance],
) -> Vec<FeedForward> {
    let mut feed_forward = Vec::new();
    for inst in instances {
        let Some(prev_level) = inst.prev else {
            continue;
        };
        let from = instances
            .iter()
            .find(|i| i.source == inst.source && i.level == prev_level)
            .expect("chain predecessor deployed");
        let mut tables = Vec::new();
        let mut sp_branches = Vec::new();
        for d in deployments
            .iter()
            .filter(|d| d.task.query == inst.source && d.task.level == inst.level)
        {
            match &d.dynfilter_table {
                Some(t) => tables.push(t.clone()),
                // Partition 0: the dynamic filter op runs at the
                // stream processor and must be rewritten there.
                None => sp_branches.push(d.branch),
            }
        }
        let out_col = from
            .out_col
            .clone()
            .expect("refinable query has an out column");
        feed_forward.push(FeedForward {
            from_job: from.job,
            out_col,
            tables,
            sp_job: (!sp_branches.is_empty()).then_some(inst.job),
            sp_branches,
        });
    }
    feed_forward
}

/// Attribute a window's batch tuples to their *source* queries (all
/// refinement levels of one query fold into its entry).
pub(crate) fn attribute_tuples(
    instances: &[QueryInstance],
    batches: &[(QueryId, WindowBatch)],
) -> BTreeMap<QueryId, u64> {
    let mut tuples_per_query: BTreeMap<QueryId, u64> = BTreeMap::new();
    for (job, batch) in batches {
        let source = instances
            .iter()
            .find(|i| i.job == *job)
            .map(|i| i.source)
            .unwrap_or(*job);
        *tuples_per_query.entry(source).or_default() += batch.tuple_count() as u64;
    }
    tuples_per_query
}

/// Attribute a window's collision shunts (counted per emitting task
/// job) to their *source* queries, mirroring [`attribute_tuples`].
pub(crate) fn attribute_shunts(
    instances: &[QueryInstance],
    shunts_per_task: &BTreeMap<QueryId, u64>,
) -> BTreeMap<QueryId, u64> {
    let mut shunts_per_query: BTreeMap<QueryId, u64> = BTreeMap::new();
    for (job, n) in shunts_per_task {
        let source = instances
            .iter()
            .find(|i| i.job == *job)
            .map(|i| i.source)
            .unwrap_or(*job);
        *shunts_per_query.entry(source).or_default() += n;
    }
    shunts_per_query
}

/// Collect finest-level job outputs as user-facing alerts, in query
/// order.
pub(crate) fn collect_alerts(
    instances: &[QueryInstance],
    outputs: &HashMap<QueryId, sonata_stream::JobResult>,
) -> BTreeMap<QueryId, Vec<Tuple>> {
    let mut alerts: BTreeMap<QueryId, Vec<Tuple>> = BTreeMap::new();
    for inst in instances {
        if inst.is_finest {
            let out = outputs
                .get(&inst.job)
                .map(|r| r.output.clone())
                .unwrap_or_default();
            if !out.is_empty() {
                alerts.entry(inst.source).or_default().extend(out);
            }
        }
    }
    alerts
}

/// Dynamic refinement: turn level-r outputs into the control ops that
/// install level-r+1 dynamic filters for the next window, rewriting
/// SP-side `InSet` branches in place. `reregister` is called with each
/// rewritten refined query so the caller can update whichever
/// engine(s) own the job.
pub(crate) fn feed_forward_control(
    feed_forward: &[FeedForward],
    instances: &mut [QueryInstance],
    outputs: &HashMap<QueryId, sonata_stream::JobResult>,
    mut reregister: impl FnMut(&sonata_query::Query),
) -> Vec<ControlOp> {
    let mut control_ops = Vec::new();
    for link in feed_forward {
        let keys: BTreeSet<Value> = outputs
            .get(&link.from_job)
            .map(|result| {
                let inst = instances
                    .iter()
                    .find(|i| i.job == link.from_job)
                    .expect("producer instance");
                refinement_keys(result, inst, &link.out_col)
            })
            .unwrap_or_default();
        // Switch filter tables hold fixed-width scalars; textual
        // keys (DNS names) can only gate at the stream processor,
        // and the compiler never places their filters on the
        // switch in the first place.
        let scalar: BTreeSet<u64> = keys.iter().filter_map(Value::as_u64).collect();
        for table in &link.tables {
            control_ops.push(ControlOp::SetDynFilter {
                table: table.clone(),
                entries: scalar.clone(),
            });
        }
        if let Some(job) = link.sp_job {
            if let Some(inst) = instances.iter_mut().find(|i| i.job == job) {
                for &b in &link.sp_branches {
                    rewrite_inset(&mut inst.refined, b, keys.clone());
                }
                reregister(&inst.refined);
            }
        }
    }
    control_ops
}

/// Boundary-write retry loop under injected write failures: returns
/// `(retries, simulated backoff, skipped)`. On exhaustion the caller
/// sends only the trailing `ResetRegisters` op and marks the window
/// degraded instead of failing the run.
pub(crate) fn boundary_backoff_loop(faults: &FaultInjector) -> (u64, Duration, bool) {
    let mut boundary_retries = 0u64;
    let mut boundary_backoff = Duration::ZERO;
    let mut boundary_skipped = false;
    while faults.boundary_write_fails() {
        boundary_retries += 1;
        if boundary_retries >= MAX_BOUNDARY_ATTEMPTS {
            boundary_skipped = true;
            break;
        }
        boundary_backoff += Duration::from_millis(1 << (boundary_retries - 1));
    }
    (boundary_retries, boundary_backoff, boundary_skipped)
}

/// Submit one job through the worker-crash recovery ladder: respawn
/// the dead worker and retry once; if the job crashes again, respawn
/// and run it on the safe single-mode fallback engine (which carries
/// no injector and therefore cannot crash). Non-crash errors propagate
/// unchanged.
pub(crate) fn submit_with_recovery(
    engine: &mut ShardedEngine,
    mut fallback: Option<&mut MicroBatchEngine>,
    job: QueryId,
    batch: WindowBatch,
    retries: &mut u64,
    fallbacks: &mut u64,
) -> Result<sonata_stream::JobResult, RuntimeError> {
    match engine.submit(job, &batch) {
        Ok(r) => Ok(r),
        Err(StreamError::Panic(_)) => {
            engine.recover_workers();
            *retries += 1;
            match engine.submit(job, &batch) {
                Ok(r) => Ok(r),
                Err(StreamError::Panic(_)) => {
                    engine.recover_workers();
                    *fallbacks += 1;
                    let fallback = fallback
                        .as_mut()
                        .expect("fallback engine exists when faults are enabled");
                    Ok(fallback.submit_owned(job, batch)?)
                }
                Err(e) => Err(e.into()),
            }
        }
        Err(e) => Err(e.into()),
    }
}

impl Runtime {
    /// Deploy a plan and assemble the runtime.
    pub fn new(plan: &GlobalPlan, cfg: RuntimeConfig) -> Result<Self, RuntimeError> {
        let DeployedPlan {
            program,
            deployments,
            instances,
        } = deploy(plan)?;
        let faults = FaultInjector::from_plan(&cfg.faults);
        let switch = Switch::load_with_sketch(program, &cfg.constraints, &cfg.obs, cfg.sketch)
            .map_err(RuntimeError::Load)?;
        let emitter = Emitter::with_faults(&deployments, &faults);
        let mut engine =
            ShardedEngine::with_config(cfg.workers, &cfg.obs, &faults, cfg.force_reference_path);
        for inst in &instances {
            engine.register(inst.refined.clone());
        }
        let fallback = faults.is_enabled().then(|| {
            let mut eng = MicroBatchEngine::new();
            eng.set_force_reference(cfg.force_reference_path);
            for inst in &instances {
                eng.register(inst.refined.clone());
            }
            eng
        });
        // Chain links: for each instance with a predecessor, find the
        // predecessor's job and this instance's dynamic filter tables.
        let feed_forward = build_feed_forward(&deployments, &instances);
        let window_ms = cfg
            .window_ms
            .or_else(|| instances.first().map(|i| i.refined.window_ms))
            .unwrap_or(3_000);
        let obs = RuntimeObs::new(&cfg.obs);
        // Assemble the wire: both ends share one metric family, and
        // both sides derive the same plan digest, which the collector
        // re-verifies on every (re)connect.
        let metrics = NetMetrics::new(&cfg.obs);
        let digest = plan_digest(&deployments);
        let (sw_t, sp_t): (Box<dyn Transport>, Box<dyn Transport>) = match cfg.transport {
            TransportKind::Loopback => {
                let (a, b) = loopback_pair(DEFAULT_CAPACITY, &metrics);
                (Box::new(a), Box::new(b))
            }
            TransportKind::Tcp => {
                let (client, collector) = tcp_pair(&metrics, TcpOptions::default())?;
                (Box::new(client), Box::new(collector))
            }
        };
        let sw_link = SwitchEndpoint::new(
            sw_t,
            faults.clone(),
            metrics.clone(),
            "switch-0",
            digest,
            plan.epoch,
        )?;
        let sp_link = CollectorEndpoint::new(sp_t, metrics, digest, plan.epoch);
        let replan = ReplanState::from_config(&cfg.replan, plan);
        Ok(Runtime {
            sw: SwitchHalf {
                switch,
                cost_model: cfg.cost_model,
                ingest: Ingest::new(cfg.force_reference_path),
                faults: faults.clone(),
                link: sw_link,
                obs: cfg.obs.clone(),
            },
            sp: SpHalf {
                emitter,
                engine,
                fallback,
                faults,
                instances,
                feed_forward,
                shunt_replan_fraction: cfg.shunt_replan_fraction,
                drift: DriftMonitor::new(plan.budget(), cfg.drift.clone(), &cfg.obs),
                link: sp_link,
                obs,
            },
            cfg,
            window_ms,
            replan,
        })
    }

    /// The deployed stream-job instances.
    pub fn instances(&self) -> &[QueryInstance] {
        &self.sp.instances
    }

    /// Access the underlying switch (counters, diagnostics).
    pub fn switch(&self) -> &Switch {
        &self.sw.switch
    }

    /// The window size in effect.
    pub fn window_ms(&self) -> u64 {
        self.window_ms
    }

    /// Epoch of the currently committed plan (0 until the first swap,
    /// when the initial plan was epoch 0).
    pub fn epoch(&self) -> u64 {
        self.sp.link.epoch()
    }

    /// The observability handle this runtime reports into (the one
    /// from [`RuntimeConfig::obs`]): use it to export events and
    /// traces after a run.
    pub fn obs(&self) -> &ObsHandle {
        &self.cfg.obs
    }

    /// The fault injector built from [`RuntimeConfig::faults`]
    /// (disabled for an empty plan). Exposes run-total injected-fault
    /// counts via [`FaultInjector::totals`].
    pub fn faults(&self) -> &FaultInjector {
        &self.sw.faults
    }

    /// Run a whole trace through the system.
    pub fn process_trace(&mut self, trace: &Trace) -> Result<TelemetryReport, RuntimeError> {
        let mut report = TelemetryReport::default();
        // Materialize window slices up front (cheap: borrows).
        let windows: Vec<(u64, &[Packet])> = trace.windows(self.window_ms).collect();
        for (w, packets) in windows {
            report.windows.push(self.process_window(w, packets)?);
        }
        report.metrics = self.cfg.obs.snapshot();
        Ok(report)
    }

    /// Run a whole trace with the switch half on its own thread,
    /// talking to the collector (this thread) purely over the
    /// transport — the deployment topology of [`TransportKind::Tcp`].
    /// The window-lockstep credit protocol bounds switch run-ahead to
    /// one window, so results are bit-identical to
    /// [`Self::process_trace`].
    pub fn process_trace_threaded(
        &mut self,
        trace: &Trace,
    ) -> Result<TelemetryReport, RuntimeError> {
        let windows: Vec<(u64, &[Packet])> = trace.windows(self.window_ms).collect();
        let count = windows.len();
        let sw = &mut self.sw;
        let sp = &mut self.sp;
        let mut report = TelemetryReport::default();
        let sp_result: Result<(), RuntimeError> = std::thread::scope(|scope| {
            let switch_loop = scope.spawn(move || -> Result<(), RuntimeError> {
                for (w, packets) in windows {
                    sw.faults.begin_window(w);
                    // Root one trace per (window, switch); every frame
                    // of the window carries it in-band.
                    let root = sw.obs.root_span(w, 0, "switch-0");
                    sw.link.set_ctx(root.ctx());
                    sw.link.open_window(w, packets.len() as u64)?;
                    let packet_loop_ns;
                    {
                        let t = sw
                            .obs
                            .trace_span(Stage::PacketLoop, w, root.ctx(), "switch-0");
                        (sw.ingest).feed(&mut sw.switch, &mut sw.link, packets, || Ok(()))?;
                        packet_loop_ns = t.finish();
                    }
                    sw.finish(w, packet_loop_ns, root.ctx())?;
                    sw.serve_control()?;
                    sw.await_credit()?;
                }
                Ok(())
            });
            let mut sp_err = None;
            for _ in 0..count {
                match sp.run_window() {
                    Ok(w) => report.windows.push(w),
                    Err(e) => {
                        sp_err = Some(e);
                        break;
                    }
                }
            }
            match switch_loop.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => return Err(e),
                Err(_) => return Err(RuntimeError::Control("switch thread panicked".into())),
            }
            match sp_err {
                Some(e) => Err(e),
                None => Ok(()),
            }
        });
        sp_result?;
        report.metrics = self.cfg.obs.snapshot();
        Ok(report)
    }

    /// Run one window of packets and close it, interleaving both
    /// halves on this thread. Frames are pumped from the collector
    /// after every send, so bounded queues and socket buffers never
    /// fill without a consumer, whichever backend carries them.
    pub fn process_window(
        &mut self,
        window: u64,
        packets: &[Packet],
    ) -> Result<WindowReport, RuntimeError> {
        // Boundary poll of the replanning loop: if a re-solve is due,
        // join its planner thread and swap the epoch-bumped plan in
        // *before* the window opens — the swap is atomic at the
        // boundary, so no window ever executes under a torn plan.
        self.poll_replan(window)?;
        // Fault decisions are keyed on the window index: reset the
        // injector's per-window attempt counters and egress sequence.
        self.sw.faults.begin_window(window);
        // Root one trace per (window, switch); the endpoint stamps it
        // onto every frame header, so the collector's spans stitch
        // under the same trace id even across a real socket.
        let root = self.sw.obs.root_span(window, 0, "switch-0");
        self.sw.link.set_ctx(root.ctx());
        self.sw.link.open_window(window, packets.len() as u64)?;
        let mut rx = WindowRx::default();
        // Data plane.
        let packet_loop_ns;
        {
            let t = self
                .sw
                .obs
                .trace_span(Stage::PacketLoop, window, root.ctx(), "switch-0");
            let (sw, sp) = (&mut self.sw, &mut self.sp);
            (sw.ingest).feed(&mut sw.switch, &mut sw.link, packets, || sp.pump(&mut rx))?;
            packet_loop_ns = t.finish();
        }
        // Window boundary: poll registers, then reset; the emitter's
        // local store merges shunts into raw dumps and thresholds.
        self.sw.finish(window, packet_loop_ns, root.ctx())?;
        self.sp.drain_to_close(&mut rx)?;
        let pending = self.sp.close_window(rx)?;
        self.sw.serve_control()?;
        let report = self.sp.complete_window(pending)?;
        if let Some(rs) = &mut self.replan {
            rs.note_window(&report);
        }
        self.sw.await_credit()?;
        Ok(report)
    }

    /// Join a due re-solve and swap it in at the boundary before
    /// `window` opens. No-op when the loop is disabled, nothing is
    /// due, or the re-solve failed (the committed plan stays).
    fn poll_replan(&mut self, window: u64) -> Result<(), RuntimeError> {
        let Some((outcome, solve_wall_ns)) =
            self.replan.as_mut().and_then(|rs| rs.take_due(window))
        else {
            return Ok(());
        };
        self.apply_swap(window, outcome, solve_wall_ns)
    }

    /// Swap a re-solved plan in at a window boundary: redeploy both
    /// halves, commit the epoch on the collector *first* (so the
    /// switch's fresh `Hello` — and every later frame — is judged
    /// against the new plan), and re-base the drift monitor on the new
    /// budget. `window` is the first window to execute under the new
    /// plan.
    fn apply_swap(
        &mut self,
        window: u64,
        outcome: ReplanOutcome,
        solve_wall_ns: u64,
    ) -> Result<(), RuntimeError> {
        let warm = outcome.solution.as_ref().map(|s| s.warm).unwrap_or(false);
        let plan = outcome.plan;
        let DeployedPlan {
            program,
            deployments,
            instances,
        } = deploy(&plan)?;
        self.sw.switch = Switch::load_with_sketch(
            program,
            &self.cfg.constraints,
            &self.cfg.obs,
            self.cfg.sketch,
        )
        .map_err(RuntimeError::Load)?;
        self.sp.emitter = Emitter::with_faults(&deployments, &self.sp.faults);
        let mut engine = ShardedEngine::with_config(
            self.cfg.workers,
            &self.cfg.obs,
            &self.sp.faults,
            self.cfg.force_reference_path,
        );
        for inst in &instances {
            engine.register(inst.refined.clone());
        }
        self.sp.engine = engine;
        if let Some(fb) = &mut self.sp.fallback {
            let mut eng = MicroBatchEngine::new();
            eng.set_force_reference(self.cfg.force_reference_path);
            for inst in &instances {
                eng.register(inst.refined.clone());
            }
            *fb = eng;
        }
        self.sp.feed_forward = build_feed_forward(&deployments, &instances);
        self.sp.instances = instances;
        let digest = plan_digest(&deployments);
        self.sp.link.set_plan(digest, plan.epoch);
        self.sw.link.set_plan(digest, plan.epoch)?;
        self.sp.drift.rebase(plan.budget());
        self.sp.obs.swaps.inc();
        self.sp.obs.handle.event(EventKind::PlanSwap {
            window,
            epoch: plan.epoch,
            plan_digest: digest,
            warm,
            solve_wall_ns,
        });
        if let Some(rs) = &mut self.replan {
            rs.committed = plan;
        }
        Ok(())
    }
}

impl SwitchHalf {
    /// Dump and reset the registers, ship the dump, then close the
    /// window on the wire (late-delayed reports are dropped and
    /// counted here). The dump-encode and transport stage timings —
    /// plus the caller's packet-loop timing — ride the `WindowClose`
    /// frame in-band, INT-style, so the collector builds the window's
    /// latency waterfall without a clock shared across the wire.
    fn finish(
        &mut self,
        window: u64,
        packet_loop_ns: u64,
        parent: TraceContext,
    ) -> Result<(), RuntimeError> {
        let t = self
            .obs
            .trace_span(Stage::WindowDump, window, parent, "switch-0");
        let dump = self.switch.end_window();
        let dump_ns = t.finish();
        let t = self
            .obs
            .trace_span(Stage::Transport, window, parent, "switch-0");
        self.link.send_dump(window, dump)?;
        let transport_ns = t.finish();
        self.link
            .close_window(window, packet_loop_ns, dump_ns, transport_ns)?;
        Ok(())
    }

    /// Await the collector's control batch, apply it through the
    /// cost model, and acknowledge with the measured latency.
    fn serve_control(&mut self) -> Result<(), RuntimeError> {
        let (window, ops) = self.link.recv_control()?;
        let applied = self
            .cost_model
            .apply(&mut self.switch, &ops)
            .map_err(RuntimeError::Control)?;
        self.link.send_ack(
            window,
            applied.entries_written as u64,
            applied.latency.as_nanos() as u64,
        )?;
        Ok(())
    }

    /// Block until the collector credits the next window.
    fn await_credit(&mut self) -> Result<(), RuntimeError> {
        self.link.recv_credit()?;
        Ok(())
    }
}

impl SpHalf {
    /// Fold one received frame into the window accumulator.
    fn handle_frame(&mut self, rx: &mut WindowRx, frame: Frame) -> Result<(), RuntimeError> {
        match frame {
            Frame::WindowOpen { window, packets } => {
                rx.window = window;
                rx.packets = packets;
                rx.opened = true;
                rx.ctx = self.link.last_ctx();
                rx.epoch = self.link.last_epoch();
                self.obs
                    .handle
                    .event(EventKind::WindowOpen { window, packets });
            }
            Frame::Report(r) => {
                rx.note_shunts(r.kind, r.task, 1);
                self.emitter.ingest(&r);
            }
            Frame::ReportBlocks(chunk) => {
                for b in &chunk.blocks {
                    rx.note_shunts(b.kind, b.task, b.rows as u64);
                }
                self.emitter.ingest_blocks(chunk);
            }
            Frame::WindowDump { dump, .. } => rx.dump = Some(dump),
            Frame::WindowClose {
                packet_loop_ns,
                dump_ns,
                transport_ns,
                ..
            } => {
                rx.packet_loop_ns = packet_loop_ns;
                rx.dump_encode_ns = dump_ns;
                rx.transport_ns = transport_ns;
                rx.close_ns = self.obs.handle.now_ns();
                rx.ctx = self.link.last_ctx();
                rx.epoch = self.link.last_epoch();
                rx.closed = true;
            }
            _ => {
                return Err(RuntimeError::Net(NetError::Protocol(
                    "unexpected frame in window stream",
                )))
            }
        }
        Ok(())
    }

    /// Drain every frame already buffered, without blocking.
    fn pump(&mut self, rx: &mut WindowRx) -> Result<(), RuntimeError> {
        while let Some(frame) = self.link.try_recv_frame()? {
            self.handle_frame(rx, frame)?;
        }
        Ok(())
    }

    /// Block until the window's `WindowClose` marker arrives. The
    /// drain's wall time is reported as a `collector_drain` span after
    /// the fact — its parent context is only learned *from* the frames
    /// being drained.
    fn drain_to_close(&mut self, rx: &mut WindowRx) -> Result<(), RuntimeError> {
        let started = self.obs.handle.now_ns();
        while !rx.closed {
            let frame = self.link.recv_frame()?;
            self.handle_frame(rx, frame)?;
        }
        rx.collector_drain_ns = self.obs.handle.now_ns().saturating_sub(started);
        self.obs.handle.record_span(
            Stage::CollectorDrain,
            rx.window,
            rx.ctx,
            rx.collector_drain_ns,
            "collector",
        );
        Ok(())
    }

    /// One full collector-side window turn (the threaded driver's SP
    /// loop body): drain, close, control turn, report.
    fn run_window(&mut self) -> Result<WindowReport, RuntimeError> {
        let mut rx = WindowRx::default();
        self.drain_to_close(&mut rx)?;
        let pending = self.close_window(rx)?;
        self.complete_window(pending)
    }

    /// Close a fully received window: replay the dump into the
    /// emitter, run the stream jobs, compute refinement feed-forward,
    /// and send the control batch. Returns the pending state that
    /// [`Self::complete_window`] finalizes once the switch acks.
    fn close_window(&mut self, rx: WindowRx) -> Result<PendingWindow, RuntimeError> {
        debug_assert!(rx.opened && rx.closed, "window stream incomplete");
        let window = rx.window;
        // Control and credit frames sent back to the switch carry the
        // window's trace, closing the loop end-to-end.
        self.link.set_ctx(rx.ctx);
        let batches = {
            let _t = self
                .obs
                .handle
                .trace_span(Stage::EmitterReplay, window, rx.ctx, "collector");
            if let Some(dump) = &rx.dump {
                self.emitter.ingest_dump(dump);
            }
            self.emitter.close_window()?
        };
        (self.obs.malformed_reports).add(self.emitter.malformed.last);
        let tuples_to_sp: u64 = batches.iter().map(|(_, b)| b.tuple_count() as u64).sum();
        let tuples_per_query = attribute_tuples(&self.instances, &batches);

        // Stream processing. With faults enabled a submit can fail
        // with an injected worker crash; instead of failing the window
        // the runtime degrades through a recovery ladder — respawn the
        // dead worker and retry once, then run the job on the safe
        // single-mode fallback engine.
        let mut worker_retries = 0u64;
        let mut single_mode_fallbacks = 0u64;
        let mut outputs: HashMap<QueryId, sonata_stream::JobResult> = HashMap::new();
        let shard_execute_ns;
        {
            let t = self
                .obs
                .handle
                .trace_span(Stage::ShardExecute, window, rx.ctx, "collector");
            for (job, batch) in batches {
                let result = if self.faults.is_enabled() {
                    self.submit_degraded(
                        job,
                        batch,
                        &mut worker_retries,
                        &mut single_mode_fallbacks,
                    )?
                } else {
                    self.engine.submit_owned(job, batch)?
                };
                outputs.insert(job, result);
            }
            shard_execute_ns = t.finish();
        }

        // Alerts: finest-level outputs, in query order.
        let alerts = collect_alerts(&self.instances, &outputs);

        // Dynamic refinement: feed level-r outputs into level-r+1
        // dynamic filters for the next window. Keep the crash-fallback
        // engine's view of rewritten queries in lockstep, or a
        // post-rewrite fallback would filter with a stale key set.
        let engine = &mut self.engine;
        let fallback = &mut self.fallback;
        let mut control_ops = feed_forward_control(
            &self.feed_forward,
            &mut self.instances,
            &outputs,
            |refined| {
                engine.register(refined.clone());
                if let Some(fb) = fallback {
                    fb.register(refined.clone());
                }
            },
        );
        control_ops.push(ControlOp::ResetRegisters);
        // Boundary update, degrading gracefully under injected write
        // failures: retry with simulated doubling backoff (added to
        // the window's update latency) up to MAX_BOUNDARY_ATTEMPTS;
        // on exhaustion skip the filter update for this window — the
        // registers are still reset so the next window starts clean —
        // and mark the window degraded instead of failing the run.
        let (boundary_retries, boundary_backoff, boundary_skipped);
        {
            let _t = self
                .obs
                .handle
                .trace_span(Stage::DynFilterWrite, window, rx.ctx, "collector");
            (boundary_retries, boundary_backoff, boundary_skipped) =
                boundary_backoff_loop(&self.faults);
            let ops: &[ControlOp] = if boundary_skipped {
                // ResetRegisters is the last op pushed above.
                &control_ops[control_ops.len() - 1..]
            } else {
                &control_ops
            };
            self.link.send_control(window, ops)?;
        }
        Ok(PendingWindow {
            window,
            epoch: rx.epoch,
            packets: rx.packets,
            shunts: rx.shunts,
            error_bounds: rx
                .dump
                .as_ref()
                .map(|d| fold_error_bounds(&d.bounds))
                .unwrap_or_default(),
            tuples_to_sp,
            tuples_per_query: tuples_per_query.into_iter().collect(),
            shunts_per_query: attribute_shunts(&self.instances, &rx.shunts_per_task)
                .into_iter()
                .collect(),
            alerts: alerts.into_iter().collect(),
            worker_retries,
            single_mode_fallbacks,
            boundary_retries,
            boundary_skipped,
            boundary_backoff,
            latency: WindowLatency {
                packet_loop_ns: rx.packet_loop_ns,
                dump_encode_ns: rx.dump_encode_ns,
                transport_ns: rx.transport_ns,
                collector_drain_ns: rx.collector_drain_ns,
                shard_execute_ns,
                merge_ns: 0,
                // Arrivals only when the clock ran: a disabled-obs
                // report stays bit-identical to `WindowLatency::default`.
                arrivals: if self.obs.handle.is_enabled() {
                    vec![SwitchArrival {
                        switch: 0,
                        close_ns: rx.close_ns,
                    }]
                } else {
                    Vec::new()
                },
            },
        })
    }

    /// Finalize a window once the switch acknowledged the control
    /// batch: fold metrics and events, build the degradation marker,
    /// and grant the credit for the next window.
    fn complete_window(&mut self, p: PendingWindow) -> Result<WindowReport, RuntimeError> {
        let (entries_written, latency_ns) = self.link.recv_ack()?;
        let update_latency = Duration::from_nanos(latency_ns) + p.boundary_backoff;

        // Reconcile the window against the plan's committed tuple
        // budget; the sustained-threshold rule decides re-planning.
        let drift = self.drift.observe(
            &p.tuples_per_query,
            p.packets,
            p.shunts,
            self.shunt_replan_fraction,
        );
        let replan_triggered = drift.replan;

        let alert_count: u64 = p.alerts.iter().map(|(_, t)| t.len() as u64).sum();
        self.obs.windows.inc();
        self.obs.shunts.add(p.shunts);
        self.obs.alerts.add(alert_count);
        self.obs.filter_entries.set(entries_written);
        self.obs
            .update_latency
            .observe(update_latency.as_nanos() as u64);
        if replan_triggered {
            self.obs.replans.inc();
            self.obs.handle.event(EventKind::ReplanTrigger {
                window: p.window,
                divergence: drift.divergence,
            });
        }
        self.obs.handle.event(EventKind::BoundaryUpdate {
            window: p.window,
            entries: entries_written,
            latency_ns: update_latency.as_nanos() as u64,
        });

        // Fault accounting: drain the injector's window record and
        // attach a degradation marker when anything fired.
        let degraded = if self.faults.is_enabled() {
            let injected = self.faults.take_window_record();
            let marker = DegradedWindow {
                injected,
                duplicates_suppressed: self.emitter.suppressed.last,
                worker_retries: p.worker_retries,
                single_mode_fallbacks: p.single_mode_fallbacks,
                boundary_retries: p.boundary_retries,
                boundary_update_skipped: p.boundary_skipped,
                straggler_switches: 0,
            };
            if marker.is_clean() {
                None
            } else {
                for ((kind, n), counter) in injected.pairs().zip(&self.obs.faults_injected) {
                    if n > 0 {
                        counter.add(n);
                        self.obs.handle.event(EventKind::FaultInjected {
                            window: p.window,
                            kind: kind.name().to_string(),
                            count: n,
                        });
                    }
                }
                self.obs.degraded_windows.inc();
                self.obs.handle.event(EventKind::WindowDegraded {
                    window: p.window,
                    faults: injected.total(),
                });
                Some(marker)
            }
        } else {
            None
        };

        self.obs.handle.event(EventKind::WindowClose {
            window: p.window,
            tuples_to_sp: p.tuples_to_sp,
            shunts: p.shunts,
        });
        self.link.send_credit(p.window)?;

        Ok(WindowReport {
            window: p.window,
            epoch: p.epoch,
            packets: p.packets,
            tuples_to_sp: p.tuples_to_sp,
            shunts: p.shunts,
            tuples_per_query: p.tuples_per_query,
            shunts_per_query: p.shunts_per_query,
            alerts: p.alerts,
            filter_entries_written: entries_written as usize,
            update_latency,
            replan_triggered,
            latency: p.latency,
            degraded,
            error_bounds: p.error_bounds,
        })
    }

    /// Submit one job, degrading through the recovery ladder on an
    /// injected worker crash ([`submit_with_recovery`]).
    fn submit_degraded(
        &mut self,
        job: QueryId,
        batch: WindowBatch,
        retries: &mut u64,
        fallbacks: &mut u64,
    ) -> Result<sonata_stream::JobResult, RuntimeError> {
        submit_with_recovery(
            &mut self.engine,
            self.fallback.as_mut(),
            job,
            batch,
            retries,
            fallbacks,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sonata_packet::{PacketBuilder, TcpFlags};
    use sonata_planner::{plan_queries, PlanMode, PlannerConfig};
    use sonata_query::catalog::{self, Thresholds};
    use sonata_query::interpret::run_query;

    fn syn(src: u32, dst: u32, ts_ms: u64) -> Packet {
        PacketBuilder::tcp_raw(src, 9, dst, 80)
            .flags(TcpFlags::SYN)
            .ts_nanos(ts_ms * 1_000_000)
            .build()
    }

    /// Three identical windows with a heavy hitter and noise.
    fn trace(windows: u64) -> Trace {
        let mut pkts = Vec::new();
        for w in 0..windows {
            let base = w * 3_000;
            for i in 0..30u32 {
                pkts.push(syn(100 + i, 0x63070019, base + i as u64));
            }
            for host in 0..40u32 {
                pkts.push(syn(
                    7,
                    ((host % 20 + 1) << 24) | host,
                    base + 100 + host as u64,
                ));
            }
        }
        Trace::new(pkts)
    }

    fn plan_for(mode: PlanMode, queries: &[sonata_query::Query], tr: &Trace) -> GlobalPlan {
        let windows: Vec<&[Packet]> = tr.windows(3_000).map(|(_, p)| p).collect();
        let cfg = PlannerConfig {
            mode,
            cost: sonata_planner::costs::CostConfig {
                levels: Some(vec![8, 32]),
                ..Default::default()
            },
            ..Default::default()
        };
        plan_queries(queries, &windows, &cfg).unwrap()
    }

    fn q1() -> sonata_query::Query {
        catalog::newly_opened_tcp_conns(&Thresholds {
            new_tcp: 10,
            ..Thresholds::default()
        })
    }

    #[test]
    fn maxdp_alerts_match_reference_interpreter() {
        let tr = trace(2);
        let q = q1();
        let plan = plan_for(PlanMode::MaxDp, std::slice::from_ref(&q), &tr);
        let mut rt = Runtime::new(&plan, RuntimeConfig::default()).unwrap();
        let report = rt.process_trace(&tr).unwrap();
        assert_eq!(report.windows.len(), 2);
        for (w, packets) in tr.windows(3_000) {
            let expected = run_query(&q, packets).unwrap();
            let got: Vec<Tuple> = report.windows[w as usize]
                .alerts
                .iter()
                .filter(|(id, _)| *id == q.id)
                .flat_map(|(_, t)| t.clone())
                .collect();
            assert_eq!(got, expected, "window {w}");
        }
        // Max-DP on this workload: only the aggregated victims cross
        // the switch boundary.
        assert!(report.total_tuples() < 10, "{}", report.total_tuples());
    }

    #[test]
    fn allsp_alerts_match_reference_and_cost_more() {
        let tr = trace(2);
        let q = q1();
        let plan = plan_for(PlanMode::AllSp, std::slice::from_ref(&q), &tr);
        let mut rt = Runtime::new(&plan, RuntimeConfig::default()).unwrap();
        let report = rt.process_trace(&tr).unwrap();
        for (w, packets) in tr.windows(3_000) {
            let expected = run_query(&q, packets).unwrap();
            let got: Vec<Tuple> = report.windows[w as usize]
                .alerts
                .iter()
                .flat_map(|(_, t)| t.clone())
                .collect();
            assert_eq!(got, expected, "window {w}");
        }
        // Every packet crossed to the stream processor.
        assert_eq!(report.total_tuples(), report.total_packets());
    }

    #[test]
    fn sonata_refinement_detects_with_one_window_delay() {
        let tr = trace(3);
        let q = q1();
        let plan = plan_for(PlanMode::Sonata, std::slice::from_ref(&q), &tr);
        let chain: Vec<u8> = plan.queries[0].levels.iter().map(|l| l.level).collect();
        let mut rt = Runtime::new(&plan, RuntimeConfig::default()).unwrap();
        let report = rt.process_trace(&tr).unwrap();
        let alerts = report.alerts_for(q.id);
        if chain.len() == 1 {
            // No refinement chosen: alerts from window 0 onward.
            assert!(alerts.iter().any(|(w, _)| *w == 0));
        } else {
            // Refinement: the first window only identifies coarse
            // prefixes; the victim is confirmed from window 1 on.
            assert!(alerts.iter().all(|(w, _)| *w >= 1), "{alerts:?}");
            assert!(
                alerts
                    .iter()
                    .any(|(w, t)| *w == 1 && t.get(0) == &Value::U64(0x63070019)),
                "victim missing: {alerts:?}"
            );
            // Filter updates happened at boundaries.
            assert!(report.windows[0].filter_entries_written > 0);
            assert!(report.windows[0].update_latency > Duration::ZERO);
        }
        // Sonata sends far fewer tuples than packets.
        assert!(report.total_tuples() * 5 < report.total_packets());
    }

    #[test]
    fn join_query_runs_end_to_end() {
        let tr = trace(2);
        let q = catalog::tcp_syn_flood(&Thresholds {
            syn_flood: 10,
            ..Thresholds::default()
        });
        let plan = plan_for(PlanMode::MaxDp, std::slice::from_ref(&q), &tr);
        let mut rt = Runtime::new(&plan, RuntimeConfig::default()).unwrap();
        let report = rt.process_trace(&tr).unwrap();
        // Pure SYN trace: SYN−ACK difference flags the victim in
        // every window (reference semantics).
        for (w, packets) in tr.windows(3_000) {
            let expected = run_query(&q, packets).unwrap();
            let got: Vec<Tuple> = report.windows[w as usize]
                .alerts
                .iter()
                .flat_map(|(_, t)| t.clone())
                .collect();
            assert_eq!(got, expected, "window {w}");
        }
    }

    #[test]
    fn shunt_pressure_triggers_replan_flag() {
        // Deliberately tiny registers: slots=keys×headroom is bypassed
        // by shrinking the per-stage register budget so the planner
        // degrades... instead, force tiny registers via a small B.
        let tr = trace(1);
        let q = q1();
        let windows: Vec<&[Packet]> = tr.windows(3_000).map(|(_, p)| p).collect();
        let mut cfg = PlannerConfig {
            mode: PlanMode::MaxDp,
            cost: sonata_planner::costs::CostConfig {
                levels: Some(vec![32]),
                headroom: 0.02, // registers sized for ~2% of keys
                ..Default::default()
            },
            ..Default::default()
        };
        cfg.d = 1;
        let plan = plan_queries(&[q], &windows, &cfg).unwrap();
        let mut rt = Runtime::new(
            &plan,
            RuntimeConfig {
                shunt_replan_fraction: 0.01,
                // Single-window breach must fire: legacy trigger shape.
                drift: DriftConfig {
                    sustain: 1,
                    ..DriftConfig::default()
                },
                ..Default::default()
            },
        )
        .unwrap();
        let report = rt.process_trace(&tr).unwrap();
        assert!(report.windows[0].shunts > 0);
        assert!(report.windows[0].replan_triggered);
    }

    #[test]
    fn empty_trace_produces_empty_report() {
        let tr = trace(1);
        let plan = plan_for(PlanMode::MaxDp, &[q1()], &tr);
        let mut rt = Runtime::new(&plan, RuntimeConfig::default()).unwrap();
        let report = rt.process_trace(&Trace::new(Vec::new())).unwrap();
        assert!(report.windows.is_empty());
        assert_eq!(report.total_tuples(), 0);
        assert!(report.alerts_for(sonata_query::QueryId(1)).is_empty());
    }

    #[test]
    fn window_ms_override_changes_window_count() {
        let tr = trace(2); // 6 seconds of traffic
        let plan = plan_for(PlanMode::MaxDp, &[q1()], &tr);
        let mut rt = Runtime::new(
            &plan,
            RuntimeConfig {
                window_ms: Some(1_000),
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        assert_eq!(rt.window_ms(), 1_000);
        let report = rt.process_trace(&tr).unwrap();
        // trace(2) packs its packets into the first ~150 ms of each
        // 3-second burst: with W = 1 s only windows 0 and 3 are
        // non-empty, and they are reported under those indices.
        let idx: Vec<u64> = report.windows.iter().map(|w| w.window).collect();
        assert_eq!(idx, vec![0, 3]);
    }

    #[test]
    fn gap_windows_do_not_break_refinement() {
        // Traffic in windows 0 and 2, silence in window 1: the chain
        // survives the gap (the filter from window 0 persists).
        let victim = 0x63070019;
        let mut pkts = Vec::new();
        for w in [0u64, 2] {
            let base = w * 3_000;
            for i in 0..30u32 {
                pkts.push(syn(100 + i, victim, base + i as u64));
            }
            for host in 0..40u32 {
                pkts.push(syn(
                    7,
                    ((host % 20 + 1) << 24) | host,
                    base + 100 + host as u64,
                ));
            }
        }
        let tr = Trace::new(pkts);
        let q = q1();
        let windows: Vec<&[Packet]> = tr.windows(3_000).map(|(_, p)| p).collect();
        let cfg = PlannerConfig {
            mode: PlanMode::FixRef,
            cost: sonata_planner::costs::CostConfig {
                levels: Some(vec![8, 32]),
                ..Default::default()
            },
            ..PlannerConfig::default()
        };
        let plan = plan_queries(std::slice::from_ref(&q), &windows, &cfg).unwrap();
        let mut rt = Runtime::new(&plan, RuntimeConfig::default()).unwrap();
        let report = rt.process_trace(&tr).unwrap();
        // Windows 0 and 2 exist; the victim is confirmed in window 2
        // via the filter installed at the end of window 0.
        let alerts = report.alerts_for(q.id);
        assert!(
            alerts
                .iter()
                .any(|(w, t)| *w == 2 && t.get(0).as_u64() == Some(victim as u64)),
            "{alerts:?}"
        );
    }

    #[test]
    fn instances_and_switch_accessors() {
        let tr = trace(1);
        let plan = plan_for(PlanMode::Sonata, &[q1()], &tr);
        let mut rt = Runtime::new(&plan, RuntimeConfig::default()).unwrap();
        assert!(!rt.instances().is_empty());
        assert!(rt.instances().iter().any(|i| i.is_finest));
        rt.process_trace(&tr).unwrap();
        assert!(rt.switch().counters().packets_in > 0);
    }

    #[test]
    fn parallel_runtime_matches_single_threaded() {
        // The same plan and trace through 1-worker and 4-worker
        // runtimes must agree on every observable: alerts, tuple
        // counts, shunts, and refinement filter writes.
        let tr = trace(3);
        let queries = vec![
            q1(),
            catalog::tcp_syn_flood(&Thresholds {
                syn_flood: 10,
                ..Thresholds::default()
            }),
        ];
        let plan = plan_for(PlanMode::Sonata, &queries, &tr);
        let run = |workers: usize| {
            let mut rt = Runtime::new(
                &plan,
                RuntimeConfig {
                    workers,
                    ..RuntimeConfig::default()
                },
            )
            .unwrap();
            rt.process_trace(&tr).unwrap()
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.windows.len(), parallel.windows.len());
        for (s, p) in serial.windows.iter().zip(&parallel.windows) {
            assert_eq!(s.alerts, p.alerts, "window {}", s.window);
            assert_eq!(s.tuples_to_sp, p.tuples_to_sp, "window {}", s.window);
            assert_eq!(s.shunts, p.shunts, "window {}", s.window);
            assert_eq!(
                s.filter_entries_written, p.filter_entries_written,
                "window {}",
                s.window
            );
            assert_eq!(
                s.replan_triggered, p.replan_triggered,
                "window {}",
                s.window
            );
        }
    }

    #[test]
    fn obs_snapshot_reconciles_with_window_reports() {
        let tr = trace(3);
        let queries = vec![
            q1(),
            catalog::ddos(&Thresholds {
                ddos: 15,
                ..Thresholds::default()
            }),
        ];
        let plan = plan_for(PlanMode::Sonata, &queries, &tr);
        let obs = ObsHandle::enabled();
        let mut rt = Runtime::new(
            &plan,
            RuntimeConfig {
                obs: obs.clone(),
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        let report = rt.process_trace(&tr).unwrap();
        let m = &report.metrics;

        // Every runtime counter reconciles exactly with WindowReport sums.
        assert_eq!(
            m.counter("sonata_runtime_windows_total"),
            Some(report.windows.len() as u64)
        );
        assert_eq!(
            m.counter("sonata_runtime_shunts_total"),
            Some(report.total_shunts())
        );
        assert_eq!(
            m.counter("sonata_switch_packets_total"),
            Some(report.total_packets())
        );
        assert_eq!(
            m.counter("sonata_engine_tuples_total"),
            Some(report.total_tuples())
        );
        let alert_total: u64 = report
            .windows
            .iter()
            .flat_map(|w| &w.alerts)
            .map(|(_, t)| t.len() as u64)
            .sum();
        assert_eq!(m.counter("sonata_runtime_alerts_total"), Some(alert_total));

        // Per-query attribution partitions the tuple total.
        let per_query: u64 = queries.iter().map(|q| report.tuples_for(q.id)).sum();
        assert_eq!(per_query, report.total_tuples());
        for w in &report.windows {
            let sum: u64 = w.tuples_per_query.iter().map(|(_, n)| n).sum();
            assert_eq!(sum, w.tuples_to_sp, "window {}", w.window);
        }

        // The event ring saw every window open and close, in order.
        let events = obs.events();
        let opens: Vec<u64> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::WindowOpen { window, .. } => Some(window),
                _ => None,
            })
            .collect();
        let closes = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::WindowClose { .. }))
            .count();
        assert_eq!(opens, vec![0, 1, 2]);
        assert_eq!(closes, report.windows.len());
        // Stage timings were recorded for the per-window stages.
        for stage in [
            "packet_loop",
            "window_dump",
            "emitter_replay",
            "dyn_filter_write",
        ] {
            let key = format!("sonata_stage_ns{{stage=\"{stage}\"}}");
            let count = m.histogram(&key).map(|h| h.count).unwrap_or(0);
            assert_eq!(count, report.windows.len() as u64, "{stage}");
        }
        // Exports stay well-formed end to end.
        sonata_obs::validate_snapshot_json(&m.to_json()).unwrap();
    }

    #[test]
    fn disabled_obs_leaves_reports_unchanged() {
        // Runs with and without observability must produce identical
        // window reports (instrumentation is passive).
        let tr = trace(2);
        let plan = plan_for(PlanMode::Sonata, &[q1()], &tr);
        let run = |obs: ObsHandle| {
            let mut rt = Runtime::new(
                &plan,
                RuntimeConfig {
                    obs,
                    ..RuntimeConfig::default()
                },
            )
            .unwrap();
            rt.process_trace(&tr).unwrap()
        };
        let plain = run(ObsHandle::disabled());
        let observed = run(ObsHandle::enabled());
        assert!(plain.metrics.counters.is_empty());
        assert_eq!(plain.windows.len(), observed.windows.len());
        for (a, b) in plain.windows.iter().zip(&observed.windows) {
            assert_eq!(a.alerts, b.alerts);
            assert_eq!(a.tuples_to_sp, b.tuples_to_sp);
            assert_eq!(a.tuples_per_query, b.tuples_per_query);
            assert_eq!(a.shunts, b.shunts);
        }
    }

    #[test]
    fn injected_worker_crash_recovers_with_identical_outputs() {
        use sonata_faults::WorkerFaults;
        let tr = trace(2);
        let plan = plan_for(PlanMode::MaxDp, &[q1()], &tr);
        let run = |faults: FaultPlan, workers: usize| {
            let mut rt = Runtime::new(
                &plan,
                RuntimeConfig {
                    faults,
                    workers,
                    ..RuntimeConfig::default()
                },
            )
            .unwrap();
            rt.process_trace(&tr).unwrap()
        };
        let baseline = run(FaultPlan::none(), 2);
        let crash = FaultPlan {
            seed: 5,
            worker: WorkerFaults {
                crash_per_mille: 1000,
                consecutive_crashes: 1,
                ..WorkerFaults::default()
            },
            ..FaultPlan::default()
        };
        let faulty = run(crash, 2);
        // Every job crashed once; respawn-and-retry absorbed it, so
        // the user-visible outputs are identical to the clean run.
        assert_eq!(baseline.windows.len(), faulty.windows.len());
        for (b, f) in baseline.windows.iter().zip(&faulty.windows) {
            assert_eq!(b.alerts, f.alerts, "window {}", b.window);
            assert_eq!(b.tuples_to_sp, f.tuples_to_sp, "window {}", b.window);
        }
        assert!(baseline.degraded_windows() == 0);
        assert!(faulty.degraded_windows() > 0);
        assert!(faulty.total_faults().get(FaultKind::WorkerCrash) > 0);
        let retries: u64 = faulty
            .windows
            .iter()
            .filter_map(|w| w.degraded.as_ref())
            .map(|d| d.worker_retries)
            .sum();
        assert!(retries > 0, "respawn-and-retry path never fired");
    }

    #[test]
    fn boundary_write_exhaustion_skips_update_without_failing() {
        use sonata_faults::BoundaryFaults;
        let tr = trace(3);
        let plan = plan_for(PlanMode::Sonata, &[q1()], &tr);
        let faults = FaultPlan {
            seed: 9,
            boundary: BoundaryFaults {
                fail_per_mille: 1000,
                consecutive: 10, // beyond the runtime's retry bound
            },
            ..FaultPlan::default()
        };
        let mut rt = Runtime::new(
            &plan,
            RuntimeConfig {
                faults,
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        let report = rt.process_trace(&tr).unwrap();
        for w in &report.windows {
            let d = w.degraded.as_ref().expect("every window degraded");
            assert!(d.boundary_update_skipped, "window {}", w.window);
            assert!(d.injected.get(FaultKind::BoundaryWriteFail) > 0);
            // The filter update was skipped wholesale.
            assert_eq!(w.filter_entries_written, 0, "window {}", w.window);
        }
    }

    #[test]
    fn multi_query_runtime_accounting() {
        let tr = trace(2);
        let queries = vec![
            q1(),
            catalog::ddos(&Thresholds {
                ddos: 15,
                ..Thresholds::default()
            }),
        ];
        let plan = plan_for(PlanMode::Sonata, &queries, &tr);
        let mut rt = Runtime::new(&plan, RuntimeConfig::default()).unwrap();
        let report = rt.process_trace(&tr).unwrap();
        assert_eq!(report.total_packets(), tr.len() as u64);
        assert_eq!(
            report.total_tuples(),
            report.windows.iter().map(|w| w.tuples_to_sp).sum::<u64>()
        );
    }
}
