//! What a run is configured with and what it reports, and the
//! single-switch [`Runtime`].
//!
//! Per window: push every packet through the switch, collect mirrored
//! reports in the emitter; at the window boundary, poll the registers
//! (window dump), run each stream job on its batch, surface the
//! finest-level outputs as alerts, and push each coarser level's
//! output keys into the next level's dynamic filter table through the
//! control API — paying the measured update latency (Section 6.2).
//! That loop is [`Fabric`]'s; a [`Runtime`] is a fabric of one switch.

use crate::drift::DriftConfig;
use crate::driver::DeployError;
use crate::fabric::{Fabric, TopologyConfig};
use sonata_faults::{FaultPlan, FaultRecord};
use sonata_net::{NetError, TransportKind};
use sonata_obs::{MetricsSnapshot, ObsHandle};
use sonata_packet::Packet;
use sonata_pisa::{SketchConfig, StateLayout, Switch, SwitchConstraints, UpdateCostModel};
use sonata_planner::{GlobalPlan, Replanner};
use sonata_query::{QueryId, Tuple};
use sonata_stream::StreamError;
use sonata_traffic::Trace;
use std::time::Duration;

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
    /// Sustained-threshold rule turning plan divergence — per-query
    /// budget drift and collision shunts — into the re-plan trigger
    /// ([`crate::drift::DriftMonitor`]).
    pub drift: DriftConfig,
    /// Threads that run a window's stream jobs, one home thread per
    /// job: the window loop's own thread plus `workers − 1` persistent
    /// helpers. A job homed on a helper takes in its rows while the
    /// switch is still running, and finishes there at close. A window
    /// fans out only when its jobs carry at least
    /// [`sonata_stream::PARALLEL_FLOOR_TUPLES`] tuples, and streams
    /// only when the last window's did; smaller windows, and every
    /// window at `workers: 1`, run inline at close. From two on, a
    /// window that streams nothing lends the second core to the
    /// switch instead: a share whose gate took long enough last window,
    /// and not much longer than its kernels, is gated on a scoped
    /// thread ahead of the kernels
    /// ([`crate::Fabric::gate_ahead`] counts it). Reports are
    /// byte-identical at every count (the differential suites sweep
    /// 1/2/4/8). Defaults to [`std::thread::available_parallelism`].
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
    /// Debug knob: run the oracle — the tree-walking reference
    /// interpreters on both sides of the wire — instead of the
    /// compiled fast paths. The
    /// switch then runs each packet through
    /// [`Switch::process_reference`] and ships its reports one frame
    /// each, instead of one [`Switch::process_batch`] per window
    /// shipped as report blocks; the stream side interprets instead of
    /// running `BoundPipeline`s. The fast paths are bit-identical to
    /// the reference (asserted by the differential suite in
    /// `tests/differential_fastpath.rs`); this flag exists to verify
    /// exactly that claim and to bisect any future divergence.
    pub oracle: bool,
    /// Fabric topology. `None` (the default) is one switch feeding one
    /// collector, the [`Runtime`] shape. A [`Fabric`] splits the trace
    /// across N switch instances and merges their per-window partials
    /// into one window for its one job pool (M collector shards are a
    /// metric label); a [`Runtime`] refuses N > 1.
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
            drift: DriftConfig::default(),
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            obs: ObsHandle::disabled(),
            faults: FaultPlan::none(),
            transport: TransportKind::Loopback,
            oracle: false,
            topology: None,
            replan: ReplanConfig::default(),
            sketch: SketchConfig::default(),
        }
    }
}

/// Configuration of the closed replanning loop: how the runtime acts
/// on a fired [`sonata_obs::EventKind::ReplanTrigger`].
///
/// With a [`Replanner`] installed, a sustained drift breach enqueues
/// an incremental re-solve on a planner thread (re-cost from observed
/// loads, re-plan with the DP planner), and the epoch-bumped
/// result is swapped in atomically at the first window boundary at
/// least [`ReplanConfig::swap_delay`] windows after the trigger. The
/// swap commits the collector endpoint first, replays the switch
/// session `Hello` under the new digest, and re-bases the drift
/// monitor on the new plan's budget; every [`WindowReport`] carries
/// the epoch it executed under, so no window ever mixes plans.
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
}

impl Default for ReplanConfig {
    fn default() -> Self {
        ReplanConfig {
            replanner: None,
            swap_delay: 2,
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
    /// Stream jobs that crashed again on retry and were evaluated on
    /// the reference interpreter instead (respawned once more first).
    pub reference_fallbacks: u64,
    /// Boundary-write attempts that failed and were retried with
    /// backoff.
    pub boundary_retries: u64,
    /// Whether the dynamic-filter update was skipped after three failed
    /// boundary-write attempts (registers were still reset).
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
            && self.reference_fallbacks == 0
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

/// The single-switch deployment: a [`Fabric`] of one switch, fed each
/// window's packets as they come. Everything but feeding it — the
/// instances, window size, epoch, observability handle — is read off
/// the fabric it derefs to.
pub struct Runtime(Fabric);

impl Runtime {
    /// Deploy a plan and assemble the runtime. A
    /// [`RuntimeConfig::topology`] of more than one switch is refused:
    /// that deployment is a [`Fabric`].
    pub fn new(plan: &GlobalPlan, cfg: RuntimeConfig) -> Result<Self, RuntimeError> {
        if let Some(t) = cfg.topology.as_ref().filter(|t| t.switches > 1) {
            return Err(RuntimeError::Control(format!(
                "a runtime drives one switch, the topology has {}; use a Fabric",
                t.switches
            )));
        }
        Fabric::new(plan, cfg).map(Runtime)
    }

    /// Access the underlying switch (counters, diagnostics).
    pub fn switch(&self) -> &Switch {
        self.0.switch(0)
    }

    /// Run a whole trace through the system.
    pub fn process_trace(&mut self, trace: &Trace) -> Result<TelemetryReport, RuntimeError> {
        self.0.process_trace(trace)
    }

    /// Run one window of packets and close it.
    pub fn process_window(
        &mut self,
        window: u64,
        packets: &[Packet],
    ) -> Result<WindowReport, RuntimeError> {
        self.0.run_window(window, &[packets])
    }
}

impl std::ops::Deref for Runtime {
    type Target = Fabric;

    fn deref(&self) -> &Fabric {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sonata_faults::FaultKind;
    use sonata_obs::EventKind;
    use sonata_packet::{PacketBuilder, TcpFlags, Value};
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
                // Single-window breach must fire: legacy trigger shape.
                drift: DriftConfig {
                    shunt_replan_fraction: 0.01,
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
    fn a_multi_switch_topology_is_refused() {
        let tr = trace(1);
        let plan = plan_for(PlanMode::MaxDp, &[q1()], &tr);
        let with = |switches, shards| RuntimeConfig {
            topology: Some(TopologyConfig::new(switches, shards)),
            ..RuntimeConfig::default()
        };
        match Runtime::new(&plan, with(2, 1)) {
            Err(RuntimeError::Control(msg)) => assert!(msg.contains("2"), "{msg}"),
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("a 2-switch runtime was built"),
        }
        // One switch over two collector shards is still one switch.
        let mut rt = Runtime::new(&plan, with(1, 2)).unwrap();
        assert_eq!(rt.topology().shards, 2);
        rt.process_trace(&tr).unwrap();
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
    fn engine_counters_reconcile_when_every_job_crashes_twice() {
        use sonata_faults::WorkerFaults;
        use sonata_stream::testsupport::{low_thresholds, seeded_packets};
        // `chaos_recovery`'s two-window trace, queries and plan, seed 7:
        // every job crashes on its attempt and its retry, so each
        // result comes from the ladder's reference rung.
        let mut pkts = Vec::new();
        for w in 0..2u64 {
            let mut chunk = seeded_packets(7 + w, 300);
            chunk
                .iter_mut()
                .for_each(|p| p.ts_nanos += w * 3_000_000_000);
            pkts.extend(chunk);
        }
        let tr = Trace::new(pkts);
        let t = low_thresholds();
        let queries = [
            catalog::newly_opened_tcp_conns(&t),
            catalog::superspreader(&t),
        ];
        let plan = plan_for(PlanMode::Sonata, &queries, &tr);
        let faults = FaultPlan {
            seed: 7,
            worker: WorkerFaults {
                crash_per_mille: 1000,
                consecutive_crashes: 2,
                ..WorkerFaults::default()
            },
            ..FaultPlan::default()
        };
        let cfg = RuntimeConfig {
            obs: ObsHandle::enabled(),
            faults,
            ..RuntimeConfig::default()
        };
        let report = Runtime::new(&plan, cfg)
            .unwrap()
            .process_trace(&tr)
            .unwrap();
        let fallbacks: u64 = (report.windows.iter())
            .filter_map(|w| w.degraded.map(|d| d.reference_fallbacks))
            .sum();
        let m = &report.metrics;
        assert!(report.total_tuples() > 0);
        assert_eq!(
            m.counter("sonata_engine_tuples_total"),
            Some(report.total_tuples())
        );
        assert_eq!(m.counter("sonata_engine_windows_total"), Some(fallbacks));
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
