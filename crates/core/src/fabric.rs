//! The window loop: N switch instances feeding one collector.
//!
//! A [`TopologyConfig`] drives N independent [`Switch`] instances —
//! each with its own deployed program, fault domain, and `sonata-net`
//! transport (Loopback or Tcp, reusing the `Hello` plan-digest
//! handshake per peer) — whose mirrored reports are demultiplexed per
//! switch and merged per window into one global result. The stream
//! processor is one job pool ([`ShardedEngine`]): each query-window is
//! a job, and a window's jobs go to it in one submit. Every driver
//! runs this one loop: the single-switch [`Runtime`] is a fabric of
//! one switch, and `Fabric::run_window` is the only code that turns a
//! window's packets into a [`WindowReport`].
//!
//! **Merge soundness.** Per-packet reports union trivially: the trace
//! partitioner is exhaustive and flow-sticky, so each packet's reports
//! come from exactly one switch and the union is the single-switch
//! multiset. Register dumps do not: a switch of a multi-switch fabric
//! holds only the *partial* per-key aggregate of its traffic share, so
//! applying a dump threshold on the switch would drop keys whose
//! fabric-wide sum crosses it. From two switches on, switches
//! therefore defer dump thresholds (`Switch::set_defer_dump_thresholds`),
//! dumps arrive raw in the per-switch emitters' local stores, and the
//! fabric replays each task's switch-resident operators **once** over
//! the union of every switch's store — summing partials before
//! thresholding, exactly the computation the single switch performed.
//! A one-switch fabric holds the whole aggregate: its switch thresholds
//! its own dumps, and the replay covers only the tasks that shunted.
//!
//! **Window alignment.** Windows ride the credit/lockstep protocol:
//! the collector drains every live switch to `WindowClose`, in switch
//! order, before the merge, and the fabric closes window *w* only
//! after every live switch closed it. A switch that fails to close (mid-window
//! loss, scheduled via [`SwitchOutage`]) is a *straggler*: its partial
//! is discarded wholesale — bounded staleness, never a stall — and the
//! window is marked degraded with the switch's bit set in
//! [`DegradedWindow::straggler_switches`]. On rejoin the switch
//! replays its session `Hello` (the collector re-verifies the plan
//! digest) and catches up on the last control batch the rest of the
//! fabric applied before opening its next window.
//!
//! [`Runtime`]: crate::runtime::Runtime

use crate::drift::DriftMonitor;
use crate::driver::{deploy, plan_digest, DeployedPlan, Deployment, QueryInstance};
use crate::emitter::{Emitter, LocalStore};
use crate::runtime::{
    DegradedWindow, ErrorBoundReport, ReplanConfig, RuntimeConfig, RuntimeError, SwitchArrival,
    TelemetryReport, WindowLatency, WindowReport,
};
use sonata_faults::{FaultInjector, FaultKind, FaultRecord};
use sonata_net::loopback::{loopback_pair, DEFAULT_CAPACITY};
use sonata_net::tcp::{tcp_pair, TcpOptions};
use sonata_net::{
    CollectorEndpoint, Frame, NetError, NetMetrics, SwitchEndpoint, Transport, TransportKind,
};
use sonata_obs::{
    Counter, EventKind, Gauge, Histogram, ObsHandle, Stage, StageTimer, TraceContext,
};
use sonata_packet::{ArenaBatch, Packet, Value};
use sonata_pisa::{
    ControlOp, Gated, PisaProgram, ReportBatch, ReportKind, SketchBound, Switch, TaskId,
    UpdateCostModel, WindowDump,
};
use sonata_planner::{GlobalPlan, ReplanOutcome, Replanner};
use sonata_query::{ColName, Heap, Operator, Query, QueryId, RowRun, RowSource, Tuple};
use sonata_stream::{
    merge_window_batches, BoundEntries, EngineCounters, JobResult, ShardedEngine, SwitchPartial,
    WindowBatch,
};
use sonata_traffic::{Trace, TracePartitioner};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How many times a boundary write may fail (first attempt plus
/// retries) before the fabric gives up, skips the filter update for
/// the window, and marks it degraded. Each failure adds a simulated
/// doubling backoff (1 ms, 2 ms, ...) to the window's update latency.
const MAX_BOUNDARY_ATTEMPTS: u64 = 3;

/// Shape of a telemetry fabric: how many switches split the tap, and
/// with what traffic shares.
#[derive(Debug, Clone)]
pub struct TopologyConfig {
    /// Switch instances the trace is split across (1–64; the
    /// straggler bitmask in [`DegradedWindow`] is a `u64`).
    pub switches: usize,
    /// Collector shards, a metric label: `sonata_fabric_shard_jobs`
    /// counts each stream job under `source % shards`
    /// ([`Self::shard_for_query`]). Every job runs on the fabric's one
    /// job pool.
    pub shards: usize,
    /// Relative traffic share per switch (empty = uniform). Lets a
    /// topology model skew: one big border switch, small leaf
    /// switches.
    pub shares: Vec<f64>,
}

impl TopologyConfig {
    /// An `switches × shards` fabric with uniform shares.
    pub fn new(switches: usize, shards: usize) -> Self {
        TopologyConfig {
            switches: switches.max(1),
            shards: shards.max(1),
            shares: Vec::new(),
        }
    }

    /// The shard label a source query's stream jobs (its whole
    /// refinement chain) are counted under.
    pub fn shard_for_query(&self, source: QueryId) -> usize {
        source.0 as usize % self.shards
    }

    /// The deterministic flow-sticky partitioner this topology splits
    /// traces with.
    pub fn partitioner(&self) -> TracePartitioner {
        if self.shares.is_empty() {
            TracePartitioner::uniform(self.switches)
        } else {
            TracePartitioner::weighted(&self.shares)
        }
    }

    /// Check internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.switches == 0 || self.switches > 64 {
            return Err(format!(
                "topology: switches must be 1–64, got {}",
                self.switches
            ));
        }
        if self.shards == 0 {
            return Err("topology: shards must be >= 1".into());
        }
        if !self.shares.is_empty() && self.shares.len() != self.switches {
            return Err(format!(
                "topology: {} shares for {} switches",
                self.shares.len(),
                self.switches
            ));
        }
        Ok(())
    }
}

impl Default for TopologyConfig {
    fn default() -> Self {
        Self::new(1, 1)
    }
}

/// A deterministic switch-loss schedule for chaos testing: during
/// `from_window` the switch feeds only its first `cut_after` packets
/// and then goes dark without closing the window (a straggler); it
/// stays dark until `rejoin_window`, where it replays its `Hello` and
/// catches up on control state before participating again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchOutage {
    /// The switch that goes down.
    pub switch: u16,
    /// Window in which it dies mid-stream.
    pub from_window: u64,
    /// Packets of its partition it still processes in `from_window`.
    pub cut_after: usize,
    /// First window it participates in again.
    pub rejoin_window: u64,
}

/// What a switch does in one window under the outage schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Full participation.
    Live,
    /// Mid-window loss after this many packets: straggler.
    Cut(usize),
    /// Fully down: skipped.
    Dark,
}

/// One switch instance: the PISA model, its control-plane cost model,
/// its scoped fault injector (egress seam), and its protocol endpoint.
struct FabricSwitch {
    /// `switch-N`: the node name on its spans and wire metrics.
    name: String,
    switch: Switch,
    cost_model: UpdateCostModel,
    /// Takes in this switch's share of each window.
    ingest: Ingest,
    faults: FaultInjector,
    link: SwitchEndpoint,
}

/// Packets of a switch's share that run as one [`Switch::gate`] and
/// [`Switch::run_gated`] and ship before the next slice starts, so
/// that the collector can hand their rows to the job pool while the
/// switch runs on. Registers and report seqs carry from slice to
/// slice, so slicing changes no report. Measured with `bench_suite` on
/// the 2-core box, seed 1: on
/// `rt_allsp_top8` (≈ 3.7 k packets a window) the first rows reach the
/// helper ≈ 75 µs into a ≈ 250 µs packet loop, and 512- or 2 048-packet
/// slices read 2–5 % fewer packets/s; a first slice of 128–256 packets
/// started the helper ≈ 40 µs sooner but cost the loop more than that.
/// On `rt_sonata_q1` (≈ 33 k packets a window) 1 024-packet slices
/// read ≈ 5 % more packets/s than one batch per window.
pub const SLICE_PACKETS: usize = 1_024;

/// Gate time of a switch's share, summed over its slices, from which
/// the next share gates its slices on a second thread while the caller
/// runs the kernels ([`Ingest`]). A scoped `spawn` + `join` costs
/// 38–46 µs on the 2-core bench box (best to p90 of 200), and the
/// overlap saves at most the gate time the caller does not do itself,
/// so the floor sits 2× above the spawn. Sonata top-8 shares (seed 1:
/// ≈ 1 ms of gate a window) clear it many times over; All-SP parses
/// nothing (≈ 2 µs a window) and stays on the caller. The gate must
/// also have taken at most [`GATE_AHEAD_PER_KERNEL`] times the
/// kernels' time ([`Ingest`] says why).
const GATE_AHEAD_FLOOR_NS: u64 = 100_000;

/// How many times its kernels' time a share's gate may take for the
/// next share to be gated ahead. Seed 1, on one thread, the kernels
/// take ≈ 1.9× the gate on Sonata top-8, ≈ 2.2× on Max-DP top-8 and
/// ≈ 0.06× (at most 0.11×) on `rt_sonata_q1`. A split share's gate,
/// summed over both threads, reads longer than on one: top-8 and
/// Max-DP split shares read ≈ 1.1× at p10 and 0.3× at least, so the
/// bound sits at 0.5×, twice q1's worst on the other side.
const GATE_AHEAD_PER_KERNEL: u64 = 2;

/// How often switches gated their shares ahead of the kernels, on a
/// second thread ([`Fabric::gate_ahead`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GateAhead {
    /// Shares gated on a second thread: one scoped spawn each.
    pub shares: u64,
    /// Slices that thread gated, off the caller's.
    pub slices: u64,
}

/// One slice's gate, as either thread of a split share leaves it.
#[derive(Default)]
struct GateSlot {
    gated: Mutex<Gated>,
    /// Set once `gated` holds this window's slice: stored `Release`
    /// after the gate's lock is dropped, loaded `Acquire` before the
    /// kernels take the lock.
    ready: AtomicBool,
}

/// How a switch takes in a window. The switch reads the window's
/// packets where they lie, each through its cached encoding
/// ([`ArenaBatch::of_packets`]): the window runs one
/// [`Switch::gate`] and [`Switch::run_gated`] per [`SLICE_PACKETS`]
/// and ships as report blocks, or, under [`RuntimeConfig::oracle`],
/// each packet runs through [`Switch::process_reference`] and ships
/// its reports one frame each.
///
/// From `workers: 2` on, a share whose gate took at least
/// [`GATE_AHEAD_FLOOR_NS`] last window, and at most
/// [`GATE_AHEAD_PER_KERNEL`] times its kernels' time, in a window
/// where the job pool streams nothing, is split across two threads the
/// way a PISA pipeline overlaps its parser and its stages: a scoped
/// thread gates the slices front to back while the caller runs each
/// slice's kernels and ships it in order. Waiting on a slice, the
/// caller gates it itself if the thread has not reached it, and the
/// back slice otherwise; the last slice is always the thread's. A gate is a pure
/// function of the slice, the plan and the dynamic filters, which the
/// control turn changes only between windows, so no report depends on
/// which thread gated a slice.
///
/// The kernels must be a good part of the share, so that the thread
/// keeps ahead of the caller and the window takes about the kernels'
/// time. Where the gate is nearly all of the work (the one-query
/// `rt_sonata_q1`), the caller would wait on the thread and both would
/// parse at once, and the window would take the second core's time.
/// On the 2-core bench box that time drifts: split q1 windows read
/// 0.94–1.42 ms p10–p90 against the one-thread 1.5–1.6 ms, their
/// summed gate time 1.6–2.5 ms against 1.5 ms on one thread, and the
/// benchmark's `pps` on q1 spread past its bound from run to run.
struct Ingest {
    /// Report arena filled by [`Switch::run_gated`], reused across
    /// windows.
    reports: ReportBatch,
    /// [`RuntimeConfig::oracle`].
    oracle: bool,
    /// Whether a share may be gated on a second thread
    /// (`workers` ≥ 2).
    ahead: bool,
    /// One slot per slice of the largest share split yet (at least
    /// one), sized on the caller and kept across windows, so that the
    /// gate thread never allocates.
    slots: Vec<GateSlot>,
    /// Gate time of the last share, summed over its slices.
    gate_ns: u64,
    /// The caller's time in the last share's kernels and ships.
    kernel_ns: u64,
    counts: GateAhead,
}

impl Ingest {
    fn new(oracle: bool, workers: usize) -> Self {
        Ingest {
            reports: ReportBatch::new(),
            oracle,
            ahead: workers > 1,
            slots: vec![GateSlot::default()],
            gate_ns: 0,
            kernel_ns: 0,
            counts: GateAhead::default(),
        }
    }

    /// Run `packets` through `switch` a slice at a time and ship their
    /// reports over `link`, `pump`ing after every send (see
    /// [`SwitchEndpoint::send_batch_reports`]) — on the reference
    /// path, after every packet. `pool_streams`: the job pool takes
    /// rows on a helper this window, so the share stays on the caller.
    fn feed(
        &mut self,
        switch: &mut Switch,
        link: &mut SwitchEndpoint,
        packets: &[Packet],
        pool_streams: bool,
        mut pump: impl FnMut() -> Result<(), RuntimeError>,
    ) -> Result<(), RuntimeError> {
        if self.oracle {
            for view in ArenaBatch::of_packets(packets).iter() {
                link.send_packet_reports(switch.process_reference(view))?;
                pump()?;
            }
            return Ok(());
        }
        if self.ahead
            && !pool_streams
            && packets.len() > SLICE_PACKETS
            && self.gate_ns >= GATE_AHEAD_FLOOR_NS
            && self.gate_ns <= GATE_AHEAD_PER_KERNEL * self.kernel_ns
        {
            return self.feed_ahead(switch, link, packets, pump);
        }
        // The gate's time is what the split is decided on, not the
        // encoding of a share read for the first time.
        encode_cold(packets);
        (self.gate_ns, self.kernel_ns) = (0, 0);
        let gated = self.slots[0]
            .gated
            .get_mut()
            .expect("gate slot poisoned: a gate panicked");
        // An empty share still runs one (empty) batch.
        for from in (0..packets.len().max(1)).step_by(SLICE_PACKETS) {
            let slice = &packets[from..packets.len().min(from + SLICE_PACKETS)];
            let batch = ArenaBatch::of_packets(slice);
            let started = Instant::now();
            switch.gate(&batch, gated);
            let gated_at = Instant::now();
            self.gate_ns += gated_at.duration_since(started).as_nanos() as u64;
            switch.run_gated(&batch, gated, &mut self.reports);
            link.send_batch_reports(&self.reports, batch, &mut pump)?;
            self.kernel_ns += gated_at.elapsed().as_nanos() as u64;
        }
        Ok(())
    }

    /// [`Self::feed`] with the share's slices gated ahead on a scoped
    /// thread, front to back, and from the back by the caller while it
    /// waits; each slice's kernels run, and it ships, in order on the
    /// caller.
    fn feed_ahead(
        &mut self,
        switch: &mut Switch,
        link: &mut SwitchEndpoint,
        packets: &[Packet],
        mut pump: impl FnMut() -> Result<(), RuntimeError>,
    ) -> Result<(), RuntimeError> {
        let n = packets.len().div_ceil(SLICE_PACKETS);
        let slice = |k: usize| {
            let from = k * SLICE_PACKETS;
            ArenaBatch::of_packets(&packets[from..packets.len().min(from + SLICE_PACKETS)])
        };
        // A packet is encoded, and so allocates, on the thread that
        // reads it first: here, so that the gate thread never
        // allocates.
        encode_cold(packets);
        let (gate, mut kernels) = switch.halves();
        if self.slots.len() < n {
            self.slots.resize_with(n, GateSlot::default);
        }
        for (k, slot) in self.slots[..n].iter_mut().enumerate() {
            gate.reserve(
                slot.gated
                    .get_mut()
                    .expect("gate slot poisoned: a gate panicked"),
                slice(k).len(),
            );
            *slot.ready.get_mut() = false;
        }
        let (slots, reports) = (&self.slots[..n], &mut self.reports);
        // The slices nobody has taken yet. The thread takes them front
        // to back; the caller, waiting for slice `k`, takes `k` itself
        // if the thread has not reached it (the thread is still
        // starting), and the back one otherwise. The last slice, which
        // the caller needs last, is always the thread's, so that every
        // spawn gates at least one slice off the caller.
        let unclaimed = Mutex::new(0..n - 1);
        let claim = |waiting: Option<usize>| {
            let mut left = unclaimed
                .lock()
                .expect("gate claims poisoned: a gate thread panicked");
            match waiting {
                Some(k) if left.start != k => left.next_back(),
                _ => left.next(),
            }
        };
        let gate_slice = |k: usize| {
            let started = Instant::now();
            gate.gate(
                &slice(k),
                &mut slots[k]
                    .gated
                    .lock()
                    .expect("gate slot poisoned: a gate panicked"),
            );
            slots[k].ready.store(true, Ordering::Release);
            started.elapsed().as_nanos() as u64
        };
        let (shipped, times, gated_ahead) = std::thread::scope(|s| {
            let ahead = s.spawn(|| {
                let (mut ns, mut slices) = (0, 0);
                while let Some(k) = claim(None) {
                    ns += gate_slice(k);
                    slices += 1;
                }
                (ns + gate_slice(n - 1), slices + 1)
            });
            let (mut ns, mut kernel_ns) = (0, 0);
            let shipped = (0..n).try_for_each(|k| {
                while !slots[k].ready.load(Ordering::Acquire) {
                    match claim(Some(k)) {
                        Some(j) => ns += gate_slice(j),
                        None => {
                            // Slice `k` is the thread's: it finishes it
                            // unless it died.
                            let died =
                                ahead.is_finished() && !slots[k].ready.load(Ordering::Acquire);
                            assert!(!died, "the gate thread stopped short of slice {k}");
                            std::thread::yield_now();
                        }
                    }
                }
                let batch = slice(k);
                let gated = slots[k]
                    .gated
                    .lock()
                    .expect("gate slot poisoned: a gate panicked");
                let started = Instant::now();
                kernels.run_gated(&batch, &gated, reports);
                let sent = link.send_batch_reports(reports, batch, &mut pump);
                kernel_ns += started.elapsed().as_nanos() as u64;
                sent
            });
            let joined = ahead.join();
            let (ahead_ns, slices) =
                joined.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            (shipped, (ns + ahead_ns, kernel_ns), slices)
        });
        (self.gate_ns, self.kernel_ns) = times;
        self.counts.shares += 1;
        self.counts.slices += gated_ahead;
        shipped
    }
}

/// Encode `packets` unless they are encoded already. A share is
/// encoded whole or not at all (a trace replayed, a partition shared
/// out), so its ends tell.
fn encode_cold(packets: &[Packet]) {
    let warm = |p: Option<&Packet>| p.is_some_and(Packet::is_encoded);
    if !warm(packets.first()) || !warm(packets.last()) {
        for p in packets {
            p.encode_cached();
        }
    }
}

/// The collector side of one switch's wire: endpoint plus the
/// per-switch emitter that demultiplexes its reports.
struct FabricLink {
    link: CollectorEndpoint,
    emitter: Emitter,
}

/// Collector-side accumulator for one switch's frames of the window in
/// flight.
#[derive(Default)]
struct WindowRx {
    /// Plan epoch stamped on the window's frames (read off the wire
    /// header at `WindowOpen`/`WindowClose`).
    epoch: u64,
    packets: u64,
    opened: bool,
    shunts: u64,
    /// Shunts by the *task* (per-level job) that emitted them; folded
    /// to source queries at window completion.
    shunts_per_task: BTreeMap<QueryId, u64>,
    dump: Option<WindowDump>,
    closed: bool,
    /// Trace context of the last data frame — the switch's window
    /// root, propagated in-band; parents the collector-side spans.
    ctx: TraceContext,
    /// Switch-side stage waterfall carried on the `WindowClose` frame.
    packet_loop_ns: u64,
    dump_encode_ns: u64,
    transport_ns: u64,
    /// Collector-clock arrival of the close marker.
    close_ns: u64,
}

impl WindowRx {
    /// Count `n` received reports of `task` if they are collision
    /// shunts.
    fn note_shunts(&mut self, kind: ReportKind, task: TaskId, n: u64) {
        if kind == ReportKind::Shunt && n > 0 {
            self.shunts += n;
            *self.shunts_per_task.entry(task.query).or_default() += n;
        }
    }
}

/// Pre-resolved metric handles: the per-window path only touches
/// atomics, never the registry lock.
struct FabricObs {
    handle: ObsHandle,
    windows: Counter,
    shunts: Counter,
    alerts: Counter,
    replans: Counter,
    swaps: Counter,
    filter_entries: Gauge,
    update_latency: Histogram,
    degraded_windows: Counter,
    /// Reports the emitters dropped as malformed (decodable, but not
    /// something the deployed plan's switch sends).
    malformed_reports: Counter,
    /// One counter per [`FaultKind`], in [`FaultKind::ALL`] order —
    /// registered eagerly so every kind appears in snapshots (at zero)
    /// even on runs that never injected it.
    faults_injected: Vec<Counter>,
    /// `sonata_fabric_switch_packets{switch=...}`.
    switch_packets: Vec<Counter>,
    /// `sonata_fabric_switch_tuples{switch=...}` — tuples the switch's
    /// emitter forwarded directly (pre-merge).
    switch_tuples: Vec<Counter>,
    /// `sonata_fabric_stragglers{switch=...}`.
    switch_stragglers: Vec<Counter>,
    /// `sonata_fabric_shard_jobs{shard=...}`, by
    /// [`TopologyConfig::shard_for_query`].
    shard_jobs: Vec<Counter>,
}

impl FabricObs {
    fn new(handle: &ObsHandle, switches: usize, shards: usize) -> Self {
        let per = |name: &'static str, label: &'static str, n: usize| -> Vec<Counter> {
            (0..n)
                .map(|i| handle.counter(name, &[(label, &i.to_string())]))
                .collect()
        };
        FabricObs {
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
            switch_packets: per("sonata_fabric_switch_packets", "switch", switches),
            switch_tuples: per("sonata_fabric_switch_tuples", "switch", switches),
            switch_stragglers: per("sonata_fabric_stragglers", "switch", switches),
            shard_jobs: per("sonata_fabric_shard_jobs", "shard", shards),
        }
    }
}

/// Live state of the closed replanning loop: the re-solver with its
/// observation ring, the currently committed plan (the base the next
/// re-solve re-costs against), and the in-flight planner thread, if any.
struct ReplanState {
    replanner: Replanner,
    committed: GlobalPlan,
    swap_delay: u64,
    pending: Option<PendingReplan>,
}

/// A re-solve in flight on its planner thread, due to be joined and
/// swapped in at `due_window`'s boundary.
struct PendingReplan {
    due_window: u64,
    handle: std::thread::JoinHandle<Result<(ReplanOutcome, u64), String>>,
}

impl ReplanState {
    fn from_config(cfg: &ReplanConfig, plan: &GlobalPlan) -> Option<Self> {
        cfg.replanner.clone().map(|replanner| ReplanState {
            replanner,
            committed: plan.clone(),
            swap_delay: cfg.swap_delay.max(1),
            pending: None,
        })
    }

    /// Feed one completed window into the observation ring and, on a
    /// fired trigger, enqueue the incremental re-solve on a planner
    /// thread — the window path never blocks on the solver. At most
    /// one re-solve is in flight: a trigger landing while one is
    /// pending is already answered by it.
    fn note_window(&mut self, report: &WindowReport) {
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
            let handle = std::thread::spawn(move || {
                let started = std::time::Instant::now();
                replanner
                    .replan(&committed)
                    .map(|o| (o, started.elapsed().as_nanos() as u64))
                    .map_err(|e| e.to_string())
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
    fn take_due(&mut self, window: u64) -> Option<(ReplanOutcome, u64)> {
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

/// One refinement chain link: the output of `from_job` feeds the
/// dynamic filters of the next level.
struct FeedForward {
    /// The producing (coarser) job.
    from_job: QueryId,
    /// Key column in the producer's output.
    out_col: ColName,
    /// Dynamic filter tables of the consuming (finer) level.
    tables: Vec<String>,
    /// The consuming job, when some of its branches run their dynamic
    /// filter at the stream processor (partition 0): the fabric
    /// rewrites the registered query's `InSet` each window.
    sp_job: Option<QueryId>,
    /// Branches needing the SP-side rewrite.
    sp_branches: Vec<u8>,
}

/// The assembled system. Built from a [`GlobalPlan`] +
/// [`RuntimeConfig`] pair; the topology comes from
/// [`RuntimeConfig::topology`] (default 1×1).
pub struct Fabric {
    topo: TopologyConfig,
    partitioner: TracePartitioner,
    /// Whether switches defer their dump thresholds to the cross-switch
    /// merge — only sound, and only needed, from two switches on.
    defers: bool,
    switches: Vec<FabricSwitch>,
    links: Vec<FabricLink>,
    /// The stream processor: every instance's job, on one pool.
    engine: ShardedEngine,
    /// Each task's deployment and its local merge, run once per window
    /// over the union of every switch's local store.
    by_task: BTreeMap<TaskId, (Deployment, BoundEntries)>,
    instances: Vec<QueryInstance>,
    feed_forward: Vec<FeedForward>,
    /// Fabric-level injector: worker and boundary seams (per-switch
    /// egress seams live in each [`FabricSwitch`]).
    faults: FaultInjector,
    drift: DriftMonitor,
    window_ms: u64,
    obs: FabricObs,
    cfg: RuntimeConfig,
    outages: Vec<(SwitchOutage, bool)>,
    /// Last control batch broadcast to the fabric, replayed to a
    /// rejoining switch so its dynamic filters are not stale.
    last_control: Vec<ControlOp>,
    /// Wall time the last window's packet loops ran after their first
    /// slice shipped — the part of them that a helper can stream
    /// alongside: the caller's first load when
    /// [`ShardedEngine::open_window`] picks homes.
    last_loop_ns: u64,
    /// Closed replanning loop (`None` when [`RuntimeConfig::replan`]
    /// is disabled). A swap reprograms *every* switch — live and dark
    /// alike — at one window boundary, so the whole fabric flips to
    /// the new epoch at the same window index and a rejoining switch
    /// comes back under the current plan.
    replan: Option<ReplanState>,
}

impl Fabric {
    /// Deploy a plan onto every switch of the topology and assemble
    /// the fabric.
    pub fn new(plan: &GlobalPlan, cfg: RuntimeConfig) -> Result<Self, RuntimeError> {
        let topo = cfg.topology.clone().unwrap_or_default();
        topo.validate().map_err(RuntimeError::Control)?;
        let defers = topo.switches > 1;
        let DeployedPlan {
            program,
            deployments,
            instances,
        } = deploy(plan)?;
        let digest = plan_digest(&deployments);
        let faults = FaultInjector::from_plan(&cfg.faults);

        let mut switches = Vec::with_capacity(topo.switches);
        let mut links = Vec::with_capacity(topo.switches);
        for s in 0..topo.switches {
            let sid = s as u16;
            let name = format!("switch-{s}");
            // Each switch's wire gets its own labeled metric family
            // (`peer="switch-N"`), so fabric-wide snapshots attribute
            // queue depth, reconnects, and frame counts per peer.
            let metrics = NetMetrics::for_peer(&cfg.obs, &name);
            let inj = FaultInjector::for_switch(&cfg.faults, sid);
            let switch = load_switch(&cfg, program.clone(), defers)?;
            let (sw_t, sp_t): (Box<dyn Transport>, Box<dyn Transport>) = match cfg.transport {
                TransportKind::Loopback => {
                    let (a, b) = loopback_pair(DEFAULT_CAPACITY, &metrics);
                    (Box::new(a), Box::new(b))
                }
                TransportKind::Tcp => {
                    let opts = TcpOptions { switch_id: sid };
                    let (client, collector) = tcp_pair(&metrics, opts)?;
                    (Box::new(client), Box::new(collector))
                }
            };
            let link = SwitchEndpoint::new(
                sw_t,
                inj.clone(),
                metrics.clone(),
                &name,
                digest,
                plan.epoch,
            )?;
            switches.push(FabricSwitch {
                switch,
                name,
                cost_model: cfg.cost_model,
                ingest: Ingest::new(cfg.oracle, cfg.workers),
                faults: inj.clone(),
                link,
            });
            links.push(FabricLink {
                link: CollectorEndpoint::new(sp_t, metrics, digest, plan.epoch),
                emitter: Emitter::with_faults(&deployments, &inj),
            });
        }

        let window_ms = cfg
            .window_ms
            .or_else(|| instances.first().map(|i| i.refined.window_ms))
            .unwrap_or(3_000);
        Ok(Fabric {
            partitioner: topo.partitioner(),
            defers,
            switches,
            links,
            engine: build_engine(&cfg, &faults, &instances),
            by_task: bind_tasks(&deployments),
            feed_forward: build_feed_forward(&deployments, &instances),
            instances,
            faults,
            drift: DriftMonitor::new(plan.budget(), cfg.drift.clone(), &cfg.obs),
            window_ms,
            obs: FabricObs::new(&cfg.obs, topo.switches, topo.shards),
            replan: ReplanState::from_config(&cfg.replan, plan),
            topo,
            cfg,
            outages: Vec::new(),
            last_control: vec![ControlOp::ResetRegisters],
            last_loop_ns: 0,
        })
    }

    /// The topology in effect.
    pub fn topology(&self) -> &TopologyConfig {
        &self.topo
    }

    /// The window size in effect.
    pub fn window_ms(&self) -> u64 {
        self.window_ms
    }

    /// The deployed stream-job instances (identical on every switch).
    pub fn instances(&self) -> &[QueryInstance] {
        &self.instances
    }

    /// Epoch of the currently committed plan (identical on every
    /// collector link; bumped by each fabric-wide swap).
    pub fn epoch(&self) -> u64 {
        self.links.first().map(|l| l.link.epoch()).unwrap_or(0)
    }

    /// Switch `s`'s PISA model.
    pub(crate) fn switch(&self, s: usize) -> &Switch {
        &self.switches[s].switch
    }

    /// Schedule a deterministic switch outage (chaos testing).
    pub fn set_outage(&mut self, outage: SwitchOutage) -> Result<(), RuntimeError> {
        if usize::from(outage.switch) >= self.topo.switches {
            return Err(RuntimeError::Control(format!(
                "outage for switch {} but fabric has {}",
                outage.switch, self.topo.switches
            )));
        }
        if outage.rejoin_window <= outage.from_window {
            return Err(RuntimeError::Control(
                "outage must rejoin after it starts".into(),
            ));
        }
        self.outages.push((outage, false));
        Ok(())
    }

    fn role_of(&self, switch: usize, window: u64) -> Role {
        for (o, rejoined) in &self.outages {
            if usize::from(o.switch) != switch || *rejoined {
                continue;
            }
            if window == o.from_window {
                return Role::Cut(o.cut_after);
            }
            if window > o.from_window && window < o.rejoin_window {
                return Role::Dark;
            }
        }
        Role::Live
    }

    /// Run a whole trace through the fabric: each non-empty window of
    /// the *unsplit* trace (global window indices) is partitioned
    /// across the switches by the topology's flow-sticky partitioner
    /// — a single switch takes the window as it is — and processed in
    /// lockstep.
    pub fn process_trace(&mut self, trace: &Trace) -> Result<TelemetryReport, RuntimeError> {
        let mut report = TelemetryReport::default();
        for (w, packets) in trace.windows(self.window_ms) {
            let window = if self.topo.switches == 1 {
                self.run_window(w, &[packets])
            } else {
                let parts = self.partition_window(packets);
                self.process_window(w, &parts)
            };
            report.windows.push(window?);
        }
        report.metrics = self.cfg.obs.snapshot();
        Ok(report)
    }

    /// Split one window's packets across the switches, preserving
    /// capture order within each partition. The copies share their
    /// source's encoded bytes ([`Packet::share`]): a switch reads and
    /// encodes its packets and never mutates them.
    pub fn partition_window(&self, packets: &[Packet]) -> Vec<Vec<Packet>> {
        let assigned: Vec<usize> = (packets.iter())
            .map(|pkt| self.partitioner.assign(pkt))
            .collect();
        let mut sizes = vec![0usize; self.topo.switches];
        for &s in &assigned {
            sizes[s] += 1;
        }
        let mut parts: Vec<Vec<Packet>> = sizes.into_iter().map(Vec::with_capacity).collect();
        for (pkt, &s) in packets.iter().zip(&assigned) {
            parts[s].push(pkt.share());
        }
        parts
    }

    /// Run one window across the fabric; `parts[s]` is switch `s`'s
    /// share of it (see [`Self::partition_window`]). A part count other
    /// than the topology's switch count is a [`RuntimeError::Control`].
    pub fn process_window(
        &mut self,
        window: u64,
        parts: &[Vec<Packet>],
    ) -> Result<WindowReport, RuntimeError> {
        self.run_window(window, &parts.iter().map(Vec::as_slice).collect::<Vec<_>>())
    }

    /// Rejoin procedure for a switch coming back from an outage:
    /// replay the session `Hello` (the collector re-verifies the plan
    /// digest), flush anything left over from the straggler window,
    /// and run one catch-up control turn replaying the last batch the
    /// rest of the fabric applied.
    fn rejoin_switch(&mut self, s: usize, window: u64) -> Result<(), RuntimeError> {
        let sw = &mut self.switches[s];
        let link = &mut self.links[s];
        sw.link.resend_hello()?;
        while link.link.try_recv_frame()?.is_some() {}
        link.link
            .send_control(window.saturating_sub(1), &self.last_control)?;
        let (w, ops) = sw.link.recv_control()?;
        let applied = sw
            .cost_model
            .apply(&mut sw.switch, &ops)
            .map_err(RuntimeError::Control)?;
        sw.link.send_ack(
            w,
            applied.entries_written as u64,
            applied.latency.as_nanos() as u64,
        )?;
        let _ = link.link.recv_ack()?;
        link.link.send_credit(w)?;
        sw.link.recv_credit()?;
        Ok(())
    }

    /// The window turn every driver runs: per-switch data planes, the
    /// cross-switch merge, the stream jobs on the job pool, one
    /// refinement feed-forward, and the broadcast control turn.
    pub(crate) fn run_window(
        &mut self,
        window: u64,
        parts: &[&[Packet]],
    ) -> Result<WindowReport, RuntimeError> {
        if parts.len() != self.topo.switches {
            return Err(RuntimeError::Control(format!(
                "window {window}: {} packet parts for {} switches",
                parts.len(),
                self.topo.switches
            )));
        }
        // Boundary poll of the replanning loop, *before* the rejoins:
        // a due re-solve swaps the whole fabric — live and dark
        // switches alike — at this one boundary, so a switch rejoining
        // in the same window comes back under the current epoch.
        self.poll_replan(window)?;
        // One-shot rejoins due before this window opens.
        for i in 0..self.outages.len() {
            let (o, rejoined) = self.outages[i];
            if !rejoined && window >= o.rejoin_window {
                self.rejoin_switch(usize::from(o.switch), window)?;
                self.outages[i].1 = true;
            }
        }
        let n = self.topo.switches;
        let roles: Vec<Role> = (0..n).map(|s| self.role_of(s, window)).collect();
        let live_ids: Vec<usize> = (0..n).filter(|&s| roles[s] == Role::Live).collect();
        self.faults.begin_window(window);
        let mut rxs: Vec<WindowRx> = (0..n).map(|_| WindowRx::default()).collect();
        let mut straggler_mask = 0u64;

        // Data plane, switch by switch (deterministic order). Every
        // participating switch runs the full protocol turn even with
        // zero packets of its own. Each participating switch roots its
        // own span in the *shared* window trace (the trace id is a
        // function of the window alone), so the whole fabric's window
        // stitches under one trace with one root per switch.
        //
        // Jobs homed on a helper stream: after every pump of a live
        // switch, the rows its emitter placed for them go to their
        // helper, which folds them while this thread runs the switch.
        // Rows that close could still discard or rewrite never stream:
        // a cut switch's, and every row of a window under an enabled
        // fault injector (the engine holds the fabric's, which is
        // enabled whenever a switch's is). Nor do those of a job whose
        // partition ends at a `distinct`, which the fabric dedups across
        // switches: they enter past that `distinct`, the job's first
        // stateful op, and no feed takes rows past it.
        let handle = self.obs.handle.clone();
        self.engine.open_window(self.last_loop_ns);
        let pool_streams = self.engine.streams();
        let mut streamed: BTreeMap<QueryId, u64> = BTreeMap::new();
        let mut streamed_from = vec![0u64; n];
        let mut first_pump: Option<Instant> = None;
        let mut roots: Vec<Option<StageTimer>> = (0..n).map(|_| None).collect();
        let mut loop_ns = vec![0u64; n];
        for s in 0..n {
            let limit = match roles[s] {
                Role::Dark => continue,
                Role::Cut(cut) => cut.min(parts[s].len()),
                Role::Live => parts[s].len(),
            };
            let (sw, link, rx) = (&mut self.switches[s], &mut self.links[s], &mut rxs[s]);
            let root = handle.root_span(window, s as u16, &sw.name);
            sw.faults.begin_window(window);
            sw.link.set_ctx(root.ctx());
            let packets = parts[s].len() as u64;
            sw.link.open_window(window, packets)?;
            if roles[s] == Role::Live {
                handle.event(EventKind::WindowOpen { window, packets });
            }
            let live = roles[s] == Role::Live;
            let (engine, from) = (&mut self.engine, &mut streamed_from[s]);
            let t = handle.trace_span(Stage::PacketLoop, window, root.ctx(), &sw.name);
            let share = &parts[s][..limit];
            (sw.ingest).feed(&mut sw.switch, &mut sw.link, share, pool_streams, || {
                first_pump.get_or_insert_with(Instant::now);
                pump_link(link, rx, &handle)?;
                if live {
                    engine.hand_off(link.emitter.in_flight(), |job, rows| {
                        *streamed.entry(job).or_default() += rows;
                        *from += rows;
                    });
                }
                Ok(())
            })?;
            loop_ns[s] = t.finish();
            roots[s] = Some(root);
            if matches!(roles[s], Role::Cut(_)) {
                // Mid-window loss: the switch never closes the
                // window. Discard everything it produced — the
                // merge is all-or-nothing per switch — and reset
                // its registers so the rejoin starts clean.
                let _ = sw.switch.end_window();
                while link.link.try_recv_frame()?.is_some() {}
                let _ = link.emitter.take_partial();
                straggler_mask |= 1u64 << s;
                self.obs.switch_stragglers[s].inc();
            }
        }
        self.last_loop_ns = first_pump.map_or(0, |t| t.elapsed().as_nanos() as u64);
        // Window boundary on every live switch: dump-encode and
        // transport are timed per switch, and the three switch-side
        // stage timings ride the `WindowClose` frame in-band.
        for &s in &live_ids {
            let sw = &mut self.switches[s];
            let parent = roots[s]
                .as_ref()
                .map(StageTimer::ctx)
                .unwrap_or(TraceContext::NONE);
            let t = handle.trace_span(Stage::WindowDump, window, parent, &sw.name);
            let dump = sw.switch.end_window();
            let dump_ns = t.finish();
            let t = handle.trace_span(Stage::Transport, window, parent, &sw.name);
            sw.link.send_dump(window, dump)?;
            let transport_ns = t.finish();
            sw.link
                .close_window(window, loop_ns[s], dump_ns, transport_ns)?;
        }
        // Window alignment: the collector drains every live switch to
        // `WindowClose` before the fabric merges. The drain span's
        // parent is learned from the drained frames themselves, so it
        // is reported after the fact.
        let drain_started = handle.now_ns();
        for &s in &live_ids {
            let link = &mut self.links[s];
            while !rxs[s].closed {
                let frame = link.link.recv_frame()?;
                absorb_frame(link, &mut rxs[s], frame, &handle)?;
            }
        }
        let collector_drain_ns = handle.now_ns().saturating_sub(drain_started);
        let collector_parent = live_ids
            .first()
            .map(|&s| rxs[s].ctx)
            .unwrap_or(TraceContext::NONE);
        handle.record_span(
            Stage::CollectorDrain,
            window,
            collector_parent,
            collector_drain_ns,
            "collector",
        );

        // Cross-epoch merge refusal: every switch contributing to this
        // window must have executed it under the same plan epoch. The
        // swap is fabric-wide and boundary-atomic, so a mismatch is a
        // torn window — refuse the union rather than merge partials
        // computed by different plans.
        let epoch = live_ids
            .first()
            .map(|&s| rxs[s].epoch)
            .unwrap_or_else(|| self.epoch());
        for &s in &live_ids {
            if rxs[s].epoch != epoch {
                return Err(RuntimeError::Net(NetError::StaleEpoch {
                    theirs: rxs[s].epoch.min(epoch),
                    ours: rxs[s].epoch.max(epoch),
                }));
            }
        }

        // Per-switch partials → fabric merge.
        let mut packets = 0u64;
        let mut shunts = 0u64;
        let mut shunts_per_task: BTreeMap<QueryId, u64> = BTreeMap::new();
        let mut duplicates_suppressed = 0u64;
        let mut partials: Vec<SwitchPartial> = Vec::with_capacity(live_ids.len());
        let mut local_union: BTreeMap<TaskId, LocalStore> = BTreeMap::new();
        // Sketch bounds from every switch, folded once after the loop:
        // the fabric merge of a sketch register is the sketch of the
        // union stream, so per-switch relative guarantees survive the
        // merge (ε/δ take component-wise maxima, masses add).
        let mut all_bounds: Vec<SketchBound> = Vec::new();
        {
            let _t = handle.trace_span(Stage::EmitterReplay, window, collector_parent, "collector");
            for &s in &live_ids {
                let (rx, link) = (&mut rxs[s], &mut self.links[s]);
                debug_assert!(rx.opened && rx.closed, "window stream incomplete");
                if let Some(dump) = rx.dump.take() {
                    all_bounds.extend(dump.bounds.iter().cloned());
                    link.emitter.ingest_dump(&dump);
                }
                packets += rx.packets;
                shunts += rx.shunts;
                for (job, n) in &rx.shunts_per_task {
                    *shunts_per_task.entry(*job).or_default() += n;
                }
                let (direct, local) = link.emitter.take_partial();
                duplicates_suppressed += link.emitter.suppressed.last;
                (self.obs.malformed_reports).add(link.emitter.malformed.last);
                let forwarded: u64 = direct.iter().map(|(_, b)| b.tuple_count() as u64).sum();
                let forwarded = forwarded + streamed_from[s];
                self.obs.switch_packets[s].add(rx.packets);
                self.obs.switch_tuples[s].add(forwarded);
                partials.push((s as u16, direct));
                // The first store of a task moves in whole; later
                // switches' entries append to it.
                for (task, store) in local {
                    match local_union.entry(task) {
                        Entry::Vacant(slot) => {
                            slot.insert(store);
                        }
                        Entry::Occupied(mut slot) => {
                            for (op, runs) in store {
                                slot.get_mut().entry(op).or_default().extend(runs);
                            }
                        }
                    }
                }
            }
        }
        let merge_ns;
        let batches = {
            let t = handle.trace_span(Stage::Merge, window, collector_parent, "collector");
            let mut merged: BTreeMap<QueryId, WindowBatch> =
                merge_window_batches(partials).into_iter().collect();
            // Partial-aggregate merge: replay each task's
            // switch-resident operators once over the union of every
            // switch's local store, summing partial aggregates before
            // the deferred threshold applies.
            for (task, mut entries) in local_union {
                let (dep, merge) = self.by_task.get_mut(&task).expect("local store task");
                // A deferred distinct-set dump recomputes every
                // admitted key's downstream contribution, so shunt
                // tuples that entered past the distinct
                // (reduce-register collisions) are already
                // represented: keep only entries at or before the
                // distinct op.
                let distinct = (dep.local_ops.iter()).position(|op| *op == Operator::Distinct);
                if let Some(d) = distinct.filter(|_| self.defers) {
                    entries.retain(|op, _| *op <= d);
                }
                let survivors = RowRun::Cells(merge.run(&entries)?);
                let side = merged.entry(dep.job).or_default().branch_mut(dep.branch);
                side.entry(dep.resume_op).or_default().push(survivors);
            }
            // A partition that *ends* in a distinct forwards first
            // occurrences per packet; across switches the same key can
            // be "first" more than once (per-packet report on one
            // switch, shunt replay on another), so dedup the merged
            // entries at its resume op. Post-distinct tuples are
            // unique within a window by definition, making exact-tuple
            // dedup lossless.
            for (dep, _) in self.by_task.values().filter(|_| self.defers) {
                if dep.local_ops.last() != Some(&Operator::Distinct) {
                    continue;
                }
                let side = merged.get_mut(&dep.job).map(|b| b.branch_mut(dep.branch));
                if let Some(tuples) = side.and_then(|side| side.get_mut(&dep.resume_op)) {
                    keep_first_occurrences(tuples);
                }
            }
            // A job that streamed is submitted even if nothing of its
            // window is left: its helper holds the rest.
            for job in streamed.keys() {
                merged.entry(*job).or_default();
            }
            let batches = merged.into_iter().collect::<Vec<(QueryId, WindowBatch)>>();
            merge_ns = t.finish();
            batches
        };
        let tuples_of = |job: &QueryId, b: &WindowBatch| {
            b.tuple_count() as u64 + streamed.get(job).copied().unwrap_or(0)
        };
        let tuples_to_sp: u64 = batches.iter().map(|(job, b)| tuples_of(job, b)).sum();
        let tuples_per_query = per_source(
            &self.instances,
            (batches.iter()).map(|(job, b)| (*job, tuples_of(job, b))),
        );

        // Stream processing: the window's jobs, in job order, as one
        // submit to the job pool; a job that streamed finishes on its
        // helper, on top of the rows it took in during the packet
        // loops. Fault verdicts are rolled per job in
        // the engine, and an injected worker crash climbs the engine's
        // recovery ladder there, so the records do not depend on
        // dispatch. Any other error fails the window: the first in job
        // order, at every worker count.
        let mut outputs: HashMap<QueryId, JobResult> = HashMap::new();
        let t = handle.trace_span(Stage::ShardExecute, window, collector_parent, "collector");
        let run = self.engine.submit_window(batches);
        let shard_execute_ns = t.finish();
        for (job, result) in run.results {
            outputs.insert(job, result?);
            let j = self.topo.shard_for_query(source_of(&self.instances, job));
            self.obs.shard_jobs[j].inc();
        }

        // Alerts: finest-level outputs, in query order.
        let alerts = collect_alerts(&self.instances, &outputs);

        // Refinement feed-forward: rewritten SP-side queries
        // re-register on the job pool.
        let engine = &mut self.engine;
        let mut control_ops = feed_forward_control(
            &self.feed_forward,
            &mut self.instances,
            &outputs,
            |refined| engine.register(refined.clone()),
        );
        control_ops.push(ControlOp::ResetRegisters);

        // Boundary update through the fabric-level injector, degrading
        // gracefully under injected write failures: retry with
        // simulated doubling backoff (added to the window's update
        // latency) up to MAX_BOUNDARY_ATTEMPTS; on exhaustion skip the
        // filter update for this window — the registers are still
        // reset so the next window starts clean — and mark the window
        // degraded instead of failing the run. Then broadcast the
        // identical control batch to every live switch; it carries the
        // window's trace, closing the loop end to end.
        let (boundary_retries, boundary_backoff, boundary_skipped);
        {
            let _t =
                handle.trace_span(Stage::DynFilterWrite, window, collector_parent, "collector");
            (boundary_retries, boundary_backoff, boundary_skipped) =
                boundary_backoff_loop(&self.faults);
            if boundary_skipped {
                // Keep only ResetRegisters, the last op pushed above.
                control_ops.drain(..control_ops.len() - 1);
            }
            for &s in &live_ids {
                self.links[s].link.set_ctx(rxs[s].ctx);
                self.links[s].link.send_control(window, &control_ops)?;
            }
            self.last_control = control_ops;
        }
        // Control turn on every live switch. The acks are identical
        // across switches — the deterministic cost model applied the
        // same batch to identically deployed programs — so the merged
        // report carries the first live switch's.
        let mut ack: Option<(u64, u64)> = None;
        for &s in &live_ids {
            let sw = &mut self.switches[s];
            let (w, ops) = sw.link.recv_control()?;
            let applied = sw
                .cost_model
                .apply(&mut sw.switch, &ops)
                .map_err(RuntimeError::Control)?;
            sw.link.send_ack(
                w,
                applied.entries_written as u64,
                applied.latency.as_nanos() as u64,
            )?;
            let got = self.links[s].link.recv_ack()?;
            debug_assert!(
                ack.is_none_or(|a| a == got),
                "divergent control acks across switches"
            );
            ack.get_or_insert(got);
        }
        let (entries_written, latency_ns) = ack.unwrap_or((0, 0));
        let update_latency = Duration::from_nanos(latency_ns) + boundary_backoff;
        // Reconcile the merged window against the plan's committed
        // tuple budget; the sustained-threshold rule decides
        // re-planning.
        let drift = self.drift.observe(&tuples_per_query, packets, shunts);
        let replan_triggered = drift.replan;

        // Metrics and events.
        let alert_count: u64 = alerts.values().map(|t| t.len() as u64).sum();
        let o = &self.obs;
        o.windows.inc();
        o.shunts.add(shunts);
        o.alerts.add(alert_count);
        o.filter_entries.set(entries_written);
        o.update_latency.observe(update_latency.as_nanos() as u64);
        if replan_triggered {
            o.replans.inc();
            o.handle.event(EventKind::ReplanTrigger {
                window,
                divergence: drift.divergence,
            });
        }
        o.handle.event(EventKind::BoundaryUpdate {
            window,
            entries: entries_written,
            latency_ns: update_latency.as_nanos() as u64,
        });
        o.handle.event(EventKind::FabricMerge {
            window,
            switches: live_ids.len() as u64,
            stragglers: straggler_mask,
        });

        // Degradation marker: per-switch egress records, the
        // fabric-level worker/boundary record, and the straggler
        // bitmask.
        let mut injected = FaultRecord::default();
        for &s in &live_ids {
            injected.merge(&self.switches[s].faults.take_window_record());
        }
        injected.merge(&self.faults.take_window_record());
        let faults_active =
            self.faults.is_enabled() || self.switches.iter().any(|s| s.faults.is_enabled());
        let degraded = if faults_active || straggler_mask != 0 {
            let marker = DegradedWindow {
                injected,
                duplicates_suppressed,
                worker_retries: run.retries,
                reference_fallbacks: run.reference_fallbacks,
                boundary_retries,
                boundary_update_skipped: boundary_skipped,
                straggler_switches: straggler_mask,
            };
            if marker.is_clean() {
                None
            } else {
                for ((kind, n), counter) in injected.pairs().zip(&o.faults_injected) {
                    if n > 0 {
                        counter.add(n);
                        o.handle.event(EventKind::FaultInjected {
                            window,
                            kind: kind.name().to_string(),
                            count: n,
                        });
                    }
                }
                o.degraded_windows.inc();
                o.handle.event(EventKind::WindowDegraded {
                    window,
                    faults: injected.total(),
                });
                Some(marker)
            }
        } else {
            None
        };

        o.handle.event(EventKind::WindowClose {
            window,
            tuples_to_sp,
            shunts,
        });
        for &s in &live_ids {
            self.links[s].link.send_credit(window)?;
            self.switches[s].link.recv_credit()?;
        }

        // The waterfall: switch-side stages sum across the switches
        // that made it into the merge; arrivals attribute stragglers.
        let mut latency = WindowLatency {
            collector_drain_ns,
            shard_execute_ns,
            merge_ns,
            ..WindowLatency::default()
        };
        for &s in &live_ids {
            latency.packet_loop_ns += rxs[s].packet_loop_ns;
            latency.dump_encode_ns += rxs[s].dump_encode_ns;
            latency.transport_ns += rxs[s].transport_ns;
            // Arrivals only when the clock ran: a disabled-obs report
            // stays bit-identical to `WindowLatency::default`.
            if o.handle.is_enabled() {
                latency.arrivals.push(SwitchArrival {
                    switch: s as u16,
                    close_ns: rxs[s].close_ns,
                });
            }
        }

        let report = WindowReport {
            window,
            epoch,
            packets,
            tuples_to_sp,
            shunts,
            tuples_per_query,
            shunts_per_query: per_source(&self.instances, shunts_per_task),
            alerts: alerts.into_iter().collect(),
            filter_entries_written: entries_written as usize,
            update_latency,
            replan_triggered,
            latency,
            degraded,
            error_bounds: fold_error_bounds(&all_bounds),
        };
        if let Some(rs) = &mut self.replan {
            rs.note_window(&report);
        }
        Ok(report)
    }

    /// Join a due re-solve and swap it in at the boundary before
    /// `window` opens (fabric-wide). No-op when the loop is disabled,
    /// nothing is due, or the re-solve failed.
    fn poll_replan(&mut self, window: u64) -> Result<(), RuntimeError> {
        let Some((outcome, solve_wall_ns)) =
            self.replan.as_mut().and_then(|rs| rs.take_due(window))
        else {
            return Ok(());
        };
        self.apply_swap(window, outcome, solve_wall_ns)
    }

    /// Swap a re-solved plan across the whole fabric at one window
    /// boundary. Every switch — live or dark — is reprogrammed and
    /// re-keyed to the new digest/epoch, every collector link commits
    /// the epoch *before* its switch's fresh `Hello` goes out, the job
    /// pool is rebuilt for the new instances, and the drift monitor
    /// re-bases on the new budget. `window` is the first window the
    /// whole fabric executes under the new plan.
    fn apply_swap(
        &mut self,
        window: u64,
        outcome: ReplanOutcome,
        solve_wall_ns: u64,
    ) -> Result<(), RuntimeError> {
        let plan = outcome.plan;
        let DeployedPlan {
            program,
            deployments,
            instances,
        } = deploy(&plan)?;
        let digest = plan_digest(&deployments);
        for (sw, link) in self.switches.iter_mut().zip(&mut self.links) {
            sw.switch = load_switch(&self.cfg, program.clone(), self.defers)?;
            link.emitter = Emitter::with_faults(&deployments, &sw.faults);
        }
        // Collector side first: each link must already judge frames
        // against the new plan when its switch's `Hello` arrives.
        for link in &mut self.links {
            link.link.set_plan(digest, plan.epoch);
        }
        for sw in &mut self.switches {
            sw.link.set_plan(digest, plan.epoch)?;
        }
        self.engine = build_engine(&self.cfg, &self.faults, &instances);
        self.feed_forward = build_feed_forward(&deployments, &instances);
        self.by_task = bind_tasks(&deployments);
        self.instances = instances;
        // The old plan's dynamic filters are meaningless under the new
        // deployment; a rejoin before the next boundary replays only
        // the register reset.
        self.last_control = vec![ControlOp::ResetRegisters];
        self.drift.rebase(plan.budget());
        self.obs.swaps.inc();
        self.obs.handle.event(EventKind::PlanSwap {
            window,
            epoch: plan.epoch,
            plan_digest: digest,
            solve_wall_ns,
        });
        if let Some(rs) = &mut self.replan {
            rs.committed = plan;
        }
        Ok(())
    }

    /// The observability handle this fabric reports into (the one
    /// from [`RuntimeConfig::obs`]): use it to export events and
    /// traces after a run.
    pub fn obs(&self) -> &ObsHandle {
        &self.cfg.obs
    }

    /// The job pool's cumulative counters: tuples in, results out,
    /// and how many tuples were fed to jobs before their window closed.
    pub fn engine_counters(&self) -> &EngineCounters {
        self.engine.counters()
    }

    /// How often, summed over the switches, a share was gated ahead of
    /// its kernels on a second thread, and how many slices that thread
    /// gated.
    pub fn gate_ahead(&self) -> GateAhead {
        let counts = self.switches.iter().map(|sw| sw.ingest.counts);
        counts.fold(GateAhead::default(), |a, b| GateAhead {
            shares: a.shares + b.shares,
            slices: a.slices + b.slices,
        })
    }
}

/// Load `program` onto one switch; `defers` is [`Fabric::defers`].
fn load_switch(
    cfg: &RuntimeConfig,
    program: PisaProgram,
    defers: bool,
) -> Result<Switch, RuntimeError> {
    let mut switch = Switch::load_with_sketch(program, &cfg.constraints, &cfg.obs, cfg.sketch)
        .map_err(RuntimeError::Load)?;
    switch.set_defer_dump_thresholds(defers);
    Ok(switch)
}

/// The job pool, with every instance's refined query registered.
fn build_engine(
    cfg: &RuntimeConfig,
    faults: &FaultInjector,
    instances: &[QueryInstance],
) -> ShardedEngine {
    let mut engine = ShardedEngine::with_config(cfg.workers, &cfg.obs, faults, cfg.oracle);
    for inst in instances {
        engine.register(inst.refined.clone());
    }
    engine
}

/// Each deployed task with its local merge bound.
fn bind_tasks(deployments: &[Deployment]) -> BTreeMap<TaskId, (Deployment, BoundEntries)> {
    (deployments.iter())
        .map(|d| (d.task, (d.clone(), BoundEntries::bind(&d.local_ops))))
        .collect()
}

/// Drop every row equal to an earlier one, keeping order.
fn keep_first_occurrences(runs: &mut [RowRun]) {
    let (mut heap, mut seen) = (Heap::default(), HashSet::new());
    for run in runs {
        let width = run.width();
        let first = |row: &dyn RowSource| {
            seen.insert(
                (0..width)
                    .map(|c| row.cell(c, &mut heap))
                    .collect::<Vec<u64>>(),
            )
        };
        *run = run.filter(first);
    }
}

/// Drain every frame already buffered on one switch's collector link.
fn pump_link(
    link: &mut FabricLink,
    rx: &mut WindowRx,
    obs: &ObsHandle,
) -> Result<(), RuntimeError> {
    while let Some(frame) = link.link.try_recv_frame()? {
        absorb_frame(link, rx, frame, obs)?;
    }
    Ok(())
}

/// Fold one received frame into a switch's window accumulator.
fn absorb_frame(
    link: &mut FabricLink,
    rx: &mut WindowRx,
    frame: Frame,
    obs: &ObsHandle,
) -> Result<(), RuntimeError> {
    match frame {
        Frame::WindowOpen { packets, .. } => {
            rx.packets = packets;
            rx.opened = true;
            rx.ctx = link.link.last_ctx();
            rx.epoch = link.link.last_epoch();
        }
        Frame::Report(r) => {
            rx.note_shunts(r.kind, r.task, 1);
            link.emitter.ingest(&r);
        }
        Frame::ReportBlocks(chunk) => {
            for b in &chunk.blocks {
                rx.note_shunts(b.kind, b.task, b.rows as u64);
            }
            link.emitter.ingest_blocks(chunk);
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
            rx.close_ns = obs.now_ns();
            rx.ctx = link.link.last_ctx();
            rx.epoch = link.link.last_epoch();
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

/// Boundary-write retry loop under injected write failures: returns
/// `(retries, simulated backoff, skipped)`. On exhaustion the caller
/// sends only the trailing `ResetRegisters` op and marks the window
/// degraded instead of failing the run.
fn boundary_backoff_loop(faults: &FaultInjector) -> (u64, Duration, bool) {
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

/// The source query a stream job belongs to.
fn source_of(instances: &[QueryInstance], job: QueryId) -> QueryId {
    (instances.iter().find(|i| i.job == job)).map_or(job, |i| i.source)
}

/// Fold per-job counts of a window (batch tuples, collision shunts)
/// into per-*source*-query counts, sorted by query id: all refinement
/// levels of one query fold into its entry.
fn per_source(
    instances: &[QueryInstance],
    per_job: impl IntoIterator<Item = (QueryId, u64)>,
) -> Vec<(QueryId, u64)> {
    let mut per_query: BTreeMap<QueryId, u64> = BTreeMap::new();
    for (job, n) in per_job {
        *per_query.entry(source_of(instances, job)).or_default() += n;
    }
    per_query.into_iter().collect()
}

/// Collect finest-level job outputs as user-facing alerts, in query
/// order.
fn collect_alerts(
    instances: &[QueryInstance],
    outputs: &HashMap<QueryId, JobResult>,
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

/// Extract the refinement-key set a coarse level feeds forward.
///
/// Join-free queries feed their final output keys. For join queries
/// the paper says "their [the sub-queries'] output at coarser levels
/// determines which portion of traffic to process" (Section 4.1): we
/// feed the final (post-join) output **plus** the output of any branch
/// that is itself a thresholded aggregation — e.g. Query 3's counting
/// sub-query, whose coarse output must steer the zoom-in even before
/// the payload keyword (which only the joined output sees) appears.
fn refinement_keys(result: &JobResult, inst: &QueryInstance, out_col: &ColName) -> BTreeSet<Value> {
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
fn rewrite_inset(q: &mut Query, branch: u8, set: BTreeSet<Value>) {
    use sonata_query::expr::Pred;
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
/// filter runs at the stream processor).
fn build_feed_forward(deployments: &[Deployment], instances: &[QueryInstance]) -> Vec<FeedForward> {
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

/// Dynamic refinement: turn level-r outputs into the control ops that
/// install level-r+1 dynamic filters for the next window, rewriting
/// SP-side `InSet` branches in place. `reregister` is called with each
/// rewritten refined query, so the caller can update its job.
fn feed_forward_control(
    feed_forward: &[FeedForward],
    instances: &mut [QueryInstance],
    outputs: &HashMap<QueryId, JobResult>,
    mut reregister: impl FnMut(&Query),
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

/// Fold per-register sketch bounds into per-query reports, sorted by
/// query id. Empty input (every register exact) yields an empty vec.
fn fold_error_bounds(bounds: &[SketchBound]) -> Vec<ErrorBoundReport> {
    let mut per_query: BTreeMap<QueryId, ErrorBoundReport> = BTreeMap::new();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;
    use sonata_packet::{PacketBuilder, TcpFlags};
    use sonata_planner::{plan_queries, PlanMode, PlannerConfig};
    use sonata_query::catalog::{self, Thresholds};

    #[test]
    fn cross_switch_dedup_keeps_first_occurrences_in_linear_time() {
        // 10 k distinct post-`distinct` tuples, each "first" on four
        // switches. Scanning the kept tuples for every tuple (2 × 10⁸
        // tuple compares, ~4 s in a debug build) does not fit the
        // budget below; hashing them takes ~20 ms.
        let row = |k: u64| [k % 10_000, k % 10_000 % 7];
        let mut rows = sonata_query::Rows::new(2);
        (0..40_000u64).for_each(|k| rows.push(row(k)));
        let mut want = sonata_query::Rows::new(2);
        (0..10_000u64).for_each(|k| want.push(row(k)));
        // The same rows again, arriving as a second run.
        let mut runs = [RowRun::Cells(rows), RowRun::Cells(want.clone())];
        let started = std::time::Instant::now();
        keep_first_occurrences(&mut runs);
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
        assert_eq!(
            runs,
            [
                RowRun::Cells(want),
                RowRun::Cells(sonata_query::Rows::new(2))
            ]
        );
    }

    #[test]
    fn topology_validation_and_mappings() {
        assert!(TopologyConfig::new(0, 0).validate().is_ok()); // clamped to 1×1
        assert!(TopologyConfig {
            switches: 65,
            ..TopologyConfig::new(1, 1)
        }
        .validate()
        .is_err());
        assert!(TopologyConfig {
            shares: vec![1.0],
            ..TopologyConfig::new(2, 1)
        }
        .validate()
        .is_err());
        let t = TopologyConfig::new(4, 2);
        assert_eq!(t.shard_for_query(QueryId(3)), 1);
        assert_eq!(t.partitioner().switches(), 4);
    }

    fn syn(src: u32, dst: u32, ts_ms: u64) -> Packet {
        PacketBuilder::tcp_raw(src, 9, dst, 80)
            .flags(TcpFlags::SYN)
            .ts_nanos(ts_ms * 1_000_000)
            .build()
    }

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
    fn fabric_matches_single_runtime_across_topologies() {
        let tr = trace(2);
        let q = q1();
        let plan = plan_for(PlanMode::MaxDp, std::slice::from_ref(&q), &tr);
        let baseline = {
            let mut rt = Runtime::new(&plan, RuntimeConfig::default()).unwrap();
            rt.process_trace(&tr).unwrap()
        };
        for (n, m) in [(1, 1), (2, 1), (3, 2)] {
            let mut fab = Fabric::new(
                &plan,
                RuntimeConfig {
                    topology: Some(TopologyConfig::new(n, m)),
                    ..RuntimeConfig::default()
                },
            )
            .unwrap();
            let got = fab.process_trace(&tr).unwrap();
            assert_eq!(got.windows.len(), baseline.windows.len(), "{n}x{m}");
            for (b, g) in baseline.windows.iter().zip(&got.windows) {
                assert_eq!(b.alerts, g.alerts, "{n}x{m} window {}", b.window);
                assert_eq!(b.packets, g.packets, "{n}x{m} window {}", b.window);
                assert_eq!(
                    b.tuples_to_sp, g.tuples_to_sp,
                    "{n}x{m} window {}",
                    b.window
                );
                assert_eq!(
                    b.tuples_per_query, g.tuples_per_query,
                    "{n}x{m} window {}",
                    b.window
                );
            }
        }
    }

    #[test]
    fn straggler_switch_degrades_window_without_stalling() {
        let tr = trace(3);
        let q = q1();
        let plan = plan_for(PlanMode::MaxDp, std::slice::from_ref(&q), &tr);
        let mut fab = Fabric::new(
            &plan,
            RuntimeConfig {
                topology: Some(TopologyConfig::new(2, 1)),
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        fab.set_outage(SwitchOutage {
            switch: 1,
            from_window: 1,
            cut_after: 3,
            rejoin_window: 2,
        })
        .unwrap();
        let report = fab.process_trace(&tr).unwrap();
        assert_eq!(report.windows.len(), 3);
        // Window 1 is degraded with switch 1's straggler bit set …
        let d = report.windows[1].degraded.as_ref().expect("degraded");
        assert_eq!(d.straggler_switches, 0b10);
        // … windows 0 and 2 are clean.
        assert!(report.windows[0].degraded.is_none());
        assert!(report.windows[2].degraded.is_none());
        // The degraded window only saw switch 0's packets.
        assert!(report.windows[1].packets < report.windows[0].packets);
        assert_eq!(report.windows[2].packets, report.windows[0].packets);
    }

    #[test]
    fn a_part_count_other_than_the_switch_count_is_refused() {
        let tr = trace(1);
        let plan = plan_for(PlanMode::MaxDp, &[q1()], &tr);
        let mut fab = Fabric::new(
            &plan,
            RuntimeConfig {
                topology: Some(TopologyConfig::new(2, 1)),
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        let (_, packets) = tr.windows(3_000).next().unwrap();
        let parts = fab.partition_window(packets);
        let extra = parts[0].clone();
        for wrong in [
            vec![parts[0].clone()],
            vec![parts[0].clone(), parts[1].clone(), extra],
        ] {
            match fab.process_window(0, &wrong) {
                Err(RuntimeError::Control(msg)) => assert!(msg.contains("2 switches"), "{msg}"),
                other => panic!("{} parts: {other:?}", wrong.len()),
            }
        }
        // Refusing touched nothing: the right split still runs.
        let report = fab.process_window(0, &parts).unwrap();
        assert_eq!(report.packets, packets.len() as u64);
    }

    #[test]
    fn a_window_fans_out_once_whatever_the_shard_count() {
        use sonata_traffic::trace::EvaluationTrace;
        // All-SP top-8 on a 2×2 fabric: 25–34 k tuples per window, so
        // each shard label's half clears the fan-out floor too, and all
        // of them go to the one job pool as one submit.
        let tr = EvaluationTrace::generate(11, 3, 3_000, 0.01).trace;
        let plan = plan_for(PlanMode::AllSp, &catalog::top8(&Thresholds::default()), &tr);
        let obs = ObsHandle::enabled();
        let cfg = RuntimeConfig {
            obs: obs.clone(),
            workers: 2,
            topology: Some(TopologyConfig::new(2, 2)),
            ..RuntimeConfig::default()
        };
        let report = Fabric::new(&plan, cfg).unwrap().process_trace(&tr).unwrap();
        assert_eq!(report.windows.len(), 3);
        for w in &report.windows {
            let tuples = w.tuples_to_sp;
            assert!((25_000..34_000).contains(&tuples), "{}: {tuples}", w.window);
        }
        let fanned = obs
            .snapshot()
            .counter("sonata_engine_parallel_windows_total");
        assert_eq!(fanned, Some(3));
    }

    #[test]
    fn every_live_switch_logs_a_window_open_per_window() {
        let tr = trace(3);
        let plan = plan_for(PlanMode::MaxDp, &[q1()], &tr);
        let obs = ObsHandle::enabled();
        let mut fab = Fabric::new(
            &plan,
            RuntimeConfig {
                obs: obs.clone(),
                topology: Some(TopologyConfig::new(2, 2)),
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        fab.set_outage(SwitchOutage {
            switch: 1,
            from_window: 1,
            cut_after: 3,
            rejoin_window: 2,
        })
        .unwrap();
        let report = fab.process_trace(&tr).unwrap();
        assert_eq!(report.windows.len(), 3);
        let opens: Vec<(u64, u64)> = (obs.events().into_iter())
            .filter_map(|e| match e.kind {
                EventKind::WindowOpen { window, packets } => Some((window, packets)),
                _ => None,
            })
            .collect();
        // Both switches in windows 0 and 2; only switch 0 in window 1,
        // where switch 1 is cut off mid-window.
        let windows: Vec<u64> = opens.iter().map(|&(w, _)| w).collect();
        assert_eq!(windows, [0, 0, 1, 2, 2]);
        for w in &report.windows {
            let opened: u64 = (opens.iter().filter(|&&(o, _)| o == w.window))
                .map(|&(_, n)| n)
                .sum();
            assert_eq!(opened, w.packets, "window {}", w.window);
        }
    }
}
