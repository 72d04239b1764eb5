//! Multi-switch telemetry fabric: N switch instances feeding M
//! collector shards.
//!
//! A [`Fabric`] generalizes the one-switch↔one-collector [`Runtime`]
//! shape: a [`TopologyConfig`] drives N independent [`Switch`]
//! instances — each with its own deployed program, fault domain, and
//! `sonata-net` transport (Loopback or Tcp, reusing the `Hello`
//! plan-digest handshake per peer) — whose mirrored reports are
//! demultiplexed per switch and merged per window into one global
//! result processed by M collector shards.
//!
//! **Merge soundness.** Per-packet reports union trivially: the trace
//! partitioner is exhaustive and flow-sticky, so each packet's reports
//! come from exactly one switch and the union is the single-switch
//! multiset. Register dumps do not: a fabric switch holds only the
//! *partial* per-key aggregate of its traffic share, so applying a
//! dump threshold on the switch would drop keys whose fabric-wide sum
//! crosses it. Fabric switches therefore defer dump thresholds
//! (`Switch::set_defer_dump_thresholds`), dumps arrive raw in the
//! per-switch emitters' local stores, and the fabric replays each
//! task's switch-resident operators **once** over the union of every
//! switch's store — summing partials before thresholding, exactly the
//! computation the single switch performed.
//!
//! **Window alignment.** Windows ride the credit/lockstep protocol:
//! each collector shard drains its assigned switches to `WindowClose`
//! before the merge, and the fabric closes window *w* only after every
//! live switch closed it. A switch that fails to close (mid-window
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
    attribute_tuples, boundary_backoff_loop, build_feed_forward, collect_alerts,
    feed_forward_control, submit_with_recovery, DegradedWindow, FeedForward, Ingest, ReplanState,
    RuntimeConfig, RuntimeError, RuntimeObs, SwitchArrival, TelemetryReport, WindowLatency,
    WindowReport, WindowRx,
};
use sonata_faults::{FaultInjector, FaultRecord};
use sonata_net::loopback::{loopback_pair, DEFAULT_CAPACITY};
use sonata_net::tcp::{tcp_pair, TcpOptions};
use sonata_net::{
    CollectorEndpoint, Frame, NetError, NetMetrics, SwitchEndpoint, Transport, TransportKind,
};
use sonata_obs::{Counter, EventKind, FabricSnapshot, ObsHandle, Stage, StageTimer, TraceContext};
use sonata_packet::Packet;
use sonata_pisa::{ControlOp, Switch, TaskId, UpdateCostModel};
use sonata_planner::{GlobalPlan, ReplanOutcome};
use sonata_query::{Heap, Operator, QueryId, RowRun, RowSource};
use sonata_stream::{
    merge_window_batches, BoundEntries, MicroBatchEngine, ShardedEngine, SwitchPartial, WindowBatch,
};
use sonata_traffic::{Trace, TracePartitioner};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Duration;

/// Shape of a telemetry fabric: how many switches split the tap, how
/// many collector shards process the merged stream, and how the two
/// tiers map onto each other.
#[derive(Debug, Clone)]
pub struct TopologyConfig {
    /// Switch instances the trace is split across (1–64; the
    /// straggler bitmask in [`DegradedWindow`] is a `u64`).
    pub switches: usize,
    /// Collector shards. Stream jobs are owned by *source* query
    /// (`source % shards`), keeping each refinement chain — and its
    /// feed-forward state — shard-local.
    pub shards: usize,
    /// Relative traffic share per switch (empty = uniform). Lets a
    /// topology model skew: one big border switch, small leaf
    /// switches.
    pub shares: Vec<f64>,
    /// Switch → shard window-alignment assignment (empty = round-robin
    /// `switch % shards`): the shard responsible for draining that
    /// switch's frames to `WindowClose` each window.
    pub assignment: Vec<usize>,
}

impl TopologyConfig {
    /// An `switches × shards` fabric with uniform shares and
    /// round-robin assignment.
    pub fn new(switches: usize, shards: usize) -> Self {
        TopologyConfig {
            switches: switches.max(1),
            shards: shards.max(1),
            shares: Vec::new(),
            assignment: Vec::new(),
        }
    }

    /// The shard that tracks `switch`'s window alignment.
    pub fn shard_for(&self, switch: usize) -> usize {
        self.assignment
            .get(switch)
            .copied()
            .unwrap_or(switch % self.shards)
    }

    /// The shard that owns a source query's stream jobs (its whole
    /// refinement chain).
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
        if !self.assignment.is_empty() {
            if self.assignment.len() != self.switches {
                return Err(format!(
                    "topology: {} assignments for {} switches",
                    self.assignment.len(),
                    self.switches
                ));
            }
            if let Some(bad) = self.assignment.iter().find(|&&a| a >= self.shards) {
                return Err(format!(
                    "topology: assignment to shard {bad} but only {} shards",
                    self.shards
                ));
            }
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
    switch: Switch,
    cost_model: UpdateCostModel,
    /// Takes in this switch's share of each window.
    ingest: Ingest,
    faults: FaultInjector,
    link: SwitchEndpoint,
}

/// The collector side of one switch's wire: endpoint plus the
/// per-switch emitter that demultiplexes its reports.
struct FabricLink {
    /// The shard responsible for draining this switch each window.
    shard: usize,
    link: CollectorEndpoint,
    emitter: Emitter,
}

/// One collector shard: a sharded engine owning a subset of the
/// queries, plus its crash-fallback twin when faults are enabled.
struct Shard {
    engine: ShardedEngine,
    fallback: Option<MicroBatchEngine>,
}

/// Fabric-level metric handles: the runtime family plus per-switch and
/// per-shard labeled counters.
struct FabricObs {
    rt: RuntimeObs,
    /// `sonata_fabric_switch_packets{switch=...}`.
    switch_packets: Vec<Counter>,
    /// `sonata_fabric_switch_tuples{switch=...}` — tuples the switch's
    /// emitter forwarded directly (pre-merge).
    switch_tuples: Vec<Counter>,
    /// `sonata_fabric_stragglers{switch=...}`.
    switch_stragglers: Vec<Counter>,
    /// `sonata_fabric_shard_jobs{shard=...}`.
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
            rt: RuntimeObs::new(handle),
            switch_packets: per("sonata_fabric_switch_packets", "switch", switches),
            switch_tuples: per("sonata_fabric_switch_tuples", "switch", switches),
            switch_stragglers: per("sonata_fabric_stragglers", "switch", switches),
            shard_jobs: per("sonata_fabric_shard_jobs", "shard", shards),
        }
    }
}

/// The assembled multi-switch system. Built from the same
/// [`GlobalPlan`] + [`RuntimeConfig`] pair as [`Runtime`]; the
/// topology comes from [`RuntimeConfig::topology`] (default 1×1).
///
/// [`Runtime`]: crate::runtime::Runtime
pub struct Fabric {
    topo: TopologyConfig,
    partitioner: TracePartitioner,
    switches: Vec<FabricSwitch>,
    links: Vec<FabricLink>,
    shards: Vec<Shard>,
    /// Each task's deployment and its local merge, run once per window
    /// over the union of every switch's local store.
    by_task: BTreeMap<TaskId, (Deployment, BoundEntries)>,
    instances: Vec<QueryInstance>,
    feed_forward: Vec<FeedForward>,
    /// Fabric-level injector: worker and boundary seams (per-switch
    /// egress seams live in each [`FabricSwitch`]).
    faults: FaultInjector,
    shunt_replan_fraction: f64,
    drift: DriftMonitor,
    window_ms: u64,
    obs: FabricObs,
    cfg: RuntimeConfig,
    outages: Vec<(SwitchOutage, bool)>,
    /// Last control batch broadcast to the fabric, replayed to a
    /// rejoining switch so its dynamic filters are not stale.
    last_control: Vec<ControlOp>,
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
            let node = format!("switch-{s}");
            // Each switch's wire gets its own labeled metric family
            // (`peer="switch-N"`), so fabric-wide snapshots attribute
            // queue depth, reconnects, and frame counts per peer.
            let metrics = NetMetrics::for_peer(&cfg.obs, &node);
            let inj = FaultInjector::for_switch(&cfg.faults, sid);
            let mut switch =
                Switch::load_with_sketch(program.clone(), &cfg.constraints, &cfg.obs, cfg.sketch)
                    .map_err(RuntimeError::Load)?;
            // A fabric switch holds only the partial per-key aggregate
            // of its traffic share: dump thresholds are only sound
            // after the cross-switch merge, so defer them to the
            // collector-side replay.
            switch.set_defer_dump_thresholds(true);
            let (sw_t, sp_t): (Box<dyn Transport>, Box<dyn Transport>) = match cfg.transport {
                TransportKind::Loopback => {
                    let (a, b) = loopback_pair(DEFAULT_CAPACITY, &metrics);
                    (Box::new(a), Box::new(b))
                }
                TransportKind::Tcp => {
                    let opts = TcpOptions {
                        switch_id: sid,
                        ..TcpOptions::default()
                    };
                    let (client, collector) = tcp_pair(&metrics, opts)?;
                    (Box::new(client), Box::new(collector))
                }
            };
            let link = SwitchEndpoint::new(
                sw_t,
                inj.clone(),
                metrics.clone(),
                &node,
                digest,
                plan.epoch,
            )?;
            switches.push(FabricSwitch {
                switch,
                cost_model: cfg.cost_model,
                ingest: Ingest::new(cfg.force_reference_path),
                faults: inj.clone(),
                link,
            });
            links.push(FabricLink {
                shard: topo.shard_for(s),
                link: CollectorEndpoint::new(sp_t, metrics.clone(), digest, plan.epoch),
                emitter: Emitter::with_faults(&deployments, &inj),
            });
        }

        let mut shards = Vec::with_capacity(topo.shards);
        for j in 0..topo.shards {
            let mut engine = ShardedEngine::with_config(
                cfg.workers,
                &cfg.obs,
                &faults,
                cfg.force_reference_path,
            );
            let mut fallback = faults.is_enabled().then(|| {
                let mut eng = MicroBatchEngine::new();
                eng.set_force_reference(cfg.force_reference_path);
                eng
            });
            for inst in instances
                .iter()
                .filter(|i| topo.shard_for_query(i.source) == j)
            {
                engine.register(inst.refined.clone());
                if let Some(fb) = &mut fallback {
                    fb.register(inst.refined.clone());
                }
            }
            shards.push(Shard { engine, fallback });
        }

        let feed_forward = build_feed_forward(&deployments, &instances);
        let window_ms = cfg
            .window_ms
            .or_else(|| instances.first().map(|i| i.refined.window_ms))
            .unwrap_or(3_000);
        let obs = FabricObs::new(&cfg.obs, topo.switches, topo.shards);
        let partitioner = topo.partitioner();
        let by_task = bind_tasks(&deployments);
        let replan = ReplanState::from_config(&cfg.replan, plan);
        Ok(Fabric {
            partitioner,
            switches,
            links,
            shards,
            by_task,
            instances,
            feed_forward,
            faults,
            shunt_replan_fraction: cfg.shunt_replan_fraction,
            drift: DriftMonitor::new(plan.budget(), cfg.drift.clone(), &cfg.obs),
            window_ms,
            obs,
            topo,
            cfg,
            outages: Vec::new(),
            last_control: vec![ControlOp::ResetRegisters],
            replan,
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
    /// and processed in lockstep.
    pub fn process_trace(&mut self, trace: &Trace) -> Result<TelemetryReport, RuntimeError> {
        let mut report = TelemetryReport::default();
        let windows: Vec<(u64, &[Packet])> = trace.windows(self.window_ms).collect();
        for (w, packets) in windows {
            let parts = self.partition_window(packets);
            report.windows.push(self.process_window(w, &parts)?);
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

    /// Run one window across the fabric: per-switch data planes, the
    /// cross-switch merge, sharded stream processing, one refinement
    /// feed-forward, and the broadcast control turn.
    pub fn process_window(
        &mut self,
        window: u64,
        parts: &[Vec<Packet>],
    ) -> Result<WindowReport, RuntimeError> {
        debug_assert_eq!(parts.len(), self.topo.switches);
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
        let roles: Vec<Role> = (0..self.topo.switches)
            .map(|s| self.role_of(s, window))
            .collect();
        let live = |roles: &[Role]| -> Vec<usize> {
            roles
                .iter()
                .enumerate()
                .filter(|(_, r)| matches!(r, Role::Live))
                .map(|(i, _)| i)
                .collect()
        };
        let live_ids = live(&roles);
        self.faults.begin_window(window);
        let mut rxs: Vec<WindowRx> = (0..self.topo.switches)
            .map(|_| WindowRx::default())
            .collect();
        let mut straggler_mask = 0u64;

        // Data plane, switch by switch (deterministic order). Every
        // participating switch runs the full protocol turn even with
        // zero packets of its own. Each participating switch roots its
        // own span in the *shared* window trace (the trace id is a
        // function of the window alone), so the whole fabric's window
        // stitches under one trace with one root per switch.
        let handle = self.obs.rt.handle.clone();
        let mut roots: Vec<Option<StageTimer>> = (0..self.topo.switches).map(|_| None).collect();
        let mut loop_ns = vec![0u64; self.topo.switches];
        for s in 0..self.topo.switches {
            let limit = match roles[s] {
                Role::Dark => continue,
                Role::Cut(cut) => cut.min(parts[s].len()),
                Role::Live => parts[s].len(),
            };
            let name = format!("switch-{s}");
            let root = handle.root_span(window, s as u16, &name);
            self.switches[s].faults.begin_window(window);
            self.switches[s].link.set_ctx(root.ctx());
            self.switches[s]
                .link
                .open_window(window, parts[s].len() as u64)?;
            let t = handle.trace_span(Stage::PacketLoop, window, root.ctx(), &name);
            let slice = &parts[s][..limit];
            let (sw, link, rx) = (&mut self.switches[s], &mut self.links[s], &mut rxs[s]);
            (sw.ingest).feed(&mut sw.switch, &mut sw.link, slice, || {
                pump_link(link, rx, &handle)
            })?;
            loop_ns[s] = t.finish();
            roots[s] = Some(root);
            if matches!(roles[s], Role::Cut(_)) {
                // Mid-window loss: the switch never closes the
                // window. Discard everything it produced — the
                // merge is all-or-nothing per switch — and reset
                // its registers so the rejoin starts clean.
                let _ = self.switches[s].switch.end_window();
                while self.links[s].link.try_recv_frame()?.is_some() {}
                let _ = self.links[s].emitter.take_partial();
                straggler_mask |= 1u64 << s;
                self.obs.switch_stragglers[s].inc();
            }
        }
        // Window boundary on every live switch: dump-encode and
        // transport are timed per switch, and the three switch-side
        // stage timings ride the `WindowClose` frame in-band.
        for &s in &live_ids {
            let name = format!("switch-{s}");
            let parent = roots[s]
                .as_ref()
                .map(StageTimer::ctx)
                .unwrap_or(TraceContext::NONE);
            let t = handle.trace_span(Stage::WindowDump, window, parent, &name);
            let dump = self.switches[s].switch.end_window();
            let dump_ns = t.finish();
            let t = handle.trace_span(Stage::Transport, window, parent, &name);
            self.switches[s].link.send_dump(window, dump)?;
            let transport_ns = t.finish();
            self.switches[s]
                .link
                .close_window(window, loop_ns[s], dump_ns, transport_ns)?;
        }
        // Window alignment: each collector shard drains its assigned
        // switches to `WindowClose` before the fabric merges. The
        // drain span's parent is learned from the drained frames
        // themselves, so it is reported after the fact.
        let drain_started = handle.now_ns();
        for shard in 0..self.topo.shards {
            let assigned: Vec<usize> = live_ids
                .iter()
                .copied()
                .filter(|&s| self.links[s].shard == shard)
                .collect();
            for s in assigned {
                while !rxs[s].closed {
                    let frame = self.links[s].link.recv_frame()?;
                    absorb_frame(&mut self.links[s], &mut rxs[s], frame, &handle)?;
                }
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
            .unwrap_or_else(|| self.links.first().map(|l| l.link.epoch()).unwrap_or(0));
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
        let mut all_bounds: Vec<sonata_pisa::SketchBound> = Vec::new();
        {
            let _t = handle.trace_span(Stage::EmitterReplay, window, collector_parent, "collector");
            for &s in &live_ids {
                debug_assert!(rxs[s].opened && rxs[s].closed, "window stream incomplete");
                if let Some(dump) = rxs[s].dump.take() {
                    all_bounds.extend(dump.bounds.iter().cloned());
                    self.links[s].emitter.ingest_dump(&dump);
                }
                packets += rxs[s].packets;
                shunts += rxs[s].shunts;
                for (job, n) in &rxs[s].shunts_per_task {
                    *shunts_per_task.entry(*job).or_default() += n;
                }
                let (direct, local) = self.links[s].emitter.take_partial();
                duplicates_suppressed += self.links[s].emitter.suppressed.last;
                (self.obs.rt.malformed_reports).add(self.links[s].emitter.malformed.last);
                let forwarded: u64 = direct.iter().map(|(_, b)| b.tuple_count() as u64).sum();
                self.obs.switch_packets[s].add(rxs[s].packets);
                self.obs.switch_tuples[s].add(forwarded);
                partials.push((s as u16, direct));
                for (task, entries) in local {
                    let slot = local_union.entry(task).or_default();
                    for (op, tuples) in entries {
                        slot.entry(op).or_default().extend(tuples);
                    }
                }
            }
        }
        let merge_ns;
        let batches = {
            let t = handle.trace_span(Stage::Merge, window, collector_parent, "collector");
            let mut merged: BTreeMap<QueryId, WindowBatch> =
                merge_window_batches(partials).into_iter().collect();
            // Cross-switch partial-aggregate merge: replay each task's
            // switch-resident operators once over the union of every
            // switch's local store, summing partial aggregates before
            // the deferred threshold applies.
            for (task, mut entries) in local_union {
                let (dep, merge) = self.by_task.get_mut(&task).expect("local store task");
                // The distinct-set dump recomputes every admitted
                // key's downstream contribution, so shunt tuples that
                // entered past the distinct (reduce-register
                // collisions) are already represented: keep only
                // entries at or before the distinct op.
                if let Some(d) = (dep.local_ops.iter()).position(|op| *op == Operator::Distinct) {
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
            for (dep, _) in self.by_task.values() {
                if dep.local_ops.last() != Some(&Operator::Distinct) {
                    continue;
                }
                let side = merged.get_mut(&dep.job).map(|b| b.branch_mut(dep.branch));
                if let Some(tuples) = side.and_then(|side| side.get_mut(&dep.resume_op)) {
                    keep_first_occurrences(tuples);
                }
            }
            let batches = merged.into_iter().collect::<Vec<(QueryId, WindowBatch)>>();
            merge_ns = t.finish();
            batches
        };
        let tuples_to_sp: u64 = batches.iter().map(|(_, b)| b.tuple_count() as u64).sum();
        let tuples_per_query = attribute_tuples(&self.instances, &batches);

        // Stream processing: dispatch each job to its owning shard, in
        // job order (deterministic fault verdicts).
        let mut worker_retries = 0u64;
        let mut single_mode_fallbacks = 0u64;
        let mut outputs: HashMap<QueryId, sonata_stream::JobResult> = HashMap::new();
        let shard_execute_ns;
        {
            let t = handle.trace_span(Stage::ShardExecute, window, collector_parent, "collector");
            for (job, batch) in batches {
                let source = self
                    .instances
                    .iter()
                    .find(|i| i.job == job)
                    .map(|i| i.source)
                    .unwrap_or(job);
                let j = self.topo.shard_for_query(source);
                let shard = &mut self.shards[j];
                let result = if self.faults.is_enabled() {
                    submit_with_recovery(
                        &mut shard.engine,
                        shard.fallback.as_mut(),
                        job,
                        batch,
                        &mut worker_retries,
                        &mut single_mode_fallbacks,
                    )?
                } else {
                    shard.engine.submit_owned(job, batch)?
                };
                self.obs.shard_jobs[j].inc();
                outputs.insert(job, result);
            }
            shard_execute_ns = t.finish();
        }

        let alerts = collect_alerts(&self.instances, &outputs);

        // Refinement feed-forward: rewritten SP-side queries
        // re-register on their owning shard (and its fallback twin).
        let shards = &mut self.shards;
        let topo = &self.topo;
        let mut control_ops = feed_forward_control(
            &self.feed_forward,
            &mut self.instances,
            &outputs,
            |refined| {
                let source = QueryId(refined.id.0 / 1000);
                let shard = &mut shards[topo.shard_for_query(source)];
                shard.engine.register(refined.clone());
                if let Some(fb) = &mut shard.fallback {
                    fb.register(refined.clone());
                }
            },
        );
        control_ops.push(ControlOp::ResetRegisters);

        // Boundary update through the fabric-level injector, then
        // broadcast the identical control batch to every live switch.
        let (boundary_retries, boundary_backoff, boundary_skipped);
        {
            let _t =
                handle.trace_span(Stage::DynFilterWrite, window, collector_parent, "collector");
            (boundary_retries, boundary_backoff, boundary_skipped) =
                boundary_backoff_loop(&self.faults);
            let ops: &[ControlOp] = if boundary_skipped {
                // ResetRegisters is the last op pushed above.
                &control_ops[control_ops.len() - 1..]
            } else {
                &control_ops
            };
            for &s in &live_ids {
                self.links[s].link.send_control(window, ops)?;
            }
            self.last_control = ops.to_vec();
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
        // re-planning, exactly as on the single-switch runtime.
        let tuples_per_query: Vec<(QueryId, u64)> = tuples_per_query.into_iter().collect();
        let drift = self.drift.observe(
            &tuples_per_query,
            packets,
            shunts,
            self.shunt_replan_fraction,
        );
        let replan_triggered = drift.replan;

        // Metrics and events, mirroring the single-switch runtime.
        let alert_count: u64 = alerts.values().map(|t| t.len() as u64).sum();
        let o = &self.obs.rt;
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
                worker_retries,
                single_mode_fallbacks,
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
            shunts_per_query: crate::runtime::attribute_shunts(&self.instances, &shunts_per_task)
                .into_iter()
                .collect(),
            alerts: alerts.into_iter().collect(),
            filter_entries_written: entries_written as usize,
            update_latency,
            replan_triggered,
            latency,
            degraded,
            error_bounds: crate::runtime::fold_error_bounds(&all_bounds),
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
    /// the epoch *before* its switch's fresh `Hello` goes out, every
    /// shard re-registers the new instances, and the drift monitor
    /// re-bases on the new budget. `window` is the first window the
    /// whole fabric executes under the new plan.
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
        let digest = plan_digest(&deployments);
        for s in 0..self.topo.switches {
            let mut switch = Switch::load_with_sketch(
                program.clone(),
                &self.cfg.constraints,
                &self.cfg.obs,
                self.cfg.sketch,
            )
            .map_err(RuntimeError::Load)?;
            switch.set_defer_dump_thresholds(true);
            self.switches[s].switch = switch;
            self.links[s].emitter = Emitter::with_faults(&deployments, &self.switches[s].faults);
        }
        // Collector side first: each link must already judge frames
        // against the new plan when its switch's `Hello` arrives.
        for link in &mut self.links {
            link.link.set_plan(digest, plan.epoch);
        }
        for sw in &mut self.switches {
            sw.link.set_plan(digest, plan.epoch)?;
        }
        for j in 0..self.topo.shards {
            let mut engine = ShardedEngine::with_config(
                self.cfg.workers,
                &self.cfg.obs,
                &self.faults,
                self.cfg.force_reference_path,
            );
            let mut fallback = self.shards[j].fallback.is_some().then(|| {
                let mut eng = MicroBatchEngine::new();
                eng.set_force_reference(self.cfg.force_reference_path);
                eng
            });
            for inst in instances
                .iter()
                .filter(|i| self.topo.shard_for_query(i.source) == j)
            {
                engine.register(inst.refined.clone());
                if let Some(fb) = &mut fallback {
                    fb.register(inst.refined.clone());
                }
            }
            self.shards[j] = Shard { engine, fallback };
        }
        self.feed_forward = build_feed_forward(&deployments, &instances);
        self.by_task = bind_tasks(&deployments);
        self.instances = instances;
        // The old plan's dynamic filters are meaningless under the new
        // deployment; a rejoin before the next boundary replays only
        // the register reset.
        self.last_control = vec![ControlOp::ResetRegisters];
        self.drift.rebase(plan.budget());
        self.obs.rt.swaps.inc();
        self.obs.rt.handle.event(EventKind::PlanSwap {
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

    /// Fabric-wide metrics snapshot: the shared registry decomposed
    /// into per-source parts (`switch-N` / `shard-N` / `collector`)
    /// by each series' identifying label. Join snapshots from several
    /// fabrics (or export one run) with [`FabricSnapshot::merge`] —
    /// the join is commutative, associative, and idempotent, so
    /// export order never changes the fabric-wide document.
    pub fn fabric_snapshot(&self) -> FabricSnapshot {
        FabricSnapshot::from_labeled(&self.cfg.obs.snapshot())
    }

    /// The observability handle this fabric reports into.
    pub fn obs(&self) -> &ObsHandle {
        &self.cfg.obs
    }
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
        Frame::WindowOpen { window, packets } => {
            rx.window = window;
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
        assert!(TopologyConfig {
            assignment: vec![0, 2],
            ..TopologyConfig::new(2, 2)
        }
        .validate()
        .is_err());
        let t = TopologyConfig::new(4, 2);
        assert_eq!(t.shard_for(0), 0);
        assert_eq!(t.shard_for(3), 1);
        assert_eq!(t.partitioner().switches(), 4);
        let custom = TopologyConfig {
            assignment: vec![1, 1, 0, 0],
            ..TopologyConfig::new(4, 2)
        };
        assert!(custom.validate().is_ok());
        assert_eq!(custom.shard_for(0), 1);
        assert_eq!(custom.shard_for(3), 0);
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
}
