//! Chaos/recovery suite for the deterministic fault-injection layer.
//!
//! Each scenario runs a real multi-query, multi-window workload twice
//! — once clean, once under a seeded [`FaultPlan`] — and asserts the
//! three contract points of the fault layer:
//!
//! 1. **no panic escapes**: every faulted run returns `Ok`, however
//!    hostile the plan;
//! 2. **blast-radius containment**: queries outside the plan's
//!    `target_query` produce byte-identical alerts and tuple counts;
//! 3. **graceful degradation**: each injected fault is visible in the
//!    window's [`DegradedWindow`] marker, and the paired recovery path
//!    (duplicate suppression, worker respawn + retry, single-mode
//!    fallback, boundary retry-with-backoff) brings the observable
//!    outputs back to the clean run wherever the paper's semantics
//!    allow it.
//!
//! Seeds come from `SONATA_CHAOS_SEEDS` (comma-separated, default
//! `7,11,13`) so CI's chaos-smoke job can pin its own set.

use sonata::prelude::*;
use sonata::query::Query;
use sonata::stream::testsupport::{assert_differential, low_thresholds, seeded_packets};
use std::time::Duration;

const WINDOW_NS: u64 = 3_000_000_000;

fn chaos_seeds() -> Vec<u64> {
    std::env::var("SONATA_CHAOS_SEEDS")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .collect::<Vec<u64>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![7, 11, 13])
}

/// A deterministic multi-window trace: one `testsupport` mixed window
/// per 3-second slot, re-seeded per slot so windows differ.
fn chaos_trace(windows: u64, seed: u64) -> Trace {
    let mut pkts = Vec::new();
    for w in 0..windows {
        let mut chunk = seeded_packets(seed.wrapping_add(w), 300);
        for p in &mut chunk {
            p.ts_nanos += w * WINDOW_NS;
        }
        pkts.extend(chunk);
    }
    Trace::new(pkts)
}

fn chaos_queries() -> Vec<Query> {
    let t = low_thresholds();
    vec![
        catalog::newly_opened_tcp_conns(&t),
        catalog::superspreader(&t),
    ]
}

fn chaos_plan_mode(queries: &[Query], tr: &Trace, mode: PlanMode) -> GlobalPlan {
    let windows: Vec<&[sonata::packet::Packet]> = tr.windows(3_000).map(|(_, p)| p).collect();
    let cfg = PlannerConfig {
        mode,
        cost: sonata::planner::costs::CostConfig {
            levels: Some(vec![8, 32]),
            ..Default::default()
        },
        ..Default::default()
    };
    plan_queries(queries, &windows, &cfg).unwrap()
}

fn chaos_plan(queries: &[Query], tr: &Trace) -> GlobalPlan {
    chaos_plan_mode(queries, tr, PlanMode::Sonata)
}

fn run(plan: &GlobalPlan, tr: &Trace, faults: FaultPlan, workers: usize) -> TelemetryReport {
    let mut rt = Runtime::new(
        plan,
        RuntimeConfig {
            faults,
            workers,
            ..RuntimeConfig::default()
        },
    )
    .unwrap();
    rt.process_trace(tr).unwrap()
}

/// Assert the user-visible outputs (alerts, tuple accounting, filter
/// writes) of two runs agree window by window — the degraded markers
/// and latencies are allowed to differ.
fn assert_outputs_match(clean: &TelemetryReport, faulted: &TelemetryReport, ctx: &str) {
    assert_eq!(clean.windows.len(), faulted.windows.len(), "{ctx}");
    for (c, f) in clean.windows.iter().zip(&faulted.windows) {
        assert_eq!(c.alerts, f.alerts, "{ctx}: window {}", c.window);
        assert_eq!(c.tuples_to_sp, f.tuples_to_sp, "{ctx}: window {}", c.window);
        assert_eq!(
            c.tuples_per_query, f.tuples_per_query,
            "{ctx}: window {}",
            c.window
        );
        assert_eq!(
            c.filter_entries_written, f.filter_entries_written,
            "{ctx}: window {}",
            c.window
        );
    }
}

#[test]
fn disabled_faults_are_bit_identical_to_the_seed_runtime() {
    for seed in chaos_seeds() {
        let tr = chaos_trace(3, seed);
        let queries = chaos_queries();
        let plan = chaos_plan(&queries, &tr);
        let clean = run(&plan, &tr, FaultPlan::none(), 1);
        // FaultPlan::none() compiles to a disabled injector, so the
        // whole WindowReport — including the absent degraded marker —
        // must equal the default-config run bit for bit.
        let default = {
            let mut rt = Runtime::new(&plan, RuntimeConfig::default()).unwrap();
            rt.process_trace(&tr).unwrap()
        };
        assert_eq!(clean.windows, default.windows, "seed {seed}");
        assert!(clean.windows.iter().all(|w| w.degraded.is_none()));
    }
    // Differential guard at the engine layer: the job pool the runtime
    // sits on still matches the inline engine and the reference
    // interpreter on the same seeded traffic.
    let pkts = seeded_packets(chaos_seeds()[0], 400);
    assert_differential(&chaos_queries(), &pkts, &[1, 2, 4]);
}

#[test]
fn report_faults_degrade_without_touching_untargeted_queries() {
    for seed in chaos_seeds() {
        let tr = chaos_trace(3, seed);
        let queries = chaos_queries();
        let (target, spared) = (queries[0].id, queries[1].id);
        // All-SP plans mirror every packet to the stream processor, so
        // the egress actually carries per-packet reports to fault
        // (Sonata plans keep most state in switch registers, whose
        // window dumps are out of the report-fault blast radius by
        // design).
        let plan = chaos_plan_mode(&queries, &tr, PlanMode::AllSp);
        let clean = run(&plan, &tr, FaultPlan::none(), 1);
        let faults = FaultPlan {
            seed,
            target_query: Some(target.0),
            report: ReportFaults {
                drop_per_mille: 150,
                duplicate_per_mille: 150,
                delay_per_mille: 150,
                reorder_per_mille: 100,
                delay_packets: 6,
            },
            ..FaultPlan::default()
        };
        let faulted = run(&plan, &tr, faults, 1);
        // Faults were actually injected, and the duplicates the switch
        // re-emitted were all suppressed by the emitter.
        let totals = faulted.total_faults();
        assert!(totals.get(FaultKind::ReportDrop) > 0, "seed {seed}");
        assert!(totals.get(FaultKind::ReportDuplicate) > 0, "seed {seed}");
        assert!(totals.get(FaultKind::ReportDelay) > 0, "seed {seed}");
        assert!(faulted.degraded_windows() > 0, "seed {seed}");
        let suppressed: u64 = faulted
            .windows
            .iter()
            .filter_map(|w| w.degraded.as_ref())
            .map(|d| d.duplicates_suppressed)
            .sum();
        assert_eq!(
            suppressed,
            totals.get(FaultKind::ReportDuplicate),
            "seed {seed}: every injected duplicate must be suppressed"
        );
        // The untargeted query is untouched: identical alerts and
        // identical tuple intake, window by window.
        assert_eq!(
            clean.alerts_for(spared),
            faulted.alerts_for(spared),
            "seed {seed}"
        );
        assert_eq!(
            clean.tuples_for(spared),
            faulted.tuples_for(spared),
            "seed {seed}"
        );
    }
}

#[test]
fn worker_crash_respawns_and_recovers_to_baseline() {
    for seed in chaos_seeds() {
        let tr = chaos_trace(2, seed);
        let queries = chaos_queries();
        let plan = chaos_plan(&queries, &tr);
        let clean = run(&plan, &tr, FaultPlan::none(), 4);
        let faults = FaultPlan {
            seed,
            worker: WorkerFaults {
                crash_per_mille: 1000,
                consecutive_crashes: 1,
                ..WorkerFaults::default()
            },
            ..FaultPlan::default()
        };
        for workers in [1usize, 4] {
            let faulted = run(&plan, &tr, faults, workers);
            // Every job crashed once and the respawn-and-retry path
            // absorbed it without reaching the single-mode fallback.
            assert_outputs_match(&clean, &faulted, &format!("seed {seed}, {workers} workers"));
            let (retries, fallbacks) = faulted
                .windows
                .iter()
                .filter_map(|w| w.degraded.as_ref())
                .fold((0u64, 0u64), |(r, f), d| {
                    (r + d.worker_retries, f + d.single_mode_fallbacks)
                });
            assert!(retries > 0, "seed {seed}: retry path never fired");
            assert_eq!(fallbacks, 0, "seed {seed}: fallback should be unreachable");
            assert!(faulted.total_faults().get(FaultKind::WorkerCrash) > 0);
        }
    }
}

#[test]
fn repeated_worker_crashes_fall_back_to_single_mode() {
    let seed = chaos_seeds()[0];
    let tr = chaos_trace(2, seed);
    let queries = chaos_queries();
    let plan = chaos_plan(&queries, &tr);
    let clean = run(&plan, &tr, FaultPlan::none(), 4);
    let faults = FaultPlan {
        seed,
        worker: WorkerFaults {
            crash_per_mille: 1000,
            consecutive_crashes: 2, // crash the retry too
            ..WorkerFaults::default()
        },
        ..FaultPlan::default()
    };
    let faulted = run(&plan, &tr, faults, 4);
    // The single-mode fallback engine produced the same outputs the
    // job pool would have (the differential guarantee).
    assert_outputs_match(&clean, &faulted, "single-mode fallback");
    let fallbacks: u64 = faulted
        .windows
        .iter()
        .filter_map(|w| w.degraded.as_ref())
        .map(|d| d.single_mode_fallbacks)
        .sum();
    assert!(fallbacks > 0, "fallback path never fired");
}

#[test]
fn boundary_retry_recovers_within_bound() {
    for seed in chaos_seeds() {
        let tr = chaos_trace(3, seed);
        let queries = chaos_queries();
        let plan = chaos_plan(&queries, &tr);
        let clean = run(&plan, &tr, FaultPlan::none(), 1);
        let faults = FaultPlan {
            seed,
            boundary: BoundaryFaults {
                fail_per_mille: 1000,
                consecutive: 1, // recovered by the first retry
            },
            ..FaultPlan::default()
        };
        let faulted = run(&plan, &tr, faults, 1);
        // The retry landed the same filter entries the clean run
        // wrote, and the simulated backoff shows up in the latency.
        assert_outputs_match(&clean, &faulted, &format!("seed {seed}"));
        for (c, f) in clean.windows.iter().zip(&faulted.windows) {
            let d = f.degraded.as_ref().expect("every window degraded");
            assert_eq!(d.boundary_retries, 1, "window {}", f.window);
            assert!(!d.boundary_update_skipped, "window {}", f.window);
            assert_eq!(
                f.update_latency,
                c.update_latency + Duration::from_millis(1),
                "window {}: one retry adds exactly the first backoff step",
                f.window
            );
        }
    }
}

#[test]
fn boundary_exhaustion_skips_the_update_but_completes_the_run() {
    let seed = chaos_seeds()[0];
    let tr = chaos_trace(3, seed);
    let queries = chaos_queries();
    let plan = chaos_plan(&queries, &tr);
    let faults = FaultPlan {
        seed,
        boundary: BoundaryFaults {
            fail_per_mille: 1000,
            consecutive: 10, // beyond the runtime's retry bound
        },
        ..FaultPlan::default()
    };
    let faulted = run(&plan, &tr, faults, 1);
    assert_eq!(faulted.windows.len(), 3);
    for w in &faulted.windows {
        let d = w.degraded.as_ref().expect("every window degraded");
        assert!(d.boundary_update_skipped, "window {}", w.window);
        assert_eq!(w.filter_entries_written, 0, "window {}", w.window);
    }
    // The run still produced alerts — skipping a filter update never
    // loses final results, it only widens the next window's intake.
    assert!(faulted.windows.iter().any(|w| !w.alerts.is_empty()));
}

#[test]
fn worker_stalls_delay_but_do_not_change_outputs() {
    let seed = chaos_seeds()[0];
    let tr = chaos_trace(2, seed);
    let queries = chaos_queries();
    let plan = chaos_plan(&queries, &tr);
    let clean = run(&plan, &tr, FaultPlan::none(), 2);
    let faults = FaultPlan {
        seed,
        worker: WorkerFaults {
            stall_per_mille: 1000,
            stall_ms: 1,
            ..WorkerFaults::default()
        },
        ..FaultPlan::default()
    };
    let faulted = run(&plan, &tr, faults, 2);
    assert_outputs_match(&clean, &faulted, "stall");
    assert!(faulted.total_faults().get(FaultKind::WorkerStall) > 0);
}

#[test]
fn switch_loss_isolates_to_the_dead_switchs_traffic_and_rejoin_resyncs() {
    // Fabric switch-loss: switch 1 of a 2×1 fabric dies at the start
    // of window 1 and rejoins (Hello replay + control resync) for
    // window 2. The contract mirrors the targeted-query one: the shard
    // closes the window degraded instead of stalling, the surviving
    // switch's traffic is processed exactly as if the dead switch's
    // partition had never existed, and the rejoined switch is
    // indistinguishable from one that never left.
    for seed in chaos_seeds() {
        let tr = chaos_trace(3, seed);
        let queries = chaos_queries();
        let plan = chaos_plan(&queries, &tr);
        let cfg = || RuntimeConfig {
            topology: Some(TopologyConfig::new(2, 1)),
            ..RuntimeConfig::default()
        };
        let clean = Fabric::new(&plan, cfg())
            .unwrap()
            .process_trace(&tr)
            .unwrap();

        let mut fab = Fabric::new(&plan, cfg()).unwrap();
        fab.set_outage(SwitchOutage {
            switch: 1,
            from_window: 1,
            cut_after: 0, // dark for all of window 1
            rejoin_window: 2,
        })
        .unwrap();
        let lost = fab.process_trace(&tr).unwrap();
        assert_eq!(lost.windows.len(), 3, "seed {seed}");

        // The shard closed window 1 degraded with switch 1's straggler
        // bit — and did not stall or poison the neighbouring windows.
        let d = lost.windows[1].degraded.as_ref().expect("degraded");
        assert_eq!(d.straggler_switches, 0b10, "seed {seed}");
        assert!(lost.windows[0].degraded.is_none(), "seed {seed}");
        assert!(lost.windows[2].degraded.is_none(), "seed {seed}");
        // Window 0 predates the outage entirely: bit-identical.
        assert_eq!(clean.windows[0], lost.windows[0], "seed {seed}");

        // Reference: the same fabric over a trace where switch 1's
        // window-1 partition never arrived. The flow-sticky partition
        // is per-packet deterministic, so the surviving switch sees the
        // same packets either way; every user-visible output — window 1
        // under loss AND window 2 after the Hello-replay rejoin — must
        // match this reference window by window.
        let windows: Vec<&[sonata::packet::Packet]> = tr.windows(3_000).map(|(_, p)| p).collect();
        let parts = Fabric::new(&plan, cfg())
            .unwrap()
            .partition_window(windows[1]);
        let mut filtered = windows[0].to_vec();
        filtered.extend(parts[0].iter().cloned());
        filtered.extend(windows[2].iter().cloned());
        let reference = Fabric::new(&plan, cfg())
            .unwrap()
            .process_trace(&Trace::new(filtered))
            .unwrap();
        assert_outputs_match(&reference, &lost, &format!("seed {seed}: switch loss"));
        assert_eq!(
            reference.windows[1].packets, lost.windows[1].packets,
            "seed {seed}"
        );
    }
}

#[test]
fn mid_window_switch_loss_closes_degraded_without_stalling() {
    // The harsher cut: the switch dies partway through its partition,
    // after its window is already open on the wire. The fabric must
    // still close the window (degraded, straggler bit set) with the
    // partial state it got, and the rejoin must leave the following
    // window clean.
    for seed in chaos_seeds() {
        let tr = chaos_trace(3, seed);
        let queries = chaos_queries();
        let plan = chaos_plan(&queries, &tr);
        let cfg = || RuntimeConfig {
            topology: Some(TopologyConfig::new(2, 1)),
            ..RuntimeConfig::default()
        };
        let clean = Fabric::new(&plan, cfg())
            .unwrap()
            .process_trace(&tr)
            .unwrap();
        let mut fab = Fabric::new(&plan, cfg()).unwrap();
        fab.set_outage(SwitchOutage {
            switch: 1,
            from_window: 1,
            cut_after: 5,
            rejoin_window: 2,
        })
        .unwrap();
        let lost = fab.process_trace(&tr).unwrap();
        assert_eq!(lost.windows.len(), 3, "seed {seed}");
        let d = lost.windows[1].degraded.as_ref().expect("degraded");
        assert_eq!(d.straggler_switches, 0b10, "seed {seed}");
        // The straggler's unclosed packets are gone, not buffered.
        assert!(
            lost.windows[1].packets < clean.windows[1].packets,
            "seed {seed}"
        );
        // Before and after the outage the fabric is healthy: window 0
        // is bit-identical to the clean run and the rejoin window
        // carries no degraded marker.
        assert_eq!(clean.windows[0], lost.windows[0], "seed {seed}");
        assert!(lost.windows[2].degraded.is_none(), "seed {seed}");
        assert_eq!(
            clean.windows[2].packets, lost.windows[2].packets,
            "seed {seed}"
        );
    }
}

// ---------------------------------------------------------------------------
// Replanning under chaos: the epoch-versioned swap racing switch loss,
// faulted control channels, and laggard frames from the replaced plan.
// ---------------------------------------------------------------------------

const DRIFT_WINDOWS: u32 = 8;
const DRIFT_SWAP_DELAY: u64 = 2;

/// The convergence suite's catalog mix at default thresholds — the
/// attack onset has to move per-query channel loads enough to breach
/// the drift monitor, which the low chaos thresholds blur.
fn drift_queries() -> Vec<Query> {
    let t = Thresholds::default();
    vec![
        catalog::newly_opened_tcp_conns(&t),
        catalog::superspreader(&t),
        catalog::ddos(&t),
    ]
}

fn drift_workload() -> DriftWorkload {
    DriftWorkload {
        onset_window: 2,
        packets_per_window: 4_000,
        ..DriftWorkload::new(DriftScenario::attack_onset(), DRIFT_WINDOWS, 3_000)
    }
}

/// Plan + armed replanner trained on the workload's quiet prefix.
fn drift_plan(wl: &DriftWorkload, seed: u64) -> (GlobalPlan, Replanner) {
    let queries = drift_queries();
    let training = wl.training(seed);
    let windows: Vec<&[sonata::packet::Packet]> = training.windows(3_000).map(|(_, p)| p).collect();
    let cfg = PlannerConfig::default();
    let plan = plan_queries(&queries, &windows, &cfg).unwrap();
    let rp = Replanner::from_training(&queries, &windows, cfg, 4).unwrap();
    (plan, rp)
}

fn drift_replan(rp: Replanner) -> ReplanConfig {
    ReplanConfig {
        replanner: Some(rp),
        swap_delay: DRIFT_SWAP_DELAY,
        ..ReplanConfig::default()
    }
}

fn swap_events(obs: &ObsHandle) -> Vec<(u64, u64)> {
    obs.events()
        .iter()
        .filter_map(|e| match &e.kind {
            sonata::obs::EventKind::PlanSwap { window, epoch, .. } => Some((*window, *epoch)),
            _ => None,
        })
        .collect()
}

#[test]
fn replan_swap_races_switch_loss_and_rejoin_comes_back_under_the_new_epoch() {
    // A 2×1 fabric swaps in an epoch-1 plan while switch 1 is dark:
    // the switch misses the swap entirely and rejoins the window
    // after, replaying its Hello against a plan it never saw land. The
    // contract: the outage neither delays, duplicates, nor drops the
    // swap; no merged window mixes epochs; and the rejoined switch is
    // brought forward to the current epoch by the Hello replay +
    // control catch-up, indistinguishable from one that never left.
    let seed = chaos_seeds()[0];
    let wl = drift_workload();
    let (plan, rp) = drift_plan(&wl, seed);
    let drifted = wl.generate(seed);
    let cfg = |obs: ObsHandle, rp: Replanner| RuntimeConfig {
        obs,
        topology: Some(TopologyConfig::new(2, 1)),
        replan: drift_replan(rp),
        ..RuntimeConfig::default()
    };

    // Dry run pins this seed's swap boundary so the outage can be
    // aimed exactly at it.
    let dry_obs = ObsHandle::enabled();
    Fabric::new(&plan, cfg(dry_obs.clone(), rp.clone()))
        .unwrap()
        .process_trace(&drifted)
        .unwrap();
    let dry = swap_events(&dry_obs);
    assert_eq!(dry.len(), 1, "dry run: one sustained breach, one swap");
    let (swap_window, _) = dry[0];
    assert!(
        swap_window + 1 < DRIFT_WINDOWS as u64,
        "rejoin window must fall inside the run"
    );

    let obs = ObsHandle::enabled();
    let mut fab = Fabric::new(&plan, cfg(obs.clone(), rp)).unwrap();
    fab.set_outage(SwitchOutage {
        switch: 1,
        from_window: swap_window,
        cut_after: 0, // dark for the whole swap window
        rejoin_window: swap_window + 1,
    })
    .unwrap();
    let report = fab.process_trace(&drifted).unwrap();
    assert_eq!(report.windows.len(), DRIFT_WINDOWS as usize);

    // Same single swap at the same boundary as the outage-free run.
    assert_eq!(swap_events(&obs), dry, "the outage must not move the swap");
    assert_eq!(fab.epoch(), 1);

    // No merged window mixes epochs: 0 strictly before the boundary,
    // 1 from it — including the degraded swap window (closed from the
    // surviving switch's epoch-1 contribution alone) and the rejoin
    // window.
    for w in &report.windows {
        let expect = if w.window < swap_window { 0 } else { 1 };
        assert_eq!(w.epoch, expect, "window {}", w.window);
    }

    // The swap window closed degraded with switch 1's straggler bit —
    // the fabric did not stall waiting for the dead switch to learn
    // about the new plan.
    let d = report.windows[swap_window as usize]
        .degraded
        .as_ref()
        .expect("swap window closes degraded under the outage");
    assert_eq!(d.straggler_switches, 0b10);

    // Every other window is clean: in particular the rejoin window,
    // whose Hello replay verified against the epoch-1 digest and whose
    // control state was caught up before the window opened.
    for w in &report.windows {
        if w.window != swap_window {
            assert!(w.degraded.is_none(), "window {}", w.window);
        }
    }
}

#[test]
fn replan_swap_lands_on_a_faulted_control_channel() {
    // Every boundary control turn — including the one that commits the
    // epoch-1 swap — fails once and goes through the retry path. The
    // retry must neither move the swap boundary nor leak an epoch
    // across it, and the recovered outputs must match the fault-free
    // replanning run window by window.
    let seed = chaos_seeds()[0];
    let wl = drift_workload();
    let (plan, rp) = drift_plan(&wl, seed);
    let drifted = wl.generate(seed);

    let clean_obs = ObsHandle::enabled();
    let clean = Runtime::new(
        &plan,
        RuntimeConfig {
            obs: clean_obs.clone(),
            replan: drift_replan(rp.clone()),
            ..RuntimeConfig::default()
        },
    )
    .unwrap()
    .process_trace(&drifted)
    .unwrap();

    let obs = ObsHandle::enabled();
    let faulted = Runtime::new(
        &plan,
        RuntimeConfig {
            obs: obs.clone(),
            faults: FaultPlan {
                seed,
                boundary: BoundaryFaults {
                    fail_per_mille: 1000,
                    consecutive: 1, // recovered by the first retry
                },
                ..FaultPlan::default()
            },
            replan: drift_replan(rp),
            ..RuntimeConfig::default()
        },
    )
    .unwrap()
    .process_trace(&drifted)
    .unwrap();

    assert_eq!(
        swap_events(&obs),
        swap_events(&clean_obs),
        "boundary retries must not move the swap"
    );
    assert_eq!(swap_events(&obs).len(), 1);
    let (swap_window, epoch) = swap_events(&obs)[0];
    assert_eq!(epoch, 1);
    for (c, f) in clean.windows.iter().zip(&faulted.windows) {
        assert_eq!(c.epoch, f.epoch, "window {}", c.window);
        assert_eq!(
            f.epoch,
            if f.window < swap_window { 0 } else { 1 },
            "window {}",
            f.window
        );
    }
    assert_outputs_match(&clean, &faulted, "faulted control channel");
    for w in &faulted.windows {
        let d = w.degraded.as_ref().expect("every window degraded");
        assert_eq!(d.boundary_retries, 1, "window {}", w.window);
        assert!(!d.boundary_update_skipped, "window {}", w.window);
    }
}

#[test]
fn laggard_frames_from_the_replaced_plan_drop_typed_and_hello_replay_rejoins() {
    // The wire-level half of the swap contract, driven through real
    // endpoints over a loopback transport: once the collector (the
    // epoch authority) commits epoch 1, every data frame still stamped
    // with the replaced plan's epoch is dropped with the typed
    // [`NetError::StaleEpoch`] — never silently, never merged into an
    // epoch-1 window. Session Hellos stay exempt (guarded by the plan
    // digest instead), which is exactly what lets a laggard switch
    // rejoin: commit the swapped plan, replay the Hello, pass the
    // screen.
    use sonata::faults::FaultInjector;
    use sonata::net::{
        loopback_pair, CollectorEndpoint, Frame, NetError, NetMetrics, SwitchEndpoint,
    };
    use sonata::pisa::{Report, ReportKind, TaskId};
    use sonata::query::QueryId;

    let wire_report = |seq: u64| Report {
        task: TaskId {
            query: QueryId(1),
            level: 32,
            branch: 0,
        },
        kind: ReportKind::Tuple,
        columns: vec![("ipv4.src".into(), seq)],
        packet: None,
        entry_op: None,
        seq,
    };

    let metrics = NetMetrics::new(&ObsHandle::disabled());
    let (sw_t, sp_t) = loopback_pair(256, &metrics);
    let mut sw = SwitchEndpoint::new(
        Box::new(sw_t),
        FaultInjector::disabled(),
        metrics.clone(),
        "sw0",
        7, // epoch-0 plan digest
        0,
    )
    .unwrap();
    let mut sp = CollectorEndpoint::new(Box::new(sp_t), metrics, 7, 0);
    // The session Hello is verified and filtered out of the stream.
    assert!(sp.try_recv_frame().unwrap().is_none());

    // A full epoch-0 window flows normally.
    sw.open_window(0, 1).unwrap();
    sw.send_packet_reports(vec![wire_report(1)]).unwrap();
    sw.close_window(0, 0, 0, 0).unwrap();
    let mut closed = false;
    while let Some(f) = sp.try_recv_frame().unwrap() {
        if matches!(f, Frame::WindowClose { window: 0, .. }) {
            closed = true;
            break;
        }
    }
    assert!(closed, "the epoch-0 window drains to the collector");
    assert_eq!(sp.last_epoch(), 0);

    // The collector commits the swap; the laggard switch keeps talking
    // under the replaced plan. Every one of its data frames — open,
    // report, close — is consumed and rejected with the typed error.
    sp.set_plan(9, 1);
    sw.open_window(1, 1).unwrap();
    sw.send_packet_reports(vec![wire_report(2)]).unwrap();
    sw.close_window(1, 0, 0, 0).unwrap();
    for _ in 0..3 {
        assert_eq!(
            sp.try_recv_frame().unwrap_err(),
            NetError::StaleEpoch { theirs: 0, ours: 1 }
        );
    }
    assert!(
        sp.try_recv_frame().unwrap().is_none(),
        "the laggard's whole window is discarded, nothing is merged"
    );

    // Hellos are identity, not plan output: the laggard can always
    // open a session — but one carrying the replaced digest is refused
    // by the digest guard, so it cannot sneak back in un-swapped.
    sw.resend_hello().unwrap();
    assert_eq!(
        sp.try_recv_frame().unwrap_err(),
        NetError::PlanMismatch { theirs: 7, ours: 9 }
    );

    // Committing the swapped plan replays a Hello with the new digest;
    // it verifies, and the switch's frames pass the epoch screen.
    sw.set_plan(9, 1).unwrap();
    assert_eq!(sw.epoch(), 1);
    sw.open_window(2, 1).unwrap();
    assert!(matches!(
        sp.try_recv_frame().unwrap(),
        Some(Frame::WindowOpen { window: 2, .. })
    ));
    assert_eq!(sp.last_epoch(), 1);
}

#[test]
fn chaos_sweep_survives_every_fault_kind_at_once() {
    // The kitchen sink: all fault kinds live simultaneously, across
    // every pinned seed and both engine backends. The only invariants
    // strong enough to survive arbitrary report loss are the safety
    // ones: no panic, full window coverage, and markers that account
    // for what fired.
    for seed in chaos_seeds() {
        let tr = chaos_trace(3, seed);
        let queries = chaos_queries();
        let plan = chaos_plan(&queries, &tr);
        let faults = FaultPlan {
            seed,
            report: ReportFaults {
                drop_per_mille: 100,
                duplicate_per_mille: 100,
                delay_per_mille: 100,
                reorder_per_mille: 50,
                delay_packets: 8,
            },
            worker: WorkerFaults {
                crash_per_mille: 300,
                consecutive_crashes: 2,
                stall_per_mille: 200,
                stall_ms: 1,
            },
            boundary: BoundaryFaults {
                fail_per_mille: 300,
                consecutive: 1,
            },
            ..FaultPlan::default()
        };
        for workers in [1usize, 4] {
            let report = run(&plan, &tr, faults, workers);
            assert_eq!(report.windows.len(), 3, "seed {seed}, {workers} workers");
            assert!(
                report.total_faults().total() > 0,
                "seed {seed}: the sweep must actually inject"
            );
            for w in &report.windows {
                if let Some(d) = &w.degraded {
                    assert!(!d.is_clean(), "clean marker attached, window {}", w.window);
                }
            }
        }
    }
}
