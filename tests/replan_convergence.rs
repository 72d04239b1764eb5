//! Convergence suite for the closed replanning loop: plan on quiet
//! traffic, run on a drifted workload, and assert the whole
//! trigger → re-solve → epoch-bumped swap → recovery arc.
//!
//! Per [`DriftScenario`] (diurnal shift, flash crowd, attack onset):
//!
//! * the drift monitor fires **exactly one** trigger per sustained
//!   breach, and the runtime performs **exactly one** swap for it,
//!   `swap_delay` windows after the trigger;
//! * every window executes under exactly one epoch — 0 before the
//!   swap boundary, 1 from it — and the run's divergence returns
//!   below [`DriftConfig::threshold`] within `swap_delay + 1` windows
//!   of the trigger (the first post-swap window is already reconciled
//!   against the re-costed budget);
//! * windows are **bit-identical to single-plan reference runs**:
//!   pre-swap windows match a replan-disabled run of the original
//!   plan, post-swap windows match a fresh runtime built from the
//!   re-solved plan and driven from the epoch boundary;
//! * the same arc reproduces across 1×1 and 2×2 topologies and across
//!   Loopback and Tcp transports.

use sonata::obs::{EventKind, ObsHandle};
use sonata::prelude::*;
use sonata::query::{Query, QueryId};
use std::collections::BTreeMap;

const WINDOW_MS: u64 = 3_000;
const WINDOWS: u32 = 8;
const ONSET: u32 = 2;
const SWAP_DELAY: u64 = 2;
const HISTORY: usize = 4;

fn queries() -> Vec<Query> {
    let t = Thresholds::default();
    vec![
        catalog::newly_opened_tcp_conns(&t),
        catalog::superspreader(&t),
        catalog::ddos(&t),
    ]
}

/// The three drift fixtures. The diurnal ramp plateaus before the
/// swap lands so the re-solved plan has a stationary distribution to
/// converge on.
fn scenarios() -> Vec<DriftScenario> {
    vec![
        DriftScenario::Diurnal {
            peak_multiplier: 5.0,
            ramp_windows: 2,
        },
        DriftScenario::flash_crowd(),
        DriftScenario::attack_onset(),
    ]
}

fn workload(scenario: DriftScenario) -> DriftWorkload {
    DriftWorkload {
        onset_window: ONSET,
        packets_per_window: 4_000,
        ..DriftWorkload::new(scenario, WINDOWS, WINDOW_MS)
    }
}

/// Plan + matching replanner from the workload's quiet trace.
fn plan_and_replanner(wl: &DriftWorkload, seed: u64) -> (GlobalPlan, Replanner) {
    let queries = queries();
    let training = wl.training(seed);
    let windows: Vec<&[sonata::packet::Packet]> =
        training.windows(WINDOW_MS).map(|(_, p)| p).collect();
    let cfg = PlannerConfig::default();
    let plan = plan_queries(&queries, &windows, &cfg).unwrap();
    let rp = Replanner::from_training(&queries, &windows, cfg, HISTORY).unwrap();
    (plan, rp)
}

fn replan_cfg(rp: Replanner) -> ReplanConfig {
    ReplanConfig {
        replanner: Some(rp),
        swap_delay: SWAP_DELAY,
    }
}

fn triggers(obs: &ObsHandle) -> Vec<u64> {
    obs.events()
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::ReplanTrigger { window, .. } => Some(*window),
            _ => None,
        })
        .collect()
}

fn swaps(obs: &ObsHandle) -> Vec<(u64, u64)> {
    obs.events()
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::PlanSwap { window, epoch, .. } => Some((*window, *epoch)),
            _ => None,
        })
        .collect()
}

/// Deterministic-field equality between two windows: everything but
/// the wall-clock latency waterfall (which differs across runs by
/// construction).
fn assert_windows_identical(a: &WindowReport, b: &WindowReport, ctx: &str) {
    assert_eq!(a.window, b.window, "{ctx}");
    assert_eq!(a.epoch, b.epoch, "{ctx}: window {}", a.window);
    assert_eq!(a.packets, b.packets, "{ctx}: window {}", a.window);
    assert_eq!(a.tuples_to_sp, b.tuples_to_sp, "{ctx}: window {}", a.window);
    assert_eq!(a.shunts, b.shunts, "{ctx}: window {}", a.window);
    assert_eq!(
        a.shunts_per_query, b.shunts_per_query,
        "{ctx}: window {}",
        a.window
    );
    assert_eq!(
        a.tuples_per_query, b.tuples_per_query,
        "{ctx}: window {}",
        a.window
    );
    assert_eq!(a.alerts, b.alerts, "{ctx}: window {}", a.window);
    assert_eq!(
        a.filter_entries_written, b.filter_entries_written,
        "{ctx}: window {}",
        a.window
    );
    assert_eq!(
        a.update_latency, b.update_latency,
        "{ctx}: window {}",
        a.window
    );
    assert_eq!(
        a.replan_triggered, b.replan_triggered,
        "{ctx}: window {}",
        a.window
    );
    assert_eq!(a.degraded, b.degraded, "{ctx}: window {}", a.window);
}

/// The per-query *channel* load of a window — batch tuples plus
/// collision shunts — which is exactly what the runtime feeds its
/// replanner's observation ring.
fn channel_loads(w: &WindowReport) -> Vec<(QueryId, u64)> {
    let mut loads: BTreeMap<QueryId, u64> = w.tuples_per_query.iter().copied().collect();
    for (q, n) in &w.shunts_per_query {
        *loads.entry(*q).or_default() += n;
    }
    loads.into_iter().collect()
}

/// Replay the loop's deterministic re-solve outside the runtime: feed
/// the run's own observed channel loads up to and including the
/// trigger window into a fresh replanner (the loop spawns its planner
/// thread with exactly that ring) and re-solve against the committed
/// plan.
fn resolve_reference_plan(
    wl: &DriftWorkload,
    seed: u64,
    plan: &GlobalPlan,
    report: &TelemetryReport,
    trigger_window: u64,
) -> GlobalPlan {
    let (_, mut rp) = plan_and_replanner(wl, seed);
    for w in &report.windows {
        if w.window > trigger_window {
            break;
        }
        rp.observe_window(&channel_loads(w));
    }
    let out = rp.replan(plan).unwrap();
    out.plan
}

/// The full arc on a 1×1 runtime, per scenario.
#[test]
fn triggered_replan_swaps_once_and_recovers_divergence() {
    for scenario in scenarios() {
        let name = scenario.name();
        let seed = 23;
        let wl = workload(scenario);
        let (plan, rp) = plan_and_replanner(&wl, seed);
        assert_eq!(plan.epoch, 0);
        let drifted = wl.generate(seed);

        let obs = ObsHandle::enabled();
        let mut rt = Runtime::new(
            &plan,
            RuntimeConfig {
                obs: obs.clone(),
                replan: replan_cfg(rp),
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        let report = rt.process_trace(&drifted).unwrap();
        assert_eq!(report.windows.len(), WINDOWS as usize, "{name}");

        // Exactly one trigger for the sustained breach, exactly one
        // swap for the trigger, swap_delay windows later.
        let trig = triggers(&obs);
        assert_eq!(trig.len(), 1, "{name}: one sustained breach, one trigger");
        let sw = swaps(&obs);
        assert_eq!(sw.len(), 1, "{name}: one trigger, one swap");
        let (swap_window, epoch) = sw[0];
        assert_eq!(swap_window, trig[0] + SWAP_DELAY, "{name}");
        assert_eq!(epoch, 1, "{name}: first re-solve bumps epoch to 1");
        assert_eq!(rt.epoch(), 1, "{name}: endpoints carry the new epoch");
        let solve_wall_ns: Vec<u64> = obs
            .events()
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::PlanSwap { solve_wall_ns, .. } => Some(*solve_wall_ns),
                _ => None,
            })
            .collect();
        assert!(
            solve_wall_ns[0] > 0,
            "{name}: the planner thread's wall time is on record"
        );
        assert_eq!(
            report.metrics.counter("sonata_runtime_plan_swaps_total"),
            Some(1),
            "{name}"
        );

        // Every window under exactly one epoch, 0 → 1 at the boundary.
        for w in &report.windows {
            let expect = if w.window < swap_window { 0 } else { 1 };
            assert_eq!(w.epoch, expect, "{name}: window {}", w.window);
        }

        // Recovery: no re-trigger after the swap, and the live
        // divergence gauge (per-mille) is back below the threshold by
        // the end of the run — within swap_delay + 1 windows of the
        // trigger, since the first post-swap window already reconciles
        // against the re-costed budget.
        assert!(
            report
                .windows
                .iter()
                .filter(|w| w.window >= swap_window)
                .all(|w| !w.replan_triggered),
            "{name}: swapped plan must absorb the drift"
        );
        let gauge = report.metrics.gauge("sonata_plan_divergence").unwrap();
        let threshold_mille = (DriftConfig::default().threshold * 1000.0) as u64;
        assert!(
            gauge < threshold_mille,
            "{name}: final divergence {gauge}‰ not below {threshold_mille}‰"
        );

        // Pre-swap windows are bit-identical to a replan-disabled run
        // of the original plan over the same drifted trace.
        let pre_reference = Runtime::new(
            &plan,
            RuntimeConfig {
                obs: ObsHandle::enabled(),
                ..RuntimeConfig::default()
            },
        )
        .unwrap()
        .process_trace(&drifted)
        .unwrap();
        for (a, b) in report
            .windows
            .iter()
            .zip(&pre_reference.windows)
            .take_while(|(a, _)| a.window < swap_window)
        {
            assert_windows_identical(a, b, &format!("{name}: pre-swap"));
        }

        // Post-swap windows are bit-identical to a fresh runtime built
        // from the re-solved plan and driven from the epoch boundary.
        let new_plan = resolve_reference_plan(&wl, seed, &plan, &report, trig[0]);
        assert_eq!(new_plan.epoch, 1, "{name}");
        let mut post_rt = Runtime::new(
            &new_plan,
            RuntimeConfig {
                obs: ObsHandle::enabled(),
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        for (w, packets) in drifted.windows(WINDOW_MS) {
            if w < swap_window {
                continue;
            }
            let reference = post_rt.process_window(w, packets).unwrap();
            let swapped = report
                .windows
                .iter()
                .find(|r| r.window == w)
                .expect("window present");
            assert_windows_identical(swapped, &reference, &format!("{name}: post-swap"));
        }
    }
}

/// The arc is transport-independent: the same drifted run over Tcp
/// swaps at the same boundary and produces the same windows as over
/// Loopback.
#[test]
fn replan_arc_is_identical_across_loopback_and_tcp() {
    let seed = 31;
    let wl = workload(DriftScenario::attack_onset());
    let (plan, rp) = plan_and_replanner(&wl, seed);
    let drifted = wl.generate(seed);

    let mut runs = Vec::new();
    for transport in [TransportKind::Loopback, TransportKind::Tcp] {
        let obs = ObsHandle::enabled();
        let mut rt = Runtime::new(
            &plan,
            RuntimeConfig {
                obs: obs.clone(),
                transport,
                replan: replan_cfg(rp.clone()),
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        let report = rt.process_trace(&drifted).unwrap();
        runs.push((report, swaps(&obs)));
    }
    let (loopback, loopback_swaps) = &runs[0];
    let (tcp, tcp_swaps) = &runs[1];
    assert_eq!(loopback_swaps, tcp_swaps, "same swap, same boundary");
    assert_eq!(loopback_swaps.len(), 1);
    assert_eq!(loopback.windows.len(), tcp.windows.len());
    for (a, b) in loopback.windows.iter().zip(&tcp.windows) {
        assert_windows_identical(a, b, "loopback vs tcp");
    }
}

/// The arc reproduces fabric-wide: a 2×2 fabric over the same drifted
/// trace swaps at the same boundary as the 1×1 runtime, no merged
/// window ever mixes epochs, and the fabric's windows are
/// bit-identical to single-plan reference runs *of the same fabric*
/// (collision shunts — and with them the observed channel loads that
/// seed the re-solve — are switch-local physics, so the cross-topology
/// contract is the swap boundary and recovery, not raw window bytes;
/// see `differential_fabric.rs`).
#[test]
fn fabric_replan_swaps_at_same_boundary_as_single_runtime() {
    let seed = 37;
    let wl = workload(DriftScenario::attack_onset());
    let (plan, rp) = plan_and_replanner(&wl, seed);
    let drifted = wl.generate(seed);

    let single_obs = ObsHandle::enabled();
    Runtime::new(
        &plan,
        RuntimeConfig {
            obs: single_obs.clone(),
            replan: replan_cfg(rp.clone()),
            ..RuntimeConfig::default()
        },
    )
    .unwrap()
    .process_trace(&drifted)
    .unwrap();

    let fabric_cfg = |obs: ObsHandle, replan: ReplanConfig| RuntimeConfig {
        obs,
        topology: Some(TopologyConfig::new(2, 2)),
        replan,
        ..RuntimeConfig::default()
    };
    let fabric_obs = ObsHandle::enabled();
    let mut fab = Fabric::new(&plan, fabric_cfg(fabric_obs.clone(), replan_cfg(rp))).unwrap();
    let fabric = fab.process_trace(&drifted).unwrap();

    // Cross-topology: the drift is in the merged per-query loads, so
    // the 1×1 and 2×2 runs fire and swap at the same boundary.
    assert_eq!(swaps(&single_obs), swaps(&fabric_obs), "same swap boundary");
    assert_eq!(swaps(&fabric_obs).len(), 1);
    let (swap_window, epoch) = swaps(&fabric_obs)[0];
    assert_eq!(epoch, 1);
    assert_eq!(fab.epoch(), 1);
    for w in &fabric.windows {
        let expect = if w.window < swap_window { 0 } else { 1 };
        assert_eq!(w.epoch, expect, "no merged window mixes epochs");
    }
    assert!(
        fabric
            .windows
            .iter()
            .filter(|w| w.window >= swap_window)
            .all(|w| !w.replan_triggered),
        "the fabric's swapped plan absorbs the drift"
    );

    // Pre-swap windows are bit-identical to a replan-disabled run of
    // the same 2×2 fabric.
    let pre_reference = Fabric::new(
        &plan,
        fabric_cfg(ObsHandle::enabled(), ReplanConfig::default()),
    )
    .unwrap()
    .process_trace(&drifted)
    .unwrap();
    for (a, b) in fabric
        .windows
        .iter()
        .zip(&pre_reference.windows)
        .take_while(|(a, _)| a.window < swap_window)
    {
        assert_windows_identical(a, b, "2×2 pre-swap");
    }

    // Post-swap windows are bit-identical to a fresh 2×2 fabric built
    // from the re-solved plan (reconstructed from the fabric's own
    // observed channel loads) and driven from the epoch boundary.
    let trigger_window = swap_window - SWAP_DELAY;
    let new_plan = resolve_reference_plan(&wl, seed, &plan, &fabric, trigger_window);
    assert_eq!(new_plan.epoch, 1);
    let mut post_fab = Fabric::new(
        &new_plan,
        fabric_cfg(ObsHandle::enabled(), ReplanConfig::default()),
    )
    .unwrap();
    for (w, packets) in drifted.windows(WINDOW_MS) {
        if w < swap_window {
            continue;
        }
        let parts = post_fab.partition_window(packets);
        let reference = post_fab.process_window(w, &parts).unwrap();
        let swapped = fabric
            .windows
            .iter()
            .find(|r| r.window == w)
            .expect("window present");
        assert_windows_identical(swapped, &reference, "2×2 post-swap");
    }
}

/// A greedy re-solve with an unchanged observation ring (no drift)
/// never fires and never swaps: the loop is inert on the traffic the
/// plan was built for, and the run is bit-identical to a
/// replan-disabled one.
#[test]
fn quiet_run_never_swaps_and_matches_replan_disabled_run() {
    let seed = 41;
    let wl = workload(DriftScenario::attack_onset());
    let (plan, rp) = plan_and_replanner(&wl, seed);
    let quiet = wl.training(seed);

    let obs = ObsHandle::enabled();
    let with_loop = Runtime::new(
        &plan,
        RuntimeConfig {
            obs: obs.clone(),
            replan: replan_cfg(rp),
            ..RuntimeConfig::default()
        },
    )
    .unwrap()
    .process_trace(&quiet)
    .unwrap();
    assert!(triggers(&obs).is_empty(), "no drift, no trigger");
    assert!(swaps(&obs).is_empty(), "no trigger, no swap");
    assert!(with_loop.windows.iter().all(|w| w.epoch == 0));

    let without_loop = Runtime::new(
        &plan,
        RuntimeConfig {
            obs: ObsHandle::enabled(),
            ..RuntimeConfig::default()
        },
    )
    .unwrap()
    .process_trace(&quiet)
    .unwrap();
    for (a, b) in with_loop.windows.iter().zip(&without_loop.windows) {
        assert_windows_identical(a, b, "armed-but-idle loop");
    }
}
