//! Differential suite for the compiled fast paths.
//!
//! Each side of the wire has one compile-once/execute-many layer: the
//! switch lowers its loaded IR into task-major batch kernels, run over
//! each window's packets read in place, and the stream processor
//! binds each registered query into a fused `BoundPipeline`. Both are
//! pure performance work — the contract is that a default run (fast
//! paths on) produces *bit-identical* `WindowReport`s to a run with
//! `oracle: true` (the tree-walking interpreters, the
//! switch's fed one packet at a time and shipping one report frame per
//! report instead of report blocks), across the query catalog, across
//! plan modes, across seeds, across shard counts, over TCP, under
//! fault injection, and with sketched register state.
//!
//! Seeds come from `SONATA_FASTPATH_SEEDS` (comma-separated, default
//! `7,23,101`).

use sonata::core::{GateAhead, SLICE_PACKETS};
use sonata::prelude::*;
use sonata::query::Query;
use sonata::stream::testsupport::{low_thresholds, seeded_packets};
use sonata::traffic::trace::EvaluationTrace;

const WINDOW_NS: u64 = 3_000_000_000;

fn seeds() -> Vec<u64> {
    std::env::var("SONATA_FASTPATH_SEEDS")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .collect::<Vec<u64>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![7, 23, 101])
}

/// A deterministic multi-window trace: one `testsupport` mixed window
/// per 3-second slot, re-seeded per slot so windows differ.
fn trace(windows: u64, seed: u64) -> Trace {
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

fn plan_for(mode: PlanMode, queries: &[Query], tr: &Trace) -> GlobalPlan {
    let windows: Vec<&[sonata::packet::Packet]> = tr.windows(3_000).map(|(_, p)| p).collect();
    let cfg = PlannerConfig {
        mode,
        cost: sonata::planner::costs::CostConfig {
            levels: Some(vec![8, 32]),
            ..Default::default()
        },
        ..PlannerConfig::default()
    };
    plan_queries(queries, &windows, &cfg).unwrap()
}

fn config(
    oracle: bool,
    transport: TransportKind,
    workers: usize,
    faults: FaultPlan,
) -> RuntimeConfig {
    RuntimeConfig {
        oracle,
        transport,
        workers,
        faults,
        ..RuntimeConfig::default()
    }
}

fn run(plan: &GlobalPlan, tr: &Trace, cfg: RuntimeConfig) -> TelemetryReport {
    let mut rt = Runtime::new(plan, cfg).unwrap();
    rt.process_trace(tr).unwrap()
}

/// Fast vs. reference over the full eleven-query catalog (the paper's
/// Table 3), per plan mode, on the evaluation trace. This is the
/// widest query-shape coverage: every operator combination the
/// catalog can express crosses both the switch ExecPlan and the
/// stream BoundPipeline here.
#[test]
fn fast_path_is_bit_identical_across_catalog_and_plan_modes() {
    let tr = EvaluationTrace::generate(11, 2, 3_000, 0.05).trace;
    let queries = catalog::all(&Thresholds::default());
    for mode in [PlanMode::AllSp, PlanMode::FilterDp, PlanMode::MaxDp] {
        let plan = plan_for(mode, &queries, &tr);
        let fast = run(
            &plan,
            &tr,
            config(false, TransportKind::Loopback, 1, FaultPlan::none()),
        );
        let reference = run(
            &plan,
            &tr,
            config(true, TransportKind::Loopback, 1, FaultPlan::none()),
        );
        assert_eq!(
            fast.windows, reference.windows,
            "{mode:?}: fast path diverged from reference interpreters"
        );
    }
}

/// Refined (multi-level) Sonata plans exercise dynamic-filter updates
/// mid-run: the compiled switch plan reads live filter entries and
/// the bound stream pipelines see rewritten InSet predicates, so both
/// must track control-plane changes identically to the reference.
#[test]
fn fast_path_matches_reference_on_refined_plans_across_seeds() {
    let t = low_thresholds();
    let queries = vec![
        catalog::newly_opened_tcp_conns(&t),
        catalog::superspreader(&t),
    ];
    for seed in seeds() {
        let tr = trace(3, seed);
        let plan = plan_for(PlanMode::Sonata, &queries, &tr);
        let fast = run(
            &plan,
            &tr,
            config(false, TransportKind::Loopback, 1, FaultPlan::none()),
        );
        let reference = run(
            &plan,
            &tr,
            config(true, TransportKind::Loopback, 1, FaultPlan::none()),
        );
        assert_eq!(
            fast.windows, reference.windows,
            "seed {seed}: refined fast path diverged from reference"
        );
    }
}

/// Every worker count runs the jobs on the job pool; the force flag
/// must reach each job's executor (including respawned ones), and fast
/// output must equal reference output at every width.
#[test]
fn fast_path_matches_reference_at_every_shard_count() {
    let seed = seeds()[0];
    let tr = trace(2, seed);
    let t = low_thresholds();
    let queries = vec![
        catalog::newly_opened_tcp_conns(&t),
        catalog::superspreader(&t),
    ];
    let plan = plan_for(PlanMode::Sonata, &queries, &tr);
    for workers in [1usize, 2, 4, 8] {
        let fast = run(
            &plan,
            &tr,
            config(false, TransportKind::Loopback, workers, FaultPlan::none()),
        );
        let reference = run(
            &plan,
            &tr,
            config(true, TransportKind::Loopback, workers, FaultPlan::none()),
        );
        assert_eq!(
            fast.windows, reference.windows,
            "{workers} workers: fast path diverged from reference"
        );
    }
}

/// All-SP top-8 windows send the stream processor eleven rows per
/// packet, well over the job pool's fan-out floor, so this sweep runs
/// a window's jobs side by side — the sonata_engine_parallel_windows_total
/// counter proves it — and every width must equal the reference. From
/// two workers on, jobs homed on a helper take in their rows while the
/// switch is still running, and the engine counts them.
#[test]
fn fast_path_matches_reference_when_windows_fan_out() {
    let tr = EvaluationTrace::generate(11, 2, 3_000, 0.01).trace;
    let queries = catalog::top8(&Thresholds::default());
    let plan = plan_for(PlanMode::AllSp, &queries, &tr);
    let loopback = |reference, workers| {
        config(
            reference,
            TransportKind::Loopback,
            workers,
            FaultPlan::none(),
        )
    };
    let reference = run(&plan, &tr, loopback(true, 1));
    for workers in [1usize, 2, 4, 8] {
        let mut rt = Runtime::new(&plan, loopback(false, workers)).unwrap();
        let fast = rt.process_trace(&tr).unwrap();
        assert_eq!(
            fast.windows, reference.windows,
            "{workers} workers: fanned-out fast path diverged from reference"
        );
        let fed = rt.engine_counters().tuples_fed_mid_window;
        assert_eq!(fed > 0, workers > 1, "{workers} workers: {fed} tuples fed");
    }
    let obs = ObsHandle::enabled();
    let traced = run(
        &plan,
        &tr,
        RuntimeConfig {
            obs,
            ..loopback(false, 2)
        },
    );
    let fanned = traced
        .metrics
        .counter("sonata_engine_parallel_windows_total");
    assert!(fanned.unwrap_or(0) > 0, "no window fanned out: {fanned:?}");
}

/// Sonata and Max-DP top-8 windows carry thousands of packets and too
/// few tuples for the job pool to stream, so from two workers on a
/// switch gates its share's slices on a second thread, ahead of the
/// kernels it runs on its own (`Fabric::gate_ahead` counts the slices
/// that thread gated). Every width must equal the reference, and at
/// `workers: 1` no gate thread is spawned.
#[test]
fn fast_path_matches_reference_when_slices_are_gated_ahead() {
    let tr = EvaluationTrace::generate(11, 3, 3_000, 0.05).trace;
    let sizes: Vec<usize> = tr.windows(3_000).map(|(_, p)| p.len()).collect();
    // Two slices a window at least, past the first window, whose gate
    // time the split is decided on.
    assert!(
        sizes[1..].iter().all(|&n| n > 2 * SLICE_PACKETS),
        "{sizes:?}"
    );
    let queries = catalog::top8(&Thresholds::default());
    let loopback = |reference, workers| {
        config(
            reference,
            TransportKind::Loopback,
            workers,
            FaultPlan::none(),
        )
    };
    for mode in [PlanMode::Sonata, PlanMode::MaxDp] {
        let plan = plan_for(mode, &queries, &tr);
        let reference = run(&plan, &tr, loopback(true, 1));
        for workers in [1usize, 2, 4, 8] {
            let mut rt = Runtime::new(&plan, loopback(false, workers)).unwrap();
            let fast = rt.process_trace(&tr).unwrap();
            assert_eq!(
                fast.windows, reference.windows,
                "{mode:?}, {workers} workers: gated-ahead fast path diverged from reference"
            );
            let ahead = rt.gate_ahead();
            if workers == 1 {
                assert_eq!(
                    ahead,
                    GateAhead::default(),
                    "{mode:?}: a gate thread at 1 worker"
                );
            } else {
                assert!(ahead.slices > 0, "{mode:?}, {workers} workers: {ahead:?}");
            }
        }
    }
}

/// The wire must not care which execution engine feeds it: a TCP run
/// on the fast path equals a TCP run on the reference path.
#[test]
fn fast_path_matches_reference_over_tcp() {
    let seed = seeds()[0];
    let tr = trace(3, seed);
    let t = low_thresholds();
    let queries = vec![
        catalog::newly_opened_tcp_conns(&t),
        catalog::superspreader(&t),
    ];
    let plan = plan_for(PlanMode::Sonata, &queries, &tr);
    let fast = run(
        &plan,
        &tr,
        config(false, TransportKind::Tcp, 1, FaultPlan::none()),
    );
    let reference = run(
        &plan,
        &tr,
        config(true, TransportKind::Tcp, 1, FaultPlan::none()),
    );
    assert_eq!(
        fast.windows, reference.windows,
        "fast path over TCP diverged from reference over TCP"
    );
}

/// Fault injection is seeded per `(seed, window, site)` and must be
/// orthogonal to the execution engine: a faulted fast run equals a
/// faulted reference run, verdict for verdict, degraded marker for
/// degraded marker.
#[test]
fn faulted_runs_are_identical_on_both_paths() {
    let t = low_thresholds();
    let queries = vec![
        catalog::newly_opened_tcp_conns(&t),
        catalog::superspreader(&t),
    ];
    for seed in seeds() {
        let tr = trace(3, seed);
        // All-SP plans mirror every packet, so the egress actually
        // carries per-packet reports to fault.
        let plan = plan_for(PlanMode::AllSp, &queries, &tr);
        let faults = FaultPlan {
            seed,
            report: ReportFaults {
                drop_per_mille: 150,
                duplicate_per_mille: 150,
                delay_per_mille: 150,
                reorder_per_mille: 100,
                delay_packets: 6,
            },
            ..FaultPlan::default()
        };
        for workers in [1usize, 2] {
            let fast = run(
                &plan,
                &tr,
                config(false, TransportKind::Loopback, workers, faults),
            );
            let reference = run(
                &plan,
                &tr,
                config(true, TransportKind::Loopback, workers, faults),
            );
            assert!(
                fast.total_faults().get(FaultKind::ReportDrop) > 0,
                "seed {seed}: the plan must actually inject"
            );
            assert_eq!(
                fast.windows, reference.windows,
                "seed {seed}, {workers} workers: faulted fast path diverged from faulted reference"
            );
        }
    }
}

/// Payload-bearing queries (DNS tunneling, Zorro, DNS reflection) use
/// text values and multi-column group keys — the shapes that push the
/// stream fast path off its scalar `u64` reduce representation and
/// the switch toward forwarding unparsable work. Both must still
/// agree with the reference bit-for-bit.
#[test]
fn fast_path_matches_reference_for_payload_queries() {
    let t = Thresholds::default();
    let queries = vec![
        catalog::dns_tunneling(&t),
        catalog::zorro(&t),
        catalog::dns_reflection(&t),
    ];
    let tr = EvaluationTrace::generate(11, 2, 3_000, 0.05).trace;
    let plan = plan_for(PlanMode::MaxDp, &queries, &tr);
    let fast = run(
        &plan,
        &tr,
        config(false, TransportKind::Loopback, 1, FaultPlan::none()),
    );
    let reference = run(
        &plan,
        &tr,
        config(true, TransportKind::Loopback, 1, FaultPlan::none()),
    );
    assert_eq!(
        fast.windows, reference.windows,
        "payload-query fast path diverged from reference"
    );
}

/// Sketched register state (count-min / Bloom layouts) hashes the same
/// keys in the same order on both paths; a sketched fast run must
/// equal a sketched reference run exactly.
#[test]
fn sketched_runs_are_identical_on_both_paths() {
    let seed = seeds()[0];
    let tr = trace(2, seed);
    let t = low_thresholds();
    let queries = vec![
        catalog::newly_opened_tcp_conns(&t),
        catalog::superspreader(&t),
    ];
    let plan = plan_for(PlanMode::Sonata, &queries, &tr);
    let sketched = |oracle| RuntimeConfig {
        sketch: SketchConfig {
            layout: StateLayout::CountMin,
        },
        ..config(oracle, TransportKind::Loopback, 1, FaultPlan::none())
    };
    let fast = run(&plan, &tr, sketched(false));
    let reference = run(&plan, &tr, sketched(true));
    assert_eq!(
        fast.windows, reference.windows,
        "sketched fast path diverged from sketched reference"
    );
}
