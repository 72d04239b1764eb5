//! Differential suite for the approximate register layouts
//! (`sonata-sketch`).
//!
//! Two contracts:
//!
//! * **The knob is off-path.** `RuntimeConfig::sketch` with
//!   `StateLayout::Exact` produces *bit-identical* `WindowReport`s to
//!   a default run, across the catalog, seeds, shard counts, and
//!   transports. Exact runs carry no error bounds at all.
//! * **Approximation stays inside its advertised bound.** Under
//!   `StateLayout::CountMin`, every reported aggregate is an
//!   overestimate of the exact run's value by at most the declared
//!   `⌈ε·mass⌉` slack (ε and mass read off the window's
//!   [`ErrorBoundReport`]), alert key sets are supersets of the exact
//!   run's, and spurious alerts can only sit within one slack of the
//!   threshold.
//!
//! A third check sizes the catalog's switch state both ways: at ε = 5 %
//! the sketch layouts pack at least twice as many queries into a fixed
//! register budget as exact sizing does (the memory wall of the paper's
//! Figure 8c, measured on the planner's estimates).
//!
//! Seeds come from `SONATA_SKETCH_SEEDS` (comma-separated, default
//! `7,23,101`).

use sonata::planner::costs::estimate_costs;
use sonata::prelude::*;
use sonata::query::Query;
use sonata::stream::testsupport::{low_thresholds, seeded_packets};
use sonata::traffic::trace::EvaluationTrace;
use std::collections::BTreeMap;

const WINDOW_NS: u64 = 3_000_000_000;

fn seeds() -> Vec<u64> {
    std::env::var("SONATA_SKETCH_SEEDS")
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

/// The sketch knob with its layout family named `Exact` explicitly.
fn explicit_exact() -> SketchConfig {
    SketchConfig {
        layout: StateLayout::Exact,
    }
}

fn run(plan: &GlobalPlan, tr: &Trace, cfg: RuntimeConfig) -> TelemetryReport {
    let mut rt = Runtime::new(plan, cfg).unwrap();
    rt.process_trace(tr).unwrap()
}

fn run_fabric(plan: &GlobalPlan, tr: &Trace, cfg: RuntimeConfig) -> TelemetryReport {
    let mut fab = Fabric::new(plan, cfg).unwrap();
    fab.process_trace(tr).unwrap()
}

/// Alert tuples of one query keyed by group key (every catalog alert
/// shape is `(key, aggregate)`): key = all columns but the last,
/// value = the trailing aggregate.
fn alert_map(report: &WindowReport, q: QueryId) -> BTreeMap<Vec<sonata::packet::Value>, u64> {
    let mut out = BTreeMap::new();
    for (query, tuples) in &report.alerts {
        if *query != q {
            continue;
        }
        for t in tuples {
            let vals = t.values();
            let (key, agg) = vals.split_at(vals.len() - 1);
            let v = match &agg[0] {
                sonata::packet::Value::U64(v) => *v,
                other => panic!("trailing aggregate is numeric, got {other:?}"),
            };
            out.insert(key.to_vec(), v);
        }
    }
    out
}

/// The off-path contract: an explicit `Exact` sketch config is a
/// byte-level no-op across the catalog, seeds, worker counts, and both
/// transports, and no window carries error bounds.
#[test]
fn exact_layout_knob_is_bit_identical() {
    let t = low_thresholds();
    let queries = vec![
        catalog::newly_opened_tcp_conns(&t),
        catalog::superspreader(&t),
    ];
    for seed in seeds() {
        let tr = trace(3, seed);
        let plan = plan_for(PlanMode::Sonata, &queries, &tr);
        for workers in [1usize, 2, 4, 8] {
            let baseline = run(
                &plan,
                &tr,
                RuntimeConfig {
                    workers,
                    ..RuntimeConfig::default()
                },
            );
            let knobbed = run(
                &plan,
                &tr,
                RuntimeConfig {
                    workers,
                    sketch: explicit_exact(),
                    ..RuntimeConfig::default()
                },
            );
            assert_eq!(
                baseline.windows, knobbed.windows,
                "seed {seed}, {workers} workers: exact sketch knob must be a no-op"
            );
            assert!(
                knobbed.windows.iter().all(|w| w.error_bounds.is_empty()),
                "seed {seed}: exact runs must not report error bounds"
            );
        }
        let tcp_baseline = run(
            &plan,
            &tr,
            RuntimeConfig {
                transport: TransportKind::Tcp,
                ..RuntimeConfig::default()
            },
        );
        let tcp_knobbed = run(
            &plan,
            &tr,
            RuntimeConfig {
                transport: TransportKind::Tcp,
                sketch: explicit_exact(),
                ..RuntimeConfig::default()
            },
        );
        assert_eq!(
            tcp_baseline.windows, tcp_knobbed.windows,
            "seed {seed}: exact sketch knob must be a no-op over TCP"
        );
    }
}

/// The full catalog loads and runs under every sketch family: layouts
/// are per-register semantics-gated (distinct → Bloom/HLL, cm-capable
/// reduce → count-min), so arbitrary query shapes must never wedge a
/// load or a window.
#[test]
fn every_family_runs_the_catalog() {
    let tr = trace(2, seeds()[0]);
    let queries = catalog::all(&Thresholds::default());
    let plan = plan_for(PlanMode::MaxDp, &queries, &tr);
    for layout in [StateLayout::CountMin, StateLayout::Bloom, StateLayout::Hll] {
        let report = run(
            &plan,
            &tr,
            RuntimeConfig {
                sketch: SketchConfig { layout },
                ..RuntimeConfig::default()
            },
        );
        assert_eq!(report.windows.len(), 2, "{layout:?}: windows completed");
        for w in &report.windows {
            for b in &w.error_bounds {
                assert!(
                    b.epsilon > 0.0 && b.epsilon < 1.0,
                    "{layout:?}: ε in (0,1), got {}",
                    b.epsilon
                );
                assert!((0.0..1.0).contains(&b.delta), "{layout:?}: δ in [0,1)");
            }
        }
    }
}

/// The accuracy contract for count-min: per window and per query,
/// sketch aggregates only ever overestimate, by at most the window's
/// declared `⌈ε·mass⌉`; alert key sets are supersets of exact; and
/// any extra (spurious) alert's value stays within one slack of the
/// alert threshold.
#[test]
fn count_min_alerts_overestimate_within_declared_bound() {
    let t = low_thresholds();
    let queries = vec![catalog::newly_opened_tcp_conns(&t)];
    let qid = queries[0].id;
    let threshold = t.new_tcp;
    for seed in seeds() {
        let tr = trace(3, seed);
        let plan = plan_for(PlanMode::MaxDp, &queries, &tr);
        let exact = run(&plan, &tr, RuntimeConfig::default());
        let sketch = run(
            &plan,
            &tr,
            RuntimeConfig {
                sketch: SketchConfig {
                    layout: StateLayout::CountMin,
                },
                ..RuntimeConfig::default()
            },
        );
        assert_eq!(exact.windows.len(), sketch.windows.len());
        let mut bounded_windows = 0;
        for (we, ws) in exact.windows.iter().zip(&sketch.windows) {
            let Some(bound) = ws.error_bounds.iter().find(|b| b.query == qid) else {
                // A window whose switch partition held no sketch
                // register (e.g. the level ran all-SP) is exact.
                assert_eq!(we.alerts, ws.alerts, "seed {seed} window {}", we.window);
                continue;
            };
            bounded_windows += 1;
            assert!(!bound.saturated, "seed {seed}: test trace fits capacity");
            let slack = (bound.epsilon * bound.mass as f64).ceil() as u64;
            let ea = alert_map(we, qid);
            let sa = alert_map(ws, qid);
            for (key, &true_v) in &ea {
                let est = *sa.get(key).unwrap_or_else(|| {
                    panic!(
                        "seed {seed} window {}: exact alert {key:?} missing under count-min",
                        we.window
                    )
                });
                assert!(
                    est >= true_v,
                    "seed {seed} window {}: count-min undercounted {key:?}: {est} < {true_v}",
                    we.window
                );
                assert!(
                    est - true_v <= slack,
                    "seed {seed} window {}: overshoot {} exceeds ⌈ε·mass⌉ = {slack}",
                    we.window,
                    est - true_v
                );
            }
            for (key, &est) in &sa {
                if !ea.contains_key(key) {
                    // Spurious alert: its true value is under the
                    // threshold, so the estimate can exceed the
                    // threshold by at most the slack.
                    assert!(
                        est <= threshold + slack,
                        "seed {seed} window {}: spurious alert {key:?} at {est} \
                         exceeds threshold {threshold} + slack {slack}",
                        we.window
                    );
                }
            }
        }
        assert!(
            bounded_windows > 0,
            "seed {seed}: at least one window must exercise a count-min register"
        );
    }
}

/// Bloom admission for distinct queries: membership has zero false
/// negatives, so a Bloom false positive can only *suppress* a
/// first-touch — sketch distinct counts never exceed exact ones, and
/// sketch alerts are a subset of exact alerts with per-key values
/// bounded above by the exact value.
#[test]
fn bloom_distinct_never_overcounts() {
    let t = low_thresholds();
    let queries = vec![catalog::superspreader(&t)];
    let qid = queries[0].id;
    for seed in seeds() {
        let tr = trace(3, seed);
        let plan = plan_for(PlanMode::MaxDp, &queries, &tr);
        let exact = run(&plan, &tr, RuntimeConfig::default());
        let sketch = run(
            &plan,
            &tr,
            RuntimeConfig {
                sketch: SketchConfig {
                    layout: StateLayout::Bloom,
                },
                ..RuntimeConfig::default()
            },
        );
        for (we, ws) in exact.windows.iter().zip(&sketch.windows) {
            let ea = alert_map(we, qid);
            let sa = alert_map(ws, qid);
            for (key, &est) in &sa {
                let &true_v = ea.get(key).unwrap_or_else(|| {
                    panic!(
                        "seed {seed} window {}: Bloom distinct invented alert {key:?}",
                        we.window
                    )
                });
                assert!(
                    est <= true_v,
                    "seed {seed} window {}: Bloom distinct overcounted {key:?}",
                    we.window
                );
            }
        }
    }
}

/// Sketch layouts survive the fabric: an exact-knob fabric run stays
/// bit-identical to the default fabric run, and a count-min fabric
/// run folds per-switch bounds into the merged report (masses add
/// across switches, ε is preserved).
#[test]
fn fabric_folds_bounds_across_switches() {
    let t = low_thresholds();
    let queries = vec![catalog::newly_opened_tcp_conns(&t)];
    let qid = queries[0].id;
    let seed = seeds()[0];
    let tr = trace(3, seed);
    let plan = plan_for(PlanMode::MaxDp, &queries, &tr);
    for (n, m) in [(2usize, 1usize), (2, 2)] {
        let base = run_fabric(
            &plan,
            &tr,
            RuntimeConfig {
                topology: Some(TopologyConfig::new(n, m)),
                ..RuntimeConfig::default()
            },
        );
        let knobbed = run_fabric(
            &plan,
            &tr,
            RuntimeConfig {
                topology: Some(TopologyConfig::new(n, m)),
                sketch: explicit_exact(),
                ..RuntimeConfig::default()
            },
        );
        assert_eq!(
            base.windows, knobbed.windows,
            "{n}x{m}: exact sketch knob must be a no-op on the fabric"
        );
        let single = run(
            &plan,
            &tr,
            RuntimeConfig {
                sketch: SketchConfig {
                    layout: StateLayout::CountMin,
                },
                ..RuntimeConfig::default()
            },
        );
        let fabric = run_fabric(
            &plan,
            &tr,
            RuntimeConfig {
                topology: Some(TopologyConfig::new(n, m)),
                sketch: SketchConfig {
                    layout: StateLayout::CountMin,
                },
                ..RuntimeConfig::default()
            },
        );
        for (sw, fw) in single.windows.iter().zip(&fabric.windows) {
            let sb = sw.error_bounds.iter().find(|b| b.query == qid);
            let fb = fw.error_bounds.iter().find(|b| b.query == qid);
            match (sb, fb) {
                (Some(sb), Some(fb)) => {
                    // Same plan ⇒ same declared shape ⇒ same ε/δ; the
                    // union stream is split across switches, so the
                    // folded mass equals the single-switch mass.
                    assert_eq!(sb.epsilon, fb.epsilon, "{n}x{m} window {}", sw.window);
                    assert_eq!(sb.delta, fb.delta, "{n}x{m} window {}", sw.window);
                    assert_eq!(sb.mass, fb.mass, "{n}x{m} window {}", sw.window);
                }
                (None, None) => {}
                other => panic!(
                    "{n}x{m} window {}: bound presence diverged between \
                     single-switch and fabric: {other:?}",
                    sw.window
                ),
            }
        }
    }
}

/// Register-budget packing: size every catalog query's finest-level
/// switch state from its trace-estimated key counts (headroom 1.5,
/// d = 2), exactly and under the ε = δ = 5 % sketch policy, then pack
/// queries greedily, in catalog order, into 300 Kb of register SRAM.
/// The sketch layouts must fit at least twice as many. The input is
/// the evaluation trace at scale 0.3; on this trace exact sizing fits
/// 2 queries and sketches fit 5 (at scale 0.05 the exact sizes shrink
/// and exact sizing fits 5 against the sketches' 9).
#[test]
fn sketch_layouts_pack_twice_the_queries_into_a_register_budget() {
    let tr = EvaluationTrace::generate(1, 3, 3_000, 0.3).trace;
    let windows: Vec<&[sonata::packet::Packet]> = tr.windows(3_000).map(|(_, p)| p).collect();
    let cfg = CostConfig {
        levels: Some(vec![32]),
        ..Default::default()
    };
    let costs: Vec<_> = catalog::all(&Thresholds::default())
        .iter()
        .map(|q| estimate_costs(q, &windows, &cfg).unwrap())
        .collect();
    let query_bits = |policy: &SketchPolicy| -> Vec<u64> {
        costs
            .iter()
            .map(|qc| {
                let t = qc
                    .transitions
                    .get(&(None, qc.finest))
                    .or_else(|| qc.transitions.values().next())
                    .expect("estimated transition");
                t.branches
                    .iter()
                    .flat_map(|bc| {
                        (0..bc.keys.len()).map(|i| bc.register_bits_with(i, 1.5, 2, policy))
                    })
                    .sum()
            })
            .collect()
    };
    let budget = 300_000u64;
    // Queries without stateful switch state fit any budget vacuously;
    // leave them out so the packing counts real state.
    let pack = |bits: Vec<u64>| {
        let (mut used, mut fit) = (0u64, 0usize);
        for b in bits.into_iter().filter(|&b| b > 0) {
            if used + b <= budget {
                used += b;
                fit += 1;
            }
        }
        fit
    };
    let fit_exact = pack(query_bits(&SketchPolicy::default()));
    let fit_sketch = pack(query_bits(&SketchPolicy {
        enabled: true,
        epsilon: 0.05,
        delta: 0.05,
    }));
    assert!(fit_exact >= 1, "the budget must admit an exact query");
    assert!(
        fit_sketch >= 2 * fit_exact,
        "sketch layouts must fit ≥ 2× the queries of exact sizing \
         (exact {fit_exact}, sketch {fit_sketch})"
    );
}
