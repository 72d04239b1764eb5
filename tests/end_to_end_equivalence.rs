//! Cross-crate invariant: partitioned execution (switch + stream
//! processor) must produce exactly the results of the in-memory
//! reference interpreter, for every baseline plan and every
//! unrefined catalog query — the paper's "partitioning without
//! compromising accuracy" claim (Section 3.1.3).

use sonata::prelude::*;
use sonata::query::interpret::run_query;
use sonata::query::Tuple;
use sonata::traffic::trace::EvaluationTrace;

fn evaluation_trace() -> Trace {
    EvaluationTrace::generate(11, 2, 3_000, 0.05).trace
}

fn plan_for(mode: PlanMode, queries: &[sonata::query::Query], tr: &Trace) -> GlobalPlan {
    let windows: Vec<&[sonata::packet::Packet]> = tr.windows(3_000).map(|(_, p)| p).collect();
    let cfg = PlannerConfig {
        mode,
        cost: sonata::planner::costs::CostConfig {
            levels: Some(vec![32]), // unrefined: single-window semantics
            ..Default::default()
        },
        ..PlannerConfig::default()
    };
    plan_queries(queries, &windows, &cfg).unwrap()
}

fn check_equivalence(mode: PlanMode, queries: Vec<sonata::query::Query>) {
    let tr = evaluation_trace();
    let plan = plan_for(mode, &queries, &tr);
    let mut rt = Runtime::new(&plan, RuntimeConfig::default()).unwrap();
    let report = rt.process_trace(&tr).unwrap();
    for q in &queries {
        for (wi, (w, packets)) in tr.windows(3_000).enumerate() {
            let expected = run_query(q, packets).unwrap();
            let got: Vec<Tuple> = report.windows[wi]
                .alerts
                .iter()
                .filter(|(id, _)| *id == q.id)
                .flat_map(|(_, t)| t.clone())
                .collect();
            assert_eq!(
                got, expected,
                "{mode} / {} / window {w}: partitioned != reference",
                q.name
            );
        }
    }
}

#[test]
fn allsp_matches_reference_for_top8() {
    check_equivalence(PlanMode::AllSp, catalog::top8(&Thresholds::default()));
}

#[test]
fn filterdp_matches_reference_for_top8() {
    check_equivalence(PlanMode::FilterDp, catalog::top8(&Thresholds::default()));
}

#[test]
fn maxdp_matches_reference_for_top8() {
    check_equivalence(PlanMode::MaxDp, catalog::top8(&Thresholds::default()));
}

#[test]
fn maxdp_matches_reference_for_payload_queries() {
    // Queries 9–11 need DNS fields or payloads: partitioned execution
    // must still agree (the switch forwards what it cannot parse).
    let t = Thresholds::default();
    check_equivalence(
        PlanMode::MaxDp,
        vec![
            catalog::dns_tunneling(&t),
            catalog::zorro(&t),
            catalog::dns_reflection(&t),
        ],
    );
}

#[test]
fn plan_cost_ordering_matches_the_paper() {
    // All-SP ≥ Filter-DP ≥ Max-DP in delivered tuples; Sonata ≤ Fix-REF.
    let tr = evaluation_trace();
    let queries = catalog::top8(&Thresholds::default());
    let windows: Vec<&[sonata::packet::Packet]> = tr.windows(3_000).map(|(_, p)| p).collect();
    let mut measured = std::collections::HashMap::new();
    for &mode in PlanMode::ALL {
        let cfg = PlannerConfig {
            mode,
            cost: sonata::planner::costs::CostConfig {
                levels: Some(vec![8, 16, 24, 32]),
                ..Default::default()
            },
            ..PlannerConfig::default()
        };
        let plan = plan_queries(&queries, &windows, &cfg).unwrap();
        let mut rt = Runtime::new(&plan, RuntimeConfig::default()).unwrap();
        let report = rt.process_trace(&tr).unwrap();
        measured.insert(mode, report.total_tuples());
    }
    assert!(measured[&PlanMode::AllSp] >= measured[&PlanMode::FilterDp]);
    assert!(measured[&PlanMode::FilterDp] >= measured[&PlanMode::MaxDp]);
    assert!(
        measured[&PlanMode::Sonata] <= measured[&PlanMode::AllSp] / 2,
        "Sonata {} vs All-SP {}",
        measured[&PlanMode::Sonata],
        measured[&PlanMode::AllSp]
    );
}
