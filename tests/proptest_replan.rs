//! The DP planner against its MILP oracle (DESIGN.md §4 and §16).
//!
//! Production plans and re-plans with one solver: the per-query DP
//! with first-fit packing (`plan_with_costs`, behind
//! `Replanner::replan`). The paper's ILP (`plan_ilp`) is its oracle.
//! Across random small instances — a query set, traffic, a threshold,
//! switch constraints, and an observed-load drift that re-costs the
//! committed DP plan's catalog by 0.25× to 12× — the re-plan must
//! satisfy:
//!
//! * (a) each query planned alone: DP objective == MILP optimum, at
//!   the drawn constraints with every metadata budget of the set;
//! * (b) jointly: MILP ≤ DP, and the DP plan deploys and loads onto a
//!   switch under the drawn constraints;
//! * (c) DP == MILP whenever no query was degraded by another, i.e.
//!   the joint DP total equals the sum of the solo DP totals. When a
//!   query was degraded, the gap is printed with the instance
//!   (`--nocapture`); `first_fit_gap_is_pinned` pins one such gap.
//!
//! Plus the re-plan laws that are not about the MILP: the re-plan's
//! epoch is the committed epoch + 1, and at default constraints it
//! loads onto `SwitchConstraints::default()` at every factor.
//!
//! The vendored proptest does not shrink: a failure prints the seed
//! and every drawn input.

use proptest::prelude::*;
use sonata::ilp::SolveOptions;
use sonata::pisa::{Switch, SwitchConstraints};
use sonata::planner::costs::{estimate_costs, CostConfig, QueryCosts};
use sonata::planner::{plan_ilp, plan_with_costs, GlobalPlan, PlannerConfig, Replanner};
use sonata::query::catalog::{self, Thresholds};
use sonata::query::Query;
use sonata::stream::testsupport::seeded_packets;

/// Metadata budgets `M` the property draws from. The DP's misses —
/// a chain search blind to metadata, a chain that overflows it, and
/// the cross-query first-fit gap — sit at 128–256 bits, so those
/// values are listed explicitly rather than left to a uniform draw.
const METADATA_BITS: [u64; 8] = [64, 128, 200, 256, 512, 2_048, 8_192, 65_536];

/// Two refinement levels keep each MILP instance test-sized.
fn cfg(constraints: SwitchConstraints) -> PlannerConfig {
    PlannerConfig {
        constraints,
        cost: CostConfig {
            levels: Some(vec![8, 32]),
            ..Default::default()
        },
        max_delay: 3,
        ..Default::default()
    }
}

fn query_set(pick: u8, th: u64) -> Vec<Query> {
    let t = Thresholds {
        new_tcp: th,
        superspreader: th,
        ddos: th,
        ..Thresholds::default()
    };
    match pick % 3 {
        0 => vec![catalog::newly_opened_tcp_conns(&t)],
        1 => vec![
            catalog::newly_opened_tcp_conns(&t),
            catalog::superspreader(&t),
        ],
        _ => vec![catalog::superspreader(&t), catalog::ddos(&t)],
    }
}

fn milp(queries: &[Query], costs: &[QueryCosts], cfg: &PlannerConfig) -> GlobalPlan {
    plan_ilp(queries, costs, cfg, &SolveOptions::default()).unwrap()
}

fn dp(queries: &[Query], costs: &[QueryCosts], cfg: &PlannerConfig) -> GlobalPlan {
    plan_with_costs(queries, costs, cfg).unwrap()
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs()))
}

fn loads_onto(plan: &GlobalPlan, constraints: &SwitchConstraints) -> Result<(), String> {
    let deployment = sonata::core::driver::deploy(plan).map_err(|e| e.to_string())?;
    Switch::load(deployment.program, constraints)
        .map(|_| ())
        .map_err(|e| e.to_string())
}

/// Each query's chain: its levels with the units of each branch.
fn chains(plan: &GlobalPlan) -> Vec<Vec<(u8, Vec<usize>)>> {
    plan.queries
        .iter()
        .map(|qp| {
            qp.levels
                .iter()
                .map(|l| (l.level, l.branches.iter().map(|b| b.units).collect()))
                .collect()
        })
        .collect()
}

/// A replanner over `base` whose ring holds `factor`-scaled
/// observations of `committed`'s own per-query budget.
fn drifted(
    queries: &[Query],
    base: &[QueryCosts],
    cfg: PlannerConfig,
    committed: &GlobalPlan,
    factor: f64,
) -> Replanner {
    let mut rp = Replanner::new(queries, base.to_vec(), cfg, 3);
    let observed: Vec<_> = committed
        .budget()
        .per_query
        .iter()
        .map(|&(q, predicted)| (q, (predicted * factor) as u64 + 1))
        .collect();
    rp.observe_window(&observed);
    rp
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dp_replan_matches_the_milp_oracle(
        seed in 0u64..1_000,
        n in 80usize..240,
        pick in 0u8..3,
        th in 4u64..24,
        factor_q in 1u32..48,
        stages in 3usize..=16,
        stateful in 1usize..=8,
        bits_log in 0.0f64..1.0,
        meta in 0usize..METADATA_BITS.len(),
    ) {
        let factor = factor_q as f64 / 4.0; // 0.25× .. 12×
        // Register bits per stage, log-uniform over 2 000 .. 8 000 000.
        let bits = (2_000.0 * 4_000f64.powf(bits_log)) as u64;
        let constraints = SwitchConstraints {
            stages,
            stateful_per_stage: stateful,
            register_bits_per_stage: bits,
            max_bits_per_register: bits.min(SwitchConstraints::default().max_bits_per_register),
            metadata_bits: METADATA_BITS[meta],
            ..SwitchConstraints::default()
        };
        let cfg = cfg(constraints);
        let queries = query_set(pick, th);
        let window = seeded_packets(seed, n);
        let base: Vec<_> = queries
            .iter()
            .map(|q| estimate_costs(q, &[&window], &cfg.cost).unwrap())
            .collect();
        let committed = dp(&queries, &base, &cfg);
        let rp = drifted(&queries, &base, cfg.clone(), &committed, factor);
        let scaled = rp.recost(&rp.load_ratios(&committed));
        let replanned = rp.replan(&committed).unwrap().plan;
        prop_assert_eq!(replanned.epoch, committed.epoch + 1);

        // (a) Alone, the DP reaches the MILP optimum — at every `M` of
        // the set, since single-query instances are cheap to solve.
        let mut solo_sum = 0.0;
        for (q, c) in queries.iter().zip(&scaled) {
            let (q, c) = (std::slice::from_ref(q), std::slice::from_ref(c));
            for metadata_bits in METADATA_BITS {
                let cfg = PlannerConfig {
                    constraints: SwitchConstraints { metadata_bits, ..constraints },
                    ..cfg.clone()
                };
                let (d, m) = (dp(q, c, &cfg), milp(q, c, &cfg));
                prop_assert!(
                    close(d.predicted_tuples, m.predicted_tuples),
                    "(a) {} alone under {:?}: DP {} vs MILP {}",
                    q[0].name,
                    cfg.constraints,
                    d.predicted_tuples,
                    m.predicted_tuples
                );
                if metadata_bits == constraints.metadata_bits {
                    solo_sum += d.predicted_tuples;
                }
            }
        }

        // (b) Jointly, the MILP is a lower bound and the DP plan is
        // placeable.
        let joint = milp(&queries, &scaled, &cfg);
        let gap = replanned.predicted_tuples - joint.predicted_tuples;
        prop_assert!(
            gap >= -1e-6 * (1.0 + joint.predicted_tuples),
            "(b) under {constraints:?}: MILP {} above DP {}",
            joint.predicted_tuples,
            replanned.predicted_tuples
        );
        if let Err(e) = loads_onto(&replanned, &constraints) {
            prop_assert!(false, "(b) DP re-plan does not load under {constraints:?}: {e}");
        }

        // (c) Where no query degraded another, the DP is optimal.
        if close(replanned.predicted_tuples, solo_sum) {
            prop_assert!(
                close(replanned.predicted_tuples, joint.predicted_tuples),
                "(c) under {constraints:?}: DP {} vs MILP {} with no query degraded",
                replanned.predicted_tuples,
                joint.predicted_tuples
            );
        } else if !close(gap, 0.0) {
            eprintln!(
                "first-fit gap {gap:.3} (DP {:.3}, MILP {:.3}, solo sum {solo_sum:.3}): \
                 seed {seed}, n {n}, pick {pick}, th {th}, factor {factor}, {constraints:?}",
                replanned.predicted_tuples,
                joint.predicted_tuples
            );
        }

        // At default constraints the re-plan loads at every factor.
        let defaults = PlannerConfig { constraints: SwitchConstraints::default(), ..cfg };
        let committed = dp(&queries, &base, &defaults);
        let rp = drifted(&queries, &base, defaults, &committed, factor);
        let plan = rp.replan(&committed).unwrap().plan;
        prop_assert_eq!(plan.epoch, committed.epoch + 1);
        if let Err(e) = loads_onto(&plan, &SwitchConstraints::default()) {
            prop_assert!(false, "re-plan at factor {factor} does not load: {e}");
        }
    }
}

/// The known cross-query gap, pinned so a packing fix has to flip it
/// to equality. With `M` = 200 bits, first-fit gives `superspreader`
/// its full partition at /32, which spends the metadata budget, so
/// `ddos` degrades to nothing on the switch. The MILP refines both
/// through /8 and fits both.
#[test]
fn first_fit_gap_is_pinned() {
    let t = Thresholds {
        superspreader: 14,
        ddos: 14,
        ..Thresholds::default()
    };
    let queries = vec![catalog::superspreader(&t), catalog::ddos(&t)];
    let window = seeded_packets(10, 130);
    let cfg = cfg(SwitchConstraints {
        stages: 8,
        stateful_per_stage: 2,
        register_bits_per_stage: 20_000,
        max_bits_per_register: 20_000,
        metadata_bits: 200,
        ..SwitchConstraints::default()
    });
    let costs: Vec<_> = queries
        .iter()
        .map(|q| estimate_costs(q, &[&window], &cfg.cost).unwrap())
        .collect();
    // First-fit: superspreader takes 4 units at /32, ddos gets none.
    let greedy = dp(&queries, &costs, &cfg);
    assert_eq!(
        chains(&greedy),
        vec![vec![(32, vec![4])], vec![(32, vec![0])]]
    );
    assert!(
        close(greedy.predicted_tuples, 130.0),
        "{}",
        greedy.predicted_tuples
    );
    // The optimum: both refine through /8, 2 units there and 1 at /32.
    let optimum = milp(&queries, &costs, &cfg);
    let refined = vec![(8, vec![2]), (32, vec![1])];
    assert_eq!(chains(&optimum), vec![refined.clone(), refined]);
    assert!(
        close(optimum.predicted_tuples, 20.0),
        "{}",
        optimum.predicted_tuples
    );
}

/// One query whose chain overflows the metadata budget when each level
/// takes the largest partition that fits an empty switch: placement
/// would give /8 four units and leave /32 one. The chain search shares
/// the 200 bits out as 2 + 3 units instead (18 tuples), the MILP
/// optimum. The catalog is re-costed by 0.75, as a drift would.
#[test]
fn a_chain_shares_its_metadata_budget() {
    let queries = vec![catalog::ddos(&Thresholds {
        ddos: 4,
        ..Thresholds::default()
    })];
    let window = seeded_packets(889, 148);
    let cfg = cfg(SwitchConstraints {
        stages: 14,
        stateful_per_stage: 2,
        register_bits_per_stage: 2_327,
        max_bits_per_register: 2_327,
        metadata_bits: 200,
        ..SwitchConstraints::default()
    });
    let base = vec![estimate_costs(&queries[0], &[&window], &cfg.cost).unwrap()];
    let costs = Replanner::new(&queries, base, cfg.clone(), 3).recost(&[(queries[0].id, 0.75)]);
    let plan = dp(&queries, &costs, &cfg);
    assert_eq!(chains(&plan), vec![vec![(8, vec![2]), (32, vec![3])]]);
    let optimum = milp(&queries, &costs, &cfg);
    assert!(
        close(plan.predicted_tuples, optimum.predicted_tuples),
        "DP {} vs MILP {}",
        plan.predicted_tuples,
        optimum.predicted_tuples
    );
}
