//! Section 6.1, "Query planning": solver behavior on the joint
//! partitioning + refinement ILP.
//!
//! The paper notes that Gurobi finds near-optimal plans in 10–20
//! minutes but needs hours to prove optimality, so Sonata caps the
//! solver and takes the best feasible plan. This binary reproduces
//! that trade-off with our branch-and-bound MILP: it compares the ILP
//! optimum against the combinatorial (greedy + shortest-path) planner
//! on growing instances, and shows plan quality under shrinking node
//! budgets.

use sonata_bench::{write_csv, ExperimentCtx};
use sonata_ilp::SolveOptions;
use sonata_packet::Packet;
use sonata_planner::costs::{estimate_costs, CostConfig};
use sonata_planner::ilp_planner::instance_size;
use sonata_planner::{plan_ilp, plan_with_costs, PlannerConfig};
use sonata_query::catalog::{self, Thresholds};
use std::time::Instant;

fn main() {
    let ctx = ExperimentCtx::default();
    let trace = ctx.evaluation_trace();
    let windows: Vec<&[Packet]> = trace.windows(3_000).map(|(_, p)| p).collect();
    let queries = catalog::top8(&Thresholds::default());
    let cfg = PlannerConfig {
        cost: CostConfig {
            levels: Some(vec![8, 32]),
            ..Default::default()
        },
        max_delay: 3,
        ..PlannerConfig::default()
    };

    println!("# Section 6.1: ILP vs combinatorial planner");
    println!(
        "{:>7} | {:>6} | {:>10} | {:>10} | {:>8} | {:>8} | {:>6}",
        "queries", "vars", "ilp N/win", "greedy N", "ilp ms", "greedy µs", "nodes"
    );
    let mut rows = Vec::new();
    for n in 1..=4usize {
        let qs = &queries[..n];
        let costs: Vec<_> = qs
            .iter()
            .map(|q| estimate_costs(q, &windows, &cfg.cost).expect("estimable"))
            .collect();
        let (vars, _) = instance_size(&costs, cfg.constraints.stages);

        let t0 = Instant::now();
        let greedy = plan_with_costs(qs, &costs, &cfg).expect("greedy plan");
        let greedy_time = t0.elapsed();

        let t0 = Instant::now();
        let opts = SolveOptions {
            max_nodes: 50_000,
            time_limit: std::time::Duration::from_secs(120),
            ..Default::default()
        };
        let ilp = plan_ilp(qs, &costs, &cfg, &opts).expect("ilp plan");
        let ilp_time = t0.elapsed();

        println!(
            "{:>7} | {:>6} | {:>10.0} | {:>10.0} | {:>8.0} | {:>8.0} | {:>6}",
            n,
            vars,
            ilp.predicted_tuples,
            greedy.predicted_tuples,
            ilp_time.as_secs_f64() * 1000.0,
            greedy_time.as_secs_f64() * 1e6,
            "-"
        );
        rows.push(format!(
            "{n},{vars},{:.0},{:.0},{:.3},{:.3}",
            ilp.predicted_tuples,
            greedy.predicted_tuples,
            ilp_time.as_secs_f64() * 1000.0,
            greedy_time.as_secs_f64() * 1000.0
        ));
        // On these instances the DP planner reaches the ILP optimum.
        assert!(
            (ilp.predicted_tuples - greedy.predicted_tuples).abs()
                <= 1e-6 * (1.0 + greedy.predicted_tuples),
            "n={n}: ilp {} vs greedy {}",
            ilp.predicted_tuples,
            greedy.predicted_tuples
        );
    }
    write_csv(
        "solver_behavior.csv",
        "queries,vars,ilp_n,greedy_n,ilp_ms,greedy_ms",
        &rows,
    );

    // Budget sensitivity: tiny node caps still yield feasible plans —
    // the paper's "report the best (possibly sub-optimal) solution".
    let qs = &queries[..2];
    let costs: Vec<_> = qs
        .iter()
        .map(|q| estimate_costs(q, &windows, &cfg.cost).expect("estimable"))
        .collect();
    println!("\nnode budget | predicted N/win");
    let mut prev = f64::INFINITY;
    for nodes in [50usize, 200, 2_000, 50_000] {
        let opts = SolveOptions {
            max_nodes: nodes,
            time_limit: std::time::Duration::from_secs(120),
            ..Default::default()
        };
        match plan_ilp(qs, &costs, &cfg, &opts) {
            Ok(plan) => {
                println!("{nodes:>11} | {:.0}", plan.predicted_tuples);
                assert!(
                    plan.predicted_tuples <= prev + 1e-6 || nodes <= 200,
                    "bigger budgets must not hurt"
                );
                prev = plan.predicted_tuples;
            }
            Err(e) => println!("{nodes:>11} | no incumbent ({e})"),
        }
    }

    // The greedy planner must track the ILP closely (it is the default
    // for the large instances the ILP cannot chew).
    let greedy = plan_with_costs(qs, &costs, &cfg).expect("greedy");
    println!(
        "\n2-query optimum gap: greedy {:.0} vs ILP {:.0}",
        greedy.predicted_tuples, prev
    );
}
