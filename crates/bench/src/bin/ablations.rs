//! Ablations of Sonata's design choices (the DESIGN.md §5 list):
//!
//! 1. **d — register arrays per stateful operator**: more arrays cut
//!    collision shunts but multiply register memory; the sweep shows
//!    the accuracy/memory trade the paper's planner balances.
//! 2. **Relaxed thresholds at coarse levels** (Section 4.1): disabling
//!    relaxation keeps correctness but lets more benign prefixes
//!    survive coarse levels, inflating downstream load.
//! 3. **Refinement level set R**: the paper: "we consider a maximum of
//!    eight refinement levels … additional levels offered only
//!    marginal improvements."
//! 4. **Window size W**: shorter windows detect faster but pay the
//!    per-window update overhead more often (Section 6.1's W = 3 s
//!    balance).

use sonata_bench::{estimate_all, measure, write_csv, ExperimentCtx};
use sonata_core::{Runtime, RuntimeConfig};
use sonata_packet::Packet;
use sonata_planner::costs::CostConfig;
use sonata_planner::{plan_queries, PlanMode, PlannerConfig};
use sonata_query::catalog::{self, Thresholds};

fn main() {
    let ctx = ExperimentCtx::default();
    let trace = ctx.evaluation_trace();
    let queries = catalog::top8(&Thresholds::default());

    // ---- 1. d sweep -------------------------------------------------
    println!("# Ablation 1: register arrays d (8 queries, Sonata plan)");
    println!(
        "{:>2} | {:>10} | {:>8} | {:>12}",
        "d", "tuples→SP", "shunts", "reg bits"
    );
    let mut rows = Vec::new();
    let levels = vec![8u8, 16, 24, 32];
    let costs = estimate_all(&queries, &trace, &levels);
    for d in [1usize, 2, 4] {
        let cfg = PlannerConfig {
            d,
            cost: CostConfig {
                levels: Some(levels.clone()),
                ..Default::default()
            },
            ..PlannerConfig::default()
        };
        let run = measure(&queries, &costs, &trace, PlanMode::Sonata, &cfg);
        let shunts = run.report.total_shunts();
        // Register memory the deployed plan declares.
        let plan = sonata_planner::plan_with_costs(&queries, &costs, &cfg).unwrap();
        let deployed = sonata_core::driver::deploy(&plan).unwrap();
        let bits: u64 = deployed
            .program
            .registers
            .iter()
            .map(|r| r.total_bits())
            .sum();
        println!("{d:>2} | {:>10} | {:>8} | {:>12}", run.tuples, shunts, bits);
        rows.push(format!("{d},{},{shunts},{bits}", run.tuples));
    }
    write_csv("ablation_d.csv", "d,tuples,shunts,reg_bits", &rows);

    // ---- 2. threshold relaxation on/off ------------------------------
    println!("\n# Ablation 2: relaxed thresholds at coarse levels (Fix-REF chains)");
    println!("{:>9} | {:>10}", "relax", "tuples→SP");
    let mut rows = Vec::new();
    let mut measured = Vec::new();
    for relax in [true, false] {
        let cfg = PlannerConfig {
            mode: PlanMode::FixRef,
            cost: CostConfig {
                levels: Some(vec![8, 16, 24, 32]),
                relax_thresholds: relax,
                ..Default::default()
            },
            ..PlannerConfig::default()
        };
        // Re-estimate: relaxation changes the cost tables themselves.
        let windows: Vec<&[Packet]> = trace.windows(3_000).map(|(_, p)| p).collect();
        let plan = plan_queries(&queries, &windows, &cfg).unwrap();
        let mut rt = Runtime::new(&plan, RuntimeConfig::default()).unwrap();
        let report = rt.process_trace(&trace).unwrap();
        println!("{:>9} | {:>10}", relax, report.total_tuples());
        rows.push(format!("{relax},{}", report.total_tuples()));
        measured.push(report.total_tuples());
    }
    write_csv("ablation_relaxation.csv", "relax,tuples", &rows);
    assert!(
        measured[0] <= measured[1],
        "relaxation must not increase load: {} vs {}",
        measured[0],
        measured[1]
    );

    // ---- 3. refinement level sets ------------------------------------
    println!("\n# Ablation 3: candidate level sets R (Sonata plan)");
    println!("{:<22} | {:>10} | {:>6}", "R", "tuples→SP", "delay");
    let mut rows = Vec::new();
    let mut by_set = Vec::new();
    for (name, set) in [
        ("{32}", vec![32u8]),
        ("{16,32}", vec![16, 32]),
        ("{8,16,24,32}", vec![8, 16, 24, 32]),
        ("{4,8,...,32}", vec![4, 8, 12, 16, 20, 24, 28, 32]),
    ] {
        let cfg = PlannerConfig {
            cost: CostConfig {
                levels: Some(set.clone()),
                ..Default::default()
            },
            ..PlannerConfig::default()
        };
        let costs = estimate_all(&queries, &trace, &set);
        let run = measure(&queries, &costs, &trace, PlanMode::Sonata, &cfg);
        println!("{:<22} | {:>10} | {:>6}", name, run.tuples, run.delay);
        rows.push(format!("\"{name}\",{},{}", run.tuples, run.delay));
        by_set.push(run.tuples);
    }
    write_csv("ablation_levels.csv", "levels,tuples,delay", &rows);
    // Paper: additional levels offer only marginal improvements.
    let four = by_set[2] as f64;
    let eight = by_set[3] as f64;
    assert!(
        (eight - four).abs() / four.max(1.0) < 0.5,
        "8 levels vs 4 levels should be marginal: {four} vs {eight}"
    );

    // ---- 4. window size ----------------------------------------------
    println!("\n# Ablation 4: window size W (Query 1, Sonata plan)");
    println!(
        "{:>6} | {:>12} | {:>14} | {:>10}",
        "W (ms)", "tuples/win", "update/window", "% of W"
    );
    let mut rows = Vec::new();
    for window_ms in [1_000u64, 3_000, 10_000] {
        let q = catalog::newly_opened_tcp_conns(&Thresholds {
            window_ms,
            ..Thresholds::default()
        });
        let windows: Vec<&[Packet]> = trace.windows(window_ms).map(|(_, p)| p).collect();
        let cfg = PlannerConfig {
            cost: CostConfig {
                levels: Some(vec![8, 32]),
                ..Default::default()
            },
            ..PlannerConfig::default()
        };
        let plan = plan_queries(&[q], &windows, &cfg).unwrap();
        let mut rt = Runtime::new(&plan, RuntimeConfig::default()).unwrap();
        let report = rt.process_trace(&trace).unwrap();
        let per_win = report.total_tuples() as f64 / report.windows.len().max(1) as f64;
        let upd = report.total_update_latency().as_secs_f64() / report.windows.len().max(1) as f64;
        let frac = upd / (window_ms as f64 / 1000.0) * 100.0;
        println!(
            "{:>6} | {:>12.1} | {:>12.1}ms | {:>9.2}%",
            window_ms,
            per_win,
            upd * 1000.0,
            frac
        );
        rows.push(format!(
            "{window_ms},{per_win:.1},{:.3},{frac:.3}",
            upd * 1000.0
        ));
    }
    write_csv(
        "ablation_window.csv",
        "window_ms,tuples_per_window,update_ms,update_pct",
        &rows,
    );
    println!("\nablation checks passed");
}
