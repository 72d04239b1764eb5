//! Section 6.2, "Overhead of dynamic refinement": the control-plane
//! cost of the per-window updates. The paper's Tofino micro-benchmarks
//! measure ≈127 ms to update 200 filter-table entries and ≈4 ms to
//! reset registers — ≈131 ms total, about 5 % of the 3-second window.
//!
//! This binary reproduces the numbers from the calibrated cost model
//! and then measures the update sizes an actual 8-query run generates.

use sonata_bench::{estimate_all, measure, write_csv, ExperimentCtx};
use sonata_pisa::control::{ControlOp, UpdateCostModel};
use sonata_planner::costs::CostConfig;
use sonata_planner::{PlanMode, PlannerConfig};
use sonata_query::catalog::{self, Thresholds};
use std::collections::BTreeSet;

fn main() {
    let model = UpdateCostModel::default();
    println!("# Section 6.2: dynamic-refinement update overhead");
    println!(
        "{:>8} | {:>12} | {:>10}",
        "entries", "latency (ms)", "% of W=3s"
    );
    let mut rows = Vec::new();
    for entries in [0usize, 25, 50, 100, 200, 400] {
        let set: BTreeSet<u64> = (0..entries as u64).collect();
        let latency = model.cost_of(&ControlOp::SetDynFilter {
            table: "t".into(),
            entries: set,
        }) + model.cost_of(&ControlOp::ResetRegisters);
        let frac = latency.as_secs_f64() / 3.0 * 100.0;
        println!(
            "{:>8} | {:>12.1} | {:>9.2}%",
            entries,
            latency.as_secs_f64() * 1000.0,
            frac
        );
        rows.push(format!(
            "{},{:.3},{:.3}",
            entries,
            latency.as_secs_f64() * 1000.0,
            frac
        ));
    }
    write_csv(
        "update_overhead_model.csv",
        "entries,latency_ms,pct_of_window",
        &rows,
    );

    // The paper's headline numbers.
    let paper = model.cost_of(&ControlOp::SetDynFilter {
        table: "t".into(),
        entries: (0..200u64).collect(),
    }) + model.cost_of(&ControlOp::ResetRegisters);
    let ms = paper.as_secs_f64() * 1000.0;
    println!("\n200 entries + register reset: {ms:.0} ms (paper: ≈131 ms)");
    assert!((125.0..140.0).contains(&ms));
    let frac = paper.as_secs_f64() / 3.0;
    assert!(
        (0.03..0.06).contains(&frac),
        "≈5% of the window, got {frac:.3}"
    );

    // Measured update sizes for a real 8-query Sonata run.
    let ctx = ExperimentCtx::default();
    let trace = ctx.evaluation_trace();
    let queries = catalog::top8(&Thresholds::default());
    let levels = vec![8u8, 16, 24, 32];
    let costs = estimate_all(&queries, &trace, &levels);
    let cfg = PlannerConfig {
        cost: CostConfig {
            levels: Some(levels),
            ..Default::default()
        },
        ..PlannerConfig::default()
    };
    let run = measure(&queries, &costs, &trace, PlanMode::Sonata, &cfg);
    let mut rows = Vec::new();
    println!("\nwindow | filter entries written | update latency");
    for w in &run.report.windows {
        println!(
            "{:>6} | {:>22} | {:?}",
            w.window, w.filter_entries_written, w.update_latency
        );
        rows.push(format!(
            "{},{},{:.3}",
            w.window,
            w.filter_entries_written,
            w.update_latency.as_secs_f64() * 1000.0
        ));
        // Updates must stay well under the window (no missed windows).
        assert!(w.update_latency.as_secs_f64() < 0.5 * 3.0);
    }
    write_csv(
        "update_overhead_measured.csv",
        "window,entries,latency_ms",
        &rows,
    );
    println!(
        "\ntotal update latency across run: {:?}",
        run.report.total_update_latency()
    );
}
