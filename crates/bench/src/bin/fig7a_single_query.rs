//! Figure 7a: single-query workload on the stream processor — each of
//! the top-8 queries run alone under the five plans of Table 4.
//!
//! Paper shape (log scale): All-SP is the ceiling (every packet);
//! Filter-DP only helps queries that filter away most traffic (SSH
//! brute force) and tracks All-SP for broad queries (superspreader);
//! Max-DP and Sonata sit orders of magnitude below; Fix-REF matches
//! Sonata's tuple counts for most queries but pays extra windows of
//! delay.

use sonata_bench::{estimate_all, fmt_tuples, measure, write_csv, ExperimentCtx};
use sonata_planner::costs::CostConfig;
use sonata_planner::{PlanMode, PlannerConfig};
use sonata_query::catalog::{self, Thresholds};

fn main() {
    let ctx = ExperimentCtx::default();
    let trace = ctx.evaluation_trace();
    let queries = catalog::top8(&Thresholds::default());
    let levels = vec![4u8, 8, 12, 16, 20, 24, 28, 32];
    let planner_cfg = PlannerConfig {
        cost: CostConfig {
            levels: Some(levels.clone()),
            ..Default::default()
        },
        ..PlannerConfig::default()
    };

    println!("# Figure 7a: tuples at the stream processor, single query at a time");
    println!(
        "({} packets over {} windows, scale {})",
        trace.len(),
        ctx.windows,
        ctx.scale
    );
    println!(
        "{:<22} | {:>9} {:>9} {:>9} {:>9} {:>9} | delay(F/S)",
        "query", "All-SP", "Filter-DP", "Max-DP", "Fix-REF", "Sonata"
    );
    let mut rows = Vec::new();
    for q in &queries {
        let qs = vec![q.clone()];
        let costs = estimate_all(&qs, &trace, &levels);
        let mut cells = Vec::new();
        let mut delays = (0usize, 0usize);
        for &mode in PlanMode::ALL {
            let run = measure(&qs, &costs, &trace, mode, &planner_cfg);
            if mode == PlanMode::FixRef {
                delays.0 = run.delay;
            }
            if mode == PlanMode::Sonata {
                delays.1 = run.delay;
            }
            cells.push(run.tuples);
        }
        println!(
            "{:<22} | {:>9} {:>9} {:>9} {:>9} {:>9} | {}/{}",
            q.name,
            fmt_tuples(cells[0]),
            fmt_tuples(cells[1]),
            fmt_tuples(cells[2]),
            fmt_tuples(cells[3]),
            fmt_tuples(cells[4]),
            delays.0,
            delays.1
        );
        rows.push(format!(
            "{},{},{},{},{},{},{},{}",
            q.name, cells[0], cells[1], cells[2], cells[3], cells[4], delays.0, delays.1
        ));
        // Per-query shape checks.
        assert!(cells[4] <= cells[0], "{}: Sonata must beat All-SP", q.name);
        assert!(cells[1] <= cells[0], "{}: Filter-DP ≤ All-SP", q.name);
        assert!(cells[2] <= cells[1], "{}: Max-DP ≤ Filter-DP", q.name);
    }
    write_csv(
        "fig7a_single_query.csv",
        "query,all_sp,filter_dp,max_dp,fix_ref,sonata,fixref_delay,sonata_delay",
        &rows,
    );

    // Aggregate shape: Sonata buys orders of magnitude over All-SP.
    let parse = |r: &String, i: usize| r.split(',').nth(i).unwrap().parse::<u64>().unwrap();
    let total_allsp: u64 = rows.iter().map(|r| parse(r, 1)).sum();
    let total_sonata: u64 = rows.iter().map(|r| parse(r, 5)).sum();
    let factor = total_allsp as f64 / total_sonata.max(1) as f64;
    println!("\naggregate reduction Sonata vs All-SP: {factor:.0}×");
    assert!(
        factor > 100.0,
        "expect ≥2 orders of magnitude, got {factor:.0}×"
    );
}
