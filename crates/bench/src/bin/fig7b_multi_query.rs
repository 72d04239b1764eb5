//! Figure 7b: stream-processor workload as the number of concurrently
//! executing queries grows from 1 to 8, under the five plans.
//!
//! Paper shape (log scale): every plan's load grows with query count,
//! but Sonata stays orders of magnitude below All-SP/Filter-DP; Fix-REF
//! degrades fastest as the fixed chains exhaust switch resources.

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
    // Costs are per query and constraint-independent: estimate once.
    let all_costs = estimate_all(&queries, &trace, &levels);

    println!("# Figure 7b: tuples at the stream processor vs. number of queries");
    println!(
        "{:>3} | {:>9} {:>9} {:>9} {:>9} {:>9}",
        "n", "All-SP", "Filter-DP", "Max-DP", "Fix-REF", "Sonata"
    );
    let mut rows = Vec::new();
    let mut series: Vec<Vec<u64>> = vec![Vec::new(); PlanMode::ALL.len()];
    for n in 1..=queries.len() {
        let qs = &queries[..n];
        let costs = &all_costs[..n];
        let mut cells = Vec::new();
        for (mi, &mode) in PlanMode::ALL.iter().enumerate() {
            let run = measure(qs, costs, &trace, mode, &planner_cfg);
            series[mi].push(run.tuples);
            cells.push(run.tuples);
        }
        println!(
            "{:>3} | {:>9} {:>9} {:>9} {:>9} {:>9}",
            n,
            fmt_tuples(cells[0]),
            fmt_tuples(cells[1]),
            fmt_tuples(cells[2]),
            fmt_tuples(cells[3]),
            fmt_tuples(cells[4])
        );
        rows.push(format!(
            "{n},{},{},{},{},{}",
            cells[0], cells[1], cells[2], cells[3], cells[4]
        ));
    }
    write_csv(
        "fig7b_multi_query.csv",
        "queries,all_sp,filter_dp,max_dp,fix_ref,sonata",
        &rows,
    );

    // Shape checks.
    let last = series
        .iter()
        .map(|s| *s.last().unwrap())
        .collect::<Vec<_>>();
    let (all_sp, _filter, _max, fix_ref, sonata) = (last[0], last[1], last[2], last[3], last[4]);
    assert!(
        sonata * 100 <= all_sp,
        "8 queries: Sonata must sit ≥2 orders below All-SP ({sonata} vs {all_sp})"
    );
    assert!(sonata <= fix_ref, "Sonata ≤ Fix-REF under contention");
    // Load grows with query count for the data-plane plans.
    for s in &series[2..] {
        assert!(
            s.last().unwrap() >= s.first().unwrap(),
            "workload must grow with queries: {s:?}"
        );
    }
    println!(
        "\n8 queries: Sonata {} vs All-SP {} ({:.0}× reduction)",
        fmt_tuples(sonata),
        fmt_tuples(all_sp),
        all_sp as f64 / sonata.max(1) as f64
    );
}
