//! Figure 8a–d: how switch resource constraints shape the workload on
//! the stream processor, running all eight queries concurrently under
//! Max-DP, Fix-REF, and Sonata while sweeping one constraint at a time:
//!
//! * (a) pipeline stages `S` ∈ {1, 2, 4, 8, 12, 16, 32}
//! * (b) stateful actions per stage `A` ∈ {1, 2, 4, 8, 12, 16, 32}
//! * (c) register memory per stage `B` ∈ {0.5, 1, 2, 4, 8, 12, 16, 32} Mb
//! * (d) metadata size `M` ∈ {0.25, 0.5, 1, 2, 4, 8} KB
//!
//! Paper shape: more of any resource monotonically (within noise)
//! reduces the load; Sonata ≤ Fix-REF everywhere; tight constraints
//! push every plan toward the All-SP ceiling.

use sonata_bench::{estimate_all, fmt_tuples, measure, write_csv, ExperimentCtx};
use sonata_pisa::SwitchConstraints;
use sonata_planner::costs::{CostConfig, SketchPolicy};
use sonata_planner::{PlanMode, PlannerConfig};
use sonata_query::catalog::{self, Thresholds};

const MODES: [PlanMode; 3] = [PlanMode::MaxDp, PlanMode::FixRef, PlanMode::Sonata];

#[allow(clippy::too_many_arguments)]
fn sweep<F>(
    name: &str,
    points: &[f64],
    make: F,
    queries: &[sonata_query::Query],
    costs: &[sonata_planner::costs::QueryCosts],
    trace: &sonata_traffic::Trace,
    base_cfg: &PlannerConfig,
) -> Vec<(f64, Vec<u64>)>
where
    F: Fn(f64) -> SwitchConstraints,
{
    println!("\n## Figure 8{name}");
    println!(
        "{:>8} | {:>10} {:>10} {:>10}",
        name, "Max-DP", "Fix-REF", "Sonata"
    );
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for &p in points {
        let constraints = make(p);
        let mut cells = Vec::new();
        for mode in MODES {
            let cfg = PlannerConfig {
                mode,
                constraints,
                ..base_cfg.clone()
            };
            let run = measure(queries, costs, trace, mode, &cfg);
            cells.push(run.tuples);
        }
        println!(
            "{:>8} | {:>10} {:>10} {:>10}",
            p,
            fmt_tuples(cells[0]),
            fmt_tuples(cells[1]),
            fmt_tuples(cells[2])
        );
        rows.push(format!("{p},{},{},{}", cells[0], cells[1], cells[2]));
        out.push((p, cells));
    }
    write_csv(
        &format!("fig8{name}.csv"),
        &format!("{name},max_dp,fix_ref,sonata"),
        &rows,
    );
    out
}

/// Figure 8c with a fourth series: Sonata planning under the ε = 5%
/// sketch cost model (`sonata-sketch` layouts). Approximate registers
/// shrink stateful state dramatically, so the memory wall moves: the
/// sketch series should track (or beat) exact Sonata everywhere and
/// beat it clearly at the tight end of the sweep.
fn sweep_memory(
    points: &[f64],
    queries: &[sonata_query::Query],
    costs: &[sonata_planner::costs::QueryCosts],
    trace: &sonata_traffic::Trace,
    base_cfg: &PlannerConfig,
) -> Vec<(f64, Vec<u64>)> {
    let name = "c_memory_mb";
    let d = SwitchConstraints::default();
    println!("\n## Figure 8{name}");
    println!(
        "{:>8} | {:>10} {:>10} {:>10} {:>10}",
        name, "Max-DP", "Fix-REF", "Sonata", "Sk-Sonata"
    );
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for &mb in points {
        let constraints = SwitchConstraints {
            register_bits_per_stage: (mb * 1_000_000.0) as u64,
            max_bits_per_register: ((mb / 2.0) * 1_000_000.0).max(500_000.0) as u64,
            ..d
        };
        let mut cells = Vec::new();
        for mode in MODES {
            let cfg = PlannerConfig {
                mode,
                constraints,
                ..base_cfg.clone()
            };
            let run = measure(queries, costs, trace, mode, &cfg);
            cells.push(run.tuples);
        }
        let sketch_cfg = PlannerConfig {
            mode: PlanMode::Sonata,
            constraints,
            cost: CostConfig {
                sketch: SketchPolicy {
                    enabled: true,
                    epsilon: 0.05,
                    delta: 0.05,
                },
                ..base_cfg.cost.clone()
            },
            ..base_cfg.clone()
        };
        let run = measure(queries, costs, trace, PlanMode::Sonata, &sketch_cfg);
        cells.push(run.tuples);
        println!(
            "{:>8} | {:>10} {:>10} {:>10} {:>10}",
            mb,
            fmt_tuples(cells[0]),
            fmt_tuples(cells[1]),
            fmt_tuples(cells[2]),
            fmt_tuples(cells[3])
        );
        rows.push(format!(
            "{mb},{},{},{},{}",
            cells[0], cells[1], cells[2], cells[3]
        ));
        out.push((mb, cells));
    }
    write_csv(
        &format!("fig8{name}.csv"),
        &format!("{name},max_dp,fix_ref,sonata,sonata_sketch"),
        &rows,
    );
    out
}

fn main() {
    let ctx = ExperimentCtx::default();
    let trace = ctx.evaluation_trace();
    let queries = catalog::top8(&Thresholds::default());
    let levels = vec![8u8, 16, 24, 32];
    let base_cfg = PlannerConfig {
        cost: CostConfig {
            levels: Some(levels.clone()),
            ..Default::default()
        },
        ..PlannerConfig::default()
    };
    let costs = estimate_all(&queries, &trace, &levels);
    let d = SwitchConstraints::default();

    let a = sweep(
        "a_stages",
        &[1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 32.0],
        |s| SwitchConstraints {
            stages: s as usize,
            ..d
        },
        &queries,
        &costs,
        &trace,
        &base_cfg,
    );
    let b = sweep(
        "b_actions",
        &[1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 32.0],
        |a| SwitchConstraints {
            stateful_per_stage: a as usize,
            ..d
        },
        &queries,
        &costs,
        &trace,
        &base_cfg,
    );
    let c = sweep_memory(
        &[0.5, 1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 32.0],
        &queries,
        &costs,
        &trace,
        &base_cfg,
    );
    let m = sweep(
        "d_metadata_kb",
        &[0.25, 0.5, 1.0, 2.0, 4.0, 8.0],
        |kb| SwitchConstraints {
            metadata_bits: (kb * 8.0 * 1024.0) as u64,
            ..d
        },
        &queries,
        &costs,
        &trace,
        &base_cfg,
    );

    // Shape checks: relaxing a constraint never hurts much, and at the
    // loosest point Sonata beats its tightest point by a wide margin.
    for (label, series) in [
        ("stages", &a),
        ("actions", &b),
        ("memory", &c),
        ("metadata", &m),
    ] {
        let sonata_first = series.first().unwrap().1[2];
        let sonata_last = series.last().unwrap().1[2];
        assert!(
            sonata_last <= sonata_first,
            "{label}: more resources must not increase Sonata's load"
        );
        // Sonata ≤ Fix-REF at every point.
        for (p, cells) in series {
            assert!(
                cells[2] <= cells[1],
                "{label}@{p}: Sonata {} > Fix-REF {}",
                cells[2],
                cells[1]
            );
        }
    }
    // Sketch shape check: at the tight end of the memory sweep the
    // ε = 5% layouts must not lose to exact sizing — cheap registers
    // mean more units fit the switch, so the SP load can only drop.
    let (tight, cells) = c.first().unwrap();
    assert!(
        cells[3] <= cells[2],
        "memory@{tight}: sketch Sonata {} > exact Sonata {}",
        cells[3],
        cells[2]
    );
    println!("\nshape checks passed (load falls as each constraint relaxes; Sonata ≤ Fix-REF; sketch ≤ exact at the memory wall)");
}
