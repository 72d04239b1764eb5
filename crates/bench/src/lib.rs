//! # sonata-bench
//!
//! Experiment harnesses that regenerate every table and figure of the
//! paper's evaluation (Section 6), plus `bench_suite`, the one
//! performance harness (its own README describes it).
//!
//! One binary per artifact (`cargo run --release -p sonata-bench --bin <name>`):
//!
//! | binary | reproduces |
//! |---|---|
//! | `table3_queries` | Table 3 — the 11 queries and lines-of-code comparison |
//! | `fig3_collisions` | Figure 3 — collision rate vs. incoming keys for d = 1..4 |
//! | `fig5_refinement_costs` | Figure 5 — N/B costs per refinement transition (Query 1) |
//! | `fig7a_single_query` | Figure 7a — single-query tuples across the five plans |
//! | `fig7b_multi_query` | Figure 7b — tuples vs. number of concurrent queries |
//! | `fig8_constraints` | Figure 8a–d — tuples vs. stages / actions / memory / metadata |
//! | `fig9_case_study` | Figure 9 — the Zorro end-to-end detection timeline |
//! | `update_overhead` | Section 6.2 — dynamic-refinement update latency |
//! | `solver_behavior` | Section 6.1 — ILP solver behavior vs. the greedy planner |
//! | `ablations` | sweeps of d, refinement levels, relaxation and window size |
//!
//! Each binary asserts the paper's shape, prints the series to stdout
//! and writes it as CSV under `results/`. Scale factors keep laptop
//! runtimes in seconds-to-minutes; the *shape* of every series (who
//! wins, by what factor, where crossovers fall) is the reproduction
//! target, per EXPERIMENTS.md.

use sonata_core::{Runtime, RuntimeConfig, TelemetryReport};
use sonata_packet::Packet;
use sonata_planner::costs::{estimate_costs, CostConfig, QueryCosts};
use sonata_planner::{plan_with_costs, GlobalPlan, PlanMode, PlannerConfig};
use sonata_query::Query;
use sonata_traffic::Trace;
use std::io::Write;
use std::path::PathBuf;

/// Common experiment knobs, overridable via env vars
/// (`SONATA_SCALE`, `SONATA_WINDOWS`, `SONATA_SEED`).
#[derive(Debug, Clone)]
pub struct ExperimentCtx {
    /// Background-traffic scale factor (1.0 ≈ 100k pkts / 3 s window).
    pub scale: f64,
    /// Number of 3-second windows.
    pub windows: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ExperimentCtx {
    fn default() -> Self {
        let f = |k: &str, d: f64| {
            std::env::var(k)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(d)
        };
        ExperimentCtx {
            scale: f("SONATA_SCALE", 0.3),
            windows: f("SONATA_WINDOWS", 3.0) as u32,
            seed: f("SONATA_SEED", 1.0) as u64,
        }
    }
}

impl ExperimentCtx {
    /// The standard evaluation trace for this context.
    pub fn evaluation_trace(&self) -> Trace {
        sonata_traffic::trace::EvaluationTrace::generate(self.seed, self.windows, 3_000, self.scale)
            .trace
    }
}

/// Result of running one plan end to end.
#[derive(Debug, Clone)]
pub struct MeasuredRun {
    /// The mode that produced the plan.
    pub mode: PlanMode,
    /// Tuples delivered to the stream processor, whole trace.
    pub tuples: u64,
    /// Packets processed.
    pub packets: u64,
    /// Worst-case detection delay in windows.
    pub delay: usize,
    /// The full report, for deeper inspection.
    pub report: TelemetryReport,
}

/// Estimate costs for a query set once (they are constraint-independent
/// and reusable across sweep points).
pub fn estimate_all(queries: &[Query], trace: &Trace, levels: &[u8]) -> Vec<QueryCosts> {
    let windows: Vec<&[Packet]> = trace.windows(3_000).map(|(_, p)| p).collect();
    let cfg = CostConfig {
        levels: Some(levels.to_vec()),
        ..Default::default()
    };
    queries
        .iter()
        .map(|q| estimate_costs(q, &windows, &cfg).expect("cost estimation"))
        .collect()
}

/// Plan with a mode and measure the actual run.
pub fn measure(
    queries: &[Query],
    costs: &[QueryCosts],
    trace: &Trace,
    mode: PlanMode,
    planner_cfg: &PlannerConfig,
) -> MeasuredRun {
    let cfg = PlannerConfig {
        mode,
        ..planner_cfg.clone()
    };
    let plan: GlobalPlan = plan_with_costs(queries, costs, &cfg).expect("plan");
    let mut rt = Runtime::new(
        &plan,
        RuntimeConfig {
            constraints: cfg.constraints,
            ..RuntimeConfig::default()
        },
    )
    .expect("deployable plan");
    let report = rt.process_trace(trace).expect("clean run");
    MeasuredRun {
        mode,
        tuples: report.total_tuples(),
        packets: report.total_packets(),
        delay: plan.max_delay_windows(),
        report,
    }
}

/// Write a CSV under `results/`, creating the directory; returns the path.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    let dir =
        PathBuf::from(std::env::var("SONATA_RESULTS").unwrap_or_else(|_| "results".to_string()));
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).expect("create csv");
    writeln!(f, "{header}").unwrap();
    for row in rows {
        writeln!(f, "{row}").unwrap();
    }
    eprintln!("wrote {}", path.display());
    path
}

/// Format a tuple count the way the paper's log-scale plots read.
pub fn fmt_tuples(n: u64) -> String {
    if n >= 10_000_000 {
        format!("{:.1}e7", n as f64 / 1e7)
    } else if n >= 10_000 {
        format!("{:.0}k", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}
