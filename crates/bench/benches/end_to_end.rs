//! End-to-end window benchmark: the full runtime loop (switch →
//! emitter → stream engine → refinement update) per window, with all
//! eight queries installed — the simulated system's aggregate
//! throughput.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use sonata_bench::{time_per_iter_batched, BenchJson};
use sonata_core::{Runtime, RuntimeConfig};
use sonata_packet::Packet;
use sonata_planner::costs::CostConfig;
use sonata_planner::{plan_queries, PlanMode, PlannerConfig};
use sonata_query::catalog::{self, Thresholds};
use sonata_traffic::trace::EvaluationTrace;

fn bench_runtime_window(c: &mut Criterion) {
    let ev = EvaluationTrace::generate(1, 2, 3_000, 0.1);
    let queries = catalog::top8(&Thresholds::default());
    let windows: Vec<&[Packet]> = ev.trace.windows(3_000).map(|(_, p)| p).collect();
    let pkts: Vec<Packet> = windows[0].to_vec();

    let mut group = c.benchmark_group("runtime_window");
    group.sample_size(10);
    group.throughput(Throughput::Elements(pkts.len() as u64));
    for mode in [PlanMode::AllSp, PlanMode::MaxDp, PlanMode::Sonata] {
        let cfg = PlannerConfig {
            mode,
            cost: CostConfig {
                levels: Some(vec![8, 16, 24, 32]),
                ..Default::default()
            },
            ..PlannerConfig::default()
        };
        let plan = plan_queries(&queries, &windows, &cfg).unwrap();
        group.bench_with_input(BenchmarkId::new("8q", mode.label()), &plan, |b, plan| {
            b.iter_batched(
                || Runtime::new(plan, RuntimeConfig::default()).unwrap(),
                |mut rt| {
                    rt.process_window(0, &pkts).unwrap();
                    rt
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_runtime_window);

/// Machine-readable baseline: the full runtime window on the compiled
/// fast paths vs. `RuntimeConfig::oracle` (the before-optimization
/// baseline), per plan mode, written as `results/end_to_end.json`.
/// `x` is packets/second through the whole window loop.
fn emit_json() {
    let ev = EvaluationTrace::generate(1, 2, 3_000, 0.1);
    let queries = catalog::top8(&Thresholds::default());
    let windows: Vec<&[Packet]> = ev.trace.windows(3_000).map(|(_, p)| p).collect();
    let pkts: Vec<Packet> = windows[0].to_vec();

    let mut json = BenchJson::new("end_to_end");
    json.config_num("window_packets", pkts.len() as f64)
        .config_str("queries", "top8");

    for (xi, mode) in [PlanMode::AllSp, PlanMode::MaxDp, PlanMode::Sonata]
        .into_iter()
        .enumerate()
    {
        let cfg = PlannerConfig {
            mode,
            cost: CostConfig {
                levels: Some(vec![8, 16, 24, 32]),
                ..Default::default()
            },
            ..PlannerConfig::default()
        };
        let plan = plan_queries(&queries, &windows, &cfg).unwrap();
        json.config_str(&format!("mode_{xi}"), mode.label());
        for (series, force) in [
            ("runtime_arena_pps", false),
            ("runtime_reference_pps", true),
        ] {
            let per_iter = time_per_iter_batched(
                || {
                    Runtime::new(
                        &plan,
                        RuntimeConfig {
                            oracle: force,
                            ..RuntimeConfig::default()
                        },
                    )
                    .unwrap()
                },
                |mut rt| {
                    rt.process_window(0, &pkts).unwrap();
                    rt
                },
            );
            json.point(series, xi as f64, pkts.len() as f64 / per_iter);
        }
    }

    json.write();
}

fn main() {
    benches();
    if std::env::args().any(|a| a == "--bench") {
        emit_json();
    }
}
