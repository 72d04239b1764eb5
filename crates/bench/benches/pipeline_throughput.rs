//! Per-packet throughput of the PISA behavioral model: how fast the
//! simulated switch pushes a window's packets through compiled query
//! pipelines as one arena batch, how cost scales with the number of
//! concurrently installed queries, and how the sharded stream engine
//! scales with worker count on a reduce-heavy query.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use sonata_bench::{time_per_iter, time_per_iter_batched, BenchJson};
use sonata_packet::{Packet, PacketArena};
use sonata_pisa::compile::{compile_pipeline, max_switch_units, table_specs, RegisterSizing};
use sonata_pisa::{PisaProgram, ReportBatch, Switch, SwitchConstraints, TaskId};
use sonata_query::catalog::{self, Thresholds};
use sonata_stream::testsupport::{batch_for, low_thresholds, seeded_packets};
use sonata_stream::ShardedEngine;
use sonata_traffic::{BackgroundConfig, Trace};

fn build_switch(n_queries: usize) -> Switch {
    let queries = catalog::top8(&Thresholds::default());
    let mut program = PisaProgram::default();
    let mut meta_base = 0;
    let mut reg_base = 0;
    for q in queries.iter().take(n_queries) {
        let mut branches: Vec<&sonata_query::Pipeline> = vec![&q.pipeline];
        if let Some(j) = &q.join {
            branches.push(&j.right);
        }
        for (b, pipeline) in branches.iter().enumerate() {
            let specs = table_specs(pipeline);
            let k = max_switch_units(&specs);
            let stateful = specs.iter().take(k).filter(|s| s.stateful).count();
            let mut stages = Vec::new();
            let mut cur = 0;
            for s in specs.iter().take(k) {
                stages.push(cur);
                cur += s.stage_cost;
            }
            let compiled = compile_pipeline(
                pipeline,
                TaskId {
                    query: q.id,
                    level: 32,
                    branch: b as u8,
                },
                &stages,
                &vec![
                    RegisterSizing {
                        slots: 4096,
                        arrays: 2,
                        ..Default::default()
                    };
                    stateful
                ],
                meta_base,
                reg_base,
            )
            .unwrap();
            meta_base = compiled.fragment.meta_slots.max(meta_base);
            reg_base += compiled.fragment.registers.len() as u32;
            program.merge(compiled.fragment);
        }
    }
    Switch::load(
        program,
        &SwitchConstraints {
            stateful_per_stage: 32,
            ..SwitchConstraints::default()
        },
    )
    .unwrap()
}

fn packets(n: usize) -> Vec<Packet> {
    Trace::background(
        &BackgroundConfig {
            packets: n,
            ..BackgroundConfig::small()
        },
        7,
    )
    .packets()
    .to_vec()
}

fn bench_process_batch(c: &mut Criterion) {
    let pkts = packets(4_000);
    let arena = PacketArena::from_packets(&pkts);
    let mut group = c.benchmark_group("switch_process_batch");
    group.throughput(Throughput::Elements(arena.len() as u64));
    for n in [1usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("queries", n), &n, |b, &n| {
            let mut sw = build_switch(n);
            let mut out = ReportBatch::new();
            b.iter(|| {
                sw.process_batch(&arena.batch(), &mut out);
                std::hint::black_box(out.total_reports());
                sw.end_window();
            });
        });
    }
    group.finish();
}

fn bench_reference_interpreter(c: &mut Criterion) {
    let pkts = packets(4_000);
    let q = catalog::newly_opened_tcp_conns(&Thresholds::default());
    let mut group = c.benchmark_group("reference_interpreter");
    group.throughput(Throughput::Elements(pkts.len() as u64));
    group.bench_function("query1_window", |b| {
        b.iter(|| std::hint::black_box(sonata_query::interpret::run_query(&q, &pkts).unwrap()));
    });
    group.finish();
}

fn bench_sharded_engine(c: &mut Criterion) {
    // Reduce-heavy stream job: DDoS (distinct + reduce on dIP) over
    // whole-window entry-0 tuples, across shard counts. The per-tuple
    // pipeline work dominates the split/merge overhead, so the shards
    // scale until the hash-split serial fraction takes over.
    let q = catalog::ddos(&low_thresholds());
    let pkts = seeded_packets(7, 30_000);
    let batch = batch_for(&q, &pkts);
    let mut group = c.benchmark_group("sharded_engine");
    group.throughput(Throughput::Elements(batch.tuple_count() as u64));
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("workers", workers), &workers, |b, &w| {
            let mut engine = ShardedEngine::new(w);
            engine.register(q.clone());
            // The runtime hands the engine owned batches; clone in
            // setup so every worker count measures the same work.
            b.iter_batched(
                || batch.clone(),
                |owned| std::hint::black_box(engine.submit_owned(q.id, owned).unwrap()),
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_process_batch,
    bench_reference_interpreter,
    bench_sharded_engine
);

/// Machine-readable baseline, written as
/// `results/pipeline_throughput.json`: the switch's arena batch path
/// per installed-query count, and the stream engine on its compiled
/// fast path and on the forced reference path per worker count.
fn emit_json() {
    let mut json = BenchJson::new("pipeline_throughput");
    json.config_num("switch_packets", 4_000.0)
        .config_num("stream_tuples", 30_000.0);

    let pkts = packets(4_000);
    let arena = PacketArena::from_packets(&pkts);
    for n in [1usize, 4, 8] {
        let mut sw = build_switch(n);
        let mut out = ReportBatch::new();
        let per_iter = time_per_iter(|| {
            sw.process_batch(&arena.batch(), &mut out);
            std::hint::black_box(out.total_reports());
            sw.end_window()
        });
        json.point("switch_arena_pps", n as f64, pkts.len() as f64 / per_iter);
    }

    let q = catalog::ddos(&low_thresholds());
    let spkts = seeded_packets(7, 30_000);
    let batch = batch_for(&q, &spkts);
    for workers in [1usize, 2, 4, 8] {
        for (series, force) in [("engine_fast_tps", false), ("engine_reference_tps", true)] {
            let mut engine = ShardedEngine::with_config(
                workers,
                &sonata_obs::ObsHandle::disabled(),
                &sonata_faults::FaultInjector::disabled(),
                force,
            );
            engine.register(q.clone());
            let per_iter = time_per_iter_batched(
                || batch.clone(),
                |owned| engine.submit_owned(q.id, owned).unwrap(),
            );
            json.point(
                series,
                workers as f64,
                batch.tuple_count() as f64 / per_iter,
            );
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
