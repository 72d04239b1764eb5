//! Control-plane benchmarks: applying dynamic-refinement table updates
//! to the behavioral model (the mechanical cost, next to the paper's
//! *simulated* hardware latency which the update_overhead binary
//! reports), and end-to-end window-boundary cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sonata_packet::{Packet, PacketArena, PacketBuilder, TcpFlags};
use sonata_pisa::compile::{compile_pipeline, RegisterSizing};
use sonata_pisa::control::{ControlOp, UpdateCostModel};
use sonata_pisa::{ReportBatch, Switch, SwitchConstraints, TaskId};
use sonata_query::catalog::{self, Thresholds};
use sonata_query::expr::{col, field, lit, Pred};
use sonata_query::{Agg, QueryId};
use std::collections::BTreeSet;

fn refined_switch() -> (Switch, String) {
    use sonata_packet::Field;
    let q = sonata_query::Query::builder("refined", 1)
        .filter(Pred::in_set(field(Field::Ipv4Dst).mask(8), BTreeSet::new()))
        .map([("dIP", field(Field::Ipv4Dst)), ("c", lit(1))])
        .reduce(&["dIP"], Agg::Sum, "c")
        .filter(col("c").gt(lit(10)))
        .build()
        .unwrap();
    let cp = compile_pipeline(
        &q.pipeline,
        TaskId {
            query: QueryId(1),
            level: 16,
            branch: 0,
        },
        &[0, 1, 2],
        &[RegisterSizing {
            slots: 4096,
            arrays: 2,
            ..Default::default()
        }],
        0,
        0,
    )
    .unwrap();
    let sw = Switch::load(cp.fragment, &SwitchConstraints::default()).unwrap();
    let table = sw.dyn_filter_tables()[0].0.clone();
    (sw, table)
}

fn bench_table_updates(c: &mut Criterion) {
    let model = UpdateCostModel::default();
    let mut group = c.benchmark_group("dyn_filter_update");
    for entries in [10usize, 100, 1000] {
        group.bench_with_input(
            BenchmarkId::new("entries", entries),
            &entries,
            |b, &entries| {
                let (mut sw, table) = refined_switch();
                let set: BTreeSet<u64> = (0..entries as u64).collect();
                let ops = [ControlOp::SetDynFilter {
                    table,
                    entries: set,
                }];
                b.iter(|| std::hint::black_box(model.apply(&mut sw, &ops).unwrap()));
            },
        );
    }
    group.finish();
}

fn bench_window_boundary(c: &mut Criterion) {
    // Full boundary: end_window (dump + reset) on a loaded register.
    let q = catalog::newly_opened_tcp_conns(&Thresholds::default());
    let cp = compile_pipeline(
        &q.pipeline,
        TaskId {
            query: QueryId(1),
            level: 32,
            branch: 0,
        },
        &[0, 1, 2],
        &[RegisterSizing {
            slots: 16_384,
            arrays: 2,
            ..Default::default()
        }],
        0,
        0,
    )
    .unwrap();
    let pkts: Vec<Packet> = (0..8_192u32)
        .map(|i| {
            PacketBuilder::tcp_raw(1, 2, i, 80)
                .flags(TcpFlags::SYN)
                .build()
        })
        .collect();
    let arena = PacketArena::from_packets(&pkts);
    let mut group = c.benchmark_group("window_boundary");
    group.sample_size(20);
    group.bench_function("end_window_8k_keys", |b| {
        b.iter_batched(
            || {
                let mut sw =
                    Switch::load(cp.fragment.clone(), &SwitchConstraints::default()).unwrap();
                sw.process_batch(&arena.batch(), &mut ReportBatch::new());
                sw
            },
            |mut sw| std::hint::black_box(sw.end_window()),
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();
}

criterion_group!(benches, bench_table_updates, bench_window_boundary);
criterion_main!(benches);
