//! Register micro-benchmarks: the cost of the d-array hash register
//! scheme per update, as `d` grows (the ablation DESIGN.md calls out:
//! collision mitigation buys accuracy at a small per-packet cost), and
//! dump/reset costs at window boundaries.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sonata_pisa::HashRegisters;
use sonata_query::Agg;

fn bench_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("register_update");
    const N: u64 = 8_192;
    group.throughput(Throughput::Elements(N));
    for d in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("d", d), &d, |b, &d| {
            b.iter_batched(
                || HashRegisters::new(16_384, d, 32, 1),
                |mut regs| {
                    for k in 0..N {
                        std::hint::black_box(regs.update(&[k % 4_096], Agg::Sum, 1));
                    }
                    regs
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

fn bench_update_under_pressure(c: &mut Criterion) {
    // Registers sized at half the key population: many cascades and
    // shunts — the worst case for the probe chain.
    let mut group = c.benchmark_group("register_update_overloaded");
    const N: u64 = 8_192;
    group.throughput(Throughput::Elements(N));
    for d in [1usize, 4] {
        group.bench_with_input(BenchmarkId::new("d", d), &d, |b, &d| {
            b.iter_batched(
                || HashRegisters::new(2_048, d, 32, 1),
                |mut regs| {
                    for k in 0..N {
                        std::hint::black_box(regs.update(&[k], Agg::Sum, 1));
                    }
                    regs
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

fn bench_dump_reset(c: &mut Criterion) {
    let mut group = c.benchmark_group("register_window_boundary");
    group.bench_function("dump_8k_keys", |b| {
        let mut regs = HashRegisters::new(16_384, 2, 32, 1);
        for k in 0..8_192u64 {
            regs.update(&[k], Agg::Sum, 1);
        }
        b.iter(|| std::hint::black_box(regs.dump()));
    });
    group.bench_function("reset_8k_keys", |b| {
        b.iter_batched(
            || {
                let mut regs = HashRegisters::new(16_384, 2, 32, 1);
                for k in 0..8_192u64 {
                    regs.update(&[k], Agg::Sum, 1);
                }
                regs
            },
            |mut regs| {
                regs.reset();
                regs
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_update,
    bench_update_under_pressure,
    bench_dump_reset
);
criterion_main!(benches);
