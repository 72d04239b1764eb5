//! Wire-layer overhead: (1) raw codec throughput — encode/decode of a
//! per-packet report frame and a batched window-dump frame; (2) the
//! full runtime window loop over the in-process `Loopback` transport
//! vs real TCP sockets. Loopback is the default and must stay within
//! noise of the pre-wire runtime (one frame clone + a bounded-queue
//! push per message); the TCP series shows what crossing a socket
//! boundary actually costs.
//!
//! Besides the Criterion series, the bench emits
//! `results/net_overhead.json` (uniform [`BenchJson`] schema) so CI
//! can diff codec and transport regressions without parsing console
//! output.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sonata_bench::BenchJson;
use sonata_core::{Runtime, RuntimeConfig};
use sonata_net::{decode_frame, encode_frame, Frame, TransportKind};
use sonata_packet::{Packet, PacketBuilder, TcpFlags};
use sonata_pisa::{DumpBlock, Report, ReportKind, TaskId, WindowDump};
use sonata_planner::costs::CostConfig;
use sonata_planner::{plan_queries, PlanMode, PlannerConfig};
use sonata_query::catalog::{self, Thresholds};
use sonata_query::QueryId;
use sonata_traffic::trace::EvaluationTrace;
use std::time::Instant;

/// A representative mirrored report: task id, two columns, and the
/// raw packet riding along (the worst per-packet case on the wire).
fn sample_report(seq: u64) -> Report {
    let pkt = PacketBuilder::tcp_raw(0x0a00_0001 + seq as u32, 33_000, 0x6307_0019, 80)
        .seq(seq as u32)
        .flags(TcpFlags(0x02))
        .build();
    let pkt = Packet::decode(&pkt.encode()).unwrap();
    Report {
        task: TaskId {
            query: QueryId(1),
            level: 32,
            branch: 0,
        },
        kind: ReportKind::Tuple,
        columns: vec![("ipv4.src".into(), 0x0a00_0001 + seq), ("count".into(), 1)],
        packet: Some(pkt),
        entry_op: None,
        seq,
    }
}

/// A representative end-of-window dump: 256 register tuples in one
/// batch frame (batch coalescing is the whole point of this frame).
fn sample_dump() -> Frame {
    let t = sample_report(0);
    let block = DumpBlock {
        task: t.task,
        kind: ReportKind::WindowDump,
        entry_op: None,
        first_seq: 0,
        names: t.columns.iter().map(|(n, _)| n.clone()).collect(),
        cells: (0..256).flat_map(|i| [0x0a00_0001 + i, 1]).collect(),
    };
    Frame::WindowDump {
        window: 3,
        dump: WindowDump {
            tuples: [block].into_iter().collect(),
            suppressed: 17,
            occupancy: 256,
            shunted_packets: 4,
            bounds: Vec::new(),
        },
    }
}

/// Median-free quick timing: ns per op over `iters` runs of `f`.
fn time_per_op(iters: u64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn bench_net_overhead(c: &mut Criterion) {
    let mut json = BenchJson::new("net_overhead");

    // ---------------------------------------------------- codec series
    let report_frame = Frame::Report(sample_report(42));
    let dump_frame = sample_dump();
    let mut group = c.benchmark_group("net_codec");
    group.sample_size(20);
    for (label, frame) in [("report", &report_frame), ("window_dump", &dump_frame)] {
        let bytes = encode_frame(frame);
        group.throughput(Throughput::Bytes(bytes.len() as u64));
        group.bench_with_input(BenchmarkId::new("encode", label), frame, |b, frame| {
            b.iter(|| encode_frame(frame));
        });
        group.bench_with_input(BenchmarkId::new("decode", label), &bytes, |b, bytes| {
            b.iter(|| decode_frame(bytes).unwrap());
        });
        let iters = if bytes.len() > 4096 { 2_000 } else { 50_000 };
        json.point(
            "codec_encode_ns",
            bytes.len() as f64,
            time_per_op(iters, || {
                std::hint::black_box(encode_frame(frame));
            }),
        );
        json.point(
            "codec_decode_ns",
            bytes.len() as f64,
            time_per_op(iters, || {
                std::hint::black_box(decode_frame(&bytes).unwrap());
            }),
        );
    }
    group.finish();

    // ------------------------------------------- end-to-end transport
    let ev = EvaluationTrace::generate(1, 2, 3_000, 0.1);
    let queries = catalog::top8(&Thresholds::default());
    let windows: Vec<&[Packet]> = ev.trace.windows(3_000).map(|(_, p)| p).collect();
    let pkts: Vec<Packet> = windows[0].to_vec();

    let cfg = PlannerConfig {
        mode: PlanMode::Sonata,
        cost: CostConfig {
            levels: Some(vec![8, 16, 24, 32]),
            ..Default::default()
        },
        ..PlannerConfig::default()
    };
    let plan = plan_queries(&queries, &windows, &cfg).unwrap();

    json.config_num("packets_per_window", pkts.len() as f64)
        .config_str("queries", "top8")
        .config_str("mode", "sonata");

    let mut group = c.benchmark_group("net_overhead");
    group.sample_size(20);
    group.throughput(Throughput::Elements(pkts.len() as u64));
    for transport in [TransportKind::Loopback, TransportKind::Tcp] {
        group.bench_with_input(
            BenchmarkId::new("window", transport.name()),
            &plan,
            |b, plan| {
                b.iter_batched(
                    || {
                        Runtime::new(
                            plan,
                            RuntimeConfig {
                                transport,
                                ..RuntimeConfig::default()
                            },
                        )
                        .unwrap()
                    },
                    |mut rt| {
                        rt.process_window(0, &pkts).unwrap();
                        rt
                    },
                    criterion::BatchSize::LargeInput,
                );
            },
        );
        // One JSON point per backend: microseconds per window, best of
        // a few runs so a cold socket accept doesn't skew the series.
        let us = (0..5)
            .map(|_| {
                let mut rt = Runtime::new(
                    &plan,
                    RuntimeConfig {
                        transport,
                        ..RuntimeConfig::default()
                    },
                )
                .unwrap();
                let start = Instant::now();
                rt.process_window(0, &pkts).unwrap();
                start.elapsed().as_micros() as f64
            })
            .fold(f64::INFINITY, f64::min);
        json.point(
            &format!("window_us_{}", transport.name()),
            pkts.len() as f64,
            us,
        );
    }
    group.finish();

    json.write();
}

criterion_group!(benches, bench_net_overhead);
criterion_main!(benches);
