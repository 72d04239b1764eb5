//! Differential suite for the wire/transport layer (`sonata-net`).
//!
//! The transport is supposed to be invisible: a run over real TCP
//! sockets — including the threaded driver that puts the switch and
//! the stream processor on separate OS threads — must produce
//! *bit-identical* `WindowReport`s to the in-process `Loopback`
//! default, across the query catalog, across seeds, across shard
//! counts, and under transport-seam fault injection.
//!
//! Seeds come from `SONATA_NET_SEEDS` (comma-separated, default
//! `7,23`) so CI's net-smoke job can pin its own set.

use sonata::prelude::*;
use sonata::query::Query;
use sonata::stream::testsupport::{low_thresholds, seeded_packets};

const WINDOW_NS: u64 = 3_000_000_000;

fn net_seeds() -> Vec<u64> {
    std::env::var("SONATA_NET_SEEDS")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .collect::<Vec<u64>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![7, 23])
}

/// A deterministic multi-window trace: one `testsupport` mixed window
/// per 3-second slot, re-seeded per slot so windows differ.
fn net_trace(windows: u64, seed: u64) -> Trace {
    let mut pkts = Vec::new();
    for w in 0..windows {
        let mut chunk = seeded_packets(seed.wrapping_add(w), 300);
        for p in &mut chunk {
            p.ts_nanos += w * WINDOW_NS;
        }
        pkts.extend(chunk);
    }
    Trace::new(pkts)
}

fn net_queries() -> Vec<Query> {
    let t = low_thresholds();
    vec![
        catalog::newly_opened_tcp_conns(&t),
        catalog::superspreader(&t),
    ]
}

fn net_plan_mode(queries: &[Query], tr: &Trace, mode: PlanMode) -> GlobalPlan {
    let windows: Vec<&[sonata::packet::Packet]> = tr.windows(3_000).map(|(_, p)| p).collect();
    let cfg = PlannerConfig {
        mode,
        cost: sonata::planner::costs::CostConfig {
            levels: Some(vec![8, 32]),
            ..Default::default()
        },
        ..Default::default()
    };
    plan_queries(queries, &windows, &cfg).unwrap()
}

fn net_plan(queries: &[Query], tr: &Trace) -> GlobalPlan {
    net_plan_mode(queries, tr, PlanMode::Sonata)
}

fn config(transport: TransportKind, workers: usize, faults: FaultPlan) -> RuntimeConfig {
    RuntimeConfig {
        transport,
        workers,
        faults,
        ..RuntimeConfig::default()
    }
}

fn run(plan: &GlobalPlan, tr: &Trace, cfg: RuntimeConfig) -> TelemetryReport {
    let mut rt = Runtime::new(plan, cfg).unwrap();
    rt.process_trace(tr).unwrap()
}

fn run_threaded(plan: &GlobalPlan, tr: &Trace, cfg: RuntimeConfig) -> TelemetryReport {
    let mut rt = Runtime::new(plan, cfg).unwrap();
    rt.process_trace_threaded(tr).unwrap()
}

#[test]
fn tcp_is_bit_identical_to_loopback_across_catalog_and_seeds() {
    for seed in net_seeds() {
        let tr = net_trace(3, seed);
        let queries = net_queries();
        for mode in [PlanMode::Sonata, PlanMode::AllSp] {
            let plan = net_plan_mode(&queries, &tr, mode);
            let loopback = run(
                &plan,
                &tr,
                config(TransportKind::Loopback, 1, FaultPlan::none()),
            );
            let tcp = run(&plan, &tr, config(TransportKind::Tcp, 1, FaultPlan::none()));
            assert_eq!(
                loopback.windows, tcp.windows,
                "seed {seed}, mode {mode:?}: TCP diverged from Loopback"
            );
        }
    }
}

#[test]
fn loopback_default_is_bit_identical_to_default_config() {
    // `TransportKind::Loopback` IS the default: a config that never
    // mentions the transport must run the exact same bytes through the
    // exact same path.
    let seed = net_seeds()[0];
    let tr = net_trace(3, seed);
    let queries = net_queries();
    let plan = net_plan(&queries, &tr);
    let explicit = run(
        &plan,
        &tr,
        config(TransportKind::Loopback, 1, FaultPlan::none()),
    );
    let default = {
        let mut rt = Runtime::new(&plan, RuntimeConfig::default()).unwrap();
        rt.process_trace(&tr).unwrap()
    };
    assert_eq!(explicit.windows, default.windows);
}

#[test]
fn threaded_tcp_driver_matches_the_single_threaded_run() {
    // Switch and stream processor on separate OS threads, talking only
    // through the socket: window-lockstep credits make the interleaving
    // deterministic, so the reports stay bit-identical.
    for seed in net_seeds() {
        let tr = net_trace(3, seed);
        let queries = net_queries();
        let plan = net_plan(&queries, &tr);
        let single = run(
            &plan,
            &tr,
            config(TransportKind::Loopback, 1, FaultPlan::none()),
        );
        for transport in [TransportKind::Loopback, TransportKind::Tcp] {
            let threaded = run_threaded(&plan, &tr, config(transport, 1, FaultPlan::none()));
            assert_eq!(
                single.windows, threaded.windows,
                "seed {seed}, {transport:?}: threaded driver diverged"
            );
        }
    }
}

#[test]
fn tcp_matches_loopback_at_every_shard_count() {
    let seed = net_seeds()[0];
    let tr = net_trace(2, seed);
    let queries = net_queries();
    let plan = net_plan(&queries, &tr);
    let baseline = run(
        &plan,
        &tr,
        config(TransportKind::Loopback, 1, FaultPlan::none()),
    );
    for workers in [1usize, 2, 4, 8] {
        let tcp = run(
            &plan,
            &tr,
            config(TransportKind::Tcp, workers, FaultPlan::none()),
        );
        assert_eq!(
            baseline.windows, tcp.windows,
            "{workers} workers over TCP diverged from the single-shard Loopback run"
        );
    }
}

#[test]
fn transport_seam_faults_are_identical_on_both_backends() {
    // Report faults now live at the transport seam; the same seeded
    // plan must produce the same verdict sequence — and therefore the
    // same degraded outputs — whether the frames cross a socket or an
    // in-process queue.
    for seed in net_seeds() {
        let tr = net_trace(3, seed);
        let queries = net_queries();
        // All-SP plans mirror every packet, so the egress actually
        // carries per-packet reports to fault.
        let plan = net_plan_mode(&queries, &tr, PlanMode::AllSp);
        let faults = FaultPlan {
            seed,
            report: ReportFaults {
                drop_per_mille: 150,
                duplicate_per_mille: 150,
                delay_per_mille: 150,
                reorder_per_mille: 100,
                delay_packets: 6,
            },
            ..FaultPlan::default()
        };
        let loopback = run(&plan, &tr, config(TransportKind::Loopback, 1, faults));
        let tcp = run(&plan, &tr, config(TransportKind::Tcp, 1, faults));
        assert!(
            loopback.total_faults().get(FaultKind::ReportDrop) > 0,
            "seed {seed}: the plan must actually inject"
        );
        assert_eq!(loopback.windows.len(), tcp.windows.len(), "seed {seed}");
        for (l, t) in loopback.windows.iter().zip(&tcp.windows) {
            assert_eq!(
                l, t,
                "seed {seed}, window {}: faulted runs diverged",
                l.window
            );
        }
    }
}

/// One window of `300 × slots` mixed packets.
fn wide_window(slots: u64) -> Trace {
    let mut pkts = Vec::new();
    for s in 0..slots {
        let mut slot = seeded_packets(1_000 + s, 300);
        for p in &mut slot {
            p.ts_nanos += s * 300_000;
        }
        pkts.extend(slot);
    }
    Trace::new(pkts)
}

/// `(label, bytes)` of every traced data frame the collector received.
fn rx_frames(rt: &Runtime) -> Vec<(String, u64)> {
    let frames = rt.obs().events().into_iter().filter_map(|e| match e.kind {
        sonata::obs::EventKind::NetFrame { kind, bytes, .. } if kind != "control" => {
            Some((kind, bytes))
        }
        _ => None,
    });
    frames.collect()
}

#[test]
fn an_oversized_window_ships_several_block_frames_and_the_same_report() {
    // All-SP mirrors every packet for both queries: 30 k packets of
    // ~60 bytes, plus their rows, is past the 1 MiB chunk budget.
    let tr = wide_window(100);
    assert_eq!(tr.windows(3_000).count(), 1);
    let plan = net_plan_mode(&net_queries(), &tr, PlanMode::AllSp);
    let one_by_one = run(
        &plan,
        &tr,
        RuntimeConfig {
            force_reference_path: true,
            ..config(TransportKind::Loopback, 1, FaultPlan::none())
        },
    );
    for transport in [TransportKind::Loopback, TransportKind::Tcp] {
        let chunked = run(&plan, &tr, config(transport, 1, FaultPlan::none()));
        assert_eq!(chunked.windows, one_by_one.windows, "{transport:?}");
        // The same run traced, to see the frames.
        let cfg = RuntimeConfig {
            obs: ObsHandle::enabled(),
            ..config(transport, 1, FaultPlan::none())
        };
        let mut rt = Runtime::new(&plan, cfg).unwrap();
        let traced = rt.process_trace(&tr).unwrap();
        assert_eq!(traced.windows[0].alerts, one_by_one.windows[0].alerts);
        let frames = rx_frames(&rt);
        let blocks: Vec<u64> = (frames.iter())
            .filter(|(kind, _)| kind == "report_blocks")
            .map(|(_, bytes)| *bytes)
            .collect();
        assert!(blocks.len() >= 2, "{transport:?}: {frames:?}");
        // What the transport saw on the wire: nothing on Loopback; on
        // TCP every chunk but the last is just past the budget.
        let budget = sonata::pisa::CHUNK_BYTES as u64;
        match transport {
            TransportKind::Loopback => assert!(frames.iter().all(|(_, bytes)| *bytes == 0)),
            TransportKind::Tcp => {
                let (last, full) = blocks.split_last().unwrap();
                assert!(full
                    .iter()
                    .all(|b| (budget..budget + budget / 8).contains(b)));
                assert!(*last > 0 && *last < budget + budget / 8);
            }
        }
    }
}

#[test]
fn block_frames_carry_a_third_of_the_per_report_bytes() {
    // Filter-DP over the top-8 catalog: the switch filters, and a
    // packet several queries keep crosses the socket. One frame per
    // report states the task, the column names and the packet once per
    // report; blocks state them once per chunk.
    let tr = net_trace(3, net_seeds()[0]);
    let plan = net_plan_mode(&catalog::top8(&low_thresholds()), &tr, PlanMode::FilterDp);
    let bytes_tx = |force_reference_path: bool| {
        let cfg = RuntimeConfig {
            force_reference_path,
            obs: ObsHandle::enabled(),
            ..config(TransportKind::Tcp, 1, FaultPlan::none())
        };
        let mut rt = Runtime::new(&plan, cfg).unwrap();
        let report = rt.process_trace(&tr).unwrap();
        assert!(report.windows.iter().all(|w| w.tuples_to_sp > 0));
        let sent = rt.obs().snapshot();
        let sent = sent.counter("sonata_net_bytes_total{dir=\"tx\",peer=\"switch-0\"}");
        (report, sent.unwrap())
    };
    let (by_block, block_bytes) = bytes_tx(false);
    let (by_report, report_bytes) = bytes_tx(true);
    for (b, r) in by_block.windows.iter().zip(&by_report.windows) {
        assert_eq!((b.tuples_to_sp, &b.alerts), (r.tuples_to_sp, &r.alerts));
    }
    assert!(
        block_bytes * 3 <= report_bytes,
        "blocks sent {block_bytes} bytes, single reports {report_bytes}"
    );
}
