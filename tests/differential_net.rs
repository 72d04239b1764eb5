//! Differential suite for the wire/transport layer (`sonata-net`).
//!
//! The transport is supposed to be invisible: a run over real TCP
//! sockets must produce *bit-identical* `WindowReport`s to the
//! in-process `Loopback` default, across the query catalog, across
//! seeds, across shard counts, and under transport-seam fault
//! injection.
//!
//! Seeds come from `SONATA_NET_SEEDS` (comma-separated, default
//! `7,23`) so CI's net-smoke job can pin its own set.

use sonata::core::driver::deploy;
use sonata::packet::wire::{ALL_FIELDS, LAZY_FIELDS};
use sonata::pisa::{ReportBatch, Switch, SwitchConstraints};
use sonata::prelude::*;
use sonata::query::Query;
use sonata::stream::testsupport::{low_thresholds, seeded_packets};
use sonata::traffic::trace::EvaluationTrace;

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

/// All-SP over the whole catalog, and over it without zorro: zorro
/// joins raw packets, so every field rides; without it the DNS query
/// name is still read, so the bytes ride beside a narrower set of
/// columns. Over TCP either plan must match Loopback and the reference
/// path, which ships each report's whole packet, bit for bit.
#[test]
fn tcp_ships_lazy_fields_bit_identically_to_loopback_and_the_reference() {
    let tr = EvaluationTrace::generate(11, 2, 3_000, 0.05).trace;
    let all = catalog::all(&Thresholds::default());
    let without_zorro: Vec<Query> = all.iter().filter(|q| q.name != "zorro").cloned().collect();
    let mut masks = Vec::new();
    for queries in [all, without_zorro] {
        let plan = net_plan_mode(&queries, &tr, PlanMode::AllSp);
        let mask = deploy(&plan).unwrap().program.mirror_mask();
        assert_ne!(mask & LAZY_FIELDS, 0, "{mask:x}");
        masks.push(mask);
        let loopback = run(
            &plan,
            &tr,
            config(TransportKind::Loopback, 1, FaultPlan::none()),
        );
        assert!(loopback.windows.iter().any(|w| !w.alerts.is_empty()));
        let reference = run(
            &plan,
            &tr,
            RuntimeConfig {
                oracle: true,
                ..config(TransportKind::Loopback, 1, FaultPlan::none())
            },
        );
        let tcp = run(&plan, &tr, config(TransportKind::Tcp, 1, FaultPlan::none()));
        assert_eq!(tcp.windows, loopback.windows, "{mask:x}: TCP vs Loopback");
        assert_eq!(tcp.windows, reference.windows, "{mask:x}: TCP vs reference");
    }
    assert_eq!(masks[0], ALL_FIELDS);
    assert_ne!(masks[1], ALL_FIELDS);
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
    // All-SP mirrors every packet for both queries: 60 k packets, each
    // ~16 bytes of columns plus two rows' indices, is past the 1 MiB
    // chunk budget. The switch runs the window a slice at a time, and
    // each slice's reports are far under the budget, so each slice
    // ships as one frame (the budget's own split is
    // `one_over_budget_batch_ships_budget_sized_block_frames`).
    let tr = wide_window(200);
    assert_eq!(tr.windows(3_000).count(), 1);
    let slices = tr.packets().len().div_ceil(sonata::core::SLICE_PACKETS);
    let plan = net_plan_mode(&net_queries(), &tr, PlanMode::AllSp);
    let one_by_one = run(
        &plan,
        &tr,
        RuntimeConfig {
            oracle: true,
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
        assert!(slices >= 2);
        assert_eq!(blocks.len(), slices, "{transport:?}: {frames:?}");
        // What the transport saw on the wire: nothing on Loopback; on
        // TCP one frame per slice, each under the budget.
        let budget = sonata::pisa::CHUNK_BYTES as u64;
        match transport {
            TransportKind::Loopback => assert!(frames.iter().all(|(_, bytes)| *bytes == 0)),
            TransportKind::Tcp => assert!(blocks.iter().all(|&b| b > 0 && b < budget)),
        }
    }
}

#[test]
fn one_over_budget_batch_ships_budget_sized_block_frames() {
    // The same 60 k-packet All-SP window as one `process_batch`: its
    // reports are past the 1 MiB chunk budget, so `send_batch_reports`
    // cuts them into several frames, the bound that keeps any batch
    // under the codec's frame limit however many rows a packet carries.
    use sonata::net::{tcp_pair, CollectorEndpoint, Frame, NetMetrics, SwitchEndpoint};
    let tr = wide_window(200);
    let plan = net_plan_mode(&net_queries(), &tr, PlanMode::AllSp);
    let deployed = deploy(&plan).unwrap();
    let mut switch = Switch::load(deployed.program, &SwitchConstraints::default()).unwrap();
    let arena = sonata::packet::PacketArena::from_packets(tr.packets());
    let mut out = ReportBatch::new();
    switch.process_batch(&arena.batch(), &mut out);

    let obs = ObsHandle::enabled();
    let metrics = NetMetrics::new(&obs);
    let (sw_t, sp_t) = tcp_pair(&metrics, Default::default()).unwrap();
    let faults = sonata::faults::FaultInjector::disabled();
    let mut sw = SwitchEndpoint::new(Box::new(sw_t), faults, metrics.clone(), "sw", 7, 0).unwrap();
    let mut sp = CollectorEndpoint::new(Box::new(sp_t), metrics, 7, 0);
    sw.open_window(0, tr.packets().len() as u64).unwrap();
    sw.send_batch_reports(&out, arena.batch(), || Ok::<_, sonata::net::NetError>(()))
        .unwrap();
    sw.close_window(0, 0, 0, 0).unwrap();
    let mut shipped = Vec::new();
    loop {
        match sp.recv_frame().unwrap() {
            Frame::ReportBlocks(chunk) => shipped.extend(chunk.reports()),
            Frame::WindowClose { .. } => break,
            _ => {}
        }
    }
    let blocks: Vec<u64> = (obs.events().into_iter())
        .filter_map(|e| match e.kind {
            sonata::obs::EventKind::NetFrame { kind, bytes, .. } if kind == "report_blocks" => {
                Some(bytes)
            }
            _ => None,
        })
        .collect();
    assert!(blocks.len() >= 2, "{blocks:?}");
    // On TCP every chunk but the last is just past the budget.
    let budget = sonata::pisa::CHUNK_BYTES as u64;
    let (last, full) = blocks.split_last().unwrap();
    assert!(full
        .iter()
        .all(|b| (budget..budget + budget / 8).contains(b)));
    assert!(*last > 0 && *last < budget + budget / 8);
    // The same reports: every row's task, seq, entry and cells (the
    // mirror mask names no lazy field, so no packet rides).
    let key = |r: &sonata::pisa::Report| (r.task, r.seq, r.kind, r.entry_op, r.columns.clone());
    let mut sent: Vec<_> = (0..out.packets())
        .flat_map(|i| {
            out.packet_reports(i, arena.batch())
                .map(|r| key(&r.to_report()))
        })
        .collect();
    let mut shipped: Vec<_> = shipped.iter().map(key).collect();
    assert_eq!(sent.len(), out.total_reports());
    sent.sort_by_key(|k| (k.0, k.1));
    shipped.sort_by_key(|k| (k.0, k.1));
    assert!(sent == shipped);
}

#[test]
fn block_frames_ship_at_most_64_bytes_per_mirrored_packet() {
    // Filter-DP over the top-8 catalog: the switch filters, and a
    // packet several queries keep crosses the socket once per window,
    // as the seven header fields the queries read, with a 4-byte index
    // per row that carries it. One frame per report states the task,
    // the column names and the whole packet once per report.
    let tr = net_trace(3, net_seeds()[0]);
    let plan = net_plan_mode(&catalog::top8(&low_thresholds()), &tr, PlanMode::FilterDp);
    let traced = |oracle: bool| {
        let cfg = RuntimeConfig {
            oracle,
            obs: ObsHandle::enabled(),
            ..config(TransportKind::Tcp, 1, FaultPlan::none())
        };
        let mut rt = Runtime::new(&plan, cfg).unwrap();
        let report = rt.process_trace(&tr).unwrap();
        assert!(report.windows.iter().all(|w| w.tuples_to_sp > 0));
        (report, rx_frames(&rt))
    };
    let (by_block, frames) = traced(false);
    let (by_report, _) = traced(true);
    for (b, r) in by_block.windows.iter().zip(&by_report.windows) {
        assert_eq!((b.tuples_to_sp, &b.alerts), (r.tuples_to_sp, &r.alerts));
    }
    let block_bytes: u64 = (frames.iter())
        .filter(|(kind, _)| kind == "report_blocks")
        .map(|(_, bytes)| *bytes)
        .sum();
    // The packets the switch mirrors, each carried once per window.
    let deployed = deploy(&plan).unwrap();
    let mut switch = Switch::load(deployed.program, &SwitchConstraints::default()).unwrap();
    let mut mirrored = 0;
    for (_, packets) in tr.windows(3_000) {
        let arena = sonata::packet::PacketArena::from_packets(packets);
        let mut out = ReportBatch::new();
        switch.process_batch(&arena.batch(), &mut out);
        let carried = out.blocks().iter().flat_map(|b| b.pkts.iter().copied());
        mirrored += carried.collect::<std::collections::BTreeSet<u32>>().len() as u64;
        switch.end_window();
    }
    assert!(mirrored > 100, "{mirrored} packets mirrored");
    // The reading, for whoever moves the bound (`-- --nocapture`).
    eprintln!("{block_bytes} bytes of blocks for {mirrored} mirrored packets");
    assert!(
        block_bytes <= 64 * mirrored,
        "{} bytes of blocks per mirrored packet",
        block_bytes / mirrored
    );
}
