//! Differential suite for the multi-switch telemetry fabric.
//!
//! The fabric is supposed to be invisible: splitting a tap across N
//! switches feeding M collector shards must produce *bit-identical*
//! merged `WindowReport`s to the single-switch [`Runtime`] on the
//! unsplit trace — across the query catalog, across seeds, across
//! (N, M) topologies, and across transports. The one place the fabric
//! is *allowed* to differ is under targeted faults: killing one
//! switch's reports may only affect that switch's flow-sticky key
//! range, surfaced as a `DegradedWindow`, never as silent corruption.
//!
//! Seeds come from `SONATA_FABRIC_SEEDS` (comma-separated, default
//! `7,23`) so CI's bench-smoke job can pin its own set.
//!
//! [`Runtime`]: sonata::prelude::Runtime

use sonata::prelude::*;
use sonata::query::Query;
use sonata::stream::testsupport::{low_thresholds, seeded_packets};
use sonata::traffic::trace::EvaluationTrace;

const WINDOW_NS: u64 = 3_000_000_000;

/// (switches, shards) matrix from the issue: {1,2,4} × {1,2}.
const TOPOLOGIES: [(usize, usize); 6] = [(1, 1), (1, 2), (2, 1), (2, 2), (4, 1), (4, 2)];

fn fabric_seeds() -> Vec<u64> {
    std::env::var("SONATA_FABRIC_SEEDS")
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
fn fabric_trace(windows: u64, seed: u64) -> Trace {
    Trace::new(fabric_packets(windows, seed))
}

fn fabric_packets(windows: u64, seed: u64) -> Vec<sonata::packet::Packet> {
    let mut pkts = Vec::new();
    for w in 0..windows {
        let mut chunk = seeded_packets(seed.wrapping_add(w), 300);
        for p in &mut chunk {
            p.ts_nanos += w * WINDOW_NS;
        }
        pkts.extend(chunk);
    }
    pkts
}

fn fabric_queries() -> Vec<Query> {
    let t = low_thresholds();
    vec![
        catalog::newly_opened_tcp_conns(&t),
        catalog::superspreader(&t),
    ]
}

fn plan_for(mode: PlanMode, queries: &[Query], tr: &Trace) -> GlobalPlan {
    let windows: Vec<&[sonata::packet::Packet]> = tr.windows(3_000).map(|(_, p)| p).collect();
    let cfg = PlannerConfig {
        mode,
        cost: sonata::planner::costs::CostConfig {
            levels: Some(vec![8, 32]),
            ..Default::default()
        },
        ..PlannerConfig::default()
    };
    plan_queries(queries, &windows, &cfg).unwrap()
}

fn config(
    topology: Option<(usize, usize)>,
    transport: TransportKind,
    faults: FaultPlan,
) -> RuntimeConfig {
    RuntimeConfig {
        transport,
        faults,
        topology: topology.map(|(n, m)| TopologyConfig::new(n, m)),
        ..RuntimeConfig::default()
    }
}

fn run_single(plan: &GlobalPlan, tr: &Trace, cfg: RuntimeConfig) -> TelemetryReport {
    let mut rt = Runtime::new(plan, cfg).unwrap();
    rt.process_trace(tr).unwrap()
}

fn run_fabric(plan: &GlobalPlan, tr: &Trace, cfg: RuntimeConfig) -> TelemetryReport {
    run_fabric_fed(plan, tr, cfg).0
}

/// [`run_fabric`], and how many tuples its jobs were fed before their
/// window closed.
fn run_fabric_fed(plan: &GlobalPlan, tr: &Trace, cfg: RuntimeConfig) -> (TelemetryReport, u64) {
    let mut fab = Fabric::new(plan, cfg).unwrap();
    let report = fab.process_trace(tr).unwrap();
    (report, fab.engine_counters().tuples_fed_mid_window)
}

/// The fabric equivalence contract. Every *result* field is
/// bit-identical to the single-switch baseline: alerts, per-query
/// tuple attribution, packet counts, tuples to the stream processor,
/// filter entries, update latency, degraded markers. Collision shunts
/// (and the replan flag derived from them) are switch-local physics —
/// each switch hashes only its own key subset, and multi-array
/// overflow placement is population-dependent — so they are exact for
/// N = 1 and excluded from the contract otherwise; what matters is
/// that differing shunt patterns never change the merged *results*.
fn assert_equivalent(baseline: &TelemetryReport, fabric: &TelemetryReport, n: usize, ctx: &str) {
    assert_eq!(baseline.windows.len(), fabric.windows.len(), "{ctx}");
    for (b, f) in baseline.windows.iter().zip(&fabric.windows) {
        let w = b.window;
        assert_eq!(b.window, f.window, "{ctx}");
        assert_eq!(b.packets, f.packets, "{ctx} window {w}");
        assert_eq!(b.tuples_to_sp, f.tuples_to_sp, "{ctx} window {w}");
        assert_eq!(b.tuples_per_query, f.tuples_per_query, "{ctx} window {w}");
        assert_eq!(b.alerts, f.alerts, "{ctx} window {w}");
        assert_eq!(
            b.filter_entries_written, f.filter_entries_written,
            "{ctx} window {w}"
        );
        assert_eq!(b.update_latency, f.update_latency, "{ctx} window {w}");
        assert_eq!(b.degraded, f.degraded, "{ctx} window {w}");
        if n == 1 {
            assert_eq!(
                b, f,
                "{ctx} window {w}: 1-switch fabric must be bit-identical"
            );
        }
    }
}

/// The headline equivalence: every catalog query, the full (N, M)
/// matrix, merged fabric reports bit-identical to the single-switch
/// baseline on the unsplit evaluation trace.
#[test]
fn fabric_is_bit_identical_across_catalog_and_topologies() {
    let tr = EvaluationTrace::generate(11, 2, 3_000, 0.05).trace;
    let queries = catalog::all(&Thresholds::default());
    for mode in [PlanMode::MaxDp, PlanMode::Sonata] {
        let plan = plan_for(mode, &queries, &tr);
        let baseline = run_single(
            &plan,
            &tr,
            config(None, TransportKind::Loopback, FaultPlan::none()),
        );
        for (n, m) in TOPOLOGIES {
            let fabric = run_fabric(
                &plan,
                &tr,
                config(Some((n, m)), TransportKind::Loopback, FaultPlan::none()),
            );
            assert_equivalent(&baseline, &fabric, n, &format!("{mode:?} {n}x{m}"));
        }
    }
}

/// The same equivalence on refined (feed-forward) plans across pinned
/// seeds: dynamic-filter updates are broadcast to every switch, so the
/// refinement trajectory must match the single-switch run exactly.
#[test]
fn refined_fabric_matches_baseline_across_seeds() {
    for seed in fabric_seeds() {
        let tr = fabric_trace(3, seed);
        let queries = fabric_queries();
        let plan = plan_for(PlanMode::Sonata, &queries, &tr);
        let baseline = run_single(
            &plan,
            &tr,
            config(None, TransportKind::Loopback, FaultPlan::none()),
        );
        for (n, m) in TOPOLOGIES {
            let fabric = run_fabric(
                &plan,
                &tr,
                config(Some((n, m)), TransportKind::Loopback, FaultPlan::none()),
            );
            assert_equivalent(&baseline, &fabric, n, &format!("seed {seed}, {n}x{m}"));
        }
    }
}

/// Transport independence: a fabric whose switches talk to their
/// collector shards over real TCP sockets (one listener per switch,
/// per-peer `Hello` handshakes) matches both the Loopback fabric and
/// the single-switch baseline.
#[test]
fn tcp_fabric_is_bit_identical_to_loopback_and_baseline() {
    let seed = fabric_seeds()[0];
    let tr = fabric_trace(3, seed);
    let queries = fabric_queries();
    let plan = plan_for(PlanMode::Sonata, &queries, &tr);
    let baseline = run_single(
        &plan,
        &tr,
        config(None, TransportKind::Loopback, FaultPlan::none()),
    );
    for (n, m) in [(2, 2), (4, 2)] {
        let loopback = run_fabric(
            &plan,
            &tr,
            config(Some((n, m)), TransportKind::Loopback, FaultPlan::none()),
        );
        let tcp = run_fabric(
            &plan,
            &tr,
            config(Some((n, m)), TransportKind::Tcp, FaultPlan::none()),
        );
        assert_equivalent(&baseline, &loopback, n, &format!("{n}x{m} loopback"));
        // Two fabrics of the same shape differ only in transport: the
        // reports must be bit-identical, shunts included.
        assert_eq!(
            loopback.windows, tcp.windows,
            "{n}x{m}: TCP fabric diverged"
        );
    }
}

/// A plan whose mirrors carry packet bytes beside their columns — All-SP
/// over the whole catalog, where zorro searches the payload and DNS
/// tunneling reads the query name — over a TCP fabric matches the
/// Loopback fabric bit for bit, and the single-switch reference path,
/// which ships each report's whole packet, in every result.
#[test]
fn tcp_fabric_ships_lazy_fields_like_loopback_and_the_reference() {
    let tr = EvaluationTrace::generate(11, 2, 3_000, 0.05).trace;
    let plan = plan_for(PlanMode::AllSp, &catalog::all(&Thresholds::default()), &tr);
    let reference = run_single(
        &plan,
        &tr,
        RuntimeConfig {
            oracle: true,
            ..config(None, TransportKind::Loopback, FaultPlan::none())
        },
    );
    let (n, m) = (2, 2);
    // Two workers: every window past the first carries more tuples than
    // the job pool's floor, so jobs take in rows while the switches run.
    let (loopback, fed) = run_fabric_fed(
        &plan,
        &tr,
        RuntimeConfig {
            workers: 2,
            ..config(Some((n, m)), TransportKind::Loopback, FaultPlan::none())
        },
    );
    assert!(fed > 0, "no tuple reached a job before its window closed");
    let tcp = run_fabric(
        &plan,
        &tr,
        config(Some((n, m)), TransportKind::Tcp, FaultPlan::none()),
    );
    assert_equivalent(&reference, &tcp, n, "2x2 TCP vs reference");
    assert_eq!(loopback.windows, tcp.windows, "2x2: TCP fabric diverged");
}

/// A partition that ends at a `distinct` reports each key the first
/// time its switch sees it. The partitioner is flow-sticky on the
/// 5-tuple, so the flows of one (sIP, dIP) pair land on either switch
/// of a 2×1 fabric, and both report the pair: the fabric must drop the
/// repeat before the stream processor counts distinct pairs, and must
/// not hand the job any row before that dedup — its windows are past
/// the job pool's floor, and at eight workers every job is homed on a
/// helper. The plan is Max-DP cut back to the `distinct`: the planner
/// places the whole superspreader query on the switch when it fits.
#[test]
fn a_partition_ending_at_distinct_is_deduped_across_switches() {
    let mut pkts = Vec::new();
    for w in 0..3u64 {
        for (i, (src, dst)) in (0..40u32)
            .flat_map(|s| (0..200u32).map(move |d| (s, d)))
            .enumerate()
        {
            // Two flows per pair, a source port apart.
            for sport in [1_000, 1_001] {
                let mut p = PacketBuilder::tcp_raw(0x0a00_0000 + src, sport, 0xc0a8_0000 + dst, 80)
                    .flags(TcpFlags::SYN)
                    .build();
                p.ts_nanos = w * WINDOW_NS + i as u64 * 100;
                pkts.push(p);
            }
        }
    }
    let tr = Trace::new(pkts);
    let pairs = 40 * 200;
    let queries = [catalog::superspreader(&Thresholds {
        superspreader: 150,
        ..Thresholds::default()
    })];
    let windows: Vec<&[sonata::packet::Packet]> = tr.windows(3_000).map(|(_, p)| p).collect();
    let cfg = PlannerConfig {
        mode: PlanMode::MaxDp,
        cost: sonata::planner::costs::CostConfig {
            levels: Some(vec![32]),
            ..Default::default()
        },
        ..PlannerConfig::default()
    };
    let mut plan = plan_queries(&queries, &windows, &cfg).unwrap();
    // Keep the map and the distinct (the first stateful unit) on the
    // switch; the stream processor resumes after the distinct.
    for level in &mut plan.queries[0].levels {
        for branch in &mut level.branches {
            assert!(branch.units > 2, "Max-DP keeps the query on the switch");
            branch.units = 2;
            branch.stages.truncate(2);
            branch.sizings.truncate(1);
        }
    }
    let eight = |topology| RuntimeConfig {
        workers: 8,
        ..config(topology, TransportKind::Loopback, FaultPlan::none())
    };
    let baseline = run_single(&plan, &tr, eight(None));
    for w in &baseline.windows {
        // One row per pair reaches the stream processor: the partition
        // ends at the distinct.
        assert_eq!(w.tuples_to_sp, pairs, "window {}", w.window);
        assert_eq!(w.alerts.iter().map(|(_, a)| a.len()).sum::<usize>(), 40);
    }
    let (fabric, fed) = run_fabric_fed(&plan, &tr, eight(Some((2, 1))));
    assert_equivalent(&baseline, &fabric, 2, "2x1 distinct partition");
    assert_eq!(
        fed, 0,
        "the deduped job took in rows before its window closed"
    );
}

/// A switch cut mid-window is a straggler: the fabric discards what it
/// reported that window. With windows past the job pool's floor and
/// every job but one homed on a helper, the jobs take in rows while the
/// switches run — but never the cut switch's, so the run reads the
/// same as with one worker, where nothing is handed off before close.
#[test]
fn a_cut_switchs_rows_never_reach_a_job() {
    let tr = EvaluationTrace::generate(7, 4, 3_000, 0.02).trace;
    let plan = plan_for(PlanMode::AllSp, &catalog::top8(&Thresholds::default()), &tr);
    let run = |workers| {
        let cfg = RuntimeConfig {
            workers,
            ..config(Some((2, 1)), TransportKind::Loopback, FaultPlan::none())
        };
        let mut fab = Fabric::new(&plan, cfg).unwrap();
        fab.set_outage(SwitchOutage {
            switch: 1,
            from_window: 2,
            cut_after: 1_000,
            rejoin_window: 3,
        })
        .unwrap();
        let report = fab.process_trace(&tr).unwrap();
        (report, fab.engine_counters().tuples_fed_mid_window)
    };
    let (inline, fed) = run(1);
    assert_eq!(fed, 0);
    let cut = &inline.windows[2];
    assert_eq!(cut.degraded.map(|d| d.straggler_switches), Some(0b10));
    assert!(cut.tuples_to_sp > 6_144, "{} tuples", cut.tuples_to_sp);
    let (streamed, fed) = run(8);
    assert!(fed > 0, "no tuple reached a job before its window closed");
    assert_eq!(streamed.windows, inline.windows);
}

/// One switch labelled with two collector shards runs the same one job
/// pool as the runtime: even under full fault injection (egress,
/// worker, boundary seams) the two must produce bit-identical reports
/// — including the degraded markers, at both rungs of the crash
/// ladder — because the per-switch and fabric-level injectors replay
/// the same seeded verdict sequences per domain.
#[test]
fn one_switch_two_shard_fabric_matches_runtime_under_faults() {
    for seed in fabric_seeds() {
        let tr = fabric_trace(3, seed);
        let queries = fabric_queries();
        let plan = plan_for(PlanMode::AllSp, &queries, &tr);
        let faults = FaultPlan {
            seed,
            report: ReportFaults {
                drop_per_mille: 150,
                duplicate_per_mille: 150,
                delay_per_mille: 150,
                reorder_per_mille: 100,
                delay_packets: 6,
            },
            boundary: BoundaryFaults {
                fail_per_mille: 200,
                consecutive: 1,
            },
            ..FaultPlan::default()
        };
        // At 2 the retry crashes too and the reference rung runs.
        for consecutive_crashes in [1, 2] {
            let faults = FaultPlan {
                worker: WorkerFaults {
                    crash_per_mille: 200,
                    consecutive_crashes,
                    ..WorkerFaults::default()
                },
                ..faults
            };
            let single = run_single(&plan, &tr, config(None, TransportKind::Loopback, faults));
            let fabric = run_fabric(
                &plan,
                &tr,
                config(Some((1, 2)), TransportKind::Loopback, faults),
            );
            assert!(
                single.total_faults().get(FaultKind::ReportDrop) > 0,
                "seed {seed}: the plan must actually inject"
            );
            assert_eq!(
                single.windows, fabric.windows,
                "seed {seed}, {consecutive_crashes} crashes: faulted 1x2 fabric diverged from runtime"
            );
            let rung = |d: &DegradedWindow| d.reference_fallbacks > 0;
            let reached = fabric
                .windows
                .iter()
                .filter_map(|w| w.degraded.as_ref())
                .any(rung);
            assert_eq!(reached, consecutive_crashes == 2, "seed {seed}");
        }
    }
}

/// Fault isolation: dropping *all* of one switch's reports affects
/// only that switch's flow-sticky key range. The faulted fabric's
/// alerts and per-query tuple counts equal a clean single-switch run
/// over the trace minus the victim's partition, and every window is
/// marked degraded with the drops on record.
#[test]
fn targeted_switch_fault_affects_only_that_switchs_keys() {
    let seed = fabric_seeds()[0];
    let pkts = fabric_packets(3, seed);
    let tr = Trace::new(pkts.clone());
    let queries = fabric_queries();
    // All-SP plans mirror every packet, so the victim's egress
    // actually carries per-packet reports to drop.
    let plan = plan_for(PlanMode::AllSp, &queries, &tr);
    let topo = TopologyConfig::new(2, 1);
    let victim: usize = 1;

    let faults = FaultPlan {
        seed,
        report: ReportFaults {
            drop_per_mille: 1000,
            ..ReportFaults::default()
        },
        target_switch: Some(victim as u16),
        ..FaultPlan::default()
    };
    let fabric = run_fabric(&plan, &tr, {
        let mut cfg = config(None, TransportKind::Loopback, faults);
        cfg.topology = Some(topo.clone());
        cfg
    });

    // Clean baseline over the surviving partition only.
    let partitioner = topo.partitioner();
    let survivors: Vec<sonata::packet::Packet> = pkts
        .into_iter()
        .filter(|p| partitioner.assign(p) != victim)
        .collect();
    let reduced = run_single(
        &plan,
        &Trace::new(survivors),
        config(None, TransportKind::Loopback, FaultPlan::none()),
    );

    assert_eq!(fabric.windows.len(), reduced.windows.len());
    for (f, r) in fabric.windows.iter().zip(&reduced.windows) {
        assert_eq!(f.window, r.window);
        assert_eq!(
            f.alerts, r.alerts,
            "window {}: surviving switch's keys were disturbed",
            f.window
        );
        assert_eq!(
            f.tuples_per_query, r.tuples_per_query,
            "window {}",
            f.window
        );
        assert_eq!(f.tuples_to_sp, r.tuples_to_sp, "window {}", f.window);
        let d = f
            .degraded
            .as_ref()
            .expect("victim's dropped reports must mark the window degraded");
        assert!(
            d.injected.get(FaultKind::ReportDrop) > 0,
            "window {}: drops must be on record",
            f.window
        );
        assert_eq!(d.straggler_switches, 0, "drops are not stragglers");
    }
}
