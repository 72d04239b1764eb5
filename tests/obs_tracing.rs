//! Integration suite for fabric-wide distributed tracing and the
//! window latency waterfall.
//!
//! The tracing contract: every window of a run is **one trace**,
//! fabric-wide. Each live switch roots exactly one `window` span for
//! the (window, switch) pair; the trace id is a pure function of the
//! window index alone, so the collector-side spans — stitched from
//! the context that rode the wire in the frame headers — land in the
//! same trace as the switch-side spans without any out-of-band
//! agreement. The waterfall contract: every `WindowLatency` field is
//! the *same number* the `sonata_stage_ns{stage=...}` profiler
//! histogram observed, so the two views reconcile exactly (the merge
//! stage is shared with the stream engine's per-job merges and
//! reconciles as a `<=` bound instead).
//!
//! Golden snapshots (regenerate with `UPDATE_SNAPSHOTS=1`) pin the
//! span schema — which (process, span-name) lanes exist — and the
//! metric series schema — which `switch=`/`shard=`/`peer=`-labelled
//! series the metrics JSON carries — on a deterministic faulted 2×2
//! fabric fixture.

mod series;

use series::{assert_matches_snapshot, metric_series};
use sonata::obs::{EventKind, ObsHandle, TracedEvent};
use sonata::prelude::*;
use sonata::stream::testsupport::{low_thresholds, seeded_packets};
use std::collections::{BTreeMap, BTreeSet};

const WINDOW_NS: u64 = 3_000_000_000;

fn fabric_trace(windows: u64, seed: u64) -> Trace {
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

fn fabric_queries() -> Vec<sonata::query::Query> {
    let t = low_thresholds();
    vec![
        catalog::newly_opened_tcp_conns(&t),
        catalog::superspreader(&t),
    ]
}

fn plan_for(tr: &Trace) -> GlobalPlan {
    let windows: Vec<&[sonata::packet::Packet]> = tr.windows(3_000).map(|(_, p)| p).collect();
    let cfg = PlannerConfig {
        cost: sonata::planner::costs::CostConfig {
            levels: Some(vec![8, 32]),
            ..Default::default()
        },
        ..PlannerConfig::default()
    };
    plan_queries(&fabric_queries(), &windows, &cfg).unwrap()
}

/// Run an N×M fabric over the fixture trace with tracing enabled.
fn run_traced(n: usize, m: usize, faults: FaultPlan) -> (TelemetryReport, ObsHandle) {
    let tr = fabric_trace(3, 7);
    let plan = plan_for(&tr);
    let obs = ObsHandle::enabled();
    let mut fab = Fabric::new(
        &plan,
        RuntimeConfig {
            obs: obs.clone(),
            topology: Some(TopologyConfig::new(n, m)),
            faults,
            ..RuntimeConfig::default()
        },
    )
    .unwrap();
    let report = fab.process_trace(&tr).unwrap();
    (report, obs)
}

/// The distributed-trace spans of a run, grouped by trace id:
/// `(span, parent, name, process, window)` per span.
type SpansByTrace = BTreeMap<u64, Vec<(u64, u64, String, String, u64)>>;

fn spans_by_trace(events: &[TracedEvent]) -> SpansByTrace {
    let mut by_trace: SpansByTrace = BTreeMap::new();
    for e in events {
        if let EventKind::Span {
            trace,
            span,
            parent,
            name,
            process,
            window,
            ..
        } = &e.kind
        {
            by_trace.entry(*trace).or_default().push((
                *span,
                *parent,
                name.to_string(),
                process.clone(),
                *window,
            ));
        }
    }
    by_trace
}

/// Wire-propagated trace identity, across the topology matrix: every
/// window is exactly one trace; each live switch contributes exactly
/// one root `window` span; every non-root span's parent id resolves
/// to a span *in the same trace* (the collector-side spans were
/// parented from the context decoded off the frame headers, so a
/// stitching failure would surface as an orphan parent here).
#[test]
fn every_window_is_one_trace_with_per_switch_roots() {
    for (n, m) in [(1, 1), (2, 1), (2, 2), (4, 2)] {
        let (report, obs) = run_traced(n, m, FaultPlan::none());
        let by_trace = spans_by_trace(&obs.events());
        assert_eq!(
            by_trace.len(),
            report.windows.len(),
            "{n}x{m}: one trace per window"
        );
        for (trace, spans) in &by_trace {
            let windows: BTreeSet<u64> = spans.iter().map(|(_, _, _, _, w)| *w).collect();
            assert_eq!(
                windows.len(),
                1,
                "{n}x{m} trace {trace:#x} spans one window"
            );
            let roots: Vec<_> = spans
                .iter()
                .filter(|(_, parent, ..)| *parent == 0)
                .collect();
            assert_eq!(
                roots.len(),
                n,
                "{n}x{m} trace {trace:#x}: one root per live switch"
            );
            let root_procs: BTreeSet<&str> =
                roots.iter().map(|(_, _, _, p, _)| p.as_str()).collect();
            for s in 0..n {
                assert!(
                    root_procs.contains(format!("switch-{s}").as_str()),
                    "{n}x{m} trace {trace:#x}: switch-{s} must root a span"
                );
            }
            for (_, _, name, _, _) in &roots {
                assert_eq!(name, "window", "roots are window spans");
            }
            let ids: BTreeSet<u64> = spans.iter().map(|(span, ..)| *span).collect();
            assert_eq!(ids.len(), spans.len(), "{n}x{m}: span ids are unique");
            for (span, parent, name, process, _) in spans {
                if *parent != 0 {
                    assert!(
                        ids.contains(parent),
                        "{n}x{m} trace {trace:#x}: span {span:#x} ({process}/{name}) \
                         has orphan parent {parent:#x}"
                    );
                }
            }
            // The collector's spans joined the switch-rooted trace
            // purely via the wire-carried context.
            assert!(
                spans.iter().any(|(_, _, _, p, _)| p == "collector"),
                "{n}x{m} trace {trace:#x}: collector spans must stitch in"
            );
        }
    }
}

/// Trace ids are distinct across windows but *agree* across switches:
/// the id is derived from the window index alone, which is what lets
/// N switches that never talk to each other root into the same trace.
#[test]
fn trace_ids_are_deterministic_across_topologies() {
    let (_r1, obs1) = run_traced(2, 1, FaultPlan::none());
    let (_r2, obs2) = run_traced(4, 2, FaultPlan::none());
    let t1: BTreeSet<u64> = spans_by_trace(&obs1.events()).keys().copied().collect();
    let t2: BTreeSet<u64> = spans_by_trace(&obs2.events()).keys().copied().collect();
    assert_eq!(
        t1, t2,
        "same windows, same trace ids, independent of topology"
    );
}

/// The waterfall ↔ profiler reconciliation: per-stage sums across the
/// run's `WindowLatency` waterfalls equal the matching
/// `sonata_stage_ns` histogram sums *exactly* for every stage the
/// driver owns, and bound the shared merge histogram from below.
#[test]
fn window_latency_reconciles_exactly_with_stage_histograms() {
    for (n, m) in [(1, 1), (2, 2)] {
        let (report, _obs) = run_traced(n, m, FaultPlan::none());
        let lat = report.window_latency();
        assert!(lat.total_ns() > 0, "{n}x{m}: enabled obs must measure");
        let hist_sum = |stage: &str| -> u64 {
            report
                .metrics
                .histogram(&format!("sonata_stage_ns{{stage=\"{stage}\"}}"))
                .map(|h| h.sum)
                .unwrap_or(0)
        };
        for (stage, ns) in [
            ("packet_loop", lat.packet_loop_ns),
            ("window_dump", lat.dump_encode_ns),
            ("transport", lat.transport_ns),
            ("collector_drain", lat.collector_drain_ns),
            ("shard_execute", lat.shard_execute_ns),
        ] {
            assert_eq!(
                hist_sum(stage),
                ns,
                "{n}x{m}: waterfall {stage} must equal the histogram sum"
            );
        }
        // The merge histogram also sees the stream engine's per-job
        // merges, so the fabric's cross-switch merge bounds it.
        assert!(
            lat.merge_ns <= hist_sum("merge"),
            "{n}x{m}: waterfall merge exceeds the merge histogram"
        );
        // Straggler attribution: every window records one arrival per
        // live switch, and the straggler is one of them.
        for w in &report.windows {
            assert_eq!(w.latency.arrivals.len(), n, "{n}x{m} window {}", w.window);
            let switches: BTreeSet<u16> = w.latency.arrivals.iter().map(|a| a.switch).collect();
            assert_eq!(switches.len(), n, "{n}x{m}: arrivals are per-switch");
            assert!(w.latency.straggler().is_some());
        }
    }
}

/// Disabled observability zeroes the whole waterfall — the reports
/// stay bit-identical to pre-instrumentation runs.
#[test]
fn disabled_obs_keeps_the_waterfall_silent() {
    let tr = fabric_trace(2, 7);
    let plan = plan_for(&tr);
    let mut fab = Fabric::new(
        &plan,
        RuntimeConfig {
            topology: Some(TopologyConfig::new(2, 2)),
            ..RuntimeConfig::default()
        },
    )
    .unwrap();
    let report = fab.process_trace(&tr).unwrap();
    for w in &report.windows {
        assert_eq!(w.latency, WindowLatency::default(), "window {}", w.window);
    }
}

/// The faulted golden fixture: a 2×2 fabric under report/worker
/// faults, so degradation paths show up in the schemas too.
fn faulted_fixture() -> (TelemetryReport, ObsHandle) {
    run_traced(
        2,
        2,
        FaultPlan {
            seed: 7,
            report: ReportFaults {
                drop_per_mille: 100,
                duplicate_per_mille: 100,
                delay_per_mille: 100,
                reorder_per_mille: 50,
                delay_packets: 4,
            },
            worker: WorkerFaults {
                crash_per_mille: 300,
                consecutive_crashes: 1,
                ..WorkerFaults::default()
            },
            ..FaultPlan::default()
        },
    )
}

/// Span schema: the sorted set of `process name` lanes the faulted
/// fixture traces — which components emit which spans.
#[test]
fn span_schema_matches_golden_snapshot() {
    let (_report, obs) = faulted_fixture();
    let mut lanes = BTreeSet::new();
    for e in obs.events() {
        if let EventKind::Span { name, process, .. } = &e.kind {
            lanes.insert(format!("{process} {name}"));
        }
    }
    let mut out = lanes.into_iter().collect::<Vec<_>>().join("\n");
    out.push('\n');
    assert_matches_snapshot("trace_spans.snap", &out);
}

/// Metric series schema of the fabric fixture: one line per key of
/// the metrics JSON. The per-component view is in the keys themselves
/// — every switch, shard and peer series carries its label.
#[test]
fn fabric_series_schema_matches_golden_snapshot() {
    let (_report, obs) = faulted_fixture();
    let json = obs.snapshot().to_json();
    sonata::obs::validate_snapshot_json(&json).expect("snapshot JSON schema");
    assert_matches_snapshot("fabric_series.snap", &metric_series(&json));
}

/// The per-switch packet counters reconcile with the partition and
/// with the report: on a fault-free 2×2 fabric, each
/// `sonata_fabric_switch_packets{switch="s"}` is the number of packets
/// `partition_window` handed switch s over the trace, and the
/// counters sum to the report's packet total.
#[test]
fn per_switch_packet_counters_reconcile_with_the_report() {
    let tr = fabric_trace(3, 7);
    let plan = plan_for(&tr);
    let mut fab = Fabric::new(
        &plan,
        RuntimeConfig {
            obs: ObsHandle::enabled(),
            topology: Some(TopologyConfig::new(2, 2)),
            ..RuntimeConfig::default()
        },
    )
    .unwrap();
    let report = fab.process_trace(&tr).unwrap();
    let mut partitioned = [0u64; 2];
    let mut windows = 0;
    for (_, packets) in tr.windows(3_000) {
        for (s, part) in fab.partition_window(packets).iter().enumerate() {
            partitioned[s] += part.len() as u64;
        }
        windows += 1;
    }
    assert_eq!(windows, report.windows.len(), "same windowing as the run");
    let mut sum = 0;
    for (s, &expected) in partitioned.iter().enumerate() {
        let key = format!("sonata_fabric_switch_packets{{switch=\"{s}\"}}");
        let counted = report.metrics.counter(&key).expect(&key);
        assert_eq!(counted, expected, "{key}");
        sum += counted;
    }
    assert!(
        partitioned.iter().all(|&n| n > 0),
        "both switches see traffic"
    );
    assert_eq!(sum, report.total_packets());
}
