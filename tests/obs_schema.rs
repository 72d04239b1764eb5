//! Schema validation for the observability exports: run a real
//! multi-query workload with the `ObsHandle` enabled and check both
//! export documents — the metrics JSON and the JSONL event log — with
//! the crate's own validator and parser: the same check CI runs
//! against the quickstart example's artifacts, kept in-tree so no
//! external tooling (jq) is needed.

mod series;

use series::{assert_matches_snapshot, metric_series};
use sonata::obs::json::{parse, JsonValue};
use sonata::obs::{validate_snapshot_json, ObsHandle};
use sonata::prelude::*;
use std::collections::BTreeSet;

/// Run the two-query workload over a small trace with a SYN flood,
/// observability on, under `config` (its `obs` field is replaced).
fn run(config: RuntimeConfig) -> (TelemetryReport, ObsHandle) {
    let thresholds = Thresholds::default();
    let queries = vec![
        catalog::newly_opened_tcp_conns(&thresholds),
        catalog::superspreader(&thresholds),
    ];
    let mut trace = Trace::background(&BackgroundConfig::small(), 11);
    trace.inject(
        &Attack::SynFlood {
            victim: 0x63070019,
            port: 80,
            packets: 800,
            sources: 400,
            ack_fraction: 0.05,
            fin_fraction: 0.02,
            start_ms: 0,
            duration_ms: 2_500,
        },
        11,
    );
    let windows: Vec<&[sonata::packet::Packet]> = trace.windows(3_000).map(|(_, p)| p).collect();
    let plan = plan_queries(&queries, &windows, &PlannerConfig::default()).unwrap();
    let obs = ObsHandle::enabled();
    let config = RuntimeConfig {
        obs: obs.clone(),
        ..config
    };
    let report = Runtime::new(&plan, config)
        .unwrap()
        .process_trace(&trace)
        .unwrap();
    (report, obs)
}

fn run_with_obs() -> (TelemetryReport, ObsHandle) {
    run(RuntimeConfig::default())
}

/// The golden-snapshot fixture: the same workload as [`run_with_obs`]
/// but on two stream workers and under a deterministic fault plan
/// that exercises every degradation path, so the fault-layer metric
/// series and event types appear in the exports.
fn run_faulted_with_obs() -> (TelemetryReport, ObsHandle) {
    run(RuntimeConfig {
        workers: 2,
        faults: FaultPlan {
            seed: 7,
            report: ReportFaults {
                drop_per_mille: 100,
                duplicate_per_mille: 100,
                delay_per_mille: 100,
                reorder_per_mille: 50,
                delay_packets: 4,
            },
            worker: WorkerFaults {
                crash_per_mille: 500,
                consecutive_crashes: 2,
                stall_per_mille: 300,
                stall_ms: 1,
            },
            boundary: BoundaryFaults {
                fail_per_mille: 500,
                consecutive: 1,
            },
            ..FaultPlan::default()
        },
        ..RuntimeConfig::default()
    })
}

/// Sorted, deduplicated `type` tags of a JSONL event export.
fn event_types(jsonl: &str) -> Vec<String> {
    let mut types = BTreeSet::new();
    for line in jsonl.lines() {
        let v = parse(line).expect("valid event JSON");
        let kind = v.get("type").and_then(JsonValue::as_str).expect("type tag");
        types.insert(kind.to_string());
    }
    types.into_iter().collect()
}

#[test]
fn metric_series_schema_matches_golden_snapshot() {
    let (report, _obs) = run_faulted_with_obs();
    let series = metric_series(&report.metrics.to_json());
    assert_matches_snapshot("metric_series.snap", &series);
}

#[test]
fn event_type_schema_matches_golden_snapshot() {
    let (_report, obs) = run_faulted_with_obs();
    let mut out = event_types(&obs.events_jsonl()).join("\n");
    out.push('\n');
    assert_matches_snapshot("event_types.snap", &out);
}

#[test]
fn faulted_exports_still_pass_all_format_validators() {
    let (report, obs) = run_faulted_with_obs();
    validate_snapshot_json(&report.metrics.to_json()).expect("snapshot JSON schema");
    // The faulted run actually degraded — otherwise the golden
    // snapshots above would not cover the fault-layer surface.
    assert!(report.degraded_windows() > 0);
    assert!(report.total_faults().total() > 0);
    assert_eq!(
        report.metrics.counter("sonata_degraded_windows"),
        Some(report.degraded_windows() as u64)
    );
    // Per-kind injected counters reconcile with the window markers.
    for kind in FaultKind::ALL {
        let key = format!("sonata_faults_injected{{kind=\"{}\"}}", kind.name());
        assert_eq!(
            report.metrics.counter(&key),
            Some(report.total_faults().get(kind)),
            "{key}"
        );
    }
    for line in obs.events_jsonl().lines() {
        parse(line).expect("valid event JSON");
    }
}

#[test]
fn snapshot_json_passes_schema_validation() {
    let (report, _obs) = run_with_obs();
    let json = report.metrics.to_json();
    validate_snapshot_json(&json).expect("snapshot JSON schema");
    // And the snapshot is non-trivial: the run actually recorded.
    assert!(
        report
            .metrics
            .counter("sonata_switch_packets_total")
            .unwrap()
            > 0
    );
    assert!(
        report
            .metrics
            .counter("sonata_runtime_windows_total")
            .unwrap()
            > 0
    );
}

#[test]
fn event_exports_parse_and_cover_the_run() {
    let (report, obs) = run_with_obs();
    // JSONL: one valid JSON object per line, each with ts_ns + type.
    let jsonl = obs.events_jsonl();
    let mut window_closes = 0;
    for line in jsonl.lines() {
        let v = parse(line).expect("valid event JSON");
        assert!(v.get("ts_ns").and_then(JsonValue::as_u64).is_some());
        let kind = v.get("type").and_then(JsonValue::as_str).unwrap();
        if kind == "window_close" {
            window_closes += 1;
        }
    }
    assert_eq!(window_closes, report.windows.len());
}
