//! Differential suite for the batched arena ingest path.
//!
//! Every driver lays a window into a contiguous [`PacketArena`] and
//! runs it as one `Switch::process_batch`: PHV slots resolve once per
//! batch, a columnar gate culls packets no task can report, and
//! reports accumulate in a reusable `ReportBatch` that ships borrowed
//! arena slices straight to the wire as report blocks. All of it is
//! pure performance work — the contract is that this arena ingest
//! (the default) produces *bit-identical* `WindowReport`s to the
//! per-packet ("owned") oracle, across the query catalog, across plan
//! modes, across seeds, across shard counts, over TCP, and under
//! fault injection. The oracle is `RuntimeConfig::oracle`: each
//! packet runs alone through `Switch::process_reference` and ships one
//! `Frame::Report` per report. The sketched case lives in
//! `differential_fastpath.rs`.
//!
//! Seeds come from `SONATA_FASTPATH_SEEDS` (comma-separated, default
//! `7,23,101`).
//!
//! [`PacketArena`]: sonata::packet::PacketArena

use sonata::prelude::*;
use sonata::query::Query;
use sonata::stream::testsupport::{low_thresholds, seeded_packets};
use sonata::traffic::trace::EvaluationTrace;

const WINDOW_NS: u64 = 3_000_000_000;

fn seeds() -> Vec<u64> {
    std::env::var("SONATA_FASTPATH_SEEDS")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .collect::<Vec<u64>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![7, 23, 101])
}

/// A deterministic multi-window trace: one `testsupport` mixed window
/// per 3-second slot, re-seeded per slot so windows differ.
fn trace(windows: u64, seed: u64) -> Trace {
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

fn refined_queries() -> Vec<Query> {
    let t = low_thresholds();
    vec![
        catalog::newly_opened_tcp_conns(&t),
        catalog::superspreader(&t),
    ]
}

/// Run `tr` under `plan` twice with `cfg` — arena ingest, then the
/// owned per-packet oracle — and return `(arena, owned)`.
fn both(plan: &GlobalPlan, tr: &Trace, cfg: RuntimeConfig) -> (TelemetryReport, TelemetryReport) {
    let run = |oracle| {
        let cfg = RuntimeConfig {
            oracle,
            ..cfg.clone()
        };
        Runtime::new(plan, cfg).unwrap().process_trace(tr).unwrap()
    };
    (run(false), run(true))
}

/// Both ingest modes over the full eleven-query catalog (the paper's
/// Table 3), per plan mode, on the evaluation trace — the widest
/// query-shape coverage: every operator combination crosses the
/// columnar gate, the batch report arena, and the borrowed wire
/// encode here.
#[test]
fn arena_ingest_is_bit_identical_across_catalog_and_plan_modes() {
    let tr = EvaluationTrace::generate(11, 2, 3_000, 0.05).trace;
    let queries = catalog::all(&Thresholds::default());
    for mode in [PlanMode::AllSp, PlanMode::FilterDp, PlanMode::MaxDp] {
        let plan = plan_for(mode, &queries, &tr);
        let (arena, owned) = both(&plan, &tr, RuntimeConfig::default());
        assert_eq!(
            arena.windows, owned.windows,
            "{mode:?}: arena ingest diverged from the owned-packet oracle"
        );
    }
}

/// Refined (multi-level) Sonata plans exercise dynamic-filter updates
/// mid-run: the columnar gate hoists `DynFilter` steps and reads live
/// table entries, so control-plane updates between windows must reach
/// the batch path identically to the per-packet path.
#[test]
fn arena_ingest_matches_owned_on_refined_plans_across_seeds() {
    let queries = refined_queries();
    for seed in seeds() {
        let tr = trace(3, seed);
        let plan = plan_for(PlanMode::Sonata, &queries, &tr);
        let (arena, owned) = both(&plan, &tr, RuntimeConfig::default());
        assert_eq!(
            arena.windows, owned.windows,
            "seed {seed}: refined arena ingest diverged from owned"
        );
    }
}

/// Shard counts change how windows fan out to stream workers but must
/// not interact with how packets entered the switch.
#[test]
fn arena_ingest_matches_owned_at_every_shard_count() {
    let tr = trace(2, seeds()[0]);
    let plan = plan_for(PlanMode::Sonata, &refined_queries(), &tr);
    for workers in [1usize, 2, 4, 8] {
        let cfg = RuntimeConfig {
            workers,
            ..RuntimeConfig::default()
        };
        let (arena, owned) = both(&plan, &tr, cfg);
        assert_eq!(
            arena.windows, owned.windows,
            "{workers} workers: arena ingest diverged from owned"
        );
    }
}

/// The collector must not care how reports crossed the wire: the
/// `ReportBlocks` TCP path (arena) must equal the one-`Frame::Report`-
/// per-report TCP path (owned) all the way to the collector's
/// `WindowReport`s.
#[test]
fn arena_ingest_matches_owned_over_tcp() {
    let tr = trace(3, seeds()[0]);
    let plan = plan_for(PlanMode::Sonata, &refined_queries(), &tr);
    let cfg = RuntimeConfig {
        transport: TransportKind::Tcp,
        ..RuntimeConfig::default()
    };
    let (arena, owned) = both(&plan, &tr, cfg);
    assert_eq!(
        arena.windows, owned.windows,
        "arena ingest over TCP diverged from owned over TCP"
    );
}

/// Fault injection sites count packets and reports, so the fault
/// stream depends on report *order* — the batch path must present
/// reports to the injector in exactly the per-packet order. A faulted
/// arena run must equal a faulted owned run, verdict for verdict.
#[test]
fn faulted_runs_are_identical_in_both_ingest_modes() {
    let queries = refined_queries();
    for seed in seeds() {
        let tr = trace(3, seed);
        // All-SP plans mirror every packet, so the egress actually
        // carries per-packet reports to fault.
        let plan = plan_for(PlanMode::AllSp, &queries, &tr);
        let cfg = RuntimeConfig {
            faults: FaultPlan {
                seed,
                report: ReportFaults {
                    drop_per_mille: 150,
                    duplicate_per_mille: 150,
                    delay_per_mille: 150,
                    reorder_per_mille: 100,
                    delay_packets: 6,
                },
                ..FaultPlan::default()
            },
            ..RuntimeConfig::default()
        };
        let (arena, owned) = both(&plan, &tr, cfg);
        assert!(
            arena.total_faults().get(FaultKind::ReportDrop) > 0,
            "seed {seed}: the plan must actually inject"
        );
        assert_eq!(
            arena.windows, owned.windows,
            "seed {seed}: faulted arena ingest diverged from faulted owned"
        );
    }
}

/// Payload-bearing queries (DNS tunneling, Zorro, DNS reflection) mix
/// text keys and packet-mirroring tasks — the shapes that exercise
/// arena-index packet mirroring and the undecodable-report fallback.
#[test]
fn arena_ingest_matches_owned_for_payload_queries() {
    let t = Thresholds::default();
    let queries = vec![
        catalog::dns_tunneling(&t),
        catalog::zorro(&t),
        catalog::dns_reflection(&t),
    ];
    let tr = EvaluationTrace::generate(11, 2, 3_000, 0.05).trace;
    let plan = plan_for(PlanMode::MaxDp, &queries, &tr);
    let (arena, owned) = both(&plan, &tr, RuntimeConfig::default());
    assert_eq!(
        arena.windows, owned.windows,
        "payload-query arena ingest diverged from owned"
    );
}
