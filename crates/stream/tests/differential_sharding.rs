//! Differential correctness harness for the job pool.
//!
//! For every Table-3 catalog query (plus the fast-flux extension) and
//! several seeded random traces, one window of all the jobs run on the
//! job pool at 1, 2, 4 and 8 workers must be byte-identical — results,
//! errors and counters — to the inline engine, which must in turn agree
//! with the `sonata-query` reference interpreter on whole-trace entry.
//! The windows carry more than [`PARALLEL_FLOOR_TUPLES`] tuples, so
//! every width above one really fans out.

use sonata_obs::ObsHandle;
use sonata_packet::Value;
use sonata_query::catalog;
use sonata_query::{Query, QueryId, Tuple};
use sonata_stream::testsupport::{
    assert_differential, assert_pool_matches_inline, batch_for, low_thresholds, seeded_packets,
};
use sonata_stream::{ShardedEngine, StreamError, WindowBatch, PARALLEL_FLOOR_TUPLES};

const SEEDS: [u64; 4] = [1, 7, 42, 20_260_807];
const WORKERS: [usize; 4] = [1, 2, 4, 8];
const PACKETS: usize = 600;

fn catalog_queries() -> Vec<Query> {
    let th = low_thresholds();
    let mut queries = catalog::all(&th);
    queries.push(catalog::malicious_domains(&th));
    queries
}

fn window(queries: &[Query], seed: u64) -> Vec<(QueryId, WindowBatch)> {
    let pkts = seeded_packets(seed, PACKETS);
    queries
        .iter()
        .map(|q| (q.id, batch_for(q, &pkts)))
        .collect()
}

#[test]
fn every_catalog_query_matches_reference_across_worker_counts() {
    let queries = catalog_queries();
    for seed in SEEDS {
        assert_differential(&queries, &seeded_packets(seed, PACKETS), &WORKERS);
    }
}

#[test]
fn catalog_windows_clear_the_floor_and_fan_out() {
    let queries = catalog_queries();
    let jobs = window(&queries, SEEDS[0]);
    let tuples: usize = jobs.iter().map(|(_, b)| b.tuple_count()).sum();
    assert!(tuples >= PARALLEL_FLOOR_TUPLES, "{tuples} tuples");
    for workers in [2usize, 8] {
        let obs = ObsHandle::enabled();
        let mut engine = ShardedEngine::with_obs(workers, &obs);
        queries.iter().for_each(|q| engine.register(q.clone()));
        engine.submit_window(jobs.clone());
        let fanned = obs
            .snapshot()
            .counter("sonata_engine_parallel_windows_total");
        assert_eq!(fanned, Some(1), "{workers} workers");
    }
}

#[test]
fn seeded_traces_produce_output_for_every_query() {
    // Guard against the harness comparing empty sets: over the union
    // of seeds, every catalog query must fire at least once.
    for q in &catalog_queries() {
        let fired = SEEDS.iter().any(|&seed| {
            let pkts = seeded_packets(seed, PACKETS);
            let batch = batch_for(q, &pkts);
            !sonata_stream::execute_window(q, &batch)
                .unwrap_or_else(|e| panic!("{}: {e}", q.name))
                .output
                .is_empty()
        });
        assert!(fired, "{}: no seeded trace trips this query", q.name);
    }
}

#[test]
fn dump_and_shunt_entries_match_inline_at_every_worker_count() {
    // Mid-pipeline entries (register dumps after the reduce, collision
    // shunts at the reduce) next to a whole-window job that lifts the
    // window over the floor.
    let th = low_thresholds();
    let q1 = catalog::newly_opened_tcp_conns(&th);
    let ddos = catalog::ddos(&th);
    let mut batch = WindowBatch::new();
    // Shunts: re-aggregated singleton counts across many keys.
    batch.push_left(
        2,
        (0..120u64).map(|i| Tuple::new(vec![Value::U64(i % 24), Value::U64(1)])),
    );
    // Dump: pre-aggregated counts for other keys, entering post-reduce.
    batch.push_left(
        3,
        (0..12u64).map(|k| Tuple::new(vec![Value::U64(1000 + k), Value::U64(3 + k)])),
    );
    // Post-threshold stragglers.
    batch.push_left(4, vec![Tuple::new(vec![Value::U64(7777), Value::U64(99)])]);
    let bulk = batch_for(&ddos, &seeded_packets(3, PARALLEL_FLOOR_TUPLES));
    let jobs = vec![(q1.id, batch), (ddos.id, bulk)];
    assert_pool_matches_inline(&[q1, ddos], &jobs, &WORKERS);
}

#[test]
fn join_queries_with_branch_dumps_match_inline() {
    let th = low_thresholds();
    let queries = [
        catalog::tcp_syn_flood(&th),
        catalog::tcp_incomplete_flows(&th),
        catalog::slowloris(&th),
    ];
    let mut jobs = Vec::new();
    for q in &queries {
        let mut batch = WindowBatch::new();
        let left_len = q.pipeline.ops.len();
        let right_len = q.join.as_ref().unwrap().right.ops.len();
        // Aggregated (host, count) dumps on both branches, with
        // overlapping keys so the joins match.
        batch.push_left(
            left_len,
            (0..3_000u64).map(|h| Tuple::new(vec![Value::U64(h % 10), Value::U64(5 + h)])),
        );
        batch.push_right(
            right_len,
            (0..40u64).map(|h| Tuple::new(vec![Value::U64(h % 10), Value::U64(1 + h % 3)])),
        );
        jobs.push((q.id, batch));
    }
    assert_pool_matches_inline(&queries, &jobs, &WORKERS);
}

#[test]
fn the_lowest_failing_job_decides_at_every_worker_count() {
    // Two jobs fail with different errors among healthy ones; results
    // stay in job order, so the lower job id's error comes first at
    // every width.
    let queries = catalog_queries();
    let mut jobs = window(&queries, SEEDS[1]);
    jobs.sort_by_key(|(id, _)| *id);
    let mut bad = WindowBatch::new();
    bad.push_left(99, vec![Tuple::new(vec![Value::U64(1)])]);
    jobs[2].1 = bad;
    let mut stray = WindowBatch::new();
    stray.push_right(0, vec![Tuple::new(vec![Value::U64(1)])]);
    let join_free = (jobs
        .iter()
        .rposition(|(id, _)| queries.iter().any(|q| q.id == *id && q.join.is_none())))
    .expect("a join-free job");
    assert!(join_free > 2);
    jobs[join_free].1 = stray;
    let results = assert_pool_matches_inline(&queries, &jobs, &WORKERS);
    let first = results
        .iter()
        .find_map(|(id, r)| r.as_ref().err().map(|e| (*id, e)));
    assert!(
        matches!(first, Some((id, StreamError::BadEntry { op: 99, .. })) if id == jobs[2].0),
        "{first:?}"
    );
    assert!(matches!(
        results[join_free].1,
        Err(StreamError::NoRightBranch)
    ));
}

#[test]
fn unknown_query_and_errors_are_reported_identically() {
    let th = low_thresholds();
    let q = catalog::superspreader(&th);
    let mut engine = ShardedEngine::new(4);
    engine.register(q.clone());
    // Unknown query.
    let empty = WindowBatch::new();
    assert!(matches!(
        engine.submit(QueryId(999), &empty),
        Err(StreamError::UnknownQuery(QueryId(999)))
    ));
    // Malformed batch: entry index past the pipeline end must surface
    // the same BadEntry error the inline engine produces.
    let mut bad = WindowBatch::new();
    bad.push_left(99, vec![Tuple::new(vec![Value::U64(1)])]);
    assert!(matches!(
        engine.submit(q.id, &bad),
        Err(StreamError::BadEntry { op: 99, .. })
    ));
    // The engine keeps serving after an error.
    let pkts = seeded_packets(5, 100);
    let batch = batch_for(&q, &pkts);
    assert!(engine.submit(q.id, &batch).is_ok());
}

#[test]
fn empty_window_still_counts_and_returns_empty_result() {
    let th = low_thresholds();
    let q = catalog::port_scan(&th);
    let mut engine = ShardedEngine::new(4);
    engine.register(q.clone());
    let r = engine.submit(q.id, &WindowBatch::new()).unwrap();
    assert!(r.output.is_empty());
    assert_eq!(r.tuples_in, 0);
    let c = engine.finish();
    assert_eq!(c.windows, 1);
    assert_eq!(c.tuples_in, 0);
}
