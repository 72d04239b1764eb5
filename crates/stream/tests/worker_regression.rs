//! Deterministic regression tests for the job pool: a panicking job
//! surfaces as a [`StreamError::Panic`] instead of hanging or
//! unwinding through the caller, the pool keeps serving after it, and
//! sustained load through the helpers never deadlocks.

use sonata_packet::Value;
use sonata_query::catalog::{self, Thresholds};
use sonata_query::{Query, QueryId, Tuple};
use sonata_stream::{ShardedEngine, StreamError, WindowBatch, PARALLEL_FLOOR_TUPLES};
use std::time::Duration;

fn q1() -> Query {
    catalog::newly_opened_tcp_conns(&Thresholds {
        new_tcp: 1,
        ..Thresholds::default()
    })
}

fn ddos() -> Query {
    catalog::ddos(&Thresholds::default())
}

/// (key, count) shunt entries at query 1's reduce.
fn shunt_batch(keys: std::ops::Range<u64>) -> WindowBatch {
    let mut batch = WindowBatch::new();
    batch.push_left(
        2,
        keys.map(|k| Tuple::new(vec![Value::U64(k), Value::U64(2)])),
    );
    batch
}

/// (sIP, dIP) rows entering DDoS's distinct: enough to lift a window
/// over the fan-out floor.
fn bulk_batch() -> WindowBatch {
    let mut batch = WindowBatch::new();
    batch.push_left(
        2,
        (0..PARALLEL_FLOOR_TUPLES as u64)
            .map(|i| Tuple::new(vec![Value::U64(i % 97), Value::U64(i % 5)])),
    );
    batch
}

/// An empty tuple entering at the reduce makes the engine index out of
/// bounds — a genuine panic, not a `StreamError`.
fn poison_batch() -> WindowBatch {
    let mut poison = WindowBatch::new();
    poison.push_left(2, vec![Tuple::new(vec![])]);
    poison
}

/// Run `f` on a scratch thread; panic if it doesn't finish in time.
/// Turns a would-be deadlock into a clean test failure.
fn with_deadline<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .expect("job pool test deadlocked")
}

fn pool(workers: usize) -> (ShardedEngine, QueryId, QueryId) {
    let mut engine = ShardedEngine::new(workers);
    let (a, b) = (q1(), ddos());
    let ids = (a.id, b.id);
    engine.register(a);
    engine.register(b);
    (engine, ids.0, ids.1)
}

#[test]
fn sustained_load_through_the_helpers_never_deadlocks() {
    with_deadline(60, move || {
        let (mut engine, q, d) = pool(4);
        let bulk = bulk_batch();
        for w in 0..200u64 {
            let keys = w % 17 + 1;
            let results = engine.submit_window(vec![(q, shunt_batch(0..keys)), (d, bulk.clone())]);
            let r = results[0].1.as_ref().unwrap();
            assert_eq!(r.tuples_in, keys as usize);
            assert!(results[1].1.is_ok());
        }
        let c = engine.finish();
        assert_eq!(c.windows, 400);
    });
}

#[test]
fn a_panicking_job_surfaces_as_an_error_and_the_pool_keeps_serving() {
    for workers in [1usize, 4] {
        with_deadline(30, move || {
            let (mut engine, q, d) = pool(workers);
            // The poisoned job runs beside a healthy one over the floor,
            // so at four workers the two land on different threads.
            let results = engine.submit_window(vec![(q, poison_batch()), (d, bulk_batch())]);
            assert!(
                matches!(results[0].1, Err(StreamError::Panic(_))),
                "{workers} workers: {:?}",
                results[0].1
            );
            assert!(results[1].1.is_ok(), "{workers} workers");
            assert_eq!(engine.recover_workers(), 1);
            // Counters don't advance on failure, and the pool still
            // works — for the recovered job and inline.
            let r = engine.submit(q, &shunt_batch(0..5)).unwrap();
            assert_eq!(r.output.len(), 5);
            let again = engine.submit_window(vec![(q, shunt_batch(0..3)), (d, bulk_batch())]);
            assert_eq!(again[0].1.as_ref().unwrap().output.len(), 3);
            let c = engine.finish();
            assert_eq!(c.windows, 4, "{workers} workers");
            assert_eq!(
                c.tuples_in,
                (5 + 3 + 2 * PARALLEL_FLOOR_TUPLES) as u64,
                "{workers} workers"
            );
        });
    }
}

#[test]
fn dropping_an_engine_with_helpers_does_not_hang() {
    with_deadline(30, move || {
        let (mut engine, q, d) = pool(3);
        engine.submit_window(vec![(q, shunt_batch(0..3)), (d, bulk_batch())]);
        drop(engine);
    });
}
