//! Observability counters vs the differential harness: for seeded
//! traffic, the job pool's `EngineCounters` and the attached
//! `MetricsSnapshot` must both agree exactly with the serial reference
//! execution, at one worker and at four.

use sonata_obs::ObsHandle;
use sonata_query::catalog::{self};
use sonata_stream::engine::execute_window;
use sonata_stream::testsupport::{batch_for, low_thresholds, seeded_packets};
use sonata_stream::worker::ShardedEngine;

#[test]
fn sharded_obs_counters_match_serial_reference() {
    let th = low_thresholds();
    let queries = vec![
        catalog::newly_opened_tcp_conns(&th),
        catalog::superspreader(&th),
        catalog::tcp_syn_flood(&th),
    ];
    let pkts = seeded_packets(0x0b5, 600);

    // Serial reference: per-query intake and output sizes.
    let mut ref_tuples = 0u64;
    let mut ref_results = 0u64;
    let mut ref_windows = 0u64;
    for q in &queries {
        let batch = batch_for(q, &pkts);
        let serial = execute_window(q, &batch).expect("serial execution");
        ref_tuples += serial.tuples_in as u64;
        ref_results += serial.output.len() as u64;
        ref_windows += 1;
    }

    for workers in [1usize, 4] {
        let obs = ObsHandle::enabled();
        let mut engine = ShardedEngine::with_obs(workers, &obs);
        for q in &queries {
            engine.register(q.clone());
        }
        let jobs = (queries.iter())
            .map(|q| (q.id, batch_for(q, &pkts)))
            .collect();
        for (q, (_, result)) in queries.iter().zip(engine.submit_window(jobs)) {
            let serial = execute_window(q, &batch_for(q, &pkts)).unwrap();
            assert_eq!(
                result.expect("pooled execution").output,
                serial.output,
                "{}",
                q.name
            );
        }
        let c = engine.counters().clone();
        assert_eq!(c.tuples_in, ref_tuples, "{workers} workers");
        assert_eq!(c.results_out, ref_results, "{workers} workers");
        assert_eq!(c.windows, ref_windows, "{workers} workers");

        // The metrics snapshot must agree with EngineCounters, which
        // agree with the serial reference.
        let snap = obs.snapshot();
        assert_eq!(
            snap.counter("sonata_engine_tuples_total"),
            Some(ref_tuples),
            "{workers} workers"
        );
        assert_eq!(
            snap.counter("sonata_engine_results_total"),
            Some(ref_results),
            "{workers} workers"
        );
        assert_eq!(
            snap.counter("sonata_engine_windows_total"),
            Some(ref_windows),
            "{workers} workers"
        );
        assert_eq!(snap.counter("sonata_engine_worker_panics_total"), Some(0));
        // 600 packets into three jobs (one a join) stay under the
        // fan-out floor: the window ran inline at both widths.
        assert_eq!(
            snap.counter("sonata_engine_parallel_windows_total"),
            Some(0),
            "{workers} workers"
        );
    }
}
