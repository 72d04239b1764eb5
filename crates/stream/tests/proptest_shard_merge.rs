//! Property tests for the shard split/merge algebra.
//!
//! Two invariants make sharded execution safe to reason about:
//!
//! 1. **Partition invariance** — however a window's tuples are split
//!    across shards, as long as each group key stays on one shard, the
//!    merged result equals the serial result. `split_batch` is one
//!    such split; here we generate *arbitrary* key-respecting splits.
//! 2. **Permutation invariance** — `merge_results` is agnostic to
//!    shard order and to how many (non-empty) shards there are.
//! 3. **Selections are splits** — `shard_filter` over the row runs a
//!    real batch holds (packet numbers into shared columns, flat
//!    cells) yields per-shard batches whose results, on the bound
//!    engine, merge to the inline engine's and the interpreter's.

use proptest::prelude::*;
use sonata_packet::Value;
use sonata_query::catalog::{self, Thresholds};
use sonata_query::{Query, Tuple};
use sonata_stream::testsupport::{batch_for, seeded_packets};
use sonata_stream::{
    execute_window, merge_results, partition_spec, split_batch, MicroBatchEngine, WindowBatch,
};

fn low() -> Thresholds {
    Thresholds {
        new_tcp: 2,
        ssh_brute: 1,
        superspreader: 1,
        port_scan: 1,
        ddos: 1,
        syn_flood: 1,
        incomplete_flows: 1,
        slowloris_bytes: 1,
        slowloris_cpkb: 0,
        dns_tunneling: 1,
        zorro_pkts: 1,
        zorro_payloads: 0,
        dns_reflection: 1,
        malicious_domains: 1,
        window_ms: 3_000,
    }
}

/// Query 1 with shunt-style entries: tuples (key, 1) at the reduce.
fn q1() -> Query {
    catalog::newly_opened_tcp_conns(&low())
}

/// (key, count) pairs entering at the reduce (op 2) of query 1.
fn shunt_batch(pairs: &[(u64, u64)]) -> WindowBatch {
    let mut batch = WindowBatch::new();
    batch.push_left(
        2,
        pairs
            .iter()
            .map(|&(k, c)| Tuple::new(vec![Value::U64(k), Value::U64(c)])),
    );
    batch
}

proptest! {
    #[test]
    fn split_batch_is_key_respecting_and_complete(
        keys in proptest::collection::vec((0u64..12, 1u64..4), 1..80),
        shards in 2usize..9,
    ) {
        let q = q1();
        let spec = partition_spec(&q);
        let batch = shunt_batch(&keys);
        let split = split_batch(&spec, &batch, shards);
        prop_assert_eq!(split.len(), shards);
        // Complete: no tuple lost or duplicated.
        let total: usize = split.iter().map(WindowBatch::tuple_count).sum();
        prop_assert_eq!(total, batch.tuple_count());
        // Key-respecting: a key's tuples all land on one shard.
        for key in keys.iter().map(|(k, _)| *k) {
            let owners = split
                .iter()
                .filter(|s| s.tuples(0, 2).iter().any(|t| t.get(0) == &Value::U64(key)))
                .count();
            prop_assert!(owners <= 1, "key {} on {} shards", key, owners);
        }
    }

    #[test]
    fn any_key_respecting_partition_merges_to_serial(
        keys in proptest::collection::vec((0u64..12, 1u64..4), 1..80),
        assignment in proptest::collection::vec(0usize..6, 12),
        shards in 1usize..7,
    ) {
        // Assign each key to an arbitrary shard (not the FNV one) and
        // check the merged result still equals serial execution: the
        // algebra depends only on key-locality, not on the hash.
        let q = q1();
        let batch = shunt_batch(&keys);
        let mut split = vec![WindowBatch::new(); shards];
        for &(k, c) in &keys {
            let s = assignment[k as usize] % shards;
            split[s].push_left(2, vec![Tuple::new(vec![Value::U64(k), Value::U64(c)])]);
        }
        let serial = execute_window(&q, &batch).unwrap();
        let merged = merge_results(
            split
                .iter()
                .filter(|s| !s.is_empty())
                .map(|s| execute_window(&q, s).unwrap())
                .collect(),
        );
        prop_assert_eq!(&merged.output, &serial.output);
        prop_assert_eq!(merged.tuples_in, serial.tuples_in);
        prop_assert_eq!(&merged.branch_outputs, &serial.branch_outputs);
    }

    #[test]
    fn merge_is_permutation_invariant(
        keys in proptest::collection::vec((0u64..20, 1u64..4), 1..60),
        rotate in 0usize..8,
        shards in 2usize..9,
    ) {
        let q = q1();
        let spec = partition_spec(&q);
        let batch = shunt_batch(&keys);
        let split = split_batch(&spec, &batch, shards);
        let results: Vec<_> = split
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| execute_window(&q, s).unwrap())
            .collect();
        let mut rotated = results.clone();
        let pivot = rotate % rotated.len().max(1);
        rotated.rotate_left(pivot);
        let a = merge_results(results);
        let b = merge_results(rotated);
        prop_assert_eq!(a.output, b.output);
        prop_assert_eq!(a.tuples_in, b.tuples_in);
        prop_assert_eq!(a.branch_outputs, b.branch_outputs);
    }

    #[test]
    fn distinct_queries_shard_cleanly(
        tuples in proptest::collection::vec((0u64..8, 0u64..8, 1024u64..1032), 1..60),
        shards in 2usize..9,
    ) {
        // Query 3 (superspreader) distinct+reduce over sIP: entries at
        // the distinct (op 2) with schema (sIP, dIP).
        let q = catalog::superspreader(&low());
        let mut batch = WindowBatch::new();
        batch.push_left(
            2,
            tuples
                .iter()
                .map(|&(s, d, _)| Tuple::new(vec![Value::U64(s), Value::U64(d)])),
        );
        let spec = partition_spec(&q);
        prop_assert!(spec.is_parallel());
        let split = split_batch(&spec, &batch, shards);
        let serial = execute_window(&q, &batch).unwrap();
        let merged = merge_results(
            split
                .iter()
                .filter(|s| !s.is_empty())
                .map(|s| execute_window(&q, s).unwrap())
                .collect(),
        );
        prop_assert_eq!(merged.output, serial.output);
    }

    #[test]
    fn shard_filter_over_row_runs_merges_to_the_inline_engine(
        seed in 0u64..1_000,
        n in 0usize..200,
        shunts in proptest::collection::vec((0u64..12, 1u64..4), 0..20),
        which in 0usize..12,
    ) {
        let th = low();
        let mut queries = catalog::all(&th);
        queries.push(catalog::malicious_domains(&th));
        let q = &queries[which];
        let mut batch = batch_for(q, &seeded_packets(seed, n));
        if which == 0 {
            // Query 1 also takes shunts at its reduce.
            batch.left.extend(shunt_batch(&shunts).left);
        }
        let mut engine = MicroBatchEngine::new();
        engine.register(q.clone());
        let inline = engine.submit(q.id, &batch).unwrap();
        let reference = execute_window(q, &batch).unwrap();
        prop_assert_eq!(&inline.output, &reference.output);
        prop_assert_eq!(&inline.branch_outputs, &reference.branch_outputs);
        let spec = partition_spec(q);
        for shards in [1, 2, 8] {
            let split = split_batch(&spec, &batch, shards);
            let total: usize = split.iter().map(WindowBatch::tuple_count).sum();
            prop_assert_eq!(total, batch.tuple_count());
            let results = split.iter().map(|s| engine.submit(q.id, s).unwrap());
            let merged = merge_results(results.collect());
            prop_assert_eq!(&merged.output, &inline.output);
            prop_assert_eq!(merged.tuples_in, inline.tuples_in);
            prop_assert_eq!(&merged.branch_outputs, &inline.branch_outputs);
        }
    }
}
