//! Property tests for the micro-batch engine: multi-entry evaluation
//! must compose the same way the reference interpreter does, no matter
//! how tuples are split across batches and entry points.

use proptest::prelude::*;
use sonata_packet::{Packet, PacketBuilder, TcpFlags};
use sonata_query::catalog::{self, Thresholds};
use sonata_query::interpret::run_entries_owned;
use sonata_query::interpret::run_query;
use sonata_query::Tuple;
use sonata_stream::{execute_window, WindowBatch};

fn arb_packet() -> impl Strategy<Value = Packet> {
    (
        0u32..12,
        0u32..12,
        prop_oneof![Just(TcpFlags::SYN), Just(TcpFlags::ACK)],
    )
        .prop_map(|(s, d, flags)| {
            PacketBuilder::tcp_raw(0x0a000000 + s, 999, 0x14000000 + d, 80)
                .flags(flags)
                .build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn entry_zero_equals_reference(pkts in proptest::collection::vec(arb_packet(), 0..100), th in 0u64..4) {
        let q = catalog::newly_opened_tcp_conns(&Thresholds {
            new_tcp: th,
            ..Thresholds::default()
        });
        let mut batch = WindowBatch::new();
        batch.push_left(0, pkts.iter().map(Tuple::from_packet));
        let engine = execute_window(&q, &batch).unwrap();
        let reference = run_query(&q, &pkts).unwrap();
        prop_assert_eq!(engine.output, reference);
        prop_assert_eq!(engine.tuples_in, pkts.len());
        // A join-free query's one branch output is its output.
        prop_assert!(engine.branch_outputs.is_empty());
    }

    #[test]
    fn tuples_split_across_pushes_are_order_insensitive(
        pkts in proptest::collection::vec(arb_packet(), 0..100),
        cut in 0usize..100,
    ) {
        let q = catalog::newly_opened_tcp_conns(&Thresholds {
            new_tcp: 1,
            ..Thresholds::default()
        });
        let cut = cut.min(pkts.len());
        let mut together = WindowBatch::new();
        together.push_left(0, pkts.iter().map(Tuple::from_packet));
        let mut split = WindowBatch::new();
        // Same entry point, pushed in two slices in reverse order.
        split.push_left(0, pkts[cut..].iter().map(Tuple::from_packet));
        split.push_left(0, pkts[..cut].iter().map(Tuple::from_packet));
        let a = execute_window(&q, &together).unwrap();
        let b = execute_window(&q, &split).unwrap();
        prop_assert_eq!(a.output, b.output);
    }

    #[test]
    fn join_branch_split_matches_reference(
        pkts in proptest::collection::vec(arb_packet(), 0..100),
        th in 0u64..3,
    ) {
        // Feed the SYN-flood join query entirely from entry 0 on both
        // branches: must reproduce the reference interpreter.
        let q = catalog::tcp_syn_flood(&Thresholds {
            syn_flood: th,
            ..Thresholds::default()
        });
        let mut batch = WindowBatch::new();
        batch.push_left(0, pkts.iter().map(Tuple::from_packet));
        batch.push_right(0, pkts.iter().map(Tuple::from_packet));
        let engine = execute_window(&q, &batch).unwrap();
        let reference = run_query(&q, &pkts).unwrap();
        prop_assert_eq!(engine.output, reference);
        prop_assert_eq!(engine.branch_outputs.len(), 2);
    }

    #[test]
    fn run_entries_prefix_composition(
        pkts in proptest::collection::vec(arb_packet(), 0..80),
        entry in 0usize..4,
    ) {
        // Running ops[..k] then injecting the intermediate tuples at
        // entry k equals running everything from entry 0.
        let q = catalog::newly_opened_tcp_conns(&Thresholds {
            new_tcp: 0,
            ..Thresholds::default()
        });
        let ops = &q.pipeline.ops;
        let entry = entry.min(ops.len());
        let start: Vec<Tuple> = pkts.iter().map(Tuple::from_packet).collect();
        // Stage 1: the prefix.
        let mut prefix_entries = std::collections::BTreeMap::new();
        prefix_entries.insert(0usize, start.clone());
        let (_, mid) = run_entries_owned(&ops[..entry], prefix_entries).unwrap();
        // Stage 2: inject at `entry`.
        let mut tail_entries = std::collections::BTreeMap::new();
        tail_entries.insert(entry, mid);
        let (_, via_split) = run_entries_owned(ops, tail_entries).unwrap();
        // Direct run.
        let mut direct_entries = std::collections::BTreeMap::new();
        direct_entries.insert(0usize, start);
        let (_, direct) = run_entries_owned(ops, direct_entries).unwrap();
        let mut a = via_split;
        let mut b = direct;
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }
}
