//! Property test for the paper's accuracy-preserving partitioning
//! claim (Section 3.1.3): for *random traffic* and *every feasible
//! partition point*, executing a query prefix on the switch and the
//! rest at the stream processor yields exactly the reference
//! interpreter's results.

use proptest::prelude::*;
use sonata::packet::{Packet, PacketArena, PacketBuilder, TcpFlags};
use sonata::pisa::compile::{max_switch_units, table_specs, RegisterSizing};
use sonata::pisa::{ReportBatch, Switch, SwitchConstraints, TaskId, CHUNK_BYTES};
use sonata::query::catalog::{self, Thresholds};
use sonata::query::interpret::run_query;
use sonata::query::{Query, Tuple};
use sonata::stream::{execute_window, WindowBatch};
use std::collections::BTreeMap;

/// Execute `query` (join-free) with its first `k` units on a freshly
/// loaded switch and the residue on the stream engine; returns the
/// final tuples.
fn run_partitioned(query: &Query, k: usize, slots: usize, packets: &[Packet]) -> Vec<Tuple> {
    let task = TaskId {
        query: query.id,
        level: 32,
        branch: 0,
    };
    let specs = table_specs(&query.pipeline);
    let stateful = specs.iter().take(k).filter(|s| s.stateful).count();
    let mut stages = Vec::new();
    let mut cur = 0;
    for s in specs.iter().take(k) {
        stages.push(cur);
        cur += s.stage_cost;
    }
    let sizings = vec![
        RegisterSizing {
            slots,
            arrays: 2,
            ..Default::default()
        };
        stateful
    ];
    let compiled =
        sonata::pisa::compile_pipeline(&query.pipeline, task, &stages, &sizings, 0, 0).unwrap();
    let deployment = sonata::core::driver::deploy(&sonata::planner::GlobalPlan {
        mode: sonata::planner::PlanMode::Sonata,
        queries: vec![sonata::planner::QueryPlan {
            query: query.clone(),
            levels: vec![sonata::planner::LevelPlan {
                level: 32,
                prev: None,
                refined: query.clone(),
                branches: vec![sonata::planner::BranchPlan {
                    branch: 0,
                    units: k,
                    stages,
                    sizings,
                }],
                predicted_n: 0.0,
            }],
        }],
        predicted_tuples: 0.0,
        epoch: 0,
    })
    .unwrap();
    let _ = compiled;
    let mut switch = Switch::load(deployment.program, &SwitchConstraints::default()).unwrap();
    let mut emitter = sonata::core::Emitter::new(&deployment.deployments);
    // The window as one batch, shipped in chunks as the drivers do.
    let arena = PacketArena::from_packets(packets);
    let mut reports = ReportBatch::new();
    switch.process_batch(&arena.batch(), &mut reports);
    let mut at = 0;
    while let Some((chunk, next)) = reports.chunk(at, arena.batch(), CHUNK_BYTES) {
        emitter.ingest_blocks(chunk);
        at = next;
    }
    assert_eq!(at, if reports.is_empty() { 0 } else { packets.len() });
    emitter.ingest_dump(&switch.end_window());
    let batches = emitter.close_window().unwrap();
    let mut out = Vec::new();
    let job = deployment.instances[0].job;
    let refined = &deployment.instances[0].refined;
    for (j, batch) in batches {
        assert_eq!(j, job);
        out.extend(execute_window(refined, &batch).unwrap().output);
    }
    // No batch at all (nothing survived the switch) = empty result.
    if out.is_empty() {
        // Run an empty batch so join-free queries still produce their
        // (empty) window result deterministically.
        let empty = WindowBatch {
            left: BTreeMap::new(),
            right: BTreeMap::new(),
        };
        out.extend(execute_window(refined, &empty).unwrap().output);
    }
    out.sort();
    out
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    (
        0u32..8, // source pool
        0u32..6, // dest pool
        prop_oneof![
            Just(TcpFlags::SYN),
            Just(TcpFlags::ACK),
            Just(TcpFlags::PSH_ACK)
        ],
        1u16..5, // port pool
    )
        .prop_map(|(s, d, flags, port)| {
            PacketBuilder::tcp_raw(0x0a000000 + s, 1000 + port, 0x14000000 + d, 80)
                .flags(flags)
                .build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn query1_every_partition_matches_reference(
        pkts in proptest::collection::vec(arb_packet(), 0..120),
        th in 0u64..6,
    ) {
        let q = catalog::newly_opened_tcp_conns(&Thresholds {
            new_tcp: th,
            ..Thresholds::default()
        });
        let reference = run_query(&q, &pkts).unwrap();
        let maxk = max_switch_units(&table_specs(&q.pipeline));
        for k in 0..=maxk {
            let got = run_partitioned(&q, k, 512, &pkts);
            prop_assert_eq!(&got, &reference, "partition k={}", k);
        }
    }

    #[test]
    fn superspreader_every_partition_matches_reference(
        pkts in proptest::collection::vec(arb_packet(), 0..120),
        th in 0u64..4,
    ) {
        let q = catalog::superspreader(&Thresholds {
            superspreader: th,
            ..Thresholds::default()
        });
        let reference = run_query(&q, &pkts).unwrap();
        let maxk = max_switch_units(&table_specs(&q.pipeline));
        prop_assert!(maxk >= 4);
        for k in 0..=maxk {
            let got = run_partitioned(&q, k, 512, &pkts);
            prop_assert_eq!(&got, &reference, "partition k={}", k);
        }
    }

    #[test]
    fn tiny_registers_still_exact_via_shunt_merge(
        pkts in proptest::collection::vec(arb_packet(), 0..150),
        th in 0u64..4,
    ) {
        // Registers with a single slot per array force nearly every
        // key to shunt; the emitter's merge must keep results exact.
        let q = catalog::newly_opened_tcp_conns(&Thresholds {
            new_tcp: th,
            ..Thresholds::default()
        });
        let reference = run_query(&q, &pkts).unwrap();
        let maxk = max_switch_units(&table_specs(&q.pipeline));
        let got = run_partitioned(&q, maxk, 1, &pkts);
        prop_assert_eq!(got, reference);
    }

    #[test]
    fn ddos_query_with_two_stateful_units_exact_under_collisions(
        pkts in proptest::collection::vec(arb_packet(), 0..150),
        slots in 1usize..8,
    ) {
        // distinct + reduce both on tiny registers: the dump merge
        // must re-aggregate shunted distinct pairs correctly.
        let q = catalog::ddos(&Thresholds {
            ddos: 1,
            ..Thresholds::default()
        });
        let reference = run_query(&q, &pkts).unwrap();
        let maxk = max_switch_units(&table_specs(&q.pipeline));
        let got = run_partitioned(&q, maxk, slots, &pkts);
        prop_assert_eq!(got, reference);
    }
}
