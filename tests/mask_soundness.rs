//! Soundness of the deployed field mask.
//!
//! A mirrored packet leaves the switch as the header fields of one
//! program-wide mask, which `deploy` fixes to what the stream side
//! reads. This suite drives every stream job that takes raw packets —
//! the full catalog (whose zorro query joins raw packets, so it ships
//! every field), the catalog without zorro (a DNS name rides, so do the
//! bytes) and the top eight (seven scalar fields), under every plan
//! mode, over several seeds — with
//! the job's packet rows shipped as the deployed mask, and checks two
//! things: no field outside the mask is ever read (the packet block
//! debug-asserts it on every read, and these tests build with debug
//! assertions), and the job's results are those of the same rows
//! carrying every field. Jobs run sharded, so the shard-key reads are
//! covered too, and after each level's `InSet` refinement filter has
//! been opened to the keys the window holds — the rewrite the runtime
//! feeds forward — so the operators behind it see rows.

use sonata::core::driver::{branch_pipeline, deploy, Deployment};
use sonata::packet::wire::{ALL_FIELDS, LAZY_FIELDS};
use sonata::packet::{Packet, PacketArena};
use sonata::prelude::*;
use sonata::query::expr::Pred;
use sonata::query::{Operator, PacketBlock, Query, RowRun, Schema, Tuple};
use sonata::stream::{ShardedEngine, WindowBatch};
use sonata::traffic::trace::EvaluationTrace;
use std::collections::BTreeSet;
use std::sync::Arc;

const SEEDS: [u64; 2] = [11, 12];
const MODES: [PlanMode; 4] = [
    PlanMode::AllSp,
    PlanMode::FilterDp,
    PlanMode::MaxDp,
    PlanMode::Sonata,
];

fn plan_for(mode: PlanMode, queries: &[Query], windows: &[&[Packet]]) -> GlobalPlan {
    let cfg = PlannerConfig {
        mode,
        cost: CostConfig {
            levels: Some(vec![8, 16, 32]),
            ..Default::default()
        },
        ..PlannerConfig::default()
    };
    plan_queries(queries, windows, &cfg).unwrap()
}

/// `query` with every `InSet` filter open to exactly the values its
/// expression takes over `packets`, as a feed-forward rewrite opens it
/// to the keys the coarser level reported.
fn opened(query: &Query, packets: &[Packet]) -> Query {
    let tuples: Vec<Tuple> = packets.iter().map(Tuple::from_packet).collect();
    let open = |ops: &mut Vec<Operator>| {
        for op in ops.iter_mut() {
            if let Operator::Filter(Pred::InSet { expr, set }) = op {
                let bound = expr.bind(&Schema::packet()).unwrap();
                let keys: BTreeSet<Value> = tuples.iter().map(|t| bound.eval(t)).collect();
                *set = Arc::new(keys);
            }
        }
    };
    let mut q = query.clone();
    open(&mut q.pipeline.ops);
    if let Some(join) = &mut q.join {
        open(&mut join.right.ops);
    }
    q
}

/// The batch a job's packet-report tasks hand it: every packet of the
/// window entering each such branch at its resume op, as `block`.
fn batch_of(deps: &[&Deployment], block: &Arc<PacketBlock>) -> WindowBatch {
    let mut batch = WindowBatch::new();
    for d in deps {
        let run = RowRun::Packets {
            block: Arc::clone(block),
            sel: (0..block.len() as u32).collect(),
        };
        batch.branch_mut(d.branch).insert(d.resume_op, vec![run]);
    }
    batch
}

#[test]
fn every_field_a_packet_job_reads_is_in_the_deployed_mask() {
    let all = catalog::all(&Thresholds::default());
    let without_zorro: Vec<Query> = all.iter().filter(|q| q.name != "zorro").cloned().collect();
    let top8 = catalog::top8(&Thresholds::default());
    let (mut jobs, mut masks) = (0, BTreeSet::new());
    for (seed, queries) in SEEDS
        .iter()
        .flat_map(|&s| [(s, &all), (s, &without_zorro), (s, &top8)])
    {
        let tr = EvaluationTrace::generate(seed, 3, 3_000, 0.03).trace;
        let windows: Vec<&[Packet]> = tr.windows(3_000).map(|(_, p)| p).collect();
        let arena = PacketArena::from_packets(windows[2]);
        let full = Arc::new(PacketBlock::new(arena.clone()));
        for mode in MODES {
            let deployed = deploy(&plan_for(mode, queries, &windows[..2])).unwrap();
            let mask = deployed.program.mirror_mask();
            let shipped = Arc::new(PacketBlock::extract(mask, arena.batch().iter()));
            masks.insert(mask);
            for inst in &deployed.instances {
                let deps: Vec<&Deployment> = (deployed.deployments.iter())
                    .filter(|d| d.job == inst.job && d.packet_mask != 0)
                    .collect();
                if deps.is_empty() {
                    continue;
                }
                assert!(deps.iter().all(|d| d.packet_mask == mask));
                // Rows are read past the switch's part of the branch.
                for d in &deps {
                    let ops = &branch_pipeline(&inst.refined, d.branch).ops;
                    assert!(d.resume_op <= ops.len());
                }
                let query = opened(&inst.refined, windows[2]);
                let mut engine = ShardedEngine::new(2);
                engine.register(query);
                let got = engine.submit(inst.job, &batch_of(&deps, &shipped));
                let want = engine.submit(inst.job, &batch_of(&deps, &full));
                let (got, want) = (got.unwrap(), want.unwrap());
                assert_eq!(
                    (got.output, got.branch_outputs),
                    (want.output, want.branch_outputs),
                    "seed {seed}, {mode:?}, {}",
                    inst.refined.name
                );
                jobs += 1;
            }
        }
    }
    // The catalog's packet jobs ran under every kind of mask: every
    // field, some fields with the bytes, scalar fields alone.
    assert!(jobs > 100, "{jobs} jobs");
    let lazy = |m: &&u32| *m & LAZY_FIELDS != 0;
    assert!(masks.contains(&ALL_FIELDS), "{masks:x?}");
    assert!(
        masks.iter().filter(lazy).any(|&m| m != ALL_FIELDS),
        "{masks:x?}"
    );
    assert!(masks.iter().any(|m| m & LAZY_FIELDS == 0), "{masks:x?}");
}

#[test]
fn the_top8_mask_is_the_seven_fields_the_queries_read() {
    let tr = EvaluationTrace::generate(11, 2, 3_000, 0.03).trace;
    let windows: Vec<&[Packet]> = tr.windows(3_000).map(|(_, p)| p).collect();
    let queries = catalog::top8(&Thresholds::default());
    for mode in MODES {
        let deployed = deploy(&plan_for(mode, &queries, &windows)).unwrap();
        let mask = deployed.program.mirror_mask();
        if mask == 0 {
            continue; // no task mirrors packets
        }
        let read = [
            Field::Ipv4Src,
            Field::Ipv4Dst,
            Field::Ipv4Proto,
            Field::TcpSrcPort,
            Field::TcpDstPort,
            Field::TcpFlags,
            Field::PktLen,
        ];
        assert_eq!(mask, sonata::packet::wire::field_mask(&read), "{mode:?}");
    }
}

#[test]
fn a_query_that_reads_the_packet_whole_ships_every_field() {
    // A `distinct` over raw packets keys on all of them; a filter-only
    // query's output is the packets themselves.
    let distinct = Query::builder("distinct_packets", 1)
        .filter(sonata::query::expr::field(Field::Ipv4Proto).eq(sonata::query::expr::lit(6)))
        .distinct()
        .build()
        .unwrap();
    let filter_only = Query::builder("tcp_packets", 2)
        .filter(sonata::query::expr::field(Field::Ipv4Proto).eq(sonata::query::expr::lit(6)))
        .build()
        .unwrap();
    for q in [distinct, filter_only] {
        assert_eq!(q.packet_field_mask(), ALL_FIELDS, "{}", q.name);
    }
    let narrow = catalog::newly_opened_tcp_conns(&Thresholds::default());
    assert_ne!(narrow.packet_field_mask(), ALL_FIELDS);
}
