//! Property tests for the emitter's column-block ingest.
//!
//! For random deployments and random windows — single reports and
//! shunts first, then chunks of mirrored report blocks over a few
//! carried packets (some undecodable, some rows indexing past them or
//! carrying none, some chunks shipping fewer fields than the tasks
//! read), then a register dump of finalized, raw and
//! deferred-`distinct` blocks, with natural, partial, reordered and
//! junk column names, unknown entry ops, stale tasks, and (under
//! dedup) colliding sequence numbers — three things must agree:
//!
//! 1. `ingest_blocks(chunk)` and `ingest_dump(blocks)`;
//! 2. `ingest` of the blocks' materialized `Report`s, one by one;
//! 3. an oracle written the slow way: a name scan per cell into a
//!    plain local store of tuples, merged by the reference interpreter
//!    (`run_entries_owned`).
//!
//! Both through `close_window` and through a fabric switch's
//! `take_partial`. The emitters hand out row runs — packet numbers
//! into shared columns, flat cells — and the oracle tuples, so what is
//! compared is what they amount to: the same tallies, the same
//! `tuple_count`, the same tuples entry by entry when the rows are
//! read out, and the same result when a stream job's operators run
//! over each (bound pipeline over the rows, reference interpreter over
//! the oracle's tuples).

use proptest::prelude::*;
use sonata_core::driver::Deployment;
use sonata_core::Emitter;
use sonata_faults::{FaultInjector, FaultPlan, ReportFaults};
use sonata_packet::wire::{ALL_FIELDS, LAZY_FIELDS};
use sonata_packet::{Field, PacketArena, PacketBuilder, Value};
use sonata_pisa::{Report, ReportBlock, ReportChunk, ReportKind, TaskId, WindowDump};
use sonata_query::expr::{col, field, lit};
use sonata_query::interpret::run_entries_owned;
use sonata_query::{
    Agg, ColName, Entries, Operator, PacketBlock, Query, QueryId, RowRun, Schema, Tuple,
};
use sonata_stream::{BoundEntries, WindowBatch};
use std::collections::{BTreeMap, HashSet};

/// Tuples by the op they enter at: the oracle's form of an entry map.
type LocalStore = BTreeMap<usize, Vec<Tuple>>;
/// Per `(job, branch)`, the tuples the job is handed.
type Direct = BTreeMap<(QueryId, u8), LocalStore>;

fn tuples_of(entries: &Entries) -> LocalStore {
    let tuples = |runs: &Vec<RowRun>| runs.iter().flat_map(RowRun::tuples).collect();
    entries
        .iter()
        .map(|(&op, runs)| (op, tuples(runs)))
        .collect()
}

/// An emitter's batches in the oracle's form, and their `tuple_count`.
fn direct_of(batches: &[(QueryId, WindowBatch)]) -> (Direct, usize) {
    let sides = |(job, b): &(QueryId, WindowBatch)| {
        [
            ((*job, 0), tuples_of(&b.left)),
            ((*job, 1), tuples_of(&b.right)),
        ]
    };
    let direct = batches.iter().flat_map(sides);
    let count = batches.iter().map(|(_, b)| b.tuple_count()).sum();
    (direct.filter(|(_, side)| !side.is_empty()).collect(), count)
}

const LEVEL: u8 = 32;

fn task(q: u32, branch: u8) -> TaskId {
    TaskId {
        query: QueryId(q),
        level: LEVEL,
        branch,
    }
}

/// Three deployment shapes: a reduce on the switch (Query 1), a
/// `distinct` feeding a reduce (superspreader), and a packet-report
/// task with nothing on the switch.
fn deployment(shape: u8, q: u32, branch: u8, th: u64) -> Deployment {
    let base = Deployment {
        task: task(q, branch),
        job: QueryId(q * 1000 + LEVEL as u32),
        branch,
        resume_op: 0,
        packet_mask: 0,
        resume_schema: Schema::packet(),
        entry_schemas: BTreeMap::new(),
        local_ops: Vec::new(),
        dynfilter_table: None,
    };
    match shape % 3 {
        0 => Deployment {
            resume_op: 4,
            resume_schema: Schema::new(["dIP", "count"]),
            entry_schemas: [(2, Schema::new(["dIP", "count"]))].into(),
            local_ops: Query::builder("reduce", q)
                .filter(field(Field::TcpFlags).eq(lit(2)))
                .map([("dIP", field(Field::Ipv4Dst)), ("count", lit(1))])
                .reduce(&["dIP"], Agg::Sum, "count")
                .filter(col("count").gt(lit(th)))
                .build()
                .unwrap()
                .pipeline
                .ops,
            ..base
        },
        1 => Deployment {
            resume_op: 5,
            resume_schema: Schema::new(["sIP", "count"]),
            entry_schemas: [
                (1, Schema::new(["sIP", "dIP"])),
                (3, Schema::new(["sIP", "count"])),
            ]
            .into(),
            local_ops: Query::builder("distinct_reduce", q)
                .map([
                    ("sIP", field(Field::Ipv4Src)),
                    ("dIP", field(Field::Ipv4Dst)),
                ])
                .distinct()
                .map([("sIP", col("sIP")), ("count", lit(1))])
                .reduce(&["sIP"], Agg::Sum, "count")
                .filter(col("count").gt(lit(th)))
                .build()
                .unwrap()
                .pipeline
                .ops,
            ..base
        },
        _ => Deployment {
            packet_mask: ALL_FIELDS,
            ..base
        },
    }
}

/// `(kind, entry_op, names)` headers a switch running `shape` sends,
/// the fabric's deferred-`distinct` dump among them.
fn natural_headers(shape: u8) -> Vec<(ReportKind, Option<usize>, &'static [&'static str])> {
    use ReportKind::*;
    match shape % 3 {
        0 => vec![
            (WindowDump, None, &["dIP", "count"]),
            (WindowDumpRaw, Some(2), &["dIP", "count"]),
            (Shunt, Some(2), &["dIP", "count"]),
        ],
        1 => vec![
            (WindowDump, None, &["sIP", "count"]),
            (WindowDumpRaw, Some(3), &["sIP", "count"]),
            (WindowDumpRaw, Some(1), &["sIP", "dIP"]),
            (Shunt, Some(1), &["sIP", "dIP"]),
            (Shunt, Some(3), &["sIP", "count"]),
        ],
        _ => vec![(Tuple, None, &[])],
    }
}

const KINDS: [ReportKind; 4] = [
    ReportKind::Tuple,
    ReportKind::Shunt,
    ReportKind::WindowDump,
    ReportKind::WindowDumpRaw,
];
const ENTRY_OPS: [Option<usize>; 5] = [None, Some(1), Some(2), Some(3), Some(7)];
/// Partial, reordered, duplicated and junk name lists.
const NAME_LISTS: [&[&str]; 7] = [
    &["count", "dIP"],
    &["dIP"],
    &["count", "sIP", "junk"],
    &["dIP", "sIP"],
    &["count", "count", "dIP"],
    &["junk"],
    &[],
];

/// One header choice: mostly what the task's switch would send,
/// sometimes anything.
fn header(
    deps: &[(u8, Deployment)],
    task_pick: u8,
    pick: u8,
) -> (TaskId, ReportKind, Option<usize>, Vec<ColName>) {
    let names = |list: &[&str]| list.iter().map(|n| ColName::from(*n)).collect();
    let slot = task_pick as usize % (deps.len() + 1);
    let Some((shape, dep)) = deps.get(slot) else {
        return (task(99, 0), KINDS[pick as usize % 4], None, names(&["dIP"]));
    };
    let p = pick as usize;
    if pick < 170 {
        let natural = natural_headers(*shape);
        let (kind, entry_op, list) = natural[p % natural.len()];
        (dep.task, kind, entry_op, names(list))
    } else {
        let list = NAME_LISTS[p % NAME_LISTS.len()];
        (dep.task, KINDS[p % 4], ENTRY_OPS[p / 4 % 5], names(list))
    }
}

/// What the test draws per report / per block; small values so keys,
/// thresholds and sequence numbers collide.
type Draw = (u8, u8, u8, bool, Vec<u64>);

fn arb_draw(rows: usize) -> impl Strategy<Value = Draw> {
    (
        any::<u8>(),
        any::<u8>(),
        0u8..12,
        any::<bool>(),
        proptest::collection::vec(0u64..4, rows * 3),
    )
}

fn report_of(deps: &[(u8, Deployment)], (task_pick, pick, seq, has_packet, vals): &Draw) -> Report {
    let (task, kind, entry_op, names) = header(deps, *task_pick, *pick);
    Report {
        task,
        kind,
        columns: names.into_iter().zip(vals.iter().copied()).collect(),
        packet: has_packet.then(|| PacketBuilder::tcp_raw(vals[0] as u32, 1, 9, 80).build()),
        entry_op,
        seq: *seq as u64,
    }
}

/// The block a [`Draw`] of up to five rows stands for, each row
/// carrying the packet `pkts` names for it (none when `pkts` is empty).
fn block_of(
    deps: &[(u8, Deployment)],
    (task_pick, pick, seq, _, vals): &Draw,
    mut pkts: Vec<u32>,
) -> ReportBlock {
    let (task, kind, entry_op, names) = header(deps, *task_pick, *pick);
    let rows = (vals.len() / 3).min(5) * usize::from(*seq % 4 != 0);
    pkts.truncate(rows);
    ReportBlock {
        task,
        kind,
        entry_op,
        first_seq: *seq as u64,
        rows,
        cells: vals[..rows * names.len()].to_vec(),
        names: names.into(),
        pkts,
    }
}

/// A chunk's packets — `None` is a record no parser accepts — whether
/// it ships every field, and its blocks: a [`Draw`] each, whether the
/// rows carry packets, and which.
type ChunkDraw = (Vec<Option<u8>>, bool, Vec<(Draw, bool, Vec<u8>)>);

fn arb_chunk() -> impl Strategy<Value = ChunkDraw> {
    let packet = prop_oneof![Just(None), (0u8..4).prop_map(Some)];
    let block = (
        arb_draw(5),
        any::<bool>(),
        proptest::collection::vec(any::<u8>(), 5),
    );
    (
        proptest::collection::vec(packet, 0..4),
        any::<bool>(),
        proptest::collection::vec(block, 0..4),
    )
}

/// The packets of a chunk that ships every field, or only the scalar
/// ones — fewer than a packet-report task here reads, and no bytes.
fn chunk_of(deps: &[(u8, Deployment)], (records, every, blocks): &ChunkDraw) -> ReportChunk {
    let mut packets = PacketArena::new();
    for (i, r) in records.iter().enumerate() {
        match r {
            Some(src) => {
                let pkt = PacketBuilder::tcp_raw(*src as u32, 1, 9, 80).build();
                packets.push_record(i as u64, &pkt.encode());
            }
            None => packets.push_record(i as u64, &[0xff; 7]),
        }
    }
    let block = |(draw, with_packets, picks): &(Draw, bool, Vec<u8>)| {
        // One index in `records.len() + 1` points past the packets.
        let pkt = |p: &u8| *p as u32 % (records.len() as u32 + 1);
        let pkts = picks.iter().map(pkt).filter(|_| *with_packets);
        block_of(deps, draw, pkts.collect())
    };
    let mask = if *every {
        ALL_FIELDS
    } else {
        ALL_FIELDS & !LAZY_FIELDS
    };
    ReportChunk {
        packets: PacketBlock::extract(mask, packets.batch().iter()),
        blocks: blocks.iter().map(block).collect(),
    }
}

/// The emitter written the slow way, one owned report at a time.
struct Oracle<'d> {
    deps: &'d [(u8, Deployment)],
    dedup: bool,
    seen: HashSet<(TaskId, u64)>,
    store: BTreeMap<TaskId, LocalStore>,
    direct: Direct,
    /// `[received, forwarded, suppressed, malformed]`.
    counts: [u64; 4],
}

/// Positional probe, then first match by name; absent reads as zero.
fn tuple_for(schema: &Schema, columns: &[(ColName, u64)]) -> Tuple {
    let cell = |(i, c): (usize, &ColName)| {
        let hit = columns.get(i).filter(|(n, _)| n == c);
        let hit = hit.or_else(|| columns.iter().find(|(n, _)| n == c));
        Value::U64(hit.map_or(0, |(_, v)| *v))
    };
    Tuple::new(schema.columns().iter().enumerate().map(cell).collect())
}

fn side<'a>(direct: &'a mut Direct, dep: &Deployment) -> &'a mut Vec<Tuple> {
    let side = direct.entry((dep.job, dep.branch)).or_default();
    side.entry(dep.resume_op).or_default()
}

/// What a stream job runs over a branch's entries: the task's switch
/// operators (rows resume past them) or, for a task that mirrors
/// packets, operators that read the packet columns — scalar ones, the
/// payload, and every column at once in the `distinct`.
fn job_ops(dep: &Deployment) -> Vec<Operator> {
    if dep.packet_mask == 0 {
        return dep.local_ops.clone();
    }
    Query::builder("over_packets", 1)
        .filter(field(Field::Ipv4Proto).eq(lit(6)))
        .distinct()
        .map([
            ("sIP", field(Field::Ipv4Src)),
            ("len", field(Field::PktLen)),
        ])
        .reduce(&["sIP"], Agg::Sum, "len")
        .build()
        .unwrap()
        .pipeline
        .ops
}

impl Oracle<'_> {
    fn ingest(&mut self, r: &Report) {
        let Some((_, dep)) = self.deps.iter().find(|(_, d)| d.task == r.task) else {
            return;
        };
        self.counts[0] += 1;
        let local = matches!(r.kind, ReportKind::Shunt | ReportKind::WindowDumpRaw);
        let schema = if local {
            r.entry_op.and_then(|op| dep.entry_schemas.get(&op))
        } else {
            Some(&dep.resume_schema).filter(|_| dep.packet_mask == 0 || r.packet.is_some())
        };
        let Some(schema) = schema else {
            self.counts[3] += 1;
            return;
        };
        if self.dedup && !self.seen.insert((r.task, r.seq)) {
            self.counts[2] += 1;
            return;
        }
        if local {
            let entry = self.store.entry(r.task).or_default();
            let tuples = entry.entry(r.entry_op.unwrap()).or_default();
            tuples.push(tuple_for(schema, &r.columns));
            return;
        }
        self.counts[1] += 1;
        let tuple = match &r.packet {
            Some(pkt) if dep.packet_mask != 0 => Tuple::from_packet(pkt),
            _ => tuple_for(schema, &r.columns),
        };
        side(&mut self.direct, dep).push(tuple);
    }

    fn partial(self) -> (Direct, Vec<(TaskId, LocalStore)>) {
        (self.direct, self.store.into_iter().collect())
    }

    fn close(mut self) -> ([u64; 4], Direct) {
        for (task, entries) in std::mem::take(&mut self.store) {
            let (_, dep) = self.deps.iter().find(|(_, d)| d.task == task).unwrap();
            let (_, survivors) = run_entries_owned(&dep.local_ops, entries).unwrap();
            self.counts[1] += survivors.len() as u64;
            side(&mut self.direct, dep).extend(survivors);
        }
        (self.counts, self.direct)
    }
}

/// `batches` amount to `want`: the same tuples entry by entry, the
/// same count, and the same job results.
fn assert_amounts_to(
    deps: &[(u8, Deployment)],
    batches: &[(QueryId, WindowBatch)],
    want: &Direct,
) -> Result<(), TestCaseError> {
    let (got, count) = direct_of(batches);
    prop_assert_eq!(&got, want);
    let wanted: usize = want
        .values()
        .flat_map(|side| side.values())
        .map(Vec::len)
        .sum();
    prop_assert_eq!(count, wanted);
    for (job, batch) in batches {
        for (branch, entries) in [(0, &batch.left), (1, &batch.right)] {
            let Some(tuples) = want.get(&(*job, branch)) else {
                continue;
            };
            let mut dep = deps.iter().map(|(_, d)| d);
            let dep = dep.find(|d| (d.job, d.branch) == (*job, branch)).unwrap();
            let ops = job_ops(dep);
            let got = BoundEntries::bind(&ops).run(entries).unwrap();
            let (_, want) = run_entries_owned(&ops, tuples.clone()).unwrap();
            prop_assert_eq!(got.tuples().collect::<Vec<_>>(), want);
        }
    }
    Ok(())
}

fn counts(e: &Emitter) -> [u64; 4] {
    [e.received, e.forwarded, e.suppressed, e.malformed].map(|t| t.total)
}

proptest! {
    #[test]
    fn block_ingest_equals_report_ingest_equals_the_reference_merge(
        shapes in proptest::collection::vec((0u8..3, 0u8..2, 0u64..3), 1..4),
        reports in proptest::collection::vec(arb_draw(1), 0..24),
        chunks in proptest::collection::vec(arb_chunk(), 0..4),
        blocks in proptest::collection::vec(arb_draw(5), 0..8),
        dedup in any::<bool>(),
        partial in any::<bool>(),
    ) {
        // Distinct tasks; two branches of one query share a job.
        let deps: Vec<(u8, Deployment)> = (shapes.iter().enumerate())
            .map(|(i, &(shape, branch, th))| (shape, deployment(shape, 1 + i as u32 / 2, branch, th)))
            .collect();
        let deps: Vec<(u8, Deployment)> = (deps.iter().enumerate())
            .filter(|(i, (_, d))| deps[..*i].iter().all(|(_, e)| e.task != d.task))
            .map(|(_, d)| d.clone())
            .collect();
        let plain: Vec<Deployment> = deps.iter().map(|(_, d)| d.clone()).collect();
        let faults = FaultInjector::from_plan(&FaultPlan {
            seed: 1,
            report: ReportFaults {
                duplicate_per_mille: u32::from(dedup),
                ..ReportFaults::default()
            },
            ..FaultPlan::default()
        });
        prop_assert_eq!(faults.is_enabled(), dedup);
        let reports: Vec<Report> = reports.iter().map(|d| report_of(&deps, d)).collect();
        let chunks: Vec<ReportChunk> = chunks.iter().map(|d| chunk_of(&deps, d)).collect();
        let dump = WindowDump {
            tuples: ReportChunk {
                blocks: blocks.iter().map(|d| block_of(&deps, d, Vec::new())).collect(),
                ..ReportChunk::default()
            },
            ..WindowDump::default()
        };
        let rows: Vec<Report> = dump.tuples.reports().collect();
        prop_assert_eq!(rows.len(), dump.tuples.len());

        let mut by_block = Emitter::with_faults(&plain, &faults);
        let mut by_report = Emitter::with_faults(&plain, &faults);
        let mut oracle = Oracle {
            deps: &deps,
            dedup,
            seen: HashSet::new(),
            store: BTreeMap::new(),
            direct: Direct::new(),
            counts: [0; 4],
        };
        for r in &reports {
            by_block.ingest(r);
            by_report.ingest(r);
            oracle.ingest(r);
        }
        for chunk in &chunks {
            prop_assert!(chunk.blocks.iter().all(ReportBlock::is_well_formed));
            by_block.ingest_blocks(chunk.clone());
            for r in chunk.reports() {
                by_report.ingest(&r);
                oracle.ingest(&r);
            }
        }
        by_block.ingest_dump(&dump);
        for r in &rows {
            by_report.ingest(r);
            oracle.ingest(r);
        }
        prop_assert_eq!(
            (by_block.received.window, by_block.forwarded.window),
            (oracle.counts[0], oracle.counts[1])
        );
        if partial {
            let (want, want_local) = oracle.partial();
            for e in [&mut by_block, &mut by_report] {
                let (direct, local) = e.take_partial();
                assert_amounts_to(&deps, &direct, &want)?;
                let local: Vec<_> = local.iter().map(|(t, s)| (*t, tuples_of(s))).collect();
                prop_assert_eq!(&local, &want_local);
            }
        } else {
            let (want_counts, want) = oracle.close();
            assert_amounts_to(&deps, &by_block.close_window().unwrap(), &want)?;
            assert_amounts_to(&deps, &by_report.close_window().unwrap(), &want)?;
            prop_assert_eq!(counts(&by_block), want_counts);
        }
        prop_assert_eq!(counts(&by_block), counts(&by_report));
    }
}
