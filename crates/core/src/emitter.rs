//! The emitter: the software shim between the switch's monitoring
//! port and the stream processor (Section 5).
//!
//! During a window it consumes mirrored report packets, demultiplexes
//! them by task (`qid`), and buffers. Per-packet tuple reports and
//! switch-finalized window dumps are forwarded straight into the
//! stream-job batches. Collision shunts and *raw* dumps (registers
//! whose task shunted this window) go to the emitter's **local
//! key-value store** instead: at window end it replays the task's
//! switch-resident operators over them — re-aggregating shunted keys,
//! merging them with the register dump, and applying the merged
//! threshold — and forwards only the surviving tuples. This is exactly
//! the paper's emitter: "it stores the output of stateful operators in
//! a local key-value data store \[and\] reads the aggregated value for
//! each key … from the data-plane registers before sending the output
//! tuples to the stream processor."
//!
//! Everything is per-task state built once from the deployed plan.
//! Mirrored reports and the register dump both arrive as
//! [`ReportBlock`]s; a block — or a single report, a block of one row —
//! is resolved once: one task lookup, one column permutation, one
//! destination, then a loop over its rows, which go through the
//! permutation as `u64`s and stay `u64`s. A task whose rows are the
//! packets themselves gets no rows built at all: the chunk's packets
//! arrive as one shared, immutable [`PacketBlock`] of the columns the
//! plan reads, and the task keeps the packet numbers its block named.

use crate::driver::Deployment;
use sonata_faults::FaultInjector;
use sonata_pisa::{Report, ReportBlock, ReportChunk, ReportKind, TaskId, WindowDump};
use sonata_query::{ColName, Entries, PacketBlock, QueryId, RowRun, Rows, Schema};
use sonata_stream::{BoundEntries, StreamError, WindowBatch};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// A task's rows awaiting the end-of-window merge, keyed by the
/// pipeline op they enter at.
pub(crate) type LocalStore = Entries;

/// One task's share of the emitter.
#[derive(Debug)]
struct TaskState {
    dep: Deployment,
    /// `dep.local_ops`, bound once: the end-of-window merge.
    merge: BoundEntries,
    /// The local key-value store.
    store: LocalStore,
    /// Report seqs seen this window (filled only under dedup).
    seen: HashSet<u64>,
}

/// A count kept for the window in progress, for the last window
/// closed, and in total.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// In the current window so far.
    pub window: u64,
    /// In the most recently closed window.
    pub last: u64,
    /// Cumulative over closed windows.
    pub total: u64,
}

impl Tally {
    fn roll(&mut self) {
        self.total += self.window;
        self.last = std::mem::take(&mut self.window);
    }
}

/// Converts switch reports into per-job window batches.
#[derive(Debug, Default)]
pub struct Emitter {
    tasks: BTreeMap<TaskId, TaskState>,
    /// Accumulating batches, keyed by stream job.
    batches: HashMap<QueryId, WindowBatch>,
    /// Scratch: for each column of the schema being laid out, where it
    /// sits among the report's columns ([`ABSENT`] if it does not).
    perm: Vec<usize>,
    /// Duplicate suppression, active only when fault injection is on:
    /// per-task `(window, seq)` sets keyed on the switch-assigned
    /// report sequence number — an injected duplicate repeats a seq, a
    /// legitimately identical tuple never does, so fault-free
    /// behaviour is untouched.
    dedup: bool,
    /// Switch→emitter reports (includes shunts and raw dumps that the
    /// local store absorbs).
    pub received: Tally,
    /// Tuples forwarded toward the stream processor (per-packet
    /// reports, finalized dumps, and at close the merge's survivors).
    pub forwarded: Tally,
    /// Duplicate reports suppressed.
    pub suppressed: Tally,
    /// Reports that decode but cannot be placed (see [`Self::ingest`]).
    /// The wire is a trust boundary: they are counted and dropped.
    pub malformed: Tally,
}

/// Marks a schema column the report lacks; it reads as zero, mirroring
/// uninitialized metadata.
const ABSENT: usize = usize::MAX;

/// The job-batch entry a task's forwarded rows and merge survivors
/// land in.
fn resume_entry<'a>(
    dep: &Deployment,
    batches: &'a mut HashMap<QueryId, WindowBatch>,
) -> &'a mut Vec<RowRun> {
    let side = batches.entry(dep.job).or_default().branch_mut(dep.branch);
    side.entry(dep.resume_op).or_default()
}

/// The packets some rows carry, and per row the number of its packet
/// among them (none at all when the rows name no packets).
type Carried = (Arc<PacketBlock>, Vec<u32>);

impl Emitter {
    /// Build from the deployed plan's per-task bookkeeping.
    pub fn new(deployments: &[Deployment]) -> Self {
        Self::with_faults(deployments, &FaultInjector::disabled())
    }

    /// [`Self::new`] with a fault injector: an enabled injector turns
    /// on duplicate-report suppression (the graceful-degradation
    /// response to injected report duplication).
    pub fn with_faults(deployments: &[Deployment], faults: &FaultInjector) -> Self {
        let state = |d: &Deployment| TaskState {
            dep: d.clone(),
            merge: BoundEntries::bind(&d.local_ops),
            store: LocalStore::new(),
            seen: HashSet::new(),
        };
        Emitter {
            tasks: deployments.iter().map(|d| (d.task, state(d))).collect(),
            dedup: faults.is_enabled(),
            ..Emitter::default()
        }
    }

    /// Ingest one mirrored report: a block of one row, its packet —
    /// if it carries one — a block of one packet. A report of a task
    /// the plan does not deploy is stale (a plan change) and ignored.
    /// One that names a deployed task but cannot be placed — a shunt
    /// or raw row with no entry op or one the task has no schema for,
    /// a packet-report task's report without its packet — is counted
    /// malformed and dropped.
    pub fn ingest(&mut self, report: &Report) {
        let cols = &report.columns;
        let packet = || {
            Some((
                Arc::new(PacketBlock::of_packet(report.packet.as_ref()?)),
                vec![0],
            ))
        };
        self.place(
            (report.task, report.kind, report.entry_op, report.seq),
            (1, cols.len()),
            |j| &cols[j].0,
            |_, j| cols[j].1,
            packet,
        );
    }

    /// Ingest a chunk of mirrored reports, block by block: the rows of
    /// [`ReportChunk::reports`], placed as [`Self::ingest`] places
    /// them one by one. The chunk's packets are one shared block of
    /// columns, taken as they came; a packet-report task keeps its
    /// block's packet numbers and nothing else.
    pub fn ingest_blocks(&mut self, chunk: ReportChunk) {
        let packets = Arc::new(chunk.packets);
        for mut b in chunk.blocks {
            let pkts = b.is_well_formed().then(|| std::mem::take(&mut b.pkts));
            self.ingest_block(&b, pkts, &packets);
        }
    }

    /// Ingest the end-of-window register dump: its chunk's blocks, as
    /// [`Self::ingest_blocks`] places them (a dump's rows carry no
    /// packets, so a packet-report task's are malformed).
    pub fn ingest_dump(&mut self, dump: &WindowDump) {
        let packets = Arc::new(dump.tuples.packets.clone());
        for b in &dump.tuples.blocks {
            self.ingest_block(b, b.is_well_formed().then(|| b.pkts.clone()), &packets);
        }
    }

    /// Place one block's rows over the chunk's `packets`; `pkts` is the
    /// block's packet numbers, moved or copied out of it by the caller,
    /// or `None` if its cells or packet indices are not whole rows —
    /// then it is dropped as one malformed report. A packet-report
    /// task's row whose packet index is absent, past the chunk's
    /// packets or undecodable, or whose packet lacks a field the task
    /// reads, is dropped as one each.
    fn ingest_block(
        &mut self,
        b: &ReportBlock,
        pkts: Option<Vec<u32>>,
        packets: &Arc<PacketBlock>,
    ) {
        let Some(pkts) = pkts else {
            self.received.window += 1;
            self.malformed.window += 1;
            return;
        };
        let width = b.width();
        self.place(
            (b.task, b.kind, b.entry_op, b.first_seq),
            (b.rows, width),
            |j| &b.names[j],
            |r, j| b.cells[r * width + j],
            || Some((Arc::clone(packets), pkts)),
        );
    }

    /// Place `rows` reports that share a header `(task, kind, entry op,
    /// first seq)` and `width` column names `name(j)`; row `r` holds
    /// `cell(r, j)`, carries seq `first seq + r`, and — asked for only
    /// by a task whose rows are packets — the packet `carried()`
    /// numbers for it.
    fn place<'a>(
        &mut self,
        (task, kind, entry_op, first_seq): (TaskId, ReportKind, Option<usize>, u64),
        (rows, width): (usize, usize),
        name: impl Fn(usize) -> &'a ColName,
        cell: impl Fn(usize, usize) -> u64,
        carried: impl FnOnce() -> Option<Carried>,
    ) {
        let Some(TaskState {
            dep, store, seen, ..
        }) = self.tasks.get_mut(&task)
        else {
            return;
        };
        self.received.window += rows as u64;
        // Shunts and raw dump rows wait in the local store, laid out by
        // their entry op's schema; the rest goes straight to the job.
        let local = matches!(kind, ReportKind::Shunt | ReportKind::WindowDumpRaw);
        let schema: Option<&Schema> = if local {
            entry_op.and_then(|op| dep.entry_schemas.get(&op))
        } else {
            Some(&dep.resume_schema)
        };
        let Some(schema) = schema else {
            self.malformed.window += rows as u64;
            return;
        };
        // `(task, window, seq)` identifies one logical report (seqs are
        // per-task, per-window); a repeat is an injected duplicate and
        // is suppressed, not re-applied.
        let dedup = self.dedup;
        let mut fresh = |r: usize| !dedup || seen.insert(first_seq.wrapping_add(r as u64));
        let (mut run, mut unplaceable) = (None, 0);
        if !local && dep.packet_mask != 0 {
            // A row without its packet cannot be placed, nor one whose
            // packet lacks a field the task reads; either is turned
            // away before its seq is noted.
            let reads_all = |(b, _): &Carried| b.mask() & dep.packet_mask == dep.packet_mask;
            let (block, mut sel) = carried().filter(reads_all).unwrap_or_default();
            unplaceable = rows - sel.len();
            let mut r = 0;
            sel.retain(|&p| {
                r += 1;
                let decodes = block.is_valid(p);
                unplaceable += usize::from(!decodes);
                decodes && fresh(r - 1)
            });
            if !sel.is_empty() {
                run = Some(RowRun::Packets { block, sel });
            }
        } else {
            // Switch reports lay columns out in schema order, so the
            // positional probe almost always hits; the scan covers
            // partial or reordered reports.
            self.perm.clear();
            let cols = schema.columns().iter().enumerate();
            self.perm.extend(cols.map(|(i, c)| {
                if i < width && name(i) == c {
                    i
                } else {
                    (0..width).find(|&j| name(j) == c).unwrap_or(ABSENT)
                }
            }));
            let mut flat = Rows::new(self.perm.len());
            for r in (0..rows).filter(|&r| fresh(r)) {
                let value = |&j: &usize| if j == ABSENT { 0 } else { cell(r, j) };
                flat.push(self.perm.iter().map(value));
            }
            if !flat.is_empty() {
                run = Some(RowRun::Cells(flat));
            }
        }
        // Rows that are all repeats leave no trace.
        let pushed = run.as_ref().map_or(0, RowRun::len);
        if let Some(run) = run {
            let out = match entry_op.filter(|_| local) {
                Some(op) => store.entry(op).or_default(),
                None => resume_entry(dep, &mut self.batches),
            };
            match (run, out.last_mut()) {
                (RowRun::Cells(flat), Some(RowRun::Cells(open)))
                    if open.width() == flat.width() =>
                {
                    open.append(&flat)
                }
                (run, _) => out.push(run),
            }
        }
        self.malformed.window += unplaceable as u64;
        self.suppressed.window += (rows - pushed - unplaceable) as u64;
        self.forwarded.window += if local { 0 } else { pushed as u64 };
    }

    /// The job batches of the window in flight, as placed so far: the
    /// rows the job pool can take before close.
    pub(crate) fn in_flight(&mut self) -> impl Iterator<Item = (QueryId, &mut WindowBatch)> {
        self.batches.iter_mut().map(|(job, batch)| (*job, batch))
    }

    /// Close the window: merge the local store (replaying each task's
    /// switch-side operators over shunts + raw dumps, which applies
    /// the thresholds the switch had to skip), forward survivors, and
    /// hand out the accumulated batches.
    pub fn close_window(&mut self) -> Result<Vec<(QueryId, WindowBatch)>, StreamError> {
        for t in self.tasks.values_mut().filter(|t| !t.store.is_empty()) {
            let survivors = t.merge.run(&std::mem::take(&mut t.store))?;
            self.forwarded.window += survivors.len() as u64;
            resume_entry(&t.dep, &mut self.batches).push(RowRun::Cells(survivors));
        }
        Ok(self.roll_window())
    }

    /// Close the window on one *fabric* switch's emitter: hand out the
    /// directly forwarded batches plus the raw local store (shunts and
    /// raw dumps, pre-replay, in task order), without running the
    /// switch-operator replay. A fabric must union the local stores of
    /// every switch first and replay the operators once over the
    /// union — per-switch replay would apply thresholds to partial
    /// per-switch aggregates and drop keys whose fabric-wide sum
    /// crosses the threshold.
    #[allow(clippy::type_complexity)]
    pub fn take_partial(&mut self) -> (Vec<(QueryId, WindowBatch)>, Vec<(TaskId, LocalStore)>) {
        let local = (self.tasks.iter_mut())
            .filter(|(_, t)| !t.store.is_empty())
            .map(|(task, t)| (*task, std::mem::take(&mut t.store)))
            .collect();
        (self.roll_window(), local)
    }

    /// End-of-window counter roll shared by both close paths.
    fn roll_window(&mut self) -> Vec<(QueryId, WindowBatch)> {
        self.received.roll();
        self.forwarded.roll();
        self.suppressed.roll();
        self.malformed.roll();
        // Seqs restart next window.
        self.tasks.values_mut().for_each(|t| t.seen.clear());
        let mut out: Vec<(QueryId, WindowBatch)> = self.batches.drain().collect();
        out.sort_by_key(|(job, _)| *job);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sonata_packet::wire::ALL_FIELDS;
    use sonata_packet::{Field, PacketBuilder, Value};
    use sonata_query::expr::{col, field, lit};
    use sonata_query::{Agg, QueryId, Tuple};

    /// Query-1-shaped ops: filter, map, reduce, threshold filter.
    fn q1_ops(th: u64) -> Vec<sonata_query::Operator> {
        sonata_query::Query::builder("x", 1)
            .filter(field(Field::TcpFlags).eq(lit(2)))
            .map([("dIP", field(Field::Ipv4Dst)), ("count", lit(1))])
            .reduce(&["dIP"], Agg::Sum, "count")
            .filter(col("count").gt(lit(th)))
            .build()
            .unwrap()
            .pipeline
            .ops
    }

    fn deployment(task: TaskId, job: u32) -> Deployment {
        Deployment {
            task,
            job: QueryId(job),
            branch: task.branch,
            resume_op: 4,
            packet_mask: 0,
            resume_schema: Schema::new(["dIP", "count"]),
            entry_schemas: [(2usize, Schema::new(["dIP", "count"]))]
                .into_iter()
                .collect(),
            local_ops: q1_ops(2),
            dynfilter_table: None,
        }
    }

    fn task(q: u32, branch: u8) -> TaskId {
        TaskId {
            query: QueryId(q),
            level: 32,
            branch,
        }
    }

    fn report(
        task: TaskId,
        kind: ReportKind,
        cols: Vec<(ColName, u64)>,
        entry: Option<usize>,
    ) -> Report {
        report_seq(task, kind, cols, entry, 0)
    }

    fn report_seq(
        task: TaskId,
        kind: ReportKind,
        cols: Vec<(ColName, u64)>,
        entry: Option<usize>,
        seq: u64,
    ) -> Report {
        Report {
            task,
            kind,
            columns: cols,
            packet: None,
            entry_op: entry,
            seq,
        }
    }

    #[test]
    fn finalized_dumps_forward_directly() {
        let mut e = Emitter::new(&[deployment(task(1, 0), 10)]);
        e.ingest(&report(
            task(1, 0),
            ReportKind::WindowDump,
            vec![("count".into(), 7), ("dIP".into(), 42)],
            None,
        ));
        assert_eq!(e.forwarded.window, 1);
        let batches = e.close_window().unwrap();
        let t = &batches[0].1.tuples(0, 4)[0];
        // Columns reordered into the resume schema.
        assert_eq!(t.get(0), &Value::U64(42));
        assert_eq!(t.get(1), &Value::U64(7));
    }

    #[test]
    fn shunts_merge_with_raw_dump_and_threshold_applies() {
        let mut e = Emitter::new(&[deployment(task(1, 0), 10)]);
        // Raw dump: key 0xaa aggregated 2 on the switch (≤ threshold 2).
        e.ingest(&report(
            task(1, 0),
            ReportKind::WindowDumpRaw,
            vec![("dIP".into(), 0xaa), ("count".into(), 2)],
            Some(2),
        ));
        // Two shunted packets of the same key: merged count 4 > 2.
        for _ in 0..2 {
            e.ingest(&report(
                task(1, 0),
                ReportKind::Shunt,
                vec![("dIP".into(), 0xaa), ("count".into(), 1)],
                Some(2),
            ));
        }
        // A different shunted key with too few packets: filtered out.
        e.ingest(&report(
            task(1, 0),
            ReportKind::Shunt,
            vec![("dIP".into(), 0xbb), ("count".into(), 1)],
            Some(2),
        ));
        assert_eq!(e.forwarded.window, 0); // nothing forwarded yet
        assert_eq!(e.received.window, 4);
        let batches = e.close_window().unwrap();
        let tuples = batches[0].1.tuples(0, 4);
        assert_eq!(tuples.len(), 1, "{tuples:?}");
        assert_eq!(tuples[0].get(0), &Value::U64(0xaa));
        assert_eq!(tuples[0].get(1), &Value::U64(4));
        // Accounting: 4 received, 1 forwarded.
        assert_eq!(e.received.total, 4);
        assert_eq!(e.forwarded.total, 1);
    }

    #[test]
    fn raw_dump_below_threshold_without_shunts_is_dropped() {
        let mut e = Emitter::new(&[deployment(task(1, 0), 10)]);
        e.ingest(&report(
            task(1, 0),
            ReportKind::WindowDumpRaw,
            vec![("dIP".into(), 0xcc), ("count".into(), 1)],
            Some(2),
        ));
        let batches = e.close_window().unwrap();
        assert!(batches.is_empty() || batches[0].1.tuple_count() == 0);
    }

    #[test]
    fn branches_route_left_and_right() {
        let mut e = Emitter::new(&[deployment(task(1, 0), 10), deployment(task(1, 1), 10)]);
        let mk = |branch| {
            report(
                task(1, branch),
                ReportKind::Tuple,
                vec![("dIP".into(), 1)],
                None,
            )
        };
        e.ingest(&mk(0));
        e.ingest(&mk(1));
        let batches = e.close_window().unwrap();
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].1.left.len(), 1);
        assert_eq!(batches[0].1.right.len(), 1);
        assert_eq!(batches[0].1.tuple_count(), 2);
    }

    #[test]
    fn packet_reports_become_packet_tuples() {
        let pkt = PacketBuilder::tcp_raw(5, 6, 7, 80).build();
        let mut e = Emitter::new(&[{
            let mut d = deployment(task(1, 0), 10);
            d.packet_mask = ALL_FIELDS;
            d.resume_op = 0;
            d.resume_schema = Schema::packet();
            d
        }]);
        e.ingest(&Report {
            task: task(1, 0),
            kind: ReportKind::Tuple,
            columns: vec![],
            packet: Some(pkt),
            entry_op: None,
            seq: 0,
        });
        let batches = e.close_window().unwrap();
        let t = &batches[0].1.tuples(0, 0)[0];
        assert_eq!(t.len(), Schema::packet().len());
    }

    fn mirror(q: u32, pkts: Vec<u32>) -> sonata_pisa::ReportBlock {
        sonata_pisa::ReportBlock {
            task: task(q, 0),
            kind: ReportKind::Tuple,
            entry_op: None,
            first_seq: 0,
            names: [].into(),
            rows: 3,
            cells: vec![],
            pkts,
        }
    }

    #[test]
    fn a_chunk_shares_its_packet_columns_and_drops_what_it_cannot_place() {
        use sonata_packet::PacketArena;
        use sonata_pisa::ReportChunk;
        use sonata_query::PacketBlock;
        let mut packets = PacketArena::new();
        packets.push_record(0, &PacketBuilder::tcp_raw(5, 6, 7, 80).build().encode());
        packets.push_record(1, &[0xff; 3]); // no parser accepts this one
        let chunk = ReportChunk {
            packets: PacketBlock::new(packets),
            blocks: vec![
                // Packet 0 twice, then the undecodable one.
                mirror(1, vec![0, 0, 1]),
                // Packet 0, one past the chunk's packets, packet 0.
                mirror(2, vec![0, 2, 0]),
                // Rows that name no packet at all.
                mirror(1, vec![]),
                // Two indices for three rows: not a block.
                mirror(2, vec![0, 0]),
            ],
        };
        let mut e = Emitter::new(&[
            packet_deployment(task(1, 0), 10),
            packet_deployment(task(2, 0), 20),
        ]);
        e.ingest_blocks(chunk);
        assert_eq!((e.received.window, e.forwarded.window), (10, 4));
        assert_eq!((e.malformed.window, e.suppressed.window), (6, 0));
        let batches = e.close_window().unwrap();
        // Both tasks hold one run: two numbers into the same block.
        let block_of = |job: usize| match &batches[job].1.left[&0][..] {
            [RowRun::Packets { block, sel }] if sel == &[0, 0] => Arc::clone(block),
            other => panic!("{other:?}"),
        };
        assert!(Arc::ptr_eq(&block_of(0), &block_of(1)));
        let row = Tuple::from_packet(&PacketBuilder::tcp_raw(5, 6, 7, 80).build());
        let rows = |job: usize| batches[job].1.tuples(0, 0);
        assert!(rows(0).iter().chain(&rows(1)).all(|t| *t == row));
    }

    #[test]
    fn a_chunk_without_a_field_the_task_reads_is_malformed() {
        use sonata_packet::wire::field_mask;
        use sonata_pisa::ReportChunk;
        use sonata_query::PacketBlock;
        let pkt = PacketBuilder::tcp_raw(5, 6, 7, 80).build();
        let chunk = || ReportChunk {
            packets: PacketBlock::of_packet(&pkt),
            blocks: vec![mirror(1, vec![0, 0, 0])],
        };
        let narrow = |mask| ReportChunk {
            packets: PacketBlock::extract(mask, chunk().packets.packets().batch().iter()),
            ..chunk()
        };
        let deployed = Deployment {
            packet_mask: field_mask(&[Field::Ipv4Src, Field::TcpDstPort]),
            ..packet_deployment(task(1, 0), 10)
        };
        let mut e = Emitter::new(&[deployed]);
        // The fields the task reads and more, exactly them, one short.
        e.ingest_blocks(chunk());
        e.ingest_blocks(narrow(field_mask(&[Field::Ipv4Src, Field::TcpDstPort])));
        e.ingest_blocks(narrow(field_mask(&[Field::Ipv4Src, Field::Ipv4Dst])));
        assert_eq!((e.received.window, e.forwarded.window), (9, 6));
        assert_eq!((e.malformed.window, e.suppressed.window), (3, 0));
        // A field the mask leaves out reads as zero in the tuple.
        let tuples = e.close_window().unwrap()[0].1.tuples(0, 0);
        let dport = Field::TcpDstPort as usize;
        assert!(tuples[..3].iter().all(|t| *t == Tuple::from_packet(&pkt)));
        for t in &tuples[3..] {
            assert_eq!((t.get(0), t.get(dport)), (&Value::U64(5), &Value::U64(80)));
            assert_eq!(t.get(Field::Ipv4Dst as usize), &Value::U64(0));
        }
    }

    fn dedup_emitter(deployments: &[Deployment]) -> Emitter {
        use sonata_faults::{FaultPlan, ReportFaults};
        let inj = FaultInjector::from_plan(&FaultPlan {
            seed: 1,
            report: ReportFaults {
                duplicate_per_mille: 1,
                ..ReportFaults::default()
            },
            ..FaultPlan::default()
        });
        Emitter::with_faults(deployments, &inj)
    }

    #[test]
    fn duplicate_seqs_are_suppressed_when_faults_enabled() {
        let mut e = dedup_emitter(&[deployment(task(1, 0), 10)]);
        let r = report_seq(
            task(1, 0),
            ReportKind::WindowDump,
            vec![("count".into(), 7), ("dIP".into(), 42)],
            None,
            5,
        );
        e.ingest(&r);
        e.ingest(&r); // injected duplicate: same (task, window, seq)
        assert_eq!(e.forwarded.window, 1);
        assert_eq!(e.received.window, 2);
        let batches = e.close_window().unwrap();
        assert_eq!(batches[0].1.tuple_count(), 1);
        assert_eq!(e.suppressed.last, 1);
        assert_eq!(e.suppressed.total, 1);
        // Seqs restart per window: the same seq next window is fresh.
        e.ingest(&report_seq(
            task(1, 0),
            ReportKind::WindowDump,
            vec![("count".into(), 9), ("dIP".into(), 42)],
            None,
            5,
        ));
        assert_eq!(e.forwarded.window, 1);
        let batches = e.close_window().unwrap();
        assert_eq!(batches[0].1.tuple_count(), 1);
        assert_eq!(e.suppressed.last, 0);
    }

    #[test]
    fn identical_tuples_with_distinct_seqs_both_pass() {
        let mut e = dedup_emitter(&[deployment(task(1, 0), 10)]);
        for seq in [0, 1] {
            e.ingest(&report_seq(
                task(1, 0),
                ReportKind::Shunt,
                vec![("dIP".into(), 0xaa), ("count".into(), 1)],
                Some(2),
                seq,
            ));
        }
        assert_eq!(e.received.window, 2);
        assert_eq!(e.suppressed.window, 0);
    }

    #[test]
    fn stale_tasks_are_dropped() {
        let mut e = Emitter::new(&[deployment(task(1, 0), 10)]);
        e.ingest(&report(task(99, 0), ReportKind::Tuple, vec![], None));
        assert_eq!(e.received.window, 0);
        assert!(e.close_window().unwrap().is_empty());
    }

    fn packet_deployment(task: TaskId, job: u32) -> Deployment {
        Deployment {
            packet_mask: ALL_FIELDS,
            resume_op: 0,
            resume_schema: Schema::packet(),
            ..deployment(task, job)
        }
    }

    /// The reports and dump blocks the codec accepts but a switch
    /// running the plan never sends.
    fn malformed_traffic() -> (Vec<Report>, WindowDump) {
        let cols = || vec![("dIP".into(), 1), ("count".into(), 1)];
        let reports = vec![
            // A shunt and a raw row with no entry op.
            report(task(1, 0), ReportKind::Shunt, cols(), None),
            report(task(1, 0), ReportKind::WindowDumpRaw, cols(), None),
            // An entry op the task has no schema for.
            report(task(1, 0), ReportKind::Shunt, cols(), Some(9)),
            // A packet-report task's report without its packet.
            report(task(2, 0), ReportKind::Tuple, cols(), None),
        ];
        let block = |task, kind, entry_op, rows, cells| ReportBlock {
            task,
            kind,
            entry_op,
            first_seq: 0,
            names: ["dIP".into(), "count".into()].into(),
            rows,
            cells,
            pkts: Vec::new(),
        };
        let blocks = vec![
            // Three cells are not two rows of two.
            block(task(1, 0), ReportKind::WindowDump, None, 2, vec![1, 2, 3]),
            // Two rows at an unknown entry op, one with none.
            block(
                task(1, 0),
                ReportKind::WindowDumpRaw,
                Some(9),
                2,
                vec![1; 4],
            ),
            block(task(1, 0), ReportKind::WindowDumpRaw, None, 1, vec![1; 2]),
            // Two rows for a task whose tuples are packets.
            block(task(2, 0), ReportKind::WindowDump, None, 2, vec![1; 4]),
        ];
        let dump = WindowDump {
            tuples: ReportChunk {
                blocks,
                ..ReportChunk::default()
            },
            ..WindowDump::default()
        };
        (reports, dump)
    }

    fn assert_all_dropped_as_malformed(mut e: Emitter) {
        // 4 reports, 1 ill-formed block, 2 + 1 + 2 unplaceable rows.
        assert_eq!((e.received.window, e.forwarded.window), (10, 0));
        assert!(e.close_window().unwrap().is_empty());
        assert_eq!((e.malformed.last, e.malformed.total), (10, 10));
        // A good report afterwards still lands.
        let cols = vec![("dIP".into(), 1), ("count".into(), 1)];
        e.ingest(&report(task(1, 0), ReportKind::WindowDump, cols, None));
        assert_eq!(e.close_window().unwrap()[0].1.tuple_count(), 1);
        assert_eq!((e.malformed.last, e.malformed.total), (0, 10));
    }

    #[test]
    fn malformed_frames_decode_and_are_dropped_by_the_emitter() {
        use sonata_net::{decode_frame, encode_frame, Frame};
        let (reports, dump) = malformed_traffic();
        let mut e = Emitter::new(&[
            deployment(task(1, 0), 10),
            packet_deployment(task(2, 0), 20),
        ]);
        // The ill-formed block cannot be encoded (the codec writes
        // whole rows); it reaches an emitter only in process.
        let (ill_formed, well_formed) = dump.tuples.blocks.split_at(1);
        let only = |blocks: &[ReportBlock]| WindowDump {
            tuples: ReportChunk {
                blocks: blocks.to_vec(),
                ..ReportChunk::default()
            },
            ..WindowDump::default()
        };
        let wire_dump = only(well_formed);
        e.ingest_dump(&only(ill_formed));
        let frames = (reports.into_iter().map(Frame::Report)).chain([Frame::WindowDump {
            window: 0,
            dump: wire_dump,
        }]);
        for frame in frames {
            match decode_frame(&encode_frame(&frame)).unwrap().0 {
                Frame::Report(r) => e.ingest(&r),
                Frame::WindowDump { dump, .. } => e.ingest_dump(&dump),
                other => panic!("decoded as {other:?}"),
            }
        }
        assert_all_dropped_as_malformed(e);
    }

    #[test]
    fn malformed_reports_over_loopback_are_dropped_by_the_emitter() {
        use sonata_net::{loopback_pair, CollectorEndpoint, Frame, NetMetrics, SwitchEndpoint};
        use sonata_obs::ObsHandle;
        let (reports, dump) = malformed_traffic();
        let metrics = NetMetrics::new(&ObsHandle::disabled());
        let (sw_t, sp_t) = loopback_pair(64, &metrics);
        let faults = FaultInjector::disabled();
        let sw = SwitchEndpoint::new(Box::new(sw_t), faults, metrics.clone(), "sw", 7, 0);
        let mut sw = sw.unwrap();
        let mut sp = CollectorEndpoint::new(Box::new(sp_t), metrics, 7, 0);
        sw.open_window(0, 4).unwrap();
        sw.send_packet_reports(reports).unwrap();
        sw.send_dump(0, dump).unwrap();
        sw.close_window(0, 0, 0, 0).unwrap();
        let mut e = Emitter::new(&[
            deployment(task(1, 0), 10),
            packet_deployment(task(2, 0), 20),
        ]);
        while let Some(frame) = sp.try_recv_frame().unwrap() {
            match frame {
                Frame::Report(r) => e.ingest(&r),
                Frame::WindowDump { dump, .. } => e.ingest_dump(&dump),
                _ => {}
            }
        }
        assert_all_dropped_as_malformed(e);
    }
}
