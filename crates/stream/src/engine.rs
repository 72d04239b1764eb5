//! Per-window query evaluation.
//!
//! [`execute_window`] evaluates one query over one window's
//! [`WindowBatch`] through the reference interpreter;
//! `MicroBatchEngine` is the per-job executor the job pool
//! ([`crate::worker::ShardedEngine`]) runs: one registered query with
//! its compiled fast path.

use crate::window::WindowBatch;
use sonata_query::bound::{BoundError, BoundJoin, BoundPipeline};
use sonata_query::interpret::{run_entries_owned, run_join, InterpretError};
use sonata_query::{Entries, Query, QueryId, RowRun, Rows, Schema, Tuple};
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Errors from window execution.
#[derive(Debug)]
pub enum StreamError {
    /// The underlying interpreter failed (authoring bug).
    Interpret(InterpretError),
    /// A batch entry index is past the end of the branch pipeline.
    BadEntry {
        /// The offending op index.
        op: usize,
        /// Ops in the branch.
        len: usize,
    },
    /// A batch addressed the right branch of a join-free query.
    NoRightBranch,
    /// The engine has no job with this id.
    UnknownQuery(QueryId),
    /// The job panicked while executing the window; the engine
    /// contains the panic and reports it as an error instead of
    /// unwinding through the caller or wedging the pool.
    Panic(String),
}

impl From<InterpretError> for StreamError {
    fn from(e: InterpretError) -> Self {
        match e {
            InterpretError::BadEntry { op, len } => StreamError::BadEntry { op, len },
            e => StreamError::Interpret(e),
        }
    }
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Interpret(e) => write!(f, "{e}"),
            StreamError::BadEntry { op, len } => {
                write!(f, "batch entry at op {op} but pipeline has {len} ops")
            }
            StreamError::NoRightBranch => {
                write!(f, "batch has right-branch tuples but query has no join")
            }
            StreamError::UnknownQuery(q) => write!(f, "no job registered for {q}"),
            StreamError::Panic(msg) => write!(f, "stream worker panicked: {msg}"),
        }
    }
}

impl std::error::Error for StreamError {}

/// The result of one query-window evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// The query's final output tuples for the window, sorted.
    pub output: Vec<Tuple>,
    /// Tuples that entered the engine for this window (the paper's per
    /// window `N`).
    pub tuples_in: usize,
    /// Pre-join outputs of a join query's branches, left then right,
    /// sorted; empty for a join-free query, whose one branch's output
    /// is `output`. Dynamic refinement of join queries feeds on these:
    /// "their output at coarser levels determines which portion of
    /// traffic to process for the finer levels" (Section 4.1).
    pub branch_outputs: Vec<(Schema, Vec<Tuple>)>,
}

/// An entry map's rows as the tuples the reference interpreter takes.
fn tuples_of(entries: &Entries) -> BTreeMap<usize, Vec<Tuple>> {
    let tuples = |runs: &Vec<RowRun>| runs.iter().flat_map(RowRun::tuples).collect();
    entries
        .iter()
        .map(|(&op, runs)| (op, tuples(runs)))
        .collect()
}

/// Evaluate one query over one window's batch through the reference
/// interpreter, over the batch's rows as tuples.
pub fn execute_window(query: &Query, batch: &WindowBatch) -> Result<JobResult, StreamError> {
    let tuples_in = batch.tuple_count();
    let (left_schema, left) = run_entries_owned(&query.pipeline.ops, tuples_of(&batch.left))?;
    let mut branch_outputs = Vec::new();
    let mut output = match &query.join {
        None => {
            if !batch.right.is_empty() {
                return Err(StreamError::NoRightBranch);
            }
            left
        }
        Some(join) => {
            let (right_schema, right) =
                run_entries_owned(&join.right.ops, tuples_of(&batch.right))?;
            let (_, joined) = run_join(join, (&left_schema, &left), (&right_schema, &right))?;
            branch_outputs = vec![(left_schema, left), (right_schema, right)];
            joined
        }
    };
    output.sort();
    // Branch outputs are sorted too so the result is canonical: the
    // fast path emits them sorted and must land on the same bytes.
    for (_, tuples) in &mut branch_outputs {
        tuples.sort();
    }
    Ok(JobResult {
        output,
        tuples_in,
        branch_outputs,
    })
}

impl From<BoundError> for StreamError {
    fn from(e: BoundError) -> Self {
        match e {
            BoundError::BadEntry { op, len } => StreamError::BadEntry { op, len },
        }
    }
}

/// [`run_entries_owned`] on the compiled fast path: one branch
/// pipeline bound to the packet schema once, then run over each
/// window's entries. Public because the emitter uses the same
/// machinery for its local key-value store (merging collision shunts
/// into register dumps, Section 5). A pipeline that does not bind
/// runs on the reference interpreter, so an authoring bug fails each
/// window with the reference's own error.
#[derive(Debug)]
pub struct BoundEntries {
    ops: Vec<sonata_query::Operator>,
    bound: Option<BoundPipeline>,
}

impl BoundEntries {
    /// Bind `ops`, whose input is [`Schema::packet`].
    pub fn bind(ops: &[sonata_query::Operator]) -> Self {
        BoundEntries {
            ops: ops.to_vec(),
            bound: BoundPipeline::bind(ops, &Schema::packet()).ok(),
        }
    }

    /// Fold the operators over `entries` (op index → rows entering
    /// there), bit-identical to [`run_entries_owned`].
    pub fn run(&mut self, entries: &Entries) -> Result<Rows, StreamError> {
        match &mut self.bound {
            Some(bound) => Ok(bound.run_rows(entries)?),
            None => {
                let (schema, tuples) = run_entries_owned(&self.ops, tuples_of(entries))?;
                let mut rows = Rows::new(schema.len());
                tuples.iter().for_each(|t| rows.push_row(t));
                Ok(rows)
            }
        }
    }
}

/// A query's compiled fast path: fused pipelines with column offsets
/// resolved once. `None` when binding failed (the reference
/// interpreter then surfaces the identical error per window) or the
/// engine is forced onto the reference path.
struct BoundQuery {
    left: BoundPipeline,
    /// The right branch and the join over both branches' outputs.
    join: Option<(BoundPipeline, BoundJoin)>,
}

fn bind_query(q: &Query) -> Option<BoundQuery> {
    let packet = Schema::packet();
    let left = BoundPipeline::bind(&q.pipeline.ops, &packet).ok()?;
    let join = match &q.join {
        None => None,
        Some(join) => {
            let right = BoundPipeline::bind(&join.right.ops, &packet).ok()?;
            let bound = BoundJoin::bind(join, left.output_schema(), right.output_schema()).ok()?;
            Some((right, bound))
        }
    };
    Some(BoundQuery { left, join })
}

impl BoundQuery {
    fn begin(&mut self) {
        self.left.begin();
        if let Some((right, _)) = &mut self.join {
            right.begin();
        }
    }

    /// The branch pipeline `branch` names, if the query has it.
    fn branch(&mut self, branch: u8) -> Option<&mut BoundPipeline> {
        match (branch, &mut self.join) {
            (0, _) => Some(&mut self.left),
            (_, Some((right, _))) => Some(right),
            (_, None) => None,
        }
    }

    /// [`execute_window`] on the compiled fast path, over the batch's
    /// rows where they are, on top of the rows fed since
    /// [`Self::begin`]. Bit-identical to the reference: same per-key
    /// folds, same sorted emission, same error precedence (left
    /// entries validate before the right branch is considered). Tuples
    /// are built of what comes out.
    fn finish(&mut self, batch: &WindowBatch) -> Result<(Vec<Tuple>, BranchOutputs), StreamError> {
        let sorted = |rows: &Rows| {
            let mut tuples: Vec<Tuple> = rows.tuples().collect();
            tuples.sort();
            tuples
        };
        let left = self.left.finish(&batch.left)?;
        Ok(match &mut self.join {
            None => {
                if !batch.right.is_empty() {
                    return Err(StreamError::NoRightBranch);
                }
                (sorted(&left), Vec::new())
            }
            Some((right_branch, join)) => {
                let right = right_branch.finish(&batch.right)?;
                let branches = vec![
                    (self.left.output_schema().clone(), sorted(&left)),
                    (right_branch.output_schema().clone(), sorted(&right)),
                ];
                (sorted(&join.run_rows(&left, &right)), branches)
            }
        })
    }
}

/// [`JobResult::branch_outputs`].
type BranchOutputs = Vec<(Schema, Vec<Tuple>)>;

/// Cumulative engine counters.
#[derive(Debug, Clone, Default)]
pub struct EngineCounters {
    /// Total tuples received across all queries and windows.
    pub tuples_in: u64,
    /// Of those, the tuples handed to a job's home thread while the
    /// switch was still running ([`crate::ShardedEngine::hand_off`]).
    pub tuples_fed_mid_window: u64,
    /// Total result tuples emitted.
    pub results_out: u64,
    /// Windows executed.
    pub windows: u64,
    /// Per-query intake.
    pub per_query: HashMap<QueryId, u64>,
}

/// The per-job executor: one registered query with its compiled fast
/// path (`None` on the reference interpreter).
///
/// A window runs as [`Self::begin`], any number of [`Self::feed`]s —
/// the rows the job pool hands the job while the switch is still
/// running — and [`Self::finish`] over the rest of the window's batch.
/// [`Self::execute`] is a window with nothing fed.
pub(crate) struct MicroBatchEngine {
    query: Query,
    bound: Option<BoundQuery>,
    /// Rows fed since [`Self::begin`].
    fed: usize,
    /// Wall time the feeds since [`Self::begin`] took.
    pub(crate) fed_ns: u64,
    /// A feed that panicked, surfaced by [`Self::finish`].
    failed: Option<StreamError>,
}

impl MicroBatchEngine {
    /// Bind `query`, or keep it on the tree-walking reference
    /// interpreter when `oracle` is set.
    pub(crate) fn new(query: Query, oracle: bool) -> Self {
        let bound = if oracle { None } else { bind_query(&query) };
        MicroBatchEngine {
            query,
            bound,
            fed: 0,
            fed_ns: 0,
            failed: None,
        }
    }

    /// The registered query.
    pub(crate) fn query(&self) -> &Query {
        &self.query
    }

    /// Per branch (left, right), the last op [`Self::feed`] takes rows
    /// at; `None` where the branch is absent or the job runs on the
    /// reference interpreter, which is never fed.
    pub(crate) fn feed_limits(&self) -> [Option<usize>; 2] {
        let Some(bound) = &self.bound else {
            return [None, None];
        };
        let right = bound.join.as_ref().map(|(right, _)| right.feed_limit());
        [Some(bound.left.feed_limit()), right]
    }

    /// Start a window: empty every table, forget the last window's
    /// feeds.
    pub(crate) fn begin(&mut self) {
        if let Some(bound) = &mut self.bound {
            bound.begin();
        }
        (self.fed, self.fed_ns, self.failed) = (0, 0, None);
    }

    /// Fold `rows` entering `branch` at `op` — within
    /// [`Self::feed_limits`] — into the window. A panic is contained
    /// and fails the window at [`Self::finish`]; rows fed after it are
    /// counted and dropped.
    pub(crate) fn feed(&mut self, branch: u8, op: usize, rows: &[RowRun]) {
        self.fed += rows.iter().map(RowRun::len).sum::<usize>();
        if self.failed.is_some() {
            return;
        }
        let Some(pipeline) = self.bound.as_mut().and_then(|b| b.branch(branch)) else {
            unreachable!("rows fed to a branch that does not feed");
        };
        let fed = catch_unwind(AssertUnwindSafe(|| pipeline.feed(op, rows)));
        self.failed = fed
            .err()
            .map(|payload| StreamError::Panic(panic_message(&*payload)));
    }

    /// End the window: run `batch` on top of what was fed since
    /// [`Self::begin`].
    pub(crate) fn finish(&mut self, batch: &WindowBatch) -> Result<JobResult, StreamError> {
        if let Some(failed) = self.failed.take() {
            return Err(failed);
        }
        let (output, branch_outputs) = match &mut self.bound {
            Some(bound) => bound.finish(batch)?,
            None => {
                let r = execute_window(&self.query, batch)?;
                (r.output, r.branch_outputs)
            }
        };
        Ok(JobResult {
            output,
            tuples_in: self.fed + batch.tuple_count(),
            branch_outputs,
        })
    }

    /// Execute one whole window.
    pub(crate) fn execute(&mut self, batch: &WindowBatch) -> Result<JobResult, StreamError> {
        self.begin();
        self.finish(batch)
    }
}

/// A panic payload as text.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sonata_packet::{PacketBuilder, TcpFlags, Value};
    use sonata_query::catalog::{self, Thresholds};
    use sonata_query::interpret::run_query;

    fn syn(src: u32, dst: u32) -> sonata_packet::Packet {
        PacketBuilder::tcp_raw(src, 999, dst, 80)
            .flags(TcpFlags::SYN)
            .build()
    }

    fn q1(th: u64) -> Query {
        catalog::newly_opened_tcp_conns(&Thresholds {
            new_tcp: th,
            ..Thresholds::default()
        })
    }

    #[test]
    fn all_sp_entry_matches_reference() {
        let q = q1(2);
        let pkts: Vec<_> = (0..6).map(|i| syn(i, 0xaa)).collect();
        let mut batch = WindowBatch::new();
        batch.push_left(0, pkts.iter().map(Tuple::from_packet));
        let result = execute_window(&q, &batch).unwrap();
        let reference = run_query(&q, &pkts).unwrap();
        assert_eq!(result.output, reference);
        assert_eq!(result.tuples_in, 6);
    }

    #[test]
    fn bound_entries_match_the_reference_and_fall_back_when_unbound() {
        use sonata_query::expr::{col, lit};
        // Shunts enter at the reduce (op 2), a raw dump row with them.
        let row = |k: u64, n: u64| Tuple::new(vec![Value::U64(k), Value::U64(n)]);
        let mut batch = WindowBatch::new();
        batch.push_left(2, [row(0xaa, 2), row(0xaa, 1), row(0xbb, 1)]);
        let mut ops = q1(2).pipeline.ops;
        let (_, want) = run_entries_owned(&ops, tuples_of(&batch.left)).unwrap();
        assert_eq!(want, [row(0xaa, 3)]);
        let mut bound = BoundEntries::bind(&ops);
        assert!(bound.bound.is_some());
        let got = bound.run(&batch.left).unwrap();
        assert_eq!(got.tuples().collect::<Vec<_>>(), want);
        // A pipeline that does not bind fails each run exactly as the
        // reference does.
        ops[0] = sonata_query::Operator::Filter(col("nope").eq(lit(1)));
        let mut unbound = BoundEntries::bind(&ops);
        assert!(unbound.bound.is_none());
        let want = run_entries_owned(&ops, tuples_of(&batch.left)).unwrap_err();
        assert_eq!(
            unbound.run(&batch.left).unwrap_err().to_string(),
            want.to_string()
        );
    }

    #[test]
    fn dump_entry_skips_switch_side_ops() {
        let q = q1(2);
        // The switch already aggregated: (dIP=0xaa, count=5) passed the
        // merged threshold; the SP has nothing left to do (resume at 4).
        let mut batch = WindowBatch::new();
        batch.push_left(4, vec![Tuple::new(vec![Value::U64(0xaa), Value::U64(5)])]);
        let result = execute_window(&q, &batch).unwrap();
        assert_eq!(result.output.len(), 1);
        assert_eq!(result.output[0].get(1), &Value::U64(5));
    }

    #[test]
    fn shunt_entry_redoes_aggregation() {
        let q = q1(2);
        // Shunted tuples enter at the reduce (op 2) with schema (dIP, count).
        let mut batch = WindowBatch::new();
        batch.push_left(
            2,
            (0..4).map(|_| Tuple::new(vec![Value::U64(0xbb), Value::U64(1)])),
        );
        // Plus one dump tuple from the register-resident keys.
        batch.push_left(4, vec![Tuple::new(vec![Value::U64(0xaa), Value::U64(9)])]);
        let result = execute_window(&q, &batch).unwrap();
        // Both hosts exceed the threshold: 0xaa from the dump, 0xbb
        // re-aggregated from shunts (4 > 2).
        assert_eq!(result.output.len(), 2);
        assert_eq!(result.output[0].values()[0], Value::U64(0xaa));
        assert_eq!(result.output[1].values()[0], Value::U64(0xbb));
        assert_eq!(result.output[1].values()[1], Value::U64(4));
    }

    #[test]
    fn join_query_executes_both_branches() {
        let q = catalog::tcp_syn_flood(&Thresholds {
            syn_flood: 2,
            ..Thresholds::default()
        });
        let mut batch = WindowBatch::new();
        // Left branch dump: 5 SYNs to host 0xaa (enters after reduce, op 3).
        batch.push_left(3, vec![Tuple::new(vec![Value::U64(0xaa), Value::U64(5)])]);
        // Right branch dump: 1 ACK to host 0xaa.
        batch.push_right(3, vec![Tuple::new(vec![Value::U64(0xaa), Value::U64(1)])]);
        let result = execute_window(&q, &batch).unwrap();
        assert_eq!(result.output.len(), 1);
        // diff = 5 - 1 = 4 > 2
        assert_eq!(result.output[0].get(1), &Value::U64(4));
        assert_eq!(result.tuples_in, 2);
    }

    #[test]
    fn join_without_match_produces_nothing() {
        let q = catalog::tcp_syn_flood(&Thresholds::default());
        let mut batch = WindowBatch::new();
        batch.push_left(3, vec![Tuple::new(vec![Value::U64(0xaa), Value::U64(500)])]);
        batch.push_right(3, vec![Tuple::new(vec![Value::U64(0xbb), Value::U64(1)])]);
        let result = execute_window(&q, &batch).unwrap();
        assert!(result.output.is_empty());
    }

    #[test]
    fn bad_entry_rejected() {
        let q = q1(1);
        let mut batch = WindowBatch::new();
        batch.push_left(99, vec![Tuple::new(vec![Value::U64(1)])]);
        assert!(matches!(
            execute_window(&q, &batch),
            Err(StreamError::BadEntry { op: 99, .. })
        ));
        let mut batch = WindowBatch::new();
        batch.push_right(0, vec![Tuple::new(vec![Value::U64(1)])]);
        assert!(matches!(
            execute_window(&q, &batch),
            Err(StreamError::NoRightBranch)
        ));
    }

    #[test]
    fn engine_accumulates_counters() {
        let mut engine = crate::worker::ShardedEngine::new(1);
        engine.register(q1(2));
        let pkts: Vec<_> = (0..6).map(|i| syn(i, 0xaa)).collect();
        let mut batch = WindowBatch::new();
        batch.push_left(0, pkts.iter().map(Tuple::from_packet));
        engine.submit(QueryId(1), &batch).unwrap();
        engine.submit(QueryId(1), &batch).unwrap();
        let c = engine.counters();
        assert_eq!(c.tuples_in, 12);
        assert_eq!(c.windows, 2);
        assert_eq!(c.results_out, 2);
        assert_eq!(c.per_query[&QueryId(1)], 12);
        assert!(matches!(
            engine.submit(QueryId(9), &batch),
            Err(StreamError::UnknownQuery(_))
        ));
    }

    #[test]
    fn bound_path_matches_reference_across_catalog() {
        // Every catalog query, mixed entry points, fast vs forced
        // reference: JobResults must be bit-identical.
        let th = Thresholds {
            new_tcp: 2,
            ssh_brute: 1,
            superspreader: 2,
            port_scan: 2,
            ddos: 2,
            syn_flood: 2,
            incomplete_flows: 1,
            ..Thresholds::default()
        };
        for q in catalog::all(&th) {
            let mut fast = MicroBatchEngine::new(q.clone(), false);
            let mut reference = MicroBatchEngine::new(q.clone(), true);
            let id = q.id;
            let pkts: Vec<_> = (0..40)
                .map(|i| {
                    PacketBuilder::tcp_raw(i % 7, 22, 0xaa + (i % 5), (80 + i % 3) as u16)
                        .flags(if i % 2 == 0 {
                            TcpFlags::SYN
                        } else {
                            TcpFlags::PSH_ACK
                        })
                        .build()
                })
                .collect();
            let mut batch = WindowBatch::new();
            batch.push_left(0, pkts.iter().map(Tuple::from_packet));
            if q.join.is_some() {
                batch.push_right(0, pkts.iter().map(Tuple::from_packet));
            }
            let a = fast.execute(&batch);
            let b = reference.execute(&batch);
            match (a, b) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.output, b.output, "{id:?}");
                    assert_eq!(a.tuples_in, b.tuples_in, "{id:?}");
                    assert_eq!(
                        a.branch_outputs
                            .iter()
                            .map(|(s, t)| (s.clone(), t.clone()))
                            .collect::<Vec<_>>(),
                        b.branch_outputs,
                        "{id:?}"
                    );
                }
                (a, b) => panic!("{id:?}: fast={a:?} reference={b:?}"),
            }
        }
    }

    #[test]
    fn bound_path_matches_reference_on_mid_pipeline_entries() {
        let q = q1(0);
        let mut fast = MicroBatchEngine::new(q.clone(), false);
        let mut reference = MicroBatchEngine::new(q, true);
        let mut batch = WindowBatch::new();
        batch.push_left(0, (0..5).map(|i| Tuple::from_packet(&syn(i, 0xcc))));
        batch.push_left(
            2,
            (0..4).map(|_| Tuple::new(vec![Value::U64(0xcc), Value::U64(1)])),
        );
        batch.push_left(4, vec![Tuple::new(vec![Value::U64(0xdd), Value::U64(9)])]);
        let a = fast.execute(&batch).unwrap();
        let b = reference.execute(&batch).unwrap();
        assert_eq!(a.output, b.output);
        assert_eq!(a.branch_outputs, b.branch_outputs);
    }

    #[test]
    fn mixed_entries_merge_in_order() {
        // Tuples entering at op 1 (after the filter) and op 0 must both
        // flow through the map/reduce.
        let q = q1(0);
        let mut batch = WindowBatch::new();
        batch.push_left(0, vec![Tuple::from_packet(&syn(1, 0xcc))]);
        batch.push_left(1, vec![Tuple::from_packet(&syn(2, 0xcc))]);
        let result = execute_window(&q, &batch).unwrap();
        assert_eq!(result.output.len(), 1);
        assert_eq!(result.output[0].get(1), &Value::U64(2));
    }
}
