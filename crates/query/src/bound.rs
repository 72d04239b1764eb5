//! Bound pipelines: the stream-side compiled fast path.
//!
//! [`crate::interpret::run_operator`] re-binds expressions and
//! re-resolves column names every window, and materializes an
//! intermediate `Vec<Tuple>` after every operator. A [`BoundPipeline`]
//! does all of that work once at registration: expressions are bound,
//! `Schema::index_of` lookups are resolved to offsets, and every run of
//! stateless operators (`filter`/`map`) is *lowered* into what it does
//! to the rows that enter it — a list of filter steps and a projection,
//! both over the entering rows' own columns — feeding a stateful sink
//! (`reduce`/`distinct`) or the output directly.
//!
//! It runs a column at a time on fixed-width `u64` rows ([`RowRun`]):
//! mirrored packets are read in place from their chunk's field columns,
//! report and dump rows from their flat cells, a sink's groups from its
//! table. A run of rows starts as a selection vector of row numbers;
//! each step narrows it in one loop over one column; the sink gathers
//! its key cells of the survivors straight from the source. A [`Tuple`]
//! is built only from what comes out ([`Rows::tuples`]); the
//! `Vec<Tuple>` entry points convert into the same rows and run the
//! same code.
//!
//! ## Lowering
//!
//! The pipeline is split into segments `[i..sink]` where `ops[i..sink]`
//! are stateless and `ops[sink]` is stateful (or the pipeline end).
//! Rows may enter at any operator index (collision shunts and window
//! dumps resume mid-pipeline), so `ops[at..sink]` is lowered for every
//! `at`. A `map` is folded away: what follows it reads the expressions
//! that define its outputs, so a filter after a map still compares the
//! source's columns. A conjunct that compares a column with a plain
//! constant or another column is a [`Step::Cmp`]; every other predicate
//! is a [`Step::Residual`], evaluated by [`BoundPred::eval_row`] on the
//! rows the steps before it kept. A compare is an integer compare only
//! where both cells are plain scalars; a row whose cell is 2⁶³ or more
//! (text, bytes, a large scalar, a field decoded per packet) is
//! compared through the heap, as the residual evaluator would.
//!
//! Within a segment the sources are drained in entry-index order — the
//! previous sink's output first, then each entry run.
//!
//! ## A window in three steps
//!
//! A window runs as [`BoundPipeline::begin`], which clears every
//! table; [`BoundPipeline::feed`], any number of times, which runs rows
//! entering at or before the first stateful op into that op's table
//! (into the output, if the pipeline has none); and
//! [`BoundPipeline::finish`], which runs the window's other entries,
//! drains each sink into the next segment and emits. The job pool
//! feeds a job's rows as the switch reports them and finishes it at
//! window close; [`BoundPipeline::run_rows`] is `begin` then `finish`,
//! whose first segment goes through the same code as `feed`.
//!
//! ## Order
//!
//! Every [`Agg`] is commutative and associative and a `distinct` is a
//! set, so what a sink holds at the end of a window does not depend on
//! the order rows reached it, nor on the tables' hash function. Order
//! is observable only in what the *last* sink emits into the output:
//! that emission is sorted by key — the order the reference's
//! `BTreeMap` produces — and stateless operators preserve it, so the
//! output is bit-identical to the reference interpreter's. A sink that
//! feeds another sink emits in table order, unsorted.

use crate::expr::{BindError, BoundExpr, BoundPred, CmpOp};
use crate::interpret::InterpretError;
use crate::ops::{Agg, Operator};
use crate::query::{joined_schema, Join, QueryError};
use crate::tuple::{Columns, Heap, RowRun, RowSource, Rows, Schema, Tuple, BOXED};
use sonata_packet::Value;
use std::collections::BTreeMap;
use std::hash::BuildHasher;

/// Execution failure of a bound pipeline. Binding failures surface
/// earlier, from [`BoundPipeline::bind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundError {
    /// A batch entry index is past the end of the pipeline.
    BadEntry {
        /// The offending op index.
        op: usize,
        /// Ops in the pipeline.
        len: usize,
    },
}

impl std::fmt::Display for BoundError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoundError::BadEntry { op, len } => {
                write!(f, "batch entry at op {op} but pipeline has {len} ops")
            }
        }
    }
}

impl std::error::Error for BoundError {}

/// The rows entering a pipeline, by the operator they enter at.
pub type Entries = BTreeMap<usize, Vec<RowRun>>;

/// `tuples` as the runs of one entry point.
fn runs_of<'a>(tuples: impl IntoIterator<Item = &'a Tuple>) -> Vec<RowRun> {
    let mut runs = Vec::new();
    for t in tuples {
        RowRun::push_tuple(&mut runs, t);
    }
    runs
}

/// A set of fixed-width `u64` keys in first-seen order, each with an
/// accumulator: the state of a `reduce` (and, accumulators unused, of
/// a `distinct` or a join index). Open addressing over a
/// multiplicative hash; buffers are kept from window to window.
#[derive(Debug)]
struct Table {
    width: usize,
    len: usize,
    /// `len` of the run before the last.
    before: usize,
    /// `len × width` cells.
    keys: Vec<u64>,
    accs: Vec<u64>,
    /// Key number + 1 per slot, 0 for empty; a power of two long and
    /// at most half full.
    slots: Vec<u32>,
    /// Mixed into every hash, drawn once per process, so colliding
    /// keys cannot be prepared offline.
    seed: u64,
}

impl Table {
    const MIN_SLOTS: usize = 16;

    fn new(width: usize) -> Self {
        Table {
            width,
            len: 0,
            before: 0,
            keys: Vec::new(),
            accs: Vec::new(),
            slots: vec![0; Table::MIN_SLOTS],
            seed: std::collections::hash_map::RandomState::new().hash_one(0u8),
        }
    }

    /// Forget the keys, keep the buffers — unless the last two runs
    /// both used under an eighth of the slots: then a burst sized them,
    /// every run since has paid to zero them, and they are cut to four
    /// times what those runs used. (Two runs, so a load that alternates
    /// between small and large keeps its buffers.)
    fn clear(&mut self) {
        let used = self.len.max(self.before);
        self.before = self.len;
        if self.len > 0 {
            self.len = 0;
            self.keys.clear();
            self.accs.clear();
            self.slots.fill(0);
        }
        if self.slots.len() > Table::MIN_SLOTS.max(used * 8) {
            self.slots = vec![0; (used * 4).next_power_of_two().max(Table::MIN_SLOTS)];
            self.keys.shrink_to(used * 2 * self.width);
            self.accs.shrink_to(used * 2);
        }
    }

    fn key(&self, k: u32) -> &[u64] {
        &self.keys[k as usize * self.width..(k as usize + 1) * self.width]
    }

    /// The slot `key` sits in, or the empty one it would take.
    #[inline]
    fn slot_of(&self, key: &[u64]) -> usize {
        let fold = |h: u64, &w: &u64| (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
        let hash = key.iter().fold(self.seed, fold);
        let mask = self.slots.len() - 1;
        let mut i = (hash >> (64 - self.slots.len().trailing_zeros())) as usize;
        // Keys are a few cells wide: compared in line, not by a call.
        let same = |k: u32| self.key(k - 1).iter().zip(key).all(|(a, b)| a == b);
        while self.slots[i] != 0 && !same(self.slots[i]) {
            i = (i + 1) & mask;
        }
        i
    }

    /// The number of `key` among the keys, if it is one.
    #[inline]
    fn find(&self, key: &[u64]) -> Option<usize> {
        (self.slots[self.slot_of(key)] as usize).checked_sub(1)
    }

    /// The number of `key` among the keys, and whether this call
    /// added it.
    #[inline]
    fn entry(&mut self, key: &[u64]) -> (usize, bool) {
        let slot = self.slot_of(key);
        if let Some(k) = (self.slots[slot] as usize).checked_sub(1) {
            return (k, false);
        }
        self.keys.extend_from_slice(key);
        self.len += 1;
        self.slots[slot] = self.len as u32;
        if self.len * 2 > self.slots.len() {
            let doubled = self.slots.len() * 2;
            self.slots.clear();
            self.slots.resize(doubled, 0);
            for k in 0..self.len as u32 {
                let slot = self.slot_of(self.key(k));
                self.slots[slot] = k + 1;
            }
        }
        (self.len - 1, true)
    }
}

/// What a finished sink emits, group by group: the key's columns, then
/// — a reduce's — the accumulator.
impl Columns for Table {
    #[inline]
    fn col(&self, col: usize) -> impl Fn(u32) -> u64 + '_ {
        let (cells, stride, at) = match col < self.width {
            true => (&self.keys, self.width, col),
            false => (&self.accs, 1, 0),
        };
        move |k| cells[k as usize * stride + at]
    }

    #[inline]
    fn row(&self, k: u32) -> impl RowSource + '_ {
        move |col: usize, heap: &mut Heap| match self.key(k).get(col) {
            Some(&cell) => cell,
            None => heap.scalar(self.accs[k as usize]),
        }
    }
}

/// One operator with every column reference resolved to an offset: what
/// [`BoundPipeline::bind`] lowers runs from.
enum BoundOp {
    Filter(BoundPred),
    Map(Vec<BoundExpr>),
    Reduce { key_idx: Vec<usize>, val_idx: usize },
    Distinct,
}

/// One filter of a lowered run, over the columns of the rows entering
/// the run.
#[derive(Debug)]
enum Step {
    /// `column op operand`.
    Cmp(usize, CmpOp, Operand),
    /// Whatever is not such a compare.
    Residual(BoundPred),
}

#[derive(Debug, Clone, Copy)]
enum Operand {
    /// A plain scalar.
    Const(u64),
    Col(usize),
}

/// One cell of what a lowered run hands on, of the columns of the rows
/// entering it.
#[derive(Debug)]
enum Proj {
    Col(usize),
    /// A plain scalar.
    Const(u64),
    /// A column masked to a refinement level.
    Mask(usize, u8),
    Expr(BoundExpr),
}

impl From<&BoundExpr> for Proj {
    fn from(expr: &BoundExpr) -> Self {
        match expr {
            BoundExpr::Col(c) => Proj::Col(*c),
            BoundExpr::Lit(Value::U64(v)) if *v < BOXED => Proj::Const(*v),
            BoundExpr::Mask(of, level) => match **of {
                BoundExpr::Col(c) => Proj::Mask(c, *level),
                _ => Proj::Expr(expr.clone()),
            },
            _ => Proj::Expr(expr.clone()),
        }
    }
}

/// A run of stateless operators as what it does to the rows entering
/// it: the filters, in order, then the cells it hands on — the whole
/// row for a `distinct` or the output, a `reduce`'s key columns and
/// then its value.
#[derive(Debug)]
struct Run {
    steps: Vec<Step>,
    proj: Vec<Proj>,
}

impl Run {
    /// Lower `ops`, stateless and entered by rows `width` wide, into
    /// the `sink` that follows them (`None`: the output).
    fn lower(ops: &[BoundOp], width: usize, sink: Option<&BoundOp>) -> Run {
        let mut cols: Vec<BoundExpr> = (0..width).map(BoundExpr::Col).collect();
        let mut steps = Vec::new();
        for op in ops {
            match op {
                BoundOp::Filter(pred) => Run::push_steps(pred.over(&cols), &mut steps),
                BoundOp::Map(exprs) => cols = exprs.iter().map(|e| e.over(&cols)).collect(),
                _ => unreachable!("stateful op inside a stateless run"),
            }
        }
        let proj = match sink {
            Some(BoundOp::Reduce { key_idx, val_idx }) => {
                let read = key_idx.iter().chain([val_idx]);
                read.map(|&c| Proj::from(&cols[c])).collect()
            }
            _ => cols.iter().map(Proj::from).collect(),
        };
        Run { steps, proj }
    }

    fn push_steps(pred: BoundPred, steps: &mut Vec<Step>) {
        let operand = |expr: &BoundExpr| match Proj::from(expr) {
            Proj::Col(c) => Some(Operand::Col(c)),
            Proj::Const(v) => Some(Operand::Const(v)),
            _ => None,
        };
        match pred {
            BoundPred::And(all) => all.into_iter().for_each(|p| Run::push_steps(p, steps)),
            BoundPred::Cmp { lhs, op, rhs } => steps.push(match (&lhs, operand(&rhs)) {
                (BoundExpr::Col(col), Some(with)) => Step::Cmp(*col, op, with),
                _ => Step::Residual(BoundPred::Cmp { lhs, op, rhs }),
            }),
            other => steps.push(Step::Residual(other)),
        }
    }

    /// Narrow `sel` to the rows of `src` every step keeps.
    fn narrow<S: Columns>(&self, src: &S, sel: &mut Vec<u32>, heap: &mut Heap) {
        for step in &self.steps {
            match *step {
                Step::Residual(ref pred) => retain(sel, |r| pred.eval_row(&src.row(r), heap)),
                Step::Cmp(col, op, with) => {
                    let a = src.col(col);
                    let exact = |r: u32| {
                        let row = src.row(r);
                        let a = row.cell(col, heap);
                        let b = match with {
                            Operand::Const(b) => b,
                            Operand::Col(with) => row.cell(with, heap),
                        };
                        op.eval_cells(a, b, heap)
                    };
                    match with {
                        Operand::Const(b) => keep(sel, op, |r| (a(r), b), exact),
                        Operand::Col(with) => {
                            let b = src.col(with);
                            keep(sel, op, |r| (a(r), b(r)), exact)
                        }
                    }
                }
            }
        }
    }
}

/// Entering rows are selected, narrowed and projected this many at a
/// time, so the selection vector and the scratch rows are gathered
/// into stay in cache, and stay small, whatever a run's length.
const CHUNK: usize = 1024;

/// Hand `each` the cells `proj` makes of every row of `src` in `sel`,
/// in order, with the row's number: gathered a column at a time into
/// `cells`, as cells of `heap`.
fn project<S: Columns>(
    proj: &[Proj],
    (src, sel): (&S, &[u32]),
    (cells, heap): (&mut Vec<u64>, &mut Heap),
    mut each: impl FnMut(&[u64], u32, &Heap),
) {
    let width = proj.len();
    for rows in sel.chunks(CHUNK) {
        cells.clear();
        cells.resize(rows.len() * width, 0);
        for (at, proj) in proj.iter().enumerate() {
            let to = (&mut cells[at..], width);
            match proj {
                Proj::Const(v) => fill(to, rows, |_| *v),
                Proj::Col(c) => {
                    let col = src.col(*c);
                    fill(to, rows, |r| cell_of(col(r), src, (r, *c), heap))
                }
                Proj::Mask(c, level) => {
                    let col = src.col(*c);
                    fill(to, rows, |r| {
                        let cell = cell_of(col(r), src, (r, *c), heap);
                        heap.mask(cell, *level)
                    })
                }
                Proj::Expr(expr) => fill(to, rows, |r| expr.eval_row(&src.row(r), heap)),
            }
        }
        for (i, &r) in rows.iter().enumerate() {
            each(&cells[i * width..(i + 1) * width], r, heap);
        }
    }
}

/// Write `cell` of each of `rows` to every `stride`th cell of `to`.
#[inline]
fn fill((to, stride): (&mut [u64], usize), rows: &[u32], mut cell: impl FnMut(u32) -> u64) {
    for (to, &r) in to.iter_mut().step_by(stride).zip(rows) {
        *to = cell(r);
    }
}

/// What [`Columns::col`] read as `peeked`, as a cell of `heap`.
#[inline]
fn cell_of<S: Columns>(peeked: u64, src: &S, (r, col): (u32, usize), heap: &mut Heap) -> u64 {
    match peeked < BOXED {
        true => peeked,
        false => src.row(r).cell(col, heap),
    }
}

/// [`Vec::retain`] with no branch on the answer: most of a step's
/// answers go against the last.
#[inline]
fn retain(sel: &mut Vec<u32>, mut keep: impl FnMut(u32) -> bool) {
    let mut kept = 0;
    for i in 0..sel.len() {
        let r = sel[i];
        sel[kept] = r;
        kept += keep(r) as usize;
    }
    sel.truncate(kept);
}

/// Keep the rows of `sel` whose `pair` of cells `op` holds of: by an
/// integer compare where both are plain scalars, by `exact` where not.
fn keep(
    sel: &mut Vec<u32>,
    op: CmpOp,
    pair: impl Fn(u32) -> (u64, u64),
    exact: impl FnMut(u32) -> bool,
) {
    // One loop per operator, so none is chosen per row.
    fn by(
        sel: &mut Vec<u32>,
        pair: impl Fn(u32) -> (u64, u64),
        mut exact: impl FnMut(u32) -> bool,
        plain: impl Fn(u64, u64) -> bool,
    ) {
        retain(sel, |r| match pair(r) {
            (a, b) if a | b < BOXED => plain(a, b),
            _ => exact(r),
        })
    }
    match op {
        CmpOp::Eq => by(sel, pair, exact, |a, b| a == b),
        CmpOp::Ne => by(sel, pair, exact, |a, b| a != b),
        CmpOp::Gt => by(sel, pair, exact, |a, b| a > b),
        CmpOp::Ge => by(sel, pair, exact, |a, b| a >= b),
        CmpOp::Lt => by(sel, pair, exact, |a, b| a < b),
        CmpOp::Le => by(sel, pair, exact, |a, b| a <= b),
    }
}

/// A stateful operator: the op it is, its `reduce` aggregate (`None`:
/// a `distinct`), its state.
#[derive(Debug)]
struct Sink {
    at: usize,
    agg: Option<Agg>,
    table: Table,
}

/// Where the rows that survive one segment of a run go — into the
/// stateful operator that ends the segment, or out of the pipeline,
/// whose heap is the run's — and the scratch rows are gathered into.
struct Segment<'a> {
    sink: Option<&'a mut Sink>,
    out: &'a mut Rows,
    cells: &'a mut Vec<u64>,
}

impl Segment<'_> {
    /// Take the rows of `entries`, entering where `run` starts, a chunk
    /// of them at a time through `sel`.
    fn enter(&mut self, run: &Run, entries: &[RowRun], sel: &mut Vec<u32>) {
        for entry in entries {
            match entry {
                RowRun::Packets { block, sel: picked } => {
                    for picked in picked.chunks(CHUNK) {
                        sel.clear();
                        sel.extend_from_slice(picked);
                        retain(sel, |p| block.is_valid(p));
                        run.narrow(&**block, sel, &mut self.out.heap);
                        self.take(run, &**block, sel);
                    }
                }
                RowRun::Cells(rows) => {
                    let len = rows.len() as u32;
                    for first in (0..len).step_by(CHUNK) {
                        sel.clear();
                        sel.extend(first..len.min(first + CHUNK as u32));
                        run.narrow(rows, sel, &mut self.out.heap);
                        self.take(run, rows, sel);
                    }
                }
            }
        }
    }

    /// Take the rows of `src` in `sel` as `run` projects them.
    fn take<S: Columns>(&mut self, run: &Run, src: &S, sel: &[u32]) {
        let (proj, rows) = (&run.proj[..], (src, sel));
        let scratch = (&mut *self.cells, &mut self.out.heap);
        let Some(Sink { agg, table, .. }) = &mut self.sink else {
            self.out.cells.reserve(sel.len() * proj.len());
            self.out.rows += sel.len();
            project(proj, rows, scratch, |row, _, _| {
                self.out.cells.extend_from_slice(row)
            });
            debug_assert_eq!(self.out.cells.len(), self.out.rows * proj.len());
            return;
        };
        let Some(agg) = agg else {
            return project(proj, rows, scratch, |row, _, _| {
                table.entry(row);
            });
        };
        project(proj, rows, scratch, |row, _, heap| {
            let (v, key) = row.split_last().expect("a reduce projects its value");
            let v = heap.as_u64(*v).unwrap_or(0);
            match table.entry(key) {
                (_, true) => table.accs.push(agg.init(v)),
                (k, false) => table.accs[k] = agg.fold(table.accs[k], v),
            }
        })
    }
}

/// A pipeline bound to its input schema once, executed many times.
#[derive(Debug)]
pub struct BoundPipeline {
    /// Schema before each op; `schemas[ops.len()]` is the output.
    schemas: Vec<Schema>,
    /// `runs[at]`: the stateless operators from op `at` to the next
    /// stateful one, lowered. One per op, and one for the output.
    runs: Vec<Run>,
    /// The stateful operators, in op order.
    sinks: Vec<Sink>,
    /// The selection vector and the gather scratch, kept between runs.
    sel: Vec<u32>,
    cells: Vec<u64>,
    /// The window's output so far; its heap holds the boxed cells of
    /// every table's keys.
    out: Rows,
    /// The lowest op [`Self::feed`] took rows at since [`Self::begin`].
    fed_from: Option<usize>,
}

impl BoundPipeline {
    /// Bind a pipeline to its input schema, resolving every column
    /// reference to an offset.
    pub fn bind(ops: &[Operator], input: &Schema) -> Result<Self, BindError> {
        let mut schemas = Vec::with_capacity(ops.len() + 1);
        schemas.push(input.clone());
        let mut bops = Vec::with_capacity(ops.len());
        let mut sinks = Vec::new();
        for (at, op) in ops.iter().enumerate() {
            let schema = schemas.last().expect("seeded with input schema");
            let unknown = |column: &crate::tuple::ColName| BindError::UnknownColumn {
                column: column.clone(),
                schema: schema.clone(),
            };
            let bop = match op {
                Operator::Filter(p) => BoundOp::Filter(p.bind(schema)?),
                Operator::Map { exprs } => BoundOp::Map(
                    exprs
                        .iter()
                        .map(|(_, e)| e.bind(schema))
                        .collect::<Result<_, _>>()?,
                ),
                Operator::Reduce {
                    keys, agg, value, ..
                } => {
                    let (agg, table) = (Some(*agg), Table::new(keys.len()));
                    sinks.push(Sink { at, agg, table });
                    BoundOp::Reduce {
                        key_idx: keys
                            .iter()
                            .map(|k| schema.index_of(k).ok_or_else(|| unknown(k)))
                            .collect::<Result<_, _>>()?,
                        val_idx: schema.index_of(value).ok_or_else(|| unknown(value))?,
                    }
                }
                Operator::Distinct => {
                    let (agg, table) = (None, Table::new(schema.len()));
                    sinks.push(Sink { at, agg, table });
                    BoundOp::Distinct
                }
            };
            let next = op.output_schema(schema).map_err(|c| unknown(&c))?;
            bops.push(bop);
            schemas.push(next);
        }
        let stateless = |op: &BoundOp| matches!(op, BoundOp::Filter(_) | BoundOp::Map(_));
        let lower = |at: usize| {
            let sink = at + bops[at..].iter().take_while(|op| stateless(op)).count();
            Run::lower(&bops[at..sink], schemas[at].len(), bops.get(sink))
        };
        Ok(BoundPipeline {
            runs: (0..=ops.len()).map(lower).collect(),
            out: Rows::new(schemas[ops.len()].len()),
            schemas,
            sinks,
            sel: Vec::new(),
            cells: Vec::new(),
            fed_from: None,
        })
    }

    /// The schema of the pipeline's output.
    pub fn output_schema(&self) -> &Schema {
        self.schemas.last().expect("schemas is never empty")
    }

    /// What each stateful op held at the end of the last run — a
    /// reduce's groups, a distinct's set — in op order. This is the
    /// planner's `B`: the keys a register for that op must fit.
    pub fn cardinalities(&self) -> impl Iterator<Item = usize> + '_ {
        self.sinks.iter().map(|sink| sink.table.len)
    }

    /// Per entry op, how its run lowered: `[compares, residual
    /// predicates, projected cells evaluated as expressions]`. For
    /// tests that pin which queries run on flat columns alone.
    #[doc(hidden)]
    pub fn lowering(&self) -> Vec<[usize; 3]> {
        let count = |run: &Run| {
            let residual = |s: &&Step| matches!(s, Step::Residual(_));
            let residuals = run.steps.iter().filter(residual).count();
            let exprs = run.proj.iter().filter(|p| matches!(p, Proj::Expr(_)));
            [run.steps.len() - residuals, residuals, exprs.count()]
        };
        self.runs.iter().map(count).collect()
    }

    /// Run the whole pipeline over a batch entering at op 0.
    pub fn run(&mut self, tuples: Vec<Tuple>) -> Vec<Tuple> {
        self.begin();
        let runs = runs_of(&tuples);
        self.run_from(0, |at| if at == 0 { &runs } else { &[] })
            .tuples()
            .collect()
    }

    /// [`Self::run_rows`] from tuples and back to tuples — the
    /// reference `run_entries` signature, for tests and oracles.
    pub fn run_entries(
        &mut self,
        entries: BTreeMap<usize, Vec<Tuple>>,
    ) -> Result<(Schema, Vec<Tuple>), BoundError> {
        let entries = entries.iter().map(|(&op, t)| (op, runs_of(t))).collect();
        let out = self.run_rows(&entries)?;
        Ok((self.output_schema().clone(), out.tuples().collect()))
    }

    /// Run with rows injected at arbitrary operator indices,
    /// reproducing the reference `run_entries` merge semantics: a
    /// whole window, [`Self::begin`] then [`Self::finish`].
    pub fn run_rows(&mut self, entries: &Entries) -> Result<Rows, BoundError> {
        self.begin();
        self.finish(entries)
    }

    /// Start a window: empty every stateful op's table and the output.
    pub fn begin(&mut self) {
        self.sinks.iter_mut().for_each(|sink| sink.table.clear());
        self.out = Rows::new(self.output_schema().len());
        self.fed_from = None;
    }

    /// The last op [`Self::feed`] takes rows at: the first stateful
    /// one, or the pipeline's end if it has none.
    pub fn feed_limit(&self) -> usize {
        self.sinks
            .first()
            .map_or(self.runs.len() - 1, |sink| sink.at)
    }

    /// Run `rows` entering at op `at`, at most [`Self::feed_limit`],
    /// into the first stateful op's table — or, in a pipeline with
    /// none, into the output — ahead of [`Self::finish`].
    pub fn feed(&mut self, at: usize, rows: &[RowRun]) {
        assert!(
            at <= self.feed_limit(),
            "feed at op {at} past the first sink"
        );
        self.fed_from = Some(self.fed_from.map_or(at, |from| from.min(at)));
        let BoundPipeline {
            runs,
            sinks,
            sel,
            cells,
            out,
            ..
        } = self;
        let mut segment = Segment {
            sink: sinks.first_mut(),
            out,
            cells,
        };
        segment.enter(&runs[at], rows, sel);
    }

    /// End the window: run `entries` as [`Self::run_rows`] runs them,
    /// on top of what was fed since [`Self::begin`], and emit.
    pub fn finish(&mut self, entries: &Entries) -> Result<Rows, BoundError> {
        let len = self.runs.len() - 1;
        if let Some(&op) = entries.keys().find(|&&op| op > len) {
            return Err(BoundError::BadEntry { op, len });
        }
        let first = entries.keys().next().copied().unwrap_or(len);
        let first = self.fed_from.map_or(first, |fed| fed.min(first));
        Ok(self.run_from(first, |at| entries.get(&at).map_or(&[], Vec::as_slice)))
    }

    /// Segment-by-segment execution from op `start`, over the runs
    /// `entering` at each op, into the tables [`Self::begin`] cleared.
    fn run_from<'a>(&mut self, start: usize, entering: impl Fn(usize) -> &'a [RowRun]) -> Rows {
        let BoundPipeline {
            runs,
            sinks,
            sel,
            cells,
            out,
            ..
        } = self;
        let (len, last) = (runs.len() - 1, sinks.len());
        let first = sinks.iter().take_while(|sink| sink.at < start).count();
        let mut lo = start;
        for seg in first..=last {
            let (done, rest) = sinks.split_at_mut(seg);
            let sink = rest.first_mut();
            let hi = sink.as_ref().map_or(len, |sink| sink.at);
            let (out, cells) = (&mut *out, &mut *cells);
            let mut segment = Segment { sink, out, cells };
            // Drain this segment's sources in entry order: the groups
            // of the sink before it — those its run's steps keep, which
            // a threshold makes few; sorted by key if no sink follows
            // (keys are unique, so key order is row order) — then each
            // entry run.
            if let Some(Sink { at, table, .. }) = done.last().filter(|_| seg > first) {
                sel.clear();
                sel.extend(0..table.len as u32);
                runs[at + 1].narrow(table, sel, &mut segment.out.heap);
                if seg == last {
                    sel.sort_unstable_by(|&a, &b| {
                        segment.out.heap.cmp_rows(table.key(a), table.key(b))
                    });
                }
                segment.take(&runs[at + 1], table, sel);
            }
            for (at, run) in (lo..).zip(&runs[lo..=hi]) {
                segment.enter(run, entering(at), sel);
            }
            lo = hi + 1;
        }
        let width = out.width();
        std::mem::replace(out, Rows::new(width))
    }
}

/// A join bound to its two branch output schemas once: the key
/// projections of either side, the right-side append projection and the
/// post-join pipeline, as [`crate::interpret::run_query_with_schema`]
/// resolves them per call — and, kept from window to window, the index
/// over the right rows and the buffers the join is made in.
#[derive(Debug)]
pub struct BoundJoin {
    right_keys: Vec<Proj>,
    left_keys: Vec<Proj>,
    append_idx: Vec<usize>,
    post: BoundPipeline,
    /// Right rows by key: `index.accs[k]` is the last row of key `k`,
    /// `prev[r]` the one before row `r` (itself at the first).
    index: Table,
    prev: Vec<u32>,
    matches: Vec<u32>,
    joined: Rows,
}

impl BoundJoin {
    /// Bind `join` between branch outputs of the given schemas, with
    /// the reference interpreter's error precedence.
    pub fn bind(join: &Join, left: &Schema, right: &Schema) -> Result<Self, InterpretError> {
        let right_keys = (join.keys.iter())
            .map(|k| {
                let missing = || QueryError::JoinKeyMissing { key: k.clone() };
                right.index_of(k).map(Proj::Col).ok_or_else(missing)
            })
            .collect::<Result<_, _>>()?;
        let left_keys = (join.left_keys.iter())
            .map(|e| e.bind(left).map(|e| Proj::from(&e)))
            .collect::<Result<_, _>>()?;
        let append_idx: Vec<usize> = (0..right.len())
            .filter(|&i| !left.contains(&right.columns()[i]))
            .collect();
        let joined = joined_schema(left, right, &join.keys);
        Ok(BoundJoin {
            right_keys,
            left_keys,
            joined: Rows::new(left.len() + append_idx.len()),
            append_idx,
            post: BoundPipeline::bind(&join.post.ops, &joined)?,
            index: Table::new(join.keys.len()),
            prev: Vec::new(),
            matches: Vec::new(),
        })
    }

    /// The schema of [`BoundJoin::run_rows`]'s output.
    pub fn output_schema(&self) -> &Schema {
        self.post.output_schema()
    }

    /// Hash-join the two branch outputs — left order, then right order
    /// within a key, as the reference does — and run the post-join
    /// pipeline over the result.
    pub fn run_rows(&mut self, left: &Rows, right: &Rows) -> Rows {
        let BoundJoin {
            index,
            prev,
            matches,
            joined,
            post,
            ..
        } = self;
        // The post-join pipeline's scratch is idle until the join is made.
        let (sel, cells) = (&mut post.sel, &mut post.cells);
        let mut heap = Heap::default();
        index.clear();
        prev.clear();
        sel.clear();
        sel.extend(0..right.len() as u32);
        let keyed = |key: &[u64], r: u32, _: &Heap| match index.entry(key) {
            (_, true) => {
                index.accs.push(r as u64);
                prev.push(r);
            }
            (k, false) => prev.push(std::mem::replace(&mut index.accs[k], r as u64) as u32),
        };
        project(&self.right_keys, (right, sel), (cells, &mut heap), keyed);
        joined.clear();
        sel.clear();
        sel.extend(0..left.len() as u32);
        let matched = |key: &[u64], l: u32, _: &Heap| {
            let Some(k) = index.find(key) else {
                return;
            };
            matches.clear();
            let mut r = index.accs[k] as u32;
            loop {
                matches.push(r);
                if prev[r as usize] == r {
                    break;
                }
                r = prev[r as usize];
            }
            // The left row, then the right row's appended columns.
            let (lrow, width) = (left.row(l as usize), left.width());
            for &r in matches.iter().rev() {
                let rrow = right.row(r as usize);
                joined.push_row(
                    &|col: usize, heap: &mut Heap| match col.checked_sub(width) {
                        None => lrow.cell(col, heap),
                        Some(appended) => rrow.cell(self.append_idx[appended], heap),
                    },
                );
            }
        };
        project(&self.left_keys, (left, sel), (cells, &mut heap), matched);
        let entering = RowRun::Cells(std::mem::take(joined));
        post.begin();
        let out = post.run_from(0, |at| match at {
            0 => std::slice::from_ref(&entering),
            _ => &[],
        });
        if let RowRun::Cells(rows) = entering {
            *joined = rows;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, field, lit};
    use crate::interpret::run_pipeline;
    use sonata_packet::{Field, PacketBuilder, TcpFlags, Value};

    fn syn(src: u32, dst: u32) -> Tuple {
        Tuple::from_packet(
            &PacketBuilder::tcp_raw(src, 999, dst, 80)
                .flags(TcpFlags::SYN)
                .build(),
        )
    }

    fn q1_ops(th: u64) -> Vec<Operator> {
        crate::catalog::newly_opened_tcp_conns(&crate::catalog::Thresholds {
            new_tcp: th,
            ..crate::catalog::Thresholds::default()
        })
        .pipeline
        .ops
    }

    #[test]
    fn fused_run_matches_reference_pipeline() {
        let ops = q1_ops(2);
        let packet = Schema::packet();
        let mut bound = BoundPipeline::bind(&ops, &packet).unwrap();
        let tuples: Vec<Tuple> = (0..20).map(|i| syn(i % 6, 0xaa + (i % 3))).collect();
        let (ref_schema, mut reference) = run_pipeline(&ops, &packet, tuples.clone()).unwrap();
        let mut fused = bound.run(tuples);
        assert_eq!(bound.output_schema(), &ref_schema);
        reference.sort();
        fused.sort();
        assert_eq!(fused, reference);
    }

    #[test]
    fn entry_merge_order_matches_reference() {
        use crate::interpret::run_entries_owned;
        // Mid-pipeline entries (shunts at the reduce, dumps at the
        // end) must merge exactly as the reference loop does.
        let ops = q1_ops(0);
        let packet = Schema::packet();
        let mut bound = BoundPipeline::bind(&ops, &packet).unwrap();
        let mut entries: BTreeMap<usize, Vec<Tuple>> = BTreeMap::new();
        entries.insert(0, (0..5).map(|i| syn(i, 0xcc)).collect());
        entries.insert(
            2,
            (0..3)
                .map(|_| Tuple::new(vec![Value::U64(0xcc), Value::U64(1)]))
                .collect(),
        );
        entries.insert(4, vec![Tuple::new(vec![Value::U64(0xdd), Value::U64(9)])]);
        let (schema, tuples) = run_entries_owned(&ops, entries.clone()).unwrap();
        let (bschema, bout) = bound.run_entries(entries).unwrap();
        assert_eq!(bschema, schema);
        assert_eq!(bout, tuples);
    }

    #[test]
    fn bad_entry_rejected() {
        let ops = q1_ops(1);
        let mut bound = BoundPipeline::bind(&ops, &Schema::packet()).unwrap();
        let mut entries = BTreeMap::new();
        entries.insert(99, vec![Tuple::new(vec![])]);
        assert_eq!(
            bound.run_entries(entries),
            Err(BoundError::BadEntry { op: 99, len: 4 })
        );
    }

    #[test]
    fn text_and_scalar_keys_share_one_table() {
        // Text group keys (DNS-name refinement) are cells like any
        // other; mixed with scalar keys, every accumulator is kept and
        // the emission orders scalars before text, as `Value` does.
        let ops = vec![Operator::Reduce {
            keys: vec!["k".into()],
            agg: Agg::Sum,
            value: "v".into(),
            out: "sum".into(),
        }];
        let schema = Schema::new(["k", "v"]);
        let mut bound = BoundPipeline::bind(&ops, &schema).unwrap();
        let tuples = vec![
            Tuple::new(vec![Value::U64(1), Value::U64(10)]),
            Tuple::new(vec![Value::Text("a".into()), Value::U64(5)]),
            Tuple::new(vec![Value::U64(1), Value::U64(7)]),
            Tuple::new(vec![Value::Text("a".into()), Value::U64(2)]),
        ];
        let (_, reference) = run_pipeline(&ops, &schema, tuples.clone()).unwrap();
        let fused = bound.run(tuples);
        assert_eq!(fused, reference);
    }

    #[test]
    fn cardinalities_are_the_last_runs() {
        let ops = q1_ops(0);
        let mut bound = BoundPipeline::bind(&ops, &Schema::packet()).unwrap();
        bound.run((0..10).map(|i| syn(i, 0xaa + i)).collect());
        // The reduce at op 2 saw 10 distinct destinations.
        assert_eq!(bound.cardinalities().collect::<Vec<_>>(), [10]);
        bound.run(vec![]);
        assert_eq!(bound.cardinalities().collect::<Vec<_>>(), [0]);
    }

    #[test]
    fn stateless_tail_after_reduce() {
        // map after reduce exercises a seed flowing into a
        // trailing stateless segment.
        let ops = vec![
            Operator::Map {
                exprs: vec![("dIP".into(), field(Field::Ipv4Dst)), ("c".into(), lit(1))],
            },
            Operator::Reduce {
                keys: vec!["dIP".into()],
                agg: Agg::Sum,
                value: "c".into(),
                out: "c".into(),
            },
            Operator::Map {
                exprs: vec![("double".into(), col("c").add(col("c")))],
            },
        ];
        let packet = Schema::packet();
        let mut bound = BoundPipeline::bind(&ops, &packet).unwrap();
        let tuples: Vec<Tuple> = (0..6).map(|i| syn(i, 0xaa + (i % 2))).collect();
        let (_, reference) = run_pipeline(&ops, &packet, tuples.clone()).unwrap();
        assert_eq!(bound.run(tuples), reference);
    }

    /// How every run of every branch of `q` lowered, by branch: `L`eft,
    /// `R`ight, `P`ost-join.
    fn lowerings(q: &crate::query::Query) -> Vec<(char, Vec<[usize; 3]>)> {
        let packet = Schema::packet();
        let left = BoundPipeline::bind(&q.pipeline.ops, &packet).unwrap();
        let mut all = vec![('L', left.lowering())];
        if let Some(join) = &q.join {
            let right = BoundPipeline::bind(&join.right.ops, &packet).unwrap();
            all.push(('R', right.lowering()));
            let (l, r) = (left.output_schema(), right.output_schema());
            all.push(('P', BoundJoin::bind(join, l, r).unwrap().post.lowering()));
        }
        all
    }

    #[test]
    fn catalog_runs_lower_to_compares_except_where_named() {
        // Every run of every branch is compares and flat projections
        // but for the runs listed: `(branch, entry op, residuals,
        // expression projections)`. A silent fall-back to the residual
        // evaluator fails here, not in a benchmark.
        type Odd = (char, usize, usize, usize);
        // `syns - acks > th`: arithmetic, filtered and then projected.
        const DIFF: &[Odd] = &[('P', 0, 1, 1)];
        // `pkt.len / 16` from either entry op before the reduce; the
        // payload search.
        const ZORRO: &[Odd] = &[('R', 0, 0, 1), ('R', 1, 0, 1), ('P', 0, 1, 0)];
        let expect: [(&str, usize, &[Odd]); 12] = [
            ("newly_opened_tcp_conns", 2, &[]),
            ("ssh_brute_force", 3, &[]),
            ("superspreader", 1, &[]),
            ("port_scan", 2, &[]),
            ("ddos", 1, &[]),
            ("tcp_syn_flood", 3, DIFF),
            ("tcp_incomplete_flows", 3, DIFF),
            ("slowloris", 4, DIFF),
            // The DNS names are columns read through, per packet.
            ("dns_tunneling", 3, &[]),
            ("zorro", 4, ZORRO),
            ("dns_reflection", 3, &[]),
            ("malicious_domains", 3, &[]),
        ];
        let t = crate::catalog::Thresholds::default();
        let mut queries = crate::catalog::all(&t);
        queries.push(crate::catalog::malicious_domains(&t));
        for (q, (name, compares, odd)) in queries.iter().zip(expect) {
            assert_eq!(q.name, name);
            let runs: Vec<(char, usize, [usize; 3])> = lowerings(q)
                .into_iter()
                .flat_map(|(branch, runs)| (0..).zip(runs).map(move |(at, run)| (branch, at, run)))
                .collect();
            let total: usize = runs.iter().map(|(.., run)| run[0]).sum();
            assert_eq!(total, compares, "{name}: compares");
            let got: Vec<Odd> = (runs.iter())
                .filter(|(.., run)| run[1] + run[2] > 0)
                .map(|&(branch, at, run)| (branch, at, run[1], run[2]))
                .collect();
            assert_eq!(got, odd, "{name}");
        }
    }

    /// One window of `keys` distinct keys, each seen twice, through a
    /// reduce — and what a pipeline bound for the occasion makes of it.
    fn window_of(keys: u64, bound: &mut BoundPipeline) -> (Rows, Rows) {
        let mut rows = Rows::new(2);
        (0..2 * keys).for_each(|i| rows.push([i % keys, 1]));
        let entries = Entries::from([(0, vec![RowRun::Cells(rows)])]);
        let mut fresh = BoundPipeline::bind(&counting(), &Schema::new(["k", "v"])).unwrap();
        (
            bound.run_rows(&entries).unwrap(),
            fresh.run_rows(&entries).unwrap(),
        )
    }

    fn counting() -> Vec<Operator> {
        vec![Operator::Reduce {
            keys: vec!["k".into()],
            agg: Agg::Sum,
            value: "v".into(),
            out: "v".into(),
        }]
    }

    #[test]
    fn a_burst_sizes_a_table_for_two_windows_not_for_ever() {
        let mut bound = BoundPipeline::bind(&counting(), &Schema::new(["k", "v"])).unwrap();
        let slots = |bound: &BoundPipeline| bound.sinks[0].table.slots.len();
        let (got, want) = window_of(200_000, &mut bound);
        assert_eq!(got, want);
        assert!(slots(&bound) >= 400_000);
        for small in 1..=50 {
            let (got, want) = window_of(10, &mut bound);
            assert_eq!(got, want, "small window {small}");
            assert_eq!(got.len(), 10);
            // The third small window starts on a table cut to size.
            assert_eq!(slots(&bound) < 1_024, small >= 3, "small window {small}");
        }
        // A load that alternates keeps the larger size: nothing is cut
        // and regrown window after window.
        let mut seen = Vec::new();
        for window in 0..12 {
            let (got, want) = window_of([10, 1_000][window % 2], &mut bound);
            assert_eq!(got, want);
            seen.push(slots(&bound));
        }
        assert!(seen[1..].iter().all(|&s| s == 2_048), "{seen:?}");
    }
}
