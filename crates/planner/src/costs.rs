//! Trace-driven cost estimation (Sections 3.3 and 4.2).
//!
//! For every query and every refinement transition `rᵢ → rᵢ₊₁`, the
//! planner replays training windows through the *augmented* query and
//! measures, per candidate partition point `k`:
//!
//! * `N(k)` — tuples the stream processor would receive per window if
//!   the first `k` table units ran on the switch (the paper's
//!   `N_{q,t}`; Figure 5's N₁/N₂ columns are `N(1)`/`N(3)` for
//!   Query 1);
//! * the distinct keys entering each stateful unit, which size its
//!   register (`B_{q,t}`, Figure 5's B column);
//! * relaxed thresholds for coarse levels — the minimum aggregate,
//!   over training windows, among coarse prefixes that cover a key
//!   satisfying the original query (Section 4.1).
//!
//! Following the paper, per-window measurements are reduced by median.

use crate::refine::{refine_query, refinement_levels};
use sonata_packet::{Field, Packet, Value};
use sonata_pisa::compile::{
    compile_pipeline, max_switch_units, table_specs, RegisterSizing, TableSpec,
};
use sonata_pisa::{StateLayout, TaskId};
use sonata_query::expr::BindError;
use sonata_query::interpret::InterpretError;
use sonata_query::query::{packet_origins, OpRef, PipelineRef};
use sonata_query::{
    BoundJoin, BoundPipeline, Entries, Heap, Operator, Pipeline, Query, QueryId, RowRun, RowSource,
    Rows, Schema,
};
use std::collections::{BTreeMap, BTreeSet};

/// Configuration of the estimation pass.
#[derive(Debug, Clone)]
pub struct CostConfig {
    /// Candidate refinement levels; `None` uses
    /// [`refinement_levels`] for the query's key field. The key field's
    /// finest level is always a candidate; listed levels outside
    /// `1..=finest` (0, or 40 for an IPv4 key) are dropped.
    pub levels: Option<Vec<u8>>,
    /// Cap on training windows consumed.
    pub max_windows: usize,
    /// Register sizing headroom: slots = keys × headroom.
    pub headroom: f64,
    /// Relax threshold values at coarse levels from training data
    /// (Section 4.1). Disabling keeps the original thresholds — still
    /// correct, but coarse levels pass more traffic downstream; the
    /// `ablations` bench quantifies the difference.
    pub relax_thresholds: bool,
    /// Approximate register layouts (`sonata-sketch`): when enabled,
    /// stateful units are sized as sketches instead of exact key-value
    /// arrays, trading bounded error for register bits.
    pub sketch: SketchPolicy,
}

impl Default for CostConfig {
    fn default() -> Self {
        CostConfig {
            levels: None,
            max_windows: 4,
            headroom: 1.5,
            relax_thresholds: true,
            sketch: SketchPolicy::default(),
        }
    }
}

/// Planner-side policy for approximate register layouts.
///
/// When `enabled`, distinct units are sized as Bloom filters and
/// cm-capable reduce units as count-min sketches whose shape follows
/// the standard bounds: width = ⌈e/ε⌉, depth = ⌈ln(1/δ)⌉. The switch
/// re-checks semantic capability at load time ([`StateLayout`]
/// stamping is a *family* request, not an unconditional override), so
/// a stamped layout on a non-capable aggregate degrades to `Exact`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SketchPolicy {
    /// Use sketch layouts when sizing stateful registers.
    pub enabled: bool,
    /// Target relative error (vs window L1 mass) for count-min.
    pub epsilon: f64,
    /// Target failure probability of the count-min guarantee.
    pub delta: f64,
}

impl Default for SketchPolicy {
    fn default() -> Self {
        SketchPolicy {
            enabled: false,
            epsilon: 0.01,
            delta: 0.05,
        }
    }
}

/// Per-branch costs of one refinement transition.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchCost {
    /// Table units of the refined branch pipeline.
    pub units: Vec<TableSpec>,
    /// Largest switch-executable partition.
    pub max_units: usize,
    /// Median tuples to the stream processor per window, indexed by
    /// partition point `k ∈ 0..=max_units`.
    pub n: Vec<f64>,
    /// Median distinct keys entering each stateful unit (only units
    /// within `max_units`), in unit order.
    pub keys: Vec<f64>,
    /// Bits per register slot (key + value) for each stateful unit.
    pub slot_bits: Vec<u32>,
}

impl BranchCost {
    /// Register bits required for stateful unit `i` under sizing
    /// headroom `h` and `d` arrays (exact key-value layout).
    pub fn register_bits(&self, i: usize, headroom: f64, d: usize) -> u64 {
        let slots = (self.keys[i] * headroom).ceil().max(16.0) as u64;
        slots * d as u64 * self.slot_bits[i] as u64
    }

    /// Register bits for stateful unit `i` under the sketch policy.
    /// Mirrors [`sonata_pisa::RegisterDecl::total_bits`] so the
    /// planner's accounting agrees with the switch's resource check.
    pub fn register_bits_with(
        &self,
        i: usize,
        headroom: f64,
        d: usize,
        sketch: &SketchPolicy,
    ) -> u64 {
        let s = self.sizing(i, headroom, d, sketch);
        match s.layout {
            StateLayout::Exact => s.slots as u64 * s.arrays as u64 * self.slot_bits[i] as u64,
            StateLayout::CountMin => {
                (s.slots * s.arrays * sonata_sketch::CM_COUNTER_BITS
                    + sonata_sketch::bloom_bits_for(s.capacity)) as u64
            }
            StateLayout::Bloom => sonata_sketch::bloom_bits_for(s.capacity) as u64,
            StateLayout::Hll => {
                (sonata_sketch::bloom_bits_for(s.capacity)
                    + (1usize << sonata_sketch::HLL_PRECISION) * 8) as u64
            }
        }
    }

    /// Suggested slot count for stateful unit `i`.
    pub fn slots(&self, i: usize, headroom: f64) -> usize {
        (self.keys[i] * headroom).ceil().max(16.0) as usize
    }

    /// Operator kind of stateful unit `i` ("reduce" or "distinct").
    fn stateful_kind(&self, i: usize) -> &'static str {
        self.units
            .iter()
            .filter(|u| u.stateful)
            .nth(i)
            .map(|u| u.kind)
            .unwrap_or("reduce")
    }

    /// Full register sizing for stateful unit `i`: exact key-value by
    /// default; under an enabled [`SketchPolicy`], distinct units get
    /// a Bloom layout sized for the trained key count and reduce units
    /// a count-min whose width/depth derive from (ε, δ) — notably
    /// *independent* of the key count, which is where the capacity
    /// multiplication comes from.
    pub fn sizing(
        &self,
        i: usize,
        headroom: f64,
        d: usize,
        sketch: &SketchPolicy,
    ) -> RegisterSizing {
        let capacity = (self.keys[i] * headroom).ceil().max(16.0) as usize;
        if !sketch.enabled {
            return RegisterSizing {
                slots: capacity,
                arrays: d,
                ..Default::default()
            };
        }
        match self.stateful_kind(i) {
            "distinct" => RegisterSizing {
                slots: capacity,
                arrays: 1,
                layout: StateLayout::Bloom,
                capacity,
            },
            _ => RegisterSizing {
                slots: sonata_sketch::cm_width_for(sketch.epsilon),
                arrays: sonata_sketch::cm_depth_for(sketch.delta),
                layout: StateLayout::CountMin,
                capacity,
            },
        }
    }
}

/// Costs of one transition `(prev, level)`.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionCost {
    /// Branch costs: index 0 = left, index 1 = right (join queries).
    pub branches: Vec<BranchCost>,
}

impl TransitionCost {
    /// Total tuples per window when branch `b` partitions at `ks[b]`.
    pub fn total_n(&self, ks: &[usize]) -> f64 {
        self.branches
            .iter()
            .zip(ks)
            .map(|(b, &k)| b.n[k.min(b.n.len() - 1)])
            .sum()
    }

    /// Minimum achievable tuples (every branch at max partition).
    pub fn best_n(&self) -> f64 {
        self.branches.iter().map(|b| b.n[b.max_units]).sum()
    }
}

/// All estimated costs for one query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryCosts {
    /// The query.
    pub query: QueryId,
    /// Refinement key field, if refinable.
    pub field: Option<Field>,
    /// The finest level (identity masking).
    pub finest: u8,
    /// Candidate levels, coarse→fine, ending with `finest`.
    pub levels: Vec<u8>,
    /// Relaxed thresholds per level: `(filter position, value)`.
    pub relaxed: BTreeMap<u8, Vec<(OpRef, u64)>>,
    /// Satisfying output keys of the original query per training
    /// window (used to seed transition filters).
    pub satisfying: Vec<BTreeSet<Value>>,
    /// Transition costs keyed by `(previous level, level)`.
    pub transitions: BTreeMap<(Option<u8>, u8), TransitionCost>,
}

impl QueryCosts {
    /// The refined query for a level, with relaxed thresholds applied.
    pub fn refined_with_thresholds(
        &self,
        query: &Query,
        level: u8,
        prev: Option<(u8, BTreeSet<Value>)>,
    ) -> Query {
        let mut q = if self.field.is_some() {
            refine_query(query, level, prev)
        } else {
            query.clone()
        };
        // Positions shift by one when a previous-level filter was
        // prepended to a pipeline.
        let shift = |at: OpRef, shifted: bool| -> OpRef {
            if shifted && matches!(at.pipeline, PipelineRef::Left | PipelineRef::Right) {
                OpRef {
                    pipeline: at.pipeline,
                    index: at.index + 1,
                }
            } else {
                at
            }
        };
        let shifted = q.pipeline.ops.len() > query.pipeline.ops.len();
        if let Some(relaxed) = self.relaxed.get(&level) {
            for (at, value) in relaxed {
                q.set_threshold(shift(*at, shifted), *value);
            }
        }
        q
    }
}

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    values[values.len() / 2]
}

/// What a branch pipeline's costs hang on besides the traffic: its
/// table units, how many of them the switch can run, and the register
/// slot width of each stateful one. Refinement masks and threshold
/// values change none of it, so one shape serves every level.
struct BranchShape {
    units: Vec<TableSpec>,
    max_units: usize,
    /// Key bits + value bits per stateful unit, from the compiled
    /// register declarations.
    slot_bits: Vec<u32>,
}

impl BranchShape {
    fn of(pipeline: &Pipeline) -> Self {
        let units = table_specs(pipeline);
        let max_units = max_switch_units(&units);
        let stateful = units[..max_units].iter().filter(|u| u.stateful).count();
        let sizing = RegisterSizing {
            slots: 16,
            arrays: 1,
            ..Default::default()
        };
        let task = TaskId {
            query: QueryId(u32::MAX),
            level: 32,
            branch: 0,
        };
        let stages: Vec<usize> = (0..max_units).map(|i| i * 2).collect();
        let slot_bits =
            match compile_pipeline(pipeline, task, &stages, &vec![sizing; stateful], 0, 0) {
                Ok(cp) => (cp.fragment.registers.iter())
                    .map(|r| r.key_bits + r.value_bits)
                    .collect(),
                Err(_) => vec![64; stateful],
            };
        BranchShape {
            units,
            max_units,
            slot_bits,
        }
    }
}

/// The pipelines that read the packet stream: left, then the join's
/// right.
fn branches(q: &Query) -> impl Iterator<Item = &Pipeline> {
    std::iter::once(&q.pipeline).chain(q.join.as_ref().map(|j| &j.right))
}

/// The packet fields a training row carries: the ones the query reads
/// plus its refinement key — unless a `distinct`, or the output, sees
/// packet columns that no `map` or `reduce` has narrowed first. There
/// a row's width is part of the answer, and every field stays.
fn row_fields(query: &Query) -> Vec<Field> {
    let post = query.join.as_ref().map(|j| &j.post);
    let narrowed = |branch: &Pipeline| {
        (branch.ops.iter().chain(post.iter().flat_map(|p| &p.ops)))
            .find_map(|op| match op {
                Operator::Map { .. } | Operator::Reduce { .. } => Some(true),
                Operator::Distinct => Some(false),
                Operator::Filter(_) => None,
            })
            .unwrap_or(false)
    };
    if !branches(query).all(narrowed) {
        return Field::ALL.to_vec();
    }
    let mut fields = query.referenced_fields();
    fields.extend(query.refinement.iter().map(|h| h.field));
    fields.sort_unstable();
    fields.dedup();
    fields
}

/// A training packet as a row of the fields a query's rows carry.
struct FieldsOf<'a>(&'a Packet, &'a [Field]);

impl RowSource for FieldsOf<'_> {
    fn cell(&self, col: usize, heap: &mut Heap) -> u64 {
        heap.cell(&self.0.get(self.1[col]).unwrap_or(Value::U64(0)))
    }
}

/// One branch over one window: `N(k)` per partition point, and the
/// keys entering each stateful unit.
type Sample = (Vec<f64>, Vec<f64>);

/// What one segment of a [`Staged`] pipeline left behind.
#[derive(Clone, Copy)]
struct Mark {
    /// Tuples it emitted.
    len: usize,
    /// Keys its first stateful operator held.
    keys: usize,
}

/// One window's rows on their way through a [`Staged`] pipeline:
/// about to enter segment `at`, with a mark per segment behind them.
#[derive(Clone)]
struct Cursor {
    at: usize,
    rows: Rows,
    marks: Vec<Mark>,
}

impl Cursor {
    fn new(rows: Rows) -> Self {
        Cursor {
            at: 0,
            rows,
            marks: Vec::new(),
        }
    }
}

/// A branch pipeline bound once, in segments: cut after every unit the
/// switch could run (where `N(k)` is read) and before every threshold
/// filter (where relaxation reads the aggregates and a relaxed
/// pipeline takes over).
struct Staged {
    /// The op index each segment ends at; the last is the pipeline's.
    ends: Vec<usize>,
    segs: Vec<BoundPipeline>,
}

impl Staged {
    fn bind(ops: &[Operator], input: &Schema, cuts: &BTreeSet<usize>) -> Result<Self, BindError> {
        let mut ends: Vec<usize> = cuts.iter().copied().filter(|&c| c < ops.len()).collect();
        ends.push(ops.len());
        let mut segs: Vec<BoundPipeline> = Vec::with_capacity(ends.len());
        for (i, &end) in ends.iter().enumerate() {
            let start = if i == 0 { 0 } else { ends[i - 1] };
            let schema = segs.last().map_or(input, |s| s.output_schema());
            segs.push(BoundPipeline::bind(&ops[start..end], schema)?);
        }
        Ok(Staged { ends, segs })
    }

    /// Index of the segment ending at op `end`, which must be a cut.
    fn seg(&self, end: usize) -> usize {
        let at = self.ends.iter().position(|&e| e == end);
        at.expect("unit ends and threshold filters are cuts")
    }

    /// The schema of tuples about to enter op `end`.
    fn schema_at(&self, end: usize) -> &Schema {
        self.segs[self.seg(end)].output_schema()
    }

    fn output_schema(&self) -> &Schema {
        self.segs.last().expect("never empty").output_schema()
    }

    /// Run the cursor through every segment ending at or before `end`.
    fn advance(&mut self, c: &mut Cursor, end: usize) {
        while c.at < self.segs.len() && self.ends[c.at] <= end {
            let seg = &mut self.segs[c.at];
            let entries = Entries::from([(0, vec![RowRun::Cells(std::mem::take(&mut c.rows))])]);
            c.rows = seg.run_rows(&entries).expect("op 0 is an entry point");
            c.marks.push(Mark {
                len: c.rows.len(),
                keys: seg.cardinalities().next().unwrap_or(0),
            });
            c.at += 1;
        }
    }

    /// `N` after each of `units` and the keys of the stateful ones
    /// among them, off a cursor that has passed them.
    fn sample(&self, units: &[TableSpec], marks: &[Mark]) -> Sample {
        let (mut n, mut keys, mut first) = (Vec::new(), Vec::new(), 0);
        for unit in units {
            let last = self.seg(unit.ops.end);
            if unit.stateful {
                keys.push(marks[first].keys as f64);
            }
            n.push(marks[last].len as f64);
            first = last + 1;
        }
        (n, keys)
    }
}

/// One refined query bound for staged evaluation.
struct BoundLevel {
    branches: Vec<Staged>,
    join: Option<BoundJoin>,
}

impl BoundLevel {
    fn bind(q: &Query, rows: &Schema, cuts: &[BTreeSet<usize>]) -> Result<Self, InterpretError> {
        let branches = (branches(q).zip(cuts))
            .map(|(p, cuts)| Staged::bind(&p.ops, rows, cuts))
            .collect::<Result<Vec<_>, _>>()?;
        let join = match &q.join {
            Some(j) => Some(BoundJoin::bind(
                j,
                branches[0].output_schema(),
                branches[1].output_schema(),
            )?),
            None => None,
        };
        Ok(BoundLevel { branches, join })
    }

    /// The refinement keys one window's branch outputs amount to: the
    /// key column of the query's final output and, when the post-join
    /// pipeline hinges on a content predicate, of every branch that
    /// thresholds itself (the runtime's matching rule). `level` masks
    /// them; `None` keeps them whole.
    fn output_keys(&mut self, q: &Query, outs: &[&Rows], level: Option<u8>) -> BTreeSet<Value> {
        let hint = q.refinement.as_ref();
        let whole = |v: &Value| level.map_or_else(|| v.clone(), |l| v.mask_to_level(l));
        let joined;
        let (schema, rows) = match &mut self.join {
            None => (self.branches[0].output_schema(), outs[0]),
            Some(j) => {
                joined = j.run_rows(outs[0], outs[1]);
                (j.output_schema(), &joined)
            }
        };
        let column = |rows: &Rows, idx: usize| -> Vec<Value> {
            (0..rows.len())
                .map(|r| whole(&rows.row(r).value(idx)))
                .collect()
        };
        let idx = hint.and_then(|h| schema.index_of(&h.out_col)).unwrap_or(0);
        let mut keys: BTreeSet<Value> = column(rows, idx).into_iter().collect();
        let confirms = q
            .join
            .as_ref()
            .is_some_and(|j| j.post.has_content_predicate());
        if let (Some(hint), Some(_), true) = (hint, level, confirms) {
            for ((p, staged), out) in branches(q).zip(&self.branches).zip(outs) {
                let schema = staged.output_schema();
                let idx =
                    (schema.index_of(&hint.out_col)).or_else(|| schema.index_of(hint.field.name()));
                if let (true, Some(idx)) = (p.ends_with_threshold_filter(), idx) {
                    keys.extend(column(out, idx));
                }
            }
        }
        keys
    }
}

/// The per-window samples of one transition, `[branch][window]`,
/// reduced by median.
fn transition(shapes: &[BranchShape], samples: &[Vec<Sample>]) -> TransitionCost {
    let median_of = |vals: &mut dyn Iterator<Item = f64>| median(&mut vals.collect::<Vec<_>>());
    let branches = (shapes.iter().zip(samples))
        .filter(|(_, windows)| !windows.is_empty())
        .map(|(shape, windows)| BranchCost {
            units: shape.units.clone(),
            max_units: shape.max_units,
            n: (0..windows[0].0.len())
                .map(|k| median_of(&mut windows.iter().map(|s| s.0[k])))
                .collect(),
            keys: (0..windows[0].1.len())
                .map(|i| median_of(&mut windows.iter().map(|s| s.1[i])))
                .collect(),
            slot_bits: shape.slot_bits.clone(),
        })
        .collect();
    TransitionCost { branches }
}

/// Relaxed thresholds of one coarse level (Section 4.1): per threshold
/// filter of a packet-reading branch, the median over training windows
/// of the smallest aggregate among the coarse keys that cover a key
/// satisfying the original query. Leaves each window's cursor at the
/// branch's first threshold filter, where the relaxed pipeline resumes;
/// post-join filters run at the stream processor anyway and keep their
/// values.
fn relax_level(
    plain: &Query,
    bound: &mut BoundLevel,
    cursors: &mut [Vec<Cursor>],
    field: Field,
    level: u8,
    satisfying: &[BTreeSet<Value>],
) -> Vec<(OpRef, u64)> {
    let covering: Vec<BTreeSet<Value>> = (satisfying.iter())
        .map(|keys| keys.iter().map(|v| v.mask_to_level(level)).collect())
        .collect();
    let mut relaxed = Vec::new();
    let mut first_cut = [None; 2];
    for (at, col, orig) in plain.threshold_filters() {
        let b = match at.pipeline {
            PipelineRef::Left => 0,
            PipelineRef::Right => 1,
            PipelineRef::Post => continue,
        };
        let (pipeline, staged) = (branches(plain).nth(b), &mut bound.branches[b]);
        let before = Pipeline {
            ops: pipeline.expect("a threshold sits in it").ops[..at.index].to_vec(),
        };
        let (_, origins) = before.lineage(&Schema::packet(), &packet_origins());
        // The key column by refinement-field origin, else by name.
        let columns = staged.schema_at(at.index).columns();
        let key_idx = (columns.iter().position(|c| origins.get(c) == Some(&field)))
            .or_else(|| columns.iter().position(|c| c.as_ref() == field.name()));
        let col_idx = columns.iter().position(|c| *c == col);
        let resume = *first_cut[b].get_or_insert(at.index);
        let mut mins: Vec<f64> = Vec::new();
        for (cursor, covering) in cursors[b].iter_mut().zip(&covering) {
            staged.advance(cursor, resume);
            // A later threshold of the same branch is probed past the
            // original value of the first, on a copy.
            let mut probe = (resume < at.index).then(|| cursor.clone());
            let here = match &mut probe {
                Some(copy) => {
                    staged.advance(copy, at.index);
                    &*copy
                }
                None => &*cursor,
            };
            let (Some(k), Some(v)) = (key_idx, col_idx) else {
                continue;
            };
            let min = ((0..here.rows.len()).map(|r| here.rows.row(r)))
                .filter(|row| covering.contains(&row.value(k)))
                .filter_map(|row| row.value(v).as_u64())
                .min();
            mins.extend(min.map(|m| m as f64));
        }
        // The filter is strict (`>`), so pass prefixes whose aggregate
        // reaches the observed minimum.
        relaxed.push(match mins.is_empty() {
            true => (at, orig),
            false => (at, orig.max((median(&mut mins) as u64).saturating_sub(1))),
        });
    }
    relaxed
}

/// Estimate all costs for one query over training windows.
///
/// Each window becomes rows once (see [`row_fields`]); each level's
/// refined query is bound once and every window runs through it once.
/// That one run yields the aggregates relaxation reads, the level's
/// output keys, and the unfiltered transition `(None, r)`. A filtered
/// transition `(p, r)` is level `r`'s bound pipeline again, over the
/// rows whose key masked to `p` level `p` reported — the filter
/// [`refine_query`] prepends reads a raw packet field, so it selects
/// rows and leaves the pipeline as it was.
pub fn estimate_costs(
    query: &Query,
    training_windows: &[&[Packet]],
    cfg: &CostConfig,
) -> Result<QueryCosts, InterpretError> {
    let windows = &training_windows[..training_windows.len().min(cfg.max_windows.max(1))];
    let field = query.refinement.as_ref().map(|h| h.field);
    let finest = field
        .and_then(|f| f.finest_refinement_level())
        .unwrap_or(32);
    let mut levels: Vec<u8> = match (&cfg.levels, field) {
        (Some(l), Some(_)) => l
            .iter()
            .copied()
            .filter(|l| (1..finest).contains(l))
            .collect(),
        (None, Some(f)) => refinement_levels(f),
        (_, None) => Vec::new(),
    };
    levels.push(finest);
    levels.sort_unstable();
    levels.dedup();

    let fields = row_fields(query);
    let row_schema = Schema::new(fields.iter().map(|f| f.name()));
    let rows: Vec<Rows> = (windows.iter())
        .map(|pkts| {
            let mut rows = Rows::new(fields.len());
            pkts.iter()
                .for_each(|p| rows.push_row(&FieldsOf(p, &fields)));
            rows
        })
        .collect();

    // Level-independent structure: unit shapes without and with the
    // previous-level filter, and where each branch is cut.
    let bare: Vec<BranchShape> = branches(query).map(BranchShape::of).collect();
    let gated: Vec<BranchShape> = match field {
        Some(_) => branches(&refine_query(
            query,
            finest,
            Some((finest, BTreeSet::new())),
        ))
        .map(BranchShape::of)
        .collect(),
        None => Vec::new(),
    };
    let thresholds = query.threshold_filters();
    let cuts: Vec<BTreeSet<usize>> = (bare.iter().zip([PipelineRef::Left, PipelineRef::Right]))
        .map(|(shape, which)| {
            let unit_ends = shape.units[..shape.max_units].iter().map(|u| u.ops.end);
            let filters = thresholds.iter().filter(|t| t.0.pipeline == which);
            unit_ends.chain(filters.map(|t| t.0.index)).collect()
        })
        .collect();

    let mut costs = QueryCosts {
        query: query.id,
        field,
        finest,
        levels: levels.clone(),
        relaxed: BTreeMap::new(),
        satisfying: Vec::new(),
        transitions: BTreeMap::new(),
    };
    // Per level, finest first (relaxation reads its output): the bound
    // relaxed query and the keys it reported per window.
    let mut evals: BTreeMap<u8, (BoundLevel, Vec<BTreeSet<Value>>)> = BTreeMap::new();
    for &level in levels.iter().rev() {
        let mut cursors: Vec<Vec<Cursor>> = (bare.iter())
            .map(|_| rows.iter().map(|r| Cursor::new(r.clone())).collect())
            .collect();
        if let (Some(f), true, true) = (field, cfg.relax_thresholds, level != finest) {
            let plain = refine_query(query, level, None);
            let mut bound = BoundLevel::bind(&plain, &row_schema, &cuts)?;
            let relaxed = relax_level(
                &plain,
                &mut bound,
                &mut cursors,
                f,
                level,
                &costs.satisfying,
            );
            costs.relaxed.insert(level, relaxed);
        }
        let rq = costs.refined_with_thresholds(query, level, None);
        let mut bound = BoundLevel::bind(&rq, &row_schema, &cuts)?;
        let mut outputs = Vec::with_capacity(rows.len());
        let mut samples: Vec<Vec<Sample>> = vec![Vec::new(); bare.len()];
        for (w, window) in rows.iter().enumerate() {
            for (b, staged) in bound.branches.iter_mut().enumerate() {
                let cursor = &mut cursors[b][w];
                staged.advance(cursor, usize::MAX);
                let (mut n, keys) =
                    staged.sample(&bare[b].units[..bare[b].max_units], &cursor.marks);
                n.insert(0, window.len() as f64);
                samples[b].push((n, keys));
            }
            let outs: Vec<&Rows> = cursors.iter().map(|c| &c[w].rows).collect();
            outputs.push(bound.output_keys(&rq, &outs, (level != finest).then_some(level)));
        }
        costs
            .transitions
            .insert((None, level), transition(&bare, &samples));
        if level == finest {
            costs.satisfying = outputs.clone();
        }
        evals.insert(level, (bound, outputs));
    }

    // Filtered transitions; an unrefinable query has none. Rows carry
    // the refinement key whenever there is one.
    let Some(key) = field.and_then(|f| row_schema.index_of(f.name())) else {
        return Ok(costs);
    };
    for (i, &p) in levels.iter().enumerate() {
        // Transition filter: previous level's output from the preceding
        // window (same window for the first transition sample — the
        // training trace is stationary).
        let passed = &evals[&p].1;
        let picked: Vec<Rows> = (rows.iter().enumerate())
            .map(|(w, window)| {
                let set = &passed[w.saturating_sub(1)];
                window.filter(|row| set.contains(&row.value(key).mask_to_level(p)))
            })
            .collect();
        for &r in &levels[i + 1..] {
            let bound = &mut evals.get_mut(&r).expect("every level was evaluated").0;
            let samples: Vec<Vec<Sample>> = (bound.branches.iter_mut().enumerate())
                .map(|(b, staged)| {
                    // The gate is unit 0; the rest are the bare units.
                    let units = &bare[b].units[..gated[b].max_units.saturating_sub(1)];
                    (rows.iter().zip(&picked))
                        .map(|(window, picked)| {
                            let (rest, keys) = match units.last() {
                                Some(last) => {
                                    let mut cursor = Cursor::new(picked.clone());
                                    staged.advance(&mut cursor, last.ops.end);
                                    staged.sample(units, &cursor.marks)
                                }
                                None => Sample::default(),
                            };
                            let gate = [window.len() as f64, picked.len() as f64];
                            let n = gate.into_iter().chain(rest);
                            (n.take(gated[b].max_units + 1).collect(), keys)
                        })
                        .collect()
                })
                .collect();
            costs
                .transitions
                .insert((Some(p), r), transition(&gated, &samples));
        }
    }
    Ok(costs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sonata_packet::{PacketBuilder, TcpFlags};
    use sonata_query::catalog::{self, Thresholds};

    fn syn(src: u32, dst: u32, ts: u64) -> Packet {
        PacketBuilder::tcp_raw(src, 9, dst, 80)
            .flags(TcpFlags::SYN)
            .ts_nanos(ts)
            .build()
    }

    /// A window with a heavy hitter (victim, 20 SYNs) plus background
    /// hosts spread across /8s (2 SYNs each).
    fn window() -> Vec<Packet> {
        let mut pkts = Vec::new();
        for i in 0..20 {
            pkts.push(syn(100 + i, 0x63070019, i as u64));
        }
        for host in 0..10u32 {
            let dst = ((host % 5 + 1) << 24) | host;
            pkts.push(syn(7, dst, 100 + host as u64));
            pkts.push(syn(8, dst, 200 + host as u64));
        }
        pkts
    }

    fn q1() -> Query {
        catalog::newly_opened_tcp_conns(&Thresholds {
            new_tcp: 10,
            ..Thresholds::default()
        })
    }

    #[test]
    fn costs_have_figure5_shape() {
        let w1 = window();
        let w2 = window();
        let cfg = CostConfig {
            levels: Some(vec![8, 16, 32]),
            ..Default::default()
        };
        let costs = estimate_costs(&q1(), &[&w1, &w2], &cfg).unwrap();
        // Transitions: (*,8),(*,16),(*,32),(8,16),(8,32),(16,32)
        assert_eq!(costs.transitions.len(), 6);
        let star8 = &costs.transitions[&(None, 8)].branches[0];
        // N(0) = all packets; N decreases along the pipeline.
        assert_eq!(star8.n[0], 40.0);
        assert!(star8.n[1] <= star8.n[0]);
        // Partition at the reduce: only satisfying /8 prefixes remain.
        let n_full = star8.n[star8.max_units];
        assert!((1.0..5.0).contains(&n_full), "n_full={n_full}");
        // Filtered transitions see less traffic than unfiltered ones.
        let f8_32 = &costs.transitions[&(Some(8), 32)].branches[0];
        let star32 = &costs.transitions[&(None, 32)].branches[0];
        assert!(
            f8_32.n[1] <= star32.n[1],
            "{} vs {}",
            f8_32.n[1],
            star32.n[1]
        );
        // Keys at coarse level fewer than keys at fine level.
        let k8 = costs.transitions[&(None, 8)].branches[0].keys[0];
        let k32 = star32.keys[0];
        assert!(k8 <= k32, "k8={k8} k32={k32}");
        assert_eq!(star8.slot_bits, vec![64]); // 32-bit key + 32-bit count
    }

    #[test]
    fn relaxed_thresholds_are_no_smaller_than_original() {
        let w = window();
        let cfg = CostConfig {
            levels: Some(vec![8, 32]),
            ..Default::default()
        };
        let costs = estimate_costs(&q1(), &[&w], &cfg).unwrap();
        let relaxed = &costs.relaxed[&8];
        assert_eq!(relaxed.len(), 1);
        // The /8 containing the victim aggregates 20 SYNs; relaxed
        // threshold ≈ 19 ≥ original 10.
        assert!(relaxed[0].1 >= 10, "relaxed={}", relaxed[0].1);
        assert!(relaxed[0].1 <= 20);
    }

    #[test]
    fn relaxed_thresholds_never_lose_true_positives() {
        let w = window();
        let cfg = CostConfig {
            levels: Some(vec![8, 16, 32]),
            ..Default::default()
        };
        let q = q1();
        let costs = estimate_costs(&q, &[&w], &cfg).unwrap();
        let fine_keys = &costs.satisfying[0];
        assert!(!fine_keys.is_empty());
        for &level in &[8u8, 16] {
            let rq = costs.refined_with_thresholds(&q, level, None);
            let out = sonata_query::interpret::run_query(&rq, &w).unwrap();
            let coarse: BTreeSet<Value> = out.iter().map(|t| t.get(0).clone()).collect();
            for k in fine_keys {
                assert!(
                    coarse.contains(&k.mask_to_level(level)),
                    "level {level} lost {k}"
                );
            }
        }
    }

    #[test]
    fn join_query_costs_have_two_branches() {
        let w = window();
        let cfg = CostConfig {
            levels: Some(vec![8, 32]),
            ..Default::default()
        };
        let q = catalog::tcp_syn_flood(&Thresholds {
            syn_flood: 5,
            ..Thresholds::default()
        });
        let costs = estimate_costs(&q, &[&w], &cfg).unwrap();
        let t = &costs.transitions[&(None, 32)];
        assert_eq!(t.branches.len(), 2);
        assert!(t.total_n(&[0, 0]) >= t.best_n());
    }

    #[test]
    fn content_gated_feed_uses_branch_signal() {
        // Zorro-shaped traffic without any keyword packet: the coarse
        // level's *final* output is empty, but the counting branch
        // flags the victim — and the cost model must see the filtered
        // transition shrink accordingly.
        let mut pkts = Vec::new();
        for i in 0..20 {
            // Same-size telnet packets to one victim.
            pkts.push(
                PacketBuilder::tcp_raw(7, 999, 0x63070019, 23)
                    .flags(sonata_packet::TcpFlags::PSH_ACK)
                    .payload(vec![0x42; 32])
                    .ts_nanos(i)
                    .build(),
            );
        }
        for h in 0..30u32 {
            // Background telnet noise, one packet per host.
            pkts.push(
                PacketBuilder::tcp_raw(8, 999, ((h % 15 + 1) << 24) | h, 23)
                    .flags(sonata_packet::TcpFlags::PSH_ACK)
                    .payload(vec![h as u8; 40])
                    .ts_nanos(1000 + h as u64)
                    .build(),
            );
        }
        let q = sonata_query::catalog::zorro(&Thresholds {
            zorro_pkts: 5,
            ..Thresholds::default()
        });
        let cfg = CostConfig {
            levels: Some(vec![8, 32]),
            ..Default::default()
        };
        let costs = estimate_costs(&q, &[&pkts], &cfg).unwrap();
        // No keyword anywhere: final outputs empty at every level.
        assert!(costs.satisfying[0].is_empty());
        // Yet the filtered (8→32) transition sees less traffic than the
        // unfiltered (*→32) one — the branch signal fed the filter.
        let star32 = &costs.transitions[&(None, 32)].branches[0];
        let f8_32 = &costs.transitions[&(Some(8), 32)].branches[0];
        assert!(
            f8_32.n[1] < star32.n[1],
            "branch-fed filter must prune: {} vs {}",
            f8_32.n[1],
            star32.n[1]
        );
    }

    #[test]
    fn relaxation_disabled_keeps_original_thresholds() {
        let w = window();
        let cfg = CostConfig {
            levels: Some(vec![8, 32]),
            relax_thresholds: false,
            ..Default::default()
        };
        let costs = estimate_costs(&q1(), &[&w], &cfg).unwrap();
        assert!(costs.relaxed.is_empty());
        // The refined coarse query keeps the original threshold value.
        let rq = costs.refined_with_thresholds(&q1(), 8, None);
        let th = rq.threshold_filters()[0].2;
        assert_eq!(th, 10);
    }

    #[test]
    fn levels_outside_the_key_field_are_dropped() {
        // 40 used to panic ("level output computed"): it became a
        // `prev` level without ever being evaluated.
        let w = window();
        let cfg = CostConfig {
            levels: Some(vec![0, 8, 40]),
            ..Default::default()
        };
        let costs = estimate_costs(&q1(), &[&w], &cfg).unwrap();
        assert_eq!(costs.levels, vec![8, 32]);
        let transitions: Vec<_> = costs.transitions.keys().copied().collect();
        assert_eq!(transitions, vec![(None, 8), (None, 32), (Some(8), 32)]);
    }

    #[test]
    fn unrefinable_query_gets_single_transition() {
        let mut q = q1();
        q.refinement = None;
        let w = window();
        let costs = estimate_costs(&q, &[&w], &CostConfig::default()).unwrap();
        assert_eq!(costs.transitions.len(), 1);
        assert!(costs.transitions.contains_key(&(None, 32)));
    }
}
