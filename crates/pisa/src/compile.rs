//! Compiling a prefix of a Sonata dataflow pipeline to match-action
//! tables (Section 3.1.2).
//!
//! The mapping is exactly the paper's:
//!
//! * `filter` → one match-action table (a set-membership filter from
//!   dynamic refinement becomes a *dynamic* filter table whose entries
//!   the control plane rewrites every window);
//! * `map` → one table of metadata assignments;
//! * `reduce` / `distinct` → two tables: hash (key/index computation)
//!   and update (the stateful read-modify-write), backed by a
//!   [`RegisterDecl`];
//! * a threshold `filter(out > Th)` immediately after a `reduce` is
//!   merged into the reduce's update table ("more than one dataflow
//!   operator can be compiled to the same table", Section 3.3).
//!
//! [`table_specs`] exposes the table structure without building IR —
//! the planner's unit of partitioning; [`compile_pipeline`] builds the
//! loadable program fragment for a chosen partition.

use crate::ir::{
    MatchSpec, MetaField, PhvExpr, PisaProgram, RegId, RegisterDecl, ReportMode, ReportSpec,
    ShuntSpec, Table, TableKind, TaskId,
};
use crate::phv::MetaRef;
use sonata_packet::wire::ALL_FIELDS;
use sonata_packet::{Field, FieldWidth, Value};
use sonata_query::expr::{CmpOp, Expr, Pred};
use sonata_query::{Agg, ColName, Operator, Pipeline, Schema};
use sonata_sketch::StateLayout;
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// Sizing for one stateful operator's register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegisterSizing {
    /// Slots per array (the paper's `n`). For sketch layouts this is
    /// the count-min *width* (Bloom layouts size from `capacity`).
    pub slots: usize,
    /// Number of arrays (the paper's `d`); the count-min *depth* for
    /// sketch layouts.
    pub arrays: usize,
    /// Physical layout the planner picked for this register.
    pub layout: StateLayout,
    /// Expected distinct keys per window, sizing Bloom admission
    /// state; `0` derives it from `slots × arrays`.
    pub capacity: usize,
}

impl Default for RegisterSizing {
    fn default() -> Self {
        RegisterSizing {
            slots: 4096,
            arrays: 2,
            layout: StateLayout::Exact,
            capacity: 0,
        }
    }
}

/// The planner's view of one compiled table unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSpec {
    /// Operator kind implemented ("filter", "map", "reduce", "distinct").
    pub kind: &'static str,
    /// Pipeline operator indices covered (merged filters included);
    /// `ops.end` is the op index where the stream processor resumes if
    /// this is the last switch table.
    pub ops: std::ops::Range<usize>,
    /// Whether the unit holds state (consumes an `A` slot and `B` bits).
    pub stateful: bool,
    /// Physical stages consumed (2 for stateful: hash + update).
    pub stage_cost: usize,
    /// Whether the switch can execute this unit at all.
    pub switch_ok: bool,
    /// A `reduce` emits per-key results only at window end, so nothing
    /// may follow it on the switch: if this unit is on the switch it
    /// must be the partition point.
    pub must_be_last: bool,
}

/// Why compilation to the data plane failed.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The requested partition includes an operator the switch cannot
    /// execute (payload predicates, general division, …).
    NotSwitchExecutable {
        /// The offending operator index.
        op: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// The requested partition puts tables after a `reduce`.
    ReduceNotLast {
        /// The reduce's operator index.
        op: usize,
    },
    /// Stage list length doesn't match the number of switch tables.
    StageArity {
        /// Tables requested on the switch.
        tables: usize,
        /// Stages provided.
        stages: usize,
    },
    /// Register sizing list doesn't match the number of stateful units.
    SizingArity {
        /// Stateful units on the switch.
        stateful: usize,
        /// Sizings provided.
        sizings: usize,
    },
    /// An expression references a column absent from the schema
    /// (should have been caught by query validation).
    UnknownColumn {
        /// The missing column.
        column: ColName,
    },
    /// More switch tables requested than the pipeline has.
    PartitionTooDeep {
        /// Units requested.
        requested: usize,
        /// Units available.
        available: usize,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::NotSwitchExecutable { op, reason } => {
                write!(f, "operator {op} cannot run on the switch: {reason}")
            }
            CompileError::ReduceNotLast { op } => {
                write!(f, "reduce at operator {op} must be the last switch table")
            }
            CompileError::StageArity { tables, stages } => {
                write!(f, "{tables} switch tables but {stages} stages provided")
            }
            CompileError::SizingArity { stateful, sizings } => {
                write!(
                    f,
                    "{stateful} stateful units but {sizings} sizings provided"
                )
            }
            CompileError::UnknownColumn { column } => write!(f, "unknown column `{column}`"),
            CompileError::PartitionTooDeep {
                requested,
                available,
            } => {
                write!(
                    f,
                    "partition of {requested} units but pipeline has {available}"
                )
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Whether a predicate is a threshold filter on `out_col` (mergeable
/// into the preceding reduce's update table).
fn threshold_of(pred: &Pred, out_col: &str) -> Option<u64> {
    if let Pred::Cmp {
        lhs: Expr::Col(c),
        op: CmpOp::Gt,
        rhs: Expr::Lit(Value::U64(t)),
    } = pred
    {
        if c.as_ref() == out_col {
            return Some(*t);
        }
    }
    None
}

/// Decompose a pipeline into planner-grade table units.
pub fn table_specs(pipeline: &Pipeline) -> Vec<TableSpec> {
    let mut specs: Vec<TableSpec> = Vec::new();
    let mut schema = Schema::packet();
    let mut switch_ok_so_far = true;
    let mut i = 0;
    let ops = &pipeline.ops;
    while i < ops.len() {
        let op = &ops[i];
        let this_ok = switch_ok_so_far && operator_switch_ok(op, &schema);
        match op {
            Operator::Filter(_) | Operator::Map { .. } => {
                specs.push(TableSpec {
                    kind: op.kind(),
                    ops: i..i + 1,
                    stateful: false,
                    stage_cost: 1,
                    switch_ok: this_ok,
                    must_be_last: false,
                });
                schema = op.output_schema(&schema).unwrap_or(schema);
                i += 1;
            }
            Operator::Distinct => {
                specs.push(TableSpec {
                    kind: "distinct",
                    ops: i..i + 1,
                    stateful: true,
                    stage_cost: 2,
                    switch_ok: this_ok,
                    must_be_last: false,
                });
                i += 1;
            }
            Operator::Reduce { out, .. } => {
                // Absorb immediately following threshold filters.
                let mut end = i + 1;
                while let Some(Operator::Filter(p)) = ops.get(end) {
                    if threshold_of(p, out).is_some() {
                        end += 1;
                    } else {
                        break;
                    }
                }
                schema = op.output_schema(&schema).unwrap_or(schema);
                specs.push(TableSpec {
                    kind: "reduce",
                    ops: i..end,
                    stateful: true,
                    stage_cost: 2,
                    switch_ok: this_ok,
                    must_be_last: true,
                });
                i = end;
            }
        }
        if !this_ok {
            switch_ok_so_far = false;
        }
    }
    specs
}

/// The largest switch-executable partition: number of leading units
/// that can run on the switch (stopping after the first `reduce` unit,
/// which must be last).
pub fn max_switch_units(specs: &[TableSpec]) -> usize {
    let mut k = 0;
    for s in specs {
        if !s.switch_ok {
            break;
        }
        k += 1;
        if s.must_be_last {
            break;
        }
    }
    k
}

fn operator_switch_ok(op: &Operator, schema: &Schema) -> bool {
    if !op.switch_computable() {
        return false;
    }
    // Every referenced column that names a packet field must be
    // parseable in the data plane.
    let mut cols: Vec<ColName> = Vec::new();
    match op {
        Operator::Filter(p) => p.referenced_cols(&mut cols),
        Operator::Map { exprs } => {
            for (_, e) in exprs {
                e.referenced_cols(&mut cols);
            }
        }
        Operator::Reduce { keys, value, .. } => {
            cols.extend(keys.iter().cloned());
            cols.push(value.clone());
        }
        Operator::Distinct => cols.extend(schema.columns().iter().cloned()),
    }
    for c in cols {
        if let Some(f) = Field::ALL.iter().find(|f| f.name() == c.as_ref()) {
            if !f.switch_parseable() {
                return false;
            }
        }
    }
    true
}

/// How a column is materialized on the switch.
#[derive(Debug, Clone)]
enum Binding {
    /// Directly a parsed header field.
    Field(Field),
    /// A metadata container.
    Meta(MetaRef, u32),
}

impl Binding {
    fn expr(&self) -> PhvExpr {
        match self {
            Binding::Field(f) => PhvExpr::Field(*f),
            Binding::Meta(m, _) => PhvExpr::Meta(*m),
        }
    }

    fn bits(&self) -> u32 {
        match self {
            Binding::Field(f) => match f.width() {
                FieldWidth::Bits(b) => b,
                FieldWidth::Variable => 32,
            },
            Binding::Meta(_, b) => *b,
        }
    }
}

/// The result of compiling one pipeline prefix.
#[derive(Debug, Clone)]
pub struct CompiledPipeline {
    /// The loadable program fragment (one task).
    pub fragment: PisaProgram,
    /// The task id.
    pub task: TaskId,
    /// Units placed on the switch.
    pub units_on_switch: usize,
    /// Operator index where the stream processor resumes for
    /// per-packet reports (and for window-dump tuples).
    pub sp_resume_op: usize,
    /// Shunt entry points: one per stateful unit on the switch —
    /// `(operator index, input columns)`.
    pub shunt_entries: Vec<(usize, Vec<ColName>)>,
    /// Whether per-packet reports carry the original packet (partition
    /// sits before the first `map`, so the tuple is the packet itself).
    pub report_packet: bool,
    /// Columns of per-packet or dump report tuples.
    pub report_columns: Vec<ColName>,
}

/// Fixed per-task metadata overhead: qid tag, report bit, liveness.
pub const TASK_META_OVERHEAD_BITS: u32 = 16;

/// Compile the first `stages.len()` table units of `pipeline` for the
/// switch.
///
/// * `stages` — the physical stage of each unit's *first* table;
///   stateful units occupy `stage` and `stage + 1`. Must be strictly
///   increasing between units.
/// * `sizings` — one register sizing per stateful unit on the switch.
/// * `meta_base` / `reg_base` — global allocation bases so fragments
///   from different tasks never collide.
pub fn compile_pipeline(
    pipeline: &Pipeline,
    task: TaskId,
    stages: &[usize],
    sizings: &[RegisterSizing],
    meta_base: usize,
    reg_base: u32,
) -> Result<CompiledPipeline, CompileError> {
    let specs = table_specs(pipeline);
    let k = stages.len();
    if k > specs.len() {
        return Err(CompileError::PartitionTooDeep {
            requested: k,
            available: specs.len(),
        });
    }
    // Validate executability and the reduce-last rule.
    for (u, spec) in specs.iter().take(k).enumerate() {
        if !spec.switch_ok {
            return Err(CompileError::NotSwitchExecutable {
                op: spec.ops.start,
                reason: format!("{} unit not supported in the data plane", spec.kind),
            });
        }
        if spec.must_be_last && u + 1 < k {
            return Err(CompileError::ReduceNotLast { op: spec.ops.start });
        }
    }
    let stateful_count = specs.iter().take(k).filter(|s| s.stateful).count();
    if sizings.len() != stateful_count {
        return Err(CompileError::SizingArity {
            stateful: stateful_count,
            sizings: sizings.len(),
        });
    }

    let mut fragment = PisaProgram {
        tasks: vec![task],
        ..Default::default()
    };
    let mut meta_next = meta_base;
    let mut reg_next = reg_base;
    let mut meta_fields: Vec<MetaField> = Vec::new();
    let mut sizing_iter = sizings.iter();

    // Current schema and column bindings.
    let mut schema = Schema::packet();
    let mut binding: HashMap<ColName, Binding> = Schema::packet()
        .columns()
        .iter()
        .map(|c| {
            let f = Field::ALL
                .iter()
                .find(|f| f.name() == c.as_ref())
                .expect("packet schema col is a field");
            (c.clone(), Binding::Field(*f))
        })
        .collect();

    let mut alloc_meta = |name: &str, bits: u32, fields: &mut Vec<MetaField>| -> MetaRef {
        let slot = MetaRef(meta_next);
        meta_next += 1;
        fields.push(MetaField {
            slot,
            name: name.to_string(),
            bits,
        });
        slot
    };

    let compile_expr = |e: &Expr,
                        binding: &HashMap<ColName, Binding>|
     -> Result<PhvExpr, CompileError> { compile_expr_rec(e, binding) };

    let mut shunt_specs: Vec<ShuntSpec> = Vec::new();
    let mut shunt_entries: Vec<(usize, Vec<ColName>)> = Vec::new();
    let mut dump_mode: Option<ReportMode> = None;
    let mut sp_resume_op = 0usize;

    for (u, spec) in specs.iter().take(k).enumerate() {
        let stage = stages[u];
        let op = &pipeline.ops[spec.ops.start];
        sp_resume_op = spec.ops.end;
        let tname = |suffix: &str| format!("{task}_t{u}_{suffix}");
        match op {
            Operator::Filter(pred) => {
                if let Pred::InSet { expr, set } = pred {
                    let key = compile_expr(expr, &binding)?;
                    let entries: BTreeSet<u64> = set.iter().filter_map(|v| v.as_u64()).collect();
                    fragment.tables.push(Table {
                        name: tname("dynfilter"),
                        task,
                        stage,
                        kind: TableKind::DynFilter {
                            key,
                            entries,
                            pass_when_empty: false,
                        },
                    });
                } else {
                    let rules = compile_pred(pred, &binding)?;
                    fragment.tables.push(Table {
                        name: tname("filter"),
                        task,
                        stage,
                        kind: TableKind::Filter { rules },
                    });
                }
            }
            Operator::Map { exprs } => {
                let mut assigns = Vec::new();
                let mut new_binding = HashMap::new();
                for (name, e) in exprs {
                    let compiled = compile_expr(e, &binding)?;
                    let bits = expr_bits(e, &binding);
                    let slot = alloc_meta(name, bits, &mut meta_fields);
                    assigns.push((slot, compiled));
                    new_binding.insert(name.clone(), Binding::Meta(slot, bits));
                }
                fragment.tables.push(Table {
                    name: tname("map"),
                    task,
                    stage,
                    kind: TableKind::Map { assigns },
                });
                binding = new_binding;
                schema = op
                    .output_schema(&schema)
                    .map_err(|c| CompileError::UnknownColumn { column: c })?;
                continue; // schema already advanced
            }
            Operator::Distinct => {
                let sizing = sizing_iter.next().expect("arity checked");
                let key_cols: Vec<ColName> = schema.columns().to_vec();
                let key_exprs: Vec<PhvExpr> = key_cols
                    .iter()
                    .map(|c| {
                        binding
                            .get(c)
                            .map(|b| b.expr())
                            .ok_or_else(|| CompileError::UnknownColumn { column: c.clone() })
                    })
                    .collect::<Result<_, _>>()?;
                let key_bits: u32 = key_cols
                    .iter()
                    .map(|c| binding.get(c).map(|b| b.bits()).unwrap_or(32))
                    .sum();
                let reg = RegId(reg_next);
                reg_next += 1;
                fragment.registers.push(RegisterDecl {
                    id: reg,
                    task,
                    slots: sizing.slots,
                    arrays: sizing.arrays,
                    value_bits: 1,
                    key_bits,
                    stage: stage + 1,
                    layout: sizing.layout,
                    capacity: sizing.capacity,
                });
                fragment.tables.push(Table {
                    name: tname("hash"),
                    task,
                    stage,
                    kind: TableKind::Hash {
                        reg,
                        key: key_exprs.clone(),
                    },
                });
                fragment.tables.push(Table {
                    name: tname("distinct"),
                    task,
                    stage: stage + 1,
                    kind: TableKind::Update {
                        reg,
                        agg: Agg::BitOr,
                        operand: PhvExpr::Const(1),
                        distinct: true,
                        last_on_switch: u + 1 == k,
                        threshold: None,
                    },
                });
                let shunt_cols: Vec<(ColName, PhvExpr)> = key_cols
                    .iter()
                    .zip(&key_exprs)
                    .map(|(c, e)| (c.clone(), e.clone()))
                    .collect();
                shunt_specs.push(ShuntSpec {
                    reg,
                    entry_op: spec.ops.start,
                    columns: shunt_cols,
                });
                shunt_entries.push((spec.ops.start, key_cols));
            }
            Operator::Reduce {
                keys,
                agg,
                value,
                out,
            } => {
                let sizing = sizing_iter.next().expect("arity checked");
                let key_exprs: Vec<PhvExpr> = keys
                    .iter()
                    .map(|c| {
                        binding
                            .get(c)
                            .map(|b| b.expr())
                            .ok_or_else(|| CompileError::UnknownColumn { column: c.clone() })
                    })
                    .collect::<Result<_, _>>()?;
                let key_bits: u32 = keys
                    .iter()
                    .map(|c| binding.get(c).map(|b| b.bits()).unwrap_or(32))
                    .sum();
                let operand = binding.get(value).map(|b| b.expr()).ok_or_else(|| {
                    CompileError::UnknownColumn {
                        column: value.clone(),
                    }
                })?;
                // Merged threshold from the absorbed filter(s): use the
                // tightest (they are conjoined).
                let mut threshold: Option<u64> = None;
                for oi in spec.ops.start + 1..spec.ops.end {
                    if let Operator::Filter(p) = &pipeline.ops[oi] {
                        if let Some(t) = threshold_of(p, out) {
                            threshold = Some(threshold.map_or(t, |prev: u64| prev.max(t)));
                        }
                    }
                }
                let reg = RegId(reg_next);
                reg_next += 1;
                fragment.registers.push(RegisterDecl {
                    id: reg,
                    task,
                    slots: sizing.slots,
                    arrays: sizing.arrays,
                    value_bits: 32,
                    key_bits,
                    stage: stage + 1,
                    layout: sizing.layout,
                    capacity: sizing.capacity,
                });
                fragment.tables.push(Table {
                    name: tname("hash"),
                    task,
                    stage,
                    kind: TableKind::Hash {
                        reg,
                        key: key_exprs.clone(),
                    },
                });
                fragment.tables.push(Table {
                    name: tname("reduce"),
                    task,
                    stage: stage + 1,
                    kind: TableKind::Update {
                        reg,
                        agg: *agg,
                        operand,
                        distinct: false,
                        last_on_switch: true,
                        threshold,
                    },
                });
                let mut scols = keys.clone();
                if !scols.contains(value) {
                    scols.push(value.clone());
                }
                let shunt_cols: Vec<(ColName, PhvExpr)> = scols
                    .iter()
                    .map(|c| {
                        let e = binding
                            .get(c)
                            .map(|b| b.expr())
                            .unwrap_or(PhvExpr::Const(0));
                        (c.clone(), e)
                    })
                    .collect();
                shunt_specs.push(ShuntSpec {
                    reg,
                    entry_op: spec.ops.start,
                    columns: shunt_cols,
                });
                shunt_entries.push((spec.ops.start, scols));
                dump_mode = Some(ReportMode::WindowDump {
                    reg,
                    threshold,
                    key_names: keys.clone(),
                    value_name: out.clone(),
                    value_input_name: value.clone(),
                    reduce_op: spec.ops.start,
                });
            }
        }
        // Advance schema for non-map ops (map advanced above).
        for oi in spec.ops.clone() {
            schema = pipeline.ops[oi]
                .output_schema(&schema)
                .map_err(|c| CompileError::UnknownColumn { column: c })?;
        }
        // Reduce output binding (keys keep bindings; out column has no
        // per-packet binding — only the window dump carries it).
        if matches!(op, Operator::Reduce { .. }) {
            let keep: Vec<ColName> = schema.columns().to_vec();
            binding.retain(|c, _| keep.contains(c));
        }
    }

    // Report specification.
    let report_packet = schema.is_packet();
    let report_columns: Vec<ColName> = if report_packet {
        Vec::new()
    } else {
        schema.columns().to_vec()
    };
    let mode = dump_mode.unwrap_or(ReportMode::PerPacket);
    let columns: Vec<(ColName, PhvExpr)> = if matches!(mode, ReportMode::PerPacket) {
        report_columns
            .iter()
            .filter_map(|c| binding.get(c).map(|b| (c.clone(), b.expr())))
            .collect()
    } else {
        Vec::new()
    };
    fragment.reports.push(ReportSpec {
        task,
        mode,
        columns,
        shunts: shunt_specs,
        // Every field until a deploy knows what the whole plan reads.
        packet_mask: if report_packet { ALL_FIELDS } else { 0 },
    });
    fragment.meta_slots = meta_next;
    let mut fields = meta_fields;
    if k > 0 {
        // A task with no switch tables mirrors packets wholesale and
        // needs no PHV metadata; partitioned tasks pay a fixed tag
        // (qid, report bit, liveness) on top of their columns.
        fields.push(MetaField {
            slot: MetaRef(usize::MAX),
            name: "__task_overhead".into(),
            bits: TASK_META_OVERHEAD_BITS,
        });
    }
    fragment.meta_fields.push((task, fields));
    if k > 0 {
        fragment
            .parse_fields
            .extend(referenced_parse_fields(pipeline, k, &specs));
    } else {
        // All-SP: the switch parses nothing, mirrors everything.
    }
    fragment.parse_fields.sort();
    fragment.parse_fields.dedup();

    Ok(CompiledPipeline {
        fragment,
        task,
        units_on_switch: k,
        sp_resume_op,
        shunt_entries,
        report_packet,
        report_columns,
    })
}

fn compile_expr_rec(
    e: &Expr,
    binding: &HashMap<ColName, Binding>,
) -> Result<PhvExpr, CompileError> {
    Ok(match e {
        Expr::Col(c) => binding
            .get(c)
            .map(|b| b.expr())
            .ok_or_else(|| CompileError::UnknownColumn { column: c.clone() })?,
        Expr::Lit(v) => {
            PhvExpr::Const(
                v.as_u64()
                    .ok_or_else(|| CompileError::NotSwitchExecutable {
                        op: 0,
                        reason: "non-scalar literal".into(),
                    })?,
            )
        }
        Expr::Mask(inner, l) => PhvExpr::Mask(Box::new(compile_expr_rec(inner, binding)?), *l),
        Expr::Add(a, b) => PhvExpr::Add(
            Box::new(compile_expr_rec(a, binding)?),
            Box::new(compile_expr_rec(b, binding)?),
        ),
        Expr::Sub(a, b) => PhvExpr::Sub(
            Box::new(compile_expr_rec(a, binding)?),
            Box::new(compile_expr_rec(b, binding)?),
        ),
        Expr::Mul(a, b) => match &**b {
            Expr::Lit(Value::U64(n)) if n.is_power_of_two() => {
                PhvExpr::Shl(Box::new(compile_expr_rec(a, binding)?), n.trailing_zeros())
            }
            _ => {
                return Err(CompileError::NotSwitchExecutable {
                    op: 0,
                    reason: "multiplication only by power-of-two literals".into(),
                })
            }
        },
        Expr::Div(a, b) => match &**b {
            Expr::Lit(Value::U64(n)) if *n > 0 && n.is_power_of_two() => {
                PhvExpr::Shr(Box::new(compile_expr_rec(a, binding)?), n.trailing_zeros())
            }
            _ => {
                return Err(CompileError::NotSwitchExecutable {
                    op: 0,
                    reason: "division only by power-of-two literals".into(),
                })
            }
        },
    })
}

/// Compile a predicate into disjunctive rule rows.
fn compile_pred(
    pred: &Pred,
    binding: &HashMap<ColName, Binding>,
) -> Result<Vec<MatchSpec>, CompileError> {
    match pred {
        Pred::Cmp { lhs, op, rhs } => Ok(vec![MatchSpec {
            clauses: vec![(
                compile_expr_rec(lhs, binding)?,
                *op,
                compile_expr_rec(rhs, binding)?,
            )],
        }]),
        Pred::And(ps) => {
            // Conjunction of clause lists: cross-product of rule rows.
            let mut rows = vec![MatchSpec::default()];
            for p in ps {
                let sub = compile_pred(p, binding)?;
                let mut next = Vec::new();
                for row in &rows {
                    for s in &sub {
                        let mut merged = row.clone();
                        merged.clauses.extend(s.clauses.clone());
                        next.push(merged);
                    }
                }
                rows = next;
            }
            Ok(rows)
        }
        Pred::Or(ps) => {
            let mut rows = Vec::new();
            for p in ps {
                rows.extend(compile_pred(p, binding)?);
            }
            Ok(rows)
        }
        Pred::Not(_) => Err(CompileError::NotSwitchExecutable {
            op: 0,
            reason: "negation requires rule-set complementation (unsupported)".into(),
        }),
        Pred::Contains { .. } => Err(CompileError::NotSwitchExecutable {
            op: 0,
            reason: "payload search cannot run in the data plane".into(),
        }),
        Pred::InSet { .. } => Err(CompileError::NotSwitchExecutable {
            op: 0,
            reason: "set membership compiles to a dynamic filter table, not a static rule".into(),
        }),
    }
}

/// Declared bit width of an expression's result: an upper bound on
/// the bits any value it evaluates to occupies (a register stores a key
/// part at this width). A literal is at least 32 bits, a sum carries
/// one bit, a product the sum of its operands', all capped at 64.
fn expr_bits(e: &Expr, binding: &HashMap<ColName, Binding>) -> u32 {
    let bits = |e| expr_bits(e, binding);
    match e {
        Expr::Col(c) => binding.get(c).map(|b| b.bits()).unwrap_or(32),
        Expr::Lit(v) => v.as_u64().map_or(32, |n| (64 - n.leading_zeros()).max(32)),
        Expr::Mask(inner, _) => bits(inner),
        Expr::Add(a, b) => (bits(a).max(bits(b)) + 1).min(64),
        Expr::Mul(a, b) => (bits(a) + bits(b)).min(64),
        Expr::Sub(a, b) | Expr::Div(a, b) => bits(a).max(bits(b)),
    }
}

/// Packet fields the parser must extract for the first `k` units.
fn referenced_parse_fields(pipeline: &Pipeline, k: usize, specs: &[TableSpec]) -> Vec<Field> {
    let end_op = specs[k - 1].ops.end;
    let mut cols: Vec<ColName> = Vec::new();
    let mut schema = Schema::packet();
    for op in pipeline.ops.iter().take(end_op) {
        if schema.is_packet() {
            match op {
                Operator::Filter(p) => p.referenced_cols(&mut cols),
                Operator::Map { exprs } => {
                    for (_, e) in exprs {
                        e.referenced_cols(&mut cols);
                    }
                }
                Operator::Reduce { keys, value, .. } => {
                    cols.extend(keys.iter().cloned());
                    cols.push(value.clone());
                }
                Operator::Distinct => {}
            }
        }
        schema = op.output_schema(&schema).unwrap_or(schema);
    }
    cols.iter()
        .filter_map(|c| Field::ALL.iter().find(|f| f.name() == c.as_ref()))
        .filter(|f| f.switch_parseable())
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sonata_query::catalog::{self, Thresholds};
    use sonata_query::QueryId;

    fn task() -> TaskId {
        TaskId {
            query: QueryId(1),
            level: 32,
            branch: 0,
        }
    }

    #[test]
    fn query1_decomposes_into_three_units() {
        let q = catalog::newly_opened_tcp_conns(&Thresholds::default());
        let specs = table_specs(&q.pipeline);
        // filter, map, reduce(+merged threshold filter)
        assert_eq!(specs.len(), 3);
        assert_eq!(specs[0].kind, "filter");
        assert_eq!(specs[1].kind, "map");
        assert_eq!(specs[2].kind, "reduce");
        assert!(specs[2].stateful && specs[2].must_be_last);
        assert_eq!(specs[2].ops, 2..4); // reduce + merged filter
        assert!(specs.iter().all(|s| s.switch_ok));
        assert_eq!(max_switch_units(&specs), 3);
    }

    #[test]
    fn zorro_left_branch_stops_at_payload() {
        let q = catalog::zorro(&Thresholds::default());
        // Left pipeline: just the telnet filter (payload ops are post-join).
        let specs = table_specs(&q.pipeline);
        assert_eq!(specs.len(), 1);
        assert!(specs[0].switch_ok);
        // Post-join pipeline starts with the payload filter: not switch-ok.
        let post = &q.join.as_ref().unwrap().post;
        let post_specs = table_specs(post);
        assert!(!post_specs[0].switch_ok);
        assert_eq!(max_switch_units(&post_specs), 0);
    }

    #[test]
    fn declared_widths_bound_arithmetic() {
        use sonata_query::{col, lit};
        let binding: HashMap<ColName, Binding> = [
            ("sIP", Field::Ipv4Src),
            ("dIP", Field::Ipv4Dst),
            ("len", Field::PktLen),
        ]
        .into_iter()
        .map(|(c, f)| (ColName::from(c), Binding::Field(f)))
        .collect();
        // A sum of two 32-bit fields needs 33 bits, a 16 × 32-bit
        // product 48, a literal its bit length (at least 32).
        assert_eq!(expr_bits(&col("sIP").add(col("dIP")), &binding), 33);
        assert_eq!(expr_bits(&col("len").mul(col("sIP")), &binding), 48);
        assert_eq!(expr_bits(&lit(1u64 << 40), &binding), 41);
        assert_eq!(expr_bits(&lit(7), &binding), 32);
        assert_eq!(expr_bits(&col("sIP").mul(lit(u64::MAX)), &binding), 64);
    }

    #[test]
    fn dns_tunneling_map_not_switch_ok() {
        let q = catalog::dns_tunneling(&Thresholds::default());
        let specs = table_specs(&q.pipeline);
        // filter (ok), map with qname (not ok), ...
        assert!(specs[0].switch_ok);
        assert!(!specs[1].switch_ok);
        assert_eq!(max_switch_units(&specs), 1);
    }

    #[test]
    fn compile_full_query1() {
        let q = catalog::newly_opened_tcp_conns(&Thresholds::default());
        let cp = compile_pipeline(
            &q.pipeline,
            task(),
            &[0, 1, 2],
            &[RegisterSizing {
                slots: 1024,
                arrays: 2,
                ..Default::default()
            }],
            0,
            0,
        )
        .unwrap();
        // filter, map, hash, reduce = 4 tables; 1 register.
        assert_eq!(cp.fragment.tables.len(), 4);
        assert_eq!(cp.fragment.registers.len(), 1);
        let reg = &cp.fragment.registers[0];
        assert_eq!(reg.key_bits, 32); // dIP
        assert_eq!(reg.value_bits, 32);
        // Reduce update carries the merged threshold.
        let update = cp
            .fragment
            .tables
            .iter()
            .find(|t| matches!(t.kind, TableKind::Update { .. }))
            .unwrap();
        match &update.kind {
            TableKind::Update { threshold, agg, .. } => {
                assert_eq!(*threshold, Some(Thresholds::default().new_tcp));
                assert_eq!(*agg, Agg::Sum);
            }
            _ => unreachable!(),
        }
        assert_eq!(cp.sp_resume_op, 4);
        assert_eq!(
            cp.shunt_entries,
            vec![(2, vec![ColName::from("dIP"), ColName::from("count")])]
        );
        assert!(!cp.report_packet);
        assert_eq!(cp.report_columns.len(), 2); // (dIP, count)
                                                // Window-dump report mode.
        assert!(matches!(
            cp.fragment.reports[0].mode,
            ReportMode::WindowDump {
                threshold: Some(_),
                ..
            }
        ));
        // Parser extracts only flags and dIP.
        assert_eq!(cp.fragment.tables[0].stage, 0);
        assert!(cp.fragment.parse_fields.contains(&Field::TcpFlags));
        assert!(cp.fragment.parse_fields.contains(&Field::Ipv4Dst));
        assert_eq!(cp.fragment.parse_fields.len(), 2);
    }

    #[test]
    fn compile_partial_query1_filter_only() {
        let q = catalog::newly_opened_tcp_conns(&Thresholds::default());
        let cp = compile_pipeline(&q.pipeline, task(), &[0], &[], 0, 0).unwrap();
        assert_eq!(cp.fragment.tables.len(), 1);
        assert!(cp.fragment.registers.is_empty());
        assert_eq!(cp.sp_resume_op, 1);
        assert!(cp.report_packet); // schema still packets
        assert!(cp.shunt_entries.is_empty());
        assert!(matches!(cp.fragment.reports[0].mode, ReportMode::PerPacket));
    }

    #[test]
    fn compile_zero_units_is_all_sp() {
        let q = catalog::newly_opened_tcp_conns(&Thresholds::default());
        let cp = compile_pipeline(&q.pipeline, task(), &[], &[], 0, 0).unwrap();
        assert!(cp.fragment.tables.is_empty());
        assert_eq!(cp.sp_resume_op, 0);
        assert!(cp.report_packet);
    }

    #[test]
    fn compile_rejects_payload_ops() {
        let q = catalog::zorro(&Thresholds::default());
        let post = &q.join.as_ref().unwrap().post;
        let err = compile_pipeline(post, task(), &[0], &[], 0, 0).unwrap_err();
        assert!(matches!(err, CompileError::NotSwitchExecutable { .. }));
    }

    #[test]
    fn arity_mismatches_rejected() {
        let q = catalog::newly_opened_tcp_conns(&Thresholds::default());
        // Missing register sizing for the reduce.
        assert!(matches!(
            compile_pipeline(&q.pipeline, task(), &[0, 1, 2], &[], 0, 0),
            Err(CompileError::SizingArity { .. })
        ));
        // More stages than units.
        assert!(matches!(
            compile_pipeline(
                &q.pipeline,
                task(),
                &[0, 1, 2, 3],
                &[RegisterSizing::default()],
                0,
                0
            ),
            Err(CompileError::PartitionTooDeep { .. })
        ));
    }

    #[test]
    fn distinct_mid_pipeline_compiles() {
        let q = catalog::superspreader(&Thresholds::default());
        let specs = table_specs(&q.pipeline);
        // map, distinct, map, reduce
        assert_eq!(specs.len(), 4);
        assert_eq!(specs[1].kind, "distinct");
        assert!(!specs[1].must_be_last);
        let cp = compile_pipeline(
            &q.pipeline,
            task(),
            &[0, 1, 3, 4],
            &[RegisterSizing::default(), RegisterSizing::default()],
            0,
            0,
        )
        .unwrap();
        // map, hash, distinct-update, map, hash, reduce-update
        assert_eq!(cp.fragment.tables.len(), 6);
        assert_eq!(cp.fragment.registers.len(), 2);
        // Distinct register is 1-bit valued, keyed by (sIP, dIP) = 64 bits.
        let dreg = &cp.fragment.registers[0];
        assert_eq!(dreg.value_bits, 1);
        assert_eq!(dreg.key_bits, 64);
    }

    #[test]
    fn refinement_inset_becomes_dynfilter() {
        use sonata_query::expr::{col, field};
        let q = sonata_query::Query::builder("refined", 9)
            .filter(Pred::in_set(
                field(Field::Ipv4Dst).mask(8),
                std::collections::BTreeSet::new(),
            ))
            .filter(field(Field::TcpFlags).eq(sonata_query::expr::lit(2)))
            .map([("dIP", field(Field::Ipv4Dst).mask(16))])
            .distinct()
            .map([("dIP", col("dIP")), ("c", sonata_query::expr::lit(1))])
            .reduce(&["dIP"], Agg::Sum, "c")
            .build()
            .unwrap();
        let cp = compile_pipeline(
            &q.pipeline,
            task(),
            &[0, 1, 2, 3, 5, 6],
            &[RegisterSizing::default(), RegisterSizing::default()],
            0,
            0,
        )
        .unwrap();
        assert!(matches!(
            cp.fragment.tables[0].kind,
            TableKind::DynFilter { .. }
        ));
        // Map with a /16 mask compiled to a Mask expression.
        match &cp.fragment.tables[2].kind {
            TableKind::Map { assigns } => {
                assert!(matches!(assigns[0].1, PhvExpr::Mask(_, 16)));
            }
            other => panic!("expected map, got {other:?}"),
        }
    }

    #[test]
    fn stage_increments_respected_for_stateful() {
        let q = catalog::newly_opened_tcp_conns(&Thresholds::default());
        let cp = compile_pipeline(
            &q.pipeline,
            task(),
            &[2, 5, 9],
            &[RegisterSizing {
                slots: 16,
                arrays: 1,
                ..Default::default()
            }],
            0,
            0,
        )
        .unwrap();
        let stages: Vec<usize> = cp.fragment.tables.iter().map(|t| t.stage).collect();
        assert_eq!(stages, vec![2, 5, 9, 10]); // hash at 9, update at 10
        assert_eq!(cp.fragment.registers[0].stage, 10);
    }

    #[test]
    fn metadata_accounting_includes_overhead() {
        let q = catalog::newly_opened_tcp_conns(&Thresholds::default());
        let cp = compile_pipeline(
            &q.pipeline,
            task(),
            &[0, 1, 2],
            &[RegisterSizing::default()],
            0,
            0,
        )
        .unwrap();
        let bits: u32 = cp.fragment.meta_fields[0].1.iter().map(|f| f.bits).sum();
        // dIP (32) + count (32) + overhead (16)
        assert_eq!(bits, 80);
    }
}
