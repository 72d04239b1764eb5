//! Compile-once / execute-many switch execution.
//!
//! [`crate::switch::Switch::load`] lowers the validated
//! [`PisaProgram`] once, into the **task-major batch plan** that
//! [`crate::switch::Switch::process_batch`] executes: one
//! [`TaskKernel`] per task over a shared column block (see
//! [`GatePlan`]), with
//!
//! * header fields resolved to columns of the block, and metadata
//!   forwarded to the field expressions that define it, so kernels
//!   carry no per-packet metadata;
//! * registers remapped from `HashMap<RegId, _>` to a dense array
//!   index shared with the reference interpreter;
//! * shunt specs and report layouts resolved at load time instead of
//!   searched per packet;
//! * every [`PhvExpr`] tree flattened into a postfix op range of one
//!   shared pool, evaluated with an explicit value stack — no
//!   recursion and no allocation per packet;
//! * report column names interned as one `Arc<[ColName]>` per report
//!   layout, so a batch states them once per block and never per cell.
//!
//! # Why task-major execution is sound
//!
//! The reference interpreter walks every table of every task for
//! packet `i` before touching packet `i + 1`; the batch kernels run
//! *all* packets through task 0, then all through task 1, and so on.
//! The two orders are indistinguishable because tasks are independent:
//!
//! * a step reads header fields (immutable), its own task's liveness
//!   bit, its own task's metadata, and its own task's registers —
//!   [`ExecPlan::lower`] asserts that no register and no written
//!   metadata slot is touched by two tasks;
//! * within one task the kernels still visit packets in arrival
//!   order, so every register sees the exact key sequence the oracle
//!   feeds it. Which packet is a `distinct` key's first touch, which
//!   key wins a contended slot and which later keys shunt are
//!   functions of that per-register sequence alone — the relative
//!   order of *different* tasks' updates never enters;
//! * metadata is a pure function of the packet (only `Map` steps
//!   write it, from fields, constants and earlier metadata — a
//!   register never writes back), so lowering forwards every metadata
//!   read to the field expression that defines it and the kernels
//!   carry no per-packet metadata at all;
//! * a task emits at most one report per packet (a shunt kills it
//!   before its mirror), so a task's `seq` numbers follow packet
//!   order. Kernels do not produce reports in that order — all of one
//!   `Update`'s shunts come before the next step's — so a task notes
//!   its shunts, and once its kernel is done merges them with its
//!   survivors by packet and numbers its reports in that order
//!   ([`crate::batch::ReportBatch`]). Which tasks' reports one packet
//!   produced, and in what order — its shunts by the shunting table's
//!   rank, then its mirrors by report-spec index — is recorded per
//!   layout ([`crate::batch::BlockShape::rank`]), not by emitting
//!   packet by packet.
//!
//! The tree-walking interpreter in `Switch` remains the reference
//! oracle: `Switch::process_reference` runs one packet through it, and
//! the differential suites assert bit-identical outputs.

use crate::batch::BlockShape;
use crate::ir::{PhvExpr, PisaProgram, RegId, ReportMode, Table, TableKind, TaskId};
use crate::phv::FIELD_SLOTS;
use crate::registers::StateLayout;
use crate::switch::ReportKind;
use sonata_packet::Field;
use sonata_query::expr::CmpOp;
use sonata_query::{Agg, ColName};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// One postfix micro-op of a flattened [`PhvExpr`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum FlatOp {
    /// Push a constant.
    Const(u64),
    /// Push a header field, by column of the batch block.
    Field(usize),
    /// Apply a precomputed 32-bit prefix mask to the top of stack.
    Mask(u32),
    /// Shift the top of stack right by a pre-clamped amount.
    Shr(u32),
    /// Shift the top of stack left by a pre-clamped amount.
    Shl(u32),
    /// Pop two, push the wrapping sum.
    Add,
    /// Pop two, push the saturating difference.
    Sub,
}

/// A range into the shared [`ExecPlan`] op pool.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExprRef {
    start: u32,
    len: u32,
}

/// Packet `i` of an `n`-packet column block (`cols[c * n + i]` is
/// column `c`): what a compiled expression reads its leaves from.
#[derive(Clone, Copy)]
pub(crate) struct Lane<'a> {
    pub cols: &'a [u64],
    pub n: usize,
    pub i: usize,
}

impl Lane<'_> {
    #[inline]
    fn field(&self, col: usize) -> u64 {
        self.cols[col * self.n + self.i]
    }
}

/// One lowered filter clause: `a rel b`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlatClause {
    pub a: ExprRef,
    pub rel: CmpOp,
    pub b: ExprRef,
}

/// A lowered report layout — a task's per-packet mirror, or the shunt
/// of one `Update` step: what its reports share, and `exprs[j]`
/// evaluating column `shape.names[j]`.
#[derive(Debug, Clone)]
pub(crate) struct FlatReport {
    pub shape: BlockShape,
    pub exprs: Vec<ExprRef>,
}

/// The action of one lowered table. (A `Map` lowers to nothing: its
/// assignments are forwarded into the expressions that read them.)
#[derive(Debug, Clone)]
pub(crate) enum StepKind {
    /// Static filter: kill the task unless some rule matches.
    Filter { rules: Vec<Vec<FlatClause>> },
    /// Dynamic filter against the switch's lowered entry set
    /// `dyn_idx` ([`DynSet`]), which `set_dyn_filter` rebuilds so
    /// control-plane updates between batches are observed.
    DynFilter { dyn_idx: usize, key: ExprRef },
    /// Stateful read-modify-write against a dense register index.
    Update {
        reg_idx: usize,
        /// The register's resolved layout. Sketch layouts admit every
        /// key (no shunting), so their shunt spec is dead weight the
        /// kernels never evaluate.
        layout: StateLayout,
        agg: Agg,
        operand: ExprRef,
        distinct: bool,
        /// Register key parts (from the preceding Hash table),
        /// resolved at lowering instead of looked up per packet.
        keys: Vec<ExprRef>,
        shunt: FlatReport,
    },
}

/// A lowered window-dump spec.
#[derive(Debug, Clone)]
pub(crate) struct FlatDump {
    pub task: TaskId,
    pub task_idx: Option<usize>,
    pub reg_idx: usize,
    pub threshold: Option<u64>,
    /// Column names of a finalized dump row (keys, then the reduce's
    /// output) and of a raw one (keys, then its *input* value column),
    /// each bound once here and shared by every block the spec dumps.
    pub final_names: Arc<[ColName]>,
    pub raw_names: Arc<[ColName]>,
    pub reduce_op: usize,
    /// Dense indices of every shunt-capable register of the task (the
    /// raw-dump decision sums their shunt counts).
    pub shunt_reg_idxs: Vec<usize>,
    /// The task's earliest upstream `distinct` register, if any:
    /// `(reg_idx, entry_op, key names)`. In deferred-threshold mode
    /// the admitted-key set of this register is dumped raw (entering
    /// at the distinct op) *instead of* the reduce partials, so a
    /// collector merging several switches can dedup keys across
    /// switches before recounting.
    pub distinct: Option<(usize, usize, Arc<[ColName]>)>,
}

/// The lowered entry set of one `DynFilter` table: the IR keeps a
/// `BTreeSet` (what the control plane writes and `program()` clones
/// carry); the data path probes this sorted copy, rebuilt whenever
/// the table is written.
#[derive(Debug, Clone, Default)]
pub(crate) struct DynSet {
    sorted: Vec<u64>,
    pass_when_empty: bool,
}

impl DynSet {
    pub(crate) fn new(entries: &BTreeSet<u64>, pass_when_empty: bool) -> Self {
        DynSet {
            sorted: entries.iter().copied().collect(),
            pass_when_empty,
        }
    }

    /// Whether a task whose key evaluates to `k` survives the filter.
    #[inline]
    pub(crate) fn admits(&self, k: u64) -> bool {
        if self.sorted.is_empty() {
            self.pass_when_empty
        } else {
            self.sorted.binary_search(&k).is_ok()
        }
    }
}

/// One leading filter of a task, as indices into the shared
/// predicate cache of the [`GatePlan`].
#[derive(Debug, Clone)]
pub(crate) enum LeadFilter {
    /// Pass iff some rule has all of its (cached) clauses true.
    Static { rules: Vec<Vec<usize>> },
    /// Pass iff dyn table `dyn_idx` admits cached key column `key`.
    Dyn { dyn_idx: usize, key: usize },
}

/// One task's batch program. `lead` filters run before any state is
/// touched, so they evaluate once per *distinct* predicate for the
/// whole batch; `steps` then run as loops over the task's surviving
/// lanes. All expressions are metadata-free and index columns.
#[derive(Debug, Clone)]
pub(crate) struct TaskKernel {
    pub task_idx: usize,
    pub lead: Vec<LeadFilter>,
    /// `Filter`/`DynFilter`/`Update` steps that follow the task's
    /// first `Update`, plus that `Update`.
    pub steps: Vec<StepKind>,
    /// The per-packet report of the task's survivors, if it has one.
    pub mirror: Option<FlatReport>,
}

/// The compiled program: everything the batch kernels need,
/// pre-resolved.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExecPlan {
    /// Shared postfix op pool all [`ExprRef`]s point into.
    flat: Vec<FlatOp>,
    /// Window-dump specs in program order.
    pub dumps: Vec<FlatDump>,
    /// `program.tables` index of each `DynFilter`, dense (`dyn_idx`).
    pub dyn_tables: Vec<usize>,
    /// Column layout and shared leading-predicate cache of the batch
    /// path.
    pub gates: GatePlan,
    /// One batch program per task, in dense task order.
    pub kernels: Vec<TaskKernel>,
}

/// What the batch path shares between tasks: one column per header
/// field any kernel reads, and every *distinct* leading predicate
/// evaluated once per batch however many tasks filter on it.
#[derive(Debug, Clone, Default)]
pub(crate) struct GatePlan {
    /// Header field of each column of the block.
    pub fields: Vec<Field>,
    /// Column of each field, indexed by `Field as usize` (only read
    /// for fields in `parse_mask`).
    pub col_of: [u8; FIELD_SLOTS],
    /// [`crate::parser::field_mask`] of every field in `fields`: the
    /// one parse walk of a batch extracts all of them for every packet.
    pub parse_mask: u32,
    /// Distinct leading static clauses (the predicate cache's keys).
    pub clauses: Vec<FlatClause>,
    /// Distinct leading dyn-filter key expressions.
    pub dyn_keys: Vec<ExprRef>,
}

impl GatePlan {
    /// Column of `f`, allocated on first use.
    fn col(&mut self, f: Field) -> usize {
        self.fields.iter().position(|x| *x == f).unwrap_or_else(|| {
            self.fields.push(f);
            self.fields.len() - 1
        })
    }
}

/// Metadata forwarding state of one task during lowering: what each
/// metadata slot currently holds, as a metadata-free tree.
type MetaEnv = HashMap<usize, PhvExpr>;

/// Program-wide lookups and the independence bookkeeping of one
/// [`ExecPlan::lower`] run.
struct Lowering<'a> {
    program: &'a PisaProgram,
    reg_index: &'a HashMap<RegId, usize>,
    reg_layouts: &'a [StateLayout],
    reg_keys: HashMap<RegId, &'a Vec<PhvExpr>>,
    /// Which task writes each metadata slot.
    meta_writer: HashMap<usize, TaskId>,
}

impl Lowering<'_> {
    fn forward<'e>(&'e self, task: TaskId, env: &'e MetaEnv) -> MetaFwd<'e> {
        MetaFwd {
            task,
            env,
            writer: &self.meta_writer,
            parse_fields: &self.program.parse_fields,
        }
    }
}

impl ExecPlan {
    /// Lower `program` given its execution order and the dense
    /// register index (`RegId` → index into the switch's register
    /// vector).
    ///
    /// # Panics
    ///
    /// If two tasks touch the same register, or one task touches a
    /// metadata slot another task writes: task-major batch execution
    /// (see the module docs) is only sound when tasks are independent,
    /// and the compiler gives every task its own slots and registers.
    pub(crate) fn lower(
        program: &PisaProgram,
        exec_order: &[usize],
        reg_index: &HashMap<RegId, usize>,
        reg_layouts: &[StateLayout],
    ) -> ExecPlan {
        let mut plan = ExecPlan::default();
        let task_index =
            |t: TaskId| -> Option<usize> { program.tasks.iter().position(|x| *x == t) };
        let mut cx = Lowering {
            program,
            reg_index,
            reg_layouts,
            reg_keys: HashMap::new(),
            meta_writer: HashMap::new(),
        };
        let mut reg_owner: HashMap<usize, TaskId> = HashMap::new();
        for t in &program.tables {
            match &t.kind {
                // Hash-table key expressions, resolved once (the
                // reference path re-looks these up per packet).
                TableKind::Hash { reg, key } => {
                    cx.reg_keys.insert(*reg, key);
                }
                TableKind::Map { assigns } => {
                    for (slot, _) in assigns {
                        let owner = *cx.meta_writer.entry(slot.0).or_insert(t.task);
                        assert!(
                            owner == t.task,
                            "tasks {owner} and {} both write metadata slot m{}",
                            t.task,
                            slot.0
                        );
                    }
                }
                TableKind::Update { reg, .. } => {
                    let owner = *reg_owner.entry(reg_index[reg]).or_insert(t.task);
                    assert!(
                        owner == t.task,
                        "tasks {owner} and {} both update register r{}",
                        t.task,
                        reg.0
                    );
                }
                _ => {}
            }
        }
        plan.kernels = program
            .tasks
            .iter()
            .enumerate()
            .map(|(task_idx, _)| TaskKernel {
                task_idx,
                lead: Vec::new(),
                steps: Vec::new(),
                mirror: None,
            })
            .collect();
        // Per-task lowering state: what each metadata slot holds, and
        // whether the task is still in its stateless prefix.
        let mut envs: Vec<MetaEnv> = vec![MetaEnv::new(); program.tasks.len()];
        let mut leading = vec![true; program.tasks.len()];
        // Shunt-order rank of the next step: one per non-`Hash` table,
        // in execution order.
        let mut next_rank = 0u32;
        for &ti in exec_order {
            let table = &program.tables[ti];
            let Some(task_idx) = task_index(table.task) else {
                continue;
            };
            if matches!(table.kind, TableKind::Hash { .. }) {
                // Its keys fold into the `Update` that follows.
                continue;
            }
            let rank = next_rank;
            next_rank += 1;
            let fwd = cx.forward(table.task, &envs[task_idx]);
            if let TableKind::Map { assigns } = &table.kind {
                // Parallel ALU: every source reads the old state.
                let vals: Vec<_> = assigns.iter().map(|(s, e)| (s.0, fwd.expr(e))).collect();
                envs[task_idx].extend(vals);
                continue;
            }
            if matches!(table.kind, TableKind::DynFilter { .. }) {
                plan.dyn_tables.push(ti);
            }
            let step = plan.lower_table(&cx, table, rank, &fwd);
            leading[task_idx] &= !matches!(step, StepKind::Update { .. });
            let lead = match &step {
                StepKind::Filter { rules } if leading[task_idx] => LeadFilter::Static {
                    rules: rules
                        .iter()
                        .map(|cs| cs.iter().map(|c| plan.intern_clause(*c)).collect())
                        .collect(),
                },
                StepKind::DynFilter { dyn_idx, key } if leading[task_idx] => LeadFilter::Dyn {
                    dyn_idx: *dyn_idx,
                    key: plan.intern_key(*key),
                },
                _ => {
                    plan.kernels[task_idx].steps.push(step);
                    continue;
                }
            };
            plan.kernels[task_idx].lead.push(lead);
        }
        // Mirrors rank after every shunt, in report-spec order.
        for spec in &program.reports {
            match &spec.mode {
                ReportMode::PerPacket => {
                    let Some(task_idx) = task_index(spec.task) else {
                        continue;
                    };
                    let fwd = cx.forward(spec.task, &envs[task_idx]);
                    let mirror = plan.lower_report(spec, next_rank, &fwd);
                    plan.kernels[task_idx].mirror = Some(mirror);
                    next_rank += 1;
                }
                ReportMode::WindowDump {
                    reg,
                    threshold,
                    key_names,
                    value_name,
                    value_input_name,
                    reduce_op,
                } => {
                    plan.dumps.push(FlatDump {
                        task: spec.task,
                        task_idx: task_index(spec.task),
                        reg_idx: reg_index[reg],
                        threshold: *threshold,
                        final_names: key_names.iter().chain([value_name]).cloned().collect(),
                        raw_names: (key_names.iter().chain([value_input_name]).cloned()).collect(),
                        reduce_op: *reduce_op,
                        shunt_reg_idxs: spec
                            .shunts
                            .iter()
                            .filter_map(|sh| reg_index.get(&sh.reg).copied())
                            .collect(),
                        distinct: spec
                            .shunts
                            .iter()
                            .filter(|sh| sh.reg != *reg)
                            .min_by_key(|sh| sh.entry_op)
                            .and_then(|sh| {
                                reg_index.get(&sh.reg).map(|&idx| {
                                    (
                                        idx,
                                        sh.entry_op,
                                        sh.columns.iter().map(|(n, _)| n.clone()).collect(),
                                    )
                                })
                            }),
                    });
                }
            }
        }
        // One parse walk per packet extracts every column any kernel
        // reads.
        let g = &mut plan.gates;
        for (c, &f) in g.fields.iter().enumerate() {
            g.col_of[f as usize] = c as u8;
            g.parse_mask |= 1 << f as u32;
        }
        plan
    }

    /// Lower a `Filter`, `DynFilter` or `Update` table to a step, every
    /// expression forwarded through `fwd`.
    fn lower_table(
        &mut self,
        cx: &Lowering<'_>,
        table: &Table,
        rank: u32,
        fwd: &MetaFwd<'_>,
    ) -> StepKind {
        // `lower` registered a DynFilter table just before lowering it.
        let dyn_idx = self.dyn_tables.len().saturating_sub(1);
        let mut flat = |e: &PhvExpr| self.flatten(&fwd.expr(e));
        match &table.kind {
            TableKind::Filter { rules } => StepKind::Filter {
                rules: rules
                    .iter()
                    .map(|r| {
                        r.clauses
                            .iter()
                            .map(|(a, rel, b)| FlatClause {
                                a: flat(a),
                                rel: *rel,
                                b: flat(b),
                            })
                            .collect()
                    })
                    .collect(),
            },
            TableKind::DynFilter { key, .. } => StepKind::DynFilter {
                dyn_idx,
                key: flat(key),
            },
            TableKind::Map { .. } | TableKind::Hash { .. } => {
                unreachable!("`lower` forwards maps and folds hash keys")
            }
            TableKind::Update {
                reg,
                agg,
                operand,
                distinct,
                ..
            } => {
                let spec = cx
                    .program
                    .reports
                    .iter()
                    .find(|r| r.task == table.task)
                    .expect("report spec per task");
                let shunt = spec
                    .shunts
                    .iter()
                    .find(|sh| sh.reg == *reg)
                    .expect("shunt spec per register");
                let reg_idx = cx.reg_index[reg];
                StepKind::Update {
                    reg_idx,
                    layout: cx.reg_layouts.get(reg_idx).copied().unwrap_or_default(),
                    agg: *agg,
                    operand: flat(operand),
                    distinct: *distinct,
                    keys: cx.reg_keys[reg].iter().map(&mut flat).collect(),
                    shunt: FlatReport {
                        shape: BlockShape {
                            task: table.task,
                            kind: ReportKind::Shunt,
                            entry_op: Some(shunt.entry_op),
                            names: shunt.columns.iter().map(|(n, _)| n.clone()).collect(),
                            with_packet: spec.packet_mask != 0,
                            rank,
                        },
                        exprs: shunt.columns.iter().map(|(_, e)| flat(e)).collect(),
                    },
                }
            }
        }
    }

    fn lower_report(
        &mut self,
        spec: &crate::ir::ReportSpec,
        rank: u32,
        fwd: &MetaFwd<'_>,
    ) -> FlatReport {
        FlatReport {
            shape: BlockShape {
                task: spec.task,
                kind: ReportKind::Tuple,
                entry_op: None,
                names: spec.columns.iter().map(|(n, _)| n.clone()).collect(),
                with_packet: spec.packet_mask != 0,
                rank,
            },
            exprs: (spec.columns.iter())
                .map(|(_, e)| self.flatten(&fwd.expr(e)))
                .collect(),
        }
    }

    /// Index of `c` in the predicate cache, appended when no cached
    /// clause has the same relation over the same postfix ops.
    fn intern_clause(&mut self, c: FlatClause) -> usize {
        let same = |x: &FlatClause| {
            x.rel == c.rel && self.ops(x.a) == self.ops(c.a) && self.ops(x.b) == self.ops(c.b)
        };
        self.gates.clauses.iter().position(same).unwrap_or_else(|| {
            self.gates.clauses.push(c);
            self.gates.clauses.len() - 1
        })
    }

    /// Index of `k` among the cached dyn-filter key columns.
    fn intern_key(&mut self, k: ExprRef) -> usize {
        let same = |x: &ExprRef| self.ops(*x) == self.ops(k);
        self.gates
            .dyn_keys
            .iter()
            .position(same)
            .unwrap_or_else(|| {
                self.gates.dyn_keys.push(k);
                self.gates.dyn_keys.len() - 1
            })
    }

    /// Flatten one metadata-free expression tree into the shared
    /// postfix pool, resolving each header field to its column of the
    /// batch block.
    fn flatten(&mut self, e: &PhvExpr) -> ExprRef {
        let start = self.flat.len() as u32;
        self.push_flat(e);
        ExprRef {
            start,
            len: self.flat.len() as u32 - start,
        }
    }

    fn push_flat(&mut self, e: &PhvExpr) {
        match e {
            PhvExpr::Const(v) => self.flat.push(FlatOp::Const(*v)),
            PhvExpr::Field(f) => {
                let col = self.gates.col(*f);
                self.flat.push(FlatOp::Field(col));
            }
            PhvExpr::Meta(_) => unreachable!("metadata is forwarded away before flattening"),
            PhvExpr::Mask(inner, level) => {
                self.push_flat(inner);
                let mask = if *level == 0 {
                    0
                } else if *level >= 32 {
                    u32::MAX
                } else {
                    u32::MAX << (32 - *level as u32)
                };
                self.flat.push(FlatOp::Mask(mask));
            }
            PhvExpr::Shr(inner, k) => {
                self.push_flat(inner);
                self.flat.push(FlatOp::Shr((*k).min(63)));
            }
            PhvExpr::Shl(inner, k) => {
                self.push_flat(inner);
                self.flat.push(FlatOp::Shl((*k).min(63)));
            }
            PhvExpr::Add(a, b) => {
                self.push_flat(a);
                self.push_flat(b);
                self.flat.push(FlatOp::Add);
            }
            PhvExpr::Sub(a, b) => {
                self.push_flat(a);
                self.push_flat(b);
                self.flat.push(FlatOp::Sub);
            }
        }
    }

    /// Length of the shared op pool.
    pub(crate) fn ops_len(&self) -> usize {
        self.flat.len()
    }

    pub(crate) fn ops(&self, e: ExprRef) -> &[FlatOp] {
        &self.flat[e.start as usize..(e.start + e.len) as usize]
    }

    /// Evaluate a flattened expression. Semantics are bit-for-bit
    /// those of [`PhvExpr::eval`]: wrapping add, saturating sub,
    /// 32-bit prefix masks, shifts clamped to 63.
    #[inline]
    pub(crate) fn eval(&self, e: ExprRef, lane: &Lane<'_>, stack: &mut Vec<u64>) -> u64 {
        let ops = self.ops(e);
        // Leaf expressions (the common case) skip the stack entirely.
        match ops {
            [FlatOp::Const(v)] => return *v,
            [FlatOp::Field(c)] => return lane.field(*c),
            _ => {}
        }
        stack.clear();
        for op in ops {
            match *op {
                FlatOp::Const(v) => stack.push(v),
                FlatOp::Field(c) => stack.push(lane.field(c)),
                FlatOp::Mask(m) => {
                    let v = stack.last_mut().expect("postfix arity");
                    *v = ((*v as u32) & m) as u64;
                }
                FlatOp::Shr(k) => {
                    let v = stack.last_mut().expect("postfix arity");
                    *v >>= k;
                }
                FlatOp::Shl(k) => {
                    let v = stack.last_mut().expect("postfix arity");
                    *v <<= k;
                }
                FlatOp::Add => {
                    let b = stack.pop().expect("postfix arity");
                    let a = stack.last_mut().expect("postfix arity");
                    *a = a.wrapping_add(b);
                }
                FlatOp::Sub => {
                    let b = stack.pop().expect("postfix arity");
                    let a = stack.last_mut().expect("postfix arity");
                    *a = a.saturating_sub(b);
                }
            }
        }
        stack.pop().expect("postfix leaves one value")
    }

    /// Whether any rule of a lowered filter matches.
    #[inline]
    pub(crate) fn rules_match(
        &self,
        rules: &[Vec<FlatClause>],
        lane: &Lane<'_>,
        stack: &mut Vec<u64>,
    ) -> bool {
        rules.iter().any(|clauses| {
            clauses.iter().all(|c| {
                c.rel
                    .eval_u64(self.eval(c.a, lane, stack), self.eval(c.b, lane, stack))
            })
        })
    }

    /// Materialize a kernel expression for the given lanes into `out`,
    /// with the expression-shape dispatch outside the lane loop: a
    /// constant fills, a bare or prefix-masked column (the refinement
    /// shape) gathers, anything else runs the scalar evaluator per
    /// lane.
    pub(crate) fn fill(
        &self,
        e: ExprRef,
        cols: &[u64],
        n: usize,
        lanes: impl ExactSizeIterator<Item = usize>,
        out: &mut Vec<u64>,
        stack: &mut Vec<u64>,
    ) {
        out.clear();
        match *self.ops(e) {
            [FlatOp::Const(v)] => out.resize(lanes.len(), v),
            [FlatOp::Field(c)] => {
                let col = &cols[c * n..(c + 1) * n];
                out.extend(lanes.map(|i| col[i]));
            }
            [FlatOp::Field(c), FlatOp::Mask(m)] => {
                let col = &cols[c * n..(c + 1) * n];
                out.extend(lanes.map(|i| (col[i] as u32 & m) as u64));
            }
            _ => out.extend(lanes.map(|i| self.eval(e, &Lane { cols, n, i }, stack))),
        }
    }

    /// Evaluate cached clause `c` over the whole batch into the
    /// bitmap `out` (bit `i` = packet `i` satisfies it): both sides
    /// are [`Self::fill`]ed densely, then compared in one tight pass.
    pub(crate) fn clause_bits(
        &self,
        c: &FlatClause,
        cols: &[u64],
        n: usize,
        out: &mut [u64],
        [xs, ys]: &mut [Vec<u64>; 2],
        stack: &mut Vec<u64>,
    ) {
        self.fill(c.a, cols, n, 0..n, xs, stack);
        self.fill(c.b, cols, n, 0..n, ys, stack);
        // The operator is matched once, here; each arm's pass is a
        // branch-free compare per lane.
        let (xs, ys) = (&xs[..n], &ys[..n]);
        match c.rel {
            CmpOp::Eq => compare_bits(xs, ys, out, |x, y| CmpOp::Eq.eval_u64(x, y)),
            CmpOp::Ne => compare_bits(xs, ys, out, |x, y| CmpOp::Ne.eval_u64(x, y)),
            CmpOp::Gt => compare_bits(xs, ys, out, |x, y| CmpOp::Gt.eval_u64(x, y)),
            CmpOp::Ge => compare_bits(xs, ys, out, |x, y| CmpOp::Ge.eval_u64(x, y)),
            CmpOp::Lt => compare_bits(xs, ys, out, |x, y| CmpOp::Lt.eval_u64(x, y)),
            CmpOp::Le => compare_bits(xs, ys, out, |x, y| CmpOp::Le.eval_u64(x, y)),
        }
    }
}

/// Bit `i` of `out` (64 lanes a word) = `holds(xs[i], ys[i])`.
#[inline(always)]
fn compare_bits(xs: &[u64], ys: &[u64], out: &mut [u64], holds: impl Fn(u64, u64) -> bool) {
    for (word, (xs, ys)) in out.iter_mut().zip(xs.chunks(64).zip(ys.chunks(64))) {
        *word = (xs.iter().zip(ys).enumerate())
            .fold(0, |bits, (j, (&x, &y))| bits | (holds(x, y) as u64) << j);
    }
}

/// Rewrites one task's expressions into metadata-free form.
struct MetaFwd<'a> {
    task: TaskId,
    env: &'a MetaEnv,
    writer: &'a HashMap<usize, TaskId>,
    parse_fields: &'a [Field],
}

impl MetaFwd<'_> {
    /// `e` with every metadata read replaced by what the slot holds at
    /// this point of the task, and every field the parser does not
    /// extract by the zero an unset PHV slot reads.
    fn expr(&self, e: &PhvExpr) -> PhvExpr {
        let bx = |x: &PhvExpr| Box::new(self.expr(x));
        match e {
            PhvExpr::Const(v) => PhvExpr::Const(*v),
            PhvExpr::Field(f) => {
                if f.switch_parseable() && self.parse_fields.contains(f) {
                    PhvExpr::Field(*f)
                } else {
                    PhvExpr::Const(0)
                }
            }
            PhvExpr::Meta(m) => {
                if let Some(owner) = self.writer.get(&m.0) {
                    assert!(
                        *owner == self.task,
                        "task {} reads metadata slot m{} written by task {owner}",
                        self.task,
                        m.0
                    );
                }
                // A slot nothing has written yet reads the PHV's zero.
                self.env.get(&m.0).cloned().unwrap_or(PhvExpr::Const(0))
            }
            PhvExpr::Mask(x, l) => PhvExpr::Mask(bx(x), *l),
            PhvExpr::Shr(x, k) => PhvExpr::Shr(bx(x), *k),
            PhvExpr::Shl(x, k) => PhvExpr::Shl(bx(x), *k),
            PhvExpr::Add(a, b) => PhvExpr::Add(bx(a), bx(b)),
            PhvExpr::Sub(a, b) => PhvExpr::Sub(bx(a), bx(b)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phv::Phv;

    /// `e` evaluated by the tree walk over `phv` and, flattened, over a
    /// one-lane column block holding the same fields.
    fn eval_both(e: &PhvExpr, phv: &Phv) -> (u64, u64) {
        let mut plan = ExecPlan::default();
        let r = plan.flatten(e);
        let cols: Vec<u64> = plan.gates.fields.iter().map(|&f| phv.field(f)).collect();
        let lane = Lane {
            cols: &cols,
            n: 1,
            i: 0,
        };
        (e.eval(phv), plan.eval(r, &lane, &mut Vec::new()))
    }

    #[test]
    fn flattened_eval_matches_tree_walk() {
        let mut phv = Phv::new(0, 1);
        phv.set_field(Field::Ipv4Dst, 0x0a0b0c0d);
        phv.set_field(Field::TcpDstPort, 100);
        let dst = || Box::new(PhvExpr::Field(Field::Ipv4Dst));
        let exprs = vec![
            PhvExpr::Const(7),
            PhvExpr::Field(Field::Ipv4Dst),
            PhvExpr::Field(Field::TcpDstPort),
            PhvExpr::Mask(dst(), 16),
            PhvExpr::Mask(dst(), 0),
            PhvExpr::Mask(dst(), 32),
            PhvExpr::Shr(Box::new(PhvExpr::Const(32)), 4),
            PhvExpr::Shl(Box::new(PhvExpr::Const(2)), 3),
            PhvExpr::Shr(Box::new(PhvExpr::Const(u64::MAX)), 200),
            PhvExpr::Add(
                Box::new(PhvExpr::Const(u64::MAX)),
                Box::new(PhvExpr::Const(3)),
            ),
            PhvExpr::Sub(Box::new(PhvExpr::Const(2)), Box::new(PhvExpr::Const(3))),
            PhvExpr::Add(
                Box::new(PhvExpr::Sub(
                    Box::new(PhvExpr::Field(Field::TcpDstPort)),
                    Box::new(PhvExpr::Const(1)),
                )),
                Box::new(PhvExpr::Mask(dst(), 8)),
            ),
        ];
        for e in &exprs {
            let (tree, flat) = eval_both(e, &phv);
            assert_eq!(tree, flat, "{e}");
        }
    }

    #[test]
    fn shared_pool_keeps_refs_independent() {
        let mut plan = ExecPlan::default();
        let a = plan.flatten(&PhvExpr::Const(1));
        let b = plan.flatten(&PhvExpr::Add(
            Box::new(PhvExpr::Const(2)),
            Box::new(PhvExpr::Const(3)),
        ));
        let lane = Lane {
            cols: &[],
            n: 0,
            i: 0,
        };
        let mut stack = Vec::new();
        assert_eq!(plan.eval(a, &lane, &mut stack), 1);
        assert_eq!(plan.eval(b, &lane, &mut stack), 5);
        assert_eq!(plan.eval(a, &lane, &mut stack), 1);
    }
}
