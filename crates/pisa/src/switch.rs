//! The PISA behavioral model: executes a loaded [`PisaProgram`] over
//! a window's packets, mirrors reports to the monitoring port, and
//! serves the end-of-window register dump.
//!
//! A packet is a batch of one: [`Switch::process_batch`] is the only
//! execution path, and [`Switch::process_reference`] — the wire parser
//! into a PHV, then a tree walk over the IR — is the oracle it is held
//! bit-identical to.
//!
//! Semantics follow Section 3.1.3 of the paper:
//!
//! * forwarding is never affected — queries only read header fields
//!   and write query-specific metadata;
//! * each task owns a one-bit report flag; packets whose flag is set
//!   after the last stage are mirrored (tuple, and the original packet
//!   when the stream processor needs it);
//! * a task ending in a `reduce` reports through the window dump: the
//!   emitter polls the register at window end (one tuple per key,
//!   thresholded when a threshold filter was merged);
//! * register collisions that exhaust all `d` arrays shunt the packet
//!   to the stream processor, which finishes the aggregation.

use crate::batch::{ReportBatch, ReportBlock, ReportChunk};
use crate::exec::{DynSet, ExecPlan, FlatReport, Lane, LeadFilter, StepKind};
use crate::ir::{PhvExpr, PisaProgram, RegId, RegisterDecl, ReportMode, Table, TableKind, TaskId};
use crate::parser;
use crate::phv::Phv;
use crate::registers::{
    for_each_bit, reg_seed, BloomRegisters, CmRegisters, HashRegisters, RegOutcome, RegisterState,
    SketchConfig, StateLayout,
};
use crate::resources::{ResourceError, ResourceUsage, SwitchConstraints};
use sonata_obs::{Counter, EventKind, Gauge, ObsHandle, Stage};
use sonata_packet::{ArenaBatch, Packet, PacketView};
use sonata_query::{Agg, ColName};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// What kind of report a mirrored packet carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportKind {
    /// A tuple of metadata values (possibly with the original packet).
    Tuple,
    /// A collision shunt: the emitter must apply the stateful operator
    /// itself for this tuple's key.
    Shunt,
    /// A window-dump tuple, already thresholded at the switch (no
    /// shunts occurred for its register this window).
    WindowDump,
    /// A raw window-dump tuple: shunts occurred, so the merged
    /// threshold was *not* applied — the emitter merges shunt
    /// aggregates into the dump and thresholds locally (Section 5).
    WindowDumpRaw,
}

/// One report mirrored to the monitoring port.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The reporting task.
    pub task: TaskId,
    /// Report kind.
    pub kind: ReportKind,
    /// Named values (the tuple). Names are interned [`ColName`]s
    /// bound at load time — emitting a report clones `Arc`s, never
    /// formats strings.
    pub columns: Vec<(ColName, u64)>,
    /// The original packet, when the report spec requires it.
    pub packet: Option<Packet>,
    /// Residual-pipeline operator index this tuple enters at; `None`
    /// means the task's default resume point.
    pub entry_op: Option<usize>,
    /// Per-task, per-window report sequence number, assigned in the
    /// task's packet order. `(task, window, seq)` identifies
    /// one logical report, which is what the emitter's duplicate
    /// suppression keys on — an injected duplicate carries the same
    /// seq, a legitimately identical tuple a fresh one.
    pub seq: u64,
}

/// Per-task report counters, split by report kind so merged
/// multi-query programs attribute traffic to the right task.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskCounters {
    /// Per-packet tuple reports mirrored for this task.
    pub tuple_reports: u64,
    /// Collision-shunt reports mirrored for this task.
    pub shunt_reports: u64,
    /// Window-dump tuples produced for this task.
    pub dump_tuples: u64,
}

impl TaskCounters {
    /// Total tuples this task delivered to the stream processor.
    pub fn total(&self) -> u64 {
        self.tuple_reports + self.shunt_reports + self.dump_tuples
    }
}

/// Aggregate switch counters.
#[derive(Debug, Clone, Default)]
pub struct SwitchCounters {
    /// Packets processed.
    pub packets_in: u64,
    /// Per-packet tuple reports mirrored.
    pub tuple_reports: u64,
    /// Collision-shunt reports mirrored.
    pub shunt_reports: u64,
    /// Window-dump tuples produced.
    pub dump_tuples: u64,
    /// Per-task report counters, split by kind, indexed like
    /// `program.tasks` (dense: the packet path indexes, never hashes).
    pub per_task: Vec<(TaskId, TaskCounters)>,
}

impl SwitchCounters {
    /// Total tuples delivered to the stream processor so far.
    pub fn total_to_stream_processor(&self) -> u64 {
        self.tuple_reports + self.shunt_reports + self.dump_tuples
    }

    /// Counters for one task (zero if unknown).
    pub fn task(&self, t: &TaskId) -> TaskCounters {
        self.per_task
            .iter()
            .find(|(id, _)| id == t)
            .map(|(_, c)| *c)
            .unwrap_or_default()
    }
}

/// Pre-resolved metric handles: one registry lookup at load, atomic
/// adds on the packet path.
#[derive(Debug)]
struct SwitchObs {
    handle: ObsHandle,
    packets_in: Counter,
    occupancy: Gauge,
    /// `[tuple, shunt, dump]` counters per dense task index.
    per_task: Vec<[Counter; 3]>,
    /// Estimated-error gauges (ppm) per dense register index; `None`
    /// for exact registers.
    sketch_error: Vec<Option<Gauge>>,
}

impl SwitchObs {
    fn new(handle: ObsHandle, tasks: &[TaskId]) -> Self {
        let per_task = tasks
            .iter()
            .map(|t| {
                let task = t.to_string();
                [
                    handle.counter(
                        "sonata_switch_reports_total",
                        &[("task", &task), ("kind", "tuple")],
                    ),
                    handle.counter(
                        "sonata_switch_reports_total",
                        &[("task", &task), ("kind", "shunt")],
                    ),
                    handle.counter(
                        "sonata_switch_reports_total",
                        &[("task", &task), ("kind", "dump")],
                    ),
                ]
            })
            .collect();
        SwitchObs {
            packets_in: handle.counter("sonata_switch_packets_total", &[]),
            occupancy: handle.gauge("sonata_switch_register_occupancy", &[]),
            per_task,
            sketch_error: Vec::new(),
            handle,
        }
    }

    /// Register the per-sketch gauges for one non-exact register:
    /// `width`/`depth` are fixed at load, `estimated_error` (ppm) is
    /// refreshed every window. Exact registers get no series, so runs
    /// with the knob off export byte-identical metrics.
    fn register_sketch(&self, reg_label: &str, task: &TaskId, state: &RegisterState) -> Gauge {
        let task = task.to_string();
        let labels: &[(&str, &str)] = &[("reg", reg_label), ("task", &task)];
        self.handle
            .gauge("sonata_sketch_width", labels)
            .set(state.gauge_width());
        self.handle
            .gauge("sonata_sketch_depth", labels)
            .set(state.gauge_depth());
        let err = self.handle.gauge("sonata_sketch_estimated_error", labels);
        err.set((state.bound().epsilon * 1e6) as u64);
        err
    }
}

/// The accuracy contract one sketch-backed register declares on its
/// end-of-window dump. Exact registers declare nothing, so a run with
/// the sketch knob off produces dumps byte-identical to the
/// pre-sketch baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct SketchBound {
    /// The owning stateful task.
    pub task: TaskId,
    /// Layout the register ran this window.
    pub layout: StateLayout,
    /// Relative error (count-min: fraction of `mass`) or
    /// false-positive probability (Bloom); see
    /// `sonata_sketch::ErrorBound`.
    pub epsilon: f64,
    /// Probability the ε guarantee fails.
    pub delta: f64,
    /// L1 stream mass folded in — the absolute count-min slack is
    /// ⌈ε·mass⌉.
    pub mass: u64,
    /// Update calls folded in this window.
    pub updates: u64,
    /// True when the sketch exceeded its design load and the bound
    /// degraded (also emitted as a `SketchSaturated` event).
    pub saturated: bool,
}

/// The end-of-window register dump: one row per stored key for every
/// `WindowDump` task (thresholded), in deterministic order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowDump {
    /// Dump rows, one [`ReportBlock`] per dump spec that produced any,
    /// in a chunk that carries no packets.
    pub tuples: ReportChunk,
    /// Keys whose aggregate was dropped by a merged threshold (counted
    /// for diagnostics; not delivered).
    pub suppressed: u64,
    /// Total register occupancy before the reset.
    pub occupancy: usize,
    /// Shunted packets observed this window (already reported
    /// per-packet; here for accounting).
    pub shunted_packets: u64,
    /// Declared error bounds, one per sketch-backed register in
    /// program order; empty when every register is exact.
    pub bounds: Vec<SketchBound>,
}

/// Reusable kernel scratch (steps 3–4 of [`Switch::process_batch`]).
/// All buffers are retained across windows, so the steady-state batch
/// loop performs no heap allocation.
#[derive(Debug, Default)]
struct BatchScratch {
    /// Selection vector of the task being run: batch indices of its
    /// live packets, ascending.
    sel: Vec<u32>,
    /// The shunts of the task being run: `(packet, step)`, each
    /// step's in packet order.
    shunts: Vec<(u32, u32)>,
    /// Key parts and operand of the `Update` being run, one value per
    /// selected lane.
    key_lanes: Vec<Vec<u64>>,
    operand_lanes: Vec<u64>,
    /// Array-0 slot of each selected lane's key, hashed before the
    /// exact register's probe loop.
    slots: Vec<u32>,
    /// Expression evaluation stack.
    stack: Vec<u64>,
    /// Register key staging for layouts without a fixed-width kernel.
    key: Vec<u64>,
}

/// One batch after the switch's parse-and-filter half (steps 1–2 of
/// [`Switch::process_batch`]): the column block and every task's
/// survivor bits, what [`Switch::run_gated`] reads. A pure function of
/// the batch's bytes, the lowered plan and the dynamic filters' entries,
/// so it does not matter which thread gated it. The buffers are kept
/// from batch to batch; once [`Gate::reserve`]d for a batch's size,
/// gating allocates nothing.
#[derive(Debug, Default)]
pub struct Gated {
    /// Packets of the batch gated last.
    n: usize,
    /// The shared column block: `cols[c * n + i]` is header field
    /// `plan.gates.fields[c]` of packet `i`.
    cols: Vec<u64>,
    /// The predicate cache: one `words`-long bitmap per distinct
    /// leading clause, bit `i` = packet `i` satisfies it.
    clause_bits: Vec<u64>,
    /// One `n`-long column per distinct leading dyn-filter key.
    dyn_keys: Vec<Vec<u64>>,
    /// One `words`-long survivor bitmap per task.
    task_bits: Vec<u64>,
    /// Bitmap accumulators (one rule's AND; one filter's OR).
    rule_bits: Vec<u64>,
    any_bits: Vec<u64>,
    /// Operand staging for clauses that are not a bare column.
    bufs: [Vec<u64>; 2],
    /// Expression evaluation stack.
    stack: Vec<u64>,
}

/// The switch's parse-and-filter half: a shared borrow of the lowered
/// plan and the dynamic filters' entries, which change only at the
/// window boundary. It may gate a window's batches on any thread while
/// the [`Kernels`] half runs earlier ones ([`Switch::halves`]).
#[derive(Debug, Clone, Copy)]
pub struct Gate<'a> {
    plan: &'a ExecPlan,
    dyn_sets: &'a [DynSet],
}

/// The switch's stateful half (steps 3–4 of [`Switch::process_batch`]):
/// registers, report seqs and counters, borrowed beside a [`Gate`].
#[derive(Debug)]
pub struct Kernels<'a> {
    plan: &'a ExecPlan,
    dyn_sets: &'a [DynSet],
    mirror_mask: u32,
    registers: &'a mut [RegisterState],
    sc: &'a mut BatchScratch,
    counters: &'a mut SwitchCounters,
    obs: &'a SwitchObs,
    task_seq: &'a mut [u64],
}

/// The behavioral model.
#[derive(Debug)]
pub struct Switch {
    program: PisaProgram,
    usage: ResourceUsage,
    /// Table execution order: indices into `program.tables`, sorted by
    /// (stage, insertion order).
    exec_order: Vec<usize>,
    /// Register state, dense (shared by the kernels and the reference
    /// interpreter). Each entry runs the layout resolved at load —
    /// exact hash table, count-min, or Bloom admission.
    registers: Vec<RegisterState>,
    /// RegId → index into `registers`.
    reg_index: HashMap<RegId, usize>,
    /// Key expressions per register (from the Hash tables) — used by
    /// the reference interpreter path.
    reg_keys: HashMap<RegId, Vec<PhvExpr>>,
    /// Dense task index per TaskId.
    task_index: HashMap<TaskId, usize>,
    /// Batch kernels, lowered once at load.
    plan: ExecPlan,
    /// Lowered entry set per `DynFilter` table (`plan.dyn_tables`
    /// order), rebuilt by [`Self::set_dyn_filter`].
    dyn_sets: Vec<DynSet>,
    /// Reusable kernel scratch (selection vector, key lanes).
    batch: BatchScratch,
    /// What [`Self::process_batch`] gates its batch into.
    gated: Gated,
    /// When set, every window dump is emitted raw (un-thresholded,
    /// value-input column, entry-op tagged) even without shunts: in a
    /// multi-switch fabric a key's count is split across switches, so
    /// thresholds are only sound after the collector-side merge.
    defer_dump_thresholds: bool,
    counters: SwitchCounters,
    obs: SwitchObs,
    /// Per-task report sequence numbers for the current window
    /// (indexed like `program.tasks`), reset at `end_window`.
    task_seq: Vec<u64>,
}

impl Switch {
    /// Validate `program` against `constraints` and instantiate state.
    pub fn load(
        program: PisaProgram,
        constraints: &SwitchConstraints,
    ) -> Result<Self, ResourceError> {
        Self::load_with_obs(program, constraints, &ObsHandle::disabled())
    }

    /// [`Self::load`] with an observability handle: registers per-task
    /// report counters, the register-occupancy gauge, and dynamic-
    /// filter size gauges against it.
    pub fn load_with_obs(
        program: PisaProgram,
        constraints: &SwitchConstraints,
        obs: &ObsHandle,
    ) -> Result<Self, ResourceError> {
        Self::load_with_sketch(program, constraints, obs, SketchConfig::default())
    }

    /// [`Self::load_with_obs`] with an explicit sketch configuration:
    /// each register resolves its [`StateLayout`] from the planner's
    /// stamp and the runtime knob (see
    /// [`SketchConfig::effective_layout`]) and instantiates exact,
    /// count-min, or Bloom state accordingly. With the default
    /// (`Exact`) config this is byte-identical to the pre-sketch
    /// loader.
    pub fn load_with_sketch(
        program: PisaProgram,
        constraints: &SwitchConstraints,
        obs: &ObsHandle,
        sketch: SketchConfig,
    ) -> Result<Self, ResourceError> {
        let usage = constraints.check(&program)?;
        let mut order: Vec<usize> = (0..program.tables.len()).collect();
        order.sort_by_key(|&i| (program.tables[i].stage, i));
        // Which aggregation / distinct mode drives each register —
        // count-min only fits monotone aggs, Bloom only distinct, and
        // an exact `distinct` of the constant 1 is a key-only set.
        let mut reg_mode: HashMap<RegId, (sonata_query::Agg, bool, bool)> = HashMap::new();
        for t in &program.tables {
            if let TableKind::Update {
                reg,
                agg,
                distinct,
                operand,
                ..
            } = &t.kind
            {
                let set = *distinct && *agg == Agg::BitOr && *operand == PhvExpr::Const(1);
                reg_mode.insert(*reg, (*agg, *distinct, set));
            }
        }
        let mode = |r: &RegId| (reg_mode.get(r).copied()).unwrap_or((Agg::Sum, false, false));
        let layout_of = |r: &RegisterDecl| {
            let (agg, distinct, _) = mode(&r.id);
            sketch.effective_layout(r.layout, distinct, agg)
        };
        // Exact cells hold a value in one 32-bit word.
        let wide = |r: &&RegisterDecl| r.value_bits > 32 && layout_of(r) == StateLayout::Exact;
        if let Some(r) = program.registers.iter().find(wide) {
            let (register, bits) = (r.id.0, r.value_bits);
            return Err(ResourceError::RegisterValueWidth { register, bits });
        }
        // Key expressions per register, from its Hash table. Exact
        // registers lay their slots out at the parts' declared widths:
        // a field's fixed width, a metadata slot's declared bits.
        let mut reg_keys = HashMap::new();
        for t in &program.tables {
            if let TableKind::Hash { reg, key } = &t.kind {
                reg_keys.insert(*reg, key.clone());
            }
        }
        let meta_bits: HashMap<_, _> = (program.meta_fields.iter())
            .flat_map(|(_, fields)| fields.iter().map(|f| (f.slot, f.bits)))
            .collect();
        let part_bits = |e: &PhvExpr| match e {
            PhvExpr::Field(f) => f.width().fixed().unwrap_or(64),
            PhvExpr::Meta(m) => meta_bits.get(m).copied().unwrap_or(64),
            _ => 64,
        };
        let mut registers = Vec::with_capacity(program.registers.len());
        let mut reg_index = HashMap::new();
        let mut obs_handle = SwitchObs::new(obs.clone(), &program.tasks);
        for r in &program.registers {
            let idx = registers.len();
            reg_index.insert(r.id, idx);
            let (set, layout) = (mode(&r.id).2, layout_of(r));
            let seed = reg_seed(idx);
            // From the register's own task's Hash table, not `reg_keys`:
            // where two tasks share a register (a merge the lowering
            // rejects with its own message), that holds the other's key.
            let widths: Vec<u32> = (program.tables.iter())
                .find_map(|t| match &t.kind {
                    TableKind::Hash { reg, key } if *reg == r.id && t.task == r.task => {
                        Some(key.iter().map(part_bits).collect())
                    }
                    _ => None,
                })
                .unwrap_or_default();
            let state =
                match layout {
                    StateLayout::Exact => {
                        debug_assert_eq!(
                            widths.iter().sum::<u32>(),
                            r.key_bits,
                            "register r{} key widths",
                            r.id.0
                        );
                        RegisterState::Exact(if set && r.value_bits == 1 {
                            HashRegisters::set(r.slots, r.arrays, &widths)
                        } else {
                            HashRegisters::new(r.slots, r.arrays, r.value_bits, &widths)
                        })
                    }
                    StateLayout::CountMin => RegisterState::CountMin(CmRegisters::new(
                        r.slots,
                        r.arrays.max(2),
                        r.capacity_keys(),
                        r.value_bits,
                        seed,
                    )),
                    StateLayout::Bloom | StateLayout::Hll => RegisterState::Bloom(
                        BloomRegisters::new(r.capacity_keys(), layout == StateLayout::Hll, seed),
                    ),
                };
            let err_gauge = (layout != StateLayout::Exact)
                .then(|| obs_handle.register_sketch(&format!("r{}", r.id.0), &r.task, &state));
            obs_handle.sketch_error.push(err_gauge);
            registers.push(state);
        }
        let task_index: HashMap<TaskId, usize> = program
            .tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (*t, i))
            .collect();
        let obs = obs_handle;
        let layouts: Vec<StateLayout> = registers.iter().map(|r| r.layout()).collect();
        let plan = {
            let _t = obs.handle.stage(Stage::PlanBind, 0);
            ExecPlan::lower(&program, &order, &reg_index, &layouts)
        };
        let counters = SwitchCounters {
            per_task: program
                .tasks
                .iter()
                .map(|t| (*t, TaskCounters::default()))
                .collect(),
            ..Default::default()
        };
        let task_seq = vec![0; program.tasks.len()];
        let dyn_sets = plan
            .dyn_tables
            .iter()
            .map(|&ti| match &program.tables[ti].kind {
                TableKind::DynFilter {
                    entries,
                    pass_when_empty,
                    ..
                } => DynSet::new(entries, *pass_when_empty),
                _ => unreachable!("lowered from a DynFilter table"),
            })
            .collect();
        Ok(Switch {
            program,
            usage,
            exec_order: order,
            registers,
            reg_index,
            reg_keys,
            task_index,
            plan,
            dyn_sets,
            batch: BatchScratch::default(),
            gated: Gated::default(),
            defer_dump_thresholds: false,
            counters,
            obs,
            task_seq,
        })
    }

    /// Defer window-dump thresholding to the stream processor: every
    /// dump tuple is reported raw, exactly as when a shunt forces the
    /// emitter to merge before thresholding. A fabric switch only
    /// holds its partition's share of each key's count, so suppressing
    /// `value <= threshold` locally would drop keys whose fabric-wide
    /// total clears the threshold.
    pub fn set_defer_dump_thresholds(&mut self, on: bool) {
        self.defer_dump_thresholds = on;
    }

    /// The validated resource usage.
    pub fn usage(&self) -> &ResourceUsage {
        &self.usage
    }

    /// The loaded program.
    pub fn program(&self) -> &PisaProgram {
        &self.program
    }

    /// Cumulative counters.
    pub fn counters(&self) -> &SwitchCounters {
        &self.counters
    }

    /// The reference oracle for one packet: parse its wire bytes into
    /// a PHV and walk the IR table by table — no lowering involved.
    /// Reports, counters, registers and `seq`s come out exactly as
    /// [`Self::process_batch`] leaves them for a batch of this one
    /// packet; the two share register and counter state.
    ///
    /// The packet is decoded only when some report spec mirrors it. A
    /// record [`Packet::decode`] rejects still runs on the fields its
    /// bytes yield, and a mirror of it carries `packet: None` — what
    /// the batch's [`ReportRef::to_report`](crate::ReportRef::to_report)
    /// gives, and what the emitter counts as malformed.
    pub fn process_reference(&mut self, view: PacketView<'_>) -> Vec<Report> {
        let mut phv = parser::parse_bytes(
            view.bytes(),
            &self.program.parse_fields,
            self.program.meta_slots,
            self.program.tasks.len(),
        );
        let mirrors = self.program.mirror_mask() != 0;
        let pkt = mirrors.then(|| view.decode().ok()).flatten();
        self.run(&mut phv, pkt.as_ref())
    }

    fn run(&mut self, phv: &mut Phv, pkt: Option<&Packet>) -> Vec<Report> {
        self.counters.packets_in += 1;
        self.obs.packets_in.inc();
        let mut reports = Vec::new();
        for &ti in &self.exec_order {
            let table: &Table = &self.program.tables[ti];
            let task_idx = match self.task_index.get(&table.task) {
                Some(i) => *i,
                None => continue,
            };
            if !phv.is_alive(task_idx) {
                continue;
            }
            match &table.kind {
                TableKind::Filter { rules } => {
                    if !rules.iter().any(|r| r.matches(phv)) {
                        phv.kill(task_idx);
                    }
                }
                TableKind::DynFilter {
                    key,
                    entries,
                    pass_when_empty,
                } => {
                    if entries.is_empty() && *pass_when_empty {
                        // pass
                    } else if !entries.contains(&key.eval(phv)) {
                        phv.kill(task_idx);
                    }
                }
                TableKind::Map { assigns } => {
                    // Evaluate all sources before writing (parallel ALU
                    // semantics within one stage).
                    let values: Vec<u64> = assigns.iter().map(|(_, e)| e.eval(phv)).collect();
                    for ((slot, _), v) in assigns.iter().zip(values) {
                        phv.set_meta(*slot, v);
                    }
                }
                TableKind::Hash { .. } => {
                    // Index computation is folded into the Update that
                    // follows; the Hash table's cost is its stage.
                }
                TableKind::Update {
                    reg,
                    agg,
                    operand,
                    distinct,
                    last_on_switch: _,
                    threshold: _,
                } => {
                    let key_exprs = self.reg_keys.get(reg).expect("hash table precedes update");
                    let key: Vec<u64> = key_exprs.iter().map(|e| e.eval(phv)).collect();
                    let operand_v = operand.eval(phv);
                    let ri = *self.reg_index.get(reg).expect("register declared");
                    match self.registers[ri].update(&key, *agg, operand_v) {
                        RegOutcome::Shunted => {
                            // Mirror for the emitter to finish.
                            let spec = self
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
                            let columns: Vec<(ColName, u64)> = shunt
                                .columns
                                .iter()
                                .map(|(n, e)| (n.clone(), e.eval(phv)))
                                .collect();
                            let seq = self.task_seq[task_idx];
                            self.task_seq[task_idx] += 1;
                            reports.push(Report {
                                task: table.task,
                                kind: ReportKind::Shunt,
                                columns,
                                packet: pkt.filter(|_| spec.packet_mask != 0).cloned(),
                                entry_op: Some(shunt.entry_op),
                                seq,
                            });
                            self.counters.shunt_reports += 1;
                            self.counters.per_task[task_idx].1.shunt_reports += 1;
                            self.obs.per_task[task_idx][1].inc();
                            phv.kill(task_idx);
                        }
                        RegOutcome::Updated { first_touch, .. } => {
                            if *distinct && !first_touch {
                                phv.kill(task_idx);
                            }
                        }
                    }
                }
            }
        }
        // Deparser: mirror per-packet reports for tasks still alive.
        for spec in &self.program.reports {
            if !matches!(spec.mode, ReportMode::PerPacket) {
                continue;
            }
            let task_idx = match self.task_index.get(&spec.task) {
                Some(i) => *i,
                None => continue,
            };
            if !phv.is_alive(task_idx) {
                continue;
            }
            let columns: Vec<(ColName, u64)> = spec
                .columns
                .iter()
                .map(|(n, e)| (n.clone(), e.eval(phv)))
                .collect();
            let seq = self.task_seq[task_idx];
            self.task_seq[task_idx] += 1;
            reports.push(Report {
                task: spec.task,
                kind: ReportKind::Tuple,
                columns,
                packet: pkt.filter(|_| spec.packet_mask != 0).cloned(),
                entry_op: None,
                seq,
            });
            self.counters.tuple_reports += 1;
            self.counters.per_task[task_idx].1.tuple_reports += 1;
            self.obs.per_task[task_idx][0].inc();
        }
        reports
    }

    /// Process a whole batch of arena packets through the compiled
    /// plan, collecting reports into `out` (reset in place): the
    /// batch's [`Self::gate`], then [`Self::run_gated`] on it.
    ///
    /// Execution is **task-major over one shared column block** (the
    /// soundness argument is in [`crate::exec`]'s module docs). Steps
    /// 1–2 are the parse-and-filter half, [`Gate`]; they read no state
    /// but the plan and the dynamic filters' entries. Steps 3–4 are the
    /// stateful half, [`Kernels`]:
    ///
    /// 1. **Columns** — one parse walk per packet extracts every header
    ///    field any kernel reads into a struct-of-arrays block.
    /// 2. **Predicate cache** — each *distinct* leading clause and
    ///    dyn-filter key is evaluated once over the block, however
    ///    many tasks filter on it; a task's survivors are the AND of
    ///    its filters' cached bitmaps.
    /// 3. **Kernels** — each task runs its stateful steps as tight
    ///    loops over its own selection vector, one register hot in
    ///    cache at a time, with key-width and operand-shape dispatch
    ///    outside the lane loop. Shunts are noted by packet and step.
    /// 4. **Emission** — right after its kernel, a task's survivors
    ///    become the rows of its mirror's
    ///    [`ReportBlock`](crate::batch::ReportBlock) in one pass,
    ///    merged by packet with its shunts if it had any, and numbered
    ///    in that order: each task's reports, and their `seq`s, are
    ///    those of [`Self::process_reference`] packet by packet.
    pub fn process_batch(&mut self, batch: &ArenaBatch<'_>, out: &mut ReportBatch) {
        let (gate, mut kernels, gated) = self.parts();
        gate.gate(batch, gated);
        kernels.run_gated(batch, gated, out);
    }

    /// Steps 1–2 of [`Self::process_batch`] over `batch`, into `gated`.
    pub fn gate(&self, batch: &ArenaBatch<'_>, gated: &mut Gated) {
        let (plan, dyn_sets) = (&self.plan, self.dyn_sets.as_slice());
        Gate { plan, dyn_sets }.gate(batch, gated)
    }

    /// Steps 3–4 of [`Self::process_batch`]: run `batch`, which
    /// `gated` holds gated under the switch's current dynamic filters,
    /// through the kernels, collecting its reports into `out`.
    pub fn run_gated(&mut self, batch: &ArenaBatch<'_>, gated: &Gated, out: &mut ReportBatch) {
        self.halves().1.run_gated(batch, gated, out)
    }

    /// The switch split into its two pipeline halves, for a caller that
    /// gates batches on one thread while it runs the kernels on
    /// another. Dynamic filters cannot change while the halves live.
    pub fn halves(&mut self) -> (Gate<'_>, Kernels<'_>) {
        let (gate, kernels, _) = self.parts();
        (gate, kernels)
    }

    /// The two halves, and the switch's own [`Gated`].
    fn parts(&mut self) -> (Gate<'_>, Kernels<'_>, &mut Gated) {
        let mirror_mask = self.program.mirror_mask();
        let Switch {
            plan,
            dyn_sets,
            registers,
            batch,
            gated,
            counters,
            obs,
            task_seq,
            ..
        } = self;
        let (plan, dyn_sets) = (&*plan, dyn_sets.as_slice());
        let kernels = Kernels {
            plan,
            dyn_sets,
            mirror_mask,
            registers,
            sc: batch,
            counters,
            obs,
            task_seq,
        };
        (Gate { plan, dyn_sets }, kernels, gated)
    }

    /// End the window: dump `WindowDump` registers into `ReportBlock`s
    /// (register cells copied straight into each block's flat rows),
    /// apply merged thresholds, and reset all register state.
    ///
    /// Runs over the lowered dump specs (dense register indices,
    /// interned column names); [`Self::peek_dump_reference`] is its
    /// oracle, read from the IR's report specs.
    pub fn end_window(&mut self) -> WindowDump {
        let mut dump = WindowDump::default();
        // `plan.dumps` preserves `program.reports` order.
        for d in &self.plan.dumps {
            let regs = &self.registers[d.reg_idx];
            // Any task-wide shunt (including at an earlier distinct)
            // means the dump can no longer be finalized on the switch:
            // the emitter must merge before thresholding.
            let task_shunts: u64 = d
                .shunt_reg_idxs
                .iter()
                .map(|&i| self.registers[i].shunted_packets())
                .sum();
            dump.shunted_packets += regs.shunted_packets();
            let raw = task_shunts > 0 || self.defer_dump_thresholds;
            // Deferred mode with an upstream `distinct`: the reduce
            // register holds counts of *this switch's* first
            // occurrences, which double-count keys that also appear on
            // other switches. Dump the distinct register's admitted-key
            // set instead (entering at the distinct op) and let the
            // collector recount after the cross-switch dedup.
            let (regs, names, entry_op, has_value) = match &d.distinct {
                Some((reg_idx, entry_op, names)) if self.defer_dump_thresholds => {
                    (&self.registers[*reg_idx], names, Some(*entry_op), false)
                }
                _ if raw => (regs, &d.raw_names, Some(d.reduce_op), true),
                _ => (regs, &d.final_names, None, true),
            };
            let threshold = d.threshold.filter(|_| !raw);
            let key_width = names.len() - usize::from(has_value);
            let mut block = ReportBlock {
                task: d.task,
                kind: if raw {
                    ReportKind::WindowDumpRaw
                } else {
                    ReportKind::WindowDump
                },
                entry_op,
                first_seq: d.task_idx.map_or(0, |i| self.task_seq[i]),
                names: Arc::clone(names),
                rows: 0,
                cells: Vec::with_capacity(regs.occupancy() * names.len()),
                pkts: Vec::new(),
            };
            regs.for_each(|key, value| {
                if threshold.is_some_and(|th| value <= th) {
                    dump.suppressed += 1;
                    return;
                }
                // A key narrower than its names reads as zero. Parts are
                // pushed one by one: a block copy of the key buffer
                // `for_each` has just written stalls on store forwarding.
                let row = block.cells.len();
                for &part in key.iter().take(key_width) {
                    block.cells.push(part);
                }
                block.cells.resize(row + key_width, 0);
                if has_value {
                    block.cells.push(value);
                }
                block.rows += 1;
            });
            let rows = block.rows as u64;
            if let Some(i) = d.task_idx {
                self.task_seq[i] += rows;
            }
            if !raw {
                self.counters.dump_tuples += rows;
                if let Some(i) = d.task_idx {
                    self.counters.per_task[i].1.dump_tuples += rows;
                    self.obs.per_task[i][2].add(rows);
                }
            }
            if rows > 0 {
                dump.tuples.blocks.push(block);
            }
        }
        dump.occupancy = self.registers.iter().map(|r| r.occupancy()).sum();
        self.obs.occupancy.set(dump.occupancy as u64);
        // Declare the accuracy contract of every sketch-backed
        // register (program order), refresh the estimated-error
        // gauges, and flag saturation. Exact registers contribute
        // nothing, keeping the knob's off-path dumps byte-identical.
        for (idx, decl) in self.program.registers.iter().enumerate() {
            let state = &self.registers[idx];
            let layout = state.layout();
            if layout == StateLayout::Exact {
                continue;
            }
            let bound = state.bound();
            let saturated = state.saturated();
            dump.bounds.push(SketchBound {
                task: decl.task,
                layout,
                epsilon: bound.epsilon,
                delta: bound.delta,
                mass: state.mass(),
                updates: state.updates(),
                saturated,
            });
            if let Some(Some(g)) = self.obs.sketch_error.get(idx) {
                g.set((bound.epsilon * 1e6) as u64);
            }
            if saturated {
                self.obs.handle.event(EventKind::SketchSaturated {
                    task: decl.task.to_string(),
                    layout: layout.name(),
                    keys: state.occupancy() as u64,
                    capacity: decl.capacity_keys() as u64,
                });
            }
        }
        for r in &mut self.registers {
            r.reset();
        }
        // Report sequence numbers are per-window.
        for s in &mut self.task_seq {
            *s = 0;
        }
        dump
    }

    /// Oracle for [`Self::end_window`]: the rows the next call will
    /// emit, one owned [`Report`] per stored key, read from the IR's
    /// report specs rather than the lowered dump plan. Changes no
    /// state.
    #[doc(hidden)]
    pub fn peek_dump_reference(&self) -> Vec<Report> {
        let mut out = Vec::new();
        let mut seqs = self.task_seq.clone();
        let state = |reg: &RegId| self.reg_index.get(reg).map(|&i| &self.registers[i]);
        for spec in &self.program.reports {
            let ReportMode::WindowDump {
                reg,
                threshold,
                key_names,
                value_name,
                value_input_name,
                reduce_op,
            } = &spec.mode
            else {
                continue;
            };
            let shunts =
                |sh: &crate::ir::ShuntSpec| state(&sh.reg).map_or(0, |r| r.shunted_packets());
            let raw = self.defer_dump_thresholds || spec.shunts.iter().map(shunts).sum::<u64>() > 0;
            let task_idx = self.task_index.get(&spec.task).copied();
            let mut seq = task_idx.map_or(0, |i| seqs[i]);
            let mut push = |kind, entry_op, columns| {
                out.push(Report {
                    task: spec.task,
                    kind,
                    columns,
                    packet: None,
                    entry_op,
                    seq,
                });
                seq += 1;
            };
            let distinct = (spec.shunts.iter())
                .filter(|sh| sh.reg != *reg)
                .min_by_key(|sh| sh.entry_op)
                .and_then(|sh| state(&sh.reg).map(|r| (sh, r)))
                .filter(|_| self.defer_dump_thresholds);
            if let Some((sh, regs)) = distinct {
                regs.for_each(|key, _seen| {
                    let names = sh.columns.iter().map(|(n, _)| n.clone());
                    let columns = names.zip(key.iter().copied()).collect();
                    push(ReportKind::WindowDumpRaw, Some(sh.entry_op), columns);
                });
            } else if let Some(regs) = state(reg) {
                regs.for_each(|key, value| {
                    if !raw && threshold.is_some_and(|th| value <= th) {
                        return;
                    }
                    let mut columns: Vec<(ColName, u64)> =
                        key_names.iter().cloned().zip(key.iter().copied()).collect();
                    if raw {
                        columns.push((value_input_name.clone(), value));
                        push(ReportKind::WindowDumpRaw, Some(*reduce_op), columns);
                    } else {
                        columns.push((value_name.clone(), value));
                        push(ReportKind::WindowDump, None, columns);
                    }
                });
            }
            if let Some(i) = task_idx {
                seqs[i] = seq;
            }
        }
        out
    }

    /// Control-plane: replace a dynamic filter table's entries.
    /// Returns the number of entries installed.
    pub fn set_dyn_filter(
        &mut self,
        table_name: &str,
        new_entries: BTreeSet<u64>,
    ) -> Result<usize, String> {
        for (ti, t) in self.program.tables.iter_mut().enumerate() {
            if t.name == table_name {
                if let TableKind::DynFilter {
                    entries,
                    pass_when_empty,
                    ..
                } = &mut t.kind
                {
                    let n = new_entries.len();
                    *entries = new_entries;
                    if let Some(d) = self.plan.dyn_tables.iter().position(|&x| x == ti) {
                        self.dyn_sets[d] = DynSet::new(entries, *pass_when_empty);
                    }
                    // Control-plane path: the registry lookup per
                    // update is fine here.
                    self.obs
                        .handle
                        .gauge("sonata_switch_dyn_filter_entries", &[("table", table_name)])
                        .set(n as u64);
                    return Ok(n);
                }
                return Err(format!("table `{table_name}` is not a dynamic filter"));
            }
        }
        Err(format!("no table named `{table_name}`"))
    }

    /// Names of all dynamic filter tables (the refinement update
    /// surface), with their owning tasks.
    pub fn dyn_filter_tables(&self) -> Vec<(String, TaskId)> {
        self.program
            .tables
            .iter()
            .filter(|t| matches!(t.kind, TableKind::DynFilter { .. }))
            .map(|t| (t.name.clone(), t.task))
            .collect()
    }

    /// Register occupancy across all registers (for collision-pressure
    /// monitoring: the runtime re-plans when shunts spike).
    pub fn register_occupancy(&self) -> usize {
        self.registers.iter().map(|r| r.occupancy()).sum()
    }
}

impl Gate<'_> {
    /// Grow `gated`'s buffers to what gating an `n`-packet batch
    /// needs, so that [`Self::gate`] allocates nothing.
    pub fn reserve(&self, gated: &mut Gated, n: usize) {
        let gates = &self.plan.gates;
        let words = n.div_ceil(64);
        let grow = |v: &mut Vec<u64>, len: usize| v.reserve(len.saturating_sub(v.len()));
        grow(&mut gated.cols, gates.fields.len() * n);
        grow(&mut gated.clause_bits, gates.clauses.len() * words);
        gated.dyn_keys.resize_with(gates.dyn_keys.len(), Vec::new);
        for col in &mut gated.dyn_keys {
            grow(col, n);
        }
        grow(&mut gated.task_bits, self.plan.kernels.len() * words);
        grow(&mut gated.rule_bits, words);
        grow(&mut gated.any_bits, words);
        for buf in &mut gated.bufs {
            grow(buf, n);
        }
        // No expression is deeper than the op pool is long.
        grow(&mut gated.stack, self.plan.ops_len());
    }

    /// Steps 1–2 of [`Switch::process_batch`] over `batch`, into
    /// `gated`.
    pub fn gate(&self, batch: &ArenaBatch<'_>, gated: &mut Gated) {
        let Gate { plan, dyn_sets } = *self;
        let n = batch.len();
        let gates = &plan.gates;
        let words = n.div_ceil(64);
        let sc = gated;
        sc.n = n;
        let stack = &mut sc.stack;

        // 1. Every column, in one parse walk per packet. A lane no task
        // keeps is never read past step 2. The block starts zeroed: a
        // layer that fails to parse leaves its lanes at the zero an
        // unset PHV slot reads.
        sc.cols.clear();
        sc.cols.resize(gates.fields.len() * n, 0);
        if gates.parse_mask != 0 {
            let cols = &mut sc.cols;
            for i in 0..n {
                parser::extract_fields(batch.view(i).bytes(), gates.parse_mask, |f, v| {
                    cols[gates.col_of[f as usize] as usize * n + i] = v;
                });
            }
        }

        // 2. The predicate cache.
        sc.clause_bits.resize(gates.clauses.len() * words, 0);
        for (c, clause) in gates.clauses.iter().enumerate() {
            let bits = &mut sc.clause_bits[c * words..(c + 1) * words];
            plan.clause_bits(clause, &sc.cols, n, bits, &mut sc.bufs, stack);
        }
        sc.dyn_keys.resize_with(gates.dyn_keys.len(), Vec::new);
        for (key, col) in gates.dyn_keys.iter().zip(&mut sc.dyn_keys) {
            plan.fill(*key, &sc.cols, n, 0..n, col, stack);
        }
        sc.task_bits.clear();
        sc.task_bits.resize(plan.kernels.len() * words, !0);
        sc.rule_bits.resize(words, 0);
        sc.any_bits.resize(words, 0);
        for (kernel, mask) in plan
            .kernels
            .iter()
            .zip(sc.task_bits.chunks_mut(words.max(1)))
        {
            // Lanes past `n` in the last word are nobody's packet.
            let tail = n % 64;
            if tail != 0 {
                mask[words - 1] = (1 << tail) - 1;
            }
            // Static filters first: they are word-wise ANDs, and every
            // lane they clear is a dyn-filter probe saved.
            for f in &kernel.lead {
                let LeadFilter::Static { rules } = f else {
                    continue;
                };
                sc.any_bits.fill(0);
                for rule in rules {
                    sc.rule_bits.fill(!0);
                    for &c in rule {
                        let clause = &sc.clause_bits[c * words..(c + 1) * words];
                        for (r, &b) in sc.rule_bits.iter_mut().zip(clause) {
                            *r &= b;
                        }
                    }
                    for (a, &r) in sc.any_bits.iter_mut().zip(&sc.rule_bits) {
                        *a |= r;
                    }
                }
                for (m, &a) in mask.iter_mut().zip(&sc.any_bits) {
                    *m &= a;
                }
            }
            for f in &kernel.lead {
                let LeadFilter::Dyn { dyn_idx, key } = f else {
                    continue;
                };
                let (set, keys) = (&dyn_sets[*dyn_idx], &sc.dyn_keys[*key]);
                for (w, word) in mask.iter_mut().enumerate() {
                    for_each_bit(&[*word], |bit| {
                        if !set.admits(keys[w * 64 + bit]) {
                            *word &= !(1 << bit);
                        }
                    });
                }
            }
        }
    }
}

impl Kernels<'_> {
    /// Steps 3–4 of [`Switch::process_batch`]: run `batch`, gated into
    /// `gated` by this switch's [`Gate`], through the task kernels,
    /// collecting its reports into `out` (reset in place).
    pub fn run_gated(&mut self, batch: &ArenaBatch<'_>, gated: &Gated, out: &mut ReportBatch) {
        let n = batch.len();
        assert_eq!(gated.n, n, "a batch runs on its own gate");
        out.reset(n, self.mirror_mask);
        self.counters.packets_in += n as u64;
        self.obs.packets_in.add(n as u64);
        let Kernels {
            plan,
            dyn_sets,
            registers,
            sc,
            counters,
            obs,
            task_seq,
            ..
        } = self;
        let words = n.div_ceil(64);
        let stack = &mut sc.stack;

        // 3. Task-major kernels, each task's reports emitted (4.) as
        // soon as its kernel is done.
        let cols = gated.cols.as_slice();
        let lane = |i: u32| Lane {
            cols,
            n,
            i: i as usize,
        };
        for (kernel, mask) in plan
            .kernels
            .iter()
            .zip(gated.task_bits.chunks(words.max(1)))
        {
            if kernel.steps.is_empty() && kernel.mirror.is_none() {
                continue;
            }
            let t = kernel.task_idx;
            sc.sel.clear();
            for_each_bit(mask, |i| sc.sel.push(i as u32));
            sc.shunts.clear();
            for (s, step) in kernel.steps.iter().enumerate() {
                if sc.sel.is_empty() {
                    break;
                }
                match step {
                    StepKind::Filter { rules } => {
                        sc.sel.retain(|&i| plan.rules_match(rules, &lane(i), stack))
                    }
                    StepKind::DynFilter { dyn_idx, key } => sc
                        .sel
                        .retain(|&i| dyn_sets[*dyn_idx].admits(plan.eval(*key, &lane(i), stack))),
                    StepKind::Update {
                        reg_idx,
                        layout,
                        agg,
                        operand,
                        distinct,
                        keys,
                        ..
                    } => {
                        if sc.key_lanes.len() < keys.len() {
                            sc.key_lanes.resize_with(keys.len(), Vec::new);
                        }
                        let sel = sc.sel.iter().map(|&i| i as usize);
                        for (k, lanes) in keys.iter().zip(&mut sc.key_lanes) {
                            plan.fill(*k, cols, n, sel.clone(), lanes, stack);
                        }
                        plan.fill(*operand, cols, n, sel, &mut sc.operand_lanes, stack);
                        let (parts, op) = (&sc.key_lanes[..keys.len()], &sc.operand_lanes[..]);
                        let before = sc.shunts.len();
                        let shunts = &mut sc.shunts;
                        let on_shunt = |pkt: u32| {
                            debug_assert_eq!(
                                *layout,
                                StateLayout::Exact,
                                "sketch layouts never shunt"
                            );
                            shunts.push((pkt, s as u32));
                        };
                        let (sel, slots) = (&mut sc.sel, &mut sc.slots);
                        match (&mut registers[*reg_idx], keys.len()) {
                            (RegisterState::Exact(r), 1) => exact_lanes::<1>(
                                r, parts, op, *agg, sel, slots, *distinct, on_shunt,
                            ),
                            (RegisterState::Exact(r), 2) => exact_lanes::<2>(
                                r, parts, op, *agg, sel, slots, *distinct, on_shunt,
                            ),
                            (RegisterState::Exact(r), 3) => exact_lanes::<3>(
                                r, parts, op, *agg, sel, slots, *distinct, on_shunt,
                            ),
                            (RegisterState::Exact(r), 4) => exact_lanes::<4>(
                                r, parts, op, *agg, sel, slots, *distinct, on_shunt,
                            ),
                            (state, _) => {
                                let key = &mut sc.key;
                                update_lanes(
                                    sel,
                                    *distinct,
                                    |k| {
                                        key.clear();
                                        key.extend(parts.iter().map(|p| p[k]));
                                        state.update(key, *agg, op[k])
                                    },
                                    on_shunt,
                                )
                            }
                        }
                        let shunted = (sc.shunts.len() - before) as u64;
                        counters.shunt_reports += shunted;
                        counters.per_task[t].1.shunt_reports += shunted;
                        obs.per_task[t][1].add(shunted);
                    }
                }
            }

            // 4. The task's reports in packet order: its mirrors in runs
            // between its shunts, each row numbered as it lands.
            let seq = &mut task_seq[t];
            let mut emit = |report: &FlatReport, pkts: &[u32]| {
                if pkts.is_empty() {
                    return;
                }
                out.rows_of(&report.shape, *seq).extend(pkts, |p, cells| {
                    let lane = lane(p);
                    cells.extend(report.exprs.iter().map(|e| plan.eval(*e, &lane, stack)))
                });
                *seq += pkts.len() as u64;
            };
            sc.shunts.sort_unstable();
            let mut left = &sc.sel[..];
            for &(pkt, step) in &sc.shunts {
                let StepKind::Update { shunt, .. } = &kernel.steps[step as usize] else {
                    unreachable!("only an update shunts")
                };
                let (before, after) = left.split_at(left.partition_point(|&i| i < pkt));
                if let Some(mirror) = &kernel.mirror {
                    emit(mirror, before);
                }
                emit(shunt, &[pkt]);
                left = after;
            }
            let Some(mirror) = &kernel.mirror else {
                continue;
            };
            emit(mirror, left);
            let mirrored = sc.sel.len() as u64;
            counters.tuple_reports += mirrored;
            counters.per_task[t].1.tuple_reports += mirrored;
            obs.per_task[t][0].add(mirrored);
        }
        out.carry(batch);
    }
}

/// One `Update` step over a task's selected lanes, in packet order:
/// `update(k)` applies lane `k`, a shunted lane is reported through
/// `on_shunt` and dies, a `distinct` repeat dies silently, and the
/// survivors are compacted in place.
#[inline]
fn update_lanes(
    sel: &mut Vec<u32>,
    distinct: bool,
    mut update: impl FnMut(usize) -> RegOutcome,
    mut on_shunt: impl FnMut(u32),
) {
    let mut kept = 0;
    for k in 0..sel.len() {
        let pkt = sel[k];
        let alive = match update(k) {
            RegOutcome::Shunted => {
                on_shunt(pkt);
                false
            }
            RegOutcome::Updated { first_touch, .. } => !distinct || first_touch,
        };
        sel[kept] = pkt;
        kept += alive as usize;
    }
    sel.truncate(kept);
}

/// [`update_lanes`] against an exact register whose key arity `K` is
/// a compile-time constant, in two passes: every lane's array-0 slot
/// is hashed into `slots` first, so the probe loop carries no hash
/// arithmetic unless a key collides in array 0.
#[allow(clippy::too_many_arguments)]
fn exact_lanes<const K: usize>(
    r: &mut HashRegisters,
    parts: &[Vec<u64>],
    op: &[u64],
    agg: Agg,
    sel: &mut Vec<u32>,
    slots: &mut Vec<u32>,
    distinct: bool,
    on_shunt: impl FnMut(u32),
) {
    assert_eq!(r.key_parts(), K, "register key arity");
    let parts: [&[u64]; K] = std::array::from_fn(|p| &parts[p][..sel.len()]);
    let key = |k: usize| std::array::from_fn::<_, K, _>(|p| parts[p][k]);
    slots.clear();
    slots.extend((0..sel.len()).map(|k| r.slot(&key(k)) as u32));
    let op = &op[..sel.len()];
    update_lanes(
        sel,
        distinct,
        |k| r.update_at(slots[k] as usize, &key(k), agg, op[k]),
        on_shunt,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile_pipeline, max_switch_units, table_specs, RegisterSizing};
    use crate::exec::{ExprRef, FlatOp};
    use sonata_packet::{PacketArena, PacketBuilder, TcpFlags};
    use sonata_query::catalog::{self, Thresholds};
    use sonata_query::QueryId;

    fn t(q: u32) -> TaskId {
        TaskId {
            query: QueryId(q),
            level: 32,
            branch: 0,
        }
    }

    fn syn(src: u32, dst: u32) -> Packet {
        PacketBuilder::tcp_raw(src, 1000, dst, 80)
            .flags(TcpFlags::SYN)
            .build()
    }

    /// Run `pkts` through `sw` as one arena batch: each packet's
    /// reports, materialized.
    fn run_batch(sw: &mut Switch, pkts: &[Packet]) -> Vec<Vec<Report>> {
        let arena = PacketArena::from_packets(pkts);
        let mut out = ReportBatch::new();
        sw.process_batch(&arena.batch(), &mut out);
        (0..pkts.len())
            .map(|i| (out.packet_reports(i, arena.batch()).map(|r| r.to_report())).collect())
            .collect()
    }

    /// `end_window` checked against its oracle: the blocks materialize
    /// to exactly the reference's reports (order, `seq`, `entry_op`,
    /// kind), and the dump counters grew by the finalized rows.
    fn end_window_checked(sw: &mut Switch) -> (WindowDump, Vec<Report>) {
        let want = sw.peek_dump_reference();
        let before = sw.counters().clone();
        let dump = sw.end_window();
        let got: Vec<Report> = dump.tuples.reports().collect();
        assert_eq!(got, want);
        assert_eq!(dump.tuples.len(), want.len());
        assert!(dump.tuples.blocks.iter().all(ReportBlock::is_well_formed));
        assert!(dump.tuples.packets.is_empty());
        let finalized = |of: &dyn Fn(TaskId) -> bool| {
            want.iter()
                .filter(|r| r.kind == ReportKind::WindowDump && of(r.task))
                .count() as u64
        };
        let after = sw.counters();
        assert_eq!(after.dump_tuples - before.dump_tuples, finalized(&|_| true));
        for (task, c) in &after.per_task {
            let grew = c.dump_tuples - before.task(task).dump_tuples;
            assert_eq!(grew, finalized(&|t| t == *task), "{task}");
        }
        (dump, got)
    }

    fn load_query1(th: u64) -> Switch {
        let q = catalog::newly_opened_tcp_conns(&Thresholds {
            new_tcp: th,
            ..Thresholds::default()
        });
        let cp = compile_pipeline(
            &q.pipeline,
            t(1),
            &[0, 1, 2],
            &[RegisterSizing {
                slots: 512,
                arrays: 2,
                ..Default::default()
            }],
            0,
            0,
        )
        .unwrap();
        Switch::load(cp.fragment, &SwitchConstraints::default()).unwrap()
    }

    #[test]
    fn query1_full_on_switch_dumps_only_heavy_keys() {
        let mut sw = load_query1(3);
        // 5 SYNs to victim, 1 to background host, 1 non-SYN.
        let mut pkts: Vec<Packet> = (0..5).map(|i| syn(100 + i, 0x0a0000aa)).collect();
        pkts.push(syn(7, 0x0a0000bb));
        pkts.push(
            PacketBuilder::tcp_raw(8, 1, 0x0a0000aa, 80)
                .flags(TcpFlags::PSH_ACK)
                .build(),
        );
        assert!(run_batch(&mut sw, &pkts).iter().all(Vec::is_empty));
        let (dump, reports) = end_window_checked(&mut sw);
        assert_eq!(dump.tuples.len(), 1);
        let r = &reports[0];
        assert_eq!(r.kind, ReportKind::WindowDump);
        assert_eq!(r.columns[0], ("dIP".into(), 0x0a0000aa));
        assert_eq!(r.columns[1], ("count".into(), 5));
        assert_eq!(dump.suppressed, 1); // the single-SYN host
        assert_eq!(sw.counters().packets_in, 7);
        assert_eq!(sw.counters().total_to_stream_processor(), 1);
    }

    #[test]
    fn deferred_thresholds_dump_raw_partials_or_the_distinct_set() {
        // No upstream `distinct`: the reduce partials leave raw —
        // unthresholded, entering at the reduce, not counted as
        // delivered.
        let mut sw = load_query1(3);
        sw.set_defer_dump_thresholds(true);
        let mut pkts: Vec<Packet> = (0..5).map(|i| syn(100 + i, 0xaa)).collect();
        pkts.push(syn(7, 0xbb));
        run_batch(&mut sw, &pkts);
        let (dump, reports) = end_window_checked(&mut sw);
        assert_eq!((dump.suppressed, reports.len()), (0, 2));
        assert_eq!(dump.tuples.blocks.len(), 1);
        for r in &reports {
            assert_eq!((r.kind, r.entry_op), (ReportKind::WindowDumpRaw, Some(2)));
        }
        assert_eq!(sw.counters().dump_tuples, 0);

        // Upstream `distinct`: its admitted-key set leaves instead,
        // entering at the distinct.
        let q = catalog::superspreader(&Thresholds::default());
        let sizing = RegisterSizing {
            slots: 64,
            arrays: 2,
            ..Default::default()
        };
        let cp = compile_pipeline(&q.pipeline, t(3), &[0, 1, 3, 4], &[sizing, sizing], 0, 0);
        let mut sw = Switch::load(cp.unwrap().fragment, &SwitchConstraints::default()).unwrap();
        sw.set_defer_dump_thresholds(true);
        run_batch(
            &mut sw,
            &[(1, 10), (1, 11), (1, 10), (2, 10)].map(|(s, d)| syn(s, d)),
        );
        let (dump, reports) = end_window_checked(&mut sw);
        assert_eq!(dump.tuples.blocks.len(), 1);
        let block = &dump.tuples.blocks[0];
        assert_eq!(block.entry_op, Some(1));
        assert_eq!(
            block.names.iter().map(|n| &**n).collect::<Vec<_>>(),
            ["sIP", "dIP"]
        );
        let mut pairs: Vec<(u64, u64)> = (reports.iter())
            .map(|r| (r.columns[0].1, r.columns[1].1))
            .collect();
        pairs.sort_unstable();
        assert_eq!(pairs, [(1, 10), (1, 11), (2, 10)]);
    }

    #[test]
    fn window_reset_clears_counts() {
        let mut sw = load_query1(2);
        run_batch(&mut sw, &[syn(0, 0xaa), syn(1, 0xaa), syn(2, 0xaa)]);
        assert_eq!(sw.end_window().tuples.len(), 1);
        // Next window: 2 SYNs only — below threshold.
        run_batch(&mut sw, &[syn(1, 0xaa), syn(2, 0xaa)]);
        assert_eq!(sw.end_window().tuples.len(), 0);
    }

    #[test]
    fn filter_only_partition_mirrors_matching_packets() {
        let q = catalog::newly_opened_tcp_conns(&Thresholds::default());
        let cp = compile_pipeline(&q.pipeline, t(1), &[0], &[], 0, 0).unwrap();
        let mut sw = Switch::load(cp.fragment, &SwitchConstraints::default()).unwrap();
        let ack = PacketBuilder::tcp_raw(1, 1, 2, 80)
            .flags(TcpFlags::ACK)
            .build();
        let reports = run_batch(&mut sw, &[syn(1, 2), ack]);
        assert_eq!(reports[0].len(), 1);
        assert_eq!(reports[0][0].kind, ReportKind::Tuple);
        assert!(reports[0][0].packet.is_some()); // packet schema -> mirror packet
        assert!(reports[1].is_empty());
        assert_eq!(sw.counters().tuple_reports, 1);
    }

    #[test]
    fn all_sp_partition_mirrors_everything() {
        let q = catalog::newly_opened_tcp_conns(&Thresholds::default());
        let cp = compile_pipeline(&q.pipeline, t(1), &[], &[], 0, 0).unwrap();
        let mut sw = Switch::load(cp.fragment, &SwitchConstraints::default()).unwrap();
        let pkts: Vec<Packet> = (0..10).map(|i| syn(i, 2)).collect();
        for reports in run_batch(&mut sw, &pkts) {
            assert_eq!(reports.len(), 1);
            assert!(reports[0].packet.is_some());
        }
        assert_eq!(sw.counters().tuple_reports, 10);
    }

    #[test]
    fn a_mirrored_record_that_does_not_decode_reports_without_its_packet() {
        // All-SP: the task mirrors every packet. A TCP record cut
        // inside its TCP header parses no TCP field and `decode`
        // rejects it; both entries still run it and mirror it, packet
        // absent.
        let q = catalog::newly_opened_tcp_conns(&Thresholds::default());
        let cp = compile_pipeline(&q.pipeline, t(1), &[], &[], 0, 0).unwrap();
        let load = || Switch::load(cp.fragment.clone(), &SwitchConstraints::default()).unwrap();
        let wire = syn(1, 2).encode();
        let cut = &wire[..20 + 10];
        assert!(Packet::decode(cut).is_err());
        let mut arena = PacketArena::new();
        arena.push_record(7, cut);
        let mut batched = load();
        let mut out = ReportBatch::new();
        batched.process_batch(&arena.batch(), &mut out);
        let got: Vec<Report> = (out.packet_reports(0, arena.batch()))
            .map(|r| r.to_report())
            .collect();
        let mut reference = load();
        let want = reference.process_reference(arena.view(0));
        assert_eq!(got, want);
        assert_eq!(want.len(), 1);
        assert_eq!((want[0].kind, &want[0].packet), (ReportKind::Tuple, &None));
        for sw in [&batched, &reference] {
            let c = sw.counters();
            assert_eq!((c.packets_in, c.tuple_reports), (1, 1));
        }
    }

    #[test]
    fn shunted_packets_are_reported() {
        let q = catalog::newly_opened_tcp_conns(&Thresholds {
            new_tcp: 0,
            ..Default::default()
        });
        let cp = compile_pipeline(
            &q.pipeline,
            t(1),
            &[0, 1, 2],
            &[RegisterSizing {
                slots: 1,
                arrays: 1,
                ..Default::default()
            }], // 1 slot: collisions certain
            0,
            0,
        )
        .unwrap();
        let mut sw = Switch::load(cp.fragment, &SwitchConstraints::default()).unwrap();
        // Many distinct destinations: the first claims the slot, the
        // rest shunt (unless they hash to the same slot — with one slot
        // everything hashes there).
        let mut shunts = 0;
        let pkts: Vec<Packet> = (0..20).map(|i| syn(1, 1000 + i)).collect();
        for (i, reports) in run_batch(&mut sw, &pkts).into_iter().enumerate() {
            for r in reports {
                assert_eq!(r.kind, ReportKind::Shunt);
                assert_eq!(&*r.columns[0].0, "dIP");
                assert_eq!(r.columns[0].1, (1000 + i) as u64);
                shunts += 1;
            }
        }
        assert_eq!(shunts, 19);
        let (dump, reports) = end_window_checked(&mut sw);
        assert_eq!(dump.tuples.len(), 1); // only the resident key
        assert_eq!(dump.shunted_packets, 19);
        // Shunts make the dump raw: entered at the reduce, numbered
        // after the window's 19 shunt reports.
        assert_eq!(reports[0].kind, ReportKind::WindowDumpRaw);
        assert_eq!(reports[0].entry_op, Some(2));
        assert_eq!(reports[0].seq, 19);
    }

    #[test]
    fn a_shunting_task_numbers_its_reports_in_packet_order() {
        // Two `distinct`s over tiny registers: the first shunts the
        // pairs it has no room for, the second the destinations, and
        // what both admit is mirrored. The kernel runs one `Update`
        // over every lane before the next, so only merging its shunts
        // with its survivors by packet numbers them as the reference.
        use crate::compile::{max_switch_units, table_specs};
        use sonata_packet::Field;
        use sonata_query::expr::{col, field};
        let q = sonata_query::Query::builder("two_distincts", 9)
            .map([
                ("sIP", field(Field::Ipv4Src)),
                ("dIP", field(Field::Ipv4Dst)),
            ])
            .distinct()
            .map([("dIP", col("dIP"))])
            .distinct()
            .build()
            .unwrap();
        let specs = table_specs(&q.pipeline);
        let units = &specs[..max_switch_units(&specs)];
        let stages: Vec<usize> = (units.iter())
            .scan(0, |at, s| Some(std::mem::replace(at, *at + s.stage_cost)))
            .collect();
        let sizing = |slots| RegisterSizing {
            slots,
            arrays: 1,
            ..Default::default()
        };
        let cp = compile_pipeline(&q.pipeline, t(9), &stages, &[sizing(3), sizing(2)], 0, 0);
        let program = cp.unwrap().fragment;
        let load = || Switch::load(program.clone(), &SwitchConstraints::default()).unwrap();
        let pkts: Vec<Packet> = (0..40).map(|i| syn(i % 5, 100 + i * 7 % 6)).collect();
        let arena = PacketArena::from_packets(&pkts);
        let mut reference = load();
        let want: Vec<Report> = (0..pkts.len())
            .flat_map(|i| reference.process_reference(arena.view(i)))
            .collect();
        let mut batched = load();
        let mut out = ReportBatch::new();
        batched.process_batch(&arena.batch(), &mut out);

        // One task, so its reports in packet order are numbered 0, 1, …
        // and take every layout: both shunts and the mirror.
        assert!(want.iter().zip(0..).all(|(r, seq)| r.seq == seq));
        let mut runs: Vec<((ReportKind, Option<usize>), usize)> = Vec::new();
        let mut layouts = Vec::new();
        for r in &want {
            match runs.last_mut() {
                Some((l, rows)) if *l == (r.kind, r.entry_op) => *rows += 1,
                _ => runs.push(((r.kind, r.entry_op), 1)),
            }
            if !layouts.contains(&(r.kind, r.entry_op)) {
                layouts.push((r.kind, r.entry_op));
            }
        }
        assert_eq!(layouts.len(), 3, "{runs:?}");
        assert!(runs.len() > 3, "the layouts must interleave: {runs:?}");
        // A block opens exactly where the layout changes.
        let blocks = out.blocks().iter();
        let blocks: Vec<_> = blocks.map(|b| ((b.kind, b.entry_op), b.rows)).collect();
        assert_eq!(blocks, runs);
        let got: Vec<Report> = (0..pkts.len())
            .flat_map(|i| out.packet_reports(i, arena.batch()).map(|r| r.to_report()))
            .collect();
        assert_eq!(got, want);
        let (chunk, next) = out.chunk(0, arena.batch(), usize::MAX).unwrap();
        assert_eq!(next, pkts.len());
        assert_eq!(chunk.reports().collect::<Vec<_>>(), want);
    }

    #[test]
    fn distinct_passes_first_occurrence_only() {
        let q = catalog::superspreader(&Thresholds::default());
        // Partition: map, distinct (last on switch).
        let cp = compile_pipeline(
            &q.pipeline,
            t(3),
            &[0, 1],
            &[RegisterSizing {
                slots: 256,
                arrays: 2,
                ..Default::default()
            }],
            0,
            0,
        )
        .unwrap();
        let mut sw = Switch::load(cp.fragment, &SwitchConstraints::default()).unwrap();
        let pair = |s, d| PacketBuilder::tcp_raw(s, 1, d, 80).build();
        let reports = run_batch(&mut sw, &[pair(7, 9), pair(7, 9), pair(7, 10), pair(8, 9)]);
        // First (7,9) reported, its repeat suppressed, new pairs reported.
        let counts: Vec<usize> = reports.iter().map(Vec::len).collect();
        assert_eq!(counts, [1, 0, 1, 1]);
        // Reports carry the (sIP, dIP) tuple, no packet.
        let r = &reports[3][0];
        assert_eq!(r.columns[0], ("sIP".into(), 8));
        assert_eq!(r.columns[1], ("dIP".into(), 9));
        assert!(r.packet.is_none());
    }

    #[test]
    fn dyn_filter_gates_traffic_and_updates() {
        use sonata_packet::Field;
        use sonata_query::expr::{col, field, lit, Pred};
        let q = sonata_query::Query::builder("refined", 4)
            .filter(Pred::in_set(
                field(Field::Ipv4Dst).mask(8),
                std::collections::BTreeSet::new(),
            ))
            .map([("dIP", field(Field::Ipv4Dst)), ("c", lit(1))])
            .reduce(&["dIP"], Agg::Sum, "c")
            .filter(col("c").gt(lit(0)))
            .build()
            .unwrap();
        use sonata_query::Agg;
        let cp = compile_pipeline(
            &q.pipeline,
            t(4),
            &[0, 1, 2],
            &[RegisterSizing {
                slots: 64,
                arrays: 1,
                ..Default::default()
            }],
            0,
            0,
        )
        .unwrap();
        let mut sw = Switch::load(cp.fragment, &SwitchConstraints::default()).unwrap();
        // Empty filter: nothing passes.
        run_batch(&mut sw, &[syn(1, 0x0a000001)]);
        assert_eq!(sw.end_window().tuples.len(), 0);
        // Allow 10.0.0.0/8.
        let tables = sw.dyn_filter_tables();
        assert_eq!(tables.len(), 1);
        sw.set_dyn_filter(&tables[0].0, [0x0a000000u64].into_iter().collect())
            .unwrap();
        // The second packet's /8 is not admitted.
        run_batch(&mut sw, &[syn(1, 0x0a000001), syn(1, 0x0b000001)]);
        let (dump, reports) = end_window_checked(&mut sw);
        assert_eq!(dump.tuples.len(), 1);
        assert_eq!(reports[0].columns[0].1, 0x0a000001);
    }

    #[test]
    fn set_dyn_filter_errors() {
        let mut sw = load_query1(1);
        assert!(sw.set_dyn_filter("nope", BTreeSet::new()).is_err());
        // query1's first table is a static filter.
        let name = sw.program().tables[0].name.clone();
        assert!(sw.set_dyn_filter(&name, BTreeSet::new()).is_err());
    }

    #[test]
    fn two_queries_coexist() {
        let t1 = t(1);
        let t5 = TaskId {
            query: QueryId(5),
            level: 32,
            branch: 0,
        };
        let q1 = catalog::newly_opened_tcp_conns(&Thresholds {
            new_tcp: 2,
            ..Default::default()
        });
        let q5 = catalog::ddos(&Thresholds {
            ddos: 2,
            ..Default::default()
        });
        let cp1 = compile_pipeline(
            &q1.pipeline,
            t1,
            &[0, 1, 2],
            &[RegisterSizing {
                slots: 128,
                arrays: 2,
                ..Default::default()
            }],
            0,
            0,
        )
        .unwrap();
        let cp5 = compile_pipeline(
            &q5.pipeline,
            t5,
            &[0, 1, 3, 5],
            &[
                RegisterSizing {
                    slots: 128,
                    arrays: 2,
                    ..Default::default()
                },
                RegisterSizing {
                    slots: 128,
                    arrays: 2,
                    ..Default::default()
                },
            ],
            cp1.fragment.meta_slots,
            10,
        )
        .unwrap();
        let mut program = cp1.fragment;
        program.merge(cp5.fragment);
        let mut sw = Switch::load(program, &SwitchConstraints::default()).unwrap();
        // 4 SYNs from distinct sources to one host: triggers both
        // queries (4 new conns; 4 distinct sources).
        let pkts: Vec<Packet> = (0..4).map(|i| syn(100 + i, 0xaa)).collect();
        run_batch(&mut sw, &pkts);
        let (_, reports) = end_window_checked(&mut sw);
        let q1_tuples: Vec<_> = reports.iter().filter(|r| r.task == t1).collect();
        let q5_tuples: Vec<_> = reports.iter().filter(|r| r.task == t5).collect();
        assert_eq!(q1_tuples.len(), 1);
        assert_eq!(q1_tuples[0].columns[1].1, 4);
        assert_eq!(q5_tuples.len(), 1);
        assert_eq!(q5_tuples[0].columns[1].1, 4);
    }

    /// q1 and q5 compiled at the given metadata/register bases and
    /// merged — with clashing bases, two tasks that are not
    /// independent.
    fn load_two_tasks(meta_base: usize, reg_base: u32) -> Switch {
        let sizing = RegisterSizing {
            slots: 16,
            arrays: 1,
            ..Default::default()
        };
        let q1 = catalog::newly_opened_tcp_conns(&Thresholds::default());
        let q5 = catalog::ddos(&Thresholds::default());
        let cp1 = compile_pipeline(&q1.pipeline, t(1), &[0, 1, 2], &[sizing], 0, 0).unwrap();
        let cp5 = compile_pipeline(
            &q5.pipeline,
            t(5),
            &[0, 1, 3, 5],
            &[sizing, sizing],
            meta_base,
            reg_base,
        )
        .unwrap();
        let mut program = cp1.fragment;
        program.merge(cp5.fragment);
        Switch::load(program, &SwitchConstraints::default()).unwrap()
    }

    #[test]
    fn lowering_accepts_independent_tasks() {
        load_two_tasks(8, 10);
    }

    #[test]
    #[should_panic(expected = "both write metadata slot m0")]
    fn lowering_rejects_tasks_sharing_a_metadata_slot() {
        load_two_tasks(0, 10);
    }

    #[test]
    #[should_panic(expected = "both update register r0")]
    fn lowering_rejects_tasks_sharing_a_register() {
        load_two_tasks(8, 0);
    }

    fn load_filter_only() -> Switch {
        let q = catalog::newly_opened_tcp_conns(&Thresholds::default());
        let cp = compile_pipeline(&q.pipeline, t(1), &[0], &[], 0, 0).unwrap();
        Switch::load(cp.fragment, &SwitchConstraints::default()).unwrap()
    }

    #[test]
    fn reports_carry_per_task_window_sequence_numbers() {
        let mut sw = load_filter_only();
        let pkts: Vec<Packet> = (0..3).map(|i| syn(i, 2)).collect();
        for (i, r) in run_batch(&mut sw, &pkts).iter().enumerate() {
            assert_eq!(r.len(), 1);
            assert_eq!(r[0].seq, i as u64);
        }
        sw.end_window();
        // Sequence numbers restart per window.
        assert_eq!(run_batch(&mut sw, &[syn(9, 2)])[0][0].seq, 0);
    }

    #[test]
    fn batch_execution_matches_the_reference_interpreter() {
        // Same program, same packets: process_batch and the tree-walking
        // reference must agree on every report (order, columns, seq,
        // mirrored packets), the window dump, and all counters —
        // including shunt-heavy registers and scratch reuse across
        // windows.
        for sizing in [
            RegisterSizing {
                slots: 512,
                arrays: 2,
                ..Default::default()
            },
            RegisterSizing {
                slots: 1,
                arrays: 1,
                ..Default::default()
            },
        ] {
            let q = catalog::newly_opened_tcp_conns(&Thresholds {
                new_tcp: 1,
                ..Thresholds::default()
            });
            let load = |sizing| {
                let cp = compile_pipeline(&q.pipeline, t(1), &[0, 1, 2], &[sizing], 0, 0).unwrap();
                Switch::load(cp.fragment, &SwitchConstraints::default()).unwrap()
            };
            let mut reference = load(sizing);
            let mut batched = load(sizing);
            // The leading SYN filter is hoisted into the gate: mix in
            // non-SYN packets so gating actually skips some.
            let pkts: Vec<Packet> = (0..60)
                .map(|i| {
                    if i % 3 == 0 {
                        PacketBuilder::tcp_raw(i, 1, 0xaa + (i % 5), 80)
                            .flags(TcpFlags::PSH_ACK)
                            .build()
                    } else {
                        syn(i % 7, 0xaa + (i % 5))
                    }
                })
                .collect();
            assert!(
                matches!(
                    batched.plan.kernels[0].lead[..],
                    [LeadFilter::Static { .. }]
                ),
                "leading SYN filter must be hoisted"
            );
            let arena = PacketArena::from_packets(&pkts);
            let mut out = ReportBatch::new();
            for w in 0..2 {
                let per_pkt: Vec<Vec<Report>> = (0..pkts.len())
                    .map(|i| reference.process_reference(arena.view(i)))
                    .collect();
                batched.process_batch(&arena.batch(), &mut out);
                assert_eq!(out.packets(), pkts.len());
                for (i, want) in per_pkt.iter().enumerate() {
                    let got: Vec<Report> = out
                        .packet_reports(i, arena.batch())
                        .map(|r| r.to_report())
                        .collect();
                    assert_eq!(&got, want, "window {w} packet {i}");
                }
                assert_eq!(batched.end_window(), reference.end_window(), "window {w}");
                assert_eq!(
                    batched.counters().packets_in,
                    reference.counters().packets_in
                );
                assert_eq!(
                    batched.counters().total_to_stream_processor(),
                    reference.counters().total_to_stream_processor()
                );
            }
        }
    }

    #[test]
    fn batch_gate_observes_dyn_filter_updates() {
        use sonata_packet::Field;
        use sonata_query::expr::{field, lit, Pred};
        use sonata_query::{expr::col, Agg};
        // The hoisted dyn-filter gate must read entries live: a
        // control-plane update between windows takes effect on the
        // batch path exactly as on the reference.
        let q = sonata_query::Query::builder("refined", 4)
            .filter(Pred::in_set(
                field(Field::Ipv4Dst).mask(8),
                std::collections::BTreeSet::new(),
            ))
            .map([("dIP", field(Field::Ipv4Dst)), ("c", lit(1))])
            .reduce(&["dIP"], Agg::Sum, "c")
            .filter(col("c").gt(lit(0)))
            .build()
            .unwrap();
        let load = || {
            let cp = compile_pipeline(
                &q.pipeline,
                t(4),
                &[0, 1, 2],
                &[RegisterSizing {
                    slots: 64,
                    arrays: 1,
                    ..Default::default()
                }],
                0,
                0,
            )
            .unwrap();
            Switch::load(cp.fragment, &SwitchConstraints::default()).unwrap()
        };
        let mut reference = load();
        let mut batched = load();
        assert!(
            matches!(batched.plan.kernels[0].lead[..], [LeadFilter::Dyn { .. }]),
            "the leading dyn filter must be hoisted"
        );
        let pkts = vec![syn(1, 0x0a000001), syn(1, 0x0b000001)];
        let arena = PacketArena::from_packets(&pkts);
        let mut out = ReportBatch::new();
        // Window 1: empty pass-when-empty dyn filter admits nothing...
        // (pass_when_empty is false for refinement filters) — both
        // entries must agree either way.
        reference.process_reference(arena.view(0));
        reference.process_reference(arena.view(1));
        batched.process_batch(&arena.batch(), &mut out);
        assert_eq!(batched.end_window(), reference.end_window());
        // Control-plane update between windows: admit 10.0.0.0/8.
        for sw in [&mut reference, &mut batched] {
            let tables = sw.dyn_filter_tables();
            sw.set_dyn_filter(&tables[0].0, [0x0a000000u64].into_iter().collect())
                .unwrap();
        }
        let per_pkt: Vec<Vec<Report>> = (0..pkts.len())
            .map(|i| reference.process_reference(arena.view(i)))
            .collect();
        batched.process_batch(&arena.batch(), &mut out);
        for (i, want) in per_pkt.iter().enumerate() {
            let got: Vec<Report> = out
                .packet_reports(i, arena.batch())
                .map(|r| r.to_report())
                .collect();
            assert_eq!(&got, want, "packet {i}");
        }
        assert_eq!(batched.end_window(), reference.end_window());
    }

    #[test]
    fn batch_execution_matches_the_reference_on_merged_program() {
        // Multi-query program exercising every report path at once:
        // q1 window-dumps via a roomy register, q5 shunts via 1-slot
        // registers (and leads with a Map, so the gate degenerates to
        // all-pass), q9 is filter-only and mirrors packets
        // (a packet mask: the batch path must attach arena-decoded
        // packets identical to the reference's decode).
        let t5 = TaskId {
            query: QueryId(5),
            level: 32,
            branch: 0,
        };
        let t9 = TaskId {
            query: QueryId(9),
            level: 32,
            branch: 0,
        };
        let load = || {
            let q1 = catalog::newly_opened_tcp_conns(&Thresholds {
                new_tcp: 2,
                ..Default::default()
            });
            let q5 = catalog::ddos(&Thresholds {
                ddos: 0,
                ..Default::default()
            });
            let q9 = catalog::newly_opened_tcp_conns(&Thresholds::default());
            let cp1 = compile_pipeline(
                &q1.pipeline,
                t(1),
                &[0, 1, 2],
                &[RegisterSizing {
                    slots: 128,
                    arrays: 2,
                    ..Default::default()
                }],
                0,
                0,
            )
            .unwrap();
            let cp5 = compile_pipeline(
                &q5.pipeline,
                t5,
                &[0, 1, 3, 5],
                &[
                    RegisterSizing {
                        slots: 1,
                        arrays: 1,
                        ..Default::default()
                    },
                    RegisterSizing {
                        slots: 1,
                        arrays: 1,
                        ..Default::default()
                    },
                ],
                cp1.fragment.meta_slots,
                10,
            )
            .unwrap();
            let cp9 = compile_pipeline(
                &q9.pipeline,
                t9,
                &[0],
                &[],
                cp1.fragment.meta_slots + cp5.fragment.meta_slots,
                20,
            )
            .unwrap();
            let mut program = cp1.fragment;
            program.merge(cp5.fragment);
            program.merge(cp9.fragment);
            Switch::load(program, &SwitchConstraints::default()).unwrap()
        };
        let mut reference = load();
        let mut batched = load();
        assert!(
            batched.plan.kernels.iter().any(|k| k.lead.is_empty()),
            "q5 leads with a Map, so its task has no leading filter"
        );
        let pkts: Vec<Packet> = (0..8).map(|i| syn(100 + i, 0xaa)).collect();
        let arena = PacketArena::from_packets(&pkts);
        let mut out = ReportBatch::new();
        let per_pkt: Vec<Vec<Report>> = (0..pkts.len())
            .map(|i| reference.process_reference(arena.view(i)))
            .collect();
        batched.process_batch(&arena.batch(), &mut out);
        let mut saw_packet = false;
        let mut saw_shunt = false;
        for (i, want) in per_pkt.iter().enumerate() {
            let got: Vec<Report> = out
                .packet_reports(i, arena.batch())
                .map(|r| r.to_report())
                .collect();
            saw_packet |= got.iter().any(|r| r.packet.is_some());
            saw_shunt |= got.iter().any(|r| r.kind == ReportKind::Shunt);
            assert_eq!(&got, want, "packet {i}");
        }
        assert!(saw_packet, "q9 must mirror packets");
        assert!(saw_shunt, "q5 must shunt");
        assert_eq!(batched.end_window(), reference.end_window());
        assert_eq!(
            batched.counters().per_task,
            reference.counters().per_task,
            "per-task counters must attribute identically"
        );
    }

    #[test]
    fn merged_program_attributes_counters_to_the_right_task() {
        // Three tasks in one program with deliberately different report
        // paths: q1 dumps via a roomy register, q5 shunts via a 1-slot
        // register, q9 mirrors per-packet tuples (filter-only).
        let t1 = t(1);
        let t5 = TaskId {
            query: QueryId(5),
            level: 32,
            branch: 0,
        };
        let t9 = TaskId {
            query: QueryId(9),
            level: 32,
            branch: 0,
        };
        let q1 = catalog::newly_opened_tcp_conns(&Thresholds {
            new_tcp: 2,
            ..Default::default()
        });
        let q5 = catalog::ddos(&Thresholds {
            ddos: 0,
            ..Default::default()
        });
        let q9 = catalog::newly_opened_tcp_conns(&Thresholds::default());
        let cp1 = compile_pipeline(
            &q1.pipeline,
            t1,
            &[0, 1, 2],
            &[RegisterSizing {
                slots: 128,
                arrays: 2,
                ..Default::default()
            }],
            0,
            0,
        )
        .unwrap();
        let cp5 = compile_pipeline(
            &q5.pipeline,
            t5,
            &[0, 1, 3, 5],
            &[
                RegisterSizing {
                    slots: 1,
                    arrays: 1,
                    ..Default::default()
                },
                RegisterSizing {
                    slots: 1,
                    arrays: 1,
                    ..Default::default()
                },
            ],
            cp1.fragment.meta_slots,
            10,
        )
        .unwrap();
        let cp9 = compile_pipeline(
            &q9.pipeline,
            t9,
            &[0],
            &[],
            cp1.fragment.meta_slots + cp5.fragment.meta_slots,
            20,
        )
        .unwrap();
        let mut program = cp1.fragment;
        program.merge(cp5.fragment);
        program.merge(cp9.fragment);
        let obs = sonata_obs::ObsHandle::enabled();
        let mut sw = Switch::load_with_obs(program, &SwitchConstraints::default(), &obs).unwrap();
        // 4 SYNs from distinct sources: q1 aggregates on the switch,
        // q5's 1-slot registers shunt the later distinct sources, q9
        // mirrors every SYN as a tuple.
        let pkts: Vec<Packet> = (0..4).map(|i| syn(100 + i, 0xaa)).collect();
        run_batch(&mut sw, &pkts);
        sw.end_window();
        let c = sw.counters();
        let c1 = c.task(&t1);
        let c5 = c.task(&t5);
        let c9 = c.task(&t9);
        // q1: pure window dump — no shunts, no per-packet tuples.
        assert_eq!(
            (c1.tuple_reports, c1.shunt_reports, c1.dump_tuples),
            (0, 0, 1),
            "q1 {c1:?}"
        );
        // q5: the 1-slot distinct register shunts sources 2..4.
        assert_eq!(c5.tuple_reports, 0, "q5 {c5:?}");
        assert!(c5.shunt_reports > 0, "q5 must shunt: {c5:?}");
        // q9: filter-only partition mirrors all 4 SYNs.
        assert_eq!(
            (c9.tuple_reports, c9.shunt_reports, c9.dump_tuples),
            (4, 0, 0),
            "q9 {c9:?}"
        );
        // Per-task splits must add up to the aggregate counters.
        let split_total: u64 = c.per_task.iter().map(|(_, tc)| tc.total()).sum();
        assert_eq!(split_total, c.total_to_stream_processor());
        // The obs registry must agree with SwitchCounters exactly.
        let snap = obs.snapshot();
        assert_eq!(
            snap.counter("sonata_switch_packets_total"),
            Some(c.packets_in)
        );
        for (task, tc) in &c.per_task {
            for (kind, want) in [
                ("tuple", tc.tuple_reports),
                ("shunt", tc.shunt_reports),
                ("dump", tc.dump_tuples),
            ] {
                let key = format!("sonata_switch_reports_total{{task=\"{task}\",kind=\"{kind}\"}}");
                assert_eq!(snap.counter(&key), Some(want), "{key}");
            }
        }
    }

    /// The resource model describes the simulation: every exact
    /// register of the top-8 queries, refined to each level and
    /// unrefined, holds per slot less than one 32-bit word per stored
    /// word more than the `key_bits + value_bits` it is charged.
    #[test]
    fn registers_hold_the_bits_the_resource_model_charges() {
        use sonata_planner::refine::refine_query;
        let sizing = RegisterSizing {
            slots: 4096,
            arrays: 2,
            ..Default::default()
        };
        let (mut simulated, mut charged) = (0u64, 0u64);
        for q in catalog::top8(&Thresholds::default()) {
            let refined = [8, 16, 24, 32].map(|l| refine_query(&q, l, None));
            for q in refined.iter().chain([&q]) {
                let right = q.join.as_ref().map(|j| &j.right);
                for pipeline in std::iter::once(&q.pipeline).chain(right) {
                    let specs = table_specs(pipeline);
                    let k = max_switch_units(&specs);
                    let stages: Vec<usize> = (specs.iter().take(k))
                        .scan(0, |at, s| Some(std::mem::replace(at, *at + s.stage_cost)))
                        .collect();
                    let stateful = specs.iter().take(k).filter(|s| s.stateful).count();
                    let cp =
                        compile_pipeline(pipeline, t(1), &stages, &vec![sizing; stateful], 0, 0)
                            .unwrap();
                    let sw = Switch::load(cp.fragment, &SwitchConstraints::default()).unwrap();
                    for (decl, state) in sw.program.registers.iter().zip(&sw.registers) {
                        let RegisterState::Exact(r) = state else {
                            unreachable!("the default layout is exact")
                        };
                        let slots = (decl.slots * decl.arrays) as u64;
                        let want = (decl.key_bits + decl.value_bits) as u64;
                        let (bits, words) = (r.bits(), r.bits() / slots / 32);
                        assert!(bits < slots * (want + 32 * words), "{} {decl:?}", q.name);
                        assert!(bits * 100 <= slots * want * 135, "{} {decl:?}", q.name);
                        (simulated, charged) = (simulated + bits, charged + slots * want);
                    }
                }
            }
        }
        let ratio = simulated as f64 / charged as f64;
        assert!(
            (1.0..1.10).contains(&ratio),
            "simulated / charged = {ratio:.3}"
        );
    }

    /// The field mask of every header field `sw`'s batch plan reads
    /// (leading clauses and dyn keys, step and report expressions),
    /// and of those the leading filters read alone.
    fn fields_read(sw: &Switch) -> (u32, u32) {
        let (plan, g) = (&sw.plan, &sw.plan.gates);
        let mut lead: Vec<ExprRef> = g.clauses.iter().flat_map(|c| [c.a, c.b]).collect();
        lead.extend(&g.dyn_keys);
        let mut all = lead.clone();
        for k in &plan.kernels {
            for step in &k.steps {
                match step {
                    StepKind::Filter { rules } => {
                        all.extend(rules.iter().flatten().flat_map(|c| [c.a, c.b]))
                    }
                    StepKind::DynFilter { key, .. } => all.push(*key),
                    StepKind::Update {
                        operand,
                        keys,
                        shunt,
                        ..
                    } => {
                        all.push(*operand);
                        all.extend(keys.iter().chain(&shunt.exprs));
                    }
                }
            }
            all.extend(k.mirror.iter().flat_map(|m| &m.exprs));
        }
        let mask = |es: &[ExprRef]| {
            (es.iter().flat_map(|&e| plan.ops(e))).fold(0u32, |m, op| match op {
                FlatOp::Field(c) => m | 1 << g.fields[*c] as u32,
                _ => m,
            })
        };
        (mask(&all), mask(&lead))
    }

    /// One parse walk extracts every field the plan reads: what a task
    /// reads after its gate is in the parse mask too, so no second,
    /// per-survivor gather is needed — for a SYN-gated query whose key
    /// is read only after the gate, and for the merged top-8 queries at
    /// a dyn-filtered refinement level.
    #[test]
    fn the_parse_mask_holds_every_field_the_plan_reads() {
        use sonata_planner::refine::refine_query;
        let q1 = catalog::newly_opened_tcp_conns(&Thresholds::default());
        let cp = compile_pipeline(&q1.pipeline, t(1), &[0, 1, 2], &[Default::default()], 0, 0);
        let sw = Switch::load(cp.unwrap().fragment, &SwitchConstraints::default()).unwrap();
        let (read, lead) = fields_read(&sw);
        assert_ne!(read, lead, "q1 reads dIP only past its SYN gate");
        assert_eq!(sw.plan.gates.parse_mask, read);

        let mut program = PisaProgram::default();
        let (mut meta_base, mut reg_base) = (0, 0);
        for (i, q) in catalog::top8(&Thresholds::default()).iter().enumerate() {
            let q = refine_query(q, 16, Some((8, Default::default())));
            let right = q.join.as_ref().map(|j| &j.right);
            for (branch, pipeline) in std::iter::once(&q.pipeline).chain(right).enumerate() {
                let specs = table_specs(pipeline);
                let k = max_switch_units(&specs);
                let stages: Vec<usize> = (specs.iter().take(k))
                    .scan(0, |at, s| Some(std::mem::replace(at, *at + s.stage_cost)))
                    .collect();
                let stateful = specs.iter().take(k).filter(|s| s.stateful).count();
                let task = TaskId {
                    query: QueryId(i as u32),
                    level: 16,
                    branch: branch as u8,
                };
                let sizings = vec![RegisterSizing::default(); stateful];
                let cp = compile_pipeline(pipeline, task, &stages, &sizings, meta_base, reg_base)
                    .unwrap();
                meta_base = cp.fragment.meta_slots.max(meta_base);
                reg_base += cp.fragment.registers.len() as u32;
                program.merge(cp.fragment);
            }
        }
        let roomy = SwitchConstraints {
            stateful_per_stage: 64,
            ..Default::default()
        };
        let sw = Switch::load(program, &roomy).unwrap();
        assert!(sw.plan.kernels.len() > 8, "every top-8 branch is a task");
        let (read, lead) = fields_read(&sw);
        assert!(!sw.plan.gates.dyn_keys.is_empty() && read != lead);
        assert_eq!(sw.plan.gates.parse_mask, read);
    }
}
