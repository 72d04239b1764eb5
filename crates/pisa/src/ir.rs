//! The P4-like intermediate representation a Sonata query plan
//! compiles to: a parser specification, metadata layout, register
//! declarations, and stage-assigned match-action tables.

use crate::phv::{MetaRef, Phv};
use sonata_packet::Field;
use sonata_query::expr::CmpOp;
use sonata_query::{Agg, ColName, QueryId};
use sonata_sketch::StateLayout;
use std::collections::BTreeSet;
use std::fmt;

/// Identifies one compiled pipeline instance on the switch: a query,
/// the refinement level it runs at, and which branch of the query
/// (joins compile each sub-query separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId {
    /// The owning query.
    pub query: QueryId,
    /// Refinement level this instance runs at (the field's finest
    /// level means "unrefined": masking at the finest level is the
    /// identity).
    pub level: u8,
    /// Branch: 0 = left/main pipeline, 1 = join's right sub-query.
    pub branch: u8,
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}_r{}_b{}", self.query, self.level, self.branch)
    }
}

/// An identifier of a register allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegId(pub u32);

/// An expression over PHV contents, restricted to what a match-action
/// ALU can compute: copies, constants, masks, shifts, add/sub.
#[derive(Debug, Clone, PartialEq)]
pub enum PhvExpr {
    /// A constant.
    Const(u64),
    /// A parsed header field.
    Field(Field),
    /// A metadata container.
    Meta(MetaRef),
    /// Prefix mask (keep top `level` bits of a 32-bit value).
    Mask(Box<PhvExpr>, u8),
    /// Logical shift right (division by a power of two).
    Shr(Box<PhvExpr>, u32),
    /// Logical shift left (multiplication by a power of two).
    Shl(Box<PhvExpr>, u32),
    /// Wrapping addition.
    Add(Box<PhvExpr>, Box<PhvExpr>),
    /// Saturating subtraction.
    Sub(Box<PhvExpr>, Box<PhvExpr>),
}

impl PhvExpr {
    /// Evaluate against a PHV.
    pub fn eval(&self, phv: &Phv) -> u64 {
        match self {
            PhvExpr::Const(v) => *v,
            PhvExpr::Field(f) => phv.field(*f),
            PhvExpr::Meta(m) => phv.meta(*m),
            PhvExpr::Mask(e, level) => {
                let v = e.eval(phv) as u32;
                let mask = if *level == 0 {
                    0
                } else if *level >= 32 {
                    u32::MAX
                } else {
                    u32::MAX << (32 - *level as u32)
                };
                (v & mask) as u64
            }
            PhvExpr::Shr(e, k) => e.eval(phv) >> k.min(&63),
            PhvExpr::Shl(e, k) => e.eval(phv) << k.min(&63),
            PhvExpr::Add(a, b) => a.eval(phv).wrapping_add(b.eval(phv)),
            PhvExpr::Sub(a, b) => a.eval(phv).saturating_sub(b.eval(phv)),
        }
    }
}

impl fmt::Display for PhvExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhvExpr::Const(v) => write!(f, "{v}"),
            PhvExpr::Field(x) => write!(f, "hdr.{}", x.name()),
            PhvExpr::Meta(m) => write!(f, "meta.m{}", m.0),
            PhvExpr::Mask(e, l) => write!(f, "({e} & pfx{l})"),
            PhvExpr::Shr(e, k) => write!(f, "({e} >> {k})"),
            PhvExpr::Shl(e, k) => write!(f, "({e} << {k})"),
            PhvExpr::Add(a, b) => write!(f, "({a} + {b})"),
            PhvExpr::Sub(a, b) => write!(f, "({a} |-| {b})"),
        }
    }
}

/// A static filter condition: conjunction of comparisons.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MatchSpec {
    /// All clauses must hold (one rule row with multiple columns).
    pub clauses: Vec<(PhvExpr, CmpOp, PhvExpr)>,
}

impl MatchSpec {
    /// Evaluate against a PHV.
    pub fn matches(&self, phv: &Phv) -> bool {
        self.clauses
            .iter()
            .all(|(a, rel, b)| rel.eval_u64(a.eval(phv), b.eval(phv)))
    }
}

/// What a table does when it executes.
#[derive(Debug, Clone, PartialEq)]
pub enum TableKind {
    /// A static filter: on miss, kill the task.
    Filter {
        /// The compiled predicate (disjunction of conjunctions: one
        /// rule row per disjunct).
        rules: Vec<MatchSpec>,
    },
    /// A dynamic filter whose entries the control plane updates at
    /// every window boundary (the refinement feedback loop): the task
    /// survives iff `key ∈ entries`.
    DynFilter {
        /// Key expression (e.g. `dIP masked to the previous level`).
        key: PhvExpr,
        /// Allowed values; starts empty (nothing passes) unless
        /// `pass_when_empty`.
        entries: BTreeSet<u64>,
        /// If true, an empty entry set passes everything — used for
        /// the first (coarsest) refinement level.
        pass_when_empty: bool,
    },
    /// Stateless transform: assign metadata containers.
    Map {
        /// Assignments applied in order.
        assigns: Vec<(MetaRef, PhvExpr)>,
    },
    /// First half of a stateful operator: compute the register key
    /// into metadata (the "index computation" table of Section 3.1.2).
    Hash {
        /// The backing register.
        reg: RegId,
        /// Key parts; stored for collision detection.
        key: Vec<PhvExpr>,
    },
    /// Second half of a stateful operator: read-modify-write the
    /// register (the "update" table).
    Update {
        /// The backing register.
        reg: RegId,
        /// Aggregation function.
        agg: Agg,
        /// Operand expression (the value column).
        operand: PhvExpr,
        /// `distinct` semantics: pass only the first occurrence of a
        /// key, kill repeats (instead of aggregating a count).
        distinct: bool,
        /// If this is the task's last switch table: report one packet
        /// per key (first touch), or per threshold crossing when a
        /// merged threshold is present.
        last_on_switch: bool,
        /// Threshold merged from a following `filter(out > Th)`;
        /// reports exactly when the running value crosses it.
        threshold: Option<u64>,
    },
}

impl TableKind {
    /// Whether the table performs a stateful action (consumes one of
    /// the `A` stateful units of its stage).
    pub fn is_stateful(&self) -> bool {
        matches!(self, TableKind::Update { .. })
    }

    /// Short kind label for codegen and diagnostics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            TableKind::Filter { .. } => "filter",
            TableKind::DynFilter { .. } => "dyn_filter",
            TableKind::Map { .. } => "map",
            TableKind::Hash { .. } => "hash",
            TableKind::Update { .. } => "update",
        }
    }
}

/// A match-action table assigned to a stage.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Unique name, e.g. `q1_r32_b0_t2_map`.
    pub name: String,
    /// The owning task.
    pub task: TaskId,
    /// Pipeline stage (must respect the program's stage count).
    pub stage: usize,
    /// Behavior.
    pub kind: TableKind,
}

/// A register declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct RegisterDecl {
    /// Identifier referenced by Hash/Update tables.
    pub id: RegId,
    /// The owning task.
    pub task: TaskId,
    /// Slots per array (the paper's `n`, estimated from training data).
    pub slots: usize,
    /// Number of differently-hashed arrays (the paper's `d`).
    pub arrays: usize,
    /// Value width in bits.
    pub value_bits: u32,
    /// Stored-key width in bits (for collision detection).
    pub key_bits: u32,
    /// Stage holding the register (co-located with its Update table).
    pub stage: usize,
    /// Physical layout of the state. `Exact` is a keyed hash table;
    /// the sketch layouts reinterpret `slots`/`arrays` as sketch
    /// dimensions (count-min width/depth) and stop charging for
    /// stored keys.
    pub layout: StateLayout,
    /// Expected distinct keys per window (sizes the Bloom admission
    /// state of sketch layouts). `0` means "derive from the exact
    /// table dimensions".
    pub capacity: usize,
}

impl RegisterDecl {
    /// Expected distinct keys per window, defaulting to the table's
    /// total slot count when the planner didn't stamp one.
    pub fn capacity_keys(&self) -> usize {
        if self.capacity > 0 {
            self.capacity
        } else {
            self.slots * self.arrays
        }
    }

    /// Total register memory consumed, in bits.
    ///
    /// Sketch layouts are what make this interesting: a count-min
    /// charges `width × depth` 32-bit counters plus a Bloom admission
    /// filter at [`sonata_sketch::BLOOM_BITS_PER_KEY`] bits per
    /// expected key, and a Bloom `distinct` charges only the
    /// admission bits — neither stores keys, which is where the
    /// capacity multiplier over `Exact` comes from. First-touch keys
    /// are mirrored to the stream processor instead (Sonata already
    /// mirrors first touches for `distinct`), so they cost report
    /// bandwidth, not register SRAM.
    pub fn total_bits(&self) -> u64 {
        match self.layout {
            StateLayout::Exact => {
                self.slots as u64 * self.arrays as u64 * (self.value_bits + self.key_bits) as u64
            }
            StateLayout::CountMin => {
                self.slots as u64 * self.arrays as u64 * sonata_sketch::CM_COUNTER_BITS as u64
                    + sonata_sketch::bloom_bits_for(self.capacity_keys()) as u64
            }
            StateLayout::Bloom => sonata_sketch::bloom_bits_for(self.capacity_keys()) as u64,
            StateLayout::Hll => {
                sonata_sketch::bloom_bits_for(self.capacity_keys()) as u64
                    + ((1u64 << sonata_sketch::HLL_PRECISION) * 8)
            }
        }
    }
}

/// Metadata owned by one task.
#[derive(Debug, Clone, PartialEq)]
pub struct MetaField {
    /// Container index.
    pub slot: MetaRef,
    /// Column name it carries (for the emitter's tuple layout).
    pub name: String,
    /// Declared width in bits (counts against `M`).
    pub bits: u32,
}

/// How a task's results leave the switch.
#[derive(Debug, Clone, PartialEq)]
pub enum ReportMode {
    /// Every packet alive after the task's last table is mirrored to
    /// the monitoring port (partition ends in a stateless table, or in
    /// a `distinct`, which passes first occurrences).
    PerPacket,
    /// The task ends in a `reduce`: results are read from the register
    /// at window end (one tuple per stored key). When no collision
    /// shunted during the window, the merged threshold is applied at
    /// the switch; otherwise the dump is delivered raw and the emitter
    /// adjusts it with the shunted packets before thresholding
    /// (Section 5: the emitter's local key-value store).
    WindowDump {
        /// The register to poll.
        reg: RegId,
        /// Merged threshold: only keys whose aggregate exceeds it are
        /// delivered (applied at the switch on the no-shunt fast path,
        /// by the emitter otherwise).
        threshold: Option<u64>,
        /// Column names of the key parts, in order.
        key_names: Vec<ColName>,
        /// Output column name of the aggregated value.
        value_name: ColName,
        /// The reduce's *input* value column name — the column a dump
        /// tuple must populate when re-entering the pipeline at the
        /// reduce for shunt merging.
        value_input_name: ColName,
        /// Pipeline operator index of the reduce (merge entry point).
        reduce_op: usize,
    },
}

/// Shunt reporting for one stateful unit: where its shunted tuples
/// re-enter the residual pipeline and what they carry.
#[derive(Debug, Clone, PartialEq)]
pub struct ShuntSpec {
    /// The register whose collision produced the shunt.
    pub reg: RegId,
    /// Pipeline operator index of the stateful operator.
    pub entry_op: usize,
    /// Tuple columns `(name, source)` — the operator's input columns,
    /// evaluated from the PHV at shunt time. Names are interned so
    /// per-packet report construction only clones an `Arc`.
    pub columns: Vec<(ColName, PhvExpr)>,
}

/// A task's report configuration: how tuples leave the switch and what
/// they contain.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportSpec {
    /// The task.
    pub task: TaskId,
    /// Delivery mode.
    pub mode: ReportMode,
    /// For [`ReportMode::PerPacket`]: tuple columns `(name, source)`.
    /// Names are interned `ColName`s bound at compile time.
    pub columns: Vec<(ColName, PhvExpr)>,
    /// Per-register shunt layouts (one per stateful unit on the switch).
    pub shunts: Vec<ShuntSpec>,
    /// Mirror the original packet alongside the tuple (the partition
    /// ends while the stream is still raw packets) as the header fields
    /// of this [`field_mask`](sonata_packet::wire::field_mask) — the
    /// fields the stream side reads, fixed at deploy for the whole
    /// program; 0 mirrors no packet.
    pub packet_mask: u32,
}

/// A complete program loadable onto the behavioral model.
#[derive(Debug, Clone, Default)]
pub struct PisaProgram {
    /// Fields the reconfigurable parser extracts.
    pub parse_fields: Vec<Field>,
    /// Total metadata containers (u64 slots) in the PHV.
    pub meta_slots: usize,
    /// Per-task metadata declarations (for `M` accounting).
    pub meta_fields: Vec<(TaskId, Vec<MetaField>)>,
    /// All tables, any order; execution sorts by (stage, insertion).
    pub tables: Vec<Table>,
    /// Register declarations.
    pub registers: Vec<RegisterDecl>,
    /// Report layouts per task.
    pub reports: Vec<ReportSpec>,
    /// Number of tasks (PHV liveness slots); tasks are dense indices
    /// assigned by the compiler, mapped from `TaskId` via `task_index`.
    pub tasks: Vec<TaskId>,
}

impl PisaProgram {
    /// Dense index of a task.
    pub fn task_index(&self, t: TaskId) -> Option<usize> {
        self.tasks.iter().position(|x| *x == t)
    }

    /// Highest stage referenced by any table or register.
    pub fn max_stage(&self) -> usize {
        self.tables
            .iter()
            .map(|t| t.stage)
            .chain(self.registers.iter().map(|r| r.stage))
            .max()
            .unwrap_or(0)
    }

    /// The fields every mirrored packet carries: the union of the
    /// report specs' packet masks.
    pub fn mirror_mask(&self) -> u32 {
        self.reports.iter().fold(0, |m, r| m | r.packet_mask)
    }

    /// Merge another program fragment into this one (distinct tasks).
    pub fn merge(&mut self, other: PisaProgram) {
        for f in other.parse_fields {
            if !self.parse_fields.contains(&f) {
                self.parse_fields.push(f);
            }
        }
        self.meta_slots = self.meta_slots.max(other.meta_slots);
        self.meta_fields.extend(other.meta_fields);
        self.tables.extend(other.tables);
        self.registers.extend(other.registers);
        self.reports.extend(other.reports);
        for t in other.tasks {
            if !self.tasks.contains(&t) {
                self.tasks.push(t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phv_expr_eval() {
        let mut phv = Phv::new(2, 1);
        phv.set_field(Field::Ipv4Dst, 0x0a0b0c0d);
        phv.set_meta(MetaRef(0), 100);
        assert_eq!(PhvExpr::Const(7).eval(&phv), 7);
        assert_eq!(PhvExpr::Field(Field::Ipv4Dst).eval(&phv), 0x0a0b0c0d);
        assert_eq!(PhvExpr::Meta(MetaRef(0)).eval(&phv), 100);
        assert_eq!(
            PhvExpr::Mask(Box::new(PhvExpr::Field(Field::Ipv4Dst)), 16).eval(&phv),
            0x0a0b0000
        );
        assert_eq!(PhvExpr::Shr(Box::new(PhvExpr::Const(32)), 4).eval(&phv), 2);
        assert_eq!(PhvExpr::Shl(Box::new(PhvExpr::Const(2)), 3).eval(&phv), 16);
        assert_eq!(
            PhvExpr::Add(Box::new(PhvExpr::Const(2)), Box::new(PhvExpr::Const(3))).eval(&phv),
            5
        );
        assert_eq!(
            PhvExpr::Sub(Box::new(PhvExpr::Const(2)), Box::new(PhvExpr::Const(3))).eval(&phv),
            0
        );
    }

    #[test]
    fn match_spec_conjunction() {
        let mut phv = Phv::new(0, 1);
        phv.set_field(Field::TcpFlags, 2);
        phv.set_field(Field::TcpDstPort, 80);
        let spec = MatchSpec {
            clauses: vec![
                (
                    PhvExpr::Field(Field::TcpFlags),
                    CmpOp::Eq,
                    PhvExpr::Const(2),
                ),
                (
                    PhvExpr::Field(Field::TcpDstPort),
                    CmpOp::Eq,
                    PhvExpr::Const(80),
                ),
            ],
        };
        assert!(spec.matches(&phv));
        phv.set_field(Field::TcpDstPort, 81);
        assert!(!spec.matches(&phv));
        // Empty spec matches everything.
        assert!(MatchSpec::default().matches(&phv));
    }

    #[test]
    fn register_bits_accounting() {
        let r = RegisterDecl {
            id: RegId(0),
            task: TaskId {
                query: QueryId(1),
                level: 32,
                branch: 0,
            },
            slots: 1024,
            arrays: 2,
            value_bits: 32,
            key_bits: 32,
            stage: 3,
            layout: StateLayout::Exact,
            capacity: 0,
        };
        assert_eq!(r.total_bits(), 1024 * 2 * 64);
        // Sketch layouts stop charging for stored keys: a count-min
        // of the same nominal shape charges 32-bit counters plus the
        // admission filter, a Bloom distinct only the admission bits.
        let cm = RegisterDecl {
            layout: StateLayout::CountMin,
            slots: 136,
            arrays: 4,
            capacity: 1024,
            ..r
        };
        assert_eq!(
            cm.total_bits(),
            136 * 4 * 32 + 1024 * sonata_sketch::BLOOM_BITS_PER_KEY as u64
        );
        let bloom = RegisterDecl {
            layout: StateLayout::Bloom,
            capacity: 2048,
            ..r
        };
        assert_eq!(
            bloom.total_bits(),
            2048 * sonata_sketch::BLOOM_BITS_PER_KEY as u64
        );
        assert!(cm.total_bits() < r.total_bits());
        assert!(bloom.total_bits() < r.total_bits());
    }

    #[test]
    fn program_merge_dedups_fields_and_tasks() {
        let t1 = TaskId {
            query: QueryId(1),
            level: 32,
            branch: 0,
        };
        let mut a = PisaProgram {
            parse_fields: vec![Field::Ipv4Dst],
            tasks: vec![t1],
            ..Default::default()
        };
        let b = PisaProgram {
            parse_fields: vec![Field::Ipv4Dst, Field::TcpFlags],
            tasks: vec![t1],
            ..Default::default()
        };
        a.merge(b);
        assert_eq!(a.parse_fields.len(), 2);
        assert_eq!(a.tasks.len(), 1);
        assert_eq!(a.task_index(t1), Some(0));
    }
}
