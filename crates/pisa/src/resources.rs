//! The data-plane resource model (Section 3.2): metadata (`M`),
//! stateful actions per stage (`A`), register bits per stage (`B`),
//! and pipeline stages (`S`), plus a stateless-table budget per stage.
//!
//! [`SwitchConstraints::check`] validates a program at load time and
//! [`ResourceUsage`] reports how much of each budget a program uses —
//! the same accounting the query planner optimizes against.

use crate::ir::PisaProgram;
use std::fmt;

/// Resource limits of a simulated PISA switch.
///
/// Defaults match the paper's evaluation target: 16 stages, 8 stateful
/// actions per stage, 8 Mb of register memory per stage (with a 4 Mb
/// per-register cap), and an 8 Kb metadata budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchConstraints {
    /// `S`: number of physical stages.
    pub stages: usize,
    /// `A`: stateful actions per stage.
    pub stateful_per_stage: usize,
    /// `B`: register bits per stage.
    pub register_bits_per_stage: u64,
    /// Per-register cap within a stage ("a single stateful operator
    /// can use up to four Mb", Section 6.1).
    pub max_bits_per_register: u64,
    /// `M`: total metadata bits in the PHV.
    pub metadata_bits: u64,
    /// Stateless tables per stage (PISA switches support 100–200
    /// stateless actions per stage, Section 3.2).
    pub stateless_per_stage: usize,
}

impl Default for SwitchConstraints {
    fn default() -> Self {
        SwitchConstraints {
            stages: 16,
            stateful_per_stage: 8,
            register_bits_per_stage: 8_000_000,
            max_bits_per_register: 4_000_000,
            metadata_bits: 8 * 8192,
            stateless_per_stage: 128,
        }
    }
}

impl SwitchConstraints {
    /// Compute a program's usage and validate it against the limits.
    pub fn check(&self, program: &PisaProgram) -> Result<ResourceUsage, ResourceError> {
        let usage = ResourceUsage::of(program, self.stages);
        if usage.stages_used > self.stages {
            return Err(ResourceError::Stages {
                used: usage.stages_used,
                limit: self.stages,
            });
        }
        for (stage, &n) in usage.stateful_by_stage.iter().enumerate() {
            if n > self.stateful_per_stage {
                return Err(ResourceError::StatefulActions {
                    stage,
                    used: n,
                    limit: self.stateful_per_stage,
                });
            }
        }
        for (stage, &bits) in usage.register_bits_by_stage.iter().enumerate() {
            if bits > self.register_bits_per_stage {
                return Err(ResourceError::RegisterBits {
                    stage,
                    used: bits,
                    limit: self.register_bits_per_stage,
                });
            }
        }
        for r in &program.registers {
            if r.total_bits() > self.max_bits_per_register {
                return Err(ResourceError::SingleRegister {
                    register: r.id.0,
                    used: r.total_bits(),
                    limit: self.max_bits_per_register,
                });
            }
        }
        for (stage, &n) in usage.stateless_by_stage.iter().enumerate() {
            if n > self.stateless_per_stage {
                return Err(ResourceError::StatelessTables {
                    stage,
                    used: n,
                    limit: self.stateless_per_stage,
                });
            }
        }
        if usage.metadata_bits > self.metadata_bits {
            return Err(ResourceError::Metadata {
                used: usage.metadata_bits,
                limit: self.metadata_bits,
            });
        }
        // Table order within each task must be strictly increasing in
        // stage (the ILP's C4: an operator cannot precede its inputs).
        let mut last_stage: std::collections::HashMap<crate::ir::TaskId, usize> =
            std::collections::HashMap::new();
        for t in &program.tables {
            if let Some(&prev) = last_stage.get(&t.task) {
                if t.stage <= prev {
                    return Err(ResourceError::StageOrder {
                        table: t.name.clone(),
                        stage: t.stage,
                        previous: prev,
                    });
                }
            }
            last_stage.insert(t.task, t.stage);
        }
        Ok(usage)
    }
}

/// Per-stage and total resource usage of a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceUsage {
    /// Highest stage index used + 1.
    pub stages_used: usize,
    /// Stateful actions per stage.
    pub stateful_by_stage: Vec<usize>,
    /// Stateless tables per stage.
    pub stateless_by_stage: Vec<usize>,
    /// Register bits per stage.
    pub register_bits_by_stage: Vec<u64>,
    /// Total metadata bits across all tasks.
    pub metadata_bits: u64,
}

impl ResourceUsage {
    /// Compute usage for a program, sized to at least `min_stages`.
    pub fn of(program: &PisaProgram, min_stages: usize) -> Self {
        let stages = (program.max_stage() + 1).max(min_stages).max(1);
        let mut stateful = vec![0usize; stages];
        let mut stateless = vec![0usize; stages];
        let mut bits = vec![0u64; stages];
        for t in &program.tables {
            if t.kind.is_stateful() {
                stateful[t.stage] += 1;
            } else {
                stateless[t.stage] += 1;
            }
        }
        for r in &program.registers {
            bits[r.stage] += r.total_bits();
        }
        let metadata_bits: u64 = program
            .meta_fields
            .iter()
            .flat_map(|(_, fs)| fs.iter())
            .map(|f| f.bits as u64)
            .sum();
        let stages_used = if program.tables.is_empty() && program.registers.is_empty() {
            0
        } else {
            program.max_stage() + 1
        };
        ResourceUsage {
            stages_used,
            stateful_by_stage: stateful,
            stateless_by_stage: stateless,
            register_bits_by_stage: bits,
            metadata_bits,
        }
    }

    /// Total register bits across stages.
    pub fn total_register_bits(&self) -> u64 {
        self.register_bits_by_stage.iter().sum()
    }
}

/// A violated resource constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResourceError {
    /// Too many stages.
    Stages {
        /// Stages used.
        used: usize,
        /// The `S` limit.
        limit: usize,
    },
    /// Too many stateful actions in one stage.
    StatefulActions {
        /// The offending stage.
        stage: usize,
        /// Actions placed there.
        used: usize,
        /// The `A` limit.
        limit: usize,
    },
    /// Too many register bits in one stage.
    RegisterBits {
        /// The offending stage.
        stage: usize,
        /// Bits placed there.
        used: u64,
        /// The `B` limit.
        limit: u64,
    },
    /// A single register exceeds the per-register cap.
    SingleRegister {
        /// Register id.
        register: u32,
        /// Its size in bits.
        used: u64,
        /// The cap.
        limit: u64,
    },
    /// Too many stateless tables in one stage.
    StatelessTables {
        /// The offending stage.
        stage: usize,
        /// Tables placed there.
        used: usize,
        /// The limit.
        limit: usize,
    },
    /// Metadata over budget.
    Metadata {
        /// Bits declared.
        used: u64,
        /// The `M` limit.
        limit: u64,
    },
    /// An exact register declares values wider than the 32-bit word
    /// its slots hold them in.
    RegisterValueWidth {
        /// Register id.
        register: u32,
        /// Its declared value width in bits.
        bits: u32,
    },
    /// A task's tables are not in strictly increasing stages.
    StageOrder {
        /// The offending table.
        table: String,
        /// Its stage.
        stage: usize,
        /// The previous table's stage.
        previous: usize,
    },
}

impl fmt::Display for ResourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceError::Stages { used, limit } => {
                write!(f, "program uses {used} stages, switch has {limit}")
            }
            ResourceError::StatefulActions { stage, used, limit } => {
                write!(
                    f,
                    "stage {stage} has {used} stateful actions, limit {limit}"
                )
            }
            ResourceError::RegisterBits { stage, used, limit } => {
                write!(f, "stage {stage} uses {used} register bits, limit {limit}")
            }
            ResourceError::SingleRegister {
                register,
                used,
                limit,
            } => {
                write!(
                    f,
                    "register {register} uses {used} bits, per-register cap {limit}"
                )
            }
            ResourceError::StatelessTables { stage, used, limit } => {
                write!(
                    f,
                    "stage {stage} has {used} stateless tables, limit {limit}"
                )
            }
            ResourceError::Metadata { used, limit } => {
                write!(f, "metadata uses {used} bits, PHV budget {limit}")
            }
            ResourceError::RegisterValueWidth { register, bits } => {
                write!(f, "register {register} has {bits}-bit values, max 32")
            }
            ResourceError::StageOrder {
                table,
                stage,
                previous,
            } => {
                write!(
                    f,
                    "table `{table}` at stage {stage} does not follow its predecessor at stage {previous}"
                )
            }
        }
    }
}

impl std::error::Error for ResourceError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::*;
    use crate::phv::MetaRef;
    use sonata_query::{Agg, QueryId};

    fn task() -> TaskId {
        TaskId {
            query: QueryId(1),
            level: 32,
            branch: 0,
        }
    }

    fn update_table(name: &str, stage: usize, reg: u32) -> Table {
        Table {
            name: name.into(),
            task: task(),
            stage,
            kind: TableKind::Update {
                reg: RegId(reg),
                agg: Agg::Sum,
                operand: PhvExpr::Const(1),
                distinct: false,
                last_on_switch: true,
                threshold: None,
            },
        }
    }

    fn map_table(name: &str, stage: usize) -> Table {
        Table {
            name: name.into(),
            task: task(),
            stage,
            kind: TableKind::Map {
                assigns: vec![(MetaRef(0), PhvExpr::Const(1))],
            },
        }
    }

    fn register(id: u32, stage: usize, slots: usize) -> RegisterDecl {
        RegisterDecl {
            id: RegId(id),
            task: task(),
            slots,
            arrays: 1,
            value_bits: 32,
            key_bits: 32,
            stage,
            layout: crate::registers::StateLayout::Exact,
            capacity: 0,
        }
    }

    #[test]
    fn empty_program_passes() {
        let c = SwitchConstraints::default();
        let usage = c.check(&PisaProgram::default()).unwrap();
        assert_eq!(usage.stages_used, 0);
        assert_eq!(usage.metadata_bits, 0);
    }

    #[test]
    fn stage_overflow_detected() {
        let c = SwitchConstraints {
            stages: 2,
            ..Default::default()
        };
        let mut p = PisaProgram {
            tasks: vec![task()],
            ..Default::default()
        };
        p.tables.push(map_table("t0", 0));
        p.tables.push(map_table("t1", 1));
        assert!(c.check(&p).is_ok());
        p.tables.push(map_table("t2", 2));
        assert_eq!(
            c.check(&p),
            Err(ResourceError::Stages { used: 3, limit: 2 })
        );
    }

    #[test]
    fn stateful_per_stage_enforced() {
        let c = SwitchConstraints {
            stateful_per_stage: 1,
            ..Default::default()
        };
        // Two stateful updates in stage 0 — but they belong to the same
        // task, which also violates ordering; use different tasks.
        let t2 = TaskId {
            query: QueryId(2),
            level: 32,
            branch: 0,
        };
        let mut second = update_table("u2", 0, 1);
        second.task = t2;
        let p = PisaProgram {
            tables: vec![update_table("u1", 0, 0), second],
            tasks: vec![task(), t2],
            ..Default::default()
        };
        assert!(matches!(
            c.check(&p),
            Err(ResourceError::StatefulActions {
                stage: 0,
                used: 2,
                limit: 1
            })
        ));
    }

    #[test]
    fn register_bits_per_stage_enforced() {
        let c = SwitchConstraints {
            register_bits_per_stage: 1000,
            max_bits_per_register: 1000,
            ..Default::default()
        };
        let p = PisaProgram {
            registers: vec![register(0, 0, 10), register(1, 0, 10)],
            tasks: vec![task()],
            ..Default::default()
        };
        // Each register: 10 slots * 64 bits = 640; two in one stage = 1280.
        assert!(matches!(
            c.check(&p),
            Err(ResourceError::RegisterBits {
                stage: 0,
                used: 1280,
                ..
            })
        ));
    }

    #[test]
    fn single_register_cap_enforced() {
        let c = SwitchConstraints {
            register_bits_per_stage: 100_000,
            max_bits_per_register: 1_000,
            ..Default::default()
        };
        let p = PisaProgram {
            registers: vec![register(0, 0, 100)], // 6400 bits
            tasks: vec![task()],
            ..Default::default()
        };
        assert!(matches!(
            c.check(&p),
            Err(ResourceError::SingleRegister { register: 0, .. })
        ));
    }

    #[test]
    fn metadata_budget_enforced() {
        let c = SwitchConstraints {
            metadata_bits: 64,
            ..Default::default()
        };
        let p = PisaProgram {
            meta_fields: vec![(
                task(),
                vec![
                    MetaField {
                        slot: MetaRef(0),
                        name: "dIP".into(),
                        bits: 32,
                    },
                    MetaField {
                        slot: MetaRef(1),
                        name: "count".into(),
                        bits: 64,
                    },
                ],
            )],
            tasks: vec![task()],
            ..Default::default()
        };
        assert_eq!(
            c.check(&p),
            Err(ResourceError::Metadata {
                used: 96,
                limit: 64
            })
        );
    }

    #[test]
    fn stage_order_within_task_enforced() {
        let p = PisaProgram {
            tables: vec![map_table("a", 1), map_table("b", 1)],
            tasks: vec![task()],
            ..Default::default()
        };
        assert!(matches!(
            SwitchConstraints::default().check(&p),
            Err(ResourceError::StageOrder { .. })
        ));
    }

    #[test]
    fn over_wide_exact_register_is_refused_at_load() {
        let mut wide = register(0, 0, 10);
        wide.value_bits = 40;
        let p = PisaProgram {
            registers: vec![wide],
            tasks: vec![task()],
            ..Default::default()
        };
        let err = crate::switch::Switch::load(p, &SwitchConstraints::default()).err();
        assert_eq!(
            err,
            Some(ResourceError::RegisterValueWidth {
                register: 0,
                bits: 40
            })
        );
    }

    #[test]
    fn usage_reports_per_stage() {
        let p = PisaProgram {
            tables: vec![map_table("a", 0), update_table("u", 1, 0)],
            registers: vec![register(0, 1, 100)],
            tasks: vec![task()],
            ..Default::default()
        };
        let usage = SwitchConstraints::default().check(&p).unwrap();
        assert_eq!(usage.stages_used, 2);
        assert_eq!(usage.stateless_by_stage[0], 1);
        assert_eq!(usage.stateful_by_stage[1], 1);
        assert_eq!(usage.register_bits_by_stage[1], 6400);
        assert_eq!(usage.total_register_bits(), 6400);
    }
}
