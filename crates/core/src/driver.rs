//! Drivers: compile a [`GlobalPlan`] to its two targets.
//!
//! The data-plane driver turns every (query × level × branch) into a
//! compiled task in one merged [`PisaProgram`] — allocating metadata
//! slots and register ids globally so tasks never collide — and
//! records, per task, where the stream processor resumes and which
//! dynamic-filter table feeds it. The streaming driver registers each
//! level's refined query with the micro-batch engine under a synthetic
//! job id.

use sonata_packet::wire::ALL_FIELDS;
use sonata_pisa::compile::{compile_pipeline, CompileError};
use sonata_pisa::{PisaProgram, TaskId};
use sonata_planner::GlobalPlan;
use sonata_query::{ColName, Operator, Pipeline, Query, QueryId, Schema};
use std::collections::BTreeMap;

/// One deployed branch task.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// The switch task.
    pub task: TaskId,
    /// The stream job this task feeds.
    pub job: QueryId,
    /// Branch index (0 = left, 1 = right).
    pub branch: u8,
    /// Operator index where per-packet reports and window dumps enter.
    pub resume_op: usize,
    /// The fields per-packet reports carry the original packet as: the
    /// program's mirror mask ([`PisaProgram::mirror_mask`]) when the
    /// task's rows are the packets themselves, 0 when they carry none.
    pub packet_mask: u32,
    /// Schema at the resume entry point.
    pub resume_schema: Schema,
    /// Schemas at every shunt/merge entry point (stateful operator
    /// indices), for reconstructing tuples from report columns.
    pub entry_schemas: BTreeMap<usize, Schema>,
    /// The branch's switch-resident operator prefix — the emitter's
    /// local key-value store replays it to merge collision shunts with
    /// register dumps before thresholding (Section 5).
    pub local_ops: Vec<Operator>,
    /// Name of this branch's dynamic filter table, when the level has
    /// a predecessor.
    pub dynfilter_table: Option<String>,
}

/// One stream job: a (query, level) instance.
#[derive(Debug, Clone)]
pub struct QueryInstance {
    /// Synthetic job id (`query.id × 1000 + level`).
    pub job: QueryId,
    /// The original query id.
    pub source: QueryId,
    /// The refinement level.
    pub level: u8,
    /// The preceding level in the chain.
    pub prev: Option<u8>,
    /// The refined query registered with the engine.
    pub refined: Query,
    /// Output column carrying the (masked) refinement key.
    pub out_col: Option<ColName>,
    /// Whether this is the chain's final level (its outputs are user
    /// results; coarser levels only steer refinement).
    pub is_finest: bool,
}

/// The result of compiling a plan for deployment.
#[derive(Debug, Clone)]
pub struct DeployedPlan {
    /// The merged data-plane program.
    pub program: PisaProgram,
    /// Per-branch deployments.
    pub deployments: Vec<Deployment>,
    /// Per-(query, level) stream jobs.
    pub instances: Vec<QueryInstance>,
}

/// Deployment failure.
#[derive(Debug)]
pub enum DeployError {
    /// A branch prefix failed to compile (planner bug: it validated
    /// the partition).
    Compile {
        /// The task that failed.
        task: TaskId,
        /// The underlying error.
        error: CompileError,
    },
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::Compile { task, error } => {
                write!(f, "compiling task {task} failed: {error}")
            }
        }
    }
}

impl std::error::Error for DeployError {}

/// Synthetic stream-job id for a (query, level) pair.
///
/// The `source × 1000 + level` shape is load-bearing beyond
/// uniqueness: `sonata_faults::FaultPlan::target_query` scopes faults
/// to one source query by inverting this mapping, so refinement jobs
/// inherit their source's fault targeting.
pub fn job_id(query: QueryId, level: u8) -> QueryId {
    QueryId(query.0 * 1000 + level as u32)
}

/// Schema after the first `k` operators of a pipeline.
fn schema_at(pipeline: &Pipeline, k: usize) -> Schema {
    let mut schema = Schema::packet();
    for op in pipeline.ops.iter().take(k) {
        schema = op.output_schema(&schema).unwrap_or(schema);
    }
    schema
}

/// Deterministic digest of a deployed plan's task set, exchanged in
/// the transport `Hello` so a switch and a collector refuse to talk
/// across mismatched deployments (plan/registration sync). Folds each
/// deployment's `(query, level, branch, job, packet mask)` through a
/// splitmix64-style mixer; deployment order is deterministic, so both
/// sides of a wire derive the same value from the same plan, and agree
/// on the fields a mirrored packet carries.
pub fn plan_digest(deployments: &[Deployment]) -> u64 {
    let mut digest: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut mix = |v: u64| {
        digest = digest.wrapping_add(v).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        digest ^= digest >> 31;
    };
    for d in deployments {
        mix(u64::from(d.task.query.0));
        mix(u64::from(d.task.level));
        mix(u64::from(d.task.branch));
        mix(u64::from(d.job.0));
        mix(u64::from(d.packet_mask));
    }
    digest
}

/// Compile a plan into a deployable program plus bookkeeping.
///
/// A mirrored packet leaves the switch as the header fields the stream
/// side reads: one mask for the whole program — a chunk's packets are
/// shared by every task that mirrored them — the union of
/// [`Query::packet_field_mask`] over the query levels with a task whose
/// rows are packets. Each such level's refined query is what its stream
/// job runs, including the `InSet` refinement filter whose entries the
/// runtime rewrites (on the refinement key, which the query reads
/// anyway), so the union holds at any partition point.
pub fn deploy(plan: &GlobalPlan) -> Result<DeployedPlan, DeployError> {
    let mut program = PisaProgram::default();
    let mut deployments = Vec::new();
    let mut instances = Vec::new();
    let mut meta_base = 0usize;
    let mut reg_base = 0u32;
    let mut mask = 0;

    for qp in &plan.queries {
        let chain_len = qp.levels.len();
        for (li, lp) in qp.levels.iter().enumerate() {
            let job = job_id(qp.query.id, lp.level);
            let mut refined = lp.refined.clone();
            // The engine job id must be unique per instance.
            refined.id = job;
            instances.push(QueryInstance {
                job,
                source: qp.query.id,
                level: lp.level,
                prev: lp.prev,
                refined: refined.clone(),
                out_col: qp.query.refinement.as_ref().map(|h| h.out_col.clone()),
                is_finest: li + 1 == chain_len,
            });
            for bp in &lp.branches {
                let task = TaskId {
                    query: qp.query.id,
                    level: lp.level,
                    branch: bp.branch,
                };
                let pipeline: &Pipeline = match bp.branch {
                    0 => &refined.pipeline,
                    _ => &refined.join.as_ref().expect("branch 1 implies join").right,
                };
                let compiled =
                    compile_pipeline(pipeline, task, &bp.stages, &bp.sizings, meta_base, reg_base)
                        .map_err(|error| DeployError::Compile { task, error })?;
                meta_base = compiled.fragment.meta_slots.max(meta_base);
                reg_base += compiled.fragment.registers.len() as u32;
                let dynfilter_table = compiled
                    .fragment
                    .tables
                    .iter()
                    .find(|t| matches!(t.kind, sonata_pisa::TableKind::DynFilter { .. }))
                    .map(|t| t.name.clone());
                let mut entry_schemas = BTreeMap::new();
                for (op, _) in &compiled.shunt_entries {
                    entry_schemas.insert(*op, schema_at(pipeline, *op));
                }
                deployments.push(Deployment {
                    task,
                    job,
                    branch: bp.branch,
                    resume_op: compiled.sp_resume_op,
                    packet_mask: compiled.fragment.mirror_mask(),
                    resume_schema: schema_at(pipeline, compiled.sp_resume_op),
                    entry_schemas,
                    local_ops: pipeline.ops[..compiled.sp_resume_op].to_vec(),
                    dynfilter_table,
                });
                if compiled.report_packet {
                    mask |= refined.packet_field_mask();
                }
                program.merge(compiled.fragment);
            }
        }
    }
    // 0 means "no packet", so mirrors that read no field carry them all.
    if mask == 0 {
        mask = ALL_FIELDS;
    }
    for spec in program.reports.iter_mut().filter(|r| r.packet_mask != 0) {
        spec.packet_mask = mask;
    }
    for d in deployments.iter_mut().filter(|d| d.packet_mask != 0) {
        d.packet_mask = mask;
    }
    Ok(DeployedPlan {
        program,
        deployments,
        instances,
    })
}

/// The pipeline ops of a branch within a query (helper for tests and
/// the emitter).
pub fn branch_pipeline(q: &Query, branch: u8) -> &Pipeline {
    match branch {
        0 => &q.pipeline,
        _ => &q.join.as_ref().expect("branch 1 implies join").right,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emitter::Emitter;
    use sonata_packet::{Packet, PacketArena, PacketBuilder, TcpFlags};
    use sonata_pisa::{ReportBatch, ReportKind, Switch, SwitchConstraints, CHUNK_BYTES};
    use sonata_planner::{plan_queries, PlanMode, PlannerConfig};
    use sonata_query::catalog::{self, Thresholds};

    fn syn(src: u32, dst: u32, ts: u64) -> Packet {
        PacketBuilder::tcp_raw(src, 9, dst, 80)
            .flags(TcpFlags::SYN)
            .ts_nanos(ts)
            .build()
    }

    fn window() -> Vec<Packet> {
        let mut pkts = Vec::new();
        for i in 0..30 {
            pkts.push(syn(100 + i, 0x63070019, i as u64));
        }
        for host in 0..40u32 {
            pkts.push(syn(7, ((host % 20 + 1) << 24) | host, 1000 + host as u64));
        }
        pkts
    }

    fn cfg(mode: PlanMode) -> PlannerConfig {
        PlannerConfig {
            mode,
            cost: sonata_planner::costs::CostConfig {
                levels: Some(vec![8, 32]),
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn deploys_single_query_sonata_plan() {
        let w = window();
        let q = catalog::newly_opened_tcp_conns(&Thresholds {
            new_tcp: 10,
            ..Thresholds::default()
        });
        let plan = plan_queries(&[q], &[&w], &cfg(PlanMode::Sonata)).unwrap();
        let deployed = deploy(&plan).unwrap();
        // One deployment per (level, branch); loads onto the switch.
        assert_eq!(deployed.deployments.len(), plan.queries[0].levels.len());
        let sw = Switch::load(deployed.program.clone(), &SwitchConstraints::default());
        assert!(sw.is_ok(), "{:?}", sw.err());
        // Finest instance flagged.
        let finest: Vec<_> = deployed.instances.iter().filter(|i| i.is_finest).collect();
        assert_eq!(finest.len(), 1);
        assert_eq!(finest[0].level, 32);
        // Later levels carry a dynamic filter.
        if plan.queries[0].levels.len() > 1 {
            let with_filter = deployed
                .deployments
                .iter()
                .filter(|d| d.dynfilter_table.is_some())
                .count();
            assert!(with_filter >= 1);
        }
    }

    #[test]
    fn deploys_eight_queries_without_collisions() {
        let w = window();
        let queries = catalog::top8(&Thresholds::default());
        let plan = plan_queries(&queries, &[&w], &cfg(PlanMode::Sonata)).unwrap();
        let deployed = deploy(&plan).unwrap();
        // Job ids unique per instance.
        let mut jobs: Vec<u32> = deployed.instances.iter().map(|i| i.job.0).collect();
        jobs.sort_unstable();
        let before = jobs.len();
        jobs.dedup();
        assert_eq!(jobs.len(), before);
        // Register ids unique.
        let mut regs: Vec<u32> = deployed.program.registers.iter().map(|r| r.id.0).collect();
        regs.sort_unstable();
        let before = regs.len();
        regs.dedup();
        assert_eq!(regs.len(), before);
        // The merged program respects the default constraints.
        Switch::load(deployed.program, &SwitchConstraints::default()).unwrap();
    }

    #[test]
    fn join_query_deploys_two_branch_tasks_per_level() {
        let w = window();
        let q = catalog::tcp_syn_flood(&Thresholds {
            syn_flood: 5,
            ..Thresholds::default()
        });
        let plan = plan_queries(&[q], &[&w], &cfg(PlanMode::MaxDp)).unwrap();
        let deployed = deploy(&plan).unwrap();
        assert_eq!(deployed.deployments.len(), 2);
        let branches: Vec<u8> = deployed.deployments.iter().map(|d| d.branch).collect();
        assert!(branches.contains(&0) && branches.contains(&1));
        // Both branches feed the same stream job.
        assert_eq!(deployed.deployments[0].job, deployed.deployments[1].job);
        // Entry schemas recorded for the reduce merge points.
        for d in &deployed.deployments {
            assert!(!d.entry_schemas.is_empty());
            assert_eq!(d.local_ops.len(), d.resume_op);
        }
    }

    #[test]
    fn refinement_levels_get_distinct_dynfilter_tables() {
        let w = window();
        let q = catalog::newly_opened_tcp_conns(&Thresholds {
            new_tcp: 10,
            ..Thresholds::default()
        });
        let cfg = PlannerConfig {
            mode: PlanMode::FixRef,
            cost: sonata_planner::costs::CostConfig {
                levels: Some(vec![8, 16, 32]),
                ..Default::default()
            },
            ..PlannerConfig::default()
        };
        let plan = plan_queries(&[q], &[&w], &cfg).unwrap();
        let deployed = deploy(&plan).unwrap();
        // Levels 16 and 32 carry dynamic filters; level 8 does not.
        let mut with = Vec::new();
        for d in &deployed.deployments {
            if let Some(t) = &d.dynfilter_table {
                with.push((d.task.level, t.clone()));
            } else {
                assert_eq!(d.task.level, 8);
            }
        }
        let mut levels: Vec<u8> = with.iter().map(|(l, _)| *l).collect();
        levels.sort_unstable();
        assert_eq!(levels, vec![16, 32]);
        // Table names are distinct.
        let mut names: Vec<String> = with.into_iter().map(|(_, t)| t).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 2);
    }

    #[test]
    fn job_ids_are_stable_and_recoverable() {
        use sonata_query::QueryId;
        assert_eq!(job_id(QueryId(3), 8), QueryId(3008));
        assert_eq!(job_id(QueryId(3), 32), QueryId(3032));
        assert_ne!(job_id(QueryId(3), 8), job_id(QueryId(4), 8));
    }

    #[test]
    fn all_sp_plan_has_no_tables_but_reports_everything() {
        let w = window();
        let q = catalog::newly_opened_tcp_conns(&Thresholds::default());
        let plan = plan_queries(&[q], &[&w], &cfg(PlanMode::AllSp)).unwrap();
        let deployed = deploy(&plan).unwrap();
        assert!(deployed.program.tables.is_empty());
        assert_eq!(deployed.deployments[0].resume_op, 0);
        assert_ne!(deployed.deployments[0].packet_mask, 0);
        let mut sw = Switch::load(deployed.program, &SwitchConstraints::default()).unwrap();
        let arena = PacketArena::from_packets(&[syn(1, 2, 0)]);
        let mut out = ReportBatch::new();
        sw.process_batch(&arena.batch(), &mut out);
        assert_eq!(out.total_reports(), 1);
    }

    #[test]
    fn a_mirrored_record_that_does_not_decode_is_counted_malformed() {
        // All-SP mirrors every packet for a packet-report task. A TCP
        // record cut inside its TCP header still runs on both switch
        // entries and is mirrored without its packet; the emitter
        // cannot place such a row and counts it malformed.
        let w = window();
        let q = catalog::newly_opened_tcp_conns(&Thresholds::default());
        let plan = plan_queries(&[q], &[&w], &cfg(PlanMode::AllSp)).unwrap();
        let deployed = deploy(&plan).unwrap();
        let load = || Switch::load(deployed.program.clone(), &SwitchConstraints::default());
        let mut arena = PacketArena::new();
        arena.push_record(0, &syn(1, 2, 0).encode()[..30]);

        let mut out = ReportBatch::new();
        load().unwrap().process_batch(&arena.batch(), &mut out);
        let (chunk, next) = out.chunk(0, arena.batch(), CHUNK_BYTES).unwrap();
        assert_eq!(next, out.packets());
        let mut batched = Emitter::new(&deployed.deployments);
        batched.ingest_blocks(chunk);

        let reports = load().unwrap().process_reference(arena.view(0));
        assert_eq!(reports.len(), 1);
        assert_eq!(
            (reports[0].kind, &reports[0].packet),
            (ReportKind::Tuple, &None)
        );
        let mut reference = Emitter::new(&deployed.deployments);
        for r in &reports {
            reference.ingest(r);
        }
        for e in [&mut batched, &mut reference] {
            e.close_window().unwrap();
            assert_eq!((e.received.last, e.malformed.last), (1, 1));
            assert_eq!(e.forwarded.last, 0);
        }
    }
}
