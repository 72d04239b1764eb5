//! The paper's query-planning ILP (Sections 3.3 and 4.2), built on the
//! `sonata-ilp` solver.
//!
//! Decision variables follow the paper:
//!
//! * `F_{q,r₁,r₂}` — level `r₂` executes after `r₁` in query `q`'s
//!   refinement chain (`r₁ = *` for the first level); the paper's
//!   `I_{q,r}` is the inflow `Σ_{r₁} F_{q,r₁,r}`;
//! * `P_{q,t,b,k}` — branch `b` of transition `t` partitions after
//!   unit `k` (the paper's `P_{q,t}` per table, at unit granularity);
//! * `X_{q,t,b,u,s}` — unit `u` executes with its first table in stage
//!   `s` (the paper's `X_{q,t,s}` / `S_{q,t}`).
//!
//! Constraints C1–C5 (register bits, stateful actions, stage count,
//! intra-query order, metadata) bind per stage across everything
//! installed concurrently; join sub-queries share the chain because
//! `F` is per query; `Σ_r I_{q,r} ≤ D_q` bounds detection delay. The
//! objective minimizes `Σ P·N` — tuples at the stream processor.
//!
//! The instance grows as queries × transitions × units × stages; like
//! the paper (which caps Gurobi at 20 minutes and takes the best
//! feasible plan), callers bound the solve with [`SolveOptions`].

use crate::costs::QueryCosts;
use crate::plan::{BranchPlan, GlobalPlan, LevelPlan, PlanMode, QueryPlan};
use crate::strategies::PlannerConfig;
use sonata_ilp::{Model, Sense, Solution, SolveError, SolveOptions, VarId};
use sonata_obs::{EventKind, Stage};
use sonata_pisa::compile::RegisterSizing;
use sonata_query::Query;
use std::collections::{BTreeMap, BTreeSet};

/// ILP planning failure.
#[derive(Debug)]
pub enum IlpPlanError {
    /// The solver failed (infeasible models indicate a bug: partition
    /// 0 everywhere is always feasible).
    Solve(SolveError),
}

impl std::fmt::Display for IlpPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IlpPlanError::Solve(e) => write!(f, "ILP solve failed: {e}"),
        }
    }
}

impl std::error::Error for IlpPlanError {}

type TransKey = (Option<u8>, u8);

struct TransVars {
    f: VarId,
    /// per branch: partition vars by k, and per unit placement vars by stage.
    p: Vec<Vec<(usize, VarId)>>,
    x: Vec<Vec<Vec<(usize, VarId)>>>, // branch → unit → (stage, var)
}

/// Solve the joint partitioning + refinement ILP and extract a plan.
pub fn plan_ilp(
    queries: &[Query],
    all_costs: &[QueryCosts],
    cfg: &PlannerConfig,
    opts: &SolveOptions,
) -> Result<GlobalPlan, IlpPlanError> {
    let _compile = cfg.obs.stage(Stage::PlanCompile, 0);
    let (model, vars) = build_model(queries, all_costs, cfg);
    let solve_timer = cfg.obs.stage(Stage::IlpSolve, 0);
    let solution = model.solve_with(opts).map_err(IlpPlanError::Solve)?;
    drop(solve_timer);
    if cfg.obs.is_enabled() {
        cfg.obs.event(EventKind::IlpSolve {
            nodes: solution.nodes as u64,
            pivots: solution.pivots,
            wall_ns: solution.wall.as_nanos() as u64,
            objective: solution.objective,
        });
    }
    Ok(extract_plan(queries, all_costs, cfg, &vars, &solution))
}

/// Build the ILP instance — variables and constraints C1–C5 — for the
/// whole query set.
fn build_model(
    queries: &[Query],
    all_costs: &[QueryCosts],
    cfg: &PlannerConfig,
) -> (Model, Vec<BTreeMap<TransKey, TransVars>>) {
    let s_max = cfg.constraints.stages;
    let mut model = Model::new(Sense::Minimize);
    let mut vars: Vec<BTreeMap<TransKey, TransVars>> = Vec::new();

    // Pre-compute meta bits per (query, transition, branch, k).
    let meta_of = |q: &Query, costs: &QueryCosts, key: TransKey, b: usize, k: usize| -> u64 {
        let refined = costs.refined_with_thresholds(q, key.1, key.0.map(|p| (p, BTreeSet::new())));
        let pipeline = crate::strategies::branch_pipeline(&refined, b);
        let units = sonata_pisa::compile::table_specs(pipeline);
        crate::strategies::meta_bits_for(pipeline, &units, k)
    };

    for (qi, (_q, costs)) in queries.iter().zip(all_costs).enumerate() {
        let mut per_trans = BTreeMap::new();
        for (&key, t) in &costs.transitions {
            let f = model.bin_var(&format!("f_q{qi}_{key:?}"), 0.0);
            let mut p_all = Vec::new();
            let mut x_all = Vec::new();
            for (b, bc) in t.branches.iter().enumerate() {
                // Candidate partitions: skip k whose stateful units
                // exceed the per-register cap.
                let mut p_b = Vec::new();
                for k in 0..=bc.max_units {
                    let mut reg_ok = true;
                    let mut si = 0;
                    for u in bc.units.iter().take(k) {
                        if u.stateful {
                            if bc.register_bits_with(si, cfg.cost.headroom, cfg.d, &cfg.cost.sketch)
                                > cfg.constraints.max_bits_per_register
                            {
                                reg_ok = false;
                            }
                            si += 1;
                        }
                    }
                    if !reg_ok {
                        continue;
                    }
                    let n = bc.n[k];
                    let v = model.bin_var(&format!("p_q{qi}_{key:?}_b{b}_k{k}"), n);
                    p_b.push((k, v));
                }
                // Placement vars per unit and stage.
                let mut x_b = Vec::new();
                for (u, unit) in bc.units.iter().take(bc.max_units).enumerate() {
                    let mut x_u = Vec::new();
                    let top = if unit.stateful {
                        s_max.saturating_sub(1)
                    } else {
                        s_max
                    };
                    for s in 0..top {
                        let v = model.bin_var(&format!("x_q{qi}_{key:?}_b{b}_u{u}_s{s}"), 0.0);
                        x_u.push((s, v));
                    }
                    x_b.push(x_u);
                }
                p_all.push(p_b);
                x_all.push(x_b);
            }
            per_trans.insert(
                key,
                TransVars {
                    f,
                    p: p_all,
                    x: x_all,
                },
            );
        }
        vars.push(per_trans);
    }

    // Flow constraints per query.
    for (qi, (q, costs)) in queries.iter().zip(all_costs).enumerate() {
        let per_trans = &vars[qi];
        let finest = costs.finest;
        // Exactly one start edge.
        let starts: Vec<(VarId, f64)> = per_trans
            .iter()
            .filter(|((p, _), _)| p.is_none())
            .map(|(_, tv)| (tv.f, 1.0))
            .collect();
        model.add_eq(&starts, 1.0);
        // Conservation and terminal inflow.
        for &r in &costs.levels {
            let inflow: Vec<(VarId, f64)> = per_trans
                .iter()
                .filter(|((_, to), _)| *to == r)
                .map(|(_, tv)| (tv.f, 1.0))
                .collect();
            if r == finest {
                model.add_eq(&inflow, 1.0);
            } else {
                let mut terms = inflow;
                for ((from, _), tv) in per_trans.iter() {
                    if *from == Some(r) {
                        terms.push((tv.f, -1.0));
                    }
                }
                model.add_eq(&terms, 0.0);
            }
        }
        // Delay budget: Σ_r I_{q,r} ≤ D_q ⇔ Σ_t F_t ≤ D_q.
        let delay = q.delay_budget.unwrap_or(cfg.max_delay).max(1) as f64;
        let all_f: Vec<(VarId, f64)> = per_trans.values().map(|tv| (tv.f, 1.0)).collect();
        model.add_le(&all_f, delay);
    }

    // Partition and placement linking.
    for (qi, costs) in all_costs.iter().enumerate() {
        for (&key, t) in &costs.transitions {
            let tv = &vars[qi][&key];
            for (b, bc) in t.branches.iter().enumerate() {
                // Σ_k P = F.
                let mut terms: Vec<(VarId, f64)> = tv.p[b].iter().map(|(_, v)| (*v, 1.0)).collect();
                terms.push((tv.f, -1.0));
                model.add_eq(&terms, 0.0);
                // Unit u placed ⇔ Σ_s X_{u,s} = Σ_{k>u} P_k.
                for (u, x_u) in tv.x[b].iter().enumerate() {
                    let mut terms: Vec<(VarId, f64)> = x_u.iter().map(|(_, v)| (*v, 1.0)).collect();
                    for (k, v) in &tv.p[b] {
                        if *k > u {
                            terms.push((*v, -1.0));
                        }
                    }
                    model.add_eq(&terms, 0.0);
                }
                // Order (C4): start(u+1) ≥ start(u) + cost(u) − S·(1−placed(u+1)).
                for u in 0..tv.x[b].len().saturating_sub(1) {
                    let cost_u = bc.units[u].stage_cost as f64;
                    let big = s_max as f64 + cost_u;
                    // Σ s·X_{u+1,s} − Σ s·X_{u,s} − (cost_u + big)·placed(u+1) ≥ −big
                    // where placed(u+1) = Σ_s X_{u+1,s}:
                    // Σ (s − cost_u − big)·X_{u+1,s} − Σ s·X_{u,s} ≥ −big
                    let mut terms: Vec<(VarId, f64)> = Vec::new();
                    for (s, v) in &tv.x[b][u + 1] {
                        terms.push((*v, *s as f64 - cost_u - big));
                    }
                    for (s, v) in &tv.x[b][u] {
                        terms.push((*v, -(*s as f64)));
                    }
                    model.add_ge(&terms, -big);
                }
            }
        }
    }

    // Per-stage resource constraints (C1–C3) across everything.
    for s in 0..s_max {
        let mut stateless_terms: Vec<(VarId, f64)> = Vec::new();
        let mut stateful_terms: Vec<(VarId, f64)> = Vec::new();
        let mut bit_terms: Vec<(VarId, f64)> = Vec::new();
        for (qi, costs) in all_costs.iter().enumerate() {
            for (&key, t) in &costs.transitions {
                let tv = &vars[qi][&key];
                for (b, bc) in t.branches.iter().enumerate() {
                    let mut si = 0;
                    for (u, unit) in bc.units.iter().take(bc.max_units).enumerate() {
                        for (xs, v) in &tv.x[b][u] {
                            if *xs == s {
                                // Every unit's first table is a
                                // stateless slot (filters/maps/hash).
                                stateless_terms.push((*v, 1.0));
                                if unit.stateful {
                                    // Update lives in stage s+1.
                                    stateful_terms.push((*v, 1.0));
                                    let bits =
                                        bc.register_bits(si, cfg.cost.headroom, cfg.d) as f64;
                                    bit_terms.push((*v, bits));
                                }
                            }
                        }
                        if unit.stateful {
                            si += 1;
                        }
                    }
                }
            }
        }
        if !stateless_terms.is_empty() {
            model.add_le(&stateless_terms, cfg.constraints.stateless_per_stage as f64);
        }
        if !stateful_terms.is_empty() {
            model.add_le(&stateful_terms, cfg.constraints.stateful_per_stage as f64);
        }
        if !bit_terms.is_empty() {
            model.add_le(&bit_terms, cfg.constraints.register_bits_per_stage as f64);
        }
    }

    // Metadata budget (C5): Σ meta(q,t,b,k)·P ≤ M.
    let mut meta_terms: Vec<(VarId, f64)> = Vec::new();
    for (qi, (q, costs)) in queries.iter().zip(all_costs).enumerate() {
        for &key in costs.transitions.keys() {
            let tv = &vars[qi][&key];
            for (b, p_b) in tv.p.iter().enumerate() {
                for (k, v) in p_b {
                    if *k > 0 {
                        let bits = meta_of(q, costs, key, b, *k) as f64;
                        meta_terms.push((*v, bits));
                    }
                }
            }
        }
    }
    if !meta_terms.is_empty() {
        model.add_le(&meta_terms, cfg.constraints.metadata_bits as f64);
    }
    (model, vars)
}

/// Read the plan out of a solved instance.
fn extract_plan(
    queries: &[Query],
    all_costs: &[QueryCosts],
    cfg: &PlannerConfig,
    vars: &[BTreeMap<TransKey, TransVars>],
    solution: &Solution,
) -> GlobalPlan {
    let mut plans = Vec::with_capacity(queries.len());
    for (qi, (q, costs)) in queries.iter().zip(all_costs).enumerate() {
        let per_trans = &vars[qi];
        // Reconstruct the chain by following F from the start edge.
        let mut chain: Vec<TransKey> = Vec::new();
        let mut cursor: Option<u8> = None;
        loop {
            let next = per_trans
                .iter()
                .find(|((from, _), tv)| *from == cursor && solution.int_value(tv.f) == 1);
            let Some((&key, _)) = next else { break };
            chain.push(key);
            if key.1 == costs.finest {
                break;
            }
            cursor = Some(key.1);
        }
        let mut levels = Vec::new();
        for key in chain {
            let tv = &per_trans[&key];
            let t = &costs.transitions[&key];
            let refined =
                costs.refined_with_thresholds(q, key.1, key.0.map(|p| (p, BTreeSet::new())));
            let mut branches = Vec::new();
            let mut level_n = 0.0;
            for (b, bc) in t.branches.iter().enumerate() {
                let k = tv.p[b]
                    .iter()
                    .find(|(_, v)| solution.int_value(*v) == 1)
                    .map(|(k, _)| *k)
                    .unwrap_or(0);
                let mut stages = Vec::new();
                for x_u in tv.x[b].iter().take(k) {
                    let s = x_u
                        .iter()
                        .find(|(_, v)| solution.int_value(*v) == 1)
                        .map(|(s, _)| *s)
                        .unwrap_or(0);
                    stages.push(s);
                }
                let sizings: Vec<RegisterSizing> = bc
                    .units
                    .iter()
                    .take(k)
                    .filter(|u| u.stateful)
                    .enumerate()
                    .map(|(i, _)| bc.sizing(i, cfg.cost.headroom, cfg.d, &cfg.cost.sketch))
                    .collect();
                level_n += bc.n[k];
                branches.push(BranchPlan {
                    branch: b as u8,
                    units: k,
                    stages,
                    sizings,
                });
            }
            levels.push(LevelPlan {
                level: key.1,
                prev: key.0,
                refined,
                branches,
                predicted_n: level_n,
            });
        }
        plans.push(QueryPlan {
            query: q.clone(),
            levels,
        });
    }
    let predicted = plans.iter().map(QueryPlan::predicted_n).sum();
    if cfg.obs.is_enabled() {
        for plan in &plans {
            cfg.obs.event(EventKind::RefinementChain {
                query: plan.query.id.0,
                levels: plan.levels.iter().map(|l| l.level).collect(),
            });
        }
        cfg.obs.event(EventKind::PlanCompile {
            mode: "Sonata-ILP".to_string(),
            queries: queries.len() as u64,
            predicted_tuples: predicted,
        });
    }
    GlobalPlan {
        mode: PlanMode::Sonata,
        queries: plans,
        predicted_tuples: predicted,
        epoch: 0,
    }
}

/// Convenience: model size diagnostics for an instance (used by the
/// solver-behavior bench).
pub fn instance_size(all_costs: &[QueryCosts], stages: usize) -> (usize, usize) {
    let mut vars = 0;
    for costs in all_costs {
        for t in costs.transitions.values() {
            vars += 1; // f
            for bc in &t.branches {
                vars += bc.max_units + 1; // p
                vars += bc.max_units * stages; // x (upper bound)
            }
        }
    }
    (vars, stages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::{estimate_costs, CostConfig};
    use crate::strategies::{plan_queries, plan_with_costs};
    use sonata_packet::{Packet, PacketBuilder, TcpFlags};
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
            let dst = ((host % 20 + 1) << 24) | host;
            pkts.push(syn(7, dst, 1000 + host as u64));
        }
        pkts
    }

    fn small_cfg() -> PlannerConfig {
        PlannerConfig {
            cost: CostConfig {
                levels: Some(vec![8, 32]),
                ..Default::default()
            },
            max_delay: 3,
            ..Default::default()
        }
    }

    #[test]
    fn ilp_plan_is_valid_and_at_least_as_good_as_greedy() {
        let w = window();
        let queries = vec![catalog::newly_opened_tcp_conns(&Thresholds {
            new_tcp: 10,
            ..Thresholds::default()
        })];
        let cfg = small_cfg();
        let costs: Vec<_> = queries
            .iter()
            .map(|q| estimate_costs(q, &[&w], &cfg.cost).unwrap())
            .collect();
        let ilp = plan_ilp(&queries, &costs, &cfg, &SolveOptions::default()).unwrap();
        let greedy = plan_with_costs(&queries, &costs, &cfg).unwrap();
        // Chain ends at the original query.
        assert_eq!(ilp.queries[0].levels.last().unwrap().level, 32);
        // The ILP optimum cannot be worse than the greedy plan.
        assert!(
            ilp.predicted_tuples <= greedy.predicted_tuples + 1e-6,
            "ilp={} greedy={}",
            ilp.predicted_tuples,
            greedy.predicted_tuples
        );
        // Stage assignments respect intra-task order.
        for lp in &ilp.queries[0].levels {
            for bp in &lp.branches {
                for w in bp.stages.windows(2) {
                    assert!(w[1] > w[0], "stages not increasing: {:?}", bp.stages);
                }
            }
        }
    }

    #[test]
    fn ilp_degrades_under_tight_stages() {
        let w = window();
        let queries = vec![catalog::newly_opened_tcp_conns(&Thresholds {
            new_tcp: 10,
            ..Thresholds::default()
        })];
        let mut cfg = small_cfg();
        cfg.constraints.stages = 2; // no room for the reduce (needs 2 + filter + map)
        let costs: Vec<_> = queries
            .iter()
            .map(|q| estimate_costs(q, &[&w], &cfg.cost).unwrap())
            .collect();
        let ilp = plan_ilp(&queries, &costs, &cfg, &SolveOptions::default()).unwrap();
        let max_units: usize = ilp.queries[0]
            .levels
            .iter()
            .flat_map(|l| &l.branches)
            .map(|b| b.units)
            .max()
            .unwrap();
        assert!(max_units <= 2, "got {max_units} units in 2 stages");
        // And the full-resource plan is strictly better.
        let cfg_full = small_cfg();
        let ilp_full = plan_ilp(&queries, &costs, &cfg_full, &SolveOptions::default()).unwrap();
        assert!(ilp_full.predicted_tuples <= ilp.predicted_tuples);
    }

    #[test]
    fn ilp_and_greedy_agree_on_trivial_allsp_bound() {
        // With zero stages the only feasible partition is k=0 and both
        // planners should predict the All-SP workload.
        let w = window();
        let queries = vec![catalog::newly_opened_tcp_conns(&Thresholds {
            new_tcp: 10,
            ..Thresholds::default()
        })];
        let mut cfg = small_cfg();
        cfg.constraints.stages = 0;
        let costs: Vec<_> = queries
            .iter()
            .map(|q| estimate_costs(q, &[&w], &cfg.cost).unwrap())
            .collect();
        let ilp = plan_ilp(&queries, &costs, &cfg, &SolveOptions::default()).unwrap();
        let mut greedy_cfg = cfg;
        greedy_cfg.mode = crate::plan::PlanMode::AllSp;
        let greedy = plan_queries(&queries, &[&w], &greedy_cfg).unwrap();
        assert!((ilp.predicted_tuples - greedy.predicted_tuples).abs() < 1e-6);
    }

    #[test]
    fn ilp_solve_emits_statistics_event() {
        let w = window();
        let queries = vec![catalog::newly_opened_tcp_conns(&Thresholds {
            new_tcp: 10,
            ..Thresholds::default()
        })];
        let mut cfg = small_cfg();
        cfg.obs = sonata_obs::ObsHandle::enabled();
        let costs: Vec<_> = queries
            .iter()
            .map(|q| estimate_costs(q, &[&w], &cfg.cost).unwrap())
            .collect();
        plan_ilp(&queries, &costs, &cfg, &SolveOptions::default()).unwrap();
        let events = cfg.obs.events();
        let (nodes, pivots, wall_ns) = events
            .iter()
            .find_map(|e| match &e.kind {
                EventKind::IlpSolve {
                    nodes,
                    pivots,
                    wall_ns,
                    ..
                } => Some((*nodes, *pivots, *wall_ns)),
                _ => None,
            })
            .expect("IlpSolve event");
        assert!(nodes >= 1);
        assert!(pivots > 0);
        assert!(wall_ns > 0);
        // Both nested stage timers recorded.
        let snap = cfg.obs.snapshot();
        for stage in ["ilp_solve", "plan_compile"] {
            let key = format!("sonata_stage_ns{{stage=\"{stage}\"}}");
            assert!(
                snap.histogram(&key).map(|h| h.count).unwrap_or(0) >= 1,
                "{stage} not timed"
            );
        }
    }

    #[test]
    fn instance_size_reports() {
        let w = window();
        let q = catalog::newly_opened_tcp_conns(&Thresholds::default());
        let costs = vec![estimate_costs(&q, &[&w], &small_cfg().cost).unwrap()];
        let (vars, stages) = instance_size(&costs, 16);
        assert!(vars > 0);
        assert_eq!(stages, 16);
    }
}
