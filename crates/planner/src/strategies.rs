//! The planning strategies: Sonata's combinatorial planner and the
//! four baseline planners the paper emulates (Table 4).
//!
//! Sonata's planner works per query: a shortest-path search over the
//! refinement-transition DAG (edge weight = tuples delivered at the
//! best partition of that transition) picks the refinement chain, then
//! global first-fit placement assigns stages; when the switch runs out
//! of resources, the partition of the affected task degrades one unit
//! at a time (ultimately to 0 = everything at the stream processor),
//! re-pricing the plan as it goes — the same behavior the paper's ILP
//! exhibits as constraints tighten (Figure 8).

use crate::costs::{estimate_costs, BranchCost, CostConfig, QueryCosts};
use crate::placement::{PlacementRequest, StageAllocator};
use crate::plan::{BranchPlan, GlobalPlan, LevelPlan, PlanMode, QueryPlan};
use sonata_obs::{EventKind, ObsHandle, Stage};
use sonata_packet::Packet;
use sonata_pisa::compile::{compile_pipeline, RegisterSizing, TableSpec};
use sonata_pisa::{SwitchConstraints, TaskId};
use sonata_query::interpret::InterpretError;
use sonata_query::{Pipeline, Query};
use std::collections::{BTreeMap, BTreeSet};

/// Planner configuration.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Switch resource limits.
    pub constraints: SwitchConstraints,
    /// Cost-estimation settings (levels, training windows, headroom).
    pub cost: CostConfig,
    /// Register arrays per stateful operator (the paper's `d`).
    pub d: usize,
    /// Strategy.
    pub mode: PlanMode,
    /// Default delay budget in windows (levels per chain) when a query
    /// doesn't set its own.
    pub max_delay: usize,
    /// Observability sink; disabled by default (planning stays silent).
    pub obs: ObsHandle,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            constraints: SwitchConstraints::default(),
            cost: CostConfig::default(),
            d: 2,
            mode: PlanMode::Sonata,
            max_delay: 8,
            obs: ObsHandle::disabled(),
        }
    }
}

/// Planning failure.
#[derive(Debug)]
pub enum PlanError {
    /// Cost estimation failed (query-authoring bug).
    Cost(InterpretError),
    /// A query failed validation.
    Invalid(sonata_query::QueryError),
}

impl From<InterpretError> for PlanError {
    fn from(e: InterpretError) -> Self {
        PlanError::Cost(e)
    }
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Cost(e) => write!(f, "cost estimation failed: {e}"),
            PlanError::Invalid(e) => write!(f, "invalid query: {e}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Compute a global plan for `queries` using `training` windows.
pub fn plan_queries(
    queries: &[Query],
    training: &[&[Packet]],
    cfg: &PlannerConfig,
) -> Result<GlobalPlan, PlanError> {
    let mut all_costs = Vec::with_capacity(queries.len());
    for q in queries {
        q.validate().map_err(PlanError::Invalid)?;
        all_costs.push(estimate_costs(q, training, &cfg.cost)?);
    }
    plan_with_costs(queries, &all_costs, cfg)
}

/// Plan against precomputed costs (lets experiments reuse estimates
/// across strategy sweeps).
pub fn plan_with_costs(
    queries: &[Query],
    all_costs: &[QueryCosts],
    cfg: &PlannerConfig,
) -> Result<GlobalPlan, PlanError> {
    let _compile = cfg.obs.stage(Stage::PlanCompile, 0);
    let mut allocator = StageAllocator::new(cfg.constraints);
    let mut plans = Vec::with_capacity(queries.len());
    for (q, costs) in queries.iter().zip(all_costs) {
        let (path, caps) = choose_path(q, costs, cfg);
        let levels = build_levels(q, costs, &path, caps.as_deref(), cfg, &mut allocator);
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
            mode: cfg.mode.label().to_string(),
            queries: queries.len() as u64,
            predicted_tuples: predicted,
        });
    }
    Ok(GlobalPlan {
        mode: cfg.mode,
        queries: plans,
        predicted_tuples: predicted,
        epoch: 0,
    })
}

/// Per level of a chain, the units each branch may take at most.
type Caps = Vec<Vec<usize>>;

/// Choose the refinement chain for one query, with per-level partition
/// caps when the chain's levels had to share the metadata budget.
fn choose_path(q: &Query, costs: &QueryCosts, cfg: &PlannerConfig) -> (Vec<u8>, Option<Caps>) {
    let finest = costs.finest;
    if costs.field.is_none() {
        return (vec![finest], None);
    }
    let delay = q.delay_budget.unwrap_or(cfg.max_delay).max(1);
    match cfg.mode {
        PlanMode::AllSp | PlanMode::FilterDp | PlanMode::MaxDp => (vec![finest], None),
        PlanMode::FixRef => {
            // All candidate levels, coarsest-first (the paper's DREAM
            // emulation zooms one level at a time); truncate to the
            // delay budget keeping the finest levels.
            let mut levels = costs.levels.clone();
            if levels.len() > delay {
                levels = levels.split_off(levels.len() - delay);
            }
            (levels, None)
        }
        PlanMode::Sonata => shortest_path(q, costs, delay, cfg),
    }
}

/// A switch request for branch partition `k` (no metadata charged).
fn request(bc: &BranchCost, k: usize, cfg: &PlannerConfig) -> PlacementRequest {
    let reg_bits = (bc.units.iter().take(k).filter(|u| u.stateful).enumerate())
        .map(|(i, _)| bc.register_bits_with(i, cfg.cost.headroom, cfg.d, &cfg.cost.sketch))
        .collect();
    PlacementRequest {
        units: bc.units[..k].to_vec(),
        reg_bits,
        meta_bits: 0,
    }
}

/// Per branch of a transition, the partitions `(k, metadata bits)`
/// that fit an *empty* switch, largest first — every one, or (`all`
/// false) only the largest. `k = 0` always fits.
fn empty_fits(
    q: &Query,
    costs: &QueryCosts,
    (prev, level): (Option<u8>, u8),
    cfg: &PlannerConfig,
    all: bool,
) -> Vec<Vec<(usize, u64)>> {
    let t = &costs.transitions[&(prev, level)];
    let refined = costs.refined_with_thresholds(q, level, prev.map(|p| (p, BTreeSet::new())));
    let fits = |req: &PlacementRequest| StageAllocator::new(cfg.constraints).place(req).is_some();
    let branch = |(bi, bc): (usize, &BranchCost)| {
        let pipeline = branch_pipeline(&refined, bi);
        let fitting = (0..=bc.max_units).rev().filter_map(|k| {
            let mut req = request(bc, k, cfg);
            // Metadata costs a trial compile: price it only for a
            // partition that fits without it.
            if !fits(&req) {
                return None;
            }
            req.meta_bits = meta_bits_for(pipeline, &bc.units, k);
            fits(&req).then_some((k, req.meta_bits))
        });
        fitting.take(if all { usize::MAX } else { 1 }).collect()
    };
    t.branches.iter().enumerate().map(branch).collect()
}

/// Branch `bi`'s pipeline of a refined query: 0 is the main pipeline,
/// 1 a join's right-hand side.
pub(crate) fn branch_pipeline(refined: &Query, bi: usize) -> &Pipeline {
    match (bi, &refined.join) {
        (0, _) => &refined.pipeline,
        (_, Some(j)) => &j.right,
        (_, None) => panic!("branch {bi} of a query without a join"),
    }
}

/// Shortest path `* → … → finest` in the transition DAG, bounded by
/// `delay` levels. Each edge is first priced at the largest partition
/// that fits an *empty* switch, metadata included. (Cross-query
/// contention is handled later by degradation during placement.) When
/// that chain's partitions overflow the metadata budget together,
/// placement would degrade its later levels, so the search reruns with
/// every fitting partition as an edge option and the budget enforced
/// along the chain.
fn shortest_path(
    q: &Query,
    costs: &QueryCosts,
    delay: usize,
    cfg: &PlannerConfig,
) -> (Vec<u8>, Option<Caps>) {
    let max_hops = delay.min(costs.levels.len());
    let (path, _, meta) = cheapest_chain(q, costs, max_hops, cfg, false, u64::MAX);
    let budget = cfg.constraints.metadata_bits;
    if meta <= budget {
        return (path, None);
    }
    let (path, caps, _) = cheapest_chain(q, costs, max_hops, cfg, true, budget);
    (path, Some(caps))
}

/// The chain with the fewest tuples whose partitions spend at most
/// `budget` metadata bits together, with its per-level units and
/// metadata. A label-setting search: a label is a chain prefix with its
/// tuples and metadata, and one that is no cheaper and no leaner than
/// another at the same level and length is dropped. Ties go to the
/// shorter chain, then to the coarser predecessor.
fn cheapest_chain(
    q: &Query,
    costs: &QueryCosts,
    max_hops: usize,
    cfg: &PlannerConfig,
    all: bool,
    budget: u64,
) -> (Vec<u8>, Caps, u64) {
    struct Label {
        n: f64,
        meta: u64,
        units: Vec<usize>,
        parent: Option<(usize, usize)>,
    }
    let levels = &costs.levels;
    // Each edge is priced once: every combination of its branches'
    // fitting partitions, as (tuples, metadata, units per branch).
    let options: BTreeMap<_, Vec<(f64, u64, Vec<usize>)>> = (costs.transitions)
        .iter()
        .map(|(&key, t)| {
            let mut combos = vec![(0.0, 0, Vec::new())];
            for (bc, fits) in t.branches.iter().zip(empty_fits(q, costs, key, cfg, all)) {
                combos = (combos.iter())
                    .flat_map(|(n, m, ks)| {
                        fits.iter().map(move |&(k, mk)| {
                            let ks = ks.iter().copied().chain([k]).collect();
                            (n + bc.n[k], m + mk, ks)
                        })
                    })
                    .collect();
            }
            (key, combos)
        })
        .collect();
    // labels[hops - 1][level index]: chains of `hops` levels ending there.
    let mut labels: Vec<Vec<Vec<Label>>> = Vec::with_capacity(max_hops);
    let offer = |at: &mut Vec<Label>, label: Label| {
        let dominated = (at.iter()).any(|o| o.n <= label.n && o.meta <= label.meta);
        if label.meta <= budget && !dominated {
            at.push(label);
        }
    };
    for _ in 0..max_hops {
        let mut next: Vec<Vec<Label>> = levels.iter().map(|_| Vec::new()).collect();
        // Extend the empty chain on the first pass, then every chain
        // the previous pass built.
        let sources: Vec<_> = match labels.last() {
            None => vec![(None, 0.0, 0)],
            Some(last) => (last.iter().enumerate())
                .flat_map(|(i, at)| {
                    (at.iter().enumerate()).map(move |(li, l)| (Some((i, li)), l.n, l.meta))
                })
                .collect(),
        };
        for (parent, n0, m0) in sources {
            let from = parent.map(|(i, _)| i);
            for j in from.map_or(0, |i| i + 1)..levels.len() {
                let key = (from.map(|i| levels[i]), levels[j]);
                for (n, meta, units) in options.get(&key).into_iter().flatten() {
                    let (n, meta, units) = (n0 + n, m0 + meta, units.clone());
                    offer(
                        &mut next[j],
                        Label {
                            n,
                            meta,
                            units,
                            parent,
                        },
                    );
                }
            }
        }
        labels.push(next);
    }
    // The cheapest chain ending at the finest level.
    let fi = levels.len() - 1;
    let mut best: Option<(usize, usize)> = None;
    for (h, at) in labels.iter().enumerate() {
        for (li, label) in at[fi].iter().enumerate() {
            if best.is_none_or(|(bh, bl)| label.n < labels[bh][fi][bl].n) {
                best = Some((h, li));
            }
        }
    }
    let (mut h, mut li) = best.expect("partition 0 everywhere fits any budget");
    let meta = labels[h][fi][li].meta;
    let (mut path, mut caps, mut at) = (Vec::new(), Vec::new(), fi);
    loop {
        let label = &labels[h][at][li];
        path.push(levels[at]);
        caps.push(label.units.clone());
        let Some((i, pl)) = label.parent else { break };
        (h, at, li) = (h - 1, i, pl);
    }
    path.reverse();
    caps.reverse();
    (path, caps, meta)
}

/// Metadata bits a branch partition consumes (via a trial compile).
pub(crate) fn meta_bits_for(pipeline: &Pipeline, units: &[TableSpec], k: usize) -> u64 {
    if k == 0 {
        return 0;
    }
    let stateful = units.iter().take(k).filter(|u| u.stateful).count();
    let mut stages = Vec::with_capacity(k);
    let mut cur = 0;
    for u in units.iter().take(k) {
        stages.push(cur);
        cur += u.stage_cost;
    }
    let sizings = vec![
        RegisterSizing {
            slots: 16,
            arrays: 1,
            ..Default::default()
        };
        stateful
    ];
    match compile_pipeline(
        pipeline,
        TaskId {
            query: sonata_query::QueryId(u32::MAX),
            level: 0,
            branch: 0,
        },
        &stages,
        &sizings,
        0,
        0,
    ) {
        Ok(cp) => cp.fragment.meta_fields[0]
            .1
            .iter()
            .map(|f| f.bits as u64)
            .sum(),
        Err(_) => 64,
    }
}

/// Build the per-level plans for one query along its chain, placing
/// units into the shared allocator with degradation on contention.
fn build_levels(
    q: &Query,
    costs: &QueryCosts,
    path: &[u8],
    caps: Option<&[Vec<usize>]>,
    cfg: &PlannerConfig,
    allocator: &mut StageAllocator,
) -> Vec<LevelPlan> {
    let mut levels = Vec::with_capacity(path.len());
    let mut prev: Option<u8> = None;
    for (li, &level) in path.iter().enumerate() {
        let key = (prev, level);
        let t = costs
            .transitions
            .get(&key)
            .unwrap_or_else(|| panic!("transition {key:?} estimated"));
        let refined = costs.refined_with_thresholds(q, level, prev.map(|p| (p, BTreeSet::new())));
        let mut branches = Vec::new();
        let mut level_n = 0.0;
        for (bi, bc) in t.branches.iter().enumerate() {
            let pipeline = branch_pipeline(&refined, bi);
            let desired = match cfg.mode {
                PlanMode::AllSp => 0,
                PlanMode::FilterDp => bc
                    .units
                    .iter()
                    .take(bc.max_units)
                    .take_while(|u| u.kind == "filter")
                    .count(),
                PlanMode::MaxDp | PlanMode::FixRef | PlanMode::Sonata => {
                    caps.map_or(bc.max_units, |c| c[li][bi])
                }
            };
            // Degrade the partition until placement succeeds (k = 0
            // always fits: no switch resources consumed).
            let mut chosen = 0usize;
            let mut stages = Vec::new();
            let mut k = desired;
            loop {
                if k == 0 {
                    break;
                }
                let req = PlacementRequest {
                    meta_bits: meta_bits_for(pipeline, &bc.units, k),
                    ..request(bc, k, cfg)
                };
                if let Some(s) = allocator.place(&req) {
                    chosen = k;
                    stages = s;
                    break;
                }
                k -= 1;
            }
            let sizings: Vec<RegisterSizing> = bc
                .units
                .iter()
                .take(chosen)
                .filter(|u| u.stateful)
                .enumerate()
                .map(|(i, _)| bc.sizing(i, cfg.cost.headroom, cfg.d, &cfg.cost.sketch))
                .collect();
            level_n += bc.n[chosen];
            branches.push(BranchPlan {
                branch: bi as u8,
                units: chosen,
                stages,
                sizings,
            });
        }
        levels.push(LevelPlan {
            level,
            prev,
            refined,
            branches,
            predicted_n: level_n,
        });
        prev = Some(level);
    }
    levels
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

    /// Window with a /8-concentrated heavy hitter and scattered noise.
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

    fn cfg(mode: PlanMode) -> PlannerConfig {
        PlannerConfig {
            mode,
            cost: CostConfig {
                levels: Some(vec![8, 16, 32]),
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn q1() -> Query {
        catalog::newly_opened_tcp_conns(&Thresholds {
            new_tcp: 10,
            ..Thresholds::default()
        })
    }

    #[test]
    fn all_sp_has_zero_units() {
        let w = window();
        let plan = plan_queries(&[q1()], &[&w], &cfg(PlanMode::AllSp)).unwrap();
        assert_eq!(plan.units_on_switch(), 0);
        assert_eq!(plan.queries[0].levels.len(), 1);
        // Every packet becomes a tuple.
        assert_eq!(plan.predicted_tuples, 70.0);
    }

    #[test]
    fn filter_dp_offloads_only_filters() {
        let w = window();
        let plan = plan_queries(&[q1()], &[&w], &cfg(PlanMode::FilterDp)).unwrap();
        let lp = &plan.queries[0].levels[0];
        assert_eq!(lp.branches[0].units, 1); // just the SYN filter
                                             // All packets are SYNs here, so Filter-DP ≈ All-SP.
        assert_eq!(plan.predicted_tuples, 70.0);
    }

    #[test]
    fn max_dp_offloads_everything() {
        let w = window();
        let plan = plan_queries(&[q1()], &[&w], &cfg(PlanMode::MaxDp)).unwrap();
        let lp = &plan.queries[0].levels[0];
        assert_eq!(lp.branches[0].units, 3); // filter, map, reduce
        assert_eq!(plan.queries[0].levels.len(), 1);
        // Only the heavy hitter crosses the threshold.
        assert_eq!(plan.predicted_tuples, 1.0);
    }

    #[test]
    fn fix_ref_uses_all_levels() {
        let w = window();
        let plan = plan_queries(&[q1()], &[&w], &cfg(PlanMode::FixRef)).unwrap();
        let levels: Vec<u8> = plan.queries[0].levels.iter().map(|l| l.level).collect();
        assert_eq!(levels, vec![8, 16, 32]);
        // Chain links: prev pointers connect the levels.
        assert_eq!(plan.queries[0].levels[1].prev, Some(8));
        assert_eq!(plan.queries[0].levels[2].prev, Some(16));
    }

    #[test]
    fn sonata_path_ends_at_finest_and_beats_baselines() {
        let w1 = window();
        let w2 = window();
        let training: Vec<&[Packet]> = vec![&w1, &w2];
        let queries = vec![q1()];
        let sonata = plan_queries(&queries, &training, &cfg(PlanMode::Sonata)).unwrap();
        let allsp = plan_queries(&queries, &training, &cfg(PlanMode::AllSp)).unwrap();
        let fixref = plan_queries(&queries, &training, &cfg(PlanMode::FixRef)).unwrap();
        assert_eq!(
            sonata.queries[0].levels.last().unwrap().level,
            32,
            "chain must end at the original query"
        );
        assert!(sonata.predicted_tuples <= allsp.predicted_tuples);
        assert!(sonata.predicted_tuples <= fixref.predicted_tuples + 1e-9);
    }

    #[test]
    fn delay_budget_bounds_chain_length() {
        let w = window();
        let mut q = q1();
        q.delay_budget = Some(2);
        let plan = plan_queries(&[q], &[&w], &cfg(PlanMode::Sonata)).unwrap();
        assert!(plan.queries[0].delay_windows() <= 2);
        // Fix-REF also truncates to the budget, keeping finest levels.
        let mut q = q1();
        q.delay_budget = Some(2);
        let plan = plan_queries(&[q], &[&w], &cfg(PlanMode::FixRef)).unwrap();
        let levels: Vec<u8> = plan.queries[0].levels.iter().map(|l| l.level).collect();
        assert_eq!(levels, vec![16, 32]);
    }

    #[test]
    fn tight_stages_degrade_partitions() {
        let w = window();
        let mut c = cfg(PlanMode::MaxDp);
        c.constraints.stages = 2; // room for filter+map only, no reduce
        let plan = plan_queries(&[q1()], &[&w], &c).unwrap();
        let units = plan.queries[0].levels[0].branches[0].units;
        assert!(units < 3, "degraded to {units}");
        // Costs rise accordingly.
        assert!(plan.predicted_tuples > 1.0);
    }

    #[test]
    fn multi_query_contention_is_handled() {
        let w = window();
        let queries = vec![
            q1(),
            catalog::ddos(&Thresholds {
                ddos: 10,
                ..Thresholds::default()
            }),
            catalog::superspreader(&Thresholds {
                superspreader: 10,
                ..Thresholds::default()
            }),
        ];
        let mut c = cfg(PlanMode::Sonata);
        c.constraints.stateful_per_stage = 1;
        c.constraints.stages = 6;
        let plan = plan_queries(&queries, &[&w], &c).unwrap();
        assert_eq!(plan.queries.len(), 3);
        // Plans remain structurally sound under contention.
        for qp in &plan.queries {
            assert!(!qp.levels.is_empty());
            assert_eq!(qp.levels.last().unwrap().level, 32);
        }
    }

    #[test]
    fn join_queries_share_the_refinement_chain() {
        let w = window();
        let q = catalog::tcp_syn_flood(&Thresholds {
            syn_flood: 5,
            ..Thresholds::default()
        });
        let plan = plan_queries(&[q], &[&w], &cfg(PlanMode::Sonata)).unwrap();
        for lp in &plan.queries[0].levels {
            assert_eq!(lp.branches.len(), 2, "both branches planned");
        }
    }

    #[test]
    fn filter_dp_with_no_leading_filter_is_all_sp() {
        // Superspreader starts with a map: Filter-DP has nothing to
        // offload (the paper's observation about broad queries).
        let w = window();
        let q = catalog::superspreader(&Thresholds {
            superspreader: 10,
            ..Thresholds::default()
        });
        let plan = plan_queries(&[q], &[&w], &cfg(PlanMode::FilterDp)).unwrap();
        assert_eq!(plan.queries[0].levels[0].branches[0].units, 0);
        assert_eq!(plan.predicted_tuples, 70.0); // everything mirrored
    }

    #[test]
    fn feasible_edge_weights_prefer_refinement_under_pressure() {
        // With registers too small for fine-level keys, the chain
        // search must route through a coarse level.
        let w = window();
        let mut c = cfg(PlanMode::Sonata);
        // Room for the coarse /8 aggregation (~21 prefixes) but not
        // for all ~41 /32 keys at once.
        c.constraints.register_bits_per_stage = 5_000;
        c.constraints.max_bits_per_register = 5_000;
        let plan = plan_queries(&[q1()], &[&w], &c).unwrap();
        let chain: Vec<u8> = plan.queries[0].levels.iter().map(|l| l.level).collect();
        assert!(chain.len() > 1, "expected a chain, got {chain:?}");
        assert_eq!(*chain.last().unwrap(), 32);
    }

    #[test]
    fn zero_stage_switch_degrades_everything_to_sp() {
        let w = window();
        let mut c = cfg(PlanMode::MaxDp);
        c.constraints.stages = 0;
        let plan = plan_queries(&[q1()], &[&w], &c).unwrap();
        assert_eq!(plan.units_on_switch(), 0);
        assert_eq!(plan.predicted_tuples, 70.0);
    }

    #[test]
    fn empty_training_trace_still_plans() {
        // No packets: all costs zero, partitioning still structurally
        // valid (everything fits, nothing predicted).
        let empty: Vec<Packet> = Vec::new();
        let plan = plan_queries(&[q1()], &[&empty], &cfg(PlanMode::Sonata)).unwrap();
        assert_eq!(plan.predicted_tuples, 0.0);
        assert_eq!(plan.queries[0].levels.last().unwrap().level, 32);
    }

    #[test]
    fn planning_emits_obs_events_and_stage_timing() {
        let w = window();
        let mut c = cfg(PlanMode::Sonata);
        c.obs = ObsHandle::enabled();
        let plan = plan_queries(&[q1()], &[&w], &c).unwrap();
        let events = c.obs.events();
        let compile = events
            .iter()
            .find_map(|e| match &e.kind {
                EventKind::PlanCompile {
                    mode,
                    queries,
                    predicted_tuples,
                } => Some((mode.clone(), *queries, *predicted_tuples)),
                _ => None,
            })
            .expect("PlanCompile event");
        assert_eq!(compile.0, "Sonata");
        assert_eq!(compile.1, 1);
        assert!((compile.2 - plan.predicted_tuples).abs() < 1e-9);
        let chain = events
            .iter()
            .find_map(|e| match &e.kind {
                EventKind::RefinementChain { query, levels } => Some((*query, levels.clone())),
                _ => None,
            })
            .expect("RefinementChain event");
        assert_eq!(chain.0, plan.queries[0].query.id.0);
        let planned: Vec<u8> = plan.queries[0].levels.iter().map(|l| l.level).collect();
        assert_eq!(chain.1, planned);
        // The compile stage was timed into the registry.
        let snap = c.obs.snapshot();
        let hist = snap
            .histogram("sonata_stage_ns{stage=\"plan_compile\"}")
            .expect("plan_compile histogram");
        assert!(hist.count >= 1);
    }

    #[test]
    fn plan_display_is_readable() {
        let w = window();
        let plan = plan_queries(&[q1()], &[&w], &cfg(PlanMode::Sonata)).unwrap();
        let text = plan.to_string();
        assert!(text.contains("Sonata plan"));
        assert!(text.contains("newly_opened_tcp_conns"));
    }
}
