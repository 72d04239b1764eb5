//! Online incremental replanning (the DynamiQ-style control loop).
//!
//! The initial plan is solved once against a training trace; when live
//! traffic drifts, the committed per-query tuple budget goes stale and
//! the drift monitor fires a re-plan trigger. The [`Replanner`] closes
//! that loop without touching packets again:
//!
//! 1. **Re-cost** — the last `W` windows of *observed* per-query tuple
//!    loads (reconciled by the obs layer) are reduced by median and
//!    compared against the committed budget; every transition's
//!    `N(k)` vector and distinct-key estimates are scaled by the
//!    observed/predicted ratio, so the catalog prices the traffic that
//!    is actually on the wire, not the training trace.
//! 2. **Re-solve** — the DP planner ([`plan_with_costs`]) re-runs
//!    against the scaled catalog (milliseconds); the MILP
//!    ([`plan_ilp`](crate::plan_ilp)) is its test oracle, not a
//!    second re-solver.
//! 3. The resulting [`GlobalPlan`] carries `epoch = committed + 1`;
//!    the runtime swaps it in atomically at a window boundary.

use crate::costs::{estimate_costs, QueryCosts};
use crate::plan::GlobalPlan;
use crate::strategies::{plan_with_costs, PlanError, PlannerConfig};
use sonata_packet::Packet;
use sonata_query::interpret::InterpretError;
use sonata_query::{Query, QueryId};
use std::collections::VecDeque;

/// Floor for the observed/predicted ratio: a query that went quiet
/// must not collapse its cost estimates to zero (registers would be
/// sized for nothing and the next uptick would thrash).
const MIN_RATIO: f64 = 0.05;

/// Ceiling for the ratio: one absurd window must not blow register
/// sizings past anything placeable.
const MAX_RATIO: f64 = 1_000.0;

/// Observed per-query loads and re-costing state for incremental
/// re-solves.
///
/// Owns a clone of the queries, the *base* (training-trace) cost
/// catalog, and a bounded ring of observed per-query tuple loads; a
/// re-solve never touches packets again — it rescales the base
/// catalog from the ring.
#[derive(Debug, Clone)]
pub struct Replanner {
    queries: Vec<Query>,
    base: Vec<QueryCosts>,
    cfg: PlannerConfig,
    history: VecDeque<Vec<(QueryId, u64)>>,
    window_history: usize,
}

/// What a re-solve produced, with enough context to judge it.
#[derive(Debug, Clone)]
pub struct ReplanOutcome {
    /// The new plan; `epoch` is the committed plan's epoch + 1.
    pub plan: GlobalPlan,
    /// Observed/predicted load ratio applied per query, input order.
    pub ratios: Vec<(QueryId, f64)>,
}

impl Replanner {
    /// A replanner over `queries` with their training-trace costs.
    pub fn new(
        queries: &[Query],
        base_costs: Vec<QueryCosts>,
        cfg: PlannerConfig,
        window_history: usize,
    ) -> Self {
        Replanner {
            queries: queries.to_vec(),
            base: base_costs,
            cfg,
            history: VecDeque::new(),
            window_history: window_history.max(1),
        }
    }

    /// Build a replanner straight from the training windows the
    /// initial plan was solved against, estimating each query's base
    /// cost catalog with the same [`CostConfig`](crate::costs::CostConfig)
    /// the planner used — the one-call constructor for runtimes that
    /// hold the training trace.
    pub fn from_training(
        queries: &[Query],
        training_windows: &[&[Packet]],
        cfg: PlannerConfig,
        window_history: usize,
    ) -> Result<Self, InterpretError> {
        let base = queries
            .iter()
            .map(|q| estimate_costs(q, training_windows, &cfg.cost))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::new(queries, base, cfg, window_history))
    }

    /// Record one window's observed per-query tuple loads.
    pub fn observe_window(&mut self, loads: &[(QueryId, u64)]) {
        self.history.push_back(loads.to_vec());
        while self.history.len() > self.window_history {
            self.history.pop_front();
        }
    }

    /// Windows currently in the observation ring.
    pub fn observed_windows(&self) -> usize {
        self.history.len()
    }

    /// Median observed load per query over the ring (0 when empty).
    fn median_observed(&self, query: QueryId) -> f64 {
        let mut vals: Vec<f64> = self
            .history
            .iter()
            .filter_map(|w| w.iter().find(|(q, _)| *q == query).map(|(_, n)| *n as f64))
            .collect();
        if vals.is_empty() {
            return 0.0;
        }
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        vals[vals.len() / 2]
    }

    /// Observed/predicted ratio per query against a committed plan.
    pub fn load_ratios(&self, committed: &GlobalPlan) -> Vec<(QueryId, f64)> {
        let budget = committed.budget();
        budget
            .per_query
            .iter()
            .map(|&(q, predicted)| {
                let observed = self.median_observed(q);
                let ratio = if self.history.is_empty() {
                    1.0
                } else {
                    (observed / predicted.max(1.0)).clamp(MIN_RATIO, MAX_RATIO)
                };
                (q, ratio)
            })
            .collect()
    }

    /// The base catalog with every `N(k)` vector and key estimate
    /// scaled by the query's observed/predicted ratio. Scaling keys
    /// alongside tuples is deliberate: an attack that multiplies
    /// distinct keys needs proportionally larger registers or the
    /// swapped-in plan would shunt just like the stale one.
    pub fn recost(&self, ratios: &[(QueryId, f64)]) -> Vec<QueryCosts> {
        self.base
            .iter()
            .map(|qc| {
                let ratio = ratios
                    .iter()
                    .find(|(q, _)| *q == qc.query)
                    .map(|(_, r)| *r)
                    .unwrap_or(1.0);
                let mut scaled = qc.clone();
                for t in scaled.transitions.values_mut() {
                    for b in &mut t.branches {
                        for n in &mut b.n {
                            *n *= ratio;
                        }
                        for k in &mut b.keys {
                            *k *= ratio;
                        }
                    }
                }
                scaled
            })
            .collect()
    }

    /// Incremental re-solve: re-cost, re-plan with the DP planner,
    /// bump the epoch. Milliseconds, no MILP.
    pub fn replan(&self, committed: &GlobalPlan) -> Result<ReplanOutcome, PlanError> {
        let ratios = self.load_ratios(committed);
        let scaled = self.recost(&ratios);
        let mut plan = plan_with_costs(&self.queries, &scaled, &self.cfg)?;
        plan.epoch = committed.epoch + 1;
        Ok(ReplanOutcome { plan, ratios })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::{estimate_costs, CostConfig};
    use crate::strategies::plan_queries;
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

    fn cfg() -> PlannerConfig {
        PlannerConfig {
            cost: CostConfig {
                levels: Some(vec![8, 32]),
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn fixture() -> (Vec<Query>, Vec<QueryCosts>, GlobalPlan) {
        let w = window();
        let queries = vec![catalog::newly_opened_tcp_conns(&Thresholds {
            new_tcp: 10,
            ..Thresholds::default()
        })];
        let cfg = cfg();
        let costs: Vec<_> = queries
            .iter()
            .map(|q| estimate_costs(q, &[&w], &cfg.cost).unwrap())
            .collect();
        let plan = plan_queries(&queries, &[&w], &cfg).unwrap();
        (queries, costs, plan)
    }

    #[test]
    fn no_observations_replans_at_ratio_one() {
        let (queries, costs, committed) = fixture();
        let rp = Replanner::new(&queries, costs, cfg(), 4);
        let out = rp.replan(&committed).unwrap();
        assert_eq!(out.plan.epoch, committed.epoch + 1);
        assert!(out.ratios.iter().all(|(_, r)| *r == 1.0));
        assert!(
            (out.plan.predicted_tuples - committed.predicted_tuples).abs() < 1e-9,
            "identical catalog must reproduce the committed budget"
        );
    }

    #[test]
    fn observed_overload_scales_the_budget_up() {
        let (queries, costs, committed) = fixture();
        let q = queries[0].id;
        let mut rp = Replanner::new(&queries, costs, cfg(), 4);
        let predicted = committed.budget().per_query[0].1;
        let observed = (predicted * 10.0) as u64;
        for _ in 0..4 {
            rp.observe_window(&[(q, observed)]);
        }
        let out = rp.replan(&committed).unwrap();
        let ratio = out.ratios[0].1;
        assert!(ratio > 5.0, "ratio={ratio}");
        let new_budget = out.plan.budget().per_query[0].1;
        assert!(
            new_budget > committed.budget().per_query[0].1,
            "re-costed plan must budget for the observed load"
        );
    }

    #[test]
    fn history_ring_is_bounded_and_median_resists_spikes() {
        let (queries, costs, committed) = fixture();
        let q = queries[0].id;
        let mut rp = Replanner::new(&queries, costs, cfg(), 3);
        // One absurd spike drowned by the ring: 3 quiet windows evict it.
        rp.observe_window(&[(q, 1_000_000)]);
        for _ in 0..3 {
            rp.observe_window(&[(q, committed.budget().per_query[0].1 as u64)]);
        }
        assert_eq!(rp.observed_windows(), 3);
        let ratios = rp.load_ratios(&committed);
        assert!(ratios[0].1 < 2.0, "spike must be evicted: {:?}", ratios);
    }

    #[test]
    fn ratio_is_clamped_on_quiet_traffic() {
        let (queries, costs, committed) = fixture();
        let q = queries[0].id;
        let mut rp = Replanner::new(&queries, costs, cfg(), 4);
        rp.observe_window(&[(q, 0)]);
        let ratios = rp.load_ratios(&committed);
        assert_eq!(ratios[0].1, MIN_RATIO);
        // The re-plan still succeeds and stays structurally valid.
        let out = rp.replan(&committed).unwrap();
        assert_eq!(out.plan.queries[0].levels.last().unwrap().level, 32);
    }
}
