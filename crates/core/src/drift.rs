//! Plan-drift monitoring: reconcile the planner's committed tuple
//! budget against what each window actually delivered.
//!
//! The ILP/DP solver picked the deployed partitioning *because* its
//! trace-driven cost model predicted specific per-query tuple loads
//! at the stream processor (the paper's `N_{q,t}`). When live traffic
//! diverges from that prediction the plan is stale — the switch may
//! be shunting heavily, a query may be flooding the collector, or a
//! quiet query may be wasting switch stages. The monitor folds both
//! signals into one dimensionless *divergence* per window:
//!
//! ```text
//! divergence = max( max_q |observed_q − predicted_q| / max(predicted_q, floor),
//!                   (shunts / packets) / shunt_replan_fraction )
//! ```
//!
//! A divergence of 1.0 means "observed load is off by 100% of the
//! prediction" or equivalently "collision shunts hit the configured
//! re-plan fraction" — the two legacy ad-hoc triggers unified on one
//! scale. The monitor exports the live value as the
//! `sonata_plan_divergence` gauge (per-mille, so 1000 = 1.0) and
//! turns it into a *principled* re-plan trigger: the divergence must
//! exceed [`DriftConfig::threshold`] for [`DriftConfig::sustain`]
//! consecutive windows, and each sustained breach fires **exactly
//! one** [`sonata_obs::EventKind::ReplanTrigger`] until the
//! divergence drops back below the threshold and re-arms the monitor.
//! One noisy window no longer re-plans; a persistent shift re-plans
//! once, not every window.

use sonata_obs::{Gauge, ObsHandle};
use sonata_planner::PlanBudget;
use sonata_query::QueryId;

/// Sustained-threshold rule for the re-plan trigger.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftConfig {
    /// Divergence above which a window counts toward a breach. 1.0 =
    /// observed per-query load off by 100% of the prediction, or
    /// shunts at the configured re-plan fraction.
    pub threshold: f64,
    /// Consecutive breaching windows required before the trigger
    /// fires. 1 reproduces the legacy fire-on-first-breach behavior.
    pub sustain: u32,
    /// Absolute floor (in tuples) for the per-query denominator, so a
    /// query predicted at ~0 tuples doesn't turn a handful of stray
    /// tuples into infinite divergence.
    pub floor: f64,
    /// Shunted packets as a fraction of a window's packets that scores
    /// divergence 1.0 (Section 5: "when it detects too many hash
    /// collisions, the runtime triggers the query planner").
    pub shunt_replan_fraction: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            threshold: 1.0,
            sustain: 2,
            floor: 32.0,
            shunt_replan_fraction: 0.05,
        }
    }
}

/// One window's drift verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowDrift {
    /// The window's divergence on the unified scale.
    pub divergence: f64,
    /// Whether this window completes a sustained breach (fires at
    /// most once per breach; re-arms when divergence drops below the
    /// threshold).
    pub replan: bool,
}

/// Per-run monitor state: the deploy-time budget, the sustained-breach
/// streak, and the exported gauge.
#[derive(Debug)]
pub struct DriftMonitor {
    budget: PlanBudget,
    cfg: DriftConfig,
    /// Consecutive windows with divergence above the threshold.
    streak: u32,
    /// Armed = the next sustained breach may fire. Disarmed after
    /// firing until a below-threshold window re-arms.
    armed: bool,
    /// `sonata_plan_divergence`, in per-mille (gauges are integers).
    gauge: Gauge,
}

impl DriftMonitor {
    /// Build a monitor for one deployed plan.
    pub fn new(budget: PlanBudget, cfg: DriftConfig, obs: &ObsHandle) -> Self {
        DriftMonitor {
            budget,
            cfg,
            streak: 0,
            armed: true,
            gauge: obs.gauge("sonata_plan_divergence", &[]),
        }
    }

    /// The budget being reconciled against.
    pub fn budget(&self) -> &PlanBudget {
        &self.budget
    }

    /// Re-arm the monitor against a swapped-in plan's budget. Windows
    /// after a swap are reconciled against what the *new* plan
    /// predicted — without this, the monitor would keep measuring live
    /// traffic against the stale budget it just re-planned away from
    /// and fire forever.
    pub fn rebase(&mut self, budget: PlanBudget) {
        self.budget = budget;
        self.streak = 0;
        self.armed = true;
    }

    /// A window's divergence, without advancing the trigger state.
    pub fn divergence(
        &self,
        tuples_per_query: &[(QueryId, u64)],
        packets: u64,
        shunts: u64,
    ) -> f64 {
        let mut worst = 0.0f64;
        for (query, predicted) in &self.budget.per_query {
            let observed = tuples_per_query
                .iter()
                .find(|(q, _)| q == query)
                .map(|(_, n)| *n as f64)
                .unwrap_or(0.0);
            let denom = predicted.max(self.cfg.floor);
            worst = worst.max((observed - predicted).abs() / denom);
        }
        // Queries the plan never budgeted for (shouldn't happen, but
        // attribution fallbacks can surface one) count in full against
        // the floor.
        for (query, observed) in tuples_per_query {
            if !self.budget.per_query.iter().any(|(q, _)| q == query) {
                worst = worst.max(*observed as f64 / self.cfg.floor);
            }
        }
        let fraction = self.cfg.shunt_replan_fraction;
        if packets > 0 && fraction > 0.0 {
            worst = worst.max(shunts as f64 / packets as f64 / fraction);
        }
        worst
    }

    /// Reconcile one window against the budget: update the gauge and
    /// the sustained-breach state, and decide whether to re-plan.
    pub fn observe(
        &mut self,
        tuples_per_query: &[(QueryId, u64)],
        packets: u64,
        shunts: u64,
    ) -> WindowDrift {
        let divergence = self.divergence(tuples_per_query, packets, shunts);
        self.gauge.set((divergence * 1000.0) as u64);
        let mut replan = false;
        if divergence > self.cfg.threshold {
            self.streak = self.streak.saturating_add(1);
            if self.armed && self.streak >= self.cfg.sustain {
                replan = true;
                self.armed = false;
            }
        } else {
            self.streak = 0;
            self.armed = true;
        }
        WindowDrift { divergence, replan }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget() -> PlanBudget {
        PlanBudget {
            per_query: vec![(QueryId(1), 100.0), (QueryId(2), 10.0)],
            total: 110.0,
        }
    }

    fn monitor(cfg: DriftConfig) -> DriftMonitor {
        DriftMonitor::new(budget(), cfg, &ObsHandle::disabled())
    }

    #[test]
    fn on_budget_window_has_low_divergence() {
        let m = monitor(DriftConfig::default());
        let d = m.divergence(&[(QueryId(1), 100), (QueryId(2), 10)], 1_000, 0);
        assert_eq!(d, 0.0);
    }

    #[test]
    fn missing_query_counts_as_full_shortfall() {
        let m = monitor(DriftConfig::default());
        // Query 1 predicted 100, observed 0: |0-100|/100 = 1.0.
        let d = m.divergence(&[(QueryId(2), 10)], 1_000, 0);
        assert_eq!(d, 1.0);
    }

    #[test]
    fn floor_bounds_small_prediction_noise() {
        let m = monitor(DriftConfig::default());
        // Query 2 predicted 10 (< floor 32), observed 20: 10/32, not
        // 10/10.
        let d = m.divergence(&[(QueryId(1), 100), (QueryId(2), 20)], 1_000, 0);
        assert!((d - 10.0 / 32.0).abs() < 1e-9);
    }

    #[test]
    fn shunt_pressure_reaches_one_at_the_replan_fraction() {
        let m = monitor(DriftConfig::default());
        let d = m.divergence(&[(QueryId(1), 100), (QueryId(2), 10)], 1_000, 50);
        assert!((d - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fires_once_per_sustained_breach_and_rearms() {
        let mut m = monitor(DriftConfig {
            threshold: 1.0,
            sustain: 2,
            ..DriftConfig::default()
        });
        let drifted = [(QueryId(1), 300u64)]; // |300-100|/100 = 2.0
        let calm = [(QueryId(1), 100u64), (QueryId(2), 10u64)];
        // First breaching window: streak 1, no fire.
        assert!(!m.observe(&drifted, 1_000, 0).replan);
        // Second: sustained, fires exactly once.
        assert!(m.observe(&drifted, 1_000, 0).replan);
        // Continued breach: still disarmed, silent.
        assert!(!m.observe(&drifted, 1_000, 0).replan);
        assert!(!m.observe(&drifted, 1_000, 0).replan);
        // Recovery re-arms…
        assert!(!m.observe(&calm, 1_000, 0).replan);
        // …and a new sustained breach fires again.
        assert!(!m.observe(&drifted, 1_000, 0).replan);
        assert!(m.observe(&drifted, 1_000, 0).replan);
    }

    #[test]
    fn sustain_one_reproduces_legacy_first_breach_fire() {
        let mut m = monitor(DriftConfig {
            threshold: 1.0,
            sustain: 1,
            ..DriftConfig::default()
        });
        // Shunts over the replan fraction: the legacy trigger.
        let on_budget = [(QueryId(1), 100u64), (QueryId(2), 10u64)];
        assert!(m.observe(&on_budget, 1_000, 200).replan);
        assert!(!m.observe(&on_budget, 1_000, 200).replan);
    }

    #[test]
    fn rebase_adopts_the_new_budget_and_rearms() {
        let mut m = monitor(DriftConfig {
            threshold: 1.0,
            sustain: 2,
            ..DriftConfig::default()
        });
        let drifted = [(QueryId(1), 300u64)];
        assert!(!m.observe(&drifted, 1_000, 0).replan);
        assert!(m.observe(&drifted, 1_000, 0).replan);
        // The swap re-bases the monitor on the new plan's budget: the
        // same traffic is now on-budget, the streak clears, and the
        // monitor is armed for the *next* genuine drift.
        m.rebase(PlanBudget {
            per_query: vec![(QueryId(1), 300.0)],
            total: 300.0,
        });
        assert_eq!(m.observe(&drifted, 1_000, 0).divergence, 0.0);
        let next_drift = [(QueryId(1), 900u64)];
        assert!(!m.observe(&next_drift, 1_000, 0).replan);
        assert!(m.observe(&next_drift, 1_000, 0).replan);
    }

    #[test]
    fn gauge_exports_divergence_in_per_mille() {
        let obs = ObsHandle::with_capacity(16);
        let mut m = DriftMonitor::new(budget(), DriftConfig::default(), &obs);
        m.observe(&[(QueryId(1), 250), (QueryId(2), 10)], 1_000, 0);
        // |250-100|/100 = 1.5 → 1500 per-mille.
        assert_eq!(obs.snapshot().gauge("sonata_plan_divergence"), Some(1500));
    }
}
