//! # sonata-planner
//!
//! Sonata's query planner (Sections 3.3 and 4): given a set of
//! queries, a training trace, and the switch's resource constraints,
//! decide — jointly — *where to partition* each query between the
//! switch and the stream processor and *which refinement levels* to
//! execute, minimizing the tuples the stream processor must handle.
//!
//! * [`refine`] — query augmentation for dynamic refinement: masking
//!   the hierarchical key to a coarser level, inserting the dynamic
//!   filter fed by the previous level's output, and relaxing threshold
//!   values at coarse levels from training data (Section 4.1);
//! * [`costs`] — trace-driven estimation of the paper's `N_{q,t}`
//!   (tuples to the stream processor per partition point) and
//!   `B_{q,t}` (register bits) for every refinement transition — the
//!   numbers behind Figure 5;
//! * [`placement`] — first-fit stage assignment under the `M/A/B/S`
//!   resource model, shared across all concurrently-installed tasks;
//! * [`plan`] — the plan data structures handed to the runtime;
//! * [`strategies`] — the Sonata planner (per-query shortest-path over
//!   refinement transitions + degradation under contention) and the
//!   four baseline planners the paper compares against (Table 4):
//!   All-SP, Filter-DP, Max-DP, Fix-REF;
//! * [`ilp_planner`] — the paper's ILP formulation built on
//!   `sonata-ilp`: the oracle the combinatorial planner is tested
//!   against on small instances (`tests/proptest_replan.rs`), and the
//!   solver-behavior notes of Section 6.1;
//! * [`replan`] — online incremental replanning: re-cost the catalog
//!   from observed per-query loads and re-run the combinatorial
//!   planner, producing an epoch-bumped plan for a mid-run swap.

pub mod costs;
pub mod ilp_planner;
pub mod placement;
pub mod plan;
pub mod refine;
pub mod replan;
pub mod strategies;

pub use costs::{estimate_costs, BranchCost, QueryCosts, TransitionCost};
pub use ilp_planner::plan_ilp;
pub use plan::{BranchPlan, GlobalPlan, LevelPlan, PlanBudget, PlanMode, QueryPlan};
pub use refine::{refine_query, refinement_levels};
pub use replan::{ReplanOutcome, Replanner};
pub use strategies::{plan_queries, plan_with_costs, PlannerConfig};
