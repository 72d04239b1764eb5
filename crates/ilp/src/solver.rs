//! Best-first branch-and-bound over the LP relaxation.

use crate::model::{ConSense, Model, Sense, Solution, SolveError, SolveOptions, Status};
use crate::simplex::{solve_lp_counted, LpProblem, LpResult};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Node {
    /// LP bound (minimization objective) of the parent — priority key.
    bound: f64,
    /// Per-variable bound overrides: `(var, lb, ub)`.
    bounds: Vec<(usize, f64, f64)>,
    depth: usize,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; we want the smallest bound first.
        other
            .bound
            .partial_cmp(&self.bound)
            .unwrap_or(Ordering::Equal)
            .then(other.depth.cmp(&self.depth))
    }
}

/// Solve a model by branch-and-bound.
pub fn branch_and_bound(model: &Model, opts: &SolveOptions) -> Result<Solution, SolveError> {
    for v in &model.vars {
        if v.lb.partial_cmp(&v.ub) != Some(std::cmp::Ordering::Less)
            && v.lb.partial_cmp(&v.ub) != Some(std::cmp::Ordering::Equal)
            || v.lb < 0.0
            || v.lb.is_infinite()
        {
            return Err(SolveError::BadBounds {
                var: v.name.clone(),
            });
        }
    }
    let n = model.vars.len();
    // Minimization objective.
    let c: Vec<f64> = model
        .vars
        .iter()
        .map(|v| match model.sense {
            Sense::Minimize => v.obj,
            Sense::Maximize => -v.obj,
        })
        .collect();
    let base_rows: Vec<crate::simplex::LpRow> = model
        .cons
        .iter()
        .map(|con| (con.coeffs.clone(), con.sense, con.rhs))
        .collect();

    let effective_bounds = |node: &Node| -> Vec<(f64, f64)> {
        let mut b: Vec<(f64, f64)> = model.vars.iter().map(|v| (v.lb, v.ub)).collect();
        for (i, lb, ub) in &node.bounds {
            b[*i].0 = b[*i].0.max(*lb);
            b[*i].1 = b[*i].1.min(*ub);
        }
        b
    };

    let solve_node = |node: &Node| -> (LpResult, u64) {
        let bounds = effective_bounds(node);
        for (lb, ub) in &bounds {
            if lb > ub {
                return (LpResult::Infeasible, 0);
            }
        }
        let mut rows = base_rows.clone();
        for (i, (lb, ub)) in bounds.iter().enumerate() {
            if *lb > 0.0 {
                rows.push((vec![(i, 1.0)], ConSense::Ge, *lb));
            }
            if ub.is_finite() {
                rows.push((vec![(i, 1.0)], ConSense::Le, *ub));
            }
        }
        solve_lp_counted(&LpProblem {
            n,
            c: c.clone(),
            rows,
        })
    };

    let started = Instant::now();
    let root = Node {
        bound: f64::NEG_INFINITY,
        bounds: Vec::new(),
        depth: 0,
    };
    let mut heap: BinaryHeap<Node> = BinaryHeap::new();
    let mut incumbent: Option<(f64, Vec<f64>)> = None;
    let mut nodes = 0usize;
    let mut pivots = 0u64;
    let mut exhausted = true;

    // Root solve.
    let (root_result, root_pivots) = solve_node(&root);
    pivots += root_pivots;
    match root_result {
        LpResult::Infeasible => return Err(SolveError::Infeasible),
        LpResult::Unbounded => return Err(SolveError::Unbounded),
        LpResult::Stalled => return Err(SolveError::NoIncumbent),
        LpResult::Optimal { x, obj } => {
            process(model, opts, obj, x, &root, &mut heap, &mut incumbent);
        }
    }
    nodes += 1;

    while let Some(node) = heap.pop() {
        if nodes >= opts.max_nodes || started.elapsed() >= opts.time_limit {
            exhausted = false;
            break;
        }
        // Prune against the incumbent.
        if let Some((inc, _)) = &incumbent {
            if node.bound >= *inc - 1e-9 {
                continue;
            }
        }
        nodes += 1;
        let (node_result, node_pivots) = solve_node(&node);
        pivots += node_pivots;
        match node_result {
            LpResult::Infeasible | LpResult::Stalled => continue,
            LpResult::Unbounded => {
                // Can't happen with bounded integer vars; treat as prune.
                continue;
            }
            LpResult::Optimal { x, obj } => {
                if let Some((inc, _)) = &incumbent {
                    if obj >= *inc - 1e-9 {
                        continue;
                    }
                }
                process(model, opts, obj, x, &node, &mut heap, &mut incumbent);
            }
        }
    }

    match incumbent {
        Some((obj_min, values)) => {
            let objective = match model.sense {
                Sense::Minimize => obj_min,
                Sense::Maximize => -obj_min,
            };
            Ok(Solution {
                objective,
                values,
                status: if exhausted {
                    Status::Optimal
                } else {
                    Status::Feasible
                },
                nodes,
                pivots,
                wall: started.elapsed(),
            })
        }
        None => {
            if exhausted {
                Err(SolveError::Infeasible)
            } else {
                Err(SolveError::NoIncumbent)
            }
        }
    }
}

/// Handle an LP-optimal node: either record an integer-feasible
/// incumbent or branch on the most fractional integer variable.
fn process(
    model: &Model,
    opts: &SolveOptions,
    obj: f64,
    x: Vec<f64>,
    node: &Node,
    heap: &mut BinaryHeap<Node>,
    incumbent: &mut Option<(f64, Vec<f64>)>,
) {
    // Most fractional integer variable.
    let mut branch_var: Option<(usize, f64)> = None;
    let mut best_frac = opts.int_tol;
    for (i, v) in model.vars.iter().enumerate() {
        if !v.integer {
            continue;
        }
        let frac = (x[i] - x[i].round()).abs();
        if frac > best_frac {
            best_frac = frac;
            branch_var = Some((i, x[i]));
        }
    }
    match branch_var {
        None => {
            // Integer feasible: snap and record.
            let snapped: Vec<f64> = model
                .vars
                .iter()
                .zip(&x)
                .map(|(v, &xv)| if v.integer { xv.round() } else { xv })
                .collect();
            let better = incumbent
                .as_ref()
                .map(|(inc, _)| obj < *inc - 1e-9)
                .unwrap_or(true);
            if better {
                *incumbent = Some((obj, snapped));
            }
        }
        Some((i, xi)) => {
            let floor = xi.floor();
            let mut down = node.clone();
            down.bound = obj;
            down.depth += 1;
            down.bounds.push((i, f64::NEG_INFINITY, floor));
            let mut up = node.clone();
            up.bound = obj;
            up.depth += 1;
            up.bounds.push((i, floor + 1.0, f64::INFINITY));
            heap.push(down);
            heap.push(up);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense};

    #[test]
    fn knapsack_small() {
        // max 10a + 13b + 7c, 3a + 4b + 2c <= 6, binary
        let mut m = Model::new(Sense::Maximize);
        let a = m.bin_var("a", 10.0);
        let b = m.bin_var("b", 13.0);
        let c = m.bin_var("c", 7.0);
        m.add_le(&[(a, 3.0), (b, 4.0), (c, 2.0)], 6.0);
        let sol = m.solve().unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert!(sol.pivots > 0, "solve statistics must count pivots");
        // best: b + c = 20
        assert_eq!(sol.objective.round() as i64, 20);
        assert_eq!(sol.int_value(b), 1);
        assert_eq!(sol.int_value(c), 1);
        assert_eq!(sol.int_value(a), 0);
    }

    #[test]
    fn integer_rounding_matters() {
        // max x s.t. 2x <= 5, x integer -> 2 (LP gives 2.5)
        let mut m = Model::new(Sense::Maximize);
        let x = m.int_var("x", 0.0, 100.0, 1.0);
        m.add_le(&[(x, 2.0)], 5.0);
        let sol = m.solve().unwrap();
        assert_eq!(sol.int_value(x), 2);
    }

    #[test]
    fn equality_with_integers() {
        // min 3x + 5y s.t. x + y = 7, x - y <= 1, integers
        // Feasible x..: x <= 4; min cost picks y small -> y = 3, x = 4 -> 27
        let mut m = Model::new(Sense::Minimize);
        let x = m.int_var("x", 0.0, 10.0, 3.0);
        let y = m.int_var("y", 0.0, 10.0, 5.0);
        m.add_eq(&[(x, 1.0), (y, 1.0)], 7.0);
        m.add_le(&[(x, 1.0), (y, -1.0)], 1.0);
        let sol = m.solve().unwrap();
        assert_eq!(sol.objective.round() as i64, 27);
        assert_eq!(sol.int_value(x), 4);
        assert_eq!(sol.int_value(y), 3);
    }

    #[test]
    fn infeasible_integer_model() {
        // 0 <= x <= 1 integer, 2x = 1 has no integer solution.
        let mut m = Model::new(Sense::Minimize);
        let x = m.bin_var("x", 1.0);
        m.add_eq(&[(x, 2.0)], 1.0);
        assert!(matches!(m.solve(), Err(SolveError::Infeasible)));
    }

    #[test]
    fn unbounded_model() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.var("x", 0.0, f64::INFINITY, 1.0);
        let _ = x;
        assert!(matches!(m.solve(), Err(SolveError::Unbounded)));
    }

    #[test]
    fn bad_bounds_rejected() {
        let mut m = Model::new(Sense::Minimize);
        m.var("x", -1.0, 1.0, 1.0);
        assert!(matches!(m.solve(), Err(SolveError::BadBounds { .. })));
        let mut m2 = Model::new(Sense::Minimize);
        m2.var("y", 2.0, 1.0, 1.0);
        assert!(matches!(m2.solve(), Err(SolveError::BadBounds { .. })));
    }

    #[test]
    fn mixed_continuous_and_integer() {
        // min y s.t. y >= x - 0.5, y >= 2.5 - x, x integer in [0,5].
        // For integer x, the best is x=1 or x=2 -> y = max(0.5, 1.5)... check:
        // x=1: y >= 0.5 and y >= 1.5 -> 1.5; x=2: y >= 1.5, y >= 0.5 -> 1.5.
        let mut m = Model::new(Sense::Minimize);
        let x = m.int_var("x", 0.0, 5.0, 0.0);
        let y = m.var("y", 0.0, f64::INFINITY, 1.0);
        m.add_ge(&[(y, 1.0), (x, -1.0)], -0.5);
        m.add_ge(&[(y, 1.0), (x, 1.0)], 2.5);
        let sol = m.solve().unwrap();
        assert!((sol.value(y) - 1.5).abs() < 1e-6, "y={}", sol.value(y));
    }

    #[test]
    fn budget_yields_feasible_status() {
        // A model big enough that 1 node can't prove optimality.
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..12)
            .map(|i| m.bin_var(&format!("x{i}"), (i % 5 + 1) as f64))
            .collect();
        let coeffs: Vec<(crate::model::VarId, f64)> = vars.iter().map(|v| (*v, 2.0)).collect();
        m.add_le(&coeffs, 11.0);
        let opts = SolveOptions {
            max_nodes: 3,
            ..Default::default()
        };
        match m.solve_with(&opts) {
            Ok(sol) => assert!(matches!(sol.status, Status::Feasible | Status::Optimal)),
            Err(SolveError::NoIncumbent) => {} // acceptable under tiny budget
            Err(e) => panic!("{e}"),
        }
    }

    #[test]
    fn solution_is_always_feasible() {
        let mut m = Model::new(Sense::Maximize);
        let a = m.int_var("a", 0.0, 7.0, 4.0);
        let b = m.int_var("b", 0.0, 7.0, 3.0);
        let c = m.var("c", 0.0, 2.0, 1.0);
        m.add_le(&[(a, 2.0), (b, 3.0), (c, 1.0)], 12.0);
        m.add_ge(&[(a, 1.0), (b, 1.0)], 2.0);
        let sol = m.solve().unwrap();
        assert!(m.is_feasible(&sol.values, 1e-6));
        let _ = (a, b, c);
    }
}
