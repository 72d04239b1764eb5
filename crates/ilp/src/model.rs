//! The model-builder API: variables, linear constraints, objective.

use std::fmt;
use std::time::Duration;

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Constraint sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConSense {
    /// `≤ rhs`
    Le,
    /// `≥ rhs`
    Ge,
    /// `= rhs`
    Eq,
}

/// A variable handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub(crate) usize);

#[derive(Debug, Clone)]
pub(crate) struct Var {
    pub name: String,
    pub lb: f64,
    pub ub: f64,
    pub obj: f64,
    pub integer: bool,
}

#[derive(Debug, Clone)]
pub(crate) struct Constraint {
    pub coeffs: Vec<(usize, f64)>,
    pub sense: ConSense,
    pub rhs: f64,
}

/// Why solving failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// No feasible point exists.
    Infeasible,
    /// The LP relaxation is unbounded.
    Unbounded,
    /// Node/time budget exhausted before any integer-feasible point
    /// was found.
    NoIncumbent,
    /// A variable has `lb > ub` or non-finite bounds.
    BadBounds {
        /// The offending variable's name.
        var: String,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Infeasible => write!(f, "model is infeasible"),
            SolveError::Unbounded => write!(f, "LP relaxation is unbounded"),
            SolveError::NoIncumbent => write!(f, "budget exhausted with no feasible integer point"),
            SolveError::BadBounds { var } => write!(f, "variable `{var}` has invalid bounds"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Solution quality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Proven optimal.
    Optimal,
    /// Feasible, but the node/time budget expired before proof of
    /// optimality (the paper's 20-minute-cap behavior).
    Feasible,
}

/// A solution.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Objective value (in the model's own sense).
    pub objective: f64,
    /// Variable values, indexed by `VarId.0`.
    pub values: Vec<f64>,
    /// Optimality status.
    pub status: Status,
    /// Branch-and-bound nodes explored.
    pub nodes: usize,
    /// Simplex pivots performed across all node LP solves.
    pub pivots: u64,
    /// Wall-clock time of the whole solve.
    pub wall: Duration,
}

impl Solution {
    /// Value of a variable.
    pub fn value(&self, v: VarId) -> f64 {
        self.values[v.0]
    }

    /// Value of a variable rounded to the nearest integer.
    pub fn int_value(&self, v: VarId) -> i64 {
        self.values[v.0].round() as i64
    }
}

/// Budgets for branch-and-bound.
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Maximum branch-and-bound nodes.
    pub max_nodes: usize,
    /// Wall-clock limit.
    pub time_limit: Duration,
    /// Integrality tolerance.
    pub int_tol: f64,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            max_nodes: 200_000,
            time_limit: Duration::from_secs(60),
            int_tol: 1e-6,
        }
    }
}

/// A mixed-integer linear program under construction.
#[derive(Debug, Clone)]
pub struct Model {
    pub(crate) sense: Sense,
    pub(crate) vars: Vec<Var>,
    pub(crate) cons: Vec<Constraint>,
}

impl Model {
    /// An empty model.
    pub fn new(sense: Sense) -> Self {
        Model {
            sense,
            vars: Vec::new(),
            cons: Vec::new(),
        }
    }

    /// Add a continuous variable with bounds and objective coefficient.
    pub fn var(&mut self, name: &str, lb: f64, ub: f64, obj: f64) -> VarId {
        self.vars.push(Var {
            name: name.to_string(),
            lb,
            ub,
            obj,
            integer: false,
        });
        VarId(self.vars.len() - 1)
    }

    /// Add an integer variable.
    pub fn int_var(&mut self, name: &str, lb: f64, ub: f64, obj: f64) -> VarId {
        let v = self.var(name, lb, ub, obj);
        self.vars[v.0].integer = true;
        v
    }

    /// Add a binary (0/1) variable.
    pub fn bin_var(&mut self, name: &str, obj: f64) -> VarId {
        self.int_var(name, 0.0, 1.0, obj)
    }

    /// Add a `≤` constraint.
    pub fn add_le(&mut self, coeffs: &[(VarId, f64)], rhs: f64) {
        self.add(coeffs, ConSense::Le, rhs);
    }

    /// Add a `≥` constraint.
    pub fn add_ge(&mut self, coeffs: &[(VarId, f64)], rhs: f64) {
        self.add(coeffs, ConSense::Ge, rhs);
    }

    /// Add an `=` constraint.
    pub fn add_eq(&mut self, coeffs: &[(VarId, f64)], rhs: f64) {
        self.add(coeffs, ConSense::Eq, rhs);
    }

    /// Add a constraint with explicit sense.
    pub fn add(&mut self, coeffs: &[(VarId, f64)], sense: ConSense, rhs: f64) {
        self.cons.push(Constraint {
            coeffs: coeffs.iter().map(|(v, c)| (v.0, *c)).collect(),
            sense,
            rhs,
        });
    }

    /// Solve with default options.
    pub fn solve(&self) -> Result<Solution, SolveError> {
        self.solve_with(&SolveOptions::default())
    }

    /// Solve with explicit budgets.
    pub fn solve_with(&self, opts: &SolveOptions) -> Result<Solution, SolveError> {
        crate::solver::branch_and_bound(self, opts)
    }

    /// Whether a point satisfies all constraints and bounds to `tol`.
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        for (v, &x) in self.vars.iter().zip(values) {
            if x < v.lb - tol || x > v.ub + tol {
                return false;
            }
            if v.integer && (x - x.round()).abs() > tol {
                return false;
            }
        }
        for c in &self.cons {
            let lhs: f64 = c.coeffs.iter().map(|(i, a)| a * values[*i]).sum();
            let ok = match c.sense {
                ConSense::Le => lhs <= c.rhs + tol,
                ConSense::Ge => lhs >= c.rhs - tol,
                ConSense::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_ids_in_order() {
        let mut m = Model::new(Sense::Minimize);
        let a = m.var("a", 0.0, 1.0, 1.0);
        let b = m.bin_var("b", 2.0);
        let c = m.int_var("c", 0.0, 5.0, 3.0);
        assert_eq!((a.0, b.0, c.0), (0, 1, 2));
        assert_eq!(m.vars.len(), 3);
        m.add_le(&[(a, 1.0), (c, 2.0)], 4.0);
        assert_eq!(m.cons.len(), 1);
    }

    #[test]
    fn feasibility_check() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.int_var("x", 0.0, 10.0, 1.0);
        m.add_ge(&[(x, 1.0)], 3.0);
        assert!(m.is_feasible(&[3.0], 1e-9));
        assert!(!m.is_feasible(&[2.0], 1e-9)); // violates constraint
        assert!(!m.is_feasible(&[3.5], 1e-9)); // fractional integer
        assert!(!m.is_feasible(&[11.0], 1e-9)); // above ub
    }
}
