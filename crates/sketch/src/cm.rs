//! Count-min sketch with per-aggregation cell semantics.

use crate::bound::ErrorBound;
use crate::hash::HashFamily;
use crate::{cm_delta, cm_epsilon};

/// How cells fold new values — the sketch generalization of the
/// register ALU's aggregation.
///
/// Both ops keep the count-min invariant *cell ≥ true aggregate of
/// every key hashing there*, so the min-over-rows estimate is a
/// conservative overestimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmOp {
    /// `Sum`/`Count`: cells add, estimate = min over rows, merge =
    /// pointwise add. The classic Cormode–Muthukrishnan bound
    /// applies: error ≤ (e/width)·‖stream‖₁ w.p. ≥ 1 − e^−depth.
    Add,
    /// `Max`: cells take the max, estimate = min over rows, merge =
    /// pointwise max. Collisions only raise cells, so estimates
    /// dominate the true max; no distributional bound, δ folds to
    /// the same e^−depth heuristic.
    Max,
}

/// A width × depth count-min sketch over register keys.
///
/// Merging two sketches of the same shape, seed, and op yields
/// exactly the sketch of the concatenated streams — the property the
/// fabric's cross-switch merge relies on.
#[derive(Debug, Clone, PartialEq)]
pub struct CountMinSketch {
    width: usize,
    depth: usize,
    seed: u64,
    op: CmOp,
    hashes: HashFamily,
    /// `depth` rows of `width` cells, flattened row-major.
    cells: Vec<u64>,
    /// Total L1 mass folded in (sum of operands for `Add`); the
    /// absolute error bound is `epsilon * mass`.
    mass: u64,
    /// Number of update calls.
    updates: u64,
}

impl CountMinSketch {
    /// Build a sketch. `width`/`depth` are clamped to at least 1;
    /// depth above 16 buys nothing and is clamped.
    pub fn new(width: usize, depth: usize, seed: u64, op: CmOp) -> Self {
        let width = width.max(1);
        let depth = depth.clamp(1, 16);
        CountMinSketch {
            width,
            depth,
            seed,
            op,
            hashes: HashFamily::new(seed, depth),
            cells: vec![0; width * depth],
            mass: 0,
            updates: 0,
        }
    }

    /// Sketch width (cells per row).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Sketch depth (independent rows).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The family seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The cell fold op.
    pub fn op(&self) -> CmOp {
        self.op
    }

    /// Update calls folded in since the last reset.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Total L1 mass folded in since the last reset.
    pub fn mass(&self) -> u64 {
        self.mass
    }

    #[inline]
    fn cell_index(&self, row: usize, key: &[u64]) -> usize {
        row * self.width + (self.hashes.hash(row, key) % self.width as u64) as usize
    }

    /// Fold `value` into `key`'s cells.
    #[inline]
    pub fn update(&mut self, key: &[u64], value: u64) {
        for row in 0..self.depth {
            let idx = self.cell_index(row, key);
            let cell = &mut self.cells[idx];
            *cell = match self.op {
                CmOp::Add => cell.wrapping_add(value),
                CmOp::Max => (*cell).max(value),
            };
        }
        self.mass = self.mass.wrapping_add(value);
        self.updates += 1;
    }

    /// The conservative point estimate for `key`: min over rows.
    #[inline]
    pub fn estimate(&self, key: &[u64]) -> u64 {
        let mut est = u64::MAX;
        for row in 0..self.depth {
            est = est.min(self.cells[self.cell_index(row, key)]);
        }
        est
    }

    /// The `(ε, δ)` contract this shape guarantees (for `Add`).
    pub fn bound(&self) -> ErrorBound {
        ErrorBound::new(cm_epsilon(self.width), cm_delta(self.depth))
    }

    /// Fold `other` in pointwise. Returns `false` (leaving `self`
    /// untouched) when shapes, seeds, or ops differ — merging
    /// differently-hashed sketches would be silently wrong.
    pub fn merge(&mut self, other: &CountMinSketch) -> bool {
        if self.width != other.width
            || self.depth != other.depth
            || self.seed != other.seed
            || self.op != other.op
        {
            return false;
        }
        for (c, o) in self.cells.iter_mut().zip(&other.cells) {
            *c = match self.op {
                CmOp::Add => c.wrapping_add(*o),
                CmOp::Max => (*c).max(*o),
            };
        }
        self.mass = self.mass.wrapping_add(other.mass);
        self.updates += other.updates;
        true
    }

    /// Clear all cells for the next window, keeping shape and seed.
    pub fn reset(&mut self) {
        self.cells.fill(0);
        self.mass = 0;
        self.updates = 0;
    }

    /// Register bits this sketch occupies (32-bit cells, matching
    /// the exact layout's value ALU width).
    pub fn register_bits(&self) -> u64 {
        self.width as u64 * self.depth as u64 * crate::CM_COUNTER_BITS as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_never_underestimate() {
        let mut cm = CountMinSketch::new(64, 4, 9, CmOp::Add);
        let mut truth = std::collections::HashMap::new();
        for i in 0..500u64 {
            let key = [i % 37];
            let v = (i % 5) + 1;
            cm.update(&key, v);
            *truth.entry(key[0]).or_insert(0u64) += v;
        }
        for (k, t) in truth {
            assert!(cm.estimate(&[k]) >= t, "key {k} underestimated");
        }
    }

    #[test]
    fn merge_equals_union_stream() {
        let mut a = CountMinSketch::new(32, 3, 5, CmOp::Add);
        let mut b = CountMinSketch::new(32, 3, 5, CmOp::Add);
        let mut whole = CountMinSketch::new(32, 3, 5, CmOp::Add);
        for i in 0..200u64 {
            let key = [i % 19, i % 7];
            if i % 2 == 0 {
                a.update(&key, i);
            } else {
                b.update(&key, i);
            }
            whole.update(&key, i);
        }
        assert!(a.merge(&b));
        assert_eq!(a, whole);
    }

    #[test]
    fn merge_rejects_shape_mismatch() {
        let mut a = CountMinSketch::new(32, 3, 5, CmOp::Add);
        let b = CountMinSketch::new(64, 3, 5, CmOp::Add);
        let c = CountMinSketch::new(32, 3, 6, CmOp::Add);
        let d = CountMinSketch::new(32, 3, 5, CmOp::Max);
        assert!(!a.merge(&b));
        assert!(!a.merge(&c));
        assert!(!a.merge(&d));
    }

    #[test]
    fn max_op_dominates_true_max() {
        let mut cm = CountMinSketch::new(16, 2, 3, CmOp::Max);
        cm.update(&[1], 10);
        cm.update(&[1], 4);
        cm.update(&[2], 99);
        assert!(cm.estimate(&[1]) >= 10);
        assert!(cm.estimate(&[2]) >= 99);
    }

    #[test]
    fn reset_restores_empty() {
        let mut cm = CountMinSketch::new(16, 2, 3, CmOp::Add);
        cm.update(&[1], 5);
        cm.reset();
        assert_eq!(cm.estimate(&[1]), 0);
        assert_eq!(cm.mass(), 0);
        assert_eq!(cm, CountMinSketch::new(16, 2, 3, CmOp::Add));
    }
}
