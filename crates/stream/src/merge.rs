//! Cross-switch partial-aggregate merge for a multi-switch fabric.
//!
//! In a fabric, N switches each process a disjoint partition of the
//! traffic, so a collector shard receives N *partial* window batches
//! per query: each switch's register dump holds only its partition's
//! share of every key's aggregate, and per-packet tuple reports arrive
//! once per packet from whichever switch saw it. The merge here is the
//! batch-level union that makes the downstream engine see exactly what
//! a single switch over the unsplit trace would have sent:
//!
//! * **Reduce / distinct state** enters the engine *at* the stateful
//!   operator (entry-op semantics from the shunt path), so a union of
//!   per-switch entries is re-aggregated by the engine itself — the
//!   fold is content-based and order-insensitive, making the union
//!   sound regardless of switch arrival order.
//! * **Per-packet reports** are disjoint across switches (each packet
//!   lives on exactly one switch), so union equals the baseline
//!   multiset.
//! * **Dedup** across retransmissions happens upstream, per switch,
//!   keyed on `(switch_id, task, seq)` — by the time batches reach
//!   this merge every tuple is unique, and the only duplication left
//!   to guard against is a whole switch contributing twice (a replayed
//!   partial after a rejoin), which [`merge_window_batches`] drops by
//!   switch id.
//!
//! The merge is **commutative** and **associative** (the union is
//! keyed and the engine canonicalizes outputs), and **idempotent** per
//! switch (duplicate switch ids contribute once); `proptest_fabric_merge`
//! holds those properties under arbitrary orderings and partitions.
//!
//! **Approximate register layouts** (`sonata-sketch`) change what a
//! dump entry's value *means* — a count-min estimate over the
//! switch's partition instead of an exact partial — but not the
//! merge: the engine's re-aggregation sums per-switch estimates, and
//! since each switch's estimate never undercounts its partition and
//! overshoots it by at most `ε·massᵢ`, the fabric-wide sum never
//! undercounts the union and overshoots by at most `ε·Σmassᵢ` — the
//! same `ε` against the *folded* mass, which is exactly the bound
//! the collector reports (`WindowReport::error_bounds` folds
//! per-switch `SketchBound`s as max-ε/summed-mass). Bloom-admitted
//! `distinct` state still merges as admitted-key sets: a key first
//! touched on two switches enters twice and the engine's entry-op
//! dedup folds it, while a per-switch false positive only *suppresses*
//! an entry, so the merged distinct count stays an undercount — the
//! per-layout alert directions survive the merge unchanged
//! (`tests/differential_sketch.rs` pins both on 2×1 and 2×2 fabrics).

use crate::window::WindowBatch;
use sonata_query::{QueryId, RowRun};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// One switch's contribution to a window: its id plus the per-query
/// batches its reports replayed into.
pub type SwitchPartial = (u16, Vec<(QueryId, WindowBatch)>);

/// Union per-switch window batches into the fabric-wide batch set,
/// ordered by job id (matching the single-switch emitter's output
/// order). Partials are processed in ascending switch-id order — so
/// the result is independent of arrival order — and a switch id that
/// appears more than once contributes only its first (lowest-index)
/// partial, making a replayed contribution a no-op.
pub fn merge_window_batches(mut partials: Vec<SwitchPartial>) -> Vec<(QueryId, WindowBatch)> {
    partials.sort_by_key(|(switch, _)| *switch);
    partials.dedup_by_key(|(switch, _)| *switch);
    let mut merged: BTreeMap<QueryId, WindowBatch> = BTreeMap::new();
    for (_, batches) in partials {
        for (job, batch) in batches {
            // A job's first batch moves in whole; later ones append.
            let into = match merged.entry(job) {
                Entry::Vacant(slot) => {
                    slot.insert(batch);
                    continue;
                }
                Entry::Occupied(slot) => slot.into_mut(),
            };
            for (op, runs) in batch.left {
                into.left.entry(op).or_default().extend(runs);
            }
            for (op, runs) in batch.right {
                into.right.entry(op).or_default().extend(runs);
            }
        }
    }
    merged.into_iter().collect()
}

/// Put every entry in canonical form — its rows as one run, sorted —
/// so that two batches holding the same row multisets compare equal
/// however the rows were split into runs or interleaved. The engine's
/// aggregation is order-insensitive, so canonicalization never changes
/// what a batch computes — it exists so tests can assert batch-level
/// equality directly.
pub fn canonicalize_batch(batch: &mut WindowBatch) {
    for runs in batch.left.values_mut().chain(batch.right.values_mut()) {
        let mut tuples: Vec<_> = runs.iter().flat_map(|run| run.tuples()).collect();
        tuples.sort();
        runs.clear();
        tuples.iter().for_each(|t| RowRun::push_tuple(runs, t));
    }
}

/// [`canonicalize_batch`] over a per-query batch set.
pub fn canonicalize_batches(batches: &mut [(QueryId, WindowBatch)]) {
    for (_, batch) in batches.iter_mut() {
        canonicalize_batch(batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sonata_packet::Value;
    use sonata_query::Tuple;

    fn batch(op: usize, keys: &[(u64, u64)]) -> WindowBatch {
        let mut b = WindowBatch::new();
        b.push_left(
            op,
            keys.iter()
                .map(|&(k, c)| Tuple::new(vec![Value::U64(k), Value::U64(c)])),
        );
        b
    }

    #[test]
    fn union_is_switch_order_invariant() {
        let a: SwitchPartial = (0, vec![(QueryId(1), batch(2, &[(1, 3), (2, 1)]))]);
        let b: SwitchPartial = (1, vec![(QueryId(1), batch(2, &[(1, 2), (9, 5)]))]);
        let mut fwd = merge_window_batches(vec![a.clone(), b.clone()]);
        let mut rev = merge_window_batches(vec![b, a]);
        canonicalize_batches(&mut fwd);
        canonicalize_batches(&mut rev);
        assert_eq!(fwd, rev);
        assert_eq!(fwd[0].1.tuple_count(), 4);
    }

    #[test]
    fn duplicate_switch_contributions_are_dropped() {
        let a: SwitchPartial = (3, vec![(QueryId(1), batch(2, &[(1, 3)]))]);
        let once = merge_window_batches(vec![a.clone()]);
        let twice = merge_window_batches(vec![a.clone(), a]);
        assert_eq!(once, twice);
    }

    #[test]
    fn jobs_union_across_disjoint_switch_query_sets() {
        let a: SwitchPartial = (0, vec![(QueryId(2), batch(1, &[(7, 1)]))]);
        let b: SwitchPartial = (1, vec![(QueryId(1), batch(2, &[(8, 2)]))]);
        let merged = merge_window_batches(vec![a, b]);
        assert_eq!(
            merged.iter().map(|(j, _)| *j).collect::<Vec<_>>(),
            vec![QueryId(1), QueryId(2)]
        );
    }
}
