//! Bound pipelines: the stream-side compiled fast path.
//!
//! [`crate::interpret::run_operator`] re-binds expressions and
//! re-resolves column names every window, and materializes an
//! intermediate `Vec<Tuple>` after every operator. A [`BoundPipeline`]
//! does all of that work once at registration: expressions are bound,
//! `Schema::index_of` lookups are resolved to offsets, and runs of
//! stateless operators (`filter`/`map`) are *fused* — each tuple flows
//! through the whole run in one pass, feeding a stateful sink
//! (`reduce`/`distinct`) or the output directly, with no per-operator
//! batch allocation.
//!
//! ## Fusion rules
//!
//! The pipeline is split into segments `[i..sink]` where `ops[i..sink]`
//! are stateless and `ops[sink]` is stateful (or the pipeline end).
//! Tuples may enter at any operator index (collision shunts and window
//! dumps resume mid-pipeline); within a segment the sources are drained
//! in entry-index order — the previous sink's (sorted) output first,
//! then each entry batch — which reproduces the reference
//! interpreter's merge order exactly, because stateless operators map
//! each input tuple to at most one output tuple and preserve relative
//! order.
//!
//! Reductions aggregate into pre-sized hash tables: a compact
//! `u64`-keyed table when the group key is a single scalar column
//! (migrating to a wide `Tuple`-keyed table if a non-scalar key value
//! ever appears), sized from the previous window's observed
//! cardinality. Per-key fold order equals arrival order — the same
//! fold sequence the reference's `BTreeMap` performs — and emission
//! sorts by key, so the output is bit-identical to the reference
//! interpreter.

use crate::expr::{BindError, BoundExpr, BoundPred};
use crate::interpret::InterpretError;
use crate::ops::{Agg, Operator};
use crate::query::{joined_schema, Join, QueryError};
use crate::tuple::{Schema, Tuple};
use sonata_packet::Value;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Execution failure of a bound pipeline. Binding failures surface
/// earlier, from [`BoundPipeline::bind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundError {
    /// A batch entry index is past the end of the pipeline.
    BadEntry {
        /// The offending op index.
        op: usize,
        /// Ops in the pipeline.
        len: usize,
    },
}

impl std::fmt::Display for BoundError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoundError::BadEntry { op, len } => {
                write!(f, "batch entry at op {op} but pipeline has {len} ops")
            }
        }
    }
}

impl std::error::Error for BoundError {}

/// One operator with every column reference resolved to an offset.
#[derive(Debug)]
enum BoundOp {
    Filter(BoundPred),
    Map(Vec<BoundExpr>),
    Reduce {
        key_idx: Vec<usize>,
        val_idx: usize,
        agg: Agg,
    },
    Distinct,
}

impl BoundOp {
    fn is_stateful(&self) -> bool {
        matches!(self, BoundOp::Reduce { .. } | BoundOp::Distinct)
    }
}

/// Reduce aggregation state: compact scalar keys when possible.
enum ReduceState {
    /// Single-column `U64` group keys, stored raw.
    Fast(HashMap<u64, u64>),
    /// General tuple keys.
    Wide(HashMap<Tuple, u64>),
}

impl ReduceState {
    fn new(single_key: bool, capacity: usize) -> Self {
        if single_key {
            ReduceState::Fast(HashMap::with_capacity(capacity))
        } else {
            ReduceState::Wide(HashMap::with_capacity(capacity))
        }
    }

    fn fold(&mut self, t: &Tuple, key_idx: &[usize], val_idx: usize, agg: Agg) {
        let v = t.get(val_idx).as_u64().unwrap_or(0);
        if let ReduceState::Fast(map) = self {
            match t.get(key_idx[0]) {
                Value::U64(k) => {
                    map.entry(*k)
                        .and_modify(|acc| *acc = agg.fold(*acc, v))
                        .or_insert_with(|| agg.init(v));
                    return;
                }
                _ => {
                    // A non-scalar key appeared (e.g. a DNS-name
                    // refinement key): migrate the accumulated state
                    // to tuple keys. Per-key fold continuity is
                    // preserved — each key's accumulator moves intact.
                    let mut wide = HashMap::with_capacity(map.len().max(16));
                    for (k, acc) in map.drain() {
                        wide.insert(Tuple::new(vec![Value::U64(k)]), acc);
                    }
                    *self = ReduceState::Wide(wide);
                }
            }
        }
        let ReduceState::Wide(map) = self else {
            unreachable!("fast path returns above");
        };
        map.entry(t.project(key_idx))
            .and_modify(|acc| *acc = agg.fold(*acc, v))
            .or_insert_with(|| agg.init(v));
    }

    fn len(&self) -> usize {
        match self {
            ReduceState::Fast(m) => m.len(),
            ReduceState::Wide(m) => m.len(),
        }
    }

    /// Emit the `(key…, acc)` tuples that `keep` admits, sorted by key
    /// — the order a `BTreeMap` would have produced. `keep` is the
    /// run of filters that follows the reduce: a threshold drops most
    /// groups, so it is asked before anything is sorted, and on the
    /// scalar path before a tuple is even allocated.
    fn emit(self, keep: impl Fn(&Tuple) -> bool) -> Vec<Tuple> {
        match self {
            ReduceState::Fast(map) => {
                let mut probe = Tuple::new(vec![Value::U64(0), Value::U64(0)]);
                let mut pairs: Vec<(u64, u64)> = (map.into_iter())
                    .filter(|&(k, acc)| {
                        probe.set(0, Value::U64(k));
                        probe.set(1, Value::U64(acc));
                        keep(&probe)
                    })
                    .collect();
                pairs.sort_unstable();
                pairs
                    .into_iter()
                    .map(|(k, acc)| Tuple::new(vec![Value::U64(k), Value::U64(acc)]))
                    .collect()
            }
            ReduceState::Wide(map) => {
                // Group keys are unique, so whole-tuple order is key
                // order.
                let mut out: Vec<Tuple> = (map.into_iter())
                    .map(|(key, acc)| key.concat(&Tuple::new(vec![Value::U64(acc)])))
                    .filter(keep)
                    .collect();
                out.sort_unstable();
                out
            }
        }
    }
}

/// A pipeline bound to its input schema once, executed many times.
#[derive(Debug)]
pub struct BoundPipeline {
    ops: Vec<BoundOp>,
    /// Schema before each op; `schemas[ops.len()]` is the output.
    schemas: Vec<Schema>,
    /// Per-stateful-op capacity hints from the previous window's
    /// observed group cardinality.
    hints: Vec<usize>,
}

impl BoundPipeline {
    /// Bind a pipeline to its input schema, resolving every column
    /// reference to an offset.
    pub fn bind(ops: &[Operator], input: &Schema) -> Result<Self, BindError> {
        let mut schemas = Vec::with_capacity(ops.len() + 1);
        schemas.push(input.clone());
        let mut bops = Vec::with_capacity(ops.len());
        for op in ops {
            let schema = schemas.last().expect("seeded with input schema");
            let unknown = |column: &crate::tuple::ColName| BindError::UnknownColumn {
                column: column.clone(),
                schema: schema.clone(),
            };
            let bop = match op {
                Operator::Filter(p) => BoundOp::Filter(p.bind(schema)?),
                Operator::Map { exprs } => BoundOp::Map(
                    exprs
                        .iter()
                        .map(|(_, e)| e.bind(schema))
                        .collect::<Result<_, _>>()?,
                ),
                Operator::Reduce {
                    keys, agg, value, ..
                } => BoundOp::Reduce {
                    key_idx: keys
                        .iter()
                        .map(|k| schema.index_of(k).ok_or_else(|| unknown(k)))
                        .collect::<Result<_, _>>()?,
                    val_idx: schema.index_of(value).ok_or_else(|| unknown(value))?,
                    agg: *agg,
                },
                Operator::Distinct => BoundOp::Distinct,
            };
            let next = op.output_schema(schema).map_err(|c| unknown(&c))?;
            bops.push(bop);
            schemas.push(next);
        }
        Ok(BoundPipeline {
            hints: vec![0; bops.len()],
            ops: bops,
            schemas,
        })
    }

    /// The schema of the pipeline's output.
    pub fn output_schema(&self) -> &Schema {
        self.schemas.last().expect("schemas is never empty")
    }

    /// What each stateful op held at the end of the last run — a
    /// reduce's groups, a distinct's set — in op order. This is the
    /// planner's `B`: the keys a register for that op must fit.
    pub fn cardinalities(&self) -> impl Iterator<Item = usize> + '_ {
        (self.ops.iter().zip(&self.hints)).filter_map(|(op, &h)| op.is_stateful().then_some(h))
    }

    /// Run the whole pipeline over a batch entering at op 0.
    pub fn run(&mut self, tuples: Vec<Tuple>) -> Vec<Tuple> {
        self.run_from(tuples, BTreeMap::new(), 0)
    }

    /// Run with tuples injected at arbitrary operator indices,
    /// reproducing the reference `run_entries` merge semantics.
    pub fn run_entries(
        &mut self,
        entries: BTreeMap<usize, Vec<Tuple>>,
    ) -> Result<(Schema, Vec<Tuple>), BoundError> {
        let len = self.ops.len();
        for &op in entries.keys() {
            if op > len {
                return Err(BoundError::BadEntry { op, len });
            }
        }
        let first = entries.keys().next().copied().unwrap_or(len);
        let out = self.run_from(Vec::new(), entries, first);
        Ok((self.output_schema().clone(), out))
    }

    /// Fused segment-by-segment execution. `seed` enters at `start`
    /// (before any entry batch at the same index).
    fn run_from(
        &mut self,
        mut seed: Vec<Tuple>,
        mut entries: BTreeMap<usize, Vec<Tuple>>,
        start: usize,
    ) -> Vec<Tuple> {
        let len = self.ops.len();
        let mut i = start;
        // Where `seed` enters its segment: past the filters a reduce
        // already applied while emitting it.
        let mut seed_at = start;
        loop {
            let sink = (i..len).find(|&j| self.ops[j].is_stateful()).unwrap_or(len);
            // Drain this segment's sources in entry order: the
            // previous sink's output, then each entry batch.
            let sources = std::iter::once((seed_at, std::mem::take(&mut seed)))
                .chain((i..=sink).filter_map(|p| entries.remove(&p).map(|batch| (p, batch))));
            if sink == len {
                let mut out = Vec::new();
                for (p, batch) in sources {
                    for t in batch {
                        if let Some(t) = pipe(&self.ops[p..sink], t) {
                            out.push(t);
                        }
                    }
                }
                return out;
            }
            seed = match &self.ops[sink] {
                BoundOp::Reduce {
                    key_idx,
                    val_idx,
                    agg,
                } => {
                    let mut state = ReduceState::new(key_idx.len() == 1, self.hints[sink]);
                    for (p, batch) in sources {
                        for t in batch {
                            if let Some(t) = pipe(&self.ops[p..sink], t) {
                                state.fold(&t, key_idx, *val_idx, *agg);
                            }
                        }
                    }
                    self.hints[sink] = state.len();
                    let tail = &self.ops[sink + 1..];
                    let is_filter = |op: &&BoundOp| matches!(op, BoundOp::Filter(_));
                    let filters = &tail[..tail.iter().take_while(is_filter).count()];
                    seed_at = sink + 1 + filters.len();
                    state.emit(|t| pipe_passes(filters, t))
                }
                BoundOp::Distinct => {
                    let mut set: HashSet<Tuple> = HashSet::with_capacity(self.hints[sink]);
                    for (p, batch) in sources {
                        for t in batch {
                            if let Some(t) = pipe(&self.ops[p..sink], t) {
                                set.insert(t);
                            }
                        }
                    }
                    self.hints[sink] = set.len();
                    let mut out: Vec<Tuple> = set.into_iter().collect();
                    out.sort_unstable();
                    seed_at = sink + 1;
                    out
                }
                _ => unreachable!("sink is stateful or the pipeline end"),
            };
            i = sink + 1;
        }
    }
}

/// A join bound to its two branch output schemas once: key offsets,
/// key expressions, the right-side append projection and the post-join
/// pipeline, as [`crate::interpret::run_query_with_schema`] resolves
/// them per call.
#[derive(Debug)]
pub struct BoundJoin {
    right_key_idx: Vec<usize>,
    left_key_exprs: Vec<BoundExpr>,
    append_idx: Vec<usize>,
    post: BoundPipeline,
}

impl BoundJoin {
    /// Bind `join` between branch outputs of the given schemas, with
    /// the reference interpreter's error precedence.
    pub fn bind(join: &Join, left: &Schema, right: &Schema) -> Result<Self, InterpretError> {
        let right_key_idx = (join.keys.iter())
            .map(|k| {
                let missing = || QueryError::JoinKeyMissing { key: k.clone() };
                right.index_of(k).ok_or_else(missing)
            })
            .collect::<Result<_, _>>()?;
        let left_key_exprs = (join.left_keys.iter())
            .map(|e| e.bind(left))
            .collect::<Result<_, _>>()?;
        let append_idx = (0..right.len())
            .filter(|&i| !left.contains(&right.columns()[i]))
            .collect();
        let joined = joined_schema(left, right, &join.keys);
        Ok(BoundJoin {
            right_key_idx,
            left_key_exprs,
            append_idx,
            post: BoundPipeline::bind(&join.post.ops, &joined)?,
        })
    }

    /// The schema of [`BoundJoin::run`]'s output.
    pub fn output_schema(&self) -> &Schema {
        self.post.output_schema()
    }

    /// Hash-join the two branch outputs — left order, then right order
    /// within a key, as the reference does — and run the post-join
    /// pipeline over the result.
    pub fn run(&mut self, left: &[Tuple], right: &[Tuple]) -> Vec<Tuple> {
        let mut index: HashMap<Tuple, Vec<&Tuple>> = HashMap::with_capacity(right.len());
        for t in right {
            let key = t.project(&self.right_key_idx);
            index.entry(key).or_default().push(t);
        }
        let mut joined = Vec::new();
        for lt in left {
            let key: Tuple = self.left_key_exprs.iter().map(|e| e.eval(lt)).collect();
            for rt in index.get(&key).into_iter().flatten() {
                joined.push(lt.concat(&rt.project(&self.append_idx)));
            }
        }
        self.post.run(joined)
    }
}

/// Whether a tuple passes a run of filters.
fn pipe_passes(filters: &[BoundOp], t: &Tuple) -> bool {
    (filters.iter()).all(|op| matches!(op, BoundOp::Filter(pred) if pred.eval(t)))
}

/// Pipe one tuple through a run of stateless operators.
#[inline]
fn pipe(ops: &[BoundOp], mut t: Tuple) -> Option<Tuple> {
    for op in ops {
        match op {
            BoundOp::Filter(pred) => {
                if !pred.eval(&t) {
                    return None;
                }
            }
            BoundOp::Map(exprs) => {
                t = exprs.iter().map(|e| e.eval(&t)).collect();
            }
            _ => unreachable!("stateful op inside a stateless segment"),
        }
    }
    Some(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, field, lit};
    use crate::interpret::run_pipeline;
    use sonata_packet::{Field, PacketBuilder, TcpFlags};

    fn syn(src: u32, dst: u32) -> Tuple {
        Tuple::from_packet(
            &PacketBuilder::tcp_raw(src, 999, dst, 80)
                .flags(TcpFlags::SYN)
                .build(),
        )
    }

    fn q1_ops(th: u64) -> Vec<Operator> {
        crate::catalog::newly_opened_tcp_conns(&crate::catalog::Thresholds {
            new_tcp: th,
            ..crate::catalog::Thresholds::default()
        })
        .pipeline
        .ops
    }

    #[test]
    fn fused_run_matches_reference_pipeline() {
        let ops = q1_ops(2);
        let packet = Schema::packet();
        let mut bound = BoundPipeline::bind(&ops, &packet).unwrap();
        let tuples: Vec<Tuple> = (0..20).map(|i| syn(i % 6, 0xaa + (i % 3))).collect();
        let (ref_schema, mut reference) = run_pipeline(&ops, &packet, tuples.clone()).unwrap();
        let mut fused = bound.run(tuples);
        assert_eq!(bound.output_schema(), &ref_schema);
        reference.sort();
        fused.sort();
        assert_eq!(fused, reference);
    }

    #[test]
    fn entry_merge_order_matches_reference() {
        use crate::interpret::run_operator;
        // Mid-pipeline entries (shunts at the reduce, dumps at the
        // end) must merge exactly as the reference loop does.
        let ops = q1_ops(0);
        let packet = Schema::packet();
        let mut bound = BoundPipeline::bind(&ops, &packet).unwrap();
        let mut entries: BTreeMap<usize, Vec<Tuple>> = BTreeMap::new();
        entries.insert(0, (0..5).map(|i| syn(i, 0xcc)).collect());
        entries.insert(
            2,
            (0..3)
                .map(|_| Tuple::new(vec![Value::U64(0xcc), Value::U64(1)]))
                .collect(),
        );
        entries.insert(4, vec![Tuple::new(vec![Value::U64(0xdd), Value::U64(9)])]);
        // Reference: replicate run_entries_owned inline.
        let mut schema = packet;
        let mut tuples: Vec<Tuple> = Vec::new();
        let mut ref_entries = entries.clone();
        for i in 0..=ops.len() {
            if let Some(inc) = ref_entries.remove(&i) {
                tuples.extend(inc);
            }
            if i == ops.len() {
                break;
            }
            let (s, t) = run_operator(&ops[i], &schema, tuples).unwrap();
            schema = s;
            tuples = t;
        }
        let (bschema, bout) = bound.run_entries(entries).unwrap();
        assert_eq!(bschema, schema);
        assert_eq!(bout, tuples);
    }

    #[test]
    fn bad_entry_rejected() {
        let ops = q1_ops(1);
        let mut bound = BoundPipeline::bind(&ops, &Schema::packet()).unwrap();
        let mut entries = BTreeMap::new();
        entries.insert(99, vec![Tuple::new(vec![])]);
        assert_eq!(
            bound.run_entries(entries),
            Err(BoundError::BadEntry { op: 99, len: 4 })
        );
    }

    #[test]
    fn reduce_state_migrates_on_text_keys() {
        // Text group keys (DNS-name refinement) force the wide table;
        // mixing scalar and text keys must keep all accumulators.
        let ops = vec![Operator::Reduce {
            keys: vec!["k".into()],
            agg: Agg::Sum,
            value: "v".into(),
            out: "sum".into(),
        }];
        let schema = Schema::new(["k", "v"]);
        let mut bound = BoundPipeline::bind(&ops, &schema).unwrap();
        let tuples = vec![
            Tuple::new(vec![Value::U64(1), Value::U64(10)]),
            Tuple::new(vec![Value::Text("a".into()), Value::U64(5)]),
            Tuple::new(vec![Value::U64(1), Value::U64(7)]),
            Tuple::new(vec![Value::Text("a".into()), Value::U64(2)]),
        ];
        let (_, reference) = run_pipeline(&ops, &schema, tuples.clone()).unwrap();
        let fused = bound.run(tuples);
        assert_eq!(fused, reference);
    }

    #[test]
    fn capacity_hints_track_previous_cardinality() {
        let ops = q1_ops(0);
        let mut bound = BoundPipeline::bind(&ops, &Schema::packet()).unwrap();
        bound.run((0..10).map(|i| syn(i, 0xaa + i)).collect());
        // The reduce at op 2 saw 10 distinct destinations.
        assert_eq!(bound.hints[2], 10);
        bound.run(vec![]);
        assert_eq!(bound.hints[2], 0);
    }

    #[test]
    fn stateless_tail_after_reduce() {
        // map after reduce exercises a seed flowing into a
        // trailing stateless segment.
        let ops = vec![
            Operator::Map {
                exprs: vec![("dIP".into(), field(Field::Ipv4Dst)), ("c".into(), lit(1))],
            },
            Operator::Reduce {
                keys: vec!["dIP".into()],
                agg: Agg::Sum,
                value: "c".into(),
                out: "c".into(),
            },
            Operator::Map {
                exprs: vec![("double".into(), col("c").add(col("c")))],
            },
        ];
        let packet = Schema::packet();
        let mut bound = BoundPipeline::bind(&ops, &packet).unwrap();
        let tuples: Vec<Tuple> = (0..6).map(|i| syn(i, 0xaa + (i % 2))).collect();
        let (_, reference) = run_pipeline(&ops, &packet, tuples.clone()).unwrap();
        assert_eq!(bound.run(tuples), reference);
    }
}
