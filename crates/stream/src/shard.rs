//! Key-based partitioning of window batches across engine shards.
//!
//! The sharded runtime executes one query's window on N workers, each
//! holding a full engine replica, and unions their [`JobResult`]s.
//! That is only correct when every group a stateful operator builds
//! (a `reduce` key, a `distinct` tuple, a join key) lands entirely on
//! one shard. [`partition_spec`] performs that analysis statically per
//! query; [`split_batch`] routes each tuple of a [`WindowBatch`] to
//! its shard; [`merge_results`] recombines the shard results into the
//! exact [`JobResult`] the single-threaded engine would produce.
//!
//! # The column-chain analysis
//!
//! Tuples may enter a pipeline at *any* operator index (per-packet
//! reports, window dumps, collision shunts — Section 3.1.3 of the
//! paper), so a partition key must be locatable at **every** entry
//! index. The analysis follows one column from the packet schema
//! through the pipeline:
//!
//! * `filter` keeps the schema: the chain survives unchanged;
//! * `map` keeps the chain only through a copy (`name = col`) or a
//!   mask (`name = mask(col, ..)`); masks are recorded, because a
//!   tuple entering *before* the mask must be routed by its *masked*
//!   value — partitioning by a coarsening of a group key still keeps
//!   each finer group shard-local;
//! * `reduce` keeps the chain iff the chain column is one of its
//!   grouping keys — which is exactly the shard-locality requirement;
//! * `distinct` groups whole tuples, which always contain the chain
//!   column, so it survives.
//!
//! For join queries both branches must chain to the join key (the
//! left side via the query's `left_keys` expression), so matching
//! rows co-locate; post-join stateful operators must then group by a
//! column that still carries the key. Queries the analysis cannot
//! prove shardable fall back to a single shard — parallelism is lost,
//! correctness is not.

use crate::engine::JobResult;
use crate::window::WindowBatch;
use sonata_packet::Value;
use sonata_query::expr::Expr;
use sonata_query::{
    ColName, Entries, Heap, Operator, Pipeline, Query, RowRun, RowSource, Schema, Tuple,
};
use std::borrow::Cow;
use std::collections::BTreeSet;

/// Where a branch's partition key sits at one entry index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyAt {
    /// Column index in the schema at this entry index.
    pub col: usize,
    /// Mask levels still applied downstream of this index, in
    /// application order: the shard key is the *final* masked value.
    pub masks: Vec<u8>,
}

/// Per-entry-index key locations for one branch (length `ops + 1`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchKeys {
    at: Vec<KeyAt>,
}

impl KeyAt {
    /// The shard key of `row`: its key column under every mask still
    /// to come, as a cell of `heap`.
    fn key(&self, row: &dyn RowSource, heap: &mut Heap) -> u64 {
        let cell = row.cell(self.col, heap);
        (self.masks.iter()).fold(cell, |cell, &level| heap.mask(cell, level))
    }
}

impl BranchKeys {
    /// Where the key of a `width`-cell row entering at `entry` sits,
    /// or `None` when the entry index or the width is out of range
    /// (the caller falls back to a single shard and lets the engine
    /// report the underlying error).
    fn at(&self, entry: usize, width: usize) -> Option<&KeyAt> {
        self.at.get(entry).filter(|at| at.col < width)
    }

    /// The shard key of `tuple` entering at operator index `entry`.
    pub fn key_of(&self, entry: usize, tuple: &Tuple) -> Option<Value> {
        let mut heap = Heap::default();
        let key = self.at(entry, tuple.len())?.key(tuple, &mut heap);
        Some(heap.value(key))
    }
}

/// How a query's window batches distribute over shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionSpec {
    /// No shardable key: route everything to shard 0 (correct, serial).
    Single,
    /// Stateless join-free query: any tuple may go anywhere; hash the
    /// whole tuple for an even spread.
    AnyTuple,
    /// Key-partitioned: per-branch chains locating the shard key at
    /// every entry index.
    Keyed {
        /// Chain for the main (left) pipeline.
        left: BranchKeys,
        /// Chain for the join's right pipeline, when the query joins.
        right: Option<BranchKeys>,
    },
}

impl PartitionSpec {
    /// Whether batches actually spread over more than one shard.
    pub fn is_parallel(&self) -> bool {
        !matches!(self, PartitionSpec::Single)
    }
}

/// Peel `name = mask(..mask(col, a).., b)` down to the column and the
/// mask levels in application (innermost-first) order.
fn peel(e: &Expr) -> Option<(&ColName, Vec<u8>)> {
    match e {
        Expr::Col(c) => Some((c, Vec::new())),
        Expr::Mask(inner, level) => {
            let (c, mut masks) = peel(inner)?;
            masks.push(*level);
            Some((c, masks))
        }
        _ => None,
    }
}

/// Follow `start` through `ops` from the packet schema. Returns the
/// per-index key locations and the chain's final column name, or
/// `None` when the chain dies or a stateful operator's groups would
/// not be shard-local under this key.
fn chain(ops: &[Operator], start: &str) -> Option<(BranchKeys, ColName)> {
    let mut schema = Schema::packet();
    let mut cur: ColName = ColName::from(start);
    // (entry index, column index at that index) plus mask events.
    let mut cols: Vec<usize> = Vec::with_capacity(ops.len() + 1);
    let mut mask_events: Vec<Vec<u8>> = Vec::with_capacity(ops.len());
    for op in ops {
        cols.push(schema.index_of(&cur)?);
        let mut masks_here = Vec::new();
        match op {
            Operator::Filter(_) => {}
            Operator::Map { exprs } => {
                // Prefer an unmasked copy; accept a masked one.
                let mut found: Option<(&ColName, Vec<u8>)> = None;
                for (name, e) in exprs {
                    if let Some((c, masks)) = peel(e) {
                        if c == &cur && (found.is_none() || masks.is_empty()) {
                            let plain = masks.is_empty();
                            found = Some((name, masks));
                            if plain {
                                break;
                            }
                        }
                    }
                }
                let (name, masks) = found?;
                masks_here = masks;
                cur = name.clone();
            }
            Operator::Reduce { keys, .. } => {
                if !keys.contains(&cur) {
                    return None; // groups would straddle shards
                }
            }
            Operator::Distinct => {}
        }
        mask_events.push(masks_here);
        schema = op.output_schema(&schema).ok()?;
    }
    cols.push(schema.index_of(&cur)?);
    // Suffix-accumulate: the key for entry index i is the tuple's
    // column value with every mask applied at index >= i.
    let mut pending: Vec<u8> = Vec::new();
    let mut at: Vec<KeyAt> = vec![
        KeyAt {
            col: cols[ops.len()],
            masks: Vec::new(),
        };
        ops.len() + 1
    ];
    for i in (0..ops.len()).rev() {
        let mut masks = mask_events[i].clone();
        masks.extend(pending.iter().copied());
        pending = masks.clone();
        at[i] = KeyAt {
            col: cols[i],
            masks,
        };
    }
    Some((BranchKeys { at }, cur))
}

/// Find a packet-schema column whose chain through `ops` survives and
/// (when `end` is given) finishes under that name.
fn chain_to(ops: &[Operator], end: Option<&str>) -> Option<BranchKeys> {
    for col in Schema::packet().columns() {
        if let Some((keys, final_name)) = chain(ops, col) {
            match end {
                Some(want) if final_name.as_ref() != want => continue,
                _ => return Some(keys),
            }
        }
    }
    None
}

/// Whether every stateful operator of the post-join pipeline groups by
/// a column that still carries the join key (starting from `carriers`,
/// the joined-schema columns whose value determines the key).
fn post_shardable(post: &Pipeline, mut carriers: BTreeSet<ColName>) -> bool {
    for op in &post.ops {
        match op {
            Operator::Filter(_) => {}
            Operator::Map { exprs } => {
                // Only an exact copy keeps a carrier: a masked or
                // computed column no longer determines the key.
                carriers = exprs
                    .iter()
                    .filter_map(|(name, e)| match e {
                        Expr::Col(c) if carriers.contains(c) => Some(name.clone()),
                        _ => None,
                    })
                    .collect();
            }
            Operator::Reduce { keys, .. } => {
                carriers = keys
                    .iter()
                    .filter(|k| carriers.contains(*k))
                    .cloned()
                    .collect();
                if carriers.is_empty() {
                    return false;
                }
            }
            Operator::Distinct => {
                // Identical tuples agree on every column; they only
                // provably co-locate when some column carries the key.
                if carriers.is_empty() {
                    return false;
                }
            }
        }
    }
    true
}

/// Statically analyze how `query`'s batches may be partitioned.
pub fn partition_spec(query: &Query) -> PartitionSpec {
    match &query.join {
        None => {
            if !query.pipeline.has_stateful() {
                return PartitionSpec::AnyTuple;
            }
            match chain_to(&query.pipeline.ops, None) {
                Some(left) => PartitionSpec::Keyed { left, right: None },
                None => PartitionSpec::Single,
            }
        }
        Some(join) => {
            if join.keys.len() != 1 || join.left_keys.len() != 1 {
                return PartitionSpec::Single;
            }
            let key = join.keys[0].as_ref();
            // Right branch must chain to the join key column.
            let Some(right) = chain_to(&join.right.ops, Some(key)) else {
                return PartitionSpec::Single;
            };
            // Left branch must chain to the base column of the left
            // key expression; its masks apply after the chain's.
            let Some((base, extra_masks)) = peel(&join.left_keys[0]) else {
                return PartitionSpec::Single;
            };
            let Some(mut left) = chain_to(&query.pipeline.ops, Some(base.as_ref())) else {
                return PartitionSpec::Single;
            };
            for at in &mut left.at {
                at.masks.extend(extra_masks.iter().copied());
            }
            // Post-join stateful operators must group by a carrier of
            // the key: the left base column always qualifies; the
            // right key column does when the join appends it.
            let mut carriers: BTreeSet<ColName> = BTreeSet::new();
            carriers.insert(base.clone());
            let left_schema = query
                .pipeline
                .output_schema(&Schema::packet())
                .unwrap_or_else(|_| Schema::packet());
            if !left_schema.contains(key) {
                carriers.insert(join.keys[0].clone());
            }
            if !post_shardable(&join.post, carriers) {
                return PartitionSpec::Single;
            }
            PartitionSpec::Keyed {
                left,
                right: Some(right),
            }
        }
    }
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

/// Deterministic hash of a value, stable across runs and platforms.
pub fn hash_value(v: &Value) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    match v {
        Value::U64(x) => {
            fnv1a(&mut h, &[1]);
            fnv1a(&mut h, &x.to_le_bytes());
        }
        Value::Text(s) => {
            fnv1a(&mut h, &[2]);
            fnv1a(&mut h, s.as_bytes());
        }
        Value::Bytes(b) => {
            fnv1a(&mut h, &[3]);
            fnv1a(&mut h, b);
        }
    }
    h
}

/// The malformed-batch fallback: shard 0 takes everything, so the
/// engine itself reports the underlying error exactly as the
/// single-threaded path would.
fn fallback_to_zero(batch: &WindowBatch, index: usize) -> Cow<'_, WindowBatch> {
    if index == 0 {
        Cow::Borrowed(batch)
    } else {
        Cow::Owned(WindowBatch::new())
    }
}

/// What `pick` keeps of every run of `entries`, as entries of their
/// own; `None` as soon as `pick` says so of some run.
fn select(
    entries: &Entries,
    mut pick: impl FnMut(usize, &RowRun) -> Option<RowRun>,
) -> Option<Entries> {
    let mut out = Entries::new();
    for (&entry, runs) in entries {
        for run in runs {
            let mine = pick(entry, run)?;
            if !mine.is_empty() {
                out.entry(entry).or_default().push(mine);
            }
        }
    }
    Some(out)
}

/// The rows of `entries` that `keys` routes to shard `index`; `None`
/// when some row's key cannot be located.
fn keyed(keys: &BranchKeys, entries: &Entries, shards: usize, index: usize) -> Option<Entries> {
    let mut heap = Heap::default();
    select(entries, |entry, run| {
        let at = keys.at(entry, run.width())?;
        Some(run.filter(|row| {
            let key = at.key(row, &mut heap);
            (hash_value(&heap.value(key)) % shards as u64) as usize == index
        }))
    })
}

/// The slice of `batch` owned by shard `index` of `shards`.
///
/// Every worker runs this over the *shared* batch concurrently: the
/// hash scan covers all rows (routing is index-independent, so all
/// workers agree on ownership and on fallbacks), and what a worker
/// keeps is a selection — packet numbers into the chunk's shared
/// columns, or the kept rows' cells — never the batch itself.
pub fn shard_filter<'a>(
    spec: &PartitionSpec,
    batch: &'a WindowBatch,
    shards: usize,
    index: usize,
) -> Cow<'a, WindowBatch> {
    if shards <= 1 {
        return Cow::Borrowed(batch);
    }
    match spec {
        PartitionSpec::Single => fallback_to_zero(batch, index),
        // Join-free query with right-branch rows: the engine rejects
        // this; let shard 0 reproduce the error.
        PartitionSpec::AnyTuple | PartitionSpec::Keyed { right: None, .. }
            if !batch.right.is_empty() =>
        {
            fallback_to_zero(batch, index)
        }
        PartitionSpec::AnyTuple => {
            // No state to keep together: deal the rows round.
            let mut n = 0;
            let mut deal = |_: &dyn RowSource| {
                n += 1;
                (n - 1) % shards == index
            };
            let left = select(&batch.left, |_, run| Some(run.filter(&mut deal)));
            Cow::Owned(WindowBatch {
                left: left.unwrap_or_default(),
                right: Entries::new(),
            })
        }
        PartitionSpec::Keyed { left, right } => {
            let left = keyed(left, &batch.left, shards, index);
            let right = match right {
                Some(keys) => keyed(keys, &batch.right, shards, index),
                None => Some(Entries::new()),
            };
            match (left, right) {
                (Some(left), Some(right)) => Cow::Owned(WindowBatch { left, right }),
                _ => fallback_to_zero(batch, index),
            }
        }
    }
}

/// Route every tuple of `batch` to its shard. The returned vector has
/// exactly `shards` entries. Defined through [`shard_filter`] so the
/// full split and the per-worker filters cannot diverge.
pub fn split_batch(spec: &PartitionSpec, batch: &WindowBatch, shards: usize) -> Vec<WindowBatch> {
    (0..shards.max(1))
        .map(|i| shard_filter(spec, batch, shards, i).into_owned())
        .collect()
}

/// Union shard results into the canonical [`JobResult`]: outputs and
/// branch outputs are merged and re-sorted (shard-local groups are
/// disjoint, so the union is exact), tuple counts are summed.
pub fn merge_results(results: Vec<JobResult>) -> JobResult {
    let mut iter = results.into_iter();
    let Some(mut merged) = iter.next() else {
        return JobResult {
            output: Vec::new(),
            tuples_in: 0,
            branch_outputs: Vec::new(),
        };
    };
    for r in iter {
        merged.output.extend(r.output);
        merged.tuples_in += r.tuples_in;
        for (i, (schema, tuples)) in r.branch_outputs.into_iter().enumerate() {
            match merged.branch_outputs.get_mut(i) {
                Some((_, acc)) => acc.extend(tuples),
                None => merged.branch_outputs.push((schema, tuples)),
            }
        }
    }
    merged.output.sort();
    for (_, tuples) in &mut merged.branch_outputs {
        tuples.sort();
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::execute_window;
    use sonata_query::catalog::{self, Thresholds};

    fn low() -> Thresholds {
        Thresholds {
            new_tcp: 1,
            ssh_brute: 1,
            superspreader: 1,
            port_scan: 1,
            ddos: 1,
            syn_flood: 1,
            incomplete_flows: 1,
            slowloris_bytes: 1,
            slowloris_cpkb: 0,
            dns_tunneling: 1,
            zorro_pkts: 1,
            zorro_payloads: 0,
            dns_reflection: 1,
            malicious_domains: 1,
            window_ms: 3_000,
        }
    }

    #[test]
    fn every_catalog_query_is_shardable() {
        for q in catalog::all(&low()) {
            let spec = partition_spec(&q);
            assert!(
                spec.is_parallel(),
                "{} fell back to a single shard: {spec:?}",
                q.name
            );
        }
        assert!(partition_spec(&catalog::malicious_domains(&low())).is_parallel());
    }

    #[test]
    fn chain_tracks_masks_for_earlier_entries() {
        use sonata_query::expr::{col, field, lit};
        use sonata_query::Query;
        // A refined-style query masking its key to a /8 prefix.
        let q = Query::builder("masked", 99)
            .map([
                (
                    "dIP",
                    Expr::Mask(Box::new(field(sonata_packet::Field::Ipv4Dst)), 8),
                ),
                ("count", lit(1)),
            ])
            .reduce(&["dIP"], sonata_query::Agg::Sum, "count")
            .filter(col("count").gt(lit(0)))
            .build()
            .unwrap();
        let PartitionSpec::Keyed { left, right: None } = partition_spec(&q) else {
            panic!("masked query should shard");
        };
        // A raw packet entering at index 0 is routed by its masked dIP.
        let packet_dip = Schema::packet().index_of("ipv4.dIP").unwrap();
        let mut values = vec![Value::U64(0); Schema::packet().len()];
        values[packet_dip] = Value::U64(0x0a0b0c0d);
        let t = Tuple::new(values);
        assert_eq!(left.key_of(0, &t), Some(Value::U64(0x0a000000)));
        // A tuple entering after the map already carries the mask.
        let t2 = Tuple::new(vec![Value::U64(0x0a000000), Value::U64(1)]);
        assert_eq!(left.key_of(1, &t2), Some(Value::U64(0x0a000000)));
    }

    #[test]
    fn split_covers_batch_and_merge_matches_serial() {
        let q = catalog::newly_opened_tcp_conns(&low());
        let spec = partition_spec(&q);
        let mut batch = WindowBatch::new();
        // Dump-style entries at the reduce with many distinct keys.
        batch.push_left(
            2,
            (0..64u64).map(|k| Tuple::new(vec![Value::U64(k % 16), Value::U64(1)])),
        );
        let shards = split_batch(&spec, &batch, 4);
        assert_eq!(shards.len(), 4);
        let total: usize = shards.iter().map(WindowBatch::tuple_count).sum();
        assert_eq!(total, batch.tuple_count());
        assert!(shards.iter().filter(|s| !s.is_empty()).count() > 1);
        let serial = execute_window(&q, &batch).unwrap();
        let merged = merge_results(
            shards
                .iter()
                .filter(|s| !s.is_empty())
                .map(|s| execute_window(&q, s).unwrap())
                .collect(),
        );
        assert_eq!(merged.output, serial.output);
        assert_eq!(merged.tuples_in, serial.tuples_in);
        assert_eq!(merged.branch_outputs, serial.branch_outputs);
    }

    #[test]
    fn malformed_batches_degrade_to_single_shard() {
        let q = catalog::newly_opened_tcp_conns(&low());
        let spec = partition_spec(&q);
        // Entry index past the pipeline end.
        let mut batch = WindowBatch::new();
        batch.push_left(99, vec![Tuple::new(vec![Value::U64(1)])]);
        let shards = split_batch(&spec, &batch, 4);
        assert_eq!(shards[0].tuple_count(), 1);
        assert!(shards[1..].iter().all(WindowBatch::is_empty));
        // Tuple too short for the key column.
        let mut batch = WindowBatch::new();
        batch.push_left(2, vec![Tuple::new(vec![])]);
        let shards = split_batch(&spec, &batch, 4);
        assert_eq!(shards[0].tuple_count(), 1);
    }

    #[test]
    fn non_identity_aggregation_falls_back_to_single() {
        use sonata_query::expr::{col, field, lit};
        use sonata_query::Query;
        // The reduce groups on a column the packet schema cannot
        // chain to (a computed sum), so sharding must refuse.
        let q = Query::builder("computed_key", 98)
            .map([
                (
                    "k",
                    field(sonata_packet::Field::Ipv4Dst).add(field(sonata_packet::Field::Ipv4Src)),
                ),
                ("count", lit(1)),
            ])
            .reduce(&["k"], sonata_query::Agg::Sum, "count")
            .filter(col("count").gt(lit(0)))
            .build()
            .unwrap();
        assert_eq!(partition_spec(&q), PartitionSpec::Single);
        let mut batch = WindowBatch::new();
        batch.push_left(1, vec![Tuple::new(vec![Value::U64(7), Value::U64(1)])]);
        let shards = split_batch(&partition_spec(&q), &batch, 8);
        assert_eq!(shards[0].tuple_count(), 1);
        assert!(shards[1..].iter().all(WindowBatch::is_empty));
    }

    #[test]
    fn stateless_query_spreads_by_tuple_hash() {
        use sonata_query::expr::{field, lit};
        use sonata_query::Query;
        let q = Query::builder("stateless", 97)
            .filter(field(sonata_packet::Field::Ipv4Proto).eq(lit(6)))
            .build()
            .unwrap();
        assert_eq!(partition_spec(&q), PartitionSpec::AnyTuple);
        let mut batch = WindowBatch::new();
        let packet_len = Schema::packet().len();
        batch.push_left(
            0,
            (0..64u64).map(|i| {
                let mut values = vec![Value::U64(0); packet_len];
                values[0] = Value::U64(i);
                Tuple::new(values)
            }),
        );
        let shards = split_batch(&partition_spec(&q), &batch, 4);
        let total: usize = shards.iter().map(WindowBatch::tuple_count).sum();
        assert_eq!(total, 64);
        assert!(shards.iter().filter(|s| !s.is_empty()).count() > 1);
    }
}
