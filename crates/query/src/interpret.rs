//! The reference interpreter: executes a query entirely in memory over
//! one window of packets.
//!
//! This is the semantic ground truth for the rest of the system — the
//! partitioned switch + stream-processor execution and any refined
//! plan must report the same final results (up to refinement delay).
//! It is deliberately simple: per-window batch evaluation, BTree-based
//! state for deterministic output order.

use crate::expr::{BindError, BoundExpr, BoundPred};
use crate::ops::Operator;
use crate::query::{joined_schema, Join, Query, QueryError};
use crate::tuple::{Schema, Tuple};
use sonata_packet::{Packet, Value};
use std::collections::BTreeMap;

/// Errors from interpretation (all are query-authoring bugs that
/// validation should have caught; surfaced rather than panicking).
#[derive(Debug)]
pub enum InterpretError {
    /// Expression binding failed.
    Bind(BindError),
    /// The query failed validation.
    Query(QueryError),
    /// Tuples entered past the end of the pipeline.
    BadEntry {
        /// The offending op index.
        op: usize,
        /// Ops in the pipeline.
        len: usize,
    },
}

impl From<BindError> for InterpretError {
    fn from(e: BindError) -> Self {
        InterpretError::Bind(e)
    }
}

impl From<QueryError> for InterpretError {
    fn from(e: QueryError) -> Self {
        InterpretError::Query(e)
    }
}

impl std::fmt::Display for InterpretError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpretError::Bind(e) => write!(f, "bind error: {e}"),
            InterpretError::Query(e) => write!(f, "query error: {e}"),
            InterpretError::BadEntry { op, len } => {
                write!(f, "batch entry at op {op} but pipeline has {len} ops")
            }
        }
    }
}

impl std::error::Error for InterpretError {}

/// Execute one operator over a batch of tuples.
///
/// Returns the output schema and tuples. Stateful operators treat the
/// batch as one full window.
pub fn run_operator(
    op: &Operator,
    schema: &Schema,
    tuples: Vec<Tuple>,
) -> Result<(Schema, Vec<Tuple>), InterpretError> {
    match op {
        Operator::Filter(pred) => {
            let bound: BoundPred = pred.bind(schema)?;
            let out = tuples.into_iter().filter(|t| bound.eval(t)).collect();
            Ok((schema.clone(), out))
        }
        Operator::Map { exprs } => {
            let bound: Vec<BoundExpr> = exprs
                .iter()
                .map(|(_, e)| e.bind(schema))
                .collect::<Result<_, _>>()?;
            let out_schema = Schema::new(exprs.iter().map(|(n, _)| n.clone()));
            let out = tuples
                .into_iter()
                .map(|t| Tuple::new(bound.iter().map(|e| e.eval(&t)).collect()))
                .collect();
            Ok((out_schema, out))
        }
        Operator::Reduce {
            keys, agg, value, ..
        } => {
            let key_idx: Vec<usize> = keys
                .iter()
                .map(|k| {
                    schema.index_of(k).ok_or_else(|| {
                        InterpretError::Bind(BindError::UnknownColumn {
                            column: k.clone(),
                            schema: schema.clone(),
                        })
                    })
                })
                .collect::<Result<_, _>>()?;
            let val_idx = schema.index_of(value).ok_or_else(|| {
                InterpretError::Bind(BindError::UnknownColumn {
                    column: value.clone(),
                    schema: schema.clone(),
                })
            })?;
            let mut state: BTreeMap<Tuple, u64> = BTreeMap::new();
            for t in tuples {
                let key = t.project(&key_idx);
                let v = t.get(val_idx).as_u64().unwrap_or(0);
                state
                    .entry(key)
                    .and_modify(|acc| *acc = agg.fold(*acc, v))
                    .or_insert_with(|| agg.init(v));
            }
            let out_schema = op.output_schema(schema).map_err(|c| {
                InterpretError::Bind(BindError::UnknownColumn {
                    column: c,
                    schema: schema.clone(),
                })
            })?;
            let out = state
                .into_iter()
                .map(|(key, acc)| key.concat(&Tuple::new(vec![Value::U64(acc)])))
                .collect();
            Ok((out_schema, out))
        }
        Operator::Distinct => {
            let mut seen: BTreeMap<Tuple, ()> = BTreeMap::new();
            for t in tuples {
                seen.entry(t).or_insert(());
            }
            Ok((schema.clone(), seen.into_keys().collect()))
        }
    }
}

/// Execute a pipeline over a batch of tuples.
pub fn run_pipeline(
    ops: &[Operator],
    schema: &Schema,
    mut tuples: Vec<Tuple>,
) -> Result<(Schema, Vec<Tuple>), InterpretError> {
    let mut schema = schema.clone();
    for op in ops {
        let (s, t) = run_operator(op, &schema, tuples)?;
        schema = s;
        tuples = t;
    }
    Ok((schema, tuples))
}

/// Execute a whole query over one window of packets, returning the
/// final output tuples (sorted, deterministic).
pub fn run_query(query: &Query, packets: &[Packet]) -> Result<Vec<Tuple>, InterpretError> {
    let (_, out) = run_query_with_schema(query, packets)?;
    Ok(out)
}

/// Like [`run_query`] but also returns the output schema.
pub fn run_query_with_schema(
    query: &Query,
    packets: &[Packet],
) -> Result<(Schema, Vec<Tuple>), InterpretError> {
    let packet_schema = Schema::packet();
    let input: Vec<Tuple> = packets.iter().map(Tuple::from_packet).collect();
    let (left_schema, left) = run_pipeline(&query.pipeline.ops, &packet_schema, input.clone())?;
    let Some(join) = &query.join else {
        let mut out = left;
        out.sort();
        return Ok((left_schema, out));
    };
    let (right_schema, right) = run_pipeline(&join.right.ops, &packet_schema, input)?;
    let (post_schema, mut out) = run_join(join, (&left_schema, &left), (&right_schema, &right))?;
    out.sort();
    Ok((post_schema, out))
}

/// Join two branch outputs on `join`'s keys — a hash join: index the
/// right tuples by key, probe with the left ones — and run the
/// post-join pipeline over the result, unsorted. A key the right
/// schema lacks fails before a left key that does not bind.
pub fn run_join(
    join: &Join,
    (left_schema, left): (&Schema, &[Tuple]),
    (right_schema, right): (&Schema, &[Tuple]),
) -> Result<(Schema, Vec<Tuple>), InterpretError> {
    let right_key_idx: Vec<usize> = join
        .keys
        .iter()
        .map(|k| {
            right_schema
                .index_of(k)
                .ok_or_else(|| InterpretError::Query(QueryError::JoinKeyMissing { key: k.clone() }))
        })
        .collect::<Result<_, _>>()?;
    let left_key_exprs: Vec<BoundExpr> = join
        .left_keys
        .iter()
        .map(|e| e.bind(left_schema))
        .collect::<Result<_, _>>()?;
    let mut right_index: BTreeMap<Tuple, Vec<&Tuple>> = BTreeMap::new();
    for t in right {
        right_index
            .entry(t.project(&right_key_idx))
            .or_default()
            .push(t);
    }
    // Columns of the right tuple to append: those not already in the
    // left schema (mirrors `joined_schema`).
    let append_idx: Vec<usize> = right_schema
        .columns()
        .iter()
        .enumerate()
        .filter(|(_, c)| !left_schema.contains(c))
        .map(|(i, _)| i)
        .collect();
    let joined_schema = joined_schema(left_schema, right_schema, &join.keys);
    let mut joined: Vec<Tuple> = Vec::new();
    for lt in left {
        let key = Tuple::new(left_key_exprs.iter().map(|e| e.eval(lt)).collect());
        if let Some(matches) = right_index.get(&key) {
            for rt in matches {
                joined.push(lt.concat(&rt.project(&append_idx)));
            }
        }
    }
    run_pipeline(&join.post.ops, &joined_schema, joined)
}

/// Run a pipeline whose input is [`Schema::packet`] over tuples
/// injected at arbitrary operator indices (`entries`: op index → the
/// tuples entering there), each index's tuples after the stream
/// arriving from upstream — the reference the bound pipelines' entry
/// merge and the stream engine's fallback are held to.
pub fn run_entries_owned(
    ops: &[Operator],
    mut entries: BTreeMap<usize, Vec<Tuple>>,
) -> Result<(Schema, Vec<Tuple>), InterpretError> {
    for &op in entries.keys() {
        if op > ops.len() {
            return Err(InterpretError::BadEntry { op, len: ops.len() });
        }
    }
    let first = entries.keys().next().copied().unwrap_or(ops.len());
    // Schema at the first entry point.
    let mut schema = Schema::packet();
    for op in &ops[..first] {
        schema = op.output_schema(&schema).map_err(|c| {
            InterpretError::Bind(BindError::UnknownColumn {
                column: c,
                schema: schema.clone(),
            })
        })?;
    }
    let mut tuples: Vec<Tuple> = Vec::new();
    for i in first..=ops.len() {
        if let Some(incoming) = entries.remove(&i) {
            if tuples.is_empty() {
                tuples = incoming;
            } else {
                tuples.extend(incoming);
            }
        }
        if i == ops.len() {
            break;
        }
        let (s, t) = run_operator(&ops[i], &schema, tuples)?;
        schema = s;
        tuples = t;
    }
    Ok((schema, tuples))
}

/// Split packets into tumbling windows of `window_ms` by timestamp and
/// run the query on each; returns one result set per window, keyed by
/// window index.
pub fn run_query_windowed(
    query: &Query,
    packets: &[Packet],
) -> Result<Vec<(u64, Vec<Tuple>)>, InterpretError> {
    let window_ns = query.window_ms.max(1) * 1_000_000;
    let mut windows: BTreeMap<u64, Vec<Packet>> = BTreeMap::new();
    for p in packets {
        windows
            .entry(p.ts_nanos / window_ns)
            .or_default()
            .push(p.clone());
    }
    let mut out = Vec::new();
    for (w, pkts) in windows {
        out.push((w, run_query(query, &pkts)?));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, field, lit, Pred};
    use crate::ops::Agg;
    use crate::query::Query;
    use sonata_packet::{Field, PacketBuilder, TcpFlags};

    fn syn(src: &str, dst: &str) -> Packet {
        PacketBuilder::tcp(src, dst)
            .unwrap()
            .flags(TcpFlags::SYN)
            .build()
    }

    fn data(src: &str, dst: &str, len: usize) -> Packet {
        PacketBuilder::tcp(src, dst)
            .unwrap()
            .flags(TcpFlags::PSH_ACK)
            .payload(vec![0u8; len])
            .build()
    }

    fn query1(th: u64) -> Query {
        Query::builder("new_tcp", 1)
            .filter(field(Field::TcpFlags).eq(lit(2)))
            .map([("dIP", field(Field::Ipv4Dst)), ("count", lit(1))])
            .reduce(&["dIP"], Agg::Sum, "count")
            .filter(col("count").gt(lit(th)))
            .build()
            .unwrap()
    }

    #[test]
    fn query1_counts_syns_per_host() {
        let mut pkts = Vec::new();
        for i in 0..5 {
            pkts.push(syn(&format!("1.2.3.{i}:100"), "9.9.9.9:80"));
        }
        pkts.push(syn("1.1.1.1:5", "8.8.8.8:80"));
        pkts.push(data("1.1.1.1:5", "9.9.9.9:80", 100)); // not a SYN
        let out = run_query(&query1(2), &pkts).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(0), &Value::U64(0x09090909));
        assert_eq!(out[0].get(1), &Value::U64(5));
    }

    #[test]
    fn query1_threshold_is_strict() {
        let pkts: Vec<Packet> = (0..3)
            .map(|i| syn(&format!("1.2.3.{i}:100"), "9.9.9.9:80"))
            .collect();
        assert_eq!(run_query(&query1(3), &pkts).unwrap().len(), 0);
        assert_eq!(run_query(&query1(2), &pkts).unwrap().len(), 1);
    }

    #[test]
    fn distinct_dedups_within_window() {
        let q = Query::builder("superspreader", 2)
            .map([
                ("sIP", field(Field::Ipv4Src)),
                ("dIP", field(Field::Ipv4Dst)),
            ])
            .distinct()
            .map([("sIP", col("sIP")), ("count", lit(1))])
            .reduce(&["sIP"], Agg::Sum, "count")
            .filter(col("count").gt(lit(2)))
            .build()
            .unwrap();
        let mut pkts = Vec::new();
        // 3 distinct destinations for 7.7.7.7, with duplicates.
        for dst in ["1.0.0.1:80", "1.0.0.2:80", "1.0.0.3:80", "1.0.0.1:81"] {
            pkts.push(data("7.7.7.7:1", dst, 10));
            pkts.push(data("7.7.7.7:1", dst, 10));
        }
        // Only 1 destination for 6.6.6.6.
        pkts.push(data("6.6.6.6:1", "1.0.0.1:80", 10));
        let out = run_query(&q, &pkts).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(0), &Value::U64(0x07070707));
        assert_eq!(out[0].get(1), &Value::U64(3));
    }

    #[test]
    fn join_query_combines_branches() {
        // Slowloris-style: connections per host joined with bytes per host.
        let q = Query::builder("slowloris_mini", 3)
            .filter(field(Field::Ipv4Proto).eq(lit(6)))
            .map([
                ("dIP", field(Field::Ipv4Dst)),
                ("sIP", field(Field::Ipv4Src)),
                ("sPort", field(Field::TcpSrcPort)),
            ])
            .distinct()
            .map([("dIP", col("dIP")), ("conns", lit(1))])
            .reduce(&["dIP"], Agg::Sum, "conns")
            .join_with(&["dIP"], |b| {
                b.filter(field(Field::Ipv4Proto).eq(lit(6)))
                    .map([
                        ("dIP", field(Field::Ipv4Dst)),
                        ("bytes", field(Field::PktLen)),
                    ])
                    .reduce(&["dIP"], Agg::Sum, "bytes")
                    .filter(col("bytes").gt(lit(100)))
            })
            .map([
                ("dIP", col("dIP")),
                // connections per kilobyte, scaled to stay integral
                ("cpb", col("conns").mul(lit(1024)).div(col("bytes"))),
            ])
            .filter(col("cpb").gt(lit(10)))
            .build()
            .unwrap();
        let mut pkts = Vec::new();
        // Victim 9.9.9.9: 60 connections of 40 bytes each -> high conns/byte.
        for i in 0..60u32 {
            pkts.push(data(
                &format!("1.2.{}.{}:{}", i / 256, i % 256, 1000 + i),
                "9.9.9.9:80",
                0,
            ));
        }
        // Normal host 8.8.8.8: 2 connections, lots of bytes.
        pkts.push(data("2.2.2.2:5000", "8.8.8.8:80", 5000));
        pkts.push(data("2.2.2.3:5001", "8.8.8.8:80", 5000));
        let out = run_query(&q, &pkts).unwrap();
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].get(0), &Value::U64(0x09090909));
    }

    #[test]
    fn join_on_packet_left_side() {
        // Query-3 shape: left side is raw packets joined on dIP.
        let q = Query::builder("zorro_mini", 4)
            .filter(field(Field::TcpDstPort).eq(lit(23)))
            .join_with_keys(&["dIP"], vec![field(Field::Ipv4Dst)], |b| {
                b.filter(field(Field::TcpDstPort).eq(lit(23)))
                    .map([("dIP", field(Field::Ipv4Dst)), ("cnt1", lit(1))])
                    .reduce(&["dIP"], Agg::Sum, "cnt1")
                    .filter(col("cnt1").gt(lit(3)))
            })
            .filter(Pred::contains("pkt.payload", b"zorro"))
            .map([("dIP", field(Field::Ipv4Dst)), ("count2", lit(1))])
            .reduce(&["dIP"], Agg::Sum, "count2")
            .filter(col("count2").gt(lit(0)))
            .build()
            .unwrap();
        let mut pkts = Vec::new();
        // Victim gets 5 telnet packets, one with the keyword.
        for _ in 0..4 {
            pkts.push(data("1.1.1.1:999", "9.9.9.9:23", 8));
        }
        pkts.push(
            PacketBuilder::tcp("1.1.1.1:999", "9.9.9.9:23")
                .unwrap()
                .flags(TcpFlags::PSH_ACK)
                .payload(&b"run zorro now"[..])
                .build(),
        );
        // Background telnet host below threshold.
        pkts.push(data("1.1.1.1:999", "8.8.8.8:23", 8));
        let out = run_query(&q, &pkts).unwrap();
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].get(0), &Value::U64(0x09090909));
        assert_eq!(out[0].get(1), &Value::U64(1));
    }

    #[test]
    fn windowed_execution_resets_state() {
        let q = query1(1);
        let mut pkts = Vec::new();
        // Window 0: two SYNs; window 1: one SYN (below threshold).
        pkts.push(syn("1.1.1.1:1", "9.9.9.9:80"));
        pkts.push(syn("1.1.1.2:1", "9.9.9.9:80"));
        let mut late = syn("1.1.1.3:1", "9.9.9.9:80");
        late.ts_nanos = 4_000_000_000; // second window (W = 3 s)
        pkts.push(late);
        let windows = run_query_windowed(&q, &pkts).unwrap();
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].1.len(), 1); // 2 > 1
        assert_eq!(windows[1].1.len(), 0); // 1 !> 1
    }

    #[test]
    fn empty_input_yields_empty_output() {
        assert!(run_query(&query1(0), &[]).unwrap().is_empty());
    }

    #[test]
    fn map_mask_groups_by_prefix() {
        let q = Query::builder("prefix_agg", 5)
            .filter(field(Field::TcpFlags).eq(lit(2)))
            .map([("b", field(Field::Ipv4Dst).mask(8)), ("count", lit(1))])
            .reduce(&["b"], Agg::Sum, "count")
            .build()
            .unwrap();
        let pkts = vec![
            syn("1.1.1.1:1", "9.1.2.3:80"),
            syn("1.1.1.2:1", "9.200.1.1:80"),
            syn("1.1.1.3:1", "10.0.0.1:80"),
        ];
        let out = run_query(&q, &pkts).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].get(0), &Value::U64(0x09000000));
        assert_eq!(out[0].get(1), &Value::U64(2));
        assert_eq!(out[1].get(0), &Value::U64(0x0a000000));
    }
}
