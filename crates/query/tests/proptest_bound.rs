//! Property tests for the fused [`BoundPipeline`] fast path: for
//! arbitrary pipelines drawn from the operator grammar and arbitrary
//! tuple batches, the fused filter→map→reduce execution must produce
//! exactly the tuples the op-by-op reference interpreter produces —
//! same values, same order, same schema — including when tuples are
//! injected at mid-pipeline entry points and when the pipeline is
//! reused across windows (table capacity carries over, state must not).
//!
//! The second half runs the pipeline on what the engine is really
//! handed — selections over a [`PacketBlock`] of random records, some
//! of them truncated or garbage, entering at op 0 and past the leading
//! filters, merged with flat `u64` rows at later ops — against the
//! interpreter over `Tuple::from_packet` of each record that decodes.
//!
//! Both halves draw the shapes the column-at-a-time lowering must not
//! get wrong: a filter *after* a map that reads the map's outputs
//! (forwarded to the source's columns), `Or`/`Not`/`InSet` residuals
//! between lowered compares, `column op column`, every `CmpOp` against
//! constants, against cells of 2⁶³ and more and against text, compares
//! on the lazily decoded fields, rows entering at every op, and windows
//! in which nothing survives the first compare.

use proptest::prelude::*;
use sonata_packet::dns::{DnsQType, DnsRecord};
use sonata_packet::{DnsHeader, Field, PacketArena, PacketBuilder, TcpFlags, Value};
use sonata_query::bound::BoundJoin;
use sonata_query::expr::{col, field, lit, lit_text, CmpOp, Expr, Pred};
use sonata_query::interpret::{run_operator, run_pipeline, run_query};
use sonata_query::{
    Agg, BoundPipeline, ColName, Entries, Operator, PacketBlock, Query, RowRun, Rows, Schema, Tuple,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const HOSTS: [&str; 3] = ["a.example", "b.example", "tunnel.evil"];

fn input_schema() -> Schema {
    Schema::new(["sip", "dip", "len", "host"])
}

/// A scalar that is, now and then, too large for a plain cell.
fn arb_scalar(small: u64) -> impl Strategy<Value = u64> {
    prop_oneof![0..small, 0..small, 0..small, 0..small, BIG..BIG + 3]
}

const BIG: u64 = 1 << 63;

/// Small value domains so reduce keys actually collide and filters
/// actually cut.
fn arb_tuple() -> impl Strategy<Value = Tuple> {
    (0u64..6, arb_scalar(6), arb_scalar(16), 0usize..3).prop_map(|(s, d, l, h)| {
        Tuple::new(vec![
            Value::U64(s),
            Value::U64(d),
            Value::U64(l),
            Value::Text(HOSTS[h].into()),
        ])
    })
}

/// A pipeline shape: optional pre-filter, a map producing two key
/// columns (possibly text-valued, which pushes the reduce off its
/// scalar fast representation) and a value column, an optional filter
/// on what the map produced, a reduce, then an optional post-filter and
/// an optional stateful tail.
#[derive(Debug, Clone)]
struct Shape {
    pre_filter: Option<(usize, u8, u64)>,
    mid_filter: Option<(u8, u8, u64)>,
    key1: usize,
    key2: usize,
    val: usize,
    keys: u8,
    agg: usize,
    post_filter: Option<(u8, u64)>,
    tail: u8,
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    (
        prop_oneof![
            Just(None),
            (0usize..3, 0u8..6, arb_scalar(8)).prop_map(Some)
        ],
        prop_oneof![Just(None), (0u8..8, 0u8..6, arb_scalar(8)).prop_map(Some)],
        0usize..3,
        0usize..3,
        0usize..4,
        0u8..3,
        0usize..5,
        prop_oneof![Just(None), (0u8..6, arb_scalar(12)).prop_map(Some)],
        0u8..3,
    )
        .prop_map(
            |(pre_filter, mid_filter, key1, key2, val, keys, agg, post_filter, tail)| Shape {
                pre_filter,
                mid_filter,
                key1,
                key2,
                val,
                keys,
                agg,
                post_filter,
                tail,
            },
        )
}

fn cmp(c: u8, lhs: Expr, rhs: Expr) -> Pred {
    let op = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Gt,
        CmpOp::Ge,
        CmpOp::Lt,
        CmpOp::Le,
    ][c as usize % 6];
    Pred::Cmp { lhs, op, rhs }
}

fn cmp_pred(c: u8, lhs: Expr, n: u64) -> Pred {
    cmp(c, lhs, lit(n))
}

/// A filter over what the map made — keys that may be text, a value
/// that may be arithmetic or a constant: forwarded compares, residuals
/// between them, compares across kinds and against text.
fn mid_pred(kind: u8, c: u8, n: u64) -> Pred {
    let set: BTreeSet<Value> = [Value::U64(n), Value::U64(1), Value::Text(HOSTS[1].into())].into();
    match kind % 8 {
        0 => cmp_pred(c, col("v"), n),
        1 => cmp(c, col("k1"), col("k2")),
        2 => cmp_pred(c, col("k1"), n).or(cmp_pred(c + 1, col("v"), 3).not()),
        3 => Pred::in_set(col("k1"), set),
        4 => cmp_pred(c, col("k2"), n)
            .and(col("k1").eq(lit(2)).or(Pred::in_set(col("k2"), set)))
            .and(cmp(c + 2, col("v"), col("k1"))),
        5 => cmp(c, col("k1"), lit_text(HOSTS[1])),
        6 => cmp(c, col("v"), col("v").add(lit(n))),
        _ => cmp_pred(c, col("k1"), n).and(Pred::contains("k2", b"example").not()),
    }
}

fn build_ops(sh: &Shape) -> Vec<Operator> {
    let mut ops = Vec::new();
    if let Some((ci, c, n)) = sh.pre_filter {
        ops.push(Operator::Filter(cmp_pred(
            c,
            col(["sip", "dip", "len"][ci % 3]),
            n,
        )));
    }
    let key_src = ["sip", "dip", "host"];
    let val = match sh.val % 4 {
        0 => col("len"),
        1 => lit(1),
        2 => col("len").add(lit(3)),
        _ => col("sip").mul(lit(2)),
    };
    ops.push(Operator::Map {
        exprs: vec![
            ("k1".into(), col(key_src[sh.key1 % 3])),
            ("k2".into(), col(key_src[sh.key2 % 3])),
            ("v".into(), val),
        ],
    });
    if let Some((kind, c, n)) = sh.mid_filter {
        ops.push(Operator::Filter(mid_pred(kind, c, n)));
    }
    let keys: Vec<ColName> = match sh.keys % 3 {
        0 => vec!["k1".into()],
        1 => vec!["k2".into()],
        _ => vec!["k1".into(), "k2".into()],
    };
    let aggs = [Agg::Sum, Agg::Count, Agg::Max, Agg::Min, Agg::BitOr];
    ops.push(Operator::Reduce {
        keys: keys.clone(),
        agg: aggs[sh.agg % 5],
        value: "v".into(),
        out: "v".into(),
    });
    if let Some((c, n)) = sh.post_filter {
        ops.push(Operator::Filter(cmp_pred(c, col("v"), n)));
    }
    match sh.tail % 3 {
        1 => ops.push(Operator::Distinct),
        2 => ops.push(Operator::Reduce {
            keys: vec![keys[0].clone()],
            agg: Agg::Sum,
            value: "v".into(),
            out: "v".into(),
        }),
        _ => {}
    }
    ops
}

/// The reference entry-merge: walk every operator index, splicing in
/// that index's injected tuples *after* the stream arriving from
/// upstream, exactly as `interpret::run_entries_owned` does.
fn reference_entries(
    ops: &[Operator],
    input: &Schema,
    mut entries: BTreeMap<usize, Vec<Tuple>>,
) -> (Schema, Vec<Tuple>) {
    let mut schema = input.clone();
    let mut tuples: Vec<Tuple> = Vec::new();
    for i in 0..=ops.len() {
        if let Some(extra) = entries.remove(&i) {
            tuples.extend(extra);
        }
        if i < ops.len() {
            let (s, t) = run_operator(&ops[i], &schema, tuples).unwrap();
            schema = s;
            tuples = t;
        }
    }
    (schema, tuples)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fused_chain_matches_op_by_op(
        shape in arb_shape(),
        tuples in proptest::collection::vec(arb_tuple(), 0..120),
    ) {
        let schema = input_schema();
        let ops = build_ops(&shape);
        let (ref_schema, reference) = run_pipeline(&ops, &schema, tuples.clone()).unwrap();
        let mut bound = BoundPipeline::bind(&ops, &schema).unwrap();
        let fused = bound.run(tuples);
        prop_assert_eq!(bound.output_schema(), &ref_schema);
        prop_assert_eq!(fused, reference);
    }

    #[test]
    fn fused_entry_merge_matches_reference(
        shape in arb_shape(),
        tuples in proptest::collection::vec(arb_tuple(), 0..60),
        raw in proptest::collection::vec(
            proptest::collection::vec(proptest::collection::vec(arb_scalar(32), 8), 0..6),
            8,
        ),
    ) {
        let schema = input_schema();
        let ops = build_ops(&shape);
        let mut bound = BoundPipeline::bind(&ops, &schema).unwrap();
        // Schema at each entry index, for shaping injected tuples.
        let mut schemas = vec![schema.clone()];
        for op in &ops {
            schemas.push(op.output_schema(schemas.last().unwrap()).unwrap());
        }
        let mut entries: BTreeMap<usize, Vec<Tuple>> = BTreeMap::new();
        entries.insert(0, tuples);
        // Rows enter at every op, the output included.
        for (idx, rows) in raw.iter().enumerate().take(ops.len() + 1) {
            let width = schemas[idx].columns().len();
            entries.entry(idx).or_default().extend(rows.iter().map(|r| {
                Tuple::new(r[..width].iter().map(|&v| Value::U64(v)).collect())
            }));
        }
        let (ref_schema, reference) = reference_entries(&ops, &schema, entries.clone());
        let (got_schema, got) = bound.run_entries(entries).unwrap();
        prop_assert_eq!(got_schema, ref_schema);
        prop_assert_eq!(got, reference);
    }

    #[test]
    fn repeated_windows_reuse_the_pipeline_cleanly(
        shape in arb_shape(),
        w1 in proptest::collection::vec(arb_tuple(), 0..80),
        w2 in proptest::collection::vec(arb_tuple(), 0..80),
    ) {
        // A bound pipeline carries its tables' buffers from window to
        // window; it must never carry *state*.
        let schema = input_schema();
        let ops = build_ops(&shape);
        let mut reused = BoundPipeline::bind(&ops, &schema).unwrap();
        let _ = reused.run(w1);
        let mut fresh = BoundPipeline::bind(&ops, &schema).unwrap();
        prop_assert_eq!(reused.run(w2.clone()), fresh.run(w2));
    }
}

/// What one record of a packet block is drawn from: a kind, two small
/// address/port draws (so keys collide), and payload bytes.
type Record = (u8, u8, u8, Vec<u8>);

fn arb_record() -> impl Strategy<Value = Record> {
    let payload = proptest::collection::vec(0u8..4, 0..12);
    (0u8..9, 0u8..4, 0u8..4, payload)
}

/// The wire bytes of one record: TCP (some carrying `zorro`), plain
/// UDP, DNS queries and answers with names, a DNS body cut short, ICMP,
/// an opaque protocol, a packet cut mid-header, and junk.
fn record_bytes((kind, a, b, payload): &Record) -> Vec<u8> {
    let (a, b) = (*a as u32, *b as u32);
    let name = ["a.example.com", "b.example.com", "x.tunnel.evil"][b as usize % 3];
    let answers = |n: u32| {
        (0..n).map(move |i| DnsRecord {
            name: name.into(),
            rtype: DnsQType::A,
            ttl: 9,
            rdata: (0x0a00_0000 + a + i).to_be_bytes().to_vec(),
        })
    };
    let pkt = match kind {
        0 => PacketBuilder::tcp_raw(a, 1000 + b as u16, 9 - b, 23)
            .flags(TcpFlags(*payload.first().unwrap_or(&2)))
            .payload([b"xx zorro "[..].to_vec(), payload.clone()].concat()),
        1 => PacketBuilder::tcp_raw(a, 7, b, 80 + a as u16).payload(payload.clone()),
        2 => PacketBuilder::udp_raw(a, 5000, b, 6000).payload(payload.clone()),
        3 => PacketBuilder::dns(a, b, DnsHeader::query(1, name, DnsQType::Txt)),
        4 => {
            let msg = DnsHeader::response(2, name, DnsQType::A, answers(a % 3).collect());
            PacketBuilder::dns(b, a, msg)
        }
        5 => {
            // A response whose body stops short of what its counts say.
            let mut body = Vec::new();
            DnsHeader::response(3, name, DnsQType::A, answers(2).collect()).emit(&mut body);
            body.truncate(12 + payload.len());
            PacketBuilder::udp_raw(a, 53, b, 4444).payload(body)
        }
        6 => PacketBuilder::icmp_raw(a, b).payload(payload.clone()),
        7 => {
            let mut pkt = PacketBuilder::tcp_raw(a, 1, b, 2)
                .payload(payload.clone())
                .build();
            pkt.ipv4.protocol = sonata_packet::IpProtocol::Other(89);
            pkt.transport = sonata_packet::Transport::Opaque;
            return pkt.encode();
        }
        _ => {
            // Does not decode: cut mid-header, or not IPv4 at all.
            let mut bytes = PacketBuilder::tcp_raw(a, 1, b, 2).build().encode();
            bytes.truncate(10 + payload.len());
            bytes[0] = if b % 2 == 0 { bytes[0] } else { 0x60 };
            return bytes;
        }
    };
    pkt.build().encode()
}

/// A pipeline over the packet schema: `lead` filters that keep it,
/// then a body that narrows — or does not.
fn packet_ops(lead: &[u8], body: u8, th: u64) -> Vec<Operator> {
    let mut q = Query::builder("over_packets", 1);
    let names: BTreeSet<Value> = [Value::Text("example.com".into()), Value::U64(0)].into();
    let hosts: BTreeSet<Value> = (0..4).step_by(2).map(Value::U64).collect();
    for l in lead {
        q = q.filter(match l % 10 {
            0 => field(Field::Ipv4Proto).eq(lit(6)),
            1 => field(Field::UdpSrcPort)
                .eq(lit(53))
                .and(field(Field::DnsQr).eq(lit(1))),
            2 => Pred::contains("pkt.payload", b"zorro"),
            3 => field(Field::PktLen).gt(lit(40 + th)),
            4 => field(Field::TcpDstPort).eq(lit(23)).not(),
            // Compares on the lazily decoded fields: a name against a
            // scalar and against text, an answer address, the payload.
            5 => cmp(th as u8, field(Field::DnsRrName), lit(0))
                .and(field(Field::DnsRrName).ne(lit_text("a.example.com"))),
            6 => cmp(th as u8, field(Field::DnsAnswerIp), lit(0x0a00_0001))
                .and(field(Field::Payload).ne(lit(th))),
            // Column against column, one of them lazy.
            7 => cmp(th as u8, field(Field::Ipv4Src), field(Field::Ipv4Dst))
                .and(field(Field::DnsAnswerIp).ge(field(Field::Ipv4Src))),
            // Residuals between lowered compares.
            8 => cmp(th as u8, field(Field::PktLen), lit(60))
                .and(
                    field(Field::UdpSrcPort)
                        .eq(lit(53))
                        .or(field(Field::UdpDstPort).eq(lit(6000)).not()),
                )
                .and(field(Field::Ipv4Src).le(lit(2))),
            // Membership, of scalars and of text.
            _ => Pred::in_set(field(Field::Ipv4Src).mask(31), hosts.clone())
                .or(Pred::in_set(field(Field::DnsRrName).mask(2), names.clone())),
        });
    }
    let q = match body % 6 {
        // `distinct` straight over the packet schema.
        0 => q
            .distinct()
            .map([("sIP", field(Field::Ipv4Src)), ("n", lit(1))])
            .reduce(&["sIP"], Agg::Sum, "n"),
        // Multi-column reduce keys.
        1 => q
            .map([
                ("dIP", field(Field::Ipv4Dst)),
                ("dPort", field(Field::TcpDstPort)),
                ("len", field(Field::PktLen)),
            ])
            .reduce(&["dIP", "dPort"], Agg::Max, "len")
            .filter(col("len").gt(lit(40 + th))),
        // A mask on a text key, next to a lazily read scalar.
        2 => q
            .map([
                ("qname", field(Field::DnsRrName).mask(2)),
                ("rip", field(Field::DnsAnswerIp)),
                ("an", field(Field::DnsAnCount)),
            ])
            .distinct()
            .map([("qname", col("qname")), ("n", col("an").add(lit(1)))])
            .reduce(&["qname"], Agg::Sum, "n"),
        // Payload bytes as part of a key, then searched again.
        3 => q
            .map([
                ("sIP", field(Field::Ipv4Src)),
                ("body", field(Field::Payload)),
            ])
            .distinct()
            .filter(Pred::contains("body", [1u8, 2]).not()),
        // Filters on what a map made, lazy columns among it.
        4 => q
            .map([
                ("k", field(Field::Ipv4Src).mask(31)),
                ("n", field(Field::PktLen).add(lit(1))),
                ("name", field(Field::DnsRrName)),
                ("d", field(Field::Ipv4Dst)),
            ])
            .filter(
                col("n")
                    .gt(lit(40 + th))
                    .and(cmp(th as u8, col("k"), col("d")))
                    .and(col("name").ne(lit(th % 2))),
            )
            .reduce(&["k", "name"], Agg::Sum, "n")
            .filter(cmp_pred(th as u8 + 1, col("n"), 100)),
        // Nothing stateful at all.
        _ => q.map([
            ("k", field(Field::Ipv4Src).mask(31)),
            ("t", field(Field::IcmpType)),
        ]),
    };
    q.build().unwrap().pipeline.ops
}

/// One window's entries, as row runs and as the tuples the oracle
/// takes: selections of `records` at op 0 and at `late` (an op the
/// packet schema still reaches), and flat rows at any op.
fn window_entries(
    ops: &[Operator],
    late: usize,
    records: &[Record],
    (early_sel, late_sel): &(Vec<u8>, Vec<u8>),
    flat: &[(u8, Vec<u64>)],
) -> (Entries, BTreeMap<usize, Vec<Tuple>>) {
    let mut packets = PacketArena::new();
    for (i, r) in records.iter().enumerate() {
        packets.push_record(i as u64, &record_bytes(r));
    }
    let decoded: Vec<Option<Tuple>> = (0..records.len())
        .map(|p| {
            packets
                .view(p)
                .decode()
                .ok()
                .map(|pkt| Tuple::from_packet(&pkt))
        })
        .collect();
    let block = Arc::new(PacketBlock::new(packets));
    let mut schemas = vec![Schema::packet()];
    for op in ops {
        schemas.push(op.output_schema(schemas.last().unwrap()).unwrap());
    }
    let (mut entries, mut oracle) = (Entries::new(), BTreeMap::<usize, Vec<Tuple>>::new());
    for (at, picks) in [(0, early_sel), (late, late_sel)] {
        // One number in `len + 1` names no packet of the block.
        let sel: Vec<u32> = picks
            .iter()
            .map(|&p| p as u32 % (records.len() as u32 + 1))
            .collect();
        let rows = sel
            .iter()
            .filter_map(|&p| decoded.get(p as usize).cloned().flatten());
        oracle.entry(at).or_default().extend(rows);
        let block = Arc::clone(&block);
        entries
            .entry(at)
            .or_default()
            .push(RowRun::Packets { block, sel });
    }
    for (at, cells) in flat {
        let at = *at as usize % (ops.len() + 1);
        let width = schemas[at].len();
        let mut rows = Rows::new(width);
        for row in cells.chunks_exact(width.max(1)).take(4) {
            rows.push(row.iter().copied());
            let tuple = row.iter().map(|&v| Value::U64(v)).collect();
            oracle.entry(at).or_default().push(tuple);
        }
        entries.entry(at).or_default().push(RowRun::Cells(rows));
    }
    (entries, oracle)
}

type Selections = (Vec<u8>, Vec<u8>);
/// Records, the selections of them, and flat rows by entry op.
type Window = (Vec<Record>, Selections, Vec<(u8, Vec<u64>)>);

fn arb_window() -> impl Strategy<Value = Window> {
    let sel = || proptest::collection::vec(any::<u8>(), 0..40);
    // Mostly small cells, now and then one past 2⁶³.
    let cell = prop_oneof![0u64..6, 0u64..6, 0u64..6, (1u64 << 63)..u64::MAX];
    let flat = (any::<u8>(), proptest::collection::vec(cell, 0..64));
    (
        proptest::collection::vec(arb_record(), 0..24),
        (sel(), sel()),
        proptest::collection::vec(flat, 0..3),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn packet_blocks_and_flat_rows_match_the_interpreter_over_decoded_tuples(
        lead in proptest::collection::vec(0u8..10, 0..3),
        (body, th, late) in (0u8..6, 0u64..30, any::<u8>()),
        w1 in arb_window(),
        w2 in arb_window(),
    ) {
        let ops = packet_ops(&lead, body, th);
        let late = late as usize % (lead.len() + 1);
        let mut bound = BoundPipeline::bind(&ops, &Schema::packet()).unwrap();
        for (records, sels, flat) in [&w1, &w2] {
            let (entries, oracle) = window_entries(&ops, late, records, sels, flat);
            let (ref_schema, reference) = reference_entries(&ops, &Schema::packet(), oracle);
            // A second window through the same pipeline starts clean.
            let got = bound.run_rows(&entries).unwrap();
            prop_assert_eq!(bound.output_schema(), &ref_schema);
            prop_assert_eq!(&got.tuples().collect::<Vec<_>>(), &reference);
            // The same window fed a run at a time ahead of its close,
            // as the job pool streams a job: every run entering at or
            // before the first sink is fed, the rest left to `finish`.
            let mut rest = entries.clone();
            bound.begin();
            for (&at, runs) in rest.range_mut(..=bound.feed_limit()) {
                for run in std::mem::take(runs) {
                    bound.feed(at, std::slice::from_ref(&run));
                }
            }
            let streamed = bound.finish(&rest).unwrap();
            prop_assert_eq!(streamed.tuples().collect::<Vec<_>>(), reference);
        }
    }
}

/// A window in which nothing survives the first compare: empty
/// selections through every sink, the sorted emission, the join and the
/// post-join pipeline — on packets and on flat rows.
#[test]
fn a_window_that_fails_the_first_compare_leaves_everything_empty() {
    let q = Query::builder("nothing", 1)
        .filter(field(Field::Ipv4Proto).eq(lit(250)))
        .map([
            ("dIP", field(Field::Ipv4Dst)),
            ("sIP", field(Field::Ipv4Src)),
        ])
        .distinct()
        .map([("dIP", col("dIP")), ("n", lit(1))])
        .reduce(&["dIP"], Agg::Sum, "n")
        .join_with(&["dIP"], |b| {
            b.filter(field(Field::Ipv4Proto).eq(lit(6)))
                .map([
                    ("dIP", field(Field::Ipv4Dst)),
                    ("len", field(Field::PktLen)),
                ])
                .reduce(&["dIP"], Agg::Max, "len")
        })
        .map([("dIP", col("dIP")), ("x", col("n").add(col("len")))])
        .filter(col("x").gt(lit(0)))
        .build()
        .unwrap();
    let packets: Vec<_> = (0..40u32)
        .map(|i| PacketBuilder::tcp_raw(i % 5, 9, i % 3, 80).build())
        .collect();
    assert!(run_query(&q, &packets).unwrap().is_empty());
    let mut arena = PacketArena::new();
    for p in &packets {
        arena.push_record(p.ts_nanos, &p.encode());
    }
    let block = Arc::new(PacketBlock::new(arena));
    let sel: Vec<u32> = (0..packets.len() as u32).collect();
    let as_packets = RowRun::Packets { block, sel };
    let as_cells = {
        let mut rows = Rows::new(Schema::packet().len());
        packets
            .iter()
            .for_each(|p| rows.push_row(&Tuple::from_packet(p)));
        RowRun::Cells(rows)
    };
    let join = q.join.as_ref().unwrap();
    let packet = Schema::packet();
    let mut left = BoundPipeline::bind(&q.pipeline.ops, &packet).unwrap();
    let mut right = BoundPipeline::bind(&join.right.ops, &packet).unwrap();
    let mut bound = BoundJoin::bind(join, left.output_schema(), right.output_schema()).unwrap();
    for run in [as_packets, as_cells] {
        let entries = Entries::from([(0, vec![run])]);
        let (l, r) = (
            left.run_rows(&entries).unwrap(),
            right.run_rows(&entries).unwrap(),
        );
        assert_eq!((l.len(), r.len()), (0, 3));
        assert_eq!(left.cardinalities().collect::<Vec<_>>(), [0, 0]);
        assert!(bound.run_rows(&l, &r).is_empty());
    }
}
