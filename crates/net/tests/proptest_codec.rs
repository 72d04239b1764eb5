//! Property-based tests for the wire codec: every frame the protocol
//! can express must round-trip bit-exactly, and no input — truncated,
//! corrupted, version-skewed, or pure garbage — may ever panic the
//! decoder. Decode failures are typed [`CodecError`]s, nothing else.

use proptest::prelude::*;
use sonata_net::codec::crc32;
use sonata_net::{
    decode_frame, decode_frame_tagged, encode_frame, encode_frame_ctx, encode_frame_into,
    CodecError, Frame, HEADER_LEN, VERSION,
};
use sonata_obs::TraceContext;
use sonata_packet::wire::{field_mask, ALL_FIELDS, LAZY_FIELDS};
use sonata_packet::{Field, Packet, PacketArena, PacketBuilder, TcpFlags};
use sonata_pisa::{
    ControlOp, Report, ReportBlock, ReportChunk, ReportKind, SketchBound, StateLayout, TaskId,
    WindowDump,
};
use sonata_query::{PacketBlock, QueryId};
use std::collections::BTreeSet;

fn arb_name() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9._-]{0,24}").unwrap()
}

fn arb_kind() -> impl Strategy<Value = ReportKind> {
    prop_oneof![
        Just(ReportKind::Tuple),
        Just(ReportKind::Shunt),
        Just(ReportKind::WindowDump),
        Just(ReportKind::WindowDumpRaw),
    ]
}

fn arb_entry_op() -> impl Strategy<Value = Option<usize>> {
    prop_oneof![Just(None), (0usize..100_000).prop_map(Some)]
}

/// A canonical packet: built, encoded, and re-decoded, so that the
/// codec's own decode-on-read produces an identical value (the codec
/// ships packets as wire bytes, exactly like the capture path).
fn arb_packet() -> impl Strategy<Value = Option<Packet>> {
    let canonical = (
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
        0u8..=0x3f,
        any::<u32>(),
        any::<u64>(),
    )
        .prop_map(|(sip, dip, sport, dport, flags, seq, ts)| {
            let built = PacketBuilder::tcp_raw(sip, sport, dip, dport)
                .seq(seq)
                .flags(TcpFlags(flags))
                .build();
            let mut pkt = Packet::decode(&built.encode()).unwrap();
            pkt.ts_nanos = ts;
            pkt
        });
    prop_oneof![Just(None), canonical.prop_map(Some)]
}

fn arb_report() -> impl Strategy<Value = Report> {
    (
        any::<u32>(),
        any::<u8>(),
        any::<u8>(),
        arb_kind(),
        any::<u64>(),
        arb_entry_op(),
        proptest::collection::vec((arb_name(), any::<u64>()), 0..6),
        arb_packet(),
    )
        .prop_map(
            |(q, level, branch, kind, seq, entry_op, columns, packet)| Report {
                task: TaskId {
                    query: QueryId(q),
                    level,
                    branch,
                },
                kind,
                columns: columns.into_iter().map(|(n, v)| (n.into(), v)).collect(),
                packet,
                entry_op,
                seq,
            },
        )
}

fn arb_ops() -> impl Strategy<Value = Vec<ControlOp>> {
    proptest::collection::vec(
        prop_oneof![
            (arb_name(), proptest::collection::vec(any::<u64>(), 0..8)).prop_map(
                |(table, entries)| ControlOp::SetDynFilter {
                    table,
                    entries: entries.into_iter().collect::<BTreeSet<u64>>(),
                }
            ),
            Just(ControlOp::ResetRegisters),
        ],
        0..5,
    )
}

fn arb_bound() -> impl Strategy<Value = SketchBound> {
    (
        (any::<u32>(), any::<u8>(), any::<u8>(), 0u8..4),
        (
            0.0f64..1.0,
            0.0f64..1.0,
            any::<u64>(),
            any::<u64>(),
            any::<bool>(),
        ),
    )
        .prop_map(
            |((q, level, branch, tag), (epsilon, delta, mass, updates, saturated))| SketchBound {
                task: TaskId {
                    query: QueryId(q),
                    level,
                    branch,
                },
                layout: StateLayout::from_tag(tag).expect("tag in range"),
                epsilon,
                delta,
                mass,
                updates,
                saturated,
            },
        )
}

/// The block kinds of a batch's chunks and of a window dump's.
const MIRROR_KINDS: [ReportKind; 2] = [ReportKind::Tuple, ReportKind::Shunt];
const DUMP_KINDS: [ReportKind; 2] = [ReportKind::WindowDump, ReportKind::WindowDumpRaw];

/// One report block of either of `kinds`: up to four names and five
/// rows, with or without a packet index per row ([`chunk_of`] brings
/// the indices in range of its packets).
fn arb_report_block(kinds: [ReportKind; 2]) -> impl Strategy<Value = ReportBlock> {
    (
        (any::<u32>(), any::<u8>(), any::<u8>(), any::<bool>()),
        any::<u64>(),
        arb_entry_op(),
        proptest::collection::vec(arb_name(), 0..5),
        0usize..6,
        proptest::collection::vec(any::<u64>(), 20),
        (any::<bool>(), proptest::collection::vec(any::<u32>(), 5)),
    )
        .prop_map(
            move |((q, level, branch, second), first_seq, entry_op, names, rows, vals, pkts)| {
                ReportBlock {
                    task: TaskId {
                        query: QueryId(q),
                        level,
                        branch,
                    },
                    kind: kinds[usize::from(second)],
                    entry_op,
                    first_seq,
                    rows,
                    cells: vals[..rows * names.len()].to_vec(),
                    names: names.into_iter().map(Into::into).collect(),
                    pkts: match pkts.0 {
                        true => pkts.1[..rows].to_vec(),
                        false => Vec::new(),
                    },
                }
            },
        )
}

/// `blocks` over `packets`: with no packet to index, no block carries
/// any; and no block has rows with neither columns nor packets, which
/// take no bytes on the wire.
fn chunk_of(packets: PacketBlock, mut blocks: Vec<ReportBlock>) -> ReportChunk {
    for b in &mut blocks {
        match packets.len() as u32 {
            0 => b.pkts.clear(),
            n => b.pkts.iter_mut().for_each(|p| *p %= n),
        }
        if b.names.is_empty() && b.pkts.is_empty() {
            b.rows = 0;
        }
    }
    ReportChunk { packets, blocks }
}

fn arb_dump() -> impl Strategy<Value = WindowDump> {
    (
        proptest::collection::vec(arb_report_block(DUMP_KINDS), 0..4),
        any::<u64>(),
        0usize..1_000_000,
        any::<u64>(),
        proptest::collection::vec(arb_bound(), 0..3),
    )
        .prop_map(
            |(blocks, suppressed, occupancy, shunted_packets, bounds)| WindowDump {
                tuples: chunk_of(PacketBlock::default(), blocks),
                suppressed,
                occupancy,
                shunted_packets,
                bounds,
            },
        )
}

/// Up to three carried packets as the columns of any field mask: any
/// values, any validity bits — the codec ships them, it does not parse
/// them — and, when the mask names a lazy field, any bytes.
fn arb_packet_block() -> impl Strategy<Value = PacketBlock> {
    let packet = (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..48));
    let mask = prop_oneof![
        any::<u32>().prop_map(|m| m & ALL_FIELDS & !LAZY_FIELDS),
        any::<u32>().prop_map(|m| m & ALL_FIELDS),
    ];
    (
        mask,
        proptest::collection::vec(packet, 0..4),
        any::<u64>(),
        proptest::collection::vec(any::<u32>(), 3 * 21),
    )
        .prop_map(|(mask, records, valid, values)| {
            let n = records.len();
            let scalars = (mask & !LAZY_FIELDS).count_ones() as usize;
            let mut packets = PacketArena::new();
            if mask & LAZY_FIELDS != 0 {
                for (ts, wire) in &records {
                    packets.push_record(*ts, wire);
                }
            }
            let valid = (n > 0).then_some(valid & ((1 << n) - 1));
            let cols = values[..scalars * n].to_vec();
            PacketBlock::from_parts(mask, n, cols, valid.into_iter().collect(), packets).unwrap()
        })
}

/// A chunk of mirrored reports: its carried packets and up to three
/// blocks indexing them.
fn arb_report_blocks() -> impl Strategy<Value = ReportChunk> {
    (
        arb_packet_block(),
        proptest::collection::vec(arb_report_block(MIRROR_KINDS), 0..4),
    )
        .prop_map(|(packets, blocks)| chunk_of(packets, blocks))
}

/// Every frame type in the protocol vocabulary.
fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        arb_report_blocks().prop_map(Frame::ReportBlocks),
        (arb_name(), any::<u64>())
            .prop_map(|(node, plan_digest)| Frame::Hello { node, plan_digest }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(window, packets)| Frame::WindowOpen { window, packets }),
        arb_report().prop_map(Frame::Report),
        (any::<u64>(), arb_dump()).prop_map(|(window, dump)| Frame::WindowDump { window, dump }),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(window, packet_loop_ns, dump_ns, transport_ns)| Frame::WindowClose {
                window,
                packet_loop_ns,
                dump_ns,
                transport_ns,
            }
        ),
        (any::<u64>(), arb_ops()).prop_map(|(window, ops)| Frame::Control { window, ops }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(window, entries_written, latency_ns)| Frame::ControlAck {
                window,
                entries_written,
                latency_ns,
            }
        ),
        any::<u64>().prop_map(|window| Frame::Credit { window }),
    ]
}

/// `payload` as the payload of a frame of type `type_byte`, under a
/// valid header and CRC.
fn hand_framed(type_byte: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = encode_frame(&Frame::Credit { window: 0 })[..HEADER_LEN].to_vec();
    out[6] = type_byte;
    out[34..38].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[4..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Everything a `ReportBlocks` or `WindowDump` payload of one block
/// claims, each claim separately settable.
#[derive(Debug, Clone)]
struct ChunkClaims {
    /// The frame type byte: 9 `ReportBlocks`, 4 `WindowDump`.
    frame: u8,
    npackets: u32,
    mask: u32,
    bitmap: Vec<u8>,
    columns: Vec<u32>,
    nbytes: u32,
    lens: Vec<u32>,
    wire: Vec<u8>,
    kind: u8,
    names: Vec<String>,
    rows: u32,
    width: u16,
    cells: Vec<u64>,
    flag: u8,
    pkts: Vec<u32>,
}

/// The source address, destination port and payload of a packet.
fn honest_mask() -> u32 {
    field_mask(&[Field::Ipv4Src, Field::TcpDstPort, Field::Payload])
}

impl ChunkClaims {
    /// Two packets — the first decodes, the second does not — of 3 and
    /// 5 bytes, shipped as [`honest_mask`], one block of `rows` rows
    /// over `names`, every row carrying packet `r % 2`.
    fn honest(names: &[String], rows: u32, vals: &[u64]) -> Self {
        ChunkClaims {
            frame: 9,
            npackets: 2,
            mask: honest_mask(),
            bitmap: 1u64.to_le_bytes().to_vec(),
            columns: vec![0x0a00_0001, 7, 80, 0],
            nbytes: 8,
            lens: vec![3, 5],
            wire: (0..8).collect(),
            kind: 0,
            names: names.to_vec(),
            rows,
            width: names.len() as u16,
            cells: vals[..rows as usize * names.len()].to_vec(),
            flag: 1,
            pkts: (0..rows).map(|r| r % 2).collect(),
        }
    }

    /// [`Self::honest`] with the payload left out: no byte section.
    fn columns_only(names: &[String], rows: u32, vals: &[u64]) -> Self {
        ChunkClaims {
            mask: honest_mask() & !LAZY_FIELDS,
            nbytes: 0,
            lens: Vec::new(),
            wire: Vec::new(),
            ..ChunkClaims::honest(names, rows, vals)
        }
    }

    /// A window dump of one raw block of `rows` rows over `names` (none
    /// when there are no names), carrying no packets.
    fn dump(names: &[String], rows: u32, vals: &[u64]) -> Self {
        let rows = if names.is_empty() { 0 } else { rows };
        ChunkClaims {
            frame: 4,
            npackets: 0,
            mask: 0,
            bitmap: Vec::new(),
            columns: Vec::new(),
            nbytes: 0,
            lens: Vec::new(),
            wire: Vec::new(),
            kind: 3,
            rows,
            flag: 0,
            pkts: Vec::new(),
            ..ChunkClaims::honest(names, rows, vals)
        }
    }

    fn payload(&self) -> Vec<u8> {
        let mut p = Vec::new();
        if self.frame == 4 {
            p.extend_from_slice(&7u64.to_le_bytes()); // window
        }
        p.extend_from_slice(&self.npackets.to_le_bytes());
        p.extend_from_slice(&self.mask.to_le_bytes());
        p.extend_from_slice(&self.bitmap);
        for v in &self.columns {
            p.extend_from_slice(&v.to_le_bytes());
        }
        p.extend_from_slice(&self.nbytes.to_le_bytes());
        for (i, len) in self.lens.iter().enumerate() {
            p.extend_from_slice(&(100 + i as u64).to_le_bytes()); // ts
            p.extend_from_slice(&len.to_le_bytes());
        }
        p.extend_from_slice(&self.wire);
        p.extend_from_slice(&1u32.to_le_bytes()); // one block
        p.extend_from_slice(&[1, 0, 0, 0, 32, 0, self.kind]); // task q1/32/0
        p.extend_from_slice(&5u64.to_le_bytes()); // first seq
        p.push(0); // no entry op
        p.extend_from_slice(&(self.names.len() as u16).to_le_bytes());
        for n in &self.names {
            p.extend_from_slice(&(n.len() as u16).to_le_bytes());
            p.extend_from_slice(n.as_bytes());
        }
        p.extend_from_slice(&self.rows.to_le_bytes());
        p.extend_from_slice(&self.width.to_le_bytes());
        for v in &self.cells {
            p.extend_from_slice(&v.to_le_bytes());
        }
        p.push(self.flag);
        for i in &self.pkts {
            p.extend_from_slice(&i.to_le_bytes());
        }
        if self.frame == 4 {
            p.extend_from_slice(&[0; 28]); // suppressed, occupancy, shunted, no bounds
        }
        p
    }

    fn decode(&self) -> Result<(Frame, usize), CodecError> {
        decode_frame(&hand_framed(self.frame, &self.payload()))
    }
}

/// CRC-32/IEEE one bit at a time: the definition, sharing no table and
/// no loop shape with the codec's.
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in data {
        c ^= b as u32;
        for _ in 0..8 {
            c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
        }
    }
    !c
}

/// `len` bytes of a xorshift stream from `seed`.
fn noise(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect()
}

#[test]
fn sliced_crc_is_the_bitwise_crc_at_every_short_length_and_offset() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    // Every head, body and tail the lanes can split a buffer into.
    let buf = noise(11, 16 + 300);
    for start in 0..16 {
        for len in 0..=300 {
            let data = &buf[start..start + len];
            assert_eq!(crc32(data), crc32_bitwise(data), "start {start}, len {len}");
        }
    }
}

/// One fixed frame per [`Frame`] variant under a non-trivial header —
/// two `ReportBlocks`, with and without a byte section — by name.
/// `golden_v9.hex` holds each as the v9 encoder first wrote it.
fn golden_frames() -> Vec<(&'static str, u16, TraceContext, u64, Frame)> {
    let task = |q: u32, level: u8, branch: u8| TaskId {
        query: QueryId(q),
        level,
        branch,
    };
    let wire = |p: Packet| Packet::decode(&p.encode()).unwrap();
    let syn = wire(
        PacketBuilder::tcp_raw(0x0a00_0001, 1234, 0xc0a8_0105, 80)
            .flags(TcpFlags::SYN)
            .seq(99)
            .payload(&b"GET /"[..])
            .build(),
    );
    let dns = wire(
        PacketBuilder::udp_raw(0x0808_0808, 53, 0x0a00_0002, 33_000)
            .payload(&b"not dns"[..])
            .build(),
    );
    let mut packets = PacketArena::new();
    packets.push_record(1_000_000_007, &syn.encode());
    packets.push_record(1_000_000_900, &dns.encode());
    packets.push_record(1_000_001_000, &[0x45, 0, 0]); // does not decode
    let fields = field_mask(&[Field::Ipv4Dst, Field::Ipv4Proto, Field::TcpFlags]);
    let shipped = |mask| PacketBlock::extract(mask, packets.batch().iter());
    let chunk = ReportChunk {
        packets: shipped(fields),
        blocks: vec![
            ReportBlock {
                task: task(1, 32, 0),
                kind: ReportKind::Tuple,
                entry_op: None,
                first_seq: 4_097, // a continuation: rows 0..4097 left in earlier chunks
                names: ["ipv4.dst".into(), "count".into()].into(),
                rows: 3,
                cells: vec![0xc0a8_0105, 1, 0x0a00_0002, 1, 0xc0a8_0105, u64::MAX],
                pkts: vec![0, 1, 2],
            },
            ReportBlock {
                task: task(7, 16, 1),
                kind: ReportKind::Shunt,
                entry_op: Some(2),
                first_seq: 0,
                names: ["ipv4.src".into()].into(),
                rows: 2,
                cells: vec![0x0a00_0001, 0x0808_0808],
                pkts: Vec::new(),
            },
        ],
    };
    let dump = WindowDump {
        tuples: ReportChunk {
            packets: PacketBlock::default(),
            blocks: vec![
                ReportBlock {
                    task: task(3, 24, 0),
                    kind: ReportKind::WindowDump,
                    entry_op: Some(4),
                    first_seq: 12,
                    names: ["ipv4.dst".into(), "sum".into()].into(),
                    rows: 2,
                    cells: vec![0x0a00_0000, 41, 0x0b00_0000, 7],
                    pkts: Vec::new(),
                },
                ReportBlock {
                    task: task(3, 24, 1),
                    kind: ReportKind::WindowDumpRaw,
                    entry_op: None,
                    first_seq: 0,
                    names: ["key".into()].into(),
                    rows: 3,
                    cells: vec![9, 8, 7],
                    pkts: Vec::new(),
                },
            ],
        },
        suppressed: 5,
        occupancy: 1_234,
        shunted_packets: 17,
        bounds: vec![SketchBound {
            task: task(3, 24, 0),
            layout: StateLayout::CountMin,
            epsilon: 0.01,
            delta: 0.001,
            mass: 10_000,
            updates: 9_999,
            saturated: true,
        }],
    };
    let mut mirrored = syn;
    mirrored.ts_nanos = 42;
    let report = Report {
        task: task(2, 8, 0),
        kind: ReportKind::Tuple,
        columns: vec![("ipv4.dst".into(), 0xc0a8_0105), ("count".into(), 3)],
        packet: Some(mirrored),
        entry_op: Some(1),
        seq: 77,
    };
    let ctx = TraceContext {
        trace: 0x1122_3344_5566_7788,
        span: 0x99aa_bbcc_ddee_ff00,
    };
    let with_bytes = ReportChunk {
        packets: shipped(fields | field_mask(&[Field::Payload])),
        ..chunk.clone()
    };
    vec![
        ("report_blocks", 3, ctx, 5, Frame::ReportBlocks(chunk)),
        (
            "report_blocks_bytes",
            3,
            ctx,
            5,
            Frame::ReportBlocks(with_bytes),
        ),
        (
            "window_dump",
            1,
            ctx,
            5,
            Frame::WindowDump { window: 9, dump },
        ),
        ("report", 2, TraceContext::NONE, 0, Frame::Report(report)),
        (
            "hello",
            u16::MAX,
            TraceContext::NONE,
            u64::MAX,
            Frame::Hello {
                node: "switch-3".into(),
                plan_digest: 0xDEAD_BEEF_0BAD_F00D,
            },
        ),
        (
            "window_open",
            0,
            ctx,
            1,
            Frame::WindowOpen {
                window: 9,
                packets: 3_841,
            },
        ),
        (
            "window_close",
            0,
            ctx,
            1,
            Frame::WindowClose {
                window: 9,
                packet_loop_ns: 120_000,
                dump_ns: 45_000,
                transport_ns: 9_000,
            },
        ),
        (
            "control",
            1,
            ctx,
            2,
            Frame::Control {
                window: 9,
                ops: vec![
                    ControlOp::SetDynFilter {
                        table: "q1_l16_f0".into(),
                        entries: [3u64, 1, 2].into_iter().collect(),
                    },
                    ControlOp::ResetRegisters,
                ],
            },
        ),
        (
            "control_ack",
            1,
            ctx,
            2,
            Frame::ControlAck {
                window: 9,
                entries_written: 3,
                latency_ns: 131_000_000,
            },
        ),
        ("credit", 1, ctx, 2, Frame::Credit { window: 9 }),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn golden_v9_frames_encode_byte_for_byte_and_decode_equal() {
    let fixture = include_str!("golden_v9.hex");
    let mut lines = fixture.lines();
    for (name, switch, ctx, epoch, frame) in golden_frames() {
        let (got_name, want) = (lines.next().and_then(|l| l.split_once(' '))).expect("a line");
        assert_eq!(got_name, name);
        let bytes = encode_frame_ctx(switch, ctx, epoch, &frame);
        assert_eq!(hex(&bytes), want, "{name} changed on the wire");
        let decoded = decode_frame_tagged(&bytes).unwrap();
        assert_eq!(decoded, (switch, ctx, epoch, frame, bytes.len()), "{name}");
    }
    assert_eq!(lines.next(), None);
}

proptest! {
    // The bitwise oracle takes eight steps a byte; a megabyte a case.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn sliced_crc_is_the_bitwise_crc_on_large_buffers(
        seed in any::<u64>(),
        len in 0usize..=2 << 20,
    ) {
        let data = noise(seed, len);
        prop_assert_eq!(crc32(&data), crc32_bitwise(&data));
    }
}

proptest! {
    #[test]
    fn a_reused_buffer_holds_exactly_the_last_frame(
        a in arb_frame(),
        b in arb_frame(),
        switch in any::<u16>(),
        epoch in any::<u64>(),
    ) {
        let ctx = TraceContext { trace: epoch ^ 7, span: switch as u64 };
        let mut buf = Vec::new();
        for frame in [&a, &b, &a] {
            encode_frame_into(&mut buf, switch, ctx, epoch, frame);
            prop_assert_eq!(&buf, &encode_frame_ctx(switch, ctx, epoch, frame));
        }
    }

    #[test]
    fn report_block_claims_are_checked_against_the_frame(
        names in proptest::collection::vec(arb_name(), 0..5),
        rows in 0u32..6,
        vals in proptest::collection::vec(any::<u64>(), 20),
        over in 1u32..,
        skew in 1u16..,
        stray in 2u32..,
        past in 21u32..32,
        extra in 0usize..21,
    ) {
        // The honest payloads decode to exactly the chunk: mirrors with
        // and without a byte section, and a window dump.
        for honest in [
            ChunkClaims::honest(&names, rows, &vals),
            ChunkClaims::columns_only(&names, rows, &vals),
            ChunkClaims::dump(&names, rows, &vals),
        ] {
            let chunk = match honest.decode().unwrap().0 {
                Frame::ReportBlocks(chunk) if honest.frame == 9 => chunk,
                Frame::WindowDump { window: 7, dump } if honest.frame == 4 => dump.tuples,
                frame => panic!("decoded as {frame:?}"),
            };
            let packets = &chunk.packets;
            prop_assert_eq!((packets.len(), packets.mask()), (honest.npackets as usize, honest.mask));
            prop_assert_eq!(packets.columns(), &honest.columns[..]);
            let bitmap: Vec<u8> = packets.validity().iter().flat_map(|w| w.to_le_bytes()).collect();
            prop_assert_eq!(bitmap, honest.bitmap.clone());
            let bytes = packets.packets();
            if honest.mask & LAZY_FIELDS == 0 {
                prop_assert!(bytes.is_empty());
            } else {
                prop_assert_eq!(bytes.view(1).bytes(), &[3u8, 4, 5, 6, 7][..]);
                prop_assert_eq!(bytes.view(1).ts_nanos(), 101);
            }
            let block = &chunk.blocks[0];
            prop_assert!(block.is_well_formed());
            prop_assert_eq!((block.rows, block.first_seq), (honest.rows as usize, 5));
            prop_assert_eq!((&block.cells, &block.pkts), (&honest.cells, &honest.pkts));
        }
        let malformed = |c: ChunkClaims| matches!(c.decode(), Err(CodecError::Malformed(_)));
        // What every block states, in either frame, with or without a
        // byte section.
        for honest in [
            ChunkClaims::honest(&names, rows, &vals),
            ChunkClaims::columns_only(&names, rows, &vals),
            ChunkClaims::dump(&names, rows, &vals),
        ] {
            let h = || honest.clone();
            // A row count past what the frame holds — up to 2^32 — is
            // an error, not an allocation.
            let bad_rows = ChunkClaims { rows: honest.rows.saturating_add(over.max(64)), ..h() };
            prop_assert!(malformed(bad_rows));
            // A width that is not the name count; an unknown flag.
            let bad_width = ChunkClaims { width: honest.width.wrapping_add(skew), ..h() };
            let bad_flag = ChunkClaims { flag: 2, ..h() };
            prop_assert!(malformed(bad_width));
            prop_assert!(malformed(bad_flag));
            // A kind the frame does not carry: a dump kind among
            // mirrors, a tuple or shunt among dump rows.
            let foreign = if honest.frame == 9 { [2, 3] } else { [0, 1] };
            for kind in foreign {
                let foreign_kind = ChunkClaims { kind, ..h() };
                prop_assert!(malformed(foreign_kind));
            }
            // Rows that claim neither columns nor packets.
            let bare = ChunkClaims {
                names: Vec::new(),
                rows: over,
                width: 0,
                cells: Vec::new(),
                flag: 0,
                pkts: Vec::new(),
                ..h()
            };
            prop_assert!(malformed(bare));
            // Cut anywhere, the payload is malformed — never a shorter
            // chunk.
            let payload = honest.payload();
            for cut in 0..payload.len() {
                let r = decode_frame(&hand_framed(honest.frame, &payload[..cut]));
                let is_malformed = matches!(r, Err(CodecError::Malformed(_)));
                prop_assert!(is_malformed, "cut at {}: {:?}", cut, r);
            }
        }
        let honest = ChunkClaims::honest(&names, rows, &vals);
        let h = || honest.clone();
        // A packet count or a byte count past what the frame holds — up
        // to 2^32 of each — is an error, not an allocation: whether the
        // bitmap, the columns or the index is the first thing it would
        // size.
        let claim = |n: u32| n.saturating_add(over.max(64));
        for npackets in [claim(2), 40, 9] {
            let bad_npackets = ChunkClaims { npackets, ..h() };
            prop_assert!(malformed(bad_npackets));
        }
        let bad_nbytes = ChunkClaims { nbytes: claim(8), ..h() };
        prop_assert!(malformed(bad_nbytes));
        // A mask bit at or past the field count; a mask naming a field
        // more than the columns hold.
        let past_fields = ChunkClaims { mask: honest.mask | 1 << past, ..h() };
        prop_assert!(malformed(past_fields));
        let wider = honest.mask | 1 << extra;
        if wider != honest.mask && LAZY_FIELDS >> extra & 1 == 0 {
            let unshipped = ChunkClaims { mask: wider, ..h() };
            prop_assert!(malformed(unshipped));
        }
        // A bitmap cut short, or with a bit past the packets.
        let short_bitmap = ChunkClaims { bitmap: vec![1], ..h() };
        let stray_bit = ChunkClaims { bitmap: 5u64.to_le_bytes().to_vec(), ..h() };
        prop_assert!(malformed(short_bitmap));
        prop_assert!(malformed(stray_bit));
        // A byte section without a lazy field to read it.
        let bytes_unasked = ChunkClaims { mask: honest.mask & !LAZY_FIELDS, ..h() };
        prop_assert!(malformed(bytes_unasked));
        // Lengths that do not add up to the byte count.
        let short_lens = ChunkClaims { lens: vec![3, 4], ..h() };
        let long_lens = ChunkClaims { lens: vec![4, 5], ..h() };
        prop_assert!(malformed(short_lens));
        prop_assert!(malformed(long_lens));
        if rows > 0 {
            // A packet index at or past the packet count.
            let mut bad_index = h();
            bad_index.pkts[rows as usize / 2] = stray;
            prop_assert!(malformed(bad_index));
        }
        // A window dump whose rows carry packets: the packets, with or
        // without their bytes, whether or not a row names one.
        let dump = ChunkClaims::dump(&names, rows, &vals);
        for carried in [h(), ChunkClaims::columns_only(&names, rows, &vals)] {
            let unnamed = ChunkClaims { flag: 0, pkts: Vec::new(), ..carried.clone() };
            for packets in [carried, unnamed] {
                let dumped = ChunkClaims { frame: 4, kind: 3, ..packets };
                prop_assert!(malformed(dumped));
            }
        }
        // A window dump's row naming a packet it cannot carry.
        if dump.rows > 0 {
            let indexed = (0..dump.rows).map(|r| r % 2).collect();
            let indexed = ChunkClaims { flag: 1, pkts: indexed, ..dump };
            prop_assert!(malformed(indexed));
        }
    }

    #[test]
    fn a_v8_peer_is_turned_away(chunk in arb_report_blocks()) {
        let mut bytes = encode_frame(&Frame::ReportBlocks(chunk));
        bytes[4..6].copy_from_slice(&8u16.to_le_bytes());
        prop_assert_eq!(
            decode_frame(&bytes).unwrap_err(),
            CodecError::VersionMismatch { found: 8 }
        );
    }
    #[test]
    fn every_frame_type_round_trips(frame in arb_frame()) {
        let bytes = encode_frame(&frame);
        let (decoded, used) = decode_frame(&bytes).unwrap();
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(decoded, frame);
    }

    #[test]
    fn switch_and_trace_tags_round_trip(
        frame in arb_frame(),
        switch in any::<u16>(),
        trace in any::<u64>(),
        span in any::<u64>(),
        epoch in any::<u64>(),
    ) {
        let ctx = TraceContext { trace, span };
        let bytes = encode_frame_ctx(switch, ctx, epoch, &frame);
        let (sw, got_ctx, got_epoch, decoded, used) = decode_frame_tagged(&bytes).unwrap();
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(sw, switch);
        prop_assert_eq!(got_ctx, ctx);
        prop_assert_eq!(got_epoch, epoch);
        prop_assert_eq!(decoded, frame);
    }

    #[test]
    fn frame_streams_decode_in_order(frames in proptest::collection::vec(arb_frame(), 1..6)) {
        let mut buf = Vec::new();
        for f in &frames {
            buf.extend_from_slice(&encode_frame(f));
        }
        let mut pos = 0;
        let mut decoded = Vec::new();
        while pos < buf.len() {
            let (f, n) = decode_frame(&buf[pos..]).unwrap();
            decoded.push(f);
            pos += n;
        }
        prop_assert_eq!(decoded, frames);
    }

    #[test]
    fn any_truncation_is_the_truncated_error(frame in arb_frame(), cut in any::<u32>()) {
        let bytes = encode_frame(&frame);
        let n = cut as usize % bytes.len(); // 0..len, always a strict prefix
        prop_assert_eq!(decode_frame(&bytes[..n]).unwrap_err(), CodecError::Truncated);
    }

    #[test]
    fn single_byte_corruption_is_a_typed_error(
        frame in arb_frame(),
        at in any::<u32>(),
        xor in 1u8..,
    ) {
        let mut bytes = encode_frame(&frame);
        let i = at as usize % bytes.len();
        bytes[i] ^= xor;
        // The specific error depends on which field was hit; the
        // contract is "typed error, no panic, no silent misparse".
        prop_assert!(decode_frame(&bytes).is_err());
    }

    #[test]
    fn foreign_versions_are_rejected_not_guessed(frame in arb_frame(), version in any::<u16>()) {
        prop_assume!(version != VERSION);
        let mut bytes = encode_frame(&frame);
        bytes[4..6].copy_from_slice(&version.to_le_bytes());
        prop_assert_eq!(
            decode_frame(&bytes).unwrap_err(),
            CodecError::VersionMismatch { found: version }
        );
    }

    #[test]
    fn decode_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode_frame(&data);
    }

    #[test]
    fn garbage_after_a_valid_header_never_panics(
        frame in arb_frame(),
        tail in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        // Keep the real header (magic/version/type/len pass the early
        // checks for a prefix) but replace payload + CRC with noise:
        // the structural readers must fail typed, never panic.
        let good = encode_frame(&frame);
        let mut bytes = good[..HEADER_LEN].to_vec();
        bytes.extend_from_slice(&tail);
        let _ = decode_frame(&bytes);
    }
}
