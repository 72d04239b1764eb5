//! Property-based tests for the wire codec: every frame the protocol
//! can express must round-trip bit-exactly, and no input — truncated,
//! corrupted, version-skewed, or pure garbage — may ever panic the
//! decoder. Decode failures are typed [`CodecError`]s, nothing else.

use proptest::prelude::*;
use sonata_net::{
    decode_frame, decode_frame_tagged, encode_frame, encode_frame_ctx, CodecError, Frame,
    HEADER_LEN, VERSION,
};
use sonata_obs::TraceContext;
use sonata_packet::{Packet, PacketBuilder, TcpFlags};
use sonata_pisa::{
    ControlOp, DumpBlock, Report, ReportKind, SketchBound, StateLayout, TaskId, WindowDump,
};
use sonata_query::QueryId;
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

/// One column block: up to four names (a zero-width block holds no
/// rows), up to five rows.
fn arb_block() -> impl Strategy<Value = DumpBlock> {
    (
        (any::<u32>(), any::<u8>(), any::<u8>(), any::<bool>()),
        any::<u64>(),
        arb_entry_op(),
        proptest::collection::vec(arb_name(), 0..5),
        0usize..6,
        proptest::collection::vec(any::<u64>(), 20),
    )
        .prop_map(
            |((q, level, branch, raw), first_seq, entry_op, names, rows, vals)| DumpBlock {
                task: TaskId {
                    query: QueryId(q),
                    level,
                    branch,
                },
                kind: if raw {
                    ReportKind::WindowDumpRaw
                } else {
                    ReportKind::WindowDump
                },
                entry_op,
                first_seq,
                cells: vals[..rows * names.len()].to_vec(),
                names: names.into_iter().map(Into::into).collect(),
            },
        )
}

fn arb_dump() -> impl Strategy<Value = WindowDump> {
    (
        proptest::collection::vec(arb_block(), 0..4),
        any::<u64>(),
        0usize..1_000_000,
        any::<u64>(),
        proptest::collection::vec(arb_bound(), 0..3),
    )
        .prop_map(
            |(blocks, suppressed, occupancy, shunted_packets, bounds)| WindowDump {
                tuples: blocks.into_iter().collect(),
                suppressed,
                occupancy,
                shunted_packets,
                bounds,
            },
        )
}

/// Every frame type in the protocol vocabulary.
fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
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

/// The bytes of a `WindowDump` frame whose payload is one block,
/// written by hand so the header can claim any `rows` × `width` over
/// any cells, wrapped in a valid frame header and CRC.
fn hand_framed_block(names: &[String], rows: u32, width: u16, cell_bytes: &[u8]) -> Vec<u8> {
    let mut p = Vec::new();
    p.extend_from_slice(&7u64.to_le_bytes()); // window
    p.extend_from_slice(&1u32.to_le_bytes()); // one block
    p.extend_from_slice(&[1, 0, 0, 0, 32, 0, 3]); // task q1/32/0, raw kind
    p.extend_from_slice(&0u64.to_le_bytes()); // first seq
    p.push(0); // no entry op
    p.extend_from_slice(&(names.len() as u16).to_le_bytes());
    for n in names {
        p.extend_from_slice(&(n.len() as u16).to_le_bytes());
        p.extend_from_slice(n.as_bytes());
    }
    p.extend_from_slice(&rows.to_le_bytes());
    p.extend_from_slice(&width.to_le_bytes());
    p.extend_from_slice(cell_bytes);
    p.extend_from_slice(&[0; 28]); // suppressed, occupancy, shunted, no bounds
    let mut out = encode_frame(&Frame::Credit { window: 0 })[..HEADER_LEN].to_vec();
    out[6] = 4; // WindowDump
    out[34..38].copy_from_slice(&(p.len() as u32).to_le_bytes());
    out.extend_from_slice(&p);
    let crc = sonata_net::codec::crc32(&out[4..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

proptest! {
    #[test]
    fn dump_block_claims_are_checked_against_the_frame(
        names in proptest::collection::vec(arb_name(), 1..5),
        rows in 0u32..6,
        vals in proptest::collection::vec(any::<u64>(), 20),
        over in 1u32..,
        skew in 1u16..,
        short in 1usize..8,
    ) {
        let width = names.len() as u16;
        let cells = &vals[..rows as usize * names.len()];
        let bytes: Vec<u8> = cells.iter().flat_map(|v| v.to_le_bytes()).collect();
        // The honest header decodes to exactly the block.
        let (frame, _) = decode_frame(&hand_framed_block(&names, rows, width, &bytes)).unwrap();
        let Frame::WindowDump { window: 7, dump } = frame else {
            panic!("decoded as {frame:?}");
        };
        prop_assert_eq!(dump.tuples.len(), rows as usize);
        prop_assert_eq!(&dump.tuples.blocks()[0].cells, cells);
        let malformed = |r: Result<(Frame, usize), CodecError>| {
            matches!(r, Err(CodecError::Malformed(_)))
        };
        // More rows than the frame holds — up to 2^32 × width cells —
        // is an error, not an allocation.
        let claim = rows.saturating_add(over.max(4));
        prop_assert!(malformed(decode_frame(&hand_framed_block(&names, claim, width, &bytes))));
        // A width that is not the name count.
        let skewed = width.wrapping_add(skew);
        prop_assert!(malformed(decode_frame(&hand_framed_block(&names, rows, skewed, &bytes))));
        // A last row cut short.
        if !bytes.is_empty() {
            let cut = &bytes[..bytes.len() - short];
            prop_assert!(malformed(decode_frame(&hand_framed_block(&names, rows, width, cut))));
        }
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
