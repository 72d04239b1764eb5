//! Versioned binary wire codec.
//!
//! Every frame is encoded as:
//!
//! ```text
//! +--------+---------+------+-------+--------+--------+--------+--------+--------+-----------+-------+
//! | magic  | version | type | flags | switch | trace  | span   | epoch  | len    | payload   | crc32 |
//! | u32 LE | u16 LE  | u8   | u8    | u16 LE | u64 LE | u64 LE | u64 LE | u32 LE | len bytes | u32 LE|
//! +--------+---------+------+-------+--------+--------+--------+--------+--------+-----------+-------+
//! ```
//!
//! * `magic` is [`MAGIC`] (`"SNTA"`); anything else is a framing error.
//! * `version` is [`VERSION`]; a decoder never guesses at foreign
//!   versions — it returns [`CodecError::VersionMismatch`], so a v2
//!   peer (whose header had no trace fields) is rejected cleanly at
//!   the handshake rather than misparsed.
//! * `switch` identifies the sending switch in a multi-switch fabric
//!   (v2): collectors that serve several switches route reconnect and
//!   `Hello`-replay state by this id. Single-switch deployments send 0.
//! * `trace`/`span` (v3) carry the sender's [`TraceContext`] in-band:
//!   the distributed-trace identity of the window this frame belongs
//!   to and the span it was sent under, so the far side of the wire
//!   parents its own spans into the same trace. Both are 0 when
//!   observability is disabled.
//! * `epoch` (v4) is the plan epoch the sender operated under when it
//!   emitted the frame. Online replanning swaps plans mid-run at a
//!   window boundary; the epoch in every header lets a receiver reject
//!   frames produced under a retired plan instead of merging them into
//!   the wrong plan's state. `Hello` frames are exempt from staleness
//!   checks (the plan digest is their guard) so a reconnecting client
//!   replaying its session open is never bricked by a swap.
//! * `len` is the payload length (bounded by [`MAX_FRAME_LEN`], so a
//!   corrupted length field cannot drive an allocation).
//! * `crc32` (IEEE) covers `version..payload` — header corruption and
//!   payload corruption are both caught before any field is trusted.
//!
//! All integers are little-endian. Strings are `u16` length-prefixed
//! UTF-8; vectors are `u32` count-prefixed; options are a one-byte
//! presence tag. Rows ride as column blocks in a chunk, one layout for
//! a batch's mirrored reports (`ReportBlocks`) and a window's register
//! dump (`WindowDump`, v9): first the packets some row carries, once
//! each, as the columns the deployed queries read (v8) — `npackets:
//! u32`, the field `mask: u32`, a validity bitmap of `⌈npackets / 64⌉`
//! `u64` words (bit `p` set when packet `p` decodes), then one column
//! of `npackets` `u32`s per scalar field of the mask, field-major, then
//! `nbytes: u32` and, only when the mask names a lazy field (a DNS
//! name, the payload), `npackets × (ts: u64, len: u32)` and the
//! `nbytes` of wire bytes back to back — then per block the task, kind,
//! entry op and first `seq`, a `u16`-counted name list, `rows: u32`,
//! `width: u16`, `rows × width` bare `u64` cells, a flag byte and, when
//! it says the rows carry packets, `rows` frame-local `u32` packet
//! indices. `width` must equal the name count. The bitmap, `npackets ×
//! columns × 4`, `npackets × 12`, `nbytes`, `rows × width × 8` and
//! `rows × 4` are each checked against the bytes left before anything
//! is sized, so a header can never size an allocation; a mask bit past
//! the fields, a bitmap bit past the packets, bytes without a lazy
//! field and lengths that do not sum to `nbytes` are malformed, and
//! every index must be below `npackets`. A `ReportBlocks` frame holds
//! only tuple and shunt blocks; a `WindowDump` frame only dump blocks,
//! and no packets.
//! In a single `Report` frame — the one-row form oracles use — the
//! whole packet rides as its own wire encoding
//! ([`sonata_packet::Packet::encode`]) plus the capture timestamp and
//! an Ethernet-framing flag, and is re-parsed on decode — the codec
//! canonicalizes a packet exactly like the capture path does.
//!
//! The decode path returns typed [`CodecError`]s and never panics: a
//! truncated, corrupted, or version-skewed frame is data, not a bug.

use crate::frame::Frame;
use sonata_obs::TraceContext;
use sonata_packet::wire::LAZY_FIELDS;
use sonata_packet::{ArenaIndex, Packet, PacketArena};
use sonata_pisa::{
    ControlOp, Report, ReportBlock, ReportChunk, ReportKind, SketchBound, StateLayout, TaskId,
    WindowDump,
};
use sonata_query::{ColName, PacketBlock, QueryId};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Frame magic: `"SNTA"` as a little-endian u32.
pub const MAGIC: u32 = u32::from_le_bytes(*b"SNTA");
/// Current protocol version (v2 added the `switch` header field; v3
/// added the in-band `trace`/`span` context fields; v4 added the plan
/// `epoch` field for online replanning; v5 added declared sketch
/// error bounds to the window-dump payload; v6 carries the dump's rows
/// as column blocks — names once per block, not once per cell; v7 adds
/// the `ReportBlocks` frame, the same for mirrored reports; v8 carries
/// a mirrored packet as the fields the deployed queries read, not its
/// bytes; v9 ships the dump's blocks as a `ReportBlocks` chunk without
/// packets, so one block codec serves both frames).
pub const VERSION: u16 = 9;
/// Fixed header size (magic + version + type + flags + switch +
/// trace + span + epoch + len).
pub const HEADER_LEN: usize = 38;
/// Upper bound on a payload, checked before any allocation; a window
/// dump of ~100k tuples fits with a wide margin.
pub const MAX_FRAME_LEN: usize = 1 << 26;

/// Typed decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Not enough bytes for a complete frame: on a stream this means
    /// "wait for more", on a fixed buffer it means truncation.
    Truncated,
    /// The magic bytes are wrong — not a Sonata frame boundary.
    BadMagic,
    /// The frame's protocol version is not [`VERSION`].
    VersionMismatch {
        /// The version found on the wire.
        found: u16,
    },
    /// The CRC over header + payload does not match.
    BadCrc,
    /// Unknown frame type byte.
    UnknownFrameType(u8),
    /// The length field exceeds [`MAX_FRAME_LEN`].
    FrameTooLarge(usize),
    /// The payload is structurally invalid for its frame type.
    Malformed(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated frame"),
            CodecError::BadMagic => write!(f, "bad frame magic"),
            CodecError::VersionMismatch { found } => {
                write!(
                    f,
                    "protocol version mismatch: found {found}, want {VERSION}"
                )
            }
            CodecError::BadCrc => write!(f, "frame CRC mismatch"),
            CodecError::UnknownFrameType(t) => write!(f, "unknown frame type {t}"),
            CodecError::FrameTooLarge(n) => write!(f, "frame payload of {n} bytes exceeds limit"),
            CodecError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------- crc

/// Bytes one step of [`crc32`] folds in.
const LANES: usize = 16;

/// IEEE CRC-32 (reflected, polynomial 0xEDB88320) tables for slicing by
/// [`LANES`]: `CRC_TABLES[0]` is the classic byte table, and
/// `CRC_TABLES[k][b]` the CRC state after byte `b` and `k` zero bytes,
/// so one step looks every byte of a lane group up independently. Built
/// at compile time; the crate stays dependency-free.
static CRC_TABLES: [[u32; 256]; LANES] = {
    let mut tables = [[0u32; 256]; LANES];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < LANES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `data`, [`LANES`] bytes a step.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut groups = data.chunks_exact(LANES);
    for g in &mut groups {
        let g: &[u8; LANES] = g.try_into().expect("chunks of LANES");
        // The running CRC folds into the first four bytes; byte `i`
        // then has `LANES - 1 - i` bytes of the group behind it.
        let head = c ^ u32::from_le_bytes([g[0], g[1], g[2], g[3]]);
        c = t[LANES - 1][(head & 0xFF) as usize]
            ^ t[LANES - 2][(head >> 8 & 0xFF) as usize]
            ^ t[LANES - 3][(head >> 16 & 0xFF) as usize]
            ^ t[LANES - 4][(head >> 24) as usize];
        let mut i = 4;
        while i < LANES {
            c ^= t[LANES - 1 - i][g[i] as usize];
            i += 1;
        }
    }
    for &b in groups.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ------------------------------------------------------------- writer

/// Appends little-endian fields to the caller's buffer.
struct Writer<'a> {
    buf: &'a mut Vec<u8>,
}

impl Writer<'_> {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        let bytes = s.as_bytes();
        debug_assert!(bytes.len() <= u16::MAX as usize);
        self.u16(bytes.len() as u16);
        self.buf.extend_from_slice(bytes);
    }
    fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }
}

// ------------------------------------------------------------- reader

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(CodecError::Malformed("length overflow"))?;
        if end > self.buf.len() {
            return Err(CodecError::Malformed("payload shorter than declared field"));
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }
    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, CodecError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }
    fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
    fn str(&mut self) -> Result<String, CodecError> {
        let n = self.u16()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Malformed("non-UTF-8 string"))
    }
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    fn done(&self) -> bool {
        self.remaining() == 0
    }
}

// ------------------------------------------------------ field codecs

/// What a report and a report block both lead with: task, kind,
/// (first) `seq`, entry op.
fn write_report_head(
    w: &mut Writer<'_>,
    task: &TaskId,
    kind: ReportKind,
    seq: u64,
    entry_op: Option<usize>,
) {
    w.u32(task.query.0);
    w.u8(task.level);
    w.u8(task.branch);
    w.u8(match kind {
        ReportKind::Tuple => 0,
        ReportKind::Shunt => 1,
        ReportKind::WindowDump => 2,
        ReportKind::WindowDumpRaw => 3,
    });
    w.u64(seq);
    match entry_op {
        Some(op) => {
            w.u8(1);
            w.u64(op as u64);
        }
        None => w.u8(0),
    }
}

fn read_report_head(
    r: &mut Reader<'_>,
) -> Result<(TaskId, ReportKind, u64, Option<usize>), CodecError> {
    let task = read_task(r)?;
    let kind = match r.u8()? {
        0 => ReportKind::Tuple,
        1 => ReportKind::Shunt,
        2 => ReportKind::WindowDump,
        3 => ReportKind::WindowDumpRaw,
        _ => return Err(CodecError::Malformed("report kind")),
    };
    let seq = r.u64()?;
    let entry_op = match r.u8()? {
        0 => None,
        1 => Some(r.u64()? as usize),
        _ => return Err(CodecError::Malformed("entry_op tag")),
    };
    Ok((task, kind, seq, entry_op))
}

fn read_task(r: &mut Reader<'_>) -> Result<TaskId, CodecError> {
    Ok(TaskId {
        query: QueryId(r.u32()?),
        level: r.u8()?,
        branch: r.u8()?,
    })
}

/// The mirrored packet rides as `(ts_nanos, has_ethernet, wire_bytes)`.
fn write_report(w: &mut Writer<'_>, r: &Report) {
    write_report_head(w, &r.task, r.kind, r.seq, r.entry_op);
    w.u32(r.columns.len() as u32);
    for (name, val) in &r.columns {
        w.str(name);
        w.u64(*val);
    }
    match &r.packet {
        Some(pkt) => {
            w.u8(1);
            w.u64(pkt.ts_nanos);
            w.u8(u8::from(pkt.eth.is_some()));
            w.bytes(pkt.encode_cached());
        }
        None => w.u8(0),
    }
}

fn read_report(r: &mut Reader<'_>) -> Result<Report, CodecError> {
    let (task, kind, seq, entry_op) = read_report_head(r)?;
    let ncols = r.u32()? as usize;
    if ncols > MAX_FRAME_LEN / 8 {
        return Err(CodecError::Malformed("column count"));
    }
    let mut columns = Vec::with_capacity(ncols.min(1024));
    for _ in 0..ncols {
        let name = r.str()?;
        let val = r.u64()?;
        columns.push((name.into(), val));
    }
    let packet = match r.u8()? {
        0 => None,
        1 => {
            let ts_nanos = r.u64()?;
            let eth = r.u8()? != 0;
            let n = r.u32()? as usize;
            let bytes = r.take(n)?;
            let mut pkt = if eth {
                Packet::decode_ethernet(bytes)
                    .map_err(|_| CodecError::Malformed("embedded packet"))?
            } else {
                Packet::decode(bytes).map_err(|_| CodecError::Malformed("embedded packet"))?
            };
            pkt.ts_nanos = ts_nanos;
            Some(pkt)
        }
        _ => return Err(CodecError::Malformed("packet tag")),
    };
    Ok(Report {
        task,
        kind,
        columns,
        packet,
        entry_op,
        seq,
    })
}

fn read_cells(r: &mut Reader<'_>, bytes: usize) -> Result<Vec<u64>, CodecError> {
    Ok((r.take(bytes)?.chunks_exact(8))
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunks of 8")))
        .collect())
}

fn write_dump(w: &mut Writer<'_>, dump: &WindowDump) {
    write_chunk(w, &dump.tuples);
    w.u64(dump.suppressed);
    w.u64(dump.occupancy as u64);
    w.u64(dump.shunted_packets);
    // v5: declared sketch error bounds (empty for exact layouts, so
    // pre-sketch payloads only grow by this count word).
    w.u32(dump.bounds.len() as u32);
    for b in &dump.bounds {
        w.u32(b.task.query.0);
        w.u8(b.task.level);
        w.u8(b.task.branch);
        w.u8(b.layout.tag());
        w.u64(b.epsilon.to_bits());
        w.u64(b.delta.to_bits());
        w.u64(b.mass);
        w.u64(b.updates);
        w.u8(u8::from(b.saturated));
    }
}

/// Bytes of a report block with no names and no rows: the report head
/// without an entry op (6 + 1 + 8 + 1), the name count, rows, width and
/// the flag byte.
const REPORT_BLOCK_MIN_LEN: usize = 16 + 2 + 4 + 2 + 1;

/// The block kinds a `ReportBlocks` frame carries: a batch's mirrors
/// and shunts.
const MIRROR_KINDS: [ReportKind; 2] = [ReportKind::Tuple, ReportKind::Shunt];
/// The block kinds a `WindowDump` frame carries: register dump rows.
const DUMP_KINDS: [ReportKind; 2] = [ReportKind::WindowDump, ReportKind::WindowDumpRaw];

fn write_chunk(w: &mut Writer<'_>, chunk: &ReportChunk) {
    let (block, packets) = (&chunk.packets, chunk.packets.packets());
    // All of a chunk but its heads and names, so the buffer grows once.
    let cells = |b: &ReportBlock| b.cells.len() * 8 + b.pkts.len() * 4;
    w.buf.reserve(
        block.validity().len() * 8
            + block.columns().len() * 4
            + packets.len() * 12
            + packets.total_bytes()
            + chunk.blocks.iter().map(cells).sum::<usize>(),
    );
    w.u32(block.len() as u32);
    w.u32(block.mask());
    block.validity().iter().for_each(|v| w.u64(*v));
    block.columns().iter().for_each(|v| w.u32(*v));
    w.u32(packets.total_bytes() as u32);
    if block.mask() & LAZY_FIELDS != 0 {
        for e in packets.index() {
            w.u64(e.ts_nanos);
            w.u32(e.len);
        }
        w.buf.extend_from_slice(packets.bytes());
    }
    w.u32(chunk.blocks.len() as u32);
    for b in &chunk.blocks {
        debug_assert!(b.is_well_formed() && b.width() <= u16::MAX as usize);
        write_report_head(w, &b.task, b.kind, b.first_seq, b.entry_op);
        w.u16(b.width() as u16);
        b.names.iter().for_each(|name| w.str(name));
        w.u32(b.rows as u32);
        w.u16(b.width() as u16);
        b.cells.iter().for_each(|v| w.u64(*v));
        w.u8(u8::from(!b.pkts.is_empty()));
        b.pkts.iter().for_each(|p| w.u32(*p));
    }
}

/// `count` `u32`s, checked against the bytes the frame still holds
/// before anything is sized.
fn read_u32s(r: &mut Reader<'_>, count: Option<usize>) -> Result<Vec<u32>, CodecError> {
    let bytes = (count.and_then(|n| n.checked_mul(4)))
        .filter(|&b| b <= r.remaining())
        .ok_or(CodecError::Malformed("u32s exceed the frame"))?;
    Ok((r.take(bytes)?.chunks_exact(4))
        .map(|c| u32::from_le_bytes(c.try_into().expect("chunks of 4")))
        .collect())
}

/// The carried packets. Every count is checked against the bytes the
/// frame still holds before it sizes anything, and
/// [`PacketBlock::from_parts`] refuses parts that disagree.
fn read_packet_block(r: &mut Reader<'_>) -> Result<PacketBlock, CodecError> {
    let (npackets, mask) = (r.u32()? as usize, r.u32()?);
    let valid = read_cells(r, npackets.div_ceil(64) * 8)?;
    let scalars = (mask & !LAZY_FIELDS).count_ones() as usize;
    let cols = read_u32s(r, npackets.checked_mul(scalars))?;
    let nbytes = r.u32()? as usize;
    // Bytes with no lazy field to read them leave records that
    // `from_parts` refuses, or lengths that do not add up.
    let mut packets = PacketArena::new();
    if mask & LAZY_FIELDS != 0 || nbytes != 0 {
        if npackets > r.remaining() / 12 || nbytes > r.remaining() - npackets * 12 {
            return Err(CodecError::Malformed("packets exceed the frame"));
        }
        // Each length is below 2³² and there are fewer than 2³² of
        // them, so the running offset cannot wrap.
        let mut offset = 0u64;
        let index: Vec<ArenaIndex> = (0..npackets)
            .map(|_| {
                let (ts_nanos, len) = (r.u64()?, r.u32()?);
                let entry = ArenaIndex {
                    offset,
                    len,
                    ts_nanos,
                };
                offset += len as u64;
                Ok(entry)
            })
            .collect::<Result<_, CodecError>>()?;
        if offset != nbytes as u64 {
            return Err(CodecError::Malformed(
                "packet lengths differ from the byte count",
            ));
        }
        packets = PacketArena::from_parts(r.take(nbytes)?.to_vec(), index);
    }
    PacketBlock::from_parts(mask, npackets, cols, valid, packets).map_err(CodecError::Malformed)
}

/// A chunk whose blocks are all of `kinds`.
fn read_chunk(r: &mut Reader<'_>, kinds: [ReportKind; 2]) -> Result<ReportChunk, CodecError> {
    let packets = read_packet_block(r)?;
    let nblocks = r.u32()? as usize;
    if nblocks > r.remaining() / REPORT_BLOCK_MIN_LEN {
        return Err(CodecError::Malformed("report block count"));
    }
    let blocks = (0..nblocks)
        .map(|_| read_report_block(r, packets.len(), kinds))
        .collect::<Result<_, _>>()?;
    Ok(ReportChunk { packets, blocks })
}

/// One block of `kinds` whose rows index `npackets` packets. Every count
/// is checked against the bytes the frame still holds before it sizes
/// anything, so allocations are bounded by the frame, never by a
/// header's claim.
fn read_report_block(
    r: &mut Reader<'_>,
    npackets: usize,
    kinds: [ReportKind; 2],
) -> Result<ReportBlock, CodecError> {
    let (task, kind, first_seq, entry_op) = read_report_head(r)?;
    if !kinds.contains(&kind) {
        return Err(CodecError::Malformed("report block kind"));
    }
    let ncols = r.u16()? as usize;
    if ncols > r.remaining() / 2 {
        return Err(CodecError::Malformed("block name count"));
    }
    let names: Arc<[ColName]> = (0..ncols)
        .map(|_| r.str().map(Into::into))
        .collect::<Result<_, _>>()?;
    let rows = r.u32()? as usize;
    if r.u16()? as usize != ncols {
        return Err(CodecError::Malformed(
            "block width differs from its name count",
        ));
    }
    let bytes = rows
        .checked_mul(ncols * 8)
        .filter(|&b| b <= r.remaining())
        .ok_or(CodecError::Malformed("block rows exceed the frame"))?;
    let cells = read_cells(r, bytes)?;
    let with_packets = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(CodecError::Malformed("report block flags")),
    };
    // Rows with neither columns nor packets take no bytes, so nothing
    // would bound their count.
    if names.is_empty() && !with_packets && rows != 0 {
        return Err(CodecError::Malformed(
            "report block rows without columns or packets",
        ));
    }
    let pkts = if with_packets {
        read_u32s(r, Some(rows))?
    } else {
        Vec::new()
    };
    if pkts.iter().any(|&p| p as usize >= npackets) {
        return Err(CodecError::Malformed("report block packet index"));
    }
    Ok(ReportBlock {
        task,
        kind,
        entry_op,
        first_seq,
        names,
        rows,
        cells,
        pkts,
    })
}

fn read_dump(r: &mut Reader<'_>) -> Result<WindowDump, CodecError> {
    let tuples = read_chunk(r, DUMP_KINDS)?;
    if !tuples.packets.is_empty() {
        return Err(CodecError::Malformed("dump rows carry packets"));
    }
    let suppressed = r.u64()?;
    let occupancy = r.u64()? as usize;
    let shunted_packets = r.u64()?;
    let nb = r.u32()? as usize;
    if nb > MAX_FRAME_LEN / 32 {
        return Err(CodecError::Malformed("bound count"));
    }
    let mut bounds = Vec::with_capacity(nb.min(1024));
    for _ in 0..nb {
        let task = read_task(r)?;
        let layout =
            StateLayout::from_tag(r.u8()?).ok_or(CodecError::Malformed("sketch layout tag"))?;
        let epsilon = f64::from_bits(r.u64()?);
        let delta = f64::from_bits(r.u64()?);
        if !epsilon.is_finite() || !delta.is_finite() {
            return Err(CodecError::Malformed("sketch bound value"));
        }
        bounds.push(SketchBound {
            task,
            layout,
            epsilon,
            delta,
            mass: r.u64()?,
            updates: r.u64()?,
            saturated: match r.u8()? {
                0 => false,
                1 => true,
                _ => return Err(CodecError::Malformed("saturated flag")),
            },
        });
    }
    Ok(WindowDump {
        tuples,
        suppressed,
        occupancy,
        shunted_packets,
        bounds,
    })
}

fn write_ops(w: &mut Writer<'_>, ops: &[ControlOp]) {
    w.u32(ops.len() as u32);
    for op in ops {
        match op {
            ControlOp::SetDynFilter { table, entries } => {
                w.u8(0);
                w.str(table);
                w.u32(entries.len() as u32);
                for e in entries {
                    w.u64(*e);
                }
            }
            ControlOp::ResetRegisters => w.u8(1),
        }
    }
}

fn read_ops(r: &mut Reader<'_>) -> Result<Vec<ControlOp>, CodecError> {
    let n = r.u32()? as usize;
    if n > MAX_FRAME_LEN / 8 {
        return Err(CodecError::Malformed("op count"));
    }
    let mut ops = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        match r.u8()? {
            0 => {
                let table = r.str()?;
                let m = r.u32()? as usize;
                if m > MAX_FRAME_LEN / 8 {
                    return Err(CodecError::Malformed("entry count"));
                }
                let mut entries = BTreeSet::new();
                for _ in 0..m {
                    entries.insert(r.u64()?);
                }
                ops.push(ControlOp::SetDynFilter { table, entries });
            }
            1 => ops.push(ControlOp::ResetRegisters),
            _ => return Err(CodecError::Malformed("control op tag")),
        }
    }
    Ok(ops)
}

// ------------------------------------------------------- frame codec

/// Encode one frame into `out`, replacing whatever it held, with the
/// sender's fabric switch id, trace context, and plan epoch stamped
/// into the header. One pass: the header with its length left open,
/// the payload behind it, the length filled in, the CRC over both.
/// `out` keeps its capacity, so a sender that reuses one buffer
/// allocates only when a frame outgrows every frame before it.
pub fn encode_frame_into(
    out: &mut Vec<u8>,
    switch: u16,
    ctx: TraceContext,
    epoch: u64,
    frame: &Frame,
) {
    out.clear();
    let mut w = Writer { buf: out };
    w.u32(MAGIC);
    w.u16(VERSION);
    w.u8(frame.type_byte());
    w.u8(0); // flags (reserved)
    w.u16(switch);
    w.u64(ctx.trace);
    w.u64(ctx.span);
    w.u64(epoch);
    w.u32(0); // len, once the payload is written
    match frame {
        Frame::Hello { node, plan_digest } => {
            w.str(node);
            w.u64(*plan_digest);
        }
        Frame::WindowOpen { window, packets } => {
            w.u64(*window);
            w.u64(*packets);
        }
        Frame::Report(r) => write_report(&mut w, r),
        Frame::ReportBlocks(chunk) => write_chunk(&mut w, chunk),
        Frame::WindowDump { window, dump } => {
            w.u64(*window);
            write_dump(&mut w, dump);
        }
        Frame::WindowClose {
            window,
            packet_loop_ns,
            dump_ns,
            transport_ns,
        } => {
            w.u64(*window);
            w.u64(*packet_loop_ns);
            w.u64(*dump_ns);
            w.u64(*transport_ns);
        }
        Frame::Control { window, ops } => {
            w.u64(*window);
            write_ops(&mut w, ops);
        }
        Frame::ControlAck {
            window,
            entries_written,
            latency_ns,
        } => {
            w.u64(*window);
            w.u64(*entries_written);
            w.u64(*latency_ns);
        }
        Frame::Credit { window } => w.u64(*window),
    }
    let len = (out.len() - HEADER_LEN) as u32;
    out[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&out[4..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// [`encode_frame_into`] a fresh buffer.
pub fn encode_frame_ctx(switch: u16, ctx: TraceContext, epoch: u64, frame: &Frame) -> Vec<u8> {
    // Room for any control frame and most one-row reports.
    let mut out = Vec::with_capacity(256);
    encode_frame_into(&mut out, switch, ctx, epoch, frame);
    out
}

/// Encode one frame with an absent trace context and epoch 0.
pub fn encode_frame_from(switch: u16, frame: &Frame) -> Vec<u8> {
    encode_frame_ctx(switch, TraceContext::NONE, 0, frame)
}

/// Encode one frame with switch id 0 and epoch 0 (single-switch,
/// never-replanned deployments).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    encode_frame_from(0, frame)
}

/// Length of the whole frame whose header starts `buf` — what a stream
/// reader makes room for — once the header is complete; `None` until
/// then, and for a length field past [`MAX_FRAME_LEN`], which
/// [`decode_frame_tagged`] refuses and nobody should size a buffer by.
pub fn frame_len(buf: &[u8]) -> Option<usize> {
    let len = u32::from_le_bytes(buf.get(34..HEADER_LEN)?.try_into().ok()?) as usize;
    (len <= MAX_FRAME_LEN).then_some(HEADER_LEN + len + 4)
}

/// Decode one frame from the front of `buf`, returning the sending
/// switch id, trace context, and plan epoch from the header, the
/// frame, and the number of bytes consumed — so a stream reader can
/// loop over a growing buffer. [`CodecError::Truncated`] means "read
/// more bytes".
pub fn decode_frame_tagged(
    buf: &[u8],
) -> Result<(u16, TraceContext, u64, Frame, usize), CodecError> {
    if buf.len() < HEADER_LEN {
        return Err(CodecError::Truncated);
    }
    let magic = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if magic != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = u16::from_le_bytes([buf[4], buf[5]]);
    if version != VERSION {
        return Err(CodecError::VersionMismatch { found: version });
    }
    let frame_type = buf[6];
    let switch = u16::from_le_bytes([buf[8], buf[9]]);
    let ctx = TraceContext {
        trace: u64::from_le_bytes([
            buf[10], buf[11], buf[12], buf[13], buf[14], buf[15], buf[16], buf[17],
        ]),
        span: u64::from_le_bytes([
            buf[18], buf[19], buf[20], buf[21], buf[22], buf[23], buf[24], buf[25],
        ]),
    };
    let epoch = u64::from_le_bytes([
        buf[26], buf[27], buf[28], buf[29], buf[30], buf[31], buf[32], buf[33],
    ]);
    let len = u32::from_le_bytes([buf[34], buf[35], buf[36], buf[37]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(CodecError::FrameTooLarge(len));
    }
    let total = HEADER_LEN + len + 4;
    if buf.len() < total {
        return Err(CodecError::Truncated);
    }
    let crc_stored = u32::from_le_bytes([
        buf[total - 4],
        buf[total - 3],
        buf[total - 2],
        buf[total - 1],
    ]);
    if crc32(&buf[4..HEADER_LEN + len]) != crc_stored {
        return Err(CodecError::BadCrc);
    }
    let mut r = Reader::new(&buf[HEADER_LEN..HEADER_LEN + len]);
    let frame = match frame_type {
        1 => Frame::Hello {
            node: r.str()?,
            plan_digest: r.u64()?,
        },
        2 => Frame::WindowOpen {
            window: r.u64()?,
            packets: r.u64()?,
        },
        3 => Frame::Report(read_report(&mut r)?),
        4 => Frame::WindowDump {
            window: r.u64()?,
            dump: read_dump(&mut r)?,
        },
        5 => Frame::WindowClose {
            window: r.u64()?,
            packet_loop_ns: r.u64()?,
            dump_ns: r.u64()?,
            transport_ns: r.u64()?,
        },
        6 => Frame::Control {
            window: r.u64()?,
            ops: read_ops(&mut r)?,
        },
        7 => Frame::ControlAck {
            window: r.u64()?,
            entries_written: r.u64()?,
            latency_ns: r.u64()?,
        },
        8 => Frame::Credit { window: r.u64()? },
        9 => Frame::ReportBlocks(read_chunk(&mut r, MIRROR_KINDS)?),
        other => return Err(CodecError::UnknownFrameType(other)),
    };
    if !r.done() {
        return Err(CodecError::Malformed("trailing payload bytes"));
    }
    Ok((switch, ctx, epoch, frame, total))
}

/// Decode one frame from the front of `buf`, dropping the switch tag,
/// trace context, and epoch.
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), CodecError> {
    decode_frame_tagged(buf).map(|(_, _, _, frame, used)| (frame, used))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn simple_frames_round_trip() {
        for frame in [
            Frame::Hello {
                node: "switch-0".into(),
                plan_digest: 0xDEAD_BEEF_0BAD_F00D,
            },
            Frame::WindowOpen {
                window: 3,
                packets: 1_000,
            },
            Frame::WindowClose {
                window: 3,
                packet_loop_ns: 120_000,
                dump_ns: 45_000,
                transport_ns: 9_000,
            },
            Frame::ControlAck {
                window: 3,
                entries_written: 17,
                latency_ns: 131_000_000,
            },
            Frame::Credit { window: 3 },
        ] {
            let bytes = encode_frame(&frame);
            let (decoded, used) = decode_frame(&bytes).unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn two_frames_back_to_back_decode_in_order() {
        let a = Frame::WindowOpen {
            window: 0,
            packets: 5,
        };
        let b = Frame::Credit { window: 0 };
        let mut buf = encode_frame(&a);
        buf.extend_from_slice(&encode_frame(&b));
        let (fa, na) = decode_frame(&buf).unwrap();
        let (fb, nb) = decode_frame(&buf[na..]).unwrap();
        assert_eq!(fa, a);
        assert_eq!(fb, b);
        assert_eq!(na + nb, buf.len());
    }

    #[test]
    fn truncation_is_a_typed_error_at_every_length() {
        let bytes = encode_frame(&Frame::Hello {
            node: "s".into(),
            plan_digest: 7,
        });
        for n in 0..bytes.len() {
            assert_eq!(
                decode_frame(&bytes[..n]).unwrap_err(),
                CodecError::Truncated,
                "prefix of {n} bytes"
            );
        }
    }

    #[test]
    fn corruption_and_version_skew_are_typed_errors() {
        let good = encode_frame(&Frame::Credit { window: 9 });
        // Magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert_eq!(decode_frame(&bad).unwrap_err(), CodecError::BadMagic);
        // Version.
        let mut bad = good.clone();
        bad[4] = 0x7F;
        assert_eq!(
            decode_frame(&bad).unwrap_err(),
            CodecError::VersionMismatch { found: 0x7F }
        );
        // Payload bit flip.
        let mut bad = good.clone();
        let p = HEADER_LEN;
        bad[p] ^= 0x01;
        assert_eq!(decode_frame(&bad).unwrap_err(), CodecError::BadCrc);
        // Type byte flip (covered by the CRC, since it spans the header).
        let mut bad = good.clone();
        bad[6] = 5;
        assert_eq!(decode_frame(&bad).unwrap_err(), CodecError::BadCrc);
        // Insane length field.
        let mut bad = good;
        bad[34..38].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert_eq!(
            decode_frame(&bad).unwrap_err(),
            CodecError::FrameTooLarge(u32::MAX as usize)
        );
    }

    #[test]
    fn switch_tag_rides_the_header_and_round_trips() {
        let frame = Frame::WindowClose {
            window: 5,
            packet_loop_ns: 0,
            dump_ns: 0,
            transport_ns: 0,
        };
        for switch in [0u16, 1, 3, u16::MAX] {
            let bytes = encode_frame_from(switch, &frame);
            let (tag, ctx, epoch, decoded, used) = decode_frame_tagged(&bytes).unwrap();
            assert_eq!(tag, switch);
            assert_eq!(ctx, TraceContext::NONE);
            assert_eq!(epoch, 0);
            assert_eq!(decoded, frame);
            assert_eq!(used, bytes.len());
        }
        // The untagged wrappers are the switch-0 special case.
        assert_eq!(encode_frame(&frame), encode_frame_from(0, &frame));
        // A flipped switch id is caught by the CRC like any other
        // header corruption.
        let mut bad = encode_frame_from(2, &frame);
        bad[8] ^= 0x01;
        assert_eq!(decode_frame(&bad).unwrap_err(), CodecError::BadCrc);
    }

    #[test]
    fn trace_context_rides_the_header_and_round_trips() {
        let ctx = TraceContext::root(9, 3);
        let frame = Frame::Credit { window: 9 };
        let bytes = encode_frame_ctx(3, ctx, 0, &frame);
        let (tag, got, epoch, decoded, used) = decode_frame_tagged(&bytes).unwrap();
        assert_eq!(tag, 3);
        assert_eq!(got, ctx);
        assert_eq!(epoch, 0);
        assert_eq!(decoded, frame);
        assert_eq!(used, bytes.len());
        // A flipped span-id bit is caught by the CRC.
        let mut bad = encode_frame_ctx(3, ctx, 0, &frame);
        bad[18] ^= 0x01;
        assert_eq!(decode_frame(&bad).unwrap_err(), CodecError::BadCrc);
    }

    #[test]
    fn plan_epoch_rides_the_header_and_round_trips() {
        let frame = Frame::Credit { window: 2 };
        for epoch in [0u64, 1, 7, u64::MAX] {
            let bytes = encode_frame_ctx(1, TraceContext::NONE, epoch, &frame);
            let (tag, _, got, decoded, used) = decode_frame_tagged(&bytes).unwrap();
            assert_eq!(tag, 1);
            assert_eq!(got, epoch);
            assert_eq!(decoded, frame);
            assert_eq!(used, bytes.len());
        }
        // A flipped epoch bit is caught by the CRC like any other
        // header corruption.
        let mut bad = encode_frame_ctx(1, TraceContext::NONE, 3, &frame);
        bad[26] ^= 0x01;
        assert_eq!(decode_frame(&bad).unwrap_err(), CodecError::BadCrc);
    }
}
