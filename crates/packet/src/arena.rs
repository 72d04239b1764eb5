//! Contiguous packet arenas for zero-copy batched ingest.
//!
//! A [`PacketArena`] stores a whole trace (or one window of it) as a
//! single contiguous byte buffer of encoded packets plus a fixed-width
//! index table ([`ArenaIndex`]: offset, length, timestamp). The layout
//! is mmap-friendly — the buffer is exactly the concatenation of the
//! packets' wire bytes, and the index is a flat array — so an arena can
//! be built either from owned [`Packet`]s or decoded straight out of
//! the binary trace-file format without materializing owned packets.
//!
//! An [`ArenaBatch`] is one window of packets as the switch reads
//! them: a range of an arena, or a window of owned packets viewed in
//! place through their cached encodings ([`ArenaBatch::of_packets`],
//! the drivers' form — no per-window copy).
//!
//! [`PacketView`] is the borrowed counterpart of [`Packet`]: a slice
//! of wire bytes plus a timestamp. It parses headers *lazily* through
//! the [`crate::wire`] views — no `Bytes` clone, no header enum
//! materialization until a field is actually read. The PISA switch
//! parses these slices with its reconfigurable parser — into a column
//! block for a batch, into a PHV for its reference interpreter — so
//! both read the same values.
//!
//! The arena requires IPv4-first framing (traces never attach Ethernet
//! headers; this is debug-asserted at build time).

use crate::packet::Packet;
use crate::wire::{IcmpView, Ipv4View, TcpView, UdpView};
use crate::{DecodeError, IpProtocol};

/// One fixed-width index entry: where a packet's wire bytes live in
/// the arena buffer, and when it was captured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaIndex {
    /// Byte offset of the packet's first wire byte in the arena buffer.
    pub offset: u64,
    /// Encoded length in bytes.
    pub len: u32,
    /// Capture timestamp, nanoseconds from trace start.
    pub ts_nanos: u64,
}

/// A contiguous buffer of encoded packets plus a flat index table.
///
/// Packets are stored in push order; builders feed them in timestamp
/// order (traces are sorted), so [`PacketArena::windows`] can hand out
/// contiguous per-window [`ArenaBatch`]es.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PacketArena {
    bytes: Vec<u8>,
    index: Vec<ArenaIndex>,
}

impl PacketArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty arena pre-sized for `packets` packets totalling
    /// `bytes` wire bytes.
    pub fn with_capacity(packets: usize, bytes: usize) -> Self {
        PacketArena {
            bytes: Vec::with_capacity(bytes),
            index: Vec::with_capacity(packets),
        }
    }

    /// An arena over a buffer and index already laid out (a decoded
    /// frame's): `index` entries must tile `bytes` back to back in
    /// order, as [`Self::push_record`] would have left them.
    pub fn from_parts(bytes: Vec<u8>, index: Vec<ArenaIndex>) -> Self {
        debug_assert_eq!(
            (index.iter()).try_fold(0, |at, e| (e.offset == at).then_some(at + e.len as u64)),
            Some(bytes.len() as u64),
            "index entries must tile the buffer"
        );
        PacketArena { bytes, index }
    }

    /// Build an arena by encoding `packets` in order.
    ///
    /// The arena assumes IPv4-first framing;
    /// traces never attach Ethernet headers.
    pub fn from_packets(packets: &[Packet]) -> Self {
        let total: usize = packets.iter().map(|p| p.wire_len()).sum();
        let mut arena = Self::with_capacity(packets.len(), total);
        for p in packets {
            debug_assert!(p.eth.is_none(), "arena ingest requires IPv4-first framing");
            arena.push_record(p.ts_nanos, p.encode_cached());
        }
        arena
    }

    /// Rebuild this arena in place from `packets`, reusing the buffer
    /// and index allocations from a previous window. The drivers no
    /// longer copy a window into an arena — they read it in place
    /// through [`ArenaBatch::of_packets`]; this remains for the bench
    /// harness's staged shadow, which times that copy.
    pub fn rebuild_from_packets(&mut self, packets: &[Packet]) {
        self.bytes.clear();
        self.index.clear();
        for p in packets {
            debug_assert!(p.eth.is_none(), "arena ingest requires IPv4-first framing");
            self.push_record(p.ts_nanos, p.encode_cached());
        }
    }

    /// Append one already-encoded packet record.
    pub fn push_record(&mut self, ts_nanos: u64, wire: &[u8]) {
        self.index.push(ArenaIndex {
            offset: self.bytes.len() as u64,
            len: wire.len() as u32,
            ts_nanos,
        });
        self.bytes.extend_from_slice(wire);
    }

    /// Number of packets in the arena.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when the arena holds no packets.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Total wire bytes stored.
    pub fn total_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The raw contiguous buffer.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The index table.
    pub fn index(&self) -> &[ArenaIndex] {
        &self.index
    }

    /// Borrowed view of packet `i`.
    pub fn view(&self, i: usize) -> PacketView<'_> {
        self.batch().view(i)
    }

    /// A batch spanning the whole arena.
    pub fn batch(&self) -> ArenaBatch<'_> {
        self.range_batch(0, self.len())
    }

    /// A batch spanning packets `[lo, hi)`.
    pub fn range_batch(&self, lo: usize, hi: usize) -> ArenaBatch<'_> {
        ArenaBatch(Source::Arena(&self.bytes, &self.index[lo..hi]))
    }

    /// Iterate non-empty tumbling windows of `window_ms` milliseconds,
    /// yielding `(window_index, batch)` — the arena analogue of
    /// `Trace::windows`. Requires the arena to be in timestamp order
    /// (builders preserve trace order, which is sorted).
    pub fn windows(&self, window_ms: u64) -> impl Iterator<Item = (u64, ArenaBatch<'_>)> + '_ {
        let window_ns = window_ms.max(1) * 1_000_000;
        let mut lo = 0usize;
        std::iter::from_fn(move || {
            if lo >= self.index.len() {
                return None;
            }
            let w = self.index[lo].ts_nanos / window_ns;
            let mut hi = lo + 1;
            while hi < self.index.len() && self.index[hi].ts_nanos / window_ns == w {
                hi += 1;
            }
            let batch = self.range_batch(lo, hi);
            lo = hi;
            Some((w, batch))
        })
    }
}

/// One window's packets as the batch executor consumes them: a
/// sub-range of a [`PacketArena`], or owned [`Packet`]s read in place
/// through their cached encodings ([`Self::of_packets`]). Either way a
/// view is the packet's wire bytes where they already lie — no copies.
#[derive(Debug, Clone, Copy)]
pub struct ArenaBatch<'a>(Source<'a>);

#[derive(Debug, Clone, Copy)]
enum Source<'a> {
    /// The arena buffer plus a sub-range of its index table.
    Arena(&'a [u8], &'a [ArenaIndex]),
    /// Owned packets, each viewed as its cached encoding.
    Packets(&'a [Packet]),
}

impl<'a> ArenaBatch<'a> {
    /// A batch over `packets`, read in place: packet `i`'s view is its
    /// cached encoding (encoded on first read where cold) and its
    /// timestamp — the very bytes [`PacketArena::from_packets`] would
    /// copy. Debug builds check the framing and re-check bytes that
    /// packets share ([`Packet::share`]) against their fields here,
    /// once per packet, rather than at every view.
    pub fn of_packets(packets: &'a [Packet]) -> Self {
        if cfg!(debug_assertions) {
            for p in packets {
                debug_assert!(p.eth.is_none(), "arena ingest requires IPv4-first framing");
                p.encode_cached();
            }
        }
        ArenaBatch(Source::Packets(packets))
    }

    /// Number of packets in the batch.
    #[inline]
    pub fn len(&self) -> usize {
        match self.0 {
            Source::Arena(_, index) => index.len(),
            Source::Packets(packets) => packets.len(),
        }
    }

    /// True when the batch holds no packets.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrowed view of packet `i` within the batch.
    #[inline]
    pub fn view(&self, i: usize) -> PacketView<'a> {
        match self.0 {
            Source::Arena(bytes, index) => {
                let e = &index[i];
                let at = e.offset as usize;
                PacketView::new(&bytes[at..at + e.len as usize], e.ts_nanos)
            }
            Source::Packets(packets) => PacketView::new(packets[i].cached(), packets[i].ts_nanos),
        }
    }

    /// Iterate borrowed views in batch order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = PacketView<'a>> + Clone + '_ {
        (0..self.len()).map(|i| self.view(i))
    }
}

/// A borrowed packet: a slice of arena bytes plus its timestamp.
///
/// Headers are parsed lazily through the zero-copy [`crate::wire`]
/// views — nothing is materialized until a field is read, and reading
/// a field touches only the bytes that field lives in. `decode()`
/// materializes an owned [`Packet`] (used off the hot path: fault
/// replay, report embedding on the owned fallback).
#[derive(Debug, Clone, Copy)]
pub struct PacketView<'a> {
    bytes: &'a [u8],
    ts_nanos: u64,
}

impl<'a> PacketView<'a> {
    /// Wrap `bytes` (IPv4-first wire bytes) captured at `ts_nanos`.
    #[inline]
    pub fn new(bytes: &'a [u8], ts_nanos: u64) -> Self {
        PacketView { bytes, ts_nanos }
    }

    /// The packet's wire bytes.
    #[inline]
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Capture timestamp, nanoseconds from trace start.
    #[inline]
    pub fn ts_nanos(&self) -> u64 {
        self.ts_nanos
    }

    /// On-wire length in bytes.
    pub fn wire_len(&self) -> usize {
        self.bytes.len()
    }

    /// Lazy IPv4 header view.
    pub fn ipv4(&self) -> Result<Ipv4View<'a>, DecodeError> {
        Ipv4View::new(self.bytes)
    }

    /// Lazy TCP view, if the packet is TCP and well-formed.
    pub fn tcp(&self) -> Option<TcpView<'a>> {
        let ip = self.ipv4().ok()?;
        if ip.protocol() != IpProtocol::Tcp {
            return None;
        }
        TcpView::new(ip.payload()).ok()
    }

    /// Lazy UDP view, if the packet is UDP and well-formed.
    pub fn udp(&self) -> Option<UdpView<'a>> {
        let ip = self.ipv4().ok()?;
        if ip.protocol() != IpProtocol::Udp {
            return None;
        }
        UdpView::new(ip.payload()).ok()
    }

    /// Lazy ICMP view, if the packet is ICMP and well-formed.
    pub fn icmp(&self) -> Option<IcmpView<'a>> {
        let ip = self.ipv4().ok()?;
        if ip.protocol() != IpProtocol::Icmp {
            return None;
        }
        IcmpView::new(ip.payload()).ok()
    }

    /// The transport payload, as [`Packet::decode`] would keep it;
    /// `None` where `decode` would fail.
    pub fn payload(&self) -> Option<&'a [u8]> {
        let ip = self.ipv4().ok()?;
        let l4 = ip.payload();
        Some(match ip.protocol() {
            IpProtocol::Tcp => TcpView::new(l4).ok()?.payload(),
            IpProtocol::Udp => UdpView::new(l4).ok()?.payload(),
            IpProtocol::Icmp => IcmpView::new(l4).ok()?.payload(),
            _ => l4,
        })
    }

    /// Materialize an owned [`Packet`] (timestamp carried over). This
    /// allocates and sits off the hot path by design.
    pub fn decode(&self) -> Result<Packet, DecodeError> {
        let mut pkt = Packet::decode(self.bytes)?;
        pkt.ts_nanos = self.ts_nanos;
        Ok(pkt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketBuilder;
    use crate::{Field, TcpFlags};

    fn sample_packets() -> Vec<Packet> {
        vec![
            PacketBuilder::tcp_raw(0x0a000001, 1234, 0xc0a80105, 80)
                .flags(TcpFlags::SYN)
                .ts_nanos(5)
                .build(),
            PacketBuilder::udp_raw(1, 9999, 2, 53)
                .payload(&b"not dns"[..])
                .ts_nanos(1_500_000)
                .build(),
            PacketBuilder::icmp_raw(3, 4)
                .payload(&b"ping"[..])
                .ts_nanos(2_700_000)
                .build(),
        ]
    }

    #[test]
    fn arena_layout_is_contiguous_and_indexed() {
        let pkts = sample_packets();
        let arena = PacketArena::from_packets(&pkts);
        assert_eq!(arena.len(), 3);
        assert_eq!(
            arena.total_bytes(),
            pkts.iter().map(|p| p.wire_len()).sum::<usize>()
        );
        let mut expect_off = 0u64;
        for (i, p) in pkts.iter().enumerate() {
            let e = arena.index()[i];
            assert_eq!(e.offset, expect_off);
            assert_eq!(e.len as usize, p.wire_len());
            assert_eq!(e.ts_nanos, p.ts_nanos);
            expect_off += e.len as u64;
            let view = arena.view(i);
            assert_eq!(view.bytes(), p.encode().as_slice());
        }
    }

    #[test]
    fn views_parse_lazily_and_decode_round_trips() {
        let pkts = sample_packets();
        let arena = PacketArena::from_packets(&pkts);
        let tcp = arena.view(0);
        assert_eq!(tcp.ipv4().unwrap().src(), 0x0a000001);
        assert_eq!(tcp.tcp().unwrap().dst_port(), 80);
        assert_eq!(tcp.tcp().unwrap().flags(), TcpFlags::SYN.0);
        assert!(tcp.udp().is_none());
        let udp = arena.view(1);
        assert_eq!(udp.udp().unwrap().dst_port(), 53);
        let icmp = arena.view(2);
        assert_eq!(icmp.icmp().unwrap().icmp_type(), 8);
        for (i, p) in pkts.iter().enumerate() {
            let back = arena.view(i).decode().unwrap();
            assert_eq!(back.ts_nanos, p.ts_nanos);
            assert_eq!(back.get(Field::PktLen), p.get(Field::PktLen));
            assert_eq!(back.get(Field::Ipv4Src), p.get(Field::Ipv4Src));
        }
    }

    #[test]
    fn windows_mirror_trace_semantics() {
        let pkts = sample_packets();
        let arena = PacketArena::from_packets(&pkts);
        // window_ms = 1 → packets at 5ns, 1.5ms, 2.7ms land in windows 0, 1, 2.
        let wins: Vec<(u64, usize)> = arena.windows(1).map(|(w, b)| (w, b.len())).collect();
        assert_eq!(wins, vec![(0, 1), (1, 1), (2, 1)]);
        // One big window holds everything.
        let wins: Vec<(u64, usize)> = arena.windows(10).map(|(w, b)| (w, b.len())).collect();
        assert_eq!(wins, vec![(0, 3)]);
        // Batches borrow contiguous ranges.
        let (_, b) = arena.windows(10).next().unwrap();
        assert_eq!(b.view(2).bytes(), arena.view(2).bytes());
        assert_eq!(
            b.iter().map(|v| v.ts_nanos()).collect::<Vec<_>>(),
            vec![5, 1_500_000, 2_700_000]
        );
    }

    #[test]
    fn range_batch_and_push_record() {
        let pkts = sample_packets();
        let mut arena = PacketArena::new();
        for p in &pkts {
            arena.push_record(p.ts_nanos, &p.encode());
        }
        let batch = arena.range_batch(1, 3);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.view(0).ts_nanos(), 1_500_000);
        assert_eq!(batch.view(1).bytes(), pkts[2].encode().as_slice());
        let empty = arena.range_batch(1, 1);
        assert!(empty.is_empty());
    }

    #[test]
    fn rebuild_reuses_allocations() {
        let pkts = sample_packets();
        let mut arena = PacketArena::from_packets(&pkts);
        let cap_bytes = arena.bytes.capacity();
        arena.rebuild_from_packets(&pkts[..2]);
        assert_eq!(arena.len(), 2);
        assert!(arena.bytes.capacity() >= cap_bytes.min(arena.total_bytes()));
        assert_eq!(arena.view(0).bytes(), pkts[0].encode().as_slice());
    }

    #[test]
    fn packet_batches_view_what_the_arena_copies() {
        let pkts = sample_packets();
        for window in [&pkts[..], &pkts[1..], &pkts[..0]] {
            let arena = PacketArena::from_packets(window);
            let (copied, in_place) = (arena.batch(), ArenaBatch::of_packets(window));
            assert_eq!(in_place.len(), copied.len());
            assert_eq!(in_place.is_empty(), window.is_empty());
            for (a, b) in in_place.iter().zip(copied.iter()) {
                assert_eq!(a.bytes(), b.bytes());
                assert_eq!(a.ts_nanos(), b.ts_nanos());
                assert_eq!(a.wire_len(), b.wire_len());
            }
        }
    }

    #[test]
    fn decoded_view_matches_packet_fields() {
        let p = PacketBuilder::tcp_raw(7, 1, 8, 2)
            .flags(TcpFlags::SYN_ACK)
            .payload(vec![9u8; 40])
            .ts_nanos(77)
            .build();
        let arena = PacketArena::from_packets(std::slice::from_ref(&p));
        let back = arena.view(0).decode().unwrap();
        for f in [
            Field::Ipv4Src,
            Field::Ipv4Dst,
            Field::Ipv4Proto,
            Field::Ipv4Len,
            Field::TcpFlags,
            Field::PktLen,
            Field::PayloadLen,
        ] {
            assert_eq!(back.get(f), p.get(f), "{f:?}");
        }
        assert_eq!(back, {
            let mut q = p;
            q.ipv4.total_len = back.ipv4.total_len;
            q
        });
    }
}
