//! Traces: merged, timestamp-sorted packet sequences, with window
//! iteration, summary statistics, a binary file format, and the
//! standard evaluation workload used by the experiment harnesses.

use crate::attacks::Attack;
use crate::background::{self, BackgroundConfig};
use sonata_packet::{Packet, PacketArena, TcpFlags, Transport};
use std::collections::BTreeSet;
use std::io::{self, Read, Write};
use std::path::Path;

/// A packet trace, sorted by timestamp.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    packets: Vec<Packet>,
}

impl Trace {
    /// Wrap a packet vector (sorted by timestamp if not already).
    ///
    /// The sort is **stable**: packets sharing a timestamp keep their
    /// input order. Arena ingest iterates packets in trace order, so
    /// equal-timestamp order is part of the determinism contract —
    /// `sort_by_key` (a stable sort) must never be swapped for
    /// `sort_unstable_by_key` here.
    pub fn new(mut packets: Vec<Packet>) -> Self {
        if !packets.windows(2).all(|w| w[0].ts_nanos <= w[1].ts_nanos) {
            packets.sort_by_key(|p| p.ts_nanos);
        }
        Trace { packets }
    }

    /// Generate a pure background trace.
    pub fn background(cfg: &BackgroundConfig, seed: u64) -> Self {
        Trace {
            packets: background::generate(cfg, seed),
        }
    }

    /// The packets, in time order.
    pub fn packets(&self) -> &[Packet] {
        &self.packets
    }

    /// Number of packets.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Total bytes on the wire.
    pub fn total_bytes(&self) -> u64 {
        self.packets.iter().map(|p| p.wire_len() as u64).sum()
    }

    /// Timestamp of the last packet, nanoseconds (0 when empty).
    pub fn duration_ns(&self) -> u64 {
        self.packets.last().map(|p| p.ts_nanos).unwrap_or(0)
    }

    /// Merge an attack into the trace (stable merge of two sorted runs).
    pub fn inject(&mut self, attack: &Attack, seed: u64) {
        let extra = attack.generate(seed);
        self.merge(extra);
    }

    /// Merge already-sorted packets into the trace.
    pub fn merge(&mut self, other: Vec<Packet>) {
        let mut merged = Vec::with_capacity(self.packets.len() + other.len());
        let mut a = std::mem::take(&mut self.packets).into_iter().peekable();
        let mut b = other.into_iter().peekable();
        loop {
            match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => {
                    if x.ts_nanos <= y.ts_nanos {
                        merged.push(a.next().expect("peeked"));
                    } else {
                        merged.push(b.next().expect("peeked"));
                    }
                }
                (Some(_), None) => merged.push(a.next().expect("peeked")),
                (None, Some(_)) => merged.push(b.next().expect("peeked")),
                (None, None) => break,
            }
        }
        self.packets = merged;
    }

    /// Iterate tumbling windows of `window_ms`: yields `(window_index,
    /// packets)` for every non-empty window.
    pub fn windows(&self, window_ms: u64) -> impl Iterator<Item = (u64, &[Packet])> {
        let window_ns = window_ms.max(1) * 1_000_000;
        let mut starts: Vec<(u64, usize)> = Vec::new();
        let mut current: Option<u64> = None;
        for (i, p) in self.packets.iter().enumerate() {
            let w = p.ts_nanos / window_ns;
            if current != Some(w) {
                starts.push((w, i));
                current = Some(w);
            }
        }
        let packets = &self.packets;
        let n = packets.len();
        (0..starts.len()).map(move |k| {
            let (w, lo) = starts[k];
            let hi = starts.get(k + 1).map(|(_, i)| *i).unwrap_or(n);
            (w, &packets[lo..hi])
        })
    }

    /// Summary statistics.
    pub fn stats(&self) -> TraceStats {
        let mut s = TraceStats::default();
        let mut src: BTreeSet<u32> = BTreeSet::new();
        let mut dst: BTreeSet<u32> = BTreeSet::new();
        for p in &self.packets {
            s.packets += 1;
            s.bytes += p.wire_len() as u64;
            src.insert(p.ipv4.src);
            dst.insert(p.ipv4.dst);
            match &p.transport {
                Transport::Tcp(t) => {
                    s.tcp += 1;
                    if t.flags == TcpFlags::SYN {
                        s.syns += 1;
                    }
                }
                Transport::Udp(_) => s.udp += 1,
                Transport::Icmp(_) => s.icmp += 1,
                Transport::Opaque => s.other += 1,
            }
        }
        s.distinct_sources = src.len();
        s.distinct_destinations = dst.len();
        s.duration_ns = self.duration_ns();
        s
    }

    /// Serialize to the binary trace format: a magic header, then one
    /// length-prefixed record per packet (`ts_nanos: u64 LE`,
    /// `len: u32 LE`, raw bytes from the IPv4 header).
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(b"SNTRACE1")?;
        w.write_all(&(self.packets.len() as u64).to_le_bytes())?;
        for p in &self.packets {
            let bytes = p.encode();
            w.write_all(&p.ts_nanos.to_le_bytes())?;
            w.write_all(&(bytes.len() as u32).to_le_bytes())?;
            w.write_all(&bytes)?;
        }
        Ok(())
    }

    /// Deserialize from the binary trace format.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != b"SNTRACE1" {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad trace magic",
            ));
        }
        let mut buf8 = [0u8; 8];
        r.read_exact(&mut buf8)?;
        let count = u64::from_le_bytes(buf8) as usize;
        if count > 1 << 32 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "absurd packet count",
            ));
        }
        let mut packets = Vec::with_capacity(count.min(1 << 24));
        let mut buf4 = [0u8; 4];
        for _ in 0..count {
            r.read_exact(&mut buf8)?;
            let ts = u64::from_le_bytes(buf8);
            r.read_exact(&mut buf4)?;
            let len = u32::from_le_bytes(buf4) as usize;
            if len > 65_536 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "packet too large",
                ));
            }
            let mut bytes = vec![0u8; len];
            r.read_exact(&mut bytes)?;
            let mut pkt = Packet::decode(&bytes)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            pkt.ts_nanos = ts;
            packets.push(pkt);
        }
        Ok(Trace::new(packets))
    }

    /// Write to a file path.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut f = io::BufWriter::new(std::fs::File::create(path)?);
        self.write_to(&mut f)
    }

    /// Read from a file path.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let mut f = io::BufReader::new(std::fs::File::open(path)?);
        Self::read_from(&mut f)
    }

    /// Build a contiguous [`PacketArena`] from the trace, preserving
    /// trace order (including the stable equal-timestamp order pinned
    /// by [`Trace::new`]).
    pub fn to_arena(&self) -> PacketArena {
        PacketArena::from_packets(&self.packets)
    }

    /// Decode the binary trace format straight into a [`PacketArena`]
    /// without materializing owned packets: each record's wire bytes
    /// are appended to the arena buffer verbatim. Record order in the
    /// file is preserved; files written by [`Trace::write_to`] are
    /// already timestamp-sorted.
    ///
    /// Each record is still validated as a decodable IPv4 packet so a
    /// corrupt file fails here rather than inside the switch.
    pub fn read_arena_from<R: Read>(r: &mut R) -> io::Result<PacketArena> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != b"SNTRACE1" {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad trace magic",
            ));
        }
        let mut buf8 = [0u8; 8];
        r.read_exact(&mut buf8)?;
        let count = u64::from_le_bytes(buf8) as usize;
        if count > 1 << 32 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "absurd packet count",
            ));
        }
        let mut arena = PacketArena::with_capacity(count.min(1 << 24), 0);
        let mut buf4 = [0u8; 4];
        let mut bytes = Vec::new();
        for _ in 0..count {
            r.read_exact(&mut buf8)?;
            let ts = u64::from_le_bytes(buf8);
            r.read_exact(&mut buf4)?;
            let len = u32::from_le_bytes(buf4) as usize;
            if len > 65_536 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "packet too large",
                ));
            }
            bytes.resize(len, 0);
            r.read_exact(&mut bytes)?;
            // Full decode, not just an IPv4 sanity check: batch
            // execution defers packet materialization to ship time and
            // relies on every arena record being decodable.
            Packet::decode(&bytes)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            arena.push_record(ts, &bytes);
        }
        Ok(arena)
    }

    /// Read a file straight into a [`PacketArena`].
    pub fn load_arena(path: impl AsRef<Path>) -> io::Result<PacketArena> {
        let mut f = io::BufReader::new(std::fs::File::open(path)?);
        Self::read_arena_from(&mut f)
    }
}

/// Summary statistics of a trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total packets.
    pub packets: usize,
    /// Total wire bytes.
    pub bytes: u64,
    /// TCP packets.
    pub tcp: usize,
    /// UDP packets.
    pub udp: usize,
    /// ICMP packets.
    pub icmp: usize,
    /// Other-protocol packets.
    pub other: usize,
    /// Bare-SYN packets.
    pub syns: usize,
    /// Distinct source addresses.
    pub distinct_sources: usize,
    /// Distinct destination addresses.
    pub distinct_destinations: usize,
    /// Last timestamp, nanoseconds.
    pub duration_ns: u64,
}

/// The standard evaluation workload: background traffic plus one
/// needle per catalog query, with fixed victims. Mirrors the paper's
/// setup of replaying a CAIDA trace with attacks present.
///
/// `scale` multiplies the background packet budget (1.0 ≈ 100 k packets
/// per 3 s window — a laptop-friendly stand-in for the paper's ~60 M).
#[derive(Debug, Clone)]
pub struct EvaluationTrace {
    /// The merged trace.
    pub trace: Trace,
    /// The injected attacks, for asserting detection.
    pub attacks: Vec<Attack>,
}

/// Fixed, recognizable actor addresses used by the evaluation workload.
pub mod actors {
    /// SYN-flood & case-study victim (99.7.0.25, as in the paper's Fig. 9).
    pub const SYN_FLOOD_VICTIM: u32 = 0x63070019;
    /// Port-scan scanner.
    pub const SCANNER: u32 = 0xc0a84401;
    /// Superspreader source.
    pub const SPREADER: u32 = 0xc6336401;
    /// DDoS victim.
    pub const DDOS_VICTIM: u32 = 0x63070119;
    /// SSH brute-force victim.
    pub const SSH_VICTIM: u32 = 0x63070219;
    /// Slowloris victim.
    pub const SLOWLORIS_VICTIM: u32 = 0x63070319;
    /// Slowloris attacker.
    pub const SLOWLORIS_ATTACKER: u32 = 0xc6481e05;
    /// DNS-tunnel client.
    pub const TUNNEL_CLIENT: u32 = 0xc6481f06;
    /// DNS-tunnel resolver.
    pub const TUNNEL_RESOLVER: u32 = 0x08080404;
    /// Zorro victim (the paper's 99.7.0.25).
    pub const ZORRO_VICTIM: u32 = 0x63070019;
    /// Zorro attacker.
    pub const ZORRO_ATTACKER: u32 = 0xc6482007;
    /// DNS-reflection victim.
    pub const REFLECTION_VICTIM: u32 = 0x63070419;
}

impl EvaluationTrace {
    /// Build the workload over `windows` windows of `window_ms`, at the
    /// given background scale, deterministically from `seed`.
    pub fn generate(seed: u64, windows: u32, window_ms: u64, scale: f64) -> Self {
        use actors::*;
        let duration_ms = windows as u64 * window_ms;
        let cfg = BackgroundConfig {
            duration_ms,
            packets: ((100_000.0 * scale) as usize).max(1_000) * windows as usize,
            ..BackgroundConfig::default()
        };
        let mut trace = Trace::background(&cfg, seed);
        let span = duration_ms.saturating_sub(window_ms / 2).max(1);
        let scale_n = |n: usize| ((n as f64) * scale.sqrt().max(0.2)) as usize;
        let attacks = vec![
            Attack::SynFlood {
                victim: SYN_FLOOD_VICTIM,
                port: 80,
                packets: scale_n(3_000) * windows as usize,
                sources: 4_000,
                ack_fraction: 0.04,
                fin_fraction: 0.02,
                start_ms: 0,
                duration_ms: span,
            },
            Attack::SshBruteForce {
                victim: SSH_VICTIM,
                attackers: (0..80u32).map(|i| 0xc0a80a01 + i).collect(),
                attempts: 3 * windows as usize,
                attempt_len: 48,
                start_ms: 0,
                duration_ms: span,
            },
            Attack::Superspreader {
                source: SPREADER,
                destinations: (0..200u32).map(|i| 0x17000000 + i * 7).collect(),
                packets_per_dest: windows as usize,
                start_ms: 0,
                duration_ms: span,
            },
            Attack::PortScan {
                scanner: SCANNER,
                targets: vec![0x63070519, 0x6307051a],
                ports: 120,
                start_ms: 0,
                duration_ms: span,
            },
            Attack::Ddos {
                victim: DDOS_VICTIM,
                sources: (0..300u32).map(|i| 0x2d000000 + i * 13).collect(),
                packets_per_source: windows as usize,
                start_ms: 0,
                duration_ms: span,
            },
            Attack::Slowloris {
                victim: SLOWLORIS_VICTIM,
                attacker: SLOWLORIS_ATTACKER,
                connections: scale_n(200) * windows as usize,
                bytes_per_conn: 6,
                start_ms: 0,
                duration_ms: span,
            },
            Attack::DnsTunneling {
                client: TUNNEL_CLIENT,
                resolver: TUNNEL_RESOLVER,
                queries: scale_n(150) * windows as usize,
                domain: "upd.evil-cdn.example".to_string(),
                start_ms: 0,
                duration_ms: span,
            },
            Attack::DnsReflection {
                victim: REFLECTION_VICTIM,
                resolvers: (0..50u32).map(|i| 0x08080000 + i).collect(),
                responses_per_resolver: 4 * windows as usize,
                answers: 6,
                start_ms: 0,
                duration_ms: span,
            },
        ];
        // One merge for all eight: `merge` breaks ties trace-first, so
        // injecting them one by one leaves equal timestamps in attack
        // order — which is what a stable sort of the streams laid end
        // to end gives.
        let mut needles: Vec<Packet> = (attacks.iter().enumerate())
            .flat_map(|(i, a)| a.generate(seed.wrapping_add(100 + i as u64)))
            .collect();
        needles.sort_by_key(|p| p.ts_nanos);
        trace.merge(needles);
        EvaluationTrace { trace, attacks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_trace(seed: u64) -> Trace {
        Trace::background(&BackgroundConfig::small(), seed)
    }

    #[test]
    fn windows_partition_the_trace() {
        let t = small_trace(1);
        let total: usize = t.windows(500).map(|(_, pkts)| pkts.len()).sum();
        assert_eq!(total, t.len());
        // Window indices strictly increase, packets stay in their window.
        let mut last_w = None;
        for (w, pkts) in t.windows(500) {
            if let Some(lw) = last_w {
                assert!(w > lw);
            }
            last_w = Some(w);
            for p in pkts {
                assert_eq!(p.ts_nanos / 500_000_000, w);
            }
        }
    }

    #[test]
    fn merge_keeps_order() {
        let mut t = small_trace(2);
        let n = t.len();
        t.inject(
            &Attack::SynFlood {
                victim: 0x63070019,
                port: 80,
                packets: 500,
                sources: 50,
                ack_fraction: 0.05,
                fin_fraction: 0.05,
                start_ms: 500,
                duration_ms: 1000,
            },
            9,
        );
        assert_eq!(t.len(), n + 500);
        assert!(t
            .packets()
            .windows(2)
            .all(|w| w[0].ts_nanos <= w[1].ts_nanos));
    }

    #[test]
    fn stats_are_consistent() {
        let t = small_trace(3);
        let s = t.stats();
        assert_eq!(s.packets, t.len());
        assert_eq!(s.tcp + s.udp + s.icmp + s.other, s.packets);
        assert!(s.syns > 0 && s.syns < s.tcp);
        assert!(s.distinct_sources > 10);
        assert_eq!(s.bytes, t.total_bytes());
    }

    #[test]
    fn file_roundtrip() {
        let t = small_trace(4);
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let back = Trace::read_from(&mut &buf[..]).unwrap();
        assert_eq!(back.len(), t.len());
        for (a, b) in t.packets().iter().zip(back.packets()).take(200) {
            assert_eq!(a.ts_nanos, b.ts_nanos);
            assert_eq!(a.ipv4.src, b.ipv4.src);
            assert_eq!(a.payload.len(), b.payload.len());
        }
    }

    #[test]
    fn file_rejects_garbage() {
        assert!(Trace::read_from(&mut &b"NOTATRACE"[..]).is_err());
        let mut buf = Vec::new();
        small_trace(5).write_to(&mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(Trace::read_from(&mut &buf[..]).is_err());
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let cfg = BackgroundConfig::small();
        let mut pkts = background::generate(&cfg, 6);
        pkts.reverse();
        let t = Trace::new(pkts);
        assert!(t
            .packets()
            .windows(2)
            .all(|w| w[0].ts_nanos <= w[1].ts_nanos));
    }

    #[test]
    fn duplicate_timestamps_keep_input_order() {
        use sonata_packet::PacketBuilder;
        // Many packets sharing timestamps, distinguishable by src port.
        // A stable sort must keep the input order within each group;
        // arena iteration order is pinned to this.
        let mut pkts = Vec::new();
        for port in 0..50u16 {
            for &ts in &[300u64, 100, 200, 100, 300] {
                pkts.push(
                    PacketBuilder::tcp_raw(1, 1_000 + port, 2, 80)
                        .ts_nanos(ts)
                        .build(),
                );
            }
        }
        let expected: Vec<(u64, u16)> = {
            let mut tagged: Vec<(usize, u64, u16)> = pkts
                .iter()
                .enumerate()
                .map(|(i, p)| match &p.transport {
                    Transport::Tcp(t) => (i, p.ts_nanos, t.src_port),
                    _ => unreachable!(),
                })
                .collect();
            tagged.sort_by_key(|&(i, ts, _)| (ts, i)); // reference: explicit stability
            tagged.into_iter().map(|(_, ts, port)| (ts, port)).collect()
        };
        let t = Trace::new(pkts);
        let got: Vec<(u64, u16)> = t
            .packets()
            .iter()
            .map(|p| match &p.transport {
                Transport::Tcp(t) => (p.ts_nanos, t.src_port),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(got, expected);
        // The arena preserves exactly this order.
        let arena = t.to_arena();
        let arena_order: Vec<u64> = arena.index().iter().map(|e| e.ts_nanos).collect();
        let trace_order: Vec<u64> = t.packets().iter().map(|p| p.ts_nanos).collect();
        assert_eq!(arena_order, trace_order);
    }

    #[test]
    fn arena_roundtrips_through_file_format() {
        let t = small_trace(8);
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        // Decoding straight into an arena matches building the arena
        // from owned packets, byte for byte.
        let from_file = Trace::read_arena_from(&mut &buf[..]).unwrap();
        let from_trace = t.to_arena();
        assert_eq!(from_file.len(), from_trace.len());
        assert_eq!(from_file.bytes(), from_trace.bytes());
        assert_eq!(from_file.index(), from_trace.index());
        // And arena windows mirror trace windows.
        let aw: Vec<(u64, usize)> = from_file.windows(500).map(|(w, b)| (w, b.len())).collect();
        let tw: Vec<(u64, usize)> = t.windows(500).map(|(w, p)| (w, p.len())).collect();
        assert_eq!(aw, tw);
    }

    #[test]
    fn arena_read_rejects_garbage() {
        assert!(Trace::read_arena_from(&mut &b"NOTATRACE"[..]).is_err());
        let mut buf = Vec::new();
        small_trace(9).write_to(&mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(Trace::read_arena_from(&mut &buf[..]).is_err());
    }

    #[test]
    fn evaluation_trace_contains_all_needles() {
        let ev = EvaluationTrace::generate(7, 2, 3_000, 0.05);
        assert_eq!(ev.attacks.len(), 8);
        let stats = ev.trace.stats();
        assert!(stats.packets > 10_000);
        // The SYN-flood victim appears prominently.
        let flood = ev
            .trace
            .packets()
            .iter()
            .filter(|p| p.ipv4.dst == actors::SYN_FLOOD_VICTIM)
            .count();
        assert!(flood > 500, "flood pkts: {flood}");
    }
}
