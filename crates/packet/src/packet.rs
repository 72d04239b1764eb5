//! The owned [`Packet`] type: a decoded packet with timestamp, headers,
//! and payload, plus [`PacketBuilder`] for constructing packets and the
//! [`Packet::get`] accessor that resolves query [`Field`]s to [`Value`]s.

use crate::dns::DnsHeader;
use crate::field::{parse_ipv4, Field, Value};
use crate::headers::{
    EthernetHeader, IcmpHeader, IpProtocol, Ipv4Header, TcpFlags, TcpHeader, UdpHeader,
};
use crate::wire::{EthernetView, IcmpView, Ipv4View, TcpView, UdpView};
use crate::DecodeError;
use bytes::Bytes;
use std::sync::Arc;

/// Transport-layer header of a packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transport {
    /// A TCP segment.
    Tcp(TcpHeader),
    /// A UDP datagram.
    Udp(UdpHeader),
    /// An ICMP message.
    Icmp(IcmpHeader),
    /// Unparsed transport (unknown IP protocol).
    Opaque,
}

/// Application-layer content recognized by the stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppLayer {
    /// A DNS message (parsed when the UDP port is 53), shared: a
    /// packet's clones (and [`Packet::share`]) point at one message
    /// rather than copying its names and records.
    Dns(Arc<DnsHeader>),
    /// No recognized application layer.
    None,
}

/// An owned, decoded packet.
///
/// Timestamps are nanoseconds from the start of the trace; the traffic
/// substrate assigns them and the runtime's window logic consumes them.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// Capture timestamp, nanoseconds from trace start.
    pub ts_nanos: u64,
    /// Optional Ethernet header (CAIDA-style traces have none).
    pub eth: Option<EthernetHeader>,
    /// IPv4 header.
    pub ipv4: Ipv4Header,
    /// Transport header.
    pub transport: Transport,
    /// Parsed application layer, if recognized.
    pub app: AppLayer,
    /// Transport payload bytes (after the transport header). For DNS
    /// packets this holds the serialized DNS message.
    pub payload: Bytes,
    encoded: EncodedCache,
}

/// Lazily-populated cache of a packet's encoded wire bytes.
///
/// Several call sites re-encode the same packet (every replay's window
/// batch, the fabric's partition, tests); the cache makes the second and
/// later encodes free. It is deliberately *not* part of the packet's
/// identity: clones start cold (a clone may be mutated before its next
/// encode), equality ignores it, and it is only ever populated through
/// [`Packet::encode_cached`] and the views of
/// [`crate::ArenaBatch::of_packets`], which callers use solely on
/// packets that are no longer mutated. [`Packet::share`] is the one
/// clone that carries the bytes along, on the caller's word that it
/// will not mutate the copy.
#[derive(Default)]
struct EncodedCache(std::sync::OnceLock<Arc<[u8]>>);

impl Clone for EncodedCache {
    fn clone(&self) -> Self {
        // A clone may be mutated before it is encoded; start cold.
        EncodedCache::default()
    }
}

impl PartialEq for EncodedCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl std::fmt::Debug for EncodedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0.get() {
            Some(b) => write!(f, "EncodedCache({} bytes)", b.len()),
            None => write!(f, "EncodedCache(cold)"),
        }
    }
}

impl Packet {
    /// Total on-wire length in bytes (what the paper calls `pktlen`).
    pub fn wire_len(&self) -> usize {
        let l2 = if self.eth.is_some() {
            EthernetHeader::SIZE
        } else {
            0
        };
        l2 + Ipv4Header::SIZE + self.transport_header_len() + self.payload.len()
    }

    fn transport_header_len(&self) -> usize {
        match &self.transport {
            Transport::Tcp(_) => TcpHeader::SIZE,
            Transport::Udp(_) => UdpHeader::SIZE,
            Transport::Icmp(_) => IcmpHeader::SIZE,
            Transport::Opaque => 0,
        }
    }

    /// Serialize to wire bytes (IPv4 and up; prepends Ethernet only if
    /// present).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.wire_len());
        if let Some(eth) = &self.eth {
            eth.emit(&mut buf);
        }
        let total = (Ipv4Header::SIZE + self.transport_header_len() + self.payload.len()) as u16;
        self.ipv4.emit(&mut buf, total);
        match &self.transport {
            Transport::Tcp(t) => t.emit(&mut buf, self.ipv4.src, self.ipv4.dst, &self.payload),
            Transport::Udp(u) => u.emit(&mut buf, self.ipv4.src, self.ipv4.dst, &self.payload),
            Transport::Icmp(i) => i.emit(&mut buf, &self.payload),
            Transport::Opaque => {}
        }
        buf.extend_from_slice(&self.payload);
        buf
    }

    /// Like [`Packet::encode`], but memoizes the wire bytes on first
    /// call and hands back the cached slice afterwards.
    ///
    /// Only call this on packets that will not be mutated again (trace
    /// packets after generation, report-embedded packets): the cache is
    /// never invalidated in place. Clones start cold, so the usual
    /// clone-then-tweak patterns stay safe.
    pub fn encode_cached(&self) -> &[u8] {
        let bytes = self.cached();
        // Bytes two packets hold ([`Packet::share`]) are re-checked
        // against the fields at every use.
        debug_assert!(
            Arc::strong_count(bytes) == 1 || **bytes == *self.encode(),
            "a packet sharing its encoded bytes was mutated before it was encoded"
        );
        bytes
    }

    /// The cached wire bytes, encoded on first use, without
    /// [`Self::encode_cached`]'s debug re-check of shared bytes: for
    /// [`crate::ArenaBatch::of_packets`], which runs that check once per
    /// packet and then reads each packet several times.
    #[inline]
    pub(crate) fn cached(&self) -> &Arc<[u8]> {
        self.encoded.0.get_or_init(|| self.encode().into())
    }

    /// A clone that shares this packet's encoded bytes (encoding them
    /// now if nobody has) instead of starting cold: for a copy that is
    /// read and encoded but never mutated, such as a window's packets
    /// dealt out to switches. Mutating either packet and then encoding
    /// it while the other lives is a bug, which debug builds catch in
    /// [`Packet::encode_cached`].
    pub fn share(&self) -> Packet {
        self.encode_cached();
        Packet {
            encoded: EncodedCache(self.encoded.0.clone()),
            ..self.clone()
        }
    }

    /// Decode wire bytes starting at the IPv4 header.
    pub fn decode(data: &[u8]) -> Result<Self, DecodeError> {
        Self::decode_at(data, 0, false)
    }

    /// Decode wire bytes starting at an Ethernet header.
    pub fn decode_ethernet(data: &[u8]) -> Result<Self, DecodeError> {
        Self::decode_at(data, 0, true)
    }

    fn decode_at(data: &[u8], ts_nanos: u64, has_eth: bool) -> Result<Self, DecodeError> {
        let (eth, ip_bytes) = if has_eth {
            let view = EthernetView::new(data)?;
            let eth = EthernetHeader {
                dst: view.dst(),
                src: view.src(),
                ethertype: view.ethertype(),
            };
            (Some(eth), view.payload())
        } else {
            (None, data)
        };
        let ip = Ipv4View::new(ip_bytes)?;
        let ipv4 = Ipv4Header {
            src: ip.src(),
            dst: ip.dst(),
            protocol: ip.protocol(),
            ttl: ip.ttl(),
            tos: ip.tos(),
            ident: ip.ident(),
            total_len: ip.total_len(),
        };
        let l4 = ip.payload();
        let (transport, payload) = match ipv4.protocol {
            IpProtocol::Tcp => {
                let t = TcpView::new(l4)?;
                (
                    Transport::Tcp(TcpHeader {
                        src_port: t.src_port(),
                        dst_port: t.dst_port(),
                        seq: t.seq(),
                        ack: t.ack(),
                        flags: TcpFlags(t.flags()),
                        window: t.window(),
                    }),
                    Bytes::copy_from_slice(t.payload()),
                )
            }
            IpProtocol::Udp => {
                let u = UdpView::new(l4)?;
                (
                    Transport::Udp(UdpHeader {
                        src_port: u.src_port(),
                        dst_port: u.dst_port(),
                    }),
                    Bytes::copy_from_slice(u.payload()),
                )
            }
            IpProtocol::Icmp => {
                let i = IcmpView::new(l4)?;
                (
                    Transport::Icmp(IcmpHeader {
                        icmp_type: i.icmp_type(),
                        code: i.code(),
                        ident: i.ident(),
                        seq: i.seq(),
                    }),
                    Bytes::copy_from_slice(i.payload()),
                )
            }
            _ => (Transport::Opaque, Bytes::copy_from_slice(l4)),
        };
        let app = match &transport {
            Transport::Udp(u) if (u.dst_port == 53 || u.src_port == 53) && !payload.is_empty() => {
                match DnsHeader::decode(&payload) {
                    Ok(dns) => AppLayer::Dns(Arc::new(dns)),
                    Err(_) => AppLayer::None,
                }
            }
            _ => AppLayer::None,
        };
        Ok(Packet {
            ts_nanos,
            eth,
            ipv4,
            transport,
            app,
            payload,
            encoded: EncodedCache::default(),
        })
    }

    /// `(QR, ANCOUNT)` off the payload of a UDP port-53 packet with
    /// at least a DNS header's worth of bytes.
    fn dns_bytes(&self) -> Option<(u64, u64)> {
        match &self.transport {
            Transport::Udp(u) if u.dst_port == 53 || u.src_port == 53 => {
                crate::wire::dns_header_fields(&self.payload)
            }
            _ => None,
        }
    }

    /// Resolve a query [`Field`] on this packet. Returns `None` when
    /// the packet has no such field (e.g. `TcpFlags` on a UDP packet).
    pub fn get(&self, field: Field) -> Option<Value> {
        match field {
            Field::Ipv4Src => Some(Value::U64(self.ipv4.src as u64)),
            Field::Ipv4Dst => Some(Value::U64(self.ipv4.dst as u64)),
            Field::Ipv4Proto => Some(Value::U64(self.ipv4.protocol.to_wire() as u64)),
            Field::Ipv4Len => Some(Value::U64(
                (Ipv4Header::SIZE + self.transport_header_len() + self.payload.len()) as u64,
            )),
            Field::Ipv4Ttl => Some(Value::U64(self.ipv4.ttl as u64)),
            Field::TcpSrcPort => match &self.transport {
                Transport::Tcp(t) => Some(Value::U64(t.src_port as u64)),
                _ => None,
            },
            Field::TcpDstPort => match &self.transport {
                Transport::Tcp(t) => Some(Value::U64(t.dst_port as u64)),
                _ => None,
            },
            Field::TcpFlags => match &self.transport {
                Transport::Tcp(t) => Some(Value::U64(t.flags.0 as u64)),
                _ => None,
            },
            Field::TcpSeq => match &self.transport {
                Transport::Tcp(t) => Some(Value::U64(t.seq as u64)),
                _ => None,
            },
            Field::TcpAck => match &self.transport {
                Transport::Tcp(t) => Some(Value::U64(t.ack as u64)),
                _ => None,
            },
            Field::UdpSrcPort => match &self.transport {
                Transport::Udp(u) => Some(Value::U64(u.src_port as u64)),
                _ => None,
            },
            Field::UdpDstPort => match &self.transport {
                Transport::Udp(u) => Some(Value::U64(u.dst_port as u64)),
                _ => None,
            },
            Field::IcmpType => match &self.transport {
                Transport::Icmp(i) => Some(Value::U64(i.icmp_type as u64)),
                _ => None,
            },
            // The fixed-offset header fields answer from the bytes, as
            // the switch parser reads them (`wire::extract_fields`): a
            // body that does not parse still has a header.
            Field::DnsQr => self.dns_bytes().map(|(qr, _)| Value::U64(qr)),
            Field::DnsAnCount => self.dns_bytes().map(|(_, n)| Value::U64(n)),
            Field::DnsQType => (self.dns_bytes())
                .and_then(|_| crate::wire::dns_first_qtype(&self.payload))
                .map(Value::U64),
            Field::DnsRrName => match &self.app {
                AppLayer::Dns(d) => d.first_qname().map(|n| Value::Text(n.into())),
                _ => None,
            },
            Field::DnsAnswerIp => match &self.app {
                AppLayer::Dns(d) => d
                    .answers
                    .iter()
                    .find(|r| r.rtype == crate::dns::DnsQType::A && r.rdata.len() == 4)
                    .map(|r| {
                        Value::U64(u32::from_be_bytes([
                            r.rdata[0], r.rdata[1], r.rdata[2], r.rdata[3],
                        ]) as u64)
                    }),
                _ => None,
            },
            Field::PktLen => Some(Value::U64(self.wire_len() as u64)),
            Field::PayloadLen => Some(Value::U64(self.payload.len() as u64)),
            Field::Payload => Some(Value::Bytes(self.payload.to_vec().into())),
        }
    }
}

/// A fluent builder for packets, used pervasively by the traffic
/// substrate and by tests.
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    packet: Packet,
}

impl PacketBuilder {
    /// Start a TCP packet from `src` to `dst`, each `"a.b.c.d:port"`.
    pub fn tcp(src: &str, dst: &str) -> Option<Self> {
        let (sip, sport) = split_endpoint(src)?;
        let (dip, dport) = split_endpoint(dst)?;
        Some(Self::tcp_raw(sip, sport, dip, dport))
    }

    /// Start a TCP packet from raw address/port values.
    pub fn tcp_raw(src_ip: u32, src_port: u16, dst_ip: u32, dst_port: u16) -> Self {
        PacketBuilder {
            packet: Packet {
                ts_nanos: 0,
                eth: None,
                ipv4: Ipv4Header::new(src_ip, dst_ip, IpProtocol::Tcp),
                transport: Transport::Tcp(TcpHeader::new(src_port, dst_port)),
                app: AppLayer::None,
                payload: Bytes::new(),
                encoded: EncodedCache::default(),
            },
        }
    }

    /// Start a UDP packet from raw address/port values.
    pub fn udp_raw(src_ip: u32, src_port: u16, dst_ip: u32, dst_port: u16) -> Self {
        PacketBuilder {
            packet: Packet {
                ts_nanos: 0,
                eth: None,
                ipv4: Ipv4Header::new(src_ip, dst_ip, IpProtocol::Udp),
                transport: Transport::Udp(UdpHeader { src_port, dst_port }),
                app: AppLayer::None,
                payload: Bytes::new(),
                encoded: EncodedCache::default(),
            },
        }
    }

    /// Start an ICMP echo-request packet.
    pub fn icmp_raw(src_ip: u32, dst_ip: u32) -> Self {
        PacketBuilder {
            packet: Packet {
                ts_nanos: 0,
                eth: None,
                ipv4: Ipv4Header::new(src_ip, dst_ip, IpProtocol::Icmp),
                transport: Transport::Icmp(IcmpHeader {
                    icmp_type: 8,
                    code: 0,
                    ident: 1,
                    seq: 1,
                }),
                app: AppLayer::None,
                payload: Bytes::new(),
                encoded: EncodedCache::default(),
            },
        }
    }

    /// Start a DNS packet (UDP port 53) carrying `msg`.
    pub fn dns(src_ip: u32, dst_ip: u32, msg: DnsHeader) -> Self {
        let (src_port, dst_port) = if msg.is_response {
            (53, 33000)
        } else {
            (33000, 53)
        };
        let mut payload = Vec::with_capacity(msg.wire_len());
        msg.emit(&mut payload);
        PacketBuilder {
            packet: Packet {
                ts_nanos: 0,
                eth: None,
                ipv4: Ipv4Header::new(src_ip, dst_ip, IpProtocol::Udp),
                transport: Transport::Udp(UdpHeader { src_port, dst_port }),
                app: AppLayer::Dns(Arc::new(msg)),
                payload: payload.into(),
                encoded: EncodedCache::default(),
            },
        }
    }

    /// Set the timestamp (nanoseconds from trace start).
    pub fn ts_nanos(mut self, ts: u64) -> Self {
        self.packet.ts_nanos = ts;
        self
    }

    /// Set TCP flags (no-op on non-TCP packets).
    pub fn flags(mut self, flags: TcpFlags) -> Self {
        if let Transport::Tcp(t) = &mut self.packet.transport {
            t.flags = flags;
        }
        self
    }

    /// Set the TCP sequence number (no-op on non-TCP packets).
    pub fn seq(mut self, seq: u32) -> Self {
        if let Transport::Tcp(t) = &mut self.packet.transport {
            t.seq = seq;
        }
        self
    }

    /// Set the payload.
    pub fn payload(mut self, data: impl Into<Bytes>) -> Self {
        self.packet.payload = data.into();
        self
    }

    /// Set the IPv4 TTL.
    pub fn ttl(mut self, ttl: u8) -> Self {
        self.packet.ipv4.ttl = ttl;
        self
    }

    /// Attach a default Ethernet header.
    pub fn with_ethernet(mut self) -> Self {
        self.packet.eth = Some(EthernetHeader::ipv4_default());
        self
    }

    /// Finish building.
    pub fn build(self) -> Packet {
        self.packet
    }
}

fn split_endpoint(s: &str) -> Option<(u32, u16)> {
    let (ip, port) = s.rsplit_once(':')?;
    Some((parse_ipv4(ip)?, port.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dns::DnsQType;

    #[test]
    fn tcp_roundtrip() {
        let pkt = PacketBuilder::tcp("10.0.0.1:1234", "192.168.1.5:80")
            .unwrap()
            .flags(TcpFlags::SYN)
            .seq(99)
            .payload(&b"data"[..])
            .build();
        let bytes = pkt.encode();
        assert_eq!(bytes.len(), pkt.wire_len());
        let mut back = Packet::decode(&bytes).unwrap();
        back.ipv4.total_len = 0; // builder leaves it 0; normalize
        let mut orig = pkt;
        orig.ipv4.total_len = 0;
        assert_eq!(back, orig);
    }

    #[test]
    fn ethernet_roundtrip() {
        let pkt = PacketBuilder::tcp("1.2.3.4:5:", "5.6.7.8:9"); // malformed src
        assert!(pkt.is_none());
        let pkt = PacketBuilder::tcp("1.2.3.4:5", "5.6.7.8:9")
            .unwrap()
            .with_ethernet()
            .build();
        let bytes = pkt.encode();
        let back = Packet::decode_ethernet(&bytes).unwrap();
        assert_eq!(back.eth, pkt.eth);
        assert_eq!(back.ipv4.src, pkt.ipv4.src);
    }

    #[test]
    fn udp_dns_roundtrip() {
        let msg = DnsHeader::query(42, "tunnel.evil.example", DnsQType::Txt);
        let pkt = PacketBuilder::dns(0x01020304, 0x08080808, msg.clone()).build();
        let bytes = pkt.encode();
        let back = Packet::decode(&bytes).unwrap();
        match &back.app {
            AppLayer::Dns(d) => assert_eq!(**d, msg),
            other => panic!("expected DNS app layer, got {other:?}"),
        }
        assert_eq!(
            back.get(Field::DnsRrName),
            Some(Value::Text("tunnel.evil.example".into()))
        );
        assert_eq!(back.get(Field::DnsQType), Some(Value::U64(16)));
    }

    #[test]
    fn a_dns_clone_shares_its_message() {
        let msg = DnsHeader::query(7, "a.example", DnsQType::A);
        let pkt = PacketBuilder::dns(1, 2, msg).build();
        let (AppLayer::Dns(a), AppLayer::Dns(b)) = (&pkt.app, &pkt.clone().app) else {
            panic!("expected DNS app layers");
        };
        assert!(Arc::ptr_eq(a, b));
        // An inline `DnsHeader` made every packet 160 bytes.
        assert!(std::mem::size_of::<Packet>() <= 112);
    }

    #[test]
    fn icmp_roundtrip() {
        let pkt = PacketBuilder::icmp_raw(1, 2).payload(&b"ping!"[..]).build();
        let bytes = pkt.encode();
        let back = Packet::decode(&bytes).unwrap();
        assert_eq!(back.get(Field::IcmpType), Some(Value::U64(8)));
        assert_eq!(back.payload.as_ref(), b"ping!");
    }

    #[test]
    fn field_access_on_tcp() {
        let pkt = PacketBuilder::tcp("10.0.0.1:1234", "192.168.1.5:80")
            .unwrap()
            .flags(TcpFlags::SYN)
            .build();
        assert_eq!(pkt.get(Field::Ipv4Src), Some(Value::U64(0x0a000001)));
        assert_eq!(pkt.get(Field::Ipv4Dst), Some(Value::U64(0xc0a80105)));
        assert_eq!(pkt.get(Field::TcpFlags), Some(Value::U64(2)));
        assert_eq!(pkt.get(Field::TcpDstPort), Some(Value::U64(80)));
        assert_eq!(pkt.get(Field::Ipv4Proto), Some(Value::U64(6)));
        assert_eq!(pkt.get(Field::UdpDstPort), None);
        assert_eq!(pkt.get(Field::DnsRrName), None);
        assert_eq!(pkt.get(Field::PayloadLen), Some(Value::U64(0)));
    }

    #[test]
    fn wire_len_matches_encoded_len() {
        for payload_len in [0usize, 1, 100, 1400] {
            let pkt = PacketBuilder::udp_raw(1, 2, 3, 4)
                .payload(vec![0u8; payload_len])
                .build();
            assert_eq!(pkt.encode().len(), pkt.wire_len());
            assert_eq!(
                pkt.get(Field::PktLen),
                Some(Value::U64((28 + payload_len) as u64))
            );
        }
    }

    #[test]
    fn opaque_protocol_preserved() {
        let mut pkt = PacketBuilder::tcp_raw(1, 2, 3, 4).build();
        pkt.ipv4.protocol = IpProtocol::Other(89);
        pkt.transport = Transport::Opaque;
        pkt.payload = Bytes::from_static(&[1, 2, 3]);
        let bytes = pkt.encode();
        let back = Packet::decode(&bytes).unwrap();
        assert_eq!(back.ipv4.protocol, IpProtocol::Other(89));
        assert_eq!(back.transport, Transport::Opaque);
        assert_eq!(back.payload.as_ref(), &[1, 2, 3]);
    }

    #[test]
    fn encode_cached_matches_encode_and_survives_clone_mutation() {
        let pkt = PacketBuilder::tcp("10.0.0.1:1234", "192.168.1.5:80")
            .unwrap()
            .flags(TcpFlags::SYN)
            .payload(&b"data"[..])
            .build();
        assert_eq!(pkt.encode_cached(), pkt.encode().as_slice());
        // Second call returns the same cached allocation.
        assert_eq!(pkt.encode_cached().as_ptr(), pkt.encode_cached().as_ptr());
        // A clone starts cold: mutating it must not see the stale cache.
        let mut tweaked = pkt.clone();
        tweaked.payload = Bytes::from_static(b"different bytes");
        assert_eq!(tweaked.encode_cached(), tweaked.encode().as_slice());
        assert_ne!(tweaked.encode_cached(), pkt.encode_cached());
        // Equality ignores the cache state.
        let cold = Packet::decode(&pkt.encode()).unwrap();
        let mut warm = cold.clone();
        warm.ipv4.total_len = 0;
        let _ = cold.encode_cached();
        let mut cold2 = cold;
        cold2.ipv4.total_len = 0;
        assert_eq!(cold2, warm);
    }

    #[test]
    fn a_sharing_clone_carries_the_encoded_bytes_and_a_plain_clone_does_not() {
        let cold = PacketBuilder::tcp_raw(1, 2, 3, 4)
            .payload(&b"data"[..])
            .build();
        // Sharing encodes a cold source once, for both.
        let shared = cold.share();
        assert_eq!(shared, cold);
        assert_eq!(
            shared.encode_cached().as_ptr(),
            cold.encode_cached().as_ptr()
        );
        assert_eq!(
            shared.share().encode_cached().as_ptr(),
            cold.encode_cached().as_ptr()
        );
        // A plain clone of a warm packet — even of a shared one — starts
        // cold, and re-encodes what it was mutated to.
        for warm in [&cold, &shared] {
            let mut tweaked = warm.clone();
            tweaked.payload = Bytes::from_static(b"different bytes");
            assert_ne!(
                tweaked.encode_cached().as_ptr(),
                cold.encode_cached().as_ptr()
            );
            assert_eq!(tweaked.encode_cached(), tweaked.encode().as_slice());
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "sharing its encoded bytes was mutated")]
    fn mutating_a_sharing_clone_then_encoding_it_panics_in_debug() {
        let source = PacketBuilder::tcp_raw(1, 2, 3, 4).build();
        let mut shared = source.share();
        shared.ipv4.ttl = 1;
        shared.encode_cached();
    }

    #[test]
    fn dns_header_fields_answer_from_the_bytes_when_the_body_does_not_parse() {
        // QR = 1, QDCOUNT = 1, ANCOUNT = 5, and nothing after the
        // header: the message does not parse, the header still reads.
        const HEADER: [u8; 12] = [0, 7, 0x81, 0x80, 0, 1, 0, 5, 0, 0, 0, 0];
        let built = PacketBuilder::udp_raw(1, 53, 2, 4444)
            .payload(&HEADER[..])
            .build();
        let decoded = Packet::decode(&built.encode()).unwrap();
        assert_eq!(decoded.app, AppLayer::None);
        let mut parsed = std::collections::BTreeMap::new();
        assert!(crate::wire::extract_fields(
            &built.encode(),
            u32::MAX,
            |f, v| {
                parsed.insert(f, v);
            }
        ));
        for pkt in [&built, &decoded] {
            assert_eq!(pkt.get(Field::DnsQr), Some(Value::U64(1)));
            assert_eq!(pkt.get(Field::DnsAnCount), Some(Value::U64(5)));
            assert_eq!(pkt.get(Field::DnsQType), None);
            assert_eq!(pkt.get(Field::DnsRrName), None);
        }
        assert_eq!((parsed[&Field::DnsQr], parsed[&Field::DnsAnCount]), (1, 5));
        assert!(!parsed.contains_key(&Field::DnsQType));
        // Off port 53, or short of a header, there is no DNS to read.
        let elsewhere = PacketBuilder::udp_raw(1, 54, 2, 4444)
            .payload(&HEADER[..])
            .build();
        assert_eq!(elsewhere.get(Field::DnsQr), None);
        let short = PacketBuilder::udp_raw(1, 53, 2, 4444)
            .payload(&HEADER[..11])
            .build();
        assert_eq!(short.get(Field::DnsAnCount), None);
    }

    #[test]
    fn malformed_dns_payload_degrades_gracefully() {
        // UDP port 53 with garbage payload: packet decodes, app layer None.
        let pkt = PacketBuilder::udp_raw(1, 2, 3, 53)
            .payload(&b"not dns"[..])
            .build();
        let back = Packet::decode(&pkt.encode()).unwrap();
        assert_eq!(back.app, AppLayer::None);
    }
}
