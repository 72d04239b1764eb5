//! Zero-copy wire-format views over raw byte slices.
//!
//! The PISA behavioral model's reconfigurable parser operates on these
//! views: it walks Ethernet → IPv4 → TCP/UDP/ICMP (→ DNS) extracting
//! exactly the fields a compiled query needs, just as a hardware parse
//! graph would. Each view validates only what it must to expose its
//! fields safely; deeper validation (checksums) is opt-in.

use crate::headers::{EtherType, IpProtocol};
use crate::{DecodeError, Field};

/// A view over an Ethernet II frame.
#[derive(Debug, Clone, Copy)]
pub struct EthernetView<'a> {
    data: &'a [u8],
}

impl<'a> EthernetView<'a> {
    /// Wrap `data`, checking the fixed header is present.
    #[inline]
    pub fn new(data: &'a [u8]) -> Result<Self, DecodeError> {
        if data.len() < 14 {
            return Err(DecodeError::Truncated {
                layer: "ethernet",
                needed: 14,
                available: data.len(),
            });
        }
        Ok(EthernetView { data })
    }

    /// Destination MAC.
    #[inline]
    pub fn dst(&self) -> [u8; 6] {
        self.data[0..6].try_into().unwrap()
    }

    /// Source MAC.
    #[inline]
    pub fn src(&self) -> [u8; 6] {
        self.data[6..12].try_into().unwrap()
    }

    /// EtherType of the payload.
    #[inline]
    pub fn ethertype(&self) -> EtherType {
        EtherType::from_wire(u16::from_be_bytes([self.data[12], self.data[13]]))
    }

    /// The bytes after the Ethernet header.
    #[inline]
    pub fn payload(&self) -> &'a [u8] {
        &self.data[14..]
    }
}

/// A view over an IPv4 packet.
#[derive(Debug, Clone, Copy)]
pub struct Ipv4View<'a> {
    data: &'a [u8],
}

impl<'a> Ipv4View<'a> {
    /// Wrap `data`, validating version, IHL, and the length fields.
    #[inline]
    pub fn new(data: &'a [u8]) -> Result<Self, DecodeError> {
        if data.len() < 20 {
            return Err(DecodeError::Truncated {
                layer: "ipv4",
                needed: 20,
                available: data.len(),
            });
        }
        let version = data[0] >> 4;
        if version != 4 {
            return Err(DecodeError::Unsupported {
                layer: "ip version",
                value: version as u64,
            });
        }
        let view = Ipv4View { data };
        let ihl = view.header_len();
        if ihl < 20 || data.len() < ihl {
            return Err(DecodeError::BadLength { layer: "ipv4" });
        }
        let total = view.total_len() as usize;
        if total < ihl || total > data.len() {
            return Err(DecodeError::BadLength { layer: "ipv4" });
        }
        Ok(view)
    }

    /// Header length in bytes (IHL × 4).
    #[inline]
    pub fn header_len(&self) -> usize {
        ((self.data[0] & 0x0f) as usize) * 4
    }

    /// Total packet length from the header.
    #[inline]
    pub fn total_len(&self) -> u16 {
        u16::from_be_bytes([self.data[2], self.data[3]])
    }

    /// DSCP/ECN byte.
    #[inline]
    pub fn tos(&self) -> u8 {
        self.data[1]
    }

    /// Identification field.
    #[inline]
    pub fn ident(&self) -> u16 {
        u16::from_be_bytes([self.data[4], self.data[5]])
    }

    /// Time to live.
    #[inline]
    pub fn ttl(&self) -> u8 {
        self.data[8]
    }

    /// Payload protocol.
    #[inline]
    pub fn protocol(&self) -> IpProtocol {
        IpProtocol::from_wire(self.data[9])
    }

    /// Source address as host-order u32.
    #[inline]
    pub fn src(&self) -> u32 {
        u32::from_be_bytes(self.data[12..16].try_into().unwrap())
    }

    /// Destination address as host-order u32.
    #[inline]
    pub fn dst(&self) -> u32 {
        u32::from_be_bytes(self.data[16..20].try_into().unwrap())
    }

    /// Verify the header checksum.
    #[inline]
    pub fn checksum_ok(&self) -> bool {
        crate::headers::internet_checksum(&self.data[..self.header_len()]) == 0
    }

    /// The transport payload (bounded by `total_len`).
    #[inline]
    pub fn payload(&self) -> &'a [u8] {
        &self.data[self.header_len()..self.total_len() as usize]
    }
}

/// A view over a TCP segment.
#[derive(Debug, Clone, Copy)]
pub struct TcpView<'a> {
    data: &'a [u8],
}

impl<'a> TcpView<'a> {
    /// Wrap `data`, validating the data offset.
    #[inline]
    pub fn new(data: &'a [u8]) -> Result<Self, DecodeError> {
        if data.len() < 20 {
            return Err(DecodeError::Truncated {
                layer: "tcp",
                needed: 20,
                available: data.len(),
            });
        }
        let view = TcpView { data };
        let off = view.header_len();
        if off < 20 || data.len() < off {
            return Err(DecodeError::BadLength { layer: "tcp" });
        }
        Ok(view)
    }

    /// Source port.
    #[inline]
    pub fn src_port(&self) -> u16 {
        u16::from_be_bytes([self.data[0], self.data[1]])
    }

    /// Destination port.
    #[inline]
    pub fn dst_port(&self) -> u16 {
        u16::from_be_bytes([self.data[2], self.data[3]])
    }

    /// Sequence number.
    #[inline]
    pub fn seq(&self) -> u32 {
        u32::from_be_bytes(self.data[4..8].try_into().unwrap())
    }

    /// Acknowledgement number.
    #[inline]
    pub fn ack(&self) -> u32 {
        u32::from_be_bytes(self.data[8..12].try_into().unwrap())
    }

    /// Header length in bytes (data offset × 4).
    #[inline]
    pub fn header_len(&self) -> usize {
        ((self.data[12] >> 4) as usize) * 4
    }

    /// Raw flag byte.
    #[inline]
    pub fn flags(&self) -> u8 {
        self.data[13]
    }

    /// Receive window.
    #[inline]
    pub fn window(&self) -> u16 {
        u16::from_be_bytes([self.data[14], self.data[15]])
    }

    /// The segment payload.
    #[inline]
    pub fn payload(&self) -> &'a [u8] {
        &self.data[self.header_len()..]
    }
}

/// A view over a UDP datagram.
#[derive(Debug, Clone, Copy)]
pub struct UdpView<'a> {
    data: &'a [u8],
}

impl<'a> UdpView<'a> {
    /// Wrap `data`, validating the length field.
    #[inline]
    pub fn new(data: &'a [u8]) -> Result<Self, DecodeError> {
        if data.len() < 8 {
            return Err(DecodeError::Truncated {
                layer: "udp",
                needed: 8,
                available: data.len(),
            });
        }
        let view = UdpView { data };
        let len = view.len() as usize;
        if len < 8 || len > data.len() {
            return Err(DecodeError::BadLength { layer: "udp" });
        }
        Ok(view)
    }

    /// Source port.
    #[inline]
    pub fn src_port(&self) -> u16 {
        u16::from_be_bytes([self.data[0], self.data[1]])
    }

    /// Destination port.
    #[inline]
    pub fn dst_port(&self) -> u16 {
        u16::from_be_bytes([self.data[2], self.data[3]])
    }

    /// Datagram length (header + payload).
    #[inline]
    pub fn len(&self) -> u16 {
        u16::from_be_bytes([self.data[4], self.data[5]])
    }

    /// Whether the datagram carries no payload.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 8
    }

    /// The datagram payload (bounded by the length field).
    #[inline]
    pub fn payload(&self) -> &'a [u8] {
        &self.data[8..self.len() as usize]
    }
}

/// A view over an echo-style ICMP message.
#[derive(Debug, Clone, Copy)]
pub struct IcmpView<'a> {
    data: &'a [u8],
}

impl<'a> IcmpView<'a> {
    /// Wrap `data`, checking the fixed header is present.
    #[inline]
    pub fn new(data: &'a [u8]) -> Result<Self, DecodeError> {
        if data.len() < 8 {
            return Err(DecodeError::Truncated {
                layer: "icmp",
                needed: 8,
                available: data.len(),
            });
        }
        Ok(IcmpView { data })
    }

    /// ICMP type.
    #[inline]
    pub fn icmp_type(&self) -> u8 {
        self.data[0]
    }

    /// ICMP code.
    #[inline]
    pub fn code(&self) -> u8 {
        self.data[1]
    }

    /// Echo identifier.
    #[inline]
    pub fn ident(&self) -> u16 {
        u16::from_be_bytes([self.data[4], self.data[5]])
    }

    /// Echo sequence number.
    #[inline]
    pub fn seq(&self) -> u16 {
        u16::from_be_bytes([self.data[6], self.data[7]])
    }

    /// The message payload.
    #[inline]
    pub fn payload(&self) -> &'a [u8] {
        &self.data[8..]
    }
}

/// The fixed-offset DNS header fields a PISA parser can read off a
/// UDP port-53 payload: `(QR bit, ANCOUNT)`. `None` when `msg` is
/// shorter than the 12-byte header. Nothing after the header is
/// looked at, so a body that does not parse still has these.
#[inline]
pub fn dns_header_fields(msg: &[u8]) -> Option<(u64, u64)> {
    (msg.len() >= 12).then(|| {
        let ancount = u16::from_be_bytes([msg[6], msg[7]]);
        (((msg[2] >> 7) & 1) as u64, ancount as u64)
    })
}

/// The first question's QTYPE, found by walking the uncompressed
/// labels that follow the header (bounded, as a parser's loop is).
#[inline]
pub fn dns_first_qtype(msg: &[u8]) -> Option<u64> {
    let mut pos = 12usize;
    let mut hops = 0;
    while pos < msg.len() && msg[pos] != 0 && hops < 32 {
        pos += 1 + msg[pos] as usize;
        hops += 1;
    }
    (pos + 2 < msg.len() && msg[pos] == 0)
        .then(|| u16::from_be_bytes([msg[pos + 1], msg[pos + 2]]) as u64)
}

/// Bit set of `fields` for [`extract_fields`]: `Field` has < 32
/// variants, so membership is one bit test instead of a slice scan.
pub fn field_mask(fields: &[Field]) -> u32 {
    fields.iter().fold(0, |m, &f| m | 1 << f as u32)
}

/// [`field_mask`] of every field.
pub const ALL_FIELDS: u32 = (1 << Field::ALL.len()) - 1;

/// [`field_mask`] of the fields [`extract_fields`] never hands out:
/// they need the DNS body or the payload itself, so whoever reads them
/// keeps the packet's bytes.
pub const LAZY_FIELDS: u32 =
    1 << Field::DnsRrName as u32 | 1 << Field::DnsAnswerIp as u32 | 1 << Field::Payload as u32;

/// Walk the parse graph over raw wire bytes — IPv4 → {TCP, UDP (→ DNS
/// header bits), ICMP} — handing every field of `want` the packet
/// actually carries to `sink`. A layer that fails to parse yields
/// nothing, so its fields keep whatever "unset" means to the sink
/// (an invalid zero slot in a PHV, a pre-zeroed lane in a column
/// block). This is the only place header offsets are interpreted:
/// the switch's per-packet PHV parse, its batch column extraction and
/// the stream side's packet columns are the same walk with three
/// sinks, so they cannot disagree on a value. Returns whether every
/// layer parsed — exactly whether [`crate::Packet::decode`] accepts
/// `bytes`.
#[inline]
pub fn extract_fields(bytes: &[u8], want: u32, mut sink: impl FnMut(Field, u64)) -> bool {
    let mut put = |f: Field, v: u64| {
        if want & (1 << f as u32) != 0 {
            sink(f, v);
        }
    };
    let Ok(ip) = Ipv4View::new(bytes) else {
        return false;
    };
    put(Field::Ipv4Src, ip.src() as u64);
    put(Field::Ipv4Dst, ip.dst() as u64);
    put(Field::Ipv4Proto, ip.protocol().to_wire() as u64);
    put(Field::Ipv4Len, ip.total_len() as u64);
    put(Field::Ipv4Ttl, ip.ttl() as u64);
    put(Field::PktLen, bytes.len() as u64);
    let l4 = ip.payload();
    match ip.protocol() {
        IpProtocol::Tcp => {
            let Ok(tcp) = TcpView::new(l4) else {
                return false;
            };
            put(Field::TcpSrcPort, tcp.src_port() as u64);
            put(Field::TcpDstPort, tcp.dst_port() as u64);
            put(Field::TcpFlags, tcp.flags() as u64);
            put(Field::TcpSeq, tcp.seq() as u64);
            put(Field::TcpAck, tcp.ack() as u64);
            put(Field::PayloadLen, tcp.payload().len() as u64);
        }
        IpProtocol::Udp => {
            let Ok(udp) = UdpView::new(l4) else {
                return false;
            };
            put(Field::UdpSrcPort, udp.src_port() as u64);
            put(Field::UdpDstPort, udp.dst_port() as u64);
            put(Field::PayloadLen, udp.payload().len() as u64);
            // Fixed-offset DNS header fields are parseable in the
            // data plane (the variable-length name is not).
            let dns = udp.payload();
            if udp.dst_port() == 53 || udp.src_port() == 53 {
                if let Some((qr, ancount)) = dns_header_fields(dns) {
                    put(Field::DnsQr, qr);
                    put(Field::DnsAnCount, ancount);
                    if want & (1 << Field::DnsQType as u32) != 0 {
                        if let Some(qtype) = dns_first_qtype(dns) {
                            put(Field::DnsQType, qtype);
                        }
                    }
                }
            }
        }
        IpProtocol::Icmp => {
            if !l4.is_empty() {
                put(Field::IcmpType, l4[0] as u64);
            }
            if l4.len() < 8 {
                return false;
            }
            put(Field::PayloadLen, (l4.len() - 8) as u64);
        }
        _ => put(Field::PayloadLen, l4.len() as u64),
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::headers::*;

    fn sample_ipv4_tcp() -> Vec<u8> {
        let ip = Ipv4Header::new(0x0a000001, 0x0a000002, IpProtocol::Tcp);
        let mut tcp = TcpHeader::new(1234, 80);
        tcp.flags = TcpFlags::SYN;
        tcp.seq = 42;
        let payload = b"hello";
        let total = (Ipv4Header::SIZE + TcpHeader::SIZE + payload.len()) as u16;
        let mut buf = Vec::new();
        ip.emit(&mut buf, total);
        tcp.emit(&mut buf, ip.src, ip.dst, payload);
        buf.extend_from_slice(payload);
        buf
    }

    #[test]
    fn ipv4_view_fields() {
        let buf = sample_ipv4_tcp();
        let v = Ipv4View::new(&buf).unwrap();
        assert_eq!(v.src(), 0x0a000001);
        assert_eq!(v.dst(), 0x0a000002);
        assert_eq!(v.protocol(), IpProtocol::Tcp);
        assert_eq!(v.ttl(), 64);
        assert_eq!(v.header_len(), 20);
        assert_eq!(v.total_len() as usize, buf.len());
        assert!(v.checksum_ok());
    }

    #[test]
    fn tcp_view_fields() {
        let buf = sample_ipv4_tcp();
        let ip = Ipv4View::new(&buf).unwrap();
        let tcp = TcpView::new(ip.payload()).unwrap();
        assert_eq!(tcp.src_port(), 1234);
        assert_eq!(tcp.dst_port(), 80);
        assert_eq!(tcp.seq(), 42);
        assert_eq!(tcp.flags(), 0x02);
        assert_eq!(tcp.payload(), b"hello");
    }

    #[test]
    fn truncated_buffers_rejected() {
        let buf = sample_ipv4_tcp();
        assert!(matches!(
            Ipv4View::new(&buf[..10]),
            Err(DecodeError::Truncated { .. })
        ));
        assert!(matches!(
            TcpView::new(&buf[20..30]),
            Err(DecodeError::Truncated { .. })
        ));
        assert!(matches!(
            UdpView::new(&buf[20..24]),
            Err(DecodeError::Truncated { .. })
        ));
        assert!(matches!(
            EthernetView::new(&buf[..5]),
            Err(DecodeError::Truncated { .. })
        ));
        assert!(matches!(
            IcmpView::new(&buf[..4]),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = sample_ipv4_tcp();
        buf[0] = 0x65; // version 6
        assert!(matches!(
            Ipv4View::new(&buf),
            Err(DecodeError::Unsupported { .. })
        ));
    }

    #[test]
    fn bad_total_len_rejected() {
        let mut buf = sample_ipv4_tcp();
        // total_len larger than the buffer
        buf[2] = 0xff;
        buf[3] = 0xff;
        assert!(matches!(
            Ipv4View::new(&buf),
            Err(DecodeError::BadLength { .. })
        ));
        // total_len smaller than the header
        let mut buf2 = sample_ipv4_tcp();
        buf2[2] = 0;
        buf2[3] = 8;
        assert!(matches!(
            Ipv4View::new(&buf2),
            Err(DecodeError::BadLength { .. })
        ));
    }

    #[test]
    fn udp_view_roundtrip() {
        let udp = UdpHeader {
            src_port: 5353,
            dst_port: 53,
        };
        let payload = [9u8; 11];
        let mut buf = Vec::new();
        udp.emit(&mut buf, 1, 2, &payload);
        buf.extend_from_slice(&payload);
        let v = UdpView::new(&buf).unwrap();
        assert_eq!(v.src_port(), 5353);
        assert_eq!(v.dst_port(), 53);
        assert_eq!(v.len() as usize, buf.len());
        assert!(!v.is_empty());
        assert_eq!(v.payload(), &payload);
    }

    #[test]
    fn udp_length_field_bounds_payload() {
        let udp = UdpHeader {
            src_port: 1,
            dst_port: 2,
        };
        let payload = [7u8; 4];
        let mut buf = Vec::new();
        udp.emit(&mut buf, 1, 2, &payload);
        buf.extend_from_slice(&payload);
        // Trailing garbage beyond the UDP length must not leak into payload().
        buf.extend_from_slice(&[0xde, 0xad]);
        let v = UdpView::new(&buf).unwrap();
        assert_eq!(v.payload(), &payload);
    }

    #[test]
    fn ethernet_view_fields() {
        let eth = EthernetHeader::ipv4_default();
        let mut buf = Vec::new();
        eth.emit(&mut buf);
        buf.extend_from_slice(&[1, 2, 3]);
        let v = EthernetView::new(&buf).unwrap();
        assert_eq!(v.dst(), eth.dst);
        assert_eq!(v.src(), eth.src);
        assert_eq!(v.ethertype(), EtherType::Ipv4);
        assert_eq!(v.payload(), &[1, 2, 3]);
    }

    #[test]
    fn icmp_view_fields() {
        let icmp = IcmpHeader {
            icmp_type: 8,
            code: 0,
            ident: 7,
            seq: 9,
        };
        let mut buf = Vec::new();
        icmp.emit(&mut buf, b"ping");
        buf.extend_from_slice(b"ping");
        let v = IcmpView::new(&buf).unwrap();
        assert_eq!(v.icmp_type(), 8);
        assert_eq!(v.ident(), 7);
        assert_eq!(v.seq(), 9);
        assert_eq!(v.payload(), b"ping");
    }
}
