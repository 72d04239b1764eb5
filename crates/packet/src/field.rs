//! The field model: the closed set of packet fields Sonata queries can
//! reference, their bit widths, and the dynamic [`Value`] type.
//!
//! Fields are the contract between the query language (which names
//! fields in predicates and projections), the PISA parser (which must
//! budget PHV bits per extracted field), and the stream processor
//! (which receives field values inside tuples).

use std::fmt;
use std::sync::Arc;

/// A packet field addressable from a Sonata query.
///
/// The set mirrors the fields used by the eleven queries in Table 3 of
/// the paper: IPv4 and transport headers, a few DNS fields for the DNS
/// tunneling / reflection queries, and payload-derived pseudo-fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Field {
    /// IPv4 source address (32 bits).
    Ipv4Src,
    /// IPv4 destination address (32 bits).
    Ipv4Dst,
    /// IPv4 protocol number (8 bits).
    Ipv4Proto,
    /// IPv4 total length (16 bits).
    Ipv4Len,
    /// IPv4 time-to-live (8 bits).
    Ipv4Ttl,
    /// TCP source port (16 bits).
    TcpSrcPort,
    /// TCP destination port (16 bits).
    TcpDstPort,
    /// TCP flags (8 bits; SYN = 0x02 as used by Query 1).
    TcpFlags,
    /// TCP sequence number (32 bits).
    TcpSeq,
    /// TCP acknowledgement number (32 bits).
    TcpAck,
    /// UDP source port (16 bits).
    UdpSrcPort,
    /// UDP destination port (16 bits).
    UdpDstPort,
    /// ICMP type (8 bits).
    IcmpType,
    /// DNS query/response flag (1 bit, taken from the DNS header QR bit).
    DnsQr,
    /// DNS query type of the first question (16 bits).
    DnsQType,
    /// DNS answer record count (16 bits).
    DnsAnCount,
    /// DNS resource-record name of the first question (variable width;
    /// hierarchical — usable as a refinement key, levels = label count).
    DnsRrName,
    /// First A-record address in the answer section (32 bits).
    /// Extracting it requires walking compressed names, which PISA
    /// parsers cannot do — stream-processor only.
    DnsAnswerIp,
    /// Total packet length on the wire (16 bits). The paper's `p.pktlen`.
    PktLen,
    /// Payload length in bytes (16 bits). The paper's `p.nBytes`.
    PayloadLen,
    /// The raw payload (variable width; only parseable at the stream
    /// processor — PISA switches cannot parse payloads).
    Payload,
}

/// The width of a field in bits, used for PHV/metadata budgeting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldWidth {
    /// A fixed number of bits.
    Bits(u32),
    /// Variable width (DNS names, payloads); cannot live in a PHV.
    Variable,
}

impl FieldWidth {
    /// Fixed width in bits, or `None` for variable-width fields.
    pub fn fixed(self) -> Option<u32> {
        match self {
            FieldWidth::Bits(b) => Some(b),
            FieldWidth::Variable => None,
        }
    }
}

impl Field {
    /// All fields, in a stable order.
    pub const ALL: &'static [Field] = &[
        Field::Ipv4Src,
        Field::Ipv4Dst,
        Field::Ipv4Proto,
        Field::Ipv4Len,
        Field::Ipv4Ttl,
        Field::TcpSrcPort,
        Field::TcpDstPort,
        Field::TcpFlags,
        Field::TcpSeq,
        Field::TcpAck,
        Field::UdpSrcPort,
        Field::UdpDstPort,
        Field::IcmpType,
        Field::DnsQr,
        Field::DnsQType,
        Field::DnsAnCount,
        Field::DnsRrName,
        Field::DnsAnswerIp,
        Field::PktLen,
        Field::PayloadLen,
        Field::Payload,
    ];

    /// The width of this field in bits.
    pub fn width(self) -> FieldWidth {
        use Field::*;
        match self {
            Ipv4Src | Ipv4Dst | TcpSeq | TcpAck | DnsAnswerIp => FieldWidth::Bits(32),
            Ipv4Len | TcpSrcPort | TcpDstPort | UdpSrcPort | UdpDstPort | DnsQType | DnsAnCount
            | PktLen | PayloadLen => FieldWidth::Bits(16),
            Ipv4Proto | Ipv4Ttl | TcpFlags | IcmpType => FieldWidth::Bits(8),
            DnsQr => FieldWidth::Bits(1),
            DnsRrName | Payload => FieldWidth::Variable,
        }
    }

    /// Whether the PISA switch parser can extract this field into the
    /// packet header vector. Payloads and DNS names require the stream
    /// processor (Section 2.1 of the paper: "sophisticated parsing").
    pub fn switch_parseable(self) -> bool {
        !matches!(self, Field::Payload | Field::DnsRrName | Field::DnsAnswerIp)
    }

    /// Whether the field has a hierarchical structure usable for
    /// dynamic query refinement (Section 4.1).
    ///
    /// IPv4 addresses refine by prefix length (levels 1..=32); DNS
    /// names refine by label depth.
    pub fn is_hierarchical(self) -> bool {
        matches!(self, Field::Ipv4Src | Field::Ipv4Dst | Field::DnsRrName)
    }

    /// The finest refinement level for a hierarchical field: 32 for an
    /// IPv4 prefix (/32), and a nominal maximum label depth of 8 for
    /// DNS names.
    pub fn finest_refinement_level(self) -> Option<u8> {
        match self {
            Field::Ipv4Src | Field::Ipv4Dst => Some(32),
            Field::DnsRrName => Some(8),
            _ => None,
        }
    }

    /// Short stable name used in generated P4-IR code and reports.
    pub fn name(self) -> &'static str {
        use Field::*;
        match self {
            Ipv4Src => "ipv4.sIP",
            Ipv4Dst => "ipv4.dIP",
            Ipv4Proto => "ipv4.proto",
            Ipv4Len => "ipv4.len",
            Ipv4Ttl => "ipv4.ttl",
            TcpSrcPort => "tcp.sPort",
            TcpDstPort => "tcp.dPort",
            TcpFlags => "tcp.flags",
            TcpSeq => "tcp.seq",
            TcpAck => "tcp.ack",
            UdpSrcPort => "udp.sPort",
            UdpDstPort => "udp.dPort",
            IcmpType => "icmp.type",
            DnsQr => "dns.qr",
            DnsQType => "dns.qtype",
            DnsAnCount => "dns.ancount",
            DnsRrName => "dns.rr.name",
            DnsAnswerIp => "dns.answer.ip",
            PktLen => "pkt.len",
            PayloadLen => "pkt.nBytes",
            Payload => "pkt.payload",
        }
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A dynamically typed field value carried in tuples.
///
/// Scalar header fields are `U64`; DNS names and payload slices are
/// `Text`/`Bytes`. `Value` implements `Ord` so it can key BTree-based
/// state and sort deterministically in reports.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// An unsigned scalar (all fixed-width header fields).
    U64(u64),
    /// A textual value (DNS names).
    Text(Arc<str>),
    /// Raw bytes (payload).
    Bytes(Arc<[u8]>),
}

impl Value {
    /// The scalar value, if this is a `U64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The textual value, if this is `Text`.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// The raw bytes, if this is `Bytes`.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Size of the value in bits when stored in switch metadata or a
    /// report packet. Variable-size values count their current length.
    pub fn width_bits(&self) -> u32 {
        match self {
            Value::U64(_) => 64,
            Value::Text(s) => (s.len() as u32) * 8,
            Value::Bytes(b) => (b.len() as u32) * 8,
        }
    }

    /// Apply an IPv4-style prefix mask: keep the top `prefix_len` bits
    /// of a 32-bit value. For `Text` values (DNS names), keep the last
    /// `prefix_len` labels (the DNS hierarchy grows right-to-left).
    pub fn mask_to_level(&self, prefix_len: u8) -> Value {
        match self {
            Value::U64(v) => Value::U64(mask_ipv4(*v, prefix_len)),
            Value::Text(s) => {
                let labels: Vec<&str> = s.split('.').filter(|l| !l.is_empty()).collect();
                let keep = (prefix_len as usize).min(labels.len());
                let start = labels.len() - keep;
                Value::Text(labels[start..].join(".").into())
            }
            Value::Bytes(_) => self.clone(),
        }
    }
}

/// Keep the top `prefix_len` bits of a 32-bit value (an IPv4 prefix
/// mask; nothing above bit 31 survives).
#[inline]
pub fn mask_ipv4(v: u64, prefix_len: u8) -> u64 {
    let mask = if prefix_len == 0 {
        0
    } else if prefix_len >= 32 {
        u32::MAX
    } else {
        u32::MAX << (32 - prefix_len as u32)
    };
    v & mask as u64
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "{s}"),
            Value::Bytes(b) => {
                for byte in b.iter().take(16) {
                    write!(f, "{byte:02x}")?;
                }
                if b.len() > 16 {
                    write!(f, "…")?;
                }
                Ok(())
            }
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.into())
    }
}

/// Render a `U64` value that holds an IPv4 address as dotted quad.
pub fn format_ipv4(v: u64) -> String {
    let v = v as u32;
    format!(
        "{}.{}.{}.{}",
        (v >> 24) & 0xff,
        (v >> 16) & 0xff,
        (v >> 8) & 0xff,
        v & 0xff
    )
}

/// Parse a dotted-quad IPv4 address into its u32 value.
pub fn parse_ipv4(s: &str) -> Option<u32> {
    let mut parts = s.split('.');
    let mut out: u32 = 0;
    for _ in 0..4 {
        let octet: u32 = parts.next()?.parse().ok()?;
        if octet > 255 {
            return None;
        }
        out = (out << 8) | octet;
    }
    if parts.next().is_some() {
        return None;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_match_wire_sizes() {
        assert_eq!(Field::Ipv4Src.width(), FieldWidth::Bits(32));
        assert_eq!(Field::TcpFlags.width(), FieldWidth::Bits(8));
        assert_eq!(Field::Payload.width(), FieldWidth::Variable);
        assert_eq!(FieldWidth::Bits(16).fixed(), Some(16));
        assert_eq!(FieldWidth::Variable.fixed(), None);
    }

    #[test]
    fn payload_not_switch_parseable() {
        assert!(!Field::Payload.switch_parseable());
        assert!(!Field::DnsRrName.switch_parseable());
        assert!(Field::Ipv4Dst.switch_parseable());
        assert!(Field::DnsQType.switch_parseable());
    }

    #[test]
    fn hierarchical_fields() {
        assert!(Field::Ipv4Dst.is_hierarchical());
        assert!(Field::DnsRrName.is_hierarchical());
        assert!(!Field::TcpFlags.is_hierarchical());
        assert_eq!(Field::Ipv4Dst.finest_refinement_level(), Some(32));
        assert_eq!(Field::TcpFlags.finest_refinement_level(), None);
    }

    #[test]
    fn ipv4_mask_levels() {
        let v = Value::U64(0x0a0b0c0d);
        assert_eq!(v.mask_to_level(32), Value::U64(0x0a0b0c0d));
        assert_eq!(v.mask_to_level(24), Value::U64(0x0a0b0c00));
        assert_eq!(v.mask_to_level(16), Value::U64(0x0a0b0000));
        assert_eq!(v.mask_to_level(8), Value::U64(0x0a000000));
        assert_eq!(v.mask_to_level(0), Value::U64(0));
    }

    #[test]
    fn dns_name_mask_levels() {
        let v = Value::Text("mail.corp.example.com".into());
        assert_eq!(v.mask_to_level(2).as_text(), Some("example.com"));
        assert_eq!(v.mask_to_level(1).as_text(), Some("com"));
        assert_eq!(v.mask_to_level(8).as_text(), Some("mail.corp.example.com"));
        assert_eq!(v.mask_to_level(0).as_text(), Some(""));
    }

    #[test]
    fn ipv4_parse_format_roundtrip() {
        for s in ["0.0.0.0", "255.255.255.255", "10.1.2.3", "192.168.0.1"] {
            let v = parse_ipv4(s).unwrap();
            assert_eq!(format_ipv4(v as u64), s);
        }
        assert_eq!(parse_ipv4("256.0.0.1"), None);
        assert_eq!(parse_ipv4("1.2.3"), None);
        assert_eq!(parse_ipv4("1.2.3.4.5"), None);
        assert_eq!(parse_ipv4("a.b.c.d"), None);
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::U64(7).as_u64(), Some(7));
        assert_eq!(Value::U64(7).as_text(), None);
        assert_eq!(Value::from("x").as_text(), Some("x"));
        let b = Value::Bytes(vec![1, 2, 3].into());
        assert_eq!(b.as_bytes(), Some(&[1u8, 2, 3][..]));
        assert_eq!(b.width_bits(), 24);
    }

    #[test]
    fn all_fields_have_distinct_names() {
        let mut names: Vec<&str> = Field::ALL.iter().map(|f| f.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Field::ALL.len());
    }
}
