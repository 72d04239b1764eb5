//! The reconfigurable parser: extracts a program's `parse_fields` into
//! a PHV, either from raw wire bytes (as hardware would) or from an
//! already-decoded [`Packet`] (the fast path for trace-driven runs).
//! Both paths must agree — a property test in the crate's test suite
//! checks them against each other.

use crate::phv::Phv;
use sonata_packet::wire::{Ipv4View, TcpView, UdpView};
use sonata_packet::{Field, Packet};

/// Parse a decoded packet into a fresh PHV.
///
/// Only `parse_fields` are extracted; everything else reads zero.
/// Fields a PISA parser cannot extract (payload, DNS names) are
/// skipped — the stream processor handles them from the mirrored
/// original packet.
pub fn parse_packet(pkt: &Packet, parse_fields: &[Field], meta_slots: usize, tasks: usize) -> Phv {
    let mut phv = Phv::new(meta_slots, tasks);
    parse_packet_into(&mut phv, pkt, parse_fields, meta_slots, tasks);
    phv
}

/// [`parse_packet`] into a reusable scratch PHV: the buffer is reset
/// in place, so a steady-state packet loop never allocates.
pub fn parse_packet_into(
    phv: &mut Phv,
    pkt: &Packet,
    parse_fields: &[Field],
    meta_slots: usize,
    tasks: usize,
) {
    phv.reset(meta_slots, tasks);
    for &f in parse_fields {
        if !f.switch_parseable() {
            continue;
        }
        if let Some(v) = pkt.get(f) {
            if let Some(u) = v.as_u64() {
                phv.set_field(f, u);
            }
        }
    }
}

/// Parse raw wire bytes (IPv4-first framing) into a fresh PHV, walking
/// the parse graph: IPv4 → {TCP, UDP} (→ DNS header bits).
pub fn parse_bytes(bytes: &[u8], parse_fields: &[Field], meta_slots: usize, tasks: usize) -> Phv {
    let mut phv = Phv::new(meta_slots, tasks);
    parse_bytes_into(&mut phv, bytes, parse_fields, meta_slots, tasks);
    phv
}

/// [`parse_bytes`] into a reusable scratch PHV (reset in place).
pub fn parse_bytes_into(
    phv: &mut Phv,
    bytes: &[u8],
    parse_fields: &[Field],
    meta_slots: usize,
    tasks: usize,
) {
    phv.reset(meta_slots, tasks);
    extract_fields(bytes, field_mask(parse_fields), |f, v| phv.set_field(f, v));
}

/// Bit set of `fields` for [`extract_fields`]: `Field` has < 32
/// variants, so membership is one bit test instead of a slice scan.
pub fn field_mask(fields: &[Field]) -> u32 {
    fields.iter().fold(0, |m, &f| m | 1 << f as u32)
}

/// Walk the parse graph over raw wire bytes — IPv4 → {TCP, UDP (→ DNS
/// header bits), ICMP} — handing every field of `want` the packet
/// actually carries to `sink`. A layer that fails to parse yields
/// nothing, so its fields keep whatever "unset" means to the sink
/// (an invalid zero slot in a PHV, a pre-zeroed lane in a column
/// block). This is the only place header offsets are interpreted:
/// the per-packet PHV parse and the batch column extraction are the
/// same walk with two sinks, so they cannot disagree on a value.
#[inline]
pub fn extract_fields(bytes: &[u8], want: u32, mut sink: impl FnMut(Field, u64)) {
    let mut put = |f: Field, v: u64| {
        if want & (1 << f as u32) != 0 {
            sink(f, v);
        }
    };
    let Ok(ip) = Ipv4View::new(bytes) else {
        return;
    };
    put(Field::Ipv4Src, ip.src() as u64);
    put(Field::Ipv4Dst, ip.dst() as u64);
    put(Field::Ipv4Proto, ip.protocol().to_wire() as u64);
    put(Field::Ipv4Len, ip.total_len() as u64);
    put(Field::Ipv4Ttl, ip.ttl() as u64);
    put(Field::PktLen, bytes.len() as u64);
    let l4 = ip.payload();
    match ip.protocol() {
        sonata_packet::IpProtocol::Tcp => {
            if let Ok(tcp) = TcpView::new(l4) {
                put(Field::TcpSrcPort, tcp.src_port() as u64);
                put(Field::TcpDstPort, tcp.dst_port() as u64);
                put(Field::TcpFlags, tcp.flags() as u64);
                put(Field::TcpSeq, tcp.seq() as u64);
                put(Field::TcpAck, tcp.ack() as u64);
                put(Field::PayloadLen, tcp.payload().len() as u64);
            }
        }
        sonata_packet::IpProtocol::Udp => {
            if let Ok(udp) = UdpView::new(l4) {
                put(Field::UdpSrcPort, udp.src_port() as u64);
                put(Field::UdpDstPort, udp.dst_port() as u64);
                put(Field::PayloadLen, udp.payload().len() as u64);
                // Fixed-offset DNS header fields are parseable in the
                // data plane (the variable-length name is not).
                let dns = udp.payload();
                if (udp.dst_port() == 53 || udp.src_port() == 53) && dns.len() >= 12 {
                    put(Field::DnsQr, ((dns[2] >> 7) & 1) as u64);
                    put(
                        Field::DnsAnCount,
                        u16::from_be_bytes([dns[6], dns[7]]) as u64,
                    );
                    if want & (1 << Field::DnsQType as u32) != 0 {
                        // First question's qtype sits right after its
                        // name; walk labels (bounded).
                        let mut pos = 12usize;
                        let mut hops = 0;
                        while pos < dns.len() && dns[pos] != 0 && hops < 32 {
                            pos += 1 + dns[pos] as usize;
                            hops += 1;
                        }
                        if pos + 2 < dns.len() && dns.get(pos) == Some(&0) {
                            put(
                                Field::DnsQType,
                                u16::from_be_bytes([dns[pos + 1], dns[pos + 2]]) as u64,
                            );
                        }
                    }
                }
            }
        }
        sonata_packet::IpProtocol::Icmp => {
            if !l4.is_empty() {
                put(Field::IcmpType, l4[0] as u64);
            }
            if l4.len() >= 8 {
                put(Field::PayloadLen, (l4.len() - 8) as u64);
            }
        }
        _ => put(Field::PayloadLen, l4.len() as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sonata_packet::{DnsHeader, PacketBuilder, TcpFlags};

    fn all_switch_fields() -> Vec<Field> {
        Field::ALL
            .iter()
            .copied()
            .filter(|f| f.switch_parseable())
            .collect()
    }

    #[test]
    fn bytes_and_packet_paths_agree_tcp() {
        let pkt = PacketBuilder::tcp("10.0.0.1:1234", "192.168.1.5:80")
            .unwrap()
            .flags(TcpFlags::SYN)
            .seq(7)
            .payload(&b"hello"[..])
            .build();
        let fields = all_switch_fields();
        let a = parse_packet(&pkt, &fields, 0, 1);
        let b = parse_bytes(&pkt.encode(), &fields, 0, 1);
        for f in &fields {
            assert_eq!(a.field(*f), b.field(*f), "field {f}");
        }
        assert_eq!(a.field(Field::TcpFlags), 2);
        assert_eq!(a.field(Field::PayloadLen), 5);
    }

    #[test]
    fn bytes_and_packet_paths_agree_dns() {
        let msg = DnsHeader::response(
            1,
            "x.example.com",
            sonata_packet::dns::DnsQType::Txt,
            vec![sonata_packet::DnsRecord {
                name: "x.example.com".into(),
                rtype: sonata_packet::dns::DnsQType::Txt,
                ttl: 1,
                rdata: vec![1, 2, 3],
            }],
        );
        let pkt = PacketBuilder::dns(5, 6, msg).build();
        let fields = all_switch_fields();
        let a = parse_packet(&pkt, &fields, 0, 1);
        let b = parse_bytes(&pkt.encode(), &fields, 0, 1);
        for f in &fields {
            assert_eq!(a.field(*f), b.field(*f), "field {f}");
        }
        assert_eq!(a.field(Field::DnsQr), 1);
        assert_eq!(a.field(Field::DnsAnCount), 1);
        assert_eq!(a.field(Field::DnsQType), 16);
    }

    #[test]
    fn only_requested_fields_are_parsed() {
        let pkt = PacketBuilder::tcp("1.2.3.4:1:", "5.6.7.8:9");
        assert!(pkt.is_none());
        let pkt = PacketBuilder::tcp("1.2.3.4:1", "5.6.7.8:9")
            .unwrap()
            .build();
        let phv = parse_packet(&pkt, &[Field::Ipv4Dst], 0, 1);
        assert!(phv.field_valid(Field::Ipv4Dst));
        assert!(!phv.field_valid(Field::Ipv4Src));
        assert_eq!(phv.field(Field::TcpSrcPort), 0);
    }

    #[test]
    fn unparseable_fields_skipped() {
        let pkt = PacketBuilder::tcp("1.2.3.4:1", "5.6.7.8:9")
            .unwrap()
            .payload(&b"zorro"[..])
            .build();
        let phv = parse_packet(&pkt, &[Field::Payload, Field::DnsRrName], 0, 1);
        assert!(!phv.field_valid(Field::Payload));
        assert!(!phv.field_valid(Field::DnsRrName));
    }

    #[test]
    fn garbage_bytes_yield_empty_phv() {
        let phv = parse_bytes(&[0xde, 0xad], &all_switch_fields(), 0, 1);
        for f in Field::ALL {
            assert!(!phv.field_valid(*f));
        }
    }

    #[test]
    fn extract_fields_honours_the_want_mask() {
        let pkt = PacketBuilder::tcp("10.0.0.1:1234", "192.168.1.5:80")
            .unwrap()
            .flags(TcpFlags::SYN)
            .build();
        let mut got = Vec::new();
        extract_fields(
            &pkt.encode(),
            field_mask(&[Field::TcpFlags, Field::Ipv4Dst, Field::UdpSrcPort]),
            |f, v| got.push((f, v)),
        );
        // Only wanted fields the packet carries, in parse-graph order.
        assert_eq!(
            got,
            vec![(Field::Ipv4Dst, 0xc0a8_0105), (Field::TcpFlags, 2)]
        );
        // Garbage yields nothing at all.
        extract_fields(&[0xde, 0xad], u32::MAX, |f, _| panic!("parsed {f}"));
    }
}
