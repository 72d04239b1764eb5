//! The reconfigurable parser: extracts a program's `parse_fields` from
//! a packet's wire bytes (IPv4-first framing), as hardware would. The
//! batch kernels run [`extract_fields`] straight into their column
//! block; [`parse_bytes`] fills one PHV for the reference interpreter.

use crate::phv::Phv;
pub use sonata_packet::wire::{extract_fields, field_mask};
use sonata_packet::Field;

/// Parse raw wire bytes into a fresh PHV, walking the parse graph:
/// IPv4 → {TCP, UDP} (→ DNS header bits).
///
/// Only `parse_fields` are extracted; everything else — including a
/// header the bytes are too short to hold — reads zero. Fields a PISA
/// parser cannot extract (payload, DNS names) are skipped: the stream
/// processor reads them from the mirrored original packet.
pub fn parse_bytes(bytes: &[u8], parse_fields: &[Field], meta_slots: usize, tasks: usize) -> Phv {
    let mut phv = Phv::new(meta_slots, tasks);
    extract_fields(bytes, field_mask(parse_fields), |f, v| phv.set_field(f, v));
    phv
}

#[cfg(test)]
mod tests {
    use super::*;
    use sonata_packet::{DnsHeader, Packet, PacketBuilder, TcpFlags};

    fn all_switch_fields() -> Vec<Field> {
        Field::ALL
            .iter()
            .copied()
            .filter(|f| f.switch_parseable())
            .collect()
    }

    /// Every switch field parsed from the wire equals the decoded
    /// packet's value (zero where the packet has none).
    fn assert_parse_matches_decode(pkt: &Packet) -> Phv {
        let fields = all_switch_fields();
        let phv = parse_bytes(&pkt.encode(), &fields, 0, 1);
        for f in &fields {
            let decoded = pkt.get(*f).and_then(|v| v.as_u64()).unwrap_or(0);
            assert_eq!(phv.field(*f), decoded, "field {f}");
        }
        phv
    }

    #[test]
    fn wire_parse_agrees_with_decode_tcp() {
        let pkt = PacketBuilder::tcp("10.0.0.1:1234", "192.168.1.5:80")
            .unwrap()
            .flags(TcpFlags::SYN)
            .seq(7)
            .payload(&b"hello"[..])
            .build();
        let a = assert_parse_matches_decode(&pkt);
        assert_eq!(a.field(Field::TcpFlags), 2);
        assert_eq!(a.field(Field::PayloadLen), 5);
    }

    #[test]
    fn wire_parse_agrees_with_decode_dns() {
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
        let a = assert_parse_matches_decode(&pkt);
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
        let phv = parse_bytes(&pkt.encode(), &[Field::Ipv4Dst], 0, 1);
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
        let phv = parse_bytes(&pkt.encode(), &[Field::Payload, Field::DnsRrName], 0, 1);
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
