//! Property-based tests: every packet the builder can construct must
//! encode to bytes that decode back to an equivalent packet, and the
//! checksums of emitted headers must verify.

use proptest::prelude::*;
use sonata_packet::wire::{Ipv4View, TcpView, UdpView};
use sonata_packet::{
    dns::{DnsQType, DnsRecord},
    DnsHeader, Field, Packet, PacketBuilder, TcpFlags, Value,
};

fn arb_flags() -> impl Strategy<Value = TcpFlags> {
    (0u8..=0x3f).prop_map(TcpFlags)
}

fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..512)
}

fn arb_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9]{1,20}").unwrap()
}

fn arb_name() -> impl Strategy<Value = String> {
    proptest::collection::vec(arb_label(), 1..6).prop_map(|labels| labels.join("."))
}

/// Packets that decode but are not what a well-behaved sender emits:
/// port-53 datagrams whose DNS body is cut short, padded with junk or
/// lies about its counts, ICMP with and without a full header, opaque
/// protocols. Returned as wire bytes.
fn arb_odd_packet() -> impl Strategy<Value = Vec<u8>> {
    let dns = (arb_name(), any::<bool>(), 0usize..4, any::<u32>()).prop_map(
        |(name, response, answers, rdata)| {
            let records = (0..answers).map(|_| DnsRecord {
                name: name.clone(),
                rtype: DnsQType::A,
                ttl: 30,
                rdata: rdata.to_be_bytes().to_vec(),
            });
            let msg = if response {
                DnsHeader::response(9, &name, DnsQType::A, records.collect())
            } else {
                DnsHeader::query(9, &name, DnsQType::Txt)
            };
            let mut body = Vec::new();
            msg.emit(&mut body);
            body
        },
    );
    // (cut the body to, overwrite QDCOUNT/ANCOUNT with, junk appended)
    let counts = prop_oneof![Just(None), any::<u32>().prop_map(Some)];
    let mangle = (0usize..80, counts, arb_payload());
    let odd_dns = (dns, mangle, any::<bool>(), any::<bool>()).prop_map(
        |(mut body, (cut, counts, junk), from_server, add_junk)| {
            body.truncate(cut.max(1).min(body.len()));
            if let (Some(c), true) = (counts, body.len() >= 8) {
                body[4..8].copy_from_slice(&c.to_be_bytes());
            }
            if add_junk {
                body.extend_from_slice(&junk[..junk.len().min(40)]);
            }
            let (sport, dport) = if from_server { (53, 4444) } else { (4444, 53) };
            PacketBuilder::udp_raw(1, sport, 2, dport)
                .payload(body)
                .build()
                .encode()
        },
    );
    let icmp = (0usize..24, arb_payload()).prop_map(|(l4_len, payload)| {
        let mut bytes = PacketBuilder::icmp_raw(3, 4)
            .payload(payload)
            .build()
            .encode();
        // Possibly short of the 8-byte ICMP header: keep `l4_len`
        // bytes after the IPv4 header and say so in its length field.
        let len = (20 + l4_len).min(bytes.len());
        bytes.truncate(len);
        bytes[2..4].copy_from_slice(&(len as u16).to_be_bytes());
        bytes
    });
    let opaque = (any::<u8>(), arb_payload()).prop_map(|(proto, payload)| {
        let mut pkt = PacketBuilder::tcp_raw(5, 6, 7, 8).payload(payload).build();
        pkt.ipv4.protocol = sonata_packet::IpProtocol::from_wire(proto);
        pkt.transport = match pkt.ipv4.protocol {
            sonata_packet::IpProtocol::Other(_) => sonata_packet::Transport::Opaque,
            _ => return PacketBuilder::udp_raw(5, 53, 7, 53).build().encode(),
        };
        pkt.encode()
    });
    prop_oneof![odd_dns, icmp, opaque]
}

proptest! {
    #[test]
    fn the_parse_graph_walk_and_packet_get_read_one_value(bytes in arb_odd_packet()) {
        let mut parsed = std::collections::BTreeMap::new();
        let walked = sonata_packet::wire::extract_fields(&bytes, u32::MAX, |f, v| {
            parsed.insert(f, v);
        });
        let decoded = Packet::decode(&bytes);
        // The walk accepts exactly what `decode` accepts.
        prop_assert_eq!(walked, decoded.is_ok());
        let Ok(pkt) = decoded else { return Ok(()); };
        for &f in Field::ALL.iter().filter(|f| f.switch_parseable()) {
            let got = pkt.get(f).and_then(|v| v.as_u64()).unwrap_or(0);
            prop_assert_eq!(parsed.get(&f).copied().unwrap_or(0), got, "{}", f);
        }
    }

    #[test]
    fn tcp_encode_decode_roundtrip(
        sip in any::<u32>(), dip in any::<u32>(),
        sport in any::<u16>(), dport in any::<u16>(),
        seq in any::<u32>(), flags in arb_flags(),
        payload in arb_payload(),
    ) {
        let pkt = PacketBuilder::tcp_raw(sip, sport, dip, dport)
            .seq(seq)
            .flags(flags)
            .payload(payload.clone())
            .build();
        let bytes = pkt.encode();
        let back = Packet::decode(&bytes).unwrap();
        prop_assert_eq!(back.ipv4.src, sip);
        prop_assert_eq!(back.ipv4.dst, dip);
        prop_assert_eq!(back.get(Field::TcpSrcPort), Some(Value::U64(sport as u64)));
        prop_assert_eq!(back.get(Field::TcpDstPort), Some(Value::U64(dport as u64)));
        prop_assert_eq!(back.get(Field::TcpFlags), Some(Value::U64(flags.0 as u64)));
        prop_assert_eq!(back.get(Field::TcpSeq), Some(Value::U64(seq as u64)));
        prop_assert_eq!(back.payload.as_ref(), &payload[..]);
        // wire views agree and the IP checksum verifies
        let ip = Ipv4View::new(&bytes).unwrap();
        prop_assert!(ip.checksum_ok());
        let tcp = TcpView::new(ip.payload()).unwrap();
        prop_assert_eq!(tcp.payload(), &payload[..]);
    }

    #[test]
    fn udp_encode_decode_roundtrip(
        sip in any::<u32>(), dip in any::<u32>(),
        sport in 1u16.., dport in 1u16..,
        payload in arb_payload(),
    ) {
        // Avoid port 53 so the DNS parser stays out of the way.
        prop_assume!(sport != 53 && dport != 53);
        let pkt = PacketBuilder::udp_raw(sip, sport, dip, dport)
            .payload(payload.clone())
            .build();
        let bytes = pkt.encode();
        let back = Packet::decode(&bytes).unwrap();
        prop_assert_eq!(back.get(Field::UdpSrcPort), Some(Value::U64(sport as u64)));
        prop_assert_eq!(back.get(Field::UdpDstPort), Some(Value::U64(dport as u64)));
        prop_assert_eq!(back.payload.as_ref(), &payload[..]);
        let ip = Ipv4View::new(&bytes).unwrap();
        let udp = UdpView::new(ip.payload()).unwrap();
        prop_assert_eq!(udp.payload(), &payload[..]);
    }

    #[test]
    fn dns_message_roundtrip(
        id in any::<u16>(),
        name in arb_name(),
        qtype in prop_oneof![
            Just(DnsQType::A), Just(DnsQType::Txt), Just(DnsQType::Any),
            (0u16..1000).prop_map(DnsQType::from_wire),
        ],
        answers in proptest::collection::vec(
            (arb_name(), proptest::collection::vec(any::<u8>(), 0..64)),
            0..5,
        ),
    ) {
        let records: Vec<DnsRecord> = answers
            .into_iter()
            .map(|(name, rdata)| DnsRecord { name, rtype: DnsQType::A, ttl: 60, rdata })
            .collect();
        let msg = DnsHeader::response(id, &name, qtype, records);
        let mut buf = Vec::new();
        msg.emit(&mut buf);
        prop_assert_eq!(buf.len(), msg.wire_len());
        let back = DnsHeader::decode(&buf).unwrap();
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn dns_in_udp_roundtrip(sip in any::<u32>(), dip in any::<u32>(), name in arb_name()) {
        let msg = DnsHeader::query(1, &name, DnsQType::Txt);
        let pkt = PacketBuilder::dns(sip, dip, msg).build();
        let back = Packet::decode(&pkt.encode()).unwrap();
        prop_assert_eq!(
            back.get(Field::DnsRrName),
            Some(Value::Text(name.as_str().into()))
        );
    }

    #[test]
    fn decode_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Packet::decode(&data);
        let _ = Packet::decode_ethernet(&data);
        let _ = DnsHeader::decode(&data);
    }

    #[test]
    fn mask_is_monotone_and_idempotent(v in any::<u32>(), a in 0u8..=32, b in 0u8..=32) {
        let val = Value::U64(v as u64);
        let (coarse, fine) = if a <= b { (a, b) } else { (b, a) };
        // Masking finer-then-coarser equals masking coarser directly.
        prop_assert_eq!(
            val.mask_to_level(fine).mask_to_level(coarse),
            val.mask_to_level(coarse)
        );
        // Idempotence.
        prop_assert_eq!(
            val.mask_to_level(a).mask_to_level(a),
            val.mask_to_level(a)
        );
    }
}
