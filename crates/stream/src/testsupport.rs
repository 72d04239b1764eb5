//! Shared fixtures for the differential job-pool harness, and the
//! reference interpreter's entry-point fold.
//!
//! Lives in `src/` (not `tests/`) so the crate's unit tests, the
//! integration suites under `crates/stream/tests/`, and the bench
//! binaries all draw the same seeded traffic and use the same
//! equivalence checks: a window's jobs run on the job pool at any
//! worker count must produce byte-identical results to the inline
//! engine, which must in turn agree with the `sonata-query` reference
//! interpreter.

use crate::engine::{JobResult, StreamError};
use crate::window::WindowBatch;
use crate::worker::ShardedEngine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sonata_packet::{DnsHeader, DnsQType, DnsRecord, Packet, PacketArena, PacketBuilder, TcpFlags};
use sonata_query::catalog::Thresholds;
use sonata_query::interpret::{run_operator, run_query, InterpretError};
use sonata_query::{PacketBlock, Query, QueryId, RowRun, Schema, Tuple};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Thresholds low enough that seeded traces trip every catalog query,
/// so differential runs compare non-empty outputs.
pub fn low_thresholds() -> Thresholds {
    Thresholds {
        new_tcp: 2,
        ssh_brute: 2,
        superspreader: 2,
        port_scan: 2,
        ddos: 2,
        syn_flood: 1,
        incomplete_flows: 1,
        slowloris_bytes: 1,
        slowloris_cpkb: 0,
        dns_tunneling: 2,
        zorro_pkts: 2,
        zorro_payloads: 0,
        dns_reflection: 2,
        malicious_domains: 2,
        window_ms: 3_000,
    }
}

/// A deterministic mixed trace: TCP handshakes and teardowns over
/// small IP/port pools (so counts and distinct-cardinalities cross
/// the low thresholds), SSH and telnet payload traffic (queries 2 and
/// 10, including literal `zorro` payloads), and DNS queries plus
/// A-record responses (queries 9, 11, and the fast-flux extension).
pub fn seeded_packets(seed: u64, n: usize) -> Vec<Packet> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pkts = Vec::with_capacity(n);
    let hosts: [u32; 4] = [0x0a00_0001, 0x0a00_0002, 0x0a01_0003, 0x0b00_0004];
    let victims: [u32; 3] = [0xc0a8_0001, 0xc0a8_0002, 0xc0a8_0103];
    let domains = [
        "evil.example.com",
        "cdn.example.net",
        "x.y.z.tunnel.example.org",
    ];
    for i in 0..n {
        let src = hosts[rng.gen_range(0..hosts.len())];
        let dst = victims[rng.gen_range(0..victims.len())];
        let ts = (i as u64) * 1_000;
        let pkt = match rng.gen_range(0..10u32) {
            // TCP handshake traffic: SYN-heavy so SYN-ACK and SYN-FIN
            // differences stay positive (queries 1, 6, 7).
            0..=2 => PacketBuilder::tcp_raw(src, rng.gen_range(1024..1032), dst, 80)
                .flags(match rng.gen_range(0..5u32) {
                    0..=2 => TcpFlags::SYN,
                    3 => TcpFlags::ACK,
                    // Teardowns, so query 7's SYN−FIN join matches.
                    _ => TcpFlags(TcpFlags::FIN.0 | TcpFlags::ACK.0),
                })
                .ts_nanos(ts)
                .build(),
            // Port/host sweeps (queries 3, 4, 5).
            3 | 4 => PacketBuilder::tcp_raw(
                src,
                40_000,
                victims[rng.gen_range(0..victims.len())],
                rng.gen_range(1..12u64) as u16,
            )
            .flags(TcpFlags::SYN)
            .ts_nanos(ts)
            .build(),
            // SSH brute force: same-sized payloads to port 22 (query 2).
            5 => PacketBuilder::tcp_raw(src, 51_000, dst, 22)
                .flags(TcpFlags::PSH_ACK)
                .payload(vec![0u8; 48])
                .ts_nanos(ts)
                .build(),
            // Telnet: similar-sized packets, some literal "zorro"
            // payloads (query 10) — also byte volume for query 8.
            6 => {
                let body: &[u8] = if rng.gen_bool(0.5) {
                    b"zorro"
                } else {
                    b"login"
                };
                PacketBuilder::tcp_raw(src, 52_000, dst, 23)
                    .flags(TcpFlags::PSH_ACK)
                    .payload(body.to_vec())
                    .ts_nanos(ts)
                    .build()
            }
            // DNS queries, long names for tunneling (query 9).
            7 | 8 => {
                let name = domains[rng.gen_range(0..domains.len())];
                PacketBuilder::dns(
                    src,
                    0x0808_0808,
                    DnsHeader::query(i as u16, name, DnsQType::A),
                )
                .ts_nanos(ts)
                .build()
            }
            // DNS responses with A records: reflection victims and
            // fast-flux resolution sets (queries 11, 12).
            _ => {
                let name = domains[rng.gen_range(0..domains.len())];
                let addr: u32 = hosts[rng.gen_range(0..hosts.len())];
                PacketBuilder::dns(
                    0x0808_0808,
                    dst,
                    DnsHeader::response(
                        i as u16,
                        name,
                        DnsQType::A,
                        vec![DnsRecord {
                            name: name.to_string(),
                            rtype: DnsQType::A,
                            ttl: 60,
                            rdata: addr.to_be_bytes().to_vec(),
                        }],
                    ),
                )
                .ts_nanos(ts)
                .build()
            }
        };
        pkts.push(pkt);
    }
    pkts
}

/// One whole-window batch for `query`, as the emitter hands it over
/// under an All-SP plan: the packets as one shared block of columns,
/// every one of them selected into the main pipeline and (for join
/// queries) the right branch at index 0 — exactly the trace the
/// reference interpreter sees.
pub fn batch_for(query: &Query, pkts: &[Packet]) -> WindowBatch {
    let mut arena = PacketArena::new();
    pkts.iter()
        .for_each(|p| arena.push_record(p.ts_nanos, &p.encode()));
    let every_packet = RowRun::Packets {
        block: Arc::new(PacketBlock::new(arena)),
        sel: (0..pkts.len() as u32).collect(),
    };
    let mut batch = WindowBatch::new();
    if query.join.is_some() {
        batch.right.insert(0, vec![every_packet.clone()]);
    }
    batch.left.insert(0, vec![every_packet]);
    batch
}

/// Run a pipeline with tuples injected at arbitrary operator indices
/// and fold the remaining operators over them, through the reference
/// interpreter — the oracle [`crate::BoundEntries`] is checked against.
pub fn run_entries_owned(
    ops: &[sonata_query::Operator],
    mut entries: BTreeMap<usize, Vec<Tuple>>,
) -> Result<(Schema, Vec<Tuple>), StreamError> {
    for &op in entries.keys() {
        if op > ops.len() {
            return Err(StreamError::BadEntry { op, len: ops.len() });
        }
    }
    let first = entries.keys().next().copied().unwrap_or(ops.len());
    // Schema at the first entry point.
    let mut schema = Schema::packet();
    for op in &ops[..first] {
        schema = op.output_schema(&schema).map_err(|c| {
            InterpretError::Bind(sonata_query::expr::BindError::UnknownColumn {
                column: c,
                schema: schema.clone(),
            })
        })?;
    }
    let mut tuples: Vec<Tuple> = Vec::new();
    for i in first..=ops.len() {
        if let Some(incoming) = entries.remove(&i) {
            if tuples.is_empty() {
                tuples = incoming;
            } else {
                tuples.extend(incoming);
            }
        }
        if i == ops.len() {
            break;
        }
        let (s, t) = run_operator(&ops[i], &schema, tuples)?;
        schema = s;
        tuples = t;
    }
    Ok((schema, tuples))
}

/// Every job of one window on the inline engine and on the job pool at
/// each worker count in `workers`: results and counters must be
/// byte-identical. Returns the inline results, in job order.
pub fn assert_pool_matches_inline(
    queries: &[Query],
    jobs: &[(QueryId, WindowBatch)],
    workers: &[usize],
) -> Vec<(QueryId, Result<JobResult, StreamError>)> {
    let run = |w: usize| {
        let mut engine = ShardedEngine::new(w);
        queries.iter().for_each(|q| engine.register(q.clone()));
        let results = engine.submit_window(jobs.to_vec());
        (results, engine.finish())
    };
    let (inline, inline_counters) = run(1);
    let render = |rs: &[(QueryId, Result<JobResult, StreamError>)]| {
        rs.iter()
            .map(|(id, r)| (*id, r.as_ref().map_err(ToString::to_string).cloned()))
            .collect::<Vec<_>>()
    };
    for &w in workers {
        let (pooled, counters) = run(w);
        assert_eq!(
            render(&pooled),
            render(&inline),
            "results diverge at {w} workers"
        );
        assert_eq!(counters.tuples_in, inline_counters.tuples_in, "{w} workers");
        assert_eq!(
            counters.results_out, inline_counters.results_out,
            "{w} workers"
        );
        assert_eq!(counters.windows, inline_counters.windows, "{w} workers");
        assert_eq!(counters.per_query, inline_counters.per_query, "{w} workers");
    }
    inline
}

/// Full differential check over one window of `queries`: the job pool
/// ≡ the inline engine at every worker count, and the inline engine ≡
/// the reference interpreter on the raw trace, per query.
pub fn assert_differential(queries: &[Query], pkts: &[Packet], workers: &[usize]) {
    let jobs: Vec<(QueryId, WindowBatch)> = (queries.iter())
        .map(|q| (q.id, batch_for(q, pkts)))
        .collect();
    let inline = assert_pool_matches_inline(queries, &jobs, workers);
    for (q, (_, result)) in queries.iter().zip(inline) {
        let result = result.unwrap_or_else(|e| panic!("{}: inline execution failed: {e}", q.name));
        let reference = run_query(q, pkts)
            .unwrap_or_else(|e| panic!("{}: reference interpreter failed: {e}", q.name));
        assert_eq!(
            result.output, reference,
            "{}: engine diverges from reference interpreter",
            q.name
        );
    }
}
