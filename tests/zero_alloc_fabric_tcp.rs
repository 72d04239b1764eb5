//! Counting-allocator bound on the TCP hop: in a steady-state 2×2
//! Filter-DP fabric over localhost sockets, `partition_window` deals
//! out copies that share their source's encoded bytes, the arena build
//! copies those bytes instead of re-encoding them, and the client
//! encodes every frame into the one buffer it keeps — so a window
//! allocates **no wire buffer per packet**. The bound is on bytes, over
//! every thread (the collector's readers decode into fresh chunks; that
//! is the wire form arriving, and it is counted): at most 800 per
//! packet — the reading, 728, plus a tenth — where a chunk that carried
//! its packets' bytes, not the columns the queries read, took about
//! 1 400, and re-encoding each packet for each window and framing each
//! chunk through two fresh buffers about 3 000.

mod common;

use common::{CountingAlloc, ARMED, BYTES};
use sonata::packet::Packet;
use sonata::prelude::*;
use sonata::traffic::trace::EvaluationTrace;
use std::sync::atomic::Ordering;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn a_tcp_fabric_window_allocates_no_wire_buffer_per_packet() {
    let trace = EvaluationTrace::generate(7, 8, 3_000, 0.01).trace;
    let windows: Vec<(u64, &[Packet])> = trace.windows(3_000).collect();
    let queries = catalog::top8(&Thresholds::default());
    let training: Vec<&[Packet]> = windows.iter().take(2).map(|w| w.1).collect();
    let cfg = PlannerConfig {
        mode: PlanMode::FilterDp,
        ..PlannerConfig::default()
    };
    let plan = plan_queries(&queries, &training, &cfg).unwrap();
    let mut fab = Fabric::new(
        &plan,
        RuntimeConfig {
            transport: TransportKind::Tcp,
            topology: Some(TopologyConfig::new(2, 2)),
            ..RuntimeConfig::default()
        },
    )
    .unwrap();
    // Warm: buffers grow to a window's size, and every packet's wire
    // bytes are encoded once (a replayed trace keeps them — the first
    // partition of a window leaves them in the trace's own packets).
    for (w, packets) in &windows[..3] {
        let parts = fab.partition_window(packets);
        fab.process_window(*w, &parts).unwrap();
    }
    for p in trace.packets() {
        p.encode_cached();
    }
    let (mut packets_seen, mut tuples_seen) = (0, 0);
    BYTES.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for (w, packets) in &windows[3..] {
        let parts = fab.partition_window(packets);
        let report = fab.process_window(*w, &parts).unwrap();
        packets_seen += packets.len() as u64;
        tuples_seen += report.tuples_to_sp;
    }
    ARMED.store(false, Ordering::SeqCst);
    let bytes = BYTES.load(Ordering::SeqCst);
    // The reading, for whoever moves the bound (`-- --nocapture`).
    eprintln!("{bytes} bytes allocated over {packets_seen} packets");
    assert!(packets_seen > 5_000, "{packets_seen} packets");
    // The hop is exercised: several mirrored rows per packet cross it.
    assert!(tuples_seen > 3 * packets_seen, "{tuples_seen} rows");
    assert!(
        bytes <= 800 * packets_seen,
        "{} bytes allocated per packet over {packets_seen} packets ({tuples_seen} rows)",
        bytes / packets_seen
    );
}
