//! Counting-allocator bound on the stream side's intake: under an
//! All-SP plan every packet is a row of every query, and the collector
//! reads those rows where they are — one block of field columns per
//! chunk, a vector of packet numbers per task, tables whose buffers
//! outlive the window. What a steady-state window allocates is
//! therefore a matter of blocks and groups, not of tuples: the bound
//! here is **0.455 allocations per packet** for the whole window turn
//! (arena build, switch, emitter, eight stream jobs at eleven rows a
//! packet, boundary update) — the reading when it was set, 0.414,
//! plus a tenth; 0.443 since the switch runs a window in 1 024-packet
//! slices, each shipping its own report chunk — where building a
//! `Tuple` per packet and a `Tuple` per `map` took about fifteen.

mod common;

use common::{CountingAlloc, ALLOCS, ARMED};
use sonata::prelude::*;
use sonata::traffic::trace::EvaluationTrace;
use std::sync::atomic::Ordering;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn an_allsp_window_allocates_per_block_and_group_not_per_tuple() {
    let trace = EvaluationTrace::generate(7, 6, 3_000, 0.02).trace;
    let windows: Vec<(u64, &[sonata::packet::Packet])> = trace.windows(3_000).collect();
    let queries = catalog::top8(&Thresholds::default());
    let training: Vec<&[sonata::packet::Packet]> = windows.iter().take(2).map(|w| w.1).collect();
    let cfg = PlannerConfig {
        mode: PlanMode::AllSp,
        ..PlannerConfig::default()
    };
    let plan = plan_queries(&queries, &training, &cfg).unwrap();
    let mut rt = Runtime::new(&plan, RuntimeConfig::default()).unwrap();
    // Warm: buffers grow to a window's size, tables to its groups,
    // and every packet's wire bytes are encoded once (a replayed trace
    // keeps them; encoding is the generator's cost, not the window's).
    for (w, packets) in &windows[..3] {
        rt.process_window(*w, packets).unwrap();
    }
    for p in trace.packets() {
        p.encode_cached();
    }
    let (mut packets_seen, mut tuples_seen) = (0, 0);
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for (w, packets) in &windows[3..] {
        let report = rt.process_window(*w, packets).unwrap();
        packets_seen += packets.len() as u64;
        tuples_seen += report.tuples_to_sp;
    }
    ARMED.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);
    // The reading, for whoever moves the bound (`-- --nocapture`).
    eprintln!("{allocs} allocations over {packets_seen} packets");
    // Every packet reached every branch of every query.
    assert_eq!(tuples_seen, packets_seen * 11);
    assert!(packets_seen > 5_000, "{packets_seen} packets");
    assert!(
        allocs * 1000 <= packets_seen * 455,
        "{allocs} allocations over {packets_seen} packets ({tuples_seen} rows)"
    );
}
