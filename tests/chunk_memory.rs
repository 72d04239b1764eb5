//! Counting-allocator bound on report egress: cutting a window into
//! chunks allocates what the chunks hold — packet columns and validity
//! bits, wire bytes and packet index where they ride, and rows — and
//! not, per chunk, room for the rest of the window.
//! The emitter keeps every chunk's packets until the window closes, so
//! a reservation sized by what is *left* would cost a window of `P`
//! packets cut `C` ways about `C · P / 2` index entries.
//!
//! The file holds exactly one `#[test]` so no sibling test allocates
//! on another thread while the counter is armed.

mod common;

use common::{CountingAlloc, ARMED, BYTES};
use std::sync::atomic::Ordering;

use sonata::packet::{ArenaIndex, PacketArena};
use sonata::pisa::compile::compile_pipeline;
use sonata::pisa::{PisaProgram, ReportBatch, Switch, SwitchConstraints, TaskId, CHUNK_BYTES};
use sonata::prelude::*;
use sonata::stream::testsupport::seeded_packets;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn chunks_allocate_what_they_hold() {
    // All-SP over the top-8 catalog: every packet mirrored for each of
    // the eleven branches.
    let mut program = PisaProgram::default();
    for q in catalog::top8(&Thresholds::default()) {
        let right = q.join.as_ref().map(|j| &j.right);
        for (b, pipeline) in std::iter::once(&q.pipeline).chain(right).enumerate() {
            let task = TaskId {
                query: q.id,
                level: 32,
                branch: b as u8,
            };
            program.merge(
                compile_pipeline(pipeline, task, &[], &[], 0, 0)
                    .unwrap()
                    .fragment,
            );
        }
    }
    let mut sw = Switch::load(program, &SwitchConstraints::default()).unwrap();
    let pkts = seeded_packets(1, 30_000);
    let arena = PacketArena::from_packets(&pkts);
    let mut out = ReportBatch::new();
    sw.process_batch(&arena.batch(), &mut out);
    assert_eq!(out.total_reports(), pkts.len() * 11);

    BYTES.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let mut chunks = Vec::new();
    let mut at = 0;
    while let Some((chunk, next)) = out.chunk(at, arena.batch(), CHUNK_BYTES / 4) {
        chunks.push(chunk);
        at = next;
    }
    ARMED.store(false, Ordering::SeqCst);

    let allocated = BYTES.load(Ordering::SeqCst) as usize;
    let held: usize = (chunks.iter())
        .map(|c| {
            let (block, bytes) = (&c.packets, c.packets.packets());
            let packets = block.columns().len() * 4
                + block.validity().len() * 8
                + bytes.total_bytes()
                + bytes.len() * size_of::<ArenaIndex>();
            let rows = c
                .blocks
                .iter()
                .map(|b| b.cells.len() * 8 + b.pkts.len() * 4);
            packets + rows.sum::<usize>()
        })
        .sum();
    // The reading, for whoever moves the bound (`-- --nocapture`).
    eprintln!(
        "{} chunks allocated {allocated} bytes to hold {held}",
        chunks.len()
    );
    assert!(chunks.len() >= 8, "{} chunks", chunks.len());
    assert!(
        allocated * 2 <= held * 3,
        "{} chunks allocated {allocated} bytes to hold {held}",
        chunks.len()
    );
}
