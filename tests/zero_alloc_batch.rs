//! Counting-allocator proof of the batched ingest contract: once a
//! window's working set is warm (report arena capacity grown, scratch
//! columns sized), `Switch::process_batch` performs **zero** heap
//! allocations per packet — the whole point of the arena +
//! borrowed-view redesign. Register state is laid out flat at load,
//! so that holds even for a window whose every key is new. So do its
//! two halves, `Switch::gate` and `Switch::run_gated`, and a runtime
//! that gates a window's slices on a second thread sizes that thread's
//! buffers itself: the thread allocates nothing, and so never opens a
//! malloc arena of its own.
//!
//! The file holds exactly one `#[test]` so no sibling test allocates
//! on another thread while the counter is armed.

mod common;

use common::{CountingAlloc, ALLOCS, ARMED, CALLER, OFF_CALLER};
use std::sync::atomic::Ordering;

use sonata::packet::PacketArena;
use sonata::pisa::compile::{compile_pipeline, max_switch_units, table_specs, RegisterSizing};
use sonata::pisa::{Gated, PisaProgram, ReportBatch, Switch, SwitchConstraints, TaskId};
use sonata::prelude::*;
use sonata::stream::testsupport::seeded_packets;
use sonata::traffic::trace::EvaluationTrace;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn build_switch(n_queries: usize, sizing: RegisterSizing) -> Switch {
    let queries = catalog::top8(&Thresholds::default());
    let mut program = PisaProgram::default();
    let mut meta_base = 0;
    let mut reg_base = 0;
    for q in queries.iter().take(n_queries) {
        let mut branches: Vec<&sonata::query::Pipeline> = vec![&q.pipeline];
        if let Some(j) = &q.join {
            branches.push(&j.right);
        }
        for (b, pipeline) in branches.iter().enumerate() {
            let specs = table_specs(pipeline);
            let k = max_switch_units(&specs);
            let stateful = specs.iter().take(k).filter(|s| s.stateful).count();
            let mut stages = Vec::new();
            let mut cur = 0;
            for s in specs.iter().take(k) {
                stages.push(cur);
                cur += s.stage_cost;
            }
            let compiled = compile_pipeline(
                pipeline,
                TaskId {
                    query: q.id,
                    level: 32,
                    branch: b as u8,
                },
                &stages,
                &vec![sizing; stateful],
                meta_base,
                reg_base,
            )
            .unwrap();
            meta_base = compiled.fragment.meta_slots.max(meta_base);
            reg_base += compiled.fragment.registers.len() as u32;
            program.merge(compiled.fragment);
        }
    }
    Switch::load(
        program,
        &SwitchConstraints {
            stateful_per_stage: 32,
            ..SwitchConstraints::default()
        },
    )
    .unwrap()
}

#[test]
fn process_batch_is_allocation_free_once_warm() {
    let pkts = seeded_packets(7, 1_000);
    let arena = PacketArena::from_packets(&pkts);
    // Deliberately tight registers: hash collisions shunt packets to
    // the emitter, so the measured pass emits per-packet reports (not
    // just end-of-window dumps) and the report-arena reuse is actually
    // exercised.
    let mut sw = build_switch(
        4,
        RegisterSizing {
            slots: 64,
            arrays: 1,
            ..Default::default()
        },
    );
    let mut out = ReportBatch::new();

    // Warm pass: grows the report arena, registers every state key
    // the window will touch, and sizes the gate's scratch columns.
    sw.process_batch(&arena.batch(), &mut out);
    let warm_reports = out.total_reports();
    assert!(warm_reports > 0, "workload must actually report");

    // Measured pass: same window, same state — every per-packet
    // structure must be reused, not reallocated. The window is NOT
    // closed in between: `end_window` drains registers, and re-keying
    // them is a first-touch cost, not a per-packet one.
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    sw.process_batch(&arena.batch(), &mut out);
    ARMED.store(false, Ordering::SeqCst);

    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        allocs,
        0,
        "process_batch allocated {allocs} times over {} warm packets",
        arena.len()
    );

    // The same pass as its two halves, into a gate of the caller's.
    let mut gated = Gated::default();
    sw.gate(&arena.batch(), &mut gated);
    sw.run_gated(&arena.batch(), &gated, &mut out);
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    sw.gate(&arena.batch(), &mut gated);
    sw.run_gated(&arena.batch(), &gated, &mut out);
    ARMED.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(allocs, 0, "gate + run_gated allocated {allocs} times");

    // Max-DP shape: all eight queries with every stateful operator in
    // a roomy register, so nearly every packet updates several keys
    // and almost nothing shunts. Closing the window empties the
    // registers, which makes every key of the measured pass a first
    // touch — storing a new key must not allocate either.
    let background = Trace::background(&BackgroundConfig::small(), 7);
    let arena = PacketArena::from_packets(background.packets());
    let mut sw = build_switch(8, RegisterSizing::default());
    sw.process_batch(&arena.batch(), &mut out);
    let resident = sw.register_occupancy();
    assert!(resident > 500, "workload must actually fill registers");
    sw.end_window();
    assert_eq!(sw.register_occupancy(), 0);

    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    sw.process_batch(&arena.batch(), &mut out);
    ARMED.store(false, Ordering::SeqCst);

    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(sw.register_occupancy(), resident);
    assert_eq!(
        allocs, 0,
        "process_batch allocated {allocs} times re-keying {resident} register slots"
    );

    // A Sonata top-8 runtime at two workers gates its windows' slices
    // on a second thread; once warm, that thread allocates nothing.
    let trace = EvaluationTrace::generate(7, 6, 3_000, 0.05).trace;
    let windows: Vec<(u64, &[sonata::packet::Packet])> = trace.windows(3_000).collect();
    let queries = catalog::top8(&Thresholds::default());
    let training: Vec<&[sonata::packet::Packet]> = windows.iter().take(2).map(|w| w.1).collect();
    let plan = plan_queries(&queries, &training, &PlannerConfig::default()).unwrap();
    let cfg = RuntimeConfig {
        workers: 2,
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(&plan, cfg).unwrap();
    for (w, packets) in &windows[..3] {
        rt.process_window(*w, packets).unwrap();
    }
    let before = rt.gate_ahead();
    CALLER.with(|c| c.set(true));
    OFF_CALLER.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for (w, packets) in &windows[3..] {
        rt.process_window(*w, packets).unwrap();
    }
    ARMED.store(false, Ordering::SeqCst);
    let (off, ahead) = (OFF_CALLER.load(Ordering::SeqCst), rt.gate_ahead());
    assert!(
        ahead.slices > before.slices,
        "no slice gated ahead: {ahead:?}"
    );
    assert_eq!(off, 0, "the gate thread allocated {off} times ({ahead:?})");
}
