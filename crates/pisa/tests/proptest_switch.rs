//! Property tests for the behavioral model:
//!
//! * task-major batch execution of random merged multi-task programs,
//!   malformed records included, is indistinguishable from the
//!   tree-walking reference run packet by packet, and its chunks carry
//!   each mirrored packet as exactly the fields of the program's mirror
//!   mask;
//! * the same window's well-formed records, as owned packets read in
//!   place, give the blocks, reports and chunks of the arena copied
//!   from them;
//! * garbage bytes never panic either entry;
//! * register invariants hold under arbitrary key streams, and the
//!   flat register layout replays a slot-map model step for step.

use proptest::prelude::*;
use sonata_packet::wire::ALL_FIELDS;
use sonata_packet::{ArenaBatch, Field, Packet, PacketArena, PacketBuilder, TcpFlags, Value};
use sonata_pisa::compile::{compile_pipeline, max_switch_units, table_specs, RegisterSizing};
use sonata_pisa::registers::{HashRegisters, RegOutcome};
use sonata_pisa::{
    Gated, PisaProgram, Report, ReportBatch, ReportBlock, ReportChunk, ReportKind, Switch,
    SwitchConstraints, TableKind, TaskId,
};
use sonata_planner::refine::refine_query;
use sonata_query::catalog::{self, Thresholds};
use sonata_query::{Agg, ColName, QueryId, Tuple};
use std::collections::{BTreeSet, HashMap};

fn load(q: &sonata_query::Query, slots: usize) -> Switch {
    let specs = table_specs(&q.pipeline);
    let k = max_switch_units(&specs);
    let stateful = specs.iter().take(k).filter(|s| s.stateful).count();
    let mut stages = Vec::new();
    let mut cur = 0;
    for s in specs.iter().take(k) {
        stages.push(cur);
        cur += s.stage_cost;
    }
    let cp = compile_pipeline(
        &q.pipeline,
        TaskId {
            query: q.id,
            level: 32,
            branch: 0,
        },
        &stages,
        &vec![
            RegisterSizing {
                slots,
                arrays: 2,
                ..Default::default()
            };
            stateful
        ],
        0,
        0,
    )
    .unwrap();
    Switch::load(cp.fragment, &SwitchConstraints::default()).unwrap()
}

/// One task family of a merged program: a top-8 query refined to
/// `LEVELS[level]`, optionally behind a dyn filter on the previous
/// level, cut after at most `depth` switch units.
#[derive(Debug, Clone)]
struct Pick {
    query: usize,
    level: usize,
    refined_from_prev: bool,
    depth: usize,
    pass_when_empty: bool,
    /// Indices into `DSTS` whose prefixes the dyn filter admits.
    admitted: Vec<usize>,
}

const LEVELS: [u8; 4] = [8, 16, 24, 32];
const SRCS: [u32; 4] = [0x0a00_0001, 0x0a00_0002, 0x0a01_0003, 0x0b00_0004];
const DSTS: [u32; 4] = [0xc0a8_0001, 0xc0a8_0002, 0xc0a8_0103, 0x0a00_0063];

fn arb_pick() -> impl Strategy<Value = Pick> {
    (
        0usize..8,
        0usize..4,
        any::<bool>(),
        0usize..8,
        any::<bool>(),
        proptest::collection::vec(0usize..4, 0..4),
    )
        .prop_map(
            |(query, level, refined_from_prev, depth, pass_when_empty, admitted)| Pick {
                query,
                level,
                refined_from_prev,
                depth,
                pass_when_empty,
                admitted,
            },
        )
}

/// Compile and merge the picked fragments, each task with its own
/// metadata slots and (tiny, so keys collide and shunt) registers.
fn merged_program(picks: &[Pick], slots: usize, arrays: usize) -> PisaProgram {
    let queries = catalog::top8(&Thresholds::default());
    let mut program = PisaProgram::default();
    let (mut meta_base, mut reg_base) = (0, 0);
    let mut seen = BTreeSet::new();
    for pick in picks {
        if !seen.insert((pick.query, pick.level)) {
            continue; // one task per (query, level, branch)
        }
        let level = LEVELS[pick.level];
        let prev = (pick.refined_from_prev && pick.level > 0)
            .then(|| (LEVELS[pick.level - 1], BTreeSet::new()));
        let q = refine_query(&queries[pick.query], level, prev);
        let mut branches = vec![&q.pipeline];
        if let Some(j) = &q.join {
            branches.push(&j.right);
        }
        for (b, pipeline) in branches.into_iter().enumerate() {
            let specs = table_specs(pipeline);
            let k = max_switch_units(&specs).min(pick.depth);
            let stateful = specs.iter().take(k).filter(|s| s.stateful).count();
            let mut stages = Vec::new();
            let mut cur = 0;
            for s in specs.iter().take(k) {
                stages.push(cur);
                cur += s.stage_cost;
            }
            let sizing = RegisterSizing {
                slots,
                arrays,
                ..Default::default()
            };
            let mut fragment = compile_pipeline(
                pipeline,
                TaskId {
                    query: q.id,
                    level,
                    branch: b as u8,
                },
                &stages,
                &vec![sizing; stateful],
                meta_base,
                reg_base,
            )
            .unwrap()
            .fragment;
            for t in &mut fragment.tables {
                if let TableKind::DynFilter {
                    pass_when_empty, ..
                } = &mut t.kind
                {
                    *pass_when_empty = pick.pass_when_empty;
                }
            }
            meta_base = fragment.meta_slots.max(meta_base);
            reg_base += fragment.registers.len() as u32;
            program.merge(fragment);
        }
    }
    program
}

/// Wire records: mostly well-formed TCP/UDP/ICMP over small address
/// pools (so keys repeat), plus truncated and garbage byte strings.
fn arb_record() -> impl Strategy<Value = Vec<u8>> {
    let flags = prop_oneof![
        Just(TcpFlags::SYN),
        Just(TcpFlags::ACK),
        Just(TcpFlags(TcpFlags::FIN.0 | TcpFlags::ACK.0)),
        Just(TcpFlags::SYN_ACK),
    ];
    let ports = prop_oneof![Just(22u16), Just(23u16), Just(53u16), Just(80u16)];
    (
        0u32..8,
        (0usize..4, 0usize..4),
        (ports, flags),
        proptest::collection::vec(any::<u8>(), 0..40),
    )
        .prop_map(|(kind, (s, d), (port, flags), noise)| {
            let (src, dst) = (SRCS[s], DSTS[d]);
            let pkt = match kind {
                0..=3 => PacketBuilder::tcp_raw(src, 1024 + s as u16, dst, port)
                    .flags(flags)
                    .payload(noise)
                    .build(),
                4 => PacketBuilder::udp_raw(src, port, dst, 53).build(),
                5 => PacketBuilder::icmp_raw(src, dst).build(),
                6 => {
                    // Cut anywhere, including inside the IPv4 header.
                    let wire = PacketBuilder::tcp_raw(src, 9, dst, port).build().encode();
                    return wire[..noise.len().min(wire.len())].to_vec();
                }
                _ => return noise,
            };
            pkt.encode()
        })
}

/// A report as a chunk carries it: its packet, if it has one that
/// decodes, as the tuple of the fields the mirror mask names.
type Shipped = (
    TaskId,
    ReportKind,
    Vec<(ColName, u64)>,
    Option<usize>,
    u64,
    Option<Tuple>,
);

fn shipped_report(r: &Report, mask: u32) -> Shipped {
    let masked = |pkt: &sonata_packet::Packet| {
        let t = Tuple::from_packet(pkt);
        let field = |c: usize| match mask >> c & 1 {
            0 => Value::U64(0),
            _ => t.get(c).clone(),
        };
        (0..Field::ALL.len()).map(field).collect()
    };
    let packet = r.packet.as_ref().map(masked);
    (r.task, r.kind, r.columns.clone(), r.entry_op, r.seq, packet)
}

fn shipped_rows(chunk: &sonata_pisa::ReportChunk) -> Vec<Shipped> {
    let rows = chunk.blocks.iter().flat_map(|b| {
        (0..b.rows).map(move |r| {
            let width = b.width();
            let columns = (b.names.iter().cloned()).zip(b.cells[r * width..][..width].to_vec());
            let packet = b.pkts.get(r).and_then(|&p| chunk.packets.tuple(p));
            let seq = b.first_seq + r as u64;
            (b.task, b.kind, columns.collect(), b.entry_op, seq, packet)
        })
    });
    rows.collect()
}

fn chunks(out: &ReportBatch, batch: ArenaBatch<'_>, budget: usize) -> Vec<ReportChunk> {
    let mut at = 0;
    std::iter::from_fn(|| {
        let (chunk, next) = out.chunk(at, batch, budget)?;
        at = next;
        Some(chunk)
    })
    .collect()
}

/// Run a window's well-formed records as owned packets (a malformed
/// record has no owned form) through `copied` over an arena built from
/// them, and — shared, as a fabric deals them out — through `in_place`
/// over the packets themselves. The two must agree on blocks,
/// per-packet reports, chunks and the window's dump.
fn in_place_matches_arena(
    (copied, in_place): (&mut Switch, &mut Switch),
    records: &[Vec<u8>],
    budget: usize,
) -> Result<(), TestCaseError> {
    let pkts: Vec<Packet> = (records.iter().enumerate())
        .filter_map(|(i, r)| {
            let mut p = Packet::decode(r).ok()?;
            p.ts_nanos = i as u64;
            Some(p)
        })
        .collect();
    let shared: Vec<Packet> = pkts.iter().map(Packet::share).collect();
    let arena = PacketArena::from_packets(&pkts);
    let (a, b) = (arena.batch(), ArenaBatch::of_packets(&shared));
    let (mut out_a, mut out_b) = (ReportBatch::new(), ReportBatch::new());
    copied.process_batch(&a, &mut out_a);
    in_place.process_batch(&b, &mut out_b);
    prop_assert_eq!(out_a.blocks(), out_b.blocks());
    for i in 0..pkts.len() {
        let got = out_b.packet_reports(i, b).map(|r| r.to_report());
        let want = out_a.packet_reports(i, a).map(|r| r.to_report());
        prop_assert_eq!(got.collect::<Vec<_>>(), want.collect::<Vec<_>>());
    }
    prop_assert_eq!(chunks(&out_b, b, budget), chunks(&out_a, a, budget));
    prop_assert_eq!(in_place.end_window(), copied.end_window());
    Ok(())
}

/// Run a window's records through `sw` the way a split share does:
/// cut into `slice_len`-record slices, every slice gated on a second
/// thread in an order `shuffle` picks, then each slice's kernels run
/// in order. Returns each packet's reports.
fn gated_ahead(
    sw: &mut Switch,
    records: &[Vec<u8>],
    slice_len: usize,
    shuffle: u64,
) -> Vec<Vec<Report>> {
    let arenas: Vec<PacketArena> = (records.chunks(slice_len).enumerate())
        .map(|(k, slice)| {
            let mut arena = PacketArena::new();
            for (i, r) in slice.iter().enumerate() {
                arena.push_record((k * slice_len + i) as u64, r);
            }
            arena
        })
        .collect();
    let mut order: Vec<usize> = (0..arenas.len()).collect();
    order.sort_by_key(|&k| (k as u64 ^ shuffle).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut gated: Vec<(usize, Gated)> = (order.iter()).map(|&k| (k, Gated::default())).collect();
    let (gate, mut kernels) = sw.halves();
    std::thread::scope(|s| {
        s.spawn(|| {
            for (k, g) in &mut gated {
                gate.gate(&arenas[*k].batch(), g);
            }
        });
    });
    gated.sort_by_key(|&(k, _)| k);
    let mut out = ReportBatch::new();
    let mut reports = Vec::new();
    for (arena, (_, g)) in arenas.iter().zip(&gated) {
        kernels.run_gated(&arena.batch(), g, &mut out);
        for i in 0..arena.len() {
            reports.push(
                out.packet_reports(i, arena.batch())
                    .map(|r| r.to_report())
                    .collect(),
            );
        }
    }
    reports
}

fn hash_slot(seed_idx: usize, key: &[u64], slots: usize) -> usize {
    // The register hash as documented in `registers.rs`, with the
    // slot picked by a plain remainder.
    let mut h = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(seed_idx as u64 * 2 + 1);
    for part in key {
        h ^= part.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h = h.rotate_left(31).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    }
    h ^= h >> 33;
    seed_idx * slots + (h as usize % slots)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn batch_kernels_match_the_reference_interpreter(
        picks in proptest::collection::vec(arb_pick(), 1..5),
        (slots, arrays) in (1usize..6, 1usize..3),
        windows in proptest::collection::vec(
            proptest::collection::vec(arb_record(), 0..160),
            2..4,
        ),
        defer in any::<bool>(),
        chunk_budget in 0usize..4_000,
        mask in prop_oneof![Just(ALL_FIELDS), any::<u32>().prop_map(|m| m & ALL_FIELDS | 1)],
        (slice_len, shuffle) in (1usize..48, any::<u64>()),
    ) {
        let mut program = merged_program(&picks, slots, arrays);
        // What a deploy leaves in every mirroring spec.
        for spec in program.reports.iter_mut().filter(|r| r.packet_mask != 0) {
            spec.packet_mask = mask;
        }
        let mirror_mask = program.mirror_mask();
        let constraints = SwitchConstraints {
            stateful_per_stage: 64,
            ..SwitchConstraints::default()
        };
        let mut oracle = Switch::load(program.clone(), &constraints).unwrap();
        let mut batched = Switch::load(program.clone(), &constraints).unwrap();
        let mut copied = Switch::load(program.clone(), &constraints).unwrap();
        let mut split = Switch::load(program.clone(), &constraints).unwrap();
        let mut in_place = Switch::load(program, &constraints).unwrap();
        // A fabric switch defers every threshold to the collector.
        for sw in [&mut oracle, &mut batched, &mut copied, &mut split, &mut in_place] {
            sw.set_defer_dump_thresholds(defer);
        }
        let mut out = ReportBatch::new();
        let queries = catalog::top8(&Thresholds::default());
        for (w, records) in windows.iter().enumerate() {
            // Window 0 runs on the deploy-time (empty) dyn filters;
            // later windows on control-plane written ones.
            if w > 0 {
                for (table, task) in oracle.dyn_filter_tables() {
                    let pick = picks
                        .iter()
                        .find(|p| {
                            queries[p.query].id == task.query
                                && LEVELS[p.level] == task.level
                        })
                        .unwrap();
                    let prev = LEVELS[pick.level - 1] as u32;
                    let entries: BTreeSet<u64> = pick
                        .admitted
                        .iter()
                        .map(|&d| (DSTS[d] & (u32::MAX << (32 - prev))) as u64)
                        .collect();
                    for sw in [&mut oracle, &mut batched, &mut copied, &mut split, &mut in_place] {
                        sw.set_dyn_filter(&table, entries.clone()).unwrap();
                    }
                }
            }
            in_place_matches_arena((&mut copied, &mut in_place), records, chunk_budget)?;
            let mut arena = PacketArena::new();
            for (i, r) in records.iter().enumerate() {
                arena.push_record(i as u64, r);
            }
            let sliced = gated_ahead(&mut split, records, slice_len, shuffle);
            batched.process_batch(&arena.batch(), &mut out);
            prop_assert_eq!(out.packets(), arena.len());
            let mut looped: Vec<Report> = Vec::new();
            prop_assert_eq!(sliced.len(), arena.len());
            for (i, sliced) in sliced.iter().enumerate() {
                let want = oracle.process_reference(arena.view(i));
                let got: Vec<Report> = out
                    .packet_reports(i, arena.batch())
                    .map(|r| r.to_report())
                    .collect();
                prop_assert!(
                    got == want,
                    "window {w} packet {i}\n batch: {got:?}\n loop: {want:?}"
                );
                prop_assert!(
                    *sliced == want,
                    "window {w} packet {i}\n gated ahead: {sliced:?}\n loop: {want:?}"
                );
                looped.extend(want);
            }
            // Every block is a maximal run of one task's consecutive
            // reports: rows number on from where the task's previous
            // block stopped, and that block was of another shape.
            let mut tail: HashMap<TaskId, (u64, &ReportBlock)> = HashMap::new();
            for b in out.blocks() {
                prop_assert!(b.is_well_formed() && b.rows > 0);
                prop_assert!(matches!(b.kind, ReportKind::Tuple | ReportKind::Shunt));
                if let Some((next_seq, prev)) = tail.insert(b.task, (b.first_seq + b.rows as u64, b)) {
                    prop_assert_eq!(b.first_seq, next_seq);
                    prop_assert_ne!((prev.kind, prev.entry_op), (b.kind, b.entry_op));
                } else {
                    prop_assert_eq!(b.first_seq, 0);
                }
            }
            let rows: usize = out.blocks().iter().map(|b| b.rows).sum();
            prop_assert_eq!(rows, out.total_reports());
            // Cut into chunks on packet boundaries, the blocks still
            // hold the loop's reports: each task's in its order, each
            // packet under its own index, as the mask's fields of its
            // bytes. Every packet's rows lie in the one chunk whose
            // range holds it, and every carried packet ships once.
            let by_task = |reports: Vec<Shipped>| {
                let mut map: HashMap<TaskId, Vec<Shipped>> = HashMap::new();
                for r in reports {
                    map.entry(r.0).or_default().push(r);
                }
                map
            };
            let mut chunked: Vec<Shipped> = Vec::new();
            let (mut at, mut shipped) = (0, 0);
            while let Some((chunk, next)) = out.chunk(at, arena.batch(), chunk_budget) {
                prop_assert!(next > at);
                let rows: usize = chunk.blocks.iter().map(|b| b.rows).sum();
                let owed = (at..next).map(|i| out.packet_reports(i, arena.batch()).count());
                prop_assert_eq!(rows, owed.sum::<usize>());
                shipped += chunk.packets.len();
                prop_assert_eq!(chunk.packets.mask(), mirror_mask);
                chunked.extend(shipped_rows(&chunk));
                at = next;
            }
            prop_assert_eq!(at, if out.is_empty() { 0 } else { out.packets() });
            let carried: BTreeSet<u32> = (out.blocks().iter())
                .flat_map(|b| b.pkts.iter().copied())
                .collect();
            prop_assert_eq!(shipped, carried.len());
            let looped = looped.iter().map(|r| shipped_report(r, mask)).collect();
            prop_assert_eq!(by_task(chunked), by_task(looped));
            let (a, b) = (batched.counters(), oracle.counters());
            prop_assert_eq!(
                (a.packets_in, a.tuple_reports, a.shunt_reports, &a.per_task),
                (b.packets_in, b.tuple_reports, b.shunt_reports, &b.per_task)
            );
            prop_assert_eq!(batched.register_occupancy(), oracle.register_occupancy());
            prop_assert_eq!(&split.counters().per_task, &oracle.counters().per_task);
            prop_assert_eq!(split.counters().packets_in, oracle.counters().packets_in);
            // The dump's column blocks materialize to the row-by-row
            // reference: same reports, order, `seq`, `entry_op`, kind.
            let want = batched.peek_dump_reference();
            let dump = batched.end_window();
            prop_assert_eq!(dump.tuples.reports().collect::<Vec<Report>>(), want);
            prop_assert_eq!(&dump, &oracle.end_window());
            prop_assert_eq!(&dump, &split.end_window());
            prop_assert_eq!(batched.counters().dump_tuples, oracle.counters().dump_tuples);
            prop_assert_eq!(&batched.counters().per_task, &oracle.counters().per_task);
        }
    }

    #[test]
    fn flat_registers_replay_the_slot_map_model(
        (widths, d, slots) in (proptest::collection::vec(1u32..=64, 1..5), 1usize..9, 1usize..24),
        (shape, agg, batch, pairs) in (0usize..4, 0usize..5, 1usize..12, 1usize..=64),
        raw in proptest::collection::vec(any::<u64>(), 64 * 4),
        ops in proptest::collection::vec((0usize..1 << 16, any::<u64>()), 0..300),
    ) {
        // Model: slot index → (key, value), probed through the same
        // hash in array order. Keys span each part's declared width
        // (1..=64 bits); an odd pool key differs from the one before it
        // only in its parts' top declared bit, so a part stored
        // narrower than declared aliases two keys. The pool holds up
        // to 128 keys against at most 23 × 8 slots, so tables fill and
        // keys shunt at every `d`. Shape 0 is a `distinct` set, shapes
        // 1–3 hold 1-, 8- and 32-bit values.
        let (value_bits, set) = [(1, true), (1, false), (8, false), (32, false)][shape];
        let agg = if set {
            Agg::BitOr
        } else {
            [Agg::Sum, Agg::Count, Agg::Max, Agg::Min, Agg::BitOr][agg]
        };
        let mask = |bits: u32| u64::MAX >> (64 - bits);
        let pool: Vec<Vec<u64>> = (0..2 * pairs)
            .map(|i| {
                (widths.iter().enumerate())
                    .map(|(p, &w)| {
                        let even = raw[i / 2 * 4 + p] & mask(w);
                        if i % 2 == 1 { even ^ 1 << (w - 1) } else { even }
                    })
                    .collect()
            })
            .collect();
        let build = || if set {
            HashRegisters::set(slots, d, &widths)
        } else {
            HashRegisters::new(slots, d, value_bits, &widths)
        };
        // `update` one op at a time; the batch kernel's two passes
        // (every lane's array-0 slot, then the probes) per batch.
        let (mut one, mut two) = (build(), build());
        let mut model: HashMap<usize, (Vec<u64>, u64)> = HashMap::new();
        let mut shunted = 0u64;
        let key_of = |i: usize| &pool[i % pool.len()][..];
        for batch in ops.chunks(batch) {
            let slots_of: Vec<usize> = batch.iter().map(|(i, _)| two.slot(key_of(*i))).collect();
            for ((i, operand), &slot) in batch.iter().zip(&slots_of) {
                let (key, operand) = (key_of(*i), if set { 1 } else { *operand });
                let mut want = RegOutcome::Shunted;
                for a in 0..d {
                    let slot = hash_slot(a, key, slots);
                    match model.get_mut(&slot) {
                        None => {
                            let v = agg.init(operand) & mask(value_bits);
                            model.insert(slot, (key.to_vec(), v));
                            want = RegOutcome::Updated {
                                first_touch: true,
                                new_value: v,
                                old_value: 0,
                            };
                            break;
                        }
                        Some((k, v)) if k == key => {
                            let old = *v;
                            *v = agg.fold(old, operand) & mask(value_bits);
                            want = RegOutcome::Updated {
                                first_touch: false,
                                new_value: *v,
                                old_value: old,
                            };
                            break;
                        }
                        Some(_) => {}
                    }
                }
                shunted += (want == RegOutcome::Shunted) as u64;
                prop_assert_eq!(one.update(key, agg, operand), want);
                prop_assert_eq!(two.update_at(slot, key, agg, operand), want);
                let value = model.values().find(|(k, _)| k == key).map(|e| e.1);
                prop_assert_eq!(one.read(key), value);
                prop_assert_eq!(two.read(key), value);
            }
        }
        let mut want: Vec<(usize, (Vec<u64>, u64))> = model.into_iter().collect();
        want.sort();
        let want: Vec<(Vec<u64>, u64)> = want.into_iter().map(|(_, e)| e).collect();
        for regs in [&mut one, &mut two] {
            prop_assert_eq!(regs.occupancy(), want.len());
            prop_assert_eq!(&regs.dump(), &want);
            prop_assert_eq!(regs.shunted_packets(), shunted);
            regs.reset();
            prop_assert_eq!(regs.occupancy(), 0);
            prop_assert!(regs.dump().is_empty());
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn garbage_bytes_never_panic(
        chunks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..128),
            0..40,
        ),
    ) {
        let q = catalog::superspreader(&Thresholds::default());
        let mut arena = PacketArena::new();
        for c in &chunks {
            arena.push_record(0, c);
        }
        let mut batched = load(&q, 64);
        let mut oracle = load(&q, 64);
        let mut out = ReportBatch::new();
        batched.process_batch(&arena.batch(), &mut out);
        for i in 0..arena.len() {
            let got: Vec<Report> = (out.packet_reports(i, arena.batch()))
                .map(|r| r.to_report())
                .collect();
            prop_assert_eq!(got, oracle.process_reference(arena.view(i)));
        }
        prop_assert_eq!(batched.end_window(), oracle.end_window());
        prop_assert_eq!(batched.counters().packets_in as usize, chunks.len());
        prop_assert_eq!(oracle.counters().packets_in as usize, chunks.len());
    }

    #[test]
    fn register_dump_is_exact_for_resident_keys(
        keys in proptest::collection::vec(0u64..200, 0..400),
        slots in 1usize..128,
        d in 1usize..4,
    ) {
        // Model check: for every key, register count + shunt count
        // equals its true frequency.
        let mut regs = HashRegisters::new(slots, d, 32, &[32]);
        let mut truth: std::collections::HashMap<u64, u64> = Default::default();
        let mut shunted: std::collections::HashMap<u64, u64> = Default::default();
        for &k in &keys {
            *truth.entry(k).or_default() += 1;
            if regs.update(&[k], Agg::Sum, 1) == RegOutcome::Shunted {
                *shunted.entry(k).or_default() += 1;
            }
        }
        let dump: std::collections::HashMap<u64, u64> =
            regs.dump().into_iter().map(|(k, v)| (k[0], v)).collect();
        for (k, &count) in &truth {
            let resident = dump.get(k).copied().unwrap_or(0);
            let shunt = shunted.get(k).copied().unwrap_or(0);
            prop_assert_eq!(resident + shunt, count, "key {}", k);
            // Disjointness: a key is either resident or fully shunted.
            prop_assert!(resident == 0 || shunt == 0, "key {} split", k);
        }
        prop_assert_eq!(
            regs.shunted_packets(),
            shunted.values().sum::<u64>()
        );
    }

    #[test]
    fn resource_check_agrees_with_usage(
        stages in 1usize..8,
        a in 1usize..4,
        b_kb in 1u64..64,
    ) {
        // A program accepted by `check` must never exceed the declared
        // limits in its computed usage.
        let constraints = SwitchConstraints {
            stages,
            stateful_per_stage: a,
            register_bits_per_stage: b_kb * 1000,
            max_bits_per_register: b_kb * 1000,
            metadata_bits: 8192,
            stateless_per_stage: 8,
        };
        let q = catalog::newly_opened_tcp_conns(&Thresholds::default());
        let specs = table_specs(&q.pipeline);
        let k = max_switch_units(&specs);
        let mut stage_ids = Vec::new();
        let mut cur = 0;
        for s in specs.iter().take(k) {
            stage_ids.push(cur);
            cur += s.stage_cost;
        }
        let slots = (b_kb * 1000 / 64).max(1) as usize;
        let cp = compile_pipeline(
            &q.pipeline,
            TaskId { query: QueryId(1), level: 32, branch: 0 },
            &stage_ids,
            &[RegisterSizing { slots, arrays: 1, ..Default::default() }],
            0,
            0,
        )
        .unwrap();
        match Switch::load(cp.fragment, &constraints) {
            Ok(sw) => {
                let usage = sw.usage();
                prop_assert!(usage.stages_used <= stages);
                for &n in &usage.stateful_by_stage {
                    prop_assert!(n <= a);
                }
                for &bits in &usage.register_bits_by_stage {
                    prop_assert!(bits <= b_kb * 1000);
                }
            }
            Err(_) => {
                // Rejection is fine — the point is no false accepts.
            }
        }
    }
}
