//! The traced run: per-layer numbers from (1) the `WindowLatency`
//! waterfall the program already reports and (2) a staged shadow
//! pipeline that re-runs each window's real data through every layer's
//! public functions one stage at a time, a span around each call.
//!
//! The shadow is the benchmark's code, not the program's: it shows what
//! each layer costs in isolation, and `core.staged_sum_share` shows how
//! much of the real window those isolated costs explain. Its tuple
//! count must equal the real window's `tuples_to_sp`; that equality is
//! the check that the shadow did the same work.

use crate::e2e::{self, Replay, Tally};
use crate::spans::Tracer;
use crate::workloads::{Prepared, System, Workload};
use crate::{alloc, stats};
use sonata_core::{Emitter, TelemetryReport};
use sonata_net::{decode_frame, encode_frame, Frame, TransportKind};
use sonata_obs::ObsHandle;
use sonata_packet::{Packet, PacketArena};
use sonata_pisa::{PisaProgram, Report, ReportBatch, SketchConfig, Switch, SwitchConstraints};
use sonata_stream::{merge_window_batches, ShardedEngine, SwitchPartial};
use std::collections::BTreeMap;
use std::time::Instant;

/// Spans whose self time is a layer's work inside the window. The
/// set-up spans and `pisa.load` (a fresh shadow switch per window, which
/// the real window never pays) are layers too, but not part of a window.
const WINDOW_LAYER_SPANS: [&str; 13] = [
    "traffic.partition",
    "packet.arena_build",
    "pisa.batch",
    "pisa.report_materialize",
    "pisa.end_window",
    "net.report_encode",
    "net.report_decode",
    "net.dump_encode",
    "net.dump_decode",
    "core.emitter_ingest",
    "core.emitter_close",
    "stream.merge",
    "stream.exec",
];

/// Work counted in one shadow window.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    packets: u64,
    arena_bytes: u64,
    reports: u64,
    dump_tuples: u64,
    wire_bytes: u64,
    tuples: u64,
    tuples_in: u64,
    tuples_out: u64,
    jobs: u64,
    /// Wall time of the real window these counts shadow.
    real_ns: u64,
}

/// The collector-side state a replay keeps across windows, as the real
/// drivers do; the switch is reloaded per window from the real switch's
/// current program so dynamic-refinement tables match.
struct Shadow {
    tcp: bool,
    arenas: Vec<PacketArena>,
    report_batches: Vec<ReportBatch>,
    emitters: Vec<Emitter>,
    engine: ShardedEngine,
}

impl Shadow {
    fn new(w: &Workload, p: &Prepared) -> Self {
        let switches = w.switches();
        // One engine stands in for the fabric's per-shard engines: the
        // jobs are the same, only their owner differs. Stream jobs keep
        // their deploy-time dynamic filters (the rewrite path is not on
        // the surface this harness may call), which only matters on
        // refinement plans, where the stream side is ~0 anyway.
        let mut engine = ShardedEngine::new(1);
        for inst in &p.deployed.instances {
            engine.register(inst.refined.clone());
        }
        Shadow {
            tcp: w.transport == TransportKind::Tcp,
            arenas: (0..switches).map(|_| PacketArena::new()).collect(),
            report_batches: (0..switches).map(|_| ReportBatch::new()).collect(),
            emitters: (0..switches)
                .map(|_| Emitter::new(&p.deployed.deployments))
                .collect(),
            engine,
        }
    }

    /// Drive one window's packets through every layer, stage by stage.
    fn window(
        &mut self,
        tr: &mut Tracer,
        root: usize,
        window: u64,
        parts: &[&[Packet]],
        program: &PisaProgram,
    ) -> Result<Counts, String> {
        let mut c = Counts::default();
        let mut partials: Vec<SwitchPartial> = Vec::with_capacity(parts.len());
        for (s, part) in parts.iter().enumerate() {
            let sw_span = tr.open("shadow.switch", Some(root));
            let parent = Some(sw_span);
            let arena = &mut self.arenas[s];
            let rb = &mut self.report_batches[s];
            let emitter = &mut self.emitters[s];

            tr.leaf("packet.arena_build", parent, || {
                arena.rebuild_from_packets(part)
            });
            c.packets += part.len() as u64;
            c.arena_bytes += arena.total_bytes() as u64;
            let batch = arena.batch();

            let program = program.clone();
            let mut switch = tr
                .leaf("pisa.load", parent, || {
                    Switch::load_with_sketch(
                        program,
                        &SwitchConstraints::default(),
                        &ObsHandle::disabled(),
                        SketchConfig::default(),
                    )
                })
                .map_err(|e| format!("shadow switch load: {e:?}"))?;

            tr.leaf("pisa.batch", parent, || switch.process_batch(&batch, rb));
            let mut reports: Vec<Report> = tr.leaf("pisa.report_materialize", parent, || {
                (0..batch.len())
                    .flat_map(|i| rb.packet_reports(i, batch).map(|r| r.to_report()))
                    .collect()
            });
            c.reports += reports.len() as u64;
            if self.tcp {
                let frames: Vec<Frame> = reports.into_iter().map(Frame::Report).collect();
                let wire: Vec<Vec<u8>> = tr.leaf("net.report_encode", parent, || {
                    frames.iter().map(encode_frame).collect()
                });
                c.wire_bytes += wire.iter().map(|b| b.len() as u64).sum::<u64>();
                let decoded = tr.leaf("net.report_decode", parent, || {
                    wire.iter()
                        .map(|b| decode_frame(b).map(|(f, _)| f))
                        .collect::<Result<Vec<Frame>, _>>()
                });
                reports = decoded
                    .map_err(|e| format!("report frame decode: {e:?}"))?
                    .into_iter()
                    .filter_map(|f| match f {
                        Frame::Report(r) => Some(r),
                        _ => None,
                    })
                    .collect();
            }

            let mut dump = tr.leaf("pisa.end_window", parent, || switch.end_window());
            c.dump_tuples += dump.tuples.len() as u64;
            if self.tcp {
                let frame = Frame::WindowDump { window, dump };
                let wire = tr.leaf("net.dump_encode", parent, || encode_frame(&frame));
                c.wire_bytes += wire.len() as u64;
                let decoded = tr
                    .leaf("net.dump_decode", parent, || decode_frame(&wire))
                    .map_err(|e| format!("dump frame decode: {e:?}"))?;
                dump = match decoded.0 {
                    Frame::WindowDump { dump, .. } => dump,
                    other => return Err(format!("dump decoded as {}", other.label())),
                };
            }

            tr.leaf("core.emitter_ingest", parent, || {
                for r in &reports {
                    emitter.ingest(r);
                }
            });
            let batches = tr
                .leaf("core.emitter_close", parent, || {
                    emitter.ingest_dump(&dump);
                    emitter.close_window()
                })
                .map_err(|e| format!("shadow emitter close: {e}"))?;
            partials.push((s as u16, batches));
            tr.close(sw_span);
        }

        let batches = if partials.len() > 1 {
            tr.leaf("stream.merge", Some(root), || {
                merge_window_batches(partials)
            })
        } else {
            partials.pop().map(|(_, b)| b).unwrap_or_default()
        };
        c.tuples = batches.iter().map(|(_, b)| b.tuple_count() as u64).sum();
        let engine = &mut self.engine;
        let results = tr
            .leaf("stream.exec", Some(root), || {
                batches
                    .iter()
                    .map(|(job, batch)| engine.submit(*job, batch))
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| format!("shadow stream job: {e}"))?;
        c.jobs = results.len() as u64;
        c.tuples_in = results.iter().map(|r| r.tuples_in as u64).sum();
        c.tuples_out = results.iter().map(|r| r.output.len() as u64).sum();
        Ok(c)
    }
}

/// One replay with observability on, each real window followed by its
/// shadow. Returns per-window counts keyed like the spans, and the
/// number of windows whose shadow tuple count differed.
fn shadow_replay(
    w: &Workload,
    p: &Prepared,
    tr: &mut Tracer,
    counts: &mut BTreeMap<(u32, u64), Counts>,
    notes: &mut Vec<String>,
) -> Result<u64, String> {
    let mut sys = System::new(w, &p.plan, &ObsHandle::enabled())?;
    let mut shadow = Shadow::new(w, p);
    let mut mismatched = 0;
    for (window, packets) in p.windows() {
        tr.window = window;
        let program = sys.program(&p.deployed);
        let t = Instant::now();
        let real = tr.leaf("e2e.window", None, || sys.step(window, packets))?;
        let real_ns = t.elapsed().as_nanos() as u64;

        let root = tr.open("shadow.window", None);
        let owned = tr.leaf("traffic.partition", Some(root), || sys.parts(packets));
        let parts: Vec<&[Packet]> = match &owned {
            Some(parts) => parts.iter().map(Vec::as_slice).collect(),
            None => vec![packets],
        };
        let mut c = shadow.window(tr, root, window, &parts, &program)?;
        tr.close(root);
        c.real_ns = real_ns;
        if c.tuples != real.tuples_to_sp {
            mismatched += 1;
            notes.push(format!(
                "window {window}: shadow pipeline produced {} tuples, the real window {}",
                c.tuples, real.tuples_to_sp
            ));
        }
        counts.insert((tr.replay, window), c);
    }
    Ok(mismatched)
}

/// Shares of the traced wall time per waterfall stage; they sum to 1
/// with `unattributed` as the remainder.
struct Waterfall {
    shares: [f64; 7],
    straggler_gap_us: f64,
}

fn waterfall(traced: Vec<Replay>) -> Waterfall {
    let wall: u64 = traced.iter().map(Replay::wall_ns).sum();
    let total = TelemetryReport {
        windows: traced.into_iter().flat_map(|r| r.reports).collect(),
        ..Default::default()
    };
    let l = total.window_latency();
    let share = |ns: u64| ns as f64 / wall as f64;
    let mut shares = [
        share(l.packet_loop_ns),
        share(l.dump_encode_ns),
        share(l.transport_ns),
        share(l.collector_drain_ns),
        share(l.shard_execute_ns),
        share(l.merge_ns),
        0.0,
    ];
    shares[6] = 1.0 - shares.iter().sum::<f64>();
    let gaps: Vec<f64> = total
        .windows
        .iter()
        .filter(|r| r.latency.arrivals.len() > 1)
        .map(|r| {
            let at = r.latency.arrivals.iter().map(|a| a.close_ns);
            (at.clone().max().unwrap_or(0) - at.min().unwrap_or(0)) as f64 / 1e3
        })
        .collect();
    Waterfall {
        shares,
        straggler_gap_us: stats::median(&gaps),
    }
}

/// Account one plain replay: windows it never completed failed.
fn tally_replay(tally: &mut Tally, r: &Replay, n_windows: u64) {
    tally.attempted += n_windows;
    tally.failed += n_windows - r.reports.len() as u64;
    tally.notes.extend(r.error.clone());
}

/// What the traced run produced.
pub struct Traced {
    /// `(name, value, unit)` of every per-layer metric, in
    /// `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub tally: Tally,
    pub tracer: Tracer,
}

/// Median over the trace's windows of `spans(name) / denominator(window)`,
/// each window taken at its fastest across the shadow replays — the
/// same de-noising as the end-to-end timings.
fn per_window_ratio(
    tr: &Tracer,
    name: &str,
    counts: &BTreeMap<(u32, u64), Counts>,
    denom: impl Fn(&Counts) -> u64,
    scale: f64,
) -> f64 {
    let per = tr.per_window(name);
    let mut best: BTreeMap<u64, f64> = BTreeMap::new();
    for (k, c) in counts.iter().filter(|(_, c)| denom(c) > 0) {
        let ratio = per.get(k).map_or(0.0, |(ns, _)| *ns as f64) / denom(c) as f64 * scale;
        let slot = best.entry(k.1).or_insert(f64::INFINITY);
        *slot = slot.min(ratio);
    }
    stats::median(&best.into_values().collect::<Vec<_>>())
}

/// The traced run for one workload: a traced set-up, untraced/traced
/// replay pairs for the waterfall and the tracing overhead, one
/// allocation-counted replay, then shadow replays, within `seconds`.
pub fn run(w: &Workload, seed: u64, windows: u32, seconds: f64) -> Result<Traced, String> {
    let mut tr = Tracer::new();
    let (p, _) = crate::workloads::prepare(w, seed, windows, &mut tr)?;
    let setup_ns = |name: &str| -> f64 {
        tr.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum()
    };
    let gen_s = setup_ns("traffic.gen") / 1e9;
    let cost_s = setup_ns("planner.cost_estimate") / 1e9;
    let solve_s = setup_ns("planner.solve") / 1e9;
    let deploy_ms = setup_ns("core.deploy") / 1e6;

    let n_windows = p.windows().len() as u64;
    let mut tally = Tally::default();

    // Untraced / traced pairs: the waterfall comes from the traced
    // replays, the overhead from the difference between the two.
    let off = ObsHandle::disabled();
    std::hint::black_box(e2e::replay(w, &p, &off)?);
    let started = Instant::now();
    let mut untraced: Vec<Replay> = Vec::new();
    let mut traced: Vec<Replay> = Vec::new();
    // At least three pairs, and the side that goes first alternates, so
    // neither is always the one that follows a cold start.
    while traced.len() < 3 || started.elapsed().as_secs_f64() < seconds * 0.5 {
        let traced_first = traced.len() % 2 == 1;
        for on in [traced_first, !traced_first] {
            let obs = if on {
                ObsHandle::enabled()
            } else {
                off.clone()
            };
            let r = e2e::replay(w, &p, &obs)?;
            tally_replay(&mut tally, &r, n_windows);
            if on { &mut traced } else { &mut untraced }.push(r);
        }
    }
    // Each window's fastest time on either side, as the end-to-end
    // `pps` is taken.
    let best_ns = |replays: &[Replay]| -> f64 {
        (0..n_windows as usize)
            .filter_map(|i| replays.iter().filter_map(|r| r.window_ns.get(i)).min())
            .sum::<u64>() as f64
    };
    let overhead_pct = (best_ns(&traced) / best_ns(&untraced) - 1.0) * 100.0;
    let wf = waterfall(traced);
    if wf.shares[6] < -1e-3 {
        tally.failed += 1;
        tally.notes.push(format!(
            "waterfall stages exceed the traced wall time by {:.2} %",
            -wf.shares[6] * 100.0
        ));
    }

    // Whole-replay allocation count, tracing on as in the overhead pairs.
    let (counted, allocs, alloc_bytes) =
        alloc::counted(|| e2e::replay(w, &p, &ObsHandle::enabled()));
    let counted = counted?;
    tally_replay(&mut tally, &counted, n_windows);
    let counted_pkts = counted.packets().max(1) as f64;

    // Shadow replays, allocation counting on so every span carries its own.
    let mut counts: BTreeMap<(u32, u64), Counts> = BTreeMap::new();
    alloc::set_enabled(true);
    loop {
        tr.replay += 1;
        tally.attempted += n_windows;
        match shadow_replay(w, &p, &mut tr, &mut counts, &mut tally.notes) {
            Ok(mismatched) => tally.failed += mismatched,
            Err(e) => {
                tally.failed += n_windows;
                tally.notes.push(e);
            }
        }
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    alloc::set_enabled(false);

    let median_of =
        |f: &dyn Fn(&Counts) -> f64| stats::median(&counts.values().map(f).collect::<Vec<_>>());
    let total = |f: &dyn Fn(&Counts) -> u64| counts.values().map(f).sum::<u64>() as f64;
    let pkts = |c: &Counts| c.packets;
    let ns_per_pkt = |name| per_window_ratio(&tr, name, &counts, pkts, 1.0);
    let us_per_window = |name| per_window_ratio(&tr, name, &counts, |_| 1, 1e-3);
    let ns_per_report = |name| per_window_ratio(&tr, name, &counts, |c| c.reports, 1.0);

    let batch_allocs: u64 = tr.per_window("pisa.batch").values().map(|(_, a)| a).sum();
    let own = tr.self_times();
    let staged_ns: u64 = tr
        .spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| WINDOW_LAYER_SPANS.contains(&s.name))
        .map(|(_, own)| own)
        .sum();
    let real_ns = total(&|c| c.real_ns);

    let metrics = vec![
        ("traffic.gen_s", gen_s, "s"),
        (
            "traffic.partition_ns_per_pkt",
            ns_per_pkt("traffic.partition"),
            "ns",
        ),
        ("planner.cost_estimate_s", cost_s, "s"),
        ("planner.solve_s", solve_s, "s"),
        ("core.deploy_ms", deploy_ms, "ms"),
        ("pisa.load_us", us_per_window("pisa.load"), "us"),
        (
            "packet.arena_build_ns_per_pkt",
            ns_per_pkt("packet.arena_build"),
            "ns",
        ),
        (
            "packet.arena_bytes_per_pkt",
            total(&|c| c.arena_bytes) / total(&pkts),
            "B",
        ),
        ("pisa.batch_ns_per_pkt", ns_per_pkt("pisa.batch"), "ns"),
        (
            "pisa.reports_per_kpkt",
            total(&|c| c.reports) * 1000.0 / total(&pkts),
            "count",
        ),
        ("pisa.tasks", p.deployed.program.tasks.len() as f64, "count"),
        (
            "pisa.report_materialize_ns",
            ns_per_report("pisa.report_materialize"),
            "ns",
        ),
        ("pisa.end_window_us", us_per_window("pisa.end_window"), "us"),
        (
            "pisa.dump_tuples_per_window",
            median_of(&|c| c.dump_tuples as f64),
            "count",
        ),
        (
            "net.report_encode_ns",
            ns_per_report("net.report_encode"),
            "ns",
        ),
        (
            "net.report_decode_ns",
            ns_per_report("net.report_decode"),
            "ns",
        ),
        ("net.dump_encode_us", us_per_window("net.dump_encode"), "us"),
        ("net.dump_decode_us", us_per_window("net.dump_decode"), "us"),
        (
            "net.wire_bytes_per_pkt",
            total(&|c| c.wire_bytes) / total(&pkts),
            "B",
        ),
        (
            "core.emitter_ingest_ns_per_report",
            ns_per_report("core.emitter_ingest"),
            "ns",
        ),
        (
            "core.emitter_close_us",
            us_per_window("core.emitter_close"),
            "us",
        ),
        (
            "stream.exec_ns_per_tuple",
            per_window_ratio(&tr, "stream.exec", &counts, |c| c.tuples_in, 1.0),
            "ns",
        ),
        (
            "stream.tuples_in_per_window",
            median_of(&|c| c.tuples_in as f64),
            "count",
        ),
        (
            "stream.tuples_out_per_window",
            median_of(&|c| c.tuples_out as f64),
            "count",
        ),
        (
            "stream.jobs_per_window",
            median_of(&|c| c.jobs as f64),
            "count",
        ),
        ("stream.merge_us", us_per_window("stream.merge"), "us"),
        ("core.wf.packet_loop_share", wf.shares[0], "share"),
        ("core.wf.dump_encode_share", wf.shares[1], "share"),
        ("core.wf.transport_share", wf.shares[2], "share"),
        ("core.wf.collector_drain_share", wf.shares[3], "share"),
        ("core.wf.shard_execute_share", wf.shares[4], "share"),
        ("core.wf.merge_share", wf.shares[5], "share"),
        ("core.wf.unattributed_share", wf.shares[6], "share"),
        ("core.staged_sum_share", staged_ns as f64 / real_ns, "share"),
        ("core.wf.straggler_gap_us", wf.straggler_gap_us, "us"),
        ("alloc.count_per_pkt", allocs as f64 / counted_pkts, "count"),
        (
            "alloc.bytes_per_pkt",
            alloc_bytes as f64 / counted_pkts,
            "B",
        ),
        (
            "pisa.batch_allocs_per_pkt",
            batch_allocs as f64 / total(&pkts),
            "count",
        ),
        ("obs.trace_overhead_pct", overhead_pct, "%"),
    ];
    Ok(Traced {
        metrics,
        tally,
        tracer: tr,
    })
}
