//! Quickstart: detect a SYN flood with the paper's Query 1.
//!
//! Builds a synthetic backbone trace, injects a SYN flood, plans the
//! query against a training window, and runs the full switch +
//! stream-processor system — printing the victims it finds and the
//! load reduction the data plane bought.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! Set `SONATA_OBS_DIR=<dir>` to also run with observability enabled
//! and export what it collected there as two files: `metrics.json`
//! (every counter, gauge and histogram, keyed `name{labels}`; fabric
//! runs carry `switch=`/`shard=`/`peer=` labels) and `events.jsonl`
//! (the structured event log, distributed-trace spans included).
//!
//! Pass `--net` to run the deployment topology instead of the
//! in-process default: the switch and the stream processor talk only
//! through the `sonata-net` wire protocol over a localhost TCP socket.
//! The outputs are bit-identical — the run additionally prints the
//! transport counters:
//!
//! ```sh
//! cargo run --release --example quickstart -- --net
//! ```
//!
//! Pass `--fabric NxM` to run the multi-switch fabric instead of a
//! single runtime: the trace is flow-hash partitioned over N switch
//! instances feeding M collector shards, and the partial per-switch
//! window states are merged at the collector. The detections are the
//! same as the 1×1 run:
//!
//! ```sh
//! cargo run --release --example quickstart -- --fabric 2x2
//! ```
//!
//! Pass `--sketch [layout]` to swap the stateful registers for the
//! approximate layouts from `sonata-sketch` (`count-min` — the
//! default, `bloom`, `hll`; `exact` is the no-op reference knob).
//! Each window's report then carries the per-query `(ε, δ)` error
//! bound actually incurred, printed next to the detections. Composes
//! with `--fabric`, where the per-switch bounds are folded at the
//! collector:
//!
//! ```sh
//! cargo run --release --example quickstart -- --sketch count-min --fabric 2x2
//! ```
//!
//! Pass `--drift <scenario>` to watch the closed replanning loop
//! instead of a static run: the system plans on quiet traffic, then
//! runs a [`DriftWorkload`] whose distribution shifts mid-run
//! (`diurnal` ramp, `flash` crowd, `attack` onset; `quiet` arms the
//! loop on undrifted traffic to show it stays inert). The drift
//! monitor fires a trigger, the DP planner re-plans the re-costed
//! catalog off the hot path, and the epoch-bumped plan swaps in at a
//! window boundary — the run prints the trigger, the swap, the
//! per-window epoch, and the recovered divergence. Composes with
//! `--fabric`:
//!
//! ```sh
//! cargo run --release --example quickstart -- --fabric 2x2 --drift attack
//! ```

use sonata::obs::EventKind;
use sonata::packet::format_ipv4;
use sonata::prelude::*;

/// Parse `--fabric NxM` from the command line, if present.
fn fabric_arg() -> Option<TopologyConfig> {
    let mut args = std::env::args();
    args.find(|a| a == "--fabric")?;
    let spec = args.next().unwrap_or_else(|| "2x2".into());
    let (n, m) = spec.split_once('x').unwrap_or((spec.as_str(), "1"));
    Some(TopologyConfig::new(
        n.parse().expect("--fabric NxM: N must be a number"),
        m.parse().expect("--fabric NxM: M must be a number"),
    ))
}

/// Parse `--sketch [layout]` from the command line, if present. The
/// layout operand is optional (bare `--sketch` means `count-min`), so
/// `--sketch --fabric 2x2` keeps working.
fn sketch_arg() -> Option<StateLayout> {
    let mut args = std::env::args();
    args.find(|a| a == "--sketch")?;
    match args.next() {
        Some(s) if !s.starts_with("--") => Some(StateLayout::parse(&s).unwrap_or_else(|| {
            panic!("--sketch: unknown layout {s:?} (exact|count-min|bloom|hll)")
        })),
        _ => Some(StateLayout::CountMin),
    }
}

/// Parse `--drift <scenario>` from the command line, if present.
/// `Some(None)` is the `quiet` control: loop armed, traffic undrifted.
fn drift_arg() -> Option<Option<DriftScenario>> {
    let mut args = std::env::args();
    args.find(|a| a == "--drift")?;
    let name = args.next().unwrap_or_else(|| "attack".into());
    if name == "quiet" {
        return Some(None);
    }
    Some(Some(DriftScenario::from_name(&name).unwrap_or_else(|| {
        panic!("--drift: unknown scenario {name:?} (quiet|diurnal|flash|attack)")
    })))
}

fn main() {
    let net = std::env::args().any(|a| a == "--net");
    let fabric = fabric_arg();
    let drift = drift_arg();
    let sketch = sketch_arg();

    // --- 1. The query -------------------------------------------------
    // packetStream.filter(tcp.flags == SYN)
    //             .map(p => (p.dIP, 1))
    //             .reduce(keys=(dIP,), sum)
    //             .filter(count > 40)
    let thresholds = Thresholds::default();
    let query = catalog::newly_opened_tcp_conns(&thresholds);
    println!("Query:\n{query}");
    // Drift runs add the convergence suite's companions so the monitor
    // watches a multi-query channel-load vector, as in the paper's
    // multi-query deployments.
    let queries = if drift.is_some() {
        vec![
            query.clone(),
            catalog::superspreader(&thresholds),
            catalog::ddos(&thresholds),
        ]
    } else {
        vec![query.clone()]
    };

    // --- 2. The traffic -----------------------------------------------
    let victim = sonata::traffic::trace::actors::SYN_FLOOD_VICTIM;
    let workload = drift.as_ref().map(|scenario| DriftWorkload {
        onset_window: 2,
        packets_per_window: 4_000,
        ..DriftWorkload::new(
            scenario.clone().unwrap_or_else(DriftScenario::attack_onset),
            8,
            3_000,
        )
    });
    let trace = if let (Some(wl), Some(scenario)) = (&workload, &drift) {
        println!(
            "\ndrift: {} from window {} ({} windows total)",
            scenario.as_ref().map_or("quiet", |s| s.name()),
            wl.onset_window,
            wl.windows
        );
        if scenario.is_some() {
            wl.generate(42)
        } else {
            wl.training(42)
        }
    } else {
        let mut trace = Trace::background(
            &BackgroundConfig {
                duration_ms: 9_000,
                packets: 60_000,
                ..BackgroundConfig::default()
            },
            42,
        );
        trace.inject(
            &Attack::SynFlood {
                victim,
                port: 80,
                packets: 3_000,
                sources: 1_500,
                ack_fraction: 0.04,
                fin_fraction: 0.02,
                start_ms: 0,
                duration_ms: 8_500,
            },
            42,
        );
        trace
    };
    let stats = trace.stats();
    println!(
        "Trace: {} packets, {} distinct destinations, {:.1} MB",
        stats.packets,
        stats.distinct_destinations,
        stats.bytes as f64 / 1e6
    );

    // --- 3. Planning ---------------------------------------------------
    // Drift runs plan on the workload's quiet trace — the whole point
    // is that the traffic the plan meets is not the traffic it was
    // built for.
    let quiet = workload.as_ref().map(|wl| wl.training(42));
    let training: Vec<&[sonata::packet::Packet]> = quiet
        .as_ref()
        .unwrap_or(&trace)
        .windows(3_000)
        .map(|(_, p)| p)
        .collect();
    let plan =
        plan_queries(&queries, &training, &PlannerConfig::default()).expect("planning succeeds");
    println!("\n{plan}");
    // Arm the replanning loop: same training windows, so the observed
    // drift is measured against exactly what the plan predicted.
    let replan = if drift.is_some() {
        ReplanConfig {
            replanner: Some(
                Replanner::from_training(&queries, &training, PlannerConfig::default(), 4)
                    .expect("replanner from training"),
            ),
            swap_delay: 2,
        }
    } else {
        ReplanConfig::default()
    };

    // --- 4. Execution --------------------------------------------------
    // With SONATA_OBS_DIR set, collect metrics + events for export.
    // `--net` forces observability on so the transport counters below
    // have something to read.
    let obs_dir = std::env::var_os("SONATA_OBS_DIR").map(std::path::PathBuf::from);
    // `--drift` forces observability on too: the replan narration
    // below reads the trigger and swap events.
    let obs = if obs_dir.is_some() || net || drift.is_some() {
        ObsHandle::enabled()
    } else {
        ObsHandle::disabled()
    };
    let transport = if net {
        TransportKind::Tcp
    } else {
        TransportKind::Loopback
    };
    if let Some(layout) = sketch {
        println!("\nstate layout: {layout} (approximate registers, planner-visible bounds)");
    }
    let config = RuntimeConfig {
        obs: obs.clone(),
        transport,
        topology: fabric.clone(),
        replan,
        sketch: sketch
            .map(|layout| SketchConfig { layout })
            .unwrap_or_default(),
        ..RuntimeConfig::default()
    };
    let report = if let Some(topo) = &fabric {
        // Multi-switch fabric: N flow-sticky partitions, M shards,
        // partial window states merged at the collector.
        println!(
            "\ntopology: {} switches x {} collector shards",
            topo.switches, topo.shards
        );
        let mut fab = Fabric::new(&plan, config).expect("deployable plan");
        fab.process_trace(&trace).expect("clean run")
    } else {
        if net {
            println!("\ntransport: tcp (switch and stream processor at either end of a socket)");
        }
        let mut runtime = Runtime::new(&plan, config).expect("deployable plan");
        runtime.process_trace(&trace).expect("clean run")
    };

    if drift.is_some() {
        println!("window | epoch | packets | tuples→SP | alerts");
    } else {
        println!("window | packets | tuples→SP | alerts");
    }
    for w in &report.windows {
        let hosts: Vec<String> = w
            .alerts
            .iter()
            .flat_map(|(_, tuples)| tuples)
            .map(|t| {
                format!(
                    "{} ({} SYNs)",
                    format_ipv4(t.get(0).as_u64().unwrap_or(0)),
                    t.get(1)
                )
            })
            .collect();
        let hosts = if hosts.is_empty() {
            "-".to_string()
        } else {
            hosts.join(", ")
        };
        if drift.is_some() {
            println!(
                "{:>6} | {:>5} | {:>7} | {:>9} | {}",
                w.window, w.epoch, w.packets, w.tuples_to_sp, hosts
            );
        } else {
            println!(
                "{:>6} | {:>7} | {:>9} | {}",
                w.window, w.packets, w.tuples_to_sp, hosts
            );
        }
    }
    let reduction = report.total_packets() as f64 / report.total_tuples().max(1) as f64;
    println!(
        "\n{} packets → {} tuples at the stream processor ({reduction:.0}× reduction)",
        report.total_packets(),
        report.total_tuples()
    );
    // With approximate registers on, every detection above comes with
    // the error contract it was made under: the loosest `(ε, δ)` of
    // the query's registers plus the stream mass the bound scales
    // with. Fabric runs fold the per-switch bounds at the collector.
    if sketch.is_some() {
        println!("\nerror bounds (per query, loosest contributing register):");
        println!("window | query | layout | epsilon | delta | mass | saturated");
        for w in &report.windows {
            for b in &w.error_bounds {
                let name = queries
                    .iter()
                    .find(|q| q.id == b.query)
                    .map_or("?", |q| q.name.as_str());
                println!(
                    "{:>6} | {name} ({}) | {:>9} | {:>7.4} | {:>5.3} | {:>8} | {}",
                    w.window,
                    b.query,
                    b.layout.name(),
                    b.epsilon,
                    b.delta,
                    b.mass,
                    if b.saturated { "SATURATED" } else { "ok" }
                );
            }
        }
        if report.windows.iter().all(|w| w.error_bounds.is_empty()) {
            println!("  (none: exact layout incurs no approximation)");
        }
    }
    // The SYN-flood victim is only in the traffic for the static run
    // and the attack-onset drift.
    let has_flood = match &drift {
        None => true,
        Some(Some(DriftScenario::AttackOnset { .. })) => true,
        Some(_) => false,
    };
    if has_flood {
        let detected = report
            .alerts_for(query.id)
            .iter()
            .any(|(_, t)| t.get(0).as_u64() == Some(victim as u64));
        println!(
            "victim {} {}",
            format_ipv4(victim as u64),
            if detected { "DETECTED" } else { "missed" }
        );
    }

    // --- Watching the replan -------------------------------------------
    if drift.is_some() {
        println!("\nreplanning loop:");
        for e in obs.events().iter() {
            match &e.kind {
                EventKind::ReplanTrigger { window, divergence } => {
                    println!("  trigger at window {window} (divergence {divergence:.2})");
                }
                EventKind::PlanSwap { window, epoch, .. } => {
                    println!("  swap at window {window} → epoch {epoch}");
                }
                _ => {}
            }
        }
        let divergence = report.metrics.gauge("sonata_plan_divergence").unwrap_or(0);
        let threshold_mille = (DriftConfig::default().threshold * 1000.0) as u64;
        if report.windows.iter().any(|w| w.epoch > 0) {
            println!(
                "  recovered divergence {divergence}\u{2030} (threshold {threshold_mille}\u{2030})"
            );
        } else {
            println!(
                "  no swap: divergence stayed at {divergence}\u{2030} (threshold {threshold_mille}\u{2030})"
            );
        }
    }

    if obs.is_enabled() {
        // The window latency waterfall: every number below is the
        // same one the sonata_stage_ns histograms observed, and the
        // same spans land in events.jsonl.
        let lat = report.window_latency();
        println!("\nlatency waterfall (run totals):");
        for (stage, ns) in [
            ("packet_loop", lat.packet_loop_ns),
            ("window_dump", lat.dump_encode_ns),
            ("transport", lat.transport_ns),
            ("collector_drain", lat.collector_drain_ns),
            ("shard_execute", lat.shard_execute_ns),
            ("merge", lat.merge_ns),
        ] {
            println!("  {stage:>15} {:>10.3} ms", ns as f64 / 1e6);
        }
        if let Some(last) = report.windows.last() {
            if let Some(straggler) = last.latency.straggler() {
                println!(
                    "  window {} straggler: switch-{}",
                    last.window, straggler.switch
                );
            }
        }
    }

    if net {
        println!("\ntransport counters:");
        for (key, value) in report
            .metrics
            .counters
            .iter()
            .chain(&report.metrics.gauges)
            .filter(|(key, _)| key.starts_with("sonata_net_"))
        {
            println!("  {key} = {value}");
        }
    }

    // --- 5. Observability export ---------------------------------------
    if let Some(dir) = obs_dir {
        std::fs::create_dir_all(&dir).expect("create obs dir");
        let snapshot = &report.metrics;
        // Validate with the in-tree schema checker before writing, so
        // a CI artifact is a checked artifact.
        let metrics = snapshot.to_json();
        sonata::obs::validate_snapshot_json(&metrics).expect("snapshot JSON schema");
        std::fs::write(dir.join("metrics.json"), metrics).unwrap();
        std::fs::write(dir.join("events.jsonl"), obs.events_jsonl()).unwrap();
        println!(
            "\nobservability: {} counters, {} events → {}",
            snapshot.counters.len(),
            obs.events().len(),
            dir.display()
        );
    }
}
