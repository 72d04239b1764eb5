//! Figure 9: the end-to-end Tofino case study — detecting a Zorro
//! telnet attack on victim 99.7.0.25 with a two-level refinement chain
//! (the paper uses * → /24 → /32).
//!
//! Timeline (paper): background traffic flows from t = 0; the attacker
//! starts brute-forcing telnet at t = 10 s; Sonata identifies the
//! victim within one refinement chain (two tuples cross to the stream
//! processor); at t = 13 s the stream processor starts seeing the
//! telnet payloads of the suspected victim only (~100 pps, not 1.5 M);
//! shell access at t = 20 s emits the "zorro" keyword and the attack
//! is confirmed at t = 21 s.

use sonata_bench::{write_csv, ExperimentCtx};
use sonata_core::{Runtime, RuntimeConfig};
use sonata_packet::{format_ipv4, Packet};
use sonata_planner::costs::CostConfig;
use sonata_planner::{plan_queries, PlanMode, PlannerConfig};
use sonata_query::catalog::{self, Thresholds};
use sonata_traffic::trace::actors;
use sonata_traffic::{Attack, BackgroundConfig, Trace};

fn main() {
    let ctx = ExperimentCtx::default();
    let thresholds = Thresholds {
        zorro_pkts: 6,
        zorro_payloads: 0,
        ..Thresholds::default()
    };
    let query = catalog::zorro(&thresholds);

    // 24 s of traffic; attack from t = 10 s, shell at t = 20 s.
    let mut trace = Trace::background(
        &BackgroundConfig {
            duration_ms: 24_000,
            packets: (800_000.0 * ctx.scale) as usize,
            ..BackgroundConfig::default()
        },
        ctx.seed,
    );
    trace.inject(
        &Attack::Zorro {
            victim: actors::ZORRO_VICTIM,
            attacker: actors::ZORRO_ATTACKER,
            telnet_packets: 600,
            packet_len: 32,
            start_ms: 10_000,
            shell_ms: 20_000,
            shell_packets: 5,
        },
        ctx.seed,
    );

    // Force the paper's two-level chain (* → /24 → /32) via Fix-REF on
    // exactly those levels.
    let windows: Vec<&[Packet]> = trace.windows(3_000).map(|(_, p)| p).collect();
    let cfg = PlannerConfig {
        mode: PlanMode::FixRef,
        cost: CostConfig {
            levels: Some(vec![24, 32]),
            ..Default::default()
        },
        ..PlannerConfig::default()
    };
    let plan = plan_queries(std::slice::from_ref(&query), &windows, &cfg).expect("plannable");
    let chain: Vec<u8> = plan.queries[0].levels.iter().map(|l| l.level).collect();
    println!("# Figure 9: Zorro case study (chain * → {chain:?})");
    assert_eq!(chain, vec![24, 32], "the paper's two-level chain");

    let mut rt = Runtime::new(&plan, RuntimeConfig::default()).expect("deployable");
    let report = rt.process_trace(&trace).expect("clean run");

    println!(
        "{:>5} | {:>10} | {:>9} | events",
        "t(s)", "rx switch", "to SP"
    );
    let mut rows = Vec::new();
    let mut victim_identified = None;
    let mut attack_confirmed = None;
    for w in &report.windows {
        let t_end = (w.window + 1) * 3;
        let mut events = Vec::new();
        if w.filter_entries_written > 0 && victim_identified.is_none() {
            victim_identified = Some(t_end);
            events.push("victim prefix identified".to_string());
        }
        for (_, tuples) in &w.alerts {
            for t in tuples {
                attack_confirmed.get_or_insert(t_end);
                events.push(format!(
                    "ATTACK CONFIRMED on {}",
                    format_ipv4(t.get(0).as_u64().unwrap_or(0))
                ));
            }
        }
        println!(
            "{:>5} | {:>10} | {:>9} | {}",
            t_end,
            w.packets,
            w.tuples_to_sp,
            events.join("; ")
        );
        rows.push(format!(
            "{},{},{},{}",
            t_end,
            w.packets,
            w.tuples_to_sp,
            events.join(";")
        ));
    }
    write_csv("fig9_case_study.csv", "t_s,rx_switch,to_sp,events", &rows);

    let _ = victim_identified; // coarse prefixes (incl. benign telnet servers) flow every window
    let ac = attack_confirmed.expect("attack confirmed");
    println!("\nattack confirmed at t = {ac}s (shell access at 20s, keyword right after)");
    // Paper: confirmed ~1 s after the keyword; our windows are 3 s, so
    // confirmation lands at the first boundary after t = 20 s.
    assert!(
        (21..=24).contains(&ac),
        "confirmation right after shell access, got {ac}"
    );
    // The victim's telnet traffic starts reaching the stream processor
    // once the /24 level flags it: tuples to the SP jump after the
    // attack begins (the paper's t = 13 s payload-processing onset).
    let pre: u64 = report.windows.iter().take(3).map(|w| w.tuples_to_sp).sum();
    let post: u64 = report
        .windows
        .iter()
        .skip(4)
        .take(3)
        .map(|w| w.tuples_to_sp)
        .sum();
    println!("tuples→SP before attack: {pre}; during attack: {post}");
    assert!(
        post > pre + pre / 4,
        "attack traffic must visibly reach the stream processor ({pre} → {post})"
    );
    // Needle-in-haystack: tuples to SP ≪ packets. Per-query
    // attribution accounts for every tuple (one query installed).
    let total: u64 = report.total_tuples();
    assert_eq!(total, report.tuples_for(query.id), "per-query attribution");
    let packets: u64 = report.total_packets();
    assert!(total * 20 < packets, "{total} tuples for {packets} packets");
    println!("{packets} packets → {total} tuples at the stream processor");
}
