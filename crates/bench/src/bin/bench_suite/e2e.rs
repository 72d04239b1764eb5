//! End-to-end measurement: closed-loop replays of the pinned trace on
//! one load thread, tracing and allocation counting off, every window
//! one latency sample — plus the output checks that decide `failed`.

use crate::stats;
use crate::workloads::{Prepared, System, Workload};
use sonata_core::WindowReport;
use sonata_obs::ObsHandle;
use sonata_packet::Value;
use sonata_planner::PlanMode;
use sonata_query::catalog::Thresholds;
use sonata_traffic::Attack;
use std::time::Instant;

/// FNV-1a, 64-bit: the report digest must not depend on `Debug`
/// formatting or on the process's hash seed.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Digest of one window's report over `(window, packets, tuples_to_sp,
/// sorted alerts)`.
pub fn window_digest(r: &WindowReport) -> u64 {
    let mut h = Fnv::new();
    h.u64(r.window);
    h.u64(r.packets);
    h.u64(r.tuples_to_sp);
    let mut alerts: Vec<_> = r.alerts.iter().collect();
    alerts.sort_by_key(|(q, _)| *q);
    for (q, tuples) in alerts {
        h.u64(u64::from(q.0));
        h.u64(tuples.len() as u64);
        let mut tuples: Vec<_> = tuples.iter().collect();
        tuples.sort();
        for t in tuples {
            h.u64(t.len() as u64);
            for v in t.values() {
                match v {
                    Value::U64(x) => {
                        h.u64(0);
                        h.u64(*x);
                    }
                    Value::Text(s) => {
                        h.u64(1);
                        h.u64(s.len() as u64);
                        h.bytes(s.as_bytes());
                    }
                    Value::Bytes(b) => {
                        h.u64(2);
                        h.u64(b.len() as u64);
                        h.bytes(b);
                    }
                }
            }
        }
    }
    h.0
}

/// Digest of a whole replay: the window digests in order.
pub fn replay_digest(windows: &[u64]) -> u64 {
    let mut h = Fnv::new();
    for d in windows {
        h.u64(*d);
    }
    h.0
}

/// One pass over the trace on a fresh system.
pub struct Replay {
    /// Wall time of each completed window's `step`.
    pub window_ns: Vec<u64>,
    pub reports: Vec<WindowReport>,
    /// The first `step` error; the replay stops there.
    pub error: Option<String>,
}

impl Replay {
    pub fn packets(&self) -> u64 {
        self.reports.iter().map(|r| r.packets).sum()
    }

    pub fn tuples(&self) -> u64 {
        self.reports.iter().map(|r| r.tuples_to_sp).sum()
    }

    pub fn wall_ns(&self) -> u64 {
        self.window_ns.iter().sum()
    }

    pub fn digests(&self) -> Vec<u64> {
        self.reports.iter().map(window_digest).collect()
    }
}

/// Replay the trace once: a fresh `Runtime`/`Fabric` (untimed), then
/// `step` window by window, each timed on its own.
pub fn replay(w: &Workload, p: &Prepared, obs: &ObsHandle) -> Result<Replay, String> {
    let mut sys = System::new(w, &p.plan, obs)?;
    let windows = p.windows();
    let mut out = Replay {
        window_ns: Vec::with_capacity(windows.len()),
        reports: Vec::with_capacity(windows.len()),
        error: None,
    };
    for (window, packets) in windows {
        let t = Instant::now();
        let r = sys.step(window, packets);
        let ns = t.elapsed().as_nanos() as u64;
        match r {
            Ok(report) => {
                out.window_ns.push(ns);
                out.reports.push(report);
            }
            Err(e) => {
                out.error = Some(e);
                break;
            }
        }
    }
    Ok(out)
}

/// What an injected attack should make an installed query alert on.
struct Expected {
    queries: &'static [&'static str],
    /// The address the alert must carry.
    actor: u32,
    /// Whether a refinement plan is bound to find it. A miss of an
    /// attack that is not is printed, but fails no window.
    refinable: bool,
}

/// `None` for attacks no plan can be held to: those keyed on text
/// (fast-flux domains) have no address to look for, and
/// `EvaluationTrace` spreads the port scan's fixed 120 ports × 2 targets
/// over the whole trace instead of scaling them with the window count —
/// at 16 windows a window sees ~15 distinct ports against a threshold of
/// 40, so not even the exact interpreter alerts on it. The port scan is
/// expected only when a window can hold the needle.
///
/// Slowloris is expected but not `refinable`: its threshold is on a
/// ratio (connections per KB), which a coarser prefix does not bound
/// from above — the SYN-flood victim's bytes share the /8 and pull the
/// ratio down — so on 8 of 313 seeds tried (0, 75, 88, 190, 196, 219,
/// 276, 123456818) the thresholds trained on the first two windows never
/// zoom in on the victim, while All-SP alerts on it in every window.
/// That is the program's answer on those traces, the same on every
/// replay, not a fault of the run.
fn expected_alert(a: &Attack, windows: u64) -> Option<Expected> {
    let (queries, actor): (&'static [&'static str], u32) = match a {
        Attack::PortScan { ports, targets, .. }
            if u64::from(*ports) * targets.len() as u64 / windows
                <= Thresholds::default().port_scan =>
        {
            return None
        }
        Attack::FastFlux { .. } => return None,
        Attack::SynFlood { victim, .. } => (
            &[
                "newly_opened_tcp_conns",
                "tcp_syn_flood",
                "tcp_incomplete_flows",
            ],
            *victim,
        ),
        Attack::SshBruteForce { victim, .. } => (&["ssh_brute_force"], *victim),
        Attack::Superspreader { source, .. } => (&["superspreader"], *source),
        Attack::PortScan { scanner, .. } => (&["port_scan"], *scanner),
        Attack::Ddos { victim, .. } => (&["ddos"], *victim),
        Attack::Slowloris { victim, .. } => (&["slowloris"], *victim),
        Attack::DnsTunneling { client, .. } => (&["dns_tunneling"], *client),
        Attack::Zorro { victim, .. } => (&["zorro"], *victim),
        Attack::DnsReflection { victim, .. } => (&["dns_reflection"], *victim),
    };
    Some(Expected {
        queries,
        actor,
        refinable: !matches!(a, Attack::Slowloris { .. }),
    })
}

/// Every `(attack, query)` pair whose query is installed but never
/// alerted on the attack's address by the last window: first those that
/// fail the replay, then those that are only noted.
pub fn missed_attacks(p: &Prepared, reports: &[WindowReport]) -> (Vec<String>, Vec<String>) {
    let mut missed = Vec::new();
    let mut noted = Vec::new();
    for attack in &p.ev.attacks {
        let Some(expected) = expected_alert(attack, reports.len() as u64) else {
            continue;
        };
        for q in p
            .queries
            .iter()
            .filter(|q| expected.queries.contains(&q.name.as_str()))
        {
            let found = reports
                .iter()
                .flat_map(|r| &r.alerts)
                .filter(|(id, _)| *id == q.id)
                .flat_map(|(_, tuples)| tuples)
                .any(|t| {
                    t.values()
                        .iter()
                        .any(|v| v.as_u64() == Some(u64::from(expected.actor)))
                });
            if !found {
                let line = format!("{} not alerted by {}", attack.label(), q.name);
                if expected.refinable {
                    missed.push(line);
                } else {
                    noted.push(format!(
                        "{line} (refinement cannot bound its ratio threshold)"
                    ));
                }
            }
        }
    }
    (missed, noted)
}

/// Windows attempted and failed so far in a run, and why.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Why windows failed.
    pub notes: Vec<String>,
    /// Findings that fail no window.
    pub remarks: Vec<String>,
}

/// What the timed replays measured and checked.
///
/// The box this runs on changes speed in phases of a second to minutes
/// (a pure arithmetic loop swings 28 → 41 ms there), and the swings only
/// ever slow a window down. A median over replays follows the phases —
/// its run-to-run spread was 22 %, the plain p90 over all windows 33 % —
/// so every timing is taken from each window's **fastest** time across
/// the timed replays, which a phase has to last the whole run to move
/// (spreads of 2–6 % on the same runs).
pub struct Measured {
    /// Wall time of every window of each completed timed replay, ms.
    pub replays_ms: Vec<Vec<f64>>,
    pub packets_per_replay: u64,
    pub tuples_per_replay: u64,
    /// Digest of replay 1.
    pub digest: u64,
    pub tally: Tally,
}

impl Measured {
    pub fn tuples_per_kpkt(&self) -> f64 {
        self.tuples_per_replay as f64 * 1000.0 / self.packets_per_replay as f64
    }

    /// Packets per second of each completed timed replay.
    pub fn pps_per_replay(&self) -> Vec<f64> {
        self.replays_ms
            .iter()
            .map(|ms| self.packets_per_replay as f64 * 1000.0 / ms.iter().sum::<f64>())
            .collect()
    }

    /// Each window's fastest time across the timed replays, ms, in
    /// trace order.
    pub fn window_best_ms(&self) -> Vec<f64> {
        let windows = self.replays_ms.iter().map(Vec::len).min().unwrap_or(0);
        (0..windows)
            .map(|w| {
                self.replays_ms
                    .iter()
                    .map(|r| r[w])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    }

    /// Packets of one replay over the sum of the windows' fastest times.
    pub fn pps(&self) -> f64 {
        self.packets_per_replay as f64 * 1000.0 / self.window_best_ms().iter().sum::<f64>()
    }
}

/// Warm up, then replay until both `min_replays` and `seconds` are
/// reached. A window fails if `step` errors, if its digest differs
/// from replay 1's, if replay 1 differs from `golden`, or — on Sonata
/// plans — if an installed query never alerts on an injected attack
/// that refinement is bound to find.
pub fn measure(
    w: &Workload,
    p: &Prepared,
    seconds: f64,
    min_replays: usize,
    warmups: usize,
    golden: Option<u64>,
) -> Result<Measured, String> {
    let obs = ObsHandle::disabled();
    // Warm-up: up to `warmups` replays, but no more than ~2 s of them —
    // every replay starts from a fresh system, so what warms is the
    // allocator and the caches, and one slow TCP replay does that.
    let warm_started = Instant::now();
    for i in 0..warmups {
        if i > 0 && warm_started.elapsed().as_secs_f64() > 2.0 {
            break;
        }
        std::hint::black_box(replay(w, p, &obs)?);
    }

    let n_windows = p.windows().len() as u64;
    let mut m = Measured {
        replays_ms: Vec::new(),
        packets_per_replay: 0,
        tuples_per_replay: 0,
        digest: 0,
        tally: Tally::default(),
    };
    let mut first: Vec<u64> = Vec::new();
    let mut replays = 0;
    let started = Instant::now();
    while replays < min_replays || started.elapsed().as_secs_f64() < seconds {
        let r = replay(w, p, &obs)?;
        replays += 1;
        let digests = r.digests();
        m.tally.attempted += n_windows;
        let mut failed = n_windows - r.reports.len() as u64;
        if let Some(e) = &r.error {
            m.tally.notes.push(format!("replay {replays}: {e}"));
        }
        if first.is_empty() {
            first = digests.clone();
            m.digest = replay_digest(&digests);
            m.packets_per_replay = r.packets();
            m.tuples_per_replay = r.tuples();
            if golden.is_some_and(|g| g != m.digest) {
                m.tally.notes.push(format!(
                    "replay 1 digest {:016x} differs from the golden digest",
                    m.digest
                ));
                failed = n_windows;
            }
            if w.mode == PlanMode::Sonata && r.error.is_none() {
                let (missed, noted) = missed_attacks(p, &r.reports);
                failed = (failed + missed.len() as u64).min(n_windows);
                m.tally.notes.extend(missed);
                m.tally.remarks.extend(noted);
            }
        } else {
            let differing = digests.iter().zip(&first).filter(|(a, b)| a != b).count() as u64;
            if differing > 0 {
                m.tally.notes.push(format!(
                    "replay {replays}: {differing} window digests differ from replay 1"
                ));
            }
            failed += differing;
        }
        m.tally.failed += failed;
        if r.error.is_none() {
            m.replays_ms
                .push(r.window_ns.iter().map(|ns| *ns as f64 / 1e6).collect());
        }
    }
    if m.replays_ms.is_empty() {
        return Err(format!(
            "{}: no replay completed: {:?}",
            w.name, m.tally.notes
        ));
    }
    Ok(m)
}

/// Peak resident set of this process so far (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(name, value, unit)` of every end-to-end metric, in
/// `BENCHMARK.json` order.
pub fn metrics(m: &Measured, setup_s: f64) -> Vec<(&'static str, f64, &'static str)> {
    let windows = m.window_best_ms();
    vec![
        ("pps", m.pps(), "1/s"),
        ("window_ms_p50", stats::percentile(&windows, 0.5), "ms"),
        ("window_ms_p90", stats::percentile(&windows, 0.9), "ms"),
        ("tuples_per_kpkt", m.tuples_per_kpkt(), "count"),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sonata_traffic::trace::EvaluationTrace;

    #[test]
    fn only_a_missed_slowloris_is_noted_and_not_failed() {
        let ev = EvaluationTrace::generate(1, 2, 3_000, 0.02);
        let mut lossy = Vec::new();
        for a in &ev.attacks {
            match expected_alert(a, 16) {
                Some(e) if !e.refinable => lossy.push(a.label()),
                Some(e) => assert!(!e.queries.is_empty(), "{}", a.label()),
                None => assert_eq!(a.label(), "port_scan"),
            }
        }
        assert_eq!(lossy, ["slowloris"]);
    }
}
