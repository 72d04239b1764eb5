//! Deterministic fault injection for the Sonata runtime.
//!
//! Sonata's evaluation assumes a lossless, fail-stop-free world: every
//! switch report reaches the emitter, every stream job finishes its
//! window, every dynamic-filter write lands. This crate supplies the
//! adversary: a seed-deterministic [`FaultInjector`] threaded through
//! `RuntimeConfig` (the same shape as `ObsHandle` in `sonata-obs`)
//! that can, per window and per seed,
//!
//! - drop / duplicate / reorder / delay switch→runtime report tuples
//!   at the `Switch` egress,
//! - crash or stall individual stream jobs mid-window, and
//! - fail dynamic-filter boundary writes.
//!
//! Every decision is a pure function of `(seed, window, site,
//! sequence-number)` via a splitmix64 hash — never of wall-clock time,
//! thread interleaving, or worker count — so the same plan and seed
//! produce the same faults (and therefore the same degraded-window
//! markers) across 1/2/4/8 workers and across reruns. The injector
//! only *decides*; the switch, engine, and runtime carry out the
//! faults and their graceful-degradation responses.
//!
//! A disabled injector (`FaultPlan::none()`) is a `None` handle: no
//! allocation, no lock, no hashing — the hot path pays one branch,
//! exactly like a disabled `ObsHandle`.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Every fault kind the injector can produce, used both for plan
/// bookkeeping and for the `sonata_faults_injected{kind=...}` metric
/// label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// A switch report silently lost at egress.
    ReportDrop,
    /// A switch report delivered twice.
    ReportDuplicate,
    /// A switch report displaced behind the next packet's reports.
    ReportReorder,
    /// A switch report held back `delay_packets` packets.
    ReportDelay,
    /// A delayed report still undelivered at window close — dropped
    /// rather than misattributed to the next window.
    ReportLateDrop,
    /// A shard worker killed mid-window.
    WorkerCrash,
    /// A shard worker paused for `stall_ms` before executing.
    WorkerStall,
    /// A dynamic-filter boundary write rejected by the switch.
    BoundaryWriteFail,
}

impl FaultKind {
    /// Every kind, in metric-label order.
    pub const ALL: [FaultKind; 8] = [
        FaultKind::ReportDrop,
        FaultKind::ReportDuplicate,
        FaultKind::ReportReorder,
        FaultKind::ReportDelay,
        FaultKind::ReportLateDrop,
        FaultKind::WorkerCrash,
        FaultKind::WorkerStall,
        FaultKind::BoundaryWriteFail,
    ];

    /// Stable snake_case name, used as the `kind` metric label.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::ReportDrop => "report_drop",
            FaultKind::ReportDuplicate => "report_duplicate",
            FaultKind::ReportReorder => "report_reorder",
            FaultKind::ReportDelay => "report_delay",
            FaultKind::ReportLateDrop => "report_late_drop",
            FaultKind::WorkerCrash => "worker_crash",
            FaultKind::WorkerStall => "worker_stall",
            FaultKind::BoundaryWriteFail => "boundary_write_fail",
        }
    }

    fn index(self) -> usize {
        FaultKind::ALL.iter().position(|k| *k == self).unwrap()
    }
}

/// Per-kind injected-fault counts for one window (or a whole run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultRecord {
    counts: [u64; 8],
}

impl FaultRecord {
    /// Count for one kind.
    pub fn get(&self, kind: FaultKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Add `n` injections of `kind`.
    pub fn bump(&mut self, kind: FaultKind, n: u64) {
        self.counts[kind.index()] += n;
    }

    /// Total injections across all kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// True when nothing was injected.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// `(kind, count)` pairs in [`FaultKind::ALL`] order.
    pub fn pairs(&self) -> impl Iterator<Item = (FaultKind, u64)> + '_ {
        FaultKind::ALL.iter().map(|k| (*k, self.get(*k)))
    }

    /// Fold another record into this one.
    pub fn merge(&mut self, other: &FaultRecord) {
        for (dst, src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += *src;
        }
    }
}

/// Report-level faults at the switch egress. Probabilities are
/// per-mille (‰) so integer arithmetic stays exact; at most one fault
/// applies per report, chosen by partitioning a single 0..1000 roll in
/// the order drop, duplicate, delay, reorder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReportFaults {
    /// ‰ chance a report is silently dropped.
    pub drop_per_mille: u32,
    /// ‰ chance a report is delivered twice.
    pub duplicate_per_mille: u32,
    /// ‰ chance a report is held back [`Self::delay_packets`] packets
    /// (late survivors are dropped at window close, never leaked into
    /// the next window).
    pub delay_per_mille: u32,
    /// ‰ chance a report is displaced behind the next packet's reports
    /// (a one-packet delay).
    pub reorder_per_mille: u32,
    /// How many packets a delayed report is held back (0 ⇒ 4).
    pub delay_packets: u64,
}

impl ReportFaults {
    fn is_none(&self) -> bool {
        self.drop_per_mille == 0
            && self.duplicate_per_mille == 0
            && self.delay_per_mille == 0
            && self.reorder_per_mille == 0
    }

    /// Effective hold-back distance for delayed reports.
    pub fn effective_delay_packets(&self) -> u64 {
        if self.delay_packets == 0 {
            4
        } else {
            self.delay_packets
        }
    }
}

/// Job-level faults in the stream engine. Crash selection
/// is per `(window, job)`; a selected job crashes on its first
/// [`Self::consecutive_crashes`] submit attempts and runs on the next,
/// so `1` is recovered by respawn-and-retry and `2` forces the
/// runtime's single-mode fallback.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerFaults {
    /// ‰ chance per `(window, job)` that the job crashes.
    pub crash_per_mille: u32,
    /// How many consecutive attempts crash once selected (0 ⇒ 1).
    pub consecutive_crashes: u32,
    /// ‰ chance per `(window, job)` that the job stalls for
    /// [`Self::stall_ms`] before running.
    pub stall_per_mille: u32,
    /// Stall duration in milliseconds (0 ⇒ 5).
    pub stall_ms: u64,
}

impl WorkerFaults {
    fn is_none(&self) -> bool {
        self.crash_per_mille == 0 && self.stall_per_mille == 0
    }

    /// Effective consecutive-crash count for a selected job.
    pub fn effective_consecutive(&self) -> u32 {
        self.consecutive_crashes.max(1)
    }

    /// Effective stall duration.
    pub fn effective_stall_ms(&self) -> u64 {
        if self.stall_ms == 0 {
            5
        } else {
            self.stall_ms
        }
    }
}

/// Dynamic-filter boundary-write faults. Selection is per window; a
/// selected window fails the first [`Self::consecutive`] write
/// attempts, so values within the runtime's retry bound are recovered
/// by retry-with-backoff and larger values force the update to be
/// skipped for the window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoundaryFaults {
    /// ‰ chance per window that the boundary write fails.
    pub fail_per_mille: u32,
    /// How many consecutive attempts fail once selected (0 ⇒ 1).
    pub consecutive: u32,
}

impl BoundaryFaults {
    fn is_none(&self) -> bool {
        self.fail_per_mille == 0
    }

    /// Effective consecutive-failure count for a selected window.
    pub fn effective_consecutive(&self) -> u32 {
        self.consecutive.max(1)
    }
}

/// A complete, serializable-by-hand description of what to inject.
/// `FaultPlan::none()` (the default) disables everything and makes the
/// injector a no-op `None` handle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for every fault decision. Two runs with the same plan are
    /// identical; changing the seed re-rolls every site.
    pub seed: u64,
    /// Restrict report and worker faults to one source query (raw
    /// query id; refinement-job ids `source*1000+level` match their
    /// source). `None` targets every query. Boundary faults are
    /// per-window and ignore the target.
    pub target_query: Option<u32>,
    /// Restrict switch-scoped faults (the egress report seam) to one
    /// fabric switch: [`FaultInjector::for_switch`] yields a disabled
    /// handle on every other switch. `None` faults every switch.
    /// Single-switch runtimes are switch 0.
    pub target_switch: Option<u16>,
    /// Switch-egress report faults.
    pub report: ReportFaults,
    /// Shard-worker faults.
    pub worker: WorkerFaults,
    /// Boundary-write faults.
    pub boundary: BoundaryFaults,
}

impl FaultPlan {
    /// The empty plan: nothing is injected and the runtime's fault
    /// paths compile down to a single branch.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when no fault has a non-zero probability.
    pub fn is_none(&self) -> bool {
        self.report.is_none() && self.worker.is_none() && self.boundary.is_none()
    }

    fn targets(&self, query: u32) -> bool {
        match self.target_query {
            None => true,
            Some(t) => query == t || (query >= 1000 && query / 1000 == t),
        }
    }
}

/// What the switch should do with one egress report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportVerdict {
    /// Pass through untouched.
    Deliver,
    /// Silently lose it.
    Drop,
    /// Deliver it twice.
    Duplicate,
    /// Hold it back `packets` packets (deliver-late or late-drop at
    /// window close).
    Delay {
        /// Hold-back distance in packets.
        packets: u64,
    },
}

/// What the engine should do with one submit attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerVerdict {
    /// Execute normally.
    Run,
    /// Kill the executing worker (the submit fails with a panic
    /// error).
    Crash,
    /// Sleep `ms` milliseconds, then execute normally.
    Stall {
        /// Stall duration in milliseconds.
        ms: u64,
    },
}

/// splitmix64: tiny, high-quality, and dependency-free. Good enough to
/// decorrelate fault sites; not a crypto RNG.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One deterministic 0..1000 roll keyed on the seed and a fault site.
fn roll(seed: u64, domain: u64, a: u64, b: u64, c: u64) -> u64 {
    let mixed = seed
        ^ domain.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ a.wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
        ^ b.wrapping_mul(0x1656_67b1_9e37_79f9)
        ^ c.wrapping_mul(0x27d4_eb2f_1656_67c5);
    splitmix64(mixed) % 1000
}

const DOMAIN_EGRESS: u64 = 1;
const DOMAIN_CRASH: u64 = 2;
const DOMAIN_STALL: u64 = 3;
const DOMAIN_BOUNDARY: u64 = 4;

#[derive(Debug, Default)]
struct State {
    window: u64,
    /// Per-window monotonically increasing egress roll index, so every
    /// report gets an independent decision.
    egress_seq: u64,
    /// Per-`job` submit-attempt counters, reset each window.
    attempts: BTreeMap<u32, u32>,
    /// Boundary-write attempt counter, reset each window.
    boundary_attempts: u32,
    record: FaultRecord,
    totals: FaultRecord,
}

#[derive(Debug)]
struct Inner {
    plan: FaultPlan,
    state: Mutex<State>,
}

/// Handle to the fault layer, threaded from `RuntimeConfig` through
/// the switch, the stream engine, and the runtime — the same shape as
/// `ObsHandle`. Cheap to clone; all clones share one decision state.
///
/// Every decision method is called from the serial runtime thread (the
/// switch egress, the engine submit path, and the boundary-write loop
/// all run there), so the internal mutex is uncontended; it exists so
/// the handle stays `Send + Sync`, not for real concurrency.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector(Option<Arc<Inner>>);

impl FaultInjector {
    /// A no-op injector: every verdict is `Deliver`/`Run`, no state,
    /// no hashing.
    pub fn disabled() -> Self {
        FaultInjector(None)
    }

    /// Build an injector for a plan. An empty plan yields a disabled
    /// handle, so `FaultPlan::none()` is exactly the pre-fault-layer
    /// runtime.
    pub fn from_plan(plan: &FaultPlan) -> Self {
        if plan.is_none() {
            FaultInjector(None)
        } else {
            FaultInjector(Some(Arc::new(Inner {
                plan: *plan,
                state: Mutex::new(State::default()),
            })))
        }
    }

    /// Build the egress-seam injector for one fabric switch.
    ///
    /// Fault domains are per switch: a plan targeting switch `t`
    /// yields a disabled handle everywhere else, and an untargeted
    /// plan faults every switch — with switch 0 keeping the plan's
    /// seed verbatim (so a 1-switch fabric degrades bit-identically to
    /// the single-switch runtime) and every other switch re-rolling
    /// under a switch-mixed seed, decorrelating fault sites across the
    /// fabric.
    pub fn for_switch(plan: &FaultPlan, switch: u16) -> Self {
        if let Some(t) = plan.target_switch {
            if t != switch {
                return FaultInjector(None);
            }
        }
        let mut scoped = *plan;
        if switch != 0 {
            scoped.seed = splitmix64(plan.seed ^ (u64::from(switch) << 32 | 0x5AB0));
        }
        FaultInjector::from_plan(&scoped)
    }

    /// True when faults can fire.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The plan behind an enabled handle.
    pub fn plan(&self) -> Option<FaultPlan> {
        self.0.as_ref().map(|inner| inner.plan)
    }

    /// Start a new window: resets per-window attempt counters and the
    /// egress sequence, and folds any unclaimed window record into the
    /// run totals.
    pub fn begin_window(&self, window: u64) {
        if let Some(inner) = &self.0 {
            let mut st = inner.state.lock().unwrap();
            let record = std::mem::take(&mut st.record);
            st.totals.merge(&record);
            st.window = window;
            st.egress_seq = 0;
            st.attempts.clear();
            st.boundary_attempts = 0;
        }
    }

    /// Decide the fate of one switch-egress report for `query`. At
    /// most one fault applies per report.
    pub fn egress(&self, query: u32) -> ReportVerdict {
        let Some(inner) = &self.0 else {
            return ReportVerdict::Deliver;
        };
        let mut st = inner.state.lock().unwrap();
        let seq = st.egress_seq;
        st.egress_seq += 1;
        if !inner.plan.targets(query) {
            return ReportVerdict::Deliver;
        }
        let rf = &inner.plan.report;
        if rf.is_none() {
            return ReportVerdict::Deliver;
        }
        let r = roll(
            inner.plan.seed,
            DOMAIN_EGRESS,
            st.window,
            u64::from(query),
            seq,
        ) as u32;
        let mut edge = rf.drop_per_mille;
        if r < edge {
            st.record.bump(FaultKind::ReportDrop, 1);
            return ReportVerdict::Drop;
        }
        edge = edge.saturating_add(rf.duplicate_per_mille);
        if r < edge {
            st.record.bump(FaultKind::ReportDuplicate, 1);
            return ReportVerdict::Duplicate;
        }
        edge = edge.saturating_add(rf.delay_per_mille);
        if r < edge {
            st.record.bump(FaultKind::ReportDelay, 1);
            return ReportVerdict::Delay {
                packets: rf.effective_delay_packets(),
            };
        }
        edge = edge.saturating_add(rf.reorder_per_mille);
        if r < edge {
            st.record.bump(FaultKind::ReportReorder, 1);
            // A reorder is a one-packet delay: the report re-emerges
            // behind the next packet's reports.
            return ReportVerdict::Delay { packets: 1 };
        }
        ReportVerdict::Deliver
    }

    /// Record `n` delayed reports that were still pending at window
    /// close and were dropped rather than leaked into the next window.
    pub fn note_late_drop(&self, n: u64) {
        if let Some(inner) = &self.0 {
            if n > 0 {
                inner
                    .state
                    .lock()
                    .unwrap()
                    .record
                    .bump(FaultKind::ReportLateDrop, n);
            }
        }
    }

    /// Decide the fate of one engine submit attempt for `job`: a pure
    /// function of `(seed, window, job, attempt)`, where each call
    /// advances the job's per-window attempt counter. The runtime's
    /// retry discipline (attempt, retry, fall back) so maps onto
    /// [`WorkerFaults::consecutive_crashes`] deterministically, and the
    /// order in which a window's jobs are asked does not matter.
    pub fn worker_verdict(&self, job: u32) -> WorkerVerdict {
        let Some(inner) = &self.0 else {
            return WorkerVerdict::Run;
        };
        let mut st = inner.state.lock().unwrap();
        let attempt = {
            let counter = st.attempts.entry(job).or_insert(0);
            let a = *counter;
            *counter += 1;
            a
        };
        if !inner.plan.targets(job) {
            return WorkerVerdict::Run;
        }
        let wf = &inner.plan.worker;
        if wf.is_none() {
            return WorkerVerdict::Run;
        }
        let window = st.window;
        let crash_selected = wf.crash_per_mille > 0
            && (roll(inner.plan.seed, DOMAIN_CRASH, window, u64::from(job), 0) as u32)
                < wf.crash_per_mille;
        if crash_selected && attempt < wf.effective_consecutive() {
            st.record.bump(FaultKind::WorkerCrash, 1);
            return WorkerVerdict::Crash;
        }
        let stall_selected = wf.stall_per_mille > 0
            && (roll(inner.plan.seed, DOMAIN_STALL, window, u64::from(job), 0) as u32)
                < wf.stall_per_mille;
        if stall_selected {
            st.record.bump(FaultKind::WorkerStall, 1);
            return WorkerVerdict::Stall {
                ms: wf.effective_stall_ms(),
            };
        }
        WorkerVerdict::Run
    }

    /// Decide whether the next boundary-write attempt fails. Each call
    /// advances the per-window attempt counter, so retries map onto
    /// [`BoundaryFaults::consecutive`] deterministically.
    pub fn boundary_write_fails(&self) -> bool {
        let Some(inner) = &self.0 else {
            return false;
        };
        let mut st = inner.state.lock().unwrap();
        let bf = &inner.plan.boundary;
        if bf.is_none() {
            return false;
        }
        let attempt = st.boundary_attempts;
        st.boundary_attempts += 1;
        let selected =
            (roll(inner.plan.seed, DOMAIN_BOUNDARY, st.window, 0, 0) as u32) < bf.fail_per_mille;
        if selected && attempt < bf.effective_consecutive() {
            st.record.bump(FaultKind::BoundaryWriteFail, 1);
            return true;
        }
        false
    }

    /// Drain the current window's record (folding it into the run
    /// totals) — the runtime attaches this to the window's
    /// `DegradedWindow` marker.
    pub fn take_window_record(&self) -> FaultRecord {
        match &self.0 {
            None => FaultRecord::default(),
            Some(inner) => {
                let mut st = inner.state.lock().unwrap();
                let record = std::mem::take(&mut st.record);
                st.totals.merge(&record);
                record
            }
        }
    }

    /// Cumulative injected-fault counts for the whole run (everything
    /// already drained by [`Self::take_window_record`] plus the
    /// current window).
    pub fn totals(&self) -> FaultRecord {
        match &self.0 {
            None => FaultRecord::default(),
            Some(inner) => {
                let st = inner.state.lock().unwrap();
                let mut t = st.totals;
                t.merge(&st.record);
                t
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drop_plan(per_mille: u32) -> FaultPlan {
        FaultPlan {
            seed: 42,
            report: ReportFaults {
                drop_per_mille: per_mille,
                ..ReportFaults::default()
            },
            ..FaultPlan::default()
        }
    }

    #[test]
    fn empty_plan_yields_disabled_injector() {
        let inj = FaultInjector::from_plan(&FaultPlan::none());
        assert!(!inj.is_enabled());
        assert_eq!(inj.egress(7), ReportVerdict::Deliver);
        assert_eq!(inj.worker_verdict(7), WorkerVerdict::Run);
        assert!(!inj.boundary_write_fails());
        assert!(inj.take_window_record().is_empty());
    }

    #[test]
    fn certain_drop_always_drops_and_counts() {
        let inj = FaultInjector::from_plan(&drop_plan(1000));
        inj.begin_window(0);
        for _ in 0..10 {
            assert_eq!(inj.egress(1), ReportVerdict::Drop);
        }
        let rec = inj.take_window_record();
        assert_eq!(rec.get(FaultKind::ReportDrop), 10);
        assert_eq!(rec.total(), 10);
    }

    #[test]
    fn egress_verdicts_are_seed_deterministic() {
        let plan = FaultPlan {
            seed: 7,
            report: ReportFaults {
                drop_per_mille: 100,
                duplicate_per_mille: 100,
                delay_per_mille: 100,
                reorder_per_mille: 100,
                delay_packets: 3,
            },
            ..FaultPlan::default()
        };
        let run = |seed: u64| {
            let inj = FaultInjector::from_plan(&FaultPlan { seed, ..plan });
            let mut verdicts = Vec::new();
            for w in 0..3u64 {
                inj.begin_window(w);
                for _ in 0..200 {
                    verdicts.push(inj.egress(1));
                }
            }
            verdicts
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds must re-roll");
        let verdicts = run(7);
        assert!(verdicts.contains(&ReportVerdict::Drop));
        assert!(verdicts.contains(&ReportVerdict::Duplicate));
        assert!(verdicts.contains(&ReportVerdict::Delay { packets: 3 }));
        assert!(verdicts.contains(&ReportVerdict::Delay { packets: 1 }));
    }

    #[test]
    fn target_query_scopes_report_faults() {
        let plan = FaultPlan {
            target_query: Some(2),
            ..drop_plan(1000)
        };
        let inj = FaultInjector::from_plan(&plan);
        inj.begin_window(0);
        assert_eq!(inj.egress(1), ReportVerdict::Deliver);
        assert_eq!(inj.egress(2), ReportVerdict::Drop);
        // Refinement jobs (source*1000+level) match their source.
        assert_eq!(inj.worker_verdict(1008), WorkerVerdict::Run);
        let plan = FaultPlan {
            target_query: Some(2),
            seed: 42,
            worker: WorkerFaults {
                crash_per_mille: 1000,
                ..WorkerFaults::default()
            },
            ..FaultPlan::default()
        };
        let inj = FaultInjector::from_plan(&plan);
        inj.begin_window(0);
        assert_eq!(inj.worker_verdict(2008), WorkerVerdict::Crash);
        assert_eq!(inj.worker_verdict(1008), WorkerVerdict::Run);
    }

    #[test]
    fn consecutive_crashes_then_recovery() {
        let plan = FaultPlan {
            seed: 1,
            worker: WorkerFaults {
                crash_per_mille: 1000,
                consecutive_crashes: 2,
                ..WorkerFaults::default()
            },
            ..FaultPlan::default()
        };
        let inj = FaultInjector::from_plan(&plan);
        inj.begin_window(3);
        assert_eq!(inj.worker_verdict(9), WorkerVerdict::Crash);
        assert_eq!(inj.worker_verdict(9), WorkerVerdict::Crash);
        assert_eq!(inj.worker_verdict(9), WorkerVerdict::Run);
        // A new window resets the attempt counter.
        inj.begin_window(4);
        assert_eq!(inj.worker_verdict(9), WorkerVerdict::Crash);
        assert_eq!(inj.totals().get(FaultKind::WorkerCrash), 3);
    }

    #[test]
    fn stall_fires_on_the_surviving_attempt() {
        let plan = FaultPlan {
            seed: 1,
            worker: WorkerFaults {
                crash_per_mille: 1000,
                consecutive_crashes: 1,
                stall_per_mille: 1000,
                stall_ms: 2,
            },
            ..FaultPlan::default()
        };
        let inj = FaultInjector::from_plan(&plan);
        inj.begin_window(0);
        assert_eq!(inj.worker_verdict(5), WorkerVerdict::Crash);
        assert_eq!(inj.worker_verdict(5), WorkerVerdict::Stall { ms: 2 });
    }

    #[test]
    fn boundary_failures_are_bounded_per_window() {
        let plan = FaultPlan {
            seed: 11,
            boundary: BoundaryFaults {
                fail_per_mille: 1000,
                consecutive: 2,
            },
            ..FaultPlan::default()
        };
        let inj = FaultInjector::from_plan(&plan);
        inj.begin_window(0);
        assert!(inj.boundary_write_fails());
        assert!(inj.boundary_write_fails());
        assert!(!inj.boundary_write_fails(), "retry bound must recover");
        let rec = inj.take_window_record();
        assert_eq!(rec.get(FaultKind::BoundaryWriteFail), 2);
    }

    #[test]
    fn window_records_drain_into_totals() {
        let inj = FaultInjector::from_plan(&drop_plan(1000));
        inj.begin_window(0);
        inj.egress(1);
        inj.note_late_drop(2);
        let w0 = inj.take_window_record();
        assert_eq!(w0.get(FaultKind::ReportDrop), 1);
        assert_eq!(w0.get(FaultKind::ReportLateDrop), 2);
        inj.begin_window(1);
        inj.egress(1);
        let totals = inj.totals();
        assert_eq!(totals.get(FaultKind::ReportDrop), 2);
        assert_eq!(totals.total(), 4);
        assert!(inj.take_window_record().get(FaultKind::ReportDrop) == 1);
    }

    #[test]
    fn for_switch_scopes_and_reseeds_per_switch() {
        let plan = drop_plan(300);
        // Switch 0 is the plan verbatim: identical verdict sequence to
        // the unscoped injector.
        let seq = |inj: &FaultInjector| {
            inj.begin_window(0);
            (0..100).map(|_| inj.egress(1)).collect::<Vec<_>>()
        };
        let base = seq(&FaultInjector::from_plan(&plan));
        assert_eq!(seq(&FaultInjector::for_switch(&plan, 0)), base);
        // Other switches re-roll under their own seed.
        assert_ne!(seq(&FaultInjector::for_switch(&plan, 1)), base);
        assert_ne!(
            seq(&FaultInjector::for_switch(&plan, 1)),
            seq(&FaultInjector::for_switch(&plan, 2))
        );
        // A targeted plan disables every other switch entirely.
        let targeted = FaultPlan {
            target_switch: Some(1),
            ..plan
        };
        assert!(!FaultInjector::for_switch(&targeted, 0).is_enabled());
        assert!(FaultInjector::for_switch(&targeted, 1).is_enabled());
        assert_eq!(
            seq(&FaultInjector::for_switch(&targeted, 1)),
            seq(&FaultInjector::from_plan(&FaultPlan {
                seed: FaultInjector::for_switch(&targeted, 1).plan().unwrap().seed,
                ..plan
            }))
        );
    }

    #[test]
    fn per_mille_rates_are_roughly_honoured() {
        let inj = FaultInjector::from_plan(&drop_plan(200));
        inj.begin_window(0);
        let mut dropped = 0;
        for _ in 0..5_000 {
            if inj.egress(1) == ReportVerdict::Drop {
                dropped += 1;
            }
        }
        // 200‰ of 5000 = 1000 expected; allow a generous band.
        assert!((700..1300).contains(&dropped), "dropped={dropped}");
    }
}
