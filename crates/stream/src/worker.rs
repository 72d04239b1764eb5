//! The job pool: a window's stream jobs, run side by side.
//!
//! In the paper's stream processor every query-window is its own job,
//! and nothing orders one job after another. [`ShardedEngine`] runs
//! them the same way: each registered query is one job with its own
//! executor, and [`ShardedEngine::submit_window`] spreads a window's
//! jobs over `workers` threads — the caller plus `workers − 1`
//! persistent helpers parked on a channel — one whole job per thread.
//! A job's result depends only on its own batch and executor state, so
//! results are bit-identical at every worker count. A panicking job is
//! contained and surfaces as [`StreamError::Panic`]; the pool keeps
//! serving.

use crate::engine::{EngineCounters, JobResult, MicroBatchEngine, StreamError};
use crate::window::WindowBatch;
use crossbeam::channel::{bounded, Receiver, Sender};
use sonata_faults::{FaultInjector, WorkerVerdict};
use sonata_obs::{Counter, EventKind, ObsHandle, Stage};
use sonata_query::{Query, QueryId};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Panic payload used for injected worker crashes, recognizable in
/// `StreamError::Panic` messages and obs events.
pub const INJECTED_CRASH_MSG: &str = "injected fault: worker crash";

/// Tuples a window's jobs must carry in total before they fan out to
/// the helpers; below it they run inline on the caller. Costs measured
/// on the 2-core bench box: handing a share to a parked helper and
/// getting its results back takes 18–19 µs (a scoped `spawn` + `join`
/// takes 44–48 µs, which is why the helpers persist), and stream work
/// runs at ≈ 9 ns per tuple on All-SP. Two threads save at most half
/// of `W × 9 ns`, so fan-out breaks even near `W` = 4 200 tuples at
/// perfect balance, and later when one job dominates. The floor sits
/// 1.5× above that. On seeds 11–20 it keeps every Max-DP top-8 window
/// inline (≈ 3.7 k tuples, at most 4.0 k, right at break-even), and
/// fans out every All-SP top-8 window (≈ 41 k) and ≈ 94 % of a 2×2
/// fabric's Filter-DP shard windows (≈ 7.5 k each).
pub const PARALLEL_FLOOR_TUPLES: usize = 6_144;

/// A job's expected cost per tuple, in picoseconds, before it has run:
/// the ≈ 9 ns per tuple above.
const FIRST_COST_PS_PER_TUPLE: u64 = 9_000;

/// Render a panic payload for [`StreamError::Panic`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A registered job's executor. A window locks it once, on the one
/// thread the job is assigned to, so the lock is never contended.
type Executor = Arc<Mutex<MicroBatchEngine>>;

/// One job of a window, as handed to the thread that runs it.
struct Task {
    /// Position in the submitted window.
    slot: usize,
    id: QueryId,
    exec: Executor,
    batch: WindowBatch,
    /// `Stall` sleeps before executing (a `Crash` never gets here).
    fault: WorkerVerdict,
}

/// A finished task. The batch rides back so it is dropped on the
/// caller, where it was built.
struct Done {
    slot: usize,
    result: Result<JobResult, StreamError>,
    batch: WindowBatch,
    /// Wall time the job took.
    ns: u64,
}

fn run(task: Task) -> Done {
    let started = Instant::now();
    let result = execute(&task.exec, &task.batch, task.fault);
    Done {
        slot: task.slot,
        result,
        batch: task.batch,
        ns: started.elapsed().as_nanos() as u64,
    }
}

/// Execute one job, containing a panic as [`StreamError::Panic`]. The
/// guard outlives the unwind, so a panic does not poison the lock.
fn execute(
    exec: &Executor,
    batch: &WindowBatch,
    fault: WorkerVerdict,
) -> Result<JobResult, StreamError> {
    if let WorkerVerdict::Stall { ms } = fault {
        std::thread::sleep(Duration::from_millis(ms));
    }
    let mut exec = exec.lock().expect("job executor lock");
    catch_unwind(AssertUnwindSafe(|| exec.execute(batch)))
        .unwrap_or_else(|payload| Err(StreamError::Panic(panic_message(payload))))
}

/// A persistent helper thread, parked on its work channel between
/// windows.
struct Helper {
    work: Sender<Vec<Task>>,
    done: Receiver<Vec<Done>>,
    join: JoinHandle<()>,
}

impl Helper {
    fn spawn(index: usize) -> Self {
        let (work, shares) = bounded::<Vec<Task>>(1);
        let (finished, done) = bounded::<Vec<Done>>(1);
        let join = std::thread::Builder::new()
            .name(format!("sonata-stream-{index}"))
            .spawn(move || {
                while let Ok(share) = shares.recv() {
                    if finished.send(share.into_iter().map(run).collect()).is_err() {
                        break; // the engine is gone
                    }
                }
            })
            .expect("spawn stream helper");
        Helper { work, done, join }
    }
}

/// Pre-resolved engine metric handles: registry lookups happen once at
/// construction, the submit path pays atomic adds only.
struct EngineObs {
    handle: ObsHandle,
    tuples_in: Counter,
    results_out: Counter,
    windows: Counter,
    panics: Counter,
    respawns: Counter,
    /// Submits whose jobs fanned out to the helpers.
    parallel_windows: Counter,
}

impl EngineObs {
    fn new(handle: &ObsHandle) -> Self {
        EngineObs {
            tuples_in: handle.counter("sonata_engine_tuples_total", &[]),
            results_out: handle.counter("sonata_engine_results_total", &[]),
            windows: handle.counter("sonata_engine_windows_total", &[]),
            panics: handle.counter("sonata_engine_worker_panics_total", &[]),
            respawns: handle.counter("sonata_engine_worker_respawns_total", &[]),
            parallel_windows: handle.counter("sonata_engine_parallel_windows_total", &[]),
            handle: handle.clone(),
        }
    }
}

/// The stream engine: one executor per registered query, and a pool
/// that runs a window's jobs side by side.
pub struct ShardedEngine {
    jobs: HashMap<QueryId, Executor>,
    /// Each job's cost per tuple on its last run, in picoseconds: what
    /// the fan-out balances by.
    cost: HashMap<QueryId, u64>,
    /// Jobs that panicked since the last [`Self::recover_workers`].
    dead: Vec<QueryId>,
    /// `workers − 1` helpers, spawned on the first fan-out.
    helpers: Vec<Helper>,
    workers: usize,
    force_reference: bool,
    counters: EngineCounters,
    obs: EngineObs,
    faults: FaultInjector,
}

impl ShardedEngine {
    /// An engine running a window's jobs on up to `workers` threads.
    /// `workers` of 0 or 1 runs every job inline on the caller.
    pub fn new(workers: usize) -> Self {
        Self::with_obs(workers, &ObsHandle::disabled())
    }

    /// [`Self::new`] with an observability handle: registers the tuple,
    /// result, window, panic, respawn and fan-out counters against it.
    pub fn with_obs(workers: usize, obs: &ObsHandle) -> Self {
        Self::with_config(workers, obs, &FaultInjector::disabled(), false)
    }

    /// [`Self::with_obs`] with a fault injector and the
    /// `force_reference_path` debug knob. Every job attempt asks the
    /// injector for a verdict on the caller, in job order: a `Crash`
    /// fails the attempt with [`StreamError::Panic`] without running
    /// the job and queues its executor for [`Self::recover_workers`];
    /// a `Stall` delays the execution. Verdicts, and so degraded-window
    /// markers, do not depend on the worker count. With
    /// `force_reference` every job runs on the tree-walking reference
    /// interpreter instead of the compiled fast path.
    pub fn with_config(
        workers: usize,
        obs: &ObsHandle,
        faults: &FaultInjector,
        force_reference: bool,
    ) -> Self {
        ShardedEngine {
            jobs: HashMap::new(),
            cost: HashMap::new(),
            dead: Vec::new(),
            helpers: Vec::new(),
            workers: workers.max(1),
            force_reference,
            counters: EngineCounters::default(),
            obs: EngineObs::new(obs),
            faults: faults.clone(),
        }
    }

    /// Register (or replace) a query job, binding its fast path under
    /// the `plan_bind` stage.
    pub fn register(&mut self, query: Query) {
        let _t = self.obs.handle.stage(Stage::PlanBind, 0);
        let exec = MicroBatchEngine::new(query, self.force_reference);
        self.jobs
            .insert(exec.query().id, Arc::new(Mutex::new(exec)));
    }

    /// Deregister a query.
    pub fn deregister(&mut self, id: QueryId) -> bool {
        self.cost.remove(&id);
        self.jobs.remove(&id).is_some()
    }

    /// Registered query ids.
    pub fn queries(&self) -> Vec<QueryId> {
        let mut q: Vec<QueryId> = self.jobs.keys().copied().collect();
        q.sort();
        q
    }

    /// Execute one window for one query, inline.
    pub fn submit(&mut self, id: QueryId, batch: &WindowBatch) -> Result<JobResult, StreamError> {
        let result = match self.task(id) {
            Err(e) => Err(e),
            Ok((exec, fault)) => execute(&exec, batch, fault),
        };
        self.account(id, &result);
        result
    }

    /// [`Self::submit`] of a batch the caller is done with.
    pub fn submit_owned(
        &mut self,
        id: QueryId,
        batch: WindowBatch,
    ) -> Result<JobResult, StreamError> {
        self.submit(id, &batch)
    }

    /// Execute every job of one window and return the results in job
    /// order. When the jobs carry at least [`PARALLEL_FLOOR_TUPLES`]
    /// tuples and `workers > 1`, they run side by side, each whole on
    /// one thread.
    pub fn submit_window(
        &mut self,
        jobs: Vec<(QueryId, WindowBatch)>,
    ) -> Vec<(QueryId, Result<JobResult, StreamError>)> {
        let ids: Vec<QueryId> = jobs.iter().map(|(id, _)| *id).collect();
        let mut results: Vec<Option<Result<JobResult, StreamError>>> = Vec::new();
        results.resize_with(jobs.len(), || None);
        let mut tasks = Vec::with_capacity(jobs.len());
        for (slot, (id, batch)) in jobs.into_iter().enumerate() {
            match self.task(id) {
                Err(e) => results[slot] = Some(Err(e)),
                Ok((exec, fault)) => tasks.push(Task {
                    slot,
                    id,
                    exec,
                    batch,
                    fault,
                }),
            }
        }
        let tuples: usize = tasks.iter().map(|t| t.batch.tuple_count()).sum();
        let threads = self.workers.min(tasks.len());
        let done = if threads > 1 && tuples >= PARALLEL_FLOOR_TUPLES {
            self.obs.parallel_windows.inc();
            self.fan_out(tasks, threads)
        } else {
            tasks.into_iter().map(run).collect()
        };
        for d in done {
            let n = d.batch.tuple_count() as u64;
            if n > 0 && d.result.is_ok() {
                self.cost.insert(ids[d.slot], d.ns * 1_000 / n);
            }
            results[d.slot] = Some(d.result);
            drop(d.batch);
        }
        (ids.into_iter().zip(results))
            .map(|(id, result)| {
                let result = result.expect("every job of the window ran");
                self.account(id, &result);
                (id, result)
            })
            .collect()
    }

    /// Look a job up and roll its fault verdict; an injected crash
    /// fails the attempt here, before the job runs anywhere.
    fn task(&self, id: QueryId) -> Result<(Executor, WorkerVerdict), StreamError> {
        let exec = self.jobs.get(&id).ok_or(StreamError::UnknownQuery(id))?;
        match self.faults.worker_verdict(id.0) {
            WorkerVerdict::Crash => Err(StreamError::Panic(INJECTED_CRASH_MSG.into())),
            fault => Ok((Arc::clone(exec), fault)),
        }
    }

    /// Split `tasks` over `threads` threads, run the caller's share
    /// while the helpers run theirs, and collect every result. Jobs go
    /// longest first onto the least-loaded thread (the caller first),
    /// a job's length being its tuples at its last run's cost per
    /// tuple: on All-SP top-8, jobs of one size differ in cost up to 5×
    /// (a `distinct` sink against a filter that drops most rows), so
    /// balancing tuple counts left the caller over twice the helper's
    /// work. While the traffic mix holds, the assignment holds too, and
    /// so each job's sink tables stay on one core.
    fn fan_out(&mut self, tasks: Vec<Task>, threads: usize) -> Vec<Done> {
        let mut order: Vec<(u64, Task)> = (tasks.into_iter())
            .map(|t| {
                let ps = self.cost.get(&t.id).copied();
                (
                    t.batch.tuple_count() as u64 * ps.unwrap_or(FIRST_COST_PS_PER_TUPLE),
                    t,
                )
            })
            .collect();
        // Stable: equal lengths keep job order.
        order.sort_by_key(|&(length, _)| std::cmp::Reverse(length));
        let mut shares: Vec<Vec<Task>> = (0..threads).map(|_| Vec::new()).collect();
        let mut loads = vec![0u64; threads];
        for (length, task) in order {
            // `min_by_key` keeps the first of equal loads.
            let t = (0..threads).min_by_key(|&t| loads[t]).expect("threads > 1");
            loads[t] += length;
            shares[t].push(task);
        }
        while self.helpers.len() < threads - 1 {
            self.helpers.push(Helper::spawn(self.helpers.len() + 1));
        }
        let mut shares = shares.into_iter();
        let own = shares.next().expect("threads > 1");
        let mut busy = Vec::with_capacity(threads - 1);
        for (helper, share) in self.helpers.iter().zip(shares) {
            if !share.is_empty() {
                helper.work.send(share).expect("stream helper gone");
                busy.push(helper);
            }
        }
        let mut done: Vec<Done> = own.into_iter().map(run).collect();
        for helper in busy {
            done.extend(helper.done.recv().expect("stream helper gone"));
        }
        done
    }

    /// Count one job attempt: a result into the counters, a panic into
    /// the panic counter and the respawn queue.
    fn account(&mut self, id: QueryId, result: &Result<JobResult, StreamError>) {
        match result {
            Ok(r) => {
                let c = &mut self.counters;
                c.tuples_in += r.tuples_in as u64;
                c.results_out += r.output.len() as u64;
                c.windows += 1;
                *c.per_query.entry(id).or_default() += r.tuples_in as u64;
                self.obs.tuples_in.add(r.tuples_in as u64);
                self.obs.results_out.add(r.output.len() as u64);
                self.obs.windows.inc();
            }
            Err(e @ StreamError::Panic(_)) => {
                self.obs.panics.inc();
                if self.obs.handle.is_enabled() {
                    self.obs.handle.event(EventKind::WorkerPanic {
                        job: id.0,
                        message: e.to_string(),
                    });
                }
                self.dead.push(id);
            }
            Err(_) => {}
        }
    }

    /// Replace the executor of every job that panicked since the last
    /// call with a fresh one bound from its registered query (runtime
    /// rewrites included). Returns the number replaced — the same at
    /// every worker count. Call it after a [`StreamError::Panic`] before
    /// retrying: a real panic can leave an executor mid-window.
    pub fn recover_workers(&mut self) -> u64 {
        let mut dead = std::mem::take(&mut self.dead);
        dead.sort_unstable();
        dead.dedup();
        let mut respawned = 0;
        for id in dead {
            let Some(exec) = self.jobs.get_mut(&id) else {
                continue;
            };
            let query = exec.lock().expect("job executor lock").query().clone();
            *exec = Arc::new(Mutex::new(MicroBatchEngine::new(
                query,
                self.force_reference,
            )));
            respawned += 1;
            if self.obs.handle.is_enabled() {
                (self.obs.handle).event(EventKind::WorkerRespawn { job: id.0 });
            }
        }
        self.obs.respawns.add(respawned);
        respawned
    }

    /// Cumulative counters.
    pub fn counters(&self) -> &EngineCounters {
        &self.counters
    }

    /// Shut the helpers down (joining each) and return the final
    /// counters.
    pub fn finish(self) -> EngineCounters {
        for helper in self.helpers {
            drop(helper.work);
            let _ = helper.join.join();
        }
        self.counters
    }
}

impl Default for ShardedEngine {
    fn default() -> Self {
        ShardedEngine::new(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sonata_packet::{PacketBuilder, TcpFlags};
    use sonata_query::catalog::{self, Thresholds};
    use sonata_query::Tuple;

    fn syn_batch(n: u64) -> WindowBatch {
        let mut batch = WindowBatch::new();
        let pkts: Vec<_> = (0..n)
            .map(|i| {
                PacketBuilder::tcp_raw(i as u32, 9, 0xaa, 80)
                    .flags(TcpFlags::SYN)
                    .build()
            })
            .collect();
        batch.push_left(0, pkts.iter().map(Tuple::from_packet));
        batch
    }

    fn q1() -> Query {
        catalog::newly_opened_tcp_conns(&Thresholds {
            new_tcp: 1,
            ..Thresholds::default()
        })
    }

    fn faulted(workers: usize, inj: &FaultInjector) -> ShardedEngine {
        ShardedEngine::with_config(workers, &ObsHandle::disabled(), inj, false)
    }

    fn crash_injector(consecutive: u32) -> FaultInjector {
        use sonata_faults::{FaultPlan, WorkerFaults};
        FaultInjector::from_plan(&FaultPlan {
            seed: 5,
            worker: WorkerFaults {
                crash_per_mille: 1000,
                consecutive_crashes: consecutive,
                ..WorkerFaults::default()
            },
            ..FaultPlan::default()
        })
    }

    #[test]
    fn injected_crash_fails_the_attempt_and_recovery_rebuilds_the_job() {
        for workers in [1usize, 4] {
            let inj = crash_injector(1);
            let mut eng = faulted(workers, &inj);
            let q = q1();
            let qid = q.id;
            eng.register(q);
            inj.begin_window(0);
            let batch = syn_batch(3);
            let err = eng.submit(qid, &batch).unwrap_err();
            assert!(
                matches!(err, StreamError::Panic(ref m) if m == INJECTED_CRASH_MSG),
                "workers={workers}: {err:?}"
            );
            // The crashed job's executor is rebuilt at every width.
            assert_eq!(eng.recover_workers(), 1, "workers={workers}");
            assert_eq!(eng.recover_workers(), 0, "workers={workers}");
            // The retry attempt survives (consecutive_crashes = 1)
            // and produces the normal result.
            let r = eng.submit(qid, &batch).unwrap();
            assert_eq!(r.output.len(), 1, "workers={workers}");
            assert_eq!(r.tuples_in, 3);
        }
    }

    #[test]
    fn rebuilt_executor_keeps_its_registration() {
        let inj = crash_injector(1);
        let mut eng = faulted(3, &inj);
        let q2 = catalog::superspreader(&Thresholds::default());
        let (id1, id2) = (q1().id, q2.id);
        eng.register(q1());
        eng.register(q2);
        inj.begin_window(0);
        let batch = syn_batch(4);
        let first = eng.submit_window(vec![(id1, batch.clone()), (id2, batch.clone())]);
        assert!(first.iter().all(|(_, r)| r.is_err()));
        assert_eq!(eng.recover_workers(), 2);
        assert!(eng.submit(id1, &batch).is_ok());
        assert!(eng.submit(id2, &batch).is_ok());
        assert_eq!(eng.queries(), vec![id1, id2]);
    }

    #[test]
    fn injected_stall_delays_but_completes() {
        use sonata_faults::{FaultPlan, WorkerFaults};
        let inj = FaultInjector::from_plan(&FaultPlan {
            seed: 5,
            worker: WorkerFaults {
                stall_per_mille: 1000,
                stall_ms: 1,
                ..WorkerFaults::default()
            },
            ..FaultPlan::default()
        });
        for workers in [1usize, 2] {
            let mut eng = faulted(workers, &inj);
            let q = q1();
            let qid = q.id;
            eng.register(q);
            inj.begin_window(0);
            let r = eng.submit(qid, &syn_batch(3)).unwrap();
            assert_eq!(r.output.len(), 1);
        }
    }

    #[test]
    fn windows_below_the_floor_run_inline() {
        let obs = ObsHandle::enabled();
        let mut eng = ShardedEngine::with_obs(4, &obs);
        let q2 = catalog::superspreader(&Thresholds::default());
        let (id1, id2) = (q1().id, q2.id);
        eng.register(q1());
        eng.register(q2);
        let small = syn_batch(8);
        let results = eng.submit_window(vec![(id2, small.clone()), (id1, small)]);
        // Results come back in job order, as submitted.
        assert_eq!(
            results.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            [id2, id1]
        );
        assert!(eng.helpers.is_empty(), "no helper spawned below the floor");
        let snap = obs.snapshot();
        assert_eq!(
            snap.counter("sonata_engine_parallel_windows_total"),
            Some(0)
        );
        assert_eq!(snap.counter("sonata_engine_windows_total"), Some(2));
    }
}
