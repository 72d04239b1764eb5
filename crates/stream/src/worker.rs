//! The job pool: a window's stream jobs, run side by side.
//!
//! In the paper's stream processor every query-window is its own job,
//! and nothing orders one job after another. [`ShardedEngine`] runs
//! them the same way: each registered query is one job with its own
//! executor, and [`ShardedEngine::submit_window`] spreads a window's
//! jobs over `workers` threads — the caller plus `workers − 1`
//! persistent helpers parked on a channel — with one home thread per
//! job. A job homed on a helper does not wait for the window to close:
//! [`ShardedEngine::open_window`] picks the homes, and
//! [`ShardedEngine::hand_off`] passes the job's rows to its helper as
//! the switch reports them, to be folded into the job's tables while
//! the caller runs the switch; at close the helper finishes the job. A
//! job's result depends only on its window's rows and its executor
//! state, and not on their order (every aggregate commutes, every
//! emission is sorted), so results are bit-identical at every worker
//! count, however the rows were split. A panicking job is
//! contained and surfaces as [`StreamError::Panic`]; the pool keeps
//! serving. Under an enabled [`FaultInjector`] a panicked job instead
//! climbs the crash ladder: respawn and retry once, then respawn and
//! evaluate on the reference interpreter.

use crate::engine::{
    execute_window, panic_message, EngineCounters, JobResult, MicroBatchEngine, StreamError,
};
use crate::window::WindowBatch;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use sonata_faults::{FaultInjector, WorkerVerdict};
use sonata_obs::{Counter, EventKind, ObsHandle, Stage};
use sonata_query::{Query, QueryId, RowRun};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Panic payload used for injected worker crashes, recognizable in
/// `StreamError::Panic` messages and obs events.
pub const INJECTED_CRASH_MSG: &str = "injected fault: worker crash";

/// Tuples a window's jobs must carry in total before they fan out to
/// the helpers; below it they run inline on the caller. It is also the
/// hand-off floor: a window streams only if the last one's jobs carried
/// as many ([`ShardedEngine::open_window`]). Costs measured
/// on the 2-core bench box: handing a share to a parked helper and
/// getting its results back takes 18–19 µs (a scoped `spawn` + `join`
/// takes 44–48 µs, which is why the helpers persist), and stream work
/// on All-SP top-8 costs ≈ 13.8 ns of core time per tuple. Two threads
/// save at most half of `W × 13.8 ns`, so fan-out breaks even near
/// `W` = 2 800 tuples at perfect balance, and later when one job
/// dominates. The floor sits 2× above that. On seeds 11–20 it keeps
/// every Max-DP top-8 window inline (≈ 3.7 k tuples, at most 4.0 k,
/// where the hand-off would eat most of the saving), and fans out
/// every All-SP top-8 window (≈ 41 k) and a 2×2 fabric's Filter-DP
/// windows (≈ 15 k, both shard labels' jobs in one submit).
pub const PARALLEL_FLOOR_TUPLES: usize = 6_144;

/// A job's expected cost per tuple, in picoseconds, before it has run:
/// the ≈ 13.8 ns per tuple above.
const FIRST_COST_PS_PER_TUPLE: u64 = 13_800;

/// Run `job`, containing a panic as [`StreamError::Panic`].
fn contain(job: impl FnOnce() -> Result<JobResult, StreamError>) -> Result<JobResult, StreamError> {
    catch_unwind(AssertUnwindSafe(job))
        .unwrap_or_else(|payload| Err(StreamError::Panic(panic_message(&*payload))))
}

/// A registered job's executor. A window locks it on the one thread
/// the job is homed on, so the lock is never contended.
type Executor = Arc<Mutex<MicroBatchEngine>>;

/// A registered job: its executor, and per branch the last op whose
/// rows can be fed before close ([`MicroBatchEngine::feed_limits`]).
struct Job {
    exec: Executor,
    feeds: [Option<usize>; 2],
}

impl Job {
    fn new(exec: MicroBatchEngine) -> Self {
        Job {
            feeds: exec.feed_limits(),
            exec: Arc::new(Mutex::new(exec)),
        }
    }
}

/// One job of a window, as handed to the thread that runs it.
struct Task {
    /// Position in the submitted window.
    slot: usize,
    id: QueryId,
    exec: Executor,
    batch: WindowBatch,
    /// `Stall` sleeps before executing (a `Crash` never gets here).
    fault: WorkerVerdict,
    /// Whether rows of the job were fed this window: its executor is
    /// mid-window, and the task finishes it.
    fed: bool,
}

/// A run of rows of one job, handed to its home helper mid-window.
struct Feed {
    exec: Executor,
    /// The job's first feed of the window: begin the window first.
    begin: bool,
    branch: u8,
    op: usize,
    rows: RowRun,
}

impl Feed {
    /// Fold the rows into the job; they are dropped here, on the
    /// helper.
    fn run(self) {
        let mut exec = self.exec.lock().expect("job executor lock");
        if self.begin {
            exec.begin();
        }
        let started = Instant::now();
        exec.feed(self.branch, self.op, std::slice::from_ref(&self.rows));
        exec.fed_ns += started.elapsed().as_nanos() as u64;
    }
}

/// What a helper is sent.
enum Work {
    /// Rows to fold into jobs homed on the helper, mid-window; nothing
    /// is sent back.
    Feed(Vec<Feed>),
    /// The helper's fed jobs at close and the window's queue, answered
    /// with their results.
    Run(Vec<Task>, Queue),
}

/// The home of a job that streams in the window in flight: the helper
/// (an index into [`ShardedEngine::helpers`]) its rows go to, and
/// where it finishes.
struct Home {
    helper: usize,
    exec: Executor,
    feeds: [Option<usize>; 2],
    /// Whether any rows went to the helper yet this window.
    fed: bool,
}

/// A window's jobs at close that any thread may take, longest last.
type Queue = Arc<Mutex<Vec<Task>>>;

/// Run `share`, then take jobs off `queue`, longest first, until none
/// is left.
fn run_share(share: Vec<Task>, queue: &Queue) -> Vec<Done> {
    let take = || queue.lock().expect("job queue lock").pop();
    let mut done: Vec<Done> = share.into_iter().map(run).collect();
    while let Some(task) = take() {
        done.push(run(task));
    }
    done
}

/// A finished task. The batch rides back so it is dropped on the
/// caller, where it was built, or kept there for the crash ladder.
struct Done {
    slot: usize,
    result: Result<JobResult, StreamError>,
    batch: WindowBatch,
    /// Wall time the job took, its feeds included.
    ns: u64,
}

fn run(task: Task) -> Done {
    let started = Instant::now();
    let (result, fed_ns) = execute(&task.exec, &task.batch, task.fault, task.fed);
    Done {
        slot: task.slot,
        result,
        batch: task.batch,
        ns: started.elapsed().as_nanos() as u64 + fed_ns,
    }
}

/// Execute one job — finish it if it was `fed` this window, else run
/// the whole window — containing a panic as [`StreamError::Panic`].
/// The guard outlives the unwind, so a panic does not poison the lock.
/// Also returns the time its feeds took.
fn execute(
    exec: &Executor,
    batch: &WindowBatch,
    fault: WorkerVerdict,
    fed: bool,
) -> (Result<JobResult, StreamError>, u64) {
    if let WorkerVerdict::Stall { ms } = fault {
        std::thread::sleep(Duration::from_millis(ms));
    }
    let mut exec = exec.lock().expect("job executor lock");
    let result = match fed {
        true => contain(|| exec.finish(batch)),
        false => contain(|| exec.execute(batch)),
    };
    (result, exec.fed_ns)
}

/// A persistent helper thread, parked on its work channel between
/// windows.
struct Helper {
    work: Sender<Work>,
    done: Receiver<Vec<Done>>,
    join: JoinHandle<()>,
}

impl Helper {
    fn spawn(index: usize) -> Self {
        let (work, shares) = unbounded::<Work>();
        let (finished, done) = bounded::<Vec<Done>>(1);
        let join = std::thread::Builder::new()
            .name(format!("sonata-stream-{index}"))
            .spawn(move || {
                while let Ok(work) = shares.recv() {
                    let done = match work {
                        Work::Feed(feeds) => {
                            feeds.into_iter().for_each(Feed::run);
                            continue;
                        }
                        Work::Run(share, queue) => run_share(share, &queue),
                    };
                    if finished.send(done).is_err() {
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

/// One window's results from [`ShardedEngine::submit_window`], with
/// what the crash ladder did to get them.
#[derive(Debug)]
pub struct WindowRun {
    /// Every job's result, in job order, as submitted.
    pub results: Vec<(QueryId, Result<JobResult, StreamError>)>,
    /// Jobs retried on a respawned executor after a panicked attempt.
    pub retries: u64,
    /// Jobs whose retry panicked too, evaluated on the reference
    /// interpreter instead.
    pub reference_fallbacks: u64,
}

/// The stream engine: one executor per registered query, and a pool
/// that runs a window's jobs side by side.
pub struct ShardedEngine {
    jobs: HashMap<QueryId, Job>,
    /// Each job's tuples and cost per tuple, in picoseconds, on its
    /// last run: what homes and the fan-out balance by. Tuples are
    /// those of the last window, 0 for a job it did not run.
    cost: HashMap<QueryId, (u64, u64)>,
    /// The homes of the jobs that stream in the window in flight, set
    /// by [`Self::open_window`] and cleared at its submit.
    homes: HashMap<QueryId, Home>,
    /// Per helper, the feeds one [`Self::hand_off`] gathers; empty
    /// between calls.
    feeds: Vec<Vec<Feed>>,
    /// Jobs that panicked since the last [`Self::recover_workers`].
    dead: Vec<QueryId>,
    /// `workers − 1` helpers, spawned on the first fan-out.
    helpers: Vec<Helper>,
    workers: usize,
    oracle: bool,
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

    /// [`Self::with_obs`] with a fault injector and the `oracle` debug
    /// knob. Every job attempt asks the injector for a verdict on the
    /// caller, in job order: a `Crash` fails the attempt with
    /// [`StreamError::Panic`] without running the job and queues its
    /// executor for [`Self::recover_workers`]; a `Stall` delays the
    /// execution. Verdicts, and so degraded-window markers, do not
    /// depend on the worker count. With `oracle` every job runs on the
    /// tree-walking reference interpreter instead of the compiled fast
    /// path.
    pub fn with_config(
        workers: usize,
        obs: &ObsHandle,
        faults: &FaultInjector,
        oracle: bool,
    ) -> Self {
        ShardedEngine {
            jobs: HashMap::new(),
            cost: HashMap::new(),
            homes: HashMap::new(),
            feeds: Vec::new(),
            dead: Vec::new(),
            helpers: Vec::new(),
            workers: workers.max(1),
            oracle,
            counters: EngineCounters::default(),
            obs: EngineObs::new(obs),
            faults: faults.clone(),
        }
    }

    /// Register (or replace) a query job, binding its fast path under
    /// the `plan_bind` stage.
    pub fn register(&mut self, query: Query) {
        let _t = self.obs.handle.stage(Stage::PlanBind, 0);
        let exec = MicroBatchEngine::new(query, self.oracle);
        self.jobs.insert(exec.query().id, Job::new(exec));
    }

    /// Execute one window for one query, inline.
    pub fn submit(&mut self, id: QueryId, batch: &WindowBatch) -> Result<JobResult, StreamError> {
        let result =
            (self.task(id)).and_then(|(exec, fault)| execute(&exec, batch, fault, false).0);
        self.account(id, &result);
        result
    }

    /// Open a window: pick each job's home thread, and so which jobs
    /// stream — take their rows by [`Self::hand_off`] before the
    /// window closes. Jobs go longest first, by their last run, onto
    /// the least-loaded thread, where the caller's first load is
    /// `caller_ns`: the time it spent running the switch in the last
    /// window while a helper could stream alongside. A job homed on a
    /// helper streams if its pipelines can be fed; the rest wait for
    /// close.
    ///
    /// Nothing streams at `workers: 1`, under an enabled injector (the
    /// crash ladder replays a job's whole batch), on the reference
    /// interpreter, or when the last window's jobs carried fewer than
    /// [`PARALLEL_FLOOR_TUPLES`]. A window left open — one that failed
    /// before its submit — leaves its fed executors behind: they are
    /// replaced by fresh ones here, so no state of it reaches this one.
    pub fn open_window(&mut self, caller_ns: u64) {
        for (id, home) in self.homes.drain() {
            let job = self.jobs.get_mut(&id).filter(|_| home.fed);
            if let Some(job) = job.filter(|job| Arc::ptr_eq(&job.exec, &home.exec)) {
                let query = job.exec.lock().expect("job executor lock").query().clone();
                *job = Job::new(MicroBatchEngine::new(query, self.oracle));
            }
        }
        let tuples: u64 = self.cost.values().map(|&(tuples, _)| tuples).sum();
        if self.workers < 2
            || self.oracle
            || self.faults.is_enabled()
            || tuples < PARALLEL_FLOOR_TUPLES as u64
        {
            return;
        }
        let mut order: Vec<(u64, QueryId)> = (self.cost.iter())
            .filter(|(id, &(tuples, _))| tuples > 0 && self.jobs.contains_key(id))
            .map(|(&id, &(tuples, ps))| (tuples * ps, id))
            .collect();
        // Job order breaks ties, so the homes do not depend on the
        // map's iteration order.
        order.sort_unstable_by_key(|&(length, id)| (std::cmp::Reverse(length), id));
        let mut loads = vec![0u64; self.workers];
        loads[0] = caller_ns.saturating_mul(1_000);
        for (length, id) in order {
            // `min_by_key` keeps the first of equal loads.
            let t = (0..self.workers)
                .min_by_key(|&t| loads[t])
                .expect("workers > 1");
            loads[t] += length;
            let job = &self.jobs[&id];
            if t > 0 && job.feeds != [None, None] {
                let (exec, feeds) = (Arc::clone(&job.exec), job.feeds);
                let (helper, fed) = (t - 1, false);
                self.homes.insert(
                    id,
                    Home {
                        helper,
                        exec,
                        feeds,
                        fed,
                    },
                );
            }
        }
        if self.homes.is_empty() {
            return;
        }
        while self.helpers.len() < self.workers - 1 {
            self.helpers.push(Helper::spawn(self.helpers.len() + 1));
        }
        self.feeds.resize_with(self.helpers.len(), Vec::new);
    }

    /// Whether some job streams in the window in flight: whether
    /// [`Self::open_window`] homed any on a helper.
    pub fn streams(&self) -> bool {
        !self.homes.is_empty()
    }

    /// Hand every row `batches` hold for a job that streams, where
    /// that job can fold it before close, to the job's home helper.
    /// The rows leave their batch; `handed` is told how many of each
    /// job's went. Each helper is sent its jobs' rows in one message.
    pub fn hand_off<'a>(
        &mut self,
        batches: impl IntoIterator<Item = (QueryId, &'a mut WindowBatch)>,
        mut handed: impl FnMut(QueryId, u64),
    ) {
        if self.homes.is_empty() {
            return;
        }
        for (id, batch) in batches {
            let Some(home) = self.homes.get_mut(&id) else {
                continue;
            };
            let feeds = &mut self.feeds[home.helper];
            let sides = [&mut batch.left, &mut batch.right].into_iter();
            for (branch, (side, limit)) in sides.zip(home.feeds).enumerate() {
                let Some(limit) = limit else {
                    continue;
                };
                // Each run goes alone, so the entry keeps its buffer.
                for (&op, runs) in side.range_mut(..=limit) {
                    for rows in runs.drain(..).filter(|rows| !rows.is_empty()) {
                        let n = rows.len();
                        handed(id, n as u64);
                        self.counters.tuples_fed_mid_window += n as u64;
                        feeds.push(Feed {
                            exec: Arc::clone(&home.exec),
                            begin: !std::mem::replace(&mut home.fed, true),
                            branch: branch as u8,
                            op,
                            rows,
                        });
                    }
                }
            }
        }
        for (helper, feeds) in self.helpers.iter().zip(&mut self.feeds) {
            if !feeds.is_empty() {
                let feeds = Work::Feed(std::mem::take(feeds));
                helper.work.send(feeds).expect("stream helper gone");
            }
        }
    }

    /// Execute every job of one window and return the results in job
    /// order. A job fed this window ([`Self::hand_off`]) finishes on
    /// its home helper. When the jobs carry at least
    /// [`PARALLEL_FLOOR_TUPLES`] tuples and `workers > 1`, or some were
    /// fed, they run side by side, each whole on one thread.
    ///
    /// Under an enabled injector a job whose attempt panics then climbs
    /// the crash ladder, in job order: its executor is respawned and
    /// the job retried once; if the retry panics too, it is respawned
    /// again and the window evaluated by [`execute_window`], which asks
    /// for no verdict. The reference's result is the fast path's (the
    /// differential suites pin that), so the ladder changes no report.
    pub fn submit_window(&mut self, jobs: Vec<(QueryId, WindowBatch)>) -> WindowRun {
        let homes = std::mem::take(&mut self.homes);
        let ladder = self.faults.is_enabled();
        let ids: Vec<QueryId> = jobs.iter().map(|(id, _)| *id).collect();
        let mut results: Vec<Option<Result<JobResult, StreamError>>> = Vec::new();
        results.resize_with(jobs.len(), || None);
        // The batches of panicked jobs, kept for the ladder.
        let mut crashed: Vec<(usize, WindowBatch)> = Vec::new();
        let mut tasks = Vec::with_capacity(jobs.len());
        for (slot, (id, batch)) in jobs.into_iter().enumerate() {
            match self.task(id) {
                Err(e) => {
                    if ladder && matches!(e, StreamError::Panic(_)) {
                        crashed.push((slot, batch));
                    }
                    results[slot] = Some(Err(e));
                }
                Ok((exec, fault)) => tasks.push(Task {
                    slot,
                    id,
                    exec,
                    batch,
                    fault,
                    fed: homes.get(&id).is_some_and(|home| home.fed),
                }),
            }
        }
        let tuples: usize = tasks.iter().map(|t| t.batch.tuple_count()).sum();
        let fed = tasks.iter().any(|t| t.fed);
        let threads = self.workers.min(tasks.len());
        let done = if fed || (threads > 1 && tuples >= PARALLEL_FLOOR_TUPLES) {
            self.obs.parallel_windows.inc();
            self.fan_out(tasks, &homes)
        } else {
            tasks.into_iter().map(run).collect()
        };
        // The window is closed; the map keeps its buffer for the next.
        self.homes = homes;
        self.homes.clear();
        self.cost.values_mut().for_each(|(tuples, _)| *tuples = 0);
        for d in done {
            if let Ok(r) = &d.result {
                let n = r.tuples_in as u64;
                if n > 0 {
                    self.cost.insert(ids[d.slot], (n, d.ns * 1_000 / n));
                }
            }
            if ladder && matches!(d.result, Err(StreamError::Panic(_))) {
                crashed.push((d.slot, d.batch));
            }
            results[d.slot] = Some(d.result);
        }
        let mut results: Vec<_> = (ids.into_iter().zip(results))
            .map(|(id, result)| {
                let result = result.expect("every job of the window ran");
                self.account(id, &result);
                (id, result)
            })
            .collect();
        crashed.sort_unstable_by_key(|&(slot, _)| slot);
        let (mut retries, mut reference_fallbacks) = (0, 0);
        for (slot, batch) in crashed {
            let id = results[slot].0;
            self.recover_workers();
            retries += 1;
            let mut result = self.submit(id, &batch);
            if matches!(result, Err(StreamError::Panic(_))) {
                // The last rung, accounted like any attempt.
                self.recover_workers();
                reference_fallbacks += 1;
                let exec = self.jobs[&id].exec.lock().expect("job executor lock");
                result = contain(|| execute_window(exec.query(), &batch));
                drop(exec);
                self.account(id, &result);
            }
            results[slot].1 = result;
        }
        WindowRun {
            results,
            retries,
            reference_fallbacks,
        }
    }

    /// Look a job up and roll its fault verdict; an injected crash
    /// fails the attempt here, before the job runs anywhere.
    fn task(&self, id: QueryId) -> Result<(Executor, WorkerVerdict), StreamError> {
        let job = self.jobs.get(&id).ok_or(StreamError::UnknownQuery(id))?;
        match self.faults.worker_verdict(id.0) {
            WorkerVerdict::Crash => Err(StreamError::Panic(INJECTED_CRASH_MSG.into())),
            fault => Ok((Arc::clone(&job.exec), fault)),
        }
    }

    /// Run `tasks` on the caller and the helpers side by side, and
    /// collect every result. A fed job finishes on its home helper,
    /// first thing; the others wait in one queue, longest first, and
    /// each thread takes the next as it comes free. A job's length is
    /// its tuples left at its last run's cost per tuple: on All-SP
    /// top-8, jobs of one size differ in cost up to 5× (a `distinct`
    /// sink against a filter that drops most rows), and a job's own
    /// time varies from window to window, so a split fixed in advance
    /// left one thread waiting on the other.
    fn fan_out(&mut self, tasks: Vec<Task>, homes: &HashMap<QueryId, Home>) -> Vec<Done> {
        let fed = homes.values().any(|home| home.fed);
        let threads = match fed {
            true => self.workers,
            false => self.workers.min(tasks.len()),
        };
        let mut shares: Vec<Vec<Task>> = (0..threads).map(|_| Vec::new()).collect();
        let mut order: Vec<(u64, Task)> = Vec::with_capacity(tasks.len());
        for task in tasks {
            match homes.get(&task.id).filter(|_| task.fed) {
                Some(home) => shares[home.helper + 1].push(task),
                None => {
                    let ps = self.cost.get(&task.id).map(|&(_, ps)| ps);
                    let ps = ps.unwrap_or(FIRST_COST_PS_PER_TUPLE);
                    order.push((task.batch.tuple_count() as u64 * ps, task));
                }
            }
        }
        // Stable: equal lengths keep job order, and the queue pops the
        // longest, first in job order, off its end.
        order.sort_by_key(|&(length, _)| std::cmp::Reverse(length));
        let queue: Queue = Arc::new(Mutex::new(
            order.into_iter().rev().map(|(_, t)| t).collect(),
        ));
        while self.helpers.len() < threads - 1 {
            self.helpers.push(Helper::spawn(self.helpers.len() + 1));
        }
        let mut shares = shares.into_iter();
        let own = shares.next().expect("threads > 1");
        for (helper, share) in self.helpers.iter().zip(shares) {
            let work = Work::Run(share, Arc::clone(&queue));
            helper.work.send(work).expect("stream helper gone");
        }
        let mut done = run_share(own, &queue);
        for helper in &self.helpers[..threads - 1] {
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
            let Some(job) = self.jobs.get_mut(&id) else {
                continue;
            };
            let query = job.exec.lock().expect("job executor lock").query().clone();
            *job = Job::new(MicroBatchEngine::new(query, self.oracle));
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
        let first = eng.submit(id1, &batch);
        assert!(matches!(first, Err(StreamError::Panic(_))));
        assert_eq!(eng.recover_workers(), 1);
        assert!(eng.submit(id1, &batch).is_ok());
        // The window's other job climbs the ladder inside the submit.
        let run = eng.submit_window(vec![(id2, batch)]);
        assert!(run.results[0].1.is_ok());
        assert_eq!((run.retries, run.reference_fallbacks), (1, 0));
    }

    #[test]
    fn a_job_crashing_twice_is_evaluated_on_the_reference() {
        for workers in [1usize, 4] {
            let inj = crash_injector(2);
            let obs = ObsHandle::enabled();
            let mut eng = ShardedEngine::with_config(workers, &obs, &inj, false);
            let q2 = catalog::superspreader(&Thresholds::default());
            let (id1, id2) = (q1().id, q2.id);
            eng.register(q1());
            eng.register(q2);
            inj.begin_window(0);
            let run = eng.submit_window(vec![(id1, syn_batch(3)), (id2, syn_batch(4))]);
            assert_eq!((run.retries, run.reference_fallbacks), (2, 2));
            let r = run.results[0].1.as_ref().unwrap();
            assert_eq!((r.output.len(), r.tuples_in), (1, 3), "workers={workers}");
            // The last rung's results count like any other success.
            assert_eq!(eng.counters().tuples_in, 7, "workers={workers}");
            let snap = obs.snapshot();
            assert_eq!(snap.counter("sonata_engine_windows_total"), Some(2));
            assert_eq!(snap.counter("sonata_engine_worker_panics_total"), Some(4));
            assert_eq!(snap.counter("sonata_engine_worker_respawns_total"), Some(4));
        }
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
    fn a_window_fed_before_close_matches_one_submit_and_leaves_nothing_behind() {
        let (q, batch) = (q1(), syn_batch(PARALLEL_FLOOR_TUPLES as u64 + 100));
        let id = q.id;
        let whole = |eng: &mut ShardedEngine, batch: WindowBatch| {
            let mut run = eng.submit_window(vec![(id, batch)]);
            run.results.remove(0).1.unwrap()
        };
        let mut inline = ShardedEngine::new(1);
        inline.register(q.clone());
        let want = whole(&mut inline, batch.clone());
        let mut eng = ShardedEngine::new(2);
        eng.register(q);
        // The first window gives the job its length; nothing streams.
        eng.open_window(1_000_000);
        assert_eq!(whole(&mut eng, batch.clone()), want);
        // A caller busy for a millisecond homes the job on the helper,
        // which takes in the whole batch before close.
        eng.open_window(1_000_000);
        let (mut fed, mut handed) = (batch.clone(), 0);
        eng.hand_off([(id, &mut fed)], |_, n| handed += n);
        assert_eq!((handed, fed.tuple_count()), (batch.tuple_count() as u64, 0));
        assert_eq!(whole(&mut eng, fed), want);
        // A window that fails between its hand-off and its submit …
        eng.open_window(1_000_000);
        let mut lost = syn_batch(3_000);
        eng.hand_off([(id, &mut lost)], |_, _| ());
        // … leaves nothing in the next one.
        eng.open_window(1_000_000);
        let mut fed = batch.clone();
        eng.hand_off([(id, &mut fed)], |_, _| ());
        assert_eq!(whole(&mut eng, fed), want);
        assert_eq!(whole(&mut eng, batch), want);
    }

    #[test]
    fn nothing_streams_under_an_enabled_injector() {
        use sonata_faults::{FaultPlan, ReportFaults};
        // Report drops only: every job attempt runs, but the crash
        // ladder could replay any job's whole batch.
        let inj = FaultInjector::from_plan(&FaultPlan {
            seed: 5,
            report: ReportFaults {
                drop_per_mille: 1,
                ..ReportFaults::default()
            },
            ..FaultPlan::default()
        });
        let mut eng = faulted(2, &inj);
        let q = q1();
        let id = q.id;
        eng.register(q);
        let batch = syn_batch(PARALLEL_FLOOR_TUPLES as u64 + 100);
        eng.submit_window(vec![(id, batch.clone())]);
        eng.open_window(1_000_000);
        let mut kept = batch.clone();
        eng.hand_off([(id, &mut kept)], |_, n| panic!("{n} rows handed off"));
        assert_eq!(kept, batch);
        assert_eq!(eng.counters().tuples_fed_mid_window, 0);
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
        let run = eng.submit_window(vec![(id2, small.clone()), (id1, small)]);
        // Results come back in job order, as submitted.
        assert_eq!(
            run.results.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
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
