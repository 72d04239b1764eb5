//! Threaded engine workers.
//!
//! [`spawn_worker`] runs one engine on its own thread behind crossbeam
//! channels — the emitter pushes window batches in and collects
//! results asynchronously, mirroring the decoupling between Sonata's
//! emitter and its Spark cluster.
//!
//! [`ShardedEngine`] scales that to N workers: each holds a full
//! [`MicroBatchEngine`] replica, every submitted window is
//! hash-partitioned by the query's group key ([`crate::shard`]) so all
//! per-key state stays shard-local, the shards execute concurrently,
//! and the shard results are unioned into the exact single-threaded
//! [`JobResult`]. Worker panics are contained per window and surface
//! as [`StreamError::Panic`] rather than hanging the pool.

use crate::engine::{EngineCounters, JobResult, MicroBatchEngine, StreamError};
use crate::shard::{self, PartitionSpec};
use crate::window::WindowBatch;
use crossbeam::channel::{bounded, Receiver, Sender};
use sonata_faults::{FaultInjector, WorkerVerdict};
use sonata_obs::{Counter, EventKind, Gauge, Histogram, ObsHandle, Stage};
use sonata_query::{Query, QueryId};
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Panic payload used for injected worker crashes, recognizable in
/// `StreamError::Panic` messages and obs events.
pub const INJECTED_CRASH_MSG: &str = "injected fault: worker crash";

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

/// A window of work for the worker.
#[derive(Debug)]
pub struct WorkItem {
    /// Window index (echoed back in the result).
    pub window: u64,
    /// Target query.
    pub query: QueryId,
    /// The batch.
    pub batch: WindowBatch,
}

/// A completed window.
#[derive(Debug)]
pub struct WorkOutput {
    /// Window index.
    pub window: u64,
    /// Query.
    pub query: QueryId,
    /// Result or error.
    pub result: Result<JobResult, StreamError>,
}

/// Handle to a running worker thread.
pub struct WorkerHandle {
    /// Send window batches here; dropping it shuts the worker down.
    pub input: Sender<WorkItem>,
    /// Results arrive here, in submission order.
    pub output: Receiver<WorkOutput>,
    join: JoinHandle<MicroBatchEngine>,
}

impl WorkerHandle {
    /// Shut down (close the input) and recover the engine with its
    /// final counters.
    pub fn finish(self) -> MicroBatchEngine {
        drop(self.input);
        self.join.join().expect("stream worker panicked")
    }
}

/// Spawn an engine with the given queries on its own thread.
pub fn spawn_worker(queries: Vec<Query>, queue_depth: usize) -> WorkerHandle {
    let (in_tx, in_rx) = bounded::<WorkItem>(queue_depth.max(1));
    let (out_tx, out_rx) = bounded::<WorkOutput>(queue_depth.max(1));
    let join = std::thread::Builder::new()
        .name("sonata-stream-worker".into())
        .spawn(move || {
            let mut engine = MicroBatchEngine::new();
            for q in queries {
                engine.register(q);
            }
            while let Ok(item) = in_rx.recv() {
                let result =
                    catch_unwind(AssertUnwindSafe(|| engine.submit(item.query, &item.batch)))
                        .unwrap_or_else(|payload| Err(StreamError::Panic(panic_message(payload))));
                if out_tx
                    .send(WorkOutput {
                        window: item.window,
                        query: item.query,
                        result,
                    })
                    .is_err()
                {
                    break; // consumer gone
                }
            }
            engine
        })
        .expect("spawn stream worker");
    WorkerHandle {
        input: in_tx,
        output: out_rx,
        join,
    }
}

/// Messages a pool worker understands.
enum PoolMsg {
    /// Install (or replace) a query on this worker's engine replica.
    Register(Box<Query>),
    /// Remove a query.
    Deregister(QueryId),
    /// Filter this worker's shard out of the shared window batch,
    /// execute it, and send the result back.
    Job {
        query: QueryId,
        batch: Arc<WindowBatch>,
        reply: Sender<Result<JobResult, StreamError>>,
        /// Fault verdict for this attempt (`Run` when faults are
        /// disabled): `Crash` kills the worker thread after it
        /// reports the failure, `Stall` sleeps before executing.
        fault: WorkerVerdict,
    },
}

/// Spawn one shard-worker thread serving `rx`. Factored out of
/// [`WorkerPool::new`] so a crashed worker can be respawned with an
/// identical replacement.
fn spawn_shard_worker(
    index: usize,
    workers: usize,
    rx: Receiver<PoolMsg>,
    force_reference: bool,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("sonata-stream-shard-{index}"))
        .spawn(move || {
            let mut engine = MicroBatchEngine::new();
            engine.set_force_reference(force_reference);
            // Each worker derives the partition plan from the
            // registered query itself — `partition_spec` is
            // pure, so all workers and the pool front-end
            // agree on routing without shipping plans around.
            let mut plans: HashMap<QueryId, PartitionSpec> = HashMap::new();
            while let Ok(msg) = rx.recv() {
                match msg {
                    PoolMsg::Register(q) => {
                        plans.insert(q.id, shard::partition_spec(&q));
                        engine.register(*q);
                    }
                    PoolMsg::Deregister(id) => {
                        plans.remove(&id);
                        engine.deregister(id);
                    }
                    PoolMsg::Job {
                        query,
                        batch,
                        reply,
                        fault,
                    } => {
                        if fault == WorkerVerdict::Crash {
                            // Fail-stop: report the crash, then die.
                            // The pool must respawn this worker before
                            // it can serve again.
                            let _ = reply.send(Err(StreamError::Panic(INJECTED_CRASH_MSG.into())));
                            return;
                        }
                        if let WorkerVerdict::Stall { ms } = fault {
                            std::thread::sleep(std::time::Duration::from_millis(ms));
                        }
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            let spec = plans.get(&query).ok_or(StreamError::UnknownQuery(query))?;
                            let mine = shard::shard_filter(spec, &batch, workers, index);
                            engine.submit(query, &mine)
                        }))
                        .unwrap_or_else(|payload| Err(StreamError::Panic(panic_message(payload))));
                        // A dropped reply receiver means the
                        // submitter gave up; keep serving.
                        let _ = reply.send(result);
                    }
                }
            }
        })
        .expect("spawn stream shard worker")
}

/// A fixed set of persistent worker threads, each owning a full
/// engine replica. One window fans out as at most one job per worker;
/// each worker filters its own shard from the shared batch (the hash
/// scan parallelizes, and each worker clones only the tuples it
/// keeps), so the submitting thread's serial work is just dispatch
/// and merge.
struct WorkerPool {
    inputs: Vec<Sender<PoolMsg>>,
    joins: Vec<JoinHandle<()>>,
    queue_depth: usize,
    force_reference: bool,
    /// Registered queries, replayed onto respawned workers so a
    /// replacement carries the same query set (including any runtime
    /// `InSet` rewrites) as the worker it replaces. `BTreeMap` so the
    /// replay order is deterministic.
    registered: BTreeMap<QueryId, Query>,
    /// Shards that failed a job with a panic since the last
    /// [`Self::respawn_dead`]; their threads may be dead (injected
    /// fail-stop crashes are) and must be replaced before reuse.
    dead: Vec<usize>,
}

impl WorkerPool {
    fn new(workers: usize, queue_depth: usize, force_reference: bool) -> Self {
        let mut inputs = Vec::with_capacity(workers);
        let mut joins = Vec::with_capacity(workers);
        for index in 0..workers {
            let (tx, rx) = bounded::<PoolMsg>(queue_depth.max(1));
            joins.push(spawn_shard_worker(index, workers, rx, force_reference));
            inputs.push(tx);
        }
        WorkerPool {
            inputs,
            joins,
            queue_depth,
            force_reference,
            registered: BTreeMap::new(),
            dead: Vec::new(),
        }
    }

    fn broadcast_register(&mut self, query: &Query) {
        self.registered.insert(query.id, query.clone());
        for tx in &self.inputs {
            tx.send(PoolMsg::Register(Box::new(query.clone())))
                .expect("stream shard worker gone");
        }
    }

    fn broadcast_deregister(&mut self, id: QueryId) {
        self.registered.remove(&id);
        for tx in &self.inputs {
            tx.send(PoolMsg::Deregister(id))
                .expect("stream shard worker gone");
        }
    }

    /// Replace every shard that failed a job since the last call with
    /// a fresh worker carrying the same registrations. Returns the
    /// respawned shard indices. The old thread is joined (a fail-stop
    /// crash has already exited; a contained panic's thread exits once
    /// its input channel is replaced and dropped).
    fn respawn_dead(&mut self) -> Vec<usize> {
        let mut shards: Vec<usize> = std::mem::take(&mut self.dead);
        shards.sort_unstable();
        shards.dedup();
        let workers = self.inputs.len();
        for &index in &shards {
            let (tx, rx) = bounded::<PoolMsg>(self.queue_depth.max(1));
            let join = spawn_shard_worker(index, workers, rx, self.force_reference);
            let old_tx = std::mem::replace(&mut self.inputs[index], tx);
            drop(old_tx);
            let old_join = std::mem::replace(&mut self.joins[index], join);
            let _ = old_join.join();
            for q in self.registered.values() {
                self.inputs[index]
                    .send(PoolMsg::Register(Box::new(q.clone())))
                    .expect("respawned stream shard worker gone");
            }
        }
        shards
    }

    /// Fan one window out and union the shard results. A query whose
    /// plan routes everything to shard 0 ([`PartitionSpec::Single`])
    /// only occupies worker 0; all other plans occupy every worker.
    fn submit_sharded(
        &mut self,
        query: QueryId,
        batch: Arc<WindowBatch>,
        parallel: bool,
        obs: &EngineObs,
        fault: WorkerVerdict,
    ) -> Result<JobResult, StreamError> {
        let fan_out = if parallel { self.inputs.len() } else { 1 };
        let window = obs.windows.get();
        let mut pending: Vec<Receiver<Result<JobResult, StreamError>>> =
            Vec::with_capacity(fan_out);
        {
            let _dispatch = obs.handle.stage(Stage::ShardDispatch, window);
            for (shard, tx) in self.inputs.iter().take(fan_out).enumerate() {
                let (reply_tx, reply_rx) = bounded(1);
                tx.send(PoolMsg::Job {
                    query,
                    batch: Arc::clone(&batch),
                    reply: reply_tx,
                    // An injected fault lands on shard 0 — the one
                    // shard every partition plan occupies — so the
                    // verdict is independent of fan-out.
                    fault: if shard == 0 {
                        fault
                    } else {
                        WorkerVerdict::Run
                    },
                })
                .expect("stream shard worker gone");
                pending.push(reply_rx);
            }
        }
        obs.handle.event(EventKind::ShardDispatch {
            job: query.0,
            shards: fan_out as u64,
        });
        obs.queue_depth
            .set(self.inputs.iter().map(|tx| tx.len() as u64).sum());
        // Collect every reply (keeping the pool drained even on
        // failure); the lowest shard's error wins deterministically.
        let mut results = Vec::with_capacity(pending.len());
        let mut first_err: Option<StreamError> = None;
        {
            let _execute = obs.handle.stage(Stage::WorkerExecute, window);
            for (shard, rx) in pending.into_iter().enumerate() {
                match rx.recv().expect("stream shard worker gone") {
                    Ok(r) => {
                        obs.shard_tuples[shard].add(r.tuples_in as u64);
                        results.push(r);
                    }
                    Err(e) => {
                        if matches!(e, StreamError::Panic(_)) {
                            obs.panics.inc();
                            if obs.handle.is_enabled() {
                                obs.handle.event(EventKind::WorkerPanic {
                                    job: query.0,
                                    message: e.to_string(),
                                });
                            }
                            // The worker may be gone (fail-stop
                            // crashes are); queue it for respawn.
                            self.dead.push(shard);
                        }
                        if first_err.is_none() {
                            first_err = Some(e);
                        }
                    }
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None if !obs.handle.is_enabled() => Ok(shard::merge_results(results)),
            None => {
                let merge_started = std::time::Instant::now();
                let merged = {
                    let _merge = obs.handle.stage(Stage::Merge, window);
                    shard::merge_results(results)
                };
                let merge_ns = merge_started.elapsed().as_nanos() as u64;
                obs.merge_ns.observe(merge_ns);
                obs.handle.event(EventKind::ShardMerge {
                    job: query.0,
                    wall_ns: merge_ns,
                });
                Ok(merged)
            }
        }
    }

    fn shutdown(self) {
        drop(self.inputs);
        for join in self.joins {
            // A worker that panicked outside catch_unwind (channel
            // machinery) has nothing left to drain; ignore it.
            let _ = join.join();
        }
    }
}

enum Backend {
    /// `workers <= 1`: run inline on the caller's thread, zero
    /// overhead over [`MicroBatchEngine`].
    Inline(MicroBatchEngine),
    Pool(WorkerPool),
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
    queue_depth: Gauge,
    merge_ns: Histogram,
    /// Intake per shard (`shard=i` label); inline backends count
    /// everything on shard 0.
    shard_tuples: Vec<Counter>,
}

impl EngineObs {
    fn new(handle: ObsHandle, workers: usize) -> Self {
        let shard_tuples = (0..workers)
            .map(|i| {
                handle.counter(
                    "sonata_engine_shard_tuples_total",
                    &[("shard", &i.to_string())],
                )
            })
            .collect();
        EngineObs {
            tuples_in: handle.counter("sonata_engine_tuples_total", &[]),
            results_out: handle.counter("sonata_engine_results_total", &[]),
            windows: handle.counter("sonata_engine_windows_total", &[]),
            panics: handle.counter("sonata_engine_worker_panics_total", &[]),
            respawns: handle.counter("sonata_engine_worker_respawns_total", &[]),
            queue_depth: handle.gauge("sonata_engine_queue_depth", &[]),
            merge_ns: handle.histogram("sonata_engine_merge_ns", &[]),
            shard_tuples,
            handle,
        }
    }

    /// Account one completed logical window.
    fn account(&self, result: &JobResult) {
        self.tuples_in.add(result.tuples_in as u64);
        self.results_out.add(result.output.len() as u64);
        self.windows.inc();
    }
}

/// A drop-in replacement for [`MicroBatchEngine`] that executes each
/// window across `workers` shards (when the query's partition
/// analysis allows) and unions the results. Same registration,
/// submission, and counter semantics as the single-threaded engine.
pub struct ShardedEngine {
    backend: Backend,
    /// Per-query partition plan, recomputed on every (re-)register so
    /// runtime query rewrites (e.g. dynamic `InSet` filters) stay in
    /// sync.
    plans: HashMap<QueryId, PartitionSpec>,
    counters: EngineCounters,
    workers: usize,
    obs: EngineObs,
    faults: FaultInjector,
}

impl ShardedEngine {
    /// An engine running windows across `workers` shards. `workers`
    /// of 0 or 1 selects the inline single-threaded backend.
    pub fn new(workers: usize) -> Self {
        Self::with_obs(workers, &ObsHandle::disabled())
    }

    /// [`Self::new`] with an observability handle: registers total and
    /// per-shard tuple counters, the queue-depth gauge, the merge-time
    /// histogram, and the worker-panic counter against it.
    pub fn with_obs(workers: usize, obs: &ObsHandle) -> Self {
        Self::with_obs_and_faults(workers, obs, &FaultInjector::disabled())
    }

    /// [`Self::with_obs`] with a fault injector: every submit attempt
    /// asks it for a verdict, so a `Crash` kills the executing worker
    /// (the submit fails with [`StreamError::Panic`] and the worker is
    /// queued for [`Self::recover_workers`]) and a `Stall` delays the
    /// execution. Both backends consult the injector identically —
    /// one verdict per attempt — so fault decisions (and therefore
    /// degraded-window markers) do not depend on the worker count.
    pub fn with_obs_and_faults(workers: usize, obs: &ObsHandle, faults: &FaultInjector) -> Self {
        Self::with_config(workers, obs, faults, false)
    }

    /// [`Self::with_obs_and_faults`] with the `force_reference_path`
    /// debug knob: when set, every shard engine executes windows on
    /// the tree-walking reference interpreter instead of the compiled
    /// fast path (respawned workers inherit the setting).
    pub fn with_config(
        workers: usize,
        obs: &ObsHandle,
        faults: &FaultInjector,
        force_reference: bool,
    ) -> Self {
        let workers = workers.max(1);
        let backend = if workers == 1 {
            let mut engine = MicroBatchEngine::new();
            engine.set_force_reference(force_reference);
            Backend::Inline(engine)
        } else {
            Backend::Pool(WorkerPool::new(workers, 4, force_reference))
        };
        ShardedEngine {
            backend,
            plans: HashMap::new(),
            counters: EngineCounters::default(),
            workers,
            obs: EngineObs::new(obs.clone(), workers),
            faults: faults.clone(),
        }
    }

    /// Number of shards windows spread over.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The partition plan computed for a registered query.
    pub fn plan(&self, id: QueryId) -> Option<&PartitionSpec> {
        self.plans.get(&id)
    }

    /// Register (or replace) a query on every shard. The partition
    /// analysis and each shard engine's pipeline binding are timed
    /// under the `plan_bind` stage.
    pub fn register(&mut self, query: Query) {
        let _t = self.obs.handle.stage(Stage::PlanBind, 0);
        self.plans.insert(query.id, shard::partition_spec(&query));
        match &mut self.backend {
            Backend::Inline(engine) => engine.register(query),
            Backend::Pool(pool) => pool.broadcast_register(&query),
        }
    }

    /// Deregister a query from every shard.
    pub fn deregister(&mut self, id: QueryId) -> bool {
        let known = self.plans.remove(&id).is_some();
        match &mut self.backend {
            Backend::Inline(engine) => {
                engine.deregister(id);
            }
            Backend::Pool(pool) => {
                if known {
                    pool.broadcast_deregister(id);
                }
            }
        }
        known
    }

    /// Registered query ids.
    pub fn queries(&self) -> Vec<QueryId> {
        let mut q: Vec<QueryId> = self.plans.keys().copied().collect();
        q.sort();
        q
    }

    /// Roll the fault verdict for one submit attempt, applying an
    /// inline-backend `Crash`/`Stall` on the spot. Returns `Err` when
    /// the attempt must fail (inline injected crash).
    fn inline_fault_gate(&self, id: QueryId) -> Result<WorkerVerdict, StreamError> {
        if !self.faults.is_enabled() {
            return Ok(WorkerVerdict::Run);
        }
        let fault = self.faults.worker_verdict(id.0);
        if matches!(self.backend, Backend::Pool(_)) {
            // The pool carries the verdict to a worker thread.
            return Ok(fault);
        }
        match fault {
            WorkerVerdict::Crash => {
                // The inline backend has no thread to kill; the
                // attempt fails with the same error surface the pool
                // produces, so runtime recovery (and the resulting
                // report) is identical across backends.
                self.obs.panics.inc();
                if self.obs.handle.is_enabled() {
                    self.obs.handle.event(EventKind::WorkerPanic {
                        job: id.0,
                        message: INJECTED_CRASH_MSG.into(),
                    });
                }
                Err(StreamError::Panic(INJECTED_CRASH_MSG.into()))
            }
            WorkerVerdict::Stall { ms } => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                Ok(WorkerVerdict::Run)
            }
            WorkerVerdict::Run => Ok(WorkerVerdict::Run),
        }
    }

    /// Execute one window for one query across the shards.
    pub fn submit(&mut self, id: QueryId, batch: &WindowBatch) -> Result<JobResult, StreamError> {
        let fault = self.inline_fault_gate(id)?;
        match &mut self.backend {
            Backend::Inline(engine) => {
                let result = engine.submit(id, batch)?;
                self.obs.account(&result);
                self.obs.shard_tuples[0].add(result.tuples_in as u64);
                Ok(result)
            }
            Backend::Pool(_) => self.submit_shared(id, Arc::new(batch.clone()), fault),
        }
    }

    /// Execute one window, taking ownership of the batch — the pool
    /// backend shares it with the workers without the extra clone
    /// [`Self::submit`] pays for a borrowed batch.
    pub fn submit_owned(
        &mut self,
        id: QueryId,
        batch: WindowBatch,
    ) -> Result<JobResult, StreamError> {
        let fault = self.inline_fault_gate(id)?;
        match &mut self.backend {
            Backend::Inline(engine) => {
                let result = engine.submit_owned(id, batch)?;
                self.obs.account(&result);
                self.obs.shard_tuples[0].add(result.tuples_in as u64);
                Ok(result)
            }
            Backend::Pool(_) => self.submit_shared(id, Arc::new(batch), fault),
        }
    }

    fn submit_shared(
        &mut self,
        id: QueryId,
        batch: Arc<WindowBatch>,
        fault: WorkerVerdict,
    ) -> Result<JobResult, StreamError> {
        let Backend::Pool(pool) = &mut self.backend else {
            unreachable!("submit_shared is only called on the pool backend");
        };
        let spec = self.plans.get(&id).ok_or(StreamError::UnknownQuery(id))?;
        let result = pool.submit_sharded(id, batch, spec.is_parallel(), &self.obs, fault)?;
        self.counters.tuples_in += result.tuples_in as u64;
        self.counters.results_out += result.output.len() as u64;
        self.counters.windows += 1;
        *self.counters.per_query.entry(id).or_default() += result.tuples_in as u64;
        self.obs.account(&result);
        Ok(result)
    }

    /// Respawn any pool workers that failed a job since the last call,
    /// replaying every registration (including runtime query rewrites)
    /// onto the replacements. Returns the number respawned; the inline
    /// backend executes on the caller's thread and has nothing to
    /// respawn. Must be called after a [`StreamError::Panic`] before
    /// the pool is used again — an injected crash is fail-stop, so the
    /// dead worker's channel would otherwise wedge the next dispatch.
    pub fn recover_workers(&mut self) -> u64 {
        match &mut self.backend {
            Backend::Inline(_) => 0,
            Backend::Pool(pool) => {
                let shards = pool.respawn_dead();
                let n = shards.len() as u64;
                if n > 0 {
                    self.obs.respawns.add(n);
                    if self.obs.handle.is_enabled() {
                        for s in shards {
                            self.obs
                                .handle
                                .event(EventKind::WorkerRespawn { shard: s as u64 });
                        }
                    }
                }
                n
            }
        }
    }

    /// Cumulative counters for logical (pre-split) windows.
    pub fn counters(&self) -> &EngineCounters {
        match &self.backend {
            Backend::Inline(engine) => engine.counters(),
            Backend::Pool(_) => &self.counters,
        }
    }

    /// Shut the pool down (joining every worker) and return the final
    /// counters.
    pub fn finish(self) -> EngineCounters {
        match self.backend {
            Backend::Inline(engine) => engine.counters().clone(),
            Backend::Pool(pool) => {
                pool.shutdown();
                self.counters
            }
        }
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

    #[test]
    fn worker_processes_batches_in_order() {
        let q = catalog::newly_opened_tcp_conns(&Thresholds {
            new_tcp: 1,
            ..Thresholds::default()
        });
        let qid = q.id;
        let handle = spawn_worker(vec![q], 4);
        for w in 0..3u64 {
            let mut batch = WindowBatch::new();
            let pkts: Vec<_> = (0..(w + 2))
                .map(|i| {
                    PacketBuilder::tcp_raw(i as u32, 9, 0xaa, 80)
                        .flags(TcpFlags::SYN)
                        .build()
                })
                .collect();
            batch.push_left(0, pkts.iter().map(Tuple::from_packet));
            handle
                .input
                .send(WorkItem {
                    window: w,
                    query: qid,
                    batch,
                })
                .unwrap();
        }
        let mut windows = Vec::new();
        for _ in 0..3 {
            let out = handle.output.recv().unwrap();
            assert_eq!(out.query, qid);
            windows.push(out.window);
            let r = out.result.unwrap();
            // window w has w+2 SYNs: > 1 from w=0 on.
            assert_eq!(r.output.len(), 1);
        }
        assert_eq!(windows, vec![0, 1, 2]);
        let engine = handle.finish();
        assert_eq!(engine.counters().windows, 3);
        assert_eq!(engine.counters().tuples_in, 2 + 3 + 4);
    }

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

    fn crash_injector(consecutive: u32) -> sonata_faults::FaultInjector {
        use sonata_faults::{FaultPlan, WorkerFaults};
        sonata_faults::FaultInjector::from_plan(&FaultPlan {
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
    fn injected_crash_fails_the_attempt_and_respawn_recovers() {
        for workers in [1usize, 4] {
            let inj = crash_injector(1);
            let mut eng = ShardedEngine::with_obs_and_faults(workers, &ObsHandle::disabled(), &inj);
            let q = catalog::newly_opened_tcp_conns(&Thresholds {
                new_tcp: 1,
                ..Thresholds::default()
            });
            let qid = q.id;
            eng.register(q);
            inj.begin_window(0);
            let batch = syn_batch(3);
            let err = eng.submit(qid, &batch).unwrap_err();
            assert!(
                matches!(err, StreamError::Panic(ref m) if m == INJECTED_CRASH_MSG),
                "workers={workers}: {err:?}"
            );
            // Inline backends have nothing to respawn; the pool must
            // replace the killed shard before reuse.
            let respawned = eng.recover_workers();
            assert_eq!(respawned, if workers == 1 { 0 } else { 1 });
            // The retry attempt survives (consecutive_crashes = 1)
            // and produces the normal result.
            let r = eng.submit(qid, &batch).unwrap();
            assert_eq!(r.output.len(), 1, "workers={workers}");
            assert_eq!(r.tuples_in, 3);
        }
    }

    #[test]
    fn respawned_worker_carries_replayed_registrations() {
        let inj = crash_injector(1);
        let mut eng = ShardedEngine::with_obs_and_faults(3, &ObsHandle::disabled(), &inj);
        let q1 = catalog::newly_opened_tcp_conns(&Thresholds {
            new_tcp: 1,
            ..Thresholds::default()
        });
        let q2 = catalog::superspreader(&Thresholds::default());
        let (id1, id2) = (q1.id, q2.id);
        eng.register(q1);
        eng.register(q2);
        inj.begin_window(0);
        let batch = syn_batch(4);
        assert!(eng.submit(id1, &batch).is_err());
        eng.recover_workers();
        // Both queries must still resolve on the replacement worker
        // (id2's own first attempt also crashes at 1000‰ — its retry
        // exercises the replayed registration).
        assert!(eng.submit(id1, &batch).is_ok());
        assert!(eng.submit(id2, &batch).is_err());
        eng.recover_workers();
        assert!(eng.submit(id2, &batch).is_ok());
    }

    #[test]
    fn injected_stall_delays_but_completes() {
        use sonata_faults::{FaultPlan, WorkerFaults};
        let inj = sonata_faults::FaultInjector::from_plan(&FaultPlan {
            seed: 5,
            worker: WorkerFaults {
                stall_per_mille: 1000,
                stall_ms: 1,
                ..WorkerFaults::default()
            },
            ..FaultPlan::default()
        });
        for workers in [1usize, 2] {
            let inj = inj.clone();
            let mut eng = ShardedEngine::with_obs_and_faults(workers, &ObsHandle::disabled(), &inj);
            let q = catalog::newly_opened_tcp_conns(&Thresholds {
                new_tcp: 1,
                ..Thresholds::default()
            });
            let qid = q.id;
            eng.register(q);
            inj.begin_window(0);
            let r = eng.submit(qid, &syn_batch(3)).unwrap();
            assert_eq!(r.output.len(), 1);
        }
    }

    #[test]
    fn worker_reports_errors_per_item() {
        let q = catalog::newly_opened_tcp_conns(&Thresholds::default());
        let qid = q.id;
        let handle = spawn_worker(vec![q], 2);
        let mut batch = WindowBatch::new();
        batch.push_left(99, vec![Tuple::new(vec![])]);
        handle
            .input
            .send(WorkItem {
                window: 0,
                query: qid,
                batch,
            })
            .unwrap();
        let out = handle.output.recv().unwrap();
        assert!(out.result.is_err());
        handle.finish();
    }
}
