//! # sonata-stream
//!
//! The stream-processor substrate: a micro-batch (discretized-stream)
//! dataflow engine in the style of Spark Streaming, executing the
//! *residual* part of each partitioned Sonata query over the tuples
//! the switch mirrors up.
//!
//! The paper's headline metric — the number of tuples the stream
//! processor must handle — depends only on the partitioning/refinement
//! plan and the traffic, not on Spark internals, so this engine
//! focuses on faithful operator semantics and careful tuple
//! accounting:
//!
//! * tuples can **enter a pipeline at any operator index** — the
//!   switch's per-packet reports resume after the last offloaded
//!   operator, window dumps resume after the offloaded `reduce`, and
//!   collision shunts enter *at* the stateful operator so the engine
//!   redoes the aggregation for shunted keys (Section 3.1.3);
//! * joins run here (PISA switches cannot join, Section 3.1.2),
//!   combining the two branches of a query within each window;
//! * every tuple entering the engine increments the per-query and
//!   global `tuples_in` counters used by all the Figure 7/8
//!   experiments.
//!
//! [`engine::execute_window`] is the pure per-window evaluator;
//! [`engine::MicroBatchEngine`] adds multi-query bookkeeping;
//! [`worker`] runs engines on their own threads behind crossbeam
//! channels, mirroring a streaming cluster's asynchronous intake; and
//! [`shard`] partitions window batches by each query's group keys so
//! a [`worker::ShardedEngine`] can fan one window out over N workers
//! and union the results without changing any observable output.

pub mod engine;
pub mod merge;
pub mod shard;
pub mod testsupport;
pub mod window;
pub mod worker;

pub use engine::{
    execute_window, run_entries_owned, BoundEntries, EngineCounters, JobResult, MicroBatchEngine,
    StreamError,
};
pub use merge::{canonicalize_batch, canonicalize_batches, merge_window_batches, SwitchPartial};
pub use shard::{merge_results, partition_spec, shard_filter, split_batch, PartitionSpec};
pub use window::{codegen_stream_plan, stream_loc, WindowBatch};
pub use worker::{spawn_worker, ShardedEngine, WorkerHandle};
