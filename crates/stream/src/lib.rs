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
//! [`engine::execute_window`] is the reference per-window evaluator
//! (the `sonata-query` interpreter over the batch's rows);
//! [`worker::ShardedEngine`] is the engine: one executor per registered
//! query on the compiled `BoundPipeline` fast path, with a window's
//! jobs run side by side on a small thread pool, one whole job per
//! thread, as a streaming cluster runs independent jobs.

pub mod engine;
pub mod merge;
pub mod testsupport;
pub mod window;
pub mod worker;

pub use engine::{execute_window, BoundEntries, EngineCounters, JobResult, StreamError};
pub use merge::{canonicalize_batch, canonicalize_batches, merge_window_batches, SwitchPartial};
pub use window::{codegen_stream_plan, stream_loc, WindowBatch};
pub use worker::{ShardedEngine, PARALLEL_FLOOR_TUPLES};
