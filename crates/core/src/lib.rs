//! # sonata-core
//!
//! Sonata's runtime (Section 5): the piece that takes a
//! [`sonata_planner::GlobalPlan`], compiles it onto the PISA behavioral
//! model and the stream engine, and drives the per-window loop:
//!
//! ```text
//!   packets ──▶ switch (partitioned query prefixes, registers)
//!                  │ mirrored reports            │ window dump
//!                  ▼                             ▼
//!               emitter  ── tuples per task ──▶ stream engine
//!                  ▲                             │ results
//!                  │   dynamic-refinement        ▼
//!               control ◀── level-r outputs ── runtime
//! ```
//!
//! * [`driver`] — the data-plane driver: compiles every (query ×
//!   refinement level × branch) task into one merged [`PisaProgram`],
//!   allocating metadata and registers globally, and the streaming
//!   driver: registers each level's residual query with the engine;
//! * [`emitter`] — parses mirrored reports by task, reorders tuple
//!   columns into each entry point's schema, and assembles per-window
//!   batches (per-packet reports, collision shunts, register dumps);
//! * [`fabric`] — the orchestration loop, one for every driver: per
//!   window, push packets through N switches, close the window
//!   (register dump + reset), merge the switches' partials, run the
//!   stream jobs on M collector shards, emit finest-level results as
//!   alerts, and feed coarser-level outputs into the next level's
//!   dynamic filter tables through the control API (with the paper's
//!   measured update latency model), watching collision pressure for
//!   re-planning;
//! * [`runtime`] — the run's configuration and reports, and the
//!   single-switch [`Runtime`], a fabric of one switch.
//!
//! [`PisaProgram`]: sonata_pisa::PisaProgram

pub mod drift;
pub mod driver;
pub mod emitter;
pub mod fabric;
pub mod runtime;

pub use drift::{DriftConfig, DriftMonitor, WindowDrift};
pub use driver::{DeployError, DeployedPlan, Deployment, QueryInstance};
pub use emitter::Emitter;
pub use fabric::{Fabric, SwitchOutage, TopologyConfig, SLICE_PACKETS};
pub use runtime::{
    DegradedWindow, ErrorBoundReport, ReplanConfig, Runtime, RuntimeConfig, SwitchArrival,
    TelemetryReport, WindowLatency, WindowReport,
};
pub use sonata_pisa::{SketchConfig, StateLayout};
