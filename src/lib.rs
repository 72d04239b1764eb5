//! # Sonata: query-driven streaming network telemetry
//!
//! A Rust reproduction of *Sonata: Query-Driven Streaming Network
//! Telemetry* (Gupta et al., SIGCOMM 2018): express network telemetry
//! tasks as declarative dataflow queries over packet streams, and let
//! the system partition each query between a programmable (PISA)
//! switch and a stream processor while dynamically refining it to
//! zoom in on the traffic that matters — reducing stream-processor
//! load by orders of magnitude.
//!
//! ```
//! use sonata::prelude::*;
//!
//! // 1. A query (the paper's Query 1: detect new-TCP-connection floods).
//! let query = catalog::newly_opened_tcp_conns(&Thresholds::default());
//!
//! // 2. Traffic: synthetic background plus a SYN flood needle.
//! let mut trace = Trace::background(&BackgroundConfig::small(), 7);
//! trace.inject(&Attack::SynFlood {
//!     victim: 0x63070019, port: 80, packets: 500, sources: 200,
//!     ack_fraction: 0.05, fin_fraction: 0.02,
//!     start_ms: 0, duration_ms: 2_500,
//! }, 7);
//!
//! // 3. Plan: partition + refine against training windows.
//! let windows: Vec<&[sonata::packet::Packet]> =
//!     trace.windows(3_000).map(|(_, p)| p).collect();
//! let plan = plan_queries(&[query], &windows, &PlannerConfig::default()).unwrap();
//!
//! // 4. Run end to end on the switch + stream-processor substrate.
//! let mut runtime = Runtime::new(&plan, RuntimeConfig::default()).unwrap();
//! let report = runtime.process_trace(&trace).unwrap();
//! assert!(report.total_tuples() < report.total_packets());
//! ```
//!
//! The implementation lives in focused sub-crates, re-exported here:
//!
//! | module | contents |
//! |---|---|
//! | [`packet`] | wire-format packets, header views, the field model |
//! | [`traffic`] | synthetic CAIDA-like traces and attack injectors |
//! | [`query`] | the dataflow query language + reference interpreter |
//! | [`pisa`] | the PISA switch behavioral model (P4-like IR, registers, resources, control API) |
//! | [`stream`] | the micro-batch stream processor |
//! | [`ilp`] | the from-scratch MILP solver behind the query planner |
//! | [`planner`] | cost estimation, partitioning + refinement planning, baseline plans |
//! | [`net`] | the switch↔stream-processor wire protocol: binary codec, Loopback/Tcp transports, collector server |
//! | [`core`] | the runtime: drivers, emitter, per-window orchestration |
//! | [`obs`] | cross-layer observability: metrics registry, event tracing, per-stage profiling |
//! | [`faults`] | deterministic fault injection with graceful degradation |

pub use sonata_core as core;
pub use sonata_faults as faults;
pub use sonata_ilp as ilp;
pub use sonata_net as net;
pub use sonata_obs as obs;
pub use sonata_packet as packet;
pub use sonata_pisa as pisa;
pub use sonata_planner as planner;
pub use sonata_query as query;
pub use sonata_stream as stream;
pub use sonata_traffic as traffic;

/// One-stop imports for applications.
pub mod prelude {
    pub use sonata_core::{
        DegradedWindow, DriftConfig, ErrorBoundReport, Fabric, ReplanConfig, Runtime,
        RuntimeConfig, SwitchArrival, SwitchOutage, TelemetryReport, TopologyConfig, WindowLatency,
        WindowReport,
    };
    pub use sonata_faults::{
        BoundaryFaults, FaultKind, FaultPlan, FaultRecord, ReportFaults, WorkerFaults,
    };
    pub use sonata_net::TransportKind;
    pub use sonata_obs::{MetricsSnapshot, ObsHandle};
    pub use sonata_packet::{Field, Packet, PacketBuilder, TcpFlags, Value};
    pub use sonata_pisa::{SketchConfig, StateLayout, SwitchConstraints, UpdateCostModel};
    pub use sonata_planner::costs::{CostConfig, SketchPolicy};
    pub use sonata_planner::{plan_queries, GlobalPlan, PlanMode, PlannerConfig, Replanner};
    pub use sonata_query::catalog::{self, Thresholds};
    pub use sonata_query::prelude::*;
    pub use sonata_traffic::{Attack, BackgroundConfig, DriftScenario, DriftWorkload, Trace};
}
