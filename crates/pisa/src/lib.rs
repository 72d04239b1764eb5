//! # sonata-pisa
//!
//! A behavioral model of a PISA (protocol-independent switch
//! architecture) switch — the substrate Sonata partitions queries onto.
//!
//! The paper targets Barefoot Tofino and the BMV2 P4 software switch;
//! its evaluation parameterizes a *simulated* PISA switch by four
//! resource constraints (Section 3.2): metadata bits `M`, stateful
//! actions per stage `A`, register bits per stage `B`, and pipeline
//! stages `S`. This crate implements that model end to end:
//!
//! * a **P4-like IR** ([`ir`]) — parser specification, match-action
//!   tables (filter / map / dynamic filter / hash / register-update),
//!   metadata layout, and register declarations, all assigned to
//!   pipeline stages;
//! * a **packet header vector** ([`phv`]) and a **reconfigurable
//!   parser** ([`parser`]) that extracts exactly the fields a compiled
//!   query needs, either from raw wire bytes or from decoded packets;
//! * **hash-indexed registers** ([`registers`]) with the paper's
//!   `d`-register collision-mitigation scheme: keys are stored beside
//!   values, probes cascade across `d` differently-seeded arrays, and
//!   keys that collide in all `d` are *shunted* to the stream
//!   processor (Section 3.1.3);
//! * the **resource model** ([`resources`]) that validates a program
//!   against `M`/`A`/`B`/`S` at load time;
//! * the **behavioral model** itself ([`switch`]) — per-packet
//!   pipeline execution, report mirroring, end-of-window register
//!   dumps — and the **control API** ([`control`]) with the measured
//!   update-latency cost model from Section 6.2 (≈127 ms per 200 table
//!   entries, ≈4 ms register reset);
//! * a **query compiler** ([`compile`]) that turns a prefix of a
//!   Sonata dataflow pipeline into IR tables exactly as Section 3.1.2
//!   prescribes (filter → 1 table, map → 1 table, reduce/distinct →
//!   hash + update tables, threshold filters merged into the update
//!   table), and **codegen** ([`codegen`]) that renders the IR as
//!   P4-ish source for the Table 3 lines-of-code comparison.

pub mod batch;
pub mod codegen;
pub mod compile;
pub mod control;
pub(crate) mod exec;
pub mod ir;
pub mod parser;
pub mod phv;
pub mod registers;
pub mod resources;
pub mod switch;

pub use batch::{ReportBatch, ReportBlock, ReportChunk, ReportRef, CHUNK_BYTES};
pub use compile::{compile_pipeline, table_specs, CompileError, CompiledPipeline, TableSpec};
pub use control::{AppliedUpdate, ControlOp, UpdateCostModel};
pub use ir::{PisaProgram, RegisterDecl, Table, TableKind, TaskId};
pub use registers::{
    BloomRegisters, CmRegisters, HashRegisters, RegOutcome, RegisterState, SketchConfig,
    StateLayout,
};
pub use resources::{ResourceError, ResourceUsage, SwitchConstraints};
pub use switch::{
    Gate, Gated, Kernels, Report, ReportKind, SketchBound, Switch, SwitchCounters, WindowDump,
};
