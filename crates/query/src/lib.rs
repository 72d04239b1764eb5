//! # sonata-query
//!
//! Sonata's declarative query language (Section 2 of the paper): a
//! small set of dataflow operators — `filter`, `map`, `reduce`,
//! `distinct`, `join` — applied to a stream of packet tuples, with
//! tumbling windows for stateful operators.
//!
//! The crate provides:
//!
//! * the **tuple model** ([`mod@tuple`]) — positional tuples with named
//!   column schemas; a packet enters a pipeline as a tuple over the
//!   packet schema (one column per [`sonata_packet::Field`]);
//! * **expressions and predicates** ([`expr`]) with a binding step
//!   that resolves column names to indices once per schema, keeping the
//!   per-tuple hot path allocation-free for scalar work;
//! * the **query AST and builder DSL** ([`query`]) mirroring the
//!   paper's syntax (`packetStream.filter(..).map(..).reduce(..)`),
//!   including joins of two sub-queries and per-query windows;
//! * a **reference interpreter** ([`interpret`]) that executes a query
//!   in memory over a window of packets — the ground truth that the
//!   partitioned switch + stream-processor execution must reproduce;
//! * the **catalog** ([`catalog`]) of the paper's eleven telemetry
//!   queries (Table 3), each parameterized by its thresholds.
//!
//! ```
//! use sonata_query::prelude::*;
//! use sonata_packet::Field;
//!
//! // Query 1 from the paper: detect newly opened TCP connections.
//! let q = Query::builder("new_tcp", 1)
//!     .filter(field(Field::TcpFlags).eq(lit(2)))
//!     .map([("dIP", field(Field::Ipv4Dst)), ("count", lit(1))])
//!     .reduce(&["dIP"], Agg::Sum, "count")
//!     .filter(col("count").gt(lit(40)))
//!     .build()
//!     .unwrap();
//! assert_eq!(q.pipeline.ops.len(), 4);
//! ```

pub mod bound;
pub mod catalog;
pub mod expr;
pub mod interpret;
pub mod ops;
pub mod query;
pub mod tuple;

pub use bound::{BoundError, BoundJoin, BoundPipeline, Entries};
pub use expr::{col, field, lit, lit_text, CmpOp, Expr, Pred};
pub use ops::{Agg, Operator};
pub use query::{Join, Pipeline, Query, QueryBuilder, QueryError, QueryId, RefinementHint};
pub use tuple::{ColName, Heap, PacketBlock, RowRun, RowSource, Rows, Schema, Tuple};

/// Convenient glob-import surface for writing queries.
pub mod prelude {
    pub use crate::expr::{col, field, lit, lit_text, CmpOp, Expr, Pred};
    pub use crate::ops::{Agg, Operator};
    pub use crate::query::{Query, QueryBuilder, QueryId};
    pub use crate::tuple::{ColName, Schema, Tuple};
}
