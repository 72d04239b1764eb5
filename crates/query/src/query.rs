//! The query AST: pipelines, joins, whole queries, and the builder DSL.
//!
//! A [`Query`] is a linear [`Pipeline`] of operators over the packet
//! stream, optionally joined with a second pipeline ([`Join`]) and
//! followed by post-join operators — the exact shapes of the paper's
//! eleven queries. Validation propagates schemas through every
//! operator and rejects unknown columns up front.

use crate::expr::{Expr, Pred};
use crate::ops::{Agg, Operator};
use crate::tuple::{ColName, Schema};
use sonata_packet::wire::{field_mask, ALL_FIELDS};
use sonata_packet::Field;
use std::collections::HashMap;
use std::fmt;

/// A query identifier, carried in report packets as `qid`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u32);

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// A linear sequence of dataflow operators.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Pipeline {
    /// Operators in execution order.
    pub ops: Vec<Operator>,
}

impl Pipeline {
    /// An empty pipeline (identity).
    pub fn new() -> Self {
        Pipeline { ops: Vec::new() }
    }

    /// Propagate a schema through every operator, or report the first
    /// unknown column and the index of the offending operator.
    pub fn output_schema(&self, input: &Schema) -> Result<Schema, (usize, ColName)> {
        let mut schema = input.clone();
        for (i, op) in self.ops.iter().enumerate() {
            schema = op.output_schema(&schema).map_err(|c| (i, c))?;
        }
        Ok(schema)
    }

    /// Whether any operator is stateful.
    pub fn has_stateful(&self) -> bool {
        self.ops.iter().any(Operator::is_stateful)
    }

    /// Whether the pipeline ends with a threshold filter
    /// (`col > lit` / `col >= lit`) — i.e. its output is already a
    /// thresholded aggregate. Dynamic refinement treats such a branch
    /// of a join query as a self-contained signal whose coarse output
    /// feeds the next level (the paper's Query 3: the first sub-query
    /// identifies the hosts; the payload predicate only confirms).
    pub fn ends_with_threshold_filter(&self) -> bool {
        matches!(
            self.ops.last(),
            Some(Operator::Filter(crate::expr::Pred::Cmp {
                lhs: Expr::Col(_),
                op: crate::expr::CmpOp::Gt | crate::expr::CmpOp::Ge,
                rhs: Expr::Lit(_),
            }))
        )
    }

    /// Whether any filter in the pipeline searches packet content
    /// (`payload.contains(..)`) — a rare-event *confirmation* predicate
    /// that coarse refinement levels cannot wait for.
    pub fn has_content_predicate(&self) -> bool {
        fn pred_has_contains(p: &Pred) -> bool {
            match p {
                Pred::Contains { .. } => true,
                Pred::And(ps) | Pred::Or(ps) => ps.iter().any(pred_has_contains),
                Pred::Not(inner) => pred_has_contains(inner),
                _ => false,
            }
        }
        self.ops.iter().any(|op| match op {
            Operator::Filter(p) => pred_has_contains(p),
            _ => false,
        })
    }

    /// Column origins after the pipeline: for each output column, the
    /// packet field it is an (optionally masked) copy of, if any.
    pub fn lineage(
        &self,
        input: &Schema,
        input_origins: &HashMap<ColName, Field>,
    ) -> (Schema, HashMap<ColName, Field>) {
        let mut schema = input.clone();
        let mut origins = input_origins.clone();
        for op in &self.ops {
            match op {
                Operator::Filter(_) | Operator::Distinct => {}
                Operator::Map { exprs } => {
                    let mut next = HashMap::new();
                    for (name, e) in exprs {
                        if let Some(f) = expr_origin(e, &origins) {
                            next.insert(name.clone(), f);
                        }
                    }
                    origins = next;
                }
                Operator::Reduce { keys, out, .. } => {
                    let mut next = HashMap::new();
                    for k in keys {
                        if let Some(f) = origins.get(k) {
                            next.insert(k.clone(), *f);
                        }
                    }
                    next.remove(out);
                    origins = next;
                }
            }
            // Schema errors are caught by validation; here we just stop
            // refining lineage if propagation fails.
            match op.output_schema(&schema) {
                Ok(s) => schema = s,
                Err(_) => break,
            }
        }
        (schema, origins)
    }
}

/// The packet field an expression is a plain or masked copy of.
fn expr_origin(e: &Expr, origins: &HashMap<ColName, Field>) -> Option<Field> {
    match e {
        Expr::Col(c) => origins.get(c).copied(),
        Expr::Mask(inner, _) => expr_origin(inner, origins),
        _ => None,
    }
}

/// Origins of the raw packet schema: every column is its own field.
pub fn packet_origins() -> HashMap<ColName, Field> {
    Field::ALL
        .iter()
        .map(|f| (ColName::from(f.name()), *f))
        .collect()
}

/// A join connecting the main pipeline with a second sub-query.
///
/// Tuples from the left (main) pipeline join tuples from `right` on
/// `keys`; the joined tuple is the left tuple extended with the right
/// tuple's non-key columns, then flows through `post`.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    /// Join key column names, as found in the **right** output schema.
    pub keys: Vec<ColName>,
    /// Expressions computing the join key from a **left** tuple; by
    /// default `Col(key)` for each key, but Query 3 joins raw packets
    /// (left) with aggregated tuples (right) and needs `ipv4.dIP`
    /// mapped to the right's `dIP`.
    pub left_keys: Vec<Expr>,
    /// The second sub-query, also reading the packet stream.
    pub right: Pipeline,
    /// Operators applied to joined tuples.
    pub post: Pipeline,
}

/// Marks a query as refinable on a hierarchical key (Section 4.1).
#[derive(Debug, Clone, PartialEq)]
pub struct RefinementHint {
    /// The hierarchical packet field (e.g. [`Field::Ipv4Dst`]).
    pub field: Field,
    /// The column in the query's final output holding the key, so the
    /// runtime can feed level-`rᵢ` results into the level-`rᵢ₊₁` filter.
    pub out_col: ColName,
}

/// Identifies one of the up-to-three pipelines in a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineRef {
    /// The main pipeline (before any join).
    Left,
    /// The join's right sub-query.
    Right,
    /// The post-join pipeline.
    Post,
}

/// A position of an operator inside a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpRef {
    /// Which pipeline.
    pub pipeline: PipelineRef,
    /// Index within that pipeline.
    pub index: usize,
}

/// A complete telemetry query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Identifier carried through compilation and reports.
    pub id: QueryId,
    /// Human-readable name ("newly_opened_tcp_conns").
    pub name: String,
    /// Tumbling-window duration for stateful operators, in
    /// milliseconds. The paper's evaluation uses W = 3 s.
    pub window_ms: u64,
    /// The main operator pipeline.
    pub pipeline: Pipeline,
    /// Optional join with a second sub-query.
    pub join: Option<Join>,
    /// Refinement key, when the query supports dynamic refinement.
    pub refinement: Option<RefinementHint>,
    /// Maximum acceptable detection delay `D_q`, in windows; bounds the
    /// number of refinement levels the planner may use.
    pub delay_budget: Option<usize>,
}

/// Errors detected while validating a query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// A pipeline is empty where operators are required.
    EmptyQuery,
    /// An operator references a column absent from its input schema.
    UnknownColumn {
        /// Where the operator sits.
        at: OpRef,
        /// The missing column.
        column: ColName,
    },
    /// A join key is missing from the right sub-query's output.
    JoinKeyMissing {
        /// The missing key.
        key: ColName,
    },
    /// `left_keys` length differs from `keys` length.
    JoinKeyArity {
        /// Number of `keys`.
        keys: usize,
        /// Number of `left_keys`.
        left_keys: usize,
    },
    /// A `left_keys` expression references a column absent from the
    /// left output schema.
    JoinLeftKeyUnknown {
        /// The missing column.
        column: ColName,
    },
    /// The refinement hint's output column is absent from the final
    /// schema.
    RefinementColMissing {
        /// The missing column.
        column: ColName,
    },
    /// The refinement hint names a non-hierarchical field.
    RefinementNotHierarchical {
        /// The offending field.
        field: Field,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::EmptyQuery => write!(f, "query has no operators"),
            QueryError::UnknownColumn { at, column } => write!(
                f,
                "operator {:?}[{}] references unknown column `{column}`",
                at.pipeline, at.index
            ),
            QueryError::JoinKeyMissing { key } => {
                write!(f, "join key `{key}` missing from right sub-query output")
            }
            QueryError::JoinKeyArity { keys, left_keys } => write!(
                f,
                "join has {keys} keys but {left_keys} left key expressions"
            ),
            QueryError::JoinLeftKeyUnknown { column } => {
                write!(f, "left join key references unknown column `{column}`")
            }
            QueryError::RefinementColMissing { column } => {
                write!(
                    f,
                    "refinement output column `{column}` missing from final schema"
                )
            }
            QueryError::RefinementNotHierarchical { field } => {
                write!(f, "refinement field `{field}` is not hierarchical")
            }
        }
    }
}

impl std::error::Error for QueryError {}

impl Query {
    /// Start building a query.
    pub fn builder(name: &str, id: u32) -> QueryBuilder {
        QueryBuilder {
            query: Query {
                id: QueryId(id),
                name: name.to_string(),
                window_ms: 3_000,
                pipeline: Pipeline::new(),
                join: None,
                refinement: None,
                delay_budget: None,
            },
            in_post: false,
        }
    }

    /// Access a pipeline by reference id.
    pub fn pipeline_ref(&self, r: PipelineRef) -> Option<&Pipeline> {
        match r {
            PipelineRef::Left => Some(&self.pipeline),
            PipelineRef::Right => self.join.as_ref().map(|j| &j.right),
            PipelineRef::Post => self.join.as_ref().map(|j| &j.post),
        }
    }

    /// Mutable access to a pipeline by reference id.
    pub fn pipeline_ref_mut(&mut self, r: PipelineRef) -> Option<&mut Pipeline> {
        match r {
            PipelineRef::Left => Some(&mut self.pipeline),
            PipelineRef::Right => self.join.as_mut().map(|j| &mut j.right),
            PipelineRef::Post => self.join.as_mut().map(|j| &mut j.post),
        }
    }

    /// The schema of the left pipeline's output (before any join).
    pub fn left_schema(&self) -> Result<Schema, QueryError> {
        self.pipeline
            .output_schema(&Schema::packet())
            .map_err(|(index, column)| QueryError::UnknownColumn {
                at: OpRef {
                    pipeline: PipelineRef::Left,
                    index,
                },
                column,
            })
    }

    /// The final output schema of the whole query.
    pub fn output_schema(&self) -> Result<Schema, QueryError> {
        let left = self.left_schema()?;
        let Some(join) = &self.join else {
            return Ok(left);
        };
        let right = join
            .right
            .output_schema(&Schema::packet())
            .map_err(|(index, column)| QueryError::UnknownColumn {
                at: OpRef {
                    pipeline: PipelineRef::Right,
                    index,
                },
                column,
            })?;
        for k in &join.keys {
            if !right.contains(k) {
                return Err(QueryError::JoinKeyMissing { key: k.clone() });
            }
        }
        let joined = joined_schema(&left, &right, &join.keys);
        join.post
            .output_schema(&joined)
            .map_err(|(index, column)| QueryError::UnknownColumn {
                at: OpRef {
                    pipeline: PipelineRef::Post,
                    index,
                },
                column,
            })
    }

    /// Validate the whole query: schema propagation, join key
    /// consistency, and the refinement hint.
    pub fn validate(&self) -> Result<(), QueryError> {
        if self.pipeline.ops.is_empty() && self.join.is_none() {
            return Err(QueryError::EmptyQuery);
        }
        let left = self.left_schema()?;
        if let Some(join) = &self.join {
            if join.keys.len() != join.left_keys.len() {
                return Err(QueryError::JoinKeyArity {
                    keys: join.keys.len(),
                    left_keys: join.left_keys.len(),
                });
            }
            for e in &join.left_keys {
                let mut cols = Vec::new();
                e.referenced_cols(&mut cols);
                for c in cols {
                    if !left.contains(&c) {
                        return Err(QueryError::JoinLeftKeyUnknown { column: c });
                    }
                }
            }
        }
        let out = self.output_schema()?;
        if let Some(hint) = &self.refinement {
            if !hint.field.is_hierarchical() {
                return Err(QueryError::RefinementNotHierarchical { field: hint.field });
            }
            if !out.contains(&hint.out_col) {
                return Err(QueryError::RefinementColMissing {
                    column: hint.out_col.clone(),
                });
            }
        }
        Ok(())
    }

    /// Every packet [`Field`] referenced anywhere in the query — the
    /// switch parser must extract exactly these (plus qid metadata).
    pub fn referenced_fields(&self) -> Vec<Field> {
        let mut cols: Vec<ColName> = Vec::new();
        let mut collect = |p: &Pipeline| {
            for op in &p.ops {
                match op {
                    Operator::Filter(pred) => pred.referenced_cols(&mut cols),
                    Operator::Map { exprs } => {
                        for (_, e) in exprs {
                            e.referenced_cols(&mut cols);
                        }
                    }
                    Operator::Reduce { keys, value, .. } => {
                        for k in keys {
                            if !cols.contains(k) {
                                cols.push(k.clone());
                            }
                        }
                        if !cols.contains(value) {
                            cols.push(value.clone());
                        }
                    }
                    Operator::Distinct => {}
                }
            }
        };
        collect(&self.pipeline);
        if let Some(join) = &self.join {
            collect(&join.right);
            collect(&join.post);
            for e in &join.left_keys {
                e.referenced_cols(&mut cols);
            }
        }
        let mut fields: Vec<Field> = Vec::new();
        for c in cols {
            if let Some(f) = Field::ALL.iter().find(|f| f.name() == c.as_ref()) {
                if !fields.contains(f) {
                    fields.push(*f);
                }
            }
        }
        fields
    }

    /// The packet fields a stream processor running the query over raw
    /// packets reads, as a [`field_mask`]: [`Self::referenced_fields`],
    /// or every field when some operator takes the packet row whole — a
    /// `distinct` over the raw packet schema, or a branch whose output
    /// is still raw packets (the output, or a join's side, is then the
    /// packets themselves).
    pub fn packet_field_mask(&self) -> u32 {
        let whole = |p: &Pipeline| {
            let mut schema = Schema::packet();
            for op in &p.ops {
                if schema.is_packet() && matches!(op, Operator::Distinct) {
                    return true;
                }
                match op.output_schema(&schema) {
                    Ok(next) => schema = next,
                    Err(_) => return true,
                }
            }
            schema.is_packet()
        };
        let right = self.join.as_ref().map(|j| &j.right);
        if whole(&self.pipeline) || right.is_some_and(whole) {
            ALL_FIELDS
        } else {
            field_mask(&self.referenced_fields())
        }
    }

    /// Candidate refinement keys: hierarchical packet fields used as a
    /// key of a stateful operator, whose value survives (possibly
    /// masked) into the query output. Returns `(field, output column)`
    /// pairs. For join queries the field must key stateful operators in
    /// *both* branches (both sub-queries share the refinement plan).
    pub fn refinement_candidates(&self) -> Vec<(Field, ColName)> {
        let left_keys = stateful_key_origins(&self.pipeline);
        let out = match self.output_schema() {
            Ok(s) => s,
            Err(_) => return Vec::new(),
        };
        let candidate_fields: Vec<Field> = match &self.join {
            None => left_keys,
            Some(join) => {
                let right_keys = stateful_key_origins(&join.right);
                // A post-pipeline stateful key also counts as a left
                // candidate when the left branch is raw packets.
                let post_keys = stateful_key_origins_from(
                    &join.post,
                    &joined_schema_for_lineage(self, join),
                    &joined_origins(self, join),
                );
                let mut left_all = left_keys;
                for f in post_keys {
                    if !left_all.contains(&f) {
                        left_all.push(f);
                    }
                }
                left_all
                    .into_iter()
                    .filter(|f| right_keys.contains(f))
                    .collect()
            }
        };
        // Keep only fields whose value reaches the output schema.
        let final_origins = self.output_origins();
        let mut result = Vec::new();
        for f in candidate_fields {
            if !f.is_hierarchical() {
                continue;
            }
            for col in out.columns() {
                if final_origins.get(col) == Some(&f) {
                    result.push((f, col.clone()));
                    break;
                }
            }
        }
        result
    }

    /// Column origins of the final output schema.
    pub fn output_origins(&self) -> HashMap<ColName, Field> {
        let (left_schema, left_origins) =
            self.pipeline.lineage(&Schema::packet(), &packet_origins());
        match &self.join {
            None => left_origins,
            Some(join) => {
                let (right_schema, right_origins) =
                    join.right.lineage(&Schema::packet(), &packet_origins());
                let joined = joined_schema(&left_schema, &right_schema, &join.keys);
                let mut origins = left_origins;
                for c in right_schema.columns() {
                    if !join.keys.contains(c) {
                        if let Some(f) = right_origins.get(c) {
                            origins.insert(c.clone(), *f);
                        }
                    }
                }
                // Right key columns land in the joined schema too when the
                // left lacks them (packet-schema left side).
                for k in &join.keys {
                    if joined.contains(k) && !origins.contains_key(k) {
                        if let Some(f) = right_origins.get(k) {
                            origins.insert(k.clone(), *f);
                        }
                    }
                }
                let (_, post_origins) = join.post.lineage(&joined, &origins);
                post_origins
            }
        }
    }

    /// Threshold filters: `Filter(col > lit)` / `Filter(col >= lit)`
    /// operators downstream of a stateful operator — the thresholds
    /// dynamic refinement relaxes at coarse levels (Section 4.1).
    pub fn threshold_filters(&self) -> Vec<(OpRef, ColName, u64)> {
        let mut found = Vec::new();
        let scan = |p: &Pipeline, which: PipelineRef, seen_stateful_before: bool| {
            let mut out = Vec::new();
            let mut stateful = seen_stateful_before;
            for (i, op) in p.ops.iter().enumerate() {
                if op.is_stateful() {
                    stateful = true;
                    continue;
                }
                if !stateful {
                    continue;
                }
                if let Operator::Filter(Pred::Cmp {
                    lhs: Expr::Col(c),
                    op: crate::expr::CmpOp::Gt | crate::expr::CmpOp::Ge,
                    rhs: Expr::Lit(sonata_packet::Value::U64(t)),
                }) = op
                {
                    out.push((
                        OpRef {
                            pipeline: which,
                            index: i,
                        },
                        c.clone(),
                        *t,
                    ));
                }
            }
            out
        };
        found.extend(scan(&self.pipeline, PipelineRef::Left, false));
        if let Some(join) = &self.join {
            found.extend(scan(&join.right, PipelineRef::Right, false));
            // Post-join filters follow the joined aggregates.
            found.extend(scan(&join.post, PipelineRef::Post, true));
        }
        found
    }

    /// Replace the literal threshold of the filter at `at` with `value`.
    /// Returns false if `at` does not address a threshold filter.
    pub fn set_threshold(&mut self, at: OpRef, value: u64) -> bool {
        let Some(p) = self.pipeline_ref_mut(at.pipeline) else {
            return false;
        };
        let Some(Operator::Filter(Pred::Cmp { rhs, .. })) = p.ops.get_mut(at.index) else {
            return false;
        };
        if let Expr::Lit(v) = rhs {
            *v = sonata_packet::Value::U64(value);
            true
        } else {
            false
        }
    }

    /// The paper's "lines of Sonata code" metric for Table 3: one line
    /// for `packetStream` plus one per operator (joins count one line
    /// plus one `packetStream` for the second sub-query).
    pub fn sonata_loc(&self) -> usize {
        let mut loc = 1 + self.pipeline.ops.len();
        if let Some(join) = &self.join {
            loc += 2 + join.right.ops.len() + join.post.ops.len();
        }
        loc
    }
}

/// The schema of a joined tuple: left columns, then right columns not
/// already present (join keys and any coincidentally shared names).
pub fn joined_schema(left: &Schema, right: &Schema, _keys: &[ColName]) -> Schema {
    let extra: Vec<ColName> = right
        .columns()
        .iter()
        .filter(|c| !left.contains(c))
        .cloned()
        .collect();
    left.extend(extra)
}

fn joined_schema_for_lineage(q: &Query, join: &Join) -> Schema {
    let left = q
        .pipeline
        .output_schema(&Schema::packet())
        .unwrap_or_else(|_| Schema::packet());
    let right = join
        .right
        .output_schema(&Schema::packet())
        .unwrap_or_else(|_| Schema::packet());
    joined_schema(&left, &right, &join.keys)
}

fn joined_origins(q: &Query, join: &Join) -> HashMap<ColName, Field> {
    let (_, left_origins) = q.pipeline.lineage(&Schema::packet(), &packet_origins());
    let (right_schema, right_origins) = join.right.lineage(&Schema::packet(), &packet_origins());
    let mut origins = left_origins;
    for c in right_schema.columns() {
        if let Some(f) = right_origins.get(c) {
            origins.entry(c.clone()).or_insert(*f);
        }
    }
    origins
}

/// Hierarchical fields that key stateful operators of a pipeline fed by
/// raw packets.
fn stateful_key_origins(p: &Pipeline) -> Vec<Field> {
    stateful_key_origins_from(p, &Schema::packet(), &packet_origins())
}

fn stateful_key_origins_from(
    p: &Pipeline,
    input: &Schema,
    input_origins: &HashMap<ColName, Field>,
) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut schema = input.clone();
    let mut origins = input_origins.clone();
    for op in &p.ops {
        match op {
            Operator::Reduce { keys, .. } => {
                for k in keys {
                    if let Some(f) = origins.get(k) {
                        if f.is_hierarchical() && !fields.contains(f) {
                            fields.push(*f);
                        }
                    }
                }
            }
            Operator::Distinct => {
                for c in schema.columns() {
                    if let Some(f) = origins.get(c) {
                        if f.is_hierarchical() && !fields.contains(f) {
                            fields.push(*f);
                        }
                    }
                }
            }
            _ => {}
        }
        let single = Pipeline {
            ops: vec![op.clone()],
        };
        let (s, o) = single.lineage(&schema, &origins);
        schema = s;
        origins = o;
    }
    fields
}

/// Fluent builder for [`Query`], mirroring the paper's notation.
///
/// Operators added before [`QueryBuilder::join_with`] go to the main
/// pipeline; operators added after it go to the post-join pipeline.
#[derive(Debug, Clone)]
pub struct QueryBuilder {
    query: Query,
    in_post: bool,
}

impl QueryBuilder {
    /// Set the window duration in milliseconds (default 3000).
    pub fn window_ms(mut self, ms: u64) -> Self {
        self.query.window_ms = ms;
        self
    }

    /// Append a filter.
    pub fn filter(mut self, pred: Pred) -> Self {
        self.push(Operator::Filter(pred));
        self
    }

    /// Append a map with named output columns.
    pub fn map<I, S>(mut self, exprs: I) -> Self
    where
        I: IntoIterator<Item = (S, Expr)>,
        S: Into<ColName>,
    {
        self.push(Operator::Map {
            exprs: exprs.into_iter().map(|(n, e)| (n.into(), e)).collect(),
        });
        self
    }

    /// Append a reduce; the output column keeps the value column name.
    pub fn reduce(self, keys: &[&str], agg: Agg, value: &str) -> Self {
        self.reduce_named(keys, agg, value, value)
    }

    /// Append a reduce with an explicit output column name.
    pub fn reduce_named(mut self, keys: &[&str], agg: Agg, value: &str, out: &str) -> Self {
        self.push(Operator::Reduce {
            keys: keys.iter().map(|k| ColName::from(*k)).collect(),
            agg,
            value: value.into(),
            out: out.into(),
        });
        self
    }

    /// Append a distinct.
    pub fn distinct(mut self) -> Self {
        self.push(Operator::Distinct);
        self
    }

    /// Join the pipeline built so far with a second sub-query on
    /// `keys`; subsequent operators apply to the joined stream. The
    /// sub-query is built by `f` from a fresh builder.
    pub fn join_with<F>(self, keys: &[&str], f: F) -> Self
    where
        F: FnOnce(QueryBuilder) -> QueryBuilder,
    {
        let left_keys = keys.iter().map(|k| crate::expr::col(k)).collect();
        self.join_with_keys(keys, left_keys, f)
    }

    /// Like [`QueryBuilder::join_with`] but with explicit expressions
    /// computing the join key from left tuples (Query 3 joins raw
    /// packets against aggregated tuples).
    pub fn join_with_keys<F>(mut self, keys: &[&str], left_keys: Vec<Expr>, f: F) -> Self
    where
        F: FnOnce(QueryBuilder) -> QueryBuilder,
    {
        assert!(self.query.join.is_none(), "query already has a join");
        let sub = f(Query::builder("__right", u32::MAX));
        self.query.join = Some(Join {
            keys: keys.iter().map(|k| ColName::from(*k)).collect(),
            left_keys,
            right: sub.query.pipeline,
            post: Pipeline::new(),
        });
        self.in_post = true;
        self
    }

    /// Mark the query refinable on `field`, with the key appearing in
    /// the output as `out_col`.
    pub fn refine_on(mut self, field: Field, out_col: &str) -> Self {
        self.query.refinement = Some(RefinementHint {
            field,
            out_col: out_col.into(),
        });
        self
    }

    /// Set the maximum detection delay in windows.
    pub fn delay_budget(mut self, windows: usize) -> Self {
        self.query.delay_budget = Some(windows);
        self
    }

    fn push(&mut self, op: Operator) {
        if self.in_post {
            self.query
                .join
                .as_mut()
                .expect("in_post implies join")
                .post
                .ops
                .push(op);
        } else {
            self.query.pipeline.ops.push(op);
        }
    }

    /// Validate and return the query.
    pub fn build(self) -> Result<Query, QueryError> {
        self.query.validate()?;
        Ok(self.query)
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "// {} ({})", self.name, self.id)?;
        writeln!(f, "packetStream(W={}ms)", self.window_ms)?;
        for op in &self.pipeline.ops {
            writeln!(f, "  {op}")?;
        }
        if let Some(join) = &self.join {
            write!(f, "  .join(keys=(")?;
            for (i, k) in join.keys.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{k}")?;
            }
            writeln!(f, "), packetStream")?;
            for op in &join.right.ops {
                writeln!(f, "    {op}")?;
            }
            writeln!(f, "  )")?;
            for op in &join.post.ops {
                writeln!(f, "  {op}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{self, Thresholds};

    #[test]
    fn ends_with_threshold_filter_detection() {
        let t = Thresholds::default();
        // Zorro's right branch ends with filter(cnt1 > Th1).
        let zorro = catalog::zorro(&t);
        assert!(zorro
            .join
            .as_ref()
            .unwrap()
            .right
            .ends_with_threshold_filter());
        // Zorro's left branch is a bare packet filter, not a threshold.
        assert!(!zorro.pipeline.ends_with_threshold_filter());
        // SYN flood branches end in reduce (no threshold filter).
        let flood = catalog::tcp_syn_flood(&t);
        assert!(!flood.pipeline.ends_with_threshold_filter());
        assert!(!flood
            .join
            .as_ref()
            .unwrap()
            .right
            .ends_with_threshold_filter());
        // Query 1's pipeline ends with its threshold filter.
        assert!(catalog::newly_opened_tcp_conns(&t)
            .pipeline
            .ends_with_threshold_filter());
    }

    #[test]
    fn content_predicate_detection() {
        let t = Thresholds::default();
        let zorro = catalog::zorro(&t);
        assert!(zorro.join.as_ref().unwrap().post.has_content_predicate());
        assert!(!zorro.pipeline.has_content_predicate());
        let flood = catalog::tcp_syn_flood(&t);
        assert!(!flood.join.as_ref().unwrap().post.has_content_predicate());
        let slow = catalog::slowloris(&t);
        assert!(!slow.join.as_ref().unwrap().post.has_content_predicate());
    }

    #[test]
    fn threshold_filters_found_in_all_pipelines() {
        let t = Thresholds::default();
        let slow = catalog::slowloris(&t);
        let filters = slow.threshold_filters();
        // bytes > Th1 (right branch) and cpkb > Th2 (post).
        assert_eq!(filters.len(), 2);
        let pipes: Vec<_> = filters.iter().map(|(at, _, _)| at.pipeline).collect();
        assert!(pipes.contains(&PipelineRef::Right));
        assert!(pipes.contains(&PipelineRef::Post));
    }

    #[test]
    fn set_threshold_round_trip() {
        let t = Thresholds::default();
        let mut q = catalog::newly_opened_tcp_conns(&t);
        let (at, col, orig) = q.threshold_filters()[0].clone();
        assert_eq!(col.as_ref(), "count");
        assert_eq!(orig, t.new_tcp);
        assert!(q.set_threshold(at, 999));
        assert_eq!(q.threshold_filters()[0].2, 999);
        // Addressing a non-filter op fails gracefully.
        let bad = OpRef {
            pipeline: PipelineRef::Left,
            index: 1,
        }; // the map
        assert!(!q.set_threshold(bad, 1));
        // A right-branch address on a join-free query fails too.
        let no_branch = OpRef {
            pipeline: PipelineRef::Right,
            index: 0,
        };
        assert!(!q.set_threshold(no_branch, 1));
    }

    #[test]
    fn sonata_loc_counts_join_lines() {
        let t = Thresholds::default();
        let q1 = catalog::newly_opened_tcp_conns(&t);
        assert_eq!(q1.sonata_loc(), 1 + 4);
        let flood = catalog::tcp_syn_flood(&t);
        // packetStream + 3 left ops + join line + packetStream + 3 right + 2 post
        assert_eq!(flood.sonata_loc(), 1 + 3 + 2 + 3 + 2);
    }

    #[test]
    fn builder_rejects_bad_queries() {
        use crate::expr::{col, lit};
        // Unknown column in map.
        let err = Query::builder("bad", 1)
            .map([("x", col("nope"))])
            .build()
            .unwrap_err();
        assert!(matches!(err, QueryError::UnknownColumn { .. }));
        // Join key absent from right output.
        let err = Query::builder("bad2", 2)
            .map([("a", lit(1))])
            .join_with(&["missing"], |b| b.map([("b", lit(2))]))
            .build()
            .unwrap_err();
        // The key is missing from both sides; left-key validation
        // fires first.
        assert!(matches!(
            err,
            QueryError::JoinKeyMissing { .. } | QueryError::JoinLeftKeyUnknown { .. }
        ));
        // Refinement hint column not in output.
        let err = Query::builder("bad3", 3)
            .map([("a", lit(1))])
            .refine_on(sonata_packet::Field::Ipv4Dst, "gone")
            .build()
            .unwrap_err();
        assert!(matches!(err, QueryError::RefinementColMissing { .. }));
        // Refinement on a flat field.
        let err = Query::builder("bad4", 4)
            .map([("a", crate::expr::field(sonata_packet::Field::TcpFlags))])
            .refine_on(sonata_packet::Field::TcpFlags, "a")
            .build()
            .unwrap_err();
        assert!(matches!(err, QueryError::RefinementNotHierarchical { .. }));
        // Empty query.
        let err = Query::builder("bad5", 5).build().unwrap_err();
        assert!(matches!(err, QueryError::EmptyQuery));
    }
}
