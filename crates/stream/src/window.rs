//! Window batches — the unit of work the emitter hands the engine —
//! and the Spark-style plan codegen used for the Table 3 LoC column.

use sonata_query::{Entries, Operator, Pipeline, Query, RowRun, Tuple};

/// All rows for one query and one window, keyed by the operator index
/// at which they enter each branch.
///
/// Entry indices come from the data-plane compiler:
/// * per-packet reports and window dumps enter at `sp_resume_op`;
/// * collision shunts enter at `shunt_entry_op` (the stateful op);
/// * an unpartitioned branch (All-SP) enters everything at 0.
///
/// An entry holds [`RowRun`]s — mirrored packets as selections over
/// their chunk's shared columns, report and dump rows as flat cells —
/// which the engine reads in place. Tuples are an edge form:
/// [`Self::push_left`] / [`Self::push_right`] convert them into rows,
/// [`Self::tuples`] reads rows back out.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowBatch {
    /// Left/main branch entries: op index → row runs.
    pub left: Entries,
    /// Right branch entries (join queries only).
    pub right: Entries,
}

impl WindowBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The entries of one branch: 0 is the left/main one, anything
    /// else the right.
    pub fn branch_mut(&mut self, branch: u8) -> &mut Entries {
        match branch {
            0 => &mut self.left,
            _ => &mut self.right,
        }
    }

    /// Add tuples entering the left branch at `op`.
    pub fn push_left(&mut self, op: usize, tuples: impl IntoIterator<Item = Tuple>) {
        self.push(0, op, tuples);
    }

    /// Add tuples entering the right branch at `op`.
    pub fn push_right(&mut self, op: usize, tuples: impl IntoIterator<Item = Tuple>) {
        self.push(1, op, tuples);
    }

    fn push(&mut self, branch: u8, op: usize, tuples: impl IntoIterator<Item = Tuple>) {
        let runs = self.branch_mut(branch).entry(op).or_default();
        for t in tuples {
            RowRun::push_tuple(runs, &t);
        }
    }

    /// The rows entering `branch` at `op`, as tuples.
    pub fn tuples(&self, branch: u8, op: usize) -> Vec<Tuple> {
        let side = if branch == 0 { &self.left } else { &self.right };
        let runs = side.get(&op).into_iter().flatten();
        runs.flat_map(RowRun::tuples).collect()
    }

    /// Total rows in the batch (the stream processor's intake, the
    /// paper's `N`).
    pub fn tuple_count(&self) -> usize {
        let runs = self.left.values().chain(self.right.values()).flatten();
        runs.map(RowRun::len).sum()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.tuple_count() == 0
    }
}

/// Render a query's residual dataflow as a Spark-Streaming-style plan
/// (Scala-ish), used for the "Spark LoC" column of Table 3. The
/// rendering covers the *whole* query, as the paper's comparison is
/// against writing the task directly on the stream processor.
pub fn codegen_stream_plan(query: &Query) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "// {} — generated Spark Streaming plan\n",
        query.name
    ));
    out.push_str(&format!(
        "val win = Seconds({})\n",
        (query.window_ms as f64 / 1000.0).max(1.0) as u64
    ));
    out.push_str("val left = packets.window(win)\n");
    render_pipeline(&mut out, "left", &query.pipeline);
    if let Some(join) = &query.join {
        out.push_str("val right = packets.window(win)\n");
        render_pipeline(&mut out, "right", &join.right);
        let keys = join
            .keys
            .iter()
            .map(|k| k.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!("val joined = left.join(right, on = ({keys}))\n"));
        render_pipeline(&mut out, "joined", &join.post);
        out.push_str("joined.foreachRDD(report)\n");
    } else {
        out.push_str("left.foreachRDD(report)\n");
    }
    out
}

fn render_pipeline(out: &mut String, var: &str, p: &Pipeline) {
    for op in &p.ops {
        match op {
            Operator::Filter(pred) => {
                out.push_str(&format!("  .filter(t => {pred})\n"));
            }
            Operator::Map { exprs } => {
                let body = exprs
                    .iter()
                    .map(|(n, e)| format!("{n} = {e}"))
                    .collect::<Vec<_>>()
                    .join(", ");
                out.push_str(&format!("  .map(t => ({body}))\n"));
            }
            Operator::Reduce {
                keys, agg, value, ..
            } => {
                let k = keys
                    .iter()
                    .map(|x| x.to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                out.push_str(&format!("  .map(t => (({k}), t.{value}))\n"));
                out.push_str(&format!("  .reduceByKey({agg})\n"));
            }
            Operator::Distinct => {
                out.push_str("  .transform(_.distinct())\n");
            }
        }
    }
    let _ = var;
}

/// Non-empty line count of the generated stream plan.
pub fn stream_loc(query: &Query) -> usize {
    codegen_stream_plan(query)
        .lines()
        .filter(|l| !l.trim().is_empty())
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sonata_packet::Value;
    use sonata_query::catalog::{self, Thresholds};

    #[test]
    fn batch_counts_tuples() {
        let mut b = WindowBatch::new();
        assert!(b.is_empty());
        b.push_left(0, vec![Tuple::new(vec![Value::U64(1)])]);
        b.push_left(
            2,
            vec![
                Tuple::new(vec![Value::U64(2)]),
                Tuple::new(vec![Value::U64(3)]),
            ],
        );
        b.push_right(1, vec![Tuple::new(vec![Value::U64(4)])]);
        assert_eq!(b.tuple_count(), 4);
        assert!(!b.is_empty());
        // Entries at the same op accumulate.
        b.push_left(0, vec![Tuple::new(vec![Value::U64(5)])]);
        assert_eq!(b.tuples(0, 0).len(), 2);
    }

    #[test]
    fn stream_plan_for_every_catalog_query() {
        for q in catalog::all(&Thresholds::default()) {
            let plan = codegen_stream_plan(&q);
            assert!(plan.contains(&q.name));
            let loc = stream_loc(&q);
            // Paper's Table 3 Spark column spans 4–15 lines.
            assert!((3..=25).contains(&loc), "{}: {loc} lines", q.name);
            if q.join.is_some() {
                assert!(plan.contains(".join("), "{}", q.name);
            }
        }
    }
}
