//! Expressions and predicates over tuples.
//!
//! An [`Expr`] references columns by name; before execution it is
//! *bound* to a [`Schema`], resolving names to indices and reporting
//! unknown columns as [`BindError`]s. Binding happens once per
//! (operator, schema) pair; evaluation is then index-based.
//!
//! The expression language deliberately includes operations a PISA
//! switch *cannot* perform (integer division between columns, payload
//! search) — query partitioning (in `sonata-planner`) decides which
//! side executes each operator, so expressiveness here is never
//! limited by the data plane (Section 2 of the paper).

use crate::tuple::{ColName, Heap, RowSource, Schema, Tuple};
use sonata_packet::Value;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// An unbound expression over named columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A column reference.
    Col(ColName),
    /// A literal value.
    Lit(Value),
    /// Keep the top `level` bits (IPv4) or last `level` labels (DNS
    /// names) of the operand — the refinement-key mask (Section 4.1).
    Mask(Box<Expr>, u8),
    /// Integer addition.
    Add(Box<Expr>, Box<Expr>),
    /// Saturating integer subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Integer multiplication.
    Mul(Box<Expr>, Box<Expr>),
    /// Integer division (0 when the divisor is 0). PISA switches do not
    /// support division; an operator using it must run at the stream
    /// processor unless the divisor is a power of two (a shift).
    Div(Box<Expr>, Box<Expr>),
}

/// Comparison operators for predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Greater than.
    Gt,
    /// Greater or equal.
    Ge,
    /// Less than.
    Lt,
    /// Less or equal.
    Le,
}

impl CmpOp {
    /// Evaluate the comparison on two values. Values of different
    /// kinds compare unequal (and never satisfy an ordering).
    pub fn eval(self, a: &Value, b: &Value) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            _ => self.holds(cmp_same_kind(a, b)),
        }
    }

    /// Whether an ordering comparison holds of operands ordered `ord`
    /// (`None`: of different kinds).
    fn holds(self, ord: Option<std::cmp::Ordering>) -> bool {
        use std::cmp::Ordering::{Equal, Greater, Less};
        match self {
            CmpOp::Eq => ord == Some(Equal),
            CmpOp::Ne => ord != Some(Equal),
            CmpOp::Gt => ord == Some(Greater),
            CmpOp::Ge => matches!(ord, Some(Greater | Equal)),
            CmpOp::Lt => ord == Some(Less),
            CmpOp::Le => matches!(ord, Some(Less | Equal)),
        }
    }

    /// The comparison on plain `u64`s, as the switch's match tables
    /// apply it. A loop over many lanes should match on the operator
    /// once, outside the loop, and call this in each arm.
    #[inline(always)]
    pub fn eval_u64(self, a: u64, b: u64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
        }
    }

    /// [`Self::eval`] on two cells of `heap`.
    #[inline]
    pub(crate) fn eval_cells(self, a: u64, b: u64, heap: &Heap) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            _ => self.holds(heap.order_same_kind(a, b)),
        }
    }
}

pub(crate) fn cmp_same_kind(a: &Value, b: &Value) -> Option<std::cmp::Ordering> {
    match (a, b) {
        (Value::U64(x), Value::U64(y)) => Some(x.cmp(y)),
        (Value::Text(x), Value::Text(y)) => Some(x.cmp(y)),
        (Value::Bytes(x), Value::Bytes(y)) => Some(x.cmp(y)),
        _ => None,
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
        };
        f.write_str(s)
    }
}

/// An unbound predicate over named columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pred {
    /// Comparison of two expressions.
    Cmp {
        /// Left operand.
        lhs: Expr,
        /// Operator.
        op: CmpOp,
        /// Right operand.
        rhs: Expr,
    },
    /// Conjunction (true when empty).
    And(Vec<Pred>),
    /// Disjunction (false when empty).
    Or(Vec<Pred>),
    /// Negation.
    Not(Box<Pred>),
    /// Substring search in a bytes/text column — payload processing,
    /// executable only at the stream processor.
    Contains {
        /// The searched column.
        col: ColName,
        /// The needle.
        needle: Arc<[u8]>,
    },
    /// Membership of an expression's value in a set. Dynamic refinement
    /// compiles the "prefixes that satisfied level rᵢ" filter to this;
    /// on the switch it becomes match-table entries.
    InSet {
        /// The tested expression.
        expr: Expr,
        /// The allowed values.
        set: Arc<BTreeSet<Value>>,
    },
}

/// Build a column-reference expression.
pub fn col(name: &str) -> Expr {
    Expr::Col(name.into())
}

/// Build a column reference from a packet [`sonata_packet::Field`].
pub fn field(f: sonata_packet::Field) -> Expr {
    Expr::Col(f.name().into())
}

/// Build a `u64` literal.
pub fn lit(v: u64) -> Expr {
    Expr::Lit(Value::U64(v))
}

/// Build a text literal.
pub fn lit_text(s: &str) -> Expr {
    Expr::Lit(Value::Text(s.into()))
}

#[allow(clippy::should_implement_trait)] // .add/.sub/.mul/.div mirror the paper's DSL
impl Expr {
    /// Mask to a refinement level (`dIP/8` in the paper's notation).
    pub fn mask(self, level: u8) -> Expr {
        Expr::Mask(Box::new(self), level)
    }

    /// Integer division by another expression.
    pub fn div(self, rhs: Expr) -> Expr {
        Expr::Div(Box::new(self), Box::new(rhs))
    }

    /// Integer addition.
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(rhs))
    }

    /// Saturating subtraction.
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Sub(Box::new(self), Box::new(rhs))
    }

    /// Integer multiplication.
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Mul(Box::new(self), Box::new(rhs))
    }

    /// `self == rhs`.
    pub fn eq(self, rhs: Expr) -> Pred {
        Pred::Cmp {
            lhs: self,
            op: CmpOp::Eq,
            rhs,
        }
    }

    /// `self != rhs`.
    pub fn ne(self, rhs: Expr) -> Pred {
        Pred::Cmp {
            lhs: self,
            op: CmpOp::Ne,
            rhs,
        }
    }

    /// `self > rhs`.
    pub fn gt(self, rhs: Expr) -> Pred {
        Pred::Cmp {
            lhs: self,
            op: CmpOp::Gt,
            rhs,
        }
    }

    /// `self >= rhs`.
    pub fn ge(self, rhs: Expr) -> Pred {
        Pred::Cmp {
            lhs: self,
            op: CmpOp::Ge,
            rhs,
        }
    }

    /// `self < rhs`.
    pub fn lt(self, rhs: Expr) -> Pred {
        Pred::Cmp {
            lhs: self,
            op: CmpOp::Lt,
            rhs,
        }
    }

    /// `self <= rhs`.
    pub fn le(self, rhs: Expr) -> Pred {
        Pred::Cmp {
            lhs: self,
            op: CmpOp::Le,
            rhs,
        }
    }

    /// Column names referenced by this expression, in discovery order.
    pub fn referenced_cols(&self, out: &mut Vec<ColName>) {
        match self {
            Expr::Col(c) => {
                if !out.iter().any(|x| x == c) {
                    out.push(c.clone());
                }
            }
            Expr::Lit(_) => {}
            Expr::Mask(e, _) => e.referenced_cols(out),
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                a.referenced_cols(out);
                b.referenced_cols(out);
            }
        }
    }

    /// Whether a PISA switch can compute this expression: column
    /// copies, literals, masks, add/sub, and shifts (division by a
    /// power-of-two literal). General division/multiplication cannot
    /// run in the data plane (Section 2.2: "even state-of-the-art
    /// programmable switches do not support division").
    pub fn switch_computable(&self) -> bool {
        match self {
            Expr::Col(_) | Expr::Lit(_) => true,
            Expr::Mask(e, _) => e.switch_computable(),
            Expr::Add(a, b) | Expr::Sub(a, b) => a.switch_computable() && b.switch_computable(),
            Expr::Mul(a, b) => {
                // Multiplication by a power-of-two literal is a shift.
                a.switch_computable()
                    && matches!(&**b, Expr::Lit(Value::U64(n)) if n.is_power_of_two())
            }
            Expr::Div(a, b) => {
                a.switch_computable()
                    && matches!(&**b, Expr::Lit(Value::U64(n)) if *n > 0 && n.is_power_of_two())
            }
        }
    }

    /// Bind to a schema, resolving column names to indices.
    pub fn bind(&self, schema: &Schema) -> Result<BoundExpr, BindError> {
        Ok(match self {
            Expr::Col(name) => {
                BoundExpr::Col(
                    schema
                        .index_of(name)
                        .ok_or_else(|| BindError::UnknownColumn {
                            column: name.clone(),
                            schema: schema.clone(),
                        })?,
                )
            }
            Expr::Lit(v) => BoundExpr::Lit(v.clone()),
            Expr::Mask(e, l) => BoundExpr::Mask(Box::new(e.bind(schema)?), *l),
            Expr::Add(a, b) => BoundExpr::Arith(
                ArithOp::Add,
                Box::new(a.bind(schema)?),
                Box::new(b.bind(schema)?),
            ),
            Expr::Sub(a, b) => BoundExpr::Arith(
                ArithOp::Sub,
                Box::new(a.bind(schema)?),
                Box::new(b.bind(schema)?),
            ),
            Expr::Mul(a, b) => BoundExpr::Arith(
                ArithOp::Mul,
                Box::new(a.bind(schema)?),
                Box::new(b.bind(schema)?),
            ),
            Expr::Div(a, b) => BoundExpr::Arith(
                ArithOp::Div,
                Box::new(a.bind(schema)?),
                Box::new(b.bind(schema)?),
            ),
        })
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(c) => write!(f, "{c}"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Mask(e, l) => write!(f, "{e}/{l}"),
            Expr::Add(a, b) => write!(f, "({a} + {b})"),
            Expr::Sub(a, b) => write!(f, "({a} - {b})"),
            Expr::Mul(a, b) => write!(f, "({a} * {b})"),
            Expr::Div(a, b) => write!(f, "({a} / {b})"),
        }
    }
}

/// Failure to resolve a column name during binding.
#[derive(Debug, Clone)]
pub enum BindError {
    /// The named column is absent from the schema.
    UnknownColumn {
        /// The missing column.
        column: ColName,
        /// The schema searched.
        schema: Schema,
    },
}

impl fmt::Display for BindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BindError::UnknownColumn { column, schema } => {
                write!(f, "unknown column `{column}` in {schema:?}")
            }
        }
    }
}

impl std::error::Error for BindError {}

/// Arithmetic operator kinds for bound expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// Wrapping addition.
    Add,
    /// Saturating subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Division (0 when the divisor is 0).
    Div,
}

impl ArithOp {
    fn apply(self, x: u64, y: u64) -> u64 {
        match self {
            ArithOp::Add => x.wrapping_add(y),
            ArithOp::Sub => x.saturating_sub(y),
            ArithOp::Mul => x.wrapping_mul(y),
            ArithOp::Div => x.checked_div(y).unwrap_or(0),
        }
    }
}

/// An expression bound to a schema: columns are indices.
#[derive(Debug, Clone)]
pub enum BoundExpr {
    /// Value at a tuple index.
    Col(usize),
    /// A literal.
    Lit(Value),
    /// Refinement mask.
    Mask(Box<BoundExpr>, u8),
    /// Arithmetic on two sub-expressions.
    Arith(ArithOp, Box<BoundExpr>, Box<BoundExpr>),
}

impl BoundExpr {
    /// Evaluate on a tuple.
    pub fn eval(&self, tuple: &Tuple) -> Value {
        match self {
            BoundExpr::Col(i) => tuple.get(*i).clone(),
            BoundExpr::Lit(v) => v.clone(),
            BoundExpr::Mask(e, l) => e.eval(tuple).mask_to_level(*l),
            BoundExpr::Arith(op, a, b) => {
                let (a, b) = (a.eval(tuple), b.eval(tuple));
                match (a.as_u64(), b.as_u64()) {
                    (Some(x), Some(y)) => Value::U64(op.apply(x, y)),
                    // Arithmetic on non-scalars yields 0, mirroring a
                    // switch ALU operating on an invalid container.
                    _ => Value::U64(0),
                }
            }
        }
    }

    /// This expression with each column replaced by the expression in
    /// `cols` that defines it: what it reads of the rows a `map`
    /// producing `cols` was given.
    pub(crate) fn over(&self, cols: &[BoundExpr]) -> BoundExpr {
        match self {
            BoundExpr::Col(i) => cols[*i].clone(),
            BoundExpr::Lit(v) => BoundExpr::Lit(v.clone()),
            BoundExpr::Mask(e, l) => BoundExpr::Mask(Box::new(e.over(cols)), *l),
            BoundExpr::Arith(op, a, b) => {
                BoundExpr::Arith(*op, Box::new(a.over(cols)), Box::new(b.over(cols)))
            }
        }
    }

    /// Evaluate on a row of the bound path, to a cell of `heap`: what
    /// a lowered run ([`crate::bound`]) calls for the cells that are
    /// not a column, a constant or a masked column.
    pub fn eval_row<R: RowSource + ?Sized>(&self, row: &R, heap: &mut Heap) -> u64 {
        match self {
            BoundExpr::Col(i) => row.cell(*i, heap),
            BoundExpr::Lit(v) => heap.cell(v),
            BoundExpr::Mask(e, l) => {
                let cell = e.eval_row(row, heap);
                heap.mask(cell, *l)
            }
            BoundExpr::Arith(op, a, b) => {
                let (a, b) = (a.eval_row(row, heap), b.eval_row(row, heap));
                match (heap.as_u64(a), heap.as_u64(b)) {
                    (Some(x), Some(y)) => heap.scalar(op.apply(x, y)),
                    _ => 0,
                }
            }
        }
    }
}

impl Pred {
    /// Conjunction helper.
    pub fn and(self, other: Pred) -> Pred {
        match self {
            Pred::And(mut v) => {
                v.push(other);
                Pred::And(v)
            }
            p => Pred::And(vec![p, other]),
        }
    }

    /// Disjunction helper.
    pub fn or(self, other: Pred) -> Pred {
        match self {
            Pred::Or(mut v) => {
                v.push(other);
                Pred::Or(v)
            }
            p => Pred::Or(vec![p, other]),
        }
    }

    /// Negation helper.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Pred {
        Pred::Not(Box::new(self))
    }

    /// Payload / text-column search.
    pub fn contains(col_name: &str, needle: impl AsRef<[u8]>) -> Pred {
        Pred::Contains {
            col: col_name.into(),
            needle: needle.as_ref().to_vec().into(),
        }
    }

    /// Set-membership predicate.
    pub fn in_set(expr: Expr, set: BTreeSet<Value>) -> Pred {
        Pred::InSet {
            expr,
            set: Arc::new(set),
        }
    }

    /// Column names referenced by this predicate.
    pub fn referenced_cols(&self, out: &mut Vec<ColName>) {
        match self {
            Pred::Cmp { lhs, rhs, .. } => {
                lhs.referenced_cols(out);
                rhs.referenced_cols(out);
            }
            Pred::And(ps) | Pred::Or(ps) => {
                for p in ps {
                    p.referenced_cols(out);
                }
            }
            Pred::Not(p) => p.referenced_cols(out),
            Pred::Contains { col: c, .. } => {
                if !out.iter().any(|x| x == c) {
                    out.push(c.clone());
                }
            }
            Pred::InSet { expr, .. } => expr.referenced_cols(out),
        }
    }

    /// Whether a PISA switch can evaluate this predicate: comparisons
    /// of switch-computable expressions, boolean combinations thereof,
    /// and set membership (a match table). Payload search cannot run
    /// on the switch.
    pub fn switch_computable(&self) -> bool {
        match self {
            Pred::Cmp { lhs, rhs, .. } => lhs.switch_computable() && rhs.switch_computable(),
            Pred::And(ps) | Pred::Or(ps) => ps.iter().all(Pred::switch_computable),
            Pred::Not(p) => p.switch_computable(),
            Pred::Contains { .. } => false,
            Pred::InSet { expr, .. } => expr.switch_computable(),
        }
    }

    /// Bind to a schema.
    pub fn bind(&self, schema: &Schema) -> Result<BoundPred, BindError> {
        Ok(match self {
            Pred::Cmp { lhs, op, rhs } => BoundPred::Cmp {
                lhs: lhs.bind(schema)?,
                op: *op,
                rhs: rhs.bind(schema)?,
            },
            Pred::And(ps) => BoundPred::And(
                ps.iter()
                    .map(|p| p.bind(schema))
                    .collect::<Result<_, _>>()?,
            ),
            Pred::Or(ps) => BoundPred::Or(
                ps.iter()
                    .map(|p| p.bind(schema))
                    .collect::<Result<_, _>>()?,
            ),
            Pred::Not(p) => BoundPred::Not(Box::new(p.bind(schema)?)),
            Pred::Contains { col: c, needle } => BoundPred::Contains {
                of: Expr::Col(c.clone()).bind(schema)?,
                needle: needle.clone(),
            },
            Pred::InSet { expr, set } => BoundPred::InSet {
                expr: expr.bind(schema)?,
                set: set.clone(),
            },
        })
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::Cmp { lhs, op, rhs } => write!(f, "{lhs} {op} {rhs}"),
            Pred::And(ps) => {
                write!(f, "(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " && ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Pred::Or(ps) => {
                write!(f, "(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " || ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Pred::Not(p) => write!(f, "!({p})"),
            Pred::Contains { col: c, needle } => {
                write!(f, "{c}.contains({:?})", String::from_utf8_lossy(needle))
            }
            Pred::InSet { expr, set } => write!(f, "{expr} in {{{} values}}", set.len()),
        }
    }
}

/// A predicate bound to a schema.
#[derive(Debug, Clone)]
pub enum BoundPred {
    /// Comparison.
    Cmp {
        /// Left operand.
        lhs: BoundExpr,
        /// Operator.
        op: CmpOp,
        /// Right operand.
        rhs: BoundExpr,
    },
    /// Conjunction.
    And(Vec<BoundPred>),
    /// Disjunction.
    Or(Vec<BoundPred>),
    /// Negation.
    Not(Box<BoundPred>),
    /// Substring search in what an expression yields: a column as
    /// bound, what defines the column once a `map` is folded away.
    Contains {
        /// The searched cell.
        of: BoundExpr,
        /// The needle.
        needle: Arc<[u8]>,
    },
    /// Set membership.
    InSet {
        /// The tested expression.
        expr: BoundExpr,
        /// The allowed values.
        set: Arc<BTreeSet<Value>>,
    },
}

impl BoundPred {
    /// Evaluate on a tuple.
    pub fn eval(&self, tuple: &Tuple) -> bool {
        match self {
            BoundPred::Cmp { lhs, op, rhs } => op.eval(&lhs.eval(tuple), &rhs.eval(tuple)),
            BoundPred::And(ps) => ps.iter().all(|p| p.eval(tuple)),
            BoundPred::Or(ps) => ps.iter().any(|p| p.eval(tuple)),
            BoundPred::Not(p) => !p.eval(tuple),
            BoundPred::Contains { of, needle } => match of.eval(tuple) {
                Value::Bytes(b) => contains_subslice(&b, needle),
                Value::Text(s) => contains_subslice(s.as_bytes(), needle),
                Value::U64(_) => false,
            },
            BoundPred::InSet { expr, set } => set.contains(&expr.eval(tuple)),
        }
    }

    /// [`BoundExpr::over`] for a predicate.
    pub(crate) fn over(&self, cols: &[BoundExpr]) -> BoundPred {
        let all = |ps: &[BoundPred]| ps.iter().map(|p| p.over(cols)).collect();
        match self {
            BoundPred::Cmp { lhs, op, rhs } => BoundPred::Cmp {
                lhs: lhs.over(cols),
                op: *op,
                rhs: rhs.over(cols),
            },
            BoundPred::And(ps) => BoundPred::And(all(ps)),
            BoundPred::Or(ps) => BoundPred::Or(all(ps)),
            BoundPred::Not(p) => BoundPred::Not(Box::new(p.over(cols))),
            BoundPred::Contains { of, needle } => BoundPred::Contains {
                of: of.over(cols),
                needle: needle.clone(),
            },
            BoundPred::InSet { expr, set } => BoundPred::InSet {
                expr: expr.over(cols),
                set: set.clone(),
            },
        }
    }

    /// Evaluate on a row of the bound path: what a lowered run calls
    /// for the predicates that are not a compare of a column, on the
    /// rows its compares kept.
    pub fn eval_row<R: RowSource + ?Sized>(&self, row: &R, heap: &mut Heap) -> bool {
        match self {
            BoundPred::Cmp { lhs, op, rhs } => {
                let (a, b) = (lhs.eval_row(row, heap), rhs.eval_row(row, heap));
                op.eval_cells(a, b, heap)
            }
            BoundPred::And(ps) => ps.iter().all(|p| p.eval_row(row, heap)),
            BoundPred::Or(ps) => ps.iter().any(|p| p.eval_row(row, heap)),
            BoundPred::Not(p) => !p.eval_row(row, heap),
            BoundPred::Contains { of, needle } => match of {
                BoundExpr::Col(idx) => row.contains(*idx, needle, heap),
                computed => {
                    let cell = computed.eval_row(row, heap);
                    heap.contains(cell, needle)
                }
            },
            BoundPred::InSet { expr, set } => {
                let cell = expr.eval_row(row, heap);
                set.contains(&heap.value(cell))
            }
        }
    }
}

/// Naive substring search; needles are short (attack signatures).
pub(crate) fn contains_subslice(haystack: &[u8], needle: &[u8]) -> bool {
    if needle.is_empty() {
        return true;
    }
    haystack
        .windows(needle.len())
        .any(|window| window == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_comparisons() {
        assert!(CmpOp::Gt.eval_u64(3, 2));
        assert!(!CmpOp::Gt.eval_u64(2, 2));
        assert!(CmpOp::Ge.eval_u64(2, 2));
        assert!(CmpOp::Lt.eval_u64(1, 2));
        assert!(CmpOp::Le.eval_u64(2, 2));
        assert!(CmpOp::Ne.eval_u64(1, 2));
        assert!(CmpOp::Eq.eval_u64(2, 2));
    }

    fn schema() -> Schema {
        Schema::new(["a", "b", "payload"])
    }

    fn tuple(a: u64, b: u64) -> Tuple {
        Tuple::new(vec![
            Value::U64(a),
            Value::U64(b),
            Value::Bytes(b"hello zorro world".to_vec().into()),
        ])
    }

    #[test]
    fn arithmetic_eval() {
        let s = schema();
        let e = col("a").add(col("b")).bind(&s).unwrap();
        assert_eq!(e.eval(&tuple(2, 3)), Value::U64(5));
        let e = col("a").sub(col("b")).bind(&s).unwrap();
        assert_eq!(e.eval(&tuple(2, 3)), Value::U64(0)); // saturating
        let e = col("a").mul(lit(4)).bind(&s).unwrap();
        assert_eq!(e.eval(&tuple(5, 0)), Value::U64(20));
        let e = col("a").div(lit(0)).bind(&s).unwrap();
        assert_eq!(e.eval(&tuple(5, 0)), Value::U64(0)); // div by zero -> 0
        let e = col("a").div(col("b")).bind(&s).unwrap();
        assert_eq!(e.eval(&tuple(7, 2)), Value::U64(3));
    }

    #[test]
    fn mask_eval() {
        let s = schema();
        let e = col("a").mask(8).bind(&s).unwrap();
        assert_eq!(e.eval(&tuple(0x0a0b0c0d, 0)), Value::U64(0x0a000000));
    }

    #[test]
    fn comparisons() {
        let s = schema();
        for (p, expect) in [
            (col("a").gt(lit(1)), true),
            (col("a").gt(lit(2)), false),
            (col("a").ge(lit(2)), true),
            (col("a").lt(col("b")), true),
            (col("a").le(lit(1)), false),
            (col("a").eq(lit(2)), true),
            (col("a").ne(lit(2)), false),
        ] {
            assert_eq!(p.bind(&s).unwrap().eval(&tuple(2, 3)), expect, "{p}");
        }
    }

    #[test]
    fn mixed_kind_comparisons_never_order() {
        assert!(!CmpOp::Gt.eval(&Value::U64(5), &Value::Text("a".into())));
        assert!(!CmpOp::Le.eval(&Value::U64(5), &Value::Text("a".into())));
        assert!(CmpOp::Ne.eval(&Value::U64(5), &Value::Text("a".into())));
    }

    #[test]
    fn boolean_combinators() {
        let s = schema();
        let p = col("a")
            .gt(lit(1))
            .and(col("b").gt(lit(1)))
            .bind(&s)
            .unwrap();
        assert!(p.eval(&tuple(2, 2)));
        assert!(!p.eval(&tuple(2, 1)));
        let p = col("a")
            .gt(lit(10))
            .or(col("b").gt(lit(1)))
            .bind(&s)
            .unwrap();
        assert!(p.eval(&tuple(0, 2)));
        let p = col("a").gt(lit(0)).not().bind(&s).unwrap();
        assert!(!p.eval(&tuple(1, 0)));
        // Empty conjunction is true; empty disjunction is false.
        assert!(Pred::And(vec![]).bind(&s).unwrap().eval(&tuple(0, 0)));
        assert!(!Pred::Or(vec![]).bind(&s).unwrap().eval(&tuple(0, 0)));
    }

    #[test]
    fn payload_contains() {
        let s = schema();
        let p = Pred::contains("payload", b"zorro").bind(&s).unwrap();
        assert!(p.eval(&tuple(0, 0)));
        let p = Pred::contains("payload", b"absent").bind(&s).unwrap();
        assert!(!p.eval(&tuple(0, 0)));
        // Empty needle matches anything.
        let p = Pred::contains("payload", b"").bind(&s).unwrap();
        assert!(p.eval(&tuple(0, 0)));
    }

    #[test]
    fn in_set() {
        let s = schema();
        let set: BTreeSet<Value> = [Value::U64(0x0a000000)].into_iter().collect();
        let p = Pred::in_set(col("a").mask(8), set).bind(&s).unwrap();
        assert!(p.eval(&tuple(0x0a141e28, 0)));
        assert!(!p.eval(&tuple(0x0b141e28, 0)));
    }

    #[test]
    fn rows_and_tuples_evaluate_alike() {
        // The bound path's evaluators (cells of a heap) against the
        // interpreter's (values), leaf and nested forms both.
        let s = schema();
        let big = u64::MAX - 1;
        let set: BTreeSet<Value> = [Value::U64(0x0a000000), Value::Text("x".into())].into();
        let exprs = [
            col("a").add(col("b")),
            col("a").sub(lit(3)).mul(lit(big)),
            col("payload").add(lit(1)),
            col("a").mask(8).div(col("b")),
            lit_text("mail.example.com").mask(2),
            col("payload").mask(4),
        ];
        let preds = [
            col("a").gt(lit(1)).and(col("b").le(lit(3))),
            col("a").eq(lit(big)).or(col("payload").ne(col("a"))).not(),
            col("payload").ge(col("payload")),
            col("payload").lt(lit(5)),
            Pred::contains("payload", b"zorro"),
            Pred::contains("a", b""),
            Pred::in_set(col("a").mask(8), set),
            lit_text("x").eq(lit_text("x")),
            Pred::And(vec![]),
        ];
        for t in [tuple(2, 3), tuple(0x0a141e28, 0), tuple(big, big)] {
            let mut heap = Heap::default();
            for e in &exprs {
                let e = e.bind(&s).unwrap();
                let cell = e.eval_row(&t, &mut heap);
                assert_eq!(heap.value(cell), e.eval(&t), "{e:?}");
            }
            for p in &preds {
                let bound = p.bind(&s).unwrap();
                assert_eq!(bound.eval_row(&t, &mut heap), bound.eval(&t), "{p}");
            }
        }
    }

    #[test]
    fn unknown_column_bind_error() {
        let s = schema();
        assert!(col("missing").bind(&s).is_err());
        assert!(col("a").gt(col("missing")).bind(&s).is_err());
        assert!(Pred::contains("missing", b"x").bind(&s).is_err());
        let err = col("missing").bind(&s).unwrap_err();
        assert!(err.to_string().contains("missing"));
    }

    #[test]
    fn switch_computability() {
        assert!(col("a").mask(8).switch_computable());
        assert!(col("a").add(lit(1)).switch_computable());
        assert!(col("a").div(lit(16)).switch_computable()); // shift
        assert!(!col("a").div(lit(10)).switch_computable()); // real division
        assert!(!col("a").div(col("b")).switch_computable());
        assert!(col("a").mul(lit(8)).switch_computable()); // shift
        assert!(!col("a").mul(col("b")).switch_computable());
        assert!(col("a").gt(lit(1)).switch_computable());
        assert!(!Pred::contains("payload", b"z").switch_computable());
        assert!(Pred::in_set(col("a"), BTreeSet::new()).switch_computable());
    }

    #[test]
    fn referenced_cols_deduplicated() {
        let mut cols = Vec::new();
        col("a")
            .add(col("b"))
            .add(col("a"))
            .referenced_cols(&mut cols);
        assert_eq!(cols.len(), 2);
        let mut cols = Vec::new();
        col("a")
            .gt(lit(0))
            .and(Pred::contains("payload", b"x"))
            .referenced_cols(&mut cols);
        assert_eq!(cols.len(), 2);
    }

    #[test]
    fn display_forms() {
        let p = col("count").gt(lit(40));
        assert_eq!(p.to_string(), "count > 40");
        let e = col("dIP").mask(8);
        assert_eq!(e.to_string(), "dIP/8");
    }
}
