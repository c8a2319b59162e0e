//! Expression trees, binding, and compilation.
//!
//! [`Expr`] is the unbound form the SQL binder and tests construct (columns
//! by name). Binding against a schema yields a [`BoundExpr`] (columns by
//! index), which compiles into an `Arc<dyn Fn(&Row) -> Result<Value>>`
//! evaluator — the closures `fudj_exec` plans run.

use crate::functions;
use fudj_types::{DataType, FudjError, Result, Row, Schema, Value};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A compiled row evaluator.
pub type Evaluator = Arc<dyn Fn(&Row) -> Result<Value> + Send + Sync>;

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    Add,
    Sub,
    Mul,
    Div,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Eq => "=",
            BinOp::NotEq => "<>",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        };
        write!(f, "{s}")
    }
}

/// An unbound expression (columns referenced by name).
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Column reference, usually qualified (`p.id`).
    Column(String),
    Literal(Value),
    Binary {
        op: BinOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    Not(Box<Expr>),
    /// Scalar function call (case-insensitive name).
    Call {
        name: String,
        args: Vec<Expr>,
    },
}

impl Expr {
    /// Column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(name.into())
    }

    /// Literal value.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Function call.
    pub fn call(name: impl Into<String>, args: Vec<Expr>) -> Expr {
        Expr::Call {
            name: name.into(),
            args,
        }
    }

    /// Binary expression.
    pub fn binary(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::binary(BinOp::And, self, other)
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::binary(BinOp::Eq, self, other)
    }

    /// All column names referenced by this expression.
    pub fn referenced_columns(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut BTreeSet<String>) {
        match self {
            Expr::Column(name) => {
                out.insert(name.clone());
            }
            Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::Not(inner) => inner.collect_columns(out),
            Expr::Call { args, .. } => {
                for a in args {
                    a.collect_columns(out);
                }
            }
        }
    }

    /// Split a conjunction into its conjuncts (`a AND b AND c` → `[a,b,c]`),
    /// folding away constant `true` conjuncts (`true AND a` → `[a]`), such
    /// as the condition the binder seeds every comma join with.
    pub fn split_conjuncts(self) -> Vec<Expr> {
        match self {
            Expr::Binary {
                op: BinOp::And,
                left,
                right,
            } => {
                let mut out = left.split_conjuncts();
                out.extend(right.split_conjuncts());
                out
            }
            Expr::Literal(Value::Bool(true)) => Vec::new(),
            other => vec![other],
        }
    }

    /// Rebuild a conjunction from conjuncts; `None` when empty.
    pub fn conjoin(exprs: Vec<Expr>) -> Option<Expr> {
        exprs.into_iter().reduce(Expr::and)
    }

    /// Bind column names to indices in `schema`.
    pub fn bind(&self, schema: &Schema) -> Result<BoundExpr> {
        Ok(match self {
            Expr::Column(name) => BoundExpr::Column(schema.index_of(name)?),
            Expr::Literal(v) => BoundExpr::Literal(v.clone()),
            Expr::Binary { op, left, right } => BoundExpr::Binary {
                op: *op,
                left: Box::new(left.bind(schema)?),
                right: Box::new(right.bind(schema)?),
            },
            Expr::Not(inner) => BoundExpr::Not(Box::new(inner.bind(schema)?)),
            Expr::Call { name, args } => {
                let lowered = name.to_ascii_lowercase();
                if !functions::is_builtin(&lowered) {
                    return Err(FudjError::Plan(format!("unknown function {name:?}")));
                }
                BoundExpr::Call {
                    name: lowered,
                    args: args.iter().map(|a| a.bind(schema)).collect::<Result<_>>()?,
                }
            }
        })
    }

    /// Best-effort output type against a schema (planner schema inference).
    pub fn data_type(&self, schema: &Schema) -> Result<DataType> {
        Ok(match self {
            Expr::Column(name) => schema.field(name)?.data_type.clone(),
            Expr::Literal(v) => v.data_type(),
            Expr::Binary { op, left, .. } => match op {
                BinOp::Eq
                | BinOp::NotEq
                | BinOp::Lt
                | BinOp::LtEq
                | BinOp::Gt
                | BinOp::GtEq
                | BinOp::And
                | BinOp::Or => DataType::Bool,
                BinOp::Div => DataType::Float64,
                _ => left.data_type(schema)?,
            },
            Expr::Not(_) => DataType::Bool,
            Expr::Call { name, .. } => functions::return_type(&name.to_ascii_lowercase()),
        })
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(name) => write!(f, "{name}"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Binary { op, left, right } => write!(f, "({left} {op} {right})"),
            Expr::Not(inner) => write!(f, "NOT ({inner})"),
            Expr::Call { name, args } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A bound expression (columns by index), ready to evaluate or compile.
#[derive(Clone, Debug)]
pub enum BoundExpr {
    Column(usize),
    Literal(Value),
    Binary {
        op: BinOp,
        left: Box<BoundExpr>,
        right: Box<BoundExpr>,
    },
    Not(Box<BoundExpr>),
    Call {
        name: String,
        args: Vec<BoundExpr>,
    },
}

impl BoundExpr {
    /// Evaluate against one row.
    pub fn eval(&self, row: &Row) -> Result<Value> {
        match self {
            BoundExpr::Column(i) => Ok(row.get(*i).clone()),
            BoundExpr::Literal(v) => Ok(v.clone()),
            BoundExpr::Binary { op, left, right } => {
                // Short-circuit the logical operators.
                match op {
                    BinOp::And => {
                        return Ok(Value::Bool(
                            left.eval(row)?.as_bool()? && right.eval(row)?.as_bool()?,
                        ))
                    }
                    BinOp::Or => {
                        return Ok(Value::Bool(
                            left.eval(row)?.as_bool()? || right.eval(row)?.as_bool()?,
                        ))
                    }
                    _ => {}
                }
                let l = left.eval(row)?;
                let r = right.eval(row)?;
                eval_binary(*op, &l, &r)
            }
            BoundExpr::Not(inner) => Ok(Value::Bool(!inner.eval(row)?.as_bool()?)),
            BoundExpr::Call { name, args } => {
                let mut values = Vec::with_capacity(args.len());
                for a in args {
                    values.push(a.eval(row)?);
                }
                functions::evaluate(name, &values)
            }
        }
    }

    /// Compile into a shared evaluator closure.
    pub fn compile(self) -> Evaluator {
        Arc::new(move |row| self.eval(row))
    }
}

fn eval_binary(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    use BinOp::*;
    Ok(match op {
        Eq => Value::Bool(l == r),
        NotEq => Value::Bool(l != r),
        Lt => Value::Bool(l < r),
        LtEq => Value::Bool(l <= r),
        Gt => Value::Bool(l > r),
        GtEq => Value::Bool(l >= r),
        Add | Sub | Mul | Div => {
            // Integer arithmetic when both operands are integral. Checked:
            // overflow on user data is a query error, not a panic.
            if let (Value::Int64(a), Value::Int64(b)) = (l, r) {
                let overflow =
                    || FudjError::Execution(format!("integer overflow evaluating {a} {op:?} {b}"));
                match op {
                    Add => Value::Int64(a.checked_add(*b).ok_or_else(overflow)?),
                    Sub => Value::Int64(a.checked_sub(*b).ok_or_else(overflow)?),
                    Mul => Value::Int64(a.checked_mul(*b).ok_or_else(overflow)?),
                    Div => {
                        if *b == 0 {
                            return Err(FudjError::Execution("division by zero".into()));
                        }
                        Value::Float64(*a as f64 / *b as f64)
                    }
                    // The outer arm admits only arithmetic operators; a
                    // mismatch here is a planner defect, surfaced as an
                    // error rather than a query-path panic.
                    other => {
                        return Err(FudjError::Execution(format!(
                            "non-arithmetic operator {other:?} reached integer arithmetic"
                        )))
                    }
                }
            } else {
                let a = l.as_f64()?;
                let b = r.as_f64()?;
                match op {
                    Add => Value::Float64(a + b),
                    Sub => Value::Float64(a - b),
                    Mul => Value::Float64(a * b),
                    Div => {
                        if b == 0.0 {
                            return Err(FudjError::Execution("division by zero".into()));
                        }
                        Value::Float64(a / b)
                    }
                    other => {
                        return Err(FudjError::Execution(format!(
                            "non-arithmetic operator {other:?} reached float arithmetic"
                        )))
                    }
                }
            }
        }
        // `eval` short-circuits the logical operators before calling here;
        // seeing one is a dispatch defect, not grounds for a panic.
        And | Or => {
            return Err(FudjError::Execution(format!(
                "logical operator {op:?} reached eval_binary without short-circuit handling"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fudj_types::Field;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::String),
            Field::new("c", DataType::Float64),
        ])
    }

    fn row() -> Row {
        Row::new(vec![Value::Int64(4), Value::str("hi"), Value::Float64(2.5)])
    }

    fn eval(e: Expr) -> Value {
        e.bind(&schema()).unwrap().eval(&row()).unwrap()
    }

    #[test]
    fn arithmetic_and_comparison() {
        assert_eq!(
            eval(Expr::binary(BinOp::Add, Expr::col("a"), Expr::lit(3i64))),
            Value::Int64(7)
        );
        assert_eq!(
            eval(Expr::binary(BinOp::Mul, Expr::col("c"), Expr::lit(2i64))),
            Value::Float64(5.0)
        );
        assert_eq!(eval(Expr::col("a").eq(Expr::lit(4i64))), Value::Bool(true));
        assert_eq!(
            eval(Expr::binary(BinOp::Lt, Expr::col("a"), Expr::lit(4i64))),
            Value::Bool(false)
        );
    }

    #[test]
    fn division_by_zero_is_error() {
        let e = Expr::binary(BinOp::Div, Expr::col("a"), Expr::lit(0i64))
            .bind(&schema())
            .unwrap();
        assert!(e.eval(&row()).is_err());
    }

    #[test]
    fn logic_short_circuits() {
        // Right side would be a type error; AND must not evaluate it.
        let e = Expr::binary(
            BinOp::And,
            Expr::lit(false),
            Expr::binary(BinOp::Lt, Expr::col("b"), Expr::lit(1i64)).eq(Expr::lit(true)),
        );
        assert_eq!(eval(e), Value::Bool(false));
    }

    #[test]
    fn unknown_column_and_function_fail_at_bind() {
        assert!(Expr::col("zzz").bind(&schema()).is_err());
        assert!(Expr::call("no_such_fn", vec![]).bind(&schema()).is_err());
    }

    #[test]
    fn conjunct_splitting_roundtrip() {
        let e = Expr::col("a")
            .eq(Expr::lit(1i64))
            .and(Expr::col("b").eq(Expr::lit("x")))
            .and(Expr::col("c").eq(Expr::lit(0.5)));
        let parts = e.clone().split_conjuncts();
        assert_eq!(parts.len(), 3);
        assert_eq!(Expr::conjoin(parts).unwrap(), e);
        assert_eq!(Expr::conjoin(vec![]), None);
    }

    #[test]
    fn constant_true_conjuncts_fold_away() {
        let a = Expr::col("a").eq(Expr::lit(1i64));
        let seeded = Expr::lit(true).and(a.clone()).and(Expr::lit(true));
        assert_eq!(seeded.split_conjuncts(), vec![a]);
        assert_eq!(Expr::lit(true).split_conjuncts(), Vec::<Expr>::new());
        // Only the constant `true` folds; `false` must stay.
        assert_eq!(Expr::lit(false).split_conjuncts(), vec![Expr::lit(false)]);
    }

    #[test]
    fn referenced_columns_are_collected() {
        let e = Expr::call(
            "st_contains",
            vec![
                Expr::col("p.boundary"),
                Expr::call("st_makepoint", vec![Expr::col("w.lat"), Expr::col("w.lon")]),
            ],
        );
        let cols = e.referenced_columns();
        assert_eq!(
            cols.into_iter().collect::<Vec<_>>(),
            vec!["p.boundary", "w.lat", "w.lon"]
        );
    }

    #[test]
    fn display_renders_sql_like() {
        let e = Expr::col("a")
            .eq(Expr::lit(1i64))
            .and(Expr::Not(Box::new(Expr::col("ok"))));
        assert_eq!(e.to_string(), "((a = 1) AND NOT (ok))");
    }
}
