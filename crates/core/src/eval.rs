//! Standard (concrete) evaluation of analytical SQL queries.
//!
//! This is the `[[q(T̄)]]` semantics: the conventional meaning of the Fig. 7
//! language as implemented by modern databases. [`evaluate`] is the values
//! channel of the shared columnar pipeline ([`crate::exec`] at
//! [`crate::Semantics::Values`]); the provenance-tracking semantics is the
//! same pipeline with its star channel enabled, and the two agree by
//! construction (a property test in the integration suite still checks
//! exactly that).

use std::fmt;

use sickle_table::Table;

use crate::ast::Query;
use crate::engine::{exec, Semantics};

/// Error raised when a query is ill-formed for its inputs (out-of-range
/// table or column indices).
///
/// The synthesizer's domain inference never produces such queries; this
/// error surfaces only for hand-written queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// Query references input table `T_k` but only `available` exist.
    NoSuchInput {
        /// Requested table index.
        index: usize,
        /// Number of inputs provided.
        available: usize,
    },
    /// A column index is out of range for the operator's source table.
    ColumnOutOfRange {
        /// The offending column.
        col: usize,
        /// Arity of the source.
        arity: usize,
        /// Operator name, for diagnostics.
        operator: &'static str,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::NoSuchInput { index, available } => {
                write!(
                    f,
                    "input table T{} requested, {} available",
                    index + 1,
                    available
                )
            }
            EvalError::ColumnOutOfRange {
                col,
                arity,
                operator,
            } => write!(f, "column {col} out of range (arity {arity}) in {operator}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Evaluates `q` on the input tables under the standard semantics.
///
/// # Errors
///
/// Returns [`EvalError`] when the query references missing inputs or
/// out-of-range columns.
///
/// # Examples
///
/// ```
/// use sickle_core::{evaluate, Query};
/// use sickle_table::{AggFunc, Table};
///
/// let t = Table::new(
///     ["id", "sales"],
///     vec![
///         vec!["A".into(), 10.into()],
///         vec!["A".into(), 20.into()],
///         vec!["B".into(), 15.into()],
///     ],
/// )?;
/// let q = Query::Group {
///     src: Box::new(Query::Input(0)),
///     keys: vec![0],
///     agg: AggFunc::Sum,
///     target: 1,
/// };
/// let out = evaluate(&q, &[t])?;
/// assert_eq!(out.n_rows(), 2);
/// assert_eq!(out.get(0, 1), Some(&sickle_table::Value::Int(30)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn evaluate(q: &Query, inputs: &[Table]) -> Result<Table, EvalError> {
    Ok(exec(Semantics::Values, q, inputs)?.into_table())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Pred;
    use sickle_table::{AggFunc, AnalyticFunc, ArithExpr, ArithOp, CmpOp, Value};

    fn input() -> Table {
        Table::new(
            ["city", "quarter", "enrolled", "pop"],
            vec![
                vec!["A".into(), 1.into(), 30.into(), 100.into()],
                vec!["A".into(), 2.into(), 20.into(), 100.into()],
                vec!["B".into(), 1.into(), 10.into(), 50.into()],
                vec!["B".into(), 2.into(), 40.into(), 50.into()],
            ],
        )
        .unwrap()
    }

    #[test]
    fn filter_keeps_matching_rows() {
        let q = Query::Filter {
            src: Box::new(Query::Input(0)),
            pred: Pred::ColConst(0, CmpOp::Eq, "A".into()),
        };
        let out = evaluate(&q, &[input()]).unwrap();
        assert_eq!(out.n_rows(), 2);
        assert!(out.rows().all(|r| r[0] == "A".into()));
    }

    #[test]
    fn group_sum_per_city() {
        let q = Query::Group {
            src: Box::new(Query::Input(0)),
            keys: vec![0],
            agg: AggFunc::Sum,
            target: 2,
        };
        let out = evaluate(&q, &[input()]).unwrap();
        assert_eq!(out.n_rows(), 2);
        assert_eq!(out.get(0, 1), Some(&Value::Int(50)));
        assert_eq!(out.get(1, 1), Some(&Value::Int(50)));
    }

    #[test]
    fn partition_cumsum_per_city() {
        let q = Query::Partition {
            src: Box::new(Query::Input(0)),
            keys: vec![0],
            func: AnalyticFunc::CumSum,
            target: 2,
        };
        let out = evaluate(&q, &[input()]).unwrap();
        assert_eq!(out.n_cols(), 5);
        let col: Vec<&Value> = (0..4).map(|i| out.get(i, 4).unwrap()).collect();
        assert_eq!(
            col,
            vec![
                &Value::Int(30),
                &Value::Int(50),
                &Value::Int(10),
                &Value::Int(50)
            ]
        );
    }

    #[test]
    fn partition_rank_descending_values() {
        let q = Query::Partition {
            src: Box::new(Query::Input(0)),
            keys: vec![0],
            func: AnalyticFunc::Rank,
            target: 2,
        };
        let out = evaluate(&q, &[input()]).unwrap();
        // city A: 30 -> rank 2, 20 -> rank 1
        assert_eq!(out.get(0, 4), Some(&Value::Int(2)));
        assert_eq!(out.get(1, 4), Some(&Value::Int(1)));
    }

    #[test]
    fn arithmetic_percentage() {
        let pct = ArithExpr::bin(
            ArithOp::Mul,
            ArithExpr::bin(ArithOp::Div, ArithExpr::Param(0), ArithExpr::Param(1)),
            ArithExpr::lit(100.0),
        );
        let q = Query::Arith {
            src: Box::new(Query::Input(0)),
            func: pct,
            cols: vec![2, 3],
        };
        let out = evaluate(&q, &[input()]).unwrap();
        assert_eq!(out.get(0, 4), Some(&Value::Float(30.0)));
        assert_eq!(out.get(3, 4), Some(&Value::Float(80.0)));
    }

    #[test]
    fn left_join_pads_unmatched() {
        let dims = Table::new(["name", "region"], vec![vec!["A".into(), "west".into()]]).unwrap();
        let q = Query::LeftJoin {
            left: Box::new(Query::Input(0)),
            right: Box::new(Query::Input(1)),
            pred: Pred::ColCmp(0, CmpOp::Eq, 4),
        };
        let out = evaluate(&q, &[input(), dims]).unwrap();
        assert_eq!(out.n_rows(), 4);
        // city B rows have null padding
        let b_row = out.rows().find(|r| r[0] == "B".into()).unwrap();
        assert!(b_row[4].is_null() && b_row[5].is_null());
    }

    #[test]
    fn join_is_cross_product() {
        let q = Query::Join {
            left: Box::new(Query::Input(0)),
            right: Box::new(Query::Input(0)),
        };
        let out = evaluate(&q, &[input()]).unwrap();
        assert_eq!(out.n_rows(), 16);
        assert_eq!(out.n_cols(), 8);
    }

    #[test]
    fn sort_desc() {
        let q = Query::Sort {
            src: Box::new(Query::Input(0)),
            cols: vec![2],
            asc: false,
        };
        let out = evaluate(&q, &[input()]).unwrap();
        assert_eq!(out.get(0, 2), Some(&Value::Int(40)));
        assert_eq!(out.get(3, 2), Some(&Value::Int(10)));
    }

    #[test]
    fn proj_selects_columns() {
        let q = Query::Proj {
            src: Box::new(Query::Input(0)),
            cols: vec![3, 0],
        };
        let out = evaluate(&q, &[input()]).unwrap();
        assert_eq!(out.n_cols(), 2);
        assert_eq!(out.get(0, 0), Some(&Value::Int(100)));
    }

    #[test]
    fn errors_on_bad_indices() {
        let q = Query::Input(3);
        assert!(matches!(
            evaluate(&q, &[input()]),
            Err(EvalError::NoSuchInput { index: 3, .. })
        ));
        let q = Query::Proj {
            src: Box::new(Query::Input(0)),
            cols: vec![9],
        };
        let err = evaluate(&q, &[input()]).unwrap_err();
        assert!(err.to_string().contains("column 9"));
    }

    #[test]
    fn nested_group_then_partition_running_shape() {
        // group by (city, quarter, pop) sum enrolled, then cumsum per city,
        // then pct of pop — the Fig. 1 pipeline on a small table.
        let pct = ArithExpr::bin(
            ArithOp::Mul,
            ArithExpr::bin(ArithOp::Div, ArithExpr::Param(0), ArithExpr::Param(1)),
            ArithExpr::lit(100.0),
        );
        let q = Query::Arith {
            src: Box::new(Query::Partition {
                src: Box::new(Query::Group {
                    src: Box::new(Query::Input(0)),
                    keys: vec![0, 1, 3],
                    agg: AggFunc::Sum,
                    target: 2,
                }),
                keys: vec![0],
                func: AnalyticFunc::CumSum,
                target: 3,
            }),
            func: pct,
            cols: vec![4, 2],
        };
        let out = evaluate(&q, &[input()]).unwrap();
        assert_eq!(out.n_rows(), 4);
        // city A, quarter 2: cumsum = 50, pop = 100 -> 50%
        let row = out
            .rows()
            .find(|r| r[0] == "A".into() && r[1] == 2.into())
            .unwrap();
        assert_eq!(row[5], Value::Float(50.0));
    }
}
