//! Provenance-tracking query semantics `[[q(T̄)]]★` (Fig. 9).
//!
//! Each operator is a *term rewriter* over cells that are provenance
//! expressions ([`Expr`]). Concretely:
//!
//! * `group` wraps key-column members in `group{…}` terms and builds
//!   `α(member₁, …)` aggregate terms;
//! * `partition` appends per-row window terms — `cumsum` becomes a `sum`
//!   over the row's prefix within its partition (which then flattens with
//!   inner `sum`s, yielding the Fig. 4 terms), `rank`/`dense_rank` become
//!   `rank(own, peers…)`;
//! * `arithmetic` expands the function body `γ` into nested applications.
//!
//! [`prov_evaluate`] is the star channel of the shared columnar pipeline
//! ([`crate::exec`] at [`crate::Semantics::Provenance`]). The order- and
//! value-sensitive operators (`filter`, `sort`, grouping) read the
//! pipeline's *values* channel directly instead of evaluating each cell's
//! expression.

use sickle_table::{AggFunc, AnalyticFunc, ArithExpr, Grid, Table};

use sickle_provenance::{Expr, FuncName};

use crate::ast::Query;
use crate::engine::{exec, Semantics};
use crate::eval::EvalError;

/// A provenance-embedded table `T★`: a grid of expressions.
pub type ProvTable = Grid<Expr>;

/// Evaluates `q` under the provenance-tracking semantics, producing `T★`.
///
/// # Errors
///
/// Returns [`EvalError`] for out-of-range table/column references, exactly
/// as [`crate::evaluate`] does.
///
/// # Examples
///
/// ```
/// use sickle_core::{prov_evaluate, Query};
/// use sickle_table::{AggFunc, Table};
///
/// let t = Table::new(
///     ["id", "v"],
///     vec![vec!["A".into(), 1.into()], vec!["A".into(), 2.into()]],
/// ).expect("well-formed rows");
/// let q = Query::Group {
///     src: Box::new(Query::Input(0)),
///     keys: vec![0],
///     agg: AggFunc::Sum,
///     target: 1,
/// };
/// let star = prov_evaluate(&q, &[t])?;
/// assert_eq!(star[(0, 0)].to_string(), "group{T1[1,1], T1[2,1]}");
/// assert_eq!(star[(0, 1)].to_string(), "sum(T1[1,2], T1[2,2])");
/// # Ok::<(), sickle_core::EvalError>(())
/// ```
pub fn prov_evaluate(q: &Query, inputs: &[Table]) -> Result<ProvTable, EvalError> {
    Ok(Grid::clone(&exec(Semantics::Provenance, q, inputs)?.star()))
}

/// Evaluates every cell of a provenance table, recovering the concrete
/// table (`[[T★]]`, §3.1).
pub fn concretize(star: &ProvTable, inputs: &[Table]) -> Table {
    let grid = star.map(|e| e.eval(inputs));
    Table::from_grid(grid)
}

/// The aggregate term `α(member₁, …)` over the rows `g` of `col`.
fn aggregate(agg: AggFunc, col: &[Expr], g: &[usize]) -> Expr {
    Expr::apply(
        FuncName::Agg(agg),
        g.iter().map(|&i| col[i].clone()).collect(),
    )
}

/// The aggregate column of `group`: one `α(member₁, …)` term per group of
/// the target column `col`.
pub(crate) fn aggregate_column(agg: AggFunc, col: &[Expr], groups: &[Vec<usize>]) -> Vec<Expr> {
    groups.iter().map(|g| aggregate(agg, col, g)).collect()
}

/// A key column of `group`: one `group{member₁, …}` term per group of the
/// key column `col`.
pub(crate) fn group_key_column(col: &[Expr], groups: &[Vec<usize>]) -> Vec<Expr> {
    groups
        .iter()
        .map(|g| Expr::group(g.iter().map(|&i| col[i].clone()).collect()))
        .collect()
}

/// The window column `partition` appends: for every row, the window term
/// over its group's members in the target column `col` (`groups`
/// partitions the rows of `col`):
///
/// * aggregates broadcast — one `α(member₁, …)` term per group, shared by
///   every row of the group;
/// * `cumsum` takes the prefix — `sum(member₁, …, member_pos)`;
/// * `rank`/`dense_rank` prepend the row's own value — `rank(own, peers…)`.
///
/// Members enter every term as shared handles, never as copied trees.
pub(crate) fn window_column(func: AnalyticFunc, col: &[Expr], groups: &[Vec<usize>]) -> Vec<Expr> {
    let mut out: Vec<Option<Expr>> = vec![None; col.len()];
    for g in groups {
        match func {
            AnalyticFunc::Agg(a) => {
                let term = aggregate(a, col, g);
                for &i in g {
                    out[i] = Some(term.clone());
                }
            }
            AnalyticFunc::CumSum => {
                // The flattened argument list grows by one member per row,
                // exactly as `Expr::apply` would flatten each prefix.
                let sum = FuncName::Agg(AggFunc::Sum);
                let mut prefix = Vec::new();
                for &i in g {
                    match &col[i] {
                        Expr::Apply(f, inner) if *f == sum => prefix.extend(inner.iter().cloned()),
                        m => prefix.push(m.clone()),
                    }
                    out[i] = Some(Expr::Apply(sum, prefix.as_slice().into()));
                }
            }
            AnalyticFunc::Rank | AnalyticFunc::DenseRank => {
                let f = if func == AnalyticFunc::Rank {
                    FuncName::Rank
                } else {
                    FuncName::DenseRank
                };
                for &i in g {
                    let args = std::iter::once(i).chain(g.iter().copied());
                    out[i] = Some(Expr::Apply(f, args.map(|j| col[j].clone()).collect()));
                }
            }
        }
    }
    out.into_iter()
        .map(|e| e.expect("every row belongs to a group"))
        .collect()
}

/// Expands an arithmetic function body into a provenance term over the
/// given argument expressions.
pub fn expand_arith(func: &ArithExpr, args: &[Expr]) -> Expr {
    match func {
        ArithExpr::Param(i) => args[*i].clone(),
        ArithExpr::Lit(v) => Expr::Const(v.clone()),
        ArithExpr::Bin(op, l, r) => Expr::apply(
            FuncName::Op(*op),
            vec![expand_arith(l, args), expand_arith(r, args)],
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Pred;
    use crate::eval::evaluate;
    use sickle_provenance::CellRef;
    use sickle_table::{ArithOp, CmpOp, Value};

    /// Fig. 1's input table (8 rows of city A and 2 of city B for brevity
    /// in some tests; the full running example lives in the integration
    /// tests).
    fn enrollment() -> Table {
        Table::new(
            ["City", "Quarter", "Group", "Enrolled", "Population"],
            vec![
                vec![
                    "A".into(),
                    1.into(),
                    "Youth".into(),
                    1667.into(),
                    5668.into(),
                ],
                vec![
                    "A".into(),
                    1.into(),
                    "Adult".into(),
                    1367.into(),
                    5668.into(),
                ],
                vec![
                    "A".into(),
                    2.into(),
                    "Youth".into(),
                    256.into(),
                    5668.into(),
                ],
                vec![
                    "A".into(),
                    2.into(),
                    "Adult".into(),
                    347.into(),
                    5668.into(),
                ],
                vec![
                    "A".into(),
                    3.into(),
                    "Youth".into(),
                    148.into(),
                    5668.into(),
                ],
                vec![
                    "A".into(),
                    3.into(),
                    "Adult".into(),
                    237.into(),
                    5668.into(),
                ],
                vec![
                    "A".into(),
                    4.into(),
                    "Youth".into(),
                    556.into(),
                    5668.into(),
                ],
                vec![
                    "A".into(),
                    4.into(),
                    "Adult".into(),
                    432.into(),
                    5668.into(),
                ],
            ],
        )
        .unwrap()
    }

    fn running_query() -> Query {
        Query::Arith {
            src: Box::new(Query::Partition {
                src: Box::new(Query::Group {
                    src: Box::new(Query::Input(0)),
                    keys: vec![0, 1, 4],
                    agg: AggFunc::Sum,
                    target: 3,
                }),
                keys: vec![0],
                func: AnalyticFunc::CumSum,
                target: 3,
            }),
            func: ArithExpr::bin(
                ArithOp::Mul,
                ArithExpr::bin(ArithOp::Div, ArithExpr::Param(0), ArithExpr::Param(1)),
                ArithExpr::lit(100.0),
            ),
            cols: vec![4, 2],
        }
    }

    #[test]
    fn running_example_row4_term_is_flat_sum_over_8_cells() {
        let star = prov_evaluate(&running_query(), &[enrollment()]).unwrap();
        // Row 3 (quarter 4), last column: sum over rows 1..8 of Enrolled,
        // divided by the Population group, times 100 (Fig. 4).
        let cell = &star[(3, 5)];
        let refs = cell.refs();
        let enrolled_refs = refs.iter().filter(|r| r.col == 3).count();
        assert_eq!(
            enrolled_refs, 8,
            "cumsum must flatten to 8 enrolled cells: {cell}"
        );
        let shown = cell.to_string();
        assert!(shown.starts_with("((sum(T1[1,4]"), "{shown}");
        assert!(shown.contains("* 100"), "{shown}");
    }

    #[test]
    fn semantics_agree_on_running_example() {
        let q = running_query();
        let inputs = [enrollment()];
        let star = prov_evaluate(&q, &inputs).unwrap();
        let via_star = concretize(&star, &inputs);
        let direct = evaluate(&q, &inputs).unwrap();
        assert!(via_star.bag_eq(&direct));
        // Spot-check the headline number: quarter 4 of city A is ~88.3%.
        let v = direct.get(3, 5).unwrap().as_f64().unwrap();
        assert!((v - 88.33).abs() < 0.1, "got {v}");
    }

    #[test]
    fn group_cells_wrap_in_group_terms() {
        let q = Query::Group {
            src: Box::new(Query::Input(0)),
            keys: vec![0, 1],
            agg: AggFunc::Sum,
            target: 3,
        };
        let star = prov_evaluate(&q, &[enrollment()]).unwrap();
        assert_eq!(star.n_rows(), 4); // 4 quarters of city A
        assert_eq!(star[(0, 0)].to_string(), "group{T1[1,1], T1[2,1]}");
        assert_eq!(star[(0, 2)].to_string(), "sum(T1[1,4], T1[2,4])");
    }

    #[test]
    fn filter_consults_concrete_values() {
        let q = Query::Filter {
            src: Box::new(Query::Input(0)),
            pred: Pred::ColConst(1, CmpOp::Eq, Value::Int(4)),
        };
        let star = prov_evaluate(&q, &[enrollment()]).unwrap();
        assert_eq!(star.n_rows(), 2);
        assert_eq!(star[(0, 0)].to_string(), "T1[7,1]");
    }

    #[test]
    fn rank_terms_prepend_own_value() {
        let q = Query::Partition {
            src: Box::new(Query::Input(0)),
            keys: vec![1],
            func: AnalyticFunc::Rank,
            target: 3,
        };
        let star = prov_evaluate(&q, &[enrollment()]).unwrap();
        let cell = &star[(0, 5)];
        match cell {
            Expr::Apply(FuncName::Rank, args) => {
                assert_eq!(args.len(), 3); // own + 2 quarter-1 rows
                assert_eq!(args[0], args[1]);
            }
            other => panic!("expected rank term, got {other}"),
        }
        // Rank terms evaluate to the same value concrete eval computes.
        let conc = concretize(&star, &[enrollment()]);
        let direct = evaluate(&q, &[enrollment()]).unwrap();
        assert!(conc.bag_eq(&direct));
    }

    #[test]
    fn left_join_pads_with_null_consts() {
        let dims = Table::new(["c", "r"], vec![vec!["Z".into(), "w".into()]]).unwrap();
        let q = Query::LeftJoin {
            left: Box::new(Query::Input(0)),
            right: Box::new(Query::Input(1)),
            pred: Pred::ColCmp(0, CmpOp::Eq, 5),
        };
        let star = prov_evaluate(&q, &[enrollment(), dims]).unwrap();
        assert_eq!(star.n_rows(), 8);
        assert_eq!(star[(0, 5)], Expr::Const(Value::Null));
    }

    #[test]
    fn sort_reorders_provenance_rows() {
        let q = Query::Sort {
            src: Box::new(Query::Input(0)),
            cols: vec![3],
            asc: false,
        };
        let star = prov_evaluate(&q, &[enrollment()]).unwrap();
        // Largest Enrolled is 1667 at input row 1.
        assert_eq!(star[(0, 3)].to_string(), "T1[1,4]");
    }

    #[test]
    fn expand_arith_nested_shape() {
        let f = ArithExpr::bin(
            ArithOp::Div,
            ArithExpr::bin(ArithOp::Sub, ArithExpr::Param(0), ArithExpr::Param(1)),
            ArithExpr::Param(1),
        );
        let args = [
            Expr::Ref(CellRef::new(0, 0, 0)),
            Expr::Ref(CellRef::new(0, 0, 1)),
        ];
        let e = expand_arith(&f, &args);
        assert_eq!(e.to_string(), "((T1[1,1] - T1[1,2]) / T1[1,2])");
    }
}
