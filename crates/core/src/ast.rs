//! The analytical SQL language `L_SQL` (Fig. 7) and partial queries.
//!
//! A [`Query`] is a fully-instantiated query tree. A [`PQuery`] is a query
//! whose parameters may be *holes* `□` (represented as `None`), produced
//! during the enumerative search: skeletons start with every parameter
//! unfilled and are refined one hole at a time (Algorithm 1).

use std::fmt;

use sickle_provenance::{ColumnHeads, FuncName};
use sickle_table::{AggFunc, AnalyticFunc, ArithExpr, CmpOp, Value};

/// A filter / join predicate `p` (Fig. 7).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Pred {
    /// Always true.
    True,
    /// `c₁ op c₂` comparing two columns of the same row.
    ColCmp(usize, CmpOp, usize),
    /// `c op v` comparing a column against a constant.
    ColConst(usize, CmpOp, Value),
    /// Conjunction.
    And(Box<Pred>, Box<Pred>),
}

impl Pred {
    /// Evaluates the predicate on a row.
    pub fn eval(&self, row: &[Value]) -> bool {
        self.eval_with(&|c| &row[c])
    }

    /// Evaluates the predicate through a cell accessor — the shared core
    /// used both for contiguous rows ([`Pred::eval`]) and for the engine's
    /// columnar / virtually-concatenated row views.
    pub fn eval_with<'a>(&self, get: &impl Fn(usize) -> &'a Value) -> bool {
        match self {
            Pred::True => true,
            Pred::ColCmp(a, op, b) => op.eval(get(*a), get(*b)),
            Pred::ColConst(c, op, v) => op.eval(get(*c), v),
            Pred::And(l, r) => l.eval_with(get) && r.eval_with(get),
        }
    }

    /// Largest column index mentioned, if any (for validation).
    pub fn max_col(&self) -> Option<usize> {
        match self {
            Pred::True => None,
            Pred::ColCmp(a, _, b) => Some(*a.max(b)),
            Pred::ColConst(c, _, _) => Some(*c),
            Pred::And(l, r) => match (l.max_col(), r.max_col()) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            },
        }
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::True => write!(f, "true"),
            Pred::ColCmp(a, op, b) => write!(f, "c{a} {op} c{b}"),
            Pred::ColConst(c, op, v) => write!(f, "c{c} {op} {v}"),
            Pred::And(l, r) => write!(f, "({l} and {r})"),
        }
    }
}

/// A concrete analytical SQL query (Fig. 7).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Query {
    /// An input table `T_k`.
    Input(usize),
    /// `filter(q, p)` — keep rows satisfying `p`.
    Filter {
        /// Source query.
        src: Box<Query>,
        /// Row predicate.
        pred: Pred,
    },
    /// `join(q₁, q₂)` — cross product (equi-joins are `filter ∘ join`).
    Join {
        /// Left operand.
        left: Box<Query>,
        /// Right operand.
        right: Box<Query>,
    },
    /// `left_join(q₁, q₂, p)` — left outer join on predicate `p`
    /// (evaluated over the concatenated row).
    LeftJoin {
        /// Left operand.
        left: Box<Query>,
        /// Right operand.
        right: Box<Query>,
        /// Join predicate over `left ++ right` columns.
        pred: Pred,
    },
    /// `proj(q, c̄)` — project onto columns `c̄`.
    Proj {
        /// Source query.
        src: Box<Query>,
        /// Columns to keep, in order.
        cols: Vec<usize>,
    },
    /// `sort(q, c̄, op)` — sort rows by columns `c̄`.
    Sort {
        /// Source query.
        src: Box<Query>,
        /// Sort key columns (lexicographic).
        cols: Vec<usize>,
        /// Ascending (`true`) or descending.
        asc: bool,
    },
    /// `group(q, c̄, α(c_t))` — group by `c̄`, aggregate `c_t` with `α`.
    /// Output columns: the keys `c̄` (in order) then the aggregate.
    Group {
        /// Source query.
        src: Box<Query>,
        /// Grouping key columns.
        keys: Vec<usize>,
        /// Aggregation function.
        agg: AggFunc,
        /// Aggregated (target) column.
        target: usize,
    },
    /// `partition(q, c̄, α′(c_t))` — partition by `c̄` and append a window
    /// aggregate of `c_t`; all source columns are preserved.
    Partition {
        /// Source query.
        src: Box<Query>,
        /// Partitioning key columns.
        keys: Vec<usize>,
        /// Analytical function.
        func: AnalyticFunc,
        /// Target column.
        target: usize,
    },
    /// `arithmetic(q, γ(c̄))` — append `γ` applied to columns `c̄` row-wise.
    Arith {
        /// Source query.
        src: Box<Query>,
        /// The arithmetic function body.
        func: ArithExpr,
        /// Argument columns, positionally bound to `γ`'s parameters.
        cols: Vec<usize>,
    },
}

impl Query {
    /// Number of operator nodes (inputs are free), the paper's query size
    /// used for ranking.
    pub fn size(&self) -> usize {
        match self {
            Query::Input(_) => 0,
            Query::Filter { src, .. }
            | Query::Proj { src, .. }
            | Query::Sort { src, .. }
            | Query::Group { src, .. }
            | Query::Partition { src, .. }
            | Query::Arith { src, .. } => 1 + src.size(),
            Query::Join { left, right } => 1 + left.size() + right.size(),
            Query::LeftJoin { left, right, .. } => 1 + left.size() + right.size(),
        }
    }

    /// The direct subqueries of this node (empty for `Input`).
    pub fn children(&self) -> Vec<&Query> {
        match self {
            Query::Input(_) => Vec::new(),
            Query::Filter { src, .. }
            | Query::Proj { src, .. }
            | Query::Sort { src, .. }
            | Query::Group { src, .. }
            | Query::Partition { src, .. }
            | Query::Arith { src, .. } => vec![src],
            Query::Join { left, right } | Query::LeftJoin { left, right, .. } => {
                vec![left, right]
            }
        }
    }

    /// Number of output columns given the arities of the input tables.
    pub fn n_cols(&self, input_arities: &[usize]) -> usize {
        match self {
            Query::Input(k) => input_arities[*k],
            Query::Filter { src, .. } | Query::Sort { src, .. } => src.n_cols(input_arities),
            Query::Proj { cols, .. } => cols.len(),
            Query::Join { left, right } | Query::LeftJoin { left, right, .. } => {
                left.n_cols(input_arities) + right.n_cols(input_arities)
            }
            Query::Group { keys, .. } => keys.len() + 1,
            Query::Partition { src, .. } | Query::Arith { src, .. } => {
                src.n_cols(input_arities) + 1
            }
        }
    }

    /// Every output column's [`ColumnHeads`] given the arities of the
    /// input tables: what the column's provenance cells (`[[q]]★`) can
    /// show at their top level, from the operators alone. Inputs are
    /// references; `filter`, `sort` and `proj` keep their source's; `join`
    /// concatenates both sides, and `left_join` also adds constants on its
    /// right side (the null padding, whether or not a row is padded);
    /// `group` keeps its key columns' and adds the aggregate; `partition`
    /// adds its window function (`sum` for `cumsum`); `arithmetic` adds
    /// its template's root: the operator, a constant for a literal, or the
    /// argument column's heads for a bare parameter.
    ///
    /// # Panics
    ///
    /// Panics if a column index is out of range, as evaluation would fail.
    pub fn column_heads(&self, input_arities: &[usize]) -> Vec<ColumnHeads> {
        match self {
            Query::Input(k) => vec![ColumnHeads::REF; input_arities[*k]],
            Query::Filter { src, .. } | Query::Sort { src, .. } => src.column_heads(input_arities),
            Query::Proj { src, cols } => {
                let heads = src.column_heads(input_arities);
                cols.iter().map(|&c| heads[c]).collect()
            }
            Query::Join { left, right } => {
                let mut heads = left.column_heads(input_arities);
                heads.extend(right.column_heads(input_arities));
                heads
            }
            Query::LeftJoin { left, right, .. } => {
                let mut heads = left.column_heads(input_arities);
                let padded = right.column_heads(input_arities).into_iter();
                heads.extend(padded.map(|h| h.union(ColumnHeads::CONST)));
                heads
            }
            Query::Group { src, keys, agg, .. } => {
                // Key cells are `group{…}` of the source's cells.
                let heads = src.column_heads(input_arities);
                let mut out: Vec<_> = keys.iter().map(|&k| heads[k]).collect();
                out.push(ColumnHeads::apply(FuncName::Agg(*agg)));
                out
            }
            Query::Partition { src, func, .. } => {
                let head = match func {
                    AnalyticFunc::Agg(a) => FuncName::Agg(*a),
                    AnalyticFunc::CumSum => FuncName::Agg(AggFunc::Sum),
                    AnalyticFunc::Rank => FuncName::Rank,
                    AnalyticFunc::DenseRank => FuncName::DenseRank,
                };
                let mut heads = src.column_heads(input_arities);
                heads.push(ColumnHeads::apply(head));
                heads
            }
            Query::Arith { src, func, cols } => {
                let mut heads = src.column_heads(input_arities);
                let root = match func {
                    ArithExpr::Param(i) => heads[cols[*i]],
                    ArithExpr::Lit(_) => ColumnHeads::CONST,
                    ArithExpr::Bin(op, ..) => ColumnHeads::apply(FuncName::Op(*op)),
                };
                heads.push(root);
                heads
            }
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Query::Input(k) => write!(f, "T{}", k + 1),
            Query::Filter { src, pred } => write!(f, "filter({src}, {pred})"),
            Query::Join { left, right } => write!(f, "join({left}, {right})"),
            Query::LeftJoin { left, right, pred } => {
                write!(f, "left_join({left}, {right}, {pred})")
            }
            Query::Proj { src, cols } => write!(f, "proj({src}, {cols:?})"),
            Query::Sort { src, cols, asc } => {
                write!(
                    f,
                    "sort({src}, {cols:?}, {})",
                    if *asc { "asc" } else { "desc" }
                )
            }
            Query::Group {
                src,
                keys,
                agg,
                target,
            } => write!(f, "group({src}, {keys:?}, {agg}(c{target}))"),
            Query::Partition {
                src,
                keys,
                func,
                target,
            } => write!(f, "partition({src}, {keys:?}, {func}(c{target}))"),
            Query::Arith { src, func, cols } => {
                write!(f, "arithmetic({src}, {func}, {cols:?})")
            }
        }
    }
}

/// A partial query: a query tree whose parameters may be holes (`None`).
///
/// Operator *structure* is fixed by the skeleton; only parameters are holes,
/// matching Fig. 5 where skeletons such as `partition(group(T, □, □), □, □)`
/// are refined parameter by parameter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PQuery {
    /// An input table.
    Input(usize),
    /// `filter(q, p?)`.
    Filter {
        /// Source.
        src: Box<PQuery>,
        /// Predicate, or hole.
        pred: Option<Pred>,
    },
    /// `join(q₁, q₂)` (no parameters).
    Join {
        /// Left operand.
        left: Box<PQuery>,
        /// Right operand.
        right: Box<PQuery>,
    },
    /// `left_join(q₁, q₂, p?)`.
    LeftJoin {
        /// Left operand.
        left: Box<PQuery>,
        /// Right operand.
        right: Box<PQuery>,
        /// Join predicate, or hole.
        pred: Option<Pred>,
    },
    /// `proj(q, c̄?)`.
    Proj {
        /// Source.
        src: Box<PQuery>,
        /// Projection columns, or hole.
        cols: Option<Vec<usize>>,
    },
    /// `sort(q, (c̄, op)?)`.
    Sort {
        /// Source.
        src: Box<PQuery>,
        /// Sort key and direction, or hole.
        params: Option<(Vec<usize>, bool)>,
    },
    /// `group(q, c̄?, α(c_t)?)` — keys and aggregation are separate holes so
    /// the abstraction can strengthen as soon as the keys are known.
    Group {
        /// Source.
        src: Box<PQuery>,
        /// Grouping keys, or hole.
        keys: Option<Vec<usize>>,
        /// Aggregation function and target, or hole.
        agg: Option<(AggFunc, usize)>,
    },
    /// `partition(q, c̄?, α′(c_t)?)`.
    Partition {
        /// Source.
        src: Box<PQuery>,
        /// Partitioning keys, or hole.
        keys: Option<Vec<usize>>,
        /// Analytical function and target, or hole.
        func: Option<(AnalyticFunc, usize)>,
    },
    /// `arithmetic(q, (γ, c̄)?)`.
    Arith {
        /// Source.
        src: Box<PQuery>,
        /// Function body and argument columns, or hole.
        func: Option<(ArithExpr, Vec<usize>)>,
    },
}

impl PQuery {
    /// A skeleton node for an input table.
    pub fn input(k: usize) -> PQuery {
        PQuery::Input(k)
    }

    /// True when no holes remain.
    pub fn is_concrete(&self) -> bool {
        match self {
            PQuery::Input(_) => true,
            PQuery::Filter { src, pred } => pred.is_some() && src.is_concrete(),
            PQuery::Join { left, right } => left.is_concrete() && right.is_concrete(),
            PQuery::LeftJoin { left, right, pred } => {
                pred.is_some() && left.is_concrete() && right.is_concrete()
            }
            PQuery::Proj { src, cols } => cols.is_some() && src.is_concrete(),
            PQuery::Sort { src, params } => params.is_some() && src.is_concrete(),
            PQuery::Group { src, keys, agg } => {
                keys.is_some() && agg.is_some() && src.is_concrete()
            }
            PQuery::Partition { src, keys, func } => {
                keys.is_some() && func.is_some() && src.is_concrete()
            }
            PQuery::Arith { src, func } => func.is_some() && src.is_concrete(),
        }
    }

    /// Converts to a concrete [`Query`], if no holes remain.
    pub fn to_concrete(&self) -> Option<Query> {
        Some(match self {
            PQuery::Input(k) => Query::Input(*k),
            PQuery::Filter { src, pred } => Query::Filter {
                src: Box::new(src.to_concrete()?),
                pred: pred.clone()?,
            },
            PQuery::Join { left, right } => Query::Join {
                left: Box::new(left.to_concrete()?),
                right: Box::new(right.to_concrete()?),
            },
            PQuery::LeftJoin { left, right, pred } => Query::LeftJoin {
                left: Box::new(left.to_concrete()?),
                right: Box::new(right.to_concrete()?),
                pred: pred.clone()?,
            },
            PQuery::Proj { src, cols } => Query::Proj {
                src: Box::new(src.to_concrete()?),
                cols: cols.clone()?,
            },
            PQuery::Sort { src, params } => {
                let (cols, asc) = params.clone()?;
                Query::Sort {
                    src: Box::new(src.to_concrete()?),
                    cols,
                    asc,
                }
            }
            PQuery::Group { src, keys, agg } => {
                let (agg, target) = (*agg)?;
                Query::Group {
                    src: Box::new(src.to_concrete()?),
                    keys: keys.clone()?,
                    agg,
                    target,
                }
            }
            PQuery::Partition { src, keys, func } => {
                let (func, target) = (*func)?;
                Query::Partition {
                    src: Box::new(src.to_concrete()?),
                    keys: keys.clone()?,
                    func,
                    target,
                }
            }
            PQuery::Arith { src, func } => {
                let (func, cols) = func.clone()?;
                Query::Arith {
                    src: Box::new(src.to_concrete()?),
                    func,
                    cols,
                }
            }
        })
    }

    /// Wraps a concrete query as a hole-free partial query.
    pub fn from_concrete(q: &Query) -> PQuery {
        match q {
            Query::Input(k) => PQuery::Input(*k),
            Query::Filter { src, pred } => PQuery::Filter {
                src: Box::new(PQuery::from_concrete(src)),
                pred: Some(pred.clone()),
            },
            Query::Join { left, right } => PQuery::Join {
                left: Box::new(PQuery::from_concrete(left)),
                right: Box::new(PQuery::from_concrete(right)),
            },
            Query::LeftJoin { left, right, pred } => PQuery::LeftJoin {
                left: Box::new(PQuery::from_concrete(left)),
                right: Box::new(PQuery::from_concrete(right)),
                pred: Some(pred.clone()),
            },
            Query::Proj { src, cols } => PQuery::Proj {
                src: Box::new(PQuery::from_concrete(src)),
                cols: Some(cols.clone()),
            },
            Query::Sort { src, cols, asc } => PQuery::Sort {
                src: Box::new(PQuery::from_concrete(src)),
                params: Some((cols.clone(), *asc)),
            },
            Query::Group {
                src,
                keys,
                agg,
                target,
            } => PQuery::Group {
                src: Box::new(PQuery::from_concrete(src)),
                keys: Some(keys.clone()),
                agg: Some((*agg, *target)),
            },
            Query::Partition {
                src,
                keys,
                func,
                target,
            } => PQuery::Partition {
                src: Box::new(PQuery::from_concrete(src)),
                keys: Some(keys.clone()),
                func: Some((*func, *target)),
            },
            Query::Arith { src, func, cols } => PQuery::Arith {
                src: Box::new(PQuery::from_concrete(src)),
                func: Some((func.clone(), cols.clone())),
            },
        }
    }

    /// Output column count, when it is determined by the instantiated
    /// parameters (`None` while e.g. grouping keys or projection columns are
    /// still holes).
    pub fn n_cols(&self, input_arities: &[usize]) -> Option<usize> {
        match self {
            PQuery::Input(k) => input_arities.get(*k).copied(),
            PQuery::Filter { src, .. } | PQuery::Sort { src, .. } => src.n_cols(input_arities),
            PQuery::Proj { cols, .. } => cols.as_ref().map(Vec::len),
            PQuery::Join { left, right } | PQuery::LeftJoin { left, right, .. } => {
                Some(left.n_cols(input_arities)? + right.n_cols(input_arities)?)
            }
            PQuery::Group { keys, .. } => keys.as_ref().map(|k| k.len() + 1),
            PQuery::Partition { src, .. } | PQuery::Arith { src, .. } => {
                Some(src.n_cols(input_arities)? + 1)
            }
        }
    }

    /// Number of operator nodes (same convention as [`Query::size`]).
    pub fn size(&self) -> usize {
        match self {
            PQuery::Input(_) => 0,
            PQuery::Filter { src, .. }
            | PQuery::Proj { src, .. }
            | PQuery::Sort { src, .. }
            | PQuery::Group { src, .. }
            | PQuery::Partition { src, .. }
            | PQuery::Arith { src, .. } => 1 + src.size(),
            PQuery::Join { left, right } => 1 + left.size() + right.size(),
            PQuery::LeftJoin { left, right, .. } => 1 + left.size() + right.size(),
        }
    }

    /// Number of unfilled holes.
    pub fn n_holes(&self) -> usize {
        fn opt<T>(o: &Option<T>) -> usize {
            usize::from(o.is_none())
        }
        match self {
            PQuery::Input(_) => 0,
            PQuery::Filter { src, pred } => opt(pred) + src.n_holes(),
            PQuery::Join { left, right } => left.n_holes() + right.n_holes(),
            PQuery::LeftJoin { left, right, pred } => opt(pred) + left.n_holes() + right.n_holes(),
            PQuery::Proj { src, cols } => opt(cols) + src.n_holes(),
            PQuery::Sort { src, params } => opt(params) + src.n_holes(),
            PQuery::Group { src, keys, agg } => opt(keys) + opt(agg) + src.n_holes(),
            PQuery::Partition { src, keys, func } => opt(keys) + opt(func) + src.n_holes(),
            PQuery::Arith { src, func } => opt(func) + src.n_holes(),
        }
    }
}

impl fmt::Display for PQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn hole<T: fmt::Debug>(o: &Option<T>) -> String {
            match o {
                Some(v) => format!("{v:?}"),
                None => "□".to_owned(),
            }
        }
        match self {
            PQuery::Input(k) => write!(f, "T{}", k + 1),
            PQuery::Filter { src, pred } => write!(f, "filter({src}, {})", hole(pred)),
            PQuery::Join { left, right } => write!(f, "join({left}, {right})"),
            PQuery::LeftJoin { left, right, pred } => {
                write!(f, "left_join({left}, {right}, {})", hole(pred))
            }
            PQuery::Proj { src, cols } => write!(f, "proj({src}, {})", hole(cols)),
            PQuery::Sort { src, params } => write!(f, "sort({src}, {})", hole(params)),
            PQuery::Group { src, keys, agg } => {
                write!(f, "group({src}, {}, {})", hole(keys), hole(agg))
            }
            PQuery::Partition { src, keys, func } => {
                write!(f, "partition({src}, {}, {})", hole(keys), hole(func))
            }
            PQuery::Arith { src, func } => write!(f, "arithmetic({src}, {})", hole(func)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn running_example_query() -> Query {
        // t1 <- group(T, [0,1,4], sum, 3); t2 <- partition(t1, [0], cumsum, 3)
        // t3 <- arithmetic(t2, x/y*100, [4, 2])
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
                sickle_table::ArithOp::Mul,
                ArithExpr::bin(
                    sickle_table::ArithOp::Div,
                    ArithExpr::Param(0),
                    ArithExpr::Param(1),
                ),
                ArithExpr::lit(100.0),
            ),
            cols: vec![4, 2],
        }
    }

    #[test]
    fn query_size_counts_operators() {
        assert_eq!(running_example_query().size(), 3);
        assert_eq!(Query::Input(0).size(), 0);
    }

    #[test]
    fn query_n_cols() {
        // group keys 3 + 1 agg = 4; partition adds 1 = 5; arith adds 1 = 6.
        assert_eq!(running_example_query().n_cols(&[5]), 6);
    }

    #[test]
    fn pquery_round_trip() {
        let q = running_example_query();
        let p = PQuery::from_concrete(&q);
        assert!(p.is_concrete());
        assert_eq!(p.n_holes(), 0);
        assert_eq!(p.to_concrete(), Some(q));
    }

    #[test]
    fn partial_query_schema_unknown_until_keys_filled() {
        let p = PQuery::Group {
            src: Box::new(PQuery::Input(0)),
            keys: None,
            agg: None,
        };
        assert_eq!(p.n_cols(&[5]), None);
        assert_eq!(p.n_holes(), 2);
        assert!(!p.is_concrete());
        assert!(p.to_concrete().is_none());
        let p2 = PQuery::Group {
            src: Box::new(PQuery::Input(0)),
            keys: Some(vec![0, 1]),
            agg: None,
        };
        assert_eq!(p2.n_cols(&[5]), Some(3));
    }

    #[test]
    fn display_shows_holes() {
        let p = PQuery::Partition {
            src: Box::new(PQuery::Input(0)),
            keys: None,
            func: None,
        };
        assert_eq!(p.to_string(), "partition(T1, □, □)");
    }

    #[test]
    fn pred_eval_and_max_col() {
        let row = [Value::Int(3), Value::Int(5)];
        let p = Pred::And(
            Box::new(Pred::ColCmp(0, CmpOp::Lt, 1)),
            Box::new(Pred::ColConst(1, CmpOp::Eq, Value::Int(5))),
        );
        assert!(p.eval(&row));
        assert_eq!(p.max_col(), Some(1));
        assert_eq!(Pred::True.max_col(), None);
        assert!(Pred::True.eval(&row));
    }

    fn heads_input() -> sickle_table::Table {
        sickle_table::Table::new(
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

    /// `q`'s static column heads over [`heads_input`], checked to contain
    /// the summary of every cell of its evaluated star.
    fn heads_of(q: &Query) -> Vec<ColumnHeads> {
        let inputs = [heads_input()];
        let heads = q.column_heads(&[4]);
        let out = crate::engine::exec(crate::engine::Semantics::Provenance, q, &inputs).unwrap();
        assert_eq!(heads.len(), q.n_cols(&[4]), "{q}");
        for (j, col) in out.star().columns().enumerate() {
            for e in col.iter() {
                assert!(
                    heads[j].contains(ColumnHeads::of(e)),
                    "{q}: column {j} misses {e}"
                );
            }
        }
        heads
    }

    fn head(f: FuncName) -> ColumnHeads {
        ColumnHeads::apply(f)
    }

    fn window(src: Query, func: AnalyticFunc) -> Query {
        Query::Partition {
            src: Box::new(src),
            keys: vec![0],
            func,
            target: 2,
        }
    }

    #[test]
    fn heads_of_row_moving_operators_follow_their_sources() {
        let refs = vec![ColumnHeads::REF; 4];
        let cumsum = window(Query::Input(0), AnalyticFunc::CumSum);
        let sum = head(FuncName::Agg(AggFunc::Sum));
        assert_eq!(heads_of(&Query::Input(0)), refs);
        let filter = Query::Filter {
            src: Box::new(cumsum.clone()),
            pred: Pred::ColConst(2, CmpOp::Gt, Value::Int(15)),
        };
        let sorted = Query::Sort {
            src: Box::new(cumsum.clone()),
            cols: vec![4],
            asc: false,
        };
        for q in [&filter, &sorted] {
            assert_eq!(heads_of(q), [&refs[..], &[sum]].concat(), "{q}");
        }
        let proj = Query::Proj {
            src: Box::new(cumsum.clone()),
            cols: vec![4, 1],
        };
        assert_eq!(heads_of(&proj), [sum, ColumnHeads::REF]);
        // An inner join concatenates both sides; a left join adds
        // constants (its null padding) on the right side, whether or not
        // a row is padded.
        let join = Query::Join {
            left: Box::new(Query::Input(0)),
            right: Box::new(cumsum),
        };
        assert_eq!(heads_of(&join), [&refs[..], &refs[..], &[sum]].concat());
        let or_null = ColumnHeads::REF.union(ColumnHeads::CONST);
        for pad in [Value::Int(30), Value::Int(0)] {
            let left_join = Query::LeftJoin {
                left: Box::new(Query::Input(0)),
                right: Box::new(Query::Input(0)),
                pred: Pred::And(
                    Box::new(Pred::ColCmp(0, CmpOp::Eq, 4)),
                    Box::new(Pred::ColConst(6, CmpOp::Gt, pad)),
                ),
            };
            assert_eq!(
                heads_of(&left_join),
                [refs.clone(), vec![or_null; 4]].concat()
            );
        }
    }

    #[test]
    fn heads_of_windows_and_groups_add_their_function() {
        for (func, want) in [
            (AnalyticFunc::CumSum, FuncName::Agg(AggFunc::Sum)),
            (AnalyticFunc::Rank, FuncName::Rank),
            (AnalyticFunc::DenseRank, FuncName::DenseRank),
            (AnalyticFunc::Agg(AggFunc::Avg), FuncName::Agg(AggFunc::Avg)),
        ] {
            let heads = heads_of(&window(Query::Input(0), func));
            assert_eq!(heads.len(), 5);
            assert_eq!(heads[4], head(want), "{func:?}");
        }
        // Group keys keep the source's heads (key cells are `group{…}` of
        // the source's cells); the aggregate adds its own head.
        let q = Query::Group {
            src: Box::new(window(Query::Input(0), AnalyticFunc::Rank)),
            keys: vec![0, 4],
            agg: AggFunc::Max,
            target: 2,
        };
        assert_eq!(
            heads_of(&q),
            [
                ColumnHeads::REF,
                head(FuncName::Rank),
                head(FuncName::Agg(AggFunc::Max))
            ]
        );
    }

    #[test]
    fn heads_of_arithmetic_are_its_template_root() {
        use sickle_table::ArithOp;
        let arith = |func| Query::Arith {
            src: Box::new(window(Query::Input(0), AnalyticFunc::DenseRank)),
            func,
            cols: vec![3, 4],
        };
        let div = ArithExpr::bin(ArithOp::Div, ArithExpr::Param(0), ArithExpr::Param(1));
        for (func, want) in [
            // A bare parameter is its argument column's cells.
            (ArithExpr::Param(1), head(FuncName::DenseRank)),
            (ArithExpr::Param(0), ColumnHeads::REF),
            (ArithExpr::lit(100.0), ColumnHeads::CONST),
            (div.clone(), head(FuncName::Op(ArithOp::Div))),
            (
                ArithExpr::bin(ArithOp::Mul, div, ArithExpr::lit(100.0)),
                head(FuncName::Op(ArithOp::Mul)),
            ),
        ] {
            assert_eq!(heads_of(&arith(func.clone()))[5], want, "{func:?}");
        }
    }
}
