//! The unified execution engine behind all three query semantics.
//!
//! One columnar operator pipeline implements every operator once, over
//! [`Table`]s with `Arc`-shared columns, and produces an [`ExecTable`].
//! Its values are always computed eagerly. At [`Semantics::Provenance`]
//! the result also keeps a small *step record*: its children plus what
//! the operator decided (the row selection, the join pairs and their
//! padding, the partition, the arithmetic template). Two more channels
//! derive lazily from that record and the children's matching channels,
//! one node at a time:
//!
//! * **values** — the concrete output `[[q]]`. It also drives filtering,
//!   sorting, joining and grouping, so no provenance term is ever
//!   evaluated to make those decisions;
//! * **set ids** — every cell's exact reference set (`ref` of the
//!   provenance cell), interned in a [`RefSetPool`]
//!   ([`ExecTable::set_ids`]). A node unions its child's ids per group
//!   (`group`, aggregate windows, `rank`), per window prefix (`cumsum`)
//!   or over the template's parameters (`arithmetic`), and gathers them
//!   for the row-moving operators; padding is the empty set. This is the
//!   exact abstraction of the abstract analysis and the input of the
//!   acceptance prefilter (Def. 3);
//! * **star** — the provenance-embedded output `[[q]]★` (Fig. 9,
//!   [`ExecTable::star`]), which only the Def. 1 match reads.
//!
//! Sets never go through the star, so a candidate the prefilter rejects
//! never builds a provenance term.
//!
//! [`exec`] runs the pipeline over a whole query: at
//! [`Semantics::Values`] it backs `evaluate`, at
//! [`Semantics::Provenance`] it backs `prov_evaluate` and, through the
//! id channel, the concrete leaves of `abstract_evaluate`. [`EvalCache`]
//! memoizes engine results keyed by `(query, semantics)` so skeleton
//! refinement reuses inner-subquery evaluations across sibling
//! expansions. It stores only subqueries: the search checks each
//! candidate once, so [`EvalCache::exec_root`] evaluates the candidate
//! itself outside the store. Row partitions, which both the `group` and
//! `partition` operators and the strong abstract rules read, are
//! memoized by the identity of their key value columns: siblings share
//! unchanged columns by `Arc`, so each distinct set of key columns is
//! grouped once ([`EvalCache::groups_of`]).
//!
//! The pipeline also fuses `filter ∘ join`: the cross product is never
//! materialized — a selection-vector pair is built from the predicate and
//! each surviving column is gathered once.

use std::cell::{Cell, OnceCell, RefCell};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sickle_table::{
    cross_selection, group_rows_by_keys, AggFunc, AnalyticFunc, ArithExpr, CmpOp, Grid, Table,
    Value, ValueInterner, ValueKey,
};

use sickle_provenance::{CellRef, Expr, FxBuild, FxMap, RefSetPool, RefUniverse, SetId};
use std::hash::BuildHasher;

use crate::ast::{Pred, Query};
use crate::eval::EvalError;
use crate::memo::Memo;
use crate::prov_eval::{
    aggregate_column, expand_arith, group_key_column, window_column, ProvTable,
};
use crate::stats::SearchStats;

/// Which channels of an [`ExecTable`] a caller needs.
///
/// Levels are strictly ordered: [`Semantics::Provenance`] computes
/// everything [`Semantics::Values`] does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Semantics {
    /// Concrete values only (`[[q]]`).
    Values,
    /// Values plus the step record from which the reference-set ids and
    /// the provenance star (`[[q]]★`) derive on first use.
    Provenance,
}

/// A channel derived on first use. Demotion empties it in place
/// ([`ExecTable::drop_derived`]), and the next use derives it again.
type Lazy<T> = RefCell<Option<Rc<T>>>;

fn lazy<T>(cell: &Lazy<T>, derive: impl FnOnce() -> T) -> Rc<T> {
    if let Some(v) = &*cell.borrow() {
        return Rc::clone(v);
    }
    let v = Rc::new(derive());
    *cell.borrow_mut() = Some(Rc::clone(&v));
    v
}

/// Output of the engine for one (sub)query: the concrete table, plus at
/// [`Semantics::Provenance`] the step record and the lazily derived id
/// and star channels.
#[derive(Debug, Clone)]
pub struct ExecTable {
    values: Table,
    /// How this result derives from its children; `None` at
    /// [`Semantics::Values`].
    step: Option<Step>,
    set_ids: Lazy<Grid<SetId>>,
    star: Lazy<ProvTable>,
}

/// What one operator decided, kept so the lazy channels can replay it
/// over the children's channels.
#[derive(Debug, Clone)]
enum Step {
    /// `Input(k)`: cell `(i, j)` is the reference `T_k[i, j]`.
    Input(usize),
    /// `filter` and `sort`: the rows `sel` of the child, in that order.
    Rows(Rc<ExecTable>, Vec<usize>),
    /// `join`, fused `filter ∘ join` and `left_join`: output row `i` is
    /// left row `lsel[i]` next to right row `rsel[i]`, or next to null
    /// padding (empty provenance) where `rsel[i]` is `None`.
    Join {
        left: Rc<ExecTable>,
        right: Rc<ExecTable>,
        lsel: Vec<usize>,
        rsel: Vec<Option<usize>>,
    },
    /// `proj`: the child's columns `cols`.
    Proj(Rc<ExecTable>, Vec<usize>),
    /// `group`: one row per group of `parts`, its key columns and then
    /// `agg` over the child's column `target`.
    Group {
        src: Rc<ExecTable>,
        parts: Rc<GroupParts>,
        agg: AggFunc,
        target: usize,
    },
    /// `partition`: the child plus the window column of `func` over
    /// column `target` within each of `groups`.
    Partition {
        src: Rc<ExecTable>,
        groups: Groups,
        func: AnalyticFunc,
        target: usize,
    },
    /// `arithmetic`: the child plus `func` over the columns `cols`.
    Arith {
        src: Rc<ExecTable>,
        func: ArithExpr,
        cols: Vec<usize>,
    },
}

/// The parts of a `group` output that depend on the child and the keys
/// only, not on the aggregation: the row partition, each group's
/// representative key values and, derived on first use, the key columns'
/// ids and `group{…}` terms. Sibling aggregation choices share one
/// through [`EvalCache::group_parts`].
#[derive(Debug)]
struct GroupParts {
    groups: Groups,
    keys: Vec<usize>,
    values: Vec<Arc<Vec<Value>>>,
    ids: OnceCell<Vec<SetColumn>>,
    stars: OnceCell<Vec<Arc<Vec<Expr>>>>,
}

impl GroupParts {
    fn new(src: &ExecTable, groups: Groups, keys: &[usize]) -> GroupParts {
        let values = keys
            .iter()
            .map(|&k| {
                let col = src.values.column(k);
                Arc::new(groups.iter().map(|g| col[g[0]].clone()).collect())
            })
            .collect();
        GroupParts {
            groups,
            keys: keys.to_vec(),
            values,
            ids: OnceCell::new(),
            stars: OnceCell::new(),
        }
    }

    /// Approximate heap bytes of the key values (the partition is shared
    /// and charged where it is canonicalized, [`EvalCache::groups_of`]).
    fn heap_bytes(&self) -> u64 {
        (self.keys.len() * self.groups.len()) as u64 * VALUE_BYTES
    }
}

/// Bytes of one value cell.
const VALUE_BYTES: u64 = std::mem::size_of::<Value>() as u64;

/// Bytes of one star cell (the term's own header; shared subterms are
/// not counted).
const EXPR_BYTES: u64 = std::mem::size_of::<Expr>() as u64;

/// Bytes of one interned id.
const SET_ID_BYTES: u64 = std::mem::size_of::<SetId>() as u64;

impl ExecTable {
    /// The concrete output table `[[q]]`.
    pub fn table(&self) -> &Table {
        &self.values
    }

    /// Consumes the result, returning the concrete table.
    pub fn into_table(self) -> Table {
        self.values
    }

    /// The semantics level this result was computed at.
    pub fn semantics(&self) -> Semantics {
        if self.step.is_some() {
            Semantics::Provenance
        } else {
            Semantics::Values
        }
    }

    /// The provenance-embedded output `[[q]]★`, derived from the step
    /// record and the children's stars on first use and memoized.
    ///
    /// # Panics
    ///
    /// Panics if the result was computed at [`Semantics::Values`].
    pub fn star(&self) -> Rc<ProvTable> {
        let step = self
            .step
            .as_ref()
            .expect("provenance channel not requested");
        lazy(&self.star, || self.derive_star(step))
    }

    /// Whether the star channel is held: derived, and not freed by a
    /// demotion since. Derives nothing.
    pub fn has_star(&self) -> bool {
        self.star.borrow().is_some()
    }

    /// Whether the id channel is held, as [`ExecTable::has_star`].
    pub fn has_ids(&self) -> bool {
        self.set_ids.borrow().is_some()
    }

    /// Every cell's exact reference set (`ref` of the star cell),
    /// interned into `pool`: derived from the step record and the
    /// children's ids on first use and memoized, without building a
    /// provenance term. All accesses of one result, and of the results
    /// it derives from, must use the same pool and universe (the engine
    /// cache guarantees this: one pool is threaded through a whole
    /// search).
    ///
    /// # Panics
    ///
    /// Panics if the result was computed at [`Semantics::Values`].
    pub fn set_ids(&self, universe: &RefUniverse, pool: &RefSetPool) -> Rc<Grid<SetId>> {
        let step = self
            .step
            .as_ref()
            .expect("provenance channel not requested");
        lazy(&self.set_ids, || self.derive_ids(step, universe, pool))
    }

    /// A values-only view of this result (columns shared, step dropped).
    /// Used by the cache when a [`Semantics::Values`] request is assembled
    /// from children that happen to be cached at the provenance level, so
    /// the parent step records nothing nobody asked for.
    fn values_only(&self) -> ExecTable {
        table(self.values.clone(), None)
    }

    /// Frees the derived channels (ids and star), which the step record
    /// re-derives on the next use; returns whether either was held.
    fn drop_derived(&self) -> bool {
        let ids = self.set_ids.borrow_mut().take().is_some();
        let star = self.star.borrow_mut().take().is_some();
        ids || star
    }

    /// Approximate bytes this result holds: its values and selection
    /// vectors, plus each derived channel while it is held.
    fn bytes(&self) -> u64 {
        let cells = (self.values.n_rows() as u64).saturating_mul(self.values.n_cols() as u64);
        let sel = match &self.step {
            Some(Step::Rows(_, sel)) => std::mem::size_of_val(sel.as_slice()),
            Some(Step::Join { lsel, rsel, .. }) => {
                std::mem::size_of_val(lsel.as_slice()) + std::mem::size_of_val(rsel.as_slice())
            }
            _ => 0,
        } as u64;
        let ids = if self.has_ids() { SET_ID_BYTES } else { 0 };
        let star = if self.has_star() { EXPR_BYTES } else { 0 };
        cells.saturating_mul(VALUE_BYTES + ids + star) + sel
    }

    /// The grid over this result's shape whose cell `(i, j)` is
    /// `cell(T_k[i, j])`: the channels of input `k`.
    fn input_cells<C>(&self, k: usize, mut cell: impl FnMut(CellRef) -> C) -> Grid<C> {
        let n_rows = self.values.n_rows();
        Grid::from_columns(
            (0..self.values.n_cols())
                .map(|j| Arc::new((0..n_rows).map(|i| cell(CellRef::new(k, i, j))).collect()))
                .collect(),
        )
    }

    fn derive_ids(&self, step: &Step, u: &RefUniverse, pool: &RefSetPool) -> Grid<SetId> {
        let n_rows = self.values.n_rows();
        match step {
            Step::Input(k) => self.input_cells(*k, |r| pool.intern(u.singleton(r))),
            Step::Rows(src, sel) => src.set_ids(u, pool).select_rows(sel),
            Step::Join {
                left,
                right,
                lsel,
                rsel,
            } => left.set_ids(u, pool).select_rows(lsel).hcat(&gather_padded(
                &right.set_ids(u, pool),
                rsel,
                &SetId::EMPTY,
            )),
            Step::Proj(src, cols) => src.set_ids(u, pool).select_columns(cols),
            Step::Group {
                src, parts, target, ..
            } => {
                let ids = src.set_ids(u, pool);
                let per_group = |c: usize| -> SetColumn {
                    let col = ids.column(c);
                    Arc::new(
                        parts
                            .groups
                            .iter()
                            .map(|g| pool.union_rows(col, g))
                            .collect(),
                    )
                };
                let mut cols = parts
                    .ids
                    .get_or_init(|| parts.keys.iter().map(|&k| per_group(k)).collect())
                    .clone();
                cols.push(per_group(*target));
                Grid::from_columns(cols)
            }
            Step::Partition {
                src,
                groups,
                func,
                target,
            } => {
                let ids = src.set_ids(u, pool);
                let col = ids.column(*target);
                let mut out = vec![SetId::EMPTY; n_rows];
                for g in groups.iter() {
                    if *func == AnalyticFunc::CumSum {
                        for (&i, id) in g.iter().zip(pool.prefix_unions(col, g)) {
                            out[i] = id;
                        }
                    } else {
                        // Aggregate and rank terms both reference every
                        // member of the row's group.
                        let all = pool.union_rows(col, g);
                        for &i in g {
                            out[i] = all;
                        }
                    }
                }
                ids.with_column(out)
            }
            Step::Arith { src, func, cols } => {
                let ids = src.set_ids(u, pool);
                let mut used = vec![false; cols.len()];
                mark_params(func, &mut used);
                let args: Vec<&[SetId]> = cols
                    .iter()
                    .zip(&used)
                    .filter(|(_, &used)| used)
                    .map(|(&c, _)| ids.column(c))
                    .collect();
                let mut buf = Vec::with_capacity(args.len());
                let out = (0..n_rows)
                    .map(|r| {
                        buf.clear();
                        buf.extend(args.iter().map(|col| col[r]));
                        pool.union_slice(&buf)
                    })
                    .collect();
                ids.with_column(out)
            }
        }
    }

    fn derive_star(&self, step: &Step) -> ProvTable {
        let n_rows = self.values.n_rows();
        match step {
            Step::Input(k) => self.input_cells(*k, Expr::Ref),
            Step::Rows(src, sel) => src.star().select_rows(sel),
            Step::Join {
                left,
                right,
                lsel,
                rsel,
            } => left.star().select_rows(lsel).hcat(&gather_padded(
                &right.star(),
                rsel,
                &Expr::Const(Value::Null),
            )),
            Step::Proj(src, cols) => src.star().select_columns(cols),
            Step::Group {
                src,
                parts,
                agg,
                target,
            } => {
                let sg = src.star();
                let mut cols = parts
                    .stars
                    .get_or_init(|| {
                        parts
                            .keys
                            .iter()
                            .map(|&k| Arc::new(group_key_column(sg.column(k), &parts.groups)))
                            .collect()
                    })
                    .clone();
                cols.push(Arc::new(aggregate_column(
                    *agg,
                    sg.column(*target),
                    &parts.groups,
                )));
                Grid::from_columns(cols)
            }
            Step::Partition {
                src,
                groups,
                func,
                target,
            } => {
                let sg = src.star();
                sg.with_column(window_column(*func, sg.column(*target), groups))
            }
            Step::Arith { src, func, cols } => {
                let sg = src.star();
                let arg_cols: Vec<&[Expr]> = cols.iter().map(|&c| sg.column(c)).collect();
                let mut args = Vec::with_capacity(cols.len());
                sg.with_column(
                    (0..n_rows)
                        .map(|r| {
                            args.clear();
                            args.extend(arg_cols.iter().map(|col| col[r].clone()));
                            expand_arith(func, &args)
                        })
                        .collect(),
                )
            }
        }
    }
}

/// Marks the parameters `func` reads: an arithmetic cell references
/// exactly the cells of those argument columns.
fn mark_params(func: &ArithExpr, used: &mut [bool]) {
    match func {
        ArithExpr::Param(i) => {
            if let Some(u) = used.get_mut(*i) {
                *u = true;
            }
        }
        ArithExpr::Lit(_) => {}
        ArithExpr::Bin(_, l, r) => {
            mark_params(l, used);
            mark_params(r, used);
        }
    }
}

/// Gathers the rows `sel` of every column of `g`, with `pad` where a row
/// is `None`.
fn gather_padded<C: Clone>(g: &Grid<C>, sel: &[Option<usize>], pad: &C) -> Grid<C> {
    Grid::from_columns(
        (0..g.n_cols())
            .map(|c| {
                let col = g.column(c);
                Arc::new(
                    sel.iter()
                        .map(|s| match s {
                            Some(r) => col[*r].clone(),
                            None => pad.clone(),
                        })
                        .collect(),
                )
            })
            .collect(),
    )
}

/// Evaluates a whole query tree through the shared pipeline at semantics
/// level `sem` (recursively, with `filter ∘ join` fusion). Nothing is
/// memoized; the search goes through [`EvalCache::exec`] instead.
///
/// # Errors
///
/// Returns [`EvalError`] when the query references missing inputs or
/// out-of-range columns.
pub fn exec(sem: Semantics, q: &Query, inputs: &[Table]) -> Result<ExecTable, EvalError> {
    if let Some((left, right, pred)) = fused_filter_join(q) {
        let l = Rc::new(exec(sem, left, inputs)?);
        let r = Rc::new(exec(sem, right, inputs)?);
        return exec_filtered_join_with(&l, &r, pred, JoinStrategy::Auto, &mut Vec::new());
    }
    let children = q
        .children()
        .into_iter()
        .map(|c| exec(sem, c, inputs).map(Rc::new))
        .collect::<Result<Vec<_>, _>>()?;
    exec_step(sem, q, &children, inputs)
}

// ---------------------------------------------------------------------------
// The shared operator pipeline
// ---------------------------------------------------------------------------

/// Recognizes `filter(join(l, r), p)`, the shape fused into a single
/// selection-vector pass.
fn fused_filter_join(q: &Query) -> Option<(&Query, &Query, &Pred)> {
    if let Query::Filter { src, pred } = q {
        if let Query::Join { left, right } = src.as_ref() {
            return Some((left, right, pred));
        }
    }
    None
}

/// Applies the rule of `q`'s *top* operator, given the already-evaluated
/// results of its children (empty for `Input`): one step of the shared
/// pipeline. The result records its step (and so pins `children`) when
/// `sem` is [`Semantics::Provenance`].
///
/// # Errors
///
/// Returns [`EvalError`] for out-of-range table/column references.
///
/// # Panics
///
/// Panics if `children` does not match the operator's arity.
pub fn exec_step(
    sem: Semantics,
    q: &Query,
    children: &[Rc<ExecTable>],
    inputs: &[Table],
) -> Result<ExecTable, EvalError> {
    match q {
        Query::Input(k) => exec_input(sem, *k, inputs),
        Query::Filter { pred, .. } => exec_filter(&children[0], pred),
        Query::Join { .. } => Ok(exec_join(&children[0], &children[1])),
        Query::LeftJoin { pred, .. } => exec_left_join(&children[0], &children[1], pred),
        Query::Proj { cols, .. } => exec_proj(&children[0], cols),
        Query::Sort { cols, asc, .. } => exec_sort(&children[0], cols, *asc),
        Query::Group {
            keys, agg, target, ..
        } => {
            let src = &children[0];
            check_grouping(src, keys, *target, "group")?;
            let groups = Rc::new(group_rows_by_keys(src.values.grid(), keys));
            let parts = Rc::new(GroupParts::new(src, groups, keys));
            Ok(group_over(sem, src, &parts, *agg, *target))
        }
        Query::Partition {
            keys, func, target, ..
        } => {
            let src = &children[0];
            check_grouping(src, keys, *target, "partition")?;
            let groups = Rc::new(group_rows_by_keys(src.values.grid(), keys));
            Ok(partition_over(sem, src, groups, keys, *func, *target))
        }
        Query::Arith { func, cols, .. } => exec_arith(&children[0], func, cols),
    }
}

fn table(values: Table, step: Option<Step>) -> ExecTable {
    ExecTable {
        values,
        step,
        set_ids: RefCell::new(None),
        star: RefCell::new(None),
    }
}

/// Whether `src` records its step, so a parent built over it can too.
fn provenance(src: &ExecTable) -> bool {
    src.step.is_some()
}

fn exec_input(sem: Semantics, k: usize, inputs: &[Table]) -> Result<ExecTable, EvalError> {
    let t = inputs.get(k).ok_or(EvalError::NoSuchInput {
        index: k,
        available: inputs.len(),
    })?;
    // Columns are shared, not copied.
    let step = (sem == Semantics::Provenance).then_some(Step::Input(k));
    Ok(table(t.clone(), step))
}

/// Row accessor for predicate evaluation over (possibly virtually
/// concatenated) columnar data.
enum RowAccess<'a> {
    One(&'a Grid<Value>, usize),
    Concat {
        left: &'a Grid<Value>,
        right: &'a Grid<Value>,
        lrow: usize,
        rrow: usize,
    },
}

impl RowAccess<'_> {
    fn get(&self, col: usize) -> &Value {
        match self {
            RowAccess::One(g, r) => &g[(*r, col)],
            RowAccess::Concat {
                left,
                right,
                lrow,
                rrow,
            } => {
                if col < left.n_cols() {
                    &left[(*lrow, col)]
                } else {
                    &right[(*rrow, col - left.n_cols())]
                }
            }
        }
    }
}

fn pred_holds(pred: &Pred, row: &RowAccess<'_>) -> bool {
    pred.eval_with(&|c| row.get(c))
}

/// The rows `sel` of `src`, in that order (`filter`, `sort`).
fn select_rows(src: &Rc<ExecTable>, sel: Vec<usize>) -> ExecTable {
    let values = Table::from_named_grid(
        src.values.names().to_vec(),
        src.values.grid().select_rows(&sel),
    );
    let step = provenance(src).then(|| Step::Rows(Rc::clone(src), sel));
    table(values, step)
}

fn exec_filter(src: &Rc<ExecTable>, pred: &Pred) -> Result<ExecTable, EvalError> {
    check_pred(pred, src.values.n_cols(), "filter")?;
    let grid = src.values.grid();
    let keep = (0..grid.n_rows())
        .filter(|&r| pred_holds(pred, &RowAccess::One(grid, r)))
        .collect();
    Ok(select_rows(src, keep))
}

fn joined_names(l: &ExecTable, r: &ExecTable) -> Vec<String> {
    let mut names = l.values.names().to_vec();
    names.extend(r.values.names().iter().cloned());
    names
}

/// Gathers the two sides of a join through a selection-vector pair
/// (`None` on the right is null padding) and concatenates them
/// column-wise.
fn gather_join(
    l: &Rc<ExecTable>,
    r: &Rc<ExecTable>,
    lsel: Vec<usize>,
    rsel: Vec<Option<usize>>,
) -> ExecTable {
    let values = Table::from_named_grid(
        joined_names(l, r),
        l.values.grid().select_rows(&lsel).hcat(&gather_padded(
            r.values.grid(),
            &rsel,
            &Value::Null,
        )),
    );
    let step = (provenance(l) && provenance(r)).then(|| Step::Join {
        left: Rc::clone(l),
        right: Rc::clone(r),
        lsel,
        rsel,
    });
    table(values, step)
}

fn exec_join(l: &Rc<ExecTable>, r: &Rc<ExecTable>) -> ExecTable {
    let (lsel, rsel) = cross_selection(l.values.n_rows(), r.values.n_rows());
    gather_join(l, r, lsel, rsel.into_iter().map(Some).collect())
}

/// Join execution strategy of the fused `filter ∘ join` path — the A/B
/// seam of the `scale` bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinStrategy {
    /// Extract equi-join keys from the predicate and hash-join on them,
    /// falling back to the nested cross loop only when no conjunct is a
    /// cross-side equality (the production default).
    #[default]
    Auto,
    /// Force the legacy O(|L|·|R|) nested loop (the pre-hash-join engine,
    /// kept as the A/B baseline).
    CrossLoop,
}

/// Splits a join predicate into hash-joinable equi keys and residual
/// conjuncts. A conjunct is an equi key iff it is `cₐ == c_b` with exactly
/// one side referring to the left operand; since [`Value`] equality is
/// exactly interner-key equality (cross-type numerics, `null == null`), a
/// hash probe on interned keys decides those conjuncts. Everything else —
/// constant comparisons, non-equality operators, same-side equalities —
/// stays residual and is evaluated on hash matches only.
fn split_equi_pred(pred: &Pred, left_cols: usize) -> (Vec<(usize, usize)>, Vec<&Pred>) {
    fn walk<'p>(
        p: &'p Pred,
        left_cols: usize,
        keys: &mut Vec<(usize, usize)>,
        residual: &mut Vec<&'p Pred>,
    ) {
        match p {
            Pred::True => {}
            Pred::And(l, r) => {
                walk(l, left_cols, keys, residual);
                walk(r, left_cols, keys, residual);
            }
            Pred::ColCmp(a, CmpOp::Eq, b) if (*a < left_cols) != (*b < left_cols) => {
                let (lc, rc) = if *a < left_cols { (*a, *b) } else { (*b, *a) };
                keys.push((lc, rc - left_cols));
            }
            other => residual.push(other),
        }
    }
    let mut keys = Vec::new();
    let mut residual = Vec::new();
    walk(pred, left_cols, &mut keys, &mut residual);
    (keys, residual)
}

/// Hash join on extracted equi keys: builds a hash table over the interned
/// key values of the *right* (build) side, probes with the left rows in
/// order, and evaluates residual conjuncts on hash matches
/// only. Match lists hold right rows in ascending order and the probe walks
/// left rows in order, so the emitted (lrow, rrow) pairs are exactly the
/// legacy nested loop's lrow-major sequence — the gathered output is
/// byte-identical (values and derived channels) to the cross-product path.
/// `probe` is a reusable key buffer of the multi-key path.
fn exec_hash_join(
    l: &Rc<ExecTable>,
    r: &Rc<ExecTable>,
    keys: &[(usize, usize)],
    residual: &[&Pred],
    probe: &mut Vec<ValueKey>,
) -> ExecTable {
    let (lg, rg) = (l.values.grid(), r.values.grid());
    let (mut lsel, mut rsel) = (Vec::new(), Vec::new());
    let mut interner = ValueInterner::new();
    let residual_holds = |lrow: usize, rrow: usize| {
        residual.is_empty() || {
            let row = RowAccess::Concat {
                left: lg,
                right: rg,
                lrow,
                rrow,
            };
            residual.iter().all(|p| pred_holds(p, &row))
        }
    };
    let mut emit = |lrow: usize, rows: &[usize]| {
        for &rrow in rows {
            if residual_holds(lrow, rrow) {
                lsel.push(lrow);
                rsel.push(Some(rrow));
            }
        }
    };
    if let [(lc, rc)] = keys {
        // Single-key fast path: the interned key itself is the hash key.
        let mut build: FxMap<ValueKey, Vec<usize>> = FxMap::default();
        for (rrow, v) in rg.column(*rc).iter().enumerate() {
            build.entry(interner.key(v)).or_default().push(rrow);
        }
        for (lrow, v) in lg.column(*lc).iter().enumerate() {
            if let Some(rows) = build.get(&interner.key(v)) {
                emit(lrow, rows);
            }
        }
    } else {
        let rcols: Vec<&[Value]> = keys.iter().map(|&(_, rc)| rg.column(rc)).collect();
        let mut build: FxMap<Box<[ValueKey]>, Vec<usize>> = FxMap::default();
        for rrow in 0..rg.n_rows() {
            probe.clear();
            probe.extend(rcols.iter().map(|col| interner.key(&col[rrow])));
            match build.get_mut(probe.as_slice()) {
                Some(rows) => rows.push(rrow),
                None => {
                    build.insert(probe.as_slice().into(), vec![rrow]);
                }
            }
        }
        let lcols: Vec<&[Value]> = keys.iter().map(|&(lc, _)| lg.column(lc)).collect();
        for lrow in 0..lg.n_rows() {
            probe.clear();
            probe.extend(lcols.iter().map(|col| interner.key(&col[lrow])));
            if let Some(rows) = build.get(probe.as_slice()) {
                emit(lrow, rows);
            }
        }
    }
    gather_join(l, r, lsel, rsel)
}

/// The legacy `filter(join(l, r), p)` pair loop: every (lrow, rrow) pair is
/// tested against the full predicate. O(|L|·|R|) — kept as the fallback for
/// genuinely non-equi predicates and as the A/B baseline of the scale
/// bench.
fn exec_cross_loop(l: &Rc<ExecTable>, r: &Rc<ExecTable>, pred: &Pred) -> ExecTable {
    let (lg, rg) = (l.values.grid(), r.values.grid());
    let (mut lsel, mut rsel) = (Vec::new(), Vec::new());
    for lrow in 0..lg.n_rows() {
        for rrow in 0..rg.n_rows() {
            let row = RowAccess::Concat {
                left: lg,
                right: rg,
                lrow,
                rrow,
            };
            if pred_holds(pred, &row) {
                lsel.push(lrow);
                rsel.push(Some(rrow));
            }
        }
    }
    gather_join(l, r, lsel, rsel)
}

/// `filter(join(l, r), p)` without materializing the cross product.
/// Routes through [`exec_hash_join`] when the predicate has at least one
/// cross-side equality conjunct (and the strategy allows it); otherwise
/// the nested pair loop.
fn exec_filtered_join_with(
    l: &Rc<ExecTable>,
    r: &Rc<ExecTable>,
    pred: &Pred,
    strategy: JoinStrategy,
    probe: &mut Vec<ValueKey>,
) -> Result<ExecTable, EvalError> {
    check_pred(pred, l.values.n_cols() + r.values.n_cols(), "filter")?;
    if strategy == JoinStrategy::CrossLoop {
        return Ok(exec_cross_loop(l, r, pred));
    }
    let (keys, residual) = split_equi_pred(pred, l.values.n_cols());
    if keys.is_empty() {
        Ok(exec_cross_loop(l, r, pred))
    } else {
        Ok(exec_hash_join(l, r, &keys, &residual, probe))
    }
}

/// Executes `filter(join(l, r), p)` under an explicit [`JoinStrategy`] —
/// the public A/B seam used by the `scale` bench and the join property
/// tests to compare the hash path against the legacy cross loop on
/// identical operands.
///
/// # Errors
///
/// Returns [`EvalError`] when the predicate references a column outside
/// the concatenated arity.
pub fn exec_filtered_join_strategy(
    l: &ExecTable,
    r: &ExecTable,
    pred: &Pred,
    strategy: JoinStrategy,
) -> Result<ExecTable, EvalError> {
    let (l, r) = (Rc::new(l.clone()), Rc::new(r.clone()));
    exec_filtered_join_with(&l, &r, pred, strategy, &mut Vec::new())
}

fn exec_left_join(
    l: &Rc<ExecTable>,
    r: &Rc<ExecTable>,
    pred: &Pred,
) -> Result<ExecTable, EvalError> {
    check_pred(pred, l.values.n_cols() + r.values.n_cols(), "left_join")?;
    let (lg, rg) = (l.values.grid(), r.values.grid());
    // Selection pair with `None` marking null padding on the right.
    let mut lsel: Vec<usize> = Vec::new();
    let mut rsel: Vec<Option<usize>> = Vec::new();
    for lrow in 0..lg.n_rows() {
        let mut matched = false;
        for rrow in 0..rg.n_rows() {
            let row = RowAccess::Concat {
                left: lg,
                right: rg,
                lrow,
                rrow,
            };
            if pred_holds(pred, &row) {
                lsel.push(lrow);
                rsel.push(Some(rrow));
                matched = true;
            }
        }
        if !matched {
            lsel.push(lrow);
            rsel.push(None);
        }
    }
    Ok(gather_join(l, r, lsel, rsel))
}

fn exec_proj(src: &Rc<ExecTable>, cols: &[usize]) -> Result<ExecTable, EvalError> {
    check_cols(cols, src.values.n_cols(), "proj")?;
    Ok(table(
        src.values.project(cols),
        provenance(src).then(|| Step::Proj(Rc::clone(src), cols.to_vec())),
    ))
}

fn exec_sort(src: &Rc<ExecTable>, cols: &[usize], asc: bool) -> Result<ExecTable, EvalError> {
    check_cols(cols, src.values.n_cols(), "sort")?;
    let key_cols: Vec<&[Value]> = cols.iter().map(|&c| src.values.column(c)).collect();
    let mut order: Vec<usize> = (0..src.values.n_rows()).collect();
    // Stable sort keeps input order among equal keys, matching the
    // order-sensitivity contract of `cumsum`/`rank` downstream.
    order.sort_by(|&a, &b| {
        let cmp = key_cols
            .iter()
            .map(|col| col[a].cmp(&col[b]))
            .find(|c| !c.is_eq())
            .unwrap_or(std::cmp::Ordering::Equal);
        if asc {
            cmp
        } else {
            cmp.reverse()
        }
    });
    Ok(select_rows(src, order))
}

/// Checks the key and target columns of a `group` or `partition`.
fn check_grouping(
    src: &ExecTable,
    keys: &[usize],
    target: usize,
    operator: &'static str,
) -> Result<(), EvalError> {
    check_cols(keys, src.values.n_cols(), operator)?;
    check_cols(&[target], src.values.n_cols(), operator)
}

/// The `group` step over its [`GroupParts`] (whose columns the caller
/// has checked): the key columns are shared into the output as-is and
/// only the aggregate column is built here.
fn group_over(
    sem: Semantics,
    src: &Rc<ExecTable>,
    parts: &Rc<GroupParts>,
    agg: AggFunc,
    target: usize,
) -> ExecTable {
    let names = src.values.names();
    let mut out_names: Vec<String> = parts.keys.iter().map(|&k| names[k].clone()).collect();
    out_names.push(format!("{agg}({})", names[target]));
    let target_col = src.values.column(target);
    let mut cols = parts.values.clone();
    cols.push(Arc::new(
        parts
            .groups
            .iter()
            .map(|g| agg.apply_indexed(target_col, g))
            .collect(),
    ));
    let step = (sem == Semantics::Provenance && provenance(src)).then(|| Step::Group {
        src: Rc::clone(src),
        parts: Rc::clone(parts),
        agg,
        target,
    });
    table(
        Table::from_named_grid(out_names, Grid::from_columns(cols)),
        step,
    )
}

/// The `partition` step over an already-computed row partition `groups`
/// of `src` (whose columns the caller has checked): existing columns
/// shared, one window column appended.
fn partition_over(
    sem: Semantics,
    src: &Rc<ExecTable>,
    groups: Groups,
    keys: &[usize],
    func: AnalyticFunc,
    target: usize,
) -> ExecTable {
    let mut names = src.values.names().to_vec();
    names.push(format!(
        "{func}({}) over {keys:?}",
        src.values.names()[target]
    ));
    let target_col = src.values.column(target);
    let mut new_col: Vec<Value> = vec![Value::Null; src.values.n_rows()];
    for g in groups.iter() {
        for (&i, v) in g.iter().zip(func.apply_indexed(target_col, g)) {
            new_col[i] = v;
        }
    }
    let values = Table::from_named_grid(names, src.values.grid().with_column(new_col));
    let step = (sem == Semantics::Provenance && provenance(src)).then(|| Step::Partition {
        src: Rc::clone(src),
        groups,
        func,
        target,
    });
    table(values, step)
}

fn exec_arith(
    src: &Rc<ExecTable>,
    func: &ArithExpr,
    cols: &[usize],
) -> Result<ExecTable, EvalError> {
    check_cols(cols, src.values.n_cols(), "arithmetic")?;
    let mut names = src.values.names().to_vec();
    names.push(format!("{func}{cols:?}"));
    let arg_cols: Vec<&[Value]> = cols.iter().map(|&c| src.values.column(c)).collect();
    let mut args = vec![Value::Null; cols.len()];
    let new_col = (0..src.values.n_rows())
        .map(|r| {
            for (a, col) in args.iter_mut().zip(&arg_cols) {
                *a = col[r].clone();
            }
            func.eval(&args)
        })
        .collect();
    let values = Table::from_named_grid(names, src.values.grid().with_column(new_col));
    let step = provenance(src).then(|| Step::Arith {
        src: Rc::clone(src),
        func: func.clone(),
        cols: cols.to_vec(),
    });
    Ok(table(values, step))
}

pub(crate) fn check_cols(
    cols: &[usize],
    arity: usize,
    operator: &'static str,
) -> Result<(), EvalError> {
    match cols.iter().find(|&&c| c >= arity) {
        Some(&col) => Err(EvalError::ColumnOutOfRange {
            col,
            arity,
            operator,
        }),
        None => Ok(()),
    }
}

fn check_pred(pred: &Pred, arity: usize, operator: &'static str) -> Result<(), EvalError> {
    match pred.max_col() {
        Some(c) if c >= arity => Err(EvalError::ColumnOutOfRange {
            col: c,
            arity,
            operator,
        }),
        _ => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// The unified evaluation cache
// ---------------------------------------------------------------------------

/// Memoizes engine evaluations of concrete (sub)queries, keyed by
/// `(query, semantics)`, plus abstract tables of partial queries.
///
/// During search, thousands of sibling partial queries share the same
/// concrete subquery (e.g. the instantiated inner `group`); caching its
/// engine evaluation makes the per-node analysis cost proportional to the
/// *abstract* part of the query only. One cache is threaded through the
/// whole search by [`crate::TaskContext`]. Only what siblings share is
/// stored: the root of each visit (a candidate under acceptance, or a
/// partial query under analysis) is computed outside both stores
/// ([`EvalCache::exec_root`], [`crate::abstract_evaluate_rc`]), since no
/// visit is repeated and no root would ever be read back.
#[derive(Debug, Default)]
pub struct EvalCache {
    /// Per-query slot indexed by semantics level
    /// (`[Values, Provenance]`) — keying by `Query` alone lets cache hits
    /// probe with `map.get(q)` instead of cloning the whole AST into a
    /// tuple key on the search's innermost loop. Entries carry a
    /// second-chance bit and a probe count; see [`EvalCache::sweep_exec`].
    map: RefCell<FxMap<Query, ExecSlot>>,
    abs_map: RefCell<FxMap<crate::ast::PQuery, Warm<Rc<crate::abstract_eval::AbsTable>>>>,
    /// The hash-consing pool resolving every [`SetId`] produced through
    /// this cache. Shared (`Arc`) so concurrent requests on one session
    /// intern into one pool and see identical ids for identical sets.
    pool: Arc<RefSetPool>,
    /// Column-union memo keyed by column identity (the `Arc` address;
    /// the entry pins the column). Sibling partial queries union the
    /// same shared child columns over and over — the memo reduces each
    /// repeat to one map probe, with no locking (the engine cache is
    /// thread-local).
    col_unions: Memo<usize, SetId, MEMO_CAP, SetColumn>,
    /// Grouping-skeleton memo keyed by `[child result identity, key
    /// columns…]` (one slice, so a probe borrows the reusable
    /// [`EvalCache::parts_probe`] buffer): the [`GroupParts`] of a
    /// `group` operator depend on the child and keys only, so every
    /// sibling aggregation choice shares one, and with it the key
    /// columns' values, ids and star terms. The partition itself would
    /// cost only a [`EvalCache::key_groups`] probe; this memo stays for
    /// the shared key values, ids and stars.
    group_parts: Memo<Box<[usize]>, Rc<GroupParts>, COLUMN_MEMO_CAP, Rc<ExecTable>>,
    /// Probe buffer of [`EvalCache::group_parts`], reused so a hit does
    /// not allocate.
    parts_probe: RefCell<Vec<usize>>,
    /// Row-partition memo keyed by `[row count, key value column
    /// identities…]` (the entry pins the columns): a partition depends
    /// on the key columns' contents alone, and sibling results share
    /// their unchanged columns by `Arc`, so a partition is computed once
    /// per distinct set of key columns rather than once per result.
    key_groups: Memo<Box<[usize]>, Groups, MEMO_CAP, KeyColumns>,
    /// Probe buffer of [`EvalCache::key_groups`], reused so a hit does
    /// not allocate.
    groups_probe: RefCell<Vec<usize>>,
    /// Canonicalization of row partitions by content, across results:
    /// different key subsets frequently induce the *same* partition (a
    /// key column constant within groups adds nothing), and handing back
    /// one shared `Rc` per distinct partition lets the per-group union
    /// memo hit across them. Keyed by content, so it pins nothing.
    groups_canon: Memo<Groups, Groups, MEMO_CAP>,
    /// Per-group column unions keyed by (column identity, groups
    /// identity), the inner loop of the strong rules. Pins both.
    group_unions: Memo<(usize, usize), SetColumn, MEMO_CAP, (SetColumn, Groups)>,
    /// Key buffer of the multi-key hash join, reused across every
    /// candidate evaluated through this cache.
    probe: RefCell<Vec<ValueKey>>,
    /// Eviction policy of the concrete store (cap, hysteresis target).
    policy: CachePolicy,
    /// The search-counter rows this cache feeds (`cache_evictions`,
    /// `cache_demotions`, `cache_reevals`, `cache_reeval_s`,
    /// `time_join_s`, `join_rows`), added to as they happen and drained
    /// by [`EvalCache::take_counters`].
    counters: RefCell<SearchStats>,
    /// Approximate bytes resident in the concrete store: the sum of the
    /// slots' [`ExecSlot::bytes`], kept as inserts, sweeps and
    /// [`EvalCache::remeasure`] move them.
    resident: Cell<u64>,
    /// Hashes of fully evicted queries, consumed on re-insert to count
    /// churn-induced re-evaluations. Cleared when full, which
    /// undercounts, and keyed by a 64-bit fingerprint (a collision can
    /// overcount a never-evicted query) — a diagnostic counter,
    /// deliberately cheap rather than exact.
    evicted: Memo<u64, (), EVICTED_TRACK_CAP>,
    /// Hasher for the evicted-query fingerprints.
    hasher: FxBuild,
}

/// A shared row partition (`group_rows_by_keys` output).
type Groups = Rc<Vec<Vec<usize>>>;

/// The key value columns a [`EvalCache::key_groups`] entry pins.
type KeyColumns = Box<[Arc<Vec<Value>>]>;

/// A shared column of interned reference-set ids.
type SetColumn = Arc<Vec<SetId>>;

/// One exec-cache slot: per-semantics-level results plus the
/// second-chance bit and the probe count consumed by the sweep.
#[derive(Debug, Default)]
struct ExecSlot {
    value: [Option<Rc<ExecTable>>; 2],
    /// Second-chance bit: set on every hit and on insertion, consumed by
    /// [`EvalCache::sweep_exec`].
    hot: Cell<bool>,
    /// Cache-hit count since the last sweep (halved by each sweep): the
    /// reuse-frequency signal of the benefit-aware demotion trigger. An
    /// entry that was inserted but never re-probed since (a subquery
    /// whose siblings are done, now that roots are not stored) holds
    /// derived channels nobody consumed — the sweep frees them
    /// regardless of the hot bit.
    probes: Cell<u32>,
    /// Bytes charged against this slot when it was last measured
    /// ([`ExecSlot::measure`]): a fixed per-entry overhead plus what its
    /// results hold — values and selection vectors, 4-byte ids and star
    /// cells once derived. Derived channels built after a measurement
    /// are charged at the next sweep or [`EvalCache::remeasure`].
    bytes: Cell<u64>,
}

impl ExecSlot {
    /// The bytes the slot holds now.
    fn measure(&self) -> u64 {
        self.value
            .iter()
            .flatten()
            .fold(ENTRY_MEM_BYTES, |sum, t| sum.saturating_add(t.bytes()))
    }
}

/// Bound on the concrete exec-table cache.
const EXEC_CACHE_CAP: usize = 4_000;

/// Bound on the partial-query abstract-table cache. The search visits the
/// children of a node consecutively (depth-first), so even a modest bound
/// keeps the hit rate high while capping memory.
const ABS_CACHE_CAP: usize = 8_000;

/// Approximate fixed bytes per cache entry (query key, slot, hash
/// bucket, table headers).
const ENTRY_MEM_BYTES: u64 = 256;

/// Bound on the evicted-query fingerprint set behind the re-evaluation
/// counter.
const EVICTED_TRACK_CAP: usize = 65_536;

/// Eviction policy of the concrete [`EvalCache`] store.
///
/// A sweep evicts cold entries, then (if that is not enough) hot ones,
/// in map iteration order, down to [`CachePolicy::low_water`]
/// (hysteresis: the O(n) sweep then cannot run again for at least
/// `cap - low_water` inserts). The victims depend only on the insert and
/// probe sequence, so every counter the cache feeds is exact. Survivors
/// that are cold or were never re-probed are *demoted*: their derived
/// channels (ids and star) are freed while the values and the step
/// record stay, so a later re-probe pays only the lazy re-derivation,
/// never a full join re-execution. Raising `low_water` above `cap / 2`
/// keeps more entries per sweep, trading peak RSS for fewer
/// re-evaluations.
///
/// Marked `#[non_exhaustive]`: construct via [`CachePolicy::default`]
/// plus the `with_*` builders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct CachePolicy {
    /// High-water mark: inserting at this many entries triggers a sweep.
    pub cap: usize,
    /// Hysteresis target: a sweep evicts down to this many entries
    /// (clamped at sweep time so every sweep frees at least ~`cap / 8`
    /// — the amortization guarantee cannot be configured away).
    pub low_water: usize,
}

impl Default for CachePolicy {
    fn default() -> CachePolicy {
        CachePolicy {
            cap: EXEC_CACHE_CAP,
            // The store holds subqueries only, and no suite search fills
            // this cap (0 evictions on all 80 tasks at 20k visits), so
            // the low-water mark matters at reduced caps: the server's
            // soft watermark raises it to 3/4 of a quartered cap.
            low_water: EXEC_CACHE_CAP / 2,
        }
    }
}

impl CachePolicy {
    /// Sets the entry cap (clamped to ≥ 1) and rescales the low-water
    /// mark to half of it (use [`CachePolicy::with_low_water`] after
    /// this to keep more entries per sweep).
    #[must_use]
    pub fn with_cap(mut self, cap: usize) -> CachePolicy {
        self.cap = cap.max(1);
        self.low_water = self.cap / 2;
        self
    }

    /// Sets the hysteresis target (clamped below the cap at sweep time).
    #[must_use]
    pub fn with_low_water(mut self, low_water: usize) -> CachePolicy {
        self.low_water = low_water;
        self
    }
}

/// A cache entry with a second-chance bit: set on every hit (and on
/// insertion), consumed by [`second_chance_sweep`].
#[derive(Debug, Default)]
struct Warm<V> {
    value: V,
    hot: Cell<bool>,
}

/// Generation-style eviction for the abstract-table store (the concrete
/// store uses the richer [`EvalCache::sweep_exec`]): one sweep starts a
/// new generation by dropping every entry that was not touched since the
/// previous sweep (its second chance), keeping the hot working set warm
/// across generations. At most `cap / 2` hot entries survive, so a sweep
/// always frees at least half the map: the O(n) retain amortizes to O(1)
/// per insert instead of degrading to a retain per insert when the whole
/// map is hot.
fn second_chance_sweep<K, V>(map: &mut FxMap<K, Warm<V>>, cap: usize) {
    let mut quota = cap / 2;
    map.retain(|_, entry| {
        entry.hot.replace(false)
            && if quota > 0 {
                quota -= 1;
                true
            } else {
                false
            }
    });
}

/// Bound on the analysis memos (column unions, partitions by key
/// columns, partition canonicalization, per-group unions).
const MEMO_CAP: usize = 16_384;

/// Bound on the grouping-skeleton memo. Much lower than [`MEMO_CAP`]:
/// each entry pins a child result and a column's worth of key values,
/// keeping them alive past engine-cache eviction.
const COLUMN_MEMO_CAP: usize = 4_096;

impl EvalCache {
    /// Creates an empty cache with a private [`RefSetPool`].
    pub fn new() -> EvalCache {
        EvalCache::default()
    }

    /// Creates an empty cache with a private pool and the given eviction
    /// policy.
    pub fn with_policy(policy: CachePolicy) -> EvalCache {
        EvalCache {
            policy,
            ..EvalCache::default()
        }
    }

    /// Creates an empty cache with a shared pool and the given eviction
    /// policy.
    pub fn with_pool_and_policy(pool: Arc<RefSetPool>, policy: CachePolicy) -> EvalCache {
        EvalCache {
            pool,
            policy,
            ..EvalCache::default()
        }
    }

    /// The pool resolving ids produced through this cache.
    pub fn pool(&self) -> &Arc<RefSetPool> {
        &self.pool
    }

    /// The eviction policy of the concrete store.
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    /// Drains the [`SearchStats`] rows this cache added to since the last
    /// call: `cache_evictions`, `cache_demotions`, `cache_reevals`,
    /// `cache_reeval_s`, `time_join_s` and `join_rows`. Every other row
    /// reads 0.
    pub fn take_counters(&self) -> SearchStats {
        self.counters.take()
    }

    /// Approximate bytes this cache holds: the concrete store as last
    /// measured (see [`EvalCache::resident`]) plus its side memos.
    pub(crate) fn resident_bytes(&self) -> u64 {
        self.resident.get()
            + self.col_unions.bytes()
            + self.group_parts.bytes()
            + self.key_groups.bytes()
            + self.groups_canon.bytes()
            + self.group_unions.bytes()
            + self.evicted.bytes()
    }

    /// Measures every slot again, charging the derived channels built
    /// since its last measurement (a search calls this when it ends).
    pub(crate) fn remeasure(&self) {
        Self::remeasure_map(&self.map.borrow(), &self.resident);
    }

    fn remeasure_map(map: &FxMap<Query, ExecSlot>, resident: &Cell<u64>) {
        for slot in map.values() {
            let now = slot.measure();
            resident.set(resident.get().saturating_sub(slot.bytes.get()) + now);
            slot.bytes.set(now);
        }
    }

    /// The hysteresis-bounded sweep of the concrete store.
    ///
    /// Measures every slot, then evicts cold entries and — if the map is
    /// still above the low-water mark — hot ones, each in map iteration
    /// order, until the map is down to the low-water mark. The victims
    /// are a function of the insert and probe sequence alone. Survivors
    /// that are cold or were never re-probed are *demoted* instead of
    /// dropped. Hot flags are consumed, exactly as in the abstract
    /// store's second-chance sweep.
    fn sweep_exec(&self, map: &mut FxMap<Query, ExecSlot>) {
        Self::remeasure_map(map, &self.resident);
        let mut counters = self.counters.borrow_mut();
        // The target is clamped so a sweep always frees at least ~cap/8
        // entries: a low-water at (or above) cap-1 would otherwise free
        // one entry per sweep and degrade to a sweep per insert — the
        // hysteresis guarantee holds for every caller, not just the wire
        // front-end's validated requests.
        let max_target = self.policy.cap.saturating_sub((self.policy.cap / 8).max(1));
        let target = self.policy.low_water.min(max_target);
        let excess = map.len().saturating_sub(target);
        if excess > 0 {
            let cold = map.values().filter(|slot| !slot.hot.get()).count();
            let mut cold_quota = excess.min(cold);
            let mut hot_quota = excess - cold_quota;
            map.retain(|q, slot| {
                let quota = if slot.hot.get() {
                    &mut hot_quota
                } else {
                    &mut cold_quota
                };
                let evict = *quota > 0;
                if evict {
                    *quota -= 1;
                    counters.cache_evictions += 1;
                    self.resident
                        .set(self.resident.get().saturating_sub(slot.bytes.get()));
                    self.evicted.insert(self.hasher.hash_one(q), ());
                }
                !evict
            });
        }
        // Demote low-benefit survivors, then consume every survivor's
        // second chance. The trigger is benefit-aware: a survivor is
        // demoted when it is cold *or* was never re-probed since the last
        // sweep (`probes == 0`) — an entry inserted hot but never hit
        // again has paid for derived channels nobody consumed, so
        // freeing them is free upside at *any* low-water mark, not just
        // one above cap/2. Probe counts decay geometrically (halved per
        // sweep) so sustained reuse is required to stay materialized.
        for slot in map.values_mut() {
            let probes = slot.probes.get();
            if (!slot.hot.get() || probes == 0) && Self::demote_slot(slot) {
                counters.cache_demotions += 1;
                let now = slot.measure();
                self.resident.set(
                    self.resident
                        .get()
                        .saturating_sub(slot.bytes.get().saturating_sub(now)),
                );
                slot.bytes.set(now);
            }
            slot.hot.set(false);
            slot.probes.set(probes / 2);
        }
    }

    /// Frees a slot's derived channels — the interned id grids and the
    /// star terms — in place, keeping the values and the step record. A
    /// later use re-derives them (identical by construction: the step
    /// record and the children they derive from are unchanged). Returns
    /// whether anything was actually freed.
    fn demote_slot(slot: &ExecSlot) -> bool {
        let mut freed = false;
        for t in slot.value.iter().flatten() {
            freed |= t.drop_derived();
        }
        freed
    }

    /// Memoized union of one shared column (see
    /// [`EvalCache::col_unions`]).
    pub(crate) fn column_union(&self, col: &SetColumn) -> SetId {
        let key = Arc::as_ptr(col) as usize;
        if let Some(id) = self.col_unions.get(&key, |&id| id) {
            return id;
        }
        let id = self.pool.union_slice(col);
        self.col_unions.insert_pinned(key, Arc::clone(col), id, 0);
        id
    }

    /// Engine step for a `group` operator through the grouping-skeleton
    /// memo ([`EvalCache::group_parts`]): the [`GroupParts`] are computed
    /// once per (child, keys) and shared across every sibling aggregation
    /// choice — only the aggregate column is built per candidate. Output
    /// is identical to [`exec_step`] on a `group` query.
    fn exec_group_shared(
        &self,
        sem: Semantics,
        child: &Rc<ExecTable>,
        keys: &[usize],
        agg: AggFunc,
        target: usize,
    ) -> Result<ExecTable, EvalError> {
        check_grouping(child, keys, target, "group")?;
        let mut probe = self.parts_probe.borrow_mut();
        probe.clear();
        probe.push(Rc::as_ptr(child) as usize);
        probe.extend_from_slice(keys);
        let parts = match self.group_parts.get(probe.as_slice(), Rc::clone) {
            Some(parts) => parts,
            None => {
                let parts = Rc::new(GroupParts::new(child, self.groups_of(child, keys), keys));
                let heap = 8 * probe.len() as u64 + parts.heap_bytes();
                self.group_parts.insert_pinned(
                    probe.as_slice().into(),
                    Rc::clone(child),
                    Rc::clone(&parts),
                    heap,
                );
                parts
            }
        };
        Ok(group_over(sem, child, &parts, agg, target))
    }

    /// Engine step for a `partition` operator through the shared grouping
    /// memo: the row partition is looked up by key columns
    /// ([`EvalCache::groups_of`]) and shared across every sibling
    /// (function, target) choice — only the window column is built per
    /// candidate. Output is identical to
    /// [`exec_step`] on a `partition` query.
    fn exec_partition_shared(
        &self,
        sem: Semantics,
        child: &Rc<ExecTable>,
        keys: &[usize],
        func: AnalyticFunc,
        target: usize,
    ) -> Result<ExecTable, EvalError> {
        check_grouping(child, keys, target, "partition")?;
        let groups = self.groups_of(child, keys);
        Ok(partition_over(sem, child, groups, keys, func, target))
    }

    /// The row partition of a concrete engine result by `keys`, through
    /// the key-column memo ([`EvalCache::key_groups`]) and, on a miss,
    /// canonicalized by content (see [`EvalCache::groups_canon`]): key
    /// subsets that induce one partition get the same `Rc`, whichever
    /// result they are reached through.
    pub(crate) fn groups_of(&self, conc: &ExecTable, keys: &[usize]) -> Groups {
        let grid = conc.values.grid();
        let mut probe = self.groups_probe.borrow_mut();
        probe.clear();
        probe.push(grid.n_rows());
        probe.extend(
            keys.iter()
                .map(|&k| Arc::as_ptr(grid.column_arc(k)) as usize),
        );
        if let Some(groups) = self.key_groups.get(probe.as_slice(), Rc::clone) {
            return groups;
        }
        let fresh = Rc::new(group_rows_by_keys(grid, keys));
        let groups = match self.groups_canon.get(&fresh, Rc::clone) {
            Some(canon) => canon,
            None => {
                // One row index per row, plus one vector header per group.
                let heap = (8 * grid.n_rows() + 24 * fresh.len()) as u64;
                self.groups_canon
                    .insert_pinned(Rc::clone(&fresh), (), Rc::clone(&fresh), heap);
                fresh
            }
        };
        let pins = keys
            .iter()
            .map(|&k| Arc::clone(grid.column_arc(k)))
            .collect();
        // The probe key (row count, one address per key) and the pins.
        self.key_groups.insert_pinned(
            probe.as_slice().into(),
            pins,
            Rc::clone(&groups),
            16 * keys.len() as u64 + 8,
        );
        groups
    }

    /// Memoized per-group unions of one shared column under one grouping
    /// (see [`EvalCache::group_unions`]).
    pub(crate) fn group_unions(&self, col: &SetColumn, groups: &Groups) -> SetColumn {
        let key = (Arc::as_ptr(col) as usize, Rc::as_ptr(groups) as usize);
        if let Some(unions) = self.group_unions.get(&key, Arc::clone) {
            return unions;
        }
        let unions = Arc::new(
            groups
                .iter()
                .map(|g| self.pool.union_rows(col, g))
                .collect::<Vec<SetId>>(),
        );
        self.group_unions.insert_pinned(
            key,
            (Arc::clone(col), Rc::clone(groups)),
            Arc::clone(&unions),
            SET_ID_BYTES * unions.len() as u64,
        );
        unions
    }

    /// Memoized engine evaluation of `q` at semantics level `sem`. A cached
    /// result at a *higher* level serves lower-level requests.
    ///
    /// # Errors
    ///
    /// Propagates [`EvalError`] from evaluation (the error is not cached).
    pub fn exec(
        &self,
        q: &Query,
        sem: Semantics,
        inputs: &[Table],
    ) -> Result<Rc<ExecTable>, EvalError> {
        {
            let map = self.map.borrow();
            if let Some(slot) = map.get(q) {
                // Probe from the highest level down to the requested one.
                for level in [Semantics::Provenance, Semantics::Values] {
                    if level < sem {
                        break;
                    }
                    if let Some(hit) = &slot.value[level as usize] {
                        slot.hot.set(true);
                        slot.probes.set(slot.probes.get().saturating_add(1));
                        return Ok(Rc::clone(hit));
                    }
                }
            }
        }
        let (computed, step) = self.compute(q, sem, inputs)?;
        // Store under the level actually computed (equals `sem` now that
        // children are narrowed, but derive it rather than assume).
        let actual = computed.semantics();
        // A re-insert of a previously evicted query is a churn-induced
        // re-evaluation. Consumed *before* this insert's own sweep runs:
        // the sweep can evict this query's stale lower-level slot, and
        // that eviction happened after the computation — counting it
        // would charge churn for work it did not cause. The emptiness
        // guard keeps the no-churn common case free of a second full-AST
        // hash.
        if !self.evicted.is_empty() && self.evicted.remove(&self.hasher.hash_one(q)) {
            let mut counters = self.counters.borrow_mut();
            counters.cache_reevals += 1;
            counters.cache_reeval_time += step;
        }
        let rc = Rc::new(computed);
        let mut map = self.map.borrow_mut();
        if map.len() >= self.policy.cap {
            self.sweep_exec(&mut map);
        }
        let slot = map.entry(q.clone()).or_default();
        slot.value[actual as usize] = Some(Rc::clone(&rc));
        slot.hot.set(true);
        let now = slot.measure();
        self.resident
            .set(self.resident.get().saturating_sub(slot.bytes.get()) + now);
        slot.bytes.set(now);
        Ok(rc)
    }

    /// Provenance-level evaluation of the root of one search visit: its
    /// proper subqueries go through [`EvalCache::exec`], its own operator
    /// runs exactly as there, but the result is neither probed for nor
    /// stored. The search visits each candidate once, so a root entry
    /// would never be read back; siblings share only the subqueries.
    ///
    /// # Errors
    ///
    /// Same as [`EvalCache::exec`].
    pub fn exec_root(&self, q: &Query, inputs: &[Table]) -> Result<ExecTable, EvalError> {
        self.compute(q, Semantics::Provenance, inputs)
            .map(|(computed, _)| computed)
    }

    /// Evaluates `q`'s own operator over its children, which are resolved
    /// through [`EvalCache::exec`], and returns the result with the time
    /// the operator step took (children excluded). Join results are added
    /// to the join counters.
    fn compute(
        &self,
        q: &Query,
        sem: Semantics,
        inputs: &[Table],
    ) -> Result<(ExecTable, Duration), EvalError> {
        // Evaluate one operator level at a time so shared subqueries hit
        // the cache instead of being re-evaluated per leaf; `filter ∘ join`
        // fuses into a selection-vector pass. A child served from a
        // higher-level cache entry is narrowed to the requested level so
        // the parent records no step nobody asked for.
        let narrow = |child: Rc<ExecTable>| {
            if sem == Semantics::Values && child.semantics() > sem {
                Rc::new(child.values_only())
            } else {
                child
            }
        };
        // Each branch resolves its children first, then times just this
        // node's operator step — what a re-evaluation costs when its
        // children are still cached.
        let (computed, step) = if let Some((left, right, pred)) = fused_filter_join(q) {
            let l = narrow(self.exec(left, sem, inputs)?);
            let r = narrow(self.exec(right, sem, inputs)?);
            let t0 = Instant::now();
            let out = {
                let mut probe = self.probe.borrow_mut();
                exec_filtered_join_with(&l, &r, pred, JoinStrategy::Auto, &mut probe)?
            };
            (out, t0.elapsed())
        } else if let Query::Group {
            src,
            keys,
            agg,
            target,
        } = q
        {
            // Through the grouping-skeleton memo: sibling aggregation
            // choices share the row partition and key columns. The child
            // is deliberately NOT narrowed — group builds fresh columns
            // either way, and the un-narrowed `Rc` keeps the memo key
            // stable across sibling candidates.
            let child = self.exec(src, sem, inputs)?;
            let t0 = Instant::now();
            (
                self.exec_group_shared(sem, &child, keys, *agg, *target)?,
                t0.elapsed(),
            )
        } else if let Query::Partition {
            src,
            keys,
            func,
            target,
        } = q
        {
            // Same sharing for `partition`: the row partition is one
            // memo probe after the first sibling (function, target)
            // choice over the same keys.
            let child = self.exec(src, sem, inputs)?;
            let t0 = Instant::now();
            (
                self.exec_partition_shared(sem, &child, keys, *func, *target)?,
                t0.elapsed(),
            )
        } else {
            let children = q
                .children()
                .into_iter()
                .map(|c| self.exec(c, sem, inputs).map(&narrow))
                .collect::<Result<Vec<_>, _>>()?;
            let t0 = Instant::now();
            (exec_step(sem, q, &children, inputs)?, t0.elapsed())
        };
        if matches!(q, Query::Join { .. } | Query::LeftJoin { .. })
            || fused_filter_join(q).is_some()
        {
            let mut counters = self.counters.borrow_mut();
            counters.join_rows += computed.values.n_rows();
            counters.time_join += step;
        }
        debug_assert!(
            computed.semantics() >= sem,
            "pipeline produced fewer channels than requested"
        );
        Ok((computed, step))
    }

    /// Probes the cache for `q` at any semantics level without computing
    /// anything: a test seam for inspecting residency and demotion state.
    #[cfg(test)]
    fn peek(&self, q: &Query) -> Option<Rc<ExecTable>> {
        let map = self.map.borrow();
        let slot = map.get(q)?;
        for level in [Semantics::Provenance, Semantics::Values] {
            if let Some(hit) = &slot.value[level as usize] {
                slot.hot.set(true);
                return Some(Rc::clone(hit));
            }
        }
        None
    }

    /// Number of cached concrete entries (diagnostics).
    pub fn len(&self) -> usize {
        self.map.borrow().len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.borrow().is_empty()
    }

    pub(crate) fn abs_get(
        &self,
        pq: &crate::ast::PQuery,
    ) -> Option<Rc<crate::abstract_eval::AbsTable>> {
        self.abs_map.borrow().get(pq).map(|entry| {
            entry.hot.set(true);
            Rc::clone(&entry.value)
        })
    }

    pub(crate) fn abs_put(&self, pq: &crate::ast::PQuery, abs: Rc<crate::abstract_eval::AbsTable>) {
        let mut map = self.abs_map.borrow_mut();
        if map.len() >= ABS_CACHE_CAP {
            second_chance_sweep(&mut map, ABS_CACHE_CAP);
        }
        map.insert(
            pq.clone(),
            Warm {
                value: abs,
                hot: Cell::new(true),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sickle_provenance::RefSet;
    use sickle_table::{AggFunc, ArithExpr, ArithOp, CmpOp};
    use std::time::Duration;

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
    fn channels_match_requested_semantics() {
        let q = Query::Input(0);
        let inputs = [input()];
        let v = exec(Semantics::Values, &q, &inputs).unwrap();
        assert_eq!(v.semantics(), Semantics::Values);
        let p = exec(Semantics::Provenance, &q, &inputs).unwrap();
        assert_eq!(p.semantics(), Semantics::Provenance);
        let u = RefUniverse::from_tables(&inputs);
        let pool = RefSetPool::new();
        assert_eq!(pool.set_len(p.set_ids(&u, &pool)[(0, 0)]), 1);
    }

    #[test]
    fn star_values_agree_with_values_channel() {
        let q = Query::Group {
            src: Box::new(Query::Input(0)),
            keys: vec![0],
            agg: AggFunc::Sum,
            target: 2,
        };
        let inputs = [input()];
        let out = exec(Semantics::Provenance, &q, &inputs).unwrap();
        let via_star = crate::prov_eval::concretize(&out.star(), &inputs);
        assert!(via_star.bag_eq(out.table()));
    }

    #[test]
    fn sets_agree_with_star_refs() {
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
            func: ArithExpr::bin(
                ArithOp::Mul,
                ArithExpr::bin(ArithOp::Div, ArithExpr::Param(0), ArithExpr::Param(1)),
                ArithExpr::lit(100.0),
            ),
            cols: vec![4, 2],
        };
        // The second input is wider than the 128 inline bits, so the
        // late rows' sets use the shared word storage.
        let wide = Table::new(
            ["city", "quarter", "enrolled", "pop"],
            (0..40)
                .map(|i| {
                    let city = if i % 3 == 0 { "A" } else { "B" };
                    vec![city.into(), (i % 4).into(), i.into(), 100.into()]
                })
                .collect(),
        )
        .unwrap();
        for inputs in [[input()], [wide]] {
            let u = RefUniverse::from_tables(&inputs);
            let pool = RefSetPool::new();
            let out = exec(Semantics::Provenance, &q, &inputs).unwrap();
            // The lazily derived ids equal ref-collection over the star,
            // and the direct term walk equals collecting the references;
            // both equal a set grown one `insert` at a time.
            let ids = out.set_ids(&u, &pool);
            assert!(!out.has_star(), "ids derive without the star");
            let from_star = out.star().map(|e| u.set_from(e.refs()));
            assert_eq!(ids.map(|&id| pool.get(id)), from_star);
            for col in out.star().columns() {
                for e in col.iter() {
                    let mut inserted = u.empty_set();
                    e.refs().into_iter().for_each(|r| inserted.insert(&u, r));
                    assert_eq!(u.set_of(e), u.set_from(e.refs()), "{e}");
                    assert_eq!(u.set_of(e), inserted, "{e}");
                }
            }
            let high = |s: &RefSet| s.iter(&u).any(|r| u.index(r).is_some_and(|b| b >= 128));
            let any_high = from_star.columns().any(|col| col.iter().any(high));
            assert_eq!(any_high, u.n_bits() > 128);
        }
    }

    /// Derives `q`'s id channel (before any star exists) and checks it
    /// against interning the references of each star cell. Returns the
    /// ids resolved to sets, and the universe they live in.
    fn lazy_sets(q: &Query, inputs: &[Table]) -> (Grid<RefSet>, RefUniverse) {
        let u = RefUniverse::from_tables(inputs);
        let pool = RefSetPool::new();
        let out = exec(Semantics::Provenance, q, inputs).unwrap();
        let ids = out.set_ids(&u, &pool);
        assert!(!out.has_star(), "{q}: ids must derive without the star");
        let from_star = out.star().map_columns(|col| {
            u.column_sets(col)
                .into_iter()
                .map(|s| pool.intern(s))
                .collect()
        });
        assert_eq!(*ids, from_star, "{q}");
        (ids.map(|&id| pool.get(id)), u)
    }

    /// The cell references of `refs` (input 0) as a set.
    fn refs(u: &RefUniverse, cells: &[(usize, usize)]) -> RefSet {
        u.set_from(cells.iter().map(|&(i, j)| CellRef::new(0, i, j)))
    }

    #[test]
    fn left_join_padding_has_empty_sets() {
        // Same city and more than 30 enrolled on the right: only right
        // row 3 (city B) qualifies, so the city-A rows are padded.
        let q = Query::LeftJoin {
            left: Box::new(Query::Input(0)),
            right: Box::new(Query::Input(0)),
            pred: Pred::And(
                Box::new(Pred::ColCmp(0, CmpOp::Eq, 4)),
                Box::new(Pred::ColConst(6, CmpOp::Gt, Value::Int(30))),
            ),
        };
        let (sets, u) = lazy_sets(&q, &[input()]);
        assert_eq!(sets.n_rows(), 4);
        for row in 0..4 {
            assert_eq!(sets[(row, 0)], refs(&u, &[(row, 0)]));
            for col in 0..4 {
                let right = if row >= 2 {
                    refs(&u, &[(3, col)])
                } else {
                    u.empty_set()
                };
                assert_eq!(sets[(row, 4 + col)], right, "row {row} col {col}");
            }
        }
    }

    #[test]
    fn cumsum_sets_are_row_prefixes_of_their_partition() {
        let q = Query::Partition {
            src: Box::new(Query::Input(0)),
            keys: vec![0],
            func: AnalyticFunc::CumSum,
            target: 2,
        };
        let (sets, u) = lazy_sets(&q, &[input()]);
        assert_eq!(sets[(0, 4)], refs(&u, &[(0, 2)]));
        assert_eq!(sets[(1, 4)], refs(&u, &[(0, 2), (1, 2)]));
        assert_eq!(sets[(2, 4)], refs(&u, &[(2, 2)]));
        assert_eq!(sets[(3, 4)], refs(&u, &[(2, 2), (3, 2)]));
    }

    #[test]
    fn rank_sets_cover_the_whole_partition() {
        for func in [AnalyticFunc::Rank, AnalyticFunc::DenseRank] {
            let q = Query::Partition {
                src: Box::new(Query::Input(0)),
                keys: vec![1],
                func,
                target: 2,
            };
            let (sets, u) = lazy_sets(&q, &[input()]);
            // Quarter 1 is rows 0 and 2, quarter 2 rows 1 and 3.
            for (row, group) in [(0, [0, 2]), (2, [0, 2]), (1, [1, 3]), (3, [1, 3])] {
                assert_eq!(
                    sets[(row, 4)],
                    refs(&u, &[(group[0], 2), (group[1], 2)]),
                    "{func} row {row}"
                );
            }
        }
    }

    #[test]
    fn arithmetic_sets_union_only_the_used_parameters() {
        // `x0 * 100` over columns (enrolled, pop): pop is an argument the
        // template never reads, so it contributes no reference.
        let q = Query::Arith {
            src: Box::new(Query::Input(0)),
            func: ArithExpr::bin(ArithOp::Mul, ArithExpr::Param(0), ArithExpr::lit(100.0)),
            cols: vec![2, 3],
        };
        let (sets, u) = lazy_sets(&q, &[input()]);
        for row in 0..4 {
            assert_eq!(sets[(row, 4)], refs(&u, &[(row, 2)]));
        }
        let ratio = Query::Arith {
            src: Box::new(Query::Input(0)),
            func: ArithExpr::bin(ArithOp::Div, ArithExpr::Param(1), ArithExpr::Param(0)),
            cols: vec![3, 2],
        };
        let (sets, u) = lazy_sets(&ratio, &[input()]);
        for row in 0..4 {
            assert_eq!(sets[(row, 4)], refs(&u, &[(row, 2), (row, 3)]));
        }
    }

    #[test]
    fn window_rows_share_their_group_term() {
        let inputs = [input()];
        let cache = EvalCache::new();
        let window = |func| Query::Partition {
            src: Box::new(Query::Input(0)),
            keys: vec![0],
            func,
            target: 2,
        };
        // Cached and uncached paths build one column, equal to the
        // values channel.
        for func in AnalyticFunc::ALL {
            let q = window(func);
            let cached = cache.exec(&q, Semantics::Provenance, &inputs).unwrap();
            let uncached = crate::prov_evaluate(&q, &inputs).unwrap();
            assert_eq!(*cached.star(), uncached, "{q}");
            let via_star = crate::prov_eval::concretize(&uncached, &inputs);
            assert!(via_star.bag_eq(cached.table()), "{q}");
        }
        // One `sum(…)` node per group (rows 0–1 are city A, 2–3 city B),
        // shared by the group's rows on both paths.
        let q = window(AnalyticFunc::Agg(AggFunc::Sum));
        let cached = cache.exec(&q, Semantics::Provenance, &inputs).unwrap();
        for star in [&*cached.star(), &crate::prov_evaluate(&q, &inputs).unwrap()] {
            let args = |i: usize| match &star[(i, 4)] {
                Expr::Apply(_, args) => Arc::clone(args),
                other => panic!("expected a sum term, got {other}"),
            };
            assert!(Arc::ptr_eq(&args(0), &args(1)));
            assert!(Arc::ptr_eq(&args(2), &args(3)));
            assert!(!Arc::ptr_eq(&args(0), &args(2)));
        }
    }

    #[test]
    fn key_subsets_with_one_partition_share_it() {
        // City and population induce the same partition (A → 100,
        // B → 50); quarter induces another.
        let inputs = [input()];
        let cache = EvalCache::new();
        let conc = cache
            .exec(&Query::Input(0), Semantics::Provenance, &inputs)
            .unwrap();
        let by_city = cache.groups_of(&conc, &[0]);
        assert_eq!(*by_city, vec![vec![0, 1], vec![2, 3]]);
        assert!(Rc::ptr_eq(&by_city, &cache.groups_of(&conc, &[3])));
        assert!(Rc::ptr_eq(&by_city, &cache.groups_of(&conc, &[0, 3])));
        assert!(!Rc::ptr_eq(&by_city, &cache.groups_of(&conc, &[1])));
        // Sibling results share the input's value columns, so grouping
        // either of them by those columns hands back the same partition,
        // equal to grouping that result from scratch.
        let window = |func, target| Query::Partition {
            src: Box::new(Query::Input(0)),
            keys: vec![0],
            func,
            target,
        };
        let sum = cache
            .exec(
                &window(AnalyticFunc::Agg(AggFunc::Sum), 2),
                Semantics::Provenance,
                &inputs,
            )
            .unwrap();
        let max = cache
            .exec(
                &window(AnalyticFunc::Agg(AggFunc::Max), 1),
                Semantics::Provenance,
                &inputs,
            )
            .unwrap();
        for keys in [&[0][..], &[3]] {
            for sibling in [&sum, &max] {
                let groups = cache.groups_of(sibling, keys);
                assert!(Rc::ptr_eq(&by_city, &groups), "{keys:?}");
                assert_eq!(*groups, group_rows_by_keys(sibling.table().grid(), keys));
            }
        }
    }

    #[test]
    fn sibling_groups_share_their_key_columns() {
        let inputs = [input()];
        let cache = EvalCache::new();
        let group = |agg, target| Query::Group {
            src: Box::new(Query::Input(0)),
            keys: vec![0, 3],
            agg,
            target,
        };
        let sum = cache
            .exec(&group(AggFunc::Sum, 2), Semantics::Provenance, &inputs)
            .unwrap();
        let max = cache
            .exec(&group(AggFunc::Max, 1), Semantics::Provenance, &inputs)
            .unwrap();
        for k in 0..2 {
            let values = |t: &ExecTable| Arc::clone(t.table().grid().column_arc(k));
            let stars = |t: &ExecTable| Arc::clone(t.star().column_arc(k));
            assert!(Arc::ptr_eq(&values(&sum), &values(&max)), "values {k}");
            assert!(Arc::ptr_eq(&stars(&sum), &stars(&max)), "star {k}");
        }
        // The aggregate columns are the candidates' own, and the shared
        // path builds what the uncached one does.
        assert!(!Arc::ptr_eq(
            sum.star().column_arc(2),
            max.star().column_arc(2)
        ));
        for q in [group(AggFunc::Sum, 2), group(AggFunc::Max, 1)] {
            let cached = cache.exec(&q, Semantics::Provenance, &inputs).unwrap();
            let uncached = exec(Semantics::Provenance, &q, &inputs).unwrap();
            assert_eq!(cached.table().grid(), uncached.table().grid(), "{q}");
            assert_eq!(cached.star(), uncached.star(), "{q}");
        }
    }

    #[test]
    fn fused_filter_join_equals_unfused() {
        let join = Query::Join {
            left: Box::new(Query::Input(0)),
            right: Box::new(Query::Input(0)),
        };
        let q = Query::Filter {
            src: Box::new(join.clone()),
            pred: Pred::ColCmp(0, CmpOp::Eq, 4),
        };
        let inputs = [input()];
        let fused = exec(Semantics::Provenance, &q, &inputs).unwrap();
        // Unfused: evaluate the join, then filter as a separate step.
        let j = Rc::new(exec(Semantics::Provenance, &join, &inputs).unwrap());
        let unfused = exec_filter(&j, &Pred::ColCmp(0, CmpOp::Eq, 4)).unwrap();
        assert!(fused.table().bag_eq(unfused.table()));
        assert_eq!(fused.star(), unfused.star());
        // Equi-join on city: 2 matches per row.
        assert_eq!(fused.table().n_rows(), 8);
    }

    #[test]
    fn cache_serves_lower_semantics_from_higher() {
        let cache = EvalCache::new();
        let inputs = [input()];
        let q = Query::Input(0);
        let full = cache.exec(&q, Semantics::Provenance, &inputs).unwrap();
        let low = cache.exec(&q, Semantics::Values, &inputs).unwrap();
        assert!(Rc::ptr_eq(&full, &low));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn second_chance_sweep_keeps_hot_entries() {
        let mut map: FxMap<usize, Warm<usize>> = FxMap::default();
        for k in 0..10 {
            map.insert(
                k,
                Warm {
                    value: k,
                    hot: Cell::new(false),
                },
            );
        }
        // Touch three entries: they survive the sweep (flags consumed).
        for k in [2, 5, 7] {
            map.get(&k).unwrap().hot.set(true);
        }
        second_chance_sweep(&mut map, 100);
        let mut kept: Vec<usize> = map.keys().copied().collect();
        kept.sort_unstable();
        assert_eq!(kept, vec![2, 5, 7]);
        assert!(map.values().all(|e| !e.hot.get()), "flags must reset");
        // All-hot at a tiny cap: the survivor quota (cap / 2) still
        // guarantees at least half the map is freed.
        for e in map.values() {
            e.hot.set(true);
        }
        second_chance_sweep(&mut map, 3);
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn eval_cache_hit_survives_a_sweep() {
        // Low-water 1: a sweep keeps exactly one entry — the hot one.
        let cache = EvalCache::with_policy(CachePolicy::default().with_cap(8).with_low_water(1));
        let inputs = [input()];
        let hot = Query::Input(0);
        let hot_rc = cache.exec(&hot, Semantics::Values, &inputs).unwrap();
        let cold = Query::Sort {
            src: Box::new(Query::Input(0)),
            cols: vec![0],
            asc: true,
        };
        cache.exec(&cold, Semantics::Values, &inputs).unwrap();
        // Consume both flags (the second chance), then touch only `hot`:
        // the next sweep must evict the cold entry.
        {
            let map = cache.map.borrow_mut();
            for slot in map.values() {
                slot.hot.set(false);
            }
        }
        cache.exec(&hot, Semantics::Values, &inputs).unwrap();
        {
            let mut map = cache.map.borrow_mut();
            cache.sweep_exec(&mut map);
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.take_counters().cache_evictions, 1);
        // The surviving entry is served from cache (same Rc), the cold
        // one was evicted and recomputes (counted as a re-evaluation).
        let again = cache.exec(&hot, Semantics::Values, &inputs).unwrap();
        assert!(Rc::ptr_eq(&hot_rc, &again));
        cache.exec(&cold, Semantics::Values, &inputs).unwrap();
        assert_eq!(cache.take_counters().cache_reevals, 1);
    }

    #[test]
    fn plain_joins_are_charged_to_the_join_counters() {
        let cache = EvalCache::new();
        let inputs = [input()];
        let join = Query::Join {
            left: Box::new(Query::Input(0)),
            right: Box::new(Query::Input(0)),
        };
        cache.exec(&join, Semantics::Values, &inputs).unwrap();
        let after_join = cache.take_counters();
        assert_eq!(after_join.join_rows, 16, "4 × 4 cross product");
        assert!(after_join.time_join > Duration::ZERO, "{after_join:?}");
        // Same city: every left row meets its two same-city right rows.
        let left_join = Query::LeftJoin {
            left: Box::new(Query::Input(0)),
            right: Box::new(Query::Input(0)),
            pred: Pred::ColCmp(0, CmpOp::Eq, 4),
        };
        cache.exec(&left_join, Semantics::Values, &inputs).unwrap();
        let mut after_left = after_join;
        after_left.merge(&cache.take_counters());
        assert_eq!(after_left.join_rows, 16 + 8);
        assert!(
            after_left.time_join > after_join.time_join,
            "{after_left:?}"
        );
    }

    /// One query per operator kind over [`input`] (with itself as the
    /// second table of the joins), each over a subquery where it has one.
    fn one_per_operator() -> Vec<Query> {
        let input = || Box::new(Query::Input(0));
        let city_a = Pred::ColConst(0, CmpOp::Eq, "A".into());
        let join = || {
            Box::new(Query::Join {
                left: Box::new(Query::Filter {
                    src: input(),
                    pred: city_a.clone(),
                }),
                right: input(),
            })
        };
        let group = Query::Group {
            src: input(),
            keys: vec![0],
            agg: AggFunc::Sum,
            target: 2,
        };
        vec![
            Query::Input(0),
            Query::Filter {
                src: input(),
                pred: city_a.clone(),
            },
            // Fused: the inner join is never evaluated on its own.
            Query::Filter {
                src: join(),
                pred: Pred::ColCmp(0, CmpOp::Eq, 4),
            },
            *join(),
            Query::LeftJoin {
                left: input(),
                right: Box::new(group.clone()),
                pred: Pred::ColCmp(0, CmpOp::Eq, 4),
            },
            Query::Proj {
                src: Box::new(group.clone()),
                cols: vec![1, 0],
            },
            Query::Sort {
                src: Box::new(group.clone()),
                cols: vec![1],
                asc: false,
            },
            group,
            Query::Partition {
                src: input(),
                keys: vec![0],
                func: AnalyticFunc::CumSum,
                target: 2,
            },
            Query::Arith {
                src: input(),
                func: ArithExpr::bin(ArithOp::Div, ArithExpr::Param(0), ArithExpr::Param(1)),
                cols: vec![2, 3],
            },
        ]
    }

    #[test]
    fn root_evaluation_matches_exec_and_stores_only_subqueries() {
        let inputs = [input()];
        let u = RefUniverse::from_tables(&inputs);
        for q in one_per_operator() {
            // One pool, so equal sets have equal ids on both sides.
            let pool = Arc::new(RefSetPool::new());
            let stored = EvalCache::with_pool_and_policy(Arc::clone(&pool), CachePolicy::default());
            let rooted = EvalCache::with_pool_and_policy(Arc::clone(&pool), CachePolicy::default());
            let want = stored.exec(&q, Semantics::Provenance, &inputs).unwrap();
            let got = rooted.exec_root(&q, &inputs).unwrap();
            assert_eq!(got.table().grid(), want.table().grid(), "{q}");
            assert_eq!(got.set_ids(&u, &pool), want.set_ids(&u, &pool), "{q}");
            assert_eq!(got.star(), want.star(), "{q}");
            assert_eq!(
                rooted.take_counters().join_rows,
                stored.take_counters().join_rows,
                "{q}"
            );
            // The root stays out of the store; every subquery `exec`
            // stored is there.
            assert!(rooted.peek(&q).is_none(), "{q} was stored");
            let subqueries: Vec<Query> = stored
                .map
                .borrow()
                .keys()
                .filter(|k| **k != q)
                .cloned()
                .collect();
            assert_eq!(rooted.len(), subqueries.len(), "{q}");
            assert_eq!(rooted.is_empty(), q == Query::Input(0), "{q}");
            for sub in &subqueries {
                assert!(rooted.peek(sub).is_some(), "{q}: {sub} missing");
            }
        }
    }

    /// Eight distinct one-operator queries over [`input`].
    fn sorts() -> Vec<Query> {
        (0..4)
            .flat_map(|c| {
                [true, false].map(|asc| Query::Sort {
                    src: Box::new(Query::Input(0)),
                    cols: vec![c],
                    asc,
                })
            })
            .collect()
    }

    /// Fills a cache under `policy` with [`sorts`] (nine entries: their
    /// shared input too), cools every entry, re-probes the queries at
    /// `touch`, runs one sweep and returns the surviving queries.
    fn sweep_survivors(policy: CachePolicy, touch: &[usize]) -> Vec<Query> {
        let inputs = [input()];
        let queries = sorts();
        let cache = EvalCache::with_policy(policy);
        for q in &queries {
            cache.exec(q, Semantics::Values, &inputs).unwrap();
        }
        for slot in cache.map.borrow().values() {
            slot.hot.set(false);
        }
        for &i in touch {
            cache.exec(&queries[i], Semantics::Values, &inputs).unwrap();
        }
        let before = cache.len();
        cache.sweep_exec(&mut cache.map.borrow_mut());
        let survivors: Vec<Query> = cache.map.borrow().keys().cloned().collect();
        assert_eq!(
            cache.take_counters().cache_evictions,
            before - survivors.len()
        );
        survivors
    }

    #[test]
    fn sweep_evicts_cold_before_hot_down_to_low_water() {
        let queries = sorts();
        let touched = [1, 4, 6];
        let policy = CachePolicy::default().with_cap(64);
        // Six cold entries cover an excess of four: every hot one stays.
        let kept = sweep_survivors(policy.with_low_water(5), &touched);
        assert_eq!(kept.len(), 5);
        for i in touched {
            assert!(kept.contains(&queries[i]), "hot entry {i} evicted");
        }
        // An excess of seven takes all six cold entries, then one hot one.
        let kept = sweep_survivors(policy.with_low_water(2), &touched);
        assert_eq!(kept.len(), 2);
        assert!(kept
            .iter()
            .all(|q| touched.iter().any(|&i| queries[i] == *q)));
        // A low-water mark at the cap is clamped to cap - max(cap/8, 1).
        let kept = sweep_survivors(CachePolicy::default().with_cap(9).with_low_water(9), &[]);
        assert_eq!(kept.len(), 8);
        // The victims depend on the insert and probe sequence alone.
        for low_water in [0, 2, 5] {
            assert_eq!(
                sweep_survivors(policy.with_low_water(low_water), &touched),
                sweep_survivors(policy.with_low_water(low_water), &touched),
                "low water {low_water}"
            );
        }
    }

    #[test]
    fn demoted_entry_keeps_values_and_rederives_identical_channels() {
        let q = Query::Group {
            src: Box::new(Query::Input(0)),
            keys: vec![0],
            agg: AggFunc::Sum,
            target: 2,
        };
        let inputs = [input()];
        let u = RefUniverse::from_tables(&inputs);
        // Reference: a never-demoted cache.
        let fresh = EvalCache::new();
        let reference = fresh.exec(&q, Semantics::Provenance, &inputs).unwrap();
        let ref_ids = reference
            .set_ids(&u, fresh.pool())
            .map(|&id| fresh.pool().get(id));
        let ref_star = reference.star();

        let cache = EvalCache::with_policy(CachePolicy::default());
        let exec = cache.exec(&q, Semantics::Provenance, &inputs).unwrap();
        exec.set_ids(&u, cache.pool());
        exec.star();
        let values_before = exec.table().clone();
        {
            let mut map = cache.map.borrow_mut();
            let mut demoted = 0;
            for slot in map.values_mut() {
                slot.hot.set(false);
                if EvalCache::demote_slot(slot) {
                    demoted += 1;
                }
            }
            // The group entry and its input child both derived channels
            // (the group's ids and star read the child's).
            assert_eq!(demoted, 2);
        }
        // Demotion frees in place: our own handle sees the channels gone,
        // the values intact, and re-derivation identical to the
        // never-demoted run.
        let demoted = cache.peek(&q).expect("entry stays cached");
        assert!(Rc::ptr_eq(&demoted, &exec));
        assert!(!demoted.has_star(), "star must be freed");
        assert!(!demoted.has_ids(), "ids must be freed");
        assert_eq!(*demoted.table(), values_before);
        let ids = demoted.set_ids(&u, cache.pool());
        assert_eq!(ids.map(|&id| cache.pool().get(id)), ref_ids);
        assert_eq!(*demoted.star(), *ref_star);
    }

    #[test]
    fn demotion_frees_pinned_entries_in_place() {
        let group = Query::Group {
            src: Box::new(Query::Input(0)),
            keys: vec![0],
            agg: AggFunc::Sum,
            target: 2,
        };
        let inputs = [input()];
        let u = RefUniverse::from_tables(&inputs);
        let cache = EvalCache::new();
        // The child is pinned by the grouping memos, by the group's step
        // record and by our own handle.
        let child = cache
            .exec(&Query::Input(0), Semantics::Provenance, &inputs)
            .unwrap();
        let out = cache.exec(&group, Semantics::Provenance, &inputs).unwrap();
        let want = child.set_ids(&u, cache.pool());
        let groups = cache.groups_of(&child, &[0]);
        out.star();
        assert!(child.has_star(), "the group's star reads the child's");
        assert!(!cache.key_groups.is_empty());
        {
            // Everything is cold: the real sweep path demotes both.
            let mut map = cache.map.borrow_mut();
            for slot in map.values() {
                slot.hot.set(false);
            }
            cache.sweep_exec(&mut map);
        }
        // The cached child is the same result, freed in place, so every
        // holder sees the channels go; the memos keyed by its address
        // stay valid and keep serving.
        let cached = cache.peek(&Query::Input(0)).unwrap();
        assert!(Rc::ptr_eq(&child, &cached));
        assert!(!child.has_ids() && !child.has_star());
        assert!(!out.has_star());
        assert!(!cache.key_groups.is_empty());
        assert!(!cache.group_parts.is_empty());
        assert!(Rc::ptr_eq(&groups, &cache.groups_of(&child, &[0])));
        // Re-derived ids equal the originals.
        assert_eq!(*child.set_ids(&u, cache.pool()), *want);
    }

    #[test]
    fn slot_bytes_charge_derived_channels_once_measured() {
        let q = Query::Group {
            src: Box::new(Query::Input(0)),
            keys: vec![0],
            agg: AggFunc::Sum,
            target: 2,
        };
        let inputs = [input()];
        let u = RefUniverse::from_tables(&inputs);
        let cache = EvalCache::new();
        let exec = cache.exec(&q, Semantics::Provenance, &inputs).unwrap();
        let values_only = cache.resident.get();
        // 2 groups × 2 columns of values, plus the 4 × 4 input.
        let cells = 2 * 2 + 4 * 4;
        assert_eq!(values_only, 2 * ENTRY_MEM_BYTES + cells * VALUE_BYTES);
        exec.set_ids(&u, cache.pool());
        // Derived after the insert: charged at the next measurement.
        assert_eq!(cache.resident.get(), values_only);
        cache.remeasure();
        let with_ids = cache.resident.get();
        assert_eq!(with_ids, values_only + cells * SET_ID_BYTES);
        exec.star();
        cache.remeasure();
        assert_eq!(cache.resident.get(), with_ids + cells * EXPR_BYTES);
        // The side memos are charged too: the group's parts and its
        // canonical partition.
        assert!(cache.resident_bytes() > cache.resident.get());
        // A sweep that demotes both entries releases the derived bytes.
        {
            let mut map = cache.map.borrow_mut();
            for slot in map.values() {
                slot.hot.set(false);
            }
            cache.sweep_exec(&mut map);
        }
        assert_eq!(cache.take_counters().cache_demotions, 2);
        assert_eq!(cache.resident.get(), values_only);
    }

    #[test]
    fn tiny_caps_sweep_without_stalling() {
        // Caps where `cap / 8` rounds to 0 and `cap / 2` to ≤ 1: every
        // policy must keep serving correct results, keep the map at or
        // below the cap, and never panic.
        let inputs = [input()];
        let queries = sorts();
        for policy in [
            CachePolicy::default().with_cap(1),
            CachePolicy::default().with_cap(2),
            CachePolicy::default().with_cap(3),
        ] {
            let cache = EvalCache::with_policy(policy);
            for round in 0..3 {
                for q in &queries {
                    let out = cache.exec(q, Semantics::Values, &inputs).unwrap();
                    assert_eq!(out.table().n_rows(), 4, "round {round} policy {policy:?}");
                    assert!(
                        cache.len() <= policy.cap,
                        "len {} > cap {} under {policy:?}",
                        cache.len(),
                        policy.cap
                    );
                }
            }
            let stats = cache.take_counters();
            assert!(stats.cache_evictions > 0, "tiny cap must evict: {policy:?}");
            assert!(
                stats.cache_reevals > 0,
                "repeat rounds over an evicting cache must re-evaluate: {policy:?}"
            );
        }
    }

    #[test]
    fn hash_join_matches_cross_loop_on_every_strategy_relevant_pred() {
        let inputs = [input()];
        let l = exec(Semantics::Provenance, &Query::Input(0), &inputs).unwrap();
        let r = exec(Semantics::Provenance, &Query::Input(0), &inputs).unwrap();
        let preds = [
            // Single equi key, both orientations.
            Pred::ColCmp(0, CmpOp::Eq, 4),
            Pred::ColCmp(5, CmpOp::Eq, 1),
            // Equi key plus residual conjuncts on both sides of the And.
            Pred::And(
                Box::new(Pred::ColCmp(0, CmpOp::Eq, 4)),
                Box::new(Pred::ColCmp(2, CmpOp::Lt, 6)),
            ),
            Pred::And(
                Box::new(Pred::ColConst(1, CmpOp::Ge, Value::Int(2))),
                Box::new(Pred::ColCmp(1, CmpOp::Eq, 5)),
            ),
            // Two equi keys (multi-column hash path).
            Pred::And(
                Box::new(Pred::ColCmp(0, CmpOp::Eq, 4)),
                Box::new(Pred::ColCmp(1, CmpOp::Eq, 5)),
            ),
            // No equi key: same-side equality, non-equality, constant-only.
            Pred::ColCmp(0, CmpOp::Eq, 1),
            Pred::ColCmp(2, CmpOp::Lt, 6),
            Pred::ColConst(0, CmpOp::Eq, Value::from("A")),
            Pred::True,
        ];
        for pred in preds {
            let auto = exec_filtered_join_strategy(&l, &r, &pred, JoinStrategy::Auto).unwrap();
            let cross =
                exec_filtered_join_strategy(&l, &r, &pred, JoinStrategy::CrossLoop).unwrap();
            assert_eq!(
                auto.table().grid(),
                cross.table().grid(),
                "values diverged on {pred}"
            );
            assert_eq!(auto.star(), cross.star(), "star diverged on {pred}");
        }
    }

    #[test]
    fn equi_key_split_recognizes_cross_side_equalities_only() {
        let pred = Pred::And(
            Box::new(Pred::And(
                Box::new(Pred::ColCmp(0, CmpOp::Eq, 4)), // equi
                Box::new(Pred::ColCmp(0, CmpOp::Eq, 1)), // same side
            )),
            Box::new(Pred::And(
                Box::new(Pred::ColCmp(5, CmpOp::Eq, 2)), // equi, flipped
                Box::new(Pred::ColConst(3, CmpOp::Eq, Value::Int(1))), // constant
            )),
        );
        let (keys, residual) = split_equi_pred(&pred, 4);
        assert_eq!(keys, vec![(0, 0), (2, 1)]);
        assert_eq!(residual.len(), 2);
        // `true` conjuncts vanish rather than becoming residual work.
        let (keys, residual) = split_equi_pred(&Pred::True, 4);
        assert!(keys.is_empty() && residual.is_empty());
    }

    #[test]
    fn benefit_aware_demotion_frees_unprobed_sets() {
        let inputs = [input()];
        let u = RefUniverse::from_tables(&inputs);
        // Cap high enough that the manual sweep below evicts nothing.
        let cache = EvalCache::with_policy(CachePolicy::default().with_cap(64));
        let probed = Query::Group {
            src: Box::new(Query::Input(0)),
            keys: vec![0],
            agg: AggFunc::Sum,
            target: 2,
        };
        let unprobed = Query::Group {
            src: Box::new(Query::Input(0)),
            keys: vec![1],
            agg: AggFunc::Sum,
            target: 2,
        };
        for q in [&probed, &unprobed] {
            let out = cache.exec(q, Semantics::Provenance, &inputs).unwrap();
            out.set_ids(&u, cache.pool());
        }
        // One entry is re-probed (a cache hit bumps its probe count), the
        // other is left at zero probes; both are hot.
        cache.exec(&probed, Semantics::Provenance, &inputs).unwrap();
        {
            let mut map = cache.map.borrow_mut();
            cache.sweep_exec(&mut map);
        }
        let stats = cache.take_counters();
        assert_eq!(stats.cache_evictions, 0);
        assert!(stats.cache_demotions > 0);
        let kept = cache.peek(&probed).unwrap();
        assert!(kept.has_ids(), "re-probed entry must keep its derived ids");
        let freed = cache.peek(&unprobed).unwrap();
        assert!(!freed.has_ids(), "never-probed entry must be demoted");
        // Demotion is transparent: the ids re-derive identically.
        let fresh = EvalCache::new();
        let want = fresh
            .exec(&unprobed, Semantics::Provenance, &inputs)
            .unwrap();
        let sets = |t: &ExecTable, pool: &RefSetPool| t.set_ids(&u, pool).map(|&id| pool.get(id));
        assert_eq!(sets(&freed, cache.pool()), sets(&want, fresh.pool()));
    }

    #[test]
    fn missing_input_errors() {
        let err = exec(Semantics::Values, &Query::Input(3), &[input()]).unwrap_err();
        assert!(matches!(err, EvalError::NoSuchInput { index: 3, .. }));
    }
}
