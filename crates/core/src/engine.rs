//! The unified execution engine behind all three query semantics.
//!
//! One columnar operator pipeline implements every operator once, over
//! [`Table`]s with `Arc`-shared columns, and produces an [`ExecTable`]
//! whose channels are filled according to the requested [`Semantics`]:
//!
//! * **values** — the concrete output `[[q]]` (always computed; it also
//!   drives filtering, sorting and grouping for the star channel, so no
//!   provenance term is ever evaluated to make those decisions);
//! * **star** — the provenance-embedded output `[[q]]★` (Fig. 9), on
//!   request;
//! * **sets** — per-cell reference bitsets (`ref` of each star cell), the
//!   substrate of the abstract analysis. Sets are *derived* from the star
//!   channel on first access ([`ExecTable::sets`]) and memoized, so
//!   pipelines that never reach the abstract analysis pay nothing for
//!   them.
//!
//! [`exec`] runs the pipeline over a whole query: at
//! [`Semantics::Values`] it backs `evaluate`, at
//! [`Semantics::Provenance`] it backs `prov_evaluate` and, through the
//! sets channel, the concrete leaves of `abstract_evaluate`.
//! [`EvalCache`] memoizes engine results keyed by `(query, semantics)` so
//! skeleton refinement reuses inner-subquery evaluations across sibling
//! expansions.
//!
//! The pipeline also fuses `filter ∘ join`: the cross product is never
//! materialized — a selection-vector pair is built from the predicate and
//! each surviving column is gathered once.

use std::cell::{Cell, OnceCell, RefCell};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use sickle_table::{
    cross_selection, group_rows_by_keys, AggFunc, AnalyticFunc, CmpOp, Grid, Table, Value,
    ValueInterner, ValueKey,
};

use sickle_provenance::{CellRef, Expr, FxBuild, FxMap, RefSet, RefSetPool, RefUniverse, SetId};
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
/// everything [`Semantics::Values`] does. (The abstract analysis needs no
/// third level: its per-cell reference sets are derived lazily from the
/// star channel via [`ExecTable::sets`].)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Semantics {
    /// Concrete values only (`[[q]]`).
    Values,
    /// Values plus provenance expressions (`[[q]]★`).
    Provenance,
}

impl Semantics {
    fn wants_star(self) -> bool {
        self >= Semantics::Provenance
    }
}

/// Output of the engine for one (sub)query: the concrete table plus the
/// optional provenance side-channel and the lazily-derived abstract
/// ref-set side-channel.
#[derive(Debug, Clone)]
pub struct ExecTable {
    values: Table,
    star: Option<ProvTable>,
    sets: OnceCell<Grid<RefSet>>,
    set_ids: OnceCell<Grid<SetId>>,
}

impl ExecTable {
    /// The concrete output table `[[q]]`.
    pub fn table(&self) -> &Table {
        &self.values
    }

    /// Consumes the result, returning the concrete table.
    pub fn into_table(self) -> Table {
        self.values
    }

    /// The provenance-embedded output `[[q]]★`.
    ///
    /// # Panics
    ///
    /// Panics if the result was computed at [`Semantics::Values`]; use
    /// [`ExecTable::try_star`] for a non-panicking probe.
    pub fn star(&self) -> &ProvTable {
        self.star
            .as_ref()
            .expect("provenance channel not requested")
    }

    /// The provenance channel, or `None` when the result was computed at
    /// [`Semantics::Values`].
    pub fn try_star(&self) -> Option<&ProvTable> {
        self.star.as_ref()
    }

    /// Per-cell reference sets (`ref` of each star cell), computed from the
    /// star channel on first access and memoized.
    ///
    /// # Panics
    ///
    /// Panics if the result was computed at [`Semantics::Values`].
    pub fn sets(&self, universe: &RefUniverse) -> &Grid<RefSet> {
        self.sets
            .get_or_init(|| self.star().map_columns(|col| universe.column_sets(col)))
    }

    /// Per-cell reference sets interned into `pool`, computed from
    /// [`ExecTable::sets`] on first access and memoized. All accesses of
    /// one result must use the same pool (the engine cache guarantees
    /// this: one pool is threaded through a whole search).
    ///
    /// # Panics
    ///
    /// Panics if the result was computed at [`Semantics::Values`].
    pub fn set_ids(&self, universe: &RefUniverse, pool: &RefSetPool) -> &Grid<SetId> {
        // Hash-consed, not raw-registered: the same concrete subquery can
        // be re-evaluated after an engine-cache clear (and by concurrent
        // requests on one session), and interning keeps the shared pool's
        // growth bounded by the number of *distinct* sets.
        self.set_ids
            .get_or_init(|| self.sets(universe).map(|s| pool.intern(s.clone())))
    }

    /// The semantics level this result was computed at.
    pub fn semantics(&self) -> Semantics {
        if self.star.is_some() {
            Semantics::Provenance
        } else {
            Semantics::Values
        }
    }

    /// A values-only view of this result (columns shared, star dropped).
    /// Used by the cache when a [`Semantics::Values`] request is assembled
    /// from children that happen to be cached at the provenance level, so
    /// the parent step does not build star terms nobody asked for.
    fn values_only(&self) -> ExecTable {
        ExecTable {
            values: self.values.clone(),
            star: None,
            sets: OnceCell::new(),
            set_ids: OnceCell::new(),
        }
    }
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
        let l = exec(sem, left, inputs)?;
        let r = exec(sem, right, inputs)?;
        return exec_filtered_join(&l, &r, pred);
    }
    let children = q
        .children()
        .into_iter()
        .map(|c| exec(sem, c, inputs))
        .collect::<Result<Vec<_>, _>>()?;
    let child_refs: Vec<&ExecTable> = children.iter().collect();
    exec_step(sem, q, &child_refs, inputs)
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
/// pipeline.
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
    children: &[&ExecTable],
    inputs: &[Table],
) -> Result<ExecTable, EvalError> {
    match q {
        Query::Input(k) => exec_input(sem, *k, inputs),
        Query::Filter { pred, .. } => exec_filter(children[0], pred),
        Query::Join { .. } => Ok(exec_join(children[0], children[1])),
        Query::LeftJoin { pred, .. } => exec_left_join(sem, children[0], children[1], pred),
        Query::Proj { cols, .. } => exec_proj(children[0], cols),
        Query::Sort { cols, asc, .. } => exec_sort(children[0], cols, *asc),
        Query::Group {
            keys, agg, target, ..
        } => exec_group(sem, children[0], keys, *agg, *target),
        Query::Partition {
            keys, func, target, ..
        } => exec_partition(sem, children[0], keys, *func, *target),
        Query::Arith { func, cols, .. } => exec_arith(children[0], func, cols),
    }
}

fn table(values: Table, star: Option<ProvTable>) -> ExecTable {
    ExecTable {
        values,
        star,
        sets: OnceCell::new(),
        set_ids: OnceCell::new(),
    }
}

fn exec_input(sem: Semantics, k: usize, inputs: &[Table]) -> Result<ExecTable, EvalError> {
    let t = inputs.get(k).ok_or(EvalError::NoSuchInput {
        index: k,
        available: inputs.len(),
    })?;
    let values = t.clone(); // columns are shared, not copied
    let star = sem.wants_star().then(|| {
        Grid::from_columns(
            (0..t.n_cols())
                .map(|j| {
                    std::sync::Arc::new(
                        (0..t.n_rows())
                            .map(|i| Expr::Ref(CellRef::new(k, i, j)))
                            .collect(),
                    )
                })
                .collect(),
        )
    });
    Ok(table(values, star))
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

/// Applies one selection vector to every channel of an exec table.
fn select_rows(src: &ExecTable, sel: &[usize], names: Vec<String>) -> ExecTable {
    table(
        Table::from_named_grid(names, src.values.grid().select_rows(sel)),
        src.star.as_ref().map(|s| s.select_rows(sel)),
    )
}

fn exec_filter(src: &ExecTable, pred: &Pred) -> Result<ExecTable, EvalError> {
    let mut keep = Vec::new();
    exec_filter_with(src, pred, &mut keep)
}

/// `filter`, writing the surviving row indices into a caller-pooled
/// buffer (cleared here) so per-candidate allocation amortizes across the
/// search.
fn exec_filter_with(
    src: &ExecTable,
    pred: &Pred,
    keep: &mut Vec<usize>,
) -> Result<ExecTable, EvalError> {
    check_pred(pred, src.values.n_cols(), "filter")?;
    let grid = src.values.grid();
    keep.clear();
    keep.extend((0..grid.n_rows()).filter(|&r| pred_holds(pred, &RowAccess::One(grid, r))));
    Ok(select_rows(src, keep, src.values.names().to_vec()))
}

fn joined_names(l: &ExecTable, r: &ExecTable) -> Vec<String> {
    let mut names = l.values.names().to_vec();
    names.extend(r.values.names().iter().cloned());
    names
}

/// Gathers the two sides of a join through a selection-vector pair and
/// concatenates the channels column-wise.
fn gather_join(l: &ExecTable, r: &ExecTable, lsel: &[usize], rsel: &[usize]) -> ExecTable {
    table(
        Table::from_named_grid(
            joined_names(l, r),
            l.values
                .grid()
                .select_rows(lsel)
                .hcat(&r.values.grid().select_rows(rsel)),
        ),
        match (&l.star, &r.star) {
            (Some(ls), Some(rs)) => Some(ls.select_rows(lsel).hcat(&rs.select_rows(rsel))),
            _ => None,
        },
    )
}

fn exec_join(l: &ExecTable, r: &ExecTable) -> ExecTable {
    let (lsel, rsel) = cross_selection(l.values.n_rows(), r.values.n_rows());
    gather_join(l, r, &lsel, &rsel)
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

/// Reusable scratch of the filter/join execution paths: selection
/// vectors and key buffers, pooled in [`EvalCache`] so per-candidate
/// allocation amortizes across the search instead of scaling with row
/// count (buffers are cleared between uses, never shrunk).
#[derive(Debug, Default)]
struct ExecScratch {
    lsel: Vec<usize>,
    rsel: Vec<usize>,
    keep: Vec<usize>,
    probe: Vec<ValueKey>,
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
/// byte-identical (values and star) to the cross-product path.
fn exec_hash_join(
    l: &ExecTable,
    r: &ExecTable,
    keys: &[(usize, usize)],
    residual: &[&Pred],
    scratch: &mut ExecScratch,
) -> ExecTable {
    let (lg, rg) = (l.values.grid(), r.values.grid());
    let ExecScratch {
        lsel, rsel, probe, ..
    } = scratch;
    lsel.clear();
    rsel.clear();
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
    if let [(lc, rc)] = keys {
        // Single-key fast path: the interned key itself is the hash key.
        let mut build: FxMap<ValueKey, Vec<usize>> = FxMap::default();
        for (rrow, v) in rg.column(*rc).iter().enumerate() {
            build.entry(interner.key(v)).or_default().push(rrow);
        }
        for (lrow, v) in lg.column(*lc).iter().enumerate() {
            if let Some(rows) = build.get(&interner.key(v)) {
                for &rrow in rows {
                    if residual_holds(lrow, rrow) {
                        lsel.push(lrow);
                        rsel.push(rrow);
                    }
                }
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
                for &rrow in rows {
                    if residual_holds(lrow, rrow) {
                        lsel.push(lrow);
                        rsel.push(rrow);
                    }
                }
            }
        }
    }
    gather_join(l, r, lsel, rsel)
}

/// The legacy `filter(join(l, r), p)` pair loop: every (lrow, rrow) pair is
/// tested against the full predicate. O(|L|·|R|) — kept as the fallback for
/// genuinely non-equi predicates and as the A/B baseline of the scale
/// bench.
fn exec_cross_loop(
    l: &ExecTable,
    r: &ExecTable,
    pred: &Pred,
    scratch: &mut ExecScratch,
) -> ExecTable {
    let (lg, rg) = (l.values.grid(), r.values.grid());
    let ExecScratch { lsel, rsel, .. } = scratch;
    lsel.clear();
    rsel.clear();
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
                rsel.push(rrow);
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
    l: &ExecTable,
    r: &ExecTable,
    pred: &Pred,
    strategy: JoinStrategy,
    scratch: &mut ExecScratch,
) -> Result<ExecTable, EvalError> {
    check_pred(pred, l.values.n_cols() + r.values.n_cols(), "filter")?;
    if strategy == JoinStrategy::CrossLoop {
        return Ok(exec_cross_loop(l, r, pred, scratch));
    }
    let (keys, residual) = split_equi_pred(pred, l.values.n_cols());
    if keys.is_empty() {
        Ok(exec_cross_loop(l, r, pred, scratch))
    } else {
        Ok(exec_hash_join(l, r, &keys, &residual, scratch))
    }
}

/// `filter(join(l, r), p)` under the default [`JoinStrategy::Auto`].
fn exec_filtered_join(l: &ExecTable, r: &ExecTable, pred: &Pred) -> Result<ExecTable, EvalError> {
    let mut scratch = ExecScratch::default();
    exec_filtered_join_with(l, r, pred, JoinStrategy::Auto, &mut scratch)
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
    let mut scratch = ExecScratch::default();
    exec_filtered_join_with(l, r, pred, strategy, &mut scratch)
}

fn exec_left_join(
    sem: Semantics,
    l: &ExecTable,
    r: &ExecTable,
    pred: &Pred,
) -> Result<ExecTable, EvalError> {
    let (ln, rn) = (l.values.n_cols(), r.values.n_cols());
    check_pred(pred, ln + rn, "left_join")?;
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

    fn gather_padded<C: Clone>(g: &Grid<C>, sel: &[Option<usize>], pad: &C) -> Grid<C> {
        Grid::from_columns(
            (0..g.n_cols())
                .map(|c| {
                    let col = g.column(c);
                    std::sync::Arc::new(
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

    let values = Table::from_named_grid(
        joined_names(l, r),
        lg.select_rows(&lsel)
            .hcat(&gather_padded(rg, &rsel, &Value::Null)),
    );
    let star = sem.wants_star().then(|| {
        l.star()
            .select_rows(&lsel)
            .hcat(&gather_padded(r.star(), &rsel, &Expr::Const(Value::Null)))
    });
    Ok(table(values, star))
}

fn exec_proj(src: &ExecTable, cols: &[usize]) -> Result<ExecTable, EvalError> {
    check_cols(cols, src.values.n_cols(), "proj")?;
    Ok(table(
        src.values.project(cols),
        src.star.as_ref().map(|s| s.select_columns(cols)),
    ))
}

fn exec_sort(src: &ExecTable, cols: &[usize], asc: bool) -> Result<ExecTable, EvalError> {
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
    Ok(select_rows(src, &order, src.values.names().to_vec()))
}

fn exec_group(
    sem: Semantics,
    src: &ExecTable,
    keys: &[usize],
    agg: AggFunc,
    target: usize,
) -> Result<ExecTable, EvalError> {
    check_cols(keys, src.values.n_cols(), "group")?;
    check_cols(&[target], src.values.n_cols(), "group")?;
    let groups = group_rows_by_keys(src.values.grid(), keys);
    let key_cols = key_columns(sem, src, &groups, keys);
    Ok(group_over(sem, src, &groups, keys, &key_cols, agg, target))
}

/// The key columns of a `group` over the row partition `groups` of `src`
/// by `keys`: each group's representative key values and, when `sem`
/// wants the star channel, its `group{…}` key terms. They depend on the
/// partition and keys only, not on the aggregation.
fn key_columns(
    sem: Semantics,
    src: &ExecTable,
    groups: &[Vec<usize>],
    keys: &[usize],
) -> KeyColumns {
    let values = keys
        .iter()
        .map(|&k| {
            let col = src.values.column(k);
            Arc::new(groups.iter().map(|g| col[g[0]].clone()).collect())
        })
        .collect();
    let stars = if sem.wants_star() {
        let sg = src.star();
        keys.iter()
            .map(|&k| Arc::new(group_key_column(sg.column(k), groups)))
            .collect()
    } else {
        Vec::new()
    };
    (values, stars)
}

/// The `group` step over an already-computed row partition `groups` of
/// `src` by `keys` (whose columns the caller has checked) and its
/// [`key_columns`]: the key columns are shared into the output as-is and
/// only the aggregate column is built here.
fn group_over(
    sem: Semantics,
    src: &ExecTable,
    groups: &[Vec<usize>],
    keys: &[usize],
    (key_values, key_stars): &KeyColumns,
    agg: AggFunc,
    target: usize,
) -> ExecTable {
    let mut names: Vec<String> = keys
        .iter()
        .map(|&k| src.values.names()[k].clone())
        .collect();
    names.push(format!("{agg}({})", src.values.names()[target]));

    // Values channel: representative key cells + the aggregate.
    let target_col = src.values.column(target);
    let mut value_cols = Vec::with_capacity(keys.len() + 1);
    value_cols.extend(key_values.iter().cloned());
    value_cols.push(Arc::new(
        groups
            .iter()
            .map(|g| agg.apply_indexed(target_col, g))
            .collect(),
    ));
    let values = Table::from_named_grid(names, Grid::from_columns(value_cols));

    // Star channel: group{…} key terms and α(members…) aggregates.
    let star = sem.wants_star().then(|| {
        let mut cols = Vec::with_capacity(keys.len() + 1);
        cols.extend(key_stars.iter().cloned());
        cols.push(Arc::new(aggregate_column(
            agg,
            src.star().column(target),
            groups,
        )));
        Grid::from_columns(cols)
    });

    table(values, star)
}

fn exec_partition(
    sem: Semantics,
    src: &ExecTable,
    keys: &[usize],
    func: AnalyticFunc,
    target: usize,
) -> Result<ExecTable, EvalError> {
    check_cols(keys, src.values.n_cols(), "partition")?;
    check_cols(&[target], src.values.n_cols(), "partition")?;
    let groups = group_rows_by_keys(src.values.grid(), keys);
    Ok(partition_over(sem, src, &groups, keys, func, target))
}

/// The `partition` step over an already-computed row partition `groups`
/// of `src` by `keys` (whose columns the caller has checked).
fn partition_over(
    sem: Semantics,
    src: &ExecTable,
    groups: &[Vec<usize>],
    keys: &[usize],
    func: AnalyticFunc,
    target: usize,
) -> ExecTable {
    let mut names = src.values.names().to_vec();
    names.push(format!(
        "{func}({}) over {keys:?}",
        src.values.names()[target]
    ));

    // Values channel: existing columns shared, one window column appended.
    let target_col = src.values.column(target);
    let mut new_col: Vec<Value> = vec![Value::Null; src.values.n_rows()];
    for g in groups {
        for (&i, v) in g.iter().zip(func.apply_indexed(target_col, g)) {
            new_col[i] = v;
        }
    }
    let values = Table::from_named_grid(names, src.values.grid().with_column(new_col));

    // Star channel: per-row window terms over the partition's members.
    let star = sem.wants_star().then(|| {
        let sg = src.star();
        sg.with_column(window_column(func, sg.column(target), groups))
    });

    table(values, star)
}

fn exec_arith(
    src: &ExecTable,
    func: &sickle_table::ArithExpr,
    cols: &[usize],
) -> Result<ExecTable, EvalError> {
    let n_cols = src.values.n_cols();
    check_cols(cols, n_cols, "arithmetic")?;
    let n_rows = src.values.n_rows();

    let mut names = src.values.names().to_vec();
    names.push(format!("{func}{cols:?}"));

    let arg_cols: Vec<&[Value]> = cols.iter().map(|&c| src.values.column(c)).collect();
    let mut new_col = Vec::with_capacity(n_rows);
    let mut args = vec![Value::Null; cols.len()];
    for r in 0..n_rows {
        for (a, col) in args.iter_mut().zip(&arg_cols) {
            *a = col[r].clone();
        }
        new_col.push(func.eval(&args));
    }
    let values = Table::from_named_grid(names, src.values.grid().with_column(new_col));

    let star = src.star.as_ref().map(|sg| {
        let arg_cols: Vec<&[Expr]> = cols.iter().map(|&c| sg.column(c)).collect();
        sg.with_column(
            (0..n_rows)
                .map(|r| {
                    let args: Vec<Expr> = arg_cols.iter().map(|col| col[r].clone()).collect();
                    expand_arith(func, &args)
                })
                .collect(),
        )
    });

    Ok(table(values, star))
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
/// whole search by [`crate::TaskContext`].
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
    /// Star-column reference-set memo keyed by column identity. Sibling
    /// concrete candidates over one subquery share its star columns by
    /// `Arc` (structure-preserving operators append a column and pass
    /// the rest through; grouped candidates share key columns via
    /// [`EvalCache::group_parts`]), so the acceptance prefilter's cell
    /// conversions repeat across hundreds of candidates — this memo
    /// converts a column once (bulk, on first probe) and every later
    /// candidate's probes reduce to one map probe per column. Columns
    /// the matcher never probes are never converted.
    star_cols: Memo<usize, Arc<Vec<RefSet>>, COLUMN_MEMO_CAP, Arc<Vec<Expr>>>,
    /// Grouping-skeleton memo keyed by `[child result identity, star
    /// wanted, key columns…]` (one slice, so a probe borrows the reusable
    /// [`EvalCache::parts_probe`] buffer): the row partition and
    /// [`key_columns`] of a `group` operator depend on the child and keys
    /// only — every sibling aggregation choice shares them, and
    /// `Arc`-sharing the columns also lets [`EvalCache::star_cols`] hits
    /// carry across those siblings. Holding the partition here lets
    /// sibling `group` candidates skip [`EvalCache::groups_of`]:
    /// recomputing it per candidate made the benchmark's `suite`
    /// workload 5–8% slower (`pass_norm_s`, 2-vCPU x86-64 VM).
    group_parts: Memo<Box<[usize]>, (Groups, KeyColumns), COLUMN_MEMO_CAP, Rc<ExecTable>>,
    /// Probe buffer of [`EvalCache::group_parts`], reused so a hit does
    /// not allocate.
    parts_probe: RefCell<Vec<usize>>,
    /// Canonicalization of row partitions by content, per concrete
    /// result (pinned): different key subsets frequently induce the
    /// *same* partition (a key column constant within groups adds
    /// nothing), and handing back one shared `Rc` per distinct partition
    /// lets the per-group union memo hit across them.
    groups_canon: Memo<(usize, Groups), Groups, MEMO_CAP, Rc<ExecTable>>,
    /// Per-group column unions keyed by (column identity, groups
    /// identity), the inner loop of the strong rules. Pins both.
    group_unions: Memo<(usize, usize), SetColumn, MEMO_CAP, (SetColumn, Groups)>,
    /// Pooled scratch of the filter/join paths: selection vectors
    /// and key buffers reused across every candidate evaluated through
    /// this cache, so per-candidate allocation stops scaling with row
    /// count.
    scratch: RefCell<ExecScratch>,
    /// Eviction policy of the concrete store (cap, hysteresis target).
    policy: CachePolicy,
    /// The search-counter rows this cache feeds (`cache_evictions`,
    /// `cache_demotions`, `cache_reevals`, `cache_reeval_s`,
    /// `time_join_s`, `join_rows`), added to as they happen and drained
    /// by [`EvalCache::take_counters`].
    counters: RefCell<SearchStats>,
    /// Approximate bytes resident in the concrete store: each insert
    /// charges its slot's bytes, evictions and demotions release them
    /// (see [`ExecSlot::bytes`]).
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

/// A shared column of interned reference-set ids.
type SetColumn = Arc<Vec<SetId>>;

/// The [`key_columns`] of a `group` output: representative key values,
/// plus `group{…}` key terms when the star channel is wanted.
type KeyColumns = (Vec<Arc<Vec<Value>>>, Vec<Arc<Vec<Expr>>>);

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
    /// entry that was inserted but never re-probed has paid for derived
    /// channels nobody consumed — the sweep frees them regardless of the
    /// hot bit.
    probes: Cell<u32>,
    /// Approximate bytes charged against this slot (value + star
    /// channels, per cell, plus a fixed per-entry overhead). Released in
    /// full on eviction and partially on demotion, so
    /// [`EvalCache::resident`] never releases more than was charged.
    bytes: Cell<u64>,
}

/// Bound on the concrete exec-table cache (entries hold full provenance
/// tables at the provenance level).
const EXEC_CACHE_CAP: usize = 4_000;

/// Bound on the partial-query abstract-table cache. The search visits the
/// children of a node consecutively (depth-first), so even a modest bound
/// keeps the hit rate high while capping memory.
const ABS_CACHE_CAP: usize = 8_000;

/// Approximate resident bytes per cached cell: one `Value` plus one star
/// `Expr` (both small enum headers; string/aggregate payloads are
/// amortized into the weight rather than measured).
const CELL_MEM_BYTES: u64 = 56;

/// Approximate fixed bytes per cache entry (query key, slot, hash
/// bucket, table headers).
const ENTRY_MEM_BYTES: u64 = 256;

/// Fraction (denominator) of a slot's bytes attributed to the derived
/// ref-set channels a demotion frees: demotion releases `bytes / 2`,
/// keeping the value + star half charged.
const DEMOTE_RELEASE_DIV: u64 = 2;

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
/// reference-set channels (and the cross-candidate star-column
/// conversions) are freed while the value and star columns stay, so a
/// later re-probe pays only set re-conversion, never a full join
/// re-execution. Raising `low_water` above `cap / 2` keeps more entries
/// per sweep, trading peak RSS for fewer re-evaluations.
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
            // Measured on the join-heavy suite tasks, a low-water mark
            // of 3/4·cap costs ~60% extra peak RSS over cap/2, so the
            // larger retained set is an explicit opt-in.
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

/// Bound on the identity-keyed analysis memos (column unions, partition
/// canonicalization, per-group unions).
const MEMO_CAP: usize = 16_384;

/// Bound on the memos that pin whole columns or grouping skeletons
/// (star-column sets, group parts). Much lower than [`MEMO_CAP`]: each
/// entry holds a column's worth of data, and pinning it keeps the data
/// alive past engine-cache eviction.
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

    /// Approximate bytes resident in the concrete store (see
    /// [`EvalCache::resident`]).
    pub(crate) fn resident_bytes(&self) -> u64 {
        self.resident.get()
    }

    /// The hysteresis-bounded sweep of the concrete store.
    ///
    /// Evicts cold entries, then — if the map is still above the
    /// low-water mark — hot ones, each in map iteration order, until the
    /// map is down to the low-water mark. The victims are a function of
    /// the insert and probe sequence alone. Survivors that are cold or were never re-probed
    /// are *demoted* instead of dropped. Hot flags are consumed, exactly
    /// as in the abstract store's second-chance sweep.
    fn sweep_exec(&self, map: &mut FxMap<Query, ExecSlot>) {
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
        // again has paid for derived ref-set channels nobody consumed, so
        // spilling them is free upside at *any* low-water mark, not just
        // one above cap/2. Probe counts decay geometrically (halved per
        // sweep) so sustained reuse is required to stay materialized.
        // Address-keyed memo purges for replaced entries are batched into
        // one retain per memo — a retain per demotion would make the
        // sweep O(survivors × memo).
        let mut purge: Vec<usize> = Vec::new();
        for slot in map.values_mut() {
            let probes = slot.probes.get();
            if (!slot.hot.get() || probes == 0) && self.demote_slot(slot, &mut purge) {
                counters.cache_demotions += 1;
                // The freed derived channels are roughly half the slot's
                // footprint; decrement the slot so a later eviction (or
                // repeat demotion) cannot release more than was charged.
                let freed = slot.bytes.get() / DEMOTE_RELEASE_DIV;
                slot.bytes.set(slot.bytes.get() - freed);
                self.resident.set(self.resident.get().saturating_sub(freed));
            }
            slot.hot.set(false);
            slot.probes.set(probes / 2);
        }
        if !purge.is_empty() {
            purge.sort_unstable();
            let gone = |addr: usize| purge.binary_search(&addr).is_ok();
            self.groups_canon.retain(|k| !gone(k.0));
            self.group_parts.retain(|k| !gone(k[0]));
        }
    }

    /// Frees a slot's derived reference-set channels — the whole-grid and
    /// per-cell `RefSet` conversions plus the interned id grids — and the
    /// cross-candidate star-column conversions pinned by
    /// [`EvalCache::star_cols`], while keeping the value and star
    /// columns. A later hit re-derives the sets lazily (identical by
    /// construction: the star channel they convert from is unchanged).
    /// Replaced entries push their old address into `purge` for the
    /// caller's batched memo purge. Returns whether anything was actually
    /// freed.
    fn demote_slot(&self, slot: &mut ExecSlot, purge: &mut Vec<usize>) -> bool {
        let mut any = false;
        for level in slot.value.iter_mut() {
            let Some(rc) = level else { continue };
            // Purge the bulk conversions of star columns this entry
            // *exclusively* owns (the per-column `RefSet` vectors the
            // spill exists to free). Pass-through operators share column
            // `Arc`s across entries, and a shared column's conversion
            // may be serving a hot, resident sibling — purging it would
            // force that sibling to reconvert after every sweep. Two
            // strong counts = this entry's star grid plus the memo's own
            // pin; anything higher means someone else still uses it.
            if let Some(star) = rc.try_star() {
                for c in 0..star.n_cols() {
                    let col = star.column_arc(c);
                    if Arc::strong_count(col) <= 2
                        && self.star_cols.remove(&(Arc::as_ptr(col) as usize))
                    {
                        any = true;
                    }
                }
            }
            if rc.sets.get().is_none() && rc.set_ids.get().is_none() {
                continue;
            }
            if let Some(table) = Rc::get_mut(rc) {
                table.sets.take();
                table.set_ids.take();
            } else {
                // Pinned elsewhere (a grouping memo, an in-flight sibling
                // evaluation): swap in a shallow clone sharing the value
                // and star columns; the caller purges the address-keyed
                // memo entries pinning the old result so its derived
                // channels actually drop.
                purge.push(Rc::as_ptr(rc) as usize);
                let fresh = Rc::new(ExecTable {
                    values: rc.values.clone(),
                    star: rc.star.clone(),
                    sets: OnceCell::new(),
                    set_ids: OnceCell::new(),
                });
                *level = Some(fresh);
            }
            any = true;
        }
        any
    }

    /// Memoized union of one shared column (see
    /// [`EvalCache::col_unions`]).
    pub(crate) fn column_union(&self, col: &SetColumn) -> SetId {
        let key = Arc::as_ptr(col) as usize;
        if let Some(id) = self.col_unions.get(&key, |&id| id) {
            return id;
        }
        let id = self.pool.union_slice(col);
        self.col_unions.insert_pinned(key, Arc::clone(col), id);
        id
    }

    /// Memoized reference sets of one star column, keyed by the column's
    /// identity (see [`EvalCache::star_cols`]). Converted in bulk on the
    /// first probe of any of its cells; the returned `Arc` indexes
    /// directly per row.
    pub(crate) fn star_col_sets(
        &self,
        star: &crate::prov_eval::ProvTable,
        universe: &RefUniverse,
        col: usize,
    ) -> Arc<Vec<RefSet>> {
        let col_arc = star.column_arc(col);
        let key = Arc::as_ptr(col_arc) as usize;
        if let Some(sets) = self.star_cols.get(&key, Arc::clone) {
            return sets;
        }
        let sets = Arc::new(universe.column_sets(col_arc.iter()));
        self.star_cols
            .insert_pinned(key, Arc::clone(col_arc), Arc::clone(&sets));
        sets
    }

    /// Engine step for a `group` operator through the grouping-skeleton
    /// memo ([`EvalCache::group_parts`]): the row partition and the
    /// [`key_columns`] are computed once per (child, keys) and shared
    /// across every sibling aggregation choice — only the aggregate
    /// column is built per candidate. Output is identical to
    /// [`exec_step`] on a `group` query.
    fn exec_group_shared(
        &self,
        sem: Semantics,
        child: &Rc<ExecTable>,
        keys: &[usize],
        agg: AggFunc,
        target: usize,
    ) -> Result<ExecTable, EvalError> {
        check_cols(keys, child.values.n_cols(), "group")?;
        check_cols(&[target], child.values.n_cols(), "group")?;
        let mut probe = self.parts_probe.borrow_mut();
        probe.clear();
        probe.extend([Rc::as_ptr(child) as usize, usize::from(sem.wants_star())]);
        probe.extend_from_slice(keys);
        let over = |groups: &Groups, key_cols: &KeyColumns| {
            group_over(sem, child, groups, keys, key_cols, agg, target)
        };
        if let Some(out) = self.group_parts.get(probe.as_slice(), |(g, k)| over(g, k)) {
            return Ok(out);
        }
        let groups = self.groups_of(child, keys);
        let key_cols = key_columns(sem, child, &groups, keys);
        let out = over(&groups, &key_cols);
        self.group_parts.insert_pinned(
            probe.as_slice().into(),
            Rc::clone(child),
            (groups, key_cols),
        );
        Ok(out)
    }

    /// Engine step for a `partition` operator through the shared grouping
    /// memo: the row partition is canonicalized per (child, content) and
    /// shared across every sibling (function, target) choice — only the
    /// window column is built per candidate. Output is identical to
    /// [`exec_step`] on a `partition` query.
    fn exec_partition_shared(
        &self,
        sem: Semantics,
        child: &Rc<ExecTable>,
        keys: &[usize],
        func: AnalyticFunc,
        target: usize,
    ) -> Result<ExecTable, EvalError> {
        check_cols(keys, child.values.n_cols(), "partition")?;
        check_cols(&[target], child.values.n_cols(), "partition")?;
        let groups = self.groups_of(child, keys);
        Ok(partition_over(sem, child, &groups, keys, func, target))
    }

    /// The row partition of a concrete engine result by `keys`,
    /// canonicalized by content (see [`EvalCache::groups_canon`]): key
    /// subsets that induce the same partition get the same `Rc`.
    pub(crate) fn groups_of(&self, conc: &Rc<ExecTable>, keys: &[usize]) -> Groups {
        let probe = (
            Rc::as_ptr(conc) as usize,
            Rc::new(group_rows_by_keys(conc.values.grid(), keys)),
        );
        if let Some(canon) = self.groups_canon.get(&probe, Rc::clone) {
            return canon;
        }
        let groups = Rc::clone(&probe.1);
        self.groups_canon
            .insert_pinned(probe, Rc::clone(conc), Rc::clone(&groups));
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
        // Evaluate one operator level at a time so shared subqueries hit
        // the cache instead of being re-evaluated per leaf; `filter ∘ join`
        // fuses into a selection-vector pass. A child served from a
        // higher-level cache entry is narrowed to the requested level so
        // structure-propagating operators don't build star terms nobody
        // asked for.
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
                let mut scratch = self.scratch.borrow_mut();
                exec_filtered_join_with(&l, &r, pred, JoinStrategy::Auto, &mut scratch)?
            };
            (out, t0.elapsed())
        } else if let Query::Filter { src, pred } = q {
            // Plain filter (the fused branch above took filter-over-join):
            // runs through the pooled selection buffer so candidate churn
            // does not allocate per row count.
            let child = narrow(self.exec(src, sem, inputs)?);
            let t0 = Instant::now();
            let out = {
                let mut scratch = self.scratch.borrow_mut();
                exec_filter_with(&child, pred, &mut scratch.keep)?
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
            let child_refs: Vec<&ExecTable> = children.iter().map(Rc::as_ref).collect();
            let t0 = Instant::now();
            (exec_step(sem, q, &child_refs, inputs)?, t0.elapsed())
        };
        if matches!(q, Query::Join { .. } | Query::LeftJoin { .. })
            || fused_filter_join(q).is_some()
        {
            let mut counters = self.counters.borrow_mut();
            counters.join_rows += computed.values.n_rows();
            counters.time_join += step;
        }
        // Store under the level actually computed (equals `sem` now that
        // children are narrowed, but derive it rather than assume).
        let actual = computed.semantics();
        debug_assert!(
            actual >= sem,
            "pipeline produced fewer channels than requested"
        );
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
        let cells =
            (computed.values.n_rows() as u64).saturating_mul(computed.values.n_cols() as u64);
        let mem = ENTRY_MEM_BYTES.saturating_add(cells.saturating_mul(CELL_MEM_BYTES));
        let rc = Rc::new(computed);
        let mut map = self.map.borrow_mut();
        if map.len() >= self.policy.cap {
            self.sweep_exec(&mut map);
        }
        let slot = map.entry(q.clone()).or_default();
        slot.value[actual as usize] = Some(Rc::clone(&rc));
        slot.hot.set(true);
        slot.bytes.set(slot.bytes.get().saturating_add(mem));
        self.resident.set(self.resident.get().saturating_add(mem));
        Ok(rc)
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
        let a = exec(Semantics::Provenance, &q, &inputs).unwrap();
        assert_eq!(a.sets(&u)[(0, 0)].len(), 1);
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
        let via_star = crate::prov_eval::concretize(out.star(), &inputs);
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
            let out = exec(Semantics::Provenance, &q, &inputs).unwrap();
            // The lazily-derived sets equal ref-collection over star, and
            // the direct term walk equals collecting the references; both
            // equal a set grown one `insert` at a time.
            let from_star = out.star().map(|e| u.set_from(e.refs()));
            assert_eq!(*out.sets(&u), from_star);
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
        for star in [cached.star(), &crate::prov_evaluate(&q, &inputs).unwrap()] {
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
        let j = exec(Semantics::Provenance, &join, &inputs).unwrap();
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
    fn demoted_entry_keeps_star_and_rederives_identical_sets() {
        let q = Query::Group {
            src: Box::new(Query::Input(0)),
            keys: vec![0],
            agg: AggFunc::Sum,
            target: 2,
        };
        let inputs = [input()];
        let u = RefUniverse::from_tables(&inputs);
        // Reference: a never-evicted cache.
        let fresh = EvalCache::new();
        let reference = fresh.exec(&q, Semantics::Provenance, &inputs).unwrap();
        let ref_sets = reference.sets(&u).clone();

        let cache = EvalCache::with_policy(CachePolicy::default());
        let exec = cache.exec(&q, Semantics::Provenance, &inputs).unwrap();
        exec.sets(&u);
        exec.set_ids(&u, cache.pool());
        let star_before = exec.star().clone();
        drop(exec); // release the caller's pin so demotion can act in place
        {
            let mut map = cache.map.borrow_mut();
            let mut demoted = 0;
            let mut purge = Vec::new();
            for slot in map.values_mut() {
                slot.hot.set(false);
                if cache.demote_slot(slot, &mut purge) {
                    demoted += 1;
                }
            }
            // Only the group entry had materialized channels to free; the
            // child entry (nothing derived) is a no-op.
            assert_eq!(demoted, 1);
        }
        // The demoted entry still hits at the provenance level, with the
        // star channel intact and the derived channels empty.
        let demoted = cache.peek(&q).expect("entry stays cached");
        assert_eq!(*demoted.star(), star_before);
        assert!(demoted.sets.get().is_none(), "sets must be freed");
        assert!(demoted.set_ids.get().is_none(), "set ids must be freed");
        // Re-derivation is byte-identical to the never-evicted run.
        assert_eq!(*demoted.sets(&u), ref_sets);
    }

    #[test]
    fn demotion_replaces_pinned_entries_and_purges_their_memos() {
        let group = Query::Group {
            src: Box::new(Query::Input(0)),
            keys: vec![0],
            agg: AggFunc::Sum,
            target: 2,
        };
        let inputs = [input()];
        let u = RefUniverse::from_tables(&inputs);
        let cache = EvalCache::new();
        // Materialize through the grouping memos so the child is pinned by
        // `groups_canon` / `group_parts` (and hold our own pin too).
        let child = cache
            .exec(&Query::Input(0), Semantics::Provenance, &inputs)
            .unwrap();
        cache.exec(&group, Semantics::Provenance, &inputs).unwrap();
        child.sets(&u);
        assert!(!cache.groups_canon.is_empty());
        {
            // Everything is cold: the real sweep path demotes and batch-
            // purges the replaced entries' memos.
            let mut map = cache.map.borrow_mut();
            for slot in map.values() {
                slot.hot.set(false);
            }
            cache.sweep_exec(&mut map);
        }
        // The pinned child was replaced, not mutated: our pin still holds
        // the materialized sets, while the cached entry starts clean and
        // the address-keyed grouping memos were purged.
        let replaced = cache.peek(&Query::Input(0)).unwrap();
        assert!(!Rc::ptr_eq(&child, &replaced));
        assert!(replaced.sets.get().is_none());
        assert!(cache.groups_canon.is_empty());
        assert!(cache.group_parts.is_empty());
        // Re-derived sets equal the pinned originals.
        assert_eq!(*replaced.sets(&u), *child.sets(&u));
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
            out.sets(&u);
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
        assert!(
            kept.sets.get().is_some(),
            "re-probed entry must keep its derived sets"
        );
        let freed = cache.peek(&unprobed).unwrap();
        assert!(
            freed.sets.get().is_none(),
            "never-probed entry must be demoted"
        );
        // Demotion is transparent: the sets re-derive identically.
        let fresh = EvalCache::new();
        let want = fresh
            .exec(&unprobed, Semantics::Provenance, &inputs)
            .unwrap();
        assert_eq!(*freed.sets(&u), *want.sets(&u));
    }

    #[test]
    fn missing_input_errors() {
        let err = exec(Semantics::Values, &Query::Input(3), &[input()]).unwrap_err();
        assert!(matches!(err, EvalError::NoSuchInput { index: 3, .. }));
    }
}
