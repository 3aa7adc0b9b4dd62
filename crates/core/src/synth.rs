//! The abstraction-based enumerative synthesizer (Algorithm 1).
//!
//! The search behind [`crate::Session`] explores the space of analytical
//! SQL queries:
//!
//! 1. **Skeletons** — operator compositions with every parameter a hole `□`
//!    are enumerated up to a depth bound ([`construct_skeletons`]), ordered
//!    by size and by compatibility of the root operator with the
//!    demonstration's cell structure;
//! 2. **Refinement** — each step instantiates one hole, strictly bottom-up
//!    (inner operators complete first, keys before aggregation choices),
//!    which makes subqueries concrete as early as possible and unlocks the
//!    strong abstraction;
//! 3. **Pruning** — before expanding a partial query, an [`Analyzer`]
//!    decides whether it can still realize the demonstration. The paper's
//!    analyzer is [`ProvenanceAnalyzer`] (abstract data provenance, Def. 3);
//!    the Morpheus/Scythe-style baselines live in `sickle-baselines`;
//! 4. **Acceptance** — concrete queries are checked against Def. 1
//!    (`E ≺ [[q]]★`); the search stops after `N` consistent queries, on
//!    timeout, or when a caller-supplied stop predicate fires.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sickle_table::{
    default_arith_templates, AggFunc, AnalyticFunc, ArithExpr, CmpOp, Table, Value,
};

use sickle_provenance::{
    containment_seed, demo_consistent_with_candidates, AnalysisCache, ColumnHeads, Demo, DemoToken,
    RefSetPool, RefUniverse,
};

use crate::abstract_eval::{abstract_evaluate_rc, demo_ref_sets};
use crate::ast::{PQuery, Pred, Query};
use crate::engine::{CachePolicy, EvalCache, ExecTable, Semantics};
use crate::error::SickleError;
use crate::session::{CancelToken, SynthRequest};
use crate::stats::{SearchStats, SharedStats};

/// A primary/foreign-key pair declared on the inputs; join predicates are
/// enumerated from these only (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinKey {
    /// Left input table index.
    pub left_table: usize,
    /// Column in the left table.
    pub left_col: usize,
    /// Right input table index.
    pub right_table: usize,
    /// Column in the right table.
    pub right_col: usize,
}

/// A synthesis task: input tables plus the user demonstration.
#[derive(Debug, Clone)]
pub struct SynthTask {
    /// The input tables `T̄`.
    pub inputs: Vec<Table>,
    /// The computation demonstration `E`.
    pub demo: Demo,
    /// Declared key relationships for join enumeration.
    pub join_keys: Vec<JoinKey>,
    /// Extra constants usable in filter predicates (demonstration constants
    /// are always included).
    pub extra_constants: Vec<Value>,
}

impl SynthTask {
    /// Creates a task with no join keys or extra constants.
    pub fn new(inputs: Vec<Table>, demo: Demo) -> SynthTask {
        SynthTask {
            inputs,
            demo,
            join_keys: Vec::new(),
            extra_constants: Vec::new(),
        }
    }
}

/// Operators available to skeleton construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `group(q, □, □(□))`
    Group,
    /// `partition(q, □, □(□))`
    Partition,
    /// `arithmetic(q, □(□))`
    Arith,
    /// `filter(q, □)`
    Filter,
    /// `sort(q, □)`
    Sort,
}

impl OpKind {
    /// All chain operators.
    pub const ALL: [OpKind; 5] = [
        OpKind::Group,
        OpKind::Partition,
        OpKind::Arith,
        OpKind::Filter,
        OpKind::Sort,
    ];
}

/// The shape of the search space: depth, operators, templates and the
/// engine-cache policy. The budget (time, visits, solution target) is a
/// request's [`crate::Budget`].
///
/// Marked `#[non_exhaustive]`: construct it with [`SynthConfig::default`]
/// (or the chainable `with_*` builder methods) and mutate the public
/// fields — new knobs can then be added without breaking downstream
/// crates.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SynthConfig {
    /// Maximum number of operators per query (`depth` in Algorithm 1).
    pub max_depth: usize,
    /// Maximum number of grouping key columns.
    pub max_key_cols: usize,
    /// Maximum number of partitioning key columns. The Fig. 7 grammar gives
    /// `partition` a *single* partition column (`partition(q, c, α′(c))`,
    /// vs. `c̄` for `group`), so the default is 1.
    pub max_partition_cols: usize,
    /// Whether `group`/`partition` may use an empty key set (global
    /// aggregation / whole-table windows).
    pub allow_empty_keys: bool,
    /// Operators available for skeleton chains.
    pub chain_ops: Vec<OpKind>,
    /// Whether skeletons may start from `join`/`left_join` of two inputs.
    pub enable_join: bool,
    /// Arithmetic function templates `γ`.
    pub arith_templates: Vec<ArithExpr>,
    /// Forbid immediately repeated `filter`/`sort` (they compose to a
    /// single equivalent operator, so repeats only duplicate work).
    pub forbid_trivial_repeats: bool,
    /// Eviction policy of the search's engine [`EvalCache`] (cap and
    /// hysteresis low-water mark).
    pub cache: CachePolicy,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            max_depth: 3,
            max_key_cols: 3,
            max_partition_cols: 1,
            allow_empty_keys: true,
            chain_ops: vec![OpKind::Group, OpKind::Partition, OpKind::Arith],
            enable_join: false,
            arith_templates: default_arith_templates(),
            forbid_trivial_repeats: true,
            cache: CachePolicy::default(),
        }
    }
}

impl SynthConfig {
    /// [`SynthConfig::default`] under a builder-friendly name.
    pub fn new() -> SynthConfig {
        SynthConfig::default()
    }

    /// Sets the maximum number of operators per query.
    #[must_use]
    pub fn with_max_depth(mut self, depth: usize) -> SynthConfig {
        self.max_depth = depth;
        self
    }

    /// Sets the operators available for skeleton chains.
    #[must_use]
    pub fn with_chain_ops(mut self, ops: Vec<OpKind>) -> SynthConfig {
        self.chain_ops = ops;
        self
    }

    /// Enables or disables `join`/`left_join` skeleton bases.
    #[must_use]
    pub fn with_enable_join(mut self, enable: bool) -> SynthConfig {
        self.enable_join = enable;
        self
    }

    /// Sets the maximum number of partitioning key columns.
    #[must_use]
    pub fn with_max_partition_cols(mut self, n: usize) -> SynthConfig {
        self.max_partition_cols = n;
        self
    }

    /// Sets the arithmetic function template library `γ`.
    #[must_use]
    pub fn with_arith_templates(mut self, templates: Vec<ArithExpr>) -> SynthConfig {
        self.arith_templates = templates;
        self
    }
}

/// Prepared per-task state shared with analyzers.
#[derive(Debug)]
pub struct TaskContext {
    /// The task being solved.
    pub task: SynthTask,
    /// Arity of each input table.
    pub input_arities: Vec<usize>,
    /// The reference universe over the inputs.
    pub universe: RefUniverse,
    /// Per-demo-cell reference sets (`ref(E[i,j])`).
    pub demo_refs: sickle_table::Grid<sickle_provenance::RefSet>,
    /// The demo reference sets interned in the search's pool
    /// ([`TaskContext::pool`]) — the id-side key of every analysis memo.
    pub demo_ref_ids: sickle_table::Grid<sickle_provenance::SetId>,
    /// What each demo column needs of the result column hosting it
    /// ([`ColumnHeads::demo_columns`]): the acceptance heads gate.
    pub demo_heads: Vec<ColumnHeads>,
    /// Constants available to filter predicates.
    pub constants: Vec<Value>,
    /// Memoized precise evaluations of concrete subqueries (also owns the
    /// search's [`RefSetPool`]).
    pub eval_cache: EvalCache,
    /// Cross-sibling memo of abstract-consistency analyses (shared,
    /// through [`crate::Session`], by the session's requests).
    pub analysis: Arc<AnalysisCache>,
    /// This task's demonstration registered with `analysis`: the
    /// collision-free fingerprint component of every Def. 3 verdict key,
    /// keeping demos that share the session-wide cache apart.
    pub demo_token: DemoToken,
}

impl TaskContext {
    /// Prepares the shared context for a task with a private set pool and
    /// analysis cache.
    pub fn new(task: SynthTask) -> TaskContext {
        TaskContext::with_policy(task, CachePolicy::default())
    }

    /// Prepares a context with a private pool and analysis cache and the
    /// given engine-cache eviction policy.
    pub fn with_policy(task: SynthTask, policy: CachePolicy) -> TaskContext {
        TaskContext::with_shared_policy(
            task,
            Arc::new(RefSetPool::new()),
            Arc::new(AnalysisCache::new()),
            policy,
        )
    }

    /// Prepares a context whose set pool and analysis cache are shared
    /// with other contexts ([`crate::Session`] gives every request its
    /// warm pool and cache, so interned ids and cached verdicts carry
    /// across requests), with the given engine-cache eviction policy (the
    /// session threads [`SynthConfig::cache`] through here).
    pub fn with_shared_policy(
        task: SynthTask,
        pool: Arc<RefSetPool>,
        analysis: Arc<AnalysisCache>,
        policy: CachePolicy,
    ) -> TaskContext {
        let input_arities = task.inputs.iter().map(Table::n_cols).collect();
        let universe = RefUniverse::from_tables(&task.inputs);
        let demo_refs = demo_ref_sets(&task.demo, &universe);
        let demo_ref_ids = demo_refs.map(|s| pool.intern(s.clone()));
        let mut constants = task.demo.constants();
        constants.extend(task.extra_constants.iter().cloned());
        constants.sort();
        constants.dedup();
        let demo_token = analysis.register_demo(&demo_ref_ids);
        let demo_heads = ColumnHeads::demo_columns(&task.demo);
        TaskContext {
            task,
            input_arities,
            universe,
            demo_refs,
            demo_ref_ids,
            demo_heads,
            constants,
            eval_cache: EvalCache::with_pool_and_policy(pool, policy),
            analysis,
            demo_token,
        }
    }

    /// The demonstration.
    pub fn demo(&self) -> &Demo {
        &self.task.demo
    }

    /// The input tables.
    pub fn inputs(&self) -> &[Table] {
        &self.task.inputs
    }

    /// The hash-consing pool behind every [`sickle_provenance::SetId`] of
    /// this search.
    pub fn pool(&self) -> &Arc<RefSetPool> {
        self.eval_cache.pool()
    }

    /// Acceptance of one concrete candidate (Algorithm 1, line 9): does
    /// `q` realize the demonstration (Def. 1)? Stage 1 evaluates the
    /// candidate's values and step record, its subqueries through the
    /// engine cache and the candidate itself outside it
    /// ([`EvalCache::exec_root`]: the search checks each candidate once);
    /// stages 2–3 are [`TaskContext::accept_exec`]. Each stage's
    /// wall-clock is added to its `stats` timer and to `time_concrete`,
    /// and the candidate's outcome to its funnel row. A candidate that
    /// fails to evaluate is rejected.
    ///
    /// # Errors
    ///
    /// Same as [`TaskContext::accept_exec`].
    pub fn accept(&self, q: &Query, stats: &mut SearchStats) -> Result<bool, SickleError> {
        let t0 = Instant::now();
        let exec = self.eval_cache.exec_root(q, self.inputs()).ok();
        charge(stats, |s| &mut s.time_materialize, t0);
        match exec {
            Some(exec) => self.accept_exec(q, &exec, stats),
            None => Ok(false),
        }
    }

    /// Acceptance stages 2–3 of candidate `q`, already evaluated to
    /// `exec`.
    ///
    /// Stage 2, the prefilter, is a chain of cheap necessary conditions.
    /// After the dimension fit comes the heads gate: every demo column
    /// needs a result column whose [`ColumnHeads`] hold what its cells
    /// need ([`ColumnHeads::hosts_all`]). It is sound because `e ≺ e★`
    /// matches an application only to one of the same function and a
    /// reference or constant only to a reference or constant, and a
    /// column's summary contains every cell's, so a candidate the gate
    /// rejects has no Def. 1 witness. The heads come from `q`'s operators
    /// ([`Query::column_heads`]), so a candidate the gate rejects derives
    /// neither ids nor a star. Then the demonstration's references must
    /// embed into the result's exact per-cell reference sets (Def. 3).
    /// Those come from the engine's id channel, derived from the result's
    /// step record without building any provenance term, and the check is
    /// the analyzer's own [`AnalysisCache::consistent`]: candidates repeat
    /// exact id grids, so most verdicts are one map probe.
    ///
    /// Stage 3 builds the survivor's star (charged to materialization)
    /// and runs Def. 1, seeded by the columns and rows that can host the
    /// demonstration under reference containment (sound: `≺` implies
    /// containment, so every Def. 1-feasible column/row is among them).
    /// Only survivors of the heads gate and the prefilter build a star.
    ///
    /// # Errors
    ///
    /// Returns [`SickleError::Internal`] when `exec` was computed at
    /// [`Semantics::Values`], which records no provenance.
    pub fn accept_exec(
        &self,
        q: &Query,
        exec: &ExecTable,
        stats: &mut SearchStats,
    ) -> Result<bool, SickleError> {
        if exec.semantics() != Semantics::Provenance {
            return Err(SickleError::Internal {
                message: "acceptance of a result without provenance".to_string(),
            });
        }
        let t1 = Instant::now();
        let out = exec.table();
        let (demo_rows, demo_cols) = (self.demo_ref_ids.n_rows(), self.demo_ref_ids.n_cols());
        if out.n_rows() < demo_rows || out.n_cols() < demo_cols {
            charge(stats, |s| &mut s.time_prefilter, t1);
            stats.fit_rejected += 1;
            return Ok(false);
        }
        if !ColumnHeads::hosts_all(&q.column_heads(&self.input_arities), &self.demo_heads) {
            charge(stats, |s| &mut s.time_prefilter, t1);
            stats.heads_rejected += 1;
            return Ok(false);
        }
        let pool = self.pool();
        let ids = exec.set_ids(&self.universe, pool);
        let contained = self
            .analysis
            .consistent(&self.demo_token, &self.demo_ref_ids, &ids, pool);
        charge(stats, |s| &mut s.time_prefilter, t1);
        if !contained {
            stats.prefilter_rejected += 1;
            return Ok(false);
        }

        let t2 = Instant::now();
        stats.stars_built += usize::from(!exec.has_star());
        let star = exec.star();
        charge(stats, |s| &mut s.time_materialize, t2);
        let t3 = Instant::now();
        let consistent = containment_seed(&self.demo_ref_ids, &ids, pool)
            .and_then(|seed| demo_consistent_with_candidates(self.demo(), &star, &seed))
            .is_some();
        charge(stats, |s| &mut s.time_match, t3);
        if consistent {
            stats.accepted += 1;
        } else {
            stats.def1_rejected += 1;
        }
        Ok(consistent)
    }
}

/// Adds the time since `since` to one acceptance-stage timer of `stats`
/// and to `time_concrete`, their sum.
fn charge(stats: &mut SearchStats, timer: fn(&mut SearchStats) -> &mut Duration, since: Instant) {
    let d = since.elapsed();
    *timer(stats) += d;
    stats.time_concrete += d;
}

/// The pruning oracle consulted on every partial query (line 13 of
/// Algorithm 1). Implementations: [`ProvenanceAnalyzer`] (this paper),
/// plus the type/value abstraction baselines in `sickle-baselines`.
pub trait Analyzer {
    /// Short name used in experiment reports.
    fn name(&self) -> &'static str;

    /// Returns `false` when the partial query provably cannot realize the
    /// demonstration (safe to prune).
    fn is_feasible(&self, pq: &PQuery, ctx: &TaskContext) -> bool;
}

/// The paper's analyzer: abstract data provenance (Fig. 11 + Def. 3).
#[derive(Debug, Clone, Copy, Default)]
pub struct ProvenanceAnalyzer;

impl Analyzer for ProvenanceAnalyzer {
    fn name(&self) -> &'static str {
        "provenance"
    }

    fn is_feasible(&self, pq: &PQuery, ctx: &TaskContext) -> bool {
        match abstract_evaluate_rc(pq, ctx.inputs(), &ctx.universe, &ctx.eval_cache) {
            // Def. 3 through the cross-sibling cache: sibling expansions
            // that abstract to the same id-grid share one verdict.
            Ok(abs) => {
                ctx.analysis
                    .consistent(&ctx.demo_token, &ctx.demo_ref_ids, &abs.sets, ctx.pool())
            }
            // Ill-formed parameters can never evaluate: prune.
            Err(_) => false,
        }
    }
}

/// Ablation analyzer that never prunes (plain enumerative search).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoPruneAnalyzer;

impl Analyzer for NoPruneAnalyzer {
    fn name(&self) -> &'static str {
        "no-prune"
    }

    fn is_feasible(&self, _pq: &PQuery, _ctx: &TaskContext) -> bool {
        true
    }
}

/// Result of a synthesis run: consistent queries in discovery order
/// (rank 1 first) plus search statistics.
///
/// Marked `#[non_exhaustive]` so future per-run data (cache statistics,
/// per-solution provenance) can be added without a breaking change.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct SynthResult {
    /// Consistent queries, ranked by discovery order (BFS ⇒ smaller
    /// queries first, the paper's size-based ranking).
    pub solutions: Vec<Query>,
    /// Search statistics.
    pub stats: SearchStats,
}

/// The search behind [`crate::Session::solve`] / [`crate::Session::submit`]
/// (Algorithm 1): one work list over the size-ordered skeletons of
/// `request` (or its explicit seeds), run on the calling thread until the
/// work list empties, the request's [`crate::Budget`] expires, `cancel`
/// fires, `stop` accepts a solution or `budget.max_solutions` consistent
/// queries are found. `ctx` is built from `request.task` over the
/// session's warm pool and analysis cache; the live counters are
/// published to `shared` so another thread can read progress.
///
/// # Errors
///
/// Returns [`SickleError::Internal`] when a search invariant breaks (a
/// candidate that reports concrete but fails to convert, a candidate
/// evaluated without provenance) — a malformed candidate surfaces
/// as a structured error instead of a panic that would kill a warm
/// service process. Budget expiry is *not* an error (`stats.timed_out`).
pub(crate) fn run_search(
    ctx: &TaskContext,
    request: &SynthRequest,
    cancel: &CancelToken,
    mut stop: impl FnMut(&Query) -> bool,
    shared: &SharedStats,
) -> Result<SynthResult, SickleError> {
    let started = Instant::now();
    let budget = &request.budget;
    let deadline = budget.deadline_from(started);
    let config = &request.search;
    let analyzer = request.analyzer.make();
    // Baseline for `reused_verdicts`: the verdict hits this thread was
    // served before this run (other requests on the session's shared
    // cache run on other threads and do not move it).
    let hits_base = AnalysisCache::thread_hits();
    let seeds = match &request.seeds {
        Some(seeds) => seeds.clone(),
        None => construct_skeletons(ctx, config),
    };
    let mut stats = SearchStats::default();
    let mut solutions = Vec::new();
    let mut work: VecDeque<PQuery> = seeds.into();
    // pop_back consumes from the end: reverse so smaller skeletons run first.
    work.make_contiguous().reverse();
    let live = &shared.live;
    // The engine cache adds to its own counter rows; they are drained
    // into this run's stats and the live counters once per visited query,
    // and the resident bytes (shared pool and analysis cache plus the
    // engine cache) are published to the live `mem_bytes` gauge as they
    // move.
    let mut cache_bytes = 0;
    let mut drain_cache = |stats: &mut SearchStats| {
        let rows = ctx.eval_cache.take_counters();
        let bytes = ctx.eval_cache.resident_bytes();
        if rows == SearchStats::default() && bytes == cache_bytes {
            return; // happy path: no insert or sweep since the last drain
        }
        stats.merge(&rows);
        live.add(&rows);
        cache_bytes = bytes;
        // The shared footprint only moves when the engine cache grew or
        // churned, which is exactly when the pool was growing too.
        let shared_bytes = (ctx.pool().approx_bytes() + ctx.analysis.approx_bytes()) as u64;
        live.mem_bytes
            .store(shared_bytes.saturating_add(bytes), Ordering::Relaxed);
    };

    // Depth-first exploration: the skeleton seeds are size-ordered, and
    // LIFO keeps the live frontier small (the BFS of Algorithm 1 is
    // semantically identical but holds millions of partial queries in
    // memory; solutions are ranked by size below, exactly as the paper
    // ranks by query size).
    while let Some(pq) = work.pop_back() {
        if deadline.is_some_and(|d| Instant::now() > d)
            || budget.max_visited.is_some_and(|max| stats.visited >= max)
            || cancel.is_canceled()
        {
            stats.timed_out = true;
            break;
        }
        stats.visited += 1;
        live.visited.fetch_add(1, Ordering::Relaxed);
        drain_cache(&mut stats);

        if pq.is_concrete() {
            stats.concrete_checked += 1;
            live.concrete_checked.fetch_add(1, Ordering::Relaxed);
            // Free static reject: a candidate with fewer columns than the
            // demonstration can never host it, so skip its evaluation.
            // The pruning analyzers discard such sources before they get
            // here; under `no-prune` it fires and saves the evaluations.
            let demo_cols = ctx.demo_refs.n_cols();
            if pq.n_cols(&ctx.input_arities).is_some_and(|n| n < demo_cols) {
                stats.arity_skipped += 1;
                continue;
            }
            let Some(q) = pq.to_concrete() else {
                return Err(SickleError::Internal {
                    message: format!("candidate {pq} reported concrete but failed to convert"),
                });
            };
            let mut cost = SearchStats::default();
            let consistent = ctx.accept(&q, &mut cost)?;
            stats.merge(&cost);
            live.add(&cost);
            if consistent {
                let done = stop(&q);
                solutions.push(q);
                shared.solutions.fetch_add(1, Ordering::Relaxed);
                if done || solutions.len() >= budget.max_solutions {
                    break;
                }
            }
            continue;
        }

        let t0 = Instant::now();
        let feasible = analyzer.is_feasible(&pq, ctx);
        stats.time_analyze += t0.elapsed();
        if !feasible {
            stats.pruned += 1;
            live.pruned.fetch_add(1, Ordering::Relaxed);
            continue;
        }

        let t0 = Instant::now();
        let children = expand(&pq, ctx, config);
        stats.time_expand += t0.elapsed();
        stats.expanded += children.len();
        work.extend(children);
    }

    stats.elapsed = started.elapsed();
    // Charge the derived channels built since the engine cache's last
    // sweep before the final reading.
    ctx.eval_cache.remeasure();
    drain_cache(&mut stats);
    // Resident bytes at run end: shared structures (pool + analysis
    // memos) plus this run's live engine-cache footprint.
    stats.mem_bytes = ctx.pool().approx_bytes()
        + ctx.analysis.approx_bytes()
        + usize::try_from(cache_bytes).unwrap_or(usize::MAX);
    live.mem_bytes
        .store(stats.mem_bytes as u64, Ordering::Relaxed);
    stats.reused_verdicts = AnalysisCache::thread_hits() - hits_base;
    live.reused_verdicts
        .fetch_add(stats.reused_verdicts as u64, Ordering::Relaxed);
    // Rank by query size (stable: discovery order breaks ties), matching
    // the paper's size-based ranking of consistent queries.
    solutions.sort_by_key(Query::size);
    Ok(SynthResult { solutions, stats })
}

// ---------------------------------------------------------------------------
// Skeleton construction
// ---------------------------------------------------------------------------

/// Enumerates query skeletons up to `config.max_depth` operators: chains of
/// `chain_ops` over each input table and (optionally) over `join` /
/// `left_join` of two inputs, all parameters unfilled.
pub fn construct_skeletons(ctx: &TaskContext, config: &SynthConfig) -> Vec<PQuery> {
    let mut bases: Vec<(PQuery, usize)> = (0..ctx.task.inputs.len())
        .map(|k| (PQuery::Input(k), 0))
        .collect();
    if config.enable_join {
        for i in 0..ctx.task.inputs.len() {
            for j in 0..ctx.task.inputs.len() {
                if i == j {
                    continue;
                }
                // Cross product commutes up to column order (which table
                // matching absorbs), so keep one orientation.
                if i < j {
                    bases.push((
                        PQuery::Join {
                            left: Box::new(PQuery::Input(i)),
                            right: Box::new(PQuery::Input(j)),
                        },
                        1,
                    ));
                }
                // Left joins are order-sensitive: keep both orientations.
                bases.push((
                    PQuery::LeftJoin {
                        left: Box::new(PQuery::Input(i)),
                        right: Box::new(PQuery::Input(j)),
                        pred: None,
                    },
                    1,
                ));
            }
        }
    }

    let mut out: Vec<(PQuery, Option<OpKind>)> = Vec::new();
    for (base, base_size) in &bases {
        let budget = config.max_depth.saturating_sub(*base_size);
        let mut chains: Vec<(PQuery, Option<OpKind>)> = vec![(base.clone(), None)];
        out.push((base.clone(), None));
        for _ in 0..budget {
            let mut next = Vec::new();
            for (q, last) in &chains {
                for &op in &config.chain_ops {
                    if config.forbid_trivial_repeats
                        && matches!(op, OpKind::Filter | OpKind::Sort)
                        && *last == Some(op)
                    {
                        continue;
                    }
                    let wrapped = wrap(op, q.clone());
                    out.push((wrapped.clone(), Some(op)));
                    next.push((wrapped, Some(op)));
                }
            }
            chains = next;
        }
    }
    // Explore smaller skeletons first; among equal sizes, prefer families
    // whose *root* operator can produce the top-level structure of the
    // demonstrated cells (an arithmetic formula needs an `arithmetic` root,
    // a `rank(…)` cell needs a `partition` root, …). This only reorders the
    // work list — the explored space is unchanged, and the order is shared
    // by every analyzer, as §5.1 requires for a fair comparison.
    let preferred = preferred_roots(ctx.demo());
    out.sort_by_key(|(q, root)| {
        let penalty = match root {
            Some(op) => usize::from(!preferred.contains(op)),
            None => 0,
        };
        (q.size(), penalty)
    });
    out.into_iter().map(|(q, _)| q).collect()
}

/// Root operators compatible with the demonstration's top-level cell
/// structure (see [`construct_skeletons`]).
fn preferred_roots(demo: &Demo) -> Vec<OpKind> {
    use sickle_provenance::{DemoExpr, FuncName};
    let mut want: Vec<OpKind> = Vec::new();
    let mut push = |op: OpKind| {
        if !want.contains(&op) {
            want.push(op);
        }
    };
    for i in 0..demo.n_rows() {
        for j in 0..demo.n_cols() {
            match demo.cell(i, j) {
                DemoExpr::Apply { func, .. } => match func {
                    FuncName::Op(_) => push(OpKind::Arith),
                    FuncName::Rank | FuncName::DenseRank => push(OpKind::Partition),
                    FuncName::Agg(_) => {
                        push(OpKind::Group);
                        push(OpKind::Partition);
                    }
                },
                DemoExpr::Ref(_) | DemoExpr::Const(_) => {}
            }
        }
    }
    if want.is_empty() {
        // Pure-reference demos constrain nothing: all roots equal.
        want.extend(OpKind::ALL);
    }
    want
}

fn wrap(op: OpKind, src: PQuery) -> PQuery {
    let src = Box::new(src);
    match op {
        OpKind::Group => PQuery::Group {
            src,
            keys: None,
            agg: None,
        },
        OpKind::Partition => PQuery::Partition {
            src,
            keys: None,
            func: None,
        },
        OpKind::Arith => PQuery::Arith { src, func: None },
        OpKind::Filter => PQuery::Filter { src, pred: None },
        OpKind::Sort => PQuery::Sort { src, params: None },
    }
}

// ---------------------------------------------------------------------------
// Hole selection and domains
// ---------------------------------------------------------------------------

/// Expands the next hole of `pq` with every value of its inferred domain,
/// returning the children (lines 15–17 of Algorithm 1).
///
/// Hole order is strictly bottom-up in evaluation order (source-first walk;
/// within an operator, keys before the aggregation choice). Finishing inner
/// operators first makes their subqueries concrete as early as possible,
/// which is exactly what unlocks the *strong* abstraction for the operators
/// above them (§4) — this matches the paper's Fig. 6 state, where the inner
/// `group`'s keys are filled while everything above is still abstract.
pub fn expand(pq: &PQuery, ctx: &TaskContext, config: &SynthConfig) -> Vec<PQuery> {
    let mut counter = 0usize;
    fill_hole(pq, 0, &mut counter, ctx, config)
}

/// Walks the tree source-first; when the running hole counter hits
/// `chosen`, instantiates that hole with every domain value and returns the
/// resulting queries.
fn fill_hole(
    pq: &PQuery,
    chosen: usize,
    counter: &mut usize,
    ctx: &TaskContext,
    config: &SynthConfig,
) -> Vec<PQuery> {
    // Helper: if this node's own hole is the chosen one, produce the filled
    // variants; `counter` must be advanced for every hole encountered.
    macro_rules! descend {
        ($src:expr, $rebuild:expr) => {{
            let subs = fill_hole($src, chosen, counter, ctx, config);
            subs.into_iter().map($rebuild).collect::<Vec<PQuery>>()
        }};
    }

    match pq {
        PQuery::Input(_) => Vec::new(),
        PQuery::Filter { src, pred } => {
            let from_src = descend!(src, |s| PQuery::Filter {
                src: Box::new(s),
                pred: pred.clone(),
            });
            if !from_src.is_empty() {
                return from_src;
            }
            if pred.is_none() {
                let here = *counter == chosen;
                *counter += 1;
                if here {
                    return filter_pred_domain(src, ctx, config)
                        .into_iter()
                        .map(|p| PQuery::Filter {
                            src: src.clone(),
                            pred: Some(p),
                        })
                        .collect();
                }
            }
            Vec::new()
        }
        PQuery::Join { left, right } => {
            let from_left = descend!(left, |s| PQuery::Join {
                left: Box::new(s),
                right: right.clone(),
            });
            if !from_left.is_empty() {
                return from_left;
            }
            descend!(right, |s| PQuery::Join {
                left: left.clone(),
                right: Box::new(s),
            })
        }
        PQuery::LeftJoin { left, right, pred } => {
            let from_left = descend!(left, |s| PQuery::LeftJoin {
                left: Box::new(s),
                right: right.clone(),
                pred: pred.clone(),
            });
            if !from_left.is_empty() {
                return from_left;
            }
            let from_right = descend!(right, |s| PQuery::LeftJoin {
                left: left.clone(),
                right: Box::new(s),
                pred: pred.clone(),
            });
            if !from_right.is_empty() {
                return from_right;
            }
            if pred.is_none() {
                let here = *counter == chosen;
                *counter += 1;
                if here {
                    return join_pred_domain(left, right, ctx)
                        .into_iter()
                        .map(|p| PQuery::LeftJoin {
                            left: left.clone(),
                            right: right.clone(),
                            pred: Some(p),
                        })
                        .collect();
                }
            }
            Vec::new()
        }
        PQuery::Proj { src, cols } => {
            let from_src = descend!(src, |s| PQuery::Proj {
                src: Box::new(s),
                cols: cols.clone(),
            });
            if !from_src.is_empty() {
                return from_src;
            }
            if cols.is_none() {
                let here = *counter == chosen;
                *counter += 1;
                if here {
                    // Projection is subsumed by subtable matching; domain is
                    // the identity projection only.
                    if let Some(n) = src.n_cols(&ctx.input_arities) {
                        return vec![PQuery::Proj {
                            src: src.clone(),
                            cols: Some((0..n).collect()),
                        }];
                    }
                }
            }
            Vec::new()
        }
        PQuery::Sort { src, params } => {
            let from_src = descend!(src, |s| PQuery::Sort {
                src: Box::new(s),
                params: params.clone(),
            });
            if !from_src.is_empty() {
                return from_src;
            }
            if params.is_none() {
                let here = *counter == chosen;
                *counter += 1;
                if here {
                    let Some(n) = src.n_cols(&ctx.input_arities) else {
                        return Vec::new();
                    };
                    let mut out = Vec::with_capacity(n * 2);
                    for c in 0..n {
                        for asc in [true, false] {
                            out.push(PQuery::Sort {
                                src: src.clone(),
                                params: Some((vec![c], asc)),
                            });
                        }
                    }
                    return out;
                }
            }
            Vec::new()
        }
        PQuery::Group { src, keys, agg } => {
            let from_src = descend!(src, |s| PQuery::Group {
                src: Box::new(s),
                keys: keys.clone(),
                agg: *agg,
            });
            if !from_src.is_empty() {
                return from_src;
            }
            if keys.is_none() {
                let here = *counter == chosen;
                *counter += 1;
                if here {
                    return key_subsets(src, ctx, config, config.max_key_cols)
                        .into_iter()
                        .map(|ks| PQuery::Group {
                            src: src.clone(),
                            keys: Some(ks),
                            agg: *agg,
                        })
                        .collect();
                }
            }
            if agg.is_none() {
                let here = *counter == chosen;
                *counter += 1;
                if here {
                    let keys = keys.as_deref().unwrap_or(&[]);
                    return agg_domain(src, keys, ctx)
                        .into_iter()
                        .map(|(a, t)| PQuery::Group {
                            src: src.clone(),
                            keys: Some(keys.to_vec()),
                            agg: Some((a, t)),
                        })
                        .collect();
                }
            }
            Vec::new()
        }
        PQuery::Partition { src, keys, func } => {
            let from_src = descend!(src, |s| PQuery::Partition {
                src: Box::new(s),
                keys: keys.clone(),
                func: *func,
            });
            if !from_src.is_empty() {
                return from_src;
            }
            if keys.is_none() {
                let here = *counter == chosen;
                *counter += 1;
                if here {
                    return key_subsets(src, ctx, config, config.max_partition_cols)
                        .into_iter()
                        .map(|ks| PQuery::Partition {
                            src: src.clone(),
                            keys: Some(ks),
                            func: *func,
                        })
                        .collect();
                }
            }
            if func.is_none() {
                let here = *counter == chosen;
                *counter += 1;
                if here {
                    let keys = keys.as_deref().unwrap_or(&[]);
                    return analytic_domain(src, keys, ctx)
                        .into_iter()
                        .map(|(f, t)| PQuery::Partition {
                            src: src.clone(),
                            keys: Some(keys.to_vec()),
                            func: Some((f, t)),
                        })
                        .collect();
                }
            }
            Vec::new()
        }
        PQuery::Arith { src, func } => {
            let from_src = descend!(src, |s| PQuery::Arith {
                src: Box::new(s),
                func: func.clone(),
            });
            if !from_src.is_empty() {
                return from_src;
            }
            if func.is_none() {
                let here = *counter == chosen;
                *counter += 1;
                if here {
                    return arith_domain(src, ctx, config)
                        .into_iter()
                        .map(|(f, cols)| PQuery::Arith {
                            src: src.clone(),
                            func: Some((f, cols)),
                        })
                        .collect();
                }
            }
            Vec::new()
        }
    }
}

/// Column "kinds" of a subquery output, available only when the subquery is
/// concrete: `true` marks a numeric column.
fn numeric_cols(src: &PQuery, ctx: &TaskContext) -> Option<Vec<bool>> {
    let q = src.to_concrete()?;
    // Values-level evaluation suffices here; the abstract analyzer will
    // upgrade the cache entry to the full channels when it needs them.
    let exec = ctx
        .eval_cache
        .exec(&q, Semantics::Values, ctx.inputs())
        .ok()?;
    let t = exec.table();
    let mut numeric = vec![false; t.n_cols()];
    for (c, flag) in numeric.iter_mut().enumerate() {
        let mut any = false;
        let mut all_num = true;
        for i in 0..t.n_rows() {
            let v = t.get(i, c).expect("in range");
            if !v.is_null() {
                any = true;
                all_num &= v.is_numeric();
            }
        }
        *flag = any && all_num;
    }
    Some(numeric)
}

/// Key-column subsets in increasing size (optionally including the empty
/// set), up to `max_cols` columns.
fn key_subsets(
    src: &PQuery,
    ctx: &TaskContext,
    config: &SynthConfig,
    max_cols: usize,
) -> Vec<Vec<usize>> {
    let Some(n) = src.n_cols(&ctx.input_arities) else {
        return Vec::new();
    };
    let mut out: Vec<Vec<usize>> = Vec::new();
    if config.allow_empty_keys {
        out.push(Vec::new());
    }
    let cap = max_cols.min(n);
    let mut current: Vec<Vec<usize>> = (0..n).map(|c| vec![c]).collect();
    for size in 1..=cap {
        out.extend(current.iter().cloned());
        if size == cap {
            break;
        }
        let mut next = Vec::new();
        for subset in &current {
            let last = *subset.last().expect("non-empty");
            for c in last + 1..n {
                let mut bigger = subset.clone();
                bigger.push(c);
                next.push(bigger);
            }
        }
        current = next;
    }
    out
}

/// Aggregation function × target column domain for `group`.
fn agg_domain(src: &PQuery, keys: &[usize], ctx: &TaskContext) -> Vec<(AggFunc, usize)> {
    let Some(n) = src.n_cols(&ctx.input_arities) else {
        return Vec::new();
    };
    let numeric = numeric_cols(src, ctx);
    let mut out = Vec::new();
    for agg in AggFunc::ALL {
        for t in 0..n {
            if keys.contains(&t) {
                continue;
            }
            if matches!(agg, AggFunc::Sum | AggFunc::Avg) {
                if let Some(num) = &numeric {
                    if !num[t] {
                        continue;
                    }
                }
            }
            out.push((agg, t));
        }
    }
    out
}

/// Analytical function × target column domain for `partition`.
fn analytic_domain(src: &PQuery, keys: &[usize], ctx: &TaskContext) -> Vec<(AnalyticFunc, usize)> {
    let Some(n) = src.n_cols(&ctx.input_arities) else {
        return Vec::new();
    };
    let numeric = numeric_cols(src, ctx);
    let mut out = Vec::new();
    for func in AnalyticFunc::ALL {
        for t in 0..n {
            if keys.contains(&t) {
                continue;
            }
            let needs_numeric = matches!(
                func,
                AnalyticFunc::Agg(AggFunc::Sum)
                    | AnalyticFunc::Agg(AggFunc::Avg)
                    | AnalyticFunc::CumSum
            );
            if needs_numeric {
                if let Some(num) = &numeric {
                    if !num[t] {
                        continue;
                    }
                }
            }
            out.push((func, t));
        }
    }
    out
}

/// True when swapping the two parameters of a binary template yields a
/// structurally identical function (then `(a, b)` and `(b, a)` argument
/// bindings are equivalent and only one is enumerated).
fn is_symmetric(template: &ArithExpr) -> bool {
    fn swap(e: &ArithExpr) -> ArithExpr {
        match e {
            ArithExpr::Param(0) => ArithExpr::Param(1),
            ArithExpr::Param(1) => ArithExpr::Param(0),
            ArithExpr::Param(i) => ArithExpr::Param(*i),
            ArithExpr::Lit(v) => ArithExpr::Lit(v.clone()),
            ArithExpr::Bin(op, l, r) => ArithExpr::Bin(*op, Box::new(swap(l)), Box::new(swap(r))),
        }
    }
    let swapped = swap(template);
    // Commutative root also makes arg order irrelevant: a + b == b + a.
    let comm_root = matches!(
        template,
        ArithExpr::Bin(op, l, r)
            if op.is_commutative()
                && matches!((l.as_ref(), r.as_ref()), (ArithExpr::Param(_), ArithExpr::Param(_)))
    );
    swapped == *template || comm_root
}

/// Arithmetic template × argument column tuples.
fn arith_domain(
    src: &PQuery,
    ctx: &TaskContext,
    config: &SynthConfig,
) -> Vec<(ArithExpr, Vec<usize>)> {
    let Some(n) = src.n_cols(&ctx.input_arities) else {
        return Vec::new();
    };
    let numeric = numeric_cols(src, ctx);
    let is_num = |c: usize| numeric.as_ref().is_none_or(|v| v[c]);
    let mut out = Vec::new();
    for template in &config.arith_templates {
        match template.arity() {
            1 => {
                for c in (0..n).filter(|&c| is_num(c)) {
                    out.push((template.clone(), vec![c]));
                }
            }
            2 => {
                let symmetric = is_symmetric(template);
                for a in (0..n).filter(|&c| is_num(c)) {
                    for b in (0..n).filter(|&c| is_num(c)) {
                        if a == b {
                            continue;
                        }
                        if symmetric && a > b {
                            continue;
                        }
                        out.push((template.clone(), vec![a, b]));
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Filter predicates: column–constant comparisons using demonstration
/// constants (§5.1 — Sickle does not invent constants).
fn filter_pred_domain(src: &PQuery, ctx: &TaskContext, _config: &SynthConfig) -> Vec<Pred> {
    let Some(n) = src.n_cols(&ctx.input_arities) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for c in 0..n {
        for v in &ctx.constants {
            let ops: &[CmpOp] = if v.is_numeric() {
                &CmpOp::ALL
            } else {
                &[CmpOp::Eq]
            };
            for &op in ops {
                out.push(Pred::ColConst(c, op, v.clone()));
            }
        }
    }
    out
}

/// Join predicates from declared key pairs: only pairs matching the two
/// joined inputs are considered.
fn join_pred_domain(left: &PQuery, right: &PQuery, ctx: &TaskContext) -> Vec<Pred> {
    let (PQuery::Input(li), PQuery::Input(ri)) = (left, right) else {
        return Vec::new();
    };
    let left_arity = ctx.input_arities[*li];
    ctx.task
        .join_keys
        .iter()
        .filter_map(|jk| {
            if jk.left_table == *li && jk.right_table == *ri {
                Some(Pred::ColCmp(
                    jk.left_col,
                    CmpOp::Eq,
                    left_arity + jk.right_col,
                ))
            } else if jk.left_table == *ri && jk.right_table == *li {
                Some(Pred::ColCmp(
                    jk.right_col,
                    CmpOp::Eq,
                    left_arity + jk.left_col,
                ))
            } else {
                None
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnalyzerChoice, Budget};
    use sickle_provenance::Demo;

    /// A request over `ctx`'s task at `max_depth` under `budget`.
    fn request(ctx: &TaskContext, max_depth: usize, budget: Budget) -> SynthRequest {
        SynthRequest::from_task(ctx.task.clone())
            .with_max_depth(max_depth)
            .with_budget(budget)
    }

    /// Algorithm 1 over the full skeleton list.
    fn search(ctx: &TaskContext, request: &SynthRequest) -> SynthResult {
        run_search(
            ctx,
            request,
            &CancelToken::new(),
            |_| false,
            &SharedStats::default(),
        )
        .expect("search runs")
    }

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
                vec![
                    "B".into(),
                    1.into(),
                    "Youth".into(),
                    2578.into(),
                    10541.into(),
                ],
                vec![
                    "B".into(),
                    1.into(),
                    "Adult".into(),
                    1200.into(),
                    10541.into(),
                ],
            ],
        )
        .unwrap()
    }

    fn fig3_task() -> TaskContext {
        let demo = Demo::parse(&[
            &["T[1,1]", "T[1,2]", "sum(T[1,4], T[2,4]) / T[1,5] * 100"],
            &[
                "T[7,1]",
                "T[7,2]",
                "sum(T[1,4], T[2,4], ..., T[8,4]) / T[7,5] * 100",
            ],
        ])
        .unwrap();
        TaskContext::new(SynthTask::new(vec![enrollment()], demo))
    }

    #[test]
    fn skeleton_count_and_ordering() {
        let ctx = fig3_task();
        let config = SynthConfig::default();
        let skels = construct_skeletons(&ctx, &config);
        // 1 base + 3 + 9 + 27 chains over 3 ops at depth 3.
        assert_eq!(skels.len(), 40);
        // Sorted by size.
        for w in skels.windows(2) {
            assert!(w[0].size() <= w[1].size());
        }
    }

    #[test]
    fn key_subsets_increasing_size() {
        let ctx = fig3_task();
        let config = SynthConfig::default();
        let subs = key_subsets(&PQuery::Input(0), &ctx, &config, config.max_key_cols);
        assert_eq!(subs[0], Vec::<usize>::new());
        assert!(subs.contains(&vec![0, 1, 4]));
        // sizes monotone
        for w in subs.windows(2) {
            assert!(w[0].len() <= w[1].len());
        }
    }

    #[test]
    fn expand_fills_keys_first() {
        let ctx = fig3_task();
        let config = SynthConfig::default();
        let pq = PQuery::Arith {
            src: Box::new(PQuery::Group {
                src: Box::new(PQuery::Input(0)),
                keys: None,
                agg: None,
            }),
            func: None,
        };
        let children = expand(&pq, &ctx, &config);
        assert!(!children.is_empty());
        for child in &children {
            match child {
                PQuery::Arith { src, func } => {
                    assert!(func.is_none());
                    match src.as_ref() {
                        PQuery::Group { keys, agg, .. } => {
                            assert!(keys.is_some(), "keys must fill first");
                            assert!(agg.is_none());
                        }
                        other => panic!("unexpected {other}"),
                    }
                }
                other => panic!("unexpected {other}"),
            }
        }
    }

    #[test]
    fn agg_domain_respects_keys_and_types() {
        let ctx = fig3_task();
        let dom = agg_domain(&PQuery::Input(0), &[0, 1, 4], &ctx);
        // Sum/Avg only over Enrolled (column 3); Group (col 2) is a string.
        assert!(dom.contains(&(AggFunc::Sum, 3)));
        assert!(!dom.contains(&(AggFunc::Sum, 2)));
        assert!(dom.contains(&(AggFunc::Count, 2)));
        assert!(!dom.iter().any(|(_, t)| *t == 0 || *t == 1 || *t == 4));
    }

    #[test]
    fn arith_domain_dedups_symmetric_templates() {
        let ctx = fig3_task();
        let config = SynthConfig {
            arith_templates: vec![
                ArithExpr::bin(
                    sickle_table::ArithOp::Add,
                    ArithExpr::Param(0),
                    ArithExpr::Param(1),
                ),
                ArithExpr::bin(
                    sickle_table::ArithOp::Div,
                    ArithExpr::Param(0),
                    ArithExpr::Param(1),
                ),
            ],
            ..SynthConfig::default()
        };
        let dom = arith_domain(&PQuery::Input(0), &ctx, &config);
        // Numeric columns of the input: 1 (Quarter), 3, 4 — so 3 choices.
        // Add: C(3,2)=3 unordered pairs; Div: 3*2=6 ordered pairs.
        assert_eq!(dom.len(), 3 + 6);
    }

    #[test]
    fn synthesizes_group_sum_from_demo() {
        // Simple task: total enrolled per (city, quarter).
        let demo = Demo::parse(&[
            &["T[1,1]", "sum(T[1,4], T[2,4])"],
            &["T[3,1]", "sum(T[3,4], T[4,4])"],
        ])
        .unwrap();
        let ctx = TaskContext::new(SynthTask::new(vec![enrollment()], demo));
        let res = search(
            &ctx,
            &request(&ctx, 1, Budget::default().with_max_solutions(5)),
        );
        assert!(!res.solutions.is_empty(), "stats: {:?}", res.stats);
        // The first solution must be a group-by containing City with sum(Enrolled).
        let q = &res.solutions[0];
        match q {
            Query::Group {
                keys, agg, target, ..
            } => {
                assert!(keys.contains(&0));
                assert_eq!((*agg, *target), (AggFunc::Sum, 3));
            }
            other => panic!("unexpected solution {other}"),
        }
    }

    #[test]
    fn running_example_synthesis_with_pruning() {
        let ctx = fig3_task();
        let budget = Budget::default()
            .with_max_solutions(1)
            .with_timeout(Some(Duration::from_secs(120)));
        let res = search(&ctx, &request(&ctx, 3, budget));
        assert!(
            !res.solutions.is_empty(),
            "no solution; stats {:?}",
            res.stats
        );
        let q = &res.solutions[0];
        // Solution must be arithmetic over partition over group.
        let shown = q.to_string();
        assert!(shown.contains("group"), "{shown}");
        assert!(shown.contains("partition"), "{shown}");
        assert!(shown.contains("arithmetic"), "{shown}");
    }

    #[test]
    fn pruning_reduces_visits() {
        let ctx = fig3_task();
        let budget = Budget::default()
            .with_max_solutions(1)
            .with_max_visited(Some(200_000));
        let with = request(&ctx, 2, budget);
        let without = with.clone().with_analyzer(AnalyzerChoice::NoPrune);
        let (with, without) = (search(&ctx, &with), search(&ctx, &without));
        // Neither finds a depth-2 solution; pruning must visit far fewer.
        assert!(with.solutions.is_empty());
        assert!(
            with.stats.visited < without.stats.visited,
            "with={} without={}",
            with.stats.visited,
            without.stats.visited
        );
    }

    #[test]
    fn expand_speed_probe() {
        let ctx = fig3_task();
        let config = SynthConfig::default();
        let pq = PQuery::Arith {
            src: Box::new(PQuery::Partition {
                src: Box::new(PQuery::Group {
                    src: Box::new(PQuery::Input(0)),
                    keys: None,
                    agg: None,
                }),
                keys: None,
                func: None,
            }),
            func: None,
        };
        let t0 = std::time::Instant::now();
        let children = expand(&pq, &ctx, &config);
        let dt = t0.elapsed();
        assert_eq!(children.len(), 26);
        assert!(dt < Duration::from_millis(500), "expand took {dt:?}");
    }

    #[test]
    fn cache_policy_threads_through_the_search() {
        let ctx = TaskContext::with_policy(
            SynthTask::new(
                vec![enrollment()],
                Demo::parse(&[
                    &["T[1,1]", "sum(T[1,4], T[2,4])"],
                    &["T[3,1]", "sum(T[3,4], T[4,4])"],
                ])
                .unwrap(),
            ),
            crate::CachePolicy::default().with_cap(8),
        );
        assert_eq!(ctx.eval_cache.policy().cap, 8);
        // Depth 2: the store holds subqueries only, and a depth-1 search
        // stores nothing but its input, so it could never fill the cap.
        let res = search(
            &ctx,
            &request(&ctx, 2, Budget::default().with_max_solutions(10)),
        );
        assert!(!res.solutions.is_empty());
        // A cap this small must have swept, and every row the cache
        // counted reached the run's stats.
        assert!(res.stats.cache_evictions > 0, "{:?}", res.stats);
        assert_eq!(ctx.eval_cache.take_counters(), SearchStats::default());
    }

    #[test]
    fn join_pred_domain_uses_declared_keys() {
        let dims = Table::new(["city", "region"], vec![vec!["A".into(), "w".into()]]).unwrap();
        let demo = Demo::parse(&[&["T[1,1]"]]).unwrap();
        let mut task = SynthTask::new(vec![enrollment(), dims], demo);
        task.join_keys.push(JoinKey {
            left_table: 0,
            left_col: 0,
            right_table: 1,
            right_col: 0,
        });
        let ctx = TaskContext::new(task);
        let dom = join_pred_domain(&PQuery::Input(0), &PQuery::Input(1), &ctx);
        assert_eq!(dom, vec![Pred::ColCmp(0, CmpOp::Eq, 5)]);
        // Reversed orientation also resolves.
        let dom_rev = join_pred_domain(&PQuery::Input(1), &PQuery::Input(0), &ctx);
        assert_eq!(dom_rev, vec![Pred::ColCmp(0, CmpOp::Eq, 2)]);
    }
}
