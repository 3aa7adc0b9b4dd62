//! The search's acceptance path (`TaskContext::accept`: materialization,
//! the dimension fit, the heads gate on the query's static column heads,
//! the cached Def. 3 prefilter on the lazily derived exact ids, seeded
//! Def. 1 match) against the blind check on real search frontiers: an
//! uncached provenance evaluation, blind `find_table_match` reference
//! containment over sets converted from the star, then blind
//! `demo_consistent`. Every candidate must get the same verdict from
//! both, including candidates too narrow or too short to host the
//! demonstration. The cached prefilter verdict must equal direct
//! matching, cold and on a hit; a candidate the heads gate rejects must
//! derive neither its ids nor its star, and one the prefilter rejects
//! must never build its star. `accept` evaluates the candidate itself
//! outside the engine cache; its verdict must equal `accept_exec` on the
//! cached evaluation.

use sickle_benchmarks::{all_benchmarks, frontier_candidates};
use sickle_core::{exec, Pred, Query, SearchStats, Semantics, SynthConfig, SynthTask, TaskContext};
use sickle_provenance::{demo_consistent, find_table_match, Demo, MatchDims, RefSet};
use sickle_table::{AggFunc, CmpOp, Grid, Table, Value};

/// Frontier candidates replayed per task (the search's own visit order).
const CANDIDATES: usize = 300;

/// Direct reference containment of the demonstration in `sets`.
fn contained(ctx: &TaskContext, sets: &Grid<RefSet>) -> bool {
    let dims = MatchDims {
        demo_rows: ctx.demo_refs.n_rows(),
        demo_cols: ctx.demo_refs.n_cols(),
        table_rows: sets.n_rows(),
        table_cols: sets.n_cols(),
    };
    find_table_match(dims, &mut |di, dj, ti, tj| {
        ctx.demo_refs[(di, dj)].is_subset_of(&sets[(ti, tj)])
    })
    .is_some()
}

/// The blind verdicts of `q`: reference containment over the star's
/// converted sets, then acceptance; plus the row count of its result
/// (all `false`/0 when it fails to evaluate).
fn blind_verdict(ctx: &TaskContext, q: &Query) -> (bool, bool, usize) {
    let Ok(result) = exec(Semantics::Provenance, q, ctx.inputs()) else {
        return (false, false, 0);
    };
    let star = result.star();
    let sets = star.map_columns(|col| ctx.universe.column_sets(col));
    let contained = contained(ctx, &sets);
    (
        contained,
        contained && demo_consistent(ctx.demo(), &star).is_some(),
        star.n_rows(),
    )
}

/// What a cross-check saw.
#[derive(Debug, Default)]
struct Seen {
    accepted: usize,
    rejected: usize,
    tallest: usize,
    /// Cached prefilter verdicts checked against direct matching, by
    /// verdict.
    prefilter: [usize; 2],
    /// Prefilter rejects that held no star before acceptance ran.
    starless_rejects: usize,
    /// Heads-gate rejects that held no ids before acceptance ran.
    idless_rejects: usize,
}

/// Runs every frontier candidate of `task`, then `extra`, then `misfits`
/// (which must be rejected), through both paths, asserting equal
/// verdicts. `accept` must agree with `accept_exec` on the cached
/// evaluation. For every candidate that fits the demonstration, the
/// session's cached Def. 3 verdict on its exact ids must equal direct
/// matching, cold and on a hit; a candidate the heads gate rejects must
/// derive neither ids nor a star, and one the prefilter rejects must not
/// build its star.
fn cross_check(
    name: &str,
    task: SynthTask,
    config: &SynthConfig,
    extra: Option<Query>,
    misfits: &[Query],
) -> Seen {
    let ctx = TaskContext::new(task);
    let mut candidates = frontier_candidates(&ctx, config, CANDIDATES, 20_000);
    assert!(!candidates.is_empty(), "{name}: empty frontier");
    candidates.extend(extra);
    let first_misfit = candidates.len();
    candidates.extend_from_slice(misfits);
    let mut stats = SearchStats::default();
    let mut seen = Seen::default();
    let hits_before = ctx.analysis.stats().hits;
    for (i, q) in candidates.iter().enumerate() {
        let (blind_contained, blind, rows) = blind_verdict(&ctx, q);
        let cached = ctx
            .eval_cache
            .exec(q, Semantics::Provenance, ctx.inputs())
            .ok();
        let had_star = cached.as_ref().is_some_and(|c| c.has_star());
        let had_ids = cached.as_ref().is_some_and(|c| c.has_ids());
        let before = stats;
        let staged = ctx
            .accept(q, &mut stats)
            .unwrap_or_else(|e| panic!("{name}: {q}: {e}"));
        assert_eq!(staged, blind, "{name}: verdicts differ on {q}");
        assert!(i < first_misfit || !staged, "{name}: misfit {q} accepted");
        seen.accepted += usize::from(staged);
        seen.tallest = seen.tallest.max(rows);
        let Some(cached) = cached else { continue };
        let mut cached_stats = SearchStats::default();
        let via_cache = ctx
            .accept_exec(q, &cached, &mut cached_stats)
            .unwrap_or_else(|e| panic!("{name}: {q}: {e}"));
        assert_eq!(via_cache, staged, "{name}: accept_exec differs on {q}");
        if stats.heads_rejected > before.heads_rejected {
            assert_eq!(cached_stats.heads_rejected, 1, "{name}: {q}");
            assert_eq!(cached.has_ids(), had_ids, "{name}: {q} derived its ids");
            assert_eq!(cached.has_star(), had_star, "{name}: {q} built its star");
            assert_eq!(stats.stars_built, before.stars_built);
            assert_eq!(cached_stats.stars_built, 0, "{name}: {q} built its star");
            seen.idless_rejects += usize::from(!had_ids);
        }
        if stats.prefilter_rejected > before.prefilter_rejected {
            assert!(!blind_contained, "{name}: prefilter rejected {q}");
            assert_eq!(cached.has_star(), had_star, "{name}: {q} built its star");
            assert_eq!(stats.stars_built, before.stars_built);
            assert_eq!(cached_stats.stars_built, 0, "{name}: {q} built its star");
            seen.starless_rejects += usize::from(!had_star);
        }
        if stats.fit_rejected == before.fit_rejected {
            let ids = cached.set_ids(&ctx.universe, ctx.pool());
            for round in ["cold", "hit"] {
                let verdict =
                    ctx.analysis
                        .consistent(&ctx.demo_token, &ctx.demo_ref_ids, &ids, ctx.pool());
                assert_eq!(verdict, blind_contained, "{name}: {round} prefilter on {q}");
            }
            seen.prefilter[usize::from(blind_contained)] += 1;
        }
    }
    seen.rejected = candidates.len() - seen.accepted;
    assert!(
        ctx.analysis.stats().hits > hits_before,
        "{name}: no prefilter verdict was served from the cache"
    );
    // Every acceptance stage ran and was charged to its timer, and every
    // candidate landed in exactly one funnel row (all of them evaluate).
    assert_eq!(
        stats.time_concrete,
        stats.time_materialize + stats.time_prefilter + stats.time_match
    );
    assert_eq!(
        stats.fit_rejected
            + stats.heads_rejected
            + stats.prefilter_rejected
            + stats.def1_rejected
            + stats.accepted,
        candidates.len(),
        "{name}: {stats:?}"
    );
    assert_eq!(stats.stars_built, stats.def1_rejected + stats.accepted);
    seen
}

/// Two candidates whose results cannot host `task`'s demonstration, so
/// only acceptance's dimension fit rejects them: a projection of the first
/// input one column narrower than the demo, and a group on the first
/// input's first column after a filter leaves that key one value (one
/// row, fewer than the demo's).
fn misfits(task: &SynthTask) -> [Query; 2] {
    let (demo_rows, demo_cols) = (task.demo.n_rows(), task.demo.n_cols());
    let input = || Box::new(Query::Input(0));
    let narrow = Query::Proj {
        src: input(),
        cols: (0..demo_cols - 1).collect(),
    };
    let key = task.inputs[0].column(0)[0].clone();
    let short = Query::Group {
        src: Box::new(Query::Filter {
            src: input(),
            pred: Pred::ColConst(0, CmpOp::Eq, key),
        }),
        keys: vec![0],
        agg: AggFunc::Count,
        target: 0,
    };
    let dims = |q: &Query| {
        let t = exec(Semantics::Values, q, &task.inputs).expect("misfit evaluates");
        (t.table().n_rows(), t.table().n_cols())
    };
    assert!(dims(&narrow).1 < demo_cols, "{narrow} is not narrower");
    assert!(dims(&short).0 < demo_rows, "{short} is not shorter");
    [narrow, short]
}

/// Cross-checks suite task `id` over its frontier plus its ground truth
/// (which realizes the demonstration by construction, so the task sees
/// both verdicts) and its [`misfits`]; `inputs` is the task's input count.
fn check_suite_task(id: usize, inputs: usize) -> Seen {
    let b = all_benchmarks()
        .into_iter()
        .find(|b| b.id == id)
        .expect("suite benchmark exists");
    let (task, _) = b.task(2022).expect("benchmark demo generates");
    assert_eq!(task.inputs.len(), inputs);
    let misfits = misfits(&task);
    let seen = cross_check(
        b.name,
        task,
        &b.config(),
        Some(b.ground_truth.clone()),
        &misfits,
    );
    assert!(seen.accepted > 0 && seen.rejected > 0, "{seen:?}");
    assert!(
        seen.prefilter[0] > 0 && seen.prefilter[1] > 0,
        "both prefilter verdicts: {seen:?}"
    );
    assert!(seen.idless_rejects > 0, "{seen:?}");
    seen
}

#[test]
fn one_table_suite_task_agrees_with_blind_check() {
    check_suite_task(8, 1);
}

#[test]
fn join_suite_task_agrees_with_blind_check() {
    check_suite_task(54, 2);
}

/// On tasks 8 and 54 the heads gate rejects every candidate that fails
/// Def. 3, so the prefilter's own rejects are checked on join task 63,
/// whose frontier reaches them.
#[test]
fn prefilter_rejects_build_no_star() {
    let seen = check_suite_task(63, 2);
    assert!(seen.starless_rejects > 0, "{seen:?}");
}

/// A 150-row input: windows and arithmetic keep every row, so their
/// results are tall, and the input's 300 cells take the reference sets
/// past their 128 inline bits.
#[test]
fn stars_over_the_bulk_threshold_agree_with_blind_check() {
    let rows = (0..150)
        .map(|i: i64| vec![Value::from(format!("r{}", i % 3)), Value::Int(i % 7 + 1)])
        .collect();
    let table = Table::new(["region", "amount"], rows).expect("rectangular");
    // A per-region window sum: rows 1, 4, … share region r0.
    let demo = Demo::parse(&[
        &["T[1,1]", "T[1,2]", "sum(T[1,2], T[4,2], ...)"],
        &["T[2,1]", "T[2,2]", "sum(T[2,2], T[5,2], ...)"],
    ])
    .expect("demo parses");
    let config = SynthConfig::default().with_max_depth(2);
    let seen = cross_check(
        "window sum",
        SynthTask::new(vec![table], demo),
        &config,
        None,
        &[],
    );
    assert!(seen.tallest > 128, "{seen:?}");
    assert!(seen.accepted > 0 && seen.rejected > 0, "{seen:?}");
    assert!(seen.prefilter[0] > 0 && seen.prefilter[1] > 0, "{seen:?}");
}
