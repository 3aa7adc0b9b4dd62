//! Eviction-policy tests: the spilling engine cache must be
//! *transparent* — any policy, at any cap, produces byte-identical
//! results to a never-evicting cache — and the churn counters that track
//! its behavior must hold their regression properties on the join-heavy
//! suite tasks that churn it (54, 63). The sweep picks its victims from
//! the insert and probe sequence alone, so every non-time counter of a
//! run repeats exactly.

use sickle_benchmarks::{all_benchmarks, frontier_candidates};
use sickle_core::{
    Budget, CachePolicy, ExecTable, SearchStats, Semantics, Session, SynthRequest, SynthResult,
    TaskContext, Unit,
};
use sickle_provenance::RefSet;
use sickle_table::Grid;

/// The reference sets of `exec`'s cells, read through `ctx`'s lazy id
/// channel.
fn sets(ctx: &TaskContext, exec: &ExecTable) -> Grid<RefSet> {
    exec.set_ids(&ctx.universe, ctx.pool())
        .map(|&id| ctx.pool().get(id))
}

/// Property: under a tiny cap with retention-mode spilling (constant
/// sweeping, eviction *and* demotion), every candidate's value table,
/// star grid and derived reference-set grid re-verify byte-identically
/// against a never-evicted cache — including candidates revisited after
/// their first evaluation was demoted or swept out.
#[test]
fn spilled_and_evicted_entries_reverify_byte_identically() {
    let suite = all_benchmarks();
    let b = suite.iter().find(|b| b.id == 54).expect("task 54 exists");
    let (task, _) = b.task(2022).expect("demo generates");
    let config = b.config();

    let reference = TaskContext::new(task.clone());
    let candidates = frontier_candidates(&reference, &config, 150, 30_000);
    assert!(candidates.len() >= 100, "frontier too small to churn");

    // Tiny cap + low water above cap/2: every sweep evicts a few cold
    // entries and demotes the cold survivors.
    let policy = CachePolicy::default().with_cap(24).with_low_water(18);
    let churn = TaskContext::with_policy(task, policy);

    // Two rounds: round two re-probes entries that round one demoted
    // (lazy re-derivation of ids and star) or evicted (full
    // re-evaluation).
    for round in 0..2 {
        for (i, q) in candidates.iter().enumerate() {
            let want = reference
                .eval_cache
                .exec(q, Semantics::Provenance, reference.inputs());
            let got = churn
                .eval_cache
                .exec(q, Semantics::Provenance, churn.inputs());
            match (want, got) {
                (Ok(want), Ok(got)) => {
                    assert_eq!(
                        want.table().grid(),
                        got.table().grid(),
                        "values diverged on candidate {i} round {round}"
                    );
                    assert_eq!(
                        want.star(),
                        got.star(),
                        "star diverged on candidate {i} round {round}"
                    );
                    assert_eq!(
                        sets(&reference, &want),
                        sets(&churn, &got),
                        "derived sets diverged on candidate {i} round {round}"
                    );
                }
                (Err(we), Err(ge)) => assert_eq!(we, ge),
                (want, got) => panic!("outcome diverged on candidate {i}: {want:?} vs {got:?}"),
            }
        }
    }
    let stats = churn.eval_cache.take_counters();
    assert!(stats.cache_evictions > 0, "tiny cap must evict: {stats:?}");
    assert!(
        stats.cache_demotions > 0,
        "retention-mode tiny cap must demote: {stats:?}"
    );
    assert!(
        stats.cache_reevals > 0,
        "two rounds must re-evaluate: {stats:?}"
    );
}

/// Benefit-aware demotion: under the *default* low-water mark (cap/2 —
/// not the retention mode the test above forces), a sweep now also
/// demotes surviving entries that were never re-probed since the last
/// sweep (probe frequency zero), so freeing derived channels pays off
/// under the default policy too. The spill must stay transparent: every
/// candidate — including ones revisited after their ids were freed —
/// re-verifies byte-identically against a never-evicted cache.
#[test]
fn benefit_aware_demotion_spills_under_default_low_water() {
    let suite = all_benchmarks();
    let b = suite.iter().find(|b| b.id == 54).expect("task 54 exists");
    let (task, _) = b.task(2022).expect("demo generates");
    let config = b.config();

    let reference = TaskContext::new(task.clone());
    let candidates = frontier_candidates(&reference, &config, 150, 30_000);
    assert!(candidates.len() >= 100, "frontier too small to churn");

    // Default low water (cap/2): cold survivors are rare, so demotions
    // here prove the probe-frequency path.
    let policy = CachePolicy::default().with_cap(24);
    let churn = TaskContext::with_policy(task, policy);

    for round in 0..2 {
        for (i, q) in candidates.iter().enumerate() {
            let want = reference
                .eval_cache
                .exec(q, Semantics::Provenance, reference.inputs());
            let got = churn
                .eval_cache
                .exec(q, Semantics::Provenance, churn.inputs());
            match (want, got) {
                (Ok(want), Ok(got)) => {
                    assert_eq!(
                        want.table().grid(),
                        got.table().grid(),
                        "values diverged on candidate {i} round {round}"
                    );
                    assert_eq!(
                        want.star(),
                        got.star(),
                        "star diverged on candidate {i} round {round}"
                    );
                    assert_eq!(
                        sets(&reference, &want),
                        sets(&churn, &got),
                        "derived sets diverged on candidate {i} round {round}"
                    );
                }
                (Err(we), Err(ge)) => assert_eq!(we, ge),
                (want, got) => panic!("outcome diverged on candidate {i}: {want:?} vs {got:?}"),
            }
        }
    }
    let stats = churn.eval_cache.take_counters();
    assert!(
        stats.cache_demotions > 0,
        "default low water must demote unprobed entries: {stats:?}"
    );
}

fn solve_with_policy(b: &sickle_benchmarks::Benchmark, policy: CachePolicy) -> SynthResult {
    let (task, _) = b.task(2022).expect("demo generates");
    let session = Session::new();
    let request = SynthRequest::from_task(task)
        .with_search(b.config())
        .with_budget(
            Budget::unbounded()
                .with_max_visited(Some(6_000))
                .with_max_solutions(10),
        )
        .with_cache_policy(policy);
    session.solve(&request).expect("request validates")
}

/// Every counter of `stats` whose unit is not time, by key.
fn exact_rows(stats: &SearchStats) -> Vec<(&'static str, f64)> {
    let mut rows = Vec::new();
    stats.visit(|c, v| {
        if c.unit != Unit::Time {
            rows.push((c.key, v));
        }
    });
    rows
}

/// Regression: on the join-heavy tasks (54, 63) under churn pressure
/// (cap well below the distinct-subquery count), the sweep must be
/// search-transparent — the same solutions and the same visit count as
/// a never-evicting cache, while actually evicting — and deterministic:
/// a repeat of the capped run reports every non-time counter exactly.
#[test]
fn join_tasks_under_churn_are_transparent_and_count_exactly() {
    let suite = all_benchmarks();
    for id in [54usize, 63] {
        let b = suite.iter().find(|b| b.id == id).expect("task exists");
        let cap = 400;
        let uncapped = solve_with_policy(b, CachePolicy::default().with_cap(usize::MAX));
        let capped = solve_with_policy(b, CachePolicy::default().with_cap(cap));
        let again = solve_with_policy(b, CachePolicy::default().with_cap(cap));
        assert_eq!(
            exact_rows(&capped.stats),
            exact_rows(&again.stats),
            "task {id} non-time counters repeat"
        );
        let render = |r: &SynthResult| {
            r.solutions
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
        };
        assert_eq!(render(&uncapped), render(&capped), "task {id} solutions");
        assert_eq!(
            uncapped.stats.visited, capped.stats.visited,
            "task {id} visited"
        );
        assert_eq!(uncapped.stats.cache_evictions, 0, "task {id} uncapped");
        assert!(
            capped.stats.cache_evictions > 0,
            "task {id} must churn at cap {cap}"
        );
    }
}

/// The engine cache stores only subqueries (each candidate and each
/// analyzed partial query is evaluated outside it), so a default-policy
/// solve of the join task 54 never fills the default cap: nothing is
/// evicted, demoted or re-evaluated.
#[test]
fn default_policy_join_solve_never_sweeps() {
    let suite = all_benchmarks();
    let b = suite.iter().find(|b| b.id == 54).expect("task 54 exists");
    let res = solve_with_policy(b, CachePolicy::default());
    assert_eq!(res.stats.visited, 6_000, "{:?}", res.stats);
    assert_eq!(res.stats.cache_evictions, 0, "{:?}", res.stats);
    assert_eq!(res.stats.cache_demotions, 0, "{:?}", res.stats);
    assert_eq!(res.stats.cache_reevals, 0, "{:?}", res.stats);
}

/// The engine cache is pure memoization: a run at a drastically small
/// cap must visit and check exactly what an uncapped run does, and find
/// the same solutions (eviction changes what is recomputed, never a
/// verdict).
#[test]
fn tiny_cap_run_is_search_transparent() {
    let suite = all_benchmarks();
    let b = suite.iter().find(|b| b.id == 8).expect("task 8 exists");
    let uncapped = solve_with_policy(b, CachePolicy::default().with_cap(usize::MAX));
    let tiny = solve_with_policy(b, CachePolicy::default().with_cap(16).with_low_water(12));
    assert_eq!(uncapped.stats.visited, tiny.stats.visited);
    assert_eq!(uncapped.stats.concrete_checked, tiny.stats.concrete_checked);
    let render = |r: &SynthResult| {
        r.solutions
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    };
    assert_eq!(render(&uncapped), render(&tiny));
    assert_eq!(uncapped.stats.cache_evictions, 0);
    assert!(tiny.stats.cache_evictions > 0);
}
