//! The search's acceptance path (`TaskContext::accept`: materialization,
//! the dimension fit, Def. 3 prefilter over column candidates, seeded
//! Def. 1 match) against the blind check on real search frontiers: an
//! uncached provenance evaluation, blind `find_table_match` reference
//! containment, then blind `demo_consistent`. Every candidate must get the
//! same verdict from both, including candidates too narrow or too short to
//! host the demonstration.

use sickle_benchmarks::{all_benchmarks, frontier_candidates};
use sickle_core::{exec, Pred, Query, SearchStats, Semantics, SynthConfig, SynthTask, TaskContext};
use sickle_provenance::{demo_consistent, find_table_match, Demo, MatchDims};
use sickle_table::{AggFunc, CmpOp, Table, Value};

/// Frontier candidates replayed per task (the search's own visit order).
const CANDIDATES: usize = 300;

/// Largest star the acceptance path still converts column by column
/// through its cross-candidate memos; taller stars take the result-local
/// whole-grid branch.
const BULK_COL_ROWS: usize = 128;

/// The blind acceptance verdict of `q`, plus the row count of its result
/// (0 when it fails to evaluate).
fn blind_verdict(ctx: &TaskContext, q: &Query) -> (bool, usize) {
    let Ok(result) = exec(Semantics::Provenance, q, ctx.inputs()) else {
        return (false, 0);
    };
    let star = result.star();
    let sets = result.sets(&ctx.universe);
    let dims = MatchDims {
        demo_rows: ctx.demo_refs.n_rows(),
        demo_cols: ctx.demo_refs.n_cols(),
        table_rows: star.n_rows(),
        table_cols: star.n_cols(),
    };
    let contained = find_table_match(dims, &mut |di, dj, ti, tj| {
        ctx.demo_refs[(di, dj)].is_subset_of(&sets[(ti, tj)])
    })
    .is_some();
    (
        contained && demo_consistent(ctx.demo(), star).is_some(),
        star.n_rows(),
    )
}

/// Runs every frontier candidate of `task`, then `extra`, then `misfits`
/// (which must be rejected), through both paths, asserting equal
/// verdicts. Returns (accepted, rejected, tallest result rows).
fn cross_check(
    name: &str,
    task: SynthTask,
    config: &SynthConfig,
    extra: Option<Query>,
    misfits: &[Query],
) -> (usize, usize, usize) {
    let ctx = TaskContext::new(task);
    let mut candidates = frontier_candidates(&ctx, config, CANDIDATES, 20_000);
    assert!(!candidates.is_empty(), "{name}: empty frontier");
    candidates.extend(extra);
    let first_misfit = candidates.len();
    candidates.extend_from_slice(misfits);
    let mut stats = SearchStats::default();
    let (mut accepted, mut tallest) = (0, 0);
    for (i, q) in candidates.iter().enumerate() {
        let staged = ctx
            .accept(q, &mut stats)
            .unwrap_or_else(|e| panic!("{name}: {q}: {e}"));
        let (blind, rows) = blind_verdict(&ctx, q);
        assert_eq!(staged, blind, "{name}: verdicts differ on {q}");
        assert!(i < first_misfit || !staged, "{name}: misfit {q} accepted");
        accepted += usize::from(staged);
        tallest = tallest.max(rows);
    }
    // Every acceptance stage ran and was charged to its timer.
    assert_eq!(
        stats.time_concrete,
        stats.time_materialize + stats.time_prefilter + stats.time_match
    );
    (accepted, candidates.len() - accepted, tallest)
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
fn check_suite_task(id: usize, inputs: usize) {
    let b = all_benchmarks()
        .into_iter()
        .find(|b| b.id == id)
        .expect("suite benchmark exists");
    let (task, _) = b.task(2022).expect("benchmark demo generates");
    assert_eq!(task.inputs.len(), inputs);
    let misfits = misfits(&task);
    let (accepted, rejected, _) = cross_check(
        b.name,
        task,
        &b.config(),
        Some(b.ground_truth.clone()),
        &misfits,
    );
    assert!(
        accepted > 0 && rejected > 0,
        "{accepted} accepted, {rejected} rejected"
    );
}

#[test]
fn one_table_suite_task_agrees_with_blind_check() {
    check_suite_task(8, 1);
}

#[test]
fn join_suite_task_agrees_with_blind_check() {
    check_suite_task(54, 2);
}

/// A 150-row input: windows and arithmetic keep every row, so their
/// stars exceed the bulk-conversion threshold.
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
    let (accepted, rejected, tallest) = cross_check(
        "window sum",
        SynthTask::new(vec![table], demo),
        &config,
        None,
        &[],
    );
    assert!(tallest > BULK_COL_ROWS, "tallest result has {tallest} rows");
    assert!(
        accepted > 0 && rejected > 0,
        "{accepted} accepted, {rejected} rejected"
    );
}
