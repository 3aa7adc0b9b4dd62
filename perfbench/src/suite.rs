//! The closed-loop `suite` workload: every depth-3/4 suite task solved
//! cold on a fresh `Session` (`workers = 1`, a 20k-visit budget, up to 10
//! solutions) by one caller, task after task in id order.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sickle_benchmarks::{all_benchmarks, frontier_candidates, Benchmark};
use sickle_core::{
    Budget, EvalCache, Query, Semantics, Session, SynthRequest, SynthResult, TaskContext,
};
use sickle_provenance::AnalysisCacheStats;

use crate::check::{contains_demo, oracle_solutions, ORACLE_SEED};
use crate::report::{op_name, Report};
use crate::speed::Speed;
use crate::stats::{digest, median, peak_rss_mb, percentile};
use crate::trace::{traced_analyzer, AnalyzeTotals, Tracer};

/// The depth-3/4 suite tasks: 22 on one table, where the analyzer and
/// the group/partition/window operators carry the weight, and 15 on two
/// tables (54–57, 61–64, 69, 73, 75–79), where materialization and the
/// prefilter do, the engine cache churns and memory peaks.
///
/// They form one workload because either group alone has too few tasks
/// for steady order statistics: one solve varies by about 9% from the
/// next, a 30–40-second run solves most two-table tasks once or twice,
/// and the median two-table task sits on a 30% gap between task times,
/// which moved it by 15–24% between runs. Together the task times are
/// dense around the median.
pub const TASKS: std::ops::RangeInclusive<usize> = 44..=80;

/// The suite's tail: the nearest-rank percentile of the task times that
/// leaves ten tasks beyond it (ten of 37 are beyond the 26th).
const TAIL_PERCENTILE: f64 = 70.0;

/// Search budget of every solve and every `serve-mix` request.
pub const MAX_VISITED: usize = 20_000;
pub const MAX_SOLUTIONS: usize = 10;

/// Set-up repetitions per run; `setup_s` is their median. One set-up
/// takes under a millisecond, and the first repetitions of a fresh
/// process run up to half again as long.
const SETUP_REPS: usize = 200;

/// Set-up repetitions between two kernel samples.
const SETUP_SAMPLE_EVERY: usize = 10;

/// Kernel samples between two solves. One sample is about 20 ms and
/// varies by ±20% from the next; a task's scale factor is the median of
/// the samples nearest it (`speed.rs`), which several per gap keep close
/// to the task.
const GAP_SAMPLES: usize = 2;

fn gap(speed: &mut Speed) {
    for _ in 0..GAP_SAMPLES {
        speed.sample();
    }
}

/// The engine replay walks each task's frontier for as many work-list
/// pops as the search's budget and executes an evenly spaced sample of
/// at most this many of its concrete candidates.
const REPLAY_SAMPLE: usize = 1_000;

/// One task of the workload, ready to solve.
pub struct Prepared {
    /// Benchmark id.
    pub id: usize,
    /// The request solved every pass.
    pub request: SynthRequest,
}

/// Demo generation plus request construction for `ids`.
///
/// The suite workloads do not depend on the workload seed: every run
/// solves the oracle's demonstrations (demo seed 2022) in id order, so
/// every run checks its digest against the `solutions` oracle. Demo
/// seeds drawn from the workload seed moved the solved count by whole
/// tasks (2 or 3 of 22) and a pass by up to 15%, and a seeded task order
/// moved the median two-table task time by 20%, through the heap its
/// largest task leaves behind.
fn prepare(benches: &[Benchmark], ids: &[usize]) -> Result<Vec<Prepared>, String> {
    ids.iter()
        .map(|&id| {
            let b = &benches[id - 1];
            let (task, _) = b
                .task(ORACLE_SEED)
                .map_err(|e| format!("task {id}: demo generation failed: {e}"))?;
            Ok(Prepared {
                id,
                request: SynthRequest::from_task(task)
                    .with_search(b.config())
                    .with_budget(
                        Budget::unbounded()
                            .with_max_visited(Some(MAX_VISITED))
                            .with_max_solutions(MAX_SOLUTIONS),
                    )
                    .with_workers(1),
            })
        })
        .collect()
}

/// One task solve.
struct Solve {
    wall_s: f64,
    /// `wall_s` scaled to the reference host (see `speed.rs`).
    norm_s: f64,
    result: SynthResult,
    rendered: Vec<String>,
    def3: AnalysisCacheStats,
    pool_sets: usize,
    pool_bytes: usize,
    session_mem: usize,
}

/// Wall time and solve of one task, and when it ran on the run's clock.
/// With a tracer, the solve is a `solve` span whose children are the
/// analyzer's spans.
fn solve(
    t: &Prepared,
    speed: &Speed,
    tracer: Option<(&Tracer, &Arc<Mutex<AnalyzeTotals>>)>,
) -> (f64, f64, Result<Solve, String>) {
    let session = Session::new();
    let (result, t0, t1) = match tracer {
        None => {
            let t0 = Instant::now();
            let r = session.solve(&t.request);
            (r, t0, Instant::now())
        }
        Some((tracer, totals)) => {
            let mut request = t.request.clone();
            let span = tracer.open(t.id as u32, 0, "solve");
            request.analyzer = traced_analyzer(tracer, totals, t.id as u32, span);
            let t0 = Instant::now();
            let r = session.solve(&request);
            let t1 = Instant::now();
            tracer.close(span);
            (r, t0, t1)
        }
    };
    let (from, to) = (speed.at(t0), speed.at(t1));
    let solve = result
        .map_err(|e| format!("task {}: {e}", t.id))
        .map(|result| Solve {
            wall_s: to - from,
            norm_s: 0.0,
            rendered: result.solutions.iter().map(Query::to_string).collect(),
            result,
            def3: session.analysis_stats(),
            pool_sets: session.pool().size(),
            pool_bytes: session.pool().approx_bytes(),
            session_mem: session.mem_bytes(),
        });
    (from, to, solve)
}

/// Solves `tasks` in turn, taking `GAP_SAMPLES` kernel samples before
/// each solve, while `more(solves so far)` holds; returns each solve with
/// when it ran. Scaling waits for the samples after the last solve.
fn solve_in_turn(
    tasks: &[Prepared],
    speed: &mut Speed,
    tracer: Option<(&Tracer, &Arc<Mutex<AnalyzeTotals>>)>,
    mut more: impl FnMut(usize) -> bool,
) -> Vec<(usize, f64, f64, Result<Solve, String>)> {
    let mut out = Vec::new();
    while more(out.len()) {
        let k = out.len() % tasks.len();
        gap(speed);
        let (from, to, s) = solve(&tasks[k], speed, tracer);
        out.push((k, from, to, s));
    }
    gap(speed);
    out
}

/// `solve_in_turn`'s solves with their scaled times filled in.
fn scaled(
    speed: &Speed,
    timed: Vec<(usize, f64, f64, Result<Solve, String>)>,
) -> Vec<(usize, Result<Solve, String>)> {
    timed
        .into_iter()
        .map(|(k, from, to, s)| {
            let s = s.map(|mut s| {
                s.norm_s = speed.scale(s.wall_s, from, to);
                s
            });
            (k, s)
        })
        .collect()
}

/// Digest of a pass over its tasks in id order; `None` if a solve
/// failed.
fn pass_digest(tasks: &[Prepared], solves: &[Result<Solve, String>]) -> Option<u64> {
    let mut ok: Vec<(usize, &[String])> = tasks
        .iter()
        .zip(solves)
        .map(|(t, s)| s.as_ref().ok().map(|s| (t.id, s.rendered.as_slice())))
        .collect::<Option<_>>()?;
    ok.sort_by_key(|&(id, _)| id);
    Some(digest(ok))
}

/// Runs the suite workload over `ids` and fills `report`.
///
/// Set-up and every solve are timed between kernel samples and reported
/// scaled to the reference host (`speed.rs`); the raw wall times are
/// printed as notes. Tasks are solved in turn, one full pass first, then
/// on until `seconds` have passed, so a run lasts `seconds` or one pass,
/// whichever is longer, and the last pass may be partial. A task's time
/// is the median of its solves; `pass_norm_s` is the sum of these over
/// the tasks.
pub fn run(
    ids: &[usize],
    seconds: f64,
    traced: bool,
    spans_out: &Path,
    report: &mut Report,
) -> bool {
    let benches = all_benchmarks();
    let mut speed = Speed::new();
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut tasks = Vec::new();
    for rep in 0..SETUP_REPS {
        if rep % SETUP_SAMPLE_EVERY == 0 {
            speed.sample();
        }
        let t0 = Instant::now();
        let prepared = prepare(&benches, ids);
        setup.push((speed.at(t0), speed.at(Instant::now())));
        match prepared {
            Ok(p) => tasks = p,
            Err(e) => {
                report.fail(e);
                return true;
            }
        }
    }
    speed.sample();
    let setup_wall: Vec<f64> = setup.iter().map(|(a, b)| b - a).collect();
    let setup_norm: Vec<f64> = setup
        .iter()
        .map(|&(a, b)| speed.scale(b - a, a, b))
        .collect();

    // Measurement: untraced solves until `seconds` elapse, at least one
    // full pass; a traced run makes exactly one, and its traced pass then
    // compares with it.
    let n = tasks.len();
    let started = Instant::now();
    let timed = solve_in_turn(&tasks, &mut speed, None, |done| {
        done < n || (!traced && started.elapsed().as_secs_f64() < seconds)
    });
    let rss = peak_rss_mb("self");
    let tracer = Tracer::new();
    let totals = Arc::new(Mutex::new(AnalyzeTotals::default()));
    let traced_timed = if traced {
        solve_in_turn(&tasks, &mut speed, Some((&tracer, &totals)), |done| {
            done < n
        })
    } else {
        Vec::new()
    };
    let solves = scaled(&speed, timed);
    let traced_pass: Option<Vec<Result<Solve, String>>> = traced.then(|| {
        scaled(&speed, traced_timed)
            .into_iter()
            .map(|(_, s)| s)
            .collect()
    });

    // Failures, and determinism: the first pass must match the oracle,
    // and every later solve of a task (the traced pass's too) the first.
    let mut first: Vec<Result<Solve, String>> = Vec::with_capacity(n);
    let mut per_task: Vec<Vec<&Solve>> = (0..n).map(|_| Vec::new()).collect();
    let mut rest = Vec::new();
    for (k, s) in solves {
        if first.len() < n {
            first.push(s);
        } else {
            rest.push((k, s));
        }
    }
    let later = rest
        .iter()
        .map(|(k, s)| (*k, s))
        .chain(traced_pass.iter().flatten().enumerate());
    report.attempted += n as u64;
    for s in &first {
        if let Err(e) = s {
            report.failed += 1;
            report.fail(e.clone());
        }
    }
    let mut disagree = Vec::new();
    for (k, s) in later {
        report.attempted += 1;
        match (s, &first[k]) {
            (Err(e), _) => {
                report.failed += 1;
                report.fail(e.clone());
            }
            (Ok(s), Ok(f)) if s.rendered != f.rendered => disagree.push(tasks[k].id),
            _ => {}
        }
    }
    if !disagree.is_empty() {
        report.failed += disagree.len() as u64;
        report.fail(format!(
            "solves disagree with the first pass on tasks {disagree:?}"
        ));
    }
    for (k, s) in first.iter().enumerate() {
        if let Ok(s) = s {
            per_task[k].push(s);
        }
    }
    for (k, s) in &rest {
        if let Ok(s) = s {
            per_task[*k].push(s);
        }
    }
    let digest_first = pass_digest(&tasks, &first);
    report.notes.push(format!(
        "digest solves={} {}",
        report.attempted,
        digest_first.map_or("none".into(), |d| format!("{d:016x}"))
    ));
    let oracle: Option<Vec<(usize, Vec<String>)>> = ids
        .iter()
        .map(|&id| oracle_solutions(id).map(|s| (id, s)))
        .collect();
    let want = oracle.map(|o| digest(o.iter().map(|(id, s)| (*id, s.as_slice()))));
    if want.is_none() || want != digest_first {
        report.fail(format!(
            "digest differs from the solutions oracle ({want:x?})"
        ));
    } else {
        report
            .notes
            .push("digest matches the solutions oracle".into());
    }

    // Correctness of the first pass: ground-truth rank and demo
    // containment of every returned solution.
    let mut solved = 0;
    for (t, s) in tasks.iter().zip(&first) {
        let Ok(s) = s else { continue };
        let b = &benches[t.id - 1];
        if s.result.solutions.iter().any(|q| b.is_correct(q)) {
            solved += 1;
        }
        let task = &t.request.task;
        let bad = s
            .result
            .solutions
            .iter()
            .find(|q| !contains_demo(q, &task.inputs, &task.demo));
        if let Some(q) = bad {
            report.failed += 1;
            report.fail(format!("task {}: {q} does not hold the demo rows", t.id));
        }
    }

    // Each task's median solve time; the percentiles are over tasks.
    let task_median = |f: &dyn Fn(&Solve) -> f64| -> Vec<f64> {
        per_task
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| median(&s.iter().map(|s| f(s)).collect::<Vec<_>>()))
            .collect()
    };
    let norm_ms: Vec<f64> = task_median(&|s| s.norm_s * 1e3);
    let wall_ms: Vec<f64> = task_median(&|s| s.wall_s * 1e3);
    let count: usize = per_task.iter().map(Vec::len).sum();
    report.stat("setup_s", median(&setup_norm), setup_norm.len());
    report.stat("pass_norm_s", norm_ms.iter().sum::<f64>() / 1e3, count);
    report.stat("p50_norm_ms", median(&norm_ms), count);
    report.stat("tail_norm_ms", percentile(&norm_ms, TAIL_PERCENTILE), count);
    report.notes.push(format!(
        "unscaled: setup_s = {} s, pass_s = {} s, task_p50_s = {} s, \
         p{TAIL_PERCENTILE} = {} ms, slowest task = {} ms (n={count}); \
         kernel median {} ms over {} samples",
        median(&setup_wall),
        wall_ms.iter().sum::<f64>() / 1e3,
        median(&wall_ms) / 1e3,
        percentile(&wall_ms, TAIL_PERCENTILE),
        percentile(&wall_ms, 100.0),
        speed.median_kernel_s() * 1e3,
        speed.len()
    ));
    report.set("solved", solved as f64);
    if let Some(rss) = rss {
        report.set("peak_rss_mb", rss);
    }

    if let Some(traced_pass) = &traced_pass {
        per_layer(&tasks, &first, traced_pass, &tracer, &totals, report);
        write_spans(&tracer, spans_out, report);
    }
    true
}

/// Writes the spans out at the end of a traced run.
pub fn write_spans(tracer: &Tracer, path: &Path, report: &mut Report) {
    match tracer.write(path) {
        Ok(()) => report
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(e) => report.notes.push(format!("spans not written: {e}")),
    }
}

/// Per-layer metrics of the traced pass (plus the engine replay), and
/// the transparency check against the untraced pass before it.
fn per_layer(
    tasks: &[Prepared],
    untraced: &[Result<Solve, String>],
    traced: &[Result<Solve, String>],
    tracer: &Tracer,
    totals: &Arc<Mutex<AnalyzeTotals>>,
    report: &mut Report,
) {
    let counts = |solves: &[Result<Solve, String>]| -> Vec<(usize, usize, usize)> {
        solves
            .iter()
            .flatten()
            .map(|s| {
                let st = &s.result.stats;
                (st.visited, st.pruned, st.concrete_checked)
            })
            .collect()
    };
    if counts(untraced) != counts(traced) {
        report.fail("traced pass changed the synth counts".into());
    }
    let norm =
        |solves: &[Result<Solve, String>]| solves.iter().flatten().map(|s| s.norm_s).sum::<f64>();
    report.set("trace.overhead_frac", norm(traced) / norm(untraced) - 1.0);

    let ok: Vec<&Solve> = traced.iter().flatten().collect();
    let sum = |f: &dyn Fn(&Solve) -> f64| ok.iter().map(|s| f(s)).sum::<f64>();
    let max = |f: &dyn Fn(&Solve) -> usize| ok.iter().map(|s| f(s)).max().unwrap_or(0) as f64;
    let checked = sum(&|s| s.result.stats.concrete_checked as f64);
    report.set("synth.visited", sum(&|s| s.result.stats.visited as f64));
    report.set("synth.pruned", sum(&|s| s.result.stats.pruned as f64));
    report.set("synth.concrete_checked", checked);
    report.set(
        "synth.expand_s",
        sum(&|s| s.result.stats.time_expand.as_secs_f64()),
    );
    report.set(
        "accept.materialize_s",
        sum(&|s| s.result.stats.time_materialize.as_secs_f64()),
    );
    report.set(
        "accept.prefilter_s",
        sum(&|s| s.result.stats.time_prefilter.as_secs_f64()),
    );
    report.set(
        "accept.match_s",
        sum(&|s| s.result.stats.time_match.as_secs_f64()),
    );
    report.set(
        "accept.yield",
        sum(&|s| s.result.solutions.len() as f64) / checked.max(1.0),
    );
    report.set(
        "engine.cache.evictions",
        sum(&|s| s.result.stats.cache_evictions as f64),
    );
    report.set(
        "engine.cache.reevals",
        sum(&|s| s.result.stats.cache_reevals as f64),
    );
    report.set(
        "engine.cache.reeval_s",
        sum(&|s| s.result.stats.cache_reeval_time.as_secs_f64()),
    );
    report.set("def3.hits", sum(&|s| s.def3.hits as f64));
    report.set("def3.misses", sum(&|s| s.def3.misses as f64));
    report.set("pool.sets", max(&|s| s.pool_sets));
    report.set("pool.bytes", max(&|s| s.pool_bytes));
    report.set("session.mem_bytes", max(&|s| s.session_mem));
    analyzer_metrics(tracer, totals, report);

    replay(tasks, tracer, report);
}

/// `analyze.*`, `def3.bytes` and `session.self_s` from the spans and the
/// traced analyzers' totals.
fn analyzer_metrics(tracer: &Tracer, totals: &Arc<Mutex<AnalyzeTotals>>, report: &mut Report) {
    let spans = tracer.summary();
    let span = |name: &str| spans.get(name).copied().unwrap_or_default();
    let t = *totals.lock().expect("analyzer totals poisoned");
    report.set("analyze.calls", t.calls as f64);
    report.set("analyze.abstract_eval_s", span("analyze.abstract_eval").1);
    report.set("analyze.def3_s", span("analyze.def3").1);
    report.set(
        "analyze.prune_ratio",
        t.pruned as f64 / (t.calls.max(1)) as f64,
    );
    report.set("def3.bytes", t.def3_bytes as f64);
    report.set("session.self_s", span("solve").2);
}

/// Replays each task's search frontier (`frontier_candidates`) through a
/// fresh `EvalCache`, executing every candidate bottom-up so each
/// `EvalCache::exec` call adds one operator to cached children, and
/// times the calls per operator kind as `engine.<op>` spans.
fn replay(tasks: &[Prepared], tracer: &Tracer, report: &mut Report) {
    let mut calls = std::collections::BTreeMap::<&str, (usize, f64, usize)>::new();
    for t in tasks {
        let ctx = TaskContext::new(t.request.task.clone());
        let frontier = frontier_candidates(&ctx, &t.request.search, usize::MAX, MAX_VISITED);
        let stride = frontier.len().div_ceil(REPLAY_SAMPLE).max(1);
        let candidates: Vec<&Query> = frontier.iter().step_by(stride).collect();
        let cache = EvalCache::new();
        let root = tracer.open(t.id as u32, 0, "replay");
        for q in &candidates {
            let mut nodes = Vec::new();
            post_order(q, &mut nodes);
            for node in nodes {
                let t0 = Instant::now();
                let out = cache.exec(node, Semantics::Provenance, ctx.inputs());
                let t1 = Instant::now();
                let name = op_name(node);
                tracer.push(crate::trace::Span {
                    id: t.id as u32,
                    parent: root,
                    name,
                    start: tracer.at(t0),
                    end: tracer.at(t1),
                });
                let e = calls.entry(name).or_default();
                e.0 += 1;
                e.1 += (t1 - t0).as_secs_f64();
                if let Ok(out) = out {
                    e.2 += out.table().n_rows();
                }
            }
        }
        tracer.close(root);
    }
    for (op, (n, s, rows)) in calls {
        report.set(&format!("engine.{op}.calls"), n as f64);
        report.set(&format!("engine.{op}.s"), s);
        report.set(&format!("engine.{op}.rows_out"), rows as f64);
    }
}

fn post_order<'q>(q: &'q Query, out: &mut Vec<&'q Query>) {
    for c in q.children() {
        post_order(c, out);
    }
    out.push(q);
}
