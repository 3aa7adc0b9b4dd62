//! Micro-benchmarks of the concrete acceptance path: the staged,
//! candidate-seeded pipeline the search runs ([`TaskContext::accept`]:
//! evaluation of values and step record over cached subqueries → column
//! heads gate → exact ids derived without provenance terms → cached Def. 3
//! prefilter → star for survivors only → seeded, pre-keyed Def. 1
//! matching) vs the blind path
//! (uncached evaluation with its star → whole-grid set conversion of the
//! star → blind prefilter → blind `demo_consistent` restart).
//!
//! Candidates are *suite-derived*: for a handful of benchmarks the search
//! frontier is replayed exactly as `run_search` visits it (skeletons,
//! analyzer pruning, hole expansion), and every concrete candidate goes
//! through both acceptance paths, evaluation included. Verdicts are
//! cross-checked per candidate before timing counts for anything.
//!
//! Plain `harness = false` timing (the offline environment has no
//! `criterion`):
//!
//! ```text
//! cargo bench -p sickle-bench --bench accept [-- --quick]
//! ```
//!
//! The run writes `BENCH_accept.json` (per-benchmark rows + geo-mean) for
//! CI artifacts.

use std::time::{Duration, Instant};

use sickle_benchmarks::{all_benchmarks, frontier_candidates};
use sickle_core::{exec, CachePolicy, Query, SearchStats, Semantics, SynthTask, TaskContext};
use sickle_provenance::{demo_consistent, find_table_match, MatchDims, RefSet};
use sickle_table::Grid;

/// The blind acceptance path: uncached evaluation with its star,
/// whole-grid conversion of the star into sets, blind prefilter, blind
/// Def. 1 restart.
fn accept_blind(ctx: &TaskContext, q: &Query) -> bool {
    let Ok(result) = exec(Semantics::Provenance, q, ctx.inputs()) else {
        return false;
    };
    let star = result.star();
    let sets: Grid<RefSet> = star.map_columns(|col| ctx.universe.column_sets(col));
    blind_match(ctx, &sets) && demo_consistent(ctx.demo(), &star).is_some()
}

/// Blind reference containment of the demonstration in `sets`.
fn blind_match(ctx: &TaskContext, sets: &Grid<RefSet>) -> bool {
    let demo_refs = &ctx.demo_refs;
    let dims = MatchDims {
        demo_rows: demo_refs.n_rows(),
        demo_cols: demo_refs.n_cols(),
        table_rows: sets.n_rows(),
        table_cols: sets.n_cols(),
    };
    find_table_match(dims, &mut |di, dj, ti, tj| {
        demo_refs[(di, dj)].is_subset_of(&sets[(ti, tj)])
    })
    .is_some()
}

/// The shipped acceptance path over every candidate, through `ctx`'s
/// engine cache and verdict cache; returns the accepted count.
fn accept_staged(ctx: &TaskContext, candidates: &[Query]) -> usize {
    let mut stats = SearchStats::default();
    candidates
        .iter()
        .filter(|q| {
            ctx.accept(q, &mut stats)
                .expect("candidates evaluate with a step record")
        })
        .count()
}

/// Deterministic stride interleave: walks the list with `ways` equally
/// spaced cursors so sibling candidates (which share subquery children)
/// stop arriving consecutively — the access pattern that makes the real
/// search's engine cache churn (a shared child goes cold between its
/// uses and is a sweep victim unless the policy protects it).
fn interleave(v: &[Query], ways: usize) -> Vec<Query> {
    let chunk = v.len().div_ceil(ways.max(1));
    let mut out = Vec::with_capacity(v.len());
    for offset in 0..chunk {
        for w in 0..ways {
            if let Some(q) = v.get(w * chunk + offset) {
                out.push(q.clone());
            }
        }
    }
    out
}

/// One pass of the churn scenario: evaluate + accept every query of the
/// stream through a fresh engine cache under `policy`, reading the
/// engine's derived id channel and star (what demotion frees and the
/// step record re-derives). Returns the wall-clock, the per-query
/// verdicts and the cache's counter rows.
fn churn_pass(
    task: &SynthTask,
    policy: CachePolicy,
    stream: &[Query],
) -> (Duration, Vec<bool>, SearchStats) {
    let ctx = TaskContext::with_policy(task.clone(), policy);
    let demo = ctx.demo().clone();
    let t0 = Instant::now();
    let verdicts = stream
        .iter()
        .map(
            |q| match ctx.eval_cache.exec(q, Semantics::Provenance, ctx.inputs()) {
                Ok(exec) => {
                    let pool = ctx.pool();
                    let sets = exec.set_ids(&ctx.universe, pool).map(|&id| pool.get(id));
                    blind_match(&ctx, &sets) && demo_consistent(&demo, &exec.star()).is_some()
                }
                Err(_) => false,
            },
        )
        .collect();
    (t0.elapsed(), verdicts, ctx.eval_cache.take_counters())
}

/// One churn-scenario row (per benchmark): timing and counters at a
/// deliberately tiny cache cap.
struct ChurnRow {
    name: String,
    cap: usize,
    spill: Duration,
    spill_stats: SearchStats,
}

/// Best-of-N wall-clock of `f`, with one warmup run.
fn time_best<R>(iters: usize, mut f: impl FnMut() -> R) -> Duration {
    std::hint::black_box(f());
    let mut best = Duration::MAX;
    for _ in 0..iters {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed());
    }
    best
}

struct Report {
    rows: Vec<(String, Duration, Duration)>,
    churn: Vec<ChurnRow>,
}

impl Report {
    fn row(&mut self, name: &str, blind: Duration, staged: Duration) {
        let speedup = blind.as_secs_f64() / staged.as_secs_f64().max(1e-9);
        println!(
            "{name:44} blind {blind:>12.2?}   staged {staged:>12.2?}   speedup {speedup:>6.2}x"
        );
        self.rows.push((name.to_string(), blind, staged));
    }

    fn churn_row(&mut self, row: ChurnRow) {
        println!(
            "{:44} spill {:>12.2?}   evictions {} reevals {} demotions {}",
            row.name,
            row.spill,
            row.spill_stats.cache_evictions,
            row.spill_stats.cache_reevals,
            row.spill_stats.cache_demotions,
        );
        self.churn.push(row);
    }

    fn geo_mean(&self) -> f64 {
        let ln_sum: f64 = self
            .rows
            .iter()
            .map(|(_, b, s)| (b.as_secs_f64() / s.as_secs_f64().max(1e-9)).ln())
            .sum();
        (ln_sum / self.rows.len() as f64).exp()
    }

    fn write_json(&self, quick: bool) {
        let mut out = String::from("{\n  \"schema\": \"sickle-bench/accept/v3\",\n");
        out.push_str(&format!("  \"quick\": {quick},\n  \"rows\": [\n"));
        for (i, (name, b, s)) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{name}\", \"blind_s\": {:.9}, \"staged_s\": {:.9}, \
                 \"speedup\": {:.3}}}{}\n",
                b.as_secs_f64(),
                s.as_secs_f64(),
                b.as_secs_f64() / s.as_secs_f64().max(1e-9),
                if i + 1 == self.rows.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n  \"churn\": [\n");
        for (i, r) in self.churn.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"cap\": {}, \"spill_s\": {:.9}, \
                 \"spill_evictions\": {}, \"spill_demotions\": {}, \"spill_reevals\": {}}}{}\n",
                r.name,
                r.cap,
                r.spill.as_secs_f64(),
                r.spill_stats.cache_evictions,
                r.spill_stats.cache_demotions,
                r.spill_stats.cache_reevals,
                if i + 1 == self.churn.len() { "" } else { "," }
            ));
        }
        out.push_str(&format!(
            "  ],\n  \"geo_mean_speedup\": {:.3}\n}}\n",
            self.geo_mean()
        ));
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_accept.json");
        match std::fs::write(&path, out) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => println!("warning: could not write {}: {e}", path.display()),
        }
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    println!(
        "accept micro-benchmarks (best of N{}, debug assertions {})",
        if quick { ", --quick" } else { "" },
        if cfg!(debug_assertions) {
            "ON — use --release"
        } else {
            "off"
        }
    );

    // A spread of suite benchmarks: small single-input group tasks, a
    // partition-heavy task, and the heavy tail the acceptance rebuild
    // targeted.
    let bench_ids: &[usize] = if quick {
        &[1, 8, 44]
    } else {
        &[1, 8, 17, 44, 55, 76]
    };
    let (cap, iters) = if quick { (150, 3) } else { (400, 5) };

    let suite = all_benchmarks();
    let mut report = Report {
        rows: Vec::new(),
        churn: Vec::new(),
    };
    let mut total_instances = 0usize;
    for &id in bench_ids {
        let Some(b) = suite.iter().find(|b| b.id == id) else {
            println!("warning: no suite benchmark with id {id}");
            continue;
        };
        let (task, _) = b.task(2022).expect("benchmark demos generate");
        let ctx = TaskContext::new(task.clone());
        let candidates = frontier_candidates(&ctx, &b.config(), cap, 60_000);
        total_instances += candidates.len();

        // Cross-check: both paths must agree on every candidate, with the
        // staged side's caches warming across the stream as in the search.
        {
            let staged_ctx = TaskContext::new(task.clone());
            let mut stats = SearchStats::default();
            for (i, q) in candidates.iter().enumerate() {
                let staged = staged_ctx
                    .accept(q, &mut stats)
                    .expect("candidates evaluate with a step record");
                assert_eq!(
                    accept_blind(&ctx, q),
                    staged,
                    "verdict mismatch on {} #{i}",
                    b.name
                );
            }
        }

        let blind = time_best(iters, || {
            candidates.iter().filter(|q| accept_blind(&ctx, q)).count()
        });
        // A fresh context per iteration: the measured quantity is one pass
        // of the candidate stream through the shipped machinery, including
        // its cold start.
        let staged = time_best(iters, || {
            accept_staged(&TaskContext::new(task.clone()), &candidates)
        });
        report.row(&format!("accept/{:02}-{}", b.id, b.name), blind, staged);
    }

    let gm = report.geo_mean();
    println!(
        "geo-mean speedup: {gm:.2}x over {} workloads ({total_instances} suite-derived candidates)",
        report.rows.len()
    );

    // Churn scenario: the join-heavy tasks that churn the engine cache,
    // re-verified through a deliberately tiny engine cache so
    // every policy sweeps constantly. The candidate stream is stride-
    // interleaved (shared children go cold between uses) and runs twice
    // (the second round re-probes what round one cached: a demoted entry
    // pays lazy re-derivation, an evicted one pays full re-execution). The
    // same stream runs (1) on an effectively unbounded cache ("blind"
    // reference verdicts) and (2) at the tiny cap with a low-water mark
    // above cap/2, where cold survivors get demoted. Any
    // verdict divergence between the spilled run and the blind reference
    // is a correctness bug: the assert aborts the bench (and fails CI's
    // bench-smoke job).
    const CHURN_CAP: usize = 48;
    let churn_ids: &[usize] = if quick { &[54] } else { &[54, 63] };
    let churn_iters = if quick { 2 } else { 3 };
    let candidate_cap = if quick { 200 } else { 400 };
    println!("\nchurn scenario (engine-cache cap {CHURN_CAP}, join-heavy tasks):");
    for &id in churn_ids {
        let Some(b) = suite.iter().find(|b| b.id == id) else {
            println!("warning: no suite benchmark with id {id}");
            continue;
        };
        let (task, _) = b.task(2022).expect("benchmark demos generate");
        let config = b.config();
        let scratch = TaskContext::new(task.clone());
        let candidates = frontier_candidates(&scratch, &config, candidate_cap, 60_000);
        drop(scratch);
        let mut stream = interleave(&candidates, 8);
        stream.extend(stream.clone());

        // Blind reference: no eviction pressure at all.
        let unbounded = CachePolicy::default().with_cap(usize::MAX);
        let (_, blind_verdicts, _) = churn_pass(&task, unbounded, &stream);

        let run = |policy: CachePolicy| {
            let mut best = Duration::MAX;
            let mut last = None;
            for _ in 0..churn_iters {
                let (d, v, s) = churn_pass(&task, policy, &stream);
                best = best.min(d);
                last = Some((v, s));
            }
            let (verdicts, stats) = last.expect("at least one iteration");
            (best, verdicts, stats)
        };
        // Low water above cap/2: cold survivors exist and get demoted
        // instead of dropped.
        let spill_policy = CachePolicy::default()
            .with_cap(CHURN_CAP)
            .with_low_water(CHURN_CAP * 3 / 4);
        let (spill, spill_verdicts, spill_stats) = run(spill_policy);

        assert_eq!(
            spill_verdicts, blind_verdicts,
            "churn cross-check diverged (spilled vs blind) on task {id}"
        );
        report.churn_row(ChurnRow {
            name: format!("churn/{:02}-{}", b.id, b.name),
            cap: CHURN_CAP,
            spill,
            spill_stats,
        });
    }

    report.write_json(quick);
    if gm <= 1.0 {
        println!("WARNING: staged acceptance measured slower than the blind path");
    }
}
