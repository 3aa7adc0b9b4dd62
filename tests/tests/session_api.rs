//! Integration tests of the session API's budget semantics and warm-state
//! reuse:
//!
//! * budget expiry (visit cap) terminates the run with `timed_out` set and
//!   never drops already-found solutions;
//! * cooperative cancellation does the same through a [`SolutionStream`];
//! * a warm session rerun is byte-identical to a cold run under the
//!   `solutions`-oracle rendering, while reusing the session pool (no
//!   re-interning);
//! * the deprecated free functions still agree with the session API;
//! * `reused_verdicts` counts a request's own verdict hits, even while
//!   another request on the same session is served from the shared cache.

use std::cell::Cell;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use sickle_benchmarks::all_benchmarks;
use sickle_core::{
    Analyzer, AnalyzerChoice, Budget, CancelToken, PQuery, ProvenanceAnalyzer, Session,
    SolutionEvent, SynthRequest, SynthResult, TaskContext,
};

/// The request the deterministic `solutions` bin issues for benchmark
/// `id` (1-based): suite search shape, visit budget only.
fn oracle_request(id: usize, max_visited: usize) -> SynthRequest {
    let suite = all_benchmarks();
    let b = suite.iter().find(|b| b.id == id).expect("known benchmark");
    let (task, _) = b.task(2022).expect("demo generates");
    SynthRequest::from_task(task)
        .with_search(b.config())
        .with_budget(
            Budget::unbounded()
                .with_max_visited(Some(max_visited))
                .with_max_solutions(10),
        )
}

/// The `solutions`-oracle rendering of one run (its stdout block, minus
/// the benchmark name which is constant per id).
fn oracle_render(result: &SynthResult) -> String {
    let mut out = format!(
        "visited={} pruned={} solutions={}\n",
        result.stats.visited,
        result.stats.pruned,
        result.solutions.len()
    );
    for (i, q) in result.solutions.iter().enumerate() {
        out.push_str(&format!("  {:2}. {q}\n", i + 1));
    }
    out
}

#[test]
fn visit_budget_expiry_sets_timed_out_and_keeps_found_solutions() {
    let session = Session::new();
    // Unbudgeted reference run: all solutions this task yields in 8000
    // visits (easy benchmark 1 finds several well before that).
    let full = session
        .solve(&oracle_request(1, 8_000))
        .expect("request validates");
    assert!(!full.solutions.is_empty());

    // Now rerun (fresh session — budgets must not depend on warmth) with
    // the budget cut to just past the first solutions.
    let cut = full.stats.visited / 2;
    let clipped = Session::new()
        .solve(&oracle_request(1, cut))
        .expect("request validates");
    assert!(
        clipped.stats.timed_out,
        "visit-cap expiry must report timed_out"
    );
    assert!(clipped.stats.visited <= cut);
    // Everything found before the cut is retained and is a prefix-set of
    // the full run's solutions (the search order is deterministic).
    for q in &clipped.solutions {
        assert!(
            full.solutions.contains(q),
            "budgeted run invented solution {q}"
        );
    }
}

#[test]
fn stream_cancellation_keeps_streamed_solutions() {
    let session = Session::new();
    let cancel = CancelToken::new();
    // Deep search, effectively unbounded target: only cancellation (or
    // the generous visit cap safety net) ends it.
    let suite = all_benchmarks();
    let b = &suite[43]; // the running example: deep, many candidates
    let (task, _) = b.task(2022).expect("demo generates");
    let request = SynthRequest::from_task(task)
        .with_search(b.config())
        .with_budget(
            Budget::unbounded()
                .with_max_visited(Some(2_000_000))
                .with_max_solutions(usize::MAX),
        )
        .with_cancel(cancel.clone());
    let mut stream = session.submit(request).expect("request validates");

    let mut streamed = Vec::new();
    let result = loop {
        match stream.next() {
            Some(SolutionEvent::Solution { query, .. }) => {
                streamed.push(query);
                cancel.cancel();
            }
            Some(SolutionEvent::Done(result)) => break result,
            Some(_) => {}
            None => panic!("stream ended without Done"),
        }
    };
    assert!(!streamed.is_empty(), "no solution before cancellation");
    assert!(result.stats.timed_out, "cancellation must report timed_out");
    for q in &streamed {
        assert!(
            result.solutions.contains(q),
            "cancellation dropped already-found solution {q}"
        );
    }
    let progress = stream.progress();
    assert!(progress.stats.visited > 0);
    assert!(progress.solutions >= streamed.len());
}

#[test]
fn deadline_budget_terminates_the_stream() {
    let session = Session::new();
    let suite = all_benchmarks();
    let b = &suite[43];
    let (task, _) = b.task(2022).expect("demo generates");
    let request = SynthRequest::from_task(task)
        .with_search(b.config())
        .with_budget(
            Budget::unbounded()
                .with_deadline(std::time::Instant::now() + Duration::from_millis(300))
                .with_max_solutions(usize::MAX),
        );
    let stream = session.submit(request).expect("request validates");
    let result = stream.wait().expect("worker reports a result");
    assert!(result.stats.timed_out, "deadline expiry must set timed_out");
}

#[test]
fn warm_session_rerun_is_byte_identical_to_cold_run() {
    // Benchmarks 1 and 44 (easy group-sum; the hard running example)
    // under the solutions-oracle budget.
    let ids = [1usize, 44];
    let budget = 5_000;

    // Cold reference: a fresh session per benchmark.
    let cold: Vec<String> = ids
        .iter()
        .map(|&id| {
            let result = Session::new()
                .solve(&oracle_request(id, budget))
                .expect("request validates");
            oracle_render(&result)
        })
        .collect();

    // Warm: one session, every benchmark twice, back-to-back.
    let warm_session = Session::new();
    for round in 0..2 {
        for (&id, cold_render) in ids.iter().zip(&cold) {
            let result = warm_session
                .solve(&oracle_request(id, budget))
                .expect("request validates");
            assert_eq!(
                &oracle_render(&result),
                cold_render,
                "warm round {round} diverged on benchmark {id}"
            );
        }
    }
    // The second round interned nothing new: every reference set of both
    // tasks was already pooled by round one.
    let after_first_round = {
        let probe = Session::new();
        for &id in &ids {
            probe.solve(&oracle_request(id, budget)).unwrap();
        }
        probe.pool().size()
    };
    assert_eq!(warm_session.pool().size(), after_first_round);
    assert!(warm_session.served() == 4);

    // Pressure rerun: the degraded cache policy the server forces at its
    // soft memory watermark (quartered cap, low water at 3/4 of it)
    // changes performance only — the answers stay byte-identical.
    for (&id, cold_render) in ids.iter().zip(&cold) {
        let default_cache = sickle_core::CachePolicy::default();
        let cap = default_cache.cap.max(4) / 4;
        let degraded = default_cache
            .with_cap(cap)
            .with_low_water(cap.saturating_mul(3) / 4);
        let result = Session::new()
            .solve(&oracle_request(id, budget).with_cache_policy(degraded))
            .expect("request validates");
        assert_eq!(
            &oracle_render(&result),
            cold_render,
            "degraded cache policy changed answers on benchmark {id}"
        );
        assert!(
            result.stats.mem_bytes > 0,
            "memory accounting reported zero bytes on benchmark {id}"
        );
    }
}

/// The paper's analyzer, except that after its first call it parks the
/// search on `park` and waits on `resume` before going on.
struct ParkingAnalyzer {
    first: Cell<bool>,
    park: Arc<Barrier>,
    resume: Arc<Barrier>,
}

impl Analyzer for ParkingAnalyzer {
    fn name(&self) -> &'static str {
        "parking"
    }

    fn is_feasible(&self, pq: &PQuery, ctx: &TaskContext) -> bool {
        let feasible = ProvenanceAnalyzer.is_feasible(pq, ctx);
        if self.first.replace(false) {
            self.park.wait();
            self.resume.wait();
        }
        feasible
    }
}

#[test]
fn reused_verdicts_counts_only_the_requests_own_hits() {
    // A: the running example; B: an easy task, solved once to warm the
    // session so that its repeat is served from the verdict cache.
    let (a_id, b_id) = (44usize, 1usize);
    let budget = 3_000;
    let b_request = oracle_request(b_id, budget);

    // A alone, on a session warmed the same way.
    let alone = Session::new();
    alone.solve(&b_request).unwrap();
    let a_alone = alone.solve(&oracle_request(a_id, budget)).unwrap();
    let b_repeat = alone.solve(&b_request).unwrap();
    assert!(
        b_repeat.stats.reused_verdicts > 0,
        "benchmark {b_id} must reuse verdicts on a repeat"
    );

    // A parked after its first analyzer call while B repeats its demo on
    // the same session, then resumed.
    let session = Session::new();
    session.solve(&b_request).unwrap();
    let park = Arc::new(Barrier::new(2));
    let resume = Arc::new(Barrier::new(2));
    let a_request = oracle_request(a_id, budget).with_analyzer({
        let (park, resume) = (Arc::clone(&park), Arc::clone(&resume));
        AnalyzerChoice::custom("parking", move || {
            Box::new(ParkingAnalyzer {
                first: Cell::new(true),
                park: Arc::clone(&park),
                resume: Arc::clone(&resume),
            })
        })
    });
    let (a_shared, b_shared) = std::thread::scope(|scope| {
        let a = scope.spawn(|| session.solve(&a_request).unwrap());
        park.wait();
        let b = session.solve(&b_request).unwrap();
        resume.wait();
        (a.join().unwrap(), b)
    });

    assert_eq!(oracle_render(&a_shared), oracle_render(&a_alone));
    assert_eq!(
        a_shared.stats.reused_verdicts, a_alone.stats.reused_verdicts,
        "A counted the verdicts B was served while A was running"
    );
    assert_eq!(
        b_shared.stats.reused_verdicts,
        b_repeat.stats.reused_verdicts
    );
}
