//! End-to-end synthesis benchmarks: one easy benchmark per analyzer, plus
//! the paper's running example restricted to its skeleton (the full
//! Fig. 12/13 sweep lives in the `experiments` binary — it runs minutes,
//! not milliseconds).
//!
//! All runs go through the session API (each timed run on a fresh
//! [`Session`], so the pool/caches are cold and runs are comparable).
//! Plain `harness = false` timing (the offline environment has no
//! `criterion`). Run with `cargo bench -p sickle-bench --bench synthesis`.

use std::time::{Duration, Instant};

use sickle_bench::Technique;
use sickle_benchmarks::all_benchmarks;
use sickle_core::{Budget, PQuery, Session, SynthRequest};

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

fn main() {
    let suite = all_benchmarks();

    // Easy group-sum task, all three analyzers.
    {
        let b = &suite[0]; // sales: total revenue per region (size 1)
        let (task, _) = b.task(2022).expect("demo generates");
        for technique in Technique::ALL {
            let request = SynthRequest::from_task(task.clone())
                .with_search(b.config())
                .with_budget(Budget::default().with_max_solutions(1))
                .with_analyzer(technique.choice());
            let dt = time_best(5, || {
                let r = Session::new().solve(&request).expect("valid request");
                assert!(!r.solutions.is_empty());
                r
            });
            println!(
                "synthesize/easy-group-sum/{:6} {dt:>12.2?}",
                technique.label()
            );
        }
    }

    // The running example restricted to its solution skeleton.
    {
        let b = &suite[43];
        let (task, _) = b.task(2022).expect("demo generates");
        let skeleton = PQuery::Arith {
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
        let request = SynthRequest::from_task(task)
            .with_search(b.config())
            .with_budget(Budget::default().with_max_solutions(1))
            .with_seeds(vec![skeleton]);
        let dt = time_best(3, || {
            let r = Session::new().solve(&request).expect("valid request");
            assert!(!r.solutions.is_empty());
            r
        });
        println!("synthesize/running-example-skeleton    {dt:>12.2?}");
    }
}
