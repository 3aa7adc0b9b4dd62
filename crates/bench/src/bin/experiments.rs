//! The paper's evaluation (§5). `experiments` runs every experiment below
//! in one pass; `experiments <name>` runs one of them:
//!
//! | name        | reproduces |
//! |-------------|------------|
//! | `census`    | §5.1 benchmark feature census |
//! | `specsize`  | §5.2 demo size vs full-example size |
//! | `userstudy` | §5.3 specification-effort model (substituted) |
//! | `fig12`     | Fig. 12 solve-rate-vs-time curves |
//! | `fig13`     | Fig. 13 explored-query distributions |
//! | `obs1`      | Observation #1 headline numbers |
//! | `ranking`   | §5.2 ground-truth ranking table |
//!
//! The last four share one suite pass over every technique (`ranking`
//! alone runs Sickle only). Knobs are read by
//! [`HarnessConfig::from_env`]; `SICKLE_SEED` (default 2022) also seeds
//! the `specsize` demonstrations.

use sickle_bench::effort::render_userstudy;
use sickle_bench::runner::{
    render_fig12, render_fig13, render_obs1, render_ranking, run_suite, HarnessConfig, Technique,
};
use sickle_benchmarks::{all_benchmarks, Benchmark, Category};

/// Every experiment, in the order a full run prints them.
const EXPERIMENTS: [&str; 7] = [
    "census",
    "specsize",
    "userstudy",
    "fig12",
    "fig13",
    "obs1",
    "ranking",
];

fn main() {
    let names: Vec<&str> = match std::env::args().nth(1).as_deref() {
        None => EXPERIMENTS.to_vec(),
        Some(name) => match EXPERIMENTS.iter().find(|&&e| e == name) {
            Some(&e) => vec![e],
            None => {
                eprintln!("usage: experiments [{}]", EXPERIMENTS.join("|"));
                std::process::exit(2);
            }
        },
    };
    let hc = HarnessConfig::from_env();
    let suite = all_benchmarks();

    // Cheap static experiments first.
    for &name in &names {
        match name {
            "census" => print!("{}", census(&suite)),
            "specsize" => print!("{}", spec_size(&suite, hc.seed)),
            "userstudy" => print!("{}", render_userstudy(&suite)),
            _ => {}
        }
    }

    // The expensive pass: every benchmark × technique, shared by the
    // figures and tables that need it.
    if names
        .iter()
        .all(|&n| matches!(n, "census" | "specsize" | "userstudy"))
    {
        return;
    }
    eprintln!("experiments: {}", hc.banner());
    let techniques: &[Technique] = if names == ["ranking"] {
        &[Technique::Provenance]
    } else {
        &Technique::ALL
    };
    let res = run_suite(techniques, &hc);
    for &name in &names {
        match name {
            "fig12" => print!("{}", render_fig12(&res)),
            "fig13" => print!("{}", render_fig13(&res)),
            "obs1" => print!("{}", render_obs1(&res)),
            "ranking" => print!("{}", render_ranking(&res)),
            _ => {}
        }
    }
}

/// E9: the benchmark feature census (§5.1).
fn census(suite: &[Benchmark]) -> String {
    let count = |f: &dyn Fn(&Benchmark) -> bool| suite.iter().filter(|b| f(b)).count();
    let mut sizes: Vec<usize> = suite.iter().map(|b| b.ground_truth.size()).collect();
    sizes.sort_unstable();
    format!(
        "Benchmark census ({} tasks)\n\
         easy={} hard-forum={} tpcds={}\n\
         join={} partition={} group={} filter={} sort={}   (paper: join=24 partition=51 group=32)\n\
         query sizes: min={} median={} max={}\n",
        suite.len(),
        count(&|b| b.category == Category::ForumEasy),
        count(&|b| b.category == Category::ForumHard),
        count(&|b| b.category == Category::TpcDs),
        count(&|b| b.features().join),
        count(&|b| b.features().partition),
        count(&|b| b.features().group),
        count(&|b| b.features().filter),
        count(&|b| b.features().sort),
        sizes[0],
        sizes[sizes.len() / 2],
        sizes[sizes.len() - 1],
    )
}

/// E7: demonstration size vs full-example size (§5.2: "average user
/// demonstration size is 9 cells; it would be 50 with full output"),
/// over the tasks whose demonstration generates under `seed`.
fn spec_size(suite: &[Benchmark], seed: u64) -> String {
    let mut demo_cells = 0usize;
    let mut full_cells = 0usize;
    let mut n = 0usize;
    for b in suite {
        if let Ok((_, gen)) = b.task(seed) {
            demo_cells += gen.demo.n_cells();
            full_cells += gen.full_example_cells;
            n += 1;
        }
    }
    format!(
        "E7 — specification size over {n} benchmarks (seed {seed})\n\
         avg demonstration cells: {:.1}   (paper: 9)\n\
         avg full-output example cells: {:.1}   (paper: 50)\n",
        demo_cells as f64 / n as f64,
        full_cells as f64 / n as f64
    )
}
