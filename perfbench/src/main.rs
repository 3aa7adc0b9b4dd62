//! The repository benchmark: end-to-end and per-layer metrics of the
//! Sickle reproduction on two workloads, with correctness checks.
//!
//! ```text
//! perfbench --workload <suite|serve-mix> --seed <n>
//!           --seconds <s> --trace <0|1> --serve-bin <path> --out <dir>
//!           [--rustc <version>] [--commit <id>]
//! ```
//!
//! Normally started through `python3 perfbench/run.py`, which builds this
//! crate and `sickle-serve` first. Workloads:
//!
//! * `suite` — the 37 depth-3/4 suite tasks, each solved cold by one
//!   closed-loop caller: 22 single-table tasks, where the analyzer and
//!   the group/partition/window operators carry the weight, and 15
//!   two-table tasks, where materialization and the prefilter dominate,
//!   the engine cache churns and memory peaks.
//! * `serve-mix` — open-loop arrivals against `sickle-serve --listen` at
//!   its defaults (see `serve.rs`): the only workload through the wire
//!   codec, the server's connections, the session pool, cross-request
//!   verdict reuse and the warm-edit purge.
//!
//! On `serve-mix` the seed picks the demo-generation seeds. The suite
//! always solves the demonstrations of the `solutions` oracle
//! dump (demo seed 2022) and check their digest against it; see
//! `suite.rs` for why it ignores the seed.
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is a separate run that adds a traced pass, reports the
//! per-layer metrics and writes its spans to `<out>/spans-<workload>.tsv`.
//! The last line of standard output is the result object.

mod check;
mod report;
mod serve;
mod speed;
mod stats;
mod suite;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{per_layer, Report, END_TO_END};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    serve_bin: PathBuf,
    out: PathBuf,
    rustc: String,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: check::ORACLE_SEED,
        seconds: 10.0,
        traced: false,
        serve_bin: PathBuf::new(),
        out: PathBuf::from("."),
        rustc: "unknown".into(),
        commit: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_: std::num::ParseIntError| format!("{flag}: bad value {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("--seconds: bad value {value:?}"))?;
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: bad value {value:?}")),
                }
            }
            "--serve-bin" => args.serve_bin = value.into(),
            "--out" => args.out = value.into(),
            "--rustc" => args.rustc = value,
            "--commit" => args.commit = value,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let (nproc, cpu) = stats::host();
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    report.notes.push(format!(
        "host nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\" commit={}",
        args.rustc, args.commit
    ));
    report.notes.push(format!(
        "workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.traced as u8
    ));
    let tracer_out = args.out.join(format!("spans-{}.tsv", args.workload));
    let valid = match args.workload.as_str() {
        "suite" => suite::run(
            &suite::TASKS.collect::<Vec<_>>(),
            args.seconds,
            args.traced,
            &tracer_out,
            &mut report,
        ),
        "serve-mix" => serve::run(
            &args.serve_bin,
            &args.out,
            args.seed,
            args.seconds,
            args.traced,
            &tracer_out,
            &mut report,
        ),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    if !valid {
        for n in &report.notes {
            println!("{n}");
        }
        eprintln!(
            "perfbench: invalid run: the generator lagged more than {} ms (p99); no result",
            serve::LAG_LIMIT_MS
        );
        return ExitCode::from(3);
    }
    let metrics: Vec<(String, &str)> = if args.traced {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    report.print(&metrics);
    ExitCode::SUCCESS
}
