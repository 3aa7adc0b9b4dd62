//! The metric names the benchmark reports, and the result it prints.

use std::collections::BTreeMap;

use sickle_bench::Json;

/// End-to-end metrics, reported with tracing off: (name, unit).
///
/// One set serves all workloads. Every time, `setup_s` included, is
/// wall time scaled to the reference host by the kernel samples taken
/// around it (`speed.rs`); the unscaled figures are printed as notes.
/// `p50_norm_ms` is the median and `tail_norm_ms` the highest
/// nearest-rank percentile that leaves at least ten samples beyond it:
/// on `suite`, of the 37 tasks' `Session::solve` times (each task's time
/// its median over the run's solves of it; the tail is p70), and on
/// `serve-mix`, of the request latencies from due time to full response
/// (p99 over at least 1000 requests). `pass_norm_s` is the time of one
/// pass over the suite (the sum of the tasks' times); on `serve-mix`,
/// whose open loop fixes the wall time, it is the server's summed search
/// time over the fixed request schedule. The failed share of operations
/// is the result's `failed` / `attempted`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_norm_s", "s"),
    ("p50_norm_ms", "ms"),
    ("tail_norm_ms", "ms"),
    ("solved", "count"),
    ("peak_rss_mb", "MiB"),
];

const ENGINE_OPS: [&str; 9] = [
    "input",
    "filter",
    "join",
    "left_join",
    "proj",
    "sort",
    "group",
    "partition",
    "arith",
];

/// Error kinds a `serve-mix` response can carry (besides `overloaded`,
/// which is `server.shed`); `transport` is a request left unanswered.
pub const ERROR_KINDS: [&str; 9] = [
    "invalid_request",
    "internal",
    "canceled",
    "resource_exhausted",
    "table",
    "parse",
    "eval",
    "bad_json",
    "transport",
];

/// Per-layer metrics, reported by the traced run: (name, unit). A
/// workload that does not exercise a layer reports it as 0. On
/// `serve-mix` the analyzer, the Def. 3 cache, the set pool and the
/// engine operators run inside the server, so `analyze.*`, `def3.*`,
/// `pool.sets`, `pool.bytes`, `session.self_s` and `engine.<op>.*` read
/// 0 there; its `synth.*`, `accept.*`, `engine.cache.*` and
/// `session.mem_bytes` are the servers' response stats.
///
/// What each group should move:
/// * `synth.*` counts (exact): `solved` and `pass_norm_s` on `suite`;
///   `synth.expand_s`: `pass_norm_s` through the single-table tasks;
/// * `accept.*`: `pass_norm_s` through the two-table tasks;
/// * `analyze.*`, `def3.*`: `p50_norm_ms` and `pass_norm_s` through the
///   single-table tasks, and `solved` through the prune ratio;
/// * `engine.<op>.*` (a frontier replay through `EvalCache::exec`):
///   joins through the two-table tasks, group/partition/arith through the
///   single-table ones; `engine.cache.*`: `pass_norm_s`;
/// * `pool.*`, `session.mem_bytes`: `peak_rss_mb` on `suite`;
/// * `server.*`, `req.*`, `pool.warm_frac`, `edit.*`, `gen.lag_ms`,
///   `wire.*` (`serve-mix` only): `p50_norm_ms` (codec, pool and warm
///   share), `tail_norm_ms` (depth-2 searches plus queueing) and failures.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("synth.visited", "count"),
        ("synth.pruned", "count"),
        ("synth.concrete_checked", "count"),
        ("synth.expand_s", "s"),
        ("accept.materialize_s", "s"),
        ("accept.prefilter_s", "s"),
        ("accept.match_s", "s"),
        ("accept.yield", "ratio"),
        ("analyze.calls", "count"),
        ("analyze.abstract_eval_s", "s"),
        ("analyze.def3_s", "s"),
        ("analyze.prune_ratio", "ratio"),
        ("def3.hits", "count"),
        ("def3.misses", "count"),
        ("def3.bytes", "bytes"),
        ("session.self_s", "s"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    // `proj` and `sort` nodes never occur in these workloads' frontiers:
    // their figures would read 0 on every run, so only their spans are
    // kept.
    for op in ENGINE_OPS
        .iter()
        .filter(|op| !matches!(**op, "proj" | "sort"))
    {
        out.push((format!("engine.{op}.calls"), "count"));
        out.push((format!("engine.{op}.s"), "s"));
        out.push((format!("engine.{op}.rows_out"), "count"));
    }
    for (n, u) in [
        ("engine.cache.evictions", "count"),
        ("engine.cache.reevals", "count"),
        ("engine.cache.reeval_s", "s"),
        ("pool.sets", "count"),
        ("pool.bytes", "bytes"),
        ("session.mem_bytes", "bytes"),
        ("server.search_ms", "ms"),
        ("server.outside_ms", "ms"),
        ("req.fresh_p50_ms", "ms"),
        ("req.repeat_p50_ms", "ms"),
        ("req.edit_p50_ms", "ms"),
        ("pool.warm_frac", "ratio"),
        ("edit.reused_verdicts", "count"),
        ("edit.invalidated_verdicts", "count"),
        ("server.shed", "count"),
    ] {
        out.push((n.to_string(), u));
    }
    for kind in ERROR_KINDS {
        out.push((format!("server.errors.{kind}"), "count"));
    }
    for (n, u) in [
        ("gen.lag_ms", "ms"),
        ("wire.decode_us", "us"),
        ("wire.encode_us", "us"),
        ("trace.overhead_frac", "ratio"),
    ] {
        out.push((n.to_string(), u));
    }
    out
}

/// The engine operator name of a query node's root.
pub fn op_name(q: &sickle_core::Query) -> &'static str {
    use sickle_core::Query;
    match q {
        Query::Input(_) => ENGINE_OPS[0],
        Query::Filter { .. } => ENGINE_OPS[1],
        Query::Join { .. } => ENGINE_OPS[2],
        Query::LeftJoin { .. } => ENGINE_OPS[3],
        Query::Proj { .. } => ENGINE_OPS[4],
        Query::Sort { .. } => ENGINE_OPS[5],
        Query::Group { .. } => ENGINE_OPS[6],
        Query::Partition { .. } => ENGINE_OPS[7],
        Query::Arith { .. } => ENGINE_OPS[8],
    }
}

/// One run's outcome: the correctness verdict, the operation counts and
/// the measured values (with sample counts where they are statistics).
#[derive(Debug, Default)]
pub struct Report {
    /// Every correctness check held.
    pub correct: bool,
    /// Operations attempted (task solves or requests).
    pub attempted: u64,
    /// Operations that failed: errors, sheds, wrong answers.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<String, f64>,
    /// Sample counts behind statistics, by metric name.
    pub samples: BTreeMap<String, usize>,
    /// Lines printed before the result (fingerprint, digests, checks).
    pub notes: Vec<String>,
}

impl Report {
    /// Records a value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Records a statistic and the number of samples behind it.
    pub fn stat(&mut self, name: &str, value: f64, samples: usize) {
        self.set(name, value);
        self.samples.insert(name.to_string(), samples);
    }

    /// Records a correctness failure.
    pub fn fail(&mut self, note: String) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {note}"));
    }

    /// Prints the notes, one `metric` line per reported metric, and the
    /// result object as the last line of standard output. `metrics` is
    /// the list the run reports; a metric it did not measure reads 0.
    pub fn print(&self, metrics: &[(String, &'static str)]) {
        for n in &self.notes {
            println!("{n}");
        }
        let attempted = self.attempted.max(1);
        println!(
            "error_frac = {} ({} failed of {} attempted)",
            self.failed as f64 / attempted as f64,
            self.failed,
            attempted
        );
        let mut fields = Vec::new();
        for (name, unit) in metrics {
            let value = self.values.get(name).copied();
            let shown = value.map_or("n/a".to_string(), |v| v.to_string());
            match self.samples.get(name) {
                Some(n) => println!("metric {name} = {shown} {unit} (n={n})"),
                None => println!("metric {name} = {shown} {unit}"),
            }
            fields.push((
                name.clone(),
                Json::Obj(vec![
                    ("value".into(), Json::num(value.unwrap_or(0.0))),
                    ("unit".into(), Json::str(*unit)),
                ]),
            ));
        }
        let result = Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::num(attempted as f64)),
            ("failed".into(), Json::num(self.failed as f64)),
            ("metrics".into(), Json::Obj(fields)),
        ]);
        println!("{}", result.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units here are the contract BENCHMARK.json states.
    #[test]
    fn benchmark_json_lists_these_metrics() {
        let spec = Json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).expect("string").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(
            listed("end_to_end"),
            own(END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect())
        );
        assert_eq!(listed("per_layer"), own(per_layer()));
    }
}
