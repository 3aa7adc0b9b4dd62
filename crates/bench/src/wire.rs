//! The JSON-lines request/response wire format behind `sickle-serve`.
//!
//! One request per line on stdin, one response per line on stdout; the
//! schema is documented in this crate's `README.md`. A request either
//! names a suite benchmark (`"benchmark": id`) or carries an inline task
//! (`"tables"` + `"demo"`), plus budget, analyzer and an optional
//! `"id"` echoed verbatim in the response; unknown keys are ignored.
//! Failures come back as structured errors
//! (`{"status":"error","error":{"kind","message"}}`) keyed by
//! [`SickleError::kind`] — a malformed line never kills the server.

use std::sync::OnceLock;
use std::time::Duration;

use sickle_benchmarks::{all_benchmarks, Benchmark};
use sickle_core::{
    AnalyzerChoice, Budget, JoinKey, ProgressSnapshot, SearchStats, Session, SickleError,
    SynthConfig, SynthRequest, SynthResult,
};
use sickle_provenance::Demo;
use sickle_table::{Table, Value};

use crate::json::{Json, JsonError};
use crate::runner::{correct_rank, Technique};

/// A decoded wire request: the core [`SynthRequest`] plus the envelope
/// metadata (`id`, the `progress` streaming flag). Marked
/// `#[non_exhaustive]`; decode with [`WireRequest::from_json`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct WireRequest {
    /// The request id, echoed verbatim into the response (any JSON value).
    pub id: Json,
    /// The decoded synthesis request.
    pub request: SynthRequest,
    /// When true, the server streams `"solution"` / `"progress"` event
    /// lines (with the acceptance-stage time split) before the final
    /// response line.
    pub progress: bool,
    /// For suite requests (`"benchmark": id`), the benchmark id: the
    /// success response then carries `solved`/`rank` against the task's
    /// ground truth, so a remote client (the shard driver) can assemble
    /// `BENCH_synthesis.json` records without re-parsing solutions.
    pub benchmark: Option<usize>,
    /// The raw `"prior"` field: the id of an earlier retained request
    /// this one edits, naming the pooled session it runs on. Only
    /// `sickle-serve` keeps the id → session registry needed to resolve
    /// it; the plain stdio pipeline rejects requests carrying it.
    pub prior: Option<Json>,
}

/// Looks up an analyzer by its wire name.
///
/// Accepted names: `provenance` (alias `sickle`), `type-abs`,
/// `value-abs`, `no-prune`.
pub fn analyzer_by_name(name: &str) -> Option<AnalyzerChoice> {
    match name {
        "provenance" | "sickle" => Some(Technique::Provenance.choice()),
        "type-abs" => Some(Technique::TypeAbs.choice()),
        "value-abs" => Some(Technique::ValueAbs.choice()),
        "no-prune" => Some(AnalyzerChoice::NoPrune),
        _ => None,
    }
}

fn invalid(msg: impl Into<String>) -> SickleError {
    SickleError::invalid(msg)
}

/// The benchmark suite, built once per process (requests that name a
/// benchmark arrive in batches; rebuilding 80 tasks per line would be
/// pure hot-path waste).
fn suite() -> &'static [Benchmark] {
    static SUITE: OnceLock<Vec<Benchmark>> = OnceLock::new();
    SUITE.get_or_init(all_benchmarks)
}

pub(crate) fn decode_value(v: &Json) -> Result<Value, SickleError> {
    match v {
        Json::Null => Ok(Value::Null),
        Json::Bool(b) => Ok(Value::Bool(*b)),
        Json::Str(s) => Ok(Value::Str(s.as_str().into())),
        Json::Num(n) if n.fract() == 0.0 && n.abs() < 9.2e18 => Ok(Value::Int(*n as i64)),
        Json::Num(n) => Ok(Value::Float(*n)),
        _ => Err(invalid("table cells must be scalars")),
    }
}

/// Decodes one wire table. Two encodings are accepted, selected by the
/// optional `"format"` field:
///
/// * `"json"` (default): `"columns"` (array of names) + `"rows"` (array
///   of cell arrays);
/// * `"csv"`: `"data"` holding the full CSV text ([`crate::csv`] codec —
///   header row, quoted strings, value-preserving numbers). Ragged rows,
///   bad headers and malformed quoting surface as `invalid_request`.
pub(crate) fn decode_table(t: &Json, index: usize) -> Result<Table, SickleError> {
    match t.get("format").map(|f| (f, f.as_str())) {
        None => {}
        Some((_, Some("json"))) => {}
        Some((_, Some("csv"))) => {
            let data = t.get("data").and_then(Json::as_str).ok_or_else(|| {
                invalid(format!("csv table {} needs a \"data\" string", index + 1))
            })?;
            if t.get("columns").is_some() || t.get("rows").is_some() {
                return Err(invalid(format!(
                    "csv table {} must not also carry \"columns\"/\"rows\"",
                    index + 1
                )));
            }
            return crate::csv::parse_table(data)
                .map_err(|e| invalid(format!("table {}: {e}", index + 1)));
        }
        Some(_) => {
            return Err(invalid(format!(
                "table {}: \"format\" must be \"json\" or \"csv\"",
                index + 1
            )))
        }
    }
    let columns = t
        .get("columns")
        .and_then(Json::as_array)
        .ok_or_else(|| invalid(format!("table {} needs a \"columns\" array", index + 1)))?;
    let names: Vec<String> = columns
        .iter()
        .map(|c| {
            c.as_str()
                .map(str::to_string)
                .ok_or_else(|| invalid("column names must be strings"))
        })
        .collect::<Result<_, _>>()?;
    let rows_json = t
        .get("rows")
        .and_then(Json::as_array)
        .ok_or_else(|| invalid(format!("table {} needs a \"rows\" array", index + 1)))?;
    let mut rows = Vec::with_capacity(rows_json.len());
    for r in rows_json {
        let cells = r
            .as_array()
            .ok_or_else(|| invalid("each table row must be an array"))?;
        rows.push(
            cells
                .iter()
                .map(decode_value)
                .collect::<Result<Vec<Value>, _>>()?,
        );
    }
    Ok(Table::new(names, rows)?)
}

fn decode_demo(d: &Json) -> Result<Demo, SickleError> {
    let rows_json = d
        .as_array()
        .ok_or_else(|| invalid("\"demo\" must be an array of rows"))?;
    let mut rows: Vec<Vec<&str>> = Vec::with_capacity(rows_json.len());
    for r in rows_json {
        let cells = r
            .as_array()
            .ok_or_else(|| invalid("each demo row must be an array of formula strings"))?;
        rows.push(
            cells
                .iter()
                .map(|c| {
                    c.as_str()
                        .ok_or_else(|| invalid("demo cells must be formula strings"))
                })
                .collect::<Result<_, _>>()?,
        );
    }
    let borrowed: Vec<&[&str]> = rows.iter().map(Vec::as_slice).collect();
    Ok(Demo::parse(&borrowed)?)
}

/// Decodes one wire join key: an object with **1-based**
/// `left_table`/`left_col`/`right_table`/`right_col` (matching the
/// `T[row,col]` surface syntax of demonstrations).
pub(crate) fn decode_join_key(jk: &Json) -> Result<JoinKey, SickleError> {
    let field = |name: &str| {
        jk.get(name)
            .and_then(Json::as_usize)
            .filter(|&n| n >= 1)
            .ok_or_else(|| invalid(format!("join key needs a 1-based integer \"{name}\"")))
    };
    Ok(JoinKey {
        left_table: field("left_table")? - 1,
        left_col: field("left_col")? - 1,
        right_table: field("right_table")? - 1,
        right_col: field("right_col")? - 1,
    })
}

fn decode_budget(json: Option<&Json>) -> Result<Budget, SickleError> {
    let mut budget = Budget::default();
    let Some(b) = json else {
        return Ok(budget);
    };
    if let Some(t) = b.get("timeout_secs") {
        budget = budget.with_timeout(match t {
            Json::Null => None,
            _ => {
                let secs = t
                    .as_f64()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| invalid("budget.timeout_secs must be a number or null"))?;
                // try_: from_secs_f64 aborts the process on overflow.
                Some(Duration::try_from_secs_f64(secs).map_err(|_| {
                    invalid("budget.timeout_secs is too large (use null for unbounded)")
                })?)
            }
        });
    }
    if let Some(v) = b.get("max_visited") {
        budget = budget.with_max_visited(match v {
            Json::Null => None,
            _ => Some(
                v.as_usize()
                    .ok_or_else(|| invalid("budget.max_visited must be an integer or null"))?,
            ),
        });
    }
    if let Some(n) = b.get("max_solutions") {
        budget = budget.with_max_solutions(
            n.as_usize()
                .ok_or_else(|| invalid("budget.max_solutions must be an integer"))?,
        );
    }
    Ok(budget)
}

impl WireRequest {
    /// Decodes a request object.
    ///
    /// # Errors
    ///
    /// Returns [`SickleError::InvalidRequest`] for schema violations,
    /// [`SickleError::Table`] / [`SickleError::Parse`] for bad inline
    /// tables or demo formulas.
    pub fn from_json(json: &Json) -> Result<WireRequest, SickleError> {
        let id = json.get("id").cloned().unwrap_or(Json::Null);
        let mut benchmark = None;

        let mut request = match (json.get("benchmark"), json.get("tables")) {
            (Some(_), Some(_)) => {
                return Err(invalid("give either \"benchmark\" or \"tables\", not both"))
            }
            (Some(b), None) => {
                let bench_id = b
                    .as_usize()
                    .ok_or_else(|| invalid("\"benchmark\" must be a task id"))?;
                let bench = suite()
                    .iter()
                    .find(|bm| bm.id == bench_id)
                    .ok_or_else(|| invalid(format!("unknown benchmark id {bench_id}")))?;
                let seed = json
                    .get("seed")
                    .map(|s| {
                        s.as_usize()
                            .ok_or_else(|| invalid("\"seed\" must be an integer"))
                    })
                    .transpose()?
                    .unwrap_or(2022) as u64;
                let (task, _gen) = bench.task(seed).map_err(|e| SickleError::Internal {
                    message: format!("benchmark {bench_id} demo generation failed: {e:?}"),
                })?;
                benchmark = Some(bench_id);
                SynthRequest::from_task(task).with_search(bench.config())
            }
            (None, Some(tables_json)) => {
                let tables_json = tables_json
                    .as_array()
                    .ok_or_else(|| invalid("\"tables\" must be an array"))?;
                if tables_json.is_empty() {
                    return Err(invalid("\"tables\" must not be empty"));
                }
                let tables = tables_json
                    .iter()
                    .enumerate()
                    .map(|(i, t)| decode_table(t, i))
                    .collect::<Result<Vec<_>, _>>()?;
                let demo = decode_demo(
                    json.get("demo")
                        .ok_or_else(|| invalid("inline requests need a \"demo\""))?,
                )?;
                let enable_join = tables.len() > 1;
                let mut request = SynthRequest::new(tables, demo)
                    .with_search(SynthConfig::new().with_enable_join(enable_join));
                if let Some(jks) = json.get("join_keys") {
                    let jks = jks
                        .as_array()
                        .ok_or_else(|| invalid("\"join_keys\" must be an array"))?;
                    for jk in jks {
                        request = request.with_join_key(decode_join_key(jk)?);
                    }
                }
                if let Some(consts) = json.get("constants") {
                    let consts = consts
                        .as_array()
                        .ok_or_else(|| invalid("\"constants\" must be an array"))?;
                    request = request.with_constants(
                        consts
                            .iter()
                            .map(decode_value)
                            .collect::<Result<Vec<_>, _>>()?,
                    );
                }
                request
            }
            (None, None) => {
                return Err(invalid(
                    "a request needs either \"benchmark\" or \"tables\" + \"demo\"",
                ))
            }
        };

        if let Some(d) = json.get("max_depth") {
            request.search.max_depth = d
                .as_usize()
                .ok_or_else(|| invalid("\"max_depth\" must be an integer"))?;
        }
        if let Some(j) = json.get("enable_join") {
            request.search.enable_join = j
                .as_bool()
                .ok_or_else(|| invalid("\"enable_join\" must be a boolean"))?;
        }
        request.budget = decode_budget(json.get("budget"))?;
        if let Some(a) = json.get("analyzer") {
            let name = a
                .as_str()
                .ok_or_else(|| invalid("\"analyzer\" must be a string"))?;
            request.analyzer = analyzer_by_name(name)
                .ok_or_else(|| invalid(format!("unknown analyzer \"{name}\"")))?;
        }
        let progress = match json.get("progress") {
            None => false,
            Some(p) => p
                .as_bool()
                .ok_or_else(|| invalid("\"progress\" must be a boolean"))?,
        };
        if let Some(r) = json.get("retain") {
            request = request.with_retain(
                r.as_bool()
                    .ok_or_else(|| invalid("\"retain\" must be a boolean"))?,
            );
        }
        let prior = match json.get("prior") {
            None => None,
            Some(Json::Null) => return Err(invalid("\"prior\" must not be null")),
            Some(p) => {
                // An edit chain continues: the edit is made nameable so
                // the *next* edit can name this request as its prior.
                request = request.with_retain(true);
                Some(p.clone())
            }
        };

        Ok(WireRequest {
            id,
            request,
            progress,
            benchmark,
            prior,
        })
    }
}

/// Encodes a successful response line.
pub fn response_ok(id: &Json, result: &SynthResult) -> Json {
    Json::Obj(vec![
        ("id".into(), id.clone()),
        ("status".into(), Json::str("ok")),
        (
            "solutions".into(),
            Json::Arr(
                result
                    .solutions
                    .iter()
                    .map(|q| Json::str(q.to_string()))
                    .collect(),
            ),
        ),
        ("timed_out".into(), Json::Bool(result.stats.timed_out)),
        (
            "stats".into(),
            Json::Obj(stats_fields(&result.stats, false)),
        ),
    ])
}

/// Every declared counter of `stats` by its wire key (only the live ones
/// when `live_only`), in declaration order.
fn stats_fields(stats: &SearchStats, live_only: bool) -> Vec<(String, Json)> {
    let mut fields = Vec::new();
    stats.visit(|c, v| {
        if c.live || !live_only {
            fields.push((c.key.into(), Json::num(v)));
        }
    });
    fields
}

/// Encodes a [`ProgressSnapshot`] as the `{"event":"progress",…}` object
/// streamed for [`sickle_core::SolutionEvent::Progress`]: the solution
/// count plus every live counter — including the acceptance-stage time
/// split (`time_materialize_s` / `time_prefilter_s` / `time_match_s`), so
/// an eval-path regression is visible *during* a long search, not only in
/// the final stats.
pub fn progress_json(p: &ProgressSnapshot) -> Json {
    let mut fields = vec![
        ("event".into(), Json::str("progress")),
        ("solutions".into(), Json::num(p.solutions as f64)),
    ];
    fields.extend(stats_fields(&p.stats, true));
    Json::Obj(fields)
}

/// Encodes an error response line.
pub fn response_error(id: &Json, kind: &str, message: &str) -> Json {
    Json::Obj(vec![
        ("id".into(), id.clone()),
        ("status".into(), Json::str("error")),
        (
            "error".into(),
            Json::Obj(vec![
                ("kind".into(), Json::str(kind)),
                ("message".into(), Json::str(message)),
            ]),
        ),
    ])
}

/// Encodes a [`SickleError`] as the structured error response line
/// (`error.kind` = [`SickleError::kind`]). An [`SickleError::Overloaded`]
/// carrying a server-computed retry hint additionally gets an
/// `error.retry_after_ms` field so clients can pace their retry exactly
/// instead of guessing with exponential backoff.
pub fn error_response(id: &Json, e: &SickleError) -> Json {
    let mut response = response_error(id, e.kind(), &e.to_string());
    if let SickleError::Overloaded {
        retry_after_ms: Some(ms),
        ..
    } = e
    {
        if let Json::Obj(fields) = &mut response {
            for (name, value) in fields.iter_mut() {
                if name == "error" {
                    if let Json::Obj(err_fields) = value {
                        err_fields.push(("retry_after_ms".into(), Json::num(*ms as f64)));
                    }
                }
            }
        }
    }
    response
}

/// Encodes a line-level JSON parse failure (no decoded id to echo).
pub fn bad_json_response(e: &JsonError) -> Json {
    response_error(&Json::Null, "bad_json", &e.to_string())
}

/// Encodes the final success response for a decoded request:
/// [`response_ok`] plus, for suite requests ([`WireRequest::benchmark`]),
/// `solved`/`rank` of the ground-truth query among the returned
/// solutions.
pub fn finish_response(wire: &WireRequest, result: &SynthResult) -> Json {
    let mut response = response_ok(&wire.id, result);
    if let Some(b) = wire
        .benchmark
        .and_then(|bid| suite().iter().find(|bm| bm.id == bid))
    {
        let rank = correct_rank(b, &result.solutions);
        if let Json::Obj(fields) = &mut response {
            fields.push(("solved".into(), Json::Bool(rank.is_some())));
            fields.push((
                "rank".into(),
                rank.map_or(Json::Null, |n| Json::num(n as f64)),
            ));
        }
    }
    response
}

fn sickle_error_response(id: &Json, e: &SickleError) -> Json {
    error_response(id, e)
}

fn json_error_response(e: &JsonError) -> Json {
    bad_json_response(e)
}

/// Prepends the request id to an event object (events are streamed, so
/// every line must be attributable to its request).
pub(crate) fn with_id(id: &Json, event: Json) -> Json {
    match event {
        Json::Obj(mut fields) => {
            fields.insert(0, ("id".into(), id.clone()));
            Json::Obj(fields)
        }
        other => other,
    }
}

/// The full pipeline for one wire line: parse, decode, solve on the warm
/// `session`, encode. Never fails — problems become structured error
/// responses.
pub fn handle_line(session: &Session, line: &str) -> Json {
    handle_line_with(session, line, &mut |_| {})
}

/// [`handle_line`] with event streaming: for requests carrying
/// `"progress": true`, every found solution and progress snapshot is
/// passed to `emit` (as `{"id":…,"event":"solution"|"progress",…}`
/// objects, progress including the acceptance-stage time split) before
/// the final response is returned. Requests without the flag never call
/// `emit`.
pub fn handle_line_with(session: &Session, line: &str, emit: &mut dyn FnMut(Json)) -> Json {
    let json = match Json::parse(line) {
        Ok(json) => json,
        Err(e) => return json_error_response(&e),
    };
    let wire = match WireRequest::from_json(&json) {
        Ok(wire) => wire,
        Err(e) => return sickle_error_response(json.get("id").unwrap_or(&Json::Null), &e),
    };
    if wire.prior.is_some() {
        // Resolving a prior id needs the per-server id → session
        // registry; only `sickle-serve` keeps one across lines.
        return sickle_error_response(
            &wire.id,
            &invalid("\"prior\" requires sickle-serve (no prior-request registry on this path)"),
        );
    }
    if !wire.progress {
        return match session.solve(&wire.request) {
            Ok(result) => finish_response(&wire, &result),
            Err(e) => sickle_error_response(&wire.id, &e),
        };
    }
    let stream = match session.submit(wire.request.clone()) {
        Ok(stream) => stream,
        Err(e) => return sickle_error_response(&wire.id, &e),
    };
    for event in stream {
        match event {
            sickle_core::SolutionEvent::Solution { index, query } => emit(with_id(
                &wire.id,
                Json::Obj(vec![
                    ("event".into(), Json::str("solution")),
                    ("index".into(), Json::num(index as f64)),
                    ("query".into(), Json::str(query.to_string())),
                ]),
            )),
            sickle_core::SolutionEvent::Progress(p) => {
                emit(with_id(&wire.id, progress_json(&p)));
            }
            sickle_core::SolutionEvent::Done(result) => return finish_response(&wire, &result),
            sickle_core::SolutionEvent::Failed(e) => return sickle_error_response(&wire.id, &e),
            // Future event kinds stream nothing but must not end the loop.
            _ => {}
        }
    }
    sickle_error_response(
        &wire.id,
        &SickleError::Internal {
            message: "synthesis worker terminated without a result".to_string(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inline_request_line() -> String {
        concat!(
            r#"{"id": "r1", "#,
            r#""tables": [{"columns": ["region", "revenue"], "#,
            r#""rows": [["west", 10], ["west", 20], ["east", 5]]}], "#,
            r#""demo": [["T[1,1]", "sum(T[1,2], T[2,2])"], ["T[3,1]", "sum(T[3,2])"]], "#,
            r#""max_depth": 1, "#,
            r#""budget": {"max_solutions": 3, "max_visited": 50000}}"#
        )
        .to_string()
    }

    #[test]
    fn inline_request_solves_end_to_end() {
        let session = Session::new();
        let response = handle_line(&session, &inline_request_line());
        assert_eq!(
            response.get("status").and_then(Json::as_str),
            Some("ok"),
            "{}",
            response.render()
        );
        assert_eq!(response.get("id").and_then(Json::as_str), Some("r1"));
        let solutions = response.get("solutions").and_then(Json::as_array).unwrap();
        assert!(!solutions.is_empty());
        assert!(solutions[0].as_str().unwrap().contains("group"));
        assert_eq!(
            response.get("timed_out").and_then(Json::as_bool),
            Some(false)
        );
        // The response line is itself valid JSON.
        assert!(Json::parse(&response.render()).is_ok());
    }

    #[test]
    fn benchmark_request_decodes_with_suite_config() {
        let wire = WireRequest::from_json(
            &Json::parse(r#"{"benchmark": 1, "budget": {"timeout_secs": 5}}"#).unwrap(),
        )
        .unwrap();
        assert!(!wire.request.task.inputs.is_empty());
        assert_eq!(wire.request.budget.timeout, Some(Duration::from_secs(5)));
    }

    #[test]
    fn prior_and_retain_decode() {
        // "retain" alone: make this id nameable, no prior.
        let wire =
            WireRequest::from_json(&Json::parse(r#"{"benchmark": 1, "retain": true}"#).unwrap())
                .unwrap();
        assert!(wire.request.retain);
        assert!(wire.prior.is_none());
        // "prior" carries the raw id and implies "retain" (so the next
        // edit in the chain can name *this* request).
        let wire =
            WireRequest::from_json(&Json::parse(r#"{"benchmark": 1, "prior": "r7"}"#).unwrap())
                .unwrap();
        assert!(wire.request.retain);
        assert_eq!(wire.prior.as_ref().map(Json::render), Some("\"r7\"".into()));
        // Neither field: the id is not recorded.
        let wire = WireRequest::from_json(&Json::parse(r#"{"benchmark": 1}"#).unwrap()).unwrap();
        assert!(!wire.request.retain);
    }

    #[test]
    fn structured_errors_for_bad_lines() {
        let session = Session::new();
        let cases = [
            ("{not json", "bad_json"),
            (r#"{"id": 1}"#, "invalid_request"),
            (r#"{"id": 1, "benchmark": 999}"#, "invalid_request"),
            (
                r#"{"benchmark": 1, "analyzer": "quantum"}"#,
                "invalid_request",
            ),
            (
                r#"{"tables": [{"columns": ["a"], "rows": [["x"], ["y", "z"]]}], "demo": [["T[1,1]"]]}"#,
                "table",
            ),
            (
                r#"{"tables": [{"columns": ["a"], "rows": [["x"]]}], "demo": [["sum(("]]}"#,
                "parse",
            ),
            (
                r#"{"tables": [{"columns": ["a"], "rows": [["x"]]}], "demo": [["T[5,5]"]]}"#,
                "invalid_request",
            ),
            // Overflowing timeout must be a structured error, not a
            // Duration::from_secs_f64 process abort.
            (
                r#"{"benchmark": 1, "budget": {"timeout_secs": 1e20}}"#,
                "invalid_request",
            ),
            // "prior" needs the id registry only sickle-serve keeps.
            (r#"{"benchmark": 1, "prior": "r0"}"#, "invalid_request"),
            (r#"{"benchmark": 1, "prior": null}"#, "invalid_request"),
            (r#"{"benchmark": 1, "retain": "yes"}"#, "invalid_request"),
        ];
        for (line, expected_kind) in cases {
            let response = handle_line(&session, line);
            assert_eq!(
                response.get("status").and_then(Json::as_str),
                Some("error"),
                "{line}"
            );
            let kind = response
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str);
            assert_eq!(kind, Some(expected_kind), "{line}");
        }
    }

    #[test]
    fn response_stats_carry_the_acceptance_split() {
        let session = Session::new();
        let response = handle_line(&session, &inline_request_line());
        let stats = response.get("stats").expect("stats object");
        for field in [
            "time_eval_s",
            "time_materialize_s",
            "time_prefilter_s",
            "time_match_s",
            "time_join_s",
            "join_rows",
            "cache_evictions",
            "cache_demotions",
            "cache_reevals",
            "reused_verdicts",
        ] {
            assert!(
                stats.get(field).and_then(Json::as_f64).is_some(),
                "missing {field}: {}",
                response.render()
            );
        }
        // The split sums to (at most) the total, up to timer granularity.
        let f = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap();
        assert!(
            f("time_materialize_s") + f("time_prefilter_s") + f("time_match_s")
                <= f("time_eval_s") + 1e-6
        );
    }

    #[test]
    fn progress_requests_stream_events_before_the_response() {
        let session = Session::new();
        let line =
            inline_request_line().replace("\"max_depth\"", "\"progress\": true, \"max_depth\"");
        let mut events = Vec::new();
        let response = handle_line_with(&session, &line, &mut |e| events.push(e));
        assert_eq!(response.get("status").and_then(Json::as_str), Some("ok"));
        assert!(!events.is_empty(), "progress request streamed no events");
        let kinds: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("event").and_then(Json::as_str))
            .collect();
        assert!(kinds.contains(&"solution"), "{kinds:?}");
        assert!(kinds.contains(&"progress"), "{kinds:?}");
        for e in &events {
            // Every event line is attributable and valid JSON.
            assert_eq!(e.get("id").and_then(Json::as_str), Some("r1"));
            assert!(Json::parse(&e.render()).is_ok());
            if e.get("event").and_then(Json::as_str) == Some("progress") {
                for field in [
                    "time_materialize_s",
                    "time_prefilter_s",
                    "time_match_s",
                    "time_join_s",
                    "join_rows",
                ] {
                    assert!(e.get(field).is_some(), "{}", e.render());
                }
            }
        }
        // Without the flag, the sink is never called.
        let mut silent = Vec::new();
        let response = handle_line_with(&session, &inline_request_line(), &mut |e| silent.push(e));
        assert_eq!(response.get("status").and_then(Json::as_str), Some("ok"));
        assert!(silent.is_empty());
    }

    #[test]
    fn benchmark_responses_carry_solved_and_rank() {
        let session = Session::new();
        let response = handle_line(
            &session,
            r#"{"id": 7, "benchmark": 1, "budget": {"timeout_secs": null, "max_visited": 20000}}"#,
        );
        assert_eq!(
            response.get("status").and_then(Json::as_str),
            Some("ok"),
            "{}",
            response.render()
        );
        assert_eq!(response.get("solved").and_then(Json::as_bool), Some(true));
        assert_eq!(response.get("rank").and_then(Json::as_f64), Some(1.0));
        // Inline requests have no ground truth; the fields are absent.
        let inline = handle_line(&session, &inline_request_line());
        assert_eq!(inline.get("status").and_then(Json::as_str), Some("ok"));
        assert!(inline.get("solved").is_none());
        assert!(inline.get("rank").is_none());
    }

    #[test]
    fn csv_tables_decode_like_json_tables() {
        let session = Session::new();
        let csv_line = concat!(
            r#"{"id": "c1", "#,
            r#""tables": [{"format": "csv", "data": "region,revenue\nwest,10\nwest,20\neast,5\n"}], "#,
            r#""demo": [["T[1,1]", "sum(T[1,2], T[2,2])"], ["T[3,1]", "sum(T[3,2])"]], "#,
            r#""max_depth": 1, "#,
            r#""budget": {"max_solutions": 3, "max_visited": 50000}}"#
        );
        let from_csv = handle_line(&session, csv_line);
        let from_json = handle_line(&session, &inline_request_line());
        assert_eq!(
            from_csv.get("status").and_then(Json::as_str),
            Some("ok"),
            "{}",
            from_csv.render()
        );
        // Identical tables + demo ⇒ identical solutions, either encoding.
        assert_eq!(
            from_csv.get("solutions").map(Json::render),
            from_json.get("solutions").map(Json::render)
        );
        // Quoted numerics stay strings: "10" is not summable, so the
        // same demo over a quoted column must fail to find solutions
        // rather than silently coercing.
        let quoted = decode_table(
            &Json::parse(r#"{"format": "csv", "data": "a,b\nx,\"10\"\n"}"#).unwrap(),
            0,
        )
        .unwrap();
        assert_eq!(quoted.get(0, 1), Some(&Value::Str("10".into())));
    }

    #[test]
    fn csv_table_errors_are_invalid_request() {
        let session = Session::new();
        let cases = [
            // Ragged CSV row.
            r#"{"tables": [{"format": "csv", "data": "a,b\n1,2\n3\n"}], "demo": [["T[1,1]"]]}"#,
            // Empty header name.
            r#"{"tables": [{"format": "csv", "data": "a,,b\n1,2,3\n"}], "demo": [["T[1,1]"]]}"#,
            // Unterminated quote.
            r#"{"tables": [{"format": "csv", "data": "a\n\"open\n"}], "demo": [["T[1,1]"]]}"#,
            // Missing data payload.
            r#"{"tables": [{"format": "csv"}], "demo": [["T[1,1]"]]}"#,
            // Both encodings at once.
            r#"{"tables": [{"format": "csv", "data": "a\n1\n", "rows": []}], "demo": [["T[1,1]"]]}"#,
            // Unknown format.
            r#"{"tables": [{"format": "tsv", "data": "a\n1\n"}], "demo": [["T[1,1]"]]}"#,
        ];
        for line in cases {
            let response = handle_line(&session, line);
            let kind = response
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str);
            assert_eq!(kind, Some("invalid_request"), "{line}");
        }
    }

    #[test]
    fn deeply_nested_demo_formulas_are_parse_errors() {
        // Each would overflow the stack of a 2 MiB connection thread if
        // the parser had no depth bound; like any malformed formula,
        // they are `parse` errors.
        let session = Session::new();
        let parens = format!("{}T[1,2]{}", "(".repeat(10_000), ")".repeat(10_000));
        let chain = vec!["T[1,2]"; 100_000].join("+");
        for cell in [parens, chain] {
            let line = format!(
                r#"{{"tables": [{{"columns": ["a", "b"], "rows": [["x", 1]]}}], "demo": [["T[1,1]", "{cell}"]]}}"#
            );
            let response = handle_line(&session, &line);
            let error = response.get("error");
            let kind = error.and_then(|e| e.get("kind")).and_then(Json::as_str);
            assert_eq!(kind, Some("parse"));
            // The message quotes an excerpt of the cell, not all of it.
            let message = error
                .and_then(|e| e.get("message"))
                .and_then(Json::as_str)
                .expect("error message");
            assert!(message.len() < 512, "{} bytes", message.len());
        }
    }

    #[test]
    fn join_keys_are_one_based() {
        let jk = decode_join_key(
            &Json::parse(r#"{"left_table":1,"left_col":2,"right_table":2,"right_col":1}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(
            jk,
            JoinKey {
                left_table: 0,
                left_col: 1,
                right_table: 1,
                right_col: 0,
            }
        );
        assert!(decode_join_key(&Json::parse(r#"{"left_table":0}"#).unwrap()).is_err());
    }
}
