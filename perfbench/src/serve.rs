//! The open-loop `serve-mix` workload against `sickle-serve --listen`.
//!
//! Arrivals are Poisson at a fixed rate over `--seconds`, built from the
//! 43 forum-easy tasks as inline wire lines (tables as JSON or CSV).
//! Every `HEAVY_EVERY`-th arrival is one fixed demo of the depth-2 task
//! `HEAVY`, searched cold each time. The others come from the 39 tasks
//! that are not depth-2 and belong to `USERS` users who take turns; each
//! works through [`SCRIPT`]: a fresh demo (sent with `retain`), an exact
//! repeat of it, a one-row edit and a one-cell edit, each edit naming the
//! user's previous request as `prior`. Then the user starts over on a
//! task no other user is on. The whole schedule, request bytes included,
//! is a pure function of the seed.
//!
//! The client is open loop: one generator writes each request at its due
//! time, whether or not earlier ones are answered, and a reader thread
//! collects the answers. Both use one connection, which the server
//! answers in request order, so an edit always reaches it after its
//! prior. With one connection the server runs one search at a time and
//! its search threads keep reusing one malloc arena, so its peak RSS is
//! steady; over two connections, concurrent searches spread over several
//! arenas and the peak varied between 111 and 213 MiB across identical
//! runs.
//!
//! Every distinct request body is also solved in process at set-up
//! (`Session::solve` on the same decoded request); each served answer
//! must equal it.
//!
//! Host speed (`speed.rs`) is sampled before each server start-up and,
//! during the schedule, by the generator while the server has nothing
//! to answer and the next request is not due for a while: the kernel
//! never overlaps a request in flight and never delays a send.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use sickle_bench::{
    finish_response, wire_line, CorpusBudget, Json, TableFormat, TaskBundle, WireRequest,
};
use sickle_benchmarks::{all_benchmarks, Benchmark, Category, Rng};
use sickle_core::{Query, Session, SynthResult};
use sickle_provenance::{Demo, DemoExpr};

use crate::check::contains_demo;
use crate::report::{Report, ERROR_KINDS};
use crate::speed::Speed;
use crate::stats::{exponential, median, peak_rss_mb, percentile, unit};
use crate::suite::{write_spans, MAX_SOLUTIONS, MAX_VISITED};
use crate::trace::{Span, Tracer};

/// Offered arrivals per second: a run of 30 seconds or more offers at
/// least the 1000 requests a 99th percentile needs (1700 in 50 s).
pub const RATE: f64 = 34.0;

/// Seed of the arrival mix (part of the workload definition).
const MIX_SEED: u64 = 0x5eed_2022;

/// One step of a user's script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Fresh,
    Repeat,
    DropRow,
    EditCell,
}

/// What each user does, in turn, over and over: a new demonstration, a
/// resubmission of it, then the two demo edits of `sickle_bench::edit`
/// that keep the task (`drop-last-row`, `edit-cell`; its third edit,
/// `reseed`, is the next fresh demo). The light traffic is therefore a
/// quarter fresh demos, a quarter repeats and half edits.
const SCRIPT: [Step; 4] = [Step::Fresh, Step::Repeat, Step::DropRow, Step::EditCell];

/// Users taking turns on the light arrivals. The server's default pool
/// keeps 8 warm sessions, one per demonstration family. Between two
/// steps of one user the other users and at most one depth-2 arrival
/// touch 4 sessions, so a user's session is never the one evicted.
const USERS: usize = 4;

/// The depth-2 forum-easy tasks, whose 0.2–1 s searches would set the
/// tail: the light traffic leaves them out.
const DEPTH2: [usize; 4] = [36, 27, 8, 18];

/// The depth-2 task the workload sends, the one with the shortest search
/// (about 0.24 s). It is sent as one fixed demonstration with a new id
/// every time: every `HEAVY_EVERY`-th arrival, never edited and never
/// retained, 28 in a 50-second run. Between two of them the users open
/// well over the pool's 8 sessions, so each finds its session evicted and
/// searches cold, doing the same work every time (the `depth-2` note
/// marks any that ran warm). Light requests that arrive during one wait
/// for it, so the largest latencies are these searches and the first
/// waits behind them, and `tail_norm_ms` (the 18th largest of a 50-second
/// run's 1700) is an order statistic over many searches of identical
/// work. Depth-2 demos that differ would leave the tail to the one or two
/// longest searches of a run, which vary by ±30% between identical runs,
/// and task 27's fixed demo shares its session with light traffic, so
/// its repeats would run warm. The depth-2 share stays low, about a
/// seventh of the server's time: the more light requests wait behind a
/// depth-2 search, the more `p50_norm_ms` moves with its time.
const HEAVY: usize = 36;
const HEAVY_EVERY: usize = 60;

/// Server start-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// A run whose 99th-percentile send lag exceeds this is invalid: the
/// generator, not the server, would be shaping the latencies.
pub const LAG_LIMIT_MS: f64 = 50.0;

/// The generator takes at most one kernel sample per this interval, and
/// only when the next request is due in more than `SAMPLE_ROOM` kernel
/// times.
const SAMPLE_EVERY: Duration = Duration::from_millis(100);
const SAMPLE_ROOM: u32 = 3;

/// How often the generator looks whether the server has answered
/// everything sent, while it waits to take a kernel sample.
const IDLE_CHECK: Duration = Duration::from_millis(1);

/// How long past the schedule a request may stay unanswered.
const DRAIN: Duration = Duration::from_secs(60);

/// Read timeout of the reader thread (how often it checks the deadline)
/// and write timeout of the generator.
const POLL: Duration = Duration::from_millis(100);
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// A tiny valid request that shows the server accepts and answers.
const PROBE: &str = r#"{"id":"probe","tables":[{"columns":["k","v"],"rows":[["a",1],["a",2],["b",3]]}],"demo":[["T[1,1]","sum(T[1,2], T[2,2])"]],"max_depth":1}"#;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Fresh,
    Repeat,
    Edit,
}

/// One distinct request body (tables, demo, search settings).
struct Content {
    /// Benchmark id the content was generated from.
    task: usize,
    /// Whether the demo was edited (the ground truth no longer applies).
    edited: bool,
    bundle: TaskBundle,
    /// The demonstration the bundle's formulas encode.
    demo: Demo,
}

/// One scheduled request.
struct Arrival {
    due_s: f64,
    kind: Kind,
    content: usize,
    line: String,
}

/// The request schedule of one run.
struct Schedule {
    contents: Vec<Content>,
    arrivals: Vec<Arrival>,
}

/// Where a user is in [`SCRIPT`].
#[derive(Default)]
struct User {
    step: usize,
    /// The benchmark the user is working on.
    task: Option<usize>,
    /// The content of the user's fresh demo.
    base: usize,
    /// The user's latest content and the arrival that sent it.
    head: usize,
    head_arrival: usize,
}

fn demo_rows(demo: &Demo) -> Vec<Vec<String>> {
    (0..demo.n_rows())
        .map(|r| {
            (0..demo.n_cols())
                .map(|c| demo.cell(r, c).to_string())
                .collect()
        })
        .collect()
}

fn cells(demo: &Demo) -> Vec<Vec<DemoExpr>> {
    (0..demo.n_rows())
        .map(|r| {
            (0..demo.n_cols())
                .map(|c| demo.cell(r, c).clone())
                .collect()
        })
        .collect()
}

/// The wire line of `bundle` under `id`, with `extra` fields appended.
/// `None` if the bundle cannot be rendered or its demo does not survive
/// the wire syntax unchanged.
fn line(bundle: &TaskBundle, id: &str, extra: &[(&str, Json)], demo: &Demo) -> Option<String> {
    let mut json = Json::parse(&wire_line(bundle, &Json::str(id)).ok()?).ok()?;
    if let Json::Obj(fields) = &mut json {
        fields.extend(extra.iter().map(|(k, v)| (k.to_string(), v.clone())));
    }
    let line = json.render();
    let decoded = WireRequest::from_json(&Json::parse(&line).ok()?).ok()?;
    (decoded.request.task.demo == *demo).then_some(line)
}

/// Demo seeds tried for one fresh arrival before the schedule gives up
/// (demo generation can fail for a sampled input).
const FRESH_TRIES: usize = 64;

/// A fresh content for task `b` and its wire line under `id`: draws
/// demo seeds and table formats until demo generation and the wire round
/// trip succeed.
fn fresh(rng: &mut Rng, b: &Benchmark, id: &str, retain: bool) -> (Content, String) {
    for _ in 0..FRESH_TRIES {
        let demo_seed = rng.next_u64() % 1_000_000_000;
        let format = if unit(rng) < 0.5 {
            TableFormat::Csv
        } else {
            TableFormat::Json
        };
        let Ok((task, _)) = b.task(demo_seed) else {
            continue;
        };
        let bundle = TaskBundle {
            id: format!("easy-{}-{demo_seed}", b.id),
            seed: demo_seed,
            category: "forum-easy".into(),
            format,
            demo_rows: demo_rows(&task.demo),
            enable_join: task.inputs.len() > 1,
            tables: task.inputs,
            join_keys: task.join_keys,
            constants: task.extra_constants,
            max_depth: b.config().max_depth,
            budget: CorpusBudget {
                max_visited: MAX_VISITED,
                max_solutions: MAX_SOLUTIONS,
            },
            expected: Vec::new(),
            visited: 0,
            pruned: 0,
        };
        let extra: &[(&str, Json)] = if retain {
            &[("retain", Json::Bool(true))]
        } else {
            &[]
        };
        if let Some(l) = line(&bundle, id, extra, &task.demo) {
            let content = Content {
                task: b.id,
                edited: false,
                bundle,
                demo: task.demo,
            };
            return (content, l);
        }
    }
    panic!(
        "task {}: no demo seed out of {FRESH_TRIES} survives the wire syntax",
        b.id
    )
}

/// The demo of `c` after a one-row edit (drop the last row) or a
/// one-cell edit (the last cell spliced from a neighbouring demo seed's
/// demonstration). Where the asked edit does not apply, the other one is
/// made; `None` if neither does.
fn edit(b: &Benchmark, c: &Content, step: Step) -> Option<Demo> {
    let demo = &c.demo;
    let drop_row = || {
        if demo.n_rows() < 2 {
            return None;
        }
        let mut rows = cells(demo);
        rows.pop();
        Demo::new(rows).ok()
    };
    let splice = || {
        let (r, col) = (demo.n_rows() - 1, demo.n_cols() - 1);
        (1..=4).find_map(|k| {
            let donor = b.task(c.bundle.seed.wrapping_add(k)).ok()?.0.demo;
            if donor.n_rows() <= r
                || donor.n_cols() != demo.n_cols()
                || donor.cell(r, col) == demo.cell(r, col)
            {
                return None;
            }
            let mut rows = cells(demo);
            rows[r][col] = donor.cell(r, col).clone();
            Demo::new(rows).ok()
        })
    };
    match step {
        Step::DropRow => drop_row().or_else(splice),
        _ => splice().or_else(drop_row),
    }
}

/// The edited content of `head` and its wire line under `id`, naming
/// arrival `head_arrival` as `prior`.
fn edited(
    benches: &[Benchmark],
    head: &Content,
    head_arrival: usize,
    step: Step,
    id: &str,
) -> Option<(Content, String)> {
    let demo = edit(&benches[head.task - 1], head, step)?;
    let mut bundle = head.bundle.clone();
    bundle.demo_rows = demo_rows(&demo);
    let l = line(
        &bundle,
        id,
        &[("prior", Json::str(format!("r{head_arrival}")))],
        &demo,
    )?;
    let content = Content {
        task: head.task,
        edited: true,
        bundle,
        demo,
    };
    Some((content, l))
}

/// The request schedule for `seed` over `seconds`. The seed picks the
/// demo seeds and table formats of the light tasks. Arrival times, tasks,
/// and the demos of the depth-2 tasks come from the workload's own fixed
/// seed: every seed offers the same load, and the depth-2 searches, whose
/// time varies by half across demo seeds, set `tail_norm_ms` and much of
/// `pass_norm_s` the same way on every seed.
fn schedule(benches: &[Benchmark], seed: u64, seconds: f64) -> Schedule {
    let light: Vec<usize> = benches
        .iter()
        .filter(|b| b.category == Category::ForumEasy && !DEPTH2.contains(&b.id))
        .map(|b| b.id)
        .collect();
    let mut mix = Rng::seed_from_u64(MIX_SEED);
    let mut rng = Rng::seed_from_u64(seed);
    let n = (RATE * seconds).round().max(1.0) as usize;
    let mut contents: Vec<Content> = vec![fresh(&mut mix, &benches[HEAVY - 1], "heavy", false).0];
    let mut users: Vec<User> = (0..USERS).map(|_| User::default()).collect();
    let mut arrivals = Vec::with_capacity(n);
    let (mut due_s, mut turn) = (0.0, 0);
    for i in 0..n {
        due_s += exponential(&mut mix, 1.0 / RATE);
        let id = format!("r{i}");
        if (i + 1) % HEAVY_EVERY == 0 {
            let content = 0;
            let c = &contents[content];
            let line =
                self::line(&c.bundle, &id, &[], &c.demo).expect("a depth-2 demo round-trips");
            arrivals.push(Arrival {
                due_s,
                kind: Kind::Fresh,
                content,
                line,
            });
            continue;
        }
        let u = turn % USERS;
        turn += 1;
        // Users work on different tasks. Two chains of one task can have
        // demos with the same fingerprint, and the server retains one
        // prior per session and fingerprint: the second chain's edit
        // would find its prior taken by the first's.
        let others: Vec<usize> = (0..USERS)
            .filter(|&k| k != u)
            .filter_map(|k| users[k].task)
            .collect();
        let user = &mut users[u];
        let step = SCRIPT[user.step];
        user.step = (user.step + 1) % SCRIPT.len();
        let edit = match step {
            Step::Fresh | Step::Repeat => None,
            _ => edited(benches, &contents[user.head], user.head_arrival, step, &id),
        };
        let (kind, line) = match (step, edit) {
            (Step::Fresh, _) => {
                let task = loop {
                    let t = light[mix.gen_range(light.len())];
                    if !others.contains(&t) {
                        break t;
                    }
                };
                user.task = Some(task);
                let (content, line) = fresh(&mut rng, &benches[task - 1], &id, true);
                contents.push(content);
                user.base = contents.len() - 1;
                user.head = user.base;
                user.head_arrival = i;
                (Kind::Fresh, line)
            }
            (_, Some((content, line))) => {
                contents.push(content);
                user.head = contents.len() - 1;
                user.head_arrival = i;
                (Kind::Edit, line)
            }
            // A repeat, also where no edit applies.
            (_, None) => {
                let base = &contents[user.base];
                let line =
                    self::line(&base.bundle, &id, &[], &base.demo).expect("a base round-trips");
                (Kind::Repeat, line)
            }
        };
        arrivals.push(Arrival {
            due_s,
            kind,
            content: if kind == Kind::Repeat {
                user.base
            } else {
                user.head
            },
            line,
        });
    }
    Schedule { contents, arrivals }
}

/// The set-up reference answer of one content.
struct Reference {
    rendered: Vec<String>,
    /// `None` when the reference solve itself failed (a check failure).
    result: Option<SynthResult>,
    /// Ground truth among the answers (unedited contents only).
    gt_found: bool,
}

/// Threads the reference solves are spread over.
const REF_THREADS: usize = 2;

/// Solves every content in process on a fresh `Session`, from the same
/// decoded wire request the server gets, and checks each answer: demo
/// containment, and the ground-truth rank.
fn references(benches: &[Benchmark], sched: &Schedule, report: &mut Report) -> Vec<Reference> {
    let solve = |i: usize| {
        let c = &sched.contents[i];
        let l =
            wire_line(&c.bundle, &Json::str(format!("ref{i}"))).expect("rendered at schedule time");
        let wire =
            WireRequest::from_json(&Json::parse(&l).expect("valid JSON")).expect("valid request");
        Session::new().solve(&wire.request)
    };
    let n = sched.contents.len();
    let mut solved: Vec<Option<_>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..REF_THREADS)
            .map(|k| {
                let solve = &solve;
                s.spawn(move || {
                    (k..n)
                        .step_by(REF_THREADS)
                        .map(|i| (i, solve(i)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for w in workers {
            for (i, r) in w.join().expect("reference worker panicked") {
                solved[i] = Some(r);
            }
        }
    });

    let mut refs = Vec::with_capacity(n);
    for (c, r) in sched.contents.iter().zip(solved) {
        let result = match r.expect("every content solved") {
            Ok(r) => r,
            Err(e) => {
                report.fail(format!("reference solve of task {} failed: {e}", c.task));
                refs.push(Reference {
                    rendered: Vec::new(),
                    result: None,
                    gt_found: false,
                });
                continue;
            }
        };
        for q in &result.solutions {
            if !contains_demo(q, &c.bundle.tables, &c.demo) {
                report.fail(format!(
                    "task {}: reference {q} does not hold the demo rows",
                    c.task
                ));
            }
        }
        let b = &benches[c.task - 1];
        refs.push(Reference {
            rendered: result.solutions.iter().map(Query::to_string).collect(),
            gt_found: !c.edited && result.solutions.iter().any(|q| b.is_correct(q)),
            result: Some(result),
        });
    }
    refs
}

/// A running `sickle-serve --listen unix:…` process at its defaults.
struct Server {
    child: Child,
    sock: PathBuf,
}

impl Server {
    /// Spawns the server and returns it with the time from spawn to the
    /// answer on its first accepted connection. `SICKLE_*` variables are
    /// left out of its environment, so every knob is at its default.
    fn start(bin: &Path, sock: &Path, log: &Path) -> Result<(Server, f64), String> {
        let _ = std::fs::remove_file(sock);
        let log = std::fs::File::create(log).map_err(|e| format!("server log: {e}"))?;
        let mut command = Command::new(bin);
        for (k, _) in std::env::vars_os() {
            if k.to_string_lossy().starts_with("SICKLE_") {
                command.env_remove(k);
            }
        }
        let t0 = Instant::now();
        let child = command
            .arg("--listen")
            .arg(format!("unix:{}", sock.display()))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut server = Server {
            child,
            sock: sock.to_path_buf(),
        };
        let conn = loop {
            match UnixStream::connect(sock) {
                Ok(c) => break c,
                Err(e) => {
                    if t0.elapsed() > Duration::from_secs(30) {
                        return Err(format!("server did not listen: {e}"));
                    }
                    if let Ok(Some(status)) = server.child.try_wait() {
                        return Err(format!("server exited at start-up: {status}"));
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        };
        let _ = conn.set_read_timeout(Some(Duration::from_secs(30)));
        (&conn)
            .write_all(format!("{PROBE}\n").as_bytes())
            .map_err(|e| format!("probe: {e}"))?;
        let mut answer = String::new();
        BufReader::new(&conn)
            .read_line(&mut answer)
            .map_err(|e| format!("probe: {e}"))?;
        let setup = t0.elapsed().as_secs_f64();
        if !answer.contains("\"status\":\"ok\"") {
            return Err(format!("probe failed: {answer}"));
        }
        Ok((server, setup))
    }

    fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&self.child.id().to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.sock);
    }
}

/// What the client saw of one request, in seconds since the schedule
/// start.
#[derive(Clone, Default)]
struct Seen {
    /// When the generator wrote it (`None`: never sent).
    sent: Option<f64>,
    /// When its answer line was complete (`None`: never answered).
    recv: Option<f64>,
    /// The answer, if it parsed as JSON.
    response: Option<Json>,
}

/// Drives the schedule open loop over one connection: this thread
/// writes each request at its due time; a reader thread takes the
/// answers, which the server sends in request order. Between requests,
/// when all sent ones are answered and the next is not due soon, this
/// thread takes a kernel sample. Returns per arrival what the client saw, and
/// the schedule's start on the run's clock.
fn drive(
    sock: &Path,
    sched: &Schedule,
    seconds: f64,
    tracer: Option<&Tracer>,
    speed: &mut Speed,
) -> Result<(Vec<Seen>, f64), String> {
    let mut writer = UnixStream::connect(sock).map_err(|e| format!("connect: {e}"))?;
    let _ = writer.set_write_timeout(Some(WRITE_TIMEOUT));
    let read_side = writer.try_clone().map_err(|e| format!("connect: {e}"))?;
    let n = sched.arrivals.len();
    let start = Instant::now() + Duration::from_millis(20);
    let deadline = start + Duration::from_secs_f64(seconds) + DRAIN;
    let since = |t: Instant| t.saturating_duration_since(start).as_secs_f64();
    let mut seen = vec![Seen::default(); n];
    let answered = AtomicUsize::new(0);
    let (mut last_sample, mut kernel) = (Instant::now(), speed.sample());
    std::thread::scope(|s| {
        let answered = &answered;
        let reader = s.spawn(move || read_answers(read_side, n, deadline, since, answered));
        let mut bytes = Vec::new();
        for (k, (a, seen)) in sched.arrivals.iter().zip(seen.iter_mut()).enumerate() {
            let due = start + Duration::from_secs_f64(a.due_s);
            let room = Duration::from_secs_f64(kernel) * SAMPLE_ROOM;
            while due.saturating_duration_since(Instant::now()) > room
                && last_sample.elapsed() >= SAMPLE_EVERY
            {
                if answered.load(Ordering::Acquire) == k {
                    kernel = speed.sample();
                    last_sample = Instant::now();
                    break;
                }
                std::thread::sleep(IDLE_CHECK);
            }
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            bytes.clear();
            bytes.extend_from_slice(a.line.as_bytes());
            bytes.push(b'\n');
            let sent = Instant::now();
            if writer.write_all(&bytes).is_err() {
                break;
            }
            seen.sent = Some(since(sent));
        }
        let answers = reader.join().expect("reader thread panicked");
        for (s, (recv, response)) in seen.iter_mut().zip(answers) {
            s.recv = Some(recv);
            s.response = response;
        }
    });
    speed.sample();
    if let Some(t) = tracer {
        let at = |secs: f64| t.at(start + Duration::from_secs_f64(secs));
        for (i, (a, s)) in sched.arrivals.iter().zip(&seen).enumerate() {
            let (Some(sent), Some(recv)) = (s.sent, s.recv) else {
                continue;
            };
            let span = |parent, name, from, to| Span {
                id: i as u32,
                parent,
                name,
                start: at(from),
                end: at(to),
            };
            let request = t.push(span(0, "request", a.due_s, recv));
            t.push(span(request, "generator_lag", a.due_s, sent));
            t.push(span(request, "exchange", sent, recv));
        }
    }
    Ok((seen, speed.at(start)))
}

/// Reads answer lines, the k-th answering the k-th request, until `n`
/// are in, the connection closes or the deadline passes, counting them
/// in `answered`. Returns each answer's receive time and parsed line.
fn read_answers(
    conn: UnixStream,
    n: usize,
    deadline: Instant,
    since: impl Fn(Instant) -> f64,
    answered: &AtomicUsize,
) -> Vec<(f64, Option<Json>)> {
    let _ = conn.set_read_timeout(Some(POLL));
    let mut reader = BufReader::new(conn);
    let mut got = Vec::with_capacity(n);
    let mut buf = Vec::new();
    while got.len() < n && Instant::now() < deadline {
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => break,
            Ok(_) if buf.ends_with(b"\n") => {
                let recv = since(Instant::now());
                let response = std::str::from_utf8(&buf)
                    .ok()
                    .and_then(|s| Json::parse(s).ok());
                got.push((recv, response));
                answered.fetch_add(1, Ordering::Release);
                buf.clear();
            }
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => break,
        }
    }
    got
}

/// What one pass of the schedule measured.
struct Pass {
    latency_ms: Vec<f64>,
    /// `latency_ms` scaled to the reference host.
    norm_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    seen: Vec<Seen>,
    /// The schedule's start on the run's clock.
    start: f64,
    rss: Option<f64>,
}

fn stat(r: &Json, key: &str) -> f64 {
    r.get("stats")
        .and_then(|s| s.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Starts the server `SETUP_REPS` times, each after a kernel sample,
/// keeping the last one, and drives the schedule against it. `setup`
/// gets each start-up's (from, to) on the run's clock.
fn run_pass(
    bin: &Path,
    dir: &Path,
    sched: &Schedule,
    seconds: f64,
    tracer: Option<&Tracer>,
    speed: &mut Speed,
    setup: &mut Vec<(f64, f64)>,
) -> Result<Pass, String> {
    let sock = dir.join("serve.sock");
    let log = dir.join("serve.log");
    let mut start = || -> Result<Server, String> {
        speed.sample();
        let t0 = Instant::now();
        let (server, s) = Server::start(bin, &sock, &log)?;
        let from = speed.at(t0);
        setup.push((from, from + s));
        Ok(server)
    };
    for _ in 1..SETUP_REPS {
        start()?;
    }
    let server = start()?;
    let (seen, start) = drive(&sock, sched, seconds, tracer, speed)?;
    let rss = server.peak_rss_mb();
    drop(server);
    let mut latency_ms = Vec::new();
    let mut norm_ms = Vec::new();
    let mut lag_ms = Vec::new();
    for (a, s) in sched.arrivals.iter().zip(&seen) {
        if let Some(sent) = s.sent {
            lag_ms.push((sent - a.due_s).max(0.0) * 1e3);
        }
        if let Some(recv) = s.recv {
            let ms = (recv - a.due_s) * 1e3;
            latency_ms.push(ms);
            norm_ms.push(speed.scale(ms, start + a.due_s, start + recv));
        }
    }
    Ok(Pass {
        latency_ms,
        norm_ms,
        lag_ms,
        seen,
        start,
        rss,
    })
}

/// The answer to arrival `i`, if it is an `ok` response under the
/// arrival's own id.
fn ok_answer(i: usize, s: &Seen) -> Option<&Json> {
    s.response.as_ref().filter(|r| {
        r.get("status").and_then(Json::as_str) == Some("ok")
            && r.get("id").and_then(Json::as_str) == Some(format!("r{i}").as_str())
    })
}

/// Checks every response of a pass against its reference; returns the
/// failure count and the per-pass synth counts (visited, pruned,
/// concrete_checked) for the transparency check.
fn judge(
    sched: &Schedule,
    refs: &[Reference],
    pass: &Pass,
    report: &mut Report,
) -> (u64, [u64; 3]) {
    let mut failed = 0;
    let mut counts = [0u64; 3];
    let mut mismatches = 0;
    for (i, (a, s)) in sched.arrivals.iter().zip(&pass.seen).enumerate() {
        let Some(r) = ok_answer(i, s) else {
            if failed < 3 {
                let why = s
                    .response
                    .as_ref()
                    .map_or("no response".into(), Json::render);
                report.notes.push(format!("request r{i} failed: {why}"));
            }
            failed += 1;
            continue;
        };
        for (j, k) in ["visited", "pruned", "concrete_checked"].iter().enumerate() {
            counts[j] += stat(r, k) as u64;
        }
        let solutions: Vec<String> = r
            .get("solutions")
            .and_then(Json::as_array)
            .map(|qs| {
                qs.iter()
                    .filter_map(Json::as_str)
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default();
        if solutions != refs[a.content].rendered {
            failed += 1;
            mismatches += 1;
        }
    }
    if mismatches > 0 {
        report.fail(format!(
            "{mismatches} served answers differ from the set-up reference"
        ));
    }
    (failed, counts)
}

/// Runs `serve-mix` and fills `report`. Returns `false` when the run is
/// invalid (the generator lagged) and must not be reported.
pub fn run(
    bin: &Path,
    dir: &Path,
    seed: u64,
    seconds: f64,
    traced: bool,
    spans_out: &Path,
    report: &mut Report,
) -> bool {
    let benches = all_benchmarks();
    let t0 = Instant::now();
    let sched = schedule(&benches, seed, seconds);
    let t1 = Instant::now();
    let refs = references(&benches, &sched, report);
    report.notes.push(format!(
        "benchmark set-up: schedule {:.2} s, references {:.2} s",
        (t1 - t0).as_secs_f64(),
        t1.elapsed().as_secs_f64()
    ));
    let count = |k: Kind| sched.arrivals.iter().filter(|a| a.kind == k).count();
    report.notes.push(format!(
        "schedule seed={seed} requests={} heavy={} fresh={} repeat={} edit={} contents={} rate={RATE}/s",
        sched.arrivals.len(),
        sched.arrivals.iter().filter(|a| sched.contents[a.content].task == HEAVY).count(),
        count(Kind::Fresh),
        count(Kind::Repeat),
        count(Kind::Edit),
        sched.contents.len()
    ));

    let mut speed = Speed::new();
    let mut setup = Vec::new();
    let first = match run_pass(bin, dir, &sched, seconds, None, &mut speed, &mut setup) {
        Ok(p) => p,
        Err(e) => {
            report.fail(e);
            return true;
        }
    };
    let tracer = Tracer::new();
    let second = if traced {
        let mut setup = Vec::new();
        match run_pass(
            bin,
            dir,
            &sched,
            seconds,
            Some(&tracer),
            &mut speed,
            &mut setup,
        ) {
            Ok(p) => Some(p),
            Err(e) => {
                report.fail(e);
                return true;
            }
        }
    } else {
        None
    };
    let mut valid = true;
    for p in std::iter::once(&first).chain(second.iter()) {
        let lag = percentile(&p.lag_ms, 99.0);
        report.notes.push(format!(
            "gen.lag p99 = {lag:.3} ms (limit {LAG_LIMIT_MS} ms)"
        ));
        if lag > LAG_LIMIT_MS {
            valid = false;
        }
    }
    let (failed, counts) = judge(&sched, &refs, &first, report);
    report.attempted += sched.arrivals.len() as u64;
    report.failed += failed;

    let ok: Vec<(usize, &Json)> = first
        .seen
        .iter()
        .enumerate()
        .filter_map(|(i, s)| ok_answer(i, s).map(|r| (i, r)))
        .collect();
    let mut solved: Vec<usize> = ok
        .iter()
        .map(|(i, _)| &sched.arrivals[*i])
        .filter(|a| refs[a.content].gt_found)
        .map(|a| sched.contents[a.content].task)
        .collect();
    solved.sort_unstable();
    solved.dedup();
    let lat = &first.latency_ms;
    let norm = &first.norm_ms;
    let setup_wall: Vec<f64> = setup.iter().map(|(a, b)| b - a).collect();
    let setup_norm: Vec<f64> = setup
        .iter()
        .map(|&(a, b)| speed.scale(b - a, a, b))
        .collect();
    // Each search scaled by the host speed around its end.
    let search = |scaled: bool| -> f64 {
        ok.iter()
            .map(|(i, r)| {
                let wall = stat(r, "wall_s");
                let recv = first.start + first.seen[*i].recv.unwrap_or(0.0);
                if scaled {
                    speed.scale(wall, recv - wall, recv)
                } else {
                    wall
                }
            })
            .sum()
    };
    report.stat("setup_s", median(&setup_norm), setup_norm.len());
    report.stat("pass_norm_s", search(true), ok.len());
    report.stat("p50_norm_ms", median(norm), norm.len());
    report.stat("tail_norm_ms", percentile(norm, 99.0), norm.len());
    report.notes.push(format!(
        "unscaled: setup_s = {} s, pass_s = {} s, req_p50_ms = {} ms, req_p99_ms = {} ms (n={}); \
         kernel median {} ms over {} samples",
        median(&setup_wall),
        search(false),
        median(lat),
        percentile(lat, 99.0),
        lat.len(),
        speed.median_kernel_s() * 1e3,
        speed.len()
    ));
    report.set("solved", solved.len() as f64);
    let heavy: Vec<String> = ok
        .iter()
        .filter(|(i, _)| sched.contents[sched.arrivals[*i].content].task == HEAVY)
        .map(|(i, r)| {
            let recv = first.start + first.seen[*i].recv.unwrap_or(0.0);
            let wall = stat(r, "wall_s");
            format!(
                "r{i} {:.0}{}",
                speed.scale(wall, recv - wall, recv) * 1e3,
                if stat(r, "reused_verdicts") > 0.0 {
                    " (warm)"
                } else {
                    ""
                }
            )
        })
        .collect();
    report.notes.push(format!(
        "depth-2 searches (scaled ms): {}",
        heavy.join(", ")
    ));
    if let Some(rss) = first.rss {
        report.set("peak_rss_mb", rss);
    }

    if let Some(second) = &second {
        let (failed2, counts2) = judge(&sched, &refs, second, report);
        report.attempted += sched.arrivals.len() as u64;
        report.failed += failed2;
        if counts != counts2 {
            report.fail(format!(
                "traced pass changed the synth counts: {counts:?} vs {counts2:?}"
            ));
        }
        report.set(
            "trace.overhead_frac",
            median(&second.latency_ms) / median(&first.latency_ms) - 1.0,
        );
        per_layer(&sched, &refs, second, report);
        report.notes.push(
            "analyze.*, def3.*, pool.sets, pool.bytes, session.self_s and \
             engine.<op>.* read 0 here: the analyzer and engine run inside the \
             server, whose own figures are the response stats"
                .into(),
        );
        write_spans(&tracer, spans_out, report);
    }
    valid
}

/// Response stats summed over the traced pass, and the metric each is.
const STAT_SUMS: [(&str, &str); 10] = [
    ("visited", "synth.visited"),
    ("pruned", "synth.pruned"),
    ("concrete_checked", "synth.concrete_checked"),
    ("time_expand_s", "synth.expand_s"),
    ("time_materialize_s", "accept.materialize_s"),
    ("time_prefilter_s", "accept.prefilter_s"),
    ("time_match_s", "accept.match_s"),
    ("cache_evictions", "engine.cache.evictions"),
    ("cache_reevals", "engine.cache.reevals"),
    ("cache_reeval_s", "engine.cache.reeval_s"),
];

/// The per-layer metrics of the traced pass: the server's response
/// stats, the client-side figures and the codec timed in process.
fn per_layer(sched: &Schedule, refs: &[Reference], pass: &Pass, report: &mut Report) {
    let mut search_ms = Vec::new();
    let mut outside_ms = Vec::new();
    let mut by_kind: [Vec<f64>; 3] = Default::default();
    let (mut warm, mut ok_count) = (0usize, 0usize);
    let mut edit = [0.0f64; 2];
    let mut errors = std::collections::BTreeMap::<String, usize>::new();
    let mut sums = [0.0f64; STAT_SUMS.len()];
    let mut mem_bytes = 0.0f64;
    let mut solutions = 0usize;
    for (a, s) in sched.arrivals.iter().zip(&pass.seen) {
        let (Some(recv), Some(r)) = (s.recv, s.response.as_ref()) else {
            *errors.entry("transport".into()).or_default() += 1;
            continue;
        };
        if r.get("status").and_then(Json::as_str) != Some("ok") {
            let kind = r
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str)
                .unwrap_or("internal");
            *errors.entry(kind.to_string()).or_default() += 1;
            continue;
        }
        ok_count += 1;
        let lat = (recv - a.due_s) * 1e3;
        let wall = stat(r, "wall_s") * 1e3;
        search_ms.push(wall);
        outside_ms.push(lat - wall);
        by_kind[a.kind as usize].push(lat);
        if stat(r, "reused_verdicts") > 0.0 {
            warm += 1;
        }
        if a.kind == Kind::Edit {
            edit[0] += stat(r, "reused_verdicts");
            edit[1] += stat(r, "invalidated_verdicts");
        }
        for (sum, (key, _)) in sums.iter_mut().zip(STAT_SUMS) {
            *sum += stat(r, key);
        }
        mem_bytes = mem_bytes.max(stat(r, "mem_bytes"));
        solutions += refs[a.content].rendered.len();
    }
    for (sum, (_, name)) in sums.iter().zip(STAT_SUMS) {
        report.set(name, *sum);
    }
    report.set("accept.yield", solutions as f64 / sums[2].max(1.0));
    report.set("session.mem_bytes", mem_bytes);
    report.stat("server.search_ms", median(&search_ms), search_ms.len());
    report.stat("server.outside_ms", median(&outside_ms), outside_ms.len());
    for (k, name) in [Kind::Fresh, Kind::Repeat, Kind::Edit].iter().zip([
        "req.fresh_p50_ms",
        "req.repeat_p50_ms",
        "req.edit_p50_ms",
    ]) {
        let xs = &by_kind[*k as usize];
        report.stat(name, median(xs), xs.len());
    }
    report.set("pool.warm_frac", warm as f64 / ok_count.max(1) as f64);
    report.set("edit.reused_verdicts", edit[0]);
    report.set("edit.invalidated_verdicts", edit[1]);
    report.set(
        "server.shed",
        errors.get("overloaded").copied().unwrap_or(0) as f64,
    );
    for kind in ERROR_KINDS {
        report.set(
            &format!("server.errors.{kind}"),
            errors.get(kind).copied().unwrap_or(0) as f64,
        );
    }
    report.stat(
        "gen.lag_ms",
        percentile(&pass.lag_ms, 99.0),
        pass.lag_ms.len(),
    );

    // The codec in process, over this workload's own lines and answers.
    let mut decode_us = Vec::with_capacity(sched.arrivals.len());
    let mut encode_us = Vec::with_capacity(sched.arrivals.len());
    for a in &sched.arrivals {
        let t0 = Instant::now();
        let wire = Json::parse(&a.line)
            .ok()
            .and_then(|j| WireRequest::from_json(&j).ok());
        let t1 = Instant::now();
        let (Some(wire), Some(result)) = (wire, &refs[a.content].result) else {
            continue;
        };
        let rendered = finish_response(&wire, result).render();
        let t2 = Instant::now();
        std::hint::black_box(rendered);
        decode_us.push((t1 - t0).as_secs_f64() * 1e6);
        encode_us.push((t2 - t1).as_secs_f64() * 1e6);
    }
    report.stat("wire.decode_us", median(&decode_us), decode_us.len());
    report.stat("wire.encode_us", median(&encode_us), encode_us.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let benches = all_benchmarks();
        let lines = |seed| -> Vec<(String, u64)> {
            schedule(&benches, seed, 2.0)
                .arrivals
                .iter()
                .map(|a| (a.line.clone(), a.due_s.to_bits()))
                .collect()
        };
        let a = lines(7);
        assert_eq!(a.len(), (RATE * 2.0).round() as usize);
        assert_eq!(a, lines(7));
        assert_ne!(a, lines(8));
        // The seed varies demonstrations, not the load: arrival times and
        // tasks are the same for every seed.
        let shape = |seed| -> Vec<(u64, usize)> {
            let sched = schedule(&benches, seed, 2.0);
            sched
                .arrivals
                .iter()
                .map(|a| (a.due_s.to_bits(), sched.contents[a.content].task))
                .collect()
        };
        assert_eq!(shape(7), shape(8));
    }

    #[test]
    fn schedule_follows_the_user_script() {
        let benches = all_benchmarks();
        let sched = schedule(&benches, 11, 8.0);
        // Per user: the base arrival and the latest retained one.
        let mut users: Vec<Option<(usize, String)>> = vec![None; USERS];
        let mut turn = 0;
        for (i, a) in sched.arrivals.iter().enumerate() {
            let json = Json::parse(&a.line).unwrap();
            let id = format!("r{i}");
            assert_eq!(json.get("id").and_then(Json::as_str), Some(id.as_str()));
            let wire = WireRequest::from_json(&json).unwrap();
            let task = sched.contents[a.content].task;
            if (i + 1) % HEAVY_EVERY == 0 {
                assert_eq!(task, HEAVY);
                assert_eq!(a.kind, Kind::Fresh);
                assert!(!wire.request.retain && wire.prior.is_none());
                continue;
            }
            assert!(!DEPTH2.contains(&task));
            let user = &mut users[turn % USERS];
            let step = SCRIPT[(turn / USERS) % SCRIPT.len()];
            turn += 1;
            match a.kind {
                Kind::Fresh => {
                    assert_eq!(step, Step::Fresh);
                    assert!(wire.request.retain && wire.prior.is_none());
                    *user = Some((a.content, id));
                    // No two users work on one task at a time.
                    let mut tasks: Vec<usize> = users
                        .iter()
                        .flatten()
                        .map(|(base, _)| sched.contents[*base].task)
                        .collect();
                    let n = tasks.len();
                    tasks.sort_unstable();
                    tasks.dedup();
                    assert_eq!(tasks.len(), n);
                }
                Kind::Repeat => {
                    assert_ne!(step, Step::Fresh);
                    assert!(!wire.request.retain && wire.prior.is_none());
                    assert_eq!(Some(a.content), user.as_ref().map(|u| u.0));
                }
                Kind::Edit => {
                    // An edit names the user's latest retained request.
                    assert!(matches!(step, Step::DropRow | Step::EditCell));
                    assert!(sched.contents[a.content].edited);
                    let (base, head) = user.as_mut().unwrap();
                    let prior = wire.prior.as_ref().and_then(Json::as_str).unwrap();
                    assert_eq!(prior, head.as_str());
                    assert_eq!(task, sched.contents[*base].task);
                    *head = id;
                }
            }
        }
        for k in [Kind::Fresh, Kind::Repeat, Kind::Edit] {
            assert!(sched.arrivals.iter().any(|a| a.kind == k), "{k:?} present");
        }
        for f in [TableFormat::Csv, TableFormat::Json] {
            assert!(sched.contents.iter().any(|c| c.bundle.format == f));
        }
        assert!(sched.arrivals.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        let heavy = sched
            .arrivals
            .iter()
            .filter(|a| sched.contents[a.content].task == HEAVY)
            .count();
        assert_eq!(heavy, sched.arrivals.len() / HEAVY_EVERY);
    }
}
