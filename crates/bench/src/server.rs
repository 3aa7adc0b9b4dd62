//! The concurrent synthesis service behind `sickle-serve --listen`.
//!
//! Promotes the JSON-lines wire format from a single-threaded
//! stdin/stdout loop to a socket server with a robustness envelope around
//! every request:
//!
//! * **Transport** — Unix-domain (`unix:/path`) or TCP
//!   (`tcp:host:port`) listener, one thread per connection, one JSON
//!   request per line (schema unchanged from the stdio server).
//! * **Warm state** — a bounded [`SessionPool`]: one warm
//!   [`sickle_core::Session`] per demonstration family, LRU-evicted under
//!   a global interned-set bound, so total cache memory is centrally
//!   bounded no matter how many distinct clients connect.
//! * **Admission control** — at most [`ServerConfig::max_inflight`]
//!   searches run concurrently; up to [`ServerConfig::queue`] more wait.
//!   Beyond that the request is shed immediately with a structured
//!   `overloaded` error (graceful degradation, never silent queueing).
//! * **Watchdog** — a hard per-request deadline
//!   ([`ServerConfig::watchdog`]) enforced by arming the request's
//!   [`CancelToken`], even when the client's budget is unbounded. A
//!   search that ignores cancellation past [`ServerConfig::grace`] is
//!   detached (the worker thread is abandoned, its admission slot freed)
//!   and the client gets a structured `canceled` error.
//! * **Panic isolation** — `catch_unwind` around every request: a
//!   poisoned request yields an `internal` error response and closes its
//!   connection; the server keeps serving everyone else.
//! * **Hangup detection** — streamed-event write failures and an EOF
//!   probe once per poll tick both trip the request's `CancelToken`, so
//!   a client that disappears never burns a full search.
//! * **Input bound** — request lines are capped at
//!   [`ServerConfig::max_line_bytes`] (`SICKLE_MAX_LINE_BYTES`, default
//!   8 MiB); oversized lines are drained and rejected with a structured
//!   `invalid_request` error instead of buffered unboundedly.
//! * **Graceful shutdown** — SIGTERM/SIGINT stop the accept loop, cancel
//!   in-flight searches (found solutions are still delivered), flush and
//!   exit 0.
//! * **Fault injection** — the `SICKLE_FAULT` env hook (compiled in, off
//!   by default) injects panics, stalls, disconnects and aborts at named
//!   sites so integration tests can prove each recovery path.
//!
//! The stdio mode of `sickle-serve` ([`serve_stdio`]) runs the same
//! per-request envelope over stdin/stdout (minus socket-only hangup
//! probing), so the two transports cannot drift.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use sickle_core::{
    demo_fingerprint, Analyzer, AnalyzerChoice, CancelToken, PQuery, SessionPool,
    SessionPoolConfig, SickleError, SolutionEvent, StreamWait, SynthTask, TaskContext,
};

use crate::json::Json;
use crate::wire::{bad_json_response, error_response, finish_response, progress_json, WireRequest};

/// Poll granularity of the serving loops: read timeouts, watchdog checks
/// and shutdown checks all tick at this rate.
const POLL: Duration = Duration::from_millis(100);

/// Longest wait of the accept loop between shutdown checks. A connection
/// ends the wait at once.
const ACCEPT_TICK: Duration = Duration::from_millis(25);

/// Write timeout on client sockets: a client that stops reading must
/// surface as a write error (tripping cancellation), not wedge the
/// serving thread forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Knobs of the serving envelope. Defaults come from
/// [`ServerConfig::default`]; [`ServerConfig::from_env`] layers the
/// `SICKLE_*` environment on top (the CLI flags of `sickle-serve` layer
/// on top of that).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum searches running concurrently.
    pub max_inflight: usize,
    /// Requests allowed to wait for a slot beyond `max_inflight`; the
    /// next one is shed with a structured `overloaded` error.
    pub queue: usize,
    /// Hard per-request deadline, enforced server-side via the request's
    /// [`CancelToken`] regardless of the client's own budget.
    pub watchdog: Duration,
    /// How long a canceled search may keep running before the worker is
    /// detached and the client gets a `canceled` error.
    pub grace: Duration,
    /// Maximum accepted request-line length in bytes.
    pub max_line_bytes: usize,
    /// Approximate memory budget in bytes (`--max-bytes` /
    /// `SICKLE_MAX_BYTES`). `usize::MAX` disables the pressure ladder.
    /// When set, the warm session pool is byte-bounded to the same
    /// budget, admission sheds requests whose projected cost cannot fit,
    /// and the soft/hard watermarks of [`Shared`] engage.
    pub max_bytes: usize,
    /// Bounds of the warm session pool.
    pub pool: SessionPoolConfig,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(2);
        ServerConfig {
            max_inflight: cores,
            queue: 2 * cores,
            watchdog: Duration::from_secs(600),
            grace: Duration::from_secs(2),
            max_line_bytes: 8 * 1024 * 1024,
            max_bytes: usize::MAX,
            pool: SessionPoolConfig::default(),
        }
    }
}

impl ServerConfig {
    /// Defaults overridden by `SICKLE_MAX_INFLIGHT`, `SICKLE_QUEUE`,
    /// `SICKLE_WATCHDOG_SECS`, `SICKLE_WATCHDOG_GRACE_MS`,
    /// `SICKLE_MAX_LINE_BYTES`, `SICKLE_MAX_BYTES`,
    /// `SICKLE_POOL_SESSIONS` and `SICKLE_POOL_SETS`.
    pub fn from_env() -> ServerConfig {
        let get = |k: &str| std::env::var(k).ok();
        let mut c = ServerConfig::default();
        if let Some(n) = get("SICKLE_MAX_INFLIGHT").and_then(|v| v.parse().ok()) {
            c.max_inflight = 1usize.max(n);
        }
        if let Some(n) = get("SICKLE_QUEUE").and_then(|v| v.parse().ok()) {
            c.queue = n;
        }
        if let Some(s) = get("SICKLE_WATCHDOG_SECS").and_then(|v| v.parse::<f64>().ok()) {
            if s.is_finite() && s > 0.0 {
                c.watchdog = Duration::from_secs_f64(s);
            }
        }
        if let Some(ms) = get("SICKLE_WATCHDOG_GRACE_MS").and_then(|v| v.parse().ok()) {
            c.grace = Duration::from_millis(ms);
        }
        if let Some(n) = get("SICKLE_MAX_LINE_BYTES").and_then(|v| v.parse().ok()) {
            c.max_line_bytes = 64usize.max(n);
        }
        if let Some(n) = get("SICKLE_MAX_BYTES").and_then(|v| v.parse().ok()) {
            c = c.with_max_bytes(n);
        }
        if let Some(n) = get("SICKLE_POOL_SESSIONS").and_then(|v| v.parse().ok()) {
            c.pool = c.pool.with_max_sessions(n);
        }
        if let Some(n) = get("SICKLE_POOL_SETS").and_then(|v| v.parse().ok()) {
            c.pool = c.pool.with_max_total_sets(n);
        }
        c
    }

    /// Sets the memory budget and byte-bounds the session pool to match,
    /// so warm state is evicted down toward the same ceiling the pressure
    /// ladder watches.
    pub fn with_max_bytes(mut self, n: usize) -> ServerConfig {
        self.max_bytes = n.max(1);
        self.pool = self.pool.with_max_total_bytes(self.max_bytes);
        self
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// An injected failure mode (see [`Faults`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at the site (exercises `catch_unwind` isolation).
    Panic,
    /// Sleep for the given duration. At site `analyze` the stall happens
    /// *inside* the search worker and ignores cancellation — the
    /// watchdog-escalation path.
    Stall(Duration),
    /// Drop the connection without a response.
    Disconnect,
    /// Abort the whole process with the given exit code (simulated shard
    /// death).
    Exit(i32),
    /// At site `analyze`: pretend the memory budget's hard watermark
    /// tripped for this request, deterministically exercising the
    /// `resource_exhausted` kill path without actually allocating.
    Oom,
    /// At site `response`: write the final response in two halves with
    /// the given stall between them — a wedged/slow client-facing write
    /// exercising write timeouts and hangup handling under pressure.
    SlowWrite(Duration),
}

struct FaultSite {
    site: String,
    kind: FaultKind,
    nth: usize,
    hits: AtomicUsize,
}

/// Deterministic fault injection, parsed from `SICKLE_FAULT`. Compiled
/// in but inert unless the variable is set; each entry fires exactly once
/// at its n-th hit of the named site.
///
/// Spec syntax: comma-separated `kind@site[:nth[:param]]` entries.
/// Kinds: `panic`, `stall` (param = milliseconds, default 60000),
/// `disconnect`, `exit` (param = exit code, default 42), `oom` (forces
/// the hard-watermark `resource_exhausted` path; only meaningful at
/// `analyze`), `slowwrite` (param = stall milliseconds, default 1000;
/// only meaningful at `response`). Sites consulted by the server:
/// `accept` (per accepted connection), `request` (per request, before
/// admission), `analyze` (arms a stalling analyzer inside the search),
/// `response` (before the final response write).
pub struct Faults {
    sites: Vec<FaultSite>,
}

impl Faults {
    /// No injected faults.
    pub fn none() -> Faults {
        Faults { sites: Vec::new() }
    }

    /// Parses a `SICKLE_FAULT` spec.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first malformed entry.
    pub fn parse(spec: &str) -> Result<Faults, String> {
        let mut sites = Vec::new();
        for entry in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (kind, rest) = entry
                .split_once('@')
                .ok_or_else(|| format!("fault entry {entry:?} is not kind@site[:nth[:param]]"))?;
            let mut parts = rest.split(':');
            let site = parts.next().unwrap_or_default();
            if site.is_empty() {
                return Err(format!("fault entry {entry:?} names no site"));
            }
            let num = |p: Option<&str>, what: &str| -> Result<Option<u64>, String> {
                p.map(|v| {
                    v.parse()
                        .map_err(|_| format!("fault entry {entry:?}: bad {what} {v:?}"))
                })
                .transpose()
            };
            let nth = num(parts.next(), "nth")?.unwrap_or(1).max(1) as usize;
            let param = num(parts.next(), "param")?;
            if parts.next().is_some() {
                return Err(format!("fault entry {entry:?} has trailing fields"));
            }
            let kind = match kind {
                "panic" => FaultKind::Panic,
                "stall" => FaultKind::Stall(Duration::from_millis(param.unwrap_or(60_000))),
                "disconnect" => FaultKind::Disconnect,
                "exit" => FaultKind::Exit(param.unwrap_or(42) as i32),
                "oom" => FaultKind::Oom,
                "slowwrite" => FaultKind::SlowWrite(Duration::from_millis(param.unwrap_or(1_000))),
                other => return Err(format!("unknown fault kind {other:?}")),
            };
            sites.push(FaultSite {
                site: site.to_string(),
                kind,
                nth,
                hits: AtomicUsize::new(0),
            });
        }
        Ok(Faults { sites })
    }

    /// Parses `SICKLE_FAULT`; a malformed spec is a startup error worth
    /// dying for (a silently-ignored fault would make a failing test pass
    /// vacuously), but it is a *configuration* error, not a crash — the
    /// binaries report it as a structured one-line error with the
    /// config-error exit code so a supervisor knows not to restart.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the malformed spec.
    pub fn from_env() -> Result<Faults, String> {
        match std::env::var("SICKLE_FAULT") {
            Ok(spec) => Faults::parse(&spec).map_err(|e| format!("invalid SICKLE_FAULT: {e}")),
            Err(_) => Ok(Faults::none()),
        }
    }

    /// Records a hit of `site` and returns the fault to inject, if this
    /// hit is one an entry was armed for.
    pub fn fire(&self, site: &str) -> Option<FaultKind> {
        let mut fired = None;
        for s in self.sites.iter().filter(|s| s.site == site) {
            let n = s.hits.fetch_add(1, Ordering::Relaxed) + 1;
            if n == s.nth && fired.is_none() {
                fired = Some(s.kind.clone());
            }
        }
        fired
    }
}

/// An analyzer wrapper that stalls (once, per worker) ignoring
/// cancellation — the injected "wedged search" the watchdog escalation
/// path is tested against.
struct StallingAnalyzer {
    inner: Box<dyn Analyzer>,
    stall: Duration,
    fired: AtomicBool,
}

impl Analyzer for StallingAnalyzer {
    fn name(&self) -> &'static str {
        "stalled"
    }

    fn is_feasible(&self, pq: &PQuery, ctx: &TaskContext) -> bool {
        if !self.fired.swap(true, Ordering::Relaxed) {
            std::thread::sleep(self.stall);
        }
        self.inner.is_feasible(pq, ctx)
    }
}

fn stalling_choice(inner: AnalyzerChoice, stall: Duration) -> AnalyzerChoice {
    AnalyzerChoice::custom("stalled", move || {
        Box::new(StallingAnalyzer {
            inner: inner.make(),
            stall,
            fired: AtomicBool::new(false),
        })
    })
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

struct AdmissionState {
    active: usize,
    waiting: usize,
    closed: bool,
}

/// Bounded-queue admission: `max_inflight` concurrent holders, at most
/// `queue` waiters; everyone else is shed immediately.
pub struct Admission {
    max_inflight: usize,
    queue: usize,
    state: Mutex<AdmissionState>,
    cv: Condvar,
}

/// Result of [`Admission::acquire`].
pub enum Admit {
    /// Admitted; drop the guard to release the slot.
    Guard(AdmissionGuard),
    /// Shed: the in-flight limit and the wait queue are both full.
    Overloaded,
    /// The server is draining; no new work is admitted.
    ShuttingDown,
}

impl Admission {
    /// An open admission gate with the given bounds.
    pub fn new(max_inflight: usize, queue: usize) -> Arc<Admission> {
        Arc::new(Admission {
            max_inflight: max_inflight.max(1),
            queue,
            state: Mutex::new(AdmissionState {
                active: 0,
                waiting: 0,
                closed: false,
            }),
            cv: Condvar::new(),
        })
    }

    /// Acquires a slot, waiting in the bounded queue if necessary.
    pub fn acquire(self: &Arc<Admission>) -> Admit {
        let mut s = self.state.lock().expect("admission lock");
        if s.closed {
            return Admit::ShuttingDown;
        }
        if s.active < self.max_inflight {
            s.active += 1;
            return Admit::Guard(AdmissionGuard(Arc::clone(self)));
        }
        if s.waiting >= self.queue {
            return Admit::Overloaded;
        }
        s.waiting += 1;
        loop {
            s = self.cv.wait(s).expect("admission lock");
            if s.closed {
                s.waiting -= 1;
                return Admit::ShuttingDown;
            }
            if s.active < self.max_inflight {
                s.waiting -= 1;
                s.active += 1;
                return Admit::Guard(AdmissionGuard(Arc::clone(self)));
            }
        }
    }

    /// Closes the gate (drain): queued waiters wake up as
    /// [`Admit::ShuttingDown`], new arrivals are rejected.
    pub fn close(&self) {
        self.state.lock().expect("admission lock").closed = true;
        self.cv.notify_all();
    }

    /// Requests currently holding a slot.
    pub fn active(&self) -> usize {
        self.state.lock().expect("admission lock").active
    }
}

/// RAII slot of an admitted request.
pub struct AdmissionGuard(Arc<Admission>);

impl Drop for AdmissionGuard {
    fn drop(&mut self) {
        let mut s = self.0.state.lock().expect("admission lock");
        s.active -= 1;
        drop(s);
        self.0.cv.notify_one();
    }
}

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

/// A bound listening socket: `tcp:HOST:PORT` or `unix:PATH`.
pub enum Listener {
    /// TCP transport.
    Tcp(TcpListener),
    /// Unix-domain transport (the socket file is removed on clean
    /// shutdown).
    Unix(UnixListener, String),
}

impl Listener {
    /// Binds a listen spec. `tcp:127.0.0.1:0` picks an ephemeral port —
    /// the resolved address comes back in the second tuple slot (and in
    /// the server's `listening on` banner). A stale Unix socket file is
    /// replaced; failure to unlink it is reported as
    /// [`io::ErrorKind::InvalidInput`] (a deployment/configuration
    /// problem — wrong path or permissions — that restarting cannot fix).
    pub fn bind(spec: &str) -> io::Result<(Listener, String)> {
        if let Some(path) = spec.strip_prefix("unix:") {
            if let Err(e) = std::fs::remove_file(path) {
                if e.kind() != io::ErrorKind::NotFound {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("cannot replace stale socket {path:?}: {e}"),
                    ));
                }
            }
            let l = UnixListener::bind(path)?;
            Ok((Listener::Unix(l, path.to_string()), format!("unix:{path}")))
        } else if let Some(addr) = spec.strip_prefix("tcp:") {
            let l = TcpListener::bind(addr)?;
            let local = l.local_addr()?;
            Ok((Listener::Tcp(l), format!("tcp:{local}")))
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("listen spec {spec:?} must be tcp:HOST:PORT or unix:PATH"),
            ))
        }
    }

    fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nb),
            Listener::Unix(l, _) => l.set_nonblocking(nb),
        }
    }

    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }

    /// Blocks until a connection is ready to accept, `timeout` passes or
    /// a signal interrupts the wait, whichever comes first: `poll(2)` on
    /// the listening socket, declared against the libc std links.
    fn wait_acceptable(&self, timeout: Duration) {
        #[repr(C)]
        struct PollFd {
            fd: i32,
            events: i16,
            revents: i16,
        }
        #[cfg(target_os = "linux")]
        type NFds = std::ffi::c_ulong;
        #[cfg(not(target_os = "linux"))]
        type NFds = std::ffi::c_uint;
        extern "C" {
            fn poll(fds: *mut PollFd, nfds: NFds, timeout_ms: i32) -> i32;
        }
        const POLLIN: i16 = 1;
        let mut fd = PollFd {
            fd: match self {
                Listener::Tcp(l) => l.as_raw_fd(),
                Listener::Unix(l, _) => l.as_raw_fd(),
            },
            events: POLLIN,
            revents: 0,
        };
        let timeout_ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
        // SAFETY: `fd` is one valid `pollfd` that outlives the call, and
        // the listener keeps its descriptor open. The outcome needs no
        // check: the caller retries `accept` either way.
        unsafe {
            poll(&mut fd, 1, timeout_ms);
        }
    }
}

/// One accepted client connection (either transport).
pub enum Conn {
    /// A TCP client.
    Tcp(TcpStream),
    /// A Unix-domain client.
    Unix(UnixStream),
}

impl Conn {
    fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(t),
            Conn::Unix(s) => s.set_read_timeout(t),
        }
    }

    fn set_write_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_write_timeout(t),
            Conn::Unix(s) => s.set_write_timeout(t),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

// ---------------------------------------------------------------------------
// Bounded line reading
// ---------------------------------------------------------------------------

/// Outcome of one [`read_bounded_line`] call.
pub enum LineRead {
    /// A complete line within the bound (newline and any `\r` stripped).
    Line(String),
    /// The line exceeded the byte bound. The excess was drained up to and
    /// including the newline, so the stream is positioned at the next
    /// line — reject and continue.
    TooLong,
    /// Clean end of input.
    Eof,
    /// The shutdown probe returned true while waiting for input.
    Shutdown,
    /// The underlying reader failed.
    Failed(io::Error),
}

/// Reads one `\n`-terminated line of at most `max` bytes without ever
/// buffering more than that. Read-timeout ticks (`WouldBlock` /
/// `TimedOut`) poll `shutdown` and keep waiting, so a socket reader with
/// a short read timeout notices drains promptly.
pub fn read_bounded_line<R: BufRead>(
    r: &mut R,
    max: usize,
    mut shutdown: impl FnMut() -> bool,
) -> LineRead {
    let mut buf: Vec<u8> = Vec::new();
    let mut over = false;
    loop {
        let (consumed, done) = match r.fill_buf() {
            Ok([]) => {
                return if over {
                    LineRead::TooLong
                } else if buf.is_empty() {
                    LineRead::Eof
                } else {
                    LineRead::Line(finish_line(buf))
                };
            }
            Ok(available) => match available.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    if !over && buf.len() + i <= max {
                        buf.extend_from_slice(&available[..i]);
                    } else {
                        over = true;
                    }
                    (i + 1, true)
                }
                None => {
                    if !over {
                        if buf.len() + available.len() > max {
                            over = true;
                            buf.clear();
                        } else {
                            buf.extend_from_slice(available);
                        }
                    }
                    (available.len(), false)
                }
            },
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                if shutdown() {
                    return LineRead::Shutdown;
                }
                continue;
            }
            Err(e) => return LineRead::Failed(e),
        };
        r.consume(consumed);
        if done {
            return if over {
                LineRead::TooLong
            } else {
                LineRead::Line(finish_line(buf))
            };
        }
    }
}

fn finish_line(mut buf: Vec<u8>) -> String {
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8_lossy(&buf).into_owned()
}

// ---------------------------------------------------------------------------
// Shared server state and the per-request envelope
// ---------------------------------------------------------------------------

struct TokenRegistry {
    next: AtomicU64,
    active: Mutex<HashMap<u64, CancelToken>>,
}

impl TokenRegistry {
    fn new() -> TokenRegistry {
        TokenRegistry {
            next: AtomicU64::new(0),
            active: Mutex::new(HashMap::new()),
        }
    }

    fn register(&self, token: CancelToken) -> u64 {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.active.lock().expect("token lock").insert(id, token);
        id
    }

    fn deregister(&self, id: u64) {
        self.active.lock().expect("token lock").remove(&id);
    }

    fn cancel_all(&self) {
        for token in self.active.lock().expect("token lock").values() {
            token.cancel();
        }
    }
}

/// Retained-request ids a client may name as `"prior"`, each mapped to
/// the session-pool key of the session that served it. An edit naming
/// the id runs on that session, so a whole edit chain shares one
/// analysis cache no matter how the demo fingerprint drifts. Bounded
/// FIFO so abandoned chains cannot grow the map. Keys are the rendered
/// request ids (any JSON value renders to a stable string).
struct PriorRegistry {
    entries: Mutex<Vec<(String, u64)>>,
}

/// Upper bound on registered prior ids: each entry is a short string +
/// 8 bytes, so 256 bounds the registry to a few KiB while comfortably
/// covering every concurrently-live edit chain.
const MAX_PRIOR_IDS: usize = 256;

impl PriorRegistry {
    fn new() -> PriorRegistry {
        PriorRegistry {
            entries: Mutex::new(Vec::new()),
        }
    }

    /// The session key a prior id routes to.
    fn resolve(&self, id: &str) -> Option<u64> {
        let entries = self.entries.lock().expect("prior lock");
        entries.iter().find(|(k, _)| k == id).map(|&(_, key)| key)
    }

    /// Records a finished retained request as nameable.
    fn record(&self, id: String, session_key: u64) {
        let mut entries = self.entries.lock().expect("prior lock");
        entries.retain(|(k, _)| *k != id);
        if entries.len() >= MAX_PRIOR_IDS {
            entries.remove(0);
        }
        entries.push((id, session_key));
    }
}

/// Memory-pressure levels of the watermark ladder (see
/// [`Shared::update_pressure`]).
pub const PRESSURE_OK: usize = 0;
/// Soft watermark: new searches run with a degraded (shrunk-cap,
/// high-low-water) engine-cache policy. Answers are unchanged — only the
/// speed/memory trade-off moves.
pub const PRESSURE_SOFT: usize = 1;
/// Hard watermark: in-flight searches are canceled and answered with a
/// structured `resource_exhausted` error; admission sheds new work while
/// other requests are still draining.
pub const PRESSURE_HARD: usize = 2;

/// Fixed per-request envelope of the projected-cost admission estimate:
/// parse/validate state, session bookkeeping, response buffers.
const REQUEST_BASE_BYTES: usize = 64 * 1024;
/// Per input cell of the projected-cost estimate (mirrors the engine
/// cache's `CELL_MEM_BYTES`: a tagged value plus container overhead).
const REQUEST_CELL_BYTES: usize = 56;

/// Projected working-set cost of a request before it runs: the input
/// cells it will materialize plus a fixed envelope for search state.
/// Deliberately coarse — admission only answers "does this obviously not
/// fit right now"; the watermark ladder governs the search mid-flight.
fn estimate_request_bytes(task: &SynthTask) -> usize {
    let cells: usize = task
        .inputs
        .iter()
        .map(|t| t.n_rows().saturating_mul(t.n_cols()))
        .sum();
    REQUEST_BASE_BYTES.saturating_add(cells.saturating_mul(REQUEST_CELL_BYTES))
}

/// State shared by every connection of one server (or one stdio loop).
pub struct Shared {
    config: ServerConfig,
    sessions: SessionPool,
    admission: Arc<Admission>,
    faults: Faults,
    tokens: TokenRegistry,
    priors: PriorRegistry,
    shutdown: AtomicBool,
    served: AtomicUsize,
    pressure: AtomicUsize,
}

impl Shared {
    fn new(config: ServerConfig, faults: Faults) -> Arc<Shared> {
        Arc::new(Shared {
            admission: Admission::new(config.max_inflight, config.queue),
            sessions: SessionPool::new(config.pool),
            config,
            faults,
            tokens: TokenRegistry::new(),
            priors: PriorRegistry::new(),
            shutdown: AtomicBool::new(false),
            served: AtomicUsize::new(0),
            pressure: AtomicUsize::new(PRESSURE_OK),
        })
    }

    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed) || signal_shutdown_requested()
    }

    /// The warm session pool (diagnostics).
    pub fn sessions(&self) -> &SessionPool {
        &self.sessions
    }

    /// Requests fully served (responses written or request abandoned).
    pub fn served(&self) -> usize {
        self.served.load(Ordering::Relaxed)
    }

    /// Re-reads the pooled byte footprint and moves the pressure level
    /// along the watermark ladder, with hysteresis so the level does not
    /// flap at a boundary: it *rises* at 80% (soft) / 95% (hard) of
    /// [`ServerConfig::max_bytes`] but only *falls* below 70% / 85%.
    /// Always [`PRESSURE_OK`] when no budget is configured.
    pub fn update_pressure(&self) -> usize {
        if self.config.max_bytes == usize::MAX {
            return PRESSURE_OK;
        }
        let max = self.config.max_bytes;
        let pct = |p: u128| ((max as u128 * p) / 100) as usize;
        let used = self.sessions.total_bytes();
        let prev = self.pressure.load(Ordering::Relaxed);
        let level = match prev {
            PRESSURE_HARD => {
                if used < pct(70) {
                    PRESSURE_OK
                } else if used < pct(85) {
                    PRESSURE_SOFT
                } else {
                    PRESSURE_HARD
                }
            }
            PRESSURE_SOFT => {
                if used >= pct(95) {
                    PRESSURE_HARD
                } else if used < pct(70) {
                    PRESSURE_OK
                } else {
                    PRESSURE_SOFT
                }
            }
            _ => {
                if used >= pct(95) {
                    PRESSURE_HARD
                } else if used >= pct(80) {
                    PRESSURE_SOFT
                } else {
                    PRESSURE_OK
                }
            }
        };
        if level != prev {
            log(format_args!(
                "memory pressure {} -> {} ({used} of {max} bytes pooled)",
                prev, level
            ));
        }
        self.pressure.store(level, Ordering::Relaxed);
        level
    }

    /// The last computed pressure level (diagnostics; see
    /// [`Shared::update_pressure`]).
    pub fn pressure(&self) -> usize {
        self.pressure.load(Ordering::Relaxed)
    }
}

fn log(msg: std::fmt::Arguments<'_>) {
    eprintln!("sickle-serve: {msg}");
}

fn write_line(out: &mut dyn Write, json: &Json) -> io::Result<()> {
    writeln!(out, "{}", json.render())?;
    out.flush()
}

enum Outcome {
    KeepOpen,
    Close,
}

/// One request line through the full envelope: parse → decode → fault
/// hook → admission → watchdogged search → response. Panics anywhere
/// inside become an `internal` error response plus a closed connection.
fn serve_line(
    shared: &Shared,
    line: &str,
    out: &mut dyn Write,
    hangup: &mut dyn FnMut() -> bool,
    prior_note: &mut Option<String>,
) -> Outcome {
    match catch_unwind(AssertUnwindSafe(|| {
        serve_line_inner(shared, line, out, hangup, prior_note)
    })) {
        Ok(outcome) => outcome,
        Err(_) => {
            // The panic already unwound past the search; all we know
            // safely is the request id from the raw line.
            let id = Json::parse(line)
                .ok()
                .and_then(|j| j.get("id").cloned())
                .unwrap_or(Json::Null);
            log(format_args!(
                "request handler panicked; closing this connection"
            ));
            let e = SickleError::Internal {
                message: "request handler panicked; connection closed".to_string(),
            };
            let _ = write_line(out, &error_response(&id, &e));
            shared.served.fetch_add(1, Ordering::Relaxed);
            Outcome::Close
        }
    }
}

fn serve_line_inner(
    shared: &Shared,
    line: &str,
    out: &mut dyn Write,
    hangup: &mut dyn FnMut() -> bool,
    prior_note: &mut Option<String>,
) -> Outcome {
    let json = match Json::parse(line) {
        Ok(json) => json,
        Err(e) => {
            let _ = write_line(out, &bad_json_response(&e));
            shared.served.fetch_add(1, Ordering::Relaxed);
            return Outcome::KeepOpen;
        }
    };
    let wire = match WireRequest::from_json(&json) {
        Ok(wire) => wire,
        Err(e) => {
            let id = json.get("id").cloned().unwrap_or(Json::Null);
            let _ = write_line(out, &error_response(&id, &e));
            shared.served.fetch_add(1, Ordering::Relaxed);
            return Outcome::KeepOpen;
        }
    };

    match shared.faults.fire("request") {
        Some(FaultKind::Panic) => panic!("injected fault: panic@request"),
        Some(FaultKind::Exit(code)) => {
            log(format_args!("injected fault: exit@request (code {code})"));
            let _ = out.flush();
            std::process::exit(code);
        }
        Some(FaultKind::Stall(d)) => std::thread::sleep(d),
        Some(FaultKind::Disconnect) => return Outcome::Close,
        // oom/slowwrite are analyze-/response-site faults; inert here.
        Some(FaultKind::Oom) | Some(FaultKind::SlowWrite(_)) | None => {}
    }

    // Edit routing: a retained request must be nameable (its id is the
    // registry key), and a "prior" id must resolve before any work is
    // admitted. Resolution touches the chain's session in the pool so
    // unrelated requests admitted between two edits of one chain cannot
    // make the actively-edited session the LRU victim.
    if wire.request.retain && matches!(wire.id, Json::Null) {
        let e = SickleError::invalid("retained requests (\"retain\"/\"prior\") need an \"id\"");
        let _ = write_line(out, &error_response(&wire.id, &e));
        shared.served.fetch_add(1, Ordering::Relaxed);
        return Outcome::KeepOpen;
    }
    let prior = match &wire.prior {
        None => None,
        Some(prior_id) => {
            let key = prior_id.render();
            match shared.priors.resolve(&key) {
                Some(session_key) => {
                    shared.sessions.touch(session_key);
                    *prior_note = Some(key);
                    Some(session_key)
                }
                None => {
                    let e = SickleError::invalid(format!(
                        "unknown prior: no retained request with id {key} \
                         (it may have been evicted from the id registry)"
                    ));
                    let _ = write_line(out, &error_response(&wire.id, &e));
                    shared.served.fetch_add(1, Ordering::Relaxed);
                    return Outcome::KeepOpen;
                }
            }
        }
    };

    // Projected-cost admission: under a byte budget, a request whose
    // projected working set cannot fit on top of the current pooled
    // footprint — or any request while the hard watermark is tripped —
    // is shed *before* the search starts, with a server-computed retry
    // hint. Only shed while other work is in flight: draining requests
    // will release memory, so the retry can succeed. An idle-but-full
    // server admits instead (denial would be permanent) and lets the
    // mid-flight ladder govern the request.
    if shared.config.max_bytes != usize::MAX && shared.admission.active() > 0 {
        let used = shared.sessions.total_bytes();
        let projected = used.saturating_add(estimate_request_bytes(&wire.request.task));
        if shared.update_pressure() >= PRESSURE_HARD || projected > shared.config.max_bytes {
            let retry_ms = 250 * (1 + shared.admission.active() as u64);
            let e = SickleError::overloaded_retry(
                format!(
                    "projected memory {projected} bytes exceeds the {} byte budget \
                     ({used} bytes pooled); retry after in-flight work drains",
                    shared.config.max_bytes
                ),
                retry_ms,
            );
            log(format_args!("shed request (memory pressure)"));
            let _ = write_line(out, &error_response(&wire.id, &e));
            shared.served.fetch_add(1, Ordering::Relaxed);
            return Outcome::KeepOpen;
        }
    }

    let _guard = match shared.admission.acquire() {
        Admit::Guard(guard) => guard,
        Admit::Overloaded => {
            let e = SickleError::overloaded(format!(
                "{} request(s) in flight and {} queued; retry with backoff",
                shared.config.max_inflight, shared.config.queue
            ));
            log(format_args!("shed request (overloaded)"));
            let _ = write_line(out, &error_response(&wire.id, &e));
            shared.served.fetch_add(1, Ordering::Relaxed);
            return Outcome::KeepOpen;
        }
        Admit::ShuttingDown => {
            let e = SickleError::canceled("server is shutting down");
            let _ = write_line(out, &error_response(&wire.id, &e));
            shared.served.fetch_add(1, Ordering::Relaxed);
            return Outcome::Close;
        }
    };

    let outcome = run_admitted(shared, &wire, prior, out, hangup);
    shared.served.fetch_add(1, Ordering::Relaxed);
    outcome
}

/// The structured error answered for a request killed at the hard
/// watermark (naturally or via an injected `oom@analyze` fault).
fn resource_exhausted_error(shared: &Shared, forced: bool) -> SickleError {
    if forced {
        SickleError::resource_exhausted(
            "injected fault: oom@analyze tripped the hard watermark; retry with jittered backoff",
        )
    } else {
        SickleError::resource_exhausted(format!(
            "memory hard watermark: {} of {} bytes pooled; search terminated, \
             retry after pressure subsides",
            shared.sessions.total_bytes(),
            shared.config.max_bytes
        ))
    }
}

/// The watchdogged search of one admitted request.
fn run_admitted(
    shared: &Shared,
    wire: &WireRequest,
    prior: Option<u64>,
    out: &mut dyn Write,
    hangup: &mut dyn FnMut() -> bool,
) -> Outcome {
    let t0 = Instant::now();
    let mut request = wire.request.clone();
    // An edit rides its chain's session (same analysis cache across the
    // whole chain); everything else routes by demo family.
    let session_key = prior.unwrap_or_else(|| demo_fingerprint(&request.task));
    let cancel = request.cancel.get_or_insert_with(CancelToken::new).clone();

    // Soft watermark: degrade the engine-cache policy before the search
    // starts — a shrunk cap with a high low-water mark trades recompute
    // time for memory. Answers are unchanged by construction (the cache
    // is a pure memoization layer), so pressured runs stay byte-identical.
    if shared.update_pressure() >= PRESSURE_SOFT {
        let cap = request.search.cache.cap.max(4) / 4;
        request.search.cache = request
            .search
            .cache
            .with_cap(cap)
            .with_low_water(cap.saturating_mul(3) / 4);
        log(format_args!(
            "soft watermark: engine cache degraded (cap {cap})"
        ));
    }

    let mut forced_oom = false;
    match shared.faults.fire("analyze") {
        Some(FaultKind::Stall(d)) => {
            log(format_args!("injected fault: stall@analyze armed"));
            request.analyzer = stalling_choice(request.analyzer.clone(), d);
        }
        Some(FaultKind::Oom) => {
            log(format_args!("injected fault: oom@analyze armed"));
            forced_oom = true;
        }
        _ => {}
    }
    let token_id = shared.tokens.register(cancel.clone());
    let session = shared.sessions.session_for(session_key);
    let mut stream = match session.submit(request) {
        Ok(stream) => stream,
        Err(e) => {
            shared.tokens.deregister(token_id);
            let _ = write_line(out, &error_response(&wire.id, &e));
            return Outcome::KeepOpen;
        }
    };

    let deadline = t0 + shared.config.watchdog;
    let mut canceled_at: Option<Instant> = None;
    let mut cancel_reason = "canceled";
    let mut client_gone = false;
    let mut mem_killed = false;
    let mut next_pressure_check = t0;
    // The first liveness check waits one tick, so a request answered
    // within `POLL` never pays the hangup probe's read timeout.
    let mut next_liveness_check = t0 + POLL;
    let outcome = loop {
        let now = Instant::now();
        // Hard watermark (or an injected oom@analyze): cancel the search
        // and answer `resource_exhausted` — this request is shed so the
        // server stays alive. Checked at most once per poll tick, so the
        // pool-footprint sum is off the per-event hot path.
        if !mem_killed && canceled_at.is_none() && now >= next_pressure_check {
            next_pressure_check = now + POLL;
            if forced_oom
                || (shared.config.max_bytes != usize::MAX
                    && shared.update_pressure() >= PRESSURE_HARD)
            {
                stream.cancel();
                mem_killed = true;
                canceled_at = Some(now);
                cancel_reason = "memory hard watermark";
                log(format_args!(
                    "hard watermark: search canceled ({} bytes pooled)",
                    shared.sessions.total_bytes()
                ));
                continue;
            }
        }
        // Drain and hangup, checked on every pass at most once per poll
        // tick: a search that streams solutions faster than `POLL` never
        // times out a wait, so a check only on quiet gaps would miss them.
        if canceled_at.is_none() && now >= next_liveness_check {
            next_liveness_check = now + POLL;
            if shared.is_shutdown() {
                stream.cancel();
                canceled_at = Some(now);
                cancel_reason = "server shutting down";
                log(format_args!("drain: in-flight search canceled"));
            } else if hangup() {
                client_gone = true;
                stream.cancel();
                canceled_at = Some(now);
                cancel_reason = "client hung up";
                log(format_args!("client hung up; search canceled"));
            }
        }
        let until = match canceled_at {
            None => deadline,
            Some(t) => t + shared.config.grace,
        };
        if now >= until {
            if canceled_at.is_none() {
                stream.cancel();
                canceled_at = Some(now);
                cancel_reason = "watchdog deadline exceeded";
                log(format_args!(
                    "watchdog fired after {:.1}s; search canceled",
                    t0.elapsed().as_secs_f64()
                ));
                continue;
            }
            // The search ignored cancellation past the grace period:
            // abandon the worker so the slot (and this thread) are freed.
            stream.detach();
            log(format_args!(
                "search ignored cancellation for {:.1}s; worker detached",
                shared.config.grace.as_secs_f64()
            ));
            let detail = format!(
                "{cancel_reason}; the search did not stop within the {:.1}s grace period and was abandoned",
                shared.config.grace.as_secs_f64()
            );
            let e = if mem_killed {
                SickleError::resource_exhausted(detail)
            } else {
                SickleError::canceled(detail)
            };
            if !client_gone {
                let _ = write_line(out, &error_response(&wire.id, &e));
            }
            break if client_gone {
                Outcome::Close
            } else {
                Outcome::KeepOpen
            };
        }
        let step = until.saturating_duration_since(now).min(POLL);
        match stream.next_timeout(step) {
            StreamWait::Event(SolutionEvent::Solution { index, query }) => {
                if wire.progress && !client_gone {
                    let event = crate::wire::with_id(
                        &wire.id,
                        Json::Obj(vec![
                            ("event".into(), Json::str("solution")),
                            ("index".into(), Json::num(index as f64)),
                            ("query".into(), Json::str(query.to_string())),
                        ]),
                    );
                    if write_line(out, &event).is_err() {
                        client_gone = true;
                        stream.cancel();
                        canceled_at.get_or_insert_with(Instant::now);
                        cancel_reason = "client hung up";
                        log(format_args!("client hung up; search canceled"));
                    }
                }
            }
            StreamWait::Event(SolutionEvent::Progress(p)) => {
                if wire.progress && !client_gone {
                    let event = crate::wire::with_id(&wire.id, progress_json(&p));
                    if write_line(out, &event).is_err() {
                        client_gone = true;
                        stream.cancel();
                        canceled_at.get_or_insert_with(Instant::now);
                        cancel_reason = "client hung up";
                        log(format_args!("client hung up; search canceled"));
                    }
                }
            }
            StreamWait::Event(SolutionEvent::Done(result)) => {
                if client_gone {
                    break Outcome::Close;
                }
                if mem_killed {
                    // The canceled search wound down in time; the client
                    // still gets the structured budget error, never a
                    // partial "ok" that would differ run-to-run.
                    let e = resource_exhausted_error(shared, forced_oom);
                    break match write_line(out, &error_response(&wire.id, &e)) {
                        Ok(()) => Outcome::KeepOpen,
                        Err(_) => Outcome::Close,
                    };
                }
                if wire.request.retain {
                    // Make this id nameable as a later edit's "prior".
                    shared.priors.record(wire.id.render(), session_key);
                }
                match shared.faults.fire("response") {
                    Some(FaultKind::Panic) => panic!("injected fault: panic@response"),
                    Some(FaultKind::Exit(code)) => {
                        log(format_args!("injected fault: exit@response (code {code})"));
                        std::process::exit(code);
                    }
                    Some(FaultKind::Disconnect) => break Outcome::Close,
                    Some(FaultKind::Stall(d)) => std::thread::sleep(d),
                    Some(FaultKind::SlowWrite(d)) => {
                        log(format_args!(
                            "injected fault: slowwrite@response ({}ms mid-line stall)",
                            d.as_millis()
                        ));
                        let mut line = finish_response(wire, &result).render();
                        line.push('\n');
                        let bytes = line.as_bytes();
                        let mid = bytes.len() / 2;
                        let wrote = out
                            .write_all(&bytes[..mid])
                            .and_then(|()| out.flush())
                            .and_then(|()| {
                                std::thread::sleep(d);
                                out.write_all(&bytes[mid..])
                            })
                            .and_then(|()| out.flush());
                        break match wrote {
                            Ok(()) => Outcome::KeepOpen,
                            Err(_) => Outcome::Close,
                        };
                    }
                    Some(FaultKind::Oom) | None => {}
                }
                break match write_line(out, &finish_response(wire, &result)) {
                    Ok(()) => Outcome::KeepOpen,
                    Err(_) => Outcome::Close,
                };
            }
            StreamWait::Event(SolutionEvent::Failed(e)) => {
                let e = if mem_killed && matches!(e, SickleError::Canceled { .. }) {
                    resource_exhausted_error(shared, forced_oom)
                } else {
                    e
                };
                if !client_gone {
                    let _ = write_line(out, &error_response(&wire.id, &e));
                }
                break if client_gone {
                    Outcome::Close
                } else {
                    Outcome::KeepOpen
                };
            }
            StreamWait::Event(_) | StreamWait::TimedOut => {}
            StreamWait::Ended => {
                let e = SickleError::Internal {
                    message: "synthesis worker terminated without a result".to_string(),
                };
                if !client_gone {
                    let _ = write_line(out, &error_response(&wire.id, &e));
                }
                break if client_gone {
                    Outcome::Close
                } else {
                    Outcome::KeepOpen
                };
            }
        }
    };
    shared.tokens.deregister(token_id);
    outcome
}

/// Serves one connection (or the stdio pair): bounded line reads, one
/// request at a time through [`serve_line`]. `hangup_probe` is consulted
/// once per [`POLL`] tick of a search to detect a vanished client (socket
/// connections pass an EOF probe; stdio passes `|_| false`).
fn connection_loop<R: BufRead>(
    shared: &Shared,
    reader: &mut R,
    out: &mut dyn Write,
    mut hangup_probe: impl FnMut(&mut R) -> bool,
) {
    loop {
        match read_bounded_line(reader, shared.config.max_line_bytes, || {
            shared.is_shutdown()
        }) {
            LineRead::Line(line) => {
                let trimmed = line.trim();
                if trimmed.is_empty() || trimmed.starts_with('#') {
                    continue;
                }
                let t0 = Instant::now();
                let mut prior_note = None;
                let outcome = {
                    let mut hangup = || hangup_probe(reader);
                    serve_line(shared, trimmed, out, &mut hangup, &mut prior_note)
                };
                log(format_args!(
                    "request {} answered in {:.3}s (sessions={}, sets={}, bytes={}{})",
                    shared.served(),
                    t0.elapsed().as_secs_f64(),
                    shared.sessions.len(),
                    shared.sessions.total_sets(),
                    shared.sessions.total_bytes(),
                    prior_note
                        .map(|p| format!(", prior={p}"))
                        .unwrap_or_default(),
                ));
                match outcome {
                    Outcome::KeepOpen => {}
                    Outcome::Close => break,
                }
            }
            LineRead::TooLong => {
                let e = SickleError::invalid(format!(
                    "request line exceeds the {} byte bound (SICKLE_MAX_LINE_BYTES); rejected",
                    shared.config.max_line_bytes
                ));
                log(format_args!("oversized request line rejected"));
                if write_line(out, &error_response(&Json::Null, &e)).is_err() {
                    break;
                }
            }
            LineRead::Eof | LineRead::Shutdown => break,
            LineRead::Failed(e) => {
                log(format_args!("connection read failed: {e}"));
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Signal handling (graceful shutdown)
// ---------------------------------------------------------------------------

static SIGNAL_SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// True once SIGTERM or SIGINT was delivered (after
/// [`install_signal_handlers`]). Process-global by nature.
pub fn signal_shutdown_requested() -> bool {
    SIGNAL_SHUTDOWN.load(Ordering::Relaxed)
}

unsafe extern "C" fn on_shutdown_signal(_sig: i32) {
    // Async-signal-safe: a single atomic store.
    SIGNAL_SHUTDOWN.store(true, Ordering::Relaxed);
}

/// Installs SIGTERM/SIGINT handlers that request a graceful drain (the
/// accept loop polls [`signal_shutdown_requested`]). No external crates:
/// `signal(2)` is declared directly against libc, which std already
/// links.
pub fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: unsafe extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_shutdown_signal);
        signal(SIGTERM, on_shutdown_signal);
    }
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

/// The socket synthesis server: an accept loop over a [`Listener`],
/// one connection per thread, everything sharing one [`Shared`] state
/// (session pool, admission gate, fault plan, shutdown flag).
pub struct Server {
    listener: Listener,
    addr: String,
    shared: Arc<Shared>,
}

/// Cloneable handle that asks a running [`Server`] to drain (what the
/// signal handlers do, callable in-process from tests).
#[derive(Clone)]
pub struct ShutdownHandle(Arc<Shared>);

impl ShutdownHandle {
    /// Requests a graceful drain.
    pub fn shutdown(&self) {
        self.0.shutdown.store(true, Ordering::Relaxed);
    }
}

impl Server {
    /// Binds `spec` (`tcp:HOST:PORT` or `unix:PATH`) with the given
    /// config and fault plan.
    ///
    /// # Errors
    ///
    /// Propagates bind failures and malformed listen specs.
    pub fn bind(spec: &str, config: ServerConfig, faults: Faults) -> io::Result<Server> {
        let (listener, addr) = Listener::bind(spec)?;
        Ok(Server {
            listener,
            addr,
            shared: Shared::new(config, faults),
        })
    }

    /// The resolved listen address (`tcp:IP:PORT` with the actual port,
    /// or `unix:PATH`).
    pub fn local_addr(&self) -> &str {
        &self.addr
    }

    /// A drain handle usable from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.shared))
    }

    /// The shared state (diagnostics: session pool, served count).
    pub fn shared(&self) -> Arc<Shared> {
        Arc::clone(&self.shared)
    }

    /// Runs the accept loop until a shutdown is requested (signal or
    /// [`ShutdownHandle::shutdown`]), then drains: stops accepting,
    /// closes admission, cancels in-flight searches, joins every
    /// connection thread and removes a Unix socket file. Returns the
    /// number of requests served.
    ///
    /// # Errors
    ///
    /// Propagates fatal listener errors (per-connection errors are
    /// logged and survived).
    pub fn run(self) -> io::Result<usize> {
        self.listener.set_nonblocking(true)?;
        log(format_args!("listening on {}", self.addr));
        let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let mut accepted = 0usize;
        while !self.shared.is_shutdown() {
            match self.listener.accept() {
                Ok(conn) => {
                    accepted += 1;
                    if let Some(FaultKind::Disconnect) = self.shared.faults.fire("accept") {
                        log(format_args!(
                            "injected fault: disconnect@accept (connection {accepted} dropped)"
                        ));
                        drop(conn);
                        continue;
                    }
                    let shared = Arc::clone(&self.shared);
                    handles.push(std::thread::spawn(move || handle_socket(&shared, conn)));
                    handles.retain(|h| !h.is_finished());
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.listener.wait_acceptable(ACCEPT_TICK);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    log(format_args!("accept failed: {e}"));
                    std::thread::sleep(ACCEPT_TICK);
                }
            }
        }
        log(format_args!(
            "shutdown requested; draining {} connection(s)",
            handles.iter().filter(|h| !h.is_finished()).count()
        ));
        self.shared.admission.close();
        self.shared.tokens.cancel_all();
        for h in handles {
            let _ = h.join();
        }
        if let Listener::Unix(_, path) = &self.listener {
            let _ = std::fs::remove_file(path);
        }
        let served = self.shared.served();
        log(format_args!("drained; served {served} request(s)"));
        Ok(served)
    }
}

fn handle_socket(shared: &Shared, conn: Conn) {
    let _ = conn.set_read_timeout(Some(POLL));
    let _ = conn.set_write_timeout(Some(WRITE_TIMEOUT));
    let reader_side = match conn.try_clone() {
        Ok(clone) => clone,
        Err(e) => {
            log(format_args!("connection clone failed: {e}"));
            return;
        }
    };
    let mut reader = BufReader::new(reader_side);
    let mut writer = conn;
    connection_loop(shared, &mut reader, &mut writer, probe_socket_hangup);
}

/// EOF probe between search events: with a 1 ms read timeout, a closed
/// peer reads as `Ok(0)`; a live-but-quiet peer reads as a timeout; a
/// pipelined next request reads as buffered data (alive). The regular
/// [`POLL`] read timeout is restored afterwards.
fn probe_socket_hangup(reader: &mut BufReader<Conn>) -> bool {
    let _ = reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_millis(1)));
    let gone = matches!(reader.fill_buf(), Ok([]));
    let _ = reader.get_ref().set_read_timeout(Some(POLL));
    gone
}

/// The stdio transport of `sickle-serve` (no `--listen`): the same
/// per-request envelope — admission, watchdog, panic isolation, bounded
/// lines, fault hooks — over stdin/stdout. Returns the number of
/// requests served.
pub fn serve_stdio(config: ServerConfig, faults: Faults) -> usize {
    let shared = Shared::new(config, faults);
    log(format_args!(
        "ready (one JSON request per line; Ctrl-D to exit)"
    ));
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut reader = BufReader::new(stdin.lock());
    let mut out = stdout.lock();
    connection_loop(&shared, &mut reader, &mut out, |_| false);
    shared.served()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_spec_parses_and_fires_once_at_nth() {
        let f =
            Faults::parse("panic@request:2,stall@analyze:1:250,exit@response,disconnect@accept")
                .unwrap();
        assert_eq!(f.fire("request"), None);
        assert_eq!(f.fire("request"), Some(FaultKind::Panic));
        assert_eq!(f.fire("request"), None);
        assert_eq!(
            f.fire("analyze"),
            Some(FaultKind::Stall(Duration::from_millis(250)))
        );
        assert_eq!(f.fire("analyze"), None);
        assert_eq!(f.fire("response"), Some(FaultKind::Exit(42)));
        assert_eq!(f.fire("accept"), Some(FaultKind::Disconnect));
        assert_eq!(f.fire("nowhere"), None);

        let f = Faults::parse("oom@analyze,slowwrite@response:1:50").unwrap();
        assert_eq!(f.fire("analyze"), Some(FaultKind::Oom));
        assert_eq!(
            f.fire("response"),
            Some(FaultKind::SlowWrite(Duration::from_millis(50)))
        );

        assert!(Faults::parse("panic").is_err());
        assert!(Faults::parse("warp@request").is_err());
        assert!(Faults::parse("panic@request:x").is_err());
        assert!(Faults::parse("panic@request:1:2:3").is_err());
        assert!(Faults::parse("").unwrap().sites.is_empty());
    }

    #[test]
    fn admission_bounds_and_sheds() {
        let a = Admission::new(1, 1);
        let g1 = match a.acquire() {
            Admit::Guard(g) => g,
            _ => panic!("first acquire admitted"),
        };
        // Fill the queue from another thread, then overflow it here.
        let a2 = Arc::clone(&a);
        let waiter = std::thread::spawn(move || matches!(a2.acquire(), Admit::Guard(_)));
        // Wait until the waiter is queued.
        for _ in 0..200 {
            if a.state.lock().unwrap().waiting == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(matches!(a.acquire(), Admit::Overloaded), "queue full sheds");
        drop(g1);
        assert!(waiter.join().unwrap(), "queued waiter got the freed slot");
        a.close();
        assert!(matches!(a.acquire(), Admit::ShuttingDown));
    }

    #[test]
    fn bounded_line_reader_enforces_the_cap_and_resyncs() {
        let data = b"short\nlooooooooooong line\nnext\ntail";
        let mut r = BufReader::new(&data[..]);
        let read = |r: &mut BufReader<&[u8]>| read_bounded_line(r, 10, || false);
        assert!(matches!(read(&mut r), LineRead::Line(l) if l == "short"));
        assert!(matches!(read(&mut r), LineRead::TooLong));
        // Resynced at the newline: the next line comes through intact.
        assert!(matches!(read(&mut r), LineRead::Line(l) if l == "next"));
        assert!(
            matches!(read(&mut r), LineRead::Line(l) if l == "tail"),
            "final unterminated line is delivered"
        );
        assert!(matches!(read(&mut r), LineRead::Eof));

        // CRLF is stripped; a boundary-length line passes.
        let mut r = BufReader::new(&b"crlf\r\n0123456789\n"[..]);
        assert!(matches!(read(&mut r), LineRead::Line(l) if l == "crlf"));
        assert!(matches!(read(&mut r), LineRead::Line(l) if l == "0123456789"));

        // An oversized final line without a newline is still rejected.
        let mut r = BufReader::new(&b"0123456789x"[..]);
        assert!(matches!(read(&mut r), LineRead::TooLong));
    }

    #[test]
    fn bounded_line_reader_with_tiny_inner_buffer() {
        // Chunked fills (1-byte inner buffer) must agree with the
        // one-shot path: the bound is on the line, not the read size.
        let data = b"abcdefghij\nabcdefghijk\nok\n";
        let mut r = BufReader::with_capacity(1, &data[..]);
        let read = |r: &mut BufReader<&[u8]>| read_bounded_line(r, 10, || false);
        assert!(matches!(read(&mut r), LineRead::Line(l) if l == "abcdefghij"));
        assert!(matches!(read(&mut r), LineRead::TooLong));
        assert!(matches!(read(&mut r), LineRead::Line(l) if l == "ok"));
    }

    #[test]
    fn serve_line_answers_and_isolates_panics() {
        let shared = Shared::new(
            ServerConfig {
                watchdog: Duration::from_secs(60),
                ..ServerConfig::default()
            },
            Faults::parse("panic@request:2").unwrap(),
        );
        let line = concat!(
            r#"{"id": "u1", "tables": [{"columns": ["region", "revenue"], "#,
            r#""rows": [["west", 10], ["west", 20], ["east", 5]]}], "#,
            r#""demo": [["T[1,1]", "sum(T[1,2], T[2,2])"], ["T[3,1]", "sum(T[3,2])"]], "#,
            r#""max_depth": 1, "budget": {"max_solutions": 3, "max_visited": 50000}}"#
        );
        let mut out = Vec::new();
        let outcome = serve_line(&shared, line, &mut out, &mut || false, &mut None);
        assert!(matches!(outcome, Outcome::KeepOpen));
        let response = Json::parse(String::from_utf8_lossy(&out).lines().next().unwrap()).unwrap();
        assert_eq!(response.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(response.get("id").and_then(Json::as_str), Some("u1"));

        // Second request trips the injected panic: structured internal
        // error, connection closes, state survives for a third request.
        let mut out2 = Vec::new();
        let outcome = serve_line(&shared, line, &mut out2, &mut || false, &mut None);
        assert!(matches!(outcome, Outcome::Close));
        let response = Json::parse(String::from_utf8_lossy(&out2).lines().next().unwrap()).unwrap();
        assert_eq!(response.get("status").and_then(Json::as_str), Some("error"));
        assert_eq!(
            response
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("internal")
        );

        let mut out3 = Vec::new();
        let outcome = serve_line(&shared, line, &mut out3, &mut || false, &mut None);
        assert!(matches!(outcome, Outcome::KeepOpen));
        let response = Json::parse(String::from_utf8_lossy(&out3).lines().next().unwrap()).unwrap();
        assert_eq!(response.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(shared.served(), 3);
    }

    #[test]
    fn edit_chain_resolves_priors_and_matches_cold_solve() {
        let shared = Shared::new(
            ServerConfig {
                watchdog: Duration::from_secs(60),
                ..ServerConfig::default()
            },
            Faults::none(),
        );
        let base = concat!(
            r#"{"id": "e1", "retain": true, "#,
            r#""tables": [{"columns": ["region", "revenue"], "#,
            r#""rows": [["west", 10], ["west", 20], ["east", 5]]}], "#,
            r#""demo": [["T[1,1]", "sum(T[1,2], T[2,2])"], ["T[3,1]", "sum(T[3,2])"]], "#,
            r#""max_depth": 1, "budget": {"max_solutions": 3, "max_visited": 50000}}"#
        );
        let answer = |shared: &Arc<Shared>, line: &str, note: &mut Option<String>| {
            let mut out = Vec::new();
            let outcome = serve_line(shared, line, &mut out, &mut || false, note);
            assert!(matches!(outcome, Outcome::KeepOpen));
            Json::parse(String::from_utf8_lossy(&out).lines().next().unwrap()).unwrap()
        };
        let r1 = answer(&shared, base, &mut None);
        assert_eq!(
            r1.get("status").and_then(Json::as_str),
            Some("ok"),
            "{}",
            r1.render()
        );

        // The edit drops the second demo row and names r1 as its prior.
        let edited = concat!(
            r#"{"id": "e2", "prior": "e1", "#,
            r#""tables": [{"columns": ["region", "revenue"], "#,
            r#""rows": [["west", 10], ["west", 20], ["east", 5]]}], "#,
            r#""demo": [["T[1,1]", "sum(T[1,2], T[2,2])"]], "#,
            r#""max_depth": 1, "budget": {"max_solutions": 3, "max_visited": 50000}}"#
        );
        let mut note = None;
        let warm = answer(&shared, edited, &mut note);
        assert_eq!(
            warm.get("status").and_then(Json::as_str),
            Some("ok"),
            "{}",
            warm.render()
        );
        assert_eq!(note.as_deref(), Some("\"e1\""), "log line notes the prior");

        // Byte-identical to a cold solve of the edited demo on a fresh
        // server (session reuse is a pure speedup, never an answer
        // change).
        let cold_shared = Shared::new(ServerConfig::default(), Faults::none());
        let cold = answer(
            &cold_shared,
            &edited.replace(r#""prior": "e1", "#, ""),
            &mut None,
        );
        assert_eq!(
            warm.get("solutions").map(Json::render),
            cold.get("solutions").map(Json::render)
        );

        // e1 stays nameable after e2: a chain may branch from any
        // retained request, and the branch answers like the cold solve.
        let branch = answer(
            &shared,
            &edited.replace(r#""id": "e2""#, r#""id": "e3""#),
            &mut None,
        );
        assert_eq!(
            branch.get("solutions").map(Json::render),
            cold.get("solutions").map(Json::render),
            "{}",
            branch.render()
        );
        let chained = answer(
            &shared,
            &edited
                .replace(r#""id": "e2""#, r#""id": "e3""#)
                .replace(r#""prior": "e1""#, r#""prior": "e2""#),
            &mut None,
        );
        assert_eq!(chained.get("status").and_then(Json::as_str), Some("ok"));

        // Unknown priors and unnameable retained requests are rejected
        // before any work is admitted.
        let unknown = answer(
            &shared,
            &base.replace(r#""retain": true"#, r#""prior": "nope""#),
            &mut None,
        );
        assert!(
            unknown
                .get("error")
                .and_then(|e| e.get("message"))
                .and_then(Json::as_str)
                .unwrap()
                .contains("unknown prior"),
            "{}",
            unknown.render()
        );
        let anonymous = answer(&shared, &base.replace(r#""id": "e1", "#, ""), &mut None);
        assert_eq!(
            anonymous
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("invalid_request"),
            "{}",
            anonymous.render()
        );
    }

    /// One inline request line over the three-row region table.
    fn region_line(head: &str, demo: &str) -> String {
        format!(
            concat!(
                r#"{{{}, "tables": [{{"columns": ["region", "revenue"], "#,
                r#""rows": [["west", 10], ["west", 20], ["east", 5]]}}], "#,
                r#""demo": {}, "max_depth": 1, "#,
                r#""budget": {{"max_solutions": 3, "max_visited": 50000}}}}"#
            ),
            head, demo
        )
    }

    /// Serves `line` on `shared` and returns its response, which must be
    /// `ok`.
    fn answer_ok(shared: &Arc<Shared>, line: &str) -> Json {
        let mut out = Vec::new();
        let outcome = serve_line(shared, line, &mut out, &mut || false, &mut None);
        assert!(matches!(outcome, Outcome::KeepOpen));
        let response = Json::parse(String::from_utf8_lossy(&out).lines().next().unwrap()).unwrap();
        assert_eq!(
            response.get("status").and_then(Json::as_str),
            Some("ok"),
            "{line} -> {}",
            response.render()
        );
        response
    }

    /// The solutions of a cold solve of `demo` on a fresh server.
    fn cold_solutions(demo: &str) -> Option<String> {
        let cold = Shared::new(ServerConfig::default(), Faults::none());
        answer_ok(&cold, &region_line(r#""id": "cold""#, demo))
            .get("solutions")
            .map(Json::render)
    }

    #[test]
    fn edit_answers_after_its_chain_session_was_evicted() {
        let shared = Shared::new(
            ServerConfig {
                watchdog: Duration::from_secs(60),
                pool: SessionPoolConfig::default().with_max_sessions(1),
                ..ServerConfig::default()
            },
            Faults::none(),
        );
        let base = r#"[["T[1,1]", "sum(T[1,2], T[2,2])"], ["T[3,1]", "sum(T[3,2])"]]"#;
        answer_ok(&shared, &region_line(r#""id": "a1", "retain": true"#, base));
        // Another demo family takes the only pool slot.
        let other = r#"[["T[1,1]"], ["T[3,1]"]]"#;
        answer_ok(&shared, &region_line(r#""id": "x1""#, other));
        assert_eq!(shared.sessions().len(), 1);
        // The edit names a1, whose session is gone: it runs on a fresh
        // session and answers like a cold solve.
        let edited = r#"[["T[1,1]", "sum(T[1,2], T[2,2])"]]"#;
        let warm = answer_ok(
            &shared,
            &region_line(r#""id": "a2", "prior": "a1""#, edited),
        );
        assert_eq!(
            warm.get("solutions").map(Json::render),
            cold_solutions(edited)
        );
    }

    #[test]
    fn chains_with_one_demo_fingerprint_edit_independently() {
        let shared = Shared::new(
            ServerConfig {
                watchdog: Duration::from_secs(60),
                ..ServerConfig::default()
            },
            Faults::none(),
        );
        // Same references, different functions: one demo fingerprint,
        // so both chains start on one pooled session.
        let demo_a = r#"[["T[1,1]", "sum(T[1,2], T[2,2])"], ["T[3,1]", "sum(T[3,2])"]]"#;
        let demo_b = r#"[["T[1,1]", "avg(T[1,2], T[2,2])"], ["T[3,1]", "avg(T[3,2])"]]"#;
        answer_ok(
            &shared,
            &region_line(r#""id": "a1", "retain": true"#, demo_a),
        );
        answer_ok(
            &shared,
            &region_line(r#""id": "b1", "retain": true"#, demo_b),
        );
        assert_eq!(shared.sessions().len(), 1);
        // Chain A edits first, then chain B; each drops the second row.
        let edit_a = r#"[["T[1,1]", "sum(T[1,2], T[2,2])"]]"#;
        let edit_b = r#"[["T[1,1]", "avg(T[1,2], T[2,2])"]]"#;
        let a2 = answer_ok(
            &shared,
            &region_line(r#""id": "a2", "prior": "a1""#, edit_a),
        );
        let b2 = answer_ok(
            &shared,
            &region_line(r#""id": "b2", "prior": "b1""#, edit_b),
        );
        assert_eq!(
            a2.get("solutions").map(Json::render),
            cold_solutions(edit_a)
        );
        assert_eq!(
            b2.get("solutions").map(Json::render),
            cold_solutions(edit_b)
        );
    }

    #[test]
    fn watchdog_cancels_unbounded_requests_and_detaches_stalled_ones() {
        // An unbounded deep search is stopped by the watchdog; the
        // response still arrives (timed_out, found solutions kept).
        let shared = Shared::new(
            ServerConfig {
                watchdog: Duration::from_millis(400),
                grace: Duration::from_secs(10),
                ..ServerConfig::default()
            },
            Faults::none(),
        );
        let line = concat!(
            r#"{"id": "w1", "tables": [{"columns": ["region", "revenue"], "#,
            r#""rows": [["west", 10], ["west", 20], ["east", 5]]}], "#,
            r#""demo": [["T[1,1]", "sum(T[1,2], T[2,2])"], ["T[3,1]", "sum(T[3,2])"]], "#,
            r#""max_depth": 3, "#,
            r#""budget": {"timeout_secs": null, "max_solutions": 1000000}}"#
        );
        let t0 = Instant::now();
        let mut out = Vec::new();
        let outcome = serve_line(&shared, line, &mut out, &mut || false, &mut None);
        assert!(matches!(outcome, Outcome::KeepOpen));
        assert!(
            t0.elapsed() < Duration::from_secs(8),
            "watchdog bounded the unbounded request ({:?})",
            t0.elapsed()
        );
        let response = Json::parse(String::from_utf8_lossy(&out).lines().next().unwrap()).unwrap();
        assert_eq!(response.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(
            response.get("timed_out").and_then(Json::as_bool),
            Some(true)
        );

        // A search wedged inside the analyzer ignores cancellation: after
        // the grace period the worker is detached and the client gets a
        // structured `canceled` error instead of a hung connection.
        let shared = Shared::new(
            ServerConfig {
                watchdog: Duration::from_millis(200),
                grace: Duration::from_millis(300),
                ..ServerConfig::default()
            },
            Faults::parse("stall@analyze:1:20000").unwrap(),
        );
        let t0 = Instant::now();
        let mut out = Vec::new();
        let outcome = serve_line(&shared, line, &mut out, &mut || false, &mut None);
        assert!(matches!(outcome, Outcome::KeepOpen));
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "stalled search was abandoned, not awaited ({:?})",
            t0.elapsed()
        );
        let response = Json::parse(String::from_utf8_lossy(&out).lines().next().unwrap()).unwrap();
        assert_eq!(response.get("status").and_then(Json::as_str), Some("error"));
        assert_eq!(
            response
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("canceled")
        );
        // The admission slot was released despite the detached worker.
        assert_eq!(shared.admission.active(), 0);
    }

    #[test]
    fn event_write_failure_cancels_the_search() {
        // A sink that accepts one event line then fails: the envelope
        // must cancel instead of burning the full (unbounded) search.
        struct FailAfter {
            ok_writes: usize,
        }
        impl Write for FailAfter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.ok_writes == 0 {
                    return Err(io::Error::from(io::ErrorKind::BrokenPipe));
                }
                self.ok_writes -= 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let shared = Shared::new(
            ServerConfig {
                watchdog: Duration::from_secs(600),
                ..ServerConfig::default()
            },
            Faults::none(),
        );
        let line = concat!(
            r#"{"id": "h1", "progress": true, "tables": [{"columns": ["region", "revenue"], "#,
            r#""rows": [["west", 10], ["west", 20], ["east", 5]]}], "#,
            r#""demo": [["T[1,1]", "sum(T[1,2], T[2,2])"], ["T[3,1]", "sum(T[3,2])"]], "#,
            r#""max_depth": 3, "#,
            r#""budget": {"timeout_secs": null, "max_solutions": 1000000}}"#
        );
        let t0 = Instant::now();
        let mut out = FailAfter { ok_writes: 1 };
        let outcome = serve_line(&shared, line, &mut out, &mut || false, &mut None);
        assert!(matches!(outcome, Outcome::Close), "hung-up client closes");
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "search was canceled on write failure, not run to budget ({:?})",
            t0.elapsed()
        );
    }

    #[test]
    fn server_config_env_defaults_are_sane() {
        let c = ServerConfig::default();
        assert!(c.max_inflight >= 1);
        assert!(c.queue >= c.max_inflight);
        assert!(c.watchdog > c.grace);
        assert_eq!(c.max_line_bytes, 8 * 1024 * 1024);
    }
}
