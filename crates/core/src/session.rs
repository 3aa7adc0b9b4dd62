//! The session-oriented synthesis API.
//!
//! A [`Session`] is the long-lived front door of the synthesizer: it owns
//! the warm, shareable search state — the hash-consed [`RefSetPool`] and
//! one session-wide cross-sibling [`AnalysisCache`] — and serves any
//! number of [`SynthRequest`]s against it. Requests built back-to-back
//! reuse interned reference sets, and repeat requests over the same
//! demonstration reuse memoized Def. 3 verdicts instead of rebuilding
//! them per call. (Verdict memos carry a collision-free per-demo
//! fingerprint — a [`sickle_provenance::DemoToken`] assigned at
//! registration — so demonstrations with different reference structure
//! share the one cache soundly; demos with *equal* id-grids resolve to
//! the same token and share verdicts, exactly as the old per-demo cache
//! family did.) Per-request state that is *not* shareable (the
//! thread-local [`crate::EvalCache`] keyed by query ASTs over one task's
//! inputs) is created fresh for each request. Each request runs one
//! sequential search; concurrent requests on one session share its pool
//! and analysis cache.
//!
//! An edited demonstration needs no special path: solving it on the
//! session that solved its predecessor reuses every verdict and column
//! memo the edit left reachable, and its solutions are byte-identical to
//! a cold solve — caching never changes verdicts.
//!
//! Two ways to run a request:
//!
//! * [`Session::solve`] — blocking; runs the search on the calling
//!   thread and returns the ranked [`SynthResult`];
//! * [`Session::submit`] — streaming; returns a [`SolutionStream`]
//!   yielding [`SolutionEvent`]s as the search finds solutions, with live
//!   [`ProgressSnapshot`]s and cooperative cancellation via
//!   [`CancelToken`].
//!
//! Requests are validated up front ([`SynthRequest`] problems surface as
//! [`SickleError::InvalidRequest`] instead of panics or silently
//! unsolvable searches), budgets live in [`Budget`], and the analyzer is
//! selected by [`AnalyzerChoice`].
//!
//! # Examples
//!
//! ```
//! use sickle_core::{Budget, Session, SynthRequest};
//! use sickle_provenance::Demo;
//! use sickle_table::Table;
//!
//! let t = Table::new(
//!     ["City", "Enrolled"],
//!     vec![
//!         vec!["A".into(), 10.into()],
//!         vec!["A".into(), 20.into()],
//!         vec!["B".into(), 5.into()],
//!     ],
//! )?;
//! let demo = Demo::parse(&[
//!     &["T[1,1]", "sum(T[1,2], T[2,2])"],
//!     &["T[3,1]", "sum(T[3,2])"],
//! ])?;
//!
//! let session = Session::new();
//! let request = SynthRequest::new(vec![t], demo)
//!     .with_max_depth(1)
//!     .with_budget(Budget::default().with_max_solutions(3));
//! let result = session.solve(&request)?;
//! assert!(!result.solutions.is_empty());
//! # Ok::<(), sickle_core::SickleError>(())
//! ```

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sickle_provenance::{AnalysisCache, AnalysisCacheStats, Demo, RefSetPool};
use sickle_table::{Table, Value};

use crate::ast::{PQuery, Query};
use crate::error::SickleError;
use crate::stats::{ProgressSnapshot, SharedStats};
use crate::synth::{
    run_search, Analyzer, JoinKey, NoPruneAnalyzer, ProvenanceAnalyzer, SynthConfig, SynthResult,
    SynthTask, TaskContext,
};

// ---------------------------------------------------------------------------
// Budgets and cancellation
// ---------------------------------------------------------------------------

/// Resource budget of one request: wall-clock, visited-query cap and the
/// consistent-solution target. The search reads it directly; the
/// request's [`SynthConfig`] holds only the shape of the search space.
///
/// Marked `#[non_exhaustive]`: construct via [`Budget::default`] plus the
/// `with_*` builders.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct Budget {
    /// Relative wall-clock budget; `None` = unbounded.
    pub timeout: Option<Duration>,
    /// Absolute deadline; combined with `timeout` (whichever is sooner).
    pub deadline: Option<Instant>,
    /// Budget on visited (partial + concrete) queries; `None` = unbounded.
    pub max_visited: Option<usize>,
    /// Stop after this many consistent queries (the paper's `N = 10`).
    pub max_solutions: usize,
}

impl Default for Budget {
    fn default() -> Budget {
        Budget {
            timeout: Some(Duration::from_secs(600)),
            deadline: None,
            max_visited: None,
            max_solutions: 10,
        }
    }
}

impl Budget {
    /// An unbounded budget (no timeout, no visit cap) with the default
    /// solution target. Deterministic runs combine this with
    /// [`Budget::with_max_visited`].
    pub fn unbounded() -> Budget {
        Budget {
            timeout: None,
            ..Budget::default()
        }
    }

    /// Sets (or clears) the relative wall-clock budget.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Option<Duration>) -> Budget {
        self.timeout = timeout;
        self
    }

    /// Sets an absolute deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Budget {
        self.deadline = Some(deadline);
        self
    }

    /// Sets (or clears) the visited-query cap.
    #[must_use]
    pub fn with_max_visited(mut self, max: Option<usize>) -> Budget {
        self.max_visited = max;
        self
    }

    /// Sets the consistent-solution target.
    #[must_use]
    pub fn with_max_solutions(mut self, n: usize) -> Budget {
        self.max_solutions = n;
        self
    }

    /// The effective deadline of a search started at `started`: the
    /// sooner of `started + timeout` and `deadline` (an already-passed
    /// deadline stops the search on its first check). A timeout too large
    /// to represent is unbounded.
    pub(crate) fn deadline_from(&self, started: Instant) -> Option<Instant> {
        let from_timeout = self.timeout.and_then(|t| started.checked_add(t));
        match (from_timeout, self.deadline) {
            (Some(t), Some(d)) => Some(t.min(d)),
            (t, d) => t.or(d),
        }
    }
}

/// Cooperative cancellation handle: cloneable, thread-safe, level-
/// triggered. The search polls it between visited queries; a canceled run
/// terminates promptly, reports `timed_out`, and keeps every solution
/// found so far.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-canceled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// True once [`CancelToken::cancel`] has been called.
    pub fn is_canceled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Analyzer selection
// ---------------------------------------------------------------------------

/// Which pruning analyzer a request runs with.
///
/// The two built-in choices live in this crate; baseline abstractions
/// (`sickle-baselines`) or user-supplied analyzers plug in through
/// [`AnalyzerChoice::custom`]. Marked `#[non_exhaustive]`.
#[derive(Clone, Default)]
#[non_exhaustive]
pub enum AnalyzerChoice {
    /// The paper's abstract data provenance analyzer (Def. 3).
    #[default]
    Provenance,
    /// No pruning (plain enumerative search; the ablation baseline).
    NoPrune,
    /// A caller-supplied analyzer factory (invoked once per request).
    Custom {
        /// Short name used in reports and the wire format.
        name: &'static str,
        /// Per-request analyzer factory.
        factory: Arc<dyn Fn() -> Box<dyn Analyzer> + Send + Sync>,
    },
}

impl AnalyzerChoice {
    /// Wraps an analyzer factory (e.g. one of the `sickle-baselines`
    /// abstractions) as a choice.
    pub fn custom(
        name: &'static str,
        factory: impl Fn() -> Box<dyn Analyzer> + Send + Sync + 'static,
    ) -> AnalyzerChoice {
        AnalyzerChoice::Custom {
            name,
            factory: Arc::new(factory),
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            AnalyzerChoice::Provenance => "provenance",
            AnalyzerChoice::NoPrune => "no-prune",
            AnalyzerChoice::Custom { name, .. } => name,
        }
    }

    /// Instantiates the analyzer (once per request).
    pub fn make(&self) -> Box<dyn Analyzer> {
        match self {
            AnalyzerChoice::Provenance => Box::new(ProvenanceAnalyzer),
            AnalyzerChoice::NoPrune => Box::new(NoPruneAnalyzer),
            AnalyzerChoice::Custom { factory, .. } => factory(),
        }
    }
}

impl fmt::Debug for AnalyzerChoice {
    // By name only: the custom factory is an opaque closure.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("AnalyzerChoice").field(&self.name()).finish()
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One synthesis request: the task (inputs + demonstration), the search
/// shape, the [`Budget`], the [`AnalyzerChoice`] and optional
/// cancellation.
///
/// Built with the chainable `with_*` builders; validated by the session
/// before the search starts. Marked `#[non_exhaustive]` — construct via
/// [`SynthRequest::new`] / [`SynthRequest::from_task`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SynthRequest {
    /// The synthesis task (inputs, demonstration, join keys, constants).
    pub task: SynthTask,
    /// Search-shape knobs (depth, operator set, templates).
    pub search: SynthConfig,
    /// The resource budget.
    pub budget: Budget,
    /// The pruning analyzer.
    pub analyzer: AnalyzerChoice,
    /// External cancellation; [`Session::submit`] creates one when absent.
    pub cancel: Option<CancelToken>,
    /// Explicit seed work list overriding skeleton enumeration (tests,
    /// ablations and diagnostics).
    pub seeds: Option<Vec<PQuery>>,
    /// Asks a serving front end to keep this request's session nameable
    /// so a follow-up edit can be routed back to it. [`Session`] itself
    /// ignores the flag: every request leaves its verdicts in the
    /// session-wide cache.
    pub retain: bool,
}

impl SynthRequest {
    /// A request over `inputs` and `demo` with default shape, budget and
    /// analyzer.
    pub fn new(inputs: Vec<Table>, demo: Demo) -> SynthRequest {
        SynthRequest::from_task(SynthTask::new(inputs, demo))
    }

    /// A request from a pre-assembled task (join keys and extra constants
    /// already attached).
    pub fn from_task(task: SynthTask) -> SynthRequest {
        SynthRequest {
            task,
            search: SynthConfig::default(),
            budget: Budget::default(),
            analyzer: AnalyzerChoice::default(),
            cancel: None,
            seeds: None,
            retain: false,
        }
    }

    /// Replaces the search-shape configuration.
    #[must_use]
    pub fn with_search(mut self, search: SynthConfig) -> SynthRequest {
        self.search = search;
        self
    }

    /// Sets the maximum number of operators per query.
    #[must_use]
    pub fn with_max_depth(mut self, depth: usize) -> SynthRequest {
        self.search.max_depth = depth;
        self
    }

    /// Sets the budget.
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> SynthRequest {
        self.budget = budget;
        self
    }

    /// Selects the analyzer.
    #[must_use]
    pub fn with_analyzer(mut self, analyzer: AnalyzerChoice) -> SynthRequest {
        self.analyzer = analyzer;
        self
    }

    /// Attaches a cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> SynthRequest {
        self.cancel = Some(cancel);
        self
    }

    /// Does nothing: the search is sequential. Kept only so callers
    /// written against the removed multi-worker search still compile.
    #[deprecated(note = "the search is sequential; this setting is ignored")]
    #[doc(hidden)]
    #[must_use]
    pub fn with_workers(self, _workers: usize) -> SynthRequest {
        self
    }

    /// Declares a primary/foreign key pair for join enumeration.
    #[must_use]
    pub fn with_join_key(mut self, key: JoinKey) -> SynthRequest {
        self.task.join_keys.push(key);
        self
    }

    /// Adds extra constants usable in filter predicates.
    #[must_use]
    pub fn with_constants(mut self, constants: Vec<Value>) -> SynthRequest {
        self.task.extra_constants.extend(constants);
        self
    }

    /// Overrides skeleton enumeration with an explicit seed work list.
    #[must_use]
    pub fn with_seeds(mut self, seeds: Vec<PQuery>) -> SynthRequest {
        self.seeds = Some(seeds);
        self
    }

    /// Sets [`SynthRequest::retain`], the flag a serving front end reads
    /// to keep this request's session nameable for a follow-up edit.
    #[must_use]
    pub fn with_retain(mut self, retain: bool) -> SynthRequest {
        self.retain = retain;
        self
    }

    /// Sets the engine-cache eviction policy ([`crate::CachePolicy`]):
    /// the entry cap and the hysteresis low-water mark.
    #[must_use]
    pub fn with_cache_policy(mut self, policy: crate::CachePolicy) -> SynthRequest {
        self.search.cache = policy;
        self
    }

    /// Validates the request: non-empty inputs and demonstration, all
    /// demonstration references and join keys within the inputs, and a
    /// positive solution target.
    ///
    /// # Errors
    ///
    /// Returns [`SickleError::InvalidRequest`] naming the first violated
    /// constraint. These are exactly the shapes that previously panicked
    /// or produced silently unsolvable searches.
    pub fn validate(&self) -> Result<(), SickleError> {
        let inputs = &self.task.inputs;
        if inputs.is_empty() {
            return Err(SickleError::invalid("no input tables"));
        }
        let demo = &self.task.demo;
        if demo.n_rows() == 0 || demo.n_cols() == 0 {
            return Err(SickleError::invalid("empty demonstration"));
        }
        for i in 0..demo.n_rows() {
            for j in 0..demo.n_cols() {
                for r in demo.cell(i, j).refs() {
                    let Some(t) = inputs.get(r.table) else {
                        return Err(SickleError::invalid(format!(
                            "demo cell ({},{}) references table T{} but only {} input(s) exist",
                            i + 1,
                            j + 1,
                            r.table + 1,
                            inputs.len()
                        )));
                    };
                    if r.row >= t.n_rows() || r.col >= t.n_cols() {
                        return Err(SickleError::invalid(format!(
                            "demo cell ({},{}) references T{}[{},{}] outside the {}x{} input",
                            i + 1,
                            j + 1,
                            r.table + 1,
                            r.row + 1,
                            r.col + 1,
                            t.n_rows(),
                            t.n_cols()
                        )));
                    }
                }
            }
        }
        for jk in &self.task.join_keys {
            let ok = |t: usize, c: usize| inputs.get(t).is_some_and(|tab| c < tab.n_cols());
            if !ok(jk.left_table, jk.left_col) || !ok(jk.right_table, jk.right_col) {
                return Err(SickleError::invalid(format!(
                    "join key {jk:?} references a table or column outside the inputs"
                )));
            }
        }
        if self.budget.max_solutions == 0 {
            return Err(SickleError::invalid("budget.max_solutions must be >= 1"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Streaming results
// ---------------------------------------------------------------------------

/// One event of a [`SolutionStream`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum SolutionEvent {
    /// A consistent query, emitted the moment the search finds it. The
    /// indices of a stream run `0..n` in discovery order, and the final
    /// [`SolutionEvent::Done`] holds exactly these `n` queries, stably
    /// ranked by query size.
    Solution {
        /// Discovery index (0-based).
        index: usize,
        /// The consistent query.
        query: Query,
    },
    /// A progress heartbeat (emitted alongside each solution; poll
    /// [`SolutionStream::progress`] for arbitrary-rate sampling).
    Progress(ProgressSnapshot),
    /// The search finished: the ranked result. The last
    /// event of a stream that ran to completion (unless the worker died,
    /// in which case the stream just ends).
    Done(SynthResult),
    /// The search aborted on an internal error (a malformed candidate
    /// inside the engine). Terminal, like [`SolutionEvent::Done`];
    /// [`SolutionStream::wait`] surfaces it as the `Err` it wraps.
    Failed(SickleError),
}

/// A handle to an in-flight request submitted with [`Session::submit`]:
/// an iterator of [`SolutionEvent`]s ending with [`SolutionEvent::Done`].
///
/// Dropping the stream cancels the request and joins the worker. The
/// search also stops early when the budget expires or
/// [`SolutionStream::cancel`] is called — already-found solutions are
/// never dropped; they arrive in the final [`SolutionEvent::Done`].
#[derive(Debug)]
pub struct SolutionStream {
    rx: mpsc::Receiver<SolutionEvent>,
    handle: Option<JoinHandle<()>>,
    shared: Arc<SharedStats>,
    cancel: CancelToken,
    started: Instant,
    finished: bool,
}

impl SolutionStream {
    /// Live progress counters (sample at any rate).
    pub fn progress(&self) -> ProgressSnapshot {
        ProgressSnapshot::read(&self.shared, self.started)
    }

    /// Requests cooperative cancellation; the stream still delivers
    /// [`SolutionEvent::Done`] with everything found so far (and
    /// `stats.timed_out` set).
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// The stream's cancellation token (cloneable; share it with watchdog
    /// threads).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Blocks until the search finishes and returns the ranked result,
    /// discarding intermediate events.
    ///
    /// # Errors
    ///
    /// Returns [`SickleError::Internal`] if the worker died before
    /// reporting a result, or the error of a [`SolutionEvent::Failed`].
    pub fn wait(mut self) -> Result<SynthResult, SickleError> {
        for event in &mut self {
            match event {
                SolutionEvent::Done(result) => return Ok(result),
                SolutionEvent::Failed(e) => return Err(e),
                _ => {}
            }
        }
        Err(SickleError::Internal {
            message: "synthesis worker terminated without a result".to_string(),
        })
    }

    /// Like `Iterator::next`, but gives up after `timeout`. Lets a
    /// caller interleave waiting on events with its own bookkeeping — a
    /// server's watchdog checks its per-request deadline between polls
    /// and arms [`SolutionStream::cancel`] when it passes.
    pub fn next_timeout(&mut self, timeout: Duration) -> StreamWait {
        if self.finished {
            return StreamWait::Ended;
        }
        match self.rx.recv_timeout(timeout) {
            Ok(event) => {
                if matches!(event, SolutionEvent::Done(_) | SolutionEvent::Failed(_)) {
                    self.finished = true;
                    self.join_worker();
                }
                StreamWait::Event(event)
            }
            Err(mpsc::RecvTimeoutError::Timeout) => StreamWait::TimedOut,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // Worker died without a Done event.
                self.finished = true;
                self.join_worker();
                StreamWait::Ended
            }
        }
    }

    /// Abandons the worker: cancellation is requested, but dropping the
    /// stream will no longer join the worker thread. This is the watchdog
    /// escalation path — a search that ignored its [`CancelToken`] past
    /// the grace period must not wedge the serving thread on join. The
    /// leaked worker exits on its own (or with the process); its channel
    /// sends go nowhere once the stream is dropped.
    pub fn detach(&mut self) {
        self.cancel.cancel();
        self.finished = true;
        drop(self.handle.take());
    }

    fn join_worker(&mut self) {
        if let Some(handle) = self.handle.take() {
            // A panicking worker already ends the stream (sender dropped);
            // surfacing the panic here would abort the caller during a
            // normal drain, so the join result is advisory only.
            let _ = handle.join();
        }
    }
}

/// Outcome of one [`SolutionStream::next_timeout`] poll.
// Not boxed: the value is matched and consumed immediately at every call
// site, never stored, so the size skew has nowhere to hurt.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum StreamWait {
    /// An event arrived within the timeout.
    Event(SolutionEvent),
    /// No event arrived within the timeout; the search is still running.
    TimedOut,
    /// The stream is over: a terminal event was already delivered, or the
    /// worker died without one.
    Ended,
}

impl Iterator for SolutionStream {
    type Item = SolutionEvent;

    fn next(&mut self) -> Option<SolutionEvent> {
        if self.finished {
            return None;
        }
        match self.rx.recv() {
            Ok(event) => {
                if matches!(event, SolutionEvent::Done(_) | SolutionEvent::Failed(_)) {
                    self.finished = true;
                    self.join_worker();
                }
                Some(event)
            }
            Err(_) => {
                // Worker died without a Done event.
                self.finished = true;
                self.join_worker();
                None
            }
        }
    }
}

impl Drop for SolutionStream {
    fn drop(&mut self) {
        self.cancel.cancel();
        self.join_worker();
    }
}

// ---------------------------------------------------------------------------
// The session
// ---------------------------------------------------------------------------

/// A long-lived synthesis service instance: owns the warm cross-request
/// state and serves [`SynthRequest`]s, blocking ([`Session::solve`]) or
/// streaming ([`Session::submit`]).
///
/// Cheap to share: all methods take `&self` and the warm state is
/// internally synchronized, so one `Session` (behind an `Arc` if needed)
/// can serve requests from many threads. Each request runs one sequential
/// search; concurrent requests share the session's [`RefSetPool`] and
/// [`AnalysisCache`].
#[derive(Debug)]
pub struct Session {
    /// The hash-consing pool behind every `SetId` of this session's
    /// searches; grows monotonically with the number of *distinct* sets
    /// ever interned.
    pool: Arc<RefSetPool>,
    /// The session-wide cross-sibling memo of abstract-consistency
    /// analyses. One bounded cache serves every demonstration: verdict
    /// keys carry a collision-free per-demo fingerprint
    /// ([`sickle_provenance::DemoToken`], assigned when the demo's
    /// interned id-grid is registered), so different demonstrations never
    /// alias while equal id-grids share verdicts.
    analysis: Arc<AnalysisCache>,
    /// Requests served so far (solve + submit).
    served: AtomicUsize,
}

impl Default for Session {
    fn default() -> Session {
        Session::new()
    }
}

impl Session {
    /// A fresh session with cold caches.
    pub fn new() -> Session {
        Session {
            pool: Arc::new(RefSetPool::new()),
            analysis: Arc::new(AnalysisCache::new()),
            served: AtomicUsize::new(0),
        }
    }

    /// The session's hash-consing set pool (diagnostics: `pool().size()`
    /// is the number of distinct reference sets interned so far).
    pub fn pool(&self) -> &Arc<RefSetPool> {
        &self.pool
    }

    /// Approximate resident bytes of the session's warm state: the
    /// hash-consing pool's interned sets and the session-wide analysis
    /// cache's verdicts. This is the per-session rollup the service
    /// tier's byte-bounded [`crate::SessionPool`] and the server's
    /// pressure ladder read; each request's engine cache lives in its
    /// `TaskContext` and dies with it, so it is accounted in the request
    /// stats instead.
    pub fn mem_bytes(&self) -> usize {
        self.pool.approx_bytes() + self.analysis.approx_bytes()
    }

    /// Hit/miss counters of the session-wide analysis cache.
    pub fn analysis_stats(&self) -> AnalysisCacheStats {
        self.analysis.stats()
    }

    /// Number of requests served (solve + submit).
    pub fn served(&self) -> usize {
        self.served.load(Ordering::Relaxed)
    }

    /// Runs a request to completion on the calling thread and returns the
    /// ranked result.
    ///
    /// # Errors
    ///
    /// Returns [`SickleError::InvalidRequest`] if validation fails; the
    /// search itself reports budget expiry via `stats.timed_out`, not an
    /// error.
    pub fn solve(&self, request: &SynthRequest) -> Result<SynthResult, SickleError> {
        self.solve_with(request, |_| false)
    }

    /// [`Session::solve`], additionally stopping as soon as `stop` accepts
    /// a found solution (the evaluation harness stops on the ground-truth
    /// query).
    ///
    /// # Errors
    ///
    /// As [`Session::solve`].
    pub fn solve_with(
        &self,
        request: &SynthRequest,
        stop: impl FnMut(&Query) -> bool,
    ) -> Result<SynthResult, SickleError> {
        request.validate()?;
        self.served.fetch_add(1, Ordering::Relaxed);
        let cancel = request.cancel.clone().unwrap_or_default();
        let ctx = TaskContext::with_shared_policy(
            request.task.clone(),
            Arc::clone(&self.pool),
            Arc::clone(&self.analysis),
            request.search.cache,
        );
        run_search(&ctx, request, &cancel, stop, &SharedStats::default())
    }

    /// Starts a request on a background thread and returns a
    /// [`SolutionStream`] of its events.
    ///
    /// # Errors
    ///
    /// Returns [`SickleError::InvalidRequest`] if validation fails
    /// (before any thread is spawned).
    pub fn submit(&self, request: SynthRequest) -> Result<SolutionStream, SickleError> {
        request.validate()?;
        self.served.fetch_add(1, Ordering::Relaxed);
        let cancel = request.cancel.clone().unwrap_or_default();
        let started = Instant::now();
        let shared = Arc::new(SharedStats::default());
        let (tx, rx) = mpsc::channel();

        let (pool, analysis) = (Arc::clone(&self.pool), Arc::clone(&self.analysis));
        let (worker_cancel, worker_shared) = (cancel.clone(), Arc::clone(&shared));
        let handle = std::thread::spawn(move || {
            // The engine cache is not `Send`: build the context here.
            let ctx = TaskContext::with_shared_policy(
                request.task.clone(),
                pool,
                analysis,
                request.search.cache,
            );
            let mut index = 0;
            let result = run_search(
                &ctx,
                &request,
                &worker_cancel,
                |q| {
                    // A receiver hang-up just means nobody is listening;
                    // the search still honors its budget and the stream's
                    // Drop-side cancellation.
                    let _ = tx.send(SolutionEvent::Solution {
                        index,
                        query: q.clone(),
                    });
                    index += 1;
                    let _ = tx.send(SolutionEvent::Progress(ProgressSnapshot::read(
                        &worker_shared,
                        started,
                    )));
                    false
                },
                &worker_shared,
            );
            let _ = tx.send(match result {
                Ok(result) => SolutionEvent::Done(result),
                Err(e) => SolutionEvent::Failed(e),
            });
        });

        Ok(SolutionStream {
            rx,
            handle: Some(handle),
            shared,
            cancel,
            started,
            finished: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        Table::new(
            ["City", "Enrolled"],
            vec![
                vec!["A".into(), 10.into()],
                vec!["A".into(), 20.into()],
                vec!["B".into(), 5.into()],
            ],
        )
        .unwrap()
    }

    fn demo() -> Demo {
        Demo::parse(&[
            &["T[1,1]", "sum(T[1,2], T[2,2])"],
            &["T[3,1]", "sum(T[3,2])"],
        ])
        .unwrap()
    }

    #[test]
    fn validation_rejects_bad_requests() {
        let no_inputs = SynthRequest::new(Vec::new(), demo());
        assert_eq!(no_inputs.validate().unwrap_err().kind(), "invalid_request");

        let bad_ref = SynthRequest::new(vec![table()], Demo::parse(&[&["T[9,1]"]]).unwrap());
        let err = bad_ref.validate().unwrap_err();
        assert!(err.to_string().contains("T1[9,1]"), "{err}");

        let bad_table = SynthRequest::new(vec![table()], Demo::parse(&[&["T2[1,1]"]]).unwrap());
        assert!(bad_table.validate().is_err());

        let zero_solutions = SynthRequest::new(vec![table()], demo())
            .with_budget(Budget::default().with_max_solutions(0));
        assert!(zero_solutions.validate().is_err());

        let bad_join = SynthRequest::new(vec![table()], demo()).with_join_key(JoinKey {
            left_table: 0,
            left_col: 0,
            right_table: 1,
            right_col: 0,
        });
        assert!(bad_join.validate().is_err());
    }

    #[test]
    fn solve_finds_group_sum_and_warms_the_session() {
        let session = Session::new();
        let request = SynthRequest::new(vec![table()], demo())
            .with_max_depth(1)
            .with_budget(Budget::default().with_max_solutions(3));
        let first = session.solve(&request).unwrap();
        assert!(!first.solutions.is_empty());
        let pool_after_first = session.pool().size();
        assert!(pool_after_first > 0);
        // Second identical request: byte-identical solutions, warm pool
        // grows by nothing (every set already interned).
        let second = session.solve(&request).unwrap();
        let render = |r: &SynthResult| {
            r.solutions
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
        };
        assert_eq!(render(&first), render(&second));
        assert_eq!(session.pool().size(), pool_after_first);
        assert_eq!(session.served(), 2);
    }

    #[test]
    fn stream_yields_solutions_then_done() {
        let session = Session::new();
        let request = SynthRequest::new(vec![table()], demo())
            .with_max_depth(2)
            .with_budget(Budget::default().with_max_solutions(4));
        let stream = session.submit(request).unwrap();
        let events: Vec<SolutionEvent> = stream.collect();
        let mut streamed = Vec::new();
        for event in &events {
            if let SolutionEvent::Solution { index, query } = event {
                // Indices run 0..n in discovery order.
                assert_eq!(*index, streamed.len());
                streamed.push(query.clone());
            }
        }
        assert!(streamed.len() > 1, "{events:?}");
        let Some(SolutionEvent::Done(result)) = events.last() else {
            panic!("stream must end with Done; got {events:?}");
        };
        // Done holds exactly the streamed queries, stably ranked by size.
        streamed.sort_by_key(Query::size);
        assert_eq!(result.solutions, streamed);
    }

    #[test]
    fn cancellation_keeps_found_solutions_and_sets_timed_out() {
        let session = Session::new();
        let cancel = CancelToken::new();
        // Deep search over a small table: will not exhaust quickly, so
        // cancellation is what ends it.
        let request = SynthRequest::new(vec![table()], demo())
            .with_max_depth(3)
            .with_budget(Budget::unbounded().with_max_solutions(usize::MAX))
            .with_cancel(cancel.clone());
        let mut stream = session.submit(request).unwrap();
        // Cancel as soon as the first solution arrives.
        let mut streamed = Vec::new();
        let result = loop {
            match stream.next() {
                Some(SolutionEvent::Solution { query, .. }) => {
                    streamed.push(query);
                    cancel.cancel();
                }
                Some(SolutionEvent::Done(result)) => break result,
                Some(SolutionEvent::Progress(_)) => {}
                Some(SolutionEvent::Failed(e)) => panic!("search failed: {e}"),
                None => panic!("stream ended without Done"),
            }
        };
        assert!(result.stats.timed_out, "canceled run must report timed_out");
        assert!(!streamed.is_empty(), "expected a solution before cancel");
        for q in &streamed {
            assert!(result.solutions.contains(q), "dropped found solution {q}");
        }
    }

    #[test]
    fn malformed_seed_is_skipped_not_a_panic() {
        use crate::ast::PQuery;
        // A caller-supplied seed with out-of-range group keys: it fails
        // to evaluate (engine EvalError), so acceptance rejects it rather
        // than panicking — even when the group's source is already
        // cached from an earlier seed.
        let session = Session::new();
        let request = SynthRequest::new(vec![table()], demo()).with_seeds(vec![
            PQuery::Input(0),
            PQuery::Group {
                src: Box::new(PQuery::Input(0)),
                keys: Some(vec![99]),
                agg: Some((sickle_table::AggFunc::Sum, 1)),
            },
        ]);
        let result = session
            .solve(&request)
            .expect("malformed seed must not error the run");
        assert!(result.solutions.is_empty());
        assert_eq!(result.stats.concrete_checked, 2);
    }

    #[test]
    fn warm_edit_matches_cold_solve_of_the_edited_demo() {
        let render = |r: &SynthResult| {
            r.solutions
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
        };
        // Base demo, then a single-cell edit (row 3 instead of rows 1+2 in
        // the aggregate) solved on the same session: an edit is a plain
        // solve, warm only through the session's pool and analysis cache.
        let edited = Demo::parse(&[
            &["T[1,1]", "sum(T[1,2], T[2,2])"],
            &["T[3,1]", "sum(T[3,2], T[3,2])"],
        ])
        .unwrap();
        let session = Session::new();
        let base = SynthRequest::new(vec![table()], demo()).with_max_depth(1);
        assert!(!session.solve(&base).unwrap().solutions.is_empty());
        let edit = SynthRequest::new(vec![table()], edited).with_max_depth(1);
        let warm = session.solve(&edit).unwrap();
        let cold = Session::new().solve(&edit).unwrap();
        assert_eq!(render(&warm), render(&cold));
        assert_eq!(session.served(), 2);
    }

    #[test]
    fn deadline_in_the_past_terminates_immediately() {
        let session = Session::new();
        let request = SynthRequest::new(vec![table()], demo())
            .with_max_depth(3)
            .with_budget(Budget::unbounded().with_deadline(Instant::now()));
        let result = session.solve(&request).unwrap();
        assert!(result.stats.timed_out);
        // At most one node slips through before the first budget check
        // observes a non-zero elapsed time.
        assert!(
            result.stats.visited <= 1,
            "visited {}",
            result.stats.visited
        );
    }
}
