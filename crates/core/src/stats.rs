//! The search counters, declared once.
//!
//! Every counter a synthesis run reports is one row of the `counters!`
//! table below: its Rust field, its wire/JSON key, its unit, whether it
//! is live (published through the shared atomics while the search runs,
//! so another thread can read progress) and its doc line. The table
//! generates [`SearchStats`] with its [`SearchStats::merge`], the shared
//! atomics behind [`ProgressSnapshot`], and the name/value visitor
//! ([`SearchStats::visit`]) plus its inverse
//! ([`SearchStats::from_fields`]) that the wire codec, the bench record
//! and the shard reader render and parse through. Adding a counter is
//! adding a row.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The unit of a counter, which fixes how its value renders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// A plain count.
    Count,
    /// A duration; visited as seconds.
    Time,
    /// A byte count.
    Bytes,
}

/// One declared counter, as the visitor reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counter {
    /// Wire / JSON key (`wall_s`, `visited`, …).
    pub key: &'static str,
    /// Unit of the value.
    pub unit: Unit,
    /// Whether the counter moves while the search runs (and so appears in
    /// progress events).
    pub live: bool,
}

/// Conversions between a counter's field type and the two encodings it
/// travels in: the shared atomics (`u64`, nanoseconds for times) and the
/// visitor (`f64`, seconds for times).
trait Value: Copy {
    fn to_raw(self) -> u64;
    fn from_raw(raw: u64) -> Self;
    fn to_f64(self) -> f64;
    fn from_f64(x: f64) -> Self;
}

impl Value for usize {
    fn to_raw(self) -> u64 {
        self as u64
    }
    fn from_raw(raw: u64) -> Self {
        usize::try_from(raw).unwrap_or(usize::MAX)
    }
    fn to_f64(self) -> f64 {
        self as f64
    }
    fn from_f64(x: f64) -> Self {
        // Saturating: negative and NaN read 0.
        x as usize
    }
}

impl Value for Duration {
    fn to_raw(self) -> u64 {
        u64::try_from(self.as_nanos()).unwrap_or(u64::MAX)
    }
    fn from_raw(raw: u64) -> Self {
        Duration::from_nanos(raw)
    }
    fn to_f64(self) -> f64 {
        self.as_secs_f64()
    }
    fn from_f64(x: f64) -> Self {
        Duration::try_from_secs_f64(x).unwrap_or_default()
    }
}

macro_rules! unit_type {
    (Count) => {
        usize
    };
    (Bytes) => {
        usize
    };
    (Time) => {
        Duration
    };
}

macro_rules! counters {
    ($(
        $(#[doc = $doc:literal])+
        $field:ident: $unit:ident, $key:literal, live = $live:literal;
    )+) => {
        /// Counters describing a synthesis run (the quantities plotted in
        /// Figs. 12/13).
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct SearchStats {
            $( $(#[doc = $doc])+ pub $field: unit_type!($unit), )+
            /// True when the run hit its timeout or visit budget.
            pub timed_out: bool,
        }

        impl SearchStats {
            /// Adds a delta's counters (an acceptance cost, drained
            /// engine-cache rows) into these, row by row. `timed_out` is
            /// left as it is.
            pub fn merge(&mut self, other: &SearchStats) {
                $( self.$field += other.$field; )+
            }

            /// Calls `f` with every counter and its value (seconds for
            /// times), in declaration order.
            pub fn visit(&self, mut f: impl FnMut(Counter, f64)) {
                $( f(Counter { key: $key, unit: Unit::$unit, live: $live }, self.$field.to_f64()); )+
            }

            /// The inverse of [`SearchStats::visit`]: reads every counter
            /// from `get(key)`; absent keys read 0 and `timed_out` is
            /// false.
            pub fn from_fields(mut get: impl FnMut(&str) -> Option<f64>) -> SearchStats {
                SearchStats {
                    $( $field: get($key).map_or_else(Default::default, Value::from_f64), )+
                    timed_out: false,
                }
            }
        }

        /// One atomic per counter, written by the search thread and read
        /// by progress readers. Only the live rows are published.
        #[derive(Debug, Default)]
        pub(crate) struct LiveCounters {
            $( pub(crate) $field: AtomicU64, )+
        }

        impl LiveCounters {
            /// Adds the live counters of `delta` (zero rows cost nothing).
            pub(crate) fn add(&self, delta: &SearchStats) {
                $(
                    let raw = delta.$field.to_raw();
                    if $live && raw != 0 {
                        self.$field.fetch_add(raw, Ordering::Relaxed);
                    }
                )+
            }

            fn load(&self) -> SearchStats {
                SearchStats {
                    $( $field: Value::from_raw(self.$field.load(Ordering::Relaxed)), )+
                    timed_out: false,
                }
            }
        }
    };
}

counters! {
    /// Queries (partial and concrete) taken off the work list.
    visited: Count, "visited", live = true;
    /// Partial queries pruned by the analyzer.
    pruned: Count, "pruned", live = true;
    /// Concrete queries checked against Def. 1. Each one ends in exactly
    /// one of the funnel rows below, or fails to evaluate.
    concrete_checked: Count, "concrete_checked", live = true;
    /// Funnel: candidates skipped unevaluated because their static column
    /// arity is below the demonstration's (only analyzers that let such
    /// sources through, such as `no-prune`, leave any).
    arity_skipped: Count, "arity_skipped", live = false;
    /// Funnel: evaluated candidates with fewer rows or columns than the
    /// demonstration.
    fit_rejected: Count, "fit_rejected", live = false;
    /// Funnel: fitting candidates rejected by the heads gate: some demo
    /// column has no result column whose function heads, references and
    /// constants cover what its cells need. They derive no reference-set
    /// ids and build no star.
    heads_rejected: Count, "heads_rejected", live = false;
    /// Funnel: heads-gate survivors rejected by the Def. 3 prefilter on
    /// their exact reference sets.
    prefilter_rejected: Count, "prefilter_rejected", live = false;
    /// Funnel: prefilter survivors that fail the Def. 1 match.
    def1_rejected: Count, "def1_rejected", live = false;
    /// Funnel: candidates accepted by Def. 1 (consistent queries found).
    accepted: Count, "accepted", live = false;
    /// Candidate provenance stars built by acceptance: only survivors of
    /// the heads gate and the prefilter build one.
    stars_built: Count, "stars_built", live = false;
    /// Children generated by hole expansion.
    expanded: Count, "expanded", live = false;
    /// Wall-clock time spent (live: time since the request was submitted).
    elapsed: Time, "wall_s", live = true;
    /// Time spent in the analyzer (pruning checks).
    time_analyze: Time, "time_analyze_s", live = false;
    /// Time spent checking concrete queries against Def. 1 — the sum of
    /// the three acceptance stages below.
    time_concrete: Time, "time_eval_s", live = false;
    /// Acceptance stage 1: evaluating the candidate (values and step
    /// record) and, for prefilter survivors only, building its
    /// provenance star.
    time_materialize: Time, "time_materialize_s", live = true;
    /// Acceptance stage 2: the dimension fit, the heads gate on the
    /// candidate's static column heads, deriving its exact reference-set ids,
    /// and the Def. 3 check on them through the session's verdict cache.
    time_prefilter: Time, "time_prefilter_s", live = true;
    /// Acceptance stage 3: the candidate-seeded Def. 1 expression match
    /// (the seed's derivation included).
    time_match: Time, "time_match_s", live = true;
    /// Time spent expanding holes (domain inference + tree building).
    time_expand: Time, "time_expand_s", live = false;
    /// Time spent inside the engine's join kernels (`join`, `left_join`
    /// and fused `filter ∘ join`). A subset of `time_materialize` when
    /// joins are reached from acceptance.
    time_join: Time, "time_join_s", live = true;
    /// Output rows produced by those join kernels (throughput =
    /// `join_rows / time_join`).
    join_rows: Count, "join_rows", live = true;
    /// Engine-cache entries dropped entirely by eviction sweeps.
    cache_evictions: Count, "cache_evictions", live = true;
    /// Engine-cache entries demoted (derived id and star channels freed,
    /// values and step record kept).
    cache_demotions: Count, "cache_demotions", live = true;
    /// Engine-cache re-evaluations: inserts that recomputed a previously
    /// evicted query (the churn a larger cap or low-water mark reduces).
    cache_reevals: Count, "cache_reevals", live = true;
    /// Time spent on those re-evaluations (each node's operator step).
    cache_reeval_time: Time, "cache_reeval_s", live = true;
    /// Def. 3 verdicts this run served from the session-wide analysis
    /// cache instead of recomputing (set when the run ends).
    reused_verdicts: Count, "reused_verdicts", live = true;
    /// Approximate resident bytes attributable to the run: the shared
    /// pool and analysis-cache footprint plus the engine cache's (its
    /// entries' values, selection vectors and derived ids and stars, and
    /// its side memos). Live, it is a gauge the search overwrites; entry
    /// channels derived since the last sweep are charged when the run
    /// ends.
    mem_bytes: Bytes, "mem_bytes", live = true;
}

/// The live state of one search, written by the search thread: the
/// declared counters and the solution count.
#[derive(Debug, Default)]
pub(crate) struct SharedStats {
    /// One atomic per declared counter; the search publishes the live rows
    /// (and stores the `mem_bytes` gauge).
    pub(crate) live: LiveCounters,
    /// Solutions found so far.
    pub(crate) solutions: AtomicUsize,
}

/// Live counters of a running (or finished) search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ProgressSnapshot {
    /// Solutions found so far.
    pub solutions: usize,
    /// The counters so far: the live rows (see [`Counter::live`]), with
    /// `elapsed` measured from submission. The other rows
    /// read 0 until the final result.
    pub stats: SearchStats,
}

impl ProgressSnapshot {
    pub(crate) fn read(shared: &SharedStats, started: Instant) -> ProgressSnapshot {
        let mut stats = shared.live.load();
        stats.elapsed = started.elapsed();
        ProgressSnapshot {
            solutions: shared.solutions.load(Ordering::Relaxed),
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_every_row() {
        let mut m = SearchStats {
            visited: 3,
            time_join: Duration::from_millis(5),
            mem_bytes: 100,
            timed_out: true,
            ..SearchStats::default()
        };
        m.merge(&SearchStats {
            visited: 4,
            time_join: Duration::from_millis(2),
            mem_bytes: 70,
            ..SearchStats::default()
        });
        assert_eq!(m.visited, 7);
        assert_eq!(m.time_join, Duration::from_millis(7));
        assert_eq!(m.mem_bytes, 170);
        assert!(m.timed_out);
    }

    #[test]
    fn live_counters_publish_only_live_rows() {
        let live = LiveCounters::default();
        live.add(&SearchStats {
            visited: 2,
            expanded: 9,
            time_join: Duration::from_nanos(1_500),
            ..SearchStats::default()
        });
        let seen = live.load();
        assert_eq!(seen.visited, 2);
        assert_eq!(seen.expanded, 0);
        assert_eq!(seen.time_join, Duration::from_nanos(1_500));
    }
}
