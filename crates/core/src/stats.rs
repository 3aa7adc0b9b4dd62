//! The search counters, declared once.
//!
//! Every counter a synthesis run reports is one row of the `counters!`
//! table below: its Rust field, its wire/JSON key, its unit, how parallel
//! workers merge it, whether it is live (published through the shared
//! atomics while the search runs) and its doc line. The table generates
//! [`SearchStats`] with its [`SearchStats::merge`], the shared atomics
//! behind [`ProgressSnapshot`], and the name/value visitor
//! ([`SearchStats::visit`]) plus its inverse ([`SearchStats::from_fields`])
//! that the wire codec, the bench record and the shard reader render and
//! parse through. Adding a counter is adding a row.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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

fn sum<T: std::ops::Add<Output = T>>(a: T, b: T) -> T {
    a + b
}

fn max<T: Ord>(a: T, b: T) -> T {
    std::cmp::max(a, b)
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
        $field:ident: $unit:ident, $key:literal, $merge:ident, live = $live:literal;
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
            /// Folds another worker's counters into these, each by its
            /// declared rule (sum, or max for gauges shared by the
            /// workers). `timed_out` is left to the caller: whether a
            /// worker's stop was a timeout depends on why it stopped.
            pub fn merge(&mut self, other: &SearchStats) {
                $( self.$field = $merge(self.$field, other.$field); )+
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

        /// One atomic per counter, shared by the workers of a search. Only
        /// the live rows are published.
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
    visited: Count, "visited", sum, live = true;
    /// Partial queries pruned by the analyzer.
    pruned: Count, "pruned", sum, live = true;
    /// Concrete queries checked against Def. 1.
    concrete_checked: Count, "concrete_checked", sum, live = true;
    /// Children generated by hole expansion.
    expanded: Count, "expanded", sum, live = false;
    /// Wall-clock time spent (live: time since the request was submitted).
    elapsed: Time, "wall_s", max, live = true;
    /// Time spent in the analyzer (pruning checks).
    time_analyze: Time, "time_analyze_s", sum, live = false;
    /// Time spent checking concrete queries against Def. 1 — the sum of
    /// the three acceptance stages below.
    time_concrete: Time, "time_eval_s", sum, live = false;
    /// Acceptance stage 1: evaluating the candidate (values channel, the
    /// demo-dims fast reject, then the provenance star channel).
    time_materialize: Time, "time_materialize_s", sum, live = true;
    /// Acceptance stage 2: the reference-containment prefilter (Def. 3 on
    /// exact provenance) over lazily-converted cell sets.
    time_prefilter: Time, "time_prefilter_s", sum, live = true;
    /// Acceptance stage 3: the candidate-seeded Def. 1 expression match.
    time_match: Time, "time_match_s", sum, live = true;
    /// Time spent expanding holes (domain inference + tree building).
    time_expand: Time, "time_expand_s", sum, live = false;
    /// Time spent inside the engine's join kernels (`join`, `left_join`
    /// and fused `filter ∘ join`). A subset of `time_materialize` when
    /// joins are reached from acceptance.
    time_join: Time, "time_join_s", sum, live = true;
    /// Output rows produced by those join kernels (throughput =
    /// `join_rows / time_join`).
    join_rows: Count, "join_rows", sum, live = true;
    /// Engine-cache entries dropped entirely by eviction sweeps.
    cache_evictions: Count, "cache_evictions", sum, live = true;
    /// Engine-cache entries demoted (star-channel spill: derived ref-set
    /// channels freed, value and star columns kept).
    cache_demotions: Count, "cache_demotions", sum, live = true;
    /// Engine-cache re-evaluations: inserts that recomputed a previously
    /// evicted query (the churn the cost-aware policy minimizes).
    cache_reevals: Count, "cache_reevals", sum, live = true;
    /// Time spent on those re-evaluations (each node's operator step).
    cache_reeval_time: Time, "cache_reeval_s", sum, live = true;
    /// Def. 3 verdicts this run served from the session-wide analysis
    /// cache instead of recomputing (set when the run ends).
    reused_verdicts: Count, "reused_verdicts", sum, live = true;
    /// Approximate resident bytes attributable to the run: the shared
    /// pool and analysis-cache footprint plus the live engine-cache bytes
    /// (charged − released). Workers share the pool, so the merge takes
    /// the max.
    mem_bytes: Bytes, "mem_bytes", max, live = true;
}

/// The live state shared by the workers of one search: the declared
/// counters plus the memory gauges `mem_bytes` is read from, the pooled
/// solution count and the "pool satisfied" flag.
#[derive(Debug, Default)]
pub(crate) struct SharedStats {
    /// One atomic per declared counter; the search publishes the live rows.
    pub(crate) live: LiveCounters,
    /// Solutions found so far, across workers.
    pub(crate) solutions: AtomicUsize,
    /// Engine-cache bytes charged across workers, cumulative (published
    /// as unsigned deltas, like the other cache counters).
    pub(crate) mem_charged: AtomicU64,
    /// Engine-cache bytes released across workers, cumulative. Never
    /// exceeds `mem_charged`.
    pub(crate) mem_released: AtomicU64,
    /// Latest shared-footprint observation (set pool + analysis cache),
    /// `fetch_max`-maintained: the structures are shared, so the
    /// high-water mark is the aggregate, not a sum.
    pub(crate) mem_pool_bytes: AtomicU64,
    /// Set when the pooled solution count satisfied the target (or a
    /// worker's stop predicate fired): peers stop without reporting a
    /// timeout. Distinct from `SynthConfig::cancel`, the caller's abort
    /// switch, which is reported as a timeout.
    pub(crate) satisfied: AtomicBool,
}

/// Live counters of a running (or finished) search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ProgressSnapshot {
    /// Solutions found so far.
    pub solutions: usize,
    /// The counters so far: the live rows (see [`Counter::live`]) across
    /// workers, with `elapsed` measured from submission. The other rows
    /// read 0 until the final result.
    pub stats: SearchStats,
}

impl ProgressSnapshot {
    pub(crate) fn read(shared: &SharedStats, started: Instant) -> ProgressSnapshot {
        let mut stats = shared.live.load();
        stats.elapsed = started.elapsed();
        let cache_live = shared
            .mem_charged
            .load(Ordering::Relaxed)
            .saturating_sub(shared.mem_released.load(Ordering::Relaxed));
        let pooled = shared.mem_pool_bytes.load(Ordering::Relaxed);
        stats.mem_bytes = usize::from_raw(pooled.saturating_add(cache_live));
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
    fn merge_sums_counts_and_maxes_gauges() {
        let mut m = SearchStats {
            visited: 3,
            elapsed: Duration::from_millis(5),
            mem_bytes: 100,
            ..SearchStats::default()
        };
        m.merge(&SearchStats {
            visited: 4,
            elapsed: Duration::from_millis(2),
            mem_bytes: 70,
            ..SearchStats::default()
        });
        assert_eq!(m.visited, 7);
        assert_eq!(m.elapsed, Duration::from_millis(5));
        assert_eq!(m.mem_bytes, 100);
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
