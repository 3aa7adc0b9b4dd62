//! A bounded pool of warm [`Session`]s, one per demonstration family.
//!
//! A single warm [`Session`] is the right unit of cache sharing for one
//! *demonstration family* — repeat requests over the same demo reuse its
//! interned reference sets and memoized Def. 3 verdicts. A server facing
//! many unrelated clients, however, must not let warm state grow without
//! bound: every session's [`sickle_provenance::RefSetPool`] grows
//! monotonically with the distinct sets it interns. [`SessionPool`] keeps
//! at most [`SessionPoolConfig::max_sessions`] warm sessions, keyed by a
//! demonstration-family fingerprint, and evicts least-recently-used
//! sessions whenever the session count or the *global* interned-set total
//! ([`SessionPoolConfig::max_total_sets`], the pool-wide cache-memory
//! bound) is exceeded. An evicted session is only dropped from the pool's
//! index — requests still holding its `Arc` finish normally; the memory
//! is reclaimed when the last holder is done.
//!
//! Sharing one session across *different* demo families is always sound
//! (the session keys its analysis caches per demonstration internally),
//! so the fingerprint granularity is a locality/memory decision, not a
//! correctness one: it groups requests that can actually reuse each
//! other's verdicts, and lets eviction discard exactly the families that
//! have gone cold.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

use crate::session::Session;
use crate::synth::SynthTask;

/// Bounds of a [`SessionPool`].
///
/// Marked `#[non_exhaustive]`: construct via
/// [`SessionPoolConfig::default`] plus the `with_*` builders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct SessionPoolConfig {
    /// Maximum number of warm sessions kept at once (≥ 1).
    pub max_sessions: usize,
    /// Global bound on the sum of interned reference sets across all
    /// pooled sessions — the pool-wide cache-memory proxy. When the total
    /// exceeds this, LRU sessions are evicted (the most recently used
    /// session always survives, even if it alone exceeds the bound).
    pub max_total_sets: usize,
    /// Global bound on the approximate *bytes* held by pooled sessions
    /// ([`Session::mem_bytes`]: interned sets and analysis-cache
    /// verdicts). The byte-accurate counterpart of `max_total_sets`; the
    /// most recently used session always survives, even if it alone
    /// exceeds the bound.
    pub max_total_bytes: usize,
}

impl Default for SessionPoolConfig {
    fn default() -> SessionPoolConfig {
        SessionPoolConfig {
            max_sessions: 8,
            max_total_sets: 1_000_000,
            // Effectively unbounded by default; the server wires this to
            // --max-bytes / SICKLE_MAX_BYTES when a budget is configured.
            max_total_bytes: usize::MAX,
        }
    }
}

impl SessionPoolConfig {
    /// Sets the warm-session cap (clamped to ≥ 1).
    #[must_use]
    pub fn with_max_sessions(mut self, n: usize) -> SessionPoolConfig {
        self.max_sessions = n.max(1);
        self
    }

    /// Sets the global interned-set bound (clamped to ≥ 1).
    #[must_use]
    pub fn with_max_total_sets(mut self, n: usize) -> SessionPoolConfig {
        self.max_total_sets = n.max(1);
        self
    }

    /// Sets the global byte bound (clamped to ≥ 1).
    #[must_use]
    pub fn with_max_total_bytes(mut self, n: usize) -> SessionPoolConfig {
        self.max_total_bytes = n.max(1);
        self
    }
}

/// A stable fingerprint of a task's demonstration family.
///
/// Two tasks share a family exactly when their demonstrations have the
/// same reference structure over identically-shaped inputs — the
/// granularity at which a warm [`Session`] actually shares Def. 3
/// verdict memos (verdicts key by the demo's interned ref-structure
/// grid; formulas and cell values don't enter the abstract check).
pub fn demo_fingerprint(task: &SynthTask) -> u64 {
    let mut h = DefaultHasher::new();
    for t in &task.inputs {
        (t.n_rows(), t.n_cols()).hash(&mut h);
    }
    let demo = &task.demo;
    (demo.n_rows(), demo.n_cols()).hash(&mut h);
    for i in 0..demo.n_rows() {
        for j in 0..demo.n_cols() {
            let refs = demo.cell(i, j).refs();
            refs.len().hash(&mut h);
            for r in refs {
                (r.table, r.row, r.col).hash(&mut h);
            }
        }
    }
    h.finish()
}

struct PoolEntry {
    key: u64,
    session: Arc<Session>,
    last_used: u64,
}

#[derive(Default)]
struct PoolInner {
    entries: Vec<PoolEntry>,
    tick: u64,
    evictions: usize,
}

/// A bounded, LRU-evicted pool of warm [`Session`]s keyed by
/// demonstration family. Cheap to share (`&self` methods, internally
/// synchronized); the server keeps one behind an `Arc` for all
/// connections.
pub struct SessionPool {
    config: SessionPoolConfig,
    inner: Mutex<PoolInner>,
}

impl std::fmt::Debug for SessionPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionPool")
            .field("config", &self.config)
            .field("len", &self.len())
            .finish()
    }
}

impl Default for SessionPool {
    fn default() -> SessionPool {
        SessionPool::new(SessionPoolConfig::default())
    }
}

impl SessionPool {
    /// An empty pool with the given bounds.
    pub fn new(config: SessionPoolConfig) -> SessionPool {
        SessionPool {
            config,
            inner: Mutex::new(PoolInner::default()),
        }
    }

    /// The pool's bounds.
    pub fn config(&self) -> SessionPoolConfig {
        self.config
    }

    /// The warm session for `key` (see [`demo_fingerprint`]), created on
    /// first use. Touches the LRU order and then enforces both bounds,
    /// evicting least-recently-used sessions — never the one just
    /// returned.
    pub fn session_for(&self, key: u64) -> Arc<Session> {
        let mut inner = self.inner.lock().expect("session pool lock");
        inner.tick += 1;
        let tick = inner.tick;
        let session = match inner.entries.iter_mut().find(|e| e.key == key) {
            Some(entry) => {
                entry.last_used = tick;
                Arc::clone(&entry.session)
            }
            None => {
                let session = Arc::new(Session::new());
                inner.entries.push(PoolEntry {
                    key,
                    session: Arc::clone(&session),
                    last_used: tick,
                });
                session
            }
        };
        // Enforce the session-count and global set-memory bounds. The
        // just-touched entry (last_used == tick) is exempt, so the pool
        // always serves at least one warm session.
        loop {
            let over_count = inner.entries.len() > self.config.max_sessions;
            let over_sets = inner
                .entries
                .iter()
                .map(|e| e.session.pool().size())
                .sum::<usize>()
                > self.config.max_total_sets;
            let over_bytes = inner
                .entries
                .iter()
                .map(|e| e.session.mem_bytes())
                .sum::<usize>()
                > self.config.max_total_bytes;
            if !over_count && !over_sets && !over_bytes {
                break;
            }
            let Some(victim) = inner
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.last_used != tick)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
            else {
                break;
            };
            inner.entries.swap_remove(victim);
            inner.evictions += 1;
        }
        session
    }

    /// Convenience: [`SessionPool::session_for`] keyed by the task's
    /// [`demo_fingerprint`].
    pub fn session_for_task(&self, task: &SynthTask) -> Arc<Session> {
        self.session_for(demo_fingerprint(task))
    }

    /// Touches `key`'s LRU slot without creating a session; returns
    /// whether a warm session is pooled under the key.
    ///
    /// This is the edit-chain guard: an edit runs on the session that
    /// served the request it names, because that session's analysis
    /// cache already holds the verdicts the edit can reuse. The server
    /// calls `touch` the moment a request *names* a prior (at `"prior"`
    /// id resolution, before admission or any other pool traffic for the
    /// request), so a session that is actively being edited is never the
    /// LRU victim between two requests of one chain just because other
    /// demos churned the pool in the gap. A miss is harmless: the edit
    /// then runs on a fresh session and answers the same, only colder.
    pub fn touch(&self, key: u64) -> bool {
        let mut inner = self.inner.lock().expect("session pool lock");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.iter_mut().find(|e| e.key == key) {
            Some(entry) => {
                entry.last_used = tick;
                true
            }
            None => false,
        }
    }

    /// Number of warm sessions currently pooled.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("session pool lock").entries.len()
    }

    /// True when no session is pooled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sessions evicted so far (count-bound plus set-bound evictions).
    pub fn evictions(&self) -> usize {
        self.inner.lock().expect("session pool lock").evictions
    }

    /// Current sum of interned reference sets across pooled sessions (the
    /// quantity bounded by [`SessionPoolConfig::max_total_sets`]).
    pub fn total_sets(&self) -> usize {
        self.inner
            .lock()
            .expect("session pool lock")
            .entries
            .iter()
            .map(|e| e.session.pool().size())
            .sum()
    }

    /// Current approximate bytes held by pooled sessions (the quantity
    /// bounded by [`SessionPoolConfig::max_total_bytes`] and watched by
    /// the server's pressure ladder). Relaxed atomic reads per session —
    /// cheap enough to poll per request.
    pub fn total_bytes(&self) -> usize {
        self.inner
            .lock()
            .expect("session pool lock")
            .entries
            .iter()
            .map(|e| e.session.mem_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{Budget, SynthRequest};
    use sickle_provenance::Demo;
    use sickle_table::Table;

    fn task(rows: &[(&str, i64)]) -> SynthTask {
        let t = Table::new(
            ["City", "Enrolled"],
            rows.iter()
                .map(|(c, n)| vec![(*c).into(), (*n).into()])
                .collect(),
        )
        .unwrap();
        let demo = Demo::parse(&[
            &["T[1,1]", "sum(T[1,2], T[2,2])"],
            &["T[3,1]", "sum(T[3,2])"],
        ])
        .unwrap();
        SynthTask::new(vec![t], demo)
    }

    #[test]
    fn fingerprint_groups_by_reference_structure() {
        let a = task(&[("A", 10), ("A", 20), ("B", 5)]);
        // Same shape, different values: same family (Def. 3 memos key by
        // reference structure, not cell values).
        let b = task(&[("X", 1), ("X", 2), ("Y", 3)]);
        assert_eq!(demo_fingerprint(&a), demo_fingerprint(&b));

        // Different demo references: different family.
        let t = a.inputs[0].clone();
        let other_demo =
            Demo::parse(&[&["T[1,1]", "sum(T[1,2])"], &["T[3,1]", "sum(T[3,2])"]]).unwrap();
        let c = SynthTask::new(vec![t.clone()], other_demo);
        assert_ne!(demo_fingerprint(&a), demo_fingerprint(&c));

        // Different input shape: different family even with an identical
        // demonstration.
        let d = task(&[("A", 10), ("A", 20), ("B", 5), ("B", 6)]);
        assert_ne!(demo_fingerprint(&a), demo_fingerprint(&d));
    }

    #[test]
    fn pool_reuses_and_lru_evicts_by_count() {
        let pool = SessionPool::new(SessionPoolConfig::default().with_max_sessions(2));
        let a = pool.session_for(1);
        let a2 = pool.session_for(1);
        assert!(Arc::ptr_eq(&a, &a2), "same key returns the warm session");
        assert_eq!(pool.len(), 1);

        let _b = pool.session_for(2);
        assert_eq!(pool.len(), 2);
        // Touch key 1 so key 2 is the LRU victim.
        pool.session_for(1);
        pool.session_for(3);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.evictions(), 1);
        let a3 = pool.session_for(1);
        assert!(Arc::ptr_eq(&a, &a3), "recently-used session survived");
        // Key 2 was evicted: a fresh session comes back.
        let b2 = pool.session_for(2);
        assert_eq!(b2.served(), 0);
    }

    #[test]
    fn set_bound_evicts_cold_sessions_but_keeps_the_hot_one() {
        // Tiny global set budget: after two warm sessions have interned
        // real sets, the next touch must evict the cold one.
        let pool = SessionPool::new(
            SessionPoolConfig::default()
                .with_max_sessions(8)
                .with_max_total_sets(1),
        );
        let t = task(&[("A", 10), ("A", 20), ("B", 5)]);
        let request = SynthRequest::from_task(t.clone())
            .with_max_depth(1)
            .with_budget(Budget::default().with_max_solutions(1));
        let a = pool.session_for(1);
        a.solve(&request).unwrap();
        assert!(a.pool().size() > 1, "solve interned sets");
        // Touching a second key evicts key 1 (over the set bound, key 2
        // just used); the pool never evicts the hot session even though
        // the bound stays exceeded while it's warm.
        let b = pool.session_for(2);
        b.solve(&request).unwrap();
        pool.session_for(2);
        assert_eq!(pool.len(), 1);
        assert!(pool.evictions() >= 1);
        // The surviving session is key 2's (the hot one).
        let b2 = pool.session_for(2);
        assert!(Arc::ptr_eq(&b, &b2));
        // An evicted session still in use elsewhere keeps working.
        a.solve(&request).unwrap();
        assert_eq!(a.served(), 2);
    }

    #[test]
    fn byte_bound_evicts_cold_sessions_but_keeps_the_hot_one() {
        // A one-byte global budget: any warm session exceeds it, so every
        // touch of a *different* key must evict the cold session while
        // the just-touched one survives.
        let pool = SessionPool::new(
            SessionPoolConfig::default()
                .with_max_sessions(8)
                .with_max_total_bytes(1),
        );
        let t = task(&[("A", 10), ("A", 20), ("B", 5)]);
        let request = SynthRequest::from_task(t)
            .with_max_depth(1)
            .with_budget(Budget::default().with_max_solutions(1));
        let a = pool.session_for(1);
        a.solve(&request).unwrap();
        assert!(a.mem_bytes() > 0, "a served session reports bytes");
        assert!(pool.total_bytes() > 0);
        let b = pool.session_for(2);
        b.solve(&request).unwrap();
        pool.session_for(2);
        assert_eq!(pool.len(), 1, "byte bound must evict the cold session");
        assert!(pool.evictions() >= 1);
        let b2 = pool.session_for(2);
        assert!(Arc::ptr_eq(&b, &b2), "the hot session survives");
        // Total-bytes rollup is consistent with the per-session rollup.
        assert_eq!(pool.total_bytes(), b.mem_bytes());
    }

    #[test]
    fn touch_on_prior_lookup_shields_an_edit_chain_from_eviction() {
        let pool = SessionPool::new(SessionPoolConfig::default().with_max_sessions(2));
        // The edit chain's session (key 1) is created first, then other
        // demos churn the pool: without the prior-resolution touch, key 1
        // would be the LRU victim when the next distinct demo arrives.
        let chain = pool.session_for(1);
        let _other = pool.session_for(2);
        assert!(pool.touch(1), "warm chain session is pooled");
        // A third demo arrives between the chain's two requests: key 2
        // (now the coldest) is evicted, not the just-touched chain.
        pool.session_for(3);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.evictions(), 1);
        let chain2 = pool.session_for(1);
        assert!(
            Arc::ptr_eq(&chain, &chain2),
            "the edit-chain session survived the churn"
        );
        // Touching an unknown key reports the miss without creating a
        // session.
        assert!(!pool.touch(99));
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn concurrent_checkout_is_consistent() {
        let pool = Arc::new(SessionPool::new(
            SessionPoolConfig::default().with_max_sessions(4),
        ));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let s = pool.session_for(i % 4);
                        assert!(Arc::strong_count(&s) >= 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(pool.len() <= 4);
    }
}
