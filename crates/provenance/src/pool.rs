//! Hash-consed pooling of [`RefSet`]s.
//!
//! The abstract analysis builds the same reference sets over and over:
//! every sibling expansion of a skeleton re-unions the same columns.
//! [`RefSetPool`] interns each distinct set once and hands out stable
//! [`SetId`]s, so
//!
//! * abstract tables become grids of 4-byte ids — broadcasting a row over
//!   `n` output rows copies ids instead of cloning bitsets;
//! * two sets built by different operator paths but equal in content get
//!   the *same* id, which is what makes the [`crate::AnalysisCache`]
//!   verdict keys canonical.
//!
//! The pool holds two structures and no operation memo: the append-only
//! id → set store behind one read-write lock, and the content → id
//! intern maps, sharded behind short-lived locks so the concurrent
//! requests on a pooled session do not contend on one mutex. Unions
//! resolve their operands from the store and fold their words directly;
//! subset tests run on the resolved sets ([`RefSetPool::get`]). The pool is universe-agnostic: canonical word storage
//! (see [`RefSet`]) makes content equality independent of `n_bits`, and
//! the empty set is [`SetId::EMPTY`] in every pool.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock, RwLockReadGuard};

use crate::expr::CellRef;
use crate::ref_set::{RefSet, RefUniverse};

/// A fast non-cryptographic hasher (the FxHash recipe) for the internal
/// maps of the pool, the analysis cache and the engine caches. Keys are
/// interned ids, set words and query trees — machine-generated, not
/// attacker-controlled — so the SipHash DoS hardening of the default
/// hasher is pure overhead on the hot path.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuild = BuildHasherDefault<FxHasher>;

/// A `HashMap` over the fast hasher.
pub type FxMap<K, V> = HashMap<K, V, FxBuild>;

/// Identity of a [`RefSet`] interned in a [`RefSetPool`].
///
/// Ids are dense indices: equal ids (from the same pool) mean equal sets,
/// and distinct ids mean distinct sets — the foundation of every cache
/// key built on top.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SetId(u32);

impl SetId {
    /// The id of the empty set, in every pool.
    pub const EMPTY: SetId = SetId(0);

    /// Raw index, for diagnostics and external cache keys.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// Number of intern-map lock shards (must be a power of two).
const SHARDS: usize = 16;

/// Approximate bytes of one interned entry beyond the set's own heap
/// words: the store slot, the intern-map key copy and a hash bucket.
const INTERN_ENTRY_BYTES: usize = 2 * std::mem::size_of::<RefSet>() + 16;

/// A thread-safe hash-consing pool of [`RefSet`]s. See the module docs.
pub struct RefSetPool {
    /// Append-only id → set store. Reads (every op) vastly outnumber
    /// appends (first sighting of a distinct set), so a read-write lock
    /// keeps the hot path shared.
    sets: RwLock<Vec<RefSet>>,
    /// Content → id interning maps, sharded by content hash.
    intern: Vec<Mutex<FxMap<RefSet, SetId>>>,
    /// Approximate bytes held by the interned sets, charged once per
    /// distinct set; monotone.
    bytes: AtomicUsize,
    hasher: FxBuild,
}

impl RefSetPool {
    /// Creates a pool containing only the empty set ([`SetId::EMPTY`]).
    pub fn new() -> RefSetPool {
        let pool = RefSetPool {
            sets: RwLock::new(Vec::new()),
            intern: (0..SHARDS).map(|_| Mutex::new(FxMap::default())).collect(),
            bytes: AtomicUsize::new(0),
            hasher: FxBuild::default(),
        };
        let empty = pool.intern(RefSet::empty());
        debug_assert_eq!(empty, SetId::EMPTY);
        pool
    }

    /// Interns a set, returning its canonical id.
    pub fn intern(&self, set: RefSet) -> SetId {
        let shard = (self.hasher.hash_one(&set) as usize) & (SHARDS - 1);
        let mut map = self.intern[shard].lock().expect("pool intern lock");
        if let Some(&id) = map.get(&set) {
            return id;
        }
        let mut sets = self.sets.write().expect("pool store lock");
        let id = SetId(u32::try_from(sets.len()).expect("RefSetPool overflow"));
        sets.push(set.clone());
        drop(sets);
        // The store clone aliases the map key's heap words (Arc bump), so
        // the shared buffer is charged once per distinct set.
        self.bytes
            .fetch_add(INTERN_ENTRY_BYTES + set.heap_bytes(), Ordering::Relaxed);
        map.insert(set, id);
        id
    }

    /// Interns the set of references of one universe slice.
    pub fn intern_refs<I: IntoIterator<Item = CellRef>>(
        &self,
        universe: &RefUniverse,
        refs: I,
    ) -> SetId {
        self.intern(universe.set_from(refs))
    }

    /// The set behind an id (a cheap clone: inline copy or `Arc` bump).
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this pool.
    pub fn get(&self, id: SetId) -> RefSet {
        self.sets.read().expect("pool store lock")[id.0 as usize].clone()
    }

    /// Read guard over the raw id → set store, for crate-internal hot
    /// loops that resolve many ids with zero clones. The guard blocks
    /// interning — callers must not re-enter the pool while holding it.
    pub(crate) fn store(&self) -> RwLockReadGuard<'_, Vec<RefSet>> {
        self.sets.read().expect("pool store lock")
    }

    /// True when `id` is the empty set — an id comparison, no lookup.
    #[inline]
    pub fn is_empty_set(&self, id: SetId) -> bool {
        id == SetId::EMPTY
    }

    /// Number of references in the set behind `id`.
    pub fn set_len(&self, id: SetId) -> usize {
        self.get(id).len()
    }

    /// Number of distinct sets interned (diagnostics).
    pub fn size(&self) -> usize {
        self.sets.read().expect("pool store lock").len()
    }

    /// Approximate bytes held by the pool: interned sets (struct slots,
    /// map keys, shared word buffers). Cheap (one relaxed load) — safe to
    /// poll from admission control on every request.
    pub fn approx_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Unions a slice of ids: one store-lock acquisition, a direct word
    /// fold, and a single intern of the result — bulk unions (column
    /// unions of the abstract broadcasts) are the common shape.
    pub fn union_slice(&self, ids: &[SetId]) -> SetId {
        self.union_of(ids.iter().copied())
    }

    /// Unions `ids[r]` over the given row indices (the per-group union of
    /// one column, without materializing the gathered ids).
    ///
    /// # Panics
    ///
    /// Panics if any row index is out of bounds for `ids`.
    pub fn union_rows(&self, ids: &[SetId], rows: &[usize]) -> SetId {
        self.union_of(rows.iter().map(|&r| ids[r]))
    }

    /// The running unions of `ids[r]` over `rows`, in order: element `k`
    /// unions the first `k + 1` rows (the window prefixes of `cumsum`).
    /// One store-lock acquisition per row, and one intern per growth.
    ///
    /// # Panics
    ///
    /// Panics if any row index is out of bounds for `ids`.
    pub fn prefix_unions(&self, ids: &[SetId], rows: &[usize]) -> Vec<SetId> {
        let mut acc = SetId::EMPTY;
        rows.iter()
            .map(|&r| {
                acc = self.union_of([acc, ids[r]]);
                acc
            })
            .collect()
    }

    /// The union of `ids`. The union of at most one distinct non-empty
    /// set is that set's own id, found without hashing or interning.
    fn union_of(&self, ids: impl IntoIterator<Item = SetId>) -> SetId {
        let mut first = SetId::EMPTY;
        let mut acc: Option<RefSet> = None;
        {
            let sets = self.sets.read().expect("pool store lock");
            for id in ids {
                if id == SetId::EMPTY || id == first {
                    continue;
                }
                if first == SetId::EMPTY {
                    first = id;
                    continue;
                }
                let s = &sets[id.0 as usize];
                match &mut acc {
                    None => {
                        let mut a = sets[first.0 as usize].clone();
                        a.union_with(s);
                        acc = Some(a);
                    }
                    Some(a) => a.union_with(s),
                }
            }
        }
        match acc {
            None => first,
            Some(a) => self.intern(a),
        }
    }
}

impl Default for RefSetPool {
    fn default() -> RefSetPool {
        RefSetPool::new()
    }
}

impl fmt::Debug for RefSetPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RefSetPool")
            .field("sets", &self.size())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sickle_table::Table;

    fn universe() -> RefUniverse {
        let t = Table::new(
            ["a", "b", "c"],
            (0..4)
                .map(|i| (0..3).map(|j| (i * 3 + j).into()).collect())
                .collect(),
        )
        .unwrap();
        RefUniverse::from_tables(&[t])
    }

    #[test]
    fn interning_is_canonical() {
        let u = universe();
        let pool = RefSetPool::new();
        let a = pool.intern_refs(&u, [CellRef::new(0, 0, 0), CellRef::new(0, 1, 1)]);
        let b = pool.intern_refs(&u, [CellRef::new(0, 1, 1), CellRef::new(0, 0, 0)]);
        assert_eq!(a, b);
        assert_ne!(a, SetId::EMPTY);
        assert_eq!(pool.intern(u.empty_set()), SetId::EMPTY);
        assert_eq!(pool.size(), 2);
    }

    #[test]
    fn union_and_subset_agree_with_sets() {
        let u = universe();
        let pool = RefSetPool::new();
        let a = pool.intern_refs(&u, [CellRef::new(0, 0, 0)]);
        let b = pool.intern_refs(&u, [CellRef::new(0, 1, 1), CellRef::new(0, 2, 2)]);
        let ab = pool.union_slice(&[a, b]);
        assert_eq!(pool.set_len(ab), 3);
        assert!(pool.get(a).is_subset_of(&pool.get(ab)));
        assert!(pool.get(b).is_subset_of(&pool.get(ab)));
        assert!(!pool.get(ab).is_subset_of(&pool.get(a)));
        // Either operand order returns the identical id.
        assert_eq!(pool.union_slice(&[b, a]), ab);
    }

    #[test]
    fn prefix_unions_grow_row_by_row() {
        let u = universe();
        let pool = RefSetPool::new();
        let r = |i: usize| pool.intern_refs(&u, [CellRef::new(0, i, 0)]);
        let col = vec![r(0), SetId::EMPTY, r(1), r(0)];
        let prefixes = pool.prefix_unions(&col, &[3, 1, 2, 0]);
        assert_eq!(prefixes[0], r(0));
        assert_eq!(prefixes[1], r(0), "an empty row adds nothing");
        assert_eq!(prefixes[2], pool.union_slice(&[r(0), r(1)]));
        assert_eq!(prefixes[3], prefixes[2], "a repeated set adds nothing");
        assert_eq!(pool.union_rows(&col, &[0, 3]), r(0));
        assert!(pool.prefix_unions(&col, &[]).is_empty());
    }

    #[test]
    fn empty_id_fast_paths() {
        let u = universe();
        let pool = RefSetPool::new();
        let a = pool.intern_refs(&u, [CellRef::new(0, 0, 0)]);
        assert!(pool.is_empty_set(SetId::EMPTY));
        assert!(!pool.is_empty_set(a));
        assert!(pool.get(SetId::EMPTY).is_subset_of(&pool.get(a)));
        assert!(!pool.get(a).is_subset_of(&pool.get(SetId::EMPTY)));
        assert_eq!(pool.union_slice(&[SetId::EMPTY, a]), a);
        assert_eq!(pool.union_slice(&[a, SetId::EMPTY]), a);
        assert_eq!(pool.union_slice(&[]), SetId::EMPTY);
    }

    #[test]
    fn byte_accounting_tracks_interning_and_memos() {
        let u = universe();
        let pool = RefSetPool::new();
        let after_empty = pool.approx_bytes();
        assert!(after_empty > 0, "the empty set is itself accounted");
        let a = pool.intern_refs(&u, [CellRef::new(0, 0, 0)]);
        let grown = pool.approx_bytes();
        assert!(grown > after_empty, "interning must charge bytes");
        // Re-interning identical content charges nothing.
        let _ = pool.intern_refs(&u, [CellRef::new(0, 0, 0)]);
        assert_eq!(pool.approx_bytes(), grown);
        // A union interns its result: bytes never decrease.
        let b = pool.intern_refs(&u, [CellRef::new(0, 1, 1)]);
        let _ = pool.union_slice(&[a, b]);
        assert!(pool.approx_bytes() >= grown);
    }

    #[test]
    fn pool_is_shareable_across_threads() {
        let u = universe();
        let pool = std::sync::Arc::new(RefSetPool::new());
        let ids: Vec<SetId> = std::thread::scope(|scope| {
            (0..4usize)
                .map(|t| {
                    let pool = std::sync::Arc::clone(&pool);
                    let u = &u;
                    scope.spawn(move || {
                        pool.intern_refs(u, [CellRef::new(0, t % 4, 0), CellRef::new(0, 0, 1)])
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        // Threads 0 and 4k see the same content → same id.
        assert_eq!(
            ids[0],
            pool.intern_refs(&u, [CellRef::new(0, 0, 0), CellRef::new(0, 0, 1)])
        );
        assert!(pool.size() <= 1 + 4);
    }
}
