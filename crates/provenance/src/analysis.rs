//! Cross-sibling caching of abstract-consistency verdicts.
//!
//! During refinement, the many sibling expansions of one skeleton produce
//! abstract tables that repeat: structural operators propagate the child's
//! grid untouched, broadcasts reuse the same column unions, and distinct
//! parameter choices frequently collapse onto identical set contents. With
//! sets interned in a [`RefSetPool`], that repetition becomes *visible* —
//! equal content means equal [`SetId`]s — so analysis results can be
//! cached by id-grid instead of being recomputed per partial query.
//!
//! [`AnalysisCache`] holds one memo, the Def. 3 **verdict** per (demo,
//! abstract id-grid), shared across all partial queries that abstract to
//! the same table, and bounded per shard. Tables below 64 cells skip it
//! and are matched directly.
//!
//! One cache serves one *session*: demonstrations are registered up front
//! ([`AnalysisCache::register_demo`]) and each distinct demo id-grid gets
//! a collision-free [`DemoToken`] that becomes the demo-fingerprint
//! component of every verdict key, so verdicts for different
//! demonstrations never alias, while a repeated demonstration reuses
//! every verdict of its earlier solves.
//!
//! A cache is `Sync` and is shared by the concurrent requests on a pooled
//! session — the verdict map is sharded behind short-lived locks, so
//! there is no global mutex on the hot path.

use std::cell::Cell;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use sickle_table::Grid;

use crate::matching::{
    column_candidates, find_table_match_seeded, match_seed_rows, MatchDims, MatchSeed,
};
use crate::pool::{FxBuild, FxMap, RefSetPool, SetId};
use crate::ref_set::RefSet;

/// Number of verdict-map lock shards (power of two).
const SHARDS: usize = 16;

/// Bound per shard; full shards are cleared (entries are recomputable).
const SHARD_CAP: usize = 1 << 14;

/// Abstract tables below this cell count are matched directly — key
/// construction would cost more than the matcher itself.
const MEMO_MIN_CELLS: usize = 64;

/// Approximate fixed bytes of one memo entry beyond its id payload
/// (boxed-slice header, verdict, hash bucket).
const ENTRY_OVERHEAD_BYTES: usize = 32;

/// Approximate bytes of one entry whose key carries `n_ids` interned ids.
fn entry_bytes(n_ids: usize) -> usize {
    n_ids * std::mem::size_of::<SetId>() + ENTRY_OVERHEAD_BYTES
}

/// Key of the verdict memo: the demo fingerprint plus the abstract
/// table's interned contents. (`n_cols` is implied by
/// `ids.len() / n_rows`.)
#[derive(PartialEq, Eq)]
struct GridKey {
    /// Hash of the other three fields, computed once when the key is
    /// built: it picks the shard and is all the map hashes.
    hash: u64,
    /// Fingerprint of the demonstration the verdict was computed against.
    demo: u64,
    n_rows: u32,
    /// Column-major flattening of the id grid.
    ids: Box<[SetId]>,
}

impl GridKey {
    fn new(hasher: &FxBuild, demo: u64, abs: &Grid<SetId>) -> GridKey {
        let mut ids = Vec::with_capacity(abs.n_rows() * abs.n_cols());
        for c in 0..abs.n_cols() {
            ids.extend_from_slice(abs.column(c));
        }
        let n_rows = abs.n_rows() as u32;
        GridKey {
            hash: hasher.hash_one((demo, n_rows, ids.as_slice())),
            demo,
            n_rows,
            ids: ids.into_boxed_slice(),
        }
    }
}

impl Hash for GridKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Key of the demo registry: the demo id-grid as `n_rows` plus its
/// column-major ids.
type DemoKey = (u32, Box<[SetId]>);

/// Handle to a demonstration registered with an [`AnalysisCache`].
///
/// The token is the demo-fingerprint component of every Def. 3 verdict
/// key: within one cache, equal tokens mean *identical* demo id-grids
/// (tokens are assigned by lookup, not hashing, so they cannot collide).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DemoToken {
    demo: u64,
}

impl DemoToken {
    /// The collision-free fingerprint of the registered demo id-grid.
    pub fn id(&self) -> u64 {
        self.demo
    }
}

thread_local! {
    /// Verdict hits served on this thread, by any cache.
    static THREAD_HITS: Cell<usize> = const { Cell::new(0) };
}

/// Sharded cross-sibling memo of Def. 3 verdicts. See the module docs.
pub struct AnalysisCache {
    /// (demo fingerprint, abstract id-grid) → consistency verdict.
    verdicts: Vec<Mutex<FxMap<GridKey, bool>>>,
    /// Demo id-grid → its token; tokens are numbered in registration
    /// order.
    demos: Mutex<FxMap<DemoKey, DemoToken>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    /// Approximate bytes held by the verdict map, maintained at insert
    /// and shard-clear sites.
    bytes: AtomicUsize,
    hasher: FxBuild,
}

/// Hit/miss counters of an [`AnalysisCache`] (diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisCacheStats {
    /// Verdicts served from the cache.
    pub hits: usize,
    /// Verdicts computed (then cached).
    pub misses: usize,
}

impl AnalysisCache {
    /// Creates an empty cache.
    pub fn new() -> AnalysisCache {
        AnalysisCache {
            verdicts: (0..SHARDS).map(|_| Mutex::new(FxMap::default())).collect(),
            demos: Mutex::new(FxMap::default()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            bytes: AtomicUsize::new(0),
            hasher: FxBuild::default(),
        }
    }

    /// Approximate bytes held by the verdict map (keys, verdicts, hash
    /// buckets). One relaxed load — pollable per request.
    pub fn approx_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Hit/miss counters so far.
    pub fn stats(&self) -> AnalysisCacheStats {
        AnalysisCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Verdict hits served to the calling thread so far, by any cache.
    /// A search runs on one thread, so the difference across a run is
    /// that run's own reuse, whatever other requests share the cache.
    pub fn thread_hits() -> usize {
        THREAD_HITS.with(Cell::get)
    }

    /// Registers a demonstration id-grid and returns its token; the same
    /// grid registers to the same token, a different grid always gets a
    /// fresh one.
    pub fn register_demo(&self, demo: &Grid<SetId>) -> DemoToken {
        let key: DemoKey = (
            demo.n_rows() as u32,
            (0..demo.n_cols())
                .flat_map(|c| demo.column(c).iter().copied())
                .collect(),
        );
        let mut demos = self.demos.lock().expect("analysis registry lock");
        let next = demos.len() as u64;
        demos.entry(key).or_insert(DemoToken { demo: next }).clone()
    }

    /// The abstract provenance consistency check `E ◁ T◦` (Def. 3) over
    /// interned grids, with cross-sibling caching: does an injective
    /// subtable assignment exist under which every demonstration cell's
    /// references are contained in the abstract cell?
    ///
    /// Equivalent to running [`crate::find_table_match`] over
    /// [`RefSet::is_subset_of`] tests on the resolved cells; `token` must
    /// be the [`AnalysisCache::register_demo`] handle for `demo` — it keys
    /// the verdict memo so verdicts of different demonstrations never
    /// alias.
    pub fn consistent(
        &self,
        token: &DemoToken,
        demo: &Grid<SetId>,
        abs: &Grid<SetId>,
        pool: &RefSetPool,
    ) -> bool {
        let dims = MatchDims {
            demo_rows: demo.n_rows(),
            demo_cols: demo.n_cols(),
            table_rows: abs.n_rows(),
            table_cols: abs.n_cols(),
        };
        if dims.demo_rows > dims.table_rows || dims.demo_cols > dims.table_cols {
            return false;
        }
        if dims.demo_rows == 0 || dims.demo_cols == 0 {
            return true;
        }

        // For small abstract tables, running the matcher outright is
        // cheaper than building and probing grid-content keys: the memo
        // only engages where matching is genuinely expensive.
        if dims.table_rows * dims.table_cols < MEMO_MIN_CELLS {
            return check(dims, demo, abs, pool);
        }
        let key = GridKey::new(&self.hasher, token.demo, abs);
        let shard = (key.hash as usize) & (SHARDS - 1);
        if let Some(&v) = self.verdicts[shard]
            .lock()
            .expect("analysis verdict lock")
            .get(&key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            THREAD_HITS.with(|h| h.set(h.get() + 1));
            return v;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);

        let verdict = check(dims, demo, abs, pool);
        let mut map = self.verdicts[shard].lock().expect("analysis verdict lock");
        if map.len() >= SHARD_CAP {
            let freed: usize = map.keys().map(|k| entry_bytes(k.ids.len())).sum();
            self.bytes.fetch_sub(freed, Ordering::Relaxed);
            map.clear();
        }
        let added = entry_bytes(key.ids.len());
        if map.insert(key, verdict).is_none() {
            self.bytes.fetch_add(added, Ordering::Relaxed);
        }
        verdict
    }
}

impl Default for AnalysisCache {
    fn default() -> AnalysisCache {
        AnalysisCache::new()
    }
}

impl fmt::Debug for AnalysisCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        f.debug_struct("AnalysisCache")
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .finish_non_exhaustive()
    }
}

/// Def. 3 matching of `demo` against `abs`, uncached.
fn check(dims: MatchDims, demo: &Grid<SetId>, abs: &Grid<SetId>, pool: &RefSetPool) -> bool {
    // Resolve both grids into local buffers under one short-lived
    // store guard (clones are inline copies or `Arc` bumps); the
    // candidate loop and the backtracking matcher below then run
    // entirely lock-free. Holding the guard across the matcher
    // instead would park every other request's intern behind a
    // potentially long (worst-case exponential) read hold.
    let (demo_sets, abs_sets): (Vec<RefSet>, Vec<RefSet>) = {
        let store = pool.store();
        let resolve = |g: &Grid<SetId>| -> Vec<RefSet> {
            (0..g.n_cols())
                .flat_map(|c| {
                    g.column(c)
                        .iter()
                        .map(|id| store[id.raw() as usize].clone())
                })
                .collect()
        };
        (resolve(demo), resolve(abs))
    };
    // Column-major flattening: cell (i, j) lives at j * n_rows + i.
    let subset = |di: usize, dj: usize, ti: usize, tj: usize| {
        demo_sets[dj * dims.demo_rows + di].is_subset_of(&abs_sets[tj * dims.table_rows + ti])
    };
    let Some(col_candidates) = containment_columns(dims, &subset) else {
        return false;
    };
    let seed = MatchSeed {
        col_candidates,
        row_candidates: None,
    };
    find_table_match_seeded(dims, &seed, &mut |di, dj, ti, tj| subset(di, dj, ti, tj)).is_some()
}

/// The table columns that can host each demo column under the cell
/// containment test `subset(di, dj, ti, tj)` ([`column_candidates`]).
fn containment_columns(
    dims: MatchDims,
    subset: &impl Fn(usize, usize, usize, usize) -> bool,
) -> Option<Vec<Vec<usize>>> {
    column_candidates(dims, |dj, tj| {
        (0..dims.demo_rows).all(|di| (0..dims.table_rows).any(|ti| subset(di, dj, ti, tj)))
    })
}

/// The [`MatchSeed`] of reference containment between a demonstration
/// and an *exact* id grid (a concrete result's cell sets): the table
/// columns that can host each demo column and the candidate rows of each
/// demo row they induce. `None` when some demo column has no host (or
/// the demo does not fit). Seeds the Def. 1 match of a candidate that
/// passed [`AnalysisCache::consistent`] (see
/// [`crate::demo_consistent_with_candidates`]).
pub fn containment_seed(
    demo: &Grid<SetId>,
    table: &Grid<SetId>,
    pool: &RefSetPool,
) -> Option<MatchSeed> {
    let dims = MatchDims {
        demo_rows: demo.n_rows(),
        demo_cols: demo.n_cols(),
        table_rows: table.n_rows(),
        table_cols: table.n_cols(),
    };
    if dims.demo_rows > dims.table_rows || dims.demo_cols > dims.table_cols {
        return None;
    }
    // No matcher runs here (the work is polynomial), so the store guard
    // is held throughout instead of cloning the cells out.
    let store = pool.store();
    let subset = |di: usize, dj: usize, ti: usize, tj: usize| {
        let (d, t) = (demo[(di, dj)], table[(ti, tj)]);
        d == t || store[d.raw() as usize].is_subset_of(&store[t.raw() as usize])
    };
    let col_candidates = containment_columns(dims, &subset)?;
    let row_candidates = match_seed_rows(dims, &col_candidates, &mut |di, dj, ti, tj| {
        subset(di, dj, ti, tj)
    });
    Some(MatchSeed {
        col_candidates,
        row_candidates: Some(row_candidates),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CellRef;
    use crate::find_table_match;
    use crate::ref_set::RefUniverse;
    use sickle_table::Table;

    fn setup() -> (RefUniverse, RefSetPool) {
        let t = Table::new(
            ["a", "b", "c"],
            (0..4)
                .map(|i| (0..3).map(|j| (i * 3 + j).into()).collect())
                .collect(),
        )
        .unwrap();
        (RefUniverse::from_tables(&[t]), RefSetPool::new())
    }

    fn grid(pool: &RefSetPool, u: &RefUniverse, rows: &[&[&[CellRef]]]) -> Grid<SetId> {
        Grid::from_rows(
            rows.iter()
                .map(|r| {
                    r.iter()
                        .map(|refs| pool.intern_refs(u, refs.iter().copied()))
                        .collect()
                })
                .collect(),
        )
        .unwrap()
    }

    /// Verdicts equal the direct (uncached) Def. 3 matching, both below
    /// the memo size gate and through the memo, cold and on a hit.
    #[test]
    fn agrees_with_direct_matching() {
        let (u, pool) = setup();
        let cache = AnalysisCache::new();
        let r = |i: usize, j: usize| CellRef::new(0, i, j);
        let demo = grid(&pool, &u, &[&[&[r(0, 0)], &[r(0, 1), r(1, 1)]]]);
        let token = cache.register_demo(&demo);
        let yes = grid(
            &pool,
            &u,
            &[
                &[&[r(0, 0), r(1, 0)], &[r(0, 1), r(1, 1), r(2, 1)]],
                &[&[r(3, 0)], &[r(3, 1)]],
            ],
        );
        let no = grid(
            &pool,
            &u,
            &[&[&[r(0, 0)], &[r(2, 1)]], &[&[r(3, 0)], &[r(3, 1)]]],
        );
        // 16 × 4 = 64 cells ≥ MEMO_MIN_CELLS. In `big_yes` every cell
        // hosts both demo cells; in `big_no` only column 0 hosts either,
        // so the two demo columns cannot map to distinct columns.
        let big = |cell: &dyn Fn(usize, usize) -> Vec<CellRef>| -> Grid<SetId> {
            Grid::from_rows(
                (0..16)
                    .map(|i| (0..4).map(|j| pool.intern_refs(&u, cell(i, j))).collect())
                    .collect(),
            )
            .unwrap()
        };
        let big_yes = big(&|i, j| vec![r(i % 4, j % 3), r(0, 0), r(0, 1), r(1, 1)]);
        let big_no = big(&|i, j| match j {
            0 => vec![r(i % 4, 0), r(0, 0), r(0, 1), r(1, 1)],
            _ => vec![r(i % 4, 1 + j % 2)],
        });
        let mut verdicts = Vec::new();
        for abs in [&yes, &no, &big_yes, &big_no] {
            let direct = find_table_match(
                MatchDims {
                    demo_rows: demo.n_rows(),
                    demo_cols: demo.n_cols(),
                    table_rows: abs.n_rows(),
                    table_cols: abs.n_cols(),
                },
                &mut |di, dj, ti, tj| {
                    pool.get(demo[(di, dj)])
                        .is_subset_of(&pool.get(abs[(ti, tj)]))
                },
            )
            .is_some();
            assert_eq!(cache.consistent(&token, &demo, abs, &pool), direct);
            // Repeat query returns the same answer.
            assert_eq!(cache.consistent(&token, &demo, abs, &pool), direct);
            verdicts.push(direct);
        }
        assert_eq!(verdicts, [true, false, true, false]);
        // The small tables are matched directly; each large one misses
        // once, then hits.
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 2));
    }

    /// The containment seed lists exactly the hosting columns and rows.
    #[test]
    fn containment_seed_lists_hosting_columns_and_rows() {
        let (u, pool) = setup();
        let r = |i: usize, j: usize| CellRef::new(0, i, j);
        let demo = grid(&pool, &u, &[&[&[r(0, 0)], &[r(0, 1), r(1, 1)]]]);
        // Column 0 hosts demo column 0 in row 0 only, column 1 hosts demo
        // column 1 in both rows, column 2 hosts nothing.
        let table = grid(
            &pool,
            &u,
            &[
                &[&[r(0, 0)], &[r(0, 1), r(1, 1)], &[r(0, 2)]],
                &[&[r(1, 0)], &[r(0, 1), r(1, 1), r(2, 1)], &[r(1, 2)]],
            ],
        );
        let seed = containment_seed(&demo, &table, &pool).expect("both demo columns hosted");
        assert_eq!(seed.col_candidates, vec![vec![0], vec![1]]);
        assert_eq!(seed.row_candidates, Some(vec![vec![true, false]]));
        // No column hosts demo column 1 once column 1 loses r(1, 1).
        let short = grid(&pool, &u, &[&[&[r(0, 0)], &[r(0, 1)], &[r(0, 2)]]]);
        assert!(containment_seed(&demo, &short, &pool).is_none());
        // A table narrower than the demo has no seed.
        let narrow = grid(&pool, &u, &[&[&[r(0, 0), r(0, 1), r(1, 1)]]]);
        assert!(containment_seed(&demo, &narrow, &pool).is_none());
    }

    /// Tables at or above the size gate go through the verdict memo.
    #[test]
    fn large_tables_use_the_verdict_memo() {
        let (u, pool) = setup();
        let cache = AnalysisCache::new();
        let r = |i: usize, j: usize| CellRef::new(0, i, j);
        let demo = grid(&pool, &u, &[&[&[r(0, 0)]]]);
        let token = cache.register_demo(&demo);
        // 16 × 4 = 64 cells ≥ MEMO_MIN_CELLS; row 0 hosts the demo cell.
        let abs: Grid<SetId> = Grid::from_rows(
            (0..16)
                .map(|i| {
                    (0..4)
                        .map(|j| pool.intern_refs(&u, [r(i % 4, j % 3), r(0, 0)]))
                        .collect()
                })
                .collect(),
        )
        .unwrap();
        assert!(cache.consistent(&token, &demo, &abs, &pool));
        assert!(cache.consistent(&token, &demo, &abs, &pool));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn memoized_verdicts_are_byte_accounted() {
        let (u, pool) = setup();
        let cache = AnalysisCache::new();
        assert_eq!(cache.approx_bytes(), 0);
        let r = |i: usize, j: usize| CellRef::new(0, i, j);
        let demo = grid(&pool, &u, &[&[&[r(0, 0)]]]);
        let token = cache.register_demo(&demo);
        let abs: Grid<SetId> = Grid::from_rows(
            (0..16)
                .map(|i| {
                    (0..4)
                        .map(|j| pool.intern_refs(&u, [r(i % 4, j % 3), r(0, 0)]))
                        .collect()
                })
                .collect(),
        )
        .unwrap();
        assert!(cache.consistent(&token, &demo, &abs, &pool));
        let after_miss = cache.approx_bytes();
        assert!(after_miss > 0, "verdict memo must charge bytes");
        // A cache hit charges nothing further.
        assert!(cache.consistent(&token, &demo, &abs, &pool));
        assert_eq!(cache.approx_bytes(), after_miss);
    }

    #[test]
    fn oversized_demo_rejected_without_caching() {
        let (u, pool) = setup();
        let cache = AnalysisCache::new();
        let r = |i: usize, j: usize| CellRef::new(0, i, j);
        let demo = grid(&pool, &u, &[&[&[r(0, 0)]], &[&[r(1, 0)]]]);
        let token = cache.register_demo(&demo);
        let abs = grid(&pool, &u, &[&[&[r(0, 0), r(1, 0)]]]);
        assert!(!cache.consistent(&token, &demo, &abs, &pool));
        assert_eq!(cache.stats().misses, 0);
    }

    #[test]
    fn empty_demo_trivially_consistent() {
        let (_, pool) = setup();
        let cache = AnalysisCache::new();
        let demo: Grid<SetId> = Grid::empty(0);
        let token = cache.register_demo(&demo);
        let abs: Grid<SetId> = Grid::empty(2);
        assert!(cache.consistent(&token, &demo, &abs, &pool));
    }

    /// The verdict key hashes once but compares everything: one id
    /// flattening under two shapes, and one grid under two demos, each
    /// get their own verdict, equal to direct matching cold and on a hit.
    #[test]
    fn verdict_keys_tell_shapes_and_demos_apart() {
        let (u, pool) = setup();
        let cache = AnalysisCache::new();
        let r = |i: usize, j: usize| CellRef::new(0, i, j);
        // 64 column-major ids (≥ MEMO_MIN_CELLS): {r(0,0)} at 0,
        // {r(1,1)} at 4, a set hosting neither everywhere else. As 16 × 4
        // the two sit in one column on two rows; as 4 × 16, in one row
        // on two columns.
        let ids: Vec<SetId> = (0..64)
            .map(|f| match f {
                0 => pool.intern_refs(&u, [r(0, 0)]),
                4 => pool.intern_refs(&u, [r(1, 1)]),
                _ => pool.intern_refs(&u, [r(3, 2)]),
            })
            .collect();
        let shaped = |n_rows: usize| {
            Grid::from_columns(
                ids.chunks(n_rows)
                    .map(|c| std::sync::Arc::new(c.to_vec()))
                    .collect(),
            )
        };
        let (tall, wide) = (shaped(16), shaped(4));
        // One row of the two references, and one column of them.
        let across = grid(&pool, &u, &[&[&[r(0, 0)], &[r(1, 1)]]]);
        let down = grid(&pool, &u, &[&[&[r(0, 0)]], &[&[r(1, 1)]]]);
        let cases = [
            (&across, &tall, false),
            (&across, &wide, true),
            (&down, &tall, true),
            (&down, &wide, false),
        ];
        let tokens: Vec<DemoToken> = cases
            .iter()
            .map(|(demo, ..)| cache.register_demo(demo))
            .collect();
        assert_ne!(tokens[0], tokens[2]);
        for round in 0..2 {
            for ((demo, abs, want), token) in cases.iter().zip(&tokens) {
                let dims = MatchDims {
                    demo_rows: demo.n_rows(),
                    demo_cols: demo.n_cols(),
                    table_rows: abs.n_rows(),
                    table_cols: abs.n_cols(),
                };
                assert_eq!(check(dims, demo, abs, &pool), *want);
                assert_eq!(
                    cache.consistent(token, demo, abs, &pool),
                    *want,
                    "round {round}"
                );
            }
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (4, 4));
    }

    /// The fingerprint correctness gate: two demonstrations sharing one
    /// cache must never read each other's verdicts, even when the same
    /// abstract table is consistent with one and not the other.
    #[test]
    fn shared_cache_keeps_divergent_demos_apart() {
        let (u, pool) = setup();
        let cache = AnalysisCache::new();
        let r = |i: usize, j: usize| CellRef::new(0, i, j);
        // Every abstract cell below is {r(i%4, j%3), r(0,0)}: demo A's
        // single reference is hosted everywhere, while no cell contains
        // demo B's *pair* of references.
        let demo_a = grid(&pool, &u, &[&[&[r(0, 0)]]]);
        let demo_b = grid(&pool, &u, &[&[&[r(1, 0), r(2, 1)]]]);
        let tok_a = cache.register_demo(&demo_a);
        let tok_b = cache.register_demo(&demo_b);
        assert_ne!(tok_a.id(), tok_b.id());
        let abs: Grid<SetId> = Grid::from_rows(
            (0..16)
                .map(|i| {
                    (0..4)
                        .map(|j| pool.intern_refs(&u, [r(i % 4, j % 3), r(0, 0)]))
                        .collect()
                })
                .collect(),
        )
        .unwrap();
        // Warm the cache with A's verdict, then query B on the *same*
        // abstract grid: a naive shared key would replay A's `true`.
        assert!(cache.consistent(&tok_a, &demo_a, &abs, &pool));
        assert!(!cache.consistent(&tok_b, &demo_b, &abs, &pool));
        // And the reverse order on a fresh cache.
        let cache2 = AnalysisCache::new();
        let tok_a2 = cache2.register_demo(&demo_a);
        let tok_b2 = cache2.register_demo(&demo_b);
        assert!(!cache2.consistent(&tok_b2, &demo_b, &abs, &pool));
        assert!(cache2.consistent(&tok_a2, &demo_a, &abs, &pool));
    }
}
