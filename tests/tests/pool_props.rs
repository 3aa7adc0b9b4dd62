//! Property tests for the hash-consed [`RefSetPool`], driven by the
//! deterministic in-repo generator: on randomized universes (small inline
//! ones and >128-bit spilled ones), pool `union` / `subset` / `iter` /
//! interning must agree with a naive full-width `Vec<u64>` bitset model.

use sickle_benchmarks::rng::Rng;
use sickle_provenance::{CellRef, RefSet, RefSetPool, RefUniverse, SetId};
use sickle_table::{Grid, Table, Value};

/// The naive reference model: one full-width word vector per set.
#[derive(Clone, PartialEq, Eq, Debug)]
struct NaiveSet {
    words: Vec<u64>,
}

impl NaiveSet {
    fn empty(n_bits: usize) -> NaiveSet {
        NaiveSet {
            words: vec![0; n_bits.div_ceil(64)],
        }
    }

    fn insert(&mut self, bit: usize) {
        self.words[bit / 64] |= 1 << (bit % 64);
    }

    fn union(&self, other: &NaiveSet) -> NaiveSet {
        NaiveSet {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a | b)
                .collect(),
        }
    }

    fn is_subset_of(&self, other: &NaiveSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    fn bits(&self) -> Vec<usize> {
        (0..self.words.len() * 64)
            .filter(|&b| self.words[b / 64] & (1 << (b % 64)) != 0)
            .collect()
    }
}

/// A random universe of 1–3 tables; roughly half the seeds exceed 128
/// bits, exercising the spilled (shared) representation.
fn random_universe(rng: &mut Rng) -> (Vec<Table>, RefUniverse) {
    let n_tables = 1 + rng.gen_range(3);
    let tables: Vec<Table> = (0..n_tables)
        .map(|_| {
            let rows = 1 + rng.gen_range(12);
            let cols = 1 + rng.gen_range(6);
            Table::from_grid(
                Grid::from_rows(
                    (0..rows)
                        .map(|r| {
                            (0..cols)
                                .map(|c| Value::Int((r * cols + c) as i64))
                                .collect()
                        })
                        .collect(),
                )
                .expect("rectangular"),
            )
        })
        .collect();
    let universe = RefUniverse::from_tables(&tables);
    (tables, universe)
}

/// A random reference into (or slightly outside) the universe.
fn random_ref(rng: &mut Rng, tables: &[Table]) -> CellRef {
    let t = rng.gen_range(tables.len());
    // Occasionally out of range: must be ignored by both models.
    let row = rng.gen_range(tables[t].n_rows() + 1);
    let col = rng.gen_range(tables[t].n_cols() + 1);
    CellRef::new(t, row, col)
}

/// Builds paired (pool, naive) sets from the same references.
fn random_pair(
    rng: &mut Rng,
    tables: &[Table],
    universe: &RefUniverse,
    pool: &RefSetPool,
) -> (SetId, NaiveSet) {
    let n_refs = rng.gen_range(10);
    let refs: Vec<CellRef> = (0..n_refs).map(|_| random_ref(rng, tables)).collect();
    let id = pool.intern_refs(universe, refs.iter().copied());
    let mut naive = NaiveSet::empty(universe.n_bits());
    for &r in &refs {
        if let Some(bit) = universe.index(r) {
            naive.insert(bit);
        }
    }
    (id, naive)
}

const CASES: u64 = 150;

#[test]
fn pool_union_subset_iter_agree_with_naive_bitsets() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let (tables, universe) = random_universe(&mut rng);
        let pool = RefSetPool::new();
        let pairs: Vec<(SetId, NaiveSet)> = (0..6)
            .map(|_| random_pair(&mut rng, &tables, &universe, &pool))
            .collect();

        for (a_id, a_naive) in &pairs {
            // Membership + iteration agree.
            let a_set: RefSet = pool.get(*a_id);
            let listed: Vec<usize> = a_set
                .iter(&universe)
                .map(|r| universe.index(r).expect("iterated refs are in range"))
                .collect();
            assert_eq!(listed, a_naive.bits(), "seed {seed}: iter mismatch");
            assert_eq!(
                pool.set_len(*a_id),
                a_naive.bits().len(),
                "seed {seed}: len mismatch"
            );
            assert_eq!(
                pool.is_empty_set(*a_id),
                a_naive.bits().is_empty(),
                "seed {seed}: emptiness mismatch"
            );

            for (b_id, b_naive) in &pairs {
                // Subset agrees.
                assert_eq!(
                    pool.get(*a_id).is_subset_of(&pool.get(*b_id)),
                    a_naive.is_subset_of(b_naive),
                    "seed {seed}: subset mismatch"
                );
                // Union agrees (and both operand orders give one id).
                let u_id = pool.union_slice(&[*a_id, *b_id]);
                assert_eq!(
                    u_id,
                    pool.union_slice(&[*b_id, *a_id]),
                    "seed {seed}: union order"
                );
                let u_naive = a_naive.union(b_naive);
                let u_set = pool.get(u_id);
                let listed: Vec<usize> = u_set
                    .iter(&universe)
                    .map(|r| universe.index(r).expect("in range"))
                    .collect();
                assert_eq!(listed, u_naive.bits(), "seed {seed}: union mismatch");
                // The bulk fold ignores repeated operands.
                assert_eq!(
                    pool.union_slice(&[*a_id, *b_id, *a_id]),
                    u_id,
                    "seed {seed}: union_slice mismatch"
                );
            }
        }
    }
}

#[test]
fn interning_is_canonical_across_construction_orders() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let (tables, universe) = random_universe(&mut rng);
        let pool = RefSetPool::new();
        let n_refs = 1 + rng.gen_range(12);
        let mut refs: Vec<CellRef> = (0..n_refs).map(|_| random_ref(&mut rng, &tables)).collect();
        let forward = pool.intern_refs(&universe, refs.iter().copied());
        refs.reverse();
        let backward = pool.intern_refs(&universe, refs.iter().copied());
        assert_eq!(forward, backward, "seed {seed}: id depends on build order");
        // Insert-by-insert construction lands on the same id too.
        let mut set = universe.empty_set();
        for &r in &refs {
            set.insert(&universe, r);
        }
        assert_eq!(pool.intern(set), forward, "seed {seed}: repr not canonical");
    }
}

#[test]
fn union_rows_matches_elementwise_union() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let (tables, universe) = random_universe(&mut rng);
        let pool = RefSetPool::new();
        let column: Vec<SetId> = (0..8)
            .map(|_| random_pair(&mut rng, &tables, &universe, &pool).0)
            .collect();
        let n_rows = 1 + rng.gen_range(column.len());
        let rows: Vec<usize> = (0..n_rows).map(|_| rng.gen_range(column.len())).collect();
        let gathered: Vec<SetId> = rows.iter().map(|&r| column[r]).collect();
        assert_eq!(
            pool.union_rows(&column, &rows),
            pool.union_slice(&gathered),
            "seed {seed}: union_rows disagrees with union_slice"
        );
    }
}
