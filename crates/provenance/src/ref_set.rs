//! Compact sets of input-cell references.
//!
//! The abstract provenance semantics (Fig. 11) manipulates *sets* of input
//! cells per output cell; the abstract consistency check (Def. 3) is a
//! subset test `ref(E[i,j]) ⊆ T◦[r,c]`. Since these checks run for every
//! partial query visited by the search, sets are represented as bitsets over
//! a [`RefUniverse`] — a fixed enumeration of every cell of every input
//! table.
//!
//! A [`RefSet`] stores its words in *canonical* form (trailing zero words
//! stripped), with two representations behind one API:
//!
//! * **inline** — up to two significant words (128 low bits) live directly
//!   in the struct: cloning and comparing the common small sets never
//!   touches the heap;
//! * **shared** — larger sets keep their words behind an [`Arc`] with
//!   copy-on-write mutation, so cloning is a reference-count bump and the
//!   weak/medium abstraction broadcasts stop deep-copying `Vec<u64>`.
//!
//! Canonical form makes equality and hashing representation-independent,
//! which is what lets [`crate::RefSetPool`] hash-cons sets from different
//! construction paths onto one identity.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use sickle_table::Table;

use crate::expr::{CellRef, RefTerm};

/// Dimensions and starting bit offset of one input table, packed into a
/// single slot so [`RefUniverse::index`] resolves a reference with one
/// bounds-checked load (the per-cell inner loops of the analysis hit this
/// on every demonstration reference).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TableSlot {
    rows: usize,
    cols: usize,
    offset: usize,
}

/// A fixed enumeration of every input cell, mapping [`CellRef`]s to bit
/// positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefUniverse {
    slots: Vec<TableSlot>,
    /// Total number of bits.
    n_bits: usize,
}

impl RefUniverse {
    /// Builds the universe for a list of input tables.
    pub fn from_tables(inputs: &[Table]) -> RefUniverse {
        let mut slots = Vec::with_capacity(inputs.len());
        let mut n_bits = 0;
        for t in inputs {
            slots.push(TableSlot {
                rows: t.n_rows(),
                cols: t.n_cols(),
                offset: n_bits,
            });
            n_bits += t.n_rows() * t.n_cols();
        }
        RefUniverse { slots, n_bits }
    }

    /// Number of cells in the universe.
    pub fn n_bits(&self) -> usize {
        self.n_bits
    }

    /// Bit index of a reference, or `None` if it falls outside the inputs.
    #[inline]
    pub fn index(&self, r: CellRef) -> Option<usize> {
        let s = self.slots.get(r.table)?;
        if r.row < s.rows && r.col < s.cols {
            Some(s.offset + r.row * s.cols + r.col)
        } else {
            None
        }
    }

    /// Inverse of [`RefUniverse::index`].
    pub fn ref_at(&self, bit: usize) -> Option<CellRef> {
        for (t, s) in self.slots.iter().enumerate() {
            let size = s.rows * s.cols;
            if bit < s.offset + size {
                let local = bit - s.offset;
                return Some(CellRef::new(t, local / s.cols, local % s.cols));
            }
        }
        None
    }

    /// An empty set over this universe.
    pub fn empty_set(&self) -> RefSet {
        RefSet::empty()
    }

    /// A set containing every cell of input table `table`.
    pub fn full_table_set(&self, table: usize) -> RefSet {
        let TableSlot { rows, cols, .. } = self.slots[table];
        self.set_from((0..rows).flat_map(|r| (0..cols).map(move |c| CellRef::new(table, r, c))))
    }

    /// The set of references for one cell `T_table[row, col]`.
    pub fn singleton(&self, r: CellRef) -> RefSet {
        let mut s = RefSet::empty();
        s.insert(self, r);
        s
    }

    /// Builds a set from an iterator of references; out-of-universe
    /// references are ignored (they can never be satisfied anyway and the
    /// caller detects that via subset checks against non-full sets).
    pub fn set_from<I: IntoIterator<Item = CellRef>>(&self, refs: I) -> RefSet {
        let mut acc = Accumulator::Inline([0; INLINE_WORDS]);
        refs.into_iter().for_each(|r| acc.add(self, r));
        acc.finish()
    }

    /// The set of references of one term (`ref(e)`), ORed straight into
    /// the set's words as the term is walked — equal to
    /// `set_from(e.refs())` without collecting the references.
    pub fn set_of<T: RefTerm>(&self, e: &T) -> RefSet {
        let mut acc = Accumulator::Inline([0; INLINE_WORDS]);
        e.for_each_ref(&mut |r| acc.add(self, r));
        acc.finish()
    }

    /// The reference sets of a column of terms, one per cell, through
    /// [`RefUniverse::set_of`]. A cell that is the same shared node as the
    /// cell before it (neighbouring rows of one window aggregate) reuses
    /// that cell's set instead of walking the term again.
    pub fn column_sets<'e, T: RefTerm + 'e>(
        &self,
        cells: impl IntoIterator<Item = &'e T>,
    ) -> Vec<RefSet> {
        let mut out: Vec<RefSet> = Vec::new();
        let mut prev: Option<&T> = None;
        for e in cells {
            let set = match (prev, out.last()) {
                (Some(p), Some(s)) if p.same_node(e) => s.clone(),
                _ => self.set_of(e),
            };
            out.push(set);
            prev = Some(e);
        }
        out
    }
}

/// A set under construction by [`RefUniverse::set_from`] /
/// [`RefUniverse::set_of`]: inline while every bit fits (no allocation
/// for small sets), then widened once to the universe's full width
/// (bit-by-bit growth would realloc repeatedly), canonicalized at the end.
enum Accumulator {
    Inline([u64; INLINE_WORDS]),
    Wide(Vec<u64>),
}

impl Accumulator {
    #[inline]
    fn add(&mut self, universe: &RefUniverse, r: CellRef) {
        let Some(bit) = universe.index(r) else {
            return;
        };
        let (w, mask) = (bit / 64, 1u64 << (bit % 64));
        match self {
            Accumulator::Inline(words) if w < INLINE_WORDS => words[w] |= mask,
            Accumulator::Inline(words) => {
                let mut wide = vec![0u64; universe.n_bits.div_ceil(64)];
                wide[..INLINE_WORDS].copy_from_slice(words);
                wide[w] |= mask;
                *self = Accumulator::Wide(wide);
            }
            Accumulator::Wide(words) => words[w] |= mask,
        }
    }

    fn finish(self) -> RefSet {
        match self {
            Accumulator::Inline(words) => {
                let len = words.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
                RefSet {
                    repr: Words::Inline {
                        len: len as u8,
                        words,
                    },
                }
            }
            Accumulator::Wide(words) => RefSet::from_words(words),
        }
    }
}

/// Number of words stored inline (128 bits — covers every set over the
/// small universes of typical tasks, and sparse low sets elsewhere).
const INLINE_WORDS: usize = 2;

/// Canonical word storage of a [`RefSet`]: significant words only (no
/// trailing zeros), inline when they fit.
#[derive(Clone)]
enum Words {
    Inline { len: u8, words: [u64; INLINE_WORDS] },
    Shared(Arc<Vec<u64>>),
}

/// A bitset of input-cell references over a [`RefUniverse`].
///
/// Cloning is cheap (an inline copy or an `Arc` bump); mutation of shared
/// storage is copy-on-write. Equality and hashing see only the significant
/// words, so sets built over different universes compare by content.
#[derive(Clone)]
pub struct RefSet {
    repr: Words,
}

impl RefSet {
    /// The canonical empty set (valid for every universe).
    pub(crate) fn empty() -> RefSet {
        RefSet {
            repr: Words::Inline {
                len: 0,
                words: [0; INLINE_WORDS],
            },
        }
    }

    /// The significant words (canonical: no trailing zeros).
    pub(crate) fn words(&self) -> &[u64] {
        match &self.repr {
            Words::Inline { len, words } => &words[..*len as usize],
            Words::Shared(v) => v,
        }
    }

    /// Approximate heap bytes owned by this set beyond its struct size:
    /// zero for inline storage, the shared word buffer (plus `Arc`/`Vec`
    /// headers) otherwise. Clones of a shared set alias one buffer, so
    /// accounting that charges each *distinct* set once (the pool) stays
    /// honest.
    pub(crate) fn heap_bytes(&self) -> usize {
        match &self.repr {
            Words::Inline { .. } => 0,
            // Word payload + Arc control block (2 counts) + Vec header.
            Words::Shared(v) => v.len() * 8 + 16 + 24,
        }
    }

    /// Builds a set from raw words, canonicalizing.
    fn from_words(mut v: Vec<u64>) -> RefSet {
        while v.last() == Some(&0) {
            v.pop();
        }
        if v.len() <= INLINE_WORDS {
            let mut words = [0u64; INLINE_WORDS];
            words[..v.len()].copy_from_slice(&v);
            RefSet {
                repr: Words::Inline {
                    len: v.len() as u8,
                    words,
                },
            }
        } else {
            RefSet {
                repr: Words::Shared(Arc::new(v)),
            }
        }
    }

    /// Inserts a reference. References outside the universe are ignored.
    pub fn insert(&mut self, universe: &RefUniverse, r: CellRef) {
        if let Some(bit) = universe.index(r) {
            self.insert_bit(bit);
        }
    }

    fn insert_bit(&mut self, bit: usize) {
        let w = bit / 64;
        let mask = 1u64 << (bit % 64);
        match &mut self.repr {
            Words::Inline { len, words } if w < INLINE_WORDS => {
                words[w] |= mask;
                *len = (*len).max(w as u8 + 1);
            }
            Words::Inline { len, words } => {
                let mut v = words[..*len as usize].to_vec();
                v.resize(w + 1, 0);
                v[w] |= mask;
                self.repr = Words::Shared(Arc::new(v));
            }
            Words::Shared(v) => {
                let v = Arc::make_mut(v);
                if v.len() <= w {
                    v.resize(w + 1, 0);
                }
                v[w] |= mask;
            }
        }
    }

    /// Tests membership.
    pub fn contains(&self, universe: &RefUniverse, r: CellRef) -> bool {
        match universe.index(r) {
            Some(bit) => self
                .words()
                .get(bit / 64)
                .is_some_and(|w| w & (1 << (bit % 64)) != 0),
            None => false,
        }
    }

    /// In-place union (copy-on-write when the storage is shared).
    pub fn union_with(&mut self, other: &RefSet) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = other.clone();
            return;
        }
        if other.words().len() <= self.words().len() {
            // Or into self in place; the top word stays nonzero, so the
            // canonical form is preserved.
            match &mut self.repr {
                Words::Inline { words, .. } => {
                    for (w, &o) in words.iter_mut().zip(other.words()) {
                        *w |= o;
                    }
                }
                Words::Shared(v) => {
                    let v = Arc::make_mut(v);
                    for (w, &o) in v.iter_mut().zip(other.words()) {
                        *w |= o;
                    }
                }
            }
        } else {
            let mut v = other.words().to_vec();
            for (w, &s) in v.iter_mut().zip(self.words()) {
                *w |= s;
            }
            *self = RefSet::from_words(v);
        }
    }

    /// `self ⊆ other`.
    ///
    /// Canonical storage makes the length test sound: a longer significant
    /// prefix means a set bit beyond `other`'s top word.
    pub fn is_subset_of(&self, other: &RefSet) -> bool {
        let (a, b) = (self.words(), other.words());
        a.len() <= b.len() && a.iter().zip(b).all(|(w, o)| w & !o == 0)
    }

    /// Number of references in the set.
    pub fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if no references are present.
    pub fn is_empty(&self) -> bool {
        self.words().is_empty()
    }

    /// Iterates the contained references (ascending bit order).
    pub fn iter<'u>(&'u self, universe: &'u RefUniverse) -> impl Iterator<Item = CellRef> + 'u {
        self.words()
            .iter()
            .enumerate()
            .flat_map(|(wi, &w)| {
                (0..64)
                    .filter(move |b| w & (1u64 << b) != 0)
                    .map(move |b| wi * 64 + b)
            })
            .filter_map(move |bit| universe.ref_at(bit))
    }
}

impl PartialEq for RefSet {
    fn eq(&self, other: &RefSet) -> bool {
        self.words() == other.words()
    }
}

impl Eq for RefSet {}

impl Hash for RefSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.words().hash(state);
    }
}

impl fmt::Debug for RefSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RefSet({} refs)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sickle_table::Value;

    fn tables() -> Vec<Table> {
        let t1 = Table::new(
            ["a", "b"],
            vec![
                vec![Value::Int(1), Value::Int(2)],
                vec![Value::Int(3), Value::Int(4)],
            ],
        )
        .unwrap();
        let t2 = Table::new(["x"], vec![vec![Value::Int(5)]]).unwrap();
        vec![t1, t2]
    }

    #[test]
    fn index_round_trips() {
        let u = RefUniverse::from_tables(&tables());
        assert_eq!(u.n_bits(), 5);
        for bit in 0..u.n_bits() {
            let r = u.ref_at(bit).unwrap();
            assert_eq!(u.index(r), Some(bit));
        }
    }

    #[test]
    fn out_of_bounds_ref_has_no_index() {
        let u = RefUniverse::from_tables(&tables());
        assert_eq!(u.index(CellRef::new(0, 5, 0)), None);
        assert_eq!(u.index(CellRef::new(7, 0, 0)), None);
    }

    #[test]
    fn subset_and_union() {
        let u = RefUniverse::from_tables(&tables());
        let a = u.set_from([CellRef::new(0, 0, 0)]);
        let mut b = u.set_from([CellRef::new(0, 1, 1), CellRef::new(1, 0, 0)]);
        assert!(!a.is_subset_of(&b));
        b.union_with(&a);
        assert!(a.is_subset_of(&b));
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn full_table_set_counts_cells() {
        let u = RefUniverse::from_tables(&tables());
        assert_eq!(u.full_table_set(0).len(), 4);
        assert_eq!(u.full_table_set(1).len(), 1);
    }

    #[test]
    fn iter_lists_members() {
        let u = RefUniverse::from_tables(&tables());
        let s = u.set_from([CellRef::new(1, 0, 0), CellRef::new(0, 0, 1)]);
        let listed: Vec<CellRef> = s.iter(&u).collect();
        assert_eq!(listed, vec![CellRef::new(0, 0, 1), CellRef::new(1, 0, 0)]);
    }

    #[test]
    fn empty_set_is_empty() {
        let u = RefUniverse::from_tables(&tables());
        let s = u.empty_set();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(s.is_subset_of(&u.full_table_set(0)));
    }

    /// Sets big enough to spill out of the inline representation behave
    /// identically: union, subset, membership and canonical equality.
    #[test]
    fn shared_representation_spills_and_agrees() {
        let wide = Table::new(
            (0..40).map(|i| format!("c{i}")).collect::<Vec<_>>(),
            (0..5).map(|_| (0..40).map(Value::Int).collect()).collect(),
        )
        .unwrap();
        let u = RefUniverse::from_tables(&[wide]);
        assert_eq!(u.n_bits(), 200); // 4 words: shared storage
        let full = u.full_table_set(0);
        assert!(full.heap_bytes() > 0); // spilled to shared words
        assert_eq!(full.len(), 200);
        let low = u.set_from([CellRef::new(0, 0, 0), CellRef::new(0, 0, 39)]);
        assert_eq!(low.heap_bytes(), 0); // inline
        assert!(low.is_subset_of(&full));
        assert!(!full.is_subset_of(&low));
        let mut grown = low.clone();
        grown.union_with(&u.singleton(CellRef::new(0, 4, 39))); // bit 199
        assert!(grown.heap_bytes() > 0);
        assert_eq!(grown.len(), 3);
        assert!(low.is_subset_of(&grown));
        assert!(grown.contains(&u, CellRef::new(0, 4, 39)));
        // Canonical: shrinking back via a fresh build compares equal.
        let rebuilt = u.set_from(grown.iter(&u).collect::<Vec<_>>());
        assert_eq!(rebuilt, grown);
    }

    /// Cloning a shared set and mutating the clone must not alias.
    #[test]
    fn copy_on_write_does_not_alias() {
        let wide = Table::new(
            (0..50).map(|i| format!("c{i}")).collect::<Vec<_>>(),
            (0..4).map(|_| (0..50).map(Value::Int).collect()).collect(),
        )
        .unwrap();
        let u = RefUniverse::from_tables(&[wide]);
        let base = u.full_table_set(0);
        let mut copy = base.clone();
        copy.union_with(&u.singleton(CellRef::new(0, 0, 0)));
        assert_eq!(copy, base); // already contained: still equal
        let smaller = u.set_from([CellRef::new(0, 3, 49)]);
        let mut grown = smaller.clone();
        grown.union_with(&base);
        assert_eq!(smaller.len(), 1, "clone mutation must not leak back");
        assert_eq!(grown.len(), 200);
    }
}
