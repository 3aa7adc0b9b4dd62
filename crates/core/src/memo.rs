//! The bounded memo table behind the engine cache's analysis memos.

use std::borrow::Borrow;
use std::cell::{Cell, RefCell};
use std::hash::Hash;

use sickle_provenance::FxMap;

/// A memo table bounded by clearing: an insert into a table that holds
/// `CAP` entries empties it first. Every entry is recomputable, so a
/// clear loses only hits, and the bound costs O(1) per insert (there is
/// no eviction order to maintain).
///
/// Identity-keyed memos key an entry by the address of a shared `Arc` or
/// `Rc` and store that pointer in the entry as its *pin* `P` (`()` for
/// memos keyed by value, see [`Memo::insert_pinned`]): while the entry
/// lives, the allocation cannot be freed, so its address cannot be
/// reused by an unrelated allocation that would then hit the entry.
///
/// Lookups borrow the key (`K: Borrow<Q>`), so a hit neither allocates
/// nor clones a key. Single-threaded (`RefCell`): the engine cache
/// belongs to one search.
///
/// The table also keeps the approximate bytes its entries hold: each
/// entry's inline size plus the heap bytes its inserter declares.
#[derive(Debug)]
pub(crate) struct Memo<K, V, const CAP: usize, P = ()> {
    map: RefCell<FxMap<K, (P, V, u64)>>,
    bytes: Cell<u64>,
}

impl<K, V, const CAP: usize, P> Default for Memo<K, V, CAP, P> {
    fn default() -> Self {
        Memo {
            map: RefCell::new(FxMap::default()),
            bytes: Cell::new(0),
        }
    }
}

impl<K: Hash + Eq, V, const CAP: usize, P> Memo<K, V, CAP, P> {
    /// Reads the entry for `key`, if any.
    pub(crate) fn get<Q, R>(&self, key: &Q, read: impl FnOnce(&V) -> R) -> Option<R>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.borrow().get(key).map(|(_, v, _)| read(v))
    }

    /// Inserts an entry whose key holds the address of `pin` and whose
    /// value holds `heap_bytes` beyond its inline size, clearing the
    /// table first if it is full.
    pub(crate) fn insert_pinned(&self, key: K, pin: P, value: V, heap_bytes: u64) {
        let mut map = self.map.borrow_mut();
        if map.len() >= CAP {
            map.clear();
            self.bytes.set(0);
        }
        let weight = std::mem::size_of::<(K, (P, V, u64))>() as u64 + heap_bytes;
        if let Some((_, _, old)) = map.insert(key, (pin, value, weight)) {
            self.bytes.set(self.bytes.get() - old);
        }
        self.bytes.set(self.bytes.get() + weight);
    }

    /// Removes the entry for `key`, returning whether there was one.
    pub(crate) fn remove<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let removed = self.map.borrow_mut().remove(key);
        if let Some((_, _, weight)) = &removed {
            self.bytes.set(self.bytes.get() - weight);
        }
        removed.is_some()
    }

    /// Approximate bytes of the held entries.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes.get()
    }

    /// True when the table holds no entry.
    pub(crate) fn is_empty(&self) -> bool {
        self.map.borrow().is_empty()
    }
}

impl<K: Hash + Eq, V, const CAP: usize> Memo<K, V, CAP> {
    /// Inserts an entry keyed by value, clearing the table first if it
    /// is full.
    pub(crate) fn insert(&self, key: K, value: V) {
        self.insert_pinned(key, (), value, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn clears_at_its_cap() {
        let memo: Memo<u32, u32, 2> = Memo::default();
        memo.insert(1, 10);
        memo.insert(2, 20);
        assert_eq!(memo.get(&1, |&v| v), Some(10));
        assert_eq!(memo.get(&2, |&v| v), Some(20));
        // Full: the next insert empties the table before inserting.
        memo.insert(3, 30);
        assert_eq!(memo.get(&1, |&v| v), None);
        assert_eq!(memo.get(&2, |&v| v), None);
        assert_eq!(memo.get(&3, |&v| v), Some(30));
        // Below the cap, inserts keep every entry.
        memo.insert(4, 40);
        assert_eq!(memo.get(&3, |&v| v), Some(30));
        assert!(memo.remove(&3));
        assert!(!memo.remove(&3));
        assert_eq!(memo.get(&4, |&v| v), Some(40));
    }

    #[test]
    fn bytes_follow_the_held_entries() {
        let memo: Memo<u32, u32, 2> = Memo::default();
        assert_eq!(memo.bytes(), 0);
        memo.insert_pinned(1, (), 10, 100);
        let one = memo.bytes();
        assert!(one > 100, "inline size plus the declared heap bytes");
        // Replacing an entry charges only the new weight.
        memo.insert_pinned(1, (), 11, 100);
        assert_eq!(memo.bytes(), one);
        memo.insert(2, 20);
        assert!(memo.remove(&1));
        assert_eq!(memo.bytes(), one - 100);
        // Clearing at the cap releases everything it drops.
        memo.insert(3, 30);
        memo.insert(4, 40);
        assert_eq!(memo.bytes(), one - 100);
    }

    #[test]
    fn identity_key_stays_valid_while_its_entry_lives() {
        let memo: Memo<usize, &str, 2, Arc<Vec<u8>>> = Memo::default();
        let col = Arc::new(vec![1u8, 2, 3]);
        let addr = Arc::as_ptr(&col) as usize;
        let weak = Arc::downgrade(&col);
        memo.insert_pinned(addr, col, "col", 3);
        // The caller's handle is gone, but the pin keeps the allocation
        // (and thus its address) alive: the key still names that column.
        assert!(weak.upgrade().is_some());
        assert_eq!(memo.get(&addr, |&v| v), Some("col"));
        // Clearing at the cap drops the pin along with the entry.
        memo.insert_pinned(1, Arc::new(Vec::new()), "a", 0);
        memo.insert_pinned(2, Arc::new(Vec::new()), "b", 0);
        assert_eq!(memo.get(&addr, |&v| v), None);
        assert!(weak.upgrade().is_none());
    }
}
