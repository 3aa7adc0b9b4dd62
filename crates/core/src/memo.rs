//! The bounded memo table behind the engine cache's analysis memos.

use std::borrow::Borrow;
use std::cell::RefCell;
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
#[derive(Debug)]
pub(crate) struct Memo<K, V, const CAP: usize, P = ()> {
    map: RefCell<FxMap<K, (P, V)>>,
}

impl<K, V, const CAP: usize, P> Default for Memo<K, V, CAP, P> {
    fn default() -> Self {
        Memo {
            map: RefCell::new(FxMap::default()),
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
        self.map.borrow().get(key).map(|(_, v)| read(v))
    }

    /// Inserts an entry whose key holds the address of `pin`, clearing
    /// the table first if it is full.
    pub(crate) fn insert_pinned(&self, key: K, pin: P, value: V) {
        let mut map = self.map.borrow_mut();
        if map.len() >= CAP {
            map.clear();
        }
        map.insert(key, (pin, value));
    }

    /// Removes the entry for `key`, returning whether there was one.
    pub(crate) fn remove<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.borrow_mut().remove(key).is_some()
    }

    /// Keeps only the entries whose key satisfies `keep`.
    pub(crate) fn retain(&self, mut keep: impl FnMut(&K) -> bool) {
        self.map.borrow_mut().retain(|k, _| keep(k));
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
        self.insert_pinned(key, (), value);
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
    fn identity_key_stays_valid_while_its_entry_lives() {
        let memo: Memo<usize, &str, 2, Arc<Vec<u8>>> = Memo::default();
        let col = Arc::new(vec![1u8, 2, 3]);
        let addr = Arc::as_ptr(&col) as usize;
        let weak = Arc::downgrade(&col);
        memo.insert_pinned(addr, col, "col");
        // The caller's handle is gone, but the pin keeps the allocation
        // (and thus its address) alive: the key still names that column.
        assert!(weak.upgrade().is_some());
        assert_eq!(memo.get(&addr, |&v| v), Some("col"));
        // Clearing at the cap drops the pin along with the entry.
        memo.insert_pinned(1, Arc::new(Vec::new()), "a");
        memo.insert_pinned(2, Arc::new(Vec::new()), "b");
        assert_eq!(memo.get(&addr, |&v| v), None);
        assert!(weak.upgrade().is_none());
    }
}
