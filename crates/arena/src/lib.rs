//! # dear-arena — key-typed arenas for reactor program storage
//!
//! A reactor program is a bundle of parallel tables: reactors, ports,
//! actions, timers and reactions, each addressed by a small integer id.
//! Storing them as `Vec<T>` indexed by raw `usize` works, but every lookup
//! is a bounds-check-and-pray affair and nothing stops a `PortId` from
//! being used where a `ReactionId` belongs once both have decayed to
//! `usize`.
//!
//! [`TypedArena<K, V>`] keeps the dense `Vec` storage (contiguous,
//! cache-friendly, allocation-free iteration) but makes the *key type*
//! part of the container type: an arena keyed by `PortId` can only be
//! indexed by `PortId`. Keys are handed out by [`TypedArena::push`] in
//! insertion order, so a key is valid for its arena by construction — the
//! common tinymap-style design used by reactor frameworks (boomerang's
//! `tinymap::TinyMap` is the direct inspiration).
//!
//! ```
//! use dear_arena::{Key, TypedArena};
//!
//! // A key is a thin newtype over a dense index.
//! #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
//! struct WidgetId(u32);
//! impl Key for WidgetId {
//!     fn from_index(index: usize) -> Self {
//!         WidgetId(u32::try_from(index).expect("too many widgets"))
//!     }
//!     fn index(self) -> usize {
//!         self.0 as usize
//!     }
//! }
//!
//! let mut arena: TypedArena<WidgetId, &str> = TypedArena::new();
//! let a = arena.push("alpha");
//! let b = arena.push("beta");
//! assert_eq!(arena[a], "alpha");
//! assert_eq!(arena[b], "beta");
//! assert_eq!(arena.len(), 2);
//! assert_eq!(b.index(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;
use std::marker::PhantomData;

/// A type that can index a [`TypedArena`].
///
/// Implementors are thin wrappers over a dense index. The contract is the
/// obvious round-trip: `Self::from_index(i).index() == i`.
///
/// `from_index` may panic if `index` exceeds the key's representable range
/// (the DEAR id newtypes store `u32`).
pub trait Key: Copy + Eq + Ord {
    /// Builds the key addressing slot `index`.
    fn from_index(index: usize) -> Self;
    /// The dense slot this key addresses.
    fn index(self) -> usize;
}

/// A dense table addressed by a typed key.
///
/// Values live in insertion order; [`push`](TypedArena::push) returns the
/// key of the new slot. Indexing with a key handed out by *this* arena is
/// infallible; indexing with a key from another arena of the same key type
/// is a logic error that still hits the underlying bounds check (the crate
/// forbids `unsafe`, so no checks are actually elided — the win is that
/// the type system rules out whole classes of cross-table confusion).
pub struct TypedArena<K, V> {
    items: Vec<V>,
    _marker: PhantomData<fn(K) -> K>,
}

impl<K, V> Default for TypedArena<K, V> {
    fn default() -> Self {
        TypedArena {
            items: Vec::new(),
            _marker: PhantomData,
        }
    }
}

impl<K: Key, V: fmt::Debug> fmt::Debug for TypedArena<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.items.iter()).finish()
    }
}

impl<K: Key, V: Clone> Clone for TypedArena<K, V> {
    fn clone(&self) -> Self {
        TypedArena {
            items: self.items.clone(),
            _marker: PhantomData,
        }
    }
}

impl<K: Key, V: PartialEq> PartialEq for TypedArena<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.items == other.items
    }
}
impl<K: Key, V: Eq> Eq for TypedArena<K, V> {}

impl<K: Key, V> TypedArena<K, V> {
    /// Creates an empty arena.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an arena of `len` slots, each initialised by `f(key)`.
    #[must_use]
    pub fn from_fn(len: usize, mut f: impl FnMut(K) -> V) -> Self {
        TypedArena {
            items: (0..len).map(|i| f(K::from_index(i))).collect(),
            _marker: PhantomData,
        }
    }

    /// Number of values stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when the arena holds no values.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The key the *next* [`push`](TypedArena::push) will return.
    #[must_use]
    pub(crate) fn next_key(&self) -> K {
        K::from_index(self.items.len())
    }

    /// Appends a value, returning its key.
    pub fn push(&mut self, value: V) -> K {
        let key = self.next_key();
        self.items.push(value);
        key
    }

    /// `true` if `key` addresses a slot of this arena.
    #[must_use]
    pub fn contains_key(&self, key: K) -> bool {
        key.index() < self.items.len()
    }

    /// Checked lookup; `None` when the key is out of range (e.g. a handle
    /// minted by a different builder).
    #[must_use]
    pub fn get(&self, key: K) -> Option<&V> {
        self.items.get(key.index())
    }

    /// Iterates over values in key order.
    pub fn iter(&self) -> std::slice::Iter<'_, V> {
        self.items.iter()
    }

    /// Iterates over values mutably in key order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, V> {
        self.items.iter_mut()
    }

    /// Iterates over `(key, &value)` pairs in key order.
    pub fn iter_enumerated(&self) -> impl ExactSizeIterator<Item = (K, &V)> {
        self.items
            .iter()
            .enumerate()
            .map(|(i, v)| (K::from_index(i), v))
    }

    /// Iterates over the keys of all slots.
    #[cfg(test)]
    pub(crate) fn keys(&self) -> impl ExactSizeIterator<Item = K> {
        (0..self.items.len()).map(K::from_index)
    }

    /// The backing slice, in key order.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn as_slice(&self) -> &[V] {
        &self.items
    }

    /// Maps every value, keeping keys stable.
    #[must_use]
    pub fn map<W>(self, f: impl FnMut(V) -> W) -> TypedArena<K, W> {
        TypedArena {
            items: self.items.into_iter().map(f).collect(),
            _marker: PhantomData,
        }
    }

    /// Maps every `(key, value)` pair, keeping keys stable.
    #[must_use]
    pub fn map_enumerated<W>(self, mut f: impl FnMut(K, V) -> W) -> TypedArena<K, W> {
        TypedArena {
            items: self
                .items
                .into_iter()
                .enumerate()
                .map(|(i, v)| f(K::from_index(i), v))
                .collect(),
            _marker: PhantomData,
        }
    }
}

impl<K: Key, V> std::ops::Index<K> for TypedArena<K, V> {
    type Output = V;
    fn index(&self, key: K) -> &V {
        &self.items[key.index()]
    }
}

impl<K: Key, V> std::ops::IndexMut<K> for TypedArena<K, V> {
    fn index_mut(&mut self, key: K) -> &mut V {
        &mut self.items[key.index()]
    }
}

impl<K: Key, V> From<Vec<V>> for TypedArena<K, V> {
    fn from(items: Vec<V>) -> Self {
        TypedArena {
            items,
            _marker: PhantomData,
        }
    }
}

impl<K: Key, V> FromIterator<V> for TypedArena<K, V> {
    fn from_iter<I: IntoIterator<Item = V>>(iter: I) -> Self {
        TypedArena {
            items: iter.into_iter().collect(),
            _marker: PhantomData,
        }
    }
}

impl<K: Key, V> IntoIterator for TypedArena<K, V> {
    type Item = V;
    type IntoIter = std::vec::IntoIter<V>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

impl<'a, K: Key, V> IntoIterator for &'a TypedArena<K, V> {
    type Item = &'a V;
    type IntoIter = std::slice::Iter<'a, V>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fixture key: a thin newtype over a dense index, like the DEAR
    /// id newtypes.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    struct TestKey(u32);

    impl Key for TestKey {
        fn from_index(index: usize) -> Self {
            TestKey(u32::try_from(index).expect("arena index exceeds u32 key range"))
        }
        fn index(self) -> usize {
            self.0 as usize
        }
    }

    #[test]
    fn push_returns_dense_keys() {
        let mut arena: TypedArena<TestKey, String> = TypedArena::new();
        assert!(arena.is_empty());
        let a = arena.push("a".into());
        let b = arena.push("b".into());
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena[a], "a");
        assert_eq!(arena[b], "b");
        assert_eq!(arena.next_key().index(), 2);
    }

    #[test]
    fn checked_lookup_rejects_foreign_keys() {
        let mut arena: TypedArena<TestKey, u8> = TypedArena::new();
        let k = arena.push(1);
        assert!(arena.contains_key(k));
        let foreign = TestKey::from_index(9);
        assert!(!arena.contains_key(foreign));
        assert_eq!(arena.get(foreign), None);
        assert_eq!(arena.get(k), Some(&1));
    }

    #[test]
    fn iteration_is_in_key_order() {
        let arena: TypedArena<TestKey, u32> = (0..5u32).map(|i| i * 10).collect();
        let pairs: Vec<(usize, u32)> = arena
            .iter_enumerated()
            .map(|(k, &v)| (k.index(), v))
            .collect();
        assert_eq!(pairs, vec![(0, 0), (1, 10), (2, 20), (3, 30), (4, 40)]);
        let keys: Vec<usize> = arena.keys().map(Key::index).collect();
        assert_eq!(keys, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn from_fn_and_map_keep_keys_stable() {
        let arena: TypedArena<TestKey, usize> = TypedArena::from_fn(4, |k: TestKey| k.index() * 2);
        assert_eq!(arena.as_slice(), &[0, 2, 4, 6]);
        let doubled = arena.map(|v| v * 10);
        assert_eq!(doubled.as_slice(), &[0, 20, 40, 60]);
        let tagged = doubled.map_enumerated(|k, v| (k.index(), v));
        assert_eq!(tagged[TestKey::from_index(3)], (3, 60));
    }

    #[test]
    fn index_mut_and_take_roundtrip() {
        let mut arena: TypedArena<TestKey, Option<u32>> = TypedArena::from_fn(3, |_| None);
        let k = TestKey::from_index(1);
        arena[k] = Some(7);
        assert_eq!(arena[k], Some(7));
        // `std::mem::take` works (Default impl) — the runtime relies on
        // this to take reactor states and reaction bodies out of its
        // program.
        let taken = std::mem::take(&mut arena);
        assert_eq!(taken.len(), 3);
        assert!(arena.is_empty());
    }

    #[test]
    fn keys_are_ordered_and_hashable() {
        use std::collections::BTreeSet;
        let set: BTreeSet<TestKey> = (0..3).map(TestKey::from_index).collect();
        assert_eq!(set.len(), 3);
        assert_eq!(set.iter().next().copied(), Some(TestKey::from_index(0)));
        assert!(TestKey::from_index(0) < TestKey::from_index(2));
    }

    #[test]
    #[should_panic(expected = "arena index exceeds u32 key range")]
    fn oversized_index_panics() {
        let _ = TestKey::from_index(usize::try_from(u64::from(u32::MAX) + 1).unwrap());
    }
}
