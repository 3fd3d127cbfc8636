//! Dense-ID containers: slab-indexed maps for the per-request hot paths.
//!
//! Sample ids are dense contiguous integers `0..dataset.len()`
//! ([`SampleId`] is documented as an index), which is exactly the
//! precondition for slab/arena indexing: a `SampleId → V` map can be a
//! `Vec` indexed by `id.index()` instead of an ordered tree, turning
//! every lookup on the replay hot path into one array access instead of
//! an `O(log n)` walk.
//!
//! Determinism contract (DESIGN.md §12): [`IdSlab`] iterates in
//! **ascending id order**, exactly like `BTreeMap<SampleId, V>`, via an
//! occupancy bitmap walked word by word with `trailing_zeros`. The
//! model-based proptests in this module drive an [`IdSlab`] and a
//! `BTreeMap` (and an [`IdSet`] and a `BTreeSet`) through identical
//! operation sequences and assert identical observable state, including
//! iteration order — the property that keeps every golden byte-stable
//! across the BTree → slab migration.
//!
//! When the key is not a `SampleId` at all (`JobId`, `NodeId`, epoch
//! counters) a slab does not apply — those maps stay on `BTreeMap`. A
//! slab over a hash-assigned *subset* of the ids (a directory shard, a
//! heap shard) is N× sparse; that is accepted where the slots are a few
//! bytes each and the map sits on the per-fetch path.
//!
//! [`IdSet`] (the companion fixed-universe bitmap set) lives in
//! `icache_types` and is re-exported here so the dense layer has one
//! import surface.

pub use icache_types::IdSet;
use icache_types::SampleId;

/// A `SampleId → V` map backed by a slab (`Vec<Option<V>>`) plus an
/// occupancy bitmap for ascending-id iteration.
///
/// Mirrors the `BTreeMap<SampleId, V>` surface actually used by the
/// cache hot paths (`len`/`get`/`insert`/`remove`/`iter`/`retain`/…)
/// with O(1) point operations and O(words + occupied) iteration in
/// ascending id order. The slab grows automatically to the largest
/// inserted id; ids are expected to be dense (`0..dataset.len()`), so
/// capacity is bounded by the dataset size.
///
/// # Examples
///
/// ```
/// use icache_core::dense::IdSlab;
/// use icache_types::SampleId;
///
/// let mut slab: IdSlab<u32> = IdSlab::new();
/// slab.insert(SampleId(3), 30);
/// slab.insert(SampleId(1), 10);
/// assert_eq!(slab.get(SampleId(3)), Some(&30));
/// // Iteration is in ascending id order, like a BTreeMap.
/// let ids: Vec<_> = slab.keys().collect();
/// assert_eq!(ids, vec![SampleId(1), SampleId(3)]);
/// ```
#[derive(Clone)]
pub struct IdSlab<V> {
    slots: Vec<Option<V>>,
    /// Occupancy bitmap: bit `i % 64` of `words[i / 64]` is set iff
    /// `slots[i]` holds a value. `words.len() * 64 >= slots.len()`.
    words: Vec<u64>,
    len: usize,
}

impl<V> Default for IdSlab<V> {
    fn default() -> Self {
        IdSlab::new()
    }
}

impl<V> IdSlab<V> {
    /// An empty slab.
    pub fn new() -> Self {
        IdSlab {
            slots: Vec::new(),
            words: Vec::new(),
            len: 0,
        }
    }

    /// An empty slab pre-sized for ids `0..cap` (no reallocation until
    /// an id `>= cap` is inserted).
    pub fn with_capacity(cap: usize) -> Self {
        IdSlab {
            slots: Vec::with_capacity(cap),
            words: Vec::with_capacity(cap.div_ceil(64)),
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the slab holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `id` has an entry.
    #[inline]
    pub fn contains_key(&self, id: SampleId) -> bool {
        let i = id.index();
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// A reference to `id`'s value, if present.
    #[inline]
    pub fn get(&self, id: SampleId) -> Option<&V> {
        self.slots.get(id.index())?.as_ref()
    }

    /// A mutable reference to `id`'s value, if present.
    #[inline]
    pub fn get_mut(&mut self, id: SampleId) -> Option<&mut V> {
        self.slots.get_mut(id.index())?.as_mut()
    }

    /// Insert `id → value`. Returns the previous value if present.
    pub fn insert(&mut self, id: SampleId, value: V) -> Option<V> {
        let i = id.index();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        if i / 64 >= self.words.len() {
            self.words.resize(i / 64 + 1, 0);
        }
        self.words[i / 64] |= 1u64 << (i % 64);
        let prev = self.slots[i].replace(value);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Remove `id`'s entry. Returns its value if it was present.
    pub fn remove(&mut self, id: SampleId) -> Option<V> {
        let i = id.index();
        let prev = self.slots.get_mut(i)?.take();
        if prev.is_some() {
            self.words[i / 64] &= !(1u64 << (i % 64));
            self.len -= 1;
        }
        prev
    }

    /// Remove every entry, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.words.clear();
        self.len = 0;
    }

    /// Iterate `(id, &value)` in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (SampleId, &V)> + '_ {
        self.occupied().map(move |i| {
            let v = self.slots[i]
                .as_ref()
                .expect("occupancy bit set for an empty slot");
            (SampleId(i as u64), v)
        })
    }

    /// Iterate ids in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = SampleId> + '_ {
        self.occupied().map(|i| SampleId(i as u64))
    }

    /// Iterate values in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.iter().map(|(_, v)| v)
    }

    /// Keep only the entries for which `f` returns true, visiting in
    /// ascending id order (the `BTreeMap::retain` contract).
    pub fn retain(&mut self, mut f: impl FnMut(SampleId, &mut V) -> bool) {
        for wi in 0..self.words.len() {
            let mut bits = self.words[wi];
            while bits != 0 {
                let i = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let keep = self.slots[i]
                    .as_mut()
                    .map(|v| f(SampleId(i as u64), v))
                    .expect("occupancy bit set for an empty slot");
                if !keep {
                    self.slots[i] = None;
                    self.words[wi] &= !(1u64 << (i % 64));
                    self.len -= 1;
                }
            }
        }
    }

    /// Slot indexes with their occupancy bit set, ascending.
    fn occupied(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            std::iter::successors((w != 0).then_some(w), |&bits| {
                let next = bits & (bits - 1);
                (next != 0).then_some(next)
            })
            .map(move |bits| wi * 64 + bits.trailing_zeros() as usize)
        })
    }
}

impl<V: std::fmt::Debug> std::fmt::Debug for IdSlab<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<V: PartialEq> PartialEq for IdSlab<V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self
                .iter()
                .zip(other.iter())
                .all(|((ai, av), (bi, bv))| ai == bi && av == bv)
    }
}

impl<V: Eq> Eq for IdSlab<V> {}

impl<V> FromIterator<(SampleId, V)> for IdSlab<V> {
    fn from_iter<I: IntoIterator<Item = (SampleId, V)>>(iter: I) -> Self {
        let mut slab = IdSlab::new();
        slab.extend(iter);
        slab
    }
}

impl<V> Extend<(SampleId, V)> for IdSlab<V> {
    fn extend<I: IntoIterator<Item = (SampleId, V)>>(&mut self, iter: I) {
        for (id, v) in iter {
            self.insert(id, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_ops_round_trip() {
        let mut s: IdSlab<u32> = IdSlab::with_capacity(8);
        assert!(s.is_empty());
        assert_eq!(s.insert(SampleId(5), 50), None);
        assert_eq!(s.insert(SampleId(5), 55), Some(50));
        assert_eq!(s.len(), 1);
        assert!(s.contains_key(SampleId(5)));
        assert!(!s.contains_key(SampleId(4)));
        assert_eq!(s.get(SampleId(5)), Some(&55));
        *s.get_mut(SampleId(5)).expect("present") += 1;
        assert_eq!(s.remove(SampleId(5)), Some(56));
        assert_eq!(s.remove(SampleId(5)), None);
        assert!(s.is_empty());
    }

    #[test]
    fn iteration_is_ascending_across_word_boundaries() {
        let mut s: IdSlab<u64> = IdSlab::new();
        for id in [200u64, 0, 63, 64, 65, 127, 128, 1] {
            s.insert(SampleId(id), id * 2);
        }
        let ids: Vec<u64> = s.keys().map(|id| id.0).collect();
        assert_eq!(ids, vec![0, 1, 63, 64, 65, 127, 128, 200]);
        assert!(s.iter().all(|(id, &v)| v == id.0 * 2));
        assert_eq!(s.values().sum::<u64>(), ids.iter().sum::<u64>() * 2);
    }

    #[test]
    fn retain_visits_ascending_and_drops() {
        let mut s: IdSlab<u64> = (0..130u64).map(|i| (SampleId(i), i)).collect();
        let mut visited = Vec::new();
        s.retain(|id, v| {
            visited.push(id.0);
            *v % 3 == 0
        });
        assert!(visited.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(s.len(), (0..130u64).filter(|i| i % 3 == 0).count());
        assert!(s.keys().all(|id| id.0 % 3 == 0));
    }

    #[test]
    fn clear_resets_and_capacity_survives() {
        let mut s: IdSlab<u8> = IdSlab::new();
        s.insert(SampleId(70), 7);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains_key(SampleId(70)));
        assert_eq!(s.iter().count(), 0);
        s.insert(SampleId(2), 2);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn equality_and_debug_see_entries_not_capacity() {
        let mut a: IdSlab<u8> = IdSlab::new();
        let mut b: IdSlab<u8> = IdSlab::with_capacity(1000);
        a.insert(SampleId(9), 1);
        b.insert(SampleId(900), 2);
        b.insert(SampleId(9), 1);
        b.remove(SampleId(900));
        assert_eq!(a, b, "trailing empty capacity must not affect equality");
        assert_eq!(format!("{a:?}"), "{SampleId(9): 1}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// The op vocabulary the satellite spec names: insert / remove /
    /// get / iter / retain. `iter` and `get` are checked after every
    /// op; `retain` keeps a pseudo-random subset derived from the op's
    /// modulus so runs are reproducible.
    #[derive(Debug, Clone)]
    enum Op {
        Insert(u64, u32),
        Remove(u64),
        Get(u64),
        Retain(u64),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..200, any::<u32>()).prop_map(|(id, v)| Op::Insert(id, v)),
            (0u64..200, any::<u32>()).prop_map(|(id, v)| Op::Insert(id, v)),
            (0u64..200).prop_map(Op::Remove),
            (0u64..200).prop_map(Op::Get),
            (2u64..5).prop_map(Op::Retain),
        ]
    }

    proptest! {
        /// Model-based differential: an [`IdSlab`] driven by an
        /// arbitrary op sequence is observationally identical to a
        /// `BTreeMap` driven by the same sequence — same return
        /// values, same length, same iteration order.
        #[test]
        fn idslab_matches_btreemap(ops in proptest::collection::vec(op_strategy(), 1..300)) {
            let mut slab: IdSlab<u32> = IdSlab::new();
            let mut model: BTreeMap<SampleId, u32> = BTreeMap::new();
            for op in ops {
                match op {
                    Op::Insert(id, v) => {
                        prop_assert_eq!(slab.insert(SampleId(id), v), model.insert(SampleId(id), v));
                    }
                    Op::Remove(id) => {
                        prop_assert_eq!(slab.remove(SampleId(id)), model.remove(&SampleId(id)));
                    }
                    Op::Get(id) => {
                        prop_assert_eq!(slab.get(SampleId(id)), model.get(&SampleId(id)));
                        prop_assert_eq!(slab.contains_key(SampleId(id)), model.contains_key(&SampleId(id)));
                    }
                    Op::Retain(m) => {
                        slab.retain(|id, v| (id.0 + u64::from(*v)) % m != 0);
                        model.retain(|id, v| (id.0 + u64::from(*v)) % m != 0);
                    }
                }
                prop_assert_eq!(slab.len(), model.len());
                let got: Vec<(SampleId, u32)> = slab.iter().map(|(id, &v)| (id, v)).collect();
                let want: Vec<(SampleId, u32)> = model.iter().map(|(&id, &v)| (id, v)).collect();
                prop_assert_eq!(got, want, "iteration order must match BTreeMap exactly");
            }
        }

        /// Same differential for the bitmap set: an [`IdSet`] driven by
        /// insert/remove sequences matches a `BTreeSet`, including
        /// ascending iteration order.
        #[test]
        fn idset_matches_btreeset(ops in proptest::collection::vec((0u64..128, any::<bool>()), 1..300)) {
            let mut set = IdSet::new(128);
            let mut model: BTreeSet<SampleId> = BTreeSet::new();
            for (id, add) in ops {
                if add {
                    prop_assert_eq!(set.insert(SampleId(id)), model.insert(SampleId(id)));
                } else {
                    prop_assert_eq!(set.remove(SampleId(id)), model.remove(&SampleId(id)));
                }
                prop_assert_eq!(set.len(), model.len());
                prop_assert_eq!(set.contains(SampleId(id)), model.contains(&SampleId(id)));
                let got: Vec<SampleId> = set.iter().collect();
                let want: Vec<SampleId> = model.iter().copied().collect();
                prop_assert_eq!(got, want, "iteration order must match BTreeSet exactly");
            }
        }
    }
}
