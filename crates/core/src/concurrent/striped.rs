//! Lock-striped resident map and substitution fresh-pool.

use super::{lock_counted, stripe_count};
use crate::dense::IdSlab;
use icache_types::SampleId;
use rand::Rng;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// A concurrent `SampleId → V` map striped across `N` mutexes.
///
/// Stripe selection is `id & (N-1)`; sample ids are contiguous
/// integers, so consecutive ids fall on distinct stripes and a hot
/// id range spreads across all locks. Per-stripe storage is an
/// [`IdSlab`] keyed by the *local* id `id >> log2(N)` — the ids
/// landing on one stripe are exactly `{stripe + k·N}`, so shifting
/// away the stripe bits keeps each slab dense. Ascending local keys
/// are ascending global ids within a stripe, keeping in-stripe
/// iteration (epoch-barrier bulk operations) deterministic.
#[derive(Debug)]
pub struct StripedMap<V> {
    stripes: Box<[Mutex<IdSlab<V>>]>,
    mask: u64,
    shift: u32,
    len: AtomicUsize,
    contention: AtomicU64,
}

impl<V> StripedMap<V> {
    /// A map striped over `stripes` locks (rounded up to a power of
    /// two, clamped to `[1, 1024]`).
    pub fn new(stripes: usize) -> Self {
        let n = stripe_count(stripes);
        StripedMap {
            stripes: (0..n).map(|_| Mutex::new(IdSlab::new())).collect(),
            mask: (n - 1) as u64,
            shift: (n as u64).trailing_zeros(),
            len: AtomicUsize::new(0),
            contention: AtomicU64::new(0),
        }
    }

    /// Number of stripes.
    pub fn stripe_len(&self) -> usize {
        self.stripes.len()
    }

    #[inline]
    fn stripe_of(&self, id: SampleId) -> &Mutex<IdSlab<V>> {
        &self.stripes[(id.0 & self.mask) as usize]
    }

    /// The stripe-local key: the id with its stripe bits shifted away.
    #[inline]
    fn local_key(&self, id: SampleId) -> SampleId {
        SampleId(id.0 >> self.shift)
    }

    /// Reconstruct the global id from a stripe index and its local key.
    #[inline]
    fn global_id(&self, stripe: usize, local: SampleId) -> SampleId {
        SampleId((local.0 << self.shift) | stripe as u64)
    }

    /// Insert `id → value`. Returns the previous value if present.
    pub fn insert(&self, id: SampleId, value: V) -> Option<V> {
        let local = self.local_key(id);
        let prev = lock_counted(self.stripe_of(id), &self.contention).insert(local, value);
        if prev.is_none() {
            self.len.fetch_add(1, Ordering::Relaxed);
        }
        prev
    }

    /// Remove `id`. Returns its value if it was present.
    pub fn remove(&self, id: SampleId) -> Option<V> {
        let local = self.local_key(id);
        let prev = lock_counted(self.stripe_of(id), &self.contention).remove(local);
        if prev.is_some() {
            self.len.fetch_sub(1, Ordering::Relaxed);
        }
        prev
    }

    /// Whether `id` is present.
    pub fn contains(&self, id: SampleId) -> bool {
        lock_counted(self.stripe_of(id), &self.contention).contains_key(self.local_key(id))
    }

    /// A copy of `id`'s value, if present.
    pub fn get(&self, id: SampleId) -> Option<V>
    where
        V: Clone,
    {
        lock_counted(self.stripe_of(id), &self.contention)
            .get(self.local_key(id))
            .cloned()
    }

    /// Total entries across all stripes (counter, not a lock sweep).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Contended lock acquisitions observed so far.
    pub fn contended(&self) -> u64 {
        self.contention.load(Ordering::Relaxed)
    }

    /// Largest single-stripe population (stripe-balance gauge).
    pub fn max_stripe_population(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| lock_counted(s, &self.contention).len())
            .max()
            .unwrap_or(0)
    }

    /// Visit every entry, stripe by stripe in ascending stripe index,
    /// ids ascending within a stripe. Epoch-barrier use only: each
    /// stripe lock is held for the duration of its visit, and entries
    /// moving between stripes mid-walk (impossible — stripe is a pure
    /// function of id) or inserted behind the walk are the caller's
    /// concern.
    pub fn for_each(&self, mut f: impl FnMut(SampleId, &V)) {
        for (i, s) in self.stripes.iter().enumerate() {
            let guard = lock_counted(s, &self.contention);
            for (local, v) in guard.iter() {
                f(self.global_id(i, local), v);
            }
        }
    }

    /// All resident ids in ascending order (epoch-barrier use only).
    pub fn sorted_ids(&self) -> Vec<SampleId> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each(|id, _| out.push(id));
        out.sort_unstable();
        out
    }

    /// Internal consistency check (tests): the atomic length matches
    /// the sum of stripe populations and every local key round-trips
    /// through id reconstruction back onto its stripe.
    #[doc(hidden)]
    pub fn check_invariants(&self) -> bool {
        let mut total = 0;
        for (i, s) in self.stripes.iter().enumerate() {
            let guard = lock_counted(s, &self.contention);
            total += guard.len();
            if guard
                .keys()
                .any(|local| (self.global_id(i, local).0 & self.mask) as usize != i)
            {
                return false;
            }
        }
        total == self.len()
    }
}

/// Per-stripe state of the [`FreshPool`].
#[derive(Debug)]
struct FreshStripe {
    /// Un-accessed resident ids with O(1) random removal.
    fresh: Vec<SampleId>,
    /// local id → index into `fresh` (the position-map invariant the
    /// stress tests pin: `fresh[pos[local(id)]] == id` for every
    /// entry). Keyed by `id >> shift` so the slab stays dense.
    pos: IdSlab<usize>,
    /// The pool's stripe-count shift, for local-key computation.
    shift: u32,
}

impl FreshStripe {
    fn new(shift: u32) -> Self {
        FreshStripe {
            fresh: Vec::new(),
            pos: IdSlab::new(),
            shift,
        }
    }

    #[inline]
    fn local(&self, id: SampleId) -> SampleId {
        SampleId(id.0 >> self.shift)
    }

    fn swap_remove(&mut self, id: SampleId) -> bool {
        match self.pos.remove(self.local(id)) {
            None => false,
            Some(at) => {
                let last = self.fresh.len() - 1;
                self.fresh.swap(at, last);
                self.fresh.pop();
                if at < self.fresh.len() {
                    let moved = self.local(self.fresh[at]);
                    self.pos.insert(moved, at);
                }
                true
            }
        }
    }
}

/// The L-region substitution pool, striped like [`StripedMap`].
///
/// Holds resident-but-not-yet-accessed sample ids; a substitution draw
/// removes a uniformly random id from a random stripe (scanning
/// forward when the first stripe is empty), and marking a sample
/// accessed removes it from its stripe in O(log n).
#[derive(Debug)]
pub struct FreshPool {
    stripes: Box<[Mutex<FreshStripe>]>,
    mask: u64,
    len: AtomicUsize,
    contention: AtomicU64,
}

impl FreshPool {
    /// A pool striped over `stripes` locks (rounded up to a power of
    /// two, clamped to `[1, 1024]`).
    pub fn new(stripes: usize) -> Self {
        let n = stripe_count(stripes);
        let shift = (n as u64).trailing_zeros();
        FreshPool {
            stripes: (0..n)
                .map(|_| Mutex::new(FreshStripe::new(shift)))
                .collect(),
            mask: (n - 1) as u64,
            len: AtomicUsize::new(0),
            contention: AtomicU64::new(0),
        }
    }

    #[inline]
    fn stripe_of(&self, id: SampleId) -> &Mutex<FreshStripe> {
        &self.stripes[(id.0 & self.mask) as usize]
    }

    /// Add `id` to the pool if absent. Returns true when added.
    pub fn push(&self, id: SampleId) -> bool {
        let mut s = lock_counted(self.stripe_of(id), &self.contention);
        let local = s.local(id);
        if s.pos.contains_key(local) {
            return false;
        }
        let slot = s.fresh.len();
        s.pos.insert(local, slot);
        s.fresh.push(id);
        self.len.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Remove `id` (it was accessed or evicted). Returns true when it
    /// was in the pool.
    pub fn remove(&self, id: SampleId) -> bool {
        let removed = lock_counted(self.stripe_of(id), &self.contention).swap_remove(id);
        if removed {
            self.len.fetch_sub(1, Ordering::Relaxed);
        }
        removed
    }

    /// Draw (and remove) a substitution candidate: a uniformly random
    /// id from the first non-empty stripe at or after a random start.
    pub fn draw(&self, rng: &mut impl Rng) -> Option<SampleId> {
        if self.is_empty() {
            return None;
        }
        let start = rng.gen_range(0..self.stripes.len());
        for k in 0..self.stripes.len() {
            let i = (start + k) & self.mask as usize;
            let mut s = lock_counted(&self.stripes[i], &self.contention);
            if s.fresh.is_empty() {
                continue;
            }
            let at = rng.gen_range(0..s.fresh.len());
            let id = s.fresh[at];
            s.swap_remove(id);
            self.len.fetch_sub(1, Ordering::Relaxed);
            return Some(id);
        }
        None
    }

    /// Pool population (counter, not a lock sweep).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// True when no candidate is available.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Contended lock acquisitions observed so far.
    pub fn contended(&self) -> u64 {
        self.contention.load(Ordering::Relaxed)
    }

    /// Replace the pool contents with `ids` (epoch-barrier use only:
    /// the per-epoch fresh rebuild from the resident index).
    pub fn rebuild(&self, ids: impl IntoIterator<Item = SampleId>) {
        for s in self.stripes.iter() {
            let mut guard = lock_counted(s, &self.contention);
            guard.fresh.clear();
            guard.pos.clear();
        }
        self.len.store(0, Ordering::Relaxed);
        for id in ids {
            self.push(id);
        }
    }

    /// Internal consistency check (tests): position-map invariant per
    /// stripe and the atomic length matches the stripe sum.
    #[doc(hidden)]
    pub fn check_invariants(&self) -> bool {
        let mut total = 0;
        for (i, s) in self.stripes.iter().enumerate() {
            let guard = lock_counted(s, &self.contention);
            total += guard.fresh.len();
            if guard.pos.len() != guard.fresh.len() {
                return false;
            }
            for (local, &at) in guard.pos.iter() {
                let id = SampleId((local.0 << guard.shift) | i as u64);
                if guard.fresh.get(at) != Some(&id) || (id.0 & self.mask) as usize != i {
                    return false;
                }
            }
        }
        total == self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn striped_map_round_trips_and_balances() {
        let m: StripedMap<u64> = StripedMap::new(4);
        assert_eq!(m.stripe_len(), 4);
        for i in 0..64u64 {
            assert!(m.insert(SampleId(i), i * 10).is_none());
        }
        assert_eq!(m.len(), 64);
        assert!(m.contains(SampleId(7)));
        assert_eq!(m.insert(SampleId(7), 99), Some(70));
        assert_eq!(m.len(), 64, "overwrite keeps length");
        assert_eq!(m.remove(SampleId(7)), Some(99));
        assert!(!m.contains(SampleId(7)));
        assert_eq!(m.len(), 63);
        // Contiguous ids spread evenly: 4 stripes × 16 ids, minus the
        // removed one.
        assert_eq!(m.max_stripe_population(), 16);
        assert!(m.check_invariants());
        let ids = m.sorted_ids();
        assert_eq!(ids.len(), 63);
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn stripe_count_rounds_to_power_of_two() {
        assert_eq!(StripedMap::<()>::new(0).stripe_len(), 1);
        assert_eq!(StripedMap::<()>::new(3).stripe_len(), 4);
        assert_eq!(StripedMap::<()>::new(16).stripe_len(), 16);
        assert_eq!(StripedMap::<()>::new(100_000).stripe_len(), 1024);
    }

    #[test]
    fn fresh_pool_draw_removes_and_scans_stripes() {
        let p = FreshPool::new(4);
        let mut rng = StdRng::seed_from_u64(7);
        for i in 0..32u64 {
            assert!(p.push(SampleId(i)));
        }
        assert!(!p.push(SampleId(0)), "duplicate push is a no-op");
        assert_eq!(p.len(), 32);
        let mut drawn = std::collections::BTreeSet::new();
        for _ in 0..32 {
            let id = p.draw(&mut rng).expect("pool has candidates");
            assert!(drawn.insert(id), "{id:?} drawn twice");
            assert!(p.check_invariants());
        }
        assert!(p.is_empty());
        assert!(p.draw(&mut rng).is_none());
    }

    #[test]
    fn fresh_pool_remove_keeps_position_invariant() {
        let p = FreshPool::new(2);
        for i in 0..16u64 {
            p.push(SampleId(i));
        }
        for i in (0..16u64).step_by(3) {
            assert!(p.remove(SampleId(i)));
            assert!(p.check_invariants());
        }
        assert!(!p.remove(SampleId(0)), "already removed");
        assert_eq!(p.len(), 16 - 6);
    }

    #[test]
    fn fresh_pool_rebuild_replaces_contents() {
        let p = FreshPool::new(4);
        p.push(SampleId(1));
        p.push(SampleId(2));
        p.rebuild((10..20).map(SampleId));
        assert_eq!(p.len(), 10);
        assert!(!p.remove(SampleId(1)), "old contents gone");
        assert!(p.remove(SampleId(15)));
        assert!(p.check_invariants());
    }
}
