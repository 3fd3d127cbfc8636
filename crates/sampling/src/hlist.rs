//! The H-list: the client's record of high-importance samples.

use crate::ImportanceTable;
use icache_types::{IdSet, ImportanceValue, SampleId};
use std::sync::Arc;

/// One `<ID, IV>` vector entry of the H-list (both 64-bit, as in §III-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HListEntry {
    /// Sample identity.
    pub id: SampleId,
    /// Importance value at the time the H-list was built.
    pub iv: ImportanceValue,
}

/// The H-list a client module maintains and the cache manager periodically
/// pulls: the ids and importance values of the samples currently considered
/// *H-samples* (paper §III-A).
///
/// Both per-sample queries are O(1) whatever the list's length (by default
/// half the dataset, `h_list_fraction = 0.5`): [`HList::contains`] reads
/// one bit of a bitmap — Algorithm 1 asks it for every sample of every
/// batch — and [`HList::importance`] reads one slot of a dense id→rank
/// index, which the manager consults on every H-miss.
///
/// An `HList` is immutable once built and its payload sits behind an
/// [`Arc`], so `clone()` is a pointer copy: one list broadcast to every
/// node of a cluster is stored once.
///
/// # Examples
///
/// ```
/// use icache_sampling::{HList, ImportanceTable};
/// use icache_types::SampleId;
///
/// let mut t = ImportanceTable::new(100);
/// for i in 0..100 {
///     t.record_loss(SampleId(i), i as f64);
/// }
/// let hl = HList::top_fraction(&t, 0.1);
/// assert_eq!(hl.len(), 10);
/// assert!(hl.contains(SampleId(99)), "highest-loss sample is an H-sample");
/// assert!(!hl.contains(SampleId(0)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HList(Arc<Payload>);

#[derive(Debug, PartialEq)]
struct Payload {
    entries: Vec<HListEntry>,
    /// Derivable from `rank`, kept because every fetch asks `contains`:
    /// a bit of this set stays cache-resident where a 4-byte rank slot per
    /// id does not (`replay-hot` / `replay-cold` ran ~4 % slower without).
    members: IdSet,
    /// `rank[id]` is the 1-based position of `id` in `entries`, 0 when
    /// `id` is not an H-sample; one slot per id of the universe.
    rank: Vec<u32>,
}

impl HList {
    /// An empty H-list over a universe of `num_samples` ids.
    pub fn empty(num_samples: u64) -> Self {
        Self::from_ranked(Vec::new(), num_samples)
    }

    /// Index `entries` (already in descending importance order, ids
    /// unique and below `num_samples`).
    fn from_ranked(entries: Vec<HListEntry>, num_samples: u64) -> Self {
        let mut members = IdSet::new(num_samples);
        let mut rank = vec![0u32; num_samples as usize];
        for (pos, e) in entries.iter().enumerate() {
            members.insert(e.id);
            rank[e.id.index()] = u32::try_from(pos + 1).expect("H-list ranks fit in 32 bits");
        }
        HList(Arc::new(Payload {
            entries,
            members,
            rank,
        }))
    }

    /// Build the H-list as the top `fraction` of samples by importance.
    ///
    /// `fraction` is clamped to `[0, 1]`. Ties break toward lower ids,
    /// mirroring [`ImportanceTable::ranked_ids`].
    pub fn top_fraction(table: &ImportanceTable, fraction: f64) -> Self {
        let fraction = fraction.clamp(0.0, 1.0);
        let k = ((table.len() as f64) * fraction).round() as usize;
        Self::top_k(table, k)
    }

    /// Build the H-list as the `k` most important samples: the first `k`
    /// of [`ImportanceTable::ranked_ids`], found by partitioning around
    /// the `k`-th and sorting only the top part.
    pub fn top_k(table: &ImportanceTable, k: usize) -> Self {
        let k = k.min(table.len() as usize);
        let mut ids: Vec<SampleId> = (0..table.len()).map(SampleId).collect();
        let by_rank = |a: &SampleId, b: &SampleId| table.rank_order(*a, *b);
        if 0 < k && k < ids.len() {
            ids.select_nth_unstable_by(k - 1, by_rank);
        }
        ids.truncate(k);
        ids.sort_unstable_by(by_rank);
        let entries = ids
            .into_iter()
            .map(|id| HListEntry {
                id,
                iv: table.value(id),
            })
            .collect();
        Self::from_ranked(entries, table.len())
    }

    /// Number of H-samples.
    pub fn len(&self) -> usize {
        self.0.entries.len()
    }

    /// True when there are no H-samples.
    pub fn is_empty(&self) -> bool {
        self.0.entries.is_empty()
    }

    /// O(1) membership test: is `id` an H-sample?
    #[inline]
    pub fn contains(&self, id: SampleId) -> bool {
        self.0.members.contains(id)
    }

    /// The recorded importance of `id`, if it is an H-sample — O(1): one
    /// read of the rank index, then one of the entry it names.
    #[inline]
    pub fn importance(&self, id: SampleId) -> Option<ImportanceValue> {
        let rank = *self.0.rank.get(id.index())?;
        let pos = (rank as usize).checked_sub(1)?;
        Some(self.0.entries[pos].iv)
    }

    /// Entries in descending importance order.
    pub fn entries(&self) -> &[HListEntry] {
        &self.0.entries
    }

    /// Iterate over the H-sample ids in descending importance order.
    pub fn ids(&self) -> impl Iterator<Item = SampleId> + '_ {
        self.0.entries.iter().map(|e| e.id)
    }

    /// The smallest importance value on the list (the admission bar).
    pub fn min_importance(&self) -> Option<ImportanceValue> {
        self.0.entries.last().map(|e| e.iv)
    }

    /// Approximate space of the ID/IV vectors in bytes (16 B per entry,
    /// §III-A's overhead accounting).
    pub fn space_bytes(&self) -> u64 {
        self.0.entries.len() as u64 * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(n: u64) -> ImportanceTable {
        let mut t = ImportanceTable::new(n);
        for i in 0..n {
            t.record_loss(SampleId(i), i as f64);
        }
        t
    }

    #[test]
    fn top_fraction_selects_highest_losses() {
        let hl = HList::top_fraction(&table(100), 0.2);
        assert_eq!(hl.len(), 20);
        for i in 80..100 {
            assert!(hl.contains(SampleId(i)));
        }
        for i in 0..80 {
            assert!(!hl.contains(SampleId(i)));
        }
    }

    #[test]
    fn entries_are_sorted_descending() {
        let hl = HList::top_fraction(&table(50), 0.5);
        let ivs: Vec<f64> = hl.entries().iter().map(|e| e.iv.get()).collect();
        for w in ivs.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert_eq!(hl.min_importance().unwrap().get(), 25.0);
    }

    #[test]
    fn fraction_is_clamped() {
        assert_eq!(HList::top_fraction(&table(10), 2.0).len(), 10);
        assert_eq!(HList::top_fraction(&table(10), -1.0).len(), 0);
    }

    #[test]
    fn importance_lookup_matches_table() {
        let t = table(30);
        let hl = HList::top_fraction(&t, 0.5);
        assert_eq!(hl.importance(SampleId(29)), Some(t.value(SampleId(29))));
        assert_eq!(hl.importance(SampleId(0)), None);
    }

    #[test]
    fn space_overhead_is_16_bytes_per_entry() {
        let hl = HList::top_k(&table(100), 25);
        assert_eq!(hl.space_bytes(), 400);
    }

    #[test]
    fn empty_hlist_contains_nothing() {
        let hl = HList::empty(10);
        assert!(hl.is_empty());
        assert!(!hl.contains(SampleId(0)));
        assert_eq!(hl.importance(SampleId(0)), None);
        assert_eq!(hl.importance(SampleId(10)), None, "outside the universe");
        assert_eq!(hl.min_importance(), None);
    }

    #[test]
    fn top_k_is_a_prefix_of_ranked_ids_under_heavy_ties() {
        // Three distinct losses over 97 ids plus a block left at the
        // prior: almost every comparison is decided by the id tie-break.
        let mut t = ImportanceTable::new(97);
        for i in 0..80 {
            t.record_loss(SampleId(i), (i % 3) as f64);
        }
        let ranked = t.ranked_ids();
        for k in 0..=ranked.len() + 1 {
            let got: Vec<SampleId> = HList::top_k(&t, k).ids().collect();
            assert_eq!(got, ranked[..k.min(ranked.len())], "k = {k}");
        }
    }

    #[test]
    fn clones_share_one_payload() {
        let hl = HList::top_k(&table(100), 25);
        let copy = hl.clone();
        assert_eq!(copy, hl);
        assert!(std::ptr::eq(copy.entries(), hl.entries()));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Differential against the linear scan the rank index replaced:
        /// for every id of the universe (and a few beyond it) the two
        /// agree, `contains` is `importance().is_some()`, and a clone is
        /// indistinguishable from its original.
        #[test]
        fn hlist_matches_linear_scan_oracle(
            // A loss of 6 stands for "never trained": the id keeps the prior.
            losses in proptest::collection::vec(0u8..7, 0..120),
            percent in 0u32..=100,
        ) {
            let n = losses.len() as u64;
            let mut t = ImportanceTable::new(n);
            for (i, &loss) in losses.iter().enumerate() {
                if loss < 6 {
                    t.record_loss(SampleId(i as u64), f64::from(loss));
                }
            }
            let hl = HList::top_fraction(&t, f64::from(percent) / 100.0);
            let copy = hl.clone();
            prop_assert_eq!(&copy, &hl);
            let mut members = 0;
            for id in (0..n + 3).map(SampleId) {
                let oracle = hl.entries().iter().find(|e| e.id == id).map(|e| e.iv);
                prop_assert_eq!(hl.importance(id), oracle);
                prop_assert_eq!(copy.importance(id), oracle);
                prop_assert_eq!(hl.contains(id), oracle.is_some());
                members += usize::from(oracle.is_some());
            }
            prop_assert_eq!(members, hl.len(), "entry ids are unique");
        }
    }
}
