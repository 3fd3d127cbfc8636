//! The sample→node directory and its change vocabulary.
//!
//! The paper shares one key-value directory among all training nodes so
//! cached data is never duplicated (§III-E). In the sharded service the
//! directory is physically partitioned: each live node hosts one
//! [`DirectoryKv`] shard and the partitioner (see
//! [`crate::service::Partitioner`]) routes every sample to exactly one
//! shard, so the counters below aggregate across shards exactly as they
//! did for the old single-map directory.

use crate::dense::IdSlab;
use icache_obs::{Obs, Observable, TraceEvent};
use icache_types::{NodeId, SampleId};

/// What a [`DirectoryKv::insert`] actually did.
///
/// The old API returned `Option<NodeId>` (the previous owner), which
/// conflated three cases the counters and callers kept re-deriving:
/// a fresh insert, a remap to a different node, and a same-owner no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirectoryChange {
    /// The sample had no owner; a fresh mapping was added.
    Inserted,
    /// The sample moved to a different node (counted as a remap and
    /// traced as `directory_remap`).
    Remapped {
        /// The node that owned the sample before this insert.
        from: NodeId,
    },
    /// The mapping already named this owner; nothing changed.
    Unchanged,
}

impl DirectoryChange {
    /// The previous owner, when there was one.
    pub fn previous(self) -> Option<NodeId> {
        match self {
            DirectoryChange::Inserted => None,
            DirectoryChange::Remapped { from } => Some(from),
            DirectoryChange::Unchanged => None,
        }
    }
}

/// The distributed key-value directory: which node caches which sample.
///
/// The paper shares one such store among all training nodes so that cached
/// data is never duplicated: a sample cached anywhere is read from that
/// node instead of storage.
///
/// Directory traffic is recorded in the attached [`Obs`] registry under
/// `dist.directory.lookups` / `.inserts` / `.removes` / `.remaps`. Fresh
/// inserts and successful removes are what get counted, so at any point
/// `len() == inserts − removes`; an insert that overwrites an existing
/// mapping with a different node counts as a *remap* (and emits a
/// [`TraceEvent::DirectoryRemap`]), not as an insert.
///
/// `DirectoryKv` is deliberately **not** `Clone`: a clone would share the
/// original's `Obs` handle and double-count directory traffic the moment
/// both copies serve lookups. Use [`DirectoryKv::detach`] to copy the
/// mapping with a fresh detached observability handle.
///
/// # Examples
///
/// ```
/// use icache_core::{DirectoryChange, DirectoryKv};
/// use icache_obs::{Obs, Observable};
/// use icache_types::{NodeId, SampleId};
///
/// let obs = Obs::new();
/// let mut dir = DirectoryKv::new();
/// dir.set_obs(obs.clone());
/// assert_eq!(dir.insert(SampleId(5), NodeId(1)), DirectoryChange::Inserted);
/// assert_eq!(dir.lookup(SampleId(5)), Some(NodeId(1)));
/// // Overwriting with a different node is a remap, not a fresh insert.
/// assert_eq!(
///     dir.insert(SampleId(5), NodeId(2)),
///     DirectoryChange::Remapped { from: NodeId(1) }
/// );
/// assert_eq!(obs.counter("dist.directory.inserts"), 1);
/// assert_eq!(obs.counter("dist.directory.remaps"), 1);
/// dir.remove(SampleId(5));
/// assert_eq!(dir.lookup(SampleId(5)), None);
/// assert_eq!(
///     dir.len() as u64,
///     obs.counter("dist.directory.inserts") - obs.counter("dist.directory.removes")
/// );
/// ```
#[derive(Debug)]
pub struct DirectoryKv {
    /// One slot per sample id up to the largest this shard has hosted:
    /// lookups are one array read, iteration ascends by id.
    map: IdSlab<NodeId>,
    obs: DirectoryObs,
}

icache_obs::obs_handles! {
    struct DirectoryObs {
        lookups: Counter = DIST_DIRECTORY_LOOKUPS,
        inserts: Counter = DIST_DIRECTORY_INSERTS,
        removes: Counter = DIST_DIRECTORY_REMOVES,
        remaps: Counter = DIST_DIRECTORY_REMAPS,
    }
}

impl Default for DirectoryKv {
    fn default() -> Self {
        DirectoryKv {
            map: IdSlab::new(),
            obs: DirectoryObs::new(Obs::noop()),
        }
    }
}

impl Observable for DirectoryKv {
    fn set_obs(&mut self, obs: Obs) {
        self.obs = DirectoryObs::new(obs);
    }
}

impl DirectoryKv {
    /// An empty directory.
    pub fn new() -> Self {
        DirectoryKv::default()
    }

    /// Copy the mapping into a new directory with a fresh detached
    /// [`Obs::noop`] handle.
    ///
    /// This is the only sanctioned way to duplicate a directory: the
    /// copy starts from zero counters and records nothing into the
    /// original's registry, so diagnostic copies can never double-count
    /// live traffic.
    pub fn detach(&self) -> Self {
        DirectoryKv {
            map: self.map.clone(),
            obs: DirectoryObs::new(Obs::noop()),
        }
    }

    /// Number of registered samples.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no samples are registered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The node caching `id`, if any.
    pub fn lookup(&self, id: SampleId) -> Option<NodeId> {
        self.obs.lookups.inc();
        self.map.get(id).copied()
    }

    /// [`DirectoryKv::lookup`] without touching the `lookups` counter —
    /// for internal reconciliation reads (repartitioning, recovery
    /// anti-entropy) that are not fetch-path directory traffic.
    pub fn peek(&self, id: SampleId) -> Option<NodeId> {
        self.map.get(id).copied()
    }

    /// Register `id` as cached on `node`.
    ///
    /// Overwriting an existing mapping with a *different* node counts as
    /// a remap and emits [`TraceEvent::DirectoryRemap`]; re-inserting the
    /// same owner is a no-op for the counters.
    pub fn insert(&mut self, id: SampleId, node: NodeId) -> DirectoryChange {
        let prev = self.map.insert(id, node);
        match prev {
            None => {
                self.obs.inserts.inc();
                DirectoryChange::Inserted
            }
            Some(old) if old != node => {
                self.obs.remaps.inc();
                self.obs.emit(TraceEvent::DirectoryRemap {
                    sample: id.0,
                    from_node: old.0 as u64,
                    to_node: node.0 as u64,
                });
                DirectoryChange::Remapped { from: old }
            }
            Some(_) => DirectoryChange::Unchanged,
        }
    }

    /// Unregister `id`; returns the previous owner. Removing a missing
    /// sample is a no-op for the counters.
    pub fn remove(&mut self, id: SampleId) -> Option<NodeId> {
        let prev = self.map.remove(id);
        if prev.is_some() {
            self.obs.removes.inc();
        }
        prev
    }

    /// Iterate `(sample, owner)` entries in sample order.
    pub fn entries(&self) -> impl Iterator<Item = (SampleId, NodeId)> + '_ {
        self.map.iter().map(|(s, &n)| (s, n))
    }

    /// Install a mapping without touching any counter — used when a
    /// repartition moves an entry between shards (the entry itself is
    /// not new; only its metadata host changed).
    pub(crate) fn adopt(&mut self, id: SampleId, node: NodeId) {
        self.map.insert(id, node);
    }

    /// Drain the whole mapping (counter-neutral) in sample order,
    /// leaving the shard empty — the first step of a repartition.
    pub(crate) fn take_map(&mut self) -> Vec<(SampleId, NodeId)> {
        let drained = self.entries().collect();
        self.map.clear();
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detach_copies_the_map_but_not_the_registry() {
        let obs = Obs::new();
        let mut dir = DirectoryKv::new().with_obs(obs.clone());
        dir.insert(SampleId(7), NodeId(1));
        let copy = dir.detach();
        assert_eq!(copy.len(), 1);
        assert_eq!(copy.peek(SampleId(7)), Some(NodeId(1)));
        // Counting traffic on the copy must not reach the original registry.
        assert_eq!(copy.lookup(SampleId(7)), Some(NodeId(1)));
        assert_eq!(obs.counter("dist.directory.lookups"), 0);
    }

    #[test]
    fn peek_and_adopt_are_counter_neutral() {
        let obs = Obs::new();
        let mut dir = DirectoryKv::new().with_obs(obs.clone());
        dir.adopt(SampleId(2), NodeId(1));
        assert_eq!(dir.peek(SampleId(2)), Some(NodeId(1)));
        assert_eq!(dir.len(), 1);
        assert_eq!(obs.counter("dist.directory.inserts"), 0);
        assert_eq!(obs.counter("dist.directory.lookups"), 0);
        let drained = dir.take_map();
        assert_eq!(drained.len(), 1);
        assert!(dir.is_empty());
        assert_eq!(obs.counter("dist.directory.removes"), 0);
    }

    #[test]
    fn entries_iterate_in_sample_order() {
        let mut dir = DirectoryKv::new();
        dir.adopt(SampleId(9), NodeId(0));
        dir.adopt(SampleId(3), NodeId(1));
        let got: Vec<_> = dir.entries().collect();
        assert_eq!(
            got,
            vec![(SampleId(3), NodeId(1)), (SampleId(9), NodeId(0))]
        );
    }

    #[test]
    fn directory_insert_overwrite_reports_remap_and_traces_it() {
        let obs = Obs::new();
        let mut dir = DirectoryKv::new().with_obs(obs.clone());

        assert_eq!(
            dir.insert(SampleId(9), NodeId(0)),
            DirectoryChange::Inserted
        );
        assert_eq!(obs.counter("dist.directory.inserts"), 1);
        assert_eq!(obs.counter("dist.directory.remaps"), 0);

        // Re-inserting the same owner is idempotent for the counters.
        assert_eq!(
            dir.insert(SampleId(9), NodeId(0)),
            DirectoryChange::Unchanged
        );
        assert_eq!(obs.counter("dist.directory.inserts"), 1);
        assert_eq!(obs.counter("dist.directory.remaps"), 0);
        assert_eq!(obs.trace_len(), 0);

        // Overwriting with a different node reports the previous owner and
        // emits a remap event (the silently-overwritten-mapping fix).
        let change = dir.insert(SampleId(9), NodeId(2));
        assert_eq!(change, DirectoryChange::Remapped { from: NodeId(0) });
        assert_eq!(change.previous(), Some(NodeId(0)));
        assert_eq!(DirectoryChange::Inserted.previous(), None);
        assert_eq!(dir.lookup(SampleId(9)), Some(NodeId(2)));
        assert_eq!(obs.counter("dist.directory.remaps"), 1);
        let jsonl = obs.trace_jsonl();
        let line = jsonl.lines().last().expect("remap event recorded");
        let v = icache_obs::Json::parse(line).unwrap();
        assert_eq!(v["event"].as_str(), Some("directory_remap"));
        assert_eq!(v["sample"].as_u64(), Some(9));
        assert_eq!(v["from_node"].as_u64(), Some(0));
        assert_eq!(v["to_node"].as_u64(), Some(2));

        assert_eq!(dir.len(), 1, "remap does not grow the directory");
        assert_eq!(
            dir.len() as u64,
            obs.counter("dist.directory.inserts") - obs.counter("dist.directory.removes")
        );
    }

    #[test]
    fn directory_remove_missing_is_a_counted_noop() {
        let obs = Obs::new();
        let mut dir = DirectoryKv::new().with_obs(obs.clone());
        assert_eq!(dir.remove(SampleId(1)), None);
        assert_eq!(
            obs.counter("dist.directory.removes"),
            0,
            "missing removes must not distort the len == inserts - removes invariant"
        );
        dir.insert(SampleId(1), NodeId(0));
        assert_eq!(dir.remove(SampleId(1)), Some(NodeId(0)));
        assert_eq!(obs.counter("dist.directory.removes"), 1);
        assert!(dir.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u64, u32),
        Remove(u64),
        Lookup(u64),
        Peek(u64),
        Adopt(u64, u32),
        TakeMap,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..150, 0u32..4).prop_map(|(id, n)| Op::Insert(id, n)),
            (0u64..150, 0u32..4).prop_map(|(id, n)| Op::Insert(id, n)),
            (0u64..150).prop_map(Op::Remove),
            (0u64..150).prop_map(Op::Lookup),
            (0u64..150).prop_map(Op::Peek),
            (0u64..150, 0u32..4).prop_map(|(id, n)| Op::Adopt(id, n)),
            // About one op in fifty drains the shard, so it has time to fill.
            (0u64..150, 0u32..7).prop_map(|(id, roll)| match roll {
                0 => Op::TakeMap,
                _ => Op::Peek(id),
            }),
        ]
    }

    /// The counters as the type docs define them, kept by the oracle.
    #[derive(Debug, Default, PartialEq)]
    struct Counters {
        lookups: u64,
        inserts: u64,
        removes: u64,
        remaps: u64,
    }

    proptest! {
        /// Model-based differential in the style of `dense.rs`: a
        /// [`DirectoryKv`] driven by an arbitrary op sequence returns
        /// what a `BTreeMap` oracle returns, iterates in the oracle's
        /// order after every op, and counts exactly the traffic the
        /// type docs say it counts.
        #[test]
        fn directory_matches_btreemap(ops in proptest::collection::vec(op_strategy(), 1..300)) {
            let obs = Obs::new();
            let mut dir = DirectoryKv::new().with_obs(obs.clone());
            let mut model: BTreeMap<SampleId, NodeId> = BTreeMap::new();
            let mut want = Counters::default();
            for op in ops {
                match op {
                    Op::Insert(id, n) => {
                        let (id, node) = (SampleId(id), NodeId(n));
                        let change = match model.insert(id, node) {
                            None => {
                                want.inserts += 1;
                                DirectoryChange::Inserted
                            }
                            Some(old) if old != node => {
                                want.remaps += 1;
                                DirectoryChange::Remapped { from: old }
                            }
                            Some(_) => DirectoryChange::Unchanged,
                        };
                        prop_assert_eq!(dir.insert(id, node), change);
                    }
                    Op::Remove(id) => {
                        let prev = model.remove(&SampleId(id));
                        want.removes += u64::from(prev.is_some());
                        prop_assert_eq!(dir.remove(SampleId(id)), prev);
                    }
                    Op::Lookup(id) => {
                        want.lookups += 1;
                        prop_assert_eq!(dir.lookup(SampleId(id)), model.get(&SampleId(id)).copied());
                    }
                    Op::Peek(id) => {
                        prop_assert_eq!(dir.peek(SampleId(id)), model.get(&SampleId(id)).copied());
                    }
                    Op::Adopt(id, n) => {
                        dir.adopt(SampleId(id), NodeId(n));
                        model.insert(SampleId(id), NodeId(n));
                    }
                    Op::TakeMap => {
                        let drained: Vec<_> = std::mem::take(&mut model).into_iter().collect();
                        prop_assert_eq!(dir.take_map(), drained);
                    }
                }
                prop_assert_eq!(dir.len(), model.len());
                prop_assert_eq!(dir.is_empty(), model.is_empty());
                let want_entries: Vec<_> = model.iter().map(|(&s, &n)| (s, n)).collect();
                prop_assert_eq!(dir.entries().collect::<Vec<_>>(), want_entries.clone());
                prop_assert_eq!(dir.detach().entries().collect::<Vec<_>>(), want_entries);
                let got = Counters {
                    lookups: obs.counter("dist.directory.lookups"),
                    inserts: obs.counter("dist.directory.inserts"),
                    removes: obs.counter("dist.directory.removes"),
                    remaps: obs.counter("dist.directory.remaps"),
                };
                prop_assert_eq!(&got, &want);
            }
        }
    }
}
