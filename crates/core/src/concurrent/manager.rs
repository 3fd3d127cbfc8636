//! The lock-striped concurrent cache manager.

use super::{lock_counted, stripe_count, AtomicCacheStats, FreshPool, StripedMap};
use crate::stats::CacheObs;
use crate::{
    CacheStats, CacheSystem, Fetch, FetchOutcome, HHeap, IcacheConfig, MultiJobCoordinator,
    Packager, Substitution,
};
use icache_obs::Obs;
use icache_sampling::HList;
use icache_storage::StorageBackend;
use icache_types::{
    ByteSize, Dataset, Epoch, Error, ImportanceValue, JobId, Result, SampleId, SimDuration, SimTime,
};
use rand::rngs::StdRng;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

/// A cache node servable by many loader threads concurrently.
///
/// Unlike [`CacheSystem`], fetches take `&self` (the structures are
/// internally synchronized) plus the calling thread's own storage
/// handle and RNG — each loader thread owns a deterministic RNG
/// stream, so a run is reproducible *given* a thread interleaving,
/// and the aggregate counters are exact regardless of interleaving.
pub trait ConcurrentCache: Send + Sync {
    /// System name for reports.
    fn name(&self) -> &str;

    /// Fetch `id` (of `size` bytes) for `job` at the calling thread's
    /// virtual time `now`.
    fn fetch(
        &self,
        job: JobId,
        id: SampleId,
        size: ByteSize,
        now: SimTime,
        storage: &mut dyn StorageBackend,
        rng: &mut StdRng,
    ) -> Fetch;

    /// Deliver a fresh H-list (epoch write barrier).
    fn update_hlist(&self, job: JobId, hlist: &HList);

    /// Start an epoch (epoch write barrier).
    fn on_epoch_start(&self, job: JobId, epoch: Epoch);

    /// End an epoch (epoch write barrier; publishes metrics).
    fn on_epoch_end(&self, job: JobId, epoch: Epoch);

    /// Attach an observability handle.
    fn set_obs(&self, obs: Obs);

    /// Aggregate counters (exact; see [`AtomicCacheStats`]).
    fn stats(&self) -> CacheStats;

    /// Current occupancy in bytes.
    fn used_bytes(&self) -> ByteSize;

    /// Configured capacity in bytes.
    fn capacity(&self) -> ByteSize;

    /// Contended lock acquisitions observed so far (all locks).
    fn contended(&self) -> u64;
}

/// Any sequential [`CacheSystem`] behind one coarse lock.
///
/// This is the contention baseline the striped manager is measured
/// against, and how single-lock baselines (LRU, Quiver, …) join a
/// multi-threaded replay: correctness is free, scalability is not —
/// every fetch serializes on the one mutex.
pub struct MutexCache {
    name: String,
    inner: Mutex<Box<dyn CacheSystem + Send>>,
    contention: AtomicU64,
}

impl MutexCache {
    /// Wrap `inner` behind a single lock.
    pub fn new(inner: Box<dyn CacheSystem + Send>) -> Self {
        MutexCache {
            name: inner.name().to_string(),
            inner: Mutex::new(inner),
            contention: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for MutexCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MutexCache")
            .field("name", &self.name)
            .finish()
    }
}

impl ConcurrentCache for MutexCache {
    fn name(&self) -> &str {
        &self.name
    }

    fn fetch(
        &self,
        job: JobId,
        id: SampleId,
        size: ByteSize,
        now: SimTime,
        storage: &mut dyn StorageBackend,
        _rng: &mut StdRng,
    ) -> Fetch {
        lock_counted(&self.inner, &self.contention).fetch(job, id, size, now, storage)
    }

    fn update_hlist(&self, job: JobId, hlist: &HList) {
        lock_counted(&self.inner, &self.contention).update_hlist(job, hlist);
    }

    fn on_epoch_start(&self, job: JobId, epoch: Epoch) {
        lock_counted(&self.inner, &self.contention).on_epoch_start(job, epoch);
    }

    fn on_epoch_end(&self, job: JobId, epoch: Epoch) {
        lock_counted(&self.inner, &self.contention).on_epoch_end(job, epoch);
    }

    fn set_obs(&self, obs: Obs) {
        lock_counted(&self.inner, &self.contention).set_obs(obs);
    }

    fn stats(&self) -> CacheStats {
        lock_counted(&self.inner, &self.contention).stats()
    }

    fn used_bytes(&self) -> ByteSize {
        lock_counted(&self.inner, &self.contention).used_bytes()
    }

    fn capacity(&self) -> ByteSize {
        lock_counted(&self.inner, &self.contention).capacity()
    }

    fn contended(&self) -> u64 {
        self.contention.load(Ordering::Relaxed)
    }
}

/// State owned by the (logical) asynchronous loading thread: package
/// construction, the package FIFO, and in-flight loads. One lock —
/// loads are rare next to fetches, and `try_lock` callers skip the
/// tick entirely when another thread is already driving the loader.
#[derive(Debug)]
struct LoaderState {
    packager: Packager,
    /// Ids eligible for package fill (everything not on any H-list).
    l_pool: Vec<SampleId>,
    /// Loaded packages in FIFO order with the ids each one *added*.
    fifo: VecDeque<(Vec<SampleId>, ByteSize)>,
    /// Packages read but not yet arrived (ready_at in the future).
    pending: VecDeque<(crate::Package, SimTime)>,
    /// Loading-thread pacing horizon (virtual time).
    busy: SimTime,
    /// Packages built since the last publish and their total bytes
    /// (`lcache.packages_built` / `lcache.package_bytes`).
    packages_built: u64,
    package_bytes: u64,
}

/// The attached registry and what has already been published to it
/// (the registry is add-only, so counter publishes are deltas).
#[derive(Debug)]
struct Published {
    obs: CacheObs,
    stats: CacheStats,
    contention: u64,
}

/// The lock-striped concurrent counterpart of [`crate::IcacheManager`].
///
/// Serves the single-tenant replay shape: two regions, H-heap
/// admission, L-region packages with `ST_LC` substitution, per-epoch
/// rebalance. The advanced sequential features (multi-job probing, PM
/// victim tier, `ST_HC` substitution, per-job H-list filters) stay on
/// the sequential manager — [`ConcurrentManager::new`] rejects configs
/// that ask for them.
///
/// Concurrency contract (DESIGN.md §8):
///
/// * fetches hold the epoch gate's **read** lock; `update_hlist` /
///   `on_epoch_start` / `on_epoch_end` hold **write** (stop-the-world);
/// * the gate *carries* the current H-list, so H/L classification and
///   admission importance are plain reads under the guard a fetch
///   already holds;
/// * resident membership is striped ([`StripedMap`], [`FreshPool`]),
///   counters are atomics ([`AtomicCacheStats`]);
/// * H-region admissions (the multi-victim eviction loop) serialize on
///   one admit lock, which owns the H-heap — hits stay stripe-local;
///   misses already pay a storage round trip, so the admit lock is off
///   the fast path;
/// * per-event traces are **not** emitted: unlike the sequential
///   manager, only counters and gauges are recorded, published at
///   epoch boundaries and on [`ConcurrentCache::set_obs`].
#[derive(Debug)]
pub struct ConcurrentManager {
    config: IcacheConfig,
    dataset: Dataset,
    stripes: usize,
    /// Epoch gate: fetches read, epoch-boundary operations write. It
    /// holds the current H-list (`None` during warm-up): which ids are
    /// H-samples and at what admission importance.
    gate: RwLock<Option<HList>>,
    // H region.
    h_items: StripedMap<ByteSize>,
    h_used: AtomicU64,
    h_capacity: AtomicU64,
    /// The H-heap, owned by the admission lock: the evict-or-restore
    /// loop is serial (Algorithm 1), so the heap needs no lock of its
    /// own.
    admit: Mutex<HHeap>,
    // L region.
    l_resident: StripedMap<ByteSize>,
    l_fresh: FreshPool,
    l_used: AtomicU64,
    l_capacity: AtomicU64,
    loader: Mutex<LoaderState>,
    missed: Mutex<VecDeque<SampleId>>,
    // Counters.
    stats: AtomicCacheStats,
    epoch_h_accesses: AtomicU64,
    epoch_l_accesses: AtomicU64,
    /// Contended acquisitions of the admit/loader/missed locks (stripe
    /// locks count their own; [`ConcurrentCache::contended`] sums all).
    own_contention: AtomicU64,
    published: Mutex<Published>,
}

impl ConcurrentManager {
    /// Build a striped manager for `dataset` with `config`, spreading
    /// each region over `stripes` locks (rounded up to a power of two).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for invalid capacities or
    /// bandwidths (as [`crate::IcacheManager::new`]), and for features
    /// the concurrent path does not serve: `multi_job`, `pm_tier`,
    /// `hlist_filter`, and `ST_HC` substitution.
    pub fn new(config: IcacheConfig, dataset: &Dataset, stripes: usize) -> Result<Self> {
        if config.multi_job {
            return Err(Error::invalid_config(
                "multi_job",
                "not served by ConcurrentManager; use the sequential IcacheManager",
            ));
        }
        if config.pm_tier.is_some() {
            return Err(Error::invalid_config(
                "pm_tier",
                "not served by ConcurrentManager; use the sequential IcacheManager",
            ));
        }
        if config.hlist_filter.is_some() {
            return Err(Error::invalid_config(
                "hlist_filter",
                "not served by ConcurrentManager; use the sequential IcacheManager",
            ));
        }
        if config.substitution == Substitution::FromH {
            return Err(Error::invalid_config(
                "substitution",
                "ST_HC is not served by ConcurrentManager; use the sequential IcacheManager",
            ));
        }
        config.validate()?;
        // `multi_job` is refused above, but its knobs are still checked
        // the way the sequential manager checks them.
        MultiJobCoordinator::new(
            dataset.len(),
            config.benefit_threshold,
            config.probe_samples,
        )?;
        let (h_capacity, l_capacity) = config.initial_regions();
        let n = stripe_count(stripes);
        Ok(ConcurrentManager {
            stripes: n,
            gate: RwLock::new(None),
            h_items: StripedMap::new(n),
            h_used: AtomicU64::new(0),
            h_capacity: AtomicU64::new(h_capacity.as_u64()),
            admit: Mutex::new(HHeap::new()),
            l_resident: StripedMap::new(n),
            l_fresh: FreshPool::new(n),
            l_used: AtomicU64::new(0),
            l_capacity: AtomicU64::new(l_capacity.as_u64()),
            loader: Mutex::new(LoaderState {
                packager: Packager::new(config.package_size, config.seed ^ 0xFACC)?,
                l_pool: dataset.ids().collect(),
                fifo: VecDeque::new(),
                pending: VecDeque::new(),
                busy: SimTime::ZERO,
                packages_built: 0,
                package_bytes: 0,
            }),
            missed: Mutex::new(VecDeque::new()),
            stats: AtomicCacheStats::new(),
            epoch_h_accesses: AtomicU64::new(0),
            epoch_l_accesses: AtomicU64::new(0),
            own_contention: AtomicU64::new(0),
            published: Mutex::new(Published {
                obs: CacheObs::new(Obs::noop()),
                stats: CacheStats::default(),
                contention: 0,
            }),
            dataset: dataset.clone(),
            config,
        })
    }

    /// Number of lock stripes per region structure.
    pub fn stripe_len(&self) -> usize {
        self.stripes
    }

    /// Current H-region capacity.
    pub fn h_capacity(&self) -> ByteSize {
        ByteSize::new(self.h_capacity.load(Ordering::Relaxed))
    }

    /// Current L-region capacity.
    pub fn l_capacity(&self) -> ByteSize {
        ByteSize::new(self.l_capacity.load(Ordering::Relaxed))
    }

    /// Number of samples resident in the H-region.
    pub fn h_len(&self) -> usize {
        self.h_items.len()
    }

    /// Number of samples resident in the L-region.
    pub fn l_len(&self) -> usize {
        self.l_resident.len()
    }

    fn hit_service(&self, size: ByteSize) -> SimDuration {
        self.config.rpc_overhead
            + SimDuration::from_secs_f64(size.as_f64() / self.config.dram_bandwidth)
    }

    fn hit(&self, id: SampleId, size: ByteSize, now: SimTime, outcome: FetchOutcome) -> Fetch {
        AtomicCacheStats::add_bytes(&self.stats.bytes_from_cache, size);
        Fetch {
            ready_at: now + self.hit_service(size),
            served_id: id,
            outcome,
        }
    }

    fn storage_miss(
        &self,
        id: SampleId,
        size: ByteSize,
        now: SimTime,
        storage: &mut dyn StorageBackend,
    ) -> Fetch {
        let done = storage.read_sample(id, size, now);
        AtomicCacheStats::bump(&self.stats.misses);
        AtomicCacheStats::add_bytes(&self.stats.bytes_from_storage, size);
        Fetch {
            ready_at: done + self.config.rpc_overhead,
            served_id: id,
            outcome: FetchOutcome::Miss,
        }
    }

    fn fetch_h(
        &self,
        hlist: &HList,
        id: SampleId,
        size: ByteSize,
        now: SimTime,
        storage: &mut dyn StorageBackend,
    ) -> Fetch {
        self.epoch_h_accesses.fetch_add(1, Ordering::Relaxed);
        if self.h_items.contains(id) {
            AtomicCacheStats::bump(&self.stats.h_hits);
            return self.hit(id, size, now, FetchOutcome::HitH);
        }
        let fetch = self.storage_miss(id, size, now, storage);
        let iv = hlist.importance(id).unwrap_or(ImportanceValue::ZERO);
        if !self.admit_h(id, size, iv) {
            AtomicCacheStats::bump(&self.stats.rejections);
        }
        fetch
    }

    /// The H-region admission loop (Algorithm 1 lines 9–16), serialized
    /// on the admit lock so the multi-victim evict-or-restore sequence
    /// is atomic. Returns whether the sample was admitted.
    fn admit_h(&self, id: SampleId, size: ByteSize, iv: ImportanceValue) -> bool {
        let capacity = self.h_capacity.load(Ordering::Relaxed);
        if size.as_u64() > capacity {
            return false;
        }
        let mut heap = lock_counted(&self.admit, &self.own_contention);
        if self.h_items.contains(id) {
            // Raced with another thread admitting the same id: refresh
            // its key, admission itself already happened.
            heap.insert(id, iv);
            return true;
        }
        let needed = size.as_u64();
        let mut freed = 0u64;
        let mut popped: Vec<(SampleId, ImportanceValue, ByteSize)> = Vec::new();
        while self.h_used.load(Ordering::Relaxed).saturating_sub(freed) + needed > capacity {
            match heap.peek_min() {
                Some((vid, viv)) if viv < iv => {
                    heap.pop_min();
                    let vsize = self.h_items.get(vid).unwrap_or(ByteSize::ZERO);
                    freed += vsize.as_u64();
                    popped.push((vid, viv, vsize));
                }
                _ => {
                    // Cannot make room: restore provisional victims.
                    for (vid, viv, _) in popped {
                        heap.insert(vid, viv);
                    }
                    return false;
                }
            }
        }
        for (vid, _, vsize) in popped {
            self.h_items.remove(vid);
            self.h_used.fetch_sub(vsize.as_u64(), Ordering::Relaxed);
            AtomicCacheStats::bump(&self.stats.evictions);
        }
        self.h_items.insert(id, size);
        heap.insert(id, iv);
        self.h_used.fetch_add(needed, Ordering::Relaxed);
        AtomicCacheStats::bump(&self.stats.insertions);
        true
    }

    fn fetch_l(
        &self,
        id: SampleId,
        size: ByteSize,
        now: SimTime,
        storage: &mut dyn StorageBackend,
        rng: &mut StdRng,
        allow_substitute: bool,
    ) -> Fetch {
        self.epoch_l_accesses.fetch_add(1, Ordering::Relaxed);
        if !self.config.enable_lcache {
            return self.storage_miss(id, size, now, storage);
        }
        if self.l_resident.contains(id) {
            self.l_fresh.remove(id);
            AtomicCacheStats::bump(&self.stats.l_hits);
            return self.hit(id, size, now, FetchOutcome::HitL);
        }
        {
            let mut missed = lock_counted(&self.missed, &self.own_contention);
            if missed.len() > 1_000_000 {
                missed.pop_front();
            }
            missed.push_back(id);
        }
        if allow_substitute && self.config.substitution == Substitution::FromL {
            if let Some(sub) = self.l_fresh.draw(rng) {
                AtomicCacheStats::bump(&self.stats.substitutions);
                let sub_size = self.dataset.sample_size(sub);
                AtomicCacheStats::add_bytes(&self.stats.bytes_from_cache, sub_size);
                return Fetch {
                    ready_at: now + self.hit_service(sub_size),
                    served_id: sub,
                    outcome: FetchOutcome::Substituted {
                        by: sub,
                        from_h: false,
                    },
                };
            }
        }
        self.storage_miss(id, size, now, storage)
    }

    /// One cooperative loader tick: whichever fetch thread gets the
    /// loader lock integrates arrived packages and maybe starts the
    /// next package read. Threads that find the lock busy skip — the
    /// loader is logically one asynchronous thread, not a barrier.
    fn loader_tick(&self, now: SimTime, storage: &mut dyn StorageBackend) {
        if !self.config.enable_lcache {
            return;
        }
        let Ok(mut st) = self.loader.try_lock() else {
            return;
        };
        // Integrate packages whose virtual arrival time has passed.
        while st.pending.front().is_some_and(|(_, ready)| *ready <= now) {
            let (pkg, _) = st.pending.pop_front().expect("front checked above");
            self.install_package(&mut st, pkg);
        }
        // Maybe start the next package read (pacing + demand gates).
        let l_cap = self.l_capacity.load(Ordering::Relaxed);
        let wants = st.pending.is_empty()
            && (self.l_used.load(Ordering::Relaxed) < l_cap || self.l_fresh.is_empty());
        if l_cap == 0 || now < st.busy || !wants || st.l_pool.is_empty() {
            return;
        }
        let missed: Vec<SampleId> = {
            let mut log = lock_counted(&self.missed, &self.own_contention);
            let take = log.len().min(4 * 1024);
            log.drain(..take).collect()
        };
        let ds = &self.dataset;
        let target = self.config.package_size.min(ByteSize::new(l_cap));
        let st = &mut *st;
        let pkg =
            st.packager
                .build_with_target(&missed, &st.l_pool, |id| ds.sample_size(id), target);
        if pkg.is_empty() {
            return;
        }
        st.packages_built += 1;
        st.package_bytes += pkg.total_bytes().as_u64();
        // lint: allow(locks-io): the loader guard IS the asynchronous loader's identity — read_package only schedules a virtual-time arrival (pending is drained on later ticks), it never blocks the calling trainer thread
        let ready = storage.read_package(pkg.total_bytes(), now);
        let pacing =
            SimDuration::from_secs_f64(pkg.total_bytes().as_f64() / self.config.loader_bandwidth);
        st.busy = ready.max(now + pacing);
        st.pending.push_back((pkg, ready));
    }

    fn install_package(&self, st: &mut LoaderState, pkg: crate::Package) {
        let mut owned = Vec::new();
        let mut owned_bytes = ByteSize::ZERO;
        for s in pkg.samples() {
            if self.l_resident.insert(s.id(), s.size()).is_some() {
                continue;
            }
            self.l_used.fetch_add(s.size().as_u64(), Ordering::Relaxed);
            owned_bytes += s.size();
            owned.push(s.id());
            self.l_fresh.push(s.id());
        }
        st.fifo.push_back((owned, owned_bytes));
        self.evict_l_to_fit(st);
    }

    fn evict_l_to_fit(&self, st: &mut LoaderState) {
        let capacity = self.l_capacity.load(Ordering::Relaxed);
        while self.l_used.load(Ordering::Relaxed) > capacity && st.fifo.len() > 1 {
            let (ids, bytes) = st
                .fifo
                .pop_front()
                .expect("loop guard: fifo holds at least two packages");
            for id in ids {
                if self.l_resident.remove(id).is_some() {
                    self.l_fresh.remove(id);
                }
            }
            self.l_used.fetch_sub(bytes.as_u64(), Ordering::Relaxed);
        }
    }

    /// Publish counters and gauges into the attached Obs registry.
    /// Counter publishes are deltas against the last publish (the
    /// registry is add-only); called under the write gate at epoch ends
    /// and by drivers after a replay completes.
    pub fn publish_obs(&self) {
        let (packages_built, package_bytes) = {
            let mut st = lock_counted(&self.loader, &self.own_contention);
            (
                std::mem::take(&mut st.packages_built),
                std::mem::take(&mut st.package_bytes),
            )
        };
        let snap = self.stats.snapshot();
        let contended = self.contended();
        let mut published = self
            .published
            .lock()
            .expect("published-state lock poisoned: a publisher panicked");
        let obs = published.obs.clone();
        let delta = snap.delta_since(&published.stats);
        published.stats = snap;
        obs.h_hits.add(delta.h_hits);
        obs.l_hits.add(delta.l_hits);
        obs.substitutions.add(delta.substitutions);
        obs.misses.add(delta.misses);
        obs.insertions.add(delta.insertions);
        obs.evictions.add(delta.evictions);
        obs.rejections.add(delta.rejections);
        obs.packages_built.add(packages_built);
        obs.package_bytes.add(package_bytes);
        obs.lock_contention
            .add(contended.saturating_sub(published.contention));
        published.contention = contended;
        drop(published);
        obs.h_capacity.set(self.h_capacity().as_f64());
        obs.l_capacity.set(self.l_capacity().as_f64());
        obs.hit_ratio.set(snap.hit_ratio());
        obs.stripe_count.set(self.stripes as f64);
        obs.stripe_h_max_residents
            .set(self.h_items.max_stripe_population() as f64);
        obs.stripe_l_max_residents
            .set(self.l_resident.max_stripe_population() as f64);
    }
}

impl ConcurrentCache for ConcurrentManager {
    fn name(&self) -> &str {
        "icache"
    }

    fn fetch(
        &self,
        _job: JobId,
        id: SampleId,
        size: ByteSize,
        now: SimTime,
        storage: &mut dyn StorageBackend,
        rng: &mut StdRng,
    ) -> Fetch {
        let gate = self
            .gate
            .read()
            .expect("epoch gate poisoned: a barrier holder panicked");
        let fetch = match gate.as_ref() {
            Some(hlist) if hlist.contains(id) => self.fetch_h(hlist, id, size, now, storage),
            // Before the first H-list (warm-up) everything is L-class
            // without substitution, as in the sequential manager.
            hlist => self.fetch_l(id, size, now, storage, rng, hlist.is_some()),
        };
        self.loader_tick(now, storage);
        fetch
    }

    fn update_hlist(&self, _job: JobId, hlist: &HList) {
        let mut gate = self
            .gate
            .write()
            .expect("epoch gate poisoned: a barrier holder panicked");
        lock_counted(&self.loader, &self.own_contention).l_pool = self
            .dataset
            .ids()
            .filter(|&id| !hlist.contains(id))
            .collect();
        // Re-key every resident H-sample to its fresh importance
        // (absent → zero: no longer an H-sample, prime eviction
        // candidate). The write barrier replaces the sequential shadow-
        // heap protocol: the rebuild is exclusive, so there is no fetch
        // traffic to keep serving mid-refresh.
        let mut heap = lock_counted(&self.admit, &self.own_contention);
        let resident: Vec<SampleId> = heap.iter().map(|(id, _)| id).collect();
        for id in resident {
            heap.update_key(id, hlist.importance(id).unwrap_or(ImportanceValue::ZERO));
        }
        *gate = Some(hlist.clone());
    }

    fn on_epoch_start(&self, _job: JobId, _epoch: Epoch) {
        let _barrier = self
            .gate
            .write()
            .expect("epoch gate poisoned: a barrier holder panicked");
        // Every resident L-sample becomes fresh again, in ascending id
        // order exactly like the sequential rebuild.
        self.l_fresh.rebuild(self.l_resident.sorted_ids());
    }

    fn on_epoch_end(&self, _job: JobId, _epoch: Epoch) {
        let barrier = self
            .gate
            .write()
            .expect("epoch gate poisoned: a barrier holder panicked");
        let h_acc = self.epoch_h_accesses.swap(0, Ordering::Relaxed);
        let l_acc = self.epoch_l_accesses.swap(0, Ordering::Relaxed);
        let total = h_acc + l_acc;
        if total > 0 && self.config.enable_lcache && barrier.is_some() {
            // Frequency-driven region re-balancing (§III-A).
            let h_cap = self
                .config
                .rebalanced_h_capacity(h_acc as f64 / total as f64);
            self.h_capacity.store(h_cap.as_u64(), Ordering::Relaxed);
            {
                // Shrink H to fit: evict the heap's minima.
                let mut heap = lock_counted(&self.admit, &self.own_contention);
                while self.h_used.load(Ordering::Relaxed) > h_cap.as_u64() {
                    let Some((vid, _)) = heap.pop_min() else {
                        break;
                    };
                    let vsize = self.h_items.remove(vid).unwrap_or(ByteSize::ZERO);
                    self.h_used.fetch_sub(vsize.as_u64(), Ordering::Relaxed);
                    AtomicCacheStats::bump(&self.stats.evictions);
                }
            }
            let l_cap = self.config.capacity.saturating_sub(h_cap);
            self.l_capacity.store(l_cap.as_u64(), Ordering::Relaxed);
            let mut st = lock_counted(&self.loader, &self.own_contention);
            self.evict_l_to_fit(&mut st);
        }
        self.publish_obs();
    }

    fn set_obs(&self, obs: Obs) {
        self.published
            .lock()
            .expect("published-state lock poisoned: a publisher panicked")
            .obs = CacheObs::new(obs);
        self.publish_obs();
    }

    fn stats(&self) -> CacheStats {
        self.stats.snapshot()
    }

    fn used_bytes(&self) -> ByteSize {
        ByteSize::new(self.h_used.load(Ordering::Relaxed) + self.l_used.load(Ordering::Relaxed))
    }

    fn capacity(&self) -> ByteSize {
        self.config.capacity
    }

    fn contended(&self) -> u64 {
        self.own_contention.load(Ordering::Relaxed)
            + self.h_items.contended()
            + self.l_resident.contended()
            + self.l_fresh.contended()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icache_sampling::ImportanceTable;
    use icache_storage::LocalTier;
    use icache_types::{DatasetBuilder, SeedSequence};
    use rand::SeedableRng;

    fn tiny_dataset() -> Dataset {
        DatasetBuilder::new("tiny", 1_000)
            .size_model(icache_types::SizeModel::Fixed(ByteSize::kib(3)))
            .build()
            .expect("valid test dataset")
    }

    fn hlist(ds: &Dataset, hot: u64, frac: f64) -> HList {
        let mut t = ImportanceTable::new(ds.len());
        for i in 0..ds.len() {
            t.record_loss(SampleId(i), if i < hot { 10.0 + i as f64 } else { 0.01 });
        }
        HList::top_fraction(&t, frac)
    }

    fn manager(ds: &Dataset, frac: f64, stripes: usize) -> ConcurrentManager {
        let cfg = IcacheConfig::for_dataset(ds, frac).expect("valid test config");
        ConcurrentManager::new(cfg, ds, stripes).expect("valid test manager")
    }

    #[test]
    fn unsupported_features_are_rejected() {
        let ds = tiny_dataset();
        let mut cfg = IcacheConfig::for_dataset(&ds, 0.2).expect("valid test config");
        cfg.multi_job = true;
        assert!(ConcurrentManager::new(cfg, &ds, 8).is_err());
        let mut cfg = IcacheConfig::for_dataset(&ds, 0.2).expect("valid test config");
        cfg.substitution = Substitution::FromH;
        assert!(ConcurrentManager::new(cfg, &ds, 8).is_err());
    }

    #[test]
    fn h_miss_then_hit_single_thread() {
        let ds = tiny_dataset();
        let m = manager(&ds, 0.2, 8);
        let mut st = LocalTier::tmpfs();
        let mut rng = StdRng::seed_from_u64(1);
        m.update_hlist(JobId(0), &hlist(&ds, 100, 0.1));
        let id = SampleId(0);
        let sz = ds.sample_size(id);
        let first = m.fetch(JobId(0), id, sz, SimTime::ZERO, &mut st, &mut rng);
        assert_eq!(first.outcome, FetchOutcome::Miss);
        let second = m.fetch(JobId(0), id, sz, first.ready_at, &mut st, &mut rng);
        assert_eq!(second.outcome, FetchOutcome::HitH);
        let s = m.stats();
        assert_eq!(s.h_hits, 1);
        assert_eq!(s.misses, 1);
        assert!(m.used_bytes() <= m.capacity());
    }

    #[test]
    fn l_requests_package_load_and_substitute() {
        let ds = tiny_dataset();
        let m = manager(&ds, 0.2, 8);
        let mut st = LocalTier::tmpfs();
        let mut rng = StdRng::seed_from_u64(2);
        m.update_hlist(JobId(0), &hlist(&ds, 100, 0.1));
        m.on_epoch_start(JobId(0), Epoch(0));
        let f0 = m.fetch(
            JobId(0),
            SampleId(999),
            ds.sample_size(SampleId(999)),
            SimTime::ZERO,
            &mut st,
            &mut rng,
        );
        assert_eq!(f0.outcome, FetchOutcome::Miss);
        let mut now = SimTime::from_nanos(50_000_000);
        let mut served = 0;
        for i in 900..999u64 {
            let f = m.fetch(
                JobId(0),
                SampleId(i),
                ds.sample_size(SampleId(i)),
                now,
                &mut st,
                &mut rng,
            );
            now = f.ready_at;
            if f.outcome.served_from_cache() {
                served += 1;
            }
        }
        assert!(served > 50, "only {served} L requests served from cache");
        assert!(m.l_len() > 0);
    }

    #[test]
    fn epoch_end_rebalances_toward_h() {
        let ds = tiny_dataset();
        let m = manager(&ds, 0.2, 8);
        let mut st = LocalTier::tmpfs();
        let mut rng = StdRng::seed_from_u64(3);
        m.update_hlist(JobId(0), &hlist(&ds, 100, 0.1));
        m.on_epoch_start(JobId(0), Epoch(0));
        let mut now = SimTime::ZERO;
        for rep in 0..9 {
            for i in 0..100u64 {
                let _ = rep;
                let f = m.fetch(
                    JobId(0),
                    SampleId(i),
                    ds.sample_size(SampleId(i)),
                    now,
                    &mut st,
                    &mut rng,
                );
                now = f.ready_at;
            }
        }
        for i in 900..1000u64 {
            let f = m.fetch(
                JobId(0),
                SampleId(i),
                ds.sample_size(SampleId(i)),
                now,
                &mut st,
                &mut rng,
            );
            now = f.ready_at;
        }
        let h_before = m.h_capacity();
        m.on_epoch_end(JobId(0), Epoch(0));
        assert!(m.h_capacity() >= h_before, "9:1 access ratio keeps H large");
        assert_eq!(m.h_capacity() + m.l_capacity(), m.capacity());
    }

    #[test]
    fn many_threads_counters_add_up() {
        let ds = tiny_dataset();
        let m = manager(&ds, 0.2, 8);
        m.update_hlist(JobId(0), &hlist(&ds, 100, 0.1));
        m.on_epoch_start(JobId(0), Epoch(0));
        let threads = 4;
        let per_thread = 500usize;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let m = &m;
                let ds = &ds;
                scope.spawn(move || {
                    let mut st = LocalTier::tmpfs();
                    let mut rng = SeedSequence::new(42).rng(&format!("loader{t}"));
                    let mut now = SimTime::ZERO;
                    for k in 0..per_thread {
                        let id = SampleId(((k * threads + t) % 1000) as u64);
                        let f = m.fetch(JobId(0), id, ds.sample_size(id), now, &mut st, &mut rng);
                        now = f.ready_at;
                    }
                });
            }
        });
        let s = m.stats();
        assert_eq!(s.requests(), (threads * per_thread) as u64);
        assert!(m.used_bytes() <= m.capacity());
        assert!(self_check(&m));
        m.on_epoch_end(JobId(0), Epoch(0));
    }

    /// Differential pin of the one-heap admission loop: the same
    /// admission sequence offered to the sequential [`crate::HCache`]
    /// (the Algorithm 1 reference) and to the concurrent manager evicts
    /// the same victims at every step — under four-level importance
    /// ties (victim choice rests on the `(importance, id)` tie-break),
    /// variable sizes (multi-victim evictions and the
    /// restore-provisional-victims path both run) and an H-list push
    /// every 400 admissions that rotates the levels (re-keying).
    #[test]
    fn eviction_sequence_matches_hcache_under_importance_ties() {
        use crate::{HCache, SampleData};
        use rand::Rng;
        let ds = DatasetBuilder::new("ties", 400)
            .size_model(icache_types::SizeModel::LogNormal {
                mu: 8.0,
                sigma: 0.8,
                min: ByteSize::new(512),
                max: ByteSize::kib(24),
            })
            .build()
            .expect("valid test dataset");
        let mut cfg = IcacheConfig::for_dataset(&ds, 0.1).expect("valid test config");
        cfg.enable_lcache = false;
        let m = ConcurrentManager::new(cfg, &ds, 4).expect("valid test manager");
        let mut reference = HCache::new(m.h_capacity());
        let mut hl = HList::empty(ds.len());
        let mut st = LocalTier::tmpfs();
        let mut rng = StdRng::seed_from_u64(9);
        let (mut evictions, mut rejections) = (0u64, 0u64);
        for step in 0..4_000u64 {
            if step % 400 == 0 {
                let mut table = ImportanceTable::new(ds.len());
                for i in 0..ds.len() {
                    table.record_loss(SampleId(i), 1.0 + ((i + step / 400) % 4) as f64);
                }
                hl = HList::top_fraction(&table, 1.0);
                m.update_hlist(JobId(0), &hl);
                reference.begin_refresh(&hl.entries().iter().map(|e| (e.id, e.iv)).collect());
                reference.finish_refresh();
            }
            let id = SampleId(rng.gen_range(0..ds.len()));
            let size = ds.sample_size(id);
            let before = m.h_items.sorted_ids();
            let hit = m.fetch(JobId(0), id, size, SimTime::ZERO, &mut st, &mut rng);
            assert_eq!(
                hit.outcome == FetchOutcome::HitH,
                reference.contains(id),
                "step {step}: residency of {id} diverged"
            );
            if hit.outcome == FetchOutcome::HitH {
                continue;
            }
            let iv = hl.importance(id).expect("every id is on the H-list");
            let admit = reference.admit(SampleData::generate(id, size), iv);
            let after = m.h_items.sorted_ids();
            let mut evicted: Vec<SampleId> = before
                .into_iter()
                .filter(|v| after.binary_search(v).is_err())
                .collect();
            let mut expected = admit.evicted.clone();
            evicted.sort_unstable();
            expected.sort_unstable();
            assert_eq!(evicted, expected, "step {step}: victims of admitting {id}");
            assert_eq!(m.h_items.contains(id), admit.admitted, "step {step}");
            evictions += expected.len() as u64;
            rejections += u64::from(!admit.admitted);
        }
        assert!(
            evictions > 500 && rejections > 500,
            "both paths exercised: {evictions} evictions, {rejections} rejections"
        );
        let s = m.stats();
        assert_eq!((s.evictions, s.rejections), (evictions, rejections));
        assert_eq!(m.h_len(), reference.len());
        assert_eq!(m.h_used.load(Ordering::Relaxed), reference.used().as_u64());
        assert!(self_check(&m));
    }

    /// Four threads race admissions into an H-region of a dozen
    /// samples, released together by a barrier so the admit lock is
    /// contended from the first fetch. Whatever the interleaving, the
    /// heap and the resident map describe the same set and the byte and
    /// counter books balance.
    #[test]
    fn racing_admissions_keep_heap_residents_and_bytes_in_step() {
        let ds = tiny_dataset();
        let mut cfg = IcacheConfig::for_dataset(&ds, 0.2).expect("valid test config");
        cfg.enable_lcache = false;
        cfg.capacity = ds.sample_size(SampleId(0)) * 12;
        let m = ConcurrentManager::new(cfg, &ds, 4).expect("valid test manager");
        m.update_hlist(JobId(0), &hlist(&ds, 1_000, 1.0));
        let threads = 4;
        let start = std::sync::Barrier::new(threads);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (m, ds, start) = (&m, &ds, &start);
                scope.spawn(move || {
                    let mut st = LocalTier::tmpfs();
                    let mut rng = SeedSequence::new(7).rng(&format!("racer{t}"));
                    start.wait();
                    for k in 0..2_000u64 {
                        // Overlapping strides: threads collide on ids
                        // (the raced-same-id branch) and on victims.
                        let id = SampleId((k * 7 + t as u64 * 3) % 1_000);
                        m.fetch(
                            JobId(0),
                            id,
                            ds.sample_size(id),
                            SimTime::ZERO,
                            &mut st,
                            &mut rng,
                        );
                    }
                });
            }
        });
        let heap = m.admit.lock().expect("no racer panicked");
        assert!(heap.check_invariants());
        assert_eq!(heap.len(), m.h_len(), "heap and resident map agree");
        let mut resident_bytes = 0u64;
        m.h_items.for_each(|id, size| {
            assert!(heap.contains(id), "{id} resident but not in the heap");
            resident_bytes += size.as_u64();
        });
        assert_eq!(m.h_used.load(Ordering::Relaxed), resident_bytes);
        assert!(resident_bytes <= m.h_capacity().as_u64());
        let s = m.stats();
        assert!(
            s.evictions > 0,
            "the region is far smaller than the id range"
        );
        assert_eq!(s.insertions - s.evictions, m.h_len() as u64);
        assert_eq!(s.requests(), threads as u64 * 2_000);
    }

    /// The concurrent path reports the L-region loader's packages like
    /// the sequential manager does: every built package is one
    /// `read_package` on some loader thread's storage handle, so the
    /// published byte counter equals the sum of the threads' storage
    /// stats.
    #[test]
    fn two_thread_replay_publishes_package_metrics() {
        let ds = tiny_dataset();
        let m = manager(&ds, 0.2, 4);
        let obs = Obs::new();
        m.set_obs(obs.clone());
        m.update_hlist(JobId(0), &hlist(&ds, 100, 0.1));
        m.on_epoch_start(JobId(0), Epoch(0));
        let package_bytes: u64 = std::thread::scope(|scope| {
            let loaders: Vec<_> = (0..2u64)
                .map(|t| {
                    let (m, ds) = (&m, &ds);
                    scope.spawn(move || {
                        let mut st = LocalTier::tmpfs();
                        let mut rng = SeedSequence::new(5).rng(&format!("loader{t}"));
                        let mut now = SimTime::ZERO;
                        for k in 0..1_500u64 {
                            let id = SampleId((k * 2 + t) % 1_000);
                            now = m
                                .fetch(JobId(0), id, ds.sample_size(id), now, &mut st, &mut rng)
                                .ready_at;
                        }
                        st.stats().package_bytes.as_u64()
                    })
                })
                .collect();
            loaders
                .into_iter()
                .map(|h| h.join().expect("loader thread panicked"))
                .sum()
        });
        m.on_epoch_end(JobId(0), Epoch(0));
        assert!(obs.counter("lcache.packages_built") > 0);
        assert_eq!(obs.counter("lcache.package_bytes"), package_bytes);
        // Deltas, not totals: a second publish adds nothing.
        m.publish_obs();
        assert_eq!(obs.counter("lcache.package_bytes"), package_bytes);
    }

    fn self_check(m: &ConcurrentManager) -> bool {
        m.h_items.check_invariants()
            && m.admit.lock().unwrap().check_invariants()
            && m.l_resident.check_invariants()
            && m.l_fresh.check_invariants()
    }
}
