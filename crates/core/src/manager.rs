//! The iCache cache manager (system overview, §III-A; Algorithm 1).

use crate::dense::{IdSet, IdSlab};
use crate::service::{RecoveryEntry, RecoveryRegion};
use crate::stats::CacheObs;
use crate::{
    CacheStats, CacheSystem, Fetch, FetchOutcome, HCache, LCache, LCacheConfig, LFetch,
    MultiJobCoordinator, Packager, PmTierConfig, SampleData, VictimCache,
};
use icache_obs::{Obs, Observable, TraceEvent};
use icache_sampling::HList;
use icache_storage::StorageBackend;
use icache_types::{
    ByteSize, Dataset, Epoch, Error, ImportanceValue, JobId, Result, SampleId, SimDuration, SimTime,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};

/// What to do when a requested L-sample is missing from the L-cache
/// (the §V-E substitution-policy study).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Substitution {
    /// `Def`: no substitution — read the missed sample from storage.
    None,
    /// `ST_HC`: substitute with a random H-cache resident (hurts accuracy
    /// by over-training important samples; shown inferior in Table III).
    FromH,
    /// `ST_LC`: substitute with an un-accessed L-cache resident — the
    /// policy iCache adopts.
    #[default]
    FromL,
}

/// Configuration of an [`IcacheManager`].
#[derive(Debug, Clone, PartialEq)]
pub struct IcacheConfig {
    /// Total cache capacity (H-cache + L-cache).
    pub capacity: ByteSize,
    /// Initial fraction of capacity given to the H-region (the paper's
    /// default split is 9:1).
    pub initial_h_fraction: f64,
    /// Package size used by dynamic packaging (≥ 1 MB in the paper).
    pub package_size: ByteSize,
    /// Cost of one client↔server RPC round trip.
    pub rpc_overhead: SimDuration,
    /// DRAM copy bandwidth for serving hits, bytes/second.
    pub dram_bandwidth: f64,
    /// Enable the multi-job module (benefit probing + AIV aggregation).
    pub multi_job: bool,
    /// Benefit threshold above which a job is cache-eligible (paper: 1.5).
    pub benefit_threshold: f64,
    /// Samples per probe phase (the paper's 20 mini-batches of 256).
    pub probe_samples: u64,
    /// Seed for substitution and packaging randomness.
    pub seed: u64,
    /// Sustained throughput of the asynchronous loading thread
    /// (bytes/second), covering re-packing CPU and its polite, background-
    /// priority storage reads. Limits how fast the L-cache refreshes.
    pub loader_bandwidth: f64,
    /// L-cache miss policy (§V-E; default `ST_LC`).
    pub substitution: Substitution,
    /// Disable the L-cache entirely (the Fig. 10 `+HC` ablation: all
    /// capacity goes to the H-region, L misses always hit storage).
    pub enable_lcache: bool,
    /// Manage the cache with H-lists from this job only (the Fig. 14
    /// `INDA`/`INDB` schemes); updates from other jobs are dropped.
    pub hlist_filter: Option<JobId>,
    /// Optional persistent-memory victim tier behind the H-region (§VI
    /// extension): DRAM evictions spill to PM, and H-misses check PM
    /// before paying for remote storage.
    pub pm_tier: Option<PmTierConfig>,
}

impl IcacheConfig {
    /// The paper's defaults for a cache holding `cache_fraction` of
    /// `dataset` (§V-A: 20 % cache, 9:1 split, 1 MB packages).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `cache_fraction` is not in
    /// `(0, 1]`.
    pub fn for_dataset(dataset: &Dataset, cache_fraction: f64) -> Result<Self> {
        if !(cache_fraction > 0.0 && cache_fraction <= 1.0) {
            return Err(Error::invalid_config("cache_fraction", "must be in (0, 1]"));
        }
        Ok(IcacheConfig {
            capacity: dataset.total_bytes().scaled(cache_fraction),
            initial_h_fraction: 0.9,
            package_size: ByteSize::mib(1),
            rpc_overhead: SimDuration::from_micros(50),
            dram_bandwidth: 10.0e9,
            multi_job: false,
            benefit_threshold: 1.5,
            probe_samples: 20 * 256,
            seed: 0x1CAC4E,
            loader_bandwidth: 2.5e6,
            substitution: Substitution::FromL,
            enable_lcache: true,
            hlist_filter: None,
            pm_tier: None,
        })
    }

    /// L-region floor: one package, but never more than half the cache
    /// (tiny caches would otherwise leave the H-region empty).
    fn min_l_capacity(&self) -> ByteSize {
        self.package_size.min(self.capacity / 2)
    }

    /// The `(H, L)` region capacities a fresh cache starts with.
    pub(crate) fn initial_regions(&self) -> (ByteSize, ByteSize) {
        let l_capacity = if self.enable_lcache {
            self.capacity
                .saturating_sub(self.capacity.scaled(self.initial_h_fraction))
                .max(self.min_l_capacity())
        } else {
            ByteSize::ZERO
        };
        (self.capacity.saturating_sub(l_capacity), l_capacity)
    }

    /// The epoch-end H-region target for an epoch in which `h_frac` of
    /// the classified accesses went to H-samples (§III-A:
    /// `Size_hcache = Size_cache · f_H / (f_H + f_L)`, L keeping its floor).
    pub(crate) fn rebalanced_h_capacity(&self, h_frac: f64) -> ByteSize {
        self.capacity
            .scaled(h_frac)
            .min(self.capacity.saturating_sub(self.min_l_capacity()))
    }

    pub(crate) fn validate(&self) -> Result<()> {
        if self.capacity.is_zero() {
            return Err(Error::invalid_config("capacity", "must be non-zero"));
        }
        if !(self.initial_h_fraction >= 0.0 && self.initial_h_fraction <= 1.0) {
            return Err(Error::invalid_config(
                "initial_h_fraction",
                "must be in [0, 1]",
            ));
        }
        if self.package_size.is_zero() {
            return Err(Error::invalid_config("package_size", "must be non-zero"));
        }
        if !(self.dram_bandwidth > 0.0 && self.dram_bandwidth.is_finite()) {
            return Err(Error::invalid_config(
                "dram_bandwidth",
                "must be positive and finite",
            ));
        }
        if !(self.loader_bandwidth > 0.0 && self.loader_bandwidth.is_finite()) {
            return Err(Error::invalid_config(
                "loader_bandwidth",
                "must be positive and finite",
            ));
        }
        Ok(())
    }
}

/// One counted cache event, as [`IcacheManager::record`] takes it.
#[derive(Clone, Copy)]
enum Recorded<'a> {
    /// Served from the H-region: the sample and its size.
    HHit(SampleId, ByteSize),
    /// Promoted back from the PM victim tier.
    PmHit(SampleId, ByteSize),
    /// Served from the L-region.
    LHit(SampleId, ByteSize),
    /// Served the resident `by` (of `bytes`) in place of `requested`.
    Substituted {
        requested: SampleId,
        by: SampleId,
        bytes: ByteSize,
        kind: &'static str,
    },
    /// Read from storage.
    Miss(SampleId, ByteSize),
    /// Admitted into the H-region.
    Inserted,
    /// Denied admission.
    Rejected,
    /// Left the H-region (admission victims or an epoch-end shrink).
    Evicted(&'a [SampleId]),
}

/// The iCache server + manager: a two-region importance-informed cache.
///
/// * Requests for samples on the requesting job's H-list go to the
///   [`HCache`]; misses there are fetched from storage and admitted by
///   importance (Algorithm 1).
/// * Other requests go to the [`LCache`]; misses there are substituted
///   with an un-accessed resident L-sample, and an asynchronous loading
///   thread streams in dynamically re-packed packages.
/// * Region sizes are re-balanced each epoch from observed access
///   frequencies: `Size_hcache = Size_cache · f_H / (f_H + f_L)`.
/// * With [`IcacheConfig::multi_job`] enabled, the embedded
///   [`MultiJobCoordinator`] probes each job's caching benefit and manages
///   the heap with aggregated importance values.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug)]
pub struct IcacheManager {
    config: IcacheConfig,
    dataset: Dataset,
    hcache: HCache,
    lcache: LCache,
    packager: Packager,
    coordinator: MultiJobCoordinator,
    effective_iv: IdSlab<ImportanceValue>,
    l_pool: Vec<SampleId>,
    loader_busy: SimTime,
    rng: StdRng,
    stats: CacheStats,
    /// Per-job views of the same counters (multi-tenant observability,
    /// Fig. 14's per-job hit ratios).
    job_stats: BTreeMap<JobId, CacheStats>,
    h_accesses: u64,
    l_accesses: u64,
    /// H-cache residents already used as substitutes this epoch (ST_HC).
    h_sub_used: IdSet,
    victim: Option<VictimCache>,
    primary_job: Option<JobId>,
    /// Shared observability handle (trace ring + `cache.*` metric handles).
    obs: CacheObs,
    /// Epoch of the primary job, for event attribution.
    current_epoch: u64,
}

impl IcacheManager {
    /// Build a manager for `dataset` with `config`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for invalid capacities, fractions,
    /// or bandwidths.
    pub fn new(config: IcacheConfig, dataset: &Dataset) -> Result<Self> {
        config.validate()?;
        let (h_capacity, l_capacity) = config.initial_regions();
        let coordinator = MultiJobCoordinator::new(
            dataset.len(),
            config.benefit_threshold,
            config.probe_samples,
        )?;
        let victim = config.pm_tier.clone().map(VictimCache::new).transpose()?;
        Ok(IcacheManager {
            victim,
            hcache: HCache::new(h_capacity),
            lcache: LCache::new(LCacheConfig {
                capacity: l_capacity,
                num_samples: dataset.len(),
            }),
            packager: Packager::new(config.package_size, config.seed ^ 0xFACC)?,
            coordinator,
            effective_iv: IdSlab::new(),
            l_pool: dataset.ids().collect(),
            loader_busy: SimTime::ZERO,
            rng: StdRng::seed_from_u64(config.seed),
            stats: CacheStats::default(),
            job_stats: BTreeMap::new(),
            h_accesses: 0,
            l_accesses: 0,
            h_sub_used: IdSet::new(dataset.len()),
            primary_job: None,
            obs: CacheObs::new(Obs::noop()),
            current_epoch: 0,
            dataset: dataset.clone(),
            config,
        })
    }

    /// The embedded multi-job coordinator (read access for reports).
    pub fn coordinator(&self) -> &MultiJobCoordinator {
        &self.coordinator
    }

    /// Current H-region capacity.
    pub fn h_capacity(&self) -> ByteSize {
        self.hcache.capacity()
    }

    /// Current L-region capacity.
    pub fn l_capacity(&self) -> ByteSize {
        self.lcache.capacity()
    }

    /// Number of samples resident in the H-region.
    pub fn h_len(&self) -> usize {
        self.hcache.len()
    }

    /// Number of samples resident in the L-region.
    pub fn l_len(&self) -> usize {
        self.lcache.len()
    }

    /// Whether `id` currently resides in either region (used by the
    /// distributed cache's directory lookups).
    pub fn contains_cached(&self, id: SampleId) -> bool {
        self.hcache.contains(id) || self.lcache.contains(id)
    }

    /// The PM victim tier, when configured.
    pub fn pm_tier(&self) -> Option<&VictimCache> {
        self.victim.as_ref()
    }

    /// This job's view of the cache counters (Fig. 14's per-job hit
    /// ratios). Zeroed stats for jobs that never fetched.
    pub fn stats_for(&self, job: JobId) -> CacheStats {
        self.job_stats.get(&job).copied().unwrap_or_default()
    }

    /// The one write site of every counted cache event: the manager's
    /// own [`CacheStats`], the view of them of the job whose fetch (or
    /// epoch end) caused it, the run-wide `cache.*` handle and the trace
    /// event move together — so per-job stats always sum to the global
    /// ones.
    fn record(&mut self, job: JobId, event: Recorded<'_>) {
        let mut delta = CacheStats::default();
        let obs = &self.obs;
        let job_no = job.0 as u64;
        match event {
            Recorded::HHit(id, bytes) => {
                delta.h_hits = 1;
                delta.bytes_from_cache = bytes;
                obs.h_hits.inc();
                obs.emit(TraceEvent::HHit {
                    job: job_no,
                    sample: id.0,
                });
            }
            // A PM promotion is traced as the H hit it becomes.
            Recorded::PmHit(id, bytes) => {
                delta.pm_hits = 1;
                delta.bytes_from_cache = bytes;
                obs.pm_hits.inc();
                obs.emit(TraceEvent::HHit {
                    job: job_no,
                    sample: id.0,
                });
            }
            Recorded::LHit(id, bytes) => {
                delta.l_hits = 1;
                delta.bytes_from_cache = bytes;
                obs.l_hits.inc();
                obs.emit(TraceEvent::LHit {
                    job: job_no,
                    sample: id.0,
                });
            }
            Recorded::Substituted {
                requested,
                by,
                bytes,
                kind,
            } => {
                delta.substitutions = 1;
                delta.bytes_from_cache = bytes;
                obs.substitutions.inc();
                obs.emit(TraceEvent::Substitution {
                    job: job_no,
                    requested: requested.0,
                    substitute: by.0,
                    kind,
                });
            }
            Recorded::Miss(id, bytes) => {
                delta.misses = 1;
                delta.bytes_from_storage = bytes;
                obs.misses.inc();
                obs.emit(TraceEvent::Miss {
                    job: job_no,
                    sample: id.0,
                });
            }
            Recorded::Inserted => {
                delta.insertions = 1;
                obs.insertions.inc();
            }
            Recorded::Rejected => {
                delta.rejections = 1;
                obs.rejections.inc();
            }
            Recorded::Evicted(ids) => {
                delta.evictions = ids.len() as u64;
                obs.evictions.add(delta.evictions);
                for &id in ids {
                    obs.emit(TraceEvent::Eviction {
                        sample: id.0,
                        bytes: self.dataset.sample_size(id).as_u64(),
                    });
                }
            }
        }
        self.stats += delta;
        *self.job_stats.entry(job).or_default() += delta;
    }

    /// Spill evicted H-samples into the PM tier.
    fn spill_to_pm(&mut self, evicted: &[SampleId]) {
        if let Some(pm) = &mut self.victim {
            for &id in evicted {
                let size = self.dataset.sample_size(id);
                pm.insert(id, size);
                self.obs.pm_spills.inc();
                self.obs.emit(TraceEvent::SpillToPm {
                    sample: id.0,
                    bytes: size.as_u64(),
                });
            }
        }
    }

    fn hit_service(&self, size: ByteSize) -> SimDuration {
        self.config.rpc_overhead
            + SimDuration::from_secs_f64(size.as_f64() / self.config.dram_bandwidth)
    }

    /// The importance an H-miss is admitted at: the effective view first
    /// (the last pushed list, or the multi-job aggregate), then the
    /// requesting job's own H-list — both one array read.
    fn admission_value(&self, job: JobId, id: SampleId) -> ImportanceValue {
        self.effective_iv.get(id).copied().unwrap_or_else(|| {
            self.coordinator
                .hlist(job)
                .and_then(|h| h.importance(id))
                .unwrap_or(ImportanceValue::ZERO)
        })
    }

    fn maybe_trigger_load(&mut self, now: SimTime, storage: &mut dyn StorageBackend) {
        if !self.config.enable_lcache
            || self.lcache.capacity().is_zero()
            || !self.lcache.wants_load()
            || self.l_pool.is_empty()
            // The loading thread issues work only when virtual time has
            // reached its pacing horizon; submitting future-dated reads
            // would jump the storage queues past in-flight demand reads.
            || now < self.loader_busy
        {
            return;
        }
        let missed = self.lcache.take_missed(4 * 1024);
        let sizes = |id: SampleId| self.dataset.sample_size(id);
        // Never build a package larger than the L-region itself.
        let target = self.config.package_size.min(self.lcache.capacity());
        let pkg = self
            .packager
            .build_with_target(&missed, &self.l_pool, sizes, target);
        if pkg.is_empty() {
            return;
        }
        self.obs.packages_built.inc();
        self.obs.package_bytes.add(pkg.total_bytes().as_u64());
        self.obs.emit(TraceEvent::PackageBuild {
            package: pkg.id().0,
            samples: pkg.len() as u64,
            bytes: pkg.total_bytes().as_u64(),
        });
        let ready = storage.read_package(pkg.total_bytes(), now);
        // The loading thread also pays its re-packing/decode budget: it
        // cannot start the next package before its own bandwidth allows.
        let pacing =
            SimDuration::from_secs_f64(pkg.total_bytes().as_f64() / self.config.loader_bandwidth);
        self.loader_busy = ready.max(now + pacing);
        self.lcache.install_package(pkg, ready);
    }

    fn rebuild_l_pool(&mut self) {
        self.l_pool = self
            .dataset
            .ids()
            .filter(|&id| !self.coordinator.is_h_for_any(id))
            .collect();
    }

    fn fetch_h(
        &mut self,
        job: JobId,
        id: SampleId,
        size: ByteSize,
        now: SimTime,
        storage: &mut dyn StorageBackend,
    ) -> Fetch {
        self.h_accesses += 1;
        if self.hcache.contains(id) {
            self.record(job, Recorded::HHit(id, size));
            return Fetch {
                ready_at: now + self.hit_service(size),
                served_id: id,
                outcome: FetchOutcome::HitH,
            };
        }
        // PM victim tier: promoted back into DRAM on a hit (§VI).
        if self
            .victim
            .as_mut()
            .is_some_and(|pm| pm.promote(id).is_some())
        {
            self.record(job, Recorded::PmHit(id, size));
            let pm = self.victim.as_ref().expect("checked above");
            let ready = now + self.config.rpc_overhead + pm.read_cost(size);
            let iv = self.admission_value(job, id);
            let result = self.hcache.admit(SampleData::generate(id, size), iv);
            if result.admitted {
                self.record(job, Recorded::Inserted);
                self.record(job, Recorded::Evicted(&result.evicted));
            }
            self.spill_to_pm(&result.evicted);
            return Fetch {
                ready_at: ready,
                served_id: id,
                outcome: FetchOutcome::HitH,
            };
        }
        // Miss: read from storage and decide admission (Alg. 1 lines 8–16).
        let done = storage.read_sample(id, size, now);
        self.record(job, Recorded::Miss(id, size));
        let iv = self.admission_value(job, id);
        let result = self.hcache.admit(SampleData::generate(id, size), iv);
        if result.admitted {
            self.record(job, Recorded::Inserted);
            self.record(job, Recorded::Evicted(&result.evicted));
        } else {
            self.record(job, Recorded::Rejected);
        }
        self.spill_to_pm(&result.evicted);
        Fetch {
            ready_at: done + self.config.rpc_overhead,
            served_id: id,
            outcome: FetchOutcome::Miss,
        }
    }

    fn fetch_l(
        &mut self,
        job: JobId,
        id: SampleId,
        size: ByteSize,
        now: SimTime,
        storage: &mut dyn StorageBackend,
        allow_substitute: bool,
    ) -> Fetch {
        self.l_accesses += 1;
        if !self.config.enable_lcache {
            return self.storage_miss(job, id, size, now, storage);
        }
        if !allow_substitute || self.config.substitution == Substitution::None {
            return if self.lcache.lookup_no_substitute(id) {
                self.l_hit(job, id, size, now)
            } else {
                self.storage_miss(job, id, size, now, storage)
            };
        }
        match self.lcache.lookup(id, &mut self.rng) {
            LFetch::Hit => self.l_hit(job, id, size, now),
            // The L-cache proposes an un-accessed L resident; the final
            // decision follows the configured §V-E policy.
            LFetch::Substitute(sub) => match self.config.substitution {
                Substitution::FromL => self.substituted(job, id, sub, false, now),
                Substitution::FromH => self.substitute_from_h(job, id, size, now, storage),
                Substitution::None => self.storage_miss(job, id, size, now, storage),
            },
            LFetch::Empty => match self.config.substitution {
                Substitution::FromH => self.substitute_from_h(job, id, size, now, storage),
                _ => self.storage_miss(job, id, size, now, storage),
            },
        }
    }

    fn l_hit(&mut self, job: JobId, id: SampleId, size: ByteSize, now: SimTime) -> Fetch {
        self.record(job, Recorded::LHit(id, size));
        Fetch {
            ready_at: now + self.hit_service(size),
            served_id: id,
            outcome: FetchOutcome::HitL,
        }
    }

    fn substitute_from_h(
        &mut self,
        job: JobId,
        id: SampleId,
        size: ByteSize,
        now: SimTime,
        storage: &mut dyn StorageBackend,
    ) -> Fetch {
        // Substitutes must not repeat within an epoch (the same freshness
        // rule the L-cache applies); bounded retries keep the draw O(1).
        let mut pick = None;
        for _ in 0..8 {
            match self.hcache.random_resident(&mut self.rng) {
                Some(c) if !self.h_sub_used.contains(c) => {
                    pick = Some(c);
                    break;
                }
                Some(_) => continue,
                None => break,
            }
        }
        match pick {
            Some(sub) => {
                self.h_sub_used.insert(sub);
                self.substituted(job, id, sub, true, now)
            }
            None => self.storage_miss(job, id, size, now, storage),
        }
    }

    /// Serve `requested` with the resident `by` (ST_HC when `from_h`,
    /// ST_LC otherwise).
    fn substituted(
        &mut self,
        job: JobId,
        requested: SampleId,
        by: SampleId,
        from_h: bool,
        now: SimTime,
    ) -> Fetch {
        let bytes = self.dataset.sample_size(by);
        let kind = if from_h { "st_hc" } else { "st_lc" };
        self.record(
            job,
            Recorded::Substituted {
                requested,
                by,
                bytes,
                kind,
            },
        );
        Fetch {
            ready_at: now + self.hit_service(bytes),
            served_id: by,
            outcome: FetchOutcome::Substituted { by, from_h },
        }
    }

    fn storage_miss(
        &mut self,
        job: JobId,
        id: SampleId,
        size: ByteSize,
        now: SimTime,
        storage: &mut dyn StorageBackend,
    ) -> Fetch {
        let done = storage.read_sample(id, size, now);
        self.record(job, Recorded::Miss(id, size));
        Fetch {
            ready_at: done + self.config.rpc_overhead,
            served_id: id,
            outcome: FetchOutcome::Miss,
        }
    }

    /// Snapshot resident cache contents for a warm-restart recovery
    /// index (sorted by region then sample id): every H-sample with its
    /// current effective importance, every L-sample with importance
    /// zero.
    pub fn residency_snapshot(&self) -> Vec<RecoveryEntry> {
        let mut out: Vec<RecoveryEntry> = self
            .hcache
            .ids()
            .map(|id| RecoveryEntry {
                region: RecoveryRegion::H,
                id,
                size: self.dataset.sample_size(id),
                iv: self
                    .effective_iv
                    .get(id)
                    .copied()
                    .unwrap_or(ImportanceValue::ZERO)
                    .get(),
            })
            .collect();
        out.extend(self.lcache.resident_ids().map(|id| RecoveryEntry {
            region: RecoveryRegion::L,
            id,
            size: self.dataset.sample_size(id),
            iv: 0.0,
        }));
        out.sort_by_key(|e| (e.region, e.id));
        out
    }

    /// Rebuild cache residency from a recovery index after a warm
    /// restart: H entries are re-admitted individually at their recorded
    /// importance, L entries are re-packaged (package-size chunks,
    /// deterministic — the packager's random fill is never consulted)
    /// and installed ready at `now`. Restoration is not demand traffic:
    /// it touches no fetch counters, no traces, and no storage backend —
    /// the payload comes from the node's local disk image.
    ///
    /// Returns `(restored_ids, h_count, l_count)`; entries squeezed out
    /// by capacity (the fresh manager starts at the configured region
    /// split, which may be tighter than the snapshot's) are dropped from
    /// all three.
    pub fn restore_residency(
        &mut self,
        entries: &[RecoveryEntry],
        now: SimTime,
    ) -> (Vec<SampleId>, u64, u64) {
        let mut restored_h: BTreeSet<SampleId> = BTreeSet::new();
        let mut sizes: BTreeMap<SampleId, ByteSize> = BTreeMap::new();
        let mut l_ids: Vec<SampleId> = Vec::new();
        for e in entries {
            match e.region {
                RecoveryRegion::H => {
                    let iv = ImportanceValue::saturating(e.iv);
                    let result = self.hcache.admit(SampleData::generate(e.id, e.size), iv);
                    if result.admitted {
                        restored_h.insert(e.id);
                    }
                    for v in result.evicted {
                        restored_h.remove(&v);
                    }
                }
                RecoveryRegion::L => {
                    sizes.insert(e.id, e.size);
                    l_ids.push(e.id);
                }
            }
        }
        // Chunk the L residency into package-size groups and rebuild
        // each as one package; with an empty fill pool the packager
        // takes exactly the listed samples.
        let target = self.config.package_size;
        let mut groups: Vec<(Vec<SampleId>, ByteSize)> = Vec::new();
        let mut group: Vec<SampleId> = Vec::new();
        let mut group_bytes = ByteSize::ZERO;
        for id in l_ids {
            let sz = sizes.get(&id).copied().unwrap_or(ByteSize::ZERO);
            if !group.is_empty() && group_bytes + sz > target {
                groups.push((std::mem::take(&mut group), group_bytes));
                group_bytes = ByteSize::ZERO;
            }
            group.push(id);
            group_bytes += sz;
        }
        if !group.is_empty() {
            groups.push((group, group_bytes));
        }
        let mut restored_l: Vec<SampleId> = Vec::new();
        for (ids, bytes) in groups {
            let pkg = self.packager.build_with_target(
                &ids,
                &[],
                |i| sizes.get(&i).copied().unwrap_or(ByteSize::ZERO),
                bytes,
            );
            self.lcache.install_package(pkg, now);
            restored_l.extend(ids);
        }
        self.lcache.integrate(now);
        restored_l.retain(|id| self.lcache.contains(*id));
        let h = restored_h.len() as u64;
        let l = restored_l.len() as u64;
        let mut all: Vec<SampleId> = restored_h.into_iter().collect();
        all.extend(restored_l);
        (all, h, l)
    }
}

impl Observable for IcacheManager {
    fn set_obs(&mut self, obs: Obs) {
        // Seed the gauges so snapshots carry the split before the first
        // rebalance; every rebalance keeps them current.
        self.coordinator.set_obs(obs.clone());
        self.obs = CacheObs::new(obs);
        self.obs.h_capacity.set(self.hcache.capacity().as_f64());
        self.obs.l_capacity.set(self.lcache.capacity().as_f64());
    }
}

impl CacheSystem for IcacheManager {
    fn name(&self) -> &str {
        "icache"
    }

    fn fetch(
        &mut self,
        job: JobId,
        id: SampleId,
        size: ByteSize,
        now: SimTime,
        storage: &mut dyn StorageBackend,
    ) -> Fetch {
        if self.primary_job.is_none() {
            self.primary_job = Some(job);
        }
        self.lcache.integrate(now);

        // Benefit probe, phase 1: bypass the cache entirely (§III-D).
        if self.config.multi_job {
            self.coordinator.register_job(job);
            if self.coordinator.should_bypass(job) {
                let done = storage.read_sample(id, size, now) + self.config.rpc_overhead;
                self.record(job, Recorded::Miss(id, size));
                self.coordinator
                    .record_fetch(job, done.saturating_since(now));
                return Fetch {
                    ready_at: done,
                    served_id: id,
                    outcome: FetchOutcome::Miss,
                };
            }
        }

        // Before the first H-list arrives (the warm-up epoch) there is no
        // importance information: serve as a plain pass-through + fill,
        // without substitution — warm-up must remain a clean full pass.
        let warmed_up = self.coordinator.hlist(job).is_some();
        let is_h = self.coordinator.hlist(job).is_some_and(|h| h.contains(id));
        let fetch = if is_h {
            self.fetch_h(job, id, size, now, storage)
        } else {
            self.fetch_l(job, id, size, now, storage, warmed_up)
        };
        self.obs.fetch.observe(fetch.ready_at.saturating_since(now));
        if self.config.multi_job {
            self.coordinator
                .record_fetch(job, fetch.ready_at.saturating_since(now));
        }
        self.maybe_trigger_load(now, storage);
        fetch
    }

    fn update_hlist(&mut self, job: JobId, hlist: &HList) {
        if self.config.hlist_filter.is_some_and(|only| only != job) {
            return;
        }
        self.coordinator.set_hlist(job, hlist.clone());
        self.effective_iv = if self.config.multi_job && self.coordinator.job_count() > 1 {
            self.coordinator.aggregate().into_iter().collect()
        } else {
            hlist.entries().iter().map(|e| (e.id, e.iv)).collect()
        };
        self.hcache.begin_refresh(&self.effective_iv);
        self.obs.emit(TraceEvent::ShadowHeapRefill {
            epoch: self.current_epoch,
            entries: self.effective_iv.len() as u64,
        });
        self.rebuild_l_pool();
    }

    fn on_epoch_start(&mut self, job: JobId, epoch: Epoch) {
        if self.config.multi_job {
            self.coordinator.register_job(job);
            self.coordinator.on_epoch_start(job);
        }
        if self.primary_job.is_none() {
            self.primary_job = Some(job);
        }
        if self.primary_job == Some(job) {
            self.current_epoch = epoch.0 as u64;
            self.lcache.on_epoch_start();
            self.h_sub_used.clear();
        }
    }

    fn on_epoch_end(&mut self, job: JobId, epoch: Epoch) {
        if self.primary_job != Some(job) {
            return;
        }
        self.hcache.finish_refresh();
        // Frequency-driven region re-balancing (§III-A). Warm-up accesses
        // carry no H/L classification, so rebalancing waits for the first
        // H-list.
        let total = self.h_accesses + self.l_accesses;
        if total > 0 && self.config.enable_lcache && self.coordinator.any_hlist() {
            let h_cap = self
                .config
                .rebalanced_h_capacity(self.h_accesses as f64 / total as f64);
            let evicted = self.hcache.resize(h_cap);
            self.record(job, Recorded::Evicted(&evicted));
            self.spill_to_pm(&evicted);
            let l_cap = self.config.capacity.saturating_sub(h_cap);
            self.lcache.set_capacity(l_cap);
            self.obs.h_capacity.set(h_cap.as_f64());
            self.obs.l_capacity.set(l_cap.as_f64());
            self.obs.emit(TraceEvent::RegionRebalance {
                epoch: epoch.0 as u64,
                h_bytes: h_cap.as_u64(),
                l_bytes: l_cap.as_u64(),
                evicted: evicted.len() as u64,
            });
        }
        self.h_accesses = 0;
        self.l_accesses = 0;
        // DESIGN.md §7: `cache.hit_ratio` is defined as the paper-style
        // ratio at the last epoch boundary.
        self.obs.hit_ratio.set(self.stats.hit_ratio());
    }

    fn set_obs(&mut self, obs: icache_obs::Obs) {
        Observable::set_obs(self, obs);
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
        self.job_stats.clear();
    }

    fn used_bytes(&self) -> ByteSize {
        self.hcache.used() + self.lcache.used()
    }

    fn capacity(&self) -> ByteSize {
        self.config.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icache_sampling::ImportanceTable;
    use icache_storage::{LocalTier, Pfs, PfsConfig};
    use icache_types::DatasetBuilder;

    fn tiny_dataset() -> Dataset {
        DatasetBuilder::new("tiny", 1_000)
            .size_model(icache_types::SizeModel::Fixed(ByteSize::kib(3)))
            .build()
            .unwrap()
    }

    fn manager(ds: &Dataset, frac: f64) -> IcacheManager {
        IcacheManager::new(IcacheConfig::for_dataset(ds, frac).unwrap(), ds).unwrap()
    }

    fn hlist(ds: &Dataset, hot: u64, frac: f64) -> HList {
        let mut t = ImportanceTable::new(ds.len());
        for i in 0..ds.len() {
            t.record_loss(SampleId(i), if i < hot { 10.0 + i as f64 } else { 0.01 });
        }
        HList::top_fraction(&t, frac)
    }

    #[test]
    fn config_for_dataset_sizes_regions() {
        let ds = tiny_dataset();
        let m = manager(&ds, 0.2);
        assert_eq!(m.capacity(), ds.total_bytes().scaled(0.2));
        assert!(m.l_capacity() >= ByteSize::mib(1).min(m.capacity() / 2));
        assert_eq!(m.h_capacity() + m.l_capacity(), m.capacity());
    }

    #[test]
    fn h_sample_miss_then_hit() {
        let ds = tiny_dataset();
        let mut m = manager(&ds, 0.2);
        let mut st = LocalTier::tmpfs();
        m.update_hlist(JobId(0), &hlist(&ds, 100, 0.1));

        let id = SampleId(0);
        let sz = ds.sample_size(id);
        let first = m.fetch(JobId(0), id, sz, SimTime::ZERO, &mut st);
        assert_eq!(first.outcome, FetchOutcome::Miss);
        let second = m.fetch(JobId(0), id, sz, first.ready_at, &mut st);
        assert_eq!(second.outcome, FetchOutcome::HitH);
        assert_eq!(m.stats().h_hits, 1);
        assert_eq!(m.stats().misses, 1);
    }

    #[test]
    fn l_sample_requests_trigger_package_loads_and_substitution() {
        let ds = tiny_dataset();
        let mut m = manager(&ds, 0.2);
        let mut st = LocalTier::tmpfs();
        m.update_hlist(JobId(0), &hlist(&ds, 100, 0.1));
        m.on_epoch_start(JobId(0), Epoch(0));

        // First L request misses (cache cold) and kicks the loader.
        let f0 = m.fetch(
            JobId(0),
            SampleId(999),
            ds.sample_size(SampleId(999)),
            SimTime::ZERO,
            &mut st,
        );
        assert_eq!(f0.outcome, FetchOutcome::Miss);
        // Give the loader time to land packages, then request more L samples.
        let mut now = SimTime::from_nanos(50_000_000);
        let mut served_from_cache = 0;
        for i in 900..999u64 {
            let f = m.fetch(
                JobId(0),
                SampleId(i),
                ds.sample_size(SampleId(i)),
                now,
                &mut st,
            );
            now = f.ready_at;
            if f.outcome.served_from_cache() {
                served_from_cache += 1;
            }
        }
        assert!(
            served_from_cache > 50,
            "only {served_from_cache} L requests served from cache"
        );
        assert!(m.l_len() > 0);
    }

    #[test]
    fn hlist_update_refreshes_admission_values() {
        let ds = tiny_dataset();
        let mut m = manager(&ds, 0.05);
        let mut st = LocalTier::tmpfs();
        m.update_hlist(JobId(0), &hlist(&ds, 50, 0.05));
        // Fill H-cache with hot samples.
        let mut now = SimTime::ZERO;
        for i in 0..50u64 {
            let f = m.fetch(
                JobId(0),
                SampleId(i),
                ds.sample_size(SampleId(i)),
                now,
                &mut st,
            );
            now = f.ready_at;
        }
        assert!(m.h_len() > 0);
        // New H-list with different hot set: old residents demote to zero.
        m.update_hlist(JobId(0), &hlist(&ds, 100, 0.05));
        assert!(m.h_len() > 0);
    }

    #[test]
    fn epoch_end_rebalances_regions_by_frequency() {
        let ds = tiny_dataset();
        let mut m = manager(&ds, 0.2);
        let mut st = LocalTier::tmpfs();
        m.update_hlist(JobId(0), &hlist(&ds, 100, 0.1));
        m.on_epoch_start(JobId(0), Epoch(0));
        let mut now = SimTime::ZERO;
        // 90% of accesses go to H samples.
        for rep in 0..9 {
            for i in 0..100u64 {
                let _ = rep;
                let f = m.fetch(
                    JobId(0),
                    SampleId(i),
                    ds.sample_size(SampleId(i)),
                    now,
                    &mut st,
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
            );
            now = f.ready_at;
        }
        let h_before = m.h_capacity();
        m.on_epoch_end(JobId(0), Epoch(0));
        assert!(m.h_capacity() >= h_before, "9:1 access ratio keeps H large");
        assert_eq!(m.h_capacity() + m.l_capacity(), m.capacity());
    }

    #[test]
    fn multi_job_probe_bypasses_then_uses_cache() {
        let ds = tiny_dataset();
        let mut cfg = IcacheConfig::for_dataset(&ds, 0.2).unwrap();
        cfg.multi_job = true;
        cfg.probe_samples = 5;
        let mut m = IcacheManager::new(cfg, &ds).unwrap();
        let mut st = Pfs::new(PfsConfig::orangefs_default()).unwrap();
        m.update_hlist(JobId(0), &hlist(&ds, 100, 0.1));
        m.on_epoch_start(JobId(0), Epoch(0));

        let mut now = SimTime::ZERO;
        for i in 0..5u64 {
            let f = m.fetch(
                JobId(0),
                SampleId(i),
                ds.sample_size(SampleId(i)),
                now,
                &mut st,
            );
            assert_eq!(f.outcome, FetchOutcome::Miss, "probe phase 1 bypasses");
            now = f.ready_at;
        }
        // Phase 2: H hits now count (samples 0..5 were NOT admitted during
        // bypass, so fetch them again: misses first, then hits).
        for i in 0..5u64 {
            let f = m.fetch(
                JobId(0),
                SampleId(i),
                ds.sample_size(SampleId(i)),
                now,
                &mut st,
            );
            now = f.ready_at;
        }
        assert!(m.coordinator().benefit(JobId(0)).is_some());
    }

    #[test]
    fn capacity_accounting_spans_both_regions() {
        let ds = tiny_dataset();
        let mut m = manager(&ds, 0.2);
        let mut st = LocalTier::tmpfs();
        m.update_hlist(JobId(0), &hlist(&ds, 100, 0.1));
        m.on_epoch_start(JobId(0), Epoch(0));
        let mut now = SimTime::ZERO;
        for i in 0..1000u64 {
            let f = m.fetch(
                JobId(0),
                SampleId(i),
                ds.sample_size(SampleId(i)),
                now,
                &mut st,
            );
            now = f.ready_at;
        }
        assert!(m.used_bytes() <= m.capacity());
        assert!(m.used_bytes() > ByteSize::ZERO);
    }

    #[test]
    fn per_job_stats_partition_the_global_counters() {
        let ds = tiny_dataset();
        let mut m = manager(&ds, 0.2);
        let mut st = LocalTier::tmpfs();
        m.update_hlist(JobId(0), &hlist(&ds, 200, 0.3));
        m.update_hlist(JobId(1), &hlist(&ds, 200, 0.3));
        m.on_epoch_start(JobId(0), Epoch(0));
        let mut now = SimTime::ZERO;
        for i in 0..60u64 {
            let job = JobId((i % 2) as u32);
            let f = m.fetch(job, SampleId(i), ds.sample_size(SampleId(i)), now, &mut st);
            now = f.ready_at;
        }
        let s0 = m.stats_for(JobId(0));
        let s1 = m.stats_for(JobId(1));
        let total = m.stats();
        assert_eq!(s0.requests() + s1.requests(), total.requests());
        assert_eq!(s0.insertions + s1.insertions, total.insertions);
        assert_eq!(s0.evictions + s1.evictions, total.evictions);
        assert_eq!(s0.requests(), 30);
        assert_eq!(s1.requests(), 30);
        assert_eq!(
            m.stats_for(JobId(9)).requests(),
            0,
            "unknown jobs are zeroed"
        );
    }

    #[test]
    fn h_miss_of_an_earlier_job_is_admitted_at_its_own_importance() {
        // Two jobs, disjoint H-lists, no multi-job aggregation: the
        // effective view is whichever list was pushed last (job 1's), so
        // job 0's H-misses must fall back to job 0's own list — what
        // every node of a sharded `--nodes N` run does for N-1 jobs.
        let ds = tiny_dataset();
        let list = |lo: u64, iv: fn(u64) -> f64| {
            let mut t = ImportanceTable::new(ds.len());
            for i in 0..ds.len() {
                let in_range = (lo..lo + 100).contains(&i);
                t.record_loss(SampleId(i), if in_range { iv(i - lo) } else { 0.001 });
            }
            HList::top_fraction(&t, 0.1)
        };
        let mut m = manager(&ds, 0.05);
        let mut st = LocalTier::tmpfs();
        m.update_hlist(JobId(0), &list(0, |k| 0.5 + 0.1 * k as f64));
        m.update_hlist(JobId(1), &list(500, |_| 2.0));
        m.on_epoch_start(JobId(0), Epoch(0));

        // Job 1 fills the H-region with its own samples, all at IV 2.0.
        let mut now = SimTime::ZERO;
        for i in 500..600u64 {
            let id = SampleId(i);
            now = m
                .fetch(JobId(1), id, ds.sample_size(id), now, &mut st)
                .ready_at;
        }
        let full = m.h_len();
        assert!(full > 0 && m.stats().rejections > 0, "H-region is full");

        // Job 0's sample 3 carries IV 0.8 on job 0's list: below every
        // resident, so Algorithm 1 rejects it.
        let before = m.stats();
        let cold = SampleId(3);
        let f = m.fetch(JobId(0), cold, ds.sample_size(cold), now, &mut st);
        assert_eq!(f.outcome, FetchOutcome::Miss);
        assert_eq!(m.stats().rejections, before.rejections + 1);
        assert!(!m.contains_cached(cold));

        // Sample 90 carries IV 9.5 there: it displaces one IV-2.0 resident.
        let before = m.stats();
        let hot = SampleId(90);
        let f = m.fetch(JobId(0), hot, ds.sample_size(hot), f.ready_at, &mut st);
        assert_eq!(f.outcome, FetchOutcome::Miss);
        assert_eq!(m.stats().insertions, before.insertions + 1);
        assert_eq!(m.stats().evictions, before.evictions + 1);
        assert_eq!(m.h_len(), full);
        let again = m.fetch(JobId(0), hot, ds.sample_size(hot), f.ready_at, &mut st);
        assert_eq!(again.outcome, FetchOutcome::HitH);
    }

    #[test]
    fn pm_tier_catches_dram_evictions() {
        let ds = tiny_dataset();
        // Tiny DRAM cache so evictions flow; PM large enough to hold them.
        let mut cfg = IcacheConfig::for_dataset(&ds, 0.05).unwrap();
        cfg.pm_tier = Some(crate::PmTierConfig::optane(ds.total_bytes()));
        let mut m = IcacheManager::new(cfg, &ds).unwrap();
        let mut st = LocalTier::tmpfs();
        m.update_hlist(JobId(0), &hlist(&ds, 500, 0.5));
        m.on_epoch_start(JobId(0), Epoch(0));
        let mut now = SimTime::ZERO;
        // Sweep enough H-samples to overflow DRAM into PM…
        for pass in 0..2 {
            for i in 0..500u64 {
                let _ = pass;
                let f = m.fetch(
                    JobId(0),
                    SampleId(i),
                    ds.sample_size(SampleId(i)),
                    now,
                    &mut st,
                );
                now = f.ready_at;
            }
        }
        let s = m.stats();
        assert!(s.evictions > 0, "DRAM must have spilled");
        assert!(s.pm_hits > 0, "re-reads of spilled samples must hit PM");
        assert_eq!(m.pm_tier().unwrap().hits(), s.pm_hits);
        // PM hits are cache hits in the paper's metric.
        assert!(s.hit_ratio() > s.strict_hit_ratio() - 1e-12);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let ds = tiny_dataset();
        assert!(IcacheConfig::for_dataset(&ds, 0.0).is_err());
        assert!(IcacheConfig::for_dataset(&ds, 1.5).is_err());
        let mut cfg = IcacheConfig::for_dataset(&ds, 0.2).unwrap();
        cfg.dram_bandwidth = -1.0;
        assert!(IcacheManager::new(cfg, &ds).is_err());
    }
}
