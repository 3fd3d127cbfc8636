//! Trace replay: drive any cache system with a raw access trace.
//!
//! Training-loop simulation answers "how fast does the job run"; replay
//! answers the narrower cache-design question "how does this policy
//! behave under this reference stream", the way classic cache simulators
//! do. Traces come from three sources:
//!
//! * recorded [`crate::TracingCache`] JSONL (via [`Trace::parse_jsonl`]);
//! * synthetic generators ([`AccessPattern`]) — uniform, Zipfian,
//!   sequential scan, and epoch-shuffle (the DNN pattern);
//! * hand-built [`Trace`]s in tests.

use icache_core::{
    CacheStats, CacheSystem, ConcurrentCache, Fetch, PlannedAccess, PrefetchPipeline,
    PrefetchReport,
};
use icache_storage::StorageBackend;
use icache_types::{
    Dataset, Error, JobId, LatencyHistogram, Result, SampleId, SeedSequence, SimDuration, SimTime,
};
use rand::seq::SliceRandom;
use rand::Rng;

/// One access in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Requesting job.
    pub job: JobId,
    /// Requested sample.
    pub sample: SampleId,
}

/// An access trace over a dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    records: Vec<TraceRecord>,
}

impl Trace {
    /// Build from raw records.
    pub fn new(records: Vec<TraceRecord>) -> Self {
        Trace { records }
    }

    /// The accesses in order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of accesses.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Parse the JSONL format emitted by
    /// [`crate::TracingCache::to_jsonl`] (fields `job` and `requested`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] on malformed lines.
    pub fn parse_jsonl(input: &str) -> Result<Trace> {
        let mut records = Vec::new();
        for (lineno, line) in input.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v = icache_obs::Json::parse(line)
                .map_err(|e| Error::invalid_config("trace", format!("line {}: {e}", lineno + 1)))?;
            let job = v["job"].as_u64().ok_or_else(|| {
                Error::invalid_config("trace", format!("line {}: missing `job`", lineno + 1))
            })?;
            let sample = v["requested"].as_u64().ok_or_else(|| {
                Error::invalid_config("trace", format!("line {}: missing `requested`", lineno + 1))
            })?;
            records.push(TraceRecord {
                job: JobId(job as u32),
                sample: SampleId(sample),
            });
        }
        Ok(Trace { records })
    }
}

/// Synthetic access-pattern generators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// Independent uniform draws.
    Uniform,
    /// Zipf-distributed draws with the given skew `s > 0` (1.0 ≈ classic
    /// web/cache skew). Popular ids are the low ids.
    Zipf {
        /// Skew exponent.
        s: f64,
    },
    /// Repeated sequential scans of the dataset (the cache-adversarial
    /// pattern).
    Scan,
    /// Per-epoch random permutations — the DNN training pattern (§II-A).
    EpochShuffle,
}

impl AccessPattern {
    /// Generate `n` accesses over `universe` samples for `job`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for an empty universe or a
    /// non-positive Zipf skew.
    pub fn generate(self, universe: u64, n: usize, job: JobId, seed: u64) -> Result<Trace> {
        if universe == 0 {
            return Err(Error::invalid_config("universe", "must be non-empty"));
        }
        let mut rng = SeedSequence::new(seed).rng("trace-gen");
        let mut records = Vec::with_capacity(n);
        match self {
            AccessPattern::Uniform => {
                for _ in 0..n {
                    records.push(TraceRecord {
                        job,
                        sample: SampleId(rng.gen_range(0..universe)),
                    });
                }
            }
            AccessPattern::Zipf { s } => {
                if !(s > 0.0 && s.is_finite()) {
                    return Err(Error::invalid_config("s", "zipf skew must be positive"));
                }
                // Precomputed CDF + binary search. Universe capped for the
                // table; ids above the cap occur with ~zero probability
                // under any practical skew anyway.
                let m = universe.min(1_000_000) as usize;
                let mut cdf = Vec::with_capacity(m);
                let mut acc = 0.0;
                for k in 1..=m {
                    acc += 1.0 / (k as f64).powf(s);
                    cdf.push(acc);
                }
                let total = acc;
                for _ in 0..n {
                    let u: f64 = rng.gen_range(0.0..total);
                    let idx = cdf.partition_point(|&c| c < u);
                    records.push(TraceRecord {
                        job,
                        sample: SampleId(idx as u64),
                    });
                }
            }
            AccessPattern::Scan => {
                for i in 0..n {
                    records.push(TraceRecord {
                        job,
                        sample: SampleId(i as u64 % universe),
                    });
                }
            }
            AccessPattern::EpochShuffle => {
                let mut order: Vec<u64> = (0..universe).collect();
                let mut i = 0;
                while records.len() < n {
                    if i == 0 {
                        order.shuffle(&mut rng);
                    }
                    records.push(TraceRecord {
                        job,
                        sample: SampleId(order[i]),
                    });
                    i = (i + 1) % order.len();
                }
            }
        }
        Ok(Trace { records })
    }
}

/// The outcome of replaying a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Cache counters accumulated over the replay.
    pub stats: CacheStats,
    /// Per-access wait distribution: delivery minus request, which with
    /// a prefetcher is the consumer's *stall*, not raw storage time.
    pub latency: LatencyHistogram,
    /// Virtual time consumed by the replay, per-sample compute included.
    pub elapsed: SimDuration,
    /// Total time consumers waited on data (summed over loader threads).
    pub stall: SimDuration,
    /// Prefetcher counters; all zero at depth 0 (no prefetcher runs).
    pub prefetch: PrefetchReport,
}

impl ReplayReport {
    /// The paper-style hit ratio of the replay.
    pub fn hit_ratio(&self) -> f64 {
        self.stats.hit_ratio()
    }
}

/// One consumer's walk over `records`, in order, on its own virtual
/// clock: ask `fetch` for each record, wait for the delivery, spend
/// `compute`. Every replay — sequential or one loader thread of a
/// concurrent one, demand or prefetched — is this loop.
fn walk(
    records: &[TraceRecord],
    compute: SimDuration,
    mut fetch: impl FnMut(usize, &TraceRecord, SimTime) -> Fetch,
) -> (LatencyHistogram, SimDuration, SimTime) {
    let mut now = SimTime::ZERO;
    let mut latency = LatencyHistogram::new();
    let mut stall = SimDuration::ZERO;
    for (pos, r) in records.iter().enumerate() {
        let f = fetch(pos, r, now);
        let wait = f.ready_at.saturating_since(now);
        latency.record(wait);
        stall += wait;
        now = f.ready_at + compute;
    }
    (latency, stall, now)
}

/// Replay `trace` through `cache` against `storage` from one consumer
/// that spends `compute` per sample, with a clairvoyant prefetcher of
/// lookahead `depth` issuing the known access order ahead of it
/// (DESIGN.md §11) — so per-access cost is `max(compute, stall)`
/// instead of `compute + fetch`.
///
/// `depth == 0` runs no prefetcher: every access is a demand fetch
/// submitted when the previous one completes, and its full storage
/// latency is a stall; with `compute` zero this is the classic
/// back-to-back replay. The access *order* seen by the cache is
/// identical at every depth (plan order), so time-agnostic policies
/// count identically across depths; policies with time-paced machinery
/// (e.g. iCache's background package loader) may shift because issue
/// timestamps feed their pacing. `obs` receives the prefetcher's
/// counters and events.
pub fn replay(
    trace: &Trace,
    dataset: &Dataset,
    cache: &mut dyn CacheSystem,
    storage: &mut dyn StorageBackend,
    depth: usize,
    compute: SimDuration,
    obs: icache_obs::Obs,
) -> ReplayReport {
    let start_stats = cache.stats();
    let ((latency, stall, end), prefetch) = if depth == 0 {
        let walked = walk(&trace.records, compute, |_, r, now| {
            // The demand clock only moves forward, so the storage model
            // may retire queue bookings from the virtual past. (Not so
            // under the prefetcher, which issues out of order.)
            storage.release_before(now);
            let size = dataset.sample_size(r.sample);
            cache.fetch(r.job, r.sample, size, now, storage)
        });
        (walked, PrefetchReport::default())
    } else {
        let plan: Vec<PlannedAccess> = trace
            .records
            .iter()
            .map(|r| PlannedAccess {
                job: r.job,
                id: r.sample,
                size: dataset.sample_size(r.sample),
            })
            .collect();
        let mut pipe = PrefetchPipeline::new(depth, plan, SimTime::ZERO, obs)
            .expect("the pipeline refuses only depth 0, handled above");
        let walked = walk(&trace.records, compute, |pos, _, now| {
            pipe.fetch(pos, now, cache, storage)
        });
        (walked, pipe.finish())
    };
    ReplayReport {
        stats: cache.stats().delta_since(&start_stats),
        latency,
        elapsed: end.saturating_since(SimTime::ZERO),
        stall,
        prefetch,
    }
}

/// Replay `trace` through a shared [`ConcurrentCache`] on `threads`
/// loader threads, each a demand-fetching, zero-compute consumer (the
/// depth-0 case of [`replay`]).
///
/// The trace is partitioned round-robin (record `i` goes to thread
/// `i % threads`), mirroring how a DNN data loader splits one epoch's
/// index list across workers. Each thread owns its storage backend
/// (built by `make_storage` inside the thread), its RNG stream
/// (derived from `seed` and the thread index), and its virtual clock;
/// the cache is the only shared state. The report's `elapsed` is the
/// *slowest* thread's clock — the batch is ready when the last worker
/// is — and the latency histogram is the merge of all threads'.
///
/// With more than one thread the per-access results depend on the
/// interleaving, so runs are reproducible only given the same thread
/// schedule; counters still sum exactly (see
/// `icache_core::AtomicCacheStats`).
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] when `threads == 0`, and
/// propagates `make_storage` failures. A panicking loader thread
/// surfaces as [`Error::InvalidState`] rather than poisoning the
/// caller.
pub fn replay_concurrent<F>(
    trace: &Trace,
    dataset: &Dataset,
    cache: &dyn ConcurrentCache,
    threads: usize,
    seed: u64,
    make_storage: F,
) -> Result<ReplayReport>
where
    F: Fn() -> Result<Box<dyn StorageBackend>> + Sync,
{
    if threads == 0 {
        return Err(Error::invalid_config(
            "threads",
            "need at least one loader thread",
        ));
    }
    let start_stats = cache.stats();
    let mut shards: Vec<Vec<TraceRecord>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, r) in trace.records.iter().enumerate() {
        shards[i % threads].push(*r);
    }
    let make_storage = &make_storage;
    type Walked = (LatencyHistogram, SimDuration, SimTime);
    let per_thread: Vec<Result<Walked>> = std::thread::scope(|s| {
        let handles: Vec<_> = shards
            .iter()
            .enumerate()
            .map(|(t, records)| {
                s.spawn(move || -> Result<Walked> {
                    let mut storage = make_storage()?;
                    let mut rng = SeedSequence::new(seed).rng(&format!("loader{t}"));
                    Ok(walk(records, SimDuration::ZERO, |_, r, now| {
                        // Thread-local storage + monotone thread-local
                        // clock: safe to retire the virtual past.
                        storage.release_before(now);
                        let size = dataset.sample_size(r.sample);
                        cache.fetch(r.job, r.sample, size, now, storage.as_mut(), &mut rng)
                    }))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(Error::InvalidState("loader thread panicked".into())))
            })
            .collect()
    });
    let mut latency = LatencyHistogram::new();
    let mut stall = SimDuration::ZERO;
    let mut end = SimTime::ZERO;
    for r in per_thread {
        let (hist, waited, now) = r?;
        latency.merge(&hist);
        stall += waited;
        end = end.max(now);
    }
    Ok(ReplayReport {
        stats: cache.stats().delta_since(&start_stats),
        latency,
        elapsed: end.saturating_since(SimTime::ZERO),
        stall,
        prefetch: PrefetchReport::default(),
    })
}

/// Convenience: a one-line summary string for reports.
pub fn summarize(report: &ReplayReport) -> String {
    format!(
        "hits {:.1}% | p50 {} | p99 {} | elapsed {}",
        report.hit_ratio() * 100.0,
        report.latency.quantile(0.5),
        report.latency.quantile(0.99),
        report.elapsed
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use icache_baselines::LruCache;
    use icache_storage::LocalTier;
    use icache_types::{ByteSize, DatasetBuilder, SizeModel};

    fn dataset(n: u64) -> Dataset {
        DatasetBuilder::new("rp", n)
            .size_model(SizeModel::Fixed(ByteSize::kib(3)))
            .build()
            .unwrap()
    }

    /// The classic replay: demand fetches, no compute.
    fn back_to_back(
        trace: &Trace,
        ds: &Dataset,
        cache: &mut dyn CacheSystem,
        storage: &mut dyn StorageBackend,
    ) -> ReplayReport {
        replay(
            trace,
            ds,
            cache,
            storage,
            0,
            SimDuration::ZERO,
            icache_obs::Obs::noop(),
        )
    }

    fn pfs() -> icache_storage::Pfs {
        icache_storage::Pfs::new(icache_storage::PfsConfig::orangefs_default()).unwrap()
    }

    #[test]
    fn zipf_concentrates_on_low_ids() {
        let t = AccessPattern::Zipf { s: 1.1 }
            .generate(10_000, 20_000, JobId(0), 7)
            .unwrap();
        let head = t.records().iter().filter(|r| r.sample.0 < 100).count();
        assert!(head > 8_000, "zipf head too light: {head}");
    }

    #[test]
    fn epoch_shuffle_visits_everything_once_per_epoch() {
        let t = AccessPattern::EpochShuffle
            .generate(50, 100, JobId(0), 7)
            .unwrap();
        let first: std::collections::HashSet<u64> =
            t.records()[..50].iter().map(|r| r.sample.0).collect();
        assert_eq!(first.len(), 50, "first epoch is a permutation");
    }

    #[test]
    fn lru_loves_zipf_and_hates_scans() {
        let ds = dataset(10_000);
        let cap = ds.total_bytes().scaled(0.1);

        let zipf = AccessPattern::Zipf { s: 1.1 }
            .generate(10_000, 30_000, JobId(0), 1)
            .unwrap();
        let mut lru = LruCache::new(cap);
        let mut st = LocalTier::tmpfs();
        let z = back_to_back(&zipf, &ds, &mut lru, &mut st);

        let scan = AccessPattern::Scan
            .generate(10_000, 30_000, JobId(0), 1)
            .unwrap();
        let mut lru = LruCache::new(cap);
        let mut st = LocalTier::tmpfs();
        let s = back_to_back(&scan, &ds, &mut lru, &mut st);

        assert!(z.hit_ratio() > 0.5, "zipf hit ratio {}", z.hit_ratio());
        assert!(s.hit_ratio() < 0.01, "scan hit ratio {}", s.hit_ratio());
        assert!(z.elapsed < s.elapsed);
    }

    #[test]
    fn jsonl_roundtrip_through_tracing_cache() {
        use crate::TracingCache;
        let ds = dataset(100);
        let mut traced = TracingCache::new(LruCache::new(ByteSize::kib(64)), 256);
        let mut st = LocalTier::tmpfs();
        let original = AccessPattern::Uniform
            .generate(100, 50, JobId(2), 3)
            .unwrap();
        back_to_back(&original, &ds, &mut traced, &mut st);
        let parsed = Trace::parse_jsonl(&traced.to_jsonl()).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(Trace::parse_jsonl("not json").is_err());
        assert!(Trace::parse_jsonl("{\"job\":1}").is_err());
        assert!(Trace::parse_jsonl("").unwrap().is_empty());
    }

    #[test]
    fn generators_validate_inputs() {
        assert!(AccessPattern::Uniform.generate(0, 10, JobId(0), 1).is_err());
        assert!(AccessPattern::Zipf { s: 0.0 }
            .generate(10, 10, JobId(0), 1)
            .is_err());
        assert!(AccessPattern::Zipf { s: f64::NAN }
            .generate(10, 10, JobId(0), 1)
            .is_err());
    }

    #[test]
    fn one_loop_serves_every_thread_count_and_depth() {
        use icache_core::MutexCache;
        let ds = dataset(2_000);
        let cap = ds.total_bytes().scaled(0.1);
        let t = AccessPattern::Zipf { s: 1.1 }
            .generate(2_000, 6_000, JobId(0), 3)
            .unwrap();

        // The reference: a hand-written back-to-back fetch loop.
        let mut lru = LruCache::new(cap);
        let mut st = pfs();
        let mut now = SimTime::ZERO;
        for r in t.records() {
            now = lru
                .fetch(r.job, r.sample, ds.sample_size(r.sample), now, &mut st)
                .ready_at;
        }
        let (hand_stats, hand_elapsed) = (lru.stats(), now.saturating_since(SimTime::ZERO));

        for (threads, depth) in [(1usize, 0usize), (1, 4), (2, 0), (4, 0)] {
            let case = format!("threads {threads}, depth {depth}");
            let rep = if threads == 1 {
                let mut lru = LruCache::new(cap);
                let mut st = pfs();
                let obs = icache_obs::Obs::noop();
                replay(&t, &ds, &mut lru, &mut st, depth, SimDuration::ZERO, obs)
            } else {
                let shared = MutexCache::new(Box::new(LruCache::new(cap)));
                replay_concurrent(&t, &ds, &shared, threads, 3, || Ok(Box::new(pfs()))).unwrap()
            };
            assert_eq!(rep.stats.requests(), t.len() as u64, "{case}: conservation");
            assert_eq!(rep.latency.count(), t.len() as u64, "{case}");
            if depth > 0 {
                assert_eq!(
                    rep.prefetch.hits + rep.prefetch.late,
                    t.len() as u64,
                    "{case}: every consumed access is a prefetch hit or late"
                );
            } else {
                assert_eq!(rep.prefetch, PrefetchReport::default(), "{case}");
            }
            if threads == 1 {
                assert_eq!(rep.stats, hand_stats, "{case}: plan order at every depth");
            }
            if (threads, depth) == (1, 0) {
                assert_eq!(rep.elapsed, hand_elapsed, "{case}");
                assert_eq!(rep.stall, rep.elapsed, "{case}: zero compute is all stall");
                // One loader thread is the same consumer.
                let shared = MutexCache::new(Box::new(LruCache::new(cap)));
                let one =
                    replay_concurrent(&t, &ds, &shared, 1, 3, || Ok(Box::new(pfs()))).unwrap();
                assert_eq!(one, rep, "{case}: one loader thread");
            }
        }
    }

    /// Absolute golden recorded at the commit *before* the H-heap moved
    /// inside the admit lock and the H-list inside the epoch gate: one
    /// stripe, one loader thread, a fixed 20 k-request Zipf trace, three
    /// epochs each opened by an H-list push whose importances tie in
    /// groups of 50 ids and rotate by one group per epoch. One thread
    /// makes the run a pure function of its inputs, so any change to
    /// admission order, tie-breaking, re-keying or rebalancing moves
    /// these numbers.
    #[test]
    fn concurrent_manager_one_thread_matches_the_recorded_golden() {
        use icache_core::{CacheStats, ConcurrentCache, ConcurrentManager, IcacheConfig};
        use icache_sampling::{HList, ImportanceTable};
        use icache_types::Epoch;
        let ds = dataset(5_000);
        let t = AccessPattern::Zipf { s: 1.1 }
            .generate(5_000, 20_000, JobId(0), 17)
            .unwrap();
        let cfg = IcacheConfig::for_dataset(&ds, 0.1).unwrap();
        let m = ConcurrentManager::new(cfg, &ds, 1).unwrap();
        for e in 0..3u32 {
            let mut table = ImportanceTable::new(ds.len());
            for i in 0..ds.len() {
                table.record_loss(SampleId(i), 10.0 - ((i / 50 + u64::from(e)) % 10) as f64);
            }
            m.update_hlist(JobId(0), &HList::top_fraction(&table, 0.3));
            m.on_epoch_start(JobId(0), Epoch(e));
            replay_concurrent(&t, &ds, &m, 1, 17, || Ok(Box::new(pfs()))).unwrap();
            m.on_epoch_end(JobId(0), Epoch(e));
        }
        let golden = CacheStats {
            h_hits: 13_926,
            l_hits: 2_110,
            pm_hits: 0,
            substitutions: 7_653,
            misses: 36_311,
            insertions: 934,
            evictions: 684,
            rejections: 29_274,
            bytes_from_cache: ByteSize::new(72_772_608),
            bytes_from_storage: ByteSize::new(111_547_392),
        };
        assert_eq!(m.stats(), golden);
        assert_eq!((m.h_len(), m.l_len()), (250, 239));
        assert_eq!(m.h_capacity(), ByteSize::new(768_000));
    }

    #[test]
    fn concurrent_replay_rejects_zero_threads_and_maps_loader_panics() {
        use icache_core::MutexCache;
        let ds = dataset(500);
        let t = AccessPattern::Uniform
            .generate(500, 100, JobId(0), 5)
            .unwrap();
        let shared = MutexCache::new(Box::new(LruCache::new(ds.total_bytes().scaled(0.2))));
        let zero = replay_concurrent(&t, &ds, &shared, 0, 5, || Ok(Box::new(LocalTier::tmpfs())));
        assert!(matches!(zero, Err(Error::InvalidConfig { .. })), "{zero:?}");
        let panicked = replay_concurrent(&t, &ds, &shared, 2, 5, || panic!("loader dies"));
        assert!(
            matches!(panicked, Err(Error::InvalidState(_))),
            "{panicked:?}"
        );
    }

    #[test]
    fn prefetch_stall_non_increasing_in_depth() {
        let ds = dataset(2_000);
        let cap = ds.total_bytes().scaled(0.1);
        let t = AccessPattern::Zipf { s: 1.1 }
            .generate(2_000, 6_000, JobId(0), 3)
            .unwrap();
        let compute = SimDuration::from_micros(150);
        let mut stalls = Vec::new();
        let mut stats = Vec::new();
        for depth in [0usize, 1, 4, 16] {
            let mut lru = LruCache::new(cap);
            let mut st = pfs();
            let obs = icache_obs::Obs::noop();
            let rep = replay(&t, &ds, &mut lru, &mut st, depth, compute, obs);
            if depth > 0 {
                assert_eq!(
                    rep.prefetch.hits + rep.prefetch.late,
                    t.len() as u64,
                    "conservation: every consumed access is a hit or late"
                );
                assert_eq!(rep.prefetch.issued, t.len() as u64);
                assert_eq!(rep.prefetch.cancelled, 0);
            }
            stalls.push(rep.stall);
            stats.push(rep.stats);
        }
        for s in &stats[1..] {
            assert_eq!(&stats[0], s, "cache behavior identical across depths");
        }
        for pair in stalls.windows(2) {
            assert!(
                pair[1] <= pair[0],
                "stall must not increase with depth: {stalls:?}"
            );
        }
        assert!(
            *stalls.last().unwrap() < stalls[0],
            "deep lookahead hides some storage latency: {stalls:?}"
        );
    }

    #[test]
    fn summary_mentions_key_numbers() {
        let ds = dataset(100);
        let mut lru = LruCache::new(ByteSize::kib(64));
        let mut st = LocalTier::tmpfs();
        let t = AccessPattern::Scan.generate(100, 100, JobId(0), 1).unwrap();
        let rep = back_to_back(&t, &ds, &mut lru, &mut st);
        let s = summarize(&rep);
        assert!(s.contains("hits"));
        assert!(s.contains("p99"));
    }
}
