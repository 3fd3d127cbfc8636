//! The shared replay workload: the five-policy cache lineup driven by
//! `icache_replay` and `fig18_prefetch`.
//!
//! Both binaries replay one read-only [`Trace`] through every policy;
//! this module owns the policy lineup and construction so the CLI tool
//! and the figure cannot drift apart. Policies are built
//! from plain `&str` names (each build is cheap and self-contained), so
//! a sweep task can construct its cache inside the worker thread — the
//! `dyn CacheSystem` trait object never crosses a thread boundary.

use icache_baselines::{IlfuCache, LruCache, MinIoCache, QuiverCache};
use icache_core::{
    CacheSystem, ConcurrentCache, ConcurrentManager, IcacheConfig, IcacheManager, MutexCache,
};
use icache_sampling::{HList, ImportanceTable};
use icache_sim::replay::Trace;
use icache_types::{ByteSize, Dataset, JobId, SampleId};
use std::collections::HashMap;

/// The replay lineup, in report order.
pub const POLICIES: [&str; 5] = ["lru", "coordl", "ilfu", "quiver", "icache"];

/// Rank samples by first-seen popularity in the trace itself (what a
/// warmed-up H-list would hold) and keep the top half as H-samples —
/// iCache's importance view for trace replay.
pub fn popularity_hlist(trace: &Trace, universe: u64) -> HList {
    let mut popularity: HashMap<u64, f64> = HashMap::new();
    for r in trace.records() {
        *popularity.entry(r.sample.0).or_insert(0.0) += 1.0;
    }
    let mut table = ImportanceTable::new(universe);
    for (&id, &count) in &popularity {
        table.record_loss(SampleId(id), count);
    }
    HList::top_fraction(&table, 0.5)
}

/// Build one policy of the lineup.
///
/// # Errors
///
/// Returns a message for an unknown policy name or an invalid cache
/// configuration.
pub fn build_policy(
    name: &str,
    dataset: &Dataset,
    cap: ByteSize,
    cache_frac: f64,
    seed: u64,
    hlist: &HList,
) -> Result<Box<dyn CacheSystem + Send>, String> {
    Ok(match name {
        "lru" => Box::new(LruCache::new(cap)),
        "coordl" => Box::new(MinIoCache::new(cap)),
        "ilfu" => Box::new(IlfuCache::new(cap)),
        "quiver" => Box::new(QuiverCache::new(dataset, cap, seed).map_err(|e| e.to_string())?),
        "icache" => {
            let cfg = IcacheConfig::for_dataset(dataset, cache_frac).map_err(|e| e.to_string())?;
            let mut m = IcacheManager::new(cfg, dataset).map_err(|e| e.to_string())?;
            m.update_hlist(JobId(0), hlist);
            Box::new(m)
        }
        other => return Err(format!("unknown policy `{other}`")),
    })
}

/// Build one policy of the lineup as a [`ConcurrentCache`] servable by
/// many loader threads at once.
///
/// `icache` gets the real lock-striped [`ConcurrentManager`] with
/// `stripes` lock stripes; every baseline is wrapped in a coarse-lock
/// [`MutexCache`] — the honest comparison point the contention metrics
/// are measured against.
///
/// # Errors
///
/// Returns a message for an unknown policy name or an invalid cache
/// configuration.
pub fn build_concurrent_policy(
    name: &str,
    dataset: &Dataset,
    cap: ByteSize,
    cache_frac: f64,
    seed: u64,
    hlist: &HList,
    stripes: usize,
) -> Result<Box<dyn ConcurrentCache>, String> {
    Ok(match name {
        "icache" => {
            let cfg = IcacheConfig::for_dataset(dataset, cache_frac).map_err(|e| e.to_string())?;
            let m = ConcurrentManager::new(cfg, dataset, stripes).map_err(|e| e.to_string())?;
            m.update_hlist(JobId(0), hlist);
            Box::new(m)
        }
        other => Box::new(MutexCache::new(build_policy(
            other, dataset, cap, cache_frac, seed, hlist,
        )?)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use icache_sim::replay::AccessPattern;
    use icache_types::{DatasetBuilder, SizeModel};

    #[test]
    fn every_lineup_policy_builds() {
        let dataset = DatasetBuilder::new("wl", 200)
            .size_model(SizeModel::Fixed(ByteSize::kib(3)))
            .build()
            .unwrap();
        let trace = AccessPattern::Zipf { s: 1.1 }
            .generate(200, 400, JobId(0), 3)
            .unwrap();
        let hlist = popularity_hlist(&trace, 200);
        for name in POLICIES {
            let cap = dataset.total_bytes().scaled(0.1);
            let cache = build_policy(name, &dataset, cap, 0.1, 3, &hlist)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(cache.used_bytes() <= cache.capacity(), "{name} overfull");
        }
        assert!(build_policy("nope", &dataset, ByteSize::kib(1), 0.1, 3, &hlist).is_err());
    }
}
