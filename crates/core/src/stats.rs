//! Cache statistics.

use icache_types::ByteSize;

/// Counters describing how a cache system served requests.
///
/// The paper's "cache hit ratio" (Figures 11, 14, 16) counts substitution
/// as a hit — the request was served from memory — which
/// [`CacheStats::hit_ratio`] reproduces; [`CacheStats::strict_hit_ratio`]
/// excludes substitutions.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheStats {
    /// Requests served from the H-region (or the single region of a
    /// baseline cache) with the requested sample.
    pub h_hits: u64,
    /// Requests served from the L-region with the requested sample.
    pub l_hits: u64,
    /// Requests served from the PM victim tier (§VI extension; zero when
    /// no PM tier is configured).
    pub pm_hits: u64,
    /// Requests served by substituting a different cached sample.
    pub substitutions: u64,
    /// Requests that went to storage.
    pub misses: u64,
    /// Samples admitted into the cache.
    pub insertions: u64,
    /// Samples evicted to make room.
    pub evictions: u64,
    /// Samples that were denied admission (importance below the bar).
    pub rejections: u64,
    /// Bytes served from cache (hits + substitutions).
    pub bytes_from_cache: ByteSize,
    /// Bytes fetched from storage on misses (packages excluded).
    pub bytes_from_storage: ByteSize,
}

impl CacheStats {
    /// Total requests observed.
    pub fn requests(&self) -> u64 {
        self.h_hits + self.l_hits + self.pm_hits + self.substitutions + self.misses
    }

    /// Hits including substitutions over total requests (the paper's
    /// definition). Returns 0.0 when no requests were observed.
    pub fn hit_ratio(&self) -> f64 {
        let req = self.requests();
        if req == 0 {
            0.0
        } else {
            (self.h_hits + self.l_hits + self.pm_hits + self.substitutions) as f64 / req as f64
        }
    }

    /// Hits excluding substitutions over total requests.
    pub fn strict_hit_ratio(&self) -> f64 {
        let req = self.requests();
        if req == 0 {
            0.0
        } else {
            (self.h_hits + self.l_hits + self.pm_hits) as f64 / req as f64
        }
    }

    /// Counter-wise difference `self - earlier` (per-epoch deltas).
    ///
    /// Saturates at zero per counter: a delta mark taken before a
    /// `reset_stats()` legitimately exceeds the post-reset counters
    /// (e.g. a job holding an epoch mark across a cluster-wide reset),
    /// and must clamp rather than underflow.
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            h_hits: self.h_hits.saturating_sub(earlier.h_hits),
            l_hits: self.l_hits.saturating_sub(earlier.l_hits),
            pm_hits: self.pm_hits.saturating_sub(earlier.pm_hits),
            substitutions: self.substitutions.saturating_sub(earlier.substitutions),
            misses: self.misses.saturating_sub(earlier.misses),
            insertions: self.insertions.saturating_sub(earlier.insertions),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            rejections: self.rejections.saturating_sub(earlier.rejections),
            bytes_from_cache: self
                .bytes_from_cache
                .saturating_sub(earlier.bytes_from_cache),
            bytes_from_storage: self
                .bytes_from_storage
                .saturating_sub(earlier.bytes_from_storage),
        }
    }
}

/// Field-wise accumulation (summing nodes, jobs, or one event's delta).
impl std::ops::AddAssign for CacheStats {
    fn add_assign(&mut self, s: CacheStats) {
        self.h_hits += s.h_hits;
        self.l_hits += s.l_hits;
        self.pm_hits += s.pm_hits;
        self.substitutions += s.substitutions;
        self.misses += s.misses;
        self.insertions += s.insertions;
        self.evictions += s.evictions;
        self.rejections += s.rejections;
        self.bytes_from_cache += s.bytes_from_cache;
        self.bytes_from_storage += s.bytes_from_storage;
    }
}

icache_obs::obs_handles! {
    /// The run-wide `cache.*` / `lcache.*` metrics of the shared
    /// [`Obs`](icache_obs::Obs). Where [`CacheStats`] is one component's
    /// own resettable ledger (each cluster node has its own), these
    /// cells sum over every manager attached to the run.
    pub(crate) struct CacheObs {
        h_hits: Counter = CACHE_H_HITS,
        l_hits: Counter = CACHE_L_HITS,
        pm_hits: Counter = CACHE_PM_HITS,
        substitutions: Counter = CACHE_SUBSTITUTIONS,
        misses: Counter = CACHE_MISSES,
        insertions: Counter = CACHE_INSERTIONS,
        evictions: Counter = CACHE_EVICTIONS,
        rejections: Counter = CACHE_REJECTIONS,
        pm_spills: Counter = CACHE_PM_SPILLS,
        hit_ratio: Gauge = CACHE_HIT_RATIO,
        h_capacity: Gauge = CACHE_H_CAPACITY,
        l_capacity: Gauge = CACHE_L_CAPACITY,
        fetch: Histogram = CACHE_FETCH,
        packages_built: Counter = LCACHE_PACKAGES_BUILT,
        package_bytes: Counter = LCACHE_PACKAGE_BYTES,
        // Written by the striped concurrent cache only.
        lock_contention: Counter = CACHE_LOCK_CONTENTION,
        stripe_count: Gauge = CACHE_STRIPE_COUNT,
        stripe_h_max_residents: Gauge = CACHE_STRIPE_H_MAX_RESIDENTS,
        stripe_l_max_residents: Gauge = CACHE_STRIPE_L_MAX_RESIDENTS,
    }
}

impl icache_obs::ToJson for CacheStats {
    fn to_json(&self) -> icache_obs::Json {
        icache_obs::json!({
            "h_hits": self.h_hits,
            "l_hits": self.l_hits,
            "pm_hits": self.pm_hits,
            "substitutions": self.substitutions,
            "misses": self.misses,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "rejections": self.rejections,
            "bytes_from_cache": self.bytes_from_cache.as_u64(),
            "bytes_from_storage": self.bytes_from_storage.as_u64(),
            "hit_ratio": self.hit_ratio(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_zero_requests() {
        let s = CacheStats::default();
        assert_eq!(s.hit_ratio(), 0.0);
        assert_eq!(s.strict_hit_ratio(), 0.0);
    }

    #[test]
    fn substitutions_count_as_paper_hits_only() {
        let s = CacheStats {
            h_hits: 2,
            l_hits: 1,
            substitutions: 3,
            misses: 4,
            ..Default::default()
        };
        assert_eq!(s.requests(), 10);
        assert!((s.hit_ratio() - 0.6).abs() < 1e-12);
        assert!((s.strict_hit_ratio() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn delta_is_counterwise() {
        let early = CacheStats {
            h_hits: 1,
            misses: 2,
            ..Default::default()
        };
        let late = CacheStats {
            h_hits: 5,
            misses: 7,
            evictions: 1,
            ..Default::default()
        };
        let d = late.delta_since(&early);
        assert_eq!(d.h_hits, 4);
        assert_eq!(d.misses, 5);
        assert_eq!(d.evictions, 1);
    }

    #[test]
    fn delta_mark_straddling_reset_saturates_to_zero() {
        // A job takes a delta mark, then the cluster's counters are
        // reset behind its back (ClusterService::reset_stats). The next
        // delta used to underflow (debug-build panic); it must clamp.
        let mark = CacheStats {
            h_hits: 10,
            misses: 4,
            bytes_from_cache: ByteSize::kib(64),
            bytes_from_storage: ByteSize::kib(16),
            ..Default::default()
        };
        let after_reset = CacheStats {
            h_hits: 2, // fewer than the mark: counters restarted from zero
            ..Default::default()
        };
        let d = after_reset.delta_since(&mark);
        assert_eq!(d.h_hits, 0);
        assert_eq!(d.misses, 0);
        assert_eq!(d.bytes_from_cache, ByteSize::ZERO);
        assert_eq!(d.bytes_from_storage, ByteSize::ZERO);
        assert_eq!(d.requests(), 0);
    }
}
