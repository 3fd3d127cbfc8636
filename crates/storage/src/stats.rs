//! Aggregate storage statistics.

use icache_types::{ByteSize, SimDuration};

/// Counters describing the I/O a backend has served.
///
/// The per-epoch deltas of these counters are what the paper's Figures 9
/// and 11 report (I/O volume and the split between small random reads and
/// large package reads).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StorageStats {
    /// Number of random single-sample reads served.
    pub sample_reads: u64,
    /// Number of sequential package reads served.
    pub package_reads: u64,
    /// Bytes moved by sample reads.
    pub sample_bytes: ByteSize,
    /// Bytes moved by package reads.
    pub package_bytes: ByteSize,
    /// Total time requests spent in service (queueing excluded).
    pub service_time: SimDuration,
}

impl StorageStats {
    /// Total reads of both classes.
    pub fn total_reads(&self) -> u64 {
        self.sample_reads + self.package_reads
    }

    /// Total bytes of both classes.
    pub fn total_bytes(&self) -> ByteSize {
        self.sample_bytes + self.package_bytes
    }

    /// Record a sample read.
    pub fn record_sample(&mut self, bytes: ByteSize, service: SimDuration) {
        self.sample_reads += 1;
        self.sample_bytes += bytes;
        self.service_time += service;
    }

    /// Record a package read.
    pub fn record_package(&mut self, bytes: ByteSize, service: SimDuration) {
        self.package_reads += 1;
        self.package_bytes += bytes;
        self.service_time += service;
    }

    /// Counter-wise difference `self - earlier` (for per-epoch deltas).
    ///
    /// Saturates at zero per counter: a delta mark taken before a
    /// `reset_stats()` legitimately exceeds the post-reset counters and
    /// must clamp rather than underflow.
    pub fn delta_since(&self, earlier: &StorageStats) -> StorageStats {
        StorageStats {
            sample_reads: self.sample_reads.saturating_sub(earlier.sample_reads),
            package_reads: self.package_reads.saturating_sub(earlier.package_reads),
            sample_bytes: self.sample_bytes.saturating_sub(earlier.sample_bytes),
            package_bytes: self.package_bytes.saturating_sub(earlier.package_bytes),
            service_time: self.service_time.saturating_sub(earlier.service_time),
        }
    }
}

icache_obs::obs_handles! {
    /// The run-wide `storage.*` metrics every backend records into.
    struct StorageObs {
        sample_reads: Counter = STORAGE_SAMPLE_READS,
        sample_bytes: Counter = STORAGE_SAMPLE_BYTES,
        sample_read: Histogram = STORAGE_SAMPLE_READ,
        package_reads: Counter = STORAGE_PACKAGE_READS,
        package_bytes: Counter = STORAGE_PACKAGE_BYTES,
        package_read: Histogram = STORAGE_PACKAGE_READ,
    }
}

/// The one place a backend counts a read: its own [`StorageStats`]
/// (per backend, resettable) and the `storage.*` metrics of the shared
/// [`Obs`](icache_obs::Obs) (run-wide) move together.
#[derive(Debug, Clone)]
pub(crate) struct ReadLedger {
    pub(crate) stats: StorageStats,
    obs: StorageObs,
}

impl ReadLedger {
    /// Zeroed stats, recording into a detached handle until
    /// [`ReadLedger::set_obs`].
    pub(crate) fn new() -> Self {
        ReadLedger {
            stats: StorageStats::default(),
            obs: StorageObs::new(icache_obs::Obs::noop()),
        }
    }

    pub(crate) fn set_obs(&mut self, obs: icache_obs::Obs) {
        self.obs = StorageObs::new(obs);
    }

    pub(crate) fn record_sample(&mut self, bytes: ByteSize, latency: SimDuration) {
        self.stats.record_sample(bytes, latency);
        self.obs.sample_reads.inc();
        self.obs.sample_bytes.add(bytes.as_u64());
        self.obs.sample_read.observe(latency);
    }

    pub(crate) fn record_package(&mut self, bytes: ByteSize, latency: SimDuration) {
        self.stats.record_package(bytes, latency);
        self.obs.package_reads.inc();
        self.obs.package_bytes.add(bytes.as_u64());
        self.obs.package_read.observe(latency);
    }
}

impl icache_obs::ToJson for StorageStats {
    fn to_json(&self) -> icache_obs::Json {
        icache_obs::json!({
            "sample_reads": self.sample_reads,
            "package_reads": self.package_reads,
            "sample_bytes": self.sample_bytes.as_u64(),
            "package_bytes": self.package_bytes.as_u64(),
            "service_time_s": self.service_time.as_secs_f64(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_totals() {
        let mut s = StorageStats::default();
        s.record_sample(ByteSize::kib(3), SimDuration::from_micros(500));
        s.record_package(ByteSize::mib(1), SimDuration::from_millis(1));
        assert_eq!(s.total_reads(), 2);
        assert_eq!(s.total_bytes(), ByteSize::kib(3) + ByteSize::mib(1));
        assert_eq!(s.service_time, SimDuration::from_micros(1500));
    }

    #[test]
    fn delta_subtracts_counterwise() {
        let mut a = StorageStats::default();
        a.record_sample(ByteSize::new(10), SimDuration::from_nanos(5));
        let early = a;
        a.record_sample(ByteSize::new(20), SimDuration::from_nanos(7));
        let d = a.delta_since(&early);
        assert_eq!(d.sample_reads, 1);
        assert_eq!(d.sample_bytes, ByteSize::new(20));
        assert_eq!(d.service_time, SimDuration::from_nanos(7));
    }

    #[test]
    fn delta_mark_straddling_reset_saturates_to_zero() {
        // Mark taken, backend stats reset behind the caller's back: the
        // next delta used to underflow in debug builds; it must clamp.
        let mut mark = StorageStats::default();
        mark.record_sample(ByteSize::kib(3), SimDuration::from_micros(500));
        mark.record_package(ByteSize::mib(1), SimDuration::from_millis(1));
        let after_reset = StorageStats::default();
        let d = after_reset.delta_since(&mark);
        assert_eq!(d.sample_reads, 0);
        assert_eq!(d.package_reads, 0);
        assert_eq!(d.total_bytes(), ByteSize::ZERO);
        assert_eq!(d.service_time, SimDuration::ZERO);
    }
}
