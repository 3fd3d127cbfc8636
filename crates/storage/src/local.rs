//! Local storage tiers (tmpfs DRAM, NVMe SSD).
//!
//! The motivation experiment of Figure 2 trains once with the dataset in a
//! local DRAM tmpfs and once from the remote PFS; these tiers model the
//! local cases.

use crate::stats::ReadLedger;
use crate::{FifoResource, StorageBackend, StorageStats};
use icache_types::{ByteSize, Error, Result, SampleId, SimDuration, SimTime};

/// Configuration of a local storage tier.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalTierConfig {
    /// Tier name for reports.
    pub name: String,
    /// Fixed cost per read (syscall + page-cache lookup, or NVMe command).
    pub request_overhead: SimDuration,
    /// Streaming bandwidth in bytes/second.
    pub bandwidth: f64,
    /// Number of channels that can serve requests in parallel (memory
    /// controllers / NVMe queues).
    pub channels: usize,
}

impl LocalTierConfig {
    fn validate(&self) -> Result<()> {
        if self.channels == 0 {
            return Err(Error::invalid_config("channels", "must be at least 1"));
        }
        if !(self.bandwidth > 0.0 && self.bandwidth.is_finite()) {
            return Err(Error::invalid_config(
                "bandwidth",
                "must be positive and finite",
            ));
        }
        Ok(())
    }
}

/// A local storage tier with multiple parallel channels.
///
/// Requests are dispatched to the earliest-available channel, so a tier
/// with `channels = 8` behaves like an 8-wide NVMe queue or an 8-channel
/// memory system.
///
/// # Examples
///
/// ```
/// use icache_storage::{LocalTier, StorageBackend};
/// use icache_types::{ByteSize, SampleId, SimTime};
///
/// let mut tmpfs = LocalTier::tmpfs();
/// let done = tmpfs.read_sample(SampleId(0), ByteSize::kib(3), SimTime::ZERO);
/// assert!(done.as_secs_f64() < 1e-5, "DRAM reads are microseconds");
/// ```
#[derive(Debug, Clone)]
pub struct LocalTier {
    config: LocalTierConfig,
    channels: Vec<FifoResource>,
    ledger: ReadLedger,
}

impl LocalTier {
    /// Build a tier from `config`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for zero channels or non-positive
    /// bandwidth.
    pub fn new(config: LocalTierConfig) -> Result<Self> {
        config.validate()?;
        Ok(LocalTier {
            channels: vec![FifoResource::new(); config.channels],
            ledger: ReadLedger::new(),
            config,
        })
    }

    /// A DRAM-backed tmpfs: ~10 GB/s streaming, ~2 µs per read, 8 channels.
    pub fn tmpfs() -> LocalTier {
        LocalTier::new(LocalTierConfig {
            name: "tmpfs".into(),
            request_overhead: SimDuration::from_micros(2),
            bandwidth: 10.0e9,
            channels: 8,
        })
        .expect("preset is valid")
    }

    /// A local NVMe SSD: ~2.5 GB/s streaming, ~80 µs per read, 4 queues.
    pub fn nvme_ssd() -> LocalTier {
        LocalTier::new(LocalTierConfig {
            name: "nvme-ssd".into(),
            request_overhead: SimDuration::from_micros(80),
            bandwidth: 2.5e9,
            channels: 4,
        })
        .expect("preset is valid")
    }

    /// The configuration this tier was built with.
    pub fn config(&self) -> &LocalTierConfig {
        &self.config
    }

    fn service(&self, bytes: ByteSize) -> SimDuration {
        self.config.request_overhead
            + SimDuration::from_secs_f64(bytes.as_f64() / self.config.bandwidth)
    }

    fn submit(&mut self, now: SimTime, service: SimDuration) -> SimTime {
        // Earliest-available-channel dispatch.
        let ch = self
            .channels
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.busy_until())
            .map(|(i, _)| i)
            .expect("at least one channel");
        self.channels[ch].submit(now, service)
    }
}

impl StorageBackend for LocalTier {
    fn name(&self) -> &str {
        &self.config.name
    }

    fn read_sample(&mut self, _id: SampleId, size: ByteSize, now: SimTime) -> SimTime {
        let service = self.service(size);
        let done = self.submit(now, service);
        self.ledger.record_sample(size, done.saturating_since(now));
        done
    }

    fn read_package(&mut self, size: ByteSize, now: SimTime) -> SimTime {
        let service = self.service(size);
        let done = self.submit(now, service);
        self.ledger.record_package(size, done.saturating_since(now));
        done
    }

    fn stats(&self) -> StorageStats {
        self.ledger.stats
    }

    fn set_obs(&mut self, obs: icache_obs::Obs) {
        self.ledger.set_obs(obs);
    }

    fn reset_stats(&mut self) {
        self.ledger.stats = StorageStats::default();
        for c in &mut self.channels {
            c.reset_stats();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tmpfs_is_orders_of_magnitude_faster_than_pfs() {
        use crate::{Pfs, PfsConfig};
        let mut tmpfs = LocalTier::tmpfs();
        let mut pfs = Pfs::new(PfsConfig::orangefs_default()).unwrap();
        let t_local = tmpfs.read_sample(SampleId(0), ByteSize::kib(3), SimTime::ZERO);
        let t_remote = pfs.read_sample(SampleId(0), ByteSize::kib(3), SimTime::ZERO);
        assert!(t_remote.as_nanos() > 100 * t_local.as_nanos());
    }

    #[test]
    fn channels_serve_in_parallel() {
        let mut tier = LocalTier::new(LocalTierConfig {
            name: "t".into(),
            request_overhead: SimDuration::from_micros(10),
            bandwidth: 1e9,
            channels: 4,
        })
        .unwrap();
        let mut completions = Vec::new();
        for i in 0..4 {
            completions.push(tier.read_sample(SampleId(i), ByteSize::ZERO, SimTime::ZERO));
        }
        // 4 requests, 4 channels: all finish at overhead, none queue.
        for c in completions {
            assert_eq!(c, SimTime::ZERO + SimDuration::from_micros(10));
        }
    }

    #[test]
    fn fifth_request_queues_behind_first() {
        let mut tier = LocalTier::new(LocalTierConfig {
            name: "t".into(),
            request_overhead: SimDuration::from_micros(10),
            bandwidth: 1e9,
            channels: 4,
        })
        .unwrap();
        for i in 0..4 {
            tier.read_sample(SampleId(i), ByteSize::ZERO, SimTime::ZERO);
        }
        let fifth = tier.read_sample(SampleId(4), ByteSize::ZERO, SimTime::ZERO);
        assert_eq!(fifth, SimTime::ZERO + SimDuration::from_micros(20));
    }

    #[test]
    fn validation_rejects_zero_channels() {
        let cfg = LocalTierConfig {
            name: "bad".into(),
            request_overhead: SimDuration::ZERO,
            bandwidth: 1.0,
            channels: 0,
        };
        assert!(LocalTier::new(cfg).is_err());
    }
}
