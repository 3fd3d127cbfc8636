//! NFS server model (used by the distributed experiments, paper §V-G).

use crate::stats::ReadLedger;
use crate::{StorageBackend, StorageStats, TimelineResource};
use icache_types::{ByteSize, Error, Result, SampleId, SimDuration, SimTime};

/// Configuration of the NFS model.
#[derive(Debug, Clone, PartialEq)]
pub struct NfsConfig {
    /// Fixed cost per request (RPC round trip + metadata + seek).
    pub request_overhead: SimDuration,
    /// Server streaming bandwidth in bytes/second (the paper's NFS peaks
    /// at about 10 Gb/s).
    pub bandwidth: f64,
}

impl NfsConfig {
    /// The paper's cloud NFS deployment: ~10 Gb/s peak read bandwidth and
    /// single-server request handling.
    pub fn cloud_default() -> Self {
        NfsConfig {
            request_overhead: SimDuration::from_micros(1_200),
            bandwidth: 1.25e9,
        }
    }

    fn validate(&self) -> Result<()> {
        if !(self.bandwidth > 0.0 && self.bandwidth.is_finite()) {
            return Err(Error::invalid_config(
                "bandwidth",
                "must be positive and finite",
            ));
        }
        Ok(())
    }
}

/// A single-server NFS: one FIFO queue for every request, so random small
/// reads from all clients serialize behind each other. This is why the
/// distributed experiments show much larger iCache speedups (≥ 7.6×) than
/// the OrangeFS ones — the uncached baseline is far more starved.
///
/// # Examples
///
/// ```
/// use icache_storage::{Nfs, NfsConfig, StorageBackend};
/// use icache_types::{ByteSize, SampleId, SimTime};
///
/// let mut nfs = Nfs::new(NfsConfig::cloud_default())?;
/// let a = nfs.read_sample(SampleId(0), ByteSize::kib(3), SimTime::ZERO);
/// let b = nfs.read_sample(SampleId(1), ByteSize::kib(3), SimTime::ZERO);
/// assert!(b > a, "single queue serialises concurrent reads");
/// # Ok::<(), icache_types::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct Nfs {
    config: NfsConfig,
    server: TimelineResource,
    ledger: ReadLedger,
}

impl Nfs {
    /// Build an NFS model from `config`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for non-positive bandwidth.
    pub fn new(config: NfsConfig) -> Result<Self> {
        config.validate()?;
        Ok(Nfs {
            config,
            server: TimelineResource::new(),
            ledger: ReadLedger::new(),
        })
    }

    /// The configuration this instance was built with.
    pub fn config(&self) -> &NfsConfig {
        &self.config
    }

    fn service(&self, bytes: ByteSize) -> SimDuration {
        self.config.request_overhead
            + SimDuration::from_secs_f64(bytes.as_f64() / self.config.bandwidth)
    }
}

impl StorageBackend for Nfs {
    fn name(&self) -> &str {
        "nfs"
    }

    fn read_sample(&mut self, _id: SampleId, size: ByteSize, now: SimTime) -> SimTime {
        let service = self.service(size);
        let done = self.server.submit(now, service);
        self.ledger.record_sample(size, done.saturating_since(now));
        done
    }

    fn read_package(&mut self, size: ByteSize, now: SimTime) -> SimTime {
        let service = self.service(size);
        let done = self.server.submit(now, service);
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
        self.server.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_bad_bandwidth() {
        let cfg = NfsConfig {
            request_overhead: SimDuration::ZERO,
            bandwidth: -1.0,
        };
        assert!(Nfs::new(cfg).is_err());
    }

    #[test]
    fn all_requests_share_one_queue() {
        let mut n = Nfs::new(NfsConfig::cloud_default()).unwrap();
        let mut done = SimTime::ZERO;
        for i in 0..100 {
            done = n.read_sample(SampleId(i), ByteSize::kib(3), SimTime::ZERO);
        }
        // 100 requests x ~1.2ms each, strictly serialized.
        let ms = done.as_secs_f64() * 1e3;
        assert!((115.0..130.0).contains(&ms), "elapsed {ms}ms");
    }

    #[test]
    fn package_reads_amortise_overhead() {
        let mut n = Nfs::new(NfsConfig::cloud_default()).unwrap();
        let pkg = n.read_package(ByteSize::mib(1), SimTime::ZERO);
        // 1.2ms overhead + 1MiB / 1.25GB/s ~= 0.84ms
        let ms = pkg.as_secs_f64() * 1e3;
        assert!((1.9..2.3).contains(&ms), "elapsed {ms}ms");
        assert_eq!(n.stats().package_reads, 1);
    }
}
