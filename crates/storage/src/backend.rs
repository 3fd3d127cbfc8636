//! The storage backend abstraction.

use crate::StorageStats;
use icache_types::{ByteSize, SampleId, SimTime};

/// Classification of a read for reporting purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReadClass {
    /// A random read of one sample file.
    Sample,
    /// A sequential read of a multi-sample package.
    Package,
}

/// A storage system that serves reads over simulated time.
///
/// Implementations are queueing models: submitting a read at virtual time
/// `now` returns the instant the data is available in host memory. Because
/// queues persist across calls, concurrent callers sharing one backend
/// contend with each other exactly as concurrent data-loader workers or
/// training jobs contend for real storage servers.
///
/// This trait is object-safe; the simulator passes `&mut dyn
/// StorageBackend` through the cache layers.
///
/// # Examples
///
/// ```
/// use icache_storage::{LocalTier, StorageBackend};
/// use icache_types::{ByteSize, SampleId, SimTime};
///
/// let mut tier = LocalTier::tmpfs();
/// let t1 = tier.read_sample(SampleId(1), ByteSize::kib(3), SimTime::ZERO);
/// let t2 = tier.read_sample(SampleId(2), ByteSize::kib(3), t1);
/// assert!(t2 > t1);
/// ```
pub trait StorageBackend {
    /// Human-readable backend name for reports.
    fn name(&self) -> &str;

    /// Read one sample file of `size` bytes, submitted at `now`.
    ///
    /// This is the small-random-read path: it pays the per-request overhead
    /// of the backend. Returns the completion instant.
    fn read_sample(&mut self, id: SampleId, size: ByteSize, now: SimTime) -> SimTime;

    /// Read a batch of sample files, all submitted at `now` and issued in
    /// order. Returns the completion instant of the last-finishing read.
    ///
    /// Semantically identical to calling [`StorageBackend::read_sample`]
    /// once per entry (the default does exactly that); the entry point
    /// of bulk-loader paths that issue hundreds of reads per package
    /// build.
    fn read_samples(&mut self, reqs: &[(SampleId, ByteSize)], now: SimTime) -> SimTime {
        let mut ready = now;
        for &(id, size) in reqs {
            ready = ready.max(self.read_sample(id, size, now));
        }
        ready
    }

    /// Read a sequential package of `size` bytes, submitted at `now`.
    ///
    /// Packages are large (≥ 1 MB in the paper) and stream at close to the
    /// backend's aggregate bandwidth. Returns the completion instant.
    fn read_package(&mut self, size: ByteSize, now: SimTime) -> SimTime;

    /// Accumulated statistics.
    fn stats(&self) -> StorageStats;

    /// Reset accumulated statistics (queue horizons are preserved).
    fn reset_stats(&mut self);

    /// Attach an observability handle. Backends that participate in
    /// structured tracing and the metrics registry store a clone; the
    /// default implementation ignores it.
    fn set_obs(&mut self, obs: icache_obs::Obs) {
        let _ = obs;
    }

    /// Promise that every future read will be submitted at or after `t`,
    /// letting queue models retire booking state for the virtual past.
    ///
    /// Only drivers with a monotone submission clock (the sequential
    /// replay loop, the earliest-event-first multi-job runner) may call
    /// this; out-of-order submitters such as the prefetch pipeline must
    /// not, since retired time ranges look idle to later backdated
    /// submissions. Purely an optimisation hook: completion times and
    /// statistics are unchanged. The default does nothing.
    fn release_before(&mut self, t: SimTime) {
        let _ = t;
    }
}

impl<T: StorageBackend + ?Sized> StorageBackend for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn read_sample(&mut self, id: SampleId, size: ByteSize, now: SimTime) -> SimTime {
        (**self).read_sample(id, size, now)
    }
    fn read_samples(&mut self, reqs: &[(SampleId, ByteSize)], now: SimTime) -> SimTime {
        (**self).read_samples(reqs, now)
    }
    fn read_package(&mut self, size: ByteSize, now: SimTime) -> SimTime {
        (**self).read_package(size, now)
    }
    fn stats(&self) -> StorageStats {
        (**self).stats()
    }
    fn reset_stats(&mut self) {
        (**self).reset_stats()
    }
    fn set_obs(&mut self, obs: icache_obs::Obs) {
        (**self).set_obs(obs)
    }
    fn release_before(&mut self, t: SimTime) {
        (**self).release_before(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LocalTier;

    #[test]
    fn trait_is_object_safe_and_boxable() {
        let mut boxed: Box<dyn StorageBackend> = Box::new(LocalTier::tmpfs());
        let done = boxed.read_sample(SampleId(0), ByteSize::kib(4), SimTime::ZERO);
        assert!(done > SimTime::ZERO);
        assert_eq!(boxed.stats().sample_reads, 1);
        boxed.reset_stats();
        assert_eq!(boxed.stats().sample_reads, 0);
    }
}
