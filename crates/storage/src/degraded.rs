//! Failure injection: periodic storage brownouts.
//!
//! Shared storage in real clusters degrades periodically — compaction,
//! backup traffic, a neighbour's job saturating the servers. This wrapper
//! injects deterministic brownout windows over any [`StorageBackend`] so
//! tests and ablations can check how gracefully cache systems ride
//! through degradation (caches should; cacheless loaders cannot).

use crate::{StorageBackend, StorageStats};
use icache_types::{ByteSize, Error, Result, SampleId, SimDuration, SimTime};
use std::sync::Arc;

/// Configuration of the brownout schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrownoutConfig {
    /// Distance between brownout window starts.
    pub period: SimDuration,
    /// Length of each brownout window.
    pub duration: SimDuration,
    /// Extra latency added to every request submitted inside a window.
    pub extra_latency: SimDuration,
}

impl BrownoutConfig {
    fn validate(&self) -> Result<()> {
        if self.period.is_zero() {
            return Err(Error::invalid_config("period", "must be non-zero"));
        }
        if self.duration > self.period {
            return Err(Error::invalid_config(
                "duration",
                "must not exceed the period",
            ));
        }
        Ok(())
    }
}

icache_obs::obs_handles! {
    struct DegradedObs {
        degraded_requests: Counter = STORAGE_DEGRADED_REQUESTS,
    }
}

/// A [`StorageBackend`] decorator that adds latency during periodic
/// brownout windows.
///
/// A request submitted at virtual time `t` is degraded when
/// `t mod period < duration`. The schedule is purely a function of the
/// submission time, so runs remain deterministic.
///
/// # Examples
///
/// ```
/// use icache_storage::{BrownoutConfig, DegradedStorage, LocalTier, StorageBackend};
/// use icache_types::{ByteSize, SampleId, SimDuration, SimTime};
///
/// let mut flaky = DegradedStorage::new(
///     LocalTier::tmpfs(),
///     BrownoutConfig {
///         period: SimDuration::from_millis(10),
///         duration: SimDuration::from_millis(2),
///         extra_latency: SimDuration::from_millis(5),
///     },
/// )?;
/// // Inside the window (t = 0): degraded.
/// let slow = flaky.read_sample(SampleId(0), ByteSize::kib(3), SimTime::ZERO);
/// // Outside (t = 5 ms): fast.
/// let t = SimTime::ZERO + SimDuration::from_millis(5);
/// let fast = flaky.read_sample(SampleId(1), ByteSize::kib(3), t);
/// assert!(slow.saturating_since(SimTime::ZERO) > fast.saturating_since(t));
/// # Ok::<(), icache_types::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct DegradedStorage<B> {
    inner: B,
    config: BrownoutConfig,
    degraded_requests: u64,
    /// Shared with every `brownout_degraded_read` event, so tracing a
    /// degraded read never copies the name.
    name: Arc<str>,
    obs: DegradedObs,
}

impl<B: StorageBackend> DegradedStorage<B> {
    /// Wrap `inner` with the given brownout schedule.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for a zero period or a window
    /// longer than the period.
    pub fn new(inner: B, config: BrownoutConfig) -> Result<Self> {
        config.validate()?;
        let name = format!("degraded({})", inner.name()).into();
        Ok(DegradedStorage {
            inner,
            config,
            degraded_requests: 0,
            name,
            obs: DegradedObs::new(icache_obs::Obs::noop()),
        })
    }

    /// Whether `now` falls inside a brownout window.
    pub fn in_brownout(&self, now: SimTime) -> bool {
        (now.as_nanos() % self.config.period.as_nanos()) < self.config.duration.as_nanos()
    }

    /// Requests that were hit by a brownout so far.
    pub fn degraded_requests(&self) -> u64 {
        self.degraded_requests
    }

    /// The wrapped backend (read access).
    pub fn inner(&self) -> &B {
        &self.inner
    }

    fn penalty(&mut self, now: SimTime) -> SimDuration {
        if self.in_brownout(now) {
            self.degraded_requests += 1;
            self.obs.degraded_requests.inc();
            self.obs.emit(icache_obs::TraceEvent::BrownoutDegradedRead {
                backend: Arc::clone(&self.name),
                penalty_nanos: self.config.extra_latency.as_nanos(),
            });
            self.config.extra_latency
        } else {
            SimDuration::ZERO
        }
    }
}

impl<B: StorageBackend> StorageBackend for DegradedStorage<B> {
    fn name(&self) -> &str {
        &self.name
    }

    fn read_sample(&mut self, id: SampleId, size: ByteSize, now: SimTime) -> SimTime {
        let penalty = self.penalty(now);
        self.inner.read_sample(id, size, now) + penalty
    }

    fn read_package(&mut self, size: ByteSize, now: SimTime) -> SimTime {
        let penalty = self.penalty(now);
        self.inner.read_package(size, now) + penalty
    }

    fn stats(&self) -> StorageStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn set_obs(&mut self, obs: icache_obs::Obs) {
        self.obs = DegradedObs::new(obs.clone());
        self.inner.set_obs(obs);
    }

    fn release_before(&mut self, t: SimTime) {
        self.inner.release_before(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LocalTier;

    fn flaky() -> DegradedStorage<LocalTier> {
        DegradedStorage::new(
            LocalTier::tmpfs(),
            BrownoutConfig {
                period: SimDuration::from_millis(100),
                duration: SimDuration::from_millis(10),
                extra_latency: SimDuration::from_millis(3),
            },
        )
        .unwrap()
    }

    #[test]
    fn schedule_is_periodic() {
        let f = flaky();
        assert!(f.in_brownout(SimTime::ZERO));
        assert!(f.in_brownout(SimTime::from_nanos(9_999_999)));
        assert!(!f.in_brownout(SimTime::from_nanos(10_000_000)));
        assert!(!f.in_brownout(SimTime::from_nanos(99_999_999)));
        assert!(f.in_brownout(SimTime::from_nanos(100_000_000)));
    }

    #[test]
    fn penalty_applies_only_in_window() {
        let mut f = flaky();
        let in_window = f.read_sample(SampleId(0), ByteSize::kib(3), SimTime::ZERO);
        assert!(in_window.saturating_since(SimTime::ZERO) >= SimDuration::from_millis(3));
        let t = SimTime::from_nanos(50_000_000);
        let outside = f.read_sample(SampleId(1), ByteSize::kib(3), t);
        assert!(outside.saturating_since(t) < SimDuration::from_millis(1));
        assert_eq!(f.degraded_requests(), 1);
    }

    #[test]
    fn stats_pass_through_to_inner() {
        let mut f = flaky();
        f.read_sample(SampleId(0), ByteSize::kib(3), SimTime::ZERO);
        f.read_package(ByteSize::mib(1), SimTime::ZERO);
        assert_eq!(f.stats().sample_reads, 1);
        assert_eq!(f.stats().package_reads, 1);
        f.reset_stats();
        assert_eq!(f.stats().total_reads(), 0);
        assert_eq!(f.inner().stats().total_reads(), 0);
    }

    #[test]
    fn name_identifies_the_wrapped_backend() {
        let f = flaky();
        assert_eq!(f.name(), "degraded(tmpfs)");
        let nested = DegradedStorage::new(
            flaky(),
            BrownoutConfig {
                period: SimDuration::from_millis(100),
                duration: SimDuration::from_millis(10),
                extra_latency: SimDuration::from_millis(3),
            },
        )
        .unwrap();
        assert_eq!(nested.name(), "degraded(degraded(tmpfs))");
    }

    #[test]
    fn degraded_requests_surface_through_the_metrics_registry() {
        let mut f = flaky();
        let obs = icache_obs::Obs::new();
        f.set_obs(obs.clone());
        f.read_sample(SampleId(0), ByteSize::kib(3), SimTime::ZERO); // in window
        f.read_sample(
            SampleId(1),
            ByteSize::kib(3),
            SimTime::from_nanos(50_000_000),
        );
        assert_eq!(obs.counter("storage.degraded_requests"), 1);
        assert_eq!(f.degraded_requests(), 1);
        // The brownout also leaves a structured trace event.
        let jsonl = obs.trace_jsonl();
        assert!(
            jsonl.contains(r#""event":"brownout_degraded_read""#),
            "{jsonl}"
        );
        assert!(jsonl.contains(r#""backend":"degraded(tmpfs)""#), "{jsonl}");
    }

    #[test]
    fn a_browned_out_read_under_a_noop_handle_is_counted_but_not_retained() {
        let mut f = flaky();
        let obs = icache_obs::Obs::noop();
        f.set_obs(obs.clone());
        f.read_sample(SampleId(0), ByteSize::kib(3), SimTime::ZERO); // in window
        assert_eq!(obs.counter("storage.degraded_requests"), 1);
        assert_eq!((obs.trace_emitted(), obs.trace_len()), (1, 0));
        // The event shares the backend's name instead of copying it.
        assert_eq!(Arc::strong_count(&f.name), 1, "nothing retained a clone");
    }

    #[test]
    fn validation_rejects_degenerate_schedules() {
        let bad = BrownoutConfig {
            period: SimDuration::ZERO,
            duration: SimDuration::ZERO,
            extra_latency: SimDuration::ZERO,
        };
        assert!(DegradedStorage::new(LocalTier::tmpfs(), bad).is_err());
        let inverted = BrownoutConfig {
            period: SimDuration::from_millis(1),
            duration: SimDuration::from_millis(2),
            extra_latency: SimDuration::ZERO,
        };
        assert!(DegradedStorage::new(LocalTier::tmpfs(), inverted).is_err());
    }
}
