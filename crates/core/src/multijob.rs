//! Multi-job coordination (§III-D).

use icache_obs::{decl, Gauge, Obs, Observable};
use icache_sampling::HList;
use icache_types::{Error, ImportanceValue, JobId, Result, SampleId, SimDuration};
use std::collections::BTreeMap;

/// Which part of the cache-benefit probe a job is in.
///
/// At the start of each epoch a job's first `probe_len` samples are served
/// *without* the cache and the next `probe_len` *with* it (the paper uses
/// 20 + 20 mini-batches); the ratio of the two measured times is the job's
/// caching benefit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbePhase {
    /// Bypass the cache; accumulate `T_cacheless`.
    Uncached {
        /// Samples left in this phase.
        remaining: u64,
    },
    /// Use the cache; accumulate `T_cache`.
    Cached {
        /// Samples left in this phase.
        remaining: u64,
    },
    /// Probe complete for this epoch.
    Done,
}

/// Measures one job's cache benefit for the current epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct BenefitProbe {
    phase: ProbePhase,
    probe_len: u64,
    t_uncached: SimDuration,
    t_cached: SimDuration,
}

impl BenefitProbe {
    /// A probe measuring `probe_len` samples per phase.
    pub fn new(probe_len: u64) -> Self {
        BenefitProbe {
            phase: ProbePhase::Uncached {
                remaining: probe_len,
            },
            probe_len,
            t_uncached: SimDuration::ZERO,
            t_cached: SimDuration::ZERO,
        }
    }

    /// Current phase.
    pub fn phase(&self) -> ProbePhase {
        self.phase
    }

    /// Whether the next fetch must bypass the cache.
    pub fn should_bypass(&self) -> bool {
        matches!(self.phase, ProbePhase::Uncached { .. })
    }

    /// Record the service time of one fetch and advance the probe.
    pub fn record(&mut self, service: SimDuration) {
        match self.phase {
            ProbePhase::Uncached { remaining } => {
                self.t_uncached += service;
                self.phase = if remaining <= 1 {
                    ProbePhase::Cached {
                        remaining: self.probe_len,
                    }
                } else {
                    ProbePhase::Uncached {
                        remaining: remaining - 1,
                    }
                };
            }
            ProbePhase::Cached { remaining } => {
                self.t_cached += service;
                self.phase = if remaining <= 1 {
                    ProbePhase::Done
                } else {
                    ProbePhase::Cached {
                        remaining: remaining - 1,
                    }
                };
            }
            ProbePhase::Done => {}
        }
    }

    /// Restart the probe for a new epoch.
    pub fn reset(&mut self) {
        *self = BenefitProbe::new(self.probe_len);
    }

    /// `Ratio_benefit = T_cacheless / T_cache`, available once the probe
    /// completes. Falls back to 1.0 (no benefit) when the cached phase
    /// recorded zero time.
    pub fn ratio(&self) -> Option<f64> {
        if self.phase != ProbePhase::Done {
            return None;
        }
        if self.t_cached.is_zero() {
            return Some(1.0);
        }
        Some(self.t_uncached.ratio(self.t_cached))
    }
}

/// A job's latest measured benefit and its eligibility verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobBenefit {
    /// `T_cacheless / T_cache` from the latest completed probe.
    pub ratio: f64,
    /// Whether the ratio clears the coordinator's threshold.
    pub eligible: bool,
}

#[derive(Debug, Clone)]
struct JobState {
    hlist: Option<HList>,
    probe: BenefitProbe,
    last_benefit: Option<JobBenefit>,
    /// This job's `multijob.job{k}.benefit` gauge.
    benefit_gauge: Gauge,
}

icache_obs::obs_handles! {
    struct MultiJobObs {
        jobs_registered: Counter = MULTIJOB_JOBS_REGISTERED,
        probes_completed: Counter = MULTIJOB_PROBES_COMPLETED,
        eligible_verdicts: Counter = MULTIJOB_ELIGIBLE_VERDICTS,
    }
}

/// Coordinates concurrent jobs sharing one dataset in one cache (§III-D).
///
/// Responsibilities:
///
/// 1. run the per-epoch [`BenefitProbe`] of every registered job and mark
///    jobs *cache-eligible* when their benefit exceeds the threshold
///    (1.5 in the paper);
/// 2. combine the H-lists of eligible jobs into *aggregated importance
///    values*: `AIV_i = Σ_j Ratio_benefit^j × RIV_i^j`, where `RIV` is the
///    percentile position of the sample's importance in the whole training
///    set.
///
/// # Examples
///
/// ```
/// use icache_core::MultiJobCoordinator;
/// use icache_sampling::{HList, ImportanceTable};
/// use icache_types::{JobId, SampleId};
///
/// let mut coord = MultiJobCoordinator::new(100, 1.5, 40)?;
/// coord.register_job(JobId(0));
/// let mut t = ImportanceTable::new(100);
/// t.record_loss(SampleId(1), 90.0);
/// coord.set_hlist(JobId(0), HList::top_fraction(&t, 0.1));
/// let aiv = coord.aggregate();
/// assert!(aiv.contains_key(&SampleId(1)));
/// # Ok::<(), icache_types::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct MultiJobCoordinator {
    num_samples: u64,
    threshold: f64,
    probe_len: u64,
    jobs: BTreeMap<JobId, JobState>,
    obs: MultiJobObs,
}

impl Observable for MultiJobCoordinator {
    /// Install the shared observability handle. Probe completions land in
    /// the `multijob.probes_completed` / `multijob.eligible_verdicts`
    /// counters and each job's latest benefit in a
    /// `multijob.job<k>.benefit` gauge.
    fn set_obs(&mut self, obs: Obs) {
        for (job, state) in &mut self.jobs {
            state.benefit_gauge = obs.member(decl::MULTIJOB_JOB_BENEFIT, job.0.into());
        }
        self.obs = MultiJobObs::new(obs);
    }
}

impl MultiJobCoordinator {
    /// Create a coordinator over a dataset of `num_samples`, with the
    /// given eligibility `threshold` and per-phase probe length.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for a non-positive threshold or a
    /// zero probe length.
    pub fn new(num_samples: u64, threshold: f64, probe_len: u64) -> Result<Self> {
        if !(threshold > 0.0 && threshold.is_finite()) {
            return Err(Error::invalid_config(
                "threshold",
                "must be positive and finite",
            ));
        }
        if probe_len == 0 {
            return Err(Error::invalid_config("probe_len", "must be at least 1"));
        }
        Ok(MultiJobCoordinator {
            num_samples,
            threshold,
            probe_len,
            jobs: BTreeMap::new(),
            obs: MultiJobObs::new(Obs::noop()),
        })
    }

    /// Number of registered jobs.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Register `job` (idempotent).
    pub fn register_job(&mut self, job: JobId) {
        if !self.jobs.contains_key(&job) {
            self.obs.jobs_registered.inc();
            self.jobs.insert(
                job,
                JobState {
                    hlist: None,
                    probe: BenefitProbe::new(self.probe_len),
                    last_benefit: None,
                    benefit_gauge: self.obs.member(decl::MULTIJOB_JOB_BENEFIT, job.0.into()),
                },
            );
        }
    }

    /// Restart `job`'s probe at its epoch boundary.
    pub fn on_epoch_start(&mut self, job: JobId) {
        if let Some(s) = self.jobs.get_mut(&job) {
            s.probe.reset();
        }
    }

    /// Whether `job`'s next fetch must bypass the cache (probe phase 1).
    pub fn should_bypass(&self, job: JobId) -> bool {
        self.jobs.get(&job).is_some_and(|s| s.probe.should_bypass())
    }

    /// Record a fetch service time for `job`'s probe; finalises the
    /// benefit verdict when the probe completes.
    pub fn record_fetch(&mut self, job: JobId, service: SimDuration) {
        let threshold = self.threshold;
        if let Some(s) = self.jobs.get_mut(&job) {
            let was_done = s.probe.phase() == ProbePhase::Done;
            s.probe.record(service);
            if let Some(ratio) = s.probe.ratio() {
                let eligible = ratio > threshold;
                s.last_benefit = Some(JobBenefit { ratio, eligible });
                if !was_done {
                    // The probe just completed for this epoch.
                    self.obs.probes_completed.inc();
                    if eligible {
                        self.obs.eligible_verdicts.inc();
                    }
                    s.benefit_gauge.set(ratio);
                }
            }
        }
    }

    /// The latest benefit verdict for `job`.
    pub fn benefit(&self, job: JobId) -> Option<JobBenefit> {
        self.jobs.get(&job).and_then(|s| s.last_benefit)
    }

    /// Store `job`'s freshly pulled H-list.
    pub fn set_hlist(&mut self, job: JobId, hlist: HList) {
        self.register_job(job);
        if let Some(s) = self.jobs.get_mut(&job) {
            s.hlist = Some(hlist);
        }
    }

    /// `job`'s current H-list, if one has been pulled.
    pub fn hlist(&self, job: JobId) -> Option<&HList> {
        self.jobs.get(&job).and_then(|s| s.hlist.as_ref())
    }

    /// Compute the aggregated importance values over all *eligible* jobs.
    ///
    /// A job with no completed probe yet is treated as eligible with ratio
    /// 1.0 (cold-start: better to coordinate than to ignore). The RIV of a
    /// sample at (0-based) rank `r` of a job's H-list over a dataset of
    /// `N` samples is `1 − r/(N−1)`.
    ///
    /// Jobs are visited in `JobId` order: the per-sample sums accumulate
    /// `f64`s, and float addition is not associative, so with three or
    /// more jobs an unordered visit could produce run-to-run drift in the
    /// low bits of the aggregated values.
    pub fn aggregate(&self) -> BTreeMap<SampleId, ImportanceValue> {
        let mut aiv: BTreeMap<SampleId, f64> = BTreeMap::new();
        let denom = (self.num_samples.saturating_sub(1)).max(1) as f64;
        for state in self.jobs.values() {
            let Some(hlist) = &state.hlist else { continue };
            let (ratio, eligible) = match state.last_benefit {
                Some(b) => (b.ratio, b.eligible),
                None => (1.0, true),
            };
            if !eligible {
                continue;
            }
            for (rank, entry) in hlist.entries().iter().enumerate() {
                let riv = 1.0 - rank as f64 / denom;
                *aiv.entry(entry.id).or_insert(0.0) += ratio * riv;
            }
        }
        aiv.into_iter()
            .map(|(id, v)| (id, ImportanceValue::saturating(v)))
            .collect()
    }

    /// Whether `id` is an H-sample for *any* registered job (used to build
    /// the L-sample pool).
    pub fn is_h_for_any(&self, id: SampleId) -> bool {
        self.jobs
            .values()
            .any(|s| s.hlist.as_ref().is_some_and(|h| h.contains(id)))
    }

    /// Whether any job has pulled an H-list yet (false during warm-up).
    pub fn any_hlist(&self) -> bool {
        self.jobs.values().any(|s| s.hlist.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icache_sampling::ImportanceTable;

    fn dur(us: u64) -> SimDuration {
        SimDuration::from_micros(us)
    }

    #[test]
    fn probe_walks_through_phases() {
        let mut p = BenefitProbe::new(2);
        assert!(p.should_bypass());
        p.record(dur(10));
        p.record(dur(10));
        assert!(!p.should_bypass());
        assert_eq!(p.ratio(), None, "cached phase not finished");
        p.record(dur(5));
        p.record(dur(5));
        assert_eq!(p.phase(), ProbePhase::Done);
        assert_eq!(p.ratio(), Some(2.0));
        // Further records are ignored.
        p.record(dur(100));
        assert_eq!(p.ratio(), Some(2.0));
    }

    #[test]
    fn probe_reset_restarts() {
        let mut p = BenefitProbe::new(1);
        p.record(dur(4));
        p.record(dur(2));
        assert_eq!(p.ratio(), Some(2.0));
        p.reset();
        assert!(p.should_bypass());
        assert_eq!(p.ratio(), None);
    }

    #[test]
    fn zero_cached_time_defaults_ratio_to_one() {
        let mut p = BenefitProbe::new(1);
        p.record(dur(4));
        p.record(SimDuration::ZERO);
        assert_eq!(p.ratio(), Some(1.0));
    }

    fn hlist_from(losses: &[(u64, f64)], n: u64, frac: f64) -> HList {
        let mut t = ImportanceTable::new(n);
        for &(id, l) in losses {
            t.record_loss(SampleId(id), l);
        }
        HList::top_fraction(&t, frac)
    }

    #[test]
    fn coordinator_eligibility_follows_threshold() {
        let mut c = MultiJobCoordinator::new(10, 1.5, 1).unwrap();
        c.register_job(JobId(0));
        // Ratio 3.0 -> eligible.
        c.record_fetch(JobId(0), dur(30));
        c.record_fetch(JobId(0), dur(10));
        assert_eq!(
            c.benefit(JobId(0)),
            Some(JobBenefit {
                ratio: 3.0,
                eligible: true
            })
        );

        c.register_job(JobId(1));
        // Ratio 1.2 -> not eligible.
        c.record_fetch(JobId(1), dur(12));
        c.record_fetch(JobId(1), dur(10));
        let b = c.benefit(JobId(1)).unwrap();
        assert!(!b.eligible);
    }

    #[test]
    fn aggregate_weights_by_benefit_ratio() {
        let mut c = MultiJobCoordinator::new(100, 1.5, 1).unwrap();
        // Job 0: benefit 4.0, considers sample 1 most important.
        c.register_job(JobId(0));
        c.record_fetch(JobId(0), dur(40));
        c.record_fetch(JobId(0), dur(10));
        c.set_hlist(JobId(0), hlist_from(&[(1, 90.0), (2, 80.0)], 100, 0.02));
        // Job 1: benefit 2.0, considers sample 3 most important.
        c.register_job(JobId(1));
        c.record_fetch(JobId(1), dur(20));
        c.record_fetch(JobId(1), dur(10));
        c.set_hlist(JobId(1), hlist_from(&[(3, 90.0), (1, 80.0)], 100, 0.02));

        let aiv = c.aggregate();
        // Sample 1: 4.0*1.0 (rank 0, job 0) + 2.0*(1-1/99) (rank 1, job 1).
        let s1 = aiv[&SampleId(1)].get();
        assert!((s1 - (4.0 + 2.0 * (1.0 - 1.0 / 99.0))).abs() < 1e-9, "{s1}");
        // Sample 3 only endorsed by job 1.
        assert!((aiv[&SampleId(3)].get() - 2.0).abs() < 1e-9);
        // Shared endorsement beats single endorsement.
        assert!(s1 > aiv[&SampleId(3)].get());
    }

    #[test]
    fn ineligible_jobs_are_excluded_from_aggregation() {
        let mut c = MultiJobCoordinator::new(100, 1.5, 1).unwrap();
        c.register_job(JobId(0));
        c.record_fetch(JobId(0), dur(10));
        c.record_fetch(JobId(0), dur(10)); // ratio 1.0 -> ineligible
        c.set_hlist(JobId(0), hlist_from(&[(5, 90.0)], 100, 0.01));
        assert!(c.aggregate().is_empty());
        // Routing still sees the job's H-list.
        assert!(c.is_h_for_any(SampleId(5)));
    }

    #[test]
    fn unprobed_jobs_participate_with_unit_ratio() {
        let mut c = MultiJobCoordinator::new(100, 1.5, 40).unwrap();
        c.set_hlist(JobId(7), hlist_from(&[(2, 90.0)], 100, 0.01));
        let aiv = c.aggregate();
        assert!((aiv[&SampleId(2)].get() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn constructor_validates() {
        assert!(MultiJobCoordinator::new(10, 0.0, 40).is_err());
        assert!(MultiJobCoordinator::new(10, 1.5, 0).is_err());
        assert!(MultiJobCoordinator::new(10, f64::INFINITY, 40).is_err());
    }

    #[test]
    fn coordinator_reports_probe_completions_into_obs() {
        let obs = Obs::new();
        let mut c = MultiJobCoordinator::new(10, 1.5, 1).unwrap();
        c.set_obs(obs.clone());
        c.register_job(JobId(0));
        c.register_job(JobId(0)); // idempotent: registered once
        assert_eq!(obs.counter("multijob.jobs_registered"), 1);

        c.record_fetch(JobId(0), dur(30));
        assert_eq!(obs.counter("multijob.probes_completed"), 0);
        c.record_fetch(JobId(0), dur(10));
        assert_eq!(obs.counter("multijob.probes_completed"), 1);
        assert_eq!(obs.counter("multijob.eligible_verdicts"), 1);
        assert_eq!(obs.gauge("multijob.job0.benefit"), Some(3.0));
        // Post-completion fetches do not re-count the same probe.
        c.record_fetch(JobId(0), dur(100));
        assert_eq!(obs.counter("multijob.probes_completed"), 1);
    }

    #[test]
    fn epoch_start_resets_probe() {
        let mut c = MultiJobCoordinator::new(10, 1.5, 1).unwrap();
        c.register_job(JobId(0));
        c.record_fetch(JobId(0), dur(30));
        c.record_fetch(JobId(0), dur(10));
        assert!(c.benefit(JobId(0)).is_some());
        c.on_epoch_start(JobId(0));
        assert!(c.should_bypass(JobId(0)), "probe restarted");
        // Benefit from the previous epoch survives until the new probe ends.
        assert!(c.benefit(JobId(0)).is_some());
    }
}
