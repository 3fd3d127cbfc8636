//! Loss-based importance tracking.

use icache_types::{ImportanceValue, SampleId};
use std::cmp::Ordering;

/// Per-sample importance values maintained as an exponential moving average
/// of observed training losses (the loss-based algorithm of Jiang et al.
/// \[18\], which the paper adopts "for its simplicity and efficiency").
///
/// Samples that have never been trained carry a high *prior* importance so
/// that early epochs explore the whole dataset — this matches the paper's
/// warm-up behaviour where the first epoch visits everything.
///
/// # Examples
///
/// ```
/// use icache_sampling::ImportanceTable;
/// use icache_types::SampleId;
///
/// let mut t = ImportanceTable::new(10);
/// t.record_loss(SampleId(0), 0.25);
/// assert!(t.value(SampleId(0)).get() < t.value(SampleId(1)).get(),
///         "an observed low loss ranks below the optimistic prior");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ImportanceTable {
    values: Vec<f64>,
    observed: Vec<bool>,
    ema_alpha: f64,
    prior: f64,
    updates: u64,
}

impl ImportanceTable {
    /// Default smoothing factor of the loss EMA.
    pub const DEFAULT_EMA_ALPHA: f64 = 0.6;
    /// Default optimistic prior for never-trained samples.
    pub const DEFAULT_PRIOR: f64 = 10.0;

    /// A table for `num_samples` samples with default smoothing and prior.
    pub fn new(num_samples: u64) -> Self {
        Self::with_params(num_samples, Self::DEFAULT_EMA_ALPHA, Self::DEFAULT_PRIOR)
    }

    /// A table with explicit EMA factor and prior.
    ///
    /// # Panics
    ///
    /// Panics if `ema_alpha` is outside `(0, 1]` or `prior` is negative or
    /// non-finite.
    pub fn with_params(num_samples: u64, ema_alpha: f64, prior: f64) -> Self {
        assert!(
            ema_alpha > 0.0 && ema_alpha <= 1.0,
            "ema_alpha must be in (0, 1]"
        );
        assert!(
            prior.is_finite() && prior >= 0.0,
            "prior must be finite and non-negative"
        );
        ImportanceTable {
            values: vec![prior; num_samples as usize],
            observed: vec![false; num_samples as usize],
            ema_alpha,
            prior,
            updates: 0,
        }
    }

    /// Number of samples tracked.
    pub fn len(&self) -> u64 {
        self.values.len() as u64
    }

    /// True when the table tracks no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of loss observations recorded.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Record a freshly observed training loss for `id`.
    ///
    /// The first observation replaces the prior outright; later ones are
    /// folded in with the EMA factor. Negative or non-finite losses are
    /// clamped via [`ImportanceValue::saturating`] semantics.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn record_loss(&mut self, id: SampleId, loss: f64) {
        let i = id.index();
        let loss = ImportanceValue::saturating(loss).get();
        if self.observed[i] {
            self.values[i] = self.ema_alpha * loss + (1.0 - self.ema_alpha) * self.values[i];
        } else {
            self.values[i] = loss;
            self.observed[i] = true;
        }
        self.updates += 1;
    }

    /// Current importance value of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn value(&self, id: SampleId) -> ImportanceValue {
        ImportanceValue::saturating(self.values[id.index()])
    }

    /// Whether `id` has ever had a loss recorded.
    pub fn is_observed(&self, id: SampleId) -> bool {
        self.observed[id.index()]
    }

    /// Raw importance values in id order (read-only view).
    pub fn raw_values(&self) -> &[f64] {
        &self.values
    }

    /// The ranking order: descending importance, ties toward lower ids. A
    /// total order in which no two distinct ids compare equal, so an
    /// unstable sort has exactly one possible result.
    pub(crate) fn rank_order(&self, a: SampleId, b: SampleId) -> Ordering {
        self.values[b.index()]
            .partial_cmp(&self.values[a.index()])
            .expect("importance values are finite")
            .then_with(|| a.0.cmp(&b.0))
    }

    /// The ids sorted by descending importance. Ties break toward lower
    /// ids so the order is fully deterministic.
    pub fn ranked_ids(&self) -> Vec<SampleId> {
        let mut ids: Vec<SampleId> = (0..self.len()).map(SampleId).collect();
        ids.sort_unstable_by(|a, b| self.rank_order(*a, *b));
        ids
    }

    /// Percentile rank in `[0, 1]` of every sample's importance — the
    /// *relative importance value* (RIV) of the multi-job model (§III-D).
    /// The most important sample has RIV ≈ 1.
    pub fn percentile_ranks(&self) -> Vec<f64> {
        let n = self.values.len();
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            return vec![1.0];
        }
        let ranked = self.ranked_ids();
        let mut riv = vec![0.0; n];
        for (rank, id) in ranked.iter().enumerate() {
            // rank 0 = most important -> RIV 1.0
            riv[id.index()] = 1.0 - rank as f64 / (n - 1) as f64;
        }
        riv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prior_applies_until_first_observation() {
        let t = ImportanceTable::new(3);
        assert_eq!(t.value(SampleId(0)).get(), ImportanceTable::DEFAULT_PRIOR);
        assert!(!t.is_observed(SampleId(0)));
    }

    #[test]
    fn first_observation_replaces_prior() {
        let mut t = ImportanceTable::new(3);
        t.record_loss(SampleId(1), 2.0);
        assert_eq!(t.value(SampleId(1)).get(), 2.0);
        assert!(t.is_observed(SampleId(1)));
    }

    #[test]
    fn ema_smooths_later_observations() {
        let mut t = ImportanceTable::with_params(1, 0.5, 10.0);
        t.record_loss(SampleId(0), 4.0);
        t.record_loss(SampleId(0), 0.0);
        assert!((t.value(SampleId(0)).get() - 2.0).abs() < 1e-12);
        assert_eq!(t.updates(), 2);
    }

    #[test]
    fn invalid_losses_are_clamped() {
        let mut t = ImportanceTable::new(1);
        t.record_loss(SampleId(0), f64::NAN);
        assert_eq!(t.value(SampleId(0)).get(), 0.0);
        t.record_loss(SampleId(0), -5.0);
        assert_eq!(t.value(SampleId(0)).get(), 0.0);
    }

    #[test]
    fn ranked_ids_descend_with_deterministic_ties() {
        let mut t = ImportanceTable::new(4);
        t.record_loss(SampleId(0), 1.0);
        t.record_loss(SampleId(1), 3.0);
        t.record_loss(SampleId(2), 3.0);
        t.record_loss(SampleId(3), 2.0);
        let ranked: Vec<u64> = t.ranked_ids().iter().map(|i| i.0).collect();
        assert_eq!(ranked, vec![1, 2, 3, 0]);
    }

    #[test]
    fn percentile_ranks_span_unit_interval() {
        let mut t = ImportanceTable::new(5);
        for i in 0..5 {
            t.record_loss(SampleId(i), i as f64);
        }
        let riv = t.percentile_ranks();
        assert_eq!(riv[4], 1.0, "highest loss gets RIV 1");
        assert_eq!(riv[0], 0.0, "lowest loss gets RIV 0");
        let mut sorted = riv.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(sorted, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_access_panics() {
        let t = ImportanceTable::new(1);
        let _ = t.value(SampleId(1));
    }

    #[test]
    #[should_panic(expected = "ema_alpha")]
    fn zero_alpha_rejected() {
        let _ = ImportanceTable::with_params(1, 0.0, 1.0);
    }
}
