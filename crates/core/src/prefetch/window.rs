//! The bounded in-flight window behind the clairvoyant prefetcher.
//!
//! The window is the back-pressure contract of the prefetch pipeline
//! (DESIGN.md §11): at most `depth` plan positions may be *in flight* —
//! issued to storage but not yet delivered to the consumer — at any
//! instant, and no position may be delivered twice. The window is
//! plain single-owner state: the deterministic
//! [`crate::prefetch::PrefetchPipeline`] owns it and drives it through
//! `&mut self`, so it carries no lock. Its invariants are pinned by the
//! unit tests below and by the window proptest in `tests/properties.rs`.

use std::collections::BTreeSet;

/// A bounded window of in-flight prefetches keyed by plan position.
///
/// # Examples
///
/// ```
/// use icache_core::prefetch::InflightWindow;
///
/// let mut w = InflightWindow::new(2);
/// assert!(w.try_issue(0) && w.try_issue(1));
/// assert!(!w.try_issue(2), "window of 2 is full");
/// assert!(w.consume(0), "first delivery succeeds");
/// assert!(!w.consume(0), "never deliver a position twice");
/// assert!(w.try_issue(2), "consuming freed a slot");
/// assert!(w.check_invariants());
/// ```
#[derive(Debug, Default)]
pub struct InflightWindow {
    depth: usize,
    /// Positions issued and not yet delivered.
    in_flight: BTreeSet<u64>,
    /// Positions delivered to the consumer (each exactly once).
    delivered: BTreeSet<u64>,
    /// High-water mark of `in_flight.len()`.
    max_in_flight: usize,
    /// Total issues ever admitted.
    issued: u64,
    /// Total deliveries.
    consumed: u64,
}

impl InflightWindow {
    /// A window admitting at most `depth` outstanding positions
    /// (`depth == 0` admits nothing — the disabled pipeline).
    pub fn new(depth: usize) -> Self {
        InflightWindow {
            depth,
            ..Default::default()
        }
    }

    /// The configured window depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Try to admit `position` into the window. Returns `false` when the
    /// window is full or the position was already issued or delivered —
    /// the caller must retry after a delivery frees a slot.
    pub fn try_issue(&mut self, position: u64) -> bool {
        if self.in_flight.len() >= self.depth
            || self.delivered.contains(&position)
            || !self.in_flight.insert(position)
        {
            return false;
        }
        self.issued += 1;
        self.max_in_flight = self.max_in_flight.max(self.in_flight.len());
        true
    }

    /// Deliver `position` to the consumer, freeing its window slot.
    /// Returns `false` when the position is not in flight or was already
    /// delivered — a second delivery of the same position never succeeds.
    pub fn consume(&mut self, position: u64) -> bool {
        if !self.in_flight.remove(&position) || !self.delivered.insert(position) {
            return false;
        }
        self.consumed += 1;
        true
    }

    /// Positions currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// The largest number of positions ever simultaneously in flight.
    pub fn max_in_flight(&self) -> usize {
        self.max_in_flight
    }

    /// Total issues admitted over the window's lifetime.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Total positions delivered.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Structural invariants: the in-flight population never exceeded
    /// `depth`, no position is both in flight and delivered, and the
    /// counters agree with the sets.
    pub fn check_invariants(&self) -> bool {
        self.max_in_flight <= self.depth
            && self.in_flight.len() <= self.depth
            && self.in_flight.is_disjoint(&self.delivered)
            && self.issued == self.consumed + self.in_flight.len() as u64
            && self.consumed == self.delivered.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_bounds_in_flight_population() {
        let mut w = InflightWindow::new(3);
        for p in 0..3u64 {
            assert!(w.try_issue(p), "slot {p} free");
        }
        assert!(!w.try_issue(3), "window full");
        assert_eq!(w.in_flight(), 3);
        assert!(w.consume(1));
        assert!(w.try_issue(3), "delivery freed a slot");
        assert_eq!(w.max_in_flight(), 3);
        assert!(w.check_invariants());
    }

    #[test]
    fn no_position_is_delivered_twice_or_reissued() {
        let mut w = InflightWindow::new(2);
        assert!(w.try_issue(7));
        assert!(!w.try_issue(7), "double issue refused");
        assert!(w.consume(7));
        assert!(!w.consume(7), "double delivery refused");
        assert!(!w.try_issue(7), "reissue after delivery refused");
        assert!(!w.consume(9), "never-issued position refused");
        assert_eq!(w.issued(), 1);
        assert_eq!(w.consumed(), 1);
        assert!(w.check_invariants());
    }

    #[test]
    fn zero_depth_admits_nothing() {
        let mut w = InflightWindow::new(0);
        assert!(!w.try_issue(0));
        assert_eq!(w.in_flight(), 0);
        assert!(w.check_invariants());
    }
}
