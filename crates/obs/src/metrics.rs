//! Metric cells, the typed handles that write them, and the registry
//! that names them.
//!
//! A cell is shared storage for one metric: an atomic for a counter or
//! gauge, a small mutex-guarded [`LatencyHistogram`] for a histogram. A
//! handle ([`Counter`], [`Gauge`], [`Histogram`]) is a clone of the
//! `Arc` around its cell, so writing through a handle is one O(1) update
//! with no name lookup and without the registry lock. The [`Registry`]
//! maps names to the same cells — for resolving handles, for the by-name
//! accessors on [`Obs`](crate::Obs), and for the sorted snapshot.

use crate::decl::{Kind, METRICS};
use crate::json::Json;
use icache_types::{LatencyHistogram, SimDuration};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Handle to a monotone event counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Count one event.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Count `delta` events.
    pub fn add(&self, delta: u64) {
        // Relaxed: a statistic; it publishes no other data.
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Bit pattern of a gauge nobody has set: a NaN no arithmetic produces.
const UNSET: u64 = u64::MAX;

/// Handle to a last-written-value gauge.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(Arc::new(AtomicU64::new(UNSET)))
    }
}

impl Gauge {
    /// Overwrite the gauge.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Last value written, `None` before the first [`Gauge::set`].
    pub fn get(&self) -> Option<f64> {
        match self.0.load(Ordering::Relaxed) {
            UNSET => None,
            bits => Some(f64::from_bits(bits)),
        }
    }
}

/// Handle to a latency histogram.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    cell: Arc<Mutex<LatencyHistogram>>,
}

impl Histogram {
    /// Record one duration.
    pub fn observe(&self, d: SimDuration) {
        self.with(|h| h.record(d));
    }

    fn with<R>(&self, f: impl FnOnce(&mut LatencyHistogram) -> R) -> R {
        // A poisoned cell means a recorder panicked between two plain
        // field updates; the histogram is still a valid histogram.
        f(&mut self.cell.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

/// A handle type the registry can store: picks its own name→cell map.
pub trait Cell: Clone + Default {
    #[doc(hidden)]
    fn cells(registry: &mut Registry) -> &mut BTreeMap<Cow<'static, str>, Self>;
}

impl Cell for Counter {
    fn cells(registry: &mut Registry) -> &mut BTreeMap<Cow<'static, str>, Self> {
        &mut registry.counters
    }
}

impl Cell for Gauge {
    fn cells(registry: &mut Registry) -> &mut BTreeMap<Cow<'static, str>, Self> {
        &mut registry.gauges
    }
}

impl Cell for Histogram {
    fn cells(registry: &mut Registry) -> &mut BTreeMap<Cow<'static, str>, Self> {
        &mut registry.histograms
    }
}

/// Name → cell, for every declared metric plus whatever family members
/// and by-name writes added since. Lives under `Obs.inner`.
#[derive(Debug)]
pub struct Registry {
    counters: BTreeMap<Cow<'static, str>, Counter>,
    gauges: BTreeMap<Cow<'static, str>, Gauge>,
    histograms: BTreeMap<Cow<'static, str>, Histogram>,
}

impl Registry {
    /// A registry holding a zeroed cell for every declared non-family
    /// metric, so a snapshot's counter set does not depend on which
    /// components happened to run.
    pub(crate) fn declared() -> Self {
        let mut r = Registry {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        };
        for m in METRICS.iter().filter(|m| !m.is_family()) {
            let name = Cow::Borrowed(m.name);
            match m.kind {
                Kind::Counter => {
                    r.counters.insert(name, Counter::default());
                }
                Kind::Gauge => {
                    r.gauges.insert(name, Gauge::default());
                }
                Kind::Histogram => {
                    r.histograms.insert(name, Histogram::default());
                }
            }
        }
        r
    }

    /// Run `f` on the cell called `name`, creating it first if needed.
    pub(crate) fn with_cell<H: Cell, R>(&mut self, name: &str, f: impl FnOnce(&H) -> R) -> R {
        let cells = H::cells(self);
        if let Some(cell) = cells.get(name) {
            return f(cell);
        }
        let cell = H::default();
        let out = f(&cell);
        cells.insert(Cow::Owned(name.to_string()), cell);
        out
    }

    /// Read the cell called `name` without creating it.
    pub(crate) fn peek<H: Cell, R>(&mut self, name: &str, f: impl FnOnce(&H) -> R) -> Option<R> {
        H::cells(self).get(name).map(f)
    }

    /// Deterministic JSON snapshot, keys sorted:
    /// `{"counters": {...}, "gauges": {...}, "latency": {name: {count, mean_us, p50_us, p99_us, max_us}}}`.
    /// Every counter is listed (zeros included); a gauge once set; a
    /// histogram once observed.
    pub(crate) fn snapshot(&self) -> Json {
        let counters = self
            .counters
            .iter()
            .map(|(k, c)| (k.to_string(), Json::UInt(c.get())))
            .collect();
        let gauges = self
            .gauges
            .iter()
            .filter_map(|(k, g)| Some((k.to_string(), Json::Float(g.get()?))))
            .collect();
        let latency = self
            .histograms
            .iter()
            .filter_map(|(k, h)| h.with(|h| (h.count() > 0).then(|| (k.to_string(), latency(h)))))
            .collect();
        Json::Obj(vec![
            ("counters".to_string(), Json::Obj(counters)),
            ("gauges".to_string(), Json::Obj(gauges)),
            ("latency".to_string(), Json::Obj(latency)),
        ])
    }
}

fn latency(h: &LatencyHistogram) -> Json {
    let us = |d: SimDuration| Json::Float(d.as_micros_f64());
    Json::Obj(vec![
        ("count".to_string(), Json::UInt(h.count())),
        ("mean_us".to_string(), us(h.mean())),
        ("p50_us".to_string(), us(h.quantile(0.5))),
        ("p99_us".to_string(), us(h.quantile(0.99))),
        ("max_us".to_string(), us(h.max())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut r = Registry::declared();
        assert_eq!(r.peek("x", Counter::get), None);
        r.with_cell("x", Counter::inc);
        r.with_cell("x", |c: &Counter| c.add(4));
        assert_eq!(r.peek("x", Counter::get), Some(5));
    }

    #[test]
    fn gauges_overwrite() {
        let mut r = Registry::declared();
        r.with_cell("g", |g: &Gauge| g.set(1.0));
        r.with_cell("g", |g: &Gauge| g.set(2.5));
        assert_eq!(r.peek("g", Gauge::get), Some(Some(2.5)));
        assert_eq!(r.peek("missing", Gauge::get), None);
        assert_eq!(
            r.peek("cache.hit_ratio", Gauge::get),
            Some(None),
            "declared, never set"
        );
    }

    #[test]
    fn histograms_record_quantiles() {
        let h = Histogram::default();
        for us in [10u64, 20, 30, 40, 5_000] {
            h.observe(SimDuration::from_micros(us));
        }
        h.with(|h| {
            assert_eq!(h.count(), 5);
            assert!(h.quantile(0.99) >= SimDuration::from_micros(4_000));
        });
    }

    #[test]
    fn snapshot_is_sorted_and_deterministic() {
        let mut r = Registry::declared();
        r.with_cell("z.last", Counter::inc);
        r.with_cell("a.first", Counter::inc);
        r.with_cell("mid", |g: &Gauge| g.set(1.0));
        r.with_cell("lat", |h: &Histogram| {
            h.observe(SimDuration::from_micros(50))
        });
        let one = r.snapshot().to_string();
        let two = r.snapshot().to_string();
        assert_eq!(one, two);
        // Sorted: "a.first" serialized before "z.last".
        assert!(one.find("a.first").unwrap() < one.find("z.last").unwrap());
        assert!(one.contains("\"p99_us\""));
    }

    #[test]
    fn snapshot_lists_declared_counters_at_zero_but_only_written_gauges_and_histograms() {
        let snap = Registry::declared().snapshot();
        let counters = snap["counters"].as_object().unwrap();
        let declared = METRICS
            .iter()
            .filter(|m| m.kind == Kind::Counter && !m.is_family())
            .count();
        assert_eq!(counters.len(), declared);
        assert!(counters.iter().all(|(_, v)| v.as_u64() == Some(0)));
        assert!(snap["gauges"].as_object().unwrap().is_empty());
        assert!(snap["latency"].as_object().unwrap().is_empty());
    }
}
