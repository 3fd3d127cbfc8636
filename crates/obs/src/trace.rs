//! Bounded, deterministic structured-event tracing.
//!
//! Every layer of the cache stack emits typed [`TraceEvent`]s into a
//! shared [`Obs`] handle. Events are sequence-numbered in emission order
//! and stored in a bounded ring buffer; when the buffer
//! is full the *oldest* events are dropped and counted, so a trace is
//! always a suffix of the full event stream.
//!
//! Serialization is canonical (see [`mod@crate::json`]): two runs with the
//! same configuration and seed produce byte-identical JSONL.

use crate::decl::{Decl, Family};
use crate::json::Json;
use crate::metrics::{Cell, Counter, Gauge, Histogram, Registry};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default ring-buffer capacity: enough for several epochs of a
/// simulated run without unbounded growth.
const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// A structured event emitted by one of the cache/storage/sim layers.
///
/// Ids are raw `u64`s rather than the typed ids from `icache-types` so
/// the observability crate stays below every other crate in the
/// dependency graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A sample was served from the H-cache (importance heap).
    HHit {
        /// Requesting job.
        job: u64,
        /// Sample served.
        sample: u64,
    },
    /// A sample was served from the L-cache (packaged region).
    LHit {
        /// Requesting job.
        job: u64,
        /// Sample served.
        sample: u64,
    },
    /// A cache-substitution satisfied the request with a different sample.
    Substitution {
        /// Requesting job.
        job: u64,
        /// Sample that was asked for.
        requested: u64,
        /// Sample that was returned instead.
        substitute: u64,
        /// Which substitution path fired (e.g. `"st_lc"`, `"st_hc"`).
        kind: &'static str,
    },
    /// The request missed every cache tier and went to backing storage.
    Miss {
        /// Requesting job.
        job: u64,
        /// Sample that missed.
        sample: u64,
    },
    /// A sample was evicted from the H-cache.
    Eviction {
        /// Evicted sample.
        sample: u64,
        /// Size of the evicted sample in bytes.
        bytes: u64,
    },
    /// An evicted sample was spilled to the persistent-memory victim tier.
    SpillToPm {
        /// Spilled sample.
        sample: u64,
        /// Size of the spilled sample in bytes.
        bytes: u64,
    },
    /// The packager assembled a new package for the L-cache.
    PackageBuild {
        /// New package id.
        package: u64,
        /// Number of samples in the package.
        samples: u64,
        /// Total payload bytes.
        bytes: u64,
    },
    /// A read was served by a storage tier operating in brownout
    /// (degraded) mode and took a latency penalty.
    BrownoutDegradedRead {
        /// Name of the degraded backend (e.g. `"degraded(pfs)"`); shared,
        /// so building the event per degraded read allocates nothing.
        backend: Arc<str>,
        /// Extra latency added by the brownout, in nanoseconds.
        penalty_nanos: u64,
    },
    /// The H/L regions were re-sized at an epoch boundary.
    RegionRebalance {
        /// Epoch that just ended.
        epoch: u64,
        /// New H-region capacity in bytes.
        h_bytes: u64,
        /// New L-region capacity in bytes.
        l_bytes: u64,
        /// Samples evicted from H to fit the new capacity.
        evicted: u64,
    },
    /// The shadow importance heap finished a refresh and was swapped in.
    ShadowHeapRefill {
        /// Epoch at which the refreshed heap took effect.
        epoch: u64,
        /// Number of entries in the refreshed heap.
        entries: u64,
    },
    /// A training epoch began. In sharded (data-parallel) runs only rank 0
    /// emits the marker, so splitting a trace on `epoch_start` yields
    /// exactly one segment per epoch.
    EpochStart {
        /// Job emitting the marker (rank 0 in sharded runs).
        job: u64,
        /// Epoch index (0-based).
        epoch: u64,
        /// Number of samples the emitting job planned to fetch this epoch
        /// (after importance sampling and shard filtering).
        selected: u64,
    },
    /// A training epoch finished (same emission rule as [`Self::EpochStart`]).
    EpochEnd {
        /// Job emitting the marker.
        job: u64,
        /// Epoch index (0-based).
        epoch: u64,
        /// Samples the emitting job actually fetched this epoch.
        fetched: u64,
    },
    /// A distributed fetch was served from a peer node's cache over the
    /// interconnect instead of storage (§III-E).
    RemoteHit {
        /// Requesting job.
        job: u64,
        /// Sample served.
        sample: u64,
        /// Peer node that held the sample.
        node: u64,
    },
    /// The distributed directory re-mapped a sample from one node to
    /// another (an insert overwrote an existing residency entry, or a
    /// repartition moved the entry's directory shard between nodes).
    DirectoryRemap {
        /// Re-mapped sample.
        sample: u64,
        /// Node that previously cached the sample.
        from_node: u64,
        /// Node that caches the sample now.
        to_node: u64,
    },
    /// The sharded cache service's failure detector moved a node to a new
    /// membership state (`"alive"`, `"suspect"`, or `"down"`).
    MembershipChange {
        /// Node whose state changed.
        node: u64,
        /// New membership state.
        state: &'static str,
    },
    /// The directory partition map was recomputed after a membership
    /// change (each shard move is additionally traced as
    /// [`Self::DirectoryRemap`]).
    PartitionUpdate {
        /// Monotonic partition-map version.
        version: u64,
        /// Number of live nodes after the change.
        live: u64,
        /// Directory entries whose shard moved between nodes.
        moved: u64,
        /// Residency entries purged because their owner went down.
        purged: u64,
    },
    /// A rejoining node rebuilt cache contents from its recovery index
    /// instead of refetching from storage.
    WarmRecovery {
        /// Recovering node.
        node: u64,
        /// H-region samples re-admitted from the index.
        restored_h: u64,
        /// L-region samples re-installed from the index.
        restored_l: u64,
        /// Index entries skipped because another live node owns them now.
        skipped: u64,
    },
    /// The clairvoyant prefetcher issued a lookahead fetch for a planned
    /// access ahead of the consumer (DESIGN.md §11).
    PrefetchIssue {
        /// Job whose epoch plan is being prefetched.
        job: u64,
        /// Sample being prefetched.
        sample: u64,
        /// Zero-based position of the access in the epoch plan.
        position: u64,
    },
    /// A consumed sample was not resident in time: the consumer stalled
    /// on it (or had to demand-fetch it outside the lookahead window).
    PrefetchLate {
        /// Consuming job.
        job: u64,
        /// Sample that arrived late.
        sample: u64,
        /// Zero-based position of the access in the epoch plan.
        position: u64,
        /// How long the consumer stalled waiting for the data, in
        /// nanoseconds.
        wait_nanos: u64,
    },
}

/// Declares each variant's JSONL `event` name and the moment it is
/// emitted, once: [`TraceEvent::name`] and [`TraceEvent::EVENTS`] (hence
/// DESIGN.md §7's table) both come from this list, and the exhaustive
/// match makes an undeclared variant a compile error.
macro_rules! events {
    ($($variant:ident => $name:literal: $when:literal,)*) => {
        impl TraceEvent {
            /// Short machine-readable event name (the `"event"` field in JSONL).
            pub fn name(&self) -> &'static str {
                match self {
                    $(TraceEvent::$variant { .. } => $name,)*
                }
            }

            /// Every event name with the moment it is emitted, in
            /// DESIGN.md §7 order.
            pub const EVENTS: &'static [(&'static str, &'static str)] = &[$(($name, $when)),*];
        }
    };
}

events! {
    HHit => "h_hit": "a request is served from the H-region (or promoted back from the PM tier)",
    LHit => "l_hit": "a request is served from the L-region",
    Substitution => "substitution": "a request is served by substituting a different cached sample",
    Miss => "miss": "a request falls through to storage",
    Eviction => "eviction": "a sample leaves the H-region",
    SpillToPm => "spill_to_pm": "an evicted H-sample is written into the PM victim tier",
    PackageBuild => "package_build": "the L-region loader assembles a package",
    BrownoutDegradedRead => "brownout_degraded_read": "a storage read is served while browned out",
    RegionRebalance => "region_rebalance": "the H/L capacity split is recomputed at an epoch boundary",
    ShadowHeapRefill => "shadow_heap_refill": "a fresh H-list opens a shadow-heap refresh window",
    EpochStart => "epoch_start": "a training epoch begins (rank 0 only; see Epoch markers)",
    EpochEnd => "epoch_end": "a training epoch finishes (rank 0 only; see Epoch markers)",
    RemoteHit => "remote_hit": "a distributed fetch is served by a peer node",
    DirectoryRemap => "directory_remap": "a directory insert overwrites a mapping to a different node, or a repartition rehomes an entry",
    MembershipChange => "membership_change": "the failure detector moves a node between alive / suspect / down",
    PartitionUpdate => "partition_update": "a membership change rebuilds the partition map (carries the version, live count, and moved/purged totals)",
    WarmRecovery => "warm_recovery": "a rejoining node replays its recovery index (restored H/L counts and skipped entries)",
    PrefetchIssue => "prefetch_issue": "the clairvoyant prefetcher issues a plan position ahead of the consumer (§11)",
    PrefetchLate => "prefetch_late": "a consumer arrives before its prefetch completes and stalls (carries the wait in nanoseconds)",
}

impl TraceEvent {
    /// The event as a JSON object including its sequence number.
    pub fn to_json(&self, seq: u64) -> Json {
        let mut fields = vec![
            ("seq".to_string(), Json::UInt(seq)),
            ("event".to_string(), Json::Str(self.name().to_string())),
        ];
        match self {
            TraceEvent::HHit { job, sample } | TraceEvent::LHit { job, sample } => {
                fields.push(("job".to_string(), Json::UInt(*job)));
                fields.push(("sample".to_string(), Json::UInt(*sample)));
            }
            TraceEvent::Substitution {
                job,
                requested,
                substitute,
                kind,
            } => {
                fields.push(("job".to_string(), Json::UInt(*job)));
                fields.push(("requested".to_string(), Json::UInt(*requested)));
                fields.push(("substitute".to_string(), Json::UInt(*substitute)));
                fields.push(("kind".to_string(), Json::Str((*kind).to_string())));
            }
            TraceEvent::Miss { job, sample } => {
                fields.push(("job".to_string(), Json::UInt(*job)));
                fields.push(("sample".to_string(), Json::UInt(*sample)));
            }
            TraceEvent::Eviction { sample, bytes } | TraceEvent::SpillToPm { sample, bytes } => {
                fields.push(("sample".to_string(), Json::UInt(*sample)));
                fields.push(("bytes".to_string(), Json::UInt(*bytes)));
            }
            TraceEvent::PackageBuild {
                package,
                samples,
                bytes,
            } => {
                fields.push(("package".to_string(), Json::UInt(*package)));
                fields.push(("samples".to_string(), Json::UInt(*samples)));
                fields.push(("bytes".to_string(), Json::UInt(*bytes)));
            }
            TraceEvent::BrownoutDegradedRead {
                backend,
                penalty_nanos,
            } => {
                fields.push(("backend".to_string(), Json::Str(backend.to_string())));
                fields.push(("penalty_nanos".to_string(), Json::UInt(*penalty_nanos)));
            }
            TraceEvent::RegionRebalance {
                epoch,
                h_bytes,
                l_bytes,
                evicted,
            } => {
                fields.push(("epoch".to_string(), Json::UInt(*epoch)));
                fields.push(("h_bytes".to_string(), Json::UInt(*h_bytes)));
                fields.push(("l_bytes".to_string(), Json::UInt(*l_bytes)));
                fields.push(("evicted".to_string(), Json::UInt(*evicted)));
            }
            TraceEvent::ShadowHeapRefill { epoch, entries } => {
                fields.push(("epoch".to_string(), Json::UInt(*epoch)));
                fields.push(("entries".to_string(), Json::UInt(*entries)));
            }
            TraceEvent::EpochStart {
                job,
                epoch,
                selected,
            } => {
                fields.push(("job".to_string(), Json::UInt(*job)));
                fields.push(("epoch".to_string(), Json::UInt(*epoch)));
                fields.push(("selected".to_string(), Json::UInt(*selected)));
            }
            TraceEvent::EpochEnd {
                job,
                epoch,
                fetched,
            } => {
                fields.push(("job".to_string(), Json::UInt(*job)));
                fields.push(("epoch".to_string(), Json::UInt(*epoch)));
                fields.push(("fetched".to_string(), Json::UInt(*fetched)));
            }
            TraceEvent::RemoteHit { job, sample, node } => {
                fields.push(("job".to_string(), Json::UInt(*job)));
                fields.push(("sample".to_string(), Json::UInt(*sample)));
                fields.push(("node".to_string(), Json::UInt(*node)));
            }
            TraceEvent::DirectoryRemap {
                sample,
                from_node,
                to_node,
            } => {
                fields.push(("sample".to_string(), Json::UInt(*sample)));
                fields.push(("from_node".to_string(), Json::UInt(*from_node)));
                fields.push(("to_node".to_string(), Json::UInt(*to_node)));
            }
            TraceEvent::MembershipChange { node, state } => {
                fields.push(("node".to_string(), Json::UInt(*node)));
                fields.push(("state".to_string(), Json::Str((*state).to_string())));
            }
            TraceEvent::PartitionUpdate {
                version,
                live,
                moved,
                purged,
            } => {
                fields.push(("version".to_string(), Json::UInt(*version)));
                fields.push(("live".to_string(), Json::UInt(*live)));
                fields.push(("moved".to_string(), Json::UInt(*moved)));
                fields.push(("purged".to_string(), Json::UInt(*purged)));
            }
            TraceEvent::WarmRecovery {
                node,
                restored_h,
                restored_l,
                skipped,
            } => {
                fields.push(("node".to_string(), Json::UInt(*node)));
                fields.push(("restored_h".to_string(), Json::UInt(*restored_h)));
                fields.push(("restored_l".to_string(), Json::UInt(*restored_l)));
                fields.push(("skipped".to_string(), Json::UInt(*skipped)));
            }
            TraceEvent::PrefetchIssue {
                job,
                sample,
                position,
            } => {
                fields.push(("job".to_string(), Json::UInt(*job)));
                fields.push(("sample".to_string(), Json::UInt(*sample)));
                fields.push(("position".to_string(), Json::UInt(*position)));
            }
            TraceEvent::PrefetchLate {
                job,
                sample,
                position,
                wait_nanos,
            } => {
                fields.push(("job".to_string(), Json::UInt(*job)));
                fields.push(("sample".to_string(), Json::UInt(*sample)));
                fields.push(("position".to_string(), Json::UInt(*position)));
                fields.push(("wait_nanos".to_string(), Json::UInt(*wait_nanos)));
            }
        }
        Json::Obj(fields)
    }
}

/// A bounded ring buffer of sequence-numbered [`TraceEvent`]s.
#[derive(Debug)]
pub(crate) struct TraceBuffer {
    events: VecDeque<(u64, TraceEvent)>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

impl TraceBuffer {
    /// A buffer retaining at most `capacity` events (zero disables
    /// retention entirely while still counting sequence numbers).
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        TraceBuffer {
            events: VecDeque::new(),
            capacity,
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Append an event, evicting the oldest if full. Returns the
    /// event's sequence number.
    pub(crate) fn push(&mut self, event: TraceEvent) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.capacity == 0 {
            self.dropped += 1;
            return seq;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back((seq, event));
        seq
    }

    /// Number of retained events.
    pub(crate) fn len(&self) -> usize {
        self.events.len()
    }

    /// Number of events that fell out of the ring (or were never
    /// retained, for a zero-capacity buffer).
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total number of events ever pushed.
    pub(crate) fn emitted(&self) -> u64 {
        self.next_seq
    }

    /// Iterate retained `(seq, event)` pairs oldest-first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &(u64, TraceEvent)> {
        self.events.iter()
    }

    /// Serialize retained events as JSON Lines (one canonical object per
    /// line, trailing newline after each).
    pub(crate) fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (seq, event) in &self.events {
            out.push_str(&event.to_json(*seq).to_string());
            out.push('\n');
        }
        out
    }
}

#[derive(Debug)]
struct ObsInner {
    registry: Registry,
    trace: TraceBuffer,
}

/// Shared observability handle: the metric registry plus a trace ring
/// behind one cheaply clonable reference.
///
/// Every layer that participates in a run holds a clone of the same
/// `Obs`; cloning shares state. Components write metrics through typed
/// handles resolved once from the declaration ([`Obs::handle`],
/// [`Obs::member`]; see [`obs_handles!`](crate::obs_handles)) — a handle
/// write never takes the `Obs` lock. The by-name methods (`inc`,
/// `observe`, `counter`, `gauge`) reach the same cells through a name
/// lookup under the lock; they are for reports, tests and the benchmark.
///
/// # Examples
///
/// ```
/// use icache_obs::{decl, Obs, TraceEvent};
///
/// let obs = Obs::new();
/// let layer = obs.clone(); // same underlying cells and ring
/// let h_hits = layer.handle(decl::CACHE_H_HITS);
/// layer.emit(TraceEvent::HHit { job: 0, sample: 42 });
/// h_hits.inc();
/// assert_eq!(obs.trace_len(), 1);
/// assert_eq!(obs.counter("cache.h_hits"), 1);
/// assert!(obs.trace_jsonl().starts_with(r#"{"seq":0,"event":"h_hit""#));
/// ```
#[derive(Debug, Clone)]
pub struct Obs {
    /// Guards name registration, snapshots and the trace ring — never a
    /// handle write.
    inner: Arc<Mutex<ObsInner>>,
    /// Present on a zero-capacity handle ([`Obs::noop`]): `emit` then
    /// only counts here and never touches `inner`.
    untraced: Option<Arc<AtomicU64>>,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new()
    }
}

impl Obs {
    /// A handle with the default trace capacity.
    pub fn new() -> Self {
        Obs::with_trace_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// A handle retaining at most `capacity` trace events.
    pub(crate) fn with_trace_capacity(capacity: usize) -> Self {
        Obs {
            inner: Arc::new(Mutex::new(ObsInner {
                registry: Registry::declared(),
                trace: TraceBuffer::with_capacity(capacity),
            })),
            untraced: (capacity == 0).then(Arc::default),
        }
    }

    /// A handle that records metrics but retains no trace events; the
    /// default for components constructed without explicit observability.
    pub fn noop() -> Self {
        Obs::with_trace_capacity(0)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ObsInner> {
        // A poisoned lock means another thread panicked mid-update;
        // observability data is best-effort, so keep serving it.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The write handle of a declared metric. Resolve once (at
    /// construction or in `set_obs`), then write through the handle.
    pub fn handle<H: Cell>(&self, metric: Decl<H>) -> H {
        self.lock().registry.with_cell(metric.0, H::clone)
    }

    /// The write handle of member `index` of a declared family; the
    /// same index always resolves to the same cell.
    pub fn member<H: Cell>(&self, family: Family<H>, index: u64) -> H {
        self.lock()
            .registry
            .with_cell(&family.member_name(index), H::clone)
    }

    /// Emit a trace event; returns its sequence number. On a
    /// zero-capacity handle this is one relaxed counter bump.
    pub fn emit(&self, event: TraceEvent) -> u64 {
        match &self.untraced {
            Some(n) => n.fetch_add(1, Ordering::Relaxed),
            None => self.lock().trace.push(event),
        }
    }

    /// Increment a counter by name.
    pub fn inc(&self, name: &str) {
        self.lock().registry.with_cell(name, Counter::inc);
    }

    /// Read a counter by name (zero when nothing has that name).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().registry.peek(name, Counter::get).unwrap_or(0)
    }

    /// Read a gauge by name (`None` until it is first set).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.lock().registry.peek(name, Gauge::get).flatten()
    }

    /// Record a duration into a latency histogram by name.
    pub fn observe(&self, name: &str, d: icache_types::SimDuration) {
        self.lock()
            .registry
            .with_cell(name, |h: &Histogram| h.observe(d));
    }

    /// Number of retained trace events.
    pub fn trace_len(&self) -> usize {
        self.lock().trace.len()
    }

    /// Number of trace events dropped by the ring buffer.
    pub fn trace_dropped(&self) -> u64 {
        match &self.untraced {
            Some(n) => n.load(Ordering::Relaxed),
            None => self.lock().trace.dropped(),
        }
    }

    /// Total trace events emitted over the lifetime of the handle.
    pub fn trace_emitted(&self) -> u64 {
        match &self.untraced {
            Some(n) => n.load(Ordering::Relaxed),
            None => self.lock().trace.emitted(),
        }
    }

    /// The retained trace as canonical JSON Lines.
    pub fn trace_jsonl(&self) -> String {
        self.lock().trace.to_jsonl()
    }

    /// Count of retained events per event name, sorted by name.
    pub fn trace_event_counts(&self) -> Vec<(String, u64)> {
        let inner = self.lock();
        let mut counts: std::collections::BTreeMap<&'static str, u64> =
            std::collections::BTreeMap::new();
        for (_, event) in inner.trace.iter() {
            *counts.entry(event.name()).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect()
    }

    /// Deterministic JSON snapshot of the metrics registry.
    pub fn metrics_snapshot(&self) -> Json {
        self.lock().registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decl;

    #[test]
    fn ring_buffer_drops_oldest() {
        let mut buf = TraceBuffer::with_capacity(2);
        for sample in 0..5u64 {
            buf.push(TraceEvent::Miss { job: 0, sample });
        }
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.dropped(), 3);
        assert_eq!(buf.emitted(), 5);
        let seqs: Vec<u64> = buf.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![3, 4]);
    }

    #[test]
    fn zero_capacity_counts_but_retains_nothing() {
        let mut buf = TraceBuffer::with_capacity(0);
        buf.push(TraceEvent::HHit { job: 1, sample: 2 });
        assert_eq!(buf.len(), 0);
        assert_eq!(buf.dropped(), 1);
        assert_eq!(buf.emitted(), 1);
        assert_eq!(buf.to_jsonl(), "");
    }

    #[test]
    fn jsonl_is_canonical_and_parseable() {
        let mut buf = TraceBuffer::with_capacity(16);
        buf.push(TraceEvent::Substitution {
            job: 1,
            requested: 10,
            substitute: 11,
            kind: "st_lc",
        });
        buf.push(TraceEvent::RegionRebalance {
            epoch: 2,
            h_bytes: 100,
            l_bytes: 50,
            evicted: 3,
        });
        let jsonl = buf.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = crate::Json::parse(lines[0]).unwrap();
        assert_eq!(first["event"].as_str(), Some("substitution"));
        assert_eq!(first["kind"].as_str(), Some("st_lc"));
        let second = crate::Json::parse(lines[1]).unwrap();
        assert_eq!(second["seq"].as_u64(), Some(1));
        assert_eq!(second["h_bytes"].as_u64(), Some(100));
    }

    #[test]
    fn every_event_kind_serializes_with_its_name() {
        let events = vec![
            TraceEvent::HHit { job: 0, sample: 1 },
            TraceEvent::LHit { job: 0, sample: 1 },
            TraceEvent::Substitution {
                job: 0,
                requested: 1,
                substitute: 2,
                kind: "st_hc",
            },
            TraceEvent::Miss { job: 0, sample: 1 },
            TraceEvent::Eviction {
                sample: 1,
                bytes: 10,
            },
            TraceEvent::SpillToPm {
                sample: 1,
                bytes: 10,
            },
            TraceEvent::PackageBuild {
                package: 7,
                samples: 3,
                bytes: 1024,
            },
            TraceEvent::BrownoutDegradedRead {
                backend: "degraded(pfs)".into(),
                penalty_nanos: 99,
            },
            TraceEvent::RegionRebalance {
                epoch: 1,
                h_bytes: 2,
                l_bytes: 3,
                evicted: 0,
            },
            TraceEvent::ShadowHeapRefill {
                epoch: 1,
                entries: 12,
            },
            TraceEvent::EpochStart {
                job: 0,
                epoch: 2,
                selected: 700,
            },
            TraceEvent::EpochEnd {
                job: 0,
                epoch: 2,
                fetched: 700,
            },
            TraceEvent::RemoteHit {
                job: 1,
                sample: 5,
                node: 0,
            },
            TraceEvent::DirectoryRemap {
                sample: 5,
                from_node: 0,
                to_node: 1,
            },
            TraceEvent::MembershipChange {
                node: 1,
                state: "suspect",
            },
            TraceEvent::PartitionUpdate {
                version: 2,
                live: 2,
                moved: 40,
                purged: 12,
            },
            TraceEvent::WarmRecovery {
                node: 1,
                restored_h: 30,
                restored_l: 60,
                skipped: 3,
            },
            TraceEvent::PrefetchIssue {
                job: 0,
                sample: 9,
                position: 4,
            },
            TraceEvent::PrefetchLate {
                job: 0,
                sample: 9,
                position: 4,
                wait_nanos: 1_500,
            },
        ];
        for e in events {
            let j = e.to_json(0);
            assert_eq!(j["event"].as_str(), Some(e.name()));
            // Round-trips through the parser.
            assert_eq!(crate::Json::parse(&j.to_string()).unwrap(), j);
        }
    }

    #[test]
    fn obs_clones_share_state() {
        let obs = Obs::new();
        let other = obs.clone();
        other.emit(TraceEvent::Miss { job: 3, sample: 4 });
        other.inc("misses");
        other.handle(decl::CACHE_HIT_RATIO).set(0.5);
        other.observe("lat", icache_types::SimDuration::from_micros(5));
        assert_eq!(obs.trace_len(), 1);
        assert_eq!(obs.counter("misses"), 1);
        assert_eq!(obs.gauge("cache.hit_ratio"), Some(0.5));
        assert_eq!(obs.trace_event_counts(), vec![("miss".to_string(), 1)]);
    }

    #[test]
    fn handles_and_names_reach_the_same_cells() {
        let obs = Obs::new();
        let hits = obs.handle(decl::CACHE_H_HITS);
        hits.inc();
        obs.inc("cache.h_hits");
        assert_eq!(obs.counter("cache.h_hits"), 2);
        assert_eq!(hits.get(), 2);
        // A family member resolved twice is one cell.
        obs.member(decl::DIST_NODE_LOCAL_HITS, 1).add(3);
        obs.member(decl::DIST_NODE_LOCAL_HITS, 1).inc();
        assert_eq!(obs.counter("dist.node1.local_hits"), 4);
        assert_eq!(obs.counter("dist.node0.local_hits"), 0);
        obs.handle(decl::CACHE_HIT_RATIO).set(0.25);
        assert_eq!(obs.gauge("cache.hit_ratio"), Some(0.25));
        assert_eq!(obs.gauge("cache.h_capacity"), None, "declared, never set");
        obs.handle(decl::CACHE_FETCH)
            .observe(icache_types::SimDuration::from_micros(7));
        let snap = obs.metrics_snapshot();
        assert_eq!(snap["latency"]["cache.fetch"]["count"].as_u64(), Some(1));
        assert_eq!(snap["counters"]["cache.h_hits"].as_u64(), Some(2));
    }

    #[test]
    fn the_fetch_path_never_waits_for_the_registry_lock() {
        // Hold `Obs.inner` on this thread for the whole test: a handle
        // write or a noop emit that needed it would deadlock right here.
        let obs = Obs::noop();
        let (hits, fetch) = (
            obs.handle(decl::CACHE_H_HITS),
            obs.handle(decl::CACHE_FETCH),
        );
        let guard = obs.lock();
        hits.inc();
        fetch.observe(icache_types::SimDuration::from_micros(3));
        assert_eq!(obs.emit(TraceEvent::HHit { job: 0, sample: 0 }), 0);
        assert_eq!(obs.trace_emitted(), 1);
        drop(guard);
        assert_eq!(obs.counter("cache.h_hits"), 1);
    }

    #[test]
    fn noop_records_metrics_without_trace() {
        let obs = Obs::noop();
        obs.emit(TraceEvent::HHit { job: 0, sample: 0 });
        obs.inc("hits");
        assert_eq!(obs.trace_len(), 0);
        assert_eq!(obs.trace_emitted(), 1);
        assert_eq!(obs.counter("hits"), 1);
    }
}
