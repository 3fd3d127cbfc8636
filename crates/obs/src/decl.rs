//! The one declaration of every metric and trace-event name.
//!
//! A counter, gauge or latency histogram exists because it has a row in
//! [`METRICS`]; a component can only write it through the typed handle
//! [`Obs::handle`](crate::Obs::handle) resolves from that row's constant
//! (indexed families such as `dist.node{i}.local_hits` through
//! [`Obs::member`](crate::Obs::member)). DESIGN.md §7's tables are
//! [`metrics_table`] and [`events_table`] verbatim — a tier-1 test
//! (`tests/observability.rs`) diffs them both ways, so a name cannot be
//! emitted undocumented or documented unemitted.

use crate::metrics::{Counter, Gauge, Histogram};
use std::marker::PhantomData;

/// What a declared metric measures with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotone event count.
    Counter,
    /// Last-written value.
    Gauge,
    /// Latency distribution.
    Histogram,
}

impl Kind {
    /// The `type` column of DESIGN.md §7.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// One row of the declaration: a metric (or `{i}`-indexed family).
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Dotted name; a family carries one `{…}` index placeholder.
    pub name: &'static str,
    /// Counter, gauge or histogram.
    pub kind: Kind,
    /// One-line meaning (the DESIGN.md §7 `meaning` column).
    pub meaning: &'static str,
}

impl Metric {
    /// Whether the row declares an indexed family rather than one metric.
    pub fn is_family(&self) -> bool {
        self.name.contains('{')
    }
}

/// A declared metric whose handle type is `H`. Only this module can
/// mint one, so holding a `Decl` proves the name is in [`METRICS`].
pub struct Decl<H>(pub(crate) &'static str, PhantomData<fn() -> H>);

/// A declared family of metrics indexed by a node / job number.
pub struct Family<H>(&'static str, PhantomData<fn() -> H>);

impl<H> Family<H> {
    /// The registry name of member `index`: the pattern with its
    /// `{…}` placeholder replaced.
    pub(crate) fn member_name(&self, index: u64) -> String {
        match (self.0.find('{'), self.0.find('}')) {
            (Some(open), Some(close)) => {
                format!("{}{index}{}", &self.0[..open], &self.0[close + 1..])
            }
            _ => self.0.to_string(),
        }
    }
}

macro_rules! declare {
    ($($id:ident: $shape:ident<$handle:ident> = $name:literal, $meaning:literal;)*) => {
        $(#[doc = $meaning] pub const $id: $shape<$handle> = $shape($name, PhantomData);)*
        /// Every declared metric, in DESIGN.md §7 order.
        pub const METRICS: &[Metric] = &[$(Metric {
            name: $name,
            kind: Kind::$handle,
            meaning: $meaning,
        }),*];
    };
}

declare! {
    CACHE_H_HITS: Decl<Counter> = "cache.h_hits", "requests served from the H-region";
    CACHE_L_HITS: Decl<Counter> = "cache.l_hits", "requests served from the L-region";
    CACHE_PM_HITS: Decl<Counter> = "cache.pm_hits", "requests served from the PM victim tier";
    CACHE_SUBSTITUTIONS: Decl<Counter> = "cache.substitutions", "requests served by substituting a different cached sample";
    CACHE_MISSES: Decl<Counter> = "cache.misses", "requests that went to storage";
    CACHE_INSERTIONS: Decl<Counter> = "cache.insertions", "samples admitted into the cache";
    CACHE_EVICTIONS: Decl<Counter> = "cache.evictions", "samples evicted to make room";
    CACHE_REJECTIONS: Decl<Counter> = "cache.rejections", "samples denied admission (importance below the bar)";
    CACHE_PM_SPILLS: Decl<Counter> = "cache.pm_spills", "evicted H-samples written into the PM victim tier";
    CACHE_HIT_RATIO: Decl<Gauge> = "cache.hit_ratio", "paper-style hit ratio at the last epoch boundary";
    CACHE_H_CAPACITY: Decl<Gauge> = "cache.h_capacity", "H-region capacity in bytes, re-published on every rebalance";
    CACHE_L_CAPACITY: Decl<Gauge> = "cache.l_capacity", "L-region capacity in bytes, re-published on every rebalance";
    CACHE_FETCH: Decl<Histogram> = "cache.fetch", "per-fetch service latency";
    CACHE_STRIPE_COUNT: Decl<Gauge> = "cache.stripe.count", "lock stripes serving the concurrent in-node cache (power of two; unset on the sequential path)";
    CACHE_STRIPE_H_MAX_RESIDENTS: Decl<Gauge> = "cache.stripe.h_max_residents", "largest per-stripe resident population in the H-region at the last epoch boundary — stripe-balance watchdog";
    CACHE_STRIPE_L_MAX_RESIDENTS: Decl<Gauge> = "cache.stripe.l_max_residents", "largest per-stripe resident population in the L-region at the last epoch boundary";
    CACHE_LOCK_CONTENTION: Decl<Counter> = "cache.lock_contention", "lock acquisitions that found the lock held (every stripe and manager lock of the concurrent cache; `try_lock`-then-wait instrumentation)";
    DIST_NODES: Decl<Gauge> = "dist.nodes", "cluster size of the distributed cache";
    DIST_NODE_LOCAL_HITS: Family<Counter> = "dist.node{i}.local_hits", "node *i* fetches served from its own cache";
    DIST_NODE_REMOTE_HITS: Family<Counter> = "dist.node{i}.remote_hits", "node *i* fetches served by a peer over the interconnect";
    DIST_NODE_STORAGE_FETCHES: Family<Counter> = "dist.node{i}.storage_fetches", "node *i* fetches that fell through to storage";
    DIST_REMOTE_HITS: Decl<Counter> = "dist.remote_hits", "cluster-wide remote hits (= Σ per-node remote hits)";
    DIST_DIRECTORY_LOOKUPS: Decl<Counter> = "dist.directory.lookups", "sample→node directory reads";
    DIST_DIRECTORY_INSERTS: Decl<Counter> = "dist.directory.inserts", "fresh directory mappings added; `len == inserts − removes` always holds";
    DIST_DIRECTORY_REMOVES: Decl<Counter> = "dist.directory.removes", "existing directory mappings deleted (repartition purges included)";
    DIST_DIRECTORY_REMAPS: Decl<Counter> = "dist.directory.remaps", "inserts that overwrote a mapping to a *different* node (also traced as `directory_remap`)";
    SVC_KILLS: Decl<Counter> = "svc.kills", "node crashes applied to the sharded service";
    SVC_REJOINS: Decl<Counter> = "svc.rejoins", "successful node revives";
    SVC_REJOIN_FAILURES: Decl<Counter> = "svc.rejoin_failures", "revives whose replacement manager could not be built";
    SVC_MEMBERSHIP_ALIVE_TRANSITIONS: Decl<Counter> = "svc.membership.alive_transitions", "failure-detector transitions into alive";
    SVC_MEMBERSHIP_SUSPECTS: Decl<Counter> = "svc.membership.suspects", "failure-detector transitions into suspect";
    SVC_MEMBERSHIP_DOWNS: Decl<Counter> = "svc.membership.downs", "failure-detector transitions into down";
    SVC_HEARTBEATS_SENT: Decl<Counter> = "svc.heartbeats_sent", "ring beacons sent by live nodes";
    SVC_RPC_TIMEOUTS: Decl<Counter> = "svc.rpc_timeouts", "RPCs addressed to a crashed node, expired after `rpc_timeout`";
    SVC_DEAD_NODE_FETCHES: Decl<Counter> = "svc.dead_node_fetches", "fetches issued while the requester's home node was down (served from storage)";
    SVC_REPARTITION_MOVED: Decl<Counter> = "svc.repartition.moved", "directory entries rehomed to a new shard";
    SVC_REPARTITION_PURGED: Decl<Counter> = "svc.repartition.purged", "directory entries dropped because their owner is down";
    SVC_RACE_REMOTE_WINS: Decl<Counter> = "svc.race.remote_wins", "hedged fetches (`race_fetches`) the peer read won";
    SVC_RACE_STORAGE_WINS: Decl<Counter> = "svc.race.storage_wins", "hedged fetches the local storage read won";
    SVC_RECOVERY_INDEX_WRITES: Decl<Counter> = "svc.recovery.index_writes", "residency snapshots persisted to the recovery store (periodic + epoch-end)";
    SVC_RECOVERY_WARM_RESTARTS: Decl<Counter> = "svc.recovery.warm_restarts", "rejoins that replayed a recovery index";
    SVC_RECOVERY_COLD_RESTARTS: Decl<Counter> = "svc.recovery.cold_restarts", "rejoins that started empty";
    SVC_RECOVERY_RESTORED_SAMPLES: Decl<Counter> = "svc.recovery.restored_samples", "index entries re-admitted on warm restart";
    SVC_RECOVERY_SKIPPED: Decl<Counter> = "svc.recovery.skipped", "index entries skipped because another live node owns them by now";
    SVC_RECOVERY_BYTES: Decl<Counter> = "svc.recovery.bytes", "bytes replayed from node-local disk during warm restarts";
    SVC_NET_SENT: Decl<Counter> = "svc.net.sent", "simulated-network messages enqueued";
    SVC_NET_DELIVERED: Decl<Counter> = "svc.net.delivered", "simulated-network messages delivered";
    SVC_NET_TRANSFERS: Decl<Counter> = "svc.net.transfers", "data-plane payload transfers";
    SVC_NET_BYTES: Decl<Counter> = "svc.net.bytes", "byte volume of data-plane transfers";
    MULTIJOB_JOBS_REGISTERED: Decl<Counter> = "multijob.jobs_registered", "jobs admitted by the multi-job coordinator";
    MULTIJOB_PROBES_COMPLETED: Decl<Counter> = "multijob.probes_completed", "benefit probes finished";
    MULTIJOB_ELIGIBLE_VERDICTS: Decl<Counter> = "multijob.eligible_verdicts", "probes that judged the job cache-eligible";
    MULTIJOB_JOB_BENEFIT: Family<Gauge> = "multijob.job{k}.benefit", "job *k*'s measured caching benefit (AIV)";
    LCACHE_PACKAGES_BUILT: Decl<Counter> = "lcache.packages_built", "packages assembled by the L-region loader";
    LCACHE_PACKAGE_BYTES: Decl<Counter> = "lcache.package_bytes", "total bytes across all built packages";
    STORAGE_SAMPLE_READS: Decl<Counter> = "storage.sample_reads", "individual sample reads";
    STORAGE_SAMPLE_BYTES: Decl<Counter> = "storage.sample_bytes", "byte volume of sample reads";
    STORAGE_PACKAGE_READS: Decl<Counter> = "storage.package_reads", "packaged (chunked) reads";
    STORAGE_PACKAGE_BYTES: Decl<Counter> = "storage.package_bytes", "byte volume of package reads";
    STORAGE_DEGRADED_REQUESTS: Decl<Counter> = "storage.degraded_requests", "reads served while the backend was browned out";
    STORAGE_SAMPLE_READ: Decl<Histogram> = "storage.sample_read", "storage service latency per sample read";
    STORAGE_PACKAGE_READ: Decl<Histogram> = "storage.package_read", "storage service latency per package read";
    REPLAY_ACCESSES: Decl<Counter> = "replay.accesses", "`icache_replay` driver accounting: requests replayed (= Σ of the five outcome counters below, for every policy)";
    REPLAY_H_HITS: Decl<Counter> = "replay.h_hits", "replayed requests that hit the H-region (or a baseline's single region)";
    REPLAY_L_HITS: Decl<Counter> = "replay.l_hits", "replayed requests that hit the L-region";
    REPLAY_PM_HITS: Decl<Counter> = "replay.pm_hits", "replayed requests that hit the PM victim tier";
    REPLAY_SUBSTITUTIONS: Decl<Counter> = "replay.substitutions", "replayed requests served by substitution";
    REPLAY_MISSES: Decl<Counter> = "replay.misses", "replayed requests that went to storage";
    PREFETCH_ISSUED: Decl<Counter> = "prefetch.issued", "plan positions the clairvoyant prefetcher issued through the cache ahead of the consumer (§11)";
    PREFETCH_HITS: Decl<Counter> = "prefetch.hits", "consumed positions whose prefetched data was already resident (zero stall)";
    PREFETCH_LATE: Decl<Counter> = "prefetch.late", "consumed positions that stalled: the prefetch had not completed (or the position was demand-fetched outside the window)";
    PREFETCH_CANCELLED: Decl<Counter> = "prefetch.cancelled", "issued-but-never-consumed leftovers at epoch end plus window sweep-skips of positions the consumer demand-fetched first";
}

/// DESIGN.md §7's metrics table, rendered from [`METRICS`].
pub fn metrics_table() -> String {
    let mut out = String::from("| name | type | meaning |\n|---|---|---|\n");
    for m in METRICS {
        out.push_str(&format!(
            "| `{}` | {} | {} |\n",
            m.name,
            m.kind.name(),
            m.meaning
        ));
    }
    out
}

/// DESIGN.md §7's trace-events table, rendered from
/// [`TraceEvent::EVENTS`](crate::TraceEvent::EVENTS).
pub fn events_table() -> String {
    let mut out = String::from("| name | emitted when |\n|---|---|\n");
    for (name, when) in crate::TraceEvent::EVENTS {
        out.push_str(&format!("| `{name}` | {when} |\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_families_render_their_index() {
        let mut names: Vec<&str> = METRICS.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), METRICS.len(), "duplicate metric name");
        assert_eq!(DIST_NODE_LOCAL_HITS.member_name(3), "dist.node3.local_hits");
        assert_eq!(MULTIJOB_JOB_BENEFIT.member_name(0), "multijob.job0.benefit");
        assert_eq!(
            METRICS.iter().filter(|m| m.is_family()).count(),
            4,
            "three per-node counters and the per-job benefit gauge"
        );
    }
}
