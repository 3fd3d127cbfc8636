//! The iCache system: an importance-sampling-informed cache for I/O-bound
//! DNN training (HPCA'23).
//!
//! This crate implements the paper's contribution in full:
//!
//! * [`HHeap`] — the *small-top heap*: an indexed min-heap keyed by
//!   importance value whose top node is the eviction candidate (§III-B).
//! * [`ShadowedHeap`] — the shadow-heap mechanism that refreshes the heap
//!   cheaply when importance values change across epochs (§III-B).
//! * [`HCache`] — the high-importance region: a key-value store admitting
//!   and evicting by importance (Algorithm 1).
//! * [`LCache`] + [`Packager`] — the low-importance region: samples are
//!   loaded in ≥ 1 MB *packages* built by dynamic packaging, misses are
//!   served by *substitution* with an un-accessed cached L-sample
//!   (§III-C).
//! * [`IcacheManager`] — the cache manager that partitions capacity
//!   between the regions by observed access frequencies, pulls H-lists
//!   from clients, and serves Algorithm 1's `get_batch` path.
//! * [`MultiJobCoordinator`] — cache-benefit probing and aggregated
//!   importance values for concurrent jobs on one dataset (§III-D).
//! * [`service`] — the multi-node extension as a sharded,
//!   message-passing cache service (§III-E): [`CacheService`] nodes
//!   exchanging [`service::CacheRpc`] messages over a simulated
//!   interconnect, with heartbeat membership, rendezvous-hashed
//!   directory shards ([`DirectoryKv`]), repartitioning on churn, and
//!   warm restarts from per-node recovery indexes. The paper's client
//!   interfaces map onto it directly: `rpc_loader` is
//!   [`CacheSystem::fetch`] (on the wire, [`service::CacheRpc`]'s
//!   `FetchLocal`) and `update_ipersample` is
//!   [`CacheSystem::update_hlist`].
//! * [`concurrent`] — the lock-striped in-node cache
//!   ([`ConcurrentManager`]): one node serving many data-loader threads
//!   concurrently via striped resident maps, one H-heap under the
//!   admission lock, atomic counters, and an epoch write barrier that
//!   carries the H-list (DESIGN.md §8).
//! * [`prefetch`] — the clairvoyant prefetch pipeline
//!   ([`PrefetchPipeline`]): since IIS/CIS fix the epoch's access order
//!   in advance, a bounded lookahead window overlaps storage fetches
//!   with simulated compute so per-request latency becomes
//!   `max(compute, stall)` instead of `compute + fetch` (DESIGN.md
//!   §11).
//!
//! The crate is substrate-agnostic: all I/O timing flows through the
//! [`icache_storage::StorageBackend`] passed into each fetch, and every
//! cache system (including the baselines in `icache-baselines`)
//! implements the common [`CacheSystem`] trait.
//!
//! # Examples
//!
//! ```
//! use icache_core::{CacheSystem, IcacheConfig, IcacheManager};
//! use icache_sampling::{HList, ImportanceTable};
//! use icache_storage::{Pfs, PfsConfig, StorageBackend};
//! use icache_types::{ByteSize, Dataset, JobId, SampleId, SimTime};
//!
//! let dataset = Dataset::cifar10();
//! let mut cache = IcacheManager::new(IcacheConfig::for_dataset(&dataset, 0.2)?, &dataset)?;
//! let mut storage = Pfs::new(PfsConfig::orangefs_default())?;
//!
//! // Tell the cache which samples are important…
//! let mut table = ImportanceTable::new(dataset.len());
//! table.record_loss(SampleId(0), 9.0);
//! cache.update_hlist(JobId(0), &HList::top_fraction(&table, 0.1));
//!
//! // …and fetch through it.
//! let fetch = cache.fetch(JobId(0), SampleId(0), dataset.sample_size(SampleId(0)),
//!                         SimTime::ZERO, &mut storage);
//! assert!(fetch.ready_at > SimTime::ZERO);
//! # Ok::<(), icache_types::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod concurrent;
mod data;
pub mod dense;
mod hcache;
mod hheap;
mod lcache;
mod manager;
mod multijob;
pub mod prefetch;
pub mod service;
mod shadow;
mod stats;
mod system;
mod victim;

pub use concurrent::{
    AtomicCacheStats, ConcurrentCache, ConcurrentManager, FreshPool, MutexCache, StripedMap,
};
pub use data::SampleData;
pub use dense::{IdSet, IdSlab};
pub use hcache::{AdmitResult, HCache};
pub use hheap::HHeap;
pub use lcache::{LCache, LCacheConfig, LFetch, Package, PackageId, Packager};
pub use manager::{IcacheConfig, IcacheManager, Substitution};
pub use multijob::{BenefitProbe, JobBenefit, MultiJobCoordinator, ProbePhase};
pub use prefetch::{InflightWindow, IssueRecord, PlannedAccess, PrefetchPipeline, PrefetchReport};
pub use service::{
    CacheRpc, CacheRpcReply, CacheService, ChurnEvent, DirectoryChange, DirectoryKv,
    HeartbeatConfig, LinkConfig, NodeHandle, RecoveryIndex, RecoveryMode, RemoteFetchKind,
    ServiceConfig,
};
pub use shadow::ShadowedHeap;
pub use stats::CacheStats;
pub use system::{CacheSystem, Fetch, FetchOutcome};
pub use victim::{PmTierConfig, VictimCache};
