//! Concurrent in-node cache: lock-striped structures serving many
//! loader threads from one cache node.
//!
//! The sequential [`crate::IcacheManager`] is the deterministic
//! reference implementation — single-threaded, byte-identical per seed,
//! and the only path tier-1 goldens exercise. This module adds the
//! production shape: one node fielding fetches from `N` data-loader
//! threads concurrently.
//!
//! Layout (DESIGN.md §8 "In-node concurrency"):
//!
//! * **Striped maps** ([`StripedMap`], [`FreshPool`]): resident
//!   membership and the substitution fresh-pool are split across
//!   `stripes` locks keyed by `SampleId` (stripe = `id & (stripes-1)`);
//!   ids are contiguous, so adjacent samples land on different stripes.
//! * **One H-heap under the admit lock**: Algorithm 1's
//!   evict-or-restore loop is serial, so the paper's single small-top
//!   heap ([`crate::HHeap`], lowest `(importance, id)` first) lives
//!   inside the mutex that serialises admissions.
//! * **Atomic counters** ([`AtomicCacheStats`]): hit/miss/substitution
//!   counting never serializes readers.
//! * **Epoch write barrier**: fetches hold a [`std::sync::RwLock`] read
//!   guard; epoch-boundary operations (rebalance, fresh-pool rebuild,
//!   H-list refresh) take the write guard and run stop-the-world. The
//!   lock's payload is the current H-list, read by every fetch.
//! * **`workers == 1` short-circuit**: drivers must route
//!   single-threaded runs through the sequential manager so golden
//!   outputs stay byte-identical; [`MutexCache`] exists to wrap any
//!   [`crate::CacheSystem`] (baselines) behind one coarse lock for
//!   multi-threaded comparison runs.

mod manager;
mod stats;
mod striped;

pub use manager::{ConcurrentCache, ConcurrentManager, MutexCache};
pub use stats::AtomicCacheStats;
pub use striped::{FreshPool, StripedMap};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Round a requested stripe count up to a power of two (≥ 1, capped at
/// 1024) so stripe selection is a mask instead of a division.
pub(crate) fn stripe_count(requested: usize) -> usize {
    requested.clamp(1, 1024).next_power_of_two()
}

/// Acquire `m`, counting the acquisition as contended when the lock was
/// not immediately free (feeds the `cache.lock_contention` counter).
pub(crate) fn lock_counted<'a, T>(m: &'a Mutex<T>, contention: &AtomicU64) -> MutexGuard<'a, T> {
    match m.try_lock() {
        Ok(guard) => guard,
        Err(_) => {
            contention.fetch_add(1, Ordering::Relaxed);
            m.lock()
                .expect("stripe lock poisoned: a holder panicked mid-update")
        }
    }
}
