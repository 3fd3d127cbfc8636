//! Shared by the observability test binaries: the run-wide registry
//! against the per-component ledgers.

use icache::core::CacheStats;
use icache::obs::decl::{Kind, METRICS};
use icache::obs::Obs;
use icache::storage::StorageStats;

/// Every `cache.*` counter with a [`CacheStats`] field equals that field
/// summed over `caches` (every component attached to `obs`), and every
/// `storage.*` counter with a [`StorageStats`] field equals `storage`.
pub fn assert_registry_matches_ledgers(obs: &Obs, caches: &[CacheStats], storage: StorageStats) {
    let sum = |field: fn(&CacheStats) -> u64| caches.iter().map(field).sum::<u64>();
    let ledger = [
        ("cache.h_hits", sum(|s| s.h_hits)),
        ("cache.l_hits", sum(|s| s.l_hits)),
        ("cache.pm_hits", sum(|s| s.pm_hits)),
        ("cache.substitutions", sum(|s| s.substitutions)),
        ("cache.misses", sum(|s| s.misses)),
        ("cache.insertions", sum(|s| s.insertions)),
        ("cache.evictions", sum(|s| s.evictions)),
        ("cache.rejections", sum(|s| s.rejections)),
        ("storage.sample_reads", storage.sample_reads),
        ("storage.sample_bytes", storage.sample_bytes.as_u64()),
        ("storage.package_reads", storage.package_reads),
        ("storage.package_bytes", storage.package_bytes.as_u64()),
    ];
    for (name, want) in ledger {
        assert_eq!(obs.counter(name), want, "`{name}` vs the component ledgers");
    }
    // Declared `cache.*` / `storage.*` counters without a ledger field:
    // a new one has to be added to the table above or to this list.
    let unledgered: Vec<&str> = METRICS
        .iter()
        .filter(|m| m.kind == Kind::Counter)
        .map(|m| m.name)
        .filter(|n| n.starts_with("cache.") || n.starts_with("storage."))
        .filter(|n| !ledger.iter().any(|(l, _)| l == n))
        .collect();
    assert_eq!(
        unledgered,
        [
            "cache.pm_spills",
            "cache.lock_contention",
            "storage.degraded_requests"
        ]
    );
}
