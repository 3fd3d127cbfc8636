//! Trace analysis: record every cache decision of a training run with
//! [`icache::sim::TracingCache`], then analyse the trace — outcome mix,
//! reuse distances, substitution behaviour — and replay it against an
//! alternative policy.
//!
//! ```sh
//! cargo run --release --example trace_analysis
//! ```

use icache::baselines::LruCache;
use icache::core::{CacheSystem, IcacheConfig, IcacheManager};
use icache::dnn::ModelProfile;
use icache::sim::replay::{replay, summarize, Trace};
use icache::sim::{run_single_job, JobConfig, SamplingMode, TracingCache};
use icache::storage::{Pfs, PfsConfig};
use icache::types::{Dataset, JobId, SimDuration};
use std::collections::HashMap;

fn main() -> Result<(), icache::types::Error> {
    let dataset = Dataset::cifar10().scaled(0.05)?;

    // 1. Train ShuffleNet behind iCache with tracing on.
    let mut cfg = JobConfig::new(JobId(0), ModelProfile::shufflenet(), dataset.clone());
    cfg.epochs = 3;
    cfg.sampling = SamplingMode::Iis { fraction: 0.7 };
    let manager = IcacheManager::new(IcacheConfig::for_dataset(&dataset, 0.2)?, &dataset)?;
    let mut traced = TracingCache::new(manager, 200_000);
    let mut storage = Pfs::new(PfsConfig::orangefs_default())?;
    let metrics = run_single_job(cfg, &mut traced, &mut storage)?;

    println!(
        "recorded {} fetch events over {} epochs (truncated: {})\n",
        traced.events().len(),
        metrics.epochs.len(),
        traced.is_truncated()
    );

    // 2. Outcome mix.
    println!("outcome mix:");
    let counts = traced.kind_counts();
    let total: u64 = counts.values().sum();
    let mut kinds: Vec<_> = counts.iter().collect();
    kinds.sort_by_key(|(_, &c)| std::cmp::Reverse(c));
    for (kind, &count) in kinds {
        println!(
            "  {kind:5} {count:>7}  ({:.1}%)",
            count as f64 / total as f64 * 100.0
        );
    }

    // 3. Reuse distances: how many other fetches separate two accesses to
    // the same sample? (Large distances are why LRU fails here, §II-C.)
    let mut last_seen: HashMap<u64, usize> = HashMap::new();
    let mut distances: Vec<usize> = Vec::new();
    for (i, e) in traced.events().iter().enumerate() {
        if let Some(prev) = last_seen.insert(e.requested.0, i) {
            distances.push(i - prev);
        }
    }
    distances.sort_unstable();
    if !distances.is_empty() {
        let pick = |q: f64| distances[((distances.len() - 1) as f64 * q) as usize];
        println!("\nreuse distances (fetches between re-accesses of one sample):");
        println!(
            "  p10 {:>7}   p50 {:>7}   p90 {:>7}",
            pick(0.1),
            pick(0.5),
            pick(0.9)
        );
        println!(
            "  cache holds ~{} samples -> distances far above that defeat recency-based caching",
            (dataset.len() as f64 * 0.2) as u64
        );
    }

    // 4. Substitution behaviour: requested vs served.
    let subs: Vec<_> = traced
        .events()
        .iter()
        .filter(|e| e.kind() == "sub")
        .take(5)
        .map(|e| format!("{} -> {}", e.requested, e.served))
        .collect();
    println!(
        "\nfirst substitutions (requested -> served): {}",
        subs.join(", ")
    );

    // 5. Replay the same request stream against a plain LRU for contrast.
    let trace = Trace::parse_jsonl(&traced.to_jsonl())?;
    let mut lru = LruCache::new(dataset.total_bytes().scaled(0.2));
    let mut storage = Pfs::new(PfsConfig::orangefs_default())?;
    // Depth 0, zero compute: the classic back-to-back replay.
    let obs = icache::obs::Obs::noop();
    let rep = replay(
        &trace,
        &dataset,
        &mut lru,
        &mut storage,
        0,
        SimDuration::ZERO,
        obs,
    );
    println!(
        "\nsame request stream through a plain LRU: {}",
        summarize(&rep)
    );
    println!(
        "iCache hit ratio on the live run: {:.1}%",
        traced.stats().hit_ratio() * 100.0
    );
    Ok(())
}
