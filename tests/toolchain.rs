//! Integration tests of the tooling layer: tracing, replay, PM tier, and
//! criterion extensions working together — the workflows a downstream
//! user composes from the public API.

use icache::core::{CacheSystem, IcacheConfig, IcacheManager, PmTierConfig};
use icache::dnn::ModelProfile;
use icache::sampling::ImportanceCriterion;
use icache::sim::replay::{replay, AccessPattern, ReplayReport, Trace};
use icache::sim::{run_single_job, JobConfig, SamplingMode, Scenario, SystemKind, TracingCache};
use icache::storage::{LocalTier, Pfs, PfsConfig};
use icache::types::{Dataset, JobId, SimDuration};

/// The classic replay: demand fetches, no compute.
fn back_to_back(trace: &Trace, dataset: &Dataset, cache: &mut dyn CacheSystem) -> ReplayReport {
    let mut tmpfs = LocalTier::tmpfs();
    let obs = icache::obs::Obs::noop();
    replay(trace, dataset, cache, &mut tmpfs, 0, SimDuration::ZERO, obs)
}

#[test]
fn record_with_tracing_then_replay_reproduces_the_request_stream() {
    let dataset = Dataset::cifar10().scaled(0.02).expect("scale");
    let mut cfg = JobConfig::new(JobId(0), ModelProfile::shufflenet(), dataset.clone());
    cfg.epochs = 2;
    cfg.sampling = SamplingMode::Iis { fraction: 0.7 };

    let manager = IcacheManager::new(
        IcacheConfig::for_dataset(&dataset, 0.2).expect("cfg"),
        &dataset,
    )
    .expect("manager");
    let mut traced = TracingCache::new(manager, 100_000);
    let mut storage = Pfs::new(PfsConfig::orangefs_default()).expect("pfs");
    let metrics = run_single_job(cfg, &mut traced, &mut storage).expect("runs");

    // Every fetch of the run is in the trace.
    let fetched: u64 = metrics.epochs.iter().map(|e| e.samples_fetched).sum();
    assert_eq!(traced.events().len() as u64, fetched);

    // The JSONL round-trips and replays through a different policy.
    let trace = Trace::parse_jsonl(&traced.to_jsonl()).expect("parse");
    assert_eq!(trace.len() as u64, fetched);
    let mut lru = icache::baselines::LruCache::new(dataset.total_bytes().scaled(0.2));
    let report = back_to_back(&trace, &dataset, &mut lru);
    assert_eq!(report.stats.requests(), fetched);
    assert_eq!(report.latency.count(), fetched);
}

#[test]
fn pm_tier_improves_a_small_dram_cache_end_to_end() {
    let base = Scenario::cifar10(SystemKind::Icache)
        .scale_dataset(0.05)
        .expect("scale")
        .cache_fraction(0.05)
        .epochs(4);
    let without = base.clone().run().expect("runs");

    // Same scenario, but the cache gets an Optane victim tier.
    let dataset = base.dataset_ref().clone();
    let mut cfg = IcacheConfig::for_dataset(&dataset, 0.05).expect("cfg");
    cfg.pm_tier = Some(PmTierConfig::optane(dataset.total_bytes().scaled(0.3)));
    let mut cache = IcacheManager::new(cfg, &dataset).expect("manager");
    let mut storage = Pfs::new(PfsConfig::orangefs_default()).expect("pfs");
    let with = run_single_job(base.job_config(JobId(0)), &mut cache, &mut storage).expect("runs");

    let pm_hits: u64 = with.epochs.iter().map(|e| e.cache.pm_hits).sum();
    assert!(pm_hits > 0, "the tier must serve hits");
    assert!(
        with.avg_epoch_time_steady() <= without.avg_epoch_time_steady(),
        "PM tier must not slow training: {} vs {}",
        with.avg_epoch_time_steady(),
        without.avg_epoch_time_steady()
    );
}

#[test]
fn criterion_swap_changes_selection_but_preserves_speedup() {
    let run = |criterion| {
        Scenario::cifar10(SystemKind::Icache)
            .scale_dataset(0.05)
            .expect("scale")
            .criterion(criterion)
            .epochs(4)
            .run()
            .expect("runs")
    };
    let loss = run(ImportanceCriterion::Loss);
    let grad = run(ImportanceCriterion::GradNorm);
    // Different criteria pick different samples…
    assert_ne!(loss, grad);
    // …but the I/O benefit is criterion-agnostic (within 25 %).
    let ratio = loss
        .avg_epoch_time_steady()
        .ratio(grad.avg_epoch_time_steady());
    assert!((0.8..1.25).contains(&ratio), "epoch-time ratio {ratio:.2}");
}

#[test]
fn zipf_replay_ranks_policies_sanely() {
    let dataset = icache::types::DatasetBuilder::new("zipf", 5_000)
        .size_model(icache::types::SizeModel::Fixed(
            icache::types::ByteSize::kib(3),
        ))
        .build()
        .expect("dataset");
    let trace = AccessPattern::Zipf { s: 1.1 }
        .generate(5_000, 20_000, JobId(0), 3)
        .expect("trace");
    let cap = dataset.total_bytes().scaled(0.1);

    let mut lru = icache::baselines::LruCache::new(cap);
    let lru_rep = back_to_back(&trace, &dataset, &mut lru);

    let mut lfu = icache::baselines::IlfuCache::new(cap);
    let lfu_rep = back_to_back(&trace, &dataset, &mut lfu);

    // Zipf favours frequency-aware policies.
    assert!(lru_rep.hit_ratio() > 0.4);
    assert!(lfu_rep.hit_ratio() >= lru_rep.hit_ratio() - 0.05);
}
