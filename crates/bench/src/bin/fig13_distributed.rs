//! Figure 13: multi-server distributed training on NFS.
//!
//! Paper setup: 2 and 4 cloud servers, one GPU each, per-node cache of
//! 20 % of the dataset, data on an NFS server (~10 Gb/s). Findings:
//! iCache speeds up ResNet18/ResNet50 by ≥8.6× (2 servers) and ≥7.6×
//! (4 servers); 4-server training is ~1.5× faster than 2-server; the
//! *relative* speedup shrinks with more servers because the joint cache
//! is already large.

use icache_baselines::LruCache;
use icache_bench::{banner, sweep, BenchEnv};
use icache_core::{CacheService, CacheSystem, ServiceConfig};
use icache_dnn::ModelProfile;
use icache_obs::json;
use icache_sim::{report, run_multi_job, JobConfig, PerJobCache, SamplingMode};
use icache_storage::{Nfs, NfsConfig};
use icache_types::{JobId, SimDuration};

fn job_configs(
    model: &ModelProfile,
    dataset: &icache_types::Dataset,
    nodes: u32,
    iis: bool,
    epochs: u32,
    seed: u64,
) -> Vec<JobConfig> {
    (0..nodes)
        .map(|k| {
            let mut c = JobConfig::new(JobId(k), model.clone(), dataset.clone());
            c.epochs = epochs;
            c.shard = Some((k, nodes));
            // All shards must plan the same epoch, so they share a seed.
            c.seed = seed;
            if iis {
                c.sampling = SamplingMode::Iis { fraction: 0.7 };
            }
            c
        })
        .collect()
}

fn slowest_epoch(metrics: &[icache_sim::RunMetrics]) -> f64 {
    metrics
        .iter()
        .map(|m| m.avg_epoch_time_steady())
        .fold(SimDuration::ZERO, SimDuration::max)
        .as_secs_f64()
}

fn main() {
    let env = BenchEnv::from_env();
    banner(
        "Figure 13 — distributed training on NFS (2 and 4 servers)",
        "iCache >> Default on NFS; 4-server faster than 2-server; relative speedup shrinks at 4S",
        &env,
    );

    let dataset = icache_types::Dataset::cifar10()
        .scaled(env.cifar_scale)
        .expect("scale in range");

    let mut table =
        report::Table::with_columns(&["model", "servers", "Default", "iCache", "speedup"]);
    let mut speedups: Vec<(u32, f64)> = Vec::new();

    // Each (model, cluster-size) point is an independent pair of
    // multi-job simulations; run the points on worker threads and render
    // in point order afterwards so the output matches the sequential
    // loop byte for byte.
    let points: Vec<(ModelProfile, u32)> = [ModelProfile::resnet18(), ModelProfile::resnet50()]
        .into_iter()
        .flat_map(|model| [2u32, 4].into_iter().map(move |n| (model.clone(), n)))
        .collect();
    let results = sweep::map(&points, sweep::default_workers(), |_idx, (model, nodes)| {
        let nodes = *nodes;
        // Default: one private LRU per node, no coordination.
        let mut default_cache = PerJobCache::new(
            (0..nodes)
                .map(|_| {
                    Box::new(LruCache::new(dataset.total_bytes().scaled(0.2)))
                        as Box<dyn CacheSystem>
                })
                .collect(),
        );
        let mut nfs = Nfs::new(NfsConfig::cloud_default()).expect("valid nfs");
        let default = run_multi_job(
            job_configs(model, &dataset, nodes, false, env.perf_epochs, env.seed),
            &mut default_cache,
            &mut nfs,
        )
        .expect("runs");

        // iCache: the distributed cache with a shared directory.
        let config =
            ServiceConfig::for_dataset(&dataset, nodes as usize, 0.2).expect("valid cluster");
        let mut icache_cache = CacheService::new(config, &dataset).expect("valid cluster");
        let mut nfs = Nfs::new(NfsConfig::cloud_default()).expect("valid nfs");
        let icache = run_multi_job(
            job_configs(model, &dataset, nodes, true, env.perf_epochs, env.seed),
            &mut icache_cache,
            &mut nfs,
        )
        .expect("runs");

        (
            slowest_epoch(&default),
            slowest_epoch(&icache),
            icache_cache.remote_hits(),
        )
    });

    for ((model, nodes), &(d, i, remote_hits)) in points.iter().zip(&results) {
        let nodes = *nodes;
        speedups.push((nodes, d / i));
        table.row(vec![
            model.name().to_string(),
            format!("{nodes}S"),
            report::secs(d),
            report::secs(i),
            report::speedup(d, i),
        ]);
        report::json_line(
            "fig13",
            &json!({"model": model.name(), "servers": nodes,
                    "default_seconds": d, "icache_seconds": i,
                    "remote_cache_hits": remote_hits}),
        );
    }

    println!("{}", table.render());
    println!();
    let s2: f64 = speedups
        .iter()
        .filter(|(n, _)| *n == 2)
        .map(|(_, s)| s)
        .sum::<f64>()
        / 2.0;
    let s4: f64 = speedups
        .iter()
        .filter(|(n, _)| *n == 4)
        .map(|(_, s)| s)
        .sum::<f64>()
        / 2.0;
    println!("mean speedup: 2S {s2:.2}x, 4S {s4:.2}x (paper: >=8.6x and >=7.6x; shape: 2S >= 4S)");
    println!("shape check: iCache much faster on NFS; speedup at 4 servers below 2 servers");
}
