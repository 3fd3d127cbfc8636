//! Multi-node experiments on the sharded cache service: Figure 13
//! (§V-E) and the churn study, Figure 17.

use super::{lo, Report};
use crate::{sweep, BenchEnv};
use icache_baselines::LruCache;
use icache_core::{CacheService, CacheSystem, ServiceConfig};
use icache_dnn::ModelProfile;
use icache_obs::{json, Obs};
use icache_sim::{
    report, run_multi_job, ChurnSpec, JobConfig, PerJobCache, RunMetrics, SamplingMode, SystemKind,
};
use icache_storage::{Nfs, NfsConfig};
use icache_types::{Dataset, JobId, SimDuration};

fn job_configs(
    model: &ModelProfile,
    dataset: &Dataset,
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

fn slowest_epoch(metrics: &[RunMetrics]) -> f64 {
    metrics
        .iter()
        .map(|m| m.avg_epoch_time_steady())
        .fold(SimDuration::ZERO, SimDuration::max)
        .as_secs_f64()
}

/// Figure 13: multi-server distributed training on NFS.
///
/// Paper setup: 2 and 4 cloud servers, one GPU each, per-node cache of
/// 20 % of the dataset, data on an NFS server (~10 Gb/s). Findings:
/// iCache speeds up ResNet18/ResNet50 by ≥8.6× (2 servers) and ≥7.6×
/// (4 servers); 4-server training is ~1.5× faster than 2-server; the
/// *relative* speedup shrinks with more servers because the joint cache
/// is already large.
pub(super) fn fig13_distributed(env: &BenchEnv, r: &mut Report) {
    let dataset = env.cifar_dataset();

    let mut table =
        report::Table::with_columns(&["model", "servers", "Default", "iCache", "speedup"]);

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
        let nfs = || Nfs::new(NfsConfig::cloud_default()).expect("the cloud NFS preset is valid");
        let default = run_multi_job(
            job_configs(model, &dataset, nodes, false, env.perf_epochs, env.seed),
            &mut default_cache,
            &mut nfs(),
        )
        .expect("sharded Default jobs run over per-node LRUs");

        // iCache: the distributed cache with a shared directory.
        let config = ServiceConfig::for_dataset(&dataset, nodes as usize, 0.2)
            .expect("2 and 4 nodes at 20% cache are a valid cluster");
        let mut icache_cache =
            CacheService::new(config, &dataset).expect("a valid config builds the service");
        let icache = run_multi_job(
            job_configs(model, &dataset, nodes, true, env.perf_epochs, env.seed),
            &mut icache_cache,
            &mut nfs(),
        )
        .expect("sharded IIS jobs run over the cache service");

        (
            slowest_epoch(&default),
            slowest_epoch(&icache),
            icache_cache.remote_hits(),
        )
    });

    for ((model, nodes), &(d, i, remote_hits)) in points.iter().zip(&results) {
        table.row(vec![
            model.name().to_string(),
            format!("{nodes}S"),
            report::secs(d),
            report::secs(i),
            report::speedup(d, i),
        ]);
        r.json(
            "fig13",
            &json!({"model": model.name(), "servers": *nodes,
                    "default_seconds": d, "icache_seconds": i,
                    "remote_cache_hits": remote_hits}),
        );
    }

    r.table(&table);
    let mean_speedup = |servers: u32| {
        let at: Vec<f64> = points
            .iter()
            .zip(&results)
            .filter(|((_, nodes), _)| *nodes == servers)
            .map(|(_, &(d, i, _))| d / i)
            .collect();
        at.iter().sum::<f64>() / at.len() as f64
    };
    let (s2, s4) = (mean_speedup(2), mean_speedup(4));
    r.line(format_args!(
        "mean speedup: 2S {s2:.2}x, 4S {s4:.2}x (paper: >=8.6x and >=7.6x; shape: 2S >= 4S)"
    ));
    let smallest = lo(results.iter().map(|&(d, i, _)| d / i));
    r.check(
        "iCache at least 2x faster than Default on NFS at every point",
        smallest >= 2.0,
        format_args!("smallest speedup {smallest:.2}x"),
    );
    r.check(
        "iCache trains faster on 4 servers than on 2, for both models",
        // Points come in (2S, 4S) pairs per model.
        results.chunks(2).all(|pair| pair[1].1 < pair[0].1),
        format_args!(
            "ResNet18 {} -> {}",
            report::secs(results[0].1),
            report::secs(results[1].1)
        ),
    );
    r.check(
        "mean speedup at 2 servers at least the mean speedup at 4 servers",
        s2 >= s4,
        format_args!("{s2:.2}x vs {s4:.2}x"),
    );
}

const NODES: u32 = 3;
const KILLED: u32 = 1;

fn storage_fetches(obs: &Obs) -> u64 {
    (0..NODES)
        .map(|i| obs.counter(&format!("dist.node{i}.storage_fetches")))
        .sum()
}

fn fetched_per_epoch(runs: &[RunMetrics]) -> Vec<u64> {
    let epochs = runs[0].epochs.len();
    (0..epochs)
        .map(|e| runs.iter().map(|m| m.epochs[e].samples_fetched).sum())
        .collect()
}

/// Figure 17 (churn study): node failure and warm recovery in the
/// sharded cache service.
///
/// Setup: 3 cache nodes training data-parallel on OrangeFS, per-node
/// cache of 20 % of the dataset. Midway through the middle epoch node 1
/// crashes; the heartbeat detector declares it down, the directory
/// repartitions onto the survivors, and at the next epoch start the
/// node rejoins — either **cold** (empty cache) or **warm** (replaying
/// its recovery index from local disk). Findings: churn loses zero
/// training samples (every rank fetches its full shard every epoch),
/// and a warm restart refetches strictly fewer samples from shared
/// storage than a cold one, so the kill-epoch slowdown is smaller.
pub(super) fn fig17_churn(env: &BenchEnv, r: &mut Report) {
    let epochs = env.perf_epochs.max(4);
    let kill_epoch = epochs / 2;
    let scenario = || env.cifar(SystemKind::Icache).epochs(epochs).batch_size(64);

    // Calm baseline: same cluster, nobody dies.
    let calm_obs = Obs::new();
    let calm = scenario()
        .run_distributed_with_obs(NODES, &calm_obs)
        .expect("a calm 3-node run is a valid scenario");

    let run_churn = |warm: bool| {
        let mut spec = ChurnSpec::kill_and_rejoin(KILLED, kill_epoch);
        spec.warm = warm;
        let obs = Obs::new();
        let (runs, svc) = scenario()
            .run_distributed_churn_with_obs(NODES, &spec, &obs)
            .expect("killing node 1 of 3 mid-run is a valid churn spec");
        assert_eq!(
            svc.live_nodes().len(),
            NODES as usize,
            "the killed node must be back"
        );
        (runs, obs)
    };
    let (cold, cold_obs) = run_churn(false);
    let (warm, warm_obs) = run_churn(true);

    let mut table = report::Table::with_columns(&[
        "variant",
        "kill-epoch wall",
        "steady wall",
        "storage fetches",
        "restored",
    ]);
    let variants: [(&str, &[RunMetrics], &Obs); 3] = [
        ("calm", &calm, &calm_obs),
        ("cold rejoin", &cold, &cold_obs),
        ("warm rejoin", &warm, &warm_obs),
    ];
    for (name, runs, obs) in variants {
        let kill_wall = runs[0].epochs[kill_epoch as usize].wall_time;
        table.row(vec![
            name.to_string(),
            format!("{kill_wall}"),
            report::secs(runs[0].avg_epoch_time_steady().as_secs_f64()),
            storage_fetches(obs).to_string(),
            obs.counter("svc.recovery.restored_samples").to_string(),
        ]);
        r.json(
            "fig17",
            &json!({"variant": name,
                    "kill_epoch": kill_epoch,
                    "storage_fetches": storage_fetches(obs),
                    "restored_samples": obs.counter("svc.recovery.restored_samples"),
                    "repartition_moved": obs.counter("svc.repartition.moved"),
                    "repartition_purged": obs.counter("svc.repartition.purged"),
                    "fetched_per_epoch": fetched_per_epoch(runs)}),
        );
    }
    r.table(&table);

    let calm_fetched = fetched_per_epoch(&calm);
    let short_epochs = [&cold, &warm]
        .iter()
        .flat_map(|runs| fetched_per_epoch(runs).into_iter().zip(&calm_fetched))
        .filter(|(churned, calm)| churned != *calm)
        .count();
    let (cold_fetches, warm_fetches) = (storage_fetches(&cold_obs), storage_fetches(&warm_obs));
    let saved = cold_fetches as i64 - warm_fetches as i64;
    r.line(format_args!(
        "samples lost to churn: {}   warm saves {saved} storage fetches over cold",
        if short_epochs == 0 { "zero" } else { "SOME" }
    ));
    r.check(
        "churn loses zero training samples",
        short_epochs == 0,
        format_args!("{short_epochs} epochs fetched a different count than the calm run"),
    );
    r.check(
        "warm restart refetches strictly fewer samples than cold",
        saved > 0,
        format_args!("{warm_fetches} vs {cold_fetches} storage fetches"),
    );
}
