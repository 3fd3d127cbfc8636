//! Observability invariants of the distributed cache (§III-E): every
//! fetch lands in exactly one per-node counter bucket, the registry
//! agrees with the cluster's own accounting, and the directory's
//! insert/remove counters reconcile with its final size.

mod common;

use icache::core::{CacheService, ServiceConfig};
use icache::dnn::ModelProfile;
use icache::obs::Obs;
use icache::sim::{run_multi_job_with_obs, JobConfig, RunMetrics, SamplingMode};
use icache::storage::{Nfs, NfsConfig, StorageBackend, StorageStats};
use icache::types::{Dataset, JobId};

const EPOCHS: u32 = 3;

fn shard_jobs(dataset: &Dataset, nodes: u32) -> Vec<JobConfig> {
    (0..nodes)
        .map(|k| {
            let mut c = JobConfig::new(JobId(k), ModelProfile::resnet18(), dataset.clone());
            c.epochs = EPOCHS;
            c.shard = Some((k, nodes));
            c.sampling = SamplingMode::Iis { fraction: 0.7 };
            c.seed = 7; // shards share the epoch plan
            c
        })
        .collect()
}

fn run_cluster(nodes: u32) -> (Vec<RunMetrics>, CacheService, Obs, StorageStats) {
    let dataset = Dataset::cifar10().scaled(0.04).expect("scale");
    let config = ServiceConfig::for_dataset(&dataset, nodes as usize, 0.2).expect("cfg");
    let mut cluster = CacheService::new(config, &dataset).expect("cluster");
    let mut nfs = Nfs::new(NfsConfig::cloud_default()).expect("nfs");
    let obs = Obs::new();
    let runs = run_multi_job_with_obs(shard_jobs(&dataset, nodes), &mut cluster, &mut nfs, &obs)
        .expect("runs");
    (runs, cluster, obs, nfs.stats())
}

fn node_counter(obs: &Obs, node: usize, suffix: &str) -> u64 {
    obs.counter(&format!("dist.node{node}.{suffix}"))
}

#[test]
fn per_node_classification_covers_every_fetch() {
    let (runs, cluster, obs, _) = run_cluster(4);
    let fetched: u64 = runs
        .iter()
        .flat_map(|m| m.epochs.iter().map(|e| e.samples_fetched))
        .sum();
    let classified: u64 = (0..cluster.node_count())
        .map(|i| {
            node_counter(&obs, i, "local_hits")
                + node_counter(&obs, i, "remote_hits")
                + node_counter(&obs, i, "storage_fetches")
        })
        .sum();
    assert_eq!(
        classified, fetched,
        "each fetch must land in exactly one per-node bucket"
    );
    for i in 0..cluster.node_count() {
        assert!(
            node_counter(&obs, i, "storage_fetches") > 0,
            "node {i} never cold-fetched — shards not exercising the cluster"
        );
    }
}

#[test]
fn registry_remote_hits_match_the_cluster_accounting() {
    let (_, cluster, obs, _) = run_cluster(4);
    assert!(cluster.remote_hits() > 0, "no peer traffic to check");
    assert_eq!(obs.counter("dist.remote_hits"), cluster.remote_hits());
    let per_node: u64 = (0..cluster.node_count())
        .map(|i| node_counter(&obs, i, "remote_hits"))
        .sum();
    assert_eq!(per_node, cluster.remote_hits());
    let remote_hit_events = obs
        .trace_event_counts()
        .into_iter()
        .find(|(name, _)| name == "remote_hit")
        .map(|(_, n)| n)
        .unwrap_or(0);
    assert_eq!(
        remote_hit_events,
        cluster.remote_hits(),
        "every remote hit is traced exactly once"
    );
}

#[test]
fn directory_len_reconciles_with_insert_and_remove_counters() {
    let (_, cluster, obs, _) = run_cluster(2);
    let inserts = obs.counter("dist.directory.inserts");
    let removes = obs.counter("dist.directory.removes");
    assert!(inserts > 0, "a training run must populate the directory");
    assert_eq!(
        cluster.directory_len() as u64,
        inserts - removes,
        "fresh inserts minus successful removes must equal the mapping size"
    );
    assert!(
        obs.counter("dist.directory.lookups") > 0,
        "fetch classification consults the directory"
    );
}

#[test]
fn cluster_runs_publish_gauges_and_epoch_markers() {
    let (_, cluster, obs, _) = run_cluster(2);
    assert_eq!(obs.gauge("dist.nodes"), Some(cluster.node_count() as f64));
    assert!(
        obs.gauge("cache.h_capacity").is_some_and(|v| v > 0.0),
        "managers must publish H-region capacity"
    );
    assert!(
        obs.gauge("cache.l_capacity").is_some_and(|v| v > 0.0),
        "managers must publish L-region capacity"
    );
    let counts: std::collections::HashMap<String, u64> =
        obs.trace_event_counts().into_iter().collect();
    // Rank 0 alone marks epochs, so one pair per epoch — not per shard.
    assert_eq!(counts.get("epoch_start"), Some(&(EPOCHS as u64)));
    assert_eq!(counts.get("epoch_end"), Some(&(EPOCHS as u64)));
}

/// One `Obs` is shared by every node, so a `cache.*` counter is the sum
/// of the nodes' own `CacheStats` — the `icache_sim --nodes 3` shape.
#[test]
fn run_wide_cache_counters_are_the_sum_of_the_nodes_own_stats() {
    let (_, cluster, obs, storage) = run_cluster(3);
    let per_node: Vec<_> = (0..cluster.node_count())
        .map(|i| cluster.node(i).stats())
        .collect();
    assert!(per_node.iter().all(|s| s.requests() > 0));
    common::assert_registry_matches_ledgers(&obs, &per_node, storage);
}
