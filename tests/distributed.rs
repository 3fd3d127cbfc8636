//! Integration tests of the distributed cache (§III-E) driven through the
//! training simulator.

use icache::core::{CacheService, ServiceConfig};
use icache::dnn::ModelProfile;
use icache::sim::{run_multi_job, JobConfig, SamplingMode};
use icache::storage::{Nfs, NfsConfig, StorageBackend};
use icache::types::{Dataset, JobId};

fn shard_jobs(dataset: &Dataset, nodes: u32, epochs: u32) -> Vec<JobConfig> {
    (0..nodes)
        .map(|k| {
            let mut c = JobConfig::new(JobId(k), ModelProfile::resnet18(), dataset.clone());
            c.epochs = epochs;
            c.shard = Some((k, nodes));
            c.sampling = SamplingMode::Iis { fraction: 0.7 };
            c.seed = 7; // shards share the epoch plan
            c
        })
        .collect()
}

fn run_cluster(dataset: &Dataset, nodes: u32) -> (Vec<icache::sim::RunMetrics>, u64, u64) {
    let config = ServiceConfig::for_dataset(dataset, nodes as usize, 0.2).expect("cfg");
    let mut cluster = CacheService::new(config, dataset).expect("cluster");
    let mut nfs = Nfs::new(NfsConfig::cloud_default()).expect("nfs");
    let out = run_multi_job(shard_jobs(dataset, nodes, 3), &mut cluster, &mut nfs).expect("runs");
    (out, cluster.remote_hits(), nfs.stats().total_reads())
}

#[test]
fn shards_partition_each_epoch() {
    let dataset = Dataset::cifar10().scaled(0.04).expect("scale");
    let (out, _, _) = run_cluster(&dataset, 4);
    assert_eq!(out.len(), 4);
    let total: u64 = out.iter().map(|m| m.epochs[0].samples_fetched).sum();
    assert_eq!(
        total,
        dataset.len(),
        "warm-up epoch covers the dataset exactly once"
    );
}

#[test]
fn peer_cache_serves_cross_node_hits() {
    let dataset = Dataset::cifar10().scaled(0.04).expect("scale");
    let (_, remote_hits, _) = run_cluster(&dataset, 4);
    assert!(
        remote_hits > 0,
        "shuffled shards must generate peer-cache traffic"
    );
}

#[test]
fn more_nodes_mean_less_storage_traffic_per_epoch() {
    let dataset = Dataset::cifar10().scaled(0.04).expect("scale");
    let (_, _, reads2) = run_cluster(&dataset, 2);
    let (_, _, reads4) = run_cluster(&dataset, 4);
    // The 4-node joint cache holds twice as much: storage sees fewer reads.
    assert!(
        reads4 < reads2,
        "joint cache growth should cut storage reads: {reads4} vs {reads2}"
    );
}

#[test]
fn four_nodes_train_faster_than_two() {
    let dataset = Dataset::cifar10().scaled(0.04).expect("scale");
    let (out2, _, _) = run_cluster(&dataset, 2);
    let (out4, _, _) = run_cluster(&dataset, 4);
    let slowest = |out: &[icache::sim::RunMetrics]| {
        out.iter()
            .map(|m| m.avg_epoch_time_steady().as_secs_f64())
            .fold(0.0f64, f64::max)
    };
    assert!(
        slowest(&out4) < slowest(&out2),
        "4S {:.3}s should beat 2S {:.3}s",
        slowest(&out4),
        slowest(&out2)
    );
}
