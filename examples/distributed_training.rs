//! Distributed data-parallel training across four nodes with the
//! distributed iCache (§III-E): per-node caches, a shared directory
//! key-value store, and peer-to-peer cache reads over the interconnect.
//!
//! ```sh
//! cargo run --release --example distributed_training
//! ```

use icache::core::{CacheService, CacheSystem, ServiceConfig};
use icache::dnn::ModelProfile;
use icache::sim::{run_multi_job, JobConfig, SamplingMode};
use icache::storage::{Nfs, NfsConfig, StorageBackend};
use icache::types::{Dataset, JobId};

fn main() -> Result<(), icache::types::Error> {
    const NODES: u32 = 4;
    let dataset = Dataset::cifar10().scaled(0.1)?;

    // One worker per node, each training a disjoint shard of every epoch
    // (PyTorch DistributedSampler semantics).
    let configs: Vec<JobConfig> = (0..NODES)
        .map(|k| {
            let mut c = JobConfig::new(JobId(k), ModelProfile::resnet18(), dataset.clone());
            c.epochs = 4;
            c.shard = Some((k, NODES));
            c.sampling = SamplingMode::Iis { fraction: 0.7 };
            c.seed = 1234; // shards share one plan, hence one seed
            c
        })
        .collect();

    let config = ServiceConfig::for_dataset(&dataset, NODES as usize, 0.2)?;
    let mut cluster = CacheService::new(config, &dataset)?;
    let mut nfs = Nfs::new(NfsConfig::cloud_default())?;

    println!("{NODES}-node data-parallel ResNet18 on CIFAR-10 over NFS...\n");
    let out = run_multi_job(configs, &mut cluster, &mut nfs)?;

    for (k, m) in out.iter().enumerate() {
        println!(
            "node{k}: epoch {:>9}  samples/epoch {:>5}  stall {:>9}",
            format!("{}", m.avg_epoch_time_steady()),
            m.epochs[1].samples_fetched,
            format!("{}", m.avg_stall_time_steady()),
        );
    }

    println!();
    println!("cluster capacity: {}", cluster.capacity());
    println!("directory entries: {}", cluster.directory_len());
    println!("peer-cache hits:   {}", cluster.remote_hits());
    println!("storage reads:     {}", nfs.stats().total_reads());
    println!();
    println!(
        "The directory guarantees no sample is cached twice; a miss on one node is \
         served by a peer's cache before falling back to NFS (paper Fig. 13)."
    );
    Ok(())
}
