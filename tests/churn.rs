//! Membership-churn invariants of the sharded cache service: a kill +
//! rejoin mid-run repartitions the directory (traced), loses no
//! training samples, and a warm restart refetches strictly less from
//! shared storage than a cold one. A property test drives arbitrary
//! kill/rejoin/fetch sequences through the public [`CacheService`] API
//! and checks the directory stays consistent throughout.

use icache::core::{CacheService, CacheSystem, RecoveryMode, ServiceConfig};
use icache::obs::Obs;
use icache::sim::{ChurnSpec, RunMetrics, Scenario, SystemKind};
use icache::storage::LocalTier;
use icache::types::{
    ByteSize, Dataset, DatasetBuilder, JobId, NodeId, SampleId, SimTime, SizeModel,
};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

const NODES: u32 = 3;

fn churn_scenario() -> Scenario {
    Scenario::cifar10(SystemKind::Icache)
        .scale_dataset(0.02)
        .expect("scale")
        .epochs(4)
        .batch_size(64)
        .seed(7)
}

fn run_churn(spec: &ChurnSpec) -> (Vec<RunMetrics>, CacheService, Obs) {
    let obs = Obs::new();
    let (runs, svc) = churn_scenario()
        .run_distributed_churn_with_obs(NODES, spec, &obs)
        .expect("churn run");
    (runs, svc, obs)
}

fn storage_fetch_total(obs: &Obs) -> u64 {
    (0..NODES)
        .map(|i| obs.counter(&format!("dist.node{i}.storage_fetches")))
        .sum()
}

/// Every directory entry names a live owner, no sample is mapped twice,
/// and the mapping size reconciles with the insert/remove counters.
fn assert_directory_consistent(svc: &CacheService, obs: &Obs) {
    let live: BTreeSet<NodeId> = svc.live_nodes().into_iter().collect();
    let mut seen = BTreeSet::new();
    for (sample, owner) in svc.directory_entries() {
        assert!(
            live.contains(&owner),
            "sample {sample:?} owned by non-live node {owner:?}"
        );
        assert!(seen.insert(sample), "sample {sample:?} mapped twice");
    }
    assert_eq!(
        svc.directory_len() as u64,
        obs.counter("dist.directory.inserts") - obs.counter("dist.directory.removes"),
        "directory size must reconcile with insert/remove counters"
    );
}

#[test]
fn kill_and_rejoin_repartitions_without_losing_samples() {
    let (runs, svc, obs) = run_churn(&ChurnSpec::kill_and_rejoin(1, 2));

    assert_eq!(obs.counter("svc.kills"), 1, "node 1 crashed once");
    assert_eq!(obs.counter("svc.rejoins"), 1, "node 1 came back");
    assert_eq!(
        svc.live_nodes().len(),
        NODES as usize,
        "full strength again"
    );
    assert!(
        obs.counter("svc.membership.downs") >= 1,
        "the failure detector must declare the crashed node down"
    );
    assert!(
        obs.counter("svc.repartition.moved") > 0,
        "membership change must move directory shards"
    );
    assert!(
        obs.counter("svc.repartition.purged") > 0,
        "the dead node's residency must be purged"
    );

    // Repartitions and recovery are first-class trace events.
    let events: HashMap<String, u64> = obs.trace_event_counts().into_iter().collect();
    assert!(
        events.get("partition_update").copied().unwrap_or(0) >= 2,
        "down + rejoin each repartition: {events:?}"
    );
    assert!(
        events.contains_key("directory_remap"),
        "shard moves must be traced: {events:?}"
    );
    assert!(
        events.contains_key("membership_change"),
        "suspicion transitions must be traced: {events:?}"
    );
    assert_eq!(
        events.get("warm_recovery").copied(),
        Some(1),
        "one warm restart: {events:?}"
    );

    // Zero lost samples: every rank fetched its full shard in every
    // epoch, exactly as a churn-free cluster does.
    let baseline = churn_scenario()
        .run_distributed_with_obs(NODES, &Obs::new())
        .expect("baseline run");
    for (churned, calm) in runs.iter().zip(&baseline) {
        assert_eq!(churned.epochs.len(), calm.epochs.len());
        for (a, b) in churned.epochs.iter().zip(&calm.epochs) {
            assert_eq!(
                a.samples_fetched, b.samples_fetched,
                "churn must not lose training samples"
            );
        }
    }

    // Rank k fetches through node k: across the kill and the rejoin
    // node 1's `dist.node1.*` counters are still the same three cells,
    // so every node's buckets cover exactly its rank's fetches.
    for (k, run) in runs.iter().enumerate() {
        let fetched: u64 = run.epochs.iter().map(|e| e.samples_fetched).sum();
        let classified: u64 = ["local_hits", "remote_hits", "storage_fetches"]
            .iter()
            .map(|bucket| obs.counter(&format!("dist.node{k}.{bucket}")))
            .sum();
        assert_eq!(
            classified, fetched,
            "node {k} lost or double-counted fetches"
        );
    }

    assert_directory_consistent(&svc, &obs);
}

#[test]
fn warm_restart_refetches_strictly_less_than_cold() {
    let (_, _, warm_obs) = run_churn(&ChurnSpec::kill_and_rejoin(1, 2));
    let mut cold_spec = ChurnSpec::kill_and_rejoin(1, 2);
    cold_spec.warm = false;
    let (_, _, cold_obs) = run_churn(&cold_spec);

    assert_eq!(warm_obs.counter("svc.recovery.warm_restarts"), 1);
    assert!(
        warm_obs.counter("svc.recovery.restored_samples") > 0,
        "the recovery index must restore residency"
    );
    assert!(
        warm_obs.counter("svc.recovery.index_writes") > 0,
        "nodes must snapshot residency at epoch ends"
    );
    assert_eq!(cold_obs.counter("svc.recovery.cold_restarts"), 1);
    assert_eq!(cold_obs.counter("svc.recovery.restored_samples"), 0);

    let warm = storage_fetch_total(&warm_obs);
    let cold = storage_fetch_total(&cold_obs);
    assert!(
        warm < cold,
        "a warm restart must refetch strictly fewer samples than cold \
         (warm {warm} vs cold {cold})"
    );
}

// ---- property: directory stays consistent under arbitrary churn ----

#[derive(Debug, Clone)]
enum Op {
    Fetch(u64),
    Kill(u32),
    Rejoin(u32, bool),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // ~3/4 fetches, 1/8 kills, 1/8 rejoins.
    (0u8..8, any::<u64>()).prop_map(|(sel, raw)| match sel {
        6 => Op::Kill((raw % NODES as u64) as u32),
        7 => Op::Rejoin((raw % NODES as u64) as u32, raw & 8 != 0),
        _ => Op::Fetch(raw),
    })
}

fn tiny_dataset() -> Dataset {
    DatasetBuilder::new("churn-prop", 256)
        .size_model(SizeModel::Fixed(ByteSize::kib(3)))
        .build()
        .expect("dataset")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any interleaving of fetches, kills, and rejoins (static
    /// membership: a kill repartitions immediately) keeps the directory
    /// consistent: `len == inserts − removes` and every sample owned by
    /// exactly one live node.
    #[test]
    fn directory_survives_any_churn_sequence(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let dataset = tiny_dataset();
        let mut cfg = ServiceConfig::for_dataset(&dataset, NODES as usize, 0.2).expect("cfg");
        cfg.recovery = RecoveryMode::Memory;
        let mut svc = CacheService::new(cfg, &dataset).expect("service");
        let obs = Obs::new();
        CacheSystem::set_obs(&mut svc, obs.clone());
        let mut storage = LocalTier::tmpfs();

        for (step, op) in ops.iter().enumerate() {
            let now = SimTime::from_nanos((step as u64 + 1) * 1_000_000);
            match *op {
                Op::Fetch(raw) => {
                    let id = SampleId(raw % dataset.len());
                    let job = JobId((raw % NODES as u64) as u32);
                    let size = dataset.sample_size(id);
                    svc.fetch(job, id, size, now, &mut storage);
                }
                Op::Kill(n) => {
                    // Never fell the last node: an empty live set has no
                    // shard owners to repartition onto.
                    if svc.live_nodes().len() > 1 {
                        svc.kill_node(NodeId(n), now);
                    }
                }
                Op::Rejoin(n, warm) => {
                    svc.rejoin_node(NodeId(n), now, warm).expect("rejoin");
                }
            }
            assert_directory_consistent(&svc, &obs);
        }
    }
}
