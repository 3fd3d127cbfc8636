//! `icache_sim` — run any single-job scenario from the command line.
//!
//! ```sh
//! cargo run --release -p icache-bench --bin icache_sim -- \
//!     --system icache --model shufflenet --dataset cifar10 \
//!     --scale 0.1 --epochs 5 --cache 0.2 --storage orangefs
//! ```
//!
//! `icache_sim --help` prints the flag table (every flag is optional).
//! The churn flags (`--kill-node`, `--rejoin`, `--cold`, `--race`,
//! `--net-latency`, `--recovery-dir`) all require `--nodes N` with
//! N ≥ 2; any of them enables the [`icache_core::CacheService`]'s
//! heartbeat failure detector and repartitioning directory.
//!
//! `--trace` and `--json` output is deterministic: the same configuration
//! and seed produce byte-identical files.
//!
//! With `--nodes N` (N ≥ 2) the trace carries rank-0 `epoch_start` /
//! `epoch_end` markers and the JSON summary gains a `"nodes"` array with
//! each rank's `local_hits` / `remote_hits` / `storage_fetches` counters.
//! Churn runs additionally print a `churn:` summary line (kills, rejoins,
//! repartition moves, recovery counters) and carry `svc.*` counters plus
//! `membership_change` / `partition_update` / `warm_recovery` events in
//! the JSON and trace outputs.

use icache_bench::cli::{Args, Flag, Spec};
use icache_dnn::ModelProfile;
use icache_sampling::ImportanceCriterion;
use icache_sim::{report, ChurnSpec, Scenario, StorageKind, SystemKind};
use icache_types::{Epoch, SimDuration};
use std::process::ExitCode;

const SPEC: Spec = Spec {
    program: "icache_sim",
    about: "run any single-job scenario from the command line",
    flags: &[
        Flag::required(
            "system",
            "default, base, iis-lru, quiver, coordl, ilfu, icache-nol, icache, \
             icache-nosub, icache-subh or oracle (default icache)",
        ),
        Flag::required(
            "model",
            "any of the paper's eight model names (default shufflenet)",
        ),
        Flag::required("dataset", "cifar10 or imagenet (default cifar10)"),
        Flag::required("storage", "orangefs, nfs, tmpfs or ssd (default orangefs)"),
        Flag::required("criterion", "loss, gradnorm or staleness (default loss)"),
        Flag::required("scale", "dataset fraction in (0, 1] (default 0.1)"),
        Flag::required("cache", "cache fraction of the dataset (default 0.2)"),
        Flag::required("epochs", "epochs to run (default 5)"),
        Flag::required("batch", "mini-batch size (default 256)"),
        Flag::required("workers", "data-loader workers (default 6)"),
        Flag::required("gpus", "data-parallel GPUs (default 1)"),
        Flag::required(
            "prefetch-depth",
            "clairvoyant prefetch lookahead, 0 = no pipeline (default 0)",
        ),
        Flag::required(
            "nodes",
            "cluster nodes; >= 2 runs one sharded job per node on the distributed \
             iCache and requires --system icache (default 1)",
        ),
        Flag::required("seed", "run seed, decimal or 0x-hex (default 0x5EED)"),
        Flag::required(
            "json",
            "write the run summary (epoch metrics, counters, histograms) to this path",
        ),
        Flag::required(
            "trace",
            "write the structured event trace (JSONL) to this path",
        ),
        Flag::required("csv", "also write per-epoch metrics to this CSV path"),
        Flag::required("kill-node", "i@e: crash node i midway through epoch e"),
        Flag::switch(
            "rejoin",
            "bring the killed node back at the start of epoch e+1",
        ),
        Flag::switch(
            "cold",
            "rejoin with an empty cache, not from the recovery index",
        ),
        Flag::switch(
            "race",
            "race remote cache reads against a hedged storage fetch",
        ),
        Flag::required(
            "net-latency",
            "per-link latency override in microseconds, both planes",
        ),
        Flag::required(
            "recovery-dir",
            "write node<i>.recovery index files under this directory",
        ),
    ],
};

/// The churn spec implied by the churn flag group, or `None` when no
/// churn flag was given (plain runs keep static membership, and with it
/// their byte-identical output).
fn churn_of(args: &Args) -> Result<Option<ChurnSpec>, String> {
    const CHURN_FLAGS: &[&str] = &[
        "kill-node",
        "rejoin",
        "cold",
        "race",
        "net-latency",
        "recovery-dir",
    ];
    if !CHURN_FLAGS.iter().any(|k| args.has(k)) {
        return Ok(None);
    }
    let mut spec = ChurnSpec::default();
    if let Some(raw) = args.get("kill-node") {
        let (node, epoch) = raw
            .split_once('@')
            .ok_or_else(|| format!("--kill-node: expected `node@epoch`, got `{raw}`"))?;
        let node = node
            .parse::<u32>()
            .map_err(|e| format!("--kill-node node: {e}"))?;
        let epoch = epoch
            .parse::<u32>()
            .map_err(|e| format!("--kill-node epoch: {e}"))?;
        spec.kill = Some((node, Epoch(epoch)));
    }
    spec.rejoin = args.has("rejoin");
    spec.warm = !args.has("cold");
    spec.race = args.has("race");
    if spec.rejoin && spec.kill.is_none() {
        return Err("--rejoin needs --kill-node i@e (nothing to rejoin)".into());
    }
    if args.has("net-latency") {
        spec.net_latency = Some(SimDuration::from_micros(args.parsed("net-latency", 0)?));
    }
    if let Some(dir) = args.get("recovery-dir") {
        spec.recovery_dir = Some(std::path::PathBuf::from(dir));
    }
    Ok(Some(spec))
}

fn system_of(name: &str) -> Result<SystemKind, String> {
    Ok(match name {
        "default" => SystemKind::Default,
        "base" => SystemKind::Base,
        "iis-lru" => SystemKind::IisLru,
        "quiver" => SystemKind::Quiver,
        "coordl" => SystemKind::CoorDl,
        "ilfu" => SystemKind::Ilfu,
        "icache-nol" => SystemKind::IcacheNoL,
        "icache" => SystemKind::Icache,
        "icache-nosub" => SystemKind::IcacheNoSub,
        "icache-subh" => SystemKind::IcacheSubH,
        "oracle" => SystemKind::Oracle,
        other => return Err(format!("unknown system `{other}`")),
    })
}

fn storage_of(name: &str) -> Result<StorageKind, String> {
    Ok(match name {
        "orangefs" => StorageKind::OrangeFs,
        "nfs" => StorageKind::Nfs,
        "tmpfs" => StorageKind::Tmpfs,
        "ssd" => StorageKind::NvmeSsd,
        other => return Err(format!("unknown storage `{other}`")),
    })
}

fn criterion_of(name: &str) -> Result<ImportanceCriterion, String> {
    Ok(match name {
        "loss" => ImportanceCriterion::Loss,
        "gradnorm" => ImportanceCriterion::GradNorm,
        "staleness" => ImportanceCriterion::Staleness,
        other => return Err(format!("unknown criterion `{other}`")),
    })
}

fn run(args: &Args) -> Result<(), String> {
    let get = |k: &str, d: &'static str| args.get(k).unwrap_or(d);

    let system = system_of(get("system", "icache"))?;
    let model_name = get("model", "shufflenet");
    let model = ModelProfile::by_name(model_name).map_err(|e| e.to_string())?;
    let base = match get("dataset", "cifar10") {
        "cifar10" => Scenario::cifar10(system),
        "imagenet" => Scenario::imagenet(system),
        other => return Err(format!("unknown dataset `{other}`")),
    };
    let seed = args.seed("seed", 0x5EED)?;

    let prefetch_depth: usize = args.parsed("prefetch-depth", 0)?;
    let scenario = base
        .model(model)
        .storage(storage_of(get("storage", "orangefs"))?)
        .criterion(criterion_of(get("criterion", "loss"))?)
        .scale_dataset(args.parsed("scale", 0.1)?)
        .map_err(|e| e.to_string())?
        .cache_fraction(args.parsed("cache", 0.2)?)
        .epochs(args.parsed::<usize>("epochs", 5)? as u32)
        .batch_size(args.parsed("batch", 256)?)
        .workers(args.parsed("workers", 6)?)
        .gpus(args.parsed("gpus", 1)?)
        .prefetch_depth(prefetch_depth)
        .seed(seed);
    let nodes: usize = args.parsed("nodes", 1)?;
    let churn = churn_of(args)?;
    if churn.is_some() && nodes < 2 {
        return Err("churn flags (--kill-node/--rejoin/--cold/--race/--net-latency/--recovery-dir) need --nodes N with N >= 2".into());
    }
    if let Some(spec) = &churn {
        if let Some((node, _)) = spec.kill {
            if node as usize >= nodes {
                return Err(format!(
                    "--kill-node: node {node} does not exist in a {nodes}-node cluster"
                ));
            }
        }
    }

    println!(
        "running {} ({}) on {}{} ...\n",
        system.label(),
        model_name,
        scenario.dataset_ref(),
        if nodes >= 2 {
            format!(" across {nodes} nodes")
        } else {
            String::new()
        }
    );
    if prefetch_depth > 0 {
        println!("clairvoyant prefetch: lookahead depth {prefetch_depth}\n");
    }
    let obs = icache_obs::Obs::new();
    let mut service = None;
    let runs = if nodes >= 2 {
        match &churn {
            Some(spec) => {
                let (runs, svc) = scenario
                    .run_distributed_churn_with_obs(nodes as u32, spec, &obs)
                    .map_err(|e| e.to_string())?;
                service = Some(svc);
                runs
            }
            None => scenario
                .run_distributed_with_obs(nodes as u32, &obs)
                .map_err(|e| e.to_string())?,
        }
    } else {
        vec![scenario.run_with_obs(&obs).map_err(|e| e.to_string())?]
    };
    let metrics = &runs[0];

    let mut table = report::Table::with_columns(&[
        "epoch", "wall", "stall", "compute", "fetched", "hit%", "p50", "p99", "top1", "top5",
    ]);
    for e in &metrics.epochs {
        table.row(vec![
            e.epoch.0.to_string(),
            format!("{}", e.wall_time),
            format!("{}", e.stall_time),
            format!("{}", e.compute_time),
            e.samples_fetched.to_string(),
            format!("{:.1}", e.hit_ratio() * 100.0),
            format!("{}", e.fetch_p50),
            format!("{}", e.fetch_p99),
            format!("{:.2}", e.top1),
            format!("{:.2}", e.top5),
        ]);
    }
    println!("{}", table.render());
    if nodes >= 2 {
        let mut nt = report::Table::with_columns(&["node", "local", "remote", "storage"]);
        for i in 0..nodes {
            let c = |s: &str| obs.counter(&format!("dist.node{i}.{s}")).to_string();
            nt.row(vec![
                i.to_string(),
                c("local_hits"),
                c("remote_hits"),
                c("storage_fetches"),
            ]);
        }
        println!("\nper-node fetch classification:\n{}", nt.render());
    }
    if let Some(svc) = &service {
        let c = |k: &str| obs.counter(k);
        println!(
            "\nchurn: kills={} rejoins={} moved={} purged={} warm_restarts={} \
             cold_restarts={} restored={} recovery_bytes={}",
            c("svc.kills"),
            c("svc.rejoins"),
            c("svc.repartition.moved"),
            c("svc.repartition.purged"),
            c("svc.recovery.warm_restarts"),
            c("svc.recovery.cold_restarts"),
            c("svc.recovery.restored_samples"),
            c("svc.recovery.bytes"),
        );
        println!(
            "membership: live={:?}  partition_version={}  directory_entries={}",
            svc.live_nodes().iter().map(|n| n.0).collect::<Vec<_>>(),
            svc.partition_version(),
            svc.directory_len(),
        );
    }
    if let Some(path) = args.get("csv") {
        std::fs::write(path, report::run_metrics_csv(metrics))
            .map_err(|e| format!("--csv {path}: {e}"))?;
        println!("wrote per-epoch CSV to {path}");
    }
    if let Some(path) = args.get("trace") {
        std::fs::write(path, obs.trace_jsonl()).map_err(|e| format!("--trace {path}: {e}"))?;
        println!(
            "wrote {} trace events to {path} ({} emitted, {} dropped by the ring)",
            obs.trace_len(),
            obs.trace_emitted(),
            obs.trace_dropped()
        );
    }
    if let Some(path) = args.get("json") {
        let summary = if nodes >= 2 {
            report::run_summary_distributed(&runs, &obs, nodes)
        } else {
            report::run_summary(&runs, &obs)
        };
        std::fs::write(path, format!("{summary}\n")).map_err(|e| format!("--json {path}: {e}"))?;
        println!("wrote run summary to {path}");
    }
    println!();
    println!(
        "steady-state epoch: {}   stall: {}   hit ratio: {:.1}%   final top-1: {:.2}",
        metrics.avg_epoch_time_steady(),
        metrics.avg_stall_time_steady(),
        metrics.avg_hit_ratio_steady() * 100.0,
        metrics.final_top1()
    );
    Ok(())
}

fn main() -> ExitCode {
    SPEC.main(run)
}
