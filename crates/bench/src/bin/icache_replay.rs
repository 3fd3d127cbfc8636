//! `icache_replay` — replay a synthetic access pattern (or a recorded
//! JSONL trace) through any cache policy and report hit ratio + latency
//! percentiles; the classic cache-simulator workflow.
//!
//! ```sh
//! cargo run --release -p icache-bench --bin icache_replay -- \
//!     --pattern zipf --skew 1.1 --requests 50000 --cache-frac 0.1
//! cargo run --release -p icache-bench --bin icache_replay -- --trace my.jsonl
//! ```
//!
//! `icache_replay --help` prints the flag table.
//!
//! With `--prefetch-depth N` (N ≥ 1) each policy replays under a
//! compute/IO overlap clock: a prefetcher issues the trace's known
//! access order up to `N` fetches ahead, the consumer spends
//! `--compute-us` per sample, and the table gains a `stall` column —
//! total time the consumer waited on data. The cache sees the same
//! access *order* at every depth; time-agnostic policies (lru, coordl,
//! ilfu) therefore count identically across depths, while policies
//! with time-paced machinery (icache's background package loader) may
//! shift slightly because virtual timestamps feed their pacing. The
//! mode refuses `--loader-threads > 1` (the concurrent path has no
//! deterministic plan order to prefetch).
//!
//! The policies share nothing but the read-only workload, so the
//! parallel path produces byte-identical stdout, `--json`, and
//! `--trace-out` files to the sequential one: every policy replays
//! against its own [`icache_obs::Obs`] ring and derives its randomness
//! from `--seed` alone, and results are printed in policy order after
//! all workers join.
//!
//! `--loader-threads 1` (the default) is the sequential driver. With
//! `n > 1` each policy is
//! built as a shared `ConcurrentCache` (`icache` gets the lock-striped
//! `ConcurrentManager`, baselines a coarse-lock `MutexCache`), the
//! trace is split round-robin across the loader threads, and results
//! depend on thread interleaving — so this mode refuses `--trace-out`
//! (no per-event stream on the concurrent path) and `--parallel`
//! (one axis of parallelism at a time).
//!
//! On top of whatever the policy itself records, the replay driver
//! records `replay.accesses`, `replay.h_hits`, `replay.l_hits`,
//! `replay.pm_hits`, `replay.substitutions`, and `replay.misses` from
//! the replay report, so every per-policy snapshot satisfies
//! `h_hits + l_hits + pm_hits + substitutions + misses == accesses`.

use icache_bench::cli::{Args, Flag, Spec};
use icache_bench::{sweep, workload};
use icache_obs::{decl, Json, Obs};
use icache_sampling::HList;
use icache_sim::replay::{
    replay, replay_concurrent, summarize, AccessPattern, ReplayReport, Trace,
};
use icache_sim::{report, StorageKind};
use icache_types::{ByteSize, Dataset, DatasetBuilder, Epoch, JobId, SimDuration, SizeModel};
use std::process::ExitCode;

const SPEC: Spec = Spec {
    program: "icache_replay",
    about: "replay an access pattern (or a recorded trace) through every cache policy",
    flags: &[
        Flag::required("pattern", "uniform, zipf, scan or shuffle (default zipf)"),
        Flag::required("skew", "zipf skew exponent (default 1.1)"),
        Flag::required("requests", "accesses to generate (default 50000)"),
        Flag::required("universe", "samples in the dataset (default 20000)"),
        Flag::required("cache-frac", "cache fraction of the dataset (default 0.1)"),
        Flag::required("storage", "orangefs, nfs, tmpfs or ssd (default orangefs)"),
        Flag::required("seed", "run seed, decimal or 0x-hex (default 7)"),
        Flag::required(
            "trace",
            "replay this recorded request log (JSONL) instead of --pattern",
        ),
        Flag::required(
            "trace-out",
            "write each policy's event trace to its own file: out.jsonl becomes \
             out.lru.jsonl, out.icache.jsonl, ...",
        ),
        Flag::required(
            "json",
            "write a per-policy summary (counters, histograms) to this JSON path",
        ),
        Flag::optional(
            "parallel",
            "replay the policies on n worker threads; bare or `auto` = all cores",
        ),
        Flag::required(
            "loader-threads",
            "serve ONE cache per policy from n loader threads (default 1)",
        ),
        Flag::required(
            "prefetch-depth",
            "clairvoyant prefetch lookahead, 0 = fetch on demand (default 0)",
        ),
        Flag::required(
            "compute-us",
            "per-sample compute in microseconds; needs --prefetch-depth >= 1 (default 50)",
        ),
    ],
};

/// `out.jsonl` + `lru` → `out.lru.jsonl`; a path with no extension gets
/// the policy name appended instead.
fn policy_path(path: &str, policy: &str) -> String {
    let p = std::path::Path::new(path);
    match (p.file_stem(), p.extension()) {
        (Some(stem), Some(ext)) => p
            .with_file_name(format!(
                "{}.{policy}.{}",
                stem.to_string_lossy(),
                ext.to_string_lossy()
            ))
            .to_string_lossy()
            .into_owned(),
        _ => format!("{path}.{policy}"),
    }
}

/// Read-only inputs shared by every policy task.
struct ReplayCtx<'a> {
    trace: &'a Trace,
    dataset: &'a Dataset,
    hlist: &'a HList,
    cap: ByteSize,
    cache_frac: f64,
    seed: u64,
    storage_kind: StorageKind,
    trace_out: Option<&'a str>,
    prefetch_depth: usize,
    compute: SimDuration,
    loader_threads: usize,
}

/// Everything one policy replay produces, rendered but not yet printed:
/// the driver prints outputs in policy order after all tasks finish, so
/// sequential and parallel runs emit the same bytes.
struct PolicyOutput {
    row: Vec<String>,
    line: String,
    trace_note: Option<String>,
    summary: (String, Json),
}

/// Replay one policy from a single consumer.
fn replay_sequential(name: &str, ctx: &ReplayCtx, obs: &Obs) -> Result<ReplayReport, String> {
    let mut cache = workload::build_policy(
        name,
        ctx.dataset,
        ctx.cap,
        ctx.cache_frac,
        ctx.seed,
        ctx.hlist,
    )?;
    let mut storage = ctx.storage_kind.build().map_err(|e| e.to_string())?;
    cache.set_obs(obs.clone());
    storage.set_obs(obs.clone());
    cache.on_epoch_start(JobId(0), Epoch(0));
    Ok(replay(
        ctx.trace,
        ctx.dataset,
        cache.as_mut(),
        storage.as_mut(),
        ctx.prefetch_depth,
        ctx.compute,
        obs.clone(),
    ))
}

/// Replay one policy as a shared concurrent cache served by
/// `ctx.loader_threads` loader threads. Also returns the number of lock
/// acquisitions that had to wait.
fn replay_shared(name: &str, ctx: &ReplayCtx, obs: &Obs) -> Result<(ReplayReport, u64), String> {
    let cache = workload::build_concurrent_policy(
        name,
        ctx.dataset,
        ctx.cap,
        ctx.cache_frac,
        ctx.seed,
        ctx.hlist,
        ctx.loader_threads,
    )?;
    cache.set_obs(obs.clone());
    cache.on_epoch_start(JobId(0), Epoch(0));
    let rep = replay_concurrent(
        ctx.trace,
        ctx.dataset,
        cache.as_ref(),
        ctx.loader_threads,
        ctx.seed,
        || ctx.storage_kind.build(),
    )
    .map_err(|e| e.to_string())?;
    // Publishes the cache.stripe.* gauges and the counter deltas
    // accumulated over the replay into this policy's registry.
    cache.on_epoch_end(JobId(0), Epoch(0));
    Ok((rep, cache.contended()))
}

/// The table column the active mode adds, if any.
fn extra_column(ctx: &ReplayCtx) -> Option<&'static str> {
    if ctx.loader_threads > 1 {
        Some("contended")
    } else if ctx.prefetch_depth > 0 {
        Some("stall")
    } else {
        None
    }
}

fn run_policy(name: &str, ctx: &ReplayCtx) -> Result<PolicyOutput, String> {
    // One observability ring per policy: event streams never interleave
    // and each trace file's seq numbering starts at 0. The cache is
    // built here, inside the (possibly worker-thread) task.
    let obs = Obs::new();
    let (rep, contended) = if ctx.loader_threads > 1 {
        let (rep, contended) = replay_shared(name, ctx, &obs)?;
        (rep, Some(contended))
    } else {
        (replay_sequential(name, ctx, &obs)?, None)
    };
    // The replay driver's own accounting: baselines record nothing
    // into the registry themselves, so these six counters make every
    // policy snapshot sum to the shared workload's access count.
    for (metric, n) in [
        (decl::REPLAY_ACCESSES, ctx.trace.len() as u64),
        (decl::REPLAY_H_HITS, rep.stats.h_hits),
        (decl::REPLAY_L_HITS, rep.stats.l_hits),
        (decl::REPLAY_PM_HITS, rep.stats.pm_hits),
        (decl::REPLAY_SUBSTITUTIONS, rep.stats.substitutions),
        (decl::REPLAY_MISSES, rep.stats.misses),
    ] {
        obs.handle(metric).add(n);
    }
    let mut row = vec![
        name.to_string(),
        format!("{:.1}", rep.hit_ratio() * 100.0),
        format!("{}", rep.latency.quantile(0.5)),
        format!("{}", rep.latency.quantile(0.99)),
        format!("{}", rep.elapsed),
    ];
    let mut line = format!("{name:8} {}", summarize(&rep));
    if let Some(column) = extra_column(ctx) {
        let value = match contended {
            Some(n) => n.to_string(),
            None => rep.stall.to_string(),
        };
        line = format!("{line} | {column} {value}");
        row.push(value);
    }
    let trace_note = match ctx.trace_out {
        Some(path) => {
            let path = policy_path(path, name);
            std::fs::write(&path, obs.trace_jsonl())
                .map_err(|e| format!("--trace-out {path}: {e}"))?;
            Some(format!(
                "wrote {} {name} trace events to {path}",
                obs.trace_len()
            ))
        }
        None => None,
    };
    // The concurrent path publishes counters, not events: its summary
    // carries the contention count where the others carry trace
    // accounting.
    let detail = match contended {
        Some(n) => ("contended".to_string(), Json::UInt(n)),
        None => (
            "trace".to_string(),
            Json::Obj(vec![
                ("emitted".into(), Json::UInt(obs.trace_emitted())),
                ("recorded".into(), Json::UInt(obs.trace_len() as u64)),
                ("dropped".into(), Json::UInt(obs.trace_dropped())),
            ]),
        ),
    };
    let summary = (
        name.to_string(),
        Json::Obj(vec![("metrics".into(), obs.metrics_snapshot()), detail]),
    );
    Ok(PolicyOutput {
        row,
        line,
        trace_note,
        summary,
    })
}

fn run(args: &Args) -> Result<(), String> {
    let get = |k: &str, d: &'static str| args.get(k).unwrap_or(d);
    let universe: u64 = args.parsed("universe", 20_000)?;
    let requests: usize = args.parsed("requests", 50_000)?;
    let cache_frac: f64 = args.parsed("cache-frac", 0.1)?;
    let seed = args.seed("seed", 7)?;
    let storage_kind = match get("storage", "orangefs") {
        "orangefs" => StorageKind::OrangeFs,
        "nfs" => StorageKind::Nfs,
        "tmpfs" => StorageKind::Tmpfs,
        "ssd" => StorageKind::NvmeSsd,
        other => return Err(format!("unknown storage `{other}`")),
    };
    let workers = match args.get("parallel") {
        Some(v) => sweep::parse_workers(v)?,
        None => 1,
    };
    let loader_threads: usize = args.parsed("loader-threads", 1)?;
    if loader_threads == 0 {
        return Err("--loader-threads: need at least one loader thread".into());
    }
    let prefetch_depth: usize = args.parsed("prefetch-depth", 0)?;
    if args.has("compute-us") && prefetch_depth == 0 {
        return Err(
            "--compute-us drives the prefetch overlap clock and requires --prefetch-depth >= 1"
                .into(),
        );
    }
    // Without a prefetcher there is no compute to overlap with.
    let compute = if prefetch_depth > 0 {
        SimDuration::from_micros(args.parsed("compute-us", 50)?)
    } else {
        SimDuration::ZERO
    };
    if prefetch_depth > 0 && loader_threads > 1 {
        return Err(
            "--prefetch-depth issues the trace's plan order ahead of a sequential consumer \
             and cannot combine with --loader-threads > 1 (no deterministic plan order on \
             the concurrent path)"
                .into(),
        );
    }
    if loader_threads > 1 {
        if args.has("trace-out") {
            return Err(
                "--trace-out records a per-event stream and requires --loader-threads 1 \
                 (the concurrent path publishes counters, not events)"
                    .into(),
            );
        }
        if args.has("parallel") {
            return Err(
                "--parallel replays policies on worker threads and cannot combine with \
                 --loader-threads; pick one axis of parallelism"
                    .into(),
            );
        }
    }

    let trace = if let Some(path) = args.get("trace") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("--trace {path}: {e}"))?;
        Trace::parse_jsonl(&text).map_err(|e| e.to_string())?
    } else {
        let pattern = match get("pattern", "zipf") {
            "uniform" => AccessPattern::Uniform,
            "zipf" => AccessPattern::Zipf {
                s: args.parsed("skew", 1.1)?,
            },
            "scan" => AccessPattern::Scan,
            "shuffle" => AccessPattern::EpochShuffle,
            other => return Err(format!("unknown pattern `{other}`")),
        };
        pattern
            .generate(universe, requests, JobId(0), seed)
            .map_err(|e| e.to_string())?
    };

    let dataset = DatasetBuilder::new("replay", universe)
        .size_model(SizeModel::Fixed(ByteSize::kib(3)))
        .build()
        .map_err(|e| e.to_string())?;
    let cap = dataset.total_bytes().scaled(cache_frac);

    // iCache needs an importance view; for replay we rank by first-seen
    // popularity in the trace itself (what a warmed-up H-list would hold).
    let hlist = workload::popularity_hlist(&trace, universe);

    println!(
        "replaying {} accesses over {} samples (cache {} = {:.0}%)\n",
        trace.len(),
        universe,
        cap,
        cache_frac * 100.0
    );
    if loader_threads > 1 {
        println!("loader threads: {loader_threads} (one shared cache per policy)\n");
    }
    if prefetch_depth > 0 {
        println!(
            "clairvoyant prefetch: lookahead depth {prefetch_depth}, compute {compute}/sample\n"
        );
    }

    let ctx = ReplayCtx {
        trace: &trace,
        dataset: &dataset,
        hlist: &hlist,
        cap,
        cache_frac,
        seed,
        storage_kind,
        trace_out: args.get("trace-out"),
        prefetch_depth,
        compute,
        loader_threads,
    };
    let ctx_ref = &ctx;
    let tasks: Vec<_> = workload::POLICIES
        .iter()
        .map(|&name| move || run_policy(name, ctx_ref))
        .collect();
    let outputs = sweep::run_indexed(tasks, workers);

    let mut policy_summaries: Vec<(String, Json)> = Vec::new();
    let mut columns = vec!["policy", "hit%", "p50", "p99", "elapsed"];
    columns.extend(extra_column(&ctx));
    let mut out = report::Table::with_columns(&columns);
    for result in outputs {
        let po = result?;
        out.row(po.row);
        println!("{}", po.line);
        if let Some(note) = po.trace_note {
            println!("{note}");
        }
        policy_summaries.push(po.summary);
    }
    println!();
    println!("{}", out.render());
    if let Some(path) = args.get("json") {
        let mut summary = vec![("accesses".to_string(), Json::UInt(trace.len() as u64))];
        if loader_threads > 1 {
            summary.push(("loader_threads".into(), Json::UInt(loader_threads as u64)));
        }
        summary.push(("policies".into(), Json::Obj(policy_summaries)));
        let summary = Json::Obj(summary);
        std::fs::write(path, format!("{summary}\n")).map_err(|e| format!("--json {path}: {e}"))?;
        println!("wrote replay summary to {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    SPEC.main(run)
}
