//! Figure 18 (prefetch study): stall time vs. clairvoyant lookahead
//! depth across the five-policy replay lineup.
//!
//! Setup: one zipf-1.1 trace replayed through every policy under the
//! compute/IO overlap clock (DESIGN.md §11) at each lookahead depth in
//! `ICACHE_PREFETCH_DEPTHS` (default `0,1,2,4,8,16`; depth 0 is the
//! un-overlapped demand chain). Because IIS/CIS fix the epoch's access
//! order in advance, the prefetcher issues that order up to `depth`
//! fetches ahead and the storage backend's queueing model arbitrates
//! the overlapping reads. Findings: consumer stall time is
//! non-increasing in depth for every policy, and shrinks strictly
//! through depth ≥ 4 while the window keeps the backend's queue busy.

use icache_bench::{banner, workload, BenchEnv};
use icache_obs::{json, Obs};
use icache_sim::replay::{replay, AccessPattern};
use icache_sim::{report, StorageKind};
use icache_types::{ByteSize, DatasetBuilder, JobId, SimDuration, SizeModel};

const CACHE_FRAC: f64 = 0.1;
const COMPUTE_US: u64 = 50;

fn depths_from_env() -> Vec<usize> {
    let raw = std::env::var("ICACHE_PREFETCH_DEPTHS").unwrap_or_else(|_| "0,1,2,4,8,16".into());
    let depths: Vec<usize> = raw
        .split(',')
        .map(|d| {
            d.trim()
                .parse()
                .unwrap_or_else(|e| panic!("ICACHE_PREFETCH_DEPTHS entry `{d}`: {e}"))
        })
        .collect();
    assert!(
        depths.len() >= 2 && depths[0] == 0,
        "ICACHE_PREFETCH_DEPTHS must start at 0 and sweep at least one nonzero depth"
    );
    assert!(
        depths.windows(2).all(|w| w[0] < w[1]),
        "ICACHE_PREFETCH_DEPTHS must be strictly increasing"
    );
    depths
}

fn main() {
    let env = BenchEnv::from_env();
    banner(
        "Figure 18 — clairvoyant prefetch: consumer stall vs. lookahead depth",
        "overlapping the known access order with compute hides storage stall",
        &env,
    );
    let depths = depths_from_env();

    // Same workload family as `icache_replay` defaults, scaled like the
    // other figures so the CI smoke run stays small.
    let universe = ((20_000.0 * env.cifar_scale) as u64).max(200);
    let requests = ((50_000.0 * env.cifar_scale) as usize).max(500);
    let compute = SimDuration::from_micros(COMPUTE_US);
    let trace = AccessPattern::Zipf { s: 1.1 }
        .generate(universe, requests, JobId(0), env.seed)
        .expect("trace generation");
    let dataset = DatasetBuilder::new("fig18", universe)
        .size_model(SizeModel::Fixed(ByteSize::kib(3)))
        .build()
        .expect("dataset build");
    let cap = dataset.total_bytes().scaled(CACHE_FRAC);
    let hlist = workload::popularity_hlist(&trace, universe);
    println!(
        "replaying {requests} accesses over {universe} samples on orangefs \
         (cache {cap} = {:.0}%, compute {compute}/sample)\n",
        CACHE_FRAC * 100.0
    );

    let mut columns: Vec<String> = vec!["policy".into()];
    columns.extend(depths.iter().map(|d| format!("stall d={d}")));
    let mut table =
        report::Table::with_columns(&columns.iter().map(String::as_str).collect::<Vec<_>>());

    // stalls[policy][depth index], in nanoseconds.
    let mut stalls: Vec<Vec<u64>> = Vec::new();
    for &name in workload::POLICIES.iter() {
        let mut row = vec![name.to_string()];
        let mut policy_stalls = Vec::new();
        for &depth in &depths {
            let obs = Obs::new();
            let mut cache =
                workload::build_policy(name, &dataset, cap, CACHE_FRAC, env.seed, &hlist)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
            let mut storage = StorageKind::OrangeFs.build().expect("storage build");
            cache.set_obs(obs.clone());
            storage.set_obs(obs.clone());
            cache.on_epoch_start(JobId(0), icache_types::Epoch(0));
            let pr = replay(
                &trace,
                &dataset,
                cache.as_mut(),
                storage.as_mut(),
                depth,
                compute,
                obs.clone(),
            );
            row.push(format!("{}", pr.stall));
            policy_stalls.push(pr.stall.as_nanos());
            report::json_line(
                "fig18",
                &json!({"policy": name,
                        "depth": depth,
                        "stall_nanos": pr.stall.as_nanos(),
                        "hit_ratio": pr.hit_ratio(),
                        "elapsed_nanos": pr.elapsed.as_nanos(),
                        "issued": pr.prefetch.issued,
                        "hits": pr.prefetch.hits,
                        "late": pr.prefetch.late,
                        "cancelled": pr.prefetch.cancelled}),
            );
        }
        table.row(row);
        stalls.push(policy_stalls);
    }
    println!("{}", table.render());
    println!();

    // Shape checks the CI smoke run greps for.
    let first = depths[0];
    let last = *depths.last().expect("at least two depths");
    let non_increasing = stalls
        .iter()
        .all(|s| s.last().expect("per-depth stall") <= &s[0]);
    println!(
        "shape check: stall non-increasing from depth {first} to depth {last} for every policy ({})",
        if non_increasing { "holds" } else { "VIOLATED" }
    );
    // Strict decrease at every step up to (and including) the first
    // swept depth >= 4, on at least one policy.
    let cut = depths
        .iter()
        .position(|&d| d >= 4)
        .expect("sweep a depth >= 4");
    let strict = stalls
        .iter()
        .any(|s| s[..=cut].windows(2).all(|w| w[1] < w[0]));
    println!(
        "shape check: stall strictly decreasing through depth {} on at least one policy ({})",
        depths[cut],
        if strict { "holds" } else { "VIOLATED" }
    );
}
