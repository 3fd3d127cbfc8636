//! Figure 18 (prefetch study): stall time vs. clairvoyant lookahead
//! depth across the five-policy replay lineup.

use super::{hi, Report};
use crate::{workload, BenchEnv};
use icache_obs::{json, Obs};
use icache_sim::replay::{replay, AccessPattern};
use icache_sim::{report, StorageKind};
use icache_types::{ByteSize, DatasetBuilder, Epoch, JobId, SimDuration, SizeModel};

const CACHE_FRAC: f64 = 0.1;
const COMPUTE_US: u64 = 50;
/// The swept lookahead depths; depth 0 is the un-overlapped demand chain.
const DEPTHS: [usize; 6] = [0, 1, 2, 4, 8, 16];
/// Stall must shrink strictly at every step up to this index of
/// [`DEPTHS`] (depth 4), on at least one policy.
const STRICT_THROUGH: usize = 3;

/// Setup: one zipf-1.1 trace replayed through every policy under the
/// compute/IO overlap clock (DESIGN.md §11) at each lookahead depth in
/// [`DEPTHS`]. Because IIS/CIS fix the epoch's access order in advance,
/// the prefetcher issues that order up to `depth` fetches ahead and the
/// storage backend's queueing model arbitrates the overlapping reads.
/// Findings: consumer stall time is non-increasing in depth for every
/// policy, and shrinks strictly through depth ≥ 4 while the window keeps
/// the backend's queue busy.
pub(super) fn fig18_prefetch(env: &BenchEnv, r: &mut Report) {
    // Same workload family as `icache_replay` defaults, scaled like the
    // other figures so the smoke-scale goldens stay small.
    let universe = ((20_000.0 * env.cifar_scale) as u64).max(200);
    let requests = ((50_000.0 * env.cifar_scale) as usize).max(500);
    let compute = SimDuration::from_micros(COMPUTE_US);
    let trace = AccessPattern::Zipf { s: 1.1 }
        .generate(universe, requests, JobId(0), env.seed)
        .expect("a zipf trace over at least 200 samples generates");
    let dataset = DatasetBuilder::new("fig18", universe)
        .size_model(SizeModel::Fixed(ByteSize::kib(3)))
        .build()
        .expect("a fixed-size dataset of at least 200 samples builds");
    let cap = dataset.total_bytes().scaled(CACHE_FRAC);
    let hlist = workload::popularity_hlist(&trace, universe);
    r.line(format_args!(
        "replaying {requests} accesses over {universe} samples on orangefs \
         (cache {cap} = {:.0}%, compute {compute}/sample)\n",
        CACHE_FRAC * 100.0
    ));

    let mut columns: Vec<String> = vec!["policy".into()];
    columns.extend(DEPTHS.iter().map(|d| format!("stall d={d}")));
    let mut table =
        report::Table::with_columns(&columns.iter().map(String::as_str).collect::<Vec<_>>());

    // stalls[policy][depth index], in nanoseconds.
    let mut stalls: Vec<Vec<u64>> = Vec::new();
    for &name in workload::POLICIES.iter() {
        let mut row = vec![name.to_string()];
        let mut policy_stalls = Vec::new();
        for &depth in &DEPTHS {
            let obs = Obs::new();
            let mut cache =
                workload::build_policy(name, &dataset, cap, CACHE_FRAC, env.seed, &hlist)
                    .expect("every lineup policy builds over a 10% cache");
            let mut storage = StorageKind::OrangeFs
                .build()
                .expect("the OrangeFS preset is valid");
            cache.set_obs(obs.clone());
            storage.set_obs(obs.clone());
            cache.on_epoch_start(JobId(0), Epoch(0));
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
            r.json(
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
    r.table(&table);

    let last = DEPTHS.len() - 1;
    let worst = hi(stalls.iter().map(|s| s[last] as f64 / s[0] as f64));
    r.check(
        &format!(
            "stall non-increasing from depth {} to depth {} for every policy",
            DEPTHS[0], DEPTHS[last]
        ),
        stalls.iter().all(|s| s[last] <= s[0]),
        format_args!("largest deepest/shallowest stall ratio {worst:.2}"),
    );
    let strict = stalls
        .iter()
        .filter(|s| s[..=STRICT_THROUGH].windows(2).all(|w| w[1] < w[0]))
        .count();
    r.check(
        &format!(
            "stall strictly decreasing through depth {} on at least one policy",
            DEPTHS[STRICT_THROUGH]
        ),
        strict >= 1,
        format_args!("on {strict} of {} policies", stalls.len()),
    );
}
