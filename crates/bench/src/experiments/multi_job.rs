//! Two jobs sharing one cache (§V-F): Figure 14 and the benefit-threshold
//! ablation.

use super::{hi, lo, steady_mean, Report};
use crate::BenchEnv;
use icache_baselines::LruCache;
use icache_core::{CacheSystem, IcacheConfig, IcacheManager};
use icache_dnn::ModelProfile;
use icache_obs::json;
use icache_sim::{report, run_multi_job, JobConfig, RunMetrics, SamplingMode};
use icache_storage::{Pfs, PfsConfig};
use icache_types::{Dataset, JobId};

const CACHE_FRAC: f64 = 0.2;

/// ShuffleNet (job 0) and ResNet50 (job 1) training concurrently on the
/// same dataset through `cache`.
fn run_pair(
    dataset: &Dataset,
    cache: &mut dyn CacheSystem,
    epochs: u32,
    seed: u64,
    iis: bool,
) -> Vec<RunMetrics> {
    let mut a = JobConfig::new(JobId(0), ModelProfile::shufflenet(), dataset.clone());
    let mut b = JobConfig::new(JobId(1), ModelProfile::resnet50(), dataset.clone());
    for (i, c) in [&mut a, &mut b].into_iter().enumerate() {
        c.epochs = epochs;
        c.seed = seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9);
        if iis {
            c.sampling = SamplingMode::Iis { fraction: 0.7 };
        }
    }
    let mut pfs = Pfs::new(PfsConfig::orangefs_default()).expect("the OrangeFS preset is valid");
    run_multi_job(vec![a, b], cache, &mut pfs).expect("two jobs over one dataset are valid")
}

/// When the slower of the two jobs finishes, in seconds.
fn completion(out: &[RunMetrics]) -> f64 {
    out[0]
        .total_time()
        .as_secs_f64()
        .max(out[1].total_time().as_secs_f64())
}

/// A job's own steady-state hit ratio.
fn job_hit(m: &RunMetrics) -> f64 {
    steady_mean(m, |e| e.job_hit_ratio())
}

/// Figure 14: multi-job training on a shared cache.
///
/// Paper setup: ShuffleNet and ResNet50 train concurrently on the same
/// CIFAR-10 dataset and share the cache. Schemes: Default (LRU), INDA
/// (cache managed by ShuffleNet's importance only), INDB (by ResNet50's),
/// and iCache's multi-job coordination. Findings: each IND* favours its
/// own model and penalises the other; iCache's benefit-weighted AIV gives
/// the best completion time (1.1×/1.2× over INDA/INDB) and a higher hit
/// ratio to the more I/O-bound ShuffleNet.
pub(super) fn fig14_multi_job(env: &BenchEnv, r: &mut Report) {
    let dataset = env.cifar_dataset();

    let icache_variant = |filter: Option<JobId>, multi_job: bool| -> Box<dyn CacheSystem> {
        let mut cfg = IcacheConfig::for_dataset(&dataset, CACHE_FRAC)
            .expect("a 20% cache over scaled CIFAR-10 is a valid config");
        cfg.seed = env.seed;
        cfg.hlist_filter = filter;
        cfg.multi_job = multi_job;
        // The probe must fit comfortably inside one (scaled) epoch.
        cfg.probe_samples = (dataset.len() / 20).max(64);
        Box::new(IcacheManager::new(cfg, &dataset).expect("a valid config builds the manager"))
    };

    let schemes: Vec<(&str, Box<dyn CacheSystem>, bool)> = vec![
        (
            "Default",
            Box::new(LruCache::new(dataset.total_bytes().scaled(CACHE_FRAC))),
            false,
        ),
        ("INDA", icache_variant(Some(JobId(0)), false), true),
        ("INDB", icache_variant(Some(JobId(1)), false), true),
        ("iCache", icache_variant(None, true), true),
    ];

    let mut table = report::Table::with_columns(&[
        "scheme",
        "shufflenet epoch",
        "resnet50 epoch",
        "completion",
        "shufflenet hit",
        "resnet50 hit",
    ]);
    // Per scheme: (name, completion, ShuffleNet hit ratio, ResNet50 hit ratio).
    let mut measured = Vec::new();

    for (name, mut cache, iis) in schemes {
        let out = run_pair(&dataset, cache.as_mut(), env.perf_epochs, env.seed, iis);
        let t0 = out[0].avg_epoch_time_steady().as_secs_f64();
        let t1 = out[1].avg_epoch_time_steady().as_secs_f64();
        let completion = completion(&out);
        let (hit0, hit1) = (job_hit(&out[0]), job_hit(&out[1]));
        measured.push((name, completion, hit0, hit1));
        table.row(vec![
            name.to_string(),
            report::secs(t0),
            report::secs(t1),
            report::secs(completion),
            report::pct(hit0),
            report::pct(hit1),
        ]);
        r.json(
            "fig14",
            &json!({"scheme": name, "shufflenet_epoch": t0, "resnet50_epoch": t1,
                    "completion": completion,
                    "hits": [hit0, hit1]}),
        );
    }

    r.table(&table);
    let best = measured
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("four schemes were measured");
    r.line(format_args!(
        "best completion: {} ({})",
        best.0,
        report::secs(best.1)
    ));
    let (inda, indb, icache) = (measured[1], measured[2], measured[3]);
    r.check(
        "INDA favours ShuffleNet and INDB favours ResNet50 (hit ratio)",
        inda.2 > inda.3 && indb.3 > indb.2,
        format_args!(
            "INDA {} vs {}, INDB {} vs {}",
            report::pct(inda.2),
            report::pct(inda.3),
            report::pct(indb.2),
            report::pct(indb.3)
        ),
    );
    r.check(
        "iCache has the best completion",
        best.0 == "iCache",
        format_args!(
            "{:.2}x over INDA, {:.2}x over INDB; paper: 1.1x / 1.2x",
            inda.1 / icache.1,
            indb.1 / icache.1
        ),
    );
    r.check(
        "ShuffleNet's hit ratio exceeds ResNet50's under iCache",
        icache.2 > icache.3,
        format_args!("{} vs {}", report::pct(icache.2), report::pct(icache.3)),
    );
}

/// Ablation (beyond the paper): multi-job benefit-eligibility threshold.
///
/// The paper fixes the cache-benefit threshold at 1.5 (§III-D). This
/// sweep shows the trade-off: a threshold near 1.0 admits barely-helped
/// jobs into the AIV aggregation (diluting it), a very high threshold
/// excludes everyone and the cache degenerates to uncoordinated behaviour.
pub(super) fn ablation_benefit_threshold(env: &BenchEnv, r: &mut Report) {
    let dataset = env.cifar_dataset();
    let thresholds = [1.05f64, 1.5, 3.0, 10.0];

    let mut table = report::Table::with_columns(&["threshold", "completion", "job hits"]);

    // Reference: an uncoordinated shared LRU.
    let mut lru = LruCache::new(dataset.total_bytes().scaled(CACHE_FRAC));
    let lru_completion = completion(&run_pair(
        &dataset,
        &mut lru,
        env.perf_epochs,
        env.seed,
        true,
    ));
    table.row(vec![
        "(LRU)".into(),
        report::secs(lru_completion),
        "-".into(),
    ]);

    let mut completions = Vec::new();
    for &th in &thresholds {
        let mut cfg = IcacheConfig::for_dataset(&dataset, CACHE_FRAC)
            .expect("a 20% cache over scaled CIFAR-10 is a valid config");
        cfg.multi_job = true;
        cfg.benefit_threshold = th;
        cfg.probe_samples = 20 * 64;
        cfg.seed = env.seed;
        let mut cache =
            IcacheManager::new(cfg, &dataset).expect("a valid config builds the manager");
        let out = run_pair(&dataset, &mut cache, env.perf_epochs, env.seed, true);
        let completion = completion(&out);
        completions.push(completion);
        let hits: Vec<String> = out.iter().map(|m| report::pct(job_hit(m))).collect();
        table.row(vec![
            format!("{th:.2}"),
            report::secs(completion),
            hits.join(" / "),
        ]);
        r.json(
            "ablation_benefit_threshold",
            &json!({"threshold": th, "completion_seconds": completion}),
        );
    }

    r.table(&table);
    let slowest = hi(completions.iter().copied());
    r.check(
        "every coordinated threshold completes before the shared LRU",
        slowest < lru_completion,
        format_args!(
            "slowest {} vs LRU {}",
            report::secs(slowest),
            report::secs(lru_completion)
        ),
    );
    let best = lo(completions.iter().copied());
    r.check(
        "the paper's threshold 1.5 gives the best completion",
        completions[1] <= best,
        format_args!(
            "{} at 1.50 vs best {}",
            report::secs(completions[1]),
            report::secs(best)
        ),
    );
}
