//! Single-job extension studies beyond the paper's figures (DESIGN.md §5,
//! paper §VI): package size, PM victim tier, importance criterion.

use super::{hi, lo, run, series, steady_mean, Report};
use crate::BenchEnv;
use icache_core::{IcacheConfig, IcacheManager, PmTierConfig};
use icache_dnn::ModelProfile;
use icache_obs::json;
use icache_sampling::ImportanceCriterion;
use icache_sim::{report, run_single_job, JobConfig, RunMetrics, SamplingMode, SystemKind};
use icache_storage::{Pfs, PfsConfig};
use icache_types::{ByteSize, Dataset, JobId};

/// One IIS ShuffleNet job over `dataset` through an `IcacheManager` sized
/// at `cache_frac` and adjusted by `tune`.
fn run_tuned(
    env: &BenchEnv,
    dataset: &Dataset,
    cache_frac: f64,
    tune: impl FnOnce(&mut IcacheConfig),
) -> RunMetrics {
    let mut cfg = IcacheConfig::for_dataset(dataset, cache_frac)
        .expect("the cache fraction is a valid config over scaled CIFAR-10");
    cfg.seed = env.seed;
    tune(&mut cfg);
    let mut cache = IcacheManager::new(cfg, dataset).expect("a valid config builds the manager");
    let mut pfs = Pfs::new(PfsConfig::orangefs_default()).expect("the OrangeFS preset is valid");
    let mut job = JobConfig::new(JobId(0), ModelProfile::shufflenet(), dataset.clone());
    job.epochs = env.perf_epochs;
    job.sampling = SamplingMode::Iis { fraction: 0.7 };
    job.seed = env.seed;
    run_single_job(job, &mut cache, &mut pfs).expect("a single IIS job is a valid run")
}

/// Ablation (beyond the paper): L-cache package-size sweep.
///
/// DESIGN.md §5 calls out the package size (≥1 MB in the paper) as a
/// design choice worth ablating: tiny packages forfeit the sequential-read
/// amortisation, huge packages monopolise the L-region and reduce
/// re-packing freshness.
pub(super) fn ablation_package_size(env: &BenchEnv, r: &mut Report) {
    let dataset = env.cifar_dataset();
    let sizes = [
        ByteSize::kib(64),
        ByteSize::kib(256),
        ByteSize::mib(1),
        ByteSize::mib(4),
    ];

    let mut table =
        report::Table::with_columns(&["package", "epoch time", "hit ratio", "pkg reads/epoch"]);
    let (mut times, mut reads) = (Vec::new(), Vec::new());

    for &pkg in &sizes {
        let m = run_tuned(env, &dataset, 0.2, |cfg| cfg.package_size = pkg);
        let pkg_reads = steady_mean(&m, |e| e.storage.package_reads as f64);
        let epoch_seconds = m.avg_epoch_time_steady().as_secs_f64();
        times.push(epoch_seconds);
        reads.push(pkg_reads);
        table.row(vec![
            pkg.to_string(),
            report::secs(epoch_seconds),
            report::pct(m.avg_hit_ratio_steady()),
            format!("{pkg_reads:.0}"),
        ]);
        r.json(
            "ablation_package_size",
            &json!({"package_bytes": pkg.as_u64(),
                    "epoch_seconds": epoch_seconds,
                    "hit_ratio": m.avg_hit_ratio_steady(),
                    "package_reads_per_epoch": pkg_reads}),
        );
    }

    r.table(&table);
    r.check(
        "package reads per epoch fall as packages grow",
        reads.windows(2).all(|w| w[1] < w[0]),
        series(&reads, " > ", |x| format!("{x:.0}")),
    );
    // The first two sizes are below the paper's 1 MB floor.
    let (small, large) = times.split_at(2);
    r.check(
        "packages of at least 1 MiB are no slower than smaller ones",
        hi(large.iter().copied()) <= lo(small.iter().copied()),
        format_args!(
            "slowest large {} vs fastest small {}",
            report::secs(hi(large.iter().copied())),
            report::secs(lo(small.iter().copied()))
        ),
    );
}

/// Ablation (paper §VI future work): a persistent-memory victim tier.
///
/// The paper defers PM to future work; this experiment quantifies it.
/// DRAM evictions from the H-region spill into a PM victim cache and
/// H-misses check PM (≈5 µs + 2.5 GB/s) before going to the PFS (≈600 µs
/// random reads). We sweep the PM size with a deliberately small DRAM
/// cache (5 %) so the tier has misses to catch.
pub(super) fn ablation_pm_tier(env: &BenchEnv, r: &mut Report) {
    let dataset = env.cifar_dataset();
    let pm_fracs: [Option<f64>; 4] = [None, Some(0.1), Some(0.3), Some(0.6)];

    let mut table =
        report::Table::with_columns(&["pm size", "epoch time", "hit ratio", "pm hits/epoch"]);
    let (mut times, mut hits) = (Vec::new(), Vec::new());

    for pm in pm_fracs {
        let m = run_tuned(env, &dataset, 0.05, |cfg| {
            cfg.pm_tier = pm.map(|f| PmTierConfig::optane(dataset.total_bytes().scaled(f)));
        });
        let pm_hits = steady_mean(&m, |e| e.cache.pm_hits as f64);
        let label = match pm {
            None => "none (DRAM only)".to_string(),
            Some(f) => format!("{}", dataset.total_bytes().scaled(f)),
        };
        let epoch_seconds = m.avg_epoch_time_steady().as_secs_f64();
        times.push(epoch_seconds);
        hits.push(m.avg_hit_ratio_steady());
        table.row(vec![
            label,
            report::secs(epoch_seconds),
            report::pct(m.avg_hit_ratio_steady()),
            format!("{pm_hits:.0}"),
        ]);
        r.json(
            "ablation_pm_tier",
            &json!({"pm_fraction": pm,
                    "epoch_seconds": epoch_seconds,
                    "hit_ratio": m.avg_hit_ratio_steady(),
                    "pm_hits_per_epoch": pm_hits}),
        );
    }

    r.table(&table);
    r.check(
        "the smallest PM tier already beats DRAM-only on epoch time and hit ratio",
        times[1] < times[0] && hits[1] > hits[0],
        format_args!(
            "{} vs {}, {} vs {}",
            report::secs(times[1]),
            report::secs(times[0]),
            report::pct(hits[1]),
            report::pct(hits[0])
        ),
    );
    r.check(
        "epoch time never rises and hit ratio never falls as the PM tier grows",
        times.windows(2).all(|w| w[1] <= w[0]) && hits.windows(2).all(|w| w[1] >= w[0]),
        format_args!(
            "{}; {}",
            series(&times, " >= ", report::secs),
            series(&hits, " <= ", report::pct)
        ),
    );
}

/// Ablation (paper §VI, "Other importance sampling methods"): swap the
/// loss-based criterion for the gradient-norm proxy or the
/// staleness-boosted variant and measure time, hit ratio, and accuracy.
pub(super) fn ablation_criterion(env: &BenchEnv, r: &mut Report) {
    let mut table = report::Table::with_columns(&[
        "criterion",
        "epoch time",
        "hit ratio",
        "top1 @30",
        "top1 delta vs Default",
    ]);

    let resnet18 = |system: SystemKind| env.cifar(system).model(ModelProfile::resnet18());
    // Default baseline for the accuracy reference.
    let default = run(resnet18(SystemKind::Default), 30);

    let mut times = Vec::new();
    let mut hit_of = std::collections::BTreeMap::new();
    for criterion in ImportanceCriterion::all() {
        let m = run(resnet18(SystemKind::Icache).criterion(criterion), 30);
        let epoch_seconds = m.avg_epoch_time_steady().as_secs_f64();
        times.push(epoch_seconds);
        hit_of.insert(criterion.name(), m.avg_hit_ratio_steady());
        table.row(vec![
            criterion.name().to_string(),
            report::secs(epoch_seconds),
            report::pct(m.avg_hit_ratio_steady()),
            format!("{:.2}", m.final_top1()),
            format!("{:+.2}", m.final_top1() - default.final_top1()),
        ]);
        r.json(
            "ablation_criterion",
            &json!({"criterion": criterion.name(),
                    "epoch_seconds": epoch_seconds,
                    "hit_ratio": m.avg_hit_ratio_steady(),
                    "top1": m.final_top1()}),
        );
    }

    r.table(&table);
    let spread = hi(times.iter().copied()) / lo(times) - 1.0;
    r.check(
        "epoch times agree within 2% across criteria (the cache machinery is criterion-agnostic)",
        spread <= 0.02,
        format_args!("spread {:.1}%", spread * 100.0),
    );
    let ordered = ["gradnorm", "loss", "staleness"].map(|name| hit_of[name]);
    r.check(
        "gradnorm concentrates selection hardest, staleness explores most: hit ratio gradnorm >= loss >= staleness",
        ordered.windows(2).all(|w| w[0] >= w[1]),
        series(&ordered, " >= ", report::pct),
    );
}
