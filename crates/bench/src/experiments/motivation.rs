//! The paper's motivating measurements (§II): Figures 1–3.

use super::{hi, lo, run, series, steady_mean, Report};
use crate::BenchEnv;
use icache_baselines::LruCache;
use icache_dnn::ModelProfile;
use icache_obs::json;
use icache_sim::{
    report, JobConfig, RunMetrics, SamplingMode, StorageKind, SystemKind, TrainingJob,
};
use icache_storage::{Pfs, PfsConfig};
use icache_types::{JobId, SampleId, SimDuration};

/// Figure 1: I/O time fraction of total training time vs batch size.
///
/// Paper setup: four CIFAR-10 models on 4 GPUs behind an LRU cache (20 %)
/// over OrangeFS, batch size 256→2048. Finding: the I/O fraction grows
/// from 44 % to 89 % on average — bigger batches shrink GPU time per
/// sample but not I/O time per sample.
pub(super) fn fig01_io_fraction(env: &BenchEnv, r: &mut Report) {
    let batches = [256usize, 512, 1024, 2048];
    let mut table = report::Table::with_columns(&["model", "b=256", "b=512", "b=1024", "b=2048"]);
    let mut avgs = vec![0.0f64; batches.len()];

    for model in ModelProfile::cifar_models() {
        let mut cells = vec![model.name().to_string()];
        for (bi, &bs) in batches.iter().enumerate() {
            let scenario = env.cifar(SystemKind::Default).model(model.clone());
            let m = run(scenario.batch_size(bs).gpus(4), env.perf_epochs);
            let frac = steady_mean(&m, |e| e.stall_fraction());
            avgs[bi] += frac / 4.0;
            cells.push(report::pct(frac));
            r.json(
                "fig01",
                &json!({"model": model.name(), "batch": bs, "io_fraction": frac}),
            );
        }
        table.row(cells);
    }
    let mut avg_row = vec!["AVERAGE".to_string()];
    avg_row.extend(avgs.iter().map(|f| report::pct(*f)));
    table.row(avg_row);

    r.table(&table);
    r.check(
        "average I/O fraction increases monotonically with batch size (paper: 44% -> 89%)",
        avgs.windows(2).all(|w| w[0] < w[1]),
        series(&avgs, " < ", report::pct),
    );
    r.check(
        "average I/O fraction at batch 256 within 20 points of the paper's 44%",
        (avgs[0] - 0.44).abs() <= 0.20,
        report::pct(avgs[0]),
    );
}

/// Figure 2: computing-oriented importance sampling (CIS) helps on local
/// tmpfs but not against remote storage.
///
/// Paper setup: four CIFAR-10 models, one GPU, batch 256. With the data in
/// a local DRAM tmpfs CIS cuts compute 1.3× and total time 1.2×; against
/// remote OrangeFS behind an LRU cache the total speedup collapses to
/// ~1.02× because I/O, which CIS cannot reduce, dominates.
pub(super) fn fig02_cis_limits(env: &BenchEnv, r: &mut Report) {
    let mut table = report::Table::with_columns(&[
        "model",
        "tmpfs compute-speedup",
        "tmpfs total-speedup",
        "pfs total-speedup",
    ]);
    let (mut on_tmpfs, mut on_pfs) = (Vec::new(), Vec::new());

    for model in ModelProfile::cifar_models() {
        let on = |system: SystemKind, storage: StorageKind| {
            let scenario = env.cifar(system).model(model.clone());
            run(scenario.storage(storage), env.perf_epochs)
        };
        let tmpfs_default = on(SystemKind::Default, StorageKind::Tmpfs);
        let tmpfs_cis = on(SystemKind::Base, StorageKind::Tmpfs);
        let pfs_default = on(SystemKind::Default, StorageKind::OrangeFs);
        let pfs_cis = on(SystemKind::Base, StorageKind::OrangeFs);

        let compute = |m: &RunMetrics| {
            m.epochs[1..]
                .iter()
                .map(|e| e.compute_time)
                .sum::<SimDuration>()
        };
        let compute_speedup =
            compute(&tmpfs_default).as_secs_f64() / compute(&tmpfs_cis).as_secs_f64();
        let tmpfs_speedup = tmpfs_default.avg_epoch_time_steady().as_secs_f64()
            / tmpfs_cis.avg_epoch_time_steady().as_secs_f64();
        let pfs_speedup = pfs_default.avg_epoch_time_steady().as_secs_f64()
            / pfs_cis.avg_epoch_time_steady().as_secs_f64();
        on_tmpfs.push(tmpfs_speedup);
        on_pfs.push(pfs_speedup);

        table.row(vec![
            model.name().to_string(),
            format!("{compute_speedup:.2}x"),
            format!("{tmpfs_speedup:.2}x"),
            format!("{pfs_speedup:.2}x"),
        ]);
        r.json(
            "fig02",
            &json!({
                "model": model.name(),
                "tmpfs_compute_speedup": compute_speedup,
                "tmpfs_total_speedup": tmpfs_speedup,
                "pfs_total_speedup": pfs_speedup,
            }),
        );
    }

    r.table(&table);
    let (least, most) = (lo(on_tmpfs), hi(on_pfs));
    r.check(
        "CIS total speedup on tmpfs at least 1.10x on every model (paper: 1.2x)",
        least >= 1.10,
        format_args!("smallest {least:.2}x"),
    );
    r.check(
        "CIS total speedup on the PFS at most 1.05x on every model (paper: 1.02x)",
        most <= 1.05,
        format_args!("largest {most:.2}x"),
    );
}

/// Figure 3: the importance value of a sample drifts across epochs.
///
/// Paper setup: loss-based importance sampling while training ResNet18 on
/// CIFAR-10; the recorded importance of three samples fluctuates and
/// decays as the model's parameters evolve — which is why a static
/// importance snapshot (or LFU-style frequency) misranks samples and the
/// H-heap must be refreshed every epoch.
pub(super) fn fig03_importance_drift(env: &BenchEnv, r: &mut Report) {
    let dataset = env.cifar_dataset();
    let mut cfg = JobConfig::new(JobId(0), ModelProfile::resnet18(), dataset.clone());
    cfg.sampling = SamplingMode::Iis { fraction: 0.7 };
    cfg.epochs = 40.min(env.acc_epochs);
    cfg.seed = env.seed;

    let mut job = TrainingJob::new(cfg).expect("an IIS job over scaled CIFAR-10 is valid");
    let mut cache = LruCache::new(dataset.total_bytes().scaled(0.2));
    let mut storage =
        Pfs::new(PfsConfig::orangefs_default()).expect("the OrangeFS preset is valid");

    // Track three samples spread across the difficulty spectrum.
    let tracked = [
        SampleId(0),
        SampleId(dataset.len() / 2),
        SampleId(dataset.len() - 1),
    ];
    let mut series: Vec<Vec<f64>> = vec![Vec::new(); tracked.len()];

    while !job.is_done() {
        let before = job.current_epoch();
        job.step(&mut cache, &mut storage);
        if job.current_epoch() != before {
            for (k, &id) in tracked.iter().enumerate() {
                series[k].push(job.importance_table().value(id).get());
            }
        }
    }

    let mut table = report::Table::with_columns(&["epoch", "sample0", "sample1", "sample2"]);
    for (e, ((s0, s1), s2)) in series[0].iter().zip(&series[1]).zip(&series[2]).enumerate() {
        table.row(vec![
            e.to_string(),
            format!("{s0:.3}"),
            format!("{s1:.3}"),
            format!("{s2:.3}"),
        ]);
    }
    r.line(table.render());

    let transitions = series[0].len().saturating_sub(1);
    let mut fewest_changes = usize::MAX;
    for (k, s) in series.iter().enumerate() {
        r.json("fig03", &json!({"sample": k, "importance_by_epoch": s}));
        let changes = s.windows(2).filter(|w| (w[0] - w[1]).abs() > 1e-9).count();
        fewest_changes = fewest_changes.min(changes);
        r.line(format_args!(
            "sample{k}: importance changed in {changes}/{transitions} epoch transitions"
        ));
    }
    r.line("");
    r.check(
        "every tracked sample's importance changes in at least half of the epoch transitions",
        2 * fewest_changes >= transitions,
        format_args!("fewest {fewest_changes}/{transitions}"),
    );
    let ends: Vec<String> = series
        .iter()
        .map(|s| format!("{:.3} -> {:.3}", s[0], s[s.len() - 1]))
        .collect();
    r.check(
        "every tracked sample's importance ends below where it started",
        series.iter().all(|s| s[s.len() - 1] < s[0]),
        ends.join(", "),
    );
}
