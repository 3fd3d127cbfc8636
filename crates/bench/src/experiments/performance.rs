//! Single-job performance experiments (§V-C, §V-D, §V-G): Figures 8–12,
//! 15 and 16.

use super::{hi, lo, run, series, Report};
use crate::{sweep, BenchEnv};
use icache_dnn::ModelProfile;
use icache_obs::json;
use icache_sim::{report, RunMetrics, Scenario, SystemKind};

// Positions in `SystemKind::figure8_lineup`.
const DEFAULT: usize = 0;
const BASE: usize = 1;
const ICACHE: usize = 5;
const ORACLE: usize = 6;

/// One model family of Figure 8; returns each model's epoch seconds in
/// [`SystemKind::figure8_lineup`] order.
fn run_family(
    r: &mut Report,
    family: &str,
    models: &[ModelProfile],
    base: impl Fn(SystemKind) -> Scenario + Sync,
    epochs: u32,
) -> Vec<Vec<f64>> {
    let lineup = SystemKind::figure8_lineup();
    let mut header: Vec<&str> = vec!["model"];
    header.extend(lineup.iter().map(|s| s.label()));
    header.push("iCache-speedup");
    let mut table = report::Table::new(header.iter().map(|s| s.to_string()).collect());

    r.line(format_args!(
        "--- {family} (avg epoch time, steady state) ---"
    ));
    // One task per (model, system) cell for load balance across worker
    // threads; results come back in submission order, so regrouping by
    // chunks of the lineup restores the per-model rows and the output
    // matches the sequential loop byte for byte.
    let cells_in: Vec<(ModelProfile, SystemKind)> = models
        .iter()
        .flat_map(|m| lineup.iter().map(|&sys| (m.clone(), sys)))
        .collect();
    let times = sweep::map(&cells_in, sweep::default_workers(), |_idx, (model, sys)| {
        run(base(*sys).model(model.clone()), epochs)
            .avg_epoch_time_steady()
            .as_secs_f64()
    });

    for (model, secs) in models.iter().zip(times.chunks(lineup.len())) {
        let mut cells = vec![model.name().to_string()];
        cells.extend(secs.iter().map(|&t| report::secs(t)));
        cells.push(report::speedup(secs[DEFAULT], secs[ICACHE]));
        table.row(cells);
        r.json(
            "fig08",
            &json!({
                "family": family,
                "model": model.name(),
                "systems": lineup.iter().map(|s| s.label()).collect::<Vec<_>>(),
                "epoch_seconds": secs.to_vec(),
            }),
        );
    }
    r.table(&table);
    times.chunks(lineup.len()).map(<[f64]>::to_vec).collect()
}

/// Figure 8: average training time per epoch — all eight models against
/// the full system lineup.
///
/// Paper findings: iCache achieves maximum speedups of 2.3×/2.3×/2.0×/
/// 1.9×/1.6× over Default/Base/Quiver/CoorDL/iLFU on CIFAR-10 (and
/// 2.2×/2.1×/1.7×/1.8×/1.5× on ImageNet); Base helps least; iCache is
/// near Oracle for the compute-heavy VGG11/DenseNet121.
pub(super) fn fig08_epoch_time(env: &BenchEnv, r: &mut Report) {
    let cifar_models = ModelProfile::cifar_models();
    let imagenet_models = ModelProfile::imagenet_models();
    let epochs = env.perf_epochs;
    let cifar = run_family(r, "CIFAR-10", &cifar_models, |sys| env.cifar(sys), epochs);
    let imagenet = run_family(
        r,
        "ImageNet",
        &imagenet_models,
        |sys| env.imagenet(sys),
        epochs,
    );

    let all = cifar.iter().chain(&imagenet);
    let closest_rival = lo(all.flat_map(|s| s[..ICACHE].iter().map(|&t| t / s[ICACHE])));
    r.check(
        "iCache fastest after Oracle on every model",
        closest_rival > 1.0,
        format_args!("closest rival at {closest_rival:.2}x iCache's epoch time"),
    );
    let base_gap = hi(cifar.iter().map(|s| (s[BASE] / s[DEFAULT] - 1.0).abs()));
    r.check(
        "Base within 5% of Default on every (I/O-bound) CIFAR-10 model",
        base_gap <= 0.05,
        format_args!("largest gap {:.1}%", base_gap * 100.0),
    );
    let speedups: Vec<f64> = cifar.iter().map(|s| s[DEFAULT] / s[ICACHE]).collect();
    let shufflenet = cifar_models.iter().position(|m| m.name() == "shufflenet");
    let shufflenet = speedups[shufflenet.expect("ShuffleNet is a CIFAR-10 model")];
    let largest = hi(speedups);
    r.check(
        "ShuffleNet's speedup within 0.05x of the largest on CIFAR-10",
        largest - shufflenet <= 0.05,
        format_args!("{shufflenet:.2}x vs {largest:.2}x"),
    );
    let vs_oracle: Vec<f64> = imagenet_models
        .iter()
        .zip(&imagenet)
        .filter(|(m, _)| ["vgg11", "densenet121"].contains(&m.name()))
        .map(|(_, s)| s[ICACHE] / s[ORACLE])
        .collect();
    r.check(
        "iCache no slower than Oracle on compute-heavy VGG11/DenseNet121",
        hi(vs_oracle.iter().copied()) <= 1.0,
        format_args!(
            "iCache/Oracle epoch time {}",
            series(&vs_oracle, ", ", |x| format!("{x:.2}x"))
        ),
    );
}

/// Figure 9: I/O (data-stall) time per epoch on CIFAR-10.
///
/// Paper findings: iCache reduces I/O time by 2.4× on average over
/// Default, vs 1.2×/1.3×/1.4× for Quiver/CoorDL/iLFU — and Base is 1.3×
/// *worse* than Default because CIS shrinks the compute that used to hide
/// I/O.
pub(super) fn fig09_io_time(env: &BenchEnv, r: &mut Report) {
    let systems = [
        SystemKind::Default,
        SystemKind::Base,
        SystemKind::Quiver,
        SystemKind::CoorDl,
        SystemKind::Ilfu,
        SystemKind::Icache,
    ];
    let mut header: Vec<&str> = vec!["model"];
    header.extend(systems.iter().map(|s| s.label()));
    header.push("iCache-io-speedup");
    let mut table = report::Table::new(header.iter().map(|s| s.to_string()).collect());

    let mut avg_speedup = 0.0;
    // Every rival's stall over iCache's, and Base's over Default's.
    let (mut rivals, mut base_over_default) = (Vec::new(), Vec::new());
    for model in ModelProfile::cifar_models() {
        let mut cells = vec![model.name().to_string()];
        let mut stalls = Vec::new();
        for &sys in &systems {
            let m = run(env.cifar(sys).model(model.clone()), env.perf_epochs);
            let t = m.avg_stall_time_steady().as_secs_f64();
            stalls.push(t);
            cells.push(report::secs(t));
        }
        let sp = stalls[0] / stalls[5].max(1e-12);
        avg_speedup += sp / 4.0;
        cells.push(format!("{sp:.2}x"));
        table.row(cells);
        rivals.extend(stalls[..5].iter().map(|t| t / stalls[5].max(1e-12)));
        base_over_default.push(stalls[1] / stalls[0]);
        r.json(
            "fig09",
            &json!({
                "model": model.name(),
                "systems": systems.iter().map(|s| s.label()).collect::<Vec<_>>(),
                "stall_seconds": stalls,
            }),
        );
    }

    r.table(&table);
    r.line(format_args!(
        "average iCache I/O-time speedup over Default: {avg_speedup:.2}x (paper: 2.4x)"
    ));
    let closest_rival = lo(rivals);
    r.check(
        "iCache has the lowest stall time on every model",
        closest_rival > 1.0,
        format_args!("closest rival at {closest_rival:.2}x iCache's stall"),
    );
    let least = lo(base_over_default);
    r.check(
        "Base stalls at least as long as Default on every model (paper: 1.3x)",
        least >= 1.0,
        format_args!("smallest Base/Default {least:.2}x"),
    );
}

const ABLATION_LABELS: [&str; 4] = ["Base", "+IIS", "+HC", "All"];

/// The technique ablation behind Figures 10 and 11: ShuffleNet and
/// ResNet50 on CIFAR-10, variants stacked on Base (CIS + LRU): `+IIS`
/// (fetch-reducing sampling), `+HC` (importance-managed H-cache), `All`
/// (L-cache enabled too). Returns each model's (epoch seconds, hit
/// ratio) per variant, in [`ABLATION_LABELS`] order.
fn ablation_sweep(env: &BenchEnv) -> Vec<(ModelProfile, Vec<(f64, f64)>)> {
    let variants = [
        SystemKind::Base,
        SystemKind::IisLru,
        SystemKind::IcacheNoL,
        SystemKind::Icache,
    ];
    [ModelProfile::shufflenet(), ModelProfile::resnet50()]
        .into_iter()
        .map(|model| {
            let measured = variants.iter().map(|&sys| {
                let m = run(env.cifar(sys).model(model.clone()), env.perf_epochs);
                (
                    m.avg_epoch_time_steady().as_secs_f64(),
                    m.avg_hit_ratio_steady(),
                )
            });
            (model.clone(), measured.collect())
        })
        .collect()
}

/// The `model` cell of an ablation row: named on a model's first row only.
fn ablation_model_cell(model: &ModelProfile, variant: usize) -> String {
    if variant == 0 {
        model.name().to_string()
    } else {
        String::new()
    }
}

/// Figure 10: contribution of each iCache technique to training time.
///
/// Paper speedups over Base for ShuffleNet: 1.4× / 1.7× / 2.3×.
pub(super) fn fig10_ablation_time(env: &BenchEnv, r: &mut Report) {
    let mut table =
        report::Table::with_columns(&["model", "variant", "epoch time", "speedup vs Base"]);
    let sweep = ablation_sweep(env);
    for (model, variants) in &sweep {
        let base_time = variants[0].0;
        for (i, (label, &(t, _))) in ABLATION_LABELS.iter().zip(variants).enumerate() {
            table.row(vec![
                ablation_model_cell(model, i),
                label.to_string(),
                report::secs(t),
                report::speedup(base_time, t),
            ]);
            r.json(
                "fig10",
                &json!({"model": model.name(), "variant": *label, "epoch_seconds": t,
                        "speedup_vs_base": base_time / t}),
            );
        }
    }

    r.table(&table);
    let shufflenet: Vec<f64> = sweep[0].1.iter().map(|v| sweep[0].1[0].0 / v.0).collect();
    r.check(
        "epoch time falls Base > +IIS > +HC > All on both models (paper: 1 / 1.4 / 1.7 / 2.3)",
        sweep
            .iter()
            .all(|(_, v)| v.windows(2).all(|w| w[1].0 < w[0].0)),
        format_args!(
            "ShuffleNet speedups {}",
            series(&shufflenet, " / ", |x| format!("{x:.2}"))
        ),
    );
}

/// Figure 11: cache hit ratio with individual techniques enabled.
///
/// Paper findings (ShuffleNet/CIFAR-10): the LRU baseline sits at ~2 %
/// hits; enabling the importance-managed H-cache lifts it to ~25 %; the
/// L-cache's substitution adds further hits for ~37 % total.
pub(super) fn fig11_ablation_hitratio(env: &BenchEnv, r: &mut Report) {
    let mut table = report::Table::with_columns(&["model", "variant", "hit ratio"]);
    let sweep = ablation_sweep(env);
    for (model, variants) in &sweep {
        for (i, (label, &(_, hit))) in ABLATION_LABELS.iter().zip(variants).enumerate() {
            table.row(vec![
                ablation_model_cell(model, i),
                label.to_string(),
                report::pct(hit),
            ]);
            r.json(
                "fig11",
                &json!({"model": model.name(), "variant": *label, "hit_ratio": hit}),
            );
        }
    }

    r.table(&table);
    let shufflenet = &sweep[0].1;
    r.check(
        "hit ratio climbs Base < +HC < All on both models (paper: 2% -> 25% -> 37%)",
        sweep
            .iter()
            .all(|(_, v)| v[0].1 < v[2].1 && v[2].1 < v[3].1),
        format_args!(
            "ShuffleNet {}",
            series(
                &[shufflenet[0].1, shufflenet[2].1, shufflenet[3].1],
                " -> ",
                report::pct
            )
        ),
    );
}

/// Default and iCache on `model` at every point of a one-knob CIFAR-10
/// sweep (`knob` applies a point to a scenario). The points are
/// independent simulation pairs, so they run on worker threads and come
/// back in point order: the output matches the sequential loop byte for
/// byte.
fn default_vs_icache<P: Copy + Sync>(
    env: &BenchEnv,
    model: ModelProfile,
    points: &[P],
    knob: impl Fn(Scenario, P) -> Scenario + Sync,
) -> Vec<(RunMetrics, RunMetrics)> {
    sweep::map(points, sweep::default_workers(), |_idx, &point| {
        let at = |sys| {
            let scenario = env.cifar(sys).model(model.clone());
            run(knob(scenario, point), env.perf_epochs)
        };
        (at(SystemKind::Default), at(SystemKind::Icache))
    })
}

fn epoch_seconds(pair: &(RunMetrics, RunMetrics)) -> (f64, f64) {
    (
        pair.0.avg_epoch_time_steady().as_secs_f64(),
        pair.1.avg_epoch_time_steady().as_secs_f64(),
    )
}

/// Figure 12: single-job multi-GPU training.
///
/// Paper findings (ResNet50/CIFAR-10): Default's epoch time barely moves
/// as GPUs grow 1→8 — I/O dominates and extra GPUs only add communication
/// — while iCache keeps a ~2.3× average advantage and improves slightly
/// with more GPUs.
pub(super) fn fig12_multi_gpu(env: &BenchEnv, r: &mut Report) {
    let gpus = [1usize, 2, 4, 8];
    let mut table = report::Table::with_columns(&["gpus", "Default", "iCache", "speedup"]);
    let mut avg = 0.0;
    let (mut default_times, mut speedups) = (Vec::new(), Vec::new());

    let runs = default_vs_icache(env, ModelProfile::resnet50(), &gpus, Scenario::gpus);
    for (&g, (d, i)) in gpus.iter().zip(runs.iter().map(epoch_seconds)) {
        default_times.push(d);
        speedups.push(d / i);
        avg += d / i / gpus.len() as f64;
        table.row(vec![
            g.to_string(),
            report::secs(d),
            report::secs(i),
            report::speedup(d, i),
        ]);
        r.json(
            "fig12",
            &json!({"gpus": g, "default_seconds": d, "icache_seconds": i}),
        );
    }

    r.table(&table);
    let spread = hi(default_times.iter().copied()) / lo(default_times);
    r.line(format_args!(
        "average iCache speedup: {avg:.2}x (paper: 2.3x)"
    ));
    r.line(format_args!(
        "Default max/min epoch-time across GPU counts: {spread:.2} (paper: ~flat)"
    ));
    r.check(
        "Default flat across GPU counts: max/min epoch time at most 1.10",
        spread <= 1.10,
        format_args!("{spread:.2}"),
    );
    let least = lo(speedups);
    r.check(
        "iCache faster than Default at every GPU count",
        least > 1.0,
        format_args!("smallest speedup {least:.2}x"),
    );
}

/// Figure 15: sensitivity to the number of prefetching workers.
///
/// Paper findings (ResNet18/CIFAR-10): iCache's speedup over Default
/// shrinks from 3.9× with 2 workers to 1.2× with 16 — more workers hide
/// more I/O — but commodity servers give only 3-4 cores per GPU, so the
/// ≤8-worker regime is the realistic one.
pub(super) fn fig15_workers(env: &BenchEnv, r: &mut Report) {
    let workers = [2usize, 4, 6, 8, 16];
    let mut table = report::Table::with_columns(&["workers", "Default", "iCache", "speedup"]);
    let mut speedups = Vec::new();

    let runs = default_vs_icache(env, ModelProfile::resnet18(), &workers, Scenario::workers);
    for (&w, (d, i)) in workers.iter().zip(runs.iter().map(epoch_seconds)) {
        speedups.push(d / i);
        table.row(vec![
            w.to_string(),
            report::secs(d),
            report::secs(i),
            report::speedup(d, i),
        ]);
        r.json(
            "fig15",
            &json!({"workers": w, "default_seconds": d, "icache_seconds": i}),
        );
    }

    r.table(&table);
    let shown = series(&speedups, " -> ", |s| format!("{s:.2}x"));
    r.check(
        "speedup at 16 workers below speedup at 2 workers (paper: 3.9x -> 1.2x)",
        speedups[speedups.len() - 1] < speedups[0],
        &shown,
    );
    r.check(
        "speedup non-increasing at every step of the sweep",
        speedups.windows(2).all(|w| w[1] <= w[0]),
        &shown,
    );
}

/// Figure 16: sensitivity to cache size.
///
/// Paper findings (ResNet18/CIFAR-10): iCache keeps ≥1.7× speedup as the
/// cache grows from 20 % to 80 % of the dataset, and even at 80 % its hit
/// ratio remains ~1.7× Default's.
pub(super) fn fig16_cache_size(env: &BenchEnv, r: &mut Report) {
    let sizes = [0.2f64, 0.4, 0.6, 0.8];
    let mut table = report::Table::with_columns(&[
        "cache",
        "Default",
        "iCache",
        "speedup",
        "Default hit",
        "iCache hit",
    ]);

    let runs = default_vs_icache(
        env,
        ModelProfile::resnet18(),
        &sizes,
        Scenario::cache_fraction,
    );
    let mut speedups = Vec::new();
    let (mut default_hits, mut icache_hits) = (Vec::new(), Vec::new());
    for (&frac, pair) in sizes.iter().zip(&runs) {
        let (dt, it) = epoch_seconds(pair);
        let (d, i) = pair;
        speedups.push(dt / it);
        default_hits.push(d.avg_hit_ratio_steady());
        icache_hits.push(i.avg_hit_ratio_steady());
        table.row(vec![
            report::pct(frac),
            report::secs(dt),
            report::secs(it),
            report::speedup(dt, it),
            report::pct(d.avg_hit_ratio_steady()),
            report::pct(i.avg_hit_ratio_steady()),
        ]);
        r.json(
            "fig16",
            &json!({"cache_fraction": frac,
                    "default_seconds": dt, "icache_seconds": it,
                    "default_hit": d.avg_hit_ratio_steady(),
                    "icache_hit": i.avg_hit_ratio_steady()}),
        );
    }

    r.table(&table);
    let least = lo(speedups);
    r.check(
        "speedup at least 1.5x at every cache size (paper: >=1.7x)",
        least >= 1.5,
        format_args!("smallest {least:.2}x"),
    );
    let rising = |hits: &[f64]| hits.windows(2).all(|w| w[0] < w[1]);
    r.check(
        "both hit ratios grow with capacity and iCache's stays ahead at every size",
        rising(&default_hits)
            && rising(&icache_hits)
            && default_hits.iter().zip(&icache_hits).all(|(d, i)| i > d),
        format_args!(
            "Default {}, iCache {}",
            series(&default_hits, " < ", report::pct),
            series(&icache_hits, " < ", report::pct)
        ),
    );
}
