//! Accuracy experiments (§V-B): Tables I–III and Figure 7.

use super::{hi, lo, run, Report};
use crate::BenchEnv;
use icache_dnn::ModelProfile;
use icache_obs::json;
use icache_sim::{report, Scenario, SystemKind};

/// The two table rows of one model: final top-1 and top-5 under each
/// system, then the signed top-1/top-5 difference for every `(a, b)`
/// column pair in `deltas`.
fn accuracy_rows(
    table: &mut report::Table,
    model: &str,
    top1: &[f64],
    top5: &[f64],
    deltas: &[(usize, usize)],
) {
    for (first, metric, acc) in [(model, "top1", top1), ("", "top5", top5)] {
        let mut cells = vec![first.to_string(), metric.to_string()];
        cells.extend(acc.iter().map(|a| format!("{a:.2}")));
        cells.extend(
            deltas
                .iter()
                .map(|&(a, b)| format!("{:+.2}", acc[a] - acc[b])),
        );
        table.row(cells);
    }
}

/// Tables I and II are one experiment over a model family: final
/// top-1/top-5 accuracy under Default / Quiver / CoorDL / iCache, and a
/// check that iCache's top-1 loss stays inside the paper's `band`.
fn accuracy_table(
    r: &mut Report,
    tag: &str,
    models: Vec<ModelProfile>,
    base: impl Fn(SystemKind) -> Scenario,
    epochs: u32,
    band: f64,
) {
    let systems = [
        SystemKind::Default,
        SystemKind::Quiver,
        SystemKind::CoorDl,
        SystemKind::Icache,
    ];
    let mut table = report::Table::with_columns(&[
        "model",
        "metric",
        "Default",
        "Quiver",
        "CoorDL",
        "iCache",
        "iCache-delta",
    ]);
    let mut losses = Vec::new();

    for model in models {
        let runs = systems.map(|sys| run(base(sys).model(model.clone()), epochs));
        let top1: Vec<f64> = runs.iter().map(|m| m.final_top1()).collect();
        let top5: Vec<f64> = runs.iter().map(|m| m.final_top5()).collect();
        accuracy_rows(&mut table, model.name(), &top1, &top5, &[(3, 0)]);
        losses.push(top1[0] - top1[3]);
        r.json(
            tag,
            &json!({"model": model.name(), "top1": top1, "top5": top5,
                    "systems": ["default", "quiver", "coordl", "icache"]}),
        );
    }

    r.table(&table);
    let worst = hi(losses);
    r.check(
        &format!("iCache top-1 within {band:.1} points of Default on every model"),
        worst <= band,
        format_args!("largest loss {worst:.2}"),
    );
}

/// Table I: CIFAR-10 model accuracy under different cache schemes.
///
/// Paper finding: iCache's top-1/top-5 accuracy stays within 1 % of
/// Default on every CIFAR-10 model (losses of 0.80/0.56/0.36/0.55 points
/// on ResNet18/ResNet50/ShuffleNet/MobileNet respectively).
pub(super) fn table1_accuracy_cifar(env: &BenchEnv, r: &mut Report) {
    let models = ModelProfile::cifar_models();
    accuracy_table(
        r,
        "table1",
        models,
        |sys| env.cifar(sys),
        env.acc_epochs,
        1.0,
    );
}

/// Table II: ImageNet model accuracy under different cache schemes.
///
/// Paper finding: on ImageNet the accuracy losses of iCache stay within
/// 2 % of Default for all four models.
pub(super) fn table2_accuracy_imagenet(env: &BenchEnv, r: &mut Report) {
    let models = ModelProfile::imagenet_models();
    accuracy_table(
        r,
        "table2",
        models,
        |sys| env.imagenet(sys),
        env.acc_epochs,
        2.0,
    );
}

/// One workload's Default-vs-iCache top-5 curves for Figure 7.
fn curves(r: &mut Report, name: &str, base: impl Fn(SystemKind) -> Scenario, epochs: u32) {
    let default = run(base(SystemKind::Default), epochs);
    let icache = run(base(SystemKind::Icache), epochs);

    r.line(format_args!("--- {name} ---"));
    let mut table = report::Table::with_columns(&["epoch", "Default top5", "iCache top5", "gap"]);
    let step = (epochs as usize / 15).max(1);
    for e in (0..epochs as usize)
        .step_by(step)
        .chain([epochs as usize - 1])
    {
        let d = default.epochs[e].top5;
        let i = icache.epochs[e].top5;
        table.row(vec![
            e.to_string(),
            format!("{d:.2}"),
            format!("{i:.2}"),
            format!("{:+.2}", i - d),
        ]);
    }
    r.line(table.render());
    let max_gap = default
        .epochs
        .iter()
        .zip(&icache.epochs)
        .skip(5) // early epochs are noisy in both systems
        .map(|(d, i)| (d.top5 - i.top5).abs())
        .fold(0.0f64, f64::max);
    r.line(format_args!(
        "max |gap| after epoch 5: {max_gap:.2} points\n"
    ));
    r.json(
        "fig07",
        &json!({
            "workload": name,
            "default_top5": default.epochs.iter().map(|e| e.top5).collect::<Vec<_>>(),
            "icache_top5": icache.epochs.iter().map(|e| e.top5).collect::<Vec<_>>(),
        }),
    );
    let final_gap = icache.final_top5() - default.final_top5();
    r.check(
        &format!("{name}: final top-5 gap within 1 point"),
        final_gap.abs() <= 1.0,
        format_args!("{final_gap:+.2}"),
    );
    r.check(
        &format!("{name}: curves within 2 points throughout (after epoch 5)"),
        max_gap <= 2.0,
        format_args!("max |gap| {max_gap:.2}"),
    );
}

/// Figure 7: top-5 accuracy convergence curves, iCache vs Default.
///
/// Paper setup: ResNet18/CIFAR-10 and SqueezeNet/ImageNet over 90 epochs;
/// the iCache curve closely tracks Default's.
pub(super) fn fig07_convergence(env: &BenchEnv, r: &mut Report) {
    curves(
        r,
        "ResNet18 / CIFAR-10",
        |sys| env.cifar(sys).model(ModelProfile::resnet18()),
        env.acc_epochs,
    );
    curves(
        r,
        "SqueezeNet / ImageNet",
        |sys| env.imagenet(sys).model(ModelProfile::squeezenet()),
        env.acc_epochs,
    );
}

/// Table III: impact of the sample-substitution policy on accuracy.
///
/// Paper findings (CIFAR-10): relative to iCache without substitution
/// (`Def`), substituting L-misses from L-cache (`ST_LC`) costs ~0.56
/// top-1 points on ResNet18 while substituting from H-cache (`ST_HC`)
/// costs ~0.81 — hence iCache adopts `ST_LC`.
pub(super) fn table3_substitution(env: &BenchEnv, r: &mut Report) {
    let policies = [
        SystemKind::IcacheNoSub,
        SystemKind::IcacheSubH,
        SystemKind::Icache,
    ];
    let labels = ["Def", "ST_HC", "ST_LC"];

    let mut table = report::Table::with_columns(&[
        "model", "metric", "Def", "ST_HC", "ST_LC", "LC-delta", "HC-delta",
    ]);
    // Per model: top-1 points ST_LC loses to Def, and ST_HC loses to ST_LC.
    let (mut lc_loss, mut hc_loss) = (Vec::new(), Vec::new());

    for model in [
        ModelProfile::resnet18(),
        ModelProfile::shufflenet(),
        ModelProfile::resnet50(),
        ModelProfile::mobilenet(),
    ] {
        let runs = policies.map(|sys| run(env.cifar(sys).model(model.clone()), env.acc_epochs));
        let top1: Vec<f64> = runs.iter().map(|m| m.final_top1()).collect();
        let top5: Vec<f64> = runs.iter().map(|m| m.final_top5()).collect();
        accuracy_rows(&mut table, model.name(), &top1, &top5, &[(2, 0), (1, 0)]);
        lc_loss.push(top1[0] - top1[2]);
        hc_loss.push(top1[2] - top1[1]);
        r.json(
            "table3",
            &json!({"model": model.name(), "policies": labels, "top1": top1, "top5": top5}),
        );
    }

    r.table(&table);
    let (lc_least, hc_least) = (lo(lc_loss.iter().copied()), lo(hc_loss));
    r.check(
        "top-1 ordered Def > ST_LC > ST_HC on every model",
        lc_least > 0.0 && hc_least > 0.0,
        format_args!("smallest gaps: Def - ST_LC {lc_least:.2}, ST_LC - ST_HC {hc_least:.2}"),
    );
    let lc_most = hi(lc_loss);
    r.check(
        "ST_LC loses less than 1 top-1 point on every model (paper: 0.56 on ResNet18)",
        lc_most < 1.0,
        format_args!("largest loss {lc_most:.2}"),
    );
}
