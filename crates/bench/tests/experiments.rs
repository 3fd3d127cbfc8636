//! The experiment registry and `icache_experiments`: byte goldens for
//! every registered experiment, the `--check` contract, the CLI's
//! refusals, and the committed artifacts (`results/`, DESIGN.md §3,
//! EXPERIMENTS.md) that must list exactly what the registry lists.
//!
//! The goldens under `tests/golden/experiments/` were recorded from the
//! 22 per-figure binaries of the commit before the registry existed, at
//! the smoke scale below; only their `shape check:` / `expectation:`
//! lines were then replaced by the computed verdicts.

use icache_bench::experiments::{Expected, Experiment, Report, EXPERIMENTS};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const SMOKE_SCALE: [&str; 8] = [
    "--cifar-scale",
    "0.02",
    "--imagenet-scale",
    "0.002",
    "--perf-epochs",
    "2",
    "--acc-epochs",
    "10",
];

fn repo_file(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_icache_experiments"))
        .args(args)
        .output()
        .expect("icache_experiments runs")
}

fn stdout_of(args: &[&str]) -> String {
    let out = experiments(args);
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn every_experiment_matches_its_smoke_scale_golden() {
    let dir = std::env::temp_dir().join(format!("icache_experiments_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut args = vec![
        "--parallel",
        "2",
        "--out",
        dir.to_str().expect("utf-8 path"),
    ];
    args.extend(SMOKE_SCALE);
    let listing = stdout_of(&args);
    assert_eq!(listing.lines().count(), EXPERIMENTS.len(), "{listing}");
    for e in EXPERIMENTS {
        let got = read(&dir.join(format!("{}.txt", e.id)));
        let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden/experiments")
            .join(format!("{}.txt", e.id));
        assert!(
            got == read(&golden),
            "{} differs from its golden:\n{got}",
            e.id
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn parallel_fan_out_prints_the_sequential_bytes() {
    let run = |workers: &str| {
        let mut args = vec![
            "--only",
            "fig08_epoch_time,fig13_distributed",
            "--parallel",
            workers,
        ];
        args.extend(SMOKE_SCALE);
        stdout_of(&args)
    };
    let sequential = run("1");
    assert!(sequential.contains("=== Figure 8") && sequential.contains("=== Figure 13"));
    assert_eq!(run("2"), sequential);
}

#[test]
fn list_and_help_run_nothing() {
    let listing = stdout_of(&["--list"]);
    let ids: Vec<&str> = listing
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let registry: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    assert_eq!(ids, registry);
    assert_eq!(ids.len(), 22);

    let help = stdout_of(&["--help"]);
    assert!(help.contains("--only <value>"), "{help}");
    assert!(!help.contains("==="), "--help ran an experiment:\n{help}");
}

#[test]
fn bad_input_is_one_error_line_and_runs_nothing() {
    let cases: [(&[&str], &str); 6] = [
        (&["--seed", "5EED"], "error: --seed: invalid digit"),
        (
            &["--perf-epochs", "two"],
            "error: --perf-epochs: invalid digit",
        ),
        (
            &["--perf-epochs", "1"],
            "error: --perf-epochs: must be at least 2",
        ),
        (&["--cifar-scale", "1.5"], "error: --cifar-scale: "),
        (&["--imagenet-scale", "0"], "error: --imagenet-scale: "),
        (
            &["--only", "fig08_epoch_time,fig99"],
            "error: unknown experiment `fig99` (valid ids: fig01_io_fraction, ",
        ),
    ];
    for (args, expect) in cases {
        let out = experiments(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(expect) && stderr.lines().count() == 1,
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
    let out = experiments(&["--only", "nope"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    for e in EXPERIMENTS {
        assert!(stderr.contains(e.id), "{} missing from: {stderr}", e.id);
    }
}

#[test]
fn hex_seed_is_the_documented_default() {
    let run = |seed: &[&str]| {
        let mut args = vec!["--only", "fig12_multi_gpu"];
        args.extend(seed);
        args.extend(SMOKE_SCALE);
        stdout_of(&args)
    };
    let default = run(&[]);
    assert_eq!(run(&["--seed", "0x5EED"]), default);
    assert_eq!(run(&["--seed", "24301"]), default);
    assert_ne!(run(&["--seed", "7"]), default);
}

fn registered(expected: Expected) -> Experiment {
    Experiment {
        id: "probe",
        title: "a probe",
        paper_claim: "none",
        expected,
        run: |_, r| r.check("unused", true, ""),
    }
}

fn output(verdicts: &[bool]) -> String {
    let mut r = Report::default();
    r.line("a table row");
    for (i, &holds) in verdicts.iter().enumerate() {
        r.check(
            &format!("claim {i} (paper: 2x)"),
            holds,
            format_args!("{i}.5x vs 2x"),
        );
    }
    r.text().to_string()
}

#[test]
fn check_fails_on_a_violated_hold_and_on_a_deviation_that_holds() {
    let holds = registered(Expected::Holds);
    assert_eq!(holds.verdict(&output(&[true, true])), Ok(()));
    let err = holds.verdict(&output(&[true, false])).unwrap_err();
    assert_eq!(err, "probe: 1 of 2 shape checks VIOLATED");

    let deviates = registered(Expected::KnownDeviation("the model is coarse"));
    assert_eq!(deviates.verdict(&output(&[true, false])), Ok(()));
    let err = deviates.verdict(&output(&[true, true])).unwrap_err();
    assert!(
        err.starts_with("probe: every shape check holds but"),
        "{err}"
    );
    assert!(err.contains("the model is coarse"), "{err}");

    // No verdict at all is never a pass.
    for e in [holds, deviates] {
        assert_eq!(
            e.verdict(&output(&[])),
            Err("probe: printed no shape check".to_string())
        );
    }
    assert_eq!(
        output(&[false]).lines().last(),
        Some("shape check: claim 0 (paper: 2x) (VIOLATED) [0.5x vs 2x]")
    );
}

#[test]
fn committed_results_are_one_file_per_experiment_with_the_expected_verdicts() {
    let mut files: Vec<String> = std::fs::read_dir(repo_file("results"))
        .expect("results/ exists")
        .map(|entry| {
            entry
                .expect("readable entry")
                .file_name()
                .into_string()
                .expect("utf-8")
        })
        .collect();
    files.sort();
    let mut expected: Vec<String> = EXPERIMENTS
        .iter()
        .map(|e| format!("{}.txt", e.id))
        .collect();
    expected.sort();
    assert_eq!(files, expected);
    for e in EXPERIMENTS {
        let text = read(&repo_file(&format!("results/{}.txt", e.id)));
        assert!(
            text.starts_with(&format!("=== {} ===\n", e.title)),
            "{}",
            e.id
        );
        e.verdict(&text)
            .unwrap_or_else(|err| panic!("results/: {err}"));
    }
}

#[test]
fn design_and_experiments_docs_agree_with_the_registry() {
    let design = read(&repo_file("DESIGN.md"));
    let start = design.find("\n## 3. ").expect("DESIGN.md has a §3");
    let index = &design[start..];
    let index = &index[..index[1..].find("\n## ").expect("§3 is followed by §4")];
    let recorded = read(&repo_file("EXPERIMENTS.md"));
    let unwrapped = recorded.split_whitespace().collect::<Vec<_>>().join(" ");
    for e in EXPERIMENTS {
        let id = format!("`{}`", e.id);
        assert!(index.contains(&id), "{id} missing from DESIGN.md §3");
        // The summary table's row for this id carries its verdict.
        let row = recorded
            .lines()
            .find(|l| l.starts_with('|') && l.contains(&id))
            .unwrap_or_else(|| panic!("{id} has no row in EXPERIMENTS.md's summary table"));
        let reproduced = row.trim_end().ends_with("| ✓ |");
        match e.expected {
            Expected::Holds => assert!(reproduced, "{id} is `Holds` but its row says: {row}"),
            Expected::KnownDeviation(why) => {
                assert!(!reproduced, "{id} is a known deviation but its row says ✓");
                assert!(
                    unwrapped.contains(&why.split_whitespace().collect::<Vec<_>>().join(" ")),
                    "EXPERIMENTS.md must carry {id}'s reason verbatim: {why}"
                );
            }
        }
    }
}
