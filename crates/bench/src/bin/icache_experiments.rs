//! `icache_experiments` — run the experiment registry: every table and
//! figure of the paper's evaluation plus the extension studies.
//!
//! ```sh
//! cargo run --release -p icache-bench --bin icache_experiments -- --list
//! cargo run --release -p icache-bench --bin icache_experiments -- --only fig08_epoch_time
//! cargo run --release -p icache-bench --bin icache_experiments -- --check --out results
//! ```
//!
//! Each experiment prints the paper's rows/series, machine-readable
//! `JSON` lines and computed `shape check:` verdicts; `--check` turns a
//! verdict that disagrees with the registry into exit 1. Output is a pure
//! function of the scale flags and `--seed`, whatever `--parallel` says.

use icache_bench::cli::{Args, Flag, Spec};
use icache_bench::experiments::{self, EXPERIMENTS};
use icache_bench::{sweep, BenchEnv};
use std::path::Path;
use std::process::ExitCode;

const SPEC: Spec = Spec {
    program: "icache_experiments",
    about: "regenerate the paper's tables and figures and check their shape",
    flags: &[
        Flag::switch("list", "print every experiment id and title, run nothing"),
        Flag::required("only", "run only these ids, comma-separated (default all)"),
        Flag::required(
            "out",
            "write each experiment to <dir>/<id>.txt instead of stdout",
        ),
        Flag::switch(
            "check",
            "exit 1 if a shape check disagrees with the registry's expectation",
        ),
        Flag::optional(
            "parallel",
            "run the experiments on n worker threads; bare or `auto` = all cores",
        ),
        Flag::required(
            "cifar-scale",
            "fraction of CIFAR-10 to simulate (default 0.1)",
        ),
        Flag::required(
            "imagenet-scale",
            "fraction of ImageNet-1K to simulate (default 0.01)",
        ),
        Flag::required("perf-epochs", "epochs for timing experiments (default 4)"),
        Flag::required("acc-epochs", "epochs for accuracy experiments (default 90)"),
        Flag::required("seed", "run seed, decimal or 0x-hex (default 0x5EED)"),
    ],
};

fn run(args: &Args) -> Result<(), String> {
    if args.has("list") {
        for e in EXPERIMENTS {
            println!("{:28}{}", e.id, e.title);
        }
        return Ok(());
    }
    let env = BenchEnv::from_args(args)?;
    let selected = match args.get("only") {
        Some(ids) => experiments::select(ids)?,
        None => EXPERIMENTS.iter().collect(),
    };
    let workers = match args.get("parallel") {
        Some(v) => sweep::parse_workers(v)?,
        None => 1,
    };
    let out = args.get("out").map(Path::new);
    if let Some(dir) = out {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }

    let reports = sweep::map(&selected, workers, |_idx, e| e.report(&env));

    let mut failures = Vec::new();
    for (e, report) in selected.iter().zip(&reports) {
        match out {
            Some(dir) => {
                let path = dir.join(format!("{}.txt", e.id));
                std::fs::write(&path, report.text())
                    .map_err(|err| format!("{}: {err}", path.display()))?;
                println!("wrote {}", path.display());
            }
            None => print!("{}", report.text()),
        }
        if args.has("check") {
            failures.extend(e.verdict(report.text()).err());
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

fn main() -> ExitCode {
    SPEC.main(run)
}
