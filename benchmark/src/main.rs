//! `icache-benchmark` — the repo's layered end-to-end benchmark.
//!
//! ```text
//! run.sh --workload W --seed S --seconds N --trace 0|1   one pass of one workload
//! run.sh [--workload W] [--seed S] [--seconds N]         untraced + traced pass of each workload
//! run.sh --repeat-check                                  two sets back to back, compared
//! run.sh --print-spec                                    BENCHMARK.json, from the tables in spec.rs
//! ```
//!
//! One pass runs in this process and ends with one JSON line
//! (`correct`, `attempted`, `failed`, `metrics`). A set spawns one child
//! process per workload and pass, so `peak_rss_mb` is one workload's,
//! and ends with a summary whose last key is `"claim": null`: the
//! benchmark measures, it claims nothing.

mod adapter;
mod alloc;
mod harness;
mod spec;
mod stats;
mod trace;

use adapter::Json;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

struct Args {
    workload: Option<&'static spec::Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    repeat_check: bool,
    print_spec: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: None,
        repeat_check: false,
        print_spec: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(spec::workload(&name).ok_or_else(|| {
                    let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{name}` (one of {})", names.join(", "))
                })?)
            }
            "--seed" => {
                args.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds: must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got `{other}`")),
                })
            }
            "--out" => args.out = PathBuf::from(value("a directory")?),
            "--repeat-check" => args.repeat_check = true,
            "--print-spec" => args.print_spec = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// One pass's metrics by name, and for those measured over repetitions
/// the repetitions' own spread (IQR ÷ median).
struct PassResult {
    metrics: Vec<(String, f64)>,
    spreads: Vec<(String, f64)>,
}

impl PassResult {
    fn get(&self, name: &str) -> f64 {
        let found = self.metrics.iter().find(|(n, _)| n == name);
        found.map_or(f64::NAN, |(_, v)| *v)
    }

    fn spread(&self, name: &str) -> f64 {
        let found = self.spreads.iter().find(|(n, _)| n == name);
        found.map_or(0.0, |(_, v)| *v)
    }
}

/// Run one pass of one workload in a child process, passing its output
/// through, and return the metrics of its result line.
fn child_pass(args: &Args, workload: &str, traced: bool) -> Result<PassResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut last = String::new();
    let mut spreads = Vec::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("reading the child's output: {e}"))?;
        if !line.starts_with('{') {
            println!("{line}");
        }
        if let Some((name, share)) = harness::iqr_share_of(&line) {
            spreads.push((name.to_string(), share));
        }
        last = line;
    }
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
    if !status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {status}",
            traced as u8
        ));
    }
    let result = Json::parse(&last).map_err(|e| format!("{workload}: result line: {e}"))?;
    if result["correct"].as_bool() != Some(true) {
        return Err(format!("{workload}: the run reported failed checks"));
    }
    let metrics = result["metrics"]
        .as_object()
        .ok_or_else(|| format!("{workload}: result line has no metrics"))?
        .iter()
        .map(|(name, m)| {
            m["value"]
                .as_f64()
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("{workload}: metric `{name}` has no value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(PassResult { metrics, spreads })
}

type SetResults = Vec<(&'static spec::Workload, PassResult)>;

/// One set: the untraced pass, and with `traced` also the traced pass,
/// of every selected workload.
fn run_set(args: &Args, traced: bool) -> Result<(SetResults, SetResults), String> {
    let mut end_to_end = Vec::new();
    let mut per_layer = Vec::new();
    for w in &spec::WORKLOADS {
        if args.workload.is_some_and(|only| only.name != w.name) {
            continue;
        }
        end_to_end.push((w, child_pass(args, w.name, false)?));
        if traced {
            per_layer.push((w, child_pass(args, w.name, true)?));
        }
    }
    Ok((end_to_end, per_layer))
}

fn results_json(results: &SetResults) -> Json {
    Json::Obj(
        results
            .iter()
            .map(|(workload, pass)| {
                (
                    workload.name.to_string(),
                    Json::Obj(
                        pass.metrics
                            .iter()
                            .map(|(name, v)| (name.clone(), Json::Float(*v)))
                            .collect(),
                    ),
                )
            })
            .collect(),
    )
}

/// `json` with one workload's metrics per line: diffable, still JSON.
fn pretty(json: &Json, indent: usize, out: &mut String) {
    match json {
        Json::Obj(entries) if indent < 3 && !entries.is_empty() => {
            out.push_str("{\n");
            for (i, (k, v)) in entries.iter().enumerate() {
                out.push_str(&"  ".repeat(indent + 1));
                out.push_str(&Json::Str(k.clone()).to_string());
                out.push_str(": ");
                pretty(v, indent + 1, out);
                out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
            }
            out.push_str(&"  ".repeat(indent));
            out.push('}');
        }
        other => out.push_str(&other.to_string()),
    }
}

fn environment() -> Json {
    Json::Obj(vec![
        (
            "available_parallelism".into(),
            Json::UInt(harness::available_parallelism() as u64),
        ),
        ("run_seconds".into(), Json::UInt(spec::RUN_SECONDS as u64)),
    ])
}

fn write_summary(path: &Path, summary: &Json) -> Result<(), String> {
    let mut text = String::new();
    pretty(summary, 0, &mut text);
    text.push('\n');
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
    print!("{text}");
    Ok(())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Within,
    /// Moved by more than the bound, but so did the repetitions inside
    /// one of the runs (or the box has one core for two threads): the
    /// run was disturbed, and says nothing either way.
    Unresolved,
    Differs,
}

/// One row per (workload, end-to-end metric) of a repeat check.
struct Comparison {
    workload: &'static spec::Workload,
    metric: &'static str,
    first: f64,
    second: f64,
    moved: f64,
    bound: f64,
    verdict: Verdict,
}

/// Hold the second set's medians to the first's, metric by metric, each
/// within its bound on that workload.
fn compare(first: &SetResults, second: &SetResults, cores: usize) -> Vec<Comparison> {
    let mut rows = Vec::new();
    for (&(workload, ref a), (_, b)) in first.iter().zip(second) {
        for m in &spec::END_TO_END {
            let (x, y) = (a.get(m.name), b.get(m.name));
            // Either direction: two runs of one program must agree.
            let moved = m.better.worsening(x, y).abs();
            let bound = m.bound_on(workload);
            let slack = m.name == "subst_share" && (y - x).abs() <= spec::SUBST_SHARE_ABS_SLACK;
            let host_time = matches!(m.name, "host_ns_per_fetch" | "setup_s");
            let disturbed = a.spread(m.name).max(b.spread(m.name)) > bound
                || (host_time && workload.shape.threads() > cores);
            let verdict = if moved <= bound || slack {
                Verdict::Within
            } else if disturbed {
                Verdict::Unresolved
            } else {
                Verdict::Differs
            };
            rows.push(Comparison {
                workload,
                metric: m.name,
                first: x,
                second: y,
                moved,
                bound,
                verdict,
            });
        }
    }
    rows
}

fn full_set(args: &Args) -> Result<bool, String> {
    let (end_to_end, per_layer) = run_set(args, true)?;
    let summary = Json::Obj(vec![
        ("environment".into(), environment()),
        ("seed".into(), Json::UInt(args.seed)),
        ("end_to_end".into(), results_json(&end_to_end)),
        ("per_layer".into(), results_json(&per_layer)),
        ("claim".into(), Json::Null),
    ]);
    write_summary(&args.out.join("summary.json"), &summary)?;
    Ok(true)
}

fn repeat_check(args: &Args) -> Result<bool, String> {
    let (first, per_layer) = run_set(args, true)?;
    let (second, _) = run_set(args, false)?;
    let rows = compare(&first, &second, harness::available_parallelism());
    let ok = rows.iter().all(|r| r.verdict != Verdict::Differs);
    println!("# repeat check: second set against the first");
    for r in &rows {
        println!(
            "{:<12} {:<22} {:>14.6} {:>14.6}  moved {:>7.3}% of {:>5.1}%  {:?}",
            r.workload.name,
            r.metric,
            r.first,
            r.second,
            r.moved * 100.0,
            r.bound * 100.0,
            r.verdict
        );
    }
    let summary = Json::Obj(vec![
        ("environment".into(), environment()),
        ("seed".into(), Json::UInt(args.seed)),
        ("end_to_end".into(), results_json(&first)),
        ("end_to_end_second_set".into(), results_json(&second)),
        ("per_layer".into(), results_json(&per_layer)),
        ("repeat_check_passed".into(), Json::Bool(ok)),
        ("claim".into(), Json::Null),
    ]);
    write_summary(&args.out.join("repeat-check.json"), &summary)?;
    Ok(ok)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    if args.print_spec {
        print!("{}", spec::benchmark_json());
        return Ok(true);
    }
    if args.repeat_check {
        return repeat_check(&args);
    }
    let (Some(workload), Some(traced)) = (args.workload, args.trace) else {
        if args.trace.is_some() {
            return Err("--trace needs --workload: one pass runs one workload".into());
        }
        return full_set(&args);
    };
    let outcome = harness::run(workload, args.seed, args.seconds, traced, &args.out)?;
    outcome.print();
    println!("{}", outcome.result_json());
    Ok(outcome.failures.is_empty())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(host: f64, hits: f64, subst: f64) -> SetResults {
        let metrics = [
            ("setup_s", 1.0),
            ("host_ns_per_fetch", host),
            ("peak_rss_mb", 100.0),
            ("sim_epoch_s", 10.0),
            ("sim_stall_s", 10.0),
            ("hit_ratio", hits),
            ("subst_share", subst),
            ("storage_kib_per_fetch", 0.5),
        ];
        vec![(
            spec::workload("replay-hot").unwrap(),
            PassResult {
                metrics: metrics.map(|(n, v)| (n.to_string(), v)).to_vec(),
                spreads: vec![("host_ns_per_fetch".into(), 0.02)],
            },
        )]
    }

    #[test]
    fn repeat_check_holds_each_metric_to_its_bound() {
        let host = spec::END_TO_END
            .iter()
            .find(|m| m.name == "host_ns_per_fetch")
            .unwrap()
            .bound_on(spec::workload("replay-hot").unwrap());
        let not_within = |second: SetResults| -> Vec<(&'static str, Verdict)> {
            compare(&set(100.0, 0.9, 0.010), &second, 2)
                .iter()
                .filter(|r| r.verdict != Verdict::Within)
                .map(|r| (r.metric, r.verdict))
                .collect()
        };
        let inside = 100.0 * (1.0 + host - 0.01);
        let outside = 100.0 * (1.0 + host + 0.01);
        assert!(not_within(set(inside, 0.9, 0.010)).is_empty());
        assert_eq!(
            not_within(set(outside, 0.9, 0.010)),
            [("host_ns_per_fetch", Verdict::Differs)]
        );
        // Two runs of one program must agree in either direction.
        assert_eq!(
            not_within(set(100.0 * (1.0 - host - 0.01), 0.9, 0.010)),
            [("host_ns_per_fetch", Verdict::Differs)]
        );
        // A run whose own repetitions spread wider than the bound was
        // disturbed: it resolves nothing.
        let mut disturbed = set(outside, 0.9, 0.010);
        disturbed[0].1.spreads[0].1 = host + 0.1;
        assert_eq!(
            not_within(disturbed),
            [("host_ns_per_fetch", Verdict::Unresolved)]
        );
        // A simulated metric of a sequential workload may not move by 1 %.
        assert_eq!(
            not_within(set(100.0, 0.89, 0.010)),
            [("hit_ratio", Verdict::Differs)]
        );
        // subst_share is small: 5 % of it is inside the absolute slack.
        assert!(not_within(set(100.0, 0.9, 0.0105)).is_empty());
    }

    #[test]
    fn pretty_output_is_still_json() {
        let summary = Json::Obj(vec![
            ("end_to_end".into(), results_json(&set(100.0, 0.9, 0.01))),
            ("claim".into(), Json::Null),
        ]);
        let mut text = String::new();
        pretty(&summary, 0, &mut text);
        assert_eq!(Json::parse(&text).expect("valid JSON"), summary);
        assert!(text.trim_end().ends_with("\"claim\": null\n}"));
    }
}
