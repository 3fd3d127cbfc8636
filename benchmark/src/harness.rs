//! One run of one workload: set-up, warm-up, timed repetitions, output
//! checks, and the metric values of either the untraced pass (the eight
//! end-to-end metrics) or the traced pass (every per-layer metric).

use crate::adapter::{self, ObsMode, Prepared, Rep, Shape};
use crate::spec::{self, END_TO_END, PER_LAYER};
use crate::stats::{self, Quartiles};
use crate::trace::Recording;
use crate::{alloc, trace};
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups (input generation, construction, warm-up repetition) per
/// untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest measured repetitions of an untraced run.
const MIN_REPS: usize = 3;

/// A metric value as printed.
pub struct Value {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Spread and sample count, or why the value is what it is.
    pub note: String,
}

/// What one run produced.
pub struct Outcome {
    pub workload: &'static str,
    pub traced: bool,
    pub values: Vec<Value>,
    /// Fetches attempted in the measured repetitions.
    pub attempted: u64,
    /// Failed output checks and operations, one line each.
    pub failures: Vec<String>,
}

impl Outcome {
    /// The line the contract asks for: `correct`, `attempted`, `failed`
    /// and the metrics by name.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|v| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    v.name, v.value, v.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failures.len(),
            metrics.join(", ")
        )
    }

    /// Every metric by name with its unit, then the checks.
    pub fn print(&self) {
        let pass = if self.traced { "traced" } else { "untraced" };
        println!("# {} ({pass} pass)", self.workload);
        for v in &self.values {
            println!(
                "{:<44} = {:>16} {:<9} {}",
                v.name,
                fmt(v.value),
                v.unit,
                v.note
            );
        }
        println!(
            "operations attempted = {}  failed = {}",
            self.attempted,
            self.failures.len()
        );
        for f in &self.failures {
            println!("FAILED: {f}");
        }
    }
}

fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1e4 || v.fract() == 0.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.6}")
    }
}

/// Quartiles, sample count and `iqr=`, which `--repeat-check` reads
/// back ([`iqr_share_of`]) to tell a disturbed run from a changed one.
fn spread_note(q: &Quartiles) -> String {
    format!(
        "(q1 {} .. q3 {}, n={}, iqr={:.1}%)",
        fmt(q.q1),
        fmt(q.q3),
        q.n,
        q.iqr_share() * 100.0
    )
}

/// The metric name and the repetitions' inter-quartile range as a share
/// of their median, from a line [`Outcome::print`] wrote.
pub fn iqr_share_of(line: &str) -> Option<(&str, f64)> {
    let name = line.split_whitespace().next()?;
    let (_, rest) = line.split_once("iqr=")?;
    let percent: f64 = rest.split('%').next()?.parse().ok()?;
    Some((name, percent / 100.0))
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Generate the inputs and run the discarded warm-up repetition.
fn set_up(shape: Shape, seed: u64, failures: &mut Vec<String>) -> Result<(Prepared, Rep), String> {
    let prepared = adapter::prepare(shape, seed)?;
    let mut warm = prepared.run(prepared.default_obs(), false)?;
    failures.append(&mut warm.failures);
    Ok((prepared, warm))
}

/// Untraced repetitions until `seconds` have been measured, at least
/// `min`.
fn measure(
    prepared: &Prepared,
    seconds: f64,
    min: usize,
    failures: &mut Vec<String>,
) -> Result<Vec<Rep>, String> {
    let mut reps: Vec<Rep> = Vec::new();
    let t0 = Instant::now();
    while reps.len() < min || t0.elapsed().as_secs_f64() < seconds {
        let mut rep = prepared.run(prepared.default_obs(), false)?;
        failures.append(&mut rep.failures);
        reps.push(rep);
    }
    Ok(reps)
}

/// A deterministic simulation must repeat to the bit.
fn check_repeats(prepared: &Prepared, reference: &Rep, reps: &[Rep], failures: &mut Vec<String>) {
    if !prepared.deterministic() {
        return;
    }
    if let Some(last) = reps.last() {
        if !reference.sim.bit_equal(&last.sim) || reference.fetches != last.fetches {
            failures.push(format!(
                "simulated metrics differ between the first and the last repetition: {:?} vs {:?}",
                reference.sim, last.sim
            ));
        }
    }
}

fn run_untraced(
    workload: &'static str,
    shape: Shape,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    let mut failures = Vec::new();
    let mut setups = Vec::new();
    let mut last: Option<(Prepared, Rep)> = None;
    for _ in 0..SETUPS {
        // The previous set-up's inputs are released first, so the peak
        // resident size is one workload's, not three.
        drop(last.take());
        let t0 = Instant::now();
        let made = set_up(shape, seed, &mut failures)?;
        setups.push(t0.elapsed().as_secs_f64());
        last = Some(made);
    }
    let (prepared, warm) = last.expect("SETUPS is at least one");
    let reps = measure(&prepared, seconds, MIN_REPS, &mut failures)?;
    check_repeats(&prepared, &warm, &reps, &mut failures);

    let column = |f: &dyn Fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let host = stats::quartiles(&column(&Rep::ns_per_fetch));
    let unresolved = prepared.threads() > 1 && available_parallelism() < 2;
    let mut values = Vec::new();
    for m in &END_TO_END {
        let (value, note) = match m.name {
            "setup_s" => {
                let q = stats::quartiles(&setups);
                (q.median, spread_note(&q))
            }
            "host_ns_per_fetch" => {
                let mut note = spread_note(&host);
                if unresolved {
                    note.push_str(" UNRESOLVED: available_parallelism is 1");
                }
                (host.median, note)
            }
            "peak_rss_mb" => (peak_rss_mb()?, "(VmHWM at the end of the run)".into()),
            name => {
                let q = stats::quartiles(&column(&|r: &Rep| match name {
                    "sim_epoch_s" => r.sim.epoch_s,
                    "sim_stall_s" => r.sim.stall_s,
                    "hit_ratio" => r.sim.hit_ratio,
                    "subst_share" => r.sim.subst_share,
                    "storage_kib_per_fetch" => r.sim.storage_kib_per_fetch,
                    other => unreachable!("end-to-end metric `{other}` has no source"),
                }));
                let note = if prepared.deterministic() {
                    format!("(bit-equal over n={})", q.n)
                } else {
                    spread_note(&q)
                };
                (q.median, note)
            }
        };
        values.push(Value {
            name: m.name,
            unit: m.unit,
            value,
            note,
        });
    }
    Ok(Outcome {
        workload,
        traced: false,
        values,
        attempted: reps.iter().map(|r| r.fetches).sum(),
        failures,
    })
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The per-layer numbers the spans give, per traced repetition or per
/// fetch.
fn span_facts(rec: &Recording, reps: usize, fetches: u64, wall_ns: u64) -> adapter::Facts {
    let reps = reps as f64;
    let per_fetch = |ns: u64| ns as f64 / fetches.max(1) as f64;
    let is_core = |layer: &str| layer == "core" || layer.starts_with("core.");
    let idle = rec.agg(adapter::JOIN_WAIT.0, adapter::JOIN_WAIT.1).self_ns;
    // Time some thread spent working: everything the root spans cover
    // except the main thread's wait for its loaders.
    let work_ns = rec.accounted_ns().saturating_sub(idle).max(1) as f64;

    let fetch = rec.layer_sum(|l, op| is_core(l) && op == "fetch");
    let hook = |op: &'static str| rec.layer_sum(move |l, o| is_core(l) && o == op);
    let hooks = rec.layer_sum(|l, op| is_core(l) && op != "fetch");
    let storage = rec.layer_sum(|l, _| l == "storage");
    let sim = rec.layer_sum(|l, _| l == "sim");
    let service = rec.layer_sum(|l, _| l == "core.service");
    let bench = rec.layer_sum(|l, _| l == "bench");
    let p99 = |agg: &trace::Agg| {
        agg.self_hist
            .quantile(stats::resolved_or_lower(0.99, agg.self_hist.count()))
    };
    let ms = |ns: u64| ns as f64 / 1e6 / reps;
    vec![
        ("sim.self_ns_per_fetch", per_fetch(sim.self_ns)),
        (
            "sim.report_render_ms",
            ms(rec.agg("sim", "report_render").total_ns),
        ),
        ("core.fetch.calls", fetch.count as f64 / reps),
        (
            "core.fetch.self_ns",
            fetch.self_ns as f64 / fetch.count.max(1) as f64,
        ),
        ("core.fetch.p50_ns", fetch.self_hist.quantile(0.5)),
        ("core.fetch.p99_ns", p99(&fetch)),
        ("core.update_hlist.ms", ms(hook("update_hlist").total_ns)),
        ("core.epoch_start.ms", ms(hook("on_epoch_start").total_ns)),
        ("core.epoch_end.ms", ms(hook("on_epoch_end").total_ns)),
        ("core.epoch_hooks.share", hooks.self_ns as f64 / work_ns),
        ("core.service.self_ns_per_fetch", per_fetch(service.self_ns)),
        ("storage.read.calls", storage.count as f64 / reps),
        (
            "storage.read.ns",
            storage.total_ns as f64 / storage.count.max(1) as f64,
        ),
        ("storage.read.p99_ns", p99(&storage)),
        ("storage.share", storage.self_ns as f64 / work_ns),
        (
            "bench.self_ns_per_fetch",
            per_fetch(bench.self_ns.saturating_sub(idle)),
        ),
        (
            "bench.accounted_share",
            rec.agg("bench", "rep").total_ns as f64 / wall_ns.max(1) as f64,
        ),
    ]
}

fn run_traced(
    workload: &'static str,
    shape: Shape,
    seed: u64,
    seconds: f64,
    out_dir: &std::path::Path,
) -> Result<Outcome, String> {
    let mut failures = Vec::new();
    let (prepared, warm) = set_up(shape, seed, &mut failures)?;

    // Untraced reference repetitions: what tracing is compared against.
    let reference = measure(&prepared, seconds * 0.3, 2, &mut failures)?;
    check_repeats(&prepared, &warm, &reference, &mut failures);
    let untraced = stats::quartiles(&reference.iter().map(Rep::ns_per_fetch).collect::<Vec<_>>());

    // Traced repetitions, with allocations counted.
    let mut recording = Recording::default();
    let mut traced_reps = Vec::new();
    alloc::start();
    let t0 = Instant::now();
    while traced_reps.is_empty() || t0.elapsed().as_secs_f64() < seconds * 0.3 {
        let mut rep = prepared.run(prepared.default_obs(), true)?;
        failures.append(&mut rep.failures);
        let mut rec = rep.recording.take().expect("a traced repetition records");
        if !traced_reps.is_empty() {
            // Raw spans are kept from the first traced repetition only.
            rec.spans.clear();
        }
        recording.merge(rec);
        traced_reps.push(rep);
    }
    let allocs = alloc::stop();
    check_repeats(&prepared, &warm, &traced_reps, &mut failures);
    let traced_fetches: u64 = traced_reps.iter().map(|r| r.fetches).sum();
    let traced_wall: u64 = traced_reps.iter().map(|r| r.wall_ns).sum();
    let traced = stats::median(
        &traced_reps
            .iter()
            .map(Rep::ns_per_fetch)
            .collect::<Vec<_>>(),
    );

    // One repetition with the other Obs mode: what Obs costs.
    let mut other = prepared.run(prepared.default_obs().other(), false)?;
    failures.append(&mut other.failures);
    let (live, noop) = match prepared.default_obs() {
        ObsMode::Live => (untraced.median, other.ns_per_fetch()),
        ObsMode::Noop => (other.ns_per_fetch(), untraced.median),
    };

    let mut facts: BTreeMap<&'static str, f64> = BTreeMap::new();
    // Counters and concurrency facts come from an untraced repetition;
    // `obs.*` from whichever repetition ran with a live Obs.
    for (name, value) in &other.layer {
        if name.starts_with("obs.") {
            facts.insert(name, *value);
        }
    }
    let last_reference = reference
        .last()
        .expect("at least two reference repetitions");
    facts.extend(last_reference.layer.iter().copied());
    facts.extend(span_facts(
        &recording,
        traced_reps.len(),
        traced_fetches,
        traced_wall,
    ));
    facts.extend(prepared.probes(untraced.median)?);
    let per_traced_fetch = |x: u64| x as f64 / traced_fetches.max(1) as f64;
    facts.extend([
        ("obs.overhead_share", (live - noop) / live),
        (
            "bench.trace_overhead_share",
            (traced - untraced.median) / untraced.median,
        ),
        ("bench.allocs_per_fetch", per_traced_fetch(allocs.allocs)),
        (
            "bench.alloc_kib_per_fetch",
            per_traced_fetch(allocs.bytes) / 1024.0,
        ),
        (
            "bench.peak_live_mib",
            allocs.peak_live_bytes as f64 / (1024.0 * 1024.0),
        ),
        ("bench.rep_iqr_share", untraced.iqr_share()),
        ("bench.threads", prepared.threads() as f64),
        (
            "bench.available_parallelism",
            available_parallelism() as f64,
        ),
        ("bench.traced_fetches", traced_fetches as f64),
    ]);

    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let spans_path = out_dir.join(format!("{workload}.spans.jsonl"));
    std::fs::write(&spans_path, recording.spans_jsonl())
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;

    let mut values = Vec::new();
    for m in &PER_LAYER {
        let found = facts.remove(m.name);
        if found.is_some_and(|v| !v.is_finite()) {
            failures.push(format!(
                "per-layer metric `{}` is not a finite number",
                m.name
            ));
        }
        values.push(Value {
            name: m.name,
            unit: m.unit,
            value: found.filter(|v| v.is_finite()).unwrap_or(0.0),
            note: match found {
                Some(_) => String::new(),
                None => "n/a: not exercised by this workload".into(),
            },
        });
    }
    for name in facts.keys() {
        failures.push(format!(
            "the run produced `{name}`, which BENCHMARK.json does not declare"
        ));
    }
    println!(
        "# {} kept spans written to {}",
        recording.spans.len(),
        spans_path.display()
    );
    Ok(Outcome {
        workload,
        traced: true,
        values,
        attempted: reference
            .iter()
            .chain(&traced_reps)
            .map(|r| r.fetches)
            .sum(),
        failures,
    })
}

/// Run `workload` once: the untraced pass for the end-to-end metrics, or
/// the traced pass for the per-layer ones.
pub fn run(
    workload: &spec::Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    out_dir: &std::path::Path,
) -> Result<Outcome, String> {
    if traced {
        run_traced(workload.name, workload.shape, seed, seconds, out_dir)
    } else {
        run_untraced(workload.name, workload.shape, seed, seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_note_round_trips_through_a_printed_line() {
        let q = stats::quartiles(&[90.0, 100.0, 110.0]);
        let line = format!(
            "{:<44} = {:>16} ns {}",
            "host_ns_per_fetch",
            100,
            spread_note(&q)
        );
        assert_eq!(iqr_share_of(&line), Some(("host_ns_per_fetch", 0.2)));
        assert_eq!(iqr_share_of("peak_rss_mb = 70 MB (VmHWM at the end)"), None);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            workload: "replay-hot",
            traced: false,
            values: vec![Value {
                name: "setup_s",
                unit: "s",
                value: 0.8127,
                note: String::new(),
            }],
            attempted: 1000,
            failures: vec!["boom".into()],
        };
        let v = adapter::Json::parse(&outcome.result_json()).expect("valid JSON");
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v["correct"].as_bool(), Some(false));
        assert_eq!(v["attempted"].as_u64(), Some(1000));
        assert_eq!(v["failed"].as_u64(), Some(1));
        assert_eq!(v["metrics"]["setup_s"]["value"].as_f64(), Some(0.8127));
        assert_eq!(v["metrics"]["setup_s"]["unit"].as_str(), Some("s"));
    }

    #[test]
    fn span_facts_are_all_declared_per_layer_metrics() {
        let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        for (name, _) in span_facts(&Recording::default(), 1, 1, 1) {
            assert!(declared.contains(&name), "{name}");
        }
    }
}
