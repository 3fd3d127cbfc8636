//! The benchmark's contract: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the repo
//! root is this table rendered ([`benchmark_json`]); a unit test keeps
//! the two equal, and the run prints exactly these names.

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 10;

use crate::adapter::{Json, Shape};

pub struct Workload {
    pub name: &'static str,
    /// The kind of input the adapter generates for it.
    pub shape: Shape,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "train-1node",
        shape: Shape::Train,
        why: "the fig08 path every paper figure uses: ~87% misses, so sim (~45%) and storage (~26%) do most of the work and core a quarter; Obs keeps no events, so it is the Obs-bypass control",
    },
    Workload {
        name: "replay-hot",
        shape: Shape::ReplayHot,
        why: "Zipf trace replayed through the sequential manager: ~91% hits, so core's read path does most of the work and storage only serves the misses (~6%)",
    },
    Workload {
        name: "replay-cold",
        shape: Shape::ReplayCold,
        why: "epoch-shuffle trace, ~88% misses: core's write side (admission, eviction, packaging, substitution) does half the work, the storage model a quarter; a read-path gain that costs admission shows here",
    },
    Workload {
        name: "loaders-2t",
        shape: Shape::Loaders,
        why: "the replay-hot trace served by the lock-striped ConcurrentManager from 2 loader threads: core.concurrent's locks do the work, the rest is as in replay-hot",
    },
    Workload {
        name: "cluster-4n",
        shape: Shape::Cluster,
        why: "4-node CacheService under four sharded jobs plus report and trace rendering: core.service (SimNet, directory, RPC, the nodes behind them) does two thirds of the work, sim a quarter",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By what share of `base` the value `new` is worse (negative when
    /// it is better).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        let delta = match self {
            Better::Lower => new - base,
            Better::Higher => base - new,
        };
        if base == 0.0 {
            if delta > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            delta / base.abs()
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The bound `BENCHMARK.json` declares: the share of the parent's
    /// median by which the metric may worsen on any workload. One number
    /// per metric, so it has to hold across seeds (the acceptance runs
    /// use ten) and on the loosest workload (`loaders-2t`, whose
    /// simulated metrics depend on the thread interleaving). Each is at
    /// least three times the widest seed-to-seed spread seen here.
    pub bound: f64,
    /// The tighter bound `--repeat-check`, which runs one seed twice,
    /// applies on the four single-threaded workloads.
    pub bound_sequential: f64,
}

/// Simulated seconds carry their own unit so they are never read as
/// host time.
pub const SIM_SECONDS: &str = "sim_s";

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        bound_sequential: 0.25,
    },
    EndToEnd {
        name: "host_ns_per_fetch",
        unit: "ns",
        better: Better::Lower,
        bound: 0.25,
        bound_sequential: 0.15,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        bound_sequential: 0.15,
    },
    EndToEnd {
        name: "sim_epoch_s",
        unit: SIM_SECONDS,
        better: Better::Lower,
        bound: 0.05,
        bound_sequential: 0.005,
    },
    EndToEnd {
        name: "sim_stall_s",
        unit: SIM_SECONDS,
        better: Better::Lower,
        bound: 0.05,
        bound_sequential: 0.005,
    },
    EndToEnd {
        name: "hit_ratio",
        unit: "fraction",
        better: Better::Higher,
        bound: 0.02,
        bound_sequential: 0.005,
    },
    EndToEnd {
        name: "subst_share",
        unit: "fraction",
        better: Better::Lower,
        bound: 0.05,
        bound_sequential: 0.005,
    },
    EndToEnd {
        name: "storage_kib_per_fetch",
        unit: "KiB",
        better: Better::Lower,
        bound: 0.05,
        bound_sequential: 0.005,
    },
];

/// `subst_share` is small, so `--repeat-check` also lets it move by this
/// much in absolute terms.
pub const SUBST_SHARE_ABS_SLACK: f64 = 0.001;

impl EndToEnd {
    /// The bound `--repeat-check` holds `workload` to.
    pub fn bound_on(&self, workload: &Workload) -> f64 {
        if workload.shape.threads() > 1 {
            self.bound
        } else {
            self.bound_sequential
        }
    }
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Per-layer metrics, from the traced pass unless the README marks them
/// isolated. A workload that does not exercise a metric's layer reports
/// 0 for it. They carry no bound; `better` says which way an
/// optimisation of that layer should move them.
pub const PER_LAYER: [PerLayer; 82] = [
    lower("sim.self_ns_per_fetch", "ns"),
    lower("sim.steps", "count"),
    lower("sim.fetch_p99_ms", "sim_ms"),
    lower("sim.report_render_ms", "ms"),
    lower("sim.tracegen_ms", "ms"),
    lower("core.fetch.calls", "count"),
    lower("core.fetch.self_ns", "ns"),
    lower("core.fetch.p50_ns", "ns"),
    lower("core.fetch.p99_ns", "ns"),
    lower("core.update_hlist.ms", "ms"),
    lower("core.epoch_start.ms", "ms"),
    lower("core.epoch_end.ms", "ms"),
    lower("core.epoch_hooks.share", "fraction"),
    higher("core.h_hit_share", "fraction"),
    higher("core.l_hit_share", "fraction"),
    lower("core.subst_share", "fraction"),
    lower("core.miss_share", "fraction"),
    higher("core.h_capacity_share", "fraction"),
    lower("core.insertions_per_kfetch", "1/kfetch"),
    lower("core.evictions_per_kfetch", "1/kfetch"),
    lower("core.rejections_per_kfetch", "1/kfetch"),
    lower("core.packages_built", "count"),
    higher("core.package_kib_mean", "KiB"),
    lower("core.concurrent.ns_per_fetch_1t", "ns"),
    higher("core.concurrent.speedup_2t", "x"),
    lower("core.concurrent.contended_per_kfetch", "1/kfetch"),
    lower("core.concurrent.thread_imbalance", "fraction"),
    lower("core.concurrent.barrier_ms", "ms"),
    lower("core.concurrent.mutex_lru_ns_per_fetch_2t", "ns"),
    lower("core.concurrent.hit_ratio_gap_1t", "fraction"),
    lower("core.service.self_ns_per_fetch", "ns"),
    higher("core.service.local_share", "fraction"),
    lower("core.service.remote_share", "fraction"),
    lower("core.service.storage_share", "fraction"),
    lower("core.service.net_msgs_per_fetch", "1/fetch"),
    lower("core.service.dir_lookups_per_fetch", "1/fetch"),
    lower("core.service.churn_ns_per_fetch", "ns"),
    lower("core.service.recovery_index_writes", "count"),
    lower("core.service.recovery_mib", "MiB"),
    lower("core.prefetch.ns_per_fetch_d8", "ns"),
    lower("core.prefetch.sim_stall_s_d8", SIM_SECONDS),
    lower("core.prefetch.late_share_d8", "fraction"),
    lower("storage.read.calls", "count"),
    lower("storage.read.ns", "ns"),
    lower("storage.read.p99_ns", "ns"),
    lower("storage.share", "fraction"),
    lower("storage.reads_per_fetch", "1/fetch"),
    higher("storage.package_read_share", "fraction"),
    lower("storage.sim_service_ms_per_read", "sim_ms"),
    lower("storage.pfs.read_sample_ns_mono", "ns"),
    lower("storage.pfs.read_sample_ns_ooo", "ns"),
    lower("sampling.plan_epoch_ms", "ms"),
    lower("sampling.hlist_top_fraction_ms", "ms"),
    lower("sampling.record_loss_ns", "ns"),
    lower("dnn.loss_observe_ns", "ns"),
    higher("dnn.top1_final_pct", "%"),
    lower("baselines.lru.ns_per_fetch", "ns"),
    lower("baselines.coordl.ns_per_fetch", "ns"),
    lower("baselines.ilfu.ns_per_fetch", "ns"),
    lower("baselines.quiver.ns_per_fetch", "ns"),
    higher("baselines.lru.hit_ratio", "fraction"),
    higher("baselines.coordl.hit_ratio", "fraction"),
    higher("baselines.ilfu.hit_ratio", "fraction"),
    higher("baselines.quiver.hit_ratio", "fraction"),
    lower("obs.overhead_share", "fraction"),
    lower("obs.trace_events", "count"),
    lower("obs.trace_dropped_share", "fraction"),
    lower("obs.snapshot_ms", "ms"),
    lower("obs.inc_ns", "ns"),
    lower("obs.observe_ns", "ns"),
    lower("types.hist_record_ns", "ns"),
    lower("types.dataset_build_ms", "ms"),
    lower("bench.trace_overhead_share", "fraction"),
    higher("bench.accounted_share", "fraction"),
    lower("bench.self_ns_per_fetch", "ns"),
    lower("bench.allocs_per_fetch", "1/fetch"),
    lower("bench.alloc_kib_per_fetch", "KiB"),
    lower("bench.peak_live_mib", "MiB"),
    lower("bench.rep_iqr_share", "fraction"),
    higher("bench.threads", "count"),
    higher("bench.available_parallelism", "count"),
    lower("bench.traced_fetches", "count"),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn json_str(s: &str) -> String {
    Json::Str(s.into()).to_string()
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{sep}\n",
            json_str(w.name),
            json_str(w.why)
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{sep}\n",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.as_str()),
            m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{sep}\n",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.as_str())
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_units_and_counts_stay_inside_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names: Vec<&str> = Vec::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            names.push(w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(m.bound_sequential <= m.bound, "{}", m.name);
            names.push(m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            names.push(m.name);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `benchmark/run.sh --print-spec > BENCHMARK.json`"
        );
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((Better::Lower.worsening(100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!((Better::Lower.worsening(100.0, 90.0) + 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(0.5, 0.45) - 0.1).abs() < 1e-12);
        assert_eq!(Better::Lower.worsening(0.0, 0.0), 0.0);
        assert_eq!(Better::Lower.worsening(0.0, 1.0), f64::INFINITY);
    }
}
