//! Tier-1 integration tests for the observability layer: every subsystem
//! reports into one shared [`icache::obs::Obs`] handle, and the resulting
//! structured trace is a pure function of the run configuration and seed.

mod common;

use icache::core::{CacheSystem, IcacheConfig, IcacheManager};
use icache::obs::{decl, Json, Obs};
use icache::sim::replay::replay;
use icache::sim::{report, run_multi_job_with_obs, JobConfig, Scenario, SystemKind};
use icache_dnn::ModelProfile;
use icache_types::{Dataset, JobId, SimDuration};

fn quick(system: SystemKind) -> Scenario {
    Scenario::cifar10(system)
        .scale_dataset(0.02)
        .unwrap()
        .epochs(3)
        .batch_size(64)
}

#[test]
fn traces_are_byte_identical_for_identical_config_and_seed() {
    let (a, b) = (Obs::new(), Obs::new());
    let ma = quick(SystemKind::Icache).run_with_obs(&a).unwrap();
    let mb = quick(SystemKind::Icache).run_with_obs(&b).unwrap();
    assert_eq!(ma, mb, "run metrics must be deterministic");

    let (ja, jb) = (a.trace_jsonl(), b.trace_jsonl());
    assert!(!ja.is_empty(), "an iCache run must emit trace events");
    assert_eq!(ja, jb, "same config + seed must give byte-identical traces");

    // The run summary (metrics registry included) is deterministic too.
    let sa = report::run_summary(std::slice::from_ref(&ma), &a).to_string();
    let sb = report::run_summary(std::slice::from_ref(&mb), &b).to_string();
    assert_eq!(sa, sb);
}

#[test]
fn different_seeds_give_different_traces() {
    let (a, b) = (Obs::new(), Obs::new());
    quick(SystemKind::Icache).seed(1).run_with_obs(&a).unwrap();
    quick(SystemKind::Icache).seed(2).run_with_obs(&b).unwrap();
    assert_ne!(a.trace_jsonl(), b.trace_jsonl());
}

#[test]
fn an_icache_run_emits_every_layer_of_events() {
    let obs = Obs::new();
    quick(SystemKind::Icache).run_with_obs(&obs).unwrap();

    let counts: std::collections::HashMap<String, u64> =
        obs.trace_event_counts().into_iter().collect();
    for kind in [
        "h_hit",
        "l_hit",
        "miss",
        "package_build",
        "shadow_heap_refill",
    ] {
        assert!(
            counts.get(kind).copied().unwrap_or(0) > 0,
            "expected at least one `{kind}` event; got {counts:?}"
        );
    }

    // Counters from both the cache and the storage layer.
    assert!(obs.counter("cache.h_hits") > 0);
    assert!(obs.counter("cache.misses") > 0);
    assert!(obs.counter("storage.sample_reads") > 0);
    assert!(obs.counter("lcache.packages_built") > 0);

    // Latency histograms surface percentiles in the snapshot.
    let snap = obs.metrics_snapshot();
    let hists = snap.get("latency").and_then(|h| h.as_object()).unwrap();
    assert!(
        hists.iter().any(|(k, _)| k == "cache.fetch"),
        "fetch latency histogram missing: {snap}"
    );
    let fetch = hists
        .iter()
        .find(|(k, _)| k == "cache.fetch")
        .map(|(_, v)| v)
        .unwrap();
    assert!(fetch.get("count").and_then(Json::as_u64).unwrap() > 0);
    assert!(fetch.get("p99_us").and_then(|v| v.as_f64()).is_some());
}

#[test]
fn trace_events_parse_as_json_with_stable_sequence_numbers() {
    let obs = Obs::new();
    quick(SystemKind::Icache).run_with_obs(&obs).unwrap();
    let jsonl = obs.trace_jsonl();
    let mut expected_seq = None;
    for line in jsonl.lines() {
        let v = Json::parse(line).unwrap_or_else(|e| panic!("bad trace line `{line}`: {e}"));
        let seq = v.get("seq").and_then(Json::as_u64).expect("seq field");
        if let Some(prev) = expected_seq {
            assert_eq!(seq, prev + 1, "trace sequence numbers must be contiguous");
        }
        expected_seq = Some(seq);
        assert!(
            v.get("event").and_then(Json::as_str).is_some(),
            "event tag in {line}"
        );
    }
    assert!(expected_seq.is_some(), "trace must be non-empty");
}

#[test]
fn multi_job_runs_share_one_trace() {
    let scenario = quick(SystemKind::Icache);
    let ds: Dataset = scenario.dataset_ref().clone();
    let cfg = |job: u32| {
        let mut c = JobConfig::new(JobId(job), ModelProfile::shufflenet(), ds.clone());
        c.batch_size = 32;
        c.epochs = 2;
        c.seed = 42 + job as u64 * 1_000_003;
        c
    };
    let mut cache = scenario.build_cache().unwrap();
    let mut storage = scenario.build_storage().unwrap();
    let obs = Obs::new();
    let ms = run_multi_job_with_obs(vec![cfg(0), cfg(1)], cache.as_mut(), storage.as_mut(), &obs)
        .unwrap();
    assert_eq!(ms.len(), 2);
    assert!(obs.trace_len() > 0);
    // Events must be attributed to both jobs.
    let jsonl = obs.trace_jsonl();
    assert!(jsonl.contains(r#""job":0"#), "job 0 events missing");
    assert!(jsonl.contains(r#""job":1"#), "job 1 events missing");
}

#[test]
fn noop_obs_records_metrics_but_keeps_no_trace() {
    let obs = Obs::noop();
    quick(SystemKind::Icache).run_with_obs(&obs).unwrap();
    assert_eq!(obs.trace_len(), 0, "noop handle must keep no events");
    assert!(
        obs.trace_emitted() > 0,
        "events were still emitted (and dropped)"
    );
    assert!(obs.counter("cache.h_hits") > 0, "metrics still recorded");
}

#[test]
fn baseline_systems_run_untouched_under_an_obs_handle() {
    // Baselines keep the default no-op `set_obs`; installing a handle must
    // not change their behaviour or produce spurious events.
    let obs = Obs::new();
    let with_obs = quick(SystemKind::Default).run_with_obs(&obs).unwrap();
    let without = quick(SystemKind::Default).run().unwrap();
    assert_eq!(with_obs, without);
    // Storage still reports (the backend implements set_obs), the LRU
    // cache itself stays silent.
    assert!(obs.counter("storage.sample_reads") > 0);
    assert_eq!(obs.counter("cache.h_hits"), 0);
}

#[test]
fn brownout_events_flow_through_the_shared_handle() {
    use icache::storage::{BrownoutConfig, DegradedStorage, LocalTier};
    use icache_types::{ByteSize, SampleId, SimDuration, SimTime};
    let mut flaky = DegradedStorage::new(
        LocalTier::tmpfs(),
        BrownoutConfig {
            period: SimDuration::from_millis(10),
            duration: SimDuration::from_millis(2),
            extra_latency: SimDuration::from_millis(5),
        },
    )
    .unwrap();
    let obs = Obs::new();
    use icache::storage::StorageBackend;
    flaky.set_obs(obs.clone());
    flaky.read_sample(SampleId(0), ByteSize::kib(3), SimTime::ZERO);
    assert_eq!(obs.counter("storage.degraded_requests"), 1);
    let events: Vec<_> = obs.trace_event_counts();
    assert!(
        events
            .iter()
            .any(|(k, n)| k == "brownout_degraded_read" && *n == 1),
        "{events:?}"
    );
}

/// Two training jobs sharing one manager: the run-wide registry, the
/// manager's `CacheStats`, the backend's `StorageStats` and the per-job
/// views are four readings of one set of events.
#[test]
fn a_training_run_keeps_the_registry_the_ledgers_and_the_per_job_stats_in_step() {
    let scenario = quick(SystemKind::Icache);
    let ds: Dataset = scenario.dataset_ref().clone();
    let cfg = |job: u32| {
        let mut c = JobConfig::new(JobId(job), ModelProfile::shufflenet(), ds.clone());
        c.batch_size = 32;
        c.epochs = 3;
        c.seed = 42 + job as u64 * 1_000_003;
        c
    };
    let mut cache = IcacheManager::new(IcacheConfig::for_dataset(&ds, 0.2).unwrap(), &ds).unwrap();
    let mut storage = scenario.build_storage().unwrap();
    let obs = Obs::new();
    run_multi_job_with_obs(vec![cfg(0), cfg(1)], &mut cache, storage.as_mut(), &obs).unwrap();

    let total = cache.stats();
    assert!(total.h_hits > 0 && total.evictions > 0 && total.substitutions > 0);
    common::assert_registry_matches_ledgers(&obs, &[total], storage.stats());

    let (a, b) = (cache.stats_for(JobId(0)), cache.stats_for(JobId(1)));
    assert!(a.requests() > 0 && b.requests() > 0);
    let mut summed = a;
    summed += b;
    assert_eq!(
        summed, total,
        "per-job stats must partition the global ones"
    );
}

#[test]
fn a_replay_keeps_the_registry_and_the_ledgers_in_step() {
    use icache::sampling::{HList, ImportanceTable};
    use icache::sim::replay::AccessPattern;
    use icache_types::SampleId;
    let ds = quick(SystemKind::Icache).dataset_ref().clone();
    let mut table = ImportanceTable::new(ds.len());
    for i in 0..ds.len() {
        table.record_loss(SampleId(i), 1.0 / (1.0 + i as f64)); // Zipf: low ids are hot
    }
    let trace = AccessPattern::Zipf { s: 1.1 }
        .generate(ds.len(), 4_000, JobId(0), 3)
        .unwrap();
    for depth in [0, 4] {
        let mut cache =
            IcacheManager::new(IcacheConfig::for_dataset(&ds, 0.2).unwrap(), &ds).unwrap();
        let mut storage = quick(SystemKind::Icache).build_storage().unwrap();
        let obs = Obs::new();
        cache.set_obs(obs.clone());
        storage.set_obs(obs.clone());
        cache.update_hlist(JobId(0), &HList::top_fraction(&table, 0.3));
        let compute = SimDuration::from_micros(50);
        let rep = replay(
            &trace,
            &ds,
            &mut cache,
            storage.as_mut(),
            depth,
            compute,
            obs.clone(),
        );
        assert_eq!(rep.stats.requests(), 4_000);
        common::assert_registry_matches_ledgers(&obs, &[cache.stats()], storage.stats());
        // The prefetcher's own ledger is in step too.
        assert_eq!(obs.counter("prefetch.issued"), rep.prefetch.issued);
        assert_eq!(obs.counter("prefetch.hits"), rep.prefetch.hits);
        assert_eq!(obs.counter("prefetch.late"), rep.prefetch.late);
    }
}

/// DESIGN.md §7's two tables are the rendered declaration, checked line
/// by line in both directions: a row only in the document is a metric
/// nothing can emit, a row only in the declaration is undocumented.
#[test]
fn design_section_7_tables_are_the_rendered_declaration() {
    let design = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/DESIGN.md"))
        .expect("DESIGN.md sits beside the root manifest");
    let table_under = |heading: &str| -> Vec<&str> {
        design
            .lines()
            .skip_while(|l| *l != heading)
            .skip(1)
            .skip_while(|l| !l.starts_with('|'))
            .take_while(|l| l.starts_with('|'))
            .collect()
    };
    for (heading, rendered) in [
        ("### Metrics", decl::metrics_table()),
        ("### Trace events", decl::events_table()),
    ] {
        let documented = table_under(heading);
        let declared: Vec<&str> = rendered.lines().collect();
        let only_documented: Vec<_> = documented
            .iter()
            .filter(|l| !declared.contains(l))
            .collect();
        let only_declared: Vec<_> = declared
            .iter()
            .filter(|l| !documented.contains(l))
            .collect();
        assert!(
            only_documented.is_empty() && only_declared.is_empty(),
            "DESIGN.md `{heading}` and `icache_obs::decl` disagree.\n\
             only in DESIGN.md (nothing can emit these): {only_documented:#?}\n\
             only in the declaration (undocumented): {only_declared:#?}"
        );
        assert_eq!(
            documented, declared,
            "`{heading}`: same rows, different order"
        );
    }
}

/// The code→doc half of the retired lint contract: product crates write
/// metrics through handles resolved from `icache_obs::decl`, never by
/// name (a string has no declaration behind it).
#[test]
fn product_crates_never_write_a_metric_by_name() {
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut dirs: Vec<_> = ["core", "storage", "sim", "bench"]
        .map(|c| crates.join(c).join("src"))
        .into();
    while let Some(dir) = dirs.pop() {
        for path in std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()) {
            if path.is_dir() {
                dirs.push(path);
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let product = text.split("#[cfg(test)]").next().unwrap_or_default();
            for call in ["inc", "observe"] {
                for arg in ["\"", "&format!", "format!"] {
                    let by_name = format!("obs.{call}({arg}");
                    assert!(
                        !product.contains(&by_name),
                        "{}: {by_name}…",
                        path.display()
                    );
                }
            }
        }
    }
}
