//! End-to-end tests of the bench binaries' `--trace` / `--json` flags:
//! golden-trace determinism (byte-identical reruns, including the epoch
//! markers), distributed per-node counters, and `icache_replay`'s
//! one-trace-ring-per-policy output.
//!
//! Tests in this binary run in parallel threads of one process, so temp
//! paths embed both the pid and a per-test name — never share a `tmp`
//! name between tests.

use icache_obs::Json;
use std::path::PathBuf;
use std::process::Command;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("icache-cli-trace-{}-{name}", std::process::id()));
    p
}

fn run_sim(extra: &[&str], trace: &PathBuf, json: &PathBuf) {
    let out = Command::new(env!("CARGO_BIN_EXE_icache_sim"))
        .args([
            "--system", "icache", "--scale", "0.02", "--batch", "64", "--seed", "7",
        ])
        .args(extra)
        .arg("--trace")
        .arg(trace)
        .arg("--json")
        .arg(json)
        .output()
        .expect("icache_sim runs");
    assert!(
        out.status.success(),
        "icache_sim failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

fn event_of(line: &str) -> String {
    Json::parse(line)
        .unwrap_or_else(|e| panic!("bad line `{line}`: {e}"))
        .get("event")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing event tag: {line}"))
        .to_string()
}

#[test]
fn trace_and_summary_files_are_nonempty_and_deterministic() {
    let (trace_a, json_a) = (tmp("golden-a.jsonl"), tmp("golden-a.json"));
    let (trace_b, json_b) = (tmp("golden-b.jsonl"), tmp("golden-b.json"));
    run_sim(&["--epochs", "2"], &trace_a, &json_a);
    run_sim(&["--epochs", "2"], &trace_b, &json_b);

    let ta = std::fs::read_to_string(&trace_a).expect("trace file written");
    let tb = std::fs::read_to_string(&trace_b).expect("trace file written");
    assert!(!ta.is_empty(), "trace must be non-empty");
    assert_eq!(ta, tb, "same seed + config must give byte-identical traces");

    let sa = std::fs::read_to_string(&json_a).expect("summary file written");
    let sb = std::fs::read_to_string(&json_b).expect("summary file written");
    assert!(!sa.is_empty(), "summary must be non-empty");
    assert_eq!(
        sa, sb,
        "same seed + config must give byte-identical summaries"
    );

    // Every trace line is a JSON object tagged with an event name; the
    // epoch markers bracket the stream (one pair per epoch, starts open).
    let events: Vec<String> = ta.lines().map(event_of).collect();
    assert_eq!(events.first().map(String::as_str), Some("epoch_start"));
    let starts = events.iter().filter(|e| *e == "epoch_start").count();
    let ends = events.iter().filter(|e| *e == "epoch_end").count();
    assert_eq!(starts, 2, "one epoch_start marker per epoch");
    assert_eq!(ends, 2, "one epoch_end marker per epoch");

    let summary = Json::parse(&sa).expect("summary parses");
    assert!(summary
        .get("jobs")
        .and_then(|j| j.as_array())
        .is_some_and(|j| !j.is_empty()));
    assert!(summary.get("metrics").is_some());
    assert!(
        summary
            .get("trace")
            .and_then(|t| t.get("emitted"))
            .and_then(Json::as_u64)
            .is_some_and(|n| n > 0),
        "summary must account for emitted trace events: {summary}"
    );

    for p in [trace_a, json_a, trace_b, json_b] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn distributed_trace_splits_into_one_segment_per_epoch() {
    let (trace_a, json_a) = (tmp("dist-a.jsonl"), tmp("dist-a.json"));
    let (trace_b, json_b) = (tmp("dist-b.jsonl"), tmp("dist-b.json"));
    let flags = ["--nodes", "2", "--epochs", "3"];
    run_sim(&flags, &trace_a, &json_a);
    run_sim(&flags, &trace_b, &json_b);

    let ta = std::fs::read_to_string(&trace_a).expect("trace file written");
    assert_eq!(
        ta,
        std::fs::read_to_string(&trace_b).expect("trace file written"),
        "distributed runs must be deterministic too"
    );

    // Rank 0 alone emits the markers: splitting the stream on
    // `epoch_start` yields exactly `--epochs` segments, each closed by a
    // matching `epoch_end`.
    let events: Vec<String> = ta.lines().map(event_of).collect();
    let starts: Vec<usize> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| *e == "epoch_start")
        .map(|(i, _)| i)
        .collect();
    assert_eq!(starts.first(), Some(&0), "trace opens with an epoch marker");
    let segments: Vec<&[String]> = starts
        .iter()
        .enumerate()
        .map(|(k, &i)| {
            let end = starts.get(k + 1).copied().unwrap_or(events.len());
            &events[i..end]
        })
        .collect();
    assert_eq!(segments.len(), 3, "one segment per epoch, no more");
    for seg in &segments {
        assert_eq!(
            seg.iter().filter(|e| *e == "epoch_end").count(),
            1,
            "every segment closes exactly once"
        );
    }
    // remote peer reads show up as first-class trace events
    assert!(
        events.iter().any(|e| e == "remote_hit"),
        "a 2-node cluster must trace remote hits"
    );

    let summary = Json::parse(&std::fs::read_to_string(&json_a).expect("summary written"))
        .expect("summary parses");
    assert_eq!(
        summary
            .get("trace")
            .and_then(|t| t.get("dropped"))
            .and_then(Json::as_u64),
        Some(0),
        "ring must not overflow at this scale"
    );
    let nodes = summary
        .get("nodes")
        .and_then(|n| n.as_array())
        .expect("distributed summary has a nodes array")
        .to_vec();
    assert_eq!(nodes.len(), 2);
    let classified: u64 = nodes
        .iter()
        .map(|n| {
            ["local_hits", "remote_hits", "storage_fetches"]
                .iter()
                .map(|k| n.get(k).and_then(Json::as_u64).expect("node counter"))
                .sum::<u64>()
        })
        .sum();
    let fetched: u64 = summary
        .get("jobs")
        .and_then(|j| j.as_array())
        .expect("jobs array")
        .iter()
        .flat_map(|job| {
            job.get("epochs")
                .and_then(|e| e.as_array())
                .expect("epochs array")
                .iter()
                .map(|e| {
                    e.get("samples_fetched")
                        .and_then(Json::as_u64)
                        .expect("samples_fetched")
                })
                .collect::<Vec<_>>()
        })
        .sum();
    assert_eq!(
        classified, fetched,
        "every fetch lands in exactly one per-node bucket"
    );

    for p in [trace_a, json_a, trace_b, json_b] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn replay_gives_each_policy_its_own_trace_ring() {
    let trace_out = tmp("replay.jsonl");
    let json = tmp("replay.json");
    let out = Command::new(env!("CARGO_BIN_EXE_icache_replay"))
        .args([
            "--pattern",
            "zipf",
            "--requests",
            "2000",
            "--universe",
            "1000",
            "--seed",
            "11",
        ])
        .arg("--trace-out")
        .arg(&trace_out)
        .arg("--json")
        .arg(&json)
        .output()
        .expect("icache_replay runs");
    assert!(
        out.status.success(),
        "icache_replay failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    let policies = ["lru", "coordl", "ilfu", "quiver", "icache"];
    let mut files = Vec::new();
    for policy in policies {
        let path = tmp(&format!("replay.{policy}.jsonl"));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("per-policy trace {} missing: {e}", path.display()));
        files.push(path);
        // Per-file rings: seq restarts at 0 and counts up contiguously.
        for (i, line) in text.lines().enumerate() {
            let v = Json::parse(line).unwrap_or_else(|e| panic!("bad line `{line}`: {e}"));
            assert_eq!(v.get("seq").and_then(Json::as_u64), Some(i as u64));
        }
        // Zero cross-policy interleaving: iCache's region events appear
        // only in iCache's own file; baselines trace no cache events.
        let cache_events = text
            .lines()
            .filter(|l| {
                let e = event_of(l);
                e.starts_with("h_") || e.starts_with("l_") || e == "package_build"
            })
            .count();
        if policy == "icache" {
            assert!(cache_events > 0, "icache trace must record its regions");
        } else {
            assert_eq!(cache_events, 0, "{policy} trace polluted by cache events");
        }
    }

    // Each per-policy snapshot accounts for every access of the shared
    // workload: the six replay.* counters sum to `accesses`.
    let summary =
        Json::parse(&std::fs::read_to_string(&json).expect("summary written")).expect("parses");
    let accesses = summary
        .get("accesses")
        .and_then(Json::as_u64)
        .expect("accesses");
    assert_eq!(accesses, 2000);
    for policy in policies {
        let counters = summary
            .get("policies")
            .and_then(|p| p.get(policy))
            .and_then(|p| p.get("metrics"))
            .and_then(|m| m.get("counters"))
            .unwrap_or_else(|| panic!("{policy} counters missing"))
            .clone();
        let served: u64 = ["h_hits", "l_hits", "pm_hits", "substitutions", "misses"]
            .iter()
            .map(|k| {
                counters
                    .get(&format!("replay.{k}"))
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(
            served, accesses,
            "{policy} snapshot must cover the workload"
        );
        assert_eq!(
            counters.get("replay.accesses").and_then(Json::as_u64),
            Some(accesses)
        );
    }

    files.push(trace_out);
    files.push(json);
    for p in files {
        let _ = std::fs::remove_file(p);
    }
}
