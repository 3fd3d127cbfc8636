//! End-to-end tests of the `icache_lint` binary: exit codes, the
//! human-readable listing, and the `--json` report CI consumes.

use icache_obs::Json;
use std::path::PathBuf;
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_icache_lint"))
        .args(args)
        .output()
        .expect("spawning the icache_lint binary must succeed")
}

#[test]
fn clean_tree_exits_zero() {
    let out = lint(&["--root", fixture("clean").to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("clean"));
}

#[test]
fn violations_exit_one_with_positions_on_stdout() {
    let out = lint(&["--root", fixture("violations").to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("crates/core/src/lib.rs:9:14: [determinism]"),
        "{stdout}"
    );
    assert!(stdout.contains("crates/core/src/lib.rs:13:20: [panic]"));
}

#[test]
fn json_report_is_machine_readable() {
    let out = lint(&["--root", fixture("violations").to_str().unwrap(), "--json"]);
    assert_eq!(out.status.code(), Some(1));
    let report = Json::parse(&String::from_utf8_lossy(&out.stdout))
        .expect("report must be valid canonical JSON");
    assert_eq!(report["ok"].as_bool(), Some(false));
    let findings = report["findings"].as_array().expect("findings array");
    assert_eq!(
        findings.len(),
        13,
        "2 determinism + 3 panic + 3 hygiene + 1 locks-order \
         + 1 locks-io + 2 locks-guard + 1 stale-allow"
    );
    for f in findings {
        assert!(f["rule"].as_str().is_some());
        assert!(f["path"].as_str().is_some());
        assert!(f["message"].as_str().is_some());
    }
    // Per-rule counts mirror the findings list.
    assert_eq!(report["counts"]["determinism"].as_u64(), Some(2));
    assert_eq!(report["counts"]["panic"].as_u64(), Some(3));
    assert_eq!(report["counts"]["hygiene"].as_u64(), Some(3));
    assert_eq!(report["counts"]["locks-order"].as_u64(), Some(1));
    assert_eq!(report["counts"]["locks-io"].as_u64(), Some(1));
    assert_eq!(report["counts"]["locks-guard"].as_u64(), Some(2));
    assert_eq!(report["counts"]["stale-allow"].as_u64(), Some(1));
}

#[test]
fn lock_graph_artifact_has_nodes_edges_and_witness_cycle() {
    let dir = std::env::temp_dir().join("icache_lint_lock_graph_test");
    std::fs::create_dir_all(&dir).expect("temp dir must be creatable");
    let graph_path = dir.join("lock-graph.json");
    let out = lint(&[
        "--root",
        fixture("violations").to_str().unwrap(),
        "--lock-graph",
        graph_path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = std::fs::read_to_string(&graph_path).expect("artifact must be written");
    let graph = Json::parse(&text).expect("artifact must be valid canonical JSON");

    // Nodes carry name/declared/rank/io_exempt/sites.
    let nodes = graph["nodes"].as_array().expect("nodes array");
    let pair_a = nodes
        .iter()
        .find(|n| n["name"].as_str() == Some("Pair.a"))
        .expect("Pair.a node");
    assert_eq!(pair_a["declared"].as_bool(), Some(false));
    assert!(matches!(pair_a["rank"], Json::Null));
    assert!(pair_a["sites"].as_u64().unwrap_or(0) >= 3);

    // Both directions of the cycle appear as edges with file:line:col
    // witnesses inside the fixture tree.
    let edges = graph["edges"].as_array().expect("edges array");
    for (from, to) in [("Pair.a", "Pair.b"), ("Pair.b", "Pair.a")] {
        let e = edges
            .iter()
            .find(|e| e["from"].as_str() == Some(from) && e["to"].as_str() == Some(to))
            .unwrap_or_else(|| panic!("edge {from} -> {to} missing"));
        let at = e["at"].as_str().expect("edge witness position");
        assert!(
            at.starts_with("crates/core/src/locks.rs:"),
            "witness must point into the fixture: {at}"
        );
    }

    // The witness cycle is closed (first node repeated) and canonical.
    let cycles = graph["cycles"].as_array().expect("cycles array");
    assert_eq!(cycles.len(), 1, "{text}");
    let cyc: Vec<&str> = cycles[0]
        .as_array()
        .expect("cycle path")
        .iter()
        .map(|n| n.as_str().expect("node name"))
        .collect();
    assert_eq!(cyc, ["Pair.a", "Pair.b", "Pair.a"]);

    // The blocking section records the io violation with its chain.
    let blocking = graph["blocking"].as_array().expect("blocking array");
    let b = blocking
        .iter()
        .find(|b| b["status"].as_str() == Some("violation"))
        .expect("blocking violation entry");
    assert_eq!(b["lock"].as_str(), Some("Pair.a"));
    assert_eq!(b["chain"].as_str(), Some("recv"));
}

#[test]
fn json_report_on_clean_tree_is_ok() {
    let out = lint(&["--root", fixture("clean").to_str().unwrap(), "--json"]);
    assert_eq!(out.status.code(), Some(0));
    let report = Json::parse(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON");
    assert_eq!(report["ok"].as_bool(), Some(true));
    assert_eq!(report["findings"].as_array().map(|a| a.len()), Some(0));
}

#[test]
fn usage_errors_exit_two() {
    let out = lint(&["--no-such-flag"]);
    assert_eq!(out.status.code(), Some(2));
    let out = lint(&[
        "--root",
        fixture("clean").to_str().unwrap(),
        "--config",
        "/nonexistent/lint.toml",
    ]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "missing explicit config is an error"
    );
}

#[test]
fn bad_config_exits_two() {
    let dir = std::env::temp_dir().join("icache_lint_bad_cfg_test");
    std::fs::create_dir_all(&dir).expect("temp dir must be creatable");
    let cfg = dir.join("lint.toml");
    std::fs::write(&cfg, "[determinism]\nallow = [\"crates/x.rs\"]\n")
        .expect("temp config must be writable");
    let out = lint(&[
        "--root",
        fixture("clean").to_str().unwrap(),
        "--allowlist",
        cfg.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("reasons are mandatory"));
}

#[test]
fn help_exits_zero() {
    let out = lint(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("EXIT CODES"));
}
