//! `icache_sim` from the command line: the plain `--nodes N` path is
//! pinned byte-for-byte to its golden summary, unknown flags are
//! rejected, and the churn flag group (`--kill-node`, `--rejoin`, `--cold`, ...)
//! drives a kill/rejoin run whose trace records the repartition and
//! recovery.
//!
//! Tests in this binary run in parallel threads of one process, so temp
//! paths embed both the pid and a per-test name.

use std::path::PathBuf;
use std::process::Command;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("icache-churn-cli-{}-{name}", std::process::id()));
    p
}

fn sim(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_icache_sim"))
        .args(args)
        .output()
        .expect("icache_sim runs")
}

#[test]
fn facade_nodes3_summary_is_byte_identical_to_the_prerefactor_golden() {
    let json = tmp("golden-pin.json");
    let out = sim(&[
        "--nodes",
        "3",
        "--scale",
        "0.04",
        "--epochs",
        "3",
        "--json",
        json.to_str().expect("utf8 tmp path"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = std::fs::read_to_string(&json).expect("summary written");
    let want = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/sim_nodes3.json"
    ))
    .expect("golden present");
    assert_eq!(
        got, want,
        "`--nodes 3` without churn flags must reproduce the direct-call \
         cluster's output byte-for-byte"
    );
    let _ = std::fs::remove_file(json);
}

#[test]
fn churn_flags_drive_a_traced_kill_rejoin_cycle() {
    let trace = tmp("churn.jsonl");
    let json = tmp("churn.json");
    let out = sim(&[
        "--nodes",
        "3",
        "--scale",
        "0.04",
        "--epochs",
        "4",
        "--kill-node",
        "1@2",
        "--rejoin",
        "--trace",
        trace.to_str().expect("utf8 tmp path"),
        "--json",
        json.to_str().expect("utf8 tmp path"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        stdout.contains("churn: kills=1 rejoins=1"),
        "churn summary line missing:\n{stdout}"
    );
    assert!(
        stdout.contains("warm_restarts=1"),
        "rejoin defaults to warm:\n{stdout}"
    );
    assert!(
        stdout.contains("live=[0, 1, 2]"),
        "all three nodes must be live at the end:\n{stdout}"
    );

    let trace_text = std::fs::read_to_string(&trace).expect("trace written");
    for event in [
        "membership_change",
        "partition_update",
        "directory_remap",
        "warm_recovery",
    ] {
        assert!(
            trace_text.contains(&format!("\"event\":\"{event}\"")),
            "trace must record `{event}` events"
        );
    }

    let summary = std::fs::read_to_string(&json).expect("summary written");
    for counter in ["svc.kills", "svc.rejoins", "svc.repartition.moved"] {
        assert!(
            summary.contains(counter),
            "JSON summary must expose `{counter}`"
        );
    }

    for p in [trace, json] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn churn_flags_are_validated() {
    // --rejoin without a kill has nothing to rejoin.
    let out = sim(&["--nodes", "3", "--rejoin"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--kill-node"));

    // Churn needs a cluster.
    let out = sim(&["--kill-node", "0@1"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--nodes"));

    // The killed node must exist.
    let out = sim(&["--nodes", "2", "--kill-node", "5@1"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("does not exist"));

    // Malformed node@epoch.
    let out = sim(&["--nodes", "2", "--kill-node", "nope"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("node@epoch"));
}

#[test]
fn unknown_flags_are_rejected_and_help_runs_nothing() {
    let out = sim(&["--sytem", "icache"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("error: unknown flag --sytem (nearest known flag: --system)")
            && stderr.lines().count() == 1,
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing may run on a bad flag");

    let out = sim(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("--kill-node <value>"), "{stdout}");
    assert!(
        !stdout.contains("epoch  wall"),
        "--help simulated:\n{stdout}"
    );
}
