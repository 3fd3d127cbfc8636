//! `icache_replay` from the command line: absolute goldens for every
//! mode that promises byte-identical output, the mode banners, and the
//! refusals. (`fig18_prefetch`, which shares the replay loop, is pinned at
//! its full depth sweep by `tests/experiments.rs`; its old depth-{0,4}
//! golden here was a subset of that and is gone.)
//!
//! The goldens under `tests/golden/` were recorded at the commit before
//! the replay drivers were merged, so a refactor that shifts *every*
//! mode at once still fails here.

use std::path::{Path, PathBuf};
use std::process::Command;

const POLICIES: [&str; 5] = ["lru", "coordl", "ilfu", "quiver", "icache"];

fn golden(rel: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(rel);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("icache_replay_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn replay_cmd() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_icache_replay"));
    cmd.args(["--requests", "3000", "--universe", "2000", "--seed", "3"]);
    cmd
}

fn stdout_of(mut cmd: Command, what: &str) -> Vec<u8> {
    let out = cmd.output().unwrap_or_else(|e| panic!("{what}: {e}"));
    assert!(
        out.status.success(),
        "{what} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn assert_same(got: &[u8], want: &[u8], what: &str) {
    assert!(
        got == want,
        "{what} differs from its golden:\n{}",
        String::from_utf8_lossy(got)
    );
}

#[test]
fn outputs_match_the_recorded_goldens() {
    // (mode flags, golden directory): every mode documented as
    // byte-identical to the plain run shares the plain golden.
    let modes: [(&[&str], &str); 6] = [
        (&[], "replay_plain"),
        (&["--prefetch-depth", "0"], "replay_plain"),
        (&["--loader-threads", "1"], "replay_plain"),
        (&["--parallel", "2"], "replay_plain"),
        (&["--parallel"], "replay_plain"),
        (
            &["--prefetch-depth", "4", "--compute-us", "50"],
            "replay_prefetch",
        ),
    ];
    for (i, (flags, golden_dir)) in modes.iter().enumerate() {
        let what = format!("icache_replay {flags:?}");
        // Relative output paths: stdout names them.
        let dir = scratch(&format!("mode{i}"));
        let mut cmd = replay_cmd();
        cmd.current_dir(&dir)
            .args(["--trace-out", "trace.jsonl", "--json", "summary.json"])
            .args(*flags);
        let stdout = stdout_of(cmd, &what);
        assert_same(
            &stdout,
            &golden(&format!("{golden_dir}/stdout.txt")),
            &format!("{what} stdout"),
        );
        let files = POLICIES.map(|p| format!("trace.{p}.jsonl"));
        for file in files.iter().map(String::as_str).chain(["summary.json"]) {
            let got = std::fs::read(dir.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
            assert_same(
                &got,
                &golden(&format!("{golden_dir}/{file}")),
                &format!("{what} {file}"),
            );
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn unknown_flags_are_rejected_and_help_runs_nothing() {
    let out = replay_cmd()
        .args(["--sytem", "icache"])
        .output()
        .expect("icache_replay runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("error: unknown flag --sytem") && stderr.lines().count() == 1,
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing may run on a bad flag");

    let out = replay_cmd()
        .arg("--help")
        .output()
        .expect("icache_replay runs");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("--loader-threads <value>"), "{stdout}");
    assert!(!stdout.contains("hit%"), "--help replayed:\n{stdout}");
}

#[test]
fn multi_loader_threads_replays_every_policy() {
    let mut cmd = replay_cmd();
    cmd.args(["--loader-threads", "4"]);
    let stdout = String::from_utf8(stdout_of(cmd, "4-thread replay")).expect("utf-8");
    assert!(
        stdout.contains("loader threads: 4"),
        "mode banner missing:\n{stdout}"
    );
    for policy in POLICIES {
        assert!(stdout.contains(policy), "{policy} row missing:\n{stdout}");
    }
    assert!(stdout.contains("contended"), "contention column missing");
}

#[test]
fn prefetch_mode_reports_stall_for_every_policy() {
    let mut cmd = replay_cmd();
    cmd.args(["--prefetch-depth", "8", "--compute-us", "50"]);
    let stdout = String::from_utf8(stdout_of(cmd, "depth-8 replay")).expect("utf-8");
    assert!(
        stdout.contains("clairvoyant prefetch: lookahead depth 8"),
        "mode banner missing:\n{stdout}"
    );
    for policy in POLICIES {
        assert!(stdout.contains(policy), "{policy} row missing:\n{stdout}");
    }
    assert!(stdout.contains("stall"), "stall column missing:\n{stdout}");
}

#[test]
fn conflicting_mode_flags_are_refused() {
    // (flags, the flag the error must name)
    let refused: [(&[&str], &str); 5] = [
        // --compute-us drives the overlap clock; meaningless without a window.
        (&["--compute-us", "50"], "--prefetch-depth"),
        // The concurrent path has no deterministic plan order to prefetch,
        // publishes counters rather than events, and is its own axis of
        // parallelism.
        (
            &["--prefetch-depth", "4", "--loader-threads", "2"],
            "--loader-threads",
        ),
        (
            &["--loader-threads", "2", "--trace-out", "unused.jsonl"],
            "--loader-threads",
        ),
        (
            &["--loader-threads", "2", "--parallel", "2"],
            "--loader-threads",
        ),
        (&["--loader-threads", "0"], "--loader-threads"),
    ];
    for (flags, names) in refused {
        let out = replay_cmd()
            .args(flags)
            .output()
            .expect("icache_replay runs");
        assert_eq!(out.status.code(), Some(1), "{flags:?} must be refused");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(names), "{flags:?}: {stderr}");
    }
}

#[test]
fn hex_and_decimal_seeds_are_the_same_run() {
    let run = |seed: &str| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_icache_replay"));
        cmd.args(["--requests", "300", "--universe", "200", "--seed", seed]);
        stdout_of(cmd, &format!("--seed {seed}"))
    };
    assert_same(&run("0x1F"), &run("31"), "--seed 0x1F vs --seed 31");
}
