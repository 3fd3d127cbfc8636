//! Fixture-tree tests: every rule family fires on the violations tree at
//! exactly the positions it should, and the clean tree produces nothing.

use icache_lint::config::Config;
use icache_lint::diagnostics::Finding;
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run_fixture(name: &str) -> Vec<Finding> {
    icache_lint::run(&fixture(name), &Config::default()).expect("fixture tree must be scannable")
}

fn has(findings: &[Finding], rule: &str, path: &str, line: u32, col: u32) -> bool {
    findings
        .iter()
        .any(|f| f.rule == rule && f.path == path && f.line == line && f.col == col)
}

#[test]
fn clean_tree_has_no_findings() {
    let findings = run_fixture("clean");
    assert!(findings.is_empty(), "unexpected findings: {findings:#?}");
}

#[test]
fn determinism_violation_at_exact_position() {
    let findings = run_fixture("violations");
    // `HashMap` in the `State` struct field; the `use` line is exempt.
    assert!(has(
        &findings,
        "determinism",
        "crates/core/src/lib.rs",
        9,
        14
    ));
    // `HashSet` in the `Dedup` struct field (fully qualified — no `use`
    // line to exempt it).
    assert!(has(
        &findings,
        "determinism",
        "crates/core/src/lib.rs",
        36,
        33
    ));
    assert_eq!(
        findings.iter().filter(|f| f.rule == "determinism").count(),
        2,
        "the use-declaration must not be flagged"
    );
}

#[test]
fn panic_violations_at_exact_positions() {
    let findings = run_fixture("violations");
    let lib = "crates/core/src/lib.rs";
    assert!(has(&findings, "panic", lib, 13, 20), "unwrap()");
    assert!(has(&findings, "panic", lib, 19, 14), "panic!");
    assert!(has(&findings, "panic", lib, 24, 7), "short expect()");
    // `unreachable!()` on line 32 is hatched (reasonlessly — that is a
    // hygiene finding, not a panic one).
    assert_eq!(findings.iter().filter(|f| f.rule == "panic").count(), 3);
}

#[test]
fn hygiene_violations_cover_forbid_dbg_and_bad_hatch() {
    let findings = run_fixture("violations");
    let lib = "crates/core/src/lib.rs";
    // Missing `#![forbid(unsafe_code)]` anchors to 1:1; the mention
    // inside the doc comment must not count.
    assert!(has(&findings, "hygiene", lib, 1, 1));
    assert!(has(&findings, "hygiene", lib, 28, 5), "dbg!");
    let reasonless = findings
        .iter()
        .find(|f| f.rule == "hygiene" && f.line == 32)
        .expect("reasonless allow hatch must be flagged");
    assert!(reasonless.message.contains("reason"));
    assert_eq!(findings.iter().filter(|f| f.rule == "hygiene").count(), 3);
}

#[test]
fn lock_violations_at_exact_positions() {
    let findings = run_fixture("violations");
    let locks = "crates/core/src/locks.rs";
    // The `ab`/`ba` pair forms a Pair.a -> Pair.b -> Pair.a cycle; the
    // finding anchors at the witness of the cycle's first edge.
    let cycle = findings
        .iter()
        .find(|f| f.rule == "locks-order")
        .expect("cycle finding");
    assert_eq!(
        (cycle.path.as_str(), cycle.line, cycle.col),
        (locks, 15, 25)
    );
    assert!(
        cycle.message.contains("Pair.a -> Pair.b -> Pair.a"),
        "{}",
        cycle.message
    );
    assert_eq!(
        findings.iter().filter(|f| f.rule == "locks-order").count(),
        1
    );

    // `recv()` under the live `_ga` guard.
    assert!(has(&findings, "locks-io", locks, 27, 13));
    assert_eq!(findings.iter().filter(|f| f.rule == "locks-io").count(), 1);

    // Guard bound to `_` and the re-lock of an already-held field.
    assert!(
        has(&findings, "locks-guard", locks, 31, 24),
        "{findings:#?}"
    );
    assert!(
        has(&findings, "locks-guard", locks, 36, 28),
        "{findings:#?}"
    );
    assert_eq!(
        findings.iter().filter(|f| f.rule == "locks-guard").count(),
        2
    );

    // The `allow(panic)` hatch on line 41 excuses nothing.
    assert!(has(&findings, "stale-allow", locks, 41, 1), "{findings:#?}");
    assert_eq!(
        findings.iter().filter(|f| f.rule == "stale-allow").count(),
        1
    );
}

#[test]
fn hierarchy_contract_flags_undeclared_participating_lock() {
    // A declared order that omits Pair.a: the edges it participates in
    // must produce an "undeclared" finding (once, despite two edges).
    let cfg = Config {
        lock_order: vec!["Pair.b".to_string()],
        ..Config::default()
    };
    let findings =
        icache_lint::run(&fixture("violations"), &cfg).expect("fixture tree must be scannable");
    let undeclared: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "locks-order" && f.message.contains("not declared"))
        .collect();
    assert_eq!(undeclared.len(), 1, "{undeclared:#?}");
    assert!(undeclared[0].message.contains("`Pair.a`"));
    assert_eq!(undeclared[0].path, "crates/core/src/locks.rs");
}

#[test]
fn hierarchy_contract_flags_declared_but_never_seen_lock() {
    let cfg = Config {
        lock_order: vec![
            "Pair.a".to_string(),
            "Pair.b".to_string(),
            "Ghost.lock".to_string(),
        ],
        ..Config::default()
    };
    let findings =
        icache_lint::run(&fixture("violations"), &cfg).expect("fixture tree must be scannable");
    let ghost = findings
        .iter()
        .find(|f| f.rule == "locks-order" && f.message.contains("`Ghost.lock`"))
        .expect("never-seen finding");
    assert!(ghost.message.contains("never seen"), "{}", ghost.message);
    // Configuration findings anchor to the config file, not a source file.
    assert_eq!(
        (ghost.path.as_str(), ghost.line, ghost.col),
        ("lint.toml", 0, 0)
    );
}

#[test]
fn hierarchy_contract_flags_rank_inversion() {
    // Declare Pair.b outermost: the `ab` nesting (a held, then b) now
    // inverts the declared order.
    let cfg = Config {
        lock_order: vec!["Pair.b".to_string(), "Pair.a".to_string()],
        ..Config::default()
    };
    let findings =
        icache_lint::run(&fixture("violations"), &cfg).expect("fixture tree must be scannable");
    let inversion = findings
        .iter()
        .find(|f| f.rule == "locks-order" && f.message.contains("outermost-before"))
        .expect("rank-inversion finding");
    assert_eq!(inversion.path, "crates/core/src/locks.rs");
    assert_eq!((inversion.line, inversion.col), (15, 25));
}

#[test]
fn findings_are_sorted_and_render_as_path_line_col() {
    let findings = run_fixture("violations");
    assert!(!findings.is_empty());
    let keys: Vec<(&str, u32, u32)> = findings
        .iter()
        .map(|f| (f.path.as_str(), f.line, f.col))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "report order must be canonical");
    let rendered = findings[0].render();
    assert!(
        rendered.contains(&format!(
            "{}:{}:{}: [{}]",
            findings[0].path, findings[0].line, findings[0].col, findings[0].rule
        )),
        "{rendered}"
    );
}
