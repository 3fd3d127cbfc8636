//! `icache-lint`: repo-specific static analysis for the iCache
//! workspace. See DESIGN.md §9.
//!
//! Rule families, each encoding an invariant the test suite cannot
//! cheaply enforce:
//!
//! - **determinism** — no unordered collections or ambient entropy in
//!   crates whose output must be a pure function of `(config, seed)`;
//! - **panic** — library code may not `unwrap()`/`panic!`; `expect()`
//!   must state the invariant it relies on;
//! - **hygiene** — `#![forbid(unsafe_code)]` in every crate root, no
//!   committed `dbg!`/`todo!`/`unimplemented!`, well-formed `lint:`
//!   directives;
//! - **locks** (`locks-order`, `locks-io`, `locks-guard`) — the
//!   concurrency discipline: the global lock-acquisition-order graph
//!   must be acyclic and match the hierarchy declared in `[locks]
//!   order`, no guard may be live across blocking I/O, and guard
//!   bindings must be hygienic (see `rules/locks.rs`);
//! - **stale-allow** — every suppression (inline hatch or `lint.toml`
//!   allow entry) must still be suppressing something.
//!
//! The analysis is a hand-rolled lexer plus token-level pattern rules,
//! extended with a lightweight syntactic layer (`syntax.rs`: brace
//! matching, item discovery, statement segmentation) and an
//! intra-workspace call graph (`callgraph.rs`) for the lock rules — the
//! container has no AST-parsing crate vendored, and the invariants
//! above are all expressible at this level with accurate line/column
//! positions.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod config;
pub mod diagnostics;
pub mod lexer;
pub mod rules;
pub mod source;
pub mod syntax;
pub mod walk;

use config::Config;
use diagnostics::Finding;
use source::SourceFile;
use std::path::Path;

/// Every rule id an allow hatch may name. `stale-allow` is deliberately
/// absent: a hatch for the stale-hatch rule would be self-defeating.
pub const KNOWN_RULES: &[&str] = &[
    "determinism",
    "hygiene",
    "locks-guard",
    "locks-io",
    "locks-order",
    "panic",
];

/// Everything a full run produces: the findings plus the lock graph
/// (the `--lock-graph` CI artifact).
pub struct RunReport {
    /// Sorted, deduplicated findings across all rules.
    pub findings: Vec<Finding>,
    /// Lock-acquisition-order graph as canonical JSON: nodes, edges,
    /// witness cycle paths, blocking paths.
    pub lock_graph: icache_obs::Json,
}

/// Run every rule over the workspace at `root`. Returns the sorted,
/// deduplicated findings; `Err` means the scan itself failed (unreadable
/// tree), not that findings exist.
pub fn run(root: &Path, cfg: &Config) -> Result<Vec<Finding>, String> {
    run_full(root, cfg).map(|r| r.findings)
}

/// [`run`], plus the lock-graph artifact.
pub fn run_full(root: &Path, cfg: &Config) -> Result<RunReport, String> {
    let discovered = walk::collect(root, cfg)?;
    let mut files = Vec::with_capacity(discovered.len());
    for wf in &discovered {
        let text = std::fs::read_to_string(&wf.abs)
            .map_err(|e| format!("read {}: {e}", wf.abs.display()))?;
        files.push(SourceFile::parse(
            wf.rel.clone(),
            wf.crate_dir.clone(),
            wf.kind,
            &text,
        ));
    }

    let mut findings = Vec::new();
    for file in &files {
        rules::determinism::check(file, cfg, &mut findings);
        rules::panic::check(file, cfg, &mut findings);
        rules::hygiene::check(file, cfg, &mut findings);
    }

    let syntaxes: Vec<syntax::Syntax> = files
        .iter()
        .map(|f| syntax::Syntax::build(&f.lexed))
        .collect();
    let graph = callgraph::CallGraph::build(&files, &syntaxes);
    let analysis = rules::locks::check(&files, &syntaxes, &graph, cfg, &mut findings);

    // Stale-suppression detection must run last: it reads the usage
    // marks every other rule left behind while consulting its hatches.
    rules::stale::check(&files, cfg, &analysis, &mut findings);

    diagnostics::sort_findings(&mut findings);
    Ok(RunReport {
        findings,
        lock_graph: analysis.graph,
    })
}

/// Load the configuration for `root`: `lint.toml` beside the workspace
/// manifest when present, built-in defaults otherwise. An explicit
/// `config_path` overrides both and must exist.
pub fn load_config(root: &Path, config_path: Option<&Path>) -> Result<Config, String> {
    let path = match config_path {
        Some(p) => p.to_path_buf(),
        None => {
            let default = root.join("lint.toml");
            if !default.is_file() {
                return Ok(Config::default());
            }
            default
        }
    };
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Config::parse(&text)
}
