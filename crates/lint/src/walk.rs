//! Workspace file discovery: deterministic (sorted) traversal of the
//! configured roots, with skip-prefix filtering and target-kind
//! classification from path shape alone — no manifest parsing, so the
//! fixture trees under `tests/fixtures/` lint exactly like the live
//! workspace.

use crate::config::Config;
use crate::source::FileKind;
use std::path::{Path, PathBuf};

/// A discovered `.rs` file.
#[derive(Debug, Clone)]
pub struct WorkspaceFile {
    /// Absolute (root-joined) path.
    pub abs: PathBuf,
    /// Path relative to the root, `/`-separated.
    pub rel: String,
    /// Crate directory under `crates/`, when any.
    pub crate_dir: Option<String>,
    /// Target kind.
    pub kind: FileKind,
}

/// Collect every `.rs` file under the configured roots, sorted by
/// relative path.
pub fn collect(root: &Path, cfg: &Config) -> Result<Vec<WorkspaceFile>, String> {
    let mut out = Vec::new();
    for r in &cfg.roots {
        let dir = root.join(r);
        if dir.is_dir() {
            walk(root, &dir, cfg, &mut out)?;
        }
    }
    out.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(out)
}

fn walk(root: &Path, dir: &Path, cfg: &Config, out: &mut Vec<WorkspaceFile>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        paths.push(entry.path());
    }
    paths.sort();
    for path in paths {
        let rel = relative(root, &path);
        if cfg
            .skip
            .iter()
            .any(|s| rel == *s || rel.starts_with(&format!("{s}/")))
        {
            continue;
        }
        if path.is_dir() {
            walk(root, &path, cfg, out)?;
        } else if rel.ends_with(".rs") {
            out.push(WorkspaceFile {
                abs: path.clone(),
                crate_dir: crate_dir_of(&rel),
                kind: classify(&rel),
                rel,
            });
        }
    }
    Ok(())
}

fn relative(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn crate_dir_of(rel: &str) -> Option<String> {
    rel.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .map(str::to_string)
}

fn classify(rel: &str) -> FileKind {
    if rel.starts_with("tests/") || rel.contains("/tests/") {
        FileKind::Test
    } else if rel.starts_with("examples/") || rel.contains("/examples/") {
        FileKind::Example
    } else if rel.contains("/src/bin/") || rel.ends_with("/main.rs") || rel == "src/main.rs" {
        FileKind::Bin
    } else {
        FileKind::Lib
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_by_path_shape() {
        assert_eq!(classify("crates/core/src/manager.rs"), FileKind::Lib);
        assert_eq!(
            classify("crates/bench/src/bin/icache_sim.rs"),
            FileKind::Bin
        );
        assert_eq!(classify("crates/lint/src/main.rs"), FileKind::Bin);
        assert_eq!(classify("crates/sim/examples/calib.rs"), FileKind::Example);
        assert_eq!(classify("tests/end_to_end.rs"), FileKind::Test);
        assert_eq!(classify("crates/bench/tests/cli.rs"), FileKind::Test);
        assert_eq!(classify("examples/quickstart.rs"), FileKind::Example);
    }

    #[test]
    fn crate_dir_extraction() {
        assert_eq!(
            crate_dir_of("crates/core/src/lib.rs"),
            Some("core".to_string())
        );
        assert_eq!(crate_dir_of("src/lib.rs"), None);
        assert_eq!(crate_dir_of("tests/x.rs"), None);
    }
}
