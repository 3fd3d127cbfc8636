//! Stale-suppression detection: every escape valve must still be
//! earning its keep. An inline `// lint: allow(rule)` hatch that no
//! longer matches a would-be finding, or a `lint.toml` allow entry
//! (determinism/panic file allows, `[locks]` io-exemptions) that
//! suppresses nothing, is itself a finding — suppressions rot into
//! blind spots otherwise.
//!
//! Must run *after* every other rule: usage is recorded on the side by
//! [`SourceFile::allowed`] and friends as the rules consult their
//! hatches.

use crate::config::Config;
use crate::diagnostics::Finding;
use crate::rules::locks::Analysis;
use crate::source::SourceFile;

/// Rule id. Deliberately absent from [`crate::KNOWN_RULES`]: a hatch
/// for the stale-hatch rule would be self-defeating.
pub const RULE: &str = "stale-allow";

/// Flag inline hatches and config allow entries that suppressed nothing
/// this run.
pub fn check(files: &[SourceFile], cfg: &Config, locks: &Analysis, out: &mut Vec<Finding>) {
    for file in files {
        for a in &file.allows {
            if !crate::KNOWN_RULES.contains(&a.rule.as_str()) {
                continue; // hygiene already flags unknown-rule hatches
            }
            if file.allow_used(&a.rule, a.effective_line) {
                continue;
            }
            out.push(Finding {
                rule: RULE,
                path: file.rel.clone(),
                line: a.comment_line,
                col: 1,
                message: format!(
                    "`lint: allow({})` hatch suppresses nothing — the finding it \
                     excused is gone; remove the hatch",
                    a.rule
                ),
            });
        }
    }

    let mut config_entry = |entry: &str, detail: String| {
        out.push(Finding {
            rule: RULE,
            path: "lint.toml".to_string(),
            line: 0,
            col: 0,
            message: format!("stale allow entry `{entry}`: {detail}"),
        });
    };
    for (list, rule) in [(&cfg.det_allow, "determinism"), (&cfg.panic_allow, "panic")] {
        for (path, _) in list {
            let used = files
                .iter()
                .any(|f| f.rel == *path && f.file_allow_used(rule));
            if !used {
                config_entry(
                    path,
                    format!("the [{rule}] file allow no longer suppresses any finding — prune it"),
                );
            }
        }
    }
    for (lock, _) in &cfg.lock_io_exempt {
        if !locks.io_exempt_used.contains(lock) {
            config_entry(
                lock,
                "the [locks] io_exempt entry matched no blocking call under this lock — prune it"
                    .to_string(),
            );
        }
    }
}
