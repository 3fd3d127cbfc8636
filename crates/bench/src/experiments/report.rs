//! The sink an experiment writes into instead of stdout.
//!
//! Buffering the output is what lets stdout, `--out <dir>/<id>.txt`, the
//! golden tests and a parallel fan-out across experiments share one path:
//! an experiment never prints, so running it on a worker thread cannot
//! interleave its lines with another's.

use icache_obs::ToJson;
use icache_sim::report::Table;
use std::fmt::Display;

/// What opens every verdict line; `Experiment::verdict` reads it back.
pub(super) const CHECK_PREFIX: &str = "shape check: ";
/// The marker of a check whose predicate evaluated true.
pub(super) const HOLDS: &str = " (holds) [";

/// One experiment's rendered output.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Report {
    text: String,
}

impl Report {
    /// Append one line (a multi-line `text` appends all of its lines).
    pub fn line(&mut self, text: impl Display) {
        self.text.push_str(&text.to_string());
        self.text.push('\n');
    }

    /// Append one machine-readable `JSON <tag> {...}` line.
    pub fn json<T: ToJson + ?Sized>(&mut self, tag: &str, value: &T) {
        self.line(format_args!("JSON {tag} {}", value.to_json()));
    }

    /// Append a rendered table and the blank line that follows it.
    pub fn table(&mut self, table: &Table) {
        self.line(table.render());
        self.line("");
    }

    /// Append a computed verdict: `name` states the expected shape,
    /// `holds` is the predicate evaluated on this run's numbers, and
    /// `values` shows the numbers (and threshold) it compared.
    pub fn check(&mut self, name: &str, holds: bool, values: impl Display) {
        let verdict = if holds { HOLDS } else { " (VIOLATED) [" };
        self.line(format_args!("{CHECK_PREFIX}{name}{verdict}{values}]"));
    }

    /// Everything written so far.
    pub fn text(&self) -> &str {
        &self.text
    }
}
