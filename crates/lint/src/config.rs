//! `lint.toml` parsing: a minimal, dependency-free TOML subset.
//!
//! Supported grammar — exactly what the committed config uses:
//!
//! ```toml
//! [section]
//! key = "string"
//! key = ["item", "item"]   # arrays may span lines
//! ```
//!
//! Allowlist entries are strings of the form `"<path>: <reason>"`; the
//! reason is mandatory (an allowlist without rationale is how contracts
//! rot).

use std::collections::BTreeMap;

/// Parsed lint configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Directories (relative to the root) to scan for `.rs` files.
    pub roots: Vec<String>,
    /// Path prefixes to skip entirely.
    pub skip: Vec<String>,
    /// Crate directories under `crates/` subject to the determinism rule.
    pub det_crates: Vec<String>,
    /// Files exempt from the determinism rule: `(path, reason)`.
    pub det_allow: Vec<(String, String)>,
    /// Files exempt from the panic rule: `(path, reason)`.
    pub panic_allow: Vec<(String, String)>,
    /// Minimum length of an `expect()` message for it to count as an
    /// invariant statement.
    pub min_expect_message: usize,
    /// The authoritative lock hierarchy, outermost first: a lock may
    /// only be acquired while holding locks that appear *earlier* in
    /// this list. Empty disables the declared-order checks (cycle and
    /// I/O checks still run).
    pub lock_order: Vec<String>,
    /// Locks allowed to be held across blocking calls: `(lock, reason)`.
    pub lock_io_exempt: Vec<(String, String)>,
    /// Free functions that acquire the lock passed as their first
    /// argument (contention-counting wrappers).
    pub lock_wrappers: Vec<String>,
    /// Callee names treated as blocking I/O sinks.
    pub lock_blocking: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            roots: vec![
                "crates".to_string(),
                "src".to_string(),
                "tests".to_string(),
                "examples".to_string(),
            ],
            skip: vec!["vendor".to_string(), "target".to_string()],
            det_crates: vec![
                "core".to_string(),
                "sampling".to_string(),
                "baselines".to_string(),
                "sim".to_string(),
            ],
            det_allow: Vec::new(),
            panic_allow: Vec::new(),
            min_expect_message: 8,
            lock_order: Vec::new(),
            lock_io_exempt: Vec::new(),
            lock_wrappers: vec!["lock_counted".to_string()],
            lock_blocking: vec![
                "read_sample".to_string(),
                "read_samples".to_string(),
                "read_package".to_string(),
                "send".to_string(),
                "recv".to_string(),
            ],
        }
    }
}

impl Config {
    /// Parse a `lint.toml` document. Unknown sections/keys are errors —
    /// a misspelled allowlist key silently ignoring violations would
    /// defeat the tool.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let raw = parse_sections(text)?;
        for (section, entries) in &raw {
            for (key, value) in entries {
                match (section.as_str(), key.as_str()) {
                    ("workspace", "roots") => cfg.roots = value.clone().into_array()?,
                    ("workspace", "skip") => cfg.skip = value.clone().into_array()?,
                    ("determinism", "crates") => cfg.det_crates = value.clone().into_array()?,
                    ("determinism", "allow") => {
                        cfg.det_allow = split_allow_entries(value.clone().into_array()?)?
                    }
                    ("panic", "allow") => {
                        cfg.panic_allow = split_allow_entries(value.clone().into_array()?)?
                    }
                    ("panic", "min_expect_message") => {
                        cfg.min_expect_message = value
                            .clone()
                            .into_string()?
                            .parse()
                            .map_err(|e| format!("min_expect_message: {e}"))?
                    }
                    ("locks", "order") => cfg.lock_order = value.clone().into_array()?,
                    ("locks", "io_exempt") => {
                        cfg.lock_io_exempt = split_allow_entries(value.clone().into_array()?)?
                    }
                    ("locks", "wrappers") => cfg.lock_wrappers = value.clone().into_array()?,
                    ("locks", "blocking") => cfg.lock_blocking = value.clone().into_array()?,
                    _ => {
                        return Err(format!(
                            "lint.toml: unknown key `{key}` in section `[{section}]`"
                        ))
                    }
                }
            }
        }
        Ok(cfg)
    }

    /// Look up a file-level allow entry. Returns the reason when present.
    pub fn file_allowed<'a>(list: &'a [(String, String)], rel: &str) -> Option<&'a str> {
        list.iter().find(|(p, _)| p == rel).map(|(_, r)| r.as_str())
    }
}

#[derive(Debug, Clone)]
enum Value {
    Str(String),
    Array(Vec<String>),
}

impl Value {
    fn into_array(self) -> Result<Vec<String>, String> {
        match self {
            Value::Array(v) => Ok(v),
            Value::Str(s) => Err(format!("expected an array, got string `{s}`")),
        }
    }

    fn into_string(self) -> Result<String, String> {
        match self {
            Value::Str(s) => Ok(s),
            Value::Array(_) => Err("expected a string, got an array".to_string()),
        }
    }
}

fn split_allow_entries(items: Vec<String>) -> Result<Vec<(String, String)>, String> {
    items
        .into_iter()
        .map(|item| match item.split_once(':') {
            Some((path, reason)) if !reason.trim().is_empty() => {
                Ok((path.trim().to_string(), reason.trim().to_string()))
            }
            _ => Err(format!(
                "allow entry `{item}` must be \"<path>: <reason>\" — reasons are mandatory"
            )),
        })
        .collect()
}

type Sections = BTreeMap<String, Vec<(String, Value)>>;

fn parse_sections(text: &str) -> Result<Sections, String> {
    let mut out: Sections = BTreeMap::new();
    let mut section = String::new();
    let mut lines = text.lines().enumerate().peekable();
    while let Some((n, line)) = lines.next() {
        let line = strip_comment(line).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = name.trim().to_string();
            out.entry(section.clone()).or_default();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("lint.toml:{}: expected `key = value`", n + 1));
        };
        let key = key.trim().to_string();
        let mut value = value.trim().to_string();
        if value.starts_with('[') {
            // Accumulate a possibly multi-line array until brackets close.
            while !array_closed(&value) {
                match lines.next() {
                    Some((_, next)) => {
                        value.push(' ');
                        value.push_str(strip_comment(next).trim());
                    }
                    None => return Err(format!("lint.toml:{}: unterminated array", n + 1)),
                }
            }
            out.entry(section.clone())
                .or_default()
                .push((key, Value::Array(extract_strings(&value))));
        } else if value.starts_with('"') && value.ends_with('"') && value.len() >= 2 {
            out.entry(section.clone())
                .or_default()
                .push((key, Value::Str(value[1..value.len() - 1].to_string())));
        } else {
            return Err(format!(
                "lint.toml:{}: value for `{key}` must be a string or array",
                n + 1
            ));
        }
    }
    Ok(out)
}

fn strip_comment(line: &str) -> &str {
    // `#` starts a comment only outside quotes.
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn array_closed(acc: &str) -> bool {
    let mut in_str = false;
    let mut depth = 0i32;
    for c in acc.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth <= 0
}

fn extract_strings(value: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for c in value.chars() {
        match c {
            '"' => {
                if in_str {
                    out.push(std::mem::take(&mut cur));
                }
                in_str = !in_str;
            }
            _ if in_str => cur.push(c),
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_cover_the_workspace() {
        let c = Config::default();
        assert!(c.det_crates.contains(&"core".to_string()));
        assert_eq!(c.min_expect_message, 8);
    }

    #[test]
    fn parses_sections_strings_and_arrays() {
        let c = Config::parse(
            r#"
[workspace]
roots = ["crates", "src"]
skip = ["vendor"] # third-party stand-ins

[determinism]
crates = ["core"]
allow = [
    "crates/baselines/src/timing.rs: wall-clock is the point",
]

[panic]
min_expect_message = "12"
"#,
        )
        .unwrap();
        assert_eq!(c.roots, vec!["crates", "src"]);
        assert_eq!(c.det_crates, vec!["core"]);
        assert_eq!(c.min_expect_message, 12);
        assert_eq!(c.det_allow.len(), 1);
        assert_eq!(c.det_allow[0].0, "crates/baselines/src/timing.rs");
        assert_eq!(c.det_allow[0].1, "wall-clock is the point");
    }

    #[test]
    fn locks_section_parses() {
        let c = Config::parse(
            r#"
[locks]
order = ["M.gate", "M.admit"]
io_exempt = ["M.gate: read barrier by design"]
wrappers = ["lock_counted"]
blocking = ["read_sample", "recv"]
"#,
        )
        .unwrap();
        assert_eq!(c.lock_order, vec!["M.gate", "M.admit"]);
        assert_eq!(c.lock_io_exempt.len(), 1);
        assert_eq!(c.lock_blocking, vec!["read_sample", "recv"]);
    }

    #[test]
    fn lock_defaults_cover_wrapper_and_sinks() {
        let c = Config::default();
        assert_eq!(c.lock_wrappers, vec!["lock_counted"]);
        assert!(c.lock_blocking.contains(&"read_package".to_string()));
        assert!(c.lock_order.is_empty());
    }

    #[test]
    fn reasonless_allow_entries_are_rejected() {
        let err = Config::parse("[determinism]\nallow = [\"crates/x.rs\"]\n").unwrap_err();
        assert!(err.contains("reasons are mandatory"), "{err}");
    }

    #[test]
    fn unknown_keys_are_rejected() {
        assert!(Config::parse("[workspace]\nrots = [\"x\"]\n").is_err());
    }
}
