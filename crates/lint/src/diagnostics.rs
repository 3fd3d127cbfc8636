//! Findings and their renderings: `file:line:col` text for humans,
//! canonical JSON for CI.

use icache_obs::Json;

/// One rule violation at one source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id: one of `KNOWN_RULES`, or `stale-allow`.
    pub rule: &'static str,
    /// Path relative to the scanned root.
    pub path: String,
    /// 1-based line (0 for whole-file findings with no anchor).
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What is wrong and what to do instead.
    pub message: String,
}

impl Finding {
    /// `path:line:col: [rule] message` — the grep-able one-line form.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: [{}] {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// Sort findings into the canonical report order: path, line, col, rule.
pub fn sort_findings(findings: &mut Vec<Finding>) {
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule, a.message.as_str()).cmp(&(
            b.path.as_str(),
            b.line,
            b.col,
            b.rule,
            b.message.as_str(),
        ))
    });
    findings.dedup();
}

/// The machine-readable report: `{"ok": bool, "counts": {rule: n},
/// "findings": [{rule, path, line, col, message}]}` in canonical key
/// order, byte-identical for identical findings.
pub fn report_json(findings: &[Finding]) -> Json {
    let mut counts: std::collections::BTreeMap<&'static str, u64> = Default::default();
    for f in findings {
        *counts.entry(f.rule).or_insert(0) += 1;
    }
    Json::Obj(vec![
        ("ok".to_string(), Json::Bool(findings.is_empty())),
        (
            "counts".to_string(),
            Json::Obj(
                counts
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Json::UInt(v)))
                    .collect(),
            ),
        ),
        (
            "findings".to_string(),
            Json::Arr(
                findings
                    .iter()
                    .map(|f| {
                        Json::Obj(vec![
                            ("rule".to_string(), Json::Str(f.rule.to_string())),
                            ("path".to_string(), Json::Str(f.path.clone())),
                            ("line".to_string(), Json::UInt(f.line as u64)),
                            ("col".to_string(), Json::UInt(f.col as u64)),
                            ("message".to_string(), Json::Str(f.message.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(path: &str, line: u32, rule: &'static str) -> Finding {
        Finding {
            rule,
            path: path.to_string(),
            line,
            col: 1,
            message: "m".to_string(),
        }
    }

    #[test]
    fn sorted_and_deduped() {
        let mut v = vec![
            f("b.rs", 2, "panic"),
            f("a.rs", 9, "panic"),
            f("b.rs", 2, "panic"),
        ];
        sort_findings(&mut v);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].path, "a.rs");
    }

    #[test]
    fn json_report_shape() {
        let report = report_json(&[f("a.rs", 1, "hygiene")]);
        let text = report.to_string();
        assert!(text.contains("\"ok\":false"));
        assert!(text.contains("\"hygiene\":1"));
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed["findings"].as_array().map(|a| a.len()), Some(1));
    }

    #[test]
    fn empty_report_is_ok() {
        assert!(report_json(&[]).to_string().contains("\"ok\":true"));
    }
}
