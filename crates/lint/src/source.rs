//! Per-file source model: lexed tokens plus the structural facts the
//! rules need — which lines are test code, which tokens sit inside `use`
//! declarations, and which `// lint: …` directives are in force.

use crate::lexer::{lex, Lexed, TokenKind};

/// What kind of compilation target a file belongs to. Rules scope
/// themselves by kind: panic-policy only bites `Lib`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code (the default).
    Lib,
    /// A binary target (`src/bin/*`, `main.rs`).
    Bin,
    /// An example (`examples/`).
    Example,
    /// Test code (`tests/` directories).
    Test,
}

/// A parsed `// lint: allow(<rule>): <reason>` escape hatch.
#[derive(Debug, Clone)]
pub struct AllowDirective {
    /// Rule family the hatch silences (`determinism`, `panic`, …).
    pub rule: String,
    /// The stated reason; empty reasons are themselves a finding.
    pub reason: String,
    /// Line the directive comment starts on.
    pub comment_line: u32,
    /// Line the directive applies to (its own line for trailing
    /// comments, the next code line for standalone ones).
    pub effective_line: u32,
}

/// A lexed file plus derived structure.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the scanned root, with `/` separators.
    pub rel: String,
    /// The crate directory under `crates/` (e.g. `"core"`), when any.
    pub crate_dir: Option<String>,
    /// Target kind.
    pub kind: FileKind,
    /// Tokens and comments.
    pub lexed: Lexed,
    /// For each token index: is the token part of a `use …;` item?
    pub in_use_decl: Vec<bool>,
    /// Inclusive line ranges covered by `#[cfg(test)]` / `#[test]` /
    /// `#[bench]` items.
    pub test_spans: Vec<(u32, u32)>,
    /// Escape hatches, in source order.
    pub allows: Vec<AllowDirective>,
    /// Malformed `lint:` directives: `(line, problem)`.
    pub bad_directives: Vec<(u32, String)>,
    /// Suppressions that actually fired: `(rule, line)` for inline
    /// hatches, `(rule + ":file", 0)` for `lint.toml` file-level allow
    /// entries. Interior mutability keeps rule signatures `&SourceFile`.
    pub used_allows: std::cell::RefCell<std::collections::BTreeSet<(String, u32)>>,
}

impl SourceFile {
    /// Lex `text` and derive all structure.
    pub fn parse(rel: String, crate_dir: Option<String>, kind: FileKind, text: &str) -> Self {
        let lexed = lex(text);
        let in_use_decl = mark_use_decls(&lexed);
        let test_spans = find_test_spans(&lexed);
        let mut file = SourceFile {
            rel,
            crate_dir,
            kind,
            lexed,
            in_use_decl,
            test_spans,
            allows: Vec::new(),
            bad_directives: Vec::new(),
            used_allows: Default::default(),
        };
        file.parse_directives();
        file
    }

    /// Whether `line` falls inside test code.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_spans.iter().any(|&(a, b)| a <= line && line <= b)
    }

    /// Whether an allow hatch for `rule` covers `line` (reasonless
    /// hatches still suppress — the missing reason is reported once as
    /// its own finding, not once per suppressed site).
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        let hit = self
            .allows
            .iter()
            .any(|a| a.rule == rule && a.effective_line == line);
        if hit {
            self.used_allows
                .borrow_mut()
                .insert((rule.to_string(), line));
        }
        hit
    }

    /// Record that a `lint.toml` file-level allow entry for `rule`
    /// suppressed a would-be finding in this file.
    pub fn mark_file_allow_used(&self, rule: &str) {
        self.used_allows
            .borrow_mut()
            .insert((format!("{rule}:file"), 0));
    }

    /// Whether the inline hatch for `rule` at `line` suppressed anything.
    pub fn allow_used(&self, rule: &str, line: u32) -> bool {
        self.used_allows
            .borrow()
            .contains(&(rule.to_string(), line))
    }

    /// Whether a file-level allow entry for `rule` suppressed anything.
    pub fn file_allow_used(&self, rule: &str) -> bool {
        self.used_allows
            .borrow()
            .contains(&(format!("{rule}:file"), 0))
    }

    fn parse_directives(&mut self) {
        for c in &self.lexed.comments {
            let text = c.text.trim();
            let Some(rest) = text.strip_prefix("lint:").map(str::trim) else {
                continue;
            };
            let effective_line = if c.trailing {
                c.line
            } else {
                // A standalone comment annotates the next code line.
                self.lexed
                    .tokens
                    .iter()
                    .map(|t| t.line)
                    .find(|&l| l > c.line)
                    .unwrap_or(c.line + 1)
            };
            if let Some(args) = rest.strip_prefix("allow(") {
                let Some(end) = args.find(')') else {
                    self.bad_directives
                        .push((c.line, "unclosed `lint: allow(`".to_string()));
                    continue;
                };
                let rule = args[..end].trim().to_string();
                let reason = args[end + 1..]
                    .trim_start_matches([':', '-', ' '])
                    .trim_start_matches('—')
                    .trim()
                    .to_string();
                self.allows.push(AllowDirective {
                    rule,
                    reason,
                    comment_line: c.line,
                    effective_line,
                });
            } else {
                self.bad_directives.push((
                    c.line,
                    format!("unknown `lint:` directive `{rest}` (expected allow(…))"),
                ));
            }
        }
    }
}

fn mark_use_decls(lexed: &Lexed) -> Vec<bool> {
    let mut marks = vec![false; lexed.tokens.len()];
    let mut i = 0;
    while i < lexed.tokens.len() {
        if matches!(&lexed.tokens[i].kind, TokenKind::Ident(s) if s == "use") {
            let start = i;
            while i < lexed.tokens.len() && lexed.tokens[i].kind != TokenKind::Punct(';') {
                i += 1;
            }
            for m in marks
                .iter_mut()
                .take((i + 1).min(lexed.tokens.len()))
                .skip(start)
            {
                *m = true;
            }
        }
        i += 1;
    }
    marks
}

/// Find the line spans of items annotated `#[cfg(test)]`, `#[test]`, or
/// `#[bench]`. Works on the token stream: after a test attribute, skip
/// any further attributes, then take the item's extent — up to the
/// matching close brace of its first top-level `{`, or the first
/// top-level `;`.
fn find_test_spans(lexed: &Lexed) -> Vec<(u32, u32)> {
    let toks = &lexed.tokens;
    let mut spans = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind != TokenKind::Punct('#') {
            i += 1;
            continue;
        }
        let attr_line = toks[i].line;
        let mut j = i + 1;
        if j < toks.len() && toks[j].kind == TokenKind::Punct('!') {
            // Inner attribute `#![…]` — not an item annotation.
            i = j + 1;
            continue;
        }
        if j >= toks.len() || toks[j].kind != TokenKind::Punct('[') {
            i += 1;
            continue;
        }
        // Collect idents inside the attribute (bracket-balanced).
        let mut depth = 0i32;
        let mut names: Vec<&str> = Vec::new();
        while j < toks.len() {
            match &toks[j].kind {
                TokenKind::Punct('[') => depth += 1,
                TokenKind::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokenKind::Ident(s) => names.push(s),
                _ => {}
            }
            j += 1;
        }
        let is_test_attr = (names.contains(&"test") || names.contains(&"bench"))
            && !names.contains(&"not")
            && !names.contains(&"doctest");
        if !is_test_attr {
            i = j + 1;
            continue;
        }
        // Skip any stacked attributes that follow.
        let mut k = j + 1;
        while k + 1 < toks.len()
            && toks[k].kind == TokenKind::Punct('#')
            && toks[k + 1].kind == TokenKind::Punct('[')
        {
            let mut d = 0i32;
            let mut m = k + 1;
            while m < toks.len() {
                match &toks[m].kind {
                    TokenKind::Punct('[') => d += 1,
                    TokenKind::Punct(']') => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                m += 1;
            }
            k = m + 1;
        }
        // Item extent.
        let mut d = 0i32;
        let mut in_brace = false;
        let mut end = k;
        while end < toks.len() {
            match &toks[end].kind {
                TokenKind::Punct('{') | TokenKind::Punct('(') | TokenKind::Punct('[') => {
                    if toks[end].kind == TokenKind::Punct('{') && d == 0 {
                        in_brace = true;
                    }
                    d += 1;
                }
                TokenKind::Punct('}') | TokenKind::Punct(')') | TokenKind::Punct(']') => {
                    d -= 1;
                    if in_brace && d == 0 {
                        break;
                    }
                }
                TokenKind::Punct(';') if d == 0 => break,
                _ => {}
            }
            end += 1;
        }
        let end_line = toks.get(end).map_or(attr_line, |t| t.line);
        spans.push((attr_line, end_line));
        i = end + 1;
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::parse("x.rs".to_string(), None, FileKind::Lib, src)
    }

    #[test]
    fn cfg_test_module_span_covers_everything_inside() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn helper() { x.unwrap(); }\n}\nfn after() {}\n";
        let f = file(src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(2));
        assert!(f.is_test_line(4));
        assert!(f.is_test_line(5));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn test_fn_with_stacked_attrs() {
        let src = "#[test]\n#[should_panic]\nfn boom() {\n  panic!(\"x\");\n}\nfn lib() {}\n";
        let f = file(src);
        assert!(f.is_test_line(4));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_span() {
        let f = file("#[cfg(not(test))]\nfn real() { x.unwrap(); }\n");
        assert!(!f.is_test_line(2));
    }

    #[test]
    fn use_decls_are_marked() {
        let f = file("use std::collections::HashMap;\nfn f() { let m: HashMap<u8, u8>; }\n");
        let hash_toks: Vec<(usize, u32)> = f
            .lexed
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(&t.kind, TokenKind::Ident(s) if s == "HashMap"))
            .map(|(i, t)| (i, t.line))
            .collect();
        assert_eq!(hash_toks.len(), 2);
        assert!(f.in_use_decl[hash_toks[0].0]);
        assert!(!f.in_use_decl[hash_toks[1].0]);
    }

    #[test]
    fn trailing_allow_covers_its_own_line() {
        let f = file("let m = HashMap::new(); // lint: allow(determinism): keyed lookup only\n");
        assert!(f.allowed("determinism", 1));
        assert_eq!(f.allows[0].reason, "keyed lookup only");
    }

    #[test]
    fn standalone_allow_covers_next_code_line() {
        let f = file("// lint: allow(panic): checked by caller\n\nlet x = y.unwrap();\n");
        assert!(f.allowed("panic", 3));
        assert!(!f.allowed("panic", 1));
    }

    #[test]
    fn reasonless_allow_is_recorded_with_empty_reason() {
        let f = file("x(); // lint: allow(determinism)\n");
        assert!(f.allowed("determinism", 1));
        assert!(f.allows[0].reason.is_empty());
    }

    #[test]
    fn unknown_directive_is_flagged() {
        let f = file("// lint: frobnicate(x)\n");
        assert_eq!(f.bad_directives.len(), 1);
    }
}
