//! Panic policy: library code must not be able to take the process down
//! on a recoverable condition. `unwrap()`, `panic!`, and `unreachable!`
//! are forbidden in library targets; `expect()` is allowed **only** when
//! its argument is a string literal long enough to state the invariant
//! it relies on — the message *is* the mandatory reason. Tests,
//! examples, and binaries are exempt (a driver binary aborting on bad
//! input is fine; a library crate doing so is not).
//!
//! Escape hatch: `// lint: allow(panic): <reason>` on the offending
//! line, or a `[panic] allow` file entry in `lint.toml`.

use crate::config::Config;
use crate::diagnostics::Finding;
use crate::lexer::TokenKind;
use crate::source::{FileKind, SourceFile};

/// Rule id.
pub const RULE: &str = "panic";

/// Check one file.
pub fn check(file: &SourceFile, cfg: &Config, out: &mut Vec<Finding>) {
    if file.kind != FileKind::Lib {
        return;
    }
    // A file-level allow entry still scans — usage must be recorded so
    // stale entries get pruned rather than silently shadowing the rule.
    let file_excused = Config::file_allowed(&cfg.panic_allow, &file.rel).is_some();
    let toks = &file.lexed.tokens;
    for i in 0..toks.len() {
        let tok = &toks[i];
        let TokenKind::Ident(name) = &tok.kind else {
            continue;
        };
        if file.is_test_line(tok.line) {
            continue;
        }
        let next_is = |k: usize, p: char| {
            toks.get(i + k)
                .is_some_and(|t| t.kind == TokenKind::Punct(p))
        };
        let prev_is_dot = i > 0 && toks[i - 1].kind == TokenKind::Punct('.');
        // Decide whether this token is a violation *before* consulting
        // any excuse: `allowed()` records hatch usage, so asking it for
        // non-violations would mark every hatch on a busy line as used
        // and blind the stale-suppression rule.
        let message: Option<String> = match name.as_str() {
            "unwrap" if prev_is_dot && next_is(1, '(') && next_is(2, ')') => Some(
                "unwrap() in library code: state the invariant with expect(\"…\") \
                 or propagate the error"
                    .to_string(),
            ),
            "panic" | "unreachable" if next_is(1, '!') => Some(format!(
                "{name}! in library code: return an error, or add \
                 `// lint: allow(panic): <reason>` if the branch is provably dead"
            )),
            "expect" if prev_is_dot && next_is(1, '(') => {
                let ok = match toks.get(i + 2).map(|t| &t.kind) {
                    Some(TokenKind::StrLit(msg)) => msg.len() >= cfg.min_expect_message,
                    // A computed message built in place still documents
                    // the invariant.
                    Some(TokenKind::Ident(id)) => id == "format",
                    Some(TokenKind::Punct('&')) => matches!(
                        toks.get(i + 3).map(|t| &t.kind),
                        Some(TokenKind::Ident(id)) if id == "format"
                    ),
                    _ => false,
                };
                (!ok).then(|| {
                    format!(
                        "expect() needs an invariant message of at least {} characters \
                         (the message is the reason the panic cannot fire)",
                        cfg.min_expect_message
                    )
                })
            }
            _ => None,
        };
        let Some(message) = message else { continue };
        if file_excused {
            file.mark_file_allow_used(RULE);
            continue;
        }
        if file.allowed(RULE, tok.line) {
            continue;
        }
        out.push(Finding {
            rule: RULE,
            path: file.rel.clone(),
            line: tok.line,
            col: tok.col,
            message,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_src(src: &str, kind: FileKind) -> Vec<Finding> {
        let f = SourceFile::parse(
            "crates/x/src/lib.rs".to_string(),
            Some("x".to_string()),
            kind,
            src,
        );
        let mut out = Vec::new();
        check(&f, &Config::default(), &mut out);
        out
    }

    #[test]
    fn unwrap_flagged_in_lib() {
        let out = check_src("fn f(x: Option<u8>) -> u8 { x.unwrap() }", FileKind::Lib);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("unwrap"));
    }

    #[test]
    fn unwrap_or_else_is_fine() {
        assert!(check_src(
            "fn f(x: Option<u8>) -> u8 { x.unwrap_or_else(|| 0) }",
            FileKind::Lib
        )
        .is_empty());
        assert!(check_src(
            "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }",
            FileKind::Lib
        )
        .is_empty());
    }

    #[test]
    fn expect_with_invariant_message_is_fine() {
        assert!(check_src(
            "fn f(x: Option<u8>) -> u8 { x.expect(\"heap and map agree on membership\") }",
            FileKind::Lib
        )
        .is_empty());
    }

    #[test]
    fn short_expect_message_flagged() {
        let out = check_src(
            "fn f(x: Option<u8>) -> u8 { x.expect(\"ok\") }",
            FileKind::Lib,
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("invariant message"));
    }

    #[test]
    fn computed_format_message_is_fine() {
        assert!(check_src(
            "fn f(x: Option<u8>, id: u8) -> u8 { x.expect(&format!(\"sample {id} must be resident\")) }",
            FileKind::Lib
        )
        .is_empty());
    }

    #[test]
    fn panic_and_unreachable_flagged() {
        let out = check_src(
            "fn f(b: bool) { if b { panic!(\"no\"); } else { unreachable!() } }",
            FileKind::Lib,
        );
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn bins_tests_examples_exempt() {
        for kind in [FileKind::Bin, FileKind::Test, FileKind::Example] {
            assert!(check_src("fn f(x: Option<u8>) -> u8 { x.unwrap() }", kind).is_empty());
        }
    }

    #[test]
    fn test_module_inside_lib_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
        assert!(check_src(src, FileKind::Lib).is_empty());
    }

    #[test]
    fn allow_hatch_suppresses() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap() // lint: allow(panic): caller checked is_some above\n}\n";
        assert!(check_src(src, FileKind::Lib).is_empty());
    }

    #[test]
    fn struct_update_syntax_not_confused() {
        // `..Default::default()` puts two dots before an ident; ensure
        // no false `.unwrap` style matches on unrelated tokens.
        assert!(check_src(
            "fn f() -> S { S { a: 1, ..Default::default() } }",
            FileKind::Lib
        )
        .is_empty());
    }
}
