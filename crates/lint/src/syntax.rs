//! A lightweight syntactic layer over the token stream: brace matching,
//! item discovery (functions with their enclosing `impl` type, structs
//! with field types, statics), and statement segmentation inside
//! blocks. This is *not* a parser — it is exactly the amount of
//! structure the lock-analysis rules need: which tokens form a function
//! body, which `impl` block it sits in, where the enclosing block of a
//! `let` ends, and where a statement ends.
//!
//! Everything is index-based into [`Lexed::tokens`]; positions come from
//! the tokens themselves.

use crate::lexer::{Lexed, TokenKind};
use std::collections::BTreeMap;

/// A function item: its name, enclosing `impl` target (when any), and
/// body token range.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Base name of the `impl` target type this function sits in
    /// (`impl Trait for Type` records `Type`), `None` for free
    /// functions.
    pub impl_type: Option<String>,
    /// Token index of the `fn` keyword.
    pub sig_tok: usize,
    /// Line of the `fn` keyword.
    pub sig_line: u32,
    /// Body token range `(open_brace, close_brace)`, inclusive on both
    /// ends; `None` for bodiless declarations (trait methods).
    pub body: Option<(usize, usize)>,
}

/// One struct field: name and the identifier tokens of its type.
#[derive(Debug, Clone)]
pub struct FieldItem {
    /// Field name.
    pub name: String,
    /// Identifier tokens appearing in the field's type, in order
    /// (`Box<[Mutex<IdSlab<V>>]>` → `["Box", "Mutex", "IdSlab", "V"]`).
    pub type_idents: Vec<String>,
}

impl FieldItem {
    /// Whether the declared type contains a lock (`Mutex`/`RwLock`).
    pub fn is_lock(&self) -> bool {
        self.type_idents
            .iter()
            .any(|t| t == "Mutex" || t == "RwLock")
    }

    /// The outermost type name, used as a receiver-type hint for method
    /// resolution (`h_items: StripedMap<ByteSize>` → `StripedMap`).
    pub fn base_type(&self) -> Option<&str> {
        self.type_idents
            .iter()
            .map(String::as_str)
            .find(|t| !matches!(*t, "dyn" | "mut" | "const" | "impl"))
    }
}

/// A struct definition with named fields.
#[derive(Debug, Clone, Default)]
pub struct StructItem {
    /// Named fields in declaration order (tuple structs record none).
    pub fields: Vec<FieldItem>,
}

/// A `static` item.
#[derive(Debug, Clone)]
pub struct StaticItem {
    /// The static's name.
    pub name: String,
    /// Whether its type contains `Mutex`/`RwLock`.
    pub is_lock: bool,
}

/// The syntactic model of one file.
#[derive(Debug, Default)]
pub struct Syntax {
    /// All function items in source order.
    pub fns: Vec<FnItem>,
    /// Struct name → definition.
    pub structs: BTreeMap<String, StructItem>,
    /// Static items.
    pub statics: Vec<StaticItem>,
    /// For each token index: the matching brace index when the token is
    /// `{` or `}`, else `usize::MAX`.
    pub brace_match: Vec<usize>,
}

const STMT_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "let", "in", "as", "move", "ref",
    "mut", "break", "continue", "unsafe", "where", "pub", "use", "mod", "impl", "fn", "struct",
    "enum", "trait", "type", "const", "static", "dyn", "await", "async",
];

/// Whether `name` is a Rust keyword that can precede `(` without being
/// a call.
pub fn is_keyword(name: &str) -> bool {
    STMT_KEYWORDS.contains(&name)
}

impl Syntax {
    /// Build the syntactic model for a lexed file.
    pub fn build(lexed: &Lexed) -> Syntax {
        let toks = &lexed.tokens;
        let brace_match = match_braces(lexed);
        let impl_ranges = find_impl_ranges(lexed, &brace_match);
        let mut syn = Syntax {
            fns: Vec::new(),
            structs: BTreeMap::new(),
            statics: Vec::new(),
            brace_match,
        };

        let mut i = 0;
        while i < toks.len() {
            let TokenKind::Ident(name) = &toks[i].kind else {
                i += 1;
                continue;
            };
            match name.as_str() {
                "fn" => {
                    // `fn` in a pointer type is followed by `(`, an item
                    // by its name.
                    let Some(TokenKind::Ident(fn_name)) = toks.get(i + 1).map(|t| &t.kind) else {
                        i += 1;
                        continue;
                    };
                    let body = fn_body(lexed, &syn.brace_match, i);
                    let impl_type = impl_ranges
                        .iter()
                        .filter(|(open, close, _)| *open < i && i < *close)
                        .min_by_key(|(open, close, _)| close - open)
                        .map(|(_, _, ty)| ty.clone());
                    syn.fns.push(FnItem {
                        name: fn_name.clone(),
                        impl_type,
                        sig_tok: i,
                        sig_line: toks[i].line,
                        body,
                    });
                    // Continue *inside* the body too: nested fns are rare
                    // but legal. Skip only the signature.
                    i += 2;
                }
                "struct" => {
                    if let Some((sname, item, next)) = parse_struct(lexed, &syn.brace_match, i) {
                        syn.structs.entry(sname).or_insert(item);
                        i = next;
                    } else {
                        i += 1;
                    }
                }
                "static" => {
                    if let Some(item) = parse_static(lexed, i) {
                        syn.statics.push(item);
                    }
                    i += 1;
                }
                _ => i += 1,
            }
        }
        syn
    }

    /// The function (by index into [`Syntax::fns`]) whose body contains
    /// token `tok`, innermost first.
    pub fn enclosing_fn(&self, tok: usize) -> Option<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.body.is_some_and(|(o, c)| o < tok && tok < c))
            .min_by_key(|(_, f)| {
                let (o, c) = f.body.unwrap_or((0, usize::MAX));
                c - o
            })
            .map(|(i, _)| i)
    }

    /// The innermost block (`open`, `close` token indices) containing
    /// `tok`, searched within `(outer_open, outer_close)`.
    pub fn enclosing_block(
        &self,
        lexed: &Lexed,
        outer: (usize, usize),
        tok: usize,
    ) -> (usize, usize) {
        let mut best = outer;
        let toks = &lexed.tokens;
        let mut j = outer.0;
        while j < tok {
            if toks[j].kind == TokenKind::Punct('{') {
                let close = self.brace_match.get(j).copied().unwrap_or(usize::MAX);
                if close != usize::MAX && j < tok && tok < close && close - j < best.1 - best.0 {
                    best = (j, close);
                }
            }
            j += 1;
        }
        best
    }

    /// Segment the direct statements of the block `(open, close)`.
    /// Nested balanced groups are opaque; a statement ends at a `;` at
    /// the block's own level, or after a top-level `{…}` group that is
    /// not continued by `else`, `.`, or `?`. Returns `(start, end)`
    /// token ranges, inclusive.
    pub fn statements(&self, lexed: &Lexed, open: usize, close: usize) -> Vec<(usize, usize)> {
        let toks = &lexed.tokens;
        let mut out = Vec::new();
        let mut start = open + 1;
        let mut i = open + 1;
        while i < close {
            match &toks[i].kind {
                TokenKind::Punct('{') | TokenKind::Punct('(') | TokenKind::Punct('[') => {
                    let was_brace = toks[i].kind == TokenKind::Punct('{');
                    i = skip_group(lexed, &self.brace_match, i);
                    if was_brace {
                        // A top-level brace group may end the statement
                        // (`if … { }`), unless continued.
                        let cont = matches!(
                            toks.get(i + 1).map(|t| &t.kind),
                            Some(TokenKind::Punct('.'))
                                | Some(TokenKind::Punct('?'))
                                | Some(TokenKind::Punct(';'))
                                | Some(TokenKind::Punct(','))
                        ) || matches!(
                            toks.get(i + 1).map(|t| &t.kind),
                            Some(TokenKind::Ident(k)) if k == "else"
                        );
                        if !cont && i < close {
                            out.push((start, i));
                            start = i + 1;
                        }
                    }
                    i += 1;
                }
                TokenKind::Punct(';') => {
                    out.push((start, i));
                    start = i + 1;
                    i += 1;
                }
                _ => i += 1,
            }
        }
        if start < close {
            out.push((start, close - 1));
        }
        out
    }
}

/// Compute matching-brace indices for `{`/`}` tokens.
fn match_braces(lexed: &Lexed) -> Vec<usize> {
    let toks = &lexed.tokens;
    let mut map = vec![usize::MAX; toks.len()];
    let mut stack = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            TokenKind::Punct('{') => stack.push(i),
            TokenKind::Punct('}') => {
                if let Some(open) = stack.pop() {
                    map[open] = i;
                    map[i] = open;
                }
            }
            _ => {}
        }
    }
    map
}

/// Skip a balanced group starting at an opening delimiter; returns the
/// index of its closing delimiter (or the last token when unbalanced).
pub fn skip_group(lexed: &Lexed, brace_match: &[usize], open: usize) -> usize {
    let toks = &lexed.tokens;
    if toks[open].kind == TokenKind::Punct('{') {
        let close = brace_match.get(open).copied().unwrap_or(usize::MAX);
        return if close == usize::MAX {
            toks.len() - 1
        } else {
            close
        };
    }
    let (o, c) = match toks[open].kind {
        TokenKind::Punct('(') => ('(', ')'),
        TokenKind::Punct('[') => ('[', ']'),
        _ => return open,
    };
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        match &toks[i].kind {
            TokenKind::Punct(p) if *p == o => depth += 1,
            TokenKind::Punct(p) if *p == c => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    toks.len() - 1
}

/// Find `(open_brace, close_brace, target_type)` for every `impl`
/// block. `impl Trait for Type` records `Type`; `impl Type` records
/// `Type`; generics are skipped.
fn find_impl_ranges(lexed: &Lexed, brace_match: &[usize]) -> Vec<(usize, usize, String)> {
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !matches!(&toks[i].kind, TokenKind::Ident(s) if s == "impl") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        // Skip `<…>` generic parameters after `impl`.
        if matches!(toks.get(j).map(|t| &t.kind), Some(TokenKind::Punct('<'))) {
            j = skip_angles(lexed, j);
        }
        let (first, after_first) = read_type_path(lexed, j);
        let mut target = first;
        j = after_first;
        if matches!(toks.get(j).map(|t| &t.kind), Some(TokenKind::Ident(s)) if s == "for") {
            let (second, after_second) = read_type_path(lexed, j + 1);
            target = second;
            j = after_second;
        }
        // Scan to the impl body `{` (skipping a `where` clause).
        while j < toks.len() && toks[j].kind != TokenKind::Punct('{') {
            j += 1;
        }
        if j < toks.len() {
            let close = brace_match.get(j).copied().unwrap_or(usize::MAX);
            if close != usize::MAX {
                if let Some(ty) = target {
                    out.push((j, close, ty));
                }
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Skip a `<…>` angle-bracket group starting at `open`; returns the
/// index just past the closing `>`.
fn skip_angles(lexed: &Lexed, open: usize) -> usize {
    let toks = &lexed.tokens;
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        match &toks[i].kind {
            TokenKind::Punct('<') => depth += 1,
            TokenKind::Punct('>') => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            TokenKind::Punct('{') | TokenKind::Punct(';') => return i,
            _ => {}
        }
        i += 1;
    }
    i
}

/// Read a type path (`a::b::Type<…>`); returns the base name of its
/// last segment and the index just past the path.
fn read_type_path(lexed: &Lexed, mut i: usize) -> (Option<String>, usize) {
    let toks = &lexed.tokens;
    // Leading `&`/lifetimes/`dyn`/`mut` before the path.
    loop {
        match toks.get(i).map(|t| &t.kind) {
            Some(TokenKind::Punct('&')) | Some(TokenKind::Lifetime) => i += 1,
            Some(TokenKind::Ident(s)) if s == "dyn" || s == "mut" => i += 1,
            _ => break,
        }
    }
    let mut last: Option<String> = None;
    while let Some(TokenKind::Ident(seg)) = toks.get(i).map(|t| &t.kind) {
        if is_keyword(seg) {
            break;
        }
        last = Some(seg.clone());
        i += 1;
        if matches!(toks.get(i).map(|t| &t.kind), Some(TokenKind::Punct('<'))) {
            i = skip_angles(lexed, i);
        }
        // `::` continues the path.
        if matches!(toks.get(i).map(|t| &t.kind), Some(TokenKind::Punct(':')))
            && matches!(
                toks.get(i + 1).map(|t| &t.kind),
                Some(TokenKind::Punct(':'))
            )
        {
            i += 2;
        } else {
            break;
        }
    }
    (last, i)
}

/// Locate a function's body braces: the first `{` at paren/bracket
/// depth 0 after the signature, or `None` when the item ends in `;`.
fn fn_body(lexed: &Lexed, brace_match: &[usize], fn_tok: usize) -> Option<(usize, usize)> {
    let toks = &lexed.tokens;
    let mut depth = 0i32;
    let mut i = fn_tok + 1;
    while i < toks.len() {
        match &toks[i].kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
            TokenKind::Punct('{') if depth == 0 => {
                let close = brace_match.get(i).copied().unwrap_or(usize::MAX);
                return if close == usize::MAX {
                    None
                } else {
                    Some((i, close))
                };
            }
            TokenKind::Punct(';') if depth == 0 => return None,
            _ => {}
        }
        i += 1;
    }
    None
}

/// Parse `struct Name { field: Type, … }`. Returns the name, the item,
/// and the token index to resume scanning at.
fn parse_struct(
    lexed: &Lexed,
    brace_match: &[usize],
    struct_tok: usize,
) -> Option<(String, StructItem, usize)> {
    let toks = &lexed.tokens;
    let TokenKind::Ident(name) = &toks.get(struct_tok + 1)?.kind else {
        return None;
    };
    let mut i = struct_tok + 2;
    if matches!(toks.get(i).map(|t| &t.kind), Some(TokenKind::Punct('<'))) {
        i = skip_angles(lexed, i);
    }
    match toks.get(i).map(|t| &t.kind) {
        Some(TokenKind::Punct('{')) => {}
        // Tuple struct or unit struct: no named fields to record.
        _ => return Some((name.clone(), StructItem::default(), i)),
    }
    let close = brace_match.get(i).copied().unwrap_or(usize::MAX);
    if close == usize::MAX {
        return None;
    }
    let mut fields = Vec::new();
    let mut j = i + 1;
    while j < close {
        // Skip attributes and visibility.
        match &toks[j].kind {
            TokenKind::Punct('#') => {
                if matches!(
                    toks.get(j + 1).map(|t| &t.kind),
                    Some(TokenKind::Punct('['))
                ) {
                    j = skip_group(lexed, brace_match, j + 1) + 1;
                } else {
                    j += 1;
                }
                continue;
            }
            TokenKind::Ident(s) if s == "pub" => {
                j += 1;
                if matches!(toks.get(j).map(|t| &t.kind), Some(TokenKind::Punct('('))) {
                    j = skip_group(lexed, brace_match, j) + 1;
                }
                continue;
            }
            _ => {}
        }
        // `name : Type ,`
        let TokenKind::Ident(fname) = &toks[j].kind else {
            j += 1;
            continue;
        };
        if !matches!(
            toks.get(j + 1).map(|t| &t.kind),
            Some(TokenKind::Punct(':'))
        ) {
            j += 1;
            continue;
        }
        let mut type_idents = Vec::new();
        let mut k = j + 2;
        let mut depth = 0i32;
        while k < close {
            match &toks[k].kind {
                TokenKind::Punct('<') | TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
                TokenKind::Punct('>') | TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
                TokenKind::Punct(',') if depth <= 0 => break,
                TokenKind::Ident(t) => type_idents.push(t.clone()),
                _ => {}
            }
            k += 1;
        }
        fields.push(FieldItem {
            name: fname.clone(),
            type_idents,
        });
        j = k + 1;
    }
    Some((name.clone(), StructItem { fields }, close + 1))
}

/// Parse `static NAME: Type = …;`.
fn parse_static(lexed: &Lexed, static_tok: usize) -> Option<StaticItem> {
    let toks = &lexed.tokens;
    let mut i = static_tok + 1;
    if matches!(toks.get(i).map(|t| &t.kind), Some(TokenKind::Ident(s)) if s == "mut") {
        i += 1;
    }
    let TokenKind::Ident(name) = &toks.get(i)?.kind else {
        return None;
    };
    if !matches!(
        toks.get(i + 1).map(|t| &t.kind),
        Some(TokenKind::Punct(':'))
    ) {
        return None;
    }
    let mut is_lock = false;
    let mut j = i + 2;
    while j < toks.len() {
        match &toks[j].kind {
            TokenKind::Punct('=') | TokenKind::Punct(';') => break,
            TokenKind::Ident(t) if t == "Mutex" || t == "RwLock" => is_lock = true,
            _ => {}
        }
        j += 1;
    }
    Some(StaticItem {
        name: name.clone(),
        is_lock,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn syn(src: &str) -> (crate::lexer::Lexed, Syntax) {
        let lexed = lex(src);
        let s = Syntax::build(&lexed);
        (lexed, s)
    }

    #[test]
    fn fns_get_their_impl_type() {
        let src = "impl Foo { fn a(&self) {} }\n\
                   impl<V> Bar<V> { fn b(&self) {} }\n\
                   impl Trait for Baz { fn c(&self) {} }\n\
                   fn free() {}\n";
        let (_, s) = syn(src);
        let by_name: Vec<(String, Option<String>)> = s
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.impl_type.clone()))
            .collect();
        assert_eq!(
            by_name,
            vec![
                ("a".to_string(), Some("Foo".to_string())),
                ("b".to_string(), Some("Bar".to_string())),
                ("c".to_string(), Some("Baz".to_string())),
                ("free".to_string(), None),
            ]
        );
    }

    #[test]
    fn struct_fields_carry_type_idents_and_lock_flag() {
        let src = "pub struct M { pub stripes: Box<[Mutex<IdSlab<V>>]>, len: AtomicUsize }";
        let (_, s) = syn(src);
        let m = &s.structs["M"];
        assert_eq!(m.fields.len(), 2);
        assert!(m.fields[0].is_lock());
        assert_eq!(m.fields[0].base_type(), Some("Box"));
        assert!(!m.fields[1].is_lock());
    }

    #[test]
    fn statics_detected() {
        let (_, s) = syn("static GLOBAL: Mutex<u32> = Mutex::new(0);\nstatic N: usize = 3;\n");
        assert_eq!(s.statics.len(), 2);
        assert!(s.statics[0].is_lock);
        assert_eq!(s.statics[0].name, "GLOBAL");
        assert!(!s.statics[1].is_lock);
    }

    #[test]
    fn fn_body_skips_return_types_with_parens() {
        let src = "fn f(x: u8) -> Option<(u8, u8)> { Some((x, x)) }\nfn decl();\n";
        let (_, s) = syn(src);
        assert!(s.fns[0].body.is_some());
        assert!(s.fns[1].body.is_none());
    }

    #[test]
    fn statements_split_on_semicolons_and_blocks() {
        let src = "fn f() { let a = 1; if a > 0 { g(); } let b = 2; h(b) }";
        let (lexed, s) = syn(src);
        let (open, close) = s.fns[0].body.expect("fn f has a body in this fixture");
        let stmts = s.statements(&lexed, open, close);
        assert_eq!(stmts.len(), 4, "{stmts:?}");
    }

    #[test]
    fn let_else_is_one_statement() {
        let src = "fn f() { let Ok(mut st) = m.try_lock() else { return; }; use_it(st); }";
        let (lexed, s) = syn(src);
        let (open, close) = s.fns[0].body.expect("fn f has a body in this fixture");
        let stmts = s.statements(&lexed, open, close);
        assert_eq!(stmts.len(), 2, "{stmts:?}");
    }

    #[test]
    fn enclosing_fn_prefers_innermost() {
        let src = "fn outer() { fn inner() { mark(); } inner(); }";
        let (lexed, s) = syn(src);
        let mark = lexed
            .tokens
            .iter()
            .position(|t| matches!(&t.kind, TokenKind::Ident(n) if n == "mark"))
            .expect("mark token present in this fixture");
        let f = s.enclosing_fn(mark).expect("mark sits inside a fn body");
        assert_eq!(s.fns[f].name, "inner");
    }
}
