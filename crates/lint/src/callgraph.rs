//! Intra-workspace call graph over the syntactic model.
//!
//! Resolution is deliberately *under-approximating*: a call edge is
//! recorded only when the target is unambiguous under suffix-based name
//! resolution (no type inference). The supported forms:
//!
//! - `self.m(…)` — a method of the enclosing `impl` type;
//! - `self.field.m(…)` — resolved through the field's declared type
//!   base name (e.g. `h_items: StripedMap<…>` → `StripedMap::m`);
//! - `Type::m(…)` / `Self::m(…)` — methods of that type;
//! - `free(…)` — free functions, preferring the same file, falling back
//!   to a workspace-unique name;
//! - method calls on any other receiver — never resolved. Common std
//!   method names (`.map`, `.load`, `.insert`, `.collect`) routinely
//!   collide with workspace functions, and a wrong edge is worse than a
//!   missing one.
//!
//! An ambiguous or unknown name produces *no* edge: a spurious edge
//! could fabricate a lock-order cycle, while a missing edge merely
//! loses coverage (the trade the lock rules want).

use crate::lexer::TokenKind;
use crate::source::{FileKind, SourceFile};
use crate::syntax::{is_keyword, Syntax};
use std::collections::BTreeMap;

/// A function known to the workspace, addressed by global id (index
/// into [`CallGraph::fns`]).
#[derive(Debug, Clone)]
pub struct FnKey {
    /// Index of the file in the scanned file list.
    pub file: usize,
    /// Index into that file's [`Syntax::fns`].
    pub syn_idx: usize,
    /// Function name.
    pub name: String,
    /// Enclosing impl type, when any.
    pub impl_type: Option<String>,
}

impl FnKey {
    /// Human-readable name (`Type::method` or `free_fn`).
    pub fn display(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Token index of the callee name.
    pub tok: usize,
    /// Position of the callee name.
    pub line: u32,
    /// Column of the callee name.
    pub col: u32,
    /// Callee name as written.
    pub name: String,
    /// Resolved global fn id, when unambiguous.
    pub target: Option<usize>,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Every function item, across all files.
    pub fns: Vec<FnKey>,
    /// Per-function call sites (indexed by global fn id). Functions in
    /// test code or non-Lib/Bin files have empty call lists — they are
    /// registered only so name resolution sees the true ambiguity.
    pub calls: Vec<Vec<Call>>,
}

impl CallGraph {
    /// Build the graph over all files. `syntaxes[i]` must be the model
    /// of `files[i]`.
    pub fn build(files: &[SourceFile], syntaxes: &[Syntax]) -> CallGraph {
        let mut g = CallGraph::default();
        // Registry pass: every fn in every file participates in name
        // resolution, even test helpers (ambiguity must be honest).
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_type_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (fi, syn) in syntaxes.iter().enumerate() {
            for (si, f) in syn.fns.iter().enumerate() {
                g.fns.push(FnKey {
                    file: fi,
                    syn_idx: si,
                    name: f.name.clone(),
                    impl_type: f.impl_type.clone(),
                });
            }
        }
        for (id, k) in g.fns.iter().enumerate() {
            by_name.entry(&k.name).or_default().push(id);
            match &k.impl_type {
                Some(t) => by_type_name
                    .entry((t.as_str(), k.name.as_str()))
                    .or_default()
                    .push(id),
                None => free_by_name.entry(&k.name).or_default().push(id),
            }
        }

        // Extraction pass: call sites for analyzable functions only.
        g.calls = vec![Vec::new(); g.fns.len()];
        for (id, key) in g.fns.iter().enumerate() {
            let file = &files[key.file];
            if !matches!(file.kind, FileKind::Lib | FileKind::Bin) {
                continue;
            }
            let syn = &syntaxes[key.file];
            let item = &syn.fns[key.syn_idx];
            if file.is_test_line(item.sig_line) {
                continue;
            }
            let Some((open, close)) = item.body else {
                continue;
            };
            let toks = &file.lexed.tokens;
            for p in open + 1..close {
                let TokenKind::Ident(name) = &toks[p].kind else {
                    continue;
                };
                if toks.get(p + 1).map(|t| &t.kind) != Some(&TokenKind::Punct('(')) {
                    continue;
                }
                if is_keyword(name) {
                    continue;
                }
                // `fn name(` is a nested definition, not a call.
                if matches!(toks.get(p.wrapping_sub(1)).map(|t| &t.kind),
                            Some(TokenKind::Ident(k)) if k == "fn")
                {
                    continue;
                }
                let target = resolve(
                    toks,
                    p,
                    name,
                    key,
                    syn,
                    &by_name,
                    &by_type_name,
                    &free_by_name,
                    &g.fns,
                );
                g.calls[id].push(Call {
                    tok: p,
                    line: toks[p].line,
                    col: toks[p].col,
                    name: name.clone(),
                    target,
                });
            }
        }
        g
    }

    /// Global fn ids whose body contains token `tok` of file `file`
    /// (innermost).
    pub fn fn_at(&self, syntaxes: &[Syntax], file: usize, tok: usize) -> Option<usize> {
        let si = syntaxes[file].enclosing_fn(tok)?;
        self.fns
            .iter()
            .position(|k| k.file == file && k.syn_idx == si)
    }
}

#[allow(clippy::too_many_arguments)]
fn resolve(
    toks: &[crate::lexer::Token],
    p: usize,
    name: &str,
    caller: &FnKey,
    syn: &Syntax,
    by_name: &BTreeMap<&str, Vec<usize>>,
    by_type_name: &BTreeMap<(&str, &str), Vec<usize>>,
    free_by_name: &BTreeMap<&str, Vec<usize>>,
    fns: &[FnKey],
) -> Option<usize> {
    let kind_at = |i: usize| toks.get(i).map(|t| &t.kind);
    let ident_at = |i: usize| match kind_at(i) {
        Some(TokenKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    };
    let unique = |cands: Option<&Vec<usize>>| match cands {
        Some(v) if v.len() == 1 => Some(v[0]),
        _ => None,
    };

    if p >= 1 && kind_at(p - 1) == Some(&TokenKind::Punct('.')) {
        // Method call.
        if ident_at(p.wrapping_sub(2)) == Some("self") {
            // `self.name(…)`: the enclosing impl type only.
            if let Some(t) = &caller.impl_type {
                return unique(by_type_name.get(&(t.as_str(), name)));
            }
            return None;
        }
        if p >= 4
            && kind_at(p - 3) == Some(&TokenKind::Punct('.'))
            && ident_at(p - 4) == Some("self")
        {
            // `self.field.name(…)`: field-type hint only.
            if let (Some(field), Some(t)) = (ident_at(p - 2), &caller.impl_type) {
                if let Some(base) = syn
                    .structs
                    .get(t.as_str())
                    .and_then(|s| s.fields.iter().find(|f| f.name == field))
                    .and_then(|f| f.base_type())
                {
                    return unique(by_type_name.get(&(base, name)));
                }
            }
            return None;
        }
        // Unknown receiver: never resolved (std method names collide).
        return None;
    }

    if p >= 3
        && kind_at(p - 1) == Some(&TokenKind::Punct(':'))
        && kind_at(p - 2) == Some(&TokenKind::Punct(':'))
    {
        // `Path::name(…)`: the segment just before the `::`, only.
        if let Some(seg) = ident_at(p.wrapping_sub(3)) {
            let ty = if seg == "Self" {
                caller.impl_type.as_deref().unwrap_or(seg)
            } else {
                seg
            };
            return unique(by_type_name.get(&(ty, name)));
        }
        return None;
    }

    // Free call: same-file free fn first, then workspace-unique free fn,
    // then workspace-unique any-fn.
    if let Some(cands) = free_by_name.get(name) {
        let same_file: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&id| fns[id].file == caller.file)
            .collect();
        if same_file.len() == 1 {
            return Some(same_file[0]);
        }
        if cands.len() == 1 {
            return Some(cands[0]);
        }
    }
    unique(by_name.get(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{FileKind, SourceFile};

    fn build(srcs: &[&str]) -> (Vec<SourceFile>, Vec<Syntax>, CallGraph) {
        let files: Vec<SourceFile> = srcs
            .iter()
            .enumerate()
            .map(|(i, s)| SourceFile::parse(format!("f{i}.rs"), None, FileKind::Lib, s))
            .collect();
        let syns: Vec<Syntax> = files.iter().map(|f| Syntax::build(&f.lexed)).collect();
        let g = CallGraph::build(&files, &syns);
        (files, syns, g)
    }

    fn calls_of<'g>(g: &'g CallGraph, name: &str) -> &'g [Call] {
        let id = g
            .fns
            .iter()
            .position(|k| k.name == name)
            .expect("fn present in this fixture");
        &g.calls[id]
    }

    #[test]
    fn self_method_resolves_to_same_impl() {
        let (_, _, g) = build(&["struct A; impl A { fn f(&self) { self.g(); } fn g(&self) {} }"]);
        let c = calls_of(&g, "f");
        let t = c[0].target.expect("self.g resolves within impl A");
        assert_eq!(g.fns[t].display(), "A::g");
    }

    #[test]
    fn field_type_hint_resolves_across_types() {
        let src = "struct H; impl H { fn insert(&self) {} }\n\
                   struct M { h: H }\n\
                   impl M { fn f(&self) { self.h.insert(); } }";
        let (_, _, g) = build(&[src]);
        let c = calls_of(&g, "f");
        let t = c[0].target.expect("self.h.insert resolves via field type");
        assert_eq!(g.fns[t].display(), "H::insert");
    }

    #[test]
    fn ambiguous_names_resolve_to_nothing() {
        let src = "struct A; impl A { fn m(&self) {} }\n\
                   struct B; impl B { fn m(&self) {} }\n\
                   fn f(x: &A) { x.m(); }";
        let (_, _, g) = build(&[src]);
        let c = calls_of(&g, "f");
        assert!(c[0].target.is_none(), "x.m is ambiguous between A and B");
    }

    #[test]
    fn qualified_path_resolves() {
        let src = "struct A; impl A { fn new() {} }\nfn f() { A::new(); Self_unused(); }\nfn Self_unused() {}";
        let (_, _, g) = build(&[src]);
        let c = calls_of(&g, "f");
        let t = c[0].target.expect("A::new resolves");
        assert_eq!(g.fns[t].display(), "A::new");
    }

    #[test]
    fn unique_name_resolves_through_locals() {
        let src = "fn helper_once() {}\nfn f() { let h = helper_once; h(); helper_once(); }";
        let (_, _, g) = build(&[src]);
        let c = calls_of(&g, "f");
        // Both `h()` (no workspace fn named h) and `helper_once()`.
        let named: Vec<_> = c.iter().filter(|c| c.target.is_some()).collect();
        assert_eq!(named.len(), 1);
        assert_eq!(named[0].name, "helper_once");
    }

    #[test]
    fn test_fns_register_but_contribute_no_calls() {
        let src = "fn real() { lockit(); }\nfn lockit() {}\n\
                   #[cfg(test)] mod t { fn lockit() {} }";
        let (_, _, g) = build(&[src]);
        // Ambiguity from the test helper is honest: two `lockit` fns.
        let c = calls_of(&g, "real");
        assert!(c[0].target.is_none());
        // And the test fn body produced no call list of its own.
        let test_id = g
            .fns
            .iter()
            .enumerate()
            .filter(|(_, k)| k.name == "lockit")
            .map(|(i, _)| i)
            .next_back()
            .expect("test lockit registered");
        assert!(g.calls[test_id].is_empty());
    }
}
