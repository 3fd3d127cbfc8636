//! Lock-analysis rule family over the syntactic model + call graph.
//!
//! Three rules:
//!
//! - `locks-order` — build the global lock-acquisition-order graph
//!   (edge `A → B` when `B` is acquired while a guard for `A` is live,
//!   directly or through a resolved call) and fail on cycles; when
//!   `[locks] order` in `lint.toml` declares the hierarchy, also fail
//!   on edges that contradict the declared partial order, on locks that
//!   nest but are undeclared, and on declared locks never seen at any
//!   acquisition site.
//! - `locks-io` — no guard may be live across a blocking call (storage
//!   reads, `SimNet` sends, channel `recv`): direct calls by sink name,
//!   transitive paths through the call graph with the witness chain in
//!   the message. `[locks] io_exempt` entries and inline hatches are
//!   the two escape valves, and both are staleness-tracked.
//! - `locks-guard` — guard hygiene: a guard bound to `_` (dropped
//!   immediately — almost always a bug), and re-acquiring a lock that
//!   is already held in scope (instant deadlock for a `Mutex`).
//!
//! Analysis is deliberately under-approximating (see `callgraph.rs`):
//! an unresolved call contributes nothing, so every reported edge has a
//! concrete witness position.

use crate::callgraph::CallGraph;
use crate::config::Config;
use crate::diagnostics::Finding;
use crate::lexer::{Lexed, TokenKind};
use crate::source::{FileKind, SourceFile};
use crate::syntax::{is_keyword, Syntax};
use icache_obs::Json;
use std::collections::{BTreeMap, BTreeSet};

/// Declared-order / cycle rule id.
pub const RULE_ORDER: &str = "locks-order";
/// Lock-across-blocking-I/O rule id.
pub const RULE_IO: &str = "locks-io";
/// Guard-hygiene rule id.
pub const RULE_GUARD: &str = "locks-guard";

/// Everything the stale-suppression rule and the `--lock-graph`
/// artifact need beyond the findings themselves.
pub struct Analysis {
    /// The lock graph as canonical JSON (nodes, edges, cycles, blocking
    /// paths) — the CI artifact.
    pub graph: Json,
    /// Every lock name observed at an acquisition site.
    pub seen: BTreeSet<String>,
    /// `[locks] io_exempt` entries that suppressed a real blocking path.
    pub io_exempt_used: BTreeSet<String>,
}

/// One lock acquisition inside a function body.
#[derive(Debug, Clone)]
struct Acq {
    /// Canonical lock name: `Type.field`, `static.NAME`, or
    /// `local:<fn>:<ident>` for locals the hierarchy cannot name.
    lock: String,
    /// Token index of the acquisition site.
    tok: usize,
    line: u32,
    col: u32,
    /// Token range `(start, end)` the guard is live over (inclusive);
    /// `start == end` for guards dropped immediately (`let _`).
    held: (usize, usize),
}

struct EdgeInfo {
    path: String,
    line: u32,
    col: u32,
    /// Resolved callee the inner lock is reached through, when the edge
    /// is transitive.
    via: Option<String>,
}

/// Run the lock rules. `syntaxes[i]` models `files[i]`; `graph` is the
/// workspace call graph over the same file list.
pub fn check(
    files: &[SourceFile],
    syntaxes: &[Syntax],
    graph: &CallGraph,
    cfg: &Config,
    out: &mut Vec<Finding>,
) -> Analysis {
    let n = graph.fns.len();
    let mut direct: Vec<Vec<Acq>> = vec![Vec::new(); n];
    let mut guard_ret: Vec<Option<String>> = vec![None; n];

    let analyzable = |id: usize| -> bool {
        let key = &graph.fns[id];
        let file = &files[key.file];
        let item = &syntaxes[key.file].fns[key.syn_idx];
        matches!(file.kind, FileKind::Lib | FileKind::Bin)
            && item.body.is_some()
            && !file.is_test_line(item.sig_line)
            && !cfg.lock_wrappers.contains(&key.name)
    };

    // Pass 1: direct acquisition sites + guard-returning detection.
    for id in 0..n {
        if !analyzable(id) {
            continue;
        }
        extract_direct(
            id,
            files,
            syntaxes,
            graph,
            cfg,
            &mut direct,
            &mut guard_ret,
            out,
        );
    }

    // Pass 2: synthesize acquisitions at call sites whose resolved
    // target returns a guard (accessor methods like `Obs::lock`).
    let mut synth: Vec<Vec<Acq>> = vec![Vec::new(); n];
    for id in 0..n {
        if !analyzable(id) {
            continue;
        }
        let key = &graph.fns[id];
        let syn = &syntaxes[key.file];
        let lexed = &files[key.file].lexed;
        let body = syn.fns[key.syn_idx]
            .body
            .unwrap_or((0, lexed.tokens.len().saturating_sub(1)));
        let direct_toks: BTreeSet<usize> = direct[id].iter().map(|a| a.tok).collect();
        for c in &graph.calls[id] {
            // A call site already modeled as an acquisition (a `.lock()`
            // that happened to resolve to some fn named `lock`) must not
            // be modeled twice.
            if cfg.lock_wrappers.contains(&c.name) || direct_toks.contains(&c.tok) {
                continue;
            }
            let Some(t) = c.target else { continue };
            let Some(lock) = guard_ret[t].clone() else {
                continue;
            };
            // The acquisition expression ends at the call's close paren.
            let Some(close) = call_close(lexed, c.tok) else {
                continue;
            };
            let held = classify_binding(
                lexed, syn, body, c.tok, close, &lock, None, out, files, key.file,
            );
            synth[id].push(Acq {
                lock,
                tok: c.tok,
                line: c.line,
                col: c.col,
                held,
            });
        }
    }

    // Pass 3a: transitive lock closure per function.
    let mut closure: Vec<BTreeSet<String>> = direct
        .iter()
        .map(|v| v.iter().map(|a| a.lock.clone()).collect())
        .collect();
    loop {
        let mut changed = false;
        for id in 0..n {
            let mut add: Vec<String> = Vec::new();
            for c in &graph.calls[id] {
                if let Some(t) = c.target {
                    for l in &closure[t] {
                        if !closure[id].contains(l) {
                            add.push(l.clone());
                        }
                    }
                }
            }
            for l in add {
                closure[id].insert(l);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Pass 3b: which functions (transitively) reach a blocking sink,
    // and through which call chain.
    let mut reach_block: Vec<Option<Vec<String>>> = vec![None; n];
    loop {
        let mut changed = false;
        for id in 0..n {
            if reach_block[id].is_some() {
                continue;
            }
            for c in &graph.calls[id] {
                if cfg.lock_blocking.contains(&c.name) {
                    reach_block[id] = Some(vec![c.name.clone()]);
                    changed = true;
                    break;
                }
                if let Some(t) = c.target {
                    if let Some(chain) = reach_block[t].clone() {
                        let mut full = vec![graph.fns[t].display()];
                        full.extend(chain);
                        reach_block[id] = Some(full);
                        changed = true;
                        break;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Pass 4: nesting edges, re-lock hygiene, and blocking-under-guard.
    let exempt_locks: BTreeSet<&str> = cfg.lock_io_exempt.iter().map(|(l, _)| l.as_str()).collect();
    let mut edges: BTreeMap<(String, String), EdgeInfo> = BTreeMap::new();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut sites: BTreeMap<String, u64> = BTreeMap::new();
    let mut io_exempt_used: BTreeSet<String> = BTreeSet::new();
    let mut blocking_json: Vec<Json> = Vec::new();

    for id in 0..n {
        if !analyzable(id) {
            continue;
        }
        let key = &graph.fns[id];
        let file = &files[key.file];
        let mut acqs: Vec<Acq> = direct[id].iter().chain(synth[id].iter()).cloned().collect();
        acqs.sort_by_key(|a| a.tok);
        let acq_toks: BTreeSet<usize> = acqs.iter().map(|a| a.tok).collect();
        for a in &acqs {
            seen.insert(a.lock.clone());
            *sites.entry(a.lock.clone()).or_insert(0) += 1;
        }
        for (i, a) in acqs.iter().enumerate() {
            // Direct nesting: a later acquisition inside `a`'s range.
            for b in acqs.iter().skip(i + 1) {
                if b.tok <= a.held.0 || b.tok > a.held.1 {
                    continue;
                }
                if b.lock == a.lock {
                    if file.allowed(RULE_GUARD, b.line) {
                        continue;
                    }
                    out.push(Finding {
                        rule: RULE_GUARD,
                        path: file.rel.clone(),
                        line: b.line,
                        col: b.col,
                        message: format!(
                            "lock `{}` re-acquired while its guard from line {} is still \
                             live — instant deadlock for a Mutex; drop the first guard",
                            a.lock, a.line
                        ),
                    });
                    continue;
                }
                edges
                    .entry((a.lock.clone(), b.lock.clone()))
                    .or_insert(EdgeInfo {
                        path: file.rel.clone(),
                        line: b.line,
                        col: b.col,
                        via: None,
                    });
            }
            // Calls made while `a` is held: transitive nesting + blocking.
            for c in &graph.calls[id] {
                if c.tok <= a.held.0 || c.tok > a.held.1 {
                    continue;
                }
                if cfg.lock_wrappers.contains(&c.name) || acq_toks.contains(&c.tok) {
                    continue; // already modeled as an acquisition
                }
                if let Some(t) = c.target {
                    for l in &closure[t] {
                        if *l == a.lock {
                            if file.allowed(RULE_GUARD, c.line) {
                                continue;
                            }
                            out.push(Finding {
                                rule: RULE_GUARD,
                                path: file.rel.clone(),
                                line: c.line,
                                col: c.col,
                                message: format!(
                                    "call to `{}` re-acquires lock `{}` while its guard \
                                     from line {} is still live — instant deadlock for a \
                                     Mutex; drop the guard before the call",
                                    graph.fns[t].display(),
                                    a.lock,
                                    a.line
                                ),
                            });
                            continue;
                        }
                        edges
                            .entry((a.lock.clone(), l.clone()))
                            .or_insert(EdgeInfo {
                                path: file.rel.clone(),
                                line: c.line,
                                col: c.col,
                                via: Some(graph.fns[t].display()),
                            });
                    }
                }
                // Blocking: by sink name directly, or transitively.
                let chain: Option<Vec<String>> = if cfg.lock_blocking.contains(&c.name) {
                    Some(vec![c.name.clone()])
                } else {
                    c.target.and_then(|t| {
                        reach_block[t].clone().map(|tail| {
                            let mut full = vec![graph.fns[t].display()];
                            full.extend(tail);
                            full
                        })
                    })
                };
                let Some(chain) = chain else { continue };
                let chain_text = chain.join(" -> ");
                let at = format!("{}:{}:{}", file.rel, c.line, c.col);
                let status = if exempt_locks.contains(a.lock.as_str()) {
                    io_exempt_used.insert(a.lock.clone());
                    "exempt"
                } else if file.allowed(RULE_IO, c.line) {
                    "hatched"
                } else {
                    out.push(Finding {
                        rule: RULE_IO,
                        path: file.rel.clone(),
                        line: c.line,
                        col: c.col,
                        message: format!(
                            "blocking call `{chain_text}` reached while lock `{}` is held \
                             (guard acquired at line {}) — release the guard before \
                             blocking I/O or add the lock to [locks] io_exempt with a reason",
                            a.lock, a.line
                        ),
                    });
                    "violation"
                };
                blocking_json.push(Json::Obj(vec![
                    ("lock".to_string(), Json::Str(a.lock.clone())),
                    ("chain".to_string(), Json::Str(chain_text)),
                    ("at".to_string(), Json::Str(at)),
                    ("status".to_string(), Json::Str(status.to_string())),
                ]));
            }
        }
    }

    // Pass 5: cycles + declared-order checks.
    let cycles = find_cycles(&edges);
    for cyc in &cycles {
        let first = (cyc[0].clone(), cyc[1].clone());
        if let Some(w) = edges.get(&first) {
            out.push(Finding {
                rule: RULE_ORDER,
                path: w.path.clone(),
                line: w.line,
                col: w.col,
                message: format!(
                    "lock-order cycle: {} — `{}` acquired here while `{}` held{}; every \
                     edge of the cycle has a concrete witness in the lock graph",
                    cyc.join(" -> "),
                    cyc[1],
                    cyc[0],
                    w.via
                        .as_ref()
                        .map(|v| format!(" (via `{v}`)"))
                        .unwrap_or_default(),
                ),
            });
        }
    }
    if !cfg.lock_order.is_empty() {
        let rank: BTreeMap<&str, usize> = cfg
            .lock_order
            .iter()
            .enumerate()
            .map(|(i, l)| (l.as_str(), i))
            .collect();
        let mut undeclared_reported: BTreeSet<String> = BTreeSet::new();
        for ((from, to), w) in &edges {
            match (rank.get(from.as_str()), rank.get(to.as_str())) {
                (Some(rf), Some(rt)) if rf > rt => out.push(Finding {
                    rule: RULE_ORDER,
                    path: w.path.clone(),
                    line: w.line,
                    col: w.col,
                    message: format!(
                        "`{to}` acquired while `{from}` held{}, but [locks] order declares \
                         `{to}` outermost-before `{from}` — acquire in declared order or \
                         fix the hierarchy",
                        w.via
                            .as_ref()
                            .map(|v| format!(" (via `{v}`)"))
                            .unwrap_or_default(),
                    ),
                }),
                _ => {}
            }
            for lock in [from, to] {
                if rank.contains_key(lock.as_str())
                    || lock.starts_with("local:")
                    || !undeclared_reported.insert(lock.clone())
                {
                    continue;
                }
                out.push(Finding {
                    rule: RULE_ORDER,
                    path: w.path.clone(),
                    line: w.line,
                    col: w.col,
                    message: format!(
                        "lock `{lock}` participates in nesting but is not declared in \
                         [locks] order — add it to the hierarchy"
                    ),
                });
            }
        }
        for lock in &cfg.lock_order {
            if !seen.contains(lock) {
                out.push(Finding {
                    rule: RULE_ORDER,
                    path: "lint.toml".to_string(),
                    line: 0,
                    col: 0,
                    message: format!(
                        "declared lock `{lock}` never seen at any acquisition site — \
                         remove it from [locks] order or fix the field name"
                    ),
                });
            }
        }
    }

    let graph_json = build_graph_json(
        cfg,
        &seen,
        &sites,
        &edges,
        &cycles,
        blocking_json,
        &exempt_locks,
    );
    Analysis {
        graph: graph_json,
        seen,
        io_exempt_used,
    }
}

/// Index of the `)` closing the call whose name token is `name_tok`
/// (the `(` must directly follow the name).
fn call_close(lexed: &Lexed, name_tok: usize) -> Option<usize> {
    let toks = &lexed.tokens;
    if toks.get(name_tok + 1).map(|t| &t.kind) != Some(&TokenKind::Punct('(')) {
        return None;
    }
    let mut depth = 0i32;
    let mut i = name_tok + 1;
    while i < toks.len() {
        match &toks[i].kind {
            TokenKind::Punct('(') => depth += 1,
            TokenKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Result-adapter methods that keep the guard (`.expect(…)` etc.);
/// skipping them finds where the acquisition *expression* really ends.
fn skip_adapters(lexed: &Lexed, mut close: usize) -> usize {
    let toks = &lexed.tokens;
    loop {
        let dot = close + 1;
        let is_adapter = toks.get(dot).map(|t| &t.kind) == Some(&TokenKind::Punct('.'))
            && matches!(
                toks.get(dot + 1).map(|t| &t.kind),
                Some(TokenKind::Ident(m))
                    if m == "expect" || m == "unwrap" || m == "unwrap_or_else"
            )
            && toks.get(dot + 2).map(|t| &t.kind) == Some(&TokenKind::Punct('('));
        if !is_adapter {
            return close;
        }
        match call_close(lexed, dot + 1) {
            Some(c) => close = c,
            None => return close,
        }
    }
}

/// Classify the binding of an acquisition whose call closes at `close`,
/// and return the token range the guard is live over. Emits a
/// `locks-guard` finding for guards bound to `_`. When `guard_ret` is
/// `Some`, a tail-position acquisition records the enclosing function as
/// guard-returning instead.
#[allow(clippy::too_many_arguments)]
fn classify_binding(
    lexed: &Lexed,
    syn: &Syntax,
    body: (usize, usize),
    acq_tok: usize,
    close: usize,
    lock: &str,
    guard_ret: Option<&mut Option<String>>,
    out: &mut Vec<Finding>,
    files: &[SourceFile],
    file_idx: usize,
) -> (usize, usize) {
    let toks = &lexed.tokens;
    let end = skip_adapters(lexed, close);
    let block = syn.enclosing_block(lexed, body, acq_tok);
    let stmts = syn.statements(lexed, block.0, block.1);
    let stmt = stmts
        .iter()
        .copied()
        .find(|&(s, e)| s <= acq_tok && acq_tok <= e)
        .unwrap_or((acq_tok, end));
    let starts_with = |kw: &str| matches!(&toks[stmt.0].kind, TokenKind::Ident(s) if s == kw);
    let file = &files[file_idx];

    // Tail position: the expression ends the function body, or the
    // statement is `return <acq>;` — the guard escapes to the caller.
    let next = toks.get(end + 1).map(|t| &t.kind);
    if (end + 1 == body.1 && block == body) || starts_with("return") {
        if let Some(slot) = guard_ret {
            *slot = Some(lock.to_string());
        }
        return (acq_tok, stmt.1);
    }

    let is_let = starts_with("let");
    let let_bound = is_let
        && (next == Some(&TokenKind::Punct(';'))
            || matches!(next, Some(TokenKind::Ident(k)) if k == "else"));
    if let_bound {
        let names = let_pattern_names(lexed, stmt.0);
        if !names.is_empty() && names.iter().all(|n| n == "_") {
            let t = &toks[acq_tok];
            if !file.allowed(RULE_GUARD, t.line) {
                out.push(Finding {
                    rule: RULE_GUARD,
                    path: file.rel.clone(),
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "guard for `{lock}` bound to `_` is dropped immediately — the \
                         lock protects nothing here; bind a named guard or delete the call"
                    ),
                });
            }
            return (acq_tok, acq_tok);
        }
        // Bound guard: live to the end of the enclosing block, truncated
        // at an explicit `drop(name)`.
        let mut held_end = block.1;
        if names.len() == 1 {
            let mut j = stmt.1 + 1;
            while j + 3 <= block.1 {
                if matches!(&toks[j].kind, TokenKind::Ident(s) if s == "drop")
                    && toks[j + 1].kind == TokenKind::Punct('(')
                    && matches!(&toks[j + 2].kind, TokenKind::Ident(s) if *s == names[0])
                    && toks[j + 3].kind == TokenKind::Punct(')')
                {
                    held_end = j;
                    break;
                }
                j += 1;
            }
        }
        return (acq_tok, held_end);
    }

    // Temporary: the guard lives to the end of the enclosing statement.
    (acq_tok, stmt.1)
}

/// Identifiers bound by a `let` pattern: tokens between `let` and the
/// top-level `=`, stopping at a top-level `:` (type annotation),
/// excluding keywords and path/variant names (followed by `(` or `::`).
fn let_pattern_names(lexed: &Lexed, let_tok: usize) -> Vec<String> {
    let toks = &lexed.tokens;
    let mut names = Vec::new();
    let mut depth = 0i32;
    let mut i = let_tok + 1;
    while i < toks.len() {
        match &toks[i].kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('<') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('>') => depth -= 1,
            TokenKind::Punct('=') if depth <= 0 => break,
            TokenKind::Punct(':') if depth <= 0 => break,
            TokenKind::Ident(s) => {
                let next = toks.get(i + 1).map(|t| &t.kind);
                let is_path = next == Some(&TokenKind::Punct('('))
                    || (next == Some(&TokenKind::Punct(':'))
                        && toks.get(i + 2).map(|t| &t.kind) == Some(&TokenKind::Punct(':')));
                if !is_keyword(s) && !is_path {
                    names.push(s.clone());
                }
            }
            _ => {}
        }
        i += 1;
    }
    names
}

/// Extract the direct lock acquisitions of function `id`.
#[allow(clippy::too_many_arguments)]
fn extract_direct(
    id: usize,
    files: &[SourceFile],
    syntaxes: &[Syntax],
    graph: &CallGraph,
    cfg: &Config,
    direct: &mut [Vec<Acq>],
    guard_ret: &mut [Option<String>],
    out: &mut Vec<Finding>,
) {
    let key = &graph.fns[id];
    let file = &files[key.file];
    let syn = &syntaxes[key.file];
    let lexed = &file.lexed;
    let toks = &lexed.tokens;
    let item = &syn.fns[key.syn_idx];
    let Some(body) = item.body else { return };
    let display = key.display();

    // Field lookup through the enclosing impl type: per-file structs
    // first, then any same-named struct anywhere in the workspace.
    let field_lock = |field: &str, want_rwlock: bool| -> Option<String> {
        let ty = key.impl_type.as_deref()?;
        let item = syn
            .structs
            .get(ty)
            .or_else(|| syntaxes.iter().find_map(|s| s.structs.get(ty)))?;
        let f = item.fields.iter().find(|f| f.name == field)?;
        let ok = if want_rwlock {
            f.type_idents.iter().any(|t| t == "RwLock")
        } else {
            f.is_lock()
        };
        ok.then(|| format!("{ty}.{field}"))
    };
    let static_lock = |name: &str| -> Option<String> {
        let hit = syn
            .statics
            .iter()
            .chain(syntaxes.iter().flat_map(|s| s.statics.iter()))
            .find(|s| s.name == name)?;
        hit.is_lock.then(|| format!("static.{name}"))
    };
    // `self.stripe_of(id)` wrapper args: resolve through the accessor's
    // body — the single lock-typed `self.F` it projects.
    let accessor_lock = |accessor: &str| -> Option<String> {
        let ty = key.impl_type.as_deref()?;
        syntaxes.iter().enumerate().find_map(|(fi, s2)| {
            s2.fns
                .iter()
                .find(|f2| f2.name == accessor && f2.impl_type.as_deref() == Some(ty))
                .and_then(|f2| f2.body)
                .and_then(|b| unique_self_lock_field(&files[fi].lexed, b, &field_lock))
        })
    };
    // Bare-ident wrapper args (`for s in self.stripes { lock_counted(s, …) }`):
    // when this fn touches exactly one lock-typed field through `self`,
    // a borrowed lock ref can only alias that field.
    let own_unique = unique_self_lock_field(lexed, body, &field_lock);

    let mut p = body.0 + 1;
    while p < body.1 {
        let TokenKind::Ident(name) = &toks[p].kind else {
            p += 1;
            continue;
        };
        if toks.get(p + 1).map(|t| &t.kind) != Some(&TokenKind::Punct('(')) {
            p += 1;
            continue;
        }
        let prev = toks.get(p.wrapping_sub(1)).map(|t| &t.kind);
        let is_method = p >= 1 && prev == Some(&TokenKind::Punct('.'));

        let lock: Option<String> = if !is_method && cfg.lock_wrappers.contains(name) {
            // `lock_counted(&self.field[..], …)` — lock from first arg.
            wrapper_arg_lock(
                lexed,
                p,
                &display,
                &field_lock,
                &static_lock,
                &accessor_lock,
                own_unique.as_deref(),
            )
        } else if is_method && (name == "lock" || name == "try_lock") {
            receiver_lock(lexed, p, &display, false, &field_lock, &static_lock)
        } else if is_method
            && (name == "read" || name == "write")
            && toks.get(p + 2).map(|t| &t.kind) == Some(&TokenKind::Punct(')'))
        {
            // Zero-arg `.read()`/`.write()` on an RwLock field/static
            // only — `io::Read::read(&mut buf)` takes arguments.
            receiver_lock(lexed, p, &display, true, &field_lock, &static_lock)
        } else {
            None
        };

        let Some(lock) = lock else {
            p += 1;
            continue;
        };
        let Some(close) = call_close(lexed, p) else {
            p += 1;
            continue;
        };
        let t = &toks[p];
        let (line, col) = (t.line, t.col);
        let held = classify_binding(
            lexed,
            syn,
            body,
            p,
            close,
            &lock,
            Some(&mut guard_ret[id]),
            out,
            files,
            key.file,
        );
        direct[id].push(Acq {
            lock,
            tok: p,
            line,
            col,
            held,
        });
        p += 1;
    }
}

/// The single lock-typed field this body touches through `self`, when
/// exactly one distinct such field exists.
fn unique_self_lock_field(
    lexed: &Lexed,
    body: (usize, usize),
    field_lock: &dyn Fn(&str, bool) -> Option<String>,
) -> Option<String> {
    let toks = &lexed.tokens;
    let mut found: BTreeSet<String> = BTreeSet::new();
    let mut i = body.0;
    while i + 2 <= body.1 {
        if matches!(&toks[i].kind, TokenKind::Ident(s) if s == "self")
            && toks[i + 1].kind == TokenKind::Punct('.')
        {
            if let TokenKind::Ident(f) = &toks[i + 2].kind {
                if let Some(l) = field_lock(f, false) {
                    found.insert(l);
                }
            }
        }
        i += 1;
    }
    (found.len() == 1).then(|| found.into_iter().next().unwrap_or_default())
}

/// Resolve the lock acquired by a contention-counting wrapper call:
/// the first argument names it (`&self.stripes[i]`, `self.stripe_of(id)`,
/// a loop-borrowed stripe ref, `&CELL`, `m`).
#[allow(clippy::too_many_arguments)]
fn wrapper_arg_lock(
    lexed: &Lexed,
    name_tok: usize,
    fn_display: &str,
    field_lock: &dyn Fn(&str, bool) -> Option<String>,
    static_lock: &dyn Fn(&str) -> Option<String>,
    accessor_lock: &dyn Fn(&str) -> Option<String>,
    own_unique: Option<&str>,
) -> Option<String> {
    let toks = &lexed.tokens;
    let mut i = name_tok + 2;
    while matches!(toks.get(i).map(|t| &t.kind), Some(TokenKind::Punct('&'))) {
        i += 1;
    }
    if matches!(toks.get(i).map(|t| &t.kind), Some(TokenKind::Ident(s)) if s == "self")
        && toks.get(i + 1).map(|t| &t.kind) == Some(&TokenKind::Punct('.'))
    {
        if let Some(TokenKind::Ident(field)) = toks.get(i + 2).map(|t| &t.kind) {
            if toks.get(i + 3).map(|t| &t.kind) == Some(&TokenKind::Punct('(')) {
                // `self.accessor(…)` — a stripe/shard projection.
                if let Some(l) = accessor_lock(field) {
                    return Some(l);
                }
            } else if let Some(l) = field_lock(field, false) {
                return Some(l);
            }
            return Some(format!("local:{fn_display}:{field}"));
        }
        return None;
    }
    if let Some(TokenKind::Ident(name)) = toks.get(i).map(|t| &t.kind) {
        if let Some(l) = static_lock(name) {
            return Some(l);
        }
        if let Some(l) = own_unique {
            return Some(l.to_string());
        }
        return Some(format!("local:{fn_display}:{name}"));
    }
    None
}

/// Resolve the receiver of `.lock()`/`.try_lock()`/`.read()`/`.write()`
/// at `name_tok` into a lock name. Returns `None` when the receiver is
/// not a lock (plain method call) — `want_rwlock` restricts to
/// `RwLock`-typed receivers for the read/write forms.
fn receiver_lock(
    lexed: &Lexed,
    name_tok: usize,
    fn_display: &str,
    want_rwlock: bool,
    field_lock: &dyn Fn(&str, bool) -> Option<String>,
    static_lock: &dyn Fn(&str) -> Option<String>,
) -> Option<String> {
    let toks = &lexed.tokens;
    let recv = name_tok.checked_sub(2)?;
    match &toks[recv].kind {
        TokenKind::Ident(s) if s == "self" => None, // `self.lock()` — a method call
        TokenKind::Ident(field)
            if recv >= 2
                && toks[recv - 1].kind == TokenKind::Punct('.')
                && matches!(&toks[recv - 2].kind, TokenKind::Ident(s) if s == "self") =>
        {
            // `self.field.lock()`: an acquisition only when the field's
            // declared type is a lock.
            field_lock(field, want_rwlock)
        }
        TokenKind::Ident(name) => {
            // Bare local or static: `GUARD.lock()`, `m.lock()`.
            if let Some(l) = static_lock(name) {
                return Some(l);
            }
            if want_rwlock {
                return None; // `reader.read()` etc. — too ambiguous
            }
            Some(format!("local:{fn_display}:{name}"))
        }
        TokenKind::Punct(']') => {
            // Indexed receiver: `self.field[i].lock()` or `cells[i].lock()`.
            let mut depth = 0i32;
            let mut j = recv;
            loop {
                match &toks[j].kind {
                    TokenKind::Punct(']') => depth += 1,
                    TokenKind::Punct('[') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if j == 0 {
                    return None;
                }
                j -= 1;
            }
            let base = j.checked_sub(1)?;
            match &toks[base].kind {
                TokenKind::Ident(field)
                    if base >= 2
                        && toks[base - 1].kind == TokenKind::Punct('.')
                        && matches!(&toks[base - 2].kind, TokenKind::Ident(s) if s == "self") =>
                {
                    field_lock(field, want_rwlock)
                }
                TokenKind::Ident(name) if !want_rwlock => {
                    Some(format!("local:{fn_display}:{name}"))
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// Enumerate simple cycles in the nesting graph. Each cycle is reported
/// once, rotated so its lexicographically-smallest node leads, and
/// rendered closed (`[a, b, a]`). Self-edges are excluded (they are the
/// re-lock hygiene rule's business).
fn find_cycles(edges: &BTreeMap<(String, String), EdgeInfo>) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        if from != to {
            adj.entry(from).or_default().push(to);
        }
    }
    let mut found: BTreeSet<Vec<String>> = BTreeSet::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for &start in &nodes {
        // DFS restricted to nodes >= start: each cycle is found exactly
        // once, from its smallest node.
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        let mut path: Vec<&str> = vec![start];
        let mut on_path: BTreeSet<&str> = [start].into();
        while let Some((node, next_idx)) = stack.last_mut() {
            let succs = adj.get(*node).map(|v| v.as_slice()).unwrap_or(&[]);
            if *next_idx >= succs.len() {
                on_path.remove(*node);
                path.pop();
                stack.pop();
                continue;
            }
            let succ = succs[*next_idx];
            *next_idx += 1;
            if succ == start {
                let mut cyc: Vec<String> = path.iter().map(|s| s.to_string()).collect();
                cyc.push(start.to_string());
                found.insert(cyc);
                continue;
            }
            if succ < start || on_path.contains(succ) {
                continue;
            }
            on_path.insert(succ);
            path.push(succ);
            stack.push((succ, 0));
        }
    }
    found.into_iter().collect()
}

#[allow(clippy::too_many_arguments)]
fn build_graph_json(
    cfg: &Config,
    seen: &BTreeSet<String>,
    sites: &BTreeMap<String, u64>,
    edges: &BTreeMap<(String, String), EdgeInfo>,
    cycles: &[Vec<String>],
    blocking: Vec<Json>,
    exempt_locks: &BTreeSet<&str>,
) -> Json {
    let rank: BTreeMap<&str, usize> = cfg
        .lock_order
        .iter()
        .enumerate()
        .map(|(i, l)| (l.as_str(), i))
        .collect();
    let mut names: BTreeSet<&str> = seen.iter().map(String::as_str).collect();
    names.extend(cfg.lock_order.iter().map(String::as_str));
    let nodes: Vec<Json> = names
        .iter()
        .map(|&name| {
            Json::Obj(vec![
                ("name".to_string(), Json::Str(name.to_string())),
                ("declared".to_string(), Json::Bool(rank.contains_key(name))),
                (
                    "rank".to_string(),
                    rank.get(name)
                        .map(|r| Json::UInt(*r as u64))
                        .unwrap_or(Json::Null),
                ),
                (
                    "io_exempt".to_string(),
                    Json::Bool(exempt_locks.contains(name)),
                ),
                (
                    "sites".to_string(),
                    Json::UInt(sites.get(name).copied().unwrap_or(0)),
                ),
            ])
        })
        .collect();
    let edge_json: Vec<Json> = edges
        .iter()
        .map(|((from, to), w)| {
            Json::Obj(vec![
                ("from".to_string(), Json::Str(from.clone())),
                ("to".to_string(), Json::Str(to.clone())),
                (
                    "at".to_string(),
                    Json::Str(format!("{}:{}:{}", w.path, w.line, w.col)),
                ),
                (
                    "via".to_string(),
                    w.via.clone().map(Json::Str).unwrap_or(Json::Null),
                ),
            ])
        })
        .collect();
    let cycle_json: Vec<Json> = cycles
        .iter()
        .map(|c| Json::Arr(c.iter().map(|n| Json::Str(n.clone())).collect()))
        .collect();
    Json::Obj(vec![
        ("nodes".to_string(), Json::Arr(nodes)),
        ("edges".to_string(), Json::Arr(edge_json)),
        ("cycles".to_string(), Json::Arr(cycle_json)),
        ("blocking".to_string(), Json::Arr(blocking)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_with(srcs: &[(&str, &str)], cfg: &Config) -> (Vec<Finding>, Analysis) {
        let files: Vec<SourceFile> = srcs
            .iter()
            .map(|(rel, s)| SourceFile::parse(rel.to_string(), None, FileKind::Lib, s))
            .collect();
        let syns: Vec<Syntax> = files.iter().map(|f| Syntax::build(&f.lexed)).collect();
        let graph = CallGraph::build(&files, &syns);
        let mut out = Vec::new();
        let analysis = check(&files, &syns, &graph, cfg, &mut out);
        (out, analysis)
    }

    fn run(src: &str) -> (Vec<Finding>, Analysis) {
        run_with(&[("a.rs", src)], &Config::default())
    }

    const TWO_LOCK_STRUCT: &str = "struct S { a: Mutex<u32>, b: Mutex<u32> }\n";

    #[test]
    fn nested_acquisition_records_an_edge() {
        let src = format!(
            "{TWO_LOCK_STRUCT}impl S {{ fn f(&self) {{ \
             let ga = self.a.lock().expect(\"lock poisoned in test fixture\"); \
             let gb = self.b.lock().expect(\"lock poisoned in test fixture\"); \
             use_both(ga, gb); }} }}"
        );
        let (out, an) = run(&src);
        assert!(out.is_empty(), "{out:?}");
        let edges = an.graph["edges"].as_array().map(|a| a.len());
        assert_eq!(edges, Some(1));
        assert!(an.seen.contains("S.a") && an.seen.contains("S.b"));
    }

    #[test]
    fn cycle_between_two_functions_is_found_with_witness() {
        let src = format!(
            "{TWO_LOCK_STRUCT}impl S {{\n\
             fn f(&self) {{ let g = self.a.lock().expect(\"poisoned in fixture\"); let h = self.b.lock().expect(\"poisoned in fixture\"); touch(g, h); }}\n\
             fn g(&self) {{ let g = self.b.lock().expect(\"poisoned in fixture\"); let h = self.a.lock().expect(\"poisoned in fixture\"); touch(g, h); }}\n\
             }}"
        );
        let (out, an) = run(&src);
        let cyc: Vec<_> = out.iter().filter(|f| f.rule == RULE_ORDER).collect();
        assert_eq!(cyc.len(), 1, "{out:?}");
        assert!(
            cyc[0].message.contains("S.a -> S.b -> S.a"),
            "{}",
            cyc[0].message
        );
        assert_eq!(an.graph["cycles"].as_array().map(|a| a.len()), Some(1));
    }

    #[test]
    fn blocking_call_under_guard_is_flagged_with_chain() {
        let src = "struct S { a: Mutex<u32> }\n\
                   impl S { fn f(&self) { let g = self.a.lock().expect(\"poisoned in fixture\"); step(self, g); } }\n\
                   fn step(s: &S, g: u32) { fetch_it(s, g); }\n\
                   fn fetch_it(s: &S, g: u32) { s.read_samples(g); }\n";
        let (out, _) = run(src);
        let io: Vec<_> = out.iter().filter(|f| f.rule == RULE_IO).collect();
        assert_eq!(io.len(), 1, "{out:?}");
        assert!(
            io[0].message.contains("step -> fetch_it -> read_samples"),
            "{}",
            io[0].message
        );
        assert!(io[0].message.contains("S.a"));
    }

    #[test]
    fn io_exempt_suppresses_and_is_recorded_used() {
        let src = "struct S { a: RwLock<u32> }\n\
                   impl S { fn f(&self) { let g = self.a.read(); self.read_samples(g); } }\n";
        let cfg = Config {
            lock_io_exempt: vec![("S.a".to_string(), "barrier by design".to_string())],
            ..Config::default()
        };
        let (out, an) = run_with(&[("a.rs", src)], &cfg);
        assert!(out.iter().all(|f| f.rule != RULE_IO), "{out:?}");
        assert!(an.io_exempt_used.contains("S.a"));
    }

    #[test]
    fn guard_bound_to_underscore_is_flagged() {
        let src = "struct S { a: Mutex<u32> }\n\
                   impl S { fn f(&self) { let _ = self.a.lock(); work(self); } }\n\
                   fn work(s: &S) {}\n";
        let (out, _) = run(src);
        assert_eq!(
            out.iter().filter(|f| f.rule == RULE_GUARD).count(),
            1,
            "{out:?}"
        );
        assert!(out[0].message.contains("bound to `_`"));
    }

    #[test]
    fn relock_is_guard_finding() {
        let src = "struct S { a: Mutex<u32> }\n\
                   impl S { fn f(&self) { let g = self.a.lock().expect(\"poisoned in fixture\"); \
                   let h = self.a.lock().expect(\"poisoned in fixture\"); touch(g, h); } }\n";
        let (out, _) = run(src);
        assert_eq!(
            out.iter().filter(|f| f.rule == RULE_GUARD).count(),
            1,
            "{out:?}"
        );
    }

    #[test]
    fn declared_order_violation_and_undeclared_lock() {
        let src = format!(
            "{TWO_LOCK_STRUCT}impl S {{ fn f(&self) {{ \
             let g = self.b.lock().expect(\"poisoned in fixture\"); \
             let h = self.a.lock().expect(\"poisoned in fixture\"); touch(g, h); }} }}"
        );
        let cfg = Config {
            lock_order: vec!["S.a".to_string(), "S.b".to_string()],
            ..Config::default()
        };
        let (out, _) = run_with(&[("a.rs", &src)], &cfg);
        let order: Vec<_> = out.iter().filter(|f| f.rule == RULE_ORDER).collect();
        assert_eq!(order.len(), 1, "{out:?}");
        assert!(
            order[0].message.contains("declared"),
            "{}",
            order[0].message
        );

        // Same code, but only one of the two locks declared → the other
        // is reported as participating-but-undeclared, plus the
        // declared-never-seen direction for a phantom lock.
        let cfg2 = Config {
            lock_order: vec!["S.b".to_string(), "S.phantom".to_string()],
            ..Config::default()
        };
        let (out2, _) = run_with(&[("a.rs", &src)], &cfg2);
        assert!(
            out2.iter()
                .any(|f| f.rule == RULE_ORDER && f.message.contains("not declared")),
            "{out2:?}"
        );
        assert!(
            out2.iter().any(|f| f.rule == RULE_ORDER
                && f.path == "lint.toml"
                && f.message.contains("never seen")),
            "{out2:?}"
        );
    }

    #[test]
    fn wrapper_call_names_the_striped_field() {
        let src = "struct S { stripes: Box<[Mutex<u32>]> }\n\
                   fn lock_counted(m: &Mutex<u32>, c: &u32) -> u32 { 0 }\n\
                   impl S { fn f(&self) { let g = lock_counted(&self.stripes[3], &0); touch(g); drop(g); \
                   let h = self.stripes[4].lock().expect(\"poisoned in fixture\"); touch(h); } }\n";
        let (out, an) = run(src);
        assert!(out.is_empty(), "{out:?}");
        assert!(an.seen.contains("S.stripes"), "{:?}", an.seen);
        let nodes = an.graph["nodes"].as_array().expect("nodes array present");
        let stripes = nodes
            .iter()
            .find(|n| n["name"].as_str() == Some("S.stripes"))
            .expect("S.stripes node present");
        assert_eq!(
            stripes["sites"].as_u64(),
            Some(2),
            "wrapper and .lock() sites"
        );
    }

    #[test]
    fn guard_returning_accessor_propagates_to_callers() {
        let src = "struct W { state: Mutex<u32> }\n\
                   struct S { w: W, a: Mutex<u32> }\n\
                   impl W { fn lock(&self) -> u32 { self.state.lock().unwrap_or_else(|p| p.into_inner()) } }\n\
                   impl S { fn f(&self) { let g = self.a.lock().expect(\"poisoned in fixture\"); \
                   let st = self.w.lock(); touch(g, st); } }\n";
        let (out, an) = run(src);
        assert!(out.is_empty(), "{out:?}");
        let edges = an.graph["edges"].as_array().expect("edges array present");
        assert!(
            edges
                .iter()
                .any(|e| e["from"].as_str() == Some("S.a") && e["to"].as_str() == Some("W.state")),
            "{}",
            an.graph.to_string()
        );
    }

    #[test]
    fn explicit_drop_ends_the_held_range() {
        let src = "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
                   impl S { fn f(&self) { let g = self.a.lock().expect(\"poisoned in fixture\"); \
                   touch(g); drop(g); \
                   let h = self.b.lock().expect(\"poisoned in fixture\"); touch(h); } }\n";
        let (out, an) = run(src);
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(an.graph["edges"].as_array().map(|a| a.len()), Some(0));
    }

    #[test]
    fn inline_hatch_silences_io_and_marks_usage() {
        let src = "struct S { a: Mutex<u32> }\n\
                   impl S { fn f(&self) { let g = self.a.lock().expect(\"poisoned in fixture\"); \
                   self.read_samples(g); // lint: allow(locks-io): warm path measured, guard must cover\n\
                   } }\n";
        let files = vec![SourceFile::parse(
            "a.rs".to_string(),
            None,
            FileKind::Lib,
            src,
        )];
        let syns: Vec<Syntax> = files.iter().map(|f| Syntax::build(&f.lexed)).collect();
        let graph = CallGraph::build(&files, &syns);
        let mut out = Vec::new();
        check(&files, &syns, &graph, &Config::default(), &mut out);
        assert!(out.is_empty(), "{out:?}");
        let hatch_line = files[0].allows[0].effective_line;
        assert!(files[0].allow_used(RULE_IO, hatch_line));
    }
}
