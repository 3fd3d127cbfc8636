//! The span recorder of the traced pass.
//!
//! Every call from the harness into a layer is bracketed by
//! [`enter`]/[`exit`] (the `Timed` decorators in `adapter.rs` do that).
//! Spans nest by call order on a thread, so a storage read issued from
//! inside a cache fetch is that fetch's child, and a layer's *self* time
//! is its span minus the part its children cover. Spans are aggregated
//! per (layer, op) as they close; only the raw spans of the first
//! [`KEPT_TREES`] request trees, of every epoch hook and of the few
//! spans outside any request are kept, and are written out when the run
//! ends.
//!
//! The recorder is thread-local: a loader thread records into its own
//! state and hands it back with [`take`], so tracing adds no shared
//! lock to the code under test.

use crate::stats::LogHist;
use std::cell::RefCell;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Request trees whose raw spans are kept per thread.
pub const KEPT_TREES: u32 = 2_000;

/// How a span takes part in request trees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Belongs to whatever request is open.
    Plain,
    /// Serves one request (a job step, a cache fetch): the outermost
    /// such span is the root of a request tree, and every span under it
    /// shares its ordinal.
    Request,
    /// An epoch hook: its raw span is kept even inside a request tree
    /// that is not.
    Hook,
}

/// A registered (layer, op) pair; an index into the per-thread
/// aggregate table. Carries its kind so closing a span reads no shared
/// state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Key {
    slot: u16,
    kind: Kind,
}

struct KeyInfo {
    layer: &'static str,
    op: &'static str,
}

static KEYS: Mutex<Vec<KeyInfo>> = Mutex::new(Vec::new());
static T0: OnceLock<Instant> = OnceLock::new();

fn keys() -> std::sync::MutexGuard<'static, Vec<KeyInfo>> {
    KEYS.lock()
        .expect("span key table poisoned: a registrant panicked")
}

/// Register (or look up) the key of `layer`/`op`. Called when a
/// decorator is built, never per span.
pub fn key(layer: &'static str, op: &'static str, kind: Kind) -> Key {
    let mut table = keys();
    let slot = match table.iter().position(|k| k.layer == layer && k.op == op) {
        Some(i) => i,
        None => {
            table.push(KeyInfo { layer, op });
            table.len() - 1
        }
    };
    Key {
        slot: slot as u16,
        kind,
    }
}

/// Nanoseconds since the process's first span-clock reading.
pub fn now_ns() -> u64 {
    T0.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One closed span, as written to the spans file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    pub key: Key,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Ordinal of the request tree the span belongs to (0 outside one).
    pub req: u64,
}

/// Count, inclusive and self time of one (layer, op), plus the
/// distribution of per-span self time.
#[derive(Clone, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub self_hist: LogHist,
}

struct Open {
    key: Key,
    id: u32,
    start_ns: u64,
    child_ns: u64,
}

/// What one thread recorded.
#[derive(Default)]
pub struct Recording {
    aggs: Vec<Agg>,
    pub spans: Vec<Span>,
    stack: Vec<Open>,
    next_id: u32,
    trees: u64,
    /// Stack depth of the open request tree's root span, if any.
    request_at: Option<usize>,
    keeping: bool,
}

impl Recording {
    fn enter(&mut self, key: Key) {
        self.enter_at(key, now_ns());
    }

    fn enter_at(&mut self, key: Key, start_ns: u64) {
        if key.kind == Kind::Request && self.request_at.is_none() {
            self.request_at = Some(self.stack.len());
            self.trees += 1;
            self.keeping = self.trees <= KEPT_TREES as u64;
        }
        self.next_id += 1;
        self.stack.push(Open {
            key,
            id: self.next_id,
            start_ns,
            child_ns: 0,
        });
    }

    fn exit(&mut self) {
        self.exit_at(now_ns());
    }

    fn exit_at(&mut self, end_ns: u64) {
        let open = self.stack.pop().expect("span exit without an enter");
        let total = end_ns.saturating_sub(open.start_ns);
        let own = total.saturating_sub(open.child_ns);
        let slot = open.key.slot as usize;
        if self.aggs.len() <= slot {
            self.aggs.resize_with(slot + 1, Agg::default);
        }
        let agg = &mut self.aggs[slot];
        agg.count += 1;
        agg.total_ns += total;
        agg.self_ns += own;
        agg.self_hist.record(own);
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += total;
                p.id
            }
            None => 0,
        };
        let in_request = self.request_at.is_some();
        if !in_request || self.keeping || open.key.kind == Kind::Hook {
            self.spans.push(Span {
                id: open.id,
                parent,
                key: open.key,
                start_ns: open.start_ns,
                end_ns,
                req: if in_request { self.trees } else { 0 },
            });
        }
        if self.request_at == Some(self.stack.len()) {
            self.request_at = None;
        }
    }

    /// The aggregate of `layer`/`op` (empty when no such span closed).
    pub fn agg(&self, layer: &str, op: &str) -> Agg {
        self.layer_sum(|l, o| l == layer && o == op)
    }

    /// Sum over every op of the layers selected by `pick`.
    pub fn layer_sum(&self, pick: impl Fn(&str, &str) -> bool) -> Agg {
        let table = keys();
        let mut out = Agg::default();
        for (i, k) in table.iter().enumerate() {
            if !pick(k.layer, k.op) {
                continue;
            }
            if let Some(a) = self.aggs.get(i) {
                out.count += a.count;
                out.total_ns += a.total_ns;
                out.self_ns += a.self_ns;
                out.self_hist.merge(&a.self_hist);
            }
        }
        out
    }

    /// Self time of every span recorded, which is the time the root
    /// spans cover.
    pub fn accounted_ns(&self) -> u64 {
        self.aggs.iter().map(|a| a.self_ns).sum()
    }

    /// Fold another thread's recording into this one. Its spans keep
    /// their ids, offset past this recording's so they stay unique.
    pub fn merge(&mut self, other: Recording) {
        if self.aggs.len() < other.aggs.len() {
            self.aggs.resize_with(other.aggs.len(), Agg::default);
        }
        for (a, b) in self.aggs.iter_mut().zip(other.aggs.iter()) {
            a.count += b.count;
            a.total_ns += b.total_ns;
            a.self_ns += b.self_ns;
            a.self_hist.merge(&b.self_hist);
        }
        let offset = self.next_id;
        self.next_id += other.next_id;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            id: s.id + offset,
            parent: if s.parent == 0 { 0 } else { s.parent + offset },
            ..s
        }));
    }

    /// The kept spans as JSON Lines, in start order.
    pub fn spans_jsonl(&self) -> String {
        let table = keys();
        let mut spans: Vec<&Span> = self.spans.iter().collect();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = String::new();
        for s in spans {
            let k = &table[s.key.slot as usize];
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"op\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"req\":{}}}\n",
                s.id, s.parent, k.layer, k.op, s.start_ns, s.end_ns, s.req
            ));
        }
        out
    }
}

thread_local! {
    static REC: RefCell<Recording> = RefCell::new(Recording::default());
}

/// Open a span on this thread.
#[inline]
pub fn enter(key: Key) {
    REC.with(|r| r.borrow_mut().enter(key));
}

/// Close the innermost open span on this thread.
#[inline]
pub fn exit() {
    REC.with(|r| r.borrow_mut().exit());
}

/// Run `f` inside a span.
#[inline]
pub fn span<R>(key: Key, f: impl FnOnce() -> R) -> R {
    enter(key);
    let out = f();
    exit();
    out
}

/// Take this thread's recording, leaving it empty.
///
/// # Panics
///
/// Panics when a span is still open: the caller's enters and exits do
/// not pair up.
pub fn take() -> Recording {
    REC.with(|r| {
        let rec = std::mem::take(&mut *r.borrow_mut());
        assert!(rec.stack.is_empty(), "recording taken with a span open");
        rec
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn closed(
        rec: &mut Recording,
        key: Key,
        start: u64,
        end: u64,
        body: impl FnOnce(&mut Recording),
    ) {
        rec.enter_at(key, start);
        body(rec);
        rec.exit_at(end);
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let root = key("test.bench", "rep", Kind::Plain);
        let fetch = key("test.core", "fetch", Kind::Request);
        let read = key("test.storage", "read", Kind::Plain);
        let mut rec = Recording::default();
        // root 0..1000
        //   fetch 100..400, with reads 150..200 and 250..350 (siblings)
        //   fetch 500..600, no children
        closed(&mut rec, root, 0, 1_000, |rec| {
            closed(rec, fetch, 100, 400, |rec| {
                closed(rec, read, 150, 200, |_| {});
                closed(rec, read, 250, 350, |_| {});
            });
            closed(rec, fetch, 500, 600, |_| {});
        });
        let f = rec.agg("test.core", "fetch");
        assert_eq!((f.count, f.total_ns, f.self_ns), (2, 400, 250));
        let r = rec.agg("test.storage", "read");
        assert_eq!((r.count, r.total_ns, r.self_ns), (2, 150, 150));
        let b = rec.agg("test.bench", "rep");
        assert_eq!((b.count, b.total_ns, b.self_ns), (1, 1_000, 600));
        // Self times partition the root span.
        assert_eq!(rec.accounted_ns(), 1_000);
        assert_eq!(f.self_hist.count(), 2);
    }

    #[test]
    fn spans_of_one_request_share_its_ordinal_and_name_their_parent() {
        let root = key("test.bench", "rep", Kind::Plain);
        let fetch = key("test.core", "fetch", Kind::Request);
        let read = key("test.storage", "read", Kind::Plain);
        let mut rec = Recording::default();
        closed(&mut rec, root, 0, 100, |rec| {
            closed(rec, fetch, 10, 20, |_| {});
            closed(rec, fetch, 30, 60, |rec| closed(rec, read, 40, 50, |_| {}));
        });
        let by_start = |s: u64| rec.spans.iter().find(|x| x.start_ns == s).unwrap();
        assert_eq!(by_start(10).req, 1);
        assert_eq!(by_start(30).req, 2);
        assert_eq!(by_start(40).req, 2);
        assert_eq!(by_start(40).parent, by_start(30).id);
        assert_eq!(by_start(30).parent, by_start(0).id);
        assert_eq!(by_start(0).parent, 0);
        let text = rec.spans_jsonl();
        assert_eq!(text.lines().count(), 4);
        assert!(text.starts_with("{\"id\":1,\"parent\":0,\"layer\":\"test.bench\",\"op\":\"rep\""));
    }

    #[test]
    fn only_the_first_trees_the_hooks_and_spans_outside_requests_keep_raw_spans() {
        let root = key("test.bench", "rep", Kind::Plain);
        let step = key("test.sim", "step", Kind::Request);
        let fetch = key("test.core", "fetch", Kind::Request);
        let hook = key("test.core", "epoch_end", Kind::Hook);
        let render = key("test.sim", "render", Kind::Plain);
        let mut rec = Recording::default();
        let n = KEPT_TREES as u64 + 50;
        closed(&mut rec, root, 0, 10 * n + 100, |rec| {
            for i in 0..n {
                closed(rec, fetch, 10 * i, 10 * i + 5, |_| {});
            }
            // A late step: its fetch is dropped, the hook under it kept.
            closed(rec, step, 10 * n, 10 * n + 40, |rec| {
                closed(rec, fetch, 10 * n + 1, 10 * n + 2, |_| {});
                closed(rec, hook, 10 * n + 3, 10 * n + 30, |_| {});
            });
            closed(rec, render, 10 * n + 50, 10 * n + 60, |_| {});
        });
        assert_eq!(rec.agg("test.core", "fetch").count, n + 1);
        // root + kept fetches + the hook + the render span
        assert_eq!(rec.spans.len() as u64, 1 + KEPT_TREES as u64 + 2);
        let hook_span = rec.spans.iter().find(|s| s.key == hook).unwrap();
        assert_eq!(hook_span.req, n + 1, "the step's fetch joined its tree");
        let render_span = rec.spans.iter().find(|s| s.key == render).unwrap();
        assert_eq!(render_span.req, 0);
    }

    #[test]
    fn merged_recordings_keep_span_ids_unique() {
        let root = key("test.bench", "rep", Kind::Plain);
        let fetch = key("test.core", "fetch", Kind::Request);
        let mut a = Recording::default();
        closed(&mut a, root, 0, 10, |rec| closed(rec, fetch, 1, 2, |_| {}));
        let mut b = Recording::default();
        closed(&mut b, root, 0, 20, |rec| closed(rec, fetch, 3, 9, |_| {}));
        a.merge(b);
        assert_eq!(a.agg("test.core", "fetch").count, 2);
        assert_eq!(a.agg("test.bench", "rep").total_ns, 30);
        let mut ids: Vec<u32> = a.spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4);
        for s in &a.spans {
            assert!(s.parent == 0 || a.spans.iter().any(|p| p.id == s.parent));
        }
    }

    #[test]
    fn thread_local_enter_exit_round_trips() {
        let k = key("test.thread", "op", Kind::Plain);
        let got = std::thread::spawn(move || {
            span(k, || std::hint::black_box(1 + 1));
            take()
        })
        .join()
        .expect("recorder thread");
        assert_eq!(got.agg("test.thread", "op").count, 1);
        assert_eq!(take().agg("test.thread", "op").count, 0);
    }
}
