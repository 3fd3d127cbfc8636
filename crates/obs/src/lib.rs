//! Observability for the iCache reproduction.
//!
//! Three pieces, layered bottom-up so every other crate can depend on
//! this one:
//!
//! - [`mod@json`]: a dependency-free JSON value with a canonical writer, a
//!   parser, and the [`json!`] literal macro. Canonical means identical
//!   values always serialize to identical bytes — the foundation for
//!   reproducible traces.
//! - [`decl`]: the single declaration of every counter, gauge, latency
//!   histogram and trace-event name — DESIGN.md §7's tables are rendered
//!   from it.
//! - metric handles ([`Counter`], [`Gauge`], [`Histogram`]): typed write
//!   access to one declared metric, resolved once from an [`Obs`]; a
//!   write is one O(1) cell update (p50/p99 via
//!   `icache_types::LatencyHistogram`).
//! - [`trace`]: typed [`TraceEvent`]s in a bounded ring buffer, shared
//!   across layers through the clonable [`Obs`] handle, exported as
//!   JSON Lines.
//! - [`observable`]: the [`Observable`] trait every instrumented
//!   component implements to accept an [`Obs`] handle uniformly, and
//!   [`obs_handles!`] to declare the handles it writes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decl;
pub mod json;
mod metrics;
pub mod observable;
pub mod trace;

pub use json::{Json, JsonError, ToJson};
pub use metrics::{Counter, Gauge, Histogram};
pub use observable::Observable;
pub use trace::{Obs, TraceEvent};
