//! Clairvoyant prefetching over the known per-epoch access order
//! (DESIGN.md §11).
//!
//! Because IIS/CIS fix an epoch's entire access sequence before the
//! epoch starts, the loader can overlap storage fetches with compute
//! instead of paying `compute + fetch` per request — the NoPFS premise
//! applied to iCache's two-region design. The module has two layers:
//!
//! * [`InflightWindow`] — the bounded back-pressure window: at most
//!   `depth` fetches in flight, no position delivered twice. Plain
//!   state owned by the pipeline.
//! * [`PrefetchPipeline`] — the deterministic scheduler: plan-order
//!   fetches issue through the usual [`crate::CacheSystem`] the moment
//!   a window slot frees (so up to `depth` storage reads overlap in
//!   the backend's queueing model, and L-sample package loads amortize
//!   across their substitution group), and consumers see per-request
//!   latency `max(compute, stall)` with
//!   `prefetch.{issued,hits,late,cancelled}` accounting.

mod pipeline;
mod window;

pub use pipeline::{IssueRecord, PlannedAccess, PrefetchPipeline, PrefetchReport};
pub use window::InflightWindow;
