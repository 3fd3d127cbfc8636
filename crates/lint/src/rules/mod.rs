//! The rule families. Each rule takes a parsed
//! [`SourceFile`](crate::source::SourceFile) (or, for the lock and
//! stale-suppression rules, the whole workspace) and appends
//! [`Finding`](crate::diagnostics::Finding)s.

pub mod determinism;
pub mod hygiene;
pub mod locks;
pub mod panic;
pub mod stale;
