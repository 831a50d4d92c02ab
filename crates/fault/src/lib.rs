//! Robustness substrate for the data-lake navigation workspace.
//!
//! Two halves, both dependency-free:
//!
//! * [`error`] — the workspace-wide [`DlnError`] taxonomy. Every crate that
//!   can fail recoverably (ingest IO, `.vec` parsing, checkpoint loading,
//!   generator configuration) speaks this one type, so callers get a single
//!   `match` surface instead of a zoo of per-crate error enums.
//! * [`failpoints`] — a deterministic fault-injection harness gated by the
//!   `DLN_FAILPOINTS` environment variable (`name:prob:seed`, comma
//!   separated). Production code asks [`should_fail`] at its injection
//!   sites; with no configuration the check is one relaxed atomic load.
//!   Faults are drawn from a per-site counter-indexed SplitMix64 stream, so
//!   a given `(site, prob, seed)` configuration fails on exactly the same
//!   hits in every run — fault schedules are reproducible by construction.
//!
//! See DESIGN.md §5c for the failpoint catalog and the determinism
//! argument, and the README "Fault tolerance" section for the knobs.

#![warn(missing_docs)]

pub mod error;
pub mod failpoints;

pub use error::{DlnError, DlnResult};
pub use failpoints::{is_armed, scoped, should_fail, should_fail_keyed, ScopedFailpoints};
