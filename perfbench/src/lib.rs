//! End-to-end benchmark of the data-lake navigation system: from a seeded
//! on-disk lake to a served wire step. See `README.md` next to this
//! package for the workloads, the metrics and how to run it.

pub mod churn;
pub mod lakegen;
pub mod nav;
pub mod pipeline;
pub mod stats;
pub mod workloads;
