//! Simulated user study: navigation vs. keyword search (paper §4.4).
//!
//! The paper ran a 12-participant within-subject study on two tag-disjoint
//! Socrata sub-lakes with a balanced latin-square design, testing:
//!
//! * **H1** — given the same time, participants find a *similar number* of
//!   relevant tables with navigation and with keyword search (the paper
//!   found no statistically significant difference; max 44 via navigation
//!   vs 34 via search);
//! * **H2** — navigation surfaces tables keyword search does not: result
//!   *disjointness* (`1 − |R∩T| / |R∪T|`) across participants was higher
//!   for navigation (Mdn 0.985 vs 0.916, Mann–Whitney U, p = 0.0019), and
//!   only ≈5% of tables were found by both modalities.
//!
//! Humans are not reproducible in a library; what is reproducible is the
//! *measurable* part: stochastic participant agents with private scenario
//! topics and bounded action budgets drive the exact same two interfaces
//! (the organization, through the same [`dln_serve::NavService::step`]
//! that serves the wire and the REPL, and the BM25
//! [`dln_search::KeywordSearch`]), and the same statistics are computed
//! with the same tests. See `DESIGN.md` §1 for the substitution argument.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod agents;
pub mod concurrent;
pub mod metrics;
pub mod stats;
pub mod study;
pub mod unified;

pub use agents::{table_sim, AgentConfig, Scenario, SearchAgent};
pub use concurrent::{run_concurrent, run_serial, ServedAgent, ServedDim, ServedOutcome};
pub use metrics::{disjointness, mean_pairwise_disjointness, overlap_fraction};
pub use stats::{mann_whitney_u, median, MannWhitney};
pub use study::{default_scenario, run_study, ModalityResult, StudyConfig, StudyReport};
pub use unified::UnifiedSession;
