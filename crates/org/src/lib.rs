//! Data lake organizations — the core contribution of
//! *"Organizing Data Lakes for Navigation"* (SIGMOD 2020).
//!
//! An **organization** (§2.1) is a DAG whose nodes ("states") are sets of
//! attributes from a data lake, with edges pointing from supersets to
//! subsets (the *inclusion property*). Users discover tables by walking the
//! DAG from the root; the walk is modelled as a Markov process whose
//! transition probabilities follow the similarity between a state's topic
//! vector and the user's (latent) query topic (§2.3, Equation 1).
//!
//! In data lakes with tag metadata, the state space is built over *tags*
//! (§3.2): the graph's leaves are single-tag states, every interior state
//! is a set of tags, and the attributes of a state are the union of its
//! tags' attribute populations. An attribute is discovered by reaching one
//! of its tag states and then selecting it among the tag's attributes
//! (§4.3.4).
//!
//! Module map:
//!
//! * [`bitset`] — fixed-capacity bitsets for tag / attribute sets.
//! * [`ctx`] — [`OrgContext`]: the per-organization universe (a tag group
//!   and its attributes / tables), with local dense ids.
//! * [`graph`] — the [`Organization`] DAG: states, edges, levels,
//!   structural validation.
//! * [`init`] — initial organizations: the flat (tag-portal) baseline and
//!   the agglomerative-clustering initialization (§3.3).
//! * [`ops`] — the two local-search operations `ADD_PARENT` /
//!   `DELETE_PARENT` with undo logs (§3.3).
//! * [`eval`] — the navigation model: reach probabilities (Eq 2–4),
//!   discovery probabilities (Def. 1–2), organization effectiveness (Eq 6),
//!   with incremental affected-subgraph re-evaluation (§3.4).
//! * [`approx`] — attribute representatives for approximate evaluation
//!   (§3.4).
//! * [`search`] — the Metropolis local-search loop (§3.3, Eq 9), with
//!   deadline-aware, checkpointed execution and bit-identical resume.
//! * [`checkpoint`] — versioned, checksummed search checkpoints (the
//!   crash-safety layer; see DESIGN.md §5c).
//! * [`store`] — the persistent zero-copy organization store: a complete
//!   serving snapshot in one mmap-friendly file of aligned fixed-width
//!   sections, opened by reference in milliseconds (DESIGN.md §5g).
//! * [`view`] — the [`OrgView`] accessor trait served snapshots are read
//!   through, implemented by both the in-memory structs and the mapped
//!   store.
//! * [`multidim`] — k-dimensional organizations (§2.5, Eq 8) with parallel
//!   per-dimension optimization.
//! * [`shard`] — sharded single-dimension construction: tags split into
//!   embedding clusters, per-shard parallel search, shard roots stitched
//!   under a top-level router state (DESIGN.md §5e).
//! * `maintain` — [`Maintainer`]: crash-safe incremental maintenance of
//!   a served organization under ingest churn, planned from the CDC
//!   change log (DESIGN.md §5h/5i).
//! * `cycle` — the maintainer's epoch-committed cycle engine: durable
//!   plan commit, checkpointed shard re-search, graft-back shard
//!   republish.
//! * [`success`] — the success-probability evaluation measure (§4.2).
//! * [`navigate`] — interactive navigation over a built organization
//!   (state labelling and query-conditioned transitions, §4.4 prototype).
//! * [`builder`] — [`OrganizerBuilder`], the high-level API.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod approx;
pub mod bitset;
pub mod builder;
pub mod checkpoint;
pub mod ctx;
mod cycle;
pub mod eval;
pub mod export;
pub mod graph;
pub mod init;
mod maintain;
pub mod multidim;
pub mod navigate;
pub mod ops;
pub mod search;
pub mod shard;
pub mod store;
pub mod success;
pub mod view;

pub use approx::Representatives;
pub use bitset::BitSet;
pub use builder::{BuiltOrganization, OrganizerBuilder};
pub use checkpoint::{Checkpoint, CheckpointConfig};
pub use ctx::{LocalAttr, LocalTag, OrgContext};
pub use cycle::{Advance, CyclePhase, CycleStage, EMPTY_SHARD};
pub use eval::{Evaluator, NavConfig};
pub use export::{load_json, save_json, to_dot};
pub use graph::{Organization, StateId};
pub use init::{bisecting_org, clustering_org, flat_org, random_org};
pub use maintain::{MaintConfig, Maintainer};
pub use multidim::{MultiDimConfig, MultiDimOrganization};
pub use navigate::{
    transition_probs_from, transition_probs_from_mat, transition_probs_over, Navigator,
};
pub use ops::{OpKind, OpOutcome};
pub use search::{IterStats, SearchConfig, SearchStats, ShardPolicy, StopReason};
pub use shard::{
    build_sharded, build_sharded_group, derive_shard_seed, ShardedBuild, AUTO_SHARD_MAX,
};
pub use store::{open_store, open_store_with_fallback, save_store, MappedSnapshot};
pub use success::{success_curve, SuccessCurve};
pub use view::{OrgView, OwnedSnap};
