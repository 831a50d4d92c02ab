//! # datalake-nav
//!
//! A production-quality Rust reproduction of **"Organizing Data Lakes for
//! Navigation"** (F. Nargesian, K. Q. Pu, E. Zhu, B. Ghadiri Bashardoost,
//! R. J. Miller — SIGMOD 2020).
//!
//! The library builds *organizations* — DAGs of attribute sets with a subset
//! (inclusion) property on edges — over the text attributes of a data lake,
//! and optimizes them so that a user navigating the DAG under a Markov
//! transition model has maximal expected probability of discovering any
//! table in the lake.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`embed`] — embedding vectors, topic accumulators, the synthetic
//!   fastText substitute and a real `.vec` loader.
//! * [`lake`] — the data-lake model: tables, attributes, domains, tags.
//! * [`synth`] — the TagCloud benchmark and Socrata-like lake generators.
//! * [`cluster`] — agglomerative hierarchical clustering and k-medoids.
//! * [`org`] — **the paper's contribution**: the organization DAG, the
//!   navigation (Markov) model, the local-search construction algorithm,
//!   approximation machinery, and multi-dimensional organizations.
//! * [`search`] — a BM25 keyword-search engine with embedding-based query
//!   expansion (the user-study comparator).
//! * [`serve`] — concurrent, fault-tolerant navigation serving: immutable
//!   snapshot hot-swap, bounded sessions, deadlines with graceful
//!   degradation, admission control and load shedding.
//! * [`net`] — the network front-end: a std-only epoll/kqueue reactor,
//!   length-prefixed binary wire protocol with FNV-1a frame checksums,
//!   and a blocking client, so thousands of mostly-idle remote sessions
//!   share a handful of threads.
//! * [`study`] — the simulated user study and its statistics.
//!
//! ## Quickstart
//!
//! ```no_run
//! use datalake_nav::prelude::*;
//!
//! // 1. Generate a small TagCloud-style benchmark lake.
//! let bench = TagCloudConfig::small().generate();
//!
//! // 2. Build and optimize an organization over its tags.
//! let built = OrganizerBuilder::new(&bench.lake)
//!     .gamma(20.0)
//!     .seed(7)
//!     .build_optimized();
//!
//! // 3. Evaluate: expected probability a navigating user finds each table.
//! let eff = built.effectiveness();
//! println!("organization effectiveness = {eff:.3}");
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench` for
//! the binaries that regenerate every table and figure of the paper.

pub use dln_cluster as cluster;
pub use dln_embed as embed;
pub use dln_lake as lake;
pub use dln_net as net;
pub use dln_org as org;
pub use dln_search as search;
pub use dln_serve as serve;
pub use dln_study as study;
pub use dln_synth as synth;

/// Commonly used items, for glob import in examples and applications.
pub mod prelude {
    pub use crate::cluster::{agglomerative::Dendrogram, kmedoids::KMedoids};
    pub use crate::embed::{
        cosine, EmbeddingModel, SyntheticEmbedding, SyntheticEmbeddingConfig, TopicAccumulator,
        Vocabulary, VocabularyConfig,
    };
    pub use crate::lake::{AttrId, Attribute, DataLake, LakeBuilder, Table, TableId, Tag, TagId};
    pub use crate::net::{Client, NetConfig, NetServer};
    pub use crate::org::{
        clustering_org, flat_org, BuiltOrganization, MultiDimConfig, MultiDimOrganization,
        NavConfig, Organization, OrganizerBuilder, SearchConfig, ShardPolicy,
    };
    pub use crate::search::{KeywordSearch, SearchHit};
    pub use crate::serve::{
        NavService, RetryPolicy, ServeConfig, ServeError, SessionId, StepAction, StepRequest,
        StepResponse, SwapPolicy,
    };
    pub use crate::study::{StudyConfig, StudyReport};
    pub use crate::synth::{SocrataConfig, TagCloudConfig};
}
