//! Embedding substrate for the data-lake navigation system.
//!
//! The paper ("Organizing Data Lakes for Navigation", SIGMOD 2020) represents
//! every text value by a fastText word-embedding vector and every attribute /
//! organization state by the *sample mean* of its value vectors (its *topic
//! vector*, Definition 4). All downstream algorithms consume only:
//!
//! 1. per-value vectors,
//! 2. their sample means, and
//! 3. cosine similarities between those means.
//!
//! This crate provides exactly that interface through the [`EmbeddingModel`]
//! trait, with two implementations:
//!
//! * [`SyntheticEmbedding`] — a deterministic, topic-structured synthetic
//!   model used when real fastText vectors are unavailable (the standard
//!   setup in this reproduction; see `DESIGN.md` §1 for the substitution
//!   argument). Words are organized around topic centres on the unit sphere
//!   so that same-topic words are close in cosine space and cross-topic
//!   words are near-orthogonal, which is the only property the organization
//!   algorithm relies on.
//! * [`VecFileModel`] — a loader for real fastText/GloVe `.vec`-format files,
//!   so the system can be pointed at genuine embeddings.
//!
//! The crate also supplies the dense-vector kernels ([`vector`]) and the
//! tokenizer ([`tokenize`]) used to turn raw cell values into embedding
//! lookups.

#![warn(missing_docs)]
// Robustness contract (ISSUE 3): `.vec` loading must degrade gracefully on
// malformed rows, never abort the pipeline. Panicking extractors are banned
// outside tests; fallible paths return `DlnError`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod gram;
pub mod model;
pub mod tokenize;
pub mod vector;
pub mod vocab;

pub use gram::{gram_into, GRAM_TILE_COLS, GRAM_TILE_ROWS};
pub use model::{
    EmbeddingModel, SyntheticEmbedding, SyntheticEmbeddingConfig, VecFileModel, VecLoadReport,
};
pub use tokenize::{for_each_token, is_numeric_value, tokenize};
pub use vector::{
    batch_dot_wide, cosine, dot, dot_scalar_ref, l2_norm, mean, normalize, normalized,
    TopicAccumulator,
};
pub use vocab::{TokenId, Vocabulary, VocabularyConfig};
