//! Keyword-search substrate — the comparator of the paper's user study.
//!
//! §4.4: "we created a semantic search engine that supports keyword search
//! over attribute values and table metadata (including attribute names and
//! table tags). We use pretrained GloVe word vectors to evaluate the
//! similarity of words and identify similar terms. The search engine uses
//! the Xapian library to perform keyword search and supports BM25 document
//! search over metadata and data in tables. Users can optionally disable
//! query expansion."
//!
//! This crate is the from-scratch equivalent: one document per table
//! (name + tags + attribute names + attribute values), a classic inverted
//! index with BM25 ranking, and optional query expansion through an
//! [`dln_embed::EmbeddingModel`] (expansion terms are indexed terms whose
//! embedding is close to a query term's, added with similarity-scaled
//! weight).

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bm25;
pub mod expansion;
pub mod index;

pub use expansion::ExpansionConfig;
pub use index::{KeywordSearch, SearchHit};
