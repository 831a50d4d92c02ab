//! The data-lake model.
//!
//! A lake (paper §2.1) is a set of tables `T`; each table has a set of
//! attributes; each attribute has a *domain* of text values; tables carry
//! hand-curated metadata *tags* which their attributes inherit (§3.2). Every
//! attribute and tag is summarized by a *topic vector* — the sample mean of
//! the embedding vectors of its domain values (Definitions 4 and 5).
//!
//! The [`DataLake`] type is the immutable, id-indexed catalog consumed by
//! every downstream component: organization construction and maintenance
//! (`dln-org`), serving (`dln-serve`, `dln-net`), keyword search
//! (`dln-search`), and the user-study harness (`dln-study`). It holds
//! tables, tags, attribute topics and value counts, never raw values: those
//! live in a [`ValueStore`] beside it, read only by keyword search and the
//! study. The catalog is produced by [`LakeBuilder`] (programmatic /
//! generator use) or by the CSV ingester in [`csv`], which returns the
//! value store next to it and leaves numeric columns out (§3.1).

#![warn(missing_docs)]
// Robustness contract (ISSUE 3): ingest must degrade gracefully, never
// abort on a malformed input. Panicking extractors are banned outside
// tests; fallible paths return `DlnError`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod builder;
pub mod cdc;
pub mod csv;
pub mod model;
pub mod stats;
pub mod values;

pub use builder::LakeBuilder;
pub use cdc::{replay, AttrChange, ChangeEvent, ChangeHistory, ChangeLog, ReplayStats};
pub use csv::{Ingest, IngestReport};
pub use model::{AttrId, Attribute, DataLake, Table, TableId, Tag, TagId};
pub use stats::LakeStats;
pub use values::{ValueStore, Values};
