//! Clustering substrate for organization construction.
//!
//! Two classic algorithms, both implemented from scratch over an abstract
//! pairwise-distance interface:
//!
//! * [`agglomerative`] — average-linkage agglomerative hierarchical
//!   clustering via the nearest-neighbour-chain algorithm (O(n²)).
//!   The paper uses it to build the *initial* organization over tag states
//!   ("the initial organization can be the DAG defined based on a
//!   hierarchical clustering of the tags of a data lake", §3.3) and the
//!   `clustering` baseline of Figure 2(a).
//! * [`kmedoids`] — k-medoids (Voronoi iteration with k-means++-style
//!   seeding). The paper uses it to partition tags into the dimensions of a
//!   multi-dimensional organization (§2.5, §4.3.4, citing Kaufmann &
//!   Rousseeuw's PAM) and we additionally use it to pick the attribute
//!   *representatives* of the §3.4 approximation (medoids are natural
//!   representatives of their partition).
//!
//! Distances come from the [`PairwiseDistance`] trait; [`CosinePoints`]
//! adapts a set of unit-norm topic vectors (distance = 1 − cosine).

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod agglomerative;
pub mod distance;
pub mod kmedoids;
pub mod partition;

pub use agglomerative::{Dendrogram, Merge};
pub use distance::{ChordBound, CondensedMatrix, CosinePoints, PairwiseDistance};
pub use kmedoids::KMedoids;
pub use partition::{auto_partition_k, partition_indices, ShardSpectrum};
