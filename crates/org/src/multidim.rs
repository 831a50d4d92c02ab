//! Multi-dimensional organizations (§2.5).
//!
//! "Given the heterogeneity and massive size of data lakes, it may be
//! advantageous to perform an initial grouping of tables and then build an
//! organization on each group." Tags are partitioned into `k` groups with
//! k-medoids over their topic vectors (§4.3.1/§4.3.4), one organization is
//! optimized per group — independently and in parallel, which is why the
//! paper's multi-dimensional constructions are *faster* than the
//! 1-dimensional one — and discovery composes across dimensions:
//!
//! ```text
//! P(T | M) = 1 − Π over dimensions i of (1 − P(T | Oᵢ))      (Eq 8)
//! ```
//!
//! The dimensions fan out through one `rayon::par_map`, which gives each
//! worker a contiguous run of dimensions (one each when there are no more
//! dimensions than workers) and runs the evaluators inside them inline.
//! Every dimension is a pure function of its tag group and the search
//! configuration, so the result is the same at any worker count.

use dln_cluster::{partition_indices, CosinePoints};
use dln_lake::{DataLake, TagId};

use crate::builder::{BuiltOrganization, OrganizerBuilder};
use crate::search::SearchConfig;
use crate::success::{self, SuccessCurve};

/// Configuration for building a k-dimensional organization.
#[derive(Clone, Debug)]
pub struct MultiDimConfig {
    /// Number of dimensions (tag groups). The paper uses 1–4 on TagCloud
    /// and 10 on Socrata.
    pub n_dims: usize,
    /// Local-search configuration applied to every dimension.
    pub search: SearchConfig,
    /// Seed of the k-medoids tag partitioning.
    pub partition_seed: u64,
}

impl Default for MultiDimConfig {
    fn default() -> Self {
        MultiDimConfig {
            n_dims: 2,
            search: SearchConfig::default(),
            partition_seed: 0x9A97_0E55,
        }
    }
}

/// Per-dimension statistics — the rows of the paper's Table 1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DimStats {
    /// Tags in the dimension.
    pub n_tags: usize,
    /// Attributes reachable in the dimension.
    pub n_attrs: usize,
    /// Tables with at least one attribute in the dimension.
    pub n_tables: usize,
    /// Evaluation representatives used while optimizing the dimension.
    pub n_reps: usize,
}

/// A k-dimensional organization: one optimized organization per tag group.
pub struct MultiDimOrganization {
    /// The per-dimension organizations, ordered by descending tag count
    /// (the presentation order of Table 1).
    pub dims: Vec<BuiltOrganization>,
}

impl MultiDimOrganization {
    /// Partition the lake's tags into `cfg.n_dims` groups by k-medoids over
    /// tag topic vectors and optimize one organization per group.
    pub fn build(lake: &DataLake, cfg: &MultiDimConfig) -> MultiDimOrganization {
        let groups: Vec<Vec<TagId>> = partition_tags(lake, cfg.n_dims, cfg.partition_seed)
            .into_iter()
            .filter(|g| !g.is_empty())
            .collect();
        let mut dims = rayon::par_map(groups.len(), |i| {
            OrganizerBuilder::new(lake)
                .tag_group(groups[i].clone())
                .search_config(cfg.search.clone())
                .build_optimized()
        });
        dims.sort_by_key(|d| std::cmp::Reverse(d.ctx.n_tags()));
        MultiDimOrganization { dims }
    }

    /// Number of dimensions.
    pub fn n_dims(&self) -> usize {
        self.dims.len()
    }

    /// Discovery probability of every lake attribute in the
    /// multi-dimensional organization: `P(A|M) = 1 − Π(1 − P(A|Oᵢ))`.
    pub fn attr_discovery_global(&self, lake: &DataLake) -> Vec<f64> {
        let mut miss = vec![1.0f64; lake.n_attrs()];
        for dim in &self.dims {
            let disc = dim.attr_discovery_global(lake);
            for (m, d) in miss.iter_mut().zip(disc.iter()) {
                *m *= 1.0 - d;
            }
        }
        miss.into_iter().map(|m| 1.0 - m).collect()
    }

    /// Discovery probability of every lake table (Eq 8).
    pub fn table_discovery(&self, lake: &DataLake) -> Vec<f64> {
        let attr_disc = self.attr_discovery_global(lake);
        lake.table_ids()
            .map(|t| {
                let miss: f64 = lake
                    .table(t)
                    .attrs
                    .iter()
                    .map(|a| 1.0 - attr_disc[a.index()])
                    .product();
                1.0 - miss
            })
            .collect()
    }

    /// Organization effectiveness of the multi-dimensional organization:
    /// the mean table discovery probability over the lake (Eq 6 + Eq 8).
    pub fn effectiveness(&self, lake: &DataLake) -> f64 {
        let probs = self.table_discovery(lake);
        if probs.is_empty() {
            return 0.0;
        }
        probs.iter().sum::<f64>() / probs.len() as f64
    }

    /// The Figure 2 success curve of the multi-dimensional organization.
    pub fn success_curve(&self, lake: &DataLake, theta: f32) -> SuccessCurve {
        let disc = self.attr_discovery_global(lake);
        success::success_curve(lake, &disc, theta)
    }

    /// Table 1: per-dimension statistics, in the stored (descending tag
    /// count) order.
    pub fn dim_stats(&self) -> Vec<DimStats> {
        self.dims
            .iter()
            .map(|d| DimStats {
                n_tags: d.ctx.n_tags(),
                n_attrs: d.ctx.n_attrs(),
                n_tables: d.ctx.n_tables(),
                n_reps: d
                    .search_stats
                    .as_ref()
                    .map(|s| s.n_queries)
                    .unwrap_or_else(|| d.ctx.n_attrs()),
            })
            .collect()
    }

    /// Wall-clock construction time: the maximum over dimensions when built
    /// in parallel (matches the paper's §4.3.2 reporting convention: "the
    /// reported construction times of the multi-dimensional organizations
    /// indicate the time it takes to finish optimizing all dimensions").
    pub fn parallel_construction_time(&self) -> std::time::Duration {
        self.dims
            .iter()
            .filter_map(|d| d.search_stats.as_ref().map(|s| s.duration))
            .max()
            .unwrap_or_default()
    }
}

/// Partition the lake's tags into `k` groups by k-medoids over their unit
/// topic vectors (cosine distance). Returns at most `k` non-empty groups.
pub fn partition_tags(lake: &DataLake, k: usize, seed: u64) -> Vec<Vec<TagId>> {
    let points = CosinePoints::new(
        lake.tags()
            .iter()
            .map(|t| t.unit_topic.as_slice())
            .collect(),
    );
    partition_indices(&points, k, seed)
        .into_iter()
        .map(|g| g.into_iter().map(|t| TagId(t as u32)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dln_synth::TagCloudConfig;

    fn cfg(n_dims: usize) -> MultiDimConfig {
        MultiDimConfig {
            n_dims,
            search: SearchConfig {
                max_iters: 120,
                ..Default::default()
            },
            partition_seed: 5,
        }
    }

    #[test]
    fn partition_covers_all_tags() {
        let bench = TagCloudConfig::small().generate();
        let groups = partition_tags(&bench.lake, 3, 1);
        let total: usize = groups.iter().map(Vec::len).sum();
        assert_eq!(total, bench.lake.n_tags());
        assert!(groups.len() <= 3 && !groups.is_empty());
    }

    #[test]
    fn two_dim_builds_and_composes() {
        let bench = TagCloudConfig::small().generate();
        let m = MultiDimOrganization::build(&bench.lake, &cfg(2));
        assert!(m.n_dims() >= 1 && m.n_dims() <= 2);
        for d in &m.dims {
            d.organization.validate(&d.ctx).expect("valid dim");
        }
        let eff = m.effectiveness(&bench.lake);
        assert!(eff > 0.0 && eff <= 1.0);
        // Eq 8 composition dominates each single attribute discovery.
        let composed = m.attr_discovery_global(&bench.lake);
        for dim in &m.dims {
            let single = dim.attr_discovery_global(&bench.lake);
            for (c, s) in composed.iter().zip(single.iter()) {
                assert!(*c >= *s - 1e-12);
            }
        }
    }

    #[test]
    fn more_dimensions_do_not_hurt_effectiveness() {
        // The Figure 2(a) trend: 2-dim ≥ 1-dim (each dimension is smaller
        // and more coherent).
        let bench = TagCloudConfig::small().generate();
        let one = MultiDimOrganization::build(&bench.lake, &cfg(1));
        let two = MultiDimOrganization::build(&bench.lake, &cfg(2));
        let e1 = one.effectiveness(&bench.lake);
        let e2 = two.effectiveness(&bench.lake);
        assert!(
            e2 > e1 * 0.9,
            "2-dim ({e2}) should be at least comparable to 1-dim ({e1})"
        );
    }

    #[test]
    fn dim_stats_order_and_totals() {
        let bench = TagCloudConfig::small().generate();
        let m = MultiDimOrganization::build(&bench.lake, &cfg(3));
        let stats = m.dim_stats();
        // Descending tag counts (Table 1 presentation).
        for w in stats.windows(2) {
            assert!(w[0].n_tags >= w[1].n_tags);
        }
        // Tags partition exactly; attributes may repeat across dims only if
        // multi-tagged (TagCloud attrs have one tag → exact partition too).
        let total_tags: usize = stats.iter().map(|s| s.n_tags).sum();
        assert_eq!(total_tags, bench.lake.n_tags());
        let total_attrs: usize = stats.iter().map(|s| s.n_attrs).sum();
        assert_eq!(total_attrs, bench.lake.n_attrs());
    }

    #[test]
    fn sequential_matches_parallel_dims() {
        let bench = TagCloudConfig::small().generate();
        let c = cfg(3);
        let run = |threads| {
            rayon::with_num_threads(threads, || {
                MultiDimOrganization::build(&bench.lake, &c).effectiveness(&bench.lake)
            })
        };
        let (serial, fanned) = (run(1), run(4));
        assert_eq!(
            serial.to_bits(),
            fanned.to_bits(),
            "parallelism must not change results: {serial} vs {fanned}"
        );
    }

    #[test]
    fn single_dim_equals_full_builder() {
        let bench = TagCloudConfig::small().generate();
        let m = MultiDimOrganization::build(&bench.lake, &cfg(1));
        assert_eq!(m.n_dims(), 1);
        assert_eq!(m.dims[0].ctx.n_tags(), bench.lake.n_tags());
    }
}
