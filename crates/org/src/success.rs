//! The success-probability evaluation measure (§4.2).
//!
//! The paper's experiments simulate a user who has a table in mind and
//! navigates toward states closest to its attributes. A navigation is
//! *successful* if it finds an attribute of the table **or a sufficiently
//! similar attribute**:
//!
//! ```text
//! Success(A|O) = 1 − Π over {Aᵢ : κ(Aᵢ, A) ≥ θ} of (1 − P(Aᵢ|O))
//! Success(T|O) = 1 − Π over {A ∈ T}            of (1 − Success(A|O))
//! ```
//!
//! with κ the cosine similarity of attribute topic vectors and θ = 0.9.
//! Figure 2 reports `Success(T|O)` for every table, sorted ascending.

use dln_embed::dot;
use dln_lake::{AttrId, DataLake, TableId};

/// Default similarity threshold used by the paper (§4.2).
pub const DEFAULT_THETA: f32 = 0.9;

/// For each attribute, the attributes whose topic-vector cosine similarity
/// is at least `theta` (always includes the attribute itself when it has a
/// topic vector). Brute-force all-pairs, one parallel item per attribute.
pub fn similar_sets(lake: &DataLake, theta: f32) -> Vec<Vec<AttrId>> {
    rayon::par_map(lake.n_attrs(), |i| {
        let a = lake.attr(AttrId(i as u32));
        if !a.has_topic() {
            return Vec::new(); // zero vector is similar to nothing
        }
        lake.attr_ids()
            .filter(|&b| {
                let b = lake.attr(b);
                b.has_topic() && dot(&a.unit_topic, &b.unit_topic) >= theta
            })
            .collect()
    })
}

/// The sorted per-table success curve of Figure 2.
#[derive(Clone, Debug)]
pub struct SuccessCurve {
    /// `(table, Success(T|O))`, sorted by ascending success probability —
    /// the x-axis order of Figure 2.
    pub per_table: Vec<(TableId, f64)>,
    /// Mean success probability over all tables.
    pub mean: f64,
    /// The θ threshold used.
    pub theta: f32,
}

impl SuccessCurve {
    /// The success values only, in curve (ascending) order.
    pub fn values(&self) -> Vec<f64> {
        self.per_table.iter().map(|(_, v)| *v).collect()
    }
}

/// Per-attribute success probabilities given per-attribute discovery
/// probabilities (`attr_disc[global attr] = P(A|O)`, 0.0 for attributes the
/// organization cannot reach).
fn attr_success(lake: &DataLake, attr_disc: &[f64], theta: f32) -> Vec<f64> {
    assert_eq!(attr_disc.len(), lake.n_attrs(), "one prob per attribute");
    let sets = similar_sets(lake, theta);
    sets.iter()
        .map(|set| {
            let miss: f64 = set.iter().map(|b| 1.0 - attr_disc[b.index()]).product();
            1.0 - miss
        })
        .collect()
}

/// Compute the Figure 2 success curve over every table of the lake.
pub fn success_curve(lake: &DataLake, attr_disc: &[f64], theta: f32) -> SuccessCurve {
    let a_succ = attr_success(lake, attr_disc, theta);
    let mut per_table: Vec<(TableId, f64)> = lake
        .table_ids()
        .map(|t| {
            let miss: f64 = lake
                .table(t)
                .attrs
                .iter()
                .map(|a| 1.0 - a_succ[a.index()])
                .product();
            (t, 1.0 - miss)
        })
        .collect();
    per_table.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    let mean = if per_table.is_empty() {
        0.0
    } else {
        per_table.iter().map(|(_, v)| v).sum::<f64>() / per_table.len() as f64
    };
    SuccessCurve {
        per_table,
        mean,
        theta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dln_synth::TagCloudConfig;

    fn lake() -> DataLake {
        TagCloudConfig::small().generate().lake
    }

    impl SuccessCurve {
        /// Number of tables with success below `cut`.
        fn n_below(&self, cut: f64) -> usize {
            self.per_table.iter().filter(|(_, v)| *v < cut).count()
        }
    }

    #[test]
    fn similar_sets_include_self() {
        let lake = lake();
        let sets = similar_sets(&lake, 0.9);
        for a in lake.attr_ids() {
            assert!(
                sets[a.index()].contains(&a),
                "attr {a:?} must be similar to itself"
            );
        }
    }

    #[test]
    fn similar_sets_mostly_same_tag() {
        // In TagCloud, attributes of the same tag share their top-k domain
        // prefix, so θ-similar attributes should mostly share the tag.
        let bench = TagCloudConfig::small().generate();
        let lake = &bench.lake;
        let sets = similar_sets(lake, 0.9);
        let mut same = 0usize;
        let mut total = 0usize;
        for a in lake.attr_ids() {
            for &b in &sets[a.index()] {
                total += 1;
                if bench.true_tag[a.index()] == bench.true_tag[b.index()] {
                    same += 1;
                }
            }
        }
        assert!(
            same as f64 / total as f64 > 0.9,
            "θ=0.9 neighbours should share tags ({same}/{total})"
        );
    }

    #[test]
    fn success_exceeds_discovery() {
        // Success composes over similar attributes, so it dominates the
        // single-attribute discovery probability.
        let lake = lake();
        let disc: Vec<f64> = (0..lake.n_attrs()).map(|i| (i % 7) as f64 * 0.01).collect();
        let succ = attr_success(&lake, &disc, 0.9);
        for a in lake.attr_ids() {
            assert!(succ[a.index()] >= disc[a.index()] - 1e-12);
            assert!((0.0..=1.0).contains(&succ[a.index()]));
        }
    }

    #[test]
    fn curve_is_sorted_and_mean_consistent() {
        let lake = lake();
        let disc: Vec<f64> = (0..lake.n_attrs())
            .map(|i| (i % 11) as f64 * 0.02)
            .collect();
        let curve = success_curve(&lake, &disc, 0.9);
        assert_eq!(curve.per_table.len(), lake.n_tables());
        for w in curve.per_table.windows(2) {
            assert!(w[0].1 <= w[1].1, "curve must ascend");
        }
        let mean: f64 =
            curve.per_table.iter().map(|(_, v)| v).sum::<f64>() / lake.n_tables() as f64;
        assert!((curve.mean - mean).abs() < 1e-12);
    }

    #[test]
    fn zero_discovery_gives_zero_success() {
        let lake = lake();
        let disc = vec![0.0; lake.n_attrs()];
        let curve = success_curve(&lake, &disc, 0.9);
        assert!(curve.mean.abs() < 1e-12);
        assert_eq!(curve.n_below(0.5), lake.n_tables());
    }

    #[test]
    fn full_discovery_gives_full_success() {
        let lake = lake();
        let disc = vec![1.0; lake.n_attrs()];
        let curve = success_curve(&lake, &disc, 0.9);
        assert!((curve.mean - 1.0).abs() < 1e-12);
        assert_eq!(curve.n_below(0.5), 0);
    }

    #[test]
    fn theta_one_tightens_sets() {
        let lake = lake();
        let loose = similar_sets(&lake, 0.5);
        let tight = similar_sets(&lake, 0.999);
        let nl: usize = loose.iter().map(Vec::len).sum();
        let nt: usize = tight.iter().map(Vec::len).sum();
        assert!(nt <= nl);
    }

    #[test]
    fn values_accessor_matches_curve() {
        let lake = lake();
        let disc = vec![0.1; lake.n_attrs()];
        let curve = success_curve(&lake, &disc, 0.9);
        assert_eq!(curve.values().len(), lake.n_tables());
    }
}
