//! Index partitioning over a point set — the shared front door for every
//! "split this universe into k topical groups" decision in the system:
//! multi-dimensional organizations (§2.5) partition a lake's tags, and
//! sharded single-dimension construction partitions one dimension's tags
//! across parallel search workers.
//!
//! [`auto_partition_k`] adds the data-driven variant: instead of a fixed
//! `k` it sweeps a candidate ladder, records the k-medoids cost spectrum,
//! and picks the **knee** of the curve — the count where further splitting
//! stops buying cohesion. Sharded construction uses it for
//! `DLN_SHARDS=auto`.

use crate::distance::PairwiseDistance;
use crate::kmedoids::KMedoids;

/// Partition `points` into at most `k` non-empty groups of point indices
/// with k-medoids (k-means++-style seeding, deterministic in `seed` and
/// invariant to the worker count). Groups are returned in medoid-cluster
/// order, indices ascending within each group; fewer than `k` groups come
/// back when clusters collapse. An empty point set yields no groups.
pub fn partition_indices<D: PairwiseDistance>(points: &D, k: usize, seed: u64) -> Vec<Vec<usize>> {
    let n = points.len();
    if n == 0 {
        return Vec::new();
    }
    let k = k.clamp(1, n);
    let km = KMedoids::fit(points, k, seed);
    let mut groups = vec![Vec::new(); k];
    for (i, &c) in km.assignments.iter().enumerate() {
        groups[c].push(i);
    }
    groups.retain(|g| !g.is_empty());
    groups
}

/// Candidate ladder for [`auto_partition_k`]: dense at the small counts
/// where the cost curve bends, sparse above (splitting past ~16 shards has
/// never paid on measured lakes), clamped to `k_max`. Always starts at 1 so
/// the knee can conclude "don't shard".
fn shard_candidates(k_max: usize) -> Vec<usize> {
    [1usize, 2, 3, 4, 6, 8, 12, 16]
        .into_iter()
        .filter(|&k| k <= k_max)
        .collect()
}

/// The k-medoids cost spectrum over candidate group counts, plus the chosen
/// knee. Produced by [`auto_partition_k`]; benches report it verbatim so a
/// BENCH json shows *why* a count was picked.
#[derive(Clone, Debug)]
pub struct ShardSpectrum {
    /// Candidate group counts, ascending, starting at 1.
    pub candidates: Vec<usize>,
    /// Total k-medoids cost (sum of point-to-medoid distances) at each
    /// candidate count.
    pub costs: Vec<f64>,
    /// The chosen count — see [`knee_of`].
    pub knee: usize,
}

/// Pick the knee of a non-increasing cost curve: normalize both axes to the
/// endpoints, then take the interior candidate with the **maximum vertical
/// deviation below the endpoint chord** (the discrete "kneedle" criterion),
/// first index winning ties via strict `>`. Degenerate curves — fewer than
/// three candidates, a flat or non-finite cost range, or no candidate below
/// the chord — answer `1` (don't split). Deterministic: pure arithmetic on
/// the inputs, no RNG, no thread dependence.
pub fn knee_of(candidates: &[usize], costs: &[f64]) -> usize {
    if candidates.len() < 3 || candidates.len() != costs.len() {
        return 1;
    }
    let x0 = candidates[0] as f64;
    let x1 = candidates[candidates.len() - 1] as f64;
    let y0 = costs[0];
    let y1 = costs[costs.len() - 1];
    let y_range = y0 - y1;
    if !y_range.is_finite() || y_range <= 0.0 || x1 <= x0 {
        return 1;
    }
    let mut best = 1usize;
    let mut best_dev = 0.0f64;
    for i in 1..candidates.len() - 1 {
        let t = (candidates[i] as f64 - x0) / (x1 - x0);
        let chord = y0 + t * (y1 - y0);
        let dev = (chord - costs[i]) / y_range;
        if dev > best_dev {
            best_dev = dev;
            best = candidates[i];
        }
    }
    best
}

/// Sweep k-medoids over the `shard_candidates` ladder (clamped to
/// `k_max` and the point count) and return the cost spectrum with its
/// knee. Each fit is deterministic in `seed` and invariant to the worker
/// count, so the chosen count is too. `n ≤ 1` or `k_max ≤ 1` short-circuit
/// to a single-candidate spectrum with knee 1.
pub fn auto_partition_k<D: PairwiseDistance>(points: &D, k_max: usize, seed: u64) -> ShardSpectrum {
    let n = points.len();
    let candidates = shard_candidates(k_max.min(n.max(1)));
    let costs: Vec<f64> = candidates
        .iter()
        .map(|&k| KMedoids::fit(points, k, seed).cost)
        .collect();
    let knee = knee_of(&candidates, &costs);
    ShardSpectrum {
        candidates,
        costs,
        knee,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::CosinePoints;

    fn axis_points() -> Vec<Vec<f32>> {
        // Two tight bundles around orthogonal axes.
        vec![
            vec![1.0, 0.0],
            vec![0.98, 0.199],
            vec![0.0, 1.0],
            vec![0.199, 0.98],
        ]
    }

    #[test]
    fn partitions_cover_all_indices_exactly_once() {
        let pts = axis_points();
        let refs: Vec<&[f32]> = pts.iter().map(|p| p.as_slice()).collect();
        let cp = CosinePoints::new(refs);
        let groups = partition_indices(&cp, 2, 7);
        let mut all: Vec<usize> = groups.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
        assert!(groups.len() <= 2 && !groups.is_empty());
        for g in &groups {
            assert!(g.windows(2).all(|w| w[0] < w[1]), "indices ascend in-group");
        }
    }

    #[test]
    fn k_is_clamped_and_empty_is_empty() {
        let pts = axis_points();
        let refs: Vec<&[f32]> = pts.iter().map(|p| p.as_slice()).collect();
        let cp = CosinePoints::new(refs);
        let groups = partition_indices(&cp, 100, 1);
        let total: usize = groups.iter().map(Vec::len).sum();
        assert_eq!(total, 4);
        let none = CosinePoints::new(Vec::new());
        assert!(partition_indices(&none, 3, 1).is_empty());
    }

    #[test]
    fn deterministic_in_seed() {
        let pts = axis_points();
        let refs: Vec<&[f32]> = pts.iter().map(|p| p.as_slice()).collect();
        let cp = CosinePoints::new(refs);
        assert_eq!(partition_indices(&cp, 2, 5), partition_indices(&cp, 2, 5));
    }

    #[test]
    fn knee_picks_the_elbow() {
        // Sharp elbow at k = 4: steep drop, then flat.
        let cands = [1usize, 2, 3, 4, 6, 8];
        let costs = [100.0f64, 60.0, 30.0, 8.0, 7.0, 6.0];
        assert_eq!(knee_of(&cands, &costs), 4);
    }

    #[test]
    fn knee_degenerate_curves_answer_one() {
        // Flat curve: splitting buys nothing.
        assert_eq!(knee_of(&[1, 2, 4], &[5.0, 5.0, 5.0]), 1);
        // Too few candidates to have an interior point.
        assert_eq!(knee_of(&[1, 2], &[9.0, 1.0]), 1);
        // Convex-up curve (every interior point above the chord).
        assert_eq!(knee_of(&[1, 2, 4, 8], &[10.0, 9.9, 9.5, 0.0]), 1);
        // Non-finite range.
        assert_eq!(knee_of(&[1, 2, 4], &[f64::INFINITY, 1.0, 0.5]), 1);
        assert_eq!(knee_of(&[1, 2, 4], &[f64::NAN, 1.0, 0.5]), 1);
    }

    #[test]
    fn auto_partition_finds_planted_cluster_count() {
        // Three tight orthogonal bundles in R^4 — the cost curve collapses
        // at k = 3 and flattens after, so the knee should say 3.
        let mut pts: Vec<Vec<f32>> = Vec::new();
        let mut state = 0x517Eu64;
        for axis in 0..3usize {
            for _ in 0..12 {
                let mut v = vec![0.0f32; 4];
                v[axis] = 1.0;
                // small deterministic jitter on the next axis
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let eps = ((state >> 11) as f64 / (1u64 << 53) as f64) as f32 * 0.1;
                v[(axis + 1) % 4] = eps;
                let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
                v.iter_mut().for_each(|x| *x /= norm);
                pts.push(v);
            }
        }
        let refs: Vec<&[f32]> = pts.iter().map(|p| p.as_slice()).collect();
        let cp = CosinePoints::new(refs);
        let spec = auto_partition_k(&cp, 16, 42);
        assert_eq!(spec.candidates[0], 1);
        assert_eq!(spec.candidates.len(), spec.costs.len());
        assert_eq!(spec.knee, 3, "spectrum: {:?}", spec);
        // Invariant to worker count.
        for t in [2usize, 4] {
            rayon::set_num_threads(t);
            let again = auto_partition_k(&cp, 16, 42);
            rayon::set_num_threads(0);
            assert_eq!(again.knee, spec.knee);
            assert!(again
                .costs
                .iter()
                .zip(&spec.costs)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }
}
