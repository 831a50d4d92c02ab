//! k-medoids clustering (Voronoi iteration / "alternating" algorithm).
//!
//! Used in two places by the organization system, matching the paper:
//!
//! * partitioning the tags of a lake into the `k` dimensions of a
//!   multi-dimensional organization (§2.5: "we clustered the tags into N
//!   clusters (using n-medoids)"; §4.3.4: "partitioning its tags into ten
//!   groups using k-medoids clustering \[23\]");
//! * selecting the attribute *representatives* for approximate evaluation
//!   (§3.4: a one-to-one mapping between representatives and a partitioning
//!   of attributes — the medoid of each partition is its representative).
//!
//! Seeding is k-means++-style (first medoid uniform, subsequent medoids
//! with probability proportional to squared distance to the nearest chosen
//! medoid), followed by alternating medoid-update / reassignment steps
//! until no medoid moves, the cost stops falling, or `max_iter` is hit.
//!
//! The result is defined by the plain Voronoi iteration: every point is
//! owned by the **first** medoid (in cluster order) at its minimum
//! distance, every cluster's medoid is re-chosen every iteration, and the
//! cost is the `f64` sum of the owners' distances in point order. The fit
//! does less work than that definition and returns the same bits:
//!
//! * **Seeding yields the first assignment.** k-means++ visits the medoids
//!   in index order and keeps each point's running minimum with a strict
//!   `<`, which is exactly the first-index strict-min scan of an
//!   assignment pass. Seeding therefore records the owning cluster next
//!   to the distance, and no assignment pass follows it.
//! * **Incremental reassignment.** After a medoid update only the moved
//!   medoids (set `C`) have new distances. A point whose own medoid did
//!   not move keeps its `(distance, cluster)` pair unless a moved medoid
//!   beats it in lexicographic `(distance, cluster index)` order; that
//!   order is the first-index strict-min rule, because the unmoved
//!   clusters' pairs were already no better than the incumbent. A point
//!   whose own medoid moved is rescanned against all `k` medoids. Each
//!   point keeps its `f32` best distance, so the cost is re-summed in
//!   point order from the same values a full pass would produce.
//! * **Dirty-only medoid update.** A cluster's new medoid is a function of
//!   its ordered member list alone (the incumbent only matters when no
//!   member has a finite distance sum, and then the update keeps it), so
//!   updating twice on the same members is a no-op. A cluster no point
//!   entered or left in the last reassignment is skipped.
//!
//! The algorithm is **matrix-free**: seeding sweeps every point against
//! each new medoid in one [`PairwiseDistance::dist_block`] pass, and
//! reassignment and the medoid update stream `ASSIGN_BLOCK`-point
//! strips against the medoids or members they compare (scratch is
//! `strip × k` or `strip × group`, never `n × n`), on top of `O(n)`
//! per-point state. Every block distance is bit-identical to the
//! corresponding one-pair `dist` call, so results do not depend on the
//! strip size or the thread count. A test-only reference keeps the plain
//! iteration (full assignment every step, every cluster updated, one
//! `dist` call at a time) and the tie-heavy oracle test compares the two
//! bit for bit.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::distance::PairwiseDistance;

/// Minimum number of distance evaluations in a reassignment / medoid-update
/// step before it fans out over the worker pool — below this the scoped
/// spawn overhead outweighs the arithmetic. Results are identical either
/// way: per-point work is independent, and every reduction (the cost sum,
/// the per-cluster argmin) is folded serially in fixed index order.
const PAR_MIN_DIST_EVALS: usize = 1 << 14;

/// Points per [`PairwiseDistance::dist_block`] strip in the reassignment
/// and medoid-update scans. The strips keep k-medoids **matrix-free** — at
/// no point is more than `ASSIGN_BLOCK` rows of distances (to the medoids,
/// or to one cluster's members) materialized, never the gigabytes an
/// `n × n` matrix would take at 50k points — while routing every
/// evaluation through the tiled gram kernel. Every distance is
/// bit-identical to the corresponding `dist` call, so the strip size is
/// invisible in results.
const ASSIGN_BLOCK: usize = 64;

/// Result of a k-medoids run.
#[derive(Clone, Debug)]
pub struct KMedoids {
    /// Cluster index in `0..k` for every point.
    pub assignments: Vec<usize>,
    /// Point index of each cluster's medoid.
    pub medoids: Vec<usize>,
    /// Total cost: sum over points of distance to their medoid.
    pub cost: f64,
    /// Number of alternating iterations executed.
    pub iterations: usize,
}

impl KMedoids {
    /// Cluster `points` into `k` groups. Deterministic in `seed`.
    ///
    /// `k` is clamped to `1..=n`; for `n == 0` an empty result is returned.
    pub fn fit<D: PairwiseDistance>(points: &D, k: usize, seed: u64) -> KMedoids {
        Self::fit_with(points, k, seed, 100)
    }

    /// As [`fit`](Self::fit) with an explicit iteration cap.
    pub fn fit_with<D: PairwiseDistance>(
        points: &D,
        k: usize,
        seed: u64,
        max_iter: usize,
    ) -> KMedoids {
        let n = points.len();
        if n == 0 {
            return KMedoids {
                assignments: Vec::new(),
                medoids: Vec::new(),
                cost: 0.0,
                iterations: 0,
            };
        }
        let k = k.clamp(1, n);
        let mut rng = StdRng::seed_from_u64(seed);
        // `nearest[p]` is the distance from p to its owner `assignments[p]`.
        let (mut medoids, mut assignments, mut nearest) = seed_plus_plus(points, k, &mut rng);
        let mut cost = ordered_sum(&nearest);
        // Every cluster is dirty until its medoid has been updated once.
        let mut dirty = vec![true; k];
        let mut iterations = 0usize;
        while iterations < max_iter {
            iterations += 1;
            // Medoid update: within each cluster whose members changed, the
            // point minimizing the sum of distances to the cluster members.
            let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
            for (p, &c) in assignments.iter().enumerate() {
                if dirty[c] {
                    members[c].push(p);
                }
            }
            let mut moved = Vec::new();
            for (c, group) in members.iter().enumerate() {
                if group.is_empty() {
                    continue;
                }
                let best = update_medoid(points, group, medoids[c]);
                if best != medoids[c] {
                    medoids[c] = best;
                    moved.push(c);
                }
            }
            if moved.is_empty() {
                break;
            }
            dirty = reassign(points, &medoids, &moved, &mut assignments, &mut nearest);
            let new_cost = ordered_sum(&nearest);
            if new_cost >= cost {
                cost = new_cost;
                break;
            }
            cost = new_cost;
        }
        KMedoids {
            assignments,
            medoids,
            cost,
            iterations,
        }
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.medoids.len()
    }

    /// Members of each cluster.
    pub fn clusters(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.k()];
        for (p, &c) in self.assignments.iter().enumerate() {
            groups[c].push(p);
        }
        groups
    }
}

/// The `f64` sum of `ds` in order — the assignment cost over the owners'
/// distances, and a candidate medoid's cost over its cluster row.
fn ordered_sum(ds: &[f32]) -> f64 {
    let mut sum = 0.0f64;
    for &d in ds {
        sum += d as f64;
    }
    sum
}

/// k-means++-style seeding over an arbitrary metric. Returns the medoids
/// and, for every point, its owning cluster and the distance to it — the
/// first-index strict-min assignment, built by the running minimum.
///
/// Each new medoid costs one [`PairwiseDistance::dist_block`] pass over
/// all points (an `n × 1` block, bit-identical to per-point `dist`); the
/// weighted draw and the running-minimum update walk points in ascending
/// order, so the medoids are those of one `dist` call at a time.
fn seed_plus_plus<D: PairwiseDistance>(
    points: &D,
    k: usize,
    rng: &mut StdRng,
) -> (Vec<usize>, Vec<usize>, Vec<f32>) {
    let n = points.len();
    let ids: Vec<usize> = (0..n).collect();
    let mut medoids = Vec::with_capacity(k);
    medoids.push(rng.random_range(0..n));
    let mut nearest = vec![0.0f32; n];
    points.dist_block(&ids, &medoids, &mut nearest);
    let mut owner = vec![0usize; n];
    let mut fresh = vec![0.0f32; n];
    while medoids.len() < k {
        let total: f64 = nearest.iter().map(|d| (*d as f64) * (*d as f64)).sum();
        let next = if total <= f64::EPSILON {
            // All points coincide with a medoid; pick any non-medoid.
            (0..n).find(|p| !medoids.contains(p)).unwrap_or(0)
        } else {
            let mut target = rng.random_range(0.0..total);
            let mut chosen = n - 1;
            for (p, d) in nearest.iter().enumerate() {
                let w = (*d as f64) * (*d as f64);
                if target < w {
                    chosen = p;
                    break;
                }
                target -= w;
            }
            chosen
        };
        let c = medoids.len();
        medoids.push(next);
        points.dist_block(&ids, &[next], &mut fresh);
        for ((slot, own), &d) in nearest.iter_mut().zip(&mut owner).zip(&fresh) {
            if d < *slot {
                *slot = d;
                *own = c;
            }
        }
    }
    (medoids, owner, nearest)
}

/// New medoid of one cluster: the first member (in group order) with the
/// strictly smallest sum of distances to every member, or the incumbent
/// when no sum is below infinity.
///
/// Every candidate's full sum is its [`scan_rows`] row added as `f64` in
/// group order, and the first strict minimum is picked serially. A scan
/// that stops a candidate once its partial sum reaches the incumbent's
/// (the test reference) picks the same member, since distances are
/// non-negative.
fn update_medoid<D: PairwiseDistance>(points: &D, group: &[usize], incumbent: usize) -> usize {
    let sums = scan_rows(points, group, group, ordered_sum);
    let mut best = incumbent;
    let mut best_cost = f64::INFINITY;
    for (&cand, &s) in group.iter().zip(&sums) {
        if s < best_cost {
            best_cost = s;
            best = cand;
        }
    }
    best
}

/// `per_row` applied to each row's distances to `cols`, in row order.
///
/// Rows are processed in [`ASSIGN_BLOCK`]-point strips, one
/// [`PairwiseDistance::dist_block`] rectangle (`strip × cols`, tiled
/// kernel) each. Strips are independent, so they fan out over the worker
/// pool when the work warrants it and are concatenated in row order,
/// making the result identical at any thread or strip count.
fn scan_rows<D: PairwiseDistance, T: Send>(
    points: &D,
    rows: &[usize],
    cols: &[usize],
    per_row: impl Fn(&[f32]) -> T + Sync,
) -> Vec<T> {
    let nc = cols.len();
    let strip = |s: usize, scratch: &mut Vec<f32>| -> Vec<T> {
        let span = &rows[s * ASSIGN_BLOCK..((s + 1) * ASSIGN_BLOCK).min(rows.len())];
        scratch.clear();
        scratch.resize(span.len() * nc, 0.0);
        points.dist_block(span, cols, scratch);
        scratch.chunks_exact(nc).map(&per_row).collect()
    };
    let n_strips = rows.len().div_ceil(ASSIGN_BLOCK);
    // Gate on the work first: asking for the thread count reads the
    // environment and, unless overridden, the host's CPU quota.
    if rows.len().saturating_mul(nc) >= PAR_MIN_DIST_EVALS && rayon::current_num_threads() > 1 {
        rayon::par_map(n_strips, |s| strip(s, &mut Vec::new()))
            .into_iter()
            .flatten()
            .collect()
    } else {
        let mut scratch = Vec::new();
        (0..n_strips).flat_map(|s| strip(s, &mut scratch)).collect()
    }
}

/// First-index strict minimum of one row of distances, with its value.
fn first_min(ds: &[f32]) -> (usize, f32) {
    let mut best = 0usize;
    let mut best_d = f32::INFINITY;
    for (c, &d) in ds.iter().enumerate() {
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    (best, best_d)
}

/// Reassign points after the clusters in `moved` (ascending) changed
/// medoid, updating `assignments` and `nearest` to exactly what a full
/// first-index strict-min pass over `medoids` would give. Returns the
/// clusters whose membership changed.
///
/// A point owned by a moved cluster is rescanned against every medoid. Any
/// other point's incumbent `(nearest, owner)` pair is already the
/// lexicographic minimum over the unmoved clusters, so it is compared only
/// against the moved medoids: a moved cluster `c` at distance `d` takes
/// the point when `(d, c) < (nearest, owner)`.
fn reassign<D: PairwiseDistance>(
    points: &D,
    medoids: &[usize],
    moved: &[usize],
    assignments: &mut [usize],
    nearest: &mut [f32],
) -> Vec<bool> {
    let k = medoids.len();
    let mut was_moved = vec![false; k];
    for &c in moved {
        was_moved[c] = true;
    }
    let (rescan, kept): (Vec<usize>, Vec<usize>) =
        (0..assignments.len()).partition(|&p| was_moved[assignments[p]]);
    let moved_medoids: Vec<usize> = moved.iter().map(|&c| medoids[c]).collect();
    let full = scan_rows(points, &rescan, medoids, first_min);
    let partial = scan_rows(points, &kept, &moved_medoids, first_min);
    let mut dirty = vec![false; k];
    let winners = rescan.iter().zip(full).chain(
        kept.iter()
            .zip(partial)
            .map(|(p, (j, d))| (p, (moved[j], d))),
    );
    for (&p, (c, d)) in winners {
        let old = assignments[p];
        if was_moved[old] || d < nearest[p] || (d == nearest[p] && c < old) {
            if c != old {
                dirty[old] = true;
                dirty[c] = true;
                assignments[p] = c;
            }
            nearest[p] = d;
        }
    }
    dirty
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{CosinePoints, MatrixDistance};

    fn two_blobs() -> MatrixDistance {
        // points 0..3 near origin, 3..6 near 100
        let coords = [0.0f32, 1.0, 2.0, 100.0, 101.0, 102.0];
        let n = coords.len();
        let mut d = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                d[i * n + j] = (coords[i] - coords[j]).abs();
            }
        }
        MatrixDistance::new(n, d)
    }

    #[test]
    fn separates_two_blobs() {
        let km = KMedoids::fit(&two_blobs(), 2, 42);
        assert_eq!(km.k(), 2);
        assert_eq!(km.assignments[0], km.assignments[1]);
        assert_eq!(km.assignments[1], km.assignments[2]);
        assert_eq!(km.assignments[3], km.assignments[4]);
        assert_eq!(km.assignments[4], km.assignments[5]);
        assert_ne!(km.assignments[0], km.assignments[3]);
        // Medoids are the blob centres (points 1 and 4).
        let mut ms = km.medoids.clone();
        ms.sort_unstable();
        assert_eq!(ms, vec![1, 4]);
        assert!((km.cost - 4.0).abs() < 1e-6);
    }

    #[test]
    fn medoids_are_members_of_their_cluster() {
        let km = KMedoids::fit(&two_blobs(), 2, 7);
        for (c, &m) in km.medoids.iter().enumerate() {
            assert_eq!(km.assignments[m], c);
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = KMedoids::fit(&two_blobs(), 2, 5);
        let b = KMedoids::fit(&two_blobs(), 2, 5);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.medoids, b.medoids);
    }

    #[test]
    fn k_one_selects_global_medoid() {
        let km = KMedoids::fit(&two_blobs(), 1, 3);
        assert_eq!(km.k(), 1);
        assert!(km.assignments.iter().all(|&c| c == 0));
    }

    #[test]
    fn k_clamped_to_n() {
        let km = KMedoids::fit(&two_blobs(), 100, 3);
        assert_eq!(km.k(), 6);
        assert!(km.cost.abs() < 1e-9, "every point is its own medoid");
    }

    #[test]
    fn empty_input() {
        let zero = MatrixDistance::new(0, vec![]);
        let km = KMedoids::fit(&zero, 3, 1);
        assert!(km.assignments.is_empty());
        assert!(km.medoids.is_empty());
    }

    #[test]
    fn clusters_accessor_partitions_points() {
        let km = KMedoids::fit(&two_blobs(), 2, 11);
        let cs = km.clusters();
        let total: usize = cs.iter().map(Vec::len).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn cosine_blobs() {
        let pts: Vec<Vec<f32>> = vec![
            vec![1.0, 0.0],
            vec![0.995, 0.0998],
            vec![0.0, 1.0],
            vec![0.0998, 0.995],
        ];
        let refs: Vec<&[f32]> = pts.iter().map(|p| p.as_slice()).collect();
        let cp = CosinePoints::new(refs);
        let km = KMedoids::fit(&cp, 2, 19);
        assert_eq!(km.assignments[0], km.assignments[1]);
        assert_eq!(km.assignments[2], km.assignments[3]);
        assert_ne!(km.assignments[0], km.assignments[2]);
    }

    #[test]
    fn identical_points_do_not_loop_forever() {
        let d = MatrixDistance::new(4, vec![0.0; 16]);
        let km = KMedoids::fit(&d, 2, 1);
        assert_eq!(km.k(), 2);
        assert!(km.cost.abs() < 1e-12);
    }

    /// Reference fit: the plain Voronoi iteration the fast path must
    /// reproduce — k-means++ seeding, then a full assignment pass after
    /// every medoid update, with every non-empty cluster updated every
    /// iteration. Distances come one `dist` call at a time.
    fn reference_fit<D: PairwiseDistance>(
        points: &D,
        k: usize,
        seed: u64,
        max_iter: usize,
    ) -> KMedoids {
        let n = points.len();
        if n == 0 {
            return KMedoids {
                assignments: Vec::new(),
                medoids: Vec::new(),
                cost: 0.0,
                iterations: 0,
            };
        }
        let k = k.clamp(1, n);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut medoids = reference_seed(points, k, &mut rng);
        let mut assignments = vec![0usize; n];
        let mut iterations = 0usize;
        let mut cost = reference_assign(points, &medoids, &mut assignments);
        while iterations < max_iter {
            iterations += 1;
            let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
            for (p, &c) in assignments.iter().enumerate() {
                members[c].push(p);
            }
            let mut changed = false;
            for (c, group) in members.iter().enumerate() {
                if group.is_empty() {
                    continue;
                }
                let best = reference_update_medoid(points, group, medoids[c]);
                if best != medoids[c] {
                    medoids[c] = best;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            let new_cost = reference_assign(points, &medoids, &mut assignments);
            if new_cost >= cost {
                cost = new_cost;
                break;
            }
            cost = new_cost;
        }
        KMedoids {
            assignments,
            medoids,
            cost,
            iterations,
        }
    }

    /// k-means++ seeding returning only the medoids.
    fn reference_seed<D: PairwiseDistance>(points: &D, k: usize, rng: &mut StdRng) -> Vec<usize> {
        let n = points.len();
        let mut medoids = Vec::with_capacity(k);
        medoids.push(rng.random_range(0..n));
        let mut nearest: Vec<f32> = (0..n).map(|p| points.dist(p, medoids[0])).collect();
        while medoids.len() < k {
            let total: f64 = nearest.iter().map(|d| (*d as f64) * (*d as f64)).sum();
            let next = if total <= f64::EPSILON {
                (0..n).find(|p| !medoids.contains(p)).unwrap_or(0)
            } else {
                let mut target = rng.random_range(0.0..total);
                let mut chosen = n - 1;
                for (p, d) in nearest.iter().enumerate() {
                    let w = (*d as f64) * (*d as f64);
                    if target < w {
                        chosen = p;
                        break;
                    }
                    target -= w;
                }
                chosen
            };
            medoids.push(next);
            for (p, slot) in nearest.iter_mut().enumerate() {
                let d = points.dist(p, next);
                if d < *slot {
                    *slot = d;
                }
            }
        }
        medoids
    }

    /// The first member minimizing its distance sum over the group, with a
    /// partial sum that stops once it reaches the incumbent's.
    fn reference_update_medoid<D: PairwiseDistance>(
        points: &D,
        group: &[usize],
        incumbent: usize,
    ) -> usize {
        let mut best = incumbent;
        let mut best_cost = f64::INFINITY;
        for &cand in group {
            let mut s = 0.0f64;
            for &m in group {
                s += points.dist(cand, m) as f64;
                if s >= best_cost {
                    break;
                }
            }
            if s < best_cost {
                best_cost = s;
                best = cand;
            }
        }
        best
    }

    /// Full first-index strict-min assignment; returns the point-order cost.
    fn reference_assign<D: PairwiseDistance>(
        points: &D,
        medoids: &[usize],
        out: &mut [usize],
    ) -> f64 {
        let mut cost = 0.0f64;
        for (p, slot) in out.iter_mut().enumerate() {
            let mut best = 0usize;
            let mut best_d = f32::INFINITY;
            for (c, &m) in medoids.iter().enumerate() {
                let d = points.dist(p, m);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            *slot = best;
            cost += best_d as f64;
        }
        cost
    }

    fn assert_same_fit(got: &KMedoids, want: &KMedoids, what: &str) {
        assert_eq!(got.medoids, want.medoids, "medoids: {what}");
        assert_eq!(got.assignments, want.assignments, "assignments: {what}");
        assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "cost: {what}");
        assert_eq!(got.iterations, want.iterations, "iterations: {what}");
    }

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    fn unit_points(n: usize, dim: usize, mut state: u64) -> Vec<Vec<f32>> {
        (0..n)
            .map(|_| {
                let mut v: Vec<f32> = (0..dim)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        ((state >> 11) as f64 / (1u64 << 53) as f64) as f32 - 0.5
                    })
                    .collect();
                let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-12);
                v.iter_mut().for_each(|x| *x /= norm);
                v
            })
            .collect()
    }

    #[test]
    fn blocked_scan_matches_per_pair_assignment_bitwise() {
        // The strip/dist_block scan must not change a single bit: compare
        // against the one-dist-per-pair scan on a point count that
        // straddles ASSIGN_BLOCK (67 = 64 + 3 ragged rows).
        let pts = unit_points(67, 21, 0x0A551);
        let refs: Vec<&[f32]> = pts.iter().map(|p| p.as_slice()).collect();
        let cp = CosinePoints::new(refs);
        let n = cp.len();
        let medoids = vec![3usize, 17, 40, 41, 66];
        let ids: Vec<usize> = (0..n).collect();
        let got = scan_rows(&cp, &ids, &medoids, first_min);
        let mut want = vec![0usize; n];
        let want_cost = reference_assign(&cp, &medoids, &mut want);
        let owners: Vec<usize> = got.iter().map(|&(c, _)| c).collect();
        let dists: Vec<f32> = got.iter().map(|&(_, d)| d).collect();
        assert_eq!(owners, want);
        assert_eq!(ordered_sum(&dists).to_bits(), want_cost.to_bits());
    }

    #[test]
    fn fit_matches_full_voronoi_reference_under_ties() {
        // Points sit on a few sites (so many are duplicates, at distance
        // zero) and distinct sites are 1, 2 or 3 apart, so exact ties are
        // everywhere: a moved medoid often lands at exactly the incumbent
        // distance of a point owned by a later cluster. The
        // (distance, cluster index) rule of the incremental reassignment
        // and the dirty-only update must reproduce the full iteration bit
        // for bit. k = n drives seeding into its all-coincide branch.
        for seed in 0..240u64 {
            let mut state = seed ^ 0x7135;
            let n = 20 + (lcg(&mut state) % 60) as usize;
            let sites = 3 + (lcg(&mut state) % 12) as usize;
            let mut site_d = vec![0.0f32; sites * sites];
            for a in 0..sites {
                for b in a + 1..sites {
                    let v = 1.0 + (lcg(&mut state) % 3) as f32;
                    site_d[a * sites + b] = v;
                    site_d[b * sites + a] = v;
                }
            }
            let site: Vec<usize> = (0..n)
                .map(|_| (lcg(&mut state) % sites as u64) as usize)
                .collect();
            let mut d = vec![0.0f32; n * n];
            for i in 0..n {
                for j in 0..n {
                    d[i * n + j] = site_d[site[i] * sites + site[j]];
                }
            }
            let m = MatrixDistance::new(n, d);
            for k in [2usize, 5, 17, n] {
                for max_iter in [100usize, 2] {
                    let what = format!("seed={seed} n={n} k={k} max_iter={max_iter}");
                    let got = KMedoids::fit_with(&m, k, seed, max_iter);
                    let want = reference_fit(&m, k, seed, max_iter);
                    assert_same_fit(&got, &want, &what);
                }
            }
        }
    }

    #[test]
    fn fit_matches_full_voronoi_reference_on_tiled_cosine_points() {
        // Larger cosine sets push seeding and reassignment through the
        // tiled dist_block kernel (and the strip fan-out); the reference
        // evaluates one dist at a time.
        for seed in 0..6u64 {
            let pts = unit_points(300, 32, 0xC05 ^ seed);
            let refs: Vec<&[f32]> = pts.iter().map(|p| p.as_slice()).collect();
            let cp = CosinePoints::new(refs);
            for k in [4usize, 30, 97] {
                let got = KMedoids::fit(&cp, k, seed);
                let want = reference_fit(&cp, k, seed, 100);
                assert_same_fit(&got, &want, &format!("seed={seed} k={k}"));
            }
        }
    }

    #[test]
    fn results_identical_across_thread_counts() {
        // Sized so k = 3 pushes the medoid update over the parallel gate
        // (group² ≳ 2^14) and k = 40 pushes the assignment step over it
        // (n·k ≳ 2^14); both must match the single-thread run exactly.
        let mut state = 0xBEEFu64;
        let coords: Vec<f32> = (0..600)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) as f32 * 50.0
            })
            .collect();
        let n = coords.len();
        let mut d = vec![0.0f32; n * n];
        for i in 0..n {
            for j in 0..n {
                d[i * n + j] = (coords[i] - coords[j]).abs();
            }
        }
        let m = MatrixDistance::new(n, d);
        for k in [3usize, 40] {
            rayon::set_num_threads(1);
            let serial = KMedoids::fit(&m, k, 9);
            rayon::set_num_threads(0);
            for t in [2usize, 4] {
                rayon::set_num_threads(t);
                let par = KMedoids::fit(&m, k, 9);
                rayon::set_num_threads(0);
                assert_eq!(par.assignments, serial.assignments, "k={k}, t={t}");
                assert_eq!(par.medoids, serial.medoids, "k={k}, t={t}");
                assert_eq!(par.cost.to_bits(), serial.cost.to_bits(), "k={k}, t={t}");
                assert_eq!(par.iterations, serial.iterations, "k={k}, t={t}");
            }
        }
    }
}
