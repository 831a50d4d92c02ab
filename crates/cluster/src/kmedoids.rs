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
//! * **Bound pruning.** When the distance declares a
//!   [`ChordBound`] (cosine points on the unit
//!   sphere do), seeding and reassignment skip every distance the triangle
//!   inequality proves cannot change a point's `(distance, owner)` pair:
//!   medoid `m` cannot take point `p` from its owner's medoid `o` when
//!   `dist(o, m) > 4·dist(p, o) + 5τ`, which makes `dist(p, m)` *strictly*
//!   larger, so neither the minimum nor a first-index tie can pick `m`.
//!   Points are scanned cluster by cluster, and a whole cluster is skipped
//!   when `dist(o, m)` exceeds the largest of its members' thresholds. An
//!   uncovered point or medoid (off the unit sphere, say a zero topic) is
//!   never pruned and never a pivot. Without a bound nothing is skipped.
//!
//! The algorithm is **matrix-free**: seeding sweeps the points it cannot
//! prune against each new medoid in one [`PairwiseDistance::dist_block`]
//! pass, reassignment sweeps each cluster's members against the medoids it
//! cannot prune one medoid at a time, and the medoid update streams
//! `ASSIGN_BLOCK`-point strips against the members it compares (scratch
//! is `strip × group`, never `n × n`), on top of `O(n)` per-point state
//! and one `moved × k` block of medoid-to-medoid pivots. Every block
//! distance is bit-identical to the corresponding one-pair `dist` call, so
//! results do not depend on block shapes, on what was pruned or on the
//! thread count. A test-only reference keeps the plain iteration (full
//! assignment every step, every cluster updated, one `dist` call at a
//! time) and the oracle tests compare the two bit for bit.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::distance::{ChordBound, PairwiseDistance};

/// Minimum number of distance evaluations in a medoid-update step before it
/// fans out over the worker pool — below this the scoped spawn overhead
/// outweighs the arithmetic. Results are identical either way: per-row
/// work is independent, and the per-cluster argmin is folded serially in
/// fixed index order.
const PAR_MIN_DIST_EVALS: usize = 1 << 14;

/// Points per [`PairwiseDistance::dist_block`] strip in the medoid-update
/// scan. The strips keep k-medoids **matrix-free** — at no point is more
/// than `ASSIGN_BLOCK` rows of distances to one cluster's members
/// materialized, never the gigabytes an `n × n` matrix would take at 50k
/// points — while routing every evaluation through the tiled gram kernel. Every distance is
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
        let prune = Prune::new(points.chord_bound());
        // `nearest[p]` is the distance from p to its owner `assignments[p]`.
        let (mut medoids, mut assignments, mut nearest) =
            seed_plus_plus(points, &prune, k, &mut rng);
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
            dirty = reassign(
                points,
                &prune,
                &medoids,
                &moved,
                &mut assignments,
                &mut nearest,
            );
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

/// The bound test of one fit, from the distance's [`ChordBound`]. Without
/// a bound every threshold is infinite and every pivot is `−∞`, so no
/// comparison prunes anything.
struct Prune {
    /// `5τ`.
    five_tau: f64,
    /// Points the bound covers; empty when there is no bound.
    covered: Vec<bool>,
}

impl Prune {
    fn new(bound: Option<ChordBound>) -> Prune {
        let (five_tau, covered) = bound.map_or((0.0, Vec::new()), |b| (5.0 * b.tau, b.covered));
        Prune { five_tau, covered }
    }

    /// Point `p`'s threshold `b(p)` at distance `d` from its owner's medoid
    /// `o`: any medoid `m` with `dist(o, m) > b(p)` is strictly farther
    /// from `p` than `o`. Infinite (never pruned) for an uncovered point.
    #[inline]
    fn bar(&self, p: usize, d: f32) -> f64 {
        if self.covered.get(p).copied().unwrap_or(false) {
            4.0 * f64::from(d) + self.five_tau
        } else {
            f64::INFINITY
        }
    }

    /// `d = dist(o, m)` between two medoids as a pivot distance, or `−∞`
    /// (prunes nothing) unless the bound covers both.
    #[inline]
    fn pivot(&self, o: usize, m: usize, d: f32) -> f64 {
        match (self.covered.get(o), self.covered.get(m)) {
            (Some(true), Some(true)) => f64::from(d),
            _ => f64::NEG_INFINITY,
        }
    }

    /// Whether a pivot distance rules a candidate medoid out for a point
    /// (or a whole cluster) with threshold `bar`. A NaN rules out nothing.
    #[inline]
    fn rules_out(pivot: f64, bar: f64) -> bool {
        pivot > bar
    }

    /// The largest threshold among `members` (their distances in
    /// `nearest`), `−∞` for none.
    fn radius(&self, members: &[usize], nearest: &[f32]) -> f64 {
        members
            .iter()
            .map(|&p| self.bar(p, nearest[p]))
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// k-means++-style seeding over an arbitrary metric. Returns the medoids
/// and, for every point, its owning cluster and the distance to it — the
/// first-index strict-min assignment, built by the running minimum.
///
/// Each new medoid `m` is compared with the earlier medoids (the pivots,
/// one `c × 1` [`PairwiseDistance::dist_block`]), then with the points the
/// bound cannot rule out, cluster by cluster, in one `rows × 1` block; a
/// point's running minimum moves only on a strictly smaller distance, and
/// a pruned point's distance to `m` is strictly larger than its minimum,
/// so skipping it changes nothing. Every block element is bit-identical to
/// its one-pair `dist`, and the weighted draw walks points in ascending
/// order, so the medoids are those of one `dist` call at a time.
fn seed_plus_plus<D: PairwiseDistance>(
    points: &D,
    prune: &Prune,
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
    // Each cluster's members and the largest of their thresholds.
    let mut radius = vec![prune.radius(&ids, &nearest)];
    let mut members = vec![ids];
    let mut pivots = Vec::new();
    let mut rows = Vec::new();
    let mut fresh = Vec::new();
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
        pivots.clear();
        pivots.resize(c, 0.0);
        if !prune.covered.is_empty() {
            points.dist_block(&medoids, &[next], &mut pivots);
        }
        medoids.push(next);
        rows.clear();
        let mut visited = Vec::new();
        for (j, group) in members.iter().enumerate() {
            let pivot = prune.pivot(medoids[j], next, pivots[j]);
            if Prune::rules_out(pivot, radius[j]) {
                continue;
            }
            visited.push(j);
            rows.extend(
                group
                    .iter()
                    .filter(|&&p| !Prune::rules_out(pivot, prune.bar(p, nearest[p]))),
            );
        }
        fresh.clear();
        fresh.resize(rows.len(), 0.0);
        points.dist_block(&rows, &[next], &mut fresh);
        let mut joined = Vec::new();
        for (&p, &d) in rows.iter().zip(&fresh) {
            if d < nearest[p] {
                nearest[p] = d;
                owner[p] = c;
                joined.push(p);
            }
        }
        if !joined.is_empty() {
            for &j in &visited {
                let before = members[j].len();
                members[j].retain(|&p| owner[p] == j);
                if members[j].len() != before {
                    radius[j] = prune.radius(&members[j], &nearest);
                }
            }
        }
        radius.push(prune.radius(&joined, &nearest));
        members.push(joined);
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
    // environment (the host's count is cached after the first call).
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

/// Reassign points after the clusters in `moved` (ascending) changed
/// medoid, updating `assignments` and `nearest` to exactly what a full
/// first-index strict-min pass over `medoids` would give. Returns the
/// clusters whose membership changed.
///
/// Points are taken cluster by cluster, and each starts from an incumbent
/// `(distance, cluster)` pair that the result is the lexicographic minimum
/// of, together with its candidates:
///
/// * a point of a moved cluster starts from its own new medoid, and every
///   other medoid is a candidate (a full rescan);
/// * any other point keeps its incumbent, which is already the minimum
///   over the unmoved clusters, and only the moved medoids are candidates.
///
/// Lexicographic `(distance, cluster index)` order is the first-index
/// strict-min rule. The incumbent's medoid is the pivot of the bound: a
/// candidate it prunes is strictly farther than the incumbent, so it can
/// neither win nor tie. The pivots are one `moved × k` block of medoid
/// distances, evaluated only when the distance has a bound.
fn reassign<D: PairwiseDistance>(
    points: &D,
    prune: &Prune,
    medoids: &[usize],
    moved: &[usize],
    assignments: &mut [usize],
    nearest: &mut [f32],
) -> Vec<bool> {
    let k = medoids.len();
    let mut moved_row = vec![None; k];
    for (i, &c) in moved.iter().enumerate() {
        moved_row[c] = Some(i);
    }
    let mut pivots = Vec::new();
    if !prune.covered.is_empty() {
        let moved_medoids: Vec<usize> = moved.iter().map(|&c| medoids[c]).collect();
        pivots.resize(moved.len() * k, 0.0);
        points.dist_block(&moved_medoids, medoids, &mut pivots);
    }
    // dist(medoid j, medoid c) where at least one of the two moved.
    let pivot = |j: usize, c: usize| -> f64 {
        if pivots.is_empty() {
            return f64::NEG_INFINITY;
        }
        let d = match (moved_row[j], moved_row[c]) {
            (Some(r), _) => pivots[r * k + c],
            (None, Some(r)) => pivots[r * k + j],
            (None, None) => return f64::NEG_INFINITY,
        };
        prune.pivot(medoids[j], medoids[c], d)
    };
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (p, &c) in assignments.iter().enumerate() {
        groups[c].push(p);
    }
    let all: Vec<usize> = (0..k).collect();
    let mut dirty = vec![false; k];
    let (mut best, mut bars, mut buf, mut rows, mut at) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (j, group) in groups.iter().enumerate() {
        if group.is_empty() {
            continue;
        }
        // Each member's incumbent (cluster, distance) and threshold.
        best.clear();
        if moved_row[j].is_some() {
            buf.resize(group.len(), 0.0);
            points.dist_block(group, &[medoids[j]], &mut buf);
            best.extend(buf.iter().map(|&d| (j, d)));
        } else {
            best.extend(group.iter().map(|&p| (j, nearest[p])));
        }
        bars.clear();
        bars.extend(group.iter().zip(&best).map(|(&p, &(_, d))| prune.bar(p, d)));
        let radius = bars.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let candidates: &[usize] = if moved_row[j].is_some() { &all } else { moved };
        for &c in candidates.iter().filter(|&&c| c != j) {
            let pivot = pivot(j, c);
            if Prune::rules_out(pivot, radius) {
                continue;
            }
            rows.clear();
            at.clear();
            for (i, &p) in group.iter().enumerate() {
                if !Prune::rules_out(pivot, bars[i]) {
                    rows.push(p);
                    at.push(i);
                }
            }
            buf.resize(rows.len(), 0.0);
            points.dist_block(&rows, &[medoids[c]], &mut buf);
            for (&i, &d) in at.iter().zip(&buf) {
                let (bc, bd) = best[i];
                if d < bd || (d == bd && c < bc) {
                    best[i] = (c, d);
                }
            }
        }
        // Only this cluster's members read their own state above, so
        // writing it back now changes nothing for the clusters after it.
        for (&p, &(c, d)) in group.iter().zip(&best) {
            if c != j {
                dirty[j] = true;
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
        // (group² ≳ 2^14), while k = 40 keeps most updates under it; both
        // must match the single-thread run exactly.
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
            let serial = rayon::with_num_threads(1, || KMedoids::fit(&m, k, 9));
            for t in [2usize, 4] {
                let par = rayon::with_num_threads(t, || KMedoids::fit(&m, k, 9));
                assert_eq!(par.assignments, serial.assignments, "k={k}, t={t}");
                assert_eq!(par.medoids, serial.medoids, "k={k}, t={t}");
                assert_eq!(par.cost.to_bits(), serial.cost.to_bits(), "k={k}, t={t}");
                assert_eq!(par.iterations, serial.iterations, "k={k}, t={t}");
            }
        }
    }

    /// Unit points around `centers` random centers, `spread` apart from
    /// them on average.
    fn clustered_points(
        n: usize,
        dim: usize,
        centers: usize,
        spread: f32,
        seed: u64,
    ) -> Vec<Vec<f32>> {
        let hubs = unit_points(centers, dim, seed);
        let noise = unit_points(n, dim, seed ^ 0x5EED);
        let mut state = seed;
        (0..n)
            .map(|i| {
                let hub = &hubs[(lcg(&mut state) % centers as u64) as usize];
                let mut v: Vec<f32> = hub
                    .iter()
                    .zip(&noise[i])
                    .map(|(h, e)| h + spread * e)
                    .collect();
                let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-12);
                v.iter_mut().for_each(|x| *x /= norm);
                v
            })
            .collect()
    }

    /// Clustered unit points plus every case the bound must survive: zero
    /// vectors, vectors scaled off the sphere (far off and just past the
    /// norm tolerance), exact duplicates, antipodal pairs, and points
    /// exactly equidistant from two others (the normalized sum of two
    /// axis vectors is the same `f32` distance from both).
    fn adversarial_points(dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut pts = clustered_points(120, dim, 6, 0.3, seed);
        let mut state = seed ^ 0xADD;
        for _ in 0..10 {
            let i = (lcg(&mut state) % 120) as usize;
            pts.push(pts[i].clone());
            pts.push(pts[i].iter().map(|x| -x).collect());
        }
        for scale in [0.0f32, 0.0, 0.5, 2.0, 1.0 + 3e-5, 1.0 - 3e-5] {
            let i = (lcg(&mut state) % 120) as usize;
            pts.push(pts[i].iter().map(|x| x * scale).collect());
        }
        for a in 0..dim.min(4) {
            let b = (a + 1) % dim;
            let axis = |i: usize| -> Vec<f32> {
                (0..dim).map(|j| if j == i { 1.0 } else { 0.0 }).collect()
            };
            pts.push(axis(a));
            pts.push(axis(b));
            if a != b {
                let h = std::f32::consts::FRAC_1_SQRT_2;
                pts.push(
                    (0..dim)
                        .map(|j| if j == a || j == b { h } else { 0.0 })
                        .collect(),
                );
            }
        }
        pts
    }

    #[test]
    fn pruned_fit_matches_reference_on_adversarial_cosine_sets() {
        // The bound may skip a distance only where it provably cannot
        // change a (distance, owner) pair; on sets built to break it the
        // fit must still equal the plain iteration bit for bit, at one and
        // at four threads.
        for dim in [1usize, 7, 32, 300] {
            for seed in 0..2u64 {
                let pts = adversarial_points(dim, 0xAD0 ^ seed ^ (dim as u64) << 8);
                let refs: Vec<&[f32]> = pts.iter().map(|p| p.as_slice()).collect();
                let cp = CosinePoints::new(refs);
                let n = cp.len();
                for k in [2usize, n.div_ceil(10), n] {
                    let want = reference_fit(&cp, k, seed, 100);
                    for threads in [1usize, 4] {
                        let got = rayon::with_num_threads(threads, || KMedoids::fit(&cp, k, seed));
                        let what = format!("dim={dim} seed={seed} n={n} k={k} threads={threads}");
                        assert_same_fit(&got, &want, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn bound_prunes_only_strictly_farther_medoids() {
        // The pruning rule itself, on triples (owner o, point p, medoid m)
        // built to sit at its edge: p and m on one great circle through o
        // with p near the midpoint of the arc o–m, where the chords are
        // almost collinear and only the margin τ separates a prune from a
        // tie; p and m both near o; and the same triples with p or m
        // zeroed, scaled off the sphere, duplicated or mirrored. Whenever
        // the rule prunes, dist(p, m) must be strictly above dist(p, o).
        let mut state = 0xB0_u64;
        let mut unif = move || lcg(&mut state) as f64 / (1u64 << 31) as f64;
        let mut prunes = 0usize;
        let trials = 4000usize;
        for dim in [2usize, 7, 32, 300] {
            for t in 0..trials {
                // An orthonormal pair (u, v) spanning a random plane.
                let r = unit_points(2, dim, 0x7A1 ^ (t as u64) << 12 ^ dim as u64);
                let u: Vec<f64> = r[0].iter().map(|&x| x as f64).collect();
                let w: Vec<f64> = r[1].iter().map(|&x| x as f64).collect();
                let uw: f64 = u.iter().zip(&w).map(|(a, b)| a * b).sum();
                let mut v: Vec<f64> = w.iter().zip(&u).map(|(b, a)| b - uw * a).collect();
                let vn = v.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-300);
                v.iter_mut().for_each(|x| *x /= vn);
                let at = |phi: f64| -> Vec<f32> {
                    u.iter()
                        .zip(&v)
                        .map(|(a, b)| (phi.cos() * a + phi.sin() * b) as f32)
                        .collect()
                };
                let theta = 10f64.powf(-4.0 * unif());
                let (phi_p, phi_m) = if t % 2 == 0 {
                    (theta, 2.0 * theta * (1.0 + 0.02 * (unif() - 0.5)))
                } else {
                    (theta * 0.2, theta * (1.0 + 4.0 * unif()))
                };
                let o = at(0.0);
                let mut p = at(phi_p);
                let mut m = at(phi_m);
                match t % 16 {
                    1 => p.iter_mut().for_each(|x| *x *= 2.0),
                    3 => p.iter_mut().for_each(|x| *x *= 0.5),
                    5 => p.iter_mut().for_each(|x| *x *= 1.0 + 3e-5),
                    7 => p.iter_mut().for_each(|x| *x = 0.0),
                    9 => p = o.clone(),
                    11 => m = o.iter().map(|x| -x).collect(),
                    13 => m.iter_mut().for_each(|x| *x *= 2.0),
                    15 => m = p.clone(),
                    _ => {}
                }
                let cp = CosinePoints::new(vec![&o, &p, &m]);
                let prune = Prune::new(cp.chord_bound());
                let (d_po, d_om, d_pm) = (cp.dist(1, 0), cp.dist(0, 2), cp.dist(1, 2));
                if Prune::rules_out(prune.pivot(0, 2, d_om), prune.bar(1, d_po)) {
                    prunes += 1;
                    assert!(
                        d_pm > d_po,
                        "pruned a medoid that is not farther: dim={dim} t={t} \
                         d(p,o)={d_po:e} d(o,m)={d_om:e} d(p,m)={d_pm:e}"
                    );
                }
            }
        }
        assert!(prunes > trials / 3, "the rule must fire: {prunes} prunes");
    }

    /// A distance that counts the evaluations it is asked for.
    struct Counting<'a> {
        inner: CosinePoints<'a>,
        evals: std::sync::atomic::AtomicUsize,
    }

    impl PairwiseDistance for Counting<'_> {
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn dist(&self, i: usize, j: usize) -> f32 {
            self.evals
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.dist(i, j)
        }
        fn dist_block(&self, rows: &[usize], cols: &[usize], out: &mut [f32]) {
            self.evals.fetch_add(
                rows.len() * cols.len(),
                std::sync::atomic::Ordering::Relaxed,
            );
            self.inner.dist_block(rows, cols, out);
        }
        fn chord_bound(&self) -> Option<ChordBound> {
            self.inner.chord_bound()
        }
    }

    #[test]
    fn seeding_prunes_more_than_half_of_its_distances_on_clustered_points() {
        // A bound that never fires would leave seeding at n·k evaluations
        // (plus the pivots); on a clustered 32-d set it must skip most of
        // them and still pick the reference medoids.
        let (n, k) = (2000usize, 200usize);
        let pts = clustered_points(n, 32, 40, 0.15, 0x5EED5);
        let refs: Vec<&[f32]> = pts.iter().map(|p| p.as_slice()).collect();
        let counting = Counting {
            inner: CosinePoints::new(refs),
            evals: Default::default(),
        };
        let prune = Prune::new(counting.chord_bound());
        let (medoids, _, _) = seed_plus_plus(&counting, &prune, k, &mut StdRng::seed_from_u64(3));
        let evals = counting.evals.into_inner();
        assert!(
            evals < n * k / 2,
            "seeding evaluated {evals} of n·k = {} distances",
            n * k
        );
        let want = reference_seed(&counting.inner, k, &mut StdRng::seed_from_u64(3));
        assert_eq!(medoids, want);
    }
}
