//! Average-linkage agglomerative hierarchical clustering.
//!
//! Implemented with the nearest-neighbour-chain (NN-chain) algorithm, which
//! is exact for reducible linkages (average linkage is reducible) and runs
//! in O(n²) time. The working distance store is the **condensed** strict
//! upper triangle ([`CondensedMatrix`], `n(n−1)/2` f32 entries — ~half the
//! dense peak); [`Dendrogram::average_linkage_dense`] keeps the historical
//! dense-matrix walk as a small-`n` oracle whose merge sequence the
//! condensed path must reproduce **bit-for-bit** (property-tested across
//! sizes, seeds, thread counts, and chunk counts).
//!
//! The output [`Dendrogram`] follows the conventional linkage encoding
//! (as in SciPy): leaves are nodes `0..n`, the i-th merge creates node
//! `n + i`, and merges are sorted by non-decreasing linkage distance with
//! child ids relabelled accordingly.

use crate::distance::{pairwise_matrix_into, CondensedMatrix, PairwiseDistance};

/// Row length below which the nearest-neighbour scan stays serial. The scan
/// is a memory-bound row-min (contiguous on the tail of row `x`, strided
/// down earlier rows for `y < x`); fanning out across scoped threads costs
/// a spawn+join of roughly 25–60 µs on this class of host, so the split
/// only pays once the per-row scan itself is comfortably past that. At
/// ~1 ns/entry contiguous and ~4 ns/entry strided, a 16k row costs ~40 µs
/// serial — the measured crossover region for ≥2 workers (see DESIGN.md
/// §5f). The condensed store makes such rows reachable (16k points is
/// ~0.5 GB condensed vs ~1 GB dense), unlike the old dense-only gate of
/// 65_536 which could never engage on realistic hosts. The chunked
/// reduction is exact at any chunk count (see [`nearest_active_condensed`]),
/// so the gate is a pure performance choice.
const PAR_ROWMIN_MIN_N: usize = 16_384;

/// Nearest active neighbour of `x` within `row` (its dense distance-matrix
/// row): returns `(argmin, min)` where `argmin` is the **lowest** index
/// attaining the strict minimum over active `y != x`, split into `n_chunks`
/// contiguous spans scanned concurrently. The spans' partial results are
/// folded in fixed span order with a strict `<`, so the winner is the
/// global first-index minimum for *any* chunk count — bit-identical to the
/// serial left-to-right scan. Returns `(usize::MAX, ∞)` when nothing is
/// active. Used by the dense oracle path.
fn nearest_active_chunked(row: &[f32], active: &[bool], x: usize, n_chunks: usize) -> (usize, f32) {
    let n = row.len();
    let scan = |lo: usize, hi: usize| {
        let mut best = usize::MAX;
        let mut best_d = f32::INFINITY;
        for y in lo..hi {
            if y == x || !active[y] {
                continue;
            }
            let dy = row[y];
            if dy < best_d {
                best_d = dy;
                best = y;
            }
        }
        (best, best_d)
    };
    fold_chunked_scans(n, n_chunks, scan)
}

/// Condensed-store counterpart of [`nearest_active_chunked`]: the same
/// first-index strict minimum over active `y != x`, reading `(y, x)` as a
/// strided walk down earlier row tails for `y < x` and the contiguous tail
/// of row `x` for `y > x`. Visits `y` in the same ascending order as the
/// dense scan over the same values, so argmin and minimum are bit-identical
/// to the oracle at any chunk count.
fn nearest_active_condensed(
    d: &CondensedMatrix,
    active: &[bool],
    x: usize,
    n_chunks: usize,
) -> (usize, f32) {
    let n = d.n();
    let scan = |lo: usize, hi: usize| {
        let mut best = usize::MAX;
        let mut best_d = f32::INFINITY;
        for (y, &is_active) in active.iter().enumerate().take(hi.min(x)).skip(lo) {
            if !is_active {
                continue;
            }
            let dy = d.at(y, x);
            if dy < best_d {
                best_d = dy;
                best = y;
            }
        }
        let lo2 = lo.max(x + 1);
        if lo2 < hi {
            let tail = &d.row_tail(x)[lo2 - x - 1..hi - x - 1];
            for (off, &dy) in tail.iter().enumerate() {
                if !active[lo2 + off] {
                    continue;
                }
                if dy < best_d {
                    best_d = dy;
                    best = lo2 + off;
                }
            }
        }
        (best, best_d)
    };
    fold_chunked_scans(n, n_chunks, scan)
}

/// Run `scan` over `n_chunks` contiguous spans of `0..n` (possibly in
/// parallel) and fold the partials in fixed span order with a strict `<`,
/// yielding the global first-index minimum for any chunk count.
fn fold_chunked_scans(
    n: usize,
    n_chunks: usize,
    scan: impl Fn(usize, usize) -> (usize, f32) + Sync,
) -> (usize, f32) {
    if n_chunks <= 1 {
        return scan(0, n);
    }
    let n_chunks = n_chunks.min(n.max(1));
    let chunk = n.div_ceil(n_chunks);
    let partial = rayon::par_map(n_chunks, |c| scan(c * chunk, ((c + 1) * chunk).min(n)));
    let mut best = usize::MAX;
    let mut best_d = f32::INFINITY;
    for (b, bd) in partial {
        if b != usize::MAX && bd < best_d {
            best_d = bd;
            best = b;
        }
    }
    (best, best_d)
}

/// One merge step of a dendrogram: `a` and `b` are child node ids (leaf if
/// `< n_leaves`, else internal node `n_leaves + i`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Merge {
    /// First child node id.
    pub a: u32,
    /// Second child node id.
    pub b: u32,
    /// Average-linkage distance at which the merge happened.
    pub dist: f32,
    /// Number of leaves under the merged node.
    pub size: u32,
}

/// The result of hierarchical clustering: a binary merge tree over
/// `n_leaves` input points.
#[derive(Clone, Debug)]
pub struct Dendrogram {
    n_leaves: usize,
    merges: Vec<Merge>,
}

impl Dendrogram {
    /// Cluster `points` with average linkage over the condensed distance
    /// store (each pair held once; ~half the dense working set).
    ///
    /// Returns a dendrogram with `n − 1` merges (or zero merges for `n ≤ 1`).
    pub fn average_linkage<D: PairwiseDistance>(points: &D) -> Dendrogram {
        Self::average_linkage_condensed(CondensedMatrix::from_points(points))
    }

    /// Cluster a prebuilt [`CondensedMatrix`] with average linkage,
    /// consuming it as the in-place working store (the Lance–Williams
    /// update overwrites merged rows). Exposed separately so callers — the
    /// scale bench in particular — can time the pairwise build and the
    /// clustering walk independently and report the store's peak bytes.
    pub fn average_linkage_condensed(mut d: CondensedMatrix) -> Dendrogram {
        let n = d.n();
        if n <= 1 {
            return Dendrogram {
                n_leaves: n,
                merges: Vec::new(),
            };
        }
        let mut active = vec![true; n];
        let mut size = vec![1u32; n];
        let repr: Vec<u32> = (0..n as u32).collect();
        // Raw merges as (leaf-representative of each side, dist).
        let mut raw: Vec<(u32, u32, f32)> = Vec::with_capacity(n - 1);
        let mut chain: Vec<usize> = Vec::with_capacity(n);

        let mut n_active = n;
        while n_active > 1 {
            if chain.is_empty() {
                let Some(start) = active.iter().position(|&a| a) else {
                    break;
                };
                chain.push(start);
            }
            while let Some(&x) = chain.last() {
                // Nearest active neighbour of x; prefer the previous chain
                // element on ties so reciprocal pairs terminate.
                let prev = if chain.len() >= 2 {
                    Some(chain[chain.len() - 2])
                } else {
                    None
                };
                let workers = rayon::current_num_threads();
                let n_chunks = if workers > 1 && n >= PAR_ROWMIN_MIN_N {
                    workers
                } else {
                    1
                };
                let (mut best, best_d) = nearest_active_condensed(&d, &active, x, n_chunks);
                debug_assert_ne!(best, usize::MAX);
                // The serial scan preferred the previous chain element on
                // exact ties with the minimum (so reciprocal pairs
                // terminate); apply the same override to the first-index
                // minimum the chunked scan returns.
                if let Some(p) = prev {
                    if p != x && active[p] && d.get(p, x) == best_d {
                        best = p;
                    }
                }
                if Some(best) == prev {
                    // Reciprocal nearest neighbours: merge x and best.
                    chain.pop();
                    chain.pop();
                    let (lo, hi) = if x < best { (x, best) } else { (best, x) };
                    raw.push((repr[lo], repr[hi], best_d));
                    // Lance–Williams average-linkage update into slot `lo` —
                    // one write per pair: the condensed store *is* both
                    // dense triangles.
                    let (sl, sh) = (size[lo] as f32, size[hi] as f32);
                    let tot = sl + sh;
                    for (k, &is_active) in active.iter().enumerate() {
                        if !is_active || k == lo || k == hi {
                            continue;
                        }
                        let merged = (sl * d.get(lo, k) + sh * d.get(hi, k)) / tot;
                        d.set(lo.min(k), lo.max(k), merged);
                    }
                    size[lo] += size[hi];
                    active[hi] = false;
                    n_active -= 1;
                    break;
                }
                chain.push(best);
            }
        }
        finalize_linkage(n, raw)
    }

    /// Historical dense-matrix NN-chain, kept as the bit-exactness oracle
    /// for the condensed path: identical chain walk and Lance–Williams
    /// arithmetic over a full symmetric `n × n` working matrix (both
    /// triangles materialized and updated). Only sensible at small `n` —
    /// the dense working set is what the condensed store exists to avoid.
    pub fn average_linkage_dense<D: PairwiseDistance>(points: &D) -> Dendrogram {
        let n = points.len();
        if n <= 1 {
            return Dendrogram {
                n_leaves: n,
                merges: Vec::new(),
            };
        }
        let mut d = Vec::new();
        pairwise_matrix_into(points, &mut d);
        let mut active = vec![true; n];
        let mut size = vec![1u32; n];
        let repr: Vec<u32> = (0..n as u32).collect();
        let mut raw: Vec<(u32, u32, f32)> = Vec::with_capacity(n - 1);
        let mut chain: Vec<usize> = Vec::with_capacity(n);

        let mut n_active = n;
        while n_active > 1 {
            if chain.is_empty() {
                let Some(start) = active.iter().position(|&a| a) else {
                    break;
                };
                chain.push(start);
            }
            while let Some(&x) = chain.last() {
                let prev = if chain.len() >= 2 {
                    Some(chain[chain.len() - 2])
                } else {
                    None
                };
                let row = &d[x * n..(x + 1) * n];
                let workers = rayon::current_num_threads();
                let n_chunks = if workers > 1 && n >= PAR_ROWMIN_MIN_N {
                    workers
                } else {
                    1
                };
                let (mut best, best_d) = nearest_active_chunked(row, &active, x, n_chunks);
                debug_assert_ne!(best, usize::MAX);
                if let Some(p) = prev {
                    if p != x && active[p] && row[p] == best_d {
                        best = p;
                    }
                }
                if Some(best) == prev {
                    chain.pop();
                    chain.pop();
                    let (lo, hi) = if x < best { (x, best) } else { (best, x) };
                    raw.push((repr[lo], repr[hi], best_d));
                    let (sl, sh) = (size[lo] as f32, size[hi] as f32);
                    let tot = sl + sh;
                    for k in 0..n {
                        if !active[k] || k == lo || k == hi {
                            continue;
                        }
                        let merged = (sl * d[lo * n + k] + sh * d[hi * n + k]) / tot;
                        d[lo * n + k] = merged;
                        d[k * n + lo] = merged;
                    }
                    size[lo] += size[hi];
                    active[hi] = false;
                    n_active -= 1;
                    break;
                }
                chain.push(best);
            }
        }
        finalize_linkage(n, raw)
    }

    /// The merge steps, sorted by non-decreasing distance.
    #[inline]
    pub fn merges(&self) -> &[Merge] {
        &self.merges
    }

    /// Total number of nodes (leaves + internal).
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.n_leaves + self.merges.len()
    }

    /// Children of an internal node (`None` for a leaf).
    pub fn children(&self, node: u32) -> Option<(u32, u32)> {
        let i = (node as usize).checked_sub(self.n_leaves)?;
        self.merges.get(i).map(|m| (m.a, m.b))
    }

    /// Cut the dendrogram into (at most) `k` flat clusters; returns a dense
    /// cluster label in `0..k'` for each leaf, where `k' = min(k, n)`.
    pub fn cut(&self, k: usize) -> Vec<usize> {
        let n = self.n_leaves;
        if n == 0 {
            return Vec::new();
        }
        let k = k.clamp(1, n);
        // Apply the first n-k merges (lowest distances) through union-find.
        let mut uf: Vec<u32> = (0..n as u32).collect();
        fn find(uf: &mut [u32], mut x: u32) -> u32 {
            while uf[x as usize] != x {
                uf[x as usize] = uf[uf[x as usize] as usize];
                x = uf[x as usize];
            }
            x
        }
        // Track a leaf representative of every dendrogram node.
        let mut leaf_repr: Vec<u32> = (0..self.n_nodes() as u32)
            .map(|i| if (i as usize) < n { i } else { 0 })
            .collect();
        for (i, m) in self.merges.iter().enumerate().take(n - k) {
            let la = leaf_repr[m.a as usize];
            let lb = leaf_repr[m.b as usize];
            let (ra, rb) = (find(&mut uf, la), find(&mut uf, lb));
            uf[ra as usize] = rb;
            leaf_repr[n + i] = lb;
        }
        // Also record representatives for remaining merges so children() users
        // are unaffected; then densify root labels.
        let mut label_of_root = std::collections::HashMap::new();
        let mut labels = Vec::with_capacity(n);
        for leaf in 0..n as u32 {
            let root = find(&mut uf, leaf);
            let next = label_of_root.len();
            let l = *label_of_root.entry(root).or_insert(next);
            labels.push(l);
        }
        labels
    }
}

/// Sort raw `(leaf_a, leaf_b, dist)` merges by distance and relabel child
/// ids via union–find, producing the standard linkage encoding. Shared by
/// the condensed path and the dense oracle so their outputs can only differ
/// through the merge sequence itself.
fn finalize_linkage(n: usize, mut raw: Vec<(u32, u32, f32)>) -> Dendrogram {
    raw.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap_or(std::cmp::Ordering::Equal));
    let mut uf_parent: Vec<u32> = (0..n as u32).collect();
    // Current dendrogram node id of each union-find root.
    let mut node_of_root: Vec<u32> = (0..n as u32).collect();
    fn find(uf: &mut [u32], mut x: u32) -> u32 {
        while uf[x as usize] != x {
            uf[x as usize] = uf[uf[x as usize] as usize];
            x = uf[x as usize];
        }
        x
    }
    let mut merges: Vec<Merge> = Vec::with_capacity(raw.len());
    for (i, (la, lb, dist)) in raw.into_iter().enumerate() {
        let ra = find(&mut uf_parent, la);
        let rb = find(&mut uf_parent, lb);
        debug_assert_ne!(ra, rb, "merge joins two distinct clusters");
        let (na, nb) = (node_of_root[ra as usize], node_of_root[rb as usize]);
        let (a, b) = if na < nb { (na, nb) } else { (nb, na) };
        let new_node = (n + i) as u32;
        uf_parent[ra as usize] = rb;
        node_of_root[rb as usize] = new_node;
        let sz_a = if a < n as u32 {
            1
        } else {
            merges[(a as usize) - n].size
        };
        let sz_b = if b < n as u32 {
            1
        } else {
            merges[(b as usize) - n].size
        };
        merges.push(Merge {
            a,
            b,
            dist,
            size: sz_a + sz_b,
        });
    }
    Dendrogram {
        n_leaves: n,
        merges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{CosinePoints, MatrixDistance};

    impl Dendrogram {
        /// Number of input points.
        fn n_leaves(&self) -> usize {
            self.n_leaves
        }
    }

    fn line_points() -> MatrixDistance {
        // Four points on a line at coordinates 0, 1, 10, 11.
        let coords = [0.0f32, 1.0, 10.0, 11.0];
        let n = coords.len();
        let mut d = vec![0.0f32; n * n];
        for i in 0..n {
            for j in 0..n {
                d[i * n + j] = (coords[i] - coords[j]).abs();
            }
        }
        MatrixDistance::new(n, d)
    }

    #[test]
    fn merges_nearby_points_first() {
        let dend = Dendrogram::average_linkage(&line_points());
        assert_eq!(dend.n_leaves(), 4);
        assert_eq!(dend.merges().len(), 3);
        // First two merges are {0,1} and {2,3} at distance 1.
        let m0 = dend.merges()[0];
        let m1 = dend.merges()[1];
        assert_eq!(m0.dist, 1.0);
        assert_eq!(m1.dist, 1.0);
        let firsts: std::collections::BTreeSet<u32> = [m0.a, m0.b, m1.a, m1.b].into();
        assert_eq!(firsts, [0u32, 1, 2, 3].into());
        // Final merge joins the two pairs at average distance 10.
        let m2 = dend.merges()[2];
        assert_eq!(m2.size, 4);
        assert!((m2.dist - 10.0).abs() < 1e-5);
        assert!(m2.a >= 4 && m2.b >= 4);
    }

    #[test]
    fn merge_distances_non_decreasing() {
        let dend = Dendrogram::average_linkage(&line_points());
        for w in dend.merges().windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
    }

    #[test]
    fn cut_two_clusters_on_line() {
        let dend = Dendrogram::average_linkage(&line_points());
        let labels = dend.cut(2);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
    }

    #[test]
    fn cut_extremes() {
        let dend = Dendrogram::average_linkage(&line_points());
        assert_eq!(dend.cut(1), vec![0, 0, 0, 0]);
        let all = dend.cut(4);
        let distinct: std::collections::BTreeSet<usize> = all.iter().copied().collect();
        assert_eq!(distinct.len(), 4);
        // k larger than n clamps
        assert_eq!(dend.cut(100).len(), 4);
    }

    #[test]
    fn single_point_and_empty() {
        let one = MatrixDistance::new(1, vec![0.0]);
        let d1 = Dendrogram::average_linkage(&one);
        assert_eq!(d1.n_leaves(), 1);
        assert!(d1.merges().is_empty());
        assert_eq!(d1.cut(3), vec![0]);

        let zero = MatrixDistance::new(0, vec![]);
        let d0 = Dendrogram::average_linkage(&zero);
        assert_eq!(d0.n_leaves(), 0);
        assert!(d0.cut(2).is_empty());
    }

    #[test]
    fn children_accessor() {
        let dend = Dendrogram::average_linkage(&line_points());
        assert_eq!(dend.children(0), None, "leaves have no children");
        let root = (dend.n_nodes() - 1) as u32;
        let (a, b) = dend.children(root).unwrap();
        assert!(a < root && b < root);
    }

    #[test]
    fn sizes_are_consistent() {
        let dend = Dendrogram::average_linkage(&line_points());
        let last = dend.merges().last().unwrap();
        assert_eq!(last.size as usize, dend.n_leaves());
    }

    #[test]
    fn works_on_cosine_topic_clusters() {
        // Two tight cosine clusters: x-axis-ish and y-axis-ish.
        let pts: Vec<Vec<f32>> = vec![
            vec![1.0, 0.0],
            vec![0.995, 0.0998],
            vec![0.0, 1.0],
            vec![0.0998, 0.995],
            vec![0.995, -0.0998],
        ];
        let refs: Vec<&[f32]> = pts.iter().map(|p| p.as_slice()).collect();
        let cp = CosinePoints::new(refs);
        let dend = Dendrogram::average_linkage(&cp);
        let labels = dend.cut(2);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[0], labels[4]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
    }

    #[test]
    fn deterministic_on_same_input() {
        let a = Dendrogram::average_linkage(&line_points());
        let b = Dendrogram::average_linkage(&line_points());
        assert_eq!(a.merges(), b.merges());
    }

    fn random_unit_points(n: usize, dim: usize, mut state: u64) -> Vec<Vec<f32>> {
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

    fn assert_merges_bit_identical(a: &Dendrogram, b: &Dendrogram, label: &str) {
        assert_eq!(a.merges().len(), b.merges().len(), "{label}: merge count");
        for (i, (ma, mb)) in a.merges().iter().zip(b.merges()).enumerate() {
            assert_eq!(
                (ma.a, ma.b, ma.size, ma.dist.to_bits()),
                (mb.a, mb.b, mb.size, mb.dist.to_bits()),
                "{label}: merge {i} diverged"
            );
        }
    }

    #[test]
    fn condensed_matches_dense_oracle_bitwise() {
        // Tentpole acceptance: the condensed-store NN-chain must reproduce
        // the dense oracle's merge sequence bit-for-bit across sizes, seeds,
        // and thread counts.
        for &n in &[2usize, 3, 17, 64, 150] {
            for seed in 0..3u64 {
                let pts = random_unit_points(n, 16, 0xACE5 ^ seed << 8 ^ n as u64);
                let refs: Vec<&[f32]> = pts.iter().map(|p| p.as_slice()).collect();
                let cp = CosinePoints::new(refs);
                let dense = Dendrogram::average_linkage_dense(&cp);
                for t in [1usize, 2, 4] {
                    let cond = rayon::with_num_threads(t, || Dendrogram::average_linkage(&cp));
                    assert_merges_bit_identical(
                        &cond,
                        &dense,
                        &format!("n={n} seed={seed} threads={t}"),
                    );
                }
            }
        }
    }

    #[test]
    fn chunked_row_min_matches_serial_scan_for_any_chunk_count() {
        // Pseudo-random row with deliberate duplicated minima, plus a
        // changing active mask — the chunked reduction must always return
        // the first-index strict minimum the serial scan does.
        let mut state = 0x5EEDu64;
        let n = 237;
        let row: Vec<f32> = (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 40) % 32) as f32 / 16.0 // few distinct values → many ties
            })
            .collect();
        for case in 0..8usize {
            let active: Vec<bool> = (0..n).map(|y| (y + case) % 3 != 0).collect();
            let x = (case * 31) % n;
            let serial = nearest_active_chunked(&row, &active, x, 1);
            for chunks in 2..=7 {
                let par = nearest_active_chunked(&row, &active, x, chunks);
                assert_eq!(par.0, serial.0, "argmin diverged at {chunks} chunks");
                assert_eq!(par.1.to_bits(), serial.1.to_bits());
            }
        }
        // Fully inactive row.
        let inactive = vec![false; n];
        assert_eq!(nearest_active_chunked(&row, &inactive, 0, 4).0, usize::MAX);
    }

    #[test]
    fn condensed_row_min_matches_dense_scan_for_any_chunk_count() {
        // Same contract for the condensed scan: for every pivot x, active
        // mask, and chunk count, the two-segment condensed walk must agree
        // with the dense row scan (including tie resolution — the synthetic
        // distances take few distinct values).
        let n = 149;
        let mut state = 0xD15Cu64;
        let mut dense = vec![0.0f32; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = ((state >> 40) % 24) as f32 / 8.0;
                dense[i * n + j] = v;
                dense[j * n + i] = v;
            }
        }
        let md = MatrixDistance::new(n, dense.clone());
        let cond = CondensedMatrix::from_points(&md);
        for case in 0..10usize {
            let active: Vec<bool> = (0..n).map(|y| (y * 7 + case) % 4 != 0).collect();
            let x = (case * 17) % n;
            let row = &dense[x * n..(x + 1) * n];
            let want = nearest_active_chunked(row, &active, x, 1);
            for chunks in 1..=6 {
                let got = nearest_active_condensed(&cond, &active, x, chunks);
                assert_eq!(got.0, want.0, "argmin diverged at x={x} chunks={chunks}");
                assert_eq!(got.1.to_bits(), want.1.to_bits());
            }
        }
        let inactive = vec![false; n];
        assert_eq!(
            nearest_active_condensed(&cond, &inactive, 3, 4).0,
            usize::MAX
        );
    }

    #[test]
    fn dendrogram_identical_across_thread_counts() {
        // Exercises the parallel condensed pairwise build inside
        // average_linkage (the row-min gate needs enormous inputs; its
        // reduction is covered by the chunk tests above).
        let mut state = 0xACE5u64;
        let coords: Vec<f32> = (0..150)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) as f32 * 100.0
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
        let serial = rayon::with_num_threads(1, || Dendrogram::average_linkage(&m));
        for t in [2usize, 4, 8] {
            let par = rayon::with_num_threads(t, || Dendrogram::average_linkage(&m));
            assert_eq!(par.merges(), serial.merges(), "diverged at {t} threads");
        }
    }
}
