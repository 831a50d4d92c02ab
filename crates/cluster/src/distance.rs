//! Pairwise-distance abstraction used by both clustering algorithms, plus
//! the shared distance stores: the dense (optionally parallel) matrix
//! builder and the condensed strict-upper-triangle store that replaces it
//! inside the scale path ([`CondensedMatrix`], `n(n−1)/2` entries — ~half
//! the dense peak).

use dln_embed::{dot, gram_into, GRAM_TILE_ROWS};
use rayon::prelude::*;

/// A finite set of points with a symmetric, non-negative pairwise distance.
pub trait PairwiseDistance: Sync {
    /// Number of points.
    fn len(&self) -> usize;

    /// Distance between points `i` and `j`. Must be symmetric with
    /// `dist(i, i) == 0`.
    fn dist(&self, i: usize, j: usize) -> f32;

    /// Fill `out` (row-major, `rows.len() × cols.len()`) with
    /// `out[r * cols.len() + c] = dist(rows[r], cols[c])`.
    ///
    /// The default evaluates one [`dist`] per element; implementations with
    /// a tiled kernel (see [`CosinePoints`]) override it to cut operand
    /// traffic, but every element must stay **bit-identical** to the
    /// corresponding `dist` call — block evaluation is a bandwidth
    /// optimization, never a numerical one.
    ///
    /// [`dist`]: PairwiseDistance::dist
    fn dist_block(&self, rows: &[usize], cols: &[usize], out: &mut [f32]) {
        let nc = cols.len();
        debug_assert_eq!(out.len(), rows.len() * nc, "dist_block: shape mismatch");
        for (r, &i) in rows.iter().enumerate() {
            for (c, &j) in cols.iter().enumerate() {
                out[r * nc + c] = self.dist(i, j);
            }
        }
    }

    /// True when the set is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A rounding-safe triangle bound on this distance, if it has one
    /// (see [`ChordBound`]). k-medoids uses it to skip distances that
    /// cannot change a point's owner. The default is no bound: every
    /// distance a scan visits is evaluated.
    fn chord_bound(&self) -> Option<ChordBound> {
        None
    }
}

/// The promise behind [`PairwiseDistance::chord_bound`]: the points have
/// vectors `x` such that, for every pair `i, j` of `covered` points, the
/// *evaluated* `dist(i, j)` (its `f32` bits, as `dist` and `dist_block`
/// return them) is within `tau` of half their squared Euclidean distance:
/// `|dist(i, j) − ‖x_i − x_j‖² / 2| ≤ tau`.
///
/// The chord `‖x_i − x_j‖` is a metric, so a medoid `m` provably loses
/// point `p` to `p`'s owner `o` when `dist(o, m) > 4·dist(p, o) + 5·tau`:
/// then `dist(p, m) > dist(p, o)` strictly. DESIGN §5f derives it.
#[derive(Clone, Debug)]
pub struct ChordBound {
    /// The margin `τ`.
    pub tau: f64,
    /// Which points the margin holds for, indexed by point. An uncovered
    /// point is never pruned and never serves as a pivot.
    pub covered: Vec<bool>,
}

/// How far a squared norm may sit from 1 for [`CosinePoints`] to treat the
/// vector as on the unit sphere. Normalized `f32` topics sit within about
/// `dim · 2⁻²⁴` of it; zero topics (no embedded token) are far outside.
const SPHERE_NORM_TOL: f64 = 1e-5;

/// Unit-norm vectors under cosine distance (`1 − a·b`, in `[0, 2]`).
///
/// The adapter borrows the vectors (typically the `unit_topic` fields of
/// lake tags or attributes) so no copies are made. The inner product runs
/// the 8-lane unrolled [`dot`] kernel with its fixed-order lane reduction,
/// so distances are bit-identical to the scalar-reference evaluation (see
/// `dln_embed::dot_scalar_ref`) on every host. Block requests
/// ([`PairwiseDistance::dist_block`]) ride the tiled [`gram_into`] kernel,
/// which reproduces `dot` bit-for-bit per element.
pub struct CosinePoints<'a> {
    points: Vec<&'a [f32]>,
}

impl<'a> CosinePoints<'a> {
    /// Wrap a set of unit-norm vectors.
    pub fn new(points: Vec<&'a [f32]>) -> Self {
        if let Some(first) = points.first() {
            let d = first.len();
            debug_assert!(points.iter().all(|p| p.len() == d));
        }
        CosinePoints { points }
    }

    /// The wrapped vector for point `i`.
    pub fn point(&self, i: usize) -> &'a [f32] {
        self.points[i]
    }
}

impl PairwiseDistance for CosinePoints<'_> {
    fn len(&self) -> usize {
        self.points.len()
    }

    #[inline]
    fn dist(&self, i: usize, j: usize) -> f32 {
        if i == j {
            return 0.0;
        }
        (1.0 - dot(self.points[i], self.points[j])).max(0.0)
    }

    fn dist_block(&self, rows: &[usize], cols: &[usize], out: &mut [f32]) {
        let nc = cols.len();
        debug_assert_eq!(out.len(), rows.len() * nc, "dist_block: shape mismatch");
        if rows.is_empty() || nc == 0 {
            return;
        }
        let points = &self.points;
        gram_into(
            rows.len(),
            nc,
            |r| points[rows[r]],
            |c| points[cols[c]],
            out,
        );
        // Same post-transform as `dist`, element by element; the diagonal
        // check compares *indices*, matching `dist`'s exact-zero contract.
        for (r, &i) in rows.iter().enumerate() {
            for (c, &j) in cols.iter().enumerate() {
                let slot = &mut out[r * nc + c];
                *slot = if i == j { 0.0 } else { (1.0 - *slot).max(0.0) };
            }
        }
    }

    /// On the unit sphere `‖a − b‖² = 2·(1 − a·b)`. A covered vector's
    /// squared norm is within `η = 1e-5` of 1, which moves that identity
    /// by at most `η` per side; the `f32` dot product of
    /// `dim` terms errs by at most `dim · 2⁻²⁴ · (1 + η)` and the `1 − dot`
    /// rounding by `2⁻²³`, and clamping at zero only moves a value toward
    /// the non-negative target. `τ = 2·(dim + 2)·ε_f32 + 2η` covers that
    /// sum with room for the `f64` rounding of the norms and of the
    /// pruning threshold.
    fn chord_bound(&self) -> Option<ChordBound> {
        let dim = self.points.first()?.len();
        let covered = self
            .points
            .iter()
            .map(|p| {
                let sq: f64 = p.iter().map(|&x| f64::from(x) * f64::from(x)).sum();
                (sq - 1.0).abs() <= SPHERE_NORM_TOL
            })
            .collect();
        let tau = 2.0 * (dim as f64 + 2.0) * f64::from(f32::EPSILON) + 2.0 * SPHERE_NORM_TOL;
        Some(ChordBound { tau, covered })
    }
}

/// Condensed-index span filled per parallel unit when building a
/// [`CondensedMatrix`] — entries are pure functions of their `(i, j)` pair,
/// so the split is a pure scheduling choice (any chunk size / thread count
/// produces identical bits).
const CONDENSED_BUILD_CHUNK: usize = 1 << 15;

/// Strict-upper-triangle pairwise-distance store: entry `(i, j)` with
/// `i < j` lives at `row_start(i) + (j − i − 1)`, rows stored back to back.
/// `n(n−1)/2` f32 entries — ~half the dense `n × n` peak, the difference
/// between a ~10.4 GB and a ~5.2 GB working set at full-Socrata scale
/// (50,879 attributes).
///
/// Reads on a row `x` come in two flavours: `(y, x)` with `y < x` is a
/// strided walk down earlier rows, `(x, y)` with `y > x` is the contiguous
/// tail slice ([`row_tail`]). The NN-chain clustering loop exploits exactly
/// that split.
///
/// [`row_tail`]: CondensedMatrix::row_tail
pub struct CondensedMatrix {
    n: usize,
    data: Vec<f32>,
}

impl CondensedMatrix {
    /// First condensed index of row `i` (entries `(i, i+1..n)`).
    #[inline]
    fn row_start(n: usize, i: usize) -> usize {
        i * (n - 1) - i * (i.saturating_sub(1)) / 2
    }

    /// Condensed index of `(i, j)`, `i < j`.
    #[inline]
    fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.n);
        Self::row_start(self.n, i) + (j - i - 1)
    }

    /// Build the strict upper triangle of `points`' distance matrix, each
    /// pair evaluated exactly once via [`PairwiseDistance::dist_block`]
    /// (tiled row bands where whole rows fit a build chunk, single-row
    /// spans at chunk edges). Parallel across condensed-index chunks;
    /// bit-identical at any thread count because every entry is a pure
    /// function of its `(i, j)` pair.
    pub fn from_points<D: PairwiseDistance + ?Sized>(points: &D) -> CondensedMatrix {
        let n = points.len();
        if n < 2 {
            return CondensedMatrix {
                n,
                data: Vec::new(),
            };
        }
        let mut data = vec![0.0f32; n * (n - 1) / 2];
        let ids: Vec<usize> = (0..n).collect();
        data.par_chunks_mut(CONDENSED_BUILD_CHUNK)
            .enumerate()
            .for_each_init(Vec::new, |scratch, (ci, seg)| {
                fill_condensed_span(points, n, &ids, ci * CONDENSED_BUILD_CHUNK, seg, scratch);
            });
        CondensedMatrix { n, data }
    }

    /// Number of points.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored entries (`n(n−1)/2`).
    #[inline]
    pub fn entries(&self) -> usize {
        self.data.len()
    }

    /// Bytes held by the condensed store — the "peak distance-store bytes"
    /// a scale bench reports.
    #[inline]
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Bytes the dense `n × n` working matrix would need instead.
    #[inline]
    pub fn dense_baseline_bytes(&self) -> usize {
        self.n * self.n * std::mem::size_of::<f32>()
    }

    /// Entry `(i, j)` with `i < j` (ordered, no diagonal branch).
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f32 {
        self.data[self.index(i, j)]
    }

    /// Entry for any `(i, j)` pair: zero on the diagonal, otherwise the
    /// stored `(min, max)` value — symmetric by construction.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        match i.cmp(&j) {
            std::cmp::Ordering::Less => self.at(i, j),
            std::cmp::Ordering::Equal => 0.0,
            std::cmp::Ordering::Greater => self.at(j, i),
        }
    }

    /// Overwrite entry `(i, j)`, `i < j` (both dense triangles at once, in
    /// condensed terms — there is only the one copy).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        let idx = self.index(i, j);
        self.data[idx] = v;
    }

    /// The contiguous tail of row `i`: entries `(i, i+1..n)` in `j` order.
    #[inline]
    pub fn row_tail(&self, i: usize) -> &[f32] {
        let start = Self::row_start(self.n, i);
        &self.data[start..start + (self.n - 1 - i)]
    }
}

impl PairwiseDistance for CondensedMatrix {
    fn len(&self) -> usize {
        self.n
    }

    #[inline]
    fn dist(&self, i: usize, j: usize) -> f32 {
        self.get(i, j)
    }
}

/// Row containing condensed index `pos` (largest `i` with
/// `row_start(i) <= pos`); `pos` must be below `n(n−1)/2`.
fn condensed_row_of(n: usize, pos: usize) -> usize {
    let (mut lo, mut hi) = (0usize, n - 2);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if CondensedMatrix::row_start(n, mid) <= pos {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

/// Fill the condensed-index span `[start, start + seg.len())` of the strict
/// upper triangle into `seg`. Whole rows that fit the span are batched into
/// up to [`GRAM_TILE_ROWS`]-row rectangles (one `dist_block` over columns
/// `i+1..n`, per-row tails copied out); partial rows at span edges go
/// through single-row `dist_block` calls. Either way each element is the
/// implementation's `dist(min, max)` bit-for-bit, so the batching never
/// shows up in the output.
fn fill_condensed_span<D: PairwiseDistance + ?Sized>(
    points: &D,
    n: usize,
    ids: &[usize],
    start: usize,
    seg: &mut [f32],
    scratch: &mut Vec<f32>,
) {
    let end = start + seg.len();
    let mut pos = start;
    let mut i = condensed_row_of(n, start);
    while pos < end {
        let row_start = CondensedMatrix::row_start(n, i);
        let row_end = row_start + (n - 1 - i);
        if pos == row_start && row_end <= end {
            // Batch consecutive complete rows into one rectangle over the
            // widest row's columns; row i+r's tail starts r entries in.
            let mut r = 1;
            while r < GRAM_TILE_ROWS
                && i + r < n - 1
                && CondensedMatrix::row_start(n, i + r) + (n - 1 - (i + r)) <= end
            {
                r += 1;
            }
            let width = n - 1 - i;
            scratch.clear();
            scratch.resize(r * width, 0.0);
            points.dist_block(&ids[i..i + r], &ids[i + 1..n], scratch);
            for rr in 0..r {
                let row_len = n - 1 - (i + rr);
                let dst = CondensedMatrix::row_start(n, i + rr) - start;
                seg[dst..dst + row_len]
                    .copy_from_slice(&scratch[rr * width + rr..(rr + 1) * width]);
            }
            i += r;
            pos = CondensedMatrix::row_start(n, i);
        } else {
            let j0 = i + 1 + (pos - row_start);
            let take = end.min(row_end) - pos;
            points.dist_block(
                &ids[i..i + 1],
                &ids[j0..j0 + take],
                &mut seg[pos - start..pos - start + take],
            );
            pos += take;
            if pos == row_end {
                i += 1;
            }
        }
    }
}

/// Fill `out` with the dense row-major `n × n` pairwise-distance matrix of
/// `points`, exactly as the classic serial upper-triangle loop would:
/// `out[i * n + j] == out[j * n + i] == points.dist(min(i,j), max(i,j))`
/// and a zero diagonal — the strict-upper-triangle evaluation is the source
/// of truth for *both* halves, so even a `dist` that is only approximately
/// symmetric yields an exactly symmetric matrix, bit-identical at any
/// thread count.
///
/// The build first fills a [`CondensedMatrix`] (each off-diagonal pair
/// evaluated **once**, tiled, in parallel across condensed chunks), then
/// mirror-expands it into both dense triangles row by row. That matches
/// the serial loop's operation count — the old parallel path evaluated
/// every pair twice, once per triangle — at the price of a transient
/// `n(n−1)/2`-entry staging buffer (peak 1.5× dense; dense callers are the
/// small-`n` oracle path, so the staging cost is noise there).
pub fn pairwise_matrix_into<D: PairwiseDistance + ?Sized>(points: &D, out: &mut Vec<f32>) {
    let n = points.len();
    out.clear();
    out.resize(n * n, 0.0);
    if n < 2 {
        return;
    }
    let cond = CondensedMatrix::from_points(points);
    out.par_chunks_mut(n).enumerate().for_each(|(i, row)| {
        for (j, slot) in row.iter_mut().enumerate() {
            *slot = cond.get(i, j);
        }
    });
}

/// An explicit (dense, symmetric) distance matrix — convenient in tests and
/// for small precomputed inputs.
pub struct MatrixDistance {
    n: usize,
    data: Vec<f32>,
}

impl MatrixDistance {
    /// Build from a row-major `n × n` matrix.
    ///
    /// # Panics
    /// Panics if `data.len() != n * n` or the matrix is asymmetric beyond
    /// 1e-5 (debug builds only for the symmetry check).
    pub fn new(n: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), n * n, "matrix must be n × n");
        #[cfg(debug_assertions)]
        for i in 0..n {
            for j in 0..n {
                debug_assert!(
                    (data[i * n + j] - data[j * n + i]).abs() < 1e-5,
                    "distance matrix must be symmetric"
                );
            }
        }
        MatrixDistance { n, data }
    }
}

impl PairwiseDistance for MatrixDistance {
    fn len(&self) -> usize {
        self.n
    }

    #[inline]
    fn dist(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.n + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a [`MatrixDistance`] from any point set via
    /// [`pairwise_matrix_into`].
    fn pairwise_matrix<D: PairwiseDistance + ?Sized>(points: &D) -> MatrixDistance {
        let mut data = Vec::new();
        pairwise_matrix_into(points, &mut data);
        MatrixDistance {
            n: points.len(),
            data,
        }
    }

    #[test]
    fn cosine_points_distance() {
        let a = [1.0f32, 0.0];
        let b = [0.0f32, 1.0];
        let c = [1.0f32, 0.0];
        let pts = CosinePoints::new(vec![&a, &b, &c]);
        assert_eq!(pts.len(), 3);
        assert!((pts.dist(0, 1) - 1.0).abs() < 1e-6);
        assert!(pts.dist(0, 2).abs() < 1e-6);
        assert_eq!(pts.dist(1, 1), 0.0);
        // symmetry
        assert_eq!(pts.dist(0, 1), pts.dist(1, 0));
    }

    #[test]
    fn cosine_distance_clamped_non_negative() {
        // numerically, dot of identical unit vectors can exceed 1 slightly
        let a = [0.6f32, 0.8];
        let pts = CosinePoints::new(vec![&a, &a]);
        assert!(pts.dist(0, 1) >= 0.0);
    }

    #[test]
    fn matrix_distance_roundtrip() {
        let m = MatrixDistance::new(2, vec![0.0, 3.0, 3.0, 0.0]);
        assert_eq!(m.dist(0, 1), 3.0);
        assert_eq!(m.dist(1, 0), 3.0);
        assert_eq!(m.dist(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "matrix must be n × n")]
    fn matrix_wrong_size_panics() {
        MatrixDistance::new(3, vec![0.0; 4]);
    }

    /// Deterministic pseudo-random unit vectors for the parallel-build test.
    fn unit_vectors(n: usize, dim: usize, mut state: u64) -> Vec<Vec<f32>> {
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
    fn parallel_matrix_equals_serial_exactly() {
        // Property (c) of the batching PR: the parallel pairwise build must
        // reproduce the serial upper-triangle loop bit-for-bit at every
        // thread count (both triangles, zero diagonal).
        let pts = unit_vectors(67, 24, 0xC0FFEE);
        let refs: Vec<&[f32]> = pts.iter().map(|p| p.as_slice()).collect();
        let cp = CosinePoints::new(refs);
        let n = cp.len();
        let mut serial = vec![0.0f32; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let v = cp.dist(i, j);
                serial[i * n + j] = v;
                serial[j * n + i] = v;
            }
        }
        for threads in [1usize, 2, 4, 8] {
            let mut par = Vec::new();
            rayon::with_num_threads(threads, || pairwise_matrix_into(&cp, &mut par));
            assert_eq!(par.len(), serial.len());
            assert!(
                par.iter()
                    .zip(&serial)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "parallel pairwise matrix diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn cosine_kernel_matches_scalar_reference_bitwise() {
        // Satellite contract: the pairwise distance kernel rides on the
        // 8-lane unrolled `dot`, which must be bit-identical to the scalar
        // reference reduction — so the whole distance matrix is too.
        let pts = unit_vectors(23, 37, 0xD157);
        let refs: Vec<&[f32]> = pts.iter().map(|p| p.as_slice()).collect();
        let cp = CosinePoints::new(refs);
        for i in 0..cp.len() {
            for j in (i + 1)..cp.len() {
                let scalar = (1.0 - dln_embed::dot_scalar_ref(&pts[i], &pts[j])).max(0.0);
                assert_eq!(
                    cp.dist(i, j).to_bits(),
                    scalar.to_bits(),
                    "pairwise kernel diverged from scalar reference at ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn pairwise_matrix_roundtrips_through_matrix_distance() {
        let pts = unit_vectors(9, 8, 7);
        let refs: Vec<&[f32]> = pts.iter().map(|p| p.as_slice()).collect();
        let cp = CosinePoints::new(refs);
        let m = pairwise_matrix(&cp);
        assert_eq!(m.len(), cp.len());
        for i in 0..cp.len() {
            assert_eq!(m.dist(i, i), 0.0);
            for j in 0..cp.len() {
                assert_eq!(m.dist(i, j).to_bits(), m.dist(j, i).to_bits());
            }
        }
    }

    #[test]
    fn dist_block_matches_dist_bitwise() {
        // The tiled CosinePoints block and the per-pair default (via
        // MatrixDistance) must both reproduce `dist` element-for-element,
        // including diagonal (i == j) slots and ragged shapes around the
        // 4×4 tile size.
        let pts = unit_vectors(13, 29, 0xB10C);
        let refs: Vec<&[f32]> = pts.iter().map(|p| p.as_slice()).collect();
        let cp = CosinePoints::new(refs);
        let md = pairwise_matrix(&cp);
        let rows = [0usize, 3, 7, 12, 5];
        let cols = [2usize, 3, 11, 0, 5, 9, 1];
        let mut got_cp = vec![f32::NAN; rows.len() * cols.len()];
        let mut got_md = vec![f32::NAN; rows.len() * cols.len()];
        cp.dist_block(&rows, &cols, &mut got_cp);
        md.dist_block(&rows, &cols, &mut got_md);
        for (r, &i) in rows.iter().enumerate() {
            for (c, &j) in cols.iter().enumerate() {
                let k = r * cols.len() + c;
                assert_eq!(got_cp[k].to_bits(), cp.dist(i, j).to_bits(), "({i},{j})");
                assert_eq!(got_md[k].to_bits(), md.dist(i, j).to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn condensed_matches_direct_dist_bitwise() {
        // Tentpole contract: every condensed entry is the `dist(min, max)`
        // evaluation bit-for-bit, across sizes that exercise single-row
        // fills, multi-row rectangles, and chunk-edge partial rows.
        for &n in &[2usize, 3, 5, 23, 67, 130] {
            let pts = unit_vectors(n, 19, 0xC0DE ^ n as u64);
            let refs: Vec<&[f32]> = pts.iter().map(|p| p.as_slice()).collect();
            let cp = CosinePoints::new(refs);
            let cond = CondensedMatrix::from_points(&cp);
            assert_eq!(cond.n(), n);
            assert_eq!(cond.entries(), n * (n - 1) / 2);
            assert_eq!(cond.bytes(), n * (n - 1) / 2 * 4);
            assert_eq!(cond.dense_baseline_bytes(), n * n * 4);
            for i in 0..n {
                assert_eq!(cond.get(i, i), 0.0);
                for j in (i + 1)..n {
                    let want = cp.dist(i, j);
                    assert_eq!(cond.at(i, j).to_bits(), want.to_bits(), "n={n} ({i},{j})");
                    assert_eq!(cond.get(j, i).to_bits(), want.to_bits());
                }
                assert_eq!(cond.row_tail(i).len(), n - 1 - i);
            }
        }
    }

    #[test]
    fn condensed_build_invariant_across_thread_counts() {
        let pts = unit_vectors(101, 24, 0x7EA);
        let refs: Vec<&[f32]> = pts.iter().map(|p| p.as_slice()).collect();
        let cp = CosinePoints::new(refs);
        let serial = rayon::with_num_threads(1, || CondensedMatrix::from_points(&cp));
        for t in [2usize, 4, 8] {
            let par = rayon::with_num_threads(t, || CondensedMatrix::from_points(&cp));
            assert!(
                (0..cp.len()).all(|i| {
                    ((i + 1)..cp.len()).all(|j| par.at(i, j).to_bits() == serial.at(i, j).to_bits())
                }),
                "condensed build diverged at {t} threads"
            );
        }
    }

    #[test]
    fn condensed_row_of_inverts_row_start() {
        for n in [2usize, 3, 7, 64, 129] {
            for i in 0..n - 1 {
                let s = CondensedMatrix::row_start(n, i);
                assert_eq!(condensed_row_of(n, s), i);
                if n - 1 - i > 0 {
                    assert_eq!(condensed_row_of(n, s + (n - 2 - i)), i);
                }
            }
        }
    }

    #[test]
    fn condensed_degenerate_sizes() {
        let empty = CosinePoints::new(vec![]);
        let c0 = CondensedMatrix::from_points(&empty);
        assert_eq!((c0.n(), c0.entries(), c0.bytes()), (0, 0, 0));
        let a = [1.0f32, 0.0];
        let one = CosinePoints::new(vec![&a]);
        let c1 = CondensedMatrix::from_points(&one);
        assert_eq!((c1.n(), c1.entries()), (1, 0));
        assert_eq!(c1.get(0, 0), 0.0);
    }
}
