//! Tiled gram (pairwise dot-product) kernels.
//!
//! The construction front-end evaluates *blocks* of inner products — every
//! tag against every tag for the pairwise-distance store, every point
//! against every medoid for k-medoids assignment. Evaluating them one
//! [`dot`] at a time re-loads both operand vectors from memory per pair;
//! at lake scale (50k attributes) the operands no longer fit in cache and
//! the kernel becomes memory-bound.
//!
//! [`gram_into`] instead walks the output in `GRAM_TILE_ROWS ×
//! GRAM_TILE_COLS` micro-tiles: one pass over the shared dimension per
//! tile, with each of the tile's row chunks loaded once and reused against
//! every column chunk (and vice versa), cutting operand traffic by
//! `~2·R·C/(R+C)` versus the one-pair-at-a-time loop.
//!
//! **Bit-identity contract.** Every output element is produced by exactly
//! the [`dot`] reduction: eight independent accumulator lanes filled in
//! ascending chunk order, the fixed balanced-tree lane reduction
//! `((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7))`, and the scalar tail added
//! last. Tiling only interleaves *independent* per-element accumulators —
//! it never reassociates a single element's sum — so
//! `gram_into(rows, cols, out)` satisfies
//! `out[r·C + c].to_bits() == dot(row(r), col(c)).to_bits()` for every
//! shape, including ragged edges where the row/column counts or the
//! dimension are not multiples of the tile size. Those edges run the same
//! micro-tile at narrower shapes: the ragged column edge of each full row
//! band as `GRAM_TILE_ROWS × 1` tiles, the ragged row edge as `1 × 1`
//! tiles. A one-column block (a k-means++ seeding sweep) therefore rides
//! the tile kernel too, never a plain `dot` loop. Property-tested against
//! [`dot_scalar_ref`].
//!
//! Operands are reached through `row(r)` / `col(c)` accessors rather than
//! slices of slices, so a caller holding a point table and index lists
//! (`CosinePoints::dist_block` in `dln-cluster`) gathers nothing per call:
//! each tile builds its `R + C` operand references on the stack.
//!
//! **SIMD widening.** On `x86_64` hosts with AVX2 the micro-tile's eight
//! accumulator lanes are held in one `__m256` register per output element
//! (runtime-detected; `DLN_SIMD=0` forces the scalar path). The vector
//! body performs *exactly* the scalar recurrence — `_mm256_mul_ps`
//! followed by `_mm256_add_ps` per chunk, then the same balanced-tree
//! lane reduction in scalar code — so the bit-identity contract holds on
//! both paths and the property tests serve as the gating oracle. True
//! fused multiply-add (`vfmadd*`) is deliberately **not** used: FMA skips
//! the intermediate rounding of the product, which changes low-order bits
//! and would silently fork the scalar and vector results.
//!
//! [`dot`]: crate::vector::dot
//! [`dot_scalar_ref`]: crate::vector::dot_scalar_ref

/// Rows per micro-tile of [`gram_into`].
pub const GRAM_TILE_ROWS: usize = 4;
/// Columns per micro-tile of [`gram_into`].
pub const GRAM_TILE_COLS: usize = 4;

/// One `R × C` micro-tile: a single pass over the shared dimension,
/// maintaining an independent 8-lane accumulator group per output element
/// so each element reproduces the [`dot`] reduction bit-for-bit.
///
/// [`dot`]: crate::vector::dot
#[inline]
fn gram_tile<const R: usize, const C: usize>(
    rows: &[&[f32]; R],
    cols: &[&[f32]; C],
    out: &mut [f32],
    out_stride: usize,
) {
    let d = rows[0].len();
    let chunks = d / 8 * 8;
    let mut acc = [[[0.0f32; 8]; C]; R];
    let mut i = 0;
    while i < chunks {
        for (r, row) in rows.iter().enumerate() {
            let a = &row[i..i + 8];
            for (c, col) in cols.iter().enumerate() {
                let b = &col[i..i + 8];
                let lanes = &mut acc[r][c];
                for k in 0..8 {
                    lanes[k] += a[k] * b[k];
                }
            }
        }
        i += 8;
    }
    for (r, row) in rows.iter().enumerate() {
        for (c, col) in cols.iter().enumerate() {
            let mut tail = 0.0f32;
            for j in chunks..d {
                tail += row[j] * col[j];
            }
            let l = &acc[r][c];
            out[r * out_stride + c] =
                (((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))) + tail;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2 micro-tile: one 8-lane register per output element, same
    //! recurrence and reduction as the scalar tile (see the module docs
    //! for why FMA is excluded).
    use std::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_setzero_ps, _mm256_storeu_ps,
    };

    /// # Safety
    /// Caller must have verified AVX2 support at runtime, and every row /
    /// column slice must hold at least `rows[0].len()` elements.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gram_tile<const R: usize, const C: usize>(
        rows: &[&[f32]; R],
        cols: &[&[f32]; C],
        out: &mut [f32],
        out_stride: usize,
    ) {
        let d = rows[0].len();
        let chunks = d / 8 * 8;
        let mut acc = [[_mm256_setzero_ps(); C]; R];
        let mut i = 0;
        while i < chunks {
            let mut av: [__m256; R] = [_mm256_setzero_ps(); R];
            for (r, row) in rows.iter().enumerate() {
                av[r] = _mm256_loadu_ps(row.as_ptr().add(i));
            }
            for (c, col) in cols.iter().enumerate() {
                let bv = _mm256_loadu_ps(col.as_ptr().add(i));
                for (r, &a) in av.iter().enumerate() {
                    // mul then add — NOT vfmadd: fusing would skip the
                    // product rounding and break bit-identity with `dot`.
                    acc[r][c] = _mm256_add_ps(acc[r][c], _mm256_mul_ps(a, bv));
                }
            }
            i += 8;
        }
        for (r, row) in rows.iter().enumerate() {
            for (c, col) in cols.iter().enumerate() {
                let mut l = [0.0f32; 8];
                _mm256_storeu_ps(l.as_mut_ptr(), acc[r][c]);
                let mut tail = 0.0f32;
                for j in chunks..d {
                    tail += row[j] * col[j];
                }
                out[r * out_stride + c] =
                    (((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))) + tail;
            }
        }
    }
}

/// Is the AVX2 tile usable on this host? Runtime-detected once;
/// `DLN_SIMD=0` forces the scalar path (useful for A/B-ing the oracle).
#[cfg(target_arch = "x86_64")]
fn use_avx2() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ON.get_or_init(|| {
        !std::env::var("DLN_SIMD").is_ok_and(|v| v.trim() == "0")
            && std::arch::is_x86_feature_detected!("avx2")
    })
}

/// Run one micro-tile on the widest bit-identical kernel available.
#[inline]
fn gram_tile_dispatch<const R: usize, const C: usize>(
    rows: &[&[f32]; R],
    cols: &[&[f32]; C],
    out: &mut [f32],
    out_stride: usize,
) {
    let d = rows[0].len();
    assert!(
        rows.iter().chain(cols).all(|v| v.len() == d),
        "gram tile operands disagree on dimensionality"
    );
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: AVX2 presence checked above, and every operand holds the
        // `rows[0].len()` elements the vector loads read (asserted above);
        // `out` is written through bounds-checked indexing.
        unsafe { avx2::gram_tile::<R, C>(rows, cols, out, out_stride) };
        return;
    }
    gram_tile::<R, C>(rows, cols, out, out_stride)
}

/// Write the `nr × nc` gram block `out[r * nc + c] = dot(row(r), col(c))`
/// (row-major), walking full [`GRAM_TILE_ROWS`]`×`[`GRAM_TILE_COLS`]
/// micro-tiles, the ragged column edge of each full row band as
/// `GRAM_TILE_ROWS × 1` tiles and the ragged row edge as `1 × 1` tiles.
/// Every shape runs the same recurrence, so every element is
/// bit-identical to `dot(row(r), col(c))`.
///
/// # Panics
/// Panics when the vectors disagree on dimensionality, and in debug builds
/// when `out.len() != nr * nc`.
pub fn gram_into<'a>(
    nr: usize,
    nc: usize,
    row: impl Fn(usize) -> &'a [f32],
    col: impl Fn(usize) -> &'a [f32],
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), nr * nc, "gram_into: output shape mismatch");
    if nr == 0 || nc == 0 {
        return;
    }
    let full_r = nr / GRAM_TILE_ROWS * GRAM_TILE_ROWS;
    let full_c = nc / GRAM_TILE_COLS * GRAM_TILE_COLS;
    let mut r = 0;
    while r < full_r {
        let rb: [&[f32]; GRAM_TILE_ROWS] = std::array::from_fn(|i| row(r + i));
        let mut c = 0;
        while c < full_c {
            let cb: [&[f32]; GRAM_TILE_COLS] = std::array::from_fn(|i| col(c + i));
            gram_tile_dispatch(&rb, &cb, &mut out[r * nc + c..], nc);
            c += GRAM_TILE_COLS;
        }
        // Ragged column edge of this row band.
        for c in full_c..nc {
            gram_tile_dispatch(&rb, &[col(c)], &mut out[r * nc + c..], nc);
        }
        r += GRAM_TILE_ROWS;
    }
    // Ragged row edge (all columns).
    for r in full_r..nr {
        let rv = [row(r)];
        for c in 0..nc {
            gram_tile_dispatch(&rv, &[col(c)], &mut out[r * nc + c..], nc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::dot_scalar_ref;

    fn vecs(n: usize, d: usize, salt: u64) -> Vec<Vec<f32>> {
        let mut state = salt | 1;
        (0..n)
            .map(|_| {
                (0..d)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        ((state >> 11) as f64 / (1u64 << 53) as f64) as f32 - 0.5
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn gram_matches_scalar_reference_bitwise_on_ragged_shapes() {
        // Satellite contract: tiled gram kernel bit-identity vs
        // dot_scalar_ref on ragged tile edges — every (n_rows, n_cols, d)
        // where neither the tile size (4) nor the lane width (8) divides
        // the shape, plus the one-column strips k-means++ seeding sends.
        let shapes = [
            (1usize, 1usize),
            (3, 5),
            (4, 4),
            (5, 9),
            (8, 3),
            (9, 13),
            (4, 1),
            (67, 1),
            (1, 6),
        ];
        for &(nr, nc) in &shapes {
            for &d in &[0usize, 1, 7, 8, 9, 16, 23, 50, 64, 100] {
                let rs = vecs(nr, d, 0xA11CE ^ (nr as u64) << 8 ^ d as u64);
                let cs = vecs(nc, d, 0xB0B ^ (nc as u64) << 8 ^ d as u64);
                let mut out = vec![f32::NAN; nr * nc];
                gram_into(nr, nc, |r| &rs[r], |c| &cs[c], &mut out);
                for r in 0..nr {
                    for c in 0..nc {
                        assert_eq!(
                            out[r * nc + c].to_bits(),
                            dot_scalar_ref(&rs[r], &cs[c]).to_bits(),
                            "tile kernel diverged at ({r}, {c}) of {nr}x{nc}, d={d}"
                        );
                    }
                }
            }
        }
    }

    /// Run one `R × C` tile through the scalar and the AVX2 kernel and
    /// require equal bits in every element.
    #[cfg(target_arch = "x86_64")]
    fn assert_avx2_tile_matches_scalar<const R: usize, const C: usize>(d: usize) {
        let rs = vecs(R, d, 0xDEAD ^ (R as u64) << 12 ^ d as u64);
        let cs = vecs(C, d, 0xBEEF ^ (C as u64) << 12 ^ d as u64);
        let rrefs: [&[f32]; R] = std::array::from_fn(|i| rs[i].as_slice());
        let crefs: [&[f32]; C] = std::array::from_fn(|i| cs[i].as_slice());
        let mut scalar = vec![f32::NAN; R * C];
        let mut simd = vec![f32::NAN; R * C];
        gram_tile(&rrefs, &crefs, &mut scalar, C);
        // SAFETY: the caller checked AVX2 support; every operand has d
        // elements.
        unsafe { avx2::gram_tile(&rrefs, &crefs, &mut simd, C) };
        for (i, (s, v)) in scalar.iter().zip(&simd).enumerate() {
            assert_eq!(
                s.to_bits(),
                v.to_bits(),
                "AVX2 {R}x{C} tile diverged at element {i}, d={d}"
            );
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn avx2_tile_is_bit_identical_to_scalar_tile() {
        // The gating oracle for the SIMD path, run directly against the
        // scalar tile (not through dispatch) so it checks the vector
        // kernel even if this binary's dispatch decided otherwise. Covers
        // every shape gram_into dispatches: full tiles, the ragged column
        // edge and the ragged row edge.
        if !std::arch::is_x86_feature_detected!("avx2") {
            return; // scalar fallback host: nothing to gate
        }
        for &d in &[0usize, 7, 8, 9, 31, 32, 64, 100, 129] {
            assert_avx2_tile_matches_scalar::<GRAM_TILE_ROWS, GRAM_TILE_COLS>(d);
            assert_avx2_tile_matches_scalar::<GRAM_TILE_ROWS, 1>(d);
            assert_avx2_tile_matches_scalar::<1, 1>(d);
        }
    }

    #[test]
    #[should_panic(expected = "disagree on dimensionality")]
    fn gram_rejects_operands_of_different_dimensionality() {
        // A short column must not reach the vector loads, which read
        // `rows[0].len()` elements from every operand.
        let long = [1.0f32; 16];
        let short = [1.0f32; 4];
        let mut out = vec![0.0f32; 4];
        gram_into(4, 1, |_| &long, |_| &short, &mut out);
    }

    #[test]
    fn gram_empty_sides_are_noops() {
        let a = [1.0f32, 2.0];
        let mut out: Vec<f32> = Vec::new();
        gram_into(0, 1, |_| &a, |_| &a, &mut out);
        gram_into(1, 0, |_| &a, |_| &a, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn gram_matches_unrolled_dot_bitwise() {
        let rs = vecs(7, 33, 0x5EED);
        let cs = vecs(6, 33, 0xFACE);
        let mut out = vec![0.0f32; 42];
        gram_into(7, 6, |r| &rs[r], |c| &cs[c], &mut out);
        for r in 0..7 {
            for c in 0..6 {
                assert_eq!(
                    out[r * 6 + c].to_bits(),
                    crate::vector::dot(&rs[r], &cs[c]).to_bits()
                );
            }
        }
    }
}
