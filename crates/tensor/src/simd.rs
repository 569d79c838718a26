//! Explicit AVX2+FMA kernels behind the [`crate::vector`] dispatch.
//!
//! The safe lane-unrolled kernels in [`crate::vector`] are written so the
//! autovectorizer *can* turn them into SIMD — but whether it actually does
//! depends on fragile SLP-vectorizer heuristics: the same source compiles
//! to clean 8-wide FMA chains in one crate context and to a shuffle-heavy
//! 4-wide form in another (observed with rustc 1.95: presence of a second
//! caller of the kernel closure flips the chosen vector axis and costs
//! 2–4× on the Gram-matrix hot path). The reductions here are the one
//! place in the workspace where that variance is unacceptable, so this
//! module pins the instruction selection with `core::arch` intrinsics.
//!
//! This is the only module in the crate allowed to use `unsafe`; it is
//! compiled (and reachable) only when the build target enables both `avx2`
//! and `fma` — which the repo's `target-cpu=native` build flag does on any
//! modern x86-64 host. Every other configuration uses the safe fallbacks.
//!
//! The accumulator layout (four 8-lane registers per operand row, i.e.
//! [`LANES`] = 32 partial sums) and the reduction tree mirror the safe
//! fallback exactly, so both paths agree up to the usual FMA-vs-mul-add
//! rounding differences of the tails they share.
//!
//! [`gemm`] is the exception to that tolerance: the dense-layer product
//! kernel behind [`crate::Matrix::matmul`] and [`crate::Matrix::t_matmul`]
//! repeats the safe axpy kernel's per-element operation sequence exactly
//! (ascending depth, separate multiply then add, zero coefficients
//! contributing nothing), so the two paths are bit-identical.

#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m256, __m256i, _mm256_add_ps, _mm256_and_ps, _mm256_castps256_ps128, _mm256_cmp_ps,
    _mm256_cmpgt_epi32, _mm256_extractf128_ps, _mm256_fmadd_ps, _mm256_loadu_ps,
    _mm256_maskload_ps, _mm256_maskstore_ps, _mm256_mul_ps, _mm256_set1_epi32, _mm256_set1_ps,
    _mm256_setr_epi32, _mm256_setzero_ps, _mm256_storeu_ps, _mm256_sub_ps, _mm_add_ps, _mm_add_ss,
    _mm_cvtss_f32, _mm_movehl_ps, _mm_shuffle_ps, _CMP_NEQ_UQ,
};

use crate::matrix::{KC, MR, NC};
use crate::vector::LANES;

/// Register-tiled `out += A · B` over one chunk of output rows.
///
/// `out` holds `out.len() / n` rows of width `n`; `b` is the row-major
/// `kd × n` right operand. The left operand is read through strides:
/// `A[i][k] = a[i * a_row + k * a_depth]`, so the same kernel serves
/// `matmul` (`a_row = kd`, `a_depth = 1`) and `t_matmul`, which reads its
/// left operand transposed (`a_row = 1`, `a_depth = cols`).
///
/// Output tiles of [`MR`] rows × 16 (then 8, then a masked 1–7) columns
/// keep their accumulators in registers across a whole [`KC`] depth block;
/// depth blocks and [`NC`] column panels bound the cache-resident slice of
/// `b`. Every output element sees `acc = acc + (A[i][k] * B[k][j])` for
/// ascending `k` — a separate multiply and add, no FMA — with the product
/// masked to `+0.0` (`cmp_neq` + `and`, no branch) where `A[i][k]` is
/// `±0.0`. Adding `+0.0` leaves any accumulator that started at `+0.0`
/// unchanged (it can never become `-0.0`), so this is bit-identical to
/// the safe kernel's skipped update, including where `B` holds NaN or ∞.
///
/// # Panics
///
/// Panics if an operand is too short for the described shapes.
pub fn gemm(
    a: &[f32],
    a_row: usize,
    a_depth: usize,
    b: &[f32],
    out: &mut [f32],
    kd: usize,
    n: usize,
) {
    if out.is_empty() || kd == 0 {
        return;
    }
    let m = out.len() / n;
    assert_eq!(out.len(), m * n, "gemm output is not whole rows");
    assert!(b.len() >= kd * n, "gemm rhs shorter than {kd}x{n}");
    assert!(
        a.len() > (m - 1) * a_row + (kd - 1) * a_depth,
        "gemm lhs shorter than its strides reach"
    );
    let (pa, pb, po) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
    for kb in (0..kd).step_by(KC) {
        let strides = Strides {
            a_row,
            a_depth,
            n,
            depth: KC.min(kd - kb),
        };
        for jb in (0..n).step_by(NC) {
            let jend = (jb + NC).min(n);
            for i in (0..m).step_by(MR) {
                // SAFETY: the asserts above bound every access. Tile
                // `(i, j)` reads `A[i + r][kb + k]` for `r < rows <= m - i`,
                // `k < depth <= kd - kb` — at most offset
                // `(m-1)*a_row + (kd-1)*a_depth < a.len()`; reads
                // `B[kb + k][j..j + width]` with `j + width <= jend <= n`,
                // below `kd*n <= b.len()`; and reads/writes
                // `out[i + r][j..j + width]`, below `m*n == out.len()`.
                // `out` is borrowed mutably for the whole call, so nothing
                // aliases the stores.
                unsafe {
                    let a_tile = pa.add(i * a_row + kb * a_depth);
                    let b_panel = pb.add(kb * n);
                    let o_tile = po.add(i * n);
                    match m - i {
                        1 => row_tile::<1>(a_tile, b_panel, o_tile, jb, jend, strides),
                        2 => row_tile::<2>(a_tile, b_panel, o_tile, jb, jend, strides),
                        3 => row_tile::<3>(a_tile, b_panel, o_tile, jb, jend, strides),
                        _ => row_tile::<MR>(a_tile, b_panel, o_tile, jb, jend, strides),
                    }
                }
            }
        }
    }
}

/// Operand strides and depth shared by every tile of one [`gemm`] block.
#[derive(Clone, Copy)]
struct Strides {
    a_row: usize,
    a_depth: usize,
    n: usize,
    depth: usize,
}

/// One `R`-row strip of output columns `[jb, jend)`: 16-column tiles, then
/// one 8-column tile, then one masked tile for the last 1–7 columns.
///
/// # Safety
///
/// `a` must address `A[0][0]` of the strip, readable at
/// `r * a_row + k * a_depth` for `r < R` and `k < depth`; `b` the first
/// row of the depth block, readable for `depth` rows of `n` at columns
/// below `jend`; and `out` the strip's first row, readable and writable
/// for `R` rows of `n` at columns below `jend <= n`, with nothing else
/// aliasing it.
#[inline(always)]
// SAFETY: the contract above is the caller's; `gemm` is the only caller.
unsafe fn row_tile<const R: usize>(
    a: *const f32,
    b: *const f32,
    out: *mut f32,
    jb: usize,
    jend: usize,
    s: Strides,
) {
    let mut j = jb;
    // SAFETY: every tile below covers columns `[j, j + width)` with
    // `j + width <= jend`, inside the region the caller vouches for; the
    // masked tile enables exactly the `jend - j` lanes that remain.
    unsafe {
        while j + 16 <= jend {
            tile::<R, 2, false>(a, b.add(j), out.add(j), s, all_lanes());
            j += 16;
        }
        if j + 8 <= jend {
            tile::<R, 1, false>(a, b.add(j), out.add(j), s, all_lanes());
            j += 8;
        }
        if j < jend {
            tile::<R, 1, true>(a, b.add(j), out.add(j), s, first_lanes(jend - j));
        }
    }
}

/// Lane mask with every lane enabled (unused by unmasked tiles).
#[inline(always)]
fn all_lanes() -> __m256i {
    // SAFETY: avx2 is statically enabled (module-level cfg); pure register
    // arithmetic, no memory access.
    unsafe { _mm256_set1_epi32(-1) }
}

/// Lane mask enabling lanes `0..w` (sign bit set), for `w <= 8`.
#[inline(always)]
fn first_lanes(w: usize) -> __m256i {
    // SAFETY: avx2 is statically enabled (module-level cfg); pure register
    // arithmetic, no memory access.
    unsafe {
        _mm256_cmpgt_epi32(
            _mm256_set1_epi32(w as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        )
    }
}

/// The micro-kernel: an `R × 8C` output tile whose accumulators stay in
/// registers over the whole depth block. With `MASKED`, `C == 1` and only
/// the lanes enabled in `lanes` are loaded or stored.
///
/// # Safety
///
/// [`row_tile`]'s contract, for the `8C` columns (with `MASKED`, the lanes
/// enabled in `lanes`) at `b` and `out`.
#[inline(always)]
// SAFETY: the contract above is the caller's; `row_tile` is the only caller.
unsafe fn tile<const R: usize, const C: usize, const MASKED: bool>(
    a: *const f32,
    b: *const f32,
    out: *mut f32,
    s: Strides,
    lanes: __m256i,
) {
    // SAFETY: avx2 is statically enabled (module-level cfg). Offsets stay
    // inside the caller's region: `r * n + 8c` for `r < R`, `c < C` on
    // `out`, `k * n + 8c` for `k < depth` on `b`, and
    // `r * a_row + k * a_depth` on `a`. Masked loads and stores touch only
    // enabled lanes, and disabled lanes never fault.
    unsafe {
        let load = |p: *const f32| {
            if MASKED {
                _mm256_maskload_ps(p, lanes)
            } else {
                _mm256_loadu_ps(p)
            }
        };
        let zero = _mm256_setzero_ps();
        let mut acc = [[zero; C]; R];
        for (r, row) in acc.iter_mut().enumerate() {
            for (c, v) in row.iter_mut().enumerate() {
                *v = load(out.add(r * s.n + 8 * c));
            }
        }
        for k in 0..s.depth {
            let bk = b.add(k * s.n);
            let mut bv = [zero; C];
            for (c, v) in bv.iter_mut().enumerate() {
                *v = load(bk.add(8 * c));
            }
            for (r, row) in acc.iter_mut().enumerate() {
                let coeff = _mm256_set1_ps(*a.add(r * s.a_row + k * s.a_depth));
                let live = _mm256_cmp_ps::<_CMP_NEQ_UQ>(coeff, zero);
                for (v, &bc) in row.iter_mut().zip(&bv) {
                    *v = _mm256_add_ps(*v, _mm256_and_ps(_mm256_mul_ps(coeff, bc), live));
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                let p = out.add(r * s.n + 8 * c);
                if MASKED {
                    _mm256_maskstore_ps(p, lanes, v);
                } else {
                    _mm256_storeu_ps(p, v);
                }
            }
        }
    }
}

/// Dot product over the main [`LANES`]-multiple prefix plus a scalar tail.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = b.len();
    let main = n - n % LANES;
    // SAFETY: avx2+fma are statically enabled (this module only compiles
    // under `cfg(all(target_feature = "avx2", target_feature = "fma"))`, see
    // the module docs), so the intrinsics cannot fault. Every unaligned load
    // reads 8 floats at offset `i + {0,8,16,24}` with `i + 32 <= main`, and
    // `main <= a.len() == b.len()` (lengths asserted equal above), so all
    // accesses stay inside the two live slices.
    unsafe {
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut i = 0;
        while i < main {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc0);
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pa.add(i + 8)),
                _mm256_loadu_ps(pb.add(i + 8)),
                acc1,
            );
            acc2 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pa.add(i + 16)),
                _mm256_loadu_ps(pb.add(i + 16)),
                acc2,
            );
            acc3 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pa.add(i + 24)),
                _mm256_loadu_ps(pb.add(i + 24)),
                acc3,
            );
            i += LANES;
        }
        let mut tail = 0.0f32;
        for k in main..n {
            tail = a[k].mul_add(b[k], tail);
        }
        reduce4(acc0, acc1, acc2, acc3) + tail
    }
}

/// Two dot products sharing one streamed `b`; see [`crate::vector::dot2`].
#[inline]
pub fn dot2(a0: &[f32], a1: &[f32], b: &[f32]) -> [f32; 2] {
    debug_assert_eq!(a0.len(), b.len());
    debug_assert_eq!(a1.len(), b.len());
    let n = b.len();
    let main = n - n % LANES;
    // SAFETY: avx2+fma are statically enabled (module-level cfg), so the
    // intrinsics cannot fault. Each load reads 8 floats at `i + {0,8,16,24}`
    // with `i + 32 <= main`, and `main` is bounded by the asserted-equal
    // lengths of all three slices, so every access is in bounds.
    unsafe {
        let (p0, p1, pb) = (a0.as_ptr(), a1.as_ptr(), b.as_ptr());
        let mut acc00 = _mm256_setzero_ps();
        let mut acc01 = _mm256_setzero_ps();
        let mut acc02 = _mm256_setzero_ps();
        let mut acc03 = _mm256_setzero_ps();
        let mut acc10 = _mm256_setzero_ps();
        let mut acc11 = _mm256_setzero_ps();
        let mut acc12 = _mm256_setzero_ps();
        let mut acc13 = _mm256_setzero_ps();
        let mut i = 0;
        while i < main {
            let b0 = _mm256_loadu_ps(pb.add(i));
            let b1 = _mm256_loadu_ps(pb.add(i + 8));
            let b2 = _mm256_loadu_ps(pb.add(i + 16));
            let b3 = _mm256_loadu_ps(pb.add(i + 24));
            acc00 = _mm256_fmadd_ps(_mm256_loadu_ps(p0.add(i)), b0, acc00);
            acc01 = _mm256_fmadd_ps(_mm256_loadu_ps(p0.add(i + 8)), b1, acc01);
            acc02 = _mm256_fmadd_ps(_mm256_loadu_ps(p0.add(i + 16)), b2, acc02);
            acc03 = _mm256_fmadd_ps(_mm256_loadu_ps(p0.add(i + 24)), b3, acc03);
            acc10 = _mm256_fmadd_ps(_mm256_loadu_ps(p1.add(i)), b0, acc10);
            acc11 = _mm256_fmadd_ps(_mm256_loadu_ps(p1.add(i + 8)), b1, acc11);
            acc12 = _mm256_fmadd_ps(_mm256_loadu_ps(p1.add(i + 16)), b2, acc12);
            acc13 = _mm256_fmadd_ps(_mm256_loadu_ps(p1.add(i + 24)), b3, acc13);
            i += LANES;
        }
        let mut t0 = 0.0f32;
        let mut t1 = 0.0f32;
        for k in main..n {
            t0 = a0[k].mul_add(b[k], t0);
            t1 = a1[k].mul_add(b[k], t1);
        }
        [
            reduce4(acc00, acc01, acc02, acc03) + t0,
            reduce4(acc10, acc11, acc12, acc13) + t1,
        ]
    }
}

/// Squared Euclidean distance; exactly `0.0` for identical inputs
/// (every difference is `0.0` before accumulation).
#[inline]
pub fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = b.len();
    let main = n - n % LANES;
    // SAFETY: avx2+fma are statically enabled (module-level cfg), so the
    // intrinsics cannot fault. Each load reads 8 floats at `i + {0,8,16,24}`
    // with `i + 32 <= main <= a.len() == b.len()` (lengths asserted equal
    // above), so every access stays inside the two live slices.
    unsafe {
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut i = 0;
        while i < main {
            let d0 = _mm256_sub_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)));
            let d1 = _mm256_sub_ps(
                _mm256_loadu_ps(pa.add(i + 8)),
                _mm256_loadu_ps(pb.add(i + 8)),
            );
            let d2 = _mm256_sub_ps(
                _mm256_loadu_ps(pa.add(i + 16)),
                _mm256_loadu_ps(pb.add(i + 16)),
            );
            let d3 = _mm256_sub_ps(
                _mm256_loadu_ps(pa.add(i + 24)),
                _mm256_loadu_ps(pb.add(i + 24)),
            );
            acc0 = _mm256_fmadd_ps(d0, d0, acc0);
            acc1 = _mm256_fmadd_ps(d1, d1, acc1);
            acc2 = _mm256_fmadd_ps(d2, d2, acc2);
            acc3 = _mm256_fmadd_ps(d3, d3, acc3);
            i += LANES;
        }
        let mut tail = 0.0f32;
        for k in main..n {
            let d = a[k] - b[k];
            tail = d.mul_add(d, tail);
        }
        reduce4(acc0, acc1, acc2, acc3) + tail
    }
}

/// Horizontal sum of four 8-lane accumulators with a balanced tree:
/// `(a+b) + (c+d)` lanewise, then `8 → 4 → 2 → 1`.
#[inline]
// SAFETY: callers must (and do — this fn is module-private) run under the
// avx2 target feature; with that established the body is pure register
// arithmetic with no memory access, so there is no pointer obligation.
unsafe fn reduce4(a: __m256, b: __m256, c: __m256, d: __m256) -> f32 {
    // SAFETY: avx2 is statically enabled (module-level cfg); pure register
    // arithmetic, no memory access.
    unsafe {
        let s = _mm256_add_ps(_mm256_add_ps(a, b), _mm256_add_ps(c, d));
        let q = _mm_add_ps(_mm256_castps256_ps128(s), _mm256_extractf128_ps(s, 1));
        let h = _mm_add_ps(q, _mm_movehl_ps(q, q));
        _mm_cvtss_f32(_mm_add_ss(h, _mm_shuffle_ps(h, h, 1)))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn simd_dot_matches_scalar() {
        let a: Vec<f32> = (0..77).map(|i| i as f32 * 0.25 - 9.0).collect();
        let b: Vec<f32> = (0..77).map(|i| 3.0 - i as f32 * 0.125).collect();
        let scalar: f64 = a.iter().zip(&b).map(|(&x, &y)| (x as f64) * y as f64).sum();
        let fast = super::dot(&a, &b) as f64;
        assert!((fast - scalar).abs() < 1e-2 * scalar.abs().max(1.0));
        let pair = super::dot2(&a, &a, &b);
        assert_eq!(pair[0], pair[1]);
        assert_eq!(pair[0], super::dot(&a, &b));
    }

    #[test]
    fn simd_sq_dist_identical_is_zero() {
        let a: Vec<f32> = (0..100).map(|i| (i as f32).sin()).collect();
        assert_eq!(super::sq_dist(&a, &a), 0.0);
    }
}
