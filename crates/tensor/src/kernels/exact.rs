//! Bit-exact AVX2 bodies for the reference products (`x86_64`,
//! runtime-dispatched by [`super`]).
//!
//! Each output lane computes what the portable loops in
//! [`super::portable`] compute for that element: start from `+0.0`,
//! then for ascending `k` one rounded multiply and one rounded add,
//! `acc = _mm256_add_ps(acc, _mm256_mul_ps(a, b))`. The functions enable
//! `avx2` alone, never `fma`, so nothing can fuse the pair, and lanes
//! never mix, so nothing reassociates: the results are the portable
//! loops' bits, 8 outputs at a time.
//!
//! Tiles are `MR ≤ 4` rows × up to 16 columns (two vectors) whose
//! accumulators stay in registers for the whole `k` loop; a column
//! fringe of 1..7 runs one masked vector, whose idle lanes are never
//! stored.
//!
//! Every function is `unsafe`: the caller must confirm AVX2 at runtime,
//! and slice lengths must match the dimensions (`a.len() == m * k`,
//! etc.). The dispatch layer checks AVX2 once per process and derives
//! the dimensions from [`crate::Tensor`] shapes, so both hold.

// Index loops over the const-sized tile arrays mirror the register math.
#![allow(clippy::needless_range_loop)]

use core::arch::x86_64::*;

/// `o = a @ b` for row-major `a: m×k`, `b: k×n`, `o: m×n`.
///
/// # Safety
///
/// AVX2 must be available; slice lengths must match the dimensions.
#[target_feature(enable = "avx2")]
pub unsafe fn matmul(a: &[f32], b: &[f32], o: &mut [f32], m: usize, kdim: usize, n: usize) {
    debug_assert_eq!(a.len(), m * kdim);
    debug_assert_eq!(b.len(), kdim * n);
    debug_assert_eq!(o.len(), m * n);
    let g = Gemm {
        a: a.as_ptr(),
        a_row: kdim,
        a_k: 1,
        b: b.as_ptr(),
        o: o.as_mut_ptr(),
        kdim,
        n,
    };
    gemm::<false>(g, m);
}

/// `o = aᵀ @ b` for row-major `a: k×m`, `b: k×n`, `o: m×n`, skipping
/// every term whose `a` entry is `±0.0`, as the portable loop does.
///
/// # Safety
///
/// AVX2 must be available; slice lengths must match the dimensions.
#[target_feature(enable = "avx2")]
pub unsafe fn matmul_tn(a: &[f32], b: &[f32], o: &mut [f32], kdim: usize, m: usize, n: usize) {
    debug_assert_eq!(a.len(), kdim * m);
    debug_assert_eq!(b.len(), kdim * n);
    debug_assert_eq!(o.len(), m * n);
    let g = Gemm {
        a: a.as_ptr(),
        a_row: 1,
        a_k: m,
        b: b.as_ptr(),
        o: o.as_mut_ptr(),
        kdim,
        n,
    };
    gemm::<true>(g, m);
}

/// One product's operands: `a(i, k)` lives at `a + i * a_row + k * a_k`
/// (so one kernel serves `a` and `aᵀ`), `b(k, j)` at `b + k * n + j` and
/// `o(i, j)` at `o + i * n + j`.
#[derive(Clone, Copy)]
struct Gemm {
    a: *const f32,
    a_row: usize,
    a_k: usize,
    b: *const f32,
    o: *mut f32,
    kdim: usize,
    n: usize,
}

impl Gemm {
    /// The operands of the tile whose top-left output is `(i, j)`.
    fn at(self, i: usize, j: usize) -> Gemm {
        Gemm {
            a: self.a.wrapping_add(i * self.a_row),
            b: self.b.wrapping_add(j),
            o: self.o.wrapping_add(i * self.n + j),
            ..self
        }
    }
}

/// All `m` output rows: 4-row bands, then one band of the 1..3 left.
#[target_feature(enable = "avx2")]
unsafe fn gemm<const SKIP_ZERO: bool>(g: Gemm, m: usize) {
    let mut i = 0;
    while i + 4 <= m {
        band::<4, SKIP_ZERO>(g.at(i, 0));
        i += 4;
    }
    match m - i {
        3 => band::<3, SKIP_ZERO>(g.at(i, 0)),
        2 => band::<2, SKIP_ZERO>(g.at(i, 0)),
        1 => band::<1, SKIP_ZERO>(g.at(i, 0)),
        _ => {}
    }
}

/// One `MR`-row band: 16-column tiles, then an 8-column tile, then a
/// masked tile for the last 1..7 columns.
#[target_feature(enable = "avx2")]
unsafe fn band<const MR: usize, const SKIP_ZERO: bool>(g: Gemm) {
    let full = _mm256_set1_epi32(-1);
    let mut j = 0;
    while j + 16 <= g.n {
        tile::<MR, 2, false, SKIP_ZERO>(g.at(0, j), full);
        j += 16;
    }
    if j + 8 <= g.n {
        tile::<MR, 1, false, SKIP_ZERO>(g.at(0, j), full);
        j += 8;
    }
    if j < g.n {
        // Lane `l` is live when `l < n - j`.
        let live = _mm256_cmpgt_epi32(
            _mm256_set1_epi32((g.n - j) as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        );
        tile::<MR, 1, true, SKIP_ZERO>(g.at(0, j), live);
    }
}

/// One `MR × 8·NV` output tile with its accumulators in registers. When
/// `MASKED`, the last vector loads and stores only the lanes set in
/// `live`; the idle lanes load `0.0` and are never written back.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn tile<const MR: usize, const NV: usize, const MASKED: bool, const SKIP_ZERO: bool>(
    g: Gemm,
    live: __m256i,
) {
    let mut acc = [[_mm256_setzero_ps(); NV]; MR];
    for k in 0..g.kdim {
        let b_row = g.b.add(k * g.n);
        let mut bv = [_mm256_setzero_ps(); NV];
        for v in 0..NV {
            bv[v] = if MASKED && v + 1 == NV {
                _mm256_maskload_ps(b_row.add(8 * v), live)
            } else {
                _mm256_loadu_ps(b_row.add(8 * v))
            };
        }
        for r in 0..MR {
            let a_rk = *g.a.add(r * g.a_row + k * g.a_k);
            if SKIP_ZERO && a_rk == 0.0 {
                continue;
            }
            let av = _mm256_set1_ps(a_rk);
            for v in 0..NV {
                acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(av, bv[v]));
            }
        }
    }
    for r in 0..MR {
        let o_row = g.o.add(r * g.n);
        for v in 0..NV {
            if MASKED && v + 1 == NV {
                _mm256_maskstore_ps(o_row.add(8 * v), live, acc[r][v]);
            } else {
                _mm256_storeu_ps(o_row.add(8 * v), acc[r][v]);
            }
        }
    }
}
