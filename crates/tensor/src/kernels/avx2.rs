//! AVX2 + FMA kernels (`x86_64`, runtime-dispatched).
//!
//! Every function here is `unsafe` and annotated with
//! `#[target_feature(enable = "avx2,fma")]`: the caller (the dispatch
//! layer in [`super`]) must confirm both features at runtime before
//! calling. Dimensions are passed explicitly and must match the slice
//! lengths (`a.len() == m * k`, etc.) — the dispatch layer derives them
//! from [`crate::Tensor`] shapes, so they hold by construction.
//!
//! Accumulation discipline: each output lane accumulates in ascending-`k`
//! order, exactly like the scalar blocked kernels, but multiply-adds are
//! fused (FMA) and reductions are 8-lane parallel, so results differ
//! from scalar by a few ULP. Product column fringes and the row-wise
//! kernels' column tails that do not fill a vector fall back to plain
//! scalar arithmetic. GELU has no such fringe: its last 1..7 elements
//! run one masked vector through the same lane math, so an element's
//! value never depends on where it sits in the buffer.

// Index-based loops mirror the register-tile math and keep the
// addressing obviously in-bounds next to the pointer arithmetic.
#![allow(clippy::needless_range_loop)]

use core::arch::x86_64::*;

/// Horizontal sum of all 8 lanes.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn hsum(v: __m256) -> f32 {
    let lo = _mm256_castps256_ps128(v);
    let hi = _mm256_extractf128_ps::<1>(v);
    let s = _mm_add_ps(lo, hi);
    let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    let s = _mm_add_ss(s, _mm_shuffle_ps::<1>(s, s));
    _mm_cvtss_f32(s)
}

/// Horizontal max of all 8 lanes.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn hmax(v: __m256) -> f32 {
    let lo = _mm256_castps256_ps128(v);
    let hi = _mm256_extractf128_ps::<1>(v);
    let m = _mm_max_ps(lo, hi);
    let m = _mm_max_ps(m, _mm_movehl_ps(m, m));
    let m = _mm_max_ss(m, _mm_shuffle_ps::<1>(m, m));
    _mm_cvtss_f32(m)
}

/// Vectorized `exp` (Cephes-style range reduction + degree-5
/// polynomial), accurate to ~1 ULP over the clamped domain.
#[target_feature(enable = "avx2,fma")]
unsafe fn exp_ps(x: __m256) -> __m256 {
    const EXP_HI: f32 = 88.376_26;
    const EXP_LO: f32 = -88.376_26;
    // ln(2) split into a high part exact in f32 and a low correction,
    // spelled as bit patterns so the split stays exact.
    const LN2_HI: f32 = f32::from_bits(0x3F31_8000); // 0.693359375
    const LN2_LO: f32 = f32::from_bits(0xB95E_8083); // -2.12194440e-4
    const P0: f32 = 1.987_569_1e-4;
    const P1: f32 = 1.398_199_9e-3;
    const P2: f32 = 8.333_452e-3;
    const P3: f32 = 4.166_579_5e-2;
    const P4: f32 = 1.666_666_6e-1;
    const P5: f32 = 0.5;
    let x = _mm256_min_ps(x, _mm256_set1_ps(EXP_HI));
    let x = _mm256_max_ps(x, _mm256_set1_ps(EXP_LO));
    let fx = _mm256_floor_ps(_mm256_fmadd_ps(
        x,
        _mm256_set1_ps(std::f32::consts::LOG2_E),
        _mm256_set1_ps(0.5),
    ));
    let x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(LN2_HI), x);
    let x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(LN2_LO), x);
    let mut y = _mm256_set1_ps(P0);
    y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(P1));
    y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(P2));
    y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(P3));
    y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(P4));
    y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(P5));
    y = _mm256_fmadd_ps(y, _mm256_mul_ps(x, x), x);
    y = _mm256_add_ps(y, _mm256_set1_ps(1.0));
    // Scale by 2^floor: build the exponent bits directly.
    let n = _mm256_cvtps_epi32(fx);
    let n = _mm256_add_epi32(n, _mm256_set1_epi32(0x7f));
    let pow2 = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(n));
    _mm256_mul_ps(y, pow2)
}

/// Vectorized tanh via `exp`: `tanh(x) = (1 - e^(-2x)) / (1 + e^(-2x))`.
/// The clamped `exp` keeps both extremes finite, so the quotient
/// saturates cleanly to ±1.
#[target_feature(enable = "avx2,fma")]
unsafe fn tanh_ps(x: __m256) -> __m256 {
    let e = exp_ps(_mm256_mul_ps(x, _mm256_set1_ps(-2.0)));
    let one = _mm256_set1_ps(1.0);
    _mm256_div_ps(_mm256_sub_ps(one, e), _mm256_add_ps(one, e))
}

/// `o = a @ b` for row-major `a: m×k`, `b: k×n`, `o: m×n`.
///
/// # Safety
///
/// AVX2+FMA must be available; slice lengths must match the dimensions.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn matmul_into(a: &[f32], b: &[f32], o: &mut [f32], m: usize, kdim: usize, n: usize) {
    debug_assert_eq!(a.len(), m * kdim);
    debug_assert_eq!(b.len(), kdim * n);
    debug_assert_eq!(o.len(), m * n);
    let mut i = 0;
    while i + 4 <= m {
        matmul_rows::<4>(a, b, o, i, kdim, n);
        i += 4;
    }
    while i < m {
        matmul_rows::<1>(a, b, o, i, kdim, n);
        i += 1;
    }
}

/// One `MR`-row band of the matmul: 16-wide tiles, then an 8-wide tile,
/// then a scalar column fringe.
#[target_feature(enable = "avx2,fma")]
unsafe fn matmul_rows<const MR: usize>(
    a: &[f32],
    b: &[f32],
    o: &mut [f32],
    i: usize,
    kdim: usize,
    n: usize,
) {
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let op = o.as_mut_ptr();
    let mut j = 0;
    while j + 16 <= n {
        let mut acc0 = [_mm256_setzero_ps(); MR];
        let mut acc1 = [_mm256_setzero_ps(); MR];
        for k in 0..kdim {
            let b0 = _mm256_loadu_ps(bp.add(k * n + j));
            let b1 = _mm256_loadu_ps(bp.add(k * n + j + 8));
            for r in 0..MR {
                let av = _mm256_set1_ps(*ap.add((i + r) * kdim + k));
                acc0[r] = _mm256_fmadd_ps(av, b0, acc0[r]);
                acc1[r] = _mm256_fmadd_ps(av, b1, acc1[r]);
            }
        }
        for r in 0..MR {
            _mm256_storeu_ps(op.add((i + r) * n + j), acc0[r]);
            _mm256_storeu_ps(op.add((i + r) * n + j + 8), acc1[r]);
        }
        j += 16;
    }
    while j + 8 <= n {
        let mut acc = [_mm256_setzero_ps(); MR];
        for k in 0..kdim {
            let b0 = _mm256_loadu_ps(bp.add(k * n + j));
            for r in 0..MR {
                let av = _mm256_set1_ps(*ap.add((i + r) * kdim + k));
                acc[r] = _mm256_fmadd_ps(av, b0, acc[r]);
            }
        }
        for r in 0..MR {
            _mm256_storeu_ps(op.add((i + r) * n + j), acc[r]);
        }
        j += 8;
    }
    while j < n {
        for r in 0..MR {
            let mut sum = 0.0f32;
            for k in 0..kdim {
                sum += *ap.add((i + r) * kdim + k) * *bp.add(k * n + j);
            }
            *op.add((i + r) * n + j) = sum;
        }
        j += 1;
    }
}

/// `o = a @ b^T` for row-major `a: m×k`, `b: n×k`, `o: m×n` — 8-lane
/// dot products over the rows of both operands, no transpose
/// materialized.
///
/// # Safety
///
/// AVX2+FMA must be available; slice lengths must match the dimensions.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn matmul_nt_into(a: &[f32], b: &[f32], o: &mut [f32], m: usize, kdim: usize, n: usize) {
    debug_assert_eq!(a.len(), m * kdim);
    debug_assert_eq!(b.len(), n * kdim);
    debug_assert_eq!(o.len(), m * n);
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let op = o.as_mut_ptr();
    for i in 0..m {
        let ar = ap.add(i * kdim);
        let mut j = 0;
        while j < n {
            let jb = (n - j).min(4);
            let mut acc = [_mm256_setzero_ps(); 4];
            let mut k = 0;
            while k + 8 <= kdim {
                let av = _mm256_loadu_ps(ar.add(k));
                for c in 0..jb {
                    let bv = _mm256_loadu_ps(bp.add((j + c) * kdim + k));
                    acc[c] = _mm256_fmadd_ps(av, bv, acc[c]);
                }
                k += 8;
            }
            for c in 0..jb {
                let mut sum = hsum(acc[c]);
                for kk in k..kdim {
                    sum += *ar.add(kk) * *bp.add((j + c) * kdim + kk);
                }
                *op.add(i * n + j + c) = sum;
            }
            j += jb;
        }
    }
}

/// Row-wise layer norm in place over `x: rows×cols`.
///
/// # Safety
///
/// AVX2+FMA must be available; `x.len() == rows * cols` and
/// `gamma.len() == beta.len() == cols`.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn layer_norm_rows(
    x: &mut [f32],
    rows: usize,
    cols: usize,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
) {
    debug_assert_eq!(x.len(), rows * cols);
    debug_assert_eq!(gamma.len(), cols);
    debug_assert_eq!(beta.len(), cols);
    let gp = gamma.as_ptr();
    let bp = beta.as_ptr();
    for r in 0..rows {
        let p = x.as_mut_ptr().add(r * cols);
        let nf = cols as f32;

        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i + 8 <= cols {
            acc = _mm256_add_ps(acc, _mm256_loadu_ps(p.add(i)));
            i += 8;
        }
        let mut sum = hsum(acc);
        for j in i..cols {
            sum += *p.add(j);
        }
        let mean = sum / nf;

        let mv = _mm256_set1_ps(mean);
        let mut vacc = _mm256_setzero_ps();
        i = 0;
        while i + 8 <= cols {
            let d = _mm256_sub_ps(_mm256_loadu_ps(p.add(i)), mv);
            vacc = _mm256_fmadd_ps(d, d, vacc);
            i += 8;
        }
        let mut var = hsum(vacc);
        for j in i..cols {
            let d = *p.add(j) - mean;
            var += d * d;
        }
        var /= nf;
        let inv = 1.0 / (var + eps).sqrt();

        let iv = _mm256_set1_ps(inv);
        i = 0;
        while i + 8 <= cols {
            let d = _mm256_sub_ps(_mm256_loadu_ps(p.add(i)), mv);
            let xhat = _mm256_mul_ps(d, iv);
            let out = _mm256_fmadd_ps(xhat, _mm256_loadu_ps(gp.add(i)), _mm256_loadu_ps(bp.add(i)));
            _mm256_storeu_ps(p.add(i), out);
            i += 8;
        }
        for j in i..cols {
            let xhat = (*p.add(j) - mean) * inv;
            *p.add(j) = xhat * *gp.add(j) + *bp.add(j);
        }
    }
}

/// GELU elementwise in place (tanh form, same constants as
/// [`crate::tape::gelu`], tanh evaluated via the polynomial `exp`).
/// Every element takes the same lane math: the last 1..7 run as one
/// masked vector whose idle lanes are never stored.
///
/// # Safety
///
/// AVX2+FMA must be available.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn gelu_inplace(x: &mut [f32]) {
    let n = x.len();
    let p = x.as_mut_ptr();
    let mut i = 0;
    while i + 8 <= n {
        _mm256_storeu_ps(p.add(i), gelu_ps(_mm256_loadu_ps(p.add(i))));
        i += 8;
    }
    if i < n {
        // Lane `l` is live when `l < n - i`.
        let live = _mm256_cmpgt_epi32(
            _mm256_set1_epi32((n - i) as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        );
        let v = _mm256_maskload_ps(p.add(i), live);
        _mm256_maskstore_ps(p.add(i), live, gelu_ps(v));
    }
}

/// GELU of each of 8 lanes: `0.5 · v · (1 + tanh(C · (v + A · v³)))`.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn gelu_ps(v: __m256) -> __m256 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi), as in the scalar gelu
    const A: f32 = 0.044_715;
    let v2 = _mm256_mul_ps(v, v);
    let inner = _mm256_fmadd_ps(_mm256_mul_ps(v2, v), _mm256_set1_ps(A), v);
    let t = tanh_ps(_mm256_mul_ps(inner, _mm256_set1_ps(C)));
    let half_v = _mm256_mul_ps(_mm256_set1_ps(0.5), v);
    _mm256_mul_ps(half_v, _mm256_add_ps(t, _mm256_set1_ps(1.0)))
}

/// Row-wise softmax in place over `x: rows×cols`, matching the scalar
/// semantics (max-subtract, exp, normalize; rows whose exp-sum is zero
/// are left unnormalized).
///
/// # Safety
///
/// AVX2+FMA must be available; `x.len() == rows * cols`.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn softmax_rows_inplace(x: &mut [f32], rows: usize, cols: usize) {
    debug_assert_eq!(x.len(), rows * cols);
    for r in 0..rows {
        let p = x.as_mut_ptr().add(r * cols);

        let mut mv = _mm256_set1_ps(f32::NEG_INFINITY);
        let mut i = 0;
        while i + 8 <= cols {
            mv = _mm256_max_ps(mv, _mm256_loadu_ps(p.add(i)));
            i += 8;
        }
        let mut max = hmax(mv);
        for j in i..cols {
            max = max.max(*p.add(j));
        }

        let maxv = _mm256_set1_ps(max);
        let mut acc = _mm256_setzero_ps();
        i = 0;
        while i + 8 <= cols {
            let e = exp_ps(_mm256_sub_ps(_mm256_loadu_ps(p.add(i)), maxv));
            _mm256_storeu_ps(p.add(i), e);
            acc = _mm256_add_ps(acc, e);
            i += 8;
        }
        let mut sum = hsum(acc);
        for j in i..cols {
            let e = (*p.add(j) - max).exp();
            *p.add(j) = e;
            sum += e;
        }

        if sum > 0.0 {
            let sv = _mm256_set1_ps(sum);
            i = 0;
            while i + 8 <= cols {
                _mm256_storeu_ps(p.add(i), _mm256_div_ps(_mm256_loadu_ps(p.add(i)), sv));
                i += 8;
            }
            for j in i..cols {
                *p.add(j) /= sum;
            }
        }
    }
}

/// Quantized `o = a @ (scales ⊙ q)` for row-major `a: m×k`,
/// `q: k×n` int8 with one scale per `q` row; f32 accumulation.
///
/// # Safety
///
/// AVX2+FMA must be available; slice lengths must match the dimensions.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn matmul_q8_into(
    a: &[f32],
    scales: &[f32],
    q: &[i8],
    o: &mut [f32],
    m: usize,
    kdim: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), m * kdim);
    debug_assert_eq!(scales.len(), kdim);
    debug_assert_eq!(q.len(), kdim * n);
    debug_assert_eq!(o.len(), m * n);
    let mut i = 0;
    while i + 2 <= m {
        matmul_q8_rows::<2>(a, scales, q, o, i, kdim, n);
        i += 2;
    }
    while i < m {
        matmul_q8_rows::<1>(a, scales, q, o, i, kdim, n);
        i += 1;
    }
}

/// One `MR`-row band of the int8 matmul: 16-wide tiles (one 128-bit int8
/// load, sign-extended and converted to two f32 vectors), then an
/// 8-wide tile, then a scalar fringe.
#[target_feature(enable = "avx2,fma")]
unsafe fn matmul_q8_rows<const MR: usize>(
    a: &[f32],
    scales: &[f32],
    q: &[i8],
    o: &mut [f32],
    i: usize,
    kdim: usize,
    n: usize,
) {
    let ap = a.as_ptr();
    let sp = scales.as_ptr();
    let qp = q.as_ptr();
    let op = o.as_mut_ptr();
    let mut j = 0;
    while j + 16 <= n {
        let mut acc0 = [_mm256_setzero_ps(); MR];
        let mut acc1 = [_mm256_setzero_ps(); MR];
        for k in 0..kdim {
            let qv = _mm_loadu_si128(qp.add(k * n + j) as *const __m128i);
            let q0 = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(qv));
            let q1 = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(_mm_srli_si128::<8>(qv)));
            let s = *sp.add(k);
            for r in 0..MR {
                let av = _mm256_set1_ps(*ap.add((i + r) * kdim + k) * s);
                acc0[r] = _mm256_fmadd_ps(av, q0, acc0[r]);
                acc1[r] = _mm256_fmadd_ps(av, q1, acc1[r]);
            }
        }
        for r in 0..MR {
            _mm256_storeu_ps(op.add((i + r) * n + j), acc0[r]);
            _mm256_storeu_ps(op.add((i + r) * n + j + 8), acc1[r]);
        }
        j += 16;
    }
    while j + 8 <= n {
        let mut acc = [_mm256_setzero_ps(); MR];
        for k in 0..kdim {
            let qv = _mm_loadl_epi64(qp.add(k * n + j) as *const __m128i);
            let q0 = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(qv));
            let s = *sp.add(k);
            for r in 0..MR {
                let av = _mm256_set1_ps(*ap.add((i + r) * kdim + k) * s);
                acc[r] = _mm256_fmadd_ps(av, q0, acc[r]);
            }
        }
        for r in 0..MR {
            _mm256_storeu_ps(op.add((i + r) * n + j), acc[r]);
        }
        j += 8;
    }
    while j < n {
        for r in 0..MR {
            let mut sum = 0.0f32;
            for k in 0..kdim {
                let av = *ap.add((i + r) * kdim + k) * *sp.add(k);
                sum += av * *qp.add(k * n + j) as f32;
            }
            *op.add((i + r) * n + j) = sum;
        }
        j += 1;
    }
}
