//! Runtime-dispatched compute kernels for the inference hot path.
//!
//! The three products on [`Tensor`] (`matmul_into`, `matmul_nt_into`,
//! `matmul_tn`) are the *reference* arithmetic: each output element
//! starts at `+0.0` and adds its terms in ascending `k`, one rounding
//! per multiply and one per add, never fused. The autograd tape and
//! every bitwise regression test pin it. Where AVX2 is present they run
//! it 8 output lanes at a time (`_mm256_add_ps(acc, _mm256_mul_ps(a, b))`
//! under `avx2` alone); elsewhere, and under Miri, they run the portable
//! loops in [`portable`]. Both give the same bits, so the reference path
//! is fast on AVX2 hosts without being any less the reference.
//!
//! On top of it this module layers faster, non-bit-identical paths,
//! selected at **runtime**:
//!
//! - [`SimdLevel::Avx2`] — AVX2 + FMA kernels on `x86_64`, used only
//!   when [`is_x86_feature_detected!`] confirms both features;
//! - [`SimdLevel::Neon`] — NEON kernels on `aarch64`, where NEON is part
//!   of the baseline ISA;
//! - [`SimdLevel::Scalar`] — the reference arithmetic above, always
//!   available and the fallback everywhere else.
//!
//! Every dispatch function takes an explicit [`SimdLevel`] so callers
//! can pin the reference path (`Scalar`) for bitwise reproducibility or
//! pass [`simd_level()`] for speed. Passing a level the host does not
//! support is safe: the cached feature check re-validates before any
//! `unsafe` kernel runs, and the call falls back to the scalar kernel.
//!
//! The int8 kernels ([`matmul_q8_into`]) implement the quantized
//! backend: weights are `i8` with one `f32` scale per row and the
//! accumulation stays in `f32`, so `out[i][j] = Σ_k (x[i][k]·s[k])·q[k][j]`.
//!
//! The `Avx2` and `Neon` results are *not* bit-identical to the
//! reference (FMA contracts the multiply-add rounding, reductions are
//! lane-parallel, and `exp` is a polynomial), but they stay within
//! tight ULP bounds — see the `kernel_parity` property tests.

use std::cell::Cell;

use crate::tape::{gelu, row_mean_var};
use crate::tensor::Tensor;

#[cfg(all(target_arch = "x86_64", not(miri)))]
mod avx2;
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod exact;
#[cfg(all(target_arch = "aarch64", not(miri)))]
mod neon;
pub mod portable;

/// Instruction-set level used by the dispatched kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimdLevel {
    /// The reference arithmetic — the bitwise reference path: the
    /// [`Tensor`] products (8 lanes wide on AVX2 hosts, the portable
    /// loops elsewhere, the same bits either way) and the plain scalar
    /// row-wise ops.
    #[default]
    Scalar,
    /// AVX2 + FMA (`x86_64`, runtime-detected).
    Avx2,
    /// NEON (`aarch64` baseline).
    Neon,
}

impl SimdLevel {
    /// Short lowercase name (`"scalar"`, `"avx2"`, `"neon"`).
    pub fn label(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Neon => "neon",
        }
    }
}

/// Whether the host has AVX2, all the reference products' 8-lane
/// bodies need. `std` detects the feature once and caches it. Off
/// `x86_64` and under Miri (which does not model vendor intrinsics) the
/// 8-lane bodies never run.
#[cfg(all(target_arch = "x86_64", not(miri)))]
fn has_avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// Whether the host has AVX2 + FMA, which [`SimdLevel::Avx2`] needs.
/// Always `false` off `x86_64` and under Miri.
fn avx2_ok() -> bool {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        has_avx2() && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    {
        false
    }
}

/// `out = a @ b` in the reference arithmetic: the body of
/// [`Tensor::matmul_into`].
pub(crate) fn reference_matmul(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    assert_matmul_shapes(a, b);
    out.resize(a.rows(), b.cols());
    let (m, kdim, n) = (a.rows(), a.cols(), b.cols());
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if has_avx2() {
        // SAFETY: AVX2 confirmed by `has_avx2`; each slice is a tensor's
        // own `rows × cols` data.
        unsafe { exact::matmul(a.data(), b.data(), out.data_mut(), m, kdim, n) };
        return;
    }
    portable::matmul(a.data(), b.data(), out.data_mut(), m, kdim, n);
}

/// `out = a @ bᵀ` in the reference arithmetic: the body of
/// [`Tensor::matmul_nt_into`]. `b` is transposed into a per-thread
/// buffer and the product runs through [`reference_matmul`], so each
/// output accumulates in ascending `k` exactly as `a @ bᵀ` would.
pub(crate) fn reference_matmul_nt(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    assert_matmul_nt_shapes(a, b);
    thread_local! {
        /// `bᵀ`, kept per thread so a warm call allocates nothing.
        static BT: Cell<Tensor> = Cell::new(Tensor::default());
    }
    let mut bt = BT.take();
    b.transpose_into(&mut bt);
    reference_matmul(a, &bt, out);
    BT.set(bt);
}

/// `aᵀ @ b` in the reference arithmetic, skipping every term whose `a`
/// entry is `±0.0`: the body of [`Tensor::matmul_tn`].
pub(crate) fn reference_matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    assert_matmul_tn_shapes(a, b);
    let (kdim, m, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Tensor::zeros(m, n);
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if has_avx2() {
        // SAFETY: AVX2 confirmed by `has_avx2`; each slice is a tensor's
        // own `rows × cols` data.
        unsafe { exact::matmul_tn(a.data(), b.data(), out.data_mut(), kdim, m, n) };
        return out;
    }
    portable::matmul_tn_acc(a.data(), b.data(), out.data_mut(), kdim, m, n);
    out
}

/// The best kernel level this host supports, detected once and cached.
///
/// `x86_64` hosts report [`SimdLevel::Avx2`] only when both AVX2 and FMA
/// are present; `aarch64` hosts always report [`SimdLevel::Neon`];
/// everything else (and any run under Miri) reports
/// [`SimdLevel::Scalar`].
pub fn simd_level() -> SimdLevel {
    if avx2_ok() {
        return SimdLevel::Avx2;
    }
    #[cfg(all(target_arch = "aarch64", not(miri)))]
    {
        return SimdLevel::Neon;
    }
    #[allow(unreachable_code)]
    SimdLevel::Scalar
}

/// Whether this host has any SIMD kernel path at all.
pub fn simd_available() -> bool {
    simd_level() != SimdLevel::Scalar
}

/// Matrix product `out = a @ b` at the requested kernel level.
///
/// `Scalar` (or an unsupported level) delegates to the bit-exact
/// [`Tensor::matmul_into`]; SIMD levels use FMA tiles with ascending-`k`
/// accumulation per lane.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn matmul_into(level: SimdLevel, a: &Tensor, b: &Tensor, out: &mut Tensor) {
    match level {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        SimdLevel::Avx2 if avx2_ok() => {
            assert_matmul_shapes(a, b);
            out.resize(a.rows(), b.cols());
            // SAFETY: AVX2+FMA confirmed by `avx2_ok`; slice lengths
            // match the dimensions passed.
            unsafe {
                avx2::matmul_into(
                    a.data(),
                    b.data(),
                    out.data_mut(),
                    a.rows(),
                    a.cols(),
                    b.cols(),
                )
            }
        }
        #[cfg(all(target_arch = "aarch64", not(miri)))]
        SimdLevel::Neon => {
            assert_matmul_shapes(a, b);
            out.resize(a.rows(), b.cols());
            // SAFETY: NEON is baseline on aarch64; slice lengths match.
            unsafe {
                neon::matmul_into(
                    a.data(),
                    b.data(),
                    out.data_mut(),
                    a.rows(),
                    a.cols(),
                    b.cols(),
                )
            }
        }
        _ => a.matmul_into(b, out),
    }
}

/// Matrix product `out = a @ b^T` at the requested kernel level.
///
/// SIMD levels run lane-parallel dot products over the rows of both
/// operands (unit stride, no transpose materialized); `Scalar` delegates
/// to the bit-exact [`Tensor::matmul_nt_into`].
///
/// # Panics
///
/// Panics if `a.cols() != b.cols()`.
pub fn matmul_nt_into(level: SimdLevel, a: &Tensor, b: &Tensor, out: &mut Tensor) {
    match level {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        SimdLevel::Avx2 if avx2_ok() => {
            assert_matmul_nt_shapes(a, b);
            out.resize(a.rows(), b.rows());
            // SAFETY: AVX2+FMA confirmed by `avx2_ok`; slice lengths match.
            unsafe {
                avx2::matmul_nt_into(
                    a.data(),
                    b.data(),
                    out.data_mut(),
                    a.rows(),
                    a.cols(),
                    b.rows(),
                )
            }
        }
        #[cfg(all(target_arch = "aarch64", not(miri)))]
        SimdLevel::Neon => {
            assert_matmul_nt_shapes(a, b);
            out.resize(a.rows(), b.rows());
            // SAFETY: NEON is baseline on aarch64; slice lengths match.
            unsafe {
                neon::matmul_nt_into(
                    a.data(),
                    b.data(),
                    out.data_mut(),
                    a.rows(),
                    a.cols(),
                    b.rows(),
                )
            }
        }
        _ => a.matmul_nt_into(b, out),
    }
}

/// Row-wise layer normalization in place: each row is standardized by
/// its mean/variance and affinely transformed by `gamma`/`beta`.
///
/// The `Scalar` arm reproduces the inference-engine arithmetic exactly
/// (statistics via [`row_mean_var`], then `(x - mean) * inv * g + b`),
/// so callers that need bitwise parity with the autograd tape can pin it.
///
/// # Panics
///
/// Panics if `gamma.len()` or `beta.len()` differ from `x.cols()`.
pub fn layer_norm_rows(level: SimdLevel, x: &mut Tensor, gamma: &[f32], beta: &[f32], eps: f32) {
    let cols = x.cols();
    assert_eq!(gamma.len(), cols, "gamma length");
    assert_eq!(beta.len(), cols, "beta length");
    match level {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        SimdLevel::Avx2 if avx2_ok() => {
            let rows = x.rows();
            // SAFETY: AVX2+FMA confirmed by `avx2_ok`; gamma/beta lengths
            // asserted against `cols` above.
            unsafe { avx2::layer_norm_rows(x.data_mut(), rows, cols, gamma, beta, eps) }
        }
        _ => {
            for i in 0..x.rows() {
                let row = x.row_mut(i);
                let (mean, var) = row_mean_var(row);
                let inv = 1.0 / (var + eps).sqrt();
                for (v, (&g, &b)) in row.iter_mut().zip(gamma.iter().zip(beta)) {
                    let xhat = (*v - mean) * inv;
                    *v = xhat * g + b;
                }
            }
        }
    }
}

/// Applies GELU elementwise in place.
///
/// The `Scalar` arm is exactly `x.map_inplace(gelu)`; the AVX2 arm uses
/// a polynomial `exp` to evaluate the tanh, accurate to ~1e-6 relative.
/// On either arm an element's result depends on its value alone, not on
/// its position in the buffer.
pub fn gelu_inplace(level: SimdLevel, x: &mut Tensor) {
    match level {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        SimdLevel::Avx2 if avx2_ok() => {
            // SAFETY: AVX2+FMA confirmed by `avx2_ok`.
            unsafe { avx2::gelu_inplace(x.data_mut()) }
        }
        _ => x.map_inplace(gelu),
    }
}

/// Row-wise softmax in place (max-subtracted, sum-normalized), matching
/// [`Tensor::softmax_rows_inplace`] semantics including the all-zero-row
/// guard.
pub fn softmax_rows_inplace(level: SimdLevel, x: &mut Tensor) {
    match level {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        SimdLevel::Avx2 if avx2_ok() => {
            let (rows, cols) = x.shape();
            // SAFETY: AVX2+FMA confirmed by `avx2_ok`.
            unsafe { avx2::softmax_rows_inplace(x.data_mut(), rows, cols) }
        }
        _ => x.softmax_rows_inplace(),
    }
}

/// Quantized matrix product `out = a @ dequantize(q)` where `q` is a
/// row-major `a.cols() × n` matrix of `i8` and `scales[k]` is the `f32`
/// scale of row `k` (so `dequantize(q)[k][j] = scales[k] * q[k][j]`).
///
/// The scale is folded into the left operand (`a[i][k] * scales[k]`) and
/// the accumulation runs entirely in `f32`, ascending in `k` — the int8
/// format changes the weights, not the accumulator.
///
/// # Panics
///
/// Panics if `scales.len() != a.cols()` or `q.len() != a.cols() * n`.
pub fn matmul_q8_into(
    level: SimdLevel,
    a: &Tensor,
    scales: &[f32],
    q: &[i8],
    n: usize,
    out: &mut Tensor,
) {
    let (m, kdim) = a.shape();
    assert_eq!(scales.len(), kdim, "one scale per quantized row");
    assert_eq!(q.len(), kdim * n, "quantized data length");
    out.resize(m, n);
    match level {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        SimdLevel::Avx2 if avx2_ok() => {
            // SAFETY: AVX2+FMA confirmed by `avx2_ok`; slice lengths
            // asserted above.
            unsafe { avx2::matmul_q8_into(a.data(), scales, q, out.data_mut(), m, kdim, n) }
        }
        _ => scalar_matmul_q8(a.data(), scales, q, out.data_mut(), m, kdim, n),
    }
}

fn assert_matmul_shapes(a: &Tensor, b: &Tensor) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul shape mismatch: {}x{} @ {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
}

fn assert_matmul_nt_shapes(a: &Tensor, b: &Tensor) {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_nt shape mismatch: {}x{} @ ({}x{})^T",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
}

fn assert_matmul_tn_shapes(a: &Tensor, b: &Tensor) {
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_tn shape mismatch: ({}x{})^T @ {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
}

/// Portable int8 kernel, blocked like [`portable::matmul_into`] with the
/// dequantization fused into the broadcast of the left operand.
fn scalar_matmul_q8(
    a: &[f32],
    scales: &[f32],
    q: &[i8],
    o: &mut [f32],
    m: usize,
    kdim: usize,
    n: usize,
) {
    const MR: usize = 2;
    const NR: usize = 16;
    let mut i = 0;
    while i < m {
        let ib = MR.min(m - i);
        let mut j = 0;
        while j < n {
            let jb = NR.min(n - j);
            let mut acc = [[0.0f32; NR]; MR];
            for k in 0..kdim {
                let s = scales[k];
                let q_row = &q[k * n + j..k * n + j + jb];
                for (r, acc_r) in acc.iter_mut().enumerate().take(ib) {
                    let a_ik = a[(i + r) * kdim + k] * s;
                    for (acc_rc, &qv) in acc_r.iter_mut().zip(q_row) {
                        *acc_rc += a_ik * qv as f32;
                    }
                }
            }
            for (r, acc_r) in acc.iter().enumerate().take(ib) {
                let row = i + r;
                o[row * n + j..row * n + j + jb].copy_from_slice(&acc_r[..jb]);
            }
            j += jb;
        }
        i += MR;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_random(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut state = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let data = (0..rows * cols)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
            })
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() <= 1e-4 + 1e-4 * b.abs().max(a.abs())
    }

    #[test]
    fn scalar_dispatch_is_bitwise_identical_to_tensor_methods() {
        let a = pseudo_random(5, 7, 1);
        let b = pseudo_random(7, 9, 2);
        let mut via_kernel = Tensor::zeros(1, 1);
        matmul_into(SimdLevel::Scalar, &a, &b, &mut via_kernel);
        assert_eq!(via_kernel, a.matmul(&b));

        let bt = pseudo_random(9, 7, 3);
        matmul_nt_into(SimdLevel::Scalar, &a, &bt, &mut via_kernel);
        assert_eq!(via_kernel, a.matmul_nt(&bt));

        let mut x = pseudo_random(4, 6, 4);
        let mut reference = x.clone();
        gelu_inplace(SimdLevel::Scalar, &mut x);
        reference.map_inplace(gelu);
        assert_eq!(x, reference);

        let mut x = pseudo_random(4, 6, 5);
        let mut reference = x.clone();
        softmax_rows_inplace(SimdLevel::Scalar, &mut x);
        reference.softmax_rows_inplace();
        assert_eq!(x, reference);
    }

    #[test]
    fn detected_level_matches_any_simd_kernels_within_tolerance() {
        // On a SIMD host this exercises the real vector kernels; on a
        // scalar-only host (or under Miri) it degenerates to the bitwise
        // case above, which is exactly the promised fallback.
        let level = simd_level();
        let a = pseudo_random(9, 21, 10);
        let b = pseudo_random(21, 35, 11);
        let mut fast = Tensor::zeros(1, 1);
        matmul_into(level, &a, &b, &mut fast);
        let slow = a.matmul(&b);
        for (f, s) in fast.data().iter().zip(slow.data()) {
            assert!(close(*f, *s), "matmul {f} vs {s}");
        }

        let bt = pseudo_random(13, 21, 12);
        matmul_nt_into(level, &a, &bt, &mut fast);
        let mut slow = Tensor::zeros(1, 1);
        a.matmul_nt_into(&bt, &mut slow);
        for (f, s) in fast.data().iter().zip(slow.data()) {
            assert!(close(*f, *s), "matmul_nt {f} vs {s}");
        }

        let mut x = pseudo_random(6, 19, 13);
        let mut reference = x.clone();
        gelu_inplace(level, &mut x);
        reference.map_inplace(gelu);
        for (f, s) in x.data().iter().zip(reference.data()) {
            assert!(close(*f, *s), "gelu {f} vs {s}");
        }

        let mut x = pseudo_random(6, 19, 14);
        let mut reference = x.clone();
        softmax_rows_inplace(level, &mut x);
        reference.softmax_rows_inplace();
        for (f, s) in x.data().iter().zip(reference.data()) {
            assert!(close(*f, *s), "softmax {f} vs {s}");
        }

        let gamma: Vec<f32> = (0..19).map(|i| 1.0 + i as f32 * 0.01).collect();
        let beta: Vec<f32> = (0..19).map(|i| i as f32 * 0.02 - 0.1).collect();
        let mut x = pseudo_random(6, 19, 15);
        let mut reference = x.clone();
        layer_norm_rows(level, &mut x, &gamma, &beta, 1e-5);
        layer_norm_rows(SimdLevel::Scalar, &mut reference, &gamma, &beta, 1e-5);
        for (f, s) in x.data().iter().zip(reference.data()) {
            assert!(close(*f, *s), "layer_norm {f} vs {s}");
        }
    }

    #[test]
    fn q8_kernel_matches_dequantized_f32_matmul() {
        let a = pseudo_random(7, 23, 20);
        let w = pseudo_random(23, 18, 21);
        // Per-row max-abs quantization of `w`.
        let mut scales = Vec::new();
        let mut q = Vec::new();
        let mut dequant = Tensor::zeros(23, 18);
        for r in 0..23 {
            let row = w.row(r);
            let absmax = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let s = if absmax == 0.0 { 0.0 } else { absmax / 127.0 };
            scales.push(s);
            for (c, &v) in row.iter().enumerate() {
                let qv = if s == 0.0 { 0 } else { (v / s).round() as i8 };
                q.push(qv);
                dequant.row_mut(r)[c] = s * qv as f32;
            }
        }
        let expected = a.matmul(&dequant);
        for level in [SimdLevel::Scalar, simd_level()] {
            let mut got = Tensor::zeros(1, 1);
            matmul_q8_into(level, &a, &scales, &q, 18, &mut got);
            assert_eq!(got.shape(), expected.shape());
            for (g, e) in got.data().iter().zip(expected.data()) {
                assert!(close(*g, *e), "{level:?}: q8 {g} vs f32·dequant {e}");
            }
        }
    }

    #[test]
    fn unsupported_levels_fall_back_to_scalar() {
        // A level the host cannot run (e.g. Neon on x86, Avx2 on ARM)
        // must silently produce the scalar result, never crash.
        let foreign = match simd_level() {
            SimdLevel::Avx2 => SimdLevel::Neon,
            _ => SimdLevel::Avx2,
        };
        let a = pseudo_random(3, 5, 30);
        let b = pseudo_random(5, 4, 31);
        let mut out = Tensor::zeros(1, 1);
        matmul_into(foreign, &a, &b, &mut out);
        assert_eq!(out, a.matmul(&b));
    }

    #[cfg(miri)]
    #[test]
    fn miri_forces_scalar_level() {
        assert_eq!(simd_level(), SimdLevel::Scalar);
    }
}
