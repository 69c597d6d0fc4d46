//! The portable reference products.
//!
//! These loops define the reference arithmetic that the autograd tape,
//! the scalar inference engine and every bitwise pin rest on: each
//! output element starts at `+0.0` and adds its terms in ascending `k`,
//! one rounding per multiply and one per add, never fused.
//! [`Tensor::matmul_into`] and [`Tensor::matmul_tn`] run exactly this
//! arithmetic everywhere: through these loops on hosts without AVX2
//! (and off `x86_64`, and under Miri), and 8 output lanes at a time
//! where AVX2 is present. [`Tensor::matmul_nt_into`] transposes its
//! right operand and runs the matmul, so it needs no loop of its own.
//! The functions here always take the portable loops, so tests can hold
//! the dispatched products to them bit for bit.

use crate::tensor::Tensor;

/// `out = a @ b` through the portable loop (`out` resized as needed).
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn matmul_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    super::assert_matmul_shapes(a, b);
    out.resize(a.rows(), b.cols());
    let (m, kdim, n) = (a.rows(), a.cols(), b.cols());
    matmul(a.data(), b.data(), out.data_mut(), m, kdim, n);
}

/// `aᵀ @ b` through the portable loop.
///
/// # Panics
///
/// Panics if `a.rows() != b.rows()`.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    super::assert_matmul_tn_shapes(a, b);
    let (kdim, m, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Tensor::zeros(m, n);
    matmul_tn_acc(a.data(), b.data(), out.data_mut(), kdim, m, n);
    out
}

/// `o = a @ b` for row-major `a: m×k`, `b: k×n`, `o: m×n`.
///
/// The loop processes `MR × NR` output tiles with the full `k`
/// reduction innermost per tile, so each output element accumulates in
/// plain ascending-`k` order (bit-identical to the naive triple loop)
/// while the compiler holds the tile in registers.
pub(crate) fn matmul(a: &[f32], b: &[f32], o: &mut [f32], m: usize, kdim: usize, n: usize) {
    const MR: usize = 2;
    const NR: usize = 16;
    let mut i = 0;
    while i < m {
        let ib = MR.min(m - i);
        let mut j = 0;
        // Full tiles: every loop bound is a constant, so the `MR × NR`
        // accumulator lives in vector registers.
        if ib == MR {
            while j + NR <= n {
                let mut acc = [[0.0f32; NR]; MR];
                for k in 0..kdim {
                    let b_row: &[f32; NR] =
                        b[k * n + j..k * n + j + NR].try_into().expect("NR slice");
                    for (r, acc_r) in acc.iter_mut().enumerate() {
                        let a_ik = a[(i + r) * kdim + k];
                        for (acc_rc, &bv) in acc_r.iter_mut().zip(b_row) {
                            *acc_rc += a_ik * bv;
                        }
                    }
                }
                for (r, acc_r) in acc.iter().enumerate() {
                    let row = i + r;
                    o[row * n + j..row * n + j + NR].copy_from_slice(acc_r);
                }
                j += NR;
            }
        }
        // Edge tiles (right fringe and short bottom rows).
        while j < n {
            let jb = NR.min(n - j);
            let mut acc = [[0.0f32; NR]; MR];
            for k in 0..kdim {
                let b_row = &b[k * n + j..k * n + j + jb];
                for (r, acc_r) in acc.iter_mut().enumerate().take(ib) {
                    let a_ik = a[(i + r) * kdim + k];
                    for (c, &bv) in b_row.iter().enumerate() {
                        acc_r[c] += a_ik * bv;
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

/// `o += aᵀ @ b` for row-major `a: k×m`, `b: k×n`, `o: m×n` (zero-filled
/// by the caller). A term whose `a` entry is `±0.0` is skipped, so an
/// infinite or NaN `b` entry behind it leaves the output alone.
pub(crate) fn matmul_tn_acc(a: &[f32], b: &[f32], o: &mut [f32], kdim: usize, m: usize, n: usize) {
    for k in 0..kdim {
        let a_row = &a[k * m..(k + 1) * m];
        let b_row = &b[k * n..(k + 1) * n];
        for (i, &a_ki) in a_row.iter().enumerate() {
            if a_ki == 0.0 {
                continue;
            }
            let out_row = &mut o[i * n..(i + 1) * n];
            for j in 0..n {
                out_row[j] += a_ki * b_row[j];
            }
        }
    }
}
