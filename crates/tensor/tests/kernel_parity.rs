//! Property tests for the runtime-dispatched kernel layer: across
//! randomly shaped (deliberately awkward — remainder tiles, single
//! rows/columns) operands,
//!
//! * the three reference products (`matmul`, `matmul_nt`, `matmul_tn`)
//!   equal naive loops **bit for bit**, both as `Tensor` dispatches them
//!   on this host (8 AVX2 lanes where present) and through the portable
//!   loops, at the scorer's real shapes and over ±0.0, ±inf, NaN and
//!   subnormals,
//! * the `Scalar` dispatch arm is **bitwise-identical** to the plain
//!   `Tensor` methods and to a naive triple loop,
//! * the host's best SIMD level is tolerance-equivalent to scalar, and
//!   its GELU gives a row the same bits at any row count,
//! * the int8 kernel matches an f32 matmul against the dequantized
//!   codes exactly in shape and closely in value.
//!
//! Shapes run up to ~48 in every dimension so the AVX2 8-lane /
//! MR×NR-tile remainders (widths 1..7) are all exercised. The random
//! cases are seeded loops: each property draws its shapes and matrix
//! seeds from a fixed-seed ChaCha stream, so every run checks the same
//! cases.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha20Rng;
use rebert_tensor::kernels::{
    self, gelu_inplace, layer_norm_rows, matmul_into, matmul_nt_into, matmul_q8_into, portable,
    softmax_rows_inplace,
};
use rebert_tensor::{simd_level, SimdLevel, Tensor};

/// Deterministic pseudo-random matrix entries in roughly [-2, 2] with a
/// sprinkle of exact zeros (softmax guard rows, quantization edge).
fn matrix(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let data: Vec<f32> = (0..rows * cols)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let bits = (state >> 33) as u32;
            if bits.is_multiple_of(17) {
                0.0
            } else {
                (bits % 4001) as f32 / 1000.0 - 2.0
            }
        })
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// Naive triple-loop `a @ b` — the ground truth the blocked scalar
/// kernel must reproduce bit for bit (ascending-`k` accumulation).
fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Tensor::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a.row(i)[p] * b.row(p)[j];
            }
            out.row_mut(i)[j] = acc;
        }
    }
    out
}

/// Naive `a @ bᵀ` over the rows of both operands, ascending `k`.
fn naive_matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        for j in 0..b.rows() {
            let mut acc = 0.0f32;
            for p in 0..a.cols() {
                acc += a.row(i)[p] * b.row(j)[p];
            }
            out.row_mut(i)[j] = acc;
        }
    }
    out
}

/// Naive `aᵀ @ b`, ascending `k`, skipping every term whose `a` entry
/// is ±0.0 as `Tensor::matmul_tn` promises.
fn naive_matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(a.cols(), b.cols());
    for i in 0..a.cols() {
        for j in 0..b.cols() {
            let mut acc = 0.0f32;
            for p in 0..a.rows() {
                let a_pi = a.row(p)[i];
                if a_pi != 0.0 {
                    acc += a_pi * b.row(p)[j];
                }
            }
            out.row_mut(i)[j] = acc;
        }
    }
    out
}

/// Bit equality, except that any NaN matches any NaN: Rust leaves the
/// sign and payload of a NaN result unspecified, so only where NaNs
/// land is part of the contract.
fn assert_exact(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (i, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
        assert!(
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
            "{what}: element {i}: {x:e} ({:#010x}) vs {y:e} ({:#010x})",
            x.to_bits(),
            y.to_bits()
        );
    }
}

/// `a @ b` as `Tensor` dispatches it and through the portable loop, both
/// against the naive loop.
fn check_matmul(a: &Tensor, b: &Tensor, what: &str) {
    let want = naive_matmul(a, b);
    let mut out = Tensor::zeros(3, 3);
    a.matmul_into(b, &mut out);
    assert_exact(&out, &want, &format!("{what}: matmul_into"));
    portable::matmul_into(a, b, &mut out);
    assert_exact(&out, &want, &format!("{what}: portable matmul"));
}

/// `a @ bᵀ` on both paths against the naive loop; the portable path is
/// the portable matmul on `bᵀ`.
fn check_matmul_nt(a: &Tensor, b: &Tensor, what: &str) {
    let want = naive_matmul_nt(a, b);
    let mut out = Tensor::zeros(3, 3);
    a.matmul_nt_into(b, &mut out);
    assert_exact(&out, &want, &format!("{what}: matmul_nt_into"));
    portable::matmul_into(a, &b.transpose(), &mut out);
    assert_exact(&out, &want, &format!("{what}: portable matmul_nt"));
}

/// `aᵀ @ b` on both paths against the naive loop.
fn check_matmul_tn(a: &Tensor, b: &Tensor, what: &str) {
    let want = naive_matmul_tn(a, b);
    assert_exact(&a.matmul_tn(b), &want, &format!("{what}: matmul_tn"));
    assert_exact(
        &portable::matmul_tn(a, b),
        &want,
        &format!("{what}: portable matmul_tn"),
    );
}

/// A matrix over values that stress the rounding contract: signed
/// zeros, infinities, NaN, subnormals, products that overflow or
/// underflow, and ordinary values in between.
fn special_matrix(rows: usize, cols: usize, seed: u64) -> Tensor {
    const PALETTE: [f32; 14] = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::MIN_POSITIVE,
        1.0e-40,  // subnormal
        -3.0e-42, // subnormal
        1.0e-25,  // squares underflow to subnormals
        3.0e38,   // products overflow to ±inf
        -2.5e38,
        1.0,
        -1.0,
        0.1,
    ];
    let mut rng = ChaCha20Rng::seed_from_u64(seed);
    let data = (0..rows * cols)
        .map(|_| {
            if rng.gen_range(0u32..4) == 0 {
                PALETTE[rng.gen_range(0..PALETTE.len())]
            } else {
                rng.gen_range(-4.0f32..4.0)
            }
        })
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// The scorer's real shapes, bit for bit: `seq × d_model` activations
/// (seq 1..=128, `small`'s d_model 64) against 64-wide weights
/// (`d_model` and the FFN's 128), as the projections and their
/// gradients use them, and one b17-sized attention head (31 tokens × 16).
#[test]
fn reference_products_are_naive_at_scorer_shapes() {
    for seq in 1..=128 {
        for n in [64, 128] {
            let seed = (seq * 1000 + n) as u64;
            let what = format!("seq {seq} x 64 against 64 x {n}");
            let x = matrix(seq, 64, seed);
            check_matmul(&x, &matrix(64, n, seed ^ 1), &what);
            check_matmul_nt(&x, &matrix(n, 64, seed ^ 2), &what);
            check_matmul_tn(&x, &matrix(seq, n, seed ^ 3), &what);
        }
    }
    let (q, k) = (matrix(31, 16, 7), matrix(31, 16, 8));
    let (kt, probs) = (matrix(16, 31, 9), matrix(31, 31, 10));
    check_matmul(&q, &kt, "31 x 16 against 16 x 31");
    check_matmul(&probs, &k, "31 x 31 against 31 x 16");
    check_matmul_nt(&q, &k, "31 x 16 against (31 x 16)^T");
    check_matmul_tn(&probs, &q, "(31 x 31)^T against 31 x 16");
    check_matmul_tn(&q, &probs, "(31 x 16)^T against 31 x 31");
}

/// ±0.0, ±inf, NaN and subnormals go through every product as the naive
/// loops send them: the same signed zeros, the same infinities, NaN in
/// the same places.
#[test]
fn reference_products_keep_special_values() {
    let shapes = [
        (1, 1, 1),
        (1, 7, 3),
        (3, 5, 7),
        (4, 8, 16),
        (5, 17, 19),
        (7, 3, 33),
        (31, 16, 31),
        (9, 64, 24),
    ];
    for (case, (m, k, n)) in shapes.into_iter().enumerate() {
        for round in 0..8u64 {
            let seed = (case as u64) << 8 | round;
            let what = format!("special {m}x{k}x{n} seed {seed}");
            let a = special_matrix(m, k, seed);
            check_matmul(&a, &special_matrix(k, n, seed ^ 1), &what);
            check_matmul_nt(&a, &special_matrix(n, k, seed ^ 2), &what);
            check_matmul_tn(
                &special_matrix(k, m, seed ^ 3),
                &special_matrix(k, n, seed ^ 4),
                &what,
            );
        }
    }

    // Every term -0.0: the sum from +0.0 is +0.0, never -0.0.
    let neg = Tensor::full(5, 9, -0.0);
    let ones = Tensor::full(9, 19, 1.0);
    check_matmul(&neg, &ones, "all -0.0 terms");
    check_matmul_nt(&neg, &ones.transpose(), "all -0.0 terms");
    check_matmul_tn(
        &Tensor::full(9, 5, 1.0),
        &Tensor::full(9, 19, -0.0),
        "all -0.0 terms",
    );
    assert_eq!(neg.matmul(&ones).data()[0].to_bits(), 0.0f32.to_bits());
}

/// `matmul_tn` skips a term whose left entry is ±0.0, so an infinity
/// behind it never becomes `0 · inf = NaN`, in full vectors and in the
/// masked column fringe alike.
#[test]
fn matmul_tn_zero_skip_hides_an_infinity_behind_a_zero() {
    let (k, m, n) = (3, 6, 19);
    let mut a = matrix(k, m, 11);
    let mut b = matrix(k, n, 12);
    a.row_mut(1)[0] = 1.5;
    a.row_mut(1)[2] = 0.0;
    a.row_mut(1)[4] = -0.0;
    for j in [0, 9, 17] {
        b.row_mut(1)[j] = f32::INFINITY;
    }
    let got = a.matmul_tn(&b);
    check_matmul_tn(&a, &b, "inf behind a zero");
    for j in [0, 9, 17] {
        assert!(got.row(2)[j].is_finite(), "column {j}: {}", got.row(2)[j]);
        assert!(got.row(4)[j].is_finite(), "column {j}: {}", got.row(4)[j]);
        assert!(got.row(0)[j].is_infinite(), "column {j} takes the inf");
    }
}

fn assert_bitwise_eq(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
    }
}

fn assert_close(a: &Tensor, b: &Tensor, abs: f32, rel: f32, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        let tol = abs + rel * y.abs();
        assert!(
            (x - y).abs() <= tol,
            "{what}: element {i}: {x} vs {y} (tol {tol})"
        );
    }
}

/// Symmetric per-row absmax quantization matching `rebert-nn`'s scheme.
fn quantize_rows(w: &Tensor) -> (Vec<f32>, Vec<i8>) {
    let (rows, cols) = w.shape();
    let mut scales = Vec::with_capacity(rows);
    let mut codes = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        let absmax = w.row(r).iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let scale = if absmax == 0.0 { 0.0 } else { absmax / 127.0 };
        scales.push(scale);
        for &v in w.row(r) {
            codes.push(if scale == 0.0 {
                0
            } else {
                (v / scale).round() as i8
            });
        }
    }
    (scales, codes)
}

/// Scalar dispatch == Tensor methods == naive loops, bit for bit.
#[test]
fn scalar_matmul_is_bitwise_naive() {
    let mut rng = ChaCha20Rng::seed_from_u64(0x4E12_0001);
    for case in 0..24 {
        let [m, k, n] = [48, 48, 48].map(|hi| rng.gen_range(1usize..hi));
        let seed = rng.gen_range(0u64..1000);
        let at = |what: &str| format!("case {case} (m={m} k={k} n={n} seed={seed}): {what}");
        let a = matrix(m, k, seed);
        let b = matrix(k, n, seed ^ 0xb0b);
        let bt = matrix(n, k, seed ^ 0xcafe);

        let mut out = Tensor::zeros(1, 1);
        matmul_into(SimdLevel::Scalar, &a, &b, &mut out);
        assert_bitwise_eq(&out, &naive_matmul(&a, &b), &at("matmul scalar vs naive"));
        assert_bitwise_eq(&out, &a.matmul(&b), &at("matmul scalar vs Tensor"));

        matmul_nt_into(SimdLevel::Scalar, &a, &bt, &mut out);
        assert_bitwise_eq(
            &out,
            &naive_matmul(&a, &bt.transpose()),
            &at("matmul_nt scalar vs naive"),
        );
        assert_bitwise_eq(&out, &a.matmul_nt(&bt), &at("matmul_nt scalar vs Tensor"));

        // Both paths of all three reference products at these shapes.
        check_matmul(&a, &b, &at("reference"));
        check_matmul_nt(&a, &bt, &at("reference"));
        check_matmul_tn(&b, &matrix(k, m, seed ^ 0xf00d), &at("reference"));
    }
}

/// The host's best SIMD level agrees with scalar within FMA-reassociation
/// tolerance, for matmul and matmul_nt across remainder-tile shapes.
#[test]
fn simd_matmul_tracks_scalar() {
    let level = simd_level();
    let mut rng = ChaCha20Rng::seed_from_u64(0x4E12_0002);
    for case in 0..24 {
        let [m, k, n] = [48, 48, 48].map(|hi| rng.gen_range(1usize..hi));
        let seed = rng.gen_range(0u64..1000);
        let at = |what: &str| format!("case {case} (m={m} k={k} n={n} seed={seed}): {what}");
        let a = matrix(m, k, seed);
        let b = matrix(k, n, seed ^ 0xb0b);
        let bt = matrix(n, k, seed ^ 0xcafe);

        let mut simd = Tensor::zeros(1, 1);
        let mut scalar = Tensor::zeros(1, 1);
        matmul_into(level, &a, &b, &mut simd);
        matmul_into(SimdLevel::Scalar, &a, &b, &mut scalar);
        assert_close(&simd, &scalar, 1e-4, 1e-5, &at("matmul simd vs scalar"));

        matmul_nt_into(level, &a, &bt, &mut simd);
        matmul_nt_into(SimdLevel::Scalar, &a, &bt, &mut scalar);
        assert_close(&simd, &scalar, 1e-4, 1e-5, &at("matmul_nt simd vs scalar"));
    }
}

/// Row-wise kernels: the SIMD arms of layer-norm, GELU, and softmax
/// track their scalar (bit-pinned elsewhere) counterparts.
#[test]
fn simd_rowwise_kernels_track_scalar() {
    let level = simd_level();
    let mut rng = ChaCha20Rng::seed_from_u64(0x4E12_0003);
    for case in 0..24 {
        let [rows, cols] = [24, 48].map(|hi| rng.gen_range(1usize..hi));
        let seed = rng.gen_range(0u64..1000);
        let at = |what: &str| format!("case {case} (rows={rows} cols={cols} seed={seed}): {what}");
        let base = matrix(rows, cols, seed);
        let gamma = matrix(1, cols, seed ^ 1).data().to_vec();
        let beta = matrix(1, cols, seed ^ 2).data().to_vec();

        let mut simd = base.clone();
        let mut scalar = base.clone();
        layer_norm_rows(level, &mut simd, &gamma, &beta, 1e-5);
        layer_norm_rows(SimdLevel::Scalar, &mut scalar, &gamma, &beta, 1e-5);
        assert_close(&simd, &scalar, 1e-4, 1e-4, &at("layer_norm"));

        let mut simd = base.clone();
        let mut scalar = base.clone();
        gelu_inplace(level, &mut simd);
        gelu_inplace(SimdLevel::Scalar, &mut scalar);
        assert_close(&simd, &scalar, 1e-5, 1e-5, &at("gelu"));

        let mut simd = base.clone();
        let mut scalar = base.clone();
        softmax_rows_inplace(level, &mut simd);
        softmax_rows_inplace(SimdLevel::Scalar, &mut scalar);
        assert_close(&simd, &scalar, 1e-5, 1e-5, &at("softmax"));
    }
}

/// At the host's best level, GELU gives an element the same bits
/// wherever it sits in the buffer: a `1 × n` row alone equals row 0 of
/// a `3 × n` tensor, whose flat tail lands elsewhere. The encoder's last
/// layer runs its FFN on one row, so the pooled row's bits rest on this.
#[test]
fn gelu_row_bits_do_not_depend_on_the_row_count() {
    let level = simd_level();
    for n in 1..=40 {
        let mut all = matrix(3, n, 0x6E1u64 + n as u64);
        let mut one = Tensor::from_vec(1, n, all.row(0).to_vec());
        gelu_inplace(level, &mut one);
        gelu_inplace(level, &mut all);
        assert_bitwise_eq(
            &one,
            &Tensor::from_vec(1, n, all.row(0).to_vec()),
            &format!("{level:?} gelu, n = {n}: 1 row vs row 0 of 3"),
        );
    }
}

/// The int8 kernel equals an f32 matmul against the *dequantized*
/// weights — scalar arm bitwise, SIMD arm within tolerance — so the
/// only error int8 introduces is the rounding in the codes.
#[test]
fn q8_matmul_matches_dequantized_f32() {
    let mut rng = ChaCha20Rng::seed_from_u64(0x4E12_0004);
    for case in 0..24 {
        let [m, k, n] = [24, 48, 48].map(|hi| rng.gen_range(1usize..hi));
        let seed = rng.gen_range(0u64..1000);
        let at = |what: &str| format!("case {case} (m={m} k={k} n={n} seed={seed}): {what}");
        let a = matrix(m, k, seed);
        let w = matrix(k, n, seed ^ 0xdead);
        let (scales, codes) = quantize_rows(&w);
        // Dequantize the way matmul_q8 defines: w'[p][j] = scales[p] * q[p][j].
        let deq = Tensor::from_vec(
            k,
            n,
            codes
                .iter()
                .enumerate()
                .map(|(i, &c)| scales[i / n] * c as f32)
                .collect(),
        );

        // Scalar q8: fold-into-a ordering differs from a plain matmul,
        // so compare against the same fold done in f32.
        let mut q8 = Tensor::zeros(1, 1);
        matmul_q8_into(SimdLevel::Scalar, &a, &scales, &codes, n, &mut q8);
        assert_close(
            &q8,
            &naive_matmul(&a, &deq),
            1e-4,
            1e-4,
            &at("q8 scalar vs dequantized"),
        );

        let mut q8_simd = Tensor::zeros(1, 1);
        matmul_q8_into(simd_level(), &a, &scales, &codes, n, &mut q8_simd);
        assert_close(&q8_simd, &q8, 1e-4, 1e-4, &at("q8 simd vs q8 scalar"));
    }
}

#[test]
fn unsupported_levels_fall_back_to_scalar_bitwise() {
    // Requesting a level the host/arch cannot run must silently produce
    // the scalar result, never garbage: the cross-arch enum values are
    // always safe to pass.
    let a = matrix(5, 7, 3);
    let b = matrix(7, 4, 4);
    let mut scalar = Tensor::zeros(1, 1);
    matmul_into(SimdLevel::Scalar, &a, &b, &mut scalar);
    for level in [SimdLevel::Avx2, SimdLevel::Neon] {
        if level == simd_level() {
            continue;
        }
        let mut out = Tensor::zeros(1, 1);
        matmul_into(level, &a, &b, &mut out);
        assert_bitwise_eq(&out, &scalar, "foreign-level fallback");
    }
}

#[test]
fn dispatch_reports_a_single_consistent_level() {
    // `simd_level()` is cached; repeated calls agree and availability
    // matches the level.
    let first = simd_level();
    assert_eq!(first, simd_level());
    assert_eq!(kernels::simd_available(), first != SimdLevel::Scalar);
}
