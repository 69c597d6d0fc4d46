//! A dense, row-major 2-D `f32` tensor.
//!
//! Everything the BERT encoder needs is expressible over 2-D matrices
//! (sequences are `seq_len × d_model` matrices), so this crate deliberately
//! avoids an N-dimensional tensor: shapes stay auditable and the autograd
//! tape (see [`crate::tape`]) stays simple.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense `rows × cols` matrix of `f32`, row-major.
///
/// # Examples
///
/// ```
/// use rebert_tensor::Tensor;
///
/// let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Tensor::eye(2);
/// let c = a.matmul(&b);
/// assert_eq!(c, a);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a zero-filled tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(n, n);
        for i in 0..n {
            t[(i, i)] = 1.0;
        }
        t
    }

    /// Creates a tensor from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data length mismatch");
        Tensor { rows, cols, data }
    }

    /// Creates a tensor from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have differing lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "at least one row required");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Tensor {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// A `1 × n` row vector.
    pub fn row_vector(v: &[f32]) -> Self {
        Tensor::from_vec(1, v.len(), v.to_vec())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// A row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A row as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self @ other`.
    ///
    /// Backed by [`Tensor::matmul_into`]: each output element
    /// accumulates sequentially in `k`, so results are deterministic and
    /// independent of blocking and of the host's vector width.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// Matrix product `self @ other` written into `out` (resized as
    /// needed, reusing its allocation). The hot path of the inference
    /// engine: no per-call allocation once `out`'s capacity is warm.
    ///
    /// This is the reference arithmetic (see [`crate::kernels`]): each
    /// output element starts at `+0.0` and adds `a[i][k] * b[k][j]` in
    /// ascending `k`, one rounding per multiply and one per add, so it
    /// is bit-identical to the naive triple loop. AVX2 hosts run it in
    /// register tiles 8 output lanes wide; others run the portable
    /// blocked loop ([`crate::kernels::portable::matmul_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        crate::kernels::reference_matmul(self, other, out);
    }

    /// Matrix product `self @ other^T`.
    ///
    /// Backed by [`Tensor::matmul_nt_into`], so the wrapper allocates
    /// only the output.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.rows);
        self.matmul_nt_into(other, &mut out);
        out
    }

    /// Matrix product `self @ other^T` written into `out` (resized as
    /// needed, reusing its allocation).
    ///
    /// Computed as `self.matmul(&other.transpose())`, with `other`
    /// transposed into a per-thread buffer so a warm call allocates
    /// nothing: each output accumulates in ascending `k` from `+0.0` on
    /// the [`Tensor::matmul_into`] kernel.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_nt_into(&self, other: &Tensor, out: &mut Tensor) {
        crate::kernels::reference_matmul_nt(self, other, out);
    }

    /// Matrix product `self^T @ other` without materializing the transpose.
    ///
    /// Each output element accumulates in ascending `k` from `+0.0`,
    /// skipping every term whose `self` entry is `±0.0` (so an infinite
    /// `other` entry behind a zero contributes nothing). AVX2 hosts run
    /// it 8 output lanes wide, others the portable loop
    /// ([`crate::kernels::portable::matmul_tn`]), with the same bits.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != other.rows()`.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        crate::kernels::reference_matmul_tn(self, other)
    }

    /// The transpose.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// The transpose written into `out` (resized as needed, reusing its
    /// allocation).
    pub fn transpose_into(&self, out: &mut Tensor) {
        out.resize(self.cols, self.rows);
        for i in 0..self.rows {
            let src = self.row(i);
            for (j, &v) in src.iter().enumerate() {
                out.data[j * self.rows + i] = v;
            }
        }
    }

    /// Elementwise sum.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "sub shape mismatch");
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "mul shape mismatch");
        self.zip_map(other, |a, b| a * b)
    }

    /// Multiplies every element by `c`.
    pub fn scale(&self, c: f32) -> Tensor {
        self.map(|x| x * c)
    }

    /// Adds a `1 × cols` bias row to every row.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 × self.cols()`.
    pub fn add_bias(&self, bias: &Tensor) -> Tensor {
        assert_eq!(bias.shape(), (1, self.cols), "bias shape mismatch");
        let mut out = self.clone();
        for i in 0..self.rows {
            for (j, v) in out.row_mut(i).iter_mut().enumerate() {
                *v += bias.data[j];
            }
        }
        out
    }

    /// Reshapes to `rows × cols`, reusing the existing allocation.
    ///
    /// Element values after a resize are unspecified (the inference
    /// scratch buffers always overwrite them); the only guarantee is that
    /// no reallocation happens when the new size fits the capacity.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Elementwise `self += other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Adds a `1 × cols` bias row to every row in place.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 × self.cols()`.
    pub fn add_bias_assign(&mut self, bias: &Tensor) {
        assert_eq!(bias.shape(), (1, self.cols), "bias shape mismatch");
        for i in 0..self.rows {
            let row = &mut self.data[i * self.cols..(i + 1) * self.cols];
            for (v, &b) in row.iter_mut().zip(&bias.data) {
                *v += b;
            }
        }
    }

    /// Multiplies every element by `c` in place.
    pub fn scale_assign(&mut self, c: f32) {
        for v in &mut self.data {
            *v *= c;
        }
    }

    /// Applies `f` elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Applies `f` elementwise.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Column-wise sums as a `1 × cols` row vector.
    pub fn col_sums(&self) -> Tensor {
        let mut out = Tensor::zeros(1, self.cols);
        for i in 0..self.rows {
            for (j, &v) in self.row(i).iter().enumerate() {
                out.data[j] += v;
            }
        }
        out
    }

    /// Row-wise softmax (numerically stabilized).
    pub fn softmax_rows(&self) -> Tensor {
        let mut out = self.clone();
        out.softmax_rows_inplace();
        out
    }

    /// Row-wise softmax in place (numerically stabilized).
    pub fn softmax_rows_inplace(&mut self) {
        for i in 0..self.rows {
            let row = &mut self.data[i * self.cols..(i + 1) * self.cols];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            if sum > 0.0 {
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
        }
    }

    /// Extracts columns `[start, start+len)` as a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the column count.
    pub fn col_slice(&self, start: usize, len: usize) -> Tensor {
        let mut out = Tensor::zeros(self.rows, len);
        self.col_slice_into(start, len, &mut out);
        out
    }

    /// Extracts columns `[start, start+len)` into `out` (resized as
    /// needed, reusing its allocation).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the column count.
    pub fn col_slice_into(&self, start: usize, len: usize, out: &mut Tensor) {
        assert!(start + len <= self.cols, "column slice out of bounds");
        out.resize(self.rows, len);
        for i in 0..self.rows {
            out.row_mut(i)
                .copy_from_slice(&self.row(i)[start..start + len]);
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Maximum absolute difference to another tensor of the same shape.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

impl Default for Tensor {
    /// An empty `0 × 0` tensor — the natural seed for scratch buffers
    /// that grow on first use.
    fn default() -> Self {
        Tensor::zeros(0, 0)
    }
}

impl Index<(usize, usize)> for Tensor {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Tensor {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Tensor {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:>9.4}", self[(i, j)])?;
                if j + 1 < self.cols.min(8) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Tensor::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Tensor::from_rows(&[&[1.0, 0.0, 2.0], &[0.5, 1.0, -1.0]]);
        assert_eq!(a.matmul_nt(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Tensor::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        assert_eq!(a.matmul_tn(&b), a.transpose().matmul(&b));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_checked() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[1000.0, 1000.0, 1000.0]]);
        let s = a.softmax_rows();
        for i in 0..2 {
            let sum: f32 = s.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {i} sums to {sum}");
        }
        // Large values do not overflow (stabilized).
        assert!((s[(1, 0)] - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn add_bias_broadcasts() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let bias = Tensor::row_vector(&[10.0, 20.0]);
        let out = a.add_bias(&bias);
        assert_eq!(out, Tensor::from_rows(&[&[11.0, 22.0], &[13.0, 24.0]]));
    }

    #[test]
    fn col_slice_extracts() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0]]);
        let s = a.col_slice(1, 2);
        assert_eq!(s, Tensor::from_rows(&[&[2.0, 3.0], &[6.0, 7.0]]));
    }

    #[test]
    fn col_sums_accumulate() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.col_sums(), Tensor::row_vector(&[4.0, 6.0]));
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_rows(&[&[1.0, -2.0]]);
        let b = Tensor::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.add(&b), Tensor::from_rows(&[&[4.0, 2.0]]));
        assert_eq!(a.sub(&b), Tensor::from_rows(&[&[-2.0, -6.0]]));
        assert_eq!(a.mul(&b), Tensor::from_rows(&[&[3.0, -8.0]]));
        assert_eq!(a.scale(2.0), Tensor::from_rows(&[&[2.0, -4.0]]));
    }

    #[test]
    fn transpose_round_trips() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
    }

    /// Reference triple-loop product for validating the blocked kernels.
    fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for k in 0..a.cols() {
                for j in 0..b.cols() {
                    out[(i, j)] += a[(i, k)] * b[(k, j)];
                }
            }
        }
        out
    }

    /// Deterministic pseudo-random fill (no external RNG needed here).
    fn pseudo_random(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
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

    #[test]
    fn blocked_matmul_matches_naive_bitwise() {
        // Odd sizes exercise every remainder path of the MR×NR tiling.
        for (m, k, n) in [(1, 1, 1), (3, 5, 7), (4, 16, 16), (5, 17, 19), (33, 9, 2)] {
            let a = pseudo_random(m, k, (m * 31 + k) as u64);
            let b = pseudo_random(k, n, (k * 31 + n) as u64);
            assert_eq!(a.matmul(&b), matmul_naive(&a, &b), "{m}x{k} @ {k}x{n}");
        }
    }

    #[test]
    fn blocked_matmul_nt_matches_naive_bitwise() {
        for (m, k, n) in [(1, 3, 1), (3, 5, 7), (4, 8, 4), (5, 17, 19), (2, 9, 33)] {
            let a = pseudo_random(m, k, (m + k) as u64);
            let b = pseudo_random(n, k, (n * 7 + k) as u64);
            assert_eq!(
                a.matmul_nt(&b),
                matmul_naive(&a, &b.transpose()),
                "{m}x{k} @ ({n}x{k})^T"
            );
            // The `_into` form agrees bitwise with the allocating one.
            let mut out = Tensor::zeros(0, 0);
            a.matmul_nt_into(&b, &mut out);
            assert_eq!(out, a.matmul_nt(&b), "nt_into vs nt {m}x{k}x{n}");
        }
    }

    #[test]
    fn into_variants_reuse_allocations() {
        let a = pseudo_random(6, 5, 1);
        let b = pseudo_random(5, 9, 2);
        let mut out = Tensor::zeros(100, 100); // larger: capacity is reused
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        let mut out_nt = Tensor::zeros(1, 1); // smaller: grows in place
        a.matmul_nt_into(&a, &mut out_nt);
        assert_eq!(out_nt, a.matmul_nt(&a));
        let mut slice = Tensor::zeros(2, 2);
        a.col_slice_into(1, 3, &mut slice);
        assert_eq!(slice, a.col_slice(1, 3));
    }

    #[test]
    fn inplace_ops_match_pure_ops() {
        let a = pseudo_random(4, 6, 3);
        let b = pseudo_random(4, 6, 4);
        let bias = pseudo_random(1, 6, 5);

        let mut t = a.clone();
        t.add_assign(&b);
        assert_eq!(t, a.add(&b));

        let mut t = a.clone();
        t.add_bias_assign(&bias);
        assert_eq!(t, a.add_bias(&bias));

        let mut t = a.clone();
        t.scale_assign(0.37);
        assert_eq!(t, a.scale(0.37));

        let mut t = a.clone();
        t.map_inplace(|x| x.tanh());
        assert_eq!(t, a.map(f32::tanh));

        let mut t = a.clone();
        t.softmax_rows_inplace();
        assert_eq!(t, a.softmax_rows());
    }

    #[test]
    fn resize_reshapes_and_preserves_capacity() {
        let mut t = Tensor::zeros(8, 8);
        let cap = t.data.capacity();
        t.resize(2, 3);
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.len(), 6);
        assert_eq!(t.data.capacity(), cap, "shrinking must not reallocate");
    }

    #[test]
    fn display_is_nonempty() {
        let a = Tensor::zeros(2, 2);
        assert!(!a.to_string().is_empty());
    }
}
