//! Backend selection for the tape-free inference path.
//!
//! [`Backend`] names the three execution strategies — bitwise-reference
//! scalar f32, runtime-dispatched SIMD f32, and int8 weights with f32
//! accumulation — and [`Engine`] binds one of them to a parameter store
//! so the forward pass in [`crate::infer`] can route every op through a
//! single object instead of sprinkling `match backend` through the
//! model code.
//!
//! The scalar backend is the default and stays bit-identical to the
//! autograd tape: every op delegates to the same reference kernels the
//! tape uses, whose products run 8 lanes wide on AVX2 hosts with the
//! portable loops' bits. The SIMD and int8 backends trade bitwise
//! identity for speed; their outputs are close enough that downstream
//! clustering is unaffected (tolerance-checked here, ARI-gated in CI).
//!
//! A requested backend always *resolves* rather than failing: SIMD on a
//! host without SIMD kernels degrades to scalar, int8 without a built
//! [`QuantStore`] degrades to the best f32 path. [`Engine::backend`]
//! reports what actually ran, which is what serving metrics record.

use rebert_tensor::kernels::{self, SimdLevel};
use rebert_tensor::{simd_available, simd_level, Tensor};

use crate::layers::{LayerNorm, Linear};
use crate::param::ParamStore;
use crate::quant::QuantStore;

/// Inference execution strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// The reference f32 arithmetic — one rounding per multiply and one
    /// per add, ascending `k`, no FMA — run 8 lanes wide when the host
    /// has AVX2 and by the portable loops otherwise, with the same bits
    /// either way. The bitwise reference path and the default everywhere.
    #[default]
    F32Scalar,
    /// Runtime-dispatched SIMD f32 kernels (AVX2+FMA or NEON); falls
    /// back to scalar on hosts without them.
    F32Simd,
    /// Int8 weights (per-row scales) with f32 accumulation; activations
    /// and vector parameters stay f32. Uses SIMD kernels when available.
    Int8,
}

impl Backend {
    /// Every backend, in benchmark/report order.
    pub const ALL: [Backend; 3] = [Backend::F32Scalar, Backend::F32Simd, Backend::Int8];

    /// Position of this backend in [`Backend::ALL`], for arrays indexed
    /// like it (declaration order is `ALL` order).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Canonical lowercase label, stable across releases: `"f32-scalar"`,
    /// `"f32-simd"`, `"int8"`. Used in CLI flags, HTTP headers, and
    /// metrics label values.
    pub fn label(self) -> &'static str {
        match self {
            Backend::F32Scalar => "f32-scalar",
            Backend::F32Simd => "f32-simd",
            Backend::Int8 => "int8",
        }
    }

    /// Parses a user-supplied backend name.
    ///
    /// Accepts the canonical labels plus the shorthands `"f32"` (scalar)
    /// and `"simd"`. Returns `None` for anything else — callers decide
    /// whether that is a 400 or a usage error.
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "f32" | "f32-scalar" | "scalar" => Some(Backend::F32Scalar),
            "f32-simd" | "simd" => Some(Backend::F32Simd),
            "int8" => Some(Backend::Int8),
            _ => None,
        }
    }

    /// The backend that will actually execute on this host: `F32Simd`
    /// degrades to `F32Scalar` when no SIMD kernels exist. `Int8` is
    /// host-independent (the scalar int8 kernel always exists) and is
    /// only further resolved by [`Engine::new`] when no quantized
    /// weights are supplied.
    pub fn effective(self) -> Backend {
        match self {
            Backend::F32Simd if !simd_available() => Backend::F32Scalar,
            other => other,
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(self.label())
    }
}

/// A parameter store bound to an execution backend: the object the
/// tape-free forward pass routes every op through.
///
/// Construction is cheap (two references and two enums) — build one per
/// request, or one per call. The quantized view it borrows is the
/// expensive part; owners cache that (see `rebert`'s model wrapper).
#[derive(Debug, Clone, Copy)]
pub struct Engine<'a> {
    store: &'a ParamStore,
    quant: Option<&'a QuantStore>,
    backend: Backend,
    level: SimdLevel,
}

impl<'a> Engine<'a> {
    /// The bitwise-reference engine: the reference kernels (8 lanes wide
    /// on AVX2 hosts, the same bits as the portable loops), f32 weights.
    /// This is what [`crate::BertClassifier::infer_logit`] uses, keeping
    /// the historical "tape-free == taped, bit for bit" contract.
    pub fn scalar(store: &'a ParamStore) -> Self {
        Engine {
            store,
            quant: None,
            backend: Backend::F32Scalar,
            level: SimdLevel::Scalar,
        }
    }

    /// Binds `store` to `backend`, resolving it against host capability
    /// and weight availability: `F32Simd` without SIMD kernels becomes
    /// `F32Scalar`; `Int8` without a quantized view becomes the best f32
    /// path. The resolved choice is visible via [`Engine::backend`].
    pub fn new(store: &'a ParamStore, quant: Option<&'a QuantStore>, backend: Backend) -> Self {
        let mut backend = backend.effective();
        if backend == Backend::Int8 && quant.is_none() {
            backend = Backend::F32Simd.effective();
        }
        let level = match backend {
            Backend::F32Scalar => SimdLevel::Scalar,
            Backend::F32Simd | Backend::Int8 => simd_level(),
        };
        let quant = if backend == Backend::Int8 {
            quant
        } else {
            None
        };
        Engine {
            store,
            quant,
            backend,
            level,
        }
    }

    /// The backend that actually executes (post-resolution).
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The SIMD level the kernels dispatch at.
    pub fn level(&self) -> SimdLevel {
        self.level
    }

    /// The underlying f32 parameter store.
    pub fn store(&self) -> &'a ParamStore {
        self.store
    }

    /// Whether this engine is pinned to the bitwise scalar path.
    pub fn is_scalar(&self) -> bool {
        self.backend == Backend::F32Scalar
    }

    /// `out = x @ W + b`. Int8 engines use the quantized weight when the
    /// parameter has a slot (matrices do; the bias add is always f32).
    pub(crate) fn linear_into(&self, lin: &Linear, x: &Tensor, out: &mut Tensor) {
        match self.quant.and_then(|qs| qs.get(lin.w)) {
            Some(qt) => {
                kernels::matmul_q8_into(self.level, x, qt.scales(), qt.data(), qt.cols(), out)
            }
            None => kernels::matmul_into(self.level, x, self.store.get(lin.w), out),
        }
        out.add_bias_assign(self.store.get(lin.b));
    }

    /// Row-wise layer norm in place. Gamma/beta always come from the f32
    /// store (vector parameters are never quantized).
    pub(crate) fn layer_norm_inplace(&self, ln: &LayerNorm, x: &mut Tensor) {
        let gamma = self.store.get(ln.gamma);
        let beta = self.store.get(ln.beta);
        let cols = x.cols();
        assert_eq!(gamma.shape(), (1, cols), "gamma shape");
        assert_eq!(beta.shape(), (1, cols), "beta shape");
        kernels::layer_norm_rows(self.level, x, gamma.data(), beta.data(), ln.eps);
    }

    /// Activation-by-activation matrix product (always f32 — only
    /// weights are ever quantized).
    pub(crate) fn matmul_into(&self, a: &Tensor, b: &Tensor, out: &mut Tensor) {
        kernels::matmul_into(self.level, a, b, out);
    }

    /// Attention scores `out = q @ k^T`.
    pub(crate) fn attn_scores_into(&self, q: &Tensor, k: &Tensor, out: &mut Tensor) {
        kernels::matmul_nt_into(self.level, q, k, out);
    }

    /// GELU elementwise in place.
    pub(crate) fn gelu_inplace(&self, x: &mut Tensor) {
        kernels::gelu_inplace(self.level, x);
    }

    /// Row-wise softmax in place.
    pub(crate) fn softmax_rows_inplace(&self, x: &mut Tensor) {
        kernels::softmax_rows_inplace(self.level, x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_parse_round_trip() {
        for (i, b) in Backend::ALL.into_iter().enumerate() {
            assert_eq!(b.index(), i);
            assert_eq!(Backend::parse(b.label()), Some(b));
            assert_eq!(b.to_string(), b.label());
        }
        assert_eq!(Backend::parse("f32"), Some(Backend::F32Scalar));
        assert_eq!(Backend::parse("simd"), Some(Backend::F32Simd));
        assert_eq!(Backend::parse("fp16"), None);
        assert_eq!(Backend::parse("F32"), None, "parse is case-sensitive");
    }

    #[test]
    fn display_honours_width_and_alignment() {
        assert_eq!(format!("{:<12}|", Backend::F32Simd), "f32-simd    |");
        assert_eq!(format!("{:>12}|", Backend::Int8), "        int8|");
        assert_eq!(format!("{:^6}|", Backend::Int8), " int8 |");
        assert_eq!(format!("{:.3}", Backend::F32Scalar), "f32");
    }

    #[test]
    fn default_backend_is_scalar() {
        assert_eq!(Backend::default(), Backend::F32Scalar);
    }

    #[test]
    fn engine_resolves_unavailable_choices() {
        let store = ParamStore::new();

        let scalar = Engine::scalar(&store);
        assert!(scalar.is_scalar());
        assert_eq!(scalar.level(), SimdLevel::Scalar);

        // SIMD request resolves to whatever the host has.
        let simd = Engine::new(&store, None, Backend::F32Simd);
        assert_eq!(simd.backend(), Backend::F32Simd.effective());

        // Int8 without quantized weights cannot run int8.
        let int8 = Engine::new(&store, None, Backend::Int8);
        assert_ne!(int8.backend(), Backend::Int8);
        assert_eq!(int8.backend(), Backend::F32Simd.effective());

        // Int8 with a (trivially empty) view keeps the int8 label.
        let view = QuantStore::build(&store);
        let int8 = Engine::new(&store, Some(&view), Backend::Int8);
        assert_eq!(int8.backend(), Backend::Int8);
    }
}
