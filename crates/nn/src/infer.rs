//! Tape-free inference: the encoder/attention/pooler forward pass
//! executed directly over [`Tensor`]s.
//!
//! The training path ([`crate::Forward`]) records every operation on an
//! autograd tape: each parameter is cloned onto the tape as a leaf and
//! every intermediate activation is stored for the backward pass. At
//! inference time all of that is waste — gradients are thrown away, yet
//! the tape still allocates and copies per call.
//!
//! This module is the inference-only execution path: no tape nodes, no
//! parameter clones, and a reusable [`InferScratch`] holding every
//! intermediate buffer, so a warm scratch performs **zero allocations**
//! per forward pass. Arithmetic mirrors the taped operations exactly —
//! the same matmul kernels, the same [`rebert_tensor::row_mean_var`]
//! layer-norm statistics, the same activation functions in the same
//! order — so taped and tape-free logits agree bit-for-bit (verified by
//! this module's tests and the `rebert` crate's property tests).

use rebert_tensor::Tensor;

use crate::bert::{BertClassifier, BertEncoder, EncoderLayer, Pooler};
use crate::engine::Engine;
use crate::layers::{Embedding, Linear};
use crate::param::ParamStore;

/// Reusable intermediate buffers for the tape-free forward pass.
///
/// One scratch per thread: it is cheap to create but worth keeping warm —
/// after the first pass every buffer reuses its allocation. The input
/// activation is written through [`InferScratch::input_mut`] and consumed
/// by [`BertClassifier::infer_logit`].
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use rebert_nn::{BertClassifier, BertConfig, InferScratch, ParamStore};
///
/// let mut store = ParamStore::new();
/// let mut rng = rand_chacha::ChaCha20Rng::seed_from_u64(0);
/// let model = BertClassifier::new(&mut store, &mut rng, "m", &BertConfig::tiny());
///
/// let mut scratch = InferScratch::new();
/// scratch
///     .input_mut(4, 16)
///     .data_mut()
///     .iter_mut()
///     .for_each(|v| *v = 0.5);
/// let z = model.infer_logit(&store, &mut scratch);
/// assert!(z.is_finite());
/// ```
#[derive(Debug, Default)]
pub struct InferScratch {
    /// The main `seq × d_model` activation (input, then residual stream).
    x: Tensor,
    /// Q/K/V projections.
    q: Tensor,
    k: Tensor,
    v: Tensor,
    /// Per-head column slices of Q/K/V.
    qh: Tensor,
    kh: Tensor,
    vh: Tensor,
    /// Attention scores / probabilities (`seq × seq`).
    scores: Tensor,
    /// One head's context (`seq × d_head`).
    ctx: Tensor,
    /// Concatenated head contexts (`seq × d_model`).
    concat: Tensor,
    /// Attention block output.
    attn_out: Tensor,
    /// Feed-forward inner activation (`seq × d_ff`).
    ff_inner: Tensor,
    /// Feed-forward output (`seq × d_model`).
    ff_out: Tensor,
    /// Pooler buffers (`1 × d_model`).
    pooled_in: Tensor,
    pooled: Tensor,
    /// The classification logit (`1 × 1`).
    logit: Tensor,
}

impl InferScratch {
    /// Creates an empty scratch; buffers grow on first use and are then
    /// reused across passes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resizes the input activation to `rows × cols` and returns it for
    /// the caller to fill (e.g. with the combined embedding matrix).
    /// Previous contents are unspecified — overwrite every element.
    pub fn input_mut(&mut self, rows: usize, cols: usize) -> &mut Tensor {
        self.x.resize(rows, cols);
        &mut self.x
    }
}

impl Linear {
    /// Tape-free forward: `out = x @ W + b` with `out` reused across
    /// calls, on the bitwise scalar backend. Public so downstream crates
    /// can run auxiliary projections (e.g. tree-code embeddings) on the
    /// inference path.
    pub fn infer_into(&self, store: &ParamStore, x: &Tensor, out: &mut Tensor) {
        Engine::scalar(store).linear_into(self, x, out);
    }

    /// Backend-routed forward: like [`Linear::infer_into`] but executed
    /// by `engine` (SIMD kernels, quantized weights, …).
    pub fn infer_into_with(&self, engine: &Engine<'_>, x: &Tensor, out: &mut Tensor) {
        engine.linear_into(self, x, out);
    }
}

impl Embedding {
    /// Tape-free lookup: row `ids[i]` of the table becomes row `i` of
    /// `out` (resized as needed).
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range.
    pub fn gather_into(&self, store: &ParamStore, ids: &[usize], out: &mut Tensor) {
        let table = store.get(self.table);
        out.resize(ids.len(), table.cols());
        for (i, &id) in ids.iter().enumerate() {
            assert!(id < table.rows(), "gather id {id} out of range");
            out.row_mut(i).copy_from_slice(table.row(id));
        }
    }

    /// Tape-free lookup-and-accumulate: adds row `ids[i]` of the table
    /// onto row `i` of `out` (which must already be `ids.len() × dim`).
    /// Equivalent to a gather followed by an elementwise add, without
    /// materializing the gathered matrix.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range or `out` has the wrong shape.
    pub fn gather_add(&self, store: &ParamStore, ids: &[usize], out: &mut Tensor) {
        let table = store.get(self.table);
        assert_eq!(
            out.shape(),
            (ids.len(), table.cols()),
            "gather_add shape mismatch"
        );
        for (i, &id) in ids.iter().enumerate() {
            assert!(id < table.rows(), "gather id {id} out of range");
            let src = table.row(id);
            for (o, &s) in out.row_mut(i).iter_mut().zip(src) {
                *o += s;
            }
        }
    }
}

impl EncoderLayer {
    /// Backend-routed layer application: updates `s.x` in place.
    fn infer(&self, engine: &Engine<'_>, s: &mut InferScratch) {
        // Multi-head attention into s.attn_out.
        engine.linear_into(&self.attn.wq, &s.x, &mut s.q);
        engine.linear_into(&self.attn.wk, &s.x, &mut s.k);
        engine.linear_into(&self.attn.wv, &s.x, &mut s.v);
        let seq = s.x.rows();
        let d_head = self.attn.d_model / self.attn.n_heads;
        let scale = 1.0 / (d_head as f32).sqrt();
        s.concat.resize(seq, self.attn.d_model);
        for h in 0..self.attn.n_heads {
            let start = h * d_head;
            s.q.col_slice_into(start, d_head, &mut s.qh);
            s.k.col_slice_into(start, d_head, &mut s.kh);
            s.v.col_slice_into(start, d_head, &mut s.vh);
            // Q @ K^T: on the scalar engine the same `matmul_nt` the tape
            // runs, so the scores match the taped pass bit for bit.
            engine.attn_scores_into(&s.qh, &s.kh, &mut s.scores);
            s.scores.scale_assign(scale);
            engine.softmax_rows_inplace(&mut s.scores);
            engine.matmul_into(&s.scores, &s.vh, &mut s.ctx);
            for i in 0..seq {
                s.concat.row_mut(i)[start..start + d_head].copy_from_slice(s.ctx.row(i));
            }
        }
        engine.linear_into(&self.attn.wo, &s.concat, &mut s.attn_out);

        // Residual + norm, feed-forward, residual + norm.
        s.x.add_assign(&s.attn_out);
        engine.layer_norm_inplace(&self.ln1, &mut s.x);
        engine.linear_into(&self.ff1, &s.x, &mut s.ff_inner);
        engine.gelu_inplace(&mut s.ff_inner);
        engine.linear_into(&self.ff2, &s.ff_inner, &mut s.ff_out);
        s.x.add_assign(&s.ff_out);
        engine.layer_norm_inplace(&self.ln2, &mut s.x);
    }
}

impl BertEncoder {
    /// Tape-free encoder stack over the activation in `scratch`
    /// (filled via [`InferScratch::input_mut`]); the result stays in the
    /// scratch for the pooler. Runs the bitwise scalar backend.
    pub fn infer(&self, store: &ParamStore, scratch: &mut InferScratch) {
        self.infer_with(&Engine::scalar(store), scratch);
    }

    /// Backend-routed encoder stack: like [`BertEncoder::infer`] but
    /// executed by `engine`.
    pub fn infer_with(&self, engine: &Engine<'_>, scratch: &mut InferScratch) {
        for layer in &self.layers {
            layer.infer(engine, scratch);
        }
    }
}

impl Pooler {
    /// Backend-routed pooling of the encoded activation in `scratch`:
    /// linear + tanh over the first token's hidden state. The tanh is a
    /// single `1 × d_model` row — it stays scalar on every backend.
    fn infer(&self, engine: &Engine<'_>, s: &mut InferScratch) {
        let d = s.x.cols();
        s.pooled_in.resize(1, d);
        s.pooled_in.row_mut(0).copy_from_slice(s.x.row(0));
        engine.linear_into(&self.dense, &s.pooled_in, &mut s.pooled);
        s.pooled.map_inplace(f32::tanh);
    }
}

impl BertClassifier {
    /// Tape-free classification logit for the embedded input previously
    /// written through [`InferScratch::input_mut`].
    ///
    /// Produces the same value as the taped [`BertClassifier::logit`]
    /// bit-for-bit, without recording a tape: no parameter clones, no
    /// stored intermediates, and zero allocations once `scratch` is warm.
    /// Equivalent to [`BertClassifier::infer_logit_with`] on
    /// [`Engine::scalar`].
    pub fn infer_logit(&self, store: &ParamStore, scratch: &mut InferScratch) -> f32 {
        self.infer_logit_with(&Engine::scalar(store), scratch)
    }

    /// Backend-routed classification logit: the same forward pass as
    /// [`BertClassifier::infer_logit`], executed by `engine` — SIMD
    /// kernels and/or int8 weights when the engine carries them. Only
    /// the scalar engine guarantees bitwise identity with the tape;
    /// other backends are tolerance-equivalent.
    pub fn infer_logit_with(&self, engine: &Engine<'_>, scratch: &mut InferScratch) -> f32 {
        self.encoder.infer_with(engine, scratch);
        self.pooler.infer(engine, scratch);
        let (pooled, logit) = (&scratch.pooled, &mut scratch.logit);
        engine.linear_into(&self.head, pooled, logit);
        logit.data()[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bert::BertConfig;
    use crate::param::Forward;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;
    use rebert_tensor::normal;

    fn taped_logit(model: &BertClassifier, store: &ParamStore, x: &Tensor) -> f32 {
        let mut fwd = Forward::new(store);
        let xv = fwd.input(x.clone());
        let z = model.logit(&mut fwd, xv);
        fwd.tape.value(z).data()[0]
    }

    fn infer_logit(model: &BertClassifier, store: &ParamStore, x: &Tensor) -> f32 {
        let mut scratch = InferScratch::new();
        scratch
            .input_mut(x.rows(), x.cols())
            .data_mut()
            .copy_from_slice(x.data());
        model.infer_logit(store, &mut scratch)
    }

    #[test]
    fn infer_matches_taped_forward_exactly() {
        for (cfg, seed) in [
            (BertConfig::tiny(), 0u64),
            (BertConfig::tiny(), 1),
            (BertConfig::small(), 2),
        ] {
            let mut store = ParamStore::new();
            let mut rng = ChaCha20Rng::seed_from_u64(seed);
            let model = BertClassifier::new(&mut store, &mut rng, "m", &cfg);
            for seq in [1usize, 3, 9] {
                let x = normal(&mut rng, seq, cfg.d_model, 1.0);
                let taped = taped_logit(&model, &store, &x);
                let infer = infer_logit(&model, &store, &x);
                assert_eq!(
                    taped.to_bits(),
                    infer.to_bits(),
                    "seed {seed} seq {seq}: taped {taped} != infer {infer}"
                );
            }
        }
    }

    #[test]
    fn scratch_reuse_is_stable_across_shapes() {
        // Reusing one scratch across different sequence lengths must not
        // leak state between passes.
        let mut store = ParamStore::new();
        let mut rng = ChaCha20Rng::seed_from_u64(7);
        let cfg = BertConfig::tiny();
        let model = BertClassifier::new(&mut store, &mut rng, "m", &cfg);
        let long = normal(&mut rng, 11, cfg.d_model, 1.0);
        let short = normal(&mut rng, 2, cfg.d_model, 1.0);

        let run = |x: &Tensor, scratch: &mut InferScratch| {
            scratch
                .input_mut(x.rows(), x.cols())
                .data_mut()
                .copy_from_slice(x.data());
            model.infer_logit(&store, scratch)
        };

        let mut reused = InferScratch::new();
        let _ = run(&long, &mut reused); // dirty the buffers with a longer pass
        let warm = run(&short, &mut reused);
        let fresh = run(&short, &mut InferScratch::new());
        assert_eq!(warm.to_bits(), fresh.to_bits());
    }

    #[test]
    fn simd_and_int8_backends_track_scalar_logits() {
        use crate::engine::Backend;
        use crate::quant::QuantStore;

        let mut store = ParamStore::new();
        let mut rng = ChaCha20Rng::seed_from_u64(11);
        let cfg = BertConfig::tiny();
        let model = BertClassifier::new(&mut store, &mut rng, "m", &cfg);
        let view = QuantStore::build(&store);

        let mut scratch = InferScratch::new();
        for seq in [1usize, 4, 7] {
            let x = normal(&mut rng, seq, cfg.d_model, 1.0);
            let mut run = |backend: Backend| {
                scratch
                    .input_mut(x.rows(), x.cols())
                    .data_mut()
                    .copy_from_slice(x.data());
                let engine = Engine::new(&store, Some(&view), backend);
                model.infer_logit_with(&engine, &mut scratch)
            };
            let reference = run(Backend::F32Scalar);
            let simd = run(Backend::F32Simd);
            let int8 = run(Backend::Int8);
            assert!(reference.is_finite());
            // SIMD reorders accumulation; drift stays at rounding scale.
            assert!(
                (simd - reference).abs() <= 1e-4 + 1e-3 * reference.abs(),
                "seq {seq}: simd {simd} vs scalar {reference}"
            );
            // Int8 perturbs the weights themselves; layer norms keep the
            // drift bounded but it is a genuinely lossy format.
            assert!(
                (int8 - reference).abs() <= 0.1 + 0.1 * reference.abs(),
                "seq {seq}: int8 {int8} vs scalar {reference}"
            );
        }
    }

    #[test]
    fn scalar_engine_with_variant_is_bitwise_identical() {
        let mut store = ParamStore::new();
        let mut rng = ChaCha20Rng::seed_from_u64(19);
        let cfg = BertConfig::tiny();
        let model = BertClassifier::new(&mut store, &mut rng, "m", &cfg);
        let x = normal(&mut rng, 5, cfg.d_model, 1.0);

        let direct = infer_logit(&model, &store, &x);
        let mut scratch = InferScratch::new();
        scratch
            .input_mut(x.rows(), x.cols())
            .data_mut()
            .copy_from_slice(x.data());
        let via_engine = model.infer_logit_with(&Engine::scalar(&store), &mut scratch);
        assert_eq!(direct.to_bits(), via_engine.to_bits());
    }

    #[test]
    fn gather_add_matches_gather_then_add() {
        let mut store = ParamStore::new();
        let mut rng = ChaCha20Rng::seed_from_u64(3);
        let emb = Embedding::new(&mut store, &mut rng, "e", 6, 4);
        let ids = [1usize, 5, 1];
        let mut base = normal(&mut rng, 3, 4, 1.0);
        let expected = {
            let mut g = Tensor::zeros(1, 1);
            emb.gather_into(&store, &ids, &mut g);
            base.add(&g)
        };
        emb.gather_add(&store, &ids, &mut base);
        assert_eq!(base, expected);
    }
}
