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
//!
//! It also skips what the pooler never reads. The pooler takes only the
//! first token's final hidden state, so the last encoder layer projects
//! keys and values from every token but carries only the first token's
//! row through the queries, the attention output, both Add & Norms and
//! the feed-forward block. Every kernel computes each output row on its
//! own (a product element reads only its own row and column; softmax and
//! layer norm work row by row; GELU works element by element), so that
//! row gets the same bits as in an all-rows pass on every backend. This
//! module's tests pin it against an all-rows oracle on all three.

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
/// by [`BertClassifier::infer_logit`]. The encoder leaves only the first
/// token's row of it (`1 × d_model`); the next [`InferScratch::input_mut`]
/// grows it back inside the capacity it already has, so a warm scratch
/// still allocates nothing.
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
    /// The main activation: the `seq × d_model` input, then the residual
    /// stream, which the last layer cuts to its first row (`1 × d_model`).
    x: Tensor,
    /// Q/K/V projections (`rows × d_model` for Q, `seq × d_model` for K
    /// and V, where `rows` is `seq`, or 1 in the last layer).
    q: Tensor,
    k: Tensor,
    v: Tensor,
    /// Per-head column slices of Q/K/V.
    qh: Tensor,
    kh: Tensor,
    vh: Tensor,
    /// Attention scores / probabilities (`rows × seq`).
    scores: Tensor,
    /// One head's context (`rows × d_head`).
    ctx: Tensor,
    /// Concatenated head contexts (`rows × d_model`).
    concat: Tensor,
    /// Attention block output.
    attn_out: Tensor,
    /// Feed-forward inner activation (`rows × d_ff`).
    ff_inner: Tensor,
    /// Feed-forward output (`rows × d_model`).
    ff_out: Tensor,
    /// Pooler output (`1 × d_model`).
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
    /// Backend-routed layer application over the residual stream in
    /// `s.x`. Keys and values come from every row; the queries and
    /// everything after them from the first `rows` rows only, so `s.x`
    /// ends as `rows × d_model`.
    fn infer(&self, engine: &Engine<'_>, s: &mut InferScratch, rows: usize) {
        // Multi-head attention into s.attn_out.
        engine.linear_into(&self.attn.wk, &s.x, &mut s.k);
        engine.linear_into(&self.attn.wv, &s.x, &mut s.v);
        // Keeps the first `rows` rows and the allocation.
        s.x.resize(rows, self.attn.d_model);
        engine.linear_into(&self.attn.wq, &s.x, &mut s.q);
        let d_head = self.attn.d_model / self.attn.n_heads;
        let scale = 1.0 / (d_head as f32).sqrt();
        s.concat.resize(rows, self.attn.d_model);
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
            for i in 0..rows {
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
    /// (filled via [`InferScratch::input_mut`]). Leaves the first
    /// token's final hidden state, `1 × d_model`, in the scratch for the
    /// pooler. Runs the bitwise scalar backend.
    pub fn infer(&self, store: &ParamStore, scratch: &mut InferScratch) {
        self.infer_with(&Engine::scalar(store), scratch);
    }

    /// Backend-routed encoder stack: like [`BertEncoder::infer`] but
    /// executed by `engine`. Every layer but the last runs on all
    /// `seq` rows; the last projects keys and values from every row and
    /// computes the rest for the first token's row only, the one row
    /// the pooler reads. That row has the bits an all-rows pass gives it.
    ///
    /// # Panics
    ///
    /// Panics if the input has no rows.
    pub fn infer_with(&self, engine: &Engine<'_>, scratch: &mut InferScratch) {
        let (seq, d_model) = scratch.x.shape();
        assert!(seq > 0, "the encoder needs at least one token");
        for (i, layer) in self.layers.iter().enumerate() {
            let rows = if i + 1 == self.layers.len() { 1 } else { seq };
            layer.infer(engine, scratch, rows);
        }
        // A stack without layers hands on the input's own first row.
        scratch.x.resize(1, d_model);
    }
}

impl Pooler {
    /// Backend-routed pooling of the encoder's `1 × d_model` output in
    /// `scratch`: linear + tanh over the first token's hidden state,
    /// read in place. The tanh is a single `1 × d_model` row — it stays
    /// scalar on every backend.
    fn infer(&self, engine: &Engine<'_>, s: &mut InferScratch) {
        engine.linear_into(&self.dense, &s.x, &mut s.pooled);
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
    /// other backends are tolerance-equivalent. On every backend the
    /// last encoder layer computes only the pooled row
    /// ([`BertEncoder::infer_with`]), and the logit has the bits an
    /// all-rows pass on the same backend gives.
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
    use crate::engine::Backend;
    use crate::param::Forward;
    use crate::quant::QuantStore;
    use rand::{Rng, SeedableRng};
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

    /// The oracle for the one-row last layer: every layer, the last
    /// included, runs on every row, and the pooler copies row 0 out of
    /// the full `seq × d_model` result. Test-only, so production keeps
    /// one path.
    fn all_rows_layer(layer: &EncoderLayer, engine: &Engine<'_>, s: &mut InferScratch) {
        engine.linear_into(&layer.attn.wq, &s.x, &mut s.q);
        engine.linear_into(&layer.attn.wk, &s.x, &mut s.k);
        engine.linear_into(&layer.attn.wv, &s.x, &mut s.v);
        let seq = s.x.rows();
        let d_head = layer.attn.d_model / layer.attn.n_heads;
        let scale = 1.0 / (d_head as f32).sqrt();
        s.concat.resize(seq, layer.attn.d_model);
        for h in 0..layer.attn.n_heads {
            let start = h * d_head;
            s.q.col_slice_into(start, d_head, &mut s.qh);
            s.k.col_slice_into(start, d_head, &mut s.kh);
            s.v.col_slice_into(start, d_head, &mut s.vh);
            engine.attn_scores_into(&s.qh, &s.kh, &mut s.scores);
            s.scores.scale_assign(scale);
            engine.softmax_rows_inplace(&mut s.scores);
            engine.matmul_into(&s.scores, &s.vh, &mut s.ctx);
            for i in 0..seq {
                s.concat.row_mut(i)[start..start + d_head].copy_from_slice(s.ctx.row(i));
            }
        }
        engine.linear_into(&layer.attn.wo, &s.concat, &mut s.attn_out);
        s.x.add_assign(&s.attn_out);
        engine.layer_norm_inplace(&layer.ln1, &mut s.x);
        engine.linear_into(&layer.ff1, &s.x, &mut s.ff_inner);
        engine.gelu_inplace(&mut s.ff_inner);
        engine.linear_into(&layer.ff2, &s.ff_inner, &mut s.ff_out);
        s.x.add_assign(&s.ff_out);
        engine.layer_norm_inplace(&layer.ln2, &mut s.x);
    }

    fn all_rows_logit(model: &BertClassifier, engine: &Engine<'_>, x: &Tensor) -> f32 {
        let mut s = InferScratch::new();
        s.input_mut(x.rows(), x.cols())
            .data_mut()
            .copy_from_slice(x.data());
        for layer in &model.encoder.layers {
            all_rows_layer(layer, engine, &mut s);
        }
        assert_eq!(s.x.shape(), x.shape(), "the oracle keeps every row");
        let first = Tensor::from_vec(1, x.cols(), s.x.row(0).to_vec());
        let mut pooled = Tensor::default();
        engine.linear_into(&model.pooler.dense, &first, &mut pooled);
        pooled.map_inplace(f32::tanh);
        let mut logit = Tensor::default();
        engine.linear_into(&model.head, &pooled, &mut logit);
        logit.data()[0]
    }

    /// The last layer computes only the pooled row, and the logit keeps
    /// the all-rows forward's bits on every backend: random shapes
    /// (heads × head width, 1–3 layers, FFN widths on and off a multiple
    /// of 8, seq 1..=70 with seq 1 forced every eighth case), all run
    /// through one scratch that shrinks to one row and regrows.
    #[test]
    fn one_row_last_layer_matches_all_rows_forward_on_every_backend() {
        let mut rng = ChaCha20Rng::seed_from_u64(0x1AB0_0001);
        let mut scratch = InferScratch::new();
        for case in 0..64 {
            let n_heads = rng.gen_range(1usize..=4);
            let d_head = rng.gen_range(2usize..=8);
            let cfg = BertConfig {
                d_model: n_heads * d_head,
                n_heads,
                n_layers: rng.gen_range(1usize..=3),
                d_ff: rng.gen_range(4usize..=40),
            };
            let seq = if case % 8 == 0 {
                1
            } else {
                rng.gen_range(1usize..=70)
            };
            let seed = rng.gen_range(0u64..1000);
            let mut store = ParamStore::new();
            let mut init = ChaCha20Rng::seed_from_u64(seed);
            let model = BertClassifier::new(&mut store, &mut init, "m", &cfg);
            let view = QuantStore::build(&store);
            let x = normal(&mut rng, seq, cfg.d_model, 1.0);
            for backend in Backend::ALL {
                let engine = Engine::new(&store, Some(&view), backend);
                scratch
                    .input_mut(seq, cfg.d_model)
                    .data_mut()
                    .copy_from_slice(x.data());
                let got = model.infer_logit_with(&engine, &mut scratch);
                let want = all_rows_logit(&model, &engine, &x);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "case {case} ({}, seq {seq}, seed {seed}, {cfg:?}): \
                     one-row {got} vs all-rows {want}",
                    engine.backend()
                );
            }
        }
    }

    #[test]
    fn encoder_leaves_the_first_tokens_row() {
        let mut store = ParamStore::new();
        let mut rng = ChaCha20Rng::seed_from_u64(5);
        for n_layers in [0usize, 1, 2] {
            let cfg = BertConfig {
                n_layers,
                ..BertConfig::tiny()
            };
            let enc = BertEncoder::new(&mut store, &mut rng, "e", &cfg);
            let x = normal(&mut rng, 6, cfg.d_model, 1.0);
            let mut scratch = InferScratch::new();
            scratch
                .input_mut(6, cfg.d_model)
                .data_mut()
                .copy_from_slice(x.data());
            enc.infer(&store, &mut scratch);
            assert_eq!(scratch.x.shape(), (1, cfg.d_model), "{n_layers} layers");
            if n_layers == 0 {
                assert_eq!(scratch.x.row(0), x.row(0));
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
