//! The BERT-style encoder stack, pooler, and classification head
//! (paper §II-C and Fig. 4).

use rebert_tensor::VarId;

use crate::attention::MultiHeadAttention;
use crate::layers::{LayerNorm, Linear};
use crate::param::{Forward, Init, ParamStore};

/// Hyperparameters of the encoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BertConfig {
    /// Model (hidden) dimension.
    pub d_model: usize,
    /// Attention heads per layer.
    pub n_heads: usize,
    /// Number of encoder layers.
    pub n_layers: usize,
    /// Feed-forward inner dimension ("BERT intermediate").
    pub d_ff: usize,
}

impl BertConfig {
    /// A deliberately tiny configuration for unit tests.
    pub fn tiny() -> Self {
        BertConfig {
            d_model: 16,
            n_heads: 2,
            n_layers: 1,
            d_ff: 32,
        }
    }

    /// The default experiment configuration: small enough to train
    /// from scratch on one CPU core, large enough to separate the methods.
    pub fn small() -> Self {
        BertConfig {
            d_model: 64,
            n_heads: 4,
            n_layers: 2,
            d_ff: 128,
        }
    }

    /// A configuration with the paper's 12 attention heads (the paper
    /// fine-tunes BERT-base; see `DESIGN.md` for the scale substitution).
    pub fn paper() -> Self {
        BertConfig {
            d_model: 192,
            n_heads: 12,
            n_layers: 4,
            d_ff: 384,
        }
    }
}

/// One encoder layer: multi-head attention + Add&Norm, GELU feed-forward
/// + Add&Norm (post-norm, as in the original BERT).
#[derive(Debug, Clone)]
pub struct EncoderLayer {
    pub(crate) attn: MultiHeadAttention,
    pub(crate) ln1: LayerNorm,
    pub(crate) ff1: Linear,
    pub(crate) ff2: Linear,
    pub(crate) ln2: LayerNorm,
}

impl EncoderLayer {
    /// Creates one encoder layer's parameters under `name.*`.
    pub fn new<I: Init>(
        store: &mut ParamStore,
        init: &mut I,
        name: &str,
        cfg: &BertConfig,
    ) -> Self {
        EncoderLayer {
            attn: MultiHeadAttention::new(
                store,
                init,
                &format!("{name}.attn"),
                cfg.d_model,
                cfg.n_heads,
            ),
            ln1: LayerNorm::new(store, init, &format!("{name}.ln1"), cfg.d_model, 1e-5),
            ff1: Linear::new(store, init, &format!("{name}.ff1"), cfg.d_model, cfg.d_ff),
            ff2: Linear::new(store, init, &format!("{name}.ff2"), cfg.d_ff, cfg.d_model),
            ln2: LayerNorm::new(store, init, &format!("{name}.ln2"), cfg.d_model, 1e-5),
        }
    }

    /// Applies the layer to a `seq × d_model` input.
    pub fn forward(&self, fwd: &mut Forward<'_>, x: VarId) -> VarId {
        // Attention + residual + norm.
        let a = self.attn.forward(fwd, x);
        let res1 = fwd.tape.add(x, a);
        let h = self.ln1.forward(fwd, res1);
        // Feed-forward + residual + norm.
        let f = self.ff1.forward(fwd, h);
        let f = fwd.tape.gelu(f);
        let f = self.ff2.forward(fwd, f);
        let res2 = fwd.tape.add(h, f);
        self.ln2.forward(fwd, res2)
    }
}

/// The full encoder stack.
#[derive(Debug, Clone)]
pub struct BertEncoder {
    pub(crate) layers: Vec<EncoderLayer>,
    config: BertConfig,
}

impl BertEncoder {
    /// Creates `cfg.n_layers` encoder layers under `name.layer<i>.*`.
    pub fn new<I: Init>(
        store: &mut ParamStore,
        init: &mut I,
        name: &str,
        cfg: &BertConfig,
    ) -> Self {
        let layers = (0..cfg.n_layers)
            .map(|i| EncoderLayer::new(store, init, &format!("{name}.layer{i}"), cfg))
            .collect();
        BertEncoder {
            layers,
            config: cfg.clone(),
        }
    }

    /// The configuration this encoder was built with.
    pub fn config(&self) -> &BertConfig {
        &self.config
    }

    /// Runs the stack over a `seq × d_model` embedded input.
    pub fn forward(&self, fwd: &mut Forward<'_>, mut x: VarId) -> VarId {
        for layer in &self.layers {
            x = layer.forward(fwd, x);
        }
        x
    }
}

/// BERT's pooler: a linear + Tanh applied to the **first token's** hidden
/// state, producing a fixed-size sequence representation.
///
/// The taped [`Pooler::forward`] slices that row out of the full
/// `seq × d_model` encoding. The tape-free path needs no slice:
/// [`BertEncoder::infer_with`] leaves only that row, and the pooler's
/// dense layer reads it in place.
#[derive(Debug, Clone)]
pub struct Pooler {
    pub(crate) dense: Linear,
}

impl Pooler {
    /// Creates the pooler parameters under `name.*`.
    pub fn new<I: Init>(store: &mut ParamStore, init: &mut I, name: &str, d_model: usize) -> Self {
        Pooler {
            dense: Linear::new(store, init, &format!("{name}.dense"), d_model, d_model),
        }
    }

    /// Pools a `seq × d_model` encoding into `1 × d_model`.
    pub fn forward(&self, fwd: &mut Forward<'_>, encoded: VarId) -> VarId {
        let first = fwd.tape.row_slice(encoded, 0);
        let h = self.dense.forward(fwd, first);
        fwd.tape.tanh(h)
    }
}

/// Encoder + pooler + binary classification head: produces one logit per
/// sequence — the "probability two bits belong to the same word" after a
/// sigmoid.
#[derive(Debug, Clone)]
pub struct BertClassifier {
    pub(crate) encoder: BertEncoder,
    pub(crate) pooler: Pooler,
    pub(crate) head: Linear,
}

impl BertClassifier {
    /// Creates all parameters under `name.*`.
    pub fn new<I: Init>(
        store: &mut ParamStore,
        init: &mut I,
        name: &str,
        cfg: &BertConfig,
    ) -> Self {
        BertClassifier {
            encoder: BertEncoder::new(store, init, &format!("{name}.encoder"), cfg),
            pooler: Pooler::new(store, init, &format!("{name}.pooler"), cfg.d_model),
            head: Linear::new(store, init, &format!("{name}.cls"), cfg.d_model, 1),
        }
    }

    /// The encoder configuration.
    pub fn config(&self) -> &BertConfig {
        self.encoder.config()
    }

    /// Produces the `1 × 1` classification logit for an embedded
    /// `seq × d_model` input.
    pub fn logit(&self, fwd: &mut Forward<'_>, embedded: VarId) -> VarId {
        let enc = self.encoder.forward(fwd, embedded);
        let pooled = self.pooler.forward(fwd, enc);
        self.head.forward(fwd, pooled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;
    use rebert_tensor::{normal, sigmoid, Tensor};

    #[test]
    fn encoder_preserves_shape() {
        let mut store = ParamStore::new();
        let mut rng = ChaCha20Rng::seed_from_u64(0);
        let cfg = BertConfig::tiny();
        let enc = BertEncoder::new(&mut store, &mut rng, "bert", &cfg);
        let mut fwd = Forward::new(&store);
        let x = fwd.input(normal(&mut rng, 7, cfg.d_model, 1.0));
        let y = enc.forward(&mut fwd, x);
        assert_eq!(fwd.tape.value(y).shape(), (7, cfg.d_model));
    }

    #[test]
    fn classifier_emits_single_logit() {
        let mut store = ParamStore::new();
        let mut rng = ChaCha20Rng::seed_from_u64(1);
        let cfg = BertConfig::tiny();
        let model = BertClassifier::new(&mut store, &mut rng, "m", &cfg);
        let mut fwd = Forward::new(&store);
        let x = fwd.input(normal(&mut rng, 5, cfg.d_model, 1.0));
        let z = model.logit(&mut fwd, x);
        assert_eq!(fwd.tape.value(z).shape(), (1, 1));
        let p = sigmoid(fwd.tape.value(z).data()[0]);
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn classifier_learns_a_separable_toy_task() {
        // Two classes of sequences: all-positive rows vs all-negative
        // rows. A few Adam-free SGD steps must reduce the loss.
        let mut store = ParamStore::new();
        let mut rng = ChaCha20Rng::seed_from_u64(2);
        let cfg = BertConfig::tiny();
        let model = BertClassifier::new(&mut store, &mut rng, "m", &cfg);

        let pos = Tensor::full(4, cfg.d_model, 0.8);
        let neg = Tensor::full(4, cfg.d_model, -0.8);
        let samples = [(pos, 1.0f32), (neg, 0.0f32)];

        let mut last = f32::INFINITY;
        for step in 0..12 {
            let mut total = 0.0;
            for (x, t) in &samples {
                let mut fwd = Forward::new(&store);
                let xv = fwd.input(x.clone());
                let z = model.logit(&mut fwd, xv);
                let loss = fwd.tape.bce_with_logits(z, Tensor::from_rows(&[&[*t]]));
                total += fwd.tape.value(loss).data()[0];
                let grads = fwd.tape.backward(loss);
                for (pid, g) in fwd.param_grads(&grads) {
                    let p = store.get_mut(pid);
                    *p = p.sub(&g.scale(0.1));
                }
            }
            if step == 11 {
                assert!(total < last, "loss should fall by the end");
            }
            if step == 0 {
                last = total;
            }
        }
    }

    #[test]
    fn configs_are_consistent() {
        for cfg in [BertConfig::tiny(), BertConfig::small(), BertConfig::paper()] {
            assert_eq!(cfg.d_model % cfg.n_heads, 0, "{cfg:?}");
            assert!(cfg.n_layers >= 1);
        }
        assert_eq!(BertConfig::paper().n_heads, 12, "paper uses 12 heads");
    }

    #[test]
    fn encoder_param_count_grows_with_layers() {
        let mut s1 = ParamStore::new();
        let mut s2 = ParamStore::new();
        let mut rng = ChaCha20Rng::seed_from_u64(3);
        let mut cfg = BertConfig::tiny();
        let _ = BertEncoder::new(&mut s1, &mut rng, "a", &cfg);
        cfg.n_layers = 2;
        let _ = BertEncoder::new(&mut s2, &mut rng, "b", &cfg);
        assert_eq!(s2.scalar_count(), 2 * s1.scalar_count());
    }
}
