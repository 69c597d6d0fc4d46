//! Basic trainable layers: linear, layer-norm, embedding.

use rebert_tensor::VarId;

use crate::param::{Fill, Forward, Init, ParamId, ParamStore};

/// A fully connected layer `y = x W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    pub(crate) w: ParamId,
    pub(crate) b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Creates a linear layer with Xavier-initialized weights and zero
    /// bias, registering parameters under `name.w` / `name.b`.
    pub fn new<I: Init>(
        store: &mut ParamStore,
        init: &mut I,
        name: &str,
        in_dim: usize,
        out_dim: usize,
    ) -> Self {
        let w = init.param(store, format!("{name}.w"), in_dim, out_dim, Fill::Xavier);
        let b = init.param(store, format!("{name}.b"), 1, out_dim, Fill::Const(0.0));
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Applies the layer to a `rows × in_dim` input.
    pub fn forward(&self, fwd: &mut Forward<'_>, x: VarId) -> VarId {
        let w = fwd.param(self.w);
        let b = fwd.param(self.b);
        let h = fwd.tape.matmul(x, w);
        fwd.tape.add_bias(h, b)
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }
}

/// Row-wise layer normalization with learnable scale and shift.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    pub(crate) gamma: ParamId,
    pub(crate) beta: ParamId,
    pub(crate) eps: f32,
}

impl LayerNorm {
    /// Creates a layer-norm over `dim` features (γ = 1, β = 0).
    pub fn new<I: Init>(
        store: &mut ParamStore,
        init: &mut I,
        name: &str,
        dim: usize,
        eps: f32,
    ) -> Self {
        let gamma = init.param(store, format!("{name}.gamma"), 1, dim, Fill::Const(1.0));
        let beta = init.param(store, format!("{name}.beta"), 1, dim, Fill::Const(0.0));
        LayerNorm { gamma, beta, eps }
    }

    /// Applies normalization to a `rows × dim` input.
    pub fn forward(&self, fwd: &mut Forward<'_>, x: VarId) -> VarId {
        let g = fwd.param(self.gamma);
        let b = fwd.param(self.beta);
        fwd.tape.layer_norm(x, g, b, self.eps)
    }
}

/// A learned embedding table mapping integer ids to `dim`-vectors.
#[derive(Debug, Clone)]
pub struct Embedding {
    pub(crate) table: ParamId,
    vocab: usize,
    dim: usize,
}

impl Embedding {
    /// Creates an embedding with `N(0, 0.02²)` initialization (the BERT
    /// convention).
    pub fn new<I: Init>(
        store: &mut ParamStore,
        init: &mut I,
        name: &str,
        vocab: usize,
        dim: usize,
    ) -> Self {
        let table = init.param(
            store,
            format!("{name}.table"),
            vocab,
            dim,
            Fill::Normal(0.02),
        );
        Embedding { table, vocab, dim }
    }

    /// Looks up a sequence of ids, producing a `len × dim` matrix.
    ///
    /// # Panics
    ///
    /// Panics if any id is `>= vocab`.
    pub fn forward(&self, fwd: &mut Forward<'_>, ids: &[usize]) -> VarId {
        let table = fwd.param(self.table);
        fwd.tape.gather(table, ids)
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;
    use rebert_tensor::Tensor;

    #[test]
    fn linear_shapes_and_bias() {
        let mut store = ParamStore::new();
        let mut rng = ChaCha20Rng::seed_from_u64(0);
        let lin = Linear::new(&mut store, &mut rng, "l", 4, 3);
        assert_eq!(lin.in_dim(), 4);
        assert_eq!(lin.out_dim(), 3);
        let mut fwd = Forward::new(&store);
        let x = fwd.input(Tensor::zeros(2, 4));
        let y = lin.forward(&mut fwd, x);
        assert_eq!(fwd.tape.value(y).shape(), (2, 3));
        // Zero input + zero bias => zero output.
        assert!(fwd.tape.value(y).norm() < 1e-9);
    }

    #[test]
    fn layer_norm_normalizes_rows() {
        let mut store = ParamStore::new();
        let mut rng = ChaCha20Rng::seed_from_u64(0);
        let ln = LayerNorm::new(&mut store, &mut rng, "ln", 4, 1e-5);
        let mut fwd = Forward::new(&store);
        let x = fwd.input(Tensor::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]));
        let y = ln.forward(&mut fwd, x);
        let row = fwd.tape.value(y).row(0).to_vec();
        let mean: f32 = row.iter().sum::<f32>() / 4.0;
        let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn embedding_lookup_rows_match_table() {
        let mut store = ParamStore::new();
        let mut rng = ChaCha20Rng::seed_from_u64(1);
        let emb = Embedding::new(&mut store, &mut rng, "e", 10, 5);
        assert_eq!(emb.vocab(), 10);
        let mut fwd = Forward::new(&store);
        let y = emb.forward(&mut fwd, &[3, 3, 7]);
        let out = fwd.tape.value(y).clone();
        assert_eq!(out.shape(), (3, 5));
        assert_eq!(out.row(0), out.row(1));
        assert_ne!(out.row(0), out.row(2));
    }

    #[test]
    fn linear_is_trainable_end_to_end() {
        // One gradient step moves the loss down.
        let mut store = ParamStore::new();
        let mut rng = ChaCha20Rng::seed_from_u64(2);
        let lin = Linear::new(&mut store, &mut rng, "l", 2, 1);
        let x_data = Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let targets = Tensor::from_vec(2, 1, vec![1.0, 0.0]);

        fn loss_of<'a>(
            store: &'a ParamStore,
            lin: &Linear,
            x_data: &Tensor,
            targets: &Tensor,
        ) -> (Forward<'a>, rebert_tensor::VarId) {
            let mut fwd = Forward::new(store);
            let x = fwd.input(x_data.clone());
            let z = lin.forward(&mut fwd, x);
            let loss = fwd.tape.bce_with_logits(z, targets.clone());
            (fwd, loss)
        }

        let (fwd, loss) = loss_of(&store, &lin, &x_data, &targets);
        let l0 = fwd.tape.value(loss).data()[0];
        let grads = fwd.tape.backward(loss);
        let pg = fwd.param_grads(&grads);
        for (pid, g) in pg {
            let p = store.get_mut(pid);
            *p = p.sub(&g.scale(0.5));
        }
        let (fwd, loss) = loss_of(&store, &lin, &x_data, &targets);
        let l1 = fwd.tape.value(loss).data()[0];
        assert!(l1 < l0, "loss should decrease: {l0} -> {l1}");
    }
}
