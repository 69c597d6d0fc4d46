//! Multi-head scaled dot-product self-attention (paper §II-C).

use rebert_tensor::VarId;

use crate::layers::Linear;
use crate::param::{Forward, Init, ParamStore};

/// Multi-head self-attention over a `seq × d_model` input.
///
/// Projections Q/K/V/O are full `d_model × d_model` linears; heads are
/// realized by column-slicing the projected matrices (head `h` owns
/// columns `[h·d_h, (h+1)·d_h)`), exactly the standard Transformer
/// decomposition.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    pub(crate) wq: Linear,
    pub(crate) wk: Linear,
    pub(crate) wv: Linear,
    pub(crate) wo: Linear,
    pub(crate) n_heads: usize,
    pub(crate) d_model: usize,
}

impl MultiHeadAttention {
    /// Creates the four projections.
    ///
    /// # Panics
    ///
    /// Panics if `d_model` is not divisible by `n_heads`.
    pub fn new<I: Init>(
        store: &mut ParamStore,
        init: &mut I,
        name: &str,
        d_model: usize,
        n_heads: usize,
    ) -> Self {
        assert!(
            d_model.is_multiple_of(n_heads),
            "d_model {d_model} not divisible by n_heads {n_heads}"
        );
        MultiHeadAttention {
            wq: Linear::new(store, init, &format!("{name}.q"), d_model, d_model),
            wk: Linear::new(store, init, &format!("{name}.k"), d_model, d_model),
            wv: Linear::new(store, init, &format!("{name}.v"), d_model, d_model),
            wo: Linear::new(store, init, &format!("{name}.o"), d_model, d_model),
            n_heads,
            d_model,
        }
    }

    /// Number of attention heads.
    pub fn n_heads(&self) -> usize {
        self.n_heads
    }

    /// Applies self-attention to a `seq × d_model` input, returning the
    /// same shape.
    pub fn forward(&self, fwd: &mut Forward<'_>, x: VarId) -> VarId {
        let q = self.wq.forward(fwd, x);
        let k = self.wk.forward(fwd, x);
        let v = self.wv.forward(fwd, x);
        let d_head = self.d_model / self.n_heads;
        let scale = 1.0 / (d_head as f32).sqrt();

        let mut heads = Vec::with_capacity(self.n_heads);
        for h in 0..self.n_heads {
            let start = h * d_head;
            let qh = fwd.tape.col_slice(q, start, d_head);
            let kh = fwd.tape.col_slice(k, start, d_head);
            let vh = fwd.tape.col_slice(v, start, d_head);
            let scores = fwd.tape.matmul_nt(qh, kh);
            let scaled = fwd.tape.scale(scores, scale);
            let probs = fwd.tape.softmax_rows(scaled);
            let ctx = fwd.tape.matmul(probs, vh);
            heads.push(ctx);
        }
        let concat = fwd.tape.col_concat(&heads);
        self.wo.forward(fwd, concat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;
    use rebert_tensor::{normal, Tensor};

    fn setup(d_model: usize, heads: usize) -> (ParamStore, MultiHeadAttention) {
        let mut store = ParamStore::new();
        let mut rng = ChaCha20Rng::seed_from_u64(0);
        let mha = MultiHeadAttention::new(&mut store, &mut rng, "attn", d_model, heads);
        (store, mha)
    }

    #[test]
    fn output_shape_matches_input() {
        let (store, mha) = setup(8, 2);
        let mut fwd = Forward::new(&store);
        let mut rng = ChaCha20Rng::seed_from_u64(1);
        let x = fwd.input(normal(&mut rng, 5, 8, 1.0));
        let y = mha.forward(&mut fwd, x);
        assert_eq!(fwd.tape.value(y).shape(), (5, 8));
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_heads_panics() {
        let _ = setup(10, 3);
    }

    #[test]
    fn attention_mixes_positions() {
        // With a distinctive row, other rows' outputs must depend on it:
        // change row 3 and observe row 0's output change.
        let (store, mha) = setup(8, 2);
        let mut rng = ChaCha20Rng::seed_from_u64(2);
        let base = normal(&mut rng, 4, 8, 1.0);

        let out_row0 = |input: Tensor| {
            let mut fwd = Forward::new(&store);
            let x = fwd.input(input);
            let y = mha.forward(&mut fwd, x);
            fwd.tape.value(y).row(0).to_vec()
        };
        let a = out_row0(base.clone());
        let mut changed = base.clone();
        for v in changed.row_mut(3) {
            *v += 2.0;
        }
        let b = out_row0(changed);
        let diff: f32 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1e-4, "row 0 output should depend on row 3");
    }

    #[test]
    fn gradients_flow_to_all_projections() {
        let (store, mha) = setup(8, 4);
        let mut fwd = Forward::new(&store);
        let mut rng = ChaCha20Rng::seed_from_u64(3);
        let x = fwd.input(normal(&mut rng, 3, 8, 1.0));
        let y = mha.forward(&mut fwd, x);
        let loss = fwd.tape.mean_all(y);
        let grads = fwd.tape.backward(loss);
        let pg = fwd.param_grads(&grads);
        // 4 linears × (w, b) = 8 parameters, all with nonzero gradient
        // except possibly biases that cancel; require most to be nonzero.
        assert_eq!(pg.len(), 8);
        let nonzero = pg.values().filter(|g| g.norm() > 1e-9).count();
        assert!(nonzero >= 6, "only {nonzero} params received gradient");
    }
}
