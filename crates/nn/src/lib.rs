//! # rebert-nn
//!
//! Neural-network layer library for the ReBERT reproduction, built on
//! [`rebert_tensor`]: linear / layer-norm / embedding layers, multi-head
//! self-attention, the BERT-style encoder + pooler + classification head
//! (paper §II-C, Fig. 4), and the Adam optimizer.
//!
//! ## Example: one training step of a tiny classifier
//!
//! ```
//! use rebert_nn::{Adam, BertClassifier, BertConfig, Forward, ParamStore};
//! use rebert_tensor::Tensor;
//! use rand::SeedableRng;
//!
//! let mut store = ParamStore::new();
//! let mut rng = rand_chacha::ChaCha20Rng::seed_from_u64(0);
//! let model = BertClassifier::new(&mut store, &mut rng, "m", &BertConfig::tiny());
//! let mut adam = Adam::new(1e-3);
//!
//! let mut fwd = Forward::new(&store);
//! let x = fwd.input(Tensor::full(4, 16, 0.5)); // a 4-token embedded input
//! let z = model.logit(&mut fwd, x);
//! let loss = fwd.tape.bce_with_logits(z, Tensor::from_rows(&[&[1.0]]));
//! let grads = fwd.tape.backward(loss);
//! let param_grads = fwd.param_grads(&grads);
//! adam.step(&mut store, &param_grads);
//! ```

#![warn(missing_docs)]

mod adam;
mod attention;
mod bert;
mod engine;
mod infer;
mod layers;
mod param;
mod quant;

pub use adam::Adam;
pub use attention::MultiHeadAttention;
pub use bert::{BertClassifier, BertConfig, BertEncoder, EncoderLayer, Pooler};
pub use engine::{Backend, Engine};
pub use infer::InferScratch;
pub use layers::{Embedding, LayerNorm, Linear};
pub use param::{Fill, Forward, GradAccumulator, Init, LayoutError, Loaded, ParamId, ParamStore};
pub use quant::{QuantStore, QuantTensor};
