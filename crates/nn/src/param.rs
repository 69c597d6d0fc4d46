//! Parameter storage and the per-forward binding context.
//!
//! All trainable tensors live in one [`ParamStore`]; layers hold
//! [`ParamId`] handles. Each forward pass opens a [`Forward`] context that
//! lazily binds parameters onto a fresh autograd tape (one leaf per
//! parameter per pass) so gradients can be read back after
//! [`rebert_tensor::Tape::backward`].
//!
//! Constructors take their tensors from an [`Init`]: a seeded generator
//! for a fresh model, or a [`Loaded`] checkpoint store, which checks each
//! stored name and shape against the registered one instead of sampling.

use std::collections::HashMap;

use rand::Rng;
use rebert_tensor::{normal, xavier, Tape, Tensor, VarId};

/// Handle to a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(usize);

impl ParamId {
    /// Raw index of this parameter.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Owns every trainable tensor of a model.
///
/// # Examples
///
/// ```
/// use rebert_nn::ParamStore;
/// use rebert_tensor::Tensor;
///
/// let mut store = ParamStore::new();
/// let w = store.add("w", Tensor::zeros(2, 2));
/// assert_eq!(store.get(w).shape(), (2, 2));
/// assert_eq!(store.name(w), "w");
/// ```
#[derive(Debug, Clone, Default)]
pub struct ParamStore {
    names: Vec<String>,
    tensors: Vec<Tensor>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter and returns its handle.
    pub fn add(&mut self, name: impl Into<String>, tensor: Tensor) -> ParamId {
        self.names.push(name.into());
        self.tensors.push(tensor);
        ParamId(self.tensors.len() - 1)
    }

    /// The parameter's current value.
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.tensors[id.0]
    }

    /// Mutable access (used by optimizers).
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.tensors[id.0]
    }

    /// The parameter's registered name.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Number of parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// Total number of trainable scalars.
    pub fn scalar_count(&self) -> usize {
        self.tensors.iter().map(Tensor::len).sum()
    }

    /// Iterates `(ParamId, name, tensor)`.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &str, &Tensor)> {
        self.tensors
            .iter()
            .enumerate()
            .map(|(i, t)| (ParamId(i), self.names[i].as_str(), t))
    }

    /// All parameter ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.tensors.len()).map(ParamId)
    }
}

/// Where a layer's constructor takes its parameter tensors from.
///
/// A seeded generator (any [`Rng`]) draws fresh tensors; [`Loaded`]
/// hands over a saved store's tensors, slot by slot. Either way the
/// constructors register the same names and shapes in the same order,
/// so a model's parameter layout is written down once, in its
/// constructors.
pub trait Init {
    /// Registers the `rows × cols` parameter `name` in `store` and
    /// returns its handle. A generator fills the tensor as `fill` says.
    fn param(
        &mut self,
        store: &mut ParamStore,
        name: String,
        rows: usize,
        cols: usize,
        fill: Fill,
    ) -> ParamId;
}

/// How a seeded [`Init`] fills a new parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fill {
    /// Xavier-uniform, with `rows` as the fan-in and `cols` as the
    /// fan-out.
    Xavier,
    /// Normal with mean 0 and this standard deviation.
    Normal(f32),
    /// Every element this value.
    Const(f32),
}

impl<R: Rng> Init for R {
    fn param(
        &mut self,
        store: &mut ParamStore,
        name: String,
        rows: usize,
        cols: usize,
        fill: Fill,
    ) -> ParamId {
        let tensor = match fill {
            Fill::Xavier => xavier(self, rows, cols),
            Fill::Normal(std) => normal(self, rows, cols, std),
            Fill::Const(v) => Tensor::full(rows, cols, v),
        };
        store.add(name, tensor)
    }
}

/// A saved [`ParamStore`] as an [`Init`]: each parameter a constructor
/// registers takes the next stored tensor, moved rather than copied,
/// and nothing is sampled. The stored name and shape are checked
/// against the registered ones; the first difference is kept for
/// [`Loaded::finish`], and construction carries on past it so the
/// registered count is known.
#[derive(Debug)]
pub struct Loaded {
    stored: std::iter::Zip<std::vec::IntoIter<String>, std::vec::IntoIter<Tensor>>,
    count: usize,
    mismatch: Option<LayoutError>,
}

/// How a saved store differs from the layout the constructors register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutError {
    /// The store holds `stored` tensors; the constructors register
    /// `registered`.
    Count {
        /// Tensors in the saved store.
        stored: usize,
        /// Parameters the constructors registered.
        registered: usize,
    },
    /// Slot `slot` holds a tensor named `stored` where the constructors
    /// register `registered`.
    Name {
        /// The slot, in registration order.
        slot: usize,
        /// The saved name.
        stored: String,
        /// The registered name.
        registered: String,
    },
    /// Parameter `name` is saved as `stored` rows × cols; the
    /// constructors register `registered`.
    Shape {
        /// The parameter's name.
        name: String,
        /// The saved shape.
        stored: (usize, usize),
        /// The registered shape.
        registered: (usize, usize),
    },
}

impl Loaded {
    /// Hands `store`'s tensors out in its slot order.
    pub fn new(store: ParamStore) -> Self {
        Loaded {
            count: store.len(),
            stored: store.names.into_iter().zip(store.tensors),
            mismatch: None,
        }
    }

    /// Ends construction into `built`: a count difference first, then
    /// the first slot whose name, then shape, differs.
    ///
    /// # Errors
    ///
    /// Returns the [`LayoutError`] unless the constructors registered
    /// exactly the saved names and shapes.
    pub fn finish(self, built: &ParamStore) -> Result<(), LayoutError> {
        if built.len() != self.count {
            return Err(LayoutError::Count {
                stored: self.count,
                registered: built.len(),
            });
        }
        self.mismatch.map_or(Ok(()), Err)
    }
}

impl Init for Loaded {
    fn param(
        &mut self,
        store: &mut ParamStore,
        name: String,
        rows: usize,
        cols: usize,
        _fill: Fill,
    ) -> ParamId {
        // Past the saved store's end the count check in `finish` fails,
        // so a placeholder only has to keep construction going.
        let Some((stored, tensor)) = self.stored.next() else {
            return store.add(name, Tensor::zeros(rows, cols));
        };
        if self.mismatch.is_none() {
            if stored != name {
                self.mismatch = Some(LayoutError::Name {
                    slot: store.len(),
                    stored,
                    registered: name.clone(),
                });
            } else if tensor.shape() != (rows, cols) {
                self.mismatch = Some(LayoutError::Shape {
                    name: name.clone(),
                    stored: tensor.shape(),
                    registered: (rows, cols),
                });
            }
        }
        store.add(name, tensor)
    }
}

/// A forward-pass context: a fresh tape plus lazy parameter binding.
#[derive(Debug)]
pub struct Forward<'a> {
    /// The autograd tape for this pass; layers record ops on it directly.
    pub tape: Tape,
    store: &'a ParamStore,
    bound: HashMap<ParamId, VarId>,
}

impl<'a> Forward<'a> {
    /// Opens a forward pass over `store`.
    pub fn new(store: &'a ParamStore) -> Self {
        Forward {
            tape: Tape::new(),
            store,
            bound: HashMap::new(),
        }
    }

    /// Returns the tape leaf bound to parameter `id`, creating it on first
    /// use in this pass.
    pub fn param(&mut self, id: ParamId) -> VarId {
        if let Some(&v) = self.bound.get(&id) {
            return v;
        }
        let v = self.tape.leaf(self.store.get(id).clone());
        self.bound.insert(id, v);
        v
    }

    /// Records a non-trainable input.
    pub fn input(&mut self, t: Tensor) -> VarId {
        self.tape.leaf(t)
    }

    /// After `tape.backward`, extracts the gradient of each bound
    /// parameter (zeros if the parameter was off the loss path).
    pub fn param_grads(&self, grads: &[Option<Tensor>]) -> HashMap<ParamId, Tensor> {
        self.bound
            .iter()
            .map(|(&pid, &vid)| {
                let t = self.store.get(pid);
                let g = grads[vid.index()]
                    .clone()
                    .unwrap_or_else(|| Tensor::zeros(t.rows(), t.cols()));
                (pid, g)
            })
            .collect()
    }
}

/// Accumulates gradients across samples for mini-batch training.
#[derive(Debug, Clone, Default)]
pub struct GradAccumulator {
    sums: HashMap<ParamId, Tensor>,
    count: usize,
}

impl GradAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample's parameter gradients.
    pub fn add(&mut self, grads: HashMap<ParamId, Tensor>) {
        for (pid, g) in grads {
            match self.sums.get_mut(&pid) {
                Some(acc) => *acc = acc.add(&g),
                None => {
                    self.sums.insert(pid, g);
                }
            }
        }
        self.count += 1;
    }

    /// Number of accumulated samples.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Consumes the accumulator, returning mean gradients.
    pub fn mean(self) -> HashMap<ParamId, Tensor> {
        let n = self.count.max(1) as f32;
        self.sums
            .into_iter()
            .map(|(pid, g)| (pid, g.scale(1.0 / n)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_round_trip() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::full(2, 3, 1.0));
        let b = store.add("b", Tensor::zeros(1, 4));
        assert_eq!(store.len(), 2);
        assert_eq!(store.scalar_count(), 10);
        assert_eq!(store.name(a), "a");
        store.get_mut(b).data_mut()[0] = 5.0;
        assert_eq!(store.get(b).data()[0], 5.0);
    }

    #[test]
    fn forward_binds_each_param_once() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::full(1, 1, 2.0));
        let mut fwd = Forward::new(&store);
        let v1 = fwd.param(w);
        let v2 = fwd.param(w);
        assert_eq!(v1, v2);
        assert_eq!(fwd.tape.len(), 1);
    }

    #[test]
    fn grads_extracted_for_bound_params() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::full(1, 1, 3.0));
        let unused = store.add("unused", Tensor::full(1, 1, 9.0));
        let mut fwd = Forward::new(&store);
        let wv = fwd.param(w);
        let _uv = fwd.param(unused);
        let x = fwd.input(Tensor::full(1, 1, 4.0));
        let y = fwd.tape.matmul(wv, x);
        let loss = fwd.tape.mean_all(y);
        let grads = fwd.tape.backward(loss);
        let pg = fwd.param_grads(&grads);
        assert!((pg[&w].data()[0] - 4.0).abs() < 1e-6);
        // Unused parameter gets a zero gradient, not a panic.
        assert_eq!(pg[&unused].data()[0], 0.0);
    }

    /// A small stack of every layer kind, so a store holds weights,
    /// biases, embedding tables and layer-norm parameters.
    fn build<I: Init>(init: &mut I) -> ParamStore {
        let mut store = ParamStore::new();
        let _ = crate::Embedding::new(&mut store, init, "emb", 5, 4);
        let _ = crate::BertClassifier::new(&mut store, init, "m", &crate::BertConfig::tiny());
        store
    }

    fn seeded() -> ParamStore {
        use rand::SeedableRng;
        build(&mut rand_chacha::ChaCha20Rng::seed_from_u64(3))
    }

    #[test]
    fn loaded_store_rebuilds_the_same_layout_without_sampling() {
        let saved = seeded();
        let mut loaded = Loaded::new(saved.clone());
        let rebuilt = build(&mut loaded);
        loaded.finish(&rebuilt).expect("same layout");
        assert_eq!(rebuilt.len(), saved.len());
        for ((_, want_name, want), (_, name, got)) in saved.iter().zip(rebuilt.iter()) {
            assert_eq!(name, want_name);
            assert_eq!(got.shape(), want.shape());
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got), bits(want), "{name}");
        }
    }

    #[test]
    fn loaded_store_reports_the_first_layout_difference() {
        let saved = seeded();
        let finish = |store: ParamStore| {
            let mut loaded = Loaded::new(store);
            let built = build(&mut loaded);
            loaded.finish(&built)
        };
        let edited = |edit: &dyn Fn(usize, &str, &Tensor) -> (String, Tensor)| {
            let mut store = ParamStore::new();
            for (id, name, t) in saved.iter() {
                let (name, t) = edit(id.index(), name, t);
                store.add(name, t);
            }
            store
        };
        let registered = saved.len();
        // A missing tensor outranks a slot difference.
        let mut short = edited(&|i, n, t| {
            let name = if i == 3 { "bogus" } else { n };
            (name.to_owned(), t.clone())
        });
        short.names.pop();
        short.tensors.pop();
        assert_eq!(
            finish(short),
            Err(LayoutError::Count {
                stored: registered - 1,
                registered
            })
        );
        let mut long = saved.clone();
        long.add("extra", Tensor::zeros(1, 1));
        assert_eq!(
            finish(long),
            Err(LayoutError::Count {
                stored: registered + 1,
                registered
            })
        );
        // A rename at slot 3 outranks a reshape at slot 5.
        let store = edited(&|i, n, t| match i {
            3 => ("bogus".to_owned(), t.clone()),
            5 => (n.to_owned(), Tensor::zeros(t.cols(), t.rows() + 1)),
            _ => (n.to_owned(), t.clone()),
        });
        assert_eq!(
            finish(store),
            Err(LayoutError::Name {
                slot: 3,
                stored: "bogus".to_owned(),
                registered: saved.name(ParamId(3)).to_owned()
            })
        );
        let store = edited(&|i, n, t| match i {
            5 => (n.to_owned(), Tensor::zeros(t.cols(), t.rows() + 1)),
            _ => (n.to_owned(), t.clone()),
        });
        let want = saved.get(ParamId(5)).shape();
        assert_eq!(
            finish(store),
            Err(LayoutError::Shape {
                name: saved.name(ParamId(5)).to_owned(),
                stored: (want.1, want.0 + 1),
                registered: want
            })
        );
    }

    #[test]
    fn accumulator_means() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::zeros(1, 1));
        let mut acc = GradAccumulator::new();
        for v in [1.0f32, 3.0] {
            let mut g = HashMap::new();
            g.insert(w, Tensor::full(1, 1, v));
            acc.add(g);
        }
        assert_eq!(acc.count(), 2);
        let mean = acc.mean();
        assert!((mean[&w].data()[0] - 2.0).abs() < 1e-6);
    }
}
