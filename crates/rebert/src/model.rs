//! The ReBERT model: the three embedding schemes (§II-B) feeding the
//! BERT classifier (§II-C).

use std::borrow::Cow;
use std::sync::OnceLock;

use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use rebert_nn::{
    Backend, BertClassifier, BertConfig, Embedding, Engine, Forward, InferScratch, Init, Linear,
    ParamStore, QuantStore,
};
use rebert_tensor::{sigmoid, Tensor, VarId};

use rebert_sync::Mutex;

use crate::cancel::CancelToken;
use crate::token::{PairSequence, Vocab};

/// Which of the three embedding schemes are active (all three in the
/// paper; the ablation bench disables them one at a time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmbeddingFlags {
    /// Learned token (word) embedding (§II-B.1).
    pub word: bool,
    /// Learned sequential positional embedding (§II-B.2).
    pub position: bool,
    /// Tree-based positional embedding (§II-B.3).
    pub tree: bool,
}

impl Default for EmbeddingFlags {
    fn default() -> Self {
        EmbeddingFlags {
            word: true,
            position: true,
            tree: true,
        }
    }
}

/// Full ReBERT hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ReBertConfig {
    /// Encoder hyperparameters.
    pub bert: BertConfig,
    /// Maximum joint sequence length (longer pairs are truncated).
    pub max_seq: usize,
    /// Width of the tree positional code (must be even).
    pub code_width: usize,
    /// Fan-in back-trace depth `k` (paper uses 6).
    pub k_levels: usize,
    /// Jaccard pre-filter threshold (paper uses 0.7).
    pub jaccard_threshold: f64,
    /// Active embedding schemes.
    pub embeddings: EmbeddingFlags,
}

impl ReBertConfig {
    /// Tiny configuration for unit tests.
    pub fn tiny() -> Self {
        ReBertConfig {
            bert: BertConfig::tiny(),
            max_seq: 64,
            code_width: 8,
            k_levels: 3,
            jaccard_threshold: 0.7,
            embeddings: EmbeddingFlags::default(),
        }
    }

    /// Default experiment configuration (single-core friendly).
    pub fn small() -> Self {
        ReBertConfig {
            bert: BertConfig::small(),
            max_seq: 128,
            code_width: 24,
            k_levels: 4,
            jaccard_threshold: 0.7,
            embeddings: EmbeddingFlags::default(),
        }
    }

    /// Paper-faithful settings: `k = 6`, 12 attention heads, Jaccard 0.7.
    /// (Hidden sizes remain scaled; see `DESIGN.md`.)
    pub fn paper() -> Self {
        ReBertConfig {
            bert: BertConfig::paper(),
            max_seq: 288,
            code_width: 32,
            k_levels: 6,
            jaccard_threshold: 0.7,
            embeddings: EmbeddingFlags::default(),
        }
    }
}

/// The trainable ReBERT model: embeddings + encoder + pooler + head.
///
/// # Examples
///
/// ```
/// use rebert::{PairSequence, ReBertConfig, ReBertModel, Token};
///
/// let model = ReBertModel::new(ReBertConfig::tiny(), 42);
/// let toks = vec![Token::X, Token::X];
/// let codes = vec![vec![0.0; 8]; 2];
/// let pair = PairSequence::build(&toks, &codes, &toks, &codes, 8, 64);
/// let p = model.predict(&pair);
/// assert!((0.0..=1.0).contains(&p));
/// ```
#[derive(Debug)]
pub struct ReBertModel {
    config: ReBertConfig,
    vocab: Vocab,
    store: ParamStore,
    /// Lazily built int8 view of the parameters, invalidated on any
    /// mutable store access (training steps, checkpoint loads).
    quant: OnceLock<QuantStore>,
    /// Lazily computed checkpoint fingerprint, invalidated alongside
    /// `quant` — both are pure functions of the current weights.
    fingerprint: OnceLock<u64>,
    /// Warm scoring scratches, leased by the scorer's workers and
    /// returned after each call, so repeated recoveries on one model
    /// score without allocating.
    scratches: ScratchPool,
    word_emb: Embedding,
    pos_emb: Embedding,
    tree_proj: Linear,
    classifier: BertClassifier,
}

impl ReBertModel {
    /// Builds a model with fresh seeded parameters.
    ///
    /// # Panics
    ///
    /// Panics if no embedding scheme is enabled or `code_width` is odd.
    pub fn new(config: ReBertConfig, seed: u64) -> Self {
        Self::build(config, &mut ChaCha20Rng::seed_from_u64(seed))
    }

    /// Builds the architecture `config` describes, taking every parameter
    /// from `init` in registration order: fresh draws from a seeded
    /// generator, or a checkpoint's tensors ([`rebert_nn::Loaded`]).
    ///
    /// # Panics
    ///
    /// Panics if no embedding scheme is enabled or `code_width` is odd.
    pub(crate) fn build(config: ReBertConfig, init: &mut impl Init) -> Self {
        assert!(
            config.embeddings.word || config.embeddings.position || config.embeddings.tree,
            "at least one embedding scheme must be enabled"
        );
        assert!(
            config.code_width >= 2 && config.code_width.is_multiple_of(2),
            "code_width must be a positive even number"
        );
        let mut store = ParamStore::new();
        let vocab = Vocab::new();
        let d = config.bert.d_model;
        let word_emb = Embedding::new(&mut store, init, "emb.word", vocab.len(), d);
        let pos_emb = Embedding::new(&mut store, init, "emb.pos", config.max_seq, d);
        let tree_proj = Linear::new(&mut store, init, "emb.tree", config.code_width, d);
        let classifier = BertClassifier::new(&mut store, init, "bert", &config.bert);
        ReBertModel {
            config,
            vocab,
            store,
            quant: OnceLock::new(),
            fingerprint: OnceLock::new(),
            scratches: ScratchPool::default(),
            word_emb,
            pos_emb,
            tree_proj,
            classifier,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ReBertConfig {
        &self.config
    }

    /// The fixed vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// Read access to the parameters (for checkpointing/inspection).
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Mutable access to the parameters (for the optimizer). Drops any
    /// cached int8 view and fingerprint — both would be stale after a
    /// weight update.
    pub fn store_mut(&mut self) -> &mut ParamStore {
        self.quant.take();
        self.fingerprint.take();
        &mut self.store
    }

    /// Replaces the parameter store (say, with another model's trained
    /// weights). Drops any cached int8 view.
    ///
    /// # Panics
    ///
    /// Panics if the replacement has a different number of parameters.
    pub fn set_store(&mut self, store: ParamStore) {
        assert_eq!(
            store.len(),
            self.store.len(),
            "checkpoint parameter count mismatch"
        );
        self.quant.take();
        self.fingerprint.take();
        self.store = store;
    }

    /// Stable 64-bit content fingerprint of the checkpoint: an FNV-1a
    /// hash ([`crate::StableHasher`]) over the exact bytes
    /// [`crate::save_model`] would write (config + every parameter
    /// scalar). Computed on first use (loading a checkpoint does not
    /// compute it) and cached until the next mutable store access,
    /// identical across runs and platforms, and therefore usable
    /// as the model component of persistent cache keys — two models
    /// fingerprint equal only if they score every pair identically.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut h = crate::StableHasher::new();
            h.write(crate::persist::encode_checkpoint(&self.config, &self.store).as_bytes());
            h.finish()
        })
    }

    /// [`ReBertModel::fingerprint`] rendered as fixed-width lowercase
    /// hex — the form shown by `rebert inspect`, the serve payload's
    /// `model_fingerprint`, and the `/metrics` info series.
    pub fn fingerprint_hex(&self) -> String {
        format!("{:016x}", self.fingerprint())
    }

    /// The int8 view of the parameters, built on first use and cached
    /// until the next mutable store access. Building quantizes every
    /// matrix parameter (one pass over the weights); callers that will
    /// serve int8 requests should warm it up front.
    pub fn int8_view(&self) -> &QuantStore {
        self.quant.get_or_init(|| QuantStore::build(&self.store))
    }

    /// An inference engine for `backend`, resolved against host
    /// capability ([`Backend::effective`]). Int8 engines borrow the
    /// cached [`ReBertModel::int8_view`], building it if needed.
    pub fn engine(&self, backend: Backend) -> Engine<'_> {
        let quant = (backend == Backend::Int8).then(|| self.int8_view());
        Engine::new(&self.store, quant, backend)
    }

    /// Builds the combined embedding matrix for a pair sequence and runs
    /// the classifier, returning the `1 × 1` logit on the forward tape.
    ///
    /// Exposed so the trainer can attach a loss to the same tape.
    pub fn logit_on<'a>(&'a self, fwd: &mut Forward<'a>, pair: &PairSequence) -> VarId {
        let ids = self.vocab.encode(&pair.tokens);
        let n = ids.len();
        let flags = self.config.embeddings;
        let mut x: Option<VarId> = None;
        let add = |fwd: &mut Forward<'a>, acc: Option<VarId>, v: VarId| match acc {
            None => Some(v),
            Some(a) => Some(fwd.tape.add(a, v)),
        };
        if flags.word {
            let w = self.word_emb.forward(fwd, &ids);
            x = add(fwd, x, w);
        }
        if flags.position {
            let pos_ids: Vec<usize> = (0..n).map(|i| i.min(self.config.max_seq - 1)).collect();
            let p = self.pos_emb.forward(fwd, &pos_ids);
            x = add(fwd, x, p);
        }
        if flags.tree {
            let w = self.config.code_width;
            let mut flat = Vec::with_capacity(n * w);
            for code in &pair.codes {
                debug_assert_eq!(code.len(), w, "code width mismatch");
                flat.extend_from_slice(code);
            }
            let codes = fwd.input(Tensor::from_vec(n, w, flat));
            let t = self.tree_proj.forward(fwd, codes);
            x = add(fwd, x, t);
        }
        let x = x.expect("at least one embedding enabled (checked in new)");
        self.classifier.logit(fwd, x)
    }

    /// Predicts the probability that the pair's two bits belong to the
    /// same word.
    pub fn predict(&self, pair: &PairSequence) -> f32 {
        let mut fwd = Forward::new(&self.store);
        let z = self.logit_on(&mut fwd, pair);
        sigmoid(fwd.tape.value(z).data()[0])
    }

    /// Total number of trainable scalars.
    pub fn parameter_count(&self) -> usize {
        self.store.scalar_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::Token;
    use rebert_netlist::GateType;

    fn pair(cfg: &ReBertConfig) -> PairSequence {
        let toks = vec![Token::Gate(GateType::And), Token::X, Token::X];
        let codes = vec![vec![0.0; cfg.code_width]; 3];
        PairSequence::build(&toks, &codes, &toks, &codes, cfg.code_width, cfg.max_seq)
    }

    #[test]
    fn predict_in_unit_interval() {
        let cfg = ReBertConfig::tiny();
        let model = ReBertModel::new(cfg.clone(), 0);
        let p = model.predict(&pair(&cfg));
        assert!((0.0..=1.0).contains(&p), "p = {p}");
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = ReBertConfig::tiny();
        let a = ReBertModel::new(cfg.clone(), 7);
        let b = ReBertModel::new(cfg.clone(), 7);
        assert_eq!(a.predict(&pair(&cfg)), b.predict(&pair(&cfg)));
        let c = ReBertModel::new(cfg.clone(), 8);
        assert_ne!(a.predict(&pair(&cfg)), c.predict(&pair(&cfg)));
    }

    #[test]
    fn embedding_flags_change_output() {
        let mut cfg = ReBertConfig::tiny();
        let full = ReBertModel::new(cfg.clone(), 3);
        cfg.embeddings.tree = false;
        let no_tree = ReBertModel::new(cfg.clone(), 3);
        // Same seed, same pair, different active embeddings => different
        // prediction (tree codes of non-root tokens are nonzero).
        let toks = vec![Token::Gate(GateType::And), Token::X, Token::X];
        let codes = vec![
            vec![0.0; cfg.code_width],
            {
                let mut c = vec![0.0; cfg.code_width];
                c[0] = 1.0;
                c
            },
            {
                let mut c = vec![0.0; cfg.code_width];
                c[1] = 1.0;
                c
            },
        ];
        let p = PairSequence::build(&toks, &codes, &toks, &codes, cfg.code_width, cfg.max_seq);
        assert_ne!(full.predict(&p), no_tree.predict(&p));
    }

    #[test]
    #[should_panic(expected = "at least one embedding")]
    fn all_disabled_rejected() {
        let mut cfg = ReBertConfig::tiny();
        cfg.embeddings = EmbeddingFlags {
            word: false,
            position: false,
            tree: false,
        };
        let _ = ReBertModel::new(cfg, 0);
    }

    #[test]
    fn long_sequences_clamp_position_ids() {
        let cfg = ReBertConfig::tiny();
        let model = ReBertModel::new(cfg.clone(), 0);
        // Build a pair longer than max_seq via pad_to; prediction must not
        // panic thanks to position clamping.
        let toks = vec![Token::X; 10];
        let codes = vec![vec![0.0; cfg.code_width]; 10];
        let mut p = PairSequence::build(&toks, &codes, &toks, &codes, cfg.code_width, cfg.max_seq);
        p.pad_to(cfg.max_seq + 8);
        let v = model.predict(&p);
        assert!(v.is_finite());
    }

    #[test]
    fn parameter_count_is_substantial() {
        let model = ReBertModel::new(ReBertConfig::tiny(), 0);
        assert!(model.parameter_count() > 1000);
    }
}

/// The most pairs one work-stealing claim takes in
/// [`ReBertModel::score_pairs_backend`].
///
/// Small enough that Jaccard-filtered survivor sets (irregular sequence
/// lengths) balance well across cores, large enough that the atomic
/// cursor is not contended.
pub(crate) const SCORE_BATCH: usize = 32;

/// Pairs per claim when `workers` threads score `pairs` pairs: about
/// four claims per worker, so a request of a few dozen pairs still
/// spreads over every core, and never more than [`SCORE_BATCH`].
fn score_claim(pairs: usize, workers: usize) -> usize {
    pairs.div_ceil(4 * workers).clamp(1, SCORE_BATCH)
}

/// Resolves a thread-count knob: `0` means "use all available cores".
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Per-thread scratch state for tape-free scoring: the neural-net
/// buffers plus the embedding-side staging tensors. Reused across pairs,
/// so a warm scratch scores with zero allocations.
#[derive(Debug, Default)]
pub(crate) struct ScoreScratch {
    nn: InferScratch,
    codes: Tensor,
    tree_out: Tensor,
    ids: Vec<usize>,
    pos_ids: Vec<usize>,
}

/// The model's pool of warm [`ScoreScratch`]es. Each scoring worker
/// leases one for the duration of a parallel map and returns it on
/// drop, so buffer capacity (and the pages backing it) survive between
/// calls. The pool grows to the widest call's worker count.
#[derive(Debug)]
struct ScratchPool {
    free: Mutex<Vec<ScoreScratch>>,
}

impl Default for ScratchPool {
    fn default() -> Self {
        ScratchPool {
            free: Mutex::new(Vec::new(), "rebert.model.scratch"),
        }
    }
}

impl ScratchPool {
    /// Takes a warm scratch (or a fresh one when the pool is empty).
    fn lease(&self) -> ScratchLease<'_> {
        let scratch = self.free.lock().pop().unwrap_or_default();
        ScratchLease {
            pool: self,
            scratch,
        }
    }
}

/// A leased scratch: hands the buffer back to its pool on drop.
struct ScratchLease<'a> {
    pool: &'a ScratchPool,
    scratch: ScoreScratch,
}

impl Drop for ScratchLease<'_> {
    fn drop(&mut self) {
        let scratch = std::mem::take(&mut self.scratch);
        self.pool.free.lock().push(scratch);
    }
}

impl ReBertModel {
    /// Warm scratches currently parked in the model's pool.
    #[cfg(test)]
    pub(crate) fn warm_scratches(&self) -> usize {
        self.scratches.free.lock().len()
    }
}

impl ReBertModel {
    /// Builds the combined embedding matrix into the scratch and runs the
    /// tape-free classifier on `engine`, mirroring
    /// [`ReBertModel::logit_on`] exactly on the scalar engine. Embedding
    /// gathers always read the f32 store — they are memory-bound lookups
    /// with nothing to vectorize or quantize.
    fn infer_logit(&self, pair: &PairSequence, s: &mut ScoreScratch, engine: &Engine<'_>) -> f32 {
        let flags = self.config.embeddings;
        s.ids.clear();
        s.ids.extend(pair.tokens.iter().map(|&t| self.vocab.id(t)));
        let n = s.ids.len();
        let x = s.nn.input_mut(n, self.config.bert.d_model);
        let mut have = false;
        if flags.word {
            self.word_emb.gather_into(&self.store, &s.ids, x);
            have = true;
        }
        if flags.position {
            s.pos_ids.clear();
            s.pos_ids
                .extend((0..n).map(|i| i.min(self.config.max_seq - 1)));
            if have {
                self.pos_emb.gather_add(&self.store, &s.pos_ids, x);
            } else {
                self.pos_emb.gather_into(&self.store, &s.pos_ids, x);
                have = true;
            }
        }
        if flags.tree {
            let w = self.config.code_width;
            s.codes.resize(n, w);
            for (i, code) in pair.codes.iter().enumerate() {
                debug_assert_eq!(code.len(), w, "code width mismatch");
                s.codes.row_mut(i).copy_from_slice(code);
            }
            self.tree_proj
                .infer_into_with(engine, &s.codes, &mut s.tree_out);
            if have {
                x.add_assign(&s.tree_out);
            } else {
                x.data_mut().copy_from_slice(s.tree_out.data());
            }
        }
        self.classifier.infer_logit_with(engine, &mut s.nn)
    }

    /// Scores a batch of pairs on the tape-free engine and `backend`,
    /// fanning the work out over `threads` OS threads (`0` = all
    /// available cores).
    ///
    /// Scheduling is work stealing over an atomic pair-index cursor, in
    /// claims of about a quarter of each worker's share and at most
    /// `SCORE_BATCH` pairs — Jaccard-filtered survivors have irregular
    /// sequence lengths, so fixed chunks would leave cores idle, and a
    /// small request still reaches every core. A pair's score does not
    /// depend on which worker computes it, and results are written by
    /// pair index, so the output is
    /// deterministic and independent of the thread count. The scalar
    /// backend is bitwise-identical to the taped [`ReBertModel::predict`];
    /// SIMD and int8 trade bitwise identity for throughput.
    pub fn score_pairs_backend(
        &self,
        pairs: &[PairSequence],
        threads: usize,
        backend: Backend,
    ) -> Vec<f32> {
        self.score_ctx(pairs, |p| Cow::Borrowed(p), threads, None, backend)
            .expect("uncancellable scoring always completes")
    }

    /// The shared scoring loop: scores the pair `pair_of` yields for each
    /// item, in item order. A pair that `pair_of` builds is built inside
    /// the worker's batch, so building fans out with the scoring. Workers
    /// lease warm scratches from the model's pool and poll the optional
    /// cancel token once per batch. The engine (and any int8 view it
    /// needs) is resolved once here, before the fan-out, so workers share
    /// one immutable engine.
    pub(crate) fn score_ctx<T, F>(
        &self,
        items: &[T],
        pair_of: F,
        threads: usize,
        cancel: Option<&CancelToken>,
        backend: Backend,
    ) -> Option<Vec<f32>>
    where
        T: Sync,
        F: Fn(&T) -> Cow<'_, PairSequence> + Sync,
    {
        let engine = self.engine(backend);
        let threads = resolve_threads(threads);
        crate::par::try_par_map_batched(
            items,
            threads,
            score_claim(items.len(), threads),
            cancel,
            || self.scratches.lease(),
            |lease, item| sigmoid(self.infer_logit(&pair_of(item), &mut lease.scratch, &engine)),
        )
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use crate::token::Token;
    use rebert_netlist::GateType;

    fn demo_pairs(cfg: &ReBertConfig) -> Vec<PairSequence> {
        let mk = |g: GateType| {
            let toks = vec![Token::Gate(g), Token::X, Token::X];
            let codes = vec![vec![0.0; cfg.code_width]; 3];
            PairSequence::build(&toks, &codes, &toks, &codes, cfg.code_width, cfg.max_seq)
        };
        vec![
            mk(GateType::And),
            mk(GateType::Or),
            mk(GateType::Xor),
            mk(GateType::Nand),
            mk(GateType::Nor),
        ]
    }

    #[test]
    fn model_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ReBertModel>();
    }

    #[test]
    fn infer_matches_taped_predict() {
        let cfg = ReBertConfig::tiny();
        let model = ReBertModel::new(cfg.clone(), 5);
        for pair in demo_pairs(&cfg) {
            let taped = model.predict(&pair);
            let infer =
                model.score_pairs_backend(std::slice::from_ref(&pair), 1, Backend::F32Scalar)[0];
            assert_eq!(
                taped.to_bits(),
                infer.to_bits(),
                "taped {taped} infer {infer}"
            );
        }
    }

    #[test]
    fn score_pairs_matches_serial_for_any_thread_count() {
        let cfg = ReBertConfig::tiny();
        let model = ReBertModel::new(cfg.clone(), 5);
        let pairs = demo_pairs(&cfg);
        let serial: Vec<f32> = pairs.iter().map(|p| model.predict(p)).collect();
        for threads in [0usize, 1, 2, 4, 8] {
            assert_eq!(
                model.score_pairs_backend(&pairs, threads, Backend::F32Scalar),
                serial,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let model = ReBertModel::new(ReBertConfig::tiny(), 5);
        assert!(model
            .score_pairs_backend(&[], 4, Backend::F32Scalar)
            .is_empty());
    }

    #[test]
    fn claims_shrink_for_small_requests() {
        // Two workers: b11's 15 pairs, b03's 22, b05's 37, b13's 50.
        for (pairs, claim) in [
            (0, 1),
            (1, 1),
            (15, 2),
            (22, 3),
            (37, 5),
            (50, 7),
            (255, 32),
        ] {
            assert_eq!(score_claim(pairs, 2), claim, "{pairs} pairs");
        }
        assert_eq!(score_claim(10_000, 8), SCORE_BATCH);
        assert_eq!(score_claim(40, 8), 2);
        assert_eq!(score_claim(40, 1), 10);
    }

    #[test]
    fn resolve_threads_zero_means_auto() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn backend_scoring_tracks_scalar() {
        let cfg = ReBertConfig::tiny();
        let model = ReBertModel::new(cfg.clone(), 5);
        let pairs = demo_pairs(&cfg);
        let reference = model.score_pairs_backend(&pairs, 1, Backend::F32Scalar);
        // SIMD and int8 probabilities stay close after the sigmoid.
        for backend in [Backend::F32Simd, Backend::Int8] {
            let scored = model.score_pairs_backend(&pairs, 2, backend);
            assert_eq!(scored.len(), reference.len());
            for (s, r) in scored.iter().zip(&reference) {
                assert!(
                    (s - r).abs() <= 0.05,
                    "{backend}: probability {s} vs scalar {r}"
                );
            }
        }
    }

    #[test]
    fn int8_view_rebuilds_after_weight_updates() {
        let cfg = ReBertConfig::tiny();
        let mut model = ReBertModel::new(cfg.clone(), 5);
        let pairs = &demo_pairs(&cfg)[..1];
        let before = model.score_pairs_backend(pairs, 1, Backend::Int8)[0];

        // Flip the sign of one feed-forward weight matrix through the
        // invalidating accessor; a stale cached view would keep serving
        // the old prediction.
        let target = model
            .store()
            .iter()
            .find(|(_, name, t)| name.contains("ff1") && t.rows() >= 2)
            .map(|(id, _, _)| id)
            .expect("model has a feed-forward weight matrix");
        model
            .store_mut()
            .get_mut(target)
            .data_mut()
            .iter_mut()
            .for_each(|v| *v = -*v);
        let after = model.score_pairs_backend(pairs, 1, Backend::Int8)[0];
        assert_ne!(before.to_bits(), after.to_bits());
    }
}
