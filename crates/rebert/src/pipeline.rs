//! The end-to-end recovery pipeline: netlist → score matrix → words
//! (Fig. 1 of the paper).
//!
//! The quadratic phase is **class-deduplicated**: bits with bit-identical
//! `(tokens, codes)` cones are grouped into [`ConeClasses`], the Jaccard
//! filter and the model run once per *class* pair, and each score lands
//! in one slot of a class-factored [`ScoreMatrix`] that every member bit
//! pair reads. Grouping then runs over class-pair slots too, so nothing
//! after tokenization is sized by the n(n−1)/2 bit pairs. Replicated
//! datapath slices make cone duplication common on ITC'99-style netlists,
//! so the number of model calls can drop quadratically while the score
//! matrix stays bitwise-identical to the per-bit-pair reference path
//! ([`ReBertModel::recover_words_reference`]).
//!
//! [`ReBertModel::recover`] is the one entry point: the CLI, the daemon,
//! the experiment binaries and the tests all run the pipeline through
//! it, varying only its [`RecoverOptions`]. It assumes a structurally
//! valid netlist; the front ends that admit one (the CLI's netlist
//! reader, the daemon's pre-flight) check that once with
//! `rebert_analyze::lint_netlist`.

use std::borrow::Cow;
use std::time::{Duration, Instant};

use rebert_netlist::Netlist;
use rebert_nn::Backend;
use rebert_obs as obs;

use crate::cache::ScoreCache;
use crate::cancel::{CancelToken, Cancelled};
use crate::dataset::{bit_sequences, ConeClasses};
use crate::filter::{jaccard, jaccard_counts};
use crate::group::{group_bits_adaptive, ScoreMatrix};
use crate::model::ReBertModel;
use crate::par::try_par_map_batched;
use crate::token::PairSequence;

/// Class pairs per work-stealing batch in the filter sweep.
///
/// A class-pair step (one histogram pass) is orders of magnitude cheaper
/// than a model call, so batches are much larger than the scorer's to
/// keep the atomic cursor uncontended.
const SWEEP_BATCH: usize = 512;

/// Emits a coarse `pipeline`/`progress` instant event at a phase
/// boundary: the phase that just advanced, a rough percent-complete for
/// the whole run, and phase-specific counters. Purely observational —
/// instants never touch the phase spans' `end_at` timing contract, and
/// the serve streaming endpoint translates them into NDJSON progress
/// records. Context fields (the request id) ride along automatically.
fn progress(phase: &'static str, pct: u64, extra: Vec<obs::Field>) {
    if !obs::enabled(obs::Level::Info) {
        return;
    }
    let mut fields: Vec<obs::Field> = vec![("phase", phase.into()), ("pct", pct.into())];
    fields.extend(extra);
    obs::event_with(obs::Level::Info, "pipeline", "progress", fields);
}

/// Telemetry from one pipeline run, including a per-phase breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineStats {
    /// Total bit pairs considered.
    pub pairs_total: usize,
    /// Pairs discarded by the Jaccard pre-filter.
    pub pairs_filtered: usize,
    /// Bit pairs that received a model-derived score.
    pub pairs_scored: usize,
    /// Distinct cone classes among the bits (`0` when the bit-pair
    /// reference path was used and classes were never computed).
    pub classes: usize,
    /// Unique class-pair sequences that needed a score this run — from a
    /// fresh model call or, bitwise-identically, from the shared score
    /// cache. On the reference path this equals
    /// [`PipelineStats::pairs_scored`].
    pub class_pairs_scored: usize,
    /// Class-pair scores served from the shared cross-request score
    /// cache (`0` when no cache was attached). With a cache,
    /// `cache_hits + cache_misses == class_pairs_scored`.
    pub cache_hits: usize,
    /// Class-pair sequences that missed the score cache and went to the
    /// model (`0` when no cache was attached — misses count cache
    /// consultations, not model calls).
    pub cache_misses: usize,
    /// Bit pairs whose score was reused from a memoized class pair
    /// instead of a fresh model call
    /// (`pairs_scored − class_pairs_scored`; `0` on the reference path).
    pub pairs_memoized: usize,
    /// Effective scoring throughput: `pairs_scored / score_time` (0 when
    /// nothing was scored). With memoization this exceeds the model's raw
    /// per-call throughput.
    pub pairs_per_sec: f64,
    /// The inference backend that actually scored the pairs — the
    /// *resolved* choice ([`rebert_nn::Backend::effective`] plus int8
    /// availability), not necessarily what the caller requested.
    pub backend: Backend,
    /// Time spent tokenizing bit fan-in cones into sequences.
    pub tokenize_time: Duration,
    /// Time spent classifying cones and Jaccard-filtering class pairs.
    pub filter_time: Duration,
    /// Time spent consulting the score cache, then assembling and
    /// scoring the pair sequences it does not answer.
    pub score_time: Duration,
    /// Time spent filling the score matrix and grouping bits into words.
    /// On the class-deduplicated path that is one table write per scored
    /// class pair, then union-find over the above-threshold class pairs:
    /// one visit per class-pair slot plus one pass over the bits, with no
    /// per-bit-pair work.
    pub group_time: Duration,
    /// Wall-clock time of the full recovery.
    pub elapsed: Duration,
    /// Human-readable warnings about the recovery's own findings that
    /// silently degrade its quality: a Jaccard filter that removed every
    /// pair, or a non-positive maximum score that degenerates the
    /// `max(score)/3` grouping threshold. Purely observational — the
    /// presence of warnings never changes scores or the assignment.
    ///
    /// Structural validity is the caller's job, checked once by
    /// `rebert_analyze::lint_netlist`: the pipeline assumes a fully
    /// driven, acyclic netlist and does not check it again.
    pub warnings: Vec<String>,
}

/// The result of word recovery on a netlist.
#[derive(Debug, Clone)]
pub struct RecoveredWords {
    /// Word assignment: `assignment[i]` is the word id of bit `i`
    /// (flip-flop order), with dense ids.
    pub assignment: Vec<usize>,
    /// The pairwise score matrix (filtered pairs hold −1). The
    /// class-deduplicated path stores it per ordered cone-class pair
    /// ([`ScoreMatrix::with_classes`]), the reference path per bit pair;
    /// [`ScoreMatrix::get`] reads any bit pair from either.
    pub score_matrix: ScoreMatrix,
    /// Run telemetry.
    pub stats: PipelineStats,
}

impl RecoveredWords {
    /// The recovered words as lists of bit indices, re-numbered densely
    /// in first-seen bit order — word ids in `assignment` may be sparse
    /// (e.g. when an assignment was constructed externally), and no empty
    /// words are materialized for unused ids.
    pub fn words(&self) -> Vec<Vec<usize>> {
        let mut index: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
        let mut words: Vec<Vec<usize>> = Vec::new();
        for (bit, &w) in self.assignment.iter().enumerate() {
            let next = words.len();
            let slot = *index.entry(w).or_insert(next);
            if slot == next {
                words.push(Vec::new());
            }
            words[slot].push(bit);
        }
        words
    }
}

/// Per-call options for [`ReBertModel::recover`]. The default is all
/// cores, the bitwise-reference f32 scalar backend, no score cache and
/// no cancellation.
///
/// # Examples
///
/// ```
/// use rebert::{ReBertConfig, ReBertModel, RecoverOptions, ScoreCache};
/// use rebert_circuits::{generate, Profile};
///
/// let model = ReBertModel::new(ReBertConfig::tiny(), 0);
/// let c = generate(&Profile::new("demo", 80, 8, 2), 3);
/// let cache = ScoreCache::new(1 << 20, model.fingerprint());
/// let opts = RecoverOptions { threads: 1, cache: Some(&cache), ..RecoverOptions::default() };
/// let cold = model.recover(&c.netlist, &opts).expect("no cancel token");
/// let warm = model.recover(&c.netlist, &opts).expect("no cancel token");
/// assert_eq!(warm.assignment, cold.assignment);
/// assert_eq!(warm.stats.cache_misses, 0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RecoverOptions<'a> {
    /// OS threads for the sweep and the scorer (`0` = all cores). The
    /// result is bitwise-identical for every thread count.
    pub threads: usize,
    /// Requested inference backend for the scorer, resolved per host;
    /// the backend that actually ran is [`PipelineStats::backend`].
    pub backend: Backend,
    /// Shared cross-request score cache, consulted before the model in
    /// the quadratic phase. `None` disables lookup and insert entirely.
    pub cache: Option<&'a ScoreCache>,
    /// Cooperative abort checked at every phase boundary and batch claim.
    pub cancel: Option<&'a CancelToken>,
}

impl Default for RecoverOptions<'_> {
    fn default() -> Self {
        RecoverOptions {
            threads: 0,
            backend: Backend::F32Scalar,
            cache: None,
            cancel: None,
        }
    }
}

/// Outcome of one unordered class pair `(a, b)`, `a ≤ b`, in the
/// parallel filter sweep: whether the Jaccard filter dropped it, and
/// otherwise which orientations occur among its member bit pairs. Each
/// occurring orientation needs one score, from the cache or the model.
#[derive(Clone, Copy)]
struct SweptClassPair {
    filtered: bool,
    /// `[CLS] repr(a) [SEP] repr(b)` — the lower class id first.
    lo_hi: bool,
    /// `[CLS] repr(b) [SEP] repr(a)` — for bit pairs `(i, j)`, `i < j`,
    /// whose lower bit belongs to the *higher* class id. Never for
    /// diagonal pairs.
    hi_lo: bool,
}

impl ReBertModel {
    /// Recovers word-level groupings from a gate-level netlist:
    /// tokenizes every bit, Jaccard-filters the pairs, scores survivors
    /// with the model, and groups with the adaptive `max/3` threshold.
    ///
    /// The quadratic phase works on **cone classes** ([`ConeClasses`]):
    /// Jaccard runs once per class pair over precomputed histograms
    /// ([`crate::jaccard_counts`]), one representative [`PairSequence`]
    /// per surviving (ordered) class pair is scored on the tape-free
    /// batched engine — or read from `opts.cache` — and its score fills
    /// one class-pair slot of the matrix that all member bit pairs read.
    /// Grouping joins bits per above-threshold slot. On the scalar
    /// backend the assignment and score matrix are **bitwise-identical**
    /// to the per-bit-pair reference path for every thread count, with
    /// or without a cache.
    ///
    /// Scoring workers lease warm scratches from the model's own pool,
    /// so repeated calls on one model run allocation-free.
    ///
    /// # Errors
    ///
    /// [`Cancelled`] when `opts.cancel` trips before the run completes;
    /// no partial result escapes, and the model stays fully reusable.
    ///
    /// # Examples
    ///
    /// ```
    /// use rebert::{CancelToken, Cancelled, ReBertConfig, ReBertModel, RecoverOptions};
    /// use rebert_circuits::{generate, Profile};
    ///
    /// let model = ReBertModel::new(ReBertConfig::tiny(), 0);
    /// let c = generate(&Profile::new("demo", 100, 16, 4), 1);
    /// let rec = model
    ///     .recover(&c.netlist, &RecoverOptions::default())
    ///     .expect("no cancel token");
    /// assert_eq!(rec.assignment.len(), 16);
    /// // A pre-cancelled token aborts without poisoning the model.
    /// let token = CancelToken::new();
    /// token.cancel();
    /// let opts = RecoverOptions { cancel: Some(&token), ..RecoverOptions::default() };
    /// assert_eq!(model.recover(&c.netlist, &opts).unwrap_err(), Cancelled);
    /// ```
    pub fn recover(
        &self,
        nl: &Netlist,
        opts: &RecoverOptions<'_>,
    ) -> Result<RecoveredWords, Cancelled> {
        // Spans open *before* their phase stopwatch starts and close via
        // `end_at(elapsed)`, so the span durations on the trace are the
        // exact values reported in `PipelineStats` and end timestamps
        // never outrun the clock (per-track monotonicity).
        let mut root = obs::span(obs::Level::Info, "pipeline", "recover");
        let sp_tokenize = obs::span(obs::Level::Info, "pipeline", "tokenize");
        let start = Instant::now();
        let cfg = self.config();
        let threads = opts.threads;
        // Resolve the backend once up front: this also warms the int8
        // view (outside the timed score phase) and fixes the label that
        // stats and metrics will report.
        let backend = self.engine(opts.backend).backend();

        let seqs = bit_sequences(nl, cfg.k_levels, cfg.code_width);
        let n = seqs.len();
        let tokenize_time = start.elapsed();
        sp_tokenize.end_at(tokenize_time);
        progress("tokenize", 10, vec![("bits", n.into())]);

        let mut sp_filter = obs::span(obs::Level::Info, "pipeline", "filter");
        let filter_start = Instant::now();
        let classes = ConeClasses::build(&seqs);
        let k = classes.len();

        // Linearized unordered class pairs (a ≤ b); diagonal pairs only
        // exist when the class holds at least one bit pair.
        let mut class_pairs: Vec<(u32, u32)> = Vec::with_capacity(k * (k + 1) / 2);
        for a in 0..k as u32 {
            if classes.members(a).len() >= 2 {
                class_pairs.push((a, a));
            }
            for b in a + 1..k as u32 {
                class_pairs.push((a, b));
            }
        }

        // Parallel sweep: Jaccard once per class pair, then note which
        // orientations the survivors need. Deterministic because results
        // are collected in class-pair order. No sequence is assembled
        // here: that waits for the score phase, and only for pairs the
        // cache does not answer.
        let swept = try_par_map_batched(
            &class_pairs,
            threads,
            SWEEP_BATCH,
            opts.cancel,
            || (),
            |_, &(a, b)| {
                if jaccard_counts(classes.histogram(a), classes.histogram(b))
                    < cfg.jaccard_threshold
                {
                    return SweptClassPair {
                        filtered: true,
                        lo_hi: false,
                        hi_lo: false,
                    };
                }
                let (ma, mb) = (classes.members(a), classes.members(b));
                // Orientation (a-first) serves bit pairs (i, j), i < j,
                // with i ∈ a and j ∈ b — it exists iff min(a) < max(b).
                let last = |m: &[usize]| *m.last().expect("classes are non-empty");
                SweptClassPair {
                    filtered: false,
                    lo_hi: a == b || ma[0] < last(mb),
                    hi_lo: a != b && mb[0] < last(ma),
                }
            },
        );
        let swept = match swept {
            Some(s) => s,
            None => {
                obs::event_with(
                    obs::Level::Info,
                    "pipeline",
                    "cancelled",
                    vec![("phase", "filter".into())],
                );
                return Err(Cancelled);
            }
        };

        // Deterministic survivor indexing: walk class pairs in linear
        // order, assigning each needed orientation one slot in `slots`,
        // the ordered class pair `(x, y)` whose sequence is
        // `[CLS] repr(x) [SEP] repr(y)`. Its score serves every bit pair
        // whose lower bit is in `x` and higher bit in `y`. With a cache
        // attached, `keys` carries the slot's content-addressed cache key
        // (fingerprint + backend + ordered cone hashes).
        let fingerprint = opts.cache.map(|_| self.fingerprint());
        let mut slots: Vec<(u32, u32)> = Vec::new();
        let mut keys: Vec<u128> = Vec::new();
        let mut filtered = 0usize;
        for (&(a, b), swept_pair) in class_pairs.iter().zip(swept) {
            let count = if a == b {
                let m = classes.members(a).len();
                m * (m - 1) / 2
            } else {
                classes.members(a).len() * classes.members(b).len()
            };
            if swept_pair.filtered {
                filtered += count;
                continue;
            }
            for (needed, x, y) in [(swept_pair.lo_hi, a, b), (swept_pair.hi_lo, b, a)] {
                if !needed {
                    continue;
                }
                slots.push((x, y));
                if let Some(fp) = fingerprint {
                    keys.push(ScoreCache::pair_key(
                        fp,
                        backend,
                        classes.hash(x),
                        classes.hash(y),
                    ));
                }
            }
        }
        let filter_time = filter_start.elapsed();
        sp_filter.add_field("classes", k);
        sp_filter.add_field("class_pairs", class_pairs.len());
        sp_filter.end_at(filter_time);
        progress(
            "filter",
            30,
            vec![
                ("classes", k.into()),
                ("class_pairs", class_pairs.len().into()),
                ("survivors", slots.len().into()),
            ],
        );

        let mut sp_score = obs::span(obs::Level::Info, "pipeline", "score");
        let score_start = Instant::now();
        let mut cache_hits = 0usize;
        let mut cache_misses = 0usize;
        // The pair sequence of a slot, assembled inside the scorer's
        // batches only when the slot needs the model.
        let sequence = |(x, y): (u32, u32)| {
            let (tx, cx) = &seqs[classes.representative(x)];
            let (ty, cy) = &seqs[classes.representative(y)];
            PairSequence::build(tx, cx, ty, cy, cfg.code_width, cfg.max_seq)
        };
        let scores = match opts.cache {
            None => {
                progress("score", 40, vec![("to_score", slots.len().into())]);
                self.score_ctx(
                    &slots,
                    |&slot| Cow::Owned(sequence(slot)),
                    threads,
                    opts.cancel,
                    backend,
                )
            }
            Some(cache) => {
                // Consult the cache first; only misses reach the model.
                // Hit scores flow through the same slots, so the matrix
                // below is bitwise-identical to a cold run.
                let mut sp_lookup = obs::span(obs::Level::Debug, "cache", "lookup");
                let mut scores = vec![0.0f32; slots.len()];
                let mut miss_slots: Vec<usize> = Vec::new();
                for (slot, &key) in keys.iter().enumerate() {
                    match cache.get(key) {
                        Some(score) => scores[slot] = score,
                        None => miss_slots.push(slot),
                    }
                }
                cache_misses = miss_slots.len();
                cache_hits = slots.len() - cache_misses;
                sp_lookup.add_field("hits", cache_hits);
                sp_lookup.add_field("misses", cache_misses);
                sp_lookup.end();
                progress(
                    "score",
                    40,
                    vec![
                        ("to_score", miss_slots.len().into()),
                        ("cache_hits", cache_hits.into()),
                        ("cache_misses", cache_misses.into()),
                    ],
                );
                self.score_ctx(
                    &miss_slots,
                    |&slot| Cow::Owned(sequence(slots[slot])),
                    threads,
                    opts.cancel,
                    backend,
                )
                .map(|fresh| {
                    for (&slot, &score) in miss_slots.iter().zip(&fresh) {
                        scores[slot] = score;
                        cache.insert(keys[slot], score);
                    }
                    scores
                })
            }
        };
        let scores = match scores {
            Some(s) => s,
            None => {
                obs::event_with(
                    obs::Level::Info,
                    "pipeline",
                    "cancelled",
                    vec![("phase", "score".into())],
                );
                return Err(Cancelled);
            }
        };
        let score_time = score_start.elapsed();
        sp_score.add_field("class_pairs_scored", slots.len());
        sp_score.end_at(score_time);
        progress(
            "score",
            90,
            vec![
                ("class_pairs_scored", slots.len().into()),
                ("cache_hits", cache_hits.into()),
                ("cache_misses", cache_misses.into()),
            ],
        );

        let sp_group = obs::span(obs::Level::Info, "pipeline", "group");
        let group_start = Instant::now();
        let mut matrix = ScoreMatrix::with_classes(classes.assignments().to_vec());
        for (&(x, y), &score) in slots.iter().zip(&scores) {
            matrix.set_class(x, y, score);
        }
        let assignment = group_bits_adaptive(&matrix);
        let group_time = group_start.elapsed();
        sp_group.end_at(group_time);

        let pairs_total = n * n.saturating_sub(1) / 2;
        let scored = pairs_total - filtered;
        progress(
            "group",
            100,
            vec![("bits", n.into()), ("pairs_scored", scored.into())],
        );
        root.add_field("bits", n);
        root.add_field("classes", k);
        root.add_field("pairs_scored", scored);
        Ok(self.finish(
            assignment,
            matrix,
            PipelinePhases {
                pairs_total,
                filtered,
                scored,
                classes: k,
                class_pairs_scored: slots.len(),
                cache_hits,
                cache_misses,
                backend,
                tokenize_time,
                filter_time,
                score_time,
                group_time,
                elapsed: start.elapsed(),
            },
        ))
    }

    /// [`ReBertModel::recover`] with `threads` and `backend`, no cache
    /// and no cancellation.
    ///
    /// Kept only because the benchmark harness (`perfbench/src/drive.rs`)
    /// calls it; nothing in the workspace does. New code should call
    /// [`ReBertModel::recover`].
    pub fn recover_words_backend(
        &self,
        nl: &Netlist,
        threads: usize,
        backend: Backend,
    ) -> RecoveredWords {
        let opts = RecoverOptions {
            threads,
            backend,
            ..RecoverOptions::default()
        };
        self.recover(nl, &opts).expect("no cancel token")
    }

    /// The pre-deduplication **reference path**: Jaccard and the model
    /// run once per surviving *bit* pair, with no cone classification or
    /// memoization. Kept for equivalence testing and benchmarking — its
    /// assignment and score matrix are bitwise-identical to
    /// [`ReBertModel::recover`] on the scalar backend at every thread
    /// count, it is just quadratically slower on netlists with duplicated
    /// cones.
    pub fn recover_words_reference(&self, nl: &Netlist, threads: usize) -> RecoveredWords {
        let start = Instant::now();
        let cfg = self.config();

        let seqs = bit_sequences(nl, cfg.k_levels, cfg.code_width);
        let n = seqs.len();
        let tokenize_time = start.elapsed();

        let filter_start = Instant::now();
        let mut filtered = 0usize;
        let mut survivors: Vec<(usize, usize)> = Vec::new();
        let mut pairs: Vec<PairSequence> = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                let (ta, ca) = &seqs[i];
                let (tb, cb) = &seqs[j];
                if jaccard(ta, tb) < cfg.jaccard_threshold {
                    filtered += 1;
                    continue; // score stays at the −1 sentinel
                }
                survivors.push((i, j));
                pairs.push(PairSequence::build(
                    ta,
                    ca,
                    tb,
                    cb,
                    cfg.code_width,
                    cfg.max_seq,
                ));
            }
        }
        let filter_time = filter_start.elapsed();

        let score_start = Instant::now();
        let scores = self.score_pairs_backend(&pairs, threads, Backend::F32Scalar);
        let score_time = score_start.elapsed();

        let group_start = Instant::now();
        let mut matrix = ScoreMatrix::new(n);
        for (&(i, j), &p) in survivors.iter().zip(&scores) {
            matrix.set(i, j, p);
        }
        let assignment = group_bits_adaptive(&matrix);
        let group_time = group_start.elapsed();

        let scored = pairs.len();
        self.finish(
            assignment,
            matrix,
            PipelinePhases {
                pairs_total: n * n.saturating_sub(1) / 2,
                filtered,
                scored,
                classes: 0,
                class_pairs_scored: scored,
                // The reference path never consults a cache.
                cache_hits: 0,
                cache_misses: 0,
                // The reference path exists for bitwise equivalence
                // checks, so it is pinned to the scalar backend.
                backend: Backend::F32Scalar,
                tokenize_time,
                filter_time,
                score_time,
                group_time,
                elapsed: start.elapsed(),
            },
        )
    }

    /// Assembles the result struct and derived stats shared by both
    /// pipeline paths.
    fn finish(
        &self,
        assignment: Vec<usize>,
        matrix: ScoreMatrix,
        p: PipelinePhases,
    ) -> RecoveredWords {
        let pairs_per_sec = if p.scored == 0 {
            0.0
        } else {
            p.scored as f64 / p.score_time.as_secs_f64().max(f64::MIN_POSITIVE)
        };
        let mut warnings = Vec::new();
        if p.pairs_total > 0 && p.scored == 0 {
            warnings.push(format!(
                "jaccard pre-filter removed all {} bit pairs; every bit becomes a \
                 singleton word (degenerate-threshold)",
                p.pairs_total
            ));
        } else if p.scored > 0 && matrix.max_score() <= 0.0 {
            warnings.push(format!(
                "degenerate score threshold: max pairwise score {} is not positive, \
                 so the adaptive max/3 cut cannot separate words (degenerate-threshold)",
                matrix.max_score()
            ));
        }
        RecoveredWords {
            assignment,
            score_matrix: matrix,
            stats: PipelineStats {
                pairs_total: p.pairs_total,
                pairs_filtered: p.filtered,
                pairs_scored: p.scored,
                classes: p.classes,
                class_pairs_scored: p.class_pairs_scored,
                cache_hits: p.cache_hits,
                cache_misses: p.cache_misses,
                pairs_memoized: p.scored - p.class_pairs_scored,
                pairs_per_sec,
                backend: p.backend,
                tokenize_time: p.tokenize_time,
                filter_time: p.filter_time,
                score_time: p.score_time,
                group_time: p.group_time,
                elapsed: p.elapsed,
                warnings,
            },
        }
    }
}

/// Raw per-phase measurements handed to [`ReBertModel::finish`].
struct PipelinePhases {
    pairs_total: usize,
    filtered: usize,
    scored: usize,
    classes: usize,
    class_pairs_scored: usize,
    cache_hits: usize,
    cache_misses: usize,
    backend: Backend,
    tokenize_time: Duration,
    filter_time: Duration,
    score_time: Duration,
    group_time: Duration,
    elapsed: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ReBertConfig;
    use rebert_circuits::{generate, Profile};

    /// Scalar, uncached, uncancellable options on `threads` threads.
    fn on_threads(threads: usize) -> RecoverOptions<'static> {
        RecoverOptions {
            threads,
            ..RecoverOptions::default()
        }
    }

    #[test]
    fn recovery_covers_every_bit() {
        let model = ReBertModel::new(ReBertConfig::tiny(), 0);
        let c = generate(&Profile::new("demo", 80, 10, 3), 2);
        let rec = model.recover(&c.netlist, &on_threads(0)).unwrap();
        assert_eq!(rec.assignment.len(), 10);
        assert_eq!(
            rec.stats.pairs_total,
            rec.stats.pairs_filtered + rec.stats.pairs_scored
        );
        // Words partition the bits.
        let total: usize = rec.words().iter().map(Vec::len).sum();
        assert_eq!(total, 10);
        // A valid generated netlist with scored pairs raises no warnings.
        assert!(rec.stats.warnings.is_empty(), "{:?}", rec.stats.warnings);
    }

    #[test]
    fn stats_track_filtering() {
        let mut cfg = ReBertConfig::tiny();
        cfg.jaccard_threshold = 1.01; // filter everything
        let model = ReBertModel::new(cfg, 0);
        let c = generate(&Profile::new("demo", 80, 8, 2), 3);
        let rec = model.recover(&c.netlist, &on_threads(0)).unwrap();
        assert_eq!(rec.stats.pairs_scored, 0);
        assert_eq!(rec.stats.pairs_filtered, rec.stats.pairs_total);
        assert_eq!(rec.stats.pairs_per_sec, 0.0);
        assert_eq!(rec.stats.class_pairs_scored, 0);
        assert_eq!(rec.stats.pairs_memoized, 0);
        // Everything filtered => all singleton words, flagged as such.
        assert_eq!(rec.words().len(), 8);
        assert!(
            rec.stats.warnings.iter().any(|w| w.contains("singleton")),
            "{:?}",
            rec.stats.warnings
        );
    }

    #[test]
    fn no_filtering_scores_all_pairs() {
        let mut cfg = ReBertConfig::tiny();
        cfg.jaccard_threshold = 0.0;
        let model = ReBertModel::new(cfg, 0);
        let c = generate(&Profile::new("demo", 80, 6, 2), 4);
        let rec = model.recover(&c.netlist, &on_threads(0)).unwrap();
        assert_eq!(rec.stats.pairs_filtered, 0);
        assert_eq!(rec.stats.pairs_scored, 15);
        assert!(rec.stats.pairs_per_sec > 0.0);
        // Dedup bookkeeping is consistent.
        assert!(rec.stats.classes >= 1 && rec.stats.classes <= 6);
        assert_eq!(
            rec.stats.pairs_memoized,
            rec.stats.pairs_scored - rec.stats.class_pairs_scored
        );
    }

    #[test]
    fn assignment_is_thread_count_invariant() {
        let model = ReBertModel::new(ReBertConfig::tiny(), 9);
        // 12 bits, and 200 bits in 38 cone classes: enough that the
        // scorer hands every worker several claims and memoizes pairs.
        let designs = [
            generate(&Profile::new("demo", 90, 12, 3), 5),
            generate(&Profile::new("wide", 800, 200, 20), 3),
        ];
        for c in &designs {
            let base = model.recover(&c.netlist, &on_threads(1)).unwrap();
            let bits = base.assignment.len();
            for threads in [2usize, 3, 4, 8] {
                let rec = model.recover(&c.netlist, &on_threads(threads)).unwrap();
                assert_bitwise(&rec, &base, &format!("{bits} bits, {threads} threads"));
            }
        }
    }

    #[test]
    fn dedup_matches_reference_bitwise() {
        let model = ReBertModel::new(ReBertConfig::tiny(), 11);
        let c = generate(&Profile::new("demo", 120, 14, 4), 6);
        let dedup = model.recover(&c.netlist, &on_threads(1)).unwrap();
        let reference = model.recover_words_reference(&c.netlist, 1);
        assert_eq!(dedup.assignment, reference.assignment);
        assert_eq!(dedup.stats.pairs_total, reference.stats.pairs_total);
        assert_eq!(dedup.stats.pairs_filtered, reference.stats.pairs_filtered);
        assert_eq!(dedup.stats.pairs_scored, reference.stats.pairs_scored);
        for i in 0..14 {
            for j in (i + 1)..14 {
                assert_eq!(
                    dedup.score_matrix.get(i, j).to_bits(),
                    reference.score_matrix.get(i, j).to_bits(),
                    "score ({i},{j})"
                );
            }
        }
        // The dedup path never calls the model more often than the
        // reference path scores bit pairs.
        assert!(dedup.stats.class_pairs_scored <= reference.stats.pairs_scored);
        assert_eq!(reference.stats.pairs_memoized, 0);
        assert_eq!(reference.stats.classes, 0);
    }

    #[test]
    fn phase_spans_match_pipeline_stats_durations() {
        use rebert_obs::{Kind, Level, RingSink, Value};
        use std::sync::Arc;

        // 13 bits is unique to this test; other tests' records may land
        // in the ring concurrently (the gate is process-global), so our
        // run is identified by the `bits` field on the root span's End.
        const BITS: usize = 13;
        let mut cfg = ReBertConfig::tiny();
        cfg.jaccard_threshold = 0.0; // keep every pair
        let model = ReBertModel::new(cfg, 3);
        // 13 near-distinct cones: 74 surviving class pairs, enough to
        // overflow one SCORE_BATCH and force the parallel score path.
        let c = generate(&Profile::new("demo", 120, BITS, 13), 8);

        let ring = Arc::new(RingSink::new(65_536, Level::Debug));
        let sink = rebert_obs::install(ring.clone());
        let rec = model.recover(&c.netlist, &on_threads(2)).unwrap();
        let records = ring.drain();
        rebert_obs::uninstall(sink);

        let root_end = records
            .iter()
            .find(|r| {
                r.kind == Kind::End
                    && r.name == "recover"
                    && r.fields.contains(&("bits", Value::U64(BITS as u64)))
            })
            .expect("root recover span closed with a bits field");
        let root = root_end.span;

        let expect = [
            ("tokenize", rec.stats.tokenize_time),
            ("filter", rec.stats.filter_time),
            ("score", rec.stats.score_time),
            ("group", rec.stats.group_time),
        ];
        for (name, stat) in expect {
            let begin = records
                .iter()
                .find(|r| r.kind == Kind::Begin && r.name == name && r.parent == root)
                .unwrap_or_else(|| panic!("phase {name} has a Begin under the root"));
            let end = records
                .iter()
                .find(|r| r.kind == Kind::End && r.span == begin.span)
                .unwrap_or_else(|| panic!("phase {name} closed"));
            assert_eq!(
                (end.ts_micros - begin.ts_micros) as u128,
                stat.as_micros(),
                "span duration for {name} must equal PipelineStats"
            );
        }

        // The score phase fans out: per-batch worker spans adopt the
        // caller's context, so they parent under the score span and run
        // on other threads' tracks.
        let score_begin = records
            .iter()
            .find(|r| r.kind == Kind::Begin && r.name == "score" && r.parent == root)
            .unwrap();
        let batches: Vec<_> = records
            .iter()
            .filter(|r| r.kind == Kind::Begin && r.name == "batch" && r.parent == score_begin.span)
            .collect();
        assert!(
            batches.len() >= 2,
            "expected multiple score batches, got {}",
            batches.len()
        );
        // Batch spans carry each worker's own track id. (No assertion
        // that tracks differ from the caller's: a test environment may
        // run scoped workers inline. Cross-thread context adoption is
        // pinned by rebert-obs's own thread-spawning test.)
        // Every batch span closes (claim/complete pairing).
        for b in &batches {
            assert!(
                records
                    .iter()
                    .any(|r| r.kind == Kind::End && r.span == b.span),
                "batch span at index {:?} never completed",
                b.fields
            );
        }
    }

    #[test]
    fn backend_recovery_reports_and_tracks_scalar() {
        let model = ReBertModel::new(ReBertConfig::tiny(), 9);
        let c = generate(&Profile::new("demo", 90, 12, 3), 5);
        let scalar = model.recover(&c.netlist, &on_threads(1)).unwrap();
        assert_eq!(scalar.stats.backend, Backend::F32Scalar);

        for requested in [Backend::F32Simd, Backend::Int8] {
            let opts = RecoverOptions {
                threads: 2,
                backend: requested,
                ..RecoverOptions::default()
            };
            let rec = model.recover(&c.netlist, &opts).unwrap();
            // The reported backend is the resolved one (scalar hosts
            // degrade F32Simd; Int8 always has the scalar q8 kernel).
            assert_eq!(rec.stats.backend, requested.effective());
            assert_eq!(rec.assignment.len(), 12);
            // Scores are tolerance-equivalent to the scalar path.
            for i in 0..12 {
                for j in (i + 1)..12 {
                    let (a, b) = (rec.score_matrix.get(i, j), scalar.score_matrix.get(i, j));
                    assert!(
                        (a - b).abs() <= 0.05,
                        "{requested}: score ({i},{j}) {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn phase_timings_sum_below_elapsed() {
        let model = ReBertModel::new(ReBertConfig::tiny(), 0);
        let c = generate(&Profile::new("demo", 80, 8, 2), 6);
        let s = model.recover(&c.netlist, &on_threads(0)).unwrap().stats;
        let phases = s.tokenize_time + s.filter_time + s.score_time + s.group_time;
        assert!(phases <= s.elapsed);
    }

    #[test]
    fn words_handle_sparse_assignments() {
        // Word ids straight from an external source need not be dense:
        // `words()` must re-number them without materializing empty words.
        let rec = RecoveredWords {
            assignment: vec![5, 9, 5, 2],
            score_matrix: ScoreMatrix::new(4),
            stats: PipelineStats {
                pairs_total: 6,
                pairs_filtered: 6,
                pairs_scored: 0,
                classes: 0,
                class_pairs_scored: 0,
                cache_hits: 0,
                cache_misses: 0,
                pairs_memoized: 0,
                pairs_per_sec: 0.0,
                backend: Backend::F32Scalar,
                tokenize_time: Duration::ZERO,
                filter_time: Duration::ZERO,
                score_time: Duration::ZERO,
                group_time: Duration::ZERO,
                elapsed: Duration::ZERO,
                warnings: Vec::new(),
            },
        };
        let words = rec.words();
        assert_eq!(words, vec![vec![0, 2], vec![1], vec![3]]);
    }

    #[test]
    fn invalid_netlist_still_recovers_like_the_reference() {
        use rebert_netlist::{GateType, Netlist};
        // Two bits whose cones read an undriven net. The pipeline leaves
        // structural checks to the front ends' lint, so recovery
        // completes: the placeholder binarizes as a constant.
        let mut nl = Netlist::new("bad");
        let a = nl.add_input("a");
        let floating = nl.add_net("floating");
        for i in 0..2 {
            let x = nl
                .add_gate_new_net(GateType::And, vec![a, floating], format!("x{i}"))
                .unwrap();
            let q = nl.add_net(format!("q{i}"));
            nl.add_dff(x, q).unwrap();
        }
        let model = ReBertModel::new(ReBertConfig::tiny(), 0);
        let rec = model.recover(&nl, &on_threads(0)).unwrap();
        assert_eq!(rec.assignment.len(), 2);
        // The reference path reports the same words and warnings.
        let reference = model.recover_words_reference(&nl, 1);
        assert_eq!(reference.assignment, rec.assignment);
        assert_eq!(reference.stats.warnings, rec.stats.warnings);
    }

    #[test]
    fn words_of_single_bit_word_netlist() {
        // Every word a single bit: recovery must yield exactly `ffs`
        // words with no empties, regardless of word-id sparsity.
        let mut cfg = ReBertConfig::tiny();
        cfg.jaccard_threshold = 1.01; // keep every bit a singleton
        let model = ReBertModel::new(cfg, 0);
        let c = generate(&Profile::new("demo", 60, 6, 6), 8);
        let rec = model.recover(&c.netlist, &on_threads(0)).unwrap();
        let words = rec.words();
        assert_eq!(words.len(), 6);
        assert!(words.iter().all(|w| w.len() == 1));
    }

    /// Asserts two recoveries agree bitwise: the assignment and every
    /// bit pair's score.
    fn assert_bitwise(a: &RecoveredWords, b: &RecoveredWords, label: &str) {
        assert_eq!(a.assignment, b.assignment, "{label}: assignment");
        let n = a.assignment.len();
        for i in 0..n {
            for j in (i + 1)..n {
                assert_eq!(
                    a.score_matrix.get(i, j).to_bits(),
                    b.score_matrix.get(i, j).to_bits(),
                    "{label}: score ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn warm_rounds_match_a_fresh_model_bitwise() {
        let mk = || ReBertModel::new(ReBertConfig::tiny(), 13);
        let c = generate(&Profile::new("demo", 100, 12, 3), 4);
        let fresh = mk().recover(&c.netlist, &on_threads(1)).unwrap();
        let model = mk();
        for round in 0..3 {
            let rec = model.recover(&c.netlist, &on_threads(1)).unwrap();
            assert_bitwise(&rec, &fresh, &format!("round {round}"));
        }
    }

    #[test]
    fn one_model_is_bitwise_across_thread_counts_and_pool_stays_bounded() {
        let mut cfg = ReBertConfig::tiny();
        cfg.jaccard_threshold = 0.0; // keep every pair
        let model = ReBertModel::new(cfg, 3);
        let c = generate(&Profile::new("demo", 160, 20, 20), 8);
        let first = model.recover(&c.netlist, &on_threads(1)).unwrap();
        let wide = model.recover(&c.netlist, &on_threads(4)).unwrap();
        let last = model.recover(&c.netlist, &on_threads(1)).unwrap();
        // Enough slots that four workers each claim a score batch.
        assert!(first.stats.class_pairs_scored > 3 * crate::model::SCORE_BATCH);
        assert_bitwise(&wide, &first, "4 threads after 1");
        assert_bitwise(&last, &first, "1 thread after 4");
        // The widest call leased at most one scratch per worker, and the
        // pool keeps no more than that.
        let warm = model.warm_scratches();
        assert!((1..=4).contains(&warm), "{warm} warm scratches");
    }

    #[test]
    fn scratches_return_to_pool_warm() {
        let model = ReBertModel::new(ReBertConfig::tiny(), 0);
        let c = generate(&Profile::new("demo", 80, 8, 2), 5);
        assert_eq!(model.warm_scratches(), 0);
        let _ = model.recover(&c.netlist, &on_threads(1)).unwrap();
        let after_first = model.warm_scratches();
        assert!(after_first >= 1, "scoring leased at least one scratch");
        let _ = model.recover(&c.netlist, &on_threads(1)).unwrap();
        // Steady state: the pool does not grow without bound.
        assert_eq!(model.warm_scratches(), after_first);
    }

    #[test]
    fn cancelled_token_aborts_and_model_survives() {
        let model = ReBertModel::new(ReBertConfig::tiny(), 2);
        let c = generate(&Profile::new("demo", 120, 14, 4), 7);
        let clean = model.recover(&c.netlist, &on_threads(2)).unwrap();

        let tripped = CancelToken::new();
        tripped.cancel();
        // An expired deadline behaves like an explicit cancel.
        let expired = CancelToken::with_deadline(Duration::ZERO);
        for token in [&tripped, &expired] {
            let opts = RecoverOptions {
                cancel: Some(token),
                ..on_threads(2)
            };
            assert_eq!(model.recover(&c.netlist, &opts).unwrap_err(), Cancelled);
        }

        // The model is not poisoned: results stay bitwise-identical.
        let again = model.recover(&c.netlist, &on_threads(2)).unwrap();
        assert_bitwise(&again, &clean, "after cancellation");
    }

    #[test]
    fn generous_deadline_completes() {
        let model = ReBertModel::new(ReBertConfig::tiny(), 1);
        let c = generate(&Profile::new("demo", 80, 8, 2), 8);
        let token = CancelToken::with_deadline(Duration::from_secs(600));
        let opts = RecoverOptions {
            cancel: Some(&token),
            ..on_threads(1)
        };
        let rec = model.recover(&c.netlist, &opts).expect("finishes");
        let plain = model.recover(&c.netlist, &on_threads(1)).unwrap();
        assert_eq!(rec.assignment, plain.assignment);
    }

    #[test]
    fn int8_call_leaves_the_scalar_path_bitwise() {
        let model = ReBertModel::new(ReBertConfig::tiny(), 13);
        let c = generate(&Profile::new("demo", 100, 12, 3), 4);
        let scalar = model.recover(&c.netlist, &on_threads(1)).unwrap();
        assert_eq!(scalar.stats.backend, Backend::F32Scalar);

        let opts = RecoverOptions {
            backend: Backend::Int8,
            ..on_threads(1)
        };
        let int8 = model.recover(&c.netlist, &opts).unwrap();
        assert_eq!(int8.stats.backend, Backend::Int8);
        assert_eq!(int8.assignment.len(), 12);
        // The shared scratches serve the scalar path bitwise afterwards.
        let again = model.recover(&c.netlist, &on_threads(1)).unwrap();
        assert_bitwise(&again, &scalar, "scalar after int8");
    }
}
