//! Parity and determinism properties of the tape-free inference engine:
//! `score_pairs_backend` on the scalar backend must agree with the taped
//! `predict` (the acceptance bound is 1e-5; the engine is in fact
//! bit-exact) for random model configurations and seeds, and batched
//! scoring must be deterministic and thread-count-invariant on every
//! backend.
//!
//! The random cases are seeded loops: each property draws its inputs
//! from a fixed-seed ChaCha stream, so every run checks the same cases.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha20Rng;
use rebert::{Backend, PairSequence, ReBertConfig, ReBertModel, RecoverOptions, Token};
use rebert_netlist::ALL_GATE_TYPES;
use rebert_nn::BertConfig;

/// A gate token or `X`, uniformly.
fn gen_token(rng: &mut ChaCha20Rng) -> Token {
    let i = rng.gen_range(0..=ALL_GATE_TYPES.len());
    ALL_GATE_TYPES.get(i).map_or(Token::X, |&g| Token::Gate(g))
}

/// One bit's token sequence, `1..max_len` tokens long.
fn gen_bit(rng: &mut ChaCha20Rng, max_len: usize) -> Vec<Token> {
    let n = rng.gen_range(1..max_len);
    (0..n).map(|_| gen_token(rng)).collect()
}

/// Random small-but-varied model shapes: heads × head width, layer
/// count, FF width, code width, and sequence budget all move.
fn gen_config(rng: &mut ChaCha20Rng) -> ReBertConfig {
    let n_heads = rng.gen_range(1usize..=4);
    let d_head = rng.gen_range(2usize..=8);
    let n_layers = rng.gen_range(1usize..=3);
    let d_ff = rng.gen_range(4usize..=32);
    let half_code = rng.gen_range(1usize..=8);
    let max_seq = rng.gen_range(16usize..=64);
    let mut cfg = ReBertConfig::tiny();
    cfg.bert = BertConfig {
        d_model: n_heads * d_head,
        n_heads,
        n_layers,
        d_ff,
    };
    cfg.code_width = 2 * half_code;
    cfg.max_seq = max_seq;
    cfg
}

fn codes_for(n: usize, w: usize) -> Vec<Vec<f32>> {
    // Deterministic non-zero codes so the tree projection path is live.
    (0..n)
        .map(|i| {
            (0..w)
                .map(|j| ((i * 31 + j * 7) % 5) as f32 * 0.25)
                .collect()
        })
        .collect()
}

/// The tentpole parity property: for random configs, model seeds, and
/// token sequences, the tape-free forward matches the taped one.
#[test]
fn tape_free_matches_taped_predict() {
    let mut rng = ChaCha20Rng::seed_from_u64(0x1FE4_0001);
    for case in 0..16 {
        let cfg = gen_config(&mut rng);
        let seed = rng.gen_range(0u64..6);
        let a = gen_bit(&mut rng, 24);
        let b = gen_bit(&mut rng, 24);
        let ctx = format!("case {case}: seed={seed} cfg={cfg:?} a={a:?} b={b:?}");
        let model = ReBertModel::new(cfg.clone(), seed);
        let w = cfg.code_width;
        let pair = PairSequence::build(
            &a,
            &codes_for(a.len(), w),
            &b,
            &codes_for(b.len(), w),
            w,
            cfg.max_seq,
        );
        let taped = model.predict(&pair);
        let infer =
            model.score_pairs_backend(std::slice::from_ref(&pair), 1, Backend::F32Scalar)[0];
        assert!(
            (taped - infer).abs() <= 1e-5,
            "{ctx}: taped {taped} vs tape-free {infer}"
        );
        // The engine mirrors every taped op, so parity is actually exact.
        assert_eq!(taped.to_bits(), infer.to_bits(), "{ctx}");
    }
}

/// Batched scoring is deterministic and independent of the thread count
/// on every backend. Each leased scratch ends a pair with one row (the
/// encoder keeps only the pooled token's) and regrows for the next.
#[test]
fn score_pairs_thread_count_invariant() {
    let mut rng = ChaCha20Rng::seed_from_u64(0x1FE4_0002);
    let cfg = ReBertConfig::tiny();
    let w = cfg.code_width;
    for case in 0..16 {
        let seed = rng.gen_range(0u64..6);
        let n_bits = rng.gen_range(2usize..8);
        let bits: Vec<Vec<Token>> = (0..n_bits).map(|_| gen_bit(&mut rng, 16)).collect();
        let ctx = format!("case {case}: seed={seed} bits={bits:?}");
        let model = ReBertModel::new(cfg.clone(), seed);
        let mut pairs = Vec::new();
        for i in 0..bits.len() {
            for j in i + 1..bits.len() {
                pairs.push(PairSequence::build(
                    &bits[i],
                    &codes_for(bits[i].len(), w),
                    &bits[j],
                    &codes_for(bits[j].len(), w),
                    w,
                    cfg.max_seq,
                ));
            }
        }
        for backend in Backend::ALL {
            let base = model.score_pairs_backend(&pairs, 1, backend);
            assert_eq!(
                model.score_pairs_backend(&pairs, 1, backend),
                base,
                "{ctx}: {backend} not deterministic"
            );
            for threads in [2usize, 3, 8] {
                assert_eq!(
                    model.score_pairs_backend(&pairs, threads, backend),
                    base,
                    "{ctx}: {backend} at {threads} threads"
                );
            }
        }
    }
}

/// Requests of 1..=40 pairs: the claim size shrinks with the pair count
/// so even the smallest fan out, and a pair's bits must not depend on
/// which worker scores it or alongside which other pairs.
#[test]
fn small_requests_are_thread_count_invariant() {
    let mut rng = ChaCha20Rng::seed_from_u64(0x1FE4_0003);
    let cfg = ReBertConfig::tiny();
    let w = cfg.code_width;
    let model = ReBertModel::new(cfg.clone(), 4);
    let pairs: Vec<PairSequence> = (0..40)
        .map(|_| {
            let (a, b) = (gen_bit(&mut rng, 16), gen_bit(&mut rng, 16));
            PairSequence::build(
                &a,
                &codes_for(a.len(), w),
                &b,
                &codes_for(b.len(), w),
                w,
                cfg.max_seq,
            )
        })
        .collect();
    let bits = |scores: Vec<f32>| scores.into_iter().map(f32::to_bits).collect::<Vec<_>>();
    for backend in Backend::ALL {
        let all = bits(model.score_pairs_backend(&pairs, 1, backend));
        for n in 1..=pairs.len() {
            let base = bits(model.score_pairs_backend(&pairs[..n], 1, backend));
            assert_eq!(base, all[..n], "{backend}: {n} pairs vs a prefix of 40");
            for threads in [2usize, 3, 8] {
                assert_eq!(
                    bits(model.score_pairs_backend(&pairs[..n], threads, backend)),
                    base,
                    "{backend}: {n} pairs at {threads} threads"
                );
            }
        }
    }
}

/// Parity across the named configurations and ≥3 fixed seeds (the
/// acceptance checklist's explicit matrix), exercised end to end through
/// `recover`: the recovered assignment must not depend on the
/// thread count.
#[test]
fn recover_words_assignment_invariant_across_thread_counts() {
    use rebert_circuits::{generate, Profile};

    for (cfg, seed) in [
        (ReBertConfig::tiny(), 0u64),
        (ReBertConfig::tiny(), 1),
        (ReBertConfig::tiny(), 2),
        (ReBertConfig::small(), 3),
    ] {
        let model = ReBertModel::new(cfg, seed);
        let c = generate(&Profile::new("demo", 120, 14, 4), seed ^ 0x5EED);
        let on_threads = |threads| RecoverOptions {
            threads,
            ..RecoverOptions::default()
        };
        let base = model.recover(&c.netlist, &on_threads(1)).unwrap();
        for threads in [2usize, 4, 0] {
            let rec = model.recover(&c.netlist, &on_threads(threads)).unwrap();
            assert_eq!(
                rec.assignment, base.assignment,
                "assignment differs at {threads} threads (seed {seed})"
            );
        }
    }
}
