//! Bit pins: a change that means to move no bit must leave these equal.
//!
//! One test trains, in process, the recipe `rebert train --profiles
//! b03,b08 --epochs 2 --cap 100 --seed 42` runs (198 samples, under a
//! second in release) and pins the checkpoint fingerprint. It then pins,
//! per backend, the `StableHasher` digest of the score bits over b13's
//! Jaccard survivors (generator seed 1), computed as the `score_digest`
//! example computes them.
//!
//! The f32-scalar digest and the fingerprint are pinned exactly on every
//! host, because the reference arithmetic gives the same bits on every
//! kernel level. The f32-simd and int8 digests depend on the kernels a
//! host runs, so they are keyed by `simd_level()`; a level with no
//! recorded digest skips them with a printed note.
//!
//! The scalar pins hold only for this host's libm: the reference path
//! still takes `expf`, `tanhf`, `logf`, `log1pf`, `sinf` and `cosf` from
//! the C library (GELU, softmax, the pooler's `tanh`, the loss,
//! initialisation) until it owns those functions. Another libm may give
//! other bits, and a re-pin is then this file's diff.

#[path = "../examples/support/survivors.rs"]
mod survivors;

use rebert::{
    training_samples, Backend, DatasetConfig, ReBertConfig, ReBertModel, StableHasher, TrainConfig,
};
use rebert_tensor::SimdLevel;

/// The checkpoint fingerprint of the reduced training recipe.
const FINGERPRINT: &str = "72b10b7f402c619a";

/// The f32-scalar score digest over b13's survivors.
const SCALAR_DIGEST: u64 = 0x7480cfaf6a9e0811;

/// The `(f32-simd, int8)` score digests over b13's survivors, for each
/// kernel level they were recorded on. The `Scalar` row comes from a
/// build whose AVX2 bodies were compiled out (`RUSTFLAGS="--cfg miri"`).
const SIMD_DIGESTS: [(SimdLevel, u64, u64); 2] = [
    (SimdLevel::Avx2, 0x3531e4e971317197, 0x54516d8dc0742091),
    (SimdLevel::Scalar, 0x7480cfaf6a9e0811, 0x4d247a306bde894c),
];

/// What `rebert train --profiles b03,b08 --epochs 2 --cap 100 --seed 42`
/// trains: the CLI's model, dataset and optimiser settings.
fn reduced_recipe() -> (ReBertModel, usize) {
    let seed = 42u64;
    let circuits: Vec<_> = ["b03", "b08"]
        .iter()
        .map(|name| {
            let profile = rebert_circuits::profile(name).expect("a Table I profile");
            rebert_circuits::generate(&profile, seed ^ name.len() as u64)
        })
        .collect();
    let refs: Vec<_> = circuits.iter().collect();
    let mut mcfg = ReBertConfig::small();
    mcfg.k_levels = 4;
    let mut dcfg = DatasetConfig::for_model(&mcfg);
    dcfg.max_per_circuit = 100;
    dcfg.r_indexes = vec![0.0, 0.4, 0.8];
    let samples = training_samples(&refs, &dcfg, seed);
    let mut model = ReBertModel::new(mcfg, seed);
    let tcfg = TrainConfig {
        epochs: 2,
        lr: 1e-3,
        batch_size: 16,
        seed,
        weight_decay: 0.01,
        warmup_frac: 0.1,
    };
    rebert::train(&mut model, &samples, &tcfg);
    (model, samples.len())
}

/// The digest of the score bits `backend` gives every pair, on one
/// thread.
fn digest(model: &ReBertModel, pairs: &[rebert::PairSequence], backend: Backend) -> u64 {
    let mut h = StableHasher::new();
    for s in model.score_pairs_backend(pairs, 1, backend) {
        h.write_u32(s.to_bits());
    }
    h.finish()
}

#[test]
fn reduced_recipe_and_b13_scores_keep_their_bits() {
    let (model, samples) = reduced_recipe();
    assert_eq!(samples, 198, "the recipe's training set");
    assert_eq!(
        model.fingerprint_hex(),
        FINGERPRINT,
        "checkpoint fingerprint"
    );

    let profile = rebert_circuits::profile("b13").expect("a Table I profile");
    let netlist = rebert_circuits::generate(&profile, 1).netlist;
    let pairs = survivors::survivors(&model, &netlist);
    let got: Vec<(Backend, u64)> = Backend::ALL
        .iter()
        .map(|&b| (b, digest(&model, &pairs, b)))
        .collect();
    println!("b13: {} survivor pairs, digests {got:016x?}", pairs.len());
    assert_eq!(
        got[0],
        (Backend::F32Scalar, SCALAR_DIGEST),
        "f32-scalar digest"
    );

    let level = rebert_tensor::simd_level();
    match SIMD_DIGESTS.iter().find(|(l, ..)| *l == level) {
        Some(&(_, simd, int8)) => {
            assert_eq!(got[1], (Backend::F32Simd, simd), "f32-simd digest");
            assert_eq!(got[2], (Backend::Int8, int8), "int8 digest");
        }
        None => println!(
            "note: no f32-simd or int8 digest recorded for kernel level `{}`; skipped",
            level.label()
        ),
    }
}
