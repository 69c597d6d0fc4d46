//! Hashes and times the scorer over one design's Jaccard survivors, on
//! every backend.
//!
//! ```text
//! cargo run --release -p rebert --example score_digest -- <checkpoint> [bench] [reps]
//! ```
//!
//! `bench` is a profile name (default `b17`) and `reps` the number of
//! timed runs per backend (default 3). The pairs are the ones the
//! pipeline would score with an empty cache: `generate(<bench>, 1)`,
//! `bit_sequences`, `ConeClasses`, then every class pair whose token
//! histograms reach the model's Jaccard threshold, in each orientation
//! that stands for at least one bit pair (a class pairs with itself only
//! when it holds two bits or more).
//!
//! For each backend in `Backend::ALL`, one line gives the `StableHasher`
//! digest of the score bits (`score_pairs_backend(&pairs, 1, backend)`)
//! and the best µs per pair over the runs. Two builds that print the
//! same digest for a backend give every pair the same bits on it, which
//! is how a kernel or engine change shows that it moved no bit.

use std::process::ExitCode;
use std::time::Instant;

use rebert::{load_model, Backend, StableHasher};

#[path = "support/survivors.rs"]
mod survivors;
use survivors::survivors;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: score_digest <checkpoint> [bench] [reps]");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let (ckpt, bench, reps) = match args {
        [ckpt] => (ckpt, "b17", 3),
        [ckpt, bench] => (ckpt, bench.as_str(), 3),
        [ckpt, bench, reps] => {
            let reps = reps
                .parse::<usize>()
                .ok()
                .filter(|&r| r > 0)
                .ok_or_else(|| format!("reps must be a positive integer, got `{reps}`"))?;
            (ckpt, bench.as_str(), reps)
        }
        _ => return Err("expected one to three arguments".into()),
    };
    let model = load_model(ckpt).map_err(|e| format!("{ckpt}: {e}"))?;
    let profile =
        rebert_circuits::profile(bench).ok_or_else(|| format!("unknown profile `{bench}`"))?;
    let netlist = rebert_circuits::generate(&profile, 1).netlist;
    let pairs = survivors(&model, &netlist);
    println!(
        "{bench}: {} bits, {} pairs, checkpoint {}",
        netlist.dffs().len(),
        pairs.len(),
        model.fingerprint_hex()
    );
    for backend in Backend::ALL {
        let mut digest = None;
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t = Instant::now();
            let scores = model.score_pairs_backend(&pairs, 1, backend);
            let us = t.elapsed().as_secs_f64() * 1e6 / pairs.len().max(1) as f64;
            best = best.min(us);
            let mut h = StableHasher::new();
            for s in &scores {
                h.write_u32(s.to_bits());
            }
            if digest.is_some_and(|d| d != h.finish()) {
                return Err(format!("{backend}: two runs scored different bits"));
            }
            digest = Some(h.finish());
        }
        let digest = digest.expect("reps > 0");
        println!("{backend:<10}  digest {digest:016x}  best {best:.1} us/pair");
    }
    Ok(())
}
