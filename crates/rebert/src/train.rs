//! Training loop for the pairwise classifier.

use std::borrow::Cow;

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use rebert_nn::{Adam, Backend, Forward, GradAccumulator};
use rebert_obs as obs;
use rebert_tensor::Tensor;

use crate::dataset::PairSample;
use crate::model::ReBertModel;

/// Training hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Samples per optimizer step (gradients are averaged).
    pub batch_size: usize,
    /// Shuffling seed.
    pub seed: u64,
    /// Decoupled weight decay.
    pub weight_decay: f32,
    /// Linear learning-rate warmup over this fraction of total steps
    /// (post-norm BERT is unstable without it); `0.0` disables warmup.
    pub warmup_frac: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 3,
            lr: 3e-4,
            batch_size: 16,
            seed: 0,
            weight_decay: 0.01,
            warmup_frac: 0.1,
        }
    }
}

/// Per-epoch training telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean BCE loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Training-set accuracy after the final epoch.
    pub final_accuracy: f64,
    /// Number of training samples used.
    pub samples: usize,
}

/// Trains `model` in place on `samples`.
///
/// Runs one forward/backward per sample (sequences have heterogeneous
/// lengths), accumulating gradients over `batch_size` samples per Adam
/// step. Returns per-epoch telemetry.
///
/// # Examples
///
/// ```no_run
/// use rebert::{train, ReBertConfig, ReBertModel, TrainConfig};
///
/// let mut model = ReBertModel::new(ReBertConfig::small(), 0);
/// let samples = Vec::new(); // see rebert::training_samples
/// let report = train(&mut model, &samples, &TrainConfig::default());
/// println!("final accuracy {:.3}", report.final_accuracy);
/// ```
pub fn train(model: &mut ReBertModel, samples: &[PairSample], cfg: &TrainConfig) -> TrainReport {
    let mut root = obs::span_with(
        obs::Level::Info,
        "train",
        "train",
        vec![
            ("samples", samples.len().into()),
            ("epochs", cfg.epochs.into()),
        ],
    );
    let mut rng = ChaCha20Rng::seed_from_u64(cfg.seed);
    let mut adam = Adam::with_weight_decay(cfg.lr, cfg.weight_decay);
    let mut order: Vec<usize> = (0..samples.len()).collect();
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);

    let steps_per_epoch = samples.len().div_ceil(cfg.batch_size.max(1));
    let total_steps = (steps_per_epoch * cfg.epochs).max(1);
    let warmup_steps = ((total_steps as f32) * cfg.warmup_frac).ceil() as usize;
    let mut step = 0usize;

    for epoch in 0..cfg.epochs {
        let mut sp_epoch = obs::span_with(
            obs::Level::Info,
            "train",
            "epoch",
            vec![("epoch", epoch.into())],
        );
        let epoch_start = std::time::Instant::now();
        order.shuffle(&mut rng);
        let mut total_loss = 0.0f64;
        for chunk in order.chunks(cfg.batch_size.max(1)) {
            step += 1;
            adam.lr = if warmup_steps > 0 && step <= warmup_steps {
                cfg.lr * step as f32 / warmup_steps as f32
            } else {
                cfg.lr
            };
            let mut acc = GradAccumulator::new();
            let mut step_loss = 0.0f64;
            for &si in chunk {
                let sample = &samples[si];
                let target = if sample.label { 1.0 } else { 0.0 };
                let mut fwd = Forward::new(model.store());
                let z = model.logit_on(&mut fwd, &sample.seq);
                let loss = fwd.tape.bce_with_logits(z, Tensor::from_rows(&[&[target]]));
                step_loss += fwd.tape.value(loss).data()[0] as f64;
                let grads = fwd.tape.backward(loss);
                acc.add(fwd.param_grads(&grads));
            }
            total_loss += step_loss;
            let mean = acc.mean();
            adam.step(model.store_mut(), &mean);
            obs::event_with(
                obs::Level::Trace,
                "train",
                "step",
                vec![
                    ("step", step.into()),
                    ("loss", (step_loss / chunk.len().max(1) as f64).into()),
                    ("lr", f64::from(adam.lr).into()),
                ],
            );
        }
        let epoch_loss = if samples.is_empty() {
            0.0
        } else {
            (total_loss / samples.len() as f64) as f32
        };
        epoch_losses.push(epoch_loss);
        let secs = epoch_start.elapsed().as_secs_f64();
        sp_epoch.add_field("loss", epoch_loss);
        sp_epoch.add_field(
            "samples_per_sec",
            samples.len() as f64 / secs.max(f64::MIN_POSITIVE),
        );
        sp_epoch.end();
    }

    let final_accuracy = accuracy(model, samples);
    root.add_field("final_accuracy", final_accuracy);
    root.end();
    TrainReport {
        epoch_losses,
        final_accuracy,
        samples: samples.len(),
    }
}

/// Fraction of samples classified correctly at threshold 0.5.
///
/// Evaluates on the tape-free batched scalar engine across all
/// available cores, reading each sample's sequence in place; the scores
/// are bit-identical to serial [`ReBertModel::predict`].
pub fn accuracy(model: &ReBertModel, samples: &[PairSample]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let scores = model
        .score_ctx(
            samples,
            |s| Cow::Borrowed(&s.seq),
            0,
            None,
            Backend::F32Scalar,
        )
        .expect("uncancellable scoring always completes");
    let correct = samples
        .iter()
        .zip(&scores)
        .filter(|(s, &p)| (p >= 0.5) == s.label)
        .count();
    correct as f64 / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ReBertConfig;
    use crate::token::{PairSequence, Token};
    use rebert_netlist::GateType;

    /// A synthetic, trivially separable task: positives are AND-dominated
    /// pairs, negatives are OR-dominated pairs.
    fn toy_samples(cfg: &ReBertConfig, n_each: usize) -> Vec<PairSample> {
        let mk = |g: GateType, label: bool, idx: usize| {
            let toks = vec![Token::Gate(g), Token::X, Token::X];
            let codes = vec![vec![0.0; cfg.code_width]; 3];
            PairSample {
                seq: PairSequence::build(&toks, &codes, &toks, &codes, cfg.code_width, cfg.max_seq),
                label,
                circuit: "toy".into(),
                bits: (idx, idx + 1),
            }
        };
        let mut v = Vec::new();
        for i in 0..n_each {
            v.push(mk(GateType::And, true, i));
            v.push(mk(GateType::Or, false, i));
        }
        v
    }

    #[test]
    fn learns_separable_toy_task() {
        let cfg = ReBertConfig::tiny();
        let mut model = ReBertModel::new(cfg.clone(), 1);
        let samples = toy_samples(&cfg, 8);
        let tcfg = TrainConfig {
            epochs: 12,
            lr: 2e-3,
            batch_size: 4,
            seed: 0,
            weight_decay: 0.0,
            warmup_frac: 0.1,
        };
        let report = train(&mut model, &samples, &tcfg);
        assert_eq!(report.epoch_losses.len(), 12);
        assert!(
            report.final_accuracy > 0.9,
            "accuracy {} too low (losses {:?})",
            report.final_accuracy,
            report.epoch_losses
        );
        // Loss should broadly decrease.
        let first = report.epoch_losses[0];
        let last = *report.epoch_losses.last().unwrap();
        assert!(last < first, "loss {first} -> {last}");
    }

    #[test]
    fn training_emits_epoch_spans_with_losses() {
        use rebert_obs::{Kind, Level, Record, Sink, Value};
        use std::sync::Arc;

        let cfg = ReBertConfig::tiny();
        let mut model = ReBertModel::new(cfg.clone(), 2);
        let samples = toy_samples(&cfg, 5);
        let tcfg = TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        };

        // The dispatcher is process-global, so concurrently running tests
        // dispatch into this sink too. It keeps only this thread's
        // records and turns the others away before its lock, so no other
        // test's record can crowd out or collide with an epoch record. (A
        // request-id ring would not do: span `End` records carry no
        // context fields.)
        struct ThisThread(u64, rebert_sync::Mutex<Vec<Record>>);
        impl Sink for ThisThread {
            fn record(&self, rec: &Record) {
                if rec.thread == self.0 {
                    self.1.lock().push(rec.clone());
                }
            }
            fn max_level(&self) -> Level {
                Level::Trace
            }
        }
        let records = rebert_sync::Mutex::new(Vec::new(), "train.tests.records");
        let kept = Arc::new(ThisThread(rebert_obs::thread_id(), records));
        let sink = rebert_obs::install(kept.clone());
        let report = train(&mut model, &samples, &tcfg);
        rebert_obs::uninstall(sink);
        let records = std::mem::take(&mut *kept.1.lock());

        let root = records
            .iter()
            .find(|r| {
                r.kind == Kind::Begin
                    && r.name == "train"
                    && r.fields.contains(&("samples", Value::U64(10)))
            })
            .expect("root train span");
        let epochs: Vec<_> = records
            .iter()
            .filter(|r| r.kind == Kind::Begin && r.name == "epoch" && r.parent == root.span)
            .collect();
        assert_eq!(epochs.len(), 2, "one span per epoch");
        for (i, e) in epochs.iter().enumerate() {
            let end = records
                .iter()
                .find(|r| r.kind == Kind::End && r.span == e.span)
                .expect("epoch span closes");
            assert!(
                end.fields
                    .contains(&("loss", Value::F64(f64::from(report.epoch_losses[i])))),
                "epoch {i} End must carry the reported loss; got {:?}",
                end.fields
            );
            assert!(
                end.fields.iter().any(|(k, _)| *k == "samples_per_sec"),
                "epoch {i} End must carry throughput"
            );
        }
        // Per-step loss events flow at trace level under the epochs.
        let steps = records
            .iter()
            .filter(|r| r.name == "step" && epochs.iter().any(|e| e.span == r.span))
            .count();
        assert_eq!(
            steps,
            2 * 10usize.div_ceil(tcfg.batch_size),
            "one step event per optimizer step"
        );
    }

    #[test]
    fn empty_training_set_is_safe() {
        let cfg = ReBertConfig::tiny();
        let mut model = ReBertModel::new(cfg, 1);
        let report = train(&mut model, &[], &TrainConfig::default());
        assert_eq!(report.samples, 0);
        assert_eq!(report.final_accuracy, 0.0);
    }

    #[test]
    fn accuracy_bounds() {
        let cfg = ReBertConfig::tiny();
        let model = ReBertModel::new(cfg.clone(), 1);
        let samples = toy_samples(&cfg, 3);
        let acc = accuracy(&model, &samples);
        assert!((0.0..=1.0).contains(&acc));
    }
}
