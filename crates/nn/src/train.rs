//! Minibatch training loop.
//!
//! The trainer is deliberately small: shuffle, batch, forward, loss,
//! backward, optimizer step — with per-epoch statistics returned to the
//! caller. Everything is seeded, so a `(architecture, data, seed)` triple
//! always produces the same model.

use crate::checkpoint::{self, CheckpointCfg, TrainCheckpoint};
use crate::loss::{accuracy, softmax_cross_entropy_smoothed, ReconstructionLoss};
use crate::optim::Optimizer;
use crate::{Mode, NnError, Result, Sequential};
use adv_profile::StageScope;
use adv_tensor::{Shape, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Cached `adv-profile` handles for one training loop, resolved once so the
/// per-batch path never touches the registry map. `None` when metrics are
/// disabled; recording never perturbs the numerics (it only reads clocks
/// and bumps atomics).
struct TrainObs {
    loss: std::sync::Arc<adv_profile::Gauge>,
    accuracy: std::sync::Arc<adv_profile::Gauge>,
    epochs: std::sync::Arc<adv_profile::Counter>,
    batches: std::sync::Arc<adv_profile::Counter>,
    epoch_ns: std::sync::Arc<adv_profile::Histogram>,
    batch_ns: std::sync::Arc<adv_profile::Histogram>,
}

impl TrainObs {
    /// `kind` is `"classifier"` or `"autoencoder"`.
    fn resolve(kind: &str) -> Option<TrainObs> {
        if !adv_profile::metrics_enabled() {
            return None;
        }
        let r = adv_profile::global();
        Some(TrainObs {
            loss: r.gauge(&format!("train.{kind}.loss")),
            accuracy: r.gauge(&format!("train.{kind}.accuracy")),
            epochs: r.counter(&format!("train.{kind}.epochs")),
            batches: r.counter(&format!("train.{kind}.batches")),
            epoch_ns: r.histogram(&format!("train.{kind}.epoch_ns")),
            batch_ns: r.histogram(&format!("train.{kind}.batch_ns")),
        })
    }

    fn record_batch(&self, started: Instant) {
        self.batches.incr();
        self.batch_ns.record_duration(started.elapsed());
    }

    fn record_epoch(&self, started: Instant, loss: f32, accuracy: Option<f32>) {
        self.epochs.incr();
        self.epoch_ns.record_duration(started.elapsed());
        self.loss.set(loss as f64);
        if let Some(acc) = accuracy {
            self.accuracy.set(acc as f64);
        }
    }
}

/// Hyperparameters of a training run.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the data.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Seed for shuffling (and noise injection, when enabled).
    pub seed: u64,
    /// Label-smoothing ε for classification (0.0 = plain cross-entropy).
    /// Smoothing caps logit margins, keeping confidence-κ sweeps meaningful.
    pub label_smoothing: f32,
    /// When `true`, prints one line per epoch to stderr.
    pub verbose: bool,
    /// When set, the loop saves a resumable checkpoint (model + optimizer
    /// state + history) every [`CheckpointCfg::every`] epochs and, on the
    /// next call with a matching configuration, resumes from it instead of
    /// retraining — bit-identically, because each epoch's RNG is derived
    /// from `(seed, epoch)` rather than threaded across epochs.
    pub checkpoint: Option<CheckpointCfg>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 5,
            batch_size: 64,
            seed: 0,
            label_smoothing: 0.0,
            verbose: false,
            checkpoint: None,
        }
    }
}

/// The RNG for one epoch, derived from `(seed, epoch)` with a splitmix64
/// finalizer. Keying by epoch (instead of advancing one RNG across epochs)
/// is what makes a checkpoint's "resume at epoch k" equal to the RNG
/// position of an uninterrupted run.
fn epoch_rng(seed: u64, epoch: usize) -> StdRng {
    let mut z = seed
        ^ (epoch as u64)
            .wrapping_add(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// Tries to resume a checkpointed run: restores the model, optimizer state
/// and history, and returns the epoch to continue from. Any mismatch
/// (architecture, digest, corrupt file) falls back to a fresh start —
/// checkpoints accelerate, they never gate.
fn try_resume(
    net: &mut Sequential,
    opt: &mut dyn Optimizer,
    cfg: &TrainConfig,
    digest: u64,
) -> Result<(usize, Vec<EpochStats>)> {
    let Some(ck) = &cfg.checkpoint else {
        return Ok((0, Vec::new()));
    };
    let Some(saved) = checkpoint::load_matching(&ck.path, digest)? else {
        return Ok((0, Vec::new()));
    };
    let Ok(restored) = crate::serialize::model_from_bytes(&saved.model) else {
        return Ok((0, Vec::new()));
    };
    if restored.specs() != net.specs() || opt.restore_state(&saved.optimizer).is_err() {
        return Ok((0, Vec::new()));
    }
    *net = restored;
    let start = saved.epochs_done.min(cfg.epochs);
    let mut history = saved.history;
    history.truncate(start);
    if start > 0 {
        adv_profile::count(adv_store::metric_names::RESUMES, 1);
        if cfg.verbose {
            eprintln!("resumed from checkpoint at epoch {start}");
        }
    }
    Ok((start, history))
}

/// Saves a checkpoint when the cadence (or the final epoch) says so.
fn maybe_checkpoint(
    net: &Sequential,
    opt: &dyn Optimizer,
    cfg: &TrainConfig,
    digest: u64,
    epochs_done: usize,
    history: &[EpochStats],
) -> Result<()> {
    let Some(ck) = &cfg.checkpoint else {
        return Ok(());
    };
    if !epochs_done.is_multiple_of(ck.every.max(1)) && epochs_done != cfg.epochs {
        return Ok(());
    }
    checkpoint::save(
        &ck.path,
        &TrainCheckpoint {
            digest,
            epochs_done,
            model: crate::serialize::model_to_bytes(net),
            optimizer: opt.state_bytes(),
            history: history.to_vec(),
        },
    )
}

/// Statistics of one training epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean minibatch loss.
    pub loss: f32,
    /// Training accuracy (classification runs only).
    pub accuracy: Option<f32>,
}

/// Gathers rows `indices` of a batched tensor into a new batch.
///
/// # Errors
///
/// Returns an index error when any index exceeds the batch size.
pub fn gather0(x: &Tensor, indices: &[usize]) -> Result<Tensor> {
    if x.shape().rank() == 0 {
        return Err(NnError::Tensor(adv_tensor::TensorError::RankMismatch {
            expected: 1,
            actual: 0,
        }));
    }
    let n = x.shape().dim(0);
    let item = x.shape().volume() / n.max(1);
    let mut data = Vec::with_capacity(indices.len() * item);
    for &i in indices {
        if i >= n {
            return Err(NnError::Tensor(adv_tensor::TensorError::IndexOutOfBounds {
                index: i,
                bound: n,
            }));
        }
        data.extend_from_slice(&x.as_slice()[i * item..(i + 1) * item]);
    }
    let mut dims = vec![indices.len()];
    dims.extend_from_slice(&x.shape().dims()[1..]);
    Tensor::from_vec(data, Shape::new(dims)).map_err(NnError::Tensor)
}

fn check_nonempty(x: &Tensor, cfg: &TrainConfig) -> Result<usize> {
    if cfg.batch_size == 0 {
        return Err(NnError::InvalidArgument("batch_size must be > 0".into()));
    }
    let n = x.shape().dim(0);
    if n == 0 {
        return Err(NnError::InvalidArgument("empty training set".into()));
    }
    Ok(n)
}

/// Trains a classifier with softmax cross-entropy.
///
/// # Errors
///
/// Returns shape errors from the network, label errors from the loss, and
/// [`NnError::InvalidArgument`] for degenerate configs.
pub fn fit_classifier(
    net: &mut Sequential,
    opt: &mut dyn Optimizer,
    x: &Tensor,
    labels: &[usize],
    cfg: &TrainConfig,
) -> Result<Vec<EpochStats>> {
    let n = check_nonempty(x, cfg)?;
    if labels.len() != n {
        return Err(NnError::Tensor(adv_tensor::TensorError::LengthMismatch {
            expected: n,
            actual: labels.len(),
        }));
    }
    let obs = TrainObs::resolve("classifier");
    // Config fingerprint for checkpoint matching; the epoch count is
    // deliberately excluded so extending a run resumes instead of restarts.
    let mut digest_words = vec![
        1u64, // classifier
        cfg.batch_size as u64,
        cfg.seed,
        cfg.label_smoothing.to_bits() as u64,
        n as u64,
    ];
    digest_words.extend(x.shape().dims().iter().map(|&d| d as u64));
    let digest = checkpoint::digest_parts(&digest_words);
    let (start_epoch, mut history) = try_resume(net, opt, cfg, digest)?;
    let mut order: Vec<usize> = (0..n).collect();
    history.reserve(cfg.epochs.saturating_sub(history.len()));
    for epoch in start_epoch..cfg.epochs {
        let _epoch_span = StageScope::enter("train/epoch");
        #[expect(
            clippy::disallowed_methods,
            reason = "per-epoch wall time feeds EpochStats, part of the training-history API returned to callers."
        )]
        let epoch_start = Instant::now();
        let mut rng = epoch_rng(cfg.seed, epoch);
        // Reset to the identity permutation so the epoch's order depends
        // only on (seed, epoch) — a resumed run must see the same shuffle
        // an uninterrupted one would.
        for (i, slot) in order.iter_mut().enumerate() {
            *slot = i;
        }
        order.shuffle(&mut rng);
        let mut loss_sum = 0.0f32;
        let mut acc_sum = 0.0f32;
        let mut batches = 0usize;
        for chunk in order.chunks(cfg.batch_size) {
            let _batch_span = StageScope::enter("train/batch");
            #[expect(
                clippy::disallowed_methods,
                reason = "batch timing feeds the same EpochStats throughput numbers; measuring it is the feature."
            )]
            let batch_start = Instant::now();
            let xb = gather0(x, chunk)?;
            let yb: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
            let logits = net.forward(&xb, Mode::Train)?;
            let (loss, grad) = softmax_cross_entropy_smoothed(&logits, &yb, cfg.label_smoothing)?;
            acc_sum += accuracy(&logits, &yb)?;
            net.backward(&grad)?;
            opt.step(&mut net.params_mut())?;
            loss_sum += loss;
            batches += 1;
            if let Some(obs) = &obs {
                obs.record_batch(batch_start);
            }
        }
        let stats = EpochStats {
            epoch,
            loss: loss_sum / batches as f32,
            accuracy: Some(acc_sum / batches as f32),
        };
        if let Some(obs) = &obs {
            obs.record_epoch(epoch_start, stats.loss, stats.accuracy);
        }
        if cfg.verbose {
            eprintln!(
                "epoch {:>3}: loss {:.4}, acc {:.3}",
                epoch,
                stats.loss,
                stats.accuracy.unwrap_or(0.0)
            );
        }
        history.push(stats);
        maybe_checkpoint(net, &*opt, cfg, digest, epoch + 1, &history)?;
    }
    Ok(history)
}

/// How auto-encoder training inputs are corrupted.
///
/// MagNet trains its auto-encoders to map corrupted inputs back to the clean
/// image; the corruption distribution determines *which* off-manifold
/// deviations the trained map removes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Corruption {
    /// No corruption (a plain auto-encoder).
    None,
    /// Pixel-wise Gaussian noise with the given σ — MagNet's original
    /// scheme; teaches removal of high-frequency deviations.
    Gaussian(f32),
    /// Gaussian noise *plus* a smooth low-frequency random field of the
    /// given σ (a coarse per-channel grid, nearest-upsampled). Teaches the
    /// auto-encoder to also remove *smooth, spread-out* deviations — the
    /// signature of L2-based (C&W-like) adversarial perturbations — while
    /// leaving sparse spikes outside its training distribution.
    GaussianPlusSmooth {
        /// σ of the pixel-wise component.
        gaussian: f32,
        /// σ of the low-frequency field.
        smooth: f32,
    },
}

fn gaussian_sample(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Adds a smooth per-image random field to an NCHW batch in place.
fn add_smooth_field(batch: &mut Tensor, std: f32, rng: &mut StdRng) {
    let dims = batch.shape().dims().to_vec();
    if dims.len() != 4 {
        return; // non-image data: skip the spatial component
    }
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    let (gh, gw) = (h.div_ceil(4).max(1), w.div_ceil(4).max(1));
    let data = batch.as_mut_slice();
    for b in 0..n {
        for ch in 0..c {
            let grid: Vec<f32> = (0..gh * gw).map(|_| std * gaussian_sample(rng)).collect();
            let plane = &mut data[(b * c + ch) * h * w..(b * c + ch + 1) * h * w];
            for y in 0..h {
                for x in 0..w {
                    let g = grid[(y * gh / h).min(gh - 1) * gw + (x * gw / w).min(gw - 1)];
                    let v = &mut plane[y * w + x];
                    *v = (*v + g).clamp(0.0, 1.0);
                }
            }
        }
    }
}

impl Corruption {
    /// Applies the corruption to a clean batch, producing the training input.
    fn apply(self, clean: &Tensor, rng: &mut StdRng) -> Tensor {
        match self {
            Corruption::None => clean.clone(),
            Corruption::Gaussian(std) => {
                let mut noisy = clean.clone();
                for v in noisy.as_mut_slice() {
                    *v = (*v + std * gaussian_sample(rng)).clamp(0.0, 1.0);
                }
                noisy
            }
            Corruption::GaussianPlusSmooth { gaussian, smooth } => {
                let mut noisy = Corruption::Gaussian(gaussian).apply(clean, rng);
                add_smooth_field(&mut noisy, smooth, rng);
                noisy
            }
        }
    }
}

/// Trains an auto-encoder to reconstruct its (optionally noise-corrupted)
/// input.
///
/// MagNet trains its auto-encoders on inputs corrupted with Gaussian noise of
/// standard deviation `noise_std` while targeting the *clean* image — this is
/// what pulls off-manifold points back toward the data manifold. See
/// [`fit_autoencoder_with`] for richer corruption models.
///
/// # Errors
///
/// Returns shape errors from the network and
/// [`NnError::InvalidArgument`] for degenerate configs.
pub fn fit_autoencoder(
    net: &mut Sequential,
    opt: &mut dyn Optimizer,
    x: &Tensor,
    loss_kind: ReconstructionLoss,
    noise_std: f32,
    cfg: &TrainConfig,
) -> Result<Vec<EpochStats>> {
    let corruption = if noise_std > 0.0 {
        Corruption::Gaussian(noise_std)
    } else {
        Corruption::None
    };
    fit_autoencoder_with(net, opt, x, loss_kind, corruption, cfg)
}

/// [`fit_autoencoder`] with an explicit [`Corruption`] model.
///
/// # Errors
///
/// Returns shape errors from the network and
/// [`NnError::InvalidArgument`] for degenerate configs.
pub fn fit_autoencoder_with(
    net: &mut Sequential,
    opt: &mut dyn Optimizer,
    x: &Tensor,
    loss_kind: ReconstructionLoss,
    corruption: Corruption,
    cfg: &TrainConfig,
) -> Result<Vec<EpochStats>> {
    let n = check_nonempty(x, cfg)?;
    let obs = TrainObs::resolve("autoencoder");
    let (loss_tag, corruption_words) = match corruption {
        Corruption::None => (0u64, [0u64, 0]),
        Corruption::Gaussian(s) => (1, [s.to_bits() as u64, 0]),
        Corruption::GaussianPlusSmooth { gaussian, smooth } => {
            (2, [gaussian.to_bits() as u64, smooth.to_bits() as u64])
        }
    };
    let mut digest_words = vec![
        2u64, // autoencoder
        cfg.batch_size as u64,
        cfg.seed,
        match loss_kind {
            ReconstructionLoss::MeanSquaredError => 0,
            ReconstructionLoss::MeanAbsoluteError => 1,
        },
        loss_tag,
        corruption_words[0],
        corruption_words[1],
        n as u64,
    ];
    digest_words.extend(x.shape().dims().iter().map(|&d| d as u64));
    let digest = checkpoint::digest_parts(&digest_words);
    let (start_epoch, mut history) = try_resume(net, opt, cfg, digest)?;
    let mut order: Vec<usize> = (0..n).collect();
    history.reserve(cfg.epochs.saturating_sub(history.len()));
    for epoch in start_epoch..cfg.epochs {
        let _epoch_span = StageScope::enter("train/epoch");
        #[expect(
            clippy::disallowed_methods,
            reason = "per-epoch wall time feeds EpochStats, part of the training-history API returned to callers."
        )]
        let epoch_start = Instant::now();
        let mut rng = epoch_rng(cfg.seed, epoch);
        // Reset to the identity permutation so the epoch's order depends
        // only on (seed, epoch) — a resumed run must see the same shuffle
        // an uninterrupted one would.
        for (i, slot) in order.iter_mut().enumerate() {
            *slot = i;
        }
        order.shuffle(&mut rng);
        let mut loss_sum = 0.0f32;
        let mut batches = 0usize;
        for chunk in order.chunks(cfg.batch_size) {
            let _batch_span = StageScope::enter("train/batch");
            #[expect(
                clippy::disallowed_methods,
                reason = "batch timing feeds the same EpochStats throughput numbers; measuring it is the feature."
            )]
            let batch_start = Instant::now();
            let clean = gather0(x, chunk)?;
            let input = corruption.apply(&clean, &mut rng);
            let recon = net.forward(&input, Mode::Train)?;
            let (loss, grad) = loss_kind.compute(&recon, &clean)?;
            net.backward(&grad)?;
            opt.step(&mut net.params_mut())?;
            loss_sum += loss;
            batches += 1;
            if let Some(obs) = &obs {
                obs.record_batch(batch_start);
            }
        }
        let stats = EpochStats {
            epoch,
            loss: loss_sum / batches as f32,
            accuracy: None,
        };
        if let Some(obs) = &obs {
            obs.record_epoch(epoch_start, stats.loss, stats.accuracy);
        }
        if cfg.verbose {
            eprintln!("epoch {:>3}: recon loss {:.6}", epoch, stats.loss);
        }
        history.push(stats);
        maybe_checkpoint(net, &*opt, cfg, digest, epoch + 1, &history)?;
    }
    Ok(history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Activation;
    use crate::optim::{Adam, Sgd};
    use crate::LayerSpec;

    /// Two linearly separable blobs in 2-D.
    fn blobs(n: usize) -> (Tensor, Vec<usize>) {
        let mut data = Vec::with_capacity(n * 2);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let cls = i % 2;
            let (cx, cy) = if cls == 0 { (-1.0, -1.0) } else { (1.0, 1.0) };
            // Deterministic jitter.
            let jx = ((i * 37 % 17) as f32 / 17.0 - 0.5) * 0.5;
            let jy = ((i * 61 % 13) as f32 / 13.0 - 0.5) * 0.5;
            data.push(cx + jx);
            data.push(cy + jy);
            labels.push(cls);
        }
        (Tensor::from_vec(data, Shape::matrix(n, 2)).unwrap(), labels)
    }

    #[test]
    fn classifier_learns_separable_blobs() {
        let (x, y) = blobs(200);
        let mut net = Sequential::from_specs(
            &[
                LayerSpec::Dense {
                    inputs: 2,
                    outputs: 8,
                },
                LayerSpec::Activation(Activation::Relu),
                LayerSpec::Dense {
                    inputs: 8,
                    outputs: 2,
                },
            ],
            5,
        )
        .unwrap();
        let mut opt = Adam::with_defaults(0.05);
        let cfg = TrainConfig {
            epochs: 20,
            batch_size: 32,
            seed: 1,
            label_smoothing: 0.0,
            verbose: false,
            checkpoint: None,
        };
        let history = fit_classifier(&mut net, &mut opt, &x, &y, &cfg).unwrap();
        let last = history.last().unwrap();
        assert!(
            last.accuracy.unwrap() > 0.95,
            "accuracy {:?}",
            last.accuracy
        );
        assert!(last.loss < history[0].loss);
    }

    #[test]
    fn autoencoder_reduces_reconstruction_error() {
        // Identity-learnable toy data.
        let x = Tensor::from_fn(Shape::matrix(64, 4), |i| ((i * 31) % 10) as f32 / 10.0);
        let mut net = Sequential::from_specs(
            &[
                LayerSpec::Dense {
                    inputs: 4,
                    outputs: 6,
                },
                LayerSpec::Activation(Activation::Sigmoid),
                LayerSpec::Dense {
                    inputs: 6,
                    outputs: 4,
                },
                LayerSpec::Activation(Activation::Sigmoid),
            ],
            3,
        )
        .unwrap();
        let mut opt = Adam::with_defaults(0.02);
        let cfg = TrainConfig {
            epochs: 30,
            batch_size: 16,
            seed: 2,
            label_smoothing: 0.0,
            verbose: false,
            checkpoint: None,
        };
        let history = fit_autoencoder(
            &mut net,
            &mut opt,
            &x,
            ReconstructionLoss::MeanSquaredError,
            0.05,
            &cfg,
        )
        .unwrap();
        assert!(history.last().unwrap().loss < history[0].loss * 0.8);
    }

    #[test]
    fn corruption_none_is_identity() {
        let x = Tensor::from_fn(Shape::nchw(2, 1, 4, 4), |i| (i % 5) as f32 / 5.0);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(Corruption::None.apply(&x, &mut rng), x);
    }

    #[test]
    fn gaussian_corruption_stays_in_box_and_perturbs() {
        // Large enough that the 0.05 mean tolerance sits ~10σ out, so the
        // check is about bias, not the luck of one small seed.
        let x = Tensor::full(Shape::nchw(8, 1, 16, 16), 0.5);
        let mut rng = StdRng::seed_from_u64(2);
        let y = Corruption::Gaussian(0.2).apply(&x, &mut rng);
        assert!(y.min() >= 0.0 && y.max() <= 1.0);
        assert_ne!(y, x);
        // Roughly zero-mean noise.
        assert!((y.mean() - 0.5).abs() < 0.05);
    }

    #[test]
    fn smooth_corruption_is_spatially_correlated() {
        // Neighbouring pixels of the smooth field share coarse-grid cells,
        // so adjacent deltas are more similar than under iid Gaussian noise.
        let x = Tensor::full(Shape::nchw(1, 1, 16, 16), 0.5);
        let mut rng = StdRng::seed_from_u64(3);
        let smooth = Corruption::GaussianPlusSmooth {
            gaussian: 0.0,
            smooth: 0.2,
        }
        .apply(&x, &mut rng);
        let delta = smooth.sub(&x).unwrap();
        let d = delta.as_slice();
        let mut neighbour_diff = 0.0f32;
        let mut pair_count = 0;
        for y in 0..16 {
            for xx in 0..15 {
                neighbour_diff += (d[y * 16 + xx] - d[y * 16 + xx + 1]).abs();
                pair_count += 1;
            }
        }
        let mean_abs: f32 = d.iter().map(|v| v.abs()).sum::<f32>() / 256.0;
        // For iid noise, E|d_i − d_j| ≈ 1.13 · E|d_i| · √2 ≈ 1.6 · mean_abs;
        // smooth fields are far below that.
        let mean_neighbour_diff = neighbour_diff / pair_count as f32;
        assert!(
            mean_neighbour_diff < mean_abs,
            "field not smooth: {mean_neighbour_diff} vs {mean_abs}"
        );
    }

    #[test]
    fn gather0_selects_rows() {
        let x = Tensor::from_fn(Shape::matrix(4, 2), |i| i as f32);
        let g = gather0(&x, &[2, 0]).unwrap();
        assert_eq!(g.as_slice(), &[4.0, 5.0, 0.0, 1.0]);
        assert!(gather0(&x, &[9]).is_err());
    }

    #[test]
    fn degenerate_configs_rejected() {
        let (x, y) = blobs(4);
        let mut net = Sequential::from_specs(
            &[LayerSpec::Dense {
                inputs: 2,
                outputs: 2,
            }],
            0,
        )
        .unwrap();
        let mut opt = Adam::with_defaults(0.01);
        let bad = TrainConfig {
            batch_size: 0,
            ..TrainConfig::default()
        };
        assert!(fit_classifier(&mut net, &mut opt, &x, &y, &bad).is_err());
        let cfg = TrainConfig::default();
        assert!(fit_classifier(&mut net, &mut opt, &x, &y[..2], &cfg).is_err());
    }

    fn blob_net(seed: u64) -> Sequential {
        Sequential::from_specs(
            &[
                LayerSpec::Dense {
                    inputs: 2,
                    outputs: 8,
                },
                LayerSpec::Activation(Activation::Relu),
                LayerSpec::Dense {
                    inputs: 8,
                    outputs: 2,
                },
            ],
            seed,
        )
        .unwrap()
    }

    fn params_of(net: &Sequential) -> Vec<Tensor> {
        net.params().iter().map(|p| p.value.clone()).collect()
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_to_uninterrupted_run() {
        let dir = std::env::temp_dir().join("adv_nn_train_resume_cls");
        std::fs::remove_dir_all(&dir).ok();
        let (x, y) = blobs(60);
        let cfg = |epochs: usize, ckpt: Option<CheckpointCfg>| TrainConfig {
            epochs,
            batch_size: 16,
            seed: 21,
            label_smoothing: 0.0,
            verbose: false,
            checkpoint: ckpt,
        };

        // Uninterrupted 6-epoch run, no checkpointing at all.
        let mut net_a = blob_net(9);
        let mut opt_a = Adam::with_defaults(0.05);
        let hist_a = fit_classifier(&mut net_a, &mut opt_a, &x, &y, &cfg(6, None)).unwrap();

        // "Killed" run: 3 epochs with a checkpoint, then a *fresh* net and
        // optimizer asked for 6 epochs — must resume at 3 and land on the
        // same bits.
        let ck = CheckpointCfg::every_epoch(dir.join("cls.ckpt"));
        let mut net_b = blob_net(9);
        let mut opt_b = Adam::with_defaults(0.05);
        fit_classifier(&mut net_b, &mut opt_b, &x, &y, &cfg(3, Some(ck.clone()))).unwrap();

        let mut net_c = blob_net(9);
        let mut opt_c = Adam::with_defaults(0.05);
        let hist_c = fit_classifier(&mut net_c, &mut opt_c, &x, &y, &cfg(6, Some(ck))).unwrap();

        assert_eq!(params_of(&net_a), params_of(&net_c), "weights diverged");
        assert_eq!(hist_a.len(), hist_c.len());
        for (a, c) in hist_a.iter().zip(&hist_c) {
            assert_eq!(a.epoch, c.epoch);
            assert_eq!(a.loss.to_bits(), c.loss.to_bits(), "epoch {}", a.epoch);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn autoencoder_checkpoint_resume_is_bit_identical() {
        let dir = std::env::temp_dir().join("adv_nn_train_resume_ae");
        std::fs::remove_dir_all(&dir).ok();
        let x = Tensor::from_fn(Shape::matrix(48, 4), |i| ((i * 29) % 11) as f32 / 11.0);
        let ae = || {
            Sequential::from_specs(
                &[
                    LayerSpec::Dense {
                        inputs: 4,
                        outputs: 5,
                    },
                    LayerSpec::Activation(Activation::Sigmoid),
                    LayerSpec::Dense {
                        inputs: 5,
                        outputs: 4,
                    },
                ],
                4,
            )
            .unwrap()
        };
        let cfg = |epochs: usize, ckpt: Option<CheckpointCfg>| TrainConfig {
            epochs,
            batch_size: 16,
            seed: 33,
            label_smoothing: 0.0,
            verbose: false,
            checkpoint: ckpt,
        };
        let mut net_a = ae();
        let mut opt_a = Sgd::new(0.1, 0.9);
        fit_autoencoder(
            &mut net_a,
            &mut opt_a,
            &x,
            ReconstructionLoss::MeanAbsoluteError,
            0.05,
            &cfg(4, None),
        )
        .unwrap();

        let ck = CheckpointCfg::every_epoch(dir.join("ae.ckpt"));
        let mut net_b = ae();
        let mut opt_b = Sgd::new(0.1, 0.9);
        fit_autoencoder(
            &mut net_b,
            &mut opt_b,
            &x,
            ReconstructionLoss::MeanAbsoluteError,
            0.05,
            &cfg(2, Some(ck.clone())),
        )
        .unwrap();
        let mut net_c = ae();
        let mut opt_c = Sgd::new(0.1, 0.9);
        fit_autoencoder(
            &mut net_c,
            &mut opt_c,
            &x,
            ReconstructionLoss::MeanAbsoluteError,
            0.05,
            &cfg(4, Some(ck)),
        )
        .unwrap();
        assert_eq!(params_of(&net_a), params_of(&net_c));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn config_change_ignores_stale_checkpoint() {
        let dir = std::env::temp_dir().join("adv_nn_train_stale_ckpt");
        std::fs::remove_dir_all(&dir).ok();
        let (x, y) = blobs(40);
        let ck = CheckpointCfg::every_epoch(dir.join("cls.ckpt"));
        let mk = |seed: u64| TrainConfig {
            epochs: 2,
            batch_size: 8,
            seed,
            label_smoothing: 0.0,
            verbose: false,
            checkpoint: Some(ck.clone()),
        };
        let mut net = blob_net(1);
        let mut opt = Adam::with_defaults(0.05);
        fit_classifier(&mut net, &mut opt, &x, &y, &mk(1)).unwrap();

        // Different seed ⇒ different digest ⇒ a full 2-epoch retrain, which
        // must match a run that never saw the stale checkpoint.
        let mut net_b = blob_net(1);
        let mut opt_b = Adam::with_defaults(0.05);
        fit_classifier(&mut net_b, &mut opt_b, &x, &y, &mk(2)).unwrap();
        let mut net_c = blob_net(1);
        let mut opt_c = Adam::with_defaults(0.05);
        let cfg_clean = TrainConfig {
            checkpoint: None,
            ..mk(2)
        };
        fit_classifier(&mut net_c, &mut opt_c, &x, &y, &cfg_clean).unwrap();
        assert_eq!(params_of(&net_b), params_of(&net_c));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn training_is_reproducible() {
        let (x, y) = blobs(50);
        let run = || {
            let mut net = Sequential::from_specs(
                &[LayerSpec::Dense {
                    inputs: 2,
                    outputs: 2,
                }],
                7,
            )
            .unwrap();
            let mut opt = Adam::with_defaults(0.01);
            let cfg = TrainConfig {
                epochs: 3,
                batch_size: 16,
                seed: 11,
                label_smoothing: 0.0,
                verbose: false,
                checkpoint: None,
            };
            fit_classifier(&mut net, &mut opt, &x, &y, &cfg).unwrap();
            net.params()[0].value.clone()
        };
        assert_eq!(run(), run());
    }
}
