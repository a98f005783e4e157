//! Fused defense inference: per-call memoisation of sub-computations.
//!
//! MagNet's assembled pipelines are internally redundant: the reformer is
//! usually the *same* auto-encoder as one of the reconstruction detectors,
//! and every JSD detector re-runs both that auto-encoder and the protected
//! classifier. Evaluated naively, a Full-scheme pass over a D+JSD MNIST
//! defense runs the shared auto-encoder four times and the classifier five
//! times per batch.
//!
//! [`InferenceCache`] removes that redundancy without changing a single
//! output bit. It memoises `(model, input) → output` pairs for the duration
//! of one defense pass, keyed by **exact** equality: a cached result is
//! reused only when the model computes the same function (identical layer
//! specs and bit-identical parameters, see
//! [`Sequential::same_function`](adv_nn::Sequential::same_function)) *and*
//! the input tensor compares bit-for-bit equal. Since inference is
//! deterministic, a hit returns exactly the tensor the model would have
//! produced — so the pipeline pass gives the results of running each stage
//! on its own, which `adv-magnet`'s tests assert bit for bit.
//!
//! The cache is deliberately scoped to a single call (it borrows the
//! models, holds clones of inputs/outputs, and is dropped at the end), so
//! there is no invalidation problem: recalibrating or retraining between
//! calls can never serve stale tensors.

use crate::autoencoder::Autoencoder;
use crate::Result;
use adv_nn::Sequential;
use adv_tensor::Tensor;

/// Memoises auto-encoder reconstructions and classifier logits within one
/// defense pass.
///
/// Entries are stored in small vectors and matched linearly: a defense
/// deploys a handful of models and each pass touches a handful of distinct
/// inputs, so the scan is a few tensor compares — noise next to a conv
/// forward pass. Model identity uses pointer equality as a fast path before
/// falling back to the exact functional comparison.
#[derive(Debug, Default)]
pub struct InferenceCache<'m> {
    recons: Vec<(&'m Autoencoder, Tensor, Tensor)>,
    logits: Vec<(&'m Sequential, Tensor, Tensor)>,
    hits: usize,
    misses: usize,
    /// Keep no entries (see [`InferenceCache::unshared`]).
    unshared: bool,
}

/// `true` when the two auto-encoders reconstruct identically: same wrapped
/// network function. Loss and corruption settings only affect training, not
/// [`Autoencoder::reconstruct`], so they are ignored.
fn same_reconstruction(a: &Autoencoder, b: &Autoencoder) -> bool {
    std::ptr::eq(a, b) || a.network().same_function(b.network())
}

fn same_classifier(a: &Sequential, b: &Sequential) -> bool {
    std::ptr::eq(a, b) || a.same_function(b)
}

impl<'m> InferenceCache<'m> {
    /// An empty cache for one defense pass.
    pub fn new() -> Self {
        InferenceCache::default()
    }

    /// A cache that keeps nothing, so every request runs its network. For
    /// one detector scoring on its own, whose sub-computations never
    /// repeat, memoising would only copy tensors.
    pub fn unshared() -> Self {
        InferenceCache {
            unshared: true,
            ..InferenceCache::default()
        }
    }

    /// `AE(x)`, computed at most once per distinct `(auto-encoder, x)`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the auto-encoder on a miss.
    pub fn reconstruction(&mut self, ae: &'m Autoencoder, x: &Tensor) -> Result<Tensor> {
        if let Some((_, _, out)) = self
            .recons
            .iter()
            .find(|(m, input, _)| input == x && same_reconstruction(m, ae))
        {
            self.hits += 1;
            return Ok(out.clone());
        }
        let out = ae.reconstruct(x)?;
        self.misses += 1;
        if !self.unshared {
            self.recons.push((ae, x.clone(), out.clone()));
        }
        Ok(out)
    }

    /// `classifier(x)` logits, computed at most once per distinct
    /// `(classifier, x)`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the classifier on a miss.
    pub fn logits(&mut self, net: &'m Sequential, x: &Tensor) -> Result<Tensor> {
        if let Some((_, _, out)) = self
            .logits
            .iter()
            .find(|(m, input, _)| input == x && same_classifier(m, net))
        {
            self.hits += 1;
            return Ok(out.clone());
        }
        let out = net.infer(x)?;
        self.misses += 1;
        if !self.unshared {
            self.logits.push((net, x.clone(), out.clone()));
        }
        Ok(out)
    }

    /// Number of sub-computations answered from the cache.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Number of sub-computations that actually ran a network.
    pub fn misses(&self) -> usize {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{mnist_ae_two, mnist_classifier};
    use adv_nn::loss::ReconstructionLoss;
    use adv_tensor::Shape;

    fn toy_ae(seed: u64) -> Autoencoder {
        Autoencoder::new(
            &mnist_ae_two(1, 3),
            ReconstructionLoss::MeanSquaredError,
            0.0,
            seed,
        )
        .unwrap()
    }

    fn toy_batch(n: usize, offset: usize) -> Tensor {
        Tensor::from_fn(Shape::nchw(n, 1, 8, 8), |i| {
            ((i + offset) % 17) as f32 / 17.0
        })
    }

    #[test]
    fn reconstruction_hits_on_same_model_and_input() {
        let ae = toy_ae(1);
        let x = toy_batch(2, 0);
        let mut cache = InferenceCache::new();
        let a = cache.reconstruction(&ae, &x).unwrap();
        let b = cache.reconstruction(&ae, &x).unwrap();
        assert_eq!(a, b);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn unshared_cache_recomputes_and_keeps_nothing() {
        let ae = toy_ae(1);
        let x = toy_batch(2, 0);
        let mut cache = InferenceCache::unshared();
        let a = cache.reconstruction(&ae, &x).unwrap();
        let b = cache.reconstruction(&ae, &x).unwrap();
        assert_eq!(a, b);
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
    }

    #[test]
    fn reconstruction_hits_across_clones_of_the_same_model() {
        // The defense assembly clones one AE into detector and reformer
        // roles; the cache must see through the clone.
        let ae = toy_ae(1);
        let twin = ae.clone();
        let x = toy_batch(2, 0);
        let mut cache = InferenceCache::new();
        let a = cache.reconstruction(&ae, &x).unwrap();
        let b = cache.reconstruction(&twin, &x).unwrap();
        assert_eq!(a, b);
        assert_eq!(cache.hits(), 1);
        assert_eq!(a, twin.reconstruct(&x).unwrap());
    }

    #[test]
    fn reconstruction_misses_on_different_weights_or_input() {
        let ae = toy_ae(1);
        let other = toy_ae(2);
        let x = toy_batch(2, 0);
        let mut cache = InferenceCache::new();
        cache.reconstruction(&ae, &x).unwrap();
        cache.reconstruction(&other, &x).unwrap();
        cache.reconstruction(&ae, &toy_batch(2, 5)).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 3));
    }

    #[test]
    fn logits_hit_only_on_functionally_equal_classifiers() {
        let clf = Sequential::from_specs(&mnist_classifier(8, 1, 2, 4, 8, 10), 3).unwrap();
        let twin = clf.clone();
        let other = Sequential::from_specs(&mnist_classifier(8, 1, 2, 4, 8, 10), 4).unwrap();
        let x = toy_batch(3, 0);
        let mut cache = InferenceCache::new();
        let a = cache.logits(&clf, &x).unwrap();
        let b = cache.logits(&twin, &x).unwrap();
        assert_eq!(a, b);
        assert_eq!(cache.hits(), 1);
        cache.logits(&other, &x).unwrap();
        assert_eq!(cache.misses(), 2);
    }
}
