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

/// Which of a pass's models compute the same function, as small ids: two
/// models share an id exactly when their networks are equal by
/// [`Sequential::same_function`], which compares every parameter. A model
/// is resolved on first sight and found by pointer afterwards, so a split
/// pass resolves its models once, before it forks, and hands each chunk's
/// cache a copy (see [`InferenceCache::with_ids`]).
#[derive(Debug, Default, Clone)]
pub struct ModelIds<'m> {
    autoencoders: Vec<(&'m Autoencoder, usize)>,
    classifiers: Vec<(&'m Sequential, usize)>,
}

/// The id of `model` in `ids`, resolving and recording it on first sight.
/// A new function's id is its own index, so each resolution compares
/// against one model per distinct function.
fn resolve<'m, M>(ids: &mut Vec<(&'m M, usize)>, model: &'m M, same: fn(&M, &M) -> bool) -> usize {
    if let Some(&(_, id)) = ids.iter().find(|(m, _)| std::ptr::eq(*m, model)) {
        return id;
    }
    let id = ids
        .iter()
        .enumerate()
        .find(|&(i, &(m, id))| id == i && same(m, model))
        .map_or(ids.len(), |(i, _)| i);
    ids.push((model, id));
    id
}

impl<'m> ModelIds<'m> {
    /// No models resolved yet.
    pub fn new() -> Self {
        ModelIds::default()
    }

    /// The id of `ae`'s reconstruction function. Loss and corruption
    /// settings only affect training, not [`Autoencoder::reconstruct`], so
    /// only the wrapped network counts.
    pub fn autoencoder(&mut self, ae: &'m Autoencoder) -> usize {
        resolve(&mut self.autoencoders, ae, |a, b| {
            a.network().same_function(b.network())
        })
    }

    /// The id of `net`'s function.
    pub fn classifier(&mut self, net: &'m Sequential) -> usize {
        resolve(&mut self.classifiers, net, Sequential::same_function)
    }
}

/// Memoises auto-encoder reconstructions and classifier logits within one
/// defense pass.
///
/// Entries are stored in small vectors and matched linearly: a defense
/// deploys a handful of models and each pass touches a handful of distinct
/// inputs, so the scan is a few tensor compares — noise next to a conv
/// forward pass. Entries are keyed by [`ModelIds`], so a lookup compares
/// parameters only for a model the cache has not seen before.
#[derive(Debug, Default)]
pub struct InferenceCache<'m> {
    ids: ModelIds<'m>,
    recons: Vec<(usize, Tensor, Tensor)>,
    logits: Vec<(usize, Tensor, Tensor)>,
    hits: usize,
    misses: usize,
    /// Keep no entries (see [`InferenceCache::unshared`]).
    unshared: bool,
}

impl<'m> InferenceCache<'m> {
    /// An empty cache for one defense pass.
    pub fn new() -> Self {
        InferenceCache::default()
    }

    /// An empty cache whose models are already resolved in `ids`.
    pub fn with_ids(ids: ModelIds<'m>) -> Self {
        InferenceCache {
            ids,
            ..InferenceCache::default()
        }
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
        let id = self.ids.autoencoder(ae);
        if let Some((_, _, out)) = self
            .recons
            .iter()
            .find(|(m, input, _)| *m == id && input == x)
        {
            self.hits += 1;
            return Ok(out.clone());
        }
        let out = ae.reconstruct(x)?;
        self.misses += 1;
        if !self.unshared {
            self.recons.push((id, x.clone(), out.clone()));
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
        let id = self.ids.classifier(net);
        if let Some((_, _, out)) = self
            .logits
            .iter()
            .find(|(m, input, _)| *m == id && input == x)
        {
            self.hits += 1;
            return Ok(out.clone());
        }
        let out = net.infer(x)?;
        self.misses += 1;
        if !self.unshared {
            self.logits.push((id, x.clone(), out.clone()));
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
    fn model_ids_match_clones_and_tell_different_weights_apart() {
        let ae = toy_ae(1);
        let twin = ae.clone();
        let other = toy_ae(2);
        let clf = Sequential::from_specs(&mnist_classifier(8, 1, 2, 4, 8, 10), 3).unwrap();
        let clf_twin = clf.clone();
        let clf_other = Sequential::from_specs(&mnist_classifier(8, 1, 2, 4, 8, 10), 4).unwrap();
        let mut ids = ModelIds::new();
        let a = ids.autoencoder(&ae);
        assert_eq!(ids.autoencoder(&twin), a);
        assert_ne!(ids.autoencoder(&other), a);
        assert_eq!(ids.autoencoder(&ae), a);
        let c = ids.classifier(&clf);
        assert_eq!(ids.classifier(&clf_twin), c);
        assert_ne!(ids.classifier(&clf_other), c);
    }

    /// Hits and misses of a fixed sequence of lookups through `cache`.
    fn replay<'m>(
        mut cache: InferenceCache<'m>,
        [ae, twin, other]: [&'m Autoencoder; 3],
        [clf, clf_twin]: [&'m Sequential; 2],
    ) -> (usize, usize) {
        let (x, y) = (toy_batch(2, 0), toy_batch(2, 5));
        let r = cache.reconstruction(ae, &x).unwrap();
        cache.reconstruction(twin, &x).unwrap();
        cache.reconstruction(other, &x).unwrap();
        cache.reconstruction(ae, &y).unwrap();
        cache.logits(clf, &x).unwrap();
        cache.logits(clf_twin, &x).unwrap();
        cache.logits(clf_twin, &r).unwrap();
        (cache.hits(), cache.misses())
    }

    #[test]
    fn a_cache_over_resolved_ids_counts_as_a_fresh_one() {
        let (ae, other) = (toy_ae(1), toy_ae(2));
        let twin = ae.clone();
        let clf = Sequential::from_specs(&mnist_classifier(8, 1, 2, 4, 8, 10), 3).unwrap();
        let clf_twin = clf.clone();
        let mut ids = ModelIds::new();
        ids.autoencoder(&ae);
        ids.autoencoder(&twin);
        ids.classifier(&clf);
        let aes = [&ae, &twin, &other];
        let clfs = [&clf, &clf_twin];
        assert_eq!(replay(InferenceCache::with_ids(ids), aes, clfs), (2, 5));
        assert_eq!(replay(InferenceCache::new(), aes, clfs), (2, 5));
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
