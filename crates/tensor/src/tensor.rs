use crate::math;
use crate::ops::isa::Isa;
use crate::{Result, Shape, TensorError};
use adv_profile::{KernelKind, KernelScope, Work};
use std::fmt;

/// A dense, row-major, `f32` n-dimensional array.
///
/// `Tensor` owns its buffer (`Vec<f32>`) and carries a [`Shape`]. All binary
/// operations are *fallible* and return [`TensorError::ShapeMismatch`] rather
/// than panicking, so shape bugs surface as values at the call site.
///
/// Image batches use NCHW layout throughout the workspace.
///
/// # Example
///
/// ```
/// use adv_tensor::{Tensor, Shape};
///
/// let x = Tensor::from_vec(vec![1.0, -2.0, 3.0], Shape::vector(3))?;
/// let y = x.map(|v| v.max(0.0)); // ReLU
/// assert_eq!(y.as_slice(), &[1.0, 0.0, 3.0]);
/// # Ok::<(), adv_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    // ---------------------------------------------------------------- ctors

    /// Creates a tensor from a data buffer and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `data.len()` differs from
    /// `shape.volume()`.
    pub fn from_vec(data: Vec<f32>, shape: Shape) -> Result<Self> {
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Tensor { data, shape })
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: Shape, value: f32) -> Self {
        Tensor {
            data: vec![value; shape.volume()],
            shape,
        }
    }

    /// Creates a zero tensor.
    pub fn zeros(shape: Shape) -> Self {
        Self::full(shape, 0.0)
    }

    /// Creates a tensor of ones.
    pub fn ones(shape: Shape) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a rank-0 scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            data: vec![value],
            shape: Shape::new(vec![]),
        }
    }

    /// Creates a tensor by evaluating `f` at each flat (row-major) index.
    pub fn from_fn(shape: Shape, mut f: impl FnMut(usize) -> f32) -> Self {
        let n = shape.volume();
        let mut data = Vec::with_capacity(n);
        for i in 0..n {
            data.push(f(i));
        }
        Tensor { data, shape }
    }

    // ------------------------------------------------------------ accessors

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying buffer, row-major.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying buffer, row-major.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a multi-index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] when the index is invalid for
    /// this shape.
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        let off = self
            .shape
            .offset(index)
            .ok_or(TensorError::IndexOutOfBounds {
                index: index.first().copied().unwrap_or(0),
                bound: self.shape.dims().first().copied().unwrap_or(0),
            })?;
        Ok(self.data[off])
    }

    /// Sets the element at a multi-index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] when the index is invalid.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self
            .shape
            .offset(index)
            .ok_or(TensorError::IndexOutOfBounds {
                index: index.first().copied().unwrap_or(0),
                bound: self.shape.dims().first().copied().unwrap_or(0),
            })?;
        self.data[off] = value;
        Ok(())
    }

    // --------------------------------------------------------- shape moves

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the volumes differ.
    pub fn reshape(&self, shape: Shape) -> Result<Tensor> {
        Tensor::from_vec(self.data.clone(), shape)
    }

    /// Consuming variant of [`reshape`](Self::reshape); avoids the copy.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the volumes differ.
    pub fn into_reshaped(self, shape: Shape) -> Result<Tensor> {
        Tensor::from_vec(self.data, shape)
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] when `self` is not rank 2.
    pub fn transpose(&self) -> Result<Tensor> {
        if self.shape.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.shape.rank(),
            });
        }
        let (r, c) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = vec![0.0f32; r * c];
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = self.data[i * c + j];
            }
        }
        Tensor::from_vec(out, Shape::matrix(c, r))
    }

    /// Extracts item `i` along axis 0 (e.g. one image from an NCHW batch).
    ///
    /// The result has the remaining dimensions; a rank-1 input yields a
    /// scalar.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] when `i` exceeds the batch
    /// size and [`TensorError::RankMismatch`] for rank-0 tensors.
    pub fn index_axis0(&self, i: usize) -> Result<Tensor> {
        if self.shape.rank() == 0 {
            return Err(TensorError::RankMismatch {
                expected: 1,
                actual: 0,
            });
        }
        let n = self.shape.dim(0);
        if i >= n {
            return Err(TensorError::IndexOutOfBounds { index: i, bound: n });
        }
        let item = self.shape.volume() / n;
        let dims = self.shape.dims()[1..].to_vec();
        let _prof = KernelScope::enter(KernelKind::Memcpy, || Work::copy(item));
        // lint-ok(no-alloc-in-kernel): the output allocation is the measured
        // copy itself — there is no way to hoist it without copying twice
        let data = self.data[i * item..(i + 1) * item].to_vec();
        Tensor::from_vec(data, Shape::new(dims))
    }

    /// Copies items `start..end` along axis 0 into a batch of their own.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] unless `start <= end <=`
    /// the batch size, and [`TensorError::RankMismatch`] for rank-0
    /// tensors.
    pub fn slice_axis0(&self, start: usize, end: usize) -> Result<Tensor> {
        if self.shape.rank() == 0 {
            return Err(TensorError::RankMismatch {
                expected: 1,
                actual: 0,
            });
        }
        let n = self.shape.dim(0);
        if start > end || end > n {
            return Err(TensorError::IndexOutOfBounds {
                index: start.max(end),
                bound: n,
            });
        }
        let item = self.shape.volume() / n.max(1);
        let mut dims = self.shape.dims().to_vec();
        dims[0] = end - start;
        // Allocate before entering the kernel scope: the measured region is
        // the copy alone.
        let rows = &self.data[start * item..end * item];
        let mut data = Vec::with_capacity(rows.len());
        let _prof = KernelScope::enter(KernelKind::Memcpy, || Work::copy(rows.len()));
        data.extend_from_slice(rows);
        Tensor::from_vec(data, Shape::new(dims))
    }

    /// Overwrites item `i` along axis 0 with `src`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] when `i` exceeds the batch
    /// size, and [`TensorError::ShapeMismatch`] when `src` does not have the
    /// per-item shape.
    pub fn set_axis0(&mut self, i: usize, src: &Tensor) -> Result<()> {
        let n = self.shape.dim(0);
        if i >= n {
            return Err(TensorError::IndexOutOfBounds { index: i, bound: n });
        }
        let item = self.shape.volume() / n;
        if src.len() != item || src.shape.dims() != &self.shape.dims()[1..] {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.dims()[1..].to_vec(),
                right: src.shape.dims().to_vec(),
            });
        }
        self.data[i * item..(i + 1) * item].copy_from_slice(src.as_slice());
        Ok(())
    }

    /// Stacks tensors of identical shape along a new leading axis.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for an empty input and
    /// [`TensorError::ShapeMismatch`] when items disagree in shape.
    pub fn stack(items: &[Tensor]) -> Result<Tensor> {
        let first = items
            .first()
            .ok_or_else(|| TensorError::InvalidArgument("stack of zero tensors".into()))?;
        // Validate and allocate before entering the kernel scope: the
        // measured region is the copy alone.
        for t in items {
            if t.shape != first.shape {
                return Err(TensorError::ShapeMismatch {
                    left: first.shape.dims().to_vec(),
                    right: t.shape.dims().to_vec(),
                });
            }
        }
        let mut data = Vec::with_capacity(first.len() * items.len());
        let mut dims = vec![items.len()];
        dims.extend_from_slice(first.shape.dims());
        let _prof =
            KernelScope::enter(KernelKind::Memcpy, || Work::copy(first.len() * items.len()));
        for t in items {
            data.extend_from_slice(t.as_slice());
        }
        Tensor::from_vec(data, Shape::new(dims))
    }

    /// Concatenates tensors along axis 0 (batch axis).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for an empty input and
    /// [`TensorError::ShapeMismatch`] when trailing dimensions disagree.
    pub fn concat0(items: &[Tensor]) -> Result<Tensor> {
        let first = items
            .first()
            .ok_or_else(|| TensorError::InvalidArgument("concat of zero tensors".into()))?;
        if first.shape.rank() == 0 {
            return Err(TensorError::RankMismatch {
                expected: 1,
                actual: 0,
            });
        }
        let tail = &first.shape.dims()[1..];
        // Validate and allocate before entering the kernel scope: the
        // measured region is the copy alone.
        let mut n = 0usize;
        for t in items {
            if t.shape.rank() != first.shape.rank() || &t.shape.dims()[1..] != tail {
                return Err(TensorError::ShapeMismatch {
                    left: first.shape.dims().to_vec(),
                    right: t.shape.dims().to_vec(),
                });
            }
            n += t.shape.dim(0);
        }
        let total: usize = items.iter().map(Tensor::len).sum();
        let mut data = Vec::with_capacity(total);
        let mut dims = vec![n];
        dims.extend_from_slice(tail);
        let _prof = KernelScope::enter(KernelKind::Memcpy, || Work::copy(total));
        for t in items {
            data.extend_from_slice(t.as_slice());
        }
        Tensor::from_vec(data, Shape::new(dims))
    }

    // ---------------------------------------------------------- elementwise

    fn check_same_shape(&self, other: &Tensor) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.dims().to_vec(),
                right: other.shape.dims().to_vec(),
            });
        }
        Ok(())
    }

    /// Elementwise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference `self - other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, |a, b| a * b)
    }

    /// Multiplies every element by `k`.
    pub fn scale(&self, k: f32) -> Tensor {
        self.map(|v| v * k)
    }

    /// Adds `k` to every element.
    pub fn add_scalar(&self, k: f32) -> Tensor {
        self.map(|v| v + k)
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Tensor {
        self.map(|v| -v)
    }

    /// Clamps every element to `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|v| v.clamp(lo, hi))
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let shape = self.shape.clone();
        let _prof = KernelScope::enter(KernelKind::Elementwise, || Work::map(self.data.len()));
        Tensor {
            data: self.data.iter().map(|&v| f(v)).collect(),
            shape,
        }
    }

    /// The logistic sigmoid of every element, [`math::sigmoid`] run as a
    /// vectorized kernel: the same bits as mapping it one element at a time.
    pub fn sigmoid(&self) -> Tensor {
        let shape = self.shape.clone();
        let _prof = KernelScope::enter(KernelKind::Elementwise, || Work::map(self.data.len()));
        let mut data = vec![0.0; self.data.len()];
        math::sigmoid_into(Isa::detected(), &self.data, &mut data);
        Tensor { data, shape }
    }

    /// Combines two same-shape tensors elementwise with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        self.check_same_shape(other)?;
        let shape = self.shape.clone();
        let _prof = KernelScope::enter(KernelKind::Elementwise, || Work::zip(self.data.len()));
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Tensor { data, shape })
    }

    /// In-place `self += k * other` (axpy). Hot path for optimizers and
    /// attack iterations.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add_scaled_assign(&mut self, other: &Tensor, k: f32) -> Result<()> {
        self.check_same_shape(other)?;
        let _prof = KernelScope::enter(KernelKind::Elementwise, || Work::zip(self.data.len()));
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += k * b;
        }
        Ok(())
    }

    /// In-place `self += other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        self.add_scaled_assign(other, 1.0)
    }

    /// In-place `self *= k`.
    pub fn scale_assign(&mut self, k: f32) {
        let _prof = KernelScope::enter(KernelKind::Elementwise, || Work::map(self.data.len()));
        for v in &mut self.data {
            *v *= k;
        }
    }

    /// Fills the tensor with `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    // ----------------------------------------------------------- reductions

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        let _prof = KernelScope::enter(KernelKind::Reduction, || Work::reduce(self.data.len()));
        // Kahan summation keeps reductions stable for the long, small-valued
        // buffers produced by image batches.
        let mut sum = 0.0f32;
        let mut comp = 0.0f32;
        for &v in &self.data {
            let y = v - comp;
            let t = sum + y;
            comp = (t - sum) - y;
            sum = t;
        }
        sum
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (−∞ for an empty tensor).
    pub fn max(&self) -> f32 {
        let _prof = KernelScope::enter(KernelKind::Reduction, || Work::reduce(self.data.len()));
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (+∞ for an empty tensor).
    pub fn min(&self) -> f32 {
        let _prof = KernelScope::enter(KernelKind::Reduction, || Work::reduce(self.data.len()));
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum element (first occurrence), or `None` when empty.
    pub fn argmax(&self) -> Option<usize> {
        let mut best: Option<(usize, f32)> = None;
        for (i, &v) in self.data.iter().enumerate() {
            match best {
                Some((_, bv)) if v <= bv => {}
                _ => best = Some((i, v)),
            }
        }
        best.map(|(i, _)| i)
    }

    /// Per-row argmax of a rank-2 tensor (e.g. predicted class per example).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] when `self` is not rank 2.
    pub fn argmax_rows(&self) -> Result<Vec<usize>> {
        if self.shape.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.shape.rank(),
            });
        }
        let (r, c) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = Vec::with_capacity(r);
        let _prof = KernelScope::enter(KernelKind::Reduction, || Work::reduce(self.data.len()));
        for i in 0..r {
            let row = &self.data[i * c..(i + 1) * c];
            let mut best = 0usize;
            for (j, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = j;
                }
            }
            // lint-ok(no-alloc-in-kernel): pre-sized with_capacity(r) above — push never reallocates
            out.push(best);
        }
        Ok(out)
    }

    /// Dot product of two same-shape tensors viewed as flat vectors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn dot(&self, other: &Tensor) -> Result<f32> {
        self.check_same_shape(other)?;
        let _prof = KernelScope::enter(KernelKind::Reduction, || Work::reduce(self.data.len()));
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| a * b)
            .sum())
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const PREVIEW: usize = 8;
        write!(f, "Tensor{} [", self.shape)?;
        for (i, v) in self.data.iter().take(PREVIEW).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        if self.data.len() > PREVIEW {
            write!(f, ", …({} total)", self.data.len())?;
        }
        write!(f, "]")
    }
}

impl std::ops::Neg for &Tensor {
    type Output = Tensor;

    fn neg(self) -> Tensor {
        Tensor::neg(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), Shape::new(dims.to_vec())).unwrap()
    }

    #[test]
    fn from_vec_validates_length() {
        let err = Tensor::from_vec(vec![1.0, 2.0], Shape::matrix(2, 2)).unwrap_err();
        assert_eq!(
            err,
            TensorError::LengthMismatch {
                expected: 4,
                actual: 2
            }
        );
    }

    #[test]
    fn elementwise_ops() {
        let a = t(&[1.0, 2.0, 3.0], &[3]);
        let b = t(&[4.0, 5.0, 6.0], &[3]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    fn shape_mismatch_is_an_error_not_a_panic() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[1.0, 2.0], &[2, 1]);
        assert!(matches!(a.add(&b), Err(TensorError::ShapeMismatch { .. })));
    }

    #[test]
    fn scale_and_clamp() {
        let a = t(&[-1.0, 0.5, 2.0], &[3]);
        assert_eq!(a.scale(2.0).as_slice(), &[-2.0, 1.0, 4.0]);
        assert_eq!(a.clamp(0.0, 1.0).as_slice(), &[0.0, 0.5, 1.0]);
    }

    #[test]
    fn reductions() {
        let a = t(&[1.0, -2.0, 3.0, 0.0], &[2, 2]);
        assert_eq!(a.sum(), 2.0);
        assert_eq!(a.mean(), 0.5);
        assert_eq!(a.max(), 3.0);
        assert_eq!(a.min(), -2.0);
        assert_eq!(a.argmax(), Some(2));
    }

    #[test]
    fn argmax_rows_per_example() {
        let a = t(&[0.1, 0.9, 0.0, 0.7, 0.2, 0.1], &[2, 3]);
        assert_eq!(a.argmax_rows().unwrap(), vec![1, 0]);
    }

    #[test]
    fn argmax_rows_requires_rank2() {
        let a = t(&[1.0, 2.0], &[2]);
        assert!(matches!(
            a.argmax_rows(),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn transpose_2x3() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let at = a.transpose().unwrap();
        assert_eq!(at.shape().dims(), &[3, 2]);
        assert_eq!(at.as_slice(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        assert_eq!(a.transpose().unwrap().transpose().unwrap(), a);
    }

    #[test]
    fn index_axis0_extracts_batch_item() {
        let batch = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let item = batch.index_axis0(1).unwrap();
        assert_eq!(item.shape().dims(), &[3]);
        assert_eq!(item.as_slice(), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn set_axis0_replaces_batch_item() {
        let mut batch = Tensor::zeros(Shape::matrix(2, 2));
        batch.set_axis0(1, &t(&[7.0, 8.0], &[2])).unwrap();
        assert_eq!(batch.as_slice(), &[0.0, 0.0, 7.0, 8.0]);
        assert!(batch.set_axis0(2, &t(&[1.0, 1.0], &[2])).is_err());
        assert!(batch.set_axis0(0, &t(&[1.0], &[1])).is_err());
    }

    #[test]
    fn stack_builds_batch() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[3.0, 4.0], &[2]);
        let s = Tensor::stack(&[a, b]).unwrap();
        assert_eq!(s.shape().dims(), &[2, 2]);
        assert_eq!(s.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn stack_rejects_mixed_shapes_and_empty() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[3.0], &[1]);
        assert!(Tensor::stack(&[a, b]).is_err());
        assert!(Tensor::stack(&[]).is_err());
    }

    #[test]
    fn slice_axis0_copies_a_row_range() {
        let t = Tensor::from_fn(Shape::nchw(4, 1, 2, 2), |i| i as f32);
        let mid = t.slice_axis0(1, 3).unwrap();
        assert_eq!(mid.shape().dims(), &[2, 1, 2, 2]);
        assert_eq!(mid.as_slice(), &t.as_slice()[4..12]);
        assert_eq!(t.slice_axis0(0, 4).unwrap(), t);
        assert_eq!(t.slice_axis0(2, 2).unwrap().shape().dim(0), 0);
        assert!(t.slice_axis0(3, 5).is_err());
        assert!(t.slice_axis0(3, 2).is_err());
    }

    /// Every elementwise kernel run on a whole batch equals, bit for bit and
    /// row for row, the kernel run on that row alone. A row holds 75
    /// elements, so a vectorized body with a scalar tail would split the
    /// batch and a lone row at different elements.
    #[test]
    fn elementwise_kernels_are_batch_invariant() {
        let shape = Shape::nchw(5, 3, 5, 5);
        let x = Tensor::from_fn(shape.clone(), |i| ((i * 7919 % 211) as f32 - 105.0) * 0.013);
        let y = Tensor::from_fn(shape, |i| ((i * 104729 % 97) as f32 - 48.0) * 0.021);
        let kernels = |x: &Tensor, y: &Tensor| {
            let mut axpy = x.clone();
            axpy.add_scaled_assign(y, -0.37).unwrap();
            let mut scaled = x.clone();
            scaled.scale_assign(1.7);
            vec![
                x.sigmoid(),
                x.map(math::sigmoid),
                x.map(f32::tanh),
                x.clamp(-0.5, 0.5),
                x.zip_map(y, |a, b| a * b + b).unwrap(),
                axpy,
                scaled,
            ]
        };
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let batch = kernels(&x, &y);
        for r in 0..x.shape().dim(0) {
            let row = |t: &Tensor| t.slice_axis0(r, r + 1).unwrap();
            let alone = kernels(&row(&x), &row(&y));
            for (i, (whole, alone)) in batch.iter().zip(&alone).enumerate() {
                assert_eq!(bits(&row(whole)), bits(alone), "kernel {i}, row {r}");
            }
        }
    }

    #[test]
    fn concat0_joins_batches() {
        let a = t(&[1.0, 2.0], &[1, 2]);
        let b = t(&[3.0, 4.0, 5.0, 6.0], &[2, 2]);
        let c = Tensor::concat0(&[a, b]).unwrap();
        assert_eq!(c.shape().dims(), &[3, 2]);
        assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut a = t(&[1.0, 2.0], &[2]);
        let g = t(&[0.5, -0.5], &[2]);
        a.add_scaled_assign(&g, -2.0).unwrap();
        assert_eq!(a.as_slice(), &[0.0, 3.0]);
    }

    #[test]
    fn get_set_multi_index() {
        let mut a = Tensor::zeros(Shape::new(vec![2, 3, 4]));
        a.set(&[1, 2, 3], 9.0).unwrap();
        assert_eq!(a.get(&[1, 2, 3]).unwrap(), 9.0);
        assert!(a.get(&[2, 0, 0]).is_err());
    }

    #[test]
    fn dot_product() {
        let a = t(&[1.0, 2.0, 3.0], &[3]);
        let b = t(&[4.0, 5.0, 6.0], &[3]);
        assert_eq!(a.dot(&b).unwrap(), 32.0);
    }

    #[test]
    fn display_previews_elements() {
        let a = Tensor::zeros(Shape::vector(20));
        let s = a.to_string();
        assert!(s.contains("(20 total)"));
    }

    #[test]
    fn neg_operator() {
        let a = t(&[1.0, -2.0], &[2]);
        assert_eq!((-&a).as_slice(), &[-1.0, 2.0]);
    }

    #[test]
    fn kahan_sum_is_accurate() {
        // 1e6 values of 0.1 — naive f32 summation drifts noticeably.
        let a = Tensor::full(Shape::vector(1_000_000), 0.1);
        assert!((a.sum() - 100_000.0).abs() < 1.0);
    }
}
