use std::fmt;

/// A validated list of tensor dimensions.
///
/// `Shape` is row-major: the last dimension varies fastest in the underlying
/// buffer. The empty shape `[]` denotes a scalar with volume 1.
///
/// # Example
///
/// ```
/// use adv_tensor::Shape;
///
/// let s = Shape::new(vec![2, 3, 4]);
/// assert_eq!(s.volume(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from a dimension list.
    pub fn new(dims: Vec<usize>) -> Self {
        Shape(dims)
    }

    /// Shorthand for a rank-1 shape `[n]`.
    pub fn vector(n: usize) -> Self {
        Shape(vec![n])
    }

    /// Shorthand for a rank-2 shape `[rows, cols]`.
    pub fn matrix(rows: usize, cols: usize) -> Self {
        Shape(vec![rows, cols])
    }

    /// Shorthand for an NCHW image batch shape `[n, c, h, w]`.
    pub fn nchw(n: usize, c: usize, h: usize, w: usize) -> Self {
        Shape(vec![n, c, h, w])
    }

    /// The dimensions as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (product of dimensions; 1 for a scalar).
    pub fn volume(&self) -> usize {
        self.0.iter().product()
    }

    /// Size of dimension `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= self.rank()`.
    pub fn dim(&self, axis: usize) -> usize {
        self.0[axis]
    }

    /// Row-major strides for this shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Flat row-major offset of a multi-index, or `None` if any coordinate is
    /// out of bounds or the rank differs.
    pub fn offset(&self, index: &[usize]) -> Option<usize> {
        if index.len() != self.0.len() {
            return None;
        }
        let mut off = 0usize;
        let strides = self.strides();
        for (i, (&ix, &dim)) in index.iter().zip(self.0.iter()).enumerate() {
            if ix >= dim {
                return None;
            }
            off += ix * strides[i];
        }
        Some(off)
    }

    /// `true` when the shape has no zero-sized dimension.
    pub fn is_nonempty(&self) -> bool {
        self.0.iter().all(|&d| d > 0)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape(dims.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_of_scalar_is_one() {
        assert_eq!(Shape::new(vec![]).volume(), 1);
    }

    #[test]
    fn volume_is_product() {
        assert_eq!(Shape::new(vec![2, 3, 4]).volume(), 24);
        assert_eq!(Shape::new(vec![5]).volume(), 5);
        assert_eq!(Shape::new(vec![7, 0, 3]).volume(), 0);
    }

    #[test]
    fn strides_are_row_major() {
        assert_eq!(Shape::new(vec![2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(vec![6]).strides(), vec![1]);
        assert!(Shape::new(vec![]).strides().is_empty());
    }

    #[test]
    fn offset_matches_manual_computation() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.offset(&[0, 0, 0]), Some(0));
        assert_eq!(s.offset(&[1, 2, 3]), Some(23));
        assert_eq!(s.offset(&[1, 0, 2]), Some(14));
    }

    #[test]
    fn offset_rejects_out_of_bounds() {
        let s = Shape::new(vec![2, 3]);
        assert_eq!(s.offset(&[2, 0]), None);
        assert_eq!(s.offset(&[0, 3]), None);
        assert_eq!(s.offset(&[0]), None);
    }

    #[test]
    fn nchw_constructor() {
        let s = Shape::nchw(8, 3, 16, 16);
        assert_eq!(s.dims(), &[8, 3, 16, 16]);
        assert_eq!(s.volume(), 8 * 3 * 16 * 16);
    }

    #[test]
    fn conversion_from_array() {
        let s: Shape = [2, 2].into();
        assert_eq!(s, Shape::matrix(2, 2));
    }

    #[test]
    fn display_renders_dims() {
        assert_eq!(Shape::new(vec![1, 2]).to_string(), "[1, 2]");
    }

    #[test]
    fn nonempty_detection() {
        assert!(Shape::new(vec![1, 2]).is_nonempty());
        assert!(!Shape::new(vec![1, 0]).is_nonempty());
        assert!(Shape::new(vec![]).is_nonempty());
    }
}
