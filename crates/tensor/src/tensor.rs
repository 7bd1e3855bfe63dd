//! The dense `f32` tensor type.

use crate::Shape;
use std::fmt;

/// A dense, contiguous, row-major `f32` tensor of rank 1–3.
///
/// `Tensor` is a plain value type: cloning copies the buffer. All model code
/// in the workspace funnels its numerical state through this type, so the
/// invariant `data.len() == shape.numel()` is enforced by every constructor.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// Builds a tensor from raw data.
    ///
    /// # Panics
    /// Panics if `data.len() != shape.numel()`.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {shape}",
            data.len()
        );
        Tensor { data, shape }
    }

    /// All-zeros tensor.
    pub fn zeros(shape: Shape) -> Self {
        Tensor { data: vec![0.0; shape.numel()], shape }
    }

    /// All-ones tensor.
    pub fn ones(shape: Shape) -> Self {
        Self::full(shape, 1.0)
    }

    /// Tensor filled with `value`.
    pub fn full(shape: Shape, value: f32) -> Self {
        Tensor { data: vec![value; shape.numel()], shape }
    }

    /// Rank-1 tensor wrapping `data`.
    pub fn vector(data: Vec<f32>) -> Self {
        let n = data.len();
        Self::from_vec(Shape::d1(n), data)
    }

    /// A single-element rank-1 tensor (used for scalar losses).
    pub fn scalar(v: f32) -> Self {
        Self::from_vec(Shape::d1(1), vec![v])
    }

    /// The tensor's shape.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the underlying buffer (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at `[r, c]` of a rank-2 tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not rank 2 or indices are out of bounds.
    pub fn at2(&self, r: usize, c: usize) -> f32 {
        assert_eq!(self.shape.rank(), 2, "at2 on rank-{} tensor", self.shape.rank());
        let (rows, cols) = (self.shape.dim(0), self.shape.dim(1));
        assert!(r < rows && c < cols, "index ({r},{c}) out of bounds for {}", self.shape);
        self.data[r * cols + c]
    }

    /// Element at `[b, r, c]` of a rank-3 tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not rank 3 or indices are out of bounds.
    pub fn at3(&self, b: usize, r: usize, c: usize) -> f32 {
        assert_eq!(self.shape.rank(), 3, "at3 on rank-{} tensor", self.shape.rank());
        let (bs, rows, cols) = (self.shape.dim(0), self.shape.dim(1), self.shape.dim(2));
        assert!(
            b < bs && r < rows && c < cols,
            "index ({b},{r},{c}) out of bounds for {}",
            self.shape
        );
        self.data[(b * rows + r) * cols + c]
    }

    /// Returns a tensor with the same data but a different shape.
    ///
    /// # Panics
    /// Panics if `numel` differs.
    pub fn reshaped(&self, shape: Shape) -> Tensor {
        assert_eq!(self.numel(), shape.numel(), "cannot reshape {} into {shape}", self.shape);
        Tensor { data: self.data.clone(), shape }
    }

    /// Applies `f` elementwise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { data: self.data.iter().map(|&x| f(x)).collect(), shape: self.shape }
    }

    /// Combines two same-shaped tensors elementwise.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert!(
            self.shape.same(&other.shape),
            "zip shape mismatch: {} vs {}",
            self.shape,
            other.shape
        );
        Tensor {
            data: self.data.iter().zip(other.data.iter()).map(|(&a, &b)| f(a, b)).collect(),
            shape: self.shape,
        }
    }

    /// Sum of all elements (f64 accumulator for stability).
    pub fn sum(&self) -> f32 {
        self.data.iter().map(|&x| x as f64).sum::<f64>() as f32
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum absolute element (0 for empty tensors).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// `true` if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Row `r` of a rank-2 tensor as a slice.
    ///
    /// # Panics
    /// Panics if the tensor is not rank 2 or `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        assert_eq!(self.shape.rank(), 2, "row() on rank-{} tensor", self.shape.rank());
        let cols = self.shape.dim(1);
        assert!(r < self.shape.dim(0), "row {r} out of bounds for {}", self.shape);
        &self.data[r * cols..(r + 1) * cols]
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        const LIMIT: usize = 8;
        if self.data.len() <= LIMIT {
            write!(f, "{:?}", self.data)
        } else {
            write!(f, "{:?}…", &self.data[..LIMIT])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_invariants() {
        let t = Tensor::zeros(Shape::d2(2, 3));
        assert_eq!(t.numel(), 6);
        assert!(t.data().iter().all(|&x| x == 0.0));
        let t = Tensor::full(Shape::d1(4), 2.5);
        assert!(t.data().iter().all(|&x| x == 2.5));
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_rejects_bad_len() {
        let _ = Tensor::from_vec(Shape::d2(2, 2), vec![1.0; 3]);
    }

    #[test]
    fn indexing() {
        let t = Tensor::from_vec(Shape::d2(2, 3), (0..6).map(|x| x as f32).collect());
        assert_eq!(t.at2(0, 0), 0.0);
        assert_eq!(t.at2(1, 2), 5.0);
        let t = Tensor::from_vec(Shape::d3(2, 2, 2), (0..8).map(|x| x as f32).collect());
        assert_eq!(t.at3(1, 1, 0), 6.0);
        assert_eq!(t.at3(0, 1, 1), 3.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(Shape::d2(2, 3), (0..6).map(|x| x as f32).collect());
        let r = t.reshaped(Shape::d3(1, 2, 3));
        assert_eq!(r.data(), t.data());
        assert_eq!(r.shape(), Shape::d3(1, 2, 3));
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn reshape_rejects_numel_mismatch() {
        let _ = Tensor::zeros(Shape::d1(5)).reshaped(Shape::d2(2, 3));
    }

    #[test]
    fn map_zip_sum_mean() {
        let a = Tensor::vector(vec![1.0, 2.0, 3.0]);
        let b = Tensor::vector(vec![10.0, 20.0, 30.0]);
        assert_eq!(a.map(|x| x * 2.0).data(), &[2.0, 4.0, 6.0]);
        assert_eq!(a.zip(&b, |x, y| x + y).data(), &[11.0, 22.0, 33.0]);
        assert_eq!(a.sum(), 6.0);
        assert!((a.mean() - 2.0).abs() < 1e-6);
        assert_eq!(b.max_abs(), 30.0);
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros(Shape::d1(3));
        assert!(!t.has_non_finite());
        t.data_mut()[1] = f32::NAN;
        assert!(t.has_non_finite());
    }

    #[test]
    fn row_slices() {
        let t = Tensor::from_vec(Shape::d2(2, 3), (0..6).map(|x| x as f32).collect());
        assert_eq!(t.row(0), &[0.0, 1.0, 2.0]);
        assert_eq!(t.row(1), &[3.0, 4.0, 5.0]);
    }
}
