use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense, contiguous, row-major `f32` tensor.
///
/// Shapes are dynamic (`Vec<usize>`); all layers in this crate work
/// with 2-D (`[batch, features]`) or 4-D (`[batch, channels, h, w]`)
/// tensors. Data is always contiguous, which keeps the convolution and
/// GEMM kernels simple and fast.
///
/// # Example
///
/// ```
/// use nn::Tensor;
///
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// assert_eq!(t.shape(), &[2, 2]);
/// assert_eq!(t.data()[2], 3.0);
/// let u = t.map(|v| v * 2.0);
/// assert_eq!(u.data()[3], 8.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

/// The default tensor is empty (no shape, no data). It exists so
/// scratch structs can `#[derive(Default)]` a parked tensor that is
/// later grown in place via [`Tensor::refill_from`] /
/// [`Tensor::resize`]; most tensor methods are meaningless on it.
impl Default for Tensor {
    fn default() -> Self {
        Tensor { shape: Vec::new(), data: Vec::new() }
    }
}

impl Tensor {
    /// Tensor of zeros with the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or has a zero dimension.
    #[must_use]
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor::full(shape, 0.0)
    }

    /// Tensor filled with `value`.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or has a zero dimension.
    #[must_use]
    pub fn full(shape: &[usize], value: f32) -> Self {
        let numel = checked_numel(shape);
        Tensor { shape: shape.to_vec(), data: vec![value; numel] }
    }

    /// Tensor from existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the shape's element count.
    #[must_use]
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let numel = checked_numel(shape);
        assert_eq!(data.len(), numel, "data length {} != shape product {}", data.len(), numel);
        Tensor { shape: shape.to_vec(), data }
    }

    /// Tensor of i.i.d. zero-mean Gaussians with standard deviation
    /// `std` (Box–Muller).
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or has a zero dimension.
    #[must_use]
    pub fn randn<R: Rng + ?Sized>(shape: &[usize], std: f32, rng: &mut R) -> Self {
        let numel = checked_numel(shape);
        let mut data = Vec::with_capacity(numel);
        while data.len() < numel {
            let u1: f32 = rng.gen::<f32>().max(f32::MIN_POSITIVE);
            let u2: f32 = rng.gen();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < numel {
                data.push(r * theta.sin() * std);
            }
        }
        Tensor { shape: shape.to_vec(), data }
    }

    /// The tensor's shape.
    #[must_use]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[must_use]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the underlying data (row-major).
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the tensor, returning its data buffer.
    #[must_use]
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Reinterpret the data with a new shape of equal element count.
    ///
    /// # Panics
    ///
    /// Panics if the new shape's element count differs.
    #[must_use]
    pub fn reshaped(&self, shape: &[usize]) -> Tensor {
        let numel = checked_numel(shape);
        assert_eq!(
            numel,
            self.data.len(),
            "reshape {:?} -> {:?} changes element count",
            self.shape,
            shape
        );
        Tensor { shape: shape.to_vec(), data: self.data.clone() }
    }

    /// Fill every element with `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.iter_mut().for_each(|v| *v = value);
    }

    /// Make `self` an exact copy of `other`, reusing the existing data
    /// buffer when its capacity suffices. This is the hot-path
    /// alternative to `clone()`: layer caches and staging tensors call
    /// it every batch, and once warmed to the largest shape seen it
    /// performs no allocation.
    pub fn refill_from(&mut self, other: &Tensor) {
        self.shape.clear();
        self.shape.extend_from_slice(&other.shape);
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Change the shape in place, reusing the data buffer when its
    /// capacity suffices. Existing elements are **not** reset — the
    /// caller is expected to overwrite every slot (staging tensors
    /// refilled each batch); elements exposed by growth start at 0.0.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or has a zero dimension.
    pub fn resize(&mut self, shape: &[usize]) {
        let numel = checked_numel(shape);
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        self.data.resize(numel, 0.0);
    }

    /// New tensor with `f` applied elementwise.
    #[must_use]
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor { shape: self.shape.clone(), data: self.data.iter().map(|&v| f(v)).collect() }
    }

    /// Elementwise sum of two tensors of identical shape.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[must_use]
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "add shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a + b).collect();
        Tensor { shape: self.shape.clone(), data }
    }

    /// Multiply every element by `scale` in place.
    pub fn scale(&mut self, scale: f32) {
        self.data.iter_mut().for_each(|v| *v *= scale);
    }

    /// Sum of all elements.
    #[must_use]
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an impossible empty tensor).
    #[must_use]
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Whether every element is finite.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

fn checked_numel(shape: &[usize]) -> usize {
    assert!(!shape.is_empty(), "tensor shape must have at least one dimension");
    assert!(shape.iter().all(|&d| d > 0), "tensor dimensions must be non-zero: {shape:?}");
    shape.iter().product()
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.numel(), 6);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.data()[2], 3.0);
        assert_eq!(t.data()[3], 4.0);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_validates_length() {
        let _ = Tensor::from_vec(vec![1.0; 5], &[2, 3]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_rejected() {
        let _ = Tensor::zeros(&[2, 0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[2, 3, 4]);
        let r = t.reshaped(&[6, 4]);
        assert_eq!(r.shape(), &[6, 4]);
        assert_eq!(r.data(), t.data());
    }

    #[test]
    #[should_panic(expected = "changes element count")]
    fn reshape_rejects_bad_count() {
        let t = Tensor::zeros(&[2, 3]);
        let _ = t.reshaped(&[4, 2]);
    }

    #[test]
    fn randn_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::randn(&[100, 100], 2.0, &mut rng);
        let mean = t.mean();
        let var = t.data().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / t.numel() as f32;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn refill_from_copies_and_reuses_buffer() {
        let src = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let mut dst = Tensor::zeros(&[4, 4]);
        let ptr = dst.data().as_ptr();
        dst.refill_from(&src);
        assert_eq!(dst.shape(), &[2, 2]);
        assert_eq!(dst.data(), src.data());
        assert_eq!(dst.data().as_ptr(), ptr, "smaller refill must reuse the buffer");
    }

    #[test]
    fn scale_multiplies_in_place() {
        let mut a = Tensor::full(&[4], 2.0);
        a.scale(3.0);
        assert_eq!(a.data(), &[6.0; 4]);
    }

    #[test]
    fn map_and_reductions() {
        let t = Tensor::from_vec(vec![-1.0, 2.0, -3.0], &[3]);
        assert_eq!(t.map(f32::abs).sum(), 6.0);
        assert!((t.mean() - (-2.0 / 3.0)).abs() < 1e-6);
        assert!(t.is_finite());
        assert!(!t.map(|v| v / 0.0).is_finite());
    }
}
