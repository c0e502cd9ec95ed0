//! Weight initialization schemes.

use rand::Rng;

use crate::Tensor;

/// He (Kaiming) normal initialization: zero-mean Gaussian with
/// `std = sqrt(2 / fan_in)`. The right choice ahead of ReLU
/// activations, used by all conv and hidden linear layers here.
///
/// # Panics
///
/// Panics if `fan_in` is zero.
#[must_use]
pub fn he<R: Rng + ?Sized>(shape: &[usize], fan_in: usize, rng: &mut R) -> Tensor {
    assert!(fan_in > 0, "fan_in must be non-zero");
    Tensor::randn(shape, (2.0 / fan_in as f32).sqrt(), rng)
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;

    #[test]
    fn he_std_scales_with_fan_in() {
        let mut rng = StdRng::seed_from_u64(0);
        let t = he(&[200, 50], 50, &mut rng);
        let mean = t.mean();
        let var = t.data().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / t.numel() as f32;
        let expect = 2.0 / 50.0;
        assert!((var - expect).abs() < expect * 0.2, "var {var}, expect {expect}");
    }
}
