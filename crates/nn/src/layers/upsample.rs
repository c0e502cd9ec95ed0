use serde::{Deserialize, Serialize};

use crate::{Layer, Tensor};

/// Nearest-neighbour upsampling by an integer factor.
///
/// The auto-encoder decoder mirrors the encoder's 2×2 max-pool with a
/// factor-2 upsample (the paper replaces "maxpooling" with
/// "upsampling" in the mirrored decoder).
///
/// # Example
///
/// ```
/// use nn::{layers::Upsample2d, Layer, Tensor};
///
/// let mut up = Upsample2d::new(2);
/// let y = up.forward(&Tensor::from_vec(vec![1.0], &[1, 1, 1, 1]));
/// assert_eq!(y.shape(), &[1, 1, 2, 2]);
/// assert_eq!(y.data(), &[1.0, 1.0, 1.0, 1.0]);
/// ```
#[derive(Debug, Serialize, Deserialize)]
pub struct Upsample2d {
    factor: usize,
    #[serde(skip)]
    input_shape: Option<[usize; 4]>,
}

impl Upsample2d {
    /// New upsampling layer with the given integer scale factor.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    #[must_use]
    pub fn new(factor: usize) -> Self {
        assert!(factor > 0, "upsample factor must be non-zero");
        Upsample2d { factor, input_shape: None }
    }
}

impl Layer for Upsample2d {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let out = self.infer(input);
        let shape = input.shape();
        self.input_shape = Some([shape[0], shape[1], shape[2], shape[3]]);
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        let shape = input.shape();
        assert_eq!(shape.len(), 4, "Upsample2d expects [N, C, H, W]");
        let [n, c, h, w] = [shape[0], shape[1], shape[2], shape[3]];
        let f = self.factor;
        let mut out = Tensor::zeros(&[n, c, h * f, w * f]);
        let src = input.data();
        let dst = out.data_mut();
        let (oh, ow) = (h * f, w * f);
        for nc in 0..n * c {
            let src_plane = &src[nc * h * w..(nc + 1) * h * w];
            let dst_plane = &mut dst[nc * oh * ow..(nc + 1) * oh * ow];
            for oy in 0..oh {
                let sy = oy / f;
                for ox in 0..ow {
                    dst_plane[oy * ow + ox] = src_plane[sy * w + ox / f];
                }
            }
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let [n, c, h, w] = self.input_shape.expect("backward before forward");
        let f = self.factor;
        assert_eq!(grad_output.shape(), &[n, c, h * f, w * f], "bad grad shape for Upsample2d");
        let mut grad_input = Tensor::zeros(&[n, c, h, w]);
        let src = grad_output.data();
        let dst = grad_input.data_mut();
        let (oh, ow) = (h * f, w * f);
        for nc in 0..n * c {
            let src_plane = &src[nc * oh * ow..(nc + 1) * oh * ow];
            let dst_plane = &mut dst[nc * h * w..(nc + 1) * h * w];
            for oy in 0..oh {
                let sy = oy / f;
                for ox in 0..ow {
                    dst_plane[sy * w + ox / f] += src_plane[oy * ow + ox];
                }
            }
        }
        grad_input
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upsample_replicates_pixels() {
        let mut up = Upsample2d::new(2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let y = up.forward(&x);
        #[rustfmt::skip]
        let expect = vec![
            1.0, 1.0, 2.0, 2.0,
            1.0, 1.0, 2.0, 2.0,
            3.0, 3.0, 4.0, 4.0,
            3.0, 3.0, 4.0, 4.0,
        ];
        assert_eq!(y.data(), expect.as_slice());
    }

    #[test]
    fn backward_sums_window_gradients() {
        let mut up = Upsample2d::new(2);
        let x = Tensor::from_vec(vec![1.0], &[1, 1, 1, 1]);
        let _ = up.forward(&x);
        let g = up.backward(&Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]));
        assert_eq!(g.data(), &[10.0]);
    }

    #[test]
    fn factor_one_is_identity() {
        let mut up = Upsample2d::new(1);
        let x = Tensor::from_vec(vec![5.0, 6.0], &[1, 1, 1, 2]);
        let y = up.forward(&x);
        assert_eq!(y.data(), x.data());
    }
}
