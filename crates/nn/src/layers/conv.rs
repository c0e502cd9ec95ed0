use std::cell::RefCell;

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::gemm::{sgemm, sgemm_nt, sgemm_tn};
use crate::pool::{self, Shards};
use crate::{init, workspace, Layer, Param, Tensor};

/// 2-D convolution (stride 1) via im2col + GEMM.
///
/// Input `[N, C_in, H, W]`, output `[N, C_out, H_out, W_out]` with
/// `H_out = H + 2·pad − k + 1`. The paper's CNN uses "same"-style
/// padding so that only the 2×2 max-pool steps shrink the feature
/// maps; [`Conv2d::same`] picks `pad = k / 2` for odd kernels.
///
/// # Example
///
/// ```
/// use nn::{layers::Conv2d, Layer, Tensor};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut conv = Conv2d::same(1, 8, 5, &mut rng);
/// let y = conv.forward(&Tensor::zeros(&[2, 1, 16, 16]));
/// assert_eq!(y.shape(), &[2, 8, 16, 16]);
/// ```
#[derive(Debug, Serialize, Deserialize)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    pad: usize,
    /// Weight stored `[C_out, C_in * k * k]` for direct GEMM use.
    weight: Param,
    bias: Param,
    #[serde(skip)]
    cache: Option<ConvCache>,
    #[serde(skip)]
    scratch: ConvScratch,
}

thread_local! {
    /// Reusable im2col buffer for [`Conv2d::infer`]. One per thread:
    /// pool workers are persistent, so after warm-up the buffer never
    /// grows again (the output tensor is still allocated per call).
    /// `im2col` overwrites every element (padding included), so the
    /// buffer never needs zeroing.
    static COL_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Reusable `dcol` buffer for [`Conv2d::backward`]'s per-sample
    /// input-gradient GEMM. Per thread, like [`COL_SCRATCH`]: samples
    /// fan out across pool workers, and each worker zero-fills the
    /// buffer before the accumulate-GEMM (a memory touch, not an
    /// allocation).
    static DCOL_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

#[derive(Debug)]
struct ConvCache {
    input_shape: [usize; 4],
    out_hw: (usize, usize),
    /// im2col buffers, one `[C_in·k·k, H_out·W_out]` block per sample.
    /// Owned by the cache between `forward` and `backward`; reclaimed
    /// into [`ConvScratch::cols`] by the next `forward`, so steady-state
    /// training re-uses one warm buffer instead of allocating per batch.
    cols: Vec<f32>,
}

/// Per-layer training workspace, grown once to the largest batch shape
/// seen (see [`crate::workspace`]) and excluded from serialization.
#[derive(Debug, Default)]
struct ConvScratch {
    /// Parked im2col buffer (moves into [`ConvCache::cols`] during the
    /// forward→backward window).
    cols: Vec<f32>,
    /// Per-sample weight-gradient partials, `[N, C_out·C_in·k·k]`.
    dw_partials: Vec<f32>,
    /// Per-sample bias-gradient partials, `[N, C_out]`.
    db_partials: Vec<f32>,
}

impl Conv2d {
    /// New convolution with explicit padding and He-initialized
    /// weights.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        pad: usize,
        rng: &mut R,
    ) -> Self {
        assert!(in_channels > 0 && out_channels > 0 && kernel > 0, "conv dims must be non-zero");
        let fan_in = in_channels * kernel * kernel;
        let weight = Param::new(init::he(&[out_channels, fan_in], fan_in, rng));
        let bias = Param::new(Tensor::zeros(&[out_channels]));
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            pad,
            weight,
            bias,
            cache: None,
            scratch: ConvScratch::default(),
        }
    }

    /// Convolution with "same" padding (`pad = kernel / 2`), so odd
    /// kernels preserve spatial dimensions.
    #[must_use]
    pub fn same<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        rng: &mut R,
    ) -> Self {
        Conv2d::new(in_channels, out_channels, kernel, kernel / 2, rng)
    }

    /// Output spatial size for an input of `h x w`.
    ///
    /// # Panics
    ///
    /// Panics if the padded input is smaller than the kernel.
    #[must_use]
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let oh =
            (h + 2 * self.pad).checked_sub(self.kernel - 1).expect("input smaller than kernel");
        let ow =
            (w + 2 * self.pad).checked_sub(self.kernel - 1).expect("input smaller than kernel");
        (oh, ow)
    }

    /// Number of output channels.
    #[must_use]
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    fn col_rows(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Validate a `[N, C_in, H, W]` input; returns its shape and the
    /// output's spatial size.
    fn check_input(&self, input: &Tensor) -> ([usize; 4], (usize, usize)) {
        let shape = input.shape();
        assert_eq!(shape.len(), 4, "Conv2d expects [N, C, H, W]");
        let [n, c, h, w] = [shape[0], shape[1], shape[2], shape[3]];
        assert_eq!(c, self.in_channels, "Conv2d expects {} input channels", self.in_channels);
        ([n, c, h, w], self.output_hw(h, w))
    }

    /// The per-sample kernel shared by `forward` and `infer`:
    /// `out_n [C_out, OH·OW] = W [C_out, CKK] · im2col(sample) + b`.
    /// `col` is overwritten with the sample's im2col unfolding.
    fn conv_sample(&self, sample: &[f32], h: usize, w: usize, col: &mut [f32], out_n: &mut [f32]) {
        let (oh, ow) = self.output_hw(h, w);
        self.im2col(sample, h, w, col);
        sgemm(self.out_channels, self.col_rows(), oh * ow, self.weight.value.data(), col, out_n);
        for (chunk, &b) in out_n.chunks_exact_mut(oh * ow).zip(self.bias.value.data()) {
            chunk.iter_mut().for_each(|v| *v += b);
        }
    }

    /// Unfold one sample `[C_in, H, W]` into `col [C_in·k·k, OH·OW]`.
    fn im2col(&self, sample: &[f32], h: usize, w: usize, col: &mut [f32]) {
        let (oh, ow) = self.output_hw(h, w);
        let k = self.kernel;
        let pad = self.pad as isize;
        let mut row = 0usize;
        for c in 0..self.in_channels {
            let plane = &sample[c * h * w..(c + 1) * h * w];
            for ky in 0..k {
                for kx in 0..k {
                    let dst = &mut col[row * oh * ow..(row + 1) * oh * ow];
                    for oy in 0..oh {
                        let sy = oy as isize + ky as isize - pad;
                        let dst_row = &mut dst[oy * ow..(oy + 1) * ow];
                        if sy < 0 || sy >= h as isize {
                            dst_row.iter_mut().for_each(|v| *v = 0.0);
                            continue;
                        }
                        let src_row = &plane[(sy as usize) * w..(sy as usize + 1) * w];
                        for (ox, d) in dst_row.iter_mut().enumerate() {
                            let sx = ox as isize + kx as isize - pad;
                            *d =
                                if sx < 0 || sx >= w as isize { 0.0 } else { src_row[sx as usize] };
                        }
                    }
                    row += 1;
                }
            }
        }
    }

    /// Fold `col` gradients back onto a `[C_in, H, W]` input gradient.
    fn col2im(&self, col: &[f32], h: usize, w: usize, grad_sample: &mut [f32]) {
        let (oh, ow) = self.output_hw(h, w);
        let k = self.kernel;
        let pad = self.pad as isize;
        let mut row = 0usize;
        for c in 0..self.in_channels {
            let plane = &mut grad_sample[c * h * w..(c + 1) * h * w];
            for ky in 0..k {
                for kx in 0..k {
                    let src = &col[row * oh * ow..(row + 1) * oh * ow];
                    for oy in 0..oh {
                        let sy = oy as isize + ky as isize - pad;
                        if sy < 0 || sy >= h as isize {
                            continue;
                        }
                        let src_row = &src[oy * ow..(oy + 1) * ow];
                        let dst_row = &mut plane[(sy as usize) * w..(sy as usize + 1) * w];
                        for (ox, &g) in src_row.iter().enumerate() {
                            let sx = ox as isize + kx as isize - pad;
                            if sx >= 0 && sx < w as isize {
                                dst_row[sx as usize] += g;
                            }
                        }
                    }
                    row += 1;
                }
            }
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let ([n, c, h, w], (oh, ow)) = self.check_input(input);
        let col_size = self.col_rows() * oh * ow;
        // Reclaim the warm im2col buffer (from the previous cache or
        // the parked scratch) instead of allocating per batch; `im2col`
        // overwrites every element, so no zeroing either.
        let mut cols = self
            .cache
            .take()
            .map(|prev| prev.cols)
            .unwrap_or_else(|| std::mem::take(&mut self.scratch.cols));
        workspace::reserve_f32(&mut cols, n * col_size);
        let mut out = Tensor::zeros(&[n, self.out_channels, oh, ow]);
        if oh * ow > 0 {
            // One chunk per sample: im2col buffers and output planes
            // are disjoint per-sample shards, so the batch fans out
            // across the worker pool with no cross-sample state. The
            // shards are kept as the backward cache.
            let input_data = input.data();
            let col_shards = Shards::new(&mut cols[..n * col_size], col_size);
            let out_shards = Shards::new(out.data_mut(), self.out_channels * oh * ow);
            let this = &*self;
            pool::parallel_for(n, |i| {
                let sample = &input_data[i * c * h * w..(i + 1) * c * h * w];
                this.conv_sample(sample, h, w, col_shards.claim(i), out_shards.claim(i));
            });
        }
        self.cache = Some(ConvCache { input_shape: [n, c, h, w], out_hw: (oh, ow), cols });
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        let ([n, c, h, w], (oh, ow)) = self.check_input(input);
        let mut out = Tensor::zeros(&[n, self.out_channels, oh, ow]);
        if oh * ow > 0 {
            let col_size = self.col_rows() * oh * ow;
            let out_plane = self.out_channels * oh * ow;
            let input_data = input.data();
            let out_data = out.data_mut();
            COL_SCRATCH.with(|cell| {
                let mut col = cell.borrow_mut();
                let col = workspace::reserve_f32(&mut col, col_size);
                for i in 0..n {
                    let sample = &input_data[i * c * h * w..(i + 1) * c * h * w];
                    let out_n = &mut out_data[i * out_plane..(i + 1) * out_plane];
                    self.conv_sample(sample, h, w, col, out_n);
                }
            });
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let cache = self.cache.as_ref().expect("backward before forward");
        let [n, c, h, w] = cache.input_shape;
        let (oh, ow) = cache.out_hw;
        assert_eq!(
            grad_output.shape(),
            &[n, self.out_channels, oh, ow],
            "bad grad shape for Conv2d"
        );
        let col_rows = self.col_rows();
        let col_size = col_rows * oh * ow;
        let out_plane = self.out_channels * oh * ow;
        let c_out = self.out_channels;
        let w_len = self.weight.grad.numel();
        let mut grad_input = Tensor::zeros(&[n, c, h, w]);
        // Per-sample weight/bias gradient partials, reduced serially in
        // sample order below so the result is independent of how the
        // pool schedules samples across threads. The buffers persist in
        // the layer scratch; zero-filling them (the GEMM accumulates)
        // touches memory but allocates nothing after the first batch.
        let mut dw_vec = std::mem::take(&mut self.scratch.dw_partials);
        let mut db_vec = std::mem::take(&mut self.scratch.db_partials);
        workspace::reserve_f32(&mut dw_vec, n * w_len).fill(0.0);
        workspace::reserve_f32(&mut db_vec, n * c_out).fill(0.0);
        if oh * ow > 0 {
            let dout = grad_output.data();
            let cols = &cache.cols;
            let dw_shards = Shards::new(&mut dw_vec[..n * w_len], w_len);
            let db_shards = Shards::new(&mut db_vec[..n * c_out], c_out);
            let gi_shards = Shards::new(grad_input.data_mut(), c * h * w);
            let this = &*self;
            pool::parallel_for(n, |i| {
                let dout_n = &dout[i * out_plane..(i + 1) * out_plane];
                let col = &cols[i * col_size..(i + 1) * col_size];
                // dW_i [C_out, CKK] = dOut_i [C_out, OH·OW] · col_iᵀ
                sgemm_nt(c_out, oh * ow, col_rows, dout_n, col, dw_shards.claim(i));
                // db_i[co] = Σ dOut_i[co, :]
                let db_i = db_shards.claim(i);
                for (co, chunk) in dout_n.chunks_exact(oh * ow).enumerate() {
                    db_i[co] = chunk.iter().sum::<f32>();
                }
                // dcol [CKK, OH·OW] = Wᵀ · dOut_i
                DCOL_SCRATCH.with(|cell| {
                    let mut buf = cell.borrow_mut();
                    let dcol = workspace::reserve_f32(&mut buf, col_size);
                    dcol.fill(0.0);
                    sgemm_tn(col_rows, c_out, oh * ow, this.weight.value.data(), dout_n, dcol);
                    this.col2im(dcol, h, w, gi_shards.claim(i));
                });
            });
        }
        for i in 0..n {
            let dw_i = &dw_vec[i * w_len..(i + 1) * w_len];
            for (dst, &src) in self.weight.grad.data_mut().iter_mut().zip(dw_i) {
                *dst += src;
            }
            let db_i = &db_vec[i * c_out..(i + 1) * c_out];
            for (dst, &src) in self.bias.grad.data_mut().iter_mut().zip(db_i) {
                *dst += src;
            }
        }
        self.scratch.dw_partials = dw_vec;
        self.scratch.db_partials = db_vec;
        grad_input
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        visitor(&mut self.weight);
        visitor(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;
    use crate::loss::mse;

    #[test]
    fn same_padding_preserves_spatial_dims() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::same(2, 3, 3, &mut rng);
        let y = conv.forward(&Tensor::zeros(&[1, 2, 7, 9]));
        assert_eq!(y.shape(), &[1, 3, 7, 9]);
    }

    #[test]
    fn valid_convolution_known_answer() {
        let mut rng = StdRng::seed_from_u64(1);
        // 1x1 kernel with weight 2, bias 1: y = 2x + 1.
        let mut conv = Conv2d::new(1, 1, 1, 0, &mut rng);
        conv.visit_params(&mut |p| p.value.fill(0.0));
        let mut i = 0;
        conv.visit_params(&mut |p| {
            if i == 0 {
                p.value.fill(2.0);
            } else {
                p.value.fill(1.0);
            }
            i += 1;
        });
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let y = conv.forward(&x);
        assert_eq!(y.data(), &[3.0, 5.0, 7.0, 9.0]);
    }

    #[test]
    fn edge_detector_kernel() {
        let mut rng = StdRng::seed_from_u64(2);
        // Horizontal difference kernel [-1, 1] as a 1x2... use 3x3 with
        // only two taps set.
        let mut conv = Conv2d::new(1, 1, 3, 1, &mut rng);
        conv.visit_params(&mut |p| p.value.fill(0.0));
        let mut i = 0;
        conv.visit_params(&mut |p| {
            if i == 0 {
                // Kernel layout row-major 3x3: set [1][0] = -1, [1][2] = 1.
                p.value.data_mut()[3] = -1.0;
                p.value.data_mut()[5] = 1.0;
            }
            i += 1;
        });
        // A vertical step edge at x=2.
        let mut img = vec![0.0f32; 16];
        for y in 0..4 {
            img[y * 4 + 2] = 1.0;
            img[y * 4 + 3] = 1.0;
        }
        let x = Tensor::from_vec(img, &[1, 1, 4, 4]);
        let y = conv.forward(&x);
        // Positive response on the rising edge (x=1), negative on the
        // falling edge into the zero padding (x=3), none inside flat
        // regions (x=0 reads zero-padding on the left and a 0 pixel on
        // the right, so it is 0 as well; x=2 sees 1 on both sides).
        for row in 0..4 {
            assert_eq!(y.data()[row * 4], 0.0);
            assert_eq!(y.data()[row * 4 + 1], 1.0);
            assert_eq!(y.data()[row * 4 + 3], -1.0);
        }
    }

    #[test]
    fn gradient_check_input_and_weights() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut conv = Conv2d::new(2, 2, 3, 1, &mut rng);
        let x = Tensor::randn(&[1, 2, 5, 5], 1.0, &mut rng);
        let target = Tensor::randn(&[1, 2, 5, 5], 1.0, &mut rng);

        let y = conv.forward(&x);
        let (_, grad) = mse(&y, &target);
        conv.zero_grad();
        let grad_input = conv.backward(&grad);

        let eps = 1e-2f32;
        for idx in [0usize, 7, 24, 49] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let (lp, _) = mse(&conv.forward(&xp), &target);
            let (lm, _) = mse(&conv.forward(&xm), &target);
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grad_input.data()[idx];
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "input grad mismatch at {idx}: {numeric} vs {analytic}"
            );
        }

        // Weight gradient check (first weight).
        let analytic_w = {
            let mut val = 0.0;
            let mut i = 0;
            conv.visit_params(&mut |p| {
                if i == 0 {
                    val = p.grad.data()[0];
                }
                i += 1;
            });
            val
        };
        let perturb = |conv: &mut Conv2d, delta: f32| {
            let mut i = 0;
            conv.visit_params(&mut |p| {
                if i == 0 {
                    p.value.data_mut()[0] += delta;
                }
                i += 1;
            });
        };
        perturb(&mut conv, eps);
        let (lp, _) = mse(&conv.forward(&x), &target);
        perturb(&mut conv, -2.0 * eps);
        let (lm, _) = mse(&conv.forward(&x), &target);
        perturb(&mut conv, eps);
        let numeric_w = (lp - lm) / (2.0 * eps);
        assert!(
            (numeric_w - analytic_w).abs() < 2e-2,
            "weight grad mismatch: {numeric_w} vs {analytic_w}"
        );
    }

    #[test]
    fn batch_independence() {
        // Forward over a batch must equal forwards over singletons.
        let mut rng = StdRng::seed_from_u64(4);
        let mut conv = Conv2d::same(1, 4, 3, &mut rng);
        let a = Tensor::randn(&[1, 1, 6, 6], 1.0, &mut rng);
        let b = Tensor::randn(&[1, 1, 6, 6], 1.0, &mut rng);
        let mut batched = Vec::new();
        batched.extend_from_slice(a.data());
        batched.extend_from_slice(b.data());
        let both = conv.forward(&Tensor::from_vec(batched, &[2, 1, 6, 6]));
        let ya = conv.forward(&a);
        let yb = conv.forward(&b);
        let half = both.numel() / 2;
        for (x, y) in both.data()[..half].iter().zip(ya.data()) {
            assert!((x - y).abs() < 1e-5);
        }
        for (x, y) in both.data()[half..].iter().zip(yb.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn param_count_matches_formula() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut conv = Conv2d::same(3, 16, 5, &mut rng);
        assert_eq!(conv.param_count(), 16 * 3 * 5 * 5 + 16);
    }
}
