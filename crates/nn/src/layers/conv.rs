use std::cell::RefCell;

use rand::Rng;

use super::pool::{relu_pool2x2, relu_unpool2x2};
use crate::gemm::{sgemm_nt_window, sgemm_tn_with, sgemm_window, Store, Window};
use crate::pool::{self, Shards, SAMPLE_BLOCK};
use crate::workspace::Scratch;
use crate::{init, Layer, Param, Tensor};

/// 2-D convolution (stride 1) as a GEMM over the zero-padded input.
///
/// Input `[N, C_in, H, W]`, output `[N, C_out, H_out, W_out]` with
/// `H_out = H + 2·pad − k + 1`. Each sample's padded planes are the
/// GEMM's `B` operand as they are: its packing reads the unfolded
/// (im2col) matrix's elements straight from them, so that matrix is
/// never written out. The paper's CNN uses "same"-style
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
#[derive(Debug)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    pad: usize,
    /// Weight stored `[C_out, C_in * k * k]` for direct GEMM use.
    weight: Param,
    bias: Param,
    /// `[N, C_in, H, W]` of the last `forward`, all `backward` needs
    /// besides [`ConvScratch`].
    input_shape: Option<[usize; 4]>,
    scratch: ConvScratch,
}

thread_local! {
    /// The workspace of the `&self` inference pass, one per thread: a
    /// layer shared across workers cannot lend out its own. `infer`
    /// fills only its `input` and (pooled) `planes`, sized for the
    /// largest batch any conv layer served on this thread; serving
    /// infers blocks of [`SAMPLE_BLOCK`] wafers, so that is 4 padded
    /// inputs and one plane. Pool workers are persistent, so after
    /// warm-up it never grows again.
    static INFER_SCRATCH: RefCell<ConvScratch> = RefCell::new(ConvScratch::default());
}

/// The workspace of the one forward kernel and of `backward`, grown
/// once to the largest batch shape seen (see [`crate::workspace`]).
/// Each layer owns one for training, excluded from serialization;
/// `infer` borrows its thread's [`INFER_SCRATCH`]. Its sizes depend
/// only on the shapes, never on which worker runs which samples: the
/// passes fan out in groups of [`SAMPLE_BLOCK`] samples, and a group's
/// shards are its own. Nothing in it is ever zeroed: `pad_sample`
/// writes every saved element (the border included), the GEMMs every
/// plane and `dcol` element, and `backward` every partial.
///
/// After a batch of `n` samples, with `G = ⌈n / SAMPLE_BLOCK⌉` groups
/// and `CKK = C_in·k·k`, it holds these many 4-byte elements:
///
/// - `input`: `n·C_in·(H+2p)·(W+2p)`;
/// - `planes` (pooled only): `G·C_out·OH·OW`;
/// - `argmax` (pooled, training only): `n·C_out·⌊OH/2⌋·⌊OW/2⌋`;
/// - `dw_partials` (training only): `n·C_out·CKK`;
/// - `db_partials` (training only): `n·C_out`;
/// - `dcol` (after a `backward` that returns the input gradient):
///   `G·CKK·OH·OW`.
///
/// So `infer` holds one group's padded inputs and, pooled, one plane;
/// a training `forward` adds the rest of the saved input and the argmax;
/// `backward_params` (a model's first layer) adds the partials, and
/// `backward` the partials and `dcol`. No pass holds an im2col
/// unfolding: the forward and weight-gradient GEMMs read it from
/// `input` through a [`Window`].
#[derive(Debug, Default)]
struct ConvScratch {
    /// The last forward's input, `[N, C_in, H+2p, W+2p]`: each sample's
    /// planes zero-padded, so a GEMM packs the unfolded operand with no
    /// test for the border. Written group by group inside the forward's
    /// parallel region.
    input: Scratch<f32>,
    /// Pooled block only: one `[C_out, OH, OW]` plane per sample group,
    /// holding each sample's pre-activation in the forward and its
    /// output gradient, expanded from the pooled one, in `backward`.
    planes: Scratch<f32>,
    /// Pooled block only: the window argmax of the last `forward`,
    /// `[N, C_out, OH/2, OW/2]`: the sample-plane index of each
    /// window's first maximum, or `NO_ARGMAX` when that maximum is ≤ 0
    /// (ReLU passes no gradient).
    argmax: Scratch<u32>,
    /// Per-sample weight-gradient partials, `[N, C_out·C_in·k·k]`.
    dw_partials: Scratch<f32>,
    /// Per-sample bias-gradient partials, `[N, C_out]`.
    db_partials: Scratch<f32>,
    /// One `[C_in·k·k, OH·OW]` input-gradient GEMM output per sample
    /// group, which col2im folds onto the sample's input gradient.
    dcol: Scratch<f32>,
}

/// Split `buf` into one shard per group of [`SAMPLE_BLOCK`] samples of
/// `per_sample` elements each (the last group may be short).
fn groups<T>(buf: &mut [T], per_sample: usize) -> Shards<'_, T> {
    Shards::new(buf, SAMPLE_BLOCK * per_sample)
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
            input_shape: None,
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

    /// Output spatial size for an input of `h x w`, at least 1×1.
    ///
    /// # Panics
    ///
    /// Panics if the padded input is smaller than the kernel.
    fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let out = |len: usize| {
            (len + 2 * self.pad).checked_sub(self.kernel).expect("input smaller than kernel") + 1
        };
        (out(h), out(w))
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

    /// Elements of one sample's zero-padded planes,
    /// `C_in·(H+2p)·(W+2p)`.
    fn padded_len(&self, h: usize, w: usize) -> usize {
        self.in_channels * (h + 2 * self.pad) * (w + 2 * self.pad)
    }

    /// Copy one sample `[C_in, H, W]` into `padded [C_in, H+2p, W+2p]`,
    /// writing every element: the border gets `0.0`.
    fn pad_sample(&self, sample: &[f32], h: usize, w: usize, padded: &mut [f32]) {
        let p = self.pad;
        let wp = w + 2 * p;
        for (src, dst) in sample.chunks_exact(h * w).zip(padded.chunks_exact_mut((h + 2 * p) * wp))
        {
            let (top, rest) = dst.split_at_mut(p * wp);
            let (rows, bottom) = rest.split_at_mut(h * wp);
            top.fill(0.0);
            bottom.fill(0.0);
            for j in 0..p {
                for y in 0..h {
                    rows[y * wp + j] = 0.0;
                    rows[y * wp + p + w + j] = 0.0;
                }
            }
            copy_rows(src, w, &mut rows[p..], wp, h, w);
        }
    }

    /// One sample's zero-padded planes as the unfolded
    /// `[C_in·k·k, OH·OW]` GEMM operand.
    fn window<'a>(&self, padded: &'a [f32], h: usize, w: usize) -> Window<'a> {
        Window::new(padded, self.kernel, [h + 2 * self.pad, w + 2 * self.pad])
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

impl Conv2d {
    /// Output shape for `n` samples: the convolution's
    /// `[N, C_out, OH, OW]`, or, for a pooled block, that halved by the
    /// 2×2 window.
    fn out_shape(&self, n: usize, (oh, ow): (usize, usize), pooled: bool) -> [usize; 4] {
        if pooled {
            assert!(oh >= 2 && ow >= 2, "conv output {oh}x{ow} smaller than the pooling window");
            [n, self.out_channels, oh / 2, ow / 2]
        } else {
            [n, self.out_channels, oh, ow]
        }
    }

    /// The one forward kernel of [`Conv2d`] and, when `pooled`, of a
    /// [`ConvBlock`], on workspace `ws`. Per sample: zero-pad it into
    /// `ws.input`, multiply `W [C_out, CKK]` by its [`Window`], then add
    /// the bias or, pooled, run bias, ReLU and 2×2 max-pool in one pass
    /// over its group's plane, recording the window argmax for
    /// `backward` when `record_argmax`.
    fn forward_pass(
        &self,
        input: &Tensor,
        pooled: bool,
        ws: &mut ConvScratch,
        record_argmax: bool,
    ) -> Tensor {
        let ([n, c, h, w], (oh, ow)) = self.check_input(input);
        let out_shape = self.out_shape(n, (oh, ow), pooled);
        let out_len: usize = out_shape[1..].iter().product();
        let (c_out, ohw) = (self.out_channels, oh * ow);
        let padded_len = self.padded_len(h, w);
        let n_groups = n.div_ceil(SAMPLE_BLOCK);
        let mut out = Tensor::zeros(&out_shape);
        // One chunk per sample group: saved input planes, output planes,
        // argmax rows and the pre-activation plane are disjoint per
        // group, so the batch fans out across the worker pool with no
        // cross-group state.
        let input_shards = groups(ws.input.reserve(n * padded_len), padded_len);
        let plane_shards =
            pooled.then(|| Shards::new(ws.planes.reserve(n_groups * c_out * ohw), c_out * ohw));
        let argmax_shards =
            (pooled && record_argmax).then(|| groups(ws.argmax.reserve(n * out_len), out_len));
        let out_shards = groups(out.data_mut(), out_len);
        let (input_data, weight, bias) =
            (input.data(), self.weight.value.data(), self.bias.value.data());
        pool::parallel_for(n_groups, |g| {
            let mut plane = plane_shards.as_ref().map(|p| p.claim(g));
            let mut argmax = argmax_shards.as_ref().map(|a| a.claim(g).chunks_exact_mut(out_len));
            let saved = input_shards.claim(g).chunks_exact_mut(padded_len);
            let outs = out_shards.claim(g).chunks_exact_mut(out_len);
            for (j, (padded, out_n)) in saved.zip(outs).enumerate() {
                let i = g * SAMPLE_BLOCK + j;
                self.pad_sample(&input_data[i * c * h * w..(i + 1) * c * h * w], h, w, padded);
                let product = plane.as_deref_mut().unwrap_or(&mut *out_n);
                sgemm_window(Store::Overwrite, c_out, weight, &self.window(padded, h, w), product);
                match plane.as_deref() {
                    None => {
                        for (chunk, &b) in out_n.chunks_exact_mut(ohw).zip(bias) {
                            chunk.iter_mut().for_each(|v| *v += b);
                        }
                    }
                    Some(plane) => {
                        let argmax_n = argmax.as_mut().and_then(Iterator::next);
                        relu_pool2x2(plane, bias, [c_out, oh, ow], out_n, argmax_n);
                    }
                }
            }
        });
        out
    }

    /// `forward` of [`Conv2d`] and [`ConvBlock`]: [`Conv2d::forward_pass`]
    /// on the layer's own workspace, keeping what `backward` needs.
    fn train_forward(&mut self, input: &Tensor, pooled: bool) -> Tensor {
        let mut ws = std::mem::take(&mut self.scratch);
        let out = self.forward_pass(input, pooled, &mut ws, true);
        self.scratch = ws;
        self.input_shape = input.shape().try_into().ok();
        out
    }

    /// `infer` of [`Conv2d`] and [`ConvBlock`]: [`Conv2d::forward_pass`]
    /// on this thread's [`INFER_SCRATCH`], with no argmax.
    fn infer_forward(&self, input: &Tensor, pooled: bool) -> Tensor {
        INFER_SCRATCH.with(|ws| self.forward_pass(input, pooled, &mut ws.borrow_mut(), false))
    }

    /// The one backward kernel of [`Conv2d`] and [`ConvBlock`]:
    /// accumulates the weight and bias gradients and, if `input_grad`,
    /// returns the input gradient (otherwise skips its GEMM, its col2im,
    /// its `dcol` buffers and its tensor). The weight-gradient GEMM reads
    /// each sample's [`Window`] of the saved input. Its `[C_out, OH·OW]`
    /// output gradient is read from `grad_output` in place, or, for a
    /// pooled block, expanded from the pooled gradient through the
    /// window argmax into its group's plane.
    fn backward_pass(
        &mut self,
        grad_output: &Tensor,
        pooled: bool,
        input_grad: bool,
    ) -> Option<Tensor> {
        let [n, c, h, w] = self.input_shape.expect("backward before forward");
        let (oh, ow) = self.output_hw(h, w);
        let out_shape = self.out_shape(n, (oh, ow), pooled);
        assert_eq!(grad_output.shape(), &out_shape, "bad grad shape for Conv2d");
        let grad_len: usize = out_shape[1..].iter().product();
        let col_rows = self.col_rows();
        let col_size = col_rows * oh * ow;
        let padded_len = self.padded_len(h, w);
        let c_out = self.out_channels;
        let w_len = self.weight.grad.numel();
        let mut grad_input = input_grad.then(|| Tensor::zeros(&[n, c, h, w]));
        // Per-sample weight/bias gradient partials, summed in sample
        // order below so the result is independent of how the pool
        // schedules groups across threads. Every element is overwritten
        // per batch (the GEMM's overwrite store, the channel sums), so
        // after the first batch they cost neither an allocation nor a
        // fill.
        let mut scratch = std::mem::take(&mut self.scratch);
        let dw_vec = scratch.dw_partials.reserve(n * w_len);
        let db_vec = scratch.db_partials.reserve(n * c_out);
        let grad = grad_output.data();
        let (saved, argmax) = (&scratch.input, &scratch.argmax);
        let n_groups = n.div_ceil(SAMPLE_BLOCK);
        let dcol_shards =
            input_grad.then(|| Shards::new(scratch.dcol.reserve(n_groups * col_size), col_size));
        let plane_shards = pooled.then(|| Shards::new(&mut scratch.planes[..], c_out * oh * ow));
        let dw_shards = groups(dw_vec, w_len);
        let db_shards = groups(db_vec, c_out);
        let gi_shards = grad_input.as_mut().map(|g| groups(g.data_mut(), c * h * w));
        let ohw = oh * ow;
        let wt = self.weight.value.data();
        pool::parallel_for(n_groups, |g| {
            let mut dcol = dcol_shards.as_ref().map(|d| d.claim(g));
            let mut plane = plane_shards.as_ref().map(|p| p.claim(g));
            let mut gis = gi_shards.as_ref().map(|s| s.claim(g).chunks_exact_mut(c * h * w));
            let partials = dw_shards.claim(g).chunks_exact_mut(w_len);
            let partials = partials.zip(db_shards.claim(g).chunks_exact_mut(c_out));
            for (j, (dw_i, db_i)) in partials.enumerate() {
                let i = g * SAMPLE_BLOCK + j;
                let window = self.window(&saved[i * padded_len..(i + 1) * padded_len], h, w);
                let grad_n = &grad[i * grad_len..(i + 1) * grad_len];
                let dout_n: &[f32] = match plane.as_deref_mut() {
                    None => grad_n,
                    Some(plane) => {
                        let argmax_n = &argmax[i * grad_len..(i + 1) * grad_len];
                        relu_unpool2x2(grad_n, argmax_n, [c_out, oh, ow], plane);
                        plane
                    }
                };
                // dW_i [C_out, CKK] = dOut_i [C_out, OH·OW] · col_iᵀ
                sgemm_nt_window(Store::Overwrite, c_out, dout_n, &window, dw_i);
                // db_i[co] = Σ dOut_i[co, :]
                channel_sums(dout_n, ohw, db_i);
                if let (Some(dcol), Some(gis)) = (dcol.as_deref_mut(), &mut gis) {
                    // dcol [CKK, OH·OW] = Wᵀ · dOut_i
                    sgemm_tn_with(Store::Overwrite, col_rows, c_out, ohw, wt, dout_n, dcol);
                    self.col2im(dcol, h, w, gis.next().expect("one input gradient per sample"));
                }
            }
        });
        add_partials(self.weight.grad.data_mut(), &scratch.dw_partials[..n * w_len]);
        add_partials(self.bias.grad.data_mut(), &scratch.db_partials[..n * c_out]);
        self.scratch = scratch;
        grad_input
    }
}

/// Copy `rows` rows of `len` floats from `src` (rows `src_stride`
/// apart) to `dst` (rows `dst_stride` apart), in fixed 8-float chunks,
/// each one vector move. The loop runs down the rows for each chunk
/// column: with the two strides unequal, the compiler cannot fold the
/// copies into one `memcpy` call per row, which costs more than the
/// copy on the padded input's short rows (8–32 floats on the Table I
/// shapes).
fn copy_rows(
    src: &[f32],
    src_stride: usize,
    dst: &mut [f32],
    dst_stride: usize,
    rows: usize,
    len: usize,
) {
    let full = len - len % 8;
    for x in (0..full).step_by(8) {
        for r in 0..rows {
            let chunk: &mut [f32; 8] =
                (&mut dst[r * dst_stride + x..][..8]).try_into().expect("8 floats");
            *chunk = src[r * src_stride + x..][..8].try_into().expect("8 floats");
        }
    }
    for x in full..len {
        for r in 0..rows {
            dst[r * dst_stride + x] = src[r * src_stride + x];
        }
    }
}

/// Elements per chunk of [`add_partials`]' fan-out: 8 KB of the
/// gradient, which stays in L1 while every sample's partial streams
/// past it.
const REDUCE_CHUNK: usize = 2048;

/// `grad += Σᵢ partials[i]` over per-sample partials `[N, grad.len()]`,
/// fanned out over the pool by element range. Each element still adds
/// samples `0..N` in order, so the sum is the serial loop's bit for bit
/// on any thread count.
fn add_partials(grad: &mut [f32], partials: &[f32]) {
    let len = grad.len();
    let shards = Shards::new(grad, REDUCE_CHUNK);
    pool::parallel_for(shards.count(), |s| {
        let dst = shards.claim(s);
        for sample in partials.chunks_exact(len) {
            for (d, &p) in dst.iter_mut().zip(&sample[s * REDUCE_CHUNK..]) {
                *d += p;
            }
        }
    });
}

/// Channels summed side by side by [`channel_sums`]: enough independent
/// add chains to cover the add latency.
const SUM_CHAINS: usize = 8;

/// Bias-gradient sums of one sample: `db[co] = Σ dout[co, :]` over
/// `plane`-long channel rows. Each channel is a left fold in element
/// order from the start value `Iterator::sum` uses, so the result is
/// `row.iter().sum()` bit for bit; [`SUM_CHAINS`] channels run as
/// interleaved chains so consecutive adds do not wait on each other.
fn channel_sums(dout: &[f32], plane: usize, db: &mut [f32]) {
    let start = std::iter::empty::<f32>().sum::<f32>();
    let mut rows = dout.chunks_exact(plane);
    let mut blocks = db.chunks_exact_mut(SUM_CHAINS);
    for block in &mut blocks {
        let chains: [&[f32]; SUM_CHAINS] =
            std::array::from_fn(|_| &rows.next().expect("one row per channel")[..plane]);
        let mut acc = [start; SUM_CHAINS];
        for j in 0..plane {
            for (sum, row) in acc.iter_mut().zip(&chains) {
                *sum += row[j];
            }
        }
        block.copy_from_slice(&acc);
    }
    for (sum, row) in blocks.into_remainder().iter_mut().zip(rows) {
        *sum = row.iter().sum();
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.train_forward(input, false)
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        self.infer_forward(input, false)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.backward_pass(grad_output, false, true).expect("input gradient")
    }

    fn backward_params(&mut self, grad_output: &Tensor) {
        self.backward_pass(grad_output, false, false);
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        visitor(&mut self.weight);
        visitor(&mut self.bias);
    }
}

/// A pooled convolution block: [`Conv2d`] → ReLU → 2×2 max-pool in one
/// layer, bit-identical to that chain of [`Conv2d`], [`super::Relu`] and
/// [`super::MaxPool2d`]`::new(2)`.
///
/// Each sample's pre-activation plane lives only in its sample group's
/// plane of the convolution's workspace: the fused ReLU and pool read
/// it while it is still in cache, right after the sample's GEMM. What
/// `backward` needs is the convolution's saved (padded) input plus a
/// `u32` argmax per pooled output, both in that workspace, so no
/// full-size activation, mask or gradient tensor is allocated. The
/// parameters are the wrapped convolution's, visited in its order.
///
/// # Example
///
/// ```
/// use nn::{layers::{Conv2d, ConvBlock}, Layer, Tensor};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut block = ConvBlock::new(Conv2d::same(1, 8, 5, &mut rng));
/// let y = block.forward(&Tensor::zeros(&[2, 1, 16, 16]));
/// assert_eq!(y.shape(), &[2, 8, 8, 8]);
/// ```
#[derive(Debug)]
pub struct ConvBlock {
    conv: Conv2d,
}

impl ConvBlock {
    /// Wrap `conv` with the fused ReLU and 2×2 max-pool.
    #[must_use]
    pub fn new(conv: Conv2d) -> Self {
        ConvBlock { conv }
    }
}

impl Layer for ConvBlock {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.conv.train_forward(input, true)
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        self.conv.infer_forward(input, true)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.conv.backward_pass(grad_output, true, true).expect("input gradient")
    }

    fn backward_params(&mut self, grad_output: &Tensor) {
        self.conv.backward_pass(grad_output, true, false);
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        self.conv.visit_params(visitor);
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

    /// `forward`, then `backward` twice: `backward` reads the saved
    /// input and leaves it intact (the `dcol` it writes is its own
    /// buffer), so the second returns the first's input gradient bit
    /// for bit. Batch 5 leaves a ragged last group.
    fn backward_twice(mut layer: impl Layer) {
        let mut rng = StdRng::seed_from_u64(6);
        let x = Tensor::randn(&[5, 2, 6, 6], 1.0, &mut rng);
        let g = Tensor::randn(layer.forward(&x).shape(), 1.0, &mut rng);
        let first = layer.backward(&g);
        assert_eq!(layer.backward(&g).data(), first.data());
    }

    #[test]
    fn conv_backward_repeats() {
        backward_twice(Conv2d::same(2, 3, 3, &mut StdRng::seed_from_u64(7)));
    }

    #[test]
    fn block_backward_repeats() {
        backward_twice(ConvBlock::new(Conv2d::same(2, 3, 3, &mut StdRng::seed_from_u64(7))));
    }

    /// A padded input smaller than the kernel has no output pixel; it
    /// is rejected by name, not by the empty output tensor.
    #[test]
    #[should_panic(expected = "input smaller than kernel")]
    fn input_smaller_than_kernel_is_rejected() {
        let mut conv = Conv2d::new(1, 1, 3, 0, &mut StdRng::seed_from_u64(8));
        let _ = conv.forward(&Tensor::zeros(&[1, 1, 2, 2]));
    }

    #[test]
    fn param_count_matches_formula() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut conv = Conv2d::same(3, 16, 5, &mut rng);
        assert_eq!(conv.param_count(), 16 * 3 * 5 * 5 + 16);
    }
}
