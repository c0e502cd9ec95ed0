use crate::{Layer, Tensor};

/// 2×2 max pooling with stride 2, the paper's pooling after every
/// convolution.
///
/// Trailing rows/columns that do not fill a complete window are
/// dropped (floor division), matching the common framework default.
///
/// # Example
///
/// ```
/// use nn::{layers::MaxPool2d, Layer, Tensor};
///
/// let mut pool = MaxPool2d::new(2);
/// let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
/// let y = pool.forward(&x);
/// assert_eq!(y.shape(), &[1, 1, 1, 1]);
/// assert_eq!(y.data(), &[4.0]);
/// ```
#[derive(Debug)]
pub struct MaxPool2d {
    cache: Option<PoolCache>,
}

#[derive(Debug)]
struct PoolCache {
    input_shape: [usize; 4],
    /// Flat input index of the max element for each output element.
    argmax: Vec<usize>,
}

impl MaxPool2d {
    /// New pooling layer with `window x window` cells.
    ///
    /// # Panics
    ///
    /// Panics unless `window == 2`, the only window the paper uses.
    #[must_use]
    pub fn new(window: usize) -> Self {
        assert_eq!(window, 2, "MaxPool2d pools 2x2 windows only");
        MaxPool2d { cache: None }
    }

    /// Pool `input`, and when `argmax` is given, fill it with each
    /// window's flat input index of its maximum: the first element in
    /// row-major window order that equals the max.
    fn pool(&self, input: &Tensor, mut argmax: Option<&mut Vec<usize>>) -> Tensor {
        let shape = input.shape();
        assert_eq!(shape.len(), 4, "MaxPool2d expects [N, C, H, W]");
        let [n, c, h, w] = [shape[0], shape[1], shape[2], shape[3]];
        let (oh, ow) = (h / 2, w / 2);
        assert!(oh > 0 && ow > 0, "input {h}x{w} smaller than pooling window");
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        if let Some(argmax) = argmax.as_deref_mut() {
            *argmax = vec![0; n * c * oh * ow];
        }
        pool2x2(input.data(), [n * c, h, w], out.data_mut(), |j, at| {
            if let Some(argmax) = argmax.as_deref_mut() {
                argmax[j] = at;
            }
        });
        out
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut argmax = Vec::new();
        let out = self.pool(input, Some(&mut argmax));
        let shape = input.shape();
        self.cache =
            Some(PoolCache { input_shape: [shape[0], shape[1], shape[2], shape[3]], argmax });
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        self.pool(input, None)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let cache = self.cache.as_ref().expect("backward before forward");
        let [n, c, h, w] = cache.input_shape;
        assert_eq!(grad_output.numel(), cache.argmax.len(), "bad grad shape for MaxPool2d");
        let mut grad_input = Tensor::zeros(&[n, c, h, w]);
        let gi = grad_input.data_mut();
        for (&src, &g) in cache.argmax.iter().zip(grad_output.data()) {
            gi[src] += g;
        }
        grad_input
    }
}

/// Argmax sentinel of [`relu_pool2x2`]: the window's max is ≤ 0, so
/// ReLU passes no gradient to any of its cells.
pub(super) const NO_ARGMAX: u32 = u32::MAX;

/// The 2×2 window kernel of `MaxPool2d::new(2)`: pool
/// `planes [C, H, W]` into `out [C, H/2, W/2]`, each output the max of
/// its window's four cells. `argmax(j, at)` receives each output index
/// `j` and the `planes` index `at` of the window's first maximum in
/// row-major order. A trailing odd row or column is dropped.
#[inline(always)]
fn pool2x2(
    planes: &[f32],
    [c, h, w]: [usize; 3],
    out: &mut [f32],
    mut argmax: impl FnMut(usize, usize),
) {
    let (oh, ow) = (h / 2, w / 2);
    for ch in 0..c {
        for oy in 0..oh {
            let top_base = ch * h * w + 2 * oy * w;
            let top = &planes[top_base..][..w];
            let bot = &planes[top_base + w..][..w];
            let row = (ch * oh + oy) * ow;
            for (ox, o) in out[row..][..ow].iter_mut().enumerate() {
                let x = 2 * ox;
                let (tl, tr, bl, br) = (top[x], top[x + 1], bot[x], bot[x + 1]);
                // Branch-free max-of-four (the same value as a scan: the
                // inputs are finite, so max order does not matter).
                let max = tl.max(tr).max(bl).max(br);
                *o = max;
                // Selects, not branches: which cell holds the max is
                // data-dependent and mispredicts.
                let off = if bl == max { w } else { w + 1 };
                let off = if tr == max { 1 } else { off };
                let off = if tl == max { 0 } else { off };
                argmax(row + ox, top_base + x + off);
            }
        }
    }
}

/// A pooled block's whole epilogue in one pass over one sample's
/// `[C, H, W]` pre-activation `plane` (the GEMM output, before bias):
/// bias, ReLU and 2×2 max-pool into `out [C, H/2, W/2]`, exactly
/// `+ bias`, `Relu` and `MaxPool2d::new(2)` in turn. With `argmax`,
/// each pooled element also records the plane index of its window's
/// first maximum, or [`NO_ARGMAX`] when that maximum is ≤ 0.
///
/// Each output row is one loop of compares and selects, with no
/// branch on the data, so the compiler vectorizes it.
pub(super) fn relu_pool2x2(
    plane: &[f32],
    bias: &[f32],
    [c, h, w]: [usize; 3],
    out: &mut [f32],
    mut argmax: Option<&mut [u32]>,
) {
    assert!(c * h * w < NO_ARGMAX as usize, "plane of {c}x{h}x{w} too large for a u32 argmax");
    let (oh, ow) = (h / 2, w / 2);
    for (ch, &b) in bias.iter().enumerate().take(c) {
        for oy in 0..oh {
            let top_base = ch * h * w + 2 * oy * w;
            let (top, bot) = plane[top_base..][..2 * w].split_at(w);
            let row = (ch * oh + oy) * ow;
            let windows = top.as_chunks::<2>().0.iter().zip(bot.as_chunks::<2>().0);
            let out_row = out[row..][..ow].iter_mut().zip(windows);
            let Some(argmax) = argmax.as_deref_mut() else {
                for (o, (t, d)) in out_row {
                    *o = window_max(t, d, b).0;
                }
                continue;
            };
            let (at0, w32) = (top_base as u32, w as u32);
            for (ox, (at_slot, (o, (t, d)))) in
                argmax[row..][..ow].iter_mut().zip(out_row).enumerate()
            {
                let (max, [tl, tr, bl]) = window_max(t, d, b);
                *o = max;
                let at = at0 + 2 * ox as u32;
                let off = if bl == max { w32 } else { w32 + 1 };
                let off = if tr == max { 1 } else { off };
                let off = if tl == max { 0 } else { off };
                *at_slot = if max > 0.0 { at + off } else { NO_ARGMAX };
            }
        }
    }
}

/// One window of [`relu_pool2x2`]: its top pair `t` and bottom pair
/// `d` after bias and ReLU, and their max; the max and the first three
/// cells, which decide the argmax.
#[inline(always)]
fn window_max(t: &[f32; 2], d: &[f32; 2], b: f32) -> (f32, [f32; 3]) {
    let relu = |v: f32| (v + b).max(0.0);
    let (tl, tr, bl, br) = (relu(t[0]), relu(t[1]), relu(d[0]), relu(d[1]));
    (tl.max(tr).max(bl).max(br), [tl, tr, bl])
}

/// Backward of [`relu_pool2x2`]: expand one sample's pooled gradient
/// into its `[C, H, W]` pre-activation gradient `plane`, `0.0 + g` at
/// each recorded argmax and `+0.0` everywhere else — what
/// `MaxPool2d::backward` followed by `Relu::backward` computes. Every
/// element is written once, with no fill first: each plane row's cell
/// pairs by compare and select in one vectorizable loop, and the
/// dropped odd row and column as zeros.
pub(super) fn relu_unpool2x2(
    grad: &[f32],
    argmax: &[u32],
    [c, h, w]: [usize; 3],
    plane: &mut [f32],
) {
    let (oh, ow) = (h / 2, w / 2);
    for (ch, ch_plane) in plane[..c * h * w].chunks_exact_mut(h * w).enumerate() {
        let (window_rows, odd_row) = ch_plane.split_at_mut(2 * oh * w);
        odd_row.fill(0.0);
        for (y, row) in window_rows.chunks_exact_mut(w).enumerate() {
            let (pairs, odd_column) = row.as_chunks_mut::<2>();
            odd_column.fill(0.0);
            let j = (ch * oh + y / 2) * ow;
            let windows = grad[j..][..ow].iter().zip(&argmax[j..][..ow]);
            let first = (ch * h * w + y * w) as u32;
            for (ox, (pair, (&g, &at))) in pairs.iter_mut().zip(windows).enumerate() {
                let x = first + 2 * ox as u32;
                let v = 0.0 + g;
                *pair = [if at == x { v } else { 0.0 }, if at == x + 1 { v } else { 0.0 }];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_window_maxima() {
        let mut pool = MaxPool2d::new(2);
        #[rustfmt::skip]
        let x = Tensor::from_vec(vec![
            1.0, 5.0,  2.0, 0.0,
            3.0, 4.0,  1.0, 8.0,
            0.0, 0.0,  7.0, 1.0,
            2.0, 1.0,  0.0, 3.0,
        ], &[1, 1, 4, 4]);
        let y = pool.forward(&x);
        assert_eq!(y.data(), &[5.0, 8.0, 2.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "2x2 windows only")]
    fn other_windows_are_rejected() {
        let _ = MaxPool2d::new(3);
    }

    #[test]
    fn odd_trailing_edge_is_dropped() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::zeros(&[1, 1, 5, 7]);
        let y = pool.forward(&x);
        assert_eq!(y.shape(), &[1, 1, 2, 3]);
    }

    #[test]
    fn backward_routes_gradient_to_argmax() {
        let mut pool = MaxPool2d::new(2);
        #[rustfmt::skip]
        let x = Tensor::from_vec(vec![
            1.0, 5.0,
            3.0, 4.0,
        ], &[1, 1, 2, 2]);
        let _ = pool.forward(&x);
        let grad = Tensor::from_vec(vec![2.5], &[1, 1, 1, 1]);
        let gi = pool.backward(&grad);
        assert_eq!(gi.data(), &[0.0, 2.5, 0.0, 0.0]);
    }

    #[test]
    fn ties_route_to_first_maximum() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(vec![7.0, 7.0, 7.0, 7.0], &[1, 1, 2, 2]);
        let _ = pool.forward(&x);
        let gi = pool.backward(&Tensor::from_vec(vec![1.0], &[1, 1, 1, 1]));
        assert_eq!(gi.data(), &[1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn multichannel_planes_pool_independently() {
        let mut pool = MaxPool2d::new(2);
        let mut data = vec![0.0; 2 * 4];
        data[0] = 9.0; // channel 0 max
        data[7] = 4.0; // channel 1 max
        let x = Tensor::from_vec(data, &[1, 2, 2, 2]);
        let y = pool.forward(&x);
        assert_eq!(y.data(), &[9.0, 4.0]);
    }
}
