use crate::{Layer, Tensor};

/// Max pooling with square window and stride equal to the window size
/// (the paper uses 2×2 after every convolution).
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
    window: usize,
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
    /// Panics if `window` is zero.
    #[must_use]
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "pooling window must be non-zero");
        MaxPool2d { window, cache: None }
    }

    /// Output spatial size for an `h x w` input.
    #[must_use]
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (h / self.window, w / self.window)
    }

    /// Pool `input`, and when `argmax` is given, fill it with each
    /// window's flat input index of its maximum: the first element in
    /// row-major window order that equals the max.
    fn pool(&self, input: &Tensor, mut argmax: Option<&mut Vec<usize>>) -> Tensor {
        let shape = input.shape();
        assert_eq!(shape.len(), 4, "MaxPool2d expects [N, C, H, W]");
        let [n, c, h, w] = [shape[0], shape[1], shape[2], shape[3]];
        let (oh, ow) = self.output_hw(h, w);
        assert!(oh > 0 && ow > 0, "input {h}x{w} smaller than pooling window");
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        if let Some(argmax) = argmax.as_deref_mut() {
            *argmax = vec![0; n * c * oh * ow];
        }
        let data = input.data();
        let out_data = out.data_mut();
        if self.window == 2 {
            // The paper's only pooling shape.
            pool2x2(
                data,
                [n * c, h, w],
                out_data,
                |v| v,
                |j, at, _| {
                    if let Some(argmax) = argmax.as_deref_mut() {
                        argmax[j] = at;
                    }
                },
            );
            return out;
        }
        for nc in 0..n * c {
            let plane_base = nc * h * w;
            let out_base = nc * oh * ow;
            for oy in 0..oh {
                let out_row = &mut out_data[out_base + oy * ow..][..ow];
                let mut arg_row = argmax.as_deref_mut().map(|a| &mut a[out_base + oy * ow..][..ow]);
                for (ox, o) in out_row.iter_mut().enumerate() {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0usize;
                    for dy in 0..self.window {
                        let row_base = plane_base + (oy * self.window + dy) * w;
                        for dx in 0..self.window {
                            let idx = row_base + ox * self.window + dx;
                            if data[idx] > best {
                                best = data[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    *o = best;
                    if let Some(arg_row) = arg_row.as_deref_mut() {
                        arg_row[ox] = best_idx;
                    }
                }
            }
        }
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

/// The one 2×2 window kernel, behind both `MaxPool2d::new(2)` and
/// [`super::ConvBlock`]: pool `planes [C, H, W]` into
/// `out [C, H/2, W/2]`, each output the max over `cell(v)` of its
/// window's four cells. `argmax(j, at, max)` receives each output index
/// `j`, the `planes` index `at` of the window's first maximum in
/// row-major order, and the maximum. A trailing odd row or column is
/// dropped.
#[inline(always)]
fn pool2x2(
    planes: &[f32],
    [c, h, w]: [usize; 3],
    out: &mut [f32],
    cell: impl Fn(f32) -> f32,
    mut argmax: impl FnMut(usize, usize, f32),
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
                let (tl, tr) = (cell(top[x]), cell(top[x + 1]));
                let (bl, br) = (cell(bot[x]), cell(bot[x + 1]));
                // Branch-free max-of-four (the same value as a scan: the
                // inputs are finite, so max order does not matter).
                let max = tl.max(tr).max(bl).max(br);
                *o = max;
                // Selects, not branches: which cell holds the max is
                // data-dependent and mispredicts.
                let off = if bl == max { w } else { w + 1 };
                let off = if tr == max { 1 } else { off };
                let off = if tl == max { 0 } else { off };
                argmax(row + ox, top_base + x + off, max);
            }
        }
    }
}

/// Fused ReLU + 2×2 max-pool of one `[C, H, W]` pre-activation plane
/// into `out [C, H/2, W/2]`: exactly `Relu` followed by
/// `MaxPool2d::new(2)`. With `argmax`, each pooled element also records
/// the plane index of its window's first maximum, or [`NO_ARGMAX`] when
/// that maximum is ≤ 0.
pub(super) fn relu_pool2x2(
    plane: &[f32],
    shape: [usize; 3],
    out: &mut [f32],
    mut argmax: Option<&mut [u32]>,
) {
    let len: usize = shape.iter().product();
    assert!(len < NO_ARGMAX as usize, "plane of {len} elements too large for a u32 argmax");
    pool2x2(
        plane,
        shape,
        out,
        |v| v.max(0.0),
        |j, at, max| {
            if let Some(argmax) = argmax.as_deref_mut() {
                argmax[j] = if max > 0.0 { at as u32 } else { NO_ARGMAX };
            }
        },
    );
}

/// Backward of [`relu_pool2x2`]: expand one sample's pooled gradient
/// into its pre-activation gradient `plane`, `g` accumulated onto zero
/// at each recorded argmax and zero everywhere else — what
/// `MaxPool2d::backward` followed by `Relu::backward` computes.
pub(super) fn relu_unpool2x2(grad: &[f32], argmax: &[u32], plane: &mut [f32]) {
    plane.fill(0.0);
    for (&g, &at) in grad.iter().zip(argmax) {
        if at != NO_ARGMAX {
            plane[at as usize] += g;
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
