use crate::{Layer, Param, Tensor};

/// A chain of layers applied in order.
///
/// `forward` threads the input through every layer; `backward` runs
/// the chain in reverse, and `backward_params` skips the first layer's
/// input gradient. Build with [`Sequential::with`] in a fluent style.
///
/// # Example
///
/// ```
/// use nn::{layers::{Flatten, Linear, Relu}, Layer, Sequential, Tensor};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut net = Sequential::new()
///     .with(Flatten::new())
///     .with(Linear::new(16, 8, &mut rng))
///     .with(Relu::new());
/// let y = net.forward(&Tensor::zeros(&[3, 1, 4, 4]));
/// assert_eq!(y.shape(), &[3, 8]);
/// ```
#[derive(Debug, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// An empty chain (identity network).
    #[must_use]
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Append a layer, fluently.
    #[must_use]
    pub fn with<L: Layer + 'static>(mut self, layer: L) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Append a boxed layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers in the chain.
    #[must_use]
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the chain is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

/// Thread `input` through `layers` with `pass`, starting from the first
/// layer's output, so `input` itself is never copied; `None` for an
/// empty chain.
fn chain<L>(
    mut layers: impl Iterator<Item = L>,
    input: &Tensor,
    mut pass: impl FnMut(L, &Tensor) -> Tensor,
) -> Option<Tensor> {
    let mut cur = pass(layers.next()?, input);
    for layer in layers {
        cur = pass(layer, &cur);
    }
    Some(cur)
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        chain(self.layers.iter_mut(), input, |layer, x| layer.forward(x))
            .unwrap_or_else(|| input.clone())
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        chain(self.layers.iter_mut().rev(), grad_output, |layer, g| layer.backward(g))
            .unwrap_or_else(|| grad_output.clone())
    }

    /// Every layer but the first runs [`Layer::backward`]; the first
    /// runs [`Layer::backward_params`], so the chain's input gradient
    /// is never computed.
    fn backward_params(&mut self, grad_output: &Tensor) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        match chain(rest.iter_mut().rev(), grad_output, |layer, g| layer.backward(g)) {
            Some(grad) => first.backward_params(&grad),
            None => first.backward_params(grad_output),
        }
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        chain(self.layers.iter(), input, |layer, x| layer.infer(x)).unwrap_or_else(|| input.clone())
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(visitor);
        }
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;
    use crate::layers::{Linear, Relu};
    use crate::loss::mse;

    #[test]
    fn empty_sequential_is_identity() {
        let mut net = Sequential::new();
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        assert_eq!(net.forward(&x), x);
        assert_eq!(net.infer(&x), x);
        assert_eq!(net.backward(&x), x);
        net.backward_params(&x);
        assert!(net.is_empty());
    }

    #[test]
    fn params_aggregate_over_layers() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = Sequential::new()
            .with(Linear::new(4, 8, &mut rng))
            .with(Relu::new())
            .with(Linear::new(8, 2, &mut rng));
        assert_eq!(net.param_count(), (4 * 8 + 8) + (8 * 2 + 2));
        assert_eq!(net.len(), 3);
    }

    #[test]
    fn chain_gradient_check() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = Sequential::new()
            .with(Linear::new(3, 5, &mut rng))
            .with(Relu::new())
            .with(Linear::new(5, 2, &mut rng));
        let x = Tensor::randn(&[2, 3], 1.0, &mut rng);
        let target = Tensor::randn(&[2, 2], 1.0, &mut rng);
        let y = net.forward(&x);
        let (_, grad) = mse(&y, &target);
        net.zero_grad();
        let gx = net.backward(&grad);

        let eps = 1e-2f32;
        for idx in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let (lp, _) = mse(&net.forward(&xp), &target);
            let (lm, _) = mse(&net.forward(&xm), &target);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - gx.data()[idx]).abs() < 2e-2,
                "grad mismatch at {idx}: {numeric} vs {}",
                gx.data()[idx]
            );
        }
    }

    #[test]
    fn zero_grad_clears_all_layers() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net =
            Sequential::new().with(Linear::new(2, 2, &mut rng)).with(Linear::new(2, 2, &mut rng));
        let x = Tensor::randn(&[1, 2], 1.0, &mut rng);
        let y = net.forward(&x);
        let (_, grad) = mse(&y, &Tensor::zeros(&[1, 2]));
        let _ = net.backward(&grad);
        let mut nonzero = 0;
        net.visit_params(&mut |p| nonzero += p.grad.data().iter().filter(|v| **v != 0.0).count());
        assert!(nonzero > 0);
        net.zero_grad();
        let mut remaining = 0;
        net.visit_params(&mut |p| remaining += p.grad.data().iter().filter(|v| **v != 0.0).count());
        assert_eq!(remaining, 0);
    }
}
