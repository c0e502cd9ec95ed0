use crate::Tensor;

/// A trainable parameter: its value and the gradient accumulated by
/// `backward`.
///
/// Optimizer state is not kept here: [`crate::optim::Adam`] owns its
/// moment buffers, indexed in [`crate::Layer::visit_params`] order.
///
/// # Example
///
/// ```
/// use nn::{Param, Tensor};
///
/// let mut p = Param::new(Tensor::zeros(&[2, 2]));
/// p.grad.fill(1.0);
/// assert_eq!(p.grad.sum(), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Current parameter value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
}

impl Param {
    /// Wrap an initial value with a zeroed gradient.
    #[must_use]
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Param { value, grad }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zeroed_state() {
        let p = Param::new(Tensor::full(&[3], 5.0));
        assert_eq!(p.value.sum(), 15.0);
        assert_eq!(p.grad.sum(), 0.0);
        assert_eq!(p.grad.shape(), p.value.shape());
    }
}
