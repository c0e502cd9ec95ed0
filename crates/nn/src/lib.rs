//! Minimal CPU deep-learning substrate for the wafer-map
//! deep-selective-learning reproduction.
//!
//! This crate provides everything the paper's models need and nothing
//! more: a dense `f32` [`Tensor`], a threaded GEMM, convolution
//! (plain, or fused with ReLU and 2×2 max-pool as
//! [`layers::ConvBlock`]), max-pool, upsample and linear layers with
//! **manual backpropagation**, ReLU/sigmoid activations, fused softmax
//! cross-entropy and MSE losses, He initialization, and the Adam
//! optimizer. Parameter values ([`serialize::StateDict`]) and Adam
//! state ([`optim::AdamState`]) serialize with `serde` for
//! checkpointing.
//!
//! The design follows a classic layer-object architecture: each
//! [`Layer`] computes its output in one place, [`Layer::infer`];
//! `forward` runs that same computation and also caches whatever
//! `backward` consumes. Each layer owns its [`Param`]s (value +
//! gradient); the optimizer owns its moments. A [`Sequential`]
//! container chains layers; multi-head models (like SelectiveNet)
//! compose layers manually.
//!
//! # Example
//!
//! ```
//! use nn::{layers::{Linear, Relu}, Layer, Sequential, Tensor, optim::Adam, loss::softmax_cross_entropy};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut net = Sequential::new()
//!     .with(Linear::new(4, 16, &mut rng))
//!     .with(Relu::new())
//!     .with(Linear::new(16, 3, &mut rng));
//! let x = Tensor::randn(&[8, 4], 1.0, &mut rng);
//! let logits = net.forward(&x);
//! assert_eq!(logits.shape(), &[8, 3]);
//! let labels = vec![0usize, 1, 2, 0, 1, 2, 0, 1];
//! let (loss, grad) = softmax_cross_entropy(&logits, &labels, None);
//! assert!(loss.is_finite());
//! net.zero_grad();
//! net.backward(&grad);
//! let mut adam = Adam::new(1e-3);
//! adam.step(&mut net);
//! ```

// `deny` rather than `forbid`: two modules opt back in, each with
// documented invariants — the worker pool (lifetime-erased job
// pointers and disjoint slice shards) and the SIMD kernels
// (raw-pointer vector loads/stores behind hoisted bounds proofs).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod param;
mod sequential;
mod tensor;

pub mod gemm;
pub mod init;
pub mod layers;
pub mod loss;
pub mod optim;
pub mod pool;
pub mod serialize;
pub mod simd;
pub mod workspace;

pub use param::Param;
pub use sequential::Sequential;
pub use tensor::Tensor;

/// A differentiable network component with cached state for manual
/// backpropagation.
///
/// Contract: `backward` must be called after `forward` with a gradient
/// of the same shape as the last forward output, and returns the
/// gradient with respect to that forward input. Layers accumulate
/// parameter gradients (they do not overwrite), so call
/// [`Layer::zero_grad`] between optimizer steps.
pub trait Layer: std::fmt::Debug + Send + Sync {
    /// Compute the layer output for `input`, caching activations
    /// needed by the backward pass.
    ///
    /// Every layer in [`layers`] computes the output with the same code
    /// as [`Layer::infer`] and only adds the cache capture, so the two
    /// passes are bit-identical.
    fn forward(&mut self, input: &Tensor) -> Tensor;

    /// Inference-only forward pass: same output as [`Layer::forward`],
    /// bit for bit, but through `&self` — no activation caches are
    /// written, so nothing is retained for `backward`. The output
    /// tensor is still allocated per call.
    ///
    /// This is the serving path. It runs single-threaded per call;
    /// callers parallelize **across samples** (see
    /// `pool::parallel_map`), which keeps each sample's working set
    /// cache-resident and makes results independent of the worker-pool
    /// size.
    ///
    /// # Panics
    ///
    /// The default implementation panics. Every layer in [`layers`]
    /// overrides it; the default serves only composite types outside
    /// this crate that have no inference-only pass.
    fn infer(&self, _input: &Tensor) -> Tensor {
        panic!("this layer does not implement the inference-only forward pass");
    }

    /// Propagate `grad_output` (d loss / d output) backward, returning
    /// d loss / d input and accumulating parameter gradients.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward` or with a
    /// gradient whose shape does not match the last output.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// Accumulate parameter gradients for `grad_output`, exactly as
    /// [`Layer::backward`] does, without computing the input gradient:
    /// for a network's first layer, whose input gradient nobody reads.
    ///
    /// The default runs `backward` and drops its result. A layer that
    /// overrides it must leave bit-identical parameter gradients.
    ///
    /// # Panics
    ///
    /// As [`Layer::backward`].
    fn backward_params(&mut self, grad_output: &Tensor) {
        let _ = self.backward(grad_output);
    }

    /// Visit every trainable parameter (for optimizers and
    /// serialization). Stateless layers use the default empty impl.
    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut Param)) {}

    /// Reset all parameter gradients to zero.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.grad.fill(0.0));
    }

    /// Total number of trainable scalar parameters.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.value.numel());
        n
    }
}
