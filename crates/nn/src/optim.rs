//! First-order optimizers operating on [`Layer`] parameter trees.
//!
//! Optimizer moment buffers live inside each [`crate::Param`], so an
//! optimizer holds only hyper-parameters and a step counter and can be
//! applied to any set of layers — including multi-head models passed
//! as several disjoint layers via [`Adam::step_multi`].

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{Layer, Param};

/// Adam optimizer (Kingma & Ba) — the optimizer the paper trains with.
///
/// Moments are stored in each parameter's `m`/`v` buffers; the bias
/// correction uses this optimizer's global step count, which increments
/// once per [`Adam::step`]/[`Adam::step_multi`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
}

impl Adam {
    /// Adam with standard betas `(0.9, 0.999)` and `eps = 1e-8`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive.
    #[must_use]
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0 }
    }

    /// Override the exponential decay rates.
    ///
    /// # Panics
    ///
    /// Panics if either beta is outside `[0, 1)`.
    #[must_use]
    pub fn with_betas(mut self, beta1: f32, beta2: f32) -> Self {
        assert!((0.0..1.0).contains(&beta1) && (0.0..1.0).contains(&beta2), "betas in [0,1)");
        self.beta1 = beta1;
        self.beta2 = beta2;
        self
    }

    /// Current learning rate.
    #[must_use]
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// Number of steps taken so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Snapshot the optimizer's full state: the step counter `t` that
    /// drives bias correction, plus the hyper-parameters for
    /// validation on restore.
    ///
    /// Per-parameter moments live in each [`Param`] and are captured
    /// by [`crate::serialize::StateDict`]; this covers everything
    /// else, so the pair `(StateDict, AdamState)` resumes training
    /// exactly.
    #[must_use]
    pub fn state(&self) -> AdamState {
        AdamState { t: self.t, lr: self.lr, beta1: self.beta1, beta2: self.beta2, eps: self.eps }
    }

    /// Rebuild an optimizer from a snapshot taken with
    /// [`Adam::state`].
    ///
    /// # Errors
    ///
    /// Returns [`StateError`] if the snapshot's hyper-parameters are
    /// out of range (e.g. a corrupted or hand-edited checkpoint).
    pub fn from_state(state: &AdamState) -> Result<Self, StateError> {
        if !(state.lr > 0.0 && state.lr.is_finite()) {
            return Err(StateError::InvalidLearningRate { lr: state.lr });
        }
        if !((0.0..1.0).contains(&state.beta1) && (0.0..1.0).contains(&state.beta2)) {
            return Err(StateError::InvalidBetas { beta1: state.beta1, beta2: state.beta2 });
        }
        if !(state.eps > 0.0 && state.eps.is_finite()) {
            return Err(StateError::InvalidEpsilon { eps: state.eps });
        }
        Ok(Adam {
            lr: state.lr,
            beta1: state.beta1,
            beta2: state.beta2,
            eps: state.eps,
            t: state.t,
        })
    }

    /// Apply one update to every parameter of `layer`.
    pub fn step(&mut self, layer: &mut dyn Layer) {
        self.step_multi(&mut [layer]);
    }

    /// Apply one update across several disjoint layers, advancing the
    /// step counter once.
    pub fn step_multi(&mut self, layers: &mut [&mut dyn Layer]) {
        self.t += 1;
        let t = self.t as f32;
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let bc1 = 1.0 - b1.powf(t);
        let bc2 = 1.0 - b2.powf(t);
        for layer in layers {
            layer.visit_params(&mut |p: &mut Param| {
                let grad = p.grad.data();
                let m = p.m.data_mut();
                for (mi, &gi) in m.iter_mut().zip(grad) {
                    *mi = b1 * *mi + (1.0 - b1) * gi;
                }
                let v = p.v.data_mut();
                for (vi, &gi) in v.iter_mut().zip(grad) {
                    *vi = b2 * *vi + (1.0 - b2) * gi * gi;
                }
                let value = p.value.data_mut();
                for ((wi, &mi), &vi) in value.iter_mut().zip(p.m.data()).zip(p.v.data()) {
                    let m_hat = mi / bc1;
                    let v_hat = vi / bc2;
                    *wi -= lr * m_hat / (v_hat.sqrt() + eps);
                }
            });
        }
    }
}

/// Serializable [`Adam`] state: the bias-correction step counter and
/// the hyper-parameters it was configured with.
///
/// The step counter is the piece of optimizer state that does *not*
/// live in the per-parameter moment buffers — dropping it from a
/// checkpoint silently changes the bias correction `1 − βᵗ` after a
/// resume, so resumed training diverges from an uninterrupted run.
/// The hyper-parameters are carried alongside so a resume can verify
/// the checkpoint matches the configured optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdamState {
    /// Steps taken so far (drives the bias correction).
    pub t: u64,
    /// Learning rate at capture time.
    pub lr: f32,
    /// First-moment decay rate.
    pub beta1: f32,
    /// Second-moment decay rate.
    pub beta2: f32,
    /// Denominator stabilizer.
    pub eps: f32,
}

/// Error rebuilding an [`Adam`] from an invalid [`AdamState`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StateError {
    /// Learning rate was non-positive or non-finite.
    InvalidLearningRate {
        /// The offending value.
        lr: f32,
    },
    /// A beta was outside `[0, 1)`.
    InvalidBetas {
        /// First-moment decay rate.
        beta1: f32,
        /// Second-moment decay rate.
        beta2: f32,
    },
    /// Epsilon was non-positive or non-finite.
    InvalidEpsilon {
        /// The offending value.
        eps: f32,
    },
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::InvalidLearningRate { lr } => {
                write!(f, "Adam state has invalid learning rate {lr}")
            }
            StateError::InvalidBetas { beta1, beta2 } => {
                write!(f, "Adam state has invalid betas ({beta1}, {beta2})")
            }
            StateError::InvalidEpsilon { eps } => {
                write!(f, "Adam state has invalid epsilon {eps}")
            }
        }
    }
}

impl std::error::Error for StateError {}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;
    use crate::layers::{Linear, Relu};
    use crate::loss::mse;
    use crate::{Sequential, Tensor};

    /// Train y = 2x1 - 3x2 + 1 with a linear model.
    fn fit_linear(optim: &mut dyn FnMut(&mut Sequential), epochs: usize) -> f32 {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = Sequential::new().with(Linear::new(2, 1, &mut rng));
        let xs: Vec<f32> =
            (0..64).flat_map(|i| vec![(i % 8) as f32 / 8.0, (i / 8) as f32 / 8.0]).collect();
        let ys: Vec<f32> = xs.chunks(2).map(|p| 2.0 * p[0] - 3.0 * p[1] + 1.0).collect();
        let x = Tensor::from_vec(xs, &[64, 2]);
        let t = Tensor::from_vec(ys, &[64, 1]);
        let mut last = f32::MAX;
        for _ in 0..epochs {
            let y = net.forward(&x);
            let (loss, grad) = mse(&y, &t);
            net.zero_grad();
            net.backward(&grad);
            optim(&mut net);
            last = loss;
        }
        last
    }

    #[test]
    fn adam_converges_on_linear_regression() {
        let mut adam = Adam::new(0.05);
        let loss = fit_linear(&mut |net| adam.step(net), 300);
        assert!(loss < 1e-3, "Adam failed to converge: {loss}");
    }

    #[test]
    fn adam_trains_a_nonlinear_network() {
        // XOR-ish regression only solvable with the hidden layer.
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = Sequential::new()
            .with(Linear::new(2, 16, &mut rng))
            .with(Relu::new())
            .with(Linear::new(16, 1, &mut rng));
        let x = Tensor::from_vec(vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0], &[4, 2]);
        let t = Tensor::from_vec(vec![0.0, 1.0, 1.0, 0.0], &[4, 1]);
        let mut adam = Adam::new(0.02);
        let mut loss = f32::MAX;
        for _ in 0..800 {
            let y = net.forward(&x);
            let (l, grad) = mse(&y, &t);
            net.zero_grad();
            net.backward(&grad);
            adam.step(&mut net);
            loss = l;
        }
        assert!(loss < 1e-2, "XOR not learned: {loss}");
    }

    #[test]
    fn step_counter_advances_once_per_multi_step() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut a = Linear::new(2, 2, &mut rng);
        let mut b = Linear::new(2, 2, &mut rng);
        let mut adam = Adam::new(0.01);
        adam.step_multi(&mut [&mut a, &mut b]);
        assert_eq!(adam.steps(), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_learning_rate_rejected() {
        let _ = Adam::new(0.0);
    }

    #[test]
    fn state_roundtrip_preserves_counter_and_hyperparams() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = Linear::new(2, 2, &mut rng);
        let mut adam = Adam::new(0.01).with_betas(0.8, 0.95);
        for _ in 0..3 {
            adam.step(&mut net);
        }
        let state = adam.state();
        assert_eq!(state.t, 3);
        let restored = Adam::from_state(&state).expect("valid state");
        assert_eq!(restored, adam);
    }

    #[test]
    fn from_state_rejects_corrupted_hyperparams() {
        let good = Adam::new(0.01).state();
        let cases = [
            AdamState { lr: -1.0, ..good },
            AdamState { lr: f32::NAN, ..good },
            AdamState { beta1: 1.0, ..good },
            AdamState { beta2: -0.1, ..good },
            AdamState { eps: 0.0, ..good },
        ];
        for bad in cases {
            assert!(Adam::from_state(&bad).is_err(), "accepted invalid state {bad:?}");
        }
    }

    /// The regression the checkpoint bundle exists to prevent: resuming
    /// with a fresh step counter (t = 0) changes the bias correction
    /// and diverges from an uninterrupted run; restoring `t` does not.
    #[test]
    fn restoring_step_counter_matches_uninterrupted_run() {
        let make_net = || {
            let mut rng = StdRng::seed_from_u64(6);
            Linear::new(3, 2, &mut rng)
        };
        let grad_step = |net: &mut Linear, adam: &mut Adam, seed: u64| {
            net.visit_params(&mut |p: &mut Param| {
                let data = p.grad.data_mut();
                for (i, g) in data.iter_mut().enumerate() {
                    *g = ((seed as f32) + i as f32).sin();
                }
            });
            adam.step(net);
        };

        // Uninterrupted: 6 steps with one optimizer.
        let mut straight = make_net();
        let mut adam = Adam::new(0.05);
        for s in 0..6 {
            grad_step(&mut straight, &mut adam, s);
        }

        // Interrupted after 3 steps; resume restores `t` via AdamState.
        let mut resumed = make_net();
        let mut adam_a = Adam::new(0.05);
        for s in 0..3 {
            grad_step(&mut resumed, &mut adam_a, s);
        }
        let mut adam_b = Adam::from_state(&adam_a.state()).expect("valid state");
        for s in 3..6 {
            grad_step(&mut resumed, &mut adam_b, s);
        }
        let collect = |net: &mut Linear| {
            let mut out = Vec::new();
            net.visit_params(&mut |p: &mut Param| out.extend_from_slice(p.value.data()));
            out
        };
        assert_eq!(collect(&mut straight), collect(&mut resumed));

        // A fresh optimizer (the pre-fix behavior) diverges.
        let mut broken = make_net();
        let mut adam_c = Adam::new(0.05);
        for s in 0..3 {
            grad_step(&mut broken, &mut adam_c, s);
        }
        let mut adam_d = Adam::new(0.05); // t silently reset to 0
        for s in 3..6 {
            grad_step(&mut broken, &mut adam_d, s);
        }
        assert_ne!(
            collect(&mut straight),
            collect(&mut broken),
            "losing the step counter should diverge (otherwise this test is vacuous)"
        );
    }
}
