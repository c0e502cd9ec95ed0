use nn::layers::{Conv2d, ConvBlock, Relu, Sigmoid, Upsample2d};
use nn::loss::mse;
use nn::optim::Adam;
use nn::{Layer, Sequential, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Architecture of the convolutional auto-encoder (paper Fig. 3).
///
/// Encoder: three 5×5 convolutions, each followed by ReLU and 2×2
/// max-pooling, giving a latent feature map of
/// `channels[2] x grid/8 x grid/8`. Decoder: the mirror image, with
/// factor-2 nearest upsampling replacing pooling and a final sigmoid
/// so reconstructions live in `[0, 1]` (the normalized wafer pixel
/// range).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AutoencoderConfig {
    /// Input wafer grid side length (must be a multiple of 8).
    pub grid: usize,
    /// Encoder filter counts, shallow to deep.
    pub channels: [usize; 3],
    /// Convolution kernel size (the paper uses 5×5 throughout).
    pub kernel: usize,
}

impl AutoencoderConfig {
    /// Paper-style configuration for a given grid.
    ///
    /// # Panics
    ///
    /// Panics if `grid` is not a positive multiple of 8.
    #[must_use]
    pub fn for_grid(grid: usize) -> Self {
        assert!(grid > 0 && grid.is_multiple_of(8), "grid must be a positive multiple of 8");
        AutoencoderConfig { grid, channels: [16, 8, 8], kernel: 5 }
    }

    /// Override the encoder channel counts.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero.
    #[must_use]
    pub fn with_channels(mut self, channels: [usize; 3]) -> Self {
        assert!(channels.iter().all(|&c| c > 0), "channel counts must be non-zero");
        self.channels = channels;
        self
    }

    /// Latent tensor shape `[channels[2], grid/8, grid/8]`.
    #[must_use]
    pub fn latent_shape(&self) -> [usize; 3] {
        [self.channels[2], self.grid / 8, self.grid / 8]
    }
}

/// Convolutional auto-encoder for one wafer defect class.
///
/// # Example
///
/// ```
/// use augment::{AutoencoderConfig, ConvAutoencoder};
/// use nn::Tensor;
///
/// let config = AutoencoderConfig::for_grid(16).with_channels([4, 4, 4]);
/// let mut ae = ConvAutoencoder::new(&config, 0);
/// let x = Tensor::full(&[2, 1, 16, 16], 0.5);
/// let z = ae.encode(&x);
/// assert_eq!(z.shape(), &[2, 4, 2, 2]);
/// let recon = ae.decode(&z);
/// assert_eq!(recon.shape(), x.shape());
/// ```
#[derive(Debug)]
pub struct ConvAutoencoder {
    config: AutoencoderConfig,
    encoder: Sequential,
    decoder: Sequential,
}

impl ConvAutoencoder {
    /// Freshly initialized auto-encoder.
    #[must_use]
    pub fn new(config: &AutoencoderConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let [c1, c2, c3] = config.channels;
        let k = config.kernel;
        let encoder = Sequential::new()
            .with(ConvBlock::new(Conv2d::same(1, c1, k, &mut rng)))
            .with(ConvBlock::new(Conv2d::same(c1, c2, k, &mut rng)))
            .with(ConvBlock::new(Conv2d::same(c2, c3, k, &mut rng)));
        let decoder = Sequential::new()
            .with(Upsample2d::new(2))
            .with(Conv2d::same(c3, c2, k, &mut rng))
            .with(Relu::new())
            .with(Upsample2d::new(2))
            .with(Conv2d::same(c2, c1, k, &mut rng))
            .with(Relu::new())
            .with(Upsample2d::new(2))
            .with(Conv2d::same(c1, 1, k, &mut rng))
            .with(Sigmoid::new());
        ConvAutoencoder { config: *config, encoder, decoder }
    }

    /// The architecture configuration.
    #[must_use]
    pub fn config(&self) -> &AutoencoderConfig {
        &self.config
    }

    /// Encode a `[N, 1, grid, grid]` batch into latent maps
    /// `[N, c3, grid/8, grid/8]`.
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match the configuration.
    pub fn encode(&mut self, images: &Tensor) -> Tensor {
        let s = images.shape();
        assert_eq!(
            s,
            &[s[0], 1, self.config.grid, self.config.grid],
            "expected [N, 1, {g}, {g}] input",
            g = self.config.grid
        );
        self.encoder.forward(images)
    }

    /// Decode latent maps back to `[N, 1, grid, grid]` images in
    /// `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if the latent shape does not match the configuration.
    pub fn decode(&mut self, latent: &Tensor) -> Tensor {
        let [c, h, w] = self.config.latent_shape();
        let s = latent.shape();
        assert_eq!(s, &[s[0], c, h, w], "expected [N, {c}, {h}, {w}] latent");
        self.decoder.forward(latent)
    }

    /// Full reconstruction pass.
    pub fn reconstruct(&mut self, images: &Tensor) -> Tensor {
        let z = self.encode(images);
        self.decode(&z)
    }

    /// Total trainable parameter count.
    #[must_use]
    pub fn param_count(&mut self) -> usize {
        self.encoder.param_count() + self.decoder.param_count()
    }

    /// Train the auto-encoder to reconstruct `images`
    /// (`[N, 1, grid, grid]`) with MSE loss and Adam.
    ///
    /// Returns the mean reconstruction loss of each epoch.
    ///
    /// # Panics
    ///
    /// Panics if `images` is empty or hyper-parameters are degenerate.
    pub fn train(
        &mut self,
        images: &Tensor,
        epochs: usize,
        batch_size: usize,
        learning_rate: f32,
        seed: u64,
    ) -> Vec<f32> {
        let n = images.shape()[0];
        assert!(n > 0, "cannot train on an empty batch");
        assert!(epochs > 0 && batch_size > 0, "degenerate training parameters");
        let pixels = self.config.grid * self.config.grid;
        let mut adam = Adam::new(learning_rate);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..n).collect();
        let mut history = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            order.shuffle(&mut rng);
            let mut loss_sum = 0.0f64;
            let mut seen = 0usize;
            for batch in order.chunks(batch_size) {
                let mut data = Vec::with_capacity(batch.len() * pixels);
                for &i in batch {
                    data.extend_from_slice(&images.data()[i * pixels..(i + 1) * pixels]);
                }
                let x =
                    Tensor::from_vec(data, &[batch.len(), 1, self.config.grid, self.config.grid]);
                let recon = self.reconstruct(&x);
                let (loss, grad) = mse(&recon, &x);
                self.encoder.zero_grad();
                self.decoder.zero_grad();
                let grad_latent = self.decoder.backward(&grad);
                self.encoder.backward_params(&grad_latent);
                adam.step_multi(&mut [&mut self.encoder, &mut self.decoder]);
                loss_sum += f64::from(loss) * batch.len() as f64;
                seen += batch.len();
            }
            history.push((loss_sum / seen as f64) as f32);
        }
        history
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> AutoencoderConfig {
        AutoencoderConfig::for_grid(16).with_channels([4, 4, 4])
    }

    #[test]
    fn shapes_roundtrip() {
        let mut ae = ConvAutoencoder::new(&tiny(), 0);
        let x = Tensor::full(&[3, 1, 16, 16], 0.5);
        let z = ae.encode(&x);
        assert_eq!(z.shape(), &[3, 4, 2, 2]);
        let y = ae.decode(&z);
        assert_eq!(y.shape(), &[3, 1, 16, 16]);
        assert!(y.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn latent_math() {
        let cfg = AutoencoderConfig::for_grid(32);
        assert_eq!(cfg.latent_shape(), [8, 4, 4]);
    }

    #[test]
    fn training_reduces_reconstruction_loss() {
        let mut ae = ConvAutoencoder::new(&tiny(), 1);
        // A fixed batch of simple structured images: half bright,
        // half mid-level.
        let mut data = Vec::new();
        for i in 0..8 {
            let v = if i % 2 == 0 { 1.0 } else { 0.5 };
            data.extend(std::iter::repeat_n(v, 256));
        }
        let x = Tensor::from_vec(data, &[8, 1, 16, 16]);
        let history = ae.train(&x, 30, 8, 5e-3, 2);
        assert!(
            history.last().copied().expect("history") < history[0] * 0.5,
            "loss did not halve: {history:?}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = tiny();
        let mut a = ConvAutoencoder::new(&cfg, 3);
        let mut b = ConvAutoencoder::new(&cfg, 3);
        let x = Tensor::full(&[1, 1, 16, 16], 0.7);
        assert_eq!(a.reconstruct(&x).data(), b.reconstruct(&x).data());
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn bad_grid_rejected() {
        let _ = AutoencoderConfig::for_grid(12);
    }

    #[test]
    #[should_panic(expected = "latent")]
    fn decode_validates_shape() {
        let mut ae = ConvAutoencoder::new(&tiny(), 4);
        let _ = ae.decode(&Tensor::zeros(&[1, 3, 2, 2]));
    }
}
