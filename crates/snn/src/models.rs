//! Model builders.
//!
//! Two families are provided:
//!
//! 1. **Trainable, scaled-down backbones** ([`vgg_small`], [`resnet_small`])
//!    — VGG- and ResNet-style spiking networks sized so that CPU training
//!    converges in seconds. These drive every accuracy experiment. Their
//!    IMC geometry and each weight layer's spike source are read off the
//!    built network ([`Snn::weight_layers`]), so the builder is their only
//!    description.
//! 2. **Paper-size layer geometries** ([`vgg16_geometry`],
//!    [`resnet19_geometry`]) — the exact layer shapes of VGG-16 and
//!    ResNet-19 used for the IMC mapping/energy experiments (Fig. 1), which
//!    need only geometry and spike statistics, not trained weights. No
//!    network of that size is ever built, so these stay hand-written.

use crate::layer::Layer;
use crate::layers::{AvgPool2d, BatchNorm2d, Conv2d, Flatten, Linear, ResidualBlock};
use crate::lif::{LifConfig, LifNeuron};
use crate::network::Snn;
use crate::{Result, SnnError};
use dtsnn_tensor::TensorRng;

/// Configuration shared by the scaled model builders.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelConfig {
    /// Input channels (1 for event frames, 3 for RGB-like synthetic images).
    pub in_channels: usize,
    /// Input spatial extent (square).
    pub image_size: usize,
    /// Number of output classes.
    pub num_classes: usize,
    /// LIF neuron configuration used throughout.
    pub lif: LifConfig,
    /// Base channel width (default 32).
    pub width: usize,
    /// tdBN scale α: BatchNorm γ is initialized to `α·V_th`. α < 1 makes
    /// pre-activations small relative to the threshold, so the membrane
    /// needs several timesteps to charge — the mechanism behind the paper's
    /// low first-timestep accuracy.
    pub tdbn_alpha: f32,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            in_channels: 3,
            image_size: 16,
            num_classes: 10,
            lif: LifConfig::default(),
            width: 32,
            tdbn_alpha: 1.0,
        }
    }
}

impl ModelConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] when extents are zero or the image
    /// is too small for two 2× poolings.
    pub fn validate(&self) -> Result<()> {
        self.lif.validate()?;
        if self.in_channels == 0 || self.num_classes == 0 || self.width == 0 {
            return Err(SnnError::InvalidConfig("channels/classes/width must be nonzero".into()));
        }
        if !(self.tdbn_alpha > 0.0 && self.tdbn_alpha.is_finite()) {
            return Err(SnnError::InvalidConfig(format!(
                "tdbn_alpha must be positive and finite, got {}",
                self.tdbn_alpha
            )));
        }
        if self.image_size < 8 || !self.image_size.is_multiple_of(4) {
            return Err(SnnError::InvalidConfig(format!(
                "image_size must be a multiple of 4 and ≥ 8, got {}",
                self.image_size
            )));
        }
        Ok(())
    }

    /// Dims of one input sample, `[in_channels, image_size, image_size]`:
    /// what [`Snn::weight_layers`] threads through a built backbone.
    pub fn input_dims(&self) -> [usize; 3] {
        [self.in_channels, self.image_size, self.image_size]
    }
}

fn bn(channels: usize, config: &ModelConfig) -> BatchNorm2d {
    // tdBN-style init: γ = α·V_th (Zheng et al. [23]).
    BatchNorm2d::tdbn(channels, config.tdbn_alpha * config.lif.v_th)
}

/// Builds the scaled spiking VGG used for accuracy experiments:
/// `[Conv-BN-LIF]×2 → pool → [Conv-BN-LIF]×2 → pool → Conv-BN-LIF → FC`.
///
/// With defaults (16×16, width 32) this is a 6-layer network in the spirit
/// of the paper's VGG-16 but small enough to train on a CPU in seconds.
///
/// # Errors
///
/// Returns [`SnnError::InvalidConfig`] for invalid configurations.
pub fn vgg_small(config: &ModelConfig, rng: &mut TensorRng) -> Result<Snn> {
    config.validate()?;
    let w = config.width;
    let lif = config.lif;
    let mut layers: Vec<Box<dyn Layer>> = vec![
        // direct encoding: the first Conv-BN-LIF block encodes pixels to spikes
        Box::new(Conv2d::new(config.in_channels, w, 3, 1, 1, rng)?),
        Box::new(bn(w, config)),
        Box::new(LifNeuron::new(lif)),
        Box::new(Conv2d::new(w, w, 3, 1, 1, rng)?),
        Box::new(bn(w, config)),
        Box::new(LifNeuron::new(lif)),
        Box::new(AvgPool2d::new(2)?),
        Box::new(Conv2d::new(w, 2 * w, 3, 1, 1, rng)?),
        Box::new(bn(2 * w, config)),
        Box::new(LifNeuron::new(lif)),
        Box::new(Conv2d::new(2 * w, 2 * w, 3, 1, 1, rng)?),
        Box::new(bn(2 * w, config)),
        Box::new(LifNeuron::new(lif)),
        Box::new(AvgPool2d::new(2)?),
        Box::new(Conv2d::new(2 * w, 2 * w, 3, 1, 1, rng)?),
        Box::new(bn(2 * w, config)),
        Box::new(LifNeuron::new(lif)),
        Box::new(Flatten::new()),
    ];
    let spatial = config.image_size / 4;
    layers.push(Box::new(Linear::new(2 * w * spatial * spatial, config.num_classes, rng)));
    Ok(Snn::from_layers(layers))
}

/// Builds the scaled spiking ResNet used for accuracy experiments:
/// stem Conv-BN-LIF, one identity residual block, pool, one projection
/// residual block (stride 2), pool, FC.
///
/// # Errors
///
/// Returns [`SnnError::InvalidConfig`] for invalid configurations.
pub fn resnet_small(config: &ModelConfig, rng: &mut TensorRng) -> Result<Snn> {
    config.validate()?;
    let w = config.width;
    let lif = config.lif;
    // Stage 1: identity block at width w.
    let block1 = ResidualBlock::new(
        vec![
            Box::new(Conv2d::new(w, w, 3, 1, 1, rng)?),
            Box::new(bn(w, config)),
            Box::new(LifNeuron::new(lif)),
            Box::new(Conv2d::new(w, w, 3, 1, 1, rng)?),
            Box::new(bn(w, config)),
        ],
        vec![],
        lif,
    );
    // Stage 2: projection block w → 2w with stride 2.
    let block2 = ResidualBlock::new(
        vec![
            Box::new(Conv2d::new(w, 2 * w, 3, 2, 1, rng)?),
            Box::new(bn(2 * w, config)),
            Box::new(LifNeuron::new(lif)),
            Box::new(Conv2d::new(2 * w, 2 * w, 3, 1, 1, rng)?),
            Box::new(bn(2 * w, config)),
        ],
        vec![Box::new(Conv2d::new(w, 2 * w, 1, 2, 0, rng)?), Box::new(bn(2 * w, config))],
        lif,
    );
    let spatial = config.image_size / 4;
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(config.in_channels, w, 3, 1, 1, rng)?),
        Box::new(bn(w, config)),
        Box::new(LifNeuron::new(lif)),
        Box::new(block1),
        Box::new(block2),
        Box::new(AvgPool2d::new(2)?),
        Box::new(Flatten::new()),
        // stride-2 block then 2× pool → spatial = image/4 at width 2w
        Box::new(Linear::new(2 * w * spatial * spatial, config.num_classes, rng)),
    ];
    Ok(Snn::from_layers(layers))
}

// ===========================================================================
// Paper-size geometry descriptors (for the IMC mapper)
// ===========================================================================

/// Shape of one weight-bearing layer, as consumed by the IMC mapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerGeometry {
    /// Convolution: channels, kernel, stride, padding and input extent.
    Conv {
        /// Input channels.
        in_channels: usize,
        /// Output channels.
        out_channels: usize,
        /// Kernel extent.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Padding.
        padding: usize,
        /// Input height.
        in_h: usize,
        /// Input width.
        in_w: usize,
    },
    /// Fully connected: feature counts.
    Fc {
        /// Input features.
        in_features: usize,
        /// Output features.
        out_features: usize,
    },
}

impl LayerGeometry {
    /// Weight-matrix shape `[rows, cols]` when unrolled for a crossbar:
    /// rows = fan-in (crossbar wordlines), cols = fan-out (bitlines).
    pub fn matrix_shape(&self) -> (usize, usize) {
        match *self {
            LayerGeometry::Conv { in_channels, out_channels, kernel, .. } => {
                (in_channels * kernel * kernel, out_channels)
            }
            LayerGeometry::Fc { in_features, out_features } => (in_features, out_features),
        }
    }

    /// Output spatial extent (1×1 for FC layers).
    pub fn output_hw(&self) -> (usize, usize) {
        match *self {
            LayerGeometry::Conv { kernel, stride, padding, in_h, in_w, .. } => {
                let oh = (in_h + 2 * padding - kernel) / stride + 1;
                let ow = (in_w + 2 * padding - kernel) / stride + 1;
                (oh, ow)
            }
            LayerGeometry::Fc { .. } => (1, 1),
        }
    }

    /// MAC operations for one inference timestep.
    pub fn macs(&self) -> usize {
        let (rows, cols) = self.matrix_shape();
        let (oh, ow) = self.output_hw();
        rows * cols * oh * ow
    }

    /// Number of crossbar input-vector presentations per timestep: one per
    /// output pixel for convs, one for FC.
    pub fn vector_presentations(&self) -> usize {
        let (oh, ow) = self.output_hw();
        oh * ow
    }
}

/// Where a weight layer's input spikes come from, as
/// [`Snn::weight_layers`] pairs it with the layer's geometry: the index into
/// measured [`crate::SpikeActivity`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DensitySource {
    /// The analog-encoded network input (density treated as 1.0).
    Input,
    /// Output of the `i`-th spiking layer (forward order).
    SpikingLayer(usize),
}

/// The 13 conv + 3 FC geometry of VGG-16 \[16\] at a given input extent
/// (32 for CIFAR, 64 for TinyImageNet).
pub fn vgg16_geometry(input_size: usize, in_channels: usize, classes: usize) -> Vec<LayerGeometry> {
    let cfg: [(usize, usize); 13] = [
        (in_channels, 64),
        (64, 64),
        (64, 128),
        (128, 128),
        (128, 256),
        (256, 256),
        (256, 256),
        (256, 512),
        (512, 512),
        (512, 512),
        (512, 512),
        (512, 512),
        (512, 512),
    ];
    // max-pool after conv indices 1, 3, 6, 9, 12 (0-based)
    let pool_after = [1usize, 3, 6, 9, 12];
    let mut layers = Vec::new();
    let mut hw = input_size;
    for (i, &(ci, co)) in cfg.iter().enumerate() {
        layers.push(LayerGeometry::Conv {
            in_channels: ci,
            out_channels: co,
            kernel: 3,
            stride: 1,
            padding: 1,
            in_h: hw,
            in_w: hw,
        });
        if pool_after.contains(&i) {
            hw /= 2;
        }
    }
    let feat = 512 * hw * hw;
    layers.push(LayerGeometry::Fc { in_features: feat, out_features: 4096 });
    layers.push(LayerGeometry::Fc { in_features: 4096, out_features: 4096 });
    layers.push(LayerGeometry::Fc { in_features: 4096, out_features: classes });
    layers
}

/// The ResNet-19 geometry of Zheng et al. \[23\]: stem conv, stages of
/// [3, 3, 2] basic blocks at widths [128, 256, 512], then two FC layers.
pub fn resnet19_geometry(
    input_size: usize,
    in_channels: usize,
    classes: usize,
) -> Vec<LayerGeometry> {
    let mut layers = Vec::new();
    let mut hw = input_size;
    let mut c_in = 128;
    layers.push(LayerGeometry::Conv {
        in_channels,
        out_channels: 128,
        kernel: 3,
        stride: 1,
        padding: 1,
        in_h: hw,
        in_w: hw,
    });
    let stages = [(128usize, 3usize, 1usize), (256, 3, 2), (512, 2, 2)];
    for &(width, blocks, first_stride) in &stages {
        for b in 0..blocks {
            let stride = if b == 0 { first_stride } else { 1 };
            layers.push(LayerGeometry::Conv {
                in_channels: c_in,
                out_channels: width,
                kernel: 3,
                stride,
                padding: 1,
                in_h: hw,
                in_w: hw,
            });
            let out_hw = hw / stride;
            layers.push(LayerGeometry::Conv {
                in_channels: width,
                out_channels: width,
                kernel: 3,
                stride: 1,
                padding: 1,
                in_h: out_hw,
                in_w: out_hw,
            });
            if stride != 1 || c_in != width {
                // projection shortcut
                layers.push(LayerGeometry::Conv {
                    in_channels: c_in,
                    out_channels: width,
                    kernel: 1,
                    stride,
                    padding: 0,
                    in_h: hw,
                    in_w: hw,
                });
            }
            hw = out_hw;
            c_in = width;
        }
    }
    layers.push(LayerGeometry::Fc { in_features: 512 * hw * hw, out_features: 256 });
    layers.push(LayerGeometry::Fc { in_features: 256, out_features: classes });
    layers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mode;
    use dtsnn_tensor::Tensor;

    #[test]
    fn config_validation() {
        let mut c = ModelConfig::default();
        assert!(c.validate().is_ok());
        c.image_size = 10;
        assert!(c.validate().is_err());
        c.image_size = 16;
        c.num_classes = 0;
        assert!(c.validate().is_err());
        c.num_classes = 10;
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0] {
            let alpha = ModelConfig { tdbn_alpha: bad, ..c };
            assert!(alpha.validate().is_err(), "tdbn_alpha {bad}");
            let lif = ModelConfig { lif: LifConfig { v_th: bad, ..c.lif }, ..c };
            assert!(lif.validate().is_err(), "v_th {bad}");
        }
        assert!(c.validate().is_ok());
    }

    #[test]
    fn vgg_small_forward_shape() {
        let mut rng = TensorRng::seed_from(1);
        let cfg = ModelConfig { num_classes: 7, ..ModelConfig::default() };
        let mut net = vgg_small(&cfg, &mut rng).unwrap();
        let x = Tensor::zeros(&[2, 3, 16, 16]);
        let outs = net.forward_sequence(&[x], 2, Mode::Eval).unwrap();
        assert_eq!(outs[0].dims(), &[2, 7]);
    }

    #[test]
    fn resnet_small_forward_shape() {
        let mut rng = TensorRng::seed_from(2);
        let cfg = ModelConfig { num_classes: 5, ..ModelConfig::default() };
        let mut net = resnet_small(&cfg, &mut rng).unwrap();
        let x = Tensor::zeros(&[2, 3, 16, 16]);
        let outs = net.forward_sequence(&[x], 2, Mode::Eval).unwrap();
        assert_eq!(outs[0].dims(), &[2, 5]);
    }

    #[test]
    fn vgg_small_trains_gradients_flow() {
        let mut rng = TensorRng::seed_from(3);
        let cfg = ModelConfig::default();
        let mut net = vgg_small(&cfg, &mut rng).unwrap();
        let x = Tensor::randn(&[2, 3, 16, 16], 0.5, 0.5, &mut rng);
        let outs = net.forward_sequence(&[x], 2, Mode::Train).unwrap();
        net.zero_grads();
        for _ in (0..outs.len()).rev() {
            net.backward_timestep(&Tensor::ones(&[2, 10])).unwrap();
        }
        let mut g = 0.0;
        net.visit_params(&mut |p| g += p.grad.norm_sq());
        assert!(g > 0.0);
    }

    #[test]
    fn vgg16_geometry_matches_paper_structure() {
        let g = vgg16_geometry(32, 3, 10);
        // 13 convs + 3 FCs
        assert_eq!(g.len(), 16);
        let convs = g.iter().filter(|l| matches!(l, LayerGeometry::Conv { .. })).count();
        assert_eq!(convs, 13);
        // last FC outputs the class count
        if let LayerGeometry::Fc { out_features, .. } = g[15] {
            assert_eq!(out_features, 10);
        } else {
            panic!("last layer must be FC");
        }
        // after 5 poolings a 32×32 input is 1×1 → first FC fan-in is 512
        if let LayerGeometry::Fc { in_features, .. } = g[13] {
            assert_eq!(in_features, 512);
        } else {
            panic!("layer 13 must be FC");
        }
    }

    #[test]
    fn resnet19_geometry_has_19_weight_stages() {
        let g = resnet19_geometry(32, 3, 10);
        // 1 stem + (3+3+2)*2 block convs + 2 projections + 2 FC = 21 matrices;
        // the "19" counts stem + 16 block convs + 2 FC (projections excluded).
        let convs = g.iter().filter(|l| matches!(l, LayerGeometry::Conv { .. })).count();
        let fcs = g.iter().filter(|l| matches!(l, LayerGeometry::Fc { .. })).count();
        assert_eq!(fcs, 2);
        assert_eq!(convs, 1 + 16 + 2);
        // total MACs should be dominated by the 512-wide stage
        let total: usize = g.iter().map(|l| l.macs()).sum();
        assert!(total > 1_000_000);
    }

    fn conv(c_in: usize, c_out: usize, kernel: usize, stride: usize, hw: usize) -> LayerGeometry {
        let padding = kernel / 2;
        LayerGeometry::Conv {
            in_channels: c_in,
            out_channels: c_out,
            kernel,
            stride,
            padding,
            in_h: hw,
            in_w: hw,
        }
    }

    fn fc(in_features: usize, out_features: usize) -> LayerGeometry {
        LayerGeometry::Fc { in_features, out_features }
    }

    /// The geometry and spike sources of [`vgg_small`], as they were kept by
    /// hand beside the builder before the walk read them off the network.
    fn vgg_small_oracle(cfg: &ModelConfig) -> Vec<(LayerGeometry, DensitySource)> {
        let (w, s) = (cfg.width, cfg.image_size);
        let (half, quarter) = (s / 2, s / 4);
        let head = fc(2 * w * quarter * quarter, cfg.num_classes);
        vec![
            (conv(cfg.in_channels, w, 3, 1, s), DensitySource::Input),
            (conv(w, w, 3, 1, s), DensitySource::SpikingLayer(0)),
            (conv(w, 2 * w, 3, 1, half), DensitySource::SpikingLayer(1)),
            (conv(2 * w, 2 * w, 3, 1, half), DensitySource::SpikingLayer(2)),
            (conv(2 * w, 2 * w, 3, 1, quarter), DensitySource::SpikingLayer(3)),
            (head, DensitySource::SpikingLayer(4)),
        ]
    }

    /// The same for [`resnet_small`]: its three observable spiking nodes are
    /// the stem LIF (0) and the two block joins (1, 2).
    fn resnet_small_oracle(cfg: &ModelConfig) -> Vec<(LayerGeometry, DensitySource)> {
        let (w, s) = (cfg.width, cfg.image_size);
        let (half, quarter) = (s / 2, s / 4);
        let head = fc(2 * w * quarter * quarter, cfg.num_classes);
        vec![
            (conv(cfg.in_channels, w, 3, 1, s), DensitySource::Input), // stem
            (conv(w, w, 3, 1, s), DensitySource::SpikingLayer(0)),     // block 1, stem LIF
            (conv(w, w, 3, 1, s), DensitySource::SpikingLayer(1)),     // inner LIF ≈ join
            (conv(w, 2 * w, 3, 2, s), DensitySource::SpikingLayer(1)), // block 2, block-1 join
            (conv(2 * w, 2 * w, 3, 1, half), DensitySource::SpikingLayer(2)), // inner ≈ join
            (conv(w, 2 * w, 1, 2, s), DensitySource::SpikingLayer(1)), // projection shortcut
            (head, DensitySource::SpikingLayer(2)),                    // classifier, pooled join
        ]
    }

    #[test]
    fn walk_reproduces_the_hand_kept_geometry_and_sources() {
        let small = ModelConfig {
            in_channels: 1,
            image_size: 8,
            width: 8,
            num_classes: 5,
            ..ModelConfig::default()
        };
        for cfg in [ModelConfig::default(), small] {
            let mut rng = TensorRng::seed_from(5);
            let vgg = vgg_small(&cfg, &mut rng).unwrap();
            assert_eq!(vgg.weight_layers(&cfg.input_dims()).unwrap(), vgg_small_oracle(&cfg));
            let resnet = resnet_small(&cfg, &mut rng).unwrap();
            let walk = resnet.weight_layers(&cfg.input_dims()).unwrap();
            assert_eq!(walk, resnet_small_oracle(&cfg));
            // one backend entry per weight layer of the walk
            assert_eq!(vgg.layer_backends().len(), 6);
            assert_eq!(resnet.layer_backends().len(), 7);
            let backends = [vgg.layer_backends(), resnet.layer_backends()].concat();
            assert!(backends.iter().all(|(_, b)| *b == "dense"));
        }
    }

    #[test]
    fn walk_threads_identity_and_projection_blocks() {
        let mut rng = TensorRng::seed_from(8);
        let lif = LifConfig::default();
        // Conv-BN-LIF-Conv-BN, the first conv of stride `stride`
        let mut main = |c_in: usize, c_out: usize, stride: usize| -> Vec<Box<dyn Layer>> {
            vec![
                Box::new(Conv2d::new(c_in, c_out, 3, stride, 1, &mut rng).unwrap()),
                Box::new(BatchNorm2d::new(c_out)),
                Box::new(LifNeuron::new(lif)),
                Box::new(Conv2d::new(c_out, c_out, 3, 1, 1, &mut rng).unwrap()),
                Box::new(BatchNorm2d::new(c_out)),
            ]
        };
        // identity block on [4, 6, 6]; projection block to [8, 3, 3]
        let identity = ResidualBlock::new(main(4, 4, 1), vec![], lif);
        let mut rng2 = TensorRng::seed_from(9);
        let shortcut: Vec<Box<dyn Layer>> = vec![
            Box::new(Conv2d::new(4, 8, 1, 2, 0, &mut rng2).unwrap()),
            Box::new(BatchNorm2d::new(8)),
        ];
        let projection = ResidualBlock::new(main(4, 8, 2), shortcut, lif);
        let net = Snn::from_layers(vec![
            Box::new(LifNeuron::new(lif)),
            Box::new(identity),
            Box::new(projection),
            Box::new(Flatten::new()),
            Box::new(Linear::new(8 * 3 * 3, 2, &mut rng2)),
        ]);
        let walk = net.weight_layers(&[4, 6, 6]).unwrap();
        let expected = vec![
            (conv(4, 4, 3, 1, 6), DensitySource::SpikingLayer(0)),
            (conv(4, 4, 3, 1, 6), DensitySource::SpikingLayer(1)),
            (conv(4, 8, 3, 2, 6), DensitySource::SpikingLayer(1)),
            (conv(8, 8, 3, 1, 3), DensitySource::SpikingLayer(2)),
            (conv(4, 8, 1, 2, 6), DensitySource::SpikingLayer(1)),
            (fc(72, 2), DensitySource::SpikingLayer(2)),
        ];
        assert_eq!(walk, expected);
        assert_eq!(net.layer_backends().len(), walk.len());
        // an image the head does not flatten to, and one too small for a pool
        assert!(matches!(net.weight_layers(&[4, 7, 7]), Err(SnnError::BadInput(_))));
        // a block whose branches disagree in shape is refused
        let widening = ResidualBlock::new(main(4, 8, 1), vec![], lif);
        let bad = Snn::from_layers(vec![Box::new(widening) as Box<dyn Layer>]);
        assert!(matches!(bad.weight_layers(&[4, 6, 6]), Err(SnnError::Tensor(_))));

        // Flatten → Linear → LIF → Linear: the input, then the one LIF
        let mlp = Snn::from_layers(vec![
            Box::new(Flatten::new()),
            Box::new(Linear::new(12, 6, &mut rng2)),
            Box::new(LifNeuron::new(lif)),
            Box::new(Linear::new(6, 3, &mut rng2)),
        ]);
        assert_eq!(
            mlp.weight_layers(&[3, 2, 2]).unwrap(),
            [(fc(12, 6), DensitySource::Input), (fc(6, 3), DensitySource::SpikingLayer(0))]
        );
        assert_eq!(mlp.layer_backends().len(), 2);
        // a fan-in the input does not flatten to, and a rank other than 3
        assert!(matches!(mlp.weight_layers(&[3, 2, 3]), Err(SnnError::BadInput(_))));
        assert!(matches!(mlp.weight_layers(&[12]), Err(SnnError::BadInput(_))));
    }

    #[test]
    fn geometry_macs_and_vectors() {
        let conv = LayerGeometry::Conv {
            in_channels: 3,
            out_channels: 8,
            kernel: 3,
            stride: 1,
            padding: 1,
            in_h: 16,
            in_w: 16,
        };
        assert_eq!(conv.matrix_shape(), (27, 8));
        assert_eq!(conv.output_hw(), (16, 16));
        assert_eq!(conv.vector_presentations(), 256);
        assert_eq!(conv.macs(), 27 * 8 * 256);
        let fc = LayerGeometry::Fc { in_features: 100, out_features: 10 };
        assert_eq!(fc.macs(), 1000);
        assert_eq!(fc.vector_presentations(), 1);
    }
}
