//! Model builders.
//!
//! Two families are provided:
//!
//! 1. **Trainable, scaled-down backbones** ([`vgg_small`], [`resnet_small`])
//!    — VGG- and ResNet-style spiking networks sized so that CPU training
//!    converges in seconds. These drive every accuracy experiment.
//! 2. **Paper-size layer geometries** ([`vgg16_geometry`],
//!    [`resnet19_geometry`]) — the exact layer shapes of VGG-16 and
//!    ResNet-19 used for the IMC mapping/energy experiments (Fig. 1), which
//!    need only geometry and spike statistics, not trained weights.

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

/// Where a mapped layer's input spikes come from, for aligning measured
/// [`crate::SpikeActivity`] with a geometry list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DensitySource {
    /// The analog-encoded network input (density treated as 1.0).
    Input,
    /// Output of the `i`-th spiking layer (forward order).
    SpikingLayer(usize),
}

/// Layer geometries of [`vgg_small`], aligned with its runtime structure.
pub fn vgg_small_geometry(config: &ModelConfig) -> Vec<LayerGeometry> {
    let w = config.width;
    let s = config.image_size;
    let half = s / 2;
    let quarter = s / 4;
    vec![
        LayerGeometry::Conv { in_channels: config.in_channels, out_channels: w, kernel: 3, stride: 1, padding: 1, in_h: s, in_w: s },
        LayerGeometry::Conv { in_channels: w, out_channels: w, kernel: 3, stride: 1, padding: 1, in_h: s, in_w: s },
        LayerGeometry::Conv { in_channels: w, out_channels: 2 * w, kernel: 3, stride: 1, padding: 1, in_h: half, in_w: half },
        LayerGeometry::Conv { in_channels: 2 * w, out_channels: 2 * w, kernel: 3, stride: 1, padding: 1, in_h: half, in_w: half },
        LayerGeometry::Conv { in_channels: 2 * w, out_channels: 2 * w, kernel: 3, stride: 1, padding: 1, in_h: quarter, in_w: quarter },
        LayerGeometry::Fc { in_features: 2 * w * quarter * quarter, out_features: config.num_classes },
    ]
}

/// Input-spike provenance of each [`vgg_small_geometry`] layer.
pub fn vgg_small_density_map() -> Vec<DensitySource> {
    vec![
        DensitySource::Input,
        DensitySource::SpikingLayer(0),
        DensitySource::SpikingLayer(1),
        DensitySource::SpikingLayer(2),
        DensitySource::SpikingLayer(3),
        DensitySource::SpikingLayer(4),
    ]
}

/// Layer geometries of [`resnet_small`], aligned with its runtime structure.
pub fn resnet_small_geometry(config: &ModelConfig) -> Vec<LayerGeometry> {
    let w = config.width;
    let s = config.image_size;
    let half = s / 2;
    let quarter = s / 4;
    vec![
        // stem
        LayerGeometry::Conv { in_channels: config.in_channels, out_channels: w, kernel: 3, stride: 1, padding: 1, in_h: s, in_w: s },
        // block 1 (identity shortcut)
        LayerGeometry::Conv { in_channels: w, out_channels: w, kernel: 3, stride: 1, padding: 1, in_h: s, in_w: s },
        LayerGeometry::Conv { in_channels: w, out_channels: w, kernel: 3, stride: 1, padding: 1, in_h: s, in_w: s },
        // block 2 main path (stride 2)
        LayerGeometry::Conv { in_channels: w, out_channels: 2 * w, kernel: 3, stride: 2, padding: 1, in_h: s, in_w: s },
        LayerGeometry::Conv { in_channels: 2 * w, out_channels: 2 * w, kernel: 3, stride: 1, padding: 1, in_h: half, in_w: half },
        // block 2 projection shortcut
        LayerGeometry::Conv { in_channels: w, out_channels: 2 * w, kernel: 1, stride: 2, padding: 0, in_h: s, in_w: s },
        LayerGeometry::Fc { in_features: 2 * w * quarter * quarter, out_features: config.num_classes },
    ]
}

/// Input-spike provenance of each [`resnet_small_geometry`] layer.
///
/// [`crate::Snn`] observes densities of *top-level* spiking nodes only, so
/// [`resnet_small`] exposes three: stem LIF (0), block-1 join LIF (1),
/// block-2 join LIF (2). The LIFs *inside* the residual blocks are not
/// individually observable; their consumers use the enclosing block's join
/// density as the closest proxy (inner and join LIFs share the tdBN scale,
/// so their rates track each other).
pub fn resnet_small_density_map() -> Vec<DensitySource> {
    vec![
        DensitySource::Input,           // stem conv ← analog input
        DensitySource::SpikingLayer(0), // block-1 conv-1 ← stem LIF
        DensitySource::SpikingLayer(1), // block-1 conv-2 ← inner LIF ≈ join
        DensitySource::SpikingLayer(1), // block-2 conv-1 ← block-1 join LIF
        DensitySource::SpikingLayer(2), // block-2 conv-2 ← inner LIF ≈ join
        DensitySource::SpikingLayer(1), // block-2 shortcut ← block-1 join LIF
        DensitySource::SpikingLayer(2), // classifier ← block-2 join (pooled)
    ]
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

    #[test]
    fn scaled_geometries_align_with_density_maps() {
        let cfg = ModelConfig::default();
        let vg = vgg_small_geometry(&cfg);
        assert_eq!(vg.len(), vgg_small_density_map().len());
        let rg = resnet_small_geometry(&cfg);
        assert_eq!(rg.len(), resnet_small_density_map().len());
        // classifier fan-in matches what the runtime models flatten to
        if let LayerGeometry::Fc { in_features, out_features } = vg[vg.len() - 1] {
            assert_eq!(in_features, 2 * cfg.width * 4 * 4);
            assert_eq!(out_features, cfg.num_classes);
        } else {
            panic!("vgg_small geometry must end in FC");
        }
        // every SpikingLayer index must be observable: vgg_small exposes 5
        // top-level LIFs, resnet_small exposes 3 (stem + two block joins)
        for src in vgg_small_density_map() {
            if let DensitySource::SpikingLayer(i) = src {
                assert!(i < 5);
            }
        }
        for src in resnet_small_density_map() {
            if let DensitySource::SpikingLayer(i) = src {
                assert!(i < 3);
            }
        }
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
