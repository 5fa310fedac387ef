//! Shared experiment harness for the per-figure/table binaries in
//! `src/bin/`.
//!
//! Every binary regenerates one table or figure of the paper; see
//! `DESIGN.md` for the experiment index. Set `DTSNN_SCALE` (default 1) to
//! grow the synthetic corpora and `DTSNN_EPOCHS` to override training
//! length; results are printed as aligned tables and written as JSON under
//! `bench-results/`.

use dtsnn_core::HardwareProfile;
use dtsnn_data::Dataset;
use dtsnn_imc::HardwareConfig;
use dtsnn_snn::{
    resnet_small, vgg_small, LayerGeometry, LifConfig, LossKind, ModelConfig, SgdConfig, Snn,
    TrainReport, Trainer, TrainerConfig,
};
use dtsnn_tensor::TensorRng;
use std::path::PathBuf;

pub mod json;

/// Backbone selector mirroring the paper's VGG-16 / ResNet-19 pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// Scaled spiking VGG.
    Vgg,
    /// Scaled spiking ResNet.
    ResNet,
}

impl Arch {
    /// Display name (paper nomenclature, starred as scaled stand-ins).
    pub fn name(&self) -> &'static str {
        match self {
            Arch::Vgg => "VGG*",
            Arch::ResNet => "ResNet*",
        }
    }

    /// Builds the network.
    ///
    /// # Errors
    ///
    /// Propagates model-construction errors.
    pub fn build(&self, config: &ModelConfig, rng: &mut TensorRng) -> dtsnn_snn::Result<Snn> {
        match self {
            Arch::Vgg => vgg_small(config, rng),
            Arch::ResNet => resnet_small(config, rng),
        }
    }

    /// Layer geometries for the IMC mapper, read off a network built for
    /// `config` ([`Snn::weight_layers`]); empty for a config the builders
    /// reject ([`ModelConfig::validate`]).
    pub fn geometry(&self, config: &ModelConfig) -> Vec<LayerGeometry> {
        let layers = self.throwaway(config).and_then(|net| net.weight_layers(&config.input_dims()));
        layers.map(|l| l.into_iter().map(|(g, _)| g).collect()).unwrap_or_default()
    }

    /// The network for `config` under a fixed seed, for reading its shape:
    /// geometry and spike sources do not depend on the weights.
    fn throwaway(&self, config: &ModelConfig) -> dtsnn_snn::Result<Snn> {
        self.build(config, &mut TensorRng::seed_from(0))
    }

    /// Both backbones.
    pub fn all() -> [Arch; 2] {
        [Arch::Vgg, Arch::ResNet]
    }
}

/// Experiment-wide knobs, read from the environment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpConfig {
    /// Corpus scale multiplier (`DTSNN_SCALE`, default 1).
    pub scale: usize,
    /// Training epochs (`DTSNN_EPOCHS`, default 20).
    pub epochs: usize,
    /// Base RNG seed (`DTSNN_SEED`, default 7).
    pub seed: u64,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig { scale: 1, epochs: 20, seed: 7 }
    }
}

impl ExpConfig {
    /// Reads `DTSNN_SCALE` / `DTSNN_EPOCHS` / `DTSNN_SEED` from the
    /// environment, falling back to defaults.
    pub fn from_env() -> Self {
        ExpConfig {
            scale: env_parse("DTSNN_SCALE").unwrap_or(1).max(1),
            epochs: env_parse("DTSNN_EPOCHS").unwrap_or(20).max(1),
            seed: env_parse("DTSNN_SEED").unwrap_or(7),
        }
    }
}

/// The environment variable `key` parsed as a `T`; `None` when it is unset
/// or does not parse, so a malformed value means the caller's default — and
/// warns on stderr, once per read.
pub fn env_parse<T: std::str::FromStr>(key: &str) -> Option<T> {
    parse_env_value(key, std::env::var(key).ok().as_deref())
}

/// What a lookup of `key` that returned `raw` resolves to; `None` takes the
/// default.
fn parse_env_value<T: std::str::FromStr>(key: &str, raw: Option<&str>) -> Option<T> {
    let raw = raw?;
    let value = raw.parse().ok();
    if value.is_none() {
        eprintln!("dtsnn: warning: {key}={raw:?} is not a valid {}", std::any::type_name::<T>());
    }
    value
}

/// Model hyperparameters matched to a dataset.
pub fn model_config_for(dataset: &Dataset) -> ModelConfig {
    ModelConfig {
        in_channels: dataset.channels,
        image_size: dataset.image_size,
        num_classes: dataset.classes,
        lif: LifConfig { v_th: 1.0, tau: 0.75, ..LifConfig::default() },
        width: 32,
        // α = 1 with the high-similarity datasets reproduces the paper's
        // accuracy-vs-T shape (probe-calibrated; see DESIGN.md §6)
        tdbn_alpha: 1.0,
    }
}

/// Trains `arch` on `dataset` with the given loss over `timesteps`.
///
/// # Errors
///
/// Propagates training errors.
pub fn train_model(
    dataset: &Dataset,
    arch: Arch,
    loss: LossKind,
    timesteps: usize,
    exp: &ExpConfig,
) -> dtsnn_snn::Result<(Snn, TrainReport, ModelConfig)> {
    let model_cfg = model_config_for(dataset);
    let mut rng = TensorRng::seed_from(exp.seed);
    let mut net = arch.build(&model_cfg, &mut rng)?;
    let trainer = Trainer::new(TrainerConfig {
        epochs: exp.epochs,
        batch_size: 32,
        timesteps,
        loss,
        sgd: SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 5e-4 },
        seed: exp.seed ^ 0xBEEF,
    })?;
    let report = trainer.fit(&mut net, &dataset.train.frames(), &dataset.train.labels())?;
    Ok((net, report, model_cfg))
}

/// The hardware profile of `net`, built for `model_cfg`, on the default
/// (Table I) chip ([`HardwareProfile::new`]).
///
/// # Errors
///
/// Propagates shape and mapping errors.
pub fn hardware_profile(net: &Snn, model_cfg: &ModelConfig) -> dtsnn_core::Result<HardwareProfile> {
    HardwareProfile::new(net, &model_cfg.input_dims(), &HardwareConfig::default())
}

/// [`hardware_profile`] for a caller that holds no network of `arch`: it
/// builds one under a fixed seed (the shape does not depend on weights).
///
/// # Errors
///
/// Propagates model-construction and mapping errors.
pub fn hardware_profile_for(
    arch: Arch,
    model_cfg: &ModelConfig,
) -> dtsnn_core::Result<HardwareProfile> {
    hardware_profile(&arch.throwaway(model_cfg)?, model_cfg)
}

/// Times `f` with a short warmup and returns mean seconds per iteration.
///
/// The `ext_*_speedup` binaries use this instead of an external harness:
/// warm up three calls, calibrate the iteration count so the measured
/// window is ≈0.3 s, then report the mean.
pub fn time_it<R>(mut f: impl FnMut() -> R) -> f64 {
    for _ in 0..3 {
        std::hint::black_box(f());
    }
    let probe = std::time::Instant::now();
    std::hint::black_box(f());
    let once = probe.elapsed().as_secs_f64().max(1e-9);
    let iters = ((0.3 / once) as usize).clamp(5, 10_000);
    let start = std::time::Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() / iters as f64
}

/// Prints an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", padded.join("  "));
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Writes a JSON result document under `bench-results/`.
///
/// # Errors
///
/// Returns I/O errors from the filesystem.
pub fn write_json(name: &str, value: &json::Value) -> std::io::Result<PathBuf> {
    // anchor to the workspace root: binaries run from the repo root but
    // bench executables run from the package directory
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(PathBuf::from)
        .unwrap_or_default();
    let dir = root.join("bench-results");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    let mut text = json::to_string_pretty(value);
    text.push('\n');
    std::fs::write(&path, text)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_config_defaults() {
        let c = ExpConfig::default();
        assert_eq!(c.scale, 1);
        assert!(c.epochs > 0);
    }

    #[test]
    fn env_values_parse_or_read_as_unset() {
        // `env_parse` reads the process environment, so the parse step
        // behind it is pinned here; a malformed value also warns
        assert_eq!(parse_env_value::<usize>("DTSNN_EPOCHS", None), None);
        assert_eq!(parse_env_value::<usize>("DTSNN_EPOCHS", Some("6")), Some(6));
        assert_eq!(parse_env_value::<usize>("DTSNN_EPOCHS", Some("6x")), None);
        assert_eq!(parse_env_value::<usize>("DTSNN_EPOCHS", Some("")), None);
        assert_eq!(parse_env_value::<usize>("DTSNN_EPOCHS", Some("-1")), None);
        assert_eq!(parse_env_value::<f64>("DTSNN_AREA_BUDGET_MM2", Some("2.5")), Some(2.5));
        assert_eq!(parse_env_value::<f32>("DTSNN_THETA", Some("0.7.1")), None);
    }

    #[test]
    fn arch_metadata() {
        assert_ne!(Arch::Vgg.name(), Arch::ResNet.name());
        let cfg = ModelConfig::default();
        assert_eq!(Arch::Vgg.geometry(&cfg).len(), 6);
        assert_eq!(Arch::ResNet.geometry(&cfg).len(), 7);
        assert!(Arch::Vgg.geometry(&ModelConfig { image_size: 6, ..cfg }).is_empty());
    }

    #[test]
    fn profile_for_an_arch_prices_like_any_net_of_it() {
        let cfg = ModelConfig { num_classes: 6, ..ModelConfig::default() };
        let hw = HardwareConfig::default();
        let activity = dtsnn_snn::SpikeActivity { per_layer: vec![0.2; 5], observations: 1 };
        for arch in Arch::all() {
            let ours = hardware_profile_for(arch, &cfg).unwrap();
            let net = arch.build(&cfg, &mut TensorRng::seed_from(0xD1FF)).unwrap();
            let theirs = HardwareProfile::new(&net, &cfg.input_dims(), &hw).unwrap();
            let (a, b) = (ours.cost_model(), theirs.cost_model());
            assert_eq!(a.mapping(), b.mapping());
            let densities = ours.densities(&activity);
            assert_eq!(densities, theirs.densities(&activity));
            let (ea, eb) = (a.timestep_energy(&densities), b.timestep_energy(&densities));
            assert_eq!(ea.unwrap().total().to_bits(), eb.unwrap().total().to_bits());
            let (a, b) = (ours.dynamic_cost(&activity, 2.5), theirs.dynamic_cost(&activity, 2.5));
            assert_eq!(a.unwrap().edp().to_bits(), b.unwrap().edp().to_bits());
        }
    }

    #[test]
    fn model_config_tracks_dataset() {
        let ds = dtsnn_data::cifar10_like(1, 1).unwrap();
        let mc = model_config_for(&ds);
        assert_eq!(mc.num_classes, 10);
        assert_eq!(mc.in_channels, 3);
        assert_eq!(mc.image_size, 16);
    }
}
