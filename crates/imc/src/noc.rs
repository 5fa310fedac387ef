//! Network-on-chip model for inter-tile traffic (Fig. 3(a): "at the tile
//! level, all modules are connected via a NoC interconnect").
//!
//! The coarse per-byte constant in the [`crate::CostModel`] captures the
//! calibrated average; this module provides the structural view: tiles are
//! placed on a √N×√N mesh in layer order, each layer's output spikes travel
//! from its tile range to the next layer's tile range under XY routing, and
//! energy/latency follow from byte·hop counts. Useful for floorplanning
//! questions (how does tile count change NoC load?) that a flat constant
//! cannot answer.

use crate::mapping::ChipMapping;
use crate::{HardwareConfig, ImcError, Result};

/// Traffic of one layer-to-layer link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkTraffic {
    /// Producing layer index.
    pub from_layer: usize,
    /// Bytes of spike payload per timestep (packed 1 bit/spike).
    pub bytes_per_timestep: f64,
    /// Mean Manhattan hop count between the two layers' tile centroids.
    pub mean_hops: f64,
}

/// Mesh NoC bound to a mapping.
#[derive(Debug, Clone)]
pub struct NocModel {
    links: Vec<LinkTraffic>,
    mesh_side: usize,
    /// Energy per byte per hop, pJ.
    energy_per_byte_hop: f64,
    /// Cycles per hop for the head flit.
    cycles_per_hop: u64,
}

impl NocModel {
    /// Builds the mesh model: tiles are numbered in layer order and placed
    /// row-major on the smallest square mesh that fits them.
    ///
    /// # Errors
    ///
    /// Returns [`ImcError::InvalidConfig`] for invalid hardware parameters
    /// or an empty mapping.
    pub fn new(mapping: &ChipMapping, config: &HardwareConfig) -> Result<Self> {
        config.validate()?;
        let layers = mapping.layers();
        if layers.is_empty() {
            return Err(ImcError::InvalidConfig("cannot build a NoC for an empty mapping".into()));
        }
        let total_tiles: usize = layers.iter().map(|l| l.tiles).sum();
        let mesh_side = (total_tiles as f64).sqrt().ceil() as usize;
        let pos = |tile: usize| -> (f64, f64) {
            ((tile % mesh_side) as f64, (tile / mesh_side) as f64)
        };
        // centroid of each layer's tile range
        let mut centroids = Vec::with_capacity(layers.len());
        let mut next_tile = 0usize;
        for layer in layers {
            let range = next_tile..next_tile + layer.tiles;
            let (mut cx, mut cy) = (0.0, 0.0);
            for t in range.clone() {
                let (x, y) = pos(t);
                cx += x;
                cy += y;
            }
            let n = layer.tiles.max(1) as f64;
            centroids.push((cx / n, cy / n));
            next_tile += layer.tiles;
        }
        let links = layers
            .iter()
            .enumerate()
            .take(layers.len() - 1)
            .map(|(i, layer)| {
                let (ax, ay) = centroids[i];
                let (bx, by) = centroids[i + 1];
                LinkTraffic {
                    from_layer: i,
                    bytes_per_timestep: layer.output_neurons as f64 / 8.0,
                    mean_hops: ((ax - bx).abs() + (ay - by).abs()).max(1.0),
                }
            })
            .collect();
        Ok(NocModel {
            links,
            mesh_side,
            energy_per_byte_hop: config.energy.interconnect_byte,
            cycles_per_hop: 1,
        })
    }

    /// Mesh side length (tiles per row).
    pub fn mesh_side(&self) -> usize {
        self.mesh_side
    }

    /// Per-link traffic, in network order.
    pub fn links(&self) -> &[LinkTraffic] {
        &self.links
    }

    /// Total byte·hops per timestep at the given per-layer output densities
    /// (spikes are packed, so payload scales with density).
    ///
    /// # Errors
    ///
    /// Returns [`ImcError::LinkDensityMismatch`] when `densities` does not
    /// have one entry per *link source* layer (layers.len() − 1 entries
    /// needed at minimum; extra entries are ignored).
    pub fn byte_hops_per_timestep(&self, densities: &[f32]) -> Result<f64> {
        if densities.len() < self.links.len() {
            return Err(ImcError::LinkDensityMismatch {
                links: self.links.len(),
                densities: densities.len(),
            });
        }
        Ok(self
            .links
            .iter()
            .map(|l| l.bytes_per_timestep * densities[l.from_layer].clamp(0.0, 1.0) as f64 * l.mean_hops)
            .sum())
    }

    /// NoC energy per timestep, pJ.
    ///
    /// # Errors
    ///
    /// See [`NocModel::byte_hops_per_timestep`].
    pub fn timestep_energy(&self, densities: &[f32]) -> Result<f64> {
        Ok(self.byte_hops_per_timestep(densities)? * self.energy_per_byte_hop)
    }

    /// Worst single-link latency per timestep, cycles (head-flit hops; the
    /// payload streams behind and overlaps with compute). Saturates at
    /// `u64::MAX`: `cycles_per_hop` is unbounded.
    pub fn timestep_latency(&self) -> u64 {
        self.links
            .iter()
            .map(|l| (l.mean_hops.ceil() as u64).saturating_mul(self.cycles_per_hop))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChipMapping;
    use dtsnn_snn::{vgg16_geometry, LayerGeometry};

    fn vgg16() -> (ChipMapping, HardwareConfig) {
        let config = HardwareConfig::default();
        let mapping = ChipMapping::map(&vgg16_geometry(32, 3, 10), &config).unwrap();
        (mapping, config)
    }

    #[test]
    fn mesh_fits_all_tiles() {
        let (mapping, config) = vgg16();
        let noc = NocModel::new(&mapping, &config).unwrap();
        assert!(noc.mesh_side() * noc.mesh_side() >= mapping.total_tiles());
        assert_eq!(noc.links().len(), mapping.layers().len() - 1);
    }

    #[test]
    fn traffic_scales_with_density() {
        let (mapping, config) = vgg16();
        let noc = NocModel::new(&mapping, &config).unwrap();
        let n = mapping.layers().len();
        let lo = noc.timestep_energy(&vec![0.1; n]).unwrap();
        let hi = noc.timestep_energy(&vec![0.4; n]).unwrap();
        assert!((hi / lo - 4.0).abs() < 1e-6, "traffic must be linear in density");
    }

    #[test]
    fn hops_at_least_one_and_latency_positive() {
        let (mapping, config) = vgg16();
        let noc = NocModel::new(&mapping, &config).unwrap();
        for l in noc.links() {
            assert!(l.mean_hops >= 1.0);
            assert!(l.bytes_per_timestep > 0.0);
        }
        assert!(noc.timestep_latency() >= 1);
    }

    #[test]
    fn bigger_network_means_bigger_mesh_and_more_hops() {
        let config = HardwareConfig::default();
        let small = ChipMapping::map(
            &[
                LayerGeometry::Fc { in_features: 64, out_features: 64 },
                LayerGeometry::Fc { in_features: 64, out_features: 10 },
            ],
            &config,
        )
        .unwrap();
        let (large, _) = vgg16();
        let noc_small = NocModel::new(&small, &config).unwrap();
        let noc_large = NocModel::new(&large, &config).unwrap();
        assert!(noc_large.mesh_side() > noc_small.mesh_side());
        let max_hops_large =
            noc_large.links().iter().map(|l| l.mean_hops).fold(0.0f64, f64::max);
        let max_hops_small =
            noc_small.links().iter().map(|l| l.mean_hops).fold(0.0f64, f64::max);
        assert!(max_hops_large > max_hops_small);
    }

    #[test]
    fn density_count_validated() {
        let (mapping, config) = vgg16();
        let noc = NocModel::new(&mapping, &config).unwrap();
        assert!(noc.byte_hops_per_timestep(&[0.5]).is_err());
    }

    #[test]
    fn short_density_error_reports_the_link_count() {
        // Regression: this used to raise ActivityMismatch with the *link*
        // count in its `layers` field, so the rendered message misstated the
        // required density count by one ("mapping has N−1 layers ...").
        let (mapping, config) = vgg16();
        let noc = NocModel::new(&mapping, &config).unwrap();
        let err = noc.byte_hops_per_timestep(&[0.5]).unwrap_err();
        assert_eq!(
            err,
            ImcError::LinkDensityMismatch { links: noc.links().len(), densities: 1 }
        );
        assert_eq!(
            err.to_string(),
            format!(
                "noc has {} inter-layer links but 1 density entries supplied \
                 (need one per link source layer)",
                noc.links().len()
            )
        );
    }

    #[test]
    fn single_layer_network_has_no_links_and_zero_noc_cost() {
        // A one-layer network never leaves its tile range: the NoC must
        // report zero traffic, zero energy and zero latency without
        // panicking, for any density slice (no links need entries).
        let config = HardwareConfig::default();
        let mapping = ChipMapping::map(
            &[LayerGeometry::Fc { in_features: 64, out_features: 10 }],
            &config,
        )
        .unwrap();
        let noc = NocModel::new(&mapping, &config).unwrap();
        assert!(noc.links().is_empty());
        assert_eq!(noc.mesh_side(), 1);
        assert_eq!(noc.timestep_latency(), 0);
        assert_eq!(noc.byte_hops_per_timestep(&[1.0]).unwrap(), 0.0);
        assert_eq!(noc.timestep_energy(&[1.0]).unwrap(), 0.0);
        assert_eq!(noc.timestep_energy(&[]).unwrap(), 0.0);
    }

    #[test]
    fn hostile_hop_cycles_saturate_instead_of_wrapping() {
        let (mapping, config) = vgg16();
        let noc = NocModel { cycles_per_hop: u64::MAX / 2, ..NocModel::new(&mapping, &config).unwrap() };
        assert!(noc.links().iter().any(|l| l.mean_hops > 2.0), "needs a link of 3+ hops");
        assert_eq!(noc.timestep_latency(), u64::MAX);
    }
}
