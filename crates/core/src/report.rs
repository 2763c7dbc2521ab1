use crate::Cycle;
use std::fmt;

/// Per-layer simulation results.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReport {
    /// Index of the layer in the model.
    pub layer_index: usize,
    /// Cycles spent executing the layer (wall-clock, both engines combined).
    pub cycles: Cycle,
    /// Cycles the Graph Engine's compute units were busy.
    pub graph_engine_busy: Cycle,
    /// Cycles the Dense Engine's systolic array was busy.
    pub dense_engine_busy: Cycle,
    /// Cycles the Dense Engine spent stalled waiting on the Graph Engine (or
    /// vice versa) due to the producer/consumer dependency.
    pub inter_engine_stall: Cycle,
    /// Bytes read from DRAM during the layer.
    pub dram_read_bytes: u64,
    /// Bytes written to DRAM during the layer.
    pub dram_write_bytes: u64,
    /// Shard-grid dimension `S` used for the layer.
    pub grid_dim: usize,
    /// Feature-block size `B` used for the layer.
    pub block_size: usize,
    /// Number of feature blocks processed.
    pub num_blocks: usize,
    /// Nodes resident per shard.
    pub nodes_per_shard: usize,
    /// Number of non-empty shards processed (per feature block).
    pub occupied_shards: usize,
}

impl LayerReport {
    /// Total DRAM traffic for the layer.
    pub fn dram_bytes(&self) -> u64 {
        self.dram_read_bytes + self.dram_write_bytes
    }

    /// Graph Engine utilisation over the layer's runtime.
    pub fn graph_engine_utilization(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.graph_engine_busy as f64 / self.cycles as f64
        }
    }

    /// Dense Engine utilisation over the layer's runtime.
    pub fn dense_engine_utilization(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.dense_engine_busy as f64 / self.cycles as f64
        }
    }
}

impl fmt::Display for LayerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "layer {}: {} cycles, S={}, B={}x{}, DRAM {:.2} MB (graph {:.0}% / dense {:.0}% busy)",
            self.layer_index,
            self.cycles,
            self.grid_dim,
            self.block_size,
            self.num_blocks,
            self.dram_bytes() as f64 / 1e6,
            self.graph_engine_utilization() * 100.0,
            self.dense_engine_utilization() * 100.0
        )
    }
}

/// End-to-end simulation results for one model on one dataset.
///
/// # Examples
///
/// ```
/// # use gnnerator::{Report, LayerReport};
/// # let report = Report {
/// #     platform: "gnnerator".into(), model_name: "gcn".into(), dataset_name: "cora".into(),
/// #     frequency_ghz: 1.0, total_cycles: 1_000_000, layers: vec![],
/// # };
/// // A 1 GHz accelerator taking 1M cycles ran for 1 ms.
/// assert!((report.seconds() - 1.0e-3).abs() < 1e-9);
/// assert!((report.speedup_over_seconds(2.0e-3) - 2.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Name of the simulated platform configuration.
    pub platform: String,
    /// Name of the model.
    pub model_name: String,
    /// Name of the dataset.
    pub dataset_name: String,
    /// Core clock frequency in GHz, used to convert cycles to seconds.
    pub frequency_ghz: f64,
    /// Total cycles for all layers.
    pub total_cycles: Cycle,
    /// Per-layer breakdown.
    pub layers: Vec<LayerReport>,
}

impl Report {
    /// Total execution time in seconds.
    pub fn seconds(&self) -> f64 {
        self.total_cycles as f64 / (self.frequency_ghz * 1e9)
    }

    /// Total execution time in milliseconds.
    pub fn milliseconds(&self) -> f64 {
        self.seconds() * 1e3
    }

    /// Total DRAM read traffic.
    pub fn dram_read_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.dram_read_bytes).sum()
    }

    /// Total DRAM write traffic.
    pub fn dram_write_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.dram_write_bytes).sum()
    }

    /// Total DRAM traffic.
    pub fn dram_bytes(&self) -> u64 {
        self.dram_read_bytes() + self.dram_write_bytes()
    }

    /// Total non-empty shards processed per feature block, summed over
    /// layers.
    pub fn occupied_shards(&self) -> usize {
        self.layers.iter().map(|l| l.occupied_shards).sum()
    }

    /// Fraction of shard-grid cells (summed over layers) that contained
    /// edges — how much of a dense `S²` sweep the occupancy-aware walk
    /// actually performs.
    ///
    /// Only layers that processed shards count: a layer with no aggregation
    /// stage never walks its grid, so its cells would deflate the metric.
    /// Returns `1.0` when no layer walked any shards (nothing was skipped).
    pub fn shard_occupancy(&self) -> f64 {
        let cells: usize = self
            .layers
            .iter()
            .filter(|l| l.occupied_shards > 0)
            .map(|l| l.grid_dim * l.grid_dim)
            .sum();
        if cells == 0 {
            return 1.0;
        }
        self.occupied_shards() as f64 / cells as f64
    }

    /// Speedup of this run over a baseline that took `baseline_seconds`.
    pub fn speedup_over_seconds(&self, baseline_seconds: f64) -> f64 {
        baseline_seconds / self.seconds()
    }

    /// Speedup of this run over another report.
    pub fn speedup_over(&self, baseline: &Report) -> f64 {
        self.speedup_over_seconds(baseline.seconds())
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} running {} on {}: {} cycles ({:.3} ms), {:.2} MB DRAM traffic",
            self.platform,
            self.model_name,
            self.dataset_name,
            self.total_cycles,
            self.milliseconds(),
            self.dram_bytes() as f64 / 1e6
        )?;
        for layer in &self.layers {
            writeln!(f, "  {layer}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(cycles: Cycle, reads: u64, writes: u64) -> LayerReport {
        LayerReport {
            layer_index: 0,
            cycles,
            graph_engine_busy: cycles / 2,
            dense_engine_busy: cycles / 4,
            inter_engine_stall: cycles / 10,
            dram_read_bytes: reads,
            dram_write_bytes: writes,
            grid_dim: 2,
            block_size: 64,
            num_blocks: 4,
            nodes_per_shard: 100,
            occupied_shards: 3,
        }
    }

    fn report(total: Cycle) -> Report {
        Report {
            platform: "gnnerator".into(),
            model_name: "gcn".into(),
            dataset_name: "cora".into(),
            frequency_ghz: 1.0,
            total_cycles: total,
            layers: vec![layer(total / 2, 1000, 200), layer(total / 2, 500, 100)],
        }
    }

    #[test]
    fn seconds_follow_frequency() {
        let mut r = report(2_000_000);
        assert!((r.seconds() - 2e-3).abs() < 1e-12);
        assert!((r.milliseconds() - 2.0).abs() < 1e-9);
        r.frequency_ghz = 2.0;
        assert!((r.seconds() - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn traffic_totals_sum_layers() {
        let r = report(100);
        assert_eq!(r.dram_read_bytes(), 1500);
        assert_eq!(r.dram_write_bytes(), 300);
        assert_eq!(r.dram_bytes(), 1800);
    }

    #[test]
    fn occupancy_aggregates_layers() {
        let mut r = report(100);
        // Two layers of 2x2 grids with 3 occupied shards each.
        assert_eq!(r.occupied_shards(), 6);
        assert!((r.shard_occupancy() - 6.0 / 8.0).abs() < 1e-9);
        // A layer that never walked its grid (no aggregation stage) does not
        // deflate the ratio.
        let mut dense_only = layer(100, 0, 0);
        dense_only.occupied_shards = 0;
        r.layers.push(dense_only);
        assert_eq!(r.occupied_shards(), 6);
        assert!((r.shard_occupancy() - 6.0 / 8.0).abs() < 1e-9);
        let empty = Report {
            layers: vec![],
            ..report(100)
        };
        assert_eq!(empty.occupied_shards(), 0);
        assert!((empty.shard_occupancy() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn speedups_compare_runtimes() {
        let fast = report(1_000_000);
        let slow = report(4_000_000);
        assert!((fast.speedup_over(&slow) - 4.0).abs() < 1e-9);
        assert!((slow.speedup_over(&fast) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn layer_utilizations_are_fractions() {
        let l = layer(1000, 0, 0);
        assert!((l.graph_engine_utilization() - 0.5).abs() < 1e-9);
        assert!((l.dense_engine_utilization() - 0.25).abs() < 1e-9);
        let zero = layer(0, 0, 0);
        assert_eq!(zero.graph_engine_utilization(), 0.0);
        assert_eq!(zero.dense_engine_utilization(), 0.0);
    }

    #[test]
    fn displays_are_informative() {
        let r = report(1000);
        let s = r.to_string();
        assert!(s.contains("gcn"));
        assert!(s.contains("cora"));
        assert!(s.contains("layer 0"));
    }
}
