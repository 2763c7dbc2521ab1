use crate::{DramConfig, GnneratorError};
use std::fmt;

/// Number of bytes in one mebibyte.
pub(crate) const MIB: u64 = 1024 * 1024;

/// Configuration of the Dense Engine (Section III-A).
///
/// The Dense Engine is a 2-D systolic matrix-multiplication unit with an
/// activation unit and double-buffered input/weight/output scratchpads, plus
/// its own DRAM controller (needed both to act as a producer and to reload
/// partial sums under the feature-blocking dataflow).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DenseEngineConfig {
    /// Rows of the systolic array (64 in Table IV).
    pub array_rows: usize,
    /// Columns of the systolic array (64 in Table IV).
    pub array_cols: usize,
    /// Total on-chip buffer capacity in bytes (6 MiB in Table IV), shared by
    /// the double-buffered input, weight and output scratchpads.
    pub buffer_bytes: u64,
}

impl Default for DenseEngineConfig {
    fn default() -> Self {
        Self {
            array_rows: 64,
            array_cols: 64,
            buffer_bytes: 6 * MIB,
        }
    }
}

impl DenseEngineConfig {
    /// Peak throughput in TFLOP/s at `frequency_ghz` (2 FLOPs per MAC).
    pub fn peak_tflops(&self, frequency_ghz: f64) -> f64 {
        (self.array_rows * self.array_cols) as f64 * 2.0 * frequency_ghz / 1e3
    }
}

/// Configuration of the Graph Engine (Section III-B).
///
/// The Graph Engine contains Shard Edge Fetch, Shard Feature Fetch, Shard
/// Compute and Shard Writeback units. The Shard Compute Unit replicates a set
/// of SIMD apply/reduce units into multiple Graph Processing Elements (GPEs)
/// to exploit inter-node parallelism; each GPE's lanes exploit intra-node
/// parallelism across feature dimensions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphEngineConfig {
    /// Number of Graph Processing Elements working on a shard in parallel.
    pub num_gpes: usize,
    /// SIMD lanes per GPE (feature dimensions processed per cycle per GPE).
    pub simd_lanes: usize,
    /// Total feature scratchpad capacity in bytes (24 MiB in Table IV),
    /// double-buffered.
    pub feature_scratchpad_bytes: u64,
    /// Edge scratchpad capacity in bytes, double-buffered.
    pub edge_scratchpad_bytes: u64,
    /// Fixed pipeline overhead charged per shard (edge-fetcher start-up,
    /// controller handshakes).
    pub per_shard_overhead_cycles: u64,
}

impl Default for GraphEngineConfig {
    fn default() -> Self {
        Self {
            // 32 GPEs x 32 lanes x 2 ops x 1 GHz = 2 TFLOP/s of aggregation
            // throughput, matching the 2 TFLOPs Table IV assigns to the Graph
            // Engine.
            num_gpes: 32,
            simd_lanes: 32,
            feature_scratchpad_bytes: 24 * MIB,
            edge_scratchpad_bytes: 2 * MIB,
            per_shard_overhead_cycles: 8,
        }
    }
}

impl GraphEngineConfig {
    /// Peak throughput in TFLOP/s at `frequency_ghz` (2 FLOPs per lane-cycle:
    /// one apply and one reduce).
    pub fn peak_tflops(&self, frequency_ghz: f64) -> f64 {
        (self.num_gpes * self.simd_lanes) as f64 * 2.0 * frequency_ghz / 1e3
    }

    /// Capacity of one bank of the (double-buffered) feature scratchpad —
    /// the storage actually visible to the compute units at any instant.
    pub fn feature_bank_bytes(&self) -> u64 {
        self.feature_scratchpad_bytes / 2
    }
}

/// Full platform configuration of a GNNerator instance (Table IV).
///
/// # Examples
///
/// ```
/// use gnnerator::GnneratorConfig;
///
/// let cfg = GnneratorConfig::paper_default();
/// // Table IV: 10 TFLOPs peak (2 graph + 8 dense), 30 MiB on chip, 256 GB/s.
/// assert!((cfg.peak_tflops() - 10.0).abs() < 0.5);
/// assert_eq!(cfg.total_onchip_bytes(), 30 * 1024 * 1024);
/// assert_eq!(cfg.dram.bandwidth_gb_s, 256.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GnneratorConfig {
    /// Human-readable configuration name, used in reports.
    pub name: String,
    /// Core clock frequency in GHz (both engines share one clock domain).
    pub frequency_ghz: f64,
    /// Dense Engine configuration.
    pub dense: DenseEngineConfig,
    /// Graph Engine configuration.
    pub graph: GraphEngineConfig,
    /// Shared off-chip feature-memory DRAM configuration.
    pub dram: DramConfig,
}

impl GnneratorConfig {
    /// The configuration evaluated in the paper (Table IV): a 64×64 Dense
    /// Engine (8 TFLOPs) plus a 2-TFLOP Graph Engine, 30 MiB of on-chip
    /// memory (24 MiB graph + 6 MiB dense) and 256 GB/s of DRAM bandwidth at
    /// a 1 GHz core clock.
    pub fn paper_default() -> Self {
        Self {
            name: "gnnerator".to_string(),
            frequency_ghz: 1.0,
            dense: DenseEngineConfig::default(),
            graph: GraphEngineConfig::default(),
            dram: DramConfig {
                bandwidth_gb_s: 256.0,
                core_frequency_ghz: 1.0,
                access_latency: 100,
            },
        }
    }

    /// Figure 5 variant: doubles the Graph Engine's on-chip feature memory,
    /// allowing larger shards to stay resident.
    pub fn with_double_graph_memory(&self) -> Self {
        let mut cfg = self.clone();
        cfg.name = format!("{}+2x-graph-mem", self.name);
        cfg.graph.feature_scratchpad_bytes *= 2;
        cfg.graph.edge_scratchpad_bytes *= 2;
        cfg
    }

    /// Figure 5 variant: doubles both dimensions of the Dense Engine's
    /// systolic array (4× the MACs), increasing feature-extraction compute.
    pub fn with_double_dense_compute(&self) -> Self {
        let mut cfg = self.clone();
        cfg.name = format!("{}+2x-dense", self.name);
        cfg.dense.array_rows *= 2;
        cfg.dense.array_cols *= 2;
        cfg
    }

    /// Figure 5 variant: doubles the shared feature-memory DRAM bandwidth.
    pub fn with_double_feature_bandwidth(&self) -> Self {
        let mut cfg = self.clone();
        cfg.name = format!("{}+2x-bandwidth", self.name);
        cfg.dram.bandwidth_gb_s *= 2.0;
        cfg
    }

    /// Combined peak compute throughput in TFLOP/s.
    pub fn peak_tflops(&self) -> f64 {
        self.dense.peak_tflops(self.frequency_ghz) + self.graph.peak_tflops(self.frequency_ghz)
    }

    /// Total on-chip feature memory in bytes across both engines.
    ///
    /// This is the quantity Table IV reports (30 MiB = 24 MiB graph +
    /// 6 MiB dense); the small edge scratchpad is tracked separately and not
    /// included here, matching the paper's accounting.
    pub fn total_onchip_bytes(&self) -> u64 {
        self.graph.feature_scratchpad_bytes + self.dense.buffer_bytes
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`GnneratorError::InvalidConfig`] for zero-sized engines,
    /// non-positive frequencies or empty scratchpads.
    pub fn validate(&self) -> Result<(), GnneratorError> {
        if !(self.frequency_ghz.is_finite() && self.frequency_ghz > 0.0) {
            return Err(GnneratorError::config("core frequency must be positive"));
        }
        if self.dense.array_rows == 0 || self.dense.array_cols == 0 {
            return Err(GnneratorError::config(
                "dense engine array must be non-empty",
            ));
        }
        if self.graph.num_gpes == 0 || self.graph.simd_lanes == 0 {
            return Err(GnneratorError::config(
                "graph engine must have GPEs and lanes",
            ));
        }
        if self.graph.feature_scratchpad_bytes < 1024 {
            return Err(GnneratorError::config(
                "graph engine feature scratchpad is implausibly small",
            ));
        }
        if self.dense.buffer_bytes == 0 {
            return Err(GnneratorError::config(
                "dense engine buffers must be non-empty",
            ));
        }
        if !(self.dram.bandwidth_gb_s.is_finite() && self.dram.bandwidth_gb_s > 0.0) {
            return Err(GnneratorError::config("DRAM bandwidth must be positive"));
        }
        Ok(())
    }
}

impl Default for GnneratorConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl fmt::Display for GnneratorConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:.1} TFLOPs ({}x{} dense + {} GPE x {} lane graph), {} MiB on-chip, {} GB/s DRAM",
            self.name,
            self.peak_tflops(),
            self.dense.array_rows,
            self.dense.array_cols,
            self.graph.num_gpes,
            self.graph.simd_lanes,
            self.total_onchip_bytes() / MIB,
            self.dram.bandwidth_gb_s
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table_iv() {
        let cfg = GnneratorConfig::paper_default();
        assert!((cfg.dense.peak_tflops(1.0) - 8.192).abs() < 0.2);
        assert!((cfg.graph.peak_tflops(1.0) - 2.048).abs() < 0.1);
        assert!((cfg.peak_tflops() - 10.0).abs() < 0.5);
        assert_eq!(cfg.graph.feature_scratchpad_bytes, 24 * MIB);
        assert_eq!(cfg.dense.buffer_bytes, 6 * MIB);
        assert_eq!(cfg.dram.bandwidth_gb_s, 256.0);
        assert!(cfg.validate().is_ok());
        assert_eq!(GnneratorConfig::default(), cfg);
    }

    #[test]
    fn scaled_variants_scale_the_right_knob() {
        let base = GnneratorConfig::paper_default();
        let mem = base.with_double_graph_memory();
        assert_eq!(mem.graph.feature_scratchpad_bytes, 48 * MIB);
        assert_eq!(mem.dense.array_rows, 64);

        let dense = base.with_double_dense_compute();
        assert_eq!(dense.dense.array_rows, 128);
        assert_eq!(dense.graph.feature_scratchpad_bytes, 24 * MIB);

        let bw = base.with_double_feature_bandwidth();
        assert_eq!(bw.dram.bandwidth_gb_s, 512.0);
        assert_eq!(bw.dense.array_rows, 64);

        for v in [&mem, &dense, &bw] {
            assert!(v.validate().is_ok());
            assert_ne!(v.name, base.name);
        }
    }

    #[test]
    fn validation_catches_degenerate_configs() {
        let mut cfg = GnneratorConfig::paper_default();
        cfg.frequency_ghz = 0.0;
        assert!(cfg.validate().is_err());

        let mut cfg = GnneratorConfig::paper_default();
        cfg.dense.array_rows = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = GnneratorConfig::paper_default();
        cfg.graph.num_gpes = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = GnneratorConfig::paper_default();
        cfg.graph.feature_scratchpad_bytes = 16;
        assert!(cfg.validate().is_err());

        let mut cfg = GnneratorConfig::paper_default();
        cfg.dram.bandwidth_gb_s = -1.0;
        assert!(cfg.validate().is_err());

        let mut cfg = GnneratorConfig::paper_default();
        cfg.dense.buffer_bytes = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn feature_bank_is_half_the_scratchpad() {
        let cfg = GraphEngineConfig::default();
        assert_eq!(cfg.feature_bank_bytes(), 12 * MIB);
    }

    #[test]
    fn display_summarises_the_platform() {
        let s = GnneratorConfig::paper_default().to_string();
        assert!(s.contains("gnnerator"));
        assert!(s.contains("64x64"));
        assert!(s.contains("256"));
    }
}
