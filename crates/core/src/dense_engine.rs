use crate::systolic::SystolicArray;
use crate::{Cycle, DenseEngineConfig, GnneratorError};

/// Timing and traffic model of the Dense Engine (Section III-A).
///
/// The Dense Engine is a weight-stationary systolic array fed by
/// double-buffered input and weight scratchpads, followed by a 1-D activation
/// unit and an output buffer. Unlike HyGCN's combination engine it has its own
/// memory controller, which lets it act as a producer (GraphSAGE-Pool) and
/// lets it reload partial sums — the capability the feature-blocking dataflow
/// relies on.
///
/// # Examples
///
/// ```
/// use gnnerator::{DenseEngine, DenseEngineConfig};
///
/// # fn main() -> Result<(), gnnerator::GnneratorError> {
/// let engine = DenseEngine::new(&DenseEngineConfig::default())?;
/// // One pass of 1000 node features (K = 64 block) through a 16-wide layer.
/// let cycles = engine.gemm_cycles(1000, 64, 16);
/// assert!(cycles >= 1000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseEngine {
    config: DenseEngineConfig,
    array: SystolicArray,
}

impl DenseEngine {
    /// Builds the engine model from its configuration.
    ///
    /// # Errors
    ///
    /// Returns [`GnneratorError::InvalidConfig`] if the array has a zero
    /// dimension or the buffers are empty.
    pub fn new(config: &DenseEngineConfig) -> Result<Self, GnneratorError> {
        if config.array_rows == 0 || config.array_cols == 0 {
            return Err(GnneratorError::config(
                "dense engine array must be non-empty",
            ));
        }
        if config.buffer_bytes == 0 {
            return Err(GnneratorError::config(
                "dense engine buffers must be non-empty",
            ));
        }
        Ok(Self {
            config: *config,
            array: SystolicArray::new(config.array_rows, config.array_cols),
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &DenseEngineConfig {
        &self.config
    }

    /// Cycles to run an `m x k x n` GEMM (weight-stationary mapping).
    ///
    /// The activation unit is fully pipelined behind the array and adds a
    /// negligible drain, so activation cost is folded into the GEMM time.
    pub fn gemm_cycles(&self, m: usize, k: usize, n: usize) -> Cycle {
        self.array.weight_stationary_cycles(m, k, n)
    }

    /// MAC utilisation of an `m x k x n` GEMM on this engine.
    pub fn gemm_utilization(&self, m: usize, k: usize, n: usize) -> f64 {
        self.array.weight_stationary_utilization(m, k, n)
    }

    /// Bytes of weights streamed from DRAM for a `k x n` weight slice.
    pub fn weight_bytes(&self, k: usize, n: usize) -> u64 {
        (k * n * 4) as u64
    }

    /// Bytes of input activations streamed for `m` nodes of `k` dims, when
    /// the inputs are not already resident in the shared feature storage.
    pub fn input_bytes(&self, m: usize, k: usize) -> u64 {
        (m * k * 4) as u64
    }

    /// Bytes written for an `m x n` output (or partial-sum) tile.
    pub fn output_bytes(&self, m: usize, n: usize) -> u64 {
        (m * n * 4) as u64
    }

    /// DRAM traffic for reloading and re-storing partial sums when a feature
    /// block other than the first is processed (read old partials + write
    /// updated partials).
    pub fn partial_sum_traffic_bytes(&self, m: usize, n: usize) -> u64 {
        2 * self.output_bytes(m, n)
    }

    /// Whether a `k x n` weight slice plus an `m x k` input tile fit in the
    /// engine's (double-buffered) scratchpads. Used by the compiler to size
    /// dense work batches.
    pub fn tile_fits(&self, m: usize, k: usize, n: usize) -> bool {
        let bank = self.config.buffer_bytes / 2;
        self.weight_bytes(k, n) + self.input_bytes(m, k) + self.output_bytes(m, n) <= bank
    }

    /// Whether an `m x n` output (the layer's accumulating partial sums over
    /// all feature blocks) can stay resident in the output buffer, in which
    /// case the feature-blocking dataflow pays **no** partial-sum DRAM
    /// traffic. The output region is budgeted at a quarter of the engine's
    /// buffer capacity (half of one double-buffer bank).
    pub fn output_resident(&self, m: usize, n: usize) -> bool {
        self.output_bytes(m, n) <= self.config.buffer_bytes / 4
    }

    /// Peak throughput in MACs per cycle.
    pub fn peak_macs_per_cycle(&self) -> u64 {
        self.array.peak_macs_per_cycle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> DenseEngine {
        DenseEngine::new(&DenseEngineConfig::default()).unwrap()
    }

    #[test]
    fn rejects_degenerate_configs() {
        let bad = DenseEngineConfig {
            array_rows: 0,
            ..DenseEngineConfig::default()
        };
        assert!(DenseEngine::new(&bad).is_err());
        let bad = DenseEngineConfig {
            buffer_bytes: 0,
            ..DenseEngineConfig::default()
        };
        assert!(DenseEngine::new(&bad).is_err());
    }

    #[test]
    fn gemm_cycles_scale_with_weight_tiles() {
        let e = engine();
        // K = 128 needs two 64-row weight tiles: twice the passes of K = 64.
        assert_eq!(e.gemm_cycles(500, 128, 16), 2 * e.gemm_cycles(500, 64, 16));
        // N up to 64 fits one column tile.
        assert_eq!(e.gemm_cycles(500, 64, 16), e.gemm_cycles(500, 64, 64));
    }

    #[test]
    fn small_blocks_waste_the_array() {
        let e = engine();
        // B = 32 occupies half the weight rows: per unit of K it is twice as
        // expensive as B = 64 (Figure 4's under-utilisation effect).
        let per_k_32 = e.gemm_cycles(1000, 32, 16) as f64 / 32.0;
        let per_k_64 = e.gemm_cycles(1000, 64, 16) as f64 / 64.0;
        assert!(per_k_32 > 1.9 * per_k_64);
        assert!(e.gemm_utilization(1000, 32, 16) < e.gemm_utilization(1000, 64, 16));
    }

    #[test]
    fn traffic_formulas() {
        let e = engine();
        assert_eq!(e.weight_bytes(64, 16), 64 * 16 * 4);
        assert_eq!(e.input_bytes(100, 64), 100 * 64 * 4);
        assert_eq!(e.output_bytes(100, 16), 100 * 16 * 4);
        assert_eq!(e.partial_sum_traffic_bytes(100, 16), 2 * 100 * 16 * 4);
    }

    #[test]
    fn tile_fits_respects_buffer_capacity() {
        let e = engine();
        assert!(e.tile_fits(1024, 64, 64));
        // An absurdly large tile does not fit in 3 MiB per bank.
        assert!(!e.tile_fits(1_000_000, 1433, 64));
    }

    #[test]
    fn accessors() {
        let e = engine();
        assert_eq!(e.config().array_rows, 64);
        assert_eq!(e.peak_macs_per_cycle(), 4096);
    }
}
