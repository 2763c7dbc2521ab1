use crate::Cycle;

/// SCALE-Sim-style timing model of the Dense Engine's 2-D systolic array.
///
/// The Dense Engine's matrix-multiplication unit is a `rows x cols` systolic
/// array (64×64 in the paper's configuration, Table IV) with a
/// weight-stationary mapping: a `rows x cols` tile of the `k x n` weight
/// matrix is pinned in the array while all `m` input rows stream through it.
/// The model also reports MAC utilisation so under-utilisation effects —
/// such as a feature block smaller than the array width (Figure 4's `B = 32`
/// case) — show up in results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SystolicArray {
    rows: usize,
    cols: usize,
}

impl SystolicArray {
    /// Creates a systolic array of `rows x cols` processing elements.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub(crate) fn new(rows: usize, cols: usize) -> Self {
        assert!(
            rows > 0 && cols > 0,
            "systolic array dimensions must be positive"
        );
        Self { rows, cols }
    }

    /// Total number of multiply-accumulate units.
    pub(crate) fn num_pes(&self) -> usize {
        self.rows * self.cols
    }

    /// Peak throughput in MACs per cycle.
    pub(crate) fn peak_macs_per_cycle(&self) -> u64 {
        self.num_pes() as u64
    }

    /// Cycles to compute a full `m x k x n` product with the
    /// weight-stationary mapping:
    ///
    /// ```text
    /// cycles = ceil(k / rows) * ceil(n / cols) * (m + rows + cols - 2)
    /// ```
    ///
    /// This explains why a feature block narrower than the array (`B < 64`,
    /// Figure 4) halves the effective throughput — only `B` of the 64 weight
    /// rows are occupied, so the number of weight tiles (and hence passes
    /// over the inputs) doubles.
    ///
    /// Returns 0 when any dimension is 0.
    pub(crate) fn weight_stationary_cycles(&self, m: usize, k: usize, n: usize) -> Cycle {
        if m == 0 || k == 0 || n == 0 {
            return 0;
        }
        let weight_tiles = (k.div_ceil(self.rows) * n.div_ceil(self.cols)) as Cycle;
        let pass = (m + self.rows + self.cols - 2) as Cycle;
        weight_tiles * pass
    }

    /// MAC-level utilisation for a weight-stationary `m x k x n` product:
    /// useful MACs divided by the MAC slots available over its runtime.
    pub(crate) fn weight_stationary_utilization(&self, m: usize, k: usize, n: usize) -> f64 {
        let cycles = self.weight_stationary_cycles(m, k, n);
        if cycles == 0 {
            return 0.0;
        }
        let available = cycles as f64 * self.num_pes() as f64;
        (useful_macs(m, k, n) as f64 / available).min(1.0)
    }
}

/// Number of multiply-accumulates actually required by an `m x k x n`
/// product.
fn useful_macs(m: usize, k: usize, n: usize) -> u64 {
    m as u64 * k as u64 * n as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DenseEngineConfig;

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_dimension_panics() {
        let _ = SystolicArray::new(0, 64);
    }

    #[test]
    fn default_matches_table_iv() {
        let cfg = DenseEngineConfig::default();
        assert_eq!((cfg.array_rows, cfg.array_cols), (64, 64));
        let a = SystolicArray::new(cfg.array_rows, cfg.array_cols);
        assert_eq!(a.num_pes(), 4096);
        // 4096 MACs/cycle * 2 FLOPs/MAC * 1 GHz ≈ 8.2 TFLOP/s, matching the
        // 8 TFLOPs the paper allocates to the Dense Engine.
        assert_eq!(a.peak_macs_per_cycle(), 4096);
    }

    #[test]
    fn single_tile_formula() {
        // One weight tile: all m input rows stream through, plus the fill and
        // drain of the array.
        let a = SystolicArray::new(8, 8);
        assert_eq!(
            a.weight_stationary_cycles(16, 8, 8),
            (16 + 8 + 8 - 2) as Cycle
        );
    }

    #[test]
    fn tiling_multiplies_tile_count() {
        let a = SystolicArray::new(8, 8);
        let one = a.weight_stationary_cycles(16, 8, 8);
        assert_eq!(a.weight_stationary_cycles(16, 16, 8), 2 * one);
        assert_eq!(a.weight_stationary_cycles(16, 16, 16), 4 * one);
        // Partial weight tiles round up.
        assert_eq!(a.weight_stationary_cycles(16, 9, 8), 2 * one);
        // More input rows lengthen the one pass instead of adding tiles.
        assert_eq!(a.weight_stationary_cycles(32, 8, 8), one + 16);
    }

    #[test]
    fn zero_work_takes_zero_cycles() {
        let a = SystolicArray::new(64, 64);
        assert_eq!(a.weight_stationary_cycles(10, 0, 10), 0);
        assert_eq!(a.weight_stationary_cycles(10, 10, 0), 0);
        assert_eq!(a.weight_stationary_utilization(10, 0, 10), 0.0);
    }

    #[test]
    fn utilization_increases_with_k() {
        let a = SystolicArray::new(64, 64);
        let low = a.weight_stationary_utilization(64, 8, 64);
        let high = a.weight_stationary_utilization(64, 512, 64);
        assert!(
            high > low,
            "a reduction shorter than the array leaves weight rows idle: {low} vs {high}"
        );
        assert!(high <= 1.0);
    }

    #[test]
    fn small_output_tiles_underutilise() {
        // An output narrower than the array leaves weight columns empty.
        let a = SystolicArray::new(64, 64);
        let narrow = a.weight_stationary_utilization(64, 128, 32);
        let full = a.weight_stationary_utilization(64, 128, 64);
        assert!(narrow < full);
    }

    #[test]
    fn bigger_array_is_faster_on_large_products() {
        // For products that fill the array, doubling the array helps; for tiny
        // products the extra fill/drain latency dominates.
        let small = SystolicArray::new(32, 32);
        let big = SystolicArray::new(64, 64);
        for (m, k, n) in [(2708, 1433, 64), (256, 512, 128), (128, 64, 64)] {
            assert!(
                big.weight_stationary_cycles(m, k, n) <= small.weight_stationary_cycles(m, k, n),
                "({m},{k},{n})"
            );
        }
        // Tiny product: the big array pays more fill/drain.
        assert!(
            big.weight_stationary_cycles(10, 10, 10) > small.weight_stationary_cycles(10, 10, 10)
        );
    }

    #[test]
    fn weight_stationary_blocked_k_sums_to_full_k() {
        // Splitting K into full-width blocks costs the same streaming time as
        // one pass per weight tile of the unblocked product.
        let a = SystolicArray::new(64, 64);
        let full = a.weight_stationary_cycles(2708, 128, 16);
        let blocked = 2 * a.weight_stationary_cycles(2708, 64, 16);
        assert_eq!(full, blocked);
    }

    #[test]
    fn weight_stationary_half_width_block_doubles_passes() {
        // The Figure 4 effect: K = 32 on a 64-row array needs as many weight
        // tiles as K = 64, so covering the same total K takes twice the time.
        let a = SystolicArray::new(64, 64);
        let b64 = a.weight_stationary_cycles(1000, 64, 16);
        let b32 = a.weight_stationary_cycles(1000, 32, 16);
        assert_eq!(b64, b32);
        // Per unit of K, B=32 is twice as expensive.
        assert!(
            a.weight_stationary_utilization(1000, 32, 16)
                < a.weight_stationary_utilization(1000, 64, 16)
        );
    }

    #[test]
    fn weight_stationary_zero_work() {
        let a = SystolicArray::new(64, 64);
        assert_eq!(a.weight_stationary_cycles(0, 64, 64), 0);
        assert_eq!(a.weight_stationary_utilization(0, 64, 64), 0.0);
    }
}
