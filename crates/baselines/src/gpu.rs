use crate::{BaselineEstimate, FEATURE_BYTES};
use gnnerator_gnn::{Aggregator, GnnModel, Stage};

/// Roofline-style performance model of a GPU running GNN layers through a
/// framework such as DGL + PyTorch.
///
/// GNN inference on a GPU is famously far from peak: the dense layers are
/// small, skinny GEMMs; the aggregation is a sparse gather whose achieved
/// bandwidth is a fraction of the pin bandwidth; max-pooling aggregators
/// (GraphSAGE-Pool) force the framework to materialise a per-edge message
/// tensor before reducing it; and every stage pays a kernel-launch overhead.
/// Each of those effects is a parameter of [`GpuConfig`] so the model can be
/// recalibrated without touching code.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Platform name used in reports.
    pub name: String,
    /// Peak arithmetic throughput in TFLOP/s (13 for the RTX 2080 Ti).
    pub peak_tflops: f64,
    /// Peak memory bandwidth in GB/s (616 for the RTX 2080 Ti).
    pub memory_bandwidth_gb_s: f64,
    /// Fraction of peak FLOP/s achieved on the small, skinny GEMMs of GNN
    /// feature extraction.
    pub dense_efficiency: f64,
    /// Fraction of peak bandwidth achieved by dense streaming kernels.
    pub dense_bandwidth_efficiency: f64,
    /// Fraction of peak bandwidth achieved by the sparse gather/scatter of
    /// the aggregation stage.
    pub gather_bandwidth_efficiency: f64,
    /// Traffic multiplier for aggregators that materialise per-edge messages
    /// (DGL's max/pool reducers write the gathered messages out and read them
    /// back for the segmented reduction).
    pub edge_materialisation_factor: f64,
    /// Fixed overhead per launched kernel, in seconds.
    pub kernel_launch_seconds: f64,
}

impl GpuConfig {
    /// The RTX 2080 Ti configuration of Table IV with efficiency factors
    /// calibrated so the relative accelerator-versus-GPU gap matches the
    /// magnitudes reported in the paper's Figure 3 (see the README's
    /// "Backends" section; `tests/backend_goldens.rs` pins the results).
    pub fn rtx_2080_ti() -> Self {
        Self {
            name: "rtx-2080-ti".to_string(),
            peak_tflops: 13.0,
            memory_bandwidth_gb_s: 616.0,
            dense_efficiency: 0.08,
            dense_bandwidth_efficiency: 0.60,
            gather_bandwidth_efficiency: 0.22,
            edge_materialisation_factor: 6.0,
            kernel_launch_seconds: 15e-6,
        }
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::rtx_2080_ti()
    }
}

/// The GPU baseline model.
///
/// # Examples
///
/// ```
/// use gnnerator_baselines::{GpuConfig, GpuModel};
/// use gnnerator_gnn::NetworkKind;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let gpu = GpuModel::new(GpuConfig::rtx_2080_ti());
/// let gcn = NetworkKind::Gcn.build_paper_config(1433, 7)?;
/// let pool = NetworkKind::GraphsagePool.build_paper_config(1433, 7)?;
/// // Max-pooling aggregation is far more expensive on the GPU.
/// assert!(gpu.estimate(&pool, 2708, 10556).seconds > gpu.estimate(&gcn, 2708, 10556).seconds);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GpuModel {
    config: GpuConfig,
}

impl GpuModel {
    /// Creates a model from an explicit configuration.
    pub fn new(config: GpuConfig) -> Self {
        Self { config }
    }

    /// The RTX 2080 Ti baseline used throughout the paper's evaluation.
    pub fn rtx_2080_ti() -> Self {
        Self::new(GpuConfig::rtx_2080_ti())
    }

    /// The model's configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Estimates the execution time of `model` on a graph with `num_nodes`
    /// nodes and `num_edges` edges.
    pub fn estimate(
        &self,
        model: &GnnModel,
        num_nodes: usize,
        num_edges: usize,
    ) -> BaselineEstimate {
        let mut layer_seconds = Vec::with_capacity(model.num_layers());
        for layer in model.layers() {
            let mut layer_time = 0.0;
            let mut current_dim = layer.in_dim();
            for stage in layer.stages() {
                layer_time += self.stage_seconds(stage, num_nodes, num_edges, layer.in_dim());
                current_dim = stage.out_dim().max(1);
            }
            let _ = current_dim;
            layer_seconds.push(layer_time);
        }
        BaselineEstimate {
            platform: self.config.name.clone(),
            model_name: model.name().to_string(),
            seconds: layer_seconds.iter().sum(),
            layer_seconds,
        }
    }

    fn stage_seconds(
        &self,
        stage: &Stage,
        num_nodes: usize,
        num_edges: usize,
        layer_in_dim: usize,
    ) -> f64 {
        let peak_flops = self.config.peak_tflops * 1e12;
        let bw = self.config.memory_bandwidth_gb_s * 1e9;
        match stage {
            Stage::Dense {
                in_dim,
                out_dim,
                concat_self,
                ..
            } => {
                let k = *in_dim as f64;
                let n = *out_dim as f64;
                let m = num_nodes as f64;
                let flops = 2.0 * m * k * n;
                let bytes = FEATURE_BYTES * (m * k + k * n + m * n);
                let _ = concat_self;
                let _ = layer_in_dim;
                let compute = flops / (peak_flops * self.config.dense_efficiency);
                let memory = bytes / (bw * self.config.dense_bandwidth_efficiency);
                compute.max(memory) + self.config.kernel_launch_seconds
            }
            Stage::Aggregate {
                dim,
                aggregator,
                include_self,
                ..
            } => {
                let d = *dim as f64;
                let e = if *include_self {
                    (num_edges + num_nodes) as f64
                } else {
                    num_edges as f64
                };
                let n = num_nodes as f64;
                // Gather traffic: one source-feature read per edge plus the
                // destination write.
                let mut bytes = FEATURE_BYTES * (e * d + n * d);
                if *aggregator == Aggregator::Max {
                    // Per-edge message materialisation (write + re-read).
                    bytes *= self.config.edge_materialisation_factor;
                }
                let flops = e * d;
                let compute = flops / (peak_flops * self.config.dense_efficiency);
                let memory = bytes / (bw * self.config.gather_bandwidth_efficiency);
                compute.max(memory) + self.config.kernel_launch_seconds
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnerator_gnn::NetworkKind;

    fn cora_estimate(kind: NetworkKind) -> BaselineEstimate {
        let model = kind.build_paper_config(1433, 7).unwrap();
        GpuModel::rtx_2080_ti().estimate(&model, 2708, 10556)
    }

    #[test]
    fn estimates_are_positive_and_layered() {
        for kind in NetworkKind::ALL {
            let est = cora_estimate(kind);
            assert!(est.seconds > 0.0, "{kind}");
            assert_eq!(est.layer_seconds.len(), 2);
            assert!((est.layer_seconds.iter().sum::<f64>() - est.seconds).abs() < 1e-12);
        }
    }

    #[test]
    fn cora_gcn_runtime_is_of_millisecond_order() {
        // DGL GCN inference on Cora on a 2080 Ti is around a millisecond; the
        // calibrated model should land in that ballpark (0.1 ms - 10 ms).
        let est = cora_estimate(NetworkKind::Gcn);
        assert!(
            est.seconds > 1e-4 && est.seconds < 1e-2,
            "estimated {} s",
            est.seconds
        );
    }

    #[test]
    fn max_pool_aggregation_is_much_slower_than_mean() {
        let gcn = cora_estimate(NetworkKind::Gcn);
        let pool = cora_estimate(NetworkKind::GraphsagePool);
        assert!(pool.seconds > 2.0 * gcn.seconds);
    }

    #[test]
    fn first_layer_dominates_for_high_dimensional_inputs() {
        let est = cora_estimate(NetworkKind::Gcn);
        assert!(est.layer_seconds[0] > est.layer_seconds[1]);
    }

    #[test]
    fn larger_graphs_take_longer() {
        let model = NetworkKind::Gcn.build_paper_config(500, 3).unwrap();
        let gpu = GpuModel::rtx_2080_ti();
        let small = gpu.estimate(&model, 2708, 10556);
        let large = gpu.estimate(&model, 19717, 88648);
        assert!(large.seconds > small.seconds);
    }

    #[test]
    fn doubling_bandwidth_helps_memory_bound_workloads() {
        let model = NetworkKind::Gcn.build_paper_config(3703, 6).unwrap();
        let mut fast_cfg = GpuConfig::rtx_2080_ti();
        fast_cfg.memory_bandwidth_gb_s *= 4.0;
        let base = GpuModel::rtx_2080_ti().estimate(&model, 3327, 9104);
        let fast = GpuModel::new(fast_cfg).estimate(&model, 3327, 9104);
        assert!(fast.seconds < base.seconds);
    }

    #[test]
    fn config_accessors_and_default() {
        let gpu = GpuModel::rtx_2080_ti();
        assert_eq!(gpu.config().peak_tflops, 13.0);
        assert_eq!(GpuConfig::default(), GpuConfig::rtx_2080_ti());
    }
}
