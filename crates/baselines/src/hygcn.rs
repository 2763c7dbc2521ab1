use crate::{BaselineEstimate, EDGE_BYTES, FEATURE_BYTES};
use gnnerator_gnn::{GnnModel, Stage, StageOrder};

/// Analytical performance model of HyGCN, the hybrid-architecture GNN
/// accelerator GNNerator is compared against in Table V.
///
/// The model captures the architectural properties the paper calls out:
///
/// * **Conventional dataflow only** — whole feature vectors stay on-chip, so
///   far fewer nodes are resident and the aggregation's off-chip traffic
///   follows the destination-stationary row of Table I with a window size
///   derived from the 24 MiB of on-chip memory.
/// * **Single-node processing** — only intra-node parallelism is exploited,
///   so the 1-TFLOP aggregation engine is under-utilised whenever the feature
///   dimension is smaller than its SIMD width.
/// * **Aggregation is always the producer** — dense-first layers such as
///   GraphSAGE-Pool cannot pipeline the two engines, so their stages
///   serialise.
/// * **Window-based sparsity elimination** — an optimisation that shrinks the
///   aggregation's input windows; the paper quotes roughly 1.1× on
///   Cora/Pubmed and 3× on Citeseer, which enters this model as the
///   [`HygcnConfig::sparsity_speedup`] factor.
#[derive(Debug, Clone, PartialEq)]
pub struct HygcnConfig {
    /// Platform name used in reports.
    pub name: String,
    /// Peak throughput of the aggregation engine in TFLOP/s (1 in Table IV).
    pub aggregation_tflops: f64,
    /// Peak throughput of the combination (dense) engine in TFLOP/s (8).
    pub combination_tflops: f64,
    /// Off-chip memory bandwidth in GB/s (256).
    pub bandwidth_gb_s: f64,
    /// Total on-chip memory in bytes (24 MiB).
    pub onchip_bytes: u64,
    /// SIMD width of the aggregation engine in feature elements; dimensions
    /// smaller than this under-utilise the engine because it processes a
    /// single node at a time.
    pub aggregation_simd_width: usize,
    /// Fraction of peak achieved by the combination engine on skinny GEMMs.
    pub dense_efficiency: f64,
    /// Speedup factor from the window-shrinking sparsity elimination applied
    /// to the aggregation stage (dataset dependent; ≈1.1 for Cora/Pubmed,
    /// ≈3 for Citeseer according to the paper).
    pub sparsity_speedup: f64,
}

impl HygcnConfig {
    /// The Table IV HyGCN configuration with no sparsity elimination.
    pub fn paper_default() -> Self {
        Self {
            name: "hygcn".to_string(),
            aggregation_tflops: 1.0,
            combination_tflops: 8.0,
            bandwidth_gb_s: 256.0,
            onchip_bytes: 24 * 1024 * 1024,
            aggregation_simd_width: 512,
            dense_efficiency: 0.75,
            sparsity_speedup: 1.0,
        }
    }

    /// Returns a copy with the sparsity-elimination speedup set, as the
    /// benchmark harness does per dataset.
    pub fn with_sparsity_speedup(mut self, factor: f64) -> Self {
        self.sparsity_speedup = factor.max(1.0);
        self
    }

    /// The window-sparsity speedup the paper quotes for a Table II dataset
    /// (≈3× for Citeseer, ≈1.1× for Cora/Pubmed); `1.0` for datasets the
    /// paper does not characterise.
    pub fn paper_sparsity_for(dataset: &str) -> f64 {
        match dataset {
            "citeseer" => 3.0,
            "cora" | "pubmed" => 1.1,
            _ => 1.0,
        }
    }
}

impl Default for HygcnConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The HyGCN baseline model.
///
/// # Examples
///
/// ```
/// use gnnerator_baselines::HygcnModel;
/// use gnnerator_gnn::NetworkKind;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = NetworkKind::Gcn.build_paper_config(1433, 7)?;
/// let hygcn = HygcnModel::paper_default();
/// let estimate = hygcn.estimate(&model, 2708, 10556);
/// assert!(estimate.seconds > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HygcnModel {
    config: HygcnConfig,
}

impl HygcnModel {
    /// Creates a model from an explicit configuration.
    pub fn new(config: HygcnConfig) -> Self {
        Self { config }
    }

    /// The Table IV configuration without sparsity elimination.
    pub fn paper_default() -> Self {
        Self::new(HygcnConfig::paper_default())
    }

    /// The model's configuration.
    pub fn config(&self) -> &HygcnConfig {
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
            let mut agg_time = 0.0;
            let mut dense_time = 0.0;
            for stage in layer.stages() {
                match stage {
                    Stage::Aggregate {
                        dim, include_self, ..
                    } => {
                        agg_time +=
                            self.aggregation_seconds(*dim, num_nodes, num_edges, *include_self);
                    }
                    Stage::Dense {
                        in_dim, out_dim, ..
                    } => {
                        dense_time += self.dense_seconds(num_nodes, *in_dim, *out_dim);
                    }
                }
            }
            // HyGCN pipelines aggregation (producer) with combination
            // (consumer); when the layer needs the dense engine to produce
            // (GraphSAGE-Pool) the stages serialise instead.
            let layer_time = match layer.stage_order() {
                StageOrder::GraphFirst => agg_time.max(dense_time),
                StageOrder::DenseFirst => agg_time + dense_time,
            };
            layer_seconds.push(layer_time);
        }
        BaselineEstimate {
            platform: self.config.name.clone(),
            model_name: model.name().to_string(),
            seconds: layer_seconds.iter().sum(),
            layer_seconds,
        }
    }

    /// Time for one aggregation stage.
    fn aggregation_seconds(
        &self,
        dim: usize,
        num_nodes: usize,
        num_edges: usize,
        include_self: bool,
    ) -> f64 {
        let effective_edges = if include_self {
            (num_edges + num_nodes) as f64
        } else {
            num_edges as f64
        };
        let d = dim as f64;
        // --- Off-chip traffic under the conventional dataflow. ---
        // Whole features are resident, so the number of nodes per on-chip
        // window follows from the 24 MiB of storage (half of it usable at a
        // time because of double buffering, split between sources and
        // accumulating destinations).
        let bytes_per_node = 2.0 * d * FEATURE_BYTES;
        let window_nodes = ((self.config.onchip_bytes as f64 / 2.0) / bytes_per_node).max(1.0);
        let s = (num_nodes as f64 / window_nodes).ceil().max(1.0);
        // Destination-stationary Table I read cost: (S² - S + 1) input-window
        // loads of `window_nodes * d * 4` bytes, plus one pass of writes.
        let window_bytes = window_nodes.min(num_nodes as f64) * d * FEATURE_BYTES;
        let read_bytes = (s * s - s + 1.0) * window_bytes + effective_edges * EDGE_BYTES;
        let write_bytes = num_nodes as f64 * d * FEATURE_BYTES;
        let traffic_time = (read_bytes + write_bytes) / (self.config.bandwidth_gb_s * 1e9);

        // --- Compute time with single-node under-utilisation. ---
        let utilisation = (d / self.config.aggregation_simd_width as f64).min(1.0);
        let flops = effective_edges * d;
        let compute_time = flops / (self.config.aggregation_tflops * 1e12 * utilisation.max(1e-3));

        traffic_time.max(compute_time) / self.config.sparsity_speedup
    }

    /// Time for one dense (combination) stage.
    fn dense_seconds(&self, num_nodes: usize, in_dim: usize, out_dim: usize) -> f64 {
        let flops = 2.0 * num_nodes as f64 * in_dim as f64 * out_dim as f64;
        let compute =
            flops / (self.config.combination_tflops * 1e12 * self.config.dense_efficiency);
        let bytes = FEATURE_BYTES
            * (num_nodes as f64 * in_dim as f64
                + in_dim as f64 * out_dim as f64
                + num_nodes as f64 * out_dim as f64);
        let memory = bytes / (self.config.bandwidth_gb_s * 1e9);
        compute.max(memory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnerator_gnn::NetworkKind;

    #[test]
    fn estimates_are_positive_for_all_networks() {
        let hygcn = HygcnModel::paper_default();
        for kind in NetworkKind::ALL {
            let model = kind.build_paper_config(1433, 7).unwrap();
            let est = hygcn.estimate(&model, 2708, 10556);
            assert!(est.seconds > 0.0, "{kind}");
            assert_eq!(est.layer_seconds.len(), 2);
        }
    }

    #[test]
    fn sparsity_elimination_speeds_up_aggregation_bound_workloads() {
        // Citeseer's 3703-dim features make aggregation dominate, so the 3x
        // window-shrinking factor shows up in the total.
        let model = NetworkKind::Gcn.build_paper_config(3703, 6).unwrap();
        let base = HygcnModel::paper_default().estimate(&model, 3327, 9104);
        let optimised = HygcnModel::new(HygcnConfig::paper_default().with_sparsity_speedup(3.0))
            .estimate(&model, 3327, 9104);
        assert!(optimised.seconds < base.seconds);
        assert!(base.seconds / optimised.seconds > 1.5);
    }

    #[test]
    fn sparsity_speedup_cannot_slow_things_down() {
        let cfg = HygcnConfig::paper_default().with_sparsity_speedup(0.1);
        assert_eq!(cfg.sparsity_speedup, 1.0);
    }

    #[test]
    fn paper_sparsity_factors_match_the_quoted_values() {
        assert!((HygcnConfig::paper_sparsity_for("citeseer") - 3.0).abs() < 1e-9);
        assert!((HygcnConfig::paper_sparsity_for("cora") - 1.1).abs() < 1e-9);
        assert!((HygcnConfig::paper_sparsity_for("pubmed") - 1.1).abs() < 1e-9);
        assert_eq!(HygcnConfig::paper_sparsity_for("ogbn-arxiv"), 1.0);
    }

    #[test]
    fn dense_first_layers_serialise() {
        // GraphSAGE-Pool cannot pipeline on HyGCN, so it is slower than
        // GraphSAGE-mean even though the aggregation volume is similar.
        let hygcn = HygcnModel::paper_default();
        let mean = hygcn.estimate(
            &NetworkKind::Graphsage.build_paper_config(1433, 7).unwrap(),
            2708,
            10556,
        );
        let pool = hygcn.estimate(
            &NetworkKind::GraphsagePool
                .build_paper_config(1433, 7)
                .unwrap(),
            2708,
            10556,
        );
        assert!(pool.seconds > mean.seconds);
    }

    #[test]
    fn small_hidden_dimensions_underutilise_the_aggregation_engine() {
        let hygcn = HygcnModel::paper_default();
        // Aggregating 16-dim features on a 512-wide engine, one node at a
        // time, is heavily under-utilised: per-element time is much worse
        // than for 512-dim features.
        let t16 = hygcn.aggregation_seconds(16, 10_000, 50_000, true) / 16.0;
        let t512 = hygcn.aggregation_seconds(512, 10_000, 50_000, true) / 512.0;
        assert!(t16 > t512);
    }

    #[test]
    fn bigger_graphs_cost_more() {
        let hygcn = HygcnModel::paper_default();
        let model = NetworkKind::Gcn.build_paper_config(500, 3).unwrap();
        let cora_sized = hygcn.estimate(&model, 2708, 10556);
        let pubmed_sized = hygcn.estimate(&model, 19717, 88648);
        assert!(pubmed_sized.seconds > cora_sized.seconds);
    }

    #[test]
    fn config_accessors() {
        let m = HygcnModel::paper_default();
        assert_eq!(m.config().combination_tflops, 8.0);
        assert_eq!(HygcnConfig::default(), HygcnConfig::paper_default());
    }
}
