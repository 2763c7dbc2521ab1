//! Closed-form DRAM-traffic analysis of a compiled layer plan.
//!
//! The cycle-level simulator walks every shard; this module predicts the same
//! off-chip traffic analytically from the plan's parameters (grid dimension,
//! block size, shard occupancy), in the spirit of Table I. The two are
//! cross-checked in tests: the analytical estimate must bracket the simulated
//! traffic, which guards both models against accounting bugs and gives users
//! a fast way to explore dataflow choices without running the simulator.

use crate::program::{LayerPlan, Program};
use gnnerator_graph::BYTES_PER_FEATURE_ELEMENT as BYTES_PER_ELEMENT;

/// Analytical off-chip traffic estimate for one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerTrafficEstimate {
    /// Index of the layer in the program.
    pub layer_index: usize,
    /// Estimated bytes read from DRAM.
    pub read_bytes: u64,
    /// Estimated bytes written to DRAM.
    pub write_bytes: u64,
}

impl LayerTrafficEstimate {
    /// Total estimated traffic.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }
}

/// Analytical off-chip traffic estimate for a whole program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficEstimate {
    /// Per-layer estimates.
    pub layers: Vec<LayerTrafficEstimate>,
}

impl TrafficEstimate {
    /// Total estimated bytes read.
    pub fn read_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.read_bytes).sum()
    }

    /// Total estimated bytes written.
    pub fn write_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.write_bytes).sum()
    }

    /// Total estimated traffic.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes() + self.write_bytes()
    }
}

/// Estimates the off-chip traffic of a compiled program.
///
/// # Examples
///
/// ```
/// use gnnerator::{analysis, Compiler, DataflowConfig, GnneratorConfig};
/// use gnnerator_gnn::NetworkKind;
/// use gnnerator_graph::generators;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let edges = generators::rmat(500, 2500, 1)?;
/// let model = NetworkKind::Gcn.build(256, 16, 4, 1)?;
/// let compiler = Compiler::new(GnneratorConfig::paper_default(), DataflowConfig::paper_default())?;
/// let program = compiler.compile(&model, &edges)?;
/// let estimate = analysis::estimate_traffic(&program);
/// assert!(estimate.total_bytes() > 0);
/// # Ok(())
/// # }
/// ```
pub fn estimate_traffic(program: &Program) -> TrafficEstimate {
    TrafficEstimate {
        layers: program.layers.iter().map(estimate_layer_traffic).collect(),
    }
}

/// Estimates the off-chip traffic of one layer plan.
pub fn estimate_layer_traffic(plan: &LayerPlan) -> LayerTrafficEstimate {
    let num_nodes = plan.grid.num_nodes() as u64;
    let blocks = plan.num_blocks as u64;
    let mut read = 0u64;
    let mut write = 0u64;

    // Producer dense stage: reads the full input features and its weights
    // once, writes the pooled feature table once.
    if let Some(pre) = &plan.pre_dense {
        read += num_nodes * pre.total_in_dim() as u64 * BYTES_PER_ELEMENT;
        read += (pre.total_in_dim() * pre.out_dim) as u64 * BYTES_PER_ELEMENT;
        write += num_nodes * pre.out_dim as u64 * BYTES_PER_ELEMENT;
    }

    // Aggregation over the shard grid: per feature block, every occupied
    // shard's edge list plus the active slice of each unique source's
    // feature. The sparse grid's metadata makes this a sum over occupied
    // shards — no edge lists are walked.
    if plan.aggregation.is_some() {
        let mut edge_bytes = 0u64;
        let mut unique_source_loads = 0u64;
        for meta in plan.grid.metas() {
            edge_bytes += meta.edge_fetch_bytes();
            unique_source_loads += meta.unique_source_count() as u64;
        }
        read += blocks * edge_bytes;
        read += blocks * unique_source_loads * plan.block_size as u64 * BYTES_PER_ELEMENT;
    }

    // Consumer dense stage: weight slices once per block per column, the
    // node's own features once when the layer concatenates them, and the
    // output written once (the simulator adds partial-sum spills only when
    // the output cannot stay resident, which this bound ignores).
    if let Some(post) = &plan.post_dense {
        let columns = plan.grid_dim() as u64;
        read += blocks * columns * (plan.block_size * post.out_dim) as u64 * BYTES_PER_ELEMENT;
        if post.self_dim > 0 {
            read += num_nodes * post.self_dim as u64 * BYTES_PER_ELEMENT;
            read += (post.self_dim * post.out_dim) as u64 * BYTES_PER_ELEMENT;
        }
        write += num_nodes * post.out_dim as u64 * BYTES_PER_ELEMENT;
    } else if plan.aggregation.is_some() {
        // The aggregated features themselves are the layer output.
        write += num_nodes * plan.aggregated_dim() as u64 * BYTES_PER_ELEMENT;
    }

    LayerTrafficEstimate {
        layer_index: plan.layer_index,
        read_bytes: read,
        write_bytes: write,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Compiler, DataflowConfig, GnneratorConfig, Simulator};
    use gnnerator_gnn::NetworkKind;
    use gnnerator_graph::generators;

    fn compile(
        kind: NetworkKind,
        dataflow: DataflowConfig,
        dim: usize,
        nodes: usize,
    ) -> (Program, gnnerator_graph::EdgeList, gnnerator_gnn::GnnModel) {
        let edges = generators::rmat_exact(nodes, nodes * 4, 3).unwrap();
        let model = kind.build(dim, 16, 4, 1).unwrap();
        let compiler = Compiler::new(GnneratorConfig::paper_default(), dataflow).unwrap();
        let program = compiler.compile(&model, &edges).unwrap();
        (program, edges, model)
    }

    #[test]
    fn estimate_is_positive_and_layered() {
        let (program, _, _) = compile(NetworkKind::Gcn, DataflowConfig::paper_default(), 512, 400);
        let estimate = estimate_traffic(&program);
        assert_eq!(estimate.layers.len(), 2);
        assert!(estimate.read_bytes() > 0);
        assert!(estimate.write_bytes() > 0);
        assert_eq!(
            estimate.total_bytes(),
            estimate.read_bytes() + estimate.write_bytes()
        );
        for layer in &estimate.layers {
            assert_eq!(layer.total_bytes(), layer.read_bytes + layer.write_bytes);
        }
    }

    #[test]
    fn estimate_tracks_the_simulator_within_a_small_factor() {
        // The analytical model ignores second-order effects (partial-sum
        // spills, per-request rounding) but must stay within 2x of the
        // simulator's accounting in both directions for resident outputs.
        for (kind, dataflow) in [
            (NetworkKind::Gcn, DataflowConfig::paper_default()),
            (NetworkKind::Gcn, DataflowConfig::conventional()),
            (NetworkKind::Graphsage, DataflowConfig::paper_default()),
            (NetworkKind::GraphsagePool, DataflowConfig::paper_default()),
        ] {
            let edges = generators::rmat_exact(600, 2400, 5).unwrap();
            let model = kind.build(700, 16, 4, 1).unwrap();
            let compiler = Compiler::new(GnneratorConfig::paper_default(), dataflow).unwrap();
            let program = compiler.compile(&model, &edges).unwrap();
            let estimate = estimate_traffic(&program);
            let report = Simulator::with_dataflow(GnneratorConfig::paper_default(), dataflow)
                .unwrap()
                .simulate_edges(&model, &edges, "synthetic")
                .unwrap();
            let simulated = report.dram_bytes() as f64;
            let analytical = estimate.total_bytes() as f64;
            let ratio = simulated / analytical;
            assert!(
                (0.5..=2.0).contains(&ratio),
                "{kind} {dataflow}: simulated {simulated} vs analytical {analytical} (ratio {ratio:.2})"
            );
        }
    }

    #[test]
    fn blocking_reduces_estimated_traffic_for_wide_features() {
        let (blocked, _, _) = compile(
            NetworkKind::Gcn,
            DataflowConfig::paper_default(),
            3703,
            3000,
        );
        let (conventional, _, _) =
            compile(NetworkKind::Gcn, DataflowConfig::conventional(), 3703, 3000);
        let blocked_estimate = estimate_traffic(&blocked);
        let conventional_estimate = estimate_traffic(&conventional);
        assert!(blocked_estimate.total_bytes() < conventional_estimate.total_bytes());
    }

    #[test]
    fn pool_networks_account_for_the_producer_stage() {
        let (program, _, _) = compile(
            NetworkKind::GraphsagePool,
            DataflowConfig::paper_default(),
            256,
            300,
        );
        let estimate = estimate_traffic(&program);
        // The pooling MLP writes the pooled table: layer-0 writes must exceed
        // just the output feature table.
        let layer0 = &estimate.layers[0];
        let nodes = program.num_nodes as u64;
        assert!(layer0.write_bytes > nodes * 16 * 4);
    }
}
