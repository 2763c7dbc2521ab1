//! The GNNerator cycle-level timing simulator.
//!
//! The simulator models the paper's evaluation infrastructure: the Graph
//! Engine's four-stage shard pipeline with double-buffered prefetch
//! ([`graph_timing`]), the Dense Engine's weight-stationary systolic GEMMs
//! ([`dense_timing`] over the [`systolic`](crate::systolic) array model), the
//! shared feature-memory DRAM both engines contend for ([`dram`](crate::dram),
//! one serialising [`bandwidth`](crate::bandwidth) channel), and the
//! GNNerator Controller's producer/consumer synchronisation between the two
//! engines ([`layer`]). It executes a compiled [`Program`] layer by layer
//! and feature block by feature block, following Algorithm 1.
//!
//! The walk over the shard grid is **occupancy-aware**: each column (or row,
//! under the source-stationary order) visits only the shards the sparse
//! [`ShardSummary`](gnnerator_graph::ShardSummary) index lists as non-empty,
//! reading their counts and never their edges. Empty
//! shards move no bytes and consume no cycles, so the reports are
//! bit-identical to a dense `S²` sweep while the cost per feature block drops
//! from `O(S²)` to `O(occupied + S)`.

mod dense_timing;
mod graph_timing;
mod layer;

use crate::dram::DramModel;
use crate::{
    CompiledWorkload, DataflowConfig, DenseEngine, GnneratorConfig, GnneratorError, GraphEngine,
    Program, Report, SimSession,
};
use gnnerator_gnn::GnnModel;
use gnnerator_graph::datasets::Dataset;
use gnnerator_graph::EdgeList;

/// A count of core-clock cycles (both engines share one clock domain).
pub type Cycle = u64;

/// The GNNerator cycle-level timing simulator.
///
/// The simulator executes compiled artifacts it *borrows*: the compile-once
/// path goes through [`SimSession`] → [`CompiledWorkload`] →
/// [`Simulator::execute`], and the convenience methods on a constructed
/// `Simulator` build a throwaway session internally. Both paths run the same
/// controller, so their reports are bit-identical.
///
/// # Examples
///
/// ```
/// use gnnerator::{GnneratorConfig, Simulator};
/// use gnnerator_gnn::NetworkKind;
/// use gnnerator_graph::datasets::DatasetKind;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dataset = DatasetKind::Pubmed.spec().scaled(0.02).synthesize(1)?;
/// let model = NetworkKind::Graphsage.build_paper_config(dataset.spec.feature_dim, 3)?;
/// let sim = Simulator::new(GnneratorConfig::paper_default())?;
/// let report = sim.simulate(&model, &dataset)?;
/// assert_eq!(report.layers.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    config: GnneratorConfig,
    dataflow: DataflowConfig,
}

impl Simulator {
    /// Creates a simulator for `config` using the paper's default dataflow
    /// (feature blocking with `B = 64`).
    ///
    /// # Errors
    ///
    /// Returns [`GnneratorError::InvalidConfig`] if the configuration is
    /// invalid.
    pub fn new(config: GnneratorConfig) -> Result<Self, GnneratorError> {
        Self::with_dataflow(config, DataflowConfig::paper_default())
    }

    /// Creates a simulator with an explicit dataflow configuration.
    ///
    /// # Errors
    ///
    /// Returns [`GnneratorError::InvalidConfig`] or
    /// [`GnneratorError::InvalidDataflow`] if either configuration is invalid.
    pub fn with_dataflow(
        config: GnneratorConfig,
        dataflow: DataflowConfig,
    ) -> Result<Self, GnneratorError> {
        config.validate()?;
        dataflow.validate()?;
        Ok(Self { config, dataflow })
    }

    /// The platform configuration being simulated.
    pub fn config(&self) -> &GnneratorConfig {
        &self.config
    }

    /// The dataflow configuration being simulated.
    pub fn dataflow(&self) -> &DataflowConfig {
        &self.dataflow
    }

    /// Executes a compiled workload, borrowing its program and shard plans.
    ///
    /// This is the hot path of scenario sweeps: compilation (sharding, stage
    /// splitting) happened once in the owning [`SimSession`], and execution
    /// allocates nothing but the engine timers.
    ///
    /// # Errors
    ///
    /// Propagates engine-construction errors for the workload's
    /// configuration (cannot occur for configurations that passed
    /// [`GnneratorConfig::validate`]).
    pub fn execute(workload: &CompiledWorkload) -> Result<Report, GnneratorError> {
        Self::run_program(
            workload.config(),
            workload.program(),
            workload.dataset_name(),
        )
    }

    /// Simulates `model` running on `dataset`.
    ///
    /// # Errors
    ///
    /// Returns [`GnneratorError::Unmappable`] if the dataset's feature
    /// dimension does not match the model's input dimension, and propagates
    /// compilation errors.
    pub fn simulate(&self, model: &GnnModel, dataset: &Dataset) -> Result<Report, GnneratorError> {
        let session = SimSession::new(model.clone(), dataset)?;
        session.simulate(&self.config, self.dataflow)
    }

    /// Simulates `model` running on the graph described by `edges`.
    ///
    /// # Errors
    ///
    /// Propagates compilation errors (empty graph, unmappable layer
    /// structure, invalid configuration).
    pub fn simulate_edges(
        &self,
        model: &GnnModel,
        edges: &EdgeList,
        dataset_name: &str,
    ) -> Result<Report, GnneratorError> {
        let session = SimSession::from_edges(model.clone(), edges.clone(), dataset_name)?;
        session.simulate(&self.config, self.dataflow)
    }

    /// Runs a compiled program on the engines described by `config`.
    fn run_program(
        config: &GnneratorConfig,
        program: &Program,
        dataset_name: &str,
    ) -> Result<Report, GnneratorError> {
        let dense = DenseEngine::new(&config.dense)?;
        let graph = GraphEngine::new(&config.graph)?;
        let mut dram = DramModel::new(config.dram)?;

        // `simulate_layer` reports cycles relative to the layer start; the
        // next layer begins once everything (including trailing DRAM writes)
        // has drained, so the layer starts simply chain.
        let mut now: Cycle = 0;
        let mut layers = Vec::with_capacity(program.layers.len());
        for plan in &program.layers {
            let report = layer::simulate_layer(plan, &graph, &dense, &mut dram, now);
            now += report.cycles;
            layers.push(report);
        }
        let total_cycles = layers.iter().map(|l| l.cycles).sum();
        Ok(Report {
            platform: config.name.clone(),
            model_name: program.model_name.clone(),
            dataset_name: dataset_name.to_string(),
            frequency_ghz: config.frequency_ghz,
            total_cycles,
            layers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnerator_gnn::NetworkKind;
    use gnnerator_graph::datasets::DatasetKind;
    use gnnerator_graph::{generators, TraversalOrder};

    fn tiny_dataset() -> Dataset {
        DatasetKind::Cora
            .spec()
            .scaled(0.03)
            .synthesize(11)
            .unwrap()
    }

    #[test]
    fn rejects_mismatched_feature_dimension() {
        let dataset = tiny_dataset();
        let model = NetworkKind::Gcn.build(10, 8, 4, 1).unwrap();
        let sim = Simulator::new(GnneratorConfig::paper_default()).unwrap();
        assert!(matches!(
            sim.simulate(&model, &dataset),
            Err(GnneratorError::Unmappable { .. })
        ));
    }

    #[test]
    fn all_paper_networks_simulate() {
        let dataset = tiny_dataset();
        let sim = Simulator::new(GnneratorConfig::paper_default()).unwrap();
        for kind in NetworkKind::ALL {
            let model = kind
                .build_paper_config(dataset.spec.feature_dim, 7)
                .unwrap();
            let report = sim.simulate(&model, &dataset).unwrap();
            assert!(report.total_cycles > 0, "{kind}");
            assert_eq!(report.layers.len(), 2);
            assert!(report.dram_bytes() > 0);
            for layer in &report.layers {
                assert!(layer.cycles > 0);
                assert!(layer.graph_engine_utilization() <= 1.0);
                assert!(layer.dense_engine_utilization() <= 1.0);
            }
        }
    }

    #[test]
    fn total_cycles_is_the_sum_of_layer_cycles() {
        let dataset = tiny_dataset();
        let model = NetworkKind::Gcn
            .build_paper_config(dataset.spec.feature_dim, 7)
            .unwrap();
        let sim = Simulator::new(GnneratorConfig::paper_default()).unwrap();
        let report = sim.simulate(&model, &dataset).unwrap();
        let sum: Cycle = report.layers.iter().map(|l| l.cycles).sum();
        assert_eq!(report.total_cycles, sum);
    }

    #[test]
    fn simulation_is_deterministic() {
        let dataset = tiny_dataset();
        let model = NetworkKind::Graphsage
            .build_paper_config(dataset.spec.feature_dim, 7)
            .unwrap();
        let sim = Simulator::new(GnneratorConfig::paper_default()).unwrap();
        let a = sim.simulate(&model, &dataset).unwrap();
        let b = sim.simulate(&model, &dataset).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn executing_a_compiled_workload_matches_the_one_shot_path() {
        let dataset = tiny_dataset();
        let sim = Simulator::new(GnneratorConfig::paper_default()).unwrap();
        for kind in NetworkKind::ALL {
            let model = kind
                .build_paper_config(dataset.spec.feature_dim, 7)
                .unwrap();
            let session = SimSession::new(model.clone(), &dataset).unwrap();
            let workload = session
                .compile(
                    &GnneratorConfig::paper_default(),
                    DataflowConfig::paper_default(),
                )
                .unwrap();
            let compiled = Simulator::execute(&workload).unwrap();
            let one_shot = sim.simulate(&model, &dataset).unwrap();
            assert_eq!(compiled, one_shot, "{kind}");
        }
    }

    #[test]
    fn more_edges_never_run_faster() {
        let model = NetworkKind::Gcn.build(256, 16, 4, 1).unwrap();
        let sim = Simulator::new(GnneratorConfig::paper_default()).unwrap();
        let sparse = generators::rmat_exact(300, 1000, 3).unwrap();
        let dense_graph = generators::rmat_exact(300, 4000, 3).unwrap();
        let a = sim.simulate_edges(&model, &sparse, "sparse").unwrap();
        let b = sim.simulate_edges(&model, &dense_graph, "dense").unwrap();
        assert!(b.total_cycles >= a.total_cycles);
    }

    #[test]
    fn doubling_bandwidth_never_hurts() {
        let dataset = tiny_dataset();
        let model = NetworkKind::Gcn
            .build_paper_config(dataset.spec.feature_dim, 7)
            .unwrap();
        let base = Simulator::new(GnneratorConfig::paper_default()).unwrap();
        let fast = Simulator::new(GnneratorConfig::paper_default().with_double_feature_bandwidth())
            .unwrap();
        let a = base.simulate(&model, &dataset).unwrap();
        let b = fast.simulate(&model, &dataset).unwrap();
        assert!(b.total_cycles <= a.total_cycles);
    }

    #[test]
    fn blocked_dataflow_reduces_dram_traffic_on_feature_heavy_graphs() {
        // Use a graph too large to fit on-chip under the conventional
        // dataflow so the blocking benefit is visible.
        let edges = generators::rmat_exact(3000, 12000, 9).unwrap();
        let model = NetworkKind::Gcn.build(3703, 16, 6, 0).unwrap();
        let blocked = Simulator::with_dataflow(
            GnneratorConfig::paper_default(),
            DataflowConfig::paper_default(),
        )
        .unwrap();
        let conventional = Simulator::with_dataflow(
            GnneratorConfig::paper_default(),
            DataflowConfig::conventional(),
        )
        .unwrap();
        let b = blocked.simulate_edges(&model, &edges, "synthetic").unwrap();
        let c = conventional
            .simulate_edges(&model, &edges, "synthetic")
            .unwrap();
        assert!(
            b.dram_bytes() < c.dram_bytes(),
            "blocked {} vs conventional {}",
            b.dram_bytes(),
            c.dram_bytes()
        );
        assert!(
            b.total_cycles < c.total_cycles,
            "blocked {} vs conventional {}",
            b.total_cycles,
            c.total_cycles
        );
    }

    #[test]
    fn src_stationary_order_spills_destination_accumulators() {
        let edges = generators::rmat_exact(3000, 12000, 9).unwrap();
        let model = NetworkKind::Gcn.build(3703, 16, 6, 0).unwrap();
        let dst = Simulator::with_dataflow(
            GnneratorConfig::paper_default(),
            DataflowConfig::conventional(),
        )
        .unwrap();
        let src = Simulator::with_dataflow(
            GnneratorConfig::paper_default(),
            DataflowConfig::conventional().with_traversal(TraversalOrder::SourceStationary),
        )
        .unwrap();
        let d = dst.simulate_edges(&model, &edges, "synthetic").unwrap();
        let s = src.simulate_edges(&model, &edges, "synthetic").unwrap();
        // DST-stationary avoids the accumulator spill/reload writes.
        assert!(d.dram_write_bytes() < s.dram_write_bytes());
    }

    #[test]
    fn report_metadata_is_filled_in() {
        let dataset = tiny_dataset();
        let model = NetworkKind::Gcn
            .build_paper_config(dataset.spec.feature_dim, 7)
            .unwrap();
        let sim = Simulator::new(GnneratorConfig::paper_default()).unwrap();
        let report = sim.simulate(&model, &dataset).unwrap();
        assert_eq!(report.platform, "gnnerator");
        assert_eq!(report.model_name, "gcn");
        assert_eq!(report.dataset_name, "cora");
        assert_eq!(report.frequency_ghz, 1.0);
        assert!(report.seconds() > 0.0);
    }

    #[test]
    fn accessors() {
        let sim = Simulator::new(GnneratorConfig::paper_default()).unwrap();
        assert_eq!(sim.config().name, "gnnerator");
        assert_eq!(sim.dataflow(), &DataflowConfig::paper_default());
    }
}
