//! Compile-once, run-many simulation sessions.
//!
//! Every figure and table in the paper's evaluation is a *sweep*: the same
//! model/dataset pair simulated under many `(platform, dataflow)` points. A
//! [`SimSession`] pins one model and one graph, validates them once, and
//! hands out immutable [`CompiledWorkload`]s — the program plus shared shard
//! plans — that the [`Simulator`](crate::Simulator) executes without ever
//! touching the session again. Shard grids are memoised in a
//! [`ShardPlanCache`], so two configurations that derive the same
//! nodes-per-shard parameter share one grid instead of re-sharding.

use crate::{
    BackendEvaluation, Compiler, DataflowConfig, GnneratorConfig, GnneratorError, Program, Report,
    Simulator,
};
use gnnerator_gnn::GnnModel;
use gnnerator_graph::datasets::Dataset;
use gnnerator_graph::{ArtifactCache, EdgeList, ShardPlanCache};
use std::fmt;
use std::sync::Arc;

/// A reusable simulation context: one model, one graph, many configurations.
///
/// # Examples
///
/// ```
/// use gnnerator::{DataflowConfig, GnneratorConfig, SimSession, Simulator};
/// use gnnerator_gnn::NetworkKind;
/// use gnnerator_graph::datasets::DatasetKind;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dataset = DatasetKind::Cora.spec().scaled(0.05).synthesize(7)?;
/// let model = NetworkKind::Gcn.build_paper_config(dataset.spec.feature_dim, 7)?;
/// let session = SimSession::new(model, &dataset)?;
///
/// // Compile once per configuration; graphs are sharded at most once per
/// // distinct shard parameter.
/// let config = GnneratorConfig::paper_default();
/// let blocked = session.compile(&config, DataflowConfig::paper_default())?;
/// let conventional = session.compile(&config, DataflowConfig::conventional())?;
/// let a = Simulator::execute(&blocked)?;
/// let b = Simulator::execute(&conventional)?;
/// assert!(a.total_cycles > 0 && b.total_cycles > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SimSession {
    model: GnnModel,
    dataset_name: String,
    plans: ShardPlanCache,
}

impl SimSession {
    /// Creates a session for `model` running on `dataset`, with purely
    /// in-memory shard-plan caching.
    ///
    /// The session shares the dataset handle and reads no edge until its
    /// first compile builds a shard summary.
    ///
    /// # Errors
    ///
    /// Returns [`GnneratorError::Graph`] if the dataset's spec is degenerate
    /// and [`GnneratorError::Unmappable`] if its feature dimension
    /// (`spec.feature_dim`) does not match the model's input dimension.
    pub fn new(model: GnnModel, dataset: &Dataset) -> Result<Self, GnneratorError> {
        Self::build(model, dataset, None)
    }

    /// Like [`SimSession::new`], but shard grids are additionally persisted
    /// in (and loaded from) `cache`, keyed by the dataset's `(spec, seed)`
    /// identity — repeated harness runs skip re-sharding entirely, and a
    /// session whose every summary loads never materialises its edges.
    ///
    /// # Errors
    ///
    /// Same contract as [`SimSession::new`].
    pub fn with_artifact_cache(
        model: GnnModel,
        dataset: &Dataset,
        cache: Arc<ArtifactCache>,
    ) -> Result<Self, GnneratorError> {
        Self::build(model, dataset, Some(cache))
    }

    fn build(
        model: GnnModel,
        dataset: &Dataset,
        cache: Option<Arc<ArtifactCache>>,
    ) -> Result<Self, GnneratorError> {
        dataset.spec.validate()?;
        if dataset.spec.feature_dim != model.input_dim() {
            return Err(GnneratorError::unmappable(format!(
                "dataset features are {}-dimensional but the model expects {}",
                dataset.spec.feature_dim,
                model.input_dim()
            )));
        }
        Ok(Self {
            model,
            dataset_name: dataset.spec.name.to_string(),
            plans: ShardPlanCache::for_dataset(dataset.clone(), cache),
        })
    }

    /// Creates a session for `model` running on a bare edge list (no
    /// persistent shard-plan caching: an anonymous edge list has no stable
    /// cache identity).
    ///
    /// # Errors
    ///
    /// Returns [`GnneratorError::Unmappable`] if the graph has no nodes.
    pub fn from_edges(
        model: GnnModel,
        edges: EdgeList,
        dataset_name: impl Into<String>,
    ) -> Result<Self, GnneratorError> {
        if edges.num_nodes() == 0 {
            return Err(GnneratorError::unmappable("graph has no nodes"));
        }
        Ok(Self {
            model,
            dataset_name: dataset_name.into(),
            plans: ShardPlanCache::new(Arc::new(edges)),
        })
    }

    /// The model this session simulates.
    pub fn model(&self) -> &GnnModel {
        &self.model
    }

    /// The dataset name stamped into reports.
    pub fn dataset_name(&self) -> &str {
        &self.dataset_name
    }

    /// Number of nodes in the session's graph.
    pub fn num_nodes(&self) -> usize {
        self.plans.num_nodes()
    }

    /// Number of edges in the session's graph (excluding compiler-added
    /// self-loops).
    pub fn num_edges(&self) -> usize {
        self.plans.num_edges()
    }

    /// Number of distinct shard grids built so far.
    pub fn cached_shard_plans(&self) -> usize {
        self.plans.cached_plans()
    }

    /// Cumulative wall-clock seconds this session has spent building shard
    /// grids (cache hits are free; feeds `BENCH_sweep.json`'s
    /// `shard_build_seconds`).
    pub fn shard_build_seconds(&self) -> f64 {
        self.plans.build_seconds()
    }

    /// Number of shard grids this session built from scratch.
    pub fn shard_grids_built(&self) -> usize {
        self.plans.grids_built()
    }

    /// Number of shard grids this session loaded from the persistent
    /// artifact cache.
    pub fn shard_grids_loaded(&self) -> usize {
        self.plans.grids_loaded()
    }

    /// Compiles this session's workload for one `(platform, dataflow)` point.
    ///
    /// Shard grids are reused from the session cache whenever the derived
    /// shard parameters match an earlier compilation.
    ///
    /// # Errors
    ///
    /// Propagates configuration-validation and compilation errors.
    pub fn compile(
        &self,
        config: &GnneratorConfig,
        dataflow: DataflowConfig,
    ) -> Result<CompiledWorkload, GnneratorError> {
        let compiler = Compiler::new(config.clone(), dataflow)?;
        let program = compiler.compile_cached(&self.model, &self.plans)?;
        Ok(CompiledWorkload {
            config: config.clone(),
            dataflow,
            dataset_name: self.dataset_name.clone(),
            program,
        })
    }

    /// Compiles and immediately executes one `(platform, dataflow)` point.
    ///
    /// # Errors
    ///
    /// Propagates compilation and simulation errors.
    pub fn simulate(
        &self,
        config: &GnneratorConfig,
        dataflow: DataflowConfig,
    ) -> Result<Report, GnneratorError> {
        Simulator::execute(&self.compile(config, dataflow)?)
    }

    /// Like [`SimSession::simulate`], but returns the platform-neutral
    /// [`BackendEvaluation`] the sweep path's backends trade in.
    ///
    /// # Errors
    ///
    /// Propagates compilation and simulation errors.
    pub fn evaluate(
        &self,
        config: &GnneratorConfig,
        dataflow: DataflowConfig,
    ) -> Result<BackendEvaluation, GnneratorError> {
        Ok(self.simulate(config, dataflow)?.to_evaluation())
    }
}

impl fmt::Display for SimSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "session: {} on {} ({} nodes / {} edges, {} cached shard plans)",
            self.model.name(),
            self.dataset_name,
            self.num_nodes(),
            self.num_edges(),
            self.cached_shard_plans()
        )
    }
}

/// An immutable compiled artifact: everything the simulator needs to execute
/// one scenario point, with shard plans shared back into the owning session.
#[derive(Debug, Clone)]
pub struct CompiledWorkload {
    config: GnneratorConfig,
    dataflow: DataflowConfig,
    dataset_name: String,
    program: Program,
}

impl CompiledWorkload {
    /// The platform configuration the program was compiled for.
    pub fn config(&self) -> &GnneratorConfig {
        &self.config
    }

    /// The dataflow configuration the program was compiled for.
    pub fn dataflow(&self) -> &DataflowConfig {
        &self.dataflow
    }

    /// The compiled per-layer execution plans.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Name of the compiled model.
    pub fn model_name(&self) -> &str {
        &self.program.model_name
    }

    /// Name of the dataset the program was compiled against.
    pub fn dataset_name(&self) -> &str {
        &self.dataset_name
    }
}

impl fmt::Display for CompiledWorkload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "compiled {} on {} for {} [{}]",
            self.model_name(),
            self.dataset_name,
            self.config.name,
            self.dataflow
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnerator_gnn::NetworkKind;
    use gnnerator_graph::datasets::DatasetKind;

    fn session() -> SimSession {
        let dataset = DatasetKind::Cora
            .spec()
            .scaled(0.03)
            .synthesize(11)
            .unwrap();
        let model = NetworkKind::Gcn
            .build_paper_config(dataset.spec.feature_dim, 7)
            .unwrap();
        SimSession::new(model, &dataset).unwrap()
    }

    #[test]
    fn rejects_mismatched_dimensions() {
        let dataset = DatasetKind::Cora
            .spec()
            .scaled(0.03)
            .synthesize(11)
            .unwrap();
        let model = NetworkKind::Gcn.build(10, 8, 4, 1).unwrap();
        assert!(matches!(
            SimSession::new(model, &dataset),
            Err(GnneratorError::Unmappable { .. })
        ));
    }

    #[test]
    fn rejects_empty_graphs() {
        let model = NetworkKind::Gcn.build(8, 8, 4, 1).unwrap();
        assert!(SimSession::from_edges(model, EdgeList::new(0), "empty").is_err());
    }

    #[test]
    fn session_reuse_matches_fresh_compilation() {
        let dataset = DatasetKind::Cora
            .spec()
            .scaled(0.03)
            .synthesize(11)
            .unwrap();
        let model = NetworkKind::Graphsage
            .build_paper_config(dataset.spec.feature_dim, 7)
            .unwrap();
        let session = SimSession::new(model.clone(), &dataset).unwrap();
        let config = GnneratorConfig::paper_default();

        // Warm the cache with several dataflows, then compare against the
        // one-shot Simulator path.
        for dataflow in [
            DataflowConfig::paper_default(),
            DataflowConfig::conventional(),
            DataflowConfig::blocked(32),
            DataflowConfig::paper_default(),
        ] {
            let session_report = session.simulate(&config, dataflow).unwrap();
            let fresh = Simulator::with_dataflow(config.clone(), dataflow)
                .unwrap()
                .simulate(&model, &dataset)
                .unwrap();
            assert_eq!(session_report, fresh, "{dataflow}");
        }
    }

    #[test]
    fn shard_plans_are_shared_across_compilations() {
        let session = session();
        let config = GnneratorConfig::paper_default();
        let a = session
            .compile(&config, DataflowConfig::paper_default())
            .unwrap();
        let plans_after_first = session.cached_shard_plans();
        let b = session
            .compile(&config, DataflowConfig::paper_default())
            .unwrap();
        assert_eq!(
            session.cached_shard_plans(),
            plans_after_first,
            "no new grids"
        );
        // Identical compilations share the same Arc'd grids.
        for (la, lb) in a.program().layers.iter().zip(&b.program().layers) {
            assert!(std::sync::Arc::ptr_eq(&la.grid, &lb.grid));
        }
    }

    #[test]
    fn workload_accessors_describe_the_point() {
        let session = session();
        let config = GnneratorConfig::paper_default();
        let workload = session
            .compile(&config, DataflowConfig::conventional())
            .unwrap();
        assert_eq!(workload.model_name(), "gcn");
        assert_eq!(workload.dataset_name(), "cora");
        assert_eq!(workload.config().name, "gnnerator");
        assert_eq!(workload.dataflow(), &DataflowConfig::conventional());
        assert_eq!(workload.program().num_layers(), 2);
        assert!(workload.to_string().contains("cora"));
        assert!(session.to_string().contains("cached shard plans"));
    }

    #[test]
    fn artifact_cached_sessions_reload_grids_bit_identically() {
        use gnnerator_graph::ArtifactCache;
        use std::sync::Arc;

        let dir =
            std::env::temp_dir().join(format!("gnnerator-session-cache-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cache = Arc::new(ArtifactCache::new(&dir));
        let dataset = DatasetKind::Cora
            .spec()
            .scaled(0.03)
            .synthesize(11)
            .unwrap();
        let model = NetworkKind::Gcn
            .build_paper_config(dataset.spec.feature_dim, 7)
            .unwrap();
        let config = GnneratorConfig::paper_default();

        let cold =
            SimSession::with_artifact_cache(model.clone(), &dataset, Arc::clone(&cache)).unwrap();
        let cold_report = cold
            .simulate(&config, DataflowConfig::paper_default())
            .unwrap();
        assert!(cold.shard_grids_built() > 0);
        assert_eq!(cold.shard_grids_loaded(), 0);

        // A fresh session over the same dataset loads every grid from disk
        // and reproduces the report bit for bit.
        let warm = SimSession::with_artifact_cache(model, &dataset, cache).unwrap();
        let warm_report = warm
            .simulate(&config, DataflowConfig::paper_default())
            .unwrap();
        assert_eq!(warm.shard_grids_built(), 0, "warm session never reshards");
        assert!(warm.shard_grids_loaded() > 0);
        assert_eq!(warm_report, cold_report);
        std::fs::remove_dir_all(&dir).ok();
    }
}
