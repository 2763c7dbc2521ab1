//! The nine-benchmark suite (Tables II & III) and its sweep-backed runner.
//!
//! A [`SuiteContext`] wraps a shared [`SweepRunner`]: datasets are
//! synthesised once, models are compiled once per (dataset, network) pair
//! into [`SimSession`](gnnerator::SimSession)s, and every figure/table
//! enumerates [`ScenarioSpec`]s that execute in parallel through one code
//! path. Baseline platforms (GPU roofline, HyGCN) are scenario points of the
//! same sweep — [`SuiteContext::run_workload`] enumerates accelerator *and*
//! baseline [`BackendKind`]s in one batch instead of stitching estimates on
//! afterwards.

use gnnerator::{
    BackendEvaluation, BackendKind, DataflowConfig, GnneratorConfig, GnneratorError, Report,
    ScenarioResult, ScenarioSpec, SweepRunner,
};
use gnnerator_gnn::{GnnModel, NetworkKind};
use gnnerator_graph::datasets::{Dataset, DatasetKind, DatasetSpec};
use gnnerator_graph::ArtifactCache;
use std::fmt;
use std::sync::Arc;

/// One benchmark: a dataset paired with a network architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Workload {
    /// The input graph dataset.
    pub dataset: DatasetKind,
    /// The GNN architecture.
    pub network: NetworkKind,
}

impl Workload {
    /// Creates a workload.
    pub fn new(dataset: DatasetKind, network: NetworkKind) -> Self {
        Self { dataset, network }
    }

    /// The label used on the x-axis of Figure 3 (e.g. `cora-gcn`,
    /// `pub-gsage-max`).
    pub fn label(&self) -> String {
        format!(
            "{}-{}",
            self.dataset.short_name(),
            self.network.short_name()
        )
    }

    /// Number of output classes of the dataset (used as the model's output
    /// dimension, as DGL's node-classification setup does). Delegates to the
    /// shared per-dataset table the serving API defaults to as well.
    pub fn num_classes(&self) -> usize {
        self.dataset.num_classes()
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Parses an optional `--scale <factor>` argument from a binary's command
/// line, defaulting to 1.0 (the paper's full-size datasets).
///
/// Unrecognised arguments are ignored so the harness binaries stay
/// dependency-free.
///
/// # Errors
///
/// A `--scale` without a value, or with one that is not a number in
/// (0, 1], is an error whose message names `--scale`.
///
/// # Examples
///
/// ```
/// use gnnerator_bench::suite::scale_from_args;
/// let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
/// assert_eq!(scale_from_args(args(&["fig3", "--scale", "0.25"]).into_iter()), Ok(0.25));
/// assert_eq!(scale_from_args(args(&["fig3"]).into_iter()), Ok(1.0));
/// let error = scale_from_args(args(&["fig3", "--scale", "2"]).into_iter()).unwrap_err();
/// assert!(error.contains("--scale"));
/// ```
pub fn scale_from_args(args: impl Iterator<Item = String>) -> Result<f64, String> {
    let mut args = args.skip_while(|arg| arg != "--scale");
    if args.next().is_none() {
        return Ok(1.0);
    }
    let value = args.next().ok_or("--scale needs a value")?;
    match value.parse::<f64>() {
        Ok(scale) if scale > 0.0 && scale <= 1.0 => Ok(scale),
        _ => Err(format!("--scale: {value:?} is not a number in (0, 1]")),
    }
}

/// [`scale_from_args`] over the process's own arguments: a bad `--scale`
/// prints the error and exits with status 2.
pub fn scale_or_exit() -> f64 {
    scale_from_args(std::env::args()).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2)
    })
}

/// The nine benchmarks of Figure 3, in the paper's order.
pub fn full_suite() -> Vec<Workload> {
    let mut suite = Vec::with_capacity(9);
    for dataset in DatasetKind::ALL {
        for network in NetworkKind::ALL {
            suite.push(Workload::new(dataset, network));
        }
    }
    suite
}

/// Options controlling how the suite is materialised and simulated.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteOptions {
    /// Scale factor applied to every dataset's vertex/edge counts (1.0 = the
    /// paper's full-size datasets; smaller values for fast smoke tests).
    pub scale: f64,
    /// Seed for dataset synthesis.
    pub seed: u64,
    /// Hidden dimension of the networks (16 in Table III).
    pub hidden_dim: usize,
    /// Accelerator configuration to simulate.
    pub config: GnneratorConfig,
    /// Feature-block size for the blocked dataflow (64 in the paper).
    pub block_size: usize,
}

impl SuiteOptions {
    /// The paper's configuration: full-size datasets, hidden dimension 16,
    /// block size 64.
    pub fn paper() -> Self {
        Self {
            scale: 1.0,
            seed: 42,
            hidden_dim: NetworkKind::PAPER_HIDDEN_DIM,
            config: GnneratorConfig::paper_default(),
            block_size: 64,
        }
    }

    /// A heavily scaled-down configuration for tests and doctests.
    pub fn quick() -> Self {
        Self {
            scale: 0.05,
            ..Self::paper()
        }
    }

    /// Returns a copy with a different dataset scale.
    pub fn with_scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }
}

impl Default for SuiteOptions {
    fn default() -> Self {
        Self::paper()
    }
}

/// Results of running one workload on every platform, folded from one
/// unified sweep (two accelerator dataflows plus both baseline backends).
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// The workload that was run.
    pub workload: Workload,
    /// GNNerator with the feature-blocking dataflow.
    pub gnnerator_blocked: Report,
    /// GNNerator with the conventional dataflow ("w/o Feature Blocking").
    pub gnnerator_unblocked: Report,
    /// The GPU-roofline (RTX 2080 Ti) backend's evaluation.
    pub gpu: BackendEvaluation,
    /// The HyGCN backend's evaluation (with its dataset-specific sparsity
    /// elimination applied).
    pub hygcn: BackendEvaluation,
}

impl WorkloadResult {
    /// Speedup of blocked GNNerator over the GPU (a Figure 3 bar).
    pub fn speedup_blocked_vs_gpu(&self) -> f64 {
        self.gpu.seconds / self.gnnerator_blocked.seconds()
    }

    /// Speedup of unblocked GNNerator over the GPU (a Figure 3 bar).
    pub fn speedup_unblocked_vs_gpu(&self) -> f64 {
        self.gpu.seconds / self.gnnerator_unblocked.seconds()
    }

    /// Speedup of blocked GNNerator over HyGCN (a Table V entry).
    pub fn speedup_blocked_vs_hygcn(&self) -> f64 {
        self.hygcn.seconds / self.gnnerator_blocked.seconds()
    }
}

/// A materialised benchmark suite: a shared sweep runner plus the options
/// scenarios are derived from.
///
/// Cloning is cheap and shares the runner's dataset/session caches — the
/// Figure 5 study clones the context per hidden dimension while reusing the
/// synthesised graphs.
#[derive(Debug, Clone)]
pub struct SuiteContext {
    options: SuiteOptions,
    runner: Arc<SweepRunner>,
}

impl SuiteContext {
    /// Synthesises every dataset in the suite according to `options`, with a
    /// purely in-memory runner.
    ///
    /// # Errors
    ///
    /// Propagates degenerate-spec errors.
    pub fn materialize(options: &SuiteOptions) -> Result<Self, GnneratorError> {
        Self::build(options, SweepRunner::new())
    }

    /// Like [`SuiteContext::materialize`], but datasets and shard grids are
    /// additionally persisted in (and loaded from) `cache`, so repeated
    /// harness runs skip synthesis and re-sharding entirely.
    ///
    /// # Errors
    ///
    /// Propagates degenerate-spec errors.
    pub fn materialize_with_cache(
        options: &SuiteOptions,
        cache: Arc<ArtifactCache>,
    ) -> Result<Self, GnneratorError> {
        Self::build(options, SweepRunner::new().with_artifact_cache(cache))
    }

    fn build(options: &SuiteOptions, runner: SweepRunner) -> Result<Self, GnneratorError> {
        let ctx = Self {
            options: options.clone(),
            runner: Arc::new(runner),
        };
        // Open every dataset eagerly so a degenerate spec surfaces here; the
        // edges load or synthesise on the first compile that needs them.
        for kind in DatasetKind::ALL {
            ctx.dataset(kind)?;
        }
        Ok(ctx)
    }

    /// The options this context was materialised with.
    pub fn options(&self) -> &SuiteOptions {
        &self.options
    }

    /// The shared sweep runner (dataset + session caches).
    pub fn runner(&self) -> &SweepRunner {
        &self.runner
    }

    /// Returns a copy of this context with a different hidden dimension,
    /// sharing the already-synthesised datasets (the Figure 5 study sweeps
    /// hidden dimensions 16, 128 and 1024 over the same graphs).
    pub fn with_hidden_dim(&self, hidden_dim: usize) -> SuiteContext {
        let mut clone = self.clone();
        clone.options.hidden_dim = hidden_dim;
        clone
    }

    /// The (possibly scaled) dataset specification for `kind`.
    pub fn dataset_spec(&self, kind: DatasetKind) -> DatasetSpec {
        if (self.options.scale - 1.0).abs() < f64::EPSILON {
            kind.spec()
        } else {
            kind.spec().scaled(self.options.scale)
        }
    }

    /// The synthesis seed for `kind` (consecutive seeds in Table II order;
    /// the ogbn extension continues the sequence).
    pub fn dataset_seed(&self, kind: DatasetKind) -> u64 {
        self.options.seed + kind.seed_offset()
    }

    /// The blocked dataflow these options describe.
    pub fn blocked_dataflow(&self) -> DataflowConfig {
        DataflowConfig::blocked(self.options.block_size)
    }

    /// Builds the scenario point for a workload under this context's hidden
    /// dimension.
    pub fn scenario(
        &self,
        workload: &Workload,
        config: GnneratorConfig,
        dataflow: DataflowConfig,
    ) -> ScenarioSpec {
        let mut scenario = ScenarioSpec::new(
            workload.network,
            self.dataset_spec(workload.dataset),
            self.dataset_seed(workload.dataset),
            self.options.hidden_dim,
            workload.num_classes(),
            config,
            dataflow,
        );
        scenario.hidden_layers = 1;
        scenario
    }

    /// The dataset handle for `kind` (its edges materialise on first use).
    ///
    /// # Errors
    ///
    /// Propagates degenerate-spec errors (cannot occur for the built-in
    /// specs).
    pub fn dataset(&self, kind: DatasetKind) -> Result<Dataset, GnneratorError> {
        self.runner
            .dataset_for(self.dataset_spec(kind), self.dataset_seed(kind))
    }

    /// Builds the model for a workload at this context's hidden dimension.
    ///
    /// # Errors
    ///
    /// Propagates model-construction errors.
    pub fn model_for(&self, workload: &Workload) -> Result<GnnModel, GnneratorError> {
        let dataset = self.dataset(workload.dataset)?;
        workload
            .network
            .build(
                dataset.spec.feature_dim,
                self.options.hidden_dim,
                workload.num_classes(),
                1,
            )
            .map_err(GnneratorError::from)
    }

    /// Runs a batch of scenario points in parallel through the shared runner.
    ///
    /// # Errors
    ///
    /// Returns the first scenario error in input order.
    pub fn run_scenarios(
        &self,
        scenarios: &[ScenarioSpec],
    ) -> Result<Vec<ScenarioResult>, GnneratorError> {
        self.runner.run(scenarios)
    }

    /// Builds the scenario point that evaluates a workload on a baseline
    /// platform. Baseline backends ignore the accelerator configuration and
    /// dataflow, so the context defaults are stamped in for labelling only.
    pub fn baseline_scenario(&self, workload: &Workload, backend: BackendKind) -> ScenarioSpec {
        self.scenario(
            workload,
            self.options.config.clone(),
            self.blocked_dataflow(),
        )
        .with_backend(backend)
    }

    /// The four scenario points of one workload, in fold order: blocked and
    /// conventional GNNerator, then the GPU-roofline and HyGCN backends.
    fn workload_scenarios(&self, workload: &Workload) -> [ScenarioSpec; 4] {
        [
            self.scenario(
                workload,
                self.options.config.clone(),
                self.blocked_dataflow(),
            ),
            self.scenario(
                workload,
                self.options.config.clone(),
                DataflowConfig::conventional(),
            ),
            self.baseline_scenario(workload, BackendKind::GpuRoofline),
            self.baseline_scenario(workload, BackendKind::Hygcn),
        ]
    }

    fn fold_workload(workload: Workload, chunk: &[ScenarioResult]) -> WorkloadResult {
        WorkloadResult {
            workload,
            gnnerator_blocked: chunk[0]
                .report
                .clone()
                .expect("blocked point is an accelerator scenario"),
            gnnerator_unblocked: chunk[1]
                .report
                .clone()
                .expect("conventional point is an accelerator scenario"),
            gpu: chunk[2].evaluation.clone(),
            hygcn: chunk[3].evaluation.clone(),
        }
    }

    /// Runs one workload on all four platforms — both GNNerator dataflows
    /// plus the GPU-roofline and HyGCN backends — as one parallel sweep.
    ///
    /// # Errors
    ///
    /// Propagates simulation and backend-evaluation errors.
    pub fn run_workload(&self, workload: &Workload) -> Result<WorkloadResult, GnneratorError> {
        let results = self.runner.run(&self.workload_scenarios(workload))?;
        Ok(Self::fold_workload(*workload, &results))
    }

    /// Runs the whole nine-benchmark suite — accelerator and baseline
    /// platforms — as one parallel sweep of 36 scenario points.
    ///
    /// # Errors
    ///
    /// Propagates the first workload error encountered.
    pub fn run_suite(&self) -> Result<Vec<WorkloadResult>, GnneratorError> {
        let workloads = full_suite();
        let scenarios: Vec<ScenarioSpec> = workloads
            .iter()
            .flat_map(|w| self.workload_scenarios(w))
            .collect();
        let results = self.run_scenarios(&scenarios)?;
        Ok(workloads
            .iter()
            .zip(results.chunks_exact(4))
            .map(|(workload, chunk)| Self::fold_workload(*workload, chunk))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_context() -> SuiteContext {
        SuiteContext::materialize(&SuiteOptions::quick()).unwrap()
    }

    #[test]
    fn bad_scales_are_errors_naming_the_flag() {
        for args in [
            &["fig3", "--scale", "abc"][..],
            &["fig3", "--scale", "0"],
            &["fig3", "--scale", "1.5"],
            &["fig3", "--scale"],
        ] {
            let args = args.iter().map(|arg| arg.to_string());
            let error = scale_from_args(args).unwrap_err();
            assert!(error.contains("--scale"), "{error}");
        }
    }

    #[test]
    fn full_suite_has_nine_workloads_in_paper_order() {
        let suite = full_suite();
        assert_eq!(suite.len(), 9);
        assert_eq!(suite[0].label(), "cora-gcn");
        assert_eq!(suite[2].label(), "cora-gsage-max");
        assert_eq!(suite[8].label(), "pub-gsage-max");
    }

    #[test]
    fn workload_metadata() {
        let w = Workload::new(DatasetKind::Citeseer, NetworkKind::Graphsage);
        assert_eq!(w.label(), "citeseer-gsage");
        assert_eq!(w.num_classes(), 6);
        assert_eq!(w.to_string(), "citeseer-gsage");
    }

    #[test]
    fn context_materialises_all_datasets() {
        let ctx = quick_context();
        for kind in DatasetKind::ALL {
            let ds = ctx.dataset(kind).unwrap();
            assert!(ds.num_nodes() > 0);
            assert_eq!(ds.spec.feature_dim, kind.spec().feature_dim);
        }
        assert!((ctx.options().scale - 0.05).abs() < 1e-9);
        assert_eq!(ctx.runner().cached_datasets(), 3);
    }

    #[test]
    fn scenarios_inherit_the_context_options() {
        let ctx = quick_context();
        let w = Workload::new(DatasetKind::Pubmed, NetworkKind::Graphsage);
        let s = ctx.scenario(&w, ctx.options().config.clone(), ctx.blocked_dataflow());
        assert_eq!(s.network, NetworkKind::Graphsage);
        assert_eq!(s.out_dim, 3);
        assert_eq!(s.hidden_dim, 16);
        assert_eq!(s.seed, ctx.options().seed + 2);
        assert_eq!(s.dataflow, DataflowConfig::blocked(64));
    }

    #[test]
    fn run_workload_produces_consistent_results() {
        let ctx = quick_context();
        let result = ctx
            .run_workload(&Workload::new(DatasetKind::Cora, NetworkKind::Gcn))
            .unwrap();
        assert!(result.gnnerator_blocked.total_cycles > 0);
        assert!(result.gnnerator_unblocked.total_cycles > 0);
        assert!(result.gpu.seconds > 0.0);
        assert!(result.hygcn.seconds > 0.0);
        assert!(result.speedup_blocked_vs_gpu() > 0.0);
        assert!(result.speedup_unblocked_vs_gpu() > 0.0);
        assert!(result.speedup_blocked_vs_hygcn() > 0.0);
    }

    #[test]
    fn run_suite_matches_per_workload_runs() {
        let ctx = quick_context();
        let all = ctx.run_suite().unwrap();
        assert_eq!(all.len(), 9);
        for result in &all {
            let single = ctx.run_workload(&result.workload).unwrap();
            assert_eq!(result.gnnerator_blocked, single.gnnerator_blocked);
            assert_eq!(result.gnnerator_unblocked, single.gnnerator_unblocked);
        }
    }

    #[test]
    fn workload_results_agree_with_the_speedup_columns() {
        // The gpu/hygcn evaluations folded into a WorkloadResult must be the
        // same numbers the accelerator points carry as baseline_seconds —
        // one sweep, one source of truth for every speedup figure.
        let ctx = quick_context();
        let w = Workload::new(DatasetKind::Citeseer, NetworkKind::Gcn);
        let result = ctx.run_workload(&w).unwrap();
        let blocked = ctx
            .runner()
            .run_one(&ctx.scenario(&w, ctx.options().config.clone(), ctx.blocked_dataflow()))
            .unwrap();
        let baselines = blocked.baseline_seconds.unwrap();
        assert_eq!(result.gpu.seconds, baselines.gpu);
        assert_eq!(result.hygcn.seconds, baselines.hygcn);
        assert_eq!(
            result.speedup_blocked_vs_gpu(),
            blocked.speedup_vs_gpu().unwrap()
        );
        assert_eq!(
            result.speedup_blocked_vs_hygcn(),
            blocked.speedup_vs_hygcn().unwrap()
        );
    }

    #[test]
    fn baseline_scenarios_name_their_backend() {
        let ctx = quick_context();
        let w = Workload::new(DatasetKind::Cora, NetworkKind::Gcn);
        let s = ctx.baseline_scenario(&w, BackendKind::Hygcn);
        assert_eq!(s.backend, BackendKind::Hygcn);
        assert_eq!(s.label(), "cora-gcn/hygcn");
    }

    #[test]
    fn hidden_dim_clones_share_datasets() {
        let ctx = quick_context();
        let wide = ctx.with_hidden_dim(128);
        assert_eq!(wide.options().hidden_dim, 128);
        wide.dataset(DatasetKind::Cora).unwrap();
        // Same runner, so no second synthesis of the same spec.
        assert_eq!(ctx.runner().cached_datasets(), 3);
    }

    #[test]
    fn options_builders() {
        let opts = SuiteOptions::paper().with_scale(0.5);
        assert!((opts.scale - 0.5).abs() < 1e-9);
        assert_eq!(SuiteOptions::default(), SuiteOptions::paper());
    }
}
