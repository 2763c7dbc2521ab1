//! The parallel scenario-sweep engine.
//!
//! Every figure and table of the paper's evaluation enumerates scenario
//! points — (backend × network × dataset × platform configuration ×
//! dataflow) — and evaluates each one. A [`SweepRunner`] owns the two caches
//! that make this cheap (dataset handles, keyed by spec and seed, whose
//! edges materialise at most once and whose shard summaries every session
//! over them shares; compiled [`SimSession`]s, keyed by dataset and model
//! shape) and executes a batch of [`ScenarioSpec`]s in parallel on scoped
//! worker threads.
//!
//! Scenario execution routes through the [`Backend`] trait: the simulated
//! accelerator ([`GnneratorBackend`]) and the two analytical baselines
//! ([`GpuRooflineBackend`](crate::GpuRooflineBackend),
//! [`HygcnBackend`](crate::HygcnBackend)) all produce a
//! [`BackendEvaluation`], so one sweep enumerates accelerator *and* baseline
//! points. Accelerator points additionally keep their cycle-level [`Report`]
//! and carry both baselines' estimated seconds, so speedup columns fall out
//! of a single pass.
//!
//! Parallel execution is observably identical to serial execution: every
//! backend is deterministic, scenarios are independent, and results are
//! returned in input order. The sweep determinism tests pin this property
//! bit-for-bit across all backends.

use crate::{
    Backend, BackendEvaluation, BackendKind, DataflowConfig, GnneratorBackend, GnneratorConfig,
    GnneratorError, GpuRooflineBackend, HygcnBackend, Report, SimSession,
};
use gnnerator_baselines::guarded_speedup;
use gnnerator_faults::lock_recover;
use gnnerator_gnn::NetworkKind;
use gnnerator_graph::datasets::{Dataset, DatasetSpec};
use gnnerator_graph::ArtifactCache;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One scenario point of a sweep: everything needed to synthesise the
/// dataset, build the model and evaluate it on one platform under one
/// configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The platform that evaluates the point.
    pub backend: BackendKind,
    /// The GNN architecture.
    pub network: NetworkKind,
    /// The dataset specification (scaling already applied).
    pub dataset: DatasetSpec,
    /// Seed for dataset synthesis.
    pub seed: u64,
    /// Hidden dimension of the model.
    pub hidden_dim: usize,
    /// Output dimension of the model (the dataset's class count in the
    /// paper's setup).
    pub out_dim: usize,
    /// Number of hidden layers (1 in Table III).
    pub hidden_layers: usize,
    /// Platform configuration to simulate (accelerator backends only;
    /// analytical baselines ignore it).
    pub config: GnneratorConfig,
    /// Dataflow configuration to simulate (accelerator backends only).
    pub dataflow: DataflowConfig,
}

impl ScenarioSpec {
    /// Creates an accelerator scenario with the paper's model shape (one
    /// hidden layer). Use [`ScenarioSpec::with_backend`] to retarget the
    /// point at a baseline platform.
    pub fn new(
        network: NetworkKind,
        dataset: DatasetSpec,
        seed: u64,
        hidden_dim: usize,
        out_dim: usize,
        config: GnneratorConfig,
        dataflow: DataflowConfig,
    ) -> Self {
        Self {
            backend: BackendKind::Gnnerator,
            network,
            dataset,
            seed,
            hidden_dim,
            out_dim,
            hidden_layers: 1,
            config,
            dataflow,
        }
    }

    /// Returns a copy of this scenario evaluated on a different platform.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// A human-readable point label (`cora-gcn/blocked (B = 64)/gnnerator`
    /// for accelerator points, `cora-gcn/gpu-roofline` for baselines, whose
    /// evaluation does not depend on a dataflow or platform configuration).
    pub fn label(&self) -> String {
        if self.backend.is_accelerator() {
            format!(
                "{}-{}/{}/{}",
                self.dataset.name,
                self.network.short_name(),
                self.dataflow,
                self.config.name
            )
        } else {
            format!(
                "{}-{}/{}",
                self.dataset.name,
                self.network.short_name(),
                self.backend
            )
        }
    }

    fn dataset_key(&self) -> DatasetKey {
        (self.dataset, self.seed)
    }

    /// The cache identity of this scenario's compiled session: dataset and
    /// model shape only, so accelerator and baseline points — and repeated
    /// serving requests — over the same workload share one
    /// [`SimSession`]. This is the key the [`SweepRunner`]'s session cache
    /// and the serving layer's session pool agree on.
    pub fn session_key(&self) -> SessionKey {
        (
            self.dataset,
            self.seed,
            self.network,
            self.hidden_dim,
            self.out_dim,
            self.hidden_layers,
        )
    }
}

/// Builds the compiled session for a scenario's (dataset, model) pair —
/// the model is constructed from the scenario's shape fields. The session
/// shares `dataset`'s handle and opens no file: its first compile takes the
/// shard summaries the handle holds, or loads or builds them (persisting
/// them in the handle's own artifact cache, if it was opened with one), and
/// only a summary that must be built materialises the edges.
///
/// `_cache` is not read: where summaries persist is the dataset handle's
/// choice ([`Dataset::open`]). The parameter remains so that existing
/// three-argument callers keep compiling.
///
/// Carries the `session_build` fault-injection point: an injected error or
/// delay here models a slow or failing cold compile.
///
/// # Errors
///
/// Propagates model-construction and session-validation errors.
pub fn build_session(
    scenario: &ScenarioSpec,
    dataset: &Dataset,
    _cache: Option<&Arc<ArtifactCache>>,
) -> Result<SimSession, GnneratorError> {
    gnnerator_faults::check("session_build").map_err(|e| GnneratorError::backend(e.to_string()))?;
    let model = scenario
        .network
        .build(
            dataset.spec.feature_dim,
            scenario.hidden_dim,
            scenario.out_dim,
            scenario.hidden_layers,
        )
        .map_err(GnneratorError::from)?;
    SimSession::new(model, dataset)
}

/// Evaluates one scenario against an already-compiled session, producing
/// the same [`ScenarioResult`] the sweep engine does — this *is* the body
/// of [`SweepRunner::run_one`]. The serving layer calls it once per served
/// scenario, `/sweep` bodies included, so served responses are
/// bit-identical to sweep results.
///
/// Carries the `eval` fault-injection point. In the serving layer this body
/// runs inside the guarded evaluation slot (on a worker, or inline on an
/// idle connection thread), so an injected `eval:panic` exercises worker
/// supervision end to end.
///
/// # Errors
///
/// Propagates compilation, simulation and backend-evaluation errors.
pub fn evaluate_scenario(
    scenario: &ScenarioSpec,
    session: &Arc<SimSession>,
) -> Result<ScenarioResult, GnneratorError> {
    gnnerator_faults::check("eval").map_err(|e| GnneratorError::backend(e.to_string()))?;
    let start = Instant::now();
    let (evaluation, report, baseline_seconds) = if scenario.backend.is_accelerator() {
        let backend = GnneratorBackend::new(
            Arc::clone(session),
            scenario.config.clone(),
            scenario.dataflow,
        );
        let report = backend.simulate()?;
        let baselines = BaselineSeconds::estimate(session)?;
        (report.to_evaluation(), Some(report), Some(baselines))
    } else {
        let backend = SweepRunner::make_backend(scenario, Arc::clone(session));
        let evaluation = backend
            .evaluate(session.model(), session.num_nodes(), session.num_edges())
            .map_err(|e| GnneratorError::backend(e.to_string()))?;
        (evaluation, None, None)
    };
    let simulate_seconds = start.elapsed().as_secs_f64();
    Ok(ScenarioResult {
        scenario: scenario.clone(),
        evaluation,
        report,
        baseline_seconds,
        num_nodes: session.num_nodes(),
        num_edges: session.num_edges(),
        simulate_seconds,
    })
}

impl fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Both reference baselines' estimated seconds for one (model, dataset)
/// point, attached to accelerator results so speedup columns ride along in
/// the same sweep pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineSeconds {
    /// GPU-roofline (RTX 2080 Ti) estimate in seconds.
    pub gpu: f64,
    /// HyGCN estimate in seconds (with the dataset's sparsity factor).
    pub hygcn: f64,
}

impl BaselineSeconds {
    /// Estimates both baselines for a session's (model, graph) pair.
    ///
    /// # Errors
    ///
    /// Propagates backend-evaluation errors.
    pub fn estimate(session: &SimSession) -> Result<Self, GnneratorError> {
        let evaluate = |backend: &dyn Backend| -> Result<f64, GnneratorError> {
            backend
                .evaluate(session.model(), session.num_nodes(), session.num_edges())
                .map(|eval| eval.seconds)
                .map_err(|e| GnneratorError::backend(e.to_string()))
        };
        Ok(Self {
            gpu: evaluate(&GpuRooflineBackend::rtx_2080_ti())?,
            hygcn: evaluate(&HygcnBackend::for_dataset(session.dataset_name()))?,
        })
    }
}

/// The result of one scenario point.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// The scenario that was evaluated.
    pub scenario: ScenarioSpec,
    /// The platform-neutral evaluation (seconds, per-layer breakdown,
    /// telemetry) every backend produces.
    pub evaluation: BackendEvaluation,
    /// The cycle-level simulation report — present only for accelerator
    /// backends; analytical baselines work directly in seconds.
    pub report: Option<Report>,
    /// Both baselines' estimated seconds for this point's (model, dataset) —
    /// attached to accelerator points so speedups need no second pass;
    /// `None` for baseline points (they *are* the baseline).
    pub baseline_seconds: Option<BaselineSeconds>,
    /// Nodes in the materialised graph.
    pub num_nodes: usize,
    /// Edges in the materialised graph.
    pub num_edges: usize,
    /// Wall-clock seconds this point took to compile (against warm caches)
    /// and evaluate. Excluded from equality: timing jitter must not break
    /// the bit-identity guarantees the sweep engine is tested against.
    pub simulate_seconds: f64,
}

impl ScenarioResult {
    /// The platform that evaluated this point.
    pub fn backend(&self) -> BackendKind {
        self.scenario.backend
    }

    /// End-to-end execution time in seconds on the point's platform.
    pub fn seconds(&self) -> f64 {
        self.evaluation.seconds
    }

    /// Speedup of this accelerator point over the GPU-roofline baseline
    /// (`None` for baseline points).
    pub fn speedup_vs_gpu(&self) -> Option<f64> {
        self.baseline_seconds
            .map(|b| guarded_speedup(b.gpu, self.evaluation.seconds))
    }

    /// Speedup of this accelerator point over the HyGCN baseline (`None` for
    /// baseline points).
    pub fn speedup_vs_hygcn(&self) -> Option<f64> {
        self.baseline_seconds
            .map(|b| guarded_speedup(b.hygcn, self.evaluation.seconds))
    }
}

impl PartialEq for ScenarioResult {
    fn eq(&self, other: &Self) -> bool {
        self.scenario == other.scenario
            && self.evaluation == other.evaluation
            && self.report == other.report
            && self.baseline_seconds == other.baseline_seconds
            && self.num_nodes == other.num_nodes
            && self.num_edges == other.num_edges
    }
}

type DatasetKey = (DatasetSpec, u64);

/// The cache identity of a compiled session: `(dataset spec, seed, network,
/// hidden_dim, out_dim, hidden_layers)`. See [`ScenarioSpec::session_key`].
pub type SessionKey = (DatasetSpec, u64, NetworkKind, usize, usize, usize);

/// Executes batches of scenarios in parallel over shared dataset/session
/// caches, dispatching each point through its [`Backend`].
///
/// The dataset cache holds one [`Dataset`] handle per `(spec, seed)`, shared
/// by every session over it, and with it one table of shard summaries: a
/// summary is loaded or built once per runner, whichever session asks
/// first. A handle's edges are materialised (loaded from the artifact cache,
/// or synthesised) only when a summary must be built, and the `datasets_*`
/// counters count exactly those materialisations.
///
/// # Examples
///
/// ```
/// use gnnerator::{BackendKind, DataflowConfig, GnneratorConfig, ScenarioSpec, SweepRunner};
/// use gnnerator_gnn::NetworkKind;
/// use gnnerator_graph::datasets::DatasetKind;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let runner = SweepRunner::new();
/// let spec = DatasetKind::Cora.spec().scaled(0.05);
/// // One grid mixing the accelerator and both baseline platforms.
/// let base = ScenarioSpec::new(
///     NetworkKind::Gcn,
///     spec,
///     7,
///     16,
///     7,
///     GnneratorConfig::paper_default(),
///     DataflowConfig::paper_default(),
/// );
/// let scenarios: Vec<ScenarioSpec> = BackendKind::ALL
///     .into_iter()
///     .map(|backend| base.clone().with_backend(backend))
///     .collect();
/// let results = runner.run(&scenarios)?;
/// assert_eq!(results.len(), 3);
/// assert!(results.iter().all(|r| r.evaluation.seconds > 0.0));
/// // The accelerator point carries speedups against both baselines.
/// assert!(results[0].speedup_vs_gpu().unwrap().is_finite());
/// assert!(results[0].speedup_vs_hygcn().unwrap().is_finite());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct SweepRunner {
    datasets: Mutex<HashMap<DatasetKey, Dataset>>,
    sessions: Mutex<HashMap<SessionKey, Arc<SimSession>>>,
    /// Persistent artifact cache consulted before synthesising datasets or
    /// sharding graphs. `None` (the default) keeps the runner fully
    /// in-memory, which is what unit tests and one-shot sweeps want.
    artifact_cache: Option<Arc<ArtifactCache>>,
}

impl SweepRunner {
    /// Creates a runner with empty caches.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns this runner with a persistent [`ArtifactCache`] attached: the
    /// runner opens its dataset handles on it, so edges and shard summaries
    /// are loaded from disk when present and stored back after a fresh
    /// build, and repeated harness runs skip synthesis and re-sharding
    /// entirely.
    pub fn with_artifact_cache(mut self, cache: Arc<ArtifactCache>) -> Self {
        self.artifact_cache = cache.is_enabled().then_some(cache);
        self
    }

    /// The persistent artifact cache, if one is attached.
    pub fn artifact_cache(&self) -> Option<&Arc<ArtifactCache>> {
        self.artifact_cache.as_ref()
    }

    /// Returns the dataset handle for a scenario, opening and caching it on
    /// first request. Validates the spec but reads no edge; see
    /// [`Dataset::edge_list`].
    ///
    /// # Errors
    ///
    /// Returns [`GnneratorError::Graph`] for a degenerate spec.
    pub fn dataset(&self, scenario: &ScenarioSpec) -> Result<Dataset, GnneratorError> {
        let (spec, seed) = scenario.dataset_key();
        self.dataset_for(spec, seed)
    }

    /// Returns the dataset handle for a bare `(spec, seed)` key, opening and
    /// caching it on first request.
    ///
    /// # Errors
    ///
    /// Returns [`GnneratorError::Graph`] for a degenerate spec.
    pub fn dataset_for(&self, spec: DatasetSpec, seed: u64) -> Result<Dataset, GnneratorError> {
        let mut datasets = lock_recover(&self.datasets);
        if let Some(hit) = datasets.get(&(spec, seed)) {
            return Ok(hit.clone());
        }
        let dataset = Dataset::open(spec, seed, self.artifact_cache.clone())?;
        datasets.insert((spec, seed), dataset.clone());
        Ok(dataset)
    }

    /// Returns the compiled session for a scenario's (dataset, model) pair,
    /// building and caching it on first request.
    ///
    /// Sessions are keyed by dataset and model shape only, so accelerator
    /// and baseline points over the same workload share one session.
    ///
    /// # Errors
    ///
    /// Propagates degenerate-spec and model-construction errors.
    pub fn session(&self, scenario: &ScenarioSpec) -> Result<Arc<SimSession>, GnneratorError> {
        let key = scenario.session_key();
        if let Some(hit) = lock_recover(&self.sessions).get(&key) {
            return Ok(Arc::clone(hit));
        }
        let dataset = self.dataset(scenario)?;
        let session = Arc::new(build_session(scenario, &dataset, None)?);
        let mut cache = lock_recover(&self.sessions);
        Ok(Arc::clone(cache.entry(key).or_insert(session)))
    }

    /// Builds the [`Backend`] that evaluates `scenario`, sharing the
    /// scenario's compiled session.
    ///
    /// # Errors
    ///
    /// Propagates synthesis and model-construction errors.
    pub fn backend(&self, scenario: &ScenarioSpec) -> Result<Box<dyn Backend>, GnneratorError> {
        let session = self.session(scenario)?;
        Ok(Self::make_backend(scenario, session))
    }

    fn make_backend(scenario: &ScenarioSpec, session: Arc<SimSession>) -> Box<dyn Backend> {
        match scenario.backend {
            BackendKind::Gnnerator => Box::new(GnneratorBackend::new(
                session,
                scenario.config.clone(),
                scenario.dataflow,
            )),
            BackendKind::GpuRoofline => Box::new(GpuRooflineBackend::rtx_2080_ti()),
            BackendKind::Hygcn => Box::new(HygcnBackend::for_dataset(scenario.dataset.name)),
        }
    }

    /// Evaluates a single scenario through the session cache and its
    /// backend.
    ///
    /// # Errors
    ///
    /// Propagates synthesis, compilation, simulation and backend-evaluation
    /// errors.
    pub fn run_one(&self, scenario: &ScenarioSpec) -> Result<ScenarioResult, GnneratorError> {
        let session = self.session(scenario)?;
        evaluate_scenario(scenario, &session)
    }

    /// Runs a batch of scenarios in parallel, returning results in input
    /// order.
    ///
    /// Sessions are built first — one per distinct (dataset, model) pair, in
    /// parallel — then every scenario executes on the worker pool against
    /// the shared compiled state. Results are bit-identical to [`SweepRunner::run_serial`] on
    /// the same scenarios, for every backend.
    ///
    /// # Errors
    ///
    /// Returns the lowest-index failing scenario's error — deterministic
    /// across runs and thread schedules, and identical to the error
    /// [`SweepRunner::run_serial`] reports for the same batch.
    pub fn run(&self, scenarios: &[ScenarioSpec]) -> Result<Vec<ScenarioResult>, GnneratorError> {
        // Phase 1: build each distinct session once, in parallel, so the
        // scenario phase starts without session-build stampedes. (Sessions
        // are cheap; the first compile of each, in phase 2, takes its
        // dataset's summaries, each loaded or built once behind the
        // dataset's own locks, and materialises the edges at most once.) Build failures are *not*
        // propagated here: a session-build error would surface in whatever
        // order the deduplicated keys race, which is not necessarily the
        // lowest failing scenario index. Phase 2 re-derives every error
        // per-scenario, so deferring costs only a retried (rare) failure.
        let mut seen = HashSet::new();
        let unique: Vec<&ScenarioSpec> = scenarios
            .iter()
            .filter(|scenario| seen.insert(scenario.session_key()))
            .collect();
        par_map(&unique, |scenario| self.session(scenario).map(|_| ()));

        // Phase 2: evaluate every scenario point in parallel, then fold to
        // the first error in *scenario* order (never completion order).
        par_map(scenarios, |scenario| self.run_one(scenario))
            .into_iter()
            .collect()
    }

    /// Runs a batch of scenarios one after another on the calling thread,
    /// through the same caches as [`SweepRunner::run`].
    ///
    /// # Errors
    ///
    /// Returns the first error encountered.
    pub fn run_serial(
        &self,
        scenarios: &[ScenarioSpec],
    ) -> Result<Vec<ScenarioResult>, GnneratorError> {
        scenarios.iter().map(|s| self.run_one(s)).collect()
    }

    /// Number of datasets materialised so far.
    pub fn cached_datasets(&self) -> usize {
        lock_recover(&self.datasets).len()
    }

    /// Number of sessions compiled so far.
    pub fn cached_sessions(&self) -> usize {
        lock_recover(&self.sessions).len()
    }

    /// Sums `count` over the cached dataset handles.
    fn sum_datasets<T: std::iter::Sum>(&self, count: impl Fn(&Dataset) -> T) -> T {
        lock_recover(&self.datasets).values().map(count).sum()
    }

    /// Cumulative wall-clock seconds spent building the cached datasets'
    /// shard summaries.
    pub fn total_shard_build_seconds(&self) -> f64 {
        self.sum_datasets(Dataset::shard_build_seconds)
    }

    /// Cumulative wall-clock seconds spent materialising the cached datasets'
    /// edges (synthesis or artifact-cache loads).
    pub fn graph_build_seconds(&self) -> f64 {
        self.sum_datasets(|dataset| dataset.provenance().map_or(0.0, |p| p.build_seconds))
    }

    /// Number of cached datasets whose edges were synthesised from scratch.
    pub fn datasets_synthesized(&self) -> usize {
        self.sum_datasets(|dataset| {
            usize::from(dataset.provenance().is_some_and(|p| !p.loaded_from_cache))
        })
    }

    /// Number of cached datasets whose edges were loaded from the artifact
    /// cache. Zero on a warm run whose every shard summary loads.
    pub fn datasets_loaded(&self) -> usize {
        self.sum_datasets(|dataset| {
            usize::from(dataset.provenance().is_some_and(|p| p.loaded_from_cache))
        })
    }

    /// Total shard summaries built from scratch across the cached datasets.
    pub fn total_shard_grids_built(&self) -> usize {
        self.sum_datasets(Dataset::grids_built)
    }

    /// Total shard summaries loaded from the artifact cache across the
    /// cached datasets.
    pub fn total_shard_grids_loaded(&self) -> usize {
        self.sum_datasets(Dataset::grids_loaded)
    }
}

/// Maps `f` over `items` on [`std::thread::available_parallelism`] scoped
/// threads that claim indices from a shared cursor, and returns the results
/// in input order, whatever order the workers finish in. A panicking worker
/// re-raises its own payload on the caller, after every worker has stopped.
fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let workers = cores.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let claimed = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut claimed = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        claimed.push((i, f(item)));
                    }
                    claimed
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join())
            .collect::<Vec<_>>()
    });
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    for worker in claimed {
        match worker {
            Ok(results) => {
                for (i, result) in results {
                    slots[i] = Some(result);
                }
            }
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index is claimed by exactly one worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnerator_graph::datasets::DatasetKind;

    fn scenario_grid() -> Vec<ScenarioSpec> {
        let config = GnneratorConfig::paper_default();
        let mut scenarios = Vec::new();
        for kind in [DatasetKind::Cora, DatasetKind::Citeseer] {
            for network in NetworkKind::ALL {
                for dataflow in [
                    DataflowConfig::paper_default(),
                    DataflowConfig::conventional(),
                ] {
                    scenarios.push(ScenarioSpec::new(
                        network,
                        kind.spec().scaled(0.03),
                        9,
                        16,
                        4,
                        config.clone(),
                        dataflow,
                    ));
                }
            }
        }
        scenarios
    }

    fn mixed_backend_grid() -> Vec<ScenarioSpec> {
        let mut scenarios = Vec::new();
        for scenario in scenario_grid() {
            for backend in BackendKind::ALL {
                scenarios.push(scenario.clone().with_backend(backend));
            }
        }
        scenarios
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let scenarios = mixed_backend_grid();
        let runner = SweepRunner::new();
        let parallel = runner.run(&scenarios).unwrap();
        let serial = runner.run_serial(&scenarios).unwrap();
        assert_eq!(parallel, serial);
        assert_eq!(parallel.len(), scenarios.len());
    }

    #[test]
    fn caches_deduplicate_datasets_and_sessions() {
        let scenarios = mixed_backend_grid();
        let runner = SweepRunner::new();
        runner.run(&scenarios).unwrap();
        // 2 datasets; 2 datasets x 3 networks = 6 sessions; backend and
        // dataflow variants all share them.
        assert_eq!(runner.cached_datasets(), 2);
        assert_eq!(runner.cached_sessions(), 6);
    }

    #[test]
    fn results_preserve_scenario_order() {
        let scenarios = scenario_grid();
        let runner = SweepRunner::new();
        let results = runner.run(&scenarios).unwrap();
        for (scenario, result) in scenarios.iter().zip(&results) {
            assert_eq!(&result.scenario, scenario);
            let report = result.report.as_ref().expect("accelerator point");
            assert_eq!(report.model_name, scenario.network.to_string());
            assert_eq!(report.dataset_name, scenario.dataset.name);
        }
    }

    #[test]
    fn accelerator_points_carry_reports_and_finite_speedups() {
        let scenarios = scenario_grid();
        let runner = SweepRunner::new();
        for result in runner.run(&scenarios).unwrap() {
            assert_eq!(result.backend(), BackendKind::Gnnerator);
            let report = result.report.as_ref().expect("accelerator point");
            assert_eq!(result.evaluation.total_cycles, Some(report.total_cycles));
            assert_eq!(result.seconds(), report.seconds());
            let vs_gpu = result.speedup_vs_gpu().unwrap();
            let vs_hygcn = result.speedup_vs_hygcn().unwrap();
            assert!(vs_gpu.is_finite() && vs_gpu > 0.0, "{}", result.scenario);
            assert!(
                vs_hygcn.is_finite() && vs_hygcn > 0.0,
                "{}",
                result.scenario
            );
        }
    }

    #[test]
    fn baseline_points_have_evaluations_but_no_report() {
        let scenarios: Vec<ScenarioSpec> = scenario_grid()
            .into_iter()
            .flat_map(|s| {
                [
                    s.clone().with_backend(BackendKind::GpuRoofline),
                    s.with_backend(BackendKind::Hygcn),
                ]
            })
            .collect();
        let runner = SweepRunner::new();
        for result in runner.run(&scenarios).unwrap() {
            assert!(result.report.is_none(), "{}", result.scenario);
            assert!(result.baseline_seconds.is_none());
            assert!(result.speedup_vs_gpu().is_none());
            assert!(result.speedup_vs_hygcn().is_none());
            assert!(result.seconds() > 0.0);
            assert!(result.evaluation.total_cycles.is_none());
            let expected = match result.backend() {
                BackendKind::GpuRoofline => "rtx-2080-ti",
                BackendKind::Hygcn => "hygcn",
                BackendKind::Gnnerator => unreachable!("grid is baselines only"),
            };
            assert_eq!(result.evaluation.platform, expected);
        }
    }

    #[test]
    fn baseline_points_match_accelerator_speedup_denominators() {
        // The baseline seconds attached to an accelerator point must be the
        // same numbers a dedicated baseline point produces: one sweep, one
        // source of truth.
        let base = scenario_grid().remove(0);
        let scenarios = [
            base.clone(),
            base.clone().with_backend(BackendKind::GpuRoofline),
            base.with_backend(BackendKind::Hygcn),
        ];
        let runner = SweepRunner::new();
        let results = runner.run(&scenarios).unwrap();
        let baselines = results[0].baseline_seconds.unwrap();
        assert_eq!(baselines.gpu, results[1].seconds());
        assert_eq!(baselines.hygcn, results[2].seconds());
    }

    #[test]
    fn backend_accessor_dispatches_through_the_trait() {
        let base = scenario_grid().remove(0);
        let runner = SweepRunner::new();
        for kind in BackendKind::ALL {
            let scenario = base.clone().with_backend(kind);
            let backend = runner.backend(&scenario).unwrap();
            let session = runner.session(&scenario).unwrap();
            let eval = backend
                .evaluate(session.model(), session.num_nodes(), session.num_edges())
                .unwrap();
            let result = runner.run_one(&scenario).unwrap();
            assert_eq!(eval, result.evaluation, "{kind}");
        }
    }

    #[test]
    fn timing_metadata_is_recorded_but_ignored_by_equality() {
        let scenarios = scenario_grid();
        let runner = SweepRunner::new();
        let results = runner.run(&scenarios).unwrap();
        assert!(results.iter().all(|r| r.simulate_seconds > 0.0));
        assert!(runner.total_shard_build_seconds() > 0.0);
        let mut a = results[0].clone();
        let mut b = results[0].clone();
        a.simulate_seconds = 1.0;
        b.simulate_seconds = 2.0;
        assert_eq!(a, b, "wall-clock jitter must not break bit-identity");
    }

    #[test]
    fn degenerate_scenarios_surface_typed_errors() {
        let mut scenario = scenario_grid().remove(0);
        scenario.dataset.edges = 0;
        let runner = SweepRunner::new();
        let err = runner.run(&[scenario]).unwrap_err();
        assert!(matches!(err, GnneratorError::Graph(_)), "{err}");
    }

    #[test]
    fn run_reports_the_lowest_index_failing_scenarios_error() {
        // Regression: two scenarios fail for different reasons in different
        // phases. Scenario 0 compiles against a healthy session but has an
        // invalid dataflow (caught at evaluation); scenario 1's dataset is
        // degenerate (caught at session build). The old implementation
        // propagated the phase-1 session-build error — i.e. scenario 1's —
        // even though scenario 0 fails too; under a short-circuiting
        // parallel collect the winner would additionally depend on the
        // thread schedule. The reported error must deterministically be scenario
        // 0's, exactly as the serial path reports it.
        let base = scenario_grid().remove(0);
        let mut bad_dataflow = base.clone();
        bad_dataflow.dataflow = DataflowConfig {
            blocking: crate::BlockingPolicy::FeatureBlocked { block_size: 0 },
            traversal: None,
        };
        let mut bad_dataset = base.clone();
        bad_dataset.dataset.edges = 0;
        bad_dataset.seed += 1; // distinct session key from scenario 0
        let scenarios = [bad_dataflow, bad_dataset];

        for _ in 0..8 {
            let runner = SweepRunner::new();
            let parallel_err = runner.run(&scenarios).unwrap_err();
            assert!(
                matches!(parallel_err, GnneratorError::InvalidDataflow { .. }),
                "expected scenario 0's dataflow error, got: {parallel_err}"
            );
            let serial_err = SweepRunner::new().run_serial(&scenarios).unwrap_err();
            assert_eq!(parallel_err, serial_err);
        }
    }

    #[test]
    fn extracted_helpers_match_run_one_bit_for_bit() {
        // The serving layer builds sessions and evaluates scenarios through
        // the standalone helpers; they must agree with the runner's own
        // path exactly.
        let scenario = scenario_grid().remove(0);
        let runner = SweepRunner::new();
        let via_runner = runner.run_one(&scenario).unwrap();

        let dataset = scenario.dataset.synthesize(scenario.seed).unwrap();
        let session = Arc::new(build_session(&scenario, &dataset, None).unwrap());
        let via_helpers = evaluate_scenario(&scenario, &session).unwrap();
        assert_eq!(via_helpers, via_runner);
        assert_eq!(session.num_nodes(), via_runner.num_nodes);
    }

    #[test]
    fn artifact_cached_runner_is_bit_identical_and_skips_rebuilds() {
        let dir =
            std::env::temp_dir().join(format!("gnnerator-sweep-cache-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let scenarios = mixed_backend_grid();

        // Reference: a fully in-memory runner.
        let plain = SweepRunner::new();
        let reference = plain.run(&scenarios).unwrap();
        assert_eq!(plain.datasets_synthesized(), plain.cached_datasets());
        assert_eq!(plain.datasets_loaded(), 0);
        assert!(plain.total_shard_grids_built() > 0);
        assert_eq!(plain.total_shard_grids_loaded(), 0);

        // Cold cached runner: synthesises and builds, publishing artifacts.
        let cache = Arc::new(gnnerator_graph::ArtifactCache::new(&dir));
        let cold = SweepRunner::new().with_artifact_cache(Arc::clone(&cache));
        assert!(cold.artifact_cache().is_some());
        let cold_results = cold.run(&scenarios).unwrap();
        assert_eq!(cold_results, reference, "cache must not change results");
        assert!(cold.datasets_synthesized() > 0);
        assert!(cold.total_shard_grids_built() > 0);

        // Warm cached runner: zero synthesis, zero shard builds, identical
        // results bit for bit — and, since every summary loads, no dataset
        // edges read at all.
        let warm = SweepRunner::new().with_artifact_cache(cache);
        let warm_results = warm.run(&scenarios).unwrap();
        assert_eq!(warm_results, reference);
        assert_eq!(warm.datasets_synthesized(), 0, "no dataset synthesised");
        assert_eq!(warm.datasets_loaded(), 0, "no dataset edges read");
        assert_eq!(warm.total_shard_grids_built(), 0, "all grids from disk");
        assert!(warm.total_shard_grids_loaded() > 0);
        assert_eq!(warm.graph_build_seconds(), 0.0, "no graph materialised");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn labels_identify_the_point_and_platform() {
        let scenario = &scenario_grid()[0];
        let label = scenario.label();
        assert!(label.contains("cora"));
        assert!(label.contains("gcn"));
        assert!(label.contains("gnnerator"));
        assert_eq!(scenario.to_string(), label);
        // Baseline labels name the backend instead of dataflow/config.
        let gpu = scenario.clone().with_backend(BackendKind::GpuRoofline);
        assert_eq!(gpu.label(), "cora-gcn/gpu-roofline");
        let hygcn = scenario.clone().with_backend(BackendKind::Hygcn);
        assert_eq!(hygcn.label(), "cora-gcn/hygcn");
    }
}
