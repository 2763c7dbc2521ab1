//! The `BENCH_sweep` benchmark: parallel sweep-engine throughput versus the
//! serial per-run path, with a bit-identity check across every backend,
//! emitted as machine-readable JSON so future changes can track the
//! performance trajectory.
//!
//! The grid mixes platforms: every workload runs under four accelerator
//! dataflows *and* on the GPU-roofline and HyGCN backends, all through one
//! [`SweepRunner`](gnnerator::SweepRunner) invocation, plus an
//! ogbn-arxiv-scale extension point (≥1M edges at full scale) that the
//! streaming graph-build pipeline opened to the same path. Accelerator rows
//! carry `speedup_vs_gpu` / `speedup_vs_hygcn` columns derived from the
//! baseline seconds attached by the sweep engine itself; the document's top
//! level records the graph-build telemetry (`graph_build_seconds`,
//! synthesis/load and shard build/load counters) that the warm-cache CI
//! assertions check.

use crate::suite::{full_suite, SuiteContext, Workload};
use gnnerator::{
    Backend, BackendKind, DataflowConfig, GnneratorError, GpuRooflineBackend, HygcnBackend, Report,
    ScenarioResult, ScenarioSpec, Simulator,
};
use gnnerator_gnn::NetworkKind;
use gnnerator_graph::datasets::{Dataset, DatasetKind};
// One JSON layer for every artifact: rows are rendered with the serving
// layer's writers and parsed with its parser.
use gnnerator_serve::json::{json_opt_f64, json_opt_u64, json_string};
use std::time::Instant;

/// The dataflows every workload is swept across on the accelerator.
pub const SWEEP_DATAFLOWS: [DataflowConfig; 4] = [
    DataflowConfig {
        blocking: gnnerator::BlockingPolicy::FeatureBlocked { block_size: 64 },
        traversal: None,
    },
    DataflowConfig {
        blocking: gnnerator::BlockingPolicy::FeatureBlocked { block_size: 32 },
        traversal: None,
    },
    DataflowConfig {
        blocking: gnnerator::BlockingPolicy::FeatureBlocked { block_size: 128 },
        traversal: None,
    },
    DataflowConfig {
        blocking: gnnerator::BlockingPolicy::Conventional,
        traversal: None,
    },
];

/// The baseline platforms every workload is additionally evaluated on.
pub const SWEEP_BASELINES: [BackendKind; 2] = [BackendKind::GpuRoofline, BackendKind::Hygcn];

/// Enumerates the benchmark's scenario grid: the nine paper workloads under
/// each of [`SWEEP_DATAFLOWS`], plus one point per baseline backend in
/// [`SWEEP_BASELINES`] (9 × (4 + 2) = 54 points), plus the ogbn-scale
/// extension points from [`ogbn_scenarios`] (6 more: 60 total).
pub fn sweep_scenarios(ctx: &SuiteContext) -> Vec<ScenarioSpec> {
    let config = ctx.options().config.clone();
    let mut scenarios: Vec<ScenarioSpec> = full_suite()
        .iter()
        .flat_map(|workload| {
            let mut points: Vec<ScenarioSpec> = SWEEP_DATAFLOWS
                .iter()
                .map(|dataflow| ctx.scenario(workload, config.clone(), *dataflow))
                .collect();
            points.extend(
                SWEEP_BASELINES
                    .iter()
                    .map(|&backend| ctx.baseline_scenario(workload, backend)),
            );
            points
        })
        .collect();
    scenarios.extend(ogbn_scenarios(ctx));
    scenarios
}

/// Extra scale applied to the ogbn-products point on top of the grid scale.
///
/// The full [`DatasetKind::OgbnProductsScale`] spec is a ~60M-edge graph,
/// the largest in the grid. Earlier harness versions carried it at 1/25
/// scale; the sweep now takes it at full spec — at grid scale 1.0 that is
/// ~2.4M vertices / ~60M edges. The timing simulation reads only shard summaries,
/// so no edge arena has to stay resident or be cached.
pub const PRODUCTS_SWEEP_SCALE: f64 = 1.0;

/// The ogbn-scale extension of the sweep: the ≥1M-edge ogbn-arxiv GCN
/// workload (at full scale) that the streaming graph-build pipeline opened
/// to this path, plus the ogbn-products point (down-scaled by
/// [`PRODUCTS_SWEEP_SCALE`]), the largest graph in the grid —
/// each as one accelerator point (which carries both baseline speedup
/// columns) plus both baseline backends.
pub fn ogbn_scenarios(ctx: &SuiteContext) -> Vec<ScenarioSpec> {
    let workload = Workload::new(DatasetKind::OgbnArxiv, NetworkKind::Gcn);
    let products = products_scenario(ctx);
    vec![
        ctx.scenario(
            &workload,
            ctx.options().config.clone(),
            ctx.blocked_dataflow(),
        ),
        ctx.baseline_scenario(&workload, BackendKind::GpuRoofline),
        ctx.baseline_scenario(&workload, BackendKind::Hygcn),
        products.clone(),
        products.clone().with_backend(BackendKind::GpuRoofline),
        products.with_backend(BackendKind::Hygcn),
    ]
}

/// The ogbn-products accelerator point: the grid scale times
/// [`PRODUCTS_SWEEP_SCALE`], with the context's seed sequence, hidden
/// dimension and blocked dataflow (mirroring [`SuiteContext::scenario`],
/// which cannot express a per-workload scale).
fn products_scenario(ctx: &SuiteContext) -> ScenarioSpec {
    let kind = DatasetKind::OgbnProductsScale;
    let options = ctx.options();
    let mut scenario = ScenarioSpec::new(
        NetworkKind::Gcn,
        kind.spec().scaled(options.scale * PRODUCTS_SWEEP_SCALE),
        options.seed + kind.seed_offset(),
        options.hidden_dim,
        kind.num_classes(),
        options.config.clone(),
        ctx.blocked_dataflow(),
    );
    scenario.hidden_layers = 1;
    scenario
}

/// One machine-readable row of `BENCH_sweep.json`'s `points` array.
///
/// The struct is its own serializer (the workspace has no serialisation
/// framework): [`SweepPoint::to_json`] renders every field, and the tests
/// parse each rendered row back to pin that it round-trips exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Human-readable point label.
    pub label: String,
    /// Backend label ([`BackendKind`]'s `Display`).
    pub backend: String,
    /// Network short name.
    pub network: String,
    /// Dataset name.
    pub dataset: String,
    /// Dataflow description (accelerator configuration; baselines ignore it).
    pub dataflow: String,
    /// Platform-configuration name.
    pub config: String,
    /// End-to-end seconds on the point's platform.
    pub seconds: f64,
    /// Wall-clock seconds spent evaluating the point.
    pub simulate_seconds: f64,
    /// Total cycles (accelerator points only).
    pub total_cycles: Option<u64>,
    /// DRAM traffic in bytes (accelerator points only).
    pub dram_bytes: Option<u64>,
    /// Shard-grid occupancy (accelerator points only).
    pub occupancy: Option<f64>,
    /// Occupied shards walked (accelerator points only).
    pub occupied_shards: Option<u64>,
    /// GPU-roofline baseline seconds (accelerator points only).
    pub baseline_gpu_seconds: Option<f64>,
    /// HyGCN baseline seconds (accelerator points only).
    pub baseline_hygcn_seconds: Option<f64>,
    /// Speedup over the GPU roofline (accelerator points only).
    pub speedup_vs_gpu: Option<f64>,
    /// Speedup over HyGCN (accelerator points only).
    pub speedup_vs_hygcn: Option<f64>,
}

impl SweepPoint {
    /// Builds the row for one scenario result.
    pub fn from_result(result: &ScenarioResult) -> Self {
        let report = result.report.as_ref();
        Self {
            label: result.scenario.label(),
            backend: result.backend().to_string(),
            network: result.scenario.network.short_name().to_string(),
            dataset: result.scenario.dataset.name.to_string(),
            dataflow: result.scenario.dataflow.to_string(),
            config: result.scenario.config.name.clone(),
            seconds: result.seconds(),
            simulate_seconds: result.simulate_seconds,
            total_cycles: result.evaluation.total_cycles,
            dram_bytes: result.evaluation.dram_bytes,
            occupancy: report.map(Report::shard_occupancy),
            occupied_shards: report.map(|r| r.occupied_shards() as u64),
            baseline_gpu_seconds: result.baseline_seconds.map(|b| b.gpu),
            baseline_hygcn_seconds: result.baseline_seconds.map(|b| b.hygcn),
            speedup_vs_gpu: result.speedup_vs_gpu(),
            speedup_vs_hygcn: result.speedup_vs_hygcn(),
        }
    }

    /// Renders the row as a single-line JSON object.
    ///
    /// JSON has no representation for non-finite numbers, so an infinite or
    /// NaN column (e.g. the `f64::INFINITY` sentinel `guarded_speedup`
    /// returns for a degenerate zero-second run) serialises as `null` rather
    /// than producing an unparseable document.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"label\": {}, \"backend\": {}, \"network\": {}, \"dataset\": {}, \"dataflow\": {}, \"config\": {}, \"seconds\": {}, \"simulate_seconds\": {}, \"total_cycles\": {}, \"dram_bytes\": {}, \"occupancy\": {}, \"occupied_shards\": {}, \"baseline_gpu_seconds\": {}, \"baseline_hygcn_seconds\": {}, \"speedup_vs_gpu\": {}, \"speedup_vs_hygcn\": {}}}",
            json_string(&self.label),
            json_string(&self.backend),
            json_string(&self.network),
            json_string(&self.dataset),
            json_string(&self.dataflow),
            json_string(&self.config),
            self.seconds,
            self.simulate_seconds,
            json_opt_u64(self.total_cycles),
            json_opt_u64(self.dram_bytes),
            json_opt_f64(self.occupancy),
            json_opt_u64(self.occupied_shards),
            json_opt_f64(self.baseline_gpu_seconds),
            json_opt_f64(self.baseline_hygcn_seconds),
            json_opt_f64(self.speedup_vs_gpu),
            json_opt_f64(self.speedup_vs_hygcn),
        )
    }
}

/// Results of one sweep benchmark run.
#[derive(Debug, Clone)]
pub struct SweepBenchmark {
    /// The per-scenario results from the parallel sweep engine.
    pub results: Vec<ScenarioResult>,
    /// Wall-clock seconds of the parallel, compile-once sweep on the
    /// context's runner, over the shard summaries its datasets share (any
    /// summary no earlier experiment derived is loaded or built inside this
    /// time).
    pub parallel_seconds: f64,
    /// Wall-clock seconds of the serial path (a fresh `Simulator` sharding
    /// from scratch per accelerator scenario, and direct backend evaluations
    /// for the baselines — the way the harness worked before the session and
    /// backend refactors), so `speedup` measures sharding once against
    /// sharding per point.
    pub serial_seconds: f64,
    /// Whether every parallel result was bit-identical to its serial twin
    /// (evaluations for all backends, full reports for accelerator points).
    pub bit_identical: bool,
    /// Worker threads available to the sweep engine.
    pub threads: usize,
    /// Dataset scale the sweep ran at.
    pub scale: f64,
    /// Seconds the runner's datasets spent building shard summaries over the
    /// whole run (every experiment, not only the sweep), summed across
    /// worker threads (CPU time, so it can exceed the wall-clock
    /// `parallel_seconds` on multi-core runners; loads and hits are free).
    pub shard_build_seconds: f64,
    /// Seconds spent materialising dataset edge lists (synthesis, or the
    /// artifact-cache loads that replaced it), summed across worker threads.
    pub graph_build_seconds: f64,
    /// Dataset edge lists synthesised from scratch this run (0 on a
    /// warm-cache run).
    pub datasets_synthesized: usize,
    /// Dataset edge lists loaded from the persistent artifact cache. Only a
    /// shard summary that must be built needs them, and so does the serial
    /// reference's one-shot `Simulator::simulate`, which shards from
    /// scratch: on a warm run the benchmark loads every edge list for the
    /// serial path alone.
    pub datasets_loaded: usize,
    /// Shard summaries built from scratch this run, each key once per
    /// dataset (0 on a warm-cache run).
    pub shard_grids_built: usize,
    /// Shard summaries loaded from the persistent artifact cache, each key
    /// once per dataset (0 on a cold run).
    pub shard_grids_loaded: usize,
}

impl SweepBenchmark {
    /// Wall-clock speedup of the sweep engine over the serial path.
    pub fn speedup(&self) -> f64 {
        self.serial_seconds / self.parallel_seconds.max(1e-12)
    }

    /// Number of points evaluated on `backend`.
    pub fn points_for(&self, backend: BackendKind) -> usize {
        self.results
            .iter()
            .filter(|r| r.backend() == backend)
            .count()
    }

    /// Renders the benchmark as a JSON document (`BENCH_sweep.json`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"name\": \"BENCH_sweep\",\n");
        out.push_str(&format!("  \"scale\": {},\n", self.scale));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"num_points\": {},\n", self.results.len()));
        out.push_str("  \"points_per_backend\": {");
        for (i, backend) in BackendKind::ALL.into_iter().enumerate() {
            let comma = if i + 1 == BackendKind::ALL.len() {
                ""
            } else {
                ", "
            };
            out.push_str(&format!(
                "{}: {}{}",
                json_string(backend.as_str()),
                self.points_for(backend),
                comma
            ));
        }
        out.push_str("},\n");
        out.push_str(&format!(
            "  \"parallel_seconds\": {:.6},\n",
            self.parallel_seconds
        ));
        out.push_str(&format!(
            "  \"serial_seconds\": {:.6},\n",
            self.serial_seconds
        ));
        out.push_str(&format!("  \"speedup\": {:.3},\n", self.speedup()));
        out.push_str(&format!("  \"bit_identical\": {},\n", self.bit_identical));
        out.push_str(&format!(
            "  \"shard_build_seconds\": {:.6},\n",
            self.shard_build_seconds
        ));
        out.push_str(&format!(
            "  \"graph_build_seconds\": {:.6},\n",
            self.graph_build_seconds
        ));
        out.push_str(&format!(
            "  \"datasets_synthesized\": {},\n",
            self.datasets_synthesized
        ));
        out.push_str(&format!(
            "  \"datasets_loaded\": {},\n",
            self.datasets_loaded
        ));
        out.push_str(&format!(
            "  \"shard_grids_built\": {},\n",
            self.shard_grids_built
        ));
        out.push_str(&format!(
            "  \"shard_grids_loaded\": {},\n",
            self.shard_grids_loaded
        ));
        out.push_str("  \"points\": [\n");
        for (i, result) in self.results.iter().enumerate() {
            let comma = if i + 1 == self.results.len() { "" } else { "," };
            out.push_str(&format!(
                "    {}{}\n",
                SweepPoint::from_result(result).to_json(),
                comma
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Evaluates one scenario on `dataset` the pre-sweep way: a fresh
/// `Simulator` sharding from scratch for accelerator points (no summary the
/// dataset holds is read or filled), a direct backend evaluation for
/// baselines.
///
/// # Errors
///
/// Propagates model-construction, simulation and backend-evaluation errors.
fn one_shot_evaluation(
    scenario: &ScenarioSpec,
    dataset: &Dataset,
) -> Result<(gnnerator::BackendEvaluation, Option<Report>), GnneratorError> {
    let model = scenario
        .network
        .build(
            dataset.spec.feature_dim,
            scenario.hidden_dim,
            scenario.out_dim,
            scenario.hidden_layers,
        )
        .map_err(GnneratorError::from)?;
    match scenario.backend {
        BackendKind::Gnnerator => {
            let report = Simulator::with_dataflow(scenario.config.clone(), scenario.dataflow)?
                .simulate(&model, dataset)?;
            Ok((report.to_evaluation(), Some(report)))
        }
        BackendKind::GpuRoofline => GpuRooflineBackend::rtx_2080_ti()
            .evaluate(&model, dataset.num_nodes(), dataset.num_edges())
            .map(|eval| (eval, None))
            .map_err(|e| GnneratorError::backend(e.to_string())),
        BackendKind::Hygcn => HygcnBackend::for_dataset(scenario.dataset.name)
            .evaluate(&model, dataset.num_nodes(), dataset.num_edges())
            .map(|eval| (eval, None))
            .map_err(|e| GnneratorError::backend(e.to_string())),
    }
}

/// Runs the sweep benchmark on `ctx`: the 60-point mixed-backend grid
/// (the nine paper workloads plus the ogbn extension) through the
/// parallel sweep engine, then the same grid through the serial per-run
/// path, comparing results bit for bit.
///
/// Both paths share pre-materialised dataset edges (materialisation is
/// identical work either way and is excluded from the timings). The sweep
/// path runs on `ctx`'s own runner, so it evaluates over the shard summaries
/// each dataset already holds from earlier experiments, and loads or builds
/// only the summaries none of them derived; the serial path shards from
/// scratch per scenario the way the harness did before the session
/// refactor, so `speedup` measures sharding once against sharding per
/// point. Because the serial path never reads a cached summary, it doubles
/// as a correctness check of every summary the artifact cache served.
///
/// # Errors
///
/// Propagates simulation and backend-evaluation errors from either path.
pub fn bench_sweep(ctx: &SuiteContext) -> Result<SweepBenchmark, GnneratorError> {
    let scenarios = sweep_scenarios(ctx);
    let runner = ctx.runner();
    for scenario in &scenarios {
        // Materialise the edges up front: the serial reference shards from
        // them, and materialisation is excluded from both timings.
        runner.dataset(scenario)?.edge_list()?;
    }

    let start = Instant::now();
    let results = runner.run(&scenarios)?;
    let parallel_seconds = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let mut serial = Vec::with_capacity(scenarios.len());
    for scenario in &scenarios {
        serial.push(one_shot_evaluation(scenario, &runner.dataset(scenario)?)?);
    }
    let serial_seconds = start.elapsed().as_secs_f64();

    let bit_identical = results
        .iter()
        .zip(&serial)
        .all(|(parallel, (evaluation, report))| {
            &parallel.evaluation == evaluation && &parallel.report == report
        });

    Ok(SweepBenchmark {
        results,
        parallel_seconds,
        serial_seconds,
        bit_identical,
        threads: std::thread::available_parallelism().map_or(1, usize::from),
        scale: ctx.options().scale,
        shard_build_seconds: runner.total_shard_build_seconds(),
        graph_build_seconds: runner.graph_build_seconds(),
        datasets_synthesized: runner.datasets_synthesized(),
        datasets_loaded: runner.datasets_loaded(),
        shard_grids_built: runner.total_shard_grids_built(),
        shard_grids_loaded: runner.total_shard_grids_loaded(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::SuiteOptions;
    use gnnerator_serve::Json;

    /// Parses a row rendered by [`SweepPoint::to_json`], so the tests can check
    /// that every rendered row is JSON that round-trips.
    ///
    /// Fields may appear in any order; unknown fields are ignored. Returns
    /// `None` on malformed input or missing required fields.
    fn parse_point(text: &str) -> Option<SweepPoint> {
        let row = Json::parse(text)?;
        let string = |key: &str| row.get(key)?.as_str().map(str::to_string);
        let f64_field = |key: &str| row.get(key)?.as_f64();
        let opt_f64 = |key: &str| match row.get(key)? {
            Json::Null => Some(None),
            value => value.as_f64().map(Some),
        };
        let opt_u64 = |key: &str| match row.get(key)? {
            Json::Null => Some(None),
            value => value.as_u64().map(Some),
        };
        Some(SweepPoint {
            label: string("label")?,
            backend: string("backend")?,
            network: string("network")?,
            dataset: string("dataset")?,
            dataflow: string("dataflow")?,
            config: string("config")?,
            seconds: f64_field("seconds")?,
            simulate_seconds: f64_field("simulate_seconds")?,
            total_cycles: opt_u64("total_cycles")?,
            dram_bytes: opt_u64("dram_bytes")?,
            occupancy: opt_f64("occupancy")?,
            occupied_shards: opt_u64("occupied_shards")?,
            baseline_gpu_seconds: opt_f64("baseline_gpu_seconds")?,
            baseline_hygcn_seconds: opt_f64("baseline_hygcn_seconds")?,
            speedup_vs_gpu: opt_f64("speedup_vs_gpu")?,
            speedup_vs_hygcn: opt_f64("speedup_vs_hygcn")?,
        })
    }

    #[test]
    fn sweep_grid_covers_every_backend() {
        let ctx = SuiteContext::materialize(&SuiteOptions::quick()).unwrap();
        let scenarios = sweep_scenarios(&ctx);
        // 9 workloads x (4 accelerator dataflows + 2 baselines) + 6
        // ogbn extension points (arxiv and products trios), all distinct.
        assert_eq!(scenarios.len(), 60);
        for pair in scenarios.windows(2) {
            assert_ne!(pair[0], pair[1]);
        }
        for backend in BackendKind::ALL {
            let count = scenarios.iter().filter(|s| s.backend == backend).count();
            let expected = if backend.is_accelerator() { 38 } else { 11 };
            assert_eq!(count, expected, "{backend}");
        }
        // Each ogbn extension rides along with an accelerator point (so the
        // speedup columns exist) and both baselines.
        for dataset in ["ogbn-arxiv", "ogbn-products"] {
            let points: Vec<_> = scenarios
                .iter()
                .filter(|s| s.dataset.name == dataset)
                .collect();
            assert_eq!(points.len(), 3, "{dataset}");
            assert!(points.iter().any(|s| s.backend.is_accelerator()));
        }
        // At full scale the arxiv extension point is a >= 1M-edge graph, and
        // the products point is bigger still — the largest graph in the
        // grid.
        assert!(DatasetKind::OgbnArxiv.spec().edges >= 1_000_000);
        let products_edges =
            (DatasetKind::OgbnProductsScale.spec().edges as f64 * PRODUCTS_SWEEP_SCALE) as usize;
        assert!(products_edges > DatasetKind::OgbnArxiv.spec().edges);
    }

    #[test]
    fn bench_sweep_is_bit_identical_to_the_serial_path() {
        let ctx = SuiteContext::materialize(&SuiteOptions::quick()).unwrap();
        let bench = bench_sweep(&ctx).unwrap();
        assert!(bench.bit_identical);
        assert_eq!(bench.results.len(), 60);
        assert_eq!(bench.points_for(BackendKind::Gnnerator), 38);
        assert_eq!(bench.points_for(BackendKind::GpuRoofline), 11);
        assert_eq!(bench.points_for(BackendKind::Hygcn), 11);
        assert!(bench.parallel_seconds > 0.0);
        assert!(bench.serial_seconds > 0.0);
        // No artifact cache attached: everything was synthesised and built.
        assert!(bench.datasets_synthesized > 0);
        assert_eq!(bench.datasets_loaded, 0);
        assert!(bench.shard_grids_built > 0);
        assert_eq!(bench.shard_grids_loaded, 0);
        assert!(bench.graph_build_seconds > 0.0);
        // All 38 accelerator points (the ogbn ones among them) carry a
        // finite speedup against both baselines.
        for result in bench
            .results
            .iter()
            .filter(|r| r.backend().is_accelerator())
        {
            for speedup in [result.speedup_vs_gpu(), result.speedup_vs_hygcn()] {
                assert!(
                    speedup.is_some_and(f64::is_finite),
                    "{}: {speedup:?}",
                    result.scenario
                );
            }
        }
    }

    #[test]
    fn json_report_is_well_formed() {
        let ctx = SuiteContext::materialize(&SuiteOptions::quick()).unwrap();
        let bench = bench_sweep(&ctx).unwrap();
        assert!(bench.shard_build_seconds > 0.0);
        let json = bench.to_json();
        assert!(json.starts_with('{'));
        assert!(json.trim_end().ends_with('}'));
        assert!(json.contains("\"bit_identical\": true"));
        assert!(json.contains("\"num_points\": 60"));
        assert!(json.contains("\"points_per_backend\""));
        assert!(json.contains("\"shard_build_seconds\""));
        assert!(json.contains("\"graph_build_seconds\""));
        assert!(json.contains("\"datasets_synthesized\""));
        assert!(json.contains("\"datasets_loaded\""));
        assert!(json.contains("\"shard_grids_built\""));
        assert!(json.contains("\"shard_grids_loaded\""));
        assert!(json.contains("\"dataset\": \"ogbn-arxiv\""));
        assert!(json.contains("\"dataset\": \"ogbn-products\""));
        assert!(json.contains("\"occupancy\""));
        assert!(json.contains("\"occupied_shards\""));
        assert!(json.contains("\"simulate_seconds\""));
        assert!(json.contains("\"backend\": \"gnnerator\""));
        assert!(json.contains("\"backend\": \"gpu-roofline\""));
        assert!(json.contains("\"backend\": \"hygcn\""));
        assert!(json.contains("\"speedup_vs_gpu\""));
        assert!(json.contains("\"speedup_vs_hygcn\""));
        assert!(json.contains("cora-gcn"));
        // Speedups must be finite: JSON has no inf/NaN representation.
        assert!(!json.contains("inf"));
        assert!(!json.contains("NaN"));
        // Balanced braces/brackets (no raw quotes inside our labels).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn sweep_points_round_trip_through_json() {
        let ctx = SuiteContext::materialize(&SuiteOptions::quick()).unwrap();
        let scenarios = sweep_scenarios(&ctx);
        let results = ctx.run_scenarios(&scenarios).unwrap();
        for result in &results {
            let point = SweepPoint::from_result(result);
            let parsed = parse_point(&point.to_json())
                .unwrap_or_else(|| panic!("unparseable row: {}", point.to_json()));
            assert_eq!(parsed, point, "{}", result.scenario);
            // Accelerator rows carry the speedup columns, baselines don't.
            if result.backend().is_accelerator() {
                assert!(parsed.speedup_vs_gpu.unwrap().is_finite());
                assert!(parsed.speedup_vs_hygcn.unwrap().is_finite());
                assert!(parsed.baseline_gpu_seconds.unwrap() > 0.0);
                assert!(parsed.baseline_hygcn_seconds.unwrap() > 0.0);
                assert!(parsed.total_cycles.unwrap() > 0);
            } else {
                assert_eq!(parsed.speedup_vs_gpu, None);
                assert_eq!(parsed.speedup_vs_hygcn, None);
                assert_eq!(parsed.total_cycles, None);
                assert_eq!(parsed.occupancy, None);
            }
        }
    }

    #[test]
    fn sweep_point_parser_handles_escapes_order_and_junk() {
        let json = "{\"backend\": \"gnnerator\", \"label\": \"a\\\"b\\\\c\\nd\", \
                    \"network\": \"gcn\", \"dataset\": \"cora\", \"dataflow\": \"x\", \
                    \"config\": \"y\", \"unknown_field\": 3, \"seconds\": 1e-3, \
                    \"simulate_seconds\": 0.5, \"total_cycles\": null, \"dram_bytes\": null, \
                    \"occupancy\": null, \"occupied_shards\": null, \
                    \"baseline_gpu_seconds\": null, \"baseline_hygcn_seconds\": null, \
                    \"speedup_vs_gpu\": null, \"speedup_vs_hygcn\": null}";
        let point = parse_point(json).unwrap();
        assert_eq!(point.label, "a\"b\\c\nd");
        assert_eq!(point.seconds, 1e-3);
        assert_eq!(point.total_cycles, None);
        // Round-trip of the escaped label.
        assert_eq!(parse_point(&point.to_json()), Some(point));
        // Malformed inputs are rejected, not panicked on.
        assert_eq!(parse_point("not json"), None);
        assert_eq!(parse_point("{\"label\": }"), None);
        assert_eq!(parse_point("{}"), None);
    }

    #[test]
    fn non_finite_columns_serialise_as_null_not_invalid_json() {
        let mut point = SweepPoint {
            label: "x".into(),
            backend: "gnnerator".into(),
            network: "gcn".into(),
            dataset: "cora".into(),
            dataflow: "d".into(),
            config: "c".into(),
            seconds: 1.0e-3,
            simulate_seconds: 1.0e-4,
            total_cycles: Some(1),
            dram_bytes: Some(2),
            occupancy: Some(f64::NAN),
            occupied_shards: Some(3),
            baseline_gpu_seconds: Some(1.0),
            baseline_hygcn_seconds: Some(1.0),
            speedup_vs_gpu: Some(f64::INFINITY),
            speedup_vs_hygcn: Some(f64::NEG_INFINITY),
        };
        let json = point.to_json();
        assert!(!json.contains("inf"), "{json}");
        assert!(!json.contains("NaN"), "{json}");
        let parsed = parse_point(&json).unwrap();
        assert_eq!(parsed.speedup_vs_gpu, None);
        assert_eq!(parsed.speedup_vs_hygcn, None);
        assert_eq!(parsed.occupancy, None);
        // Finite columns still round-trip exactly.
        point.occupancy = Some(0.75);
        point.speedup_vs_gpu = Some(4.0);
        point.speedup_vs_hygcn = Some(2.0);
        assert_eq!(parse_point(&point.to_json()), Some(point));
    }

    #[test]
    fn json_string_escapes_specials() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
