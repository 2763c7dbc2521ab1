//! Cross-crate determinism guarantees of the scenario-sweep engine: parallel
//! execution over compile-once sessions must be observably identical — bit
//! for bit — to serial, freshly-compiled, per-run evaluation, for every
//! backend (the simulated accelerator and both analytical baselines), and
//! must not depend on the order scenarios are enumerated in.

use gnnerator::{
    Backend, BackendEvaluation, BackendKind, DataflowConfig, GnneratorConfig, GpuRooflineBackend,
    HygcnBackend, Report, ScenarioSpec, SimSession, Simulator, SweepRunner,
};
use gnnerator_gnn::NetworkKind;
use gnnerator_graph::datasets::DatasetKind;

/// A 36-point accelerator grid: 3 datasets × 3 networks × 4 dataflow/config
/// variants, at a small scale so the full matrix stays fast.
fn accelerator_grid() -> Vec<ScenarioSpec> {
    let base = GnneratorConfig::paper_default();
    let variants = [
        (base.clone(), DataflowConfig::blocked(64)),
        (base.clone(), DataflowConfig::blocked(32)),
        (base.clone(), DataflowConfig::conventional()),
        (
            base.with_double_feature_bandwidth(),
            DataflowConfig::blocked(64),
        ),
    ];
    let mut scenarios = Vec::new();
    for kind in DatasetKind::ALL {
        for network in NetworkKind::ALL {
            for (config, dataflow) in &variants {
                scenarios.push(ScenarioSpec::new(
                    network,
                    kind.spec().scaled(0.04),
                    13,
                    16,
                    4,
                    config.clone(),
                    *dataflow,
                ));
            }
        }
    }
    scenarios
}

/// The accelerator grid extended with every baseline backend per (dataset,
/// network) pair: a 54-point grid mixing all three `BackendKind`s.
fn mixed_backend_grid() -> Vec<ScenarioSpec> {
    let mut scenarios = accelerator_grid();
    for kind in DatasetKind::ALL {
        for network in NetworkKind::ALL {
            for backend in [BackendKind::GpuRoofline, BackendKind::Hygcn] {
                scenarios.push(
                    ScenarioSpec::new(
                        network,
                        kind.spec().scaled(0.04),
                        13,
                        16,
                        4,
                        GnneratorConfig::paper_default(),
                        DataflowConfig::blocked(64),
                    )
                    .with_backend(backend),
                );
            }
        }
    }
    scenarios
}

/// The pre-session way to run one accelerator scenario: synthesise, build,
/// compile and simulate from scratch with a throwaway `Simulator`.
fn fresh_per_run_report(scenario: &ScenarioSpec) -> Report {
    let dataset = scenario.dataset.synthesize(scenario.seed).unwrap();
    let model = scenario
        .network
        .build(
            dataset.spec.feature_dim,
            scenario.hidden_dim,
            scenario.out_dim,
            scenario.hidden_layers,
        )
        .unwrap();
    Simulator::with_dataflow(scenario.config.clone(), scenario.dataflow)
        .unwrap()
        .simulate(&model, &dataset)
        .unwrap()
}

/// The sweep-free way to evaluate any scenario: a fresh model and a direct
/// backend evaluation, no shared caches.
fn fresh_per_run_evaluation(scenario: &ScenarioSpec) -> BackendEvaluation {
    let dataset = scenario.dataset.synthesize(scenario.seed).unwrap();
    let model = scenario
        .network
        .build(
            dataset.spec.feature_dim,
            scenario.hidden_dim,
            scenario.out_dim,
            scenario.hidden_layers,
        )
        .unwrap();
    match scenario.backend {
        BackendKind::Gnnerator => fresh_per_run_report(scenario).to_evaluation(),
        BackendKind::GpuRoofline => GpuRooflineBackend::rtx_2080_ti()
            .evaluate(&model, dataset.num_nodes(), dataset.num_edges())
            .unwrap(),
        BackendKind::Hygcn => HygcnBackend::for_dataset(scenario.dataset.name)
            .evaluate(&model, dataset.num_nodes(), dataset.num_edges())
            .unwrap(),
    }
}

#[test]
fn parallel_sweep_is_bit_identical_to_fresh_serial_simulation() {
    let scenarios = accelerator_grid();
    assert!(scenarios.len() >= 32, "{} points", scenarios.len());

    let runner = SweepRunner::new();
    let parallel = runner.run(&scenarios).unwrap();
    assert_eq!(parallel.len(), scenarios.len());

    for (scenario, result) in scenarios.iter().zip(&parallel) {
        let fresh = fresh_per_run_report(scenario);
        assert_eq!(result.report.as_ref(), Some(&fresh), "{scenario}");
    }
}

#[test]
fn mixed_backend_sweep_is_bit_identical_to_fresh_evaluation() {
    let scenarios = mixed_backend_grid();
    assert_eq!(scenarios.len(), 54);
    for backend in BackendKind::ALL {
        assert!(
            scenarios.iter().any(|s| s.backend == backend),
            "grid must include {backend}"
        );
    }

    let runner = SweepRunner::new();
    let parallel = runner.run(&scenarios).unwrap();
    for (scenario, result) in scenarios.iter().zip(&parallel) {
        let fresh = fresh_per_run_evaluation(scenario);
        assert_eq!(result.evaluation, fresh, "{scenario}");
        assert_eq!(
            result.report.is_some(),
            scenario.backend.is_accelerator(),
            "{scenario}"
        );
    }
}

#[test]
fn mixed_backend_parallel_and_serial_runner_paths_agree() {
    let scenarios = mixed_backend_grid();
    let runner = SweepRunner::new();
    let parallel = runner.run(&scenarios).unwrap();
    let serial = runner.run_serial(&scenarios).unwrap();
    assert_eq!(parallel, serial);
}

#[test]
fn scenario_order_does_not_change_results() {
    let scenarios = mixed_backend_grid();
    let mut reversed = scenarios.clone();
    reversed.reverse();
    // Interleave a third order: odd indices first, then even.
    let mut interleaved: Vec<ScenarioSpec> = scenarios.iter().skip(1).step_by(2).cloned().collect();
    interleaved.extend(scenarios.iter().step_by(2).cloned());

    let forward = SweepRunner::new().run(&scenarios).unwrap();
    let backward = SweepRunner::new().run(&reversed).unwrap();
    let shuffled = SweepRunner::new().run(&interleaved).unwrap();

    let find = |results: &[gnnerator::ScenarioResult], scenario: &ScenarioSpec| {
        results
            .iter()
            .find(|r| &r.scenario == scenario)
            .unwrap_or_else(|| panic!("missing {scenario}"))
            .clone()
    };
    for scenario in &scenarios {
        let a = find(&forward, scenario);
        let b = find(&backward, scenario);
        let c = find(&shuffled, scenario);
        assert_eq!(a, b, "{scenario}");
        assert_eq!(a, c, "{scenario}");
    }
}

#[test]
fn repeated_sweeps_over_one_runner_are_stable() {
    let scenarios = mixed_backend_grid();
    let runner = SweepRunner::new();
    let first = runner.run(&scenarios).unwrap();
    // Second run hits every cache (datasets, sessions, shard plans).
    let second = runner.run(&scenarios).unwrap();
    assert_eq!(first, second);
    assert_eq!(runner.cached_datasets(), 3);
    // Baseline points share the accelerator points' sessions.
    assert_eq!(runner.cached_sessions(), 9);
}

#[test]
fn accelerator_speedup_columns_match_dedicated_baseline_points() {
    // The baseline seconds an accelerator point carries must equal what the
    // dedicated baseline points of the same grid produced — one sweep, one
    // source of truth for every speedup figure.
    let scenarios = mixed_backend_grid();
    let runner = SweepRunner::new();
    let results = runner.run(&scenarios).unwrap();
    let baseline_seconds = |scenario: &ScenarioSpec, backend: BackendKind| {
        results
            .iter()
            .find(|r| {
                r.scenario.backend == backend
                    && r.scenario.dataset == scenario.dataset
                    && r.scenario.network == scenario.network
            })
            .unwrap_or_else(|| panic!("missing {backend} twin for {scenario}"))
            .seconds()
    };
    for result in results.iter().filter(|r| r.backend().is_accelerator()) {
        let columns = result.baseline_seconds.unwrap();
        assert_eq!(
            columns.gpu,
            baseline_seconds(&result.scenario, BackendKind::GpuRoofline),
            "{}",
            result.scenario
        );
        assert_eq!(
            columns.hygcn,
            baseline_seconds(&result.scenario, BackendKind::Hygcn),
            "{}",
            result.scenario
        );
        assert!(result.speedup_vs_gpu().unwrap().is_finite());
        assert!(result.speedup_vs_hygcn().unwrap().is_finite());
    }
}

#[test]
fn session_reuse_matches_fresh_compilation_end_to_end() {
    let dataset = DatasetKind::Pubmed
        .spec()
        .scaled(0.04)
        .synthesize(21)
        .unwrap();
    let model = NetworkKind::GraphsagePool
        .build_paper_config(dataset.spec.feature_dim, 3)
        .unwrap();
    let session = SimSession::new(model.clone(), &dataset).unwrap();
    let config = GnneratorConfig::paper_default();

    // Exercise the same session across many dataflows, interleaved with
    // repeats, and compare every report against the one-shot path, which
    // shards from scratch instead of reading the dataset's shared summaries.
    let dataflows = [
        DataflowConfig::blocked(64),
        DataflowConfig::conventional(),
        DataflowConfig::blocked(16),
        DataflowConfig::blocked(64),
        DataflowConfig::conventional(),
    ];
    for dataflow in dataflows {
        let reused = session.simulate(&config, dataflow).unwrap();
        let fresh = Simulator::with_dataflow(config.clone(), dataflow)
            .unwrap()
            .simulate(&model, &dataset)
            .unwrap();
        assert_eq!(reused, fresh, "{dataflow}");
    }
    // The repeats above must not have grown the dataset's summary table.
    assert!(session.cached_shard_plans() <= 3);
}
