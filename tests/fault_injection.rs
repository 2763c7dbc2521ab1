//! Failure-path determinism of the sweep engine under injected faults:
//! [`SweepRunner::run`] reports the lowest-index failing scenario's error —
//! identically to [`SweepRunner::run_serial`], run after run, regardless of
//! thread schedule — and a sweep that suffered artifact-cache faults
//! mid-run still produces (and its warm rerun reproduces) results
//! bit-identical to a clean cold run: cache persistence is best-effort and
//! can never change what is computed.
//!
//! Every test arms the process-global `gnnerator-faults` registry, so they
//! serialise on one mutex and clear the registry on entry.

use gnnerator::{
    BackendKind, DataflowConfig, GnneratorConfig, ScenarioResult, ScenarioSpec, SweepRunner,
};
use gnnerator_gnn::NetworkKind;
use gnnerator_graph::datasets::DatasetKind;
use gnnerator_graph::{generators, ArtifactCache, GraphError};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Serialises tests that touch the process-global fault registry.
fn fault_guard() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    let guard = gnnerator_faults::lock_recover(&GUARD);
    gnnerator_faults::clear();
    guard
}

fn scratch_dir(label: &str) -> PathBuf {
    static NONCE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gnnerator-fault-cache-{}-{label}-{}",
        std::process::id(),
        NONCE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn scenario(kind: DatasetKind, seed: u64) -> ScenarioSpec {
    ScenarioSpec::new(
        NetworkKind::Gcn,
        kind.spec().scaled(0.03),
        seed,
        16,
        4,
        GnneratorConfig::paper_default(),
        DataflowConfig::blocked(64),
    )
}

/// A 6-point mixed-backend grid over two session keys (one per dataset).
fn grid() -> Vec<ScenarioSpec> {
    let mut scenarios = Vec::new();
    for kind in [DatasetKind::Cora, DatasetKind::Citeseer] {
        for backend in [
            BackendKind::Gnnerator,
            BackendKind::GpuRoofline,
            BackendKind::Hygcn,
        ] {
            scenarios.push(scenario(kind, 13).with_backend(backend));
        }
    }
    scenarios
}

fn assert_bit_identical(reference: &[ScenarioResult], observed: &[ScenarioResult], context: &str) {
    assert_eq!(reference.len(), observed.len(), "{context}: result count");
    for (i, (want, got)) in reference.iter().zip(observed).enumerate() {
        assert_eq!(
            want.seconds().to_bits(),
            got.seconds().to_bits(),
            "{context}: point {i} seconds diverged ({} != {})",
            want.seconds(),
            got.seconds()
        );
        assert_eq!(want.evaluation, got.evaluation, "{context}: point {i}");
        assert_eq!(want.num_nodes, got.num_nodes, "{context}: point {i}");
        assert_eq!(want.num_edges, got.num_edges, "{context}: point {i}");
    }
}

#[test]
fn sweep_run_reports_the_lowest_index_error_under_injected_failure() {
    let _guard = fault_guard();
    // Splice a doomed scenario (fresh seed, so an unwarmed session key)
    // into the middle of the healthy grid, plus a key-sharing twin at the
    // tail — the reported error must be the lowest-index one's.
    let mut scenarios = grid();
    let doomed = scenario(DatasetKind::Cora, 99);
    scenarios.insert(2, doomed.clone());
    scenarios.push(doomed);

    let runner = SweepRunner::new();
    // Warm every healthy session key so only the doomed key cold-builds
    // while the fault is armed — its two scenarios are the only failures.
    for healthy in grid() {
        runner.run_one(&healthy).expect("healthy grid runs clean");
    }
    gnnerator_faults::configure("session_build:error", 0).unwrap();

    let parallel = runner.run(&scenarios).unwrap_err().to_string();
    let lowest = runner.run_one(&scenarios[2]).unwrap_err().to_string();
    assert_eq!(
        parallel, lowest,
        "run() must report the lowest-index failing scenario's error"
    );
    assert!(
        parallel.contains("session_build"),
        "the injected failure must stay typed end to end: {parallel}"
    );
    let serial = runner.run_serial(&scenarios).unwrap_err().to_string();
    assert_eq!(parallel, serial, "parallel and serial must agree on errors");
    let again = runner.run(&scenarios).unwrap_err().to_string();
    assert_eq!(
        parallel, again,
        "the reported error must be run-to-run stable"
    );

    // Clearing the fault heals the sweep completely — nothing is cached
    // from the failed attempts.
    gnnerator_faults::clear();
    let results = runner.run(&scenarios).expect("cleared faults run clean");
    assert_eq!(results.len(), scenarios.len());
    assert!(runner
        .run(&[])
        .expect("an empty batch runs clean")
        .is_empty());
}

#[test]
fn a_worker_panic_reaches_the_caller_with_its_own_message() {
    let _guard = fault_guard();
    let runner = SweepRunner::new();
    let scenarios = grid();
    gnnerator_faults::configure("eval:panic", 1).unwrap();
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| runner.run(&scenarios)))
        .expect_err("an armed eval:panic failpoint panics the sweep");
    gnnerator_faults::clear();
    // The message must not depend on how many cores ran the sweep: every
    // worker count re-raises the failpoint's own payload.
    let message = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("<non-string payload>");
    assert_eq!(message, "injected panic at failpoint `eval`");
}

#[test]
fn warm_rerun_after_mid_sweep_cache_faults_matches_a_clean_cold_run() {
    let _guard = fault_guard();
    let scenarios = grid();

    let clean_dir = scratch_dir("clean");
    let clean = SweepRunner::new().with_artifact_cache(Arc::new(ArtifactCache::new(&clean_dir)));
    let reference = clean.run(&scenarios).expect("clean cold run");

    // A cold sweep with every other artifact read and write failing:
    // persistence is best-effort, so the run completes — bit-identically —
    // leaving whatever subset of artifacts happened to survive on disk.
    let faulted_dir = scratch_dir("faulted");
    gnnerator_faults::configure("cache_write:io@2,cache_read:io@2", 0).unwrap();
    let faulted =
        SweepRunner::new().with_artifact_cache(Arc::new(ArtifactCache::new(&faulted_dir)));
    let mid_sweep = faulted.run(&scenarios).expect("faulted sweep completes");
    assert_bit_identical(&reference, &mid_sweep, "mid-sweep cache faults");

    // The warm rerun over that partially-persisted cache, faults cleared:
    // mixed artifact hits and fresh rebuilds must reproduce the clean cold
    // run bit for bit.
    gnnerator_faults::clear();
    let warm = SweepRunner::new().with_artifact_cache(Arc::new(ArtifactCache::new(&faulted_dir)));
    let rerun = warm.run(&scenarios).expect("warm rerun completes");
    assert_bit_identical(&reference, &rerun, "warm rerun after faults");

    std::fs::remove_dir_all(&clean_dir).ok();
    std::fs::remove_dir_all(&faulted_dir).ok();
}

/// The cache's grid (shard summary) artifacts under `dir`.
fn summary_artifacts(dir: &std::path::Path) -> usize {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| {
                    let name = e.file_name();
                    let name = name.to_string_lossy();
                    name.starts_with("grid-") && name.ends_with(".bin")
                })
                .count()
        })
        .unwrap_or(0)
}

#[test]
fn cache_read_fault_on_a_warm_summary_load_falls_back_to_a_rebuild() {
    let _guard = fault_guard();
    let scenarios = grid();
    let dir = scratch_dir("summary-read");
    let cold = SweepRunner::new().with_artifact_cache(Arc::new(ArtifactCache::new(&dir)));
    let reference = cold.run_serial(&scenarios).expect("cold run");
    let summaries = summary_artifacts(&dir);
    assert!(summaries > 0);

    // A warm runner whose datasets load cleanly, then every summary read
    // faults: each summary is rebuilt from the loaded edges instead.
    let cache = Arc::new(ArtifactCache::new(&dir));
    let warm = SweepRunner::new().with_artifact_cache(Arc::clone(&cache));
    for scenario in &scenarios {
        warm.dataset(scenario)
            .expect("dataset loads before the fault");
    }
    assert_eq!(warm.datasets_synthesized(), 0);
    gnnerator_faults::configure("cache_read:io", 0).unwrap();
    let faulted = warm
        .run_serial(&scenarios)
        .expect("faulted summary loads rebuild");
    gnnerator_faults::clear();
    assert_bit_identical(&reference, &faulted, "summary read faults");
    assert_eq!(warm.total_shard_grids_loaded(), 0);
    assert_eq!(warm.total_shard_grids_built(), summaries);
    // Injected faults are I/O errors, not corruption: nothing quarantined,
    // so the next clean run loads every summary again.
    assert_eq!(cache.corrupt_artifacts(), 0);
    let healed = SweepRunner::new().with_artifact_cache(Arc::new(ArtifactCache::new(&dir)));
    assert_bit_identical(
        &reference,
        &healed.run_serial(&scenarios).unwrap(),
        "healed",
    );
    assert_eq!(healed.total_shard_grids_built(), 0);
    assert_eq!(healed.total_shard_grids_loaded(), summaries);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_write_fault_on_a_summary_store_leaves_a_cold_but_correct_next_run() {
    let _guard = fault_guard();
    let scenarios = grid();
    let reference = SweepRunner::new()
        .run_serial(&scenarios)
        .expect("reference run");

    // Datasets persist cleanly; every summary store then faults.
    let dir = scratch_dir("summary-write");
    let first = SweepRunner::new().with_artifact_cache(Arc::new(ArtifactCache::new(&dir)));
    for scenario in &scenarios {
        first
            .dataset(scenario)
            .expect("dataset stores before the fault");
    }
    gnnerator_faults::configure("cache_write:io", 0).unwrap();
    let faulted = first
        .run_serial(&scenarios)
        .expect("store faults are best-effort");
    gnnerator_faults::clear();
    assert_bit_identical(&reference, &faulted, "summary write faults");
    assert_eq!(summary_artifacts(&dir), 0, "no summary was published");

    // The next run loads its datasets but is cold for summaries: it builds
    // (and this time publishes) each one, bit-identically.
    let next = SweepRunner::new().with_artifact_cache(Arc::new(ArtifactCache::new(&dir)));
    assert_bit_identical(
        &reference,
        &next.run_serial(&scenarios).unwrap(),
        "cold rerun",
    );
    assert_eq!(next.datasets_synthesized(), 0);
    assert_eq!(next.total_shard_grids_loaded(), 0);
    let built = next.total_shard_grids_built();
    assert!(built > 0);
    assert_eq!(summary_artifacts(&dir), built);

    // ...after which the cache has converged: a third run is fully warm.
    let warm = SweepRunner::new().with_artifact_cache(Arc::new(ArtifactCache::new(&dir)));
    assert_bit_identical(
        &reference,
        &warm.run_serial(&scenarios).unwrap(),
        "warm rerun",
    );
    assert_eq!(warm.total_shard_grids_built(), 0);
    assert_eq!(warm.total_shard_grids_loaded(), built);
    std::fs::remove_dir_all(&dir).ok();
}

/// Asserts a build failed in a worker with the injected `graph_build` fault.
fn assert_worker_fault<T>(result: Result<T, GraphError>, context: &str) {
    match result {
        Err(GraphError::BuildWorker { message }) => {
            assert!(message.contains("graph_build"), "{context}: {message}");
        }
        Err(other) => panic!("{context}: expected a worker fault, got {other}"),
        Ok(_) => panic!("{context}: the build succeeded under an armed fault"),
    }
}

#[test]
fn graph_build_worker_faults_are_typed_and_reruns_are_bit_identical() {
    let _guard = fault_guard();
    // Big enough for several workers per build stage on a multi-core host;
    // on one core each stage runs one worker, which checks the point too.
    let spec = DatasetKind::Pubmed.spec().with_feature_dim(16);
    let clean_edges = generators::rmat(spec.vertices, spec.edges, 7).unwrap();
    let clean = spec.synthesize(7).unwrap();

    // Only the second worker check trips: one worker fails, the others run
    // to completion, and the caller still sees the typed error alone.
    for kind in ["error", "panic"] {
        gnnerator_faults::configure(&format!("graph_build:{kind}@2"), 0).unwrap();
        assert_worker_fault(
            generators::rmat(spec.vertices, spec.edges, 7),
            &format!("rmat, injected {kind}"),
        );
        gnnerator_faults::configure(&format!("graph_build:{kind}@2"), 0).unwrap();
        assert_worker_fault(spec.synthesize(7), &format!("synthesize, injected {kind}"));
    }
    gnnerator_faults::clear();

    assert_eq!(
        generators::rmat(spec.vertices, spec.edges, 7).unwrap(),
        clean_edges
    );
    let rebuilt = spec.synthesize(7).unwrap();
    assert_eq!(rebuilt.edge_list, clean.edge_list);
    // The feature table is a function of the spec and the seed, and the
    // banded fill checks no failpoint: it is the same under any fault.
    assert_eq!(spec.features(rebuilt.seed), spec.features(clean.seed));
}
