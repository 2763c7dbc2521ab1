//! Bit-identity of the experiment sweep across artifact-cache state: a warm
//! rerun over a populated cache must emit the same sweep points as the cold
//! run once the wall-clock and memory-telemetry columns are masked.

use gnnerator::ScenarioResult;
use gnnerator_bench::suite::{SuiteContext, SuiteOptions};
use gnnerator_bench::sweep_report::{sweep_scenarios, SweepPoint};
use gnnerator_graph::ArtifactCache;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The counters a sweep run is judged by, besides its points.
struct Run {
    points: Vec<String>,
    datasets_synthesized: usize,
    grids_built: usize,
    grids_loaded: usize,
}

fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gnnerator-sweep-identity-{}-{label}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The sweep's `BENCH_sweep.json` point rows with the columns that
/// legitimately differ between runs (the wall clock) masked.
fn masked_points(results: &[ScenarioResult]) -> Vec<String> {
    results
        .iter()
        .map(|result| {
            let mut point = SweepPoint::from_result(result);
            point.simulate_seconds = 0.0;
            point.to_json()
        })
        .collect()
}

/// One full sweep over a fresh runner on the artifact cache at `dir`.
fn sweep(dir: &Path) -> Run {
    let options = SuiteOptions::quick().with_scale(0.02);
    let ctx = SuiteContext::materialize_with_cache(&options, Arc::new(ArtifactCache::new(dir)))
        .expect("datasets materialise");
    let results = ctx
        .run_scenarios(&sweep_scenarios(&ctx))
        .expect("sweep runs");
    let runner = ctx.runner();
    Run {
        points: masked_points(&results),
        datasets_synthesized: runner.datasets_synthesized(),
        grids_built: runner.total_shard_grids_built(),
        grids_loaded: runner.total_shard_grids_loaded(),
    }
}

#[test]
fn warm_sweep_is_bit_identical_to_the_cold_sweep() {
    let dir = scratch_dir("cache");
    let cold = sweep(&dir);
    assert!(cold.datasets_synthesized > 0);
    assert!(cold.grids_built > 0);
    // Sessions over one dataset share its summaries, so a cold run never
    // reads back a summary it has just written.
    assert_eq!(cold.grids_loaded, 0);
    assert!(!cold.points.is_empty());

    // Warm: zero synthesis, zero summary builds, each summary loaded once
    // however many models share it, identical points.
    let warm = sweep(&dir);
    assert_eq!(warm.datasets_synthesized, 0);
    assert_eq!(warm.grids_built, 0);
    assert_eq!(warm.grids_loaded, cold.grids_built);
    assert_eq!(warm.points, cold.points, "warm vs cold");

    std::fs::remove_dir_all(&dir).ok();
}
