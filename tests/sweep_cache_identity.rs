//! Bit-identity of the experiment sweep across artifact-cache state and
//! memory budget: a warm rerun over a populated cache, and a cold and a warm
//! run under a tiny `GNNERATOR_MEM_BUDGET` (so dataset builds spill sorted
//! chunks to disk), must all emit the same sweep points as the unbudgeted
//! cold run once the wall-clock and memory-telemetry columns are masked.
//!
//! The budget is a process environment variable read by every edge builder,
//! so this binary holds a single test that sets and restores it.

use gnnerator::ScenarioResult;
use gnnerator_bench::suite::{SuiteContext, SuiteOptions};
use gnnerator_bench::sweep_report::{sweep_scenarios, SweepPoint};
use gnnerator_graph::{memory, ArtifactCache, MEM_BUDGET_ENV_VAR};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The counters a sweep run is judged by, besides its points.
struct Run {
    points: Vec<String>,
    datasets_synthesized: usize,
    grids_built: usize,
    grids_loaded: usize,
    spilled_chunks: u64,
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
/// legitimately differ between runs (wall clock, memory telemetry) masked.
fn masked_points(results: &[ScenarioResult]) -> Vec<String> {
    results
        .iter()
        .map(|result| {
            let mut point = SweepPoint::from_result(result);
            point.simulate_seconds = 0.0;
            point.peak_resident_bytes = None;
            point.spilled_chunks = None;
            point.to_json()
        })
        .collect()
}

/// One full sweep over a fresh runner on the artifact cache at `dir`.
fn sweep(dir: &Path) -> Run {
    let spilled_before = memory::memory_telemetry().spilled_chunk_count;
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
        spilled_chunks: memory::memory_telemetry().spilled_chunk_count - spilled_before,
    }
}

#[test]
fn warm_and_budgeted_sweeps_are_bit_identical_to_the_cold_sweep() {
    assert!(
        std::env::var_os(MEM_BUDGET_ENV_VAR).is_none(),
        "the reference sweep must run unbudgeted"
    );
    let dir = scratch_dir("unbounded");
    let cold = sweep(&dir);
    assert!(cold.datasets_synthesized > 0);
    assert!(cold.grids_built > 0);
    assert!(!cold.points.is_empty());

    // Warm: zero synthesis, zero summary builds, identical points.
    let warm = sweep(&dir);
    assert_eq!(warm.datasets_synthesized, 0);
    assert_eq!(warm.grids_built, 0);
    assert!(warm.grids_loaded > 0);
    assert_eq!(warm.points, cold.points, "warm vs cold");

    // Budgeted, against a fresh cache root: the larger builds spill, and
    // the points still match the unbudgeted cold run, cold and warm.
    std::env::set_var(MEM_BUDGET_ENV_VAR, "64kb");
    let budgeted_dir = scratch_dir("budgeted");
    let budgeted_cold = sweep(&budgeted_dir);
    let budgeted_warm = sweep(&budgeted_dir);
    std::env::remove_var(MEM_BUDGET_ENV_VAR);
    assert!(budgeted_cold.spilled_chunks > 0, "oversized builds spill");
    assert!(budgeted_cold.grids_built > 0);
    assert_eq!(budgeted_cold.points, cold.points, "budgeted cold vs cold");
    assert_eq!(budgeted_warm.grids_built, 0);
    assert!(budgeted_warm.grids_loaded > 0);
    assert_eq!(budgeted_warm.points, cold.points, "budgeted warm vs cold");

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&budgeted_dir).ok();
}
