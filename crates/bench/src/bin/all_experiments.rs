//! Runs every experiment in the paper's evaluation section in one go, prints
//! all tables and figures, and writes the machine-readable `BENCH_sweep.json`
//! performance record of the sweep engine itself.
//!
//! Usage: `cargo run -p gnnerator-bench --release --bin all_experiments [-- --scale 0.25]`

use gnnerator::BackendKind;
use gnnerator_bench::experiments::{self, FIGURE4_BLOCK_SIZES};
use gnnerator_bench::rows::format_ms;
use gnnerator_bench::suite::{scale_or_exit, SuiteContext, SuiteOptions};
use gnnerator_bench::sweep_report;
use gnnerator_graph::ArtifactCache;
use std::sync::Arc;

fn main() {
    let scale = scale_or_exit();
    let options = SuiteOptions::paper().with_scale(scale);
    println!("GNNerator reproduction — full experiment sweep (dataset scale {scale})");
    println!();

    // Static configuration tables.
    println!("{}", experiments::table1_table());
    println!("{}", experiments::table2_table());
    println!("{}", experiments::table4_table());

    // Persistent graph-artifact cache (GNNERATOR_CACHE=off disables; any
    // other value overrides the target/gnnerator-cache default directory).
    let cache = Arc::new(ArtifactCache::from_env());
    match cache.root() {
        Some(root) => println!("Artifact cache: {}", root.display()),
        None => println!("Artifact cache: disabled (GNNERATOR_CACHE=off)"),
    }

    println!("Materialising datasets (cache first, synthesis on miss)...");
    let ctx = SuiteContext::materialize_with_cache(&options, cache)
        .expect("dataset materialisation failed");

    // Raw per-workload runtimes, for reference — one parallel sweep over the
    // whole suite, accelerator and baseline backends alike.
    println!();
    println!("Per-workload runtimes (all backends from one sweep):");
    for result in experiments::run_full_suite(&ctx).expect("simulation failed") {
        println!(
            "  {:<18} {} {:>12}  w/o blocking {:>12}  {} {:>12}  {} {:>12}",
            result.workload.label(),
            BackendKind::Gnnerator,
            format_ms(result.gnnerator_blocked.seconds()),
            format_ms(result.gnnerator_unblocked.seconds()),
            BackendKind::GpuRoofline,
            format_ms(result.gpu.seconds),
            BackendKind::Hygcn,
            format_ms(result.hygcn.seconds),
        );
    }

    // Figure 3.
    let (rows, gm_blocked, gm_unblocked) = experiments::figure3(&ctx).expect("figure 3 failed");
    println!();
    println!(
        "{}",
        experiments::figure3_table(&rows, gm_blocked, gm_unblocked)
    );

    // Table V.
    let rows = experiments::table5(&ctx).expect("table 5 failed");
    println!("{}", experiments::table5_table(&rows));

    // Figure 4.
    let rows = experiments::figure4(&ctx, &FIGURE4_BLOCK_SIZES).expect("figure 4 failed");
    println!("{}", experiments::figure4_table(&rows));

    // Figure 5.
    let (rows, gmeans) = experiments::figure5(&ctx).expect("figure 5 failed");
    println!("{}", experiments::figure5_table(&rows, &gmeans));

    // Sweep-engine benchmark: the 60-point mixed-backend grid (nine paper
    // workloads plus the ogbn-arxiv-scale extension) through the parallel
    // compile-once path versus the serial per-run path, checked bit for bit.
    println!("Benchmarking the sweep engine (60 scenario points across all backends)...");
    let bench = sweep_report::bench_sweep(&ctx).expect("sweep benchmark failed");
    println!(
        "  parallel sweep: {:.3} s   serial per-run: {:.3} s   speedup {:.2}x on {} threads   bit-identical: {}",
        bench.parallel_seconds,
        bench.serial_seconds,
        bench.speedup(),
        bench.threads,
        bench.bit_identical,
    );
    println!(
        "  points per backend: {}",
        BackendKind::ALL
            .into_iter()
            .map(|b| format!("{b} {}", bench.points_for(b)))
            .collect::<Vec<_>>()
            .join(", "),
    );
    println!(
        "  runner caches: {} datasets, {} compiled sessions",
        ctx.runner().cached_datasets(),
        ctx.runner().cached_sessions(),
    );
    println!(
        "  graph builds: {} datasets synthesized, {} loaded from cache ({:.3} s); \
         shard grids: {} built, {} loaded from cache",
        bench.datasets_synthesized,
        bench.datasets_loaded,
        bench.graph_build_seconds,
        bench.shard_grids_built,
        bench.shard_grids_loaded,
    );
    let path = "BENCH_sweep.json";
    std::fs::write(path, bench.to_json()).expect("failed to write BENCH_sweep.json");
    println!("  wrote {path}");
}
