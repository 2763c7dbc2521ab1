//! Runs the paper's nine-benchmark citation suite (three datasets × three
//! networks) end to end as one parallel scenario sweep: GNNerator with and
//! without feature blocking, the GPU roofline baseline and the HyGCN
//! baseline — the data behind Figure 3 and Table V.
//!
//! Run with `cargo run --release --example citation_suite` (add
//! `-- --scale 0.25` for scaled-down graphs; the default uses the paper's
//! full-size datasets because the accelerator-versus-HyGCN relationship is
//! scale dependent — small graphs fit in HyGCN's on-chip memory and hide the
//! dataflow differences the paper measures).

use gnnerator_bench::rows::{format_ms, format_speedup, geomean, Table};
use gnnerator_bench::suite::{scale_or_exit, SuiteContext, SuiteOptions};
use std::error::Error;
use std::time::Instant;

fn main() -> Result<(), Box<dyn Error>> {
    let scale = scale_or_exit();
    println!("Synthesising the citation datasets at scale {scale}...");
    let ctx = SuiteContext::materialize(&SuiteOptions::paper().with_scale(scale))?;

    // All 18 GNNerator scenario points (9 workloads x 2 dataflows) run as a
    // single parallel sweep over compile-once sessions.
    let start = Instant::now();
    let results = ctx.run_suite()?;
    let sweep_seconds = start.elapsed().as_secs_f64();

    let mut table = Table::new(
        "Citation suite: runtimes and speedups",
        &[
            "benchmark",
            "gnnerator",
            "w/o blocking",
            "gpu",
            "hygcn",
            "vs gpu",
            "vs hygcn",
        ],
    );
    let mut vs_gpu = Vec::new();
    let mut vs_hygcn = Vec::new();
    for result in &results {
        vs_gpu.push(result.speedup_blocked_vs_gpu());
        vs_hygcn.push(result.speedup_blocked_vs_hygcn());
        table.add_row(vec![
            result.workload.label(),
            format_ms(result.gnnerator_blocked.seconds()),
            format_ms(result.gnnerator_unblocked.seconds()),
            format_ms(result.gpu.seconds),
            format_ms(result.hygcn.seconds),
            format_speedup(result.speedup_blocked_vs_gpu()),
            format_speedup(result.speedup_blocked_vs_hygcn()),
        ]);
    }
    table.add_row(vec![
        "Gmean".to_string(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        format_speedup(geomean(&vs_gpu)),
        format_speedup(geomean(&vs_hygcn)),
    ]);
    println!();
    println!("{table}");
    println!("Paper reference: 8.0x geomean over the GPU, 3.15x average over HyGCN.");
    println!(
        "Swept {} scenario points in {:.2} s ({} datasets, {} compiled sessions cached).",
        results.len() * 2,
        sweep_seconds,
        ctx.runner().cached_datasets(),
        ctx.runner().cached_sessions(),
    );
    Ok(())
}
