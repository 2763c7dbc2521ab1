//! Regenerates Figure 3: speedup of GNNerator (with and without feature
//! blocking) over the GPU-roofline (RTX 2080 Ti) backend for the
//! nine-benchmark suite, executed as one parallel 36-point scenario sweep
//! that evaluates the accelerator and both baseline backends together.
//!
//! Usage: `cargo run -p gnnerator-bench --release --bin fig3 [-- --scale 0.1]`

use gnnerator_bench::experiments;
use gnnerator_bench::suite::{scale_or_exit, SuiteContext, SuiteOptions};

fn main() {
    let scale = scale_or_exit();
    let options = SuiteOptions::paper().with_scale(scale);
    println!("Synthesising datasets (scale {scale})...");
    let ctx = SuiteContext::materialize(&options).expect("dataset synthesis failed");
    let (rows, gm_blocked, gm_unblocked) = experiments::figure3(&ctx).expect("simulation failed");
    println!();
    println!(
        "{}",
        experiments::figure3_table(&rows, gm_blocked, gm_unblocked)
    );
    println!("Paper reference: geomean 8.0x with blocking, 4.2x without (Figure 3).");
    println!(
        "Sweep caches: {} datasets, {} compiled sessions.",
        ctx.runner().cached_datasets(),
        ctx.runner().cached_sessions()
    );
}
