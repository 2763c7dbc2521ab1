//! Regenerates Figure 4: slowdown as a function of the feature-block size B,
//! relative to the B = 64 baseline, averaged over the nine-benchmark suite.
//! The baseline and all seven swept block sizes execute as one parallel
//! 72-point scenario sweep over compile-once sessions.
//!
//! Usage: `cargo run -p gnnerator-bench --release --bin fig4 [-- --scale 0.1]`

use gnnerator_bench::experiments::{self, FIGURE4_BLOCK_SIZES};
use gnnerator_bench::suite::{scale_or_exit, SuiteContext, SuiteOptions};

fn main() {
    let scale = scale_or_exit();
    let options = SuiteOptions::paper().with_scale(scale);
    println!("Synthesising datasets (scale {scale})...");
    let ctx = SuiteContext::materialize(&options).expect("dataset synthesis failed");
    let rows = experiments::figure4(&ctx, &FIGURE4_BLOCK_SIZES).expect("simulation failed");
    println!();
    println!("{}", experiments::figure4_table(&rows));
    println!(
        "Paper reference: B=64 is best; B=32 under-utilises the 64-wide Dense Engine and large B degrades towards the conventional dataflow (Figure 4)."
    );
    println!(
        "Sweep caches: {} datasets, {} compiled sessions.",
        ctx.runner().cached_datasets(),
        ctx.runner().cached_sessions()
    );
}
