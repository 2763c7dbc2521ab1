//! Regenerates Table V: speedup of GNNerator over the HyGCN backend for GCN
//! on the three citation datasets, read off the unified sweep's speedup
//! columns (every accelerator point carries its baseline seconds).
//!
//! Usage: `cargo run -p gnnerator-bench --release --bin table5 [-- --scale 0.1]`

use gnnerator_bench::experiments;
use gnnerator_bench::suite::{scale_or_exit, SuiteContext, SuiteOptions};

fn main() {
    let scale = scale_or_exit();
    let options = SuiteOptions::paper().with_scale(scale);
    println!("Synthesising datasets (scale {scale})...");
    let ctx = SuiteContext::materialize(&options).expect("dataset synthesis failed");
    let rows = experiments::table5(&ctx).expect("simulation failed");
    println!();
    println!("{}", experiments::table5_table(&rows));
    println!(
        "Paper reference: 3.8x / 3.2x / 2.3x with blocking, 1.8x / 0.8x / 1.0x without (Table V)."
    );
    println!(
        "Sweep caches: {} datasets, {} compiled sessions.",
        ctx.runner().cached_datasets(),
        ctx.runner().cached_sessions()
    );
}
