//! Regenerates Figure 5: the scaling study. For each dataset and hidden
//! dimension, the speedup obtained by doubling (a) the Graph Engine memory,
//! (b) the Dense Engine compute, or (c) the feature-memory bandwidth — all
//! 36 scenario points executed as one parallel sweep.
//!
//! Usage: `cargo run -p gnnerator-bench --release --bin fig5 [-- --scale 0.1]`

use gnnerator_bench::experiments;
use gnnerator_bench::suite::{scale_or_exit, SuiteContext, SuiteOptions};

fn main() {
    let scale = scale_or_exit();
    let options = SuiteOptions::paper().with_scale(scale);
    println!("Synthesising datasets (scale {scale})...");
    let ctx = SuiteContext::materialize(&options).expect("dataset synthesis failed");
    let (rows, gmeans) = experiments::figure5(&ctx).expect("simulation failed");
    println!();
    println!("{}", experiments::figure5_table(&rows, &gmeans));
    println!(
        "Paper reference: more bandwidth helps small hidden dimensions; more Dense Engine compute wins at large hidden dimensions (Figure 5)."
    );
    println!(
        "Sweep caches: {} datasets, {} compiled sessions.",
        ctx.runner().cached_datasets(),
        ctx.runner().cached_sessions()
    );
}
