//! Quickstart: compile a GCN-on-Cora workload once into a [`SimSession`],
//! then execute it under the feature-blocked and conventional dataflows.
//!
//! Run with `cargo run --release --example quickstart`.

use gnnerator::{DataflowConfig, GnneratorConfig, SimSession, Simulator};
use gnnerator_gnn::NetworkKind;
use gnnerator_graph::datasets::DatasetKind;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // 1. Synthesise a dataset with Cora's published statistics (Table II).
    //    Use `.spec()` without `.scaled(..)` for the full-size graph.
    let spec = DatasetKind::Cora.spec().scaled(0.25);
    println!("Dataset: {spec}");
    let dataset = spec.synthesize(42)?;

    // 2. Build the paper's GCN configuration: one hidden layer of width 16.
    let model = NetworkKind::Gcn.build_paper_config(dataset.spec.feature_dim, 7)?;
    println!("Model:   {model}");

    // 3. Open a session: the model and graph are validated once, and every
    //    configuration compiled from here shares the session's shard plans.
    let session = SimSession::new(model, &dataset)?;
    let config = GnneratorConfig::paper_default();
    println!("Target:  {config}");

    // 4. Compile + execute the Table IV platform with the
    //    feature-dimension-blocking dataflow (B = 64).
    let blocked_workload = session.compile(&config, DataflowConfig::paper_default())?;
    let blocked = Simulator::execute(&blocked_workload)?;
    println!();
    println!("--- feature-blocked dataflow (B = 64) ---");
    println!("{blocked}");

    // 5. Compare with the conventional dataflow (the whole feature vector
    //    stays on-chip, so far fewer nodes fit per shard). The session
    //    reshards only because the shard parameter changes; identical
    //    parameters would reuse the cached plan.
    let conventional = session.simulate(&config, DataflowConfig::conventional())?;
    println!("--- conventional dataflow (B = D) ---");
    println!("{conventional}");

    println!(
        "Feature blocking speedup: {:.2}x (DRAM traffic {:.1} MB -> {:.1} MB)",
        blocked.speedup_over(&conventional),
        conventional.dram_bytes() as f64 / 1e6,
        blocked.dram_bytes() as f64 / 1e6,
    );
    // The sparse shard grid tracks how many cells actually hold edges; the
    // simulator's occupancy-aware walk visits only those.
    println!(
        "Shard occupancy: blocked {:.0}% ({} shards), conventional {:.0}% ({} shards)",
        blocked.shard_occupancy() * 100.0,
        blocked.occupied_shards(),
        conventional.shard_occupancy() * 100.0,
        conventional.occupied_shards(),
    );
    println!(
        "{session} ({:.2} ms spent sharding)",
        session.shard_build_seconds() * 1e3
    );
    Ok(())
}
