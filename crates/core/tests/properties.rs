//! Property-based tests for the accelerator model: compiler invariants,
//! timing-model monotonicity over randomised workloads, and the Dense
//! Engine's weight-stationary systolic timing.

use gnnerator::{
    Compiler, DataflowConfig, DenseEngine, DenseEngineConfig, GnneratorConfig, Simulator,
};
use gnnerator_gnn::NetworkKind;
use gnnerator_graph::generators;
use proptest::prelude::*;

fn network() -> impl Strategy<Value = NetworkKind> {
    prop_oneof![
        Just(NetworkKind::Gcn),
        Just(NetworkKind::Graphsage),
        Just(NetworkKind::GraphsagePool),
    ]
}

/// A Dense Engine whose systolic array is `side x side` PEs.
fn dense_engine(side: usize) -> DenseEngine {
    DenseEngine::new(&DenseEngineConfig {
        array_rows: side,
        array_cols: side,
        ..DenseEngineConfig::default()
    })
    .unwrap()
}

// `DenseEngine::gemm_cycles` / `gemm_utilization` are the weight-stationary
// systolic mapping the simulator times every GEMM with.
proptest! {
    #[test]
    fn systolic_cycles_monotonic_in_each_dimension(m in 1usize..300, k in 1usize..300, n in 1usize..300) {
        let e = dense_engine(16);
        let cycles = e.gemm_cycles(m, k, n);
        prop_assert!(e.gemm_cycles(m + 1, k, n) >= cycles);
        prop_assert!(e.gemm_cycles(m, k + 1, n) >= cycles);
        prop_assert!(e.gemm_cycles(m, k, n + 1) >= cycles);
    }

    #[test]
    fn systolic_utilization_in_unit_interval(m in 1usize..500, k in 1usize..500, n in 1usize..500) {
        let u = dense_engine(32).gemm_utilization(m, k, n);
        prop_assert!((0.0..=1.0).contains(&u));
    }

    #[test]
    fn systolic_cycles_at_least_ideal(m in 1usize..200, k in 1usize..200, n in 1usize..200) {
        // The array can never beat one MAC per PE per cycle.
        let e = dense_engine(8);
        let useful_macs = (m * k * n) as u64;
        prop_assert!(e.gemm_cycles(m, k, n) >= useful_macs.div_ceil(e.peak_macs_per_cycle()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn compiled_plans_cover_the_feature_dimension(
        kind in network(),
        dim in 1usize..600,
        block in 1usize..256,
        nodes in 50usize..400,
        seed in 0u64..100,
    ) {
        let edges = generators::rmat(nodes, nodes * 3, seed).unwrap();
        let model = kind.build(dim, 16, 4, 1).unwrap();
        let compiler = Compiler::new(
            GnneratorConfig::paper_default(),
            DataflowConfig::blocked(block),
        )
        .unwrap();
        let program = compiler.compile(&model, &edges).unwrap();
        prop_assert_eq!(program.num_layers(), model.num_layers());
        for plan in &program.layers {
            // Blocks tile the aggregated dimension exactly.
            prop_assert!(plan.block_size >= 1);
            prop_assert!(plan.block_size <= plan.aggregated_dim().max(1));
            prop_assert!(plan.num_blocks * plan.block_size >= plan.aggregated_dim());
            prop_assert!((plan.num_blocks - 1) * plan.block_size < plan.aggregated_dim().max(1));
            // The shard grid covers every node.
            prop_assert_eq!(plan.grid.num_nodes(), nodes);
            prop_assert!(plan.grid_dim() * plan.nodes_per_shard >= nodes);
            // Every edge (plus self-loops when applicable) landed in the grid.
            let expected = if plan.aggregation.map(|a| a.include_self).unwrap_or(false) {
                edges.num_edges() + nodes
            } else {
                edges.num_edges()
            };
            prop_assert_eq!(plan.grid.total_edges(), expected);
        }
    }

    #[test]
    fn simulated_time_is_deterministic_and_positive(
        kind in network(),
        dim in 8usize..300,
        nodes in 50usize..300,
        seed in 0u64..50,
    ) {
        let edges = generators::rmat(nodes, nodes * 4, seed).unwrap();
        let model = kind.build(dim, 16, 4, 1).unwrap();
        let sim = Simulator::new(GnneratorConfig::paper_default()).unwrap();
        let a = sim.simulate_edges(&model, &edges, "synthetic").unwrap();
        let b = sim.simulate_edges(&model, &edges, "synthetic").unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert!(a.total_cycles > 0);
        prop_assert!(a.dram_bytes() > 0);
        for layer in &a.layers {
            prop_assert!(layer.graph_engine_utilization() <= 1.0 + 1e-9);
            prop_assert!(layer.dense_engine_utilization() <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn doubling_bandwidth_never_hurts_random_workloads(
        kind in network(),
        dim in 8usize..300,
        nodes in 50usize..300,
        seed in 0u64..50,
    ) {
        let edges = generators::rmat(nodes, nodes * 4, seed).unwrap();
        let model = kind.build(dim, 16, 4, 1).unwrap();
        let base = Simulator::new(GnneratorConfig::paper_default()).unwrap();
        let fast = Simulator::new(GnneratorConfig::paper_default().with_double_feature_bandwidth())
            .unwrap();
        let slow = base.simulate_edges(&model, &edges, "synthetic").unwrap();
        let quick = fast.simulate_edges(&model, &edges, "synthetic").unwrap();
        prop_assert!(quick.total_cycles <= slow.total_cycles);
    }

    #[test]
    fn wider_features_never_run_faster(
        kind in network(),
        dim in 16usize..200,
        nodes in 50usize..200,
        seed in 0u64..50,
    ) {
        let edges = generators::rmat(nodes, nodes * 3, seed).unwrap();
        let sim = Simulator::new(GnneratorConfig::paper_default()).unwrap();
        let narrow_model = kind.build(dim, 16, 4, 1).unwrap();
        let wide_model = kind.build(dim * 2, 16, 4, 1).unwrap();
        let narrow = sim.simulate_edges(&narrow_model, &edges, "synthetic").unwrap();
        let wide = sim.simulate_edges(&wide_model, &edges, "synthetic").unwrap();
        prop_assert!(wide.total_cycles >= narrow.total_cycles);
    }

    #[test]
    fn analytical_traffic_is_within_a_small_factor_of_simulation(
        dim in 64usize..500,
        nodes in 100usize..500,
        seed in 0u64..50,
    ) {
        use gnnerator::analysis;
        let edges = generators::rmat(nodes, nodes * 4, seed).unwrap();
        let model = NetworkKind::Gcn.build(dim, 16, 4, 1).unwrap();
        let compiler = Compiler::new(
            GnneratorConfig::paper_default(),
            DataflowConfig::paper_default(),
        )
        .unwrap();
        let program = compiler.compile(&model, &edges).unwrap();
        let estimate = analysis::estimate_traffic(&program);
        let report = Simulator::new(GnneratorConfig::paper_default())
            .unwrap()
            .simulate_edges(&model, &edges, "synthetic")
            .unwrap();
        let ratio = report.dram_bytes() as f64 / estimate.total_bytes() as f64;
        prop_assert!((0.4..=2.5).contains(&ratio), "ratio {ratio}");
    }
}
