//! Cross-crate integration tests: dataset synthesis → model construction →
//! compilation → cycle-level simulation → baselines, exercised the way the
//! examples and benchmark harness use the workspace.

use gnnerator::{Compiler, DataflowConfig, GnneratorConfig, Simulator};
use gnnerator_baselines::{GpuModel, HygcnModel};
use gnnerator_gnn::NetworkKind;
use gnnerator_graph::datasets::DatasetKind;
use gnnerator_graph::TraversalOrder;

fn tiny(kind: DatasetKind, seed: u64) -> gnnerator_graph::datasets::Dataset {
    kind.spec().scaled(0.05).synthesize(seed).unwrap()
}

#[test]
fn every_dataset_and_network_simulates_end_to_end() {
    let sim = Simulator::new(GnneratorConfig::paper_default()).unwrap();
    for kind in DatasetKind::ALL {
        let dataset = tiny(kind, 7);
        for network in NetworkKind::ALL {
            let model = network
                .build_paper_config(dataset.spec.feature_dim, 7)
                .unwrap();
            let report = sim.simulate(&model, &dataset).unwrap();
            assert!(report.total_cycles > 0, "{kind}/{network}");
            assert_eq!(report.layers.len(), 2);
            assert!(report.dram_bytes() > 0);
        }
    }
}

#[test]
fn compiled_program_structure_matches_the_model() {
    let dataset = tiny(DatasetKind::Cora, 3);
    let model = NetworkKind::GraphsagePool
        .build_paper_config(dataset.spec.feature_dim, 7)
        .unwrap();
    let compiler = Compiler::new(
        GnneratorConfig::paper_default(),
        DataflowConfig::paper_default(),
    )
    .unwrap();
    let program = compiler
        .compile(&model, dataset.edge_list().unwrap())
        .unwrap();
    assert_eq!(program.num_layers(), model.num_layers());
    assert_eq!(program.num_nodes, dataset.num_nodes());
    for plan in &program.layers {
        assert!(
            plan.pre_dense.is_some(),
            "GraphSAGE-Pool layers have a pooling MLP"
        );
        assert!(plan.post_dense.is_some());
        assert!(plan.aggregation.is_some());
        assert!(plan.block_size <= 64);
        assert!(plan.num_blocks * plan.block_size >= plan.aggregated_dim());
    }
}

#[test]
fn feature_blocking_helps_memory_bound_workloads() {
    // Citeseer (3703-dim features) is the paper's most memory-bound
    // workload: blocking must reduce both DRAM traffic and cycles once the
    // graph no longer fits on-chip under the conventional dataflow.
    let dataset = DatasetKind::Citeseer
        .spec()
        .scaled(0.6)
        .synthesize(11)
        .unwrap();
    let model = NetworkKind::Gcn
        .build_paper_config(dataset.spec.feature_dim, 6)
        .unwrap();
    let blocked = Simulator::new(GnneratorConfig::paper_default())
        .unwrap()
        .simulate(&model, &dataset)
        .unwrap();
    let conventional = Simulator::with_dataflow(
        GnneratorConfig::paper_default(),
        DataflowConfig::conventional(),
    )
    .unwrap()
    .simulate(&model, &dataset)
    .unwrap();
    assert!(
        conventional.layers[0].grid_dim > 1,
        "the conventional dataflow should need a multi-shard grid"
    );
    assert_eq!(
        blocked.layers[0].grid_dim, 1,
        "blocking should fit the graph on-chip"
    );
    assert!(blocked.dram_bytes() < conventional.dram_bytes());
    assert!(blocked.total_cycles < conventional.total_cycles);
}

#[test]
fn accelerator_beats_both_baselines_on_the_paper_workloads() {
    // The headline qualitative claim: GNNerator with feature blocking is
    // faster than the GPU and than HyGCN on every paper workload.
    for kind in DatasetKind::ALL {
        let dataset = kind.spec().scaled(0.4).synthesize(5).unwrap();
        let model = NetworkKind::Gcn
            .build_paper_config(dataset.spec.feature_dim, 7)
            .unwrap();
        let accel = Simulator::new(GnneratorConfig::paper_default())
            .unwrap()
            .simulate(&model, &dataset)
            .unwrap();
        let gpu =
            GpuModel::rtx_2080_ti().estimate(&model, dataset.num_nodes(), dataset.num_edges());
        let hygcn =
            HygcnModel::paper_default().estimate(&model, dataset.num_nodes(), dataset.num_edges());
        assert!(
            gpu.seconds > accel.seconds(),
            "{kind}: GPU {} s vs accelerator {} s",
            gpu.seconds,
            accel.seconds()
        );
        assert!(
            hygcn.seconds > accel.seconds(),
            "{kind}: HyGCN {} s vs accelerator {} s",
            hygcn.seconds,
            accel.seconds()
        );
    }
}

#[test]
fn scaled_configurations_never_slow_the_accelerator_down() {
    let dataset = tiny(DatasetKind::Pubmed, 9);
    let base_cfg = GnneratorConfig::paper_default();
    for hidden in [16usize, 256] {
        let model = NetworkKind::Gcn
            .build(dataset.spec.feature_dim, hidden, 3, 1)
            .unwrap();
        let base = Simulator::new(base_cfg.clone())
            .unwrap()
            .simulate(&model, &dataset)
            .unwrap();
        for scaled in [
            base_cfg.with_double_graph_memory(),
            base_cfg.with_double_dense_compute(),
            base_cfg.with_double_feature_bandwidth(),
        ] {
            let report = Simulator::new(scaled.clone())
                .unwrap()
                .simulate(&model, &dataset)
                .unwrap();
            // On this tiny 5%-scale graph the doubled systolic array's longer
            // fill/drain can cost a few percent, so allow a small tolerance;
            // the full-scale Figure 5 study (paper_claims.rs) requires >= 1.0.
            assert!(
                report.total_cycles <= base.total_cycles + base.total_cycles / 10,
                "{}: {} vs {}",
                scaled.name,
                report.total_cycles,
                base.total_cycles
            );
        }
    }
}

#[test]
fn traversal_order_choice_matches_the_analytical_model() {
    // The compiler's automatic order choice must agree with the Table I cost
    // model: destination-stationary for the conventional multi-shard grids.
    let dataset = DatasetKind::Citeseer
        .spec()
        .scaled(0.6)
        .synthesize(2)
        .unwrap();
    let model = NetworkKind::Gcn
        .build_paper_config(dataset.spec.feature_dim, 6)
        .unwrap();
    let compiler = Compiler::new(
        GnneratorConfig::paper_default(),
        DataflowConfig::conventional(),
    )
    .unwrap();
    let program = compiler
        .compile(&model, dataset.edge_list().unwrap())
        .unwrap();
    let layer0 = &program.layers[0];
    assert!(layer0.grid_dim() > 1);
    assert_eq!(layer0.traversal, TraversalOrder::DestinationStationary);
    assert_eq!(
        gnnerator::cost::choose_order(layer0.grid_dim() as u64, 1),
        TraversalOrder::DestinationStationary
    );
}

#[test]
fn reports_render_for_humans_and_tools() {
    let dataset = tiny(DatasetKind::Cora, 1);
    let model = NetworkKind::Gcn
        .build_paper_config(dataset.spec.feature_dim, 7)
        .unwrap();
    let report = Simulator::new(GnneratorConfig::paper_default())
        .unwrap()
        .simulate(&model, &dataset)
        .unwrap();
    // Human-readable display mentions the workload and per-layer rows.
    let text = report.to_string();
    assert!(text.contains("gcn"));
    assert!(text.contains("layer 0"));
    // Debug output exposes the raw fields downstream tooling reads.
    let debug = format!("{report:?}");
    assert!(debug.contains("total_cycles"));
    assert!(debug.contains("dram_read_bytes"));
}
