//! Cross-crate correctness tests: the accelerator's functional execution of
//! the compiled, feature-blocked dataflow must agree with the mathematical
//! reference executor on every network, dataset shape and block size.
//!
//! This is the reproduction's answer to "is Algorithm 1 a legal re-ordering
//! of the GNN computation": the timing model and the functional model share
//! the compiler and shard grids, so agreement here validates the dataflow the
//! timing results are based on.

use gnnerator::{functional, DataflowConfig, GnneratorConfig};
use gnnerator_gnn::{reference, NetworkKind};
use gnnerator_graph::datasets::DatasetKind;
use gnnerator_graph::{generators, CsrGraph, NodeFeatures};
use proptest::prelude::*;

fn assert_matches_reference(
    kind: NetworkKind,
    dataflow: DataflowConfig,
    edges: &gnnerator_graph::EdgeList,
    input: &NodeFeatures,
    out_dim: usize,
) {
    let model = kind.build(input.dim(), 12, out_dim, 1).unwrap();
    let blocked = functional::execute_blocked(
        &model,
        edges,
        input,
        &GnneratorConfig::paper_default(),
        &dataflow,
    )
    .unwrap();
    let expected = reference::execute(&model, &CsrGraph::from_edge_list(edges), input).unwrap();
    let diff = blocked.max_abs_diff(&expected).unwrap();
    assert!(diff < 2e-3, "{kind} with {dataflow}: max abs diff {diff}");
}

#[test]
fn blocked_execution_matches_reference_on_scaled_paper_datasets() {
    for kind in NetworkKind::ALL {
        for dataset_kind in DatasetKind::ALL {
            // Tiny graphs with the real feature dimensionality kept small so
            // the O(n * d) reference stays fast.
            let spec = dataset_kind.spec().scaled(0.01).with_feature_dim(37);
            let dataset = spec.synthesize(13).unwrap();
            assert_matches_reference(
                kind,
                DataflowConfig::paper_default(),
                &dataset.edge_list,
                &spec.features(13),
                5,
            );
        }
    }
}

#[test]
fn conventional_and_blocked_dataflows_agree_with_each_other() {
    let edges = generators::rmat(120, 500, 21).unwrap();
    let features = NodeFeatures::from_fn(120, 48, |v, d| ((v * 7 + d * 3) % 19) as f32 * 0.1 - 0.9);
    for kind in NetworkKind::ALL {
        let model = kind.build(48, 16, 4, 1).unwrap();
        let config = GnneratorConfig::paper_default();
        let conventional = functional::execute_blocked(
            &model,
            &edges,
            &features,
            &config,
            &DataflowConfig::conventional(),
        )
        .unwrap();
        let blocked = functional::execute_blocked(
            &model,
            &edges,
            &features,
            &config,
            &DataflowConfig::blocked(16),
        )
        .unwrap();
        assert!(
            conventional.approx_eq(&blocked, 1e-3),
            "{kind}: dataflows disagree"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn blocked_execution_matches_reference_on_random_graphs(
        n in 20usize..80,
        dim in 4usize..40,
        block in 1usize..50,
        seed in 0u64..500,
    ) {
        let edges = generators::rmat(n, n * 4, seed).unwrap();
        let features = NodeFeatures::from_fn(n, dim, |v, d| {
            ((v * 31 + d * 17 + seed as usize) % 23) as f32 * 0.08 - 0.8
        });
        for kind in NetworkKind::ALL {
            let model = kind.build(dim, 8, 3, 1).unwrap();
            let blocked = functional::execute_blocked(
                &model,
                &edges,
                &features,
                &GnneratorConfig::paper_default(),
                &DataflowConfig::blocked(block),
            )
            .unwrap();
            let expected =
                reference::execute(&model, &CsrGraph::from_edge_list(&edges), &features).unwrap();
            let diff = blocked.max_abs_diff(&expected).unwrap();
            prop_assert!(diff < 2e-3, "{} B={}: diff {}", kind, block, diff);
        }
    }

    #[test]
    fn shard_traversal_order_does_not_change_results(
        n in 20usize..60,
        seed in 0u64..200,
    ) {
        use gnnerator_graph::TraversalOrder;
        let edges = generators::rmat(n, n * 3, seed).unwrap();
        let features = NodeFeatures::from_fn(n, 24, |v, d| ((v + d * 5) % 11) as f32 * 0.2 - 1.0);
        let model = NetworkKind::Gcn.build(24, 8, 3, 1).unwrap();
        let config = GnneratorConfig::paper_default();
        let dst = functional::execute_blocked(
            &model, &edges, &features, &config,
            &DataflowConfig::blocked(8).with_traversal(TraversalOrder::DestinationStationary),
        ).unwrap();
        let src = functional::execute_blocked(
            &model, &edges, &features, &config,
            &DataflowConfig::blocked(8).with_traversal(TraversalOrder::SourceStationary),
        ).unwrap();
        prop_assert!(dst.approx_eq(&src, 1e-4));
    }
}
