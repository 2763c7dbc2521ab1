//! Golden regression tests for the sparse shard-grid refactor.
//!
//! The occupancy-aware simulator must produce **bit-identical** reports to
//! the dense-grid simulator it replaced: empty shards were provably no-ops
//! in the shard pipeline, so skipping them may change nothing. The constants
//! below were captured from the dense-`Vec<Shard>` implementation (the seed
//! of this refactor) and pin total cycles plus DRAM read/write bytes for
//! every Table II dataset under three dataflows, and for a synthetic
//! multi-shard graph (`S = 8`, partially occupied) under both traversal
//! orders.

use gnnerator::{DataflowConfig, GnneratorConfig, SimSession, Simulator};
use gnnerator_gnn::NetworkKind;
use gnnerator_graph::datasets::DatasetKind;
use gnnerator_graph::{generators, TraversalOrder};

fn network(short: &str) -> NetworkKind {
    NetworkKind::ALL
        .into_iter()
        .find(|n| n.short_name() == short)
        .unwrap_or_else(|| panic!("unknown network {short}"))
}

fn dataflow(name: &str) -> DataflowConfig {
    match name {
        "b16" => DataflowConfig::blocked(16),
        "b32" => DataflowConfig::blocked(32),
        "b64" => DataflowConfig::blocked(64),
        "conv" => DataflowConfig::conventional(),
        "conv-src" => {
            DataflowConfig::conventional().with_traversal(TraversalOrder::SourceStationary)
        }
        other => panic!("unknown dataflow {other}"),
    }
}

/// Golden values from the pre-refactor dense-grid simulator: all Table II
/// datasets (scale 0.05, seed 42) x all networks x three dataflows.
/// Columns: dataset, network, dataflow, total_cycles, read_bytes, write_bytes.
const TABLE2_GOLDENS: &[(&str, &str, &str, u64, u64, u64)] = &[
    ("cora", "gcn", "b64", 9346, 1001916, 12420),
    ("cora", "gcn", "b32", 17208, 1118604, 12420),
    ("cora", "gcn", "conv", 10594, 885228, 12420),
    ("cora", "gsage", "b64", 19276, 1876536, 24840),
    ("cora", "gsage", "b32", 27138, 1993224, 24840),
    ("cora", "gsage", "conv", 20524, 1759848, 24840),
    ("cora", "gsage-max", "b64", 196010, 10873976, 807300),
    ("cora", "gsage-max", "b32", 203872, 10990664, 807300),
    ("cora", "gsage-max", "conv", 197258, 10757288, 807300),
    ("citeseer", "gcn", "b64", 24422, 2999968, 15272),
    ("citeseer", "gcn", "b32", 47063, 3288112, 15272),
    ("citeseer", "gcn", "conv", 29531, 2716792, 15272),
    ("citeseer", "gsage", "b64", 52486, 5706824, 30544),
    ("citeseer", "gsage", "b32", 75127, 5994968, 30544),
    ("citeseer", "gsage", "conv", 57595, 5423648, 30544),
    ("citeseer", "gsage-max", "b64", 1268817, 63026100, 2499960),
    ("citeseer", "gsage-max", "b32", 1291458, 63314244, 2499960),
    ("citeseer", "gsage-max", "conv", 1273926, 62742924, 2499960),
    ("pubmed", "gcn", "b64", 14298, 2457648, 90712),
    ("pubmed", "gcn", "b32", 22511, 2804400, 90712),
    ("pubmed", "gcn", "conv", 21758, 2154240, 90712),
    ("pubmed", "gsage", "b64", 32939, 4525200, 181424),
    ("pubmed", "gsage", "b32", 41152, 4871952, 181424),
    ("pubmed", "gsage", "conv", 40399, 4221792, 181424),
    ("pubmed", "gsage-max", "b64", 125231, 7561328, 2216528),
    ("pubmed", "gsage-max", "b32", 133444, 7908080, 2216528),
    ("pubmed", "gsage-max", "conv", 132691, 7257920, 2216528),
];

#[test]
fn table2_reports_are_bit_identical_to_the_dense_grid_simulator() {
    let config = GnneratorConfig::paper_default();
    for kind in DatasetKind::ALL {
        let dataset = kind.spec().scaled(0.05).synthesize(42).unwrap();
        for net in ["gcn", "gsage", "gsage-max"] {
            let model = network(net)
                .build_paper_config(dataset.spec.feature_dim, 7)
                .unwrap();
            let session = SimSession::new(model, &dataset).unwrap();
            for df in ["b64", "b32", "conv"] {
                let golden = TABLE2_GOLDENS
                    .iter()
                    .find(|g| g.0 == kind.to_string() && g.1 == net && g.2 == df)
                    .unwrap();
                let report = session.simulate(&config, dataflow(df)).unwrap();
                assert_eq!(
                    (
                        report.total_cycles,
                        report.dram_read_bytes(),
                        report.dram_write_bytes(),
                    ),
                    (golden.3, golden.4, golden.5),
                    "{kind}-{net}/{df} diverged from the dense-grid simulator"
                );
            }
        }
    }
}

/// Golden values for a synthetic graph whose conventional-dataflow grid is
/// 8x8 and partially occupied, exercising the occupancy-aware walk under
/// both traversal orders. Columns: network, dataflow, total_cycles,
/// read_bytes, write_bytes, layer-0 grid dim.
const MULTI_SHARD_GOLDENS: &[(&str, &str, u64, u64, u64, usize)] = &[
    ("gcn", "conv", 645654, 103848436, 72000, 8),
    ("gcn", "conv-src", 1424526, 185743984, 102896904, 8),
    ("gcn", "b16", 750871, 72364872, 72000, 1),
    ("gsage", "conv", 1055560, 148995412, 144000, 8),
    ("gsage", "conv-src", 1834432, 230890960, 102968904, 8),
    ("gsage", "b16", 1106487, 116889744, 144000, 1),
    ("gsage-max", "conv", 16600462, 632222100, 44580000, 8),
    ("gsage-max", "conv-src", 17379334, 714117648, 147404904, 8),
    ("gsage-max", "b16", 12183862, 216174580, 44580000, 1),
];

#[test]
fn multi_shard_grids_are_bit_identical_under_both_traversal_orders() {
    let edges = generators::rmat_exact(3000, 12000, 9).unwrap();
    for &(net, df, cycles, reads, writes, grid_dim) in MULTI_SHARD_GOLDENS {
        let model = network(net).build(3703, 16, 6, 0).unwrap();
        let sim = Simulator::with_dataflow(GnneratorConfig::paper_default(), dataflow(df)).unwrap();
        let report = sim.simulate_edges(&model, &edges, "rmat3000").unwrap();
        assert_eq!(report.layers[0].grid_dim, grid_dim, "{net}/{df}");
        assert!(
            grid_dim == 1 || report.shard_occupancy() < 1.0,
            "{net}/{df}: the multi-shard grid should have empty cells to skip"
        );
        assert_eq!(
            (
                report.total_cycles,
                report.dram_read_bytes(),
                report.dram_write_bytes(),
            ),
            (cycles, reads, writes),
            "{net}/{df} diverged from the dense-grid simulator"
        );
    }
}
