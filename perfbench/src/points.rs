//! The three workloads' inputs: which scenario points each evaluates, in
//! which seeded order, and the `/simulate` body that names each point.

use crate::sys::{Digest, SplitMix64};
use gnnerator::{BackendKind, DataflowConfig, GnneratorConfig, ScenarioResult, ScenarioSpec};
use gnnerator_gnn::NetworkKind;
use gnnerator_graph::datasets::DatasetKind;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ProductsRestart,
    DesignSweep,
    ServeClosed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ProductsRestart,
        Workload::DesignSweep,
        Workload::ServeClosed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ProductsRestart => "products-restart",
            Workload::DesignSweep => "design-sweep",
            Workload::ServeClosed => "serve-closed",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's scenario points, in grid order. Set-ups and restarts
    /// evaluate them in this order, so what they allocate, and when, does
    /// not depend on the seed's shuffle.
    pub fn points(self, seed: u64) -> Vec<Point> {
        match self {
            Workload::ProductsRestart => products_points(seed),
            Workload::DesignSweep => design_points(seed),
            Workload::ServeClosed => serve_points(seed),
        }
    }
}

/// The seeded order in which timed loops cycle through `len` points.
pub fn loop_order(seed: u64, len: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    SplitMix64::new(seed).shuffle(&mut order);
    order
}

/// One scenario point and the `/simulate` request body that decodes to it.
#[derive(Debug, Clone)]
pub struct Point {
    pub scenario: ScenarioSpec,
    pub body: String,
}

/// Scale of the ogbn-products spec in `products-restart` (~240k vertices,
/// ~6M edges): large enough that the graph layers dominate, small enough
/// for a cold build of about ten seconds.
const PRODUCTS_SCALE: f64 = 0.1;

/// The accelerator dataflows of the repository's sweep grid: B = 64, 32, 128
/// and the conventional dataflow (`None`).
const SWEEP_BLOCKS: [Option<usize>; 4] = [Some(64), Some(32), Some(128), None];

/// Figure 4's block sizes plus the conventional dataflow.
const FIGURE4_BLOCKS: [Option<usize>; 8] = [
    Some(32),
    Some(64),
    Some(128),
    Some(256),
    Some(1024),
    Some(2048),
    Some(4096),
    None,
];

/// Figure 5's hidden dimensions.
const FIGURE5_HIDDEN: [usize; 3] = [16, 128, 1024];

const BASELINES: [BackendKind; 2] = [BackendKind::GpuRoofline, BackendKind::Hygcn];

#[allow(clippy::too_many_arguments)]
fn point(
    kind: DatasetKind,
    scale: Option<f64>,
    seed: u64,
    network: NetworkKind,
    hidden_dim: usize,
    block: Option<usize>,
    backend: BackendKind,
) -> Point {
    let spec = match scale {
        Some(scale) => kind.spec().scaled(scale),
        None => kind.spec(),
    };
    let dataflow = match block {
        Some(b) => DataflowConfig::blocked(b),
        None => DataflowConfig::conventional(),
    };
    let scenario = ScenarioSpec::new(
        network,
        spec,
        seed + kind.seed_offset(),
        hidden_dim,
        kind.num_classes(),
        GnneratorConfig::paper_default(),
        dataflow,
    )
    .with_backend(backend);
    let mut body = format!(
        "{{\"dataset\": \"{}\", \"network\": \"{}\", \"backend\": \"{}\", \"seed\": {}, \"hidden_dim\": {}",
        kind.spec().name,
        network.short_name(),
        backend.as_str(),
        scenario.seed,
        hidden_dim,
    );
    if let Some(scale) = scale {
        body.push_str(&format!(", \"scale\": {scale}"));
    }
    match block {
        Some(b) => body.push_str(&format!(
            ", \"dataflow\": \"blocked\", \"block_size\": {b}}}"
        )),
        None => body.push_str(", \"dataflow\": \"conventional\"}"),
    }
    Point { scenario, body }
}

fn products_points(seed: u64) -> Vec<Point> {
    let kind = DatasetKind::OgbnProductsScale;
    let scale = Some(PRODUCTS_SCALE);
    let mut points: Vec<Point> = SWEEP_BLOCKS
        .iter()
        .map(|&b| {
            point(
                kind,
                scale,
                seed,
                NetworkKind::Gcn,
                16,
                b,
                BackendKind::Gnnerator,
            )
        })
        .collect();
    points.extend(
        BASELINES
            .iter()
            .map(|&backend| point(kind, scale, seed, NetworkKind::Gcn, 16, Some(64), backend)),
    );
    points
}

fn design_points(seed: u64) -> Vec<Point> {
    let mut points = Vec::new();
    for kind in DatasetKind::ALL {
        for network in NetworkKind::ALL {
            for hidden in FIGURE5_HIDDEN {
                for block in FIGURE4_BLOCKS {
                    points.push(point(
                        kind,
                        None,
                        seed,
                        network,
                        hidden,
                        block,
                        BackendKind::Gnnerator,
                    ));
                }
                for backend in BASELINES {
                    points.push(point(kind, None, seed, network, hidden, Some(64), backend));
                }
            }
        }
    }
    points
}

fn serve_points(seed: u64) -> Vec<Point> {
    let mut points = Vec::new();
    for kind in DatasetKind::ALL {
        for network in [NetworkKind::Gcn, NetworkKind::Graphsage] {
            for block in SWEEP_BLOCKS {
                for backend in BackendKind::ALL {
                    points.push(point(kind, None, seed, network, 16, block, backend));
                }
            }
        }
    }
    points
}

/// Digest of every simulated statistic of one result: the evaluation, the
/// attached baseline estimates and the cycle-level report. Wall-clock and
/// memory telemetry are left out, so equal digests mean bit-identical
/// model outputs.
pub fn fingerprint(result: &ScenarioResult) -> u64 {
    let mut d = Digest::default();
    d.str(&result.scenario.label())
        .str(&result.evaluation.platform)
        .f64(result.evaluation.seconds)
        .opt_u64(result.evaluation.total_cycles)
        .opt_u64(result.evaluation.dram_bytes)
        .u64(result.num_nodes as u64)
        .u64(result.num_edges as u64);
    for &s in &result.evaluation.layer_seconds {
        d.f64(s);
    }
    if let Some(b) = result.baseline_seconds {
        d.f64(b.gpu).f64(b.hygcn);
    }
    if let Some(report) = &result.report {
        d.u64(report.total_cycles);
        for layer in &report.layers {
            d.u64(layer.cycles)
                .u64(layer.graph_engine_busy)
                .u64(layer.dense_engine_busy)
                .u64(layer.inter_engine_stall)
                .u64(layer.dram_read_bytes)
                .u64(layer.dram_write_bytes)
                .u64(layer.grid_dim as u64)
                .u64(layer.block_size as u64)
                .u64(layer.num_blocks as u64)
                .u64(layer.nodes_per_shard as u64)
                .u64(layer.occupied_shards as u64);
        }
    }
    d.finish()
}

/// One digest over a point set's fingerprints, in canonical (label) order.
pub fn set_digest(points: &[Point], fingerprints: &[u64]) -> u64 {
    let mut keyed: Vec<(String, u64)> = points
        .iter()
        .zip(fingerprints)
        .map(|(p, &f)| (p.body.clone(), f))
        .collect();
    keyed.sort();
    let mut d = Digest::default();
    for (body, f) in keyed {
        d.str(&body).u64(f);
    }
    d.finish()
}

/// Total simulated cycles over a result set (accelerator points only).
pub fn total_cycles(results: &[ScenarioResult]) -> u64 {
    results
        .iter()
        .filter_map(|r| r.evaluation.total_cycles)
        .sum()
}
