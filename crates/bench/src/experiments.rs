//! Assembles the paper's tables and figures from scenario sweeps.
//!
//! Every figure/table follows the same shape: enumerate [`ScenarioSpec`]
//! points, execute them as **one parallel batch** through the context's
//! [`SweepRunner`](gnnerator::SweepRunner), then fold the ordered results
//! into rows. Each function returns plain data (rows of labels and numbers)
//! plus a formatted [`Table`] so the harness binaries and the integration
//! tests share one implementation.

use crate::rows::{format_speedup, geomean, Table};
use crate::suite::{full_suite, SuiteContext, Workload, WorkloadResult};
use gnnerator::{cost, BackendKind, DataflowConfig, GnneratorConfig, GnneratorError, ScenarioSpec};
use gnnerator_gnn::NetworkKind;
use gnnerator_graph::datasets::DatasetKind;

/// One bar group of Figure 3: speedups over the GPU baseline for a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure3Row {
    /// Workload label (`cora-gcn`, ...).
    pub label: String,
    /// Speedup of GNNerator (with feature blocking) over the GPU.
    pub gnnerator: f64,
    /// Speedup of GNNerator without feature blocking over the GPU.
    pub without_blocking: f64,
}

/// Figure 3: normalized speedup over the RTX 2080 Ti for the nine-benchmark
/// suite, for GNNerator with and without feature-dimension blocking.
///
/// Returns the per-workload rows (in the paper's order) followed by the
/// geometric means, matching the figure's final `Gmean` group.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn figure3(ctx: &SuiteContext) -> Result<(Vec<Figure3Row>, f64, f64), GnneratorError> {
    let mut rows = Vec::new();
    for result in ctx.run_suite()? {
        rows.push(Figure3Row {
            label: result.workload.label(),
            gnnerator: result.speedup_blocked_vs_gpu(),
            without_blocking: result.speedup_unblocked_vs_gpu(),
        });
    }
    let gm_blocked = geomean(&rows.iter().map(|r| r.gnnerator).collect::<Vec<_>>());
    let gm_unblocked = geomean(&rows.iter().map(|r| r.without_blocking).collect::<Vec<_>>());
    Ok((rows, gm_blocked, gm_unblocked))
}

/// Formats Figure 3 as a text table.
pub fn figure3_table(rows: &[Figure3Row], gm_blocked: f64, gm_unblocked: f64) -> Table {
    let mut table = Table::new(
        &format!(
            "Figure 3: speedup over the {} baseline (RTX 2080 Ti)",
            BackendKind::GpuRoofline
        ),
        &["benchmark", "GNNerator", "GNNerator w/o blocking"],
    );
    for row in rows {
        table.add_row(vec![
            row.label.clone(),
            format_speedup(row.gnnerator),
            format_speedup(row.without_blocking),
        ]);
    }
    table.add_row(vec![
        "Gmean".to_string(),
        format_speedup(gm_blocked),
        format_speedup(gm_unblocked),
    ]);
    table
}

/// One row of Table V: speedup over HyGCN for GCN on one dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Table5Row {
    /// Dataset name.
    pub dataset: String,
    /// Speedup of GNNerator without blocking over HyGCN.
    pub without_blocking: f64,
    /// Speedup of GNNerator with blocking over HyGCN.
    pub with_blocking: f64,
}

/// Table V: speedups of GNNerator over HyGCN for GCN on the three datasets,
/// read straight off the unified sweep's speedup columns (every accelerator
/// point carries its HyGCN baseline seconds).
///
/// # Errors
///
/// Propagates simulation errors.
pub fn table5(ctx: &SuiteContext) -> Result<Vec<Table5Row>, GnneratorError> {
    let workloads: Vec<Workload> = DatasetKind::ALL
        .into_iter()
        .map(|dataset| Workload::new(dataset, NetworkKind::Gcn))
        .collect();
    let scenarios: Vec<ScenarioSpec> = workloads
        .iter()
        .flat_map(|w| {
            [
                ctx.scenario(w, ctx.options().config.clone(), ctx.blocked_dataflow()),
                ctx.scenario(
                    w,
                    ctx.options().config.clone(),
                    DataflowConfig::conventional(),
                ),
            ]
        })
        .collect();
    let results = ctx.run_scenarios(&scenarios)?;
    workloads
        .iter()
        .zip(results.chunks_exact(2))
        .map(|(workload, pair)| {
            let column = |r: &gnnerator::ScenarioResult| {
                r.speedup_vs_hygcn()
                    .expect("accelerator points carry baseline columns")
            };
            Ok(Table5Row {
                dataset: workload.dataset.to_string(),
                with_blocking: column(&pair[0]),
                without_blocking: column(&pair[1]),
            })
        })
        .collect()
}

/// Formats Table V as a text table.
pub fn table5_table(rows: &[Table5Row]) -> Table {
    let mut table = Table::new(
        &format!(
            "Table V: speedup of {} over the {} baseline (GCN)",
            BackendKind::Gnnerator,
            BackendKind::Hygcn
        ),
        &["configuration", "cora", "citeseer", "pubmed"],
    );
    let pick = |f: &dyn Fn(&Table5Row) -> f64| -> Vec<String> {
        rows.iter().map(|r| format_speedup(f(r))).collect()
    };
    let without = pick(&|r| r.without_blocking);
    let with = pick(&|r| r.with_blocking);
    let mut row = vec!["GNNerator w/o blocking".to_string()];
    row.extend(without);
    table.add_row(row);
    let mut row = vec!["GNNerator".to_string()];
    row.extend(with);
    table.add_row(row);
    table
}

/// One bar of Figure 4: geometric-mean slowdown (relative to `B = 64`) of a
/// block size over the whole suite.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure4Row {
    /// The feature-block size.
    pub block_size: usize,
    /// Geometric-mean slowdown relative to the `B = 64` baseline (1.0 means
    /// identical performance, larger is worse).
    pub slowdown: f64,
}

/// The block sizes swept in Figure 4.
pub const FIGURE4_BLOCK_SIZES: [usize; 7] = [32, 64, 128, 256, 1024, 2048, 4096];

/// Figure 4: slowdown of each block size relative to `B = 64`, averaged
/// (geometric mean) over the nine-benchmark suite.
///
/// The baseline and every swept block size run as one parallel batch.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn figure4(
    ctx: &SuiteContext,
    block_sizes: &[usize],
) -> Result<Vec<Figure4Row>, GnneratorError> {
    let suite = full_suite();
    let config = ctx.options().config.clone();
    // One batch: the B = 64 baseline for every workload, then every swept
    // block size for every workload.
    let mut scenarios: Vec<ScenarioSpec> = suite
        .iter()
        .map(|w| ctx.scenario(w, config.clone(), DataflowConfig::blocked(64)))
        .collect();
    for &b in block_sizes {
        for w in &suite {
            scenarios.push(ctx.scenario(w, config.clone(), DataflowConfig::blocked(b)));
        }
    }
    let results = ctx.run_scenarios(&scenarios)?;
    let (baseline, swept) = results.split_at(suite.len());

    let mut rows = Vec::new();
    for (i, &b) in block_sizes.iter().enumerate() {
        let chunk = &swept[i * suite.len()..(i + 1) * suite.len()];
        let ratios: Vec<f64> = chunk
            .iter()
            .zip(baseline)
            .map(|(run, base)| accelerator_cycles(run) / accelerator_cycles(base))
            .collect();
        rows.push(Figure4Row {
            block_size: b,
            slowdown: geomean(&ratios),
        });
    }
    Ok(rows)
}

/// Formats Figure 4 as a text table.
pub fn figure4_table(rows: &[Figure4Row]) -> Table {
    let mut table = Table::new(
        "Figure 4: slowdown vs block size (relative to B = 64)",
        &["block size B", "slowdown"],
    );
    for row in rows {
        table.add_row(vec![
            format!("B={}", row.block_size),
            format!("{:.2}x", row.slowdown),
        ]);
    }
    table
}

/// One bar group of Figure 5: speedups of the three scaled next-generation
/// configurations over baseline GNNerator for one dataset / hidden-dimension
/// pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure5Row {
    /// Label in the paper's style (`Cora-16`, `Pubmed-1024`, ...).
    pub label: String,
    /// Speedup from doubling the Graph Engine's on-chip memory.
    pub more_graph_memory: f64,
    /// Speedup from doubling the Dense Engine's dimensions.
    pub more_dense_compute: f64,
    /// Speedup from doubling the feature-memory bandwidth.
    pub more_bandwidth: f64,
}

/// The hidden dimensions swept in Figure 5.
pub const FIGURE5_HIDDEN_DIMS: [usize; 3] = [16, 128, 1024];

/// Figure 5: where to invest additional hardware. For every dataset and
/// hidden dimension, the speedup of each scaled configuration over the
/// baseline GNNerator (all using the blocked dataflow).
///
/// All 36 scenario points (3 datasets × 3 hidden dimensions × 4
/// configurations) execute as one parallel batch.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn figure5(ctx: &SuiteContext) -> Result<(Vec<Figure5Row>, [f64; 3]), GnneratorError> {
    let base_config = ctx.options().config.clone();
    let scaled = [
        base_config.with_double_graph_memory(),
        base_config.with_double_dense_compute(),
        base_config.with_double_feature_bandwidth(),
    ];
    let dataflow = ctx.blocked_dataflow();

    // Enumerate: for every (hidden, dataset), the baseline then the three
    // scaled configurations.
    let mut scenarios = Vec::new();
    let mut labels = Vec::new();
    for &hidden in &FIGURE5_HIDDEN_DIMS {
        let swept = ctx.with_hidden_dim(hidden);
        for dataset in DatasetKind::ALL {
            let workload = Workload::new(dataset, NetworkKind::Gcn);
            labels.push(format!("{}-{}", capitalise(dataset.to_string()), hidden));
            scenarios.push(swept.scenario(&workload, base_config.clone(), dataflow));
            for config in &scaled {
                scenarios.push(swept.scenario(&workload, config.clone(), dataflow));
            }
        }
    }
    let results = ctx.run_scenarios(&scenarios)?;

    let mut rows = Vec::new();
    let mut ratios: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for (label, group) in labels.into_iter().zip(results.chunks_exact(4)) {
        let baseline = accelerator_cycles(&group[0]);
        let mut speedups = [0.0; 3];
        for (i, run) in group[1..].iter().enumerate() {
            speedups[i] = baseline / accelerator_cycles(run);
            ratios[i].push(speedups[i]);
        }
        rows.push(Figure5Row {
            label,
            more_graph_memory: speedups[0],
            more_dense_compute: speedups[1],
            more_bandwidth: speedups[2],
        });
    }
    let gmeans = [
        geomean(&ratios[0]),
        geomean(&ratios[1]),
        geomean(&ratios[2]),
    ];
    Ok((rows, gmeans))
}

/// Formats Figure 5 as a text table.
pub fn figure5_table(rows: &[Figure5Row], gmeans: &[f64; 3]) -> Table {
    let mut table = Table::new(
        "Figure 5: scaling GNNerator (speedup over baseline)",
        &[
            "configuration",
            "more graph memory",
            "more dense compute",
            "more bandwidth",
        ],
    );
    for row in rows {
        table.add_row(vec![
            row.label.clone(),
            format_speedup(row.more_graph_memory),
            format_speedup(row.more_dense_compute),
            format_speedup(row.more_bandwidth),
        ]);
    }
    table.add_row(vec![
        "Gmean".to_string(),
        format_speedup(gmeans[0]),
        format_speedup(gmeans[1]),
        format_speedup(gmeans[2]),
    ]);
    table
}

/// Table I evaluated at representative grid sizes, as a text table.
pub fn table1_table() -> Table {
    let rows = cost::evaluate_table(&[2, 4, 8, 16], &[1, 4, 16, 64]);
    let mut table = Table::new(
        "Table I: analytical shard-dataflow costs",
        &[
            "S",
            "I",
            "SRC-stationary (reads/writes)",
            "DST-stationary (reads/writes)",
            "preferred",
        ],
    );
    for row in rows {
        table.add_row(vec![
            row.s.to_string(),
            row.i.to_string(),
            format!(
                "{} / {}",
                row.src_stationary.reads, row.src_stationary.writes
            ),
            format!(
                "{} / {}",
                row.dst_stationary.reads, row.dst_stationary.writes
            ),
            row.preferred.to_string(),
        ]);
    }
    table
}

/// Table II (dataset statistics) as a text table, for the sanity block the
/// harness binaries print.
pub fn table2_table() -> Table {
    let mut table = Table::new(
        "Table II: graph datasets",
        &["dataset", "vertices", "edges", "feature dim", "size"],
    );
    for kind in DatasetKind::ALL {
        let spec = kind.spec();
        table.add_row(vec![
            spec.name.to_string(),
            spec.vertices.to_string(),
            spec.edges.to_string(),
            spec.feature_dim.to_string(),
            format!("{:.1} MB", spec.feature_megabytes()),
        ]);
    }
    table
}

/// Table IV (compute platforms) as a text table.
pub fn table4_table() -> Table {
    let gnnerator = GnneratorConfig::paper_default();
    let mut table = Table::new(
        "Table IV: compute platforms",
        &[
            "platform",
            "peak compute",
            "on-chip memory",
            "off-chip bandwidth",
        ],
    );
    table.add_row(vec![
        "RTX 2080 Ti".to_string(),
        "13 TFLOPs".to_string(),
        "29.5 MiB".to_string(),
        "616 GB/s".to_string(),
    ]);
    table.add_row(vec![
        "GNNerator".to_string(),
        format!("{:.1} TFLOPs", gnnerator.peak_tflops()),
        format!("{} MiB", gnnerator.total_onchip_bytes() / (1024 * 1024)),
        format!("{} GB/s", gnnerator.dram.bandwidth_gb_s),
    ]);
    table.add_row(vec![
        "HyGCN".to_string(),
        "9 TFLOPs".to_string(),
        "24 MiB".to_string(),
        "256 GB/s".to_string(),
    ]);
    table
}

/// Runs the complete nine-benchmark suite and returns the raw results (used
/// by the `all_experiments` binary for its summary dump).
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run_full_suite(ctx: &SuiteContext) -> Result<Vec<WorkloadResult>, GnneratorError> {
    ctx.run_suite()
}

/// Total cycles of an accelerator scenario result (the figures' grids only
/// enumerate simulated points).
fn accelerator_cycles(result: &gnnerator::ScenarioResult) -> f64 {
    result
        .report
        .as_ref()
        .expect("figure grids enumerate accelerator points only")
        .total_cycles as f64
}

fn capitalise(s: String) -> String {
    let mut chars = s.chars();
    match chars.next() {
        Some(first) => first.to_uppercase().collect::<String>() + chars.as_str(),
        None => s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::SuiteOptions;

    fn quick_context() -> SuiteContext {
        SuiteContext::materialize(&SuiteOptions::quick()).unwrap()
    }

    #[test]
    fn figure3_produces_nine_rows_and_positive_geomeans() {
        let ctx = quick_context();
        let (rows, gm_blocked, gm_unblocked) = figure3(&ctx).unwrap();
        assert_eq!(rows.len(), 9);
        assert!(gm_blocked > 0.0);
        assert!(gm_unblocked > 0.0);
        let table = figure3_table(&rows, gm_blocked, gm_unblocked);
        assert_eq!(table.num_rows(), 10);
        assert!(table.to_string().contains("Gmean"));
    }

    #[test]
    fn table5_covers_all_datasets() {
        let ctx = quick_context();
        let rows = table5(&ctx).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.with_blocking > 0.0));
        let table = table5_table(&rows);
        assert!(table.to_string().contains(BackendKind::Hygcn.as_str()));
    }

    #[test]
    fn table5_agrees_with_per_workload_runs() {
        let ctx = quick_context();
        let rows = table5(&ctx).unwrap();
        for (dataset, row) in DatasetKind::ALL.into_iter().zip(&rows) {
            let single = ctx
                .run_workload(&Workload::new(dataset, NetworkKind::Gcn))
                .unwrap();
            assert!((row.with_blocking - single.speedup_blocked_vs_hygcn()).abs() < 1e-12);
            assert!((row.without_blocking - single.speedup_unblocked_vs_hygcn()).abs() < 1e-12);
        }
    }

    #[test]
    fn figure4_baseline_block_size_has_unit_slowdown() {
        let ctx = quick_context();
        let rows = figure4(&ctx, &[32, 64, 128]).unwrap();
        assert_eq!(rows.len(), 3);
        let b64 = rows.iter().find(|r| r.block_size == 64).unwrap();
        assert!((b64.slowdown - 1.0).abs() < 1e-9);
        let table = figure4_table(&rows);
        assert!(table.to_string().contains("B=64"));
    }

    #[test]
    fn figure5_produces_nine_rows_with_sane_speedups() {
        let ctx = quick_context();
        let (rows, gmeans) = figure5(&ctx).unwrap();
        assert_eq!(rows.len(), 9);
        for row in &rows {
            for v in [
                row.more_graph_memory,
                row.more_dense_compute,
                row.more_bandwidth,
            ] {
                assert!(v > 0.3 && v < 10.0, "{}: {v}", row.label);
            }
        }
        assert!(gmeans.iter().all(|&g| g > 0.0));
        let table = figure5_table(&rows, &gmeans);
        assert!(table.to_string().contains("Cora-16"));
    }

    #[test]
    fn static_tables_render() {
        assert!(table1_table().to_string().contains("SRC-stationary"));
        assert!(table2_table().to_string().contains("2708"));
        assert!(table4_table().to_string().contains("GNNerator"));
    }
}
