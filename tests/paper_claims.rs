//! Integration tests pinning the qualitative claims of the paper's evaluation
//! section on the full-size Table II datasets. The corresponding numeric
//! results are regenerated by the bench harness (`all_experiments`, which
//! writes `BENCH_sweep.json`).

use gnnerator_bench::experiments;
use gnnerator_bench::rows::geomean;
use gnnerator_bench::suite::{SuiteContext, SuiteOptions};
use std::sync::OnceLock;

fn context() -> &'static SuiteContext {
    // The claims are about the paper's full-size datasets: the on-chip-memory
    // versus working-set relationships that drive Figures 3-5 and Table V are
    // scale dependent, so these tests run the real Table II sizes. The
    // context is synthesised once and shared across tests.
    static CONTEXT: OnceLock<SuiteContext> = OnceLock::new();
    CONTEXT.get_or_init(|| {
        SuiteContext::materialize(&SuiteOptions::paper()).expect("dataset synthesis failed")
    })
}

#[test]
fn figure3_gnnerator_outperforms_the_gpu_on_every_benchmark() {
    let ctx = context();
    let (rows, gm_blocked, gm_unblocked) = experiments::figure3(ctx).unwrap();
    assert_eq!(rows.len(), 9);
    for row in &rows {
        assert!(
            row.gnnerator > 1.0,
            "{}: blocked GNNerator should beat the GPU ({}x)",
            row.label,
            row.gnnerator
        );
        assert!(
            row.without_blocking > 1.0,
            "{}: even unblocked GNNerator should beat the GPU ({}x)",
            row.label,
            row.without_blocking
        );
    }
    // The headline claim: feature blocking roughly doubles the geomean
    // speedup (paper: 4.2x -> 8.0x). Accept anything clearly above 1.3x.
    assert!(
        gm_blocked > 1.3 * gm_unblocked,
        "blocking should add a substantial geomean factor: {gm_blocked} vs {gm_unblocked}"
    );
    // And the absolute geomean should be in the right ballpark (several x).
    assert!(gm_blocked > 3.0, "geomean speedup {gm_blocked} too small");
}

#[test]
fn figure3_blocking_helps_every_gcn_and_graphsage_benchmark() {
    let ctx = context();
    let (rows, _, _) = experiments::figure3(ctx).unwrap();
    for row in rows.iter().filter(|r| !r.label.ends_with("gsage-max")) {
        assert!(
            row.gnnerator >= row.without_blocking,
            "{}: blocking should not hurt ({} vs {})",
            row.label,
            row.gnnerator,
            row.without_blocking
        );
    }
}

#[test]
fn table5_matches_the_paper_shape() {
    let ctx = context();
    let rows = experiments::table5(ctx).unwrap();
    assert_eq!(rows.len(), 3);
    for row in &rows {
        // With feature blocking GNNerator consistently outperforms HyGCN.
        assert!(
            row.with_blocking > 1.0,
            "{}: blocked GNNerator should beat HyGCN ({}x)",
            row.dataset,
            row.with_blocking
        );
        // Blocking is what creates the gap.
        assert!(
            row.with_blocking > row.without_blocking,
            "{}: blocking should increase the advantage",
            row.dataset
        );
    }
    // Without blocking, HyGCN's sparsity elimination makes Citeseer its best
    // dataset (the paper reports 0.8x there): GNNerator's unblocked advantage
    // on Citeseer must be the smallest of the three datasets.
    let citeseer = rows.iter().find(|r| r.dataset == "citeseer").unwrap();
    for other in rows.iter().filter(|r| r.dataset != "citeseer") {
        assert!(
            citeseer.without_blocking <= other.without_blocking,
            "citeseer should be HyGCN's best case without blocking"
        );
    }
}

#[test]
fn figure4_block_size_64_is_the_sweet_spot() {
    let ctx = context();
    let rows = experiments::figure4(ctx, &[32, 64, 256, 1024, 4096]).unwrap();
    let slowdown = |b: usize| rows.iter().find(|r| r.block_size == b).unwrap().slowdown;
    // B = 64 is the reference point.
    assert!((slowdown(64) - 1.0).abs() < 1e-9);
    // Smaller than the Dense Engine width hurts (under-utilisation).
    assert!(slowdown(32) > 1.05, "B=32 slowdown {}", slowdown(32));
    // Larger blocks degrade monotonically towards the conventional dataflow.
    assert!(slowdown(256) >= slowdown(64));
    assert!(slowdown(1024) >= slowdown(256) * 0.99);
    assert!(slowdown(4096) >= slowdown(1024) * 0.99);
    assert!(slowdown(4096) > 1.2, "large blocks should clearly hurt");
}

#[test]
fn figure5_best_investment_depends_on_hidden_dimension() {
    let ctx = context();
    let (rows, _) = experiments::figure5(ctx).unwrap();
    let avg = |f: &dyn Fn(&experiments::Figure5Row) -> f64, suffix: &str| {
        geomean(
            &rows
                .iter()
                .filter(|r| r.label.ends_with(suffix))
                .map(f)
                .collect::<Vec<_>>(),
        )
    };
    // At hidden dimension 16 the workloads are memory-bound: extra bandwidth
    // beats extra dense compute.
    let bw_16 = avg(&|r| r.more_bandwidth, "-16");
    let dense_16 = avg(&|r| r.more_dense_compute, "-16");
    assert!(
        bw_16 > dense_16,
        "hidden 16: bandwidth {bw_16} vs dense {dense_16}"
    );
    // At hidden dimension 1024 the dense engine becomes the bottleneck.
    let bw_1024 = avg(&|r| r.more_bandwidth, "-1024");
    let dense_1024 = avg(&|r| r.more_dense_compute, "-1024");
    assert!(
        dense_1024 > bw_1024,
        "hidden 1024: dense {dense_1024} vs bandwidth {bw_1024}"
    );
    assert!(
        dense_1024 > 1.3,
        "dense scaling should clearly help at 1024"
    );
    // No configuration should ever slow things down.
    for row in &rows {
        for v in [
            row.more_graph_memory,
            row.more_dense_compute,
            row.more_bandwidth,
        ] {
            assert!(v >= 0.97, "{}: speedup {v} below 1", row.label);
        }
    }
}
