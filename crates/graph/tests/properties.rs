//! Property-based tests for the graph substrate.
//!
//! These check the invariants the accelerator model relies on: sharding is a
//! partition of the edge set, CSR conversion preserves edges, and the
//! synthetic generators respect their advertised statistics.

use gnnerator_graph::datasets::{DatasetKind, DatasetSpec};
use gnnerator_graph::{
    generators, ArtifactCache, CsrGraph, Edge, EdgeList, EdgeListBuilder, ShardCoord, ShardGrid,
    ShardSummary, TraversalOrder,
};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A naive dense reference sharder: one `Vec<Edge>` bucket per grid cell,
/// the way the pre-sparse `ShardGrid` stored shards. The property tests
/// check the sparse arena/index representation against this.
struct DenseReference {
    grid_dim: usize,
    /// Row-major `grid_dim x grid_dim` buckets, each sorted by `(src, dst)`.
    buckets: Vec<Vec<Edge>>,
}

impl DenseReference {
    fn build(edges: &EdgeList, nps: usize) -> Self {
        let grid_dim = edges.num_nodes().div_ceil(nps);
        let mut buckets: Vec<Vec<Edge>> = vec![Vec::new(); grid_dim * grid_dim];
        for e in edges.iter() {
            buckets[(e.src as usize / nps) * grid_dim + e.dst as usize / nps].push(*e);
        }
        for bucket in &mut buckets {
            bucket.sort_unstable();
        }
        Self { grid_dim, buckets }
    }

    fn bucket(&self, coord: ShardCoord) -> &[Edge] {
        &self.buckets[coord.src_block * self.grid_dim + coord.dst_block]
    }

    fn unique_sources(&self, coord: ShardCoord) -> usize {
        let set: HashSet<_> = self.bucket(coord).iter().map(|e| e.src).collect();
        set.len()
    }

    fn unique_destinations(&self, coord: ShardCoord) -> usize {
        let set: HashSet<_> = self.bucket(coord).iter().map(|e| e.dst).collect();
        set.len()
    }

    /// Serpentine coordinates the way the dense implementation enumerated
    /// them: outer loop over columns (dst-stationary) or rows
    /// (src-stationary), inner direction alternating.
    fn serpentine(&self, order: TraversalOrder) -> Vec<ShardCoord> {
        let s = self.grid_dim;
        let mut coords = Vec::with_capacity(s * s);
        for outer in 0..s {
            let inner: Vec<usize> = if outer % 2 == 0 {
                (0..s).collect()
            } else {
                (0..s).rev().collect()
            };
            for i in inner {
                coords.push(match order {
                    TraversalOrder::DestinationStationary => ShardCoord::new(i, outer),
                    TraversalOrder::SourceStationary => ShardCoord::new(outer, i),
                });
            }
        }
        coords
    }
}

/// Checks every cell of `ShardGrid::build(edges, nps)` — edges, metadata
/// and the `shard()` lookup, occupied or not — against the dense reference.
fn check_against_dense_reference(edges: &EdgeList, nps: usize) -> Result<(), TestCaseError> {
    let grid = ShardGrid::build(edges, nps).unwrap();
    let reference = DenseReference::build(edges, nps);
    prop_assert_eq!(grid.grid_dim(), reference.grid_dim);
    let mut occupied = 0usize;
    for src in 0..grid.grid_dim() {
        for dst in 0..grid.grid_dim() {
            let coord = ShardCoord::new(src, dst);
            let view = grid.shard(coord);
            let expected = reference.bucket(coord);
            prop_assert_eq!(view.edges(), expected, "{} at nps {}", coord, nps);
            prop_assert_eq!(view.coord(), coord);
            prop_assert_eq!(
                view.unique_source_count(),
                reference.unique_sources(coord),
                "{} at nps {}",
                coord,
                nps
            );
            prop_assert_eq!(
                view.unique_destination_count(),
                reference.unique_destinations(coord),
                "{} at nps {}",
                coord,
                nps
            );
            if let Some(meta) = view.meta() {
                occupied += 1;
                prop_assert_eq!(meta.num_edges(), expected.len());
                prop_assert_eq!(grid.edges_of(meta), expected);
            } else {
                prop_assert!(expected.is_empty());
            }
        }
    }
    prop_assert_eq!(grid.occupied_shards(), occupied);
    let cells = grid.grid_dim() * grid.grid_dim();
    prop_assert!((grid.occupancy() - occupied as f64 / cells as f64).abs() < 1e-12);
    Ok(())
}

/// Checks `ShardSummary::build(edges, nps, loops)` — which never
/// materialises the self-loops it merges in — against the grid built from
/// the materialised list: identical metas (counts and arena offsets) and
/// row/column indexes, and per-shard counts equal to the dense reference's,
/// which shares no code with the single-pass meta routine.
fn check_summary_against_grid(edges: &EdgeList, nps: usize) -> Result<(), TestCaseError> {
    for loops in [false, true] {
        let mut list = edges.clone();
        if loops {
            list.add_self_loops();
        }
        let grid = ShardGrid::build(&list, nps).unwrap();
        let summary = ShardSummary::build(edges, nps, loops).unwrap();
        prop_assert_eq!(summary.metas(), grid.metas(), "nps {} loops {}", nps, loops);
        prop_assert_eq!(summary.total_edges(), list.num_edges());
        for block in 0..grid.grid_dim() {
            prop_assert_eq!(summary.row_metas(block), grid.row_metas(block));
            let column: Vec<_> = summary.column_metas(block).collect();
            let expected: Vec<_> = grid.column_metas(block).collect();
            prop_assert_eq!(column, expected);
        }
        prop_assert_eq!(&summary, grid.summary());
        let reference = DenseReference::build(&list, nps);
        for meta in summary.metas() {
            let coord = meta.coord();
            prop_assert_eq!(meta.num_edges(), reference.bucket(coord).len());
            prop_assert_eq!(meta.unique_source_count(), reference.unique_sources(coord));
            prop_assert_eq!(
                meta.unique_destination_count(),
                reference.unique_destinations(coord),
                "{} nps {} loops {}",
                coord,
                nps,
                loops
            );
            prop_assert_eq!(grid.edges_of(meta), reference.bucket(coord));
        }
    }
    Ok(())
}

/// Strategy for a hub-heavy, duplicate-heavy edge multiset: most edges leave
/// or enter one of two hubs, or fall among three nodes, so rows are long and
/// repeats are common.
fn hub_heavy_edges() -> impl Strategy<Value = (usize, Vec<Edge>)> {
    (3usize..60).prop_flat_map(|n| {
        proptest::collection::vec((0u32..4, 0..n as u32, 0..n as u32), 0..400).prop_map(
            move |draws| {
                let edges = draws
                    .into_iter()
                    .map(|(kind, a, b)| match kind {
                        0 => Edge::new(a % 2, b),
                        1 => Edge::new(a, b % 2),
                        2 => Edge::new(a % 3, b % 3),
                        _ => Edge::new(a, b),
                    })
                    .collect();
                (n, edges)
            },
        )
    })
}

/// Strategy for a small random edge list.
fn edge_list() -> impl Strategy<Value = EdgeList> {
    (2usize..40).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..200)
            .prop_map(move |pairs| EdgeList::from_pairs(n, &pairs).expect("endpoints in range"))
    })
}

proptest! {
    #[test]
    fn sharding_partitions_the_edge_set(edges in edge_list(), nps in 1usize..10) {
        let grid = ShardGrid::build(&edges, nps);
        prop_assume!(edges.num_nodes() > 0);
        let grid = grid.unwrap();
        // Total edge count is preserved.
        prop_assert_eq!(grid.total_edges(), edges.num_edges());
        // Every edge appears in exactly the shard its endpoints dictate.
        let mut from_shards: Vec<Edge> = Vec::new();
        for shard in grid.iter() {
            for e in shard.edges() {
                prop_assert_eq!(e.src as usize / nps, shard.coord().src_block);
                prop_assert_eq!(e.dst as usize / nps, shard.coord().dst_block);
                from_shards.push(*e);
            }
        }
        let mut original: Vec<Edge> = edges.iter().copied().collect();
        original.sort_unstable();
        from_shards.sort_unstable();
        prop_assert_eq!(original, from_shards);
    }

    #[test]
    fn shard_capacity_bound_holds(edges in edge_list(), nps in 1usize..10) {
        // The paper's "at most n² edges per shard" bound assumes a simple
        // graph (no duplicate edges), so deduplicate first.
        let mut edges = edges;
        edges.dedup();
        prop_assume!(edges.num_nodes() > 0);
        let grid = ShardGrid::build(&edges, nps).unwrap();
        prop_assert!(grid.max_shard_edges() <= nps * nps);
    }

    #[test]
    fn traversals_cover_the_grid(edges in edge_list(), nps in 1usize..10) {
        prop_assume!(edges.num_nodes() > 0);
        let grid = ShardGrid::build(&edges, nps).unwrap();
        let s = grid.grid_dim();
        for order in [TraversalOrder::SourceStationary, TraversalOrder::DestinationStationary] {
            let coords: HashSet<_> = grid.traversal(order).collect();
            prop_assert_eq!(coords.len(), s * s);
        }
    }

    #[test]
    fn src_stationary_changes_src_block_rarely(edges in edge_list(), nps in 1usize..10) {
        // In an S-pattern row-major walk the source block changes exactly
        // S - 1 times over the full traversal.
        prop_assume!(edges.num_nodes() > 0);
        let grid = ShardGrid::build(&edges, nps).unwrap();
        let coords: Vec<_> = grid.traversal(TraversalOrder::SourceStationary).collect();
        let changes = coords
            .windows(2)
            .filter(|w| w[0].src_block != w[1].src_block)
            .count();
        prop_assert_eq!(changes, grid.grid_dim() - 1);
    }

    #[test]
    fn sparse_grid_matches_the_dense_reference(edges in edge_list(), nps in 1usize..10) {
        prop_assume!(edges.num_nodes() > 0);
        check_against_dense_reference(&edges, nps)?;
    }

    #[test]
    fn sparse_grid_matches_the_dense_reference_at_the_extremes(
        edges in edge_list(),
        extra in 0usize..4,
    ) {
        // One node per shard (every edge its own shard), exactly one shard,
        // and a shard wider than the graph; then the same with every node's
        // self-loop added, and with a list of self-loops only.
        let n = edges.num_nodes();
        let mut looped = edges.clone();
        looped.add_self_loops();
        let mut loops_only = EdgeList::new(n);
        loops_only.add_self_loops();
        for list in [&edges, &looped, &loops_only] {
            for nps in [1, n, n + extra + 1] {
                check_against_dense_reference(list, nps)?;
            }
        }
    }

    #[test]
    fn traversals_match_the_dense_reference(edges in edge_list(), nps in 1usize..10) {
        prop_assume!(edges.num_nodes() > 0);
        let grid = ShardGrid::build(&edges, nps).unwrap();
        let reference = DenseReference::build(&edges, nps);
        for order in [TraversalOrder::SourceStationary, TraversalOrder::DestinationStationary] {
            // The full serpentine walk enumerates exactly the dense order.
            let dense: Vec<ShardCoord> = reference.serpentine(order);
            let sparse: Vec<ShardCoord> = grid.traversal(order).collect();
            prop_assert_eq!(&sparse, &dense, "{}", order);
            // The occupied walk is its non-empty subsequence, edges intact.
            let expected: Vec<ShardCoord> = dense
                .into_iter()
                .filter(|&c| !reference.bucket(c).is_empty())
                .collect();
            let occupied: Vec<ShardCoord> =
                grid.occupied_traversal(order).map(|s| s.coord()).collect();
            prop_assert_eq!(&occupied, &expected, "{}", order);
            for shard in grid.occupied_traversal(order) {
                prop_assert_eq!(shard.edges(), reference.bucket(shard.coord()));
            }
        }
        // Row/column index walks agree with the reference too.
        for src in 0..grid.grid_dim() {
            for meta in grid.row_metas(src) {
                prop_assert_eq!(meta.coord().src_block, src);
                prop_assert_eq!(meta.num_edges(), reference.bucket(meta.coord()).len());
            }
        }
        for dst in 0..grid.grid_dim() {
            for meta in grid.column_metas(dst) {
                prop_assert_eq!(meta.coord().dst_block, dst);
                prop_assert_eq!(meta.num_edges(), reference.bucket(meta.coord()).len());
            }
        }
    }

    #[test]
    fn csr_preserves_edges(edges in edge_list()) {
        prop_assume!(edges.num_nodes() > 0);
        let csr = CsrGraph::from_edge_list(&edges);
        prop_assert_eq!(csr.num_edges(), edges.num_edges());
        // In-degree sums to edge count.
        let total: usize = (0..csr.num_nodes() as u32).map(|v| csr.in_degree(v)).sum();
        prop_assert_eq!(total, edges.num_edges());
        // Every original edge is present in the CSR neighbour lists.
        for e in edges.iter() {
            prop_assert!(csr.neighbors(e.dst).contains(&e.src));
        }
    }

    #[test]
    fn symmetrize_is_idempotent(edges in edge_list()) {
        let mut once = edges.clone();
        once.symmetrize();
        let mut twice = once.clone();
        twice.symmetrize();
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn symmetrized_graph_has_matching_in_and_out_degrees(edges in edge_list()) {
        let mut sym = edges;
        sym.symmetrize();
        prop_assert_eq!(sym.in_degrees(), sym.out_degrees());
    }

    #[test]
    fn rmat_exact_always_hits_target(n in 32usize..200, seed in 0u64..50) {
        let target = (n * 4).min(n * (n - 1));
        let g = generators::rmat_exact(n, target, seed).unwrap();
        prop_assert_eq!(g.num_edges(), target);
        for e in g.iter() {
            prop_assert!((e.src as usize) < n && (e.dst as usize) < n);
            prop_assert_ne!(e.src, e.dst);
        }
    }

    #[test]
    fn synthesized_datasets_have_exactly_the_specs_counts(
        vertices in 16usize..120,
        fill in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        // Sessions take a dataset's counts from its spec without reading an
        // edge, so synthesis must produce exactly those counts for any
        // valid spec, dense ones included.
        let max_edges = vertices * (vertices - 1);
        let edges = ((fill * max_edges as f64) as usize).clamp(1, max_edges);
        let spec = DatasetSpec {
            edges,
            vertices,
            ..DatasetKind::Cora.spec().with_feature_dim(8)
        };
        prop_assert!(spec.validate().is_ok());
        let dataset = spec.synthesize(seed).unwrap();
        let list = dataset.edge_list().unwrap();
        prop_assert_eq!((list.num_nodes(), list.num_edges()), (vertices, edges));
        prop_assert_eq!((dataset.num_nodes(), dataset.num_edges()), (vertices, edges));
    }

    #[test]
    fn erdos_renyi_respects_node_bound(n in 2usize..60, seed in 0u64..20) {
        let g = generators::erdos_renyi(n, 0.1, seed).unwrap();
        for e in g.iter() {
            prop_assert!((e.src as usize) < n);
            prop_assert!((e.dst as usize) < n);
            prop_assert_ne!(e.src, e.dst);
        }
    }

    #[test]
    fn block_nodes_partition_the_node_space(edges in edge_list(), nps in 1usize..10) {
        prop_assume!(edges.num_nodes() > 0);
        let grid = ShardGrid::build(&edges, nps).unwrap();
        let mut covered = 0usize;
        for b in 0..grid.grid_dim() {
            let r = grid.block_nodes(b);
            covered += (r.end - r.start) as usize;
            prop_assert!(grid.block_len(b) <= nps);
        }
        prop_assert_eq!(covered, edges.num_nodes());
    }

    #[test]
    fn chunked_builder_is_bit_identical_to_the_in_memory_path(
        edges in edge_list(),
        capacity in 1usize..64,
    ) {
        // Any chunk capacity (forcing anywhere from one to hundreds of
        // chunk merges) must reproduce collect → sort → dedup exactly.
        let mut builder = EdgeListBuilder::with_chunk_capacity(edges.num_nodes(), capacity);
        for e in edges.iter() {
            builder.push(*e).unwrap();
        }
        let built = builder.finish();
        let mut reference: Vec<Edge> = edges.iter().copied().collect();
        reference.sort_unstable();
        reference.dedup();
        prop_assert_eq!(built.as_slice(), reference.as_slice());
        prop_assert!(built.is_sorted());
    }

    #[test]
    fn builder_is_bit_identical_on_hub_heavy_inputs_with_mixed_chunks(
        (n, edges) in hub_heavy_edges(),
        capacity in 1usize..24,
    ) {
        // Hub rows and many small chunks through the counting sort.
        let mut reference = edges.clone();
        reference.sort_unstable();
        reference.dedup();
        let mut builder = EdgeListBuilder::with_chunk_capacity(n, capacity);
        for &e in &edges {
            builder.push(e).unwrap();
        }
        let built = builder.finish();
        prop_assert_eq!(built.as_slice(), reference.as_slice());
        prop_assert!(built.is_sorted());
    }

    #[test]
    fn merge_based_canonical_ops_match_the_resort_reference(edges in edge_list()) {
        // dedup → symmetrize → add_self_loops down the sorted fast paths
        // must equal the historical always-resort pipeline.
        let mut fast = edges.clone();
        fast.dedup();
        fast.symmetrize();
        fast.add_self_loops();

        let mut reference: Vec<Edge> = edges
            .iter()
            .copied()
            .filter(|e| e.src != e.dst)
            .collect();
        reference.sort_unstable();
        reference.dedup();
        let reversed: Vec<Edge> = reference.iter().map(|e| e.reversed()).collect();
        reference.extend(reversed);
        reference.sort_unstable();
        reference.dedup();
        reference.extend((0..edges.num_nodes() as u32).map(|v| Edge::new(v, v)));
        reference.sort_unstable();
        reference.dedup();
        prop_assert_eq!(fast.as_slice(), reference.as_slice());
        prop_assert!(fast.is_sorted());
    }

    #[test]
    fn grid_cache_round_trip_is_bit_identical(
        edges in edge_list(),
        nps in 1usize..10,
        loops in 0usize..2,
    ) {
        prop_assume!(edges.num_nodes() > 0);
        let summary = ShardSummary::build(&edges, nps, loops == 1).unwrap();
        let dir = unique_cache_dir();
        let cache = ArtifactCache::new(&dir);
        let key = ArtifactCache::grid_key("prop-graph", nps, loops == 1);
        cache.store_summary(&key, &summary).unwrap();
        let loaded = cache.load_summary(&key).unwrap().expect("stored artifact");
        std::fs::remove_dir_all(&dir).ok();
        // Same metas, same indexes — full structural equality.
        prop_assert_eq!(&loaded, &summary);
    }

    #[test]
    fn shard_summary_matches_the_grid_build(edges in edge_list(), nps in 1usize..10) {
        // `edge_list()` draws unsorted multisets with duplicates and
        // self-loops, which the summary must sort and merge exactly as the
        // materialising path does.
        check_summary_against_grid(&edges, nps)?;
    }

    #[test]
    fn shard_summary_matches_the_grid_build_on_hub_heavy_and_sorted_inputs(
        (n, edges) in hub_heavy_edges(),
        extra in 0usize..4,
    ) {
        let unsorted = EdgeList::from_edges(n, edges).unwrap();
        let mut sorted = unsorted.clone();
        sorted.dedup();
        sorted.symmetrize();
        prop_assert!(sorted.is_sorted());
        let mut looped = sorted.clone();
        looped.add_self_loops();
        for list in [&unsorted, &sorted, &looped] {
            // One node per shard, exactly one shard, wider than the graph,
            // and a mid-sized block.
            for nps in [1, n, n + extra + 1, n / 3 + 1] {
                check_summary_against_grid(list, nps)?;
            }
        }
    }
}

/// A fresh scratch directory per proptest case (cases run sequentially but
/// test binaries run in parallel, so include the pid).
fn unique_cache_dir() -> std::path::PathBuf {
    static NONCE: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "gnnerator-prop-cache-{}-{}",
        std::process::id(),
        NONCE.fetch_add(1, Ordering::Relaxed)
    ))
}
