use crate::parallel::{even_bounds, run_bands, workers_for};
use crate::{Edge, EdgeList, GraphError, NodeId};
use std::borrow::Cow;
use std::fmt;
use std::ops::Range;

/// Bytes per edge record streamed by the Shard Edge Fetch unit (32-bit source
/// id + 32-bit destination id).
pub const BYTES_PER_EDGE: u64 = 8;
/// Bytes per feature element (fp32) moved by the Shard Feature Fetch unit.
pub const BYTES_PER_FEATURE_ELEMENT: u64 = 4;

/// Traversal order over the 2-D shard grid (Section IV-A, Table I).
///
/// * **Source-stationary** walks across a *row* of the grid: one block of
///   source vertices stays on-chip for the whole row while destination
///   blocks are written back and reloaded.
/// * **Destination-stationary** walks down a *column*: one block of
///   destination vertices (the accumulators) stays on-chip until it has
///   finished aggregating, while source blocks are reloaded.
///
/// The paper assumes an S-pattern (serpentine) walk so that one operand block
/// carries over between consecutive shards; the iterators here follow that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TraversalOrder {
    /// Keep a source block on-chip and sweep destinations.
    SourceStationary,
    /// Keep a destination block on-chip and sweep sources (Algorithm 1's
    /// destination-major loop nest). This is the default because it lets
    /// aggregation finish a destination block before feature extraction.
    #[default]
    DestinationStationary,
}

impl fmt::Display for TraversalOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraversalOrder::SourceStationary => f.write_str("src-stationary"),
            TraversalOrder::DestinationStationary => f.write_str("dst-stationary"),
        }
    }
}

/// Position of a shard in the grid: `(src_block, dst_block)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShardCoord {
    /// Index of the source-node block (grid row).
    pub src_block: usize,
    /// Index of the destination-node block (grid column).
    pub dst_block: usize,
}

impl ShardCoord {
    /// Creates a new coordinate.
    pub fn new(src_block: usize, dst_block: usize) -> Self {
        Self {
            src_block,
            dst_block,
        }
    }
}

impl fmt::Display for ShardCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.src_block, self.dst_block)
    }
}

/// Precomputed metadata of one *occupied* shard: everything the timing
/// simulator and the traffic models need, without touching the shard's edges.
///
/// A [`ShardSummary`] stores one `ShardMeta` per non-empty grid cell. The edge
/// count and the distinct-endpoint counts are fixed at build time, so the
/// cycle/byte cost of processing a shard under any feature-block width is a
/// couple of multiplies away — the simulator's hot loop never walks edge
/// lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMeta {
    coord: ShardCoord,
    /// Start of this shard's edges in the grid's shared arena.
    edge_start: u32,
    num_edges: u32,
    unique_sources: u32,
    unique_destinations: u32,
}

impl ShardMeta {
    /// The shard's grid coordinate.
    pub fn coord(&self) -> ShardCoord {
        self.coord
    }

    /// Number of edges in the shard (always positive: only occupied shards
    /// have metadata).
    pub fn num_edges(&self) -> usize {
        self.num_edges as usize
    }

    /// Number of distinct source nodes referenced by the shard's edges.
    ///
    /// The Shard Feature Fetch unit must bring these nodes' features (or the
    /// active block of their dimensions) on-chip before compute starts.
    pub fn unique_source_count(&self) -> usize {
        self.unique_sources as usize
    }

    /// Number of distinct destination nodes referenced by the shard's edges.
    pub fn unique_destination_count(&self) -> usize {
        self.unique_destinations as usize
    }

    /// Bytes of edge records the Shard Edge Fetch unit streams for this shard.
    pub fn edge_fetch_bytes(&self) -> u64 {
        self.num_edges as u64 * BYTES_PER_EDGE
    }

    /// Bytes of source-node features fetched when `block_dim` feature
    /// dimensions are resident.
    pub fn source_feature_bytes(&self, block_dim: usize) -> u64 {
        self.unique_sources as u64 * block_dim as u64 * BYTES_PER_FEATURE_ELEMENT
    }

    /// Bytes of destination accumulators touched when `block_dim` feature
    /// dimensions are resident (one spill *or* one reload; Table I's
    /// write-cost term pays it twice).
    pub fn destination_feature_bytes(&self, block_dim: usize) -> u64 {
        self.unique_destinations as u64 * block_dim as u64 * BYTES_PER_FEATURE_ELEMENT
    }

    fn edge_range(&self) -> Range<usize> {
        let start = self.edge_start as usize;
        start..start + self.num_edges as usize
    }

    /// Raw constructor used by the artifact cache's deserialiser.
    pub(crate) fn from_raw(
        coord: ShardCoord,
        edge_start: u32,
        num_edges: u32,
        unique_sources: u32,
        unique_destinations: u32,
    ) -> Self {
        Self {
            coord,
            edge_start,
            num_edges,
            unique_sources,
            unique_destinations,
        }
    }

    /// Start offset of this shard's edges in the grid arena (cache
    /// serialisation only).
    pub(crate) fn edge_start(&self) -> u32 {
        self.edge_start
    }
}

/// The occupied-shard summary of a GridGraph-style two-dimensional shard
/// grid (Figure 1): everything the timing simulator and the traffic models
/// read, and nothing they do not.
///
/// The node id space is cut into `grid_dim` contiguous blocks of at most
/// `nodes_per_shard` nodes; shard `(i, j)` holds every edge whose source lies
/// in block `i` and whose destination lies in block `j`. Each shard therefore
/// contains at most `nodes_per_shard²` edges, matching the paper's "maximum
/// of n² edges" definition.
///
/// Real graphs sharded this way are extremely sparse at the shard level —
/// most of the `S²` cells hold no edges — so the summary keeps:
///
/// * one [`ShardMeta`] per *occupied* shard (row-major), carrying the edge
///   count, distinct-endpoint counts (Table I's cost-model inputs) and the
///   shard's offset in the `(src_block, dst_block, src, dst)`-sorted edge
///   arena a [`ShardGrid`] materialises;
/// * CSR-style offset indexes over both grid axes (`row_offsets` for
///   source-stationary walks, `col_offsets`/`col_entries` for
///   destination-stationary walks), so traversals touch only occupied cells.
///
/// Memory is `O(occupied + S)`: the summary holds no edges at all, which is
/// what lets the artifact cache store and reload it in kilobytes.
///
/// # Examples
///
/// ```
/// use gnnerator_graph::{EdgeList, ShardSummary, TraversalOrder};
///
/// # fn main() -> Result<(), gnnerator_graph::GraphError> {
/// let edges = EdgeList::from_pairs(6, &[(0, 5), (3, 1), (5, 0), (2, 4)])?;
/// let summary = ShardSummary::build(&edges, 3, false)?;
/// assert_eq!(summary.grid_dim(), 2);
/// assert_eq!(summary.total_edges(), 4);
/// // The four edges land in two of the four grid cells; the occupancy-aware
/// // walk visits only those.
/// assert_eq!(summary.occupied_shards(), 2);
/// assert_eq!(summary.traversal(TraversalOrder::DestinationStationary).count(), 4);
/// assert_eq!(summary.occupied_metas(TraversalOrder::DestinationStationary).count(), 2);
/// // Self-loops are merged in virtually: one more edge per node.
/// assert_eq!(ShardSummary::build(&edges, 3, true)?.total_edges(), 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSummary {
    num_nodes: usize,
    nodes_per_shard: usize,
    grid_dim: usize,
    total_edges: usize,
    /// Metadata of occupied shards, row-major (`src_block` outer).
    metas: Vec<ShardMeta>,
    /// `metas[row_offsets[i]..row_offsets[i + 1]]` are row `i`'s occupied
    /// shards, in ascending `dst_block` order.
    row_offsets: Vec<usize>,
    /// Indices into `metas`, sorted column-major (`dst_block` outer).
    col_entries: Vec<usize>,
    /// `col_entries[col_offsets[j]..col_offsets[j + 1]]` are column `j`'s
    /// occupied shards, in ascending `src_block` order.
    col_offsets: Vec<usize>,
}

impl ShardSummary {
    /// Summarises the shard grid of `edges` at `nodes_per_shard` nodes per
    /// block, optionally with one self-loop per node.
    ///
    /// A sorted list (the generators' normal output) is summarised in place;
    /// any other list is first copied and sorted. Self-loops are merged into
    /// the sorted stream on the fly — with the same sorted-and-deduplicated
    /// result [`EdgeList::add_self_loops`] produces — so the edge list is
    /// never cloned to add them.
    ///
    /// Large lists are summarised in bands of whole grid rows, one per
    /// worker, with near-equal edge counts: each band runs the single pass
    /// of [`ShardSummary::build_streamed`] over its rows (and its nodes'
    /// self-loops) with its own counters, and the bands' metadata is
    /// concatenated row-major with arena offsets shifted by the edges of the
    /// bands before it. The summary does not depend on the worker count.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] if `nodes_per_shard` is zero
    /// or the edge list has no nodes.
    pub fn build(
        edges: &EdgeList,
        nodes_per_shard: usize,
        include_self_loops: bool,
    ) -> Result<Self, GraphError> {
        let workers = workers_for(edges.num_edges());
        Self::build_with_workers(edges, nodes_per_shard, include_self_loops, workers)
    }

    /// [`ShardSummary::build`] on exactly `workers` workers.
    pub(crate) fn build_with_workers(
        edges: &EdgeList,
        nodes_per_shard: usize,
        include_self_loops: bool,
        workers: usize,
    ) -> Result<Self, GraphError> {
        let n = edges.num_nodes();
        check_grid_shape(n, nodes_per_shard)?;
        let sorted = sorted_edges(edges);
        let grid_dim = n.div_ceil(nodes_per_shard);
        // `row_edge(r)`: the index of grid row `r`'s first edge.
        let row_edge = |row: usize| {
            if row >= grid_dim {
                return sorted.len();
            }
            sorted.partition_point(|e| (e.src as usize) < row * nodes_per_shard)
        };
        // Each band boundary is the row boundary nearest to an even split of
        // the edges; the first band starts at row 0, the last ends at
        // `grid_dim`.
        let mut row_bounds: Vec<usize> = even_bounds(sorted.len(), workers)
            .into_iter()
            .map(|i| {
                let Some(edge) = sorted.get(i) else {
                    return grid_dim;
                };
                let row = (edge.src as usize / nodes_per_shard).min(grid_dim);
                let (lo, hi) = (row_edge(row), row_edge(row + 1));
                if i - lo <= hi - i {
                    row
                } else {
                    row + 1
                }
            })
            .collect();
        row_bounds[0] = 0;
        let bands: Vec<(Range<usize>, &[Edge])> = row_bounds
            .windows(2)
            .map(|rows| {
                let nodes = (rows[0] * nodes_per_shard).min(n)..(rows[1] * nodes_per_shard).min(n);
                (nodes, &sorted[row_edge(rows[0])..row_edge(rows[1])])
            })
            .collect();
        let bands = run_bands(bands, |(nodes, band)| {
            Ok(summarize_band(
                n,
                nodes_per_shard,
                band,
                include_self_loops.then_some(nodes),
            ))
        })?;
        let mut metas = Vec::with_capacity(bands.iter().map(|band| band.metas.len()).sum());
        let mut offset = 0usize;
        for band in bands {
            let start = offset as u32;
            offset += band.edges;
            if offset > u32::MAX as usize {
                return Err(arena_overflow());
            }
            metas.extend(band.metas.into_iter().map(|mut meta| {
                meta.edge_start += start;
                meta
            }));
        }
        Ok(Self::assemble(n, nodes_per_shard, metas))
    }

    /// Summarises a `(src, dst)`-sorted edge *stream* in one linear pass,
    /// holding no edges.
    ///
    /// A sorted stream delivers edges grouped by contiguous source block
    /// (grid row). Within a row, each edge bumps its destination block's
    /// edge count; its distinct-source count grows whenever the block sees a
    /// new source (sources arrive in ascending order), and its
    /// distinct-destination count whenever a per-node stamp array has not
    /// yet seen the destination in this row — a node belongs to exactly one
    /// destination block, so a row stamp is a shard stamp. Neither array is
    /// reset between rows: sources and rows only ascend.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] if `nodes_per_shard` is
    /// zero, `num_nodes` is zero, the stream is not sorted by `(src, dst)`,
    /// or the edge count exceeds the 32-bit arena index space, and
    /// [`GraphError::NodeOutOfRange`] for an endpoint `>= num_nodes`.
    pub fn build_streamed<I>(
        num_nodes: usize,
        nodes_per_shard: usize,
        edges: I,
    ) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = Edge>,
    {
        check_grid_shape(num_nodes, nodes_per_shard)?;
        let pass = summarize_rows(num_nodes, nodes_per_shard, edges)?;
        Ok(Self::assemble(num_nodes, nodes_per_shard, pass.metas))
    }

    /// Assembles a summary from its row-major occupied-shard metadata,
    /// rebuilding the CSR-style row/column indexes. Shared by
    /// [`ShardSummary::build_streamed`] and the artifact cache's
    /// deserialiser (the indexes are cheap linear passes, so they are
    /// recomputed rather than stored).
    pub(crate) fn assemble(
        num_nodes: usize,
        nodes_per_shard: usize,
        metas: Vec<ShardMeta>,
    ) -> Self {
        let grid_dim = num_nodes.div_ceil(nodes_per_shard);
        let total_edges = metas.last().map_or(0, |m| m.edge_range().end);

        // Row index: metas are already row-major, so offsets come from one
        // counting pass.
        let mut row_offsets = vec![0usize; grid_dim + 1];
        for meta in &metas {
            row_offsets[meta.coord.src_block + 1] += 1;
        }
        for i in 0..grid_dim {
            row_offsets[i + 1] += row_offsets[i];
        }

        // Column index: a permutation of the meta indices grouped by
        // destination block, ascending source block within each group.
        let mut col_offsets = vec![0usize; grid_dim + 1];
        for meta in &metas {
            col_offsets[meta.coord.dst_block + 1] += 1;
        }
        for j in 0..grid_dim {
            col_offsets[j + 1] += col_offsets[j];
        }
        let mut col_entries = vec![0usize; metas.len()];
        let mut cursor = col_offsets.clone();
        for (index, meta) in metas.iter().enumerate() {
            let slot = cursor[meta.coord.dst_block];
            col_entries[slot] = index;
            cursor[meta.coord.dst_block] += 1;
        }

        Self {
            num_nodes,
            nodes_per_shard,
            grid_dim,
            total_edges,
            metas,
            row_offsets,
            col_entries,
            col_offsets,
        }
    }

    /// Number of nodes in the underlying graph.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Maximum number of nodes per block (the paper's tunable `n`).
    pub fn nodes_per_shard(&self) -> usize {
        self.nodes_per_shard
    }

    /// Width/height of the square shard grid (the paper's `S`).
    pub fn grid_dim(&self) -> usize {
        self.grid_dim
    }

    /// Total number of edges across all shards.
    pub fn total_edges(&self) -> usize {
        self.total_edges
    }

    /// Number of shards that contain at least one edge.
    pub fn occupied_shards(&self) -> usize {
        self.metas.len()
    }

    /// Metadata of every occupied shard, row-major.
    pub fn metas(&self) -> &[ShardMeta] {
        &self.metas
    }

    /// Metadata of row `src_block`'s occupied shards, ascending `dst_block`.
    ///
    /// # Panics
    ///
    /// Panics if `src_block >= grid_dim`.
    pub fn row_metas(&self, src_block: usize) -> &[ShardMeta] {
        assert!(src_block < self.grid_dim, "row {src_block} out of range");
        &self.metas[self.row_offsets[src_block]..self.row_offsets[src_block + 1]]
    }

    /// Metadata of column `dst_block`'s occupied shards, ascending
    /// `src_block`.
    ///
    /// # Panics
    ///
    /// Panics if `dst_block >= grid_dim`.
    pub fn column_metas(&self, dst_block: usize) -> impl Iterator<Item = &ShardMeta> + '_ {
        assert!(dst_block < self.grid_dim, "column {dst_block} out of range");
        self.col_entries[self.col_offsets[dst_block]..self.col_offsets[dst_block + 1]]
            .iter()
            .map(move |&index| &self.metas[index])
    }

    /// The metadata of the shard at `coord`, or `None` for an empty cell.
    ///
    /// # Panics
    ///
    /// Panics if `coord` is outside the grid.
    pub fn meta(&self, coord: ShardCoord) -> Option<&ShardMeta> {
        assert!(
            coord.src_block < self.grid_dim && coord.dst_block < self.grid_dim,
            "shard {coord} out of range for {0}x{0} grid",
            self.grid_dim
        );
        let row = self.row_metas(coord.src_block);
        row.binary_search_by_key(&coord.dst_block, |m| m.coord.dst_block)
            .ok()
            .map(|offset| &row[offset])
    }

    /// The contiguous range of node ids belonging to block `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block >= grid_dim`.
    pub fn block_nodes(&self, block: usize) -> Range<NodeId> {
        assert!(block < self.grid_dim, "block {block} out of range");
        let start = (block * self.nodes_per_shard) as NodeId;
        let end = ((block + 1) * self.nodes_per_shard).min(self.num_nodes) as NodeId;
        start..end
    }

    /// Number of nodes in block `block`.
    pub fn block_len(&self, block: usize) -> usize {
        let r = self.block_nodes(block);
        (r.end - r.start) as usize
    }

    /// Fraction of shards that contain at least one edge.
    ///
    /// Real-world graphs sharded this way are sparse at the shard level too;
    /// this statistic feeds the report's locality section and quantifies how
    /// much work the occupancy-aware traversals skip.
    pub fn occupancy(&self) -> f64 {
        let cells = self.grid_dim * self.grid_dim;
        if cells == 0 {
            return 0.0;
        }
        self.metas.len() as f64 / cells as f64
    }

    /// Maximum number of edges in any single shard.
    pub fn max_shard_edges(&self) -> usize {
        self.metas
            .iter()
            .map(ShardMeta::num_edges)
            .max()
            .unwrap_or(0)
    }

    /// Returns every grid coordinate — occupied or not — in the S-pattern
    /// (serpentine) order for the given traversal.
    ///
    /// For [`TraversalOrder::DestinationStationary`] the walk proceeds column
    /// by column (destination block outer loop), alternating the direction of
    /// each column so consecutive shards share a source block boundary. For
    /// [`TraversalOrder::SourceStationary`] the walk proceeds row by row.
    ///
    /// The iterator is allocation-free: coordinates are computed from a
    /// linear index. For walks that should skip empty cells, use
    /// [`ShardSummary::occupied_metas`].
    pub fn traversal(&self, order: TraversalOrder) -> SerpentineCoords {
        SerpentineCoords {
            grid_dim: self.grid_dim,
            order,
            next: 0,
            total: self.grid_dim * self.grid_dim,
        }
    }

    /// Returns the metadata of the *occupied* shards in the same S-pattern
    /// order as [`ShardSummary::traversal`], skipping empty cells via the
    /// sparse index.
    ///
    /// This is the subsequence of the full serpentine walk restricted to
    /// shards that actually contain edges, so any consumer for whom empty
    /// shards are no-ops (the timing simulator, the functional executor)
    /// observes an identical processing order at `O(occupied + S)` cost
    /// instead of `O(S²)`.
    pub fn occupied_metas(&self, order: TraversalOrder) -> OccupiedTraversal<'_> {
        OccupiedTraversal {
            summary: self,
            order,
            outer: 0,
            group: 0..0,
            reverse: false,
        }
    }
}

fn check_grid_shape(num_nodes: usize, nodes_per_shard: usize) -> Result<(), GraphError> {
    if nodes_per_shard == 0 {
        return Err(GraphError::invalid("nodes_per_shard", "must be positive"));
    }
    if num_nodes == 0 {
        return Err(GraphError::invalid("edges", "graph has no nodes"));
    }
    Ok(())
}

fn arena_overflow() -> GraphError {
    GraphError::invalid("edges", "edge count exceeds the 32-bit arena index space")
}

/// Runs one [`MetaPass`] over a `(src, dst)`-sorted stream of whole grid
/// rows, validating every edge; arena offsets start at 0.
fn summarize_rows<I>(
    num_nodes: usize,
    nodes_per_shard: usize,
    edges: I,
) -> Result<MetaPass, GraphError>
where
    I: IntoIterator<Item = Edge>,
{
    let mut pass = MetaPass::new(num_nodes, nodes_per_shard);
    let mut prev: Option<Edge> = None;
    for edge in edges {
        for node in [edge.src, edge.dst] {
            if node as usize >= num_nodes {
                return Err(GraphError::NodeOutOfRange { node, num_nodes });
            }
        }
        if prev.is_some_and(|p| edge < p) {
            return Err(GraphError::invalid(
                "edges",
                "stream must be sorted by (src, dst)",
            ));
        }
        prev = Some(edge);
        if pass.edges >= u32::MAX as usize {
            return Err(arena_overflow());
        }
        pass.push(edge);
    }
    pass.flush_row();
    Ok(pass)
}

/// Runs one [`MetaPass`] over a band of whole grid rows of an
/// [`EdgeList`] — sorted (see [`sorted_edges`]) and in range by the list's
/// invariants, so nothing is re-validated — plus, with `loops`, one
/// self-loop per node of the band.
///
/// The pass's counts do not depend on the order of one source's edges
/// (shard edge counts add up, a source is new to a shard once whichever of
/// its edges comes first, destination stamps form a set), so each node's
/// loop is pushed after its own edges unless one of them is the loop.
/// Like the sorted merge [`ShardSummary::build_streamed`] is fed otherwise,
/// the loops path drops repeated edges.
fn summarize_band(
    num_nodes: usize,
    nodes_per_shard: usize,
    edges: &[Edge],
    loops: Option<Range<usize>>,
) -> MetaPass {
    let mut pass = MetaPass::new(num_nodes, nodes_per_shard);
    match loops {
        None => edges.iter().for_each(|&edge| pass.push(edge)),
        Some(nodes) => {
            let mut rest = edges;
            for v in nodes {
                let v = v as NodeId;
                let own = rest.iter().take_while(|e| e.src == v).count();
                let (run, tail) = rest.split_at(own);
                let mut has_loop = false;
                let mut prev = None;
                for &edge in run {
                    if prev != Some(edge) {
                        prev = Some(edge);
                        has_loop |= edge.dst == v;
                        pass.push(edge);
                    }
                }
                if !has_loop {
                    pass.push(Edge::new(v, v));
                }
                rest = tail;
            }
            debug_assert!(rest.is_empty(), "band edges outside its nodes");
        }
    }
    pass.flush_row();
    pass
}

/// The state of [`ShardSummary::build_streamed`]'s single pass: metadata
/// emitted so far, plus per-destination-block counters for the source-block
/// row being read.
struct MetaPass {
    nodes_per_shard: usize,
    metas: Vec<ShardMeta>,
    /// Edges consumed so far (the arena offset of the next shard).
    edges: usize,
    /// Arena offset of the current row's first edge.
    row_start: usize,
    /// Source block of the current row.
    row: usize,
    /// Destination blocks the current row touches.
    touched: Vec<usize>,
    /// Per destination block: the current row's edge, distinct-source and
    /// distinct-destination counts. Zero again between rows.
    counts: Vec<[u32; 3]>,
    /// Per destination block: one more than the last source counted.
    last_source: Vec<u32>,
    /// Per node: one more than the last row that counted it as a
    /// destination.
    destination_stamps: Vec<u32>,
}

impl MetaPass {
    fn new(num_nodes: usize, nodes_per_shard: usize) -> Self {
        let grid_dim = num_nodes.div_ceil(nodes_per_shard);
        Self {
            nodes_per_shard,
            metas: Vec::new(),
            edges: 0,
            row_start: 0,
            row: 0,
            touched: Vec::new(),
            counts: vec![[0; 3]; grid_dim],
            last_source: vec![0; grid_dim],
            destination_stamps: vec![0; num_nodes],
        }
    }

    fn push(&mut self, edge: Edge) {
        let row = edge.src as usize / self.nodes_per_shard;
        if row != self.row {
            self.flush_row();
            self.row = row;
        }
        let block = edge.dst as usize / self.nodes_per_shard;
        let counts = &mut self.counts[block];
        if counts[0] == 0 {
            self.touched.push(block);
        }
        // Whether the source and the destination are new to the shard is
        // data-dependent, so both are counted without branches.
        let last_source = std::mem::replace(&mut self.last_source[block], edge.src + 1);
        // Rows are node ids divided by the block size, so they fit a u32.
        let stamp = self.row as u32 + 1;
        let seen = std::mem::replace(&mut self.destination_stamps[edge.dst as usize], stamp);
        counts[0] += 1;
        counts[1] += u32::from(last_source != edge.src + 1);
        counts[2] += u32::from(seen != stamp);
        self.edges += 1;
    }

    /// Emits one [`ShardMeta`] per occupied shard of the current row, in
    /// ascending destination block order.
    fn flush_row(&mut self) {
        self.touched.sort_unstable();
        let mut offset = self.row_start;
        for &block in &self.touched {
            let [num_edges, unique_sources, unique_destinations] =
                std::mem::take(&mut self.counts[block]);
            self.metas.push(ShardMeta {
                coord: ShardCoord::new(self.row, block),
                edge_start: offset as u32,
                num_edges,
                unique_sources,
                unique_destinations,
            });
            offset += num_edges as usize;
        }
        self.touched.clear();
        self.row_start = offset;
    }
}

/// `edges` in `(src, dst)` order: borrowed when the list is already sorted,
/// a sorted copy otherwise.
fn sorted_edges(edges: &EdgeList) -> Cow<'_, [Edge]> {
    if edges.is_sorted() {
        return Cow::Borrowed(edges.as_slice());
    }
    let mut sorted = edges.as_slice().to_vec();
    sorted.sort_unstable();
    Cow::Owned(sorted)
}

/// A view of one shard of a [`ShardGrid`]: its metadata plus its run of
/// edges in the grid's resident arena.
#[derive(Debug, Clone, Copy)]
pub struct ShardView<'a> {
    coord: ShardCoord,
    meta: Option<&'a ShardMeta>,
    edges: &'a [Edge],
}

impl<'a> ShardView<'a> {
    /// The shard's grid coordinate.
    pub fn coord(&self) -> ShardCoord {
        self.coord
    }

    /// The shard's metadata, or `None` if the shard is empty.
    pub fn meta(&self) -> Option<&'a ShardMeta> {
        self.meta
    }

    /// Edges contained in the shard, sorted by `(src, dst)`.
    pub fn edges(&self) -> &'a [Edge] {
        self.edges
    }

    /// Number of edges in the shard.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the shard contains no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Number of distinct source nodes referenced by the shard's edges.
    pub fn unique_source_count(&self) -> usize {
        self.meta.map_or(0, ShardMeta::unique_source_count)
    }

    /// Number of distinct destination nodes referenced by the shard's edges.
    pub fn unique_destination_count(&self) -> usize {
        self.meta.map_or(0, ShardMeta::unique_destination_count)
    }
}

/// A [`ShardSummary`] plus its resident edge arena: the shard grid the
/// value-level executors walk edge by edge.
///
/// The timing path never needs edges and works from the summary alone; a
/// `ShardGrid` exists for the functional executor and tests, which run on
/// small graphs. It dereferences to its summary, so every grid accessor
/// (`grid_dim`, `metas`, `row_metas`, ...) is available on it.
///
/// # Examples
///
/// ```
/// use gnnerator_graph::{EdgeList, ShardGrid, TraversalOrder};
///
/// # fn main() -> Result<(), gnnerator_graph::GraphError> {
/// let edges = EdgeList::from_pairs(6, &[(0, 5), (3, 1), (5, 0), (2, 4)])?;
/// let grid = ShardGrid::build(&edges, 3)?;
/// assert_eq!(grid.grid_dim(), 2);
/// assert_eq!(grid.total_edges(), 4);
/// let walked: usize = grid
///     .occupied_traversal(TraversalOrder::DestinationStationary)
///     .map(|shard| shard.num_edges())
///     .sum();
/// assert_eq!(walked, 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardGrid {
    summary: ShardSummary,
    /// Every edge, sorted by `(src_block, dst_block, src, dst)`, so each
    /// shard's edges are one contiguous slice.
    arena: Vec<Edge>,
}

impl ShardGrid {
    /// Builds a shard grid from an edge list, with at most `nodes_per_shard`
    /// source (and destination) nodes per shard.
    ///
    /// A sorted list is summarised and scattered in place; any other list
    /// is first copied and sorted by `(src, dst)`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] if `nodes_per_shard` is zero
    /// or the edge list has no nodes.
    pub fn build(edges: &EdgeList, nodes_per_shard: usize) -> Result<Self, GraphError> {
        Self::from_sorted(edges.num_nodes(), nodes_per_shard, &sorted_edges(edges))
    }

    /// Builds a shard grid from a `(src, dst)`-sorted edge stream.
    ///
    /// # Errors
    ///
    /// Same contract as [`ShardSummary::build_streamed`].
    ///
    /// # Examples
    ///
    /// ```
    /// use gnnerator_graph::{EdgeList, ShardGrid};
    ///
    /// # fn main() -> Result<(), gnnerator_graph::GraphError> {
    /// let edges = EdgeList::from_pairs(6, &[(0, 5), (2, 4), (3, 1), (5, 0)])?;
    /// let streamed = ShardGrid::build_streamed(6, 3, edges.iter().copied())?;
    /// assert_eq!(streamed, ShardGrid::build(&edges, 3)?);
    /// # Ok(())
    /// # }
    /// ```
    pub fn build_streamed<I>(
        num_nodes: usize,
        nodes_per_shard: usize,
        edges: I,
    ) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = Edge>,
    {
        let edges: Vec<Edge> = edges.into_iter().collect();
        Self::from_sorted(num_nodes, nodes_per_shard, &edges)
    }

    /// Summarises `sorted`, then moves it into the arena with a stable
    /// scatter: each shard receives its edges in `(src, dst)` order.
    fn from_sorted(
        num_nodes: usize,
        nodes_per_shard: usize,
        sorted: &[Edge],
    ) -> Result<Self, GraphError> {
        let summary =
            ShardSummary::build_streamed(num_nodes, nodes_per_shard, sorted.iter().copied())?;
        let mut arena = vec![Edge::new(0, 0); summary.total_edges()];
        let mut cursors = vec![0usize; summary.grid_dim()];
        let mut row = None;
        for &edge in sorted {
            let src_block = edge.src as usize / nodes_per_shard;
            if row != Some(src_block) {
                row = Some(src_block);
                for meta in summary.row_metas(src_block) {
                    cursors[meta.coord.dst_block] = meta.edge_start as usize;
                }
            }
            let cursor = &mut cursors[edge.dst as usize / nodes_per_shard];
            arena[*cursor] = edge;
            *cursor += 1;
        }
        Ok(Self { summary, arena })
    }

    /// The grid's occupied-shard summary.
    pub fn summary(&self) -> &ShardSummary {
        &self.summary
    }

    /// The shared edge arena, sorted by `(src_block, dst_block, src, dst)`.
    pub fn edges(&self) -> &[Edge] {
        &self.arena
    }

    /// The edges of the shard described by `meta`.
    ///
    /// # Panics
    ///
    /// Panics if `meta` did not come from this grid and indexes out of the
    /// arena.
    pub fn edges_of(&self, meta: &ShardMeta) -> &[Edge] {
        &self.arena[meta.edge_range()]
    }

    fn view<'a>(&'a self, meta: &'a ShardMeta) -> ShardView<'a> {
        ShardView {
            coord: meta.coord,
            meta: Some(meta),
            edges: self.edges_of(meta),
        }
    }

    /// The shard at `coord` (a borrowed view; empty cells return an
    /// edge-less view rather than failing).
    ///
    /// # Panics
    ///
    /// Panics if `coord` is outside the grid.
    pub fn shard(&self, coord: ShardCoord) -> ShardView<'_> {
        match self.summary.meta(coord) {
            Some(meta) => self.view(meta),
            None => ShardView {
                coord,
                meta: None,
                edges: &[],
            },
        }
    }

    /// Iterates over the occupied shards in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = ShardView<'_>> + '_ {
        self.summary.metas.iter().map(move |meta| self.view(meta))
    }

    /// The occupied shards with their edges, in the serpentine order of
    /// [`ShardSummary::occupied_metas`].
    pub fn occupied_traversal(
        &self,
        order: TraversalOrder,
    ) -> impl Iterator<Item = ShardView<'_>> + '_ {
        self.summary
            .occupied_metas(order)
            .map(move |meta| self.view(meta))
    }
}

impl std::ops::Deref for ShardGrid {
    type Target = ShardSummary;

    fn deref(&self) -> &ShardSummary {
        &self.summary
    }
}

/// Allocation-free serpentine coordinate iterator returned by
/// [`ShardSummary::traversal`].
#[derive(Debug, Clone)]
pub struct SerpentineCoords {
    grid_dim: usize,
    order: TraversalOrder,
    next: usize,
    total: usize,
}

impl Iterator for SerpentineCoords {
    type Item = ShardCoord;

    fn next(&mut self) -> Option<ShardCoord> {
        if self.next >= self.total {
            return None;
        }
        let s = self.grid_dim;
        let outer = self.next / s;
        let raw = self.next % s;
        let inner = if outer % 2 == 0 { raw } else { s - 1 - raw };
        self.next += 1;
        Some(match self.order {
            TraversalOrder::DestinationStationary => ShardCoord::new(inner, outer),
            TraversalOrder::SourceStationary => ShardCoord::new(outer, inner),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.total - self.next;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for SerpentineCoords {}

/// Occupied-only serpentine iterator returned by
/// [`ShardSummary::occupied_metas`].
///
/// Walks the sparse row/column index group by group, reversing every other
/// group to follow the S-pattern, and yields the [`ShardMeta`] of each
/// occupied shard.
#[derive(Debug, Clone)]
pub struct OccupiedTraversal<'a> {
    summary: &'a ShardSummary,
    order: TraversalOrder,
    /// Next outer row/column group to open.
    outer: usize,
    /// Remaining entry range of the currently open group.
    group: Range<usize>,
    /// Whether the open group is consumed back to front.
    reverse: bool,
}

impl<'a> Iterator for OccupiedTraversal<'a> {
    type Item = &'a ShardMeta;

    fn next(&mut self) -> Option<&'a ShardMeta> {
        loop {
            let entry = if self.reverse {
                self.group.next_back()
            } else {
                self.group.next()
            };
            if let Some(entry) = entry {
                let summary = self.summary;
                return Some(match self.order {
                    TraversalOrder::SourceStationary => &summary.metas[entry],
                    TraversalOrder::DestinationStationary => {
                        &summary.metas[summary.col_entries[entry]]
                    }
                });
            }
            if self.outer >= self.summary.grid_dim {
                return None;
            }
            let offsets = match self.order {
                TraversalOrder::SourceStationary => &self.summary.row_offsets,
                TraversalOrder::DestinationStationary => &self.summary.col_offsets,
            };
            self.group = offsets[self.outer]..offsets[self.outer + 1];
            self.reverse = self.outer % 2 == 1;
            self.outer += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_edges() -> EdgeList {
        EdgeList::from_pairs(
            8,
            &[
                (0, 1),
                (0, 7),
                (1, 4),
                (2, 3),
                (3, 6),
                (4, 0),
                (5, 2),
                (6, 5),
                (7, 7),
                (7, 0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn build_rejects_bad_parameters() {
        let edges = sample_edges();
        assert!(ShardGrid::build(&edges, 0).is_err());
        let empty = EdgeList::new(0);
        assert!(ShardGrid::build(&empty, 4).is_err());
    }

    #[test]
    fn streamed_build_is_bit_identical_to_in_memory() {
        let mut sorted: Vec<Edge> = sample_edges().iter().copied().collect();
        sorted.sort_unstable();
        let edges = EdgeList::from_edges(8, sorted).unwrap();
        for nps in [1, 2, 3, 4, 8, 16] {
            let built = ShardGrid::build(&edges, nps).unwrap();
            let streamed =
                ShardGrid::build_streamed(edges.num_nodes(), nps, edges.iter().copied()).unwrap();
            assert_eq!(streamed, built, "nps={nps}");
        }
        // An empty sorted stream matches the edgeless build.
        let empty = EdgeList::new(5);
        assert_eq!(
            ShardGrid::build_streamed(5, 2, std::iter::empty()).unwrap(),
            ShardGrid::build(&empty, 2).unwrap()
        );
    }

    /// The historical build: one comparison sort of the whole arena by
    /// shard coordinate, then a scan that sorts each shard's destinations to
    /// count them.
    fn historical_build(edges: &EdgeList, nodes_per_shard: usize) -> (Vec<Edge>, Vec<ShardMeta>) {
        let mut arena: Vec<Edge> = edges.iter().copied().collect();
        arena.sort_unstable_by_key(|e| {
            (
                e.src as usize / nodes_per_shard,
                e.dst as usize / nodes_per_shard,
                e.src,
                e.dst,
            )
        });
        let mut metas = Vec::new();
        let mut start = 0usize;
        while start < arena.len() {
            let coord = ShardCoord::new(
                arena[start].src as usize / nodes_per_shard,
                arena[start].dst as usize / nodes_per_shard,
            );
            let mut end = start + 1;
            while end < arena.len()
                && arena[end].src as usize / nodes_per_shard == coord.src_block
                && arena[end].dst as usize / nodes_per_shard == coord.dst_block
            {
                end += 1;
            }
            let run = &arena[start..end];
            let unique_sources = 1 + run.windows(2).filter(|w| w[0].src != w[1].src).count();
            let mut dsts: Vec<NodeId> = run.iter().map(|e| e.dst).collect();
            dsts.sort_unstable();
            dsts.dedup();
            metas.push(ShardMeta::from_raw(
                coord,
                start as u32,
                (end - start) as u32,
                unique_sources as u32,
                dsts.len() as u32,
            ));
            start = end;
        }
        (arena, metas)
    }

    #[test]
    fn build_matches_the_historical_sort_and_scan() {
        // Unsorted pseudo-random multisets with duplicates and self-loops,
        // sharded at one node per shard, odd widths, exactly one shard and
        // wider than the graph: the scatter build must equal the old
        // sort-and-scan build field for field, sorted input or not.
        let mut state = 0x5eed_u64;
        for n in [1usize, 2, 9, 50, 257] {
            let mut edges = EdgeList::new(n);
            for _ in 0..n * 6 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let src = ((state >> 33) % n as u64) as NodeId;
                let dst = if state & 3 == 0 {
                    src
                } else {
                    ((state >> 13) % n as u64) as NodeId
                };
                edges.push(Edge::new(src, dst)).unwrap();
            }
            let mut sorted = edges.clone();
            sorted.symmetrize();
            sorted.add_self_loops();
            for nps in [1, 2, 7, n, n + 5] {
                for list in [&edges, &sorted] {
                    let (arena, metas) = historical_build(list, nps);
                    let grid = ShardGrid::build(list, nps).unwrap();
                    assert_eq!(grid.edges(), arena, "n {n} nps {nps}");
                    assert_eq!(grid.metas(), metas, "n {n} nps {nps}");
                }
            }
        }
    }

    #[test]
    fn streamed_build_rejects_bad_input() {
        assert!(ShardGrid::build_streamed(8, 0, std::iter::empty()).is_err());
        assert!(ShardGrid::build_streamed(0, 4, std::iter::empty()).is_err());
        // Out-of-range endpoint.
        assert!(matches!(
            ShardGrid::build_streamed(4, 2, [Edge::new(0, 4)].into_iter()),
            Err(GraphError::NodeOutOfRange { node: 4, .. })
        ));
        // Unsorted stream.
        let err = ShardGrid::build_streamed(4, 2, [Edge::new(2, 0), Edge::new(1, 3)]).unwrap_err();
        assert!(err.to_string().contains("sorted"), "{err}");
    }

    #[test]
    fn grid_dimensions() {
        let edges = sample_edges();
        let grid = ShardGrid::build(&edges, 4).unwrap();
        assert_eq!(grid.grid_dim(), 2);
        assert_eq!(grid.num_nodes(), 8);
        assert_eq!(grid.nodes_per_shard(), 4);
        let grid3 = ShardGrid::build(&edges, 3).unwrap();
        assert_eq!(grid3.grid_dim(), 3);
    }

    #[test]
    fn every_edge_lands_in_exactly_one_shard() {
        let edges = sample_edges();
        for nps in [1, 2, 3, 4, 8, 16] {
            let grid = ShardGrid::build(&edges, nps).unwrap();
            assert_eq!(
                grid.total_edges(),
                edges.num_edges(),
                "nodes_per_shard={nps}"
            );
            let from_shards: usize = grid.iter().map(|s| s.num_edges()).sum();
            assert_eq!(from_shards, edges.num_edges(), "nodes_per_shard={nps}");
        }
    }

    #[test]
    fn edges_are_placed_in_the_correct_shard() {
        let edges = sample_edges();
        let grid = ShardGrid::build(&edges, 4).unwrap();
        for shard in grid.iter() {
            assert!(!shard.is_empty(), "iter() yields only occupied shards");
            for e in shard.edges() {
                assert_eq!(e.src as usize / 4, shard.coord().src_block);
                assert_eq!(e.dst as usize / 4, shard.coord().dst_block);
            }
        }
    }

    #[test]
    fn arena_is_sorted_and_shards_are_contiguous_slices() {
        let edges = sample_edges();
        let grid = ShardGrid::build(&edges, 3).unwrap();
        let mut offset = 0;
        for meta in grid.metas() {
            let slice = grid.edges_of(meta);
            assert_eq!(slice.as_ptr(), grid.edges()[offset..].as_ptr());
            offset += slice.len();
            // Within a shard, edges are sorted by (src, dst).
            assert!(slice.windows(2).all(|w| w[0] <= w[1]));
        }
        assert_eq!(offset, grid.total_edges());
    }

    #[test]
    fn shard_edge_count_is_bounded_by_n_squared() {
        let edges = sample_edges();
        for nps in [1, 2, 4] {
            let grid = ShardGrid::build(&edges, nps).unwrap();
            assert!(grid.max_shard_edges() <= nps * nps);
        }
    }

    #[test]
    fn unique_endpoint_counts() {
        let edges = EdgeList::from_pairs(4, &[(0, 2), (0, 3), (1, 2)]).unwrap();
        let grid = ShardGrid::build(&edges, 2).unwrap();
        let shard = grid.shard(ShardCoord::new(0, 1));
        assert_eq!(shard.unique_source_count(), 2);
        assert_eq!(shard.unique_destination_count(), 2);
        assert_eq!(shard.num_edges(), 3);
        // The other three cells of the 2x2 grid are empty views.
        let empty = grid.shard(ShardCoord::new(1, 0));
        assert!(empty.is_empty());
        assert!(empty.meta().is_none());
        assert_eq!(empty.unique_source_count(), 0);
        assert_eq!(empty.unique_destination_count(), 0);
        assert_eq!(grid.occupied_shards(), 1);
    }

    #[test]
    fn meta_fetch_byte_costs() {
        let edges = EdgeList::from_pairs(4, &[(0, 2), (0, 3), (1, 2)]).unwrap();
        let grid = ShardGrid::build(&edges, 2).unwrap();
        let meta = *grid.shard(ShardCoord::new(0, 1)).meta().unwrap();
        assert_eq!(meta.edge_fetch_bytes(), 3 * BYTES_PER_EDGE);
        assert_eq!(
            meta.source_feature_bytes(64),
            2 * 64 * BYTES_PER_FEATURE_ELEMENT
        );
        assert_eq!(
            meta.destination_feature_bytes(16),
            2 * 16 * BYTES_PER_FEATURE_ELEMENT
        );
    }

    #[test]
    fn block_nodes_last_block_may_be_short() {
        let edges = EdgeList::from_pairs(7, &[(0, 6)]).unwrap();
        let grid = ShardGrid::build(&edges, 3).unwrap();
        assert_eq!(grid.grid_dim(), 3);
        assert_eq!(grid.block_nodes(0), 0..3);
        assert_eq!(grid.block_nodes(2), 6..7);
        assert_eq!(grid.block_len(2), 1);
    }

    #[test]
    fn traversal_visits_every_shard_once() {
        let edges = sample_edges();
        let grid = ShardGrid::build(&edges, 3).unwrap();
        for order in [
            TraversalOrder::SourceStationary,
            TraversalOrder::DestinationStationary,
        ] {
            let coords: Vec<ShardCoord> = grid.traversal(order).collect();
            assert_eq!(coords.len(), 9);
            assert_eq!(grid.traversal(order).len(), 9);
            let mut sorted = coords.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 9, "every coordinate visited exactly once");
        }
    }

    #[test]
    fn dst_stationary_traversal_is_column_major_serpentine() {
        let edges = sample_edges();
        let grid = ShardGrid::build(&edges, 4).unwrap();
        let coords: Vec<ShardCoord> = grid
            .traversal(TraversalOrder::DestinationStationary)
            .collect();
        assert_eq!(
            coords,
            vec![
                ShardCoord::new(0, 0),
                ShardCoord::new(1, 0),
                ShardCoord::new(1, 1),
                ShardCoord::new(0, 1),
            ]
        );
    }

    #[test]
    fn src_stationary_traversal_is_row_major_serpentine() {
        let edges = sample_edges();
        let grid = ShardGrid::build(&edges, 4).unwrap();
        let coords: Vec<ShardCoord> = grid.traversal(TraversalOrder::SourceStationary).collect();
        assert_eq!(
            coords,
            vec![
                ShardCoord::new(0, 0),
                ShardCoord::new(0, 1),
                ShardCoord::new(1, 1),
                ShardCoord::new(1, 0),
            ]
        );
    }

    #[test]
    fn occupied_traversal_is_the_serpentine_subsequence() {
        let edges = sample_edges();
        for nps in [1, 2, 3, 4] {
            let grid = ShardGrid::build(&edges, nps).unwrap();
            for order in [
                TraversalOrder::SourceStationary,
                TraversalOrder::DestinationStationary,
            ] {
                let expected: Vec<ShardCoord> = grid
                    .traversal(order)
                    .filter(|&c| !grid.shard(c).is_empty())
                    .collect();
                let occupied: Vec<ShardCoord> =
                    grid.occupied_traversal(order).map(|s| s.coord()).collect();
                assert_eq!(occupied, expected, "nps={nps} {order}");
            }
        }
    }

    #[test]
    fn rows_and_columns_index_occupied_shards() {
        let edges = sample_edges();
        let grid = ShardGrid::build(&edges, 3).unwrap();
        let mut row_total = 0;
        for src in 0..grid.grid_dim() {
            let mut prev = None;
            for meta in grid.row_metas(src) {
                assert_eq!(meta.coord().src_block, src);
                if let Some(p) = prev {
                    assert!(p < meta.coord().dst_block);
                }
                prev = Some(meta.coord().dst_block);
                row_total += meta.num_edges();
            }
        }
        assert_eq!(row_total, grid.total_edges());
        let mut col_total = 0;
        for dst in 0..grid.grid_dim() {
            let mut prev = None;
            for meta in grid.column_metas(dst) {
                assert_eq!(meta.coord().dst_block, dst);
                if let Some(p) = prev {
                    assert!(p < meta.coord().src_block);
                }
                prev = Some(meta.coord().src_block);
                col_total += meta.num_edges();
            }
        }
        assert_eq!(col_total, grid.total_edges());
    }

    #[test]
    fn occupancy_counts_non_empty_shards() {
        let edges = EdgeList::from_pairs(4, &[(0, 0), (0, 1)]).unwrap();
        let grid = ShardGrid::build(&edges, 2).unwrap();
        // Only shard (0, 0) has edges out of 4 shards.
        assert!((grid.occupancy() - 0.25).abs() < 1e-9);
        assert_eq!(grid.occupied_shards(), 1);
    }

    #[test]
    fn edgeless_graph_builds_an_empty_grid() {
        let edges = EdgeList::new(5);
        let grid = ShardGrid::build(&edges, 2).unwrap();
        assert_eq!(grid.grid_dim(), 3);
        assert_eq!(grid.occupied_shards(), 0);
        assert_eq!(grid.occupancy(), 0.0);
        assert_eq!(grid.max_shard_edges(), 0);
        assert_eq!(
            grid.occupied_traversal(TraversalOrder::default()).count(),
            0
        );
        assert_eq!(grid.traversal(TraversalOrder::default()).count(), 9);
    }

    #[test]
    fn display_impls() {
        assert_eq!(ShardCoord::new(1, 2).to_string(), "(1, 2)");
        assert_eq!(
            TraversalOrder::SourceStationary.to_string(),
            "src-stationary"
        );
        assert_eq!(
            TraversalOrder::DestinationStationary.to_string(),
            "dst-stationary"
        );
    }

    #[test]
    fn default_order_is_destination_stationary() {
        assert_eq!(
            TraversalOrder::default(),
            TraversalOrder::DestinationStationary
        );
    }

    #[test]
    fn segment_equality_and_empty_view() {
        let edges = sample_edges();
        let grid = ShardGrid::build(&edges, 4).unwrap();
        let meta = grid.metas()[0];
        let seg = grid.edges_of(&meta);
        assert_eq!(seg, grid.edges_of(&meta));
        assert_eq!(seg, grid.shard(meta.coord()).edges());
        let view = grid.shard(meta.coord());
        let cloned = view;
        assert_eq!(cloned.edges(), view.edges());
        let sparse = ShardGrid::build(&EdgeList::from_pairs(4, &[(0, 1)]).unwrap(), 2).unwrap();
        let empty = sparse.shard(ShardCoord::new(1, 0));
        assert!(empty.is_empty() && empty.meta().is_none());
        assert_eq!(empty.edges(), sparse.shard(ShardCoord::new(1, 1)).edges());
    }

    #[test]
    fn summary_does_not_depend_on_the_worker_count() {
        // Row bands at one node per shard, one shard, and wider than the
        // graph, with and without loops, on a skewed symmetric graph and on
        // an unsorted list with duplicates and loops: every worker count
        // must equal the single-pass summary of the materialised list.
        let mut state = 0x5eed_u64;
        let mut unsorted = EdgeList::new(90);
        for _ in 0..600 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let src = ((state >> 33) % 9) as NodeId * 10;
            let dst = ((state >> 13) % 90) as NodeId;
            unsorted.push(Edge::new(src, dst)).unwrap();
        }
        let skewed = crate::generators::rmat(300, 1500, 3).unwrap();
        for edges in [skewed, unsorted] {
            let n = edges.num_nodes();
            let mut looped = edges.clone();
            looped.add_self_loops();
            for nps in [1, 7, n, n + 5] {
                for (loops, materialised) in [(false, &edges), (true, &looped)] {
                    let expected = ShardGrid::build(materialised, nps)
                        .unwrap()
                        .summary()
                        .clone();
                    for workers in [1, 2, 7] {
                        let banded =
                            ShardSummary::build_with_workers(&edges, nps, loops, workers).unwrap();
                        assert_eq!(banded, expected, "n {n} nps {nps} loops {loops} x{workers}");
                    }
                }
            }
        }
    }

    #[test]
    fn virtual_self_loops_match_the_materialised_list() {
        // Unsorted input with duplicates and an existing loop: the summary's
        // on-the-fly merge must equal summarising `add_self_loops()`'s
        // sorted, deduplicated output.
        let edges =
            EdgeList::from_pairs(7, &[(5, 1), (0, 0), (3, 6), (0, 2), (5, 1), (6, 6)]).unwrap();
        let mut materialised = edges.clone();
        materialised.add_self_loops();
        for nps in [1, 2, 3, 7, 9] {
            let summary = ShardSummary::build(&edges, nps, true).unwrap();
            assert_eq!(
                summary,
                *ShardGrid::build(&materialised, nps).unwrap(),
                "nps {nps}"
            );
            assert_eq!(summary.total_edges(), materialised.num_edges());
            let plain = ShardSummary::build(&edges, nps, false).unwrap();
            assert_eq!(plain, *ShardGrid::build(&edges, nps).unwrap(), "nps {nps}");
        }
    }
}
