use crate::{Edge, EdgeList, GraphError, NodeId};
use gnnerator_observe::Recorder;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::fs::File;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
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
/// A [`ShardGrid`] stores one `ShardMeta` per non-empty grid cell. The edge
/// count and the distinct-endpoint counts are fixed at build time, so the
/// cycle/byte cost of processing a shard under any feature-block width is a
/// couple of multiplies away — the simulator's hot loop never walks edge
/// lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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

/// A shard-sized run of edges, shared with either the grid's resident arena
/// or a [`ShardWindow`] cache segment.
///
/// Dereferences to `[Edge]`. Cloning is an `Arc` bump; holding a segment
/// keeps its backing buffer alive (for a windowed grid that pins the segment
/// even across an eviction, so a consumer never observes edges change under
/// it).
#[derive(Debug, Clone)]
pub struct EdgeSegment {
    buf: Arc<Vec<Edge>>,
    start: usize,
    len: usize,
}

impl EdgeSegment {
    /// A segment covering `range` of a shared arena.
    fn slice(buf: Arc<Vec<Edge>>, range: Range<usize>) -> Self {
        debug_assert!(range.end <= buf.len());
        EdgeSegment {
            buf,
            start: range.start,
            len: range.len(),
        }
    }

    /// A segment covering an entire buffer (a faulted-in window segment).
    fn whole(buf: Arc<Vec<Edge>>) -> Self {
        let len = buf.len();
        EdgeSegment { buf, start: 0, len }
    }

    /// The canonical empty segment.
    fn empty() -> Self {
        static EMPTY: OnceLock<Arc<Vec<Edge>>> = OnceLock::new();
        EdgeSegment::whole(Arc::clone(EMPTY.get_or_init(|| Arc::new(Vec::new()))))
    }
}

impl std::ops::Deref for EdgeSegment {
    type Target = [Edge];

    fn deref(&self) -> &[Edge] {
        &self.buf[self.start..self.start + self.len]
    }
}

impl PartialEq for EdgeSegment {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for EdgeSegment {}

impl PartialEq<[Edge]> for EdgeSegment {
    fn eq(&self, other: &[Edge]) -> bool {
        **self == *other
    }
}

impl PartialEq<&[Edge]> for EdgeSegment {
    fn eq(&self, other: &&[Edge]) -> bool {
        **self == **other
    }
}

impl PartialEq<Vec<Edge>> for EdgeSegment {
    fn eq(&self, other: &Vec<Edge>) -> bool {
        **self == other[..]
    }
}

/// A shared residency budget for one or more [`ShardWindow`]s.
///
/// A session whose layers derive different shardings holds one windowed grid
/// per sharding; their windows draw from a single pool so the budget bounds
/// the *total* window residency instead of letting each window claim the
/// full budget on its own. Windows opened without an explicit pool get a
/// private one of their capacity.
pub struct WindowPool {
    /// Capacity of the pooled residency in bytes.
    cap: u64,
    /// Bytes currently reserved across every window drawing on this pool.
    resident: AtomicU64,
    /// Telemetry sink for this pool's windows. Defaults to the process
    /// global; a scoped recorder isolates this pool's counts per session.
    recorder: Recorder,
}

impl WindowPool {
    /// A fresh pool holding at most `cap` bytes of window segments,
    /// recording into the process-global telemetry.
    pub fn new(cap: u64) -> Arc<Self> {
        Self::with_recorder(cap, Recorder::default())
    }

    /// A fresh pool recording into `recorder` (and, via the recorder's
    /// parent chain, every ancestor up to the global root).
    pub fn with_recorder(cap: u64, recorder: Recorder) -> Arc<Self> {
        Arc::new(WindowPool {
            cap,
            resident: AtomicU64::new(0),
            recorder,
        })
    }

    /// The telemetry sink this pool's windows record into.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The pool's byte capacity.
    pub fn capacity(&self) -> u64 {
        self.cap
    }

    /// Bytes currently resident across the pool's windows.
    pub fn resident_bytes(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    /// Whether reserving `bytes` more would overflow the pool.
    fn over(&self, bytes: u64) -> bool {
        self.resident_bytes() + bytes > self.cap
    }

    /// Reserves `bytes` if the pool stays at or under capacity; the global
    /// window gauge mirrors every successful reservation.
    fn try_reserve(&self, bytes: u64) -> bool {
        let now = self.resident.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if now > self.cap {
            self.resident.fetch_sub(bytes, Ordering::Relaxed);
            return false;
        }
        self.recorder.window_resident_add(bytes);
        true
    }

    /// Returns `bytes` of reserved residency to the pool.
    fn release(&self, bytes: u64) {
        self.resident.fetch_sub(bytes, Ordering::Relaxed);
        self.recorder.window_resident_sub(bytes);
    }
}

impl fmt::Debug for WindowPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WindowPool")
            .field("cap", &self.cap)
            .field("resident", &self.resident_bytes())
            .finish()
    }
}

/// A bounded LRU cache of shard edge extents `pread` from a segmented v2
/// grid artifact.
///
/// This is what lets a [`ShardGrid`] simulate from disk: instead of the
/// whole sorted arena, at most a [`WindowPool`]'s capacity of shard segments
/// stay resident, keyed by their arena offset. The serpentine walk's
/// locality means a window at least one grid row wide faults each shard in
/// only once per traversal direction; anything smaller still works, it just
/// re-reads.
///
/// Fetches outside the lock may race and read the same extent twice; the
/// loser's buffer is dropped, so the cache never holds duplicates. Segments
/// larger than the whole pool are served uncached (as is everything when
/// the capacity is 0, the degenerate always-stream window), and so is any
/// extent the pool cannot fit after this window has evicted everything it
/// holds — sibling windows on the same pool never stack their budgets.
pub struct ShardWindow {
    file: File,
    path: PathBuf,
    /// Byte offset of the edge arena inside the artifact file.
    arena_offset: u64,
    /// Total edges in the on-disk arena.
    arena_len: usize,
    /// The residency budget this window draws from (possibly shared).
    pool: Arc<WindowPool>,
    state: Mutex<WindowState>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Point-in-time per-window fault statistics (see [`ShardWindow::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowStats {
    /// Extents served from resident segments.
    pub hits: u64,
    /// Extents faulted in from disk.
    pub misses: u64,
    /// Segments evicted to stay under capacity.
    pub evictions: u64,
}

#[derive(Default)]
struct WindowState {
    /// Resident segments keyed by arena edge offset.
    segments: HashMap<u32, Arc<Vec<Edge>>>,
    /// Same keys, least-recently-used first.
    lru: VecDeque<u32>,
    resident_bytes: u64,
}

impl ShardWindow {
    /// Wraps an already-validated segmented artifact, drawing residency from
    /// `pool` (shared between sibling windows, or private to this one).
    /// `arena_offset` is the byte position of the first edge record in
    /// `file`.
    pub(crate) fn with_pool(
        file: File,
        path: PathBuf,
        arena_offset: u64,
        arena_len: usize,
        pool: Arc<WindowPool>,
    ) -> Self {
        ShardWindow {
            file,
            path,
            arena_offset,
            arena_len,
            pool,
            state: Mutex::new(WindowState::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// This window's own hit/miss/eviction counts (the process-wide
    /// aggregates live in [`memory_telemetry`](crate::memory_telemetry)).
    pub fn stats(&self) -> WindowStats {
        WindowStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Total edges in the on-disk arena.
    pub fn arena_len(&self) -> usize {
        self.arena_len
    }

    /// Capacity of the window's residency pool in bytes.
    pub fn window_bytes(&self) -> u64 {
        self.pool.capacity()
    }

    /// The residency pool this window draws from.
    pub fn pool(&self) -> &Arc<WindowPool> {
        &self.pool
    }

    /// Bytes of segments currently resident in this window.
    pub fn resident_bytes(&self) -> u64 {
        self.lock().resident_bytes
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, WindowState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Returns the edges of the shard described by `meta`, faulting them in
    /// from disk on a miss and evicting least-recently-used segments to stay
    /// under `window_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if the artifact file can no longer deliver the extent (for
    /// example it was deleted mid-run). The file was fully checksum-validated
    /// when the window was opened, so this is an external interference
    /// failure, not a data-dependent one; serving workers supervise panics
    /// and degrade per-request.
    fn fetch(&self, meta: &ShardMeta) -> EdgeSegment {
        let key = meta.edge_start();
        {
            let mut state = self.lock();
            if let Some(buf) = state.segments.get(&key).cloned() {
                self.pool.recorder.note_window_hit();
                self.hits.fetch_add(1, Ordering::Relaxed);
                if let Some(pos) = state.lru.iter().position(|&k| k == key) {
                    state.lru.remove(pos);
                    state.lru.push_back(key);
                }
                return EdgeSegment::whole(buf);
            }
        }

        self.pool.recorder.note_window_miss();
        self.misses.fetch_add(1, Ordering::Relaxed);
        let buf = Arc::new(self.read_extent(meta));
        let bytes = meta.num_edges() as u64 * BYTES_PER_EDGE;
        self.pool.recorder.note_window_faulted_bytes(bytes);
        if bytes > self.pool.capacity() {
            // Too big to ever cache (or a zero-byte window): serve uncached.
            return EdgeSegment::whole(buf);
        }

        let mut state = self.lock();
        if let Some(existing) = state.segments.get(&key).cloned() {
            // A concurrent fetch of the same extent won the insert race.
            return EdgeSegment::whole(existing);
        }
        // The pool may be shared with sibling windows, so evict from this
        // window only; if the pool still cannot fit the extent (a sibling
        // holds the budget), serve it uncached — a serpentine pass touches
        // each extent once, so an uncacheable extent costs nothing beyond
        // the fault already paid.
        while self.pool.over(bytes) {
            let Some(victim) = state.lru.pop_front() else {
                break;
            };
            if let Some(evicted) = state.segments.remove(&victim) {
                let evicted_bytes = evicted.len() as u64 * BYTES_PER_EDGE;
                state.resident_bytes -= evicted_bytes;
                self.pool.recorder.note_window_eviction();
                self.evictions.fetch_add(1, Ordering::Relaxed);
                self.pool.release(evicted_bytes);
            }
        }
        if !self.pool.try_reserve(bytes) {
            return EdgeSegment::whole(buf);
        }
        state.segments.insert(key, Arc::clone(&buf));
        state.lru.push_back(key);
        state.resident_bytes += bytes;
        EdgeSegment::whole(buf)
    }

    /// `pread`s and decodes one shard extent from the artifact file.
    fn read_extent(&self, meta: &ShardMeta) -> Vec<Edge> {
        use std::os::unix::fs::FileExt;

        let offset = self.arena_offset + meta.edge_start() as u64 * BYTES_PER_EDGE;
        let mut raw = vec![0u8; meta.num_edges() * BYTES_PER_EDGE as usize];
        if let Err(err) = self.file.read_exact_at(&mut raw, offset) {
            panic!(
                "shard window lost its backing artifact {}: {err}",
                self.path.display()
            );
        }
        raw.chunks_exact(BYTES_PER_EDGE as usize)
            .map(|rec| {
                Edge::new(
                    u32::from_le_bytes([rec[0], rec[1], rec[2], rec[3]]),
                    u32::from_le_bytes([rec[4], rec[5], rec[6], rec[7]]),
                )
            })
            .collect()
    }
}

impl Drop for ShardWindow {
    fn drop(&mut self) {
        // Return the window's residency to its pool and the process-wide
        // gauge so leaked window state is observable
        // (`memory::window_resident_bytes`).
        let state = self.state.get_mut().unwrap_or_else(|e| e.into_inner());
        if state.resident_bytes > 0 {
            self.pool.release(state.resident_bytes);
        }
    }
}

impl fmt::Debug for ShardWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardWindow")
            .field("path", &self.path)
            .field("arena_offset", &self.arena_offset)
            .field("arena_len", &self.arena_len)
            .field("window_bytes", &self.pool.capacity())
            .field("resident_bytes", &self.resident_bytes())
            .finish()
    }
}

/// Where a grid's edge arena lives: fully resident in memory, or behind a
/// bounded [`ShardWindow`] over the segmented artifact file.
#[derive(Debug, Clone)]
enum EdgeStore {
    Resident(Arc<Vec<Edge>>),
    Windowed(Arc<ShardWindow>),
}

/// A view of one shard: its metadata plus its run of edges.
///
/// Produced by [`ShardGrid::shard`], [`ShardGrid::iter`] and
/// [`ShardGrid::occupied_traversal`]. For a resident grid the edges alias
/// the shared arena (no copy); for a windowed grid they pin the shard's
/// cached window segment. Cloning a view is an `Arc` bump either way.
#[derive(Debug, Clone)]
pub struct ShardView<'a> {
    coord: ShardCoord,
    meta: Option<&'a ShardMeta>,
    edges: EdgeSegment,
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
    pub fn edges(&self) -> &[Edge] {
        &self.edges
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

/// A GridGraph-style two-dimensional shard grid (Figure 1), stored sparsely.
///
/// The node id space is cut into `grid_dim` contiguous blocks of at most
/// `nodes_per_shard` nodes; shard `(i, j)` holds every edge whose source lies
/// in block `i` and whose destination lies in block `j`. Each shard therefore
/// contains at most `nodes_per_shard²` edges, matching the paper's "maximum
/// of n² edges" definition.
///
/// Real graphs sharded this way are extremely sparse at the shard level —
/// most of the `S²` cells hold no edges — so the grid never materialises
/// per-cell storage. Instead it keeps:
///
/// * one **edge arena**: every edge, sorted by `(src_block, dst_block, src,
///   dst)`, so each shard's edges are one contiguous slice;
/// * one [`ShardMeta`] per *occupied* shard (row-major), carrying the edge
///   count, distinct-endpoint counts and arena offset;
/// * CSR-style offset indexes over both grid axes (`row_offsets` for
///   source-stationary walks, `col_offsets`/`col_entries` for
///   destination-stationary walks), so traversals touch only occupied cells.
///
/// Memory is `O(E + occupied + S)` instead of the dense `O(S² + E)` (with a
/// second edge copy) a `Vec<Shard>` layout costs.
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
/// // The four edges land in two of the four grid cells; the occupancy-aware
/// // walk visits only those.
/// assert_eq!(grid.occupied_shards(), 2);
/// let visited: Vec<_> = grid.traversal(TraversalOrder::DestinationStationary).collect();
/// assert_eq!(visited.len(), 4);
/// assert_eq!(grid.occupied_traversal(TraversalOrder::DestinationStationary).count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardGrid {
    num_nodes: usize,
    nodes_per_shard: usize,
    grid_dim: usize,
    /// Every edge, sorted by `(src_block, dst_block, src, dst)` — resident
    /// in memory or behind a bounded shard window over the artifact file.
    store: EdgeStore,
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

impl ShardGrid {
    /// Builds a shard grid from an edge list, with at most `nodes_per_shard`
    /// source (and destination) nodes per shard.
    ///
    /// A sorted list (the generators' normal output) streams straight into
    /// [`ShardGrid::build_streamed`]; any other list is first copied and
    /// sorted by `(src, dst)`, then takes the same single pass.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] if `nodes_per_shard` is zero
    /// or the edge list has no nodes.
    pub fn build(edges: &EdgeList, nodes_per_shard: usize) -> Result<Self, GraphError> {
        if edges.is_sorted() {
            return Self::build_streamed(edges.num_nodes(), nodes_per_shard, edges.iter().copied());
        }
        let mut canonical: Vec<Edge> = edges.iter().copied().collect();
        canonical.sort_unstable();
        Self::build_streamed(edges.num_nodes(), nodes_per_shard, canonical)
    }

    /// Builds a shard grid from a `(src, dst)`-sorted edge *stream* without
    /// ever materialising a full [`EdgeList`], in one linear pass.
    ///
    /// A `(src, dst)`-sorted stream delivers edges grouped by contiguous
    /// source block, so the builder buffers one source-block *row* at a
    /// time. A stable counting scatter by destination block moves the row
    /// into the arena in `(dst_block, src, dst)` order, completing the
    /// arena's `(src_block, dst_block, src, dst)` order. Each shard's
    /// distinct sources then fall out of adjacent comparisons, and its
    /// distinct destinations out of a per-node stamp array. Peak transient
    /// memory is one row, not the whole edge list.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] if `nodes_per_shard` is
    /// zero, `num_nodes` is zero, the stream is not sorted by `(src, dst)`,
    /// or the edge count exceeds the 32-bit arena index space, and
    /// [`GraphError::NodeOutOfRange`] for an endpoint `>= num_nodes`.
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
        if nodes_per_shard == 0 {
            return Err(GraphError::invalid("nodes_per_shard", "must be positive"));
        }
        if num_nodes == 0 {
            return Err(GraphError::invalid("edges", "graph has no nodes"));
        }

        let edges = edges.into_iter();
        let mut rows = RowScatter::new(num_nodes, nodes_per_shard, edges.size_hint().0);
        let mut row_block = 0usize;
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
            if rows.arena.len() + rows.row.len() >= u32::MAX as usize {
                return Err(GraphError::invalid(
                    "edges",
                    "edge count exceeds the 32-bit arena index space",
                ));
            }
            let block = edge.src as usize / nodes_per_shard;
            if rows.row.is_empty() {
                row_block = block;
            } else if block != row_block {
                rows.flush(row_block);
                row_block = block;
            }
            rows.row.push(edge);
        }
        rows.flush(row_block);

        Ok(Self::assemble(
            num_nodes,
            nodes_per_shard,
            rows.arena,
            rows.metas,
        ))
    }

    /// Assembles a grid from a sorted arena and its row-major occupied-shard
    /// metadata, rebuilding the CSR-style row/column indexes. Shared by
    /// [`ShardGrid::build`] and the artifact cache's deserialiser (the
    /// indexes are cheap linear passes, so they are recomputed rather than
    /// stored).
    pub(crate) fn assemble(
        num_nodes: usize,
        nodes_per_shard: usize,
        arena: Vec<Edge>,
        metas: Vec<ShardMeta>,
    ) -> Self {
        Self::assemble_store(
            num_nodes,
            nodes_per_shard,
            EdgeStore::Resident(Arc::new(arena)),
            metas,
        )
    }

    /// Assembles a *windowed* grid over a validated segmented artifact: same
    /// metadata and indexes as [`ShardGrid::assemble`], but shard edges are
    /// faulted in through `window` on demand instead of living in memory.
    pub(crate) fn assemble_windowed(
        num_nodes: usize,
        nodes_per_shard: usize,
        window: ShardWindow,
        metas: Vec<ShardMeta>,
    ) -> Self {
        Self::assemble_store(
            num_nodes,
            nodes_per_shard,
            EdgeStore::Windowed(Arc::new(window)),
            metas,
        )
    }

    fn assemble_store(
        num_nodes: usize,
        nodes_per_shard: usize,
        store: EdgeStore,
        metas: Vec<ShardMeta>,
    ) -> Self {
        let grid_dim = num_nodes.div_ceil(nodes_per_shard);

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
            store,
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
        match &self.store {
            EdgeStore::Resident(arena) => arena.len(),
            EdgeStore::Windowed(window) => window.arena_len(),
        }
    }

    /// Number of shards that contain at least one edge.
    pub fn occupied_shards(&self) -> usize {
        self.metas.len()
    }

    /// `true` when this grid simulates from disk through a bounded
    /// [`ShardWindow`] instead of a resident edge arena.
    pub fn is_windowed(&self) -> bool {
        matches!(self.store, EdgeStore::Windowed(_))
    }

    /// The backing shard window of a windowed grid, or `None` when the
    /// arena is resident.
    pub fn window(&self) -> Option<&ShardWindow> {
        match &self.store {
            EdgeStore::Resident(_) => None,
            EdgeStore::Windowed(window) => Some(window),
        }
    }

    /// The shared edge arena, sorted by `(src_block, dst_block, src, dst)`.
    ///
    /// # Panics
    ///
    /// Panics for a windowed grid, which never materialises the whole arena;
    /// walk shards via [`ShardGrid::edges_of`] or
    /// [`ShardGrid::occupied_traversal`] instead (or check
    /// [`ShardGrid::is_windowed`] first).
    pub fn edges(&self) -> &[Edge] {
        self.resident_edges().expect(
            "windowed ShardGrid does not expose the whole edge arena; \
             iterate shards via edges_of/occupied_traversal",
        )
    }

    /// The resident edge arena, or `None` for a windowed grid.
    pub(crate) fn resident_edges(&self) -> Option<&[Edge]> {
        match &self.store {
            EdgeStore::Resident(arena) => Some(arena),
            EdgeStore::Windowed(_) => None,
        }
    }

    /// Metadata of every occupied shard, row-major.
    pub fn metas(&self) -> &[ShardMeta] {
        &self.metas
    }

    /// The edges of the shard described by `meta`, sharing the resident
    /// arena or faulting the extent in through the shard window.
    ///
    /// # Panics
    ///
    /// Panics if `meta` did not come from this grid and indexes out of the
    /// arena, or if a windowed grid's backing artifact disappeared mid-run.
    pub fn edges_of(&self, meta: &ShardMeta) -> EdgeSegment {
        match &self.store {
            EdgeStore::Resident(arena) => EdgeSegment::slice(Arc::clone(arena), meta.edge_range()),
            EdgeStore::Windowed(window) => window.fetch(meta),
        }
    }

    /// Streams the shard's edge extent into residency: a no-op for a
    /// resident grid, a window fetch (hit or fault) for a windowed one.
    ///
    /// The timing simulator calls this where the hardware's graph engine
    /// would stream the shard's edges, so a windowed simulation actually
    /// pays — and meters — the disk traffic of its serpentine walk, while
    /// the resident path stays untouched.
    pub fn touch(&self, meta: &ShardMeta) {
        if let EdgeStore::Windowed(window) = &self.store {
            drop(window.fetch(meta));
        }
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

    /// The shard at `coord` (a borrowed view; empty cells return an
    /// edge-less view rather than failing).
    ///
    /// # Panics
    ///
    /// Panics if `coord` is outside the grid.
    pub fn shard(&self, coord: ShardCoord) -> ShardView<'_> {
        assert!(
            coord.src_block < self.grid_dim && coord.dst_block < self.grid_dim,
            "shard {coord} out of range for {0}x{0} grid",
            self.grid_dim
        );
        match self
            .row_metas(coord.src_block)
            .binary_search_by_key(&coord.dst_block, |m| m.coord.dst_block)
        {
            Ok(offset) => {
                let meta = &self.row_metas(coord.src_block)[offset];
                ShardView {
                    coord,
                    meta: Some(meta),
                    edges: self.edges_of(meta),
                }
            }
            Err(_) => ShardView {
                coord,
                meta: None,
                edges: EdgeSegment::empty(),
            },
        }
    }

    /// Iterates over the occupied shards in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = ShardView<'_>> + '_ {
        self.metas.iter().map(move |meta| ShardView {
            coord: meta.coord,
            meta: Some(meta),
            edges: self.edges_of(meta),
        })
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
    /// [`ShardGrid::occupied_traversal`].
    pub fn traversal(&self, order: TraversalOrder) -> SerpentineCoords {
        SerpentineCoords {
            grid_dim: self.grid_dim,
            order,
            next: 0,
            total: self.grid_dim * self.grid_dim,
        }
    }

    /// Returns the *occupied* shards in the same S-pattern order as
    /// [`ShardGrid::traversal`], skipping empty cells via the sparse index.
    ///
    /// This is the subsequence of the full serpentine walk restricted to
    /// shards that actually contain edges, so any consumer for whom empty
    /// shards are no-ops (the timing simulator, the functional executor)
    /// observes an identical processing order at `O(occupied + S)` cost
    /// instead of `O(S²)`.
    pub fn occupied_traversal(&self, order: TraversalOrder) -> OccupiedTraversal<'_> {
        OccupiedTraversal {
            grid: self,
            order,
            outer: 0,
            group: 0..0,
            reverse: false,
        }
    }
}

/// The state of [`ShardGrid::build_streamed`]'s single pass: the arena and
/// metadata built so far, the source-block row being buffered, and the
/// scratch its counting scatter and distinct-destination counts reuse.
struct RowScatter {
    nodes_per_shard: usize,
    arena: Vec<Edge>,
    metas: Vec<ShardMeta>,
    /// Edges of the current source-block row, sorted by `(src, dst)`.
    row: Vec<Edge>,
    /// Per destination block: the row's edge count, then the scatter
    /// cursor. Zero again between rows.
    block_slots: Vec<usize>,
    /// Destination blocks the current row touches.
    touched: Vec<usize>,
    /// Per node offset within a block: one more than the index of the last
    /// shard that counted it, so no reset is needed between shards.
    stamps: Vec<u32>,
}

impl RowScatter {
    fn new(num_nodes: usize, nodes_per_shard: usize, edges_hint: usize) -> Self {
        Self {
            nodes_per_shard,
            arena: Vec::with_capacity(edges_hint),
            metas: Vec::new(),
            row: Vec::new(),
            block_slots: vec![0; num_nodes.div_ceil(nodes_per_shard)],
            touched: Vec::new(),
            stamps: vec![0; nodes_per_shard.min(num_nodes)],
        }
    }

    /// Moves the buffered row of `src_block` into the arena in destination
    /// block order and emits one [`ShardMeta`] per occupied shard.
    fn flush(&mut self, src_block: usize) {
        if self.row.is_empty() {
            return;
        }
        let nps = self.nodes_per_shard;
        for edge in &self.row {
            let block = edge.dst as usize / nps;
            if self.block_slots[block] == 0 {
                self.touched.push(block);
            }
            self.block_slots[block] += 1;
        }
        self.touched.sort_unstable();

        // Counts become arena offsets, in ascending destination block order.
        let first_meta = self.metas.len();
        let mut offset = self.arena.len();
        for &block in &self.touched {
            let count = self.block_slots[block];
            self.metas.push(ShardMeta {
                coord: ShardCoord::new(src_block, block),
                edge_start: offset as u32,
                num_edges: count as u32,
                unique_sources: 0,
                unique_destinations: 0,
            });
            self.block_slots[block] = offset;
            offset += count;
        }

        // Stable scatter: each shard receives its edges in (src, dst) order.
        self.arena.resize(offset, Edge::new(0, 0));
        for &edge in &self.row {
            let slot = &mut self.block_slots[edge.dst as usize / nps];
            self.arena[*slot] = edge;
            *slot += 1;
        }

        for (index, meta) in self.metas.iter_mut().enumerate().skip(first_meta) {
            let run = &self.arena[meta.edge_range()];
            let block_start = meta.coord.dst_block * nps;
            // Shard indexes stay below the u32 arena bound checked per edge.
            let stamp = index as u32 + 1;
            let mut unique_destinations = 0u32;
            for edge in run {
                let seen = &mut self.stamps[edge.dst as usize - block_start];
                if *seen != stamp {
                    *seen = stamp;
                    unique_destinations += 1;
                }
            }
            meta.unique_sources =
                1 + run.windows(2).filter(|w| w[0].src != w[1].src).count() as u32;
            meta.unique_destinations = unique_destinations;
        }

        for &block in &self.touched {
            self.block_slots[block] = 0;
        }
        self.touched.clear();
        self.row.clear();
    }
}

impl PartialEq for ShardGrid {
    /// Logical equality: same sharding parameters, same occupied-shard
    /// metadata, same edges shard by shard. A windowed grid compares equal
    /// to the resident grid it was serialised from (comparing one faults
    /// its shards through the window).
    fn eq(&self, other: &Self) -> bool {
        if self.num_nodes != other.num_nodes
            || self.nodes_per_shard != other.nodes_per_shard
            || self.grid_dim != other.grid_dim
            || self.metas != other.metas
        {
            return false;
        }
        // The CSR indexes are derived from the metas, so they need no
        // separate comparison.
        match (&self.store, &other.store) {
            (EdgeStore::Resident(a), EdgeStore::Resident(b)) => a == b,
            _ => {
                self.total_edges() == other.total_edges()
                    && self
                        .metas
                        .iter()
                        .all(|meta| self.edges_of(meta) == other.edges_of(meta))
            }
        }
    }
}

impl Eq for ShardGrid {}

/// Allocation-free serpentine coordinate iterator returned by
/// [`ShardGrid::traversal`].
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

/// Occupied-only serpentine shard iterator returned by
/// [`ShardGrid::occupied_traversal`].
///
/// Walks the sparse row/column index group by group, reversing every other
/// group to follow the S-pattern, and yields a [`ShardView`] per occupied
/// shard.
#[derive(Debug, Clone)]
pub struct OccupiedTraversal<'a> {
    grid: &'a ShardGrid,
    order: TraversalOrder,
    /// Next outer row/column group to open.
    outer: usize,
    /// Remaining entry range of the currently open group.
    group: Range<usize>,
    /// Whether the open group is consumed back to front.
    reverse: bool,
}

impl<'a> OccupiedTraversal<'a> {
    fn meta_at(&self, entry: usize) -> &'a ShardMeta {
        match self.order {
            TraversalOrder::SourceStationary => &self.grid.metas[entry],
            TraversalOrder::DestinationStationary => &self.grid.metas[self.grid.col_entries[entry]],
        }
    }
}

impl<'a> Iterator for OccupiedTraversal<'a> {
    type Item = ShardView<'a>;

    fn next(&mut self) -> Option<ShardView<'a>> {
        loop {
            if !self.group.is_empty() {
                let entry = if self.reverse {
                    self.group.end -= 1;
                    self.group.end
                } else {
                    let e = self.group.start;
                    self.group.start += 1;
                    e
                };
                let meta = self.meta_at(entry);
                return Some(ShardView {
                    coord: meta.coord,
                    meta: Some(meta),
                    edges: self.grid.edges_of(meta),
                });
            }
            if self.outer >= self.grid.grid_dim {
                return None;
            }
            let offsets = match self.order {
                TraversalOrder::SourceStationary => &self.grid.row_offsets,
                TraversalOrder::DestinationStationary => &self.grid.col_offsets,
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
    fn historical_build(edges: &EdgeList, nodes_per_shard: usize) -> ShardGrid {
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
        ShardGrid::assemble(edges.num_nodes(), nodes_per_shard, arena, metas)
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
                    let expected = historical_build(list, nps);
                    assert_eq!(
                        ShardGrid::build(list, nps).unwrap(),
                        expected,
                        "n {n} nps {nps}"
                    );
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

    /// Writes `grid`'s arena as raw little-endian records (prefixed by
    /// `lead` filler bytes) and opens a [`ShardWindow`] over it.
    fn window_over(grid: &ShardGrid, lead: u64, window_bytes: u64) -> ShardWindow {
        use std::io::Write;
        use std::sync::atomic::{AtomicU64, Ordering};

        static NONCE: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "gnnerator-shard-window-{}-{}.arena",
            std::process::id(),
            NONCE.fetch_add(1, Ordering::Relaxed)
        ));
        let mut file = std::fs::File::create(&path).unwrap();
        file.write_all(&vec![0u8; lead as usize]).unwrap();
        for edge in grid.edges() {
            file.write_all(&edge.src.to_le_bytes()).unwrap();
            file.write_all(&edge.dst.to_le_bytes()).unwrap();
        }
        file.flush().unwrap();
        drop(file);
        let file = std::fs::File::open(&path).unwrap();
        // The file is open; unlink so the temp dir stays clean regardless of
        // test outcome (Unix keeps the inode alive).
        let _ = std::fs::remove_file(&path);
        ShardWindow::with_pool(
            file,
            path,
            lead,
            grid.total_edges(),
            WindowPool::new(window_bytes),
        )
    }

    fn windowed_clone(grid: &ShardGrid, window_bytes: u64) -> ShardGrid {
        ShardGrid::assemble_windowed(
            grid.num_nodes(),
            grid.nodes_per_shard(),
            window_over(grid, 96, window_bytes),
            grid.metas().to_vec(),
        )
    }

    #[test]
    fn sibling_windows_split_one_pool_instead_of_stacking_budgets() {
        let edges = sample_edges();
        let resident = ShardGrid::build(&edges, 3).unwrap();
        let arena_bytes = resident.total_edges() as u64 * BYTES_PER_EDGE;
        let pool = WindowPool::new(arena_bytes);
        let sibling = |g: &ShardGrid| {
            let mut window = window_over(g, 96, 0);
            window.pool = Arc::clone(&pool);
            ShardGrid::assemble_windowed(
                g.num_nodes(),
                g.nodes_per_shard(),
                window,
                g.metas().to_vec(),
            )
        };
        // The first sibling's walk fills the whole pool.
        let first = sibling(&resident);
        assert_eq!(first, resident);
        assert_eq!(pool.resident_bytes(), arena_bytes);
        // The second sibling finds the pool full, evicts nothing it owns,
        // serves every extent uncached — and stays bit-identical.
        let second = sibling(&resident);
        assert_eq!(second, resident);
        assert_eq!(second.window().unwrap().resident_bytes(), 0);
        assert_eq!(second.window().unwrap().stats().evictions, 0);
        assert_eq!(pool.resident_bytes(), arena_bytes);
        // Dropping the full sibling frees the pool for the other one.
        drop(first);
        assert_eq!(pool.resident_bytes(), 0);
        assert_eq!(second, resident);
        assert_eq!(second.window().unwrap().resident_bytes(), arena_bytes);
    }

    #[test]
    fn windowed_grid_is_bit_identical_to_resident() {
        let edges = sample_edges();
        let resident = ShardGrid::build(&edges, 3).unwrap();
        let max_shard_bytes = resident.max_shard_edges() as u64 * BYTES_PER_EDGE;
        for window_bytes in [0, max_shard_bytes, 1 << 20] {
            let windowed = windowed_clone(&resident, window_bytes);
            assert!(windowed.is_windowed());
            assert!(!resident.is_windowed());
            assert_eq!(windowed.total_edges(), resident.total_edges());
            assert_eq!(windowed, resident, "window_bytes={window_bytes}");
            for order in [
                TraversalOrder::SourceStationary,
                TraversalOrder::DestinationStationary,
            ] {
                let walk = |g: &ShardGrid| -> Vec<(ShardCoord, Vec<Edge>)> {
                    g.occupied_traversal(order)
                        .map(|s| (s.coord(), s.edges().to_vec()))
                        .collect()
                };
                assert_eq!(
                    walk(&windowed),
                    walk(&resident),
                    "window_bytes={window_bytes} {order}"
                );
            }
        }
    }

    #[test]
    fn tight_window_evicts_and_repeated_walks_hit() {
        let edges = sample_edges();
        let resident = ShardGrid::build(&edges, 1).unwrap();
        let occupied = resident.occupied_shards() as u64;
        assert!(occupied > 2);
        // Window fits exactly one single-edge shard: every new shard evicts.
        let windowed = windowed_clone(&resident, BYTES_PER_EDGE);
        let global_before = crate::memory::memory_telemetry();
        assert_eq!(windowed, resident);
        let stats = windowed.window().unwrap().stats();
        assert_eq!(stats.misses, occupied);
        assert_eq!(stats.evictions, occupied - 1);
        // The global aggregates move in lockstep (other tests may add more).
        let global_after = crate::memory::memory_telemetry();
        assert!(global_after.window_misses >= global_before.window_misses + stats.misses);
        assert!(global_after.window_evictions >= global_before.window_evictions + stats.evictions);
        assert!(
            global_after.window_faulted_bytes
                >= global_before.window_faulted_bytes + occupied * BYTES_PER_EDGE
        );

        // A window big enough for everything faults each shard once, then
        // serves the second walk entirely from residency.
        let roomy = windowed_clone(&resident, 1 << 20);
        let drain = |g: &ShardGrid| {
            g.occupied_traversal(TraversalOrder::default())
                .map(|s| s.num_edges())
                .sum::<usize>()
        };
        drain(&roomy);
        drain(&roomy);
        let warm = roomy.window().unwrap().stats();
        assert_eq!(warm.misses, occupied);
        assert_eq!(warm.evictions, 0);
        assert_eq!(warm.hits, occupied);
    }

    #[test]
    fn dropping_a_window_returns_its_resident_bytes() {
        let edges = sample_edges();
        let resident = ShardGrid::build(&edges, 3).unwrap();
        let windowed = windowed_clone(&resident, 1 << 20);
        assert_eq!(windowed, resident);
        let held = windowed.window().unwrap().resident_bytes();
        assert_eq!(held, resident.total_edges() as u64 * BYTES_PER_EDGE);
        // The process-wide gauge holds at least this window's bytes; exact
        // return-to-baseline is asserted by the single-window integration
        // test (tests/shard_window.rs), where no parallel test races the
        // gauge.
        assert!(crate::memory::window_resident_bytes() >= held);
        drop(windowed);
    }

    #[test]
    fn segment_equality_and_empty_view() {
        let edges = sample_edges();
        let grid = ShardGrid::build(&edges, 4).unwrap();
        let meta = grid.metas()[0];
        let seg = grid.edges_of(&meta);
        assert_eq!(seg, grid.edges_of(&meta));
        assert_eq!(seg, seg.to_vec());
        assert_eq!(seg, *grid.edges_of(&meta));
        let view = grid.shard(meta.coord());
        let cloned = view.clone();
        assert_eq!(cloned.edges(), view.edges());
    }
}
