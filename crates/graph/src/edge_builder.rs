//! Streaming, chunked edge-list construction.
//!
//! Generators *stream* edges into the [`EdgeListBuilder`], which seals them
//! into fixed-capacity chunks. A symmetric pair streamed with
//! [`EdgeListBuilder::push_symmetric`] is recorded once, in a chunk marked
//! symmetric, and stands for both directions; every consumer of the chunk
//! expands it.
//!
//! [`EdgeListBuilder::finish`] then produces one sorted, duplicate-free
//! [`EdgeList`] with a counting sort by source (see
//! [`sort_dedup_by_source`]): every edge's destination is scattered into
//! its source's row of one `u32` buffer, and each row is deduplicated on
//! its own — `O(V + E)` plus per-row sorts of short rows, with no
//! comparison sort over whole edges. The scatter cuts the rows into bands
//! of near-equal candidate counts, one per worker; the dedup cuts them
//! again by its own cost.
//!
//! Only a short row, one with fewer than `num_nodes / 4096` candidates, is
//! sorted. Every longer row (R-MAT's hub rows and its mid-length rows) is
//! deduplicated through two bitmaps of the worker's: each destination sets
//! its bit in a `num_nodes`-bit bitmap and, in a summary bitmap with one
//! bit per bitmap word, the bit of that word. The summary is then read in
//! ascending order, and only the bitmap words it marks are read back and
//! cleared. That writes the same sorted, distinct row as a sort and dedup.
//! Reading the summary costs `num_nodes / 4096` words per row, so the
//! threshold scales with the node count rather than being a fixed row
//! length.
//!
//! The output is bit-identical to `collect → sort_unstable → dedup` on the
//! same edge multiset (the property tests pin this), at any worker count,
//! so the generators' seeded determinism is preserved.

use crate::parallel::{even_bounds, run_bands, split_bands, weighted_bounds, workers_for};
use crate::{Edge, EdgeList, GraphError, NodeId};
use std::ops::Range;

/// Edge records per chunk by default (32 MiB). An allocation this size is
/// mapped and unmapped whole by the system allocator, so the chunks the
/// counting sort frees go back to the OS instead of lingering as heap that
/// the sort's own large buffers cannot reuse.
const CHUNK_CAPACITY: usize = 1 << 22;

/// A sealed run of edge records. A symmetric chunk holds each pair once
/// and stands for the pair and its reverse.
#[derive(Debug)]
#[cfg_attr(test, derive(PartialEq))]
struct Chunk {
    edges: Vec<Edge>,
    symmetric: bool,
}

impl Chunk {
    /// A chunk of plain directed edges.
    fn directed(edges: Vec<Edge>) -> Self {
        Self {
            edges,
            symmetric: false,
        }
    }

    /// Directed edges this chunk stands for.
    fn directed_len(&self) -> usize {
        self.edges.len() << usize::from(self.symmetric)
    }

    /// Calls `f` on every directed edge the chunk stands for.
    fn for_each_directed(&self, mut f: impl FnMut(Edge)) {
        for &edge in &self.edges {
            f(edge);
            if self.symmetric {
                f(edge.reversed());
            }
        }
    }
}

/// A streaming builder that accumulates edges in in-memory chunks and
/// turns them into a canonical (sorted, deduplicated) [`EdgeList`].
///
/// # Examples
///
/// ```
/// use gnnerator_graph::{Edge, EdgeListBuilder};
///
/// # fn main() -> Result<(), gnnerator_graph::GraphError> {
/// let mut builder = EdgeListBuilder::new(4);
/// builder.push(Edge::new(2, 1))?;
/// builder.push(Edge::new(0, 3))?;
/// builder.push(Edge::new(2, 1))?; // duplicate, removed on finish
/// let edges = builder.finish();
/// assert_eq!(edges.as_slice(), &[Edge::new(0, 3), Edge::new(2, 1)]);
/// assert!(edges.is_sorted());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
#[cfg_attr(test, derive(PartialEq))]
pub struct EdgeListBuilder {
    num_nodes: usize,
    /// Records per chunk.
    chunk_capacity: usize,
    /// Sealed, still-unsorted chunks.
    chunks: Vec<Chunk>,
    /// The directed chunk currently being filled.
    current: Vec<Edge>,
    /// The symmetric chunk currently being filled (one record per pair).
    current_symmetric: Vec<Edge>,
    /// Directed edges sealed so far.
    sealed_edges: usize,
}

impl EdgeListBuilder {
    /// Creates a builder for a graph over `num_nodes` nodes with the
    /// default chunk capacity (32 MiB chunks).
    pub fn new(num_nodes: usize) -> Self {
        Self::with_chunk_capacity(num_nodes, CHUNK_CAPACITY)
    }

    /// Creates a builder with an explicit chunk capacity in edge records
    /// (clamped to at least 1). Small capacities are useful in tests to
    /// force many chunks.
    pub fn with_chunk_capacity(num_nodes: usize, chunk_capacity: usize) -> Self {
        Self {
            num_nodes,
            chunk_capacity: chunk_capacity.max(1),
            chunks: Vec::new(),
            current: Vec::new(),
            current_symmetric: Vec::new(),
            sealed_edges: 0,
        }
    }

    /// A builder for one of the concurrent workers feeding this one: same
    /// graph and chunk size.
    pub(crate) fn band_builder(&self) -> Self {
        Self::with_chunk_capacity(self.num_nodes, self.chunk_capacity)
    }

    /// Takes over every edge of a band builder: its open chunks are sealed,
    /// then its chunks join this builder's.
    pub(crate) fn absorb(&mut self, mut band: EdgeListBuilder) {
        band.seal_open_chunks();
        self.sealed_edges += band.sealed_edges;
        self.chunks.append(&mut band.chunks);
    }

    /// Number of nodes the builder validates endpoints against.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Total number of raw (pre-dedup) directed edges streamed in so far; a
    /// symmetric pair counts as two.
    pub fn len(&self) -> usize {
        self.sealed_edges + self.current.len() + 2 * self.current_symmetric.len()
    }

    /// Returns `true` if no edges have been streamed in.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn check_endpoints(&self, edge: Edge) -> Result<(), GraphError> {
        for node in [edge.src, edge.dst] {
            if node as usize >= self.num_nodes {
                return Err(GraphError::NodeOutOfRange {
                    node,
                    num_nodes: self.num_nodes,
                });
            }
        }
        Ok(())
    }

    /// Streams one edge into the builder.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if an endpoint is
    /// `>= num_nodes`.
    pub fn push(&mut self, edge: Edge) -> Result<(), GraphError> {
        self.check_endpoints(edge)?;
        if self.current.capacity() == 0 {
            self.current.reserve_exact(self.open_chunk_capacity());
        }
        self.current.push(edge);
        if self.current.len() >= self.chunk_capacity {
            let full = std::mem::take(&mut self.current);
            self.seal(Chunk::directed(full));
        }
        Ok(())
    }

    /// Streams an edge and its reverse — the building block of symmetric
    /// (undirected-semantics) graphs, replacing a post-hoc
    /// [`EdgeList::symmetrize`] pass over the full list. The pair is stored
    /// once; both directions are counted and scattered on finish.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if an endpoint is out of range.
    pub fn push_symmetric(&mut self, edge: Edge) -> Result<(), GraphError> {
        self.check_endpoints(edge)?;
        if self.current_symmetric.capacity() == 0 {
            self.current_symmetric
                .reserve_exact(self.open_chunk_capacity());
        }
        self.current_symmetric.push(edge);
        if self.current_symmetric.len() >= self.chunk_capacity {
            let edges = std::mem::take(&mut self.current_symmetric);
            self.seal(Chunk {
                edges,
                symmetric: true,
            });
        }
        Ok(())
    }

    /// Records an open chunk is allocated for up front, so it fills without
    /// reallocating (capped for huge test capacities).
    fn open_chunk_capacity(&self) -> usize {
        self.chunk_capacity.min(CHUNK_CAPACITY)
    }

    /// Seals both open chunks, if they hold anything.
    fn seal_open_chunks(&mut self) {
        let directed = std::mem::take(&mut self.current);
        let symmetric = std::mem::take(&mut self.current_symmetric);
        for chunk in [
            Chunk::directed(directed),
            Chunk {
                edges: symmetric,
                symmetric: true,
            },
        ] {
            if !chunk.edges.is_empty() {
                self.seal(chunk);
            }
        }
    }

    /// Seals one chunk.
    fn seal(&mut self, chunk: Chunk) {
        self.sealed_edges += chunk.directed_len();
        self.chunks.push(chunk);
    }

    /// Returns the canonical edge list: sorted by `(src, dst)`, duplicates
    /// removed, by a counting sort by source in row bands on as many
    /// workers as the input warrants.
    ///
    /// Self-loops are *kept* (the builder is policy-free); generators that
    /// need simple graphs simply never stream self-loops in.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::BuildWorker`] if a sort worker fails.
    pub fn try_finish(self) -> Result<EdgeList, GraphError> {
        let workers = workers_for(self.len());
        self.try_finish_with_workers(workers)
    }

    /// [`EdgeListBuilder::try_finish`] with an explicit worker count for
    /// the counting sort.
    pub(crate) fn try_finish_with_workers(self, workers: usize) -> Result<EdgeList, GraphError> {
        self.try_finish_selected(workers, |_| Ok(None))
    }

    /// [`EdgeListBuilder::try_finish_with_workers`], keeping only some of
    /// the distinct edges: `select` is called once with their number and
    /// may return the [`Selection`] of indices (in sorted order) to keep.
    /// The kept edges stay in order, and the others are never written out.
    pub(crate) fn try_finish_selected(
        mut self,
        workers: usize,
        select: impl FnOnce(usize) -> Result<Option<Selection>, GraphError>,
    ) -> Result<EdgeList, GraphError> {
        self.seal_open_chunks();
        let chunks = std::mem::take(&mut self.chunks);
        let edges = sort_dedup_by_source(self.num_nodes, chunks, workers, select)?;
        Ok(EdgeList::from_sorted_edges_unchecked(self.num_nodes, edges))
    }

    /// [`EdgeListBuilder::try_finish`], for callers content to treat a
    /// failed sort worker as fatal.
    ///
    /// # Panics
    ///
    /// Panics if a sort worker fails.
    pub fn finish(self) -> EdgeList {
        self.try_finish()
            .expect("edge-list sort workers run to completion")
    }
}

/// A set of indices into an edge list, as a bitmap: the edges to keep.
#[derive(Debug, Clone)]
pub(crate) struct Selection {
    words: Vec<u64>,
}

impl Selection {
    /// An empty selection over `len` indices.
    #[cfg(test)]
    pub(crate) fn with_len(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// The selection whose index `i` is bit `i % 64` of `words[i / 64]`.
    pub(crate) fn from_words(words: Vec<u64>) -> Self {
        Self { words }
    }

    #[cfg(test)]
    pub(crate) fn insert(&mut self, index: usize) {
        self.words[index / 64] |= 1 << (index % 64);
    }

    /// The words covering `range`, as `(word index, word)` with the bits
    /// outside `range` cleared.
    fn words_in(&self, range: Range<usize>) -> impl Iterator<Item = (usize, u64)> + '_ {
        let words = if range.is_empty() {
            0..0
        } else {
            range.start / 64..(range.end - 1) / 64 + 1
        };
        words.map(move |w| {
            let mut word = self.words[w];
            if w == range.start / 64 {
                word &= u64::MAX << (range.start % 64);
            }
            let top = range.end - w * 64;
            if top < 64 {
                word &= (1 << top) - 1;
            }
            (w, word)
        })
    }

    /// Calls `f` on every selected index in `range`, ascending.
    pub(crate) fn for_each_in(&self, range: Range<usize>, mut f: impl FnMut(usize)) {
        for (w, mut word) in self.words_in(range) {
            while word != 0 {
                f(w * 64 + word.trailing_zeros() as usize);
                word &= word - 1;
            }
        }
    }

    /// The number of selected indices in `range`.
    fn count_in(&self, range: Range<usize>) -> usize {
        self.words_in(range)
            .map(|(_, word)| word.count_ones() as usize)
            .sum()
    }

    /// Keeps the selected edges of `edges`, in order, compacting in place.
    pub(crate) fn retain(&self, edges: &mut Vec<Edge>) {
        let mut next = 0;
        self.for_each_in(0..edges.len(), |i| {
            edges[next] = edges[i];
            next += 1;
        });
        edges.truncate(next);
        edges.shrink_to_fit();
    }
}

/// A row goes through the bitmaps when it holds at least one candidate per
/// this many nodes. Its summary scan (`num_nodes / 4096` words) then costs
/// at most one word per candidate, which is cheaper than sorting a row that
/// long; a fixed length threshold would scan a large graph's summary for
/// rows too short to pay for it.
const NODES_PER_BITMAP_CANDIDATE: usize = 4096;

/// One worker's per-row deduplication: sorts short rows and runs the others
/// through a two-level bitmap over the nodes.
struct RowDedup {
    num_nodes: usize,
    /// Rows with at least this many candidates go through the bitmaps.
    bitmap_len: usize,
    /// One bit per node, all clear between rows; allocated at the first
    /// bitmap row.
    bitmap: Vec<u64>,
    /// One bit per `bitmap` word, set when the word may hold a set bit;
    /// all clear between rows.
    summary: Vec<u64>,
}

impl RowDedup {
    fn new(num_nodes: usize) -> Self {
        Self {
            num_nodes,
            bitmap_len: bitmap_row_len(num_nodes),
            bitmap: Vec::new(),
            summary: Vec::new(),
        }
    }

    /// Writes the distinct destinations of `dsts[row]`, ascending, to
    /// `dsts[out..]` (with `out <= row.start`), and returns their number.
    fn dedup(&mut self, dsts: &mut [NodeId], row: Range<usize>, out: usize) -> usize {
        if row.len() < self.bitmap_len {
            dsts[row.clone()].sort_unstable();
            let mut next = out;
            let mut last = None;
            for i in row {
                let dst = dsts[i];
                if last != Some(dst) {
                    dsts[next] = dst;
                    next += 1;
                    last = Some(dst);
                }
            }
            return next - out;
        }
        if self.bitmap.is_empty() {
            self.bitmap = vec![0; self.num_nodes.div_ceil(64)];
            self.summary = vec![0; self.bitmap.len().div_ceil(64)];
        }
        for &dst in &dsts[row] {
            let word = dst as usize / 64;
            self.bitmap[word] |= 1 << (dst % 64);
            self.summary[word / 64] |= 1 << (word % 64);
        }
        // Read the marked words back in ascending order, clearing as we go.
        let mut next = out;
        for (s, marks) in self.summary.iter_mut().enumerate() {
            let mut marks = std::mem::take(marks);
            while marks != 0 {
                let w = s * 64 + marks.trailing_zeros() as usize;
                let mut bits = std::mem::take(&mut self.bitmap[w]);
                while bits != 0 {
                    dsts[next] = (w * 64) as NodeId + bits.trailing_zeros();
                    next += 1;
                    bits &= bits - 1;
                }
                marks &= marks - 1;
            }
        }
        next - out
    }
}

/// The candidate count from which a row over `num_nodes` nodes goes
/// through the bitmaps (at least 1, so an empty row is never scanned).
fn bitmap_row_len(num_nodes: usize) -> usize {
    (num_nodes / NODES_PER_BITMAP_CANDIDATE).max(1)
}

/// The relative cost of deduplicating a row of `len` candidates: `len`
/// through the bitmaps, `len · log2(len)` (rounded up, at least `len`) for
/// a sorted row.
fn dedup_cost(len: usize, bitmap_len: usize) -> usize {
    if len >= bitmap_len {
        len
    } else {
        len * (usize::BITS - len.leading_zeros()) as usize
    }
}

/// One worker's band of the dedup: a range of source rows and its slice of
/// the destination buffer.
struct RowBand<'a> {
    rows: Range<usize>,
    dsts: &'a mut [NodeId],
    /// Band-relative end of each row's distinct destinations.
    unique_ends: Vec<usize>,
}

/// Sorts the edges of `chunks` by `(src, dst)` and removes duplicates, on
/// `workers` threads.
///
/// 1. Per-source candidate counts, summed from per-worker counts over
///    contiguous runs of chunks, size one row per source in a buffer of
///    destination ids only.
/// 2. The rows are cut into `workers` bands of near-equal candidate counts
///    and the buffer is split at the band edges. Each worker scatters its
///    band's destinations from every chunk. The chunks are dropped once
///    every band is scattered.
/// 3. The rows are cut again, into `workers` bands of near-equal dedup cost
///    (see [`dedup_cost`]), and each worker deduplicates its rows, compacting
///    them to the front of its band: it sorts a short row and runs a longer
///    one through a two-level bitmap over the nodes (see [`RowDedup`]).
/// 4. Once the number of distinct edges is known, `select` may pick the
///    ones to keep. The output is split at the prefix sums of the bands'
///    kept counts, and each worker writes its band's kept edges.
///
/// No comparison ever looks at a whole edge, and the bands are fixed by the
/// input alone, so the result is the same at any worker count. Cost is
/// `O(V + E)` plus the short rows' sorts.
///
/// # Errors
///
/// Returns [`GraphError::BuildWorker`] if a worker fails.
fn sort_dedup_by_source(
    num_nodes: usize,
    chunks: Vec<Chunk>,
    workers: usize,
    select: impl FnOnce(usize) -> Result<Option<Selection>, GraphError>,
) -> Result<Vec<Edge>, GraphError> {
    // `row_start[s]` is where source `s`'s row begins in `dsts`.
    let chunk_bounds = even_bounds(chunks.len(), workers);
    let chunk_runs: Vec<&[Chunk]> = chunk_bounds
        .windows(2)
        .map(|w| &chunks[w[0]..w[1]])
        .collect();
    let counts = run_bands(chunk_runs, |run| {
        let mut counts = vec![0usize; num_nodes];
        for chunk in run {
            chunk.for_each_directed(|edge| counts[edge.src as usize] += 1);
        }
        Ok(counts)
    })?;
    let mut row_start = vec![0usize; num_nodes + 1];
    for s in 0..num_nodes {
        let candidates: usize = counts.iter().map(|c| c[s]).sum();
        row_start[s + 1] = row_start[s] + candidates;
    }
    drop(counts);
    let total = row_start[num_nodes];

    // Row bands of near-equal candidate counts; a hub row stays whole.
    let row_bounds = weighted_bounds(num_nodes, workers, &|row| {
        row_start[row + 1] - row_start[row]
    });
    let mut dsts: Vec<NodeId> = vec![0; total];
    let scatter_bands: Vec<(Range<usize>, &mut [NodeId])> = row_bounds
        .windows(2)
        .map(|rows| rows[0]..rows[1])
        .zip(split_bands(
            &mut dsts,
            &row_offsets(&row_start, &row_bounds),
        ))
        .collect();
    run_bands(scatter_bands, |(rows, dsts)| {
        let base = row_start[rows.start];
        let mut cursor: Vec<usize> = row_start[rows.clone()]
            .iter()
            .map(|start| start - base)
            .collect();
        for chunk in &chunks {
            chunk.for_each_directed(|edge| {
                if let Some(slot) = (edge.src as usize)
                    .checked_sub(rows.start)
                    .and_then(|row| cursor.get_mut(row))
                {
                    dsts[*slot] = edge.dst;
                    *slot += 1;
                }
            });
        }
        Ok(())
    })?;
    // Every band has read every chunk. Dropping them before the rows are
    // deduplicated keeps the bitmaps off the peak.
    drop(chunks);

    // Each dedup band compacts inside its own region, so its rows are cut
    // by the dedup's cost, not by the scatter's.
    let bitmap_len = bitmap_row_len(num_nodes);
    let row_bounds = weighted_bounds(num_nodes, workers, &|row| {
        dedup_cost(row_start[row + 1] - row_start[row], bitmap_len)
    });
    let bands: Vec<RowBand<'_>> = row_bounds
        .windows(2)
        .zip(split_bands(
            &mut dsts,
            &row_offsets(&row_start, &row_bounds),
        ))
        .map(|(rows, dsts)| RowBand {
            rows: rows[0]..rows[1],
            dsts,
            unique_ends: Vec::new(),
        })
        .collect();
    let bands = run_bands(bands, |mut band| {
        let mut rows = RowDedup::new(num_nodes);
        let base = row_start[band.rows.start];
        let mut unique = 0usize;
        band.unique_ends = band
            .rows
            .clone()
            .map(|row| {
                let candidates = row_start[row] - base..row_start[row + 1] - base;
                unique += rows.dedup(band.dsts, candidates, unique);
                unique
            })
            .collect();
        Ok(band)
    })?;

    // `firsts[t]` is band `t`'s first distinct edge in list order.
    let firsts = prefix_sums(
        bands
            .iter()
            .map(|band| band.unique_ends.last().copied().unwrap_or(0)),
    );
    let selection = select(firsts[bands.len()])?;
    let out_bounds = prefix_sums(firsts.windows(2).map(|range| match &selection {
        Some(selection) => selection.count_in(range[0]..range[1]),
        None => range[1] - range[0],
    }));
    let mut edges = vec![Edge::new(0, 0); out_bounds[bands.len()]];
    let items: Vec<_> = bands
        .into_iter()
        .zip(firsts)
        .zip(split_bands(&mut edges, &out_bounds))
        .collect();
    run_bands(items, |((band, first), out)| {
        let Some(selection) = &selection else {
            let mut begin = 0usize;
            for (row, &end) in band.rows.zip(&band.unique_ends) {
                for (slot, &dst) in out[begin..end].iter_mut().zip(&band.dsts[begin..end]) {
                    *slot = Edge::new(row as NodeId, dst);
                }
                begin = end;
            }
            return Ok(());
        };
        // Walk the kept indices, advancing to the row each one falls in.
        let unique = band.unique_ends.last().copied().unwrap_or(0);
        let (mut row, mut next) = (0usize, 0usize);
        selection.for_each_in(first..first + unique, |index| {
            let local = index - first;
            while band.unique_ends[row] <= local {
                row += 1;
            }
            out[next] = Edge::new((band.rows.start + row) as NodeId, band.dsts[local]);
            next += 1;
        });
        Ok(())
    })?;
    Ok(edges)
}

/// Where each of the ascending `rows` begins in the destination buffer.
fn row_offsets(row_start: &[usize], rows: &[usize]) -> Vec<usize> {
    rows.iter().map(|&row| row_start[row]).collect()
}

/// `[0, c₀, c₀ + c₁, …]`: the bounds of consecutive runs of the given
/// lengths.
fn prefix_sums(counts: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut sums = vec![0];
    for count in counts {
        sums.push(sums[sums.len() - 1] + count);
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(num_nodes: usize, edges: &[Edge]) -> EdgeList {
        let mut all: Vec<Edge> = edges.to_vec();
        all.sort_unstable();
        all.dedup();
        EdgeList::from_edges(num_nodes, all).unwrap()
    }

    fn pseudo_random_edges(n: usize, count: usize) -> Vec<Edge> {
        let mut state = 0x1234_5678_u64;
        let mut edges = Vec::new();
        for _ in 0..count {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let src = ((state >> 33) % n as u64) as u32;
            let dst = ((state >> 17) % n as u64) as u32;
            edges.push(Edge::new(src, dst));
        }
        edges
    }

    #[test]
    fn builder_matches_collect_sort_dedup() {
        // A deterministic pseudo-random edge stream spanning many chunks.
        let n = 50usize;
        let edges = pseudo_random_edges(n, 5000);
        for capacity in [1, 7, 64, 4096, usize::MAX] {
            let mut builder = EdgeListBuilder::with_chunk_capacity(n, capacity);
            for &e in &edges {
                builder.push(e).unwrap();
            }
            let built = builder.finish();
            assert_eq!(built, reference(n, &edges), "capacity {capacity}");
            assert!(built.is_sorted());
        }
    }

    #[test]
    fn symmetric_push_matches_symmetrize() {
        let n = 20usize;
        let pairs: &[(u32, u32)] = &[(0, 1), (5, 2), (19, 0), (5, 2), (3, 4)];
        let mut builder = EdgeListBuilder::with_chunk_capacity(n, 3);
        for &(s, d) in pairs {
            builder.push_symmetric(Edge::new(s, d)).unwrap();
        }
        let built = builder.finish();
        let mut reference = EdgeList::from_pairs(n, pairs).unwrap();
        reference.symmetrize();
        assert_eq!(built, reference);
    }

    fn symmetric_reference(num_nodes: usize, pairs: &[Edge]) -> EdgeList {
        let both: Vec<Edge> = pairs.iter().flat_map(|&e| [e, e.reversed()]).collect();
        reference(num_nodes, &both)
    }

    #[test]
    fn symmetric_pairs_are_stored_once() {
        let n = 10usize;
        let pairs = pseudo_random_edges(n, 8);
        let mut builder = EdgeListBuilder::with_chunk_capacity(n, 4);
        for &e in &pairs {
            builder.push_symmetric(e).unwrap();
        }
        // Two sealed chunks of four records each, standing for 16 edges.
        assert_eq!(builder.len(), 16);
        let records: Vec<usize> = builder.chunks.iter().map(|c| c.edges.len()).collect();
        assert_eq!(records, [4, 4]);
        assert!(builder.chunks.iter().all(|c| c.symmetric));
        assert_eq!(builder.finish(), symmetric_reference(n, &pairs));
    }

    #[test]
    fn sort_dedup_does_not_depend_on_the_worker_count() {
        // A hub row holding most edges, empty rows, and fewer nodes than
        // workers; directed and symmetric chunks mixed.
        let mut hub = pseudo_random_edges(40, 300);
        hub.extend((0..2000u32).map(|i| Edge::new(7, (i * 13) % 40)));
        let sparse: Vec<Edge> = pseudo_random_edges(200, 150)
            .into_iter()
            .map(|e| Edge::new(e.src / 10 * 10, e.dst))
            .collect();
        let tiny = vec![Edge::new(2, 0), Edge::new(0, 1), Edge::new(2, 0)];
        // Sparse rows that sort, around a hub row far above the bitmap
        // threshold (30000 / 4096 = 7 candidates).
        let mut sparse_hub = pseudo_random_edges(30_000, 4000);
        sparse_hub.extend((0..2500u32).map(|i| Edge::new(1234, (i * 7919) % 30_000)));
        for (n, edges) in [
            (40usize, hub),
            (200, sparse),
            (3, tiny),
            (5, Vec::new()),
            (30_000, sparse_hub),
        ] {
            let (symmetric, directed) = edges.split_at(edges.len() / 3);
            let mut all = directed.to_vec();
            all.extend(symmetric.iter().flat_map(|&e| [e, e.reversed()]));
            let expected = reference(n, &all);
            for workers in [1, 2, 7] {
                let chunks = || {
                    let mut chunks = vec![Chunk {
                        edges: symmetric.to_vec(),
                        symmetric: true,
                    }];
                    chunks.extend(directed.chunks(37).map(|c| Chunk::directed(c.to_vec())));
                    chunks
                };
                let sorted = sort_dedup_by_source(n, chunks(), workers, |_| Ok(None)).unwrap();
                assert_eq!(sorted, expected.as_slice(), "n {n}, {workers} workers");
                // Keeping every third distinct edge writes exactly those.
                let mut every_third = None;
                let selected = sort_dedup_by_source(n, chunks(), workers, |len| {
                    let mut selection = Selection::with_len(len);
                    (0..len).step_by(3).for_each(|i| selection.insert(i));
                    every_third = Some(selection.clone());
                    Ok(Some(selection))
                })
                .unwrap();
                let mut retained = expected.as_slice().to_vec();
                every_third.unwrap().retain(&mut retained);
                let thirds: Vec<Edge> = expected.iter().copied().step_by(3).collect();
                assert_eq!(retained, thirds);
                assert_eq!(selected, thirds, "n {n}, {workers} workers, selected");
            }
        }
    }

    #[test]
    fn dense_rows_dedup_like_sorted_rows() {
        // Rows at or above the bitmap threshold go through the two-level
        // bitmap, shorter rows through the sort; both must write what
        // sort-then-dedup writes.
        let n = 100_000usize;
        let threshold = bitmap_row_len(n);
        assert_eq!(threshold, 24);
        assert_eq!(bitmap_row_len(4095), 1);
        // Sources 10..=16: rows one short of, at and one past the threshold
        // (each with a duplicate), a hub row spread over every summary word,
        // a row holding every node, a self-loop row and a row of one
        // repeated destination.
        let mut rows: Vec<(u32, Vec<u32>)> = [threshold - 1, threshold, threshold + 1]
            .into_iter()
            .zip(10u32..)
            .map(|(len, src)| {
                let mut dsts: Vec<u32> = (1..len as u32).map(|i| (i * 33_331) % 100_000).collect();
                dsts.push(dsts[0]);
                (src, dsts)
            })
            .collect();
        rows.push((13, (0..20_000u32).map(|i| (i * 7919) % 100_000).collect()));
        rows.push((14, (0..n as u32).rev().collect()));
        rows.push((
            15,
            (0..40u32)
                .map(|i| if i % 3 == 0 { 15 } else { i * 2500 })
                .collect(),
        ));
        rows.push((16, vec![99_999; 400]));
        // Sparse rows, directed and symmetric, that never touch 10..=16.
        let away = |e: Edge| Edge::new(e.src.max(17), e.dst.max(17));
        let mut directed: Vec<Edge> = rows
            .iter()
            .flat_map(|(src, dsts)| dsts.iter().map(|&dst| Edge::new(*src, dst)))
            .chain(pseudo_random_edges(n, 3000).into_iter().map(away))
            .collect();
        // Interleave the rows' candidates over the chunks, as sampling does.
        let len = directed.len();
        directed.sort_by_key(|e| (e.src.wrapping_mul(7919) ^ e.dst) as usize % len);
        let symmetric: Vec<Edge> = pseudo_random_edges(n, 1500)
            .into_iter()
            .map(|e| away(e.reversed()))
            .collect();
        let mut all = directed.clone();
        all.extend(symmetric.iter().flat_map(|&e| [e, e.reversed()]));
        for (src, dsts) in &rows {
            let candidates = all.iter().filter(|e| e.src == *src).count();
            assert_eq!(candidates, dsts.len(), "row {src}");
        }
        let expected = reference(n, &all);
        for workers in [1, 2, 7] {
            let chunks = || {
                let mut chunks: Vec<Chunk> = directed
                    .chunks(5000)
                    .map(|c| Chunk::directed(c.to_vec()))
                    .collect();
                chunks.push(Chunk {
                    edges: symmetric.clone(),
                    symmetric: true,
                });
                chunks
            };
            let sorted = sort_dedup_by_source(n, chunks(), workers, |_| Ok(None)).unwrap();
            assert_eq!(sorted, expected.as_slice(), "{workers} workers");
            let selected = sort_dedup_by_source(n, chunks(), workers, |len| {
                let mut selection = Selection::with_len(len);
                (1..len).step_by(2).for_each(|i| selection.insert(i));
                Ok(Some(selection))
            })
            .unwrap();
            let odd: Vec<Edge> = expected.iter().copied().skip(1).step_by(2).collect();
            assert_eq!(selected, odd, "{workers} workers, selected");
        }
    }

    #[test]
    fn selection_counts_match_its_indices() {
        let len = 300;
        let mut selection = Selection::with_len(len);
        for i in (0..len).filter(|i| i % 7 == 0 || (60..70).contains(i)) {
            selection.insert(i);
        }
        for range in [0..0, 0..len, 3..5, 63..64, 64..128, 60..190, 129..299, 5..5] {
            let mut listed = Vec::new();
            selection.for_each_in(range.clone(), |i| listed.push(i));
            let expected: Vec<usize> = range
                .clone()
                .filter(|i| i % 7 == 0 || (60..70).contains(i))
                .collect();
            assert_eq!(listed, expected, "{range:?}");
            assert_eq!(
                selection.count_in(range.clone()),
                expected.len(),
                "{range:?}"
            );
        }
    }

    #[test]
    fn band_builders_absorbed_in_worker_order_match() {
        // The generators' flow: one band builder per worker, absorbed in
        // worker order and finished on the same worker count.
        let n = 64usize;
        let pairs = pseudo_random_edges(n, 3000);
        let expected = symmetric_reference(n, &pairs);
        for workers in [1usize, 2, 7] {
            let mut merged = EdgeListBuilder::with_chunk_capacity(n, 64);
            let bounds = crate::parallel::even_bounds(pairs.len(), workers);
            for range in bounds.windows(2) {
                let mut band = merged.band_builder();
                for &e in &pairs[range[0]..range[1]] {
                    band.push_symmetric(e).unwrap();
                }
                merged.absorb(band);
            }
            assert_eq!(merged.len(), 2 * pairs.len());
            let built = merged.try_finish_with_workers(workers).unwrap();
            assert_eq!(built, expected, "{workers} workers");
        }
    }

    #[test]
    fn rejects_out_of_range_endpoints() {
        let mut builder = EdgeListBuilder::new(3);
        assert!(matches!(
            builder.push(Edge::new(0, 3)),
            Err(GraphError::NodeOutOfRange { node: 3, .. })
        ));
        assert!(builder.push_symmetric(Edge::new(4, 0)).is_err());
        assert!(builder.is_empty());
    }

    #[test]
    fn empty_builder_finishes_to_an_empty_list() {
        let builder = EdgeListBuilder::new(10);
        let edges = builder.finish();
        assert!(edges.is_empty());
        assert_eq!(edges.num_nodes(), 10);
    }

    #[test]
    fn len_counts_raw_edges_across_chunks() {
        let mut builder = EdgeListBuilder::with_chunk_capacity(4, 2);
        for _ in 0..5 {
            builder.push(Edge::new(0, 1)).unwrap();
        }
        assert_eq!(builder.len(), 5);
        assert!(!builder.is_empty());
        // Duplicates collapse on finish.
        assert_eq!(builder.finish().num_edges(), 1);
    }
}
