//! Streaming, chunked edge-list construction.
//!
//! Generators *stream* symmetric pairs into the [`EdgeListBuilder`], which
//! seals them into fixed-capacity chunks. A pair streamed with
//! [`EdgeListBuilder::push_symmetric`] is recorded once and stands for both
//! directions.
//!
//! [`EdgeListBuilder::finish`] then produces one sorted, duplicate-free
//! [`EdgeList`] with a counting sort of unordered pairs (see
//! [`sort_dedup_by_source`]): each record `(a, b)` writes `max(a, b)` once
//! into the row of `min(a, b)` in one `u32` buffer, and each row is
//! deduplicated on its own. Row `v` then holds `v`'s distinct *upper*
//! neighbours, all `>= v`. `v`'s directed row in the output is its distinct
//! lower neighbours, all below `v` and ascending, followed by that upper
//! row; the lower neighbours are the rows below `v` that list `v`, read in
//! ascending source order. That is `O(V + E)` plus per-row sorts of short
//! rows, with no comparison sort over whole edges. Every stage cuts the
//! rows into bands, one per worker, by its own cost.
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
//! pairs and their reverses (the property tests pin this), at any worker
//! count, so the generators' seeded determinism is preserved.

use crate::parallel::{even_bounds, run_bands, split_bands, weighted_bounds, workers_for};
use crate::{Edge, EdgeList, GraphError, NodeId};
use std::ops::Range;

/// Pair records per chunk by default (32 MiB). glibc maps an allocation
/// this size on its own and unmaps it when it is freed, but that first free
/// also raises its mmap threshold to the chunk's size: the build's later
/// scratch below 32 MiB then comes from heap that is never trimmed, so
/// freeing the chunks does not keep that scratch off the process's
/// footprint.
const CHUNK_CAPACITY: usize = 1 << 22;

/// A streaming builder that accumulates symmetric pairs in in-memory chunks
/// and turns them into a canonical (sorted, deduplicated) [`EdgeList`]
/// holding each pair in both directions.
///
/// # Examples
///
/// ```
/// use gnnerator_graph::{Edge, EdgeListBuilder};
///
/// # fn main() -> Result<(), gnnerator_graph::GraphError> {
/// let mut builder = EdgeListBuilder::new(4);
/// builder.push_symmetric(Edge::new(2, 1))?;
/// builder.push_symmetric(Edge::new(0, 3))?;
/// builder.push_symmetric(Edge::new(1, 2))?; // the same pair, removed on finish
/// let edges = builder.finish();
/// assert_eq!(
///     edges.as_slice(),
///     &[Edge::new(0, 3), Edge::new(1, 2), Edge::new(2, 1), Edge::new(3, 0)]
/// );
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
    /// Sealed, still-unsorted chunks, one record per pair.
    chunks: Vec<Vec<Edge>>,
    /// The chunk currently being filled.
    current: Vec<Edge>,
    /// Records sealed so far.
    sealed_records: usize,
}

impl EdgeListBuilder {
    /// Creates a builder for a graph over `num_nodes` nodes with the
    /// default chunk capacity (32 MiB chunks).
    pub fn new(num_nodes: usize) -> Self {
        Self::with_chunk_capacity(num_nodes, CHUNK_CAPACITY)
    }

    /// Creates a builder with an explicit chunk capacity in pair records
    /// (clamped to at least 1). Small capacities are useful in tests to
    /// force many chunks.
    pub fn with_chunk_capacity(num_nodes: usize, chunk_capacity: usize) -> Self {
        Self {
            num_nodes,
            chunk_capacity: chunk_capacity.max(1),
            chunks: Vec::new(),
            current: Vec::new(),
            sealed_records: 0,
        }
    }

    /// A builder for one of the concurrent workers feeding this one: same
    /// graph and chunk size.
    pub(crate) fn band_builder(&self) -> Self {
        Self::with_chunk_capacity(self.num_nodes, self.chunk_capacity)
    }

    /// Takes over every pair of a band builder: its open chunk is sealed,
    /// then its chunks join this builder's.
    pub(crate) fn absorb(&mut self, mut band: EdgeListBuilder) {
        band.seal_open_chunk();
        self.sealed_records += band.sealed_records;
        self.chunks.append(&mut band.chunks);
    }

    /// Number of nodes the builder validates endpoints against.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Total number of raw (pre-dedup) directed edges streamed in so far; a
    /// pair counts as two.
    pub fn len(&self) -> usize {
        2 * (self.sealed_records + self.current.len())
    }

    /// Returns `true` if no pairs have been streamed in.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Streams an edge and its reverse — the building block of symmetric
    /// (undirected-semantics) graphs, replacing a post-hoc
    /// [`EdgeList::symmetrize`] pass over the full list. The pair is stored
    /// once, and sorted once on finish as an unordered pair.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if an endpoint is out of range.
    pub fn push_symmetric(&mut self, edge: Edge) -> Result<(), GraphError> {
        for node in [edge.src, edge.dst] {
            if node as usize >= self.num_nodes {
                return Err(GraphError::NodeOutOfRange {
                    node,
                    num_nodes: self.num_nodes,
                });
            }
        }
        if self.current.capacity() == 0 {
            // Allocated up front, so the chunk fills without reallocating
            // (capped for huge test capacities).
            self.current
                .reserve_exact(self.chunk_capacity.min(CHUNK_CAPACITY));
        }
        self.current.push(edge);
        if self.current.len() >= self.chunk_capacity {
            self.seal_open_chunk();
        }
        Ok(())
    }

    /// Seals the open chunk, if it holds anything.
    fn seal_open_chunk(&mut self) {
        let chunk = std::mem::take(&mut self.current);
        if !chunk.is_empty() {
            self.sealed_records += chunk.len();
            self.chunks.push(chunk);
        }
    }

    /// Returns the canonical edge list: every pair in both directions,
    /// sorted by `(src, dst)`, duplicates removed, by a counting sort in
    /// row bands on as many workers as the input warrants.
    ///
    /// Self-loops are *kept* (the builder is policy-free); generators that
    /// need simple graphs simply never stream self-loops in.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] for more than `u32::MAX`
    /// pairs, and [`GraphError::BuildWorker`] if a sort worker fails.
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
        self.seal_open_chunk();
        let chunks = std::mem::take(&mut self.chunks);
        let edges = sort_dedup_by_source(self.num_nodes, chunks, workers, select)?;
        Ok(EdgeList::from_sorted_edges_unchecked(self.num_nodes, edges))
    }

    /// [`EdgeListBuilder::try_finish`], for callers content to treat a
    /// failed sort worker as fatal.
    ///
    /// # Panics
    ///
    /// Panics if a sort worker fails or there are more than `u32::MAX`
    /// pairs.
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

    /// Whether `index` is selected.
    fn contains(&self, index: usize) -> bool {
        self.words[index / 64] >> (index % 64) & 1 == 1
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

/// The cost of writing out a lower neighbour, relative to an upper one: an
/// upper row is copied in order, but each lower neighbour is a random write.
/// On a 2-core AVX-512 host a lower neighbour took 16–19 ns at products@0.1
/// and 35–40 ns at full scale, an upper one about 2 ns.
const LOWER_WRITE_COST: usize = 8;

/// Returns `Ok(())` if the counting sort's `u32` counters can hold
/// `records` pairs.
fn check_record_count(records: usize) -> Result<(), GraphError> {
    u32::try_from(records)
        .map(drop)
        .map_err(|_| GraphError::invalid("pairs", "more than u32::MAX pairs to sort"))
}

/// Prefix sums of per-row counts summed over every worker's array (a
/// row's total must fit in `u32`).
fn row_starts(mut counts: Vec<Vec<u32>>) -> Vec<usize> {
    let mut total = counts.pop().expect("every stage runs at least one band");
    for worker in counts {
        for (sum, count) in total.iter_mut().zip(worker) {
            *sum += count;
        }
    }
    prefix_sums(total.into_iter().map(|count| count as usize))
}

/// One worker's band of the dedup: a range of rows and its slice of the
/// row buffer.
struct RowBand<'a> {
    rows: Range<usize>,
    dsts: &'a mut [NodeId],
    /// Band-relative end of each row's distinct entries.
    unique_ends: Vec<usize>,
}

/// Sorts the pairs of `chunks`, each standing for itself and its reverse,
/// by `(src, dst)` and removes duplicates, on `workers` threads.
///
/// Each record is sorted once, as an unordered pair: it is an entry
/// `max(a, b)` in the *upper row* of `min(a, b)`.
///
/// 1. Per-row record counts, summed from per-worker `u32` counts over
///    contiguous runs of chunks, size one row per node in a buffer of `u32`
///    node ids.
/// 2. The rows are cut into `workers` bands of near-equal record counts and
///    the buffer is split at the band edges. Each worker scatters its
///    band's upper endpoints from every chunk. The chunks are dropped once
///    every band is scattered.
/// 3. The rows are cut again, into `workers` bands of near-equal dedup cost
///    (see [`dedup_cost`]), and each worker deduplicates its rows, compacting
///    them to the front of its band: it sorts a short row and runs a longer
///    one through a two-level bitmap over the nodes (see [`RowDedup`]). The
///    bands are then closed up, so the distinct upper rows lie end to end.
/// 4. Row `v`'s *lower* neighbours are the rows `u < v` whose upper row
///    lists `v`. Per-worker counts of them, over bands of upper rows, give
///    each node's directed row length: lower count plus upper row length.
/// 5. Once the number of distinct edges is known, `select` may pick the
///    ones to keep. The rows are cut into bands by write cost (see
///    [`LOWER_WRITE_COST`]), the output is split at the prefix sums of the
///    bands' kept counts, and each worker writes its band's rows. Directed
///    row `v` is its lower neighbours, ascending, followed by its upper row
///    (every lower neighbour is below `v`, every upper one at least `v`).
///    The worker copies the upper rows, then walks every upper row below
///    the band's end in ascending order, and each entry in the band is the
///    next lower neighbour of its row.
///
/// No comparison ever looks at a whole edge, and the bands are fixed by the
/// input alone, so the result is the same at any worker count. Cost is
/// `O(V + E)` plus the short rows' sorts and a binary search per upper row
/// and output band.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] for more than `u32::MAX` pairs,
/// and [`GraphError::BuildWorker`] if a worker fails.
fn sort_dedup_by_source(
    num_nodes: usize,
    chunks: Vec<Vec<Edge>>,
    workers: usize,
    select: impl FnOnce(usize) -> Result<Option<Selection>, GraphError>,
) -> Result<Vec<Edge>, GraphError> {
    check_record_count(chunks.iter().map(Vec::len).sum())?;
    let lower_end = |edge: &Edge| edge.src.min(edge.dst) as usize;

    // 1. `row_start[v]` is where node `v`'s upper row begins in `uppers`.
    let chunk_bounds = even_bounds(chunks.len(), workers);
    let chunk_runs: Vec<&[Vec<Edge>]> = chunk_bounds
        .windows(2)
        .map(|w| &chunks[w[0]..w[1]])
        .collect();
    let counts = run_bands(chunk_runs, |run| {
        let mut counts = vec![0u32; num_nodes];
        for edge in run.iter().flatten() {
            counts[lower_end(edge)] += 1;
        }
        Ok(counts)
    })?;
    let mut row_start = row_starts(counts);

    // 2. Row bands of near-equal record counts; a hub row stays whole.
    let row_bounds = weighted_bounds(num_nodes, workers, &|row| {
        row_start[row + 1] - row_start[row]
    });
    let mut uppers: Vec<NodeId> = vec![0; row_start[num_nodes]];
    let scatter_bands: Vec<(Range<usize>, &mut [NodeId])> = bands_of(&row_bounds)
        .into_iter()
        .zip(split_bands(
            &mut uppers,
            &row_offsets(&row_start, &row_bounds),
        ))
        .collect();
    run_bands(scatter_bands, |(rows, uppers)| {
        let base = row_start[rows.start];
        let mut cursor: Vec<usize> = row_start[rows.clone()]
            .iter()
            .map(|start| start - base)
            .collect();
        for edge in chunks.iter().flatten() {
            if let Some(slot) = lower_end(edge)
                .checked_sub(rows.start)
                .and_then(|row| cursor.get_mut(row))
            {
                uppers[*slot] = edge.src.max(edge.dst);
                *slot += 1;
            }
        }
        Ok(())
    })?;
    // Every band has read every chunk. Dropping them before the rows are
    // deduplicated keeps the bitmaps off the peak.
    drop(chunks);

    // 3. Each dedup band compacts inside its own region, so its rows are
    // cut by the dedup's cost, not by the scatter's.
    let bitmap_len = bitmap_row_len(num_nodes);
    let row_bounds = weighted_bounds(num_nodes, workers, &|row| {
        dedup_cost(row_start[row + 1] - row_start[row], bitmap_len)
    });
    let bands: Vec<RowBand<'_>> = bands_of(&row_bounds)
        .into_iter()
        .zip(split_bands(
            &mut uppers,
            &row_offsets(&row_start, &row_bounds),
        ))
        .map(|(rows, dsts)| RowBand {
            rows,
            dsts,
            unique_ends: Vec::new(),
        })
        .collect();
    let bands: Vec<(Range<usize>, Vec<usize>)> = run_bands(bands, |mut band| {
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
        Ok((band.rows, band.unique_ends))
    })?;
    // Close up the bands; `row_start` becomes the distinct upper rows'
    // starts.
    let band_starts = row_offsets(&row_start, &row_bounds);
    let mut next = 0;
    for ((rows, unique_ends), start) in bands.into_iter().zip(band_starts) {
        let unique = unique_ends.last().copied().unwrap_or(0);
        uppers.copy_within(start..start + unique, next);
        for (row, end) in rows.zip(unique_ends) {
            row_start[row + 1] = next + end;
        }
        next += unique;
    }
    uppers.truncate(next);
    uppers.shrink_to_fit();
    let upper = |row: usize| &uppers[row_start[row]..row_start[row + 1]];

    // 4. Lower-neighbour counts over bands of upper rows, then each node's
    // directed row start: `edge_start[v]` is where `v`'s row begins in the
    // list of distinct edges.
    let row_bounds = weighted_bounds(num_nodes, workers, &|row| upper(row).len());
    let counts = run_bands(bands_of(&row_bounds), |rows| {
        let mut counts = vec![0u32; num_nodes];
        for row in rows {
            for &node in upper(row) {
                counts[node as usize] += u32::from(node as usize > row);
            }
        }
        Ok(counts)
    })?;
    let mut edge_start = row_starts(counts);
    for row in 0..num_nodes {
        edge_start[row + 1] += row_start[row + 1];
    }
    let distinct = edge_start[num_nodes];

    // 5. Pick the kept edges, then write them band by band.
    let selection = select(distinct)?;
    let kept_in = |range: Range<usize>| match &selection {
        Some(selection) => selection.count_in(range),
        None => range.len(),
    };
    let row_bounds = weighted_bounds(num_nodes, workers, &|row| {
        let upper = upper(row).len();
        LOWER_WRITE_COST * (edge_start[row + 1] - edge_start[row] - upper) + upper
    });
    let out_bounds = prefix_sums(
        row_bounds
            .windows(2)
            .map(|rows| kept_in(edge_start[rows[0]]..edge_start[rows[1]])),
    );
    let mut edges = vec![Edge::new(0, 0); out_bounds[out_bounds.len() - 1]];
    let items: Vec<_> = bands_of(&row_bounds)
        .into_iter()
        .zip(split_bands(&mut edges, &out_bounds))
        .collect();
    run_bands(items, |(rows, out)| {
        // The upper rows go straight out. Each row's lower neighbours then
        // arrive one at a time, ascending: where the next one's index is,
        // and where it goes if kept.
        let mut lower_next = Vec::with_capacity(rows.len());
        let mut next = 0usize;
        for row in rows.clone() {
            let upper = upper(row);
            let upper_first = edge_start[row + 1] - upper.len();
            lower_next.push((edge_start[row], next));
            next += kept_in(edge_start[row]..upper_first);
            let write = |i: usize| {
                out[next] = Edge::new(row as NodeId, upper[i - upper_first]);
                next += 1;
            };
            match &selection {
                Some(selection) => selection.for_each_in(upper_first..edge_start[row + 1], write),
                None => (upper_first..edge_start[row + 1]).for_each(write),
            }
        }
        for low in 0..rows.end {
            let upper = upper(low);
            let first = upper.partition_point(|&node| (node as usize) < rows.start.max(low + 1));
            for &node in upper[first..]
                .iter()
                .take_while(|&&node| (node as usize) < rows.end)
            {
                let (index, at) = &mut lower_next[node as usize - rows.start];
                if selection.as_ref().is_none_or(|s| s.contains(*index)) {
                    out[*at] = Edge::new(node, low as NodeId);
                    *at += 1;
                }
                *index += 1;
            }
        }
        Ok(())
    })?;
    Ok(edges)
}

/// The bands between consecutive `bounds`.
fn bands_of(bounds: &[usize]) -> Vec<Range<usize>> {
    bounds.windows(2).map(|w| w[0]..w[1]).collect()
}

/// Where each of the ascending `rows` begins in the row buffer.
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

    /// `collect → sort_unstable → dedup` over every pair and its reverse.
    fn symmetric_reference(num_nodes: usize, pairs: &[Edge]) -> EdgeList {
        let mut all: Vec<Edge> = pairs.iter().flat_map(|&e| [e, e.reversed()]).collect();
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

    /// Checks `sort_dedup_by_source` on `pairs` cut into chunks of
    /// `chunk_len`, at 1, 2 and 7 workers, keeping every edge and then
    /// every third distinct edge.
    fn assert_sorts_like_the_reference(n: usize, pairs: &[Edge], chunk_len: usize) {
        let expected = symmetric_reference(n, pairs);
        let chunks =
            || -> Vec<Vec<Edge>> { pairs.chunks(chunk_len).map(<[Edge]>::to_vec).collect() };
        for workers in [1, 2, 7] {
            let sorted = sort_dedup_by_source(n, chunks(), workers, |_| Ok(None)).unwrap();
            assert_eq!(sorted, expected.as_slice(), "n {n}, {workers} workers");
            let mut every_third = None;
            let selected = sort_dedup_by_source(n, chunks(), workers, |len| {
                assert_eq!(len, expected.num_edges());
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

    #[test]
    fn builder_matches_collect_sort_dedup() {
        // A deterministic pseudo-random pair stream spanning many chunks,
        // with self-loop pairs `(s, s)` among the pairs.
        let n = 50usize;
        let mut pairs = pseudo_random_edges(n, 5000);
        pairs.extend((0..n as u32).step_by(3).map(|s| Edge::new(s, s)));
        for capacity in [1, 7, 64, 4096, usize::MAX] {
            let mut builder = EdgeListBuilder::with_chunk_capacity(n, capacity);
            for &e in &pairs {
                builder.push_symmetric(e).unwrap();
            }
            let built = builder.finish();
            assert_eq!(built, symmetric_reference(n, &pairs), "capacity {capacity}");
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
        let records: Vec<usize> = builder.chunks.iter().map(Vec::len).collect();
        assert_eq!(records, [4, 4]);
        assert_eq!(builder.finish(), symmetric_reference(n, &pairs));
    }

    #[test]
    fn sort_dedup_does_not_depend_on_the_worker_count() {
        // A hub row holding most pairs, empty rows, and fewer nodes than
        // workers, with and without a selection.
        let mut hub = pseudo_random_edges(40, 300);
        hub.extend((0..2000u32).map(|i| Edge::new(7, (i * 13) % 40)));
        let sparse: Vec<Edge> = pseudo_random_edges(200, 150)
            .into_iter()
            .map(|e| Edge::new(e.src / 10 * 10, e.dst))
            .collect();
        let tiny = vec![Edge::new(2, 0), Edge::new(0, 1), Edge::new(0, 2)];
        // Sparse rows that sort, around a hub row far above the bitmap
        // threshold (30000 / 4096 = 7 candidates).
        let mut sparse_hub = pseudo_random_edges(30_000, 4000);
        sparse_hub.extend((0..2500u32).map(|i| Edge::new(1234, (i * 7919) % 30_000)));
        // One hub that is the low end of most of its pairs (its upper row
        // holds them) and one that is the high end (they reach it as lower
        // neighbours), each recorded in either order, with self-loop pairs.
        let top = 29_998u32;
        let mut ends = pseudo_random_edges(30_000, 3000);
        ends.extend((0..6000u32).map(|i| {
            let pair = Edge::new(2, 3 + (i * 7919) % 29_997);
            if i % 2 == 0 {
                pair
            } else {
                pair.reversed()
            }
        }));
        ends.extend((0..6000u32).map(|i| {
            let pair = Edge::new((i * 104_729) % top, top);
            if i % 3 == 0 {
                pair
            } else {
                pair.reversed()
            }
        }));
        ends.extend([2, top, 0, 17, 17].map(|s| Edge::new(s, s)));
        for (n, pairs) in [
            (40usize, hub),
            (200, sparse),
            (3, tiny),
            (5, Vec::new()),
            (30_000, sparse_hub),
            (30_000, ends),
        ] {
            assert_sorts_like_the_reference(n, &pairs, 37);
        }
    }

    #[test]
    fn dense_rows_dedup_like_sorted_rows() {
        // Upper rows at or above the bitmap threshold go through the
        // two-level bitmap, shorter rows through the sort; both must write
        // what sort-then-dedup writes.
        let n = 100_000usize;
        let threshold = bitmap_row_len(n);
        assert_eq!(threshold, 24);
        assert_eq!(bitmap_row_len(4095), 1);
        // The upper rows of nodes 10..=16: one short of, at and one past the
        // threshold (each with a duplicate), a hub row spread over every
        // summary word, a row holding every node above its own, a row with
        // self-loops and a row of one repeated node. Each pair is recorded
        // with its low end first or second.
        let above = |src: u32, node: u32| src + node % (n as u32 - src);
        let mut rows: Vec<(u32, Vec<u32>)> = [threshold - 1, threshold, threshold + 1]
            .into_iter()
            .zip(10u32..)
            .map(|(len, src)| {
                let mut dsts: Vec<u32> = (1..len as u32).map(|i| above(src, i * 33_331)).collect();
                dsts.push(dsts[0]);
                (src, dsts)
            })
            .collect();
        rows.push((13, (0..20_000u32).map(|i| above(13, i * 7919)).collect()));
        rows.push((14, (14..n as u32).rev().collect()));
        rows.push((
            15,
            (0..40u32)
                .map(|i| if i % 3 == 0 { 15 } else { i * 2500 })
                .collect(),
        ));
        rows.push((16, vec![99_999; 400]));
        // Sparse pairs that never touch 10..=16.
        let away = |e: Edge| Edge::new(e.src.max(17), e.dst.max(17));
        let mut pairs: Vec<Edge> = rows
            .iter()
            .flat_map(|(src, dsts)| {
                dsts.iter().enumerate().map(|(i, &dst)| {
                    let pair = Edge::new(*src, dst);
                    if i % 2 == 0 {
                        pair
                    } else {
                        pair.reversed()
                    }
                })
            })
            .chain(pseudo_random_edges(n, 4500).into_iter().map(away))
            .collect();
        // Interleave the rows' records over the chunks, as sampling does.
        let len = pairs.len();
        pairs.sort_by_key(|e| (e.src.wrapping_mul(7919) ^ e.dst) as usize % len);
        for (src, dsts) in &rows {
            let records = pairs.iter().filter(|e| e.src.min(e.dst) == *src).count();
            assert_eq!(records, dsts.len(), "row {src}");
        }
        assert_sorts_like_the_reference(n, &pairs, 5000);
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
        for i in 0..len {
            assert_eq!(selection.contains(i), i % 7 == 0 || (60..70).contains(&i));
        }
    }

    #[test]
    fn band_builders_absorbed_in_worker_order_match() {
        // The generators' flow: one band builder per worker, absorbed in
        // worker order and finished on the same worker count, with and
        // without a selection.
        let n = 64usize;
        let pairs = pseudo_random_edges(n, 3000);
        let expected = symmetric_reference(n, &pairs);
        for workers in [1usize, 2, 7] {
            let merged = || {
                let mut merged = EdgeListBuilder::with_chunk_capacity(n, 64);
                let bounds = crate::parallel::even_bounds(pairs.len(), workers);
                for range in bounds.windows(2) {
                    let mut band = merged.band_builder();
                    for &e in &pairs[range[0]..range[1]] {
                        band.push_symmetric(e).unwrap();
                    }
                    merged.absorb(band);
                }
                merged
            };
            assert_eq!(merged().len(), 2 * pairs.len());
            let built = merged().try_finish_with_workers(workers).unwrap();
            assert_eq!(built, expected, "{workers} workers");
            let odd = merged()
                .try_finish_selected(workers, |len| {
                    let mut selection = Selection::with_len(len);
                    (1..len).step_by(2).for_each(|i| selection.insert(i));
                    Ok(Some(selection))
                })
                .unwrap();
            let expected_odd: Vec<Edge> = expected.iter().copied().skip(1).step_by(2).collect();
            assert_eq!(odd.as_slice(), expected_odd, "{workers} workers, selected");
        }
    }

    #[test]
    fn rejects_out_of_range_endpoints() {
        let mut builder = EdgeListBuilder::new(3);
        assert!(matches!(
            builder.push_symmetric(Edge::new(0, 3)),
            Err(GraphError::NodeOutOfRange { node: 3, .. })
        ));
        assert!(builder.push_symmetric(Edge::new(4, 0)).is_err());
        assert!(builder.is_empty());
    }

    #[test]
    fn more_pairs_than_u32_counters_hold_is_an_error() {
        assert!(check_record_count(u32::MAX as usize).is_ok());
        assert!(matches!(
            check_record_count(u32::MAX as usize + 1),
            Err(GraphError::InvalidParameter { name: "pairs", .. })
        ));
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
            builder.push_symmetric(Edge::new(0, 1)).unwrap();
        }
        assert_eq!(builder.len(), 10);
        assert!(!builder.is_empty());
        // Duplicates collapse on finish, to the pair's two directions.
        assert_eq!(builder.finish().num_edges(), 2);
    }
}
