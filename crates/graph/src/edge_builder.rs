//! Streaming, chunked edge-list construction with optional disk spilling.
//!
//! Generators *stream* edges into the [`EdgeListBuilder`], which seals them
//! into fixed-capacity chunks. Sealed chunks stay in memory while they fit
//! the builder's [`MemoryBudget`]; beyond the cap a chunk is sorted
//! immediately and spilled to a `spill-<pid>-<nonce>.run` file (raw
//! little-endian `(src, dst)` pairs) in the cache directory.
//!
//! [`EdgeListBuilder::finish`] then produces one sorted, duplicate-free
//! [`EdgeList`]:
//!
//! * when nothing spilled, a counting pass over source ids scatters every
//!   edge's destination into its source's row of one `u32` buffer (freeing
//!   each chunk once it is scattered), and each row is sorted and
//!   deduplicated on its own — `O(V + E)` plus per-row sorts of small
//!   integers, with no comparison sort over whole edges;
//! * when chunks spilled, the in-memory chunks are sorted and k-way merged
//!   with buffered readers over the sorted run-files in a single pass.
//!
//! Either way the output is bit-identical to `collect → sort_unstable →
//! dedup` on the same edge multiset (the property tests pin this), so the
//! generators' seeded determinism is preserved. Spill run-files are deleted
//! as soon as the merge consumes them; files orphaned by a crash are reaped
//! by the [`ArtifactCache`](crate::ArtifactCache) startup sweep.

use crate::cache;
use crate::memory::MemoryBudget;
use crate::{Edge, EdgeList, GraphError, NodeId};
use gnnerator_observe::Recorder;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::PathBuf;

/// Default number of edges per sealed chunk (~512 KiB of edge records): the
/// unit the memory budget accounts and spills in. Small enough that a
/// bounded budget keeps close to its cap, big enough that a spill writes one
/// sizeable sequential run-file rather than many tiny ones.
pub const DEFAULT_CHUNK_CAPACITY: usize = 1 << 16;

/// Bytes per edge record in a spill run-file: two little-endian `u32`s.
const SPILL_RECORD_BYTES: usize = 8;

/// Bytes per destination id in the counting sort's row buffer.
const ROW_ENTRY_BYTES: usize = std::mem::size_of::<NodeId>();

/// A sorted run of edges spilled to disk; the file is removed on drop.
#[derive(Debug)]
struct SpillFile {
    path: PathBuf,
    edges: usize,
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// A streaming builder that accumulates edges in chunks — in memory, or
/// sorted and spilled to disk under a [`MemoryBudget`] — and turns them into
/// a canonical (sorted, deduplicated) [`EdgeList`].
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
pub struct EdgeListBuilder {
    num_nodes: usize,
    chunk_capacity: usize,
    budget: MemoryBudget,
    /// Directory spill run-files land in; resolved lazily on first spill.
    spill_dir: Option<PathBuf>,
    /// Sealed, still-unsorted chunks held in memory.
    mem_chunks: Vec<Vec<Edge>>,
    /// Sealed, sorted chunks spilled to disk run-files.
    spilled: Vec<SpillFile>,
    /// The chunk currently being filled.
    current: Vec<Edge>,
    /// Edges held across `mem_chunks` (excludes `current` and spills).
    resident_edges: usize,
    /// Edges sealed so far, in memory or on disk.
    sealed_edges: usize,
    /// Builder-local resident-bytes high-water mark.
    peak_resident_bytes: u64,
    /// Telemetry sink for spill counts and the resident-bytes peak.
    /// Defaults to the process global; a scoped recorder attributes this
    /// build's counts to its scope.
    recorder: Recorder,
}

impl EdgeListBuilder {
    /// Creates a builder for a graph over `num_nodes` nodes with the default
    /// chunk capacity and the process-wide [`MemoryBudget::from_env`] budget.
    pub fn new(num_nodes: usize) -> Self {
        Self::with_chunk_capacity(num_nodes, DEFAULT_CHUNK_CAPACITY)
    }

    /// Creates a builder with an explicit chunk capacity (clamped to at
    /// least 1). Small capacities are useful in tests to force many chunks
    /// and, under a bounded budget, many spills.
    pub fn with_chunk_capacity(num_nodes: usize, chunk_capacity: usize) -> Self {
        let chunk_capacity = chunk_capacity.max(1);
        Self {
            num_nodes,
            chunk_capacity,
            budget: MemoryBudget::from_env(),
            spill_dir: None,
            mem_chunks: Vec::new(),
            spilled: Vec::new(),
            current: Vec::with_capacity(chunk_capacity.min(1 << 20)),
            resident_edges: 0,
            sealed_edges: 0,
            peak_resident_bytes: 0,
            recorder: Recorder::default(),
        }
    }

    /// Overrides the telemetry sink spill counts and the resident-bytes
    /// peak are recorded into (the default is the process-global recorder).
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Overrides the builder's memory budget. Sealed chunks that would push
    /// resident sealed bytes past the cap are sorted and spilled to disk;
    /// the one chunk currently being filled is the fixed working set and is
    /// not counted against the cap.
    pub fn with_memory_budget(mut self, budget: MemoryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Overrides the directory spill run-files are written to. The default
    /// is the artifact-cache directory (or the system temp directory when
    /// the cache is disabled).
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Number of nodes the builder validates endpoints against.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The memory budget governing this builder's spill decisions.
    pub fn memory_budget(&self) -> MemoryBudget {
        self.budget
    }

    /// Number of sealed chunks spilled to disk so far.
    pub fn spilled_chunks(&self) -> usize {
        self.spilled.len()
    }

    /// This builder's resident-bytes high-water mark (sealed in-memory
    /// chunks plus the chunk being sealed, at each seal point).
    pub fn peak_resident_bytes(&self) -> u64 {
        self.peak_resident_bytes
    }

    /// Total number of raw (pre-dedup) edges streamed in so far.
    pub fn len(&self) -> usize {
        self.sealed_edges + self.current.len()
    }

    /// Returns `true` if no edges have been streamed in.
    pub fn is_empty(&self) -> bool {
        self.sealed_edges == 0 && self.current.is_empty()
    }

    /// Streams one edge into the builder.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if an endpoint is
    /// `>= num_nodes`.
    pub fn push(&mut self, edge: Edge) -> Result<(), GraphError> {
        for node in [edge.src, edge.dst] {
            if node as usize >= self.num_nodes {
                return Err(GraphError::NodeOutOfRange {
                    node,
                    num_nodes: self.num_nodes,
                });
            }
        }
        self.current.push(edge);
        if self.current.len() >= self.chunk_capacity {
            let full = std::mem::replace(
                &mut self.current,
                Vec::with_capacity(self.chunk_capacity.min(1 << 20)),
            );
            self.seal(full);
        }
        Ok(())
    }

    /// Streams an edge and its reverse — the building block of symmetric
    /// (undirected-semantics) graphs, replacing a post-hoc
    /// [`EdgeList::symmetrize`] pass over the full list.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if an endpoint is out of range.
    pub fn push_symmetric(&mut self, edge: Edge) -> Result<(), GraphError> {
        self.push(edge)?;
        self.push(edge.reversed())
    }

    /// Seals one chunk: kept in memory while the budget allows, otherwise
    /// sorted and spilled to a run-file. A failed spill write degrades
    /// gracefully by keeping the chunk in memory.
    fn seal(&mut self, mut chunk: Vec<Edge>) {
        let chunk_bytes = (chunk.len() * SPILL_RECORD_BYTES) as u64;
        let resident_bytes = (self.resident_edges * SPILL_RECORD_BYTES) as u64;
        // The freshly sealed chunk is momentarily resident either way.
        self.note_resident(resident_bytes + chunk_bytes);
        self.sealed_edges += chunk.len();
        if self.budget.would_exceed(resident_bytes, chunk_bytes) && !chunk.is_empty() {
            chunk.sort_unstable();
            match self.spill(&chunk) {
                Ok(file) => {
                    self.spilled.push(file);
                    self.recorder.note_spilled_chunks(1);
                    return;
                }
                Err(_) => {
                    // Disk trouble must not lose edges: fall back to memory.
                    // (The chunk arrives sorted at finish, which is fine —
                    // neither finish path assumes resident chunks unsorted.)
                }
            }
        }
        self.resident_edges += chunk.len();
        self.mem_chunks.push(chunk);
    }

    /// Writes one sorted chunk to a fresh spill run-file.
    fn spill(&mut self, chunk: &[Edge]) -> std::io::Result<SpillFile> {
        let dir = match &self.spill_dir {
            Some(dir) => dir.clone(),
            None => {
                let dir = cache::default_spill_dir();
                self.spill_dir = Some(dir.clone());
                dir
            }
        };
        std::fs::create_dir_all(&dir)?;
        let path = cache::new_spill_run_path(&dir);
        let file = SpillFile {
            path: path.clone(),
            edges: chunk.len(),
        };
        let mut writer =
            BufWriter::with_capacity(self.budget.io_buffer_bytes(1), File::create(&path)?);
        for edge in chunk {
            writer.write_all(&edge.src.to_le_bytes())?;
            writer.write_all(&edge.dst.to_le_bytes())?;
        }
        writer.flush()?;
        Ok(file)
    }

    fn note_resident(&mut self, bytes: u64) {
        if bytes > self.peak_resident_bytes {
            self.peak_resident_bytes = bytes;
        }
        self.recorder.note_resident_bytes(bytes);
    }

    /// Returns the canonical edge list: sorted by `(src, dst)`, duplicates
    /// removed. A builder that never spilled counting-sorts its chunks by
    /// source (see [`sort_dedup_by_source`]); one that spilled sorts its
    /// in-memory chunks and k-way merges them with the run-files.
    ///
    /// Self-loops are *kept* (the builder is policy-free); generators that
    /// need simple graphs simply never stream self-loops in.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::CacheArtifact`] if a spill run-file written
    /// earlier cannot be read back. Builders that never spilled cannot fail.
    pub fn try_finish(mut self) -> Result<EdgeList, GraphError> {
        if !self.current.is_empty() {
            let rest = std::mem::take(&mut self.current);
            self.seal(rest);
        }
        let edges = if self.spilled.is_empty() {
            // Every chunk plus the row buffer is resident at the scatter.
            self.note_resident(
                (self.resident_edges * (SPILL_RECORD_BYTES + ROW_ENTRY_BYTES)) as u64,
            );
            sort_dedup_by_source(self.num_nodes, std::mem::take(&mut self.mem_chunks))
        } else {
            for chunk in &mut self.mem_chunks {
                chunk.sort_unstable();
            }
            let merged = merge_spilled(&self.mem_chunks, &self.spilled, self.budget)?;
            self.note_resident(((merged.len() + self.resident_edges) * SPILL_RECORD_BYTES) as u64);
            merged
        };
        Ok(EdgeList::from_sorted_edges_unchecked(self.num_nodes, edges))
    }

    /// [`EdgeListBuilder::try_finish`], for builders that cannot have
    /// spilled (or callers content to treat spill-file loss as fatal).
    ///
    /// # Panics
    ///
    /// Panics if a spill run-file cannot be read back; prefer `try_finish`
    /// on paths where the builder may run under a bounded budget.
    pub fn finish(self) -> EdgeList {
        self.try_finish()
            .expect("spill run-file readable until finish")
    }
}

/// Sorts the edges of `chunks` by `(src, dst)` and removes duplicates.
///
/// A counting pass over source ids sizes one row per source in a buffer of
/// destination ids only; a second pass scatters every destination into its
/// row, dropping each chunk once it is scattered. Each row is then sorted
/// and deduplicated on its own, so no comparison ever looks at a whole edge.
/// Cost is `O(V + E)` plus the per-row sorts.
pub(crate) fn sort_dedup_by_source(num_nodes: usize, chunks: Vec<Vec<Edge>>) -> Vec<Edge> {
    // `row_end[s]` first holds the start of source `s`'s row, advances as
    // the row fills, and so ends as the row's (exclusive) end.
    let mut row_end = vec![0usize; num_nodes + 1];
    for edge in chunks.iter().flatten() {
        row_end[edge.src as usize + 1] += 1;
    }
    for s in 0..num_nodes {
        row_end[s + 1] += row_end[s];
    }
    let mut dsts: Vec<NodeId> = vec![0; row_end[num_nodes]];
    for chunk in chunks {
        for edge in &chunk {
            let slot = &mut row_end[edge.src as usize];
            dsts[*slot] = edge.dst;
            *slot += 1;
        }
    }

    // Sort each row and compact its distinct destinations to the front of
    // the buffer; `row_end` is rewritten to the compacted ends.
    let mut unique = 0usize;
    let mut begin = 0usize;
    for end in &mut row_end[..num_nodes] {
        let row_stop = *end;
        dsts[begin..row_stop].sort_unstable();
        let mut last = None;
        for i in begin..row_stop {
            let dst = dsts[i];
            if last != Some(dst) {
                dsts[unique] = dst;
                unique += 1;
                last = Some(dst);
            }
        }
        *end = unique;
        begin = row_stop;
    }

    let mut edges = Vec::with_capacity(unique);
    let mut begin = 0usize;
    for (src, &end) in row_end[..num_nodes].iter().enumerate() {
        edges.extend(
            dsts[begin..end]
                .iter()
                .map(|&dst| Edge::new(src as NodeId, dst)),
        );
        begin = end;
    }
    edges
}

/// One input to the heterogeneous k-way merge: an in-memory sorted slice or
/// a buffered reader over a sorted spill run-file.
enum MergeCursor<'a> {
    Mem {
        chunk: &'a [Edge],
        pos: usize,
    },
    Run {
        reader: BufReader<File>,
        remaining: usize,
        path: &'a PathBuf,
    },
}

impl MergeCursor<'_> {
    fn next(&mut self) -> Result<Option<Edge>, GraphError> {
        match self {
            MergeCursor::Mem { chunk, pos } => {
                let edge = chunk.get(*pos).copied();
                *pos += 1;
                Ok(edge)
            }
            MergeCursor::Run {
                reader,
                remaining,
                path,
            } => {
                if *remaining == 0 {
                    return Ok(None);
                }
                let mut record = [0u8; SPILL_RECORD_BYTES];
                reader.read_exact(&mut record).map_err(|e| {
                    GraphError::cache(
                        path.display().to_string(),
                        format!("spill run-file read failed: {e}"),
                    )
                })?;
                *remaining -= 1;
                Ok(Some(Edge::new(
                    u32::from_le_bytes(record[0..4].try_into().expect("4 bytes")),
                    u32::from_le_bytes(record[4..8].try_into().expect("4 bytes")),
                )))
            }
        }
    }
}

/// K-way merge across sorted in-memory chunks and spilled run-files into
/// one sorted, duplicate-free list; read buffers divide the budget across
/// the open run-files.
fn merge_spilled(
    mem_chunks: &[Vec<Edge>],
    spilled: &[SpillFile],
    budget: MemoryBudget,
) -> Result<Vec<Edge>, GraphError> {
    let total: usize = mem_chunks.iter().map(Vec::len).sum::<usize>()
        + spilled.iter().map(|s| s.edges).sum::<usize>();
    let buffer_bytes = budget.io_buffer_bytes(spilled.len());
    let mut cursors: Vec<MergeCursor<'_>> = Vec::with_capacity(mem_chunks.len() + spilled.len());
    for chunk in mem_chunks {
        cursors.push(MergeCursor::Mem { chunk, pos: 0 });
    }
    for run in spilled {
        let file = File::open(&run.path).map_err(|e| {
            GraphError::cache(
                run.path.display().to_string(),
                format!("spill run-file vanished: {e}"),
            )
        })?;
        cursors.push(MergeCursor::Run {
            reader: BufReader::with_capacity(buffer_bytes, file),
            remaining: run.edges,
            path: &run.path,
        });
    }

    let mut out: Vec<Edge> = Vec::with_capacity(total);
    let mut heap: BinaryHeap<Reverse<(Edge, usize)>> = BinaryHeap::with_capacity(cursors.len());
    for (i, cursor) in cursors.iter_mut().enumerate() {
        if let Some(edge) = cursor.next()? {
            heap.push(Reverse((edge, i)));
        }
    }
    while let Some(Reverse((edge, i))) = heap.pop() {
        if out.last() != Some(&edge) {
            out.push(edge);
        }
        if let Some(next) = cursors[i].next()? {
            heap.push(Reverse((next, i)));
        }
    }
    Ok(out)
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

    fn spill_dir(label: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NONCE: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "gnnerator-spill-test-{label}-{}-{}",
            std::process::id(),
            NONCE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn builder_matches_collect_sort_dedup() {
        // A deterministic pseudo-random edge stream spanning many chunks.
        let n = 50usize;
        let edges = pseudo_random_edges(n, 5000);
        for capacity in [1, 7, 64, 4096, usize::MAX] {
            let mut builder = EdgeListBuilder::with_chunk_capacity(n, capacity)
                .with_memory_budget(MemoryBudget::unbounded());
            for &e in &edges {
                builder.push(e).unwrap();
            }
            let built = builder.finish();
            assert_eq!(built, reference(n, &edges), "capacity {capacity}");
            assert!(built.is_sorted());
        }
    }

    #[test]
    fn spilled_builder_is_bit_identical_to_in_memory() {
        let n = 64usize;
        let edges = pseudo_random_edges(n, 4000);
        let expected = reference(n, &edges);
        let dir = spill_dir("bit-identical");
        // Budgets straddling the chunk size: spill-everything, exactly one
        // resident chunk, and a mid-stream cap.
        let chunk_bytes = (128 * SPILL_RECORD_BYTES) as u64;
        for budget in [0, chunk_bytes, 3 * chunk_bytes + 1] {
            let mut builder = EdgeListBuilder::with_chunk_capacity(n, 128)
                .with_memory_budget(MemoryBudget::bytes(budget))
                .with_spill_dir(&dir);
            for &e in &edges {
                builder.push(e).unwrap();
            }
            assert!(
                builder.spilled_chunks() > 0,
                "budget {budget} never spilled"
            );
            let built = builder.try_finish().unwrap();
            assert_eq!(built, expected, "budget {budget}");
        }
        // Run-files are deleted once the merge consumed them.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_budget_spills_every_sealed_chunk() {
        let dir = spill_dir("zero-budget");
        let mut builder = EdgeListBuilder::with_chunk_capacity(16, 4)
            .with_memory_budget(MemoryBudget::bytes(0))
            .with_spill_dir(&dir);
        for e in pseudo_random_edges(16, 41) {
            builder.push(e).unwrap();
        }
        // 10 full chunks sealed during push; the remainder seals in finish.
        assert_eq!(builder.spilled_chunks(), 10);
        assert_eq!(builder.len(), 41);
        assert!(builder.peak_resident_bytes() <= (4 * SPILL_RECORD_BYTES) as u64);
        let built = builder.try_finish().unwrap();
        assert!(built.is_sorted());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn exact_fit_budget_never_spills() {
        let dir = spill_dir("exact-fit");
        let edges = pseudo_random_edges(32, 256);
        let mut builder = EdgeListBuilder::with_chunk_capacity(32, 64)
            .with_memory_budget(MemoryBudget::bytes((256 * SPILL_RECORD_BYTES) as u64))
            .with_spill_dir(&dir);
        for &e in &edges {
            builder.push(e).unwrap();
        }
        assert_eq!(builder.spilled_chunks(), 0);
        assert_eq!(builder.try_finish().unwrap(), reference(32, &edges));
        std::fs::remove_dir_all(&dir).unwrap();
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
