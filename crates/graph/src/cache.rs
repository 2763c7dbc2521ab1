//! Persistent on-disk artifact cache for expensive graph-build products.
//!
//! Dataset synthesis and shard-grid construction are deterministic functions
//! of small keys — `(DatasetSpec, seed)` and `(spec, seed, nodes_per_shard,
//! include_self_loops)` respectively — so their outputs can be memoised on
//! disk and reloaded by later processes. GNNBuilder and HP-GNN both lean on
//! exactly this kind of cached preprocessing to make accelerator design-space
//! exploration cheap; here it turns the repeated-harness-run cold start
//! (synthesis + re-sharding, ~25% of a full sweep) into a handful of file
//! reads.
//!
//! # Format
//!
//! Artifacts are single files under the cache root (default
//! `target/gnnerator-cache/`, overridable — or disabled with `off` — via the
//! `GNNERATOR_CACHE` environment variable). Each file is a hand-rolled
//! little-endian binary record (the workspace has no serialisation
//! framework, so the format is written out field by field):
//!
//! ```text
//! magic    b"GNNA"
//! version  u32      — FORMAT_VERSION; any mismatch rejects the artifact
//! kind     u8       — 1 = dataset, 2 = shard grid
//! key_len  u32      — length of the UTF-8 key string
//! key      [u8]     — full key, verified on load (collision-proof)
//! len      u64      — payload length in bytes
//! checksum u64      — FNV-1a 64 over the payload's 8-byte little-endian
//!                     words, then its trailing bytes one at a time
//! payload  [u8]
//! ```
//!
//! Stores stream the payload to a temp file through one block buffer,
//! checksumming each block on its way out, and patch the length and
//! checksum slots last; no payload-sized buffer is ever built. Loads are the
//! mirror image: they stream the payload in through one block buffer,
//! checksumming each block as it arrives and decoding records straight into
//! place. Folding whole words makes the checksum eight times cheaper than
//! byte-wise FNV-1a on both the store and every load, and any corruption
//! confined to one word is still always detected (see `payload_checksum`).
//! A load checks the envelope's payload length against the file's real size,
//! and the header's record count against that length, before it reserves
//! any capacity, and it accepts an artifact only once its checksum matches.
//!
//! Since format version 5 a dataset artifact holds the dataset's identity
//! and its edges, nothing else: the payload is the kind tag (`u8`), the
//! spec's `vertices`, `edges` and `feature_dim`, the seed, `num_nodes` and
//! `num_edges` (each a `u64`), then one 8-byte record per edge (`src` and
//! `dst` as u32) in the list's order. Feature values are a pure function of
//! `(spec, seed)` ([`DatasetSpec::features`]), so none are stored; the load
//! checks every endpoint and the sort order as it decodes, and rejects an
//! artifact whose `num_nodes` or edge count is not the spec's.
//!
//! That check is what lets a [`Dataset`] take its counts from its spec: a
//! handle from [`Dataset::open`] reads this artifact only on its first
//! [`Dataset::edge_list`] call, which a session makes only to build a shard
//! summary it cannot load. A warm run whose summaries all load therefore
//! opens no dataset artifact at all; a missing, corrupt or fault-injected
//! one is met only by a summary miss, and then falls back to synthesis
//! (storing the fresh edges back).
//!
//! Since format version 3 a shard-grid artifact stores a [`ShardSummary`]
//! and no edges: the payload is a 32-byte header (`num_nodes`,
//! `nodes_per_shard`, `total_edges`, occupied-shard count, each a `u64`)
//! followed by one 32-byte record per occupied shard, row-major
//! (`src_block` u64, `dst_block` u64, then `edge_start`, `num_edges`,
//! `unique_sources`, `unique_destinations` as u32). That table is all the
//! timing simulator reads, so a warm start reads kilobytes and no edge;
//! [`ArtifactCache::load_summary`] checks that the records are row-major and
//! tile `[0, total_edges)` before rebuilding the row/column indexes.
//! Artifacts written by an older version fail the version check and are
//! quarantined and rebuilt like any other unusable artifact.
//!
//! Loads distinguish a *miss* (no file: `Ok(None)`) from an *unusable
//! artifact* (bad magic, stale version, checksum or key mismatch, truncated
//! payload: [`GraphError::CacheArtifact`]). Callers treat the latter as a
//! miss with a cause and rebuild; stores overwrite atomically
//! (write-to-temp + rename), so racing writers and torn writes cannot
//! corrupt a previously good entry.
//!
//! An unusable artifact is additionally **quarantined**: the file is renamed
//! to `<name>.corrupt` (preserving the evidence for post-mortems) and
//! counted in [`ArtifactCache::corrupt_artifacts`], so the same bad sector
//! cannot re-fail — and silently trigger a rebuild — on every later run.
//!
//! The read and write paths carry the `cache_read` / `cache_write`
//! failpoints (see `gnnerator_faults`): injected faults surface as
//! [`GraphError::CacheArtifact`] without quarantining the (healthy) file.

use crate::datasets::{Dataset, DatasetKind, DatasetSpec, Provenance};
use crate::{Edge, EdgeList, GraphError, ShardCoord, ShardMeta, ShardSummary};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// On-disk format version; bump whenever the byte layout changes so stale
/// artifacts are rejected (and rebuilt) instead of misread. Version 3
/// replaced the shard-grid artifact's edge arena with the bare
/// [`ShardSummary`] metadata table; version 4 replaced the byte-wise
/// payload checksum with the word-wise one; version 5 dropped the feature
/// table from the dataset artifact.
pub const FORMAT_VERSION: u32 = 5;

/// Environment variable controlling the cache. Accepted values (matched
/// after trimming surrounding whitespace):
///
/// | value                                  | behaviour                        |
/// |----------------------------------------|----------------------------------|
/// | unset                                  | cache at `target/gnnerator-cache` |
/// | `off` / `OFF` (any case), `0`, empty   | cache disabled                   |
/// | anything else                          | used as the cache directory      |
///
/// `off`, `0` and the empty string are deliberately *not* interpreted as
/// relative cache directories: `GNNERATOR_CACHE= cargo test` and
/// `GNNERATOR_CACHE=0 …` mean "no cache", never "a directory named `0`".
pub const CACHE_ENV_VAR: &str = "GNNERATOR_CACHE";

const MAGIC: &[u8; 4] = b"GNNA";
const KIND_DATASET: u8 = 1;
const KIND_GRID: u8 = 2;
/// Bytes of one shard-metadata record.
const META_RECORD_BYTES: usize = 32;
/// Bytes of one stored edge (`src` and `dst` as u32).
const EDGE_RECORD_BYTES: usize = 8;

/// Monotonic nonce making concurrent temp-file names unique within a process.
static TEMP_NONCE: AtomicU64 = AtomicU64::new(0);

/// How old an orphaned `*.tmp.<pid>.<nonce>` file must be before a cache
/// opened on the same root deletes it. A process killed between
/// `std::fs::write` and `rename` leaves its temp file behind forever; the
/// window is generous enough that no live writer (stores take milliseconds)
/// can have its in-flight temp swept out from under it.
const STALE_TEMP_WINDOW: std::time::Duration = std::time::Duration::from_secs(60 * 60);

/// A persistent, checksummed store of graph-build artifacts.
///
/// The cache is safe to share across threads (all methods take `&self`) and
/// across processes (stores are atomic renames; loads verify checksums).
///
/// # Examples
///
/// ```
/// use gnnerator_graph::datasets::DatasetKind;
/// use gnnerator_graph::ArtifactCache;
///
/// # fn main() -> Result<(), gnnerator_graph::GraphError> {
/// let dir = std::env::temp_dir().join("gnnerator-cache-doctest");
/// let cache = ArtifactCache::new(&dir);
/// let spec = DatasetKind::Cora.spec().scaled(0.02);
/// let dataset = spec.synthesize(7)?;
/// cache.store_dataset(&dataset)?;
/// let reloaded = cache.load_dataset(&spec, 7)?.expect("hit");
/// assert_eq!(reloaded.edge_list()?, dataset.edge_list()?);
/// assert!(reloaded.provenance().expect("loaded").loaded_from_cache);
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ArtifactCache {
    /// `None` means the cache is disabled: every load misses, every store is
    /// a no-op.
    root: Option<PathBuf>,
    /// Artifacts found unusable and renamed to `<name>.corrupt` by this
    /// cache instance.
    corrupt_artifacts: AtomicUsize,
}

impl ArtifactCache {
    /// Creates a cache rooted at `root` (created lazily on first store).
    ///
    /// Opening a root also sweeps orphaned `*.tmp.<pid>.<nonce>` files left
    /// by writers killed between their temp write and the publishing rename,
    /// spill run-files abandoned by earlier builds, and stale `*.corrupt`
    /// quarantine files — but only files older than a safety window, so a
    /// concurrent store's in-flight temp file is never touched and fresh
    /// quarantines keep their post-mortem value.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        let root = root.into();
        sweep_stale_temp_files(&root, STALE_TEMP_WINDOW);
        Self {
            root: Some(root),
            corrupt_artifacts: AtomicUsize::new(0),
        }
    }

    /// Creates a disabled cache: loads always miss, stores are no-ops.
    pub fn disabled() -> Self {
        Self {
            root: None,
            corrupt_artifacts: AtomicUsize::new(0),
        }
    }

    /// Builds the cache from the `GNNERATOR_CACHE` environment variable (see
    /// [`CACHE_ENV_VAR`]).
    pub fn from_env() -> Self {
        Self::from_env_value(std::env::var(CACHE_ENV_VAR).ok().as_deref())
    }

    /// The pure policy behind [`ArtifactCache::from_env`] (see
    /// [`CACHE_ENV_VAR`] for the value table): `None` (unset) selects the
    /// default root; `off` (case-insensitive), `0` and the empty string
    /// disable the cache; anything else is the root directory.
    pub fn from_env_value(value: Option<&str>) -> Self {
        match env_root(value) {
            Some(root) => Self::new(root),
            None => Self::disabled(),
        }
    }

    /// Returns `true` when the cache has a backing directory.
    pub fn is_enabled(&self) -> bool {
        self.root.is_some()
    }

    /// The cache root, if enabled.
    pub fn root(&self) -> Option<&Path> {
        self.root.as_deref()
    }

    /// How many unusable artifacts this cache instance has quarantined
    /// (renamed to `<name>.corrupt`).
    pub fn corrupt_artifacts(&self) -> usize {
        self.corrupt_artifacts.load(Ordering::Relaxed)
    }

    /// Maps an unusable-artifact error to a quarantine: the bad file is
    /// renamed to `<name>.corrupt` (best-effort) and counted, so the next
    /// load of this key is a clean miss instead of the same failure again.
    fn quarantining<T>(&self, path: &Path, result: Result<T, GraphError>) -> Result<T, GraphError> {
        if matches!(result, Err(GraphError::CacheArtifact { .. })) {
            if std::fs::rename(path, path.with_extension("corrupt")).is_err() {
                // Racing quarantiners or a vanished file: make sure the bad
                // artifact is gone either way.
                std::fs::remove_file(path).ok();
            }
            self.corrupt_artifacts.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// The cache identity of a `(spec, seed)` dataset.
    pub fn dataset_key(spec: &DatasetSpec, seed: u64) -> String {
        format!(
            "dataset/{}/v{}/e{}/f{}/seed{}",
            spec.name, spec.vertices, spec.edges, spec.feature_dim, seed
        )
    }

    /// The cache identity of a shard grid derived from the graph identified
    /// by `graph_key`.
    pub fn grid_key(graph_key: &str, nodes_per_shard: usize, include_self_loops: bool) -> String {
        format!(
            "{graph_key}/nps{nodes_per_shard}/loops{}",
            u8::from(include_self_loops)
        )
    }

    fn file_for(&self, prefix: &str, key: &str) -> Option<PathBuf> {
        self.root
            .as_ref()
            .map(|root| root.join(format!("{prefix}-{:016x}.bin", fnv1a64(key.as_bytes()))))
    }

    /// Stores a dataset's edges under its `(spec, seed)` key, materialising
    /// them first if the handle has not yet.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::CacheArtifact`] if the file cannot be written,
    /// and propagates the materialisation's errors.
    /// Callers normally treat store failures as best-effort (a cold next run,
    /// not a wrong one).
    pub fn store_dataset(&self, dataset: &Dataset) -> Result<(), GraphError> {
        self.store_edges(&dataset.spec, dataset.seed, dataset.edge_list()?)
    }

    /// Stores `edges` as the `(spec, seed)` dataset's artifact.
    pub(crate) fn store_edges(
        &self,
        spec: &DatasetSpec,
        seed: u64,
        edges: &EdgeList,
    ) -> Result<(), GraphError> {
        let key = Self::dataset_key(spec, seed);
        let Some(path) = self.file_for("ds", &key) else {
            return Ok(());
        };
        write_artifact(&path, KIND_DATASET, &key, |w| {
            w.put(&[kind_tag(spec.kind)])?;
            for field in [
                spec.vertices as u64,
                spec.edges as u64,
                spec.feature_dim as u64,
                seed,
                edges.num_nodes() as u64,
                edges.num_edges() as u64,
            ] {
                w.put_u64(field)?;
            }
            w.put_records(edges.as_slice(), EDGE_RECORD_BYTES, |e, record| {
                record[..4].copy_from_slice(&e.src.to_le_bytes());
                record[4..].copy_from_slice(&e.dst.to_le_bytes());
            })
        })
    }

    /// Loads the dataset stored under `(spec, seed)`, its edges in place.
    ///
    /// Returns `Ok(None)` on a clean miss. The loaded edge list is
    /// bit-identical to the synthesised original. The edges stream from the
    /// file straight into one vector reserved for them, each endpoint and
    /// the sort order checked on the way, and the dataset is returned only
    /// once the payload checksum matches.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::CacheArtifact`] for corrupt, stale-version or
    /// mismatched-key files, and for an artifact whose node or edge count is
    /// not the spec's — callers should fall back to a fresh build.
    pub fn load_dataset(
        &self,
        spec: &DatasetSpec,
        seed: u64,
    ) -> Result<Option<Dataset>, GraphError> {
        Ok(self
            .load_edges(spec, seed)?
            .map(|(edges, provenance)| Dataset::materialized(*spec, seed, edges, provenance)))
    }

    /// [`ArtifactCache::load_dataset`]'s edge list and how long it took.
    pub(crate) fn load_edges(
        &self,
        spec: &DatasetSpec,
        seed: u64,
    ) -> Result<Option<(EdgeList, Provenance)>, GraphError> {
        let key = Self::dataset_key(spec, seed);
        let Some(path) = self.file_for("ds", &key) else {
            return Ok(None);
        };
        check_fault("cache_read", &path)?;
        let load = || {
            let start = std::time::Instant::now();
            let Some(mut r) = PayloadReader::open(&path, KIND_DATASET, &key)? else {
                return Ok(None);
            };
            let kind = kind_from_tag(r.u8()?)
                .ok_or_else(|| reject(&path, "unknown dataset kind tag".to_string()))?;
            let vertices = r.u64()? as usize;
            let edges = r.u64()? as usize;
            let feature_dim = r.u64()? as usize;
            let stored_seed = r.u64()?;
            // The spec's `name` is identity only through the key string (already
            // verified by PayloadReader::open), so a spec carrying a custom name still
            // hits; the numeric fields are double-checked here.
            let stored_spec = DatasetSpec {
                kind,
                name: spec.name,
                vertices,
                edges,
                feature_dim,
            };
            if stored_spec != *spec || stored_seed != seed {
                return Err(reject(
                &path,
                format!("stored identity {stored_spec} (seed {stored_seed}) does not match the requested key"),
            ));
            }
            // A dataset's counts are its spec's, and sessions read them from
            // the spec without loading the edges: an artifact holding any
            // other graph is unusable.
            let num_nodes = r.u64()? as usize;
            let num_edges = r.record_count(EDGE_RECORD_BYTES)?;
            if (num_nodes, num_edges) != (spec.vertices, spec.edges) {
                return Err(reject(
                    &path,
                    format!(
                        "holds {num_nodes} nodes and {num_edges} edges, but the spec has {} and {}",
                        spec.vertices, spec.edges
                    ),
                ));
            }
            let mut edges: Vec<Edge> = Vec::with_capacity(num_edges);
            let mut sorted = true;
            r.records(num_edges, EDGE_RECORD_BYTES, |batch| {
                let mut last = edges.last().copied();
                for record in batch.chunks_exact(EDGE_RECORD_BYTES) {
                    let edge = Edge::new(
                        u32::from_le_bytes(record[..4].try_into().expect("4 bytes")),
                        u32::from_le_bytes(record[4..].try_into().expect("4 bytes")),
                    );
                    if edge.src.max(edge.dst) as usize >= num_nodes {
                        return Err(reject(
                            &path,
                            format!("edge {edge} out of range for {num_nodes} nodes"),
                        ));
                    }
                    sorted &= last.is_none_or(|last| last <= edge);
                    last = Some(edge);
                    edges.push(edge);
                }
                Ok(())
            })?;
            r.finish()?;
            let provenance = Provenance {
                build_seconds: start.elapsed().as_secs_f64(),
                loaded_from_cache: true,
            };
            Ok(Some((
                EdgeList::from_checked_edges(num_nodes, edges, sorted),
                provenance,
            )))
        };
        self.quarantining(&path, load())
    }

    /// Stores a shard summary under the given full grid key (see
    /// [`ArtifactCache::grid_key`]): the grid header and the occupied-shard
    /// metadata table, nothing else.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::CacheArtifact`] if the file cannot be written.
    pub fn store_summary(&self, key: &str, summary: &ShardSummary) -> Result<(), GraphError> {
        let Some(path) = self.file_for("grid", key) else {
            return Ok(());
        };
        write_artifact(&path, KIND_GRID, key, |w| {
            for field in [
                summary.num_nodes(),
                summary.nodes_per_shard(),
                summary.total_edges(),
                summary.metas().len(),
            ] {
                w.put_u64(field as u64)?;
            }
            w.put_records(summary.metas(), 32, |meta, record| {
                let fields = [
                    meta.edge_start(),
                    meta.num_edges() as u32,
                    meta.unique_source_count() as u32,
                    meta.unique_destination_count() as u32,
                ];
                record[..8].copy_from_slice(&(meta.coord().src_block as u64).to_le_bytes());
                record[8..16].copy_from_slice(&(meta.coord().dst_block as u64).to_le_bytes());
                for (slot, field) in record[16..].chunks_exact_mut(4).zip(fields) {
                    slot.copy_from_slice(&field.to_le_bytes());
                }
            })
        })
    }

    /// Loads the shard summary stored under `key`, skipping the metadata
    /// pass a fresh [`ShardSummary::build`] pays (the cheap CSR-style
    /// row/column indexes are rebuilt). No edge is read: the artifact holds
    /// none.
    ///
    /// Returns `Ok(None)` on a clean miss.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::CacheArtifact`] for corrupt, stale-version or
    /// mismatched files.
    pub fn load_summary(&self, key: &str) -> Result<Option<ShardSummary>, GraphError> {
        let Some(path) = self.file_for("grid", key) else {
            return Ok(None);
        };
        check_fault("cache_read", &path)?;
        let load = || {
            let Some(mut r) = PayloadReader::open(&path, KIND_GRID, key)? else {
                return Ok(None);
            };
            let num_nodes = r.u64()? as usize;
            let nodes_per_shard = r.u64()? as usize;
            if num_nodes == 0 || nodes_per_shard == 0 {
                return Err(reject(&path, "degenerate grid dimensions".to_string()));
            }
            let grid_dim = num_nodes.div_ceil(nodes_per_shard);
            let total_edges = r.u64()? as usize;
            let meta_count = r.record_count(META_RECORD_BYTES)?;
            let metas = parse_grid_metas(&mut r, &path, grid_dim, meta_count, total_edges)?;
            r.finish()?;
            Ok(Some(ShardSummary::assemble(
                num_nodes,
                nodes_per_shard,
                metas,
            )))
        };
        self.quarantining(&path, load())
    }
}

/// Parses `meta_count` shard-metadata records, validating coordinates and
/// that the extents tile `[0, arena_len)` contiguously.
fn parse_grid_metas(
    r: &mut PayloadReader<'_>,
    path: &Path,
    grid_dim: usize,
    meta_count: usize,
    arena_len: usize,
) -> Result<Vec<ShardMeta>, GraphError> {
    let mut metas: Vec<ShardMeta> = Vec::with_capacity(meta_count);
    let mut expected_start = 0u64;
    r.records(meta_count, META_RECORD_BYTES, |batch| {
        for record in batch.chunks_exact(META_RECORD_BYTES) {
            let word = |at: usize| u64::from_le_bytes(record[at..at + 8].try_into().expect("8"));
            let half = |at: usize| u32::from_le_bytes(record[at..at + 4].try_into().expect("4"));
            let (src_block, dst_block) = (word(0) as usize, word(8) as usize);
            let (edge_start, num_edges) = (half(16), half(20));
            if src_block >= grid_dim || dst_block >= grid_dim {
                return Err(reject(path, "shard coordinate out of range".to_string()));
            }
            let coord = ShardCoord::new(src_block, dst_block);
            if metas.last().is_some_and(|prev| prev.coord() >= coord) {
                return Err(reject(path, "shard metadata is not row-major".to_string()));
            }
            if num_edges == 0 || u64::from(edge_start) != expected_start {
                return Err(reject(
                    path,
                    "shard arena ranges are not contiguous".to_string(),
                ));
            }
            expected_start += u64::from(num_edges);
            metas.push(ShardMeta::from_raw(
                coord,
                edge_start,
                num_edges,
                half(24),
                half(28),
            ));
        }
        Ok(())
    })?;
    if expected_start != arena_len as u64 {
        return Err(reject(
            path,
            "shard metadata does not cover the arena".to_string(),
        ));
    }
    Ok(metas)
}

impl Default for ArtifactCache {
    /// The environment-configured cache (see [`ArtifactCache::from_env`]).
    fn default() -> Self {
        Self::from_env()
    }
}

fn kind_tag(kind: DatasetKind) -> u8 {
    match kind {
        DatasetKind::Cora => 0,
        DatasetKind::Citeseer => 1,
        DatasetKind::Pubmed => 2,
        DatasetKind::OgbnArxiv => 3,
        DatasetKind::OgbnProductsScale => 4,
    }
}

fn kind_from_tag(tag: u8) -> Option<DatasetKind> {
    match tag {
        0 => Some(DatasetKind::Cora),
        1 => Some(DatasetKind::Citeseer),
        2 => Some(DatasetKind::Pubmed),
        3 => Some(DatasetKind::OgbnArxiv),
        4 => Some(DatasetKind::OgbnProductsScale),
        _ => None,
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a step. For a fixed `value` it is a bijection of `hash` (an
/// xor, then a multiply by an odd constant modulo 2^64).
fn fnv_step(hash: u64, value: u64) -> u64 {
    (hash ^ value).wrapping_mul(FNV_PRIME)
}

/// FNV-1a 64-bit over bytes: a small, stable, dependency-free hash, used
/// for artifact file names.
fn fnv1a64(bytes: &[u8]) -> u64 {
    fold_bytes(FNV_OFFSET, bytes)
}

fn fold_bytes(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |hash, &b| fnv_step(hash, u64::from(b)))
}

/// Folds whole 8-byte little-endian words (`words.len()` is a multiple of
/// 8) into an FNV-1a 64 state.
fn fold_words(hash: u64, words: &[u8]) -> u64 {
    words.chunks_exact(8).fold(hash, |hash, word| {
        fnv_step(hash, u64::from_le_bytes(word.try_into().expect("8 bytes")))
    })
}

/// The payload checksum since format 4: FNV-1a 64 folding 8-byte
/// little-endian words, then the trailing bytes one at a time: eight times
/// fewer steps than byte-wise FNV-1a. For a given word each step is a
/// bijection of the state, and the steps after a corrupted word fold the
/// same words as before, so a corruption confined to one word (or one
/// trailing byte) always changes the checksum. Not cryptographic — it
/// guards against torn writes and bit rot, not attackers (the cache
/// directory is as trusted as the build directory it lives in).
///
/// [`PayloadWriter`] and [`PayloadReader`] fold it block by block; this
/// whole-payload form is the reference the tests check them against.
#[cfg(test)]
fn payload_checksum(payload: &[u8]) -> u64 {
    let whole = payload.len() / 8 * 8;
    fold_bytes(fold_words(FNV_OFFSET, &payload[..whole]), &payload[whole..])
}

/// The pure `GNNERATOR_CACHE` policy: `None` (unset) selects the default
/// root, `off`/`0`/empty disables (returns `None`), anything else is the
/// root directory.
fn env_root(value: Option<&str>) -> Option<PathBuf> {
    match value {
        Some(value) => {
            let trimmed = value.trim();
            if trimmed.is_empty() || trimmed.eq_ignore_ascii_case("off") || trimmed == "0" {
                None
            } else {
                Some(PathBuf::from(trimmed))
            }
        }
        None => Some(PathBuf::from("target/gnnerator-cache")),
    }
}

/// Whether a file name matches the `spill-<pid>-<nonce>.run` pattern of
/// the run-files that earlier builds of the edge builder spilled next to
/// the cache, so the sweep still reaps the ones they abandoned. Exact for
/// the same reason as
/// [`is_temp_artifact_name`]: the sweep must only ever delete files this
/// crate itself could have written.
fn is_spill_run_name(name: &str) -> bool {
    let Some(stem) = name
        .strip_prefix("spill-")
        .and_then(|rest| rest.strip_suffix(".run"))
    else {
        return false;
    };
    match stem.split_once('-') {
        Some((pid, nonce)) => {
            !pid.is_empty()
                && !nonce.is_empty()
                && pid.parse::<u64>().is_ok()
                && nonce.parse::<u64>().is_ok()
        }
        None => false,
    }
}

fn reject(path: &Path, message: String) -> GraphError {
    GraphError::cache(path.display().to_string(), message)
}

/// Evaluates the named fault-injection point, surfacing an injected fault as
/// a typed cache error at `path`. Checked *outside* the quarantine wrapper,
/// so injected I/O faults never rename a healthy artifact.
fn check_fault(point: &str, path: &Path) -> Result<(), GraphError> {
    gnnerator_faults::check(point).map_err(|e| reject(path, e.to_string()))
}

/// Deletes orphaned temp files, abandoned spill run-files and stale
/// quarantined artifacts under `root` that are older than `window`.
///
/// Best-effort on every step: a missing root, unreadable metadata or a
/// losing race against another sweeper are all fine — the only hard
/// requirement is never deleting a published artifact, a temp file young
/// enough to belong to a live writer, or a spill run-file an older build's
/// edge builder, still running, is merging from. Quarantined
/// `*.corrupt` files keep their post-mortem value for the window, then
/// stop accumulating.
fn sweep_stale_temp_files(root: &Path, window: std::time::Duration) {
    let Ok(entries) = std::fs::read_dir(root) else {
        return; // nothing cached yet (or the root is unreadable)
    };
    let now = std::time::SystemTime::now();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if !is_temp_artifact_name(name)
            && !is_spill_run_name(name)
            && !is_corrupt_artifact_name(name)
        {
            continue;
        }
        let stale = entry
            .metadata()
            .and_then(|meta| meta.modified())
            .ok()
            // A modification time in the future reads as "not stale".
            .and_then(|modified| now.duration_since(modified).ok())
            .is_some_and(|age| age >= window);
        if stale {
            std::fs::remove_file(entry.path()).ok();
        }
    }
}

/// Whether a file name matches the `<prefix>-<hex16>.tmp.<pid>.<nonce>`
/// pattern [`write_artifact`] produces (prefix `ds` or `grid`). The match is
/// deliberately exact: `GNNERATOR_CACHE` may point the cache at a directory
/// shared with other tools, and the sweep must only ever delete files this
/// cache itself could have written. Published artifacts end in `.bin` and
/// can never match.
fn is_temp_artifact_name(name: &str) -> bool {
    let Some((artifact, suffix)) = name.split_once(".tmp.") else {
        return false;
    };
    let stem_ok = ["ds-", "grid-"].iter().any(|prefix| {
        artifact
            .strip_prefix(prefix)
            .is_some_and(|hex| hex.len() == 16 && hex.bytes().all(|b| b.is_ascii_hexdigit()))
    });
    stem_ok
        && match suffix.split_once('.') {
            Some((pid, nonce)) => pid.parse::<u64>().is_ok() && nonce.parse::<u64>().is_ok(),
            None => false,
        }
}

/// Whether a file name matches the `<prefix>-<hex16>.corrupt` pattern
/// [`ArtifactCache::quarantining`] produces (prefix `ds` or `grid`).
/// Exact for the same reason as [`is_temp_artifact_name`]: the sweep must
/// only ever delete files this cache itself could have written.
fn is_corrupt_artifact_name(name: &str) -> bool {
    let Some(artifact) = name.strip_suffix(".corrupt") else {
        return false;
    };
    ["ds-", "grid-"].iter().any(|prefix| {
        artifact
            .strip_prefix(prefix)
            .is_some_and(|hex| hex.len() == 16 && hex.bytes().all(|b| b.is_ascii_hexdigit()))
    })
}

/// Bytes a [`PayloadWriter`] gathers before it checksums and writes them.
const PAYLOAD_BLOCK_BYTES: usize = 1 << 18;

/// Records a [`PayloadWriter::put_records`] encodes per batch.
const RECORD_BATCH: usize = 1 << 13;

/// Streams an artifact payload into its file through one block buffer,
/// folding the block's whole words into the `payload_checksum` on their
/// way out, so no payload-sized buffer ever exists.
struct PayloadWriter {
    file: File,
    block: Vec<u8>,
    hash: u64,
    len: u64,
}

impl PayloadWriter {
    fn new(file: File) -> Self {
        Self {
            file,
            block: Vec::with_capacity(PAYLOAD_BLOCK_BYTES + RECORD_BATCH * 32),
            hash: FNV_OFFSET,
            len: 0,
        }
    }

    fn put(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.block.extend_from_slice(bytes);
        self.drain_if_full()
    }

    fn put_u64(&mut self, value: u64) -> std::io::Result<()> {
        self.put(&value.to_le_bytes())
    }

    /// Appends one `width`-byte record per item, written by `encode`.
    fn put_records<T>(
        &mut self,
        items: &[T],
        width: usize,
        encode: impl Fn(&T, &mut [u8]),
    ) -> std::io::Result<()> {
        for batch in items.chunks(RECORD_BATCH) {
            let start = self.block.len();
            self.block.resize(start + batch.len() * width, 0);
            for (record, item) in self.block[start..].chunks_exact_mut(width).zip(batch) {
                encode(item, record);
            }
            self.drain_if_full()?;
        }
        Ok(())
    }

    fn drain_if_full(&mut self) -> std::io::Result<()> {
        if self.block.len() >= PAYLOAD_BLOCK_BYTES {
            self.drain()?;
        }
        Ok(())
    }

    /// Writes out the block's whole words; up to 7 trailing bytes stay for
    /// the next block.
    fn drain(&mut self) -> std::io::Result<()> {
        let whole = self.block.len() / 8 * 8;
        self.hash = fold_words(self.hash, &self.block[..whole]);
        self.file.write_all(&self.block[..whole])?;
        self.len += whole as u64;
        self.block.drain(..whole);
        Ok(())
    }

    /// Writes the rest of the payload; returns the file, the payload length
    /// and its checksum.
    fn finish(mut self) -> std::io::Result<(File, u64, u64)> {
        self.drain()?;
        self.file.write_all(&self.block)?;
        let len = self.len + self.block.len() as u64;
        Ok((self.file, len, fold_bytes(self.hash, &self.block)))
    }
}

/// Writes a complete artifact file atomically: the header with zeroed
/// length and checksum slots, then the payload streamed by `payload`, then
/// the two slots patched in place, all in a temp file that is renamed over
/// `path` only once complete.
fn write_artifact(
    path: &Path,
    kind: u8,
    key: &str,
    payload: impl FnOnce(&mut PayloadWriter) -> std::io::Result<()>,
) -> Result<(), GraphError> {
    check_fault("cache_write", path)?;
    let io_err = |what: &str, e: std::io::Error| reject(path, format!("{what}: {e}"));
    let dir = path.parent().expect("cache files always live under a root");
    std::fs::create_dir_all(dir).map_err(|e| io_err("creating cache directory", e))?;

    let nonce = TEMP_NONCE.fetch_add(1, Ordering::Relaxed);
    let temp = path.with_extension(format!("tmp.{}.{nonce}", std::process::id()));
    let write = |temp: &Path| -> std::io::Result<()> {
        let mut header = Vec::with_capacity(4 + 4 + 1 + 4 + key.len() + 16);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        header.push(kind);
        header.extend_from_slice(&(key.len() as u32).to_le_bytes());
        header.extend_from_slice(key.as_bytes());
        let slots = header.len() as u64;
        header.extend_from_slice(&[0; 16]);
        let mut file = File::create(temp)?;
        file.write_all(&header)?;
        let mut writer = PayloadWriter::new(file);
        payload(&mut writer)?;
        let (mut file, len, checksum) = writer.finish()?;
        file.seek(SeekFrom::Start(slots))?;
        file.write_all(&len.to_le_bytes())?;
        file.write_all(&checksum.to_le_bytes())
    };
    if let Err(e) = write(&temp) {
        std::fs::remove_file(&temp).ok();
        return Err(io_err("writing cache artifact", e));
    }
    std::fs::rename(&temp, path).map_err(|e| {
        std::fs::remove_file(&temp).ok();
        io_err("publishing cache artifact", e)
    })
}

/// Streams an artifact payload in from its file through one block buffer,
/// folding each block into the `payload_checksum` as it arrives: the
/// mirror of [`PayloadWriter`]. No payload-sized buffer ever exists, and
/// [`PayloadReader::finish`] accepts the payload only once every byte has
/// been consumed and the checksum matches.
struct PayloadReader<'a> {
    file: File,
    path: &'a Path,
    block: Vec<u8>,
    /// Bytes of `block` already consumed.
    pos: usize,
    /// Payload bytes not yet read from the file.
    unread: u64,
    hash: u64,
    checksum: u64,
}

impl<'a> PayloadReader<'a> {
    /// Opens the artifact at `path` and validates its envelope: magic,
    /// version, kind, key, and a stated payload length that matches the
    /// file's real size. The reader then stands at the payload's first byte.
    ///
    /// `Ok(None)` when the file does not exist; [`GraphError::CacheArtifact`]
    /// when it exists but cannot be trusted.
    fn open(path: &'a Path, kind: u8, key: &str) -> Result<Option<Self>, GraphError> {
        let io_err = |what: &str, e: std::io::Error| reject(path, format!("{what}: {e}"));
        let mut file = match File::open(path) {
            Ok(file) => file,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err("opening cache artifact", e)),
        };
        let file_len = file
            .metadata()
            .map_err(|e| io_err("reading cache artifact metadata", e))?
            .len();
        let mut fixed = [0u8; 13];
        read_header(&mut file, path, &mut fixed)?;
        if fixed[..4] != MAGIC[..] {
            return Err(reject(
                path,
                "bad magic (not a gnnerator artifact)".to_string(),
            ));
        }
        let version = u32::from_le_bytes(fixed[4..8].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return Err(reject(
                path,
                format!("stale format version {version} (expected {FORMAT_VERSION})"),
            ));
        }
        if fixed[8] != kind {
            return Err(reject(path, format!("wrong artifact kind {}", fixed[8])));
        }
        // A stored key of another length cannot match, so it is rejected
        // before a byte of it is read.
        let key_len = u32::from_le_bytes(fixed[9..13].try_into().expect("4 bytes")) as usize;
        if key_len != key.len() {
            return Err(reject(
                path,
                format!("key mismatch: stored a {key_len}-byte key, requested {key:?}"),
            ));
        }
        let mut rest = vec![0u8; key_len + 16];
        read_header(&mut file, path, &mut rest)?;
        let (stored_key, slots) = rest.split_at(key_len);
        if stored_key != key.as_bytes() {
            return Err(reject(
                path,
                format!(
                    "key mismatch: stored {:?}, requested {key:?}",
                    String::from_utf8_lossy(stored_key)
                ),
            ));
        }
        let len = u64::from_le_bytes(slots[..8].try_into().expect("8 bytes"));
        let checksum = u64::from_le_bytes(slots[8..].try_into().expect("8 bytes"));
        let held = file_len.saturating_sub((fixed.len() + rest.len()) as u64);
        if held != len {
            return Err(reject(
                path,
                format!("the envelope states a {len}-byte payload but the file holds {held} bytes"),
            ));
        }
        Ok(Some(Self {
            file,
            path,
            block: Vec::new(),
            pos: 0,
            unread: len,
            hash: FNV_OFFSET,
            checksum,
        }))
    }

    /// Reads a record count (a `u64`) and checks that that many records of
    /// `width` bytes exactly fill the rest of the payload, whose length the
    /// envelope states and the file size confirms: a torn or hostile count
    /// is an error before anything is reserved for it.
    fn record_count(&mut self, width: usize) -> Result<usize, GraphError> {
        let count = self.u64()?;
        let left = self.unread + (self.block.len() - self.pos) as u64;
        if count.checked_mul(width as u64) != Some(left) {
            return Err(reject(
                self.path,
                format!("header claims {count} records of {width} bytes, but {left} payload bytes are left"),
            ));
        }
        usize::try_from(count).map_err(|_| reject(self.path, format!("{count} records overflow")))
    }

    /// Makes at least `need` unconsumed bytes available in the block,
    /// reading and checksumming further blocks of the payload.
    fn fill(&mut self, need: usize) -> Result<(), GraphError> {
        while self.block.len() - self.pos < need {
            if self.unread == 0 {
                return Err(reject(self.path, "truncated artifact".to_string()));
            }
            self.block.drain(..self.pos);
            self.pos = 0;
            let chunk = self.unread.min(PAYLOAD_BLOCK_BYTES as u64) as usize;
            let start = self.block.len();
            // Read into the block's spare capacity: no zero-fill first.
            self.block.reserve(chunk);
            let read = (&mut self.file)
                .take(chunk as u64)
                .read_to_end(&mut self.block)
                .map_err(|e| reject(self.path, format!("reading cache artifact: {e}")))?;
            if read != chunk {
                return Err(reject(self.path, "truncated artifact".to_string()));
            }
            let fresh = &self.block[start..];
            self.unread -= chunk as u64;
            // Every chunk but the last is a whole number of words, so each
            // starts on a word boundary of the payload.
            let whole = chunk / 8 * 8;
            self.hash = fold_bytes(fold_words(self.hash, &fresh[..whole]), &fresh[whole..]);
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&[u8], GraphError> {
        self.fill(n)?;
        let bytes = &self.block[self.pos..self.pos + n];
        self.pos += n;
        Ok(bytes)
    }

    fn u8(&mut self) -> Result<u8, GraphError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, GraphError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Hands `decode` the next `count` records of `width` bytes, in batches
    /// of whole records straight out of the block buffer.
    fn records(
        &mut self,
        count: usize,
        width: usize,
        mut decode: impl FnMut(&[u8]) -> Result<(), GraphError>,
    ) -> Result<(), GraphError> {
        let mut left = count;
        while left > 0 {
            self.fill(width)?;
            let n = ((self.block.len() - self.pos) / width).min(left);
            decode(&self.block[self.pos..self.pos + n * width])?;
            self.pos += n * width;
            left -= n;
        }
        Ok(())
    }

    /// Accepts the payload: every byte consumed (trailing bytes are a sign
    /// of corruption or of a layout drift the version bump missed), and the
    /// checksum of the whole payload equal to the envelope's.
    fn finish(self) -> Result<(), GraphError> {
        if self.unread != 0 || self.pos != self.block.len() {
            return Err(reject(
                self.path,
                "trailing bytes after payload".to_string(),
            ));
        }
        if self.hash != self.checksum {
            return Err(reject(self.path, "payload checksum mismatch".to_string()));
        }
        Ok(())
    }
}

/// Reads the next `buf.len()` header bytes of an artifact; a short file is
/// a typed error.
fn read_header(file: &mut File, path: &Path, buf: &mut [u8]) -> Result<(), GraphError> {
    file.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            reject(path, "truncated artifact".to_string())
        } else {
            reject(path, format!("reading cache artifact: {e}"))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use std::sync::atomic::AtomicUsize;

    static TEST_DIR_NONCE: AtomicUsize = AtomicUsize::new(0);

    fn temp_cache(label: &str) -> (ArtifactCache, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "gnnerator-cache-test-{}-{label}-{}",
            std::process::id(),
            TEST_DIR_NONCE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        (ArtifactCache::new(&dir), dir)
    }

    #[test]
    fn dataset_round_trips_bit_identically() {
        let (cache, dir) = temp_cache("ds");
        let spec = DatasetKind::Citeseer.spec().scaled(0.03);
        let original = spec.synthesize(5).unwrap();
        assert!(cache.load_dataset(&spec, 5).unwrap().is_none(), "cold miss");
        cache.store_dataset(&original).unwrap();
        let loaded = cache.load_dataset(&spec, 5).unwrap().expect("hit");
        let (loaded_edges, original_edges) =
            (loaded.edge_list().unwrap(), original.edge_list().unwrap());
        assert_eq!(loaded_edges, original_edges);
        assert_eq!(loaded_edges.is_sorted(), original_edges.is_sorted());
        assert_eq!(loaded.spec, original.spec);
        assert_eq!(loaded.seed, 5);
        assert_eq!(loaded.spec.features(loaded.seed), spec.features(5));
        assert!(loaded.provenance().unwrap().loaded_from_cache);
        // A different seed is a different key.
        assert!(cache.load_dataset(&spec, 6).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn grid_round_trips_bit_identically() {
        let (cache, dir) = temp_cache("grid");
        let edges = generators::rmat(200, 900, 3).unwrap();
        let grid = ShardSummary::build(&edges, 32, false).unwrap();
        let key = ArtifactCache::grid_key("dataset/test/seed3", 32, false);
        assert!(cache.load_summary(&key).unwrap().is_none());
        cache.store_summary(&key, &grid).unwrap();
        let loaded = cache.load_summary(&key).unwrap().expect("hit");
        assert_eq!(loaded, grid, "same metas and indexes");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_payload_is_a_typed_error() {
        let (cache, dir) = temp_cache("corrupt");
        let edges = generators::rmat(100, 400, 1).unwrap();
        let grid = ShardSummary::build(&edges, 16, false).unwrap();
        let key = ArtifactCache::grid_key("g", 16, false);
        cache.store_summary(&key, &grid).unwrap();

        // Flip one payload byte on disk.
        let file = std::fs::read_dir(&dir)
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let mut bytes = std::fs::read(&file).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&file, bytes).unwrap();

        assert!(matches!(
            cache.load_summary(&key),
            Err(GraphError::CacheArtifact { .. })
        ));
        // The failing load quarantined the file: the original name is gone,
        // the `.corrupt` evidence file exists, the counter ticked, and the
        // next load of the same key is a clean miss (no repeated failure).
        assert!(!file.exists(), "corrupt artifact must be renamed away");
        assert!(file.with_extension("corrupt").exists());
        assert_eq!(cache.corrupt_artifacts(), 1);
        assert!(cache.load_summary(&key).unwrap().is_none());
        // The key is rebuildable: a fresh store publishes a good artifact.
        cache.store_summary(&key, &grid).unwrap();
        assert_eq!(cache.load_summary(&key).unwrap().expect("hit"), grid);
        assert_eq!(cache.corrupt_artifacts(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_version_and_wrong_key_are_typed_errors() {
        let (cache, dir) = temp_cache("stale");
        let edges = generators::rmat(100, 400, 1).unwrap();
        let grid = ShardSummary::build(&edges, 16, false).unwrap();
        let key = ArtifactCache::grid_key("g", 16, false);
        cache.store_summary(&key, &grid).unwrap();
        let file = std::fs::read_dir(&dir)
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();

        // Bump the stored version field (bytes 4..8).
        let mut bytes = std::fs::read(&file).unwrap();
        bytes[4] = bytes[4].wrapping_add(1);
        std::fs::write(&file, &bytes).unwrap();
        let err = cache.load_summary(&key).unwrap_err();
        assert!(err.to_string().contains("stale format version"), "{err}");

        // Restore the version but corrupt the key bytes.
        bytes[4] = bytes[4].wrapping_sub(1);
        bytes[13] ^= 0xff; // first key byte (4 magic + 4 version + 1 kind + 4 len)
        std::fs::write(&file, &bytes).unwrap();
        let err = cache.load_summary(&key).unwrap_err();
        assert!(err.to_string().contains("key mismatch"), "{err}");

        // Truncation is caught too.
        std::fs::write(&file, &bytes[..bytes.len() / 2]).unwrap();
        assert!(cache.load_summary(&key).is_err());

        // Not an artifact at all.
        std::fs::write(&file, b"definitely not a cache file").unwrap();
        let err = cache.load_summary(&key).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disabled_cache_is_inert() {
        let cache = ArtifactCache::disabled();
        assert!(!cache.is_enabled());
        assert!(cache.root().is_none());
        let spec = DatasetKind::Cora.spec().scaled(0.02);
        let dataset = spec.synthesize(1).unwrap();
        cache.store_dataset(&dataset).unwrap();
        assert!(cache.load_dataset(&spec, 1).unwrap().is_none());
        let grid = ShardSummary::build(dataset.edge_list().unwrap(), 16, false).unwrap();
        cache.store_summary("k", &grid).unwrap();
        assert!(cache.load_summary("k").unwrap().is_none());
    }

    #[test]
    fn env_value_policy() {
        assert!(!ArtifactCache::from_env_value(Some("off")).is_enabled());
        assert!(!ArtifactCache::from_env_value(Some("OFF")).is_enabled());
        assert!(!ArtifactCache::from_env_value(Some("0")).is_enabled());
        let default = ArtifactCache::from_env_value(None);
        assert_eq!(default.root().unwrap(), Path::new("target/gnnerator-cache"));
        // The empty string disables the cache rather than being taken as a
        // relative directory (`GNNERATOR_CACHE= cargo test` means "off").
        assert!(!ArtifactCache::from_env_value(Some("")).is_enabled());
        assert!(!ArtifactCache::from_env_value(Some("  ")).is_enabled());
        assert!(!ArtifactCache::from_env_value(Some(" off ")).is_enabled());
        let custom = ArtifactCache::from_env_value(Some("/tmp/somewhere"));
        assert_eq!(custom.root().unwrap(), Path::new("/tmp/somewhere"));
    }

    #[test]
    fn temp_artifact_names_are_recognised_exactly() {
        assert!(is_temp_artifact_name("ds-0123456789abcdef.tmp.4242.7"));
        assert!(is_temp_artifact_name("grid-00ff00ff00ff00ff.tmp.1.0"));
        // Published artifacts and unrelated files never match — the cache
        // root may be a shared directory, so only names this cache could
        // itself have written are sweepable.
        assert!(!is_temp_artifact_name("ds-0123456789abcdef.bin"));
        assert!(!is_temp_artifact_name("notes.tmp.txt"));
        assert!(!is_temp_artifact_name("backup.tmp.123.456"));
        assert!(!is_temp_artifact_name("ds-ab.tmp.12.7"), "hex too short");
        assert!(
            !is_temp_artifact_name("ds-0123456789abcdeg.tmp.1.2"),
            "not hex"
        );
        assert!(!is_temp_artifact_name("ds-0123456789abcdef.tmp.x.7"));
        assert!(!is_temp_artifact_name("ds-0123456789abcdef.tmp.12.y"));
        assert!(!is_temp_artifact_name("ds-0123456789abcdef.tmp.12"));
        assert!(!is_temp_artifact_name(".tmp.1.2"));
    }

    #[test]
    fn orphaned_temp_files_are_swept_but_young_and_published_files_survive() {
        let (cache, dir) = temp_cache("sweep");
        // Publish a real artifact so the directory holds a `.bin` file.
        let edges = generators::rmat(100, 400, 1).unwrap();
        let grid = ShardSummary::build(&edges, 16, false).unwrap();
        let key = ArtifactCache::grid_key("g", 16, false);
        cache.store_summary(&key, &grid).unwrap();

        // Simulate a writer killed between write and rename.
        let orphan = dir.join("ds-deadbeefdeadbeef.tmp.99999.3");
        std::fs::write(&orphan, b"partial artifact").unwrap();
        let unrelated = dir.join("README.txt");
        std::fs::write(&unrelated, b"not ours").unwrap();

        // A freshly opened cache (1-hour window) keeps the young orphan.
        let reopened = ArtifactCache::new(&dir);
        assert!(orphan.exists(), "young temp files must not be swept");
        assert!(reopened.load_summary(&key).unwrap().is_some());

        // With a zero safety window the orphan is stale and is deleted;
        // published artifacts and unrelated files are untouched.
        sweep_stale_temp_files(&dir, std::time::Duration::ZERO);
        assert!(!orphan.exists(), "stale temp files accumulate forever");
        assert!(unrelated.exists());
        assert!(ArtifactCache::new(&dir)
            .load_summary(&key)
            .unwrap()
            .is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweeping_a_missing_root_is_a_no_op() {
        let dir = std::env::temp_dir().join(format!(
            "gnnerator-cache-missing-{}-{}",
            std::process::id(),
            TEST_DIR_NONCE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        sweep_stale_temp_files(&dir, std::time::Duration::ZERO);
        assert!(!dir.exists(), "sweeping must not create the root");
    }

    #[test]
    fn spill_run_names_are_recognised_exactly() {
        assert!(is_spill_run_name("spill-4242-7.run"));
        assert!(is_spill_run_name("spill-1-0.run"));
        // Anything this crate could not have written must never match.
        assert!(!is_spill_run_name("spill-4242-7.bin"));
        assert!(!is_spill_run_name("spill-x-7.run"));
        assert!(!is_spill_run_name("spill-4242-y.run"));
        assert!(!is_spill_run_name("spill-4242.run"));
        assert!(!is_spill_run_name("spill--.run"));
        assert!(!is_spill_run_name("respill-1-2.run"));
        assert!(!is_spill_run_name("grid-0123456789abcdef.bin"));
    }

    #[test]
    fn abandoned_spill_run_files_are_swept_like_orphaned_temps() {
        let (cache, dir) = temp_cache("spill-sweep");
        let edges = generators::rmat(100, 400, 1).unwrap();
        let grid = ShardSummary::build(&edges, 16, false).unwrap();
        let key = ArtifactCache::grid_key("g", 16, false);
        cache.store_summary(&key, &grid).unwrap();

        // Simulate an older build's edge builder killed mid-spill.
        let abandoned = dir.join("spill-99999-17.run");
        std::fs::write(&abandoned, b"raw edge pairs").unwrap();

        // A freshly opened cache (1-hour window) keeps the young run-file —
        // it may belong to a live builder.
        let _reopened = ArtifactCache::new(&dir);
        assert!(abandoned.exists(), "young run-files must not be swept");

        sweep_stale_temp_files(&dir, std::time::Duration::ZERO);
        assert!(!abandoned.exists(), "stale run-files accumulate forever");
        assert!(ArtifactCache::new(&dir)
            .load_summary(&key)
            .unwrap()
            .is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_artifact_names_are_recognised_exactly() {
        assert!(is_corrupt_artifact_name("ds-0123456789abcdef.corrupt"));
        assert!(is_corrupt_artifact_name("grid-00ff00ff00ff00ff.corrupt"));
        // Published artifacts and unrelated files never match.
        assert!(!is_corrupt_artifact_name("ds-0123456789abcdef.bin"));
        assert!(!is_corrupt_artifact_name("notes.corrupt"));
        assert!(!is_corrupt_artifact_name("ds-ab.corrupt"), "hex too short");
        assert!(!is_corrupt_artifact_name("ds-0123456789abcdeg.corrupt"));
        assert!(!is_corrupt_artifact_name(
            "grid-0123456789abcdef.corrupt.bak"
        ));
        assert!(!is_corrupt_artifact_name(".corrupt"));
        // The quarantine rename and the recogniser agree.
        let quarantined = Path::new("grid-0123456789abcdef.bin").with_extension("corrupt");
        assert!(is_corrupt_artifact_name(
            quarantined.file_name().unwrap().to_str().unwrap()
        ));
    }

    #[test]
    fn stale_quarantine_files_are_swept_but_young_ones_survive() {
        let (cache, dir) = temp_cache("corrupt-sweep");
        let edges = generators::rmat(100, 400, 1).unwrap();
        let grid = ShardSummary::build(&edges, 16, false).unwrap();
        let key = ArtifactCache::grid_key("g", 16, false);
        cache.store_summary(&key, &grid).unwrap();

        // Quarantine the artifact for real by corrupting it.
        let file = std::fs::read_dir(&dir)
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let mut bytes = std::fs::read(&file).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&file, bytes).unwrap();
        assert!(cache.load_summary(&key).is_err());
        let quarantined = file.with_extension("corrupt");
        assert!(quarantined.exists());

        // A freshly opened cache (1-hour window) keeps the young quarantine
        // file — it still has post-mortem value.
        let _reopened = ArtifactCache::new(&dir);
        assert!(quarantined.exists(), "young quarantines must not be swept");

        // Past the safety window it is reaped instead of accumulating
        // forever; a republished artifact is untouched.
        cache.store_summary(&key, &grid).unwrap();
        sweep_stale_temp_files(&dir, std::time::Duration::ZERO);
        assert!(
            !quarantined.exists(),
            "stale quarantines accumulate forever"
        );
        assert!(ArtifactCache::new(&dir)
            .load_summary(&key)
            .unwrap()
            .is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_summary_artifacts_are_typed_errors_and_quarantined() {
        // Truncation, a flipped record byte, a flipped header byte, and a
        // correctly checksummed table that is not row-major each surface as
        // typed errors and quarantine the file as `<name>.corrupt`.
        for case in 0..4 {
            let (cache, dir) = temp_cache("summary-corrupt");
            let edges = generators::rmat(200, 900, 3).unwrap();
            let summary = ShardSummary::build(&edges, 32, false).unwrap();
            let key = ArtifactCache::grid_key("sc", 32, false);
            cache.store_summary(&key, &summary).unwrap();
            let file = cache.file_for("grid", &key).unwrap();
            let mut bytes = std::fs::read(&file).unwrap();
            match case {
                0 => bytes.truncate(bytes.len() - 16),
                1 => *bytes.last_mut().unwrap() ^= 0xff,
                2 => bytes[40] ^= 0x01,
                _ => {
                    // Swap the first two shard records and re-checksum: the
                    // envelope is valid, the table order is not.
                    let payload_start = bytes.len() - (32 + summary.metas().len() * 32);
                    let mut payload = bytes[payload_start..].to_vec();
                    let (first, rest) = payload[32..].split_at_mut(32);
                    first.swap_with_slice(&mut rest[..32]);
                    bytes.truncate(payload_start - 8);
                    bytes.extend_from_slice(&payload_checksum(&payload).to_le_bytes());
                    bytes.append(&mut payload);
                }
            }
            std::fs::write(&file, &bytes).unwrap();

            assert!(
                matches!(
                    cache.load_summary(&key),
                    Err(GraphError::CacheArtifact { .. })
                ),
                "case {case}"
            );
            assert!(!file.exists(), "case {case}: must be renamed away");
            assert!(file.with_extension("corrupt").exists(), "case {case}");
            assert_eq!(cache.corrupt_artifacts(), 1, "case {case}");
            assert!(cache.load_summary(&key).unwrap().is_none());
            // Rebuildable after quarantine.
            cache.store_summary(&key, &summary).unwrap();
            assert_eq!(cache.load_summary(&key).unwrap().expect("hit"), summary);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn summary_artifacts_hold_no_edges() {
        let (cache, dir) = temp_cache("summary-size");
        let edges = generators::rmat(2000, 20_000, 4).unwrap();
        let summary = ShardSummary::build(&edges, 256, true).unwrap();
        let key = ArtifactCache::grid_key("size", 256, true);
        cache.store_summary(&key, &summary).unwrap();
        let file_len = std::fs::metadata(cache.file_for("grid", &key).unwrap())
            .unwrap()
            .len();
        let envelope = (4 + 4 + 1 + 4 + key.len() + 8 + 8) as u64;
        assert_eq!(
            file_len,
            envelope + 32 + 32 * summary.occupied_shards() as u64,
            "header plus one record per occupied shard"
        );
        assert!(file_len < summary.total_edges() as u64 * 8);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dataset_artifacts_hold_edges_only() {
        let (cache, dir) = temp_cache("dataset-size");
        let dataset = DatasetKind::Pubmed
            .spec()
            .scaled(0.05)
            .synthesize(6)
            .unwrap();
        cache.store_dataset(&dataset).unwrap();
        let key = ArtifactCache::dataset_key(&dataset.spec, 6);
        let file_len = std::fs::metadata(cache.file_for("ds", &key).unwrap())
            .unwrap()
            .len();
        let envelope = (4 + 4 + 1 + 4 + key.len() + 8 + 8) as u64;
        assert_eq!(
            file_len,
            envelope + 1 + 6 * 8 + 8 * dataset.num_edges() as u64,
            "fixed fields plus one 8-byte record per edge, no feature block"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn artifacts_whose_counts_are_not_the_specs_are_quarantined() {
        // Sessions take a dataset's counts from its spec, so an artifact
        // holding any other graph under the spec's key must not load.
        let (cache, dir) = temp_cache("counts");
        let spec = DatasetKind::Cora.spec().scaled(0.02);
        let provenance = Provenance {
            build_seconds: 0.0,
            loaded_from_cache: false,
        };
        let other_nodes = generators::rmat_exact(spec.vertices + 1, spec.edges, 4).unwrap();
        let other_edges = generators::rmat_exact(spec.vertices, spec.edges - 1, 4).unwrap();
        for (stored, what) in [(other_nodes, "nodes"), (other_edges, "edges")] {
            let impostor = Dataset::materialized(spec, 4, stored, provenance);
            cache.store_dataset(&impostor).unwrap();
            let err = cache.load_dataset(&spec, 4).unwrap_err();
            assert!(
                matches!(err, GraphError::CacheArtifact { .. }),
                "{what}: {err}"
            );
            assert!(
                err.to_string().contains("but the spec has"),
                "{what}: {err}"
            );
            assert!(cache.load_dataset(&spec, 4).unwrap().is_none(), "{what}");
        }
        assert_eq!(cache.corrupt_artifacts(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hostile_edge_counts_are_typed_errors_before_any_allocation() {
        // A correctly checksummed header whose edge count would reserve
        // 8 TiB is rejected on the payload length alone and quarantined.
        let (cache, dir) = temp_cache("hostile");
        let spec = DatasetKind::Cora.spec().scaled(0.02);
        let dataset = spec.synthesize(4).unwrap();
        cache.store_dataset(&dataset).unwrap();
        let key = ArtifactCache::dataset_key(&spec, 4);
        let file = cache.file_for("ds", &key).unwrap();
        let mut bytes = std::fs::read(&file).unwrap();
        let envelope = 4 + 4 + 1 + 4 + key.len() + 16;
        let num_edges_at = envelope + 1 + 5 * 8;
        bytes[num_edges_at..num_edges_at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let checksum = payload_checksum(&bytes[envelope..]);
        bytes[envelope - 8..envelope].copy_from_slice(&checksum.to_le_bytes());
        std::fs::write(&file, &bytes).unwrap();

        let err = cache.load_dataset(&spec, 4).unwrap_err();
        assert!(matches!(err, GraphError::CacheArtifact { .. }), "{err}");
        assert!(err.to_string().contains("1099511627776 records"), "{err}");
        assert!(!file.exists(), "must be quarantined");
        assert_eq!(cache.corrupt_artifacts(), 1);

        // An envelope that claims more payload than the file holds is
        // rejected the same way, before the payload is read.
        cache.store_dataset(&dataset).unwrap();
        let mut bytes = std::fs::read(&file).unwrap();
        bytes[envelope - 16..envelope - 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        std::fs::write(&file, &bytes).unwrap();
        let err = cache.load_dataset(&spec, 4).unwrap_err();
        assert!(err.to_string().contains("the file holds"), "{err}");
        assert_eq!(cache.corrupt_artifacts(), 2);
        assert!(cache.load_dataset(&spec, 4).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn keys_are_distinct_per_parameter() {
        let spec = DatasetKind::Cora.spec();
        let base = ArtifactCache::dataset_key(&spec, 42);
        assert_ne!(base, ArtifactCache::dataset_key(&spec, 43));
        assert_ne!(base, ArtifactCache::dataset_key(&spec.scaled(0.5), 42));
        let g = ArtifactCache::grid_key(&base, 32, false);
        assert_ne!(g, ArtifactCache::grid_key(&base, 32, true));
        assert_ne!(g, ArtifactCache::grid_key(&base, 64, false));
    }

    #[test]
    fn word_checksum_detects_every_single_bit_flip_of_an_unaligned_payload() {
        // 67 bytes: eight whole words and a three-byte tail.
        let payload: Vec<u8> = (0..67u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        let pristine = payload_checksum(&payload);
        for bit in 0..payload.len() * 8 {
            let mut flipped = payload.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(payload_checksum(&flipped), pristine, "bit {bit}");
        }
        // Not the byte-wise checksum, so v3 checksums cannot validate.
        assert_ne!(pristine, fnv1a64(&payload));
        assert_eq!(payload_checksum(b""), FNV_OFFSET);
    }

    #[test]
    fn streamed_dataset_artifact_keeps_the_buffered_payload_layout() {
        // The streamed payload is byte for byte the format-5 layout built in
        // memory: the kind tag, six u64 fields and the edge records.
        let (cache, dir) = temp_cache("layout");
        let dataset = DatasetKind::Cora.spec().scaled(0.05).synthesize(3).unwrap();
        cache.store_dataset(&dataset).unwrap();
        let key = ArtifactCache::dataset_key(&dataset.spec, 3);
        let bytes = std::fs::read(cache.file_for("ds", &key).unwrap()).unwrap();

        let mut expected = vec![kind_tag(dataset.spec.kind)];
        for field in [
            dataset.spec.vertices,
            dataset.spec.edges,
            dataset.spec.feature_dim,
            3,
            dataset.edge_list().unwrap().num_nodes(),
            dataset.edge_list().unwrap().num_edges(),
        ] {
            expected.extend_from_slice(&(field as u64).to_le_bytes());
        }
        for e in dataset.edge_list().unwrap().iter() {
            expected.extend_from_slice(&e.src.to_le_bytes());
            expected.extend_from_slice(&e.dst.to_le_bytes());
        }

        let envelope = 4 + 4 + 1 + 4 + key.len();
        assert_eq!(&bytes[..4], MAGIC);
        assert_eq!(bytes[4..8], 5u32.to_le_bytes());
        let len = u64::from_le_bytes(bytes[envelope..envelope + 8].try_into().unwrap());
        let checksum = u64::from_le_bytes(bytes[envelope + 8..envelope + 16].try_into().unwrap());
        assert_eq!(len as usize, expected.len());
        assert_eq!(checksum, payload_checksum(&expected));
        assert!(
            bytes[envelope + 16..] == expected[..],
            "payload bytes differ"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned so a refactor cannot silently invalidate every artifact.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"gnnerator"), fnv1a64(b"gnnerator"));
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
    }

    #[test]
    fn corrupt_dataset_artifacts_are_quarantined_too() {
        let (cache, dir) = temp_cache("ds-quarantine");
        let spec = DatasetKind::Cora.spec().scaled(0.02);
        let dataset = spec.synthesize(9).unwrap();
        cache.store_dataset(&dataset).unwrap();
        let file = std::fs::read_dir(&dir)
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let mut bytes = std::fs::read(&file).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&file, bytes).unwrap();

        assert!(cache.load_dataset(&spec, 9).is_err());
        assert!(!file.exists());
        assert!(file.with_extension("corrupt").exists());
        assert_eq!(cache.corrupt_artifacts(), 1);
        assert!(cache.load_dataset(&spec, 9).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        /// Any truncation or single-bit flip of a stored artifact — a shard
        /// summary or a dataset — is (a) detected as a typed cache error,
        /// never misread as data, and (b) quarantined, so the follow-up load
        /// is a clean miss and a fresh store round-trips again.
        #[test]
        fn truncation_and_bit_flips_are_detected_and_quarantined(
            position in 0usize..1_000_000,
            mode in 0usize..2,
            dataset in 0usize..2,
        ) {
            let (cache, dir) = temp_cache("prop-corrupt");
            let spec = DatasetKind::Cora.spec().scaled(0.01);
            let stored = spec.synthesize(2).unwrap();
            let summary = ShardSummary::build(stored.edge_list().unwrap(), 8, true).unwrap();
            let key = ArtifactCache::grid_key("prop", 8, true);
            let file = if dataset == 1 {
                cache.store_dataset(&stored).unwrap();
                cache.file_for("ds", &ArtifactCache::dataset_key(&spec, 2)).unwrap()
            } else {
                cache.store_summary(&key, &summary).unwrap();
                cache.file_for("grid", &key).unwrap()
            };
            let bytes = std::fs::read(&file).unwrap();
            let mutated = if mode == 0 {
                // Truncate to a strict prefix (possibly empty).
                bytes[..position % bytes.len()].to_vec()
            } else {
                // Flip one bit somewhere in the file.
                let mut mutated = bytes.clone();
                let bit = position % (bytes.len() * 8);
                mutated[bit / 8] ^= 1 << (bit % 8);
                mutated
            };
            std::fs::write(&file, &mutated).unwrap();

            let reload = || -> Result<bool, GraphError> {
                Ok(if dataset == 1 {
                    cache.load_dataset(&spec, 2)?.is_some()
                } else {
                    cache.load_summary(&key)?.is_some()
                })
            };
            let outcome = reload();
            proptest::prop_assert!(
                matches!(outcome, Err(GraphError::CacheArtifact { .. })),
                "mutated artifact must be a typed error, got {outcome:?}"
            );
            proptest::prop_assert!(!file.exists(), "bad artifact must be renamed");
            proptest::prop_assert!(file.with_extension("corrupt").exists());
            proptest::prop_assert_eq!(cache.corrupt_artifacts(), 1);
            // Quarantined means the key is a clean miss, and rebuildable.
            proptest::prop_assert!(!reload().unwrap());
            if dataset == 1 {
                cache.store_dataset(&stored).unwrap();
                proptest::prop_assert_eq!(
                    cache.load_dataset(&spec, 2).unwrap().expect("hit").edge_list().unwrap(),
                    stored.edge_list().unwrap()
                );
            } else {
                cache.store_summary(&key, &summary).unwrap();
                proptest::prop_assert_eq!(cache.load_summary(&key).unwrap().expect("hit"), summary);
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
