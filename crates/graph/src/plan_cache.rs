//! Shard-plan caching for compile-once, run-many simulation sessions.
//!
//! Summarising an edge list's shard grid (a [`ShardSummary`]) is the
//! expensive part of compiling a workload, and its inputs are only the edge
//! list, the nodes-per-shard parameter `n` and whether self-loop edges are
//! added. A [`ShardPlanCache`] shares one edge list (an `Arc`, so sessions
//! over the same dataset never copy it) and memoises every summary built
//! from it, so sweeping many `(config, dataflow)` scenarios
//! over the same graph re-summarises only when `n` actually changes.
//!
//! When the cache is constructed with a disk backing
//! ([`ShardPlanCache::with_disk_cache`]), in-memory misses consult the
//! persistent [`ArtifactCache`] before building: repeated harness runs over
//! the same dataset skip the metadata pass entirely, loading the shard
//! summary straight from disk without touching an edge. Corrupt or stale
//! artifacts are treated as misses (the summary is rebuilt and the artifact
//! overwritten), never as failures.

use crate::{ArtifactCache, EdgeList, GraphError, ShardSummary};
use gnnerator_faults::lock_recover;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Cache key: the two parameters that determine a shard grid for a fixed
/// edge list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Maximum nodes per shard (the paper's `n`).
    pub nodes_per_shard: usize,
    /// Whether self-loop edges are added before sharding (self-inclusive
    /// aggregation).
    pub include_self_loops: bool,
}

/// A memoising shard summariser over one immutable edge list.
///
/// Thread-safe: scenario sweeps shard from many worker threads at once, and
/// every caller asking for the same `(n, self-loops)` pair receives the same
/// [`Arc<ShardSummary>`].
///
/// # Examples
///
/// ```
/// use gnnerator_graph::{generators, ShardPlanCache};
///
/// # fn main() -> Result<(), gnnerator_graph::GraphError> {
/// let edges = generators::rmat(128, 512, 3)?;
/// let cache = ShardPlanCache::new(std::sync::Arc::new(edges));
/// let a = cache.plan(32, false)?;
/// let b = cache.plan(32, false)?;
/// assert!(std::sync::Arc::ptr_eq(&a, &b)); // cached, not rebuilt
/// assert_eq!(cache.cached_plans(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShardPlanCache {
    edges: Arc<EdgeList>,
    plans: Mutex<HashMap<PlanKey, Arc<ShardSummary>>>,
    /// Cumulative wall-clock seconds spent inside [`ShardSummary::build`]
    /// (cache hits cost nothing; racing duplicate builds both count, since
    /// both actually burned the time).
    build_seconds: Mutex<f64>,
    /// Persistent backing: the artifact cache plus this edge list's stable
    /// graph identity (a dataset key). `None` for anonymous edge lists.
    disk: Option<(Arc<ArtifactCache>, String)>,
    /// Number of summaries built from scratch (in-memory *and* disk misses).
    grids_built: AtomicUsize,
    /// Number of summaries loaded from the persistent cache.
    grids_loaded: AtomicUsize,
}

impl ShardPlanCache {
    /// Creates a purely in-memory cache over `edges`.
    pub fn new(edges: Arc<EdgeList>) -> Self {
        Self {
            edges,
            plans: Mutex::new(HashMap::new()),
            build_seconds: Mutex::new(0.0),
            disk: None,
            grids_built: AtomicUsize::new(0),
            grids_loaded: AtomicUsize::new(0),
        }
    }

    /// Creates a cache over `edges` backed by a persistent [`ArtifactCache`].
    ///
    /// `graph_key` is the stable identity of the edge list's source (e.g.
    /// [`ArtifactCache::dataset_key`]); summaries are stored under
    /// `graph_key/nps../loops..`. Two processes that materialise the same
    /// `(spec, seed)` dataset therefore share shard summaries across runs.
    pub fn with_disk_cache(
        edges: Arc<EdgeList>,
        cache: Arc<ArtifactCache>,
        graph_key: impl Into<String>,
    ) -> Self {
        let mut this = Self::new(edges);
        if cache.is_enabled() {
            this.disk = Some((cache, graph_key.into()));
        }
        this
    }

    /// The edge list the cache shards (without self-loops).
    pub fn edges(&self) -> &EdgeList {
        &self.edges
    }

    /// Returns the shard summary for `(nodes_per_shard, include_self_loops)`,
    /// building and caching it on first request.
    ///
    /// With a disk backing, an in-memory miss first tries the persistent
    /// artifact — a hit reads no edge — and only a disk miss (or an unusable
    /// artifact) pays for a fresh [`ShardSummary::build`], whose result is
    /// stored back for future runs.
    ///
    /// # Errors
    ///
    /// Propagates [`ShardSummary::build`] errors (zero `nodes_per_shard`,
    /// empty node set).
    pub fn plan(
        &self,
        nodes_per_shard: usize,
        include_self_loops: bool,
    ) -> Result<Arc<ShardSummary>, GraphError> {
        let key = PlanKey {
            nodes_per_shard,
            include_self_loops,
        };
        if let Some(hit) = lock_recover(&self.plans).get(&key) {
            return Ok(Arc::clone(hit));
        }
        // Build outside the lock so concurrent misses on *different* keys
        // build in parallel; a racing duplicate build of the same key is
        // harmless and the first insert wins.
        let summary = Arc::new(self.materialize(key)?);
        let mut plans = lock_recover(&self.plans);
        Ok(Arc::clone(plans.entry(key).or_insert(summary)))
    }

    /// Loads the summary from disk or builds it fresh, maintaining the
    /// telemetry counters.
    fn materialize(&self, key: PlanKey) -> Result<ShardSummary, GraphError> {
        let Some((cache, graph_key)) = self.disk.as_ref().filter(|_| key.nodes_per_shard > 0)
        else {
            // A zero `nodes_per_shard` surfaces its parameter error before
            // touching the disk, so an invalid request can never be
            // "answered" by a stale artifact.
            return self.build_timed(key);
        };
        let artifact_key =
            ArtifactCache::grid_key(graph_key, key.nodes_per_shard, key.include_self_loops);
        match cache.load_summary(&artifact_key) {
            Ok(Some(summary)) if self.fits(&summary, key) => {
                self.grids_loaded.fetch_add(1, Ordering::Relaxed);
                return Ok(summary);
            }
            // A clean miss, a shape mismatch (key reuse across different
            // graphs) or a corrupt/stale artifact: rebuild and overwrite.
            Ok(_) | Err(GraphError::CacheArtifact { .. }) => {}
            Err(other) => return Err(other),
        }
        let summary = self.build_timed(key)?;
        // Persistence is best-effort: a failed store costs the next run a
        // rebuild, never a wrong result.
        cache.store_summary(&artifact_key, &summary).ok();
        Ok(summary)
    }

    /// Whether a loaded summary has the shape this cache's edge list would
    /// produce under `key`, judged without reading an edge: the node count
    /// and block size must match, and the edge total must be the list's
    /// (or, with self-loops merged in, lie between one loop per node and
    /// one extra edge per node).
    fn fits(&self, summary: &ShardSummary, key: PlanKey) -> bool {
        let (nodes, edges) = (self.edges.num_nodes(), self.edges.num_edges());
        let total = summary.total_edges();
        summary.num_nodes() == nodes
            && summary.nodes_per_shard() == key.nodes_per_shard
            && if key.include_self_loops {
                (nodes..=edges + nodes).contains(&total)
            } else {
                total == edges
            }
    }

    fn build_timed(&self, key: PlanKey) -> Result<ShardSummary, GraphError> {
        let build_start = Instant::now();
        let summary =
            ShardSummary::build(&self.edges, key.nodes_per_shard, key.include_self_loops)?;
        *lock_recover(&self.build_seconds) += build_start.elapsed().as_secs_f64();
        self.grids_built.fetch_add(1, Ordering::Relaxed);
        Ok(summary)
    }

    /// Number of distinct shard summaries currently cached.
    pub fn cached_plans(&self) -> usize {
        lock_recover(&self.plans).len()
    }

    /// Cumulative wall-clock seconds this cache has spent building shard
    /// summaries (cache hits — in-memory or disk — are free).
    pub fn build_seconds(&self) -> f64 {
        *lock_recover(&self.build_seconds)
    }

    /// Number of shard summaries built from scratch by this cache.
    pub fn grids_built(&self) -> usize {
        self.grids_built.load(Ordering::Relaxed)
    }

    /// Number of shard summaries loaded from the persistent artifact cache.
    pub fn grids_loaded(&self) -> usize {
        self.grids_loaded.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, ShardGrid};
    use std::path::PathBuf;

    fn cache() -> ShardPlanCache {
        ShardPlanCache::new(Arc::new(generators::rmat(100, 400, 1).unwrap()))
    }

    fn temp_dir(label: &str) -> PathBuf {
        static NONCE: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "gnnerator-plan-cache-{}-{label}-{}",
            std::process::id(),
            NONCE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn identical_keys_share_one_grid() {
        let cache = cache();
        let a = cache.plan(16, true).unwrap();
        let b = cache.plan(16, true).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.cached_plans(), 1);
        assert_eq!(cache.grids_built(), 1);
        assert_eq!(cache.grids_loaded(), 0);
    }

    #[test]
    fn distinct_keys_build_distinct_grids() {
        let cache = cache();
        let plain = cache.plan(16, false).unwrap();
        let with_self = cache.plan(16, true).unwrap();
        let coarser = cache.plan(64, false).unwrap();
        assert_eq!(cache.cached_plans(), 3);
        // Self-loops add one edge per node.
        assert_eq!(with_self.total_edges(), plain.total_edges() + 100);
        assert!(coarser.grid_dim() < plain.grid_dim());
    }

    #[test]
    fn cached_grid_matches_a_fresh_build() {
        let edges = generators::rmat(100, 400, 1).unwrap();
        let cache = ShardPlanCache::new(Arc::new(edges.clone()));
        for loops in [false, true] {
            let cached = cache.plan(16, loops).unwrap();
            let mut list = edges.clone();
            if loops {
                list.add_self_loops();
            }
            assert_eq!(*cached, *ShardGrid::build(&list, 16).unwrap());
        }
    }

    #[test]
    fn build_seconds_accumulate_only_on_misses() {
        let cache = cache();
        assert_eq!(cache.build_seconds(), 0.0);
        cache.plan(16, false).unwrap();
        let after_first = cache.build_seconds();
        assert!(after_first > 0.0);
        cache.plan(16, false).unwrap();
        assert_eq!(cache.build_seconds(), after_first, "hits are free");
        cache.plan(64, false).unwrap();
        assert!(cache.build_seconds() > after_first);
    }

    #[test]
    fn invalid_parameters_error_without_caching() {
        let cache = cache();
        assert!(cache.plan(0, false).is_err());
        assert_eq!(cache.cached_plans(), 0);
        assert_eq!(cache.grids_built(), 0);
    }

    #[test]
    fn plan_cache_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardPlanCache>();
    }

    #[test]
    fn disk_backing_shares_grids_across_cache_instances() {
        let dir = temp_dir("share");
        let artifact = Arc::new(ArtifactCache::new(&dir));
        let edges = Arc::new(generators::rmat(100, 400, 1).unwrap());

        let first =
            ShardPlanCache::with_disk_cache(Arc::clone(&edges), Arc::clone(&artifact), "g1");
        let built = first.plan(16, true).unwrap();
        assert_eq!(first.grids_built(), 1);
        assert_eq!(first.grids_loaded(), 0);

        // A second cache (a later process, in effect) loads instead of
        // building — bit-identically.
        let second = ShardPlanCache::with_disk_cache(edges, artifact, "g1");
        let loaded = second.plan(16, true).unwrap();
        assert_eq!(second.grids_built(), 0);
        assert_eq!(second.grids_loaded(), 1);
        assert_eq!(*loaded, *built);
        assert_eq!(second.build_seconds(), 0.0, "disk hits are free");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_disk_artifact_falls_back_to_a_fresh_build() {
        let dir = temp_dir("corrupt");
        let artifact = Arc::new(ArtifactCache::new(&dir));
        let edges = Arc::new(generators::rmat(100, 400, 1).unwrap());
        let first =
            ShardPlanCache::with_disk_cache(Arc::clone(&edges), Arc::clone(&artifact), "g1");
        let built = first.plan(16, false).unwrap();

        // Corrupt every artifact on disk.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let mut bytes = std::fs::read(&path).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0xff;
            std::fs::write(&path, bytes).unwrap();
        }
        // The typed error is observable at the ArtifactCache layer...
        let key = ArtifactCache::grid_key("g1", 16, false);
        assert!(matches!(
            artifact.load_summary(&key),
            Err(GraphError::CacheArtifact { .. })
        ));
        // ...and the plan cache silently rebuilds (and re-publishes).
        let second = ShardPlanCache::with_disk_cache(edges, Arc::clone(&artifact), "g1");
        let rebuilt = second.plan(16, false).unwrap();
        assert_eq!(second.grids_built(), 1);
        assert_eq!(second.grids_loaded(), 0);
        assert_eq!(*rebuilt, *built);
        // The overwritten artifact is valid again.
        assert!(artifact.load_summary(&key).unwrap().is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_graph_shape_is_not_served_from_disk() {
        // Two different graphs wrongly sharing a key must not cross-serve.
        let dir = temp_dir("mismatch");
        let artifact = Arc::new(ArtifactCache::new(&dir));
        let small = Arc::new(generators::rmat(100, 400, 1).unwrap());
        let big = Arc::new(generators::rmat(150, 700, 2).unwrap());
        let first = ShardPlanCache::with_disk_cache(small, Arc::clone(&artifact), "same-key");
        first.plan(16, false).unwrap();
        let second = ShardPlanCache::with_disk_cache(Arc::clone(&big), artifact, "same-key");
        let grid = second.plan(16, false).unwrap();
        assert_eq!(second.grids_loaded(), 0, "shape mismatch rejected");
        assert_eq!(grid.num_nodes(), big.num_nodes());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disabled_artifact_cache_degrades_to_in_memory() {
        let edges = Arc::new(generators::rmat(100, 400, 1).unwrap());
        let cache = ShardPlanCache::with_disk_cache(
            edges,
            Arc::new(ArtifactCache::disabled()),
            "irrelevant",
        );
        cache.plan(16, false).unwrap();
        assert_eq!(cache.grids_built(), 1);
        assert_eq!(cache.grids_loaded(), 0);
    }
}
