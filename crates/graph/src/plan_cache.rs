//! Shard-plan caching for compile-once, run-many simulation sessions.
//!
//! Summarising an edge list's shard grid (a [`ShardSummary`]) is the
//! expensive part of compiling a workload, and its inputs are only the edge
//! list, the nodes-per-shard parameter `n` and whether self-loop edges are
//! added. A [`ShardPlanCache`] holds the graph's node and edge counts and
//! its edge source (a shared edge list, or a [`Dataset`] whose edges load
//! on first use, so sessions over the same dataset never copy them), and
//! memoises every summary built from it, so sweeping many
//! `(config, dataflow)` scenarios over the same graph re-summarises only
//! when `n` actually changes.
//!
//! When the cache is constructed with a disk backing
//! ([`ShardPlanCache::with_disk_cache`], [`ShardPlanCache::for_dataset`]),
//! in-memory misses consult the persistent [`ArtifactCache`] before
//! building: repeated harness runs over the same dataset load the shard
//! summary straight from disk, checked against the counts alone, and never
//! touch an edge; a dataset's edges are materialised only when a summary
//! must be built. Corrupt or stale artifacts are treated as misses (the
//! summary is rebuilt and the artifact overwritten), never as failures.

use crate::datasets::Dataset;
use crate::{ArtifactCache, EdgeList, GraphError, ShardSummary};
use gnnerator_faults::lock_recover;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
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
/// [`Arc<ShardSummary>`], loaded or built once: callers that miss on one key
/// wait while the first of them loads or builds it, and different keys
/// build in parallel.
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
    source: EdgeSource,
    plans: Mutex<HashMap<PlanKey, Arc<PlanSlot>>>,
    /// Cumulative wall-clock seconds spent inside [`ShardSummary::build`]
    /// (cache hits cost nothing).
    build_seconds: Mutex<f64>,
    /// Persistent backing: the artifact cache plus the graph's stable
    /// identity (a dataset key). `None` for an in-memory cache.
    disk: Option<(Arc<ArtifactCache>, String)>,
    /// Number of summaries built from scratch (in-memory *and* disk misses).
    grids_built: AtomicUsize,
    /// Number of summaries loaded from the persistent cache.
    grids_loaded: AtomicUsize,
}

/// One key's summary, loaded or built once for every caller.
#[derive(Debug, Default)]
struct PlanSlot {
    summary: OnceLock<Arc<ShardSummary>>,
    /// Held while loading or building, so concurrent misses on the key share
    /// one. A failure leaves `summary` empty and the next call retries.
    building: Mutex<()>,
}

/// The graph a [`ShardPlanCache`] summarises.
#[derive(Debug)]
enum EdgeSource {
    /// An edge list already in memory.
    List(Arc<EdgeList>),
    /// A dataset whose counts are its spec's and whose edges materialise on
    /// first use.
    Dataset(Dataset),
}

impl ShardPlanCache {
    /// Creates a purely in-memory cache over `edges`.
    pub fn new(edges: Arc<EdgeList>) -> Self {
        Self::with_source(EdgeSource::List(edges), None)
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
        Self::with_source(EdgeSource::List(edges), Some((cache, graph_key.into())))
    }

    /// Creates a cache over `dataset`, backed by `cache` (when one is given)
    /// under the dataset's `(spec, seed)` key. Reads no edge: the counts are
    /// the spec's, and the edges materialise only when a summary must be
    /// built.
    pub fn for_dataset(dataset: Dataset, cache: Option<Arc<ArtifactCache>>) -> Self {
        let disk = cache.map(|cache| {
            let key = ArtifactCache::dataset_key(&dataset.spec, dataset.seed);
            (cache, key)
        });
        Self::with_source(EdgeSource::Dataset(dataset), disk)
    }

    fn with_source(source: EdgeSource, disk: Option<(Arc<ArtifactCache>, String)>) -> Self {
        Self {
            source,
            plans: Mutex::new(HashMap::new()),
            build_seconds: Mutex::new(0.0),
            disk: disk.filter(|(cache, _)| cache.is_enabled()),
            grids_built: AtomicUsize::new(0),
            grids_loaded: AtomicUsize::new(0),
        }
    }

    /// Number of nodes in the graph.
    pub fn num_nodes(&self) -> usize {
        match &self.source {
            EdgeSource::List(edges) => edges.num_nodes(),
            EdgeSource::Dataset(dataset) => dataset.num_nodes(),
        }
    }

    /// Number of edges in the graph (without self-loops).
    pub fn num_edges(&self) -> usize {
        match &self.source {
            EdgeSource::List(edges) => edges.num_edges(),
            EdgeSource::Dataset(dataset) => dataset.num_edges(),
        }
    }

    /// The edge list, materialising a dataset's on first use.
    fn edges(&self) -> Result<&EdgeList, GraphError> {
        match &self.source {
            EdgeSource::List(edges) => Ok(edges),
            EdgeSource::Dataset(dataset) => dataset.edge_list(),
        }
    }

    /// Returns the shard summary for `(nodes_per_shard, include_self_loops)`,
    /// building and caching it on first request.
    ///
    /// With a disk backing, an in-memory miss first tries the persistent
    /// artifact — a hit reads no edge — and only a disk miss (or an unusable
    /// artifact) pays for a fresh [`ShardSummary::build`], whose result is
    /// stored back for future runs. That build is the one place a dataset's
    /// edges are materialised.
    ///
    /// # Errors
    ///
    /// Propagates [`ShardSummary::build`] errors (zero `nodes_per_shard`,
    /// empty node set) and the errors of materialising a dataset's edges.
    pub fn plan(
        &self,
        nodes_per_shard: usize,
        include_self_loops: bool,
    ) -> Result<Arc<ShardSummary>, GraphError> {
        let key = PlanKey {
            nodes_per_shard,
            include_self_loops,
        };
        let slot = Arc::clone(lock_recover(&self.plans).entry(key).or_default());
        if let Some(hit) = slot.summary.get() {
            return Ok(Arc::clone(hit));
        }
        // Build outside the map lock so misses on different keys build in
        // parallel.
        let _building = lock_recover(&slot.building);
        if let Some(hit) = slot.summary.get() {
            return Ok(Arc::clone(hit));
        }
        let summary = Arc::new(self.materialize(key)?);
        Ok(Arc::clone(slot.summary.get_or_init(|| summary)))
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

    /// Whether a loaded summary has the shape this cache's graph would
    /// produce under `key`, judged from the counts alone: the node count
    /// and block size must match, and the edge total must be the graph's
    /// (or, with self-loops merged in, lie between one loop per node and
    /// one extra edge per node).
    fn fits(&self, summary: &ShardSummary, key: PlanKey) -> bool {
        let (nodes, edges) = (self.num_nodes(), self.num_edges());
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
        let edges = self.edges()?;
        let build_start = Instant::now();
        let summary = ShardSummary::build(edges, key.nodes_per_shard, key.include_self_loops)?;
        *lock_recover(&self.build_seconds) += build_start.elapsed().as_secs_f64();
        self.grids_built.fetch_add(1, Ordering::Relaxed);
        Ok(summary)
    }

    /// Number of distinct shard summaries currently cached.
    pub fn cached_plans(&self) -> usize {
        lock_recover(&self.plans)
            .values()
            .filter(|slot| slot.summary.get().is_some())
            .count()
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
    use crate::datasets::DatasetKind;
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
    fn a_dataset_source_materialises_its_edges_only_on_a_summary_miss() {
        let dir = temp_dir("lazy");
        let artifact = Arc::new(ArtifactCache::new(&dir));
        let spec = DatasetKind::Cora.spec().scaled(0.02);
        let open = || Dataset::open(spec, 3, Some(Arc::clone(&artifact))).unwrap();

        let cold_dataset = open();
        let cold = ShardPlanCache::for_dataset(cold_dataset.clone(), Some(Arc::clone(&artifact)));
        assert_eq!(
            (cold.num_nodes(), cold.num_edges()),
            (spec.vertices, spec.edges)
        );
        assert_eq!(cold_dataset.provenance(), None, "counts read no edge");
        let built = cold.plan(16, true).unwrap();
        assert!(!cold_dataset.provenance().unwrap().loaded_from_cache);

        // A later process: the summary loads, checked against the counts,
        // and no edge is read until a summary misses.
        let warm_dataset = open();
        let warm = ShardPlanCache::for_dataset(warm_dataset.clone(), Some(Arc::clone(&artifact)));
        assert_eq!(*warm.plan(16, true).unwrap(), *built);
        assert_eq!(warm.grids_loaded(), 1);
        assert_eq!(
            warm_dataset.provenance(),
            None,
            "a summary hit reads no edge"
        );
        warm.plan(32, false).unwrap();
        assert_eq!(warm.grids_built(), 1);
        assert!(warm_dataset.provenance().unwrap().loaded_from_cache);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_misses_on_one_key_load_or_build_once() {
        const THREADS: usize = 8;
        let dir = temp_dir("single-flight");
        let artifact = Arc::new(ArtifactCache::new(&dir));
        let edges = Arc::new(generators::rmat(2000, 16_000, 5).unwrap());
        let reference = ShardSummary::build(&edges, 64, true).unwrap();
        let race = |cache: &ShardPlanCache| {
            let barrier = std::sync::Barrier::new(THREADS);
            let plans: Vec<Arc<ShardSummary>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..THREADS)
                    .map(|_| {
                        scope.spawn(|| {
                            barrier.wait();
                            cache.plan(64, true).unwrap()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert!(plans.iter().all(|plan| Arc::ptr_eq(plan, &plans[0])));
            assert_eq!(*plans[0], reference);
        };

        // Cold: one caller builds, the others wait for its summary.
        let cold = ShardPlanCache::with_disk_cache(Arc::clone(&edges), Arc::clone(&artifact), "g");
        race(&cold);
        assert_eq!((cold.grids_built(), cold.grids_loaded()), (1, 0));
        // Warm: one caller loads the artifact the cold build stored.
        let warm = ShardPlanCache::with_disk_cache(edges, artifact, "g");
        race(&warm);
        assert_eq!((warm.grids_built(), warm.grids_loaded()), (0, 1));
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
