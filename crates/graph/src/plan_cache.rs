//! Shard-plan caching for compile-once, run-many simulation sessions.
//!
//! Sharding an edge list into a [`ShardGrid`](crate::ShardGrid) is the
//! expensive part of compiling a workload, and its inputs are only the edge
//! list, the nodes-per-shard parameter `n` and whether self-loop edges are
//! added. A [`ShardPlanCache`] pins one edge list and memoises every grid
//! built from it, so sweeping many `(config, dataflow)` scenarios over the
//! same graph reshards only when `n` actually changes.
//!
//! When the cache is constructed with a disk backing
//! ([`ShardPlanCache::with_disk_cache`]), in-memory misses consult the
//! persistent [`ArtifactCache`] before building: repeated harness runs over
//! the same dataset skip re-sharding entirely, loading the sorted arena and
//! shard metadata straight from disk. Corrupt or stale artifacts are treated
//! as misses (the grid is rebuilt and the artifact overwritten), never as
//! failures.

use crate::{
    ArtifactCache, EdgeList, GraphError, GridResidency, MemoryBudget, ShardGrid, WindowPool,
    BYTES_PER_EDGE,
};
use gnnerator_faults::lock_recover;
use gnnerator_observe::Recorder;
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

/// A memoising sharder over one immutable edge list.
///
/// Thread-safe: scenario sweeps shard from many worker threads at once, and
/// every caller asking for the same `(n, self-loops)` pair receives the same
/// [`Arc<ShardGrid>`].
///
/// # Examples
///
/// ```
/// use gnnerator_graph::{generators, ShardPlanCache};
///
/// # fn main() -> Result<(), gnnerator_graph::GraphError> {
/// let edges = generators::rmat(128, 512, 3)?;
/// let cache = ShardPlanCache::new(edges);
/// let a = cache.plan(32, false)?;
/// let b = cache.plan(32, false)?;
/// assert!(std::sync::Arc::ptr_eq(&a, &b)); // cached, not rebuilt
/// assert_eq!(cache.cached_plans(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShardPlanCache {
    edges: EdgeList,
    with_self_loops: OnceLock<EdgeList>,
    plans: Mutex<HashMap<PlanKey, Arc<ShardGrid>>>,
    /// Cumulative wall-clock seconds spent inside [`ShardGrid::build`]
    /// (cache hits cost nothing; racing duplicate builds both count, since
    /// both actually burned the time).
    build_seconds: Mutex<f64>,
    /// Persistent backing: the artifact cache plus this edge list's stable
    /// graph identity (a dataset key). `None` for anonymous edge lists.
    disk: Option<(Arc<ArtifactCache>, String)>,
    /// Number of grids built from scratch (in-memory *and* disk misses).
    grids_built: AtomicUsize,
    /// Number of grids loaded from the persistent cache.
    grids_loaded: AtomicUsize,
    /// Memory budget for disk loads (segmented vs. wholesale) and for
    /// choosing the streaming shard build over the sort-in-place one.
    budget: MemoryBudget,
    /// How grid edge arenas are kept resident: fully in memory, faulted
    /// through a bounded [`ShardWindow`](crate::ShardWindow), or decided by
    /// the memory budget.
    residency: GridResidency,
    /// One residency pool shared by every windowed grid this cache
    /// materialises, so several shardings of the same graph (one per
    /// derived nodes-per-shard) split a single window budget instead of
    /// each claiming the full budget. Created on the first windowed load.
    window_pool: OnceLock<Arc<WindowPool>>,
    /// Telemetry sink threaded into the shared window pool. Defaults to the
    /// process global; a scoped recorder attributes this cache's window
    /// traffic to its scope (one session, typically).
    recorder: Recorder,
}

impl ShardPlanCache {
    /// Creates a purely in-memory cache over `edges`.
    pub fn new(edges: EdgeList) -> Self {
        Self {
            edges,
            with_self_loops: OnceLock::new(),
            plans: Mutex::new(HashMap::new()),
            build_seconds: Mutex::new(0.0),
            disk: None,
            grids_built: AtomicUsize::new(0),
            grids_loaded: AtomicUsize::new(0),
            budget: MemoryBudget::from_env(),
            residency: GridResidency::from_env(),
            window_pool: OnceLock::new(),
            recorder: Recorder::default(),
        }
    }

    /// Overrides the telemetry sink this cache's window pool records into
    /// (the default is the process-global recorder). Must be set before the
    /// first windowed load — the shared pool is created lazily and keeps
    /// the recorder it was born with.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The telemetry sink this cache records into.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Overrides the memory budget governing disk grid loads and build
    /// strategy (the default comes from `GNNERATOR_MEM_BUDGET`).
    pub fn with_memory_budget(mut self, budget: MemoryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// The memory budget this cache plans under.
    pub fn memory_budget(&self) -> MemoryBudget {
        self.budget
    }

    /// Overrides the grid residency policy (the default comes from
    /// `GNNERATOR_GRID_RESIDENCY`, falling back to budget-driven `auto`).
    pub fn with_residency(mut self, residency: GridResidency) -> Self {
        self.residency = residency;
        self
    }

    /// The grid residency policy this cache materialises grids under.
    pub fn residency(&self) -> GridResidency {
        self.residency
    }

    /// Creates a cache over `edges` backed by a persistent [`ArtifactCache`].
    ///
    /// `graph_key` is the stable identity of the edge list's source (e.g.
    /// [`ArtifactCache::dataset_key`]); grids are stored under
    /// `graph_key/nps../loops..`. Two processes that materialise the same
    /// `(spec, seed)` dataset therefore share shard grids across runs.
    pub fn with_disk_cache(
        edges: EdgeList,
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

    /// The edge list with one self-loop per node, built on first use.
    pub fn edges_with_self_loops(&self) -> &EdgeList {
        self.with_self_loops.get_or_init(|| {
            let mut with_self = self.edges.clone();
            with_self.add_self_loops();
            with_self
        })
    }

    /// Returns the shard grid for `(nodes_per_shard, include_self_loops)`,
    /// building and caching it on first request.
    ///
    /// With a disk backing, an in-memory miss first tries the persistent
    /// artifact; only a disk miss (or an unusable artifact) pays for a fresh
    /// [`ShardGrid::build`], whose result is stored back for future runs.
    ///
    /// # Errors
    ///
    /// Propagates [`ShardGrid::build`] errors (zero `nodes_per_shard`, empty
    /// node set).
    pub fn plan(
        &self,
        nodes_per_shard: usize,
        include_self_loops: bool,
    ) -> Result<Arc<ShardGrid>, GraphError> {
        let key = PlanKey {
            nodes_per_shard,
            include_self_loops,
        };
        if let Some(hit) = lock_recover(&self.plans).get(&key) {
            return Ok(Arc::clone(hit));
        }
        // Build outside the lock so concurrent misses on *different* keys
        // shard in parallel; a racing duplicate build of the same key is
        // harmless and the first insert wins.
        let edges = if include_self_loops {
            self.edges_with_self_loops()
        } else {
            &self.edges
        };
        let grid = Arc::new(self.materialize(edges, nodes_per_shard, include_self_loops)?);
        let mut plans = lock_recover(&self.plans);
        Ok(Arc::clone(plans.entry(key).or_insert(grid)))
    }

    /// Loads the grid from disk or builds it fresh, maintaining the
    /// telemetry counters.
    fn materialize(
        &self,
        edges: &EdgeList,
        nodes_per_shard: usize,
        include_self_loops: bool,
    ) -> Result<ShardGrid, GraphError> {
        if nodes_per_shard == 0 {
            // Surface the parameter error before touching the disk so an
            // invalid request can never be "answered" by a stale artifact.
            return ShardGrid::build(edges, nodes_per_shard);
        }
        if let Some((cache, graph_key)) = &self.disk {
            let key = ArtifactCache::grid_key(graph_key, nodes_per_shard, include_self_loops);
            // The windowed (out-of-core) path only exists when the finished
            // arena would overflow the budget — or the residency policy
            // demands it — and needs a disk artifact to fault from.
            let arena_bytes = edges.num_edges() as u64 * BYTES_PER_EDGE;
            let windowed = self.residency.wants_window(self.budget, arena_bytes);
            let load = if windowed {
                cache.load_grid_windowed_in(&key, self.shared_window_pool())
            } else {
                cache.load_grid_budgeted(&key, self.budget)
            };
            match load {
                Ok(Some(grid))
                    if grid.num_nodes() == edges.num_nodes()
                        && grid.total_edges() == edges.num_edges()
                        && grid.nodes_per_shard() == nodes_per_shard =>
                {
                    self.grids_loaded.fetch_add(1, Ordering::Relaxed);
                    return Ok(grid);
                }
                // A clean miss, a shape mismatch (key reuse across different
                // graphs) or a corrupt/stale artifact: rebuild and overwrite.
                Ok(_) | Err(GraphError::CacheArtifact { .. }) => {}
                Err(other) => return Err(other),
            }
            let grid = self.build_timed(edges, nodes_per_shard)?;
            if cache.store_grid(&key, &grid).is_ok() && windowed {
                // The freshly written artifact lets the resident build be
                // dropped and re-opened through the bounded window. Any
                // hiccup falls back to serving the resident grid — the
                // result is bit-identical either way.
                if let Ok(Some(rewound)) =
                    cache.load_grid_windowed_in(&key, self.shared_window_pool())
                {
                    if rewound.num_nodes() == grid.num_nodes()
                        && rewound.total_edges() == grid.total_edges()
                        && rewound.nodes_per_shard() == grid.nodes_per_shard()
                    {
                        return Ok(rewound);
                    }
                }
            }
            return Ok(grid);
        }
        self.build_timed(edges, nodes_per_shard)
    }

    /// The pool every windowed grid of this cache draws residency from,
    /// created on first use with the budget-derived window size.
    fn shared_window_pool(&self) -> Arc<WindowPool> {
        Arc::clone(self.window_pool.get_or_init(|| {
            WindowPool::with_recorder(
                GridResidency::window_bytes(self.budget),
                self.recorder.clone(),
            )
        }))
    }

    fn build_timed(
        &self,
        edges: &EdgeList,
        nodes_per_shard: usize,
    ) -> Result<ShardGrid, GraphError> {
        let build_start = Instant::now();
        let grid = ShardGrid::build(edges, nodes_per_shard)?;
        *lock_recover(&self.build_seconds) += build_start.elapsed().as_secs_f64();
        self.grids_built.fetch_add(1, Ordering::Relaxed);
        Ok(grid)
    }

    /// Number of distinct shard grids currently cached.
    pub fn cached_plans(&self) -> usize {
        lock_recover(&self.plans).len()
    }

    /// Cumulative wall-clock seconds this cache has spent building shard
    /// grids (cache hits — in-memory or disk — are free).
    pub fn build_seconds(&self) -> f64 {
        *lock_recover(&self.build_seconds)
    }

    /// Number of shard grids built from scratch by this cache.
    pub fn grids_built(&self) -> usize {
        self.grids_built.load(Ordering::Relaxed)
    }

    /// Number of shard grids loaded from the persistent artifact cache.
    pub fn grids_loaded(&self) -> usize {
        self.grids_loaded.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use std::path::PathBuf;

    fn cache() -> ShardPlanCache {
        ShardPlanCache::new(generators::rmat(100, 400, 1).unwrap())
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
        let cache = ShardPlanCache::new(edges.clone());
        let cached = cache.plan(16, false).unwrap();
        let fresh = ShardGrid::build(&edges, 16).unwrap();
        assert_eq!(*cached, fresh);
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
        let edges = generators::rmat(100, 400, 1).unwrap();

        let first = ShardPlanCache::with_disk_cache(edges.clone(), Arc::clone(&artifact), "g1");
        let built = first.plan(16, true).unwrap();
        assert_eq!(first.grids_built(), 1);
        assert_eq!(first.grids_loaded(), 0);

        // A second cache (a later process, in effect) loads instead of
        // building — bit-identically.
        let second = ShardPlanCache::with_disk_cache(edges.clone(), artifact, "g1");
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
        let edges = generators::rmat(100, 400, 1).unwrap();
        let first = ShardPlanCache::with_disk_cache(edges.clone(), Arc::clone(&artifact), "g1");
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
            artifact.load_grid(&key),
            Err(GraphError::CacheArtifact { .. })
        ));
        // ...and the plan cache silently rebuilds (and re-publishes).
        let second = ShardPlanCache::with_disk_cache(edges, Arc::clone(&artifact), "g1");
        let rebuilt = second.plan(16, false).unwrap();
        assert_eq!(second.grids_built(), 1);
        assert_eq!(second.grids_loaded(), 0);
        assert_eq!(*rebuilt, *built);
        // The overwritten artifact is valid again.
        assert!(artifact.load_grid(&key).unwrap().is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_graph_shape_is_not_served_from_disk() {
        // Two different graphs wrongly sharing a key must not cross-serve.
        let dir = temp_dir("mismatch");
        let artifact = Arc::new(ArtifactCache::new(&dir));
        let small = generators::rmat(100, 400, 1).unwrap();
        let big = generators::rmat(150, 700, 2).unwrap();
        let first = ShardPlanCache::with_disk_cache(small, Arc::clone(&artifact), "same-key");
        first.plan(16, false).unwrap();
        let second = ShardPlanCache::with_disk_cache(big.clone(), artifact, "same-key");
        let grid = second.plan(16, false).unwrap();
        assert_eq!(second.grids_loaded(), 0, "shape mismatch rejected");
        assert_eq!(grid.num_nodes(), big.num_nodes());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn forced_windowed_residency_is_bit_identical_to_resident() {
        let dir = temp_dir("windowed");
        let artifact = Arc::new(ArtifactCache::new(&dir));
        let edges = generators::rmat(100, 400, 1).unwrap();

        let resident = ShardPlanCache::with_disk_cache(edges.clone(), Arc::clone(&artifact), "g1");
        let built = resident.plan(16, false).unwrap();
        assert!(!built.is_windowed());

        let windowed = ShardPlanCache::with_disk_cache(edges.clone(), Arc::clone(&artifact), "g1")
            .with_residency(GridResidency::Windowed)
            .with_memory_budget(MemoryBudget::bytes(1 << 10));
        let faulted = windowed.plan(16, false).unwrap();
        assert!(faulted.is_windowed());
        assert_eq!(windowed.grids_loaded(), 1);
        assert_eq!(windowed.grids_built(), 0);
        assert_eq!(*faulted, *built, "windowed grid must be bit-identical");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn windowed_cold_miss_builds_stores_and_reopens_through_the_window() {
        let dir = temp_dir("windowed-cold");
        let artifact = Arc::new(ArtifactCache::new(&dir));
        let edges = generators::rmat(100, 400, 1).unwrap();
        let cache = ShardPlanCache::with_disk_cache(edges.clone(), Arc::clone(&artifact), "g1")
            .with_residency(GridResidency::Windowed);
        let grid = cache.plan(16, false).unwrap();
        assert_eq!(cache.grids_built(), 1, "cold cache pays one build");
        assert_eq!(cache.grids_loaded(), 0, "the reopen is not a load hit");
        assert!(
            grid.is_windowed(),
            "the fresh build is immediately re-opened through the window"
        );
        assert_eq!(*grid, ShardGrid::build(&edges, 16).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn auto_residency_windows_only_when_the_budget_demands_it() {
        let dir = temp_dir("auto");
        let artifact = Arc::new(ArtifactCache::new(&dir));
        let edges = generators::rmat(100, 400, 1).unwrap();

        // A roomy budget keeps the arena resident.
        let roomy = ShardPlanCache::with_disk_cache(edges.clone(), Arc::clone(&artifact), "g1")
            .with_residency(GridResidency::Auto)
            .with_memory_budget(MemoryBudget::bytes(1 << 30));
        assert!(!roomy.plan(16, false).unwrap().is_windowed());

        // A budget smaller than the arena forces the window.
        let tight = ShardPlanCache::with_disk_cache(edges.clone(), Arc::clone(&artifact), "g1")
            .with_residency(GridResidency::Auto)
            .with_memory_budget(MemoryBudget::bytes(256));
        let grid = tight.plan(16, false).unwrap();
        assert!(grid.is_windowed());
        assert_eq!(grid.window().unwrap().window_bytes(), 256);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn windowed_residency_without_disk_backing_stays_resident() {
        // There is no artifact to fault from, so the policy degrades to a
        // resident build rather than failing.
        let cache = ShardPlanCache::new(generators::rmat(100, 400, 1).unwrap())
            .with_residency(GridResidency::Windowed);
        let grid = cache.plan(16, false).unwrap();
        assert!(!grid.is_windowed());
        assert_eq!(cache.grids_built(), 1);
    }

    #[test]
    fn disabled_artifact_cache_degrades_to_in_memory() {
        let edges = generators::rmat(100, 400, 1).unwrap();
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
