//! The table of shard summaries that every clone of a [`Dataset`] shares.
//!
//! Summarising a graph's shard grid (a [`ShardSummary`]) is the expensive
//! part of compiling a workload, and its inputs are only the graph, the
//! nodes-per-shard parameter `n` and whether self-loop edges are added. A
//! dataset handle therefore holds one [`PlanTable`] beside its lazy edges:
//! every session over the dataset, whatever its model or configuration,
//! reuses a summary any of them loaded or built, and [`Dataset::plan`]
//! fills a missing slot from the dataset's artifact cache or by one fresh
//! build.

#[cfg(doc)]
use crate::datasets::Dataset;
use crate::{EdgeList, GraphError, ShardSummary};
use gnnerator_faults::lock_recover;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The two parameters that determine a shard summary of a fixed graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey {
    /// Maximum nodes per shard (the paper's `n`).
    pub(crate) nodes_per_shard: usize,
    /// Whether self-loop edges are added before sharding (self-inclusive
    /// aggregation).
    pub(crate) include_self_loops: bool,
}

/// One summary per [`PlanKey`], loaded or built once for every caller, and
/// the counters of how each was obtained.
///
/// Callers that miss on one key wait while the first of them fills it, and
/// different keys fill in parallel.
#[derive(Debug, Default)]
pub(crate) struct PlanTable {
    slots: Mutex<HashMap<PlanKey, Arc<PlanSlot>>>,
    /// Cumulative wall-clock seconds spent inside [`ShardSummary::build`].
    pub(crate) build_seconds: Mutex<f64>,
    /// Summaries built from scratch.
    pub(crate) built: AtomicUsize,
    /// Summaries loaded from the persistent artifact cache.
    pub(crate) loaded: AtomicUsize,
}

/// One key's summary, loaded or built once for every caller.
#[derive(Debug, Default)]
struct PlanSlot {
    summary: OnceLock<Arc<ShardSummary>>,
    /// Held while filling, so concurrent misses on the key share one fill.
    /// A failure leaves `summary` empty and the next call retries.
    filling: Mutex<()>,
}

impl PlanTable {
    /// Returns `key`'s summary, running `fill` only when no caller has
    /// stored one yet.
    pub(crate) fn get_or_fill(
        &self,
        key: PlanKey,
        fill: impl FnOnce() -> Result<ShardSummary, GraphError>,
    ) -> Result<Arc<ShardSummary>, GraphError> {
        let slot = Arc::clone(lock_recover(&self.slots).entry(key).or_default());
        if let Some(hit) = slot.summary.get() {
            return Ok(Arc::clone(hit));
        }
        // Fill outside the map lock so misses on different keys fill in
        // parallel.
        let _filling = lock_recover(&slot.filling);
        if let Some(hit) = slot.summary.get() {
            return Ok(Arc::clone(hit));
        }
        let summary = Arc::new(fill()?);
        Ok(Arc::clone(slot.summary.get_or_init(|| summary)))
    }

    /// Builds `key`'s summary of `edges`, counted and timed.
    pub(crate) fn build(&self, edges: &EdgeList, key: PlanKey) -> Result<ShardSummary, GraphError> {
        let start = Instant::now();
        let summary = ShardSummary::build(edges, key.nodes_per_shard, key.include_self_loops)?;
        *lock_recover(&self.build_seconds) += start.elapsed().as_secs_f64();
        self.built.fetch_add(1, Ordering::Relaxed);
        Ok(summary)
    }

    /// Number of distinct summaries held.
    pub(crate) fn cached(&self) -> usize {
        lock_recover(&self.slots)
            .values()
            .filter(|slot| slot.summary.get().is_some())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use crate::datasets::{Dataset, DatasetKind, DatasetSpec};
    use crate::{ArtifactCache, GraphError, ShardGrid, ShardSummary};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn spec() -> DatasetSpec {
        DatasetKind::Cora.spec().scaled(0.04)
    }

    /// An in-memory dataset handle (no artifact cache).
    fn dataset() -> Dataset {
        spec().synthesize(1).unwrap()
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
        let dataset = dataset();
        let a = dataset.plan(16, true).unwrap();
        let b = dataset.clone().plan(16, true).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "clones share one table");
        assert_eq!(dataset.cached_plans(), 1);
        assert_eq!(dataset.grids_built(), 1);
        assert_eq!(dataset.grids_loaded(), 0);
    }

    #[test]
    fn distinct_keys_build_distinct_grids() {
        let dataset = dataset();
        let plain = dataset.plan(16, false).unwrap();
        let with_self = dataset.plan(16, true).unwrap();
        let coarser = dataset.plan(64, false).unwrap();
        assert_eq!(dataset.cached_plans(), 3);
        // Self-loops add one edge per node.
        assert_eq!(
            with_self.total_edges(),
            plain.total_edges() + dataset.num_nodes()
        );
        assert!(coarser.grid_dim() < plain.grid_dim());
    }

    #[test]
    fn cached_grid_matches_a_fresh_build() {
        let dataset = dataset();
        let edges = dataset.edge_list().unwrap();
        for loops in [false, true] {
            let cached = dataset.plan(16, loops).unwrap();
            let mut list = edges.clone();
            if loops {
                list.add_self_loops();
            }
            assert_eq!(*cached, *ShardGrid::build(&list, 16).unwrap());
        }
    }

    #[test]
    fn build_seconds_accumulate_only_on_misses() {
        let dataset = dataset();
        assert_eq!(dataset.shard_build_seconds(), 0.0);
        dataset.plan(16, false).unwrap();
        let after_first = dataset.shard_build_seconds();
        assert!(after_first > 0.0);
        dataset.plan(16, false).unwrap();
        assert_eq!(dataset.shard_build_seconds(), after_first, "hits are free");
        dataset.plan(64, false).unwrap();
        assert!(dataset.shard_build_seconds() > after_first);
    }

    #[test]
    fn invalid_parameters_error_without_caching() {
        let dataset = dataset();
        assert!(dataset.plan(0, false).is_err());
        assert_eq!(dataset.cached_plans(), 0);
        assert_eq!(dataset.grids_built(), 0);
    }

    #[test]
    fn plan_cache_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Dataset>();
    }

    #[test]
    fn disk_backing_shares_grids_across_cache_instances() {
        let dir = temp_dir("share");
        let open = || Dataset::open(spec(), 1, Some(Arc::new(ArtifactCache::new(&dir)))).unwrap();

        let first = open();
        let built = first.plan(16, true).unwrap();
        assert_eq!((first.grids_built(), first.grids_loaded()), (1, 0));

        // A second handle over a second cache instance (a later process, in
        // effect) loads instead of building, bit-identically.
        let second = open();
        let loaded = second.plan(16, true).unwrap();
        assert_eq!((second.grids_built(), second.grids_loaded()), (0, 1));
        assert_eq!(*loaded, *built);
        assert_eq!(second.shard_build_seconds(), 0.0, "disk hits are free");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_disk_artifact_falls_back_to_a_fresh_build() {
        let dir = temp_dir("corrupt");
        let artifact = Arc::new(ArtifactCache::new(&dir));
        let open = || Dataset::open(spec(), 1, Some(Arc::clone(&artifact))).unwrap();
        let built = open().plan(16, false).unwrap();

        // Corrupt every artifact on disk.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let mut bytes = std::fs::read(&path).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0xff;
            std::fs::write(&path, bytes).unwrap();
        }
        // The typed error is observable at the ArtifactCache layer...
        let key = ArtifactCache::grid_key(&ArtifactCache::dataset_key(&spec(), 1), 16, false);
        assert!(matches!(
            artifact.load_summary(&key),
            Err(GraphError::CacheArtifact { .. })
        ));
        // ...and the dataset silently rebuilds (and re-publishes).
        let second = open();
        let rebuilt = second.plan(16, false).unwrap();
        assert_eq!((second.grids_built(), second.grids_loaded()), (1, 0));
        assert_eq!(*rebuilt, *built);
        // The overwritten artifact is valid again.
        assert!(artifact.load_summary(&key).unwrap().is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_graph_shape_is_not_served_from_disk() {
        // A summary of another graph stored under this dataset's key must
        // not be served as this dataset's.
        let dir = temp_dir("mismatch");
        let artifact = Arc::new(ArtifactCache::new(&dir));
        let dataset = Dataset::open(spec(), 1, Some(Arc::clone(&artifact))).unwrap();
        let foreign = DatasetKind::Citeseer
            .spec()
            .scaled(0.05)
            .synthesize(2)
            .unwrap();
        let impostor = ShardSummary::build(foreign.edge_list().unwrap(), 16, false).unwrap();
        let key = ArtifactCache::grid_key(&ArtifactCache::dataset_key(&spec(), 1), 16, false);
        artifact.store_summary(&key, &impostor).unwrap();

        let grid = dataset.plan(16, false).unwrap();
        assert_eq!(dataset.grids_loaded(), 0, "shape mismatch rejected");
        assert_eq!(dataset.grids_built(), 1);
        assert_eq!(grid.num_nodes(), dataset.num_nodes());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_dataset_source_materialises_its_edges_only_on_a_summary_miss() {
        let dir = temp_dir("lazy");
        let artifact = Arc::new(ArtifactCache::new(&dir));
        let spec = DatasetKind::Cora.spec().scaled(0.02);
        let open = || Dataset::open(spec, 3, Some(Arc::clone(&artifact))).unwrap();

        let cold = open();
        assert_eq!(
            (cold.num_nodes(), cold.num_edges()),
            (spec.vertices, spec.edges)
        );
        assert_eq!(cold.provenance(), None, "counts read no edge");
        let built = cold.plan(16, true).unwrap();
        assert!(!cold.provenance().unwrap().loaded_from_cache);

        // A later process: the summary loads, checked against the counts,
        // and no edge is read until a summary misses.
        let warm = open();
        assert_eq!(*warm.plan(16, true).unwrap(), *built);
        assert_eq!(warm.grids_loaded(), 1);
        assert_eq!(warm.provenance(), None, "a summary hit reads no edge");
        warm.plan(32, false).unwrap();
        assert_eq!(warm.grids_built(), 1);
        assert!(warm.provenance().unwrap().loaded_from_cache);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_misses_on_one_key_load_or_build_once() {
        const THREADS: usize = 8;
        let dir = temp_dir("single-flight");
        let artifact = Arc::new(ArtifactCache::new(&dir));
        let spec = DatasetKind::Pubmed.spec().scaled(0.1);
        let open = || Dataset::open(spec, 5, Some(Arc::clone(&artifact))).unwrap();
        let reference = {
            let edges = spec.synthesize(5).unwrap();
            ShardSummary::build(edges.edge_list().unwrap(), 64, true).unwrap()
        };
        let race = |dataset: &Dataset| {
            let barrier = std::sync::Barrier::new(THREADS);
            let plans: Vec<Arc<ShardSummary>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..THREADS)
                    .map(|_| {
                        let dataset = dataset.clone();
                        let barrier = &barrier;
                        scope.spawn(move || {
                            barrier.wait();
                            dataset.plan(64, true).unwrap()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert!(plans.iter().all(|plan| Arc::ptr_eq(plan, &plans[0])));
            assert_eq!(*plans[0], reference);
        };

        // Cold: one caller builds, the others wait for its summary.
        let cold = open();
        race(&cold);
        assert_eq!((cold.grids_built(), cold.grids_loaded()), (1, 0));
        // Warm: one caller loads the artifact the cold build stored.
        let warm = open();
        race(&warm);
        assert_eq!((warm.grids_built(), warm.grids_loaded()), (0, 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disabled_artifact_cache_degrades_to_in_memory() {
        let dataset = Dataset::open(spec(), 1, Some(Arc::new(ArtifactCache::disabled()))).unwrap();
        dataset.plan(16, false).unwrap();
        assert_eq!(dataset.grids_built(), 1);
        assert_eq!(dataset.grids_loaded(), 0);
        // The summary is held in memory all the same.
        dataset.plan(16, false).unwrap();
        assert_eq!(dataset.grids_built(), 1);
    }
}
