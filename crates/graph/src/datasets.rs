//! The Table II benchmark datasets and their synthesisers.
//!
//! The paper evaluates on Cora, Citeseer and Pubmed. We cannot download the
//! real graphs in a hermetic build, so [`DatasetSpec::synthesize`] generates
//! a seeded power-law graph with the *published* vertex count, edge count and
//! feature dimension. The accelerator's timing behaviour depends on exactly
//! these statistics (plus degree skew, which the R-MAT generator preserves
//! qualitatively), so the reproduction's speedup *shapes* carry over even
//! though the node features themselves are random.
//!
//! A [`Dataset`] is therefore its identity `(spec, seed)` and a lazily
//! materialised edge list, nothing else. Its node and edge counts are the
//! spec's ([`generators::rmat_exact`] returns exactly `spec.edges` edges on
//! `spec.vertices` nodes, and the artifact cache rejects any other count), so
//! the timing model, which reads only counts and shard summaries, needs the
//! edges only to build a summary it cannot load. The feature values, which
//! only the value-level executors need, are a pure function of
//! `(spec, seed)`: [`DatasetSpec::features`].
//!
//! The handle also holds the graph's shard summaries ([`Dataset::plan`]),
//! one per nodes-per-shard and self-loop choice, shared by every session
//! over the dataset and persisted in the same artifact cache as its edges.

use crate::parallel::{even_bounds, split_bands, workers_for};
use crate::plan_cache::{PlanKey, PlanTable};
use crate::{generators, ArtifactCache, EdgeList, GraphError, NodeFeatures, ShardSummary};
use gnnerator_faults::lock_recover;
use gnnerator_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Identifier for one of the benchmark datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Cora: 2708 vertices, 10556 edges, 1433-dimensional features.
    Cora,
    /// Citeseer: 3327 vertices, 9104 edges, 3703-dimensional features.
    Citeseer,
    /// Pubmed: 19717 vertices, 88648 edges, 500-dimensional features.
    Pubmed,
    /// ogbn-arxiv: 169343 vertices, 1166243 directed edges, 128-dimensional
    /// features — an OGB-scale workload (an order of magnitude beyond
    /// Table II) that the streaming graph-build pipeline opens to the sweep.
    /// Synthesised, like the others; swap in the real download when
    /// networked builds land.
    OgbnArxiv,
    /// ogbn-products scale class: 2.4M vertices, 60M directed edges,
    /// 100-dimensional features — the largest workload, the one that sets
    /// the cold build's peak memory. Its edge arena alone is ~480 MB.
    /// Synthesised (the real ogbn-products has 2 449 029 vertices and
    /// ~61.9M directed edges; the round counts keep synthesis and cache keys
    /// tidy at the same scale class).
    OgbnProductsScale,
}

impl DatasetKind {
    /// The paper's three Table II datasets, in the order the table lists
    /// them. [`DatasetKind::OgbnArxiv`] is intentionally excluded: the
    /// figure/table reproductions enumerate exactly the paper's workloads.
    pub const ALL: [DatasetKind; 3] = [
        DatasetKind::Cora,
        DatasetKind::Citeseer,
        DatasetKind::Pubmed,
    ];

    /// Every dataset the harness knows, Table II plus the ogbn-scale
    /// extensions.
    pub const EXTENDED: [DatasetKind; 5] = [
        DatasetKind::Cora,
        DatasetKind::Citeseer,
        DatasetKind::Pubmed,
        DatasetKind::OgbnArxiv,
        DatasetKind::OgbnProductsScale,
    ];

    /// Stable per-kind offset added to a base synthesis seed so each dataset
    /// gets a distinct deterministic seed.
    pub fn seed_offset(self) -> u64 {
        match self {
            DatasetKind::Cora => 0,
            DatasetKind::Citeseer => 1,
            DatasetKind::Pubmed => 2,
            DatasetKind::OgbnArxiv => 3,
            DatasetKind::OgbnProductsScale => 4,
        }
    }

    /// The Table II specification for this dataset.
    pub fn spec(self) -> DatasetSpec {
        match self {
            DatasetKind::Cora => DatasetSpec {
                kind: self,
                name: "cora",
                vertices: 2708,
                edges: 10556,
                feature_dim: 1433,
            },
            DatasetKind::Citeseer => DatasetSpec {
                kind: self,
                name: "citeseer",
                vertices: 3327,
                edges: 9104,
                feature_dim: 3703,
            },
            DatasetKind::Pubmed => DatasetSpec {
                kind: self,
                name: "pubmed",
                vertices: 19717,
                edges: 88648,
                feature_dim: 500,
            },
            DatasetKind::OgbnArxiv => DatasetSpec {
                kind: self,
                name: "ogbn-arxiv",
                vertices: 169_343,
                edges: 1_166_243,
                feature_dim: 128,
            },
            DatasetKind::OgbnProductsScale => DatasetSpec {
                kind: self,
                name: "ogbn-products",
                vertices: 2_400_000,
                edges: 60_000_000,
                feature_dim: 100,
            },
        }
    }

    /// Number of output classes of the dataset — the model's output
    /// dimension in DGL's node-classification setup, which the benchmark
    /// harness and the serving API both default to.
    pub fn num_classes(self) -> usize {
        match self {
            DatasetKind::Cora => 7,
            DatasetKind::Citeseer => 6,
            DatasetKind::Pubmed => 3,
            DatasetKind::OgbnArxiv => 40,
            DatasetKind::OgbnProductsScale => 47,
        }
    }

    /// Short lowercase name as used in the paper's figure labels
    /// (`cora`, `citeseer`, `pub`; `arxiv` / `products` for the ogbn
    /// extensions).
    pub fn short_name(self) -> &'static str {
        match self {
            DatasetKind::Cora => "cora",
            DatasetKind::Citeseer => "citeseer",
            DatasetKind::Pubmed => "pub",
            DatasetKind::OgbnArxiv => "arxiv",
            DatasetKind::OgbnProductsScale => "products",
        }
    }
}

impl fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.spec().name)
    }
}

/// Static description of a dataset (the row of Table II).
///
/// # Examples
///
/// ```
/// use gnnerator_graph::datasets::DatasetKind;
///
/// let spec = DatasetKind::Cora.spec();
/// assert_eq!(spec.vertices, 2708);
/// assert_eq!(spec.feature_dim, 1433);
/// assert!(spec.feature_megabytes() > 15.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DatasetSpec {
    /// Which dataset this spec describes.
    pub kind: DatasetKind,
    /// Lowercase dataset name.
    pub name: &'static str,
    /// Number of vertices.
    pub vertices: usize,
    /// Number of directed edges.
    pub edges: usize,
    /// Input feature dimension.
    pub feature_dim: usize,
}

impl DatasetSpec {
    /// Size of the input feature table in megabytes (fp32 features), the
    /// quantity Table II reports in its "Size" column.
    pub fn feature_megabytes(&self) -> f64 {
        (self.vertices * self.feature_dim * 4) as f64 / 1.0e6
    }

    /// Average degree of the graph.
    pub fn average_degree(&self) -> f64 {
        self.edges as f64 / self.vertices as f64
    }

    /// Synthesises a dataset with these statistics: its graph topology, from
    /// [`generators::rmat_exact`] on as many workers as the host and the
    /// size warrant, with the same edges at any worker count. The feature
    /// values are not part of a dataset; [`DatasetSpec::features`] computes
    /// them from the same `(spec, seed)` on demand.
    ///
    /// # Errors
    ///
    /// Propagates generator errors (they cannot occur for the built-in specs)
    /// and [`GraphError::BuildWorker`] if a build worker fails.
    ///
    /// # Examples
    ///
    /// ```
    /// use gnnerator_graph::datasets::DatasetKind;
    /// # fn main() -> Result<(), gnnerator_graph::GraphError> {
    /// // Synthesise a scaled-down Cora for fast tests.
    /// let spec = DatasetKind::Cora.spec().scaled(0.05);
    /// let tiny = spec.synthesize(42)?;
    /// assert_eq!(tiny.num_nodes(), spec.vertices);
    /// assert_eq!(tiny.spec.feature_dim, 1433);
    /// // The feature table is a function of the spec and the seed.
    /// let table = spec.features(42);
    /// assert_eq!((table.num_nodes(), table.dim()), (spec.vertices, 1433));
    /// assert_eq!(table, spec.features(42));
    /// # Ok(())
    /// # }
    /// ```
    pub fn synthesize(&self, seed: u64) -> Result<Dataset, GraphError> {
        self.synthesize_with(seed, workers_for)
    }

    /// [`DatasetSpec::synthesize`] with `workers(work)` workers for a stage
    /// of `work` items (the output does not depend on the count).
    pub(crate) fn synthesize_with(
        &self,
        seed: u64,
        workers: fn(usize) -> usize,
    ) -> Result<Dataset, GraphError> {
        let (edges, provenance) = self.generate(seed, workers)?;
        Ok(Dataset::materialized(*self, seed, edges, provenance))
    }

    /// Validates the spec and generates its edge list, timed.
    fn generate(
        &self,
        seed: u64,
        workers: fn(usize) -> usize,
    ) -> Result<(EdgeList, Provenance), GraphError> {
        self.validate()?;
        let start = Instant::now();
        let edges = generators::rmat_exact_with_workers(
            self.vertices,
            self.edges,
            seed,
            workers(self.edges * 2),
        )?;
        let provenance = Provenance {
            build_seconds: start.elapsed().as_secs_f64(),
            loaded_from_cache: false,
        };
        Ok((edges, provenance))
    }

    /// The node feature table of the `seed`-synthesised dataset: one row per
    /// vertex, `feature_dim` values each, drawn uniformly from `[0, 1)`,
    /// which mimics the sparsity-free dense feature tables DGL hands to the
    /// accelerator. Only the value-level executors read feature values; the
    /// timing model needs just `feature_dim`, so a [`Dataset`] carries none.
    ///
    /// Row-major value `i` is draw `i` of one SplitMix64 stream seeded from
    /// `seed` alone, so the table is a pure function of `(spec, seed)`. It
    /// is filled in row bands on as many workers as the host and the size
    /// warrant, with the same values at any worker count.
    pub fn features(&self, seed: u64) -> NodeFeatures {
        let values = self.vertices * self.feature_dim;
        random_features(self.vertices, self.feature_dim, seed, workers_for(values))
    }

    /// Returns a proportionally scaled-down copy of this spec.
    ///
    /// Scaling keeps the feature dimension (the architecturally interesting
    /// quantity) and shrinks vertex/edge counts by `factor`, clamped to at
    /// least 16 vertices and 32 edges so tiny factors can never produce a
    /// 0-node or 0-edge graph that the sharder would reject downstream. Used
    /// by tests and by the fast variants of the benchmark harness.
    ///
    /// Prefer [`DatasetSpec::try_scaled`] when the factor comes from user
    /// input: it reports non-finite or non-positive factors as a typed error
    /// instead of silently clamping.
    pub fn scaled(&self, factor: f64) -> DatasetSpec {
        let factor = if factor.is_finite() && factor > 0.0 {
            factor
        } else {
            0.0 // the clamps below produce the minimum viable spec
        };
        let vertices = ((self.vertices as f64 * factor).round() as usize).max(16);
        let max_edges = vertices * (vertices - 1);
        let edges = ((self.edges as f64 * factor).round() as usize)
            .max(32)
            .min(max_edges);
        DatasetSpec {
            kind: self.kind,
            name: self.name,
            vertices,
            edges,
            feature_dim: self.feature_dim,
        }
    }

    /// Like [`DatasetSpec::scaled`], but rejects factors that cannot describe
    /// a graph (NaN, infinite, zero or negative) with a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] for non-finite or
    /// non-positive factors.
    pub fn try_scaled(&self, factor: f64) -> Result<DatasetSpec, GraphError> {
        if !factor.is_finite() || factor <= 0.0 {
            return Err(GraphError::invalid(
                "factor",
                format!("scale factor {factor} is not a positive finite number"),
            ));
        }
        Ok(self.scaled(factor))
    }

    /// Checks that this spec describes a graph the rest of the pipeline can
    /// shard and simulate.
    ///
    /// The built-in Table II specs and anything produced by
    /// [`DatasetSpec::scaled`] always pass; hand-rolled specs with zero
    /// vertices/edges/feature dimensions (or more edges than a simple graph
    /// can hold) are rejected here rather than panicking inside the sharder.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DegenerateDataset`] describing the violation.
    pub fn validate(&self) -> Result<(), GraphError> {
        let degenerate = |message: String| GraphError::DegenerateDataset {
            name: self.name.to_string(),
            vertices: self.vertices,
            edges: self.edges,
            message,
        };
        if self.vertices == 0 {
            return Err(degenerate("a graph needs at least one vertex".to_string()));
        }
        if self.edges == 0 {
            return Err(degenerate("a graph needs at least one edge".to_string()));
        }
        if self.feature_dim == 0 {
            return Err(degenerate(
                "features need at least one dimension".to_string(),
            ));
        }
        let max_edges = self
            .vertices
            .saturating_mul(self.vertices.saturating_sub(1));
        if self.edges > max_edges {
            return Err(degenerate(format!(
                "{} edges exceed the simple-graph maximum of {max_edges}",
                self.edges
            )));
        }
        Ok(())
    }

    /// Returns a copy of this spec with a different feature dimension.
    ///
    /// The Figure 5 scaling study sweeps the hidden dimension; sweeping the
    /// input dimension in tests uses this helper.
    pub fn with_feature_dim(&self, feature_dim: usize) -> DatasetSpec {
        DatasetSpec {
            feature_dim,
            ..*self
        }
    }
}

impl fmt::Display for DatasetSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} vertices, {} edges, {}-d features ({:.1} MB)",
            self.name,
            self.vertices,
            self.edges,
            self.feature_dim,
            self.feature_megabytes()
        )
    }
}

/// The uniform `[0, 1)` feature table of a `seed`-synthesised dataset,
/// filled in row bands on `workers` scoped threads.
///
/// Row-major value `i` is draw `i` of one generator (one draw per value),
/// so each band starts from a copy advanced by its first value's index and
/// the table is the same at any worker count.
fn random_features(rows: usize, dim: usize, seed: u64, workers: usize) -> NodeFeatures {
    let rng = StdRng::seed_from_u64(seed.wrapping_mul(0x2545_f491_4f6c_dd1d));
    let mut values = vec![0.0f32; rows * dim];
    let value_bounds: Vec<usize> = even_bounds(rows, workers)
        .into_iter()
        .map(|row| row * dim)
        .collect();
    let fill = |first: usize, band: &mut [f32]| {
        let mut rng = rng.clone();
        rng.advance(first as u64);
        for value in band {
            *value = rng.gen_range(0.0..1.0);
        }
    };
    let fill = &fill;
    let bands = split_bands(&mut values, &value_bounds);
    std::thread::scope(|scope| {
        for (first, band) in value_bounds.iter().copied().zip(bands) {
            scope.spawn(move || fill(first, band));
        }
    });
    let matrix = Matrix::from_vec(rows, dim, values).expect("rows * dim values");
    NodeFeatures::from_matrix(matrix)
}

/// A dataset handle: its identity `(spec, seed)`, and one edge list and one
/// table of shard summaries shared by every clone, each materialised on
/// first use.
///
/// The counts are the spec's, so [`Dataset::num_nodes`] and
/// [`Dataset::num_edges`] read no edge. The first [`Dataset::edge_list`]
/// call on any clone materialises the edges once for all of them: a handle
/// from [`Dataset::open`] loads them from its artifact cache, or synthesises
/// them and stores them back; [`DatasetSpec::synthesize`] and
/// [`ArtifactCache::load_dataset`] return handles whose edges are already
/// in place. [`Dataset::plan`] loads or builds each shard summary once for
/// all clones, and reads the edges only to build one. Feature values are
/// not stored; [`DatasetSpec::features`] computes them from `spec` and
/// `seed`.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The specification this dataset was synthesised from.
    pub spec: DatasetSpec,
    /// The seed it was synthesised with — together with `spec` this is the
    /// dataset's identity in the persistent [`ArtifactCache`].
    pub seed: u64,
    cell: Arc<EdgeCell>,
}

/// How a dataset's edge list was materialised.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Provenance {
    /// Wall-clock seconds the synthesis or the cache load took. Feeds the
    /// `graph_build_seconds` telemetry in `BENCH_sweep.json`.
    pub build_seconds: f64,
    /// `true` when the edges were read back from the artifact cache rather
    /// than synthesised.
    pub loaded_from_cache: bool,
}

/// The lazily materialised edge list and shard summaries every clone of a
/// [`Dataset`] shares.
#[derive(Debug)]
struct EdgeCell {
    /// Where the edges and summaries load from, and where fresh ones are
    /// stored back (best-effort); `None` keeps them in memory only.
    cache: Option<Arc<ArtifactCache>>,
    edges: OnceLock<(EdgeList, Provenance)>,
    /// Held while materialising, so concurrent first calls share one load.
    /// A failed materialisation leaves `edges` empty and the next call
    /// retries.
    materializing: Mutex<()>,
    plans: PlanTable,
}

impl Dataset {
    /// A handle on the `(spec, seed)` dataset whose edges materialise on the
    /// first [`Dataset::edge_list`] call: loaded from `cache` when it holds a
    /// usable artifact, synthesised otherwise (and stored back, best-effort).
    /// Opens no file.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DegenerateDataset`] if `spec` fails
    /// [`DatasetSpec::validate`].
    pub fn open(
        spec: DatasetSpec,
        seed: u64,
        cache: Option<Arc<ArtifactCache>>,
    ) -> Result<Self, GraphError> {
        spec.validate()?;
        Ok(Self::with_cell(
            spec,
            seed,
            cache.filter(|cache| cache.is_enabled()),
            OnceLock::new(),
        ))
    }

    /// A handle whose edges are already materialised.
    pub(crate) fn materialized(
        spec: DatasetSpec,
        seed: u64,
        edges: EdgeList,
        provenance: Provenance,
    ) -> Self {
        Self::with_cell(spec, seed, None, OnceLock::from((edges, provenance)))
    }

    fn with_cell(
        spec: DatasetSpec,
        seed: u64,
        cache: Option<Arc<ArtifactCache>>,
        edges: OnceLock<(EdgeList, Provenance)>,
    ) -> Self {
        let cell = EdgeCell {
            cache,
            edges,
            materializing: Mutex::new(()),
            plans: PlanTable::default(),
        };
        Self {
            spec,
            seed,
            cell: Arc::new(cell),
        }
    }

    /// Number of vertices: the spec's.
    pub fn num_nodes(&self) -> usize {
        self.spec.vertices
    }

    /// Number of directed edges: the spec's.
    pub fn num_edges(&self) -> usize {
        self.spec.edges
    }

    /// The graph as a sorted edge list, materialised on the first call by
    /// any clone of this handle and shared by all of them.
    ///
    /// A corrupt or stale artifact counts as a miss (it is quarantined and
    /// the edges are synthesised and stored anew), as does an injected
    /// `cache_read` fault.
    ///
    /// # Errors
    ///
    /// Propagates synthesis errors ([`GraphError::BuildWorker`],
    /// [`GraphError::EdgeCountShortfall`]) and non-artifact cache errors. An
    /// error is not kept: the next call tries again.
    pub fn edge_list(&self) -> Result<&EdgeList, GraphError> {
        let cell = &*self.cell;
        if let Some((edges, _)) = cell.edges.get() {
            return Ok(edges);
        }
        let _materializing = lock_recover(&cell.materializing);
        if let Some((edges, _)) = cell.edges.get() {
            return Ok(edges);
        }
        let materialized = self.materialize(cell.cache.as_deref())?;
        Ok(&cell.edges.get_or_init(|| materialized).0)
    }

    /// How the edge list was materialised, or `None` while it has not been.
    pub fn provenance(&self) -> Option<Provenance> {
        self.cell.edges.get().map(|(_, provenance)| *provenance)
    }

    /// How many handles (this one included) share this dataset's edge list.
    pub fn handles(&self) -> usize {
        Arc::strong_count(&self.cell)
    }

    /// The shard summary of this graph for `(nodes_per_shard,
    /// include_self_loops)`, loaded or built once for every clone of this
    /// handle.
    ///
    /// A missing summary is loaded from the handle's artifact cache when
    /// that holds one whose shape fits the spec's counts, which reads no
    /// edge. Otherwise the edges are materialised and the summary is built
    /// and stored back (best-effort). A corrupt or stale artifact counts as
    /// a miss and is overwritten.
    ///
    /// # Errors
    ///
    /// Propagates [`ShardSummary::build`] errors (zero `nodes_per_shard`) and
    /// the errors of materialising the edges. An error is not kept: the next
    /// call tries again.
    ///
    /// # Examples
    ///
    /// ```
    /// use gnnerator_graph::datasets::DatasetKind;
    ///
    /// # fn main() -> Result<(), gnnerator_graph::GraphError> {
    /// let dataset = DatasetKind::Cora.spec().scaled(0.05).synthesize(3)?;
    /// let a = dataset.plan(32, false)?;
    /// let b = dataset.clone().plan(32, false)?;
    /// assert!(std::sync::Arc::ptr_eq(&a, &b)); // every clone shares it
    /// assert_eq!((dataset.cached_plans(), dataset.grids_built()), (1, 1));
    /// # Ok(())
    /// # }
    /// ```
    pub fn plan(
        &self,
        nodes_per_shard: usize,
        include_self_loops: bool,
    ) -> Result<Arc<ShardSummary>, GraphError> {
        let key = PlanKey {
            nodes_per_shard,
            include_self_loops,
        };
        self.cell.plans.get_or_fill(key, || self.load_or_build(key))
    }

    /// Loads `key`'s summary from the artifact cache or builds it fresh.
    fn load_or_build(&self, key: PlanKey) -> Result<ShardSummary, GraphError> {
        let plans = &self.cell.plans;
        // A zero `nodes_per_shard` skips the summary artifacts and surfaces
        // its parameter error from the build, so an invalid request can
        // never be "answered" by a stale artifact.
        let Some(cache) = self
            .cell
            .cache
            .as_deref()
            .filter(|_| key.nodes_per_shard > 0)
        else {
            return plans.build(self.edge_list()?, key);
        };
        let artifact_key = ArtifactCache::grid_key(
            &ArtifactCache::dataset_key(&self.spec, self.seed),
            key.nodes_per_shard,
            key.include_self_loops,
        );
        match cache.load_summary(&artifact_key) {
            Ok(Some(summary)) if self.fits(&summary, key) => {
                plans.loaded.fetch_add(1, Ordering::Relaxed);
                return Ok(summary);
            }
            // A clean miss, a shape mismatch or a corrupt/stale artifact:
            // rebuild and overwrite.
            Ok(_) | Err(GraphError::CacheArtifact { .. }) => {}
            Err(other) => return Err(other),
        }
        let summary = plans.build(self.edge_list()?, key)?;
        // Persistence is best-effort: a failed store costs the next run a
        // rebuild, never a wrong result.
        cache.store_summary(&artifact_key, &summary).ok();
        Ok(summary)
    }

    /// Whether a loaded summary has the shape this dataset would produce
    /// under `key`, judged from the spec's counts alone: the node count and
    /// block size must match, and the edge total must be the spec's (or,
    /// with self-loops merged in, lie between one loop per node and one
    /// extra edge per node).
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

    /// Number of distinct shard summaries this dataset holds.
    pub fn cached_plans(&self) -> usize {
        self.cell.plans.cached()
    }

    /// Number of shard summaries built from scratch for this dataset.
    pub fn grids_built(&self) -> usize {
        self.cell.plans.built.load(Ordering::Relaxed)
    }

    /// Number of shard summaries loaded from the artifact cache.
    pub fn grids_loaded(&self) -> usize {
        self.cell.plans.loaded.load(Ordering::Relaxed)
    }

    /// Cumulative wall-clock seconds spent building this dataset's shard
    /// summaries (loads and in-memory hits are free).
    pub fn shard_build_seconds(&self) -> f64 {
        *lock_recover(&self.cell.plans.build_seconds)
    }

    fn materialize(
        &self,
        cache: Option<&ArtifactCache>,
    ) -> Result<(EdgeList, Provenance), GraphError> {
        let Some(cache) = cache else {
            return self.spec.generate(self.seed, workers_for);
        };
        match cache.load_edges(&self.spec, self.seed) {
            Ok(Some(loaded)) => return Ok(loaded),
            Ok(None) | Err(GraphError::CacheArtifact { .. }) => {}
            Err(other) => return Err(other),
        }
        let (edges, provenance) = self.spec.generate(self.seed, workers_for)?;
        // Persistence is best-effort: a failed store costs the next run a
        // synthesis, never a wrong result.
        cache.store_edges(&self.spec, self.seed, &edges).ok();
        Ok((edges, provenance))
    }
}

/// Synthesises all three Table II datasets with consecutive seeds.
///
/// # Errors
///
/// Propagates generator errors (they cannot occur for the built-in specs).
pub fn synthesize_all(seed: u64) -> Result<Vec<Dataset>, GraphError> {
    DatasetKind::ALL
        .iter()
        .enumerate()
        .map(|(i, kind)| kind.spec().synthesize(seed + i as u64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_specs_match_the_paper() {
        let cora = DatasetKind::Cora.spec();
        assert_eq!(
            (cora.vertices, cora.edges, cora.feature_dim),
            (2708, 10556, 1433)
        );
        let citeseer = DatasetKind::Citeseer.spec();
        assert_eq!(
            (citeseer.vertices, citeseer.edges, citeseer.feature_dim),
            (3327, 9104, 3703)
        );
        let pubmed = DatasetKind::Pubmed.spec();
        assert_eq!(
            (pubmed.vertices, pubmed.edges, pubmed.feature_dim),
            (19717, 88648, 500)
        );
    }

    #[test]
    fn feature_sizes_are_close_to_table_ii() {
        // Table II reports 15.6 MB / 49 MB / 40.5 MB.
        assert!((DatasetKind::Cora.spec().feature_megabytes() - 15.5).abs() < 1.0);
        assert!((DatasetKind::Citeseer.spec().feature_megabytes() - 49.0).abs() < 1.5);
        assert!((DatasetKind::Pubmed.spec().feature_megabytes() - 39.4).abs() < 1.5);
    }

    #[test]
    fn degenerate_specs_synthesize_to_typed_errors() {
        let base = DatasetKind::Cora.spec();
        for broken in [
            DatasetSpec {
                vertices: 0,
                ..base
            },
            DatasetSpec { edges: 0, ..base },
            DatasetSpec {
                feature_dim: 0,
                ..base
            },
            DatasetSpec {
                vertices: 3,
                edges: 100,
                ..base
            },
        ] {
            assert!(broken.validate().is_err(), "{broken}");
            assert!(
                matches!(
                    broken.synthesize(1),
                    Err(GraphError::DegenerateDataset { .. })
                ),
                "{broken}"
            );
        }
        assert!(base.validate().is_ok());
    }

    #[test]
    fn pathological_scale_factors_clamp_to_viable_specs() {
        for factor in [0.0, -1.0, 1e-12, f64::NAN, f64::NEG_INFINITY] {
            let spec = DatasetKind::Pubmed.spec().scaled(factor);
            assert!(spec.validate().is_ok(), "factor {factor} produced {spec}");
            assert!(spec.vertices >= 16);
            assert!(spec.edges >= 32);
            // The clamped spec must actually synthesise and shard.
            let ds = spec.synthesize(5).unwrap();
            assert!(ds.num_nodes() >= 16);
            assert!(ds.num_edges() >= 32);
        }
    }

    #[test]
    fn try_scaled_rejects_non_positive_factors() {
        let spec = DatasetKind::Cora.spec();
        for factor in [0.0, -0.5, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    spec.try_scaled(factor),
                    Err(GraphError::InvalidParameter { .. })
                ),
                "factor {factor} should be rejected"
            );
        }
        assert_eq!(spec.try_scaled(0.5).unwrap(), spec.scaled(0.5));
    }

    #[test]
    fn scaled_spec_preserves_feature_dim() {
        let tiny = DatasetKind::Pubmed.spec().scaled(0.01);
        assert_eq!(tiny.feature_dim, 500);
        assert!(tiny.vertices < 500);
        assert!(tiny.vertices >= 16);
    }

    #[test]
    fn with_feature_dim_overrides_dim_only() {
        let spec = DatasetKind::Cora.spec().with_feature_dim(64);
        assert_eq!(spec.feature_dim, 64);
        assert_eq!(spec.vertices, 2708);
    }

    #[test]
    fn synthesize_small_dataset_matches_spec() {
        let spec = DatasetKind::Cora.spec().scaled(0.02);
        let ds = spec.synthesize(7).unwrap();
        assert_eq!(ds.num_nodes(), spec.vertices);
        assert_eq!(ds.num_edges(), spec.edges);
        let table = spec.features(7);
        assert_eq!(table.dim(), spec.feature_dim);
        assert_eq!(table.num_nodes(), ds.num_nodes());
    }

    #[test]
    fn synthesize_is_deterministic() {
        let spec = DatasetKind::Citeseer.spec().scaled(0.02);
        let a = spec.synthesize(3).unwrap();
        let b = spec.synthesize(3).unwrap();
        assert_eq!(a.edge_list().unwrap(), b.edge_list().unwrap());
        assert_eq!(spec.features(3), spec.features(3));
        let c = spec.synthesize(4).unwrap();
        assert_ne!(a.edge_list().unwrap(), c.edge_list().unwrap());
        assert_ne!(spec.features(3), spec.features(4));
    }

    #[test]
    fn short_names_match_figure_labels() {
        assert_eq!(DatasetKind::Cora.short_name(), "cora");
        assert_eq!(DatasetKind::Pubmed.short_name(), "pub");
        assert_eq!(DatasetKind::Cora.to_string(), "cora");
    }

    #[test]
    fn display_spec_mentions_counts() {
        let s = DatasetKind::Cora.spec().to_string();
        assert!(s.contains("2708"));
        assert!(s.contains("10556"));
    }

    #[test]
    fn average_degree_is_sensible() {
        for kind in DatasetKind::EXTENDED {
            let d = kind.spec().average_degree();
            // Citation graphs are sparse (degree 3–7); ogbn-products is a
            // co-purchase graph and much denser (real degree ~25).
            let band = match kind {
                DatasetKind::OgbnProductsScale => 15.0..50.0,
                _ => 2.0..10.0,
            };
            assert!(band.contains(&d), "{kind}: average degree {d}");
        }
    }

    #[test]
    fn ogbn_arxiv_spec_is_beyond_table_ii_scale() {
        let spec = DatasetKind::OgbnArxiv.spec();
        assert_eq!(
            (spec.vertices, spec.edges, spec.feature_dim),
            (169_343, 1_166_243, 128)
        );
        assert!(spec.edges >= 1_000_000, "ogbn-scale means >= 1M edges");
        assert_eq!(spec.name, "ogbn-arxiv");
        assert_eq!(DatasetKind::OgbnArxiv.short_name(), "arxiv");
        assert!(spec.validate().is_ok());
        // Scaled-down variants stay viable for smoke runs.
        let small = spec.scaled(0.05);
        assert!(small.validate().is_ok());
        assert!(small.edges >= 32);
    }

    #[test]
    fn seed_offsets_are_distinct_and_stable() {
        let offsets: Vec<u64> = DatasetKind::EXTENDED
            .iter()
            .map(|k| k.seed_offset())
            .collect();
        assert_eq!(offsets, vec![0, 1, 2, 3, 4]);
        // ALL stays the paper's trio: figure reproductions must not grow.
        assert_eq!(DatasetKind::ALL.len(), 3);
        assert!(!DatasetKind::ALL.contains(&DatasetKind::OgbnArxiv));
        assert!(!DatasetKind::ALL.contains(&DatasetKind::OgbnProductsScale));
    }

    #[test]
    fn ogbn_products_scale_spec_is_the_out_of_core_stressor() {
        let spec = DatasetKind::OgbnProductsScale.spec();
        assert_eq!(
            (spec.vertices, spec.edges, spec.feature_dim),
            (2_400_000, 60_000_000, 100)
        );
        assert!(spec.edges >= 50_000_000, "the stressor has >= 50M edges");
        // The edge arena alone (8 bytes/edge) is at least 400 MiB.
        assert!(spec.edges * 8 >= 400 << 20);
        assert_eq!(spec.name, "ogbn-products");
        assert_eq!(DatasetKind::OgbnProductsScale.short_name(), "products");
        assert_eq!(DatasetKind::OgbnProductsScale.num_classes(), 47);
        assert!(spec.validate().is_ok());
        // Scaled-down variants stay viable for smoke runs and CI.
        let small = spec.scaled(0.001);
        assert!(small.validate().is_ok());
        let tiny = small.synthesize(11).unwrap();
        assert_eq!(tiny.num_edges(), small.edges);
    }

    #[test]
    fn synthesize_stamps_provenance() {
        let spec = DatasetKind::Cora.spec().scaled(0.02);
        let ds = spec.synthesize(9).unwrap();
        assert_eq!(ds.seed, 9);
        let provenance = ds.provenance().expect("synthesis materialises the edges");
        assert!(!provenance.loaded_from_cache);
        assert!(provenance.build_seconds > 0.0);
    }

    #[test]
    fn open_validates_eagerly_and_materialises_once_on_first_use() {
        let broken = DatasetSpec {
            edges: 0,
            ..DatasetKind::Cora.spec()
        };
        assert!(matches!(
            Dataset::open(broken, 1, None),
            Err(GraphError::DegenerateDataset { .. })
        ));

        let spec = DatasetKind::Cora.spec().scaled(0.02);
        let lazy = Dataset::open(spec, 9, None).unwrap();
        let clone = lazy.clone();
        assert_eq!(
            (lazy.num_nodes(), lazy.num_edges()),
            (spec.vertices, spec.edges)
        );
        assert_eq!(lazy.provenance(), None, "counts read no edge");
        assert_eq!(lazy.handles(), 2);

        // The first call on any clone materialises the edges for all of
        // them, bit-identically to an eager synthesis.
        let edges = clone.edge_list().unwrap();
        assert_eq!(edges, spec.synthesize(9).unwrap().edge_list().unwrap());
        assert!(std::ptr::eq(edges, lazy.edge_list().unwrap()));
        assert!(!lazy.provenance().unwrap().loaded_from_cache);
    }

    #[test]
    fn synthesis_does_not_depend_on_the_worker_count() {
        // The banded feature fill must reproduce the historical one-stream
        // fill, and the edges and features must be the same at any worker
        // count.
        let spec = DatasetKind::Cora.spec().scaled(0.05);
        let single = spec.synthesize_with(4, |_| 1).unwrap();
        let mut rng = StdRng::seed_from_u64(4u64.wrapping_mul(0x2545_f491_4f6c_dd1d));
        let historical = NodeFeatures::from_fn(spec.vertices, spec.feature_dim, |_, _| {
            rng.gen_range(0.0..1.0)
        });
        assert_eq!(spec.features(4), historical);
        for workers in [1, 2, 7] {
            let banded = random_features(spec.vertices, spec.feature_dim, 4, workers);
            assert_eq!(banded, historical, "{workers} workers");
        }
        let policies: [fn(usize) -> usize; 2] = [|_| 2, |_| 7];
        for workers in policies {
            let banded = spec.synthesize_with(4, workers).unwrap();
            assert_eq!(
                banded.edge_list().unwrap(),
                single.edge_list().unwrap(),
                "{} workers",
                workers(0)
            );
        }
        // More bands than rows.
        assert_eq!(random_features(3, 5, 8, 7), random_features(3, 5, 8, 1));
    }
}
