//! End-to-end guarantees of the streaming graph-build pipeline and the
//! persistent artifact cache: a warm-cache run performs zero dataset
//! synthesis and zero shard builds while reproducing every simulation report
//! bit for bit, and damaged cache state degrades to a fresh build (with a
//! typed error at the cache layer), never to wrong results.

use gnnerator::{
    BackendKind, DataflowConfig, GnneratorConfig, ScenarioSpec, SimSession, SweepRunner,
};
use gnnerator_gnn::NetworkKind;
use gnnerator_graph::datasets::{Dataset, DatasetKind};
use gnnerator_graph::{ArtifactCache, EdgeList, GraphError, NodeFeatures, ShardGrid};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn scratch_dir(label: &str) -> PathBuf {
    static NONCE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gnnerator-e2e-cache-{}-{label}-{}",
        std::process::id(),
        NONCE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A small mixed-backend grid including the ogbn-arxiv extension dataset.
fn grid() -> Vec<ScenarioSpec> {
    let mut scenarios = Vec::new();
    for kind in [DatasetKind::Cora, DatasetKind::OgbnArxiv] {
        let base = ScenarioSpec::new(
            NetworkKind::Gcn,
            kind.spec().scaled(0.02),
            21,
            16,
            4,
            GnneratorConfig::paper_default(),
            DataflowConfig::blocked(64),
        );
        for backend in BackendKind::ALL {
            scenarios.push(base.clone().with_backend(backend));
        }
        scenarios.push(base.clone().with_backend(BackendKind::Gnnerator));
        scenarios.last_mut().unwrap().dataflow = DataflowConfig::conventional();
    }
    scenarios
}

#[test]
fn warm_cache_run_skips_all_graph_builds_and_is_bit_identical() {
    let dir = scratch_dir("warm");
    let scenarios = grid();

    let cold = SweepRunner::new().with_artifact_cache(Arc::new(ArtifactCache::new(&dir)));
    let cold_results = cold.run(&scenarios).unwrap();
    assert!(cold.datasets_synthesized() > 0);
    assert_eq!(cold.datasets_loaded(), 0);
    assert!(cold.total_shard_grids_built() > 0);
    assert!(cold.graph_build_seconds() > 0.0);

    // A brand new runner (a later harness invocation, in effect).
    let warm = SweepRunner::new().with_artifact_cache(Arc::new(ArtifactCache::new(&dir)));
    let warm_results = warm.run(&scenarios).unwrap();
    assert_eq!(warm.datasets_synthesized(), 0, "zero dataset synthesis");
    assert_eq!(warm.total_shard_grids_built(), 0, "zero shard builds");
    assert_eq!(
        warm.datasets_loaded(),
        0,
        "every summary loads, so no edge is read"
    );
    assert!(warm.total_shard_grids_loaded() > 0);

    assert_eq!(warm_results.len(), cold_results.len());
    for (w, c) in warm_results.iter().zip(&cold_results) {
        // ScenarioResult equality covers evaluations and full reports
        // (total cycles, per-layer breakdowns, DRAM traffic).
        assert_eq!(w, c, "{}", c.scenario);
        if let (Some(wr), Some(cr)) = (&w.report, &c.report) {
            assert_eq!(wr.total_cycles, cr.total_cycles);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Byte-wise FNV-1a 64: the payload checksum of formats 2 and 3, and the
/// hash that names artifact files.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Rewrites the shard-summary artifact at `path` in the format-2 layout the
/// cache used before summaries: the same grid header and metadata table,
/// followed by the full `(src_block, dst_block, src, dst)`-sorted edge
/// arena, under version 2. `edges_by_graph` maps each dataset key to its
/// edge list.
fn rewrite_as_v2_grid_artifact(path: &Path, edges_by_graph: &HashMap<String, EdgeList>) {
    let bytes = std::fs::read(path).unwrap();
    let key_len = u32::from_le_bytes(bytes[9..13].try_into().unwrap()) as usize;
    let key = std::str::from_utf8(&bytes[13..13 + key_len]).unwrap();
    let envelope_len = 13 + key_len + 16;
    // Grid keys read `<dataset key>/nps<n>/loops<0|1>`.
    let mut parts = key.rsplitn(3, '/');
    let loops = parts.next().unwrap() == "loops1";
    let nps: usize = parts.next().unwrap()["nps".len()..].parse().unwrap();
    let mut edges = edges_by_graph[parts.next().unwrap()].clone();
    if loops {
        edges.add_self_loops();
    }
    let mut payload = bytes[envelope_len..].to_vec();
    for edge in ShardGrid::build(&edges, nps).unwrap().edges() {
        payload.extend_from_slice(&edge.src.to_le_bytes());
        payload.extend_from_slice(&edge.dst.to_le_bytes());
    }
    let mut v2 = bytes[..envelope_len - 16].to_vec();
    v2[4..8].copy_from_slice(&2u32.to_le_bytes());
    v2.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    v2.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    v2.extend_from_slice(&payload);
    std::fs::write(path, v2).unwrap();
}

#[test]
fn v2_grid_artifacts_are_quarantined_and_rebuilt_once() {
    let dir = scratch_dir("v2-upgrade");
    let scenarios = grid();
    let cold = SweepRunner::new().with_artifact_cache(Arc::new(ArtifactCache::new(&dir)));
    let cold_results = cold.run_serial(&scenarios).unwrap();
    let grids = cold.total_shard_grids_built();
    assert!(grids > 0);

    // Leave a format-2 grid artifact (edge arena included) under every
    // summary's name, as a cache root written before summaries would hold.
    let mut edges_by_graph = HashMap::new();
    for scenario in &scenarios {
        let dataset = cold.dataset(scenario).unwrap();
        edges_by_graph.insert(
            ArtifactCache::dataset_key(&scenario.dataset, scenario.seed),
            EdgeList::clone(dataset.edge_list().unwrap()),
        );
    }
    let grid_files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| {
            path.file_name()
                .unwrap()
                .to_string_lossy()
                .starts_with("grid-")
        })
        .collect();
    assert_eq!(grid_files.len(), grids);
    for path in &grid_files {
        rewrite_as_v2_grid_artifact(path, &edges_by_graph);
    }

    // Each stale artifact is rejected on its version, quarantined and
    // rebuilt exactly once, with bit-identical reports.
    let cache = Arc::new(ArtifactCache::new(&dir));
    let upgraded = SweepRunner::new().with_artifact_cache(Arc::clone(&cache));
    assert_eq!(upgraded.run_serial(&scenarios).unwrap(), cold_results);
    assert_eq!(upgraded.datasets_synthesized(), 0);
    assert_eq!(upgraded.total_shard_grids_loaded(), 0);
    assert_eq!(upgraded.total_shard_grids_built(), grids);
    assert_eq!(cache.corrupt_artifacts(), grids);
    for path in &grid_files {
        assert!(
            path.with_extension("corrupt").exists(),
            "{}",
            path.display()
        );
        assert!(path.exists(), "rebuilt summary republished");
    }

    // The republished summaries serve the next run without a rebuild.
    let warm = SweepRunner::new().with_artifact_cache(Arc::new(ArtifactCache::new(&dir)));
    assert_eq!(warm.run_serial(&scenarios).unwrap(), cold_results);
    assert_eq!(warm.total_shard_grids_built(), 0);
    assert_eq!(warm.total_shard_grids_loaded(), grids);
    std::fs::remove_dir_all(&dir).ok();
}

/// Word-wise FNV-1a 64, the payload checksum since format 4: 8-byte
/// little-endian words, then the trailing bytes one at a time.
fn word_checksum(bytes: &[u8]) -> u64 {
    let step = |hash: u64, value: u64| (hash ^ value).wrapping_mul(0x0000_0100_0000_01b3);
    let words = bytes.chunks_exact(8);
    let tail = words.remainder();
    let hash = words.fold(0xcbf2_9ce4_8422_2325, |hash, word| {
        step(hash, u64::from_le_bytes(word.try_into().unwrap()))
    });
    tail.iter().fold(hash, |hash, &b| step(hash, u64::from(b)))
}

/// Rewrites the dataset artifact at `path` as format 4 wrote it: the same
/// envelope and payload followed by the feature table (`rows` and `dim` as
/// u64, then the f32 values), under version 4 and re-checksummed.
fn rewrite_as_v4_dataset_artifact(path: &Path, table: &NodeFeatures) {
    let bytes = std::fs::read(path).unwrap();
    let key_len = u32::from_le_bytes(bytes[9..13].try_into().unwrap()) as usize;
    let envelope_len = 13 + key_len + 16;
    let mut payload = bytes[envelope_len..].to_vec();
    payload.extend_from_slice(&(table.num_nodes() as u64).to_le_bytes());
    payload.extend_from_slice(&(table.dim() as u64).to_le_bytes());
    for v in table.as_matrix().as_slice() {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    let mut v4 = bytes[..envelope_len - 16].to_vec();
    v4[4..8].copy_from_slice(&4u32.to_le_bytes());
    v4.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    v4.extend_from_slice(&word_checksum(&payload).to_le_bytes());
    v4.extend_from_slice(&payload);
    std::fs::write(path, v4).unwrap();
}

#[test]
fn v4_dataset_artifacts_are_quarantined_and_rebuilt_once() {
    let dir = scratch_dir("v4-upgrade");
    let scenarios = grid();
    let cold = SweepRunner::new().with_artifact_cache(Arc::new(ArtifactCache::new(&dir)));
    let cold_results = cold.run_serial(&scenarios).unwrap();
    let datasets = cold.datasets_synthesized();
    assert!(datasets > 0);

    // Leave a format-4 dataset artifact (edges plus the feature table) under
    // every dataset's name, as a cache root written before format 5 would
    // hold. Artifact files are named by the FNV-1a 64 of their key.
    let mut dataset_files = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for scenario in &scenarios {
        if !seen.insert((scenario.dataset, scenario.seed)) {
            continue;
        }
        let key = ArtifactCache::dataset_key(&scenario.dataset, scenario.seed);
        let path = dir.join(format!("ds-{:016x}.bin", fnv1a64(key.as_bytes())));
        rewrite_as_v4_dataset_artifact(&path, &scenario.dataset.features(scenario.seed));
        dataset_files.push(path);
    }
    assert_eq!(dataset_files.len(), datasets);

    // The summaries still load, so a run over the upgraded root reads no
    // dataset artifact at all: bit-identical reports, nothing quarantined.
    let cache = Arc::new(ArtifactCache::new(&dir));
    let upgraded = SweepRunner::new().with_artifact_cache(Arc::clone(&cache));
    assert_eq!(upgraded.run_serial(&scenarios).unwrap(), cold_results);
    assert_eq!(upgraded.datasets_synthesized(), 0);
    assert_eq!(upgraded.datasets_loaded(), 0);
    assert_eq!(upgraded.total_shard_grids_built(), 0);
    assert_eq!(cache.corrupt_artifacts(), 0);

    // Once the edges are needed (as a summary miss needs them), each stale
    // artifact is rejected on its version, quarantined and re-synthesised
    // exactly once.
    let force_edges = |runner: &SweepRunner| {
        for scenario in &scenarios {
            let dataset = runner.dataset(scenario).unwrap();
            let reference = cold.dataset(scenario).unwrap();
            assert_eq!(dataset.edge_list().unwrap(), reference.edge_list().unwrap());
        }
    };
    force_edges(&upgraded);
    assert_eq!(upgraded.datasets_synthesized(), datasets);
    assert_eq!(upgraded.datasets_loaded(), 0);
    assert_eq!(cache.corrupt_artifacts(), datasets);
    for path in &dataset_files {
        assert!(
            path.with_extension("corrupt").exists(),
            "{}",
            path.display()
        );
        assert!(path.exists(), "rebuilt dataset republished");
    }

    // The next warm run again reads no dataset; when it does need the
    // edges, the republished artifacts serve them without synthesis.
    let warm = SweepRunner::new().with_artifact_cache(Arc::new(ArtifactCache::new(&dir)));
    assert_eq!(warm.run_serial(&scenarios).unwrap(), cold_results);
    assert_eq!(warm.datasets_synthesized(), 0);
    assert_eq!(warm.datasets_loaded(), 0);
    force_edges(&warm);
    assert_eq!(warm.datasets_synthesized(), 0);
    assert_eq!(warm.datasets_loaded(), datasets);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_cache_files_fall_back_to_identical_fresh_builds() {
    let dir = scratch_dir("corrupt");
    let dataset = DatasetKind::Citeseer
        .spec()
        .scaled(0.03)
        .synthesize(5)
        .unwrap();
    let model = NetworkKind::Gcn
        .build_paper_config(dataset.spec.feature_dim, 6)
        .unwrap();
    let config = GnneratorConfig::paper_default();
    let cache = Arc::new(ArtifactCache::new(&dir));
    cache.store_dataset(&dataset).unwrap();

    let persisted = Dataset::open(dataset.spec, dataset.seed, Some(Arc::clone(&cache))).unwrap();
    let pristine = SimSession::new(model.clone(), &persisted).unwrap();
    let reference = pristine
        .simulate(&config, DataflowConfig::paper_default())
        .unwrap();

    // Vandalise every artifact on disk.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, bytes).unwrap();
    }

    // The cache layer reports typed errors for the damaged artifacts...
    assert!(matches!(
        cache.load_dataset(&dataset.spec, dataset.seed),
        Err(GraphError::CacheArtifact { .. })
    ));
    // ...a runner's dataset falls back to synthesis when its edges are
    // needed (and repairs the artifact)...
    let runner = SweepRunner::new().with_artifact_cache(Arc::clone(&cache));
    let rebuilt = runner.dataset_for(dataset.spec, dataset.seed).unwrap();
    assert_eq!(runner.datasets_synthesized(), 0, "opening reads nothing");
    assert_eq!(rebuilt.edge_list().unwrap(), dataset.edge_list().unwrap());
    assert_eq!(runner.datasets_synthesized(), 1);
    assert_eq!(runner.datasets_loaded(), 0);
    assert!(cache
        .load_dataset(&dataset.spec, dataset.seed)
        .unwrap()
        .is_some());
    // ...and a session over the repaired state reproduces the report.
    let session = SimSession::new(model, &rebuilt).unwrap();
    let report = session
        .simulate(&config, DataflowConfig::paper_default())
        .unwrap();
    assert_eq!(report, reference);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_off_escape_hatch_disables_persistence() {
    // GNNERATOR_CACHE=off resolves to a disabled cache, and a runner built
    // on one behaves exactly like a cache-less runner.
    let cache = ArtifactCache::from_env_value(Some("off"));
    assert!(!cache.is_enabled());
    let runner = SweepRunner::new().with_artifact_cache(Arc::new(cache));
    assert!(
        runner.artifact_cache().is_none(),
        "disabled caches are dropped at attach time"
    );
    let scenarios = grid();
    let results = runner.run_serial(&scenarios).unwrap();
    assert_eq!(results.len(), scenarios.len());
    assert_eq!(runner.datasets_loaded(), 0);
    assert_eq!(runner.total_shard_grids_loaded(), 0);
}

#[test]
fn ogbn_scale_spec_flows_through_the_streaming_pipeline() {
    // A meaningful slice of ogbn-arxiv (≈10% → ~117k edges) synthesises
    // through the chunked builder — multiple sealed chunks — and simulates.
    let spec = DatasetKind::OgbnArxiv.spec().scaled(0.1);
    assert!(spec.edges > 100_000);
    let dataset = spec.synthesize(31).unwrap();
    assert_eq!(dataset.num_edges(), spec.edges);
    assert!(dataset.edge_list().unwrap().is_sorted());
    let model = NetworkKind::Gcn
        .build(dataset.spec.feature_dim, 16, 40, 1)
        .unwrap();
    let session = SimSession::new(model, &dataset).unwrap();
    let report = session
        .simulate(
            &GnneratorConfig::paper_default(),
            DataflowConfig::blocked(64),
        )
        .unwrap();
    assert!(report.total_cycles > 0);
    assert_eq!(report.dataset_name, "ogbn-arxiv");
}

/// The published dataset artifacts under `dir`, sorted.
fn dataset_artifacts(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| {
            let name = path.file_name().unwrap().to_string_lossy();
            name.starts_with("ds-") && name.ends_with(".bin")
        })
        .collect();
    paths.sort();
    paths
}

#[test]
fn a_warm_restart_reads_no_dataset_bytes() {
    // Timing reads shard summaries and counts only, so once every summary
    // is on disk the dataset artifacts are never opened: deleting them, or
    // overwriting them with garbage, changes nothing a warm run computes.
    for garbage in [false, true] {
        let dir = scratch_dir("no-dataset-bytes");
        let scenarios = grid();
        let cold = SweepRunner::new().with_artifact_cache(Arc::new(ArtifactCache::new(&dir)));
        let reference = cold.run_serial(&scenarios).unwrap();
        let artifacts = dataset_artifacts(&dir);
        assert_eq!(artifacts.len(), 2);
        for path in &artifacts {
            if garbage {
                std::fs::write(path, b"not an artifact").unwrap();
            } else {
                std::fs::remove_file(path).unwrap();
            }
        }

        let cache = Arc::new(ArtifactCache::new(&dir));
        let warm = SweepRunner::new().with_artifact_cache(Arc::clone(&cache));
        assert_eq!(
            warm.run_serial(&scenarios).unwrap(),
            reference,
            "garbage: {garbage}"
        );
        assert_eq!(warm.datasets_loaded(), 0);
        assert_eq!(warm.datasets_synthesized(), 0);
        assert_eq!(warm.total_shard_grids_built(), 0);

        // The serving pool's warm sessions read no dataset either.
        let pool = gnnerator_serve::SessionPool::new(4, Some(Arc::clone(&cache)));
        for (scenario, expected) in scenarios.iter().zip(&reference) {
            let session = pool.get(scenario).unwrap().session;
            assert_eq!(
                &gnnerator::evaluate_scenario(scenario, &session).unwrap(),
                expected
            );
            assert_eq!(session.dataset().grids_built(), 0);
        }
        let stats = pool.stats();
        assert_eq!((stats.datasets_loaded, stats.datasets_synthesized), (0, 0));

        assert_eq!(
            cache.corrupt_artifacts(),
            0,
            "nothing read, nothing quarantined"
        );
        if garbage {
            assert_eq!(dataset_artifacts(&dir), artifacts);
            for path in &artifacts {
                assert_eq!(std::fs::read(path).unwrap(), b"not an artifact");
            }
        } else {
            assert!(
                dataset_artifacts(&dir).is_empty(),
                "no dataset artifact reappears"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
