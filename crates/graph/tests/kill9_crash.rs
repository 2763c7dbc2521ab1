//! SIGKILL crash-safety for artifact writes: a writer killed mid-
//! `store_dataset` (the cache's largest artifact: the whole edge list)
//! must never leave a torn artifact visible to a fresh
//! [`ArtifactCache`].
//!
//! The write discipline under test is temp-file + atomic rename: payload
//! bytes stream into `<artifact>.tmp.<pid>.<nonce>` and only a fully
//! written, checksummed file is renamed over the final path. A `kill -9` at
//! any instant therefore leaves either the previous complete artifact, no
//! artifact, or an orphaned temp file the next cache open sweeps — never a
//! half-written file under the artifact's name.

use gnnerator_graph::datasets::{Dataset, DatasetKind, DatasetSpec};
use gnnerator_graph::{ArtifactCache, GraphError};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const SEED: u64 = 17;
const KILL_ROUNDS: usize = 5;

fn victim_spec() -> DatasetSpec {
    DatasetKind::Cora.spec().scaled(0.5)
}

fn victim() -> Dataset {
    victim_spec().synthesize(SEED).unwrap()
}

/// Helper body for the crash test: loops `store_dataset` forever until the
/// parent SIGKILLs this process. Guarded by an environment variable so a
/// plain `cargo test` run never enters the loop; the parent invokes it as
/// `<this binary> kill9_child_writes_forever --exact --ignored`.
#[test]
#[ignore = "helper: spawned (and SIGKILLed) by kill9_mid_write_leaves_no_torn_artifact"]
fn kill9_child_writes_forever() {
    let Ok(dir) = std::env::var("GNNERATOR_KILL9_DIR") else {
        return;
    };
    let cache = ArtifactCache::new(dir);
    let dataset = victim();
    loop {
        cache.store_dataset(&dataset).unwrap();
    }
}

#[test]
fn kill9_mid_write_leaves_no_torn_artifact() {
    let dir: PathBuf = std::env::temp_dir().join(format!("gnnerator-kill9-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let reference = victim();
    let exe = std::env::current_exe().unwrap();

    for round in 0..KILL_ROUNDS {
        let mut child = Command::new(&exe)
            .args(["kill9_child_writes_forever", "--exact", "--ignored"])
            .env("GNNERATOR_KILL9_DIR", &dir)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();

        // Wait for write activity (a temp file or the finished artifact),
        // then stagger the kill a little differently each round so it lands
        // at different points of the write.
        let deadline = Instant::now() + Duration::from_secs(60);
        while Instant::now() < deadline && !writes_visible(&dir) {
            std::thread::sleep(Duration::from_micros(200));
        }
        assert!(writes_visible(&dir), "child never started writing");
        std::thread::sleep(Duration::from_micros(137 * round as u64));
        child.kill().unwrap(); // SIGKILL on Unix: no destructors, no flush
        child.wait().unwrap();

        // A fresh cache over the crashed state must see either no artifact
        // yet or the complete, checksum-valid dataset — never an error,
        // never a quarantine.
        let cache = ArtifactCache::new(&dir);
        match cache.load_dataset(&victim_spec(), SEED) {
            Ok(None) => {}
            Ok(Some(loaded)) => {
                assert_eq!(loaded.edge_list, reference.edge_list, "round {round}");
                assert_eq!(
                    loaded.spec.features(loaded.seed),
                    reference.spec.features(reference.seed),
                    "round {round}"
                );
            }
            Err(GraphError::CacheArtifact { .. }) => {
                panic!("round {round}: torn artifact became visible")
            }
            Err(other) => panic!("round {round}: {other}"),
        }
        assert_eq!(cache.corrupt_artifacts(), 0, "round {round}");
        let corrupt: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "corrupt"))
            .collect();
        assert!(corrupt.is_empty(), "round {round}: {corrupt:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Whether the child has visibly started writing: any `*.tmp.*` file or the
/// finished artifact exists under `dir`.
fn writes_visible(dir: &PathBuf) -> bool {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return false;
    };
    entries.filter_map(|e| e.ok()).any(|e| {
        let name = e.file_name();
        let name = name.to_string_lossy();
        name.contains(".tmp.") || name.starts_with("ds-")
    })
}
