//! Warm restarts: a fresh child process opens the run's artifact cache with
//! a new `SweepRunner` and evaluates the workload's point set serially.
//!
//! The parent times each restart from spawn to the moment the child's
//! result line arrives, i.e. from process start to all points evaluated.
//! The child reports its own fingerprints, cache counters, peak RSS,
//! `getrusage` figures and, when traced, its spans.

use crate::points::{fingerprint, Workload};
use crate::sys;
use crate::trace::{static_name, Span, Tracer};
use gnnerator::{evaluate_scenario, SweepRunner};
use gnnerator_graph::ArtifactCache;
use gnnerator_serve::Json;
use std::collections::HashSet;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

const MARKER: &str = "PERFBENCH-RESTART ";

pub const CHILD_FLAG: &str = "--restart-child";

#[derive(Debug, Clone)]
pub struct Restart {
    /// When the parent spawned the child.
    pub spawned: Instant,
    /// Spawn to result line, seconds.
    pub wall_s: f64,
    pub fingerprints: Vec<u64>,
    pub errors: u64,
    pub datasets_loaded: u64,
    pub datasets_synthesized: u64,
    pub grids_loaded: u64,
    pub grids_built: u64,
    pub rss_mb: f64,
    pub usage: sys::Usage,
    pub spans: Vec<Span>,
}

/// Runs one warm restart of `workload` over the cache at `cache_dir`.
pub fn spawn(
    workload: Workload,
    seed: u64,
    cache_dir: &Path,
    traced: bool,
) -> Result<Restart, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let start = Instant::now();
    let mut child = Command::new(exe)
        .arg(CHILD_FLAG)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--cache")
        .arg(cache_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning a restart: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut found = None;
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("reading a restart's output: {e}"))?;
        if let Some(payload) = line.strip_prefix(MARKER) {
            found = Some((start.elapsed().as_secs_f64(), payload.to_string()));
        }
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for a restart: {e}"))?;
    if !status.success() {
        return Err(format!("restart exited with {status}"));
    }
    let (wall_s, payload) = found.ok_or("restart printed no result")?;
    parse(start, wall_s, &payload)
}

fn parse(spawned: Instant, wall_s: f64, payload: &str) -> Result<Restart, String> {
    let json = Json::parse(payload).ok_or("restart result is not JSON")?;
    let num = |key: &str| {
        json.get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("restart result lacks {key}"))
    };
    let fingerprints = json
        .get("fingerprints")
        .and_then(Json::as_array)
        .ok_or("restart result lacks fingerprints")?
        .iter()
        .map(|v| {
            v.as_str()
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or("bad fingerprint")
        })
        .collect::<Result<Vec<_>, _>>()?;
    let spans = json
        .get("spans")
        .and_then(Json::as_array)
        .ok_or("restart result lacks spans")?
        .iter()
        .map(|v| {
            let f = v.as_array().filter(|f| f.len() == 5).ok_or("bad span")?;
            let n = |i: usize| f[i].as_f64().ok_or("bad span field");
            Ok(Span {
                name: f[0]
                    .as_str()
                    .and_then(static_name)
                    .ok_or("unknown span name")?,
                id: n(1)? as u32,
                parent: n(2)? as u32,
                start_ns: n(3)? as u64,
                end_ns: n(4)? as u64,
            })
        })
        .collect::<Result<Vec<_>, &str>>()?;
    Ok(Restart {
        spawned,
        wall_s,
        fingerprints,
        errors: num("errors")? as u64,
        datasets_loaded: num("datasets_loaded")? as u64,
        datasets_synthesized: num("datasets_synthesized")? as u64,
        grids_loaded: num("grids_loaded")? as u64,
        grids_built: num("grids_built")? as u64,
        rss_mb: num("rss_mb")?,
        usage: sys::Usage {
            user_s: num("user_s")?,
            sys_s: num("sys_s")?,
            minor_faults: num("minor_faults")? as u64,
        },
        spans,
    })
}

/// The child side: evaluates every point of `workload` through a new
/// runner over `cache_dir` and prints one result line.
pub fn child_main(workload: Workload, seed: u64, cache_dir: &Path, traced: bool) -> i32 {
    let points = workload.points(seed);
    let runner = SweepRunner::new().with_artifact_cache(Arc::new(ArtifactCache::new(cache_dir)));
    let mut tracer = Tracer::new();
    let mut fingerprints = Vec::with_capacity(points.len());
    let mut errors = 0u64;
    let mut compiled = HashSet::new();
    tracer.span("restart", |t| {
        for point in &points {
            let scenario = &point.scenario;
            let result = if traced {
                // `run_one` split at its public seams: dataset materialisation
                // (a cache load when warm), session build, the first compile of
                // each (session, dataflow) (a grid load when warm), evaluation.
                t.span("graph.dataset_load", |_| runner.dataset(scenario))
                    .and_then(|_| {
                        let session = t.span("core.build_session", |_| runner.session(scenario))?;
                        if scenario.backend.is_accelerator()
                            && compiled.insert((scenario.session_key(), scenario.dataflow))
                        {
                            t.span("graph.grid_load", |_| {
                                session.compile(&scenario.config, scenario.dataflow)
                            })?;
                        }
                        t.span("core.evaluate_scenario", |_| {
                            evaluate_scenario(scenario, &session)
                        })
                    })
            } else {
                runner.run_one(scenario)
            };
            match result {
                Ok(result) => fingerprints.push(fingerprint(&result)),
                Err(e) => {
                    eprintln!("perfbench: restart failed on {}: {e}", scenario.label());
                    errors += 1;
                    fingerprints.push(0);
                }
            }
        }
    });
    let usage = sys::usage();
    let fingerprints: Vec<String> = fingerprints
        .iter()
        .map(|f| format!("\"{f:016x}\""))
        .collect();
    let spans: Vec<String> = tracer
        .spans()
        .iter()
        .map(|s| {
            format!(
                "[\"{}\", {}, {}, {}, {}]",
                s.name, s.id, s.parent, s.start_ns, s.end_ns
            )
        })
        .collect();
    println!(
        "{MARKER}{{\"fingerprints\": [{}], \"errors\": {errors}, \"datasets_loaded\": {}, \
         \"datasets_synthesized\": {}, \"grids_loaded\": {}, \"grids_built\": {}, \"rss_mb\": {}, \
         \"user_s\": {}, \"sys_s\": {}, \"minor_faults\": {}, \"spans\": [{}]}}",
        fingerprints.join(", "),
        runner.datasets_loaded(),
        runner.datasets_synthesized(),
        runner.total_shard_grids_loaded(),
        runner.total_shard_grids_built(),
        sys::peak_rss_mb(),
        usage.user_s,
        usage.sys_s,
        usage.minor_faults,
        spans.join(", "),
    );
    0
}
