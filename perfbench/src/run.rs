//! The measured runs: end-to-end (`--trace 0`) and per-layer (`--trace 1`).

use crate::points::{fingerprint, loop_order, set_digest, total_cycles, Point, Workload};
use crate::restart::{self, Restart};
use crate::serving::{self, delta_mean_us, Expected, Scrape};
use crate::sys::{self, median, micros, quantile};
use crate::trace::{SpanStats, Tracer};
use gnnerator::{
    evaluate_scenario, Backend, BackendKind, BaselineSeconds, GpuRooflineBackend, HygcnBackend,
    ScenarioResult, ScenarioSpec, Simulator, SweepRunner,
};
use gnnerator_graph::{generators, ArtifactCache};
use gnnerator_serve::client::ClientConnection;
use gnnerator_serve::{scenario_from_json, Json, SessionPool, SessionServer};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The seed whose simulated statistics are pinned in `digests.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// Digests of every simulated statistic per workload at [`DEFAULT_SEED`],
/// captured from the model as it stood when the benchmark was defined.
const DIGESTS: &str = include_str!("../digests.txt");

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Operations attempted and failed; a wrong output counts as a failure.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
}

impl Ledger {
    fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("perfbench: check failed: {}", what());
            }
        }
    }
}

/// A directory under the checkout for this run's caches, removed when the
/// run ends. No cache is shared across runs.
struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn new() -> Result<Self, String> {
        let nonce = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let root = base_dir().join(format!("run-{}-{nonce}", std::process::id()));
        std::fs::create_dir_all(&root).map_err(|e| format!("creating {}: {e}", root.display()))?;
        Ok(Self { root })
    }

    fn dir(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.root).ok();
        // Leaves `.perfbench` itself only if traces live there.
        std::fs::remove_dir(base_dir()).ok();
    }
}

fn base_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

pub fn run(args: &Args) -> Result<Report, String> {
    let points = args.workload.points(args.seed);
    for point in &points {
        let decoded = Json::parse(&point.body)
            .ok_or("unparseable request body")
            .and_then(|json| scenario_from_json(&json).map_err(|_| "undecodable request body"))?;
        if decoded != point.scenario {
            return Err(format!(
                "request body {} does not decode to its scenario",
                point.body
            ));
        }
    }
    let scratch = Scratch::new()?;
    let report = if args.trace {
        traced(args, &points, &scratch)
    } else {
        match args.workload {
            Workload::ProductsRestart => products_e2e(args, &points, &scratch),
            Workload::DesignSweep => design_e2e(args, &points, &scratch),
            Workload::ServeClosed => serve_e2e(args, &points, &scratch),
        }
    }?;
    match report
        .metrics
        .iter()
        .find(|(_, value, _)| !value.is_finite())
    {
        Some((name, value, _)) => Err(format!("metric {name} measured {value}")),
        None => Ok(report),
    }
}

// ---------------------------------------------------------------------------
// Shared phases
// ---------------------------------------------------------------------------

/// A cold set-up: a new runner over an empty artifact cache evaluates every
/// point once, building (and storing) every dataset and shard grid.
struct Cold {
    seconds: f64,
    runner: SweepRunner,
    results: Vec<ScenarioResult>,
}

fn cold_setup(
    points: &[Point],
    cache_dir: &Path,
    mut tracer: Option<&mut Tracer>,
) -> Result<Cold, String> {
    let start = Instant::now();
    let runner = SweepRunner::new().with_artifact_cache(Arc::new(ArtifactCache::new(cache_dir)));
    let mut results = Vec::with_capacity(points.len());
    for p in points {
        let result = match tracer.as_deref_mut() {
            Some(t) => t.span("sweep.run_one", |_| runner.run_one(&p.scenario)),
            None => runner.run_one(&p.scenario),
        };
        results.push(result.map_err(|e| format!("{}: {e}", p.scenario.label()))?);
    }
    Ok(Cold {
        seconds: start.elapsed().as_secs_f64(),
        runner,
        results,
    })
}

/// `n` cold set-ups, each into a fresh cache that replaces the previous one.
/// The first is checked against the pinned digest and every repeat must
/// reproduce it. Returns the set-up times, the last set-up (whose runner
/// stays warm) and its cache directory.
fn cold_setups(
    ledger: &mut Ledger,
    args: &Args,
    points: &[Point],
    scratch: &Scratch,
    n: usize,
) -> Result<(Vec<f64>, Cold, PathBuf), String> {
    let mut seconds = Vec::new();
    let mut reference = Vec::new();
    let mut last: Option<(Cold, PathBuf)> = None;
    for k in 0..n {
        if let Some((previous, dir)) = last.take() {
            drop(previous);
            std::fs::remove_dir_all(dir).ok();
        }
        let dir = scratch.dir(&format!("cache-{k}"));
        let cold = cold_setup(points, &dir, None)?;
        seconds.push(cold.seconds);
        let fps = fingerprints(&cold.results);
        if k == 0 {
            check_digest(ledger, args, points, &fps);
            reference = fps;
        } else {
            check_same(ledger, points, &reference, &fps, "repeated cold set-up");
        }
        last = Some((cold, dir));
    }
    let (cold, dir) = last.expect("at least one set-up");
    Ok((seconds, cold, dir))
}

fn fingerprints(results: &[ScenarioResult]) -> Vec<u64> {
    results.iter().map(fingerprint).collect()
}

fn check_same(ledger: &mut Ledger, points: &[Point], reference: &[u64], got: &[u64], what: &str) {
    for (i, point) in points.iter().enumerate() {
        ledger.op(got.get(i) == Some(&reference[i]), || {
            format!(
                "{what}: {} differs from the cold result",
                point.scenario.label()
            )
        });
    }
}

/// At the default seed, the simulated statistics must equal the digest
/// recorded when the benchmark was defined; this catches model drift that
/// self-consistency checks cannot.
fn check_digest(ledger: &mut Ledger, args: &Args, points: &[Point], fps: &[u64]) {
    let digest = format!("{:016x}", set_digest(points, fps));
    println!(
        "digest {} seed {} {digest}",
        args.workload.name(),
        args.seed
    );
    if args.seed != DEFAULT_SEED {
        return;
    }
    let pinned = DIGESTS.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        (fields.next() == Some(args.workload.name()))
            .then(|| fields.next())
            .flatten()
    });
    if let Some(pinned) = pinned {
        ledger.op(pinned == digest, || {
            format!("simulated statistics digest {digest} differs from the pinned {pinned}")
        });
    }
}

/// Runs restarts until `more(count, elapsed)` says stop, alternating
/// untraced and traced children when `alternate` is set. Every restart must
/// reproduce the cold fingerprints and load without building.
fn restarts(
    ledger: &mut Ledger,
    args: &Args,
    points: &[Point],
    reference: &[u64],
    cache_dir: &Path,
    alternate: bool,
    more: impl Fn(usize, Duration) -> bool,
) -> Result<Vec<(bool, Restart)>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    while more(out.len(), start.elapsed()) {
        let traced = alternate && out.len() % 2 == 1;
        let r = restart::spawn(args.workload, args.seed, cache_dir, traced)?;
        check_same(ledger, points, reference, &r.fingerprints, "warm restart");
        ledger.op(
            r.errors == 0 && r.grids_built == 0 && r.datasets_synthesized == 0,
            || {
                format!(
                    "warm restart built {} grids and synthesised {} datasets ({} errors)",
                    r.grids_built, r.datasets_synthesized, r.errors
                )
            },
        );
        out.push((traced, r));
    }
    Ok(out)
}

/// What a timed loop measured: every operation's wall latency, and per
/// cycle (one pass over the point set) the cycle's median latency and its
/// rate in points per second.
#[derive(Default)]
struct Timed {
    latencies_us: Vec<f64>,
    cycle_p50_us: Vec<f64>,
    cycle_rate: Vec<f64>,
    wall_s: f64,
}

impl Timed {
    /// Closes the cycle whose latencies start at index `from`.
    fn end_cycle(&mut self, from: usize, rate: f64) {
        let cycle = &self.latencies_us[from..];
        self.cycle_p50_us.push(quantile(cycle, 0.5));
        self.cycle_rate.push(rate);
    }

    /// `points_per_s` and `req_p50_us` of the loop: the 10th percentile of
    /// cycle rates and the 90th percentile of cycle medians. Host speed on
    /// a shared VM drifts between slower and faster phases lasting seconds,
    /// and some runs see no fast phase at all; every run has slow phases, so
    /// the slower cycles give the figures that repeat from run to run.
    fn summary(&self) -> (f64, f64) {
        (
            quantile(&self.cycle_rate, 0.1),
            quantile(&self.cycle_p50_us, 0.9),
        )
    }

    fn print_diagnostics(&self) {
        println!(
            "diagnostic: {} operations in {} cycles, {:.1} per wall second; \
             p90 {:.2} us, p99 {:.2} us, p99.9 {:.2} us",
            self.latencies_us.len(),
            self.cycle_rate.len(),
            self.latencies_us.len() as f64 / self.wall_s,
            quantile(&self.latencies_us, 0.9),
            quantile(&self.latencies_us, 0.99),
            quantile(&self.latencies_us, 0.999),
        );
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order. `rate` and `p50_us`
/// are the workload's own summaries of its timed phase.
fn e2e_metrics(
    setups: &[f64],
    warm: &[(bool, Restart)],
    (rate, p50_us): (f64, f64),
) -> Vec<(&'static str, f64, &'static str)> {
    let walls: Vec<f64> = warm.iter().map(|(_, r)| r.wall_s).collect();
    let rss: Vec<f64> = warm.iter().map(|(_, r)| r.rss_mb).collect();
    println!(
        "samples: {} set-ups, {} warm restarts",
        setups.len(),
        walls.len()
    );
    vec![
        ("setup_s", median(setups), "s"),
        ("peak_rss_mb", sys::peak_rss_mb(), "MB"),
        ("warm_start_s", median(&walls), "s"),
        ("warm_rss_mb", median(&rss), "MB"),
        ("points_per_s", rate, "1/s"),
        ("req_p50_us", p50_us, "us"),
    ]
}

fn report(ledger: Ledger, metrics: Vec<(&'static str, f64, &'static str)>) -> Report {
    Report {
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics,
    }
}

/// Closed loop of serial `run_one` calls cycling through `points` in the
/// seed's loop order, for `seconds`. A cycle's rate is points per second of
/// the calling thread's CPU time: the loop never blocks, so that is its wall
/// rate minus time the CPU was taken away.
fn sweep_loop(
    ledger: &mut Ledger,
    runner: &SweepRunner,
    order: &[usize],
    points: &[Point],
    expected: &[ScenarioResult],
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> Timed {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut timed = Timed::default();
    while start.elapsed() < budget {
        let (from, cpu) = (timed.latencies_us.len(), sys::thread_cpu_s());
        for &i in order {
            let (point, want) = (&points[i], &expected[i]);
            let t0 = Instant::now();
            let result = match tracer.as_deref_mut() {
                Some(t) => t.span("sweep.run_one", |_| runner.run_one(&point.scenario)),
                None => runner.run_one(&point.scenario),
            };
            timed.latencies_us.push(micros(t0.elapsed()));
            ledger.op(matches!(&result, Ok(r) if r == want), || {
                format!(
                    "run_one of {} differs from its set-up result",
                    point.scenario.label()
                )
            });
        }
        timed.end_cycle(from, order.len() as f64 / (sys::thread_cpu_s() - cpu));
    }
    timed.wall_s = start.elapsed().as_secs_f64();
    timed
}

/// Closed loop of `POST /simulate` on one keep-alive connection, cycling
/// through `points` in the seed's loop order, for `seconds`. A cycle's rate
/// is requests per second of the whole process's CPU time (client,
/// connection and worker threads together): what one CPU could sustain,
/// leaving out time spent waiting for a descheduled CPU. Responses are
/// checked after each cycle, outside its CPU reading.
fn request_loop(
    ledger: &mut Ledger,
    conn: &mut ClientConnection,
    order: &[usize],
    points: &[Point],
    expected: &[Expected],
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> Timed {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut timed = Timed::default();
    let mut responses = Vec::with_capacity(order.len());
    while start.elapsed() < budget {
        let (from, cpu) = (timed.latencies_us.len(), sys::usage().cpu_s());
        for &i in order {
            let body = &points[i].body;
            let t0 = Instant::now();
            let response = match tracer.as_deref_mut() {
                Some(t) => t.span("serve.request", |_| conn.post("/simulate", body)),
                None => conn.post("/simulate", body),
            };
            timed.latencies_us.push(micros(t0.elapsed()));
            responses.push(response);
        }
        timed.end_cycle(from, order.len() as f64 / (sys::usage().cpu_s() - cpu));
        for (&i, response) in order.iter().zip(responses.drain(..)) {
            ledger.op(matches!(&response, Ok(r) if expected[i].matches(r)), || {
                format!(
                    "served {} differs from the local evaluation",
                    points[i].body
                )
            });
        }
    }
    timed.wall_s = start.elapsed().as_secs_f64();
    timed
}

// ---------------------------------------------------------------------------
// End-to-end runs
// ---------------------------------------------------------------------------

/// Cold set-ups of products repeat this many times per run (median).
const PRODUCTS_SETUPS: usize = 3;
/// Set-ups of the Table II workloads repeat this many times per run.
const TABLE2_SETUPS: usize = 5;
/// Warm restarts per run on the Table II workloads.
const TABLE2_RESTARTS: usize = 9;
/// The fewest warm restarts a products run measures.
const MIN_PRODUCTS_RESTARTS: usize = 5;

fn products_e2e(args: &Args, points: &[Point], scratch: &Scratch) -> Result<Report, String> {
    let mut ledger = Ledger::default();
    let (setups, cold, cache_dir) =
        cold_setups(&mut ledger, args, points, scratch, PRODUCTS_SETUPS)?;
    let reference = fingerprints(&cold.results);
    drop(cold);
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let warm = restarts(
        &mut ledger,
        args,
        points,
        &reference,
        &cache_dir,
        false,
        |n, elapsed| n < MIN_PRODUCTS_RESTARTS || elapsed < budget,
    )?;
    let wall_s = start.elapsed().as_secs_f64();
    let walls: Vec<f64> = warm.iter().map(|(_, r)| r.wall_s).collect();
    println!(
        "diagnostic: {} restarts, {:.3} per wall second; p90 {:.4} s",
        warm.len(),
        warm.len() as f64 / wall_s,
        quantile(&walls, 0.9)
    );
    let restart_s = median(&walls);
    let metrics = e2e_metrics(
        &setups,
        &warm,
        (points.len() as f64 / restart_s, restart_s * 1e6),
    );
    Ok(report(ledger, metrics))
}

fn design_e2e(args: &Args, points: &[Point], scratch: &Scratch) -> Result<Report, String> {
    let mut ledger = Ledger::default();
    let (setups, cold, cache_dir) = cold_setups(&mut ledger, args, points, scratch, TABLE2_SETUPS)?;
    for (point, result) in points.iter().zip(&cold.results) {
        let ok = one_shot_matches(&cold.runner, &point.scenario, result)?;
        ledger.op(ok, || {
            format!(
                "{} differs from the one-shot simulation",
                point.scenario.label()
            )
        });
    }
    let reference = fingerprints(&cold.results);
    let warm = restarts(
        &mut ledger,
        args,
        points,
        &reference,
        &cache_dir,
        false,
        |n, _| n < TABLE2_RESTARTS,
    )?;
    let order = loop_order(args.seed, points.len());
    let timed = sweep_loop(
        &mut ledger,
        &cold.runner,
        &order,
        points,
        &cold.results,
        args.seconds,
        None,
    );
    timed.print_diagnostics();
    let metrics = e2e_metrics(&setups, &warm, timed.summary());
    Ok(report(ledger, metrics))
}

/// Whether a sweep result equals the one-shot path: a fresh
/// `Simulator::with_dataflow(..).simulate(..)` for accelerator points and a
/// direct baseline-model evaluation for baseline points (and for the
/// baseline seconds attached to accelerator points).
fn one_shot_matches(
    runner: &SweepRunner,
    scenario: &ScenarioSpec,
    result: &ScenarioResult,
) -> Result<bool, String> {
    let err = |e: &dyn std::fmt::Display| format!("{}: {e}", scenario.label());
    let dataset = runner.dataset(scenario).map_err(|e| err(&e))?;
    let model = scenario
        .network
        .build(
            scenario.dataset.feature_dim,
            scenario.hidden_dim,
            scenario.out_dim,
            scenario.hidden_layers,
        )
        .map_err(|e| err(&e))?;
    let (nodes, edges) = (result.num_nodes, result.num_edges);
    let gpu = GpuRooflineBackend::rtx_2080_ti()
        .evaluate(&model, nodes, edges)
        .map_err(|e| err(&e))?;
    let hygcn = HygcnBackend::for_dataset(scenario.dataset.name)
        .evaluate(&model, nodes, edges)
        .map_err(|e| err(&e))?;
    Ok(match scenario.backend {
        BackendKind::Gnnerator => {
            let report = Simulator::with_dataflow(scenario.config.clone(), scenario.dataflow)
                .and_then(|sim| sim.simulate(&model, &dataset))
                .map_err(|e| err(&e))?;
            let baselines = BaselineSeconds {
                gpu: gpu.seconds,
                hygcn: hygcn.seconds,
            };
            result.evaluation == report.to_evaluation()
                && result.report.as_ref() == Some(&report)
                && result.baseline_seconds == Some(baselines)
        }
        BackendKind::GpuRoofline => result.evaluation == gpu && result.report.is_none(),
        BackendKind::Hygcn => result.evaluation == hygcn && result.report.is_none(),
    } && nodes == scenario.dataset.vertices
        && edges == scenario.dataset.edges)
}

fn serve_e2e(args: &Args, points: &[Point], scratch: &Scratch) -> Result<Report, String> {
    let mut ledger = Ledger::default();
    // Local evaluation: the reference for every served point, and the warm
    // cache the restarts load from.
    let cache_dir = scratch.dir("cache");
    let cold = cold_setup(points, &cache_dir, None)?;
    let reference = fingerprints(&cold.results);
    check_digest(&mut ledger, args, points, &reference);
    let expected: Vec<Expected> = cold.results.iter().map(Expected::of).collect();
    drop(cold);

    // Set-up: server start to a correct response for every session key.
    let mut setups = Vec::new();
    let mut server: Option<SessionServer> = None;
    for _ in 0..TABLE2_SETUPS {
        if let Some(previous) = server.take() {
            previous.shutdown();
        }
        let start = Instant::now();
        let started = serving::start(None)?;
        let mut conn = ClientConnection::new(started.local_addr());
        let wrong = serving::prewarm(&mut conn, points, &expected)?;
        setups.push(start.elapsed().as_secs_f64());
        ledger.op(wrong == 0, || {
            format!("{wrong} prewarm responses were wrong")
        });
        server = Some(started);
    }
    let server = server.expect("at least one set-up");
    let warm = restarts(
        &mut ledger,
        args,
        points,
        &reference,
        &cache_dir,
        false,
        |n, _| n < TABLE2_RESTARTS,
    )?;
    let mut conn = ClientConnection::new(server.local_addr());
    let order = loop_order(args.seed, points.len());
    let timed = request_loop(
        &mut ledger,
        &mut conn,
        &order,
        points,
        &expected,
        args.seconds,
        None,
    );
    drop(conn);
    server.shutdown();
    timed.print_diagnostics();
    let metrics = e2e_metrics(&setups, &warm, timed.summary());
    Ok(report(ledger, metrics))
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

/// Restarts in a traced run: half untraced, half traced, alternating.
const TRACED_RESTARTS: usize = 8;
/// Minimum wall time of the per-call attribution loop.
const ATTRIBUTION_SECONDS: f64 = 1.0;
/// Closed-loop `/healthz` probes.
const HEALTHZ_PROBES: usize = 2000;
/// Request-loop length of the serving probe on workloads other than
/// `serve-closed` (which runs its full `--seconds`).
const SERVE_PROBE_SECONDS: f64 = 2.0;
/// Spans written to the trace file; the summary lines cover all of them.
const SPANS_WRITTEN: usize = 50_000;

fn sum_ns(stats: &BTreeMap<&'static str, SpanStats>, name: &str) -> f64 {
    stats.get(name).map_or(0.0, |s| s.total_ns as f64)
}

fn traced(args: &Args, points: &[Point], scratch: &Scratch) -> Result<Report, String> {
    let mut ledger = Ledger::default();
    let mut t = Tracer::new();
    let mut m: Vec<(&'static str, f64, &'static str)> = Vec::new();

    // A. The cold set-up, one span per run_one.
    let cache_dir = scratch.dir("cache");
    let Cold {
        seconds: setup_s,
        runner,
        results,
    } = t.span("setup", |t| cold_setup(points, &cache_dir, Some(t)))?;
    let reference = fingerprints(&results);
    check_digest(&mut ledger, args, points, &reference);
    let mut sessions = HashSet::new();
    let mut shard_plans = 0;
    for p in points {
        if sessions.insert(p.scenario.session_key()) {
            shard_plans += runner
                .session(&p.scenario)
                .map_err(|e| e.to_string())?
                .cached_shard_plans();
        }
    }
    let dataset_bytes = sys::artifact_bytes(&cache_dir, "ds-");
    let all_bytes = sys::artifact_bytes(&cache_dir, "");
    m.push((
        "graph.datasets_synthesized",
        runner.datasets_synthesized() as f64,
        "count",
    ));
    m.push((
        "graph.grids_built",
        runner.total_shard_grids_built() as f64,
        "count",
    ));
    m.push(("graph.shard_plans", shard_plans as f64, "count"));
    m.push((
        "graph.dataset_artifact_mb",
        dataset_bytes as f64 / 1e6,
        "MB",
    ));
    m.push((
        "graph.grid_artifact_mb",
        (all_bytes - dataset_bytes) as f64 / 1e6,
        "MB",
    ));
    m.push((
        "core.sim_cycles_total",
        total_cycles(&results) as f64,
        "count",
    ));

    // B. Per-call attribution of the evaluation path over warm sessions.
    let mark = t.spans().len();
    let attribution = Instant::now();
    let mut evaluated = 0usize;
    while evaluated == 0 || attribution.elapsed().as_secs_f64() < ATTRIBUTION_SECONDS {
        for (p, want) in points.iter().zip(&results) {
            attribute_point(&mut t, &mut ledger, &runner, &p.scenario, want)?;
            evaluated += 1;
        }
    }
    let stats = t.summary_from(mark);
    let per_point = |name: &str| sum_ns(&stats, name) / evaluated as f64 / 1e3;
    let (run_one, evaluate) = (
        per_point("sweep.run_one"),
        per_point("core.evaluate_scenario"),
    );
    let (compile, simulate, estimate) = (
        per_point("core.compile"),
        per_point("core.simulate"),
        per_point("baselines.estimate"),
    );
    m.push(("core.compile_us", compile, "us"));
    m.push(("core.simulate_us", simulate, "us"));
    m.push(("baselines.estimate_us", estimate, "us"));
    m.push((
        "core.evaluate_overhead_us",
        evaluate - compile - simulate - estimate,
        "us",
    ));
    m.push(("sweep.lookup_us", run_one - evaluate, "us"));
    share_table(
        "run_one per point (us)",
        run_one,
        &[
            ("sweep.lookup", run_one - evaluate),
            ("core.compile", compile),
            ("core.simulate", simulate),
            ("baselines.estimate", estimate),
            (
                "core.evaluate overhead",
                evaluate - compile - simulate - estimate,
            ),
        ],
    );

    // Tracing overhead of the design sweep: the same run_one loop untraced
    // and with one span per call, median cycle against median cycle.
    let mut overhead = None;
    if args.workload == Workload::DesignSweep {
        let half = args.seconds / 2.0;
        let order = loop_order(args.seed, points.len());
        let plain = sweep_loop(&mut ledger, &runner, &order, points, &results, half, None);
        let spanned = sweep_loop(
            &mut ledger,
            &runner,
            &order,
            points,
            &results,
            half,
            Some(&mut t),
        );
        overhead = Some((median(&plain.cycle_rate) / median(&spanned.cycle_rate) - 1.0) * 100.0);
    }
    drop(runner);

    // C. The graph layers, call by call, into a second empty cache.
    let graph = graph_attribution(&mut t, points, &scratch.dir("attribution"))?;
    m.push(("graph.rmat_s", graph.rmat_s, "s"));
    m.push(("graph.synthesize_s", graph.synthesize_s, "s"));
    m.push((
        "graph.features_csr_s",
        graph.synthesize_s - graph.rmat_s,
        "s",
    ));
    m.push(("graph.dataset_store_s", graph.store_s, "s"));
    m.push(("graph.grid_build_s", graph.grid_build_s, "s"));
    share_table(
        "cold set-up (s)",
        setup_s,
        &[
            ("graph.rmat", graph.rmat_s),
            ("graph.features+csr", graph.synthesize_s - graph.rmat_s),
            ("graph.dataset_store", graph.store_s),
            ("graph.grid_build", graph.grid_build_s),
        ],
    );

    // D. Warm restarts, untraced and traced in turn.
    let warm = restarts(
        &mut ledger,
        args,
        points,
        &reference,
        &cache_dir,
        true,
        |k, _| k < TRACED_RESTARTS,
    )?;
    let traced_runs: Vec<&Restart> = warm
        .iter()
        .filter(|(traced, _)| *traced)
        .map(|(_, r)| r)
        .collect();
    let plain_walls: Vec<f64> = warm
        .iter()
        .filter(|(traced, _)| !*traced)
        .map(|(_, r)| r.wall_s)
        .collect();
    let traced_walls: Vec<f64> = traced_runs.iter().map(|r| r.wall_s).collect();
    let child_sum = |r: &Restart, name: &str| {
        r.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.nanos())
            .sum::<u64>() as f64
            / 1e9
    };
    let per_restart =
        |f: &dyn Fn(&Restart) -> f64| median(&traced_runs.iter().map(|r| f(r)).collect::<Vec<_>>());
    let parts = [
        "graph.dataset_load",
        "graph.grid_load",
        "core.build_session",
        "core.evaluate_scenario",
    ];
    let mut table: Vec<(&str, f64)> = parts
        .iter()
        .map(|&name| (name, per_restart(&|r| child_sum(r, name))))
        .collect();
    table.push((
        "process start, exit and the rest",
        per_restart(&|r| r.wall_s - parts.iter().map(|name| child_sum(r, name)).sum::<f64>()),
    ));
    let all: Vec<&Restart> = warm.iter().map(|(_, r)| r).collect();
    let med = |f: &dyn Fn(&Restart) -> f64| median(&all.iter().map(|r| f(r)).collect::<Vec<_>>());
    m.push(("graph.dataset_load_s", table[0].1, "s"));
    m.push(("graph.grid_load_s", table[1].1, "s"));
    m.push((
        "graph.datasets_loaded",
        med(&|r| r.datasets_loaded as f64),
        "count",
    ));
    m.push((
        "graph.grids_loaded",
        med(&|r| r.grids_loaded as f64),
        "count",
    ));
    m.push((
        "os.minor_faults",
        med(&|r| r.usage.minor_faults as f64),
        "count",
    ));
    m.push(("os.user_s", med(&|r| r.usage.user_s), "s"));
    m.push(("os.sys_s", med(&|r| r.usage.sys_s), "s"));
    let traced_wall = median(&traced_walls);
    share_table("warm restart (s)", traced_wall, &table);
    if args.workload == Workload::ProductsRestart {
        overhead = Some((traced_wall / median(&plain_walls) - 1.0) * 100.0);
    }
    for r in &traced_runs {
        t.graft(&r.spans, r.spawned);
    }

    // E. The serving front end.
    let expected: Vec<Expected> = results.iter().map(Expected::of).collect();
    let probe = serve_probe(&mut t, &mut ledger, args, points, &expected, &cache_dir)?;
    m.extend(probe.metrics);
    if args.workload == Workload::ServeClosed {
        overhead = Some((probe.traced_p50 / probe.plain_p50 - 1.0) * 100.0);
    }
    m.push((
        "trace.overhead_pct",
        overhead.expect("every workload measures its overhead"),
        "%",
    ));

    let path =
        base_dir()
            .join("traces")
            .join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
    t.write(&path, SPANS_WRITTEN)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "spans: {} recorded, the first {} written to {}",
        t.spans().len(),
        t.spans().len().min(SPANS_WRITTEN),
        path.display()
    );
    println!(
        "{:<24} {:>9} {:>14} {:>14}",
        "span", "count", "total_s", "self_s"
    );
    for (name, s) in t.summary_from(0) {
        println!(
            "{name:<24} {:>9} {:>14.6} {:>14.6}",
            s.count,
            s.total_ns as f64 / 1e9,
            s.self_ns as f64 / 1e9
        );
    }
    m.sort_by(|a, b| a.0.cmp(b.0));
    for (name, value, unit) in &m {
        println!("{name:<28} {value:>16.4} {unit}");
    }
    Ok(report(ledger, m))
}

/// One point through every public seam of the evaluation path: `run_one`,
/// `evaluate_scenario` on the warm session, and separately the compile,
/// `Simulator::execute` and baseline estimate that `evaluate_scenario`
/// performs inside.
fn attribute_point(
    t: &mut Tracer,
    ledger: &mut Ledger,
    runner: &SweepRunner,
    scenario: &ScenarioSpec,
    want: &ScenarioResult,
) -> Result<(), String> {
    let err = |e: gnnerator::GnneratorError| format!("{}: {e}", scenario.label());
    let result = t
        .span("sweep.run_one", |_| runner.run_one(scenario))
        .map_err(err)?;
    ledger.op(&result == want, || {
        format!("run_one of {} differs from set-up", scenario.label())
    });
    let session = runner.session(scenario).map_err(err)?;
    t.span("core.evaluate_scenario", |_| {
        evaluate_scenario(scenario, &session)
    })
    .map_err(err)?;
    if scenario.backend.is_accelerator() {
        let compiled = t
            .span("core.compile", |_| {
                session.compile(&scenario.config, scenario.dataflow)
            })
            .map_err(err)?;
        let report = t
            .span("core.simulate", |_| Simulator::execute(&compiled))
            .map_err(err)?;
        ledger.op(want.report.as_ref() == Some(&report), || {
            format!(
                "Simulator::execute of {} differs from set-up",
                scenario.label()
            )
        });
        t.span("baselines.estimate", |_| {
            BaselineSeconds::estimate(&session)
        })
        .map_err(err)?;
    } else {
        let backend: Box<dyn Backend> = match scenario.backend {
            BackendKind::GpuRoofline => Box::new(GpuRooflineBackend::rtx_2080_ti()),
            _ => Box::new(HygcnBackend::for_dataset(scenario.dataset.name)),
        };
        t.span("baselines.estimate", |_| {
            backend.evaluate(session.model(), session.num_nodes(), session.num_edges())
        })
        .map_err(|e| format!("{}: {e}", scenario.label()))?;
    }
    Ok(())
}

struct GraphTimes {
    rmat_s: f64,
    synthesize_s: f64,
    store_s: f64,
    grid_build_s: f64,
}

/// The cold graph path call by call: `rmat_exact`, `DatasetSpec::synthesize`
/// and `ArtifactCache::store_dataset` per distinct dataset, then the first
/// `SimSession::compile` per (session, dataflow), which builds and stores
/// the shard grids.
fn graph_attribution(t: &mut Tracer, points: &[Point], dir: &Path) -> Result<GraphTimes, String> {
    let mark = t.spans().len();
    let cache = Arc::new(ArtifactCache::new(dir));
    let mut datasets = HashMap::new();
    for p in points {
        let (spec, seed) = (p.scenario.dataset, p.scenario.seed);
        if datasets.contains_key(&(spec, seed)) {
            continue;
        }
        let edges = t.span("graph.rmat", |_| {
            generators::rmat_exact(spec.vertices, spec.edges, seed)
        });
        drop(edges.map_err(|e| e.to_string())?);
        let dataset = t
            .span("graph.synthesize", |_| spec.synthesize(seed))
            .map_err(|e| e.to_string())?;
        t.span("graph.dataset_store", |_| cache.store_dataset(&dataset))
            .map_err(|e| e.to_string())?;
        datasets.insert((spec, seed), dataset);
    }
    let mut sessions = HashMap::new();
    let mut compiled = HashSet::new();
    for p in points
        .iter()
        .filter(|p| p.scenario.backend.is_accelerator())
    {
        let key = p.scenario.session_key();
        let session = match sessions.entry(key) {
            Entry::Occupied(entry) => entry.into_mut(),
            Entry::Vacant(entry) => {
                let dataset = &datasets[&(p.scenario.dataset, p.scenario.seed)];
                entry.insert(
                    gnnerator::build_session(&p.scenario, dataset, Some(&cache))
                        .map_err(|e| e.to_string())?,
                )
            }
        };
        if compiled.insert((key, p.scenario.dataflow)) {
            t.span("graph.grid_build", |_| {
                session.compile(&p.scenario.config, p.scenario.dataflow)
            })
            .map_err(|e| e.to_string())?;
        }
    }
    let stats = t.summary_from(mark);
    Ok(GraphTimes {
        rmat_s: sum_ns(&stats, "graph.rmat") / 1e9,
        synthesize_s: sum_ns(&stats, "graph.synthesize") / 1e9,
        store_s: sum_ns(&stats, "graph.dataset_store") / 1e9,
        grid_build_s: sum_ns(&stats, "graph.grid_build") / 1e9,
    })
}

struct ServeProbe {
    metrics: Vec<(&'static str, f64, &'static str)>,
    plain_p50: f64,
    traced_p50: f64,
}

/// The serving layers from outside: `/healthz` round trips, request
/// decoding and pool lookups called directly, then a closed `/simulate`
/// loop (untraced half, traced half) bracketed by `/metrics` scrapes.
fn serve_probe(
    t: &mut Tracer,
    ledger: &mut Ledger,
    args: &Args,
    points: &[Point],
    expected: &[Expected],
    cache_dir: &Path,
) -> Result<ServeProbe, String> {
    // serve-closed measures the server exactly as its end-to-end run does
    // (no artifact cache); elsewhere the server loads the run's warm cache
    // instead of re-synthesising large graphs.
    let cache =
        (args.workload != Workload::ServeClosed).then(|| Arc::new(ArtifactCache::new(cache_dir)));
    let server = serving::start(cache.clone())?;
    let mut conn = ClientConnection::new(server.local_addr());
    let wrong = serving::prewarm(&mut conn, points, expected)?;
    ledger.op(wrong == 0, || {
        format!("{wrong} prewarm responses were wrong")
    });

    let mut healthz = Vec::with_capacity(HEALTHZ_PROBES);
    for _ in 0..HEALTHZ_PROBES {
        let t0 = Instant::now();
        let response = t.span("serve.healthz", |_| conn.get("/healthz"));
        healthz.push(micros(t0.elapsed()));
        ledger.op(matches!(&response, Ok(r) if r.status == 200), || {
            "GET /healthz failed".to_string()
        });
    }

    let mark = t.spans().len();
    let start = Instant::now();
    let mut decoded = 0usize;
    while decoded == 0 || start.elapsed().as_secs_f64() < 0.25 {
        for p in points {
            let scenario = t.span("serve.decode", |_| {
                Json::parse(&p.body)
                    .ok_or_else(|| "bad JSON".to_string())
                    .and_then(|j| scenario_from_json(&j))
            });
            ledger.op(scenario.as_ref() == Ok(&p.scenario), || {
                format!("decoding {} failed", p.body)
            });
            decoded += 1;
        }
    }
    let decode_us = sum_ns(&t.summary_from(mark), "serve.decode") / decoded as f64 / 1e3;

    let pool = SessionPool::new(points.len(), cache);
    for p in points {
        pool.get(&p.scenario)
            .map_err(|e| format!("warming the pool: {e}"))?;
    }
    let mark = t.spans().len();
    let start = Instant::now();
    let mut lookups = 0usize;
    while lookups == 0 || start.elapsed().as_secs_f64() < 0.25 {
        for p in points {
            let hit = t.span("serve.pool_get", |_| pool.get(&p.scenario));
            ledger.op(matches!(&hit, Ok(l) if l.reused), || {
                "SessionPool::get missed a warm key".to_string()
            });
            lookups += 1;
        }
    }
    let pool_get_us = sum_ns(&t.summary_from(mark), "serve.pool_get") / lookups as f64 / 1e3;
    drop(pool);

    let seconds = if args.workload == Workload::ServeClosed {
        args.seconds
    } else {
        SERVE_PROBE_SECONDS
    };
    let order = loop_order(args.seed, points.len());
    let before = Scrape::take(&mut conn)?;
    let plain = request_loop(
        ledger,
        &mut conn,
        &order,
        points,
        expected,
        seconds / 2.0,
        None,
    )
    .latencies_us;
    let spanned = request_loop(
        ledger,
        &mut conn,
        &order,
        points,
        expected,
        seconds / 2.0,
        Some(t),
    )
    .latencies_us;
    let after = Scrape::take(&mut conn)?;
    drop(conn);
    server.shutdown();

    let plain_p50 = quantile(&plain, 0.5);
    let traced_p50 = quantile(&spanned, 0.5);
    let queue = delta_mean_us(before.queue_wait, after.queue_wait);
    let evaluate = delta_mean_us(before.evaluate, after.evaluate);
    let serialize = delta_mean_us(before.serialize, after.serialize);
    let passes = (after.batches - before.batches) + (after.solo - before.solo);
    let served = (after.batched - before.batched) + (after.solo - before.solo);
    let frontend = plain_p50 - queue - evaluate - serialize;
    share_table(
        "request p50 (us)",
        plain_p50,
        &[
            ("serve.frontend (HTTP, JSON, hand-off)", frontend),
            ("serve.queue_wait", queue),
            ("serve.evaluate", evaluate),
            ("serve.serialize", serialize),
        ],
    );
    println!(
        "healthz samples {}, request samples {} + {}",
        healthz.len(),
        plain.len(),
        spanned.len()
    );
    Ok(ServeProbe {
        metrics: vec![
            ("serve.healthz_p50_us", median(&healthz), "us"),
            ("serve.decode_us", decode_us, "us"),
            ("serve.pool_get_us", pool_get_us, "us"),
            ("serve.queue_wait_us", queue, "us"),
            ("serve.evaluate_us", evaluate, "us"),
            ("serve.serialize_us", serialize, "us"),
            (
                "serve.session_build_us",
                delta_mean_us((0.0, 0.0), after.session_build),
                "us",
            ),
            (
                "serve.batch_mean",
                if passes > 0.0 { served / passes } else { 0.0 },
                "ratio",
            ),
            ("serve.frontend_us", frontend, "us"),
            ("serve.errors", after.errors - before.errors, "count"),
            ("serve.shed", after.shed - before.shed, "count"),
        ],
        plain_p50,
        traced_p50,
    })
}

/// Prints how a blocking time splits across layers.
fn share_table(title: &str, total: f64, parts: &[(&str, f64)]) {
    println!("{title}: total {total:.4}");
    for (name, value) in parts {
        println!(
            "  {name:<40} {value:>14.4}  {:>6.1}%",
            value / total * 100.0
        );
    }
}
