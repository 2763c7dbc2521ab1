//! Load generator for the serving API.
//!
//! Starts an in-process [`SessionServer`], warms its session pool, then
//! measures four ways of answering the same mixed-backend request stream:
//!
//! 1. **cold replay** — no server: every request is evaluated on the
//!    one-shot path ([`one_shot_evaluation`]), the way the harness answered
//!    one-shot questions before the serving layer (the same path and
//!    convention `BENCH_sweep.json`'s `serial_seconds` uses: dataset edges
//!    are pre-materialised and shared, sharding is paid per request);
//! 2. **serial HTTP, connection per request** — one client replaying the
//!    stream with a fresh `Connection: close` socket each time (the PR-5
//!    serving path);
//! 3. **serial HTTP, keep-alive** — the same stream on one persistent
//!    connection, isolating what connection reuse buys;
//! 4. **concurrent HTTP** — the stream split over N keep-alive clients.
//!
//! Per-request latencies are recorded client-side and reported as exact
//! sorted percentiles (p50/p95/p99) at full float precision. With `--soak`,
//! a fifth phase drives hundreds of concurrent keep-alive connections with
//! overlapping session keys through the admission queue, asserting zero
//! 5xx, `Retry-After` on every shed `429` and a bounded queue, and records
//! sustained rps, latency percentiles, the batch-size distribution and the
//! shed rate. With `--chaos`, a sixth phase arms deterministic faults
//! (`gnnerator-faults`) against the live server — eval-worker panics plus a
//! cold-build failure that trips the session circuit breaker — and asserts
//! graceful degradation: every request answered with a typed status (zero
//! hangs), bounded p99, panicked workers respawned, breaker trips visible
//! in `/stats`; then clears the faults and asserts full recovery (error
//! rate back to zero, `/readyz` green, served results bit-identical to the
//! sweep path). When a `BENCH_sweep.json` from `all_experiments` is
//! present, a `"serving"` section is appended (idempotently, replacing any
//! previous one).
//!
//! Usage: `cargo run -p gnnerator-bench --release --bin serve_bench -- \
//!     [--clients 4] [--requests 6] [--scale 0.25] [--require-speedup] \
//!     [--soak] [--chaos] [--connections 200] [--soak-requests 30] \
//!     [--queue-depth 256]`
//!
//! [`SessionPool`]: gnnerator_serve::SessionPool
//! [`SessionServer`]: gnnerator_serve::SessionServer

use gnnerator::{build_session, evaluate_scenario, ScenarioSpec};
use gnnerator_bench::suite::scale_from_args;
use gnnerator_bench::sweep_report::one_shot_evaluation;
use gnnerator_graph::datasets::Dataset;
use gnnerator_serve::{
    client, client::ClientConnection, scenario_from_json, Json, ServeConfig, SessionServer,
};
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// The benchmark's request mix: both paper datasets' GCN workloads on every
/// backend, so one run exercises accelerator simulation and both analytical
/// baselines through the same front door. Backends share session keys per
/// dataset, so concurrently queued requests coalesce under load.
fn request_bodies(scale: f64) -> Vec<String> {
    let mut bodies = Vec::new();
    for dataset in ["cora", "citeseer"] {
        for backend in ["gnnerator", "gpu-roofline", "hygcn"] {
            bodies.push(format!(
                "{{\"dataset\": \"{dataset}\", \"network\": \"gcn\", \"backend\": \"{backend}\", \
                 \"scale\": {scale}, \"seed\": 42}}"
            ));
        }
    }
    bodies
}

fn check_point(body: &str) -> Json {
    let point = Json::parse(body).expect("response is JSON");
    let seconds = point
        .get("seconds")
        .and_then(Json::as_f64)
        .expect("response carries seconds");
    assert!(seconds.is_finite() && seconds > 0.0, "degenerate point");
    point
}

/// One request on a fresh `Connection: close` socket (the PR-5 path);
/// returns the client-observed wall latency.
fn send_close(addr: SocketAddr, body: &str) -> f64 {
    let started = Instant::now();
    let response = client::post(addr, "/simulate", body).expect("request failed");
    let latency = started.elapsed().as_secs_f64();
    assert!(
        response.is_ok(),
        "server answered {}: {}",
        response.status,
        response.body
    );
    check_point(&response.body);
    latency
}

/// One request on a pooled keep-alive connection; returns the
/// client-observed wall latency and the server-reported batch size.
fn send_keepalive(connection: &mut ClientConnection, body: &str) -> (f64, u64) {
    let started = Instant::now();
    let response = connection.post("/simulate", body).expect("request failed");
    let latency = started.elapsed().as_secs_f64();
    assert!(
        response.is_ok(),
        "server answered {}: {}",
        response.status,
        response.body
    );
    let point = check_point(&response.body);
    let batch_size = point.get("batch_size").and_then(Json::as_u64).unwrap_or(1);
    (latency, batch_size)
}

/// Exact percentile over a sorted sample set (nearest-rank).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Full-precision float rendering (shortest round-trip form, `null` for
/// non-finite) — no fixed-point truncation that would flatten microsecond
/// latencies to zero.
fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// `{"mean": ..., "p50": ..., "p95": ..., "p99": ...}` over raw samples.
fn latency_json(samples: &mut [f64]) -> String {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let mean = if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    };
    format!(
        "{{\"mean_seconds\": {}, \"p50_seconds\": {}, \"p95_seconds\": {}, \"p99_seconds\": {}}}",
        num(mean),
        num(percentile(samples, 0.50)),
        num(percentile(samples, 0.95)),
        num(percentile(samples, 0.99)),
    )
}

fn flag(args: &[String], name: &str, default: usize) -> usize {
    args.windows(2)
        .find(|w| w[0] == name)
        .and_then(|w| w[1].parse().ok())
        .unwrap_or(default)
}

struct SoakOutcome {
    section: String,
    sustained_rps: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let clients = flag(&args, "--clients", 4).max(1);
    let requests_per_client = flag(&args, "--requests", 6).max(1);
    let scale = scale_from_args(args.iter().cloned());
    let require_speedup = args.iter().any(|a| a == "--require-speedup");
    let soak = args.iter().any(|a| a == "--soak");
    let chaos = args.iter().any(|a| a == "--chaos");
    let soak_connections = flag(&args, "--connections", 200).max(1);
    let soak_requests = flag(&args, "--soak-requests", 30).max(1);
    let queue_depth = flag(&args, "--queue-depth", 256).max(1);

    let bodies = request_bodies(scale);
    let scenarios: Vec<ScenarioSpec> = bodies
        .iter()
        .map(|body| {
            scenario_from_json(&Json::parse(body).expect("request mix is valid JSON"))
                .expect("request mix maps to scenarios")
        })
        .collect();
    let total_requests = clients * requests_per_client;

    // Cold replay baseline: pre-materialise datasets (identical work either
    // way, excluded from the timing — the BENCH_sweep convention), then shard
    // from scratch per request.
    let mut datasets: HashMap<(String, u64), Dataset> = HashMap::new();
    for scenario in &scenarios {
        datasets
            .entry((scenario.dataset.name.to_string(), scenario.seed))
            .or_insert_with(|| {
                scenario
                    .dataset
                    .synthesize(scenario.seed)
                    .expect("request-mix datasets synthesise")
            });
    }
    let start = Instant::now();
    for i in 0..total_requests {
        let scenario = &scenarios[i % scenarios.len()];
        let dataset = &datasets[&(scenario.dataset.name.to_string(), scenario.seed)];
        one_shot_evaluation(scenario, dataset).expect("cold evaluation failed");
    }
    let cold_seconds = start.elapsed().as_secs_f64();

    // The warm server under test.
    let server = SessionServer::start(
        "127.0.0.1:0",
        ServeConfig {
            workers: clients,
            queue_depth,
            ..ServeConfig::default()
        },
    )
    .expect("failed to start server");
    let addr = server.local_addr();
    println!(
        "serve_bench: server on {addr}, {clients} clients x {requests_per_client} requests, scale {scale}"
    );

    // Warm the pool: after this, the steady state pays evaluation only.
    let warm_start = Instant::now();
    for body in &bodies {
        send_close(addr, body);
    }
    let warm_seconds = warm_start.elapsed().as_secs_f64();
    println!(
        "warm-up: {} distinct scenarios in {warm_seconds:.3}s",
        bodies.len()
    );

    // Serial HTTP replay, fresh connection per request (the PR-5 path).
    let start = Instant::now();
    let mut close_latencies: Vec<f64> = Vec::with_capacity(total_requests);
    for i in 0..total_requests {
        close_latencies.push(send_close(addr, &bodies[i % bodies.len()]));
    }
    let serial_close_seconds = start.elapsed().as_secs_f64();

    // Serial HTTP replay, one keep-alive connection.
    let mut connection = ClientConnection::new(addr);
    let start = Instant::now();
    let mut serial_latencies: Vec<f64> = Vec::with_capacity(total_requests);
    for i in 0..total_requests {
        let (latency, _) = send_keepalive(&mut connection, &bodies[i % bodies.len()]);
        serial_latencies.push(latency);
    }
    let serial_seconds = start.elapsed().as_secs_f64();
    connection.close();

    // Concurrent HTTP replay: the same stream over N keep-alive clients.
    let start = Instant::now();
    let mut concurrent_latencies: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let bodies = &bodies;
                scope.spawn(move || {
                    let mut connection = ClientConnection::new(addr);
                    let mut latencies = Vec::with_capacity(requests_per_client);
                    for i in 0..requests_per_client {
                        let body = &bodies[(c * requests_per_client + i) % bodies.len()];
                        let (latency, _) = send_keepalive(&mut connection, body);
                        latencies.push(latency);
                    }
                    latencies
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let concurrent_seconds = start.elapsed().as_secs_f64();

    let cold_rps = total_requests as f64 / cold_seconds.max(1e-12);
    let serial_close_rps = total_requests as f64 / serial_close_seconds.max(1e-12);
    let serial_rps = total_requests as f64 / serial_seconds.max(1e-12);
    let concurrent_rps = total_requests as f64 / concurrent_seconds.max(1e-12);
    let speedup_vs_cold = concurrent_rps / cold_rps.max(1e-12);
    let keepalive_vs_close = serial_rps / serial_close_rps.max(1e-12);
    let client_pipelining = concurrent_rps / serial_rps.max(1e-12);

    // The soak phase runs against the same warm server before shutdown.
    let soak_outcome = if soak {
        Some(run_soak(
            addr,
            &bodies,
            soak_connections,
            soak_requests,
            serial_close_rps,
        ))
    } else {
        None
    };

    // The chaos phase deliberately runs after the soak so fault-era metrics
    // never contaminate the healthy-path numbers above.
    let chaos_section = if chaos {
        Some(run_chaos(
            addr,
            &bodies,
            &scenarios,
            &datasets,
            soak_connections,
            soak_requests,
            scale,
        ))
    } else {
        None
    };

    let stats = client::get(addr, "/stats")
        .expect("stats request failed")
        .json()
        .expect("stats are JSON");
    let pool = stats.get("pool").expect("stats carry a pool section");
    let pool_count = |key: &str| pool.get(key).and_then(Json::as_u64).unwrap_or(0);
    let (hits, misses, built) = (
        pool_count("hits"),
        pool_count("misses"),
        pool_count("sessions_built"),
    );
    server.shutdown();

    println!(
        "cold replay (one-shot path per request):   {total_requests} requests in {cold_seconds:.3}s ({cold_rps:.1} req/s)"
    );
    println!(
        "serial HTTP, connection per request:       {total_requests} requests in {serial_close_seconds:.3}s ({serial_close_rps:.1} req/s)"
    );
    println!(
        "serial HTTP, keep-alive:                   {total_requests} requests in {serial_seconds:.3}s ({serial_rps:.1} req/s)"
    );
    println!(
        "concurrent HTTP ({clients} keep-alive clients): {total_requests} requests in {concurrent_seconds:.3}s ({concurrent_rps:.1} req/s)"
    );
    println!("concurrent server vs cold serial replay: {speedup_vs_cold:.2}x");
    println!("keep-alive vs connection-per-request:    {keepalive_vs_close:.2}x");
    println!("client pipelining (concurrent vs serial HTTP): {client_pipelining:.2}x");
    println!("pool: {hits} hits / {misses} misses, {built} sessions built");
    assert_eq!(
        built as usize,
        bodies.len() / 3,
        "steady state must reuse warm sessions (one per dataset-model pair)"
    );

    let soak_section = soak_outcome
        .as_ref()
        .map(|s| s.section.clone())
        .unwrap_or_else(|| "null".to_string());
    let chaos_json = chaos_section.unwrap_or_else(|| "null".to_string());
    let section = format!(
        "{{\"clients\": {clients}, \"requests_per_client\": {requests_per_client}, \
         \"total_requests\": {total_requests}, \"scale\": {scale}, \
         \"warmup_seconds\": {}, \"cold_replay_seconds\": {}, \
         \"serial_close_seconds\": {}, \"serial_seconds\": {}, \"concurrent_seconds\": {}, \
         \"cold_replay_rps\": {}, \"serial_close_rps\": {}, \"serial_rps\": {}, \
         \"concurrent_rps\": {}, \"speedup_vs_cold_replay\": {}, \
         \"keepalive_vs_close\": {}, \"client_pipelining\": {}, \
         \"serial_close_latency\": {}, \"serial_latency\": {}, \"concurrent_latency\": {}, \
         \"pool_hits\": {hits}, \"pool_misses\": {misses}, \"sessions_built\": {built}, \
         \"soak\": {soak_section}, \"chaos\": {chaos_json}}}",
        num(warm_seconds),
        num(cold_seconds),
        num(serial_close_seconds),
        num(serial_seconds),
        num(concurrent_seconds),
        num(cold_rps),
        num(serial_close_rps),
        num(serial_rps),
        num(concurrent_rps),
        num(speedup_vs_cold),
        num(keepalive_vs_close),
        num(client_pipelining),
        latency_json(&mut close_latencies),
        latency_json(&mut serial_latencies),
        latency_json(&mut concurrent_latencies),
    );
    match append_serving_section("BENCH_sweep.json", &section) {
        Ok(true) => println!("appended serving section to BENCH_sweep.json"),
        Ok(false) => println!("BENCH_sweep.json not found; serving section not persisted"),
        Err(e) => println!("could not update BENCH_sweep.json: {e}"),
    }

    if require_speedup {
        if speedup_vs_cold <= 1.0 {
            eprintln!(
                "FAIL: concurrent server throughput ({concurrent_rps:.1} req/s) did not exceed \
                 the cold serial replay ({cold_rps:.1} req/s)"
            );
            std::process::exit(1);
        }
        if let Some(soak) = &soak_outcome {
            if soak.sustained_rps <= serial_close_rps {
                eprintln!(
                    "FAIL: soak sustained throughput ({:.1} req/s) did not exceed the \
                     connection-per-request path ({serial_close_rps:.1} req/s)",
                    soak.sustained_rps
                );
                std::process::exit(1);
            }
        }
    }
}

/// Drives `connections` concurrent keep-alive clients, each replaying
/// `requests` mixed-session-key requests, through the admission queue.
/// Panics on any 5xx, on a shed response without `Retry-After`, and on an
/// unbounded queue. Returns the JSON soak summary.
fn run_soak(
    addr: SocketAddr,
    bodies: &[String],
    connections: usize,
    requests: usize,
    close_baseline_rps: f64,
) -> SoakOutcome {
    println!("soak: {connections} keep-alive connections x {requests} requests");
    let start = Instant::now();
    let per_connection: Vec<(Vec<f64>, Vec<u64>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                scope.spawn(move || {
                    let mut connection = ClientConnection::new(addr);
                    let mut latencies = Vec::with_capacity(requests);
                    let mut batch_sizes = Vec::with_capacity(requests);
                    let mut shed = 0u64;
                    for i in 0..requests {
                        let body = &bodies[(c + i) % bodies.len()];
                        let started = Instant::now();
                        let response = connection
                            .post("/simulate", body)
                            .expect("soak request failed");
                        match response.status {
                            200 => {
                                let point = check_point(&response.body);
                                latencies.push(started.elapsed().as_secs_f64());
                                batch_sizes.push(
                                    point.get("batch_size").and_then(Json::as_u64).unwrap_or(1),
                                );
                            }
                            429 => {
                                assert_eq!(
                                    response.header("retry-after"),
                                    Some("1"),
                                    "shed responses must carry Retry-After"
                                );
                                shed += 1;
                            }
                            status => {
                                assert!(
                                    status < 500,
                                    "soak hit a 5xx ({status}): {}",
                                    response.body
                                );
                                panic!("unexpected soak status {status}: {}", response.body);
                            }
                        }
                    }
                    (latencies, batch_sizes, shed)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let duration = start.elapsed().as_secs_f64();

    let mut latencies: Vec<f64> = Vec::new();
    let mut batch_counts: BTreeMap<u64, u64> = BTreeMap::new();
    let mut shed = 0u64;
    for (connection_latencies, batch_sizes, connection_shed) in per_connection {
        latencies.extend(connection_latencies);
        for size in batch_sizes {
            *batch_counts.entry(size).or_insert(0) += 1;
        }
        shed += connection_shed;
    }
    let total = (connections * requests) as u64;
    let ok = total - shed;
    let sustained_rps = ok as f64 / duration.max(1e-12);
    let shed_rate = shed as f64 / total as f64;
    let observed_max_batch = batch_counts.keys().max().copied().unwrap_or(0);

    // The queue must have stayed bounded, and the server's shed counter
    // must agree with the 429s clients saw.
    let stats = client::get(addr, "/stats")
        .expect("stats request failed")
        .json()
        .expect("stats are JSON");
    let admission = stats.get("admission").expect("admission section");
    let count = |key: &str| admission.get(key).and_then(Json::as_u64).unwrap_or(0);
    let queue_capacity = count("queue_capacity");
    let peak_queue_depth = count("peak_queue_depth");
    assert!(
        peak_queue_depth <= queue_capacity,
        "queue depth exceeded its bound: {peak_queue_depth} > {queue_capacity}"
    );
    assert!(
        count("shed") >= shed,
        "server shed counter below client-observed 429s"
    );
    let batch = stats.get("batch").expect("batch section");
    let mean_batch_size = batch
        .get("mean_batch_size")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    if connections >= 8 {
        assert!(
            observed_max_batch >= 2,
            "overlapping-key soak never coalesced a batch"
        );
    }

    println!(
        "soak: {ok}/{total} ok in {duration:.3}s ({sustained_rps:.1} req/s sustained), \
         {shed} shed ({:.2}% shed rate), mean batch {mean_batch_size:.2}, max batch \
         {observed_max_batch}, peak queue depth {peak_queue_depth}/{queue_capacity}",
        shed_rate * 100.0
    );

    let batch_distribution = batch_counts
        .iter()
        .map(|(size, count)| format!("\"{size}\": {count}"))
        .collect::<Vec<_>>()
        .join(", ");
    let section = format!(
        "{{\"connections\": {connections}, \"requests_per_connection\": {requests}, \
         \"total_requests\": {total}, \"duration_seconds\": {}, \"sustained_rps\": {}, \
         \"close_baseline_rps\": {}, \"keepalive_vs_close\": {}, \"ok\": {ok}, \
         \"shed\": {shed}, \"shed_rate\": {}, \"latency\": {}, \
         \"mean_batch_size\": {}, \"max_batch_size\": {observed_max_batch}, \
         \"batch_size_counts\": {{{batch_distribution}}}, \
         \"peak_queue_depth\": {peak_queue_depth}, \"queue_capacity\": {queue_capacity}}}",
        num(duration),
        num(sustained_rps),
        num(close_baseline_rps),
        num(sustained_rps / close_baseline_rps.max(1e-12)),
        num(shed_rate),
        latency_json(&mut latencies),
        num(mean_batch_size),
    );
    SoakOutcome {
        section,
        sustained_rps,
    }
}

/// Chaos soak against the live server: arms deterministic faults (eval
/// panics every 5th evaluation, every cold session build failing), drives
/// the same keep-alive admission path, and asserts graceful degradation —
/// every request answered with a typed status (zero hangs), `Retry-After`
/// on every backpressure response, bounded p99, panicked workers respawned
/// and breaker trips visible in `/stats`. Then clears the faults and
/// asserts full recovery: every retried request succeeds (error rate back
/// to zero), `/healthz` and `/readyz` are green, and served points are
/// bit-identical to the `SweepRunner::run_one` path. Returns the JSON
/// chaos summary.
fn run_chaos(
    addr: SocketAddr,
    bodies: &[String],
    scenarios: &[ScenarioSpec],
    datasets: &HashMap<(String, u64), Dataset>,
    connections: usize,
    requests: usize,
    scale: f64,
) -> String {
    // A session key no warm slot covers: while `session_build:error` is
    // armed every cold build of it fails, so repeated attempts trip the
    // per-key circuit breaker. Tiny scale keeps the (repeated, doomed)
    // dataset synthesis cheap.
    let doomed = format!(
        "{{\"dataset\": \"cora\", \"network\": \"gcn\", \"backend\": \"gnnerator\", \
         \"scale\": {}, \"seed\": 1043}}",
        num(scale.min(0.1)),
    );
    println!("chaos: arming faults, {connections} keep-alive connections x {requests} requests");
    // Injected worker panics are expected by the dozen — mute their
    // backtraces, but let any *real* panic (a failed assertion in a client
    // thread) print as usual.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let message = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !message.contains("injected panic at failpoint") {
            default_hook(info);
        }
    }));
    gnnerator_faults::configure("eval:panic@5,session_build:error", 7)
        .expect("chaos fault spec parses");

    let start = Instant::now();
    let per_connection: Vec<(Vec<f64>, [u64; 4])> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let (bodies, doomed) = (&bodies, &doomed);
                scope.spawn(move || {
                    let mut connection = ClientConnection::new(addr);
                    let mut latencies = Vec::with_capacity(requests);
                    // [ok, shed, injected 5xx, breaker rejections]
                    let mut tally = [0u64; 4];
                    for i in 0..requests {
                        let body = if i % 4 == 3 {
                            doomed.as_str()
                        } else {
                            bodies[(c + i) % bodies.len()].as_str()
                        };
                        let started = Instant::now();
                        let response = connection
                            .post("/simulate", body)
                            .expect("chaos request failed (hung or dropped connection)");
                        latencies.push(started.elapsed().as_secs_f64());
                        match response.status {
                            200 => {
                                check_point(&response.body);
                                tally[0] += 1;
                            }
                            429 => {
                                assert_eq!(
                                    response.header("retry-after"),
                                    Some("1"),
                                    "shed responses must carry Retry-After"
                                );
                                tally[1] += 1;
                            }
                            500 => {
                                assert!(
                                    response.body.contains("error"),
                                    "untyped 500 body: {}",
                                    response.body
                                );
                                tally[2] += 1;
                            }
                            503 => {
                                assert_eq!(
                                    response.header("retry-after"),
                                    Some("1"),
                                    "breaker rejections must carry Retry-After"
                                );
                                tally[3] += 1;
                            }
                            status => {
                                panic!("unaccounted chaos status {status}: {}", response.body)
                            }
                        }
                    }
                    (latencies, tally)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let duration = start.elapsed().as_secs_f64();

    let mut latencies: Vec<f64> = Vec::new();
    let mut totals = [0u64; 4];
    for (connection_latencies, tally) in per_connection {
        latencies.extend(connection_latencies);
        for (total, count) in totals.iter_mut().zip(tally) {
            *total += count;
        }
    }
    let [ok, shed, injected, rejected] = totals;
    let total = (connections * requests) as u64;
    // Every request returned with a status the arms above account for —
    // reaching this line at all is the zero-hangs proof.
    assert_eq!(ok + shed + injected + rejected, total);
    assert!(ok > 0, "chaos starved every request");
    assert!(injected > 0, "injected faults never surfaced a typed 5xx");
    assert!(
        rejected > 0,
        "repeated doomed builds never tripped the circuit breaker"
    );
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let p99 = percentile(&latencies, 0.99);
    assert!(
        p99 < 30.0,
        "chaos p99 unbounded: {p99:.3}s (injected faults must fail fast)"
    );

    // The server must have survived: every panicked worker respawned, the
    // breaker trips visible, nothing left wedged.
    let stats = client::get(addr, "/stats")
        .expect("stats request failed")
        .json()
        .expect("stats are JSON");
    let workers = stats.get("workers").expect("workers section");
    let worker_count = |key: &str| workers.get(key).and_then(Json::as_u64).unwrap_or(0);
    let (configured, alive) = (worker_count("configured"), worker_count("alive"));
    let (panics, respawns) = (worker_count("panics"), worker_count("respawns"));
    assert!(panics > 0, "eval:panic@5 never panicked a worker");
    assert!(respawns >= panics, "panicked workers were not respawned");
    assert_eq!(
        alive, configured,
        "worker pool did not recover to full size"
    );
    let pool = stats.get("pool").expect("pool section");
    let breaker_trips = pool
        .get("breaker_trips")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert!(breaker_trips > 0, "stats never recorded a breaker trip");

    println!(
        "chaos: {ok} ok / {shed} shed / {injected} injected 5xx / {rejected} breaker-rejected \
         of {total} in {duration:.3}s (p99 {p99:.3}s); {panics} worker panics, \
         {respawns} respawns, {breaker_trips} breaker trips"
    );

    // Recovery: clear the faults and replay the warm mix with the client's
    // deterministic retry policy — the error rate must return to zero and
    // served points must match the sweep path bit for bit.
    gnnerator_faults::clear();
    let _ = std::panic::take_hook(); // back to the default hook
    let policy = client::RetryPolicy::default();
    let recovery_requests = bodies.len() * 3;
    for i in 0..recovery_requests {
        let body = &bodies[i % bodies.len()];
        let response = client::request_with_retry(addr, "POST", "/simulate", body, policy)
            .expect("recovery request failed");
        assert_eq!(
            response.status, 200,
            "error rate did not return to zero after faults cleared: {} {}",
            response.status, response.body
        );
        let point = check_point(&response.body);
        if i < bodies.len() {
            let served = point
                .get("seconds")
                .and_then(Json::as_f64)
                .expect("served point carries seconds");
            let scenario = &scenarios[i % scenarios.len()];
            let dataset = &datasets[&(scenario.dataset.name.to_string(), scenario.seed)];
            let session = Arc::new(
                build_session(scenario, dataset, None).expect("recovery session build failed"),
            );
            let expected = evaluate_scenario(scenario, &session)
                .expect("recovery evaluation failed")
                .seconds();
            assert_eq!(
                served.to_bits(),
                expected.to_bits(),
                "served point diverged from SweepRunner::run_one after recovery \
                 ({served} != {expected})"
            );
        }
    }
    for probe in ["/healthz", "/readyz"] {
        let response = client::get(addr, probe).expect("probe request failed");
        assert_eq!(
            response.status, 200,
            "{probe} not green after recovery: {}",
            response.body
        );
    }
    println!(
        "chaos: recovered — {recovery_requests}/{recovery_requests} ok after clearing faults, \
         {} points bit-identical to the sweep path, probes green",
        bodies.len()
    );

    format!(
        "{{\"connections\": {connections}, \"requests_per_connection\": {requests}, \
         \"total_requests\": {total}, \"duration_seconds\": {}, \"ok\": {ok}, \
         \"shed\": {shed}, \"injected_5xx\": {injected}, \"breaker_rejections\": {rejected}, \
         \"latency\": {}, \"worker_panics\": {panics}, \"worker_respawns\": {respawns}, \
         \"breaker_trips\": {breaker_trips}, \"recovered_requests\": {recovery_requests}, \
         \"bit_identical_points\": {}}}",
        num(duration),
        latency_json(&mut latencies),
        bodies.len(),
    )
}

/// Splices (or replaces) the `"serving"` section into an existing
/// `BENCH_sweep.json`. Returns `Ok(false)` when the file does not exist.
fn append_serving_section(path: &str, section: &str) -> std::io::Result<bool> {
    const MARKER: &str = ",\n  \"serving\": ";
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(e),
    };
    // Re-runs replace the previous section instead of stacking duplicates.
    let base = match text.find(MARKER) {
        Some(i) => text[..i].to_string(),
        None => match text.trim_end().strip_suffix('}') {
            // Exactly one closing brace: stripping more would unbalance a
            // document whose points array abuts the top-level close.
            Some(without_close) => without_close.trim_end().to_string(),
            None => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "BENCH_sweep.json does not end with a JSON object",
                ));
            }
        },
    };
    std::fs::write(path, format!("{base}{MARKER}{section}\n}}\n"))?;
    Ok(true)
}
