//! Robustness guarantees of the serving layer under injected faults: a
//! panicking eval worker answers its in-flight jobs with a typed `500` and
//! is respawned (and the poisoned locks it leaves behind never wedge later
//! requests — the regression test for replacing `lock().expect(...)` with
//! poison-recovering helpers); `/readyz` flips unready while the admission
//! queue is full; queued requests past their `X-Deadline-Ms` are answered
//! `503` without being evaluated; and repeated cold-build failures trip the
//! per-key circuit breaker, which `/metrics` reports while it is open and
//! which re-closes after its backoff window.
//!
//! Every test arms the process-global `gnnerator-faults` registry, so they
//! serialise on one mutex and clear the registry on entry.

use gnnerator::SweepRunner;
use gnnerator_serve::client::{self, ClientResponse};
use gnnerator_serve::{scenario_from_json, BreakerConfig, Json, ServeConfig, SessionServer};
use std::net::SocketAddr;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Serialises tests that touch the process-global fault registry.
fn fault_guard() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    let guard = gnnerator_faults::lock_recover(&GUARD);
    gnnerator_faults::clear();
    guard
}

/// A tiny scaled-down request so the suite stays fast.
fn body(seed: u64) -> String {
    format!(
        "{{\"dataset\": \"cora\", \"network\": \"gcn\", \"backend\": \"gnnerator\", \
         \"scale\": 0.03, \"seed\": {seed}, \"hidden_dim\": 8, \"out_dim\": 4}}"
    )
}

/// Asserts a served point is bit-identical to `SweepRunner::run_one` on
/// the same request: the server recovered without corrupting its sessions.
fn assert_matches_run_one(request: &str, response: &ClientResponse) {
    let scenario = scenario_from_json(&Json::parse(request).unwrap()).unwrap();
    let reference = SweepRunner::new().run_one(&scenario).unwrap();
    let point = response.json().expect("point JSON");
    assert_eq!(
        point
            .get("seconds")
            .and_then(Json::as_f64)
            .map(f64::to_bits),
        Some(reference.seconds().to_bits()),
        "{}",
        response.body
    );
    assert_eq!(
        point.get("total_cycles").and_then(Json::as_u64),
        reference.evaluation.total_cycles
    );
}

fn start_server(config: ServeConfig) -> (SessionServer, SocketAddr) {
    let server =
        SessionServer::start("127.0.0.1:0", config).expect("server starts on an ephemeral port");
    let addr = server.local_addr();
    (server, addr)
}

fn stats(addr: SocketAddr) -> Json {
    client::get(addr, "/stats")
        .expect("stats request succeeds")
        .json()
        .expect("stats are JSON")
}

fn stat_u64(stats: &Json, section: &str, key: &str) -> u64 {
    stats
        .get(section)
        .and_then(|s| s.get(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing stats field {section}.{key}"))
}

/// Mutes the backtraces of *injected* worker panics (they are the test's
/// point, and there are many); every other panic prints as usual.
fn mute_injected_panics() {
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
}

#[test]
fn panicked_workers_answer_500_and_are_respawned() {
    let _guard = fault_guard();
    let (server, addr) = start_server(ServeConfig {
        workers: 2,
        pool_capacity: 4,
        ..ServeConfig::default()
    });
    let warm = body(9);
    let response = client::post(addr, "/simulate", &warm).expect("warm-up succeeds");
    assert_eq!(response.status, 200, "{}", response.body);

    mute_injected_panics();
    gnnerator_faults::configure("eval:panic@2", 0).unwrap();
    // Sequential requests against a warm session: evaluation hits 1..=6,
    // every 2nd one panics its worker mid-batch. The in-flight job must be
    // answered with a typed 500 — never left hanging — and the worker
    // respawned before the next request.
    let mut statuses = Vec::new();
    for _ in 0..6 {
        let started = Instant::now();
        let response = client::post(addr, "/simulate", &warm).expect("request answered, not hung");
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "an injected panic must fail fast"
        );
        if response.status == 500 {
            assert!(
                response.body.contains("worker panicked"),
                "untyped 500: {}",
                response.body
            );
        } else {
            assert_eq!(response.status, 200, "{}", response.body);
        }
        statuses.push(response.status);
    }
    assert!(statuses.contains(&500), "eval:panic@2 never surfaced a 500");
    assert!(
        statuses.contains(&200),
        "every request failed; workers were not respawned between panics"
    );

    // Recovery: with the faults cleared, the server serves — and its stats
    // endpoint works — despite every mutex the panicking workers poisoned.
    // (The regression test for poison-recovering locks: before them, the
    // first panic wedged the queue and metrics for every later request.)
    gnnerator_faults::clear();
    let _ = std::panic::take_hook();
    let response = client::post(addr, "/simulate", &warm).expect("post-recovery request");
    assert_eq!(response.status, 200, "{}", response.body);
    assert_matches_run_one(&warm, &response);
    let stats = stats(addr);
    let panics = stat_u64(&stats, "workers", "panics");
    assert!(panics > 0, "worker panics were not counted");
    assert_eq!(stat_u64(&stats, "workers", "respawns"), panics);
    assert_eq!(
        stat_u64(&stats, "workers", "alive"),
        stat_u64(&stats, "workers", "configured"),
        "worker pool did not recover to full strength"
    );
    server.shutdown();
}

#[test]
fn readyz_flips_unready_while_the_queue_is_full() {
    let _guard = fault_guard();
    let (server, addr) = start_server(ServeConfig {
        workers: 1,
        queue_depth: 1,
        pool_capacity: 4,
        ..ServeConfig::default()
    });
    let warm = body(11);
    let response = client::post(addr, "/simulate", &warm).expect("warm-up succeeds");
    assert_eq!(response.status, 200, "{}", response.body);
    let ready = client::get(addr, "/readyz").expect("readyz answers");
    assert_eq!(
        ready.status, 200,
        "idle server must be ready: {}",
        ready.body
    );

    // Slow evaluation pins the single worker; a second request then sits in
    // the depth-1 queue, filling it.
    gnnerator_faults::configure("eval:delay=900ms", 0).unwrap();
    let in_flight = std::thread::scope(|scope| {
        let first = scope.spawn(|| client::post(addr, "/simulate", &warm));
        std::thread::sleep(Duration::from_millis(150));
        let second = scope.spawn(|| client::post(addr, "/simulate", &warm));
        std::thread::sleep(Duration::from_millis(150));

        // Mid-flight: liveness stays green, readiness flips with the queue
        // component itemised.
        let health = client::get(addr, "/healthz").expect("healthz answers");
        assert_eq!(health.status, 200, "{}", health.body);
        let ready = client::get(addr, "/readyz").expect("readyz answers");
        assert_eq!(
            ready.status, 503,
            "readyz must flip with the queue full: {}",
            ready.body
        );
        let probe = ready.json().expect("readyz body is JSON");
        assert_eq!(
            probe.get("ready").and_then(Json::as_bool),
            Some(false),
            "{}",
            ready.body
        );
        assert_eq!(
            probe
                .get("queue")
                .and_then(|q| q.get("ready"))
                .and_then(Json::as_bool),
            Some(false),
            "readyz must name the queue as the unready component: {}",
            ready.body
        );

        [first.join().unwrap(), second.join().unwrap()]
    });
    for outcome in in_flight {
        let response = outcome.expect("queued request answered, not hung");
        assert_eq!(response.status, 200, "{}", response.body);
    }

    gnnerator_faults::clear();
    let ready = client::get(addr, "/readyz").expect("readyz answers");
    assert_eq!(ready.status, 200, "drained server must be ready again");
    server.shutdown();
}

#[test]
fn queued_requests_past_their_deadline_are_answered_503() {
    let _guard = fault_guard();
    let (server, addr) = start_server(ServeConfig {
        workers: 1,
        pool_capacity: 4,
        ..ServeConfig::default()
    });
    let warm = body(13);
    let response = client::post(addr, "/simulate", &warm).expect("warm-up succeeds");
    assert_eq!(response.status, 200, "{}", response.body);

    // Pin the single worker with a slow evaluation, then enqueue a request
    // whose 50 ms budget expires long before the worker frees up.
    gnnerator_faults::configure("eval:delay=700ms", 0).unwrap();
    let expired = std::thread::scope(|scope| {
        let slow = scope.spawn(|| client::post(addr, "/simulate", &warm));
        std::thread::sleep(Duration::from_millis(150));
        let deadline = client::request_with_headers(
            addr,
            "POST",
            "/simulate",
            &warm,
            &[("X-Deadline-Ms", "50")],
        )
        .expect("deadlined request answered, not hung");
        let slow = slow.join().unwrap().expect("slow request answered");
        assert_eq!(slow.status, 200, "{}", slow.body);
        deadline
    });
    assert_eq!(
        expired.status, 503,
        "expired deadline must be a 503: {}",
        expired.body
    );
    assert_eq!(
        expired.header("retry-after"),
        Some("1"),
        "deadline 503s must invite a retry"
    );
    assert!(
        expired.body.contains("deadline"),
        "untyped deadline error: {}",
        expired.body
    );
    assert!(
        stat_u64(&stats(addr), "admission", "expired") >= 1,
        "expired deadlines must be counted"
    );

    gnnerator_faults::clear();
    server.shutdown();
}

#[test]
fn repeated_cold_build_failures_trip_the_breaker_which_recloses_after_backoff() {
    let _guard = fault_guard();
    let (server, addr) = start_server(ServeConfig {
        workers: 2,
        pool_capacity: 4,
        breaker: BreakerConfig {
            threshold: 2,
            base_backoff: Duration::from_secs(1),
            max_backoff: Duration::from_secs(4),
        },
        ..ServeConfig::default()
    });
    gnnerator_faults::configure("session_build:error", 0).unwrap();

    // A fresh session key that can only cold-build: the first two attempts
    // fail (typed 500s), the second trips the breaker, and the third is
    // rejected without a build attempt.
    let doomed = body(77);
    for attempt in 0..2 {
        let response = client::post(addr, "/simulate", &doomed).expect("request answered");
        assert_eq!(response.status, 500, "attempt {attempt}: {}", response.body);
        assert!(
            response.body.contains("session_build"),
            "untyped build failure: {}",
            response.body
        );
    }
    let rejected = client::post(addr, "/simulate", &doomed).expect("request answered");
    assert_eq!(
        rejected.status, 503,
        "breaker must quarantine the key: {}",
        rejected.body
    );
    assert_eq!(rejected.header("retry-after"), Some("1"));
    assert!(
        rejected.body.contains("circuit breaker"),
        "untyped rejection: {}",
        rejected.body
    );

    // While the breaker is open, the scrape shows the armed fault, the
    // failpoint's hits and trips, and the breaker's trip and key state.
    let metrics = client::get(addr, "/metrics").expect("scrape answered");
    assert_eq!(metrics.status, 200, "{}", metrics.body);
    let sample = |series: &str| {
        metrics
            .body
            .lines()
            .find_map(|line| {
                line.strip_prefix(series)?
                    .strip_prefix(' ')?
                    .parse::<f64>()
                    .ok()
            })
            .unwrap_or_else(|| panic!("no {series} sample in:\n{}", metrics.body))
    };
    assert_eq!(sample("gnnerator_faults_armed"), 1.0);
    assert_eq!(
        sample("gnnerator_faults_spec{spec=\"session_build:error\"}"),
        1.0
    );
    assert!(sample("gnnerator_fault_hits_total{point=\"session_build\"}") > 0.0);
    assert!(sample("gnnerator_fault_trips_total{point=\"session_build\"}") > 0.0);
    assert!(sample("gnnerator_breaker_trips_total") >= 1.0);
    assert!(
        metrics.body.lines().any(
            |line| line.starts_with("gnnerator_breaker_open{key=\"cora/") && line.ends_with(" 1")
        ),
        "no open-breaker sample for the cora key:\n{}",
        metrics.body
    );

    // Clearing the fault does not close the breaker early: the key stays
    // quarantined until its backoff window elapses, then one half-open
    // trial succeeds and the key serves warm again.
    gnnerator_faults::clear();
    let still_open = client::post(addr, "/simulate", &doomed).expect("request answered");
    assert_eq!(still_open.status, 503, "{}", still_open.body);
    std::thread::sleep(Duration::from_millis(1100));
    let trial = client::post(addr, "/simulate", &doomed).expect("request answered");
    assert_eq!(
        trial.status, 200,
        "half-open trial must close the breaker: {}",
        trial.body
    );
    let warm = client::post(addr, "/simulate", &doomed).expect("request answered");
    assert_eq!(warm.status, 200, "{}", warm.body);
    assert_matches_run_one(&doomed, &warm);

    let stats = stats(addr);
    assert!(stat_u64(&stats, "pool", "breaker_trips") >= 1);
    assert!(stat_u64(&stats, "pool", "breaker_rejections") >= 2);
    server.shutdown();
}
