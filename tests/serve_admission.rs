//! Admission tests: requests that overlap in the queue — concurrent
//! clients, or one client's pipelined requests — stay bit-identical to
//! `SweepRunner::run_one` and come back in request order, every request is
//! counted once per stage, and a full admission queue sheds with `429` +
//! `Retry-After` rather than queue unbounded work.

use gnnerator::SweepRunner;
use gnnerator_serve::{
    client::ClientConnection, scenario_from_json, Json, ServeConfig, SessionServer,
};
use std::net::SocketAddr;

fn body(dataset: &str, backend: &str, seed: u64, scale: f64) -> String {
    format!(
        "{{\"dataset\": \"{dataset}\", \"network\": \"gcn\", \"backend\": \"{backend}\", \
         \"scale\": {scale}, \"seed\": {seed}, \"hidden_dim\": 8, \"out_dim\": 4}}"
    )
}

/// The warm, shared-key scenario every test sends.
fn warm_body(backend: &str) -> String {
    body("cora", backend, 9, 0.03)
}

fn start_server(config: ServeConfig) -> (SessionServer, SocketAddr) {
    let server =
        SessionServer::start("127.0.0.1:0", config).expect("server starts on an ephemeral port");
    let addr = server.local_addr();
    (server, addr)
}

fn reference(request_body: &str) -> gnnerator::ScenarioResult {
    let scenario = scenario_from_json(&Json::parse(request_body).expect("valid JSON"))
        .expect("valid scenario");
    SweepRunner::new()
        .run_one(&scenario)
        .expect("reference evaluation succeeds")
}

fn assert_bit_identical(point: &Json, reference: &gnnerator::ScenarioResult, context: &str) {
    let seconds = point
        .get("seconds")
        .and_then(Json::as_f64)
        .expect("seconds field");
    assert_eq!(
        seconds.to_bits(),
        reference.seconds().to_bits(),
        "{context}: seconds must be bit-identical to run_one"
    );
    assert_eq!(
        point.get("total_cycles").and_then(Json::as_u64),
        reference.evaluation.total_cycles,
        "{context}"
    );
    if let Some(expected) = reference.speedup_vs_gpu() {
        let speedup = point
            .get("speedup_vs_gpu")
            .and_then(Json::as_f64)
            .expect("speedup field");
        assert_eq!(
            speedup.to_bits(),
            expected.to_bits(),
            "{context}: speedups must be bit-identical"
        );
    }
}

#[test]
fn concurrent_overlapping_keys_stay_bit_identical_to_run_one() {
    // One evaluation worker maximises queue overlap.
    let (server, addr) = start_server(ServeConfig {
        workers: 1,
        pool_capacity: 8,
        ..ServeConfig::default()
    });
    // Three bodies, two session keys: the backend is not part of the key,
    // so cora/gnnerator and cora/gpu-roofline share one pooled session.
    let bodies = [
        warm_body("gnnerator"),
        warm_body("gpu-roofline"),
        body("citeseer", "gnnerator", 9, 0.03),
    ];
    let references: Vec<gnnerator::ScenarioResult> = bodies.iter().map(|b| reference(b)).collect();
    let rounds = 4;
    let bodies = &bodies;
    let points: Vec<(usize, Json)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..bodies.len() * rounds)
            .map(|i| {
                scope.spawn(move || {
                    let mut connection = ClientConnection::new(addr);
                    let response = connection
                        .post("/simulate", &bodies[i % bodies.len()])
                        .expect("request succeeds");
                    assert!(response.is_ok(), "{}", response.body);
                    (i % bodies.len(), response.json().expect("point JSON"))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (index, point) in &points {
        assert_bit_identical(point, &references[*index], &format!("body {index}"));
    }
    server.shutdown();
}

#[test]
fn pipelined_requests_answer_in_order_and_counters_stay_coherent() {
    let (server, addr) = start_server(ServeConfig {
        workers: 2,
        pool_capacity: 8,
        ..ServeConfig::default()
    });
    let mut connection = ClientConnection::new(addr);
    // Warm the shared-key session so the pipelined requests evaluate fast.
    let warm = warm_body("gnnerator");
    let warmed = connection.post("/simulate", &warm).expect("warm-up");
    assert!(warmed.is_ok(), "{}", warmed.body);
    let roofline = warm_body("gpu-roofline");
    let expected = [reference(&warm), reference(&roofline)];

    // A cold blocker (fresh seed, so a session build holds one worker)
    // followed by warm requests alternating two backends over one session:
    // read-ahead hands them to the other worker while the blocker builds,
    // yet every answer comes back in request order.
    let blocker = body("citeseer", "gnnerator", 100, 0.05);
    let mut requests = vec![("POST", "/simulate", blocker.as_str())];
    for _ in 0..3 {
        requests.push(("POST", "/simulate", warm.as_str()));
        requests.push(("POST", "/simulate", roofline.as_str()));
    }
    let responses = connection.pipeline(&requests).expect("pipelined requests");
    assert_eq!(responses.len(), requests.len());
    for (index, response) in responses.iter().enumerate() {
        assert!(response.is_ok(), "response {index}: {}", response.body);
        let point = response.json().expect("point JSON");
        if index > 0 {
            let context = format!("response {index}");
            assert_bit_identical(&point, &expected[(index - 1) % 2], &context);
        }
    }

    // Every /simulate, inline or queued, is counted once per stage.
    let stats = connection.get("/stats").expect("stats");
    let json = stats.json().expect("stats JSON");
    let simulate_requests = json
        .get("endpoints")
        .and_then(|e| e.get("simulate"))
        .and_then(|s| s.get("requests"))
        .and_then(Json::as_u64)
        .expect("simulate endpoint requests");
    assert_eq!(simulate_requests, requests.len() as u64 + 1);
    let latency = json.get("latency").expect("latency section");
    for stage in ["queue_wait", "session_build", "evaluate", "serialize"] {
        let histogram = latency.get(stage).expect("stage histogram");
        assert_eq!(
            histogram.get("count").and_then(Json::as_u64),
            Some(simulate_requests),
            "{stage} histogram counts every /simulate once"
        );
        let p50 = histogram.get("p50_seconds").and_then(Json::as_f64).unwrap();
        let p99 = histogram.get("p99_seconds").and_then(Json::as_f64).unwrap();
        assert!(p50 <= p99, "{stage}: p50 {p50} <= p99 {p99}");
    }
    server.shutdown();
}

#[test]
fn a_full_queue_sheds_429_with_retry_after_and_nothing_else_breaks() {
    let (server, addr) = start_server(ServeConfig {
        workers: 1,
        pool_capacity: 8,
        queue_depth: 1,
        connection_inflight: 8,
        ..ServeConfig::default()
    });
    let mut connection = ClientConnection::new(addr);
    // Warm the shared key so post-shed requests answer instantly.
    let warm = warm_body("gnnerator");
    assert!(connection
        .post("/simulate", &warm)
        .expect("warm-up")
        .is_ok());

    // A cold blocker occupies the only worker; with queue depth 1, at most
    // one of the following warm requests queues — the rest must shed.
    let blocker = body("citeseer", "gnnerator", 777, 0.08);
    let warm_ref = warm.as_str();
    let requests = [
        ("POST", "/simulate", blocker.as_str()),
        ("POST", "/simulate", warm_ref),
        ("POST", "/simulate", warm_ref),
        ("POST", "/simulate", warm_ref),
        ("POST", "/simulate", warm_ref),
        ("POST", "/simulate", warm_ref),
    ];
    let responses = connection.pipeline(&requests).expect("pipelined requests");
    let mut shed = 0u64;
    for (index, response) in responses.iter().enumerate() {
        assert!(
            response.status == 200 || response.status == 429,
            "response {index}: unexpected status {} ({})",
            response.status,
            response.body
        );
        if response.status == 429 {
            shed += 1;
            assert_eq!(
                response.header("retry-after"),
                Some("1"),
                "shed responses must carry Retry-After"
            );
            assert!(
                response.keep_alive(),
                "shedding a request must not kill the connection"
            );
        }
    }
    // The connection survived shedding: it still answers.
    let stats = connection.get("/stats").expect("stats after shedding");
    let json = stats.json().expect("stats JSON");
    let admission = json.get("admission").expect("admission section");
    assert_eq!(
        admission.get("shed").and_then(Json::as_u64),
        Some(shed),
        "the shed counter matches the 429s the client saw"
    );
    let peak = admission
        .get("peak_queue_depth")
        .and_then(Json::as_u64)
        .expect("peak_queue_depth");
    assert!(peak <= 1, "queue depth stayed bounded (peak {peak})");
    server.shutdown();
}
