//! Integration tests for the serving layer: a real [`SessionServer`] on an
//! ephemeral port, driven over TCP by concurrent clients, checked
//! bit-for-bit against direct [`SweepRunner::run_one`] results.

use gnnerator::SweepRunner;
use gnnerator_serve::{client, scenario_from_json, Json, ServeConfig, SessionServer};
use std::net::SocketAddr;

/// A tiny scaled-down request so the suite stays fast. `out_dim`/`hidden`
/// are pinned explicitly so the direct reference builds the same model.
fn body(dataset: &str, backend: &str) -> String {
    format!(
        "{{\"dataset\": \"{dataset}\", \"network\": \"gcn\", \"backend\": \"{backend}\", \
         \"scale\": 0.03, \"seed\": 9, \"hidden_dim\": 8, \"out_dim\": 4}}"
    )
}

fn start_server() -> (SessionServer, SocketAddr) {
    let server = SessionServer::start(
        "127.0.0.1:0",
        ServeConfig {
            workers: 4,
            pool_capacity: 8,
            ..ServeConfig::default()
        },
    )
    .expect("server starts on an ephemeral port");
    let addr = server.local_addr();
    (server, addr)
}

fn simulate(addr: SocketAddr, body: &str) -> Json {
    let response = client::post(addr, "/simulate", body).expect("request succeeds");
    assert!(
        response.is_ok(),
        "status {}: {}",
        response.status,
        response.body
    );
    response.json().expect("response body is valid JSON")
}

fn field_f64(point: &Json, key: &str) -> f64 {
    point
        .get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("missing numeric field {key}"))
}

/// Served responses must be *bit-identical* to direct sweep results: every
/// numeric column is rendered with Rust's shortest-round-trip `f64`
/// formatting, so parsing it back yields the exact same bits.
fn assert_point_matches(point: &Json, reference: &gnnerator::ScenarioResult, context: &str) {
    assert_eq!(
        point.get("label").and_then(Json::as_str),
        Some(reference.scenario.label().as_str()),
        "{context}"
    );
    assert_eq!(
        point.get("backend").and_then(Json::as_str),
        Some(reference.backend().as_str()),
        "{context}"
    );
    assert_eq!(
        field_f64(point, "seconds").to_bits(),
        reference.seconds().to_bits(),
        "{context}: seconds must be bit-identical"
    );
    assert_eq!(
        point.get("num_nodes").and_then(Json::as_u64),
        Some(reference.num_nodes as u64),
        "{context}"
    );
    assert_eq!(
        point.get("num_edges").and_then(Json::as_u64),
        Some(reference.num_edges as u64),
        "{context}"
    );
    assert_eq!(
        point.get("total_cycles").and_then(Json::as_u64),
        reference.evaluation.total_cycles,
        "{context}"
    );
    assert_eq!(
        point.get("dram_bytes").and_then(Json::as_u64),
        reference.evaluation.dram_bytes,
        "{context}"
    );
    match reference.speedup_vs_gpu() {
        Some(expected) => assert_eq!(
            field_f64(point, "speedup_vs_gpu").to_bits(),
            expected.to_bits(),
            "{context}: speedups must be bit-identical"
        ),
        None => assert_eq!(point.get("speedup_vs_gpu"), Some(&Json::Null), "{context}"),
    }
    match reference.baseline_seconds {
        Some(baselines) => {
            assert_eq!(
                field_f64(point, "baseline_gpu_seconds").to_bits(),
                baselines.gpu.to_bits(),
                "{context}"
            );
            assert_eq!(
                field_f64(point, "baseline_hygcn_seconds").to_bits(),
                baselines.hygcn.to_bits(),
                "{context}"
            );
        }
        None => {
            assert_eq!(point.get("baseline_gpu_seconds"), Some(&Json::Null));
        }
    }
}

#[test]
fn concurrent_requests_are_bit_identical_to_run_one_and_reuse_sessions() {
    let (server, addr) = start_server();

    // Direct references through the sweep engine's own path.
    let runner = SweepRunner::new();
    let mix: Vec<(String, String)> = [
        ("cora", "gnnerator"),
        ("cora", "gpu-roofline"),
        ("cora", "hygcn"),
        ("citeseer", "gnnerator"),
    ]
    .into_iter()
    .map(|(d, b)| (d.to_string(), b.to_string()))
    .collect();
    let references: Vec<gnnerator::ScenarioResult> = mix
        .iter()
        .map(|(dataset, backend)| {
            let scenario =
                scenario_from_json(&Json::parse(&body(dataset, backend)).unwrap()).unwrap();
            runner.run_one(&scenario).unwrap()
        })
        .collect();

    // Warm the pool with one request per distinct scenario.
    for (dataset, backend) in &mix {
        simulate(addr, &body(dataset, backend));
    }
    let warmed = server.pool_stats();
    // cora points share one session (same session key); citeseer adds one.
    assert_eq!(warmed.sessions_built, 2, "backend variants share sessions");

    // Fire concurrent clients: repeated and distinct scenarios interleaved.
    let rounds = 3;
    let points: Vec<(usize, Json)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..mix.len() * rounds)
            .map(|i| {
                let (dataset, backend) = &mix[i % mix.len()];
                let body = body(dataset, backend);
                scope.spawn(move || (i % 4, simulate(addr, &body)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (index, point) in &points {
        assert_point_matches(point, &references[*index], &mix[*index].0);
        assert_eq!(
            point.get("session_reused").and_then(Json::as_bool),
            Some(true),
            "every post-warm-up request reuses a pooled session"
        );
    }

    // Zero rebuilds after the first request for each workload.
    let stats = server.pool_stats();
    assert_eq!(
        stats.sessions_built, warmed.sessions_built,
        "a warm pool never rebuilds"
    );
    assert!(
        stats.hits >= (mix.len() * rounds),
        "the pool reported {} hits for {} warm requests",
        stats.hits,
        mix.len() * rounds
    );
    server.shutdown();
}

#[test]
fn stats_compile_and_sweep_endpoints_answer_coherently() {
    let (server, addr) = start_server();

    // /compile summarises without executing.
    let response = client::post(addr, "/compile", &body("cora", "gnnerator")).unwrap();
    assert!(response.is_ok(), "{}", response.body);
    let summary = response.json().unwrap();
    assert_eq!(summary.get("model").and_then(Json::as_str), Some("gcn"));
    assert_eq!(summary.get("dataset").and_then(Json::as_str), Some("cora"));
    assert_eq!(summary.get("num_layers").and_then(Json::as_u64), Some(2));
    assert_eq!(
        summary.get("session_reused").and_then(Json::as_bool),
        Some(false)
    );

    // Baselines are analytical; compiling them is a client error.
    let response = client::post(addr, "/compile", &body("cora", "hygcn")).unwrap();
    assert_eq!(response.status, 400);

    // /sweep evaluates in input order, even with two session keys
    // interleaved.
    let order = [
        ("cora", "gnnerator"),
        ("citeseer", "gnnerator"),
        ("cora", "gpu-roofline"),
    ];
    let scenarios: Vec<String> = order.iter().map(|(d, b)| body(d, b)).collect();
    let sweep_body = format!("{{\"scenarios\": [{}]}}", scenarios.join(", "));
    let response = client::post(addr, "/sweep", &sweep_body).unwrap();
    assert!(response.is_ok(), "{}", response.body);
    let sweep = response.json().unwrap();
    assert_eq!(sweep.get("count").and_then(Json::as_u64), Some(3));
    let points = sweep.get("points").and_then(Json::as_array).unwrap();
    assert_eq!(points.len(), 3);
    let runner = SweepRunner::new();
    for (point, (dataset, backend)) in points.iter().zip(order) {
        let scenario = scenario_from_json(&Json::parse(&body(dataset, backend)).unwrap()).unwrap();
        let reference = runner.run_one(&scenario).unwrap();
        assert_point_matches(point, &reference, dataset);
    }

    // Query strings are stripped before dispatch: monitoring probes that
    // append one must not 404.
    let response = client::get(addr, "/stats?probe=1").unwrap();
    assert!(response.is_ok(), "{}", response.body);

    // /stats reflects the traffic.
    let response = client::get(addr, "/stats").unwrap();
    assert!(response.is_ok());
    let stats = response.json().unwrap();
    assert!(field_f64(&stats, "uptime_seconds") >= 0.0);
    let pool = stats.get("pool").expect("pool section");
    assert!(pool.get("hits").and_then(Json::as_u64).is_some());
    let endpoints = stats.get("endpoints").expect("endpoints section");
    let sweep_stat = endpoints.get("sweep").expect("sweep endpoint stat");
    assert_eq!(sweep_stat.get("requests").and_then(Json::as_u64), Some(1));
    server.shutdown();
}

#[test]
fn bad_requests_get_typed_errors_not_hangs() {
    let (server, addr) = start_server();
    let cases = [
        ("POST", "/simulate", "not json", 400),
        ("POST", "/simulate", "{\"dataset\": \"mnist\"}", 400),
        ("POST", "/simulate", "", 400),
        ("POST", "/sweep", "{\"scenarios\": 3}", 400),
        ("POST", "/nowhere", "{}", 404),
        ("GET", "/simulate", "", 405),
        ("POST", "/stats", "", 405),
    ];
    for (method, path, payload, expected) in cases {
        let response = client::request(addr, method, path, payload).unwrap();
        assert_eq!(
            response.status, expected,
            "{method} {path} {payload:?}: {}",
            response.body
        );
        let error = response.json().expect("error responses are JSON");
        assert!(
            error.get("error").and_then(Json::as_str).is_some(),
            "{method} {path}"
        );
    }
    // Degenerate numeric values are refused at parse time — before any
    // dataset synthesis or session build is paid for them.
    for body in [
        "{\"dataset\": \"cora\", \"block_size\": 0}",
        "{\"dataset\": \"cora\", \"hidden_dim\": 4000000000}",
    ] {
        let response = client::post(addr, "/simulate", body).unwrap();
        assert_eq!(response.status, 400, "{}", response.body);
    }
    // Widths under the per-field cap whose weights are not: the 65536 x
    // 65536 middle layer would be a 17 GB allocation that aborts the
    // process, so the request is refused by its weight count instead.
    let wide = "{\"dataset\": \"cora\", \"scale\": 0.05, \"hidden_dim\": 65536, \
                \"hidden_layers\": 2}";
    for path in ["/simulate", "/compile"] {
        let response = client::post(addr, path, wide).unwrap();
        assert_eq!(response.status, 400, "{path}: {}", response.body);
        let error = response.json().expect("error responses are JSON");
        let message = error.get("error").and_then(Json::as_str).unwrap();
        assert!(message.contains("\"hidden_dim\""), "{path}: {message}");
    }
    let sweep = format!("{{\"scenarios\": [{wide}]}}");
    let response = client::post(addr, "/sweep", &sweep).unwrap();
    assert_eq!(response.status, 400, "/sweep: {}", response.body);
    assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);
    server.shutdown();
}

#[test]
fn shutdown_endpoint_stops_the_server_cleanly() {
    let (server, addr) = start_server();
    simulate(addr, &body("cora", "gnnerator"));
    let response = client::post(addr, "/shutdown", "").unwrap();
    assert!(response.is_ok());
    assert_eq!(response.body, "{\"ok\": true}");
    // wait() joins the acceptor and workers; it must return promptly now.
    server.wait();
    // The port no longer answers.
    assert!(client::get(addr, "/stats").is_err());
}

/// After warm-up, sequential keep-alive `/simulate` requests on an idle
/// server are evaluated on their connection thread: none of them enters
/// the admission queue, yet every one is bit-identical to `run_one`, is
/// counted by the evaluation metrics, and carries the full provenance
/// breakdown when asked.
#[test]
fn idle_warm_requests_are_evaluated_inline_and_stay_bit_identical() {
    let (server, addr) = start_server();
    let request = body("cora", "gnnerator");
    let scenario = scenario_from_json(&Json::parse(&request).unwrap()).unwrap();
    let reference = SweepRunner::new().run_one(&scenario).unwrap();
    let mut connection = client::ClientConnection::new(addr);
    // The cold request builds the session through the queue.
    let cold = connection.post("/simulate", &request).unwrap();
    assert!(cold.is_ok(), "{}", cold.body);
    let stats = |connection: &mut client::ClientConnection| {
        connection
            .get("/stats")
            .unwrap()
            .json()
            .expect("stats JSON")
    };
    let counter = |stats: &Json, section: &str, key: &str| {
        stats
            .get(section)
            .and_then(|s| s.get(key))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("missing stats field {section}.{key}"))
    };
    let before = stats(&mut connection);

    const REQUESTS: u64 = 12;
    for index in 0..REQUESTS {
        let response = connection.post("/simulate", &request).unwrap();
        assert!(response.is_ok(), "request {index}: {}", response.body);
        assert!(response.keep_alive(), "request {index} kept the connection");
        let point = response.json().expect("point JSON");
        assert_point_matches(&point, &reference, &format!("request {index}"));
        assert_eq!(
            point.get("session_reused").and_then(Json::as_bool),
            Some(true)
        );
    }
    let response = client::request_with_headers(
        addr,
        "POST",
        "/simulate",
        &request,
        &[("X-Provenance", "1")],
    )
    .unwrap();
    assert!(response.is_ok(), "{}", response.body);
    let point = response.json().expect("point JSON");
    assert_point_matches(&point, &reference, "provenance request");
    let stages: Vec<&str> = point
        .get("provenance")
        .and_then(|p| p.get("spans"))
        .and_then(Json::as_array)
        .expect("provenance spans")
        .iter()
        .filter_map(|span| span.get("stage").and_then(Json::as_str))
        .collect();
    assert_eq!(
        stages,
        ["queue_wait", "session_build", "evaluate", "serialize"]
    );

    let after = stats(&mut connection);
    assert_eq!(
        counter(&after, "admission", "peak_queue_depth"),
        counter(&before, "admission", "peak_queue_depth"),
        "inline requests never enter the queue"
    );
    assert_eq!(
        counter(&after, "admission", "inline") - counter(&before, "admission", "inline"),
        REQUESTS + 1,
        "every idle warm request was evaluated inline"
    );
    let simulate_requests = after
        .get("endpoints")
        .and_then(|e| e.get("simulate"))
        .and_then(|s| s.get("requests"))
        .and_then(Json::as_u64)
        .expect("simulate endpoint requests");
    assert_eq!(simulate_requests, REQUESTS + 2);
    let evaluated = after
        .get("latency")
        .and_then(|l| l.get("evaluate"))
        .and_then(|e| e.get("count"))
        .and_then(Json::as_u64)
        .expect("evaluate histogram count");
    assert_eq!(
        evaluated, simulate_requests,
        "the evaluate histogram covers inline evaluations too"
    );
    server.shutdown();
}
