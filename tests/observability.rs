//! Integration tests for the unified observability surface: `GET /metrics`
//! exposition correctness under concurrent scrapes, counter monotonicity,
//! histogram coherence, `/stats` agreeing with `/metrics`, per-request
//! provenance, graceful drain, and bit-identical results across runners
//! sharing one artifact cache.

use gnnerator::{ScenarioSpec, SweepRunner};
use gnnerator_serve::{client, scenario_from_json, Json, ServeConfig, SessionServer};
use std::collections::HashMap;
use std::net::SocketAddr;

fn body(dataset: &str, backend: &str) -> String {
    format!(
        "{{\"dataset\": \"{dataset}\", \"network\": \"gcn\", \"backend\": \"{backend}\", \
         \"scale\": 0.03, \"seed\": 9, \"hidden_dim\": 8, \"out_dim\": 4}}"
    )
}

fn scenario(dataset: &str, backend: &str) -> ScenarioSpec {
    scenario_from_json(&Json::parse(&body(dataset, backend)).expect("valid JSON"))
        .expect("valid scenario")
}

fn start_server() -> (SessionServer, SocketAddr) {
    let server = SessionServer::start(
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            pool_capacity: 8,
            ..ServeConfig::default()
        },
    )
    .expect("server starts on an ephemeral port");
    let addr = server.local_addr();
    (server, addr)
}

/// Parses a Prometheus text exposition into `series name{labels} -> value`,
/// asserting every line is either a comment or a well-formed sample.
fn parse_exposition(text: &str) -> HashMap<String, f64> {
    let mut samples = HashMap::new();
    for line in text.lines() {
        if line.starts_with('#') {
            assert!(
                line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                "unknown comment line: {line:?}"
            );
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("sample line without a value: {line:?}"));
        let value: f64 = value
            .parse()
            .or_else(|_| match value {
                "+Inf" => Ok(f64::INFINITY),
                "-Inf" => Ok(f64::NEG_INFINITY),
                "NaN" => Ok(f64::NAN),
                other => other.parse(),
            })
            .unwrap_or_else(|_| panic!("unparseable sample value in {line:?}"));
        samples.insert(series.to_string(), value);
    }
    samples
}

fn scrape(addr: SocketAddr) -> (String, HashMap<String, f64>) {
    let response = client::get(addr, "/metrics").expect("scrape succeeds");
    assert_eq!(response.status, 200, "{}", response.body);
    assert!(
        response
            .header("content-type")
            .is_some_and(|ct| ct.starts_with("text/plain")),
        "Prometheus text content type"
    );
    let samples = parse_exposition(&response.body);
    (response.body, samples)
}

#[test]
fn concurrent_scrapes_parse_and_counters_stay_monotonic() {
    let (server, addr) = start_server();
    // Put some traffic through first so histograms have samples.
    for _ in 0..3 {
        let response = client::post(addr, "/simulate", &body("cora", "gnnerator")).unwrap();
        assert!(response.is_ok(), "{}", response.body);
    }

    // Concurrent scrapes must each be a complete, parseable exposition.
    let expositions: Vec<HashMap<String, f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| scope.spawn(move || scrape(addr).1))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for samples in &expositions {
        for series in [
            "gnnerator_requests_total",
            "gnnerator_queue_wait_seconds_count",
            "gnnerator_evaluate_seconds_count",
            "gnnerator_serialize_seconds_count",
            "gnnerator_session_build_seconds_count",
            "gnnerator_pool_hits_total",
            "gnnerator_pool_misses_total",
            "gnnerator_workers_alive",
            "gnnerator_breaker_trips_total",
        ] {
            assert!(samples.contains_key(series), "missing series {series}");
        }
        assert_eq!(samples["gnnerator_workers_alive"], 2.0);
        assert!(samples["gnnerator_evaluate_seconds_count"] >= 3.0);
    }

    // Counters are monotonic across sequential scrapes with traffic between.
    let (_, before) = scrape(addr);
    let response = client::post(addr, "/simulate", &body("cora", "gnnerator")).unwrap();
    assert!(response.is_ok());
    let (_, after) = scrape(addr);
    for series in [
        "gnnerator_requests_total",
        "gnnerator_evaluate_seconds_count",
        "gnnerator_pool_hits_total",
    ] {
        assert!(
            after[series] >= before[series],
            "{series} went backwards: {} -> {}",
            before[series],
            after[series]
        );
    }
    assert!(
        after["gnnerator_requests_total"] > before["gnnerator_requests_total"],
        "the extra request must be visible"
    );

    server.shutdown();
}

/// Every `/stats` counter that scrapes do not move, with its `/metrics`
/// series: pool, breaker, queue and worker counters.
const STATS_SERIES: [(&str, &str, &str); 24] = [
    ("", "errors", "gnnerator_errors_total"),
    ("pool", "size", "gnnerator_pool_sessions"),
    ("pool", "capacity", "gnnerator_pool_capacity"),
    ("pool", "hits", "gnnerator_pool_hits_total"),
    ("pool", "misses", "gnnerator_pool_misses_total"),
    (
        "pool",
        "sessions_built",
        "gnnerator_pool_sessions_built_total",
    ),
    ("pool", "evictions", "gnnerator_pool_evictions_total"),
    (
        "pool",
        "datasets_synthesized",
        "gnnerator_pool_datasets_synthesized_total",
    ),
    (
        "pool",
        "datasets_loaded",
        "gnnerator_pool_datasets_loaded_total",
    ),
    (
        "pool",
        "corrupt_artifacts",
        "gnnerator_pool_corrupt_artifacts_total",
    ),
    ("pool", "breaker_trips", "gnnerator_breaker_trips_total"),
    (
        "pool",
        "breaker_rejections",
        "gnnerator_breaker_rejections_total",
    ),
    (
        "pool",
        "quarantined_keys",
        "gnnerator_breaker_quarantined_keys",
    ),
    ("admission", "queue_capacity", "gnnerator_queue_capacity"),
    ("admission", "queue_depth", "gnnerator_queue_depth"),
    (
        "admission",
        "peak_queue_depth",
        "gnnerator_queue_peak_depth",
    ),
    ("admission", "shed", "gnnerator_queue_shed_total"),
    ("admission", "expired", "gnnerator_queue_expired_total"),
    ("admission", "inline", "gnnerator_queue_inline_total"),
    (
        "admission",
        "refused_connections",
        "gnnerator_connections_refused_total",
    ),
    ("workers", "configured", "gnnerator_workers_configured"),
    ("workers", "alive", "gnnerator_workers_alive"),
    ("workers", "panics", "gnnerator_worker_panics_total"),
    ("workers", "respawns", "gnnerator_worker_respawns_total"),
];

#[test]
fn stats_counters_equal_their_metrics_series() {
    let (server, addr) = start_server();
    // Traffic that moves the pool and error counters: misses and
    // hits on two datasets, a baseline, a concurrent burst on one key, and
    // a rejected request.
    for (dataset, backend) in [
        ("cora", "gnnerator"),
        ("cora", "gnnerator"),
        ("citeseer", "gnnerator"),
        ("cora", "gpu-roofline"),
    ] {
        let response = client::post(addr, "/simulate", &body(dataset, backend)).unwrap();
        assert!(response.is_ok(), "{}", response.body);
    }
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(move || {
                let response = client::post(addr, "/simulate", &body("cora", "hygcn")).unwrap();
                assert!(response.is_ok(), "{}", response.body);
            });
        }
    });
    let rejected = client::post(addr, "/simulate", "{\"dataset\": \"nope\"}").unwrap();
    assert_eq!(rejected.status, 400, "{}", rejected.body);

    let stats = || {
        let response = client::get(addr, "/stats").expect("stats succeeds");
        assert_eq!(response.status, 200, "{}", response.body);
        let json = Json::parse(&response.body).expect("/stats is JSON");
        STATS_SERIES.map(|(section, field, _)| {
            let object = if section.is_empty() {
                Some(&json)
            } else {
                json.get(section)
            };
            object
                .and_then(|object| object.get(field)?.as_u64())
                .unwrap_or_else(|| panic!("/stats lacks {section}.{field}"))
        })
    };
    // A worker may still be finishing its bookkeeping after the last
    // response; compare once `/stats` reads the same on both sides of a
    // scrape.
    let agreed = (0..50).any(|_| {
        let before = stats();
        let samples = scrape(addr).1;
        if stats() != before {
            std::thread::sleep(std::time::Duration::from_millis(10));
            return false;
        }
        for ((section, field, series), value) in STATS_SERIES.iter().zip(before) {
            assert_eq!(
                samples.get(*series).copied(),
                Some(value as f64),
                "/stats {section}.{field} vs /metrics {series}"
            );
        }
        true
    });
    assert!(agreed, "/stats never held still across a scrape");
    let counts = stats();
    let count = |field: &str| {
        let index = STATS_SERIES
            .iter()
            .position(|(_, name, _)| *name == field)
            .unwrap();
        counts[index]
    };
    assert!(count("hits") > 0 && count("misses") > 0, "{counts:?}");
    assert!(count("errors") > 0, "{counts:?}");
    server.shutdown();
}

#[test]
fn histogram_families_are_coherent_in_the_exposition() {
    let (server, addr) = start_server();
    for _ in 0..5 {
        let response = client::post(addr, "/simulate", &body("cora", "gnnerator")).unwrap();
        assert!(response.is_ok(), "{}", response.body);
    }
    let (text, samples) = scrape(addr);
    for family in [
        "gnnerator_queue_wait_seconds",
        "gnnerator_session_build_seconds",
        "gnnerator_evaluate_seconds",
        "gnnerator_serialize_seconds",
    ] {
        let count = samples[&format!("{family}_count")];
        let inf_bucket = samples[&format!("{family}_bucket{{le=\"+Inf\"}}")];
        assert_eq!(
            inf_bucket, count,
            "{family}: the +Inf bucket must equal _count"
        );
        assert!(
            samples[&format!("{family}_sum")] >= 0.0,
            "{family}_sum is non-negative"
        );
        // Cumulative buckets never decrease.
        let mut last = -1.0;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix(&format!("{family}_bucket{{le=\"")) {
                let value: f64 = rest
                    .rsplit_once(' ')
                    .map(|(_, v)| v.parse().unwrap())
                    .unwrap();
                assert!(value >= last, "{family} buckets must be cumulative");
                last = value;
            }
        }
    }
    server.shutdown();
}

#[test]
fn provenance_is_opt_in_and_carries_the_stage_spans() {
    let (server, addr) = start_server();
    let plain = client::post(addr, "/simulate", &body("cora", "gnnerator")).unwrap();
    assert!(plain.is_ok(), "{}", plain.body);
    let plain_json = plain.json().unwrap();
    assert!(
        plain_json.get("provenance").is_none(),
        "provenance is opt-in: {}",
        plain.body
    );

    let traced = client::request_with_headers(
        addr,
        "POST",
        "/simulate",
        &body("cora", "gnnerator"),
        &[("X-Provenance", "1")],
    )
    .unwrap();
    assert!(traced.is_ok(), "{}", traced.body);
    let traced_json = traced.json().unwrap();
    let provenance = traced_json
        .get("provenance")
        .expect("provenance attached when requested");
    assert_eq!(
        provenance.get("backend").and_then(Json::as_str),
        Some("gnnerator")
    );
    assert!(provenance
        .get("session_key")
        .and_then(Json::as_str)
        .is_some_and(|k| k.contains("cora")));
    assert_eq!(
        provenance.get("session_reused").and_then(Json::as_bool),
        Some(true),
        "the plain request warmed the pool"
    );
    let spans = provenance
        .get("spans")
        .and_then(Json::as_array)
        .expect("spans array");
    let stages: Vec<&str> = spans
        .iter()
        .filter_map(|span| span.get("stage").and_then(Json::as_str))
        .collect();
    assert_eq!(
        stages,
        ["queue_wait", "session_build", "evaluate", "serialize"],
        "stages in request order"
    );
    for span in spans {
        let seconds = span.get("seconds").and_then(Json::as_f64).unwrap();
        assert!(seconds >= 0.0 && seconds.is_finite());
    }

    // The evaluated point itself is identical with and without tracing.
    assert_eq!(
        plain_json.get("seconds"),
        traced_json.get("seconds"),
        "provenance must not perturb the result"
    );
    assert_eq!(
        plain_json.get("total_cycles"),
        traced_json.get("total_cycles")
    );
    server.shutdown();
}

#[test]
fn runners_sharing_one_artifact_cache_are_bit_identical_and_warm_ones_load_every_summary() {
    let scenarios = [
        scenario("cora", "gnnerator"),
        scenario("cora", "gpu-roofline"),
        scenario("citeseer", "gnnerator"),
    ];
    // The first runner stores the shard summaries the other two load, and
    // all three must still match bit for bit.
    let dir = std::env::temp_dir().join(format!("gnnerator-observe-sweep-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cache = std::sync::Arc::new(gnnerator_graph::ArtifactCache::new(&dir));
    let cached = || SweepRunner::new().with_artifact_cache(std::sync::Arc::clone(&cache));
    let cold = cached();
    let warm = [cached(), cached()];
    for spec in &scenarios {
        let reference = cold.run_one(spec).expect("cold run succeeds");
        for (index, runner) in warm.iter().enumerate() {
            let result = runner.run_one(spec).expect("warm run succeeds");
            assert_eq!(
                reference, result,
                "warm runner {index}: results must be equal (timing excluded from Eq)"
            );
            assert_eq!(
                reference.seconds().to_bits(),
                result.seconds().to_bits(),
                "warm runner {index}: modeled seconds must be bit-identical"
            );
            assert_eq!(
                reference.evaluation.total_cycles, result.evaluation.total_cycles,
                "warm runner {index}: cycle counts must be bit-identical"
            );
        }
    }
    // The warm runners loaded every summary instead of building it.
    assert!(cold.total_shard_grids_built() > 0);
    for runner in &warm {
        assert_eq!(runner.total_shard_grids_built(), 0);
        assert_eq!(
            runner.total_shard_grids_loaded(),
            cold.total_shard_grids_built()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn drain_flips_readiness_refuses_work_and_closes_the_listener() {
    let (server, addr) = start_server();
    let warm = client::post(addr, "/simulate", &body("cora", "gnnerator")).unwrap();
    assert!(warm.is_ok(), "{}", warm.body);
    let ready = client::get(addr, "/readyz").unwrap();
    assert_eq!(ready.status, 200, "{}", ready.body);

    let drain = client::post(addr, "/drain", "").unwrap();
    assert_eq!(drain.status, 200, "{}", drain.body);
    assert!(drain.body.contains("\"draining\": true"), "{}", drain.body);
    assert!(server.is_draining());

    // Readiness reports 503 with the draining gate named (while the
    // listener is still up; it closes shortly after the queue empties).
    if let Ok(not_ready) = client::get(addr, "/readyz") {
        assert_eq!(not_ready.status, 503, "{}", not_ready.body);
        assert!(
            not_ready.body.contains("\"draining\": true"),
            "{}",
            not_ready.body
        );
    }
    // New evaluation work is refused while draining.
    if let Ok(refused) = client::post(addr, "/simulate", &body("cora", "gnnerator")) {
        assert_eq!(refused.status, 503, "{}", refused.body);
        assert!(refused.body.contains("draining"), "{}", refused.body);
    }

    // With nothing in flight the drain completes: the listener closes and
    // new connections fail. Bounded wait, no sleep-forever.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        match std::net::TcpStream::connect_timeout(&addr, std::time::Duration::from_secs(1)) {
            Err(_) => break, // listener is gone
            Ok(_) if std::time::Instant::now() > deadline => {
                panic!("listener still accepting after drain")
            }
            Ok(_) => std::thread::sleep(std::time::Duration::from_millis(20)),
        }
    }
    server.wait();
}
