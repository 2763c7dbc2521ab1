//! Driving a `SessionServer` from outside: one keep-alive connection, no
//! pipelining, closed loop. Served points are checked field by field
//! against locally evaluated results.

use crate::points::Point;
use gnnerator::ScenarioResult;
use gnnerator_graph::ArtifactCache;
use gnnerator_serve::client::{ClientConnection, ClientResponse};
use gnnerator_serve::{Json, ServeConfig, SessionServer};
use std::collections::HashSet;
use std::sync::Arc;

/// The server every serving measurement uses: one evaluation worker, so
/// the timed loop has one thread evaluating.
pub fn start(artifact_cache: Option<Arc<ArtifactCache>>) -> Result<SessionServer, String> {
    let config = ServeConfig {
        workers: 1,
        artifact_cache,
        ..ServeConfig::default()
    };
    SessionServer::start("127.0.0.1:0", config).map_err(|e| format!("starting the server: {e}"))
}

/// The fields of a served point that must equal the local evaluation.
#[derive(Debug, Clone)]
pub struct Expected {
    label: String,
    seconds: f64,
    total_cycles: Option<u64>,
    dram_bytes: Option<u64>,
    gpu: Option<f64>,
    hygcn: Option<f64>,
    nodes: usize,
    edges: usize,
}

impl Expected {
    pub fn of(result: &ScenarioResult) -> Self {
        Self {
            label: result.scenario.label(),
            seconds: result.seconds(),
            total_cycles: result.evaluation.total_cycles,
            dram_bytes: result.evaluation.dram_bytes,
            gpu: result.baseline_seconds.map(|b| b.gpu),
            hygcn: result.baseline_seconds.map(|b| b.hygcn),
            nodes: result.num_nodes,
            edges: result.num_edges,
        }
    }

    /// Whether a `/simulate` response carries exactly this point.
    pub fn matches(&self, response: &ClientResponse) -> bool {
        if response.status != 200 {
            return false;
        }
        let Some(json) = response.json() else {
            return false;
        };
        let f64_bits = |key: &str, want: Option<f64>| match (json.get(key), want) {
            (Some(Json::Number(n)), Some(w)) => n.to_bits() == w.to_bits(),
            (Some(Json::Null), None) => true,
            _ => false,
        };
        let u64_eq = |key: &str, want: Option<u64>| match (json.get(key), want) {
            (Some(v @ Json::Number(_)), Some(w)) => v.as_u64() == Some(w),
            (Some(Json::Null), None) => true,
            _ => false,
        };
        json.get("label").and_then(Json::as_str) == Some(self.label.as_str())
            && f64_bits("seconds", Some(self.seconds))
            && u64_eq("total_cycles", self.total_cycles)
            && u64_eq("dram_bytes", self.dram_bytes)
            && f64_bits("baseline_gpu_seconds", self.gpu)
            && f64_bits("baseline_hygcn_seconds", self.hygcn)
            && u64_eq("num_nodes", Some(self.nodes as u64))
            && u64_eq("num_edges", Some(self.edges as u64))
    }
}

/// Sends one `/simulate` per distinct session key so the pool holds every
/// session the loop needs. Returns how many responses were wrong.
pub fn prewarm(
    conn: &mut ClientConnection,
    points: &[Point],
    expected: &[Expected],
) -> Result<u64, String> {
    let mut seen = HashSet::new();
    let mut wrong = 0;
    for (point, expected) in points.iter().zip(expected) {
        if seen.insert(point.scenario.session_key()) {
            let response = conn.post("/simulate", &point.body)?;
            if !expected.matches(&response) {
                eprintln!(
                    "perfbench: prewarm response for {} is wrong: {}",
                    point.body, response.body
                );
                wrong += 1;
            }
        }
    }
    Ok(wrong)
}

/// A `GET /metrics` scrape, reduced to the series the benchmark reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scrape {
    pub queue_wait: (f64, f64),
    pub evaluate: (f64, f64),
    pub serialize: (f64, f64),
    pub session_build: (f64, f64),
    pub batches: f64,
    pub batched: f64,
    pub solo: f64,
    pub errors: f64,
    pub shed: f64,
}

impl Scrape {
    pub fn take(conn: &mut ClientConnection) -> Result<Self, String> {
        let response = conn.get("/metrics")?;
        if response.status != 200 {
            return Err(format!("/metrics answered {}", response.status));
        }
        let mut scrape = Scrape::default();
        for line in response.body.lines().filter(|l| !l.starts_with('#')) {
            let Some((name, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            let slot = match name {
                "gnnerator_queue_wait_seconds_sum" => &mut scrape.queue_wait.0,
                "gnnerator_queue_wait_seconds_count" => &mut scrape.queue_wait.1,
                "gnnerator_evaluate_seconds_sum" => &mut scrape.evaluate.0,
                "gnnerator_evaluate_seconds_count" => &mut scrape.evaluate.1,
                "gnnerator_serialize_seconds_sum" => &mut scrape.serialize.0,
                "gnnerator_serialize_seconds_count" => &mut scrape.serialize.1,
                "gnnerator_session_build_seconds_sum" => &mut scrape.session_build.0,
                "gnnerator_session_build_seconds_count" => &mut scrape.session_build.1,
                "gnnerator_batches_total" => &mut scrape.batches,
                "gnnerator_batched_requests_total" => &mut scrape.batched,
                "gnnerator_solo_requests_total" => &mut scrape.solo,
                "gnnerator_errors_total" => &mut scrape.errors,
                "gnnerator_queue_shed_total" => &mut scrape.shed,
                _ => continue,
            };
            *slot = value;
        }
        Ok(scrape)
    }
}

/// Mean of a histogram between two scrapes, in µs (0 when nothing was
/// recorded in between).
pub fn delta_mean_us(before: (f64, f64), after: (f64, f64)) -> f64 {
    let count = after.1 - before.1;
    if count <= 0.0 {
        0.0
    } else {
        (after.0 - before.0) / count * 1e6
    }
}
