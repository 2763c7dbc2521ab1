//! The GNNerator session server binary.
//!
//! Usage: `cargo run -p gnnerator-serve --release --bin serve -- \
//!     [--addr 127.0.0.1:8642] [--workers N] [--pool-capacity N] \
//!     [--queue-depth N] [--connection-inflight N] \
//!     [--idle-timeout-ms N] [--max-connections N]`
//!
//! Every knob also reads a `GNNERATOR_SERVE_*` environment variable (flags
//! win); `BREAKER_THRESHOLD` and `BREAKER_BACKOFF_MS` are environment-only.
//! The persistent artifact cache is configured through `GNNERATOR_CACHE`
//! (unset → `target/gnnerator-cache`; `off`, `0` or empty → disabled).
//! Deterministic fault injection arms from `GNNERATOR_FAULTS` /
//! `GNNERATOR_FAULTS_SEED` (see the `gnnerator-faults` crate).
//! An unknown flag or `GNNERATOR_SERVE_*` variable, a flag without a value,
//! a value that does not parse, or 0 workers or pooled sessions exits with
//! status 2 and a message naming the flag or variable.
//! The server runs until a client posts `/shutdown`.

use gnnerator_graph::ArtifactCache;
use gnnerator_serve::{ServeConfig, SessionServer};
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

/// Reports a usage error on stderr and exits with status 2.
fn usage_error(message: &str) -> ! {
    eprintln!("serve: {message}");
    std::process::exit(2);
}

/// Parses `value` for `source` (a flag or variable name), exiting with a
/// usage error that names it when the value does not parse.
fn parse<T: FromStr>(source: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage_error(&format!("{source}: cannot parse {value:?}")))
}

/// Sets the knob that the flag or variable `name` stands for from `value`;
/// `false` when `name` stands for no knob.
fn set(config: &mut ServeConfig, name: &str, value: &str) -> bool {
    let millis = |ms: u64| Duration::from_millis(ms.max(1));
    // The server needs at least one worker and one pooled session.
    let at_least_one = |value: &str| match parse(name, value) {
        0 => usage_error(&format!("{name}: must be at least 1, got 0")),
        n => n,
    };
    match name {
        "--workers" | "GNNERATOR_SERVE_WORKERS" => config.workers = at_least_one(value),
        "--pool-capacity" | "GNNERATOR_SERVE_POOL_CAPACITY" => {
            config.pool_capacity = at_least_one(value);
        }
        "--queue-depth" | "GNNERATOR_SERVE_QUEUE_DEPTH" => config.queue_depth = parse(name, value),
        "--connection-inflight" | "GNNERATOR_SERVE_CONNECTION_INFLIGHT" => {
            config.connection_inflight = parse(name, value);
        }
        "--idle-timeout-ms" | "GNNERATOR_SERVE_IDLE_TIMEOUT_MS" => {
            config.idle_timeout = millis(parse(name, value));
        }
        "--max-connections" | "GNNERATOR_SERVE_MAX_CONNECTIONS" => {
            config.max_connections = parse(name, value);
        }
        "GNNERATOR_SERVE_BREAKER_THRESHOLD" => config.breaker.threshold = parse(name, value),
        "GNNERATOR_SERVE_BREAKER_BACKOFF_MS" => {
            config.breaker.base_backoff = millis(parse(name, value));
        }
        _ => return false,
    }
    true
}

fn main() {
    let mut addr = "127.0.0.1:8642".to_string();
    let mut config = ServeConfig::default();
    for (name, value) in std::env::vars_os() {
        let Some(name) = name.to_str().filter(|n| n.starts_with("GNNERATOR_SERVE_")) else {
            continue;
        };
        let value = value
            .to_str()
            .unwrap_or_else(|| usage_error(&format!("{name} is not UTF-8")));
        if !set(&mut config, name, value.trim()) {
            usage_error(&format!("unknown variable {name}"));
        }
    }
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")));
        if flag == "--addr" {
            addr = value;
        } else if !flag.starts_with("--") || !set(&mut config, &flag, &value) {
            usage_error(&format!("unknown flag {flag}"));
        }
    }

    match gnnerator_faults::init_from_env() {
        Ok(true) => {
            let armed: Vec<String> = gnnerator_faults::stats()
                .into_iter()
                .map(|point| point.name)
                .collect();
            println!("fault injection ARMED: {}", armed.join(", "));
        }
        Ok(false) => {}
        Err(message) => {
            eprintln!("bad {}: {message}", gnnerator_faults::FAULTS_ENV_VAR);
            std::process::exit(1);
        }
    }

    let cache = Arc::new(ArtifactCache::from_env());
    match cache.root() {
        Some(root) => println!("artifact cache: {}", root.display()),
        None => println!("artifact cache: disabled"),
    }
    config.artifact_cache = Some(cache);

    let summary = format!(
        "{} workers, pool capacity {}, queue depth {}, \
         {} in-flight/conn, idle timeout {} ms, max {} connections",
        config.workers,
        config.pool_capacity,
        config.queue_depth,
        config.connection_inflight,
        config.idle_timeout.as_millis(),
        config.max_connections,
    );
    let server = match SessionServer::start(addr.as_str(), config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("failed to bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "gnnerator-serve listening on http://{} ({summary})",
        server.local_addr(),
    );
    println!(
        "endpoints: POST /simulate, POST /compile, POST /sweep, GET /stats, \
         GET /metrics, GET /healthz, GET /readyz, POST /drain, POST /shutdown"
    );
    server.wait();
    println!("gnnerator-serve: shut down cleanly");
}
