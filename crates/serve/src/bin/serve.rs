//! The GNNerator session server binary.
//!
//! Usage: `cargo run -p gnnerator-serve --release --bin serve -- \
//!     [--addr 127.0.0.1:8642] [--workers N] [--pool-capacity N] \
//!     [--queue-depth N] [--max-batch N] [--connection-inflight N] \
//!     [--idle-timeout-ms N] [--max-connections N]`
//!
//! Defaults come from [`ServeConfig::from_env`], so every knob is also
//! settable through `GNNERATOR_SERVE_*` environment variables (flags win).
//! The persistent artifact cache is configured through `GNNERATOR_CACHE`
//! (unset → `target/gnnerator-cache`; `off`, `0` or empty → disabled).
//! Deterministic fault injection arms from `GNNERATOR_FAULTS` /
//! `GNNERATOR_FAULTS_SEED` (see the `gnnerator-faults` crate).
//! An unknown flag, a flag without a value or a value that does not parse
//! exits with status 2 and a message naming the flag.
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

/// Parses `value` for `flag`, exiting with a usage error that names the
/// flag when it does not parse.
fn parse<T: FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag}: cannot parse {value:?}")))
}

fn main() {
    let mut addr = "127.0.0.1:8642".to_string();
    let mut config = ServeConfig::from_env();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--addr" => addr = value(),
            "--workers" => config.workers = parse(&flag, &value()),
            "--pool-capacity" => config.pool_capacity = parse(&flag, &value()),
            "--queue-depth" => config.queue_depth = parse(&flag, &value()),
            "--max-batch" => config.max_batch = parse(&flag, &value()),
            "--connection-inflight" => config.connection_inflight = parse(&flag, &value()),
            "--idle-timeout-ms" => {
                let ms: u64 = parse(&flag, &value());
                config.idle_timeout = Duration::from_millis(ms.max(1));
            }
            "--max-connections" => config.max_connections = parse(&flag, &value()),
            _ => usage_error(&format!("unknown flag {flag}")),
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
        "{} workers, pool capacity {}, queue depth {}, max batch {}, \
         {} in-flight/conn, idle timeout {} ms, max {} connections",
        config.workers,
        config.pool_capacity,
        config.queue_depth,
        config.max_batch,
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
