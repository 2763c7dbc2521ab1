//! The `serve` binary end to end: it starts on an ephemeral port with the
//! artifact cache off and a fault spec armed, takes its flags, answers its
//! probes, reports the armed spec on `/metrics` and exits 0 after
//! `POST /shutdown`; an unknown or unparseable flag or `GNNERATOR_SERVE_*`
//! variable exits 2 with a message naming it.

use gnnerator_serve::client;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Kills the server if a failed assertion leaves it running.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn the_binary_serves_reports_armed_faults_and_shuts_down_cleanly() {
    let child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--queue-depth",
            "1",
        ])
        .env("GNNERATOR_CACHE", "off")
        .env("GNNERATOR_FAULTS", "session_build:error")
        .stdout(Stdio::piped())
        .spawn()
        .expect("serve starts");
    let mut server = Server(child);
    // The pipe stays open until the process exits: its last line must not
    // hit a closed pipe.
    let mut stdout = BufReader::new(server.0.stdout.take().expect("piped stdout")).lines();
    let addr: SocketAddr = stdout
        .by_ref()
        .map(|line| line.expect("stdout is UTF-8"))
        .find_map(|line| {
            let rest = line.split_once("listening on http://")?.1;
            rest.split_whitespace().next()?.parse().ok()
        })
        .expect("a \"listening on\" line with the bound address");

    let health = client::get(addr, "/healthz").expect("healthz answers");
    assert_eq!(health.status, 200, "{}", health.body);
    let stats = client::get(addr, "/stats")
        .expect("stats answers")
        .json()
        .expect("stats are JSON");
    for (section, field) in [("workers", "configured"), ("admission", "queue_capacity")] {
        assert_eq!(
            stats.get(section).and_then(|s| s.get(field)?.as_u64()),
            Some(1),
            "{section}.{field} takes its flag"
        );
    }
    let metrics = client::get(addr, "/metrics").expect("metrics answers");
    assert_eq!(metrics.status, 200, "{}", metrics.body);
    assert!(
        metrics
            .body
            .lines()
            .any(|l| l == "gnnerator_faults_armed 1"),
        "{}",
        metrics.body
    );

    let shutdown = client::post(addr, "/shutdown", "").expect("shutdown answers");
    assert_eq!(shutdown.body, "{\"ok\": true}");
    let status = server.0.wait().expect("serve exits");
    assert!(status.success(), "serve exited with {status}");
    assert!(
        stdout.any(|line| line.is_ok_and(|l| l.contains("shut down cleanly"))),
        "no clean-shutdown line"
    );
}

#[test]
fn bad_flags_and_values_exit_2_naming_the_flag() {
    for (args, variable, named) in [
        (&["--workers", "abc"][..], None, "--workers"),
        (&["--queue_depth", "1"], None, "--queue_depth"),
        (&["--max-batch", "4"], None, "--max-batch"),
        (&["--workers", "0"], None, "--workers"),
        (
            &[],
            Some(("GNNERATOR_SERVE_POOL_CAPACITY", "0")),
            "GNNERATOR_SERVE_POOL_CAPACITY",
        ),
        (
            &[],
            Some(("GNNERATOR_SERVE_WORKERS", "abc")),
            "GNNERATOR_SERVE_WORKERS",
        ),
        (
            &[],
            Some(("GNNERATOR_SERVE_BREAKER_THRESHOLD", "x")),
            "GNNERATOR_SERVE_BREAKER_THRESHOLD",
        ),
        (
            &[],
            Some(("GNNERATOR_SERVE_WORKER", "4")),
            "GNNERATOR_SERVE_WORKER",
        ),
    ] {
        let mut command = Command::new(env!("CARGO_BIN_EXE_serve"));
        // An ephemeral port, so an input that is wrongly accepted starts a
        // server that cannot collide with anything; the deadline below
        // stops it.
        command
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .env("GNNERATOR_CACHE", "off")
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        if let Some((name, value)) = variable {
            command.env(name, value);
        }
        let mut server = Server(command.spawn().expect("serve runs"));
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            if let Some(status) = server.0.try_wait().expect("serve is waitable") {
                break status;
            }
            assert!(
                Instant::now() < deadline,
                "{args:?} {variable:?}: serve kept running"
            );
            std::thread::sleep(Duration::from_millis(20));
        };
        let mut stderr = String::new();
        server
            .0
            .stderr
            .take()
            .expect("stderr is piped")
            .read_to_string(&mut stderr)
            .expect("stderr reads");
        assert_eq!(status.code(), Some(2), "{args:?} {variable:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?} {variable:?}: {stderr}");
    }
}
