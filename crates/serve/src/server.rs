//! The long-lived session server.
//!
//! A [`SessionServer`] owns a `TcpListener` and three kinds of threads:
//!
//! * an **acceptor** that spawns one lightweight thread per connection
//!   (bounded by [`ServeConfig::max_connections`]; excess connections are
//!   refused with `503` + `Retry-After`),
//! * **connection threads** that loop HTTP/1.1 keep-alive reads on one
//!   buffered socket — pipelined requests are read ahead (up to
//!   [`ServeConfig::connection_inflight`]) while earlier ones wait on a
//!   worker, and answered strictly in order — parse and validate inline,
//!   and push evaluation work into a bounded admission queue (a full queue
//!   sheds the request with `429` + `Retry-After` instead of queueing
//!   unbounded latency),
//! * **evaluation workers** that take one queued job at a time, oldest
//!   first, and answer it.
//!
//! A `/simulate` request whose session is already pooled, arriving while
//! the server is idle (nothing queued, nothing being evaluated), skips the
//! hand-off: its connection thread takes an evaluation slot and evaluates
//! it through the same guarded path a worker runs. Every evaluation, on
//! either path, holds one of [`ServeConfig::workers`] slots, so that count
//! still bounds concurrent evaluations; cold builds and contention go
//! through the queue.
//!
//! All scenario execution routes through the shared [`SessionPool`] and the
//! core crate's [`evaluate_scenario`] — the path `SweepRunner::run_one`
//! uses — so served results are bit-identical to sweep results.
//!
//! # Endpoints
//!
//! | endpoint         | body                        | answers with |
//! |------------------|-----------------------------|--------------|
//! | `POST /simulate` | one scenario object         | the evaluated point (seconds, cycles, speedups, `session_reused`, `latency_seconds`) |
//! | `POST /compile`  | one accelerator scenario    | the compiled-workload summary (no execution) |
//! | `POST /sweep`    | `{"scenarios": [...]}`      | every point, evaluated in order |
//! | `GET /stats`     | —                           | pool counters, admission counters, worker supervision, per-key breaker states, armed fault spec, queue-wait / session-build / evaluate / serialize latency histograms (p50/p90/p99) |
//! | `GET /metrics`   | —                           | the same telemetry as Prometheus text (version 0.0.4): counters, gauges and full histogram families |
//! | `GET /healthz`   | —                           | liveness: `200` unless a shutdown is in progress |
//! | `GET /readyz`    | —                           | readiness: `200` only with queue headroom and live workers; `503` with per-component detail otherwise (including while draining) |
//! | `POST /drain`    | —                           | `{"ok": true, "draining": true}`: flips `/readyz` to `503`, refuses new evaluation work, lets queued and in-flight jobs finish, then closes the listener |
//! | `POST /shutdown` | —                           | `{"ok": true}`, then stops accepting, wakes idle keep-alive connections and drains |
//!
//! `/simulate` responses additionally carry a per-request provenance
//! breakdown (queue wait → session build → evaluate → serialize, plus the
//! session key and backend) when the client opts in with `X-Provenance: 1`; the same spans feed the central
//! stage histograms either way.

use crate::hist::Histogram;
use crate::http::{
    read_request, write_response, HttpError, Request, ResponseOptions, READ_BUFFER_BYTES,
};
use crate::json::{json_f64, json_opt_f64, json_opt_u64, json_string, Json};
use crate::metrics::Metrics;
use crate::pool::{BreakerConfig, PoolError, SessionPool};
use crate::prom::PromText;
use crate::provenance::RequestProvenance;
use crate::queue::{EvalSlot, Job, JobKind, JobQueue, Reply, SubmitError};
use crate::request::scenario_from_json;
use gnnerator::{evaluate_scenario, ScenarioResult, ScenarioSpec};
use gnnerator_faults::lock_recover;
use gnnerator_graph::ArtifactCache;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a connection thread waits for a slow client *write* before
/// dropping the connection. (Read silence is governed by
/// [`ServeConfig::idle_timeout`].)
const CLIENT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a connection thread waits for an evaluation worker's reply
/// before answering `500`. Generous: a cold large-scale session build is
/// minutes, not seconds.
const WORKER_REPLY_TIMEOUT: Duration = Duration::from_secs(600);

/// Configuration for a [`SessionServer`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Evaluation worker threads (each evaluates one job at a time), and
    /// the bound on concurrent evaluations, connection threads' inline
    /// ones included.
    pub workers: usize,
    /// Warm sessions the pool holds before LRU eviction.
    pub pool_capacity: usize,
    /// Persistent artifact cache backing cold session builds, if any.
    pub artifact_cache: Option<Arc<ArtifactCache>>,
    /// Evaluation jobs admitted to the queue before load shedding (`429`).
    pub queue_depth: usize,
    /// Pipelined requests one connection may have unanswered before the
    /// server stops reading ahead on that socket.
    pub connection_inflight: usize,
    /// How long an idle keep-alive connection may sit silent before the
    /// server closes it.
    pub idle_timeout: Duration,
    /// Concurrent connections accepted before refusing with `503`.
    pub max_connections: usize,
    /// Per-session-key circuit breaker tuning: repeated cold-build failures
    /// quarantine the key behind `503` + `Retry-After`.
    pub breaker: BreakerConfig,
}

impl Default for ServeConfig {
    /// Workers scale with the machine (capped at 8); 32 warm sessions; no
    /// artifact cache (callers opt in, typically via
    /// [`ArtifactCache::from_env`]); a 256-deep admission queue, 8
    /// pipelined requests per connection, 30 s idle timeout and 1024
    /// concurrent connections.
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
                .min(8),
            pool_capacity: 32,
            artifact_cache: None,
            queue_depth: 256,
            connection_inflight: 8,
            idle_timeout: Duration::from_secs(30),
            max_connections: 1024,
            breaker: BreakerConfig::default(),
        }
    }
}

/// Latency/count accumulator for one endpoint.
#[derive(Debug, Default, Clone, Copy)]
struct EndpointStat {
    requests: usize,
    total_latency_seconds: f64,
}

#[derive(Debug, Default)]
struct EndpointStats {
    simulate: EndpointStat,
    compile: EndpointStat,
    sweep: EndpointStat,
    stats: EndpointStat,
}

/// Live connections, with enough of a handle (`try_clone`) to wake each
/// one's blocking read at shutdown.
#[derive(Default)]
struct ConnectionRegistry {
    streams: Mutex<HashMap<u64, TcpStream>>,
    next_id: AtomicU64,
    peak: AtomicUsize,
    total: AtomicUsize,
    refused: AtomicUsize,
}

impl ConnectionRegistry {
    fn register(&self, stream: &TcpStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut streams = lock_recover(&self.streams);
        streams.insert(id, clone);
        self.peak.fetch_max(streams.len(), Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        Some(id)
    }

    fn unregister(&self, id: u64) {
        lock_recover(&self.streams).remove(&id);
    }

    fn active(&self) -> usize {
        lock_recover(&self.streams).len()
    }

    /// Half-closes every registered socket's read side: idle keep-alive
    /// readers wake with EOF and drain, while responses still in flight
    /// write out normally.
    fn shutdown_all(&self) {
        for stream in lock_recover(&self.streams).values() {
            stream.shutdown(Shutdown::Read).ok();
        }
    }
}

/// State shared by the acceptor, every connection thread and every worker.
struct ServerState {
    pool: SessionPool,
    queue: JobQueue,
    metrics: Mutex<Metrics>,
    connections: ConnectionRegistry,
    shutdown: AtomicBool,
    /// Set by `POST /drain`: `/readyz` answers `503`, new evaluation work
    /// is refused, and a background thread closes the listener once the
    /// queue is empty and no evaluation holds a slot.
    draining: AtomicBool,
    /// The bound listener address — the shutdown path dials it to wake the
    /// blocking acceptor.
    addr: SocketAddr,
    started: Instant,
    requests: AtomicUsize,
    errors: AtomicUsize,
    endpoints: Mutex<EndpointStats>,
    // Admission knobs, kept here so `/stats` can report them.
    connection_inflight: usize,
    max_connections: usize,
    idle_timeout: Duration,
    // Worker supervision, reported by `/stats` and `/readyz`.
    configured_workers: usize,
    workers_alive: AtomicUsize,
    worker_panics: AtomicUsize,
    worker_respawns: AtomicUsize,
}

/// A running session server. Dropping the handle does *not* stop the
/// server; call [`SessionServer::shutdown`] (or `POST /shutdown`) for a
/// clean stop.
pub struct SessionServer {
    addr: SocketAddr,
    state: Arc<ServerState>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl SessionServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// acceptor and evaluation worker threads.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn start(addr: impl ToSocketAddrs, config: ServeConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let pool = SessionPool::new(config.pool_capacity, config.artifact_cache)
            .with_breaker(config.breaker);
        let state = Arc::new(ServerState {
            pool,
            queue: JobQueue::new(config.queue_depth, config.workers),
            metrics: Mutex::new(Metrics::default()),
            connections: ConnectionRegistry::default(),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            addr,
            started: Instant::now(),
            requests: AtomicUsize::new(0),
            errors: AtomicUsize::new(0),
            endpoints: Mutex::new(EndpointStats::default()),
            connection_inflight: config.connection_inflight.max(1),
            max_connections: config.max_connections.max(1),
            idle_timeout: config.idle_timeout,
            configured_workers: config.workers.max(1),
            // Counted from spawn, not from the thread's first instruction:
            // a worker not yet scheduled is alive, and work waits for it.
            workers_alive: AtomicUsize::new(config.workers.max(1)),
            worker_panics: AtomicUsize::new(0),
            worker_respawns: AtomicUsize::new(0),
        });

        let workers = (0..config.workers.max(1))
            .map(|_| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || eval_worker_loop(&state))
            })
            .collect();
        let acceptor = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || acceptor_loop(&listener, &state))
        };
        Ok(Self {
            addr,
            state,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (including the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current pool counters (handy for in-process tests; remote clients
    /// use `GET /stats`).
    pub fn pool_stats(&self) -> crate::pool::PoolStats {
        self.state.pool.stats()
    }

    /// Whether a graceful drain has been requested (`POST /drain`): the
    /// server stops admitting work and closes once in-flight jobs finish.
    pub fn is_draining(&self) -> bool {
        self.state.draining.load(Ordering::SeqCst)
    }

    /// Requests a stop and joins every thread: in-flight and queued
    /// requests finish, idle keep-alive connections are woken and closed,
    /// new connections are refused.
    pub fn shutdown(mut self) {
        trigger_shutdown(&self.state);
        self.join();
    }

    /// Blocks until the server stops (i.e. until some client posts
    /// `/shutdown`). This is what the `serve` binary runs on.
    pub fn wait(mut self) {
        self.join();
    }

    fn join(&mut self) {
        // Order matters: the acceptor joins every connection thread (which
        // may still be waiting on worker replies), so workers must outlive
        // it — the queue closes only after the acceptor returns.
        if let Some(acceptor) = self.acceptor.take() {
            acceptor.join().expect("acceptor thread panicked");
        }
        self.state.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Flags the server for shutdown, wakes idle keep-alive readers and nudges
/// the (blocking) acceptor with a throwaway connection so it observes the
/// flag.
fn trigger_shutdown(state: &ServerState) {
    state.shutdown.store(true, Ordering::SeqCst);
    state.connections.shutdown_all();
    let mut addr = state.addr;
    if addr.ip().is_unspecified() {
        // A wildcard bind (0.0.0.0 / ::) is not a dialable destination on
        // every platform; the listener is always reachable via loopback.
        addr.set_ip(match addr {
            SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect(addr); // wake the acceptor; dropped unread
}

/// Starts a graceful drain: readiness flips to `503` immediately (load
/// balancers stop routing here), new evaluation work is refused, and a
/// background thread waits for the queue to empty and every evaluation
/// slot to be returned before triggering the full shutdown that closes the
/// listener.
/// Idempotent — a second `POST /drain` changes nothing.
fn trigger_drain(state: &Arc<ServerState>) {
    if state.draining.swap(true, Ordering::SeqCst) {
        return; // already draining
    }
    let state = Arc::clone(state);
    std::thread::spawn(move || {
        while !state.queue.is_idle() {
            std::thread::sleep(Duration::from_millis(10));
        }
        trigger_shutdown(&state);
    });
}

fn acceptor_loop(listener: &TcpListener, state: &Arc<ServerState>) {
    let mut handles: Vec<JoinHandle<()>> = Vec::new();
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    break; // the wake-up (or a late client); refuse and stop
                }
                handles.retain(|handle| !handle.is_finished());
                if state.connections.active() >= state.max_connections {
                    refuse_connection(stream, state);
                    continue;
                }
                let state = Arc::clone(state);
                handles.push(std::thread::spawn(move || {
                    // A panicking connection must cost one socket, not the
                    // server: the thread dies anyway, but count it.
                    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        handle_connection(stream, &state);
                    }));
                    if caught.is_err() {
                        state.errors.fetch_add(1, Ordering::Relaxed);
                    }
                }));
            }
            Err(_) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // Transient accept errors (aborted handshakes, fd
                // exhaustion) are not fatal; back off briefly so a
                // persistent failure cannot busy-spin this thread.
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    for handle in handles {
        let _ = handle.join();
    }
}

/// Answers a connection the server has no capacity for, without spawning a
/// thread for it.
fn refuse_connection(mut stream: TcpStream, state: &ServerState) {
    state.connections.refused.fetch_add(1, Ordering::Relaxed);
    stream.set_write_timeout(Some(Duration::from_secs(5))).ok();
    write_response(
        &mut stream,
        503,
        &error_body("connection limit reached; retry shortly"),
        ResponseOptions::close().with_retry_after(1),
    )
    .ok();
}

/// `true` when the next `read_request` will make progress without waiting:
/// buffered bytes, immediately readable bytes (probed with one
/// non-blocking refill, which stays buffered), or a pending EOF the caller
/// should observe. The connection loop reads ahead only when the client
/// has actually sent more.
fn has_pending_input(reader: &mut BufReader<TcpStream>) -> bool {
    if !reader.buffer().is_empty() {
        return true;
    }
    reader.get_ref().set_nonblocking(true).ok();
    let probed = reader.fill_buf().is_ok(); // an empty refill is the EOF
    reader.get_ref().set_nonblocking(false).ok();
    probed // otherwise WouldBlock (nothing yet) or a dying socket
}

/// One admitted-but-unanswered request on a connection. Responses are
/// written strictly in request order.
enum Pending {
    /// Answered inline (stats, shutdown, errors, shed requests).
    Ready {
        status: u16,
        body: String,
        keep_alive: bool,
        retry_after: Option<u32>,
        /// `Content-Type` override (`GET /metrics` answers Prometheus text,
        /// everything else JSON).
        content_type: Option<&'static str>,
    },
    /// Waiting on an evaluation worker.
    Waiting {
        receiver: Receiver<Reply>,
        keep_alive: bool,
    },
}

impl Pending {
    /// An evaluation's answer. Backpressure statuses produced past
    /// admission (expired deadlines, open circuit breakers) advertise a
    /// retry hint, matching the shed path.
    fn answered(reply: Reply, keep_alive: bool) -> Self {
        Pending::Ready {
            retry_after: matches!(reply.status, 429 | 503).then_some(1),
            status: reply.status,
            body: reply.body,
            keep_alive,
            content_type: None,
        }
    }
}

fn handle_connection(stream: TcpStream, state: &Arc<ServerState>) {
    let Some(id) = state.connections.register(&stream) else {
        return; // try_clone failed: the socket is already dying
    };
    // Unregister on every exit path, including panics (caught upstream).
    struct Unregister<'a> {
        state: &'a ServerState,
        id: u64,
    }
    impl Drop for Unregister<'_> {
        fn drop(&mut self) {
            self.state.connections.unregister(self.id);
        }
    }
    let _guard = Unregister { state, id };
    // The flag check must come *after* registration: trigger_shutdown sets
    // the flag before wielding the registry, so a connection that races it
    // either gets its read shut down or observes the flag here.
    if state.shutdown.load(Ordering::SeqCst) {
        return;
    }
    serve_connection(stream, state);
}

fn serve_connection(stream: TcpStream, state: &Arc<ServerState>) {
    stream.set_read_timeout(Some(state.idle_timeout)).ok();
    stream.set_write_timeout(Some(CLIENT_IO_TIMEOUT)).ok();
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::with_capacity(READ_BUFFER_BYTES, stream);
    let mut inflight: VecDeque<Pending> = VecDeque::new();
    let mut reads_done = false;
    loop {
        // Admit requests: block for the first one, then read ahead only
        // while an earlier request still waits on a worker, pipelined bytes
        // have actually arrived and the in-flight cap allows. Responses are
        // never reordered; reading ahead lets a pipelined client's later
        // requests reach other workers while earlier ones are evaluated.
        // With every earlier answer ready, writing it comes first.
        while !reads_done && inflight.len() < state.connection_inflight {
            if !inflight.is_empty() {
                let awaiting_worker = inflight
                    .iter()
                    .any(|pending| matches!(pending, Pending::Waiting { .. }));
                if !awaiting_worker || !has_pending_input(&mut reader) {
                    break;
                }
            }
            match read_request(&mut reader) {
                Ok(Some(request)) => {
                    state.requests.fetch_add(1, Ordering::Relaxed);
                    inflight.push_back(admit(request, state));
                }
                Ok(None) => {
                    reads_done = true; // clean EOF or idle timeout
                }
                Err(HttpError { status, message }) => {
                    // A parse failure leaves the stream position undefined:
                    // answer (after any earlier responses) and close.
                    inflight.push_back(Pending::Ready {
                        status,
                        body: error_body(&message),
                        keep_alive: false,
                        retry_after: None,
                        content_type: None,
                    });
                    reads_done = true;
                }
            }
        }
        let Some(pending) = inflight.pop_front() else {
            return; // idle close, clean EOF, or shutdown wake-up
        };
        let (status, body, mut keep_alive, retry_after, content_type) = resolve(pending);
        if status >= 400 {
            state.errors.fetch_add(1, Ordering::Relaxed);
        }
        if reads_done && inflight.is_empty() {
            keep_alive = false; // nothing further can arrive on this socket
        }
        if state.shutdown.load(Ordering::SeqCst) {
            keep_alive = false;
        }
        let mut options = if keep_alive {
            ResponseOptions::keep_alive()
        } else {
            ResponseOptions::close()
        };
        if let Some(seconds) = retry_after {
            options = options.with_retry_after(seconds);
        }
        if let Some(content_type) = content_type {
            options = options.with_content_type(content_type);
        }
        if write_response(reader.get_mut(), status, &body, options).is_err() || !keep_alive {
            return; // any replies still pending are dropped (send is a no-op)
        }
    }
}

/// Blocks until `pending` has a response: `(status, body, keep_alive,
/// retry_after, content_type)`.
fn resolve(pending: Pending) -> (u16, String, bool, Option<u32>, Option<&'static str>) {
    match pending {
        Pending::Ready {
            status,
            body,
            keep_alive,
            retry_after,
            content_type,
        } => (status, body, keep_alive, retry_after, content_type),
        Pending::Waiting {
            receiver,
            keep_alive,
        } => match receiver.recv_timeout(WORKER_REPLY_TIMEOUT) {
            Ok(reply) => resolve(Pending::answered(reply, keep_alive)),
            Err(_) => (
                500,
                error_body("evaluation did not complete"),
                false,
                None,
                None,
            ),
        },
    }
}

/// The dispatchable path: everything before any query string (no endpoint
/// reads queries, but `GET /stats?probe=1` from a monitoring client must
/// not 404).
fn route(request: &Request) -> &str {
    request.path.split('?').next().unwrap_or("")
}

fn record_endpoint_latency(state: &ServerState, path: &str, seconds: f64) {
    let mut endpoints = lock_recover(&state.endpoints);
    let stat = match path {
        "/simulate" => &mut endpoints.simulate,
        "/compile" => &mut endpoints.compile,
        "/sweep" => &mut endpoints.sweep,
        "/stats" => &mut endpoints.stats,
        _ => return,
    };
    stat.requests += 1;
    stat.total_latency_seconds += seconds;
}

fn error_body(message: &str) -> String {
    format!("{{\"error\": {}}}", json_string(message))
}

/// Maps a pool lookup failure to its HTTP status: an open circuit breaker
/// is backpressure (`503`, with `Retry-After` attached in [`resolve`]),
/// while a failed build is a server error (`500`).
fn pool_error_status(error: &PoolError) -> u16 {
    match error {
        PoolError::CircuitOpen { .. } => 503,
        PoolError::Build(_) => 500,
    }
}

/// Parses, validates and routes one request on the connection thread.
/// Cheap requests answer inline; evaluation work is submitted to the
/// bounded queue (shedding with `429` when full).
fn admit(request: Request, state: &Arc<ServerState>) -> Pending {
    let keep_alive = request.keep_alive;
    let deadline = request
        .deadline_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let ready = |status: u16, body: String| Pending::Ready {
        status,
        body,
        keep_alive,
        retry_after: None,
        content_type: None,
    };
    let provenance = request.provenance;
    match (request.method.as_str(), route(&request)) {
        ("POST", "/simulate") => {
            match parse_body(&request.body).and_then(|json| scenario_from_json(&json)) {
                Ok(scenario) => submit(
                    JobKind::Simulate(Box::new(scenario)),
                    keep_alive,
                    deadline,
                    provenance,
                    state,
                ),
                Err(message) => ready(400, error_body(&message)),
            }
        }
        ("POST", "/compile") => {
            match parse_body(&request.body).and_then(|json| scenario_from_json(&json)) {
                Ok(scenario) if !scenario.backend.is_accelerator() => ready(
                    400,
                    error_body("only accelerator scenarios compile; baselines are analytical"),
                ),
                Ok(scenario) => submit(
                    JobKind::Compile(Box::new(scenario)),
                    keep_alive,
                    deadline,
                    false,
                    state,
                ),
                Err(message) => ready(400, error_body(&message)),
            }
        }
        ("POST", "/sweep") => match parse_sweep(&request.body) {
            Ok(scenarios) => submit(
                JobKind::Sweep(scenarios),
                keep_alive,
                deadline,
                false,
                state,
            ),
            Err(message) => ready(400, error_body(&message)),
        },
        ("GET", "/stats") => {
            let started = Instant::now();
            let body = stats_body(state);
            record_endpoint_latency(state, "/stats", started.elapsed().as_secs_f64());
            ready(200, body)
        }
        ("GET", "/healthz") => {
            // Liveness: the process is up and able to answer. Only a
            // shutdown in progress makes it unhealthy.
            if state.shutdown.load(Ordering::SeqCst) {
                ready(
                    503,
                    "{\"ok\": false, \"reason\": \"shutting down\"}".to_string(),
                )
            } else {
                ready(200, "{\"ok\": true}".to_string())
            }
        }
        ("GET", "/metrics") => Pending::Ready {
            status: 200,
            body: metrics_body(state),
            keep_alive,
            retry_after: None,
            content_type: Some("text/plain; version=0.0.4; charset=utf-8"),
        },
        ("GET", "/readyz") => {
            let (status, body) = readyz_body(state);
            ready(status, body)
        }
        ("POST", "/drain") => {
            trigger_drain(state);
            ready(200, "{\"ok\": true, \"draining\": true}".to_string())
        }
        ("POST", "/shutdown") => {
            trigger_shutdown(state);
            Pending::Ready {
                status: 200,
                body: "{\"ok\": true}".to_string(),
                keep_alive: false,
                retry_after: None,
                content_type: None,
            }
        }
        (_, "/simulate" | "/compile" | "/sweep" | "/shutdown" | "/drain") => {
            ready(405, error_body("use POST for this endpoint"))
        }
        (_, "/stats" | "/metrics" | "/healthz" | "/readyz") => {
            ready(405, error_body("use GET for this endpoint"))
        }
        _ => ready(
            404,
            error_body(&format!("no such endpoint {}", request.path)),
        ),
    }
}

/// Readiness: whether this server should receive new traffic *right now*.
/// Not ready (`503`) while shutting down, with the admission queue full, or
/// with no live evaluation worker; the body itemises each component so an
/// operator can see exactly which gate failed.
fn readyz_body(state: &ServerState) -> (u16, String) {
    let shutting_down = state.shutdown.load(Ordering::SeqCst);
    let draining = state.draining.load(Ordering::SeqCst);
    let depth = state.queue.depth();
    let capacity = state.queue.capacity();
    let queue_ready = depth < capacity;
    let alive = state.workers_alive.load(Ordering::SeqCst);
    let workers_ready = alive > 0;
    let pool = state.pool.stats();
    let ready = !shutting_down && !draining && queue_ready && workers_ready;
    let body = format!(
        "{{\"ready\": {ready}, \"shutting_down\": {shutting_down}, \"draining\": {draining}, \
         \"queue\": {{\"ready\": {queue_ready}, \"depth\": {depth}, \"capacity\": {capacity}}}, \
         \"workers\": {{\"ready\": {workers_ready}, \"alive\": {alive}, \"configured\": {}, \
         \"panics\": {}, \"respawns\": {}}}, \
         \"breaker\": {{\"quarantined_keys\": {}, \"trips\": {}}}}}",
        state.configured_workers,
        state.worker_panics.load(Ordering::Relaxed),
        state.worker_respawns.load(Ordering::Relaxed),
        pool.quarantined_keys,
        pool.breaker_trips,
    );
    (if ready { 200 } else { 503 }, body)
}

/// Submits evaluation work to the admission queue; a full queue sheds the
/// request (`429` + `Retry-After`, connection stays usable), a closed queue
/// answers `503` on a closing connection. A request whose deadline has
/// already passed (`X-Deadline-Ms: 0` against any queue wait) is answered
/// `503` + `Retry-After` without entering the queue.
///
/// A `/simulate` request whose session is already pooled is evaluated
/// right here when [`JobQueue::try_claim_idle`] grants a slot: the server
/// is idle, so there is nobody to overtake, and the worker hand-off would
/// only add two thread wake-ups.
fn submit(
    kind: JobKind,
    keep_alive: bool,
    deadline: Option<Instant>,
    provenance: bool,
    state: &Arc<ServerState>,
) -> Pending {
    if state.draining.load(Ordering::SeqCst) {
        return Pending::Ready {
            status: 503,
            body: error_body("server is draining; no new work is admitted"),
            keep_alive,
            retry_after: Some(1),
            content_type: None,
        };
    }
    if deadline.is_some_and(|deadline| Instant::now() > deadline) {
        return Pending::Ready {
            status: 503,
            body: error_body("deadline expired before admission"),
            keep_alive,
            retry_after: Some(1),
            content_type: None,
        };
    }
    let (reply, receiver) = channel();
    let job = Job {
        kind,
        reply,
        enqueued: Instant::now(),
        deadline,
        provenance,
    };
    let warm = matches!(&job.kind, JobKind::Simulate(scenario) if state.pool.is_built(scenario));
    if let Some(slot) = warm.then(|| state.queue.try_claim_idle()).flatten() {
        evaluate_guarded(job, slot, state);
        return match receiver.try_recv() {
            Ok(reply) => Pending::answered(reply, keep_alive),
            Err(_) => Pending::Ready {
                status: 500,
                body: error_body("evaluation did not complete"),
                keep_alive: false,
                retry_after: None,
                content_type: None,
            },
        };
    }
    match state.queue.submit(job) {
        Ok(()) => Pending::Waiting {
            receiver,
            keep_alive,
        },
        Err(SubmitError::Full) => Pending::Ready {
            status: 429,
            body: error_body("server is at capacity; retry shortly"),
            keep_alive,
            retry_after: Some(1),
            content_type: None,
        },
        Err(SubmitError::Closed) => Pending::Ready {
            status: 503,
            body: error_body("server is shutting down"),
            keep_alive: false,
            retry_after: None,
            content_type: None,
        },
    }
}

fn parse_body(body: &str) -> Result<Json, String> {
    if body.trim().is_empty() {
        return Err("empty request body; expected a JSON object".to_string());
    }
    Json::parse(body).ok_or_else(|| "malformed JSON body".to_string())
}

fn parse_sweep(body: &str) -> Result<Vec<ScenarioSpec>, String> {
    let json = parse_body(body)?;
    let Some(entries) = json.get("scenarios").and_then(Json::as_array) else {
        return Err(
            "body must be {\"scenarios\": [...]} with an array of scenario objects".to_string(),
        );
    };
    entries
        .iter()
        .enumerate()
        .map(|(index, entry)| {
            scenario_from_json(entry).map_err(|message| format!("scenario {index}: {message}"))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Evaluation workers
// ---------------------------------------------------------------------------

/// The evaluation worker loop: one guarded evaluation per job, each in the
/// slot [`JobQueue::next_job`] handed out with it. The loop only exits
/// once the queue is closed and drained.
fn eval_worker_loop(state: &ServerState) {
    while let Some((job, slot)) = state.queue.next_job() {
        evaluate_guarded(job, slot, state);
    }
    state.workers_alive.fetch_sub(1, Ordering::SeqCst);
}

/// Evaluates one job in `slot`, on a worker or inline on a connection
/// thread alike, then answers it. The slot is returned first, so a client
/// that sends its next request as soon as it hears back finds the server
/// idle. A panic (injected via the `eval` failpoint or real) is caught
/// here: the panic and the evaluator's recovery are counted for `/stats`,
/// the job is answered with a typed `500` instead of waiting out the reply
/// timeout, and the evaluator keeps serving.
fn evaluate_guarded(job: Job, slot: EvalSlot<'_>, state: &ServerState) {
    let sender = job.reply.clone();
    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| process_job(job, state)));
    drop(slot);
    let reply = outcome.unwrap_or_else(|_| {
        state.worker_panics.fetch_add(1, Ordering::Relaxed);
        state.worker_respawns.fetch_add(1, Ordering::Relaxed);
        Reply {
            status: 500,
            body: error_body("evaluation worker panicked; the request was aborted"),
        }
    });
    let _ = sender.send(reply); // a vanished client's receiver is gone
}

fn process_job(job: Job, state: &ServerState) -> Reply {
    let queue_wait = job.enqueued.elapsed().as_secs_f64();
    lock_recover(&state.metrics).queue_wait.record(queue_wait);
    let (path, (status, body)) = match &job.kind {
        JobKind::Simulate(scenario) => (
            "/simulate",
            simulate_response(scenario, &job, queue_wait, state),
        ),
        JobKind::Compile(scenario) => ("/compile", compile_response(scenario, state, job.enqueued)),
        JobKind::Sweep(scenarios) => ("/sweep", sweep_response(scenarios, state, job.enqueued)),
    };
    record_endpoint_latency(state, path, job.enqueued.elapsed().as_secs_f64());
    Reply { status, body }
}

/// Answers one `/simulate` job: its own pool lookup and evaluation, the
/// point, and the provenance breakdown when the client asked for it.
fn simulate_response(
    scenario: &ScenarioSpec,
    job: &Job,
    queue_wait: f64,
    state: &ServerState,
) -> (u16, String) {
    let build_started = Instant::now();
    let lookup = state.pool.get(scenario);
    let build_seconds = build_started.elapsed().as_secs_f64();
    let evaluated =
        lookup.map(|lookup| (lookup.reused, evaluate_scenario(scenario, &lookup.session)));
    {
        let mut metrics = lock_recover(&state.metrics);
        metrics.session_build.record(build_seconds);
        if let Ok((_, Ok(result))) = &evaluated {
            metrics.evaluate.record(result.simulate_seconds);
        }
    }
    let (reused, result) = match evaluated {
        Ok((reused, Ok(result))) => (reused, result),
        Ok((_, Err(e))) => return (500, error_body(&e.to_string())),
        Err(e) => return (pool_error_status(&e), error_body(&e.to_string())),
    };
    let serialize_started = Instant::now();
    let mut body = point_json(
        &result,
        Some(ServingInfo {
            reused,
            latency_seconds: job.enqueued.elapsed().as_secs_f64(),
        }),
    );
    let serialize_seconds = serialize_started.elapsed().as_secs_f64();
    lock_recover(&state.metrics)
        .serialize
        .record(serialize_seconds);
    if job.provenance {
        let mut provenance = RequestProvenance {
            session_key: SessionPool::key_label(&scenario.session_key()),
            backend: result.backend().as_str().to_string(),
            session_reused: reused,
            spans: Vec::new(),
        };
        provenance.span("queue_wait", queue_wait);
        provenance.span("session_build", if reused { 0.0 } else { build_seconds });
        provenance.span("evaluate", result.simulate_seconds);
        provenance.span("serialize", serialize_seconds);
        body.pop(); // splice into the closed point object
        body.push_str(&format!(
            ", \"provenance\": {}}}",
            provenance_json(&provenance)
        ));
    }
    (200, body)
}

/// Renders a [`RequestProvenance`] as the JSON object attached to a
/// `/simulate` response under `"provenance"`.
fn provenance_json(provenance: &RequestProvenance) -> String {
    let spans = provenance
        .spans
        .iter()
        .map(|span| {
            format!(
                "{{\"stage\": {}, \"seconds\": {}}}",
                json_string(span.stage),
                json_f64(span.seconds),
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"session_key\": {}, \"backend\": {}, \
         \"session_reused\": {}, \"total_seconds\": {}, \"spans\": [{}]}}",
        json_string(&provenance.session_key),
        json_string(&provenance.backend),
        provenance.session_reused,
        json_f64(provenance.total_seconds()),
        spans,
    )
}

fn compile_response(
    scenario: &ScenarioSpec,
    state: &ServerState,
    enqueued: Instant,
) -> (u16, String) {
    let lookup = match state.pool.get(scenario) {
        Ok(lookup) => lookup,
        Err(e) => return (pool_error_status(&e), error_body(&e.to_string())),
    };
    let workload = match lookup.session.compile(&scenario.config, scenario.dataflow) {
        Ok(workload) => workload,
        Err(e) => return (500, error_body(&e.to_string())),
    };
    // `cached_shard_plans` counts the summaries held by this session's
    // dataset, shared across every model served over it.
    let body = format!(
        "{{\"model\": {}, \"dataset\": {}, \"config\": {}, \"dataflow\": {}, \
         \"num_layers\": {}, \"num_nodes\": {}, \"num_edges\": {}, \
         \"cached_shard_plans\": {}, \"session_reused\": {}, \"latency_seconds\": {}}}",
        json_string(workload.model_name()),
        json_string(workload.dataset_name()),
        json_string(&workload.config().name),
        json_string(&workload.dataflow().to_string()),
        workload.program().num_layers(),
        lookup.session.num_nodes(),
        lookup.session.num_edges(),
        lookup.session.cached_shard_plans(),
        lookup.reused,
        json_f64(enqueued.elapsed().as_secs_f64()),
    );
    (200, body)
}

/// Evaluates a `/sweep` body in input order — one pool lookup and one
/// evaluation per scenario — and stops at the first failing index, like
/// [`SweepRunner::run_serial`](gnnerator::SweepRunner::run_serial).
fn sweep_response(
    scenarios: &[ScenarioSpec],
    state: &ServerState,
    enqueued: Instant,
) -> (u16, String) {
    let mut points = Vec::with_capacity(scenarios.len());
    for (index, scenario) in scenarios.iter().enumerate() {
        // A quarantined key is `503` backpressure, a failed build or
        // evaluation `500`.
        let evaluated = state
            .pool
            .get(scenario)
            .map_err(|e| (pool_error_status(&e), e.to_string()))
            .and_then(|lookup| {
                evaluate_scenario(scenario, &lookup.session).map_err(|e| (500, e.to_string()))
            });
        match evaluated {
            Ok(result) => {
                lock_recover(&state.metrics)
                    .evaluate
                    .record(result.simulate_seconds);
                points.push(point_json(&result, None));
            }
            Err((status, message)) => {
                return (status, error_body(&format!("scenario {index}: {message}")))
            }
        }
    }
    let body = format!(
        "{{\"count\": {}, \"latency_seconds\": {}, \"points\": [{}]}}",
        points.len(),
        json_f64(enqueued.elapsed().as_secs_f64()),
        points.join(", "),
    );
    (200, body)
}

/// Serving-side extras appended to a `/simulate` point.
struct ServingInfo {
    reused: bool,
    latency_seconds: f64,
}

/// Renders one evaluated point. The numeric columns mirror
/// `BENCH_sweep.json`'s rows (same names, same null-for-non-finite policy);
/// `session_reused`/`latency_seconds` are appended for `/simulate`
/// responses.
fn point_json(result: &ScenarioResult, serving: Option<ServingInfo>) -> String {
    let report = result.report.as_ref();
    let mut body = format!(
        "{{\"label\": {}, \"backend\": {}, \"network\": {}, \"dataset\": {}, \
         \"dataflow\": {}, \"config\": {}, \"num_nodes\": {}, \"num_edges\": {}, \
         \"seconds\": {}, \"total_cycles\": {}, \"dram_bytes\": {}, \
         \"baseline_gpu_seconds\": {}, \"baseline_hygcn_seconds\": {}, \
         \"speedup_vs_gpu\": {}, \"speedup_vs_hygcn\": {}",
        json_string(&result.scenario.label()),
        json_string(result.backend().as_str()),
        json_string(result.scenario.network.short_name()),
        json_string(result.scenario.dataset.name),
        json_string(&result.scenario.dataflow.to_string()),
        json_string(&result.scenario.config.name),
        result.num_nodes,
        result.num_edges,
        json_f64(result.seconds()),
        json_opt_u64(result.evaluation.total_cycles),
        json_opt_u64(result.evaluation.dram_bytes),
        json_opt_f64(result.baseline_seconds.map(|b| b.gpu)),
        json_opt_f64(result.baseline_seconds.map(|b| b.hygcn)),
        json_opt_f64(result.speedup_vs_gpu()),
        json_opt_f64(result.speedup_vs_hygcn()),
    );
    if let Some(report) = report {
        body.push_str(&format!(
            ", \"occupancy\": {}, \"occupied_shards\": {}",
            json_f64(report.shard_occupancy()),
            report.occupied_shards(),
        ));
    }
    if let Some(serving) = serving {
        body.push_str(&format!(
            ", \"session_reused\": {}, \"latency_seconds\": {}",
            serving.reused,
            json_f64(serving.latency_seconds),
        ));
    }
    body.push('}');
    body
}

fn histogram_json(histogram: &Histogram) -> String {
    format!(
        "{{\"count\": {}, \"mean_seconds\": {}, \"min_seconds\": {}, \"max_seconds\": {}, \
         \"p50_seconds\": {}, \"p90_seconds\": {}, \"p99_seconds\": {}}}",
        histogram.count(),
        json_f64(histogram.mean()),
        json_f64(histogram.min()),
        json_f64(histogram.max()),
        json_f64(histogram.quantile(0.50)),
        json_f64(histogram.quantile(0.90)),
        json_f64(histogram.quantile(0.99)),
    )
}

fn stats_body(state: &ServerState) -> String {
    let pool = state.pool.stats();
    let endpoints = lock_recover(&state.endpoints);
    let endpoint = |name: &str, stat: &EndpointStat| {
        let mean = if stat.requests == 0 {
            0.0
        } else {
            stat.total_latency_seconds / stat.requests as f64
        };
        format!(
            "{}: {{\"requests\": {}, \"total_latency_seconds\": {}, \"mean_latency_seconds\": {}}}",
            json_string(name),
            stat.requests,
            json_f64(stat.total_latency_seconds),
            json_f64(mean),
        )
    };
    let endpoints_json = format!(
        "{}, {}, {}, {}",
        endpoint("simulate", &endpoints.simulate),
        endpoint("compile", &endpoints.compile),
        endpoint("sweep", &endpoints.sweep),
        endpoint("stats", &endpoints.stats),
    );
    drop(endpoints);
    let admission = format!(
        "{{\"queue_capacity\": {}, \"queue_depth\": {}, \"peak_queue_depth\": {}, \
         \"shed\": {}, \"expired\": {}, \"inline\": {}, \"active_connections\": {}, \
         \"peak_connections\": {}, \"total_connections\": {}, \"refused_connections\": {}, \
         \"connection_inflight_cap\": {}, \"max_connections\": {}, \
         \"idle_timeout_seconds\": {}}}",
        state.queue.capacity(),
        state.queue.depth(),
        state.queue.peak_depth(),
        state.queue.shed_count(),
        state.queue.expired_count(),
        state.queue.idle_claim_count(),
        state.connections.active(),
        state.connections.peak.load(Ordering::Relaxed),
        state.connections.total.load(Ordering::Relaxed),
        state.connections.refused.load(Ordering::Relaxed),
        state.connection_inflight,
        state.max_connections,
        json_f64(state.idle_timeout.as_secs_f64()),
    );
    let metrics = lock_recover(&state.metrics);
    let latency = format!(
        "{{\"queue_wait\": {}, \"session_build\": {}, \"evaluate\": {}, \"serialize\": {}}}",
        histogram_json(&metrics.queue_wait),
        histogram_json(&metrics.session_build),
        histogram_json(&metrics.evaluate),
        histogram_json(&metrics.serialize),
    );
    drop(metrics);
    let workers = format!(
        "{{\"configured\": {}, \"alive\": {}, \"panics\": {}, \"respawns\": {}}}",
        state.configured_workers,
        state.workers_alive.load(Ordering::SeqCst),
        state.worker_panics.load(Ordering::Relaxed),
        state.worker_respawns.load(Ordering::Relaxed),
    );
    let faults = gnnerator_faults::stats()
        .into_iter()
        .map(|point| {
            format!(
                "{{\"name\": {}, \"hits\": {}, \"trips\": {}}}",
                json_string(&point.name),
                point.hits,
                point.trips,
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let faults_armed = match gnnerator_faults::armed_spec() {
        Some(spec) => json_string(&spec),
        None => "null".to_string(),
    };
    let breaker_keys = state
        .pool
        .breaker_states()
        .into_iter()
        .map(|breaker| {
            format!(
                "{{\"key\": {}, \"consecutive_failures\": {}, \"opens\": {}, \
                 \"open\": {}, \"retry_after_seconds\": {}}}",
                json_string(&breaker.key),
                breaker.consecutive_failures,
                breaker.opens,
                breaker.open,
                json_f64(breaker.retry_after_seconds),
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"uptime_seconds\": {}, \"requests\": {}, \"errors\": {}, \
         \"pool\": {{\"size\": {}, \"capacity\": {}, \"hits\": {}, \"misses\": {}, \
         \"sessions_built\": {}, \"evictions\": {}, \"datasets_synthesized\": {}, \
         \"datasets_loaded\": {}, \"breaker_trips\": {}, \"breaker_rejections\": {}, \
         \"quarantined_keys\": {}, \"corrupt_artifacts\": {}}}, \
         \"breaker_keys\": [{breaker_keys}], \
         \"workers\": {}, \"faults\": [{}], \
         \"faults_armed\": {faults_armed}, \"admission\": {}, \
         \"latency\": {}, \"endpoints\": {{{}}}}}",
        json_f64(state.started.elapsed().as_secs_f64()),
        state.requests.load(Ordering::Relaxed),
        state.errors.load(Ordering::Relaxed),
        pool.size,
        pool.capacity,
        pool.hits,
        pool.misses,
        pool.sessions_built,
        pool.evictions,
        pool.datasets_synthesized,
        pool.datasets_loaded,
        pool.breaker_trips,
        pool.breaker_rejections,
        pool.quarantined_keys,
        pool.corrupt_artifacts,
        workers,
        faults,
        admission,
        latency,
        endpoints_json,
    )
}

/// Renders the unified telemetry as Prometheus text (exposition format
/// 0.0.4) for `GET /metrics`: request/error counters, the four stage
/// histograms, pool and admission counters, worker liveness, per-key
/// breaker states, and fault-injection hit/trip counts.
fn metrics_body(state: &ServerState) -> String {
    let mut prom = PromText::new();
    prom.counter(
        "gnnerator_requests_total",
        "HTTP requests received.",
        state.requests.load(Ordering::Relaxed) as u64,
    );
    prom.counter(
        "gnnerator_errors_total",
        "HTTP responses with status >= 400.",
        state.errors.load(Ordering::Relaxed) as u64,
    );
    prom.gauge(
        "gnnerator_uptime_seconds",
        "Seconds since the server started.",
        state.started.elapsed().as_secs_f64(),
    );
    prom.gauge(
        "gnnerator_draining",
        "1 while a graceful drain is in progress.",
        if state.draining.load(Ordering::SeqCst) {
            1.0
        } else {
            0.0
        },
    );
    prom.gauge(
        "gnnerator_shutting_down",
        "1 once shutdown has been triggered.",
        if state.shutdown.load(Ordering::SeqCst) {
            1.0
        } else {
            0.0
        },
    );

    // Stage latency histograms.
    {
        let metrics = lock_recover(&state.metrics);
        prom.histogram(
            "gnnerator_queue_wait_seconds",
            "Enqueue to worker-pickup latency per request.",
            &metrics.queue_wait,
        );
        prom.histogram(
            "gnnerator_session_build_seconds",
            "Session lookup/build latency per evaluation pass.",
            &metrics.session_build,
        );
        prom.histogram(
            "gnnerator_evaluate_seconds",
            "Scenario evaluation latency per request.",
            &metrics.evaluate,
        );
        prom.histogram(
            "gnnerator_serialize_seconds",
            "Response serialization latency per request.",
            &metrics.serialize,
        );
    }

    // Session pool.
    let pool = state.pool.stats();
    prom.gauge(
        "gnnerator_pool_sessions",
        "Warm sessions currently held by the pool.",
        pool.size as f64,
    );
    prom.gauge(
        "gnnerator_pool_capacity",
        "Maximum warm sessions before LRU eviction.",
        pool.capacity as f64,
    );
    prom.counter(
        "gnnerator_pool_hits_total",
        "Pool lookups answered by a warm session.",
        pool.hits as u64,
    );
    prom.counter(
        "gnnerator_pool_misses_total",
        "Pool lookups that found no warm session.",
        pool.misses as u64,
    );
    prom.counter(
        "gnnerator_pool_sessions_built_total",
        "Sessions compiled from scratch.",
        pool.sessions_built as u64,
    );
    prom.counter(
        "gnnerator_pool_evictions_total",
        "Sessions dropped to stay within capacity.",
        pool.evictions as u64,
    );
    prom.counter(
        "gnnerator_pool_datasets_synthesized_total",
        "Datasets synthesized from scratch during builds.",
        pool.datasets_synthesized as u64,
    );
    prom.counter(
        "gnnerator_pool_datasets_loaded_total",
        "Datasets loaded from the persistent artifact cache.",
        pool.datasets_loaded as u64,
    );
    prom.counter(
        "gnnerator_pool_corrupt_artifacts_total",
        "Corrupt on-disk artifacts quarantined by the artifact cache.",
        pool.corrupt_artifacts as u64,
    );

    // Circuit breakers: totals plus per-key state.
    prom.counter(
        "gnnerator_breaker_trips_total",
        "Times any key's circuit breaker opened.",
        pool.breaker_trips as u64,
    );
    prom.counter(
        "gnnerator_breaker_rejections_total",
        "Lookups rejected because a key's breaker was open.",
        pool.breaker_rejections as u64,
    );
    prom.gauge(
        "gnnerator_breaker_quarantined_keys",
        "Keys currently quarantined behind an open breaker.",
        pool.quarantined_keys as f64,
    );
    let breakers = state.pool.breaker_states();
    if !breakers.is_empty() {
        prom.header(
            "gnnerator_breaker_open",
            "1 while the key's breaker quarantine window is open.",
            "gauge",
        );
        for breaker in &breakers {
            prom.sample(
                "gnnerator_breaker_open",
                &[("key", &breaker.key)],
                if breaker.open { 1.0 } else { 0.0 },
            );
        }
        prom.header(
            "gnnerator_breaker_consecutive_failures",
            "Build failures on the key since its last success.",
            "gauge",
        );
        for breaker in &breakers {
            prom.sample(
                "gnnerator_breaker_consecutive_failures",
                &[("key", &breaker.key)],
                f64::from(breaker.consecutive_failures),
            );
        }
        prom.header(
            "gnnerator_breaker_opens_total",
            "Times the key's breaker has opened.",
            "counter",
        );
        for breaker in &breakers {
            prom.sample(
                "gnnerator_breaker_opens_total",
                &[("key", &breaker.key)],
                f64::from(breaker.opens),
            );
        }
    }

    // Admission control.
    prom.gauge(
        "gnnerator_queue_depth",
        "Jobs currently waiting in the admission queue.",
        state.queue.depth() as f64,
    );
    prom.gauge(
        "gnnerator_queue_capacity",
        "Admission queue capacity.",
        state.queue.capacity() as f64,
    );
    prom.gauge(
        "gnnerator_queue_peak_depth",
        "Deepest the admission queue has been.",
        state.queue.peak_depth() as f64,
    );
    prom.counter(
        "gnnerator_queue_shed_total",
        "Requests refused because the queue was full.",
        state.queue.shed_count() as u64,
    );
    prom.counter(
        "gnnerator_queue_expired_total",
        "Jobs answered 503 because their deadline expired while queued.",
        state.queue.expired_count() as u64,
    );
    prom.counter(
        "gnnerator_queue_inline_total",
        "Requests evaluated on an idle worker without entering the queue.",
        state.queue.idle_claim_count() as u64,
    );
    prom.gauge(
        "gnnerator_connections_active",
        "Connections currently open.",
        state.connections.active() as f64,
    );
    prom.gauge(
        "gnnerator_connections_peak",
        "Most connections ever open at once.",
        state.connections.peak.load(Ordering::Relaxed) as f64,
    );
    prom.counter(
        "gnnerator_connections_total",
        "Connections accepted over the server's lifetime.",
        state.connections.total.load(Ordering::Relaxed) as u64,
    );
    prom.counter(
        "gnnerator_connections_refused_total",
        "Connections refused at the connection limit.",
        state.connections.refused.load(Ordering::Relaxed) as u64,
    );

    // Worker liveness.
    prom.gauge(
        "gnnerator_workers_alive",
        "Evaluation workers currently live.",
        state.workers_alive.load(Ordering::SeqCst) as f64,
    );
    prom.gauge(
        "gnnerator_workers_configured",
        "Evaluation workers the server was started with.",
        state.configured_workers as f64,
    );
    prom.counter(
        "gnnerator_worker_panics_total",
        "Worker panics caught by supervision.",
        state.worker_panics.load(Ordering::Relaxed) as u64,
    );
    prom.counter(
        "gnnerator_worker_respawns_total",
        "Worker loop re-entries after a caught panic.",
        state.worker_respawns.load(Ordering::Relaxed) as u64,
    );

    // Fault injection: armed spec plus per-point hit/trip counts.
    let armed = gnnerator_faults::armed_spec();
    prom.gauge(
        "gnnerator_faults_armed",
        "1 while a GNNERATOR_FAULTS spec is armed.",
        if armed.is_some() { 1.0 } else { 0.0 },
    );
    if let Some(spec) = &armed {
        prom.header(
            "gnnerator_faults_spec",
            "The armed GNNERATOR_FAULTS spec (info-style: value is always 1).",
            "gauge",
        );
        prom.sample("gnnerator_faults_spec", &[("spec", spec)], 1.0);
    }
    let fault_points = gnnerator_faults::stats();
    if !fault_points.is_empty() {
        prom.header(
            "gnnerator_fault_hits_total",
            "Times the failpoint was evaluated.",
            "counter",
        );
        for point in &fault_points {
            prom.sample(
                "gnnerator_fault_hits_total",
                &[("point", &point.name)],
                point.hits as f64,
            );
        }
        prom.header(
            "gnnerator_fault_trips_total",
            "Times the failpoint actually fired.",
            "counter",
        );
        for point in &fault_points {
            prom.sample(
                "gnnerator_fault_trips_total",
                &[("point", &point.name)],
                point.trips as f64,
            );
        }
    }
    prom.finish()
}
