//! The daemon: TCP accept loop, per-connection reader/writer threads,
//! and a sharded worker pool over one bounded job queue.
//!
//! # Architecture
//!
//! ```text
//!  accept thread ──spawns──▶ connection thread (one per client)
//!                              │  reads lines, parses, answers control
//!                              │  ops inline; try_push solve jobs
//!                              ▼
//!                       Bounded<Job> (admission control)
//!                              │  Full ⇒ "overloaded" response
//!                              ▼
//!  worker 0..N  ── each owns a warm CacheBuffers set, recycled via
//!                  ScheduleCache::for_graph_recycled / into_buffers
//!                  (the PR 6 machinery) ── responses go back through a
//!                  per-connection mpsc channel to its writer thread
//! ```
//!
//! **Degradation, not collapse:** every solve runs through
//! [`lamps_core::solve_with_budget_cache`]. A per-request step budget
//! (from the request or [`ServeConfig::default_budget_steps`]) and an
//! optional wall-clock budget counted **from admission**
//! ([`ServeConfig::request_timeout`]) bound the search; a truncated
//! search still returns its best feasible candidate, tagged
//! `"degraded"`. Under overload the queue refuses new work with an
//! explicit `overloaded` response instead of growing without bound.
//!
//! **Graceful shutdown:** a `shutdown` request (or
//! [`Server::begin_shutdown`]) stops the accept loop and closes the
//! queue to new admissions, but everything already admitted is drained:
//! workers finish the queue, responses flush through the writer
//! threads, and only then does [`Server::wait`] unblock reads and join
//! the connection threads.
//!
//! **Never panic outward:** each job runs under `catch_unwind`; a panic
//! costs that worker its warm buffers (rebuilt cold), answers the
//! request with an `internal` error, and increments the
//! [`StatsSnapshot::panics`] counter the robustness tests assert is
//! zero.

use crate::protocol::{
    encode_error, encode_flight, encode_overloaded, encode_pong, encode_shutdown_ack,
    encode_solved, encode_stats, encode_telemetry, parse_request, HistogramSummary, Limits,
    ProtoError, Request, SolveRequest, TelemetryBody,
};
use crate::queue::{Bounded, PushError};
use lamps_core::cache::{CacheBuffers, ScheduleCache};
use lamps_core::{SchedulerConfig, SolveBudget, SolveError};
use lamps_obs::flight;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything the daemon needs to start.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7719` (port 0 for tests).
    pub addr: String,
    /// Worker threads, each owning one warm buffer set.
    pub workers: usize,
    /// Bounded-queue capacity; pushes beyond it are rejected as
    /// `overloaded`.
    pub queue_capacity: usize,
    /// Step budget applied to requests that do not carry their own.
    pub default_budget_steps: Option<u64>,
    /// Wall-clock budget per request, measured from admission — queued
    /// time counts, so overload degrades answers instead of stretching
    /// the queue.
    pub request_timeout: Option<Duration>,
    /// Per-connection read timeout; a connection idle (or dribbling a
    /// partial line) past this is closed. The slow-loris defense.
    pub idle_timeout: Duration,
    /// Request payload ceilings.
    pub limits: Limits,
    /// The platform/power model requests are solved against.
    pub scheduler: SchedulerConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7719".to_string(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get().saturating_sub(1).max(1))
                .unwrap_or(1),
            queue_capacity: 256,
            default_budget_steps: None,
            request_timeout: None,
            idle_timeout: Duration::from_secs(30),
            limits: Limits::default(),
            scheduler: SchedulerConfig::paper(),
        }
    }
}

/// Monotonic server counters (always on; the `stats` op and the tests
/// read these, and they mirror into `lamps-obs` when metrics are
/// enabled).
#[derive(Debug, Default)]
struct ServerStats {
    connections: AtomicU64,
    requests: AtomicU64,
    solved_ok: AtomicU64,
    degraded: AtomicU64,
    rejected: AtomicU64,
    solve_errors: AtomicU64,
    protocol_errors: AtomicU64,
    panics: AtomicU64,
}

/// A point-in-time copy of the server counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted.
    pub connections: u64,
    /// Solve requests admitted to the queue.
    pub requests: u64,
    /// Complete solves answered `ok`.
    pub solved_ok: u64,
    /// Budget-truncated solves answered `degraded`.
    pub degraded: u64,
    /// Admissions refused (`overloaded` responses).
    pub rejected: u64,
    /// Solves that ended in a structured solver error.
    pub solve_errors: u64,
    /// Lines rejected before solving (malformed, oversized, bad graph).
    pub protocol_errors: u64,
    /// Worker panics caught (must stay 0).
    pub panics: u64,
}

impl ServerStats {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            solved_ok: self.solved_ok.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            solve_errors: self.solve_errors.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
        }
    }
}

/// Bump a local counter and its obs mirror in one step.
fn bump(counter: &AtomicU64, obs_name: &'static str) {
    counter.fetch_add(1, Ordering::Relaxed);
    if lamps_obs::metrics_enabled() {
        lamps_obs::counter(obs_name).inc();
    }
}

/// One admitted unit of work.
struct Job {
    req: Box<SolveRequest>,
    admitted: Instant,
    reply: mpsc::Sender<String>,
}

struct Shared {
    config: ServeConfig,
    addr: SocketAddr,
    queue: Bounded<Job>,
    shutdown: AtomicBool,
    stats: ServerStats,
    /// Streams of live connections, for the final read-side unblock.
    conn_streams: Mutex<Vec<TcpStream>>,
}

impl Shared {
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // No new admissions; everything already queued still drains.
        self.queue.close();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running daemon. Dropping it triggers shutdown and joins every
/// thread.
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Bind and start: accept loop plus `workers` solver threads.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            queue: Bounded::new(config.queue_capacity),
            config,
            addr,
            shutdown: AtomicBool::new(false),
            stats: ServerStats::default(),
            conn_streams: Mutex::new(Vec::new()),
        });

        let worker_handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();

        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("serve-accept".to_string())
                .spawn(move || accept_loop(listener, &shared, &conns))
                .expect("spawn accept loop")
        };

        Ok(Server {
            shared,
            accept: Some(accept),
            workers: worker_handles,
            conns,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Current counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Trigger a graceful drain without blocking: stop accepting, close
    /// the queue to new work. Also reachable over the wire as
    /// `{"op": "shutdown"}`.
    pub fn begin_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Block until a shutdown is triggered (by [`Self::begin_shutdown`]
    /// or a wire request), the queue is drained, every response is
    /// flushed, and all threads are joined. Returns the final counters.
    pub fn wait(mut self) -> StatsSnapshot {
        self.join_all();
        self.shared.stats.snapshot()
    }

    /// [`Self::begin_shutdown`] then [`Self::wait`].
    pub fn shutdown(self) -> StatsSnapshot {
        self.begin_shutdown();
        self.wait()
    }

    fn join_all(&mut self) {
        // Accept exits once shutdown is triggered (possibly much later,
        // by a wire request — this is the daemon's "run until told to
        // stop" blocking point).
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Workers exit when the closed queue is drained; every response
        // they produced is already in its connection's writer channel.
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Unblock connection readers (SHUT_RD only — pending response
        // writes still flush), then join them.
        for s in self.shared.conn_streams.lock().expect("streams").drain(..) {
            let _ = s.shutdown(Shutdown::Read);
        }
        let handles: Vec<_> = self.conns.lock().expect("conns").drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.begin_shutdown();
        self.join_all();
    }
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>, conns: &Mutex<Vec<JoinHandle<()>>>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return; // the wake-up connection (or a late client) is dropped
        }
        let Ok(stream) = stream else { continue };
        bump(&shared.stats.connections, "serve.connections");
        flight::record(
            flight::SERVE_ACCEPT,
            shared.stats.connections.load(Ordering::Relaxed),
            0,
            0,
        );
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(shared.config.idle_timeout));
        if let Ok(clone) = stream.try_clone() {
            shared.conn_streams.lock().expect("streams").push(clone);
        }
        let shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name("serve-conn".to_string())
            .spawn(move || connection_loop(&shared, stream))
            .expect("spawn connection");
        conns.lock().expect("conns").push(handle);
    }
}

/// Why the reader stopped consuming a connection.
enum ReadEnd {
    Eof,
    IdleTimeout,
    Oversized,
    IoError,
}

fn connection_loop(shared: &Arc<Shared>, stream: TcpStream) {
    let _span = lamps_obs::span("serve", "connection");
    let (tx, rx) = mpsc::channel::<String>();
    let mut write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let writer = std::thread::Builder::new()
        .name("serve-conn-writer".to_string())
        .spawn(move || {
            // Exits when every sender (reader + in-flight jobs) is gone
            // and the channel is drained, or the client stops reading.
            while let Ok(line) = rx.recv() {
                if write_half.write_all(line.as_bytes()).is_err() {
                    return;
                }
            }
            let _ = write_half.flush();
        })
        .expect("spawn writer");

    let end = read_lines(shared, stream, &tx);
    if matches!(end, ReadEnd::Oversized) {
        bump(&shared.stats.protocol_errors, "serve.protocol_errors");
        let _ = tx.send(encode_error(
            None,
            "oversized",
            &format!(
                "request line exceeds {} bytes",
                shared.config.limits.max_line_bytes
            ),
        ));
    }
    // Dropping our sender lets the writer finish flushing job responses
    // that are still in flight, then exit.
    drop(tx);
    let _ = writer.join();
}

/// Consume request lines until the client disconnects, stalls, or
/// overruns the line limit. A panic anywhere in request handling is
/// caught per line so one poisoned request cannot take the connection
/// thread down with it.
fn read_lines(shared: &Arc<Shared>, mut stream: TcpStream, tx: &mpsc::Sender<String>) -> ReadEnd {
    let max_line = shared.config.limits.max_line_bytes;
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let mut chunk = [0u8; 64 * 1024];
    loop {
        // Drain every complete line currently buffered.
        while let Some(nl) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=nl).collect();
            if line.len() > max_line {
                return ReadEnd::Oversized;
            }
            let text = String::from_utf8_lossy(&line[..line.len() - 1]);
            let text = text.trim_end_matches('\r').trim();
            if text.is_empty() {
                continue;
            }
            let handled = catch_unwind(AssertUnwindSafe(|| handle_line(shared, text, tx)));
            if handled.is_err() {
                shared.stats.panics.fetch_add(1, Ordering::Relaxed);
                let _ = tx.send(encode_error(None, "internal", "request handling panicked"));
            }
        }
        if buf.len() > max_line {
            return ReadEnd::Oversized;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return ReadEnd::Eof,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => match e.kind() {
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                    return ReadEnd::IdleTimeout
                }
                std::io::ErrorKind::Interrupted => continue,
                _ => return ReadEnd::IoError,
            },
        }
    }
}

fn handle_line(shared: &Arc<Shared>, line: &str, tx: &mpsc::Sender<String>) {
    match parse_request(line, &shared.config.limits) {
        Err(ProtoError { id, kind, message }) => {
            bump(&shared.stats.protocol_errors, "serve.protocol_errors");
            let _ = tx.send(encode_error(id, kind, &message));
        }
        Ok(Request::Ping { id }) => {
            let _ = tx.send(encode_pong(id));
        }
        Ok(Request::Stats { id }) => {
            let _ = tx.send(encode_stats(id, &stats_body(shared)));
        }
        Ok(Request::Telemetry { id }) => {
            let _ = tx.send(encode_telemetry(id, &telemetry_body(shared)));
        }
        Ok(Request::Flight { id, last }) => {
            let snap = lamps_obs::flight::snapshot();
            let _ = tx.send(encode_flight(id, snap.tail(last), snap.dropped));
        }
        Ok(Request::Shutdown { id }) => {
            let _ = tx.send(encode_shutdown_ack(id));
            shared.begin_shutdown();
        }
        Ok(Request::Solve(req)) => {
            let id = req.id;
            let job = Job {
                req,
                admitted: Instant::now(),
                reply: tx.clone(),
            };
            // Stamp admission *before* the push: once the job is in the
            // queue a worker may journal solve.start immediately, and
            // the admit event must not post-date it.
            let admit_ts = flight::now_us();
            match shared.queue.try_push(job) {
                Ok(depth) => {
                    bump(&shared.stats.requests, "serve.requests");
                    flight::record_at(admit_ts, flight::SERVE_ADMIT, id, depth as u64, 0);
                    if lamps_obs::metrics_enabled() {
                        lamps_obs::gauge("serve.queue_depth").set(depth as u64);
                    }
                }
                Err(PushError::Full(job)) => {
                    bump(&shared.stats.rejected, "serve.rejected");
                    flight::record(flight::SERVE_OVERLOAD, id, shared.queue.len() as u64, 0);
                    let _ = job.reply.send(encode_overloaded(
                        id,
                        shared.queue.len(),
                        shared.queue.capacity(),
                    ));
                }
                Err(PushError::Closed(job)) => {
                    bump(&shared.stats.protocol_errors, "serve.protocol_errors");
                    let _ = job.reply.send(encode_error(
                        Some(id),
                        "shutting_down",
                        "server is draining and no longer admits work",
                    ));
                }
            }
        }
    }
}

/// The `stats` payload: the server's always-on counters, queue/worker
/// gauges, and the request-latency quantiles (when the obs registry has
/// seen any samples).
fn stats_body(shared: &Arc<Shared>) -> TelemetryBody {
    let s = shared.stats.snapshot();
    let mut body = TelemetryBody {
        counters: [
            ("connections", s.connections),
            ("requests", s.requests),
            ("ok", s.solved_ok),
            ("degraded", s.degraded),
            ("rejected", s.rejected),
            ("solve_errors", s.solve_errors),
            ("protocol_errors", s.protocol_errors),
            ("panics", s.panics),
        ]
        .into_iter()
        .map(|(n, v)| (n.to_string(), v))
        .collect(),
        gauges: [
            ("queue_depth", shared.queue.len() as u64),
            ("queue_capacity", shared.queue.capacity() as u64),
            ("workers", shared.config.workers as u64),
        ]
        .into_iter()
        .map(|(n, v)| (n.to_string(), v))
        .collect(),
        histograms: Vec::new(),
    };
    let snap = lamps_obs::registry::snapshot();
    if let Some((count, sum, buckets)) = snap.histogram("serve.latency_us") {
        body.histograms.push(HistogramSummary::from_buckets(
            "serve.latency_us".to_string(),
            count,
            sum,
            buckets,
        ));
    }
    body
}

/// The `telemetry` payload: the full process-wide metrics registry
/// (every counter, gauge, and histogram-with-quantiles), overlaid with
/// the server's always-on values so the serve counters are authoritative
/// even when the registry is disabled.
fn telemetry_body(shared: &Arc<Shared>) -> TelemetryBody {
    let snap = lamps_obs::registry::snapshot();
    let mut body = TelemetryBody {
        counters: snap.counters.clone(),
        gauges: snap.gauges.clone(),
        histograms: snap
            .histograms
            .iter()
            .map(|(name, count, sum, buckets)| {
                HistogramSummary::from_buckets(name.clone(), *count, *sum, buckets)
            })
            .collect(),
    };
    let s = shared.stats.snapshot();
    let overlay_counters = [
        ("serve.connections", s.connections),
        ("serve.requests", s.requests),
        ("serve.ok", s.solved_ok),
        ("serve.degraded", s.degraded),
        ("serve.rejected", s.rejected),
        ("serve.solve_errors", s.solve_errors),
        ("serve.protocol_errors", s.protocol_errors),
        ("serve.panics", s.panics),
    ];
    for (name, v) in overlay_counters {
        match body.counters.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = v,
            None => body.counters.push((name.to_string(), v)),
        }
    }
    let overlay_gauges = [
        ("serve.queue_depth", shared.queue.len() as u64),
        ("serve.queue_capacity", shared.queue.capacity() as u64),
        ("serve.workers", shared.config.workers as u64),
    ];
    for (name, v) in overlay_gauges {
        match body.gauges.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = v,
            None => body.gauges.push((name.to_string(), v)),
        }
    }
    body.counters.sort();
    body.gauges.sort();
    body
}

fn worker_loop(shared: &Arc<Shared>) {
    let mut bufs = CacheBuffers::default();
    while let Some(job) = shared.queue.pop() {
        let id = job.req.id;
        flight::record(
            flight::SERVE_QUEUE_DEPTH,
            id,
            shared.queue.len() as u64,
            shared.queue.capacity() as u64,
        );
        let reply = job.reply.clone();
        let warm = std::mem::take(&mut bufs);
        match catch_unwind(AssertUnwindSafe(|| handle_job(shared, job, warm))) {
            Ok(returned) => bufs = returned,
            Err(_) => {
                // The warm buffers died with the panic; restart cold.
                bufs = CacheBuffers::default();
                bump(&shared.stats.panics, "serve.panics");
                flight::record(flight::SERVE_PANIC, id, 0, 0);
                // Post-mortem: the journal holds what led up to this.
                flight::last_gasp("worker-panic");
                let _ = reply.send(encode_error(
                    Some(id),
                    "internal",
                    "solver panicked; request dropped",
                ));
            }
        }
    }
}

fn handle_job(shared: &Arc<Shared>, job: Job, bufs: CacheBuffers) -> CacheBuffers {
    let _span = lamps_obs::span("serve", "request");
    let cfg = &shared.config.scheduler;
    let req = &job.req;
    let mut cache = ScheduleCache::for_graph_recycled(&req.graph, bufs);
    let deadline_s = match req.deadline {
        crate::protocol::DeadlineSpec::Seconds(s) => s,
        crate::protocol::DeadlineSpec::Factor(f) => {
            f * cache.critical_path_cycles() as f64 / cfg.max_frequency()
        }
    };
    let mut budget = SolveBudget {
        max_steps: req.budget_steps.or(shared.config.default_budget_steps),
        token: None,
        deadline: None,
    };
    if let Some(t) = shared.config.request_timeout {
        // Counted from admission: time spent queued eats the budget, so
        // a backlog degrades answers instead of stretching latencies.
        budget = budget.with_deadline(job.admitted + t);
    }
    flight::record(flight::SERVE_SOLVE_START, req.id, 0, 0);
    let result =
        lamps_core::solve_with_budget_cache(req.strategy, deadline_s, cfg, &mut cache, &budget);
    let line = match &result {
        Ok(b) => {
            if b.completeness.is_complete() {
                bump(&shared.stats.solved_ok, "serve.ok");
                flight::record(flight::SERVE_SOLVE_DONE, req.id, b.steps, 0);
            } else {
                bump(&shared.stats.degraded, "serve.degraded");
                flight::record(flight::SERVE_SOLVE_DONE, req.id, b.steps, 1);
            }
            encode_solved(req.id, req.strategy, b)
        }
        Err(e) => {
            bump(&shared.stats.solve_errors, "serve.solve_errors");
            flight::record(flight::SERVE_SOLVE_DONE, req.id, 0, 2);
            let kind = match e {
                SolveError::Infeasible { .. } => "infeasible",
                SolveError::BadDeadline(_) => "bad_deadline",
                SolveError::Power(_) => "power",
                SolveError::BudgetExhausted { .. } => "budget_exhausted",
            };
            encode_error(Some(req.id), kind, &e.to_string())
        }
    };
    if lamps_obs::metrics_enabled() {
        lamps_obs::histogram("serve.latency_us").record(job.admitted.elapsed().as_micros() as u64);
    }
    let _ = job.reply.send(line);
    flight::record(flight::SERVE_REPLY, req.id, 0, 0);
    cache.into_buffers()
}
