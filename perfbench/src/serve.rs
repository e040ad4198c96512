//! The `serve` workload: the daemon as the `serve` binary ships it
//! (default configuration, metrics and the flight journal on), driven
//! from one process over one connection with at most two threads.
//!
//! * **Open loop** (a sender and a receiver thread): request `k` is
//!   due at `start + k / RATE` and is sent then, whether or not
//!   earlier replies are back.
//!   Latency is timed from the due time, so a stall in the generator or
//!   the server shows up in every request it delays; how late the
//!   generator sent is reported as its lag.
//! * **Closed loop** (one thread): the next request is sent when the
//!   previous reply arrives. The default queue (256) never fills with
//!   one outstanding request, so nothing is rejected. A second
//!   connection would overlap two requests on the two hardware
//!   threads; how well they overlap depended on where the OS placed
//!   the daemon's threads, and moved `served_per_s` by up to 40%
//!   between daemons within one run.
//!
//! The request mix follows `loadgen`: 10/20/40-task graphs, every
//! strategy and deadline factor, and one request in four with a
//! 6-step budget. After the timed phases every reply is checked with
//! [`lamps_verify::check_exchange`] (see [`check`] for replies that
//! repeat one already checked); the server runs without wall-clock
//! budgets, so replies must match bit for bit.

use crate::corpus;
use crate::layers::{publish_counters, replay_sched, SolverLedger};
use crate::report::{Failures, Outcome, Setups, Timed};
use crate::stats::{median, micros, quantile, secs};
use crate::Opts;
use lamps_core::cache::ScheduleCache;
use lamps_core::{solve_with_budget_cache, SchedulerConfig, SolveBudget, Strategy};
use lamps_serve::protocol::{encode_solved, parse_request, strategy_wire_name, Request};
use lamps_serve::{
    encode_solve_request, parse_response, DeadlineSpec, Limits, Response, ServeConfig, Server,
};
use lamps_taskgraph::TaskGraph;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Open-loop arrival rate \[requests/s\].
pub const RATE: f64 = 2000.0;

/// Share of a timed phase spent in the open loop (the rest is the
/// closed loop, whose figures are the gated ones).
const OPEN_SHARE: f64 = 0.3;

/// Graphs per request size.
const PER_SIZE: usize = 8;

/// Distinct requests in the mix; request `k` is plan entry `k % PLAN`.
const PLAN: usize = 192;

/// Requests per closed-loop throughput sample (see [`block_rates`]).
const BLOCK: usize = 256;

/// Step budget of the budgeted share.
const BUDGET_STEPS: u64 = 6;

/// Requests per connection in the set-up warm-up.
const WARMUP: usize = 32;

/// Rounds per run, each on a freshly set-up daemon, so that how the OS
/// placed one daemon's threads does not decide a run: one daemon's
/// closed loop can serve twice as fast as the next one's on the same
/// host.
const ROUNDS: usize = 20;

/// Set-ups per round; the round measures on the last one. The set-up
/// time is the median over every round's set-ups.
const SETUPS_PER_ROUND: usize = 2;

/// How long before a request's due time the sender stops sleeping and
/// spins.
const SPIN: Duration = Duration::from_micros(100);

/// Bound on every wait for a reply.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Journal events the `flight` op may return in one reply, and the
/// per-thread ring capacity of the traced daemon.
const FLIGHT_LAST: usize = 65_536;

/// Requests per journal window of the traced phases. Each request
/// writes five events (admit, queue depth, solve start, solve done,
/// reply), so one window fits in one `flight` reply.
const FLIGHT_WINDOW: u64 = 12_000;

/// One distinct request of the mix.
struct Entry {
    graph: usize,
    strategy: Strategy,
    /// The encoded line after its `{"id":N` prefix.
    tail: String,
}

/// The generated request mix.
struct Mix {
    graphs: Vec<TaskGraph>,
    plan: Vec<Entry>,
}

impl Mix {
    fn generate(seed: u64) -> Mix {
        let graphs = corpus::small(seed, PER_SIZE);
        let strategies = Strategy::all();
        let plan = (0..PLAN)
            .map(|i| {
                let graph = i % graphs.len();
                let strategy = strategies[i % strategies.len()];
                let factor = corpus::FACTORS[(i / strategies.len()) % corpus::FACTORS.len()];
                let budget = ((i / 16) % 4 == 3).then_some(BUDGET_STEPS);
                let line = encode_solve_request(
                    0,
                    strategy,
                    DeadlineSpec::Factor(factor),
                    &graphs[graph],
                    budget,
                );
                let tail = line
                    .strip_prefix("{\"id\":0")
                    .expect("encoded requests start with their id")
                    .to_string();
                Entry {
                    graph,
                    strategy,
                    tail,
                }
            })
            .collect();
        Mix { graphs, plan }
    }

    fn line(&self, id: u64) -> String {
        format!("{{\"id\":{id}{}", self.plan[id as usize % PLAN].tail)
    }
}

/// Reads newline-terminated replies from a socket, keeping partial
/// lines across read timeouts.
struct Lines {
    buf: Vec<u8>,
}

impl Lines {
    /// Read once (bounded by the socket's read timeout) and hand every
    /// complete line to `each`. `Ok(false)` on a timeout.
    fn pump(&mut self, stream: &TcpStream, mut each: impl FnMut(String)) -> Result<bool, String> {
        let mut chunk = [0u8; 65_536];
        let n = match (&*stream).read(&mut chunk) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Ok(false)
            }
            Err(e) => return Err(format!("read: {e}")),
        };
        let start = self.buf.len();
        self.buf.extend_from_slice(&chunk[..n]);
        let mut from = 0;
        for i in start..self.buf.len() {
            if self.buf[i] == b'\n' {
                each(String::from_utf8_lossy(&self.buf[from..i]).into_owned());
                from = i + 1;
            }
        }
        self.buf.drain(..from);
        Ok(true)
    }
}

/// What one connection saw.
#[derive(Default)]
struct ConnLog {
    /// `(id, due, sent)` per request.
    sent: Vec<(u64, Instant, Instant)>,
    /// `(id, received, line)` per reply line.
    replies: Vec<(Option<u64>, Instant, String)>,
    /// A transport failure that ended the phase early.
    error: Option<String>,
}

impl ConnLog {
    fn take_replies(&mut self, lines: &mut Lines, stream: &TcpStream) -> Result<bool, String> {
        let replies = &mut self.replies;
        lines.pump(stream, |line| {
            let now = Instant::now();
            let id = parse_response(&line).ok().and_then(|r| r.id());
            replies.push((id, now, line));
        })
    }
}

fn send(stream: &TcpStream, line: &str) -> Result<(), String> {
    (&*stream)
        .write_all(line.as_bytes())
        .map_err(|e| format!("write: {e}"))
}

/// An open-loop phase of `n` requests on one connection: a sender
/// thread sends request `k` (id `first + k`) when it falls due at
/// `start + k / RATE`, and a receiver thread collects the replies.
fn open_loop(mix: &Mix, stream: &TcpStream, first: u64, n: u64, start: Instant) -> ConnLog {
    std::thread::scope(|s| {
        let receiver = s.spawn(|| {
            let mut log = ConnLog::default();
            let mut lines = Lines { buf: Vec::new() };
            let r: Result<(), String> = (|| {
                stream
                    .set_read_timeout(Some(REPLY_TIMEOUT))
                    .map_err(|e| format!("set_read_timeout: {e}"))?;
                while (log.replies.len() as u64) < n {
                    if !log.take_replies(&mut lines, stream)? {
                        return Err("replies still missing after the timeout".into());
                    }
                }
                Ok(())
            })();
            log.error = r.err();
            log
        });
        let mut sent = Vec::with_capacity(n as usize);
        let mut error = None;
        for k in 0..n {
            let due = start + Duration::from_secs_f64(k as f64 / RATE);
            // Sleep to just short of the due time, then spin: a sleep
            // alone wakes up to a timer slack late.
            let now = Instant::now();
            if due > now + SPIN {
                std::thread::sleep(due - now - SPIN);
            }
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            let at = Instant::now();
            if let Err(e) = send(stream, &mix.line(first + k)) {
                error = Some(e);
                // Unblock the receiver: no more replies are coming.
                let _ = stream.shutdown(std::net::Shutdown::Both);
                break;
            }
            sent.push((first + k, due, at));
        }
        let mut log = receiver.join().expect("receiver thread panicked");
        log.sent = sent;
        log.error = error.or(log.error);
        log
    })
}

/// A closed loop while `go(requests sent so far)` holds: ids `first`,
/// `first + 1`, …
fn closed_loop(mix: &Mix, stream: &TcpStream, first: u64, go: impl Fn(usize) -> bool) -> ConnLog {
    let mut log = ConnLog::default();
    let mut lines = Lines { buf: Vec::new() };
    let mut id = first;
    let result: Result<(), String> = (|| {
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        while go(log.sent.len()) {
            let now = Instant::now();
            send(stream, &mix.line(id))?;
            log.sent.push((id, now, now));
            id += 1;
            while log.replies.len() < log.sent.len() {
                if !log.take_replies(&mut lines, stream)? {
                    return Err("no reply within the timeout".into());
                }
            }
        }
        Ok(())
    })();
    log.error = result.err();
    log
}

/// The live system: server, connection, and the next free request id.
struct Rig {
    server: Server,
    conn: TcpStream,
    next_id: u64,
}

impl Rig {
    fn start() -> std::io::Result<Rig> {
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServeConfig::default()
        };
        let server = Server::start(config)?;
        let conn = TcpStream::connect(server.addr())?;
        conn.set_nodelay(true)?;
        Ok(Rig {
            server,
            conn,
            next_id: 0,
        })
    }

    /// Open loop of `n` requests (a sender and a receiver thread).
    fn open(&mut self, mix: &Mix, n: u64) -> Vec<ConnLog> {
        let first = self.next_id;
        let start = Instant::now() + Duration::from_millis(2);
        let log = open_loop(mix, &self.conn, first, n, start);
        self.next_id = first + n;
        vec![log]
    }

    /// Closed loop on the calling thread while `go(requests sent so
    /// far)` holds.
    fn closed(&mut self, mix: &Mix, go: impl Fn(usize) -> bool) -> Vec<ConnLog> {
        let first = self.next_id;
        let log = closed_loop(mix, &self.conn, first, go);
        self.next_id = first + log.sent.len() as u64;
        vec![log]
    }

    /// Shut the daemon down, counting worker panics as failures.
    fn shut_down(self, failures: &mut Failures) {
        let stats = self.server.shutdown();
        failures.add(stats.panics, || format!("{} worker panics", stats.panics));
    }

    /// The journal tail over the wire (`flight` op).
    fn flight(&mut self) -> Result<(u64, Vec<lamps_serve::WireFlightEvent>), String> {
        let id = self.next_id;
        self.next_id += 1;
        let c = &self.conn;
        send(
            c,
            &format!("{{\"id\":{id},\"op\":\"flight\",\"last\":{FLIGHT_LAST}}}\n"),
        )?;
        c.set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let mut lines = Lines { buf: Vec::new() };
        let mut got = None;
        while got.is_none() {
            if !lines.pump(c, |l| got = Some(l))? {
                return Err("no flight reply".into());
            }
        }
        match parse_response(&got.expect("loop ended")) {
            Ok(Response::Flight {
                dropped, events, ..
            }) => Ok((dropped, events)),
            other => Err(format!("unexpected flight reply: {other:?}")),
        }
    }
}

/// Set up once: generate, encode, start the daemon, connect, warm up.
/// Returns the warm-up's logs (checked by the caller, outside the
/// set-up time) and the generation and whole set-up times.
#[allow(clippy::type_complexity)]
fn set_up(seed: u64) -> Result<(Mix, Rig, Vec<ConnLog>, (f64, f64)), String> {
    let t = Instant::now();
    let mix = Mix::generate(seed);
    let gen_s = secs(t);
    let mut rig = Rig::start().map_err(|e| format!("server start: {e}"))?;
    let warm_up = rig.closed(&mix, |sent| sent < WARMUP);
    Ok((mix, rig, warm_up, (gen_s, secs(t))))
}

/// Check every exchange of a phase; returns per-request latencies
/// (`received − due`, µs; ∞ for a request without a good reply), send
/// lags (µs), correct replies, and the replies by id.
struct Checked {
    latency_us: Vec<f64>,
    lag_us: Vec<f64>,
    correct: u64,
    attempted: u64,
    /// `id → (due, sent, received, energy bits)` of good replies.
    good: HashMap<u64, (Instant, Instant, Instant, u64)>,
}

fn check(mix: &Mix, logs: &[ConnLog], cfg: &SchedulerConfig, failures: &mut Failures) -> Checked {
    let limits = Limits::default();
    let mut out = Checked {
        latency_us: Vec::new(),
        lag_us: Vec::new(),
        correct: 0,
        attempted: 0,
        good: HashMap::new(),
    };
    // Replies that passed, by plan entry and the reply past its id.
    let mut passed: HashMap<(usize, &str), u64> = HashMap::new();
    for log in logs {
        if let Some(e) = &log.error {
            failures.add(1, || format!("connection failed: {e}"));
        }
        let mut by_id: HashMap<u64, (Instant, &str)> = HashMap::with_capacity(log.replies.len());
        for (id, at, line) in &log.replies {
            match id {
                Some(id) if by_id.insert(*id, (*at, line.as_str())).is_none() => {}
                _ => failures.add(1, || format!("reply with a missing or repeated id: {line}")),
            }
        }
        for &(id, due, sent) in &log.sent {
            out.attempted += 1;
            out.lag_us
                .push(sent.saturating_duration_since(due).as_secs_f64() * 1e6);
            let Some(&(at, line)) = by_id.get(&id) else {
                failures.add(1, || format!("request {id}: no reply"));
                out.latency_us.push(f64::INFINITY);
                continue;
            };
            // `check_exchange` is a pure function of the request and
            // the reply, and the requests of one plan entry differ only
            // in their ids, as do their replies (whose ids `by_id` has
            // matched): a reply equal past its id to one that passed for
            // the same entry passes too.
            let key = line.find(',').map(|i| (id as usize % PLAN, &line[i..]));
            let verdict = match key.and_then(|k| passed.get(&k)) {
                Some(&bits) => Ok(bits),
                None => {
                    let violations =
                        lamps_verify::check_exchange(&mix.line(id), line, cfg, &limits);
                    match (violations.is_empty(), parse_response(line)) {
                        (true, Ok(Response::Solved(s))) => {
                            if let Some(k) = key {
                                passed.insert(k, s.energy_bits);
                            }
                            Ok(s.energy_bits)
                        }
                        _ => Err(violations),
                    }
                }
            };
            match verdict {
                Ok(bits) => {
                    out.correct += 1;
                    out.latency_us
                        .push(at.saturating_duration_since(due).as_secs_f64() * 1e6);
                    out.good.insert(id, (due, sent, at, bits));
                }
                Err(violations) => {
                    out.latency_us.push(f64::INFINITY);
                    failures.add(1, || {
                        format!("request {id}: reply {line:?} fails the checks: {violations:?}")
                    });
                }
            }
        }
    }
    out
}

/// Closed-loop throughput samples: the rate of each run of [`BLOCK`]
/// consecutive requests on a connection (good replies ÷ time from the
/// block's first send to its last good reply). A stall of the host
/// then moves the few blocks it falls in, not the whole figure.
fn block_rates(logs: &[ConnLog], checked: &Checked) -> Vec<f64> {
    let mut rates = Vec::new();
    for block in logs.iter().flat_map(|l| l.sent.chunks_exact(BLOCK)) {
        let first = block[0].2;
        let good: Vec<Instant> = block
            .iter()
            .filter_map(|(id, ..)| checked.good.get(id).map(|g| g.2))
            .collect();
        rates.push(match good.iter().max() {
            Some(last) => good.len() as f64 / last.saturating_duration_since(first).as_secs_f64(),
            None => 0.0,
        });
    }
    rates
}

/// Requests of an open-loop phase within a slice of `seconds`: at least
/// one per distinct plan entry (the digest).
fn open_requests(seconds: f64) -> u64 {
    ((RATE * seconds * OPEN_SHARE) as u64).max(PLAN as u64)
}

/// One open-loop and one closed-loop phase, `seconds` in all.
fn measure(
    rig: &mut Rig,
    mix: &Mix,
    cfg: &SchedulerConfig,
    seconds: f64,
    failures: &mut Failures,
    out: &mut Outcome,
) -> (Vec<f64>, Checked, Checked) {
    let open = rig.open(mix, open_requests(seconds));
    let until = Instant::now() + Duration::from_secs_f64(seconds * (1.0 - OPEN_SHARE));
    let closed = rig.closed(mix, |_| Instant::now() < until);
    let open_checked = check(mix, &open, cfg, failures);
    let closed_checked = check(mix, &closed, cfg, failures);
    out.attempted += open_checked.attempted + closed_checked.attempted;
    (
        block_rates(&closed, &closed_checked),
        open_checked,
        closed_checked,
    )
}

/// Run `serve`.
pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut failures = Failures::default();
    match run_inner(opts, &mut out, &mut failures) {
        Ok(()) => {}
        Err(e) => failures.add(1, || e),
    }
    out.failures = failures;
    out
}

fn run_inner(opts: &Opts, out: &mut Outcome, failures: &mut Failures) -> Result<(), String> {
    let cfg = SchedulerConfig::paper();
    // As the `serve` binary: observability always on.
    lamps_obs::enable_metrics();
    lamps_obs::enable_flight();

    // Each round sets the daemon up afresh, several times (the set-up
    // time is the median over every set-up of the run), and measures
    // one slice of the run on the last one; the figures pool the
    // rounds.
    let mut setups = Setups::default();
    let mut served = Vec::new();
    let mut latencies = Vec::new();
    let mut open_latencies = Vec::new();
    let mut lags = Vec::new();
    let mut mix = None;
    for round in 0..ROUNDS {
        let mut last = None;
        for _ in 0..SETUPS_PER_ROUND {
            if let Some((_, old)) = last.take() {
                Rig::shut_down(old, failures);
            }
            let (m, rig, warm_up, times) = set_up(opts.seed)?;
            setups.push(times);
            out.attempted += check(&m, &warm_up, &cfg, failures).attempted;
            last = Some((m, rig));
        }
        let (m, mut rig) = last.expect("SETUPS_PER_ROUND >= 1");
        let (rates, open, closed) = measure(
            &mut rig,
            &m,
            &cfg,
            opts.untraced_seconds() / ROUNDS as f64,
            failures,
            out,
        );
        served.push(rates);
        latencies.extend(closed.latency_us.iter().copied());
        open_latencies.extend(open.latency_us.iter().copied());
        lags.extend(open.lag_us.iter().copied());
        rig.shut_down(failures);
        if round == 0 {
            digest(opts.seed, &open, out, failures);
        }
        mix = Some(m);
    }
    let mix = mix.expect("ROUNDS >= 1");
    out.say(format!(
        "rounds: served_per_s {:?}",
        served
            .iter()
            .map(|rates| median(rates).round())
            .collect::<Vec<_>>()
    ));
    let rates = served.concat();
    out.setup_s = setups.median();
    out.timed = Timed {
        throughput_per_s: median(&rates),
        latencies_us: latencies,
    };

    let lag_p99 = quantile(&lags, 0.99);
    let served = out.timed.throughput_per_s;
    out.say(format!(
        "mix: {} graphs, {PLAN} distinct requests ({} budgeted), one connection, open loop at {RATE}/s",
        mix.graphs.len(),
        PLAN / 4
    ));
    for (q, tag) in [(0.5, "p50"), (0.9, "p90"), (0.99, "p99")] {
        out.say(crate::metric_line(
            &format!("open_latency_us_{tag}"),
            quantile(&open_latencies, q),
            "us",
            Some((open_latencies.len(), q)),
        ));
    }
    out.say_latencies("closed_latency_us", 1.0, "us");
    out.say(crate::metric_line(
        "served_per_s",
        served,
        "1/s",
        Some((rates.len(), 0.5)),
    ));
    out.say(crate::metric_line(
        "loadgen.lag_us_p99",
        lag_p99,
        "us",
        Some((lags.len(), 0.99)),
    ));
    if lag_p99 > 1e6 / RATE {
        out.say(format!(
            "WARNING: generator fell behind schedule (p99 lag {lag_p99:.0} us); latencies include the lag"
        ));
    }

    if opts.trace {
        // The traced daemon's rings hold a whole journal window (the
        // binary's --flight-capacity); a thread's ring takes the
        // capacity set when the thread first records.
        lamps_obs::flight::set_segment_capacity(FLIGHT_LAST);
        let traced_run = set_up(opts.seed).and_then(|(_, mut rig, warm_up, _)| {
            out.attempted += check(&mix, &warm_up, &cfg, failures).attempted;
            let r = traced(opts, &cfg, &mix, &mut rig, &setups.gen_s, out, failures);
            rig.shut_down(failures);
            r
        });
        lamps_obs::flight::set_segment_capacity(lamps_obs::flight::DEFAULT_SEGMENT_CAPACITY);
        traced_run?;
    }
    Ok(())
}

/// Check the first round's replies to each distinct request against the
/// recorded digest.
fn digest(seed: u64, open: &Checked, out: &mut Outcome, failures: &mut Failures) {
    let mut first_reply: Vec<Option<(u64, u64)>> = vec![None; PLAN];
    for (&id, &(.., bits)) in &open.good {
        let slot = &mut first_reply[id as usize % PLAN];
        if slot.is_none_or(|(seen, _)| id < seen) {
            *slot = Some((id, bits));
        }
    }
    let mut words = Vec::with_capacity(PLAN);
    for (p, slot) in first_reply.iter().enumerate() {
        match slot {
            Some((_, bits)) => words.push(*bits),
            None => failures.add(1, || format!("no checked reply for plan entry {p}")),
        }
    }
    crate::check_digest("serve", seed, crate::digest::of(&words), out, failures);
}

/// Per-request stage durations from the journal.
#[derive(Default)]
struct Stages {
    queue_wait: Vec<f64>,
    solve: Vec<f64>,
    reply: Vec<f64>,
    outside: Vec<f64>,
    depth_max: u64,
    /// Checked replies whose lifecycle the journal does not hold whole.
    missing: u64,
}

impl Stages {
    /// Add the stages of one journal window's checked replies.
    fn add(&mut self, events: &[lamps_serve::WireFlightEvent], checked: &Checked) {
        #[derive(Default, Clone, Copy)]
        struct Life {
            admit: Option<u64>,
            start: Option<u64>,
            done: Option<u64>,
            reply: Option<u64>,
        }
        let mut lives: HashMap<u64, Life> = HashMap::new();
        for e in events {
            let life = lives.entry(e.key).or_default();
            match e.kind.as_str() {
                lamps_obs::flight::SERVE_ADMIT => {
                    life.admit = Some(e.ts_us);
                    self.depth_max = self.depth_max.max(e.a);
                }
                lamps_obs::flight::SERVE_SOLVE_START => life.start = Some(e.ts_us),
                lamps_obs::flight::SERVE_SOLVE_DONE => life.done = Some(e.ts_us),
                lamps_obs::flight::SERVE_REPLY => life.reply = Some(e.ts_us),
                _ => {}
            }
        }
        for (id, &(_, sent, received, _)) in &checked.good {
            let life = lives.get(id).copied().unwrap_or_default();
            let (Some(a), Some(b), Some(c), Some(d)) =
                (life.admit, life.start, life.done, life.reply)
            else {
                self.missing += 1;
                continue;
            };
            self.queue_wait.push(b.saturating_sub(a) as f64);
            self.solve.push(c.saturating_sub(b) as f64);
            self.reply.push(d.saturating_sub(c) as f64);
            let client = received.saturating_duration_since(sent).as_secs_f64() * 1e6;
            self.outside.push(client - d.saturating_sub(a) as f64);
        }
    }
}

/// What the traced phases saw: the checked exchanges' figures and the
/// journal's stages.
#[derive(Default)]
struct Journaled {
    stages: Stages,
    /// Ring overwrites the `flight` op reported.
    dropped: u64,
    lag_us: Vec<f64>,
    latency_us: Vec<f64>,
    /// Closed-loop throughput samples.
    rates: Vec<f64>,
}

impl Journaled {
    /// Read the window's journal back and check its exchanges.
    fn window(
        &mut self,
        rig: &mut Rig,
        mix: &Mix,
        logs: &[ConnLog],
        cfg: &SchedulerConfig,
        out: &mut Outcome,
        failures: &mut Failures,
    ) -> Result<(), String> {
        let (dropped, events) = rig.flight()?;
        let checked = check(mix, logs, cfg, failures);
        out.attempted += checked.attempted;
        self.dropped += dropped;
        self.stages.add(&events, &checked);
        self.rates.extend(block_rates(logs, &checked));
        self.lag_us.extend(&checked.lag_us);
        self.latency_us.extend(&checked.latency_us);
        Ok(())
    }
}

/// The traced half: the same phases in windows of at most
/// [`FLIGHT_WINDOW`] requests, each window's journal read back over the
/// wire, then replays of the request path's layers.
#[allow(clippy::too_many_arguments)]
fn traced(
    opts: &Opts,
    cfg: &SchedulerConfig,
    mix: &Mix,
    rig: &mut Rig,
    gen: &[f64],
    out: &mut Outcome,
    failures: &mut Failures,
) -> Result<(), String> {
    let before = lamps_obs::registry::snapshot();
    let stats_before = rig.server.stats();
    let seconds = opts.traced_seconds();

    let mut open = Journaled::default();
    let mut left = open_requests(seconds);
    while left > 0 {
        let n = left.min(FLIGHT_WINDOW);
        left -= n;
        lamps_obs::flight::clear();
        let logs = rig.open(mix, n);
        open.window(rig, mix, &logs, cfg, out, failures)?;
    }
    let mut closed = Journaled::default();
    let until = Instant::now() + Duration::from_secs_f64(seconds * (1.0 - OPEN_SHARE));
    while Instant::now() < until {
        lamps_obs::flight::clear();
        let logs = rig.closed(mix, |sent| {
            sent < FLIGHT_WINDOW as usize && Instant::now() < until
        });
        closed.window(rig, mix, &logs, cfg, out, failures)?;
    }
    let after = lamps_obs::registry::snapshot();
    let stats_after = rig.server.stats();

    let (o, c) = (&open.stages, &closed.stages);
    out.say(format!(
        "journal: {} open-loop and {} closed-loop requests with a full lifecycle, {} without",
        o.queue_wait.len(),
        c.solve.len(),
        o.missing + c.missing
    ));
    out.say(format!(
        "obs.trace_overhead: not applicable on serve (the daemon is traced in both halves); reported as 0; traced closed loop {:.0}/s, p50 {:.1} us",
        median(&closed.rates),
        quantile(&closed.latency_us, 0.5)
    ));
    out.layer("serve.outside_us_p50", quantile(&o.outside, 0.5));
    out.layer("serve.queue_wait_us_p50", quantile(&o.queue_wait, 0.5));
    out.layer("serve.queue_wait_us_p99", quantile(&o.queue_wait, 0.99));
    out.layer("serve.queue_depth_max", o.depth_max.max(c.depth_max) as f64);
    out.layer("serve.solve_us_p50", quantile(&c.solve, 0.5));
    out.layer("serve.solve_us_p99", quantile(&c.solve, 0.99));
    out.layer("serve.reply_us_p50", quantile(&c.reply, 0.5));
    out.layer(
        "serve.rejected",
        (stats_after.rejected - stats_before.rejected) as f64,
    );
    out.layer(
        "serve.protocol_errors",
        (stats_after.protocol_errors - stats_before.protocol_errors) as f64,
    );
    // Overwritten events and replies without a whole lifecycle in the
    // journal: either makes the stage breakdown partial.
    out.layer(
        "obs.flight_dropped",
        (open.dropped + closed.dropped + o.missing + c.missing) as f64,
    );
    out.layer("loadgen.lag_us_p99", quantile(&open.lag_us, 0.99));
    for (name, _) in crate::report::PER_LAYER
        .iter()
        .filter(|(n, _)| n.starts_with("obs.trace_overhead."))
    {
        out.layer(name, 0.0);
    }
    publish_counters(&before, &after, &[], out);

    // Replays over the distinct requests: parse, solve on a fresh cache
    // (as every served request is), the sched layer under it, encode.
    let lines: Vec<String> = (0..PLAN as u64).map(|p| mix.line(p)).collect();
    let t = Instant::now();
    for line in &lines {
        std::hint::black_box(parse_request(line.trim_end(), &Limits::default()).ok());
    }
    out.layer("serve.parse_us", micros(t) / PLAN as f64);
    let mut ledger = SolverLedger::default();
    let (mut steps, mut degraded, mut encode_us) = (0u64, 0u64, 0.0);
    for (p, line) in lines.iter().enumerate() {
        let entry = &mix.plan[p];
        let Ok(Request::Solve(req)) = parse_request(line.trim_end(), &Limits::default()) else {
            failures.add(1, || format!("plan entry {p} does not parse"));
            continue;
        };
        let graph = &mix.graphs[entry.graph];
        let budget = req
            .budget_steps
            .map_or_else(SolveBudget::unlimited, SolveBudget::steps);
        let deadline = match req.deadline {
            DeadlineSpec::Factor(f) => corpus::deadline_s(graph, f, cfg),
            DeadlineSpec::Seconds(s) => s,
        };
        let mut cache = ScheduleCache::for_graph(graph);
        let Ok(b) = solve_with_budget_cache(entry.strategy, deadline, cfg, &mut cache, &budget)
        else {
            failures.add(1, || format!("plan entry {p}: replayed solve failed"));
            continue;
        };
        steps += b.steps;
        degraded += u64::from(!b.completeness.is_complete());
        let mut warm = replay_sched(graph, &mut cache, &mut ledger, failures);
        let t = Instant::now();
        std::hint::black_box(
            solve_with_budget_cache(entry.strategy, deadline, cfg, &mut warm, &budget).ok(),
        );
        ledger.warm_us += micros(t);
        let t = Instant::now();
        let reply = encode_solved(p as u64, entry.strategy, &b);
        encode_us += micros(t);
        failures.add(
            u64::from(!reply.contains(strategy_wire_name(entry.strategy))),
            || format!("plan entry {p}: encoded reply names the wrong strategy"),
        );
    }
    ledger.publish(out);
    out.layer("serve.encode_us", encode_us / PLAN as f64);
    out.layer("core.budget_steps", steps as f64);
    out.layer("core.degraded", degraded as f64);
    out.layer("taskgraph.gen_s", median(gen));
    out.say(format!(
        "layers: serve.* per request; sched/core totals over one replay of the {PLAN} distinct requests"
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A correct reply to request `id`, as the daemon would encode it.
    fn reply(mix: &Mix, id: u64, cfg: &SchedulerConfig) -> String {
        let entry = &mix.plan[id as usize % PLAN];
        let Ok(Request::Solve(req)) = parse_request(mix.line(id).trim_end(), &Limits::default())
        else {
            panic!("plan lines parse");
        };
        let budget = req
            .budget_steps
            .map_or_else(SolveBudget::unlimited, SolveBudget::steps);
        let graph = &mix.graphs[entry.graph];
        let DeadlineSpec::Factor(f) = req.deadline else {
            panic!("the mix uses deadline factors");
        };
        let mut cache = ScheduleCache::for_graph(graph);
        let b = solve_with_budget_cache(
            entry.strategy,
            corpus::deadline_s(graph, f, cfg),
            cfg,
            &mut cache,
            &budget,
        )
        .expect("the mix is feasible");
        encode_solved(id, entry.strategy, &b).trim_end().to_string()
    }

    fn log(exchanges: &[(u64, Option<String>)]) -> ConnLog {
        let now = Instant::now();
        ConnLog {
            sent: exchanges.iter().map(|&(id, _)| (id, now, now)).collect(),
            replies: exchanges
                .iter()
                .filter_map(|(id, r)| r.clone().map(|r| (Some(*id), now, r)))
                .collect(),
            error: None,
        }
    }

    #[test]
    fn good_replies_pass_and_a_dropped_reply_is_caught() {
        let cfg = SchedulerConfig::paper();
        let mix = Mix::generate(3);
        let good = log(&[
            (0, Some(reply(&mix, 0, &cfg))),
            (1, Some(reply(&mix, 1, &cfg))),
        ]);
        let mut failures = Failures::default();
        let checked = check(&mix, &[good], &cfg, &mut failures);
        assert_eq!((failures.count, checked.correct), (0, 2));

        let dropped = log(&[(0, Some(reply(&mix, 0, &cfg))), (1, None)]);
        let mut failures = Failures::default();
        let checked = check(&mix, &[dropped], &cfg, &mut failures);
        assert_eq!((failures.count, checked.correct), (1, 1));
        assert!(checked.latency_us.contains(&f64::INFINITY));
    }

    #[test]
    fn a_single_flipped_energy_bit_in_a_reply_is_caught() {
        let cfg = SchedulerConfig::paper();
        let mix = Mix::generate(3);
        let line = reply(&mix, 5, &cfg);
        let Ok(Response::Solved(s)) = parse_response(&line) else {
            panic!("a solved reply");
        };
        let flipped = line.replace(
            &format!("{:016x}", s.energy_bits),
            &format!("{:016x}", s.energy_bits ^ 1),
        );
        assert_ne!(flipped, line);
        let mut failures = Failures::default();
        let checked = check(&mix, &[log(&[(5, Some(flipped))])], &cfg, &mut failures);
        assert_eq!((failures.count, checked.correct), (1, 0));
    }
}
