//! Metric catalogue, failure accounting, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported by every workload with tracing off.
/// What the throughput and the latency samples are depends on the
/// workload (see README.md).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_us_p50", "us"),
    ("latency_us_p90", "us"),
];

/// Per-layer metrics of the traced run. A layer the workload does not
/// exercise reports 0.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("calib.ns_per_op", "ns"),
    ("taskgraph.gen_s", "s"),
    ("sched.keys_us", "us"),
    ("sched.list_us", "us"),
    ("sched.list_runs", "count"),
    ("sched.list_tasks", "count"),
    ("sched.list_ns_per_task", "ns"),
    ("sched.summary_us", "us"),
    ("sched.gaps", "count"),
    ("energy.sweep_us", "us"),
    ("energy.levels_billed", "count"),
    ("core.search_us", "us"),
    ("core.candidates", "count"),
    ("core.sweeps_skipped", "count"),
    ("core.scan_breaks", "count"),
    ("core.probes_pruned", "count"),
    ("core.plateau_hits", "count"),
    ("core.parallel_candidates", "count"),
    ("core.schedule_hit_ratio", "ratio"),
    ("core.budget_steps", "count"),
    ("core.degraded", "count"),
    ("parallel.busy_us", "us"),
    ("parallel.idle_us", "us"),
    ("parallel.items", "count"),
    ("parallel.busy_ratio", "ratio"),
    ("serve.parse_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.outside_us_p50", "us"),
    ("serve.queue_wait_us_p50", "us"),
    ("serve.queue_wait_us_p99", "us"),
    ("serve.queue_depth_max", "count"),
    ("serve.solve_us_p50", "us"),
    ("serve.solve_us_p99", "us"),
    ("serve.reply_us_p50", "us"),
    ("serve.rejected", "count"),
    ("serve.protocol_errors", "count"),
    ("loadgen.lag_us_p99", "us"),
    ("sim.plan_us", "us"),
    ("sim.frame_us", "us"),
    ("sim.reclaim_us", "us"),
    ("sim.fault_us", "us"),
    ("sim.resolves", "count"),
    ("sim.resolve_steps", "count"),
    ("sim.admitted", "count"),
    ("sim.deferred", "count"),
    ("sim.shed", "count"),
    ("sim.reclaimed_frac", "ratio"),
    ("sim.miss_rate", "ratio"),
    ("obs.flight_dropped", "count"),
    ("obs.trace_overhead.setup_s", "s"),
    ("obs.trace_overhead.throughput_per_s", "1/s"),
    ("obs.trace_overhead.latency_us_p50", "us"),
    ("obs.trace_overhead.latency_us_p90", "us"),
];

/// Failed operations, with the first few descriptions kept for the log.
#[derive(Debug, Default)]
pub struct Failures {
    /// Operations that failed a check.
    pub count: u64,
    /// Descriptions of the first failures.
    pub examples: Vec<String>,
}

impl Failures {
    /// Count `n` failed operations described by `what`.
    pub fn add(&mut self, n: u64, what: impl FnOnce() -> String) {
        if n == 0 {
            return;
        }
        self.count += n;
        if self.examples.len() < 8 {
            self.examples.push(what());
        }
    }
}

/// The end-to-end figures of one timed phase.
#[derive(Debug, Clone, Default)]
pub struct Timed {
    /// Completed operations per second over the whole phase (serve:
    /// the median over blocks of requests).
    pub throughput_per_s: f64,
    /// Latency samples \[µs\], in the order the operations ran.
    pub latencies_us: Vec<f64>,
}

impl Timed {
    /// The `q` latency percentile over every sample of the phase.
    pub fn percentile(&self, q: f64) -> f64 {
        crate::stats::quantile(&self.latencies_us, q)
    }

    /// `[throughput, p50, p90]`, the gated figures.
    pub fn figures(&self) -> [f64; 3] {
        [
            self.throughput_per_s,
            self.percentile(0.50),
            self.percentile(0.90),
        ]
    }
}

/// Set-up samples per timed phase. One is taken before the phase and
/// the rest at even intervals of its measured time, so the median
/// set-up time sees the machine over the same stretch as the timed
/// figures do.
pub const SETUP_SAMPLES: usize = 16;

/// Set-up samples of one phase: generation time and whole set-up
/// time \[s\].
#[derive(Debug, Default)]
pub struct Setups {
    /// Generation time of each set-up.
    pub gen_s: Vec<f64>,
    /// Whole time of each set-up.
    pub setup_s: Vec<f64>,
    every: f64,
    next: f64,
}

impl Setups {
    /// Pace samples over a phase of `seconds` of measured time.
    pub fn paced(seconds: f64) -> Setups {
        let every = seconds / SETUP_SAMPLES as f64;
        Setups {
            every,
            next: every,
            ..Setups::default()
        }
    }

    /// Record one set-up's `(generation, whole)` times.
    pub fn push(&mut self, (gen_s, setup_s): (f64, f64)) {
        self.gen_s.push(gen_s);
        self.setup_s.push(setup_s);
    }

    /// Whether the next sample is due after `measured` seconds.
    pub fn due(&mut self, measured: f64) -> bool {
        let due = measured >= self.next;
        if due {
            self.next += self.every;
        }
        due
    }

    /// Median whole set-up time.
    pub fn median(&self) -> f64 {
        crate::stats::median(&self.setup_s)
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations the run performed and checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failures: Failures,
    /// Median set-up time \[s\].
    pub setup_s: f64,
    /// The (untraced) timed phase.
    pub timed: Timed,
    /// Per-layer values by name (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Append a human-readable line.
    pub fn say(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Record a per-layer value; the name must be in [`PER_LAYER`].
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.layers.insert(name, value);
    }

    /// The four end-to-end values in [`END_TO_END`] order.
    pub fn end_to_end(&self) -> [f64; 4] {
        let [t, p50, p90] = self.timed.figures();
        [self.setup_s, t, p50, p90]
    }

    /// Report the latency percentiles under the workload's own name
    /// for its latency sample (`graph_ms`, `latency_us`, …), scaled
    /// from µs by `scale`, with the sample counts behind them.
    pub fn say_latencies(&mut self, name: &str, scale: f64, unit: &str) {
        let n = self.timed.latencies_us.len();
        for (q, tag) in [(0.5, "p50"), (0.9, "p90"), (0.99, "p99")] {
            let v = self.timed.percentile(q) * scale;
            self.say(crate::metric_line(
                &format!("{name}_{tag}"),
                v,
                unit,
                Some((n, q)),
            ));
        }
    }

    /// Record the traced phase's figures as the tracing overhead;
    /// `traced_setup_s` is the median of the traced phase's set-ups.
    pub fn trace_overhead(&mut self, traced: &Timed, traced_setup_s: f64) {
        let [s, t, p50, p90] = self.end_to_end();
        let [tt, tp50, tp90] = traced.figures();
        self.layer("obs.trace_overhead.setup_s", traced_setup_s - s);
        self.layer("obs.trace_overhead.throughput_per_s", tt - t);
        self.layer("obs.trace_overhead.latency_us_p50", tp50 - p50);
        self.layer("obs.trace_overhead.latency_us_p90", tp90 - p90);
    }
}

/// A finite number as JSON (non-finite values cannot occur in a
/// correct run; they are written as 0 and the run is failed upstream).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)
        );
    }
    out.push_str("}}");
    out
}
