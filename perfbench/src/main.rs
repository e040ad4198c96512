//! One benchmark for the LAMPS solver, the serve daemon and the online
//! runtime. See README.md in this directory.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig10|campaign|serve|online|all> --seed 2006 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Any failed output check makes the run exit with code 1.

#![forbid(unsafe_code)]

mod calib;
mod corpus;
mod digest;
mod layers;
mod online;
mod report;
mod serve;
mod solver;
mod stats;

use report::{Failures, Outcome, END_TO_END, PER_LAYER};

/// A workload's entry point.
type Workload = fn(&Opts) -> Outcome;

/// The workloads, in the order `all` runs them.
const WORKLOADS: [(&str, Workload); 4] = [
    ("fig10", solver::fig10),
    ("campaign", solver::campaign),
    ("serve", serve::run),
    ("online", online::run),
];

/// Command-line settings shared by every workload.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measured time of the run \[s\].
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

impl Opts {
    /// Length of the untraced timed phase: the whole run, or half of a
    /// traced run (the other half measures with tracing on).
    pub fn untraced_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// Length of the traced timed phase.
    pub fn traced_seconds(&self) -> f64 {
        self.seconds / 2.0
    }
}

/// One human-readable metric line; `percentile` is `(samples, q)`.
pub fn metric_line(name: &str, value: f64, unit: &str, percentile: Option<(usize, f64)>) -> String {
    match percentile {
        Some((n, q)) => format!(
            "metric {name} = {value:.4} {unit} (n={n}, {} beyond)",
            stats::beyond(n, q)
        ),
        None => format!("metric {name} = {value:.4} {unit}"),
    }
}

/// Compare a reference pass's digest with the recorded one (default
/// seed only) and say which happened.
pub fn check_digest(
    workload: &str,
    seed: u64,
    value: u64,
    out: &mut Outcome,
    failures: &mut Failures,
) {
    match digest::recorded(workload, seed) {
        Some(want) => {
            failures.add(u64::from(want != value), || {
                format!("energy digest {value:016x} != recorded {want:016x}")
            });
            out.say(format!(
                "digest: {value:016x} (recorded {want:016x}, {})",
                if want == value { "match" } else { "MISMATCH" }
            ));
        }
        None => out.say(format!(
            "digest: {value:016x} (held-out seed {seed}: validator checks only)"
        )),
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: --workload <fig10|campaign|serve|online|all> [--seed N] [--seconds S] [--trace 0|1]"
    );
    std::process::exit(2);
}

fn parse_args() -> (String, Opts) {
    let mut workload = None;
    let mut opts = Opts {
        seed: digest::DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                opts.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes an integer"));
            }
            "--seconds" => {
                opts.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .unwrap_or_else(|| usage("--seconds takes a number in (0, 600]"));
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                };
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if workload != "all" && !WORKLOADS.iter().any(|(n, _)| *n == workload) {
        usage(&format!("unknown workload {workload}"));
    }
    (workload, opts)
}

fn main() {
    let (workload, opts) = parse_args();
    let calib = calib::ns_per_op();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut all_correct = true;
    for (name, run) in WORKLOADS
        .iter()
        .filter(|(n, _)| workload == "all" || *n == workload)
    {
        println!(
            "== {name}: seed {}, {} s, trace {}, {threads} hardware threads",
            opts.seed,
            opts.seconds,
            u8::from(opts.trace)
        );
        let mut out = run(&opts);
        out.layer("calib.ns_per_op", calib);
        let e2e = out.end_to_end();
        let correct = out.failures.count == 0 && e2e.iter().all(|v| v.is_finite());
        for line in &out.lines {
            println!("{line}");
        }
        for ((metric, unit), value) in END_TO_END.iter().zip(e2e) {
            println!("{}", metric_line(metric, value, unit, None));
        }
        println!(
            "metric error_rate = {:.6} ratio ({} failed of {} attempted)",
            out.failures.count as f64 / out.attempted.max(1) as f64,
            out.failures.count,
            out.attempted
        );
        println!("metric calib.ns_per_op = {calib:.4} ns (frozen kernel, not gated)");
        for e in &out.failures.examples {
            println!("FAILED: {e}");
        }
        let prefix = |m: &str| {
            if workload == "all" {
                format!("{name}.{m}")
            } else {
                m.to_string()
            }
        };
        if opts.trace {
            for (metric, unit) in PER_LAYER {
                let value = out.layers.get(metric).copied().unwrap_or(0.0);
                println!("layer {metric} = {value:.4} {unit}");
                metrics.push((prefix(metric), value, unit));
            }
        } else {
            for ((metric, unit), value) in END_TO_END.iter().zip(e2e) {
                metrics.push((prefix(metric), value, unit));
            }
        }
        attempted += out.attempted;
        failed += out.failures.count;
        all_correct &= correct;
    }
    println!(
        "{}",
        report::result_line(all_correct, attempted, failed, &metrics)
    );
    if !all_correct {
        std::process::exit(1);
    }
}
