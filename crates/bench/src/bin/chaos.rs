//! Robustness: fault injection vs online recovery policies.
//!
//! `--trace <json>` writes a Chrome trace of the run (the `sim` spans
//! show each faulty re-execution); `--metrics` dumps the registry —
//! `sim.faults.*` counters summarize injections, recoveries, and
//! escalations across the whole campaign.
//!
//! Every trace goes through `lamps_verify::check_run`; the run prints
//! the violation count and exits 1 when it is non-zero.

use lamps_bench::cli::Options;
use lamps_bench::experiments::chaos::{chaos_report, chaos_sweep};

fn main() {
    let opts = Options::parse(&["graphs", "seed", "out", "smoke", "trace", "metrics"]);
    let smoke = opts.flag("smoke");
    let graphs = opts.usize("graphs", if smoke { 2 } else { 8 });
    let seed = opts.u64("seed", 2006);
    let out = opts.string("out", "results");
    let trace_path = opts.string("trace", "");
    if !trace_path.is_empty() {
        lamps_obs::enable_tracing();
    }
    if opts.flag("metrics") {
        lamps_obs::enable_metrics();
    }
    let cells = chaos_sweep(graphs, seed);
    chaos_report(&cells).emit(&out).expect("write results");
    let violations: usize = cells.iter().map(|c| c.violations).sum();
    if !trace_path.is_empty() {
        std::fs::write(&trace_path, lamps_obs::trace::export_chrome_json())
            .expect("write chrome trace");
        println!("chrome trace written to {trace_path}");
    }
    if opts.flag("metrics") {
        print!("{}", lamps_obs::registry::snapshot().render_text());
    }
    if violations > 0 {
        eprintln!("error: {violations} validator violations");
        std::process::exit(1);
    }
}
