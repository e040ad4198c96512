//! The `fig10` and `campaign` workloads: batch solving in a closed loop
//! with one caller.
//!
//! * `fig10` solves each graph of the Fig. 10 coarse-grain corpus in
//!   its 16 cells on a fresh [`ScheduleCache`], one graph at a time.
//!   Latency samples are per graph (all 16 cells).
//! * `campaign` pushes 10/20/40-task graphs through
//!   [`lamps_core::solve_batch`] on the worker pool, [`CHUNK`] graphs
//!   per call. Latency samples are per call.
//!
//! Both report correct solves per second as their throughput.

use crate::corpus;
use crate::digest;
use crate::layers::{publish_counters, replay_graph, SolverLedger};
use crate::report::{Failures, Outcome, Setups, Timed};
use crate::stats::{median, micros, secs};
use crate::Opts;
use lamps_core::cache::ScheduleCache;
use lamps_core::{solve_batch, solve_with_cache, BatchJob, SchedulerConfig, Solution, SolveError};
use lamps_energy::LevelSweep;
use lamps_taskgraph::TaskGraph;
use std::time::Instant;

/// Graphs per `solve_batch` call in `campaign`.
pub const CHUNK: usize = 64;

/// Campaign graphs per size (10, 20 and 40 tasks).
const CAMPAIGN_PER_SIZE: usize = 128;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Fig10,
    Campaign,
}

/// A generated corpus with its per-cell deadlines.
struct Input {
    graphs: Vec<TaskGraph>,
    /// `deadlines[g]` holds graph `g`'s four deadlines (factor order).
    deadlines: Vec<[f64; 4]>,
}

fn generate(mode: Mode, seed: u64, cfg: &SchedulerConfig) -> Input {
    let graphs = match mode {
        Mode::Fig10 => corpus::fig10(seed),
        Mode::Campaign => corpus::small(seed, CAMPAIGN_PER_SIZE),
    };
    let deadlines = graphs
        .iter()
        .map(|g| corpus::FACTORS.map(|f| corpus::deadline_s(g, f, cfg)))
        .collect();
    Input { graphs, deadlines }
}

/// Energy bits of one cell's result; `u64::MAX` marks a failed solve.
fn bits(r: &Result<Solution, SolveError>) -> u64 {
    r.as_ref().map_or(u64::MAX, |s| s.energy.total().to_bits())
}

/// Solve unit `u` (fig10: one graph; campaign: one chunk) and return
/// the energy bits of its cells, graph-major.
fn solve_unit(mode: Mode, input: &Input, u: usize, cfg: &SchedulerConfig, out: &mut Vec<u64>) {
    out.clear();
    match mode {
        Mode::Fig10 => {
            let mut cache = ScheduleCache::for_graph(&input.graphs[u]);
            for (d, s) in input.deadlines[u]
                .iter()
                .flat_map(|&d| lamps_core::Strategy::all().map(|s| (d, s)))
            {
                out.push(bits(&solve_with_cache(s, d, cfg, &mut cache)));
            }
        }
        Mode::Campaign => {
            let jobs = chunk_jobs(input, u);
            for row in solve_batch(&lamps_core::Strategy::all(), cfg, &jobs) {
                out.extend(row.iter().map(bits));
            }
        }
    }
}

fn chunk_jobs(input: &Input, u: usize) -> Vec<BatchJob<'_>> {
    let lo = u * CHUNK;
    let hi = (lo + CHUNK).min(input.graphs.len());
    (lo..hi)
        .map(|g| BatchJob {
            graph: &input.graphs[g],
            deadlines_s: &input.deadlines[g],
        })
        .collect()
}

fn units(mode: Mode, input: &Input) -> usize {
    match mode {
        Mode::Fig10 => input.graphs.len(),
        Mode::Campaign => input.graphs.len().div_ceil(CHUNK),
    }
}

/// The first graph index of unit `u`.
fn first_graph(mode: Mode, u: usize) -> usize {
    match mode {
        Mode::Fig10 => u,
        Mode::Campaign => u * CHUNK,
    }
}

/// Reference pass: every cell solved once (through the same entry
/// point as the timed phase), every solution through the independent
/// validator. Returns the cells' energy bits, graph-major.
fn reference_pass(
    mode: Mode,
    input: &Input,
    cfg: &SchedulerConfig,
    failures: &mut Failures,
) -> Vec<u64> {
    let mut all = Vec::with_capacity(input.graphs.len() * corpus::CELLS);
    let check = |g: usize, c: usize, r: &Result<Solution, SolveError>, failures: &mut Failures| {
        let graph = &input.graphs[g];
        let deadline = input.deadlines[g][c / 4];
        match r {
            Ok(sol) => {
                let v = lamps_verify::check_solution(graph, sol, deadline, cfg);
                failures.add(u64::from(!v.is_empty()), || {
                    format!("graph {g} cell {c}: validator: {:?}", v[0])
                });
            }
            Err(e) => failures.add(1, || format!("graph {g} cell {c}: solve failed: {e}")),
        }
    };
    match mode {
        Mode::Fig10 => {
            for (g, graph) in input.graphs.iter().enumerate() {
                let mut cache = ScheduleCache::for_graph(graph);
                for (c, (f, s)) in corpus::cells().enumerate() {
                    let d = input.deadlines[g][c / 4];
                    debug_assert_eq!(d, corpus::deadline_s(graph, f, cfg));
                    let r = solve_with_cache(s, d, cfg, &mut cache);
                    check(g, c, &r, failures);
                    all.push(bits(&r));
                }
            }
        }
        Mode::Campaign => {
            for u in 0..units(mode, input) {
                let jobs = chunk_jobs(input, u);
                for (j, row) in solve_batch(&lamps_core::Strategy::all(), cfg, &jobs)
                    .iter()
                    .enumerate()
                {
                    for (c, r) in row.iter().enumerate() {
                        check(u * CHUNK + j, c, r, failures);
                        all.push(bits(r));
                    }
                }
            }
        }
    }
    all
}

/// Closed loop over the corpus for `seconds` of measured time, one
/// caller, with set-ups of `seed` paced into `setups` between passes
/// (outside the measured time). Every cell's energy bits must equal
/// the reference pass's.
#[allow(clippy::too_many_arguments)]
fn measure(
    mode: Mode,
    input: &Input,
    reference: &[u64],
    cfg: &SchedulerConfig,
    seconds: f64,
    seed: u64,
    setups: &mut Setups,
    failures: &mut Failures,
) -> (Timed, u64) {
    let n_units = units(mode, input);
    let mut cells = Vec::with_capacity(CHUNK * corpus::CELLS);
    let mut attempted = 0u64;
    let mut latencies = Vec::new();
    let mut work = 0.0f64;
    let mut measured = 0.0f64;
    loop {
        let t0 = Instant::now();
        for u in 0..n_units {
            let t = Instant::now();
            solve_unit(mode, input, u, cfg, &mut cells);
            let latency = micros(t);
            let at = first_graph(mode, u) * corpus::CELLS;
            let expected = &reference[at..at + cells.len()];
            let wrong = crate::digest::mismatches(expected, &cells).len() as u64;
            failures.add(wrong, || {
                format!("unit {u}: {wrong} cells differ from the reference bits")
            });
            attempted += cells.len() as u64;
            latencies.push(latency);
            work += (cells.len() as u64 - wrong) as f64;
        }
        measured += secs(t0);
        // Whole passes only, so every run weighs the corpus alike.
        if measured >= seconds {
            break;
        }
        if setups.due(measured) {
            setups.push(set_up(mode, seed, cfg).1);
        }
    }
    let timed = Timed {
        throughput_per_s: work / measured,
        latencies_us: latencies,
    };
    (timed, attempted)
}

/// Generate the corpus and warm up once; returns the input and the
/// generation and whole set-up times.
fn set_up(mode: Mode, seed: u64, cfg: &SchedulerConfig) -> (Input, (f64, f64)) {
    let t = Instant::now();
    let input = generate(mode, seed, cfg);
    let gen_s = secs(t);
    // Warm-up: the first unit (spawns the worker pools, faults in the
    // allocator's arenas).
    let mut cells = Vec::new();
    solve_unit(mode, &input, 0, cfg, &mut cells);
    (input, (gen_s, secs(t)))
}

/// Run `fig10`.
pub fn fig10(opts: &Opts) -> Outcome {
    run(Mode::Fig10, "fig10", opts)
}

/// Run `campaign`.
pub fn campaign(opts: &Opts) -> Outcome {
    run(Mode::Campaign, "campaign", opts)
}

fn run(mode: Mode, name: &str, opts: &Opts) -> Outcome {
    let cfg = SchedulerConfig::paper();
    let mut out = Outcome::default();
    let mut failures = Failures::default();

    let mut setups = Setups::paced(opts.untraced_seconds());
    let (input, times) = set_up(mode, opts.seed, &cfg);
    setups.push(times);

    let reference = reference_pass(mode, &input, &cfg, &mut failures);
    out.attempted += reference.len() as u64;
    crate::check_digest(
        name,
        opts.seed,
        digest::of(&reference),
        &mut out,
        &mut failures,
    );

    let (timed, n) = measure(
        mode,
        &input,
        &reference,
        &cfg,
        opts.untraced_seconds(),
        opts.seed,
        &mut setups,
        &mut failures,
    );
    out.attempted += n;
    out.timed = timed;
    out.setup_s = setups.median();

    let sps = out.timed.throughput_per_s;
    out.say(format!(
        "corpus: {} graphs x {} cells, seed {}",
        input.graphs.len(),
        corpus::CELLS,
        opts.seed
    ));
    out.say(crate::metric_line("solves_per_s", sps, "1/s", None));
    match mode {
        Mode::Fig10 => out.say_latencies("graph_ms", 1e-3, "ms"),
        Mode::Campaign => out.say_latencies("batch_ms", 1e-3, "ms"),
    }

    if opts.trace {
        lamps_obs::enable_metrics();
        let mut traced_setups = Setups::paced(opts.traced_seconds());
        traced_setups.push(set_up(mode, opts.seed, &cfg).1);
        let (traced, n) = measure(
            mode,
            &input,
            &reference,
            &cfg,
            opts.traced_seconds(),
            opts.seed,
            &mut traced_setups,
            &mut failures,
        );
        out.attempted += n;
        out.trace_overhead(&traced, traced_setups.median());

        // One counted pass: the program's own counters, exactly one
        // corpus worth.
        let before = lamps_obs::registry::snapshot();
        let mut cells = Vec::new();
        for u in 0..units(mode, &input) {
            solve_unit(mode, &input, u, &cfg, &mut cells);
        }
        let after = lamps_obs::registry::snapshot();
        lamps_obs::disable_metrics();
        let pool = match mode {
            Mode::Fig10 => "core.par_scan",
            Mode::Campaign => "core.batch",
        };
        publish_counters(&before, &after, &[pool], &mut out);

        let sweep = LevelSweep::new(cfg.levels.points(), &cfg.sleep);
        let mut ledger = SolverLedger::default();
        for (g, graph) in input.graphs.iter().enumerate() {
            let at = g * corpus::CELLS;
            replay_graph(
                graph,
                &cfg,
                &sweep,
                &reference[at..at + corpus::CELLS],
                &mut ledger,
                &mut failures,
            );
        }
        ledger.publish(&mut out);
        out.layer("taskgraph.gen_s", median(&setups.gen_s));
        out.say(format!(
            "layers: totals over one replay of {} graphs",
            ledger.graphs
        ));
    }
    out.failures = failures;
    out
}
