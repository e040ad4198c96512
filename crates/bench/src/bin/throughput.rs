//! Solver throughput benchmark against a recorded baseline run.
//!
//! Runs the Fig. 10 coarse-grain workload (STG-style random groups,
//! 50–5000 nodes, plus the application proxies; four deadline factors ×
//! four strategies per graph, 608 solves) through the production solver
//! — flat-arena schedule cache, lower-bound pruned scan, memoized EDF
//! ranks — and times it with the shared min-over-reps helper
//! ([`lamps_bench::timing`]).
//!
//! There is no in-process "legacy engine" reconstruction: the *before*
//! figure comes from a **baseline JSON** recorded by actually running
//! this binary at an earlier commit (`--baseline <json>`, default the
//! committed `BENCH_solver.json`). Check out the seed commit in a
//! scratch worktree, run `throughput --out seed.json` there, and pass
//! that file here — see EXPERIMENTS.md for the recipe.
//!
//! Correctness is gated in-run: the whole workload is re-solved with
//! every solver shortcut disabled ([`solve_with_cache_unpruned`] on a
//! shortcut-free cache) and the per-strategy energy totals must agree
//! with the pruned engine bit-for-bit; when the baseline file covers
//! the same workload its recorded totals must match too. The binary
//! aborts on a single differing bit.
//!
//! Reported stages: `schedule_seconds` (list-scheduling cost — cold
//! minus warm pass), `sweep_seconds` (a warm pass over pre-built
//! caches: feasibility search + level sweeps only), and the untimed-
//! path `unpruned_reference_seconds`, plus one workload's worth of
//! cache/prune counters (plateau hits, probes pruned, sweeps skipped,
//! scan breaks, candidates).
//!
//! Observability: `--trace <json>` writes a Chrome trace, `--metrics-out
//! <json>` dumps the metrics registry (including a
//! `bench.throughput.solves_per_sec` gauge), and `--explain <json>`
//! writes one sample `lamps-explain-v1` decision log for CI validation.
//! Enabling tracing from the start perturbs the timed passes; the
//! recorded figures are only meaningful without `--trace`.

use lamps_bench::cli::Options;
use lamps_bench::suite::{Granularity, Suite, DEADLINE_FACTORS};
use lamps_bench::timing::{min_over_reps, sample_seconds};
use lamps_core::cache::ScheduleCache;
use lamps_core::{solve_with_cache, solve_with_cache_unpruned, SchedulerConfig, Strategy};
use lamps_obs::json::{parse, Value};
use lamps_taskgraph::TaskGraph;
use std::fmt::Write as _;

/// Per-strategy energy totals accumulated in workload order.
#[derive(Default, Clone, Copy, PartialEq)]
struct Totals {
    per_strategy: [f64; 4],
    solve_calls: usize,
    solved: usize,
}

impl Totals {
    fn add(&mut self, strategy_idx: usize, energy: Option<f64>) {
        self.solve_calls += 1;
        if let Some(e) = energy {
            self.per_strategy[strategy_idx] += e;
            self.solved += 1;
        }
    }

    fn bitwise_eq(&self, other: &Totals) -> bool {
        self.solve_calls == other.solve_calls
            && self.solved == other.solved
            && self
                .per_strategy
                .iter()
                .zip(&other.per_strategy)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// One workload cell loop over caller-provided caches (one per graph),
/// so the same traversal serves the cold, warm, and reference passes.
fn run_cells<F>(
    graphs: &[TaskGraph],
    caches: &mut [ScheduleCache<'_>],
    cfg: &SchedulerConfig,
    mut solve_cell: F,
) -> Totals
where
    F: FnMut(Strategy, f64, &SchedulerConfig, &mut ScheduleCache<'_>) -> Option<f64>,
{
    let mut t = Totals::default();
    for (graph, cache) in graphs.iter().zip(caches.iter_mut()) {
        for &factor in &DEADLINE_FACTORS {
            let deadline_s = factor * graph.critical_path_cycles() as f64 / cfg.max_frequency();
            for (si, strategy) in Strategy::all().into_iter().enumerate() {
                t.add(si, solve_cell(strategy, deadline_s, cfg, cache));
            }
        }
    }
    t
}

/// The production engine on fresh caches: pays list scheduling + sweeps.
fn run_cold(graphs: &[TaskGraph], cfg: &SchedulerConfig) -> Totals {
    let mut caches: Vec<ScheduleCache<'_>> = graphs.iter().map(ScheduleCache::for_graph).collect();
    run_cells(graphs, &mut caches, cfg, |strategy, d, cfg, cache| {
        solve_with_cache(strategy, d, cfg, cache)
            .ok()
            .map(|s| s.energy.total())
    })
}

/// The production engine on pre-populated caches: every schedule the
/// scan touches is memoized, so this pass isolates the search + level
/// sweep cost.
fn run_warm(
    graphs: &[TaskGraph],
    caches: &mut [ScheduleCache<'_>],
    cfg: &SchedulerConfig,
) -> Totals {
    run_cells(graphs, caches, cfg, |strategy, d, cfg, cache| {
        solve_with_cache(strategy, d, cfg, cache)
            .ok()
            .map(|s| s.energy.total())
    })
}

/// The shortcut-free reference: fresh caches with the plateau and
/// lower-bound skips disabled, driven through the unpruned solver.
fn run_unpruned(graphs: &[TaskGraph], cfg: &SchedulerConfig) -> Totals {
    let mut caches: Vec<ScheduleCache<'_>> = graphs
        .iter()
        .map(|g| {
            let mut c = ScheduleCache::for_graph(g);
            c.set_shortcuts_enabled(false);
            c
        })
        .collect();
    run_cells(graphs, &mut caches, cfg, |strategy, d, cfg, cache| {
        solve_with_cache_unpruned(strategy, d, cfg, cache)
            .ok()
            .map(|s| s.energy.total())
    })
}

/// The recorded baseline this run is compared against.
struct Baseline {
    source: String,
    found: bool,
    /// Same workload (solve-call count) as the current run.
    comparable: bool,
    solves_per_sec: f64,
    /// Recorded per-strategy totals (`energy_totals_j.<s>.after`).
    energy: [Option<f64>; 4],
}

/// Read `after.solves_per_sec` and the per-strategy energy totals out
/// of a previously recorded BENCH JSON. Tolerates both this binary's
/// schema and the pre-rework one (both keep the same key paths).
fn read_baseline(path: &str, strategies: &[&str; 4], solve_calls: usize) -> Baseline {
    let mut b = Baseline {
        source: path.to_string(),
        found: false,
        comparable: false,
        solves_per_sec: 0.0,
        energy: [None; 4],
    };
    let Ok(text) = std::fs::read_to_string(path) else {
        return b;
    };
    let Ok(root) = parse(&text) else {
        return b;
    };
    let Some(sps) = root
        .get("after")
        .and_then(|a| a.get("solves_per_sec"))
        .and_then(Value::as_number)
    else {
        return b;
    };
    b.found = true;
    b.solves_per_sec = sps;
    b.comparable = root
        .get("workload")
        .and_then(|w| w.get("solve_calls"))
        .and_then(Value::as_number)
        == Some(solve_calls as f64);
    for (si, name) in strategies.iter().enumerate() {
        b.energy[si] = root
            .get("energy_totals_j")
            .and_then(|e| e.get(name))
            .and_then(|s| s.get("after"))
            .and_then(Value::as_number);
    }
    b
}

/// Snapshot of the solver counters this binary reports.
#[derive(Default, Clone, Copy)]
struct Counters {
    values: [u64; COUNTER_NAMES.len()],
}

const COUNTER_NAMES: [(&str, &str); 11] = [
    ("schedule_hits", "core.cache.schedule_hits"),
    ("schedule_misses", "core.cache.schedule_misses"),
    ("summary_hits", "core.cache.summary_hits"),
    ("summary_misses", "core.cache.summary_misses"),
    ("plateau_hits", "core.cache.plateau_hits"),
    ("probes_pruned", "core.cache.probes_pruned"),
    ("candidates", "core.scan.candidates"),
    ("sweeps_skipped", "core.prune.sweeps_skipped"),
    ("scan_breaks", "core.prune.scan_breaks"),
    ("list_schedule_runs", "sched.list_schedule.runs"),
    ("list_schedule_tasks", "sched.list_schedule.tasks"),
];

fn counters_now() -> Counters {
    let snap = lamps_obs::registry::snapshot();
    let mut c = Counters::default();
    for (i, (_, metric)) in COUNTER_NAMES.iter().enumerate() {
        c.values[i] = snap.counter(metric).unwrap_or(0);
    }
    c
}

fn main() {
    let opts = Options::parse(&[
        "graphs",
        "seed",
        "out",
        "smoke",
        "reps",
        "baseline",
        "trace",
        "metrics-out",
        "explain",
    ]);
    let smoke = opts.flag("smoke");
    let graphs_per_group = opts.usize("graphs", if smoke { 2 } else { 5 });
    let seed = opts.u64("seed", 2006);
    let out = opts.string("out", "BENCH_solver.json");
    let reps = opts.usize("reps", if smoke { 3 } else { 7 }).max(1);
    let baseline_path = opts.string("baseline", "BENCH_solver.json");
    let trace_path = opts.string("trace", "");
    let metrics_out = opts.string("metrics-out", "");
    let explain_out = opts.string("explain", "");
    if !trace_path.is_empty() {
        lamps_obs::enable_tracing();
    }

    let suite = if smoke {
        Suite::smoke()
    } else {
        Suite::paper(graphs_per_group, seed)
    };
    let cfg = SchedulerConfig::paper();
    let unit = Granularity::Coarse.cycles_per_unit();

    let group_names: Vec<String> = suite.groups.iter().map(|g| g.name.clone()).collect();
    let graphs: Vec<TaskGraph> = suite
        .groups
        .iter()
        .flat_map(|g| g.graphs.iter().map(|graph| graph.scale_weights(unit)))
        .collect();
    eprintln!(
        "throughput: {} graphs ({} groups) x {} factors x {} strategies, coarse grain, seed {seed}, {reps} reps",
        graphs.len(),
        group_names.len(),
        DEADLINE_FACTORS.len(),
        Strategy::all().len(),
    );

    let strategies = ["ss", "lamps", "ss_ps", "lamps_ps"];
    // Read the baseline before anything overwrites `out` (they default
    // to the same file).
    let warmup = run_cold(&graphs, &cfg);
    let baseline = read_baseline(&baseline_path, &strategies, warmup.solve_calls);

    // Headline: full engine on fresh caches, minimum over `reps` passes
    // (one noisy sample must not decide the recorded figure).
    let (total_s, after) = min_over_reps(reps, || run_cold(&graphs, &cfg));
    assert!(
        after.bitwise_eq(&warmup),
        "cold passes disagree with each other"
    );
    let solves_per_sec = after.solve_calls as f64 / total_s;
    eprintln!(
        "after: {total_s:.3} s (min of {reps}), {solves_per_sec:.1} solves/s (arena cache + pruned scan)"
    );

    // Stage split: a warm pass re-solves every cell against caches that
    // already hold all schedules, isolating search + sweep cost; the
    // cold-minus-warm difference is the list-scheduling cost.
    let mut warm_caches: Vec<ScheduleCache<'_>> =
        graphs.iter().map(ScheduleCache::for_graph).collect();
    let _ = run_warm(&graphs, &mut warm_caches, &cfg);
    let (sweep_s, warm) = min_over_reps(reps, || run_warm(&graphs, &mut warm_caches, &cfg));
    assert!(warm.bitwise_eq(&after), "warm pass changed the solutions");
    let schedule_s = (total_s - sweep_s).max(0.0);
    eprintln!("stages: schedule {schedule_s:.3} s, sweep {sweep_s:.3} s (warm-pass split)");

    // Correctness reference: every shortcut disabled, bit-for-bit the
    // same totals or the binary aborts below.
    let (reference_s, reference) = sample_seconds(|| run_unpruned(&graphs, &cfg));
    eprintln!(
        "reference: {reference_s:.3} s unpruned ({:.2}x slower than the pruned engine)",
        reference_s / total_s
    );

    // One workload's worth of cache/prune counters, measured as a delta
    // so a pre-enabled registry (--metrics-out) doesn't double-count.
    lamps_obs::enable_metrics();
    let c0 = counters_now();
    let counted = run_cold(&graphs, &cfg);
    let c1 = counters_now();
    if metrics_out.is_empty() {
        lamps_obs::disable_metrics();
    }
    assert!(
        counted.bitwise_eq(&after),
        "metrics pass changed the solutions"
    );
    let mut counters = Counters::default();
    for i in 0..COUNTER_NAMES.len() {
        counters.values[i] = c1.values[i].saturating_sub(c0.values[i]);
    }

    // One-line normalization so runs over very different graph sizes
    // (a 100k-task campaign vs these 50–5000-task groups) stay
    // comparable: cost per solve call, and raw list-scheduling task
    // throughput (tasks counted over the same workload the timed pass
    // ran).
    let ns_per_solve = 1e9 * total_s / after.solve_calls as f64;
    let tasks_scheduled = counters.values[COUNTER_NAMES.len() - 1];
    let tasks_per_sec = tasks_scheduled as f64 / total_s;
    eprintln!(
        "summary: {ns_per_solve:.0} ns/solve, {tasks_per_sec:.3e} tasks-scheduled/s \
         ({tasks_scheduled} tasks across {} list-schedule runs per workload)",
        counters.values[COUNTER_NAMES.len() - 2]
    );

    assert_eq!(after.solve_calls, reference.solve_calls);
    assert_eq!(
        after.solved, reference.solved,
        "engines disagree on feasibility"
    );
    let mut all_equal = true;
    for (si, name) in strategies.iter().enumerate() {
        let (a, r) = (after.per_strategy[si], reference.per_strategy[si]);
        let mut equal = a.to_bits() == r.to_bits();
        if baseline.found && baseline.comparable {
            equal &= baseline.energy[si].map(f64::to_bits) == Some(a.to_bits());
        }
        all_equal &= equal;
        eprintln!("energy[{name}]: pruned {a:.9e} J, unpruned {r:.9e} J, bitwise_equal={equal}");
    }
    let speedup = if baseline.found && baseline.solves_per_sec > 0.0 {
        solves_per_sec / baseline.solves_per_sec
    } else {
        f64::NAN
    };
    if baseline.found {
        eprintln!(
            "baseline {}: {:.1} solves/s recorded, speedup {speedup:.2}x{}",
            baseline.source,
            baseline.solves_per_sec,
            if baseline.comparable {
                ""
            } else {
                " (different workload — energies not compared)"
            }
        );
    } else {
        eprintln!(
            "baseline {}: not found / unreadable — no speedup figure",
            baseline.source
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"benchmark\": \"allocation-free solver core\",");
    let _ = writeln!(json, "  \"workload\": {{");
    let _ = writeln!(json, "    \"granularity\": \"coarse\",");
    let _ = writeln!(json, "    \"smoke\": {smoke},");
    let _ = writeln!(json, "    \"seed\": {seed},");
    let _ = writeln!(json, "    \"graphs_per_group\": {graphs_per_group},");
    let _ = writeln!(
        json,
        "    \"groups\": [{}],",
        group_names
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(json, "    \"graphs\": {},", graphs.len());
    let _ = writeln!(
        json,
        "    \"deadline_factors\": [{}],",
        DEADLINE_FACTORS
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(
        json,
        "    \"strategies\": [{}],",
        strategies
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(json, "    \"solve_calls\": {},", after.solve_calls);
    let _ = writeln!(json, "    \"solved\": {}", after.solved);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"baseline\": {{");
    let _ = writeln!(json, "    \"source\": \"{}\",", baseline.source);
    let _ = writeln!(json, "    \"found\": {},", baseline.found);
    let _ = writeln!(json, "    \"comparable\": {},", baseline.comparable);
    let _ = writeln!(json, "    \"solves_per_sec\": {}", baseline.solves_per_sec);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"after\": {{");
    let _ = writeln!(
        json,
        "    \"engine\": \"flat-arena cache + lower-bound pruned scan + rank memo\","
    );
    let _ = writeln!(json, "    \"reps\": {reps},");
    let _ = writeln!(json, "    \"seconds\": {total_s},");
    let _ = writeln!(json, "    \"solves_per_sec\": {solves_per_sec},");
    let _ = writeln!(json, "    \"ns_per_solve\": {ns_per_solve},");
    let _ = writeln!(json, "    \"tasks_scheduled_per_sec\": {tasks_per_sec},");
    let _ = writeln!(json, "    \"stages\": {{");
    let _ = writeln!(json, "      \"schedule_seconds\": {schedule_s},");
    let _ = writeln!(json, "      \"sweep_seconds\": {sweep_s},");
    let _ = writeln!(json, "      \"unpruned_reference_seconds\": {reference_s}");
    let _ = writeln!(json, "    }},");
    let _ = writeln!(json, "    \"counters\": {{");
    for (i, (key, _)) in COUNTER_NAMES.iter().enumerate() {
        let _ = writeln!(
            json,
            "      \"{key}\": {}{}",
            counters.values[i],
            if i + 1 < COUNTER_NAMES.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "    }}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"speedup\": {speedup},");
    let _ = writeln!(json, "  \"energy_totals_j\": {{");
    for (si, name) in strategies.iter().enumerate() {
        let (a, r) = (after.per_strategy[si], reference.per_strategy[si]);
        let base = baseline.energy[si]
            .filter(|_| baseline.comparable)
            .map_or("null".to_string(), |v| v.to_string());
        let _ = writeln!(
            json,
            "    \"{name}\": {{\"after\": {a}, \"unpruned_reference\": {r}, \"baseline\": {base}, \"bitwise_equal\": {}}}{}",
            a.to_bits() == r.to_bits(),
            if si + 1 < strategies.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"all_bitwise_equal\": {all_equal}");
    json.push_str("}\n");

    std::fs::write(&out, &json).expect("write benchmark JSON");
    eprintln!("wrote {out}");

    // Observability artifacts: Chrome trace, metrics snapshot, and a
    // sample decision log of one cell (for CI structural validation).
    if !explain_out.is_empty() {
        let graph = &graphs[0];
        let deadline_s = 2.0 * graph.critical_path_cycles() as f64 / cfg.max_frequency();
        let (_, ex) = lamps_core::solve_explained(Strategy::LampsPs, graph, deadline_s, &cfg);
        std::fs::write(&explain_out, ex.to_json()).expect("write decision log");
        eprintln!("wrote {explain_out}");
    }
    if !trace_path.is_empty() {
        std::fs::write(&trace_path, lamps_obs::trace::export_chrome_json())
            .expect("write chrome trace");
        eprintln!("wrote {trace_path}");
    }
    if !metrics_out.is_empty() {
        lamps_obs::gauge("bench.throughput.solves_per_sec").set(solves_per_sec as u64);
        std::fs::write(&metrics_out, lamps_obs::registry::snapshot().to_json())
            .expect("write metrics snapshot");
        eprintln!("wrote {metrics_out}");
    }

    assert!(
        all_equal,
        "pruned, unpruned, and baseline energy totals must agree bit-for-bit"
    );
}
