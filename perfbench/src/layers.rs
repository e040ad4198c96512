//! Per-layer replays of the solver, timed from the benchmark's side.
//!
//! The program carries no benchmark instrumentation. Instead, after a
//! graph's 16 cells are solved on a fresh cache, the benchmark replays
//! each layer through its public entry points on the same inputs:
//!
//! * **sched** — a fresh [`ScheduleCache::for_graph`] (EDF keys), then
//!   `schedule(n)` for exactly the processor counts the solve scheduled
//!   and `summary(n)` for exactly the counts it summarised. The replay
//!   is checked against the solve's own `list_scheduling_runs()` and
//!   [`lamps_core::CacheStats`].
//! * **energy** — [`LevelSweep::evaluate`] over every candidate and
//!   level that [`solve_with_cache_explained`] lists, each checked bit
//!   for bit against the level energy the log recorded.
//! * **core** — the 16 cells re-solved on the now-warm cache: the
//!   search cost without list scheduling. Minus the sweep time it is
//!   the search bookkeeping.

use crate::report::{Failures, Outcome};
use crate::stats::micros;
use lamps_core::cache::ScheduleCache;
use lamps_core::{solve_with_cache, solve_with_cache_explained, SchedulerConfig};
use lamps_energy::LevelSweep;
use lamps_obs::registry::MetricsSnapshot;
use lamps_sched::{IdleSummary, ProcId};
use lamps_taskgraph::TaskGraph;
use std::time::Instant;

/// Replay totals over a set of graphs.
#[derive(Debug, Default)]
pub struct SolverLedger {
    /// Graphs replayed.
    pub graphs: u64,
    /// EDF key computation (cache construction) \[µs\].
    pub keys_us: f64,
    /// List scheduling \[µs\].
    pub list_us: f64,
    /// Idle-summary construction \[µs\].
    pub summary_us: f64,
    /// Level sweeps \[µs\].
    pub sweep_us: f64,
    /// Warm re-solve of every cell \[µs\].
    pub warm_us: f64,
    /// List-scheduling runs.
    pub list_runs: u64,
    /// Tasks placed by those runs.
    pub list_tasks: u64,
    /// Idle gaps in the built summaries.
    pub gaps: u64,
    /// Level evaluations billed.
    pub levels_billed: u64,
}

impl SolverLedger {
    /// Write the sched/energy/core-time layer values.
    pub fn publish(&self, out: &mut Outcome) {
        out.layer("sched.keys_us", self.keys_us);
        out.layer("sched.list_us", self.list_us);
        out.layer("sched.list_runs", self.list_runs as f64);
        out.layer("sched.list_tasks", self.list_tasks as f64);
        out.layer(
            "sched.list_ns_per_task",
            if self.list_tasks > 0 {
                self.list_us * 1e3 / self.list_tasks as f64
            } else {
                0.0
            },
        );
        out.layer("sched.summary_us", self.summary_us);
        out.layer("sched.gaps", self.gaps as f64);
        out.layer("energy.sweep_us", self.sweep_us);
        out.layer("energy.levels_billed", self.levels_billed as f64);
        out.layer("core.search_us", (self.warm_us - self.sweep_us).max(0.0));
    }
}

/// Replay the sched and energy layers for one graph's 16 cells.
/// `reference` holds the cells' energy bits (`u64::MAX` for a failed
/// cell) from the reference pass; every replayed solve must reproduce
/// them.
pub fn replay_graph(
    graph: &TaskGraph,
    cfg: &SchedulerConfig,
    sweep: &LevelSweep,
    reference: &[u64],
    ledger: &mut SolverLedger,
    failures: &mut Failures,
) {
    let cells: Vec<(f64, lamps_core::Strategy)> = crate::corpus::cells()
        .map(|(f, s)| (crate::corpus::deadline_s(graph, f, cfg), s))
        .collect();
    let bits = |r: Result<f64, ()>| r.map_or(u64::MAX, f64::to_bits);

    // The solve whose layer work is replayed: all cells, one fresh cache.
    let mut solved = ScheduleCache::for_graph(graph);
    for (i, &(d, s)) in cells.iter().enumerate() {
        let got = bits(
            solve_with_cache(s, d, cfg, &mut solved)
                .map(|x| x.energy.total())
                .map_err(drop),
        );
        failures.add(u64::from(got != reference[i]), || {
            format!("replay solve of cell {i} changed its energy bits")
        });
    }
    let mut replay = replay_sched(graph, &mut solved, ledger, failures);

    // energy: the candidates and levels the decision log lists.
    struct Bill {
        n: usize,
        level: usize,
        deadline_s: f64,
        ps: bool,
        energy_bits: Option<u64>,
    }
    let mut bills: Vec<Bill> = Vec::new();
    for (i, &(d, s)) in cells.iter().enumerate() {
        let (res, ex) = solve_with_cache_explained(s, d, cfg, &mut replay);
        let got = bits(res.map(|x| x.energy.total()).map_err(drop));
        failures.add(u64::from(got != reference[i]), || {
            format!("explained solve of cell {i} changed its energy bits")
        });
        for c in ex.candidates.iter().filter(|c| !c.pruned) {
            for l in &c.levels {
                let Some(level) = sweep.levels().iter().position(|p| {
                    p.freq.to_bits() == l.freq_hz.to_bits() && p.vdd.to_bits() == l.vdd.to_bits()
                }) else {
                    failures.add(1, || {
                        "decision log lists a level off the ladder".to_string()
                    });
                    continue;
                };
                bills.push(Bill {
                    n: c.n_procs,
                    level,
                    deadline_s: d,
                    ps: s.uses_ps(),
                    energy_bits: l.energy_j.map(f64::to_bits),
                });
            }
        }
    }
    let counts: Vec<usize> = bills.iter().map(|b| b.n).collect();
    let summaries: Vec<&IdleSummary> = replay.summaries(&counts);
    let mut billed: Vec<Option<u64>> = Vec::with_capacity(bills.len());
    let t = Instant::now();
    for (b, s) in bills.iter().zip(&summaries) {
        billed.push(
            sweep
                .evaluate(s, b.level, b.deadline_s, b.ps)
                .ok()
                .map(|e| e.total().to_bits()),
        );
    }
    ledger.sweep_us += micros(t);
    ledger.levels_billed += bills.len() as u64;
    let wrong = bills
        .iter()
        .zip(&billed)
        .filter(|(b, got)| b.energy_bits != **got)
        .count();
    failures.add(wrong as u64, || {
        "LevelSweep::evaluate disagrees with the decision log's level energy".to_string()
    });

    // core: every cell again on the warm cache.
    let t = Instant::now();
    for &(d, s) in &cells {
        std::hint::black_box(solve_with_cache(s, d, cfg, &mut solved).ok());
    }
    ledger.warm_us += micros(t);
    ledger.graphs += 1;
}

/// Replay the sched layer of a finished solve: a fresh cache for
/// `graph`, then exactly the list schedules and idle summaries the
/// solve's cache `solved` holds, each checked against that cache's own
/// counts. Returns the replayed (warm) cache.
pub fn replay_sched<'g>(
    graph: &'g TaskGraph,
    solved: &mut ScheduleCache<'_>,
    ledger: &mut SolverLedger,
    failures: &mut Failures,
) -> ScheduleCache<'g> {
    let runs = solved.list_scheduling_runs();
    let summary_misses = solved.stats().summary_misses;
    let scheduled: Vec<usize> = (1..=graph.len()).filter(|&n| solved.is_cached(n)).collect();
    // A count was summarised iff asking for its summary is a memo hit.
    let summarised: Vec<usize> = scheduled
        .iter()
        .copied()
        .filter(|&n| {
            let hits = solved.stats().summary_hits;
            solved.summary(n);
            solved.stats().summary_hits > hits
        })
        .collect();
    failures.add(
        u64::from(scheduled.len() != runs || summarised.len() as u64 != summary_misses),
        || {
            format!(
                "sched replay set ({} schedules, {} summaries) disagrees with the cache ({runs}, {summary_misses})",
                scheduled.len(),
                summarised.len()
            )
        },
    );

    // sched: keys, list scheduling, idle summaries.
    let t = Instant::now();
    let mut replay = ScheduleCache::for_graph(std::hint::black_box(graph));
    ledger.keys_us += micros(t);
    let t = Instant::now();
    for &n in &scheduled {
        std::hint::black_box(replay.schedule(n));
    }
    ledger.list_us += micros(t);
    let t = Instant::now();
    for &n in &summarised {
        std::hint::black_box(replay.summary(n));
    }
    ledger.summary_us += micros(t);
    failures.add(u64::from(replay.list_scheduling_runs() != runs), || {
        "sched replay ran a different number of list schedules".to_string()
    });
    ledger.list_runs += runs as u64;
    ledger.list_tasks += (runs * graph.len()) as u64;
    for &n in &summarised {
        let s = replay.summary(n);
        ledger.gaps += (0..s.n_procs())
            .map(|p| s.gap_count(ProcId(p as u32)) as u64)
            .sum::<u64>();
    }

    replay
}

/// Difference of counter `name` between two registry snapshots.
pub fn counter_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> u64 {
    after
        .counter(name)
        .unwrap_or(0)
        .saturating_sub(before.counter(name).unwrap_or(0))
}

/// Difference of histogram `name`'s sum between two snapshots.
pub fn histogram_sum_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> u64 {
    let sum = |s: &MetricsSnapshot| s.histogram(name).map_or(0, |(_, sum, _)| sum);
    sum(after).saturating_sub(sum(before))
}

/// Publish the solver's own counters over one counted pass, plus the
/// worker-pool busy/idle split of `pool` (`core.batch` or
/// `core.par_scan`).
pub fn publish_counters(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    pools: &[&str],
    out: &mut Outcome,
) {
    let c = |name: &str| counter_delta(before, after, name) as f64;
    out.layer("core.candidates", c("core.scan.candidates"));
    out.layer("core.sweeps_skipped", c("core.prune.sweeps_skipped"));
    out.layer("core.scan_breaks", c("core.prune.scan_breaks"));
    out.layer("core.probes_pruned", c("core.cache.probes_pruned"));
    out.layer("core.plateau_hits", c("core.cache.plateau_hits"));
    out.layer(
        "core.parallel_candidates",
        c("core.scan.parallel_candidates"),
    );
    let hits = c("core.cache.schedule_hits");
    let lookups = hits + c("core.cache.schedule_misses");
    out.layer(
        "core.schedule_hit_ratio",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
    );
    let (mut busy, mut idle, mut items) = (0u64, 0u64, 0u64);
    for pool in pools {
        busy += histogram_sum_delta(before, after, &format!("{pool}.worker_busy_us"));
        idle += histogram_sum_delta(before, after, &format!("{pool}.worker_idle_us"));
        items += counter_delta(before, after, &format!("{pool}.items"));
    }
    out.layer("parallel.busy_us", busy as f64);
    out.layer("parallel.idle_us", idle as f64);
    out.layer("parallel.items", items as f64);
    out.layer(
        "parallel.busy_ratio",
        if busy + idle > 0 {
            busy as f64 / (busy + idle) as f64
        } else {
            0.0
        },
    );
}
