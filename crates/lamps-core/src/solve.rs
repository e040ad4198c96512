//! The solver: S&S, LAMPS, and their +PS variants (§4.1–§4.3).

use crate::cache::ScheduleCache;
use crate::config::SchedulerConfig;
use crate::explain::{
    CandidateExplain, GapVerdict, LevelExplain, PsExplain, SearchPhase, SearchStep, SolveExplain,
    MAX_GAP_VERDICTS,
};
use crate::types::{Solution, SolveError, Strategy};
use lamps_energy::{evaluate_summary, min_sleep_cycles, EnergyBreakdown, LevelSweep};
use lamps_power::OperatingPoint;
use lamps_sched::{IdleSummary, ProcId};
use lamps_taskgraph::TaskGraph;

/// Best (level, energy) choice for one already-scheduled processor count.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate {
    pub(crate) n_procs: usize,
    pub(crate) level: OperatingPoint,
    pub(crate) energy: EnergyBreakdown,
    pub(crate) makespan_cycles: u64,
}

/// Safety margin for the energy-floor comparisons: a candidate is pruned
/// only when its floor, *discounted* by one part in 10⁹, still reaches
/// the incumbent energy — `floor * PRUNE_MARGIN >= incumbent`, i.e. the
/// floor exceeds the incumbent by more than the discount. The floor is
/// exact up to a handful of float roundings (relative error ≲ 10⁻¹²),
/// far inside the margin, so a pruned candidate's true energy is
/// provably ≥ the incumbent and the strict-`<` winner rule would reject
/// it anyway: the margin strictly under-prunes, and pruned solves are
/// bitwise identical to unpruned ones. (A candidate whose true energy
/// *equals* its floor — zero idle at the cheapest feasible level — is
/// never pruned against an incumbent it could tie or beat.)
const PRUNE_MARGIN: f64 = 1.0 - 1e-9;

/// Lower bound on the total energy of any candidate whose makespan is at
/// least `bound_cycles`: every one of the graph's `work_cycles` executed
/// cycles costs at least the cheapest energy-per-cycle among the levels
/// fast enough to fit `bound_cycles` into the deadline, and the
/// remaining terms (idle, sleep, wake transitions) are all nonnegative.
/// The level set is taken at the *bound*, not the true makespan — a
/// superset of the levels any such candidate may sweep (per-cycle energy
/// is not monotone in frequency, so the minimum is over the whole set).
/// `None` when no level fits even the bound: such a candidate has no
/// feasible level at all.
fn energy_floor(
    cfg: &SchedulerConfig,
    work_cycles: u64,
    bound_cycles: u64,
    deadline_s: f64,
) -> Option<f64> {
    let required_freq = bound_cycles as f64 / deadline_s;
    cfg.levels
        .at_least(required_freq)
        .map(|l| work_cycles as f64 * l.energy_per_cycle)
        .fold(None, |acc: Option<f64>, e| {
            Some(acc.map_or(e, |a: f64| a.min(e)))
        })
}

/// Pruning/scan counters of one solve, flushed to the metrics registry
/// and into the decision log.
#[derive(Default)]
struct SolveCounters {
    candidates: u64,
    sweeps_skipped: u64,
    scan_breaks: u64,
}

/// Solve `graph` with `strategy` under `deadline_s` on the platform
/// `cfg`.
///
/// Returns the chosen processor count, operating level, schedule, and
/// full energy accounting; errors if the deadline cannot be met at the
/// maximum frequency even with one processor per task.
pub fn solve(
    strategy: Strategy,
    graph: &TaskGraph,
    deadline_s: f64,
    cfg: &SchedulerConfig,
) -> Result<Solution, SolveError> {
    let mut cache = ScheduleCache::for_graph(graph);
    solve_with_cache(strategy, deadline_s, cfg, &mut cache)
}

/// [`solve`], additionally returning the full decision log.
///
/// The log records every processor count the search touched, every
/// level sweep with per-gap shutdown verdicts, and the cache hit/miss
/// deltas; see [`SolveExplain`]. Collecting it costs extra bookkeeping,
/// so use the plain [`solve`] when the log is not needed.
pub fn solve_explained(
    strategy: Strategy,
    graph: &TaskGraph,
    deadline_s: f64,
    cfg: &SchedulerConfig,
) -> (Result<Solution, SolveError>, SolveExplain) {
    let mut cache = ScheduleCache::for_graph(graph);
    solve_with_cache_explained(strategy, deadline_s, cfg, &mut cache)
}

/// [`solve_with_cache`], additionally returning the full decision log
/// (see [`solve_explained`]).
pub fn solve_with_cache_explained(
    strategy: Strategy,
    deadline_s: f64,
    cfg: &SchedulerConfig,
    cache: &mut ScheduleCache<'_>,
) -> (Result<Solution, SolveError>, SolveExplain) {
    let mut explain = SolveExplain::new(strategy, deadline_s);
    let result = solve_impl(
        strategy,
        deadline_s,
        cfg,
        cache,
        Some(&mut explain),
        true,
        None,
    );
    if let Err(e) = &result {
        explain.error = Some(e.to_string());
    }
    (result, explain)
}

/// [`solve`] against a caller-owned [`ScheduleCache`].
///
/// Because LS-EDF schedules are deadline-invariant for any deadline at
/// or above the critical path (see [`ScheduleCache::for_graph`]), one
/// canonical cache can serve a whole sweep over deadlines *and*
/// strategies: every schedule and idle summary is computed at most once
/// for the graph, instead of once per (deadline, strategy) cell.
/// Deadlines below the critical path are rejected before any schedule is
/// touched, so the canonical keys are never used out of their validity
/// range.
pub fn solve_with_cache(
    strategy: Strategy,
    deadline_s: f64,
    cfg: &SchedulerConfig,
    cache: &mut ScheduleCache<'_>,
) -> Result<Solution, SolveError> {
    solve_impl(strategy, deadline_s, cfg, cache, None, true, None)
}

/// [`solve_with_cache`] with the level sweep's per-level sleep cutoffs
/// already resolved. The cutoffs depend only on `(cfg.levels,
/// cfg.sleep)`, so [`crate::batch::solve_batch`] resolves them once and
/// reuses them across every solve of a batch; `sweep` must have been
/// built as `LevelSweep::new(cfg.levels.points(), &cfg.sleep)` for this
/// `cfg`. Results are bitwise identical to [`solve_with_cache`].
pub(crate) fn solve_with_cache_and_sweep(
    strategy: Strategy,
    deadline_s: f64,
    cfg: &SchedulerConfig,
    cache: &mut ScheduleCache<'_>,
    sweep: &LevelSweep,
) -> Result<Solution, SolveError> {
    debug_assert_eq!(sweep.len(), cfg.levels.points().len());
    solve_impl(strategy, deadline_s, cfg, cache, None, true, Some(sweep))
}

/// [`solve_with_cache`] with every solver-side pruning rule disabled:
/// no energy-floor sweep skips, no early scan termination. The search
/// then walks exactly the candidate set of the original exhaustive
/// formulation. The differential suite runs this (against a cache with
/// [`ScheduleCache::set_shortcuts_enabled`] off) as the reference the
/// pruned path must match bitwise; it is not meant for production use.
pub fn solve_with_cache_unpruned(
    strategy: Strategy,
    deadline_s: f64,
    cfg: &SchedulerConfig,
    cache: &mut ScheduleCache<'_>,
) -> Result<Solution, SolveError> {
    solve_impl(strategy, deadline_s, cfg, cache, None, false, None)
}

/// The shared solve body: runs the search, optionally filling a
/// decision log, and flushes per-solve cache deltas into the global
/// metrics registry.
#[allow(clippy::too_many_arguments)]
fn solve_impl(
    strategy: Strategy,
    deadline_s: f64,
    cfg: &SchedulerConfig,
    cache: &mut ScheduleCache<'_>,
    mut explain: Option<&mut SolveExplain>,
    prune: bool,
    sweep: Option<&LevelSweep>,
) -> Result<Solution, SolveError> {
    let _span = lamps_obs::span("core", "solve");
    let stats_before = cache.stats();
    let mut counters = SolveCounters::default();
    let result = solve_search(
        strategy,
        deadline_s,
        cfg,
        cache,
        explain.as_deref_mut(),
        prune,
        sweep,
        &mut counters,
    );
    let delta = cache.stats().since(&stats_before);
    if let Some(ex) = explain {
        ex.cache = delta;
        ex.sweeps_skipped = counters.sweeps_skipped;
        ex.scan_breaks = counters.scan_breaks;
    }
    if lamps_obs::metrics_enabled() {
        lamps_obs::counter("core.solve.calls").inc();
        if result.is_err() {
            lamps_obs::counter("core.solve.errors").inc();
        }
        lamps_obs::counter("core.cache.schedule_hits").add(delta.schedule_hits);
        lamps_obs::counter("core.cache.schedule_misses").add(delta.schedule_misses);
        lamps_obs::counter("core.cache.summary_hits").add(delta.summary_hits);
        lamps_obs::counter("core.cache.summary_misses").add(delta.summary_misses);
        lamps_obs::counter("core.cache.plateau_hits").add(delta.plateau_hits);
        lamps_obs::counter("core.cache.probes_pruned").add(delta.probes_pruned);
        lamps_obs::counter("core.scan.candidates").add(counters.candidates);
        lamps_obs::counter("core.prune.sweeps_skipped").add(counters.sweeps_skipped);
        lamps_obs::counter("core.prune.scan_breaks").add(counters.scan_breaks);
    }
    result
}

#[allow(clippy::too_many_arguments)]
fn solve_search(
    strategy: Strategy,
    deadline_s: f64,
    cfg: &SchedulerConfig,
    cache: &mut ScheduleCache<'_>,
    mut ex: Option<&mut SolveExplain>,
    prune: bool,
    sweep: Option<&LevelSweep>,
    counters: &mut SolveCounters,
) -> Result<Solution, SolveError> {
    let graph = cache.graph();
    if !deadline_s.is_finite() || deadline_s <= 0.0 {
        return Err(SolveError::BadDeadline(deadline_s));
    }
    // Resolve the per-level sleep cutoffs once for the whole search
    // (batch callers pass them in, already resolved once per batch).
    // The unpruned differential reference deliberately keeps the
    // original per-call `evaluate_summary` route instead, so every
    // pruned-vs-unpruned comparison also cross-checks the precomputed-
    // cutoff kernel against the reference accounting, bit for bit.
    let owned_sweep;
    let sweep = if prune {
        Some(match sweep {
            Some(s) => s,
            None => {
                owned_sweep = LevelSweep::new(cfg.levels.points(), &cfg.sleep);
                &owned_sweep
            }
        })
    } else {
        None
    };
    let deadline_cycles = cfg.deadline_cycles(deadline_s);
    // Graph analyses come from the cache, computed once per graph; a
    // solve never walks the graph itself.
    let cpl_cycles = cache.critical_path_cycles();
    let infeasible = |best_possible_cycles: u64| SolveError::Infeasible {
        deadline_s,
        best_possible_s: best_possible_cycles.max(cpl_cycles) as f64 / cfg.max_frequency(),
    };
    if cpl_cycles > deadline_cycles {
        return Err(infeasible(cpl_cycles));
    }
    if let Some(e) = ex.as_deref_mut() {
        e.deadline_cycles = deadline_cycles;
    }

    let ps = strategy.uses_ps();
    let want_explain = ex.is_some();
    // Probe records are buffered locally: the observer closures cannot
    // borrow `ex` directly while `cache` is mutably borrowed. An empty
    // Vec never allocates, so the plain (no-log) path stays free.
    let mut steps: Vec<SearchStep> = Vec::new();

    let best = if strategy.searches_proc_count() {
        // LAMPS / LAMPS+PS (§4.2–§4.3, Figs. 5 & 8): binary search for
        // the minimal feasible count, then a linear scan upward while the
        // makespan keeps decreasing, keeping the least-energy
        // configuration. The scan is linear, not binary, because energy
        // over the processor count has local minima (Fig. 6).
        let n_min_found = cache.min_feasible_procs_with(deadline_cycles, &mut |n, m, hit| {
            if want_explain {
                steps.push(SearchStep {
                    phase: SearchPhase::BinaryProbe,
                    n_procs: n,
                    makespan_cycles: m,
                    feasible: m <= deadline_cycles,
                    cache_hit: hit,
                });
            }
        });
        if let Some(e) = ex.as_deref_mut() {
            e.search.append(&mut steps);
        }
        let n_min = n_min_found.ok_or_else(|| infeasible(cache.makespan(graph.len().max(1))))?;
        let work_cycles = cache.total_work_cycles();
        // Constant floor over the whole scan: every makespan is ≥ CPL,
        // so no candidate — present or future — can cost less than the
        // total work billed at the cheapest level that fits the CPL.
        // Once the incumbent drops to this floor the scan can stop
        // without scheduling further counts.
        let scan_floor = prune
            .then(|| energy_floor(cfg, work_cycles, cpl_cycles, deadline_s))
            .flatten();
        let mut best: Option<Candidate> = None;
        let mut best_index: Option<usize> = None;
        let mut prev_makespan: Option<u64> = None;
        for n in n_min..=graph.len().max(1) {
            if let (Some(b), Some(floor)) = (&best, scan_floor) {
                if floor * PRUNE_MARGIN >= b.energy.total() {
                    counters.scan_breaks += 1;
                    break;
                }
            }
            let was_cached = cache.is_cached(n);
            let makespan = cache.makespan(n);
            if let Some(e) = ex.as_deref_mut() {
                e.search.push(SearchStep {
                    phase: SearchPhase::LinearScan,
                    n_procs: n,
                    makespan_cycles: makespan,
                    feasible: makespan <= deadline_cycles,
                    cache_hit: was_cached,
                });
            }
            if let Some(prev) = prev_makespan {
                // "until increasing the number of processors no longer
                // decreases the makespan" (§4.2).
                if makespan >= prev {
                    break;
                }
            }
            prev_makespan = Some(makespan);
            // Energy floor at this candidate's own makespan: when even
            // the cheapest conceivably-feasible level cannot beat the
            // incumbent (or no level fits at all), the sweep is skipped.
            // Never prunes while there is no incumbent, so error paths
            // and first-candidate behavior are untouched.
            let skip_sweep = prune
                && best.as_ref().is_some_and(|b| {
                    energy_floor(cfg, work_cycles, makespan, deadline_s)
                        .is_none_or(|floor| floor * PRUNE_MARGIN >= b.energy.total())
                });
            if skip_sweep {
                counters.sweeps_skipped += 1;
                if let Some(e) = ex.as_deref_mut() {
                    let mut d = candidate_detail(n, makespan, was_cached);
                    d.required_freq_hz = makespan as f64 / deadline_s;
                    d.pruned = true;
                    e.candidates.push(d);
                }
                // The §4.1 cpl-stop below still applies to a pruned cell.
                if makespan == cpl_cycles {
                    counters.scan_breaks += 1;
                    break;
                }
                continue;
            }
            counters.candidates += 1;
            let mut detail = want_explain.then(|| candidate_detail(n, makespan, was_cached));
            let cand = best_level_for(
                cache.summary(n),
                n,
                deadline_s,
                cfg,
                ps,
                sweep,
                detail.as_mut(),
            );
            if let (Some(e), Some(d)) = (ex.as_deref_mut(), detail) {
                e.candidates.push(d);
            }
            if let Some(c) = cand {
                if best
                    .as_ref()
                    .is_none_or(|b| c.energy.total() < b.energy.total())
                {
                    best = Some(c);
                    best_index = ex.as_deref().map(|e| e.candidates.len() - 1);
                }
            }
            // Once the makespan reaches the CPL no later count can
            // strictly decrease it, so the §4.2 stopping rule would end
            // the scan at the next cell anyway — end it here and skip
            // scheduling that cell.
            if prune && makespan == cpl_cycles {
                counters.scan_breaks += 1;
                break;
            }
        }
        if let Some(e) = ex.as_deref_mut() {
            e.chosen = best_index;
        }
        best.ok_or_else(|| infeasible(cache.makespan(n_min)))?
    } else {
        // S&S / S&S+PS (§4.1, §4.3): employ as many processors as reduce
        // the makespan; if (anomalously) that schedule misses the
        // deadline, fall back to the minimal feasible count.
        let mut n = cache.max_useful_procs_with(&mut |n, m, hit| {
            if want_explain {
                steps.push(SearchStep {
                    phase: SearchPhase::MaxUseful,
                    n_procs: n,
                    makespan_cycles: m,
                    feasible: m <= deadline_cycles,
                    cache_hit: hit,
                });
            }
        });
        if cache.makespan(n) > deadline_cycles {
            let fallback = cache.min_feasible_procs_with(deadline_cycles, &mut |n, m, hit| {
                if want_explain {
                    steps.push(SearchStep {
                        phase: SearchPhase::Fallback,
                        n_procs: n,
                        makespan_cycles: m,
                        feasible: m <= deadline_cycles,
                        cache_hit: hit,
                    });
                }
            });
            if let Some(e) = ex.as_deref_mut() {
                e.search.append(&mut steps);
            }
            n = fallback.ok_or_else(|| infeasible(cache.makespan(n)))?;
        } else if let Some(e) = ex.as_deref_mut() {
            e.search.append(&mut steps);
        }
        let was_cached = cache.is_cached(n);
        let summary = cache.summary(n);
        let makespan = summary.makespan_cycles();
        counters.candidates += 1;
        let mut detail = want_explain.then(|| candidate_detail(n, makespan, was_cached));
        let cand = best_level_for(summary, n, deadline_s, cfg, ps, sweep, detail.as_mut());
        if let (Some(e), Some(d)) = (ex, detail) {
            e.candidates.push(d);
            if cand.is_some() {
                e.chosen = Some(0);
            }
        }
        cand.ok_or_else(|| infeasible(cache.makespan(n)))?
    };

    let schedule = cache.schedule_arc(best.n_procs);
    Ok(Solution {
        strategy,
        n_procs: best.n_procs,
        level: best.level,
        energy: best.energy,
        makespan_cycles: best.makespan_cycles,
        makespan_s: best.makespan_cycles as f64 / best.level.freq,
        schedule,
    })
}

/// Choose the operating level for a fixed schedule, given its idle
/// summary.
///
/// Without PS: the slowest feasible level (maximal stretch, §4.1).
/// With PS: sweep every feasible level from slowest to fastest and keep
/// the least-energy one (§4.3) — the sweep is what trades slowdown
/// against shutdown. Billing goes through [`evaluate_summary`], so the
/// sweep costs O(levels · procs · log gaps) instead of re-walking the
/// schedule's tasks at every level. `detail`, when given, receives the
/// decision-log record of the sweep.
#[allow(clippy::too_many_arguments)]
pub(crate) fn best_level_for(
    summary: &IdleSummary,
    n_procs: usize,
    deadline_s: f64,
    cfg: &SchedulerConfig,
    ps: bool,
    sweep: Option<&LevelSweep>,
    detail: Option<&mut CandidateExplain>,
) -> Option<Candidate> {
    let required_freq = summary.makespan_cycles() as f64 / deadline_s;
    best_level_impl(
        summary,
        n_procs,
        required_freq,
        deadline_s,
        cfg,
        ps,
        sweep,
        detail,
    )
}

/// Level selection with an explicit minimum frequency (used directly by
/// the per-task-deadline solver in [`crate::multi`], where feasibility
/// is tighter than the makespan alone).
pub(crate) fn best_level_constrained(
    summary: &IdleSummary,
    n_procs: usize,
    required_freq: f64,
    horizon_s: f64,
    cfg: &SchedulerConfig,
    ps: bool,
) -> Option<Candidate> {
    best_level_impl(
        summary,
        n_procs,
        required_freq,
        horizon_s,
        cfg,
        ps,
        None,
        None,
    )
}

/// An empty [`CandidateExplain`] shell for the sweep to fill.
fn candidate_detail(n_procs: usize, makespan_cycles: u64, cache_hit: bool) -> CandidateExplain {
    CandidateExplain {
        n_procs,
        makespan_cycles,
        required_freq_hz: 0.0,
        cache_hit,
        levels: Vec::new(),
        best_level: None,
        pruned: false,
    }
}

/// Per-gap shutdown verdicts of `summary` at `level`'s break-even
/// cutoff (the §4.3 rule, re-derived for the decision log).
fn ps_explain(
    summary: &IdleSummary,
    level: &OperatingPoint,
    sleep: &lamps_power::SleepParams,
) -> PsExplain {
    let cutoff = min_sleep_cycles(level, sleep);
    let mut out = PsExplain {
        cutoff_cycles: cutoff,
        sleep_gaps: 0,
        awake_gaps: 0,
        sleep_cycles: 0,
        awake_cycles: 0,
        intervals: Vec::new(),
        truncated: false,
    };
    for p in 0..summary.n_procs() {
        let p = ProcId(p as u32);
        let (awake, asleep, episodes) = summary.split_gaps(p, cutoff);
        out.awake_cycles += awake;
        out.sleep_cycles += asleep;
        out.sleep_gaps += episodes;
        out.awake_gaps += summary.gap_count(p) - episodes;
        for &g in summary.gaps(p) {
            if out.intervals.len() == MAX_GAP_VERDICTS {
                out.truncated = true;
                break;
            }
            out.intervals.push(GapVerdict {
                proc: p.index(),
                len_cycles: g,
                sleeps: g >= cutoff,
            });
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn best_level_impl(
    summary: &IdleSummary,
    n_procs: usize,
    required_freq: f64,
    horizon_s: f64,
    cfg: &SchedulerConfig,
    ps: bool,
    sweep: Option<&LevelSweep>,
    mut detail: Option<&mut CandidateExplain>,
) -> Option<Candidate> {
    let makespan_cycles = summary.makespan_cycles();
    let deadline_s = horizon_s;
    let sleep = ps.then_some(&cfg.sleep);
    if let Some(d) = detail.as_deref_mut() {
        d.required_freq_hz = required_freq;
    }

    // Fast path: the per-level sleep cutoffs are already resolved, so
    // each level costs one structure-of-arrays billing pass instead of
    // a cutoff search plus billing. Same level order, same feasibility
    // filter, same strict-`<` winner rule, and the same billing kernel
    // as `evaluate_summary` — bitwise-identical results. The explain
    // path stays on the per-call route below (it records per-level
    // sweeps and per-gap verdicts anyway, so it is never hot).
    if detail.is_none() {
        if let Some(sw) = sweep {
            let mut best: Option<Candidate> = None;
            for (i, level) in sw.levels().iter().enumerate() {
                if level.freq < required_freq {
                    continue;
                }
                let Ok(energy) = sw.evaluate(summary, i, deadline_s, ps) else {
                    continue;
                };
                if best
                    .as_ref()
                    .is_none_or(|b| energy.total() < b.energy.total())
                {
                    best = Some(Candidate {
                        n_procs,
                        level: *level,
                        energy,
                        makespan_cycles,
                    });
                }
                if !ps {
                    break;
                }
            }
            return best;
        }
    }

    let mut best: Option<Candidate> = None;
    for level in cfg.levels.at_least(required_freq) {
        let evaluated = evaluate_summary(summary, level, deadline_s, sleep);
        if let Some(d) = detail.as_deref_mut() {
            d.levels.push(LevelExplain {
                freq_hz: level.freq,
                vdd: level.vdd,
                energy_j: evaluated.as_ref().ok().map(|e| e.total()),
                sleep_episodes: evaluated.as_ref().map_or(0, |e| e.sleep_episodes),
                ps: sleep.map(|sl| ps_explain(summary, level, sl)),
            });
        }
        let Ok(energy) = evaluated else {
            continue;
        };
        let candidate = Candidate {
            n_procs,
            level: *level,
            energy,
            makespan_cycles,
        };
        if best
            .as_ref()
            .is_none_or(|b| energy.total() < b.energy.total())
        {
            best = Some(candidate);
            if let Some(d) = detail.as_deref_mut() {
                d.best_level = Some(d.levels.len() - 1);
            }
        }
        if !ps {
            // Without PS the paper stretches maximally: take the slowest
            // feasible level and stop.
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use lamps_taskgraph::apps::mpeg;
    use lamps_taskgraph::{GraphBuilder, TaskGraph};

    fn cfg() -> SchedulerConfig {
        SchedulerConfig::paper()
    }

    /// Fig. 4a example scaled to milliseconds of work (coarse grain).
    fn fig4a_coarse() -> TaskGraph {
        let mut b = GraphBuilder::new();
        let t1 = b.add_task(2);
        let t2 = b.add_task(6);
        let t3 = b.add_task(4);
        let t4 = b.add_task(4);
        let t5 = b.add_task(2);
        b.add_edge(t1, t2).unwrap();
        b.add_edge(t1, t3).unwrap();
        b.add_edge(t1, t4).unwrap();
        b.add_edge(t2, t5).unwrap();
        b.add_edge(t3, t5).unwrap();
        b.build().unwrap().scale_weights(3_100_000)
    }

    fn deadline_x(graph: &TaskGraph, factor: f64) -> f64 {
        factor * graph.critical_path_cycles() as f64 / cfg().max_frequency()
    }

    #[test]
    fn all_strategies_meet_the_deadline() {
        let g = fig4a_coarse();
        for factor in [1.5, 2.0, 4.0, 8.0] {
            let d = deadline_x(&g, factor);
            for s in Strategy::all() {
                let sol = solve(s, &g, d, &cfg()).unwrap();
                assert!(
                    sol.makespan_s <= d * (1.0 + 1e-9),
                    "{s} misses deadline at {factor}x"
                );
                sol.schedule.validate(&g).unwrap();
                assert_eq!(sol.schedule.n_procs(), sol.n_procs);
            }
        }
    }

    #[test]
    fn dominance_chain_holds() {
        // LAMPS+PS ≤ {LAMPS, S&S+PS} ≤ S&S (§4: each refinement only
        // widens the search space / applies PS where it helps).
        let g = fig4a_coarse();
        for factor in [1.5, 2.0, 4.0, 8.0] {
            let d = deadline_x(&g, factor);
            let e = |s| solve(s, &g, d, &cfg()).unwrap().energy.total();
            let ss = e(Strategy::ScheduleStretch);
            let lamps = e(Strategy::Lamps);
            let ss_ps = e(Strategy::ScheduleStretchPs);
            let lamps_ps = e(Strategy::LampsPs);
            let eps = 1e-12;
            assert!(lamps <= ss + eps, "{factor}x: LAMPS > S&S");
            assert!(ss_ps <= ss + eps, "{factor}x: S&S+PS > S&S");
            assert!(lamps_ps <= lamps + eps, "{factor}x: LAMPS+PS > LAMPS");
            assert!(lamps_ps <= ss_ps + eps, "{factor}x: LAMPS+PS > S&S+PS");
        }
    }

    #[test]
    fn lamps_uses_fewer_or_equal_processors_with_loose_deadline() {
        let g = fig4a_coarse();
        let d = deadline_x(&g, 8.0);
        let ss = solve(Strategy::ScheduleStretch, &g, d, &cfg()).unwrap();
        let lamps = solve(Strategy::Lamps, &g, d, &cfg()).unwrap();
        assert!(lamps.n_procs <= ss.n_procs);
        assert!(lamps.energy.total() < ss.energy.total());
    }

    #[test]
    fn mpeg_ss_employs_max_useful_processors() {
        // Table 3 reports 7 processors for S&S; our LS-EDF tie-breaking
        // reaches the critical-path makespan with 6 already (one fewer —
        // scheduler tie-break noise, see EXPERIMENTS.md). The invariant
        // that matters: S&S employs the full useful parallelism and its
        // makespan equals the CPL.
        let g = mpeg::paper_gop();
        let sol = solve(
            Strategy::ScheduleStretch,
            &g,
            mpeg::GOP_DEADLINE_SECONDS,
            &cfg(),
        )
        .unwrap();
        assert!(
            (6..=7).contains(&sol.n_procs),
            "S&S used {} processors",
            sol.n_procs
        );
        assert_eq!(sol.makespan_cycles, g.critical_path_cycles());
    }

    #[test]
    fn mpeg_lamps_uses_fewer_processors_than_ss() {
        // Table 3: LAMPS chooses 3 processors and saves > 25% energy.
        let g = mpeg::paper_gop();
        let d = mpeg::GOP_DEADLINE_SECONDS;
        let ss = solve(Strategy::ScheduleStretch, &g, d, &cfg()).unwrap();
        let lamps = solve(Strategy::Lamps, &g, d, &cfg()).unwrap();
        assert!(lamps.n_procs < ss.n_procs, "{} procs", lamps.n_procs);
        let saving = 1.0 - lamps.energy.total() / ss.energy.total();
        assert!(saving > 0.15, "LAMPS saving {saving}");
    }

    #[test]
    fn infeasible_deadline_is_reported() {
        let g = fig4a_coarse();
        let d = deadline_x(&g, 0.9);
        match solve(Strategy::Lamps, &g, d, &cfg()) {
            Err(SolveError::Infeasible { .. }) => {}
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }

    #[test]
    fn bad_deadlines_rejected() {
        let g = fig4a_coarse();
        for d in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            match solve(Strategy::ScheduleStretch, &g, d, &cfg()) {
                Err(SolveError::BadDeadline(_)) => {}
                other => panic!("expected BadDeadline for {d}, got {other:?}"),
            }
        }
    }

    #[test]
    fn tight_deadline_forces_fast_level() {
        // At exactly the CPL (feasible only at f_max for the critical
        // path), S&S must run at the nominal voltage.
        let g = fig4a_coarse();
        let d = deadline_x(&g, 1.0);
        let sol = solve(Strategy::ScheduleStretch, &g, d, &cfg()).unwrap();
        assert!((sol.level.vdd - 1.0).abs() < 1e-9);
    }

    #[test]
    fn loose_deadline_allows_slow_level() {
        let g = fig4a_coarse();
        let d = deadline_x(&g, 8.0);
        let sol = solve(Strategy::ScheduleStretch, &g, d, &cfg()).unwrap();
        assert!(sol.level.vdd < 0.7, "vdd = {}", sol.level.vdd);
    }

    #[test]
    fn ps_sleeps_on_long_tails() {
        // Coarse-grain graph with an 8× deadline: the tail is hundreds of
        // milliseconds, far beyond break-even, so S&S+PS must sleep.
        let g = fig4a_coarse();
        let d = deadline_x(&g, 8.0);
        let sol = solve(Strategy::ScheduleStretchPs, &g, d, &cfg()).unwrap();
        assert!(sol.energy.sleep_episodes > 0);
        let no_ps = solve(Strategy::ScheduleStretch, &g, d, &cfg()).unwrap();
        assert!(sol.energy.total() < no_ps.energy.total());
    }

    #[test]
    fn single_task_graph() {
        let mut b = GraphBuilder::new();
        b.add_task(3_100_000);
        let g = b.build().unwrap();
        let d = deadline_x(&g, 4.0);
        for s in Strategy::all() {
            let sol = solve(s, &g, d, &cfg()).unwrap();
            assert_eq!(sol.n_procs, 1);
        }
    }

    #[test]
    fn pruned_and_unpruned_solves_are_bitwise_identical() {
        // The tentpole soundness claim: energy-floor pruning, the scan
        // cpl-stop, the width plateau, and the lower-bound probe skip
        // must never change the solution — not even in the last bit of
        // the energy.
        let mut graphs = lamps_taskgraph::gen::layered::stg_group(50, 4, 23)
            .into_iter()
            .map(|g| g.scale_weights(310_000))
            .collect::<Vec<_>>();
        graphs.push(fig4a_coarse());
        for (i, g) in graphs.iter().enumerate() {
            for factor in [1.0, 1.5, 2.0, 4.0, 8.0] {
                let d = deadline_x(g, factor);
                for s in Strategy::all() {
                    let pruned = solve(s, g, d, &cfg());
                    let mut plain_cache = ScheduleCache::for_graph(g);
                    plain_cache.set_shortcuts_enabled(false);
                    let unpruned = solve_with_cache_unpruned(s, d, &cfg(), &mut plain_cache);
                    match (pruned, unpruned) {
                        (Ok(a), Ok(b)) => {
                            assert_eq!(a.n_procs, b.n_procs, "graph {i}, {s}, {factor}x");
                            assert_eq!(a.level.freq.to_bits(), b.level.freq.to_bits());
                            assert_eq!(a.makespan_cycles, b.makespan_cycles);
                            assert_eq!(
                                a.energy.total().to_bits(),
                                b.energy.total().to_bits(),
                                "graph {i}, {s}, {factor}x: pruning changed the energy"
                            );
                        }
                        (Err(a), Err(b)) => {
                            assert_eq!(format!("{a}"), format!("{b}"));
                        }
                        (a, b) => panic!("graph {i}, {s}, {factor}x: {a:?} vs {b:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn pruning_counters_surface_in_explain() {
        // On a wide graph with a loose deadline the scan visits several
        // counts; the floor pruning must fire somewhere across the
        // sweep and be visible in the decision log.
        let graphs = lamps_taskgraph::gen::layered::stg_group(60, 2, 7)
            .into_iter()
            .map(|g| g.scale_weights(310_000))
            .collect::<Vec<_>>();
        let mut any_skip = 0u64;
        let mut any_break = 0u64;
        for g in &graphs {
            for factor in [1.5, 4.0] {
                let (res, ex) =
                    solve_explained(Strategy::LampsPs, g, deadline_x(g, factor), &cfg());
                res.unwrap();
                any_skip += ex.sweeps_skipped;
                any_break += ex.scan_breaks;
                // Pruned candidates are recorded with the flag and an
                // empty sweep.
                for c in &ex.candidates {
                    if c.pruned {
                        assert!(c.levels.is_empty());
                        assert_eq!(c.best_level, None);
                    }
                }
                assert_eq!(
                    ex.sweeps_skipped,
                    ex.candidates.iter().filter(|c| c.pruned).count() as u64
                );
            }
        }
        assert!(
            any_skip + any_break > 0,
            "pruning never fired across the suite"
        );
    }

    #[test]
    fn explained_solve_matches_plain_and_serializes() {
        let g = fig4a_coarse();
        let d = deadline_x(&g, 2.0);
        for s in Strategy::all() {
            let plain = solve(s, &g, d, &cfg()).unwrap();
            let (res, ex) = solve_explained(s, &g, d, &cfg());
            let sol = res.unwrap();
            // The log is passive: same choice, bitwise-identical energy.
            assert_eq!(sol.n_procs, plain.n_procs);
            assert_eq!(
                sol.energy.total().to_bits(),
                plain.energy.total().to_bits(),
                "{s}: explained solve diverged"
            );
            let chosen = ex.chosen.expect("feasible solve records its winner");
            let c = &ex.candidates[chosen];
            assert_eq!(c.n_procs, sol.n_procs);
            let best = c.best_level.expect("winner has a level");
            assert_eq!(
                c.levels[best].energy_j.unwrap().to_bits(),
                sol.energy.total().to_bits()
            );
            assert!(!ex.search.is_empty(), "{s}: search path recorded");
            assert_eq!(ex.deadline_cycles, cfg().deadline_cycles(d));
            // JSON round-trips through the shared parser.
            let v = lamps_obs::json::parse(&ex.to_json()).expect("valid JSON");
            assert_eq!(v.get("schema").unwrap().as_str(), Some("lamps-explain-v1"));
            assert_eq!(v.get("strategy").unwrap().as_str(), Some(s.name()));
            let cands = v.get("candidates").unwrap().as_array().unwrap();
            assert_eq!(cands.len(), ex.candidates.len());
            assert_eq!(v.get("chosen").unwrap().as_number(), Some(chosen as f64));
            // Text rendering names the outcome.
            let txt = ex.render_text();
            assert!(txt.contains("chosen: n="), "{txt}");
        }
        // A failing solve records the error and no winner.
        let (res, ex) = solve_explained(Strategy::Lamps, &g, deadline_x(&g, 0.5), &cfg());
        assert!(res.is_err());
        assert!(ex.error.is_some());
        assert_eq!(ex.chosen, None);
        let v = lamps_obs::json::parse(&ex.to_json()).unwrap();
        assert!(v.get("error").unwrap().as_str().is_some());
    }

    #[test]
    fn explain_ps_verdicts_match_break_even() {
        let g = fig4a_coarse();
        let d = deadline_x(&g, 8.0);
        let (res, ex) = solve_explained(Strategy::LampsPs, &g, d, &cfg());
        let sol = res.unwrap();
        assert!(sol.energy.sleep_episodes > 0 || !ex.candidates.is_empty());
        let mut levels_seen = 0usize;
        for c in &ex.candidates {
            for l in &c.levels {
                let p = l.ps.as_ref().expect("+PS strategies carry verdicts");
                levels_seen += 1;
                if !p.truncated {
                    assert_eq!(p.intervals.len(), p.sleep_gaps + p.awake_gaps);
                    assert_eq!(
                        p.intervals.iter().filter(|g| g.sleeps).count(),
                        p.sleep_gaps
                    );
                    let sleep_cycles: u64 = p
                        .intervals
                        .iter()
                        .filter(|g| g.sleeps)
                        .map(|g| g.len_cycles)
                        .sum();
                    assert_eq!(sleep_cycles, p.sleep_cycles);
                }
                for g in &p.intervals {
                    assert_eq!(g.sleeps, g.len_cycles >= p.cutoff_cycles);
                }
            }
        }
        assert!(levels_seen > 1, "+PS sweeps more than one level");
        // Non-PS strategies carry no verdicts.
        let (_, no_ps) = solve_explained(Strategy::Lamps, &g, d, &cfg());
        assert!(no_ps
            .candidates
            .iter()
            .all(|c| c.levels.iter().all(|l| l.ps.is_none())));
    }

    #[test]
    fn fine_grain_ps_rarely_sleeps_inside() {
        // Fine-grain weights: gaps are microseconds, below break-even, so
        // only the end-of-schedule tail can sleep (§5.2's explanation of
        // why fine-grain gains are smaller).
        let g = {
            let mut b = GraphBuilder::new();
            let t1 = b.add_task(2);
            let t2 = b.add_task(6);
            let t3 = b.add_task(4);
            let t4 = b.add_task(4);
            let t5 = b.add_task(2);
            b.add_edge(t1, t2).unwrap();
            b.add_edge(t1, t3).unwrap();
            b.add_edge(t1, t4).unwrap();
            b.add_edge(t2, t5).unwrap();
            b.add_edge(t3, t5).unwrap();
            b.build().unwrap().scale_weights(31_000)
        };
        let d = deadline_x(&g, 1.5);
        let sol = solve(Strategy::ScheduleStretchPs, &g, d, &cfg()).unwrap();
        // Inner gaps are ~tens of microseconds: no sleeping pays off
        // within such a tight, fine-grain window.
        assert_eq!(sol.energy.sleep_episodes, 0);
    }
}
