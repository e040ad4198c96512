//! The exhaustive LAMPS / S&S reference search.
//!
//! An executable spec of §4.1–§4.3 that shares nothing with the
//! production search in `lamps-core` but the primitives it is built
//! from: EDF keys from [`latest_finish_times`] at the request's own
//! deadline, schedules from [`list_schedule`], idle summaries from
//! [`IdleSummary::new`] and energies from [`evaluate_summary`]. No
//! schedule cache, no width plateau, no lower-bound probe skip, no
//! energy floor, no critical-path stop: every probe runs the list
//! scheduler (memoized by processor count within one call only) and
//! every scan ends on the paper's plain strict-decrease rule.
//!
//! It also carries the anytime accounting the production search must
//! honour: a *step* is one `(processor count, level)` candidate in the
//! fixed enumeration order (counts ascending from the search's starting
//! count, levels ascending per count; one level per count without PS),
//! charged before it is billed. A search that hits `max_steps` stops,
//! returning the best candidate so far tagged
//! [`Completeness::Degraded`], or [`SolveError::BudgetExhausted`] when
//! it has none.
//!
//! The binary-search ladder (`lo = max(1, ⌈W/D⌉)`, `hi = |V|`) is the
//! production one on purpose: list scheduling is not monotone in the
//! processor count (Graham's anomalies), so the minimal feasible count a
//! binary search finds depends on the probes it makes.
//!
//! [`resolve_suffix_fresh`] is the same kind of spec for the online
//! runtimes' suffix re-solve ([`lamps_core::SuffixSolver::resolve`]):
//! per candidate level it fills its own done/finish/availability
//! vectors, derives EDF keys with [`latest_finish_times`] or
//! [`latest_finish_times_with`], re-list-schedules with
//! [`reschedule_remaining`] and tests feasibility itself — no arena
//! reuse, no key memo, nothing shared with the solver's code.

use crate::validator::DEADLINE_REL_EPS;
use lamps_core::suffix::{SuffixContext, SuffixPlan};
use lamps_core::{BudgetedSolution, Completeness, SchedulerConfig, Solution, SolveError, Strategy};
use lamps_energy::{evaluate_summary, EnergyBreakdown};
use lamps_power::OperatingPoint;
use lamps_sched::{
    latest_finish_times, latest_finish_times_with, list_schedule, reschedule_remaining,
    IdleSummary, PartialSchedule, ProcAvailability, Schedule,
};
use lamps_taskgraph::{TaskGraph, TaskId};
use std::sync::Arc;

/// List schedules of one graph under one key vector, memoized by count
/// for the duration of one [`solve_reference`] call.
struct Schedules<'g> {
    graph: &'g TaskGraph,
    keys: Vec<u64>,
    memo: Vec<Option<Arc<Schedule>>>,
}

impl Schedules<'_> {
    fn get(&mut self, n: usize) -> Arc<Schedule> {
        let (graph, keys) = (self.graph, &self.keys);
        Arc::clone(self.memo[n - 1].get_or_insert_with(|| Arc::new(list_schedule(graph, n, keys))))
    }

    fn makespan(&mut self, n: usize) -> u64 {
        self.get(n).makespan_cycles()
    }
}

/// Solve `graph` with `strategy` under `deadline_s` by exhaustive
/// enumeration, spending at most `max_steps` candidate evaluations
/// (`None`: unlimited). See the module docs for the search and the step
/// accounting; the production `solve_with_budget` must return the same
/// processor count, makespan, level and energy bits for every budget.
pub fn solve_reference(
    strategy: Strategy,
    graph: &TaskGraph,
    deadline_s: f64,
    cfg: &SchedulerConfig,
    max_steps: Option<u64>,
) -> Result<BudgetedSolution, SolveError> {
    if !deadline_s.is_finite() || deadline_s <= 0.0 {
        return Err(SolveError::BadDeadline(deadline_s));
    }
    let deadline_cycles = cfg.deadline_cycles(deadline_s);
    let cpl_cycles = graph.critical_path_cycles();
    let infeasible = |best_possible_cycles: u64| SolveError::Infeasible {
        deadline_s,
        best_possible_s: best_possible_cycles.max(cpl_cycles) as f64 / cfg.max_frequency(),
    };
    if cpl_cycles > deadline_cycles {
        return Err(infeasible(cpl_cycles));
    }
    let n_hi = graph.len().max(1);
    let mut schedules = Schedules {
        graph,
        keys: latest_finish_times(graph, deadline_cycles),
        memo: vec![None; n_hi],
    };

    // The counts the scan may visit, `first..=last`.
    let (first, last) = if strategy.searches_proc_count() {
        let n_min = min_feasible(&mut schedules, graph.total_work_cycles(), deadline_cycles)
            .ok_or_else(|| infeasible(schedules.makespan(n_hi)))?;
        (n_min, n_hi)
    } else {
        // S&S: as many processors as strictly reduce the makespan; the
        // minimal feasible count if (anomalously) that misses.
        let mut n = 1;
        while n < n_hi && schedules.makespan(n + 1) < schedules.makespan(n) {
            n += 1;
        }
        if schedules.makespan(n) > deadline_cycles {
            n = min_feasible(&mut schedules, graph.total_work_cycles(), deadline_cycles)
                .ok_or_else(|| infeasible(schedules.makespan(n)))?;
        }
        (n, n)
    };

    let ps = strategy.uses_ps();
    let sleep = ps.then_some(&cfg.sleep);
    let levels_per_n = if ps { cfg.levels.len() as u64 } else { 1 };
    let total = (last - first + 1) as u64 * levels_per_n;
    let max_steps = max_steps.unwrap_or(u64::MAX);
    let mut spent = 0u64;
    let mut interrupted = false;
    let mut best: Option<(usize, OperatingPoint, EnergyBreakdown, u64)> = None;
    let mut prev_makespan: Option<u64> = None;
    'scan: for n in first..=last {
        // "until increasing the number of processors no longer decreases
        // the makespan" (§4.2).
        let makespan = schedules.makespan(n);
        if prev_makespan.is_some_and(|p| makespan >= p) {
            break;
        }
        prev_makespan = Some(makespan);
        let summary = IdleSummary::new(&schedules.get(n));
        let required_freq = makespan as f64 / deadline_s;
        for level in cfg.levels.at_least(required_freq) {
            if spent >= max_steps {
                interrupted = true;
                break 'scan;
            }
            spent += 1;
            if let Ok(energy) = evaluate_summary(&summary, level, deadline_s, sleep) {
                if best.is_none_or(|(.., e, _)| energy.total() < e.total()) {
                    best = Some((n, *level, energy, makespan));
                }
                if !ps {
                    // Without PS: the slowest feasible level (§4.1).
                    break;
                }
            }
        }
    }

    match best {
        Some((n_procs, level, energy, makespan_cycles)) => Ok(BudgetedSolution {
            solution: Solution {
                strategy,
                n_procs,
                level,
                energy,
                makespan_cycles,
                makespan_s: makespan_cycles as f64 / level.freq,
                schedule: schedules.get(n_procs),
            },
            completeness: if interrupted {
                Completeness::Degraded {
                    explored: spent,
                    total,
                }
            } else {
                Completeness::Complete
            },
            steps: spent,
        }),
        None if interrupted => Err(SolveError::BudgetExhausted {
            explored: spent,
            total,
        }),
        None => Err(infeasible(schedules.makespan(first))),
    }
}

/// The paper's binary search for the minimal count whose makespan fits
/// `deadline_cycles`, on `[max(1, ⌈W/D⌉), |V|]`; `None` when even `|V|`
/// processors miss (or the deadline is zero).
fn min_feasible(
    schedules: &mut Schedules<'_>,
    work_cycles: u64,
    deadline_cycles: u64,
) -> Option<usize> {
    let n_hi = schedules.graph.len().max(1);
    if deadline_cycles == 0 {
        return None;
    }
    let n_lwb = (work_cycles.div_ceil(deadline_cycles).max(1) as usize).min(n_hi);
    if schedules.makespan(n_hi) > deadline_cycles {
        return None;
    }
    let (mut lo, mut hi) = (n_lwb, n_hi);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if schedules.makespan(mid) <= deadline_cycles {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(lo)
}

/// From-scratch reference for [`lamps_core::SuffixSolver::resolve`]:
/// the same level sweep, recomputed per call and per candidate.
///
/// Candidates are tried in order; each re-list-schedules the pending
/// suffix in its own cycle domain (times rounded up to cycles, finished
/// tasks at their finish, a surviving processor's in-flight task done at
/// its estimate and the processor free from then, idle survivors free
/// from `now`, dead processors never). EDF keys are the latest finish
/// times under the horizon (floored to cycles), tightened by finite own
/// deadlines. A candidate is feasible when the makespan and every
/// pending task's finish meet their deadlines within
/// [`DEADLINE_REL_EPS`]; the first feasible one wins, else the last one
/// evaluated. `None` when nothing is pending or no processor survives.
pub fn resolve_suffix_fresh(
    graph: &TaskGraph,
    ctx: &SuffixContext<'_>,
    candidates: &[OperatingPoint],
    max_candidates: Option<u64>,
) -> Option<SuffixPlan> {
    let in_flight = |t: TaskId| ctx.running.iter().flatten().any(|&(rt, _)| rt == t);
    let pending = graph
        .tasks()
        .any(|t| !ctx.finished[t.index()] && !in_flight(t));
    if !pending || ctx.dead.iter().all(|&d| d) {
        return None;
    }
    let late = |finish_s: f64, due_s: f64| finish_s > due_s * (1.0 + DEADLINE_REL_EPS);
    let mut best: Option<(OperatingPoint, PartialSchedule, bool)> = None;
    let mut steps = 0u64;
    let mut complete = true;
    for lvl in candidates {
        if max_candidates.is_some_and(|cap| steps >= cap) {
            complete = false;
            break;
        }
        steps += 1;
        let f = lvl.freq;
        let cycles = |s: f64| (s * f).ceil().max(0.0) as u64;
        let mut done = ctx.finished.to_vec();
        let mut finish_done: Vec<u64> = graph
            .tasks()
            .map(|t| {
                if ctx.finished[t.index()] {
                    cycles(ctx.finish_s[t.index()])
                } else {
                    0
                }
            })
            .collect();
        let mut avail = Vec::with_capacity(ctx.dead.len());
        for (&dead, running) in ctx.dead.iter().zip(ctx.running) {
            avail.push(match (dead, running) {
                (true, _) => ProcAvailability::Failed,
                (false, Some((t, est))) => {
                    done[t.index()] = true;
                    finish_done[t.index()] = cycles(*est);
                    ProcAvailability::FreeAt(cycles(*est))
                }
                (false, None) => ProcAvailability::FreeAt(cycles(ctx.now_s)),
            });
        }
        let horizon = (ctx.deadline_s * f).floor() as u64;
        let keys = match ctx.own_due_s {
            None => latest_finish_times(graph, horizon),
            Some(own) => {
                let own: Vec<Option<u64>> = own
                    .iter()
                    .map(|&d| d.is_finite().then(|| (d * f).floor().max(0.0) as u64))
                    .collect();
                latest_finish_times_with(graph, horizon, &own)
            }
        };
        let ps = reschedule_remaining(graph, &done, &finish_done, &avail, &keys);
        let feasible = !late(ps.makespan_cycles() as f64 / f, ctx.deadline_s)
            && ctx.own_due_s.is_none_or(|own| {
                graph
                    .tasks()
                    .all(|t| done[t.index()] || !late(ps.finish(t) as f64 / f, own[t.index()]))
            });
        best = Some((*lvl, ps, feasible));
        if feasible {
            break;
        }
    }
    let (level, plan, feasible) = best?;
    Some(SuffixPlan {
        level,
        plan,
        feasible,
        steps,
        complete,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lamps_core::{solve, solve_with_budget, SolveBudget, SuffixSolver};
    use lamps_taskgraph::gen::layered::{generate, LayeredConfig};
    use lamps_taskgraph::rng::Rng;
    use lamps_taskgraph::GraphBuilder;

    fn cfg() -> SchedulerConfig {
        SchedulerConfig::paper()
    }

    /// A predecessor-closed random "finished" prefix: mark a prefix of
    /// the topological order done with synthetic finish times.
    fn random_prefix(graph: &TaskGraph, frac: f64, seed: u64) -> (Vec<bool>, Vec<f64>) {
        let topo = graph.topo_order();
        let k = ((topo.len() as f64) * frac) as usize;
        let mut finished = vec![false; graph.len()];
        let mut finish_s = vec![0.0f64; graph.len()];
        let mut rng = Rng::seed_from_u64(seed);
        let mut t_acc = 0.0;
        for t in topo.into_iter().take(k) {
            finished[t.index()] = true;
            t_acc += rng.gen_range(1e-4f64..3e-3);
            finish_s[t.index()] = t_acc;
        }
        (finished, finish_s)
    }

    fn assert_plans_bitwise_equal(a: &SuffixPlan, b: &SuffixPlan, what: &str) {
        assert_eq!(
            a.level.vdd.to_bits(),
            b.level.vdd.to_bits(),
            "{what}: level"
        );
        assert_eq!(a.feasible, b.feasible, "{what}: feasible");
        assert_eq!(a.steps, b.steps, "{what}: steps");
        assert_eq!(a.plan, b.plan, "{what}: plan");
    }

    fn layered(seed: u64) -> TaskGraph {
        generate(
            &LayeredConfig {
                n_tasks: 24,
                n_layers: 5,
                ..LayeredConfig::default()
            },
            seed,
        )
        .scale_weights(3_100_000)
    }

    #[test]
    fn memoized_matches_fresh_bitwise_across_random_suffixes() {
        let cfg = cfg();
        let candidates: Vec<OperatingPoint> = cfg.levels.points().to_vec();
        for seed in 0..12u64 {
            let g = layered(seed + 1);
            let (finished, finish_s) = random_prefix(&g, 0.3 + 0.05 * (seed % 5) as f64, seed);
            let n_procs = 3;
            let dead = vec![false, seed % 4 == 0, false];
            let running = vec![None; n_procs];
            let horizon = 2.0 * g.critical_path_cycles() as f64 / cfg.max_frequency();
            let own: Vec<f64> = g
                .tasks()
                .map(|t| {
                    if t.index() % 3 == 0 {
                        horizon * 0.9
                    } else {
                        f64::INFINITY
                    }
                })
                .collect();
            for own_case in [None, Some(own.as_slice())] {
                let ctx = SuffixContext {
                    finished: &finished,
                    finish_s: &finish_s,
                    running: &running,
                    dead: &dead,
                    now_s: 0.01,
                    deadline_s: horizon,
                    own_due_s: own_case,
                };
                let mut solver = SuffixSolver::new();
                // Twice through the memo: the second call must hit.
                let first = solver.resolve(&g, &ctx, &candidates, None);
                let second = solver.resolve(&g, &ctx, &candidates, None);
                let fresh = resolve_suffix_fresh(&g, &ctx, &candidates, None);
                match (first, second, fresh) {
                    (Some(a), Some(b), Some(c)) => {
                        assert_plans_bitwise_equal(&a, &c, "memo-miss vs fresh");
                        assert_plans_bitwise_equal(&b, &c, "memo-hit vs fresh");
                        assert!(solver.key_cache_hits() > 0, "second pass must hit the memo");
                    }
                    (None, None, None) => {}
                    other => panic!("solver/fresh disagree on emptiness: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn suffix_reference_caps_and_winds_down_like_the_solver() {
        let g = layered(9);
        let cfg = cfg();
        let candidates: Vec<OperatingPoint> = cfg.levels.points().to_vec();
        let finished = vec![false; g.len()];
        let finish_s = vec![0.0; g.len()];
        let running = vec![None; 2];
        let dead = vec![false; 2];
        // An impossible horizon: a cap of one stops after the slowest.
        let ctx = SuffixContext {
            finished: &finished,
            finish_s: &finish_s,
            running: &running,
            dead: &dead,
            now_s: 0.0,
            deadline_s: 1e-9,
            own_due_s: None,
        };
        let capped = SuffixSolver::new()
            .resolve(&g, &ctx, &candidates, Some(1))
            .unwrap();
        let fresh = resolve_suffix_fresh(&g, &ctx, &candidates, Some(1)).unwrap();
        assert!(!fresh.complete && !fresh.feasible);
        assert_plans_bitwise_equal(&capped, &fresh, "capped");
        // Nothing pending, or no survivor: no plan.
        let all_done = vec![true; g.len()];
        let done_ctx = SuffixContext {
            finished: &all_done,
            ..ctx
        };
        assert!(resolve_suffix_fresh(&g, &done_ctx, &candidates, None).is_none());
        let all_dead = vec![true; 2];
        let dead_ctx = SuffixContext {
            dead: &all_dead,
            ..ctx
        };
        assert!(resolve_suffix_fresh(&g, &dead_ctx, &candidates, None).is_none());
    }

    fn fig4a() -> TaskGraph {
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

    #[test]
    fn pruned_and_unpruned_solves_are_bitwise_identical() {
        // The soundness claim of every solver shortcut: energy-floor
        // skips and breaks, the scan cpl-stop, the width plateau, and
        // the lower-bound probe skip must never change the solution —
        // not even in the last bit of the energy, nor the schedule.
        let mut graphs = lamps_taskgraph::gen::layered::stg_group(50, 4, 23)
            .into_iter()
            .map(|g| g.scale_weights(310_000))
            .collect::<Vec<_>>();
        graphs.push(fig4a());
        for (i, g) in graphs.iter().enumerate() {
            for factor in [1.0, 1.5, 2.0, 4.0, 8.0] {
                let d = factor * g.critical_path_cycles() as f64 / cfg().max_frequency();
                for s in Strategy::all() {
                    let pruned = solve(s, g, d, &cfg());
                    let unpruned = solve_reference(s, g, d, &cfg(), None);
                    match (pruned, unpruned) {
                        (Ok(a), Ok(b)) => {
                            assert!(b.completeness.is_complete());
                            let b = b.solution;
                            assert_eq!(a.n_procs, b.n_procs, "graph {i}, {s}, {factor}x");
                            assert_eq!(a.level.freq.to_bits(), b.level.freq.to_bits());
                            assert_eq!(a.makespan_cycles, b.makespan_cycles);
                            assert_eq!(
                                a.energy.total().to_bits(),
                                b.energy.total().to_bits(),
                                "graph {i}, {s}, {factor}x: pruning changed the energy"
                            );
                            assert_eq!(*a.schedule, *b.schedule);
                        }
                        (Err(a), Err(b)) => assert_eq!(format!("{a}"), format!("{b}")),
                        (a, b) => panic!("graph {i}, {s}, {factor}x: {a:?} vs {b:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn reference_budgets_step_through_the_enumeration() {
        let g = fig4a();
        let d = 4.0 * g.critical_path_cycles() as f64 / cfg().max_frequency();
        let full = solve_reference(Strategy::LampsPs, &g, d, &cfg(), None).unwrap();
        assert!(full.steps > 2);
        match solve_reference(Strategy::LampsPs, &g, d, &cfg(), Some(0)) {
            Err(SolveError::BudgetExhausted { explored: 0, total }) => assert!(total >= full.steps),
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        let two = solve_reference(Strategy::LampsPs, &g, d, &cfg(), Some(2)).unwrap();
        assert_eq!(two.steps, 2);
        assert!(!two.completeness.is_complete());
        let exact = solve_reference(Strategy::LampsPs, &g, d, &cfg(), Some(full.steps)).unwrap();
        assert!(exact.completeness.is_complete());
        // The production search never spends more than the reference.
        let merged =
            solve_with_budget(Strategy::LampsPs, &g, d, &cfg(), &SolveBudget::unlimited()).unwrap();
        assert!(merged.steps <= full.steps);
    }

    #[test]
    fn reference_rejects_what_the_solver_rejects() {
        let g = fig4a();
        for d in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                solve_reference(Strategy::Lamps, &g, d, &cfg(), None),
                Err(SolveError::BadDeadline(_))
            ));
        }
        let tight = 0.9 * g.critical_path_cycles() as f64 / cfg().max_frequency();
        for s in Strategy::all() {
            assert!(matches!(
                solve_reference(s, &g, tight, &cfg(), None),
                Err(SolveError::Infeasible { .. })
            ));
        }
    }
}
