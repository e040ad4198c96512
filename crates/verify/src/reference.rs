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

use lamps_core::{BudgetedSolution, Completeness, SchedulerConfig, Solution, SolveError, Strategy};
use lamps_energy::{evaluate_summary, EnergyBreakdown};
use lamps_power::OperatingPoint;
use lamps_sched::{latest_finish_times, list_schedule, IdleSummary, Schedule};
use lamps_taskgraph::TaskGraph;
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

#[cfg(test)]
mod tests {
    use super::*;
    use lamps_core::{solve, solve_with_budget, SolveBudget};
    use lamps_taskgraph::GraphBuilder;

    fn cfg() -> SchedulerConfig {
        SchedulerConfig::paper()
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
