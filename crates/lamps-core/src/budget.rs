//! Budgeted, cancellable *anytime* solving.
//!
//! [`solve_with_budget`] runs the same search as [`crate::solve`] but
//! threads a [`SolveBudget`] through the LAMPS processor scan and the
//! +PS level sweep. The unit of accounting — a *step* — is one
//! `(processor count, level)` candidate evaluation. Before every step
//! the solver checks a cooperative [`CancelToken`] and the remaining
//! step budget; when either trips, it stops and returns the best
//! feasible candidate found so far, tagged
//! [`Completeness::Degraded`] with how much of the search space it
//! covered. A search that runs to natural completion is tagged
//! [`Completeness::Complete`] and returns bit-identical results to
//! [`crate::solve`].
//!
//! The anytime property: candidates are enumerated in a fixed,
//! budget-independent order (processor counts ascending from the
//! minimal feasible count, levels ascending per count), and the best
//! candidate is tracked by strict energy comparison. A search with a
//! larger budget therefore sees a superset (prefix-wise) of the
//! candidates a smaller budget sees, so **more budget never yields
//! worse energy** — property-tested in this module and fuzzed in
//! `lamps-verify`.

use crate::cache::ScheduleCache;
use crate::config::SchedulerConfig;
use crate::solve::Candidate;
use crate::types::{Solution, SolveError, Strategy};
use lamps_energy::evaluate_summary;
use lamps_taskgraph::TaskGraph;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A cooperative cancellation flag, cheap to clone and safe to trip
/// from another thread.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trip the token: every solver holding it stops at its next step
    /// boundary.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether the token has been tripped.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// How much search a call may spend.
#[derive(Debug, Clone, Default)]
pub struct SolveBudget {
    /// Maximum candidate evaluations; `None` means unlimited.
    pub max_steps: Option<u64>,
    /// Cooperative cancellation; checked before every step.
    pub token: Option<CancelToken>,
    /// Wall-clock deadline; checked before every step. Unlike
    /// `max_steps`, a time budget is not reproducible across runs, so
    /// callers needing bitwise-deterministic degradation (the serve
    /// differential mode) should use step budgets instead.
    pub deadline: Option<Instant>,
}

impl SolveBudget {
    /// No limit and no token: behaves exactly like [`crate::solve`].
    pub fn unlimited() -> Self {
        SolveBudget::default()
    }

    /// At most `n` candidate evaluations.
    pub fn steps(n: u64) -> Self {
        SolveBudget {
            max_steps: Some(n),
            token: None,
            deadline: None,
        }
    }

    /// Attach a cancellation token.
    pub fn with_token(mut self, token: CancelToken) -> Self {
        self.token = Some(token);
        self
    }

    /// Stop searching at `deadline` (best feasible candidate so far is
    /// returned, tagged [`Completeness::Degraded`]).
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Did the search cover everything it wanted to?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completeness {
    /// The full search ran; the result is identical to [`crate::solve`].
    Complete,
    /// The budget (or a cancel) stopped the search early; the solution
    /// is the best of the `explored` candidates.
    Degraded {
        /// Candidate evaluations actually performed.
        explored: u64,
        /// Upper bound on the evaluations a complete search could take
        /// (the scan may legitimately stop earlier on its own).
        total: u64,
    },
}

impl Completeness {
    /// Whether the search ran to completion.
    pub fn is_complete(&self) -> bool {
        matches!(self, Completeness::Complete)
    }
}

/// A solution plus how much of the search produced it.
#[derive(Debug, Clone)]
pub struct BudgetedSolution {
    /// The best feasible configuration found.
    pub solution: Solution,
    /// Whether the search was exhaustive or truncated.
    pub completeness: Completeness,
    /// Candidate evaluations spent.
    pub steps: u64,
}

struct Meter {
    spent: u64,
    max: u64,
    token: Option<CancelToken>,
    deadline: Option<Instant>,
}

impl Meter {
    fn exhausted(&self) -> bool {
        self.spent >= self.max
            || self.token.as_ref().is_some_and(|t| t.is_cancelled())
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    fn step(&mut self) -> bool {
        if self.exhausted() {
            false
        } else {
            self.spent += 1;
            true
        }
    }
}

/// [`crate::solve`] under a budget. See the module docs for semantics.
///
/// Errors with [`SolveError::BudgetExhausted`] only when the budget ran
/// out before *any* feasible candidate was evaluated; all other errors
/// match [`crate::solve`].
pub fn solve_with_budget(
    strategy: Strategy,
    graph: &TaskGraph,
    deadline_s: f64,
    cfg: &SchedulerConfig,
    budget: &SolveBudget,
) -> Result<BudgetedSolution, SolveError> {
    let mut cache = ScheduleCache::for_graph(graph);
    solve_with_budget_cache(strategy, deadline_s, cfg, &mut cache, budget)
}

/// [`solve_with_budget`] against a caller-owned [`ScheduleCache`].
pub fn solve_with_budget_cache(
    strategy: Strategy,
    deadline_s: f64,
    cfg: &SchedulerConfig,
    cache: &mut ScheduleCache<'_>,
    budget: &SolveBudget,
) -> Result<BudgetedSolution, SolveError> {
    let _span = lamps_obs::span("core", "solve_budget");
    let stats_before = cache.stats();
    let result = budget_search(strategy, deadline_s, cfg, cache, budget);
    if let Err(SolveError::BudgetExhausted { explored, total }) = &result {
        lamps_obs::flight::record(
            lamps_obs::flight::CORE_BUDGET_EXPIRED,
            budget.max_steps.unwrap_or(0),
            *explored,
            *total,
        );
    }
    if lamps_obs::metrics_enabled() {
        let delta = cache.stats().since(&stats_before);
        lamps_obs::counter("core.budget.calls").inc();
        if matches!(result, Err(SolveError::BudgetExhausted { .. })) {
            lamps_obs::counter("core.budget.exhausted").inc();
        }
        lamps_obs::counter("core.cache.schedule_hits").add(delta.schedule_hits);
        lamps_obs::counter("core.cache.schedule_misses").add(delta.schedule_misses);
        lamps_obs::counter("core.cache.summary_hits").add(delta.summary_hits);
        lamps_obs::counter("core.cache.summary_misses").add(delta.summary_misses);
    }
    result
}

fn budget_search(
    strategy: Strategy,
    deadline_s: f64,
    cfg: &SchedulerConfig,
    cache: &mut ScheduleCache<'_>,
    budget: &SolveBudget,
) -> Result<BudgetedSolution, SolveError> {
    let graph = cache.graph();
    if !deadline_s.is_finite() || deadline_s <= 0.0 {
        return Err(SolveError::BadDeadline(deadline_s));
    }
    let deadline_cycles = cfg.deadline_cycles(deadline_s);
    let cpl_cycles = cache.critical_path_cycles();
    let infeasible = |best_possible_cycles: u64| SolveError::Infeasible {
        deadline_s,
        best_possible_s: best_possible_cycles.max(cpl_cycles) as f64 / cfg.max_frequency(),
    };
    if cpl_cycles > deadline_cycles {
        return Err(infeasible(cpl_cycles));
    }

    let ps = strategy.uses_ps();
    let sleep = ps.then_some(&cfg.sleep);
    let levels_per_n = if ps { cfg.levels.len() as u64 } else { 1 };

    // A wall-clock deadline that has already expired at admission: skip
    // the scan entirely and hand back one best-effort candidate tagged
    // Degraded{explored: 0}. Without this, the scan's "within one step"
    // cancellation latency would still evaluate a candidate before
    // noticing, which an overloaded caller admitting with an expired
    // deadline cannot afford.
    if budget.deadline.is_some_and(|d| Instant::now() >= d) {
        return expired_fallback(strategy, deadline_s, cfg, cache, levels_per_n);
    }

    let mut meter = Meter {
        spent: 0,
        max: budget.max_steps.unwrap_or(u64::MAX),
        token: budget.token.clone(),
        deadline: budget.deadline,
    };

    let mut best: Option<Candidate> = None;
    let mut interrupted = false;
    let total;
    let none_error;

    if strategy.searches_proc_count() {
        let n_min = cache
            .min_feasible_procs(deadline_cycles)
            .ok_or_else(|| infeasible(cache.makespan(graph.len().max(1))))?;
        let n_hi = graph.len().max(1);
        total = (n_hi - n_min + 1) as u64 * levels_per_n;
        let mut prev_makespan: Option<u64> = None;
        'scan: for n in n_min..=n_hi {
            // Check the natural end of the scan *before* the budget, so a
            // budget of exactly the full search's step count still reports
            // Complete. The makespan lookup may run one list schedule past
            // an exhausted budget — that is the "within one scheduling
            // step" cancellation latency.
            let makespan = cache.makespan(n);
            if let Some(prev) = prev_makespan {
                if makespan >= prev {
                    break;
                }
            }
            prev_makespan = Some(makespan);
            if meter.exhausted() {
                interrupted = true;
                break;
            }
            let summary = cache.summary(n);
            let required_freq = summary.makespan_cycles() as f64 / deadline_s;
            for level in cfg.levels.at_least(required_freq) {
                if !meter.step() {
                    interrupted = true;
                    break 'scan;
                }
                if let Ok(energy) = evaluate_summary(summary, level, deadline_s, sleep) {
                    let c = Candidate {
                        n_procs: n,
                        level: *level,
                        energy,
                        makespan_cycles: makespan,
                    };
                    if best
                        .as_ref()
                        .is_none_or(|b| c.energy.total() < b.energy.total())
                    {
                        best = Some(c);
                    }
                }
                if !ps {
                    break;
                }
            }
        }
        none_error = infeasible(cache.makespan(n_min));
    } else {
        let mut n = cache.max_useful_procs();
        if cache.makespan(n) > deadline_cycles {
            n = cache
                .min_feasible_procs(deadline_cycles)
                .ok_or_else(|| infeasible(cache.makespan(n)))?;
        }
        total = levels_per_n;
        let makespan = cache.makespan(n);
        let summary = cache.summary(n);
        let required_freq = summary.makespan_cycles() as f64 / deadline_s;
        for level in cfg.levels.at_least(required_freq) {
            if !meter.step() {
                interrupted = true;
                break;
            }
            if let Ok(energy) = evaluate_summary(summary, level, deadline_s, sleep) {
                let c = Candidate {
                    n_procs: n,
                    level: *level,
                    energy,
                    makespan_cycles: makespan,
                };
                if best
                    .as_ref()
                    .is_none_or(|b| c.energy.total() < b.energy.total())
                {
                    best = Some(c);
                }
            }
            if !ps {
                break;
            }
        }
        none_error = infeasible(makespan);
    }

    match best {
        Some(c) => {
            let schedule = cache.schedule_arc(c.n_procs);
            let solution = Solution {
                strategy,
                n_procs: c.n_procs,
                level: c.level,
                energy: c.energy,
                makespan_cycles: c.makespan_cycles,
                makespan_s: c.makespan_cycles as f64 / c.level.freq,
                schedule,
            };
            Ok(BudgetedSolution {
                solution,
                completeness: if interrupted {
                    Completeness::Degraded {
                        explored: meter.spent,
                        total,
                    }
                } else {
                    Completeness::Complete
                },
                steps: meter.spent,
            })
        }
        None if interrupted => Err(SolveError::BudgetExhausted {
            explored: meter.spent,
            total,
        }),
        None => Err(none_error),
    }
}

/// Best-effort result for a budget whose wall-clock deadline expired
/// before the search began: pick the cheapest processor count that
/// still meets the schedule deadline, take the first operating level
/// that evaluates feasibly, and report `Degraded { explored: 0 }`.
/// Costs one list schedule and at most one energy evaluation per level.
fn expired_fallback(
    strategy: Strategy,
    deadline_s: f64,
    cfg: &SchedulerConfig,
    cache: &mut ScheduleCache<'_>,
    levels_per_n: u64,
) -> Result<BudgetedSolution, SolveError> {
    let graph = cache.graph();
    let deadline_cycles = cfg.deadline_cycles(deadline_s);
    let cpl_cycles = cache.critical_path_cycles();
    let infeasible = |best_possible_cycles: u64| SolveError::Infeasible {
        deadline_s,
        best_possible_s: best_possible_cycles.max(cpl_cycles) as f64 / cfg.max_frequency(),
    };
    let ps = strategy.uses_ps();
    let sleep = ps.then_some(&cfg.sleep);
    let (n, total) = if strategy.searches_proc_count() {
        let n_min = cache
            .min_feasible_procs(deadline_cycles)
            .ok_or_else(|| infeasible(cache.makespan(graph.len().max(1))))?;
        let n_hi = graph.len().max(1);
        (n_min, (n_hi - n_min + 1) as u64 * levels_per_n)
    } else {
        let mut n = cache.max_useful_procs();
        if cache.makespan(n) > deadline_cycles {
            n = cache
                .min_feasible_procs(deadline_cycles)
                .ok_or_else(|| infeasible(cache.makespan(n)))?;
        }
        (n, levels_per_n)
    };
    let makespan = cache.makespan(n);
    let summary = cache.summary(n);
    let required_freq = summary.makespan_cycles() as f64 / deadline_s;
    for level in cfg.levels.at_least(required_freq) {
        if let Ok(energy) = evaluate_summary(summary, level, deadline_s, sleep) {
            let schedule = cache.schedule_arc(n);
            let solution = Solution {
                strategy,
                n_procs: n,
                level: *level,
                energy,
                makespan_cycles: makespan,
                makespan_s: makespan as f64 / level.freq,
                schedule,
            };
            return Ok(BudgetedSolution {
                solution,
                completeness: Completeness::Degraded { explored: 0, total },
                steps: 0,
            });
        }
    }
    Err(SolveError::BudgetExhausted { explored: 0, total })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::solve;
    use lamps_taskgraph::gen::layered::{generate, LayeredConfig};
    use lamps_taskgraph::{GraphBuilder, TaskGraph};

    fn cfg() -> SchedulerConfig {
        SchedulerConfig::paper()
    }

    fn layered(seed: u64) -> TaskGraph {
        generate(
            &LayeredConfig {
                n_tasks: 30,
                n_layers: 6,
                ..LayeredConfig::default()
            },
            seed,
        )
        .scale_weights(3_100_000)
    }

    fn deadline_x(graph: &TaskGraph, factor: f64) -> f64 {
        factor * graph.critical_path_cycles() as f64 / cfg().max_frequency()
    }

    #[test]
    fn unlimited_budget_matches_solve_bitwise() {
        for seed in [1u64, 2, 3] {
            let g = layered(seed);
            for factor in [1.2, 2.0, 5.0] {
                let d = deadline_x(&g, factor);
                for s in Strategy::all() {
                    let plain = solve(s, &g, d, &cfg()).unwrap();
                    let b = solve_with_budget(s, &g, d, &cfg(), &SolveBudget::unlimited()).unwrap();
                    assert!(b.completeness.is_complete(), "{s} {factor}");
                    assert_eq!(
                        plain.energy.total().to_bits(),
                        b.solution.energy.total().to_bits(),
                        "{s} {factor}"
                    );
                    assert_eq!(plain.n_procs, b.solution.n_procs);
                    assert_eq!(plain.level.vdd.to_bits(), b.solution.level.vdd.to_bits());
                }
            }
        }
    }

    #[test]
    fn energy_is_monotone_in_budget() {
        let g = layered(7);
        let d = deadline_x(&g, 2.5);
        for s in Strategy::all() {
            let full = solve_with_budget(s, &g, d, &cfg(), &SolveBudget::unlimited()).unwrap();
            let mut prev = f64::INFINITY;
            for steps in 1..=full.steps + 2 {
                match solve_with_budget(s, &g, d, &cfg(), &SolveBudget::steps(steps)) {
                    Ok(b) => {
                        let e = b.solution.energy.total();
                        assert!(
                            e <= prev + 1e-15,
                            "{s}: budget {steps} worsened energy {e} > {prev}"
                        );
                        prev = e;
                        assert!(b.solution.makespan_s <= d * (1.0 + 1e-9));
                        if steps >= full.steps {
                            assert!(b.completeness.is_complete());
                            assert_eq!(e.to_bits(), full.solution.energy.total().to_bits());
                        }
                    }
                    Err(SolveError::BudgetExhausted { explored, .. }) => {
                        assert!(explored <= steps, "{s}");
                    }
                    Err(other) => panic!("{s}: unexpected {other:?}"),
                }
            }
        }
    }

    #[test]
    fn degraded_solutions_are_feasible_and_tagged() {
        let g = layered(11);
        let d = deadline_x(&g, 3.0);
        let full =
            solve_with_budget(Strategy::LampsPs, &g, d, &cfg(), &SolveBudget::unlimited()).unwrap();
        assert!(full.steps > 2, "need a non-trivial search");
        let b =
            solve_with_budget(Strategy::LampsPs, &g, d, &cfg(), &SolveBudget::steps(2)).unwrap();
        match b.completeness {
            Completeness::Degraded { explored, total } => {
                assert_eq!(explored, 2);
                assert!(total >= full.steps);
            }
            Completeness::Complete => panic!("2-step search cannot be complete"),
        }
        assert!(b.solution.makespan_s <= d * (1.0 + 1e-9));
        b.solution.schedule.validate(&g).unwrap();
    }

    #[test]
    fn zero_budget_exhausts() {
        let g = layered(13);
        let d = deadline_x(&g, 2.0);
        match solve_with_budget(Strategy::LampsPs, &g, d, &cfg(), &SolveBudget::steps(0)) {
            Err(SolveError::BudgetExhausted { explored, total }) => {
                assert_eq!(explored, 0);
                assert!(total > 0);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn cancelled_token_stops_before_any_step() {
        let g = layered(17);
        let d = deadline_x(&g, 2.0);
        let token = CancelToken::new();
        token.cancel();
        let budget = SolveBudget::unlimited().with_token(token);
        match solve_with_budget(Strategy::LampsPs, &g, d, &cfg(), &budget) {
            Err(SolveError::BudgetExhausted { explored, .. }) => assert_eq!(explored, 0),
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn untripped_token_changes_nothing() {
        let g = layered(19);
        let d = deadline_x(&g, 2.0);
        let budget = SolveBudget::unlimited().with_token(CancelToken::new());
        let a = solve_with_budget(Strategy::LampsPs, &g, d, &cfg(), &budget).unwrap();
        let plain = solve(Strategy::LampsPs, &g, d, &cfg()).unwrap();
        assert_eq!(
            a.solution.energy.total().to_bits(),
            plain.energy.total().to_bits()
        );
    }

    #[test]
    fn bad_inputs_match_solve() {
        let g = layered(23);
        for d in [0.0, -1.0, f64::NAN] {
            assert!(matches!(
                solve_with_budget(Strategy::Lamps, &g, d, &cfg(), &SolveBudget::unlimited()),
                Err(SolveError::BadDeadline(_))
            ));
        }
        let tight = deadline_x(&g, 0.5);
        assert!(matches!(
            solve_with_budget(
                Strategy::Lamps,
                &g,
                tight,
                &cfg(),
                &SolveBudget::unlimited()
            ),
            Err(SolveError::Infeasible { .. })
        ));
    }

    #[test]
    fn expired_deadline_returns_immediate_degraded_best_effort() {
        let g = layered(29);
        let d = deadline_x(&g, 2.0);
        for s in Strategy::all() {
            let budget = SolveBudget::unlimited().with_deadline(Instant::now());
            let b = solve_with_budget(s, &g, d, &cfg(), &budget)
                .unwrap_or_else(|e| panic!("{s}: expired deadline must degrade, got {e:?}"));
            match b.completeness {
                Completeness::Degraded { explored, total } => {
                    assert_eq!(explored, 0, "{s}: no candidate may be explored");
                    assert!(total > 0, "{s}");
                }
                Completeness::Complete => panic!("{s}: expired deadline cannot be complete"),
            }
            assert_eq!(b.steps, 0, "{s}");
            assert!(
                b.solution.makespan_s <= d * (1.0 + 1e-9),
                "{s}: best-effort result must still meet the deadline"
            );
            b.solution.schedule.validate(&g).unwrap();
        }
    }

    #[test]
    fn expired_deadline_still_reports_infeasible_inputs() {
        let g = layered(29);
        let tight = deadline_x(&g, 0.5);
        let budget = SolveBudget::unlimited().with_deadline(Instant::now());
        assert!(matches!(
            solve_with_budget(Strategy::Lamps, &g, tight, &cfg(), &budget),
            Err(SolveError::Infeasible { .. })
        ));
    }

    #[test]
    fn generous_deadline_completes_bitwise() {
        let g = layered(31);
        let d = deadline_x(&g, 2.0);
        let budget = SolveBudget::unlimited()
            .with_deadline(Instant::now() + std::time::Duration::from_secs(600));
        let b = solve_with_budget(Strategy::LampsPs, &g, d, &cfg(), &budget).unwrap();
        assert!(b.completeness.is_complete());
        let plain = solve(Strategy::LampsPs, &g, d, &cfg()).unwrap();
        assert_eq!(
            b.solution.energy.total().to_bits(),
            plain.energy.total().to_bits()
        );
    }

    #[test]
    fn single_task_budgeted() {
        let mut b = GraphBuilder::new();
        b.add_task(3_100_000);
        let g = b.build().unwrap();
        let d = deadline_x(&g, 3.0);
        let r =
            solve_with_budget(Strategy::LampsPs, &g, d, &cfg(), &SolveBudget::steps(1)).unwrap();
        assert_eq!(r.solution.n_procs, 1);
        assert_eq!(r.steps, 1);
    }
}
