//! Budgeted, cancellable *anytime* solving.
//!
//! [`solve_with_budget`] runs the one LAMPS/S&S search of
//! [`crate::solve`] with a [`SolveBudget`] metering it. The unit of
//! accounting — a *step* — is one charged `(processor count, level)`
//! candidate: one per level at or above the count's required frequency
//! with PS, one per count without. A sweep the energy floor skips is
//! charged too, its full level count in the same enumeration order (or
//! whatever budget is left, which then interrupts the search), so the
//! budget buys the same prefix of the enumeration whether or not a
//! candidate in it was provably unable to win. Before every step the
//! search checks a cooperative [`CancelToken`], the wall clock and the
//! remaining steps; when any trips, it stops and returns the best
//! feasible candidate found so far, tagged [`Completeness::Degraded`]
//! with how much of the search space it covered. A search that runs to
//! natural completion is tagged [`Completeness::Complete`] and returns
//! bit-identical results to [`crate::solve`].
//!
//! The anytime property: candidates are enumerated in a fixed,
//! budget-independent order (processor counts ascending from the
//! search's starting count, levels ascending per count), and the best
//! candidate is tracked by strict energy comparison. A search with a
//! larger budget therefore sees a superset (prefix-wise) of the
//! candidates a smaller budget sees, so **more budget never yields
//! worse energy** — property-tested in this module and fuzzed against
//! the exhaustive reference search in `lamps-verify`.

use crate::cache::ScheduleCache;
use crate::config::SchedulerConfig;
use crate::solve::search;
use crate::types::{Solution, SolveError, Strategy};
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
    /// Steps charged: candidates evaluated plus the candidates of every
    /// sweep the energy floor skipped (see the module docs). A search
    /// the energy floor ends early charges fewer steps than the full
    /// enumeration would.
    pub steps: u64,
}

/// The step meter one search runs under: the budget's limits plus the
/// steps charged so far. An unlimited meter is never exhausted and
/// costs a few predictable branches per step.
pub(crate) struct Meter<'b> {
    spent: u64,
    max: u64,
    token: Option<&'b CancelToken>,
    deadline: Option<Instant>,
    interrupted: bool,
}

impl<'b> Meter<'b> {
    /// A meter for `budget`.
    pub(crate) fn new(budget: &'b SolveBudget) -> Self {
        Meter {
            spent: 0,
            max: budget.max_steps.unwrap_or(u64::MAX),
            token: budget.token.as_ref(),
            deadline: budget.deadline,
            interrupted: false,
        }
    }

    /// A meter that never stops the search.
    pub(crate) fn unlimited() -> Meter<'static> {
        static UNLIMITED: SolveBudget = SolveBudget {
            max_steps: None,
            token: None,
            deadline: None,
        };
        Meter::new(&UNLIMITED)
    }

    /// Whether the wall-clock deadline has passed.
    pub(crate) fn deadline_passed(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    fn tripped(&self) -> bool {
        self.token.is_some_and(CancelToken::is_cancelled) || self.deadline_passed()
    }

    /// Whether the search must stop before its next step; marks the
    /// search interrupted if so.
    pub(crate) fn exhausted(&mut self) -> bool {
        if self.spent >= self.max || self.tripped() {
            self.interrupted = true;
        }
        self.interrupted
    }

    /// Charge one step; `false` (and interrupted) when none is left.
    pub(crate) fn step(&mut self) -> bool {
        self.charge(1)
    }

    /// Charge `k` steps at once — a skipped sweep. When fewer than `k`
    /// remain, charges what is left, marks the search interrupted and
    /// returns `false`, exactly where a step-by-step sweep would have
    /// stopped.
    pub(crate) fn charge(&mut self, k: u64) -> bool {
        let room = if self.tripped() {
            0
        } else {
            self.max - self.spent
        };
        self.spent += k.min(room);
        self.interrupted |= k > room;
        k <= room
    }

    /// Stop the search without charging (an expired admission).
    pub(crate) fn interrupt(&mut self) {
        self.interrupted = true;
    }

    /// Steps charged so far.
    pub(crate) fn spent(&self) -> u64 {
        self.spent
    }

    /// Whether the budget stopped the search.
    pub(crate) fn interrupted(&self) -> bool {
        self.interrupted
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
    let mut meter = Meter::new(budget);
    let result = search(strategy, deadline_s, cfg, cache, None, None, &mut meter);
    if let Err(SolveError::BudgetExhausted { explored, total }) = &result {
        lamps_obs::flight::record(
            lamps_obs::flight::CORE_BUDGET_EXPIRED,
            budget.max_steps.unwrap_or(0),
            *explored,
            *total,
        );
    }
    if lamps_obs::metrics_enabled() {
        lamps_obs::counter("core.budget.calls").inc();
        if matches!(result, Err(SolveError::BudgetExhausted { .. })) {
            lamps_obs::counter("core.budget.exhausted").inc();
        }
    }
    result
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
                            e <= prev,
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
