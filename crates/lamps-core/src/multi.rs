//! Per-task-deadline solving — the streaming/KPN generalization.
//!
//! A uniform deadline (§3.1's frame-based model) is a special case; an
//! unrolled Kahn Process Network instead pins each copy of an output
//! process to its own deadline (Fig. 1). This solver runs the same four
//! strategies against a *vector* of deadlines: the schedule is feasible
//! at a level `f` iff every task finishes by its own latest finish time,
//! i.e.
//!
//! ```text
//! finish(t)/f ≤ lf(t)/f_max   for all t
//! ⇔  f ≥ max over t of finish(t) · f_max / lf(t)
//! ```
//!
//! so the maximal stretch is limited by the *tightest* finish-to-deadline
//! ratio rather than the makespan alone. Energy is accounted up to the
//! stream horizon (the latest deadline), after which the platform can
//! power off entirely.

use crate::cache::ScheduleCache;
use crate::config::SchedulerConfig;
use crate::solve::{best_level_constrained, Candidate};
use crate::types::{Solution, SolveError, Strategy};
use lamps_sched::deadlines::latest_finish_times_with;
use lamps_sched::Schedule;
use lamps_taskgraph::TaskGraph;

/// A per-task deadline specification, in cycles at the maximum
/// frequency.
#[derive(Debug, Clone)]
pub struct DeadlineVector {
    /// Explicit deadline per task (`None` = derived from successors, or
    /// the horizon for sinks).
    pub own: Vec<Option<u64>>,
    /// The accounting horizon: tasks without explicit deadlines
    /// (and the energy bill) run against this. Typically the latest
    /// output deadline.
    pub horizon_cycles: u64,
}

impl DeadlineVector {
    /// Uniform deadline: every sink due at `deadline_cycles`.
    pub fn uniform(graph: &TaskGraph, deadline_cycles: u64) -> Self {
        DeadlineVector {
            own: vec![None; graph.len()],
            horizon_cycles: deadline_cycles,
        }
    }

    /// From an unrolled KPN (explicit deadlines on output copies).
    pub fn from_kpn(own: Vec<Option<u64>>, horizon_cycles: u64) -> Self {
        DeadlineVector {
            own,
            horizon_cycles,
        }
    }

    /// Latest finish times over the graph.
    pub fn latest_finish_times(&self, graph: &TaskGraph) -> Vec<u64> {
        latest_finish_times_with(graph, self.horizon_cycles, &self.own)
    }
}

/// The minimum frequency at which `schedule` meets every latest finish
/// time, as a fraction of `f_max` times `f_max` \[Hz\].
fn required_frequency(schedule: &Schedule, lf: &[u64], f_max: f64) -> f64 {
    let mut req: f64 = 0.0;
    #[allow(clippy::needless_range_loop)]
    for i in 0..lf.len() {
        let t = lamps_taskgraph::TaskId(i as u32);
        let finish = schedule.finish(t) as f64;
        // lf ≥ weight ≥ 0; lf == 0 only for zero-weight tasks due at 0,
        // which any frequency satisfies (finish == 0 too, or infeasible).
        if lf[i] > 0 {
            req = req.max(finish * f_max / lf[i] as f64);
        } else if finish > 0.0 {
            req = f64::INFINITY;
        }
    }
    req
}

/// Whether the schedule meets every latest finish time at the maximum
/// frequency (the feasibility test of the processor-count searches).
fn feasible_at_fmax(schedule: &Schedule, lf: &[u64]) -> bool {
    (0..lf.len()).all(|i| schedule.finish(lamps_taskgraph::TaskId(i as u32)) <= lf[i])
}

/// Solve with per-task deadlines. Mirrors [`crate::solve::solve`] exactly for
/// [`DeadlineVector::uniform`] inputs.
/// # Example
///
/// ```
/// use lamps_core::multi::{solve_with_deadlines, DeadlineVector};
/// use lamps_core::{SchedulerConfig, Strategy};
/// use lamps_taskgraph::GraphBuilder;
///
/// let mut b = GraphBuilder::new();
/// let a = b.add_task(31_000_000);
/// let c = b.add_task(31_000_000);
/// b.add_edge(a, c).unwrap();
/// let g = b.build().unwrap();
///
/// let cfg = SchedulerConfig::paper();
/// // Pin the first task to 15 ms, the second (and horizon) to 60 ms.
/// let f_max = cfg.max_frequency();
/// let dv = DeadlineVector::from_kpn(
///     vec![Some((0.015 * f_max) as u64), Some((0.060 * f_max) as u64)],
///     (0.060 * f_max) as u64,
/// );
/// let sol = solve_with_deadlines(Strategy::LampsPs, &g, &dv, &cfg).unwrap();
/// assert_eq!(sol.n_procs, 1);
/// ```
pub fn solve_with_deadlines(
    strategy: Strategy,
    graph: &TaskGraph,
    deadlines: &DeadlineVector,
    cfg: &SchedulerConfig,
) -> Result<Solution, SolveError> {
    assert_eq!(
        deadlines.own.len(),
        graph.len(),
        "one deadline slot per task"
    );
    let f_max = cfg.max_frequency();
    let horizon_s = deadlines.horizon_cycles as f64 / f_max;
    if deadlines.horizon_cycles == 0 {
        return Err(SolveError::BadDeadline(0.0));
    }

    let lf = deadlines.latest_finish_times(graph);
    let infeasible = || {
        // Best possible: every task at its top level on unbounded
        // processors; report the worst ratio.
        let tl = graph.top_levels();
        let worst = graph
            .tasks()
            .map(|t| tl[t.index()] as f64 / lf[t.index()].max(1) as f64)
            .fold(1.0f64, f64::max);
        SolveError::Infeasible {
            deadline_s: horizon_s,
            best_possible_s: horizon_s * worst,
        }
    };
    // Even unbounded processors cannot beat the top levels.
    {
        let tl = graph.top_levels();
        if graph.tasks().any(|t| tl[t.index()] > lf[t.index()]) {
            return Err(infeasible());
        }
    }

    let mut cache = ScheduleCache::with_keys(graph, lf.clone());
    let ps = strategy.uses_ps();

    let evaluate_n = |cache: &mut ScheduleCache<'_>, n: usize| -> Option<Candidate> {
        let (schedule, summary) = cache.schedule_and_summary(n);
        let req = required_frequency(schedule, &lf, f_max);
        best_level_constrained(summary, n, req, horizon_s, cfg, ps)
    };

    let best = if strategy.searches_proc_count() {
        let n_upb = graph.len().max(1);
        // Binary search for the minimal feasible count, as in §4.2 but
        // with the vector feasibility test.
        let n_min = {
            if !feasible_at_fmax(cache.schedule(n_upb), &lf) {
                return Err(infeasible());
            }
            let n_lwb = cache
                .min_procs_lower_bound(deadlines.horizon_cycles)
                .unwrap_or(1)
                .min(n_upb);
            let (mut lo, mut hi) = (n_lwb, n_upb);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if feasible_at_fmax(cache.schedule(mid), &lf) {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            lo
        };
        let mut best: Option<Candidate> = None;
        let mut prev_makespan: Option<u64> = None;
        for n in n_min..=n_upb {
            let makespan = cache.makespan(n);
            if let Some(prev) = prev_makespan {
                if makespan >= prev {
                    break;
                }
            }
            prev_makespan = Some(makespan);
            if let Some(c) = evaluate_n(&mut cache, n) {
                if best
                    .as_ref()
                    .is_none_or(|b| c.energy.total() < b.energy.total())
                {
                    best = Some(c);
                }
            }
        }
        best.ok_or_else(infeasible)?
    } else {
        let mut n = cache.max_useful_procs();
        if !feasible_at_fmax(cache.schedule(n), &lf) {
            // Fall back to any feasible count (anomaly guard).
            n = (1..=graph.len())
                .find(|&m| feasible_at_fmax(cache.schedule(m), &lf))
                .ok_or_else(infeasible)?;
        }
        evaluate_n(&mut cache, n).ok_or_else(infeasible)?
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::solve;
    use lamps_taskgraph::GraphBuilder;

    fn cfg() -> SchedulerConfig {
        SchedulerConfig::paper()
    }

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

    #[test]
    fn uniform_vector_matches_scalar_solver() {
        let g = fig4a_coarse();
        let cfg = cfg();
        for factor in [1.5, 2.0, 4.0, 8.0] {
            let d_s = factor * g.critical_path_cycles() as f64 / cfg.max_frequency();
            let d_cycles = cfg.deadline_cycles(d_s);
            let dv = DeadlineVector::uniform(&g, d_cycles);
            for s in Strategy::all() {
                let scalar = solve(s, &g, d_s, &cfg).unwrap();
                let vector = solve_with_deadlines(s, &g, &dv, &cfg).unwrap();
                assert_eq!(scalar.n_procs, vector.n_procs, "{s} @ {factor}x");
                assert!(
                    (scalar.energy.total() - vector.energy.total()).abs()
                        < scalar.energy.total() * 1e-9,
                    "{s} @ {factor}x: {} vs {}",
                    scalar.energy.total(),
                    vector.energy.total()
                );
            }
        }
    }

    #[test]
    fn tight_task_deadline_forces_faster_level() {
        let g = fig4a_coarse();
        let cfg = cfg();
        let loose = 4 * g.critical_path_cycles();
        // Uniform loose deadline.
        let dv_loose = DeadlineVector::uniform(&g, loose);
        let base = solve_with_deadlines(Strategy::ScheduleStretch, &g, &dv_loose, &cfg).unwrap();
        // Same horizon, but pin T5 (the critical sink, id 4) to finish by
        // 1.2× its earliest possible finish.
        let mut own = vec![None; g.len()];
        let tl = g.top_levels();
        own[4] = Some((tl[4] as f64 * 1.2) as u64);
        let dv_tight = DeadlineVector::from_kpn(own, loose);
        let tight = solve_with_deadlines(Strategy::ScheduleStretch, &g, &dv_tight, &cfg).unwrap();
        assert!(
            tight.level.freq > base.level.freq,
            "pinned deadline must force a faster level: {} vs {}",
            tight.level.vdd,
            base.level.vdd
        );
        // And the pinned task indeed finishes in time at the chosen level.
        let t5 = lamps_taskgraph::TaskId(4);
        let finish_s = tight.schedule.finish(t5) as f64 / tight.level.freq;
        let due_s = (tl[4] as f64 * 1.2) / cfg.max_frequency();
        assert!(finish_s <= due_s * (1.0 + 1e-9));
    }

    #[test]
    fn infeasible_task_deadline_detected() {
        let g = fig4a_coarse();
        let cfg = cfg();
        let mut own = vec![None; g.len()];
        let tl = g.top_levels();
        // Below the top level: impossible on any machine.
        own[4] = Some(tl[4] - 1);
        let dv = DeadlineVector::from_kpn(own, 8 * g.critical_path_cycles());
        match solve_with_deadlines(Strategy::LampsPs, &g, &dv, &cfg) {
            Err(SolveError::Infeasible { .. }) => {}
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }

    #[test]
    fn kpn_unrolled_solves_end_to_end() {
        // Build a 3-stage pipeline DAG shaped like an unrolled KPN and
        // give the copies staggered deadlines.
        let mut b = GraphBuilder::new();
        let copies = 4;
        let mut prev: Option<[lamps_taskgraph::TaskId; 3]> = None;
        let mut own = Vec::new();
        let stage_cycles = [20_000_000u64, 50_000_000, 30_000_000];
        let f_max = cfg().max_frequency();
        let period = (0.040 * f_max) as u64;
        let first = (0.080 * f_max) as u64;
        for j in 0..copies {
            let ids = [
                b.add_task(stage_cycles[0]),
                b.add_task(stage_cycles[1]),
                b.add_task(stage_cycles[2]),
            ];
            b.add_edge(ids[0], ids[1]).unwrap();
            b.add_edge(ids[1], ids[2]).unwrap();
            if let Some(p) = prev {
                for k in 0..3 {
                    b.add_edge(p[k], ids[k]).unwrap();
                }
            }
            own.extend([None, None, Some(first + j as u64 * period)]);
            prev = Some(ids);
        }
        let g = b.build().unwrap();
        let horizon = first + (copies as u64 - 1) * period;
        let dv = DeadlineVector::from_kpn(own.clone(), horizon);
        let sol = solve_with_deadlines(Strategy::LampsPs, &g, &dv, &cfg()).unwrap();
        sol.schedule.validate(&g).unwrap();
        // Every output copy meets its own deadline at the chosen level.
        for (i, d) in own.iter().enumerate() {
            if let Some(d) = d {
                let t = lamps_taskgraph::TaskId(i as u32);
                let finish_s = sol.schedule.finish(t) as f64 / sol.level.freq;
                assert!(finish_s <= *d as f64 / f_max * (1.0 + 1e-9), "copy {i}");
            }
        }
    }

    #[test]
    fn zero_horizon_rejected() {
        let g = fig4a_coarse();
        let dv = DeadlineVector::uniform(&g, 0);
        assert!(matches!(
            solve_with_deadlines(Strategy::Lamps, &g, &dv, &cfg()),
            Err(SolveError::BadDeadline(_)) | Err(SolveError::Infeasible { .. })
        ));
    }
}
