//! The one frame executor behind both runtimes.
//!
//! [`execute`] runs one frame of a static plan — its per-processor task
//! order and plan level — against the frame's actual cycles and
//! [`FaultPlan`], as a discrete-event loop: retire due completions →
//! reclaim slack on an early one → fire the fail-stop and re-plan →
//! dispatch ready queue heads → advance to the next event; then the
//! lateness verdict. [`crate::recovery::run_with_faults`] is one frame
//! at t = 0 with reclamation off; [`crate::online::run_online`] is the
//! admission and billing-window loop around it.
//!
//! The recovery ladder, bottom rung first:
//!
//! 1. **Slack absorption**: starts float — an overrun delays successors,
//!    and downstream slack soaks it up if it can.
//! 2. **Stretch / boost** at dispatch: a job runs at the lowest level
//!    that fits its window to the planned finish. Reclamation may drop
//!    below the base level (never below the discrete critical level,
//!    §3.3); [`RecoveryPolicy::Boost`] may rise above it, to the fastest
//!    level once the window is gone; `Absorb` without reclamation never
//!    leaves the base level.
//! 3. **Reclaim re-solve**: an early completion re-solves the pending
//!    suffix over all levels from the reclamation floor up, adopted only
//!    when feasible, metered by the frame budget.
//! 4. **Fail-stop migration**: the victim's running job is lost (it
//!    re-runs from scratch) and the pending remainder is re-solved on the
//!    survivors; under `Boost` the re-plan may also raise the base level.
//!    The re-plan is correctness, not optimization: it ignores the
//!    budget. It sees only what a runtime could see — WCET-based finish
//!    estimates for in-flight jobs, never a not-yet-observed overrun.
//! 5. **Structured miss**: per-job lateness instead of a panic.
//!
//! Every re-plan goes through the caller's [`SuffixSolver`].

use crate::faults::{DvsFaultKind, FaultPlan, InjectedEvent};
use crate::recovery::{
    sort_lateness, ExecRecord, RecoveryAction, RecoveryPolicy, RunOutcome, TaskLateness,
};
use crate::runner::{account_idle, DvsSwitchCost};
use lamps_core::suffix::{SuffixContext, SuffixSolver};
use lamps_core::{SchedulerConfig, SolveBudget};
use lamps_energy::EnergyBreakdown;
use lamps_obs::flight;
use lamps_power::OperatingPoint;
use lamps_sched::{PartialSchedule, ProcId, Schedule};
use lamps_taskgraph::{TaskGraph, TaskId};
use std::collections::VecDeque;
use std::time::Instant;

/// Relative tolerance on deadline comparisons, matching the solver's.
const REL_EPS: f64 = 1e-9;

/// One frame to execute. All times are relative to the frame start.
pub(crate) struct Frame<'a> {
    /// Index of the frame, the key of its journal events.
    pub index: usize,
    /// The static plan: per-processor task order, in cycles.
    pub schedule: &'a Schedule,
    /// The plan's operating level.
    pub plan_level: OperatingPoint,
    /// Fault-free actual cycles per job (≤ WCET).
    pub actual: &'a [u64],
    /// Faults scoped to this frame.
    pub faults: &'a FaultPlan,
    /// Scalar horizon: every re-plan must finish by it.
    pub horizon_s: f64,
    /// Per-job due times; `None` makes every job due at the horizon.
    pub due_s: Option<&'a [f64]>,
    /// Fault escalation policy.
    pub policy: RecoveryPolicy,
    /// Stretch below the base level and re-solve on early completions.
    pub reclaim: bool,
    /// Meter on reclaim re-solve work.
    pub budget: &'a SolveBudget,
    /// DVS switch cost model.
    pub switch: &'a DvsSwitchCost,
}

/// What one frame did. `energy` holds active and switch energy only;
/// idle gaps depend on the billing window and go through [`bill_idle`].
pub(crate) struct FrameRun {
    pub records: Vec<Option<ExecRecord>>,
    pub aborted: Vec<ExecRecord>,
    pub injected: Vec<InjectedEvent>,
    pub recoveries: Vec<RecoveryAction>,
    pub energy: EnergyBreakdown,
    pub makespan_s: f64,
    pub outcome: RunOutcome,
    pub resolves: u64,
    pub resolve_steps: u64,
    pub stretched: usize,
    pub degraded: bool,
    pub dvs_switches: usize,
}

struct InFlight {
    task: TaskId,
    exec_start_s: f64,
    finish_s: f64,
    /// The runtime's WCET-based finish estimate (it cannot see an
    /// overrun in advance) — what re-planning believes.
    expected_finish_s: f64,
    level: OperatingPoint,
    cycles: u64,
}

struct ProcState {
    queue: VecDeque<TaskId>,
    running: Option<InFlight>,
    current: OperatingPoint,
    dead: bool,
    stuck: bool,
    extra_latency_s: f64,
}

/// Execute one frame. See the module docs for the ladder.
pub(crate) fn execute(
    graph: &TaskGraph,
    fr: &Frame<'_>,
    cfg: &SchedulerConfig,
    solver: &mut SuffixSolver,
) -> FrameRun {
    let n = graph.len();
    let plan_level = fr.plan_level;
    let eff = fr.faults.effective_cycles(graph, fr.actual);
    let mut overrun_factor: Vec<Option<f64>> = vec![None; n];
    for o in &fr.faults.overruns {
        overrun_factor[o.task.index()] = Some(o.factor);
    }

    let mut procs: Vec<ProcState> = (0..fr.schedule.n_procs())
        .map(|p| {
            let pid = ProcId(p as u32);
            let fault = fr.faults.dvs.iter().find(|d| d.proc == pid);
            ProcState {
                queue: fr.schedule.tasks_on(pid).iter().copied().collect(),
                running: None,
                current: plan_level,
                dead: false,
                stuck: matches!(fault.map(|d| d.kind), Some(DvsFaultKind::StuckAtLevel)),
                extra_latency_s: match fault.map(|d| d.kind) {
                    Some(DvsFaultKind::ExtraLatency { extra_s }) => extra_s,
                    _ => 0.0,
                },
            }
        })
        .collect();

    // The reclamation floor: the slowest level stretching may reach.
    // The discrete critical level bounds it from below (§3.3 — slower
    // than critical costs *more* energy per cycle); a plan already at
    // or below critical is never undercut.
    let reclaim_floor = if cfg.levels.critical().freq < plan_level.freq {
        *cfg.levels.critical()
    } else {
        plan_level
    };

    let mut finished = vec![false; n];
    let mut finish_s = vec![0.0f64; n];
    let mut records: Vec<Option<ExecRecord>> = vec![None; n];
    let mut aborted: Vec<ExecRecord> = Vec::new();
    let mut injected: Vec<InjectedEvent> = Vec::new();
    let mut recoveries: Vec<RecoveryAction> = Vec::new();
    let mut energy = EnergyBreakdown::default();
    let mut dvs_switches = 0usize;
    let mut base_level = plan_level;
    // Per-job window end for the stretch/boost rung: the statically
    // planned finish, replaced by the re-planned finish after a re-solve.
    let mut target_finish_s: Vec<f64> = graph
        .tasks()
        .map(|t| fr.schedule.finish(t) as f64 / plan_level.freq)
        .collect();

    let mut steps_left = fr.budget.max_steps;
    let mut resolves = 0u64;
    let mut resolve_steps = 0u64;
    let mut stretched = 0usize;
    let mut degraded = false;
    let budget_open = |steps_left: &Option<u64>, degraded: &mut bool| -> bool {
        let expired = steps_left.is_some_and(|s| s == 0)
            || fr.budget.token.as_ref().is_some_and(|t| t.is_cancelled())
            || fr.budget.deadline.is_some_and(|d| Instant::now() >= d);
        if expired {
            *degraded = true;
        }
        !expired
    };

    let mut fail_pending = fr.faults.fail_stop;
    let mut now = 0.0f64;
    let mut n_finished = 0usize;

    loop {
        // Retire due completions; an early one may trigger reclamation.
        let mut reclaim_due = false;
        for (pi, ps) in procs.iter_mut().enumerate() {
            let due = matches!(&ps.running, Some(rf) if rf.finish_s <= now);
            if due {
                let rf = ps.running.take().expect("checked running");
                finished[rf.task.index()] = true;
                finish_s[rf.task.index()] = rf.finish_s;
                n_finished += 1;
                energy.active_j += rf.cycles as f64 * rf.level.energy_per_cycle;
                records[rf.task.index()] = Some(ExecRecord {
                    task: rf.task,
                    proc: ProcId(pi as u32),
                    start_s: rf.exec_start_s,
                    finish_s: rf.finish_s,
                    vdd: rf.level.vdd,
                    cycles: rf.cycles,
                });
                if rf.finish_s < rf.expected_finish_s * (1.0 - REL_EPS) {
                    reclaim_due = true;
                }
            }
        }

        // Reclaim rung: an early completion re-solves the pending suffix
        // over every level from the floor up, adopted only when feasible
        // (the dispatch rung already defends windows otherwise).
        if reclaim_due && fr.reclaim && n_finished < n && budget_open(&steps_left, &mut degraded) {
            let running_est = running_estimates(&procs, now);
            let dead: Vec<bool> = procs.iter().map(|p| p.dead).collect();
            let candidates: Vec<OperatingPoint> =
                cfg.levels.at_least(reclaim_floor.freq).copied().collect();
            let ctx = SuffixContext {
                finished: &finished,
                finish_s: &finish_s,
                running: &running_est,
                dead: &dead,
                now_s: now,
                deadline_s: fr.horizon_s,
                own_due_s: fr.due_s,
            };
            if let Some(sp) = solver.resolve(graph, &ctx, &candidates, steps_left) {
                resolves += 1;
                resolve_steps += sp.steps;
                flight::record(
                    flight::ONLINE_RECLAIM,
                    fr.index as u64,
                    sp.steps,
                    u64::from(sp.feasible),
                );
                if let Some(left) = steps_left.as_mut() {
                    *left = left.saturating_sub(sp.steps);
                }
                if !sp.complete {
                    degraded = true;
                }
                if sp.feasible {
                    adopt_plan(
                        graph,
                        &sp.plan,
                        sp.level,
                        &finished,
                        &running_est,
                        &mut procs,
                        &mut target_finish_s,
                    );
                    base_level = sp.level;
                }
            }
        }

        // Fire the fail-stop once its time has come.
        if let Some(fs) = fail_pending.filter(|fs| fs.at_s <= now) {
            fail_pending = None;
            injected.push(InjectedEvent::ProcFailed {
                proc: fs.proc,
                at_s: fs.at_s,
            });
            let fp = fs.proc.index();
            procs[fp].dead = true;
            if let Some(rf) = procs[fp].running.take() {
                // Fail-stop loses state: bill the partial execution,
                // re-run the job from scratch elsewhere.
                let ran_s = (fs.at_s - rf.exec_start_s).max(0.0);
                let cycles_done = ((ran_s * rf.level.freq).floor() as u64).min(rf.cycles);
                energy.active_j += cycles_done as f64 * rf.level.energy_per_cycle;
                aborted.push(ExecRecord {
                    task: rf.task,
                    proc: fs.proc,
                    start_s: rf.exec_start_s,
                    finish_s: fs.at_s,
                    vdd: rf.level.vdd,
                    cycles: cycles_done,
                });
            }

            let running_est = running_estimates(&procs, now);
            let dead: Vec<bool> = procs.iter().map(|p| p.dead).collect();
            let candidates: Vec<OperatingPoint> = match fr.policy {
                RecoveryPolicy::Absorb => vec![base_level],
                RecoveryPolicy::Boost => cfg.levels.at_least(base_level.freq).copied().collect(),
            };
            let ctx = SuffixContext {
                finished: &finished,
                finish_s: &finish_s,
                running: &running_est,
                dead: &dead,
                now_s: now,
                deadline_s: fr.horizon_s,
                own_due_s: fr.due_s,
            };
            if let Some(sp) = solver.resolve(graph, &ctx, &candidates, None) {
                resolves += 1;
                resolve_steps += sp.steps;
                flight::record(flight::ONLINE_RESOLVE, fr.index as u64, sp.steps, 1);
                let migrated =
                    migrated_vs_static(graph, &sp.plan, fr.schedule, &finished, &running_est);
                adopt_plan(
                    graph,
                    &sp.plan,
                    sp.level,
                    &finished,
                    &running_est,
                    &mut procs,
                    &mut target_finish_s,
                );
                // Ladder journal: a = rung (0 rescheduled, 1 base raised,
                // 2 task boosted), b = the failed processor or the task.
                flight::record(flight::ONLINE_FAULT, fr.index as u64, 0, fp as u64);
                recoveries.push(RecoveryAction::Rescheduled {
                    failed_proc: fs.proc,
                    at_s: fs.at_s,
                    migrated,
                });
                if (sp.level.vdd - base_level.vdd).abs() > 1e-12 {
                    flight::record(flight::ONLINE_FAULT, fr.index as u64, 1, fp as u64);
                    recoveries.push(RecoveryAction::BaseLevelRaised {
                        from_vdd: base_level.vdd,
                        to_vdd: sp.level.vdd,
                    });
                    base_level = sp.level;
                }
            } else {
                // No survivor (or nothing pending): strand the dead
                // processor's queue; the loop below winds down.
                procs[fp].queue.clear();
            }
        }

        // Dispatch: start every queue head whose predecessors are done,
        // repeating because zero-weight jobs retire instantly.
        let mut progress = true;
        while progress {
            progress = false;
            for (pi, ps) in procs.iter_mut().enumerate() {
                if ps.dead || ps.running.is_some() {
                    continue;
                }
                let Some(&t) = ps.queue.front() else {
                    continue;
                };
                if graph.predecessors(t).iter().any(|&q| !finished[q.index()]) {
                    continue;
                }
                ps.queue.pop_front();
                progress = true;
                let w = graph.weight(t);
                if w == 0 {
                    finished[t.index()] = true;
                    finish_s[t.index()] = now;
                    n_finished += 1;
                    records[t.index()] = Some(ExecRecord {
                        task: t,
                        proc: ProcId(pi as u32),
                        start_s: now,
                        finish_s: now,
                        vdd: ps.current.vdd,
                        cycles: 0,
                    });
                    continue;
                }

                // The stretch/boost rung: fit the window to the planned
                // finish.
                let level = if fr.policy == RecoveryPolicy::Absorb && !fr.reclaim {
                    base_level
                } else {
                    let window = target_finish_s[t.index()] - now;
                    let pick = |window: f64| -> OperatingPoint {
                        if window <= 0.0 {
                            return if fr.policy == RecoveryPolicy::Boost {
                                *cfg.levels.fastest()
                            } else {
                                base_level
                            };
                        }
                        let required = w as f64 / window * (1.0 - REL_EPS);
                        let c = cfg
                            .levels
                            .lowest_at_least(required)
                            .copied()
                            .unwrap_or_else(|| *cfg.levels.fastest());
                        let floor = if fr.reclaim && reclaim_floor.freq < base_level.freq {
                            reclaim_floor
                        } else {
                            base_level
                        };
                        let c = if c.freq < floor.freq { floor } else { c };
                        if fr.policy != RecoveryPolicy::Boost && c.freq > base_level.freq {
                            base_level
                        } else {
                            c
                        }
                    };
                    let wants = pick(window);
                    // A level change costs settle time; re-check the
                    // shrunk window, but never *below* the latency-free
                    // choice (avoids flip-flopping on zero slack).
                    if (wants.vdd - ps.current.vdd).abs() > 1e-12 {
                        let shrunk = pick(window - fr.switch.latency_s - ps.extra_latency_s);
                        if shrunk.freq > wants.freq {
                            shrunk
                        } else {
                            wants
                        }
                    } else {
                        wants
                    }
                };
                // A stuck regulator ignores the request.
                let level = if (level.vdd - ps.current.vdd).abs() > 1e-12 && ps.stuck {
                    injected.push(InjectedEvent::DvsStuck {
                        proc: ProcId(pi as u32),
                        requested_vdd: level.vdd,
                    });
                    ps.current
                } else {
                    level
                };
                if level.freq > base_level.freq + 1e-6 {
                    flight::record(flight::ONLINE_FAULT, fr.index as u64, 2, t.index() as u64);
                    recoveries.push(RecoveryAction::TaskBoosted {
                        task: t,
                        from_vdd: base_level.vdd,
                        to_vdd: level.vdd,
                    });
                }
                if level.freq < plan_level.freq - 1e-6 {
                    stretched += 1;
                }

                let mut exec_start = now;
                if (level.vdd - ps.current.vdd).abs() > 1e-12 {
                    dvs_switches += 1;
                    energy.transition_j += fr.switch.energy_j;
                    let mut lat = fr.switch.latency_s;
                    if ps.extra_latency_s > 0.0 {
                        lat += ps.extra_latency_s;
                        injected.push(InjectedEvent::DvsDelayed {
                            proc: ProcId(pi as u32),
                            extra_s: ps.extra_latency_s,
                        });
                    }
                    exec_start += lat;
                    ps.current = level;
                }
                let cycles = eff[t.index()];
                if cycles > w {
                    injected.push(InjectedEvent::Overrun {
                        task: t,
                        factor: overrun_factor[t.index()].unwrap_or(1.0),
                        cycles,
                    });
                }
                ps.running = Some(InFlight {
                    task: t,
                    exec_start_s: exec_start,
                    finish_s: exec_start + cycles as f64 / level.freq,
                    expected_finish_s: exec_start + w as f64 / level.freq,
                    level,
                    cycles,
                });
            }
        }

        if n_finished == n {
            break;
        }

        // Advance to the next event: a finish or the pending fail-stop.
        let mut next = f64::INFINITY;
        for p in &procs {
            if let Some(rf) = &p.running {
                next = next.min(rf.finish_s);
            }
        }
        if let Some(fs) = fail_pending {
            if next.is_finite() {
                next = next.min(fs.at_s.max(now));
            }
        }
        if !next.is_finite() {
            // Nothing can ever run again (no surviving processor with
            // dispatchable work): wind down with unfinished jobs.
            break;
        }
        now = next;
    }

    let makespan_s = records
        .iter()
        .flatten()
        .map(|r| r.finish_s)
        .fold(0.0f64, f64::max);

    let mut lateness = Vec::new();
    for t in graph.tasks() {
        let (due, tol) = match fr.due_s {
            Some(due_s) => {
                let due = due_s[t.index()];
                (due, due + due.abs() * REL_EPS)
            }
            None => (fr.horizon_s, fr.horizon_s * (1.0 + REL_EPS)),
        };
        match &records[t.index()] {
            Some(r) if r.finish_s > tol => lateness.push(TaskLateness {
                task: t,
                lateness_s: r.finish_s - due,
            }),
            None => lateness.push(TaskLateness {
                task: t,
                lateness_s: f64::INFINITY,
            }),
            _ => {}
        }
    }
    let outcome = if lateness.is_empty() {
        RunOutcome::MetDeadline
    } else {
        sort_lateness(&mut lateness);
        // A structured miss is post-mortem material: journal it, then
        // (if a dump path is configured) flush the flight buffer so the
        // evidence survives even if the process dies right after.
        flight::record(
            flight::ONLINE_MISS,
            fr.index as u64,
            lateness.len() as u64,
            0,
        );
        flight::last_gasp("deadline-miss");
        RunOutcome::DeadlineMiss { lateness }
    };

    FrameRun {
        records,
        aborted,
        injected,
        recoveries,
        energy,
        makespan_s,
        outcome,
        resolves,
        resolve_steps,
        stretched,
        degraded,
        dvs_switches,
    }
}

/// Per-processor in-flight job with its WCET-based finish estimate.
fn running_estimates(procs: &[ProcState], now: f64) -> Vec<Option<(TaskId, f64)>> {
    procs
        .iter()
        .map(|p| {
            p.running
                .as_ref()
                .map(|rf| (rf.task, rf.expected_finish_s.max(now)))
        })
        .collect()
}

/// Install a suffix re-plan: replace every surviving queue and the
/// window ends of pending jobs.
fn adopt_plan(
    graph: &TaskGraph,
    plan: &PartialSchedule,
    level: OperatingPoint,
    finished: &[bool],
    running_est: &[Option<(TaskId, f64)>],
    procs: &mut [ProcState],
    target_finish_s: &mut [f64],
) {
    for (p, ps) in procs.iter_mut().enumerate() {
        ps.queue.clear();
        ps.queue.extend(plan.tasks_on(ProcId(p as u32)));
    }
    for t in graph.tasks() {
        let in_flight = running_est.iter().flatten().any(|&(rt, _)| rt == t);
        if !finished[t.index()] && !in_flight {
            target_finish_s[t.index()] = plan.finish(t) as f64 / level.freq;
        }
    }
}

/// Pending jobs whose re-planned processor differs from the static
/// plan's (the fail-stop migration metric).
fn migrated_vs_static(
    graph: &TaskGraph,
    plan: &PartialSchedule,
    schedule: &Schedule,
    finished: &[bool],
    running_est: &[Option<(TaskId, f64)>],
) -> usize {
    graph
        .tasks()
        .filter(|&t| {
            let in_flight = running_est.iter().flatten().any(|&(rt, _)| rt == t);
            !finished[t.index()] && !in_flight && plan.proc(t) != schedule.proc(t)
        })
        .count()
}

/// Bill the idle gaps of one executed frame's window `[start, end)`
/// (absolute times; records are frame-relative): per employed processor
/// at the plan level's idle power, slept through past break-even, a
/// fail-stopped processor only to its fail time.
#[allow(clippy::too_many_arguments)]
pub(crate) fn bill_idle(
    tasks: &[Option<ExecRecord>],
    aborted: &[ExecRecord],
    faults: &FaultPlan,
    start: f64,
    end: f64,
    n_procs: usize,
    plan_level: OperatingPoint,
    cfg: &SchedulerConfig,
    energy: &mut EnergyBreakdown,
) {
    for pi in 0..n_procs {
        let pid = ProcId(pi as u32);
        let mut intervals: Vec<(f64, f64)> = tasks
            .iter()
            .flatten()
            .chain(aborted.iter())
            .filter(|r| r.proc == pid)
            .map(|r| (start + r.start_s, start + r.finish_s))
            .collect();
        intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
        let p_end = match faults.fail_stop {
            Some(fs) if fs.proc == pid => (start + fs.at_s).min(end),
            _ => end,
        };
        let mut cursor = start;
        for (s, f) in intervals {
            account_idle(s - cursor, plan_level, cfg, energy);
            cursor = cursor.max(f);
        }
        account_idle(p_end - cursor, plan_level, cfg, energy);
    }
}
