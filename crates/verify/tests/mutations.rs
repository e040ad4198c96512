//! Mutation check: nine hand-seeded scheduler/evaluator/executor bugs, each in
//! a test-only buggy copy of the production logic or behind a test-only
//! hook, must be caught by the independent validator or a differential.
//! If any of these pass silently the verification subsystem is not
//! pulling its weight.

use lamps_core::{solve, SchedulerConfig, Solution, Strategy};
use lamps_power::OperatingPoint;
use lamps_sched::{ProcId, Schedule};
use lamps_taskgraph::{GraphBuilder, TaskGraph};
use lamps_verify::{check_schedule, check_solution, rebill, Violation};

fn cfg() -> SchedulerConfig {
    SchedulerConfig::paper()
}

/// Wrap a hand-built schedule in a Solution whose energy figures come
/// from the *given* breakdown, as a buggy pipeline would report them.
fn solution_with(
    strategy: Strategy,
    schedule: Schedule,
    level: OperatingPoint,
    energy: lamps_energy::EnergyBreakdown,
) -> Solution {
    let makespan_cycles = schedule.makespan_cycles();
    Solution {
        strategy,
        n_procs: schedule.n_procs(),
        level,
        energy,
        makespan_cycles,
        makespan_s: makespan_cycles as f64 / level.freq,
        schedule: std::sync::Arc::new(schedule),
    }
}

/// Seeded bug 1: a list scheduler that drops precedence edges — it packs
/// tasks back-to-back in reverse id order, ignoring the graph entirely.
fn buggy_schedule_ignoring_edges(graph: &TaskGraph) -> Schedule {
    let n = graph.len();
    let mut starts = vec![0u64; n];
    let mut finishes = vec![0u64; n];
    let mut cursor = 0u64;
    for i in (0..n).rev() {
        let w = graph.weights()[i];
        starts[i] = cursor;
        finishes[i] = cursor + w;
        cursor += w;
    }
    Schedule::new(1, starts, finishes, vec![ProcId(0); n])
}

#[test]
fn mutation_dropped_precedence_edge_is_caught() {
    let mut b = GraphBuilder::new();
    let a = b.add_task(10);
    let c = b.add_task(10);
    b.add_edge(a, c).unwrap();
    let g = b.build().unwrap();
    let s = buggy_schedule_ignoring_edges(&g);
    let v = check_schedule(&g, &s);
    assert!(
        v.iter().any(|x| matches!(x, Violation::Precedence { .. })),
        "dropped-edge schedule validated cleanly: {v:?}"
    );
}

/// Seeded bug 2: an energy biller whose idle-gap loop is off by one — it
/// walks gaps with an exclusive bound and never bills the last inner gap
/// of each processor.
#[test]
fn mutation_off_by_one_idle_gap_is_caught() {
    let cfg = cfg();
    let mut b = GraphBuilder::new();
    for _ in 0..3 {
        b.add_task(4);
    }
    let g = b.build().unwrap();
    // One processor, two six-cycle inner gaps: [4,10) and [14,20).
    let s = Schedule::new(1, vec![0, 10, 20], vec![4, 14, 24], vec![ProcId(0); 3]);
    let level = cfg.levels.points()[0];
    let deadline_s = s.makespan_cycles() as f64 / level.freq;

    let correct = rebill(&s, &level, deadline_s, None);
    let mut buggy = lamps_energy::EnergyBreakdown {
        active_j: correct.active_j,
        idle_j: correct.idle_j,
        sleep_j: correct.sleep_j,
        transition_j: correct.transition_j,
        sleep_episodes: correct.sleep_episodes,
    };
    buggy.idle_j -= level.idle_power * 6.0 / level.freq; // the dropped gap

    let sol = solution_with(Strategy::ScheduleStretch, s, level, buggy);
    let v = check_solution(&g, &sol, deadline_s, &cfg);
    assert!(
        v.iter().any(|x| matches!(
            x,
            Violation::EnergyMismatch { field, .. } if *field == "idle_j" || *field == "total_j"
        )),
        "off-by-one gap billing validated cleanly: {v:?}"
    );
}

/// Seeded bug 3: a shutdown policy with the wrong break-even threshold —
/// it only sleeps when a gap exceeds *twice* the break-even time, so a
/// gap at 1.5× stays idle and both the joules and the episode count
/// drift from the break-even rule.
#[test]
fn mutation_wrong_break_even_threshold_is_caught() {
    let cfg = cfg();
    let level = cfg.levels.points()[0];
    let t_be = cfg.sleep.breakeven_time(level.idle_power);
    assert!(t_be.is_finite() && t_be > 0.0);
    let gap_cycles = (1.5 * t_be * level.freq).ceil() as u64;

    let w = 1_000_000u64;
    let mut b = GraphBuilder::new();
    b.add_task(w);
    b.add_task(w);
    let g = b.build().unwrap();
    let s = Schedule::new(
        1,
        vec![0, w + gap_cycles],
        vec![w, 2 * w + gap_cycles],
        vec![ProcId(0); 2],
    );
    let deadline_s = s.makespan_cycles() as f64 / level.freq;

    // The break-even rule mandates sleeping through this gap…
    let correct = rebill(&s, &level, deadline_s, Some(&cfg.sleep));
    assert_eq!(
        correct.sleep_episodes, 1,
        "test gap should be worth sleeping"
    );
    // …the buggy 2× threshold keeps the processor idling instead.
    let buggy = lamps_energy::EnergyBreakdown {
        active_j: correct.active_j,
        idle_j: level.idle_power * gap_cycles as f64 / level.freq,
        sleep_j: 0.0,
        transition_j: 0.0,
        sleep_episodes: 0,
    };

    let sol = solution_with(Strategy::LampsPs, s, level, buggy);
    let v = check_solution(&g, &sol, deadline_s, &cfg);
    assert!(
        v.iter()
            .any(|x| matches!(x, Violation::SleepEpisodeMismatch { .. })),
        "wrong break-even threshold validated cleanly: {v:?}"
    );
    assert!(
        v.iter()
            .any(|x| matches!(x, Violation::EnergyMismatch { .. })),
        "wrong break-even joules validated cleanly: {v:?}"
    );
}

/// Seeded bug 4: a level selector with an off-by-one table index that
/// pairs one level's frequency with the neighbouring level's voltage —
/// the resulting operating point exists in no row of the table.
#[test]
fn mutation_illegal_level_index_is_caught() {
    let cfg = cfg();
    let mut b = GraphBuilder::new();
    let t0 = b.add_task(3_100_000);
    let t1 = b.add_task(6_200_000);
    b.add_edge(t0, t1).unwrap();
    let g = b.build().unwrap();
    let d = 3.0 * g.critical_path_cycles() as f64 / cfg.max_frequency();
    let mut sol = solve(Strategy::Lamps, &g, d, &cfg).unwrap();

    let points = cfg.levels.points();
    let chosen = points
        .iter()
        .position(|p| p.freq == sol.level.freq)
        .expect("solver picks a table level");
    let neighbour = if chosen + 1 < points.len() {
        chosen + 1
    } else {
        chosen - 1
    };
    sol.level.vdd = points[neighbour].vdd; // freq stays — a mixed-up row

    let v = check_solution(&g, &sol, d, &cfg);
    assert!(
        v.iter()
            .any(|x| matches!(x, Violation::IllegalLevel { .. })),
        "mixed-up level row validated cleanly: {v:?}"
    );
}

/// Seeded bug 6: an off-by-one in the makespan lower bound LB(m) — it
/// divides the total work by m − 1, so the pruned binary search skips a
/// probe that was actually feasible and settles on too many processors.
/// The pruning differential (pruned solve vs. the exhaustive reference
/// search) must flag the divergence.
#[test]
fn mutation_off_by_one_lower_bound_is_caught() {
    use lamps_core::{solve_with_cache, ScheduleCache};
    use lamps_verify::pruning_differential;

    let cfg = cfg();
    // Fig. 4a: total work 18 cycles, critical path 10. At a 12-cycle
    // deadline the true minimum is 2 processors (LB(2) = max(10, ⌈18/2⌉)
    // = 10 ≤ 12), but the buggy LB'(2) = ⌈18/1⌉ = 18 > 12 skips that
    // probe and the search lands on 3.
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
    let g = b.build().unwrap();
    // 12.5 cycles at top frequency, so the integer deadline is 12 even
    // after float round-off.
    let d = 12.5 / cfg.max_frequency();

    let mut mutated = ScheduleCache::for_graph(&g);
    mutated.mutate_lb_off_by_one_for_tests();
    let sol = solve_with_cache(Strategy::Lamps, d, &cfg, &mut mutated).unwrap();
    assert_eq!(
        sol.n_procs, 3,
        "the buggy bound should over-prune the 2-processor probe"
    );

    let mut violations = Vec::new();
    pruning_differential(&g, &sol, d, &cfg, &mut violations, &Strategy::Lamps);
    assert!(
        violations.iter().any(|v| v.contains("diverged")),
        "off-by-one lower bound validated cleanly: {violations:?}"
    );

    // Control: the unmutated pruned solve passes the same differential.
    let honest = solve(Strategy::Lamps, &g, d, &cfg).unwrap();
    assert_eq!(honest.n_procs, 2, "the sound bound keeps the true minimum");
    let mut clean = Vec::new();
    pruning_differential(&g, &honest, d, &cfg, &mut clean, &Strategy::Lamps);
    assert!(clean.is_empty(), "control case was flagged: {clean:?}");
}

/// Seeded bug 8: the step meter consulted before the natural end of the
/// LAMPS scan. A budget of exactly the full step count then reports
/// `Degraded` although the search had nothing left to do — the served
/// answer mislabels a complete search. The budget differential (budgeted
/// solve vs. the exhaustive reference under the same step ladder) must
/// flag it.
#[test]
fn mutation_meter_before_scan_end_is_caught() {
    use lamps_core::{
        solve_with_budget, solve_with_budget_cache, Completeness, ScheduleCache, SolveBudget,
    };
    use lamps_verify::{budget_differential, solve_reference};

    let cfg = cfg();
    // Four independent 1 ms tasks at 8× the critical path: the binary
    // search settles on one processor, the scan visits 1 (4 ms) and 2
    // (2 ms) processors and ends naturally at 3, whose makespan (2 ms)
    // no longer decreases — above the critical path, so no
    // critical-path stop ends it first.
    let mut b = GraphBuilder::new();
    for _ in 0..4 {
        b.add_task(3_100_000);
    }
    let g = b.build().unwrap();
    let d = 8.0 * g.critical_path_cycles() as f64 / cfg.max_frequency();
    let s = Strategy::LampsPs;
    let full = solve_reference(s, &g, d, &cfg, None).unwrap();
    assert!(full.completeness.is_complete());
    let budget = SolveBudget::steps(full.steps);

    let mutated_solve = |budget: &SolveBudget| {
        let mut cache = ScheduleCache::for_graph(&g);
        cache.mutate_meter_before_scan_end_for_tests();
        solve_with_budget_cache(s, d, &cfg, &mut cache, budget)
    };
    let mutated = mutated_solve(&budget).unwrap();
    assert!(
        matches!(mutated.completeness, Completeness::Degraded { explored, .. } if explored == full.steps),
        "the reordered meter should mislabel the exact budget: {:?}",
        mutated.completeness
    );

    let mut violations = Vec::new();
    budget_differential(&g, d, &cfg, s, mutated_solve, &mut violations);
    assert!(
        violations
            .iter()
            .any(|v| v.contains("where the reference completed")),
        "meter before scan end validated cleanly: {violations:?}"
    );

    // Control: the unmutated budgeted solve completes on the exact
    // budget and passes the same differential.
    let honest = solve_with_budget(s, &g, d, &cfg, &budget).unwrap();
    assert!(
        honest.completeness.is_complete(),
        "{:?}",
        honest.completeness
    );
    let mut clean = Vec::new();
    let checks = budget_differential(
        &g,
        d,
        &cfg,
        s,
        |b| solve_with_budget(s, &g, d, &cfg, b),
        &mut clean,
    );
    assert!(checks > 0);
    assert!(clean.is_empty(), "control case was flagged: {clean:?}");
}

/// Seeded bug 5: a stretcher that overshoots — it picks the next level
/// *below* the slowest feasible one, so the stretched schedule blows the
/// deadline.
#[test]
fn mutation_deadline_overrun_is_caught() {
    let cfg = cfg();
    let mut b = GraphBuilder::new();
    let ids: Vec<_> = (0..4).map(|i| b.add_task((i + 1) * 3_100_000)).collect();
    b.add_edge(ids[0], ids[2]).unwrap();
    b.add_edge(ids[1], ids[3]).unwrap();
    let g = b.build().unwrap();
    let d = 1.1 * g.critical_path_cycles() as f64 / cfg.max_frequency();
    let mut sol = solve(Strategy::ScheduleStretch, &g, d, &cfg).unwrap();

    let slowest = cfg
        .levels
        .points()
        .iter()
        .copied()
        .min_by(|a, b| a.freq.total_cmp(&b.freq))
        .unwrap();
    assert!(
        sol.makespan_cycles as f64 / slowest.freq > d * (1.0 + 1e-9),
        "test needs the slowest level to be infeasible at a 1.1x deadline"
    );
    sol.level = slowest;
    sol.makespan_s = sol.makespan_cycles as f64 / slowest.freq;

    let v = check_solution(&g, &sol, d, &cfg);
    assert!(
        v.iter()
            .any(|x| matches!(x, Violation::DeadlineOverrun { .. })),
        "overshot stretch validated cleanly: {v:?}"
    );
}

/// Seeded bug 7: a stale rank memo — the list-scheduler workspace reuses
/// the EDF ranks of its previous run without checking that the keys are
/// the ones they were built from. The stale schedule is still a valid
/// schedule (precedence and exclusivity hold), so the validator cannot
/// see it; the list-scheduler differential against the heap reference
/// must.
#[test]
fn mutation_stale_rank_reuse_is_caught() {
    use lamps_sched::list::{
        list_schedule_heap_reference, list_schedule_with, ListScheduleWorkspace,
    };

    // Two independent tasks on one processor, ranked in opposite orders
    // by the two key vectors.
    let mut b = GraphBuilder::new();
    b.add_task(5);
    b.add_task(3);
    let g = b.build().unwrap();
    let (first, second) = ([1u64, 2], [2u64, 1]);
    let run = |mutate: bool| {
        let mut ws = ListScheduleWorkspace::new();
        list_schedule_with(&mut ws, &g, 1, &first);
        if mutate {
            ws.mutate_stale_rank_reuse_for_tests();
        }
        list_schedule_with(&mut ws, &g, 1, &second)
    };
    let reference = list_schedule_heap_reference(&g, 1, &second);

    let stale = run(true);
    assert!(
        check_schedule(&g, &stale).is_empty(),
        "the stale schedule is structurally valid; only a differential sees it"
    );
    assert_ne!(
        stale, reference,
        "stale ranks reproduced the reference schedule: the differential is blind"
    );

    // Control: the unmutated workspace re-ranks and matches the reference.
    assert_eq!(run(false), reference, "control case diverged");
}

/// Seeded bug 9, in the frame executor's billing: idle gaps billed at
/// the level the processor last ran at instead of the plan level. This
/// is a test-only copy of the executor's gap biller; `last_run_level`
/// switches the bug on. The gap energies it returns replace a genuine
/// report's, exactly as a buggy executor would report them.
#[allow(clippy::too_many_arguments)]
fn bill_gaps(
    tasks: &[Option<lamps_sim::ExecRecord>],
    aborted: &[lamps_sim::ExecRecord],
    fail_stop: Option<lamps_sim::FailStop>,
    start: f64,
    end: f64,
    n_procs: usize,
    plan: OperatingPoint,
    cfg: &SchedulerConfig,
    last_run_level: bool,
) -> lamps_energy::EnergyBreakdown {
    let mut e = lamps_energy::EnergyBreakdown::default();
    let mut bill = |gap: f64, level: OperatingPoint| {
        if gap <= 0.0 {
            return;
        }
        if cfg.sleep.worth_sleeping(level.idle_power, gap) {
            e.transition_j += cfg.sleep.transition_energy;
            e.sleep_j += cfg.sleep.sleep_power * gap;
            e.sleep_episodes += 1;
        } else {
            e.idle_j += level.idle_power * gap;
        }
    };
    for pi in 0..n_procs {
        let pid = ProcId(pi as u32);
        let mut runs: Vec<(f64, f64, f64)> = tasks
            .iter()
            .flatten()
            .chain(aborted.iter())
            .filter(|r| r.proc == pid)
            .map(|r| (start + r.start_s, start + r.finish_s, r.vdd))
            .collect();
        runs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let p_end = match fail_stop {
            Some(fs) if fs.proc == pid => (start + fs.at_s).min(end),
            _ => end,
        };
        let (mut cursor, mut level) = (start, plan);
        for (s, f, vdd) in runs {
            bill(s - cursor, level);
            cursor = cursor.max(f);
            if last_run_level {
                level = *cfg.levels.points().iter().find(|p| p.vdd == vdd).unwrap();
            }
        }
        bill(p_end - cursor, level);
    }
    e
}

/// Swap a report's gap energies (and the sleep share of the transition
/// bucket) for another bill's.
fn rebilled(
    e: &lamps_energy::EnergyBreakdown,
    genuine: &lamps_energy::EnergyBreakdown,
    gaps: &lamps_energy::EnergyBreakdown,
) -> lamps_energy::EnergyBreakdown {
    lamps_energy::EnergyBreakdown {
        active_j: e.active_j,
        idle_j: e.idle_j - genuine.idle_j + gaps.idle_j,
        sleep_j: e.sleep_j - genuine.sleep_j + gaps.sleep_j,
        transition_j: e.transition_j - genuine.transition_j + gaps.transition_j,
        sleep_episodes: e.sleep_episodes - genuine.sleep_episodes + gaps.sleep_episodes,
    }
}

#[test]
fn mutation_idle_billed_at_last_run_level_is_caught() {
    use lamps_sim::{
        run_online, run_with_faults, DvsSwitchCost, FaultIntensity, FaultPlan, OnlineConfig,
        OnlineStream, RecoveryPolicy,
    };
    use lamps_taskgraph::gen::layered::{generate, LayeredConfig};
    use lamps_verify::{check_online, check_run, RunViolation};
    let cfg = cfg();
    let caught = |v: &[RunViolation]| {
        v.iter()
            .any(|x| matches!(x, RunViolation::EnergyMismatch { .. }))
    };

    // The single-frame runtime: a boosting run under severe faults, so
    // processors idle after running above the plan level.
    let sw = DvsSwitchCost::typical();
    let mut single = 0;
    for seed in 0..16u64 {
        let g = generate(
            &LayeredConfig {
                n_tasks: 30,
                n_layers: 6,
                ..LayeredConfig::default()
            },
            seed,
        )
        .scale_weights(3_100_000);
        let d = 1.4 * g.critical_path_cycles() as f64 / cfg.max_frequency();
        let sol = solve(Strategy::LampsPs, &g, d, &cfg).unwrap();
        let plan = FaultPlan::random(&g, sol.n_procs, d, &FaultIntensity::severe(), seed);
        let r = run_with_faults(
            &g,
            &sol,
            g.weights(),
            &plan,
            d,
            RecoveryPolicy::Boost,
            &cfg,
            &sw,
        )
        .unwrap();
        let bill = |bug| {
            bill_gaps(
                &r.tasks,
                &r.aborted,
                plan.fail_stop,
                0.0,
                d.max(r.makespan_s),
                sol.n_procs,
                sol.level,
                &cfg,
                bug,
            )
        };
        let (genuine, buggy) = (bill(false), bill(true));
        if (buggy.total() - genuine.total()).abs() <= genuine.total() * 1e-6 {
            continue;
        }
        single += 1;
        let mut control = r.clone();
        control.energy = rebilled(&r.energy, &genuine, &bill(false));
        let v = check_run(&g, &sol, g.weights(), &plan, &control, d, &cfg, &sw);
        assert!(v.is_empty(), "seed {seed}: control diverged: {v:?}");
        let mut mutated = r.clone();
        mutated.energy = rebilled(&r.energy, &genuine, &buggy);
        let v = check_run(&g, &sol, g.weights(), &plan, &mutated, d, &cfg, &sw);
        assert!(
            caught(&v),
            "seed {seed}: last-level idle billing validated cleanly: {v:?}"
        );
    }
    assert!(
        single > 0,
        "no run idled after a level change: the mutation never bit"
    );

    // The online runtime: stretched and boosted jobs leave gaps behind
    // them at levels other than the plan's.
    let mut s = lamps_kpn::PeriodicSet::new();
    let src = s.add("src", 8_000_000, 31_000_000);
    for i in 0..4 {
        let w = s.add(format!("w{i}"), 11_000_000, 62_000_000);
        s.depends(src, w).unwrap();
    }
    let dag = s.to_frame_dag();
    let ocfg = OnlineConfig {
        switch: sw,
        ..OnlineConfig::reclaiming()
    };
    let mut online = 0;
    for seed in 0..8u64 {
        let stream = OnlineStream::synthesize(
            &dag,
            2,
            6,
            1.0,
            0.5,
            0.9,
            Some(&FaultIntensity::moderate()),
            cfg.max_frequency(),
            seed,
        );
        let r = run_online(&dag, &stream, &ocfg, &cfg).unwrap();
        let plan = *cfg
            .levels
            .points()
            .iter()
            .find(|p| p.vdd == r.plan_vdd)
            .unwrap();
        let tamper = |bug: bool| {
            let mut t = r.clone();
            let (mut genuine, mut gaps) = (
                lamps_energy::EnergyBreakdown::default(),
                lamps_energy::EnergyBreakdown::default(),
            );
            for (f, input) in t.frames.iter_mut().zip(&stream.frames) {
                let Some(start) = f.verdict.start_s() else {
                    continue;
                };
                let bill = |bug| {
                    bill_gaps(
                        &f.tasks,
                        &f.aborted,
                        input.faults.fail_stop,
                        start,
                        f.window_end_s,
                        r.n_procs,
                        plan,
                        &cfg,
                        bug,
                    )
                };
                let (g, b) = (bill(false), bill(bug));
                f.energy_j += b.total() - g.total();
                for (sum, part) in [(&mut genuine, g), (&mut gaps, b)] {
                    sum.idle_j += part.idle_j;
                    sum.sleep_j += part.sleep_j;
                    sum.transition_j += part.transition_j;
                    sum.sleep_episodes += part.sleep_episodes;
                }
            }
            t.energy = rebilled(&r.energy, &genuine, &gaps);
            t
        };
        let mutated = tamper(true);
        if (mutated.total_energy() - r.total_energy()).abs() <= r.total_energy() * 1e-6 {
            continue;
        }
        online += 1;
        let v = check_online(&dag, &stream, &ocfg, &cfg, &tamper(false));
        assert!(v.is_empty(), "seed {seed}: online control diverged: {v:?}");
        let v = check_online(&dag, &stream, &ocfg, &cfg, &mutated);
        assert!(
            caught(&v),
            "seed {seed}: last-level idle billing validated cleanly: {v:?}"
        );
    }
    assert!(
        online > 0,
        "no frame idled after a level change: the mutation never bit"
    );
}
