//! Mutation check: seven hand-seeded scheduler/evaluator bugs, each in
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
/// The pruning differential (pruned solve vs. shortcut-free reference)
/// must flag the divergence.
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
