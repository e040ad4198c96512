//! The flight journal accounts for every recovery and every miss.
//!
//! Its own test binary: the recorder is process-wide, so no other test
//! may journal while this one counts.

use lamps_core::multi::{solve_with_deadlines, DeadlineVector};
use lamps_core::{solve, SchedulerConfig, Strategy};
use lamps_kpn::PeriodicSet;
use lamps_obs::flight;
use lamps_sim::{
    run_online, run_with_faults, DvsSwitchCost, FaultIntensity, FaultPlan, OnlineConfig,
    OnlineStream, RecoveryAction, RecoveryPolicy,
};
use lamps_taskgraph::gen::layered::{generate, LayeredConfig};

fn count(snap: &flight::FlightSnapshot, kind: &str) -> usize {
    snap.events.iter().filter(|e| e.kind == kind).count()
}

#[test]
fn every_recovery_and_miss_is_journaled() {
    let cfg = SchedulerConfig::paper();
    let mut s = PeriodicSet::new();
    let src = s.add("src", 8_000_000, 31_000_000);
    for i in 0..4 {
        let w = s.add(format!("w{i}"), 11_000_000, 62_000_000);
        s.depends(src, w).unwrap();
    }
    let dag = s.to_frame_dag();
    let ocfg = OnlineConfig {
        switch: DvsSwitchCost::typical(),
        ..OnlineConfig::reclaiming()
    };
    let dv = DeadlineVector::from_kpn(dag.deadlines.clone(), dag.hyperperiod_cycles);
    let sol = solve_with_deadlines(ocfg.strategy, &dag.graph, &dv, &cfg).unwrap();
    let stream = OnlineStream::synthesize(
        &dag,
        sol.n_procs,
        12,
        0.8,
        0.5,
        0.9,
        Some(&FaultIntensity::severe()),
        cfg.max_frequency(),
        7,
    );

    flight::clear();
    lamps_obs::enable_flight();
    let r = run_online(&dag, &stream, &ocfg, &cfg).unwrap();
    lamps_obs::disable_flight();
    let snap = flight::snapshot();
    assert_eq!(snap.dropped, 0);

    let recoveries: usize = r.frames.iter().map(|f| f.recoveries.len()).sum();
    assert!(recoveries > 0, "a severe stream must recover");
    assert!(r.frame_misses > 0, "a severe stream must miss");
    assert_eq!(count(&snap, flight::ONLINE_FAULT), recoveries);
    assert_eq!(count(&snap, flight::ONLINE_MISS), r.frame_misses);
    // Each event names its frame and rung.
    for f in &r.frames {
        let journaled: Vec<u64> = snap
            .events
            .iter()
            .filter(|e| e.kind == flight::ONLINE_FAULT && e.key == f.frame as u64)
            .map(|e| e.a)
            .collect();
        let rungs: Vec<u64> = f
            .recoveries
            .iter()
            .map(|a| match a {
                RecoveryAction::Rescheduled { .. } => 0,
                RecoveryAction::BaseLevelRaised { .. } => 1,
                RecoveryAction::TaskBoosted { .. } => 2,
            })
            .collect();
        assert_eq!(journaled, rungs, "frame {}", f.frame);
    }

    // The single-frame runtime journals the same way, keyed frame 0.
    let g = generate(
        &LayeredConfig {
            n_tasks: 30,
            n_layers: 6,
            ..LayeredConfig::default()
        },
        3,
    )
    .scale_weights(3_100_000);
    let d = 1.3 * g.critical_path_cycles() as f64 / cfg.max_frequency();
    let sol = solve(Strategy::LampsPs, &g, d, &cfg).unwrap();
    let plan = FaultPlan::random(&g, sol.n_procs, d, &FaultIntensity::severe(), 5);
    flight::clear();
    lamps_obs::enable_flight();
    let r = run_with_faults(
        &g,
        &sol,
        g.weights(),
        &plan,
        d,
        RecoveryPolicy::Boost,
        &cfg,
        &DvsSwitchCost::typical(),
    )
    .unwrap();
    lamps_obs::disable_flight();
    let snap = flight::snapshot();
    assert!(!r.recoveries.is_empty());
    assert_eq!(count(&snap, flight::ONLINE_FAULT), r.recoveries.len());
    assert_eq!(
        count(&snap, flight::ONLINE_MISS),
        usize::from(!r.outcome.met())
    );
    assert!(snap
        .events
        .iter()
        .filter(|e| e.kind == flight::ONLINE_FAULT)
        .all(|e| e.key == 0));
}
