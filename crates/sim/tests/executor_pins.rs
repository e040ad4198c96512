//! Bit-for-bit pins of the two runtime entry points.
//!
//! `run_with_faults` and `run_online` are hashed field by field — every
//! energy component, time, outcome, lateness, injected fault, recovery
//! action, execution record, and counter — over seeded scenarios, and
//! each family of scenarios must reproduce its recorded digest. Any
//! change to the executor that moves a single bit of any report fails
//! here, naming the family.

use lamps_core::multi::{solve_with_deadlines, DeadlineVector};
use lamps_core::{solve, SchedulerConfig, Strategy};
use lamps_energy::EnergyBreakdown;
use lamps_kpn::{PeriodicDag, PeriodicSet};
use lamps_sim::{
    actual_cycles, run_online, run_with_faults, AdmissionVerdict, DvsSwitchCost, ExecRecord,
    FaultIntensity, FaultPlan, FaultyRunReport, FrameRecord, InjectedEvent, OnlineConfig,
    OnlineReport, OnlineStream, RecoveryAction, RecoveryPolicy, RunOutcome,
};
use lamps_taskgraph::gen::layered::{generate, LayeredConfig};
use lamps_taskgraph::TaskGraph;

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn n(&mut self, x: usize) {
        self.word(x as u64);
    }

    fn energy(&mut self, e: &EnergyBreakdown) {
        self.f(e.active_j);
        self.f(e.idle_j);
        self.f(e.sleep_j);
        self.f(e.transition_j);
        self.n(e.sleep_episodes);
    }

    fn record(&mut self, r: &ExecRecord) {
        self.n(r.task.index());
        self.n(r.proc.index());
        self.f(r.start_s);
        self.f(r.finish_s);
        self.f(r.vdd);
        self.word(r.cycles);
    }

    fn records(&mut self, tasks: &[Option<ExecRecord>], aborted: &[ExecRecord]) {
        self.n(tasks.len());
        for t in tasks {
            match t {
                None => self.word(0),
                Some(r) => {
                    self.word(1);
                    self.record(r);
                }
            }
        }
        self.n(aborted.len());
        for r in aborted {
            self.record(r);
        }
    }

    fn outcome(&mut self, o: &RunOutcome) {
        match o {
            RunOutcome::MetDeadline => self.word(0),
            RunOutcome::DeadlineMiss { lateness } => {
                self.word(1);
                self.n(lateness.len());
                for l in lateness {
                    self.n(l.task.index());
                    self.f(l.lateness_s);
                }
            }
        }
    }

    fn injected(&mut self, events: &[InjectedEvent]) {
        self.n(events.len());
        for e in events {
            match *e {
                InjectedEvent::Overrun {
                    task,
                    factor,
                    cycles,
                } => {
                    self.word(0);
                    self.n(task.index());
                    self.f(factor);
                    self.word(cycles);
                }
                InjectedEvent::ProcFailed { proc, at_s } => {
                    self.word(1);
                    self.n(proc.index());
                    self.f(at_s);
                }
                InjectedEvent::DvsStuck {
                    proc,
                    requested_vdd,
                } => {
                    self.word(2);
                    self.n(proc.index());
                    self.f(requested_vdd);
                }
                InjectedEvent::DvsDelayed { proc, extra_s } => {
                    self.word(3);
                    self.n(proc.index());
                    self.f(extra_s);
                }
            }
        }
    }

    fn recoveries(&mut self, actions: &[RecoveryAction]) {
        self.n(actions.len());
        for a in actions {
            match *a {
                RecoveryAction::Rescheduled {
                    failed_proc,
                    at_s,
                    migrated,
                } => {
                    self.word(0);
                    self.n(failed_proc.index());
                    self.f(at_s);
                    self.n(migrated);
                }
                RecoveryAction::BaseLevelRaised { from_vdd, to_vdd } => {
                    self.word(1);
                    self.f(from_vdd);
                    self.f(to_vdd);
                }
                RecoveryAction::TaskBoosted {
                    task,
                    from_vdd,
                    to_vdd,
                } => {
                    self.word(2);
                    self.n(task.index());
                    self.f(from_vdd);
                    self.f(to_vdd);
                }
            }
        }
    }

    fn faulty(&mut self, r: &FaultyRunReport) {
        self.energy(&r.energy);
        self.f(r.makespan_s);
        self.outcome(&r.outcome);
        self.injected(&r.injected);
        self.recoveries(&r.recoveries);
        self.records(&r.tasks, &r.aborted);
        self.n(r.dvs_switches);
    }

    fn frame(&mut self, f: &FrameRecord) {
        self.n(f.frame);
        match f.verdict {
            AdmissionVerdict::Admitted { start_s } => {
                self.word(0);
                self.f(start_s);
            }
            AdmissionVerdict::Deferred { start_s, delay_s } => {
                self.word(1);
                self.f(start_s);
                self.f(delay_s);
            }
            AdmissionVerdict::Shed { backlog } => {
                self.word(2);
                self.n(backlog);
            }
        }
        self.f(f.window_end_s);
        match &f.outcome {
            None => self.word(0),
            Some(o) => {
                self.word(1);
                self.outcome(o);
            }
        }
        self.records(&f.tasks, &f.aborted);
        self.injected(&f.injected);
        self.recoveries(&f.recoveries);
        self.f(f.energy_j);
        self.f(f.makespan_s);
        self.word(f.resolves);
        self.word(f.resolve_steps);
        self.n(f.stretched);
        self.word(u64::from(f.degraded));
        self.n(f.dvs_switches);
    }

    fn online(&mut self, r: &OnlineReport) {
        self.energy(&r.energy);
        self.n(r.frames.len());
        for f in &r.frames {
            self.frame(f);
        }
        self.n(r.admitted);
        self.n(r.deferred);
        self.n(r.shed);
        self.n(r.frame_misses);
        self.n(r.jobs_late);
        self.word(r.resolves);
        self.word(r.resolve_steps);
        self.word(r.key_cache_hits);
        self.word(r.key_cache_misses);
        self.n(r.dvs_switches);
        self.n(r.degraded_frames);
        self.f(r.plan_vdd);
        self.f(r.plan_freq);
        self.n(r.n_procs);
        self.f(r.span_s);
        self.f(r.horizon_s);
    }
}

fn cfg() -> SchedulerConfig {
    SchedulerConfig::paper()
}

fn graph(seed: u64) -> TaskGraph {
    generate(
        &LayeredConfig {
            n_tasks: 24 + 8 * (seed as usize % 3),
            n_layers: 6,
            ..LayeredConfig::default()
        },
        seed,
    )
    .scale_weights(3_100_000)
}

fn intensities() -> [(&'static str, Option<FaultIntensity>); 4] {
    [
        ("none", None),
        ("mild", Some(FaultIntensity::mild())),
        ("moderate", Some(FaultIntensity::moderate())),
        ("severe", Some(FaultIntensity::severe())),
    ]
}

/// Digest per `(intensity, policy, switch)` family over four graphs at
/// two deadline factors.
fn faulty_digests() -> Vec<(String, u64)> {
    let cfg = cfg();
    let mut out = Vec::new();
    for (name, intensity) in intensities() {
        for policy in [RecoveryPolicy::Absorb, RecoveryPolicy::Boost] {
            for (sw_name, switch) in [
                ("free", DvsSwitchCost::free()),
                ("typical", DvsSwitchCost::typical()),
            ] {
                let mut d = Digest::new();
                for seed in 1..=4u64 {
                    let g = graph(seed);
                    for factor in [1.3, 1.8] {
                        let dl = factor * g.critical_path_cycles() as f64 / cfg.max_frequency();
                        let sol = solve(Strategy::LampsPs, &g, dl, &cfg).unwrap();
                        let plan = match &intensity {
                            None => FaultPlan::none(),
                            Some(fi) => FaultPlan::random(&g, sol.n_procs, dl, fi, seed * 31),
                        };
                        let actual = actual_cycles(&g, 0.5, 0.95, seed);
                        let r =
                            run_with_faults(&g, &sol, &actual, &plan, dl, policy, &cfg, &switch)
                                .unwrap();
                        d.faulty(&r);
                    }
                }
                out.push((format!("faults/{name}/{policy:?}/{sw_name}"), d.0));
            }
        }
    }
    out
}

fn pipeline_dag() -> PeriodicDag {
    let mut s = PeriodicSet::new();
    let ctl = s.add("ctl", 13_000_000, 31_000_000);
    let est = s.add("est", 18_000_000, 62_000_000);
    let log = s.add("log", 6_000_000, 62_000_000);
    s.depends(ctl, est).unwrap();
    s.depends(est, log).unwrap();
    s.to_frame_dag()
}

fn wide_dag() -> PeriodicDag {
    let mut s = PeriodicSet::new();
    let src = s.add("src", 8_000_000, 31_000_000);
    for i in 0..4 {
        let w = s.add(format!("w{i}"), 11_000_000, 62_000_000);
        s.depends(src, w).unwrap();
    }
    s.to_frame_dag()
}

/// Digest per `(config, preset)` family over two periodic sets, plus
/// an overload family.
fn online_digests() -> Vec<(String, u64)> {
    let cfg = cfg();
    let f_max = cfg.max_frequency();
    let mut configs: Vec<(String, OnlineConfig)> = Vec::new();
    for (base_name, base) in [
        ("static_plan", OnlineConfig::static_plan()),
        ("reclaiming", OnlineConfig::reclaiming()),
    ] {
        configs.push((base_name.to_string(), base.clone()));
        configs.push((
            format!("{base_name}+absorb+typical"),
            OnlineConfig {
                policy: RecoveryPolicy::Absorb,
                switch: DvsSwitchCost::typical(),
                ..base.clone()
            },
        ));
        configs.push((
            format!("{base_name}+typical"),
            OnlineConfig {
                switch: DvsSwitchCost::typical(),
                ..base
            },
        ));
    }
    let presets = [
        ("clean", None),
        ("mild", Some(FaultIntensity::mild())),
        ("severe", Some(FaultIntensity::severe())),
    ];
    let dags = [pipeline_dag(), wide_dag()];
    let mut out = Vec::new();
    for (cname, ocfg) in &configs {
        for (pname, intensity) in &presets {
            let mut d = Digest::new();
            for (k, dag) in dags.iter().enumerate() {
                let dv = DeadlineVector::from_kpn(dag.deadlines.clone(), dag.hyperperiod_cycles);
                let sol = solve_with_deadlines(ocfg.strategy, &dag.graph, &dv, &cfg).unwrap();
                for (arrival, seed) in [(1.0, 11u64), (0.8, 29)] {
                    let stream = OnlineStream::synthesize(
                        dag,
                        sol.n_procs,
                        6,
                        arrival,
                        0.5,
                        0.9,
                        intensity.as_ref(),
                        f_max,
                        seed + k as u64,
                    );
                    let r = run_online(dag, &stream, ocfg, &cfg).unwrap();
                    d.online(&r);
                }
            }
            out.push((format!("online/{cname}/{pname}"), d.0));
        }
        // Overload: frames at 40% of the hyperperiod against a backlog
        // of one — deferrals, sheds, and arrival-anchored misses.
        let mut d = Digest::new();
        for dag in &dags {
            let stream = OnlineStream::synthesize(dag, 1, 8, 0.4, 0.5, 0.9, None, f_max, 5);
            let ocfg = OnlineConfig {
                max_backlog: 1,
                ..ocfg.clone()
            };
            let r = run_online(dag, &stream, &ocfg, &cfg).unwrap();
            d.online(&r);
        }
        out.push((format!("online/{cname}/overload"), d.0));
    }
    out
}

fn assert_pins(got: &[(String, u64)], want: &[(&str, u64)]) {
    let listing: String = got
        .iter()
        .map(|(name, d)| format!("        (\"{name}\", 0x{d:016x}),\n"))
        .collect();
    assert_eq!(got.len(), want.len(), "pin table shape changed:\n{listing}");
    let mut bad = Vec::new();
    for ((name, d), (wname, wd)) in got.iter().zip(want) {
        assert_eq!(name, wname, "pin table order changed:\n{listing}");
        if d != wd {
            bad.push(name.clone());
        }
    }
    assert!(
        bad.is_empty(),
        "report bits moved in {bad:?}; now:\n{listing}"
    );
}

#[test]
fn run_with_faults_reports_are_pinned() {
    assert_pins(&faulty_digests(), FAULTY_PINS);
}

#[test]
fn run_online_reports_are_pinned() {
    assert_pins(&online_digests(), ONLINE_PINS);
}

const FAULTY_PINS: &[(&str, u64)] = &[
    ("faults/none/Absorb/free", 0x29646e0da34f206e),
    ("faults/none/Absorb/typical", 0x29646e0da34f206e),
    ("faults/none/Boost/free", 0x29646e0da34f206e),
    ("faults/none/Boost/typical", 0x29646e0da34f206e),
    ("faults/mild/Absorb/free", 0x4054d6dcce35ab5d),
    ("faults/mild/Absorb/typical", 0x4054d6dcce35ab5d),
    ("faults/mild/Boost/free", 0x95663c3ff45b88d0),
    ("faults/mild/Boost/typical", 0x50b560033dd6374b),
    ("faults/moderate/Absorb/free", 0x9132fc7a01e39cc4),
    ("faults/moderate/Absorb/typical", 0x9132fc7a01e39cc4),
    ("faults/moderate/Boost/free", 0x5dbed794dc34d3b5),
    ("faults/moderate/Boost/typical", 0x534d2dc493c9fa31),
    ("faults/severe/Absorb/free", 0x0f5d1366f26f5a48),
    ("faults/severe/Absorb/typical", 0x0f5d1366f26f5a48),
    ("faults/severe/Boost/free", 0xd78d1cc1576e95b8),
    ("faults/severe/Boost/typical", 0x42cc3b8591fdbdd9),
];

const ONLINE_PINS: &[(&str, u64)] = &[
    ("online/static_plan/clean", 0xc2d4266fb910f607),
    ("online/static_plan/mild", 0xad95f016ab2f89d6),
    ("online/static_plan/severe", 0x16ae25af1c6f0b43),
    ("online/static_plan/overload", 0xd6dcce5ed278f833),
    (
        "online/static_plan+absorb+typical/clean",
        0xc2d4266fb910f607,
    ),
    ("online/static_plan+absorb+typical/mild", 0xa32535c971292bc1),
    (
        "online/static_plan+absorb+typical/severe",
        0x83a86e0677151e87,
    ),
    (
        "online/static_plan+absorb+typical/overload",
        0xd6dcce5ed278f833,
    ),
    ("online/static_plan+typical/clean", 0xc2d4266fb910f607),
    ("online/static_plan+typical/mild", 0x2c474b90128a97a6),
    ("online/static_plan+typical/severe", 0x44a68c28007c5f55),
    ("online/static_plan+typical/overload", 0xd6dcce5ed278f833),
    ("online/reclaiming/clean", 0x6eb33d5816629121),
    ("online/reclaiming/mild", 0xa1399c3aa88304a1),
    ("online/reclaiming/severe", 0x0585de9b8ad1ee93),
    ("online/reclaiming/overload", 0x5903543cce1c6fee),
    ("online/reclaiming+absorb+typical/clean", 0x13af6c4be583d326),
    ("online/reclaiming+absorb+typical/mild", 0x998a579483228c47),
    (
        "online/reclaiming+absorb+typical/severe",
        0xf3173a845b8a8d26,
    ),
    (
        "online/reclaiming+absorb+typical/overload",
        0x3878369103466510,
    ),
    ("online/reclaiming+typical/clean", 0x2d45eee36dcffce5),
    ("online/reclaiming+typical/mild", 0x4818999b9c5c7f6c),
    ("online/reclaiming+typical/severe", 0xb2ba3767444e039a),
    ("online/reclaiming+typical/overload", 0x36075fbb78ddbb1c),
];
