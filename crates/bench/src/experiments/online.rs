//! Online-runtime experiment: slack reclamation vs the static plan, and
//! graceful degradation under fault presets.
//!
//! Two questions, one sweep each:
//!
//! * **Reclamation** — on under-WCET workloads (jobs finish early),
//!   how much energy does the online runtime claw back by re-stretching
//!   or incrementally re-solving the remaining suffix, and what does
//!   each re-solve cost relative to a from-scratch suffix solve of the
//!   whole frame? Both arms run the same streams with the same DVS
//!   switch-cost model, so re-solve switching overhead is charged
//!   honestly against the savings.
//! * **Degradation** — under escalating fault presets (`none` → `mild`
//!   → `moderate` → `severe`) plus an overload row (frames arriving at
//!   half the hyperperiod with a tiny backlog), what are the miss, shed
//!   and degraded-frame rates? Every run executes under `catch_unwind`
//!   (the runtime must never panic) and every trace goes through the
//!   independent [`lamps_verify::check_online`] validator.
//!
//! The `online` binary wraps this into `BENCH_online.json`
//! (schema `lamps-online-bench-v1`), which the `gate` binary checks in
//! CI: energy reclaimed must be positive, re-solves must be cheaper
//! than from-scratch solves, the fault-free preset must never miss, and
//! panic/violation counts must be zero.

use super::ExperimentOutput;
use crate::csv::Csv;
use lamps_core::multi::{solve_with_deadlines, DeadlineVector};
use lamps_core::suffix::{SuffixContext, SuffixSolver};
use lamps_core::{SchedulerConfig, Solution, Strategy};
use lamps_kpn::{PeriodicDag, PeriodicSet};
use lamps_sim::{
    run_online, DvsSwitchCost, FaultIntensity, OnlineConfig, OnlineReport, OnlineStream,
};
use lamps_taskgraph::rng::{splitmix64, Rng};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Harmonic period ladder in cycles: every pair divides, so any forward
/// dependency is legal and the hyperperiod is the top rung.
const PERIOD_LADDER: [u64; 3] = [31_000_000, 62_000_000, 124_000_000];

/// One workload: a harmonic periodic set unrolled to its hyperperiod
/// DAG, plus the offline plan the online runtime will start from.
struct Workload {
    dag: PeriodicDag,
    sol: Solution,
}

/// Generate a feasible harmonic periodic set: 3–5 tasks on the power-
/// of-two ladder, total utilization ~0.65–0.85 (enough load that the
/// plan sits above the critical level, leaving reclamation headroom),
/// forward dependencies between period-compatible pairs.
fn gen_workload(seed: u64, cfg: &SchedulerConfig) -> Option<Workload> {
    let mut rng = Rng::seed_from_u64(seed);
    let n = rng.gen_range(3..6usize);
    let target_util = 0.65 + 0.20 * rng.gen_range(0.0..1.0);
    let mut set = PeriodicSet::new();
    let mut periods = Vec::with_capacity(n);
    for i in 0..n {
        let period = PERIOD_LADDER[rng.gen_range(0..PERIOD_LADDER.len())];
        // Each task carries an even share of the utilization target,
        // jittered ±40%.
        let share = target_util / n as f64 * (0.6 + 0.8 * rng.gen_range(0.0..1.0));
        let wcet = ((period as f64 * share) as u64).clamp(1, period);
        set.add(format!("t{i}"), wcet, period);
        periods.push(period);
    }
    for a in 0..n {
        for b in (a + 1)..n {
            if rng.gen_bool(0.35) {
                // All ladder rungs are harmonic; `depends` cannot fail.
                set.depends(a, b).expect("harmonic ladder");
            }
        }
    }
    let dag = set.to_frame_dag();
    let dv = DeadlineVector::from_kpn(dag.deadlines.clone(), dag.hyperperiod_cycles);
    let sol = solve_with_deadlines(Strategy::LampsPs, &dag.graph, &dv, cfg).ok()?;
    Some(Workload { dag, sol })
}

/// The reclamation half of the sweep, aggregated over all workloads.
#[derive(Debug, Clone, Default)]
pub struct ReclaimSummary {
    /// Total energy of the static-plan arm \[J\].
    pub baseline_j: f64,
    /// Total energy of the reclaiming arm \[J\].
    pub reclaim_j: f64,
    /// Suffix re-solves performed by the reclaiming arm.
    pub resolves: u64,
    /// Candidate evaluations those re-solves spent, total.
    pub resolve_steps: u64,
    /// Candidate evaluations a from-scratch suffix solve of one whole
    /// frame costs, summed over workloads (the amortization yardstick).
    pub full_solve_steps: u64,
    /// Workloads aggregated.
    pub workloads: usize,
}

impl ReclaimSummary {
    /// Energy clawed back by reclamation \[J\].
    pub fn reclaimed_j(&self) -> f64 {
        self.baseline_j - self.reclaim_j
    }

    /// Reclaimed energy as a fraction of the static baseline.
    pub fn reclaimed_frac(&self) -> f64 {
        if self.baseline_j > 0.0 {
            self.reclaimed_j() / self.baseline_j
        } else {
            0.0
        }
    }

    /// Mean candidate evaluations per re-solve.
    pub fn avg_resolve_steps(&self) -> f64 {
        if self.resolves > 0 {
            self.resolve_steps as f64 / self.resolves as f64
        } else {
            0.0
        }
    }

    /// Mean from-scratch suffix-solve cost per workload.
    pub fn avg_full_solve_steps(&self) -> f64 {
        if self.workloads > 0 {
            self.full_solve_steps as f64 / self.workloads as f64
        } else {
            0.0
        }
    }
}

/// One degradation row: a fault preset (or the overload configuration)
/// aggregated over all workloads.
#[derive(Debug, Clone)]
pub struct DegradationRow {
    /// Row name: `none`, `mild`, `moderate`, `severe`, or `overload`.
    pub name: String,
    /// Executed frames that missed a deadline, over executed frames.
    pub miss_rate: f64,
    /// Shed frames over all arrived frames.
    pub shed_rate: f64,
    /// Frames whose re-solve budget expired mid-recovery.
    pub degraded_frames: usize,
    /// Suffix re-solves across the row.
    pub resolves: u64,
    /// Frames aggregated (arrived, including shed).
    pub frames: usize,
}

/// Everything the sweep measures; the binary serializes this.
#[derive(Debug, Clone)]
pub struct OnlineBenchResult {
    /// Reclamation aggregate.
    pub reclaim: ReclaimSummary,
    /// Degradation rows in escalating order, overload last.
    pub rows: Vec<DegradationRow>,
    /// Runs that panicked (must be 0).
    pub panics: usize,
    /// `check_online` violations across every trace (must be 0).
    pub violations: usize,
    /// Workloads the sweep ran.
    pub workloads: usize,
    /// Frames per stream.
    pub frames: usize,
}

/// Cost of a from-scratch suffix solve of one whole frame (nothing
/// finished, nothing running) — what the online runtime would pay
/// without the incremental solver's pruning and key reuse.
fn full_frame_solve_steps(w: &Workload, cfg: &SchedulerConfig) -> u64 {
    let n = w.dag.graph.len();
    let f_max = cfg.max_frequency();
    let due_s: Vec<f64> = w
        .dag
        .deadlines
        .iter()
        .map(|d| d.unwrap_or(w.dag.hyperperiod_cycles) as f64 / f_max)
        .collect();
    let ctx = SuffixContext {
        finished: &vec![false; n],
        finish_s: &vec![0.0; n],
        running: &vec![None; w.sol.n_procs],
        dead: &vec![false; w.sol.n_procs],
        now_s: 0.0,
        deadline_s: w.dag.hyperperiod_cycles as f64 / f_max,
        own_due_s: Some(&due_s),
    };
    let candidates: Vec<_> = cfg.levels.points().to_vec();
    SuffixSolver::new()
        .resolve(&w.dag.graph, &ctx, &candidates, None)
        .map_or(0, |sp| sp.steps)
}

/// Run one stream under `catch_unwind`, validate the trace, and fold
/// the outcome into the panic/violation counters. `None` = panicked.
fn run_checked(
    w: &Workload,
    stream: &OnlineStream,
    ocfg: &OnlineConfig,
    cfg: &SchedulerConfig,
    panics: &mut usize,
    violations: &mut usize,
) -> Option<OnlineReport> {
    let outcome = catch_unwind(AssertUnwindSafe(|| run_online(&w.dag, stream, ocfg, cfg)));
    match outcome {
        Err(_) => {
            *panics += 1;
            None
        }
        Ok(Err(_)) => {
            // A structured rejection of a well-formed stream counts as
            // a violation: these streams are valid by construction.
            *violations += 1;
            None
        }
        Ok(Ok(report)) => {
            let v = lamps_verify::check_online(&w.dag, stream, ocfg, cfg, &report);
            *violations += v.len();
            Some(report)
        }
    }
}

/// The full sweep: `n_sets` workloads, `frames` frames per stream.
pub fn online_sweep(n_sets: usize, frames: usize, seed: u64) -> OnlineBenchResult {
    let cfg = SchedulerConfig::paper();
    let mut workloads = Vec::new();
    let mut sm = seed;
    while workloads.len() < n_sets {
        if let Some(w) = gen_workload(splitmix64(&mut sm), &cfg) {
            workloads.push(w);
        }
    }

    let mut panics = 0usize;
    let mut violations = 0usize;
    let switch = DvsSwitchCost::typical();
    let reclaiming = OnlineConfig {
        switch,
        ..OnlineConfig::reclaiming()
    };
    let static_plan = OnlineConfig {
        switch,
        ..OnlineConfig::static_plan()
    };

    // Reclamation: fault-free under-WCET streams (jobs at 55–75% of
    // WCET), on-time arrivals, both arms on identical streams.
    let mut reclaim = ReclaimSummary::default();
    for (i, w) in workloads.iter().enumerate() {
        let stream = OnlineStream::synthesize(
            &w.dag,
            w.sol.n_procs,
            frames,
            1.0,
            0.55,
            0.75,
            None,
            cfg.max_frequency(),
            seed ^ (i as u64) << 8,
        );
        let base = run_checked(w, &stream, &static_plan, &cfg, &mut panics, &mut violations);
        let rec = run_checked(w, &stream, &reclaiming, &cfg, &mut panics, &mut violations);
        if let (Some(base), Some(rec)) = (base, rec) {
            reclaim.baseline_j += base.total_energy();
            reclaim.reclaim_j += rec.total_energy();
            reclaim.resolves += rec.resolves;
            reclaim.resolve_steps += rec.resolve_steps;
            reclaim.full_solve_steps += full_frame_solve_steps(w, &cfg);
            reclaim.workloads += 1;
        }
    }

    // Degradation: fault presets at WCET-heavy actuals, then the
    // overload row (arrivals at a third of the hyperperiod, backlog
    // of 1, near-WCET actuals so the platform genuinely saturates).
    let presets: [(&str, Option<FaultIntensity>); 4] = [
        ("none", None),
        ("mild", Some(FaultIntensity::mild())),
        ("moderate", Some(FaultIntensity::moderate())),
        ("severe", Some(FaultIntensity::severe())),
    ];
    let mut rows = Vec::new();
    for (name, intensity) in &presets {
        let mut misses = 0usize;
        let mut executed = 0usize;
        let mut shed = 0usize;
        let mut arrived = 0usize;
        let mut degraded = 0usize;
        let mut resolves = 0u64;
        for (i, w) in workloads.iter().enumerate() {
            let stream = OnlineStream::synthesize(
                &w.dag,
                w.sol.n_procs,
                frames,
                1.0,
                0.6,
                1.0,
                intensity.as_ref(),
                cfg.max_frequency(),
                seed ^ (i as u64) << 8 ^ 0xFA17,
            );
            if let Some(r) =
                run_checked(w, &stream, &reclaiming, &cfg, &mut panics, &mut violations)
            {
                misses += r.frame_misses;
                executed += r.frames.len() - r.shed;
                shed += r.shed;
                arrived += r.frames.len();
                degraded += r.degraded_frames;
                resolves += r.resolves;
            }
        }
        rows.push(DegradationRow {
            name: (*name).to_string(),
            miss_rate: if executed > 0 {
                misses as f64 / executed as f64
            } else {
                0.0
            },
            shed_rate: if arrived > 0 {
                shed as f64 / arrived as f64
            } else {
                0.0
            },
            degraded_frames: degraded,
            resolves,
            frames: arrived,
        });
    }
    {
        let overload = OnlineConfig {
            max_backlog: 1,
            ..reclaiming.clone()
        };
        let mut misses = 0usize;
        let mut executed = 0usize;
        let mut shed = 0usize;
        let mut arrived = 0usize;
        let mut degraded = 0usize;
        let mut resolves = 0u64;
        for (i, w) in workloads.iter().enumerate() {
            let stream = OnlineStream::synthesize(
                &w.dag,
                w.sol.n_procs,
                frames,
                0.35,
                0.9,
                1.0,
                None,
                cfg.max_frequency(),
                seed ^ (i as u64) << 8 ^ 0x0EDD,
            );
            if let Some(r) = run_checked(w, &stream, &overload, &cfg, &mut panics, &mut violations)
            {
                misses += r.frame_misses;
                executed += r.frames.len() - r.shed;
                shed += r.shed;
                arrived += r.frames.len();
                degraded += r.degraded_frames;
                resolves += r.resolves;
            }
        }
        rows.push(DegradationRow {
            name: "overload".to_string(),
            miss_rate: if executed > 0 {
                misses as f64 / executed as f64
            } else {
                0.0
            },
            shed_rate: if arrived > 0 {
                shed as f64 / arrived as f64
            } else {
                0.0
            },
            degraded_frames: degraded,
            resolves,
            frames: arrived,
        });
    }

    OnlineBenchResult {
        reclaim,
        rows,
        panics,
        violations,
        workloads: workloads.len(),
        frames,
    }
}

/// Regenerate the online-runtime exhibit.
pub fn online(n_sets: usize, frames: usize, seed: u64) -> (OnlineBenchResult, ExperimentOutput) {
    let result = online_sweep(n_sets, frames, seed);

    let mut csv = Csv::new(&[
        "row",
        "miss_rate",
        "shed_rate",
        "degraded_frames",
        "resolves",
        "frames",
    ]);
    let mut report = String::new();
    writeln!(
        report,
        "== Online runtime: slack reclamation and graceful degradation ({} workloads x {} frames) ==",
        result.workloads, result.frames
    )
    .unwrap();
    let r = &result.reclaim;
    writeln!(
        report,
        "reclamation: baseline {:.6} J -> reclaiming {:.6} J ({:+.2}% over {} workloads)",
        r.baseline_j,
        r.reclaim_j,
        -100.0 * r.reclaimed_frac(),
        r.workloads
    )
    .unwrap();
    writeln!(
        report,
        "re-solve cost: {} re-solves at {:.1} steps each vs {:.1} steps for a from-scratch frame solve",
        r.resolves,
        r.avg_resolve_steps(),
        r.avg_full_solve_steps()
    )
    .unwrap();
    writeln!(
        report,
        "{:>10} {:>10} {:>10} {:>10} {:>10}",
        "row", "miss rate", "shed rate", "degraded", "resolves"
    )
    .unwrap();
    for row in &result.rows {
        writeln!(
            report,
            "{:>10} {:>9.0}% {:>9.0}% {:>10} {:>10}",
            row.name,
            row.miss_rate * 100.0,
            row.shed_rate * 100.0,
            row.degraded_frames,
            row.resolves
        )
        .unwrap();
        csv.row(&[
            row.name.clone(),
            format!("{:.4}", row.miss_rate),
            format!("{:.4}", row.shed_rate),
            format!("{}", row.degraded_frames),
            format!("{}", row.resolves),
            format!("{}", row.frames),
        ]);
    }
    writeln!(
        report,
        "panics {} | validator violations {} (both must be 0)",
        result.panics, result.violations
    )
    .unwrap();

    let output = ExperimentOutput {
        report,
        csvs: vec![("online.csv".into(), csv)],
        svgs: Vec::new(),
    };
    (result, output)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_clean_and_reclaims_energy() {
        let result = online_sweep(3, 4, 2006);
        assert_eq!(result.panics, 0);
        assert_eq!(result.violations, 0, "validator rejected a bench trace");
        assert_eq!(result.rows.len(), 5);
        let r = &result.reclaim;
        assert!(r.workloads > 0);
        assert!(
            r.reclaimed_j() > 0.0,
            "under-WCET workloads must reclaim energy: {r:?}"
        );
        // Incremental re-solves must be no costlier than from-scratch
        // frame solves, else the whole mechanism is pointless.
        if r.resolves > 0 {
            assert!(
                r.avg_resolve_steps() <= r.avg_full_solve_steps() + 1e-9,
                "{r:?}"
            );
        }
        // The fault-free preset never misses; overload sheds.
        let none = &result.rows[0];
        assert_eq!(none.name, "none");
        assert_eq!(none.miss_rate, 0.0, "{none:?}");
        let overload = result.rows.last().unwrap();
        assert_eq!(overload.name, "overload");
        assert!(overload.shed_rate > 0.0, "{overload:?}");
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = online_sweep(2, 3, 7);
        let b = online_sweep(2, 3, 7);
        assert_eq!(
            a.reclaim.baseline_j.to_bits(),
            b.reclaim.baseline_j.to_bits()
        );
        assert_eq!(a.reclaim.reclaim_j.to_bits(), b.reclaim.reclaim_j.to_bits());
        assert_eq!(a.reclaim.resolve_steps, b.reclaim.resolve_steps);
        for (ra, rb) in a.rows.iter().zip(&b.rows) {
            assert_eq!(ra.miss_rate.to_bits(), rb.miss_rate.to_bits());
            assert_eq!(ra.shed_rate.to_bits(), rb.shed_rate.to_bits());
        }
    }
}
