//! Robustness experiment: fault injection vs online recovery.
//!
//! Static schedules assume worst-case execution times on a fault-free
//! machine. This experiment executes LAMPS+PS solutions under seeded
//! fault plans — task overruns past WCET, processor fail-stops, DVS
//! regulator faults — and compares the two recovery policies of
//! `lamps-sim`: slack absorption only ([`RecoveryPolicy::Absorb`]) vs
//! the full escalation ladder with frequency boosting
//! ([`RecoveryPolicy::Boost`]). Per (intensity × policy) cell it reports
//! the deadline-miss rate, the mean energy overhead relative to the
//! fault-free run of the same plan, and the mean number of recovery
//! actions taken.

use super::ExperimentOutput;
use crate::csv::Csv;
use crate::parallel::par_map;
use crate::suite::Granularity;
use lamps_core::{solve, SchedulerConfig, Solution, Strategy};
use lamps_sim::{run_with_faults, DvsSwitchCost, FaultIntensity, FaultPlan, RecoveryPolicy};
use lamps_taskgraph::gen::layered::stg_group;
use lamps_taskgraph::TaskGraph;
use lamps_verify::check_run;
use std::fmt::Write as _;

/// One cell of the chaos sweep.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// Fault intensity preset name (`none`, `mild`, `moderate`, `severe`).
    pub intensity: String,
    /// Recovery policy the runs used.
    pub policy: RecoveryPolicy,
    /// Fraction of runs that missed the deadline.
    pub miss_rate: f64,
    /// Mean energy relative to the fault-free run of the same plan.
    pub energy_rel: f64,
    /// Mean recovery actions taken per run.
    pub mean_recoveries: f64,
    /// Runs aggregated into this cell.
    pub runs: usize,
    /// [`check_run`] violations across the cell's traces (must be 0).
    pub violations: usize,
}

/// The intensity presets swept, in escalating order. `none` is the
/// control row: both policies must match the fault-free baseline there.
fn presets() -> Vec<(&'static str, Option<FaultIntensity>)> {
    vec![
        ("none", None),
        ("mild", Some(FaultIntensity::mild())),
        ("moderate", Some(FaultIntensity::moderate())),
        ("severe", Some(FaultIntensity::severe())),
    ]
}

/// Run the sweep: `n_graphs` coarse-grain graphs solved with LAMPS+PS at
/// deadline 1.6×CPL, executed at full WCET so injected faults are the
/// only perturbation.
pub fn chaos_sweep(n_graphs: usize, seed: u64) -> Vec<ChaosCell> {
    let cfg = SchedulerConfig::paper();
    let switch = DvsSwitchCost::typical();
    let graphs: Vec<TaskGraph> = stg_group(100, n_graphs, seed)
        .into_iter()
        .map(|g| g.scale_weights(Granularity::Coarse.cycles_per_unit()))
        .collect();

    let solved: Vec<Option<(TaskGraph, Solution, f64)>> = par_map(&graphs, |g| {
        let d = 1.6 * g.critical_path_cycles() as f64 / cfg.max_frequency();
        let sol = solve(Strategy::LampsPs, g, d, &cfg).ok()?;
        Some((g.clone(), sol, d))
    });
    let solved: Vec<_> = solved.into_iter().flatten().collect();
    assert!(!solved.is_empty(), "no graph solved at 1.6 x CPL");

    // Every report goes through the independent validator. The first
    // cell (`none`, Absorb) runs each plan fault-free: its energies are
    // the baselines.
    let mut runs = Vec::new();
    for (name, intensity) in presets() {
        for policy in [RecoveryPolicy::Absorb, RecoveryPolicy::Boost] {
            let mut violations = 0usize;
            let mut outcomes = Vec::with_capacity(solved.len());
            for (i, (g, sol, d)) in solved.iter().enumerate() {
                let plan = match &intensity {
                    None => FaultPlan::none(),
                    Some(fi) => {
                        FaultPlan::random(g, sol.schedule.n_procs(), *d, fi, seed ^ (i as u64) << 4)
                    }
                };
                let report = run_with_faults(g, sol, g.weights(), &plan, *d, policy, &cfg, &switch)
                    .expect("faulty run must always produce a report");
                violations +=
                    check_run(g, sol, g.weights(), &plan, &report, *d, &cfg, &switch).len();
                outcomes.push((
                    report.energy.total(),
                    report.outcome.met(),
                    report.recoveries.len(),
                ));
            }
            runs.push((name, policy, outcomes, violations));
        }
    }
    let baselines: Vec<f64> = runs[0]
        .2
        .iter()
        .map(|&(e, met, _)| {
            assert!(met, "fault-free run missed its deadline");
            e
        })
        .collect();

    let n = solved.len() as f64;
    runs.into_iter()
        .map(|(name, policy, outcomes, violations)| ChaosCell {
            intensity: name.to_string(),
            policy,
            miss_rate: outcomes.iter().filter(|o| !o.1).count() as f64 / n,
            energy_rel: outcomes
                .iter()
                .zip(&baselines)
                .map(|(o, b)| o.0 / b)
                .sum::<f64>()
                / n,
            mean_recoveries: outcomes.iter().map(|o| o.2).sum::<usize>() as f64 / n,
            runs: solved.len(),
            violations,
        })
        .collect()
}

/// Regenerate the robustness exhibit.
pub fn chaos(n_graphs: usize, seed: u64) -> ExperimentOutput {
    chaos_report(&chaos_sweep(n_graphs, seed))
}

/// Render a sweep: the report table (closing with the validator's
/// violation count) and `chaos.csv`.
pub fn chaos_report(cells: &[ChaosCell]) -> ExperimentOutput {
    let mut csv = Csv::new(&[
        "intensity",
        "policy",
        "miss_rate",
        "energy_rel",
        "mean_recoveries",
        "runs",
    ]);
    let mut report = String::new();
    writeln!(
        report,
        "== Robustness: fault injection vs online recovery (LAMPS+PS plans, deadline 1.6 x CPL, coarse) =="
    )
    .unwrap();
    writeln!(
        report,
        "{:>10} {:>8} {:>10} {:>12} {:>12}",
        "intensity", "policy", "miss rate", "energy", "recoveries"
    )
    .unwrap();
    for c in cells {
        let policy = match c.policy {
            RecoveryPolicy::Absorb => "absorb",
            RecoveryPolicy::Boost => "boost",
        };
        writeln!(
            report,
            "{:>10} {:>8} {:>9.0}% {:>11.1}% {:>12.2}",
            c.intensity,
            policy,
            c.miss_rate * 100.0,
            c.energy_rel * 100.0,
            c.mean_recoveries
        )
        .unwrap();
        csv.row(&[
            c.intensity.clone(),
            policy.to_string(),
            format!("{:.4}", c.miss_rate),
            format!("{:.4}", c.energy_rel),
            format!("{:.3}", c.mean_recoveries),
            format!("{}", c.runs),
        ]);
    }
    writeln!(
        report,
        "(energy relative to the fault-free run of the same static plan; faults are seeded\n task overruns, processor fail-stops and DVS regulator faults; `boost` may spend\n extra energy raising frequency to defend the deadline where `absorb` rides slack)"
    )
    .unwrap();
    writeln!(
        report,
        "validator violations {}",
        cells.iter().map(|c| c.violations).sum::<usize>()
    )
    .unwrap();

    ExperimentOutput {
        report,
        csvs: vec![("chaos.csv".into(), csv)],
        svgs: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shape_and_control_row() {
        let cells = chaos_sweep(3, 11);
        assert_eq!(cells.len(), 8); // 4 intensities x 2 policies
        for c in &cells {
            assert!(c.runs > 0);
            assert!((0.0..=1.0).contains(&c.miss_rate), "{c:?}");
            assert!(c.energy_rel.is_finite() && c.energy_rel > 0.0, "{c:?}");
        }
        // The fault-free control row matches the baseline for both
        // policies: no misses, unit relative energy, no recoveries.
        for c in cells.iter().filter(|c| c.intensity == "none") {
            assert_eq!(c.miss_rate, 0.0, "{c:?}");
            assert!((c.energy_rel - 1.0).abs() < 1e-9, "{c:?}");
            assert_eq!(c.mean_recoveries, 0.0, "{c:?}");
        }
    }

    #[test]
    fn boost_never_misses_more_than_absorb() {
        let cells = chaos_sweep(4, 23);
        for pair in cells.chunks(2) {
            let (absorb, boost) = (&pair[0], &pair[1]);
            assert_eq!(absorb.intensity, boost.intensity);
            assert!(matches!(absorb.policy, RecoveryPolicy::Absorb));
            assert!(matches!(boost.policy, RecoveryPolicy::Boost));
            // The escalation ladder only adds defenses on top of slack
            // absorption, so it can only reduce the miss rate.
            assert!(
                boost.miss_rate <= absorb.miss_rate + 1e-12,
                "{absorb:?} vs {boost:?}"
            );
        }
    }

    #[test]
    fn faulty_traces_stay_validator_clean() {
        // The sweep validates every trace it runs.
        for c in chaos_sweep(2, 37) {
            assert_eq!(c.violations, 0, "{c:?}");
        }
    }
}
