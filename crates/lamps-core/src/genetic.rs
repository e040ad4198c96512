//! An integrated genetic comparator, after CASPER (Kianzad,
//! Bhattacharyya & Qu — the paper's reference \[18\]).
//!
//! The paper's §6 singles out "the integrated approach described in
//! \[18\]" as a candidate for squeezing out the residual that LAMPS+PS
//! leaves against the LIMIT bounds. This module implements that style of
//! search: a genetic algorithm evolving *list-scheduling priorities and
//! the processor count together*, with the frequency chosen per candidate
//! by the same PS-aware level sweep the heuristics use. The population is
//! seeded with the LAMPS+PS solution, so the result can only match or
//! improve on it — making the measured improvement a direct estimate of
//! what integration buys over the paper's decoupled heuristic.

use crate::cache::ScheduleCache;
use crate::config::SchedulerConfig;
use crate::solve::{best_level_for, solve};
use crate::types::{SolveError, Strategy};
use lamps_power::OperatingPoint;
use lamps_sched::list::list_schedule;
use lamps_sched::Schedule;
use lamps_taskgraph::rng::Rng;
use lamps_taskgraph::TaskGraph;

/// GA hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct GaConfig {
    /// Population size.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Tournament size for selection.
    pub tournament: usize,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
    /// RNG seed (the whole run is deterministic).
    pub seed: u64,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            population: 24,
            generations: 40,
            tournament: 3,
            mutation_rate: 0.05,
            seed: 0xCA5B,
        }
    }
}

/// Result of the genetic search.
#[derive(Debug, Clone)]
pub struct GaResult {
    /// Best energy found \[J\].
    pub energy_j: f64,
    /// Its processor count.
    pub n_procs: usize,
    /// Its operating level.
    pub level: OperatingPoint,
    /// Its schedule.
    pub schedule: Schedule,
    /// Energy of the LAMPS+PS seed \[J\].
    pub seed_energy_j: f64,
    /// Relative improvement over the seed (0 = none).
    pub improvement: f64,
}

#[derive(Clone)]
struct Individual {
    keys: Vec<u64>,
    n_procs: usize,
}

/// Run the integrated GA. Errors only if the deadline is infeasible for
/// the seeding heuristic.
/// # Example
///
/// ```
/// use lamps_core::genetic::{genetic_solve, GaConfig};
/// use lamps_core::SchedulerConfig;
/// use lamps_taskgraph::gen::layered::{generate, LayeredConfig};
///
/// let g = generate(&LayeredConfig { n_tasks: 12, n_layers: 4,
///     ..LayeredConfig::default() }, 1).scale_weights(3_100_000);
/// let cfg = SchedulerConfig::paper();
/// let d = 2.0 * g.critical_path_cycles() as f64 / cfg.max_frequency();
/// let ga = GaConfig { population: 6, generations: 3, ..GaConfig::default() };
/// let r = genetic_solve(&g, d, &cfg, &ga).unwrap();
/// // Seeded with LAMPS+PS, so never worse than it.
/// assert!(r.energy_j <= r.seed_energy_j * (1.0 + 1e-9));
/// ```
pub fn genetic_solve(
    graph: &TaskGraph,
    deadline_s: f64,
    cfg: &SchedulerConfig,
    ga: &GaConfig,
) -> Result<GaResult, SolveError> {
    assert!(ga.population >= 2 && ga.generations >= 1 && ga.tournament >= 1);
    let seed_sol = solve(Strategy::LampsPs, graph, deadline_s, cfg)?;
    let seed_energy = seed_sol.energy.total();
    let deadline_cycles = cfg.deadline_cycles(deadline_s);

    let mut rng = Rng::seed_from_u64(ga.seed);
    let n = graph.len();
    // Max useful processors bounds the count gene.
    let mut cache = ScheduleCache::new(graph, deadline_cycles);
    let n_max = cache.max_useful_procs().max(seed_sol.n_procs);
    let n_min = cache
        .min_procs_lower_bound(deadline_cycles)
        .unwrap_or(1)
        .min(n_max);

    let edf_keys = lamps_sched::deadlines::latest_finish_times(graph, deadline_cycles);
    let fitness = |ind: &Individual| -> Option<(f64, usize, OperatingPoint)> {
        let schedule = list_schedule(graph, ind.n_procs, &ind.keys);
        let summary = lamps_sched::IdleSummary::new(&schedule);
        let cand = best_level_for(&summary, ind.n_procs, deadline_s, cfg, true, None, None)?;
        Some((cand.energy.total(), cand.n_procs, cand.level))
    };

    // Population: the heuristic seed plus randomized variants.
    let mut population: Vec<Individual> = Vec::with_capacity(ga.population);
    population.push(Individual {
        keys: edf_keys.clone(),
        n_procs: seed_sol.n_procs,
    });
    while population.len() < ga.population {
        let keys = edf_keys
            .iter()
            .map(|&k| k.saturating_add(rng.gen_range(0..=deadline_cycles / 4)))
            .collect();
        population.push(Individual {
            keys,
            n_procs: rng.gen_range(n_min..=n_max),
        });
    }

    let mut scores: Vec<f64> = population
        .iter()
        .map(|i| fitness(i).map_or(f64::INFINITY, |(e, _, _)| e))
        .collect();

    for _gen in 0..ga.generations {
        let mut next: Vec<Individual> = Vec::with_capacity(ga.population);
        // Elitism: carry the best forward.
        let best_idx = argmin(&scores);
        next.push(population[best_idx].clone());
        while next.len() < ga.population {
            let a = tournament(&mut rng, &scores, ga.tournament);
            let b = tournament(&mut rng, &scores, ga.tournament);
            let (pa, pb) = (&population[a], &population[b]);
            // Uniform crossover on keys; count from either parent.
            let mut keys = Vec::with_capacity(n);
            for i in 0..n {
                keys.push(if rng.gen_bool(0.5) {
                    pa.keys[i]
                } else {
                    pb.keys[i]
                });
            }
            let mut n_procs = if rng.gen_bool(0.5) {
                pa.n_procs
            } else {
                pb.n_procs
            };
            // Mutation: perturb keys; bump the count.
            for k in keys.iter_mut() {
                if rng.gen_bool(ga.mutation_rate) {
                    let delta = rng.gen_range(0..=deadline_cycles / 8 + 1);
                    *k = if rng.gen_bool(0.5) {
                        k.saturating_add(delta)
                    } else {
                        k.saturating_sub(delta)
                    };
                }
            }
            if rng.gen_bool(ga.mutation_rate * 4.0) {
                n_procs = (n_procs as i64 + if rng.gen_bool(0.5) { 1 } else { -1 })
                    .clamp(n_min as i64, n_max as i64) as usize;
            }
            next.push(Individual { keys, n_procs });
        }
        population = next;
        scores = population
            .iter()
            .map(|i| fitness(i).map_or(f64::INFINITY, |(e, _, _)| e))
            .collect();
    }

    let best_idx = argmin(&scores);
    let best = &population[best_idx];
    let (energy_j, n_procs, level) =
        fitness(best).expect("elitism keeps at least the feasible seed alive");
    let schedule = list_schedule(graph, best.n_procs, &best.keys);
    // The seed is in generation 0 and elitism is monotone.
    debug_assert!(energy_j <= seed_energy * (1.0 + 1e-9));
    Ok(GaResult {
        energy_j,
        n_procs,
        level,
        schedule,
        seed_energy_j: seed_energy,
        improvement: 1.0 - energy_j / seed_energy,
    })
}

fn argmin(scores: &[f64]) -> usize {
    scores
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .expect("non-empty population")
}

fn tournament(rng: &mut Rng, scores: &[f64], k: usize) -> usize {
    let mut best = rng.gen_range(0..scores.len());
    for _ in 1..k {
        let c = rng.gen_range(0..scores.len());
        if scores[c] < scores[best] {
            best = c;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limits::limit_sf;
    use lamps_taskgraph::gen::layered::{generate, LayeredConfig};

    fn cfg() -> SchedulerConfig {
        SchedulerConfig::paper()
    }

    fn graph(seed: u64) -> TaskGraph {
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

    fn tiny_ga() -> GaConfig {
        GaConfig {
            population: 10,
            generations: 8,
            ..GaConfig::default()
        }
    }

    #[test]
    fn never_worse_than_lamps_ps() {
        for seed in 0..3 {
            let g = graph(seed);
            let d = 2.0 * g.critical_path_cycles() as f64 / cfg().max_frequency();
            let r = genetic_solve(&g, d, &cfg(), &tiny_ga()).unwrap();
            assert!(r.energy_j <= r.seed_energy_j * (1.0 + 1e-9));
            assert!(r.improvement >= -1e-9);
            r.schedule.validate(&g).unwrap();
        }
    }

    #[test]
    fn stays_above_limit_sf() {
        let g = graph(5);
        let d = 2.0 * g.critical_path_cycles() as f64 / cfg().max_frequency();
        let r = genetic_solve(&g, d, &cfg(), &tiny_ga()).unwrap();
        let sf = limit_sf(&g, d, &cfg()).unwrap();
        assert!(r.energy_j >= sf.energy_j * (1.0 - 1e-9));
    }

    #[test]
    fn deterministic_per_seed() {
        let g = graph(7);
        let d = 1.5 * g.critical_path_cycles() as f64 / cfg().max_frequency();
        let a = genetic_solve(&g, d, &cfg(), &tiny_ga()).unwrap();
        let b = genetic_solve(&g, d, &cfg(), &tiny_ga()).unwrap();
        assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
        assert_eq!(a.n_procs, b.n_procs);
    }

    #[test]
    fn infeasible_deadline_propagates() {
        let g = graph(9);
        let d = 0.5 * g.critical_path_cycles() as f64 / cfg().max_frequency();
        assert!(matches!(
            genetic_solve(&g, d, &cfg(), &tiny_ga()),
            Err(SolveError::Infeasible { .. })
        ));
    }

    #[test]
    fn solution_meets_deadline() {
        let g = graph(11);
        let d = 2.0 * g.critical_path_cycles() as f64 / cfg().max_frequency();
        let r = genetic_solve(&g, d, &cfg(), &tiny_ga()).unwrap();
        let makespan_s = r.schedule.makespan_cycles() as f64 / r.level.freq;
        assert!(makespan_s <= d * (1.0 + 1e-9));
    }
}
