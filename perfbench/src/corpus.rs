//! Seeded input generation for every workload.
//!
//! Task graphs come from the repository's layered generator with
//! `stg_group`'s shape distribution, drawn stratified (see
//! [`stratified_group`]): the Fig. 10 corpus has
//! `lamps_bench::Suite::paper`'s size groups and application proxies,
//! and the campaign and serve mixes have `loadgen`'s 10/20/40-task
//! sizes. Online stream sets are generated here (no public generator
//! exists for them).

use lamps_bench::suite::GROUP_SIZES;
use lamps_core::multi::{solve_with_deadlines, DeadlineVector};
use lamps_core::{SchedulerConfig, Strategy};
use lamps_kpn::{PeriodicDag, PeriodicSet};
use lamps_sim::{FaultIntensity, OnlineStream};
use lamps_taskgraph::apps::proxies;
use lamps_taskgraph::gen::layered::{self, LayeredConfig};
use lamps_taskgraph::rng::{splitmix64, Rng};
use lamps_taskgraph::{TaskGraph, COARSE_GRAIN_CYCLES_PER_UNIT};

/// The paper's deadline factors (Figs. 10–11): deadline = factor × CPL.
pub use lamps_bench::suite::DEADLINE_FACTORS as FACTORS;

/// Solves per graph: 4 deadline factors × 4 strategies.
pub const CELLS: usize = 16;

/// Graphs per Fig. 10 size group. The per-graph latency median falls
/// where the sorted latencies are sparse (about 5% apart per graph),
/// so it needs many graphs to hold still across seeds (README.md).
pub const FIG10_PER_SIZE: usize = 32;

/// Graph sizes of the campaign and serve request mixes.
pub const SMALL_SIZES: [usize; 3] = [10, 20, 40];

/// Low-discrepancy fraction for the `i`-th of a stratified sequence
/// (golden-ratio sequence), decorrelated from `i / count`.
fn spread(i: usize) -> f64 {
    (i as f64 * 0.618_033_988_749_894_9 + 0.5).fract()
}

/// Deadline of `factor` × the graph's critical path at f_max \[s\].
pub fn deadline_s(graph: &TaskGraph, factor: f64, cfg: &SchedulerConfig) -> f64 {
    factor * graph.critical_path_cycles() as f64 / cfg.max_frequency()
}

/// The 16 cells of one graph, deadline-major (the order
/// [`lamps_core::solve_batch`] returns them in).
pub fn cells() -> impl Iterator<Item = (f64, Strategy)> {
    FACTORS
        .into_iter()
        .flat_map(|f| Strategy::all().into_iter().map(move |s| (f, s)))
}

/// The Fig. 10 coarse-grain corpus: [`FIG10_PER_SIZE`] graphs of each
/// of the paper's size groups plus the fpppp, robot and sparse
/// application proxies, in `Suite::paper`'s order.
pub fn fig10(seed: u64) -> Vec<TaskGraph> {
    GROUP_SIZES
        .iter()
        .enumerate()
        .flat_map(|(i, &n)| stratified_group(n, FIG10_PER_SIZE, seed.wrapping_add(i as u64)))
        .chain(proxies::all().into_iter().map(|(_, g)| g))
        .map(|g| g.scale_weights(COARSE_GRAIN_CYCLES_PER_UNIT))
        .collect()
}

/// `count` graphs of `n_tasks` tasks with `stg_group`'s shape
/// distribution — log-uniform parallelism between 1 and
/// min(48, n/4), mean in-degree uniform in 1.2..3.0, skip probability
/// uniform in 0.05..0.3 — drawn as a seeded Kronecker (R3) sequence
/// instead of independently. Every seed then covers the distribution
/// evenly, which halves how far the seed moves the Fig. 10 per-graph
/// latency quantiles (README.md). Edges and weights come from
/// `layered::generate` and the seed, as in `stg_group`.
fn stratified_group(n_tasks: usize, count: usize, seed: u64) -> Vec<TaskGraph> {
    // 1/φ, 1/φ², 1/φ³ for the positive root φ of x⁴ = x + 1 (R3).
    const ALPHA: [f64; 3] = [
        0.819_172_513_396_164_4,
        0.671_043_606_703_789_6,
        0.549_700_477_901_970_3,
    ];
    let mut rng = Rng::seed_from_u64(seed ^ 0x5741_5345_4441);
    let offset: [f64; 3] = std::array::from_fn(|_| rng.gen_range(0.0..1.0));
    let p_max = (n_tasks as f64 / 4.0).clamp(1.5, 48.0);
    (0..count)
        .map(|i| {
            let [u, v, w] = std::array::from_fn(|k| (offset[k] + i as f64 * ALPHA[k]).fract());
            let p = (u * p_max.ln()).exp().max(1.0);
            let cfg = LayeredConfig {
                n_tasks,
                n_layers: ((n_tasks as f64 / p).round() as usize).clamp(2, n_tasks),
                mean_in_degree: 1.2 + 1.8 * v,
                skip_prob: 0.05 + 0.25 * w,
                ..LayeredConfig::default()
            };
            layered::generate(&cfg, seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9))
        })
        .collect()
}

/// `per_size` graphs of each of 10, 20 and 40 tasks, coarse grain.
pub fn small(seed: u64, per_size: usize) -> Vec<TaskGraph> {
    SMALL_SIZES
        .iter()
        .enumerate()
        .flat_map(|(i, &n)| stratified_group(n, per_size, seed.wrapping_add(i as u64)))
        .map(|g| g.scale_weights(COARSE_GRAIN_CYCLES_PER_UNIT))
        .collect()
}

/// Harmonic period ladder in cycles: every pair divides.
const PERIOD_LADDER: [u64; 3] = [31_000_000, 62_000_000, 124_000_000];

/// One online stream set: a harmonic periodic set unrolled to its
/// hyperperiod DAG, its static plan's processor count, and the frame
/// stream it runs.
pub struct OnlineSet {
    /// The frame DAG.
    pub dag: PeriodicDag,
    /// Frames of the stream, sub-WCET, without faults.
    pub clean: OnlineStream,
    /// The same frames (same actual cycles) under the `mild` faults.
    pub faulty: OnlineStream,
    /// Whether this set runs its faulty stream in the timed phase.
    pub runs_faulty: bool,
}

/// Every `FAULTY_EVERY`-th set runs under the `mild` fault preset.
pub const FAULTY_EVERY: usize = 4;

/// `count` harmonic periodic sets with `frames` frames each, and how
/// many infeasible sets were skipped on the way. Task count,
/// utilization and periods are stratified; WCET shares, precedences,
/// actual cycles and faults come from the seed.
pub fn online(
    seed: u64,
    count: usize,
    frames: usize,
    cfg: &SchedulerConfig,
) -> (Vec<OnlineSet>, usize) {
    let mut state = seed ^ 0x0411_11E5;
    let mut sets = Vec::with_capacity(count);
    let mut i = 0usize;
    while sets.len() < count {
        let mut rng = Rng::seed_from_u64(splitmix64(&mut state));
        let k = i;
        i += 1;
        let n = 3 + k % 3;
        let target_util = 0.65 + 0.20 * spread(k);
        let mut set = PeriodicSet::new();
        for t in 0..n {
            // Periods cycle through the ladder, so every set spans the
            // same hyperperiod and the frame DAG's size depends on the
            // stratified task count, not on the seed.
            let period = PERIOD_LADDER[(k / 3 + t) % PERIOD_LADDER.len()];
            let share = target_util / n as f64 * (0.6 + 0.8 * rng.gen_range(0.0..1.0));
            let wcet = ((period as f64 * share) as u64).clamp(1, period);
            set.add(format!("t{t}"), wcet, period);
        }
        for a in 0..n {
            for b in (a + 1)..n {
                if rng.gen_bool(0.35) {
                    set.depends(a, b).expect("harmonic ladder");
                }
            }
        }
        let dag = set.to_frame_dag();
        let dv = DeadlineVector::from_kpn(dag.deadlines.clone(), dag.hyperperiod_cycles);
        // Sets the static plan cannot meet are skipped (the runtime
        // would reject them); the stratification index moves on.
        let Ok(sol) = solve_with_deadlines(Strategy::LampsPs, &dag.graph, &dv, cfg) else {
            continue;
        };
        let stream_seed = splitmix64(&mut state);
        let mk = |faults: Option<&FaultIntensity>| {
            OnlineStream::synthesize(
                &dag,
                sol.n_procs,
                frames,
                1.0,
                0.55,
                0.95,
                faults,
                cfg.max_frequency(),
                stream_seed,
            )
        };
        let clean = mk(None);
        let faulty = mk(Some(&FaultIntensity::mild()));
        sets.push(OnlineSet {
            runs_faulty: sets.len() % FAULTY_EVERY == FAULTY_EVERY - 1,
            dag,
            clean,
            faulty,
        });
    }
    (sets, i - count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpora_are_deterministic_per_seed() {
        assert_eq!(small(7, 2), small(7, 2));
        assert_ne!(small(7, 2), small(8, 2));
        assert_eq!(small(7, 2).len(), 2 * SMALL_SIZES.len());
    }
}
