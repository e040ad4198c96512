//! The `online` workload: [`run_online`] with
//! [`OnlineConfig::reclaiming`] over synthesized harmonic periodic
//! streams, in a closed loop with one caller.
//!
//! Jobs run at 55–95% of their WCET, and every [`corpus::FAULTY_EVERY`]-th
//! stream runs under the `mild` fault preset. This is the only workload
//! that reaches admission, slack reclamation, suffix re-solve and the
//! fault ladder. A latency sample is one `run_online` call (one stream
//! of [`FRAMES`] frames); the throughput is frames per second.

use crate::corpus::{self, OnlineSet};
use crate::digest::Digest;
use crate::layers::publish_counters;
use crate::report::{Failures, Outcome, Setups, Timed};
use crate::stats::{median, micros, secs};
use crate::Opts;
use lamps_core::multi::{solve_with_deadlines, DeadlineVector};
use lamps_core::SchedulerConfig;
use lamps_sim::{run_online, OnlineConfig, OnlineReport, OnlineStream};
use std::time::Instant;

/// Stream sets per pass.
const SETS: usize = 256;

/// Frames per stream.
pub const FRAMES: usize = 25;

/// Digest words of one report: total energy, then every frame's energy.
fn report_words(r: &OnlineReport, d: &mut Digest) {
    d.push(r.energy.total().to_bits());
    for f in &r.frames {
        d.push(f.energy_j.to_bits());
    }
}

fn report_digest(r: &OnlineReport) -> u64 {
    let mut d = Digest::default();
    report_words(r, &mut d);
    d.value()
}

fn stream(set: &OnlineSet) -> &OnlineStream {
    if set.runs_faulty {
        &set.faulty
    } else {
        &set.clean
    }
}

/// Run one stream and check its report with the independent validator.
fn run_checked(
    set: &OnlineSet,
    stream: &OnlineStream,
    ocfg: &OnlineConfig,
    cfg: &SchedulerConfig,
    failures: &mut Failures,
) -> Option<OnlineReport> {
    match run_online(&set.dag, stream, ocfg, cfg) {
        Ok(report) => {
            let v = lamps_verify::check_online(&set.dag, stream, ocfg, cfg, &report);
            failures.add(v.len() as u64, || format!("check_online: {:?}", v[0]));
            Some(report)
        }
        Err(e) => {
            failures.add(1, || format!("run_online rejected a valid stream: {e}"));
            None
        }
    }
}

/// Generate the sets and warm up once; returns the sets, how many
/// infeasible ones were skipped, and the generation and whole set-up
/// times.
fn set_up(seed: u64, cfg: &SchedulerConfig) -> (Vec<OnlineSet>, usize, (f64, f64)) {
    let t = Instant::now();
    let (sets, skipped) = corpus::online(seed, SETS, FRAMES, cfg);
    let gen_s = secs(t);
    std::hint::black_box(
        run_online(
            &sets[0].dag,
            stream(&sets[0]),
            &OnlineConfig::reclaiming(),
            cfg,
        )
        .ok(),
    );
    (sets, skipped, (gen_s, secs(t)))
}

/// Closed loop over the sets for `seconds` of measured time, with
/// set-ups of `seed` paced into `setups` between passes (outside the
/// measured time); every report must hash to its reference.
fn measure(
    sets: &[OnlineSet],
    reference: &[u64],
    cfg: &SchedulerConfig,
    seconds: f64,
    seed: u64,
    setups: &mut Setups,
    failures: &mut Failures,
) -> (Timed, u64) {
    let ocfg = OnlineConfig::reclaiming();
    let mut runs = 0u64;
    let mut latencies = Vec::new();
    let mut work = 0.0f64;
    let mut measured = 0.0f64;
    loop {
        let t0 = Instant::now();
        for (i, set) in sets.iter().enumerate() {
            let t = Instant::now();
            let r = run_online(&set.dag, stream(set), &ocfg, cfg);
            latencies.push(micros(t));
            runs += 1;
            match r {
                Ok(r) if report_digest(&r) == reference[i] => work += r.frames.len() as f64,
                _ => failures.add(1, || format!("set {i}: report differs from the reference")),
            }
        }
        measured += secs(t0);
        // Whole passes only, so every run weighs the corpus alike.
        if measured >= seconds {
            break;
        }
        if setups.due(measured) {
            setups.push(set_up(seed, cfg).2);
        }
    }
    let timed = Timed {
        throughput_per_s: work / measured,
        latencies_us: latencies,
    };
    (timed, runs)
}

/// Run `online`.
pub fn run(opts: &Opts) -> Outcome {
    let cfg = SchedulerConfig::paper();
    let ocfg = OnlineConfig::reclaiming();
    let mut out = Outcome::default();
    let mut failures = Failures::default();

    let mut setups = Setups::paced(opts.untraced_seconds());
    let (sets, skipped, times) = set_up(opts.seed, &cfg);
    setups.push(times);

    // Reference pass: every stream once, every report validated.
    let mut digest = Digest::default();
    let mut reference = Vec::with_capacity(sets.len());
    let mut reports = Vec::with_capacity(sets.len());
    for set in &sets {
        let r = run_checked(set, stream(set), &ocfg, &cfg, &mut failures);
        reference.push(r.as_ref().map_or(0, report_digest));
        if let Some(r) = &r {
            report_words(r, &mut digest);
        }
        reports.push(r);
    }
    out.attempted += sets.len() as u64;
    crate::check_digest("online", opts.seed, digest.value(), &mut out, &mut failures);

    // The share of executed frames on the faulty streams that miss.
    let (mut missed, mut executed) = (0usize, 0usize);
    for (set, r) in sets.iter().zip(&reports) {
        if let (true, Some(r)) = (set.runs_faulty, r) {
            missed += r.frame_misses;
            executed += r.admitted + r.deferred;
        }
    }
    let miss_rate = missed as f64 / executed.max(1) as f64;

    let (timed, n) = measure(
        &sets,
        &reference,
        &cfg,
        opts.untraced_seconds(),
        opts.seed,
        &mut setups,
        &mut failures,
    );
    out.attempted += n;
    out.timed = timed;
    out.setup_s = setups.median();
    let fps = out.timed.throughput_per_s;
    out.say(format!(
        "streams: {} sets x {FRAMES} frames, {} under mild faults, {skipped} infeasible skipped, seed {}",
        sets.len(),
        sets.iter().filter(|s| s.runs_faulty).count(),
        opts.seed
    ));
    out.say(crate::metric_line("frames_per_s", fps, "1/s", None));
    out.say_latencies("stream_ms", 1e-3, "ms");
    out.say(format!(
        "metric miss_rate = {miss_rate:.6} ratio ({missed} of {executed} executed frames on faulty streams)"
    ));

    if opts.trace {
        lamps_obs::enable_metrics();
        lamps_obs::enable_flight();
        let mut traced_setups = Setups::paced(opts.traced_seconds());
        traced_setups.push(set_up(opts.seed, &cfg).2);
        let (traced, n) = measure(
            &sets,
            &reference,
            &cfg,
            opts.traced_seconds(),
            opts.seed,
            &mut traced_setups,
            &mut failures,
        );
        out.attempted += n;
        out.trace_overhead(&traced, traced_setups.median());
        out.layer(
            "obs.flight_dropped",
            lamps_obs::flight::snapshot().dropped as f64,
        );

        let before = lamps_obs::registry::snapshot();
        for set in &sets {
            std::hint::black_box(run_online(&set.dag, stream(set), &ocfg, &cfg).ok());
        }
        let after = lamps_obs::registry::snapshot();
        lamps_obs::disable_metrics();
        lamps_obs::disable_flight();
        publish_counters(&before, &after, &[], &mut out);
        traced_layers(&sets, &reports, &cfg, &mut out, &mut failures);
        out.layer("sim.miss_rate", miss_rate);
        out.layer("taskgraph.gen_s", median(&setups.gen_s));
    }
    out.failures = failures;
    out
}

/// Each set's clean stream three ways — static plan, reclaiming,
/// reclaiming under faults — plus a replay of the offline plan.
fn traced_layers(
    sets: &[OnlineSet],
    reports: &[Option<OnlineReport>],
    cfg: &SchedulerConfig,
    out: &mut Outcome,
    failures: &mut Failures,
) {
    let t = Instant::now();
    for set in sets {
        let dv = DeadlineVector::from_kpn(set.dag.deadlines.clone(), set.dag.hyperperiod_cycles);
        std::hint::black_box(
            solve_with_deadlines(lamps_core::Strategy::LampsPs, &set.dag.graph, &dv, cfg).ok(),
        );
    }
    out.layer("sim.plan_us", micros(t));

    let arms = [
        (OnlineConfig::static_plan(), false),
        (OnlineConfig::reclaiming(), false),
        (OnlineConfig::reclaiming(), true),
    ];
    let mut us = [0.0f64; 3];
    let mut energy = [0.0f64; 3];
    let mut frames = 0usize;
    for set in sets {
        frames += set.clean.frames.len();
        for (a, (ocfg, faulty)) in arms.iter().enumerate() {
            let s = if *faulty { &set.faulty } else { &set.clean };
            let t = Instant::now();
            let r = run_online(&set.dag, s, ocfg, cfg);
            us[a] += micros(t);
            match r {
                Ok(r) => {
                    energy[a] += r.total_energy();
                    let v = lamps_verify::check_online(&set.dag, s, ocfg, cfg, &r);
                    failures.add(v.len() as u64, || format!("check_online: {:?}", v[0]));
                }
                Err(e) => failures.add(1, || format!("run_online: {e}")),
            }
        }
    }
    let per_frame = |x: f64| x / frames.max(1) as f64;
    out.layer("sim.frame_us", per_frame(us[1]));
    out.layer("sim.reclaim_us", per_frame(us[1] - us[0]));
    out.layer("sim.fault_us", per_frame(us[2] - us[1]));
    out.layer(
        "sim.reclaimed_frac",
        if energy[0] > 0.0 {
            1.0 - energy[1] / energy[0]
        } else {
            0.0
        },
    );

    let sum = |f: fn(&OnlineReport) -> u64| reports.iter().flatten().map(f).sum::<u64>() as f64;
    out.layer("sim.resolves", sum(|r| r.resolves));
    out.layer("sim.resolve_steps", sum(|r| r.resolve_steps));
    out.layer("sim.admitted", sum(|r| r.admitted as u64));
    out.layer("sim.deferred", sum(|r| r.deferred as u64));
    out.layer("sim.shed", sum(|r| r.shed as u64));
    out.say(format!(
        "layers: sim.*_us per frame over {frames} frames x 3 arms; counts over one pass"
    ));
}
