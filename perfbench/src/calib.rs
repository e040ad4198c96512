//! Frozen calibration kernel.
//!
//! A self-contained heap-based list scheduler over a fixed pseudo-random
//! DAG. It uses nothing from the program, so refactors of the solver
//! never change it: its `ns_per_op` moves only when the machine does.
//! Every run reports it beside the measured figures so that drift
//! between runs on different days (or noisy neighbours) is visible.
//! Nothing gates on it.
//!
//! Do not edit this file: a change here breaks comparability with every
//! figure recorded before it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

const TASKS: usize = 4000;
const PROCS: usize = 8;
const ROUNDS: usize = 8;
const REPS: usize = 5;

struct Dag {
    weight: Vec<u64>,
    succ_start: Vec<usize>,
    succ: Vec<usize>,
    in_degree: Vec<usize>,
    key: Vec<u64>,
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn fixed_dag() -> Dag {
    let mut s = 0x2006_1EAC_A6E5_u64;
    let weight: Vec<u64> = (0..TASKS).map(|_| 1 + xorshift(&mut s) % 300).collect();
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for t in 1..TASKS {
        let preds = 1 + (xorshift(&mut s) % 3) as usize;
        for _ in 0..preds {
            let back = 1 + (xorshift(&mut s) % 64) as usize;
            edges.push((t.saturating_sub(back), t));
        }
    }
    edges.sort_unstable();
    edges.dedup();
    let mut succ_start = vec![0usize; TASKS + 1];
    let mut in_degree = vec![0usize; TASKS];
    for &(a, b) in &edges {
        succ_start[a + 1] += 1;
        in_degree[b] += 1;
    }
    for i in 0..TASKS {
        succ_start[i + 1] += succ_start[i];
    }
    let succ = edges.iter().map(|&(_, b)| b).collect();
    let key = (0..TASKS).map(|_| xorshift(&mut s) % 1_000_000).collect();
    Dag {
        weight,
        succ_start,
        succ,
        in_degree,
        key,
    }
}

/// One list-scheduling run; returns the makespan.
fn schedule(dag: &Dag) -> u64 {
    let mut indeg = dag.in_degree.clone();
    let mut ready: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    for (t, &d) in indeg.iter().enumerate() {
        if d == 0 {
            ready.push(Reverse((dag.key[t], t)));
        }
    }
    let mut running: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut free = PROCS;
    let mut now = 0u64;
    let mut makespan = 0u64;
    loop {
        while free > 0 {
            let Some(Reverse((_, t))) = ready.pop() else {
                break;
            };
            free -= 1;
            running.push(Reverse((now + dag.weight[t], t)));
        }
        let Some(Reverse((end, t))) = running.pop() else {
            break;
        };
        now = end;
        makespan = makespan.max(end);
        free += 1;
        for &s in &dag.succ[dag.succ_start[t]..dag.succ_start[t + 1]] {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                ready.push(Reverse((dag.key[s], s)));
            }
        }
    }
    makespan
}

/// Median nanoseconds per scheduled task over a few repetitions.
pub fn ns_per_op() -> f64 {
    let dag = fixed_dag();
    let mut samples = Vec::with_capacity(REPS);
    let mut check = 0u64;
    for _ in 0..REPS {
        let t0 = Instant::now();
        for _ in 0..ROUNDS {
            check = check.wrapping_add(schedule(std::hint::black_box(&dag)));
        }
        samples.push(t0.elapsed().as_secs_f64() * 1e9 / (ROUNDS * TASKS) as f64);
    }
    std::hint::black_box(check);
    crate::stats::median(&samples)
}
