//! Pins the indexed ready-queue list scheduler to the three-heap
//! reference implementation, event for event.
//!
//! [`list_schedule`] replaced its `BinaryHeap`s with a rank-compressed
//! bitset ready-set and a monotone radix event queue; the old algorithm
//! survives verbatim as [`list_schedule_heap_reference`] precisely so
//! this file can assert the replacement is *observationally identical*
//! — same processor assignment, same start/finish instants, same
//! per-processor task order — on the inputs where tie-breaking is most
//! fragile: zero-weight tasks retiring in same-instant batches,
//! single-processor runs, width-1 chains, and fan-outs where every
//! ready task carries an equal key.

use lamps_sched::deadlines::latest_finish_times;
use lamps_sched::list::{
    list_schedule, list_schedule_heap_reference, list_schedule_with, ListScheduleWorkspace,
};
use lamps_sched::schedule::{ProcId, Schedule};
use lamps_taskgraph::gen::layered::stg_group;
use lamps_taskgraph::rng::Rng;
use lamps_taskgraph::{GraphBuilder, TaskGraph, TaskId};

/// Assert the two schedules are identical in every observable respect:
/// placement, timing, and the order tasks were laid onto each processor.
fn assert_pinned(graph: &TaskGraph, n_procs: usize, keys: &[u64], label: &str) {
    let new = list_schedule(graph, n_procs, keys);
    let reference = list_schedule_heap_reference(graph, n_procs, keys);
    assert_schedules_equal(&new, &reference, graph, label);
}

fn assert_schedules_equal(new: &Schedule, reference: &Schedule, graph: &TaskGraph, label: &str) {
    assert_eq!(new.n_procs(), reference.n_procs(), "{label}: n_procs");
    assert_eq!(
        new.makespan_cycles(),
        reference.makespan_cycles(),
        "{label}: makespan"
    );
    for t in (0..graph.len() as u32).map(TaskId) {
        assert_eq!(new.start(t), reference.start(t), "{label}: start of {t:?}");
        assert_eq!(
            new.finish(t),
            reference.finish(t),
            "{label}: finish of {t:?}"
        );
        assert_eq!(new.proc(t), reference.proc(t), "{label}: proc of {t:?}");
    }
    for p in (0..new.n_procs() as u32).map(ProcId) {
        assert_eq!(
            new.tasks_on(p),
            reference.tasks_on(p),
            "{label}: event order on {p:?}"
        );
    }
    new.validate(graph).expect("new schedule must be valid");
}

/// Priority-key patterns that stress distinct tie-breaking paths.
fn key_patterns(n: usize) -> Vec<(&'static str, Vec<u64>)> {
    vec![
        ("id-order", (0..n as u64).collect()),
        ("reverse", (0..n as u64).rev().collect()),
        ("all-equal", vec![7; n]),
        (
            "two-buckets",
            (0..n as u64)
                .map(|i| if i % 2 == 0 { 0 } else { 1 } << 40)
                .collect(),
        ),
        (
            "wide-spread",
            (0..n as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
        ),
    ]
}

fn pin_all_patterns(graph: &TaskGraph, label: &str) {
    for n_procs in [1usize, 2, 3, 8, graph.len().max(1)] {
        for (kname, keys) in key_patterns(graph.len()) {
            assert_pinned(
                graph,
                n_procs,
                &keys,
                &format!("{label}/{kname}/p{n_procs}"),
            );
        }
    }
}

/// A chain where every task has weight zero: every event happens at
/// instant 0 and the whole run is one same-instant retirement batch.
#[test]
fn all_zero_weight_chain_matches_reference() {
    let mut b = GraphBuilder::new();
    let ids: Vec<TaskId> = (0..40).map(|_| b.add_task(0)).collect();
    for w in ids.windows(2) {
        b.add_edge(w[0], w[1]).unwrap();
    }
    pin_all_patterns(&b.build().unwrap(), "zero-chain");
}

/// Zero-weight fan-out: one zero-weight root releases many zero-weight
/// children simultaneously, so the ready-set fills in one batch and the
/// drain order is pure tie-breaking.
#[test]
fn zero_weight_fanout_matches_reference() {
    let mut b = GraphBuilder::new();
    let root = b.add_task(0);
    let mids: Vec<TaskId> = (0..24).map(|_| b.add_task(0)).collect();
    let sink = b.add_task(0);
    for &m in &mids {
        b.add_edge(root, m).unwrap();
        b.add_edge(m, sink).unwrap();
    }
    pin_all_patterns(&b.build().unwrap(), "zero-fanout");
}

/// Width-1 graphs (pure chains with nonzero weights): the event queue
/// sees strictly increasing finish times and the ready set never holds
/// more than one task.
#[test]
fn width_one_chain_matches_reference() {
    let mut b = GraphBuilder::new();
    let ids: Vec<TaskId> = (0..50).map(|i| b.add_task(1 + (i * i) % 13)).collect();
    for w in ids.windows(2) {
        b.add_edge(w[0], w[1]).unwrap();
    }
    pin_all_patterns(&b.build().unwrap(), "chain");
}

/// Mixed zero/nonzero weights interleaved in a diamond lattice, so
/// zero-weight retirements land *between* nonzero finish events at the
/// same instant.
#[test]
fn mixed_zero_and_nonzero_weights_match_reference() {
    let mut b = GraphBuilder::new();
    let mut prev: Vec<TaskId> = (0..6)
        .map(|i| b.add_task(if i % 2 == 0 { 0 } else { 9 }))
        .collect();
    for layer in 1..8u64 {
        let cur: Vec<TaskId> = (0..6)
            .map(|i| b.add_task(if (layer + i) % 3 == 0 { 0 } else { layer * 3 }))
            .collect();
        for (i, &t) in cur.iter().enumerate() {
            b.add_edge(prev[i], t).unwrap();
            b.add_edge(prev[(i + 1) % prev.len()], t).unwrap();
        }
        prev = cur;
    }
    pin_all_patterns(&b.build().unwrap(), "mixed-weights");
}

/// Single-processor scheduling of random DAGs is a pure priority drain;
/// the reference and the indexed queue must serialize identically.
#[test]
fn single_proc_random_dags_match_reference() {
    let mut rng = Rng::seed_from_u64(0x51_7E57);
    for case in 0..32 {
        let n = rng.gen_range(2usize..30);
        let mut b = GraphBuilder::new();
        let ids: Vec<TaskId> = (0..n)
            .map(|_| b.add_task(rng.gen_range(0u64..20)))
            .collect();
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.gen_bool(0.3) {
                    b.add_edge(ids[i], ids[j]).unwrap();
                }
            }
        }
        let g = b.build().unwrap();
        for (kname, keys) in key_patterns(g.len()) {
            assert_pinned(&g, 1, &keys, &format!("single-proc/{case}/{kname}"));
        }
    }
}

/// Random STG-style layered graphs across a spread of processor counts
/// and key patterns — the broad-coverage sweep behind the targeted edge
/// cases above.
#[test]
fn random_stg_graphs_match_reference() {
    for (gi, g) in stg_group(120, 6, 0xF1A9).iter().enumerate() {
        pin_all_patterns(g, &format!("stg/{gi}"));
    }
}

/// The workspace's rank memo: one workspace alternated between two
/// different same-size graphs and key vectors must reproduce the
/// reference on every run. A key switch re-ranks; a repeat (including
/// `b` run with the keys `a` just used) reuses the ranks.
#[test]
fn alternating_graphs_through_one_workspace_match_reference() {
    let graphs = stg_group(90, 2, 0xA17E);
    let (a, b) = (&graphs[0], &graphs[1]);
    assert_eq!(a.len(), b.len(), "the pair must share a task count");
    let patterns = key_patterns(a.len());
    let (ka, kb) = (&patterns[0].1, &patterns[4].1);
    let a_edf = latest_finish_times(a, 2 * a.critical_path_cycles());
    let runs = [(a, ka), (a, ka), (b, kb), (a, &a_edf), (b, &a_edf), (b, ka)];
    let mut ws = ListScheduleWorkspace::new();
    for n_procs in [1usize, 3, 8] {
        for (i, &(g, keys)) in runs.iter().enumerate() {
            let got = list_schedule_with(&mut ws, g, n_procs, keys);
            let reference = list_schedule_heap_reference(g, n_procs, keys);
            assert_schedules_equal(&got, &reference, g, &format!("run {i} on {n_procs} procs"));
        }
    }
}
