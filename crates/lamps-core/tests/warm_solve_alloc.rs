//! Proof that a warm re-solve does no per-graph work.
//!
//! Total work, critical path and EDF keys are computed once when the
//! [`ScheduleCache`] is built, and every schedule and idle summary the
//! search touches is memoized there, so the heap traffic of a second
//! solve of a cell must not depend on the graph's size. A graph walk
//! slipped back into the warm path (a topological sort, a critical-path
//! pass, a per-task buffer) allocates O(n) bytes and shows up here.
//!
//! One `#[test]` only: the counters are process-global (see
//! `crates/sched/tests/no_alloc.rs`).

use lamps_core::{solve_with_cache, ScheduleCache, SchedulerConfig, Strategy};
use lamps_taskgraph::gen::layered::stg_group;
use lamps_taskgraph::TaskGraph;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator counting every allocation and the bytes it asked
/// for. `realloc` and `alloc_zeroed` keep their default bodies, which go
/// through `alloc`, so they are counted too.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> (u64, u64) {
    let calls = ALLOC_CALLS.load(Ordering::Relaxed);
    (calls, ALLOC_BYTES.load(Ordering::Relaxed))
}

/// `(calls, bytes)` allocated by a warm re-solve of each strategy at
/// `factor` × CPL, right after a cold solve of the same cell.
fn warm_resolve_allocations(graph: &TaskGraph, factor: f64) -> [(u64, u64); 4] {
    let cfg = SchedulerConfig::paper();
    let deadline_s = factor * graph.critical_path_cycles() as f64 / cfg.max_frequency();
    let mut cache = ScheduleCache::for_graph(graph);
    Strategy::all().map(|s| {
        let cold = solve_with_cache(s, deadline_s, &cfg, &mut cache).expect("feasible");
        let before = allocations();
        let warm = solve_with_cache(s, deadline_s, &cfg, &mut cache).expect("feasible");
        let after = allocations();
        assert_eq!(warm.energy.total().to_bits(), cold.energy.total().to_bits());
        (after.0 - before.0, after.1 - before.1)
    })
}

#[test]
fn warm_resolve_allocations_do_not_grow_with_the_graph() {
    let graph_of = |n: usize| stg_group(n, 1, 3).remove(0).scale_weights(310_000);
    let (small, large) = (graph_of(50), graph_of(2000));
    for factor in [1.5, 4.0] {
        assert_eq!(
            warm_resolve_allocations(&small, factor),
            warm_resolve_allocations(&large, factor),
            "(calls, bytes) per strategy at {factor}x on {} vs {} tasks: \
             a per-graph walk is back on the warm solve path",
            small.len(),
            large.len()
        );
    }
}
