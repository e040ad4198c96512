//! The discrete-event list scheduler.
//!
//! Work-conserving, non-preemptive list scheduling on identical
//! processors: whenever a processor is free and tasks are ready (all
//! predecessors finished), the ready task with the smallest priority key
//! starts immediately. With keys = latest finish times this is the
//! paper's LS-EDF (§4).
//!
//! Determinism: ties between ready tasks break on task id; among the
//! processors idle at assignment time, the one that became idle most
//! recently is chosen (ties on processor id). Choosing the
//! most-recently-freed processor keeps the other processors' idle
//! intervals contiguous, which is the favourable layout for the
//! processor-shutdown heuristics — and is applied uniformly to every
//! strategy, so comparisons are unaffected.
//!
//! # Event structures
//!
//! The scheduler used to run on three `BinaryHeap`s; at 100k-task graphs
//! the ready heap's pointer-chasing sift dominated the run. The current
//! implementation replaces them with indexed structures over flat
//! arrays, chosen so the event order is *provably identical* to the
//! heaps (see [`list_schedule_heap_reference`], which is kept as the
//! executable specification and pinned by the `crates/sched` tests):
//!
//! * **Ready tasks** — the priority keys are rank-compressed (one
//!   `sort_unstable` of `(key, id)` pairs) and the ready set becomes a
//!   two-level bitset over ranks; pop-min is a summary-word scan plus
//!   two `trailing_zeros`. Identical order: rank order *is* `(key, id)`
//!   order. The ranks are a pure function of the keys, so the workspace
//!   memoizes them: a run whose keys equal the slice ranked last (every
//!   run of a processor-count search after the first) skips the sort.
//! * **Running tasks** — a monotone bucket queue ([`EventQueue`]):
//!   finish times are pushed in nondecreasing `now` order and popped in
//!   nondecreasing order, so a radix-style bucket structure (bucket =
//!   highest bit in which the key differs from the last popped minimum)
//!   gives amortized O(64) pops with intrusive free-lists over a flat
//!   slot arena. Ties between equal finish times pop in unspecified
//!   order, which is semantically invisible: an entire finish-time batch
//!   retires before anything else happens, and every per-retirement
//!   effect (freeing a processor at `now`, decrementing successor
//!   indegrees, inserting into the ready bitset) is order-independent
//!   within the batch.
//! * **Idle processors** — a timestamped stack: freed times only ever
//!   increase, so "most recently freed first, lowest id on ties" is a
//!   stack of per-instant segments, each segment sorted descending by
//!   processor id before it is appended (pop from the end yields the
//!   lowest id of the most recent instant).

use crate::deadlines::latest_finish_times;
use crate::schedule::{csr_from_sorted, ProcId, Schedule};
use lamps_taskgraph::{TaskGraph, TaskId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

const NIL: u32 = u32::MAX;

/// Ready set: a two-level bitset over priority ranks. Bit `r` of the
/// leaf words is rank `r`; each summary bit covers one leaf word.
/// Pop-min scans the summary (≤ `n/4096` words) for the first set bit.
#[derive(Debug, Default)]
struct ReadySet {
    words: Vec<u64>,
    summary: Vec<u64>,
    len: usize,
}

impl ReadySet {
    fn reserve(&mut self, n_ranks: usize) {
        let n_words = n_ranks.div_ceil(64).max(1);
        self.words.reserve(n_words);
        self.summary.reserve(n_words.div_ceil(64));
    }

    /// Clear and size for `n_ranks` ranks, all absent.
    fn reset(&mut self, n_ranks: usize) {
        let n_words = n_ranks.div_ceil(64).max(1);
        self.words.clear();
        self.words.resize(n_words, 0);
        self.summary.clear();
        self.summary.resize(n_words.div_ceil(64), 0);
        self.len = 0;
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn insert(&mut self, rank: u32) {
        let w = (rank >> 6) as usize;
        self.words[w] |= 1u64 << (rank & 63);
        self.summary[w >> 6] |= 1u64 << (w & 63);
        self.len += 1;
    }

    /// Remove and return the smallest rank present. Must be non-empty.
    #[inline]
    fn pop_min(&mut self) -> u32 {
        let sw = self
            .summary
            .iter()
            .position(|&s| s != 0)
            .expect("ready set is non-empty");
        let wi = (sw << 6) + self.summary[sw].trailing_zeros() as usize;
        let bit = self.words[wi].trailing_zeros();
        self.words[wi] &= self.words[wi] - 1;
        if self.words[wi] == 0 {
            self.summary[sw] &= !(1u64 << (wi & 63));
        }
        self.len -= 1;
        ((wi as u32) << 6) | bit
    }
}

/// Monotone bucket (radix) queue for the running set: keys are pushed
/// at or after the last popped minimum and popped in nondecreasing
/// order. Bucket `b > 0` holds keys whose highest bit differing from
/// the last minimum is `b - 1`; bucket 0 holds keys equal to it. Slots
/// live in flat parallel arrays linked through `next` with a free list,
/// so a warm queue never allocates regardless of the key distribution.
#[derive(Debug)]
struct EventQueue {
    finish: Vec<u64>,
    task: Vec<u32>,
    next: Vec<u32>,
    free: u32,
    buckets: [u32; 65],
    last: u64,
    len: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            finish: Vec::new(),
            task: Vec::new(),
            next: Vec::new(),
            free: NIL,
            buckets: [NIL; 65],
            last: 0,
            len: 0,
        }
    }
}

impl EventQueue {
    fn reserve(&mut self, cap: usize) {
        self.finish.reserve(cap);
        self.task.reserve(cap);
        self.next.reserve(cap);
    }

    fn reset(&mut self) {
        self.finish.clear();
        self.task.clear();
        self.next.clear();
        self.free = NIL;
        self.buckets = [NIL; 65];
        self.last = 0;
        self.len = 0;
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn bucket_of(last: u64, key: u64) -> usize {
        (64 - (key ^ last).leading_zeros()) as usize
    }

    #[inline]
    fn push(&mut self, finish: u64, task: u32) {
        debug_assert!(finish >= self.last, "event queue keys are monotone");
        let slot = if self.free != NIL {
            let s = self.free as usize;
            self.free = self.next[s];
            self.finish[s] = finish;
            self.task[s] = task;
            s as u32
        } else {
            self.finish.push(finish);
            self.task.push(task);
            self.next.push(NIL);
            (self.finish.len() - 1) as u32
        };
        let b = Self::bucket_of(self.last, finish);
        self.next[slot as usize] = self.buckets[b];
        self.buckets[b] = slot;
        self.len += 1;
    }

    /// Smallest finish time currently queued, pulling its ties into
    /// bucket 0 (the amortized radix-heap step: each slot's bucket
    /// index only ever decreases between its push and its pop). Only
    /// call this when advancing the clock to the returned time — it
    /// raises the radix floor `last` to the minimum, after which pushes
    /// below it would break the bucket invariant.
    fn min_finish(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        if self.buckets[0] == NIL {
            let b = (1..=64)
                .find(|&b| self.buckets[b] != NIL)
                .expect("a non-empty queue has a non-empty bucket");
            let mut m = u64::MAX;
            let mut s = self.buckets[b];
            while s != NIL {
                m = m.min(self.finish[s as usize]);
                s = self.next[s as usize];
            }
            self.last = m;
            let mut s = self.buckets[b];
            self.buckets[b] = NIL;
            while s != NIL {
                let nx = self.next[s as usize];
                let nb = Self::bucket_of(m, self.finish[s as usize]);
                debug_assert!(nb < b);
                self.next[s as usize] = self.buckets[nb];
                self.buckets[nb] = s;
                s = nx;
            }
        }
        Some(self.last)
    }

    /// Pop one task finishing exactly at `now`, or `None` when nothing
    /// does. Requires the clock to have been advanced via
    /// [`Self::min_finish`] (so `last == now` and bucket 0 holds the
    /// whole finish-time batch); every queued key is `> now` once the
    /// batch drains, so the floor stays put and later pushes at `now +
    /// w` remain monotone. Ties between equal finish times pop in
    /// unspecified order (see the module docs for why that is
    /// invisible).
    fn pop_at(&mut self, now: u64) -> Option<(u64, u32)> {
        debug_assert!(self.last <= now);
        if self.len == 0 || self.last != now || self.buckets[0] == NIL {
            return None;
        }
        let s = self.buckets[0] as usize;
        self.buckets[0] = self.next[s];
        self.next[s] = self.free;
        self.free = s as u32;
        self.len -= 1;
        Some((self.finish[s], self.task[s]))
    }
}

/// Reusable scratch state for [`list_schedule_with`].
///
/// A LAMPS-style search schedules the same graph dozens of times (one
/// run per candidate processor count); keeping the event structures, the
/// in-degree counters, and the per-run result arrays alive across runs
/// means a run through a warm workspace performs **zero heap
/// allocations** ([`list_schedule_into`]); materializing an owned
/// [`Schedule`] afterwards costs exactly the five exact-size arrays the
/// schedule keeps. The only state carried from one run to the next is
/// the key-keyed ranking: the ranks of the last key slice, reused only
/// when the next run's keys are equal to it. Ranks are a pure function
/// of the keys, and everything else is cleared and refilled per run, so
/// reusing one workspace — across processor counts, graphs, or key
/// vectors — produces schedules identical to fresh [`list_schedule`]
/// calls.
#[derive(Debug, Default)]
pub struct ListScheduleWorkspace {
    /// The keys `rank_pairs` and `rank_of` were built from.
    ranked_keys: Vec<u64>,
    /// `(key, id)` pairs sorted ascending: rank `r`'s task is
    /// `rank_pairs[r].1`.
    rank_pairs: Vec<(u64, u32)>,
    /// Task index → its rank in `rank_pairs`.
    rank_of: Vec<u32>,
    /// Test-only mutation: reuse the stored ranks without comparing keys.
    stale_ranks: bool,
    ready: ReadySet,
    running: EventQueue,
    /// Idle processors, most recently freed last; each same-instant
    /// segment is sorted descending by id, so `pop` yields the
    /// most-recently-freed processor, lowest id on ties.
    idle_stack: Vec<u32>,
    /// Processors freed at one shared instant (tracked by a run-local
    /// clock), not yet sorted into `idle_stack`; flushed (sorted
    /// descending by id, appended) before any pop or any push at a
    /// later instant.
    idle_pending: Vec<u32>,
    missing_preds: Vec<u32>,
    // Results of the most recent run, valid until the next one.
    start: Vec<u64>,
    finish: Vec<u64>,
    proc: Vec<ProcId>,
    /// Tasks in global assignment order; each processor's subsequence is
    /// its execution order (assignment time is non-decreasing).
    seq: Vec<TaskId>,
    /// Peak number of processors held at once during the last run (see
    /// [`Self::peak_procs_held`]).
    peak_held: usize,
    /// Whether the last run ever made a ready task wait for a processor.
    blocked: bool,
}

impl ListScheduleWorkspace {
    /// An empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow every internal buffer to hold an `n_tasks`-task graph on
    /// `n_procs` processors, so the next [`list_schedule_into`] run
    /// allocates nothing. `reserve` is a no-op when capacity is already
    /// sufficient; runs against larger inputs simply grow on demand.
    pub fn reserve(&mut self, n_tasks: usize, n_procs: usize) {
        self.ranked_keys.reserve(n_tasks);
        self.rank_pairs.reserve(n_tasks);
        self.rank_of.reserve(n_tasks);
        self.ready.reserve(n_tasks);
        // At most one task runs per processor at any instant.
        self.running.reserve(n_procs.min(n_tasks.max(1)));
        self.idle_stack.reserve(n_procs);
        self.idle_pending.reserve(n_procs);
        self.missing_preds.reserve(n_tasks);
        self.start.reserve(n_tasks);
        self.finish.reserve(n_tasks);
        self.proc.reserve(n_tasks);
        self.seq.reserve(n_tasks);
    }

    /// Peak number of processors held simultaneously during the most
    /// recent run, counting a zero-weight task's momentary hold at its
    /// assignment instant.
    ///
    /// Together with [`Self::was_blocked`] this bounds the schedule's
    /// *width*: if the last run never blocked, then re-running the same
    /// graph and keys on **any** processor count `≥ peak_procs_held()`
    /// replays the identical event sequence — the ready set, event
    /// queue, and retirement order are independent of the processor
    /// count as long as a processor is free whenever a task is popped —
    /// and therefore produces the same start/finish times and makespan.
    /// Only the processor *assignment* differs. Callers (the solver's
    /// schedule cache) use this to answer makespan probes above the
    /// width without scheduling.
    pub fn peak_procs_held(&self) -> usize {
        self.peak_held
    }

    /// Whether the most recent run ever had a ready task wait because
    /// every processor was busy. An unblocked run is the infinite-
    /// processor schedule: see [`Self::peak_procs_held`].
    pub fn was_blocked(&self) -> bool {
        self.blocked
    }

    /// Test-only mutation hook: reuse the ranks of the previous run
    /// whenever the task count matches, *without* checking that the keys
    /// are the ones they were built from — the classic stale-memo bug.
    /// The verification gauntlet proves the list-scheduler differential
    /// catches it; never enable outside tests.
    #[doc(hidden)]
    pub fn mutate_stale_rank_reuse_for_tests(&mut self) {
        self.stale_ranks = true;
    }
}

/// Flush the same-instant pending segment: sort descending by id and
/// append, so popping from the stack end yields ascending ids within
/// the most recent instant.
#[inline]
fn idle_flush(stack: &mut Vec<u32>, pending: &mut Vec<u32>) {
    if !pending.is_empty() {
        pending.sort_unstable_by(|a, b| b.cmp(a));
        stack.append(pending);
    }
}

#[inline]
fn idle_push(
    stack: &mut Vec<u32>,
    pending: &mut Vec<u32>,
    pending_time: &mut u64,
    now: u64,
    p: u32,
) {
    if now != *pending_time {
        idle_flush(stack, pending);
        *pending_time = now;
    }
    pending.push(p);
}

#[inline]
fn idle_pop(stack: &mut Vec<u32>, pending: &mut Vec<u32>) -> u32 {
    idle_flush(stack, pending);
    stack.pop().expect("an idle processor is available")
}

/// Schedule `graph` on `n_procs` processors, priorities given per task
/// (smaller key = more urgent).
///
/// # Panics
///
/// Panics if `n_procs == 0` or `keys.len() != graph.len()`.
pub fn list_schedule(graph: &TaskGraph, n_procs: usize, keys: &[u64]) -> Schedule {
    list_schedule_with(&mut ListScheduleWorkspace::new(), graph, n_procs, keys)
}

/// [`list_schedule`] reusing the allocations in `ws` (see
/// [`ListScheduleWorkspace`]).
///
/// # Panics
///
/// Panics if `n_procs == 0` or `keys.len() != graph.len()`.
pub fn list_schedule_with(
    ws: &mut ListScheduleWorkspace,
    graph: &TaskGraph,
    n_procs: usize,
    keys: &[u64],
) -> Schedule {
    list_schedule_into(ws, graph, n_procs, keys);
    materialize(ws, n_procs)
}

/// Run the list scheduler, leaving the per-task results in `ws`
/// (materialize an owned [`Schedule`] with [`list_schedule_with`]).
/// Returns the makespan in cycles.
///
/// Once `ws` has been through a run of at least this size (or was
/// [`ListScheduleWorkspace::reserve`]d), this performs **zero heap
/// allocations** — every buffer is cleared and refilled in place (the
/// rank sort, when the keys changed, is `sort_unstable`, which is
/// in-place; the event queue recycles its slot arena through a free
/// list).
///
/// # Panics
///
/// Panics if `n_procs == 0` or `keys.len() != graph.len()`.
pub fn list_schedule_into(
    ws: &mut ListScheduleWorkspace,
    graph: &TaskGraph,
    n_procs: usize,
    keys: &[u64],
) -> u64 {
    assert!(n_procs > 0, "need at least one processor");
    assert_eq!(keys.len(), graph.len(), "one key per task");

    if lamps_obs::metrics_enabled() {
        lamps_obs::counter("sched.list_schedule.runs").inc();
        lamps_obs::counter("sched.list_schedule.tasks").add(graph.len() as u64);
    }
    let _span = lamps_obs::span("sched", "list_schedule");

    let n = graph.len();
    ws.reserve(n, n_procs);
    ws.start.clear();
    ws.start.resize(n, 0);
    ws.finish.clear();
    ws.finish.resize(n, 0);
    ws.proc.clear();
    ws.proc.resize(n, ProcId(0));
    ws.seq.clear();
    let start = &mut ws.start;
    let finish = &mut ws.finish;
    let proc = &mut ws.proc;
    let seq = &mut ws.seq;

    // Rank-compress the priority keys: rank order is (key, id) order,
    // so popping the smallest present rank is exactly the ready heap's
    // pop of the smallest (key, id). The ranks depend on the keys alone,
    // so keys equal to the last ranked slice reuse them as they are.
    let fresh = if ws.stale_ranks {
        ws.ranked_keys.len() != n
    } else {
        ws.ranked_keys != keys
    };
    if fresh {
        ws.ranked_keys.clear();
        ws.ranked_keys.extend_from_slice(keys);
        ws.rank_pairs.clear();
        ws.rank_pairs.extend(keys.iter().copied().zip(0..n as u32));
        ws.rank_pairs.sort_unstable();
        ws.rank_of.clear();
        ws.rank_of.resize(n, 0);
        for (r, &(_key, id)) in ws.rank_pairs.iter().enumerate() {
            ws.rank_of[id as usize] = r as u32;
        }
    }
    let rank_pairs = &ws.rank_pairs;
    let rank_of = &ws.rank_of;

    let ready = &mut ws.ready;
    ready.reset(n);
    let missing_preds = &mut ws.missing_preds;
    missing_preds.clear();
    missing_preds.extend((0..n).map(|i| graph.in_degree(TaskId(i as u32)) as u32));
    for t in graph.tasks() {
        if missing_preds[t.index()] == 0 {
            ready.insert(rank_of[t.index()]);
        }
    }

    let running = &mut ws.running;
    running.reset();
    // All processors idle since time 0: one pre-sorted segment
    // (descending ids, so the stack pops processor 0 first).
    let idle_stack = &mut ws.idle_stack;
    idle_stack.clear();
    idle_stack.extend((0..n_procs as u32).rev());
    let idle_pending = &mut ws.idle_pending;
    idle_pending.clear();
    let mut idle_pending_time = 0u64;

    ws.peak_held = 0;
    ws.blocked = false;
    let mut peak_held = 0usize;
    let mut blocked = false;
    let mut makespan = 0u64;
    let mut now = 0u64;
    let mut scheduled = 0usize;
    while scheduled < n {
        // Retire every task finishing at the current time: free its
        // processor and release its successors. (Nothing can finish
        // *before* `now`: the clock only ever advances to the queue's
        // minimum, and that retirement batch drains completely.)
        while let Some((_ft, id)) = running.pop_at(now) {
            let t = TaskId(id);
            idle_push(
                idle_stack,
                idle_pending,
                &mut idle_pending_time,
                now,
                proc[t.index()].0,
            );
            for &s in graph.successors(t) {
                missing_preds[s.index()] -= 1;
                if missing_preds[s.index()] == 0 {
                    ready.insert(rank_of[s.index()]);
                }
            }
        }

        // Start ready tasks while processors are free. Zero-weight tasks
        // (STG dummy nodes) retire immediately, possibly readying more
        // tasks at the same instant.
        while !ready.is_empty() && (!idle_stack.is_empty() || !idle_pending.is_empty()) {
            let rank = ready.pop_min();
            let id = rank_pairs[rank as usize].1;
            let p = idle_pop(idle_stack, idle_pending);
            let t = TaskId(id);
            let w = graph.weight(t);
            start[t.index()] = now;
            finish[t.index()] = now + w;
            proc[t.index()] = ProcId(p);
            seq.push(t);
            scheduled += 1;
            makespan = makespan.max(now + w);
            if w == 0 {
                idle_push(idle_stack, idle_pending, &mut idle_pending_time, now, p);
                for &s in graph.successors(t) {
                    missing_preds[s.index()] -= 1;
                    if missing_preds[s.index()] == 0 {
                        ready.insert(rank_of[s.index()]);
                    }
                }
            } else {
                running.push(finish[t.index()], id);
            }
            // Processors held right now: every running task plus the
            // momentary hold of a zero-weight assignment.
            let held = running.len() + usize::from(w == 0);
            if held > peak_held {
                peak_held = held;
            }
        }

        if scheduled == n {
            break;
        }

        // Advance to the next finish event; the top of the loop retires
        // it (and anything else finishing at the same instant). A ready
        // task waiting here is the one situation where the processor
        // count shaped the schedule.
        if !ready.is_empty() {
            blocked = true;
        }
        now = running
            .min_finish()
            .expect("unscheduled tasks remain, so something must be running");
    }

    ws.peak_held = peak_held;
    ws.blocked = blocked;
    makespan
}

/// Copy the workspace's latest run into an owned [`Schedule`]: five
/// exact-size allocations (start/finish/proc plus the CSR order arena),
/// no per-processor `Vec`s. Within one processor the assignment sequence
/// is chronological, so a stable counting sort of `seq` by processor
/// yields each processor's execution order — authoritative even for
/// zero-weight chains assigned at the same instant.
fn materialize(ws: &ListScheduleWorkspace, n_procs: usize) -> Schedule {
    let (order, offsets) = csr_from_sorted(n_procs, &ws.proc, ws.seq.iter().copied());
    Schedule::from_parts_unchecked(
        n_procs,
        ws.start.clone(),
        ws.finish.clone(),
        ws.proc.clone(),
        order,
        offsets,
    )
}

/// The original three-`BinaryHeap` list scheduler, kept verbatim as the
/// executable specification of the event order. The indexed
/// implementation in [`list_schedule_into`] must produce schedules
/// identical to this, bit for bit; the `crates/sched` integration tests
/// pin that equivalence across the edge cases (zero-weight chains,
/// same-instant retirement batches, processor reuse ties). Not part of
/// the public API.
#[doc(hidden)]
pub fn list_schedule_heap_reference(graph: &TaskGraph, n_procs: usize, keys: &[u64]) -> Schedule {
    assert!(n_procs > 0, "need at least one processor");
    assert_eq!(keys.len(), graph.len(), "one key per task");

    let n = graph.len();
    let mut start = vec![0u64; n];
    let mut finish = vec![0u64; n];
    let mut proc = vec![ProcId(0); n];
    let mut seq: Vec<TaskId> = Vec::with_capacity(n);

    // Ready tasks: min-heap on (key, id).
    let mut ready: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    let mut missing_preds: Vec<u32> = (0..n)
        .map(|i| graph.in_degree(TaskId(i as u32)) as u32)
        .collect();
    for t in graph.tasks() {
        if missing_preds[t.index()] == 0 {
            ready.push(Reverse((keys[t.index()], t.0)));
        }
    }

    // Running tasks: min-heap on (finish time, id).
    let mut running: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    // Idle processors: max-heap on (time it became idle, Reverse(id)) so
    // that `pop` yields the most-recently-freed processor, lowest id on
    // ties.
    let mut idle: BinaryHeap<(u64, Reverse<u32>)> = BinaryHeap::new();
    idle.extend((0..n_procs as u32).map(|p| (0u64, Reverse(p))));

    let mut now = 0u64;
    let mut scheduled = 0usize;
    while scheduled < n {
        while let Some(&Reverse((ft, id))) = running.peek() {
            if ft > now {
                break;
            }
            running.pop();
            let t = TaskId(id);
            idle.push((now, Reverse(proc[t.index()].0)));
            for &s in graph.successors(t) {
                missing_preds[s.index()] -= 1;
                if missing_preds[s.index()] == 0 {
                    ready.push(Reverse((keys[s.index()], s.0)));
                }
            }
        }

        while !idle.is_empty() && !ready.is_empty() {
            let Reverse((_key, id)) = ready.pop().expect("checked non-empty");
            let (_freed_at, Reverse(p)) = idle.pop().expect("checked non-empty");
            let t = TaskId(id);
            let w = graph.weight(t);
            start[t.index()] = now;
            finish[t.index()] = now + w;
            proc[t.index()] = ProcId(p);
            seq.push(t);
            scheduled += 1;
            if w == 0 {
                idle.push((now, Reverse(p)));
                for &s in graph.successors(t) {
                    missing_preds[s.index()] -= 1;
                    if missing_preds[s.index()] == 0 {
                        ready.push(Reverse((keys[s.index()], s.0)));
                    }
                }
            } else {
                running.push(Reverse((finish[t.index()], id)));
            }
        }

        if scheduled == n {
            break;
        }

        let &Reverse((ft, _)) = running
            .peek()
            .expect("unscheduled tasks remain, so something must be running");
        now = ft;
    }

    let (order, offsets) = csr_from_sorted(n_procs, &proc, seq.iter().copied());
    Schedule::from_parts_unchecked(n_procs, start, finish, proc, order, offsets)
}

/// LS-EDF (§4): list scheduling with latest-finish-time keys derived from
/// a uniform application deadline.
/// # Example
///
/// ```
/// use lamps_sched::list::edf_schedule;
/// use lamps_taskgraph::GraphBuilder;
///
/// let mut b = GraphBuilder::new();
/// let a = b.add_task(4);
/// let c = b.add_task(6);
/// b.add_edge(a, c).unwrap();
/// let g = b.build().unwrap();
/// let s = edf_schedule(&g, 2, 20);
/// assert_eq!(s.makespan_cycles(), 10); // the chain serializes
/// s.validate(&g).unwrap();
/// ```
pub fn edf_schedule(graph: &TaskGraph, n_procs: usize, deadline_cycles: u64) -> Schedule {
    let lf = latest_finish_times(graph, deadline_cycles);
    list_schedule(graph, n_procs, &lf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lamps_taskgraph::GraphBuilder;

    /// Fig. 4a: T1(2) → {T2(6), T3(4), T4(4)}; {T2,T3} → T5(2).
    fn fig4a() -> TaskGraph {
        let mut b = GraphBuilder::new();
        let t1 = b.add_task(2);
        let t2 = b.add_task(6);
        let t3 = b.add_task(4);
        let t4 = b.add_task(4);
        let t5 = b.add_task(2);
        b.add_edge(t1, t2).unwrap();
        b.add_edge(t1, t3).unwrap();
        b.add_edge(t1, t4).unwrap();
        b.add_edge(t2, t5).unwrap();
        b.add_edge(t3, t5).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn fig4b_schedule_on_three_processors() {
        // Fig. 4b: EDF on 3 processors finishes the example in 10 units
        // (the critical path).
        let g = fig4a();
        let s = edf_schedule(&g, 3, 12);
        s.validate(&g).unwrap();
        assert_eq!(s.makespan_cycles(), 10);
    }

    #[test]
    fn fig7a_schedule_on_two_processors() {
        // Fig. 7a: the same graph on 2 processors still fits the
        // deadline window used by LAMPS — makespan 10: P1 = T1,T2,T5;
        // P2 = T3,T4.
        let g = fig4a();
        let s = edf_schedule(&g, 2, 12);
        s.validate(&g).unwrap();
        assert_eq!(s.makespan_cycles(), 10);
        assert_eq!(s.employed_procs(), 2);
    }

    #[test]
    fn single_processor_serializes() {
        let g = fig4a();
        let s = edf_schedule(&g, 1, 100);
        s.validate(&g).unwrap();
        assert_eq!(s.makespan_cycles(), g.total_work_cycles());
        assert_eq!(s.employed_procs(), 1);
    }

    #[test]
    fn more_processors_than_tasks() {
        let g = fig4a();
        let s = edf_schedule(&g, 16, 100);
        s.validate(&g).unwrap();
        // Unbounded processors reach the critical path.
        assert_eq!(s.makespan_cycles(), g.critical_path_cycles());
        assert!(s.employed_procs() <= 3);
    }

    #[test]
    fn makespan_never_below_bounds() {
        let g = fig4a();
        for n in 1..=4 {
            let s = edf_schedule(&g, n, 50);
            let lb = g
                .critical_path_cycles()
                .max(g.total_work_cycles().div_ceil(n as u64));
            assert!(s.makespan_cycles() >= lb);
            // Work-conserving list scheduling respects Graham's bound.
            let ub = g.critical_path_cycles() + g.total_work_cycles().div_ceil(n as u64);
            assert!(s.makespan_cycles() <= ub);
        }
    }

    #[test]
    fn edf_prefers_urgent_tasks() {
        // Two independent tasks, one processor: the tighter deadline
        // must run first even though it has the higher id.
        let mut b = GraphBuilder::new();
        let a = b.add_task(10);
        let c = b.add_task(10);
        let g = {
            let _ = (a, c);
            b.build().unwrap()
        };
        let keys = vec![20, 10];
        let s = list_schedule(&g, 1, &keys);
        assert_eq!(s.start(TaskId(1)), 0);
        assert_eq!(s.start(TaskId(0)), 10);
    }

    #[test]
    fn zero_weight_chains_collapse() {
        // STG dummy nodes: entry(0) → a(4) → exit(0).
        let mut b = GraphBuilder::new();
        let e = b.add_task(0);
        let a = b.add_task(4);
        let x = b.add_task(0);
        b.add_edge(e, a).unwrap();
        b.add_edge(a, x).unwrap();
        let g = b.build().unwrap();
        let s = edf_schedule(&g, 2, 10);
        s.validate(&g).unwrap();
        assert_eq!(s.makespan_cycles(), 4);
        assert_eq!(s.start(TaskId(1)), 0);
        assert_eq!(s.start(TaskId(2)), 4);
    }

    #[test]
    fn all_zero_weight_graph() {
        let mut b = GraphBuilder::new();
        let a = b.add_task(0);
        let c = b.add_task(0);
        b.add_edge(a, c).unwrap();
        let g = b.build().unwrap();
        let s = edf_schedule(&g, 2, 10);
        s.validate(&g).unwrap();
        assert_eq!(s.makespan_cycles(), 0);
    }

    #[test]
    fn deterministic_output() {
        let g = fig4a();
        let a = edf_schedule(&g, 2, 12);
        let b = edf_schedule(&g, 2, 12);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_panics() {
        let g = fig4a();
        edf_schedule(&g, 0, 10);
    }

    #[test]
    fn wide_graph_saturates_processors() {
        // 8 independent unit tasks on 4 processors: makespan 2.
        let mut b = GraphBuilder::new();
        for _ in 0..8 {
            b.add_task(1);
        }
        let g = b.build().unwrap();
        let s = edf_schedule(&g, 4, 10);
        s.validate(&g).unwrap();
        assert_eq!(s.makespan_cycles(), 2);
        assert_eq!(s.employed_procs(), 4);
    }

    #[test]
    fn matches_heap_reference_on_examples() {
        // The indexed event structures replay the heap implementation's
        // event order exactly (the full corpus pin lives in the
        // integration tests; this is the in-crate smoke version).
        let g = fig4a();
        for n in 1..=6usize {
            for d in [12u64, 20, 50] {
                let keys = latest_finish_times(&g, d);
                assert_eq!(
                    list_schedule(&g, n, &keys),
                    list_schedule_heap_reference(&g, n, &keys),
                    "n={n} d={d}"
                );
            }
        }
    }

    #[test]
    fn unblocked_peak_bounds_the_plateau() {
        // The width-plateau contract: when a run never stalls a ready
        // task (`!was_blocked()`), the event sequence equals the
        // infinite-processor one, so every count at or above
        // `peak_procs_held()` must reproduce the same makespan.
        let graphs = {
            let mut gs = vec![fig4a()];
            let mut b = GraphBuilder::new();
            // Zero-weight fan-out feeding heavy tasks: exercises the
            // micro-round accounting where a zero-weight task holds a
            // processor slot for an instant.
            let root = b.add_task(0);
            for w in [5u64, 3, 0, 7] {
                let t = b.add_task(w);
                b.add_edge(root, t).unwrap();
            }
            gs.push(b.build().unwrap());
            gs
        };
        for (i, g) in graphs.iter().enumerate() {
            let mut ws = ListScheduleWorkspace::new();
            let keys = vec![0u64; g.len()];
            // |V| processors can never block.
            let top = list_schedule_into(&mut ws, g, g.len(), &keys);
            assert!(!ws.was_blocked(), "graph {i}: |V| procs cannot block");
            let width = ws.peak_procs_held().max(1);
            assert!(width <= g.len());
            for n in width..=g.len() {
                let ms = list_schedule_into(&mut ws, g, n, &keys);
                assert_eq!(ms, top, "graph {i}, n {n} is on the plateau");
            }
            // Below the width the run either blocks or (still) matches;
            // blocking is what voids the plateau guarantee.
            if width > 1 {
                let _ = list_schedule_into(&mut ws, g, width - 1, &keys);
            }
        }
    }
}
