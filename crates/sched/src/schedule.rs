//! The schedule data structure and its validity checks.

use lamps_taskgraph::{TaskGraph, TaskId};

/// Identifier of a processor: a dense index `0..n_procs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub u32);

impl ProcId {
    /// The index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ProcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Violations detected by [`Schedule::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// A task starts before one of its predecessors finishes.
    PrecedenceViolation {
        /// The dependent task.
        task: TaskId,
        /// The predecessor that finishes too late.
        pred: TaskId,
    },
    /// Two tasks overlap on the same processor.
    Overlap {
        /// The processor on which the overlap occurs.
        proc: ProcId,
        /// The earlier-starting task.
        first: TaskId,
        /// The overlapping task.
        second: TaskId,
    },
    /// The schedule's task count differs from the graph's.
    WrongTaskCount {
        /// Tasks in the schedule.
        scheduled: usize,
        /// Tasks in the graph.
        graph: usize,
    },
    /// A stored finish time is inconsistent with start + weight.
    BadFinishTime(TaskId),
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::PrecedenceViolation { task, pred } => {
                write!(f, "{task} starts before its predecessor {pred} finishes")
            }
            ScheduleError::Overlap {
                proc,
                first,
                second,
            } => write!(f, "{first} and {second} overlap on {proc}"),
            ScheduleError::WrongTaskCount { scheduled, graph } => {
                write!(f, "schedule covers {scheduled} tasks, graph has {graph}")
            }
            ScheduleError::BadFinishTime(t) => {
                write!(f, "finish time of {t} is not start + weight")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A complete static schedule of a task graph onto `n_procs` identical
/// processors, in cycles at the nominal frequency.
///
/// Immutable once produced by the list scheduler. Start/finish times are
/// per task; the per-processor execution orders are stored in one flat
/// CSR arena — a single `order` array holding every processor's task
/// sequence back to back, with `offsets[p]..offsets[p + 1]` delimiting
/// processor `p`'s slice. Compared to a `Vec<Vec<TaskId>>` this is one
/// allocation instead of `n_procs`, and iterating a whole schedule walks
/// one contiguous array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    n_procs: usize,
    start: Vec<u64>,
    finish: Vec<u64>,
    proc: Vec<ProcId>,
    /// Every processor's task sequence, concatenated in processor order.
    order: Vec<TaskId>,
    /// `offsets[p]..offsets[p + 1]` is processor `p`'s slice of `order`;
    /// always `n_procs + 1` entries.
    offsets: Vec<usize>,
    /// Latest finish time, computed once at construction: searches ask
    /// for it on every probe of a memoized schedule.
    makespan: u64,
}

/// Build the CSR `(order, offsets)` arena from per-task processor
/// assignments and an iterator yielding every task in execution order
/// (ties already broken). Counting sort by processor: one pass to size
/// the buckets, one pass to place.
pub(crate) fn csr_from_sorted(
    n_procs: usize,
    proc: &[ProcId],
    sorted: impl Iterator<Item = TaskId> + Clone,
) -> (Vec<TaskId>, Vec<usize>) {
    let mut offsets = vec![0usize; n_procs + 1];
    for p in proc {
        offsets[p.index() + 1] += 1;
    }
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    let mut cursor = offsets.clone();
    let mut order = vec![TaskId(0); proc.len()];
    for t in sorted {
        let p = proc[t.index()].index();
        order[cursor[p]] = t;
        cursor[p] += 1;
    }
    (order, offsets)
}

impl Schedule {
    /// Assemble a schedule from per-task assignments; each processor's
    /// execution order is reconstructed by sorting on
    /// `(start, finish, id)`. Zero-length tasks that share an instant
    /// with other zero-length tasks may tie arbitrarily — schedulers
    /// that know the true assignment order should use
    /// [`Self::with_proc_order`] instead. External constructions should
    /// [`Self::validate`].
    pub fn new(n_procs: usize, start: Vec<u64>, finish: Vec<u64>, proc: Vec<ProcId>) -> Schedule {
        assert_eq!(start.len(), finish.len());
        assert_eq!(start.len(), proc.len());
        let mut sorted: Vec<TaskId> = (0..start.len() as u32).map(TaskId).collect();
        sorted.sort_by_key(|t| (start[t.index()], finish[t.index()], t.0));
        let (order, offsets) = csr_from_sorted(n_procs, &proc, sorted.iter().copied());
        Schedule::from_parts_unchecked(n_procs, start, finish, proc, order, offsets)
    }

    /// Assemble a schedule with the exact per-processor execution order
    /// the scheduler produced (authoritative even for chains of
    /// zero-length tasks at the same instant).
    ///
    /// # Panics
    ///
    /// Panics if the order disagrees with the `proc` assignment or does
    /// not cover every task exactly once.
    pub fn with_proc_order(
        n_procs: usize,
        start: Vec<u64>,
        finish: Vec<u64>,
        proc: Vec<ProcId>,
        proc_tasks: Vec<Vec<TaskId>>,
    ) -> Schedule {
        assert_eq!(proc_tasks.len(), n_procs);
        let mut order = Vec::with_capacity(proc.len());
        let mut offsets = Vec::with_capacity(n_procs + 1);
        offsets.push(0);
        for tasks in &proc_tasks {
            order.extend_from_slice(tasks);
            offsets.push(order.len());
        }
        Schedule::from_flat_order(n_procs, start, finish, proc, order, offsets)
    }

    /// Assemble a schedule directly from a flat CSR execution-order arena
    /// (`offsets[p]..offsets[p + 1]` delimits processor `p`'s tasks).
    /// Same contract as [`Self::with_proc_order`], minus the per-processor
    /// `Vec`s.
    ///
    /// # Panics
    ///
    /// Panics if the arena disagrees with the `proc` assignment or does
    /// not cover every task exactly once.
    pub fn from_flat_order(
        n_procs: usize,
        start: Vec<u64>,
        finish: Vec<u64>,
        proc: Vec<ProcId>,
        order: Vec<TaskId>,
        offsets: Vec<usize>,
    ) -> Schedule {
        assert_eq!(start.len(), finish.len());
        assert_eq!(start.len(), proc.len());
        assert_eq!(offsets.len(), n_procs + 1);
        assert_eq!(*offsets.last().unwrap(), order.len());
        let mut seen = vec![false; start.len()];
        for p in 0..n_procs {
            assert!(offsets[p] <= offsets[p + 1], "offsets must be monotone");
            for &t in &order[offsets[p]..offsets[p + 1]] {
                assert_eq!(proc[t.index()].index(), p, "{t} listed on wrong processor");
                assert!(!seen[t.index()], "{t} listed twice");
                seen[t.index()] = true;
            }
        }
        assert!(seen.into_iter().all(|s| s), "order must cover every task");
        Schedule::from_parts_unchecked(n_procs, start, finish, proc, order, offsets)
    }

    /// Crate-internal constructor for schedulers that build the arena
    /// correct by construction (the list scheduler's counting sort); the
    /// public constructors re-validate coverage instead.
    pub(crate) fn from_parts_unchecked(
        n_procs: usize,
        start: Vec<u64>,
        finish: Vec<u64>,
        proc: Vec<ProcId>,
        order: Vec<TaskId>,
        offsets: Vec<usize>,
    ) -> Schedule {
        debug_assert_eq!(start.len(), finish.len());
        debug_assert_eq!(start.len(), proc.len());
        debug_assert_eq!(offsets.len(), n_procs + 1);
        debug_assert_eq!(*offsets.last().unwrap(), order.len());
        let makespan = finish.iter().copied().max().unwrap_or(0);
        Schedule {
            n_procs,
            start,
            finish,
            proc,
            order,
            offsets,
            makespan,
        }
    }

    /// Number of processors the schedule uses (including any that
    /// received no tasks).
    #[inline]
    pub fn n_procs(&self) -> usize {
        self.n_procs
    }

    /// Number of scheduled tasks.
    #[inline]
    pub fn len(&self) -> usize {
        self.start.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.start.is_empty()
    }

    /// Start time of `t` in cycles.
    #[inline]
    pub fn start(&self, t: TaskId) -> u64 {
        self.start[t.index()]
    }

    /// Finish time of `t` in cycles.
    #[inline]
    pub fn finish(&self, t: TaskId) -> u64 {
        self.finish[t.index()]
    }

    /// Processor assigned to `t`.
    #[inline]
    pub fn proc(&self, t: TaskId) -> ProcId {
        self.proc[t.index()]
    }

    /// Tasks of processor `p` in execution order.
    #[inline]
    pub fn tasks_on(&self, p: ProcId) -> &[TaskId] {
        &self.order[self.offsets[p.index()]..self.offsets[p.index() + 1]]
    }

    /// Completion time of the whole schedule in cycles.
    #[inline]
    pub fn makespan_cycles(&self) -> u64 {
        self.makespan
    }

    /// Total busy cycles of processor `p`.
    pub fn busy_cycles(&self, p: ProcId) -> u64 {
        self.tasks_on(p)
            .iter()
            .map(|&t| self.finish(t) - self.start(t))
            .sum()
    }

    /// Number of processors that actually execute at least one task.
    pub fn employed_procs(&self) -> usize {
        (0..self.n_procs)
            .filter(|&p| self.offsets[p] < self.offsets[p + 1])
            .count()
    }

    /// Check structural validity against the graph: every task scheduled,
    /// precedence respected, no overlap on any processor, consistent
    /// finish times.
    pub fn validate(&self, graph: &TaskGraph) -> Result<(), ScheduleError> {
        if self.len() != graph.len() {
            return Err(ScheduleError::WrongTaskCount {
                scheduled: self.len(),
                graph: graph.len(),
            });
        }
        for t in graph.tasks() {
            if self.finish(t) != self.start(t) + graph.weight(t) {
                return Err(ScheduleError::BadFinishTime(t));
            }
            for &p in graph.predecessors(t) {
                if self.start(t) < self.finish(p) {
                    return Err(ScheduleError::PrecedenceViolation { task: t, pred: p });
                }
            }
        }
        for pi in 0..self.n_procs {
            let tasks = self.tasks_on(ProcId(pi as u32));
            for w in tasks.windows(2) {
                if self.finish(w[0]) > self.start(w[1]) {
                    return Err(ScheduleError::Overlap {
                        proc: ProcId(pi as u32),
                        first: w[0],
                        second: w[1],
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lamps_taskgraph::GraphBuilder;

    fn two_task_graph() -> TaskGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_task(5);
        let c = b.add_task(3);
        b.add_edge(a, c).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn valid_schedule_passes() {
        let g = two_task_graph();
        let s = Schedule::new(1, vec![0, 5], vec![5, 8], vec![ProcId(0), ProcId(0)]);
        assert!(s.validate(&g).is_ok());
        assert_eq!(s.makespan_cycles(), 8);
        assert_eq!(s.busy_cycles(ProcId(0)), 8);
        assert_eq!(s.employed_procs(), 1);
        assert_eq!(s.tasks_on(ProcId(0)), &[TaskId(0), TaskId(1)]);
    }

    #[test]
    fn precedence_violation_detected() {
        let g = two_task_graph();
        let s = Schedule::new(2, vec![0, 4], vec![5, 7], vec![ProcId(0), ProcId(1)]);
        assert_eq!(
            s.validate(&g),
            Err(ScheduleError::PrecedenceViolation {
                task: TaskId(1),
                pred: TaskId(0)
            })
        );
    }

    #[test]
    fn overlap_detected() {
        let mut b = GraphBuilder::new();
        b.add_task(5);
        b.add_task(3);
        let g = b.build().unwrap();
        let s = Schedule::new(1, vec![0, 4], vec![5, 7], vec![ProcId(0), ProcId(0)]);
        assert_eq!(
            s.validate(&g),
            Err(ScheduleError::Overlap {
                proc: ProcId(0),
                first: TaskId(0),
                second: TaskId(1)
            })
        );
    }

    #[test]
    fn bad_finish_detected() {
        let g = two_task_graph();
        let s = Schedule::new(1, vec![0, 5], vec![5, 9], vec![ProcId(0), ProcId(0)]);
        assert_eq!(s.validate(&g), Err(ScheduleError::BadFinishTime(TaskId(1))));
    }

    #[test]
    fn wrong_count_detected() {
        let g = two_task_graph();
        let s = Schedule::new(1, vec![0], vec![5], vec![ProcId(0)]);
        assert_eq!(
            s.validate(&g),
            Err(ScheduleError::WrongTaskCount {
                scheduled: 1,
                graph: 2
            })
        );
    }

    #[test]
    fn unused_processors_counted() {
        let g = two_task_graph();
        let s = Schedule::new(3, vec![0, 5], vec![5, 8], vec![ProcId(0), ProcId(0)]);
        s.validate(&g).unwrap();
        assert_eq!(s.n_procs(), 3);
        assert_eq!(s.employed_procs(), 1);
        assert!(s.tasks_on(ProcId(2)).is_empty());
    }
}
