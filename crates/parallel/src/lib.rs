//! A minimal scoped-thread worker pool with ordered results.
//!
//! One [`Pool`] describes a call site: a short name (used in panic
//! messages and worker span labels) and a table of metric names. The
//! two entry points are [`Pool::map`] — apply a closure to every item,
//! in parallel, preserving input order — and [`Pool::map_with`], which
//! additionally gives every worker thread its own mutable state (a
//! scratch workspace, an RNG, a schedule cache) built once per worker
//! rather than once per item.
//!
//! Workers claim items one at a time from a shared atomic counter
//! (dynamic "work-stealing-lite" chunking, so uneven item costs still
//! balance) and collect `(index, result)` pairs locally; the pairs are
//! merged into an ordered output after the scope joins. The output is
//! therefore **deterministic**: it depends only on the items and the
//! closure, never on thread interleaving. No `unsafe` anywhere — the
//! crate forbids it.
//!
//! A panic inside the closure is caught per item: the remaining workers
//! stop claiming work, the scope joins cleanly, and the pool re-panics
//! on the caller's thread naming the lowest failing item index (plus
//! the original message when it was a string). Without this, the panic
//! would tear down one worker while the others kept burning through the
//! remaining items, and the eventual join error would not say which
//! input was responsible.
//!
//! On a single-core host (or for empty/singleton inputs) everything
//! runs inline on the caller's thread with the same semantics — same
//! ordering, same panic format, no thread is spawned.

#![forbid(unsafe_code)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Metric names recorded by a [`Pool`] when the global metrics registry
/// is enabled. All fields are `&'static str` because the registry
/// interns names statically.
#[derive(Debug, Clone, Copy)]
pub struct PoolMetrics {
    /// Counter: number of `map`/`map_with` calls.
    pub calls: &'static str,
    /// Counter: total items across all calls.
    pub items: &'static str,
    /// Histogram: per-worker microseconds spent inside the closure.
    pub worker_busy_us: &'static str,
    /// Histogram: per-worker microseconds outside the closure
    /// (claiming, merging, waiting).
    pub worker_idle_us: &'static str,
    /// Histogram: items processed per worker.
    pub worker_items: &'static str,
}

/// A named parallel-map call site. Construct with [`Pool::new`]
/// (usually as a `const`) and call [`Pool::map`] / [`Pool::map_with`].
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    /// Label used in panic messages ("`{name}` worker panicked on item
    /// …") and worker span names.
    name: &'static str,
    /// Trace-span category for worker spans.
    span_cat: &'static str,
    metrics: PoolMetrics,
}

impl Pool {
    /// A pool description; `const`-constructible so call sites can keep
    /// one in a `static`.
    pub const fn new(name: &'static str, span_cat: &'static str, metrics: PoolMetrics) -> Self {
        Pool {
            name,
            span_cat,
            metrics,
        }
    }

    /// Worker threads a call over `n_items` items would use: the
    /// machine's available parallelism capped by the item count.
    fn threads_for(&self, n_items: usize) -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(n_items.max(1))
    }

    /// Apply `f` to every item, in parallel, preserving order.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.map_with(items, || (), |(), item, _| f(item))
    }

    /// [`Pool::map`] with per-worker mutable state: `init` runs once on
    /// each worker thread (and once inline for the sequential
    /// fallback), and `f` receives `(&mut state, &item, index)`. Use
    /// this to amortize scratch allocations across the items a worker
    /// processes; for the result to stay deterministic the state must
    /// not leak information between items in a way that changes `f`'s
    /// output (a cleared scratch buffer is fine, an accumulating cache
    /// that alters results is not).
    pub fn map_with<S, T, R, I, F>(&self, items: &[T], init: I, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, &T, usize) -> R + Sync,
    {
        if lamps_obs::metrics_enabled() {
            lamps_obs::counter(self.metrics.calls).inc();
            lamps_obs::counter(self.metrics.items).add(items.len() as u64);
        }
        let n_threads = self.threads_for(items.len());
        if n_threads <= 1 || items.len() <= 1 {
            let mut state = init();
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| {
                    catch_unwind(AssertUnwindSafe(|| f(&mut state, item, i))).unwrap_or_else(
                        |payload| {
                            panic!(
                                "{} worker panicked on item {i}: {}",
                                self.name,
                                payload_msg(&*payload)
                            )
                        },
                    )
                })
                .collect();
        }

        let next = AtomicUsize::new(0);
        let failed = AtomicUsize::new(usize::MAX);
        let first_panic: Mutex<Option<(usize, String)>> = Mutex::new(None);
        let mut parts: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n_threads)
                .map(|w| {
                    let init = &init;
                    let f = &f;
                    let next = &next;
                    let failed = &failed;
                    let first_panic = &first_panic;
                    let worker = w;
                    scope.spawn(move || {
                        // Per-worker accounting only runs when
                        // observability is on; the disabled path pays
                        // two relaxed atomic loads.
                        let obs_on = lamps_obs::metrics_enabled();
                        let _wspan = if lamps_obs::tracing_enabled() {
                            lamps_obs::span_named(
                                self.span_cat,
                                format!("{}_worker_{worker}", self.name),
                            )
                        } else {
                            lamps_obs::trace::Span::inert()
                        };
                        let started = obs_on.then(Instant::now);
                        let mut busy_us: u64 = 0;
                        let mut local: Vec<(usize, R)> = Vec::new();
                        let mut state = init();
                        loop {
                            if failed.load(Ordering::Relaxed) != usize::MAX {
                                break;
                            }
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= items.len() {
                                break;
                            }
                            let item_start = obs_on.then(Instant::now);
                            let outcome =
                                catch_unwind(AssertUnwindSafe(|| f(&mut state, &items[i], i)));
                            if let Some(t0) = item_start {
                                busy_us += t0.elapsed().as_micros() as u64;
                            }
                            match outcome {
                                Ok(r) => local.push((i, r)),
                                Err(payload) => {
                                    failed.fetch_min(i, Ordering::Relaxed);
                                    let msg = payload_msg(&*payload);
                                    let mut slot = first_panic.lock().unwrap_or_else(|e| {
                                        // Only this closure locks, and
                                        // it never panics while holding
                                        // it.
                                        e.into_inner()
                                    });
                                    if slot.as_ref().is_none_or(|(j, _)| i < *j) {
                                        *slot = Some((i, msg));
                                    }
                                    break;
                                }
                            }
                        }
                        if let Some(t0) = started {
                            let total_us = t0.elapsed().as_micros() as u64;
                            lamps_obs::histogram(self.metrics.worker_busy_us).record(busy_us);
                            lamps_obs::histogram(self.metrics.worker_idle_us)
                                .record(total_us.saturating_sub(busy_us));
                            lamps_obs::histogram(self.metrics.worker_items)
                                .record(local.len() as u64);
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect()
        });

        if failed.load(Ordering::Relaxed) != usize::MAX {
            let (i, msg) = first_panic
                .into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("a failed index implies a recorded panic");
            panic!("{} worker panicked on item {i}: {msg}", self.name);
        }

        let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        for part in parts.drain(..) {
            for (i, r) in part {
                debug_assert!(out[i].is_none(), "index {i} claimed twice");
                out[i] = Some(r);
            }
        }
        out.into_iter()
            .map(|r| r.expect("every index was processed"))
            .collect()
    }
}

/// Best-effort rendering of a caught panic payload.
fn payload_msg(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_POOL: Pool = Pool::new(
        "test_pool",
        "parallel",
        PoolMetrics {
            calls: "parallel.test.calls",
            items: "parallel.test.items",
            worker_busy_us: "parallel.test.worker_busy_us",
            worker_idle_us: "parallel.test.worker_idle_us",
            worker_items: "parallel.test.worker_items",
        },
    );

    #[test]
    fn maps_in_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = TEST_POOL.map(&items, |&x| x * x);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i as u64) * (i as u64));
        }
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(TEST_POOL.map(&empty, |&x| x).is_empty());
        assert_eq!(TEST_POOL.map(&[42], |&x| x + 1), vec![43]);
    }

    #[test]
    #[should_panic(expected = "test_pool worker panicked on item 37: boom at 37")]
    fn worker_panic_reports_lowest_failing_index() {
        let items: Vec<u64> = (0..256).collect();
        // Items at and above 37 panic; the report must name the lowest.
        TEST_POOL.map(&items, |&x| {
            if x >= 37 {
                panic!("boom at {x}");
            }
            x
        });
    }

    #[test]
    fn per_worker_state_is_reused_not_shared() {
        // Each worker gets its own Vec built by `init`; the closure
        // clears and refills it per item, so results are independent of
        // which worker ran which item.
        let items: Vec<u64> = (0..512).collect();
        let out = TEST_POOL.map_with(&items, Vec::<u64>::new, |scratch, &x, i| {
            scratch.clear();
            scratch.extend(0..=x % 7);
            scratch.iter().sum::<u64>() + i as u64
        });
        for (i, &v) in out.iter().enumerate() {
            let x = i as u64;
            let expected: u64 = (0..=x % 7).sum::<u64>() + x;
            assert_eq!(v, expected);
        }
    }

    #[test]
    fn state_init_runs_on_sequential_fallback_too() {
        let out = TEST_POOL.map_with(&[7u64], || 100u64, |s, &x, _| *s + x);
        assert_eq!(out, vec![107]);
    }

    #[test]
    fn heavier_closure() {
        let items: Vec<u64> = (0..64).collect();
        let out = TEST_POOL.map(&items, |&x| (0..1000).fold(x, |a, b| a.wrapping_add(b)));
        assert_eq!(out.len(), 64);
        assert_eq!(out[0], (0..1000).sum::<u64>());
    }
}
