//! Work-stealing parallel mining runtime.
//!
//! All three mining kernels parallelise the same way: the search space
//! splits at the root into independent first-item subtrees (LCM: first-rank
//! projections; Eclat: equivalence classes; FP-growth: per-item conditional
//! trees), each subtree is mined serially by whichever worker picks it up,
//! and per-task outputs are merged back in subtree rank order so the
//! result is bit-identical to a serial run. This crate owns the middle of
//! that sandwich: [`run`], a fixed-task work-stealing scheduler that
//! hands results back in task order, built on `std::thread::scope` only
//! (no external dependencies).
//!
//! Scheduling model:
//!
//! * Tasks are fixed up front — mining a subtree never spawns new tasks —
//!   so termination is simply "every deque is empty" and no worker ever
//!   blocks on another. No condition variables, no deadlock.
//! * Tasks are dealt round-robin in rank order. Kernels order subtrees so
//!   low ranks are the biggest (most frequent first item), and round-robin
//!   spreads those hot subtrees across workers, the same static balance the
//!   original per-kernel code used.
//! * An idle worker first drains its own deque from the front, then steals
//!   one task from the *back* of the nearest non-empty victim. Stealing
//!   from the back takes the task the owner would reach last, minimising
//!   contention on the deque front. One worker has no victims, so it just
//!   drains its deque in rank order.
//! * The calling thread is worker 0; the others are scoped threads. Each
//!   worker records `(task_index, result)` pairs, and after the join the
//!   results are re-slotted by task index, so callers observe task order —
//!   never thread interleaving order.
//!
//! Panic safety: a panicking task poisons nothing. Each task closure runs
//! inside a per-task unwind catch; the first failure is recorded as a
//! [`TaskPanic`] (task index + payload), the failed task's result slot
//! stays `None` — explicitly incomplete, so a prefix replay can never
//! treat it as finished — and every worker abandons its remaining queue.
//! [`run`] hands the failure back as a value, so it can never deadlock
//! or unwind across the caller.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// The first task panic of a run: which task failed and the unwind
/// payload its closure raised.
pub struct TaskPanic {
    /// Index (in the submitted task list) of the task whose closure
    /// panicked. Its result slot is `None`.
    pub task_index: usize,
    /// The captured panic payload, as [`std::thread::JoinHandle::join`]
    /// would deliver it.
    pub payload: Box<dyn std::any::Any + Send + 'static>,
}

impl std::fmt::Debug for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskPanic")
            .field("task_index", &self.task_index)
            .finish_non_exhaustive()
    }
}

/// The worker count used for `n_tasks` tasks at a requested `threads`
/// (`0` = the host's available parallelism): clamped to the task count
/// from above and to `1` from below, so it is never zero.
fn effective_threads(threads: usize, n_tasks: usize) -> usize {
    let requested = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    };
    requested.min(n_tasks).max(1)
}

/// One worker's deque of `(task_index, task)` pairs.
type Deque<T> = Mutex<VecDeque<(usize, T)>>;

/// Locks a deque, ignoring poisoning: a panicked sibling can only leave
/// the deque in a consistent state (push/pop are single operations).
fn lock<T>(q: &Deque<T>) -> std::sync::MutexGuard<'_, VecDeque<(usize, T)>> {
    q.lock().unwrap_or_else(|e| e.into_inner())
}

/// Scans victims nearest-first and takes one task from the back of the
/// first non-empty victim deque; `None` when every other deque is empty.
///
/// This is the hottest part of an idle worker's life, so it must not
/// allocate (proven at runtime by `steal_path_is_allocation_free`).
// also-lint: hot
fn steal<T>(deques: &[Deque<T>], w: usize) -> Option<(usize, T)> {
    let n_workers = deques.len();
    (1..n_workers).find_map(|d| {
        // In range by the modulo; a missing deque just means no victim.
        deques
            .get((w + d) % n_workers)
            .and_then(|victim| lock(victim).pop_back())
    })
}

/// Runs `f` over every task on a work-stealing pool of `threads`
/// workers (`0` = the host's available parallelism; never more workers
/// than tasks) and returns one result slot per task, **in task order**,
/// regardless of which worker ran what.
///
/// Every worker polls `stop()` before each task; once it returns `true`,
/// workers finish the task they are on, abandon everything still queued,
/// and join. The slot of every task that ran holds `Some`, an abandoned
/// task's slot `None`. `stop` must be monotonic (once `true`, stays
/// `true`) — `fpm`'s `MineControl::should_stop` is, and it is the
/// intended predicate: pass `|| control.should_stop()`. Which tasks are
/// abandoned depends on steal timing and is *not* deterministic; callers
/// that need a deterministic output replay completed slots in task order
/// only up to the first incomplete one (`fpm::replay_merged_prefix`).
///
/// A task panic is caught at the task boundary and returned as the
/// second tuple element: the failed task's slot stays `None`, every
/// worker abandons its remaining queue, and completed sibling results
/// (including tasks *after* the failed index that finished before the
/// failure was observed) keep their slots, exactly like a stop.
pub fn run<T, R, C, F>(
    tasks: Vec<T>,
    threads: usize,
    stop: C,
    f: F,
) -> (Vec<Option<R>>, Option<TaskPanic>)
where
    T: Send,
    R: Send,
    C: Fn() -> bool + Sync,
    F: Fn(T) -> R + Sync,
{
    let n_tasks = tasks.len();
    let n_workers = effective_threads(threads, n_tasks);

    // Deal tasks round-robin in rank order: task i -> deque i % n_workers.
    let deques: Vec<Deque<T>> = (0..n_workers)
        .map(|_| Mutex::new(VecDeque::new()))
        .collect();
    for (idx, task) in tasks.into_iter().enumerate() {
        // idx % n_workers is in range by construction of `deques`.
        if let Some(q) = deques.get(idx % n_workers) {
            lock(q).push_back((idx, task));
        }
    }

    // Task failure bookkeeping: the flag makes every worker bail like a
    // cooperative stop, the mutex records the first (task index,
    // payload) pair.
    let failed = AtomicBool::new(false);
    let first_panic: Mutex<Option<TaskPanic>> = Mutex::new(None);

    let worker = |w: usize| -> Vec<(usize, R)> {
        let mut out = Vec::new();
        // w < n_workers by the spawn range; a missing deque means this
        // worker was dealt nothing.
        let Some(own_queue) = deques.get(w) else {
            return out;
        };
        loop {
            // Cooperative cancellation — or a sibling's task failure:
            // abandon whatever is still queued. Other workers observe the
            // same (monotonic) predicates and do likewise.
            // ORDERING: Relaxed — the advisory flag the task catch below
            // sets; a stale read costs one extra task, never correctness
            // (results merge after join).
            if stop() || failed.load(Ordering::Relaxed) {
                return out;
            }
            // Own deque first, front to back; then one task from the
            // nearest victim's back, after the chaos steal-latency site
            // (a constant no-op without the feature; must never change
            // merged output).
            let own = lock(own_queue).pop_front();
            let next = own.or_else(|| {
                fpm::faults::steal_delay();
                steal(&deques, w)
            });
            // Every deque empty and tasks are never spawned dynamically:
            // this worker is done.
            let Some((idx, task)) = next else {
                return out;
            };
            // The task runs inside an unwind catch; a panic leaves its
            // slot empty — explicitly incomplete.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if fpm::faults::worker_panic(idx) {
                    // The chaos injection site itself: the panic is raised
                    // *inside* this catch_unwind on purpose, taking the
                    // exact path a real kernel bug would.
                    // also-lint: allow(panic-path)
                    panic!("chaos: injected worker panic at task {idx}");
                }
                f(task)
            }));
            match result {
                Ok(r) => out.push((idx, r)),
                Err(payload) => {
                    // ORDERING: Relaxed — advisory early-exit flag; the
                    // authoritative panic payload travels under the
                    // `first_panic` mutex and the scope join, so nothing
                    // is published through this store.
                    failed.store(true, Ordering::Relaxed);
                    let mut slot = first_panic.lock().unwrap_or_else(|e| e.into_inner());
                    if slot.is_none() {
                        *slot = Some(TaskPanic {
                            task_index: idx,
                            payload,
                        });
                    }
                }
            }
        }
    };

    let mut slots: Vec<Option<R>> = (0..n_tasks).map(|_| None).collect();
    std::thread::scope(|scope| {
        let worker = &worker;
        let helpers: Vec<_> = (1..n_workers)
            .map(|w| scope.spawn(move || worker(w)))
            .collect();
        let mut done = vec![worker(0)];
        for h in helpers {
            // Task panics are caught inside the worker loop; a join error
            // is a bug in the loop itself, so it propagates.
            done.push(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        for (idx, r) in done.into_iter().flatten() {
            if let Some(slot) = slots.get_mut(idx) {
                debug_assert!(slot.is_none(), "task {idx} ran twice");
                *slot = Some(r);
            }
        }
    });

    let panic = first_panic.into_inner().unwrap_or_else(|e| e.into_inner());
    (slots, panic)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f` over `tasks` with no stop and no panic expected,
    /// unwrapping every slot.
    fn run_all<T: Send, R: Send>(
        tasks: Vec<T>,
        threads: usize,
        f: impl Fn(T) -> R + Sync,
    ) -> Vec<R> {
        let (slots, panic) = run(tasks, threads, || false, f);
        assert!(panic.is_none());
        slots
            .into_iter()
            .map(|r| r.expect("every task runs"))
            .collect()
    }

    #[test]
    fn empty_task_list_returns_empty() {
        for threads in [0, 1, 4] {
            let out = run_all(Vec::<u32>::new(), threads, |x| x * 2);
            assert!(out.is_empty());
        }
    }

    #[test]
    fn single_task_single_result() {
        for threads in [1, 2, 8] {
            let out = run_all(vec![21u64], threads, |x| x * 2);
            assert_eq!(out, vec![42]);
        }
    }

    #[test]
    fn more_threads_than_tasks() {
        // 7 threads, 3 tasks: effective pool clamps to 3, all complete.
        let out = run_all(vec![1, 2, 3], 7, |x| x + 10);
        assert_eq!(out, vec![11, 12, 13]);
    }

    #[test]
    fn results_are_in_task_order_for_any_thread_count() {
        let tasks: Vec<usize> = (0..257).collect();
        let expect: Vec<usize> = tasks.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 4, 7, 16] {
            let out = run_all(tasks.clone(), threads, |x| x * x);
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn stealing_rebalances_skewed_work() {
        // Worker 0's deque gets the slow task plus a quarter of the quick
        // ones; other workers run dry and must steal to finish. Completion
        // of all tasks in order proves the steal path terminates correctly.
        let tasks: Vec<u64> = (0..64).collect();
        let out = run_all(tasks, 4, |x| {
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            x + 1
        });
        assert_eq!(out, (1..=64).collect::<Vec<u64>>());
    }

    #[test]
    fn settled_marks_the_panicked_task_incomplete_at_every_index() {
        // The replay-prefix contract depends on a panicked task's slot
        // being None — explicitly incomplete — never a phantom result.
        // Sweep the panic across every task index at several thread
        // counts; whatever else completes, slot k must stay empty and
        // the failure must name task k.
        let n = 12usize;
        for threads in [1usize, 2, 4] {
            for k in 0..n {
                let (slots, panic) = run(
                    (0..n).collect::<Vec<usize>>(),
                    threads,
                    || false,
                    |x| {
                        if x == k {
                            panic!("boom at task {x}");
                        }
                        x * 10
                    },
                );
                assert_eq!(slots.len(), n, "threads={threads} k={k}");
                assert!(
                    slots[k].is_none(),
                    "threads={threads} k={k}: panicked task must stay incomplete"
                );
                let p = panic.expect("the failure must be reported");
                assert_eq!(p.task_index, k, "threads={threads} k={k}");
                let msg = p
                    .payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                assert!(msg.contains("boom"), "threads={threads} k={k}: {msg:?}");
                // Slots that did complete hold the right values.
                for (i, s) in slots.iter().enumerate() {
                    if let Some(v) = s {
                        assert_eq!(*v, i * 10, "threads={threads} k={k} slot={i}");
                    }
                }
            }
        }
    }

    #[test]
    fn without_a_panic_every_slot_is_filled() {
        for threads in [1usize, 3] {
            let (slots, panic) = run(
                (0..40u32).collect::<Vec<u32>>(),
                threads,
                || false,
                |x| x + 1,
            );
            assert!(panic.is_none(), "threads={threads}");
            assert_eq!(
                slots,
                (1..=40u32).map(Some).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn steal_path_is_allocation_free() {
        // Build four deques, pile tasks onto every victim, and drain them
        // all through worker 0's steal path under the alloc guard: the
        // `// also-lint: hot` claim on `steal`, proven at runtime.
        let n_workers = 4;
        let deques: Vec<Deque<u64>> = (0..n_workers)
            .map(|_| Mutex::new(VecDeque::new()))
            .collect();
        for i in 0..48 {
            lock(&deques[i % n_workers]).push_back((i, i as u64));
        }
        let mut seen = 0u64;
        fpm::alloc_guard::assert_no_alloc(|| {
            while let Some((_, t)) = steal(&deques, 0) {
                seen += t;
            }
        });
        // Worker 0 never steals from itself, so its own 12 tasks remain.
        let own: u64 = (0..48)
            .filter(|i| i % n_workers == 0)
            .map(|i| i as u64)
            .sum();
        assert_eq!(seen, (0..48u64).sum::<u64>() - own);
        assert_eq!(lock(&deques[0]).len(), 12);
    }

    #[test]
    fn zero_threads_means_auto() {
        assert!(effective_threads(0, 64) >= 1);
        assert_eq!(effective_threads(0, 0), 1);
        // Explicit counts clamp to the task count.
        assert_eq!(effective_threads(100, 3), 3);
    }

    #[test]
    fn effective_threads_with_no_tasks() {
        // n_tasks == 0 must be total and never return 0, whatever the
        // requested thread count.
        for threads in [0usize, 1, 2, 7, 100] {
            assert_eq!(effective_threads(threads, 0), 1, "threads={threads}");
        }
        // And the scheduler accepts the degenerate call outright.
        let (slots, panic) = run(Vec::<u8>::new(), 0, || false, |x| x);
        assert!(slots.is_empty() && panic.is_none());
    }

    #[test]
    fn stop_predicate_abandons_remaining_tasks() {
        for threads in [1usize, 4] {
            let hit = AtomicBool::new(false);
            let (out, _) = run(
                (0..128u32).collect::<Vec<u32>>(),
                threads,
                || hit.load(Ordering::Relaxed),
                |x| {
                    // Small per-task pause so the trip lands while other
                    // workers still have queued work to abandon.
                    std::thread::sleep(std::time::Duration::from_micros(500));
                    if x == 5 {
                        hit.store(true, Ordering::Relaxed);
                    }
                    x
                },
            );
            assert_eq!(out.len(), 128);
            let ran = out.iter().flatten().count();
            assert!(ran < 128, "threads={threads}: stop must abandon work");
            // Task 5 itself always completes (stop is polled *between*
            // tasks, never mid-task).
            assert_eq!(out[5], Some(5), "threads={threads}");
        }
    }

    #[test]
    fn never_stopping_predicate_runs_everything() {
        let (out, _) = run((0..64u32).collect::<Vec<u32>>(), 3, || false, |x| x * 2);
        assert_eq!(out, (0..64u32).map(|x| Some(x * 2)).collect::<Vec<_>>());
    }

    #[test]
    fn pre_tripped_stop_runs_nothing() {
        for threads in [1usize, 4] {
            let (out, _) = run((0..32u32).collect::<Vec<u32>>(), threads, || true, |x| x);
            assert!(out.iter().all(|r| r.is_none()), "threads={threads}");
        }
    }
}
