//! Regression for the panicked-task replay hole: a worker panic
//! mid-run must leave the failed task's slot explicitly incomplete, so
//! the rank-ordered prefix replay can never replay a task that did not
//! finish. Sweeps an injected panic across *every* task index of a
//! small dataset, at every thread count, for all three kernels.
#![cfg(feature = "chaos")]

use chaos::campaign;
use exec::MinePlan;
use fpm::control::{MineControl, StopCause};
use fpm::faults::{install, FaultPlan, FaultSite};
use fpm::{RecordSink, TransactionDb};

fn small_db() -> TransactionDb {
    TransactionDb::from_transactions(vec![
        vec![0, 2, 5, 7],
        vec![1, 2, 5, 8],
        vec![0, 2, 5, 9],
        vec![3, 4, 7, 8],
        vec![0, 1, 2, 3, 4, 5],
        vec![5, 7, 8, 9],
        vec![0, 3, 5, 7, 9],
    ])
}

#[test]
fn a_panic_at_every_task_index_cuts_a_clean_prefix() {
    // The fault-plan slot is process-global; serialize with anything
    // else that installs plans in this binary.
    let _serialize = campaign::lock().lock().unwrap_or_else(|e| e.into_inner());
    let db = small_db();
    for kernel in fpm::Kernel::ALL {
        let mut golden = RecordSink::default();
        assert!(MinePlan::kernel(kernel, 2).execute(&db, &mut golden).complete);
        for threads in [1usize, 2, 4] {
            // Walk the panic forward one task at a time until the plan
            // stops firing — i.e. past the last root task.
            let mut indices_hit = 0u64;
            for k in 0u64.. {
                let guard = install(FaultPlan::at(FaultSite::WorkerPanic, k));
                let control = MineControl::unlimited();
                let mut sink = RecordSink::default();
                let summary = MinePlan::kernel(kernel, 2)
                    .threads(threads)
                    .execute_controlled(&db, &control, &mut sink);
                let fired = guard.plan().fired();
                drop(guard);
                let ctx = format!("kernel={} threads={threads} task={k}", kernel.label());
                if fired == 0 {
                    // Past the task list: the run must be untouched.
                    assert!(summary.complete, "{ctx}: no panic, run must complete");
                    assert_eq!(sink.bytes, golden.bytes, "{ctx}");
                    break;
                }
                indices_hit += 1;
                assert_eq!(
                    summary.stop_cause,
                    Some(StopCause::TaskPanicked),
                    "{ctx}: the panic must be the recorded first cause"
                );
                assert!(!summary.complete, "{ctx}: a panicked run cannot be complete");
                assert!(
                    golden.bytes.starts_with(&sink.bytes),
                    "{ctx}: output after a task panic must be a serial prefix"
                );
                assert!(
                    sink.bytes.is_empty() || sink.bytes.ends_with(b"\n"),
                    "{ctx}: prefix must be line-aligned"
                );
                // The cut lands strictly before the panicked task: with
                // the panic at task 0, nothing may be replayed at all.
                if k == 0 {
                    assert!(sink.bytes.is_empty(), "{ctx}: task 0 panicked, nothing finished before it");
                }
            }
            assert!(
                indices_hit >= 2,
                "kernel={} threads={threads}: the sweep must cover several tasks (hit {indices_hit})",
                kernel.label()
            );
        }
    }
}
