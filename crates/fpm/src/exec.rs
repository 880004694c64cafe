//! The kernel execution contract: [`KernelSpine`].
//!
//! Every mining kernel in this workspace parallelises and cancels the
//! same way (DESIGN.md §11): the search space splits at the root into
//! independent first-item subtrees, each subtree is mined serially with
//! the shared [`MineControl`] polled at recursion-node granularity, and
//! subtree outputs concatenated in root-task order reproduce the
//! kernel's serial emission sequence exactly. `KernelSpine` captures
//! that shape as a trait, so the one generic driver in `fpm-exec` can
//! wire probes, control, sinks, and the work-stealing runtime for all
//! kernels at once instead of once per kernel.
//!
//! The spine is also the kernel's serial mining path: the serial entry
//! (`mine_probed` of LCM and FP-Growth, `eclat::tidlist::mine_probed`
//! for the hybrid Eclat miner) is `prepare`, `root_tasks` and one
//! [`mine_tasks`](KernelSpine::mine_tasks) call over every task, so the
//! serial sequence is the in-order concatenation by construction.
//!
//! Implementations live with the kernels (`fpm-lcm`, `fpm-eclat`,
//! `fpm-fpgrowth`); outside them the only caller is `fpm-exec`'s
//! `MinePlan`. Direct use anywhere else is rejected by also-lint rule R6
//! (`kernel-entry`).

use crate::control::MineControl;
use crate::db::TransactionDb;
use crate::sink::PatternSink;
use memsim::Probe;

/// One kernel's task-parallel skeleton: prepare the database once,
/// enumerate the root subtrees in serial emission order, mine any run
/// of subtrees into a sink.
///
/// # Contract
///
/// * `root_tasks` returns subtrees in the kernel's **serial emission
///   order**. The serial entry mines them all in one [`mine_tasks`]
///   call; mining them one call per task into the same sink produces
///   the same byte sequence.
/// * `mine_tasks` emits patterns in **original item ids** (the spine
///   owns the rank translation), polls `control` at recursion-node
///   granularity, and reports `false` iff it observed a stop signal and
///   cut its tasks short — so its output may be a proper prefix of
///   their serial output (always a prefix, never a reordering).
/// * Tasks are independent: mining them concurrently from shared
///   `&Prepared` is safe, and per-task outputs concatenated in task
///   order equal the serial sequence.
///
/// [`mine_tasks`]: KernelSpine::mine_tasks
pub trait KernelSpine {
    /// Kernel configuration (ablation variant flags).
    type Config: Clone + Send + Sync;
    /// The prepared database: remapped, restructured, ready to mine.
    type Prepared: Send + Sync;
    /// One root subtree, cheap to copy across worker threads.
    type Task: Copy + Send + Sync;
    /// The kernel's work counters for one `mine_tasks` call.
    type Stats;

    /// Remaps and restructures `db` for mining at `minsup`, charging the
    /// root build's memory traffic (the P1 reorder included) to `probe`.
    /// Preparation is uncontrolled: it does no emission.
    fn prepare<P: Probe>(
        db: &TransactionDb,
        minsup: u64,
        cfg: &Self::Config,
        probe: &mut P,
    ) -> Self::Prepared;

    /// The root subtrees in serial emission order.
    fn root_tasks(prepared: &Self::Prepared) -> Vec<Self::Task>;

    /// Mines `tasks`, in order and with one miner, into `sink`, charging
    /// memory traffic to `probe` and polling `control` per recursion
    /// node. Returns the work counters and `true` iff every task was
    /// mined to completion (no stop signal seen).
    fn mine_tasks<P: Probe, S: PatternSink>(
        prepared: &Self::Prepared,
        tasks: &[Self::Task],
        probe: &mut P,
        control: &MineControl,
        sink: &mut S,
    ) -> (Self::Stats, bool);
}
