//! LCM's [`KernelSpine`] implementation — the kernel's task-parallel
//! skeleton consumed by `fpm-exec`'s `MinePlan` (DESIGN.md §11).
//!
//! The lattice below two different first-rank extensions is disjoint, so
//! the root projection splits into one independent task per frequent
//! first rank. Preparation builds the shared read-only root (projected
//! database, duplicate merge, occurrence array) exactly once; each
//! `mine_tasks` call then mines its tasks with a private `Miner`. The
//! serial [`crate::mine_probed`] is one call over every task, so task
//! outputs in rank order concatenate to its emission sequence by
//! construction.

use crate::miner::{LcmStats, Miner};
use crate::projdb::ProjDb;
use crate::rmdup::rm_dup_trans;
use crate::LcmConfig;
use fpm::control::MineControl;
use fpm::exec::KernelSpine;
use fpm::{remap_lex, PatternSink, RankMap, RankedDb, TransactionDb, TranslateSink};
use memsim::Probe;

/// The spine handle: a zero-sized type carrying the associated items.
#[derive(Debug, Clone, Copy, Default)]
pub struct LcmSpine;

/// The shared read-only root of an LCM run: remapped rank space plus
/// the level-0 projected database with its occurrence array.
pub struct LcmPrepared {
    map: RankMap,
    root: ProjDb,
    children: Vec<(u32, u64)>,
    n_ranks: usize,
    minsup: u64,
    cfg: LcmConfig,
    /// Transactions the root's `rm_dup_trans` merged away: the one work
    /// counter the root build contributes to a serial run's stats.
    pub(crate) root_merged: u64,
}

impl KernelSpine for LcmSpine {
    type Config = LcmConfig;
    type Prepared = LcmPrepared;
    /// `(first_rank, support)` — one frequent first-rank subtree.
    type Task = (u32, u64);
    type Stats = LcmStats;

    /// Builds the root: the P1 reorder, the duplicate merge and the
    /// occurrence array, all charged to `probe`.
    fn prepare<P: Probe>(
        db: &TransactionDb,
        minsup: u64,
        cfg: &Self::Config,
        probe: &mut P,
    ) -> Self::Prepared {
        let RankedDb {
            transactions, map, ..
        } = remap_lex(db, minsup, cfg.lex, probe);
        let n_ranks = map.n_ranks();
        let mut root = ProjDb::from_ranked(&transactions);
        let before = root.heads.len();
        root.heads = rm_dup_trans(
            &root.items,
            std::mem::take(&mut root.heads),
            cfg.bucket_impl(),
            probe,
        );
        let root_merged = (before - root.heads.len()) as u64;
        root.build_occ(n_ranks, probe);
        let children: Vec<(u32, u64)> = (0..n_ranks as u32)
            .filter_map(|r| {
                let s = root.support(r);
                (s >= minsup.max(1)).then_some((r, s))
            })
            .collect();
        LcmPrepared {
            map,
            root,
            children,
            n_ranks,
            minsup,
            cfg: *cfg,
            root_merged,
        }
    }

    fn root_tasks(prepared: &Self::Prepared) -> Vec<Self::Task> {
        prepared.children.clone()
    }

    /// One root node over `tasks`: with P6.1 on, its tiled column walk
    /// spans every task passed, so a serial run passes all of them.
    fn mine_tasks<P: Probe, S: PatternSink>(
        prepared: &Self::Prepared,
        tasks: &[Self::Task],
        probe: &mut P,
        control: &MineControl,
        sink: &mut S,
    ) -> (LcmStats, bool) {
        let mut translate = TranslateSink::new(&prepared.map, sink);
        let mut miner = Miner::new(
            prepared.cfg,
            prepared.minsup,
            prepared.n_ranks,
            probe,
            control,
            &mut translate,
        );
        miner.node(&prepared.root, tasks);
        (miner.stats, !miner.cut)
    }
}
