//! FP-Growth's [`KernelSpine`] implementation — the kernel's
//! task-parallel skeleton consumed by `fpm-exec`'s `MinePlan`
//! (DESIGN.md §11).
//!
//! The header-table walk of the root FP-tree runs bottom-up (highest
//! rank first), and each item's conditional tree is independent of
//! every other's: one task per frequent header item, mined against the
//! shared read-only root tree. The serial [`crate::mine_probed`] is one
//! `mine_tasks` call over every task, so task outputs concatenate in
//! walk order to its emission sequence by construction.

use crate::tree::FpTree;
use crate::{CondBase, FpConfig, FpStats, Miner};
use fpm::control::MineControl;
use fpm::exec::KernelSpine;
use fpm::{remap_lex, PatternSink, RankMap, RankedDb, TransactionDb, TranslateSink};
use memsim::Probe;

/// The spine handle: a zero-sized type carrying the associated items.
#[derive(Debug, Clone, Copy, Default)]
pub struct FpSpine;

/// The shared read-only root of an FP-Growth run: remapped rank space
/// plus the finalized root FP-tree.
pub struct FpPrepared {
    map: RankMap,
    pub(crate) tree: FpTree,
    n_ranks: usize,
    minsup: u64,
    cfg: FpConfig,
}

impl KernelSpine for FpSpine {
    type Config = FpConfig;
    type Prepared = FpPrepared;
    /// One frequent header item (its conditional-tree subtree).
    type Task = u32;
    type Stats = FpStats;

    /// Builds the root FP-tree, charging the P1 reorder and every insert
    /// to `probe`.
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
        let mut tree = FpTree::new(n_ranks, cfg.repr());
        for t in &transactions {
            tree.insert(t, 1, probe);
        }
        tree.finalize();
        FpPrepared {
            map,
            tree,
            n_ranks,
            minsup: minsup.max(1),
            cfg: *cfg,
        }
    }

    fn root_tasks(prepared: &Self::Prepared) -> Vec<Self::Task> {
        // Bottom-up header walk: the serial miner visits highest ranks
        // first, so descending rank *is* the serial emission order.
        (0..prepared.n_ranks as u32)
            .rev()
            .filter(|&item| prepared.tree.header_sup[item as usize] >= prepared.minsup)
            .collect()
    }

    fn mine_tasks<P: Probe, S: PatternSink>(
        prepared: &Self::Prepared,
        tasks: &[Self::Task],
        probe: &mut P,
        control: &MineControl,
        sink: &mut S,
    ) -> (FpStats, bool) {
        let mut translate = TranslateSink::new(&prepared.map, sink);
        let mut miner = Miner {
            minsup: prepared.minsup,
            cfg: prepared.cfg,
            probe,
            sink: &mut translate,
            stats: FpStats::default(),
            control,
            cut: false,
            prefix: Vec::new(),
            counts: vec![0u64; prepared.n_ranks],
            stamps: vec![0u32; prepared.n_ranks],
            epoch: 0,
            base: CondBase::default(),
        };
        for &item in tasks {
            miner.mine_item(&prepared.tree, item);
            if miner.cut {
                break;
            }
        }
        (miner.stats, !miner.cut)
    }
}
