//! FP-Growth's [`KernelSpine`] implementation — the kernel's
//! task-parallel skeleton consumed by `fpm-exec`'s `MinePlan`
//! (DESIGN.md §11).
//!
//! The header-table walk of the root FP-tree runs bottom-up (highest
//! rank first), and each item's conditional tree is independent of
//! every other's; one task per frequent header item, mined against the
//! shared read-only root tree, concatenates in walk order to the serial
//! emission sequence of [`crate::mine`].

use crate::tree::FpTree;
use crate::{FpConfig, FpStats, Miner};
use fpm::control::MineControl;
use fpm::exec::KernelSpine;
use fpm::{remap, PatternSink, RankMap, RankedDb, TransactionDb, TranslateSink};
use memsim::{NullProbe, Probe};

/// The spine handle: a zero-sized type carrying the associated items.
#[derive(Debug, Clone, Copy, Default)]
pub struct FpSpine;

/// The shared read-only root of an FP-Growth run: remapped rank space
/// plus the finalized root FP-tree.
pub struct FpPrepared {
    map: RankMap,
    tree: FpTree,
    n_ranks: usize,
    minsup: u64,
    cfg: FpConfig,
}

impl KernelSpine for FpSpine {
    type Config = FpConfig;
    type Prepared = FpPrepared;
    /// One frequent header item (its conditional-tree subtree).
    type Task = u32;

    fn prepare(db: &TransactionDb, minsup: u64, cfg: &Self::Config) -> Self::Prepared {
        let RankedDb {
            mut transactions,
            map,
            ..
        } = remap(db, minsup);
        if cfg.lex {
            also::lexorder::lex_order(&mut transactions);
        }
        let n_ranks = map.n_ranks();
        let mut tree = FpTree::new(n_ranks, cfg.repr());
        for t in &transactions {
            tree.insert(t, 1, &mut NullProbe);
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

    fn mine_task<P: Probe, S: PatternSink>(
        prepared: &Self::Prepared,
        task: Self::Task,
        probe: &mut P,
        control: &MineControl,
        sink: &mut S,
    ) -> bool {
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
        };
        miner.mine_item(&prepared.tree, task);
        !miner.cut
    }
}
