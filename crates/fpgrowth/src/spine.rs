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
//!
//! Most root walks build nothing: in root item `r`'s conditional base,
//! item `j` counts exactly `sup({r, j})`, so the base holds a frequent
//! item only when `r`'s pair ceiling ([`fpm::pair_ceilings`], cached on
//! the dataset) reaches minsup. `prepare` reads the ceilings before it
//! builds the root tree and keeps one flag per rank. A task whose flag
//! is clear still polls control and emits its singleton, but skips the
//! walk, which provably finds no frequent item, and allocates no
//! counters. Tasks, emission order and every tree built are unchanged.

use crate::tree::FpTree;
use crate::{FpConfig, FpStats, Miner};
use fpm::control::MineControl;
use fpm::exec::KernelSpine;
use fpm::{pair_ceilings, remap_lex, PatternSink, RankMap, RankedDb, TransactionDb, TranslateSink};
use memsim::Probe;

/// The spine handle: a zero-sized type carrying the associated items.
#[derive(Debug, Clone, Copy, Default)]
pub struct FpSpine;

/// The shared read-only root of an FP-Growth run: remapped rank space
/// plus the finalized root FP-tree.
pub struct FpPrepared {
    map: RankMap,
    pub(crate) tree: FpTree,
    /// Per rank: its pair ceiling reaches minsup, so its root conditional
    /// base can hold a frequent item and is worth walking.
    pub(crate) walks: Vec<bool>,
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

    /// Reads the dataset's pair ceilings, then builds the root FP-tree,
    /// charging the P1 reorder and every insert to `probe`. The ceilings
    /// are a dataset cache, counted once and charged to no run.
    fn prepare<P: Probe>(
        db: &TransactionDb,
        minsup: u64,
        cfg: &Self::Config,
        probe: &mut P,
    ) -> Self::Prepared {
        let minsup = minsup.max(1);
        // First, so that a first count's column buffer is freed before
        // the cut rows and the tree exist.
        let walks = pair_ceilings(db, minsup)
            .into_iter()
            .map(|ceiling| ceiling >= minsup)
            .collect();
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
            walks,
            n_ranks,
            minsup,
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
        let mut miner = Miner::new(
            prepared.minsup,
            prepared.cfg,
            probe,
            &mut translate,
            control,
        );
        for &item in tasks {
            miner.mine_item(&prepared.tree, item, prepared.walks[item as usize]);
            if miner.cut {
                break;
            }
        }
        (miner.stats, !miner.cut)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpm::types::canonicalize;
    use fpm::{CollectSink, CountSink};
    use memsim::NullProbe;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// At every minsup a root item skips its walk exactly when the
        /// walk would find no frequent item, and the output stays the
        /// naive miner's.
        #[test]
        fn a_root_item_skips_exactly_the_walks_that_build_no_tree(
            raw in prop::collection::vec(
                prop::collection::btree_set(0u32..14, 0..8)
                    .prop_map(|s| s.into_iter().collect::<Vec<u32>>()),
                0..50,
            ),
        ) {
            let db = TransactionDb::from_transactions(raw);
            let top = (0..db.n_items() as u32).map(|i| db.item_support(i)).max().unwrap_or(0);
            for minsup in 1..=top + 1 {
                let prepared = FpSpine::prepare(&db, minsup, &FpConfig::all(), &mut NullProbe);
                let (mut probe, mut sink) = (NullProbe, CountSink::default());
                let control = MineControl::unlimited();
                let mut miner = Miner::new(minsup, FpConfig::all(), &mut probe, &mut sink, &control);
                for item in FpSpine::root_tasks(&prepared) {
                    let builds = miner.conditional_tree(&prepared.tree, item).is_some();
                    prop_assert_eq!(prepared.walks[item as usize], builds, "minsup {} item {}", minsup, item);
                }
                let want = canonicalize(fpm::naive::mine(&db, minsup));
                for (name, cfg) in crate::variants() {
                    let mut sink = CollectSink::default();
                    crate::mine(&db, minsup, &cfg, &mut sink);
                    prop_assert_eq!(canonicalize(sink.patterns), want.clone(), "{} minsup {}", name, minsup);
                }
            }
        }
    }
}
