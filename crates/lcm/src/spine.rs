//! LCM's [`KernelSpine`] implementation — the kernel's task-parallel
//! skeleton consumed by `fpm-exec`'s `MinePlan` (DESIGN.md §11).
//!
//! The lattice below two different first-rank extensions is disjoint, so
//! the root projection splits into one independent task per frequent
//! first rank. Preparation builds the shared read-only root (projected
//! database, duplicate merge, occurrence array) exactly once; each task
//! then mines its subtree with a private `Miner`, and task outputs in
//! rank order concatenate to the serial emission sequence of
//! [`crate::mine`].

use crate::miner::Miner;
use crate::projdb::ProjDb;
use crate::rmdup::{rm_dup_trans, BucketImpl};
use crate::LcmConfig;
use fpm::control::MineControl;
use fpm::exec::KernelSpine;
use fpm::{remap, PatternSink, RankMap, RankedDb, TransactionDb, TranslateSink};
use memsim::{NullProbe, Probe};

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
}

impl KernelSpine for LcmSpine {
    type Config = LcmConfig;
    type Prepared = LcmPrepared;
    /// `(first_rank, support)` — one frequent first-rank subtree.
    type Task = (u32, u64);

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
        let mut root = ProjDb::from_ranked(&transactions);
        root.heads = rm_dup_trans(
            &root.items,
            std::mem::take(&mut root.heads),
            if cfg.aggregate {
                BucketImpl::Aggregated
            } else {
                BucketImpl::Linked
            },
            &mut NullProbe,
        );
        root.build_occ(n_ranks, &mut NullProbe);
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
        }
    }

    fn root_tasks(prepared: &Self::Prepared) -> Vec<Self::Task> {
        prepared.children.clone()
    }

    fn mine_task<P: Probe, S: PatternSink>(
        prepared: &Self::Prepared,
        task: Self::Task,
        probe: &mut P,
        control: &MineControl,
        sink: &mut S,
    ) -> bool {
        let mut translate = TranslateSink::new(&prepared.map, sink);
        let mut miner = Miner::new(
            prepared.cfg,
            prepared.minsup,
            prepared.n_ranks,
            probe,
            control,
            &mut translate,
        );
        miner.run_children(&prepared.root, &[task]);
        !miner.cut
    }
}
