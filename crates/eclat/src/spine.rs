//! Eclat's [`KernelSpine`] implementation — the kernel's task-parallel
//! skeleton consumed by `fpm-exec`'s `MinePlan` (DESIGN.md §11).
//!
//! The root equivalence class splits into one independent subtree per
//! first (lowest-rank) item; subtrees only *read* the shared vertical
//! database, and their outputs in item order concatenate to the serial
//! emission sequence of [`crate::mine`].
//!
//! Since the container refactor (DESIGN.md §16) the spine mines over
//! [`VerticalHybridDb`] — per-2^16-tid adaptive array/bitmap/run
//! containers — instead of the dense bit matrix. The emitted byte
//! sequence is unchanged: the class walk and minsup filter are
//! representation-independent and supports are cardinalities, which the
//! exec-conformance and chaos suites pin against the committed goldens.

use crate::hybrid::HybridMiner;
use crate::tidlist::SparseStats;
use crate::EclatConfig;
use fpm::control::MineControl;
use fpm::exec::KernelSpine;
use fpm::vertical::VerticalHybridDb;
use fpm::{remap, PatternSink, RankMap, RankedDb, TransactionDb, TranslateSink};
use memsim::Probe;

/// The spine handle: a zero-sized type carrying the associated items.
#[derive(Debug, Clone, Copy, Default)]
pub struct EclatSpine;

/// The shared read-only root of an Eclat run: remapped rank space plus
/// the vertical hybrid-container database.
pub struct EclatPrepared {
    map: RankMap,
    hdb: VerticalHybridDb,
    minsup: u64,
}

impl KernelSpine for EclatSpine {
    type Config = EclatConfig;
    type Prepared = EclatPrepared;
    /// The first (lowest-rank) item of one root subtree.
    type Task = u32;

    fn prepare(db: &TransactionDb, minsup: u64, cfg: &Self::Config) -> Self::Prepared {
        let RankedDb {
            mut transactions,
            map,
            ..
        } = remap(db, minsup);
        if cfg.lex {
            // P1 still pays: lexicographic clustering turns scattered
            // chunks into run/dense chunks the per-chunk chooser exploits.
            also::lexorder::lex_order(&mut transactions);
        }
        let hdb = VerticalHybridDb::from_ranked(&transactions, map.n_ranks());
        EclatPrepared { map, hdb, minsup }
    }

    fn root_tasks(prepared: &Self::Prepared) -> Vec<Self::Task> {
        (0..prepared.hdb.n_items() as u32).collect()
    }

    fn mine_task<P: Probe, S: PatternSink>(
        prepared: &Self::Prepared,
        task: Self::Task,
        probe: &mut P,
        control: &MineControl,
        sink: &mut S,
    ) -> bool {
        let mut translate = TranslateSink::new(&prepared.map, sink);
        let mut miner = HybridMiner {
            minsup: prepared.minsup.max(1),
            probe,
            sink: &mut translate,
            stats: SparseStats::default(),
            control,
            cut: false,
            prefix: Vec::new(),
        };
        miner.mine_subtree(&prepared.hdb, task);
        !miner.cut
    }
}
