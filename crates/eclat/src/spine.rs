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
//! The serial hybrid miner, [`crate::tidlist::mine_probed`] with
//! [`SparseRepr::Hybrid`](crate::tidlist::SparseRepr::Hybrid), is one
//! `mine_tasks` call over every task.
//!
//! The prepared root also keeps the ranked rows the columns were built
//! from, for the length of one mine: each root task counts its root
//! pairs over them ([`crate::count_root_pairs`]) and intersects only the
//! pairs that reach minsup. Each `mine_tasks` call allocates one
//! counter per item for that pass.

use crate::hybrid::HybridMiner;
use crate::tidlist::SparseStats;
use crate::EclatConfig;
use fpm::control::MineControl;
use fpm::exec::KernelSpine;
use fpm::vertical::VerticalHybridDb;
use fpm::{remap_lex, PatternSink, RankMap, RankedDb, TransactionDb, TranslateSink};
use memsim::Probe;

/// The spine handle: a zero-sized type carrying the associated items.
#[derive(Debug, Clone, Copy, Default)]
pub struct EclatSpine;

/// The shared read-only root of an Eclat run: remapped rank space, the
/// ranked rows, and the vertical hybrid-container database built from
/// them.
pub struct EclatPrepared {
    map: RankMap,
    rows: Vec<Vec<u32>>,
    hdb: VerticalHybridDb,
    minsup: u64,
}

impl KernelSpine for EclatSpine {
    type Config = EclatConfig;
    type Prepared = EclatPrepared;
    /// The first (lowest-rank) item of one root subtree.
    type Task = u32;
    type Stats = SparseStats;

    /// Builds the hybrid columns. Only `cfg.lex` applies, and its P1
    /// reorder is charged to `probe`: lexicographic clustering turns
    /// scattered chunks into run/dense chunks the per-chunk chooser
    /// exploits.
    fn prepare<P: Probe>(
        db: &TransactionDb,
        minsup: u64,
        cfg: &Self::Config,
        probe: &mut P,
    ) -> Self::Prepared {
        let RankedDb {
            transactions, map, ..
        } = remap_lex(db, minsup, cfg.lex, probe);
        let hdb = VerticalHybridDb::from_ranked(&transactions, map.n_ranks());
        EclatPrepared {
            map,
            rows: transactions,
            hdb,
            minsup,
        }
    }

    fn root_tasks(prepared: &Self::Prepared) -> Vec<Self::Task> {
        (0..prepared.hdb.n_items() as u32).collect()
    }

    fn mine_tasks<P: Probe, S: PatternSink>(
        prepared: &Self::Prepared,
        tasks: &[Self::Task],
        probe: &mut P,
        control: &MineControl,
        sink: &mut S,
    ) -> (SparseStats, bool) {
        let mut translate = TranslateSink::new(&prepared.map, sink);
        let mut miner = HybridMiner {
            minsup: prepared.minsup.max(1),
            probe,
            sink: &mut translate,
            stats: SparseStats::default(),
            control,
            cut: false,
            prefix: Vec::new(),
            pair_counts: vec![0; prepared.hdb.n_items()],
        };
        for &r in tasks {
            miner.mine_subtree(&prepared.hdb, &prepared.rows, r);
            if miner.cut {
                break;
            }
        }
        (miner.stats, !miner.cut)
    }
}
