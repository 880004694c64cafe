//! Eclat's [`KernelSpine`] implementation — the kernel's task-parallel
//! skeleton consumed by `fpm-exec`'s `MinePlan` (DESIGN.md §11).
//!
//! The root equivalence class splits into one independent subtree per
//! first (lowest-rank) item; subtrees only *read* the shared vertical
//! database, and their outputs in item order concatenate to the serial
//! emission sequence of [`crate::mine`].
//!
//! `prepare` picks the vertical columns by the density of the cut, with
//! [`also::adapt::choose_repr`]:
//!
//! * at [`also::adapt::DENSE_THRESHOLD`] or denser, the paper's bit
//!   matrix, mined by the bit-matrix `Miner` with every [`EclatConfig`]
//!   field honoured (P1 reorder, 0-escaping, the P8 popcount);
//! * below it, [`VerticalHybridDb`]'s per-2^16-tid adaptive containers
//!   (DESIGN.md §16), where only `cfg.lex` applies. The serial hybrid
//!   miner, [`crate::tidlist::mine_probed`] with
//!   [`SparseRepr::Hybrid`](crate::tidlist::SparseRepr::Hybrid), is one
//!   `mine_tasks` call over every task on these columns, whatever the
//!   density.
//!
//! The emitted byte sequence is the same on both: the class walk and
//! minsup filter are representation-independent and supports are
//! cardinalities, which the exec-conformance and chaos suites pin
//! against the committed goldens.
//!
//! The prepared root also keeps the ranked rows the columns were built
//! from, for the length of one mine: each root task counts its root
//! pairs over them ([`crate::count_root_pairs`]) and intersects only the
//! pairs that reach minsup. Each `mine_tasks` call allocates one counter
//! per item for that pass. On the bit matrix a root task first reads its
//! rank's later-pair flag ([`fpm::frequent_later_pairs`], cached on the
//! dataset, read once by `prepare`): a root whose flag is clear has an
//! empty class, so it emits its singleton and skips the pass.

use crate::hybrid::HybridMiner;
use crate::tidlist::SparseStats;
use crate::{EclatConfig, EclatStats, Miner, RootPairs};
use also::adapt::{choose_repr, Repr};
use fpm::control::MineControl;
use fpm::exec::KernelSpine;
use fpm::vertical::{VerticalBitDb, VerticalHybridDb};
use fpm::{
    frequent_later_pairs, remap_lex, PatternSink, RankMap, RankedDb, TransactionDb, TranslateSink,
};
use memsim::Probe;

/// The spine handle: a zero-sized type carrying the associated items.
#[derive(Debug, Clone, Copy, Default)]
pub struct EclatSpine;

/// The two kinds of vertical columns the spine mines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ColumnKind {
    /// The dense bit matrix.
    Bits,
    /// Hybrid per-chunk containers.
    Hybrid,
}

/// The vertical columns of one prepared run.
enum Columns {
    /// The bit matrix, with each rank's later-pair flag.
    Bits {
        vdb: VerticalBitDb,
        walks: Vec<bool>,
    },
    /// Hybrid containers.
    Hybrid(VerticalHybridDb),
}

/// The shared read-only root of an Eclat run: remapped rank space, the
/// ranked rows, and the vertical columns built from them.
pub struct EclatPrepared {
    map: RankMap,
    rows: Vec<Vec<u32>>,
    columns: Columns,
    minsup: u64,
    cfg: EclatConfig,
}

/// The work counters of one `mine_tasks` call, on the side of the
/// columns it mined; the other side stays zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpineStats {
    /// The bit-matrix miner's counters.
    pub bits: EclatStats,
    /// The hybrid miner's counters.
    pub hybrid: SparseStats,
}

impl EclatPrepared {
    /// Remaps `db` (charging the P1 reorder to `probe` when `cfg.lex`)
    /// and builds the columns of `kind`, or, with `None`, of the kind
    /// [`choose_repr`] picks for the cut's density.
    pub(crate) fn build<P: Probe>(
        db: &TransactionDb,
        minsup: u64,
        cfg: &EclatConfig,
        kind: Option<ColumnKind>,
        probe: &mut P,
    ) -> Self {
        let RankedDb {
            transactions, map, ..
        } = remap_lex(db, minsup, cfg.lex, probe);
        let kind = kind.unwrap_or_else(|| density_pick(&transactions, map.n_ranks()));
        let columns = match kind {
            // The flags first, so that a first count's column buffer is
            // freed before the bit matrix exists.
            ColumnKind::Bits => Columns::Bits {
                walks: frequent_later_pairs(db, minsup),
                vdb: VerticalBitDb::from_ranked(&transactions, map.n_ranks()),
            },
            ColumnKind::Hybrid => {
                Columns::Hybrid(VerticalHybridDb::from_ranked(&transactions, map.n_ranks()))
            }
        };
        EclatPrepared {
            map,
            rows: transactions,
            columns,
            minsup,
            cfg: *cfg,
        }
    }

    /// The kind of columns this run mines.
    #[cfg(test)]
    pub(crate) fn kind(&self) -> ColumnKind {
        match self.columns {
            Columns::Bits { .. } => ColumnKind::Bits,
            Columns::Hybrid(_) => ColumnKind::Hybrid,
        }
    }

    fn n_items(&self) -> usize {
        match &self.columns {
            Columns::Bits { vdb, .. } => vdb.n_items(),
            Columns::Hybrid(hdb) => hdb.n_items(),
        }
    }
}

/// The column kind [`choose_repr`] picks for ranked rows over `n_ranks`
/// ranks: the bit matrix at [`also::adapt::DENSE_THRESHOLD`] or denser.
fn density_pick(rows: &[Vec<u32>], n_ranks: usize) -> ColumnKind {
    let nnz = rows.iter().map(|t| t.len() as u64).sum();
    match choose_repr(rows.len(), n_ranks, nnz, 1.0) {
        Repr::VerticalBits => ColumnKind::Bits,
        Repr::HorizontalSparse | Repr::PrefixTree => ColumnKind::Hybrid,
    }
}

impl KernelSpine for EclatSpine {
    type Config = EclatConfig;
    type Prepared = EclatPrepared;
    /// The first (lowest-rank) item of one root subtree.
    type Task = u32;
    type Stats = SpineStats;

    /// Remaps `db`, charging the P1 reorder to `probe` when `cfg.lex`,
    /// and builds the columns the cut's density picks; on the bit matrix
    /// it also reads each rank's later-pair flag, a dataset cache
    /// charged to no run.
    fn prepare<P: Probe>(
        db: &TransactionDb,
        minsup: u64,
        cfg: &Self::Config,
        probe: &mut P,
    ) -> Self::Prepared {
        EclatPrepared::build(db, minsup, cfg, None, probe)
    }

    fn root_tasks(prepared: &Self::Prepared) -> Vec<Self::Task> {
        (0..prepared.n_items() as u32).collect()
    }

    fn mine_tasks<P: Probe, S: PatternSink>(
        prepared: &Self::Prepared,
        tasks: &[Self::Task],
        probe: &mut P,
        control: &MineControl,
        sink: &mut S,
    ) -> (SpineStats, bool) {
        let mut translate = TranslateSink::new(&prepared.map, sink);
        let minsup = prepared.minsup.max(1);
        match &prepared.columns {
            Columns::Bits { vdb, walks } => {
                let mut miner = Miner {
                    minsup,
                    cfg: prepared.cfg,
                    probe,
                    sink: &mut translate,
                    stats: EclatStats::default(),
                    control,
                    cut: false,
                    prefix: Vec::new(),
                    root_pairs: Some(RootPairs {
                        rows: &prepared.rows,
                        walks,
                        counts: vec![0; vdb.n_items()],
                    }),
                };
                for &r in tasks {
                    miner.mine_subtree(vdb, r);
                    if miner.cut {
                        break;
                    }
                }
                let stats = SpineStats {
                    bits: miner.stats,
                    ..SpineStats::default()
                };
                (stats, !miner.cut)
            }
            Columns::Hybrid(hdb) => {
                let mut miner = HybridMiner {
                    minsup,
                    probe,
                    sink: &mut translate,
                    stats: SparseStats::default(),
                    control,
                    cut: false,
                    prefix: Vec::new(),
                    pair_counts: vec![0; hdb.n_items()],
                };
                for &r in tasks {
                    miner.mine_subtree(hdb, &prepared.rows, r);
                    if miner.cut {
                        break;
                    }
                }
                let stats = SpineStats {
                    hybrid: miner.stats,
                    ..SpineStats::default()
                };
                (stats, !miner.cut)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpm::{CollectSink, RecordSink};
    use memsim::NullProbe;
    use proptest::prelude::*;

    fn mine_all(prepared: &EclatPrepared) -> Vec<u8> {
        let mut sink = RecordSink::default();
        let tasks = EclatSpine::root_tasks(prepared);
        let control = MineControl::unlimited();
        let (_, complete) =
            EclatSpine::mine_tasks(prepared, &tasks, &mut NullProbe, &control, &mut sink);
        assert!(complete);
        sink.bytes
    }

    /// Whether the paper's all-pairs walk of root `r` finds a frequent
    /// pair: its subtree emits more than the singleton.
    fn class_is_nonempty(vdb: &VerticalBitDb, minsup: u64, r: u32) -> bool {
        let mut sink = CollectSink::default();
        let mut miner = Miner {
            minsup,
            cfg: EclatConfig::all(),
            probe: &mut NullProbe,
            sink: &mut sink,
            stats: EclatStats::default(),
            control: &MineControl::unlimited(),
            cut: false,
            prefix: Vec::new(),
            root_pairs: None,
        };
        miner.mine_subtree(vdb, r);
        sink.patterns.len() > 1
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// At every minsup each bit-matrix root's flag says whether its
        /// class is non-empty, the unforced spine mines the columns the
        /// density rule picks, and both column kinds emit
        /// `crate::mine`'s bytes under every Figure 8 variant.
        #[test]
        fn flags_name_the_nonempty_classes_and_both_columns_emit_the_kernel_bytes(
            raw in prop::collection::vec(
                prop::collection::btree_set(0u32..16, 0..8)
                    .prop_map(|s| s.into_iter().collect::<Vec<u32>>()),
                0..60,
            ),
        ) {
            let db = TransactionDb::from_transactions(raw);
            let top = (0..db.n_items() as u32).map(|i| db.item_support(i)).max().unwrap_or(0);
            for minsup in 1..=top + 1 {
                let bits = EclatPrepared::build(
                    &db, minsup, &EclatConfig::all(), Some(ColumnKind::Bits), &mut NullProbe,
                );
                let Columns::Bits { vdb, walks } = &bits.columns else {
                    panic!("forced bit matrix");
                };
                for r in 0..vdb.n_items() as u32 {
                    prop_assert_eq!(
                        walks[r as usize],
                        class_is_nonempty(vdb, minsup, r),
                        "minsup {} root {}", minsup, r
                    );
                }
                let cut = fpm::remap(&db, minsup);
                let picked = EclatSpine::prepare(&db, minsup, &EclatConfig::all(), &mut NullProbe);
                prop_assert_eq!(picked.kind(), density_pick(&cut.transactions, cut.n_ranks()));
                for (name, cfg) in crate::variants() {
                    let mut want = RecordSink::default();
                    crate::mine(&db, minsup, &cfg, &mut want);
                    for kind in [ColumnKind::Bits, ColumnKind::Hybrid] {
                        let prepared = EclatPrepared::build(&db, minsup, &cfg, Some(kind), &mut NullProbe);
                        prop_assert_eq!(
                            mine_all(&prepared),
                            want.bytes.clone(),
                            "{} {:?} minsup {}", name, kind, minsup
                        );
                    }
                }
            }
        }
    }

    /// One item per row, each item in two rows: the cut is exactly
    /// `1 / n_items` dense, so 192 items sit on the threshold and mine
    /// the bit matrix, and 193 fall below it and mine the containers.
    #[test]
    fn the_threshold_density_mines_the_bit_matrix() {
        for (n_items, kind) in [(192u32, ColumnKind::Bits), (193, ColumnKind::Hybrid)] {
            let db = TransactionDb::from_transactions(
                (0..2 * n_items).map(|t| vec![t % n_items]).collect(),
            );
            let prepared = EclatSpine::prepare(&db, 2, &EclatConfig::all(), &mut NullProbe);
            assert_eq!(prepared.kind(), kind, "{n_items} items");
            let mut want = RecordSink::default();
            crate::mine(&db, 2, &EclatConfig::all(), &mut want);
            assert_eq!(mine_all(&prepared), want.bytes, "{n_items} items");
        }
    }
}
