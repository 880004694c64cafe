//! # `fpm-lcm` — array-based horizontal miner with ALSO-tuned variants
//!
//! LCM (Uno et al., the FIMI'04 best-implementation award winner) mines
//! the itemset lattice depth-first over a horizontal array database with
//! *occurrence deliver*: each recursion node owns a projected database
//! (every transaction containing the current prefix), an item-major
//! occurrence array on top of it, and computes child supports by walking
//! occurrence columns (`calc_freq`, 54% of the paper's profile) while
//! merging duplicate transactions between levels (`rm_dup_trans`, 25%).
//! The paper classifies it as **memory bound** — high CPI, high cache
//! miss rate (Figure 2) — and tunes it with P1/P3/P4/P6.1/P7.1; see
//! [`LcmConfig`] and the module docs of [`miner`] and [`rmdup`].
//!
//! [`variants`] names the columns of the paper's Figure 8(a)/(b):
//! `base`, `lex`, `reorg` (aggregation + compaction), `pref`
//! (wave-front prefetch), `tile`, and `all`.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod miner;
pub mod projdb;
pub mod rmdup;
pub mod spine;

pub use miner::LcmStats;
pub use spine::LcmSpine;

use fpm::control::MineControl;
use fpm::{remap, ControlledSink, PatternSink, RankedDb, TransactionDb, TranslateSink};
use memsim::{NullProbe, Probe};

/// Pattern selection for an LCM run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LcmConfig {
    /// P1: lexicographically reorder the initial database.
    pub lex: bool,
    /// P3: supernode-aggregated bucket lists in `rm_dup_trans`.
    pub aggregate: bool,
    /// P4: compact the frequency counters into a dense array (baseline
    /// embeds them in 32-byte occ-header slots).
    pub compact_counters: bool,
    /// P7.1: wave-front prefetch distance in `calc_freq` (0 = off).
    pub prefetch: usize,
    /// P6.1: tile the candidate column walks by transaction range.
    /// `None` = untiled; `Some(0)` = auto-size to L1; `Some(n)` = n rows.
    pub tile_rows: Option<usize>,
}

impl LcmConfig {
    /// The untuned FIMI'04-style baseline.
    pub fn baseline() -> Self {
        LcmConfig {
            lex: false,
            aggregate: false,
            compact_counters: false,
            prefetch: 0,
            tile_rows: None,
        }
    }

    /// P1 only.
    pub fn lex() -> Self {
        LcmConfig {
            lex: true,
            ..Self::baseline()
        }
    }

    /// The paper's `Reorg` column: data-structure optimizations
    /// (aggregation + compaction).
    pub fn reorg() -> Self {
        LcmConfig {
            aggregate: true,
            compact_counters: true,
            ..Self::baseline()
        }
    }

    /// P7.1 only (wave-front distance 3, Figure 5's depth).
    pub fn pref() -> Self {
        LcmConfig {
            prefetch: 3,
            ..Self::baseline()
        }
    }

    /// P6.1 only (auto-sized tiles).
    pub fn tile() -> Self {
        LcmConfig {
            tile_rows: Some(0),
            ..Self::baseline()
        }
    }

    /// All applicable patterns.
    pub fn all() -> Self {
        LcmConfig {
            lex: true,
            aggregate: true,
            compact_counters: true,
            prefetch: 3,
            tile_rows: Some(0),
        }
    }
}

/// The named variants benchmarked in Figure 8(a)/(b): `(label, config)`.
pub fn variants() -> Vec<(&'static str, LcmConfig)> {
    vec![
        ("base", LcmConfig::baseline()),
        ("lex", LcmConfig::lex()),
        ("reorg", LcmConfig::reorg()),
        ("pref", LcmConfig::pref()),
        ("tile", LcmConfig::tile()),
        ("all", LcmConfig::all()),
    ]
}

/// Mines every frequent itemset of `db` at `minsup`, emitting patterns in
/// **original item ids** to `sink`. Returns work statistics.
pub fn mine<S: PatternSink>(
    db: &TransactionDb,
    minsup: u64,
    cfg: &LcmConfig,
    sink: &mut S,
) -> LcmStats {
    mine_probed(db, minsup, cfg, &mut NullProbe, sink)
}

/// [`mine`] with memory instrumentation (see [`memsim`]).
///
/// These two serial entry points are the kernel's whole mining surface.
/// Control (cancellation, deadlines, budgets) and parallelism are
/// composed once, above the kernel, by `fpm-exec`'s `MinePlan` driving
/// this crate's [`spine`] implementation.
pub fn mine_probed<P: Probe, S: PatternSink>(
    db: &TransactionDb,
    minsup: u64,
    cfg: &LcmConfig,
    probe: &mut P,
    sink: &mut S,
) -> LcmStats {
    let control = MineControl::unlimited();
    let RankedDb {
        mut transactions,
        map,
        ..
    } = remap(db, minsup);
    if cfg.lex {
        also::lexorder::lex_order(&mut transactions);
        // Charge the preprocessing to the simulated run: the reorder is a
        // real cost the paper weighs against the benefit ("lexicographic
        // ordering is very time consuming" on very large inputs, §4.4).
        // One streamed read+write pass plus sort work per item.
        for t in &transactions {
            let (a, l) = memsim::slice_span(t);
            probe.read(a, l);
            probe.write(a, l);
            probe.instr(10 * t.len() as u64);
        }
    }
    let mut translate = TranslateSink::new(&map, ControlledSink::new(&control, sink));
    let mut miner =
        miner::Miner::new(*cfg, minsup, map.n_ranks(), probe, &control, &mut translate);
    miner.run(&transactions);
    miner.stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpm::types::canonicalize;
    use fpm::CollectSink;

    fn run(db: &TransactionDb, minsup: u64, cfg: &LcmConfig) -> Vec<fpm::ItemsetCount> {
        let mut sink = CollectSink::default();
        mine(db, minsup, cfg, &mut sink);
        canonicalize(sink.patterns)
    }

    fn toy() -> TransactionDb {
        TransactionDb::from_transactions(vec![
            vec![0, 2, 5],
            vec![1, 2, 5],
            vec![0, 2, 5],
            vec![3, 4],
            vec![0, 1, 2, 3, 4, 5],
        ])
    }

    #[test]
    fn all_variants_match_naive_on_toy() {
        for minsup in 1..=5u64 {
            let expect = canonicalize(fpm::naive::mine(&toy(), minsup));
            for (name, cfg) in variants() {
                assert_eq!(run(&toy(), minsup, &cfg), expect, "{name} minsup={minsup}");
            }
        }
    }

    #[test]
    fn variants_match_on_pseudorandom_db() {
        let mut s = 21u64;
        let mut rnd = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let db = TransactionDb::from_transactions(
            (0..300)
                .map(|_| (0..16u32).filter(|_| rnd() % 3 == 0).collect::<Vec<_>>())
                .collect(),
        );
        let expect = run(&db, 8, &LcmConfig::baseline());
        assert!(!expect.is_empty());
        for (name, cfg) in variants() {
            assert_eq!(run(&db, 8, &cfg), expect, "{name}");
        }
        // explicit tile sizes, including degenerate ones
        for t in [1usize, 7, 64, 100_000] {
            let cfg = LcmConfig {
                tile_rows: Some(t),
                ..LcmConfig::baseline()
            };
            assert_eq!(run(&db, 8, &cfg), expect, "tile={t}");
        }
    }

    #[test]
    fn duplicate_heavy_database_exercises_rmdup() {
        let db = TransactionDb::from_transactions(
            (0..200)
                .map(|k| match k % 4 {
                    0 => vec![0u32, 1, 2],
                    1 => vec![0, 1],
                    2 => vec![0, 1, 2],
                    _ => vec![2, 3],
                })
                .collect(),
        );
        let expect = canonicalize(fpm::naive::mine(&db, 10));
        let mut sink = CollectSink::default();
        let stats = mine(&db, 10, &LcmConfig::all(), &mut sink);
        assert_eq!(canonicalize(sink.patterns), expect);
        assert!(stats.trans_merged > 100, "dups must merge: {stats:?}");
    }

    #[test]
    fn stats_plausible() {
        let mut sink = fpm::CountSink::default();
        let stats = mine(&toy(), 2, &LcmConfig::baseline(), &mut sink);
        assert_eq!(stats.emitted, sink.count);
        assert!(stats.occ_entries > 0);
        assert!(stats.nodes > 0);
    }

    #[test]
    fn empty_db() {
        let mut sink = CollectSink::default();
        mine(&TransactionDb::default(), 1, &LcmConfig::all(), &mut sink);
        assert!(sink.patterns.is_empty());
    }

    #[test]
    fn single_transaction() {
        let db = TransactionDb::from_transactions(vec![vec![1, 2, 3]]);
        let got = run(&db, 1, &LcmConfig::all());
        assert_eq!(got.len(), 7); // all non-empty subsets
    }

    #[test]
    fn probed_run_is_memory_bound() {
        // LCM on a scattered database: the paper's Figure 2 point — high
        // CPI, memory bound.
        let mut s = 77u64;
        let mut rnd = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let db = TransactionDb::from_transactions(
            (0..4000)
                .map(|_| (0..60u32).filter(|_| rnd() % 6 == 0).collect::<Vec<_>>())
                .collect(),
        );
        let mut probe = memsim::CacheProbe::new(memsim::Machine::m1());
        let mut sink = fpm::CountSink::default();
        mine_probed(&db, 40, &LcmConfig::baseline(), &mut probe, &mut sink);
        let r = probe.report("lcm");
        assert!(
            r.cpi() > 0.8,
            "LCM CPI {} should sit well above the 0.33 optimum",
            r.cpi()
        );
    }
}
