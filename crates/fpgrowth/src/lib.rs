//! # `fpm-fpgrowth` — prefix-tree miner with ALSO-tuned variants
//!
//! FP-Growth (Han, Pei & Yin, SIGMOD'00) mines without candidate
//! generation: the database is compressed into an FP-tree
//! ([`tree::FpTree`]); for each frequent item, the *conditional pattern
//! base* (every prefix path leading to that item's nodes) is gathered by
//! following header node-links and walking to the root, a conditional
//! FP-tree is built from it, and mining recurses. The paper profiles it
//! as **memory bound** (Figure 2) — both hot access patterns are pointer
//! chases — and tunes it with:
//!
//! * **P1 — lexicographic ordering** of the input: consecutive insertions
//!   share long prefixes (tree construction stays in cache) and
//!   parent/child pairs land in adjacent pool slots for later walks;
//! * **P2 — data structure adaptation**: the one-byte differential item
//!   encoding of §4.3 shrinks the per-node traversal footprint from 24 to
//!   5 bytes;
//! * **P3 — aggregation**: three ancestor items replicated inline per
//!   node, one dereference per three levels of upward walk;
//! * **P5 + P7 — prefetch pointers + software prefetch** along the header
//!   node-link chains.
//!
//! [`variants`] names the columns of the paper's Figure 8(d): `base`,
//! `lex`, `reorg` (P2+P3), `pref`, `all`.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod spine;
pub mod tree;

pub use spine::FpSpine;

use fpm::control::MineControl;
use fpm::{remap, ControlledSink, PatternSink, RankedDb, TransactionDb, TranslateSink};
use memsim::{NullProbe, Probe};
use tree::{FpTree, TreeRepr};

/// Pattern selection for an FP-Growth run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FpConfig {
    /// P1: lexicographically reorder transactions before construction.
    pub lex: bool,
    /// P2: differential one-byte node encoding.
    pub adapt: bool,
    /// P3: aggregated ancestor supernodes for path walks.
    pub aggregate: bool,
    /// P5+P7: jump-pointer software prefetch along node-link chains.
    pub prefetch: bool,
}

impl FpConfig {
    /// The untuned baseline.
    pub fn baseline() -> Self {
        FpConfig {
            lex: false,
            adapt: false,
            aggregate: false,
            prefetch: false,
        }
    }

    /// P1 only.
    pub fn lex() -> Self {
        FpConfig {
            lex: true,
            ..Self::baseline()
        }
    }

    /// The paper's `Reorg` column: data structure adaptation + tree
    /// aggregation (the 1.6× item of §4.4).
    pub fn reorg() -> Self {
        FpConfig {
            adapt: true,
            aggregate: true,
            ..Self::baseline()
        }
    }

    /// P5+P7 only.
    pub fn pref() -> Self {
        FpConfig {
            prefetch: true,
            ..Self::baseline()
        }
    }

    /// All applicable patterns.
    pub fn all() -> Self {
        FpConfig {
            lex: true,
            adapt: true,
            aggregate: true,
            prefetch: true,
        }
    }

    pub(crate) fn repr(&self) -> TreeRepr {
        TreeRepr {
            adapt: self.adapt,
            aggregate: self.aggregate,
            jump_pointers: self.prefetch,
        }
    }
}

/// The named variants benchmarked in Figure 8(d): `(label, config)`.
pub fn variants() -> Vec<(&'static str, FpConfig)> {
    vec![
        ("base", FpConfig::baseline()),
        ("lex", FpConfig::lex()),
        ("reorg", FpConfig::reorg()),
        ("pref", FpConfig::pref()),
        ("all", FpConfig::all()),
    ]
}

/// Work counters for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FpStats {
    /// Conditional trees built.
    pub trees_built: u64,
    /// Total nodes across all trees.
    pub nodes_built: u64,
    /// Header-chain nodes visited.
    pub chain_nodes: u64,
    /// Path levels walked.
    pub path_levels: u64,
    /// Patterns emitted.
    pub emitted: u64,
}

/// Mines every frequent itemset of `db` at `minsup`, emitting patterns in
/// **original item ids** to `sink`. Returns work statistics.
pub fn mine<S: PatternSink>(
    db: &TransactionDb,
    minsup: u64,
    cfg: &FpConfig,
    sink: &mut S,
) -> FpStats {
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
    cfg: &FpConfig,
    probe: &mut P,
    sink: &mut S,
) -> FpStats {
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
    let n_ranks = map.n_ranks();
    let mut tree = FpTree::new(n_ranks, cfg.repr());
    for t in &transactions {
        tree.insert(t, 1, probe);
    }
    tree.finalize();
    let mut translate = TranslateSink::new(&map, ControlledSink::new(&control, sink));
    let mut miner = Miner {
        minsup: minsup.max(1),
        cfg: *cfg,
        probe,
        sink: &mut translate,
        stats: FpStats {
            trees_built: 1,
            nodes_built: tree.len() as u64,
            ..FpStats::default()
        },
        control: &control,
        cut: false,
        prefix: Vec::new(),
        counts: vec![0u64; n_ranks],
        stamps: vec![0u32; n_ranks],
        epoch: 0,
    };
    miner.mine_tree(&tree);
    miner.stats
}

pub(crate) struct Miner<'a, P, S> {
    pub(crate) minsup: u64,
    pub(crate) cfg: FpConfig,
    pub(crate) probe: &'a mut P,
    pub(crate) sink: &'a mut S,
    pub(crate) stats: FpStats,
    /// Cooperative stop signal, polled once per (tree, item) step.
    pub(crate) control: &'a MineControl,
    /// Set when a control check cut the recursion: the emitted sequence
    /// is a strict prefix of the full serial output.
    pub(crate) cut: bool,
    pub(crate) prefix: Vec<u32>,
    // epoch-stamped conditional support counters
    pub(crate) counts: Vec<u64>,
    pub(crate) stamps: Vec<u32>,
    pub(crate) epoch: u32,
}

impl<P: Probe, S: PatternSink> Miner<'_, P, S> {
    /// Mines one (conditional) tree: bottom-up over the header table.
    fn mine_tree(&mut self, tree: &FpTree) {
        for item in (0..tree.n_ranks() as u32).rev() {
            self.mine_item(tree, item);
        }
    }

    /// Mines the subtree of itemsets whose *last* (highest-rank) item is
    /// `item`: emits the extended prefix, builds `item`'s conditional
    /// tree, and recurses into it. Conditional trees for different items
    /// of the root tree are independent — the decomposition the [`spine`]
    /// hands to the parallel driver as tasks.
    ///
    /// [`spine`]: crate::spine
    pub(crate) fn mine_item(&mut self, tree: &FpTree, item: u32) {
        if self.control.should_stop() {
            self.cut = true;
            return;
        }
        let sup = tree.header_sup[item as usize];
        if sup < self.minsup {
            return;
        }
        self.prefix.push(item);
        self.sink.emit(&self.prefix, sup);
        self.stats.emitted += 1;
        if let Some(cond) = self.conditional_tree(tree, item) {
            self.mine_tree(&cond);
        }
        self.prefix.pop();
    }

    /// Builds the conditional FP-tree for `item`: gather the prefix path
    /// of every chain node (with the node's count), compute conditional
    /// supports, filter infrequent items, and re-insert.
    fn conditional_tree(&mut self, tree: &FpTree, item: u32) -> Option<FpTree> {
        // Pass 1: collect paths into a flat buffer and count conditional
        // supports.
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.fill(0);
            self.epoch = 1;
        }
        let mut chain: Vec<(u32, u32)> = Vec::new();
        tree.for_each_chain_node(item, self.probe, |node, count| {
            chain.push((node, count));
        });
        self.stats.chain_nodes += chain.len() as u64;
        let mut paths: Vec<(Vec<u32>, u32)> = Vec::new();
        let mut scratch: Vec<u32> = Vec::new();
        for &(node, count) in &chain {
            scratch.clear();
            tree.path_to_root(node, item, self.probe, &mut scratch);
            self.stats.path_levels += scratch.len() as u64;
            if scratch.is_empty() {
                continue;
            }
            for &it in &scratch {
                if self.stamps[it as usize] != self.epoch {
                    self.stamps[it as usize] = self.epoch;
                    self.counts[it as usize] = 0;
                }
                self.counts[it as usize] += count as u64;
            }
            // paths come leaf→root (descending rank); store ascending
            let mut asc = scratch.clone();
            asc.reverse();
            paths.push((asc, count));
        }
        if paths.is_empty() {
            return None;
        }
        // Pass 2: filter and insert.
        let minsup = self.minsup;
        let frequent =
            |it: u32| self.stamps[it as usize] == self.epoch && self.counts[it as usize] >= minsup;
        let mut cond = FpTree::new(tree.n_ranks(), self.cfg.repr());
        let mut filtered: Vec<u32> = Vec::new();
        let mut any = false;
        for (path, count) in &paths {
            filtered.clear();
            filtered.extend(path.iter().copied().filter(|&it| frequent(it)));
            if !filtered.is_empty() {
                cond.insert(&filtered, *count, self.probe);
                any = true;
            }
        }
        if !any {
            return None;
        }
        cond.finalize();
        self.stats.trees_built += 1;
        self.stats.nodes_built += cond.len() as u64;
        Some(cond)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpm::types::canonicalize;
    use fpm::CollectSink;

    fn run(db: &TransactionDb, minsup: u64, cfg: &FpConfig) -> Vec<fpm::ItemsetCount> {
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
        let mut s = 33u64;
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
        let expect = run(&db, 8, &FpConfig::baseline());
        assert!(!expect.is_empty());
        for (name, cfg) in variants() {
            assert_eq!(run(&db, 8, &cfg), expect, "{name}");
        }
    }

    #[test]
    fn deep_tree_exercises_all_reprs() {
        // long shared-prefix transactions make deep conditional trees
        let db = TransactionDb::from_transactions(
            (0..60)
                .map(|k| (0..(10 + k % 5) as u32).collect::<Vec<_>>())
                .collect(),
        );
        let expect = canonicalize(fpm::naive::mine(&db, 30));
        for (name, cfg) in variants() {
            assert_eq!(run(&db, 30, &cfg), expect, "{name}");
        }
    }

    #[test]
    fn stats_plausible() {
        let mut sink = fpm::CountSink::default();
        let st = mine(&toy(), 2, &FpConfig::all(), &mut sink);
        assert_eq!(st.emitted, sink.count);
        assert!(st.trees_built >= 1);
        assert!(st.chain_nodes > 0);
    }

    #[test]
    fn empty_and_degenerate() {
        let mut sink = CollectSink::default();
        mine(&TransactionDb::default(), 1, &FpConfig::all(), &mut sink);
        assert!(sink.patterns.is_empty());
        let single = TransactionDb::from_transactions(vec![vec![9]]);
        let got = run(&single, 1, &FpConfig::all());
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].items, vec![9]);
    }

    #[test]
    fn probed_run_is_memory_bound() {
        let mut s = 13u64;
        let mut rnd = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let db = TransactionDb::from_transactions(
            (0..4000)
                .map(|_| (0..40u32).filter(|_| rnd() % 5 == 0).collect::<Vec<_>>())
                .collect(),
        );
        let mut probe = memsim::CacheProbe::new(memsim::Machine::m1());
        let mut sink = fpm::CountSink::default();
        mine_probed(&db, 40, &FpConfig::baseline(), &mut probe, &mut sink);
        let r = probe.report("fp-growth");
        assert!(
            r.cpi() > 0.8,
            "FP-Growth CPI {} should sit well above the 0.33 optimum",
            r.cpi()
        );
    }
}
