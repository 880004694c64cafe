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
//!
//! At served supports most root walks build nothing: no item of the
//! gathered base reaches minsup. Whether one can is a fact about the
//! dataset (item `j` counts `sup({r, j})` in root item `r`'s base), so
//! the [`spine`] reads each rank's pair ceiling off the dataset's cached
//! ranking ([`fpm::pair_ceilings`]) and skips the walks that provably
//! find nothing. Output, tasks and every tree built are unchanged.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod spine;
pub mod tree;

pub use spine::FpSpine;

use fpm::control::MineControl;
use fpm::exec::KernelSpine;
use fpm::{PatternSink, TransactionDb};
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
/// These two serial entry points are the kernel's whole mining surface,
/// and they mine through the kernel's [`spine`]: build the root tree,
/// then one `mine_tasks` call over every header item, with the root tree
/// counted in the returned stats. Control (cancellation, deadlines,
/// budgets) and parallelism are composed once, above the kernel, by
/// `fpm-exec`'s `MinePlan` driving the same spine.
pub fn mine_probed<P: Probe, S: PatternSink>(
    db: &TransactionDb,
    minsup: u64,
    cfg: &FpConfig,
    probe: &mut P,
    sink: &mut S,
) -> FpStats {
    let prepared = FpSpine::prepare(db, minsup, cfg, probe);
    let tasks = FpSpine::root_tasks(&prepared);
    let (mut stats, _complete) =
        FpSpine::mine_tasks(&prepared, &tasks, probe, &MineControl::unlimited(), sink);
    stats.trees_built += 1;
    stats.nodes_built += prepared.tree.len() as u64;
    stats
}

pub(crate) struct Miner<'a, P, S> {
    minsup: u64,
    cfg: FpConfig,
    probe: &'a mut P,
    sink: &'a mut S,
    pub(crate) stats: FpStats,
    /// Cooperative stop signal, polled once per (tree, item) step.
    control: &'a MineControl,
    /// Set when a control check cut the recursion: the emitted sequence
    /// is a strict prefix of the full serial output.
    pub(crate) cut: bool,
    prefix: Vec<u32>,
    // epoch-stamped conditional support counters, sized by the first
    // walk
    counts: Vec<u64>,
    stamps: Vec<u32>,
    epoch: u32,
    /// Reused buffers for gathering conditional pattern bases.
    base: CondBase,
}

impl<'a, P: Probe, S: PatternSink> Miner<'a, P, S> {
    pub(crate) fn new(
        minsup: u64,
        cfg: FpConfig,
        probe: &'a mut P,
        sink: &'a mut S,
        control: &'a MineControl,
    ) -> Self {
        Miner {
            minsup,
            cfg,
            probe,
            sink,
            stats: FpStats::default(),
            control,
            cut: false,
            prefix: Vec::new(),
            counts: Vec::new(),
            stamps: Vec::new(),
            epoch: 0,
            base: CondBase::default(),
        }
    }

    /// Mines one conditional tree: bottom-up over its header table.
    fn mine_tree(&mut self, tree: &FpTree) {
        for item in (0..tree.n_ranks() as u32).rev() {
            self.mine_item(tree, item, true);
        }
    }

    /// Mines the subtree of itemsets whose *last* (highest-rank) item is
    /// `item`: emits the extended prefix and, when `walk` is set, builds
    /// `item`'s conditional tree and recurses into it. Conditional trees
    /// for different items of the root tree are independent — the
    /// decomposition the [`spine`] hands to the parallel driver as tasks.
    /// The spine clears `walk` for a root item whose base provably holds
    /// no frequent item.
    ///
    /// [`spine`]: crate::spine
    pub(crate) fn mine_item(&mut self, tree: &FpTree, item: u32, walk: bool) {
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
        if walk {
            if let Some(cond) = self.conditional_tree(tree, item) {
                self.mine_tree(&cond);
            }
        }
        self.prefix.pop();
    }

    /// Builds the conditional FP-tree for `item`: gather the prefix path
    /// of every chain node (with the node's count) into one flat buffer,
    /// compute conditional supports, filter infrequent items, and
    /// re-insert. Returns `None` before building a tree when no base
    /// item is frequent.
    pub(crate) fn conditional_tree(&mut self, tree: &FpTree, item: u32) -> Option<FpTree> {
        // Pass 1: gather the paths back to back into `base.items`, each
        // path's end offset and count into `base.paths`, and count
        // conditional supports. The first walk is a root item's, so it
        // sizes the counters for every later, smaller tree.
        if self.stamps.len() < tree.n_ranks() {
            self.counts.resize(tree.n_ranks(), 0);
            self.stamps.resize(tree.n_ranks(), 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.fill(0);
            self.epoch = 1;
        }
        let base = &mut self.base;
        base.clear();
        tree.for_each_chain_node(item, self.probe, |node, count| {
            base.chain.push((node, count));
        });
        self.stats.chain_nodes += base.chain.len() as u64;
        let mut any_frequent = false;
        for &(node, count) in &base.chain {
            let start = base.items.len();
            tree.path_to_root(node, item, self.probe, &mut base.items);
            let path = &mut base.items[start..];
            self.stats.path_levels += path.len() as u64;
            if path.is_empty() {
                continue;
            }
            for &it in path.iter() {
                if self.stamps[it as usize] != self.epoch {
                    self.stamps[it as usize] = self.epoch;
                    self.counts[it as usize] = 0;
                }
                self.counts[it as usize] += count as u64;
                any_frequent |= self.counts[it as usize] >= self.minsup;
            }
            // paths come leaf→root (descending rank); store ascending
            path.reverse();
            base.paths.push((base.items.len(), count));
        }
        if !any_frequent {
            return None;
        }
        // Pass 2: filter and insert. The base holds only ranks below
        // `item`, so the tree's rank space (its header, the slots
        // `mine_tree` walks) stops at `item`.
        let minsup = self.minsup;
        let frequent =
            |it: u32| self.stamps[it as usize] == self.epoch && self.counts[it as usize] >= minsup;
        let mut cond = FpTree::new(item as usize, self.cfg.repr());
        let mut start = 0;
        for &(end, count) in &base.paths {
            base.filtered.clear();
            base.filtered.extend(
                base.items[start..end]
                    .iter()
                    .copied()
                    .filter(|&it| frequent(it)),
            );
            start = end;
            if !base.filtered.is_empty() {
                cond.insert(&base.filtered, count, self.probe);
            }
        }
        cond.finalize();
        self.stats.trees_built += 1;
        self.stats.nodes_built += cond.len() as u64;
        Some(cond)
    }
}

/// The buffers a conditional pattern base is gathered into. The miner
/// keeps one and reuses it from tree to tree, so a base costs no
/// allocation once the buffers have grown to the largest base seen.
#[derive(Default)]
struct CondBase {
    /// `(node, count)` of every header-chain node of the item.
    chain: Vec<(u32, u32)>,
    /// The non-empty prefix paths, back to back, each ascending in rank.
    items: Vec<u32>,
    /// Each path's end offset in `items` and its count.
    paths: Vec<(usize, u32)>,
    /// One path's frequent items, for insertion.
    filtered: Vec<u32>,
}

impl CondBase {
    fn clear(&mut self) {
        self.chain.clear();
        self.items.clear();
        self.paths.clear();
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
