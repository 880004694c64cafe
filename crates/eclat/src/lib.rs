//! # `fpm-eclat` — vertical bit-matrix miner with ALSO-tuned variants
//!
//! Eclat (Zaki et al.) mines the itemset lattice depth-first over a
//! *vertical* database: each itemset is represented by the bit vector of
//! the transactions containing it, the extension of an itemset by an item
//! is the AND of their vectors, and the support is the population count
//! of the result. The paper's profile (§4.2) finds 98% of the runtime in
//! exactly those two operations, classifies the kernel as **computation
//! bound** (Figure 2: CPI near the 0.33 optimum), and tunes it with:
//!
//! * **P1 — lexicographic ordering**, which clusters the 1s of frequent
//!   items at the front of their vectors and thereby enables
//!   **0-escaping**: intersections and counts run only inside the
//!   conservative `[first_one, last_one]` word range of the operands
//!   ([`also::bits::OneRange`]);
//! * **P8 — SIMDization**: the original table-lookup popcount is an
//!   indirect load that cannot be vectorized, so it is replaced by a
//!   computed (bit-sliced) count that runs in SSE2/AVX2 registers
//!   ([`also::simd`]).
//!
//! [`EclatConfig`] selects the pattern combination; [`variants`] lists
//! the named columns of the paper's Figure 8(c).

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub(crate) mod hybrid;
pub mod spine;
pub mod tidlist;

pub use spine::EclatSpine;

use also::bits::{BitVec, OneRange};
use also::simd::{and_into_count, Popcount};
use fpm::control::MineControl;
use fpm::vertical::VerticalBitDb;
use fpm::{remap, ControlledSink, PatternSink, RankedDb, TransactionDb, TranslateSink};
use memsim::{NullProbe, Probe};

/// Pattern selection for an Eclat run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EclatConfig {
    /// P1: lexicographically reorder transactions before building the bit
    /// matrix (clusters 1s; makes 0-escaping effective).
    pub lex: bool,
    /// Skip all-zero word prefixes/suffixes via 1-ranges (§4.2). Valid
    /// with or without `lex`, but only profitable with it.
    pub zero_escape: bool,
    /// The AND+popcount kernel (P8 ladder).
    pub popcount: Popcount,
}

impl EclatConfig {
    /// The FIMI'04-style baseline: unordered, full-span, table-lookup
    /// popcount.
    pub fn baseline() -> Self {
        EclatConfig {
            lex: false,
            zero_escape: false,
            popcount: Popcount::Table16,
        }
    }

    /// P1 only (lex ordering + the 0-escaping it enables).
    pub fn lex() -> Self {
        EclatConfig {
            lex: true,
            zero_escape: true,
            popcount: Popcount::Table16,
        }
    }

    /// P8 only (best available SIMD kernel, no reordering).
    pub fn simd() -> Self {
        EclatConfig {
            lex: false,
            zero_escape: false,
            popcount: Popcount::best(),
        }
    }

    /// All applicable patterns (the paper's `all` column).
    pub fn all() -> Self {
        EclatConfig {
            lex: true,
            zero_escape: true,
            popcount: Popcount::best(),
        }
    }
}

/// The named variants benchmarked in Figure 8(c): `(label, config)`.
pub fn variants() -> Vec<(&'static str, EclatConfig)> {
    vec![
        ("base", EclatConfig::baseline()),
        ("lex", EclatConfig::lex()),
        ("simd", EclatConfig::simd()),
        ("all", EclatConfig::all()),
    ]
}

/// Work counters for one run — exposes the 0-escaping effect (words
/// skipped) and the intersection count for EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EclatStats {
    /// Candidate intersections performed.
    pub intersections: u64,
    /// Words actually ANDed + counted.
    pub words_processed: u64,
    /// Words skipped by 0-escaping (vs the full-span kernel).
    pub words_skipped: u64,
    /// Intersections short-circuited entirely (disjoint 1-ranges).
    pub short_circuits: u64,
}

/// Mines every frequent itemset, emitting patterns in **original item
/// ids** to `sink`. Returns work statistics.
pub fn mine<S: PatternSink>(
    db: &TransactionDb,
    minsup: u64,
    cfg: &EclatConfig,
    sink: &mut S,
) -> EclatStats {
    mine_probed(db, minsup, cfg, &mut NullProbe, sink)
}

/// [`mine`] with memory-access instrumentation (see [`memsim`]).
///
/// These two serial entry points are the kernel's whole mining surface.
/// Control (cancellation, deadlines, budgets) and parallelism are
/// composed once, above the kernel, by `fpm-exec`'s `MinePlan` driving
/// this crate's [`spine`] implementation.
pub fn mine_probed<P: Probe, S: PatternSink>(
    db: &TransactionDb,
    minsup: u64,
    cfg: &EclatConfig,
    probe: &mut P,
    sink: &mut S,
) -> EclatStats {
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
    let vdb = VerticalBitDb::from_ranked(&transactions, map.n_ranks());
    let mut translate = TranslateSink::new(&map, ControlledSink::new(&control, sink));
    let mut miner = Miner {
        minsup: minsup.max(1),
        cfg: *cfg,
        probe,
        sink: &mut translate,
        stats: EclatStats::default(),
        control: &control,
        cut: false,
        prefix: Vec::new(),
    };
    miner.run(&vdb);
    miner.stats
}

/// A candidate column in the current equivalence class.
struct Candidate {
    item: u32,
    bits: BitVec,
    range: OneRange,
    support: u64,
}

pub(crate) struct Miner<'a, P, S> {
    pub(crate) minsup: u64,
    pub(crate) cfg: EclatConfig,
    pub(crate) probe: &'a mut P,
    pub(crate) sink: &'a mut S,
    pub(crate) stats: EclatStats,
    /// Cooperative stop signal, polled once per class member.
    pub(crate) control: &'a MineControl,
    /// Set when a control check cut the recursion: the emitted sequence
    /// is a strict prefix of the full serial output.
    pub(crate) cut: bool,
    pub(crate) prefix: Vec<u32>,
}

/// Models the memory behaviour of the 16-bit-table popcount for the
/// simulator: four indirect half-word lookups per word, scattered over
/// the 64 KiB table — the un-SIMDizable loads the paper replaces (§4.2).
///
/// AND results are sparse, so most half-words are small and hit the
/// table's hot head; a minority of lookups range over the full 64 KiB,
/// which is what makes the table compete with the mined data for L1.
pub fn probe_table_lookups<P: Probe>(probe: &mut P, words: u64) {
    let table_base = 0x5457_0000_0000usize; // synthetic table address
    for w in 0..words {
        for h in 0..4u64 {
            let hash = w.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (h * 13);
            let ix = if hash & 0x7 == 0 {
                hash & 0xFFFF // full-range lookup
            } else {
                hash & 0x03FF // hot head of the table
            };
            probe.read(table_base + ix as usize, 1);
        }
    }
}

/// Estimated retired instructions per 64-bit word of the AND+count loop,
/// per strategy — used only by the cycle model (the native build runs the
/// real kernels).
fn instrs_per_word(p: Popcount) -> u64 {
    match p {
        Popcount::Table16 => 15,
        Popcount::Scalar64 => 5,
        Popcount::Sse2 => 4,
        Popcount::Avx2 => 2,
    }
}

impl<P: Probe, S: PatternSink> Miner<'_, P, S> {
    fn run(&mut self, vdb: &VerticalBitDb) {
        // The root equivalence class splits into one independent subtree
        // per frequent first item — the same decomposition the spine
        // hands `fpm-exec` as root tasks (see [`crate::spine`]).
        for r in 0..vdb.n_items() as u32 {
            self.mine_subtree(vdb, r);
        }
    }

    /// Mines the subtree of itemsets whose first (lowest-rank) item is
    /// `r`: emits `{r}` itself, builds the next equivalence class by
    /// intersecting `r`'s column with every later root column, and
    /// recurses. Subtrees for different `r` touch disjoint lattice
    /// regions and only *read* `vdb`, which is what makes them safe
    /// parallel tasks.
    pub(crate) fn mine_subtree(&mut self, vdb: &VerticalBitDb, r: u32) {
        if self.control.should_stop() {
            self.cut = true;
            return;
        }
        self.prefix.push(r);
        self.sink.emit(&self.prefix, vdb.support(r));
        let mut next: Vec<Candidate> = Vec::new();
        for j in (r + 1)..vdb.n_items() as u32 {
            if let Some(cand) = self.intersect_parts(
                vdb.column(r),
                vdb.range(r),
                j,
                vdb.column(j),
                vdb.range(j),
            ) {
                next.push(cand);
            }
        }
        if !next.is_empty() {
            self.recurse(&next);
        }
        self.prefix.pop();
    }

    fn recurse(&mut self, class: &[Candidate]) {
        for (i, c) in class.iter().enumerate() {
            if self.control.should_stop() {
                self.cut = true;
                return;
            }
            self.prefix.push(c.item);
            self.sink.emit(&self.prefix, c.support);
            let mut next: Vec<Candidate> = Vec::new();
            for d in &class[i + 1..] {
                if let Some(cand) = self.intersect(c, d) {
                    next.push(cand);
                }
            }
            if !next.is_empty() {
                self.recurse(&next);
            }
            self.prefix.pop();
        }
    }

    fn intersect(&mut self, a: &Candidate, b: &Candidate) -> Option<Candidate> {
        self.intersect_parts(&a.bits, a.range, b.item, &b.bits, b.range)
    }

    fn intersect_parts(
        &mut self,
        a_bits: &BitVec,
        a_range: OneRange,
        b_item: u32,
        b_bits: &BitVec,
        b_range: OneRange,
    ) -> Option<Candidate> {
        self.stats.intersections += 1;
        let full_words = a_bits.words().min(b_bits.words());
        let span = if self.cfg.zero_escape {
            let r = a_range.intersect(&b_range);
            if r.is_empty() {
                self.stats.short_circuits += 1;
                self.stats.words_skipped += full_words as u64;
                return None;
            }
            r.as_word_span()
        } else {
            0..full_words
        };
        let words = span.len();
        self.stats.words_processed += words as u64;
        self.stats.words_skipped += (full_words - words) as u64;

        // --- probe the kernel's memory behaviour ---
        let (pa, _) = memsim::slice_span(&a_bits.as_words()[span.clone()]);
        let (pb, _) = memsim::slice_span(&b_bits.as_words()[span.clone()]);
        self.probe.read(pa, words * 8);
        self.probe.read(pb, words * 8);
        self.probe.instr(words as u64 * instrs_per_word(self.cfg.popcount));
        if self.cfg.popcount == Popcount::Table16 {
            probe_table_lookups(self.probe, words as u64);
        }

        let mut out = BitVec::zeros(a_bits.len().min(b_bits.len()));
        let sup = and_into_count(a_bits, b_bits, &mut out, span.clone(), self.cfg.popcount);
        let (po, _) = memsim::slice_span(&out.as_words()[span.clone()]);
        self.probe.write(po, words * 8);

        if sup < self.minsup {
            return None;
        }
        let range = if self.cfg.zero_escape {
            // conservative: intersection of operand ranges (§4.2 — "not
            // necessarily optimal")
            a_range.intersect(&b_range)
        } else {
            OneRange {
                first: 0,
                last: full_words.saturating_sub(1) as u32,
            }
        };
        Some(Candidate {
            item: b_item,
            bits: out,
            range,
            support: sup,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpm::types::canonicalize;
    use fpm::CollectSink;

    fn run(db: &TransactionDb, minsup: u64, cfg: &EclatConfig) -> Vec<fpm::ItemsetCount> {
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
    fn variants_match_each_other_on_random_db() {
        // deterministic pseudo-random db, 64+ transactions to cross word
        // boundaries
        let mut s = 7u64;
        let mut rnd = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let db = TransactionDb::from_transactions(
            (0..200)
                .map(|_| {
                    (0..20u32)
                        .filter(|_| rnd() % 3 == 0)
                        .collect::<Vec<_>>()
                })
                .collect(),
        );
        let expect = run(&db, 5, &EclatConfig::baseline());
        assert!(!expect.is_empty());
        for (name, cfg) in variants() {
            assert_eq!(run(&db, 5, &cfg), expect, "{name}");
        }
    }

    #[test]
    fn zero_escaping_skips_work_after_lex() {
        let db = quest_like(600);
        let mut sink = fpm::CountSink::default();
        let s_base = mine(&db, 12, &EclatConfig::baseline(), &mut sink);
        let mut sink2 = fpm::CountSink::default();
        let s_lex = mine(&db, 12, &EclatConfig::lex(), &mut sink2);
        assert_eq!(sink.count, sink2.count);
        assert!(s_base.words_skipped == 0);
        assert!(
            s_lex.words_processed < s_base.words_processed,
            "escaping must reduce words: {} vs {}",
            s_lex.words_processed,
            s_base.words_processed
        );
    }

    /// Correlated block-structured database: items 0..6 co-occur in the
    /// first half, items 6..12 in the second — after lex ordering the
    /// 1-ranges shrink sharply.
    fn quest_like(n: usize) -> TransactionDb {
        let mut s = 99u64;
        let mut rnd = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        TransactionDb::from_transactions(
            (0..n)
                .map(|k| {
                    let base = if rnd() % 2 == 0 { 0 } else { 6 };
                    let _ = k;
                    (0..6u32)
                        .filter(|_| rnd() % 3 != 0)
                        .map(|i| base + i)
                        .collect()
                })
                .collect(),
        )
    }

    #[test]
    fn stats_are_consistent() {
        let db = toy();
        let mut sink = fpm::CountSink::default();
        let st = mine(&db, 2, &EclatConfig::all(), &mut sink);
        assert!(st.intersections > 0);
        assert!(st.words_processed > 0 || st.short_circuits > 0);
    }

    #[test]
    fn empty_db_yields_nothing() {
        let mut sink = CollectSink::default();
        mine(&TransactionDb::default(), 1, &EclatConfig::all(), &mut sink);
        assert!(sink.patterns.is_empty());
    }

    #[test]
    fn probed_run_reports_plausible_cpi() {
        // Long bit vectors are what makes Eclat computation bound — the
        // paper's columns span 300 K+ transactions. A tiny input is
        // cold-miss dominated, so use a few thousand transactions.
        let db = quest_like(8000);
        let mut probe = memsim::CacheProbe::new(memsim::Machine::m1());
        let mut sink = fpm::CountSink::default();
        // Figure 2 profiles the *baseline* kernel (table-lookup popcount,
        // the instruction-dense loop) — that is the run whose CPI sits
        // near the optimum and classifies Eclat as computation bound.
        mine_probed(&db, 50, &EclatConfig::baseline(), &mut probe, &mut sink);
        let r = probe.report("eclat");
        assert!(r.cpi() < 1.2, "eclat CPI {} should be low", r.cpi());
        assert!(!r.is_memory_bound(), "eclat must classify computation bound");
        assert!(r.instructions > 0);
    }

    #[test]
    fn minsup_filters_supports() {
        let out = run(&toy(), 3, &EclatConfig::all());
        assert!(out.iter().all(|p| p.support >= 3));
        assert_eq!(out.len(), 7);
    }
}
