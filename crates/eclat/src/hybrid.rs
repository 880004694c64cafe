//! The Eclat recursion over hybrid containers: equivalence-class DFS
//! over [`VerticalHybridDb`]'s adaptive per-chunk tid-sets (DESIGN.md
//! §16). The spine mines them on cuts sparser than
//! [`also::adapt::DENSE_THRESHOLD`], where they beat the bit matrix.
//!
//! The lattice walk emits exactly what the bit-matrix miner
//! ([`crate::mine`]) emits — same class order, same minsup filter, same
//! cooperative-stop points — and supports are cardinalities, which no
//! representation can change; that is why swapping the storage keeps the
//! emitted byte sequence identical at every thread count.
//!
//! One step differs from the paper's all-pairs walk: a root class is
//! built from the counts of [`count_root_pairs`], one horizontal pass
//! over the root item's rows (Zaki's frequent 2-itemset count), so only
//! root pairs that reach minsup are intersected. A root pair that cannot
//! be frequent costs one counter increment per shared row instead of an
//! intersection and a materialized set; the candidates, their supports
//! and the emitted bytes are unchanged. The hybrid miner's `set_ops` are
//! therefore the bit matrix's `intersections` minus its infrequent root
//! pairs.
//!
//! The intersections themselves dispatch per chunk pair (galloping
//! array∩array, word-wise bitmap∩bitmap, probe, run walks — see
//! [`also::containers`]).

use crate::tidlist::SparseStats;
use crate::{count_root_pairs, RootColumn};
use also::containers::TidSet;
use fpm::control::MineControl;
use fpm::vertical::VerticalHybridDb;
use fpm::PatternSink;
use memsim::Probe;

/// A member of the current equivalence class: item rank, hybrid tid-set,
/// cached support.
struct HybridCand {
    item: u32,
    set: TidSet,
    support: u64,
}

/// The hybrid-container DFS driver, mirroring `Miner` for the bit matrix.
pub(crate) struct HybridMiner<'a, P, S> {
    pub(crate) minsup: u64,
    pub(crate) probe: &'a mut P,
    pub(crate) sink: &'a mut S,
    pub(crate) stats: SparseStats,
    /// Cooperative stop signal, polled once per class member.
    pub(crate) control: &'a MineControl,
    /// Set when a control check cut the recursion: the emitted sequence
    /// is a strict prefix of the full serial output.
    pub(crate) cut: bool,
    pub(crate) prefix: Vec<u32>,
    /// Root-pair supports of the current root item, one slot per item
    /// ([`count_root_pairs`]); allocated once per miner.
    pub(crate) pair_counts: Vec<u32>,
}

/// Charges a tid-set's storage to the memory model: one streamed pass
/// per chunk payload (arrays, bitmap words, or run intervals).
fn probe_set<P: Probe>(probe: &mut P, set: &TidSet, write: bool) {
    for (_, c) in set.chunks() {
        let (addr, len) = if let Some(a) = c.as_array() {
            memsim::slice_span(a)
        } else if let Some(w) = c.as_bitmap() {
            memsim::slice_span(&w[..])
        } else if let Some(r) = c.as_runs() {
            (r.as_ptr() as usize, std::mem::size_of_val(r))
        } else {
            continue;
        };
        if write {
            probe.write(addr, len);
        } else {
            probe.read(addr, len);
        }
    }
}

impl RootColumn for TidSet {
    fn tids(&self) -> impl Iterator<Item = u32> + '_ {
        self.iter()
    }

    fn probe_read<P: Probe>(&self, probe: &mut P) {
        probe_set(probe, self, false);
    }
}

impl<P: Probe, S: PatternSink> HybridMiner<'_, P, S> {
    /// Mines the subtree of itemsets whose first (lowest-rank) item is
    /// `r` — the task granularity `EclatSpine` hands to `fpm-exec`.
    /// The root class holds only the later items whose pair count with
    /// `r` reaches minsup, intersected in ascending order.
    pub(crate) fn mine_subtree(&mut self, db: &VerticalHybridDb, rows: &[Vec<u32>], r: u32) {
        if self.control.should_stop() {
            self.cut = true;
            return;
        }
        self.prefix.push(r);
        self.sink.emit(&self.prefix, db.support(r));
        count_root_pairs(rows, db.column(r), r, &mut self.pair_counts, self.probe);
        let mut next: Vec<HybridCand> = Vec::new();
        for j in (r + 1)..db.n_items() as u32 {
            if u64::from(self.pair_counts[j as usize]) < self.minsup {
                continue;
            }
            if let Some(cand) = self.intersect(db.column(r), db.column(j), j) {
                next.push(cand);
            }
        }
        if !next.is_empty() {
            self.recurse(&next);
        }
        self.prefix.pop();
    }

    fn recurse(&mut self, class: &[HybridCand]) {
        for (i, c) in class.iter().enumerate() {
            if self.control.should_stop() {
                self.cut = true;
                return;
            }
            self.prefix.push(c.item);
            self.sink.emit(&self.prefix, c.support);
            let mut next: Vec<HybridCand> = Vec::new();
            for d in &class[i + 1..] {
                if let Some(cand) = self.intersect(&c.set, &d.set, d.item) {
                    next.push(cand);
                }
            }
            if !next.is_empty() {
                self.recurse(&next);
            }
            self.prefix.pop();
        }
    }

    /// Intersects two hybrid columns, keeping the result only when it
    /// reaches minsup. Chunk pairs absent from either operand are skipped
    /// without touching any word — the container-level 0-escaping.
    fn intersect(&mut self, a: &TidSet, b: &TidSet, item: u32) -> Option<HybridCand> {
        self.stats.set_ops += 1;
        self.stats.elements_in += a.cardinality() + b.cardinality();
        probe_set(self.probe, a, false);
        probe_set(self.probe, b, false);
        self.probe
            .instr((a.cardinality().min(b.cardinality())).max(1) * 3);
        let out = a.and(b);
        let sup = out.cardinality();
        self.stats.elements_out += sup;
        if sup > 0 {
            probe_set(self.probe, &out, true);
        }
        if sup < self.minsup {
            return None;
        }
        Some(HybridCand {
            item,
            set: out,
            support: sup,
        })
    }
}
