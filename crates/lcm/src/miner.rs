//! The LCM recursion: `calc_freq` (occurrence-column walks computing
//! child supports — 54% of the paper's profile), projection with
//! database reduction, and `rm_dup_trans` between levels.
//!
//! The ALSO patterns hook in at exactly the places §4.1 describes:
//!
//! * **P1** — the initial database is lexicographically reordered before
//!   the root arena is built;
//! * **P4** — child-support counters live either embedded in 32-byte
//!   occ-header slots (baseline: scattered, one cache line per few
//!   counters) or compacted into a dense array;
//! * **P7.1** — the occ-column walk prefetches transaction headers a
//!   configurable wave-front distance ahead;
//! * **P6.1** — the per-candidate column walks are restructured into an
//!   outer loop over transaction-range tiles and an inner loop over
//!   candidates, giving header/arena reuse within a tile; the candidates
//!   count into one reused block of dense rows, read back by an ascending
//!   scan;
//! * **P3** — the duplicate-removal bucket lists aggregate into
//!   supernodes (see [`crate::rmdup`]).

use crate::projdb::{OccEntry, ProjDb, TransHead};
use crate::rmdup::rm_dup_trans;
use crate::LcmConfig;
use fpm::control::MineControl;
use fpm::PatternSink;
use memsim::Probe;

/// Work counters for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LcmStats {
    /// Recursion nodes visited (= itemsets with a non-trivial projection).
    pub nodes: u64,
    /// Occurrence entries processed by `calc_freq`.
    pub occ_entries: u64,
    /// Items counted by `calc_freq`.
    pub items_counted: u64,
    /// Transactions merged away by `rm_dup_trans`.
    pub trans_merged: u64,
    /// Patterns emitted.
    pub emitted: u64,
}

/// Counter storage: the P4 toggle. The baseline embeds each counter in a
/// 32-byte occ-header-like slot (so counters are scattered across cache
/// lines, 2 per line); the compacted form is a dense `u32` array (16 per
/// line). Epoch stamps avoid O(n) resets in both layouts.
struct Counters {
    compact: bool,
    slots: Vec<Slot>,
    counts: Vec<u32>,
    stamps: Vec<u32>,
    epoch: u32,
}

/// The baseline layout's slot, mimicking LCM's occ headers where the
/// frequency counter is "structured with the OccArray" (§4.1).
#[repr(C)]
#[derive(Clone, Copy)]
struct Slot {
    count: u32,
    stamp: u32,
    _occ_start: u32,
    _occ_len: u32,
    _pad: [u32; 4],
}

impl Counters {
    fn new(n: usize, compact: bool) -> Self {
        Counters {
            compact,
            slots: if compact {
                Vec::new()
            } else {
                vec![
                    Slot {
                        count: 0,
                        stamp: 0,
                        _occ_start: 0,
                        _occ_len: 0,
                        _pad: [0; 4],
                    };
                    n
                ]
            },
            counts: if compact { vec![0; n] } else { Vec::new() },
            stamps: if compact { vec![0; n] } else { Vec::new() },
            epoch: 0,
        }
    }

    #[inline]
    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // extremely rare wrap: hard reset keeps stamps sound
            if self.compact {
                self.stamps.fill(0);
            } else {
                for s in &mut self.slots {
                    s.stamp = 0;
                }
            }
            self.epoch = 1;
        }
    }

    /// Adds `w` to `item`'s counter; returns `true` on first touch this
    /// epoch. Probes the counter's real address so the layouts' locality
    /// difference is visible to the simulator.
    #[inline]
    fn bump<P: Probe>(&mut self, item: u32, w: u32, probe: &mut P) -> bool {
        if self.compact {
            let i = item as usize;
            probe.write(memsim::addr_of(&self.counts[i]), 4);
            if self.stamps[i] != self.epoch {
                self.stamps[i] = self.epoch;
                self.counts[i] = w;
                true
            } else {
                self.counts[i] += w;
                false
            }
        } else {
            let s = &mut self.slots[item as usize];
            probe.write(memsim::addr_of(s), 8);
            if s.stamp != self.epoch {
                s.stamp = self.epoch;
                s.count = w;
                true
            } else {
                s.count += w;
                false
            }
        }
    }

    #[inline]
    fn get(&self, item: u32) -> u32 {
        if self.compact {
            if self.stamps[item as usize] == self.epoch {
                self.counts[item as usize]
            } else {
                0
            }
        } else {
            let s = &self.slots[item as usize];
            if s.stamp == self.epoch {
                s.count
            } else {
                0
            }
        }
    }
}

pub(crate) struct Miner<'a, P, S> {
    pub cfg: LcmConfig,
    pub minsup: u64,
    pub n_ranks: usize,
    pub probe: &'a mut P,
    pub sink: &'a mut S,
    pub stats: LcmStats,
    /// Cooperative stop signal, polled once per (node, child) step.
    pub control: &'a MineControl,
    /// Set when a [`MineControl`] check cut this recursion: the emitted
    /// sequence is a strict prefix of the full serial output.
    pub cut: bool,
    prefix: Vec<u32>,
    counters: Counters,
    /// Frequent-child marks for projection (epoch-stamped).
    fmark: Vec<u32>,
    fmark_epoch: u32,
    touched: Vec<u32>,
    /// P6.1's dense count rows, one `n_ranks` row per tiled candidate,
    /// flat: grown on demand by [`Self::calc_freq_tiled`] and all zero
    /// between its calls, so every node of the recursion reuses it.
    tile_counts: Vec<u32>,
    /// One occurrence cursor per tiled candidate.
    tile_cursors: Vec<usize>,
}

/// A candidate extension with its (weighted) support.
type Children = Vec<(u32, u64)>;

impl<'a, P: Probe, S: PatternSink> Miner<'a, P, S> {
    pub fn new(
        cfg: LcmConfig,
        minsup: u64,
        n_ranks: usize,
        probe: &'a mut P,
        control: &'a MineControl,
        sink: &'a mut S,
    ) -> Self {
        Miner {
            cfg,
            minsup: minsup.max(1),
            n_ranks,
            probe,
            sink,
            stats: LcmStats::default(),
            control,
            cut: false,
            prefix: Vec::new(),
            counters: Counters::new(n_ranks, cfg.compact_counters),
            fmark: vec![0; n_ranks],
            fmark_epoch: 0,
            // One slot per rank: deliver_column pushes each first-touched
            // rank exactly once per epoch, so this never regrows — a
            // precondition of that loop's `// also-lint: hot` contract.
            touched: Vec::with_capacity(n_ranks),
            tile_counts: Vec::new(),
            tile_cursors: Vec::new(),
        }
    }

    /// Processes one recursion node: `pdb` holds every transaction that
    /// contains the current prefix; `children` are the frequent extension
    /// items with their supports. The spine enters here with the root
    /// projection and any run of its children.
    pub(crate) fn node(&mut self, pdb: &ProjDb, children: &[(u32, u64)]) {
        self.stats.nodes += 1;
        // Tiled variant: compute every child's grandchild counts up front,
        // tile by tile (P6.1). Untiled: per child, on demand. A projection
        // that fits inside a single tile gains nothing from the extra
        // loop nest, so small (deep) nodes fall back to the per-child
        // walk — in the paper, too, tiling restructures the large
        // top-level scans.
        let mut precomputed: Option<Vec<Children>> = match self.resolved_tile_rows(pdb) {
            Some(t) if pdb.heads.len() > t => Some(self.calc_freq_tiled(pdb, children, t)),
            _ => None,
        };
        for (ci, &(j, sup)) in children.iter().enumerate() {
            // Cancellation checkpoint (deadline / cancel / budget): the
            // trip is monotonic, so every frame up the stack returns too
            // and only a *tail* of the DFS emission order is cut.
            if self.control.should_stop() {
                self.cut = true;
                return;
            }
            self.prefix.push(j);
            self.sink.emit(&self.prefix, sup);
            self.stats.emitted += 1;
            let grand = match &mut precomputed {
                Some(rows) => std::mem::take(&mut rows[ci]),
                None => self.calc_freq(pdb, j),
            };
            if !grand.is_empty() {
                let child = self.project(pdb, j, &grand);
                self.node(&child, &grand);
            }
            self.prefix.pop();
        }
    }

    /// The occurrence-deliver loop of `calc_freq` — the paper's hottest
    /// code: walk `occ[j]`, follow each entry to its transaction header
    /// (dependent load), and count every suffix item with the
    /// transaction's weight. Leaves the first-touched items, in
    /// first-touch order, in `self.touched`.
    ///
    /// Runs once per (node, child) pair over millions of occurrence
    /// entries, so it must not allocate: counters and marks are
    /// preallocated to `n_ranks` in [`Miner::new`], and `touched` holds at
    /// most one entry per rank (proven at runtime by
    /// `occurrence_deliver_loop_is_allocation_free`).
    // also-lint: hot
    fn deliver_column(&mut self, pdb: &ProjDb, j: u32) {
        self.counters.begin();
        self.touched.clear();
        let col = pdb.occ(j);
        let pf = self.cfg.prefetch;
        for (k, &e) in col.iter().enumerate() {
            if pf > 0 {
                // P7.1 wave-front: headers (and the occ entries leading to
                // them) of the next few occurrences are in flight while
                // this one is processed.
                if let Some(ahead) = col.get(k + pf) {
                    let h = &pdb.heads[ahead.tid as usize];
                    also::prefetch::prefetch_read(h as *const TransHead);
                    self.probe.prefetch(memsim::addr_of(h));
                    also::prefetch::prefetch_read(&pdb.items[ahead.pos as usize] as *const u32);
                    self.probe.prefetch(memsim::addr_of(&pdb.items[ahead.pos as usize]));
                }
            }
            self.probe.read(memsim::addr_of(&col[k]), 8);
            let h = &pdb.heads[e.tid as usize];
            self.probe.read_dep(memsim::addr_of(h), 12);
            let w = h.weight;
            let suffix = pdb.suffix(e);
            let (sa, sl) = memsim::slice_span(suffix);
            self.probe.read(sa, sl);
            self.probe.instr(10);
            self.stats.occ_entries += 1;
            self.stats.items_counted += suffix.len() as u64;
            for &it in suffix {
                self.probe.instr(4);
                if self.counters.bump(it, w, self.probe) {
                    // also-lint: allow(hot-loop-alloc) — within capacity: touched is preallocated to n_ranks and holds each rank at most once per epoch
                    self.touched.push(it);
                }
            }
        }
    }

    /// `calc_freq`: occurrence-deliver over column `j`
    /// ([`Self::deliver_column`]), then materialize the frequent children
    /// and sort only those, ascending.
    fn calc_freq(&mut self, pdb: &ProjDb, j: u32) -> Children {
        self.deliver_column(pdb, j);
        let minsup = self.minsup;
        let counters = &self.counters;
        let mut grand: Children = self
            .touched
            .iter()
            .filter_map(|&it| {
                let c = counters.get(it) as u64;
                (c >= minsup).then_some((it, c))
            })
            .collect();
        grand.sort_unstable();
        grand
    }

    /// Resolves the configured tile size against this node's projection
    /// (`Some(0)` = auto-size to L1).
    fn resolved_tile_rows(&self, pdb: &ProjDb) -> Option<usize> {
        match self.cfg.tile_rows {
            None => None,
            Some(0) => {
                // auto: tile sized to half of a 32 KiB L1 given the mean
                // bytes touched per transaction
                let mean_len = (pdb.items.len() / pdb.heads.len().max(1)).max(1);
                Some(also::tiling::tile_rows_for_cache(12 + 4 * mean_len, 32 * 1024))
            }
            Some(t) => Some(t),
        }
    }

    /// P6.1 — the tiled `calc_freq`: outer loop over transaction-range
    /// tiles, inner loop over the candidate columns, each advancing a
    /// cursor through its occurrences ([`Self::count_tiles`]). Within a
    /// tile, headers and arena lines are reused across *all* candidates
    /// before being evicted. Costs: per-candidate dense count rows, one
    /// block the miner reuses at every node, and the extra loop nest —
    /// "the overhead for the added level of loop nesting" (§3.4).
    ///
    /// Every suffix item of candidate `j` ranks above `j`, so one
    /// ascending scan of ranks `j+1..n_ranks`, O(n_ranks − j), reads each
    /// candidate's children off its row already in order and re-zeroes
    /// the row, leaving the block all zero when this returns.
    fn calc_freq_tiled(
        &mut self,
        pdb: &ProjDb,
        children: &[(u32, u64)],
        tile_rows: usize,
    ) -> Vec<Children> {
        let n_ranks = self.n_ranks;
        let block = children.len() * n_ranks;
        if self.tile_counts.len() < block {
            self.tile_counts.resize(block, 0);
        }
        self.tile_cursors.resize(children.len(), 0);
        self.count_tiles(pdb, children, tile_rows);
        let minsup = self.minsup;
        children
            .iter()
            .enumerate()
            .map(|(ci, &(j, _))| {
                let row = &mut self.tile_counts[ci * n_ranks..(ci + 1) * n_ranks];
                let mut grand = Children::new();
                for (it, c) in row.iter_mut().enumerate().skip(j as usize + 1) {
                    if *c as u64 >= minsup {
                        grand.push((it as u32, *c as u64));
                    }
                    *c = 0;
                }
                grand
            })
            .collect()
    }

    /// The counting loop of [`Self::calc_freq_tiled`]: adds every suffix
    /// item's weight into its candidate's row of `tile_counts`, tile by
    /// tile.
    ///
    /// Runs once per tiled node over every occurrence of its candidates,
    /// so it must not allocate: the caller grows the count block and the
    /// cursors beforehand (proven at runtime by
    /// `tiled_count_loop_is_allocation_free`).
    // also-lint: hot
    fn count_tiles(&mut self, pdb: &ProjDb, children: &[(u32, u64)], tile_rows: usize) {
        let n_ranks = self.n_ranks;
        self.tile_cursors[..children.len()].fill(0);
        for tile in also::tiling::tiles(pdb.heads.len(), tile_rows) {
            let end = tile.end as u32;
            for (ci, &(j, _)) in children.iter().enumerate() {
                let col = pdb.occ(j);
                let row = &mut self.tile_counts[ci * n_ranks..(ci + 1) * n_ranks];
                let cur = &mut self.tile_cursors[ci];
                while *cur < col.len() && col[*cur].tid < end {
                    let e = col[*cur];
                    *cur += 1;
                    self.probe.read(memsim::addr_of(&col[*cur - 1]), 8);
                    let h = &pdb.heads[e.tid as usize];
                    self.probe.read_dep(memsim::addr_of(h), 12);
                    let w = h.weight;
                    let suffix = pdb.suffix_raw(e, h);
                    let (sa, sl) = memsim::slice_span(suffix);
                    self.probe.read(sa, sl);
                    self.probe.instr(11);
                    self.stats.occ_entries += 1;
                    self.stats.items_counted += suffix.len() as u64;
                    for &it in suffix {
                        self.probe.instr(4);
                        self.probe.write(memsim::addr_of(&row[it as usize]), 4);
                        row[it as usize] += w;
                    }
                }
            }
        }
    }

    /// Builds the projection of `pdb` onto candidate `j`: every
    /// transaction containing `j`, trimmed to its frequent children
    /// (database reduction), duplicates merged, occurrence lists rebuilt.
    fn project(&mut self, pdb: &ProjDb, j: u32, children: &Children) -> ProjDb {
        // mark frequent children for O(1) filtering
        self.fmark_epoch = self.fmark_epoch.wrapping_add(1);
        if self.fmark_epoch == 0 {
            self.fmark.fill(0);
            self.fmark_epoch = 1;
        }
        for &(it, _) in children {
            self.fmark[it as usize] = self.fmark_epoch;
        }
        let mut child = ProjDb::default();
        for &e in pdb.occ(j) {
            let h = &pdb.heads[e.tid as usize];
            let off = child.items.len() as u32;
            for &it in pdb.suffix_raw(e, h) {
                if self.fmark[it as usize] == self.fmark_epoch {
                    child.items.push(it);
                }
            }
            let len = child.items.len() as u32 - off;
            if len > 0 {
                child.heads.push(TransHead {
                    off,
                    len,
                    weight: h.weight,
                });
            }
        }
        let before = child.heads.len();
        child.heads = rm_dup_trans(
            &child.items,
            std::mem::take(&mut child.heads),
            self.cfg.bucket_impl(),
            self.probe,
        );
        self.stats.trans_merged += (before - child.heads.len()) as u64;
        child.build_occ(self.n_ranks, self.probe);
        child
    }
}

impl ProjDb {
    /// Suffix via a pre-fetched header (avoids the double bounds lookup
    /// inside the projection loop).
    #[inline]
    pub(crate) fn suffix_raw(&self, e: OccEntry, h: &TransHead) -> &[u32] {
        &self.items[e.pos as usize + 1..h.end() as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpm::CountSink;
    use memsim::NullProbe;

    /// 64 rows over 6 ranks, every column non-trivial.
    fn six_rank_rows() -> Vec<Vec<u32>> {
        (0..64u32)
            .map(|t| {
                (0..6)
                    .filter(|r| (t >> (r % 6)) & 1 == 0 || t % (r + 2) == 0)
                    .collect()
            })
            .collect()
    }

    /// Runtime half of deliver_column's `// also-lint: hot` contract:
    /// after Miner::new's preallocation, the occurrence-deliver loop (the
    /// paper's 54%-of-profile `calc_freq` walk) performs zero allocations
    /// — for the scattered-slot baseline, the P4 compact layout, and the
    /// P7.1 prefetch variant alike.
    #[test]
    fn occurrence_deliver_loop_is_allocation_free() {
        let transactions = six_rank_rows();
        for cfg in [
            LcmConfig::baseline(),
            LcmConfig {
                compact_counters: true,
                prefetch: 4,
                ..LcmConfig::baseline()
            },
        ] {
            let mut probe = NullProbe;
            let mut sink = CountSink::default();
            let control = MineControl::unlimited();
            let mut miner = Miner::new(cfg, 1, 6, &mut probe, &control, &mut sink);
            let mut root = ProjDb::from_ranked(&transactions);
            root.build_occ(6, miner.probe);
            // Columns must be non-trivial or the test proves nothing.
            assert!(root.occ(0).len() > 10);
            fpm::alloc_guard::assert_no_alloc(|| {
                for j in 0..6 {
                    miner.deliver_column(&root, j);
                }
            });
            assert!(miner.stats.occ_entries > 0);
        }
    }

    /// Runtime half of count_tiles' `// also-lint: hot` contract: once a
    /// first calc_freq_tiled call has grown the count block and the
    /// cursors, the tiled counting loop performs zero allocations; and
    /// every calc_freq_tiled return, at the root or deep in a recursion
    /// that reuses the block, leaves it all zero.
    #[test]
    fn tiled_count_loop_is_allocation_free() {
        let transactions = six_rank_rows();
        let cfg = LcmConfig {
            tile_rows: Some(1),
            ..LcmConfig::all()
        };
        let mut probe = NullProbe;
        let mut sink = CountSink::default();
        let control = MineControl::unlimited();
        let mut miner = Miner::new(cfg, 1, 6, &mut probe, &control, &mut sink);
        let mut root = ProjDb::from_ranked(&transactions);
        root.build_occ(6, miner.probe);
        let children: Vec<(u32, u64)> = (0..6).map(|r| (r, root.support(r))).collect();
        let expect: Vec<Children> = children
            .iter()
            .map(|&(j, _)| miner.calc_freq(&root, j))
            .collect();
        // Rows must be non-trivial or the test proves nothing.
        assert!(expect[0].len() > 2);
        for t in [1, 7, 64] {
            let got = miner.calc_freq_tiled(&root, &children, t);
            assert_eq!(got, expect, "tile={t}");
            assert!(miner.tile_counts.iter().all(|&c| c == 0), "tile={t}");
            fpm::alloc_guard::assert_no_alloc(|| miner.count_tiles(&root, &children, t));
            for (row, grand) in miner.tile_counts.chunks(6).zip(&expect) {
                for &(it, c) in grand {
                    assert_eq!(row[it as usize] as u64, c, "tile={t}");
                }
            }
            miner.tile_counts.fill(0);
        }
        miner.node(&root, &children);
        assert!(miner.stats.nodes > 1);
        assert!(miner.tile_counts.iter().all(|&c| c == 0));
    }
}
