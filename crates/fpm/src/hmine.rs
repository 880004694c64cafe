//! H-Mine (Pei et al., ICDM'01 — the paper's reference \[25\]):
//! hyper-structure mining of frequent patterns.
//!
//! H-Mine is the fourth algorithm family the paper's related-work section
//! draws its kernel space from: neither an occurrence-deliver array
//! (LCM), nor a bit matrix (Eclat), nor a prefix tree (FP-Growth), but an
//! **H-struct** — the flattened transaction arena plus, per frequent
//! item, a *queue* threading every transaction whose projection starts at
//! that item. Mining an item's projection re-threads the queues one
//! position to the right instead of copying the database, which is the
//! structure's selling point: near-zero projection memory.
//!
//! It lives in `fpm-core` (not its own crate) because this reproduction
//! uses it as a *fourth independent oracle* for the cross-kernel
//! equivalence tests and as the baseline subject of the `also` patterns'
//! generality argument ("the patterns are not tied to particular
//! implementations", §6) — it is deliberately left untuned.

use crate::remap::remap;
use crate::sink::{PatternSink, TranslateSink};
use crate::TransactionDb;

/// One threaded cell: an occurrence of an item inside a transaction,
/// linked to the next occurrence of the same item in queue order.
#[derive(Debug, Clone, Copy)]
struct Cell {
    /// Arena position of this occurrence.
    pos: u32,
    /// Next cell index in the same item queue (`NONE` ends the queue).
    next: u32,
}

const NONE: u32 = u32::MAX;

/// Mines every frequent itemset of `db` at `minsup`, emitting patterns
/// in **original item ids** (sorted) to `sink`.
pub fn mine<S: PatternSink>(db: &TransactionDb, minsup: u64, sink: &mut S) {
    let ranked = remap(db, minsup);
    let minsup = minsup.max(1);
    let n_ranks = ranked.n_ranks();
    if n_ranks == 0 {
        return;
    }
    // Flatten the arena; each transaction keeps weight 1 (H-Mine does
    // not merge duplicates — that is LCM's trick).
    let mut items: Vec<u32> = Vec::new();
    let mut trans_end: Vec<u32> = Vec::new(); // arena end per transaction
    let mut cell_of_pos: Vec<Cell> = Vec::new();
    for t in &ranked.transactions {
        items.extend_from_slice(t);
        trans_end.push(items.len() as u32);
    }
    cell_of_pos.resize(items.len(), Cell { pos: 0, next: NONE });
    // `end_of(pos)` — the arena end of the transaction containing pos —
    // via binary search over trans_end.
    let end_of = |pos: u32| -> u32 {
        let i = trans_end.partition_point(|&e| e <= pos);
        trans_end[i]
    };

    // Initial queues: thread every occurrence of each item.
    let mut heads = vec![NONE; n_ranks];
    let mut tails = vec![NONE; n_ranks];
    for (p, &it) in items.iter().enumerate() {
        let p = p as u32;
        cell_of_pos[p as usize] = Cell { pos: p, next: NONE };
        let it = it as usize;
        if heads[it] == NONE {
            heads[it] = p;
        } else {
            cell_of_pos[tails[it] as usize].next = p;
        }
        tails[it] = p;
    }

    let mut translate = TranslateSink::new(&ranked.map, sink);
    let mut miner = HMiner {
        items: &items,
        end_of: &end_of,
        minsup,
        n_ranks,
        sink: &mut translate,
        prefix: Vec::new(),
    };
    // Process items ascending; the projection of item i threads queues
    // for items > i over the suffixes of i's transactions.
    let root: Vec<(u32, Vec<u32>)> = (0..n_ranks as u32)
        .filter(|&r| heads[r as usize] != NONE)
        .map(|r| {
            let mut q = Vec::new();
            let mut cur = heads[r as usize];
            while cur != NONE {
                q.push(cell_of_pos[cur as usize].pos);
                cur = cell_of_pos[cur as usize].next;
            }
            (r, q)
        })
        .collect();
    for (r, queue) in root {
        let support = queue.len() as u64;
        if support >= minsup {
            miner.descend(r, &queue, support);
        }
    }
}

struct HMiner<'a, S, F: Fn(u32) -> u32> {
    items: &'a [u32],
    end_of: &'a F,
    minsup: u64,
    n_ranks: usize,
    sink: &'a mut S,
    prefix: Vec<u32>,
}

impl<S: PatternSink, F: Fn(u32) -> u32> HMiner<'_, S, F> {
    /// Processes the projection on `item`, whose queue holds the arena
    /// positions of `item` in every transaction containing the current
    /// prefix ∪ {item}.
    fn descend(&mut self, item: u32, queue: &[u32], support: u64) {
        self.prefix.push(item);
        self.sink.emit(&self.prefix, support);
        // Re-thread: for every position in the queue, every later item in
        // the same transaction joins that item's sub-queue.
        let mut sub: Vec<Vec<u32>> = vec![Vec::new(); self.n_ranks];
        let mut seen: Vec<u32> = Vec::new();
        for &pos in queue {
            let end = (self.end_of)(pos);
            for p in pos + 1..end {
                let it = self.items[p as usize] as usize;
                if sub[it].is_empty() {
                    seen.push(it as u32);
                }
                sub[it].push(p);
            }
        }
        seen.sort_unstable();
        for &r in &seen {
            let q = std::mem::take(&mut sub[r as usize]);
            let s = q.len() as u64;
            if s >= self.minsup {
                self.descend(r, &q, s);
            }
        }
        self.prefix.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use crate::types::canonicalize;
    use crate::CollectSink;

    fn run(db: &TransactionDb, minsup: u64) -> Vec<crate::ItemsetCount> {
        let mut sink = CollectSink::default();
        mine(db, minsup, &mut sink);
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
    fn matches_naive_on_toy() {
        for minsup in 1..=5u64 {
            assert_eq!(
                run(&toy(), minsup),
                canonicalize(naive::mine(&toy(), minsup)),
                "minsup={minsup}"
            );
        }
    }

    #[test]
    fn matches_naive_on_pseudorandom() {
        let mut s = 61u64;
        let mut rnd = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let db = TransactionDb::from_transactions(
            (0..200)
                .map(|_| (0..14u32).filter(|_| rnd() % 3 == 0).collect::<Vec<_>>())
                .collect(),
        );
        assert_eq!(run(&db, 6), canonicalize(naive::mine(&db, 6)));
    }

    #[test]
    fn degenerate_inputs() {
        assert!(run(&TransactionDb::default(), 1).is_empty());
        let single = TransactionDb::from_transactions(vec![vec![4, 7]]);
        let out = run(&single, 1);
        assert_eq!(out.len(), 3); // {4}, {7}, {4,7}
    }

    #[test]
    fn weighted_support_semantics_match() {
        // H-Mine counts transactions (weight 1 each) — duplicates must
        // still sum correctly against the oracle.
        let db = TransactionDb::from_transactions(vec![vec![0, 1]; 7]);
        let out = run(&db, 7);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|p| p.support == 7));
    }
}
