//! The FP-tree (paper Figure 7): an augmented prefix tree whose nodes
//! carry an item, a count, a parent pointer, and a *node link* chaining
//! every node labelled with the same item off a header table. The two
//! hot access patterns — following header node-links, then walking each
//! node's path to the root — are both pointer chases, which is why the
//! paper's tuning targets node size (P2), path locality (P1, P3) and
//! latency hiding (P5, P7).
//!
//! Node storage comes in two *traversal representations*:
//!
//! * [`AosNode`] — the baseline 24-byte array-of-structs node;
//! * delta form (P2) — the path walk touches only a `parent: u32` array
//!   and a one-byte differential item code ([`also::adapt::DeltaByte`]),
//!   5 bytes per node instead of 24.
//!
//! The P3 overlay ([`AggNode`]) packs each node's three nearest ancestor
//! items plus a skip pointer into 16 bytes, so an upward walk
//! dereferences once per **three** levels; ancestors shared between paths
//! are replicated inline, the trade Figure 4 of the paper illustrates.

use also::adapt::{DeltaByte, DELTA_ESCAPE, NO_PARENT};
use memsim::Probe;

/// Sentinel node id (no node / root's parent).
pub const NONE: u32 = u32::MAX;
/// The root's pseudo-item.
pub const ROOT_ITEM: u32 = u32::MAX;

/// Baseline array-of-structs node (24 bytes).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct AosNode {
    /// Item rank.
    pub item: u32,
    /// Subtree transaction count.
    pub count: u32,
    /// Parent node id ([`NONE`] for root children — the root itself is
    /// not materialized in the AoS array).
    pub parent: u32,
    /// Next node with the same item (header chain).
    pub link: u32,
    /// First child (build-time only).
    pub first_child: u32,
    /// Next sibling (build-time only).
    pub sibling: u32,
}

/// The P2 (delta) traversal representation: dense field arrays with the
/// item stored as a one-byte difference from the parent's item.
#[derive(Debug, Default)]
pub struct DeltaRepr {
    /// One byte per node ([`DELTA_ESCAPE`] ⇒ side table).
    pub delta: Vec<u8>,
    /// Escape side table.
    pub codec: DeltaByte,
}

/// The P3 (aggregation) overlay: three ancestor items inline plus a skip
/// pointer three levels up.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct AggNode {
    /// Items of the parent, grandparent, great-grandparent
    /// ([`ROOT_ITEM`] marks "path ended here").
    pub anc: [u32; 3],
    /// Node id of the great-grandparent ([`NONE`] when the path ends
    /// within `anc`).
    pub skip: u32,
}

/// Which structures a tree materializes — derived from the miner config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeRepr {
    /// P2: delta representation instead of AoS for walks.
    pub adapt: bool,
    /// P3: aggregation overlay.
    pub aggregate: bool,
    /// P5: per-chain jump pointers (distance 2) for software prefetch.
    pub jump_pointers: bool,
}

/// An FP-tree over rank ids `0..n_ranks`.
pub struct FpTree {
    n_ranks: usize,
    // canonical SoA (always present; drives construction and serves as
    // the delta form's count/link/parent arrays)
    item: Vec<u32>,
    count: Vec<u32>,
    parent: Vec<u32>,
    link: Vec<u32>,
    first_child: Vec<u32>,
    sibling: Vec<u32>,
    /// Per rank: head of the node-link chain.
    pub header: Vec<u32>,
    /// Per rank: total support accumulated at insertion.
    pub header_sup: Vec<u64>,
    root_first_child: u32,
    repr: TreeRepr,
    aos: Vec<AosNode>,
    delta: DeltaRepr,
    agg: Vec<AggNode>,
    jump: Vec<u32>,
}

impl FpTree {
    /// Creates an empty tree.
    pub fn new(n_ranks: usize, repr: TreeRepr) -> Self {
        FpTree {
            n_ranks,
            item: Vec::new(),
            count: Vec::new(),
            parent: Vec::new(),
            link: Vec::new(),
            first_child: Vec::new(),
            sibling: Vec::new(),
            header: vec![NONE; n_ranks],
            header_sup: vec![0; n_ranks],
            root_first_child: NONE,
            repr,
            aos: Vec::new(),
            delta: DeltaRepr::default(),
            agg: Vec::new(),
            jump: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.item.len()
    }

    /// `true` when the tree has no nodes.
    pub fn is_empty(&self) -> bool {
        self.item.is_empty()
    }

    /// The item universe size.
    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    /// Bytes used by the traversal structures — reported by the
    /// adaptation/aggregation benches.
    pub fn traversal_bytes(&self) -> usize {
        let mut b = 0;
        if self.repr.adapt {
            b += self.delta.delta.len() + self.parent.len() * 4 + self.delta.codec.bytes();
        } else {
            b += self.aos.len() * std::mem::size_of::<AosNode>();
        }
        if self.repr.aggregate {
            b += self.agg.len() * std::mem::size_of::<AggNode>();
        }
        if self.repr.jump_pointers {
            b += self.jump.len() * 4;
        }
        b
    }

    /// Inserts one transaction (items ascending in rank) with
    /// multiplicity `count`. Must be called before [`FpTree::finalize`].
    pub fn insert<P: Probe>(&mut self, items: &[u32], count: u32, probe: &mut P) {
        let mut cur = NONE; // virtual root
        for &it in items {
            debug_assert!((it as usize) < self.n_ranks);
            // find the child of `cur` labelled `it` by sibling scan
            let mut child = if cur == NONE {
                self.root_first_child
            } else {
                self.first_child[cur as usize]
            };
            let mut found = NONE;
            while child != NONE {
                probe.read_dep(memsim::addr_of(&self.item[child as usize]), 4);
                probe.instr(6);
                if self.item[child as usize] == it {
                    found = child;
                    break;
                }
                child = self.sibling[child as usize];
            }
            let node = if found != NONE {
                self.count[found as usize] += count;
                probe.write(memsim::addr_of(&self.count[found as usize]), 4);
                found
            } else {
                let id = self.item.len() as u32;
                self.item.push(it);
                self.count.push(count);
                self.parent.push(cur);
                self.link.push(self.header[it as usize]);
                self.header[it as usize] = id;
                if cur == NONE {
                    self.first_child.push(NONE);
                    self.sibling.push(self.root_first_child);
                    self.root_first_child = id;
                } else {
                    self.sibling.push(self.first_child[cur as usize]);
                    self.first_child.push(NONE);
                    self.first_child[cur as usize] = id;
                }
                probe.write(memsim::addr_of(&self.item[id as usize]), 24);
                probe.instr(8);
                id
            };
            self.header_sup[it as usize] += count as u64;
            cur = node;
        }
    }

    /// Builds the configured traversal representations. Call once after
    /// all insertions; the tree is read-only afterwards (the requirement
    /// the aggregation pattern imposes, §3.3).
    pub fn finalize(&mut self) {
        if self.repr.adapt {
            let mut codec = DeltaByte::new();
            let mut delta = Vec::with_capacity(self.len());
            for n in 0..self.len() as u32 {
                let p = self.parent[n as usize];
                let p_item = if p == NONE {
                    NO_PARENT
                } else {
                    self.item[p as usize]
                };
                delta.push(codec.encode(n, p_item, self.item[n as usize]));
            }
            self.delta = DeltaRepr { delta, codec };
        } else {
            self.aos = (0..self.len())
                .map(|n| AosNode {
                    item: self.item[n],
                    count: self.count[n],
                    parent: self.parent[n],
                    link: self.link[n],
                    first_child: self.first_child[n],
                    sibling: self.sibling[n],
                })
                .collect();
        }
        if self.repr.aggregate {
            self.agg = (0..self.len() as u32)
                .map(|n| {
                    let mut anc = [ROOT_ITEM; 3];
                    let mut cur = self.parent[n as usize];
                    let mut skip = NONE;
                    for (k, a) in anc.iter_mut().enumerate() {
                        if cur == NONE {
                            break;
                        }
                        *a = self.item[cur as usize];
                        let up = self.parent[cur as usize];
                        if k == 2 {
                            skip = cur; // continue from the 3rd ancestor
                        }
                        cur = up;
                    }
                    // skip only meaningful if the 3rd ancestor exists and
                    // has a parent to continue from
                    if skip != NONE && self.parent[skip as usize] == NONE {
                        skip = NONE;
                    }
                    AggNode { anc, skip }
                })
                .collect();
        }
        // Jump pointers pay off only on chains long enough to hide
        // latency; tiny conditional trees skip the auxiliary structure
        // entirely (its build cost would dominate — the "extra storage
        // and preprocessing time" trade of §3.3).
        if self.repr.jump_pointers && self.len() >= 64 {
            let mut jump = vec![NONE; self.len()];
            // Walk each header chain once, maintaining a 2-slot window:
            // the node two steps behind gets the current node as target.
            for r in 0..self.n_ranks {
                let mut behind2 = NONE;
                let mut behind1 = NONE;
                let mut cur = self.header[r];
                while cur != NONE {
                    if behind2 != NONE {
                        jump[behind2 as usize] = cur;
                    }
                    behind2 = behind1;
                    behind1 = cur;
                    cur = self.link[cur as usize];
                }
            }
            self.jump = jump;
        }
    }

    /// Iterates the header chain of `item`, yielding `(node, count)` with
    /// representation-appropriate probing and (if configured) jump-pointer
    /// software prefetch.
    #[inline]
    pub fn for_each_chain_node<P: Probe>(
        &self,
        item: u32,
        probe: &mut P,
        mut f: impl FnMut(u32, u32),
    ) {
        let mut cur = self.header[item as usize];
        while cur != NONE {
            let (count, next) = if self.repr.adapt {
                probe.read_dep(memsim::addr_of(&self.count[cur as usize]), 4);
                probe.read(memsim::addr_of(&self.link[cur as usize]), 4);
                (self.count[cur as usize], self.link[cur as usize])
            } else {
                let n = &self.aos[cur as usize];
                probe.read_dep(memsim::addr_of(n), 24);
                (n.count, n.link)
            };
            // jump is empty for trees too small to bother with (finalize
            // skips the auxiliary structure below 64 nodes)
            if self.repr.jump_pointers && !self.jump.is_empty() {
                let j = self.jump[cur as usize];
                if j != NONE {
                    let addr = if self.repr.adapt {
                        memsim::addr_of(&self.count[j as usize])
                    } else {
                        memsim::addr_of(&self.aos[j as usize])
                    };
                    also::prefetch::prefetch_read(addr as *const u8);
                    probe.prefetch(addr);
                }
            }
            probe.instr(10);
            f(cur, count);
            cur = next;
        }
    }

    /// Walks from `node` (whose item is `node_item`) to the root, pushing
    /// the **ancestor** items (nearest first, i.e. descending rank order)
    /// into `out`. Uses the aggregation overlay when present, else the
    /// delta or AoS chain.
    #[inline]
    pub fn path_to_root<P: Probe>(&self, node: u32, node_item: u32, probe: &mut P, out: &mut Vec<u32>) {
        if self.repr.aggregate {
            let mut cur = node;
            loop {
                let a = &self.agg[cur as usize];
                probe.read_dep(memsim::addr_of(a), 16);
                probe.instr(14);
                for &it in &a.anc {
                    if it == ROOT_ITEM {
                        return;
                    }
                    out.push(it);
                }
                if a.skip == NONE {
                    return;
                }
                cur = a.skip;
            }
        } else if self.repr.adapt {
            let mut cur = node;
            let mut cur_item = node_item;
            loop {
                probe.read_dep(memsim::addr_of(&self.parent[cur as usize]), 4);
                probe.read(memsim::addr_of(&self.delta.delta[cur as usize]), 1);
                probe.instr(8);
                let p = self.parent[cur as usize];
                if p == NONE {
                    return;
                }
                let d = self.delta.delta[cur as usize];
                let p_item = if d == DELTA_ESCAPE {
                    // decode via the side table: the stored absolute item
                    // equals cur's item; recover parent from SoA (escapes
                    // are rare enough that the extra load is in the noise)
                    self.item[p as usize]
                } else {
                    cur_item - 1 - d as u32
                };
                out.push(p_item);
                cur = p;
                cur_item = p_item;
            }
        } else {
            let mut cur = self.aos[node as usize].parent;
            while cur != NONE {
                let n = &self.aos[cur as usize];
                probe.read_dep(memsim::addr_of(n), 24);
                probe.instr(8);
                out.push(n.item);
                cur = n.parent;
            }
        }
    }

    /// Direct item lookup (test/debug).
    pub fn item_of(&self, node: u32) -> u32 {
        self.item[node as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::NullProbe;

    fn reprs() -> Vec<TreeRepr> {
        let mut v = Vec::new();
        for adapt in [false, true] {
            for aggregate in [false, true] {
                for jump_pointers in [false, true] {
                    v.push(TreeRepr {
                        adapt,
                        aggregate,
                        jump_pointers,
                    });
                }
            }
        }
        v
    }

    fn build(transactions: &[(Vec<u32>, u32)], n_ranks: usize, repr: TreeRepr) -> FpTree {
        let mut t = FpTree::new(n_ranks, repr);
        for (items, c) in transactions {
            t.insert(items, *c, &mut NullProbe);
        }
        t.finalize();
        t
    }

    /// The paper's Figure 7 tree comes from Table 1's ordered database.
    fn table1() -> Vec<(Vec<u32>, u32)> {
        vec![
            (vec![0, 1, 2], 1),
            (vec![0, 1, 2], 1),
            (vec![0, 1, 2, 3, 4, 5], 1),
            (vec![0, 1, 3], 1),
            (vec![4, 5], 1),
        ]
    }

    #[test]
    fn prefix_sharing_compresses() {
        let t = build(&table1(), 6, reprs()[0]);
        // paths: 0-1-2(-3-4-5), 0-1-3, 4-5 → nodes: 0,1,2,3,4,5,3',4',5'… count:
        // c,f shared by 4 transactions; distinct nodes: 0,1,2,3(under 2),4,5,3(under 1),4(root),5
        assert_eq!(t.len(), 9);
        assert_eq!(t.header_sup[0], 4);
        assert_eq!(t.header_sup[1], 4);
        assert_eq!(t.header_sup[5], 2);
    }

    #[test]
    fn header_chains_cover_all_nodes_per_item() {
        for repr in reprs() {
            let t = build(&table1(), 6, repr);
            for item in 0..6u32 {
                let mut total = 0u64;
                let mut nodes = 0;
                t.for_each_chain_node(item, &mut NullProbe, |n, c| {
                    assert_eq!(t.item_of(n), item);
                    total += c as u64;
                    nodes += 1;
                });
                assert_eq!(total, t.header_sup[item as usize], "item {item} {repr:?}");
                let _ = nodes;
            }
        }
    }

    #[test]
    fn paths_agree_across_representations() {
        let base = build(&table1(), 6, reprs()[0]);
        for repr in reprs() {
            let t = build(&table1(), 6, repr);
            assert_eq!(t.len(), base.len());
            for item in 0..6u32 {
                // collect every chain node's path under both trees
                let mut got: Vec<Vec<u32>> = Vec::new();
                t.for_each_chain_node(item, &mut NullProbe, |n, _| {
                    let mut p = Vec::new();
                    t.path_to_root(n, item, &mut NullProbe, &mut p);
                    got.push(p);
                });
                let mut expect: Vec<Vec<u32>> = Vec::new();
                base.for_each_chain_node(item, &mut NullProbe, |n, _| {
                    let mut p = Vec::new();
                    base.path_to_root(n, item, &mut NullProbe, &mut p);
                    expect.push(p);
                });
                got.sort();
                expect.sort();
                assert_eq!(got, expect, "item {item} {repr:?}");
            }
        }
    }

    #[test]
    fn paths_descend_in_rank() {
        let t = build(&table1(), 6, reprs()[0]);
        for item in 0..6u32 {
            t.for_each_chain_node(item, &mut NullProbe, |n, _| {
                let mut p = vec![item];
                t.path_to_root(n, item, &mut NullProbe, &mut p);
                assert!(p.windows(2).all(|w| w[0] > w[1]), "path {p:?}");
            });
        }
    }

    /// Every nonempty subset of ranks `0..bits` as one transaction: a
    /// prefix tree of `2^bits - 1` nodes whose rank-`r` chain holds `2^r`.
    fn subsets(bits: u32) -> Vec<(Vec<u32>, u32)> {
        (1..1u32 << bits)
            .map(|k| ((0..bits).filter(|i| k >> i & 1 == 1).collect(), 1))
            .collect()
    }

    #[test]
    fn jump_table_points_two_links_down_each_chain() {
        for repr in reprs().into_iter().filter(|r| r.jump_pointers) {
            let t = build(&subsets(7), 7, repr);
            assert_eq!((t.len(), t.jump.len()), (127, 127), "{repr:?}");
            let mut on_chains = 0;
            for r in 0..7 {
                let mut chain = Vec::new();
                let mut cur = t.header[r];
                while cur != NONE {
                    chain.push(cur);
                    cur = t.link[cur as usize];
                }
                assert_eq!(chain.len(), 1 << r);
                for (i, &n) in chain.iter().enumerate() {
                    let two_down = chain.get(i + 2).copied().unwrap_or(NONE);
                    assert_eq!(t.jump[n as usize], two_down, "rank {r}, link {i}, {repr:?}");
                }
                for &n in chain.iter().rev().take(2) {
                    assert_eq!(t.jump[n as usize], NONE, "rank {r} chain tail, {repr:?}");
                }
                on_chains += chain.len();
            }
            assert_eq!(on_chains, t.len(), "every node lies on one chain");
            let small = build(&subsets(6), 6, repr);
            assert_eq!(small.len(), 63);
            assert!(
                small.jump.is_empty(),
                "a tree below 64 nodes builds no table"
            );
        }
    }

    #[test]
    fn deep_paths_exercise_agg_skip() {
        // one long chain: 0-1-2-...-19 → agg walk needs multiple skips
        let tx = vec![((0..20u32).collect::<Vec<_>>(), 1)];
        for repr in reprs() {
            let t = build(&tx, 20, repr);
            let mut p = Vec::new();
            t.path_to_root(t.header[19], 19, &mut NullProbe, &mut p);
            assert_eq!(p, (0..19u32).rev().collect::<Vec<_>>(), "{repr:?}");
        }
    }

    #[test]
    fn delta_escapes_handled() {
        // ranks far apart force escape codes (delta > 0xFE)
        let tx = vec![(vec![0u32, 500, 900], 1)];
        for repr in reprs().into_iter().filter(|r| r.adapt) {
            let t = build(&tx, 1000, repr);
            let mut p = Vec::new();
            t.path_to_root(t.header[900], 900, &mut NullProbe, &mut p);
            assert_eq!(p, vec![500, 0], "{repr:?}");
        }
    }

    #[test]
    fn weighted_insertions() {
        let tx = vec![(vec![0u32, 1], 3), (vec![0], 2)];
        let t = build(&tx, 2, reprs()[0]);
        assert_eq!(t.header_sup[0], 5);
        assert_eq!(t.header_sup[1], 3);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn empty_tree() {
        let t = build(&[], 4, reprs()[0]);
        assert!(t.is_empty());
        assert_eq!(t.header[0], NONE);
    }

    #[test]
    fn traversal_bytes_reflect_adaptation() {
        let tx: Vec<(Vec<u32>, u32)> = (0..50)
            .map(|k| ((0..8u32).map(|i| i * 2 + (k % 2)).collect(), 1))
            .collect();
        let base = build(&tx, 20, TreeRepr { adapt: false, aggregate: false, jump_pointers: false });
        let small = build(&tx, 20, TreeRepr { adapt: true, aggregate: false, jump_pointers: false });
        assert!(
            small.traversal_bytes() * 3 < base.traversal_bytes(),
            "delta nodes ({}) must be far smaller than AoS ({})",
            small.traversal_bytes(),
            base.traversal_bytes()
        );
    }
}
