//! First-class pattern queries: class (all/closed/maximal), top-k by
//! support, and association-rule thresholds, with a lossless hashable
//! key form ([`QueryKey`]) that widens the serve cache key and tags the
//! store's on-disk results (DESIGN.md §15).
//!
//! A [`PatternQuery`] names *which slice* of the frequent set a caller
//! wants; the executor always mines the complete set first (the prefix
//! contract lives there), then applies the query as a deterministic
//! pure function of that serial-order list:
//!
//! 1. **class** — closed/maximal filtering via FastLMFI-style superset
//!    checking over a prefix-ordered [`SetTrie`] (PAPERS.md), replacing
//!    the old quadratic one-item-removed scan;
//! 2. **rules** — keep only rule-bearing itemsets: `Z` survives iff
//!    some single-consequent rule `Z∖{c} ⇒ c` clears the confidence and
//!    lift thresholds (subset supports come from the complete set, per
//!    the anti-monotone property they are always present);
//! 3. **top-k** — the `k` best survivors by `(support desc, serial
//!    rank asc)`, emitted in that order, so `top-k(k)` is byte-identical
//!    to the first `k` lines of `top-k(∞)`.
//!
//! The same pipeline runs at every thread count because it consumes the
//! merged serial-order list — byte-identity across threads is inherited
//! from the executor's replay contract, not re-proven here.

use crate::control::MineControl;
use crate::sink::PatternSink;
use crate::types::{Item, ItemsetCount, MineKind};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::HashMap;

/// Association-rule thresholds: a pattern (or generated rule) qualifies
/// when confidence and lift both clear their minimums.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct RuleSpec {
    /// Minimum confidence `sup(Z) / sup(antecedent)` in `[0, 1]`.
    pub min_confidence: f64,
    /// Minimum lift `confidence / (sup(consequent) / N)`; `1.0` means
    /// "no better than independence".
    pub min_lift: f64,
}

impl RuleSpec {
    /// A spec that thresholds confidence only (`min_lift = 0`).
    pub fn confidence(min_confidence: f64) -> RuleSpec {
        RuleSpec { min_confidence, min_lift: 0.0 }
    }
}

/// Which slice of the frequent set a caller wants.
///
/// The default query (`All`, no top-k, no rules) is the identity — the
/// executor's streaming fast path — and keys as [`QueryKey::default`],
/// so pre-query cache keys and artifacts stay meaningful.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatternQuery {
    /// Pattern class: every frequent itemset, only closed, only maximal.
    pub class: MineKind,
    /// Keep only the `k` best by `(support desc, serial rank asc)`.
    pub top_k: Option<u64>,
    /// Keep only rule-bearing itemsets (see module docs).
    pub rules: Option<RuleSpec>,
}

impl Default for PatternQuery {
    fn default() -> Self {
        PatternQuery { class: MineKind::All, top_k: None, rules: None }
    }
}

/// A `PatternQuery` flattened to hashable/orderable primitives (`f64`
/// thresholds as IEEE bit patterns): the form that widens the serve
/// cache key. Lossless — see [`PatternQuery::from_key`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct QueryKey {
    /// [`MineKind::code`] of the class.
    pub class: u8,
    /// The top-k bound, if any.
    pub top_k: Option<u64>,
    /// `(min_confidence.to_bits(), min_lift.to_bits())`, if any.
    pub rules: Option<(u64, u64)>,
}

impl PatternQuery {
    /// The identity query: every frequent itemset, unfiltered.
    pub fn all() -> PatternQuery {
        PatternQuery::default()
    }

    /// A query for a pattern class with no top-k or rule thresholds.
    pub fn class(class: MineKind) -> PatternQuery {
        PatternQuery { class, ..PatternQuery::default() }
    }

    /// Sets the top-k bound.
    pub fn top_k(mut self, k: u64) -> PatternQuery {
        self.top_k = Some(k);
        self
    }

    /// Sets the rule thresholds.
    pub fn rules(mut self, spec: RuleSpec) -> PatternQuery {
        self.rules = Some(spec);
        self
    }

    /// `true` iff this is the identity query — the executor streams
    /// without collecting when it is.
    pub fn is_all(&self) -> bool {
        self.class == MineKind::All && self.top_k.is_none() && self.rules.is_none()
    }

    /// The hashable cache-key form. Lossless: [`from_key`] inverts it.
    ///
    /// [`from_key`]: PatternQuery::from_key
    pub fn key(&self) -> QueryKey {
        QueryKey {
            class: self.class.code(),
            top_k: self.top_k,
            rules: self
                .rules
                .map(|r| (r.min_confidence.to_bits(), r.min_lift.to_bits())),
        }
    }

    /// Reconstructs the query from its cache-key form; `None` iff the
    /// class code is unknown (a corrupt or future artifact tag).
    pub fn from_key(key: QueryKey) -> Option<PatternQuery> {
        Some(PatternQuery {
            class: MineKind::from_code(key.class)?,
            top_k: key.top_k,
            rules: key.rules.map(|(c, l)| RuleSpec {
                min_confidence: f64::from_bits(c),
                min_lift: f64::from_bits(l),
            }),
        })
    }

    /// A compact human-readable label, e.g. `closed+top10+rules(c0.6,l1.2)`.
    pub fn label(&self) -> String {
        let mut s = self.class.name().to_string();
        if let Some(k) = self.top_k {
            s.push_str(&format!("+top{k}"));
        }
        if let Some(r) = self.rules {
            s.push_str(&format!("+rules(c{},l{})", r.min_confidence, r.min_lift));
        }
        s
    }

    /// Applies the query to a **complete** All-class frequent set in
    /// serial emission order, yielding the answer in output order. The
    /// rules filter indexes the full set before class filtering so
    /// subset supports are always resolvable.
    pub fn apply(&self, all: Vec<ItemsetCount>, n_transactions: u64) -> Vec<ItemsetCount> {
        if self.is_all() {
            return all;
        }
        // deterministic-iteration audit: this map is probed with `get`
        // only; output order comes from walking the serial-order Vec.
        let index: Option<HashMap<Vec<Item>, u64>> = self.rules.map(|_| support_index(&all));
        let classed = match self.class {
            MineKind::All => all,
            MineKind::Closed => closed(all),
            MineKind::Maximal => maximal(all),
        };
        let ruled = match (self.rules, &index) {
            (Some(spec), Some(index)) => classed
                .into_iter()
                .filter(|p| bears_rule(p, index, n_transactions, &spec))
                .collect(),
            _ => classed,
        };
        match self.top_k {
            Some(k) => top_k_select(ruled, k),
            None => ruled,
        }
    }
}

/// Indexes a pattern list by sorted itemset for support lookups.
fn support_index(patterns: &[ItemsetCount]) -> HashMap<Vec<Item>, u64> {
    patterns
        .iter()
        .map(|p| {
            let mut k = p.items.clone();
            k.sort_unstable();
            (k, p.support)
        })
        .collect()
}

/// `true` iff some single-consequent rule `Z∖{c} ⇒ c` over itemset `p`
/// clears both thresholds. Subset supports come from `index` (built over
/// the complete frequent set, so they are always present).
fn bears_rule(
    p: &ItemsetCount,
    index: &HashMap<Vec<Item>, u64>,
    n_transactions: u64,
    spec: &RuleSpec,
) -> bool {
    let mut items = p.items.clone();
    items.sort_unstable();
    if items.len() < 2 || n_transactions == 0 {
        return false;
    }
    let n = n_transactions as f64;
    let mut antecedent = Vec::with_capacity(items.len() - 1);
    for drop in 0..items.len() {
        antecedent.clear();
        antecedent.extend_from_slice(&items[..drop]);
        antecedent.extend_from_slice(&items[drop + 1..]);
        let (Some(&sup_a), Some(&sup_c)) =
            (index.get(antecedent.as_slice()), index.get(&items[drop..=drop]))
        else {
            continue;
        };
        let confidence = p.support as f64 / sup_a as f64;
        let lift = confidence * n / sup_c as f64;
        if confidence >= spec.min_confidence && lift >= spec.min_lift {
            return true;
        }
    }
    false
}

/// One generated association rule `antecedent ⇒ consequent`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// The antecedent itemset (sorted ascending, non-empty).
    pub antecedent: Vec<Item>,
    /// The single consequent item.
    pub consequent: Item,
    /// Support of `antecedent ∪ {consequent}` (weighted transactions).
    pub support: u64,
    /// `sup(Z) / sup(antecedent)`.
    pub confidence: f64,
    /// `confidence / (sup(consequent) / N)`.
    pub lift: f64,
}

/// Generates every single-consequent rule over a **complete** frequent
/// set that clears `spec`, in deterministic order: serial rank of the
/// source itemset, then consequent position.
pub fn rules(
    all: &[ItemsetCount],
    n_transactions: u64,
    spec: &RuleSpec,
) -> Vec<Rule> {
    // deterministic-iteration audit: probed with `get` only; output
    // order walks the serial-order slice.
    let index = support_index(all);
    let mut out = Vec::new();
    if n_transactions == 0 {
        return out;
    }
    let n = n_transactions as f64;
    for p in all {
        let mut items = p.items.clone();
        items.sort_unstable();
        if items.len() < 2 {
            continue;
        }
        let mut antecedent = Vec::with_capacity(items.len() - 1);
        for drop in 0..items.len() {
            antecedent.clear();
            antecedent.extend_from_slice(&items[..drop]);
            antecedent.extend_from_slice(&items[drop + 1..]);
            let (Some(&sup_a), Some(&sup_c)) =
                (index.get(antecedent.as_slice()), index.get(&items[drop..=drop]))
            else {
                continue;
            };
            let confidence = p.support as f64 / sup_a as f64;
            let lift = confidence * n / sup_c as f64;
            if confidence >= spec.min_confidence && lift >= spec.min_lift {
                out.push(Rule {
                    antecedent: antecedent.clone(),
                    consequent: items[drop],
                    support: p.support,
                    confidence,
                    lift,
                });
            }
        }
    }
    out
}

/// Keeps the `k` best patterns by `(support desc, serial rank asc)` and
/// emits them in that order — so the output for `k` is byte-identical to
/// the first `k` lines of the output for any larger bound.
fn top_k_select(patterns: Vec<ItemsetCount>, k: u64) -> Vec<ItemsetCount> {
    let mut acc = TopKHeap::new(k);
    for p in patterns {
        acc.offer(p);
    }
    acc.finish()
}

/// The bounded selection heap behind top-k, usable either after the fact
/// (`top_k_select` inside [`PatternQuery::apply`]) or as a streaming
/// [`PatternSink`] via [`TopKSink`]. Tracks the dynamic support floor:
/// once `k` patterns are held, a candidate needs support strictly above
/// the worst kept entry to displace it (ties lose to the earlier serial
/// rank), so the floor is `worst + 1`.
#[derive(Debug)]
pub struct TopKHeap {
    k: u64,
    next_rank: usize,
    /// Max-heap by "badness": the top is the worst kept entry
    /// (smallest support, then largest serial rank).
    heap: BinaryHeap<(Reverse<u64>, usize, ItemsetCount)>,
}

impl TopKHeap {
    /// An empty selection for the `k` best patterns.
    pub fn new(k: u64) -> TopKHeap {
        TopKHeap { k, next_rank: 0, heap: BinaryHeap::new() }
    }

    /// The support a candidate must meet to possibly place (0 until the
    /// heap is full).
    pub fn floor(&self) -> u64 {
        if self.heap.len() as u64 == self.k {
            match self.heap.peek() {
                Some((Reverse(worst), _, _)) => worst.saturating_add(1),
                None => 0, // k == 0: nothing ever places, floor stays moot
            }
        } else {
            0
        }
    }

    /// Offers the next pattern in serial order.
    pub fn offer(&mut self, p: ItemsetCount) {
        let rank = self.next_rank;
        self.next_rank += 1;
        if self.k == 0 {
            return;
        }
        if (self.heap.len() as u64) < self.k {
            self.heap.push((Reverse(p.support), rank, p));
            return;
        }
        if p.support >= self.floor() {
            self.heap.pop();
            self.heap.push((Reverse(p.support), rank, p));
        }
    }

    /// The selection in output order: `(support desc, serial rank asc)`.
    pub fn finish(self) -> Vec<ItemsetCount> {
        let mut kept: Vec<(u64, usize, ItemsetCount)> = self
            .heap
            .into_iter()
            .map(|(Reverse(s), rank, p)| (s, rank, p))
            .collect();
        kept.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        kept.into_iter().map(|(_, _, p)| p).collect()
    }
}

/// A streaming top-k collector: how the executor selects a
/// `class = All, rules = None, top_k = Some(k)` query at every thread
/// count, fed in serial order by the stream or the replay. Every floor
/// raise is published through the shared [`MineControl`]
/// ([`MineControl::raise_support_floor`]), and candidates already below
/// the published floor are skipped before touching the heap.
pub struct TopKSink<'c> {
    control: &'c MineControl,
    heap: TopKHeap,
}

impl<'c> TopKSink<'c> {
    /// A streaming selection of the `k` best patterns under `control`.
    pub fn new(k: u64, control: &'c MineControl) -> TopKSink<'c> {
        TopKSink { control, heap: TopKHeap::new(k) }
    }

    /// The selection in output order.
    pub fn finish(self) -> Vec<ItemsetCount> {
        self.heap.finish()
    }
}

impl PatternSink for TopKSink<'_> {
    fn emit(&mut self, itemset: &[Item], support: u64) {
        if support < self.control.support_floor() {
            // Provably outside the answer; still consumes a serial rank
            // so tie-breaking matches the collect-then-select path.
            self.heap.next_rank += 1;
            return;
        }
        self.heap.offer(ItemsetCount { items: itemset.to_vec(), support });
        let floor = self.heap.floor();
        if floor > 0 {
            self.control.raise_support_floor(floor);
        }
    }
}

/// A prefix-ordered set-trie over itemsets (items sorted ascending along
/// every path), supporting FastLMFI-style superset existence checks with
/// max-subtree-support pruning — the engine behind [`closed`] and
/// [`maximal`].
#[derive(Debug, Default)]
pub struct SetTrie {
    nodes: Vec<TrieNode>,
}

#[derive(Debug)]
struct TrieNode {
    /// Children sorted ascending by item — deterministic and
    /// prefix-ordered, so superset search can prune on item order.
    children: Vec<(Item, u32)>,
    /// Support of the itemset terminating here, if any does.
    support: Option<u64>,
    /// Max terminal support in this subtree (pruning bound: supports are
    /// anti-monotone, so an equal-support superset search can skip any
    /// subtree whose bound is below the target).
    max_sub: u64,
}

impl TrieNode {
    fn new() -> TrieNode {
        TrieNode { children: Vec::new(), support: None, max_sub: 0 }
    }
}

impl SetTrie {
    /// An empty trie.
    pub fn new() -> SetTrie {
        SetTrie { nodes: vec![TrieNode::new()] }
    }

    /// Builds a trie over a pattern list (itemsets are sorted per entry;
    /// the input order does not matter).
    pub fn build(patterns: &[ItemsetCount]) -> SetTrie {
        let mut trie = SetTrie::new();
        let mut key = Vec::new();
        for p in patterns {
            key.clear();
            key.extend_from_slice(&p.items);
            key.sort_unstable();
            trie.insert(&key, p.support);
        }
        trie
    }

    /// Inserts `items` (must be sorted ascending) with its support.
    pub fn insert(&mut self, items: &[Item], support: u64) {
        let mut node = 0usize;
        self.nodes[node].max_sub = self.nodes[node].max_sub.max(support);
        for &item in items {
            let next = match self.nodes[node].children.binary_search_by_key(&item, |c| c.0) {
                Ok(i) => self.nodes[node].children[i].1 as usize,
                Err(i) => {
                    let id = self.nodes.len() as u32;
                    self.nodes.push(TrieNode::new());
                    self.nodes[node].children.insert(i, (item, id));
                    id as usize
                }
            };
            node = next;
            self.nodes[node].max_sub = self.nodes[node].max_sub.max(support);
        }
        self.nodes[node].support = Some(support);
    }

    /// `true` iff the trie holds a **strict** superset of `items` (which
    /// must be sorted ascending), regardless of support.
    pub fn has_strict_superset(&self, items: &[Item]) -> bool {
        self.search(0, items, false, None)
    }

    /// `true` iff the trie holds a strict superset of `items` whose
    /// support equals `support` — the closedness refutation. Prunes on
    /// the per-subtree support bound.
    pub fn has_equal_support_superset(&self, items: &[Item], support: u64) -> bool {
        self.search(0, items, false, Some(support))
    }

    /// Core superset search. `extra` records whether the path already
    /// took an item outside `items` (strictness); `target` restricts
    /// hits to terminals of exactly that support.
    fn search(&self, node: usize, items: &[Item], extra: bool, target: Option<u64>) -> bool {
        let n = &self.nodes[node];
        if let Some(t) = target {
            if n.max_sub < t {
                return false;
            }
        }
        if items.is_empty() {
            if extra {
                match target {
                    // Every subtree of an inserted path contains a
                    // terminal, so any strict superset position is a hit.
                    None => return true,
                    Some(t) => {
                        if n.support == Some(t) {
                            return true;
                        }
                    }
                }
            }
            return n
                .children
                .iter()
                .any(|&(_, c)| self.search(c as usize, items, true, target));
        }
        let next = items[0];
        for &(item, child) in &n.children {
            if item > next {
                // Children are ascending: nothing deeper can contain `next`.
                break;
            }
            let hit = if item == next {
                self.search(child as usize, &items[1..], extra, target)
            } else {
                self.search(child as usize, items, true, target)
            };
            if hit {
                return true;
            }
        }
        false
    }
}

/// Filters a complete frequent set down to the closed itemsets (no
/// strict superset of equal support), preserving input order.
pub fn closed(patterns: Vec<ItemsetCount>) -> Vec<ItemsetCount> {
    let trie = SetTrie::build(&patterns);
    let mut key = Vec::new();
    patterns
        .into_iter()
        .filter(|p| {
            key.clear();
            key.extend_from_slice(&p.items);
            key.sort_unstable();
            !trie.has_equal_support_superset(&key, p.support)
        })
        .collect()
}

/// Filters a complete frequent set down to the maximal itemsets (no
/// strict frequent superset), preserving input order.
pub fn maximal(patterns: Vec<ItemsetCount>) -> Vec<ItemsetCount> {
    let trie = SetTrie::build(&patterns);
    let mut key = Vec::new();
    patterns
        .into_iter()
        .filter(|p| {
            key.clear();
            key.extend_from_slice(&p.items);
            key.sort_unstable();
            !trie.has_strict_superset(&key)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::TransactionDb;
    use crate::naive;
    use crate::types::canonicalize;

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
    fn default_query_is_identity() {
        let q = PatternQuery::default();
        assert!(q.is_all());
        assert_eq!(q.key(), QueryKey::default());
        let all = naive::mine(&toy(), 2);
        assert_eq!(q.apply(all.clone(), 5), all);
    }

    #[test]
    fn key_roundtrips_and_rejects_an_unknown_class() {
        let queries = [
            PatternQuery::all(),
            PatternQuery::class(MineKind::Closed),
            PatternQuery::class(MineKind::Maximal).top_k(7),
            PatternQuery::all()
                .top_k(3)
                .rules(RuleSpec { min_confidence: 0.6, min_lift: 1.1 }),
            PatternQuery::all().rules(RuleSpec::confidence(0.9)),
        ];
        for q in queries {
            assert_eq!(PatternQuery::from_key(q.key()), Some(q), "{}", q.label());
        }
        assert_eq!(PatternQuery::from_key(QueryKey { class: 7, ..QueryKey::default() }), None);
    }

    #[test]
    fn trie_filters_match_naive_oracle() {
        for minsup in 1..=4u64 {
            let all = naive::mine(&toy(), minsup);
            assert_eq!(
                canonicalize(closed(all.clone())),
                canonicalize(naive::mine_kind(&toy(), minsup, MineKind::Closed)),
                "closed minsup={minsup}"
            );
            assert_eq!(
                canonicalize(maximal(all)),
                canonicalize(naive::mine_kind(&toy(), minsup, MineKind::Maximal)),
                "maximal minsup={minsup}"
            );
        }
    }

    #[test]
    fn trie_filters_match_naive_on_pseudorandom() {
        let mut s = 17u64;
        let mut rnd = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let db = TransactionDb::from_transactions(
            (0..80)
                .map(|_| (0..11u32).filter(|_| rnd() % 3 == 0).collect::<Vec<_>>())
                .collect(),
        );
        for minsup in [2u64, 5, 9] {
            let all = naive::mine(&db, minsup);
            assert_eq!(
                canonicalize(closed(all.clone())),
                canonicalize(naive::mine_kind(&db, minsup, MineKind::Closed)),
                "minsup={minsup}"
            );
            assert_eq!(
                canonicalize(maximal(all)),
                canonicalize(naive::mine_kind(&db, minsup, MineKind::Maximal)),
                "minsup={minsup}"
            );
        }
    }

    #[test]
    fn maximal_subset_of_closed_subset_of_all() {
        let all = naive::mine(&toy(), 2);
        let c = closed(all.clone());
        let m = maximal(all.clone());
        assert!(m.len() <= c.len() && c.len() <= all.len());
        let cset: std::collections::HashSet<_> =
            c.iter().map(|p| p.items.clone()).collect();
        for p in &m {
            assert!(cset.contains(&p.items), "maximal must be closed");
        }
    }

    #[test]
    fn empty_input() {
        assert!(closed(vec![]).is_empty());
        assert!(maximal(vec![]).is_empty());
    }

    #[test]
    fn singletons_only() {
        let ps = vec![
            ItemsetCount { items: vec![0], support: 3 },
            ItemsetCount { items: vec![1], support: 2 },
        ];
        assert_eq!(closed(ps.clone()).len(), 2);
        assert_eq!(maximal(ps).len(), 2);
    }

    #[test]
    fn preserves_serial_input_order() {
        // The filters must keep survivors in input (serial emission)
        // order — the executor's byte-identity depends on it.
        let all = naive::mine(&toy(), 2);
        let c = closed(all.clone());
        let mut it = all.iter();
        for p in &c {
            assert!(it.any(|q| q == p), "closed output must be a subsequence");
        }
        let m = maximal(all.clone());
        let mut it = all.iter();
        for p in &m {
            assert!(it.any(|q| q == p), "maximal output must be a subsequence");
        }
    }

    #[test]
    fn top_k_is_truncation_of_larger_k() {
        let all = naive::mine(&toy(), 1);
        let full = PatternQuery::all().top_k(u64::MAX).apply(all.clone(), 5);
        assert_eq!(full.len(), all.len());
        for k in 0..=all.len() as u64 {
            let got = PatternQuery::all().top_k(k).apply(all.clone(), 5);
            assert_eq!(got.as_slice(), &full[..k as usize], "k={k}");
        }
        // Sorted by support desc; ties broken by serial rank (stable).
        for w in full.windows(2) {
            assert!(w[0].support >= w[1].support);
        }
    }

    #[test]
    fn streaming_top_k_matches_select_and_raises_floor() {
        let all = naive::mine(&toy(), 1);
        for k in [0u64, 1, 3, 10, 1000] {
            let control = MineControl::unlimited();
            let mut sink = TopKSink::new(k, &control);
            for p in &all {
                sink.emit(&p.items, p.support);
            }
            let streamed = sink.finish();
            let selected = PatternQuery::all().top_k(k).apply(all.clone(), 5);
            assert_eq!(streamed, selected, "k={k}");
            if k > 0 && (k as usize) < all.len() {
                assert!(control.support_floor() > 0, "floor must rise for k={k}");
            }
        }
    }

    #[test]
    fn rules_filter_keeps_only_rule_bearing_itemsets() {
        let db = toy();
        let all = naive::mine(&db, 2);
        let n = db.len() as u64;
        // Threshold nothing: every itemset of size >= 2 bears some rule
        // with confidence >= 0 and lift >= 0.
        let loose = PatternQuery::all()
            .rules(RuleSpec { min_confidence: 0.0, min_lift: 0.0 })
            .apply(all.clone(), n);
        assert!(loose.iter().all(|p| p.items.len() >= 2));
        assert_eq!(
            loose.len(),
            all.iter().filter(|p| p.items.len() >= 2).count()
        );
        // Impossible confidence: nothing survives.
        let none = PatternQuery::all()
            .rules(RuleSpec::confidence(1.1))
            .apply(all.clone(), n);
        assert!(none.is_empty());
        // Perfect-confidence rules exist in the toy: {c,f} sup 4, {c} sup 4.
        let perfect = PatternQuery::all()
            .rules(RuleSpec::confidence(1.0))
            .apply(all.clone(), n);
        assert!(perfect.iter().any(|p| {
            let mut k = p.items.clone();
            k.sort_unstable();
            k == vec![2, 5]
        }));
    }

    #[test]
    fn rule_generation_matches_definitions() {
        let db = toy();
        let all = naive::mine(&db, 2);
        let n = db.len() as u64;
        let rs = rules(&all, n, &RuleSpec { min_confidence: 0.0, min_lift: 0.0 });
        // Every rule's numbers recompute from first principles.
        let index = support_index(&all);
        for r in &rs {
            let mut z = r.antecedent.clone();
            z.push(r.consequent);
            z.sort_unstable();
            assert_eq!(index.get(&z), Some(&r.support));
            let sup_a = index[r.antecedent.as_slice()];
            let sup_c = index[&[r.consequent][..]];
            assert!((r.confidence - r.support as f64 / sup_a as f64).abs() < 1e-12);
            assert!(
                (r.lift - r.confidence * n as f64 / sup_c as f64).abs() < 1e-12
            );
        }
        // {c} => {f}: sup 4 / sup 4 = confidence 1, lift 1 * 5 / 4 = 1.25.
        let cf = rs
            .iter()
            .find(|r| r.antecedent == vec![2] && r.consequent == 5)
            .expect("{c} => {f} must be generated");
        assert_eq!(cf.support, 4);
        assert!((cf.confidence - 1.0).abs() < 1e-12);
        assert!((cf.lift - 1.25).abs() < 1e-12);
        // Thresholds prune: min_lift > 1 keeps only positively
        // correlated rules (at minsup 1 the toy has negatively
        // correlated ones, e.g. {d} => {a} with lift 5/6).
        let all1 = naive::mine(&db, 1);
        let rs1 = rules(&all1, n, &RuleSpec { min_confidence: 0.0, min_lift: 0.0 });
        let lifted = rules(&all1, n, &RuleSpec { min_confidence: 0.0, min_lift: 1.0 + 1e-9 });
        assert!(lifted.iter().all(|r| r.lift > 1.0));
        assert!(!lifted.is_empty() && lifted.len() < rs1.len());
    }

    #[test]
    fn composed_query_applies_class_then_rules_then_top_k() {
        let db = toy();
        let all = naive::mine(&db, 2);
        let n = db.len() as u64;
        let q = PatternQuery::class(MineKind::Closed)
            .rules(RuleSpec { min_confidence: 0.5, min_lift: 0.0 })
            .top_k(2);
        let got = q.apply(all.clone(), n);
        // Reference: filter step by step.
        let step = closed(all.clone());
        let index = support_index(&all);
        let spec = RuleSpec { min_confidence: 0.5, min_lift: 0.0 };
        let step: Vec<_> = step
            .into_iter()
            .filter(|p| bears_rule(p, &index, n, &spec))
            .collect();
        let mut want = PatternQuery::all().top_k(2).apply(step, n);
        want.truncate(2);
        assert_eq!(got, want);
        assert!(got.len() <= 2);
    }

    #[test]
    fn trie_superset_checks_directly() {
        let mut trie = SetTrie::new();
        trie.insert(&[1, 2, 3], 4);
        trie.insert(&[2, 3], 4);
        trie.insert(&[5], 9);
        assert!(trie.has_strict_superset(&[2, 3]));
        assert!(trie.has_strict_superset(&[1, 3]));
        assert!(trie.has_strict_superset(&[]), "empty set has supersets");
        assert!(!trie.has_strict_superset(&[1, 2, 3]));
        assert!(!trie.has_strict_superset(&[5]));
        assert!(!trie.has_strict_superset(&[6]));
        assert!(trie.has_equal_support_superset(&[2, 3], 4));
        assert!(!trie.has_equal_support_superset(&[2, 3], 3), "support must match exactly");
        assert!(!trie.has_equal_support_superset(&[5], 9), "no strict superset of {{5}}");
    }

    #[test]
    fn empty_inputs() {
        assert!(closed(vec![]).is_empty());
        assert!(maximal(vec![]).is_empty());
        assert!(PatternQuery::all().top_k(5).apply(vec![], 10).is_empty());
        assert!(rules(&[], 10, &RuleSpec::confidence(0.0)).is_empty());
    }
}
