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
//! 1. **class** — closed/maximal filtering by one-item extensions. On a
//!    *complete* frequent set, `X` has a strict superset `Y` of equal
//!    support iff some one-item extension `X ∪ {i}` has equal support:
//!    for every `i ∈ Y∖X`, `sup(X) ≥ sup(X ∪ {i}) ≥ sup(Y) = sup(X)`, so
//!    `X ∪ {i}` is frequent and present. Likewise `X` has a frequent
//!    strict superset iff some one-item extension is present. So one
//!    pass over every pattern `Y`'s one-item-removed subsets `Y∖{i}`
//!    decides both classes exactly. On a list that misses a frequent
//!    itemset it does not;
//! 2. **rules** — keep only rule-bearing itemsets: `Z` survives iff
//!    some single-consequent rule `Z∖{c} ⇒ c` clears the confidence and
//!    lift thresholds (subset supports come from the complete set, per
//!    the anti-monotone property they are always present). The same
//!    pass reads them;
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
    /// input is borrowed: only the answer's patterns are cloned. Class and
    /// rules read one pass over every pattern's one-item-removed subsets
    /// (module docs), which is exact only on a complete set.
    pub fn apply(&self, all: impl AsRef<[ItemsetCount]>, n_transactions: u64) -> Vec<ItemsetCount> {
        let all = all.as_ref();
        if self.is_all() {
            return all.to_vec();
        }
        let mut facts = vec![0u8; all.len()];
        if self.class != MineKind::All || self.rules.is_some() {
            let sorted = Sorted::new(all);
            let position = sorted.positions();
            let rules = self.rules.filter(|_| n_transactions > 0);
            let n = n_transactions as f64;
            // Closed and maximal read the extension bits every subset
            // sets; the All class reads only the rule bit, so it leaves a
            // pattern as soon as one of its rules passes.
            let every_subset = self.class != MineKind::All;
            sorted.for_each_subset(&position, |y, x, drop| {
                facts[x] |= EXTENDED;
                if all[x].support == all[y].support {
                    facts[x] |= EXTENDED_EQUAL;
                }
                let Some(spec) = rules.filter(|_| facts[y] & BEARS_RULE == 0) else {
                    return true;
                };
                if let Some(&c) = position.get(&sorted.get(y)[drop..=drop]) {
                    if spec
                        .measure(all[y].support, all[x].support, all[c].support, n)
                        .is_some()
                    {
                        facts[y] |= BEARS_RULE;
                        return every_subset;
                    }
                }
                true
            });
        }
        let refuted = match self.class {
            MineKind::All => 0,
            MineKind::Closed => EXTENDED_EQUAL,
            MineKind::Maximal => EXTENDED,
        };
        let required = if self.rules.is_some() { BEARS_RULE } else { 0 };
        let mut kept = Vec::with_capacity(all.len());
        kept.extend((0..all.len()).filter(|&p| facts[p] & (refuted | required) == required));
        if let Some(k) = self.top_k {
            // The k best by (support desc, serial rank asc), in that order.
            let key = |&p: &usize| (Reverse(all[p].support), p);
            let k = usize::try_from(k).unwrap_or(usize::MAX);
            if k < kept.len() {
                kept.select_nth_unstable_by_key(k, key);
                kept.truncate(k);
            }
            kept.sort_unstable_by_key(key);
        }
        kept.iter().map(|&p| all[p].clone()).collect()
    }
}

/// `facts` bit: some one-item extension is frequent (not maximal).
const EXTENDED: u8 = 1;
/// `facts` bit: some one-item extension has equal support (not closed).
const EXTENDED_EQUAL: u8 = 2;
/// `facts` bit: some rule `Z∖{c} ⇒ c` over the pattern clears the spec.
const BEARS_RULE: u8 = 4;

impl RuleSpec {
    /// The confidence and lift of `A ⇒ c` from `sup(A ∪ {c})`, `sup(A)`
    /// and `sup({c})` over `n` transactions, if both clear their minimums.
    fn measure(&self, sup_z: u64, sup_a: u64, sup_c: u64, n: f64) -> Option<(f64, f64)> {
        let confidence = sup_z as f64 / sup_a as f64;
        let lift = confidence * n / sup_c as f64;
        (confidence >= self.min_confidence && lift >= self.min_lift).then_some((confidence, lift))
    }
}

/// Every pattern's itemset, sorted ascending, end to end in one buffer:
/// pattern `p` holds `items[ends[p]..ends[p + 1]]`.
struct Sorted {
    items: Vec<Item>,
    ends: Vec<usize>,
}

impl Sorted {
    fn new(all: &[ItemsetCount]) -> Sorted {
        let mut items = Vec::with_capacity(all.iter().map(|p| p.items.len()).sum());
        let mut ends = Vec::with_capacity(all.len() + 1);
        ends.push(0);
        for p in all {
            let start = items.len();
            items.extend_from_slice(&p.items);
            items[start..].sort_unstable();
            ends.push(items.len());
        }
        Sorted { items, ends }
    }

    fn get(&self, p: usize) -> &[Item] {
        &self.items[self.ends[p]..self.ends[p + 1]]
    }

    /// Each sorted itemset's serial position, looked up by content.
    fn positions(&self) -> HashMap<&[Item], usize> {
        // deterministic-iteration audit: this map is probed with `get`
        // only; every answer walks the serial-order slice.
        (0..self.ends.len() - 1).map(|p| (self.get(p), p)).collect()
    }

    /// Calls `visit(y, x, drop)` for every pattern `y` and every position
    /// `drop` in its sorted itemset whose removal leaves a pattern `x`,
    /// moving on to the next `y` once `visit` returns `false`.
    fn for_each_subset(
        &self,
        position: &HashMap<&[Item], usize>,
        mut visit: impl FnMut(usize, usize, usize) -> bool,
    ) {
        let longest = self.ends.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        let mut subset = Vec::with_capacity(longest);
        for y in 0..self.ends.len() - 1 {
            let items = self.get(y);
            if items.len() < 2 {
                continue;
            }
            for drop in 0..items.len() {
                subset.clear();
                subset.extend_from_slice(&items[..drop]);
                subset.extend_from_slice(&items[drop + 1..]);
                if let Some(&x) = position.get(subset.as_slice()) {
                    if !visit(y, x, drop) {
                        break;
                    }
                }
            }
        }
    }
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
pub fn rules(all: &[ItemsetCount], n_transactions: u64, spec: &RuleSpec) -> Vec<Rule> {
    let mut out = Vec::new();
    if n_transactions == 0 {
        return out;
    }
    let n = n_transactions as f64;
    let sorted = Sorted::new(all);
    let position = sorted.positions();
    sorted.for_each_subset(&position, |y, x, drop| {
        let consequent = &sorted.get(y)[drop..=drop];
        let Some(&c) = position.get(consequent) else {
            return true;
        };
        let support = all[y].support;
        if let Some((confidence, lift)) = spec.measure(support, all[x].support, all[c].support, n) {
            out.push(Rule {
                antecedent: sorted.get(x).to_vec(),
                consequent: consequent[0],
                support,
                confidence,
                lift,
            });
        }
        true
    });
    out
}

/// The bounded selection heap behind the streaming top-k sink
/// ([`TopKSink`]); it keeps what [`PatternQuery::apply`] selects from a
/// collected list. Tracks the dynamic support floor:
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc_guard::{count_allocs, guard_active};
    use crate::db::TransactionDb;
    use crate::sink::CollectSink;
    use crate::{hmine, naive};
    use proptest::prelude::*;

    fn toy() -> TransactionDb {
        TransactionDb::from_transactions(vec![
            vec![0, 2, 5],
            vec![1, 2, 5],
            vec![0, 2, 5],
            vec![3, 4],
            vec![0, 1, 2, 3, 4, 5],
        ])
    }

    fn closed() -> PatternQuery {
        PatternQuery::class(MineKind::Closed)
    }

    fn maximal() -> PatternQuery {
        PatternQuery::class(MineKind::Maximal)
    }

    /// 80 rows over 11 items, each item in a row with probability 1/3.
    fn pseudorandom() -> TransactionDb {
        let mut s = 17u64;
        let mut rnd = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        TransactionDb::from_transactions(
            (0..80)
                .map(|_| (0..11u32).filter(|_| rnd() % 3 == 0).collect::<Vec<_>>())
                .collect(),
        )
    }

    /// H-Mine's serial All set.
    fn hmine_all(db: &TransactionDb, minsup: u64) -> Vec<ItemsetCount> {
        let mut sink = CollectSink::default();
        hmine::mine(db, minsup, &mut sink);
        sink.patterns
    }

    /// `q`'s answer by the quadratic definitions, applied step by step in
    /// input order: class, rules, then a stable sort by support
    /// descending cut to `k`.
    fn reference(q: &PatternQuery, all: &[ItemsetCount], n: u64) -> Vec<ItemsetCount> {
        let sets: Vec<Vec<Item>> = all
            .iter()
            .map(|p| {
                let mut s = p.items.clone();
                s.sort_unstable();
                s
            })
            .collect();
        let strictly_within = |small: &[Item], big: &[Item]| {
            small.len() < big.len() && small.iter().all(|i| big.contains(i))
        };
        let support = |items: &[Item]| sets.iter().position(|s| s == items).map(|j| all[j].support);
        let class_keeps = |i: usize| {
            let mut supersets = (0..all.len()).filter(|&j| strictly_within(&sets[i], &sets[j]));
            match q.class {
                MineKind::All => true,
                MineKind::Closed => !supersets.any(|j| all[j].support == all[i].support),
                MineKind::Maximal => supersets.next().is_none(),
            }
        };
        let bears_rule = |i: usize, spec: &RuleSpec| {
            let z = &sets[i];
            n > 0
                && z.len() >= 2
                && (0..z.len()).any(|drop| {
                    let mut a = z.clone();
                    let c = a.remove(drop);
                    let (Some(sup_a), Some(sup_c)) = (support(&a), support(&[c])) else {
                        return false;
                    };
                    let confidence = all[i].support as f64 / sup_a as f64;
                    let lift = confidence * n as f64 / sup_c as f64;
                    confidence >= spec.min_confidence && lift >= spec.min_lift
                })
        };
        let mut out: Vec<ItemsetCount> = (0..all.len())
            .filter(|&i| {
                class_keeps(i)
                    && match q.rules {
                        None => true,
                        Some(spec) => bears_rule(i, &spec),
                    }
            })
            .map(|i| all[i].clone())
            .collect();
        if let Some(k) = q.top_k {
            out.sort_by_key(|p| Reverse(p.support));
            out.truncate(k as usize);
        }
        out
    }

    #[test]
    fn default_query_is_identity() {
        let q = PatternQuery::default();
        assert!(q.is_all());
        assert_eq!(q.key(), QueryKey::default());
        let all = naive::mine(&toy(), 2);
        assert_eq!(q.apply(&all, 5), all);
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
    fn class_filters_match_naive_oracle() {
        // The oracle filters its own serial list, so the answers agree in
        // order, not just as sets.
        for (db, minsups) in [
            (toy(), vec![1u64, 2, 3, 4]),
            (pseudorandom(), vec![2, 5, 9]),
        ] {
            let n = db.len() as u64;
            for minsup in minsups {
                let all = naive::mine(&db, minsup);
                for (q, kind) in [(closed(), MineKind::Closed), (maximal(), MineKind::Maximal)] {
                    assert_eq!(
                        q.apply(&all, n),
                        naive::mine_kind(&db, minsup, kind),
                        "{} minsup={minsup}",
                        q.label()
                    );
                }
            }
        }
    }

    #[test]
    fn maximal_subset_of_closed_subset_of_all() {
        let all = naive::mine(&toy(), 2);
        let c = closed().apply(&all, 5);
        let m = maximal().apply(&all, 5);
        assert!(m.len() <= c.len() && c.len() <= all.len());
        for p in &m {
            assert!(c.contains(p), "maximal must be closed");
        }
    }

    #[test]
    fn singletons_only() {
        let ps = vec![
            ItemsetCount { items: vec![0], support: 3 },
            ItemsetCount { items: vec![1], support: 2 },
        ];
        assert_eq!(closed().apply(&ps, 5), ps);
        assert_eq!(maximal().apply(&ps, 5), ps);
    }

    #[test]
    fn top_k_is_truncation_of_larger_k() {
        let all = naive::mine(&toy(), 1);
        let full = PatternQuery::all().top_k(u64::MAX).apply(&all, 5);
        assert_eq!(full.len(), all.len());
        for k in 0..=all.len() as u64 {
            let got = PatternQuery::all().top_k(k).apply(&all, 5);
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
            let selected = PatternQuery::all().top_k(k).apply(&all, 5);
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
            .apply(&all, n);
        assert!(loose.iter().all(|p| p.items.len() >= 2));
        assert_eq!(
            loose.len(),
            all.iter().filter(|p| p.items.len() >= 2).count()
        );
        // Impossible confidence: nothing survives.
        let none = PatternQuery::all()
            .rules(RuleSpec::confidence(1.1))
            .apply(&all, n);
        assert!(none.is_empty());
        // Perfect-confidence rules exist in the toy: {c,f} sup 4, {c} sup 4.
        let perfect = PatternQuery::all()
            .rules(RuleSpec::confidence(1.0))
            .apply(&all, n);
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
        let support = |items: &[Item]| {
            all.iter()
                .find(|p| {
                    let mut k = p.items.clone();
                    k.sort_unstable();
                    k == items
                })
                .map(|p| p.support)
        };
        for r in &rs {
            let mut z = r.antecedent.clone();
            z.push(r.consequent);
            z.sort_unstable();
            assert_eq!(support(&z), Some(r.support));
            let sup_a = support(&r.antecedent).expect("antecedent is frequent");
            let sup_c = support(&[r.consequent]).expect("consequent is frequent");
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
        let q = closed()
            .rules(RuleSpec { min_confidence: 0.5, min_lift: 0.0 })
            .top_k(2);
        let got = q.apply(&all, n);
        assert_eq!(got, reference(&q, &all, n));
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn empty_inputs() {
        for q in [closed(), maximal(), PatternQuery::all().top_k(5)] {
            assert!(q.apply(&[], 10).is_empty(), "{}", q.label());
        }
        assert!(rules(&[], 10, &RuleSpec::confidence(0.0)).is_empty());
    }

    #[test]
    fn derived_answers_allocate_once_per_survivor() {
        // The index path allocates the per-pattern facts, the sorted
        // buffer and its ends, the position map, the subset scratch, the
        // kept positions and the answer: none per pattern, and no copy of
        // the input. Each survivor then clones its itemset once.
        const FIXED: u64 = 7;
        let db = pseudorandom();
        let n = db.len() as u64;
        let queries = [
            closed(),
            maximal(),
            PatternQuery::all().rules(RuleSpec::confidence(0.5)),
            closed()
                .rules(RuleSpec { min_confidence: 0.5, min_lift: 1.0 })
                .top_k(10),
        ];
        for minsup in [2u64, 5] {
            let all = hmine_all(&db, minsup);
            for q in &queries {
                let (answer, count) = count_allocs(|| q.apply(&all, n));
                assert!(!answer.is_empty(), "{}", q.label());
                if guard_active() {
                    assert_eq!(
                        count.allocations,
                        FIXED + answer.len() as u64,
                        "{} over {} patterns",
                        q.label(),
                        all.len()
                    );
                }
            }
        }
    }

    /// Rows over a small universe (so supports tie), with empty rows and
    /// a duplicated run of rows.
    fn arb_rows() -> impl Strategy<Value = Vec<Vec<Item>>> {
        (
            prop::collection::vec(
                prop::collection::btree_set(0u32..10, 0..6)
                    .prop_map(|s| s.into_iter().collect::<Vec<Item>>()),
                0..30,
            ),
            0usize..10,
        )
            .prop_map(|(mut rows, dup)| {
                let dup = dup.min(rows.len());
                rows.extend_from_within(..dup);
                rows
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn apply_matches_the_quadratic_definitions_in_order(
            raw in arb_rows(),
            minsup in 1u64..5,
            shuffle in any::<u64>(),
            confidence in 0usize..5,
            lift in 0usize..3,
            k in 0u64..12,
        ) {
            let spec = RuleSpec {
                min_confidence: [0.0, 0.5, 0.75, 0.9, 1.0][confidence],
                min_lift: [0.0, 1.0, 1.2][lift],
            };
            let shift = u32::MAX - 15;
            let shifted: Vec<Vec<Item>> = raw
                .iter()
                .map(|t| t.iter().map(|&i| i + shift).collect())
                .collect();
            let plain = TransactionDb::from_transactions(raw);
            let high = TransactionDb::from_transactions(shifted);
            // Every serial order of a complete set is a valid input: H-Mine's
            // depth-first order on both id ranges, the naive miner's
            // lexicographic one (it enumerates every id, so small ids
            // only), and a random permutation with supersets anywhere.
            let mut orders = vec![hmine_all(&plain, minsup), hmine_all(&high, minsup)];
            orders.push(naive::mine(&plain, minsup));
            let mut permuted = hmine_all(&high, minsup);
            let mut s = shuffle | 1;
            for i in (1..permuted.len()).rev() {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                permuted.swap(i, (s % (i as u64 + 1)) as usize);
            }
            orders.push(permuted);
            let n = plain.len() as u64;
            for all in &orders {
                for class in [MineKind::All, MineKind::Closed, MineKind::Maximal] {
                    for rules in [None, Some(spec)] {
                        for top_k in [None, Some(k)] {
                            let q = PatternQuery { class, top_k, rules };
                            let want = reference(&q, all, n);
                            prop_assert_eq!(q.apply(all, n), want, "{}", q.label());
                        }
                    }
                }
            }
        }
    }
}
