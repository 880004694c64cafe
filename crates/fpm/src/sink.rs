//! Pattern sinks: where miners deliver their output.
//!
//! Mining a realistic dataset can emit millions of itemsets; forcing every
//! miner to materialize a `Vec` would turn every benchmark into an
//! allocator benchmark. Miners are therefore generic over a [`PatternSink`]:
//! benches use [`CountSink`]/[`StatsSink`] (no allocation), tests use
//! [`CollectSink`] behind a [`TranslateSink`] that maps rank ids back to
//! original item ids for cross-miner comparison.

use crate::control::MineControl;
use crate::remap::RankMap;
use crate::types::{Item, ItemsetCount};

/// Receives mined patterns. `itemset` is in the miner's working id space
/// (rank ids unless documented otherwise) and is only valid for the
/// duration of the call.
pub trait PatternSink {
    /// Deliver one pattern with its support.
    fn emit(&mut self, itemset: &[Item], support: u64);
}

impl<S: PatternSink + ?Sized> PatternSink for &mut S {
    #[inline]
    fn emit(&mut self, itemset: &[Item], support: u64) {
        (**self).emit(itemset, support);
    }
}

/// Counts patterns; the cheapest sink.
#[derive(Debug, Default, Clone)]
pub struct CountSink {
    /// Number of patterns emitted.
    pub count: u64,
}

impl PatternSink for CountSink {
    #[inline]
    fn emit(&mut self, _itemset: &[Item], _support: u64) {
        self.count += 1;
    }
}

/// Collects every pattern into memory. Test-sized inputs only.
#[derive(Debug, Default, Clone)]
pub struct CollectSink {
    /// The collected patterns, in emission order.
    pub patterns: Vec<ItemsetCount>,
}

impl PatternSink for CollectSink {
    fn emit(&mut self, itemset: &[Item], support: u64) {
        self.patterns.push(ItemsetCount {
            items: itemset.to_vec(),
            support,
        });
    }
}

/// Order-insensitive aggregate statistics — used to compare two miners'
/// outputs cheaply on large inputs (equal stats is a strong, allocation-
/// free signal; the exact-equality tests run on smaller inputs).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct StatsSink {
    /// Number of patterns.
    pub count: u64,
    /// Sum of supports.
    pub support_sum: u64,
    /// Sum of itemset lengths.
    pub len_sum: u64,
    /// Longest itemset seen.
    pub max_len: usize,
    /// Order-insensitive hash of the (itemset, support) multiset.
    pub hash: u64,
}

impl PatternSink for StatsSink {
    #[inline]
    fn emit(&mut self, itemset: &[Item], support: u64) {
        self.count += 1;
        self.support_sum += support;
        self.len_sum += itemset.len() as u64;
        self.max_len = self.max_len.max(itemset.len());
        // FNV over the sorted itemset, combined commutatively (wrapping
        // add) so emission order is irrelevant.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &i in itemset {
            h ^= i as u64 + 1;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h ^= support;
        h = h.wrapping_mul(0x100_0000_01b3);
        self.hash = self.hash.wrapping_add(h);
    }
}

/// Adapter that translates rank-space itemsets back to original item ids
/// before forwarding to the inner sink.
pub struct TranslateSink<'a, S> {
    map: &'a RankMap,
    inner: S,
    scratch: Vec<Item>,
}

impl<'a, S: PatternSink> TranslateSink<'a, S> {
    /// Wraps `inner` with the translation of `map`.
    pub fn new(map: &'a RankMap, inner: S) -> Self {
        TranslateSink {
            map,
            inner,
            scratch: Vec::new(),
        }
    }

    /// Unwraps the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: PatternSink> PatternSink for TranslateSink<'_, S> {
    fn emit(&mut self, itemset: &[Item], support: u64) {
        self.scratch.clear();
        self.scratch
            .extend(itemset.iter().map(|&r| self.map.original(r)));
        self.scratch.sort_unstable();
        self.inner.emit(&self.scratch, support);
    }
}

/// Replays per-task pattern buffers into `sink` in task order — the
/// deterministic merge half of the parallel runtime (`fpm-par`): workers
/// mine disjoint subtrees into private buffers, the scheduler re-slots
/// them by task rank, and this replay reproduces the exact emission
/// sequence a serial run would have produced, truncating at the first
/// task whose output may be incomplete.
///
/// Each slot is `None` if the scheduler abandoned the task (never ran),
/// or `Some((buffer, complete))` where `complete` says the task observed
/// no stop signal — its buffer is its full serial output. Tasks run out
/// of order under work stealing, so after a trip the completed set can
/// be an arbitrary subset; replaying in task order and stopping at the
/// first abandoned-or-truncated task is exactly what restores the serial
/// **prefix** guarantee (a truncated task's own buffer is itself a prefix
/// of that task's serial output, so it is replayed before stopping).
///
/// Returns `true` iff every task was present and complete — i.e. the
/// merged output is the *entire* serial sequence.
pub fn replay_merged_prefix<S: PatternSink>(
    buffers: impl IntoIterator<Item = Option<(Vec<ItemsetCount>, bool)>>,
    sink: &mut S,
) -> bool {
    for slot in buffers {
        match slot {
            Some((buffer, complete)) => {
                for p in buffer {
                    sink.emit(&p.items, p.support);
                }
                if !complete {
                    return false;
                }
            }
            None => return false,
        }
    }
    true
}

/// Gates every delivery through a shared [`MineControl`]: each emission
/// is charged against the control's budget, and once the control trips —
/// budget, deadline, or cancellation — all further emissions are
/// suppressed. Because the control trips monotonically and the kernels
/// only ever cut recursion *tails* at their checkpoints, the patterns
/// that reach the inner sink are always a contiguous prefix of the serial
/// emission order.
#[derive(Debug)]
pub struct ControlledSink<'c, S> {
    control: &'c MineControl,
    inner: S,
    /// Emissions suppressed because the control had tripped. Zero means
    /// this sink observed the run's full output (nothing was cut *at this
    /// sink* — the parallel drivers use that to tell complete task
    /// buffers from truncated ones).
    pub suppressed: u64,
}

impl<'c, S: PatternSink> ControlledSink<'c, S> {
    /// Wraps `inner`, charging every delivery to `control`.
    pub fn new(control: &'c MineControl, inner: S) -> Self {
        ControlledSink {
            control,
            inner,
            suppressed: 0,
        }
    }

    /// Unwraps the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: PatternSink> PatternSink for ControlledSink<'_, S> {
    #[inline]
    fn emit(&mut self, itemset: &[Item], support: u64) {
        if self.control.charge_emission() {
            self.inner.emit(itemset, support);
        } else {
            self.suppressed += 1;
        }
    }
}

/// Records every emission as one line of portable bytes
/// (`item,item,...:support\n`). Two runs are behaviourally identical iff
/// their recorded bytes are identical — this is what the parallel
/// determinism regression compares.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecordSink {
    /// The serialized emission log.
    pub bytes: Vec<u8>,
}

impl PatternSink for RecordSink {
    fn emit(&mut self, itemset: &[Item], support: u64) {
        use std::io::Write;
        for (i, it) in itemset.iter().enumerate() {
            if i > 0 {
                self.bytes.push(b',');
            }
            write!(self.bytes, "{it}").expect("write to Vec cannot fail");
        }
        writeln!(self.bytes, ":{support}").expect("write to Vec cannot fail");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::TransactionDb;
    use crate::remap::remap;

    #[test]
    fn count_sink_counts() {
        let mut s = CountSink::default();
        s.emit(&[1, 2], 5);
        s.emit(&[3], 2);
        assert_eq!(s.count, 2);
    }

    #[test]
    fn stats_sink_is_order_insensitive() {
        let mut a = StatsSink::default();
        a.emit(&[1, 2], 5);
        a.emit(&[3], 2);
        let mut b = StatsSink::default();
        b.emit(&[3], 2);
        b.emit(&[1, 2], 5);
        assert_eq!(a, b);
        let mut c = StatsSink::default();
        c.emit(&[3], 3); // different support
        c.emit(&[1, 2], 5);
        assert_ne!(a, c);
    }

    #[test]
    fn stats_sink_distinguishes_itemsets_from_concatenations() {
        let mut a = StatsSink::default();
        a.emit(&[1], 1);
        a.emit(&[2], 1);
        let mut b = StatsSink::default();
        b.emit(&[1, 2], 1);
        b.emit(&[], 1);
        assert_ne!(a, b);
    }

    #[test]
    fn controlled_sink_enforces_budget() {
        let control = crate::control::MineControl::with_budget(2);
        let mut s = ControlledSink::new(&control, CollectSink::default());
        s.emit(&[1], 1);
        s.emit(&[2], 1);
        s.emit(&[3], 1);
        assert_eq!(s.suppressed, 1);
        let got = s.into_inner().patterns;
        assert_eq!(got.len(), 2);
        assert_eq!(
            control.stop_cause(),
            Some(crate::control::StopCause::BudgetExhausted)
        );
    }

    #[test]
    fn controlled_sink_suppresses_after_cancel() {
        let control = crate::control::MineControl::unlimited();
        let mut s = ControlledSink::new(&control, CountSink::default());
        s.emit(&[1], 1);
        control.cancel();
        assert!(control.should_stop());
        s.emit(&[2], 1);
        assert_eq!(s.suppressed, 1);
        assert_eq!(s.into_inner().count, 1);
    }

    #[test]
    fn translate_sink_restores_original_ids() {
        let db = TransactionDb::from_transactions(vec![vec![10, 20], vec![20], vec![20, 30]]);
        let ranked = remap(&db, 1);
        // rank 0 = item 20 (freq 3)
        let mut ts = TranslateSink::new(&ranked.map, CollectSink::default());
        ts.emit(&[0], 3);
        ts.emit(&[1, 0], 1);
        let collected = ts.into_inner().patterns;
        assert_eq!(collected[0].items, vec![20]);
        assert_eq!(collected[1].items.len(), 2);
        assert!(collected[1].items.contains(&20));
        assert!(collected[1].items.windows(2).all(|w| w[0] < w[1]));
    }
}
