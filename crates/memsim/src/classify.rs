//! Miss classification — the standard *three-Cs* breakdown (Hill):
//!
//! * **compulsory** — first-ever touch of the line (no cache helps);
//! * **capacity** — would also miss in a *fully-associative* cache of the
//!   same size (the working set is simply too big);
//! * **conflict** — hits fully-associative but misses the real
//!   set-associative cache (set imbalance).
//!
//! The ALSO patterns attack different Cs: lexicographic ordering and
//! compaction shrink the touched-line count (compulsory + capacity),
//! tiling converts capacity misses into hits, aggregation removes
//! accesses altogether. [`ClassifyingCache`] runs the real cache and an
//! LRU fully-associative shadow side by side so `repro`-style analyses
//! can print where a kernel's misses actually come from.

use crate::cache::{CacheGeom, SetAssocCache};
use std::collections::HashMap;

/// Miss counts by cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MissBreakdown {
    /// Demand hits.
    pub hits: u64,
    /// First-touch misses.
    pub compulsory: u64,
    /// Misses a fully-associative cache of equal size would also take.
    pub capacity: u64,
    /// Misses caused purely by limited associativity.
    pub conflict: u64,
}

impl MissBreakdown {
    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.compulsory + self.capacity + self.conflict
    }

    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses()
    }
}

/// A set-associative cache paired with a fully-associative LRU shadow of
/// the same capacity, classifying every miss.
#[derive(Debug)]
pub struct ClassifyingCache {
    real: SetAssocCache,
    /// Fully-associative LRU shadow: line → last-use stamp.
    shadow: HashMap<usize, u64>,
    shadow_lines: usize,
    clock: u64,
    seen: std::collections::HashSet<usize>,
    stats: MissBreakdown,
    line_shift: u32,
}

impl ClassifyingCache {
    /// Builds the pair for `geom`.
    pub fn new(geom: CacheGeom) -> Self {
        ClassifyingCache {
            real: SetAssocCache::new(geom),
            shadow: HashMap::new(),
            shadow_lines: geom.capacity >> geom.line_shift,
            clock: 0,
            seen: std::collections::HashSet::new(),
            stats: MissBreakdown::default(),
            line_shift: geom.line_shift,
        }
    }

    /// Accesses the line containing `addr`; returns `true` on a real-cache
    /// hit and classifies the miss otherwise.
    pub fn access(&mut self, addr: usize) -> bool {
        self.clock += 1;
        let line = addr >> self.line_shift;
        let real_hit = self.real.access(addr);
        // shadow: fully-associative LRU of the same line count
        let shadow_hit = self.shadow.contains_key(&line);
        self.shadow.insert(line, self.clock);
        if self.shadow.len() > self.shadow_lines {
            // evict LRU
            let (&victim, _) = self
                .shadow
                // also-lint: allow(deterministic-iteration) — min_by_key over strictly increasing clock stamps (all unique): the minimum is unique, so hash order cannot change the victim
                .iter()
                .min_by_key(|(_, &stamp)| stamp)
                .expect("non-empty shadow");
            self.shadow.remove(&victim);
        }
        if real_hit {
            self.stats.hits += 1;
            return true;
        }
        if self.seen.insert(line) {
            self.stats.compulsory += 1;
        } else if !shadow_hit {
            self.stats.capacity += 1;
        } else {
            self.stats.conflict += 1;
        }
        false
    }

    /// The breakdown so far.
    pub fn stats(&self) -> MissBreakdown {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ClassifyingCache {
        // 4 sets × 2 ways × 64 B
        ClassifyingCache::new(CacheGeom {
            capacity: 512,
            ways: 2,
            line_shift: 6,
        })
    }

    #[test]
    fn first_touches_are_compulsory() {
        let mut c = tiny();
        for i in 0..8 {
            assert!(!c.access(i * 64));
        }
        let s = c.stats();
        assert_eq!(s.compulsory, 8);
        assert_eq!(s.capacity + s.conflict, 0);
    }

    #[test]
    fn resident_set_hits() {
        let mut c = tiny();
        for _ in 0..3 {
            for i in 0..8 {
                c.access(i * 64);
            }
        }
        let s = c.stats();
        assert_eq!(s.compulsory, 8);
        assert_eq!(s.hits, 16);
        assert_eq!(s.capacity + s.conflict, 0);
    }

    #[test]
    fn oversized_stream_is_capacity_bound() {
        let mut c = tiny();
        // 32 lines through an 8-line cache, repeatedly: LRU-hostile.
        for _ in 0..4 {
            for i in 0..32 {
                c.access(i * 64);
            }
        }
        let s = c.stats();
        assert_eq!(s.compulsory, 32);
        assert!(s.capacity > 0, "{s:?}");
        assert_eq!(s.conflict, 0, "uniform stream has no set imbalance: {s:?}");
    }

    #[test]
    fn set_hammering_is_conflict_bound() {
        let mut c = tiny();
        // 3 lines mapping to the same set (stride = sets × line = 256 B):
        // fits the 8-line capacity easily, but not 2 ways.
        for _ in 0..5 {
            for k in 0..3 {
                c.access(k * 256);
            }
        }
        let s = c.stats();
        assert_eq!(s.compulsory, 3);
        assert!(s.conflict > 0, "{s:?}");
        assert_eq!(s.capacity, 0, "3 lines fit an 8-line FA cache: {s:?}");
    }

    #[test]
    fn totals_are_consistent() {
        let mut c = tiny();
        for i in 0..100 {
            c.access((i * 37 % 64) * 64);
        }
        let s = c.stats();
        assert_eq!(s.accesses(), 100);
        assert_eq!(s.hits + s.misses(), 100);
    }
}
