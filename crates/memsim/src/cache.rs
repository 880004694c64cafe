//! Set-associative cache and TLB model with true-LRU replacement.
//!
//! One structure serves both roles: a TLB is a cache whose "line" is a
//! 4 KiB page and whose payload is irrelevant — only hit/miss matters.

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeom {
    /// Total capacity in bytes.
    pub capacity: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Log2 of the line (or page) size in bytes.
    pub line_shift: u32,
}

impl CacheGeom {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.capacity >> self.line_shift >> self.ways.trailing_zeros()
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> usize {
        1 << self.line_shift
    }
}

/// Hit/miss counters for one level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Accesses that found their line resident.
    pub hits: u64,
    /// Accesses that had to fill from the next level.
    pub misses: u64,
}

impl LevelStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `0..=1` (0 for an untouched level).
    pub fn miss_rate(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            self.misses as f64 / a as f64
        }
    }
}

/// A set-associative cache with true-LRU replacement.
///
/// Tags are full line addresses (no aliasing); LRU state is a per-way
/// last-use stamp from a global access counter.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geom: CacheGeom,
    set_mask: usize,
    tags: Vec<usize>,
    stamps: Vec<u64>,
    clock: u64,
    stats: LevelStats,
}

/// Sentinel tag for an invalid (empty) way.
const INVALID: usize = usize::MAX;

impl SetAssocCache {
    /// Builds an empty cache with the given geometry.
    ///
    /// # Panics
    /// Panics unless sets and ways are powers of two and the capacity is
    /// an exact multiple of `ways * line_bytes`.
    pub fn new(geom: CacheGeom) -> Self {
        let sets = geom.sets();
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        assert!(geom.ways.is_power_of_two(), "ways must be a power of two");
        assert_eq!(
            sets * geom.ways * geom.line_bytes(),
            geom.capacity,
            "geometry does not tile the capacity"
        );
        SetAssocCache {
            geom,
            set_mask: sets - 1,
            tags: vec![INVALID; sets * geom.ways],
            stamps: vec![0; sets * geom.ways],
            clock: 0,
            stats: LevelStats::default(),
        }
    }

    /// Geometry.
    pub fn geom(&self) -> CacheGeom {
        self.geom
    }

    /// Accesses the line containing `addr`; returns `true` on hit. A miss
    /// installs the line, evicting the LRU way of its set.
    pub fn access(&mut self, addr: usize) -> bool {
        let hit = self.touch(addr);
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }

    /// Installs the line containing `addr` without counting it in the
    /// demand statistics — used by the hardware-prefetcher model.
    /// Returns `true` if the line was already resident.
    pub fn install(&mut self, addr: usize) -> bool {
        self.touch(addr)
    }

    fn touch(&mut self, addr: usize) -> bool {
        self.clock += 1;
        let line = addr >> self.geom.line_shift;
        let set = line & self.set_mask;
        let base = set * self.geom.ways;
        let ways = &mut self.tags[base..base + self.geom.ways];
        // Hit?
        for (w, &tag) in ways.iter().enumerate() {
            if tag == line {
                self.stamps[base + w] = self.clock;
                return true;
            }
        }
        // Miss: evict LRU (empty ways have stamp 0, oldest possible).
        let lru = (0..self.geom.ways)
            .min_by_key(|&w| self.stamps[base + w])
            .expect("ways >= 1");
        self.tags[base + lru] = line;
        self.stamps[base + lru] = self.clock;
        false
    }

    /// Whether the line containing `addr` is resident (no state change).
    pub fn contains(&self, addr: usize) -> bool {
        let line = addr >> self.geom.line_shift;
        let set = line & self.set_mask;
        let base = set * self.geom.ways;
        self.tags[base..base + self.geom.ways].contains(&line)
    }

    /// Demand-access statistics.
    pub fn stats(&self) -> LevelStats {
        self.stats
    }

    /// Clears contents and statistics.
    pub fn reset(&mut self) {
        self.tags.fill(INVALID);
        self.stamps.fill(0);
        self.clock = 0;
        self.stats = LevelStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 sets × 2 ways × 64 B = 512 B
        SetAssocCache::new(CacheGeom {
            capacity: 512,
            ways: 2,
            line_shift: 6,
        })
    }

    #[test]
    fn geometry_math() {
        let g = CacheGeom {
            capacity: 16 * 1024,
            ways: 8,
            line_shift: 6,
        };
        assert_eq!(g.sets(), 32);
        assert_eq!(g.line_bytes(), 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        SetAssocCache::new(CacheGeom {
            capacity: 3 * 64,
            ways: 1,
            line_shift: 6,
        });
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1004)); // same line
        assert!(!c.access(0x1040)); // next line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Three lines mapping to the same set (set = line & 3): lines 0, 4, 8.
        let a = 0usize << 6;
        let b = 4usize << 6;
        let d = 8usize << 6;
        c.access(a); // miss, install
        c.access(b); // miss, install (set full)
        c.access(a); // hit → b is now LRU
        c.access(d); // miss → evicts b
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
        assert!(!c.access(b)); // b misses again
    }

    #[test]
    fn full_way_scan_distinguishes_tags() {
        let mut c = tiny();
        // two different lines in the same set must coexist (2 ways)
        c.access(0 << 6);
        c.access(4 << 6);
        assert!(c.contains(0 << 6));
        assert!(c.contains(4 << 6));
    }

    #[test]
    fn working_set_within_capacity_stops_missing() {
        let mut c = SetAssocCache::new(CacheGeom {
            capacity: 16 * 1024,
            ways: 8,
            line_shift: 6,
        });
        let lines: Vec<usize> = (0..256).map(|i| 0x10_0000 + i * 64).collect(); // 16 KiB
        for &l in &lines {
            c.access(l);
        }
        let cold_misses = c.stats().misses;
        assert_eq!(cold_misses, 256);
        for _ in 0..10 {
            for &l in &lines {
                c.access(l);
            }
        }
        assert_eq!(c.stats().misses, cold_misses, "steady state must be all hits");
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        let mut c = SetAssocCache::new(CacheGeom {
            capacity: 1024,
            ways: 2,
            line_shift: 6,
        });
        // 4 KiB streamed repeatedly through a 1 KiB cache: every access a
        // miss under LRU.
        for _ in 0..4 {
            for i in 0..64 {
                c.access(i * 64);
            }
        }
        assert_eq!(c.stats().hits, 0);
    }

    #[test]
    fn install_does_not_count_stats() {
        let mut c = tiny();
        c.install(0x2000);
        assert_eq!(c.stats().accesses(), 0);
        assert!(c.access(0x2000), "installed line must hit");
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = tiny();
        c.access(0x40);
        c.reset();
        assert_eq!(c.stats().accesses(), 0);
        assert!(!c.contains(0x40));
    }

    #[test]
    fn miss_rate_edges() {
        assert_eq!(LevelStats::default().miss_rate(), 0.0);
        let s = LevelStats { hits: 3, misses: 1 };
        assert!((s.miss_rate() - 0.25).abs() < 1e-12);
    }
}
