//! Result cache: repeated queries skip mining entirely.
//!
//! Keyed by `(dataset fingerprint, kernel, min_support, query)` — the
//! four inputs that determine a miner's output exactly (the query key is
//! the lossless [`QueryKey`] form of the request's [`fpm::PatternQuery`],
//! DESIGN.md §15; pre-query keys map to `QueryKey::default()`). Only
//! *complete, untruncated* runs are inserted, so a hit can serve any
//! request (budget-limited callers get a prefix of the cached list,
//! which is by construction the same prefix a fresh truncated run would
//! emit).
//!
//! Eviction is least-recently-used via a monotonic stamp; the map is a
//! `BTreeMap` so iteration during eviction is deterministic (the R3
//! `deterministic-iteration` rule of the emission path).
//!
//! Every entry carries an FNV checksum of its pattern list, computed at
//! insert and verified on every probe. A cached answer is served to
//! arbitrarily many callers, so a corrupted entry (a flipped bit, a
//! truncated list — whatever the cause) must never leave the cache:
//! [`ResultCache::probe`] detects the mismatch, drops the entry, and
//! reports [`Lookup::Corrupt`] so the service re-mines instead of
//! serving poison.
//!
//! On top of the entry-count bound, [`CacheConfig`] adds two budgets:
//! a **byte budget** (`max_bytes`) that evicts LRU entries until the
//! approximate heap footprint fits, and a **TTL** after which a probe
//! reads the entry as [`Lookup::Expired`] — dropped and re-mined, and
//! counted as a *miss* (never a hit) in the service's probe arithmetic.

use fpm::{ItemsetCount, QueryKey};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `(dataset fingerprint, kernel code, min_support, query key)`.
pub type CacheKey = (u64, u8, u64, QueryKey);

/// The dataset fingerprint of the cache key: the store's FNV-1a over the
/// full transaction content, so a cache key and an artifact's recorded
/// fingerprint are the same number by construction.
pub use store::fingerprint;

/// FNV-1a over a pattern list — length, items, and supports — the
/// integrity stamp each cache entry carries from insert to probe.
pub fn checksum(patterns: &[ItemsetCount]) -> u64 {
    let mut h = fpm::FNV_OFFSET;
    let mut eat = |v: u64| h = fpm::fnv1a(h, &v.to_le_bytes());
    eat(patterns.len() as u64);
    for p in patterns {
        eat(p.items.len() as u64);
        for &item in &p.items {
            eat(item as u64);
        }
        eat(p.support);
    }
    h
}

/// What a [`ResultCache::probe`] found.
#[derive(Debug)]
pub enum Lookup {
    /// A verified entry: serve it.
    Hit(Arc<Vec<ItemsetCount>>),
    /// An entry was present but failed its checksum; it has been
    /// dropped. The caller must treat this as a miss and re-mine.
    Corrupt,
    /// An entry was present but outlived the configured TTL; it has
    /// been dropped. The caller must treat this as a miss and re-mine —
    /// in particular it counts toward `cache_misses`, never
    /// `cache_hits` (the probes = hits + misses invariant).
    Expired,
    /// No entry.
    Miss,
}

/// Sizing and expiry policy for a [`ResultCache`].
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Maximum cached results (`0` disables caching entirely).
    pub capacity: usize,
    /// Byte budget over the approximate heap footprint of all entries
    /// ([`approx_bytes`]); LRU entries are evicted until a new insert
    /// fits. `0` means no byte budget. A single result larger than the
    /// whole budget is simply not cached.
    pub max_bytes: usize,
    /// Entries older than this read as [`Lookup::Expired`] on probe;
    /// `None` never expires.
    pub ttl: Option<Duration>,
}

impl CacheConfig {
    /// An entry-count-only policy: no byte budget, no TTL.
    pub fn entries(capacity: usize) -> CacheConfig {
        CacheConfig {
            capacity,
            max_bytes: 0,
            ttl: None,
        }
    }
}

/// Approximate heap footprint of a cached pattern list: the entry
/// vector plus each itemset's item storage. Deliberately a stable
/// arithmetic model (not allocator-measured) so budget-driven eviction
/// behaves identically across platforms.
pub fn approx_bytes(patterns: &[ItemsetCount]) -> usize {
    patterns
        .iter()
        .fold(std::mem::size_of_val(patterns), |acc, p| {
            acc + p.items.len() * std::mem::size_of::<u32>()
        })
}

struct Entry {
    patterns: Arc<Vec<ItemsetCount>>,
    checksum: u64,
    stamp: u64,
    inserted: Instant,
    bytes: usize,
}

/// A bounded LRU map from [`CacheKey`] to a complete pattern list.
/// Not internally synchronized — the service wraps it in a `Mutex`.
pub struct ResultCache {
    cfg: CacheConfig,
    clock: u64,
    bytes: usize,
    map: BTreeMap<CacheKey, Entry>,
}

impl ResultCache {
    /// An empty cache holding at most `capacity` results (`0` disables
    /// caching entirely), with no byte budget or TTL.
    pub fn new(capacity: usize) -> Self {
        Self::with_config(CacheConfig::entries(capacity))
    }

    /// An empty cache under the full [`CacheConfig`] policy.
    pub fn with_config(cfg: CacheConfig) -> Self {
        ResultCache {
            cfg,
            clock: 0,
            bytes: 0,
            map: BTreeMap::new(),
        }
    }

    /// Looks `key` up, verifying the entry's TTL and checksum; a
    /// verified hit refreshes its recency, an expired or corrupted
    /// entry is dropped on the spot.
    pub fn probe(&mut self, key: &CacheKey) -> Lookup {
        self.clock += 1;
        let clock = self.clock;
        if let Some(ttl) = self.cfg.ttl {
            let stale = self
                .map
                .get(key)
                .is_some_and(|e| e.inserted.elapsed() >= ttl);
            if stale {
                self.remove(key);
                return Lookup::Expired;
            }
        }
        let Some(e) = self.map.get_mut(key) else {
            return Lookup::Miss;
        };
        // Chaos injection site: flip bytes of the cached list *before*
        // the integrity check, exactly where rot would land. Only
        // compiled under this crate's `chaos` feature — the Arc
        // copy-on-write is not free, so the production probe path must
        // not carry it.
        #[cfg(feature = "chaos")]
        {
            let _ = fpm::faults::corrupt_patterns(Arc::make_mut(&mut e.patterns));
        }
        if checksum(&e.patterns) != e.checksum {
            self.remove(key);
            return Lookup::Corrupt;
        }
        e.stamp = clock;
        Lookup::Hit(Arc::clone(&e.patterns))
    }

    /// [`probe`](ResultCache::probe) collapsed to an `Option`: corrupt
    /// and expired entries read as misses (they have already been
    /// dropped).
    pub fn get(&mut self, key: &CacheKey) -> Option<Arc<Vec<ItemsetCount>>> {
        match self.probe(key) {
            Lookup::Hit(patterns) => Some(patterns),
            Lookup::Corrupt | Lookup::Expired | Lookup::Miss => None,
        }
    }

    fn remove(&mut self, key: &CacheKey) {
        if let Some(e) = self.map.remove(key) {
            self.bytes -= e.bytes;
        }
    }

    /// Evicts the least-recently-used entry; `false` when empty.
    fn evict_lru(&mut self) -> bool {
        let Some(oldest) = self
            .map
            .iter()
            .min_by_key(|(_, e)| e.stamp)
            .map(|(k, _)| *k)
        else {
            return false;
        };
        self.remove(&oldest);
        true
    }

    /// Inserts a complete result, evicting least-recently-used entries
    /// until both the entry-count bound and the byte budget hold.
    /// Returns the number of evictions. A result larger than the whole
    /// byte budget is not cached (and evicts nothing).
    pub fn insert(&mut self, key: CacheKey, patterns: Arc<Vec<ItemsetCount>>) -> u64 {
        if self.cfg.capacity == 0 {
            return 0;
        }
        let bytes = approx_bytes(&patterns);
        if self.cfg.max_bytes > 0 && bytes > self.cfg.max_bytes {
            return 0;
        }
        self.clock += 1;
        // Overwrites release the old entry's budget before any
        // eviction decision is made.
        self.remove(&key);
        let mut evicted = 0;
        while self.map.len() >= self.cfg.capacity
            || (self.cfg.max_bytes > 0 && self.bytes + bytes > self.cfg.max_bytes)
        {
            if !self.evict_lru() {
                break;
            }
            evicted += 1;
        }
        let sum = checksum(&patterns);
        self.bytes += bytes;
        self.map.insert(
            key,
            Entry {
                patterns,
                checksum: sum,
                stamp: self.clock,
                inserted: Instant::now(),
                bytes,
            },
        );
        evicted
    }

    /// Test support: mutates the cached pattern list for `key` in place
    /// *without* refreshing its checksum — simulating rot between
    /// insert and probe. Returns `false` when the key is absent.
    #[doc(hidden)]
    pub fn tamper(&mut self, key: &CacheKey, f: impl FnOnce(&mut Vec<ItemsetCount>)) -> bool {
        match self.map.get_mut(key) {
            Some(e) => {
                f(Arc::make_mut(&mut e.patterns));
                true
            }
            None => false,
        }
    }

    /// Test support: backdates the entry for `key` by `by`, simulating
    /// the passage of wall-clock time against the TTL without sleeping.
    /// Returns `false` when the key is absent.
    #[doc(hidden)]
    pub fn age(&mut self, key: &CacheKey, by: Duration) -> bool {
        match self.map.get_mut(key) {
            Some(e) => {
                e.inserted = e.inserted.checked_sub(by).unwrap_or(e.inserted);
                true
            }
            None => false,
        }
    }

    /// Approximate heap bytes currently held ([`approx_bytes`] summed
    /// over entries).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The live entries, in key order (the map is a `BTreeMap`, so the
    /// order is deterministic — R3). The store flush walks this to
    /// persist a shard's cache partition; entries are yielded as-is,
    /// without touching LRU stamps or TTL clocks.
    pub fn entries(&self) -> impl Iterator<Item = (&CacheKey, &Arc<Vec<ItemsetCount>>)> {
        self.map.iter().map(|(k, e)| (k, &e.patterns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pats(n: u64) -> Arc<Vec<ItemsetCount>> {
        Arc::new(vec![ItemsetCount {
            items: vec![n as u32],
            support: n,
        }])
    }

    /// The historical 3-tuple key padded with the identity query.
    fn k(fingerprint: u64, kernel: u8, minsup: u64) -> CacheKey {
        (fingerprint, kernel, minsup, QueryKey::default())
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = ResultCache::new(2);
        assert_eq!(c.insert(k(1, 0, 1), pats(1)), 0);
        assert_eq!(c.insert(k(2, 0, 1), pats(2)), 0);
        assert!(c.get(&k(1, 0, 1)).is_some()); // refresh key 1
        assert_eq!(c.insert(k(3, 0, 1), pats(3)), 1); // evicts key 2
        assert!(c.get(&k(2, 0, 1)).is_none());
        assert!(c.get(&k(1, 0, 1)).is_some());
        assert!(c.get(&k(3, 0, 1)).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_does_not_evict() {
        let mut c = ResultCache::new(1);
        assert_eq!(c.insert(k(1, 0, 1), pats(1)), 0);
        assert_eq!(c.insert(k(1, 0, 1), pats(9)), 0, "same key: overwrite in place");
        assert_eq!(c.get(&k(1, 0, 1)).unwrap()[0].support, 9);
    }

    #[test]
    fn corrupted_entry_is_dropped_not_served() {
        // Satellite: serve::cache poisoning. A flipped byte must read
        // as Corrupt (then a miss — the service re-mines), never as a
        // hit serving the poisoned list.
        let mut c = ResultCache::new(4);
        c.insert(k(1, 0, 1), pats(1));
        assert!(c.tamper(&k(1, 0, 1), |p| p[0].support ^= 1));
        assert!(
            matches!(c.probe(&k(1, 0, 1)), Lookup::Corrupt),
            "checksum mismatch must surface as Corrupt"
        );
        assert!(c.is_empty(), "the poisoned entry is gone");
        assert!(
            matches!(c.probe(&k(1, 0, 1)), Lookup::Miss),
            "subsequent probes are plain misses"
        );
    }

    #[test]
    fn truncated_entry_is_dropped_not_served() {
        let mut c = ResultCache::new(4);
        let full = Arc::new(vec![
            ItemsetCount { items: vec![1], support: 3 },
            ItemsetCount { items: vec![1, 2], support: 2 },
            ItemsetCount { items: vec![2], support: 2 },
        ]);
        c.insert(k(7, 1, 2), Arc::clone(&full));
        assert!(c.tamper(&k(7, 1, 2), |p| p.truncate(1)));
        assert!(matches!(c.probe(&k(7, 1, 2)), Lookup::Corrupt));
        // Re-inserting a fresh complete result heals the slot.
        c.insert(k(7, 1, 2), Arc::clone(&full));
        match c.probe(&k(7, 1, 2)) {
            Lookup::Hit(got) => assert_eq!(got, full),
            other => panic!("want a verified hit, got {other:?}"),
        }
    }

    #[test]
    fn item_flip_in_any_position_is_detected() {
        let mut c = ResultCache::new(4);
        for victim in 0..3usize {
            let patterns = Arc::new(vec![
                ItemsetCount { items: vec![1], support: 3 },
                ItemsetCount { items: vec![1, 2], support: 2 },
                ItemsetCount { items: vec![2], support: 2 },
            ]);
            c.insert(k(9, 2, 1), patterns);
            assert!(c.tamper(&k(9, 2, 1), |p| p[victim].items[0] ^= 1));
            assert!(
                matches!(c.probe(&k(9, 2, 1)), Lookup::Corrupt),
                "victim={victim}"
            );
        }
    }

    #[test]
    fn distinct_queries_occupy_distinct_slots() {
        use fpm::types::MineKind;
        use fpm::PatternQuery;
        let mut c = ResultCache::new(8);
        let all = PatternQuery::all().key();
        let closed = PatternQuery::class(MineKind::Closed).key();
        let topk = PatternQuery::all().top_k(5).key();
        assert_eq!(all, QueryKey::default(), "identity query is the default key");
        c.insert((1, 0, 2, all), pats(1));
        c.insert((1, 0, 2, closed), pats(2));
        c.insert((1, 0, 2, topk), pats(3));
        assert_eq!(c.len(), 3, "same (fp, kernel, minsup), three query slots");
        assert_eq!(c.get(&(1, 0, 2, all)).unwrap()[0].support, 1);
        assert_eq!(c.get(&(1, 0, 2, closed)).unwrap()[0].support, 2);
        assert_eq!(c.get(&(1, 0, 2, topk)).unwrap()[0].support, 3);
    }

    #[test]
    fn checksum_is_content_determined() {
        let a = vec![ItemsetCount { items: vec![1, 2], support: 3 }];
        let b = vec![ItemsetCount { items: vec![1, 2], support: 3 }];
        assert_eq!(checksum(&a), checksum(&b));
        let c = vec![ItemsetCount { items: vec![1, 2], support: 4 }];
        assert_ne!(checksum(&a), checksum(&c));
        assert_ne!(checksum(&a), checksum(&[]));
    }

    #[test]
    fn checksum_is_pinned() {
        let patterns = vec![
            ItemsetCount { items: vec![1], support: 3 },
            ItemsetCount { items: vec![1, 2], support: 3 },
            ItemsetCount { items: vec![4, 9, 70_000], support: 2 },
        ];
        assert_eq!(checksum(&patterns), 0x2a18_f6c8_ed98_1e25);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = ResultCache::new(0);
        assert_eq!(c.insert(k(1, 0, 1), pats(1)), 0);
        assert!(c.get(&k(1, 0, 1)).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn ttl_expired_entry_reads_as_expired_then_miss() {
        let mut c = ResultCache::with_config(CacheConfig {
            capacity: 4,
            max_bytes: 0,
            ttl: Some(Duration::from_secs(60)),
        });
        c.insert(k(1, 0, 1), pats(1));
        assert!(
            matches!(c.probe(&k(1, 0, 1)), Lookup::Hit(_)),
            "fresh entry serves"
        );
        assert!(c.age(&k(1, 0, 1), Duration::from_secs(61)));
        assert!(
            matches!(c.probe(&k(1, 0, 1)), Lookup::Expired),
            "an entry past its TTL must not serve"
        );
        assert!(c.is_empty(), "the expired entry is gone");
        assert!(matches!(c.probe(&k(1, 0, 1)), Lookup::Miss));
        assert_eq!(c.bytes(), 0, "expiry releases the byte budget");
    }

    #[test]
    fn fresh_entries_survive_a_ttl_probe() {
        let mut c = ResultCache::with_config(CacheConfig {
            capacity: 4,
            max_bytes: 0,
            ttl: Some(Duration::from_secs(60)),
        });
        c.insert(k(1, 0, 1), pats(1));
        assert!(c.age(&k(1, 0, 1), Duration::from_secs(30)));
        assert!(matches!(c.probe(&k(1, 0, 1)), Lookup::Hit(_)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn byte_budget_evicts_lru_until_the_insert_fits() {
        let one = approx_bytes(&pats(0));
        let mut c = ResultCache::with_config(CacheConfig {
            capacity: 100,
            max_bytes: one * 2,
            ttl: None,
        });
        assert_eq!(c.insert(k(1, 0, 1), pats(1)), 0);
        assert_eq!(c.insert(k(2, 0, 1), pats(2)), 0);
        assert_eq!(c.bytes(), one * 2);
        assert!(c.get(&k(1, 0, 1)).is_some()); // refresh key 1
        assert_eq!(c.insert(k(3, 0, 1), pats(3)), 1, "budget full: evict LRU");
        assert!(c.get(&k(2, 0, 1)).is_none(), "key 2 was least recent");
        assert!(c.get(&k(1, 0, 1)).is_some());
        assert_eq!(c.bytes(), one * 2);
    }

    #[test]
    fn oversized_result_is_not_cached_and_evicts_nothing() {
        let one = approx_bytes(&pats(0));
        let mut c = ResultCache::with_config(CacheConfig {
            capacity: 100,
            max_bytes: one,
            ttl: None,
        });
        c.insert(k(1, 0, 1), pats(1));
        let big = Arc::new(vec![
            ItemsetCount { items: vec![1], support: 1 },
            ItemsetCount { items: vec![2], support: 1 },
        ]);
        assert!(approx_bytes(&big) > one);
        assert_eq!(c.insert(k(2, 0, 1), big), 0);
        assert!(c.get(&k(2, 0, 1)).is_none(), "over-budget result skipped");
        assert!(c.get(&k(1, 0, 1)).is_some(), "resident entry untouched");
    }

    #[test]
    fn overwrite_releases_the_old_entrys_bytes() {
        let mut c = ResultCache::with_config(CacheConfig {
            capacity: 4,
            max_bytes: 4096,
            ttl: None,
        });
        let big = Arc::new(vec![
            ItemsetCount { items: vec![1, 2, 3], support: 1 },
            ItemsetCount { items: vec![2], support: 1 },
        ]);
        c.insert(k(1, 0, 1), big);
        c.insert(k(1, 0, 1), pats(1));
        assert_eq!(c.bytes(), approx_bytes(&pats(1)));
    }
}
