//! **P6.1 — Tiling for sparse representations** (§3.4 of the paper):
//! restructure a repeated traversal of a large sparse structure so that a
//! cache-sized *tile* of it is processed completely before moving on.
//!
//! The paper's target loop (LCM's `calc_freq`, Figure 6): an outer loop
//! over the columns of the occurrence array, each iteration scanning —
//! in the worst case — the whole database, with no reuse between
//! iterations once the database exceeds cache. The tiled form slices the
//! database *horizontally by row (transaction) range*; an outer loop walks
//! tiles and an inner loop performs, for every column, just the work that
//! falls inside the current tile. The cost is the extra level of loop
//! nesting plus per-column cursors.
//!
//! The occurrence lists are sorted by transaction index, so "the entries
//! of column `c` inside tile `[lo, hi)`" is a contiguous sub-slice found
//! by advancing a cursor. LCM's `count_tiles` (`crates/lcm/src/miner.rs`)
//! is that loop nest: it keeps one cursor and one dense count row per
//! candidate and allocates nothing inside it. This module holds the two
//! pieces it shares with any tiled walk: the tile ranges ([`tiles`]) and
//! the tile size ([`tile_rows_for_cache`]).

use std::ops::Range;

/// Yields the half-open row ranges `[k·tile, (k+1)·tile)` covering
/// `0..n_rows`.
pub fn tiles(n_rows: usize, tile_rows: usize) -> impl Iterator<Item = Range<usize>> {
    assert!(tile_rows > 0, "tile size must be positive");
    (0..n_rows.div_ceil(tile_rows)).map(move |k| {
        let lo = k * tile_rows;
        lo..(lo + tile_rows).min(n_rows)
    })
}

/// Picks a tile size (in rows) such that a tile's working set fits in a
/// cache of `cache_bytes` — the paper chooses the tile to fit L1.
///
/// `bytes_per_row` is the caller's estimate of the memory touched per row
/// (for LCM: the average transaction's bytes plus its header). A safety
/// factor of 2 leaves room for the auxiliary arrays sharing the cache.
pub fn tile_rows_for_cache(bytes_per_row: usize, cache_bytes: usize) -> usize {
    (cache_bytes / 2 / bytes_per_row.max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiles_cover_exactly_once() {
        let mut covered = [0u8; 103];
        for r in tiles(103, 10) {
            for i in r {
                covered[i] += 1;
            }
        }
        assert!(covered.iter().all(|&c| c == 1));
    }

    #[test]
    fn tiles_of_empty_input() {
        assert_eq!(tiles(0, 16).count(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_tile_size_panics() {
        let _ = tiles(10, 0).count();
    }

    #[test]
    fn tile_size_heuristic() {
        assert_eq!(tile_rows_for_cache(64, 16 * 1024), 128);
        assert_eq!(tile_rows_for_cache(1 << 30, 16 * 1024), 1); // never zero
        assert_eq!(tile_rows_for_cache(0, 16 * 1024), 8 * 1024);
    }
}
