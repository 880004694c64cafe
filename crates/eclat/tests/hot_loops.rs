//! Runtime proof of the `// also-lint: hot` contract on the Eclat
//! AND/popcount kernels (`also::simd`), the hybrid-container chunk
//! kernels (`also::containers`) and the spine's root-pair count
//! (`eclat::count_root_pairs`): once the lazily built Table16 lookup
//! table and the CPU-feature detection caches are warm, every strategy's
//! fused intersect-and-count — plain, 0-escaped, materializing and
//! galloping — performs zero allocations, and so does the horizontal
//! pass that counts a root item's pairs into a caller-owned counter
//! array, reading the root's tids off a hybrid or a bit column. Building a hybrid set allocates each array chunk's values
//! once: `TidSet::from_sorted` hands them to the container, and an AND
//! with an array operand intersects into a per-thread scratch buffer and
//! allocates its result once, at its exact size.

use also::adapt::ContainerKind;
use also::bits::BitVec;
use also::containers::{
    array_and_gallop_into, array_and_into, array_bitmap_and_into, bitmap_and_into, TidSet,
    BITMAP_WORDS,
};
use also::simd::{and_count, and_count_escaped, and_count_words, and_into_count, Popcount};
use fpm_eclat::count_root_pairs;
use fpm::alloc_guard::{assert_no_alloc, count_allocs, guard_active};
use memsim::NullProbe;

fn dense(len: usize, step: usize, phase: usize) -> BitVec {
    let idx: Vec<u32> = (phase..len).step_by(step).map(|x| x as u32).collect();
    BitVec::from_indices(len, &idx)
}

/// Warm every lazily initialized piece the kernels touch: the 64 KiB
/// Table16 (built on first use behind a OnceLock) and the
/// `is_x86_feature_detected!` cache consulted by `Popcount::available`.
fn warm() -> Vec<Popcount> {
    let strategies = Popcount::available();
    let _ = Popcount::best(); // populate the cached-best OnceLock

    let a = [0xDEAD_BEEF_u64; 8];
    for &s in &strategies {
        let _ = and_count_words(&a, &a, s);
    }
    strategies
}

#[test]
fn and_count_kernels_are_allocation_free() {
    let strategies = warm();
    let a = dense(4096, 3, 0);
    let b = dense(4096, 5, 1);
    let expect = and_count_words(
        &a.as_words()[..a.words()],
        &b.as_words()[..b.words()],
        Popcount::Scalar64,
    );
    for &s in &strategies {
        let got = assert_no_alloc(|| {
            let words = and_count_words(&a.as_words()[..a.words()], &b.as_words()[..b.words()], s);
            let span = and_count(&a, &b, 0..a.words().min(b.words()), s);
            assert_eq!(words, span);
            words
        });
        assert_eq!(got, expect, "{}", s.label());
    }
}

#[test]
fn escaped_kernel_is_allocation_free() {
    let strategies = warm();
    let a = dense(8192, 7, 100);
    let b = dense(8192, 11, 300);
    let (ra, rb) = (a.one_range(), b.one_range());
    let expect = and_count_escaped(&a, &ra, &b, &rb, Popcount::Scalar64);
    for &s in &strategies {
        let got = assert_no_alloc(|| and_count_escaped(&a, &ra, &b, &rb, s));
        assert_eq!(got, expect, "{}", s.label());
    }
}

#[test]
fn materializing_kernel_is_allocation_free() {
    let strategies = warm();
    let a = dense(2048, 2, 0);
    let b = dense(2048, 3, 0);
    for &s in &strategies {
        // The output vector is preallocated — the kernel itself must only
        // fill it.
        let mut out = BitVec::zeros(2048);
        let got = assert_no_alloc(|| and_into_count(&a, &b, &mut out, 0..a.words(), s));
        assert_eq!(
            got,
            and_count_words(&a.as_words()[..a.words()], &b.as_words()[..b.words()], s),
            "{}",
            s.label()
        );
    }
}

#[test]
fn chunk_array_kernels_are_allocation_free() {
    warm();
    let small: Vec<u16> = (0..64u16).map(|i| i * 901).collect();
    let large: Vec<u16> = (0..60_000u16).collect();
    let peer: Vec<u16> = (0..30_000u16).map(|i| i * 2).collect();
    let mut out = vec![0u16; 60_000];
    // Skewed operands: the dispatching kernel and the explicit galloping
    // kernel agree and neither allocates.
    let (merged, galloped) = assert_no_alloc(|| {
        let m = array_and_into(&small, &large, &mut out);
        let g = array_and_gallop_into(&small, &large, &mut out);
        (m, g)
    });
    assert_eq!(merged, galloped);
    assert_eq!(merged, small.len());
    // Balanced operands take the linear merge; still allocation-free.
    let n = assert_no_alloc(|| array_and_into(&peer, &large, &mut out));
    assert_eq!(n, peer.len());
}

#[test]
fn chunk_bitmap_kernels_are_allocation_free() {
    warm();
    let mut a = Box::new([0u64; BITMAP_WORDS]);
    let mut b = Box::new([0u64; BITMAP_WORDS]);
    for i in 0..BITMAP_WORDS {
        a[i] = 0xAAAA_AAAA_AAAA_AAAA ^ i as u64;
        b[i] = 0x5555_5555_5555_5555 | (i as u64) << 7;
    }
    let arr: Vec<u16> = (0..4000u16).map(|i| i * 16) .collect();
    let mut out_bm = Box::new([0u64; BITMAP_WORDS]);
    let mut out_arr = vec![0u16; arr.len()];
    let (into_card, probe_n) = assert_no_alloc(|| {
        let c = bitmap_and_into(&a, &b, &mut out_bm);
        let n = array_bitmap_and_into(&arr, &a, &mut out_arr);
        (c, n)
    });
    let popcount: u32 = a.iter().zip(b.iter()).map(|(x, y)| (x & y).count_ones()).sum();
    assert_eq!(into_card, popcount, "bitmap AND returns the popcount of its words");
    let naive: usize = arr
        .iter()
        .filter(|&&v| a[v as usize / 64] >> (v % 64) & 1 == 1)
        .count();
    assert_eq!(probe_n, naive);
}

#[test]
fn root_pair_count_is_allocation_free() {
    // Item 1's column spans three chunks: dense (bitmap), sparse (array)
    // and contiguous (runs after `optimize`), so the pass walks every
    // container shape; the same tids as a bit column walk its words.
    let holds_1 = |t: u32| match t >> 16 {
        0 => !t.is_multiple_of(3),
        1 => t.is_multiple_of(50),
        _ => true,
    };
    let rows: Vec<Vec<u32>> = (0..140_000u32)
        .map(|t| {
            (0..8u32)
                .filter(|&i| {
                    if i == 1 {
                        holds_1(t)
                    } else {
                        !(t + i).is_multiple_of(i + 2)
                    }
                })
                .collect()
        })
        .collect();
    let tids: Vec<u32> = (0..140_000u32).filter(|&t| holds_1(t)).collect();
    let mut column = TidSet::from_sorted(&tids);
    column.optimize();
    let bits = BitVec::from_indices(140_000, &tids);
    let mut by_set = vec![u32::MAX; 8];
    let mut by_bits = vec![u32::MAX; 8];
    assert_no_alloc(|| {
        count_root_pairs(&rows, &column, 1, &mut by_set, &mut NullProbe);
        count_root_pairs(&rows, &bits, 1, &mut by_bits, &mut NullProbe);
    });
    for counts in [&by_set, &by_bits] {
        assert_eq!(
            counts[..2],
            [u32::MAX; 2],
            "slots up to the root are untouched"
        );
        for j in 2..8u32 {
            let naive = rows
                .iter()
                .filter(|r| r.contains(&1) && r.contains(&j))
                .count();
            assert_eq!(counts[j as usize] as usize, naive, "pair {{1, {j}}}");
        }
    }
}

#[test]
fn from_sorted_allocates_each_array_chunk_once() {
    // One array chunk: the key vector (8 bytes), the chunk vector (128)
    // and the 3 000 low halves (6 000), which the container keeps rather
    // than copies.
    let tids: Vec<u32> = (0..3_000u32).map(|t| t * 7).collect();
    let (set, count) = count_allocs(|| TidSet::from_sorted(&tids));
    assert_eq!(set.to_vec(), tids);
    assert_eq!(set.chunk_kinds(), [(0, ContainerKind::Array, 3_000)]);
    if guard_active() {
        assert_eq!((count.allocations, count.bytes), (3, 6_136));
    }
}

#[test]
fn array_and_allocates_its_result_once() {
    // Two single-chunk arrays of 3 000 tids sharing 1 000: the key
    // vector (8 bytes), the chunk vector (128) and the 1 000 shared low
    // halves (2 000). The scratch buffer is thread-local static storage,
    // so it adds no allocation, even on the thread's first AND.
    let a: Vec<u32> = (0..3_000u32).map(|t| t * 3).collect();
    let b: Vec<u32> = (0..3_000u32)
        .map(|t| t * 3 + u32::from(t % 3 != 0))
        .collect();
    let (a, b) = (TidSet::from_sorted(&a), TidSet::from_sorted(&b));
    let (both, count) = count_allocs(|| a.and(&b));
    let want: Vec<u32> = (0..1_000u32).map(|t| t * 9).collect();
    assert_eq!(both.to_vec(), want);
    assert_eq!(both.chunk_kinds(), [(0, ContainerKind::Array, 1_000)]);
    if guard_active() {
        assert_eq!((count.allocations, count.bytes), (3, 2_136));
    }
}
