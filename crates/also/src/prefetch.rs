//! **P7 — Software prefetch**: the cache-fill hint the kernels' latency
//! hiding is built from. Hardware prefetchers cannot predict the next
//! address of a linked structure; the code that walks it can, and issues
//! a non-binding hint for an address it will dereference a few hundred
//! cycles later.
//!
//! The two schemes the paper builds on the hint live in the kernels that
//! apply them, each shaped by its own traversal:
//!
//! * **P7.1 wave-front prefetching** (Figure 5) — LCM's `deliver_column`
//!   (`crates/lcm/src/miner.rs`). While occurrence `k` of a column is
//!   counted, the transaction header and the arena item of occurrence
//!   `k + d` are already in flight, so the short per-transaction chases
//!   of *different* lists overlap.
//! * **P5 prefetch pointers** (after Roth & Sohi's jump pointers) —
//!   FP-Growth's `FpTree::finalize` (`crates/fpgrowth/src/tree.rs`)
//!   builds, in one pass over the linked header chains, a table mapping
//!   every chain node to the node two links further down, and
//!   `FpTree::for_each_chain_node` prefetches that target, so the hint
//!   runs two links ahead of the walk.

/// Issues a read prefetch hint for the cache line containing `p`.
///
/// Compiles to `prefetcht0` on x86-64 and to nothing elsewhere. Safe to
/// call with any address, including null or dangling pointers — prefetch
/// instructions do not fault.
#[inline(always)]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a hint; it cannot fault on any address.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p as *const i8)
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_never_faults() {
        prefetch_read(std::ptr::null::<u8>());
        prefetch_read(0xdead_beef as *const u64);
        let v = [1u8, 2, 3];
        prefetch_read(v.as_ptr());
    }
}
