//! Core identifier and result types shared by every miner.

/// An item identifier. In *raw* databases this is the external label; in
/// *ranked* databases (after [`crate::remap()`]) it is the frequency rank,
/// with `0` the most frequent item — which makes "decreasing frequency
/// order" plain ascending integer order everywhere downstream.
pub type Item = u32;

/// A transaction identifier (its index in the database).
pub type Tid = u32;

/// One mined pattern: the itemset (sorted ascending) and its support.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ItemsetCount {
    /// The items, sorted ascending.
    pub items: Vec<Item>,
    /// Number of transactions (weighted) subsuming the itemset.
    pub support: u64,
}

/// Which family of patterns to emit.
///
/// `All` is the paper's setting; `Closed` and `Maximal` are the LCM
/// extensions (LCM is, after all, the *closed* itemset miner) implemented
/// as the workspace's future-work deliverable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MineKind {
    /// Every frequent itemset.
    All,
    /// Frequent itemsets with no superset of equal support.
    Closed,
    /// Frequent itemsets with no frequent superset.
    Maximal,
}

impl MineKind {
    /// Display label.
    pub fn name(&self) -> &'static str {
        match self {
            MineKind::All => "all",
            MineKind::Closed => "closed",
            MineKind::Maximal => "maximal",
        }
    }

    /// Parses `all` / `closed` / `maximal`.
    pub fn by_label(label: &str) -> Option<MineKind> {
        match label.to_ascii_lowercase().as_str() {
            "all" => Some(MineKind::All),
            "closed" => Some(MineKind::Closed),
            "maximal" => Some(MineKind::Maximal),
            _ => None,
        }
    }

    /// A stable one-byte code for cache keys and on-disk query tags —
    /// the [`Kernel::code`] convention applied to pattern classes.
    pub fn code(&self) -> u8 {
        match self {
            MineKind::All => 0,
            MineKind::Closed => 1,
            MineKind::Maximal => 2,
        }
    }

    /// The inverse of [`code`](MineKind::code).
    pub fn from_code(code: u8) -> Option<MineKind> {
        match code {
            0 => Some(MineKind::All),
            1 => Some(MineKind::Closed),
            2 => Some(MineKind::Maximal),
            _ => None,
        }
    }

    /// All pattern classes a query can ask for.
    pub const ALL: [MineKind; 3] = [MineKind::All, MineKind::Closed, MineKind::Maximal];
}

/// Which mining kernel executes a run.
///
/// This is the workspace-wide kernel identity: the serve layer keys its
/// result cache on it, the CLI parses it from `--kernel`, and the exec
/// layer dispatches a `MinePlan` through it. (The serial-only reference
/// miners — apriori, hmine — are not listed here: they have no parallel
/// spine and the service never dispatches to them.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// `fpm-lcm` (array-based horizontal).
    Lcm,
    /// `fpm-eclat` (vertical bit matrix).
    Eclat,
    /// `fpm-fpgrowth` (prefix tree).
    FpGrowth,
}

impl Kernel {
    /// Parses `lcm` / `eclat` / `fpgrowth`.
    pub fn by_label(label: &str) -> Option<Kernel> {
        match label.to_ascii_lowercase().as_str() {
            "lcm" => Some(Kernel::Lcm),
            "eclat" => Some(Kernel::Eclat),
            "fpgrowth" => Some(Kernel::FpGrowth),
            _ => None,
        }
    }

    /// The wire label.
    pub fn label(&self) -> &'static str {
        match self {
            Kernel::Lcm => "lcm",
            Kernel::Eclat => "eclat",
            Kernel::FpGrowth => "fpgrowth",
        }
    }

    /// A stable one-byte code for cache keys.
    pub fn code(&self) -> u8 {
        match self {
            Kernel::Lcm => 0,
            Kernel::Eclat => 1,
            Kernel::FpGrowth => 2,
        }
    }

    /// All kernels the service dispatches to.
    pub const ALL: [Kernel; 3] = [Kernel::Lcm, Kernel::Eclat, Kernel::FpGrowth];
}

/// Canonicalizes a result set for comparison: sorts each itemset's items
/// and then the list of patterns. Every cross-miner equivalence test goes
/// through this.
pub fn canonicalize(mut patterns: Vec<ItemsetCount>) -> Vec<ItemsetCount> {
    for p in &mut patterns {
        p.items.sort_unstable();
    }
    patterns.sort();
    patterns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalize_sorts_items_and_patterns() {
        let raw = vec![
            ItemsetCount { items: vec![3, 1], support: 2 },
            ItemsetCount { items: vec![1], support: 5 },
        ];
        let c = canonicalize(raw);
        assert_eq!(c[0].items, vec![1]);
        assert_eq!(c[1].items, vec![1, 3]);
    }

    #[test]
    fn kernel_labels_roundtrip() {
        for k in Kernel::ALL {
            assert_eq!(Kernel::by_label(k.label()), Some(k));
        }
        assert_eq!(Kernel::by_label("LCM"), Some(Kernel::Lcm));
        assert_eq!(Kernel::by_label("nope"), None);
        // Cache keys depend on these codes staying put.
        assert_eq!(Kernel::Lcm.code(), 0);
        assert_eq!(Kernel::Eclat.code(), 1);
        assert_eq!(Kernel::FpGrowth.code(), 2);
    }

    #[test]
    fn mine_kind_names() {
        assert_eq!(MineKind::All.name(), "all");
        assert_eq!(MineKind::Closed.name(), "closed");
        assert_eq!(MineKind::Maximal.name(), "maximal");
    }

    #[test]
    fn mine_kind_codes_roundtrip() {
        for kind in MineKind::ALL {
            assert_eq!(MineKind::from_code(kind.code()), Some(kind));
            assert_eq!(MineKind::by_label(kind.name()), Some(kind));
        }
        // Query encodings and store tags depend on these codes staying put.
        assert_eq!(MineKind::All.code(), 0);
        assert_eq!(MineKind::Closed.code(), 1);
        assert_eq!(MineKind::Maximal.code(), 2);
        assert_eq!(MineKind::from_code(3), None);
        assert_eq!(MineKind::by_label("CLOSED"), Some(MineKind::Closed));
        assert_eq!(MineKind::by_label("nope"), None);
    }
}
