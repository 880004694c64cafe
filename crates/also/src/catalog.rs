//! Machine-readable catalogue of the ALSO patterns: what each pattern
//! improves (Table 2 of the paper) and which mining kernels it applies to
//! (Table 4). The `repro` harness prints the tables directly from this
//! data, so the documentation and the code cannot drift apart.

/// The tuning patterns, named as in §3 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// P1 — reorder transactions lexicographically by frequency rank.
    LexicographicOrdering,
    /// P2 — adapt the database representation to the input.
    DataStructureAdaptation,
    /// P3 — pack linked-structure nodes into cache-line supernodes.
    Aggregation,
    /// P4 — copy scattered hot data into contiguous memory.
    Compaction,
    /// P5 — precomputed jump pointers for deep prefetching.
    PrefetchPointers,
    /// P6 — tiling (P6.1: tiling for sparse representations).
    Tiling,
    /// P7 — software prefetch (P7.1: wave-front prefetching).
    SoftwarePrefetch,
    /// P8 — SIMD vectorization of the computation kernel.
    Simdization,
}

/// What a pattern improves — the four benefit columns of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternBenefit {
    /// Improves spatial locality.
    pub spatial_locality: bool,
    /// Improves temporal locality.
    pub temporal_locality: bool,
    /// Hides or reduces memory latency.
    pub memory_latency: bool,
    /// Accelerates computation.
    pub computation: bool,
}

/// The mining kernels of the paper's case studies (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Array-based horizontal miner (FIMI'04 best implementation).
    Lcm,
    /// Vertical bit-matrix miner.
    Eclat,
    /// Prefix-tree miner.
    FpGrowth,
}

/// How a pattern relates to a kernel in the paper's Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applicability {
    /// Applied and evaluated in the paper's case study (a "√" cell).
    Applied,
    /// Already proposed in prior literature; not re-evaluated ("()").
    PriorWork,
    /// Not studied for this kernel ("—").
    NotStudied,
}

impl Pattern {
    /// Every pattern, in paper order.
    pub const ALL: [Pattern; 8] = [
        Pattern::LexicographicOrdering,
        Pattern::DataStructureAdaptation,
        Pattern::Aggregation,
        Pattern::Compaction,
        Pattern::PrefetchPointers,
        Pattern::Tiling,
        Pattern::SoftwarePrefetch,
        Pattern::Simdization,
    ];

    /// The paper's P-number label.
    pub fn id(&self) -> &'static str {
        match self {
            Pattern::LexicographicOrdering => "P1",
            Pattern::DataStructureAdaptation => "P2",
            Pattern::Aggregation => "P3",
            Pattern::Compaction => "P4",
            Pattern::PrefetchPointers => "P5",
            Pattern::Tiling => "P6",
            Pattern::SoftwarePrefetch => "P7",
            Pattern::Simdization => "P8",
        }
    }

    /// Human-readable name as printed in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Pattern::LexicographicOrdering => "Lexicographic ordering",
            Pattern::DataStructureAdaptation => "Data structure adaptation",
            Pattern::Aggregation => "Aggregation",
            Pattern::Compaction => "Compaction",
            Pattern::PrefetchPointers => "Prefetch pointers",
            Pattern::Tiling => "Tiling",
            Pattern::SoftwarePrefetch => "Software prefetch",
            Pattern::Simdization => "SIMDization",
        }
    }

    /// Table 2 row: the benefits this pattern provides.
    pub fn benefit(&self) -> PatternBenefit {
        let b = |s, t, m, c| PatternBenefit {
            spatial_locality: s,
            temporal_locality: t,
            memory_latency: m,
            computation: c,
        };
        match self {
            Pattern::LexicographicOrdering => b(true, false, false, false),
            Pattern::DataStructureAdaptation => b(true, false, false, false),
            Pattern::Aggregation => b(true, false, true, false),
            Pattern::Compaction => b(true, false, false, false),
            Pattern::PrefetchPointers => b(false, false, true, false),
            Pattern::Tiling => b(false, true, false, false),
            Pattern::SoftwarePrefetch => b(false, false, true, false),
            Pattern::Simdization => b(false, false, false, true),
        }
    }

    /// Table 4 cell: how the paper's case studies treat this pattern for
    /// the given kernel.
    pub fn applicability(&self, kernel: Kernel) -> Applicability {
        use Applicability::*;
        use Kernel::*;
        match (self, kernel) {
            (Pattern::LexicographicOrdering, _) => Applied,
            (Pattern::DataStructureAdaptation, Lcm) => NotStudied,
            (Pattern::DataStructureAdaptation, Eclat) => PriorWork,
            (Pattern::DataStructureAdaptation, FpGrowth) => Applied,
            (Pattern::Aggregation, Lcm) => Applied,
            (Pattern::Aggregation, Eclat) => NotStudied,
            (Pattern::Aggregation, FpGrowth) => Applied,
            (Pattern::Compaction, Lcm) => Applied,
            (Pattern::Compaction, Eclat) => NotStudied,
            (Pattern::Compaction, FpGrowth) => Applied,
            (Pattern::PrefetchPointers, Lcm) => NotStudied,
            (Pattern::PrefetchPointers, Eclat) => NotStudied,
            (Pattern::PrefetchPointers, FpGrowth) => Applied,
            (Pattern::Tiling, Lcm) => Applied,
            (Pattern::Tiling, Eclat) => NotStudied,
            (Pattern::Tiling, FpGrowth) => PriorWork,
            (Pattern::SoftwarePrefetch, Lcm) => Applied,
            (Pattern::SoftwarePrefetch, Eclat) => NotStudied,
            (Pattern::SoftwarePrefetch, FpGrowth) => Applied,
            (Pattern::Simdization, Lcm) => NotStudied,
            (Pattern::Simdization, Eclat) => Applied,
            (Pattern::Simdization, FpGrowth) => NotStudied,
        }
    }
}

impl Kernel {
    /// The three case-study kernels in paper order.
    pub const ALL: [Kernel; 3] = [Kernel::Lcm, Kernel::Eclat, Kernel::FpGrowth];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Lcm => "LCM",
            Kernel::Eclat => "Eclat",
            Kernel::FpGrowth => "FP-Growth",
        }
    }

    /// Table 3 row: (database type, data structure, bound).
    pub fn characteristics(&self) -> (&'static str, &'static str, &'static str) {
        match self {
            Kernel::Lcm => ("horizontal", "array", "memory"),
            Kernel::Eclat => ("vertical", "bit vector (array)", "computation"),
            Kernel::FpGrowth => ("horizontal", "tree", "memory"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pattern_has_at_least_one_benefit() {
        for p in Pattern::ALL {
            let b = p.benefit();
            assert!(
                b.spatial_locality || b.temporal_locality || b.memory_latency || b.computation,
                "{} has no benefit",
                p.name()
            );
        }
    }

    #[test]
    fn table2_spot_checks() {
        // Aggregation improves spatial locality AND memory latency.
        let agg = Pattern::Aggregation.benefit();
        assert!(agg.spatial_locality && agg.memory_latency);
        // Tiling is the only temporal-locality pattern.
        let temporal: Vec<_> = Pattern::ALL
            .iter()
            .filter(|p| p.benefit().temporal_locality)
            .collect();
        assert_eq!(temporal.len(), 1);
        assert_eq!(*temporal[0], Pattern::Tiling);
        // SIMDization is the only computation pattern.
        assert!(Pattern::Simdization.benefit().computation);
    }

    #[test]
    fn table4_spot_checks() {
        use Applicability::*;
        // Lex ordering applied everywhere.
        for k in Kernel::ALL {
            assert_eq!(Pattern::LexicographicOrdering.applicability(k), Applied);
        }
        // SIMD only on Eclat; tiling on FP-Growth is prior work (Ghoting).
        assert_eq!(Pattern::Simdization.applicability(Kernel::Eclat), Applied);
        assert_eq!(Pattern::Simdization.applicability(Kernel::Lcm), NotStudied);
        assert_eq!(Pattern::Tiling.applicability(Kernel::FpGrowth), PriorWork);
        assert_eq!(Pattern::Tiling.applicability(Kernel::Lcm), Applied);
    }

    #[test]
    fn ids_are_unique_and_ordered() {
        let ids: Vec<_> = Pattern::ALL.iter().map(|p| p.id()).collect();
        assert_eq!(ids, vec!["P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8"]);
    }

    #[test]
    fn table3_characteristics() {
        assert_eq!(Kernel::Eclat.characteristics().2, "computation");
        assert_eq!(Kernel::Lcm.characteristics().2, "memory");
        assert_eq!(Kernel::FpGrowth.characteristics().1, "tree");
    }
}
