//! Machine configurations — Table 5 of the paper, plus the latency and
//! issue-width parameters the cycle model needs (drawn from the published
//! microarchitectural characteristics of the two processors).

use crate::cache::CacheGeom;

/// Which evaluation platform a [`Machine`] models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MachineKind {
    /// Intel Pentium D 830 (dual core, 3 GHz) — column M1 of Table 5.
    M1,
    /// AMD Athlon 64 X2 4200+ — column M2 of Table 5.
    M2,
}

/// A simulated machine: cache/TLB geometry plus the cycle model's
/// latencies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Machine {
    /// Which platform this models.
    pub kind: MachineKind,
    /// Display name, as in Table 5.
    pub name: &'static str,
    /// L1 data cache geometry.
    pub l1: CacheGeom,
    /// L2 unified cache geometry (per core).
    pub l2: CacheGeom,
    /// Data-TLB geometry (line = 4 KiB page).
    pub tlb: CacheGeom,
    /// Cycles per instruction when everything hits L1 (1 / issue width;
    /// both cores retire up to 3 µops per cycle → 0.33).
    pub base_cpi: f64,
    /// Extra cycles for an L1 miss that hits L2.
    pub l2_latency: f64,
    /// Extra cycles for an L2 miss served from memory.
    pub mem_latency: f64,
    /// Extra cycles for a data-TLB miss (page-walk cost).
    pub tlb_latency: f64,
    /// Fraction of a miss's latency that out-of-order execution and
    /// outstanding-miss overlap hide for *independent* accesses, `0..=1`.
    /// Dependent (pointer-chasing) accesses, which the probes flag, pay
    /// full latency.
    pub overlap: f64,
    /// Core frequency in GHz (to convert cycles to seconds in reports).
    pub freq_ghz: f64,
}

impl Machine {
    /// M1: Pentium D 830 — 16 KB 8-way L1D, 1 MB 8-way L2, 64-entry DTLB.
    /// Long memory latency (≈ 240 cycles at 3 GHz FSB-800) and a deep
    /// pipeline that overlaps independent misses moderately well.
    pub fn m1() -> Machine {
        Machine {
            kind: MachineKind::M1,
            name: "Intel Pentium D 830 (3 GHz)",
            l1: CacheGeom {
                capacity: 16 * 1024,
                ways: 8,
                line_shift: 6,
            },
            l2: CacheGeom {
                capacity: 1024 * 1024,
                ways: 8,
                line_shift: 6,
            },
            tlb: CacheGeom {
                capacity: 64 * 4096,
                ways: 4,
                line_shift: 12,
            },
            base_cpi: 1.0 / 3.0,
            l2_latency: 27.0,
            mem_latency: 240.0,
            tlb_latency: 30.0,
            overlap: 0.6,
            freq_ghz: 3.0,
        }
    }

    /// M2: Athlon 64 X2 4200+ — 64 KB 2-way L1D, 512 KB 16-way L2,
    /// on-die memory controller (≈ 200-cycle memory at 2.2 GHz), shorter
    /// L2 latency, slightly less miss overlap (shallower pipeline).
    pub fn m2() -> Machine {
        Machine {
            kind: MachineKind::M2,
            name: "AMD Athlon 64 X2 4200+ (2.2 GHz)",
            l1: CacheGeom {
                capacity: 64 * 1024,
                ways: 2,
                line_shift: 6,
            },
            l2: CacheGeom {
                capacity: 512 * 1024,
                ways: 16,
                line_shift: 6,
            },
            tlb: CacheGeom {
                capacity: 64 * 4096,
                ways: 4,
                line_shift: 12,
            },
            base_cpi: 1.0 / 3.0,
            l2_latency: 12.0,
            mem_latency: 160.0,
            tlb_latency: 25.0,
            overlap: 0.5,
            freq_ghz: 2.2,
        }
    }

    /// Looks a machine up by its Table 5 column label (`"m1"`/`"m2"`,
    /// case-insensitive).
    pub fn by_label(label: &str) -> Option<Machine> {
        match label.to_ascii_lowercase().as_str() {
            "m1" => Some(Machine::m1()),
            "m2" => Some(Machine::m2()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_geometries() {
        let m1 = Machine::m1();
        assert_eq!(m1.l1.capacity, 16 * 1024);
        assert_eq!(m1.l2.capacity, 1024 * 1024);
        let m2 = Machine::m2();
        assert_eq!(m2.l1.capacity, 64 * 1024);
        assert_eq!(m2.l2.capacity, 512 * 1024);
    }

    #[test]
    fn geometries_are_constructible() {
        use crate::cache::SetAssocCache;
        for m in [Machine::m1(), Machine::m2()] {
            SetAssocCache::new(m.l1);
            SetAssocCache::new(m.l2);
            SetAssocCache::new(m.tlb);
        }
    }

    #[test]
    fn optimum_cpi_is_one_third() {
        // "Each core … is able to retire 3 µops per cycle, with an optimum
        // CPI of 0.33" (§2.2).
        assert!((Machine::m1().base_cpi - 0.333).abs() < 0.01);
        assert!((Machine::m2().base_cpi - 0.333).abs() < 0.01);
    }

    #[test]
    fn lookup_by_label() {
        assert_eq!(Machine::by_label("M1").unwrap().kind, MachineKind::M1);
        assert_eq!(Machine::by_label("m2").unwrap().kind, MachineKind::M2);
        assert!(Machine::by_label("m3").is_none());
    }
}
