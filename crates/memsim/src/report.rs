//! Simulation reports: the numbers Figure 2 plots (CPI per kernel
//! function) plus the miss-rate breakdown used throughout the evaluation.

use crate::cache::LevelStats;

/// Accumulated statistics of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct MemReport {
    /// What was measured (kernel/function name).
    pub label: String,
    /// The simulated machine's name.
    pub machine: String,
    /// Instructions retired.
    pub instructions: u64,
    /// Total cycles (base issue + stall cycles).
    pub cycles: f64,
    /// Read accesses issued.
    pub reads: u64,
    /// Write accesses issued.
    pub writes: u64,
    /// Software prefetches issued.
    pub sw_prefetches: u64,
    /// L1 data cache statistics.
    pub l1: LevelStats,
    /// L2 cache statistics.
    pub l2: LevelStats,
    /// Data-TLB statistics.
    pub tlb: LevelStats,
    /// Core frequency (GHz) for time conversion.
    pub freq_ghz: f64,
}

impl MemReport {
    /// Cycles per instruction — the Figure 2 metric.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles / self.instructions as f64
        }
    }

    /// Simulated wall-clock seconds.
    pub fn seconds(&self) -> f64 {
        self.cycles / (self.freq_ghz * 1e9)
    }

    /// `true` when the run is memory bound under the paper's §2.2 rule of
    /// thumb: CPI well above the 0.33 optimum together with a meaningful
    /// L1 miss rate.
    pub fn is_memory_bound(&self) -> bool {
        self.cpi() > 0.8 && self.l1.miss_rate() > 0.01
    }

    /// One formatted table row (label, CPI, miss rates) for the `repro`
    /// harness.
    pub fn row(&self) -> String {
        format!(
            "{:<28} {:>8.3} {:>9.2}% {:>9.2}% {:>9.2}%",
            self.label,
            self.cpi(),
            100.0 * self.l1.miss_rate(),
            100.0 * self.l2.miss_rate(),
            100.0 * self.tlb.miss_rate(),
        )
    }

    /// The table header matching [`MemReport::row`].
    pub fn header() -> String {
        format!(
            "{:<28} {:>8} {:>10} {:>10} {:>10}",
            "function", "CPI", "L1 miss", "L2 miss", "TLB miss"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MemReport {
        MemReport {
            label: "calc_freq".into(),
            machine: "M1".into(),
            instructions: 1000,
            cycles: 2500.0,
            reads: 400,
            writes: 50,
            sw_prefetches: 0,
            l1: LevelStats { hits: 300, misses: 150 },
            l2: LevelStats { hits: 100, misses: 50 },
            tlb: LevelStats { hits: 440, misses: 10 },
            freq_ghz: 3.0,
        }
    }

    #[test]
    fn cpi_and_seconds() {
        let r = sample();
        assert!((r.cpi() - 2.5).abs() < 1e-12);
        assert!((r.seconds() - 2500.0 / 3e9).abs() < 1e-18);
    }

    #[test]
    fn zero_instruction_cpi_is_zero() {
        let mut r = sample();
        r.instructions = 0;
        assert_eq!(r.cpi(), 0.0);
    }

    #[test]
    fn memory_bound_classification() {
        let r = sample();
        assert!(r.is_memory_bound());
        let mut compute = sample();
        compute.cycles = 400.0; // CPI 0.4
        assert!(!compute.is_memory_bound());
    }

    #[test]
    fn row_formats() {
        let r = sample();
        assert!(r.row().contains("calc_freq"));
        assert_eq!(
            MemReport::header().split_whitespace().count(),
            8 // "function CPI L1 miss L2 miss TLB miss"
        );
    }
}
