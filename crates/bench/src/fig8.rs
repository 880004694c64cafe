//! Figure 8 — speedups of the ALSO-tuned kernel variants over their
//! untuned baselines, per dataset, on the native host and on the
//! simulated M1/M2 machines.
//!
//! The paper's figure clusters, per dataset: one bar per single pattern
//! (`Lex`, `Reorg`, `Pref`, `Tile`, `SIMD` as applicable), an `all` bar
//! (every applicable pattern), and a `best` bar (the best *combination*,
//! annotated with which combination won). `--exhaustive` reproduces the
//! `best` search over the full pattern power set; the default searches
//! the named variants only.

use also::simd::Popcount;
use exec::KernelConfig;
use fpm::{CountSink, TransactionDb};
use memsim::{CacheProbe, Machine, MemReport};
use quest::{Dataset, Scale};
use std::time::Instant;

/// How a variant is costed.
#[derive(Debug, Clone, Copy)]
pub enum Timing {
    /// Wall-clock on the host, best of `runs` rounds (see
    /// [`run_cluster`]).
    Native {
        /// Timed rounds (after one warm-up round).
        runs: usize,
        /// Worker threads on the `fpm-par` runtime: `1` runs the plain
        /// serial kernel, `0` auto-detects, `n` pins the pool size. The
        /// simulated machines are single-core, so this only affects
        /// native timing.
        threads: usize,
    },
    /// Simulated cycles on a Table 5 machine.
    Simulated(Machine),
}

/// One measured variant.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Variant label (`base`, `lex`, …, or a `+`-joined combination).
    pub label: String,
    /// Seconds (native) or cycles (simulated).
    pub cost: f64,
    /// Patterns emitted (identical across variants — checked).
    pub patterns: u64,
}

/// One dataset's cluster of bars.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// The dataset.
    pub dataset: Dataset,
    /// Baseline cost.
    pub base_cost: f64,
    /// `(label, speedup)` per non-baseline variant, in variant order,
    /// ending with `all`.
    pub speedups: Vec<(String, f64)>,
    /// The winning combination and its speedup (the paper's `best` bar).
    pub best: (String, f64),
}

/// Enumerates variant configurations for `kernel`: the named Figure 8
/// columns, plus (when `exhaustive`) every pattern subset.
pub fn variant_set(kernel: &str, exhaustive: bool) -> Vec<(String, KernelConfig)> {
    match kernel {
        "lcm" => {
            if exhaustive {
                let mut v = Vec::new();
                for lex in [false, true] {
                    for reorg in [false, true] {
                        for pref in [false, true] {
                            for tile in [false, true] {
                                v.push((
                                    combo_label(&[
                                        ("lex", lex),
                                        ("reorg", reorg),
                                        ("pref", pref),
                                        ("tile", tile),
                                    ]),
                                    KernelConfig::Lcm(lcm::LcmConfig {
                                        lex,
                                        aggregate: reorg,
                                        compact_counters: reorg,
                                        prefetch: if pref { 3 } else { 0 },
                                        tile_rows: tile.then_some(0),
                                    }),
                                ));
                            }
                        }
                    }
                }
                v
            } else {
                lcm::variants()
                    .into_iter()
                    .map(|(n, c)| (n.to_string(), KernelConfig::Lcm(c)))
                    .collect()
            }
        }
        "eclat" => {
            if exhaustive {
                let mut v = Vec::new();
                for lex in [false, true] {
                    for simd in [false, true] {
                        v.push((
                            combo_label(&[("lex", lex), ("simd", simd)]),
                            KernelConfig::Eclat(eclat::EclatConfig {
                                lex,
                                zero_escape: lex,
                                popcount: if simd {
                                    Popcount::best()
                                } else {
                                    Popcount::Table16
                                },
                            }),
                        ));
                    }
                }
                v
            } else {
                eclat::variants()
                    .into_iter()
                    .map(|(n, c)| (n.to_string(), KernelConfig::Eclat(c)))
                    .collect()
            }
        }
        "fpgrowth" => {
            if exhaustive {
                let mut v = Vec::new();
                for lex in [false, true] {
                    for reorg in [false, true] {
                        for pref in [false, true] {
                            v.push((
                                combo_label(&[("lex", lex), ("reorg", reorg), ("pref", pref)]),
                                KernelConfig::FpGrowth(fpgrowth::FpConfig {
                                    lex,
                                    adapt: reorg,
                                    aggregate: reorg,
                                    prefetch: pref,
                                }),
                            ));
                        }
                    }
                }
                v
            } else {
                fpgrowth::variants()
                    .into_iter()
                    .map(|(n, c)| (n.to_string(), KernelConfig::FpGrowth(c)))
                    .collect()
            }
        }
        other => panic!("unknown kernel {other:?}"),
    }
}

fn combo_label(parts: &[(&str, bool)]) -> String {
    let on: Vec<&str> = parts.iter().filter(|(_, b)| *b).map(|(n, _)| *n).collect();
    if on.is_empty() {
        "base".to_string()
    } else {
        on.join("+")
    }
}

/// Runs each variant under one costing; returns `(cost, patterns)` per
/// variant, in order.
///
/// Native timing runs one warm-up round over every variant, then `runs`
/// rounds that each time every variant once, and keeps each variant's
/// best. Host drift between rounds then lands on every variant alike,
/// not on whichever variants happened to run while the host was slow.
pub fn run_variants(
    cfgs: &[KernelConfig],
    db: &TransactionDb,
    minsup: u64,
    timing: Timing,
) -> Vec<(f64, u64)> {
    match timing {
        Timing::Native { runs, threads } => {
            let mut measured: Vec<(f64, u64)> = cfgs
                .iter()
                .map(|cfg| (f64::INFINITY, mine_native(cfg, db, minsup, threads)))
                .collect();
            for _ in 0..runs.max(1) {
                for (cfg, (best, _)) in cfgs.iter().zip(&mut measured) {
                    let t = Instant::now();
                    let patterns = mine_native(cfg, db, minsup, threads);
                    *best = best.min(t.elapsed().as_secs_f64());
                    std::hint::black_box(patterns);
                }
            }
            measured
        }
        Timing::Simulated(machine) => cfgs
            .iter()
            .map(|cfg| {
                let (report, patterns) = simulate(cfg, db, minsup, machine);
                (report.cycles, patterns)
            })
            .collect(),
    }
}

/// Mines one variant natively on `threads` workers (`1`: the plain
/// serial kernel); returns the pattern count.
fn mine_native(cfg: &KernelConfig, db: &TransactionDb, minsup: u64, threads: usize) -> u64 {
    let mut sink = CountSink::default();
    if threads == 1 {
        match cfg {
            KernelConfig::Lcm(c) => {
                lcm::mine(db, minsup, c, &mut sink);
            }
            KernelConfig::Eclat(c) => {
                eclat::mine(db, minsup, c, &mut sink);
            }
            KernelConfig::FpGrowth(c) => {
                fpgrowth::mine(db, minsup, c, &mut sink);
            }
        }
    } else {
        exec::MinePlan::new(*cfg, minsup)
            .threads(threads)
            .execute(db, &mut sink);
    }
    sink.count
}

/// Mines one variant under the cache simulator; returns its report and
/// the pattern count.
///
/// The modelled Pentium D and Athlon 64 X2 have SSE2 but no AVX2, so an
/// Eclat variant that counts with AVX2 on this host (`simd` and `all`
/// take `Popcount::best()`) is simulated with SSE2. The simulated
/// Figure 8(c) then charges the same instructions per word on every
/// x86_64 host.
fn simulate(
    cfg: &KernelConfig,
    db: &TransactionDb,
    minsup: u64,
    machine: Machine,
) -> (MemReport, u64) {
    let mut probe = CacheProbe::new(machine);
    let mut sink = CountSink::default();
    match cfg {
        KernelConfig::Lcm(c) => {
            lcm::mine_probed(db, minsup, c, &mut probe, &mut sink);
        }
        KernelConfig::Eclat(c) => {
            let c = match c.popcount {
                Popcount::Avx2 => eclat::EclatConfig {
                    popcount: Popcount::Sse2,
                    ..*c
                },
                _ => *c,
            };
            eclat::mine_probed(db, minsup, &c, &mut probe, &mut sink);
        }
        KernelConfig::FpGrowth(c) => {
            fpgrowth::mine_probed(db, minsup, c, &mut probe, &mut sink);
        }
    }
    (probe.report("variant"), sink.count)
}

/// Runs the full Figure 8 cluster for `kernel` on `dataset`.
pub fn run_cluster(
    kernel: &str,
    dataset: Dataset,
    scale: Scale,
    timing: Timing,
    exhaustive: bool,
) -> Cluster {
    let db = quest::generate_cached(dataset, scale);
    let minsup = dataset.support(scale);
    let (labels, cfgs): (Vec<String>, Vec<KernelConfig>) =
        variant_set(kernel, exhaustive).into_iter().unzip();
    let mut measured: Vec<Measurement> = labels
        .into_iter()
        .zip(run_variants(&cfgs, &db, minsup, timing))
        .map(|(label, (cost, patterns))| Measurement {
            label,
            cost,
            patterns,
        })
        .collect();
    // all variants must agree on the mined pattern count
    let p0 = measured[0].patterns;
    for m in &measured {
        assert_eq!(
            m.patterns, p0,
            "variant {} disagrees on pattern count",
            m.label
        );
    }
    let base = measured
        .iter()
        .find(|m| m.label == "base")
        .expect("baseline present")
        .cost;
    let best = measured
        .iter()
        .filter(|m| m.label != "base")
        .min_by(|a, b| a.cost.partial_cmp(&b.cost).expect("no NaN"))
        .expect("non-baseline variant present");
    let best = (best.label.clone(), base / best.cost);
    measured.retain(|m| m.label != "base");
    Cluster {
        dataset,
        base_cost: base,
        speedups: measured
            .into_iter()
            .map(|m| (m.label, base / m.cost))
            .collect(),
        best,
    }
}

/// Renders a kernel's Figure 8 panel (all four datasets).
pub fn render(kernel: &str, clusters: &[Cluster], timing: Timing) -> String {
    let unit = match timing {
        Timing::Native { .. } => "s (host wall-clock)",
        Timing::Simulated(m) => match m.kind {
            memsim::MachineKind::M1 => "cycles (simulated M1)",
            memsim::MachineKind::M2 => "cycles (simulated M2)",
        },
    };
    let mut out = format!("Figure 8 [{kernel}] — speedup over baseline; baseline in {unit}\n");
    for c in clusters {
        out.push_str(&format!(
            "  {} ({}): base {:.4}\n",
            c.dataset.label(),
            c.dataset.name(),
            c.base_cost
        ));
        for (label, s) in &c.speedups {
            out.push_str(&format!("      {label:<14} {s:>6.3}×\n"));
        }
        out.push_str(&format!(
            "      best = {} at {:.3}×\n",
            c.best.0, c.best.1
        ));
    }
    out
}

/// Renders a kernel's clusters as CSV (`kernel,dataset,variant,speedup,
/// base_cost`) for downstream plotting.
pub fn render_csv(kernel: &str, clusters: &[Cluster]) -> String {
    let mut out = String::from("kernel,dataset,variant,speedup,base_cost\n");
    for c in clusters {
        for (label, s) in &c.speedups {
            out.push_str(&format!(
                "{kernel},{},{label},{s:.4},{:.6}\n",
                c.dataset.label(),
                c.base_cost
            ));
        }
        out.push_str(&format!(
            "{kernel},{},best[{}],{:.4},{:.6}\n",
            c.dataset.label(),
            c.best.0,
            c.best.1,
            c.base_cost
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_sets_have_baselines() {
        for k in ["lcm", "eclat", "fpgrowth"] {
            for ex in [false, true] {
                let v = variant_set(k, ex);
                assert!(v.iter().any(|(n, _)| n == "base"), "{k} ex={ex}");
                assert!(v.len() >= 4, "{k} ex={ex}");
            }
        }
    }

    #[test]
    fn combo_labels() {
        assert_eq!(combo_label(&[("a", false), ("b", false)]), "base");
        assert_eq!(combo_label(&[("a", true), ("b", true)]), "a+b");
    }

    #[test]
    fn cluster_runs_and_agrees() {
        let c = run_cluster(
            "eclat",
            Dataset::Ds1,
            Scale::Smoke,
            Timing::Native { runs: 1, threads: 1 },
            false,
        );
        assert!(c.base_cost > 0.0);
        assert_eq!(c.speedups.len(), 3); // lex, simd, all
        assert!(c.best.1 > 0.0);
    }

    #[test]
    fn simulated_eclat_counts_with_sse2_on_every_host() {
        let mut s = 5u64;
        let db = TransactionDb::from_transactions(
            (0..1000)
                .map(|_| {
                    (0..16u32)
                        .filter(|_| {
                            s ^= s << 13;
                            s ^= s >> 7;
                            s ^= s << 17;
                            s.is_multiple_of(3)
                        })
                        .collect()
                })
                .collect(),
        );
        let minsup = 40;
        for (name, cfg) in variant_set("eclat", false) {
            let KernelConfig::Eclat(c) = cfg else {
                unreachable!("eclat variants")
            };
            if name != "simd" && name != "all" {
                continue;
            }
            let instructions = |popcount| {
                let cfg = KernelConfig::Eclat(eclat::EclatConfig { popcount, ..c });
                simulate(&cfg, &db, minsup, Machine::m1()).0.instructions
            };
            let sse2 = instructions(Popcount::Sse2);
            assert_eq!(instructions(Popcount::Avx2), sse2, "{name}");
            assert_eq!(instructions(c.popcount), sse2, "{name}");
        }
    }

    #[test]
    fn parallel_cluster_counts_match_serial() {
        // The pattern-count cross-check inside run_cluster applies to the
        // parallel path too: pattern counts per variant must be identical
        // to the serial run's for every kernel.
        for k in ["lcm", "eclat", "fpgrowth"] {
            let serial = run_cluster(
                k,
                Dataset::Ds1,
                Scale::Smoke,
                Timing::Native { runs: 1, threads: 1 },
                false,
            );
            let parallel = run_cluster(
                k,
                Dataset::Ds1,
                Scale::Smoke,
                Timing::Native { runs: 1, threads: 4 },
                false,
            );
            assert_eq!(
                serial.speedups.len(),
                parallel.speedups.len(),
                "{k}: variant sets must match"
            );
        }
    }
}
