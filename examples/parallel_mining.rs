//! Parallel mining demo: the ALSO patterns compose with thread-level
//! parallelism (DESIGN.md §7) because the lattice below different
//! first items is disjoint — workers share only the read-only root
//! structure (LCM: projection; Eclat: vertical bit matrix; FP-Growth:
//! FP-tree) and all three kernels run on the same `fpm-par`
//! work-stealing scheduler, driven through one [`MinePlan`].
//!
//! ```sh
//! cargo run --release --example parallel_mining [threads]
//! ```
//!
//! [`MinePlan`]: also_fpm::exec::MinePlan

use also_fpm::exec::MinePlan;
use also_fpm::fpm::{CollectSink, ItemsetCount, TransactionDb};
use also_fpm::quest::{Dataset, Scale};
use also_fpm::{eclat, fpgrowth, lcm};
use std::time::Instant;

fn report(
    name: &str,
    label: &str,
    db: &TransactionDb,
    minsup: u64,
    threads: usize,
    serial: impl Fn(&TransactionDb, u64, &mut CollectSink),
) {
    let t = Instant::now();
    let mut sink = CollectSink::default();
    serial(db, minsup, &mut sink);
    let expect = also_fpm::fpm::types::canonicalize(sink.patterns);
    let t_seq = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let got: Vec<ItemsetCount> = {
        let mut sink = CollectSink::default();
        MinePlan::by_label(label, minsup)
            .expect("known kernel")
            .threads(threads)
            .execute(db, &mut sink);
        also_fpm::fpm::types::canonicalize(sink.patterns)
    };
    let t_par = t.elapsed().as_secs_f64();

    assert_eq!(expect, got, "{name}: parallel must match serial");
    println!(
        "{name:10} {:6} patterns  serial {t_seq:.3}s  parallel {t_par:.3}s  ({:.2}×)",
        got.len(),
        t_seq / t_par.max(1e-9),
    );
}

fn main() {
    let threads: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0); // 0 = auto-detect
    let db = Dataset::Ds1.generate(Scale::Smoke);
    let minsup = Dataset::Ds1.support(Scale::Smoke);
    let workers = match threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };
    println!(
        "mining {} transactions at minsup {minsup} with {workers} worker(s)",
        db.len()
    );

    report("lcm", "lcm", &db, minsup, threads, |db, ms, sink| {
        lcm::mine(db, ms, &lcm::LcmConfig::all(), sink);
    });
    report("eclat", "eclat", &db, minsup, threads, |db, ms, sink| {
        eclat::mine(db, ms, &eclat::EclatConfig::all(), sink);
    });
    report("fp-growth", "fpgrowth", &db, minsup, threads, |db, ms, sink| {
        fpgrowth::mine(db, ms, &fpgrowth::FpConfig::all(), sink);
    });
    println!("all three kernels: parallel results identical to serial");
}
