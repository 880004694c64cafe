//! Representation lab: the paper's Feature 1/Feature 2 design space
//! (§3.3) measured live — dense bit matrix vs diffsets vs hybrid
//! per-chunk containers across inputs of very different density, plus
//! what the density chooser picks for the cut, which is the columns the
//! served Eclat spine mines.
//!
//! ```sh
//! cargo run --release --example representation_lab
//! ```

use also_fpm::also::adapt::choose_repr;
use also_fpm::eclat::tidlist::{self, SparseRepr};
use also_fpm::eclat::{self, EclatConfig};
use also_fpm::fpm::{CountSink, TransactionDb};
use also_fpm::quest;
use std::time::Instant;

fn bench(label: &str, db: &TransactionDb, minsup: u64) {
    let ranked = also_fpm::fpm::remap(db, minsup);
    let nnz: u64 = ranked.transactions.iter().map(|t| t.len() as u64).sum();
    let density = if ranked.transactions.is_empty() {
        0.0
    } else {
        nnz as f64 / (ranked.transactions.len() as f64 * ranked.n_ranks().max(1) as f64)
    };
    // Prefix sharing is the tree miner's business: Eclat passes 1.0.
    let chosen = choose_repr(ranked.transactions.len(), ranked.n_ranks(), nnz, 1.0);
    println!(
        "== {label}: {} transactions, {} frequent items, density {density:.4} ==",
        ranked.transactions.len(),
        ranked.n_ranks()
    );

    let t = Instant::now();
    let mut s = CountSink::default();
    eclat::mine(db, minsup, &EclatConfig::all(), &mut s);
    let bits_time = t.elapsed().as_secs_f64();
    println!("   bit matrix     {:>8} patterns  {bits_time:.3}s", s.count);

    let t = Instant::now();
    let mut s2 = CountSink::default();
    let st = tidlist::mine(db, minsup, SparseRepr::Diffsets, &mut s2);
    println!(
        "   diffsets       {:>8} patterns  {:.3}s  ({} elements moved)",
        s2.count,
        t.elapsed().as_secs_f64(),
        st.elements_out
    );

    let t = Instant::now();
    let mut s3 = CountSink::default();
    let st = tidlist::mine(db, minsup, SparseRepr::Hybrid, &mut s3);
    println!(
        "   hybrid chunks  {:>8} patterns  {:.3}s  ({} elements moved)",
        s3.count,
        t.elapsed().as_secs_f64(),
        st.elements_out
    );
    assert_eq!(s.count, s2.count);
    assert_eq!(s.count, s3.count);

    println!("   chooser picks: {chosen:?}\n");
}

fn main() {
    // Dense end: mushroom-like attribute-value data at 30% support.
    let mushroom = quest::dense::generate(&quest::dense::DenseParams::mushroom_like());
    let sup = (mushroom.len() as u64) * 3 / 10;
    bench("mushroom-like (dense)", &mushroom, sup);

    // Middle: Quest market baskets at 1%.
    let basket = quest::quest_generate(&quest::QuestParams {
        n_transactions: 20_000,
        avg_transaction_len: 10.0,
        avg_pattern_len: 4.0,
        n_items: 500,
        n_patterns: 300,
        ..quest::QuestParams::default()
    });
    bench("market baskets (medium)", &basket, 200);

    // Sparse end: AP-like newswire at a low absolute support.
    let ap = quest::ap::generate(&quest::ap::ApParams {
        n_transactions: 30_000,
        n_items: 8_000,
        ..quest::ap::ApParams::default()
    });
    bench("AP-like (sparse)", &ap, 60);

    println!("Reading: diffsets move the least data on the dense end; below the");
    println!("bit matrix's speed crossover (1/192 dense) the chooser flips to hybrid");
    println!("chunks, which decide per 2^16-tid chunk: u16 arrays where sparse,");
    println!("bitmaps where dense, runs where clustered (DESIGN.md §7, §16).");
}
