//! Dense UCI-style benchmark stand-ins: `chess` and `mushroom`.
//!
//! The FIMI repositories pair the sparse market-basket data with two
//! famously *dense* inputs — Chess (3 196 transactions × 75 items, every
//! transaction exactly 37 items, ≈49% density) and Mushroom (8 124 × 119,
//! uniform length 23). Dense inputs stress the opposite end of the
//! representation spectrum from AP: vertical bit matrices dominate,
//! diffsets shine, and prefix trees compress massively. The generators
//! here match those shapes (attribute-value encoding: each transaction
//! picks one value per attribute), giving the representation-adaptation
//! machinery (`also::adapt::choose_repr`, which picks the served Eclat
//! spine's columns) realistic dense targets without redistributing UCI
//! data.

use fpm::TransactionDb;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the attribute-value dense generator.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseParams {
    /// Number of transactions.
    pub n_transactions: usize,
    /// Number of attributes (= transaction length; every transaction has
    /// exactly one item per attribute).
    pub n_attributes: usize,
    /// Values per attribute (item universe = `n_attributes × n_values`).
    pub n_values: usize,
    /// Skew of the per-attribute value distribution: probability of the
    /// attribute's *dominant* value. High skew ⇒ long shared prefixes and
    /// strong frequent structure, like real classification data.
    pub dominant_p: f64,
    /// RNG seed.
    pub seed: u64,
}

impl DenseParams {
    /// Chess-like: 3 196 × 37 attributes × 2 values, heavily skewed.
    pub fn chess_like() -> Self {
        DenseParams {
            n_transactions: 3_196,
            n_attributes: 37,
            n_values: 2,
            dominant_p: 0.8,
            seed: 1989,
        }
    }

    /// Mushroom-like: 8 124 × 23 attributes × ~5 values.
    pub fn mushroom_like() -> Self {
        DenseParams {
            n_transactions: 8_124,
            n_attributes: 23,
            n_values: 5,
            dominant_p: 0.6,
            seed: 8124,
        }
    }
}

/// Generates the dense attribute-value database. Item id of attribute
/// `a` taking value `v` is `a * n_values + v`. Deterministic in the seed.
pub fn generate(p: &DenseParams) -> TransactionDb {
    let mut rng = StdRng::seed_from_u64(p.seed);
    let mut transactions = Vec::with_capacity(p.n_transactions);
    // Per attribute, a random permutation of values decides which is
    // dominant; the rest split the remainder geometrically.
    let dominant: Vec<usize> = (0..p.n_attributes)
        .map(|_| rng.random_range(0..p.n_values))
        .collect();
    for _ in 0..p.n_transactions {
        let mut t = Vec::with_capacity(p.n_attributes);
        for (a, &dom) in dominant.iter().enumerate() {
            let v = if rng.random::<f64>() < p.dominant_p {
                dom
            } else {
                // uniform over the non-dominant values (or the dominant
                // again when n_values == 1)
                let mut v = rng.random_range(0..p.n_values);
                if v == dom && p.n_values > 1 {
                    v = (v + 1) % p.n_values;
                }
                v
            };
            t.push((a * p.n_values + v) as u32);
        }
        transactions.push(t);
    }
    TransactionDb::from_transactions(transactions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chess_shape() {
        let db = generate(&DenseParams::chess_like());
        assert_eq!(db.len(), 3_196);
        // every transaction has exactly one item per attribute
        assert!(db.transactions().iter().all(|t| t.len() == 37));
        let density = db.nnz() as f64 / (db.len() as f64 * db.n_items() as f64);
        assert!(density > 0.3, "chess-like density {density}");
    }

    #[test]
    fn mushroom_shape() {
        let db = generate(&DenseParams::mushroom_like());
        assert_eq!(db.len(), 8_124);
        assert!(db.transactions().iter().all(|t| t.len() == 23));
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            generate(&DenseParams::chess_like()),
            generate(&DenseParams::chess_like())
        );
    }

    #[test]
    fn dense_inputs_choose_bit_matrix() {
        let db = generate(&DenseParams::mushroom_like());
        let ranked = fpm::remap(&db, db.len() as u64 / 5);
        let nnz: u64 = ranked.transactions.iter().map(|t| t.len() as u64).sum();
        let repr = also::adapt::choose_repr(
            ranked.transactions.len(),
            ranked.n_ranks(),
            nnz,
            1.0,
        );
        assert_eq!(repr, also::adapt::Repr::VerticalBits);
    }

    #[test]
    fn dominant_values_are_frequent() {
        let p = DenseParams::chess_like();
        let db = generate(&p);
        let ranked = fpm::remap(&db, 1);
        // the most frequent item should appear in ~dominant_p of rows
        let top = ranked.map.support(0) as f64 / db.len() as f64;
        assert!(top > 0.7, "top item frequency {top}");
    }

    #[test]
    fn prefix_sharing_is_high() {
        // Skewed attribute values ⇒ long shared prefixes once the
        // database is rank-remapped and lexicographically ordered (the
        // precondition for FP-tree compression). Full transactions stay
        // mostly distinct — like the real chess data.
        let db = generate(&DenseParams::chess_like());
        let ranked = fpm::remap(&db, 1);
        let mut ts = ranked.transactions;
        also::lexorder::lex_order(&mut ts);
        let mut shared = 0usize;
        let mut total = 0usize;
        for w in ts.windows(2) {
            let common = w[0]
                .iter()
                .zip(&w[1])
                .take_while(|(a, b)| a == b)
                .count();
            shared += common;
            total += w[1].len();
        }
        let frac = shared as f64 / total as f64;
        assert!(frac > 0.25, "consecutive shared-prefix fraction {frac}");
    }
}
