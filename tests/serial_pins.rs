//! Pins the serial kernel entries behind the paper's Figure 2 and
//! Figure 8 numbers: every Figure 8 variant of LCM, FP-Growth and
//! bit-matrix Eclat, plus the sparse Eclat miners, on one fixed
//! pseudo-random database.
//!
//! Each row asserts the returned work counters, the probe's event counts
//! ([`TraceRecorder::summary`]), the summed lengths of the probed reads
//! and writes, and an FNV digest of the emitted bytes. None of these
//! depends on heap addresses, so two processes of one binary agree on
//! every row. Simulated cycles do depend on addresses and are not pinned.

use chaos::goldens::fnv;
use fpm::{RecordSink, TransactionDb};
use memsim::trace::{Event, TraceRecorder};

/// 600 rows over 24 items: item `i` appears with probability about
/// `(24 - i) / 32`, so low ids are dense and high ids sparse.
fn db() -> TransactionDb {
    let mut s = 0x9e37_79b9_7f4a_7c15u64;
    let mut rnd = || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    TransactionDb::from_transactions(
        (0..600)
            .map(|_| {
                (0..24u32)
                    .filter(|&i| rnd() % 32 < u64::from(24 - i))
                    .collect()
            })
            .collect(),
    )
}

const MINSUP: u64 = 40;

/// What one serial run leaves behind.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    label: String,
    stats: Vec<u64>,
    /// `(reads, dep_reads, writes, instructions, prefetches)`.
    events: (u64, u64, u64, u64, u64),
    /// Summed lengths of the probed reads (dependent ones included) and
    /// writes.
    bytes: (u64, u64),
    digest: u64,
}

fn observe(
    label: String,
    run: impl FnOnce(&mut TraceRecorder, &mut RecordSink) -> Vec<u64>,
) -> Pin {
    let mut probe = TraceRecorder::new();
    let mut sink = RecordSink::default();
    let stats = run(&mut probe, &mut sink);
    let (mut read, mut written) = (0u64, 0u64);
    for e in &probe.events {
        match *e {
            Event::Read(_, l) | Event::ReadDep(_, l) => read += u64::from(l),
            Event::Write(_, l) => written += u64::from(l),
            Event::Instr(_) | Event::Prefetch(_) => {}
        }
    }
    Pin {
        label,
        stats,
        events: probe.summary(),
        bytes: (read, written),
        digest: fnv(&sink.bytes),
    }
}

fn observed(db: &TransactionDb) -> Vec<Pin> {
    let mut rows = Vec::new();
    for (name, cfg) in lcm::variants() {
        rows.push(observe(format!("lcm/{name}"), |p, s| {
            let st = lcm::mine_probed(db, MINSUP, &cfg, p, s);
            vec![
                st.nodes,
                st.occ_entries,
                st.items_counted,
                st.trans_merged,
                st.emitted,
            ]
        }));
    }
    for (name, cfg) in fpgrowth::variants() {
        rows.push(observe(format!("fpgrowth/{name}"), |p, s| {
            let st = fpgrowth::mine_probed(db, MINSUP, &cfg, p, s);
            vec![
                st.trees_built,
                st.nodes_built,
                st.chain_nodes,
                st.path_levels,
                st.emitted,
            ]
        }));
    }
    for (name, cfg) in eclat::variants() {
        rows.push(observe(format!("eclat/{name}"), |p, s| {
            let st = eclat::mine_probed(db, MINSUP, &cfg, p, s);
            vec![
                st.intersections,
                st.words_processed,
                st.words_skipped,
                st.short_circuits,
            ]
        }));
    }
    for (name, repr) in [
        ("hybrid", eclat::tidlist::SparseRepr::Hybrid),
        ("diffsets", eclat::tidlist::SparseRepr::Diffsets),
    ] {
        rows.push(observe(format!("eclat-sparse/{name}"), |p, s| {
            let st = eclat::tidlist::mine_probed(db, MINSUP, repr, p, s);
            vec![st.set_ops, st.elements_out, st.elements_in]
        }));
    }
    rows
}

/// The expected rows, as `(label, stats, events, bytes, digest)`.
type Row = (
    &'static str,
    &'static [u64],
    (u64, u64, u64, u64, u64),
    (u64, u64),
    u64,
);

#[rustfmt::skip]
const PINS: &[Row] = &[
    ("lcm/base", &[442, 138925, 331636, 22398, 2619], (372421, 191340, 522976, 4842270, 0), (5787320, 3974148), 0x5569361f8107b2ae),
    ("lcm/lex", &[442, 138925, 331636, 22398, 2619], (373755, 191340, 523576, 4903324, 0), (5815980, 3997056), 0x5569361f8107b2ae),
    ("lcm/reorg", &[442, 138925, 331636, 22398, 2619], (372421, 162567, 522976, 4669632, 0), (5577660, 2647604), 0x5569361f8107b2ae),
    ("lcm/pref", &[442, 138925, 331636, 22398, 2619], (372421, 191340, 522976, 4842270, 262608), (5787320, 3974148), 0x5569361f8107b2ae),
    ("lcm/tile", &[442, 138925, 331636, 22398, 2619], (372421, 191340, 522976, 4858544, 0), (5787320, 3709112), 0x5569361f8107b2ae),
    ("lcm/all", &[442, 138925, 331636, 22398, 2619], (373755, 162567, 523576, 4746960, 230546), (5606320, 2670512), 0x5569361f8107b2ae),
    ("fpgrowth/base", &[1026, 20048, 20048, 74902, 2619], (0, 194612, 56241, 1558052, 0), (2677448, 625924), 0x716c606656e7ecfa),
    ("fpgrowth/lex", &[1026, 20048, 20048, 74902, 2619], (600, 142413, 56841, 1302128, 0), (2491560, 648832), 0x716c606656e7ecfa),
    ("fpgrowth/reorg", &[1026, 20048, 20048, 74902, 2619], (20048, 153353, 56241, 1429838, 0), (1097320, 625924), 0x716c606656e7ecfa),
    ("fpgrowth/pref", &[1026, 20048, 20048, 74902, 2619], (0, 194612, 56241, 1558052, 13173), (2677448, 625924), 0x716c606656e7ecfa),
    ("fpgrowth/all", &[1026, 20048, 20048, 74902, 2619], (20648, 101154, 56841, 1173914, 13173), (911432, 648832), 0x716c606656e7ecfa),
    ("eclat/base", &[10592, 169472, 0, 0], (699072, 0, 10592, 2542080, 0), (3389440, 1355776), 0x5569361f8107b2ae),
    ("eclat/lex", &[10592, 91351, 78121, 0], (387188, 0, 11192, 1427535, 0), (1849928, 753716), 0x5569361f8107b2ae),
    ("eclat/simd", &[10592, 169472, 0, 0], (21184, 0, 10592, 338944, 0), (2711552, 1355776), 0x5569361f8107b2ae),
    ("eclat/all", &[10592, 91351, 78121, 0], (21784, 0, 11192, 239972, 0), (1484524, 753716), 0x5569361f8107b2ae),
    ("eclat-sparse/hybrid", &[10550, 364616, 1830966], (26248, 0, 10571, 2302317, 0), (3733050, 730078), 0x5569361f8107b2ae),
    ("eclat-sparse/diffsets", &[10592, 729229, 2787653], (21184, 0, 10592, 8362959, 0), (11150612, 2916916), 0x5569361f8107b2ae),
];

#[test]
fn serial_entries_match_their_pinned_counters_traces_and_bytes() {
    let mut got = observed(&db());
    // Eclat's `simd` and `all` count with `Popcount::best()`, whose
    // modelled instructions per word depend on the CPU: their pinned
    // instruction counts are AVX2's, and hold only where AVX2 runs.
    if !also::simd::Popcount::Avx2.is_available() {
        for (row, pin) in got.iter_mut().zip(PINS) {
            if row.label == "eclat/simd" || row.label == "eclat/all" {
                row.events.3 = pin.2 .3;
            }
        }
    }
    let want: Vec<Pin> = PINS
        .iter()
        .map(|&(label, stats, events, bytes, digest)| Pin {
            label: label.to_string(),
            stats: stats.to_vec(),
            events,
            bytes,
            digest,
        })
        .collect();
    if got != want {
        // Print the observed table in the literal syntax of `PINS`, so a
        // deliberate change to a kernel's work can be re-pinned.
        let table: String = got
            .iter()
            .map(|p| {
                format!(
                    "    ({:?}, &{:?}, {:?}, {:?}, {:#x}),\n",
                    p.label, p.stats, p.events, p.bytes, p.digest
                )
            })
            .collect();
        panic!("serial runs moved off their pins; observed:\n{table}");
    }
}
