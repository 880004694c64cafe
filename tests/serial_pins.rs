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
//!
//! A second table pins the query answers the service derives from a
//! served kernel's serial All set (DESIGN.md §15): the answer's length
//! and an FNV digest of its bytes, per query and input.

use chaos::goldens::fnv;
use fpm::{
    CollectSink, Kernel, MineKind, PatternQuery, PatternSink, RecordSink, RuleSpec, TransactionDb,
};
use memsim::trace::{Event, TraceRecorder};
use quest::{Dataset, Scale};

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
    ("fpgrowth/base", &[1026, 20048, 20047, 74902, 2619], (0, 194611, 56241, 1558042, 0), (2677424, 625924), 0x716c606656e7ecfa),
    ("fpgrowth/lex", &[1026, 20048, 20047, 74902, 2619], (600, 142412, 56841, 1302118, 0), (2491536, 648832), 0x716c606656e7ecfa),
    ("fpgrowth/reorg", &[1026, 20048, 20047, 74902, 2619], (20047, 153351, 56241, 1429814, 0), (1097296, 625924), 0x716c606656e7ecfa),
    ("fpgrowth/pref", &[1026, 20048, 20047, 74902, 2619], (0, 194611, 56241, 1558042, 13173), (2677424, 625924), 0x716c606656e7ecfa),
    ("fpgrowth/all", &[1026, 20048, 20047, 74902, 2619], (20647, 101152, 56841, 1173890, 13173), (911408, 648832), 0x716c606656e7ecfa),
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

/// The queries pinned on every input: the two classes, a top-k, a rules
/// filter, and the composed query of CI's query-conformance job.
fn queries() -> [(&'static str, PatternQuery); 5] {
    [
        ("closed", PatternQuery::class(MineKind::Closed)),
        ("maximal", PatternQuery::class(MineKind::Maximal)),
        ("top32", PatternQuery::all().top_k(32)),
        (
            "rules(c0.9)",
            PatternQuery::all().rules(RuleSpec::confidence(0.9)),
        ),
        (
            "closed+rules(c0.5,l1)+top10",
            PatternQuery::class(MineKind::Closed)
                .rules(RuleSpec {
                    min_confidence: 0.5,
                    min_lift: 1.0,
                })
                .top_k(10),
        ),
    ]
}

/// The served All sets the queries run on: LCM on each smoke dataset at
/// query-sessions' lowest supports (DS3 at 850), and FP-Growth and
/// Eclat, whose serial orders differ from LCM's, on DS4.
const QUERY_INPUTS: &[(Kernel, Dataset, u64)] = &[
    (Kernel::Lcm, Dataset::Ds1, 64),
    (Kernel::Lcm, Dataset::Ds2, 70),
    (Kernel::Lcm, Dataset::Ds3, 850),
    (Kernel::Lcm, Dataset::Ds4, 36),
    (Kernel::FpGrowth, Dataset::Ds4, 54),
    (Kernel::Eclat, Dataset::Ds4, 54),
];

/// The expected query answers, as `(label, length, digest)`.
#[rustfmt::skip]
const QUERY_PINS: &[(&str, usize, u64)] = &[
    ("lcm/DS1@64/closed", 3094, 0xd027190bc7cb6d6b),
    ("lcm/DS1@64/maximal", 1786, 0x9e713fa8f2ebad2a),
    ("lcm/DS1@64/top32", 32, 0x451df802cac13fee),
    ("lcm/DS1@64/rules(c0.9)", 3357, 0xd323069139be7bc5),
    ("lcm/DS1@64/closed+rules(c0.5,l1)+top10", 10, 0x58533fc4d0678139),
    ("lcm/DS2@70/closed", 4944, 0xcaaa601d150c70b2),
    ("lcm/DS2@70/maximal", 2241, 0x13db6c2e3fcee4f4),
    ("lcm/DS2@70/top32", 32, 0x596820f97254796f),
    ("lcm/DS2@70/rules(c0.9)", 2281, 0x78430c509a4184d1),
    ("lcm/DS2@70/closed+rules(c0.5,l1)+top10", 10, 0x1bf226c1841fa142),
    ("lcm/DS3@850/closed", 35, 0xa442ba1b83b6f3d4),
    ("lcm/DS3@850/maximal", 14, 0xebcccf30fcd974db),
    ("lcm/DS3@850/top32", 32, 0x5f25f06ea1b3e3cd),
    ("lcm/DS3@850/rules(c0.9)", 6, 0xf56774747f3d08fe),
    ("lcm/DS3@850/closed+rules(c0.5,l1)+top10", 10, 0x724670336e3b734b),
    ("lcm/DS4@36/closed", 7750, 0xf44b29d72c5d314c),
    ("lcm/DS4@36/maximal", 2325, 0x5fe9b4f6511db9f4),
    ("lcm/DS4@36/top32", 32, 0x5631b223c2e7709c),
    ("lcm/DS4@36/rules(c0.9)", 1722, 0xdfca25785fd99a48),
    ("lcm/DS4@36/closed+rules(c0.5,l1)+top10", 10, 0xeefa306d24f00b52),
    ("fpgrowth/DS4@54/closed", 4040, 0x7d376ad661e2dd02),
    ("fpgrowth/DS4@54/maximal", 1286, 0x555bcaf80c54879b),
    ("fpgrowth/DS4@54/top32", 32, 0x5631b223c2e7709c),
    ("fpgrowth/DS4@54/rules(c0.9)", 718, 0x59dfd6e4f97a1ecd),
    ("fpgrowth/DS4@54/closed+rules(c0.5,l1)+top10", 10, 0xeefa306d24f00b52),
    ("eclat/DS4@54/closed", 4040, 0x86b4ba5391802126),
    ("eclat/DS4@54/maximal", 1286, 0xf63aab9aa89ccadd),
    ("eclat/DS4@54/top32", 32, 0x5631b223c2e7709c),
    ("eclat/DS4@54/rules(c0.9)", 718, 0x20d1dc13207caf45),
    ("eclat/DS4@54/closed+rules(c0.5,l1)+top10", 10, 0xeefa306d24f00b52),
];

#[test]
fn served_query_answers_match_their_pinned_bytes() {
    let mut got = Vec::new();
    for &(kernel, dataset, minsup) in QUERY_INPUTS {
        let db = dataset.generate(Scale::Smoke);
        let mut all = CollectSink::default();
        exec::MinePlan::kernel(kernel, minsup).execute(&db, &mut all);
        for (name, query) in queries() {
            let answer = query.apply(all.patterns.clone(), db.len() as u64);
            let mut sink = RecordSink::default();
            for p in &answer {
                sink.emit(&p.items, p.support);
            }
            let label = format!("{}/{}@{minsup}/{name}", kernel.label(), dataset.label());
            got.push((label, answer.len(), fnv(&sink.bytes)));
        }
    }
    let want: Vec<(String, usize, u64)> = QUERY_PINS
        .iter()
        .map(|&(label, len, digest)| (label.to_string(), len, digest))
        .collect();
    if got != want {
        let table: String = got
            .iter()
            .map(|(label, len, digest)| format!("    ({label:?}, {len}, {digest:#x}),\n"))
            .collect();
        panic!("query answers moved off their pins; observed:\n{table}");
    }
}
