//! Figure 8 bench for the eclat kernel: every named variant on every
//! dataset (smoke scale — the `repro fig8` binary runs larger scales).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fpm::CountSink;
use exec::KernelConfig;
use fpm_bench::fig8::variant_set;
use quest::{Dataset, Scale};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig8_eclat");
    g.sample_size(10);
    // DS1 and DS4 are the two extremes the paper's analysis contrasts
    // (clustered synthetic vs sparse scattered); the `repro fig8` binary
    // covers all four datasets.
    for ds in [Dataset::Ds1, Dataset::Ds4] {
        let db = ds.generate(Scale::Smoke);
        let minsup = ds.support(Scale::Smoke);
        for (label, cfg) in variant_set("eclat", false) {
            g.bench_with_input(
                BenchmarkId::new(ds.label(), &label),
                &cfg,
                |b, cfg| {
                    b.iter(|| {
                        let mut sink = CountSink::default();
                        match cfg {
                            KernelConfig::Lcm(c) => {
                                lcm::mine(&db, minsup, c, &mut sink);
                            }
                            KernelConfig::Eclat(c) => {
                                eclat::mine(&db, minsup, c, &mut sink);
                            }
                            KernelConfig::FpGrowth(c) => {
                                fpgrowth::mine(&db, minsup, c, &mut sink);
                            }
                        }
                        sink.count
                    })
                },
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
