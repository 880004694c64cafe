//! Ablation benches for the design choices DESIGN.md §6 calls out:
//!
//! * `supernode_size` — aggregation chunk capacity (paper: one cache
//!   line is optimal);
//! * `tile_size` — LCM tile rows (paper: fit L1);
//! * `wavefront_distance` — prefetch depth (paper Figure 5 uses 3);
//! * `fptree_node_layout` — AoS vs delta-encoded traversal (P2);
//! * `threads_{lcm,eclat,fpgrowth}` — `MinePlan::threads`: the serial
//!   path at 1, the `fpm-par` work-stealing runtime above (thread-scaling
//!   of the shared scheduler).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use also::aggregate::{ChunkPool, ChunkedList};
use fpm::CountSink;
use quest::{Dataset, Scale};

/// Builds many short chunked lists and times a full traversal — the
/// rm_dup_trans access pattern — for one chunk capacity `K`.
fn chunked_traverse<const K: usize>(n_lists: usize, per_list: usize) -> u64 {
    let mut pool: ChunkPool<u32, K> = ChunkPool::with_capacity(n_lists * per_list);
    let mut lists = vec![ChunkedList::new(); n_lists];
    // interleave pushes so chunks of one list are NOT adjacent (the
    // realistic bucket-fill order)
    for round in 0..per_list {
        for (li, l) in lists.iter_mut().enumerate() {
            l.push(&mut pool, (round * n_lists + li) as u32);
        }
    }
    let mut sum = 0u64;
    for l in &lists {
        l.for_each(&pool, |v| sum = sum.wrapping_add(v as u64));
    }
    std::hint::black_box(sum)
}

fn bench_supernode(c: &mut Criterion) {
    let mut g = c.benchmark_group("supernode_size");
    g.sample_size(20);
    // capacities ≈ 32 B, 64 B (one line), 128 B, 256 B supernodes
    g.bench_function("32B(k=6)", |b| b.iter(|| chunked_traverse::<6>(4096, 12)));
    g.bench_function("64B(k=14)", |b| b.iter(|| chunked_traverse::<14>(4096, 12)));
    g.bench_function("128B(k=30)", |b| b.iter(|| chunked_traverse::<30>(4096, 12)));
    g.bench_function("256B(k=62)", |b| b.iter(|| chunked_traverse::<62>(4096, 12)));
    g.finish();
}

fn bench_tile(c: &mut Criterion) {
    // DS4 keeps single iterations fast; the tile-size *shape* (overhead
    // at tiny tiles, flat beyond cache) is scale-free.
    let db = Dataset::Ds4.generate(Scale::Smoke);
    let minsup = Dataset::Ds4.support(Scale::Smoke);
    let mut g = c.benchmark_group("tile_size");
    g.sample_size(10);
    for rows in [64usize, 256, 1024, 4096] {
        g.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, &rows| {
            let cfg = lcm::LcmConfig {
                tile_rows: Some(rows),
                ..lcm::LcmConfig::baseline()
            };
            b.iter(|| {
                let mut sink = CountSink::default();
                lcm::mine(&db, minsup, &cfg, &mut sink);
                sink.count
            })
        });
    }
    g.finish();
}

fn bench_wavefront(c: &mut Criterion) {
    let db = Dataset::Ds4.generate(Scale::Smoke);
    let minsup = Dataset::Ds4.support(Scale::Smoke);
    let mut g = c.benchmark_group("wavefront_distance");
    g.sample_size(10);
    for dist in [0usize, 1, 3, 6] {
        g.bench_with_input(BenchmarkId::from_parameter(dist), &dist, |b, &dist| {
            let cfg = lcm::LcmConfig {
                prefetch: dist,
                ..lcm::LcmConfig::baseline()
            };
            b.iter(|| {
                let mut sink = CountSink::default();
                lcm::mine(&db, minsup, &cfg, &mut sink);
                sink.count
            })
        });
    }
    g.finish();
}

fn bench_node_layout(c: &mut Criterion) {
    let db = Dataset::Ds4.generate(Scale::Smoke);
    let minsup = Dataset::Ds4.support(Scale::Smoke);
    let mut g = c.benchmark_group("fptree_node_layout");
    g.sample_size(10);
    for (name, cfg) in [
        ("aos24", fpgrowth::FpConfig::baseline()),
        (
            "delta5",
            fpgrowth::FpConfig {
                adapt: true,
                ..fpgrowth::FpConfig::baseline()
            },
        ),
        (
            "delta5+agg",
            fpgrowth::FpConfig {
                adapt: true,
                aggregate: true,
                ..fpgrowth::FpConfig::baseline()
            },
        ),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut sink = CountSink::default();
                fpgrowth::mine(&db, minsup, &cfg, &mut sink);
                sink.count
            })
        });
    }
    g.finish();
}

fn bench_threads(c: &mut Criterion) {
    let db = Dataset::Ds1.generate(Scale::Smoke);
    let minsup = Dataset::Ds1.support(Scale::Smoke);
    let kernels: [(&str, exec::KernelConfig); 3] = [
        ("threads_lcm", exec::KernelConfig::Lcm(lcm::LcmConfig::all())),
        (
            "threads_eclat",
            exec::KernelConfig::Eclat(eclat::EclatConfig::all()),
        ),
        (
            "threads_fpgrowth",
            exec::KernelConfig::FpGrowth(fpgrowth::FpConfig::all()),
        ),
    ];
    for (group, cfg) in kernels {
        let mut g = c.benchmark_group(group);
        g.sample_size(10);
        for threads in [1usize, 2, 4, 8] {
            g.bench_with_input(
                BenchmarkId::from_parameter(threads),
                &threads,
                |b, &threads| {
                    let plan = exec::MinePlan::new(cfg, minsup).threads(threads);
                    b.iter(|| {
                        let mut sink = CountSink::default();
                        plan.execute(&db, &mut sink);
                        sink.count
                    })
                },
            );
        }
        g.finish();
    }
}

criterion_group!(
    benches,
    bench_supernode,
    bench_tile,
    bench_wavefront,
    bench_node_layout,
    bench_threads
);
criterion_main!(benches);
