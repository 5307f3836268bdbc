//! Criterion bench: the directed random-walk probability between two
//! references' sorted forward and backward sets (§2.4).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use relgraph::{directed_walk, NodeId, WeightedSet};
use std::hint::black_box;

/// One reference's `(forward, backward)` sets over nodes `start..start + len`.
fn make_sets(start: u32, len: u32) -> (WeightedSet, WeightedSet) {
    let weight = |n: u32| 1.0 / (n - start + 1) as f64;
    let fwd = (start..start + len)
        .map(|n| (NodeId(n), weight(n)))
        .collect();
    let bwd = (start..start + len)
        .map(|n| (NodeId(n), weight(n) * 0.5))
        .collect();
    (fwd, bwd)
}

fn bench_walk(c: &mut Criterion) {
    let mut group = c.benchmark_group("directed_walk");
    for &n in &[10u32, 100, 1000] {
        let a = make_sets(0, n);
        let b = make_sets(n / 2, n);
        group.bench_with_input(BenchmarkId::new("half_overlap", n), &n, |bench, _| {
            bench.iter(|| black_box(directed_walk(black_box(&a.0), black_box(&b.1))))
        });
        // Unequal supports: the merge-join's cost follows both lengths.
        let small = make_sets(0, 8);
        group.bench_with_input(BenchmarkId::new("small_vs_large", n), &n, |bench, _| {
            bench.iter(|| black_box(directed_walk(black_box(&small.0), black_box(&b.1))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_walk);
criterion_main!(benches);
