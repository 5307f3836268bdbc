//! Criterion bench: linear SMO training at the training-set sizes
//! DISTINCT uses, and `LinearModel` prediction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use svm::{train_smo, Dataset, SmoConfig};

fn blobs(n_per: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut d = Dataset::new();
    for _ in 0..n_per {
        let pos: Vec<f64> = (0..dim).map(|_| 1.0 + rng.gen_range(-0.5..0.5)).collect();
        d.push(pos, 1.0).unwrap();
        let neg: Vec<f64> = (0..dim).map(|_| -1.0 + rng.gen_range(-0.5..0.5)).collect();
        d.push(neg, -1.0).unwrap();
    }
    d
}

fn bench_svm(c: &mut Criterion) {
    let mut group = c.benchmark_group("svm_train");
    group.sample_size(10);
    for &n_per in &[100usize, 500] {
        let data = blobs(n_per, 19, 7); // 19 = join-path count of the DBLP schema
        group.bench_with_input(
            BenchmarkId::new("smo_linear", n_per * 2),
            &data,
            |b, data| {
                b.iter(|| {
                    let m = train_smo(data, &SmoConfig::default()).unwrap();
                    black_box(m.sv_count())
                })
            },
        );
    }
    group.finish();

    // Prediction throughput.
    let data = blobs(500, 19, 9);
    let model = train_smo(&data, &SmoConfig::default()).unwrap().to_linear();
    c.bench_function("linear_predict_1000", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for (x, _) in data.iter() {
                acc += model.decision(black_box(x));
            }
            black_box(acc)
        })
    });
}

criterion_group!(benches, bench_svm);
criterion_main!(benches);
