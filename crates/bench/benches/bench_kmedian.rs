//! Criterion bench for experiment E6: wall-clock time of the parallel local search for
//! k-median / k-means vs the sequential local search.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use parfaclo_api::RunConfig;
use parfaclo_kclustering::{parallel_kmeans, parallel_kmedian};
use parfaclo_metric::gen::{self, GenParams};
use parfaclo_seq_baselines::local_search_kmedian;

fn bench_kmedian(c: &mut Criterion) {
    let mut group = c.benchmark_group("kmedian");
    group.sample_size(10);
    let k = 5;
    for &n in &[48usize, 96] {
        let inst = gen::clustering(GenParams::gaussian_clusters(n, n, k).with_seed(4));
        let cfg = RunConfig::new(0.1).with_k(k).with_seed(4);
        group.bench_with_input(BenchmarkId::new("parallel_kmedian", n), &inst, |b, inst| {
            b.iter(|| parallel_kmedian(inst, &cfg))
        });
        group.bench_with_input(BenchmarkId::new("parallel_kmeans", n), &inst, |b, inst| {
            b.iter(|| parallel_kmeans(inst, &cfg))
        });
        group.bench_with_input(
            BenchmarkId::new("sequential_kmedian", n),
            &inst,
            |b, inst| b.iter(|| local_search_kmedian(inst, k, 0.1)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_kmedian);
criterion_main!(benches);
