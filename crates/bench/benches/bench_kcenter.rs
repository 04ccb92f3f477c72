//! Criterion bench for experiment E4: wall-clock time of the parallel k-center
//! algorithm vs Gonzalez and the sequential Hochbaum–Shmoys baselines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use parfaclo_kclustering::parallel_kcenter;
use parfaclo_matrixops::CostMeter;
use parfaclo_metric::gen::{self, GenParams};
use parfaclo_seq_baselines::{gonzalez_kcenter, hochbaum_shmoys_kcenter};

fn bench_kcenter(c: &mut Criterion) {
    let mut group = c.benchmark_group("kcenter");
    group.sample_size(10);
    let k = 8;
    for &n in &[64usize, 128, 256] {
        let inst = gen::clustering(GenParams::uniform_square(n, n).with_seed(3));
        group.bench_with_input(BenchmarkId::new("parallel_hs", n), &inst, |b, inst| {
            b.iter(|| parallel_kcenter(inst, k, 1, &CostMeter::new()).expect("within the sort cap"))
        });
        group.bench_with_input(BenchmarkId::new("gonzalez", n), &inst, |b, inst| {
            b.iter(|| gonzalez_kcenter(inst, k))
        });
        group.bench_with_input(BenchmarkId::new("sequential_hs", n), &inst, |b, inst| {
            b.iter(|| hochbaum_shmoys_kcenter(inst, k))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kcenter);
criterion_main!(benches);
