//! Criterion bench for experiment E1/E2: wall-clock time of the parallel greedy
//! algorithm (Algorithm 4.1) vs the sequential JMS greedy across instance sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use parfaclo_api::RunConfig;
use parfaclo_core::greedy;
use parfaclo_metric::gen::{self, GenParams};
use parfaclo_seq_baselines::jms_greedy;

fn bench_greedy(c: &mut Criterion) {
    let mut group = c.benchmark_group("greedy");
    group.sample_size(10);
    for &size in &[32usize, 64, 128] {
        let inst = gen::facility_location(GenParams::uniform_square(size, size).with_seed(1));
        let cfg = RunConfig::new(0.1).with_seed(1);
        group.bench_with_input(
            BenchmarkId::new("parallel_alg41", size),
            &inst,
            |b, inst| b.iter(|| greedy::parallel_greedy(inst, &cfg)),
        );
        group.bench_with_input(
            BenchmarkId::new("sequential_jms", size),
            &inst,
            |b, inst| b.iter(|| jms_greedy(inst)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_greedy);
criterion_main!(benches);
