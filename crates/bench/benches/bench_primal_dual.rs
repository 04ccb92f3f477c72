//! Criterion bench for experiment E3: wall-clock time of the parallel primal-dual
//! algorithm (Algorithm 5.1) vs the sequential Jain–Vazirani simulation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use parfaclo_api::RunConfig;
use parfaclo_core::primal_dual;
use parfaclo_metric::gen::{self, GenParams};
use parfaclo_seq_baselines::jain_vazirani;

fn bench_primal_dual(c: &mut Criterion) {
    let mut group = c.benchmark_group("primal_dual");
    group.sample_size(10);
    for &size in &[32usize, 64, 128] {
        let inst = gen::facility_location(GenParams::uniform_square(size, size).with_seed(2));
        let cfg = RunConfig::new(0.1).with_seed(2);
        group.bench_with_input(
            BenchmarkId::new("parallel_alg51", size),
            &inst,
            |b, inst| b.iter(|| primal_dual::parallel_primal_dual(inst, &cfg)),
        );
        group.bench_with_input(BenchmarkId::new("sequential_jv", size), &inst, |b, inst| {
            b.iter(|| jain_vazirani(inst))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_primal_dual);
criterion_main!(benches);
