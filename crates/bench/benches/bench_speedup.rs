//! Criterion bench for experiment E9: the parallel primal-dual algorithm on a fixed
//! instance under rayon pools of different sizes (self-relative speedup / depth proxy).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use parfaclo_api::RunConfig;
use parfaclo_core::primal_dual;
use parfaclo_metric::gen::{self, GenParams};

fn bench_speedup(c: &mut Criterion) {
    // The offline rayon shim is a real fork-join runtime: each pool below
    // fans work out over its requested number of threads, and results are
    // byte-identical across pool sizes by construction (fixed chunk
    // boundaries, left-to-right combines), so the rows measure genuine
    // self-relative scaling.
    let mut group = c.benchmark_group("speedup_primal_dual_256x256");
    group.sample_size(10);
    let inst = gen::facility_location(GenParams::uniform_square(256, 256).with_seed(6));
    let cfg = RunConfig::new(0.1).with_seed(6);
    let max_threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut threads = vec![1usize, 2, 4];
    if !threads.contains(&max_threads) {
        threads.push(max_threads);
    }
    for &t in threads.iter().filter(|&&t| t <= max_threads) {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(t)
            .build()
            .expect("pool");
        group.bench_with_input(BenchmarkId::new("threads", t), &inst, |b, inst| {
            b.iter(|| pool.install(|| primal_dual::parallel_primal_dual(inst, &cfg)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_speedup);
criterion_main!(benches);
