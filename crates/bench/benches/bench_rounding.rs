//! Criterion bench for experiment E5: wall-clock time of the parallel rounding phase
//! (the LP solve is done once outside the measurement, exactly as the paper assumes the
//! optimal LP solution is given).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use parfaclo_api::RunConfig;
use parfaclo_core::lp_rounding;
use parfaclo_lp::solve_facility_lp;
use parfaclo_metric::gen::{self, GenParams};

fn bench_rounding(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp_rounding");
    group.sample_size(10);
    for &(nc, nf) in &[(12usize, 6usize), (20, 10)] {
        let inst = gen::facility_location(GenParams::uniform_square(nc, nf).with_seed(5));
        let lp = solve_facility_lp(&inst).expect("lp");
        let cfg = RunConfig::new(0.1).with_seed(5);
        group.bench_with_input(
            BenchmarkId::new("parallel_rounding", format!("{nc}x{nf}")),
            &(inst, lp),
            |b, (inst, lp)| b.iter(|| lp_rounding::parallel_lp_rounding(inst, lp, &cfg)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_rounding);
criterion_main!(benches);
