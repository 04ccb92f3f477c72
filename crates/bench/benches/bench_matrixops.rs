//! Criterion bench for the PRAM-style substrate: sequential vs parallel reductions
//! and scans over dense vectors (building blocks whose counts the paper's work bounds
//! are expressed in).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use parfaclo_matrixops::{ops, scan, CostMeter, ExecPolicy};

fn bench_matrixops(c: &mut Criterion) {
    let mut group = c.benchmark_group("matrixops");
    group.sample_size(10);
    for &n in &[1usize << 16, 1 << 20] {
        let data: Vec<f64> = (0..n).map(|x| ((x * 2654435761) % 1000) as f64).collect();
        let meter = CostMeter::new();
        for policy in [ExecPolicy::Sequential, ExecPolicy::Parallel] {
            let label = format!("{policy:?}");
            group.bench_with_input(
                BenchmarkId::new(format!("reduce_{label}"), n),
                &data,
                |b, d| b.iter(|| ops::reduce(d, ops::AssocOp::Add, policy, &meter)),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("scan_{label}"), n),
                &data,
                |b, d| b.iter(|| scan::inclusive_scan(d, ops::AssocOp::Add, policy, &meter)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_matrixops);
criterion_main!(benches);
