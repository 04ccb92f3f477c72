//! Criterion bench for experiment E7: wall-clock time of the in-place dominator-set
//! algorithms (MaxDom / MaxUDom) on random graphs of growing size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use parfaclo_dominator::{max_dom, max_u_dom, CsrBipartite, CsrGraph};
use parfaclo_matrixops::CostMeter;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

fn random_graph(n: usize, p: f64, seed: u64) -> CsrGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            if rng.gen_bool(p) {
                edges.push((a, b));
            }
        }
    }
    CsrGraph::from_edges(n, &edges)
}

fn bench_dominator(c: &mut Criterion) {
    let mut group = c.benchmark_group("dominator");
    group.sample_size(10);
    for &n in &[128usize, 256, 512] {
        let g = random_graph(n, 0.02, 7);
        group.bench_with_input(BenchmarkId::new("max_dom", n), &g, |b, g| {
            let meter = CostMeter::new();
            b.iter(|| max_dom(g, 1, &meter))
        });
        let edges: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| (0..n / 2).map(move |v| (u, v)))
            .filter(|&(u, v)| (u * 31 + v * 17) % 29 == 0)
            .collect();
        let h = CsrBipartite::from_edges(n, n / 2, &edges);
        group.bench_with_input(BenchmarkId::new("max_u_dom", n), &h, |b, h| {
            let meter = CostMeter::new();
            b.iter(|| max_u_dom(h, 1, &meter))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dominator);
criterion_main!(benches);
