//! Fig. 5(a): runtime of brute force vs the heuristics at L=5, D=3.
//!
//! The paper's qualitative result: BF explodes with k (2.5 h at k=4 on
//! their prototype) while every heuristic stays interactive; the heuristics'
//! values are near-optimal (checked in `qagview-core` tests, value series in
//! `paper_experiments fig5`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qagview_bench::example_1_1_answers;
use qagview_core::{
    bottom_up, brute_force, fixed_order, BottomUpOptions, BruteForceOptions, EvalMode, Params,
    Seeding,
};
use qagview_lattice::CandidateIndex;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let answers = example_1_1_answers(42).expect("workload");
    let l = 5;
    let index = CandidateIndex::build(&answers, l).expect("index");
    let mut group = c.benchmark_group("fig5_bruteforce");
    group
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2));

    for k in [2usize, 3, 4] {
        let params = Params::new(k, l, 3);
        group.bench_with_input(BenchmarkId::new("brute_force", k), &params, |b, p| {
            b.iter(|| {
                black_box(brute_force(&answers, &index, p, BruteForceOptions::default()).unwrap())
            })
        });
        group.bench_with_input(BenchmarkId::new("bottom_up", k), &params, |b, p| {
            b.iter(|| {
                black_box(bottom_up(&answers, &index, p, BottomUpOptions::default()).unwrap())
            })
        });
        group.bench_with_input(BenchmarkId::new("fixed_order", k), &params, |b, p| {
            b.iter(|| {
                black_box(fixed_order(&answers, &index, p, Seeding::None, EvalMode::Delta).unwrap())
            })
        });
        group.bench_with_input(BenchmarkId::new("hybrid", k), &params, |b, p| {
            b.iter(|| {
                black_box(qagview_core::hybrid(&answers, &index, p, EvalMode::Delta).unwrap())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
