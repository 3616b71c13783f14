//! Ablations of the design choices DESIGN.md calls out (§5.1/§5.2/§5.3
//! variants): Bottom-Up start state and greedy rule, Fixed-Order seedings,
//! and the Hybrid pool factor.
//!
//! The paper's claim for all of them: "efficiency and quality comparable or
//! worse than the basic" algorithms — these benches measure the efficiency
//! half; `paper_experiments fig5` reports the quality half.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qagview_bench::movielens_answers;
use qagview_core::{
    bottom_up, fixed_order, BottomUpOptions, BottomUpStart, EvalMode, GreedyRule, Params, Seeding,
};
use qagview_lattice::CandidateIndex;
use std::hint::black_box;

fn bench_bottom_up_variants(c: &mut Criterion) {
    let answers = movielens_answers(8, 20, 42).expect("workload");
    let l = 40.min(answers.len());
    let index = CandidateIndex::build(&answers, l).expect("index");
    let params = Params::new(5, l, 3);
    let mut group = c.benchmark_group("ablation_bottom_up_variants");
    group
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2));
    let variants: [(&str, BottomUpOptions); 3] = [
        ("standard", BottomUpOptions::default()),
        (
            "level_start",
            BottomUpOptions {
                start: BottomUpStart::LevelDMinus1,
                ..Default::default()
            },
        ),
        (
            "pair_avg_rule",
            BottomUpOptions {
                rule: GreedyRule::PairAvg,
                ..Default::default()
            },
        ),
    ];
    for (name, opts) in variants {
        group.bench_with_input(BenchmarkId::from_parameter(name), &opts, |b, opts| {
            b.iter(|| black_box(bottom_up(&answers, &index, &params, *opts).unwrap()))
        });
    }
    group.finish();
}

fn bench_fixed_order_seedings(c: &mut Criterion) {
    let answers = movielens_answers(8, 20, 42).expect("workload");
    let l = 40.min(answers.len());
    let index = CandidateIndex::build(&answers, l).expect("index");
    let params = Params::new(5, l, 3);
    let mut group = c.benchmark_group("ablation_fixed_order_seedings");
    group
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2));
    let seedings: [(&str, Seeding); 3] = [
        ("plain", Seeding::None),
        ("random", Seeding::Random { seed: 7 }),
        (
            "kmeans",
            Seeding::KMeans {
                seed: 7,
                max_iter: 20,
            },
        ),
    ];
    for (name, seeding) in seedings {
        group.bench_with_input(BenchmarkId::from_parameter(name), &seeding, |b, s| {
            b.iter(|| {
                black_box(fixed_order(&answers, &index, &params, *s, EvalMode::Delta).unwrap())
            })
        });
    }
    group.finish();
}

fn bench_hybrid_pool_factor(c: &mut Criterion) {
    let answers = movielens_answers(8, 20, 42).expect("workload");
    let l = 40.min(answers.len());
    let index = CandidateIndex::build(&answers, l).expect("index");
    let params = Params::new(5, l, 3);
    let mut group = c.benchmark_group("ablation_hybrid_pool_factor");
    group
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2));
    for factor in [2usize, 3, 4, 6] {
        group.bench_with_input(BenchmarkId::from_parameter(factor), &factor, |b, &f| {
            b.iter(|| {
                black_box(
                    qagview_core::hybrid_with(&answers, &index, &params, f, EvalMode::Delta)
                        .unwrap(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_bottom_up_variants,
    bench_fixed_order_seedings,
    bench_hybrid_pool_factor
);
criterion_main!(benches);
