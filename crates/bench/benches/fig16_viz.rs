//! Fig. 16 / App. A.7.3: optimal cluster placement — Hungarian matching vs
//! brute-force permutation search, plus layout-quality metrics.
//!
//! Paper shape: matching solves in <10 ms where brute force needs >2 s at
//! k = 10; the matched layout strictly dominates the default on total
//! distance and crossings (series printed by `paper_experiments fig16`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qagview::prelude::*;
use qagview::viz::hungarian::{min_cost_assignment, min_cost_assignment_brute};
use qagview_bench::movielens_answers;
use std::hint::black_box;

fn cost_matrix(tr: &Transition) -> Vec<Vec<f64>> {
    let n = tr.right_len();
    (0..n)
        .map(|u| {
            (0..n)
                .map(|v| {
                    (0..tr.left_len())
                        .map(|i| tr.overlaps[i][u] as f64 * (i as f64 - v as f64).abs())
                        .sum()
                })
                .collect()
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let answers = movielens_answers(4, 20, 42).expect("workload");
    let mut group = c.benchmark_group("fig16_viz");
    group
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2));

    for (k, l1, l2) in [(5usize, 8usize, 10usize), (10, 15, 20), (20, 30, 40)] {
        let l1 = l1.min(answers.len());
        let l2 = l2.min(answers.len());
        let s1 = Summarizer::new(&answers, l1).unwrap().hybrid(k, 2).unwrap();
        let s2 = Summarizer::new(&answers, l2).unwrap().hybrid(k, 2).unwrap();
        let tr = Transition::between(&answers, &s1, &s2, l2);
        let cost = cost_matrix(&tr);
        group.bench_with_input(BenchmarkId::new("hungarian", k), &cost, |b, cost| {
            b.iter(|| black_box(min_cost_assignment(cost)))
        });
        // Brute force only where the factorial stays tractable.
        if cost.len() <= 8 {
            group.bench_with_input(BenchmarkId::new("brute_force", k), &cost, |b, cost| {
                b.iter(|| black_box(min_cost_assignment_brute(cost)))
            });
        }
        group.bench_with_input(BenchmarkId::new("full_placement", k), &tr, |b, tr| {
            b.iter(|| black_box(optimal_placement(tr)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
