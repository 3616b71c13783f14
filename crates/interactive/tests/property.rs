//! Property tests: precomputed retrieval is feasible and consistent across
//! the whole (k, D) plane for arbitrary relations.

use proptest::prelude::*;
use qagview_core::Params;
use qagview_interactive::{PrecomputeConfig, Precomputed};
use qagview_lattice::{AnswerSet, AnswerSetBuilder, CandidateIndex};

fn arb_answers() -> impl Strategy<Value = AnswerSet> {
    (2usize..=4, 6usize..=16, any::<u64>()).prop_map(|(m, n, seed)| {
        let mut state = seed | 1;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let mut builder = AnswerSetBuilder::new((0..m).map(|i| format!("a{i}")).collect());
        let mut seen = std::collections::HashSet::new();
        let mut added = 0usize;
        while added < n {
            let codes: Vec<u32> = (0..m).map(|_| next() % 5).collect();
            if !seen.insert(codes.clone()) {
                continue;
            }
            let texts: Vec<String> = codes.iter().map(|c| format!("v{c}")).collect();
            let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
            builder
                .push(&refs, f64::from(next() % 1000) / 50.0)
                .unwrap();
            added += 1;
        }
        builder.finish().unwrap()
    })
}

/// Like [`arb_answers`] but with dyadic values (multiples of 2⁻⁷), so
/// every float accumulation is exact and engine comparisons can assert
/// bit-level identity.
fn arb_dyadic_answers() -> impl Strategy<Value = AnswerSet> {
    (2usize..=4, 6usize..=16, any::<u64>()).prop_map(|(m, n, seed)| {
        let mut state = seed | 1;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let mut builder = AnswerSetBuilder::new((0..m).map(|i| format!("a{i}")).collect());
        let mut seen = std::collections::HashSet::new();
        let mut added = 0usize;
        while added < n {
            let codes: Vec<u32> = (0..m).map(|_| next() % 5).collect();
            if !seen.insert(codes.clone()) {
                continue;
            }
            let texts: Vec<String> = codes.iter().map(|c| format!("v{c}")).collect();
            let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
            builder
                .push(&refs, f64::from(next() % 1000) / 128.0)
                .unwrap();
            added += 1;
        }
        builder.finish().unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every stored solution across the plane is feasible for its (k, D).
    #[test]
    fn stored_solutions_feasible(
        answers in arb_answers(),
        k_max in 2usize..=6,
        d_max in 0usize..=3,
    ) {
        let l = (answers.len() / 2).max(1);
        let d_max = d_max.min(answers.arity());
        let pre = Precomputed::build(
            &answers,
            l,
            PrecomputeConfig {
                k_min: 1,
                k_max,
                d_min: 0,
                d_max,
                parallel: false,
                ..Default::default()
            },
        )
        .unwrap();
        for d in 0..=d_max {
            for k in 1..=k_max {
                let sol = pre.solution(k, d).unwrap();
                let params = Params::new(k, l, d);
                prop_assert!(sol.verify(&answers, &params).is_ok(),
                    "k={k} d={d}: {:?}", sol.verify(&answers, &params));
            }
        }
    }

    /// The stored objective is monotone non-decreasing in k for every D
    /// (each descent merge can only lose average).
    #[test]
    fn value_monotone_in_k(
        answers in arb_answers(),
        d in 0usize..=2,
    ) {
        let l = (answers.len() / 2).max(1);
        let d = d.min(answers.arity());
        let pre = Precomputed::build(
            &answers,
            l,
            PrecomputeConfig {
                k_min: 1,
                k_max: 6,
                d_min: d,
                d_max: d,
                parallel: false,
                ..Default::default()
            },
        )
        .unwrap();
        let mut prev = f64::NEG_INFINITY;
        for k in 1..=6 {
            let v = pre.value(k, d).unwrap();
            prop_assert!(v + 1e-9 >= prev, "value dropped at k={k}: {prev} -> {v}");
            prev = v;
        }
    }

    /// `value(k, d)` always equals the average of `solution(k, d)`.
    #[test]
    fn value_matches_solution(
        answers in arb_answers(),
        k_max in 2usize..=5,
    ) {
        let l = (answers.len() / 2).max(1);
        let pre = Precomputed::build(
            &answers,
            l,
            PrecomputeConfig {
                k_min: 1,
                k_max,
                d_min: 0,
                d_max: 2.min(answers.arity()),
                parallel: false,
                ..Default::default()
            },
        )
        .unwrap();
        for d in 0..=2.min(answers.arity()) {
            for k in 1..=k_max {
                let sol = pre.solution(k, d).unwrap();
                let val = pre.value(k, d).unwrap();
                prop_assert!((sol.avg() - val).abs() < 1e-9);
            }
        }
    }

    /// The frontier descent engine and the per-round re-evaluation oracle
    /// build byte-identical planes: same patterns, bit-equal sums and
    /// stored objective values for every (k, D). Values here are dyadic
    /// (multiples of 2⁻⁷), so exactness holds regardless of how the two
    /// engines' Delta caches were refreshed along the way.
    #[test]
    fn descent_engines_build_identical_planes(
        answers in arb_dyadic_answers(),
        k_max in 2usize..=6,
        d_max in 0usize..=3,
    ) {
        let l = (answers.len() / 2).max(1);
        let d_max = d_max.min(answers.arity());
        let base = PrecomputeConfig {
            k_min: 1,
            k_max,
            d_min: 0,
            d_max,
            parallel: false,
            ..Default::default()
        };
        let frontier = Precomputed::build(&answers, l, base).unwrap();
        let index = CandidateIndex::build(&answers, l).unwrap();
        let reeval = Precomputed::build_reeval(&answers, index, base).unwrap();
        prop_assert_eq!(frontier.stored_intervals(), reeval.stored_intervals());
        for d in 0..=d_max {
            for k in 1..=k_max {
                let a = frontier.solution(k, d).unwrap();
                let b = reeval.solution(k, d).unwrap();
                prop_assert_eq!(a.patterns(), b.patterns(), "k={} d={}", k, d);
                prop_assert_eq!(a.sum.to_bits(), b.sum.to_bits(), "k={} d={}", k, d);
                prop_assert_eq!(a.covered, b.covered);
                for (ca, cb) in a.clusters.iter().zip(&b.clusters) {
                    prop_assert_eq!(&ca.members, &cb.members);
                    prop_assert_eq!(ca.sum.to_bits(), cb.sum.to_bits());
                }
                prop_assert_eq!(
                    frontier.value(k, d).unwrap().to_bits(),
                    reeval.value(k, d).unwrap().to_bits()
                );
            }
        }
    }

    /// Parallel and serial plane builds are identical.
    #[test]
    fn parallel_equals_serial(answers in arb_answers()) {
        let l = (answers.len() / 2).max(1);
        let base = PrecomputeConfig {
            k_min: 1,
            k_max: 5,
            d_min: 0,
            d_max: 2.min(answers.arity()),
            ..Default::default()
        };
        let serial = Precomputed::build(&answers, l,
            PrecomputeConfig { parallel: false, ..base }).unwrap();
        let parallel = Precomputed::build(&answers, l,
            PrecomputeConfig { parallel: true, ..base }).unwrap();
        for d in 0..=base.d_max {
            for k in 1..=5 {
                prop_assert_eq!(
                    serial.solution(k, d).unwrap().patterns(),
                    parallel.solution(k, d).unwrap().patterns()
                );
            }
        }
    }
}
