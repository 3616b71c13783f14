//! Integration: the SQL surface drives the whole stack — predicates,
//! HAVING, ordering and LIMIT all affect the downstream summarization.

use qagview::prelude::*;
// The row-engine oracle, imported by full path: these tests pin the
// reference SQL semantics the engine's cached paths are diffed against.
use qagview::answers_from_query;
use qagview::query::run_query;

fn catalog() -> Catalog {
    let schema = Schema::from_pairs(&[
        ("genre", ColumnType::Str),
        ("gender", ColumnType::Str),
        ("occupation", ColumnType::Str),
        ("adventure", ColumnType::Bool),
        ("rating", ColumnType::Float),
    ])
    .unwrap();
    let mut b = TableBuilder::new(schema);
    let rows: &[(&str, &str, &str, bool, f64)] = &[
        ("action", "M", "Student", true, 5.0),
        ("action", "M", "Student", true, 4.5),
        ("action", "M", "Coder", true, 4.5),
        ("action", "M", "Coder", true, 4.0),
        ("action", "F", "Student", true, 4.0),
        ("action", "F", "Student", true, 4.4),
        ("drama", "M", "Student", false, 2.0),
        ("drama", "M", "Student", false, 2.4),
        ("drama", "F", "Coder", false, 3.0),
        ("drama", "F", "Coder", false, 2.8),
        ("drama", "F", "Student", true, 3.2),
        ("drama", "F", "Student", true, 3.4),
    ];
    for &(g, s, o, a, r) in rows {
        b.push_row(vec![g.into(), s.into(), o.into(), a.into(), Cell::Float(r)])
            .unwrap();
    }
    let mut c = Catalog::new();
    c.register("ratings", b.finish());
    c
}

#[test]
fn where_clause_shapes_the_answer_relation() {
    let c = catalog();
    let all = run_query(
        &c,
        "SELECT genre, gender, occupation, AVG(rating) AS val FROM ratings \
         GROUP BY genre, gender, occupation ORDER BY val DESC",
    )
    .unwrap();
    let filtered = run_query(
        &c,
        "SELECT genre, gender, occupation, AVG(rating) AS val FROM ratings \
         WHERE adventure = 1 GROUP BY genre, gender, occupation ORDER BY val DESC",
    )
    .unwrap();
    assert!(filtered.rows.len() < all.rows.len());
    let answers = answers_from_query(&filtered).unwrap();
    assert_eq!(answers.arity(), 3);
    // All adventure groups are action or (drama, F, Student).
    let summarizer = Summarizer::new(&answers, 2).unwrap();
    let sol = summarizer.hybrid(1, 0).unwrap();
    let p = answers.pattern_to_string(&sol.clusters[0].pattern);
    assert!(
        p.contains("action"),
        "top cluster should be the action block: {p}"
    );
}

#[test]
fn having_prunes_small_groups_before_summarization() {
    let c = catalog();
    let out = run_query(
        &c,
        "SELECT genre, gender, occupation, AVG(rating) AS val FROM ratings \
         GROUP BY genre, gender, occupation HAVING count(*) > 1 ORDER BY val DESC",
    )
    .unwrap();
    for row in &out.rows {
        assert!(!row.attrs.is_empty());
    }
    // Every surviving group has >= 2 supporting rows by construction.
    assert_eq!(out.rows.len(), 6);
}

#[test]
fn limit_truncates_the_relation_but_not_its_order() {
    let c = catalog();
    let full = run_query(
        &c,
        "SELECT genre, gender, occupation, AVG(rating) AS val FROM ratings \
         GROUP BY genre, gender, occupation ORDER BY val DESC",
    )
    .unwrap();
    let limited = run_query(
        &c,
        "SELECT genre, gender, occupation, AVG(rating) AS val FROM ratings \
         GROUP BY genre, gender, occupation ORDER BY val DESC LIMIT 3",
    )
    .unwrap();
    assert_eq!(limited.rows.len(), 3);
    for (a, b) in full.rows.iter().zip(&limited.rows) {
        assert_eq!(a, b, "LIMIT must preserve the prefix");
    }
}

#[test]
fn session_threshold_slider_feeds_summarization_from_the_cached_group_phase() {
    // The §6 interactive loop: the user drags the HAVING threshold and
    // re-summarizes. The engine's group-phase cache scans the table only
    // for the first slider position; every position must nevertheless
    // produce an answer relation — and a summary — identical to a cold
    // re-execution.
    let engine = Explorer::new(catalog());
    let sql_at = |threshold: usize| {
        format!(
            "SELECT genre, gender, occupation, AVG(rating) AS val FROM ratings \
             GROUP BY genre, gender, occupation HAVING count(*) > {threshold} \
             ORDER BY val DESC"
        )
    };
    for threshold in [0, 1, 0, 1] {
        let sql = sql_at(threshold);
        let warm_answers = engine.answer_relation(&sql).unwrap();
        let cold_answers = answers_from_query(&run_query(engine.catalog(), &sql).unwrap()).unwrap();
        assert_eq!(*warm_answers, cold_answers, "threshold {threshold}");
        if warm_answers.len() < 2 {
            continue;
        }
        let l = warm_answers.len().min(4);
        let sol_warm = Summarizer::new(&*warm_answers, l)
            .unwrap()
            .hybrid(2, 0)
            .unwrap();
        let sol_cold = Summarizer::new(&cold_answers, l)
            .unwrap()
            .hybrid(2, 0)
            .unwrap();
        assert_eq!(sol_warm.patterns(), sol_cold.patterns());
    }
    let groups = engine.stats().group_phase;
    assert_eq!(
        groups.misses, 1,
        "only the first slider position may scan the table"
    );
    assert_eq!(groups.hits, 3);
}

#[test]
fn binding_errors_surface_cleanly() {
    let c = catalog();
    let err = run_query(&c, "SELECT ghost, AVG(rating) FROM ratings GROUP BY ghost").unwrap_err();
    assert!(err.to_string().contains("ghost"));
    let err = run_query(&c, "SELECT genre, AVG(rating) FROM nope GROUP BY genre").unwrap_err();
    assert!(err.to_string().contains("nope"));
}

#[test]
fn aggregates_other_than_avg_flow_through() {
    let c = catalog();
    for agg in ["SUM(rating)", "COUNT(*)", "MIN(rating)", "MAX(rating)"] {
        let out = run_query(
            &c,
            &format!(
                "SELECT genre, gender, occupation, {agg} AS val FROM ratings \
                 GROUP BY genre, gender, occupation ORDER BY val DESC"
            ),
        )
        .unwrap();
        let answers = answers_from_query(&out).unwrap();
        let summarizer = Summarizer::new(&answers, 2).unwrap();
        let sol = summarizer.hybrid(2, 1).unwrap();
        sol.verify(&answers, &Params::new(2, 2, 1)).unwrap();
    }
}
