//! Threshold-slider tests of the query layer.
//!
//! The paper's interactive loop (§6) assumes the answer relation `S` can
//! be re-derived cheaply as the analyst moves the `HAVING` threshold. The
//! engine's group-phase cache (layer 1 of [`crate::Explorer`]) makes that
//! true: a query that differs only in its `HAVING` thresholds, `ORDER BY`
//! direction, or `LIMIT` is answered in `O(groups)` from the cached
//! group phase instead of rescanning the base table. These tests drive
//! that cache through [`crate::Explorer::answer_relation`] and hold every
//! warm relation equal to a cold execution.

mod tests {
    use crate::{Explorer, ExplorerConfig};
    use qagview_lattice::{AnswerSet, AnswerSetBuilder};
    use qagview_query::run_query;
    use qagview_storage::{Catalog, Cell, ColumnType, Schema, TableBuilder};

    fn catalog() -> Catalog {
        let schema = Schema::from_pairs(&[
            ("genre", ColumnType::Str),
            ("gender", ColumnType::Str),
            ("adventure", ColumnType::Bool),
            ("rating", ColumnType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        let rows: &[(&str, &str, bool, f64)] = &[
            ("action", "M", true, 5.0),
            ("action", "M", true, 4.5),
            ("action", "F", true, 4.0),
            ("action", "F", true, 4.4),
            ("drama", "M", false, 2.0),
            ("drama", "M", false, 2.4),
            ("drama", "F", true, 3.2),
            ("drama", "F", true, 3.4),
            ("comedy", "M", true, 3.9),
            ("comedy", "F", false, 1.5),
        ];
        for &(g, s, a, r) in rows {
            b.push_row(vec![g.into(), s.into(), a.into(), Cell::Float(r)])
                .unwrap();
        }
        let mut c = Catalog::new();
        c.register("ratings", b.finish());
        c
    }

    /// The cold oracle: the row engine's relation, coded through the
    /// answer-set builder.
    fn cold(c: &Catalog, sql: &str) -> AnswerSet {
        let out = run_query(c, sql).unwrap();
        let mut b = AnswerSetBuilder::new(out.attr_names.clone());
        for row in &out.rows {
            let attrs: Vec<&str> = row.attrs.iter().map(String::as_str).collect();
            b.push(&attrs, row.val).unwrap();
        }
        b.finish().unwrap()
    }

    /// Run `sql` through the engine and check it against the cold oracle.
    fn run(engine: &Explorer, sql: &str) -> AnswerSet {
        let warm = engine.answer_relation(sql).unwrap();
        assert_eq!(*warm, cold(engine.catalog(), sql), "{sql}");
        (*warm).clone()
    }

    fn threshold_sql(threshold: usize, dir: &str) -> String {
        format!(
            "SELECT genre, gender, AVG(rating) AS val FROM ratings \
             WHERE adventure = 1 GROUP BY genre, gender \
             HAVING count(*) > {threshold} ORDER BY val {dir}"
        )
    }

    #[test]
    fn threshold_moves_reuse_the_group_phase() {
        let engine = Explorer::new(catalog());
        run(&engine, &threshold_sql(0, "DESC"));
        assert_eq!(engine.stats().group_phase.misses, 1);
        for threshold in [1, 2, 0, 3] {
            for dir in ["DESC", "ASC"] {
                run(&engine, &threshold_sql(threshold, dir));
            }
        }
        let groups = engine.stats().group_phase;
        assert_eq!(groups.hits, 8, "every re-run hit the cache");
        assert_eq!(groups.misses, 1);
        assert_eq!(groups.entries, 1);
    }

    #[test]
    fn changed_scan_shape_misses_the_cache() {
        let engine = Explorer::new(catalog());
        run(&engine, &threshold_sql(0, "DESC"));
        // A different WHERE clause is a different group phase.
        run(
            &engine,
            "SELECT genre, gender, AVG(rating) AS val FROM ratings \
             GROUP BY genre, gender HAVING count(*) > 0 ORDER BY val DESC",
        );
        assert_eq!(engine.stats().group_phase.misses, 2);
        // And both phases stay cached independently.
        run(&engine, &threshold_sql(2, "ASC"));
        run(
            &engine,
            "SELECT genre, gender, AVG(rating) AS val FROM ratings \
             GROUP BY genre, gender HAVING count(*) > 1 ORDER BY val DESC",
        );
        let groups = engine.stats().group_phase;
        assert_eq!(groups.hits, 2);
        assert_eq!(groups.entries, 2);
    }

    #[test]
    fn limit_and_unordered_variants_hit_the_cache() {
        let engine = Explorer::new(catalog());
        let base = "SELECT genre, AVG(rating) AS val FROM ratings GROUP BY genre";
        run(&engine, base);
        for sql in [
            format!("{base} ORDER BY val DESC LIMIT 1"),
            format!("{base} ORDER BY val ASC"),
            format!("{base} HAVING avg(rating) > 0 LIMIT 2"),
        ] {
            run(&engine, &sql);
        }
        // HAVING avg(rating) reuses the projected AVG aggregate, so all
        // three variants share the base group phase.
        let groups = engine.stats().group_phase;
        assert_eq!(groups.hits, 3);
        assert_eq!(groups.misses, 1);
    }

    #[test]
    fn errors_surface_and_do_not_poison_the_cache() {
        let engine = Explorer::new(catalog());
        assert!(engine
            .answer_relation("SELECT ghost, AVG(rating) FROM ratings GROUP BY ghost")
            .is_err());
        assert!(engine
            .answer_relation("SELECT genre, AVG(rating) FROM nope GROUP BY genre")
            .is_err());
        assert_eq!(engine.stats().group_phase.entries, 0);
        let sql = threshold_sql(0, "DESC");
        run(&engine, &sql);
        run(&engine, &sql);
        let groups = engine.stats().group_phase;
        assert_eq!(groups.entries, 1);
        assert_eq!(groups.misses, 1, "the failed queries cached nothing");
        assert_eq!(groups.hits, 1);
    }

    #[test]
    fn cache_bound_evicts_least_recently_used_phase() {
        let engine = Explorer::with_config(
            catalog(),
            ExplorerConfig {
                group_cache_entries: 2,
                ..Default::default()
            },
        );
        let sql_a = "SELECT genre, AVG(rating) AS val FROM ratings GROUP BY genre";
        let sql_b = "SELECT gender, AVG(rating) AS val FROM ratings GROUP BY gender";
        let sql_c = "SELECT genre, gender, AVG(rating) AS val FROM ratings \
                     GROUP BY genre, gender";
        run(&engine, sql_a);
        run(&engine, sql_b);
        run(&engine, sql_a); // refresh A; B becomes LRU
        run(&engine, sql_c); // evicts B
        let groups = engine.stats().group_phase;
        assert_eq!(groups.evictions, 1);
        assert_eq!(groups.entries, 2);
        run(&engine, sql_a);
        assert_eq!(
            engine.stats().group_phase.hits,
            2,
            "A survived the eviction"
        );
        run(&engine, sql_b);
        assert_eq!(
            engine.stats().group_phase.misses,
            4,
            "B was evicted and re-ran cold"
        );
    }
}
