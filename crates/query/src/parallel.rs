//! Morsel-parallel group-phase execution.
//!
//! [`group_aggregate_parallel`] partitions the table scan into fixed-size
//! *morsels* (contiguous row ranges) and folds them on the workspace
//! worker pool ([`qagview_common::par::fold_workers`]). Each worker keeps
//! one scan state across every morsel it claims — its own [`GroupTable`],
//! the batch buffers of the shared batch driver, the partial aggregates of
//! every group it has met, and the row at which it first met each group —
//! and scans each morsel through the same batch driver as the sequential
//! engine. No row outlives its batch: a worker's output is its groups and
//! their partials, not its rows.
//!
//! # Determinism: order-free exact aggregates
//!
//! Every aggregate state is a mergeable partial whose finished value does
//! not depend on how the rows were split or in which order the pieces
//! meet:
//!
//! * `COUNT` adds integers.
//! * `SUM`/`AVG` are the *correctly rounded exact sum* (then one division
//!   by the count). Each group keeps an exact accumulator — an integer
//!   fixed-point sum for columns whose sum-lane certificate admits one,
//!   a superaccumulator otherwise (see [`qagview_storage::SumLane`]) — so
//!   partial sums add exactly and round once, at the end.
//! * `MIN`/`MAX` take the extreme non-NaN input under IEEE `totalOrder`
//!   (`−0.0 < +0.0`), a total order, so any merge order picks the same
//!   bits.
//!
//! The merge inserts every worker's groups into one global [`GroupTable`]
//! in order of their first row. A group's first row in the table is the
//! least of its workers' first rows, so this is exactly the sequential
//! scan's first-encounter order, whatever the morsel size, worker count or
//! schedule. It then adds each worker's partials into the global groups:
//! `O(groups × workers)` work.
//!
//! The result is byte-identical (f64 bit patterns included) to
//! [`crate::exec::group_aggregate`] for *any* partition count and any
//! worker schedule, and its per-group values are identical under any
//! permutation of the table's rows. The property suite in this module
//! holds both contracts on random and adversarial tables, with the
//! sequential engine and the row-at-a-time reference (whose exact sums
//! come from a separate `msum` implementation) as oracles.

use crate::exec::{plan_agg_inputs, scan_batches, AggInputs, ScanScratch, BATCH_ROWS};
use crate::group::{Accumulators, GroupTable, GroupedResult};
use crate::plan::GroupSpec;
use qagview_common::par::{available_workers, fold_workers};
use qagview_common::{QagError, Result};
use qagview_storage::Table;
use std::ops::Range;

/// Default rows per morsel: a handful of scan batches, so the per-morsel
/// dispatch overhead amortizes while the work queue still load-balances.
pub const MORSEL_ROWS: usize = 16 * BATCH_ROWS;

/// Row-count threshold below which [`group_aggregate_auto`] stays on the
/// sequential path: small scans finish in well under a millisecond, where
/// thread spawn + merge overhead would dominate.
pub const PARALLEL_MIN_ROWS: usize = 4 * MORSEL_ROWS;

/// Configuration of the morsel-parallel scan.
#[derive(Debug, Clone, Copy)]
pub struct ParallelConfig {
    /// Worker threads to spawn (clamped to the morsel count; `0` and `1`
    /// both mean "run the morsel pipeline on the calling thread").
    pub threads: usize,
    /// Rows per morsel (minimum 1).
    pub morsel_rows: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            threads: available_workers(),
            morsel_rows: MORSEL_ROWS,
        }
    }
}

impl ParallelConfig {
    /// A configuration that splits an `n_rows`-row table into exactly
    /// `partitions` contiguous morsels (the last may be short), with one
    /// worker per partition — the shape the partition-count-invariance
    /// property tests sweep.
    pub fn with_partitions(n_rows: usize, partitions: usize) -> Self {
        let p = partitions.max(1);
        ParallelConfig {
            threads: p,
            morsel_rows: n_rows.div_ceil(p).max(1),
        }
    }
}

/// Counters from the morsel-parallel scans run so far. Counters are
/// cumulative so a session can expose them across many queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParallelScanStats {
    /// Scans that took the morsel-parallel path.
    pub parallel_scans: u64,
}

impl ParallelScanStats {
    /// Add another counter snapshot into this one (sessions fold each
    /// scan's counters into a cumulative total with this).
    pub fn merge(&mut self, other: ParallelScanStats) {
        self.parallel_scans += other.parallel_scans;
    }
}

/// One worker's scan, kept across every morsel it claims: its own group
/// table and batch buffers, the partial aggregates of every group it has
/// met, and the row at which it first met each one.
struct WorkerScan {
    gt: GroupTable,
    scratch: ScanScratch,
    acc: Accumulators,
    /// Per local group: the first row of it this worker scanned.
    first_rows: Vec<usize>,
    /// The first scan error, after which the worker skips its morsels.
    error: Option<QagError>,
}

impl WorkerScan {
    fn new(spec: &GroupSpec, inputs: &AggInputs) -> Self {
        let width = spec.group_cols.len();
        WorkerScan {
            gt: GroupTable::new(width),
            scratch: ScanScratch::new(width, inputs.input_cols.len()),
            acc: Accumulators::new(&spec.aggs, &inputs.agg_input, &inputs.lanes),
            first_rows: Vec::new(),
            error: None,
        }
    }

    /// Fold one morsel into this worker's groups and partials.
    fn scan(&mut self, spec: &GroupSpec, table: &Table, inputs: &AggInputs, rows: Range<usize>) {
        if self.error.is_some() {
            return;
        }
        let WorkerScan {
            gt,
            scratch,
            acc,
            first_rows,
            ..
        } = self;
        let scanned = scan_batches(spec, table, inputs, rows, gt, scratch, |batch| {
            // A batch numbers its new groups in row order, after the
            // groups already met.
            if batch.num_groups > first_rows.len() {
                for (i, &g) in batch.gids.iter().enumerate() {
                    if g as usize == first_rows.len() {
                        first_rows.push(batch.row(i));
                    }
                }
            }
            acc.add(batch.gids, batch.num_groups, |k| batch.input(k));
        });
        if let Err(e) = scanned {
            self.error = Some(e);
        }
    }
}

/// Run the group phase morsel-parallel. Byte-identical to
/// [`crate::exec::group_aggregate`] for any `cfg` (see the module docs for
/// the determinism argument).
pub fn group_aggregate_parallel(
    spec: &GroupSpec,
    table: &Table,
    cfg: &ParallelConfig,
) -> Result<GroupedResult> {
    let mut gt = GroupTable::new(spec.group_cols.len());
    let mut stats = ParallelScanStats::default();
    group_aggregate_parallel_with(spec, table, cfg, &mut gt, &mut stats)
}

/// [`group_aggregate_parallel`] against a caller-provided merge
/// [`GroupTable`] (cleared first, allocations kept) and cumulative
/// [`ParallelScanStats`].
pub fn group_aggregate_parallel_with(
    spec: &GroupSpec,
    table: &Table,
    cfg: &ParallelConfig,
    gt: &mut GroupTable,
    stats: &mut ParallelScanStats,
) -> Result<GroupedResult> {
    let n = table.num_rows();
    let width = spec.group_cols.len();
    let inputs = plan_agg_inputs(spec, table)?;
    let morsel_rows = cfg.morsel_rows.max(1);
    let morsels: Vec<Range<usize>> = (0..n)
        .step_by(morsel_rows)
        .map(|start| start..(start + morsel_rows).min(n))
        .collect();

    // Each pool worker folds the morsels it claims into its own groups and
    // partials.
    let mut workers = fold_workers(
        &morsels,
        cfg.threads,
        || WorkerScan::new(spec, &inputs),
        |w, _, rows| w.scan(spec, table, &inputs, rows.clone()),
    );
    if let Some(e) = workers.iter_mut().find_map(|w| w.error.take()) {
        return Err(e);
    }

    // Merge: insert every worker's groups into the global table in order
    // of their first row — the sequential scan's first-encounter order —
    // then add each worker's partials into the global groups.
    let mut order: Vec<(usize, usize, usize)> = workers
        .iter()
        .enumerate()
        .flat_map(|(w, scan)| {
            scan.first_rows
                .iter()
                .enumerate()
                .map(move |(local, &row)| (row, w, local))
        })
        .collect();
    order.sort_unstable();
    let keys: Vec<u64> = order
        .iter()
        .flat_map(|&(_, w, local)| workers[w].gt.key(local).iter().copied())
        .collect();
    gt.clear(width);
    let mut gids: Vec<u32> = Vec::new();
    gt.assign_keys(&keys, order.len(), &mut gids);
    let mut remaps: Vec<Vec<u32>> = workers
        .iter()
        .map(|w| vec![0; w.first_rows.len()])
        .collect();
    for (&(_, w, local), &g) in order.iter().zip(&gids) {
        remaps[w][local] = g;
    }
    let mut acc = Accumulators::new(&spec.aggs, &inputs.agg_input, &inputs.lanes);
    for (w, remap) in workers.iter().zip(&remaps) {
        acc.merge(&w.acc, remap, gt.num_groups());
    }

    stats.parallel_scans += 1;
    GroupedResult::finish(table, spec, gt, &acc)
}

/// Size-dispatching group phase: the morsel-parallel path for tables of at
/// least [`PARALLEL_MIN_ROWS`] rows when more than one core is available,
/// the sequential path otherwise. Output is byte-identical either way;
/// only the cost model differs.
pub fn group_aggregate_auto(
    spec: &GroupSpec,
    table: &Table,
    gt: &mut GroupTable,
    stats: &mut ParallelScanStats,
) -> Result<GroupedResult> {
    let cfg = ParallelConfig::default();
    if table.num_rows() >= PARALLEL_MIN_ROWS && cfg.threads > 1 {
        group_aggregate_parallel_with(spec, table, &cfg, gt, stats)
    } else {
        crate::exec::group_aggregate_with(spec, table, gt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute_rows, group_aggregate};
    use crate::parser::parse;
    use crate::plan::bind;
    use crate::testutil::{adversarial_table, permuted, random_table};

    /// The partition counts every invariance test sweeps — 1 degenerates
    /// to the identity remap, the rest force group keys to straddle
    /// morsel boundaries in different ways.
    const PARTITIONS: [usize; 5] = [1, 2, 3, 7, 16];

    /// Assert the parallel scan is byte-identical to the sequential oracle
    /// for every swept partition count: equal `GroupedResult` fingerprints
    /// and equal `AnswerSet` fingerprints of the derived answer relation
    /// (or the identical error — `AnswerSet` refuses NaN scores by
    /// contract, and the parallel path must refuse them identically).
    fn assert_partition_invariant(sql: &str, table: &Table) {
        let bound = bind(&parse(sql).unwrap(), table).unwrap();
        let oracle = group_aggregate(&bound.group, table).unwrap();
        let oracle_fp = oracle.result_fingerprint();
        let oracle_answers = oracle.apply_answers(&bound.output);
        for p in PARTITIONS {
            let cfg = ParallelConfig::with_partitions(table.num_rows(), p);
            let par = group_aggregate_parallel(&bound.group, table, &cfg).unwrap();
            assert_eq!(
                par.result_fingerprint(),
                oracle_fp,
                "grouped result diverges at P={p} for {sql}"
            );
            match (&oracle_answers, par.apply_answers(&bound.output)) {
                (Ok(a), Ok(b)) => assert_eq!(
                    b.fingerprint(),
                    a.fingerprint(),
                    "answer-set fingerprint diverges at P={p} for {sql}"
                ),
                (Err(a), Err(b)) => assert_eq!(
                    a.to_string(),
                    b.to_string(),
                    "answer-set errors diverge at P={p} for {sql}"
                ),
                (a, b) => panic!(
                    "answer-set Ok/Err parity broken at P={p} for {sql}: \
                     oracle ok={}, parallel ok={}",
                    a.is_ok(),
                    b.is_ok()
                ),
            }
            // And the rendered output matches the row-at-a-time reference,
            // whose sums come from its own msum, modulo NaN != NaN.
            let canon = |o: &crate::exec::QueryOutput| -> Vec<(Vec<String>, u64)> {
                o.rows
                    .iter()
                    .map(|r| (r.attrs.clone(), r.val.to_bits()))
                    .collect()
            };
            match (par.apply(&bound.output), execute_rows(&bound, table)) {
                (Ok(out), Ok(reference)) => {
                    assert_eq!(canon(&out), canon(&reference), "P={p} vs reference, {sql}")
                }
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "P={p}, {sql}"),
                (a, b) => panic!(
                    "reference Ok/Err parity broken at P={p} for {sql}: \
                     parallel ok={}, reference ok={}",
                    a.is_ok(),
                    b.is_ok()
                ),
            }
        }
    }

    /// Assert every group's finished values are bit-identical on seeded
    /// row permutations of `table`, for the sequential scan and every swept
    /// partition count.
    fn assert_permutation_invariant(sql: &str, table: &Table) {
        let bound = bind(&parse(sql).unwrap(), table).unwrap();
        let want = group_aggregate(&bound.group, table).unwrap().group_values();
        for seed in [1u64, 2, 3] {
            let shuffled = permuted(table, seed);
            let bound = bind(&parse(sql).unwrap(), &shuffled).unwrap();
            let seq = group_aggregate(&bound.group, &shuffled).unwrap();
            assert_eq!(seq.group_values(), want, "sequential, perm {seed}, {sql}");
            for p in PARTITIONS {
                let cfg = ParallelConfig::with_partitions(shuffled.num_rows(), p);
                let par = group_aggregate_parallel(&bound.group, &shuffled, &cfg).unwrap();
                assert_eq!(par.group_values(), want, "P={p}, perm {seed}, {sql}");
            }
        }
    }

    /// Query shapes over [`adversarial_table`]: general-lane (`z`) and
    /// fixed-lane (`c`) sums, averages and extremes, with and without
    /// predicates and HAVING.
    const ADVERSARIAL_SQL: [&str; 6] = [
        "SELECT g, SUM(z) AS val FROM t GROUP BY g ORDER BY val DESC",
        "SELECT g, s, AVG(z) AS val FROM t GROUP BY g, s ORDER BY val ASC",
        "SELECT s, SUM(c) AS val FROM t WHERE c >= 10 GROUP BY s ORDER BY val DESC",
        "SELECT g, AVG(c) AS val FROM t GROUP BY g HAVING count(*) > 3 ORDER BY val DESC",
        "SELECT g, MIN(z) AS val FROM t GROUP BY g HAVING max(z) > 0 ORDER BY val ASC",
        "SELECT s, MAX(z) AS val FROM t WHERE c < 0 GROUP BY s HAVING avg(c) < 0 \
         ORDER BY val DESC",
    ];

    #[test]
    fn adversarial_columns_are_partition_and_permutation_invariant() {
        for seed in [7u64, 99] {
            let table = adversarial_table(seed, 6_000 + seed as usize);
            let lane = |name: &str| {
                let c = table.schema().index_of(name).unwrap();
                table.sum_lane(c).unwrap()
            };
            assert!(matches!(
                lane("z"),
                qagview_storage::SumLane::General { .. }
            ));
            assert!(matches!(lane("c"), qagview_storage::SumLane::Fixed { .. }));
            for sql in ADVERSARIAL_SQL {
                assert_partition_invariant(sql, &table);
                assert_permutation_invariant(sql, &table);
            }
        }
    }

    #[test]
    fn many_groups_over_a_column_with_one_nan() {
        // Ratings-like values with a single NaN take the general lane,
        // sized to the column's small range; thousands of groups (two to
        // four rows each) must still agree across engines and orders.
        use qagview_storage::{Cell, ColumnType, Schema, SumLane, TableBuilder};
        let schema =
            Schema::from_pairs(&[("g", ColumnType::Int), ("x", ColumnType::Float)]).unwrap();
        let rows = 12_000;
        let mut b = TableBuilder::with_capacity(schema, rows);
        for i in 0..rows {
            let x = if i == 4_321 {
                f64::NAN
            } else {
                (i * 7 % 5 + 1) as f64 / 2.0
            };
            let g = (i * 2_654_435_761 % 4_001) as i64;
            b.push_row(vec![Cell::Int(g), Cell::Float(x)]).unwrap();
        }
        let table = b.finish();
        assert_eq!(
            table.sum_lane(1),
            Some(SumLane::General { low: -1, bits: 17 })
        );
        for sql in [
            "SELECT g, SUM(x) AS val FROM t GROUP BY g ORDER BY val DESC",
            "SELECT g, AVG(x) AS val FROM t GROUP BY g HAVING count(*) > 2 ORDER BY val ASC",
        ] {
            assert_partition_invariant(sql, &table);
            assert_permutation_invariant(sql, &table);
        }
    }

    #[test]
    fn random_tables_are_permutation_invariant() {
        let table = random_table(8, 5_000);
        for sql in [
            "SELECT g, SUM(x) AS val FROM t GROUP BY g ORDER BY val DESC",
            "SELECT g, s, AVG(x) AS val FROM t WHERE flag = true GROUP BY g, s",
            "SELECT s, MIN(x) AS val FROM t GROUP BY s",
            "SELECT s, MAX(x) AS val FROM t GROUP BY s",
            "SELECT s, SUM(n) AS val FROM t GROUP BY s",
        ] {
            assert_permutation_invariant(sql, &table);
        }
    }

    #[test]
    fn signed_zero_extremes_agree_across_engines_and_row_orders() {
        use qagview_storage::{Cell, ColumnType, Schema, TableBuilder};
        for zeros in [[0.0, -0.0], [-0.0, 0.0]] {
            let schema =
                Schema::from_pairs(&[("g", ColumnType::Int), ("x", ColumnType::Float)]).unwrap();
            let mut b = TableBuilder::new(schema);
            for x in zeros.into_iter().chain([f64::NAN]) {
                b.push_row(vec![Cell::Int(0), Cell::Float(x)]).unwrap();
            }
            let table = b.finish();
            for (func, want) in [("MIN", -0.0f64), ("MAX", 0.0)] {
                let sql = format!("SELECT g, {func}(x) AS val FROM t GROUP BY g");
                let bound = bind(&parse(&sql).unwrap(), &table).unwrap();
                let mut got = vec![
                    (
                        "sequential".to_string(),
                        crate::exec::execute(&bound, &table).unwrap(),
                    ),
                    (
                        "reference".to_string(),
                        execute_rows(&bound, &table).unwrap(),
                    ),
                ];
                for p in PARTITIONS {
                    let cfg = ParallelConfig::with_partitions(table.num_rows(), p);
                    let par = group_aggregate_parallel(&bound.group, &table, &cfg).unwrap();
                    got.push((format!("P={p}"), par.apply(&bound.output).unwrap()));
                }
                for (engine, out) in got {
                    assert_eq!(
                        out.rows[0].val.to_bits(),
                        want.to_bits(),
                        "{engine} {func} over {zeros:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn partition_count_invariance_on_random_tables() {
        // Random tables (mixed magnitudes, NaNs, signed zeros) × the query
        // shapes of the engine: every partition count must reproduce the
        // sequential bytes, including ORDER BY tie order and NaN slots.
        for seed in [3u64, 17, 90210] {
            let table = random_table(seed, 10_240 + (seed as usize % 700));
            for sql in [
                "SELECT g, AVG(x) AS val FROM t GROUP BY g ORDER BY val DESC",
                "SELECT g, s, SUM(x) AS val FROM t WHERE flag = true GROUP BY g, s \
                 HAVING count(*) > 5 ORDER BY val ASC",
                "SELECT s, MIN(x) AS val FROM t WHERE n >= 0 GROUP BY s ORDER BY val ASC",
                "SELECT s, flag, MAX(x) AS val FROM t GROUP BY s, flag \
                 ORDER BY val DESC LIMIT 5",
                "SELECT g, COUNT(*) AS val FROM t WHERE x >= -100 GROUP BY g \
                 HAVING count(*) > 2 ORDER BY val DESC",
                "SELECT g, s, AVG(x) AS val FROM t WHERE band = 1 GROUP BY g, s \
                 ORDER BY val DESC",
            ] {
                assert_partition_invariant(sql, &table);
            }
        }
    }

    #[test]
    fn partition_invariance_with_shared_aggregate_inputs() {
        let table = random_table(5, 9_000);
        assert_partition_invariant(
            "SELECT g, AVG(x) AS val FROM t GROUP BY g \
             HAVING min(x) < 0 AND max(x) > 1 AND count(*) > 3 ORDER BY val DESC",
            &table,
        );
        // Two distinct input columns gathered per morsel (min ignores the
        // table's planted NaNs, so the HAVING comparison stays defined).
        assert_partition_invariant(
            "SELECT s, SUM(n) AS val FROM t GROUP BY s \
             HAVING min(x) > -100000000 ORDER BY val ASC",
            &table,
        );
    }

    #[test]
    fn empty_and_degenerate_selections() {
        let table = random_table(11, 4_000);
        // Predicate that drops everything.
        assert_partition_invariant(
            "SELECT g, AVG(x) AS val FROM t WHERE n > 2000000 GROUP BY g",
            &table,
        );
        // No GROUP BY columns: the single implicit group.
        assert_partition_invariant("SELECT SUM(x) AS val FROM t", &table);
        assert_partition_invariant("SELECT COUNT(*) AS val FROM t WHERE flag = true", &table);
    }

    #[test]
    fn morsel_sizes_that_straddle_batches() {
        // Morsel sizes around the batch size — equal, off-by-one, tiny —
        // must not change a single byte.
        let table = random_table(29, 3 * BATCH_ROWS + 17);
        let sql = "SELECT g, AVG(x) AS val FROM t GROUP BY g ORDER BY val DESC";
        let bound = bind(&parse(sql).unwrap(), &table).unwrap();
        let oracle_fp = group_aggregate(&bound.group, &table)
            .unwrap()
            .result_fingerprint();
        for morsel_rows in [1usize, 37, BATCH_ROWS - 1, BATCH_ROWS, BATCH_ROWS + 1] {
            for threads in [1usize, 3] {
                let cfg = ParallelConfig {
                    threads,
                    morsel_rows,
                };
                let par = group_aggregate_parallel(&bound.group, &table, &cfg).unwrap();
                assert_eq!(
                    par.result_fingerprint(),
                    oracle_fp,
                    "morsel_rows={morsel_rows} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn scratch_pooling_reuses_worker_tables() {
        let table = random_table(41, 40_000);
        let sql = "SELECT g, AVG(x) AS val FROM t GROUP BY g";
        let bound = bind(&parse(sql).unwrap(), &table).unwrap();
        let mut gt = GroupTable::new(0);
        let mut stats = ParallelScanStats::default();
        let cfg = ParallelConfig {
            threads: 2,
            morsel_rows: 1000,
        };
        let a =
            group_aggregate_parallel_with(&bound.group, &table, &cfg, &mut gt, &mut stats).unwrap();
        assert_eq!(stats.parallel_scans, 1);
        // The merge table and stats are reusable across runs.
        let b =
            group_aggregate_parallel_with(&bound.group, &table, &cfg, &mut gt, &mut stats).unwrap();
        assert_eq!(a.result_fingerprint(), b.result_fingerprint());
        assert_eq!(stats.parallel_scans, 2);
    }

    #[test]
    fn auto_dispatch_is_byte_identical_across_the_threshold() {
        // Just below and above PARALLEL_MIN_ROWS (scaled down via direct
        // calls — auto itself only flips on multicore hosts, so assert
        // equivalence of the two paths it chooses between).
        let table = random_table(53, 20_000);
        let sql = "SELECT s, AVG(x) AS val FROM t GROUP BY s ORDER BY val DESC";
        let bound = bind(&parse(sql).unwrap(), &table).unwrap();
        let mut gt = GroupTable::new(0);
        let mut stats = ParallelScanStats::default();
        let auto = group_aggregate_auto(&bound.group, &table, &mut gt, &mut stats).unwrap();
        let seq = group_aggregate(&bound.group, &table).unwrap();
        let par = group_aggregate_parallel(
            &bound.group,
            &table,
            &ParallelConfig::with_partitions(table.num_rows(), 4),
        )
        .unwrap();
        assert_eq!(auto.result_fingerprint(), seq.result_fingerprint());
        assert_eq!(auto.result_fingerprint(), par.result_fingerprint());
    }
}
