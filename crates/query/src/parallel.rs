//! Morsel-parallel group-phase execution.
//!
//! [`group_aggregate_parallel`] partitions the table scan into fixed-size
//! *morsels* (contiguous row ranges) run on the workspace worker pool
//! ([`qagview_common::par::map_ordered`]). Each worker owns one pooled set
//! of scan scratch — a [`GroupTable`] plus the batch buffers of the shared
//! batch driver — reused across every morsel it claims (no per-morsel
//! allocation). A worker scans its morsel through the same batch driver
//! as the sequential scan, but instead of accumulating into global state
//! it buffers a compact `MorselOutput`: the morsel's local group-key
//! arena plus, per selected row, the local group id and the gathered
//! aggregate-input values.
//!
//! # Determinism: ordered partition merge, ascending re-accumulation
//!
//! Float addition is not associative, so merging per-partition *partial
//! sums* can never be bit-identical to the sequential scan for an
//! arbitrary partition count. This module therefore merges **rows, not
//! sums**: morsel outputs are merged in ascending morsel order, each
//! morsel's local group ids are remapped onto one global [`GroupTable`]
//! (inserting each morsel's local groups in local first-encounter order),
//! and every aggregate is re-accumulated row by row from the stored
//! per-row values. Because morsels are contiguous ascending row ranges,
//!
//! * the global group-id assignment reproduces the sequential
//!   first-encounter order exactly (a group's first global occurrence lies
//!   in the first morsel containing it, and within that morsel local
//!   first-encounter order *is* row order), and
//! * the merge's row walk is the sequential scan's row walk, so every
//!   `SUM`/`AVG` float addition chain — and every `MIN`/`MAX`
//!   `f64::min`/`max` application order, which matters for signed zeros
//!   and NaN operands — is replayed in the identical order.
//!
//! The result is byte-identical (f64 bit patterns included) to
//! [`crate::exec::group_aggregate`] for *any* partition count and any
//! worker schedule; `P = 1` degenerates to an identity remap. The
//! partition-count-invariance property suite in this module holds the
//! contract on random tables and queries, with the sequential engine as
//! oracle.
//!
//! The merge costs one extra `O(selected rows)` pass and the transient
//! morsel outputs hold ~`4 + 8·(input columns)` bytes per selected row —
//! the price of determinism, paid only on the parallel path.

use crate::exec::{plan_agg_inputs, scan_batches, AggInputs, ScanScratch, BATCH_ROWS};
use crate::group::{Accumulators, GroupTable, GroupedResult};
use crate::plan::GroupSpec;
use qagview_common::par::{available_workers, map_ordered};
use qagview_common::Result;
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

/// One worker's pooled scan scratch, reused across every morsel it claims.
struct WorkerScratch {
    gt: GroupTable,
    scan: ScanScratch,
}

impl WorkerScratch {
    fn new(width: usize, num_inputs: usize) -> Self {
        WorkerScratch {
            gt: GroupTable::new(width),
            scan: ScanScratch::new(width, num_inputs),
        }
    }
}

/// What one partition's scan produced: the local group-key arena plus,
/// per selected row in ascending row order, the local group id and the
/// gathered value of each distinct aggregate input column.
struct MorselOutput {
    num_local_groups: usize,
    /// Local key arena copied out of the worker's pooled table
    /// (`width` lanes per local group, local-gid order).
    local_keys: Vec<u64>,
    /// Local group id of every selected row, ascending row order.
    row_gids: Vec<u32>,
    /// Per distinct input column: the selected rows' values, same order.
    row_vals: Vec<Vec<f64>>,
}

/// Scan one partition through [`scan_batches`] with the worker's pooled
/// scratch, buffering every batch into a [`MorselOutput`] instead of
/// accumulating it.
fn scan_morsel(
    spec: &GroupSpec,
    table: &Table,
    inputs: &AggInputs,
    rows: Range<usize>,
    scratch: &mut WorkerScratch,
) -> Result<MorselOutput> {
    scratch.gt.clear(spec.group_cols.len());
    let mut out = MorselOutput {
        num_local_groups: 0,
        local_keys: Vec::new(),
        row_gids: Vec::new(),
        row_vals: vec![Vec::new(); inputs.input_cols.len()],
    };
    scan_batches(
        spec,
        table,
        inputs,
        rows,
        &mut scratch.gt,
        &mut scratch.scan,
        |batch| {
            out.row_gids.extend_from_slice(batch.gids);
            for (k, vals) in out.row_vals.iter_mut().enumerate() {
                vals.extend_from_slice(batch.input(k));
            }
        },
    )?;
    out.num_local_groups = scratch.gt.num_groups();
    out.local_keys = scratch.gt.key_arena().to_vec();
    Ok(out)
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

    // Each pool worker scans the morsels it claims with its own pooled
    // scratch; the outputs come back in morsel order, which is what makes
    // the merge independent of the worker schedule.
    let outputs = map_ordered(
        &morsels,
        cfg.threads,
        || WorkerScratch::new(width, inputs.input_cols.len()),
        |scratch, rows| scan_morsel(spec, table, &inputs, rows.clone(), scratch),
    );

    // Ordered merge: walk morsels in ascending id, remap local group ids
    // through the global table, and re-accumulate every aggregate row by
    // row — replaying the sequential scan's exact accumulation order.
    gt.clear(width);
    let mut acc = Accumulators::new(&spec.aggs, &inputs.agg_input);
    let mut gids: Vec<u32> = Vec::new();
    for out in outputs {
        let out = out?;
        gt.merge_partition(
            &out.local_keys,
            out.num_local_groups,
            &out.row_gids,
            &mut gids,
        );
        acc.add(&gids, gt.num_groups(), |k| &out.row_vals[k]);
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
    use crate::testutil::random_table;

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
            // And the rendered output matches the row-at-a-time reference
            // modulo NaN != NaN (covered by the fingerprints above).
            let out = par.apply(&bound.output).unwrap();
            let reference = execute_rows(&bound, table).unwrap();
            let canon = |o: &crate::exec::QueryOutput| -> Vec<(Vec<String>, u64)> {
                o.rows
                    .iter()
                    .map(|r| (r.attrs.clone(), r.val.to_bits()))
                    .collect()
            };
            assert_eq!(canon(&out), canon(&reference), "P={p} vs reference, {sql}");
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
