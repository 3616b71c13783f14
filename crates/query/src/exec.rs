//! Query execution.
//!
//! Two engines share the same semantics:
//!
//! * [`execute`] — the vectorized production path: the scan runs in
//!   batches of [`BATCH_ROWS`] rows; `WHERE` conjuncts refine a
//!   [`SelectionVector`] through typed per-column kernels; surviving rows
//!   have their group keys encoded into fixed-width `u64` lanes and
//!   assigned dense group ids by a [`crate::group::GroupTable`];
//!   aggregates accumulate columnarly per group id. The finished group
//!   phase is a [`GroupedResult`], from which `HAVING`/`ORDER BY`/`LIMIT`
//!   are derived in `O(groups)` — and which sessions cache so a moved
//!   threshold never rescans the table.
//! * [`execute_rows`] — the row-at-a-time reference implementation
//!   (per-row [`Value`] materialization, per-row key vectors). It collects
//!   each group's input values and finishes every aggregate from them at
//!   once — `SUM` through its own `msum` (`reference_sum`), independent
//!   of the vectorized engine's exact accumulators. It is kept as the
//!   differential-testing oracle and the benchmark baseline.
//!
//! Both engines share one set of aggregate semantics: `SUM`/`AVG` are the
//! correctly rounded exact sum (see [`crate::parallel`] and the README's
//! aggregate semantics), `MIN`/`MAX` the extremes of the non-NaN inputs
//! under IEEE `totalOrder`.

use crate::ast::{AggFunc, CmpOp, OrderDir};
use crate::group::{cmp_holds, encode_i64, fold_hash, Accumulators, GroupTable, GroupedResult};
use crate::plan::{BoundPredicate, BoundQuery, GroupSpec};
use qagview_common::{FxHashMap, QagError, Result, Value};
use qagview_storage::selection::{gather_f64, gather_i64_as_f64, SelOp, SelectionVector};
use qagview_storage::{Column, SumLane, Table};
use std::ops::Range;

/// Rows per scan batch of the vectorized pipeline. Sized so the per-batch
/// scratch (selection vector, encoded keys, group ids, gathered values)
/// stays L1/L2-resident.
pub const BATCH_ROWS: usize = 4096;

/// One output row: the grouping attribute values (display text) plus the
/// aggregate score.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRow {
    /// Grouping attribute values rendered as display text.
    pub attrs: Vec<String>,
    /// The aggregate score (`val`).
    pub val: f64,
}

/// The answer relation produced by a query — the paper's `S`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutput {
    /// Names of the grouping attributes.
    pub attr_names: Vec<String>,
    /// Name of the score column.
    pub val_name: String,
    /// The rows, in `ORDER BY` order.
    pub rows: Vec<QueryRow>,
}

fn sel_op(op: CmpOp) -> SelOp {
    match op {
        CmpOp::Eq => SelOp::Eq,
        CmpOp::Neq => SelOp::Ne,
        CmpOp::Lt => SelOp::Lt,
        CmpOp::Le => SelOp::Le,
        CmpOp::Gt => SelOp::Gt,
        CmpOp::Ge => SelOp::Ge,
    }
}

/// Refine `sel` by one bound predicate through the typed kernel matching
/// the (column type, literal type) pair.
pub(crate) fn apply_predicate(
    table: &Table,
    p: &BoundPredicate,
    sel: &mut SelectionVector,
) -> Result<()> {
    let col = table.column(p.col);
    match (&p.value, col) {
        // String literal absent from the table's interner: `=` can never
        // match, `<>` matches every (non-null) row. Ordered operators are
        // rejected at bind time; refuse them here too rather than silently
        // matching nothing.
        (None, _) => match p.op {
            CmpOp::Eq => sel.clear(),
            CmpOp::Neq => {}
            _ => {
                return Err(QagError::internal(
                    "ordered comparison against an interner-miss literal".to_string(),
                ))
            }
        },
        (Some(Value::Int(x)), Column::Int(v)) => sel.retain_cmp(v, sel_op(p.op), *x),
        (Some(Value::Float(x)), Column::Int(v)) => sel.retain_i64_vs_f64(v, sel_op(p.op), *x),
        (Some(Value::Int(x)), Column::Float(v)) => sel.retain_cmp(v, sel_op(p.op), *x as f64),
        (Some(Value::Float(x)), Column::Float(v)) => sel.retain_cmp(v, sel_op(p.op), *x),
        (Some(Value::Bool(b)), Column::Bool(v)) => sel.retain_bool(v, sel_op(p.op), *b),
        (Some(Value::Str(s)), Column::Str(v)) => match p.op {
            CmpOp::Eq => sel.retain_symbol_eq(v, *s, false),
            CmpOp::Neq => sel.retain_symbol_eq(v, *s, true),
            _ => {
                return Err(QagError::internal(
                    "ordered string comparisons are rejected at bind time".to_string(),
                ))
            }
        },
        (Some(v), col) => {
            return Err(QagError::internal(format!(
                "predicate literal {v:?} does not match column type {:?}",
                col.ty()
            )))
        }
    }
    Ok(())
}

/// Encode one column's lane of the batch keys, folding each row's hash as
/// it goes. `dense_start` is `Some(first_row)` when the selection is the
/// full contiguous batch — the common no-predicate case — letting the
/// loop walk the column slice directly instead of through the selection.
#[allow(clippy::too_many_arguments)] // private kernel; the args are the kernel's working set
fn encode_lane<T: Copy>(
    v: &[T],
    sel: &SelectionVector,
    dense_start: Option<usize>,
    enc: impl Fn(T) -> u64,
    out: &mut [u64],
    hashes: &mut [u64],
    j: usize,
    width: usize,
) {
    match dense_start {
        Some(start) => {
            for (i, &x) in v[start..start + sel.len()].iter().enumerate() {
                let e = enc(x);
                out[i * width + j] = e;
                hashes[i] = fold_hash(hashes[i], e);
            }
        }
        None => {
            for (i, &r) in sel.rows().iter().enumerate() {
                let e = enc(v[r as usize]);
                out[i * width + j] = e;
                hashes[i] = fold_hash(hashes[i], e);
            }
        }
    }
}

/// Encode the group key of every selected row into `out` (row-major, one
/// `u64` lane per group column), writing column by column so each column
/// type dispatches once per batch. The per-row key hash is folded
/// incrementally into `hashes` during the same cache-friendly passes, so
/// the group table never has to re-walk the keys to hash them.
pub(crate) fn encode_keys(
    table: &Table,
    group_cols: &[usize],
    sel: &SelectionVector,
    dense_start: Option<usize>,
    out: &mut Vec<u64>,
    hashes: &mut Vec<u64>,
) -> Result<()> {
    let width = group_cols.len();
    out.clear();
    out.resize(sel.len() * width, 0);
    hashes.clear();
    hashes.resize(sel.len(), 0);
    for (j, &c) in group_cols.iter().enumerate() {
        match table.column(c) {
            Column::Int(v) => encode_lane(v, sel, dense_start, encode_i64, out, hashes, j, width),
            Column::Str(v) => encode_lane(
                v,
                sel,
                dense_start,
                |s| u64::from(s.0),
                out,
                hashes,
                j,
                width,
            ),
            Column::Bool(v) => encode_lane(v, sel, dense_start, u64::from, out, hashes, j, width),
            Column::Float(_) => {
                return Err(QagError::internal(
                    "float group keys are rejected at bind time".to_string(),
                ))
            }
        }
    }
    Ok(())
}

/// The distinct aggregate input columns of a query and, per aggregate, the
/// index of the distinct column it reads (`None` for `COUNT`). Every scan
/// runs through [`scan_batches`], which gathers each distinct column
/// exactly once per batch however many aggregates read it.
pub(crate) struct AggInputs {
    pub(crate) input_cols: Vec<usize>,
    pub(crate) agg_input: Vec<Option<usize>>,
    /// The sum lane of each distinct input column.
    pub(crate) lanes: Vec<SumLane>,
}

/// Plan the aggregate input gathers, rejecting non-numeric input columns
/// before any scan work starts.
pub(crate) fn plan_agg_inputs(spec: &GroupSpec, table: &Table) -> Result<AggInputs> {
    // Distinct aggregate input columns (Count aggregates need none), each
    // gathered once per batch and shared by every aggregate reading it.
    let mut input_cols: Vec<usize> = Vec::new();
    let agg_input: Vec<Option<usize>> = spec
        .aggs
        .iter()
        .map(|agg| {
            let c = agg.col.filter(|_| agg.func != AggFunc::Count)?;
            Some(match input_cols.iter().position(|&ic| ic == c) {
                Some(k) => k,
                None => {
                    input_cols.push(c);
                    input_cols.len() - 1
                }
            })
        })
        .collect();
    let lanes = input_cols
        .iter()
        .map(|&c| {
            table.sum_lane(c).ok_or_else(|| {
                QagError::Execution(format!(
                    "aggregate input column is not numeric ({})",
                    table.column(c).ty().name()
                ))
            })
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(AggInputs {
        input_cols,
        agg_input,
        lanes,
    })
}

/// The per-batch buffers of [`scan_batches`], reusable across scans so a
/// worker that scans many morsels allocates them once.
pub(crate) struct ScanScratch {
    sel: SelectionVector,
    keys: Vec<u64>,
    hashes: Vec<u64>,
    gids: Vec<u32>,
    /// One gather buffer per distinct aggregate input column.
    gathered: Vec<Vec<f64>>,
}

impl ScanScratch {
    pub(crate) fn new(width: usize, num_inputs: usize) -> Self {
        ScanScratch {
            sel: SelectionVector::with_capacity(BATCH_ROWS),
            keys: Vec::with_capacity(BATCH_ROWS * width.max(1)),
            hashes: Vec::with_capacity(BATCH_ROWS),
            gids: Vec::with_capacity(BATCH_ROWS),
            gathered: (0..num_inputs)
                .map(|_| Vec::with_capacity(BATCH_ROWS))
                .collect(),
        }
    }
}

/// One batch that survived the predicates, as [`scan_batches`] hands it to
/// its caller.
pub(crate) struct ScanBatch<'a> {
    /// The group id of each selected row.
    pub(crate) gids: &'a [u32],
    /// Groups in the scan's table after this batch.
    pub(crate) num_groups: usize,
    table: &'a Table,
    input_cols: &'a [usize],
    gathered: &'a [Vec<f64>],
    sel: &'a SelectionVector,
    /// `Some(first_row)` when every row of a range batch survived.
    dense_start: Option<usize>,
}

impl<'a> ScanBatch<'a> {
    /// The table row of the batch's `i`-th selected row.
    pub(crate) fn row(&self, i: usize) -> usize {
        match self.dense_start {
            Some(start) => start + i,
            None => self.sel.rows()[i] as usize,
        }
    }

    /// The selected rows' values of distinct aggregate input `k`, in row
    /// order. A dense float batch is read straight off the column storage;
    /// every other batch was gathered into scratch once.
    pub(crate) fn input(&self, k: usize) -> &'a [f64] {
        match (
            self.table.column(self.input_cols[k]).as_f64(),
            self.dense_start,
        ) {
            (Some(v), Some(start)) => &v[start..start + self.gids.len()],
            _ => &self.gathered[k],
        }
    }
}

/// The one batch loop of every group-phase scan: the sequential scan and
/// each morsel of the parallel scan.
///
/// Walks the row range `rows` in batches of [`BATCH_ROWS`] rows, refines
/// each batch's selection through the `WHERE` predicates, encodes the
/// survivors' group keys, assigns their group ids in `gt`, gathers each
/// distinct aggregate input column once, and passes the batch to
/// `on_batch`. Batches are visited in ascending row order, so `gt` numbers
/// groups by first encounter.
pub(crate) fn scan_batches(
    spec: &GroupSpec,
    table: &Table,
    inputs: &AggInputs,
    rows: Range<usize>,
    gt: &mut GroupTable,
    scratch: &mut ScanScratch,
    mut on_batch: impl FnMut(&ScanBatch<'_>),
) -> Result<()> {
    let ScanScratch {
        sel,
        keys,
        hashes,
        gids,
        gathered,
    } = scratch;
    for first in rows.clone().step_by(BATCH_ROWS) {
        let len = BATCH_ROWS.min(rows.end - first);
        sel.fill_range(first as u32, (first + len) as u32);
        for p in &spec.predicates {
            apply_predicate(table, p, sel)?;
            if sel.is_empty() {
                break;
            }
        }
        if sel.is_empty() {
            continue;
        }

        // A batch is "dense" when no predicate dropped a row: the kernels
        // can then walk the column slices directly.
        let dense_start = (sel.len() == len).then_some(first);
        encode_keys(table, &spec.group_cols, sel, dense_start, keys, hashes)?;
        gt.assign(keys, hashes, sel.len(), gids);

        for (k, &c) in inputs.input_cols.iter().enumerate() {
            let col = table.column(c);
            if let Some(v) = col.as_f64() {
                // Dense float batches need no copy (see `ScanBatch::input`).
                if dense_start.is_none() {
                    gather_f64(v, sel, &mut gathered[k]);
                }
            } else if let Some(v) = col.as_i64() {
                match dense_start {
                    // Dense i64 batch: convert off the contiguous slice,
                    // no selection indirection.
                    Some(start) => {
                        gathered[k].clear();
                        gathered[k].extend(v[start..start + len].iter().map(|&x| x as f64));
                    }
                    None => gather_i64_as_f64(v, sel, &mut gathered[k]),
                }
            } else {
                unreachable!("non-numeric inputs rejected before the scan");
            }
        }
        on_batch(&ScanBatch {
            gids,
            num_groups: gt.num_groups(),
            table,
            input_cols: &inputs.input_cols,
            gathered,
            sel,
            dense_start,
        });
    }
    Ok(())
}

/// Run the group phase of a query — batched filter, group-id assignment,
/// columnar aggregation — producing the cacheable [`GroupedResult`].
pub fn group_aggregate(spec: &GroupSpec, table: &Table) -> Result<GroupedResult> {
    let mut gt = GroupTable::new(spec.group_cols.len());
    group_aggregate_with(spec, table, &mut gt)
}

/// [`group_aggregate`] against a caller-provided [`GroupTable`], so a
/// session can reuse the table's hash-map and key-arena allocations across
/// queries. The table is cleared first.
pub fn group_aggregate_with(
    spec: &GroupSpec,
    table: &Table,
    gt: &mut GroupTable,
) -> Result<GroupedResult> {
    gt.clear(spec.group_cols.len());
    let inputs = plan_agg_inputs(spec, table)?;
    let mut scratch = ScanScratch::new(spec.group_cols.len(), inputs.input_cols.len());
    let mut acc = Accumulators::new(&spec.aggs, &inputs.agg_input, &inputs.lanes);
    scan_batches(
        spec,
        table,
        &inputs,
        0..table.num_rows(),
        gt,
        &mut scratch,
        |batch| acc.add(batch.gids, batch.num_groups, |k| batch.input(k)),
    )?;
    GroupedResult::finish(table, spec, gt, &acc)
}

/// Execute a bound query through the vectorized pipeline, producing the
/// answer relation.
pub fn execute(query: &BoundQuery, table: &Table) -> Result<QueryOutput> {
    group_aggregate(&query.group, table)?.apply(&query.output)
}

// ---------------------------------------------------------------------------
// Row-at-a-time reference engine
// ---------------------------------------------------------------------------

/// Hashable group key part (floats are banned from GROUP BY at bind time).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum KeyPart {
    Int(i64),
    Str(u32),
    Bool(bool),
}

fn key_part(v: Value) -> Result<KeyPart> {
    match v {
        Value::Int(i) => Ok(KeyPart::Int(i)),
        Value::Str(s) => Ok(KeyPart::Str(s.0)),
        Value::Bool(b) => Ok(KeyPart::Bool(b)),
        other => Err(QagError::internal(format!(
            "unhashable group key {other:?}"
        ))),
    }
}

/// Per-group inputs of one aggregate, kept whole: the reference engine
/// finishes every function from all of a group's values at once, sharing
/// no accumulator code with the vectorized engine.
#[derive(Debug, Clone, Default)]
struct RefAgg {
    count: u64,
    values: Vec<f64>,
}

impl RefAgg {
    fn update(&mut self, x: Option<f64>) {
        // `None` means COUNT — count the row without a value.
        self.count += 1;
        if let Some(x) = x {
            self.values.push(x);
        }
    }

    fn finish(&self, func: AggFunc) -> Result<f64> {
        // MIN/MAX ignore NaNs and order the rest by IEEE totalOrder
        // (-0.0 < +0.0); a group without a non-NaN input has NaN extremes.
        let non_nan = || self.values.iter().copied().filter(|x| !x.is_nan());
        Ok(match func {
            AggFunc::Count => self.count as f64,
            AggFunc::Sum => reference_sum(&self.values)?,
            AggFunc::Avg => {
                debug_assert!(self.count > 0, "groups are never empty");
                reference_sum(&self.values)? / self.count as f64
            }
            AggFunc::Min => non_nan().min_by(f64::total_cmp).unwrap_or(f64::NAN),
            AggFunc::Max => non_nan().max_by(f64::total_cmp).unwrap_or(f64::NAN),
        })
    }
}

/// The reference `SUM`: the exact sum of `values` rounded once to the
/// nearest float (ties to even; an exact zero is `+0.0`), NaN if any input
/// is NaN or both infinities occur, else `±∞` if one does.
///
/// Finite values go through Shewchuk's `msum` (the algorithm of Python's
/// `math.fsum`): a list of non-overlapping partials that represents the
/// running sum exactly, then a top-down fold with the half-way correction
/// for ties. Partials stay finite while every prefix sum does, so the
/// values are visited in an order that keeps prefix sums between the
/// extremes of the inputs and the total: the next value has the sign
/// opposite the running sum's whenever one is left. A sum that still
/// overflows an intermediate partial is reported as an error rather than
/// guessed.
pub(crate) fn reference_sum(values: &[f64]) -> Result<f64> {
    if values.iter().any(|x| x.is_nan()) {
        return Ok(f64::NAN);
    }
    let pos_inf = values.contains(&f64::INFINITY);
    let neg_inf = values.contains(&f64::NEG_INFINITY);
    match (pos_inf, neg_inf) {
        (true, true) => return Ok(f64::NAN),
        (true, false) => return Ok(f64::INFINITY),
        (false, true) => return Ok(f64::NEG_INFINITY),
        (false, false) => {}
    }
    let mut pos: Vec<f64> = values.iter().copied().filter(|&x| x > 0.0).collect();
    let mut neg: Vec<f64> = values.iter().copied().filter(|&x| x < 0.0).collect();
    let mut partials: Vec<f64> = Vec::new();
    let mut running = 0.0f64;
    while let Some(x) = if running >= 0.0 {
        neg.pop().or_else(|| pos.pop())
    } else {
        pos.pop().or_else(|| neg.pop())
    } {
        let mut x = x;
        let mut i = 0;
        for j in 0..partials.len() {
            let mut y = partials[j];
            if x.abs() < y.abs() {
                std::mem::swap(&mut x, &mut y);
            }
            let hi = x + y;
            let lo = y - (hi - x);
            if lo != 0.0 {
                partials[i] = lo;
                i += 1;
            }
            x = hi;
        }
        if !x.is_finite() {
            return Err(QagError::Execution(
                "reference sum overflowed an intermediate partial".to_string(),
            ));
        }
        partials.truncate(i);
        partials.push(x);
        running = x;
    }
    // Fold the partials from the top until the fold stops being exact.
    let mut n = partials.len();
    let Some(&top) = partials.last() else {
        return Ok(0.0);
    };
    let mut hi = top;
    let mut lo = 0.0;
    n -= 1;
    while n > 0 {
        let x = hi;
        let y = partials[n - 1];
        n -= 1;
        hi = x + y;
        lo = y - (hi - x);
        if lo != 0.0 {
            break;
        }
    }
    // Half-way correction: `hi + lo` was a tie rounded to even, but the
    // partials below `lo` break the tie in `lo`'s direction.
    if n > 0 && ((lo < 0.0 && partials[n - 1] < 0.0) || (lo > 0.0 && partials[n - 1] > 0.0)) {
        let y = lo * 2.0;
        let x = hi + y;
        if y == x - hi {
            hi = x;
        }
    }
    // An exact zero sum is +0.0 whatever the zeros' signs.
    Ok(if hi == 0.0 { 0.0 } else { hi })
}

fn row_passes(table: &Table, row: usize, preds: &[BoundPredicate]) -> bool {
    preds.iter().all(|p| {
        let lhs = table.value(row, p.col);
        match &p.value {
            // String literal absent from the table: `=` never matches,
            // `<>` matches every (non-null) row.
            None => matches!(p.op, CmpOp::Neq),
            Some(rhs) => match p.op {
                CmpOp::Eq => lhs.sql_eq(rhs).unwrap_or(false),
                CmpOp::Neq => lhs.sql_eq(rhs).map(|b| !b).unwrap_or(false),
                _ => lhs
                    .sql_cmp(rhs)
                    .map(|o| cmp_holds(p.op, o))
                    .unwrap_or(false),
            },
        }
    })
}

/// Execute a bound query row-at-a-time — the reference implementation the
/// vectorized engine is differentially tested against, and the baseline of
/// the `query_exec` perf section.
pub fn execute_rows(query: &BoundQuery, table: &Table) -> Result<QueryOutput> {
    let spec = &query.group;
    let out = &query.output;
    // Group states keyed by the group-by values; insertion order retained
    // separately for deterministic output when no ORDER BY is given.
    let mut groups: FxHashMap<Vec<KeyPart>, usize> = FxHashMap::default();
    let mut keys: Vec<Vec<KeyPart>> = Vec::new();
    let mut states: Vec<Vec<RefAgg>> = Vec::new();
    let mut key_scratch: Vec<KeyPart> = Vec::with_capacity(spec.group_cols.len());

    for row in 0..table.num_rows() {
        if !row_passes(table, row, &spec.predicates) {
            continue;
        }
        key_scratch.clear();
        for &c in &spec.group_cols {
            key_scratch.push(key_part(table.value(row, c))?);
        }
        let gid = match groups.get(key_scratch.as_slice()) {
            Some(&g) => g,
            None => {
                let g = keys.len();
                groups.insert(key_scratch.clone(), g);
                keys.push(key_scratch.clone());
                states.push(vec![RefAgg::default(); spec.aggs.len()]);
                g
            }
        };
        for (ai, agg) in spec.aggs.iter().enumerate() {
            let x = match agg.col {
                None => None,
                Some(_) if agg.func == AggFunc::Count => None,
                Some(c) => Some(table.value(row, c).as_f64().ok_or_else(|| {
                    QagError::Execution(format!("aggregate input at row {row} is not numeric"))
                })?),
            };
            states[gid][ai].update(x);
        }
    }

    // HAVING + projection.
    let mut rows: Vec<(Vec<KeyPart>, QueryRow)> = Vec::with_capacity(keys.len());
    'group: for (gid, key) in keys.iter().enumerate() {
        for h in &out.having {
            let agg = &spec.aggs[h.agg_idx];
            let v = states[gid][h.agg_idx].finish(agg.func)?;
            let ord = v.partial_cmp(&h.value).ok_or_else(|| {
                QagError::Execution("NaN aggregate in HAVING comparison".to_string())
            })?;
            if !cmp_holds(h.op, ord) {
                continue 'group;
            }
        }
        let val = states[gid][0].finish(spec.aggs[0].func)?;
        let attrs = render_key(table, spec, key);
        rows.push((key.clone(), QueryRow { attrs, val }));
    }

    // ORDER BY val under the shared total order (NaN included),
    // deterministic tie-break on the group key.
    if let Some(dir) = out.order {
        rows.sort_by(|a, b| {
            let ord =
                crate::group::f64_sort_bits(a.1.val).cmp(&crate::group::f64_sort_bits(b.1.val));
            let ord = match dir {
                OrderDir::Asc => ord,
                OrderDir::Desc => ord.reverse(),
            };
            ord.then_with(|| a.0.cmp(&b.0))
        });
    }

    let mut rows: Vec<QueryRow> = rows.into_iter().map(|(_, r)| r).collect();
    if let Some(limit) = out.limit {
        rows.truncate(limit);
    }

    Ok(QueryOutput {
        attr_names: spec.group_names.clone(),
        val_name: out.agg_alias.clone(),
        rows,
    })
}

fn render_key(table: &Table, spec: &GroupSpec, key: &[KeyPart]) -> Vec<String> {
    key.iter()
        .zip(&spec.group_cols)
        .map(|(part, _)| match part {
            KeyPart::Int(i) => i.to_string(),
            KeyPart::Str(s) => table
                .interner()
                .resolve(qagview_common::Symbol(*s))
                .to_string(),
            KeyPart::Bool(b) => b.to_string(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::plan::bind;
    use qagview_storage::{Cell, ColumnType, Schema, TableBuilder};

    fn ratings() -> Table {
        let schema = Schema::from_pairs(&[
            ("gender", ColumnType::Str),
            ("occ", ColumnType::Str),
            ("adventure", ColumnType::Bool),
            ("rating", ColumnType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        let rows: Vec<(&str, &str, bool, f64)> = vec![
            ("M", "Student", true, 5.0),
            ("M", "Student", true, 4.0),
            ("M", "Student", false, 1.0),
            ("M", "Programmer", true, 4.0),
            ("F", "Student", true, 3.0),
            ("F", "Student", true, 2.0),
            ("F", "Educator", true, 5.0),
        ];
        for (g, o, a, r) in rows {
            b.push_row(vec![g.into(), o.into(), a.into(), Cell::Float(r)])
                .unwrap();
        }
        b.finish()
    }

    /// Run through the vectorized engine, asserting along the way that the
    /// row-at-a-time reference produces the identical output.
    fn run(sql: &str) -> QueryOutput {
        let t = ratings();
        let stmt = parse(sql).unwrap();
        let bound = bind(&stmt, &t).unwrap();
        let vectorized = execute(&bound, &t).unwrap();
        let reference = execute_rows(&bound, &t).unwrap();
        assert_eq!(vectorized, reference, "engines diverge on {sql}");
        vectorized
    }

    #[test]
    fn avg_group_by_with_where_and_order() {
        let out = run(
            "SELECT gender, occ, AVG(rating) AS val FROM r WHERE adventure = 1 \
             GROUP BY gender, occ ORDER BY val DESC",
        );
        assert_eq!(out.attr_names, vec!["gender", "occ"]);
        // Groups (adventure only): (M,Student)=4.5, (M,Programmer)=4.0,
        // (F,Student)=2.5, (F,Educator)=5.0.
        assert_eq!(out.rows.len(), 4);
        assert_eq!(out.rows[0].attrs, vec!["F", "Educator"]);
        assert_eq!(out.rows[0].val, 5.0);
        assert_eq!(out.rows[1].attrs, vec!["M", "Student"]);
        assert!((out.rows[1].val - 4.5).abs() < 1e-12);
        assert_eq!(out.rows[3].attrs, vec!["F", "Student"]);
    }

    #[test]
    fn having_count_filters_small_groups() {
        let out = run(
            "SELECT gender, occ, AVG(rating) AS val FROM r GROUP BY gender, occ \
             HAVING count(*) > 1 ORDER BY val DESC",
        );
        // Only (M,Student) [3 rows] and (F,Student) [2 rows] survive.
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows[0].attrs, vec!["M", "Student"]);
        assert!((out.rows[0].val - 10.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn multi_conjunct_having() {
        // Both conjuncts must hold: count(*) > 1 keeps (M,Student) and
        // (F,Student); avg(rating) >= 3 then drops (F,Student) [avg 2.5].
        let out = run(
            "SELECT gender, occ, AVG(rating) AS val FROM r GROUP BY gender, occ \
             HAVING count(*) > 1 AND avg(rating) >= 3 ORDER BY val DESC",
        );
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0].attrs, vec!["M", "Student"]);
        // And with the conjunct order flipped, the result is the same.
        let flipped = run(
            "SELECT gender, occ, AVG(rating) AS val FROM r GROUP BY gender, occ \
             HAVING avg(rating) >= 3 AND count(*) > 1 ORDER BY val DESC",
        );
        assert_eq!(out.rows, flipped.rows);
    }

    #[test]
    fn count_star_and_sum_min_max() {
        let out = run("SELECT gender, COUNT(*) AS val FROM r GROUP BY gender ORDER BY val DESC");
        assert_eq!(out.rows[0].attrs, vec!["M"]);
        assert_eq!(out.rows[0].val, 4.0);

        let out = run("SELECT gender, SUM(rating) AS val FROM r GROUP BY gender ORDER BY val DESC");
        assert_eq!(out.rows[0].val, 14.0); // M: 5+4+1+4

        let out = run("SELECT gender, MIN(rating) AS val FROM r GROUP BY gender ORDER BY val ASC");
        assert_eq!(out.rows[0].val, 1.0);

        let out = run("SELECT gender, MAX(rating) AS val FROM r GROUP BY gender ORDER BY val DESC");
        assert_eq!(out.rows[0].val, 5.0);
    }

    #[test]
    fn count_star_mixed_with_column_aggregates() {
        // COUNT(*) projected while HAVING references column aggregates.
        let out = run("SELECT gender, COUNT(*) AS val FROM r GROUP BY gender \
             HAVING avg(rating) > 3 AND max(rating) >= 5 ORDER BY val DESC");
        // M: avg 3.5, max 5 → kept (4 rows). F: avg 10/3, max 5 → kept (3).
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows[0].attrs, vec!["M"]);
        assert_eq!(out.rows[0].val, 4.0);
        assert_eq!(out.rows[1].val, 3.0);

        // Column aggregate projected while HAVING mixes COUNT(*) in.
        let out = run("SELECT occ, SUM(rating) AS val FROM r GROUP BY occ \
             HAVING count(*) > 1 AND min(rating) < 2 ORDER BY val ASC");
        // Student: count 5, min 1.0 → kept, sum 15. Others fail count/min.
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0].attrs, vec!["Student"]);
        assert_eq!(out.rows[0].val, 15.0);
    }

    #[test]
    fn limit_truncates() {
        let out = run(
            "SELECT gender, occ, AVG(rating) AS val FROM r GROUP BY gender, occ \
             ORDER BY val DESC LIMIT 2",
        );
        assert_eq!(out.rows.len(), 2);
    }

    #[test]
    fn string_equality_predicates() {
        let out = run(
            "SELECT occ, AVG(rating) AS val FROM r WHERE gender = 'F' GROUP BY occ \
             ORDER BY val DESC",
        );
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows[0].attrs, vec!["Educator"]);
    }

    #[test]
    fn missing_string_literal_matches_nothing_or_everything() {
        let none = run("SELECT occ, AVG(rating) AS val FROM r WHERE gender = 'X' GROUP BY occ");
        assert!(none.rows.is_empty());
        let all = run("SELECT occ, AVG(rating) AS val FROM r WHERE gender <> 'X' GROUP BY occ");
        assert_eq!(all.rows.len(), 3);
    }

    #[test]
    fn numeric_range_predicates() {
        let out = run(
            "SELECT gender, COUNT(*) AS val FROM r WHERE rating >= 4.0 GROUP BY gender \
             ORDER BY val DESC",
        );
        assert_eq!(out.rows[0].attrs, vec!["M"]);
        assert_eq!(out.rows[0].val, 3.0);
        assert_eq!(out.rows[1].val, 1.0);
    }

    #[test]
    fn ties_break_deterministically_on_group_key() {
        // Two groups share val 4.0 in this query; order must be stable
        // across runs (by encoded group key).
        let out = run(
            "SELECT gender, occ, MAX(rating) AS val FROM r GROUP BY gender, occ \
             ORDER BY val DESC",
        );
        let first_run: Vec<Vec<String>> = out.rows.iter().map(|r| r.attrs.clone()).collect();
        for _ in 0..3 {
            let again = run(
                "SELECT gender, occ, MAX(rating) AS val FROM r GROUP BY gender, occ \
                 ORDER BY val DESC",
            );
            let attrs: Vec<Vec<String>> = again.rows.iter().map(|r| r.attrs.clone()).collect();
            assert_eq!(first_run, attrs);
        }
    }

    #[test]
    fn order_by_ties_use_interned_key_order_in_both_directions() {
        // (M,Student) and (M,Programmer) tie at MAX(rating) = 4.0 once the
        // 5.0 row is filtered out. The documented tie-break is the encoded
        // group key ascending — i.e. interning order (first appearance in
        // the table), NOT display-string order — and it applies unreversed
        // under both ASC and DESC.
        let desc = run(
            "SELECT gender, occ, MAX(rating) AS val FROM r WHERE rating < 5 \
             GROUP BY gender, occ ORDER BY val DESC",
        );
        let tied: Vec<&Vec<String>> = desc
            .rows
            .iter()
            .filter(|r| r.val == 4.0)
            .map(|r| &r.attrs)
            .collect();
        // "Student" interns before "Programmer" (row order), so the
        // (M,Student) group precedes (M,Programmer) among the ties.
        assert_eq!(
            tied,
            vec![
                &vec!["M".to_string(), "Student".to_string()],
                &vec!["M".to_string(), "Programmer".to_string()]
            ]
        );
        let asc = run(
            "SELECT gender, occ, MAX(rating) AS val FROM r WHERE rating < 5 \
             GROUP BY gender, occ ORDER BY val ASC",
        );
        let tied_asc: Vec<&Vec<String>> = asc
            .rows
            .iter()
            .filter(|r| r.val == 4.0)
            .map(|r| &r.attrs)
            .collect();
        assert_eq!(tied, tied_asc, "tie order is direction-independent");
    }

    #[test]
    fn empty_result_for_all_filtered() {
        let out =
            run("SELECT gender, AVG(rating) AS val FROM r WHERE rating > 100 GROUP BY gender");
        assert!(out.rows.is_empty());
        assert_eq!(out.val_name, "val");
    }

    #[test]
    fn bool_group_by() {
        let out =
            run("SELECT adventure, AVG(rating) AS val FROM r GROUP BY adventure ORDER BY val DESC");
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows[0].attrs, vec!["true"]);
    }

    #[test]
    fn nan_aggregates_order_identically_in_both_engines() {
        // NaN scores get one well-defined slot in the shared total order
        // (above +inf), so ORDER BY — and therefore the cached
        // GroupedResult — stays byte-identical between engines even on
        // pathological float data.
        let schema =
            Schema::from_pairs(&[("g", ColumnType::Int), ("x", ColumnType::Float)]).unwrap();
        let mut b = TableBuilder::new(schema);
        for (g, x) in [
            (3i64, 2.0),
            (1, f64::NAN),
            (2, 5.0),
            (0, f64::NAN),
            (4, -1.0),
        ] {
            b.push_row(vec![Cell::Int(g), Cell::Float(x)]).unwrap();
        }
        let t = b.finish();
        // NaN != NaN under PartialEq, so byte-identity is asserted on
        // (attrs, value bits) instead of QueryOutput equality.
        let canon = |out: &QueryOutput| -> Vec<(Vec<String>, u64)> {
            out.rows
                .iter()
                .map(|r| (r.attrs.clone(), r.val.to_bits()))
                .collect()
        };
        for dir in ["ASC", "DESC"] {
            let sql = format!("SELECT g, AVG(x) AS val FROM t GROUP BY g ORDER BY val {dir}");
            let bound = bind(&parse(&sql).unwrap(), &t).unwrap();
            let vec_out = execute(&bound, &t).unwrap();
            let row_out = execute_rows(&bound, &t).unwrap();
            assert_eq!(canon(&vec_out), canon(&row_out), "{sql}");
            // NaN groups sit above +inf: last under ASC, first under DESC,
            // tied NaNs in group-key order either way.
            let attrs: Vec<&str> = vec_out.rows.iter().map(|r| r.attrs[0].as_str()).collect();
            match dir {
                "ASC" => assert_eq!(attrs, vec!["4", "3", "2", "0", "1"]),
                _ => assert_eq!(attrs, vec!["0", "1", "2", "3", "4"]),
            }
        }
    }

    #[test]
    fn int_predicates_beyond_2_pow_53_stay_exact_in_both_engines() {
        // i64 predicate comparisons must not round-trip through f64:
        // 2^53 and 2^53 + 1 are distinct i64s that collapse to one f64.
        let schema = Schema::from_pairs(&[("g", ColumnType::Str), ("n", ColumnType::Int)]).unwrap();
        let mut b = TableBuilder::new(schema);
        b.push_row(vec!["a".into(), Cell::Int(1i64 << 53)]).unwrap();
        b.push_row(vec!["b".into(), Cell::Int((1i64 << 53) + 1)])
            .unwrap();
        let t = b.finish();
        for (op, expected) in [("=", 1), ("<>", 1), ("<=", 1), (">", 1)] {
            let sql = format!(
                "SELECT g, COUNT(*) AS val FROM t WHERE n {op} 9007199254740992 GROUP BY g"
            );
            let bound = bind(&parse(&sql).unwrap(), &t).unwrap();
            let vec_out = execute(&bound, &t).unwrap();
            let row_out = execute_rows(&bound, &t).unwrap();
            assert_eq!(vec_out, row_out, "{sql}");
            assert_eq!(vec_out.rows.len(), expected, "{sql}");
        }
    }

    #[test]
    fn multiple_aggregates_share_one_gather_of_the_same_column() {
        // Three aggregates over the same column (plus COUNT(*)) must agree
        // with the reference engine — exercises the shared input-gather
        // path with and without a WHERE filter.
        for where_clause in ["", "WHERE adventure = 1 "] {
            run(&format!(
                "SELECT gender, AVG(rating) AS val FROM r {where_clause}GROUP BY gender \
                 HAVING min(rating) > 0 AND max(rating) <= 5 AND count(*) > 0 \
                 ORDER BY val DESC"
            ));
        }
    }

    #[test]
    fn nan_having_errors_in_both_engines_even_under_limit() {
        // HAVING is evaluated over every group before LIMIT cuts the
        // walk, so a NaN aggregate errors identically in both engines —
        // LIMIT must not let the vectorized path silently succeed where
        // the reference errors.
        let schema =
            Schema::from_pairs(&[("g", ColumnType::Int), ("x", ColumnType::Float)]).unwrap();
        let mut b = TableBuilder::new(schema);
        b.push_row(vec![Cell::Int(1), Cell::Float(1.0)]).unwrap();
        b.push_row(vec![Cell::Int(2), Cell::Float(f64::NAN)])
            .unwrap();
        let t = b.finish();
        let sql = "SELECT g, AVG(x) AS val FROM t GROUP BY g \
                   HAVING avg(x) > 0 ORDER BY val ASC LIMIT 1";
        let bound = bind(&parse(sql).unwrap(), &t).unwrap();
        let vec_err = execute(&bound, &t).unwrap_err();
        let row_err = execute_rows(&bound, &t).unwrap_err();
        assert!(vec_err.to_string().contains("NaN aggregate"), "{vec_err}");
        assert_eq!(vec_err.to_string(), row_err.to_string());
    }

    #[test]
    fn grouped_result_reuse_across_thresholds() {
        // One group phase, many output specs: every derived output must be
        // byte-identical to a cold end-to-end execution.
        let t = ratings();
        let base = "SELECT gender, occ, AVG(rating) AS val FROM r GROUP BY gender, occ \
                    HAVING count(*) > 0 ORDER BY val DESC";
        let bound = bind(&parse(base).unwrap(), &t).unwrap();
        let grouped = group_aggregate(&bound.group, &t).unwrap();
        assert_eq!(grouped.num_groups(), 4);
        assert_eq!(grouped.num_aggs(), 2); // AVG + COUNT(*)

        for threshold in 0..4 {
            for (dir, limit) in [("DESC", ""), ("ASC", ""), ("DESC", " LIMIT 2")] {
                let sql = format!(
                    "SELECT gender, occ, AVG(rating) AS val FROM r GROUP BY gender, occ \
                     HAVING count(*) > {threshold} ORDER BY val {dir}{limit}"
                );
                let b = bind(&parse(&sql).unwrap(), &t).unwrap();
                assert_eq!(
                    b.group.fingerprint(),
                    bound.group.fingerprint(),
                    "same group phase"
                );
                let from_cache = grouped.apply(&b.output).unwrap();
                let cold = execute(&b, &t).unwrap();
                assert_eq!(from_cache, cold, "{sql}");
            }
        }
    }

    #[test]
    fn reference_sum_rounds_the_exact_sum_once() {
        let sum = |v: &[f64]| reference_sum(v).unwrap();
        assert_eq!(sum(&[0.1, 0.2, 0.3]), 0.6);
        assert_eq!(sum(&[1e300, 1.0, -1e300]), 1.0);
        assert_eq!(sum(&[1e100, 1.0, -1e100, 1e-100]), 1.0);
        // Half-way correction: 1 + 2^-53 ties to even (1.0) unless a
        // lower partial breaks the tie upward.
        let half = f64::EPSILON / 2.0;
        assert_eq!(sum(&[1.0, half]), 1.0);
        assert_eq!(sum(&[1.0, half, f64::from_bits(1)]), 1.0 + f64::EPSILON);
        assert_eq!(sum(&[1.0, half, -f64::from_bits(1)]), 1.0);
        // Prefix sums stay in range by alternating signs.
        assert_eq!(sum(&[f64::MAX, f64::MAX, -f64::MAX]), f64::MAX);
        assert_eq!(sum(&[-0.0, -0.0]).to_bits(), 0, "an exact zero is +0.0");
        assert_eq!(sum(&[]).to_bits(), 0);
        assert!(sum(&[1.0, f64::NAN]).is_nan());
        assert!(sum(&[f64::INFINITY, f64::NEG_INFINITY]).is_nan());
        assert_eq!(sum(&[f64::NEG_INFINITY, 1.0]), f64::NEG_INFINITY);
        // A sum past the largest float is not guessed.
        assert!(reference_sum(&[f64::MAX, f64::MAX]).is_err());
    }

    #[test]
    fn batch_boundaries_do_not_change_results() {
        // A table larger than one batch, with group keys straddling batch
        // boundaries; vectorized and reference engines must agree exactly.
        let schema = Schema::from_pairs(&[
            ("g", ColumnType::Int),
            ("flag", ColumnType::Bool),
            ("x", ColumnType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::with_capacity(schema, 3 * BATCH_ROWS + 17);
        for i in 0..(3 * BATCH_ROWS + 17) as i64 {
            b.push_row(vec![
                Cell::Int(i % 37 - 18), // negative keys exercise the order-preserving encoding
                Cell::Bool(i % 3 == 0),
                Cell::Float((i % 101) as f64 / 4.0),
            ])
            .unwrap();
        }
        let t = b.finish();
        for sql in [
            "SELECT g, AVG(x) AS val FROM t GROUP BY g ORDER BY val DESC",
            "SELECT g, SUM(x) AS val FROM t WHERE flag = true GROUP BY g \
             HAVING count(*) > 20 ORDER BY val ASC",
            "SELECT g, MAX(x) AS val FROM t WHERE x >= 2.5 GROUP BY g \
             ORDER BY val DESC LIMIT 7",
        ] {
            let bound = bind(&parse(sql).unwrap(), &t).unwrap();
            assert_eq!(
                execute(&bound, &t).unwrap(),
                execute_rows(&bound, &t).unwrap(),
                "{sql}"
            );
        }
    }
}
