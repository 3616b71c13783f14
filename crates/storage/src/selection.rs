//! Selection vectors and vectorized predicate kernels.
//!
//! A [`SelectionVector`] holds the row ids of one scan batch that are still
//! alive after the predicates evaluated so far. Each `WHERE` conjunct
//! refines it through a typed `retain_*` kernel that runs a tight loop over
//! one column slice — no per-row dynamic [`qagview_common::Value`] boxing,
//! no per-row branch on the column type (the type dispatch happens once per
//! batch, outside the loop).

use qagview_common::Symbol;

/// Comparison operator understood by the selection kernels.
///
/// The query layer lowers its AST-level comparison operators to this enum;
/// keeping a storage-local copy avoids a dependency cycle between the
/// storage and query crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// The row ids of one scan batch that survive the predicates applied so far.
///
/// # Examples
///
/// ```
/// use qagview_storage::{SelOp, SelectionVector};
///
/// let col = [5i64, 2, 9, 2, 7];
/// let mut sel = SelectionVector::new();
/// sel.fill_range(0, col.len() as u32);
/// sel.retain_cmp(&col, SelOp::Gt, 2);
/// assert_eq!(sel.rows(), &[0, 2, 4]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SelectionVector {
    rows: Vec<u32>,
}

impl SelectionVector {
    /// An empty selection.
    pub fn new() -> Self {
        SelectionVector::default()
    }

    /// An empty selection with capacity for `cap` rows.
    pub fn with_capacity(cap: usize) -> Self {
        SelectionVector {
            rows: Vec::with_capacity(cap),
        }
    }

    /// Reset to the contiguous row range `[start, end)` — the state of a
    /// batch before any predicate has run.
    pub fn fill_range(&mut self, start: u32, end: u32) {
        self.rows.clear();
        self.rows.extend(start..end);
    }

    /// The surviving row ids, in ascending order.
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// Number of surviving rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no row survives.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Drop every row (a predicate that can never match).
    pub fn clear(&mut self) {
        self.rows.clear();
    }

    /// Keep only rows where `col[row] <op> rhs`, for any column type whose
    /// elements compare directly (`i64`, `f64`, `bool`, [`Symbol`]).
    pub fn retain_cmp<T: Copy + PartialOrd>(&mut self, col: &[T], op: SelOp, rhs: T) {
        // Dispatch on the operator once, outside the loop, so each arm
        // monomorphizes to a tight scan over the raw slice.
        match op {
            SelOp::Eq => self.rows.retain(|&r| col[r as usize] == rhs),
            SelOp::Ne => self.rows.retain(|&r| col[r as usize] != rhs),
            SelOp::Lt => self.rows.retain(|&r| col[r as usize] < rhs),
            SelOp::Le => self.rows.retain(|&r| col[r as usize] <= rhs),
            SelOp::Gt => self.rows.retain(|&r| col[r as usize] > rhs),
            SelOp::Ge => self.rows.retain(|&r| col[r as usize] >= rhs),
        }
    }

    /// Keep only rows where `col[row] as f64 <op> rhs` — the mixed case of
    /// an integer column compared against a float literal.
    pub fn retain_i64_vs_f64(&mut self, col: &[i64], op: SelOp, rhs: f64) {
        match op {
            SelOp::Eq => self.rows.retain(|&r| col[r as usize] as f64 == rhs),
            SelOp::Ne => self.rows.retain(|&r| col[r as usize] as f64 != rhs),
            SelOp::Lt => self.rows.retain(|&r| (col[r as usize] as f64) < rhs),
            SelOp::Le => self.rows.retain(|&r| col[r as usize] as f64 <= rhs),
            SelOp::Gt => self.rows.retain(|&r| col[r as usize] as f64 > rhs),
            SelOp::Ge => self.rows.retain(|&r| col[r as usize] as f64 >= rhs),
        }
    }

    /// Keep only rows where a bool column equals (`Eq`) / differs from
    /// (`Ne`) `rhs`, or compares against it under an ordered operator
    /// (`false < true`, matching SQL boolean ordering).
    pub fn retain_bool(&mut self, col: &[bool], op: SelOp, rhs: bool) {
        self.retain_cmp(col, op, rhs)
    }

    /// Keep only rows whose interned string equals (`Eq`) or differs from
    /// (`Ne`) `rhs`. Ordered operators on strings are rejected at bind time
    /// and never reach the kernels.
    pub fn retain_symbol_eq(&mut self, col: &[Symbol], rhs: Symbol, negate: bool) {
        if negate {
            self.rows.retain(|&r| col[r as usize] != rhs);
        } else {
            self.rows.retain(|&r| col[r as usize] == rhs);
        }
    }
}

/// Gather `col[row]` for every selected row into `out` (cleared first).
pub fn gather_f64(col: &[f64], sel: &SelectionVector, out: &mut Vec<f64>) {
    out.clear();
    out.extend(sel.rows().iter().map(|&r| col[r as usize]));
}

/// Gather an integer column as `f64` for every selected row into `out`
/// (cleared first) — aggregate inputs are accumulated in float space.
pub fn gather_i64_as_f64(col: &[i64], sel: &SelectionVector, out: &mut Vec<f64>) {
    out.clear();
    out.extend(sel.rows().iter().map(|&r| col[r as usize] as f64));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel_over(n: usize) -> SelectionVector {
        let mut s = SelectionVector::new();
        s.fill_range(0, n as u32);
        s
    }

    #[test]
    fn fill_range_is_identity() {
        let s = sel_over(4);
        assert_eq!(s.rows(), &[0, 1, 2, 3]);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
    }

    #[test]
    fn every_operator_on_i64() {
        let col = [1i64, 2, 3, 2, 5];
        let cases: [(SelOp, &[u32]); 6] = [
            (SelOp::Eq, &[1, 3]),
            (SelOp::Ne, &[0, 2, 4]),
            (SelOp::Lt, &[0]),
            (SelOp::Le, &[0, 1, 3]),
            (SelOp::Gt, &[2, 4]),
            (SelOp::Ge, &[1, 2, 3, 4]),
        ];
        for (op, expected) in cases {
            let mut s = sel_over(col.len());
            s.retain_cmp(&col, op, 2i64);
            assert_eq!(s.rows(), expected, "{op:?}");
        }
    }

    #[test]
    fn conjuncts_refine_progressively() {
        let a = [1.0f64, 2.0, 3.0, 4.0, 5.0];
        let b = [true, true, false, true, false];
        let mut s = sel_over(5);
        s.retain_cmp(&a, SelOp::Ge, 2.0);
        s.retain_bool(&b, SelOp::Eq, true);
        assert_eq!(s.rows(), &[1, 3]);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn int_column_against_float_literal() {
        let col = [1i64, 2, 3];
        let mut s = sel_over(3);
        s.retain_i64_vs_f64(&col, SelOp::Gt, 1.5);
        assert_eq!(s.rows(), &[1, 2]);
        let mut s = sel_over(3);
        s.retain_i64_vs_f64(&col, SelOp::Eq, 2.0);
        assert_eq!(s.rows(), &[1]);
    }

    #[test]
    fn symbol_equality_and_negation() {
        let col = [Symbol(0), Symbol(1), Symbol(0)];
        let mut s = sel_over(3);
        s.retain_symbol_eq(&col, Symbol(0), false);
        assert_eq!(s.rows(), &[0, 2]);
        let mut s = sel_over(3);
        s.retain_symbol_eq(&col, Symbol(0), true);
        assert_eq!(s.rows(), &[1]);
    }

    #[test]
    fn gather_kernels() {
        let f = [0.5f64, 1.5, 2.5, 3.5];
        let i = [10i64, 20, 30, 40];
        let mut s = sel_over(4);
        s.retain_cmp(&f, SelOp::Gt, 1.0);
        let mut out = vec![9.9]; // must be cleared
        gather_f64(&f, &s, &mut out);
        assert_eq!(out, vec![1.5, 2.5, 3.5]);
        gather_i64_as_f64(&i, &s, &mut out);
        assert_eq!(out, vec![20.0, 30.0, 40.0]);
    }
}
