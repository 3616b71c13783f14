//! Adversarial tables shared by the scan tests of every group-phase
//! caller: the sequential and the morsel-parallel scans.

use crate::exec::BATCH_ROWS;
use qagview_common::Value;
use qagview_storage::{Cell, ColumnType, Schema, Table, TableBuilder};

/// Tiny deterministic xorshift so the property tests need no RNG dep.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random table whose float values exercise non-associativity (mixed
/// magnitudes), with occasional NaNs and signed zeros. Column `band`
/// alternates between 0 and 1 every one and a half batches, so
/// `WHERE band = 1` drops some batches whole, keeps others whole (dense)
/// and cuts through the rest.
pub(crate) fn random_table(seed: u64, rows: usize) -> Table {
    let schema = Schema::from_pairs(&[
        ("g", ColumnType::Int),
        ("s", ColumnType::Str),
        ("flag", ColumnType::Bool),
        ("x", ColumnType::Float),
        ("n", ColumnType::Int),
        ("band", ColumnType::Int),
    ])
    .unwrap();
    let mut rng = XorShift(seed.wrapping_mul(0x9e3779b97f4a7c15).max(1));
    let mut b = TableBuilder::with_capacity(schema, rows);
    for row in 0..rows {
        let g = rng.below(23) as i64 - 11;
        let s = format!("s{}", rng.below(7));
        let flag = rng.below(2) == 0;
        let x = match rng.below(41) {
            0 => f64::NAN,
            1 => -0.0,
            2 => 0.0,
            k if k < 10 => (rng.below(1000) as f64) * 1e-9,
            k if k < 20 => (rng.below(1000) as f64) * 1e6,
            _ => rng.below(10_000) as f64 / 16.0 - 300.0,
        };
        let n = rng.below(1_000_000) as i64 - 500_000;
        let band = (row / (3 * BATCH_ROWS / 2) % 2) as i64;
        b.push_row(vec![
            Cell::Int(g),
            s.as_str().into(),
            flag.into(),
            Cell::Float(x),
            Cell::Int(n),
            Cell::Int(band),
        ])
        .unwrap();
    }
    b.finish()
}

/// A table built to break order-dependent sums. `c` holds cents computed
/// in floating point (a fixed-lane column whose float-chain sums depend
/// on row order). `z` forces the general lane: per group, `±1e300` come in
/// cancelling pairs (at most one left over), mixed with `1e-300`,
/// subnormals, `-0.0`, mid-sized values, and rare `±inf` and NaN.
pub(crate) fn adversarial_table(seed: u64, rows: usize) -> Table {
    let schema = Schema::from_pairs(&[
        ("g", ColumnType::Int),
        ("s", ColumnType::Str),
        ("c", ColumnType::Float),
        ("z", ColumnType::Float),
    ])
    .unwrap();
    let mut rng = XorShift(seed.wrapping_mul(0x2545_f491_4f6c_dd1d).max(1));
    let groups = 17;
    let mut big_sign = vec![1.0f64; groups];
    let mut b = TableBuilder::with_capacity(schema, rows);
    for _ in 0..rows {
        let g = rng.below(groups as u64) as usize;
        let s = format!("s{}", rng.below(5));
        let c = (rng.below(200_000) as f64) * 0.01 - 1000.0;
        let z = match rng.below(1000) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            k if k < 100 => {
                let z = big_sign[g] * 1e300;
                big_sign[g] = -big_sign[g];
                z
            }
            k if k < 150 => 1e-300,
            k if k < 200 => -f64::from_bits(rng.below(1 << 52)),
            k if k < 250 => -0.0,
            k if k < 600 => (rng.below(1 << 20) as f64) * 1e-7,
            _ => (rng.below(1 << 30) as f64) / 3.0 - 1e8,
        };
        b.push_row(vec![
            Cell::Int(g as i64),
            s.as_str().into(),
            Cell::Float(c),
            Cell::Float(z),
        ])
        .unwrap();
    }
    b.finish()
}

/// `table` with its rows in a seeded random order (Fisher–Yates).
pub(crate) fn permuted(table: &Table, seed: u64) -> Table {
    let n = table.num_rows();
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = XorShift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1));
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut b = TableBuilder::with_capacity(table.schema().clone(), n);
    for r in order {
        let row = (0..table.schema().arity())
            .map(|c| match table.value(r, c) {
                Value::Int(x) => Cell::Int(x),
                Value::Float(x) => Cell::Float(x),
                Value::Bool(x) => Cell::Bool(x),
                Value::Str(_) => Cell::Str(table.display_value(r, c)),
                other => unreachable!("stored cells are never {other:?}"),
            })
            .collect();
        b.push_row(row).unwrap();
    }
    b.finish()
}
