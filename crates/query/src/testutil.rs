//! Adversarial tables shared by the scan tests of every group-phase
//! caller: the sequential and the morsel-parallel scans.

use crate::exec::BATCH_ROWS;
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
