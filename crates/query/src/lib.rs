//! Restricted SQL aggregate query engine — the qagview reproduction's
//! PostgreSQL stand-in.
//!
//! The paper's workloads (App. A.8) are all of one shape:
//!
//! ```sql
//! SELECT g1, ..., gm, AVG(x) AS val
//! FROM t
//! WHERE p1 AND p2 ...
//! GROUP BY g1, ..., gm
//! HAVING COUNT(*) > c
//! ORDER BY val DESC
//! LIMIT n
//! ```
//!
//! This crate implements exactly that fragment end-to-end: [`lexer`] →
//! [`ast`] → [`parser`] → [`plan`] (name/type binding against a
//! [`qagview_storage::Table`], split into the expensive
//! [`plan::GroupSpec`] and the cheap [`plan::OutputSpec`]) → [`exec`]
//! (vectorized batched filter → group-id assignment via a reusable
//! [`group::GroupTable`] → columnar aggregation → `O(groups)` derivation
//! of having/order/limit from the cached [`group::GroupedResult`]). The
//! output is the paper's answer relation `S`: one row per group with its
//! display attribute values and score.
//!
//! # Examples
//!
//! ```
//! use qagview_storage::{Catalog, Cell, ColumnType, Schema, TableBuilder};
//! use qagview_query::run_query;
//!
//! let schema = Schema::from_pairs(&[
//!     ("gender", ColumnType::Str),
//!     ("rating", ColumnType::Float),
//! ]).unwrap();
//! let mut b = TableBuilder::new(schema);
//! b.push_row(vec![Cell::from("M"), Cell::from(4.0)]).unwrap();
//! b.push_row(vec![Cell::from("M"), Cell::from(2.0)]).unwrap();
//! b.push_row(vec![Cell::from("F"), Cell::from(5.0)]).unwrap();
//! let mut catalog = Catalog::new();
//! catalog.register("r", b.finish());
//!
//! let out = run_query(&catalog,
//!     "SELECT gender, AVG(rating) AS val FROM r GROUP BY gender ORDER BY val DESC").unwrap();
//! assert_eq!(out.rows.len(), 2);
//! assert_eq!(out.rows[0].attrs[0], "F");
//! assert_eq!(out.rows[0].val, 5.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod exec;
pub mod group;
pub mod lexer;
pub mod parallel;
pub mod parser;
pub mod plan;
#[cfg(test)]
mod testutil;

pub use ast::{AggFunc, CmpOp, Literal, OrderDir, SelectStmt};
pub use exec::{
    execute, execute_rows, group_aggregate, group_aggregate_with, QueryOutput, QueryRow,
};
pub use group::{GroupTable, GroupedResult};
pub use parallel::{
    group_aggregate_auto, group_aggregate_parallel, group_aggregate_parallel_with, ParallelConfig,
    ParallelScanStats,
};
pub use parser::parse;
pub use plan::{bind, BoundQuery, GroupSpec, OutputSpec};

use qagview_common::Result;
use qagview_storage::Catalog;

/// Parse, bind, and execute `sql` against `catalog` in one call.
///
/// This is the row-engine-adjacent *oracle* entry point: production
/// callers route through `qagview_interactive::Explorer::open_session`
/// instead, which adds caching and budgets on the same pipeline. Tests
/// keep calling this directly to cross-check them.
pub fn run_query(catalog: &Catalog, sql: &str) -> Result<QueryOutput> {
    let stmt = parse(sql)?;
    let table = catalog.require(&stmt.from)?;
    let bound = bind(&stmt, table)?;
    execute(&bound, table)
}
