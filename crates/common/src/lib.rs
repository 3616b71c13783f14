//! Shared kernel for the `qagview` workspace.
//!
//! This crate hosts the small, dependency-free building blocks used by every
//! other crate in the reproduction of *"Interactive Summarization and
//! Exploration of Top Aggregate Query Answers"* (Wen et al., 2018):
//!
//! * [`error`] — the workspace-wide error type.
//! * [`hash`] — an FxHash-style fast hasher plus `HashMap`/`HashSet` aliases.
//!   The paper's §6.3 "hash values for fields" optimization boils down to
//!   hashing small integers instead of strings; a cheap multiplicative hasher
//!   is the natural companion.
//! * [`intern`] — the string interner implementing that §6.3 optimization:
//!   every categorical field value is mapped once to a dense `u32` symbol and
//!   all downstream pattern algebra operates on symbols.
//! * [`bitset`] — fixed-capacity bitsets used for tuple coverage bookkeeping.
//! * [`value`] — the dynamic value model shared by the storage and query
//!   layers.
//! * [`rng`] — deterministic seeded random number helpers so every dataset
//!   and randomized algorithm in the workspace is reproducible.
//! * [`wire`] — little-endian section (de)serialization primitives and the
//!   payload checksum used by the persistent precompute store.
//! * [`io`] — the pluggable store I/O surface: [`RealIo`] for production,
//!   [`FaultIo`] for deterministic fault injection (short reads, torn
//!   writes, `ENOSPC`, simulated crashes), and [`io::RetryPolicy`] for
//!   bounded jittered-backoff retry.
//! * [`par`] — the one worker pool: an ordered parallel map over scoped
//!   threads, shared by every parallel stage of the engine.
//! * [`json`] — a dependency-free JSON value, hostile-input-safe parser,
//!   and deterministic serializer shared by the bench tooling and the
//!   session server's wire protocol.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bitset;
pub mod error;
pub mod hash;
pub mod intern;
pub mod io;
pub mod json;
pub mod par;
pub mod rng;
pub mod value;
pub mod wire;

pub use bitset::FixedBitSet;
pub use error::{QagError, Result, StoreErrorKind};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use intern::{Interner, Symbol};
pub use io::{
    FaultIo, FaultKind, FaultPlan, FileMeta, IoEvent, IoOp, RealIo, RetryPolicy, StoreIo,
};
pub use value::Value;
