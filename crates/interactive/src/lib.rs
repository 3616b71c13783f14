//! Interactive parameter selection (paper §6).
//!
//! The intended use of the framework is exploratory: the analyst keeps
//! adjusting `(k, L, D)` and expects instant answers. Running a §5 algorithm
//! from scratch per combination is too slow, so the paper precomputes whole
//! parameter planes by exploiting two incremental properties of the Hybrid
//! algorithm:
//!
//! 1. the Fixed-Order phase does not depend on `(k, D)` — run it **once**
//!    per `L` with an enlarged pool;
//! 2. the Bottom-Up phase merges one round at a time, so a single descent
//!    for a given `D` passes through the solutions for *every* `k` from the
//!    pool size down to 1; and by the **continuity property** (Prop. 6.1) a
//!    cluster's lifetime along that descent is one contiguous `k`-interval.
//!
//! [`precompute::Precomputed`] stores those lifetimes in one
//! [`interval_tree::IntervalTree`] per `D` — `O(N_D)` trees instead of
//! `O(N_k × N_D)` materialized solutions — and answers `solution(k, d)`
//! stabbing queries in `O(log N_k + |answer|)`. [`plot::GuidancePlot`]
//! exposes the Fig. 2 data series (average value vs. `k`, one curve per
//! `D`) with knee-point and flat-region detection for the §6.1 visual guide.
//!
//! All of it comes together in [`explore::Explorer`]: an owned,
//! `Send + Sync` engine that stacks four in-memory cache layers (group
//! phases, answer relations, parameter planes, drill-down summarizers)
//! under typed fingerprint keys with LRU bounds ([`cache::LruCache`]),
//! with the optional `.qag` plane store behind the plane layer, and
//! [`explore::ExploreSession`], the command-driven state machine of the
//! full interactive loop — every command answers with a refreshed
//! summary, the Fig. 2 guidance plot, an App. A.7 transition, and cache
//! provenance. The same incremental philosophy applies one layer down,
//! at the query that produces the answer relation in the first place:
//! the engine's first layer caches the finished group phase of every
//! query, so moving a `HAVING` threshold (or flipping `ORDER BY` /
//! `LIMIT`) re-derives `S` in `O(groups)` instead of rescanning the base
//! relation ([`explore::Explorer::answer_relation`] serves just that
//! relation).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod checkpoint;
pub mod explore;
pub mod interval_tree;
pub mod plot;
pub mod precompute;
#[cfg(test)]
mod session;
pub mod store;

pub use cache::{LayerStats, LruCache};
pub use checkpoint::{checkpoint_file_name, SessionCheckpoint};
pub use explore::{
    CacheLayer, CacheOutcome, CacheProvenance, ClusterView, Degradation, ExploreCommand,
    ExploreResponse, ExploreSession, ExploreState, Explorer, ExplorerConfig, ExplorerStats,
    PoisonStats, SessionSpec, StoreLayerStats, SummaryView,
};
pub use interval_tree::IntervalTree;
pub use plot::{DSeries, GuidancePlot};
pub use precompute::{PrecomputeConfig, Precomputed};
pub use store::{GcReport, StoreReader};
