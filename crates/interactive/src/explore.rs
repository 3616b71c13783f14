//! The owned, command-driven end-to-end exploration engine.
//!
//! The paper's whole point is one *interactive loop* (§6, Fig. 2): the
//! analyst moves a `HAVING` threshold or a `(k, L, D)` knob and expects an
//! instant refreshed summary. [`Explorer`] owns everything that loop
//! needs — a shared [`Catalog`] plus four fingerprint-keyed in-memory
//! cache layers — behind one `Send + Sync` value, so sessions on any
//! number of serving threads share every expensive artifact:
//!
//! 1. **group phases** — [`qagview_query::GroupedResult`]s keyed by
//!    `(TableId, GroupSpec fingerprint)`; a threshold tick never rescans
//!    the base table;
//! 2. **answer relations** — dense-coded [`AnswerSet`]s keyed by
//!    `(TableId, group ⊕ output fingerprint)`, built straight from the
//!    interned group codes (no display-string round trip);
//! 3. **parameter planes** — [`Precomputed`] `(k, D)` planes keyed by the
//!    answer set's *content* fingerprint and `(L, k_max)`, so even a
//!    threshold move that happens not to change the answer relation reuses
//!    the whole plane, backed by the optional `.qag` plane store
//!    ([`ExplorerConfig::store_dir`]);
//! 4. **summarizers** — owned [`qagview_core::Summarizer`]s keyed by the
//!    drill focus's content fingerprint and `L`, serving
//!    [`ExploreCommand::DrillDown`] focus views.
//!
//! [`ExploreSession`] holds the current exploration state
//! `(sql, k, L, D, threshold, drill)` and advances it through typed
//! [`ExploreCommand`]s; every command returns an [`ExploreResponse`] whose
//! [`CacheProvenance`] says which layer answered from cache, and whose
//! [`Transition`] (when the underlying relation is unchanged) feeds the
//! App. A.7 band diagram between consecutive summaries.
//!
//! Responses are deterministic functions of the state: re-running the
//! whole pipeline from scratch at the same state yields byte-identical
//! summaries and plots (property-tested), so cache hits are purely a cost
//! story.

pub use crate::cache::CacheOutcome;

use crate::cache::{Layer, LayerStats};
use crate::plot::{DSeries, GuidancePlot};
use crate::precompute::{PrecomputeConfig, Precomputed};
use qagview_common::io::{RealIo, RetryPolicy, StoreIo};
use qagview_common::{QagError, Result, StoreErrorKind};
use qagview_core::{Solution, Summarizer, DEFAULT_POOL_FACTOR};
use qagview_lattice::{AnswerSet, AnswerSetBuilder, Pattern, STAR};
use qagview_query::{
    bind, group_aggregate_auto, parse, BoundQuery, GroupTable, GroupedResult, ParallelScanStats,
};
use qagview_storage::{Catalog, Table, TableId};
use qagview_viz::Transition;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Default `k` of a fresh session (the paper's Fig. 1 walkthrough).
pub const DEFAULT_K: usize = 4;
/// Default `L` of a fresh session.
pub const DEFAULT_L: usize = 8;
/// Default `D` of a fresh session.
pub const DEFAULT_D: usize = 2;

/// Max cached answer relations (layer 2).
const ANSWERS_CACHE_ENTRIES: usize = 64;
/// Max cached `(k, D)` planes (layer 3).
const PLANE_CACHE_ENTRIES: usize = 8;
/// Max cached drill-down summarizers.
const SUMMARIZER_CACHE_ENTRIES: usize = 16;

/// Tuning knobs of an [`Explorer`] — cache bounds, plane shape, and the
/// optional persistent plane store.
#[derive(Debug, Clone)]
pub struct ExplorerConfig {
    /// Max cached group phases (layer 1).
    pub group_cache_entries: usize,
    /// Planes always materialize `k` up to at least this value, so knob
    /// moves within the range are pure lookups.
    pub default_k_max: usize,
    /// Directory of the persistent plane store. When set, a plane-cache
    /// miss probes `<dir>/plane-<fp>-l<L>-k<kmax>-p<pool>.qag` before building,
    /// and a cold build writes its plane set back (atomically), so the
    /// next *process* warm-starts in roughly the cost of reading the
    /// file. `None` (the default) keeps planes process-scoped.
    pub store_dir: Option<std::path::PathBuf>,
    /// Byte budget of the store directory. After every write-back the
    /// engine runs [`crate::store::gc`], evicting least-recently-used
    /// `.qag` files until the directory fits. `None` (the default) never
    /// evicts.
    pub store_budget_bytes: Option<u64>,
    /// Retry policy for *transient* store faults (a failed read that is
    /// not a clean [`StoreErrorKind::NotFound`], a failed write-back):
    /// bounded attempts with deterministic jittered backoff. Absences and
    /// corrupt files are never retried — they are probe misses.
    pub retry: RetryPolicy,
    /// Default per-session memory budget, bounding the bytes a command
    /// *retains* (answer relation + parameter plane estimates — not the
    /// transient build peak). Over budget the engine degrades instead of
    /// growing: first the plane is shed (uncached single-`(k, D)` serve,
    /// recorded as [`Degradation::PlaneShed`]); if even the degraded path
    /// cannot fit, the command is refused with a typed
    /// [`QagError::BudgetExceeded`] and the session state is untouched.
    /// `None` (the default) never degrades. Sessions can override it via
    /// [`ExploreSession::set_budget_bytes`].
    pub session_budget_bytes: Option<u64>,
    /// The I/O backend every store touch goes through: [`RealIo`] in
    /// production (the default), a [`qagview_common::FaultIo`] under
    /// fault-injection tests.
    pub store_io: Arc<dyn StoreIo>,
}

impl Default for ExplorerConfig {
    fn default() -> Self {
        ExplorerConfig {
            group_cache_entries: 32,
            default_k_max: 20,
            store_dir: None,
            store_budget_bytes: None,
            retry: RetryPolicy::default(),
            session_budget_bytes: None,
            store_io: Arc::new(RealIo),
        }
    }
}

/// Cumulative counters of the persistent plane-store tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreLayerStats {
    /// Plane sets loaded from a `.qag` file after a memory-cache miss.
    pub loads: u64,
    /// Probes that found no usable file (absent, corrupt, or keyed to a
    /// different answer set) and fell through to a cold build.
    pub probe_misses: u64,
    /// Plane sets written back after a cold build.
    pub writes: u64,
    /// Write-backs that failed even after retrying. Serving is unaffected —
    /// a failed write-back only costs the next process its warm start.
    pub write_errors: u64,
    /// Transient-fault retries across probes and write-backs (each retry
    /// slept one jittered backoff first).
    pub retries: u64,
    /// Orphaned temp files swept at engine construction.
    pub temp_cleanups: u64,
    /// `.qag` files evicted by the byte-budget GC.
    pub gc_evictions: u64,
    /// Bytes those evictions freed.
    pub gc_bytes_freed: u64,
}

/// A cache layer of the [`Explorer`], named for stats and provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheLayer {
    /// Layer 1: finished group phases.
    GroupPhase,
    /// Layer 2: dense-coded answer relations.
    Answers,
    /// Layer 3: `(k, D)` parameter planes.
    Planes,
    /// Drill-down summarizers.
    Summarizers,
    /// The store-tier counter block.
    Store,
}

/// How many times each layer's mutex was recovered from poisoning (a
/// thread panicked while holding it). Recovery clears the layer's cached
/// contents — cold rebuilds, never a propagated panic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoisonStats {
    /// Group-phase layer recoveries.
    pub group_phase: u64,
    /// Answer-relation layer recoveries.
    pub answers: u64,
    /// Plane layer recoveries.
    pub planes: u64,
    /// Summarizer layer recoveries.
    pub summarizers: u64,
    /// Store-counter block recoveries (contents kept; counters are plain
    /// data that cannot be mid-mutation in a observable way).
    pub store: u64,
}

impl PoisonStats {
    /// Total recoveries across every layer.
    pub fn total(&self) -> u64 {
        self.by_layer().iter().map(|&(_, n)| n).sum()
    }

    fn by_layer(&self) -> [(CacheLayer, u64); 5] {
        [
            (CacheLayer::GroupPhase, self.group_phase),
            (CacheLayer::Answers, self.answers),
            (CacheLayer::Planes, self.planes),
            (CacheLayer::Summarizers, self.summarizers),
            (CacheLayer::Store, self.store),
        ]
    }
}

/// One graceful-degradation event of a single command, recorded in
/// [`CacheProvenance::degradations`]. Every entry means the engine chose
/// a cheaper/safer path instead of failing; the view itself is still a
/// correct answer for the state (a [`Degradation::PlaneShed`] view is
/// computed directly rather than from the precomputed plane).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Degradation {
    /// A transient store fault was retried (with backoff) and the
    /// operation eventually succeeded after `attempts` tries.
    StoreRetried {
        /// Total attempts including the successful one.
        attempts: u32,
    },
    /// A plane write-back failed every attempt and was dropped. Serving
    /// continued from memory; the next process pays a cold build.
    StoreWriteBackDropped {
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// The session memory budget could not fit the full `(k, D)` plane;
    /// the view was served by a direct uncached solve instead, and the
    /// guidance plot collapsed to the single requested point.
    PlaneShed {
        /// Bytes the full plane path would have retained.
        needed: u64,
        /// The session budget that refused it.
        budget: u64,
    },
    /// A poisoned layer mutex was recovered by clearing that layer.
    PoisonRecovered {
        /// Which layer was recovered.
        layer: CacheLayer,
    },
}

/// Cumulative counters of every [`Explorer`] cache layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExplorerStats {
    /// Group-phase cache (layer 1).
    pub group_phase: LayerStats,
    /// Answer-relation cache (layer 2).
    pub answers: LayerStats,
    /// Parameter-plane cache (layer 3).
    pub planes: LayerStats,
    /// Drill-down summarizer cache.
    pub summarizers: LayerStats,
    /// Persistent plane-store tier (layer 3's disk backing).
    pub store: StoreLayerStats,
    /// Morsel-parallel scan counters across every group-phase cache miss
    /// (all zero while scanned tables stay below the parallel threshold).
    pub scan: ParallelScanStats,
    /// Lock-poison recoveries per layer.
    pub poison: PoisonStats,
}

/// Which cache layer answered each stage of one command, plus a cumulative
/// counter snapshot. This is how a caller (or a future HTTP facade) can
/// see — and assert — that a threshold tick after a knob move hit both the
/// group-phase cache and the precomputed plane.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheProvenance {
    /// Layer 1: finished group phase of the query's scan.
    pub group_phase: CacheOutcome,
    /// Layer 2: dense-coded answer relation.
    pub answers: CacheOutcome,
    /// Layer 3: the `(k, D)` parameter plane serving summary and plot.
    /// [`CacheOutcome::Miss`] means the in-memory cache had to be filled —
    /// `plane_store` says whether the fill came from disk or a cold build.
    pub plane: CacheOutcome,
    /// The persistent store tier, probed only on a plane-cache miss with a
    /// configured [`ExplorerConfig::store_dir`]: `Some(Hit)` — the plane
    /// set was loaded from a `.qag` file; `Some(Miss)` — no usable file,
    /// the plane was built cold (and written back); `None` — the store was
    /// not consulted (memory hit, or no store configured).
    pub plane_store: Option<CacheOutcome>,
    /// Drill-down summarizer (only consulted while a drill is active).
    pub summarizer: Option<CacheOutcome>,
    /// Every graceful degradation this command took (store retries,
    /// dropped write-backs, plane sheds, poison recoveries). Empty on the
    /// happy path.
    pub degradations: Vec<Degradation>,
    /// Cumulative hits/misses/evictions per layer, after this command.
    pub stats: ExplorerStats,
}

/// One cluster of a rendered summary.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterView {
    /// The cluster's pattern (codes relative to the summarized relation).
    pub pattern: Pattern,
    /// The pattern rendered against the relation's domains, e.g.
    /// `(1980, *, M, *)`.
    pub label: String,
    /// Number of answer tuples the cluster covers.
    pub size: usize,
    /// How many of the top-`L` tuples it covers (the dark fraction of the
    /// GUI's boxes).
    pub top_l: usize,
    /// Sum of covered scores.
    pub sum: f64,
    /// Average covered score.
    pub avg: f64,
}

/// A rendered summary: the solution clusters plus objective bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryView {
    /// Attribute names of the summarized relation.
    pub attr_names: Vec<String>,
    /// Clusters, highest average first.
    pub clusters: Vec<ClusterView>,
    /// Distinct tuples covered by the union of the clusters.
    pub covered: usize,
    /// Size of the summarized relation.
    pub total: usize,
    /// The Max-Avg objective value.
    pub avg: f64,
    /// `k` the summary was computed for.
    pub k: usize,
    /// Effective coverage parameter (the session `L` capped at the
    /// relation size).
    pub l: usize,
    /// Effective distance parameter (the session `D` capped at `m`).
    pub d: usize,
}

/// The full exploration state a response was computed from. Feeding the
/// same state to a fresh engine reproduces the same summary and plot
/// byte-for-byte.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreState {
    /// The SQL of the current query.
    pub sql: String,
    /// Size knob `k`.
    pub k: usize,
    /// Coverage knob `L` (capped at the relation size when applied).
    pub l: usize,
    /// Distance knob `D` (capped at `m` when applied).
    pub d: usize,
    /// Override for the first `HAVING` conjunct's threshold; `None` keeps
    /// the value written in the SQL.
    pub threshold: Option<f64>,
    /// Focus pattern of an active drill-down (`None` = overview).
    pub drill: Option<Pattern>,
}

/// Typed session commands — the verbs of the §6 interactive loop.
#[derive(Debug, Clone, PartialEq)]
pub enum ExploreCommand {
    /// Switch to a new query (clears any drill; knobs are kept).
    SetQuery(String),
    /// Move the `HAVING` slider: override the first conjunct's threshold.
    SetThreshold(f64),
    /// Set the size knob `k ≥ 1`.
    SetK(usize),
    /// Set the coverage knob `L ≥ 1`.
    SetL(usize),
    /// Set the distance knob `D`.
    SetD(usize),
    /// Focus on the answers covered by a pattern and re-summarize within
    /// (an all-`∗` pattern returns to the overview).
    DrillDown(Pattern),
}

/// The engine's answer to one command.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreResponse {
    /// The state the response was computed from.
    pub state: ExploreState,
    /// The refreshed summary (of the drill focus, if one is active).
    pub summary: SummaryView,
    /// The Fig. 2 guidance plot of the current base relation.
    pub plot: GuidancePlot,
    /// Band-diagram transition from the previous summary, when both were
    /// computed over the identical relation (parameter nudges); `None`
    /// right after the relation itself changed.
    pub transition: Option<Transition>,
    /// Which cache layers answered, and the cumulative counters.
    pub provenance: CacheProvenance,
}

impl ExploreResponse {
    /// Whether two responses show the user the same thing: state, summary,
    /// plot, and transition all equal. Cache provenance is
    /// deliberately excluded — a warm and a cold run of the same state
    /// must compare equal under this method.
    pub fn same_view(&self, other: &ExploreResponse) -> bool {
        self.state == other.state
            && self.summary == other.summary
            && self.plot == other.plot
            && self.transition == other.transition
    }
}

/// Everything `view` computes for one state.
#[derive(Debug)]
struct EngineView {
    relation: Arc<AnswerSet>,
    relation_fp: u64,
    l_eff: usize,
    solution: Solution,
    summary: SummaryView,
    plot: GuidancePlot,
    /// Estimated bytes this view pinned in shared caches (relation +
    /// plane; zero plane contribution when the plane was shed).
    retained_bytes: u64,
}

struct AnswerEntry {
    answers: Arc<AnswerSet>,
    fp: u64,
}

/// What the first two cache layers hand the rest of the pipeline.
struct RelationOutcome {
    entry: Arc<AnswerEntry>,
    group_out: CacheOutcome,
    answers_out: CacheOutcome,
}

/// The owned, thread-shareable exploration engine.
///
/// `Explorer` is `Send + Sync`: wrap it in an `Arc`, hand clones to any
/// number of threads, and open an [`ExploreSession`] per analyst. All
/// sessions share the four cache layers, so the second analyst asking
/// the paper's Example 1.1 query pays `O(groups)` instead of a scan.
///
/// ```
/// use qagview_interactive::{ExploreCommand, Explorer, SessionSpec};
/// use qagview_storage::{Catalog, Cell, ColumnType, Schema, TableBuilder};
/// use std::sync::Arc;
///
/// let schema = Schema::from_pairs(&[
///     ("genre", ColumnType::Str),
///     ("rating", ColumnType::Float),
/// ]).unwrap();
/// let mut b = TableBuilder::new(schema);
/// for (g, r) in [("a", 4.0), ("a", 5.0), ("b", 2.0), ("b", 1.0)] {
///     b.push_row(vec![g.into(), Cell::Float(r)]).unwrap();
/// }
/// let mut catalog = Catalog::new();
/// catalog.register("r", b.finish());
///
/// let engine = Arc::new(Explorer::new(catalog));
/// let mut session = engine.open_session(SessionSpec::default()).unwrap();
/// let response = session.apply(ExploreCommand::SetQuery(
///     "SELECT genre, AVG(rating) AS val FROM r GROUP BY genre \
///      ORDER BY val DESC".into(),
/// )).unwrap();
/// assert_eq!(response.summary.total, 2);
/// ```
///
/// Each cache layer has its **own** mutex, and every lock
/// is held only for a lookup or an insert — artifact construction (table
/// scans, plane builds, drill summarizer builds) runs unlocked. A cold
/// `(k, D)` plane build on one table therefore never serializes
/// group-phase or answer-relation probes for other sessions, and no code
/// path ever holds two layer locks at once (so the split cannot
/// deadlock). Two sessions racing on the same missing key may both
/// compute it; the artifacts are deterministic, so the duplicate work is
/// wasted cost only, and the last insert wins.
pub struct Explorer {
    catalog: Arc<Catalog>,
    cfg: ExplorerConfig,
    groups: Layer<(TableId, u64), Arc<GroupedResult>>,
    answers: Layer<(TableId, u64), Arc<AnswerEntry>>,
    planes: Layer<(u64, usize, usize), Arc<Precomputed<'static>>>,
    summarizers: Layer<(u64, usize), Arc<Summarizer<'static>>>,
    /// Morsel-parallel scans across every group-phase miss.
    parallel_scans: AtomicU64,
    store_counters: Mutex<StoreLayerStats>,
    store_recoveries: AtomicU64,
}

impl std::fmt::Debug for Explorer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Explorer")
            .field("catalog_tables", &self.catalog.len())
            .field("cfg", &self.cfg)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Fold two fingerprints into one composite key lane.
#[inline]
fn combine(a: u64, b: u64) -> u64 {
    (a.rotate_left(5) ^ b).wrapping_mul(0x517c_c1b7_2722_0a95)
}

impl Explorer {
    /// An engine owning `catalog`, with default configuration.
    pub fn new(catalog: Catalog) -> Self {
        Self::from_shared(Arc::new(catalog), ExplorerConfig::default())
    }

    /// An engine owning `catalog` with explicit configuration.
    pub fn with_config(catalog: Catalog, cfg: ExplorerConfig) -> Self {
        Self::from_shared(Arc::new(catalog), cfg)
    }

    /// An engine over an already-shared catalog (e.g. one catalog serving
    /// several engines in tests).
    ///
    /// When a store directory is configured, construction sweeps the
    /// orphaned temp files a crashed predecessor left behind — this runs
    /// before any writer of this process exists, so every matching file
    /// is guaranteed stale. A sweep failure (e.g. the directory does not
    /// exist yet) is ignored; the store degrades, the engine serves.
    pub fn from_shared(catalog: Arc<Catalog>, cfg: ExplorerConfig) -> Self {
        let temp_cleanups = cfg
            .store_dir
            .as_ref()
            .and_then(|dir| crate::store::clean_orphan_temps(cfg.store_io.as_ref(), dir).ok())
            .unwrap_or(0) as u64;
        Explorer {
            catalog,
            groups: Layer::new(cfg.group_cache_entries),
            answers: Layer::new(ANSWERS_CACHE_ENTRIES),
            planes: Layer::new(PLANE_CACHE_ENTRIES),
            summarizers: Layer::new(SUMMARIZER_CACHE_ENTRIES),
            parallel_scans: AtomicU64::new(0),
            store_counters: Mutex::new(StoreLayerStats {
                temp_cleanups,
                ..Default::default()
            }),
            store_recoveries: AtomicU64::new(0),
            cfg,
        }
    }

    /// The catalog this engine serves.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The engine configuration.
    pub fn config(&self) -> &ExplorerConfig {
        &self.cfg
    }

    /// Lock the store-tier counters. A poisoned lock is recovered rather
    /// than propagated, like the cache layers' — but the counters are
    /// plain `u64`s, so the contents are kept (the worst a panic
    /// mid-increment leaves behind is an off-by-one count) and only the
    /// recovery is counted.
    fn store_stats(&self) -> MutexGuard<'_, StoreLayerStats> {
        self.store_counters.lock().unwrap_or_else(|poisoned| {
            self.store_counters.clear_poison();
            self.store_recoveries.fetch_add(1, Ordering::Relaxed);
            poisoned.into_inner()
        })
    }

    fn poison_stats(&self) -> PoisonStats {
        PoisonStats {
            group_phase: self.groups.recoveries(),
            answers: self.answers.recoveries(),
            planes: self.planes.recoveries(),
            summarizers: self.summarizers.recoveries(),
            store: self.store_recoveries.load(Ordering::Relaxed),
        }
    }

    /// Snapshot the cumulative cache counters of every layer. Each layer
    /// lock is taken (and released) in turn — never nested.
    pub fn stats(&self) -> ExplorerStats {
        ExplorerStats {
            group_phase: self.groups.stats(),
            answers: self.answers.stats(),
            planes: self.planes.stats(),
            summarizers: self.summarizers.stats(),
            store: *self.store_stats(),
            scan: ParallelScanStats {
                parallel_scans: self.parallel_scans.load(Ordering::Relaxed),
            },
            poison: self.poison_stats(),
        }
    }

    /// The `.qag` path a plane keyed `(fp, l_eff, k_max)` persists at, when
    /// a store directory is configured.
    fn store_path(&self, fp: u64, l_eff: usize, k_max: usize) -> Option<std::path::PathBuf> {
        self.cfg.store_dir.as_ref().map(|dir| {
            dir.join(crate::store::plane_file_name(
                fp,
                l_eff,
                k_max,
                DEFAULT_POOL_FACTOR,
            ))
        })
    }

    /// Probe the persistent store for a compatible plane set. Any failure —
    /// absent file, corruption, foreign fingerprint, stale shape — is a
    /// probe miss: the caller rebuilds cold and overwrites the file.
    ///
    /// Only *transient* read faults ([`StoreErrorKind::Io`]) retry, with
    /// jittered backoff; a clean [`StoreErrorKind::NotFound`] and every
    /// content failure miss immediately. A successful load touches the
    /// file so the byte-budget GC sees it as recently used.
    fn store_probe(
        &self,
        path: &std::path::Path,
        base: &Arc<AnswerSet>,
        fp: u64,
        l_eff: usize,
        k_max: usize,
        degradations: &mut Vec<Degradation>,
    ) -> Option<Precomputed<'static>> {
        let io = self.cfg.store_io.as_ref();
        let policy = &self.cfg.retry;
        let attempts = policy.attempts.max(1);
        let mut reader = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                io.sleep(policy.backoff(attempt - 1));
                self.store_stats().retries += 1;
            }
            match crate::store::StoreReader::open_io(io, path) {
                Ok(r) => {
                    if attempt > 0 {
                        degradations.push(Degradation::StoreRetried {
                            attempts: attempt + 1,
                        });
                    }
                    reader = Some(r);
                    break;
                }
                // Transient fault: retry. Everything else — absence,
                // truncation, corruption — is permanent for this probe.
                Err(e) if e.store_kind() == Some(StoreErrorKind::Io) => continue,
                Err(_) => break,
            }
        }
        let reader = reader?;
        let cfg = reader.config();
        // The file must serve exactly what the in-memory key promises:
        // same relation, same L, a grid covering the full knob ranges, and
        // the same pool factor — pool size changes which clusters the
        // Fixed-Order phase keeps, so a plane built under a different
        // pool_factor would serve different (valid but non-reproducible)
        // summaries, breaking the warm-equals-cold invariant.
        if reader.fingerprint() != fp
            || reader.l() != l_eff
            || cfg.k_min != 1
            || cfg.k_max != k_max
            || cfg.d_min != 0
            || cfg.d_max != base.arity()
            || cfg.pool_factor != DEFAULT_POOL_FACTOR
        {
            return None;
        }
        let pre = reader.into_precomputed(Arc::clone(base)).ok()?;
        // Refresh recency so the byte-budget GC keeps what sessions
        // actually load; a failed touch only skews eviction order.
        let _ = io.touch(path);
        Some(pre)
    }

    /// Rough bytes a dense answer relation retains: `m` u32 codes plus an
    /// f64 score per tuple, plus fixed overhead. An *estimate* — budget
    /// checks need the right order of magnitude, not an allocator audit.
    fn relation_bytes(n: usize, m: usize) -> u64 {
        (n * (4 * m + 8) + 1024) as u64
    }

    /// Rough bytes a full `(k, D)` plane set retains: per-`D` state rows
    /// and interval records, plus the shared cluster pool (pattern +
    /// coverage bitset/list per pooled cluster).
    fn plane_bytes(&self, n: usize, m: usize, k_max: usize) -> u64 {
        let per_plane = k_max * 24 + k_max * 12;
        let pool = DEFAULT_POOL_FACTOR * k_max * (4 * m + n / 8 + 48);
        ((m + 1) * per_plane + pool + 4096) as u64
    }

    /// Compute the full view for one exploration state — the stateless
    /// engine entry point that [`ExploreSession::apply`] (and any future
    /// network facade) routes through. Deterministic in `state`: cache
    /// hits change only the [`CacheProvenance`], never the view.
    pub fn view(&self, state: &ExploreState) -> Result<(SummaryView, GuidancePlot)> {
        let (view, _) = self.view_internal(state, self.cfg.session_budget_bytes)?;
        Ok((view.summary, view.plot))
    }

    /// The exact dense-coded answer relation `S` of `sql` — layers 1–2
    /// only, no plane build. This is the documented entry point for
    /// callers that want the relation itself (baseline comparisons,
    /// offline summarization) rather than an interactive session; it
    /// shares the engine's caches, so a following
    /// [`Explorer::open_session`] on the same query is warm.
    ///
    /// A query that differs from a cached one only in its `HAVING`
    /// thresholds, `ORDER BY` direction, or `LIMIT` — a threshold-slider
    /// tick — is derived from the cached group phase without a rescan:
    ///
    /// ```
    /// use qagview_interactive::Explorer;
    /// use qagview_storage::{Catalog, Cell, ColumnType, Schema, TableBuilder};
    ///
    /// let schema = Schema::from_pairs(&[
    ///     ("genre", ColumnType::Str),
    ///     ("rating", ColumnType::Float),
    /// ]).unwrap();
    /// let mut b = TableBuilder::new(schema);
    /// for (g, r) in [("a", 4.0), ("a", 2.0), ("b", 5.0), ("b", 3.0)] {
    ///     b.push_row(vec![g.into(), Cell::Float(r)]).unwrap();
    /// }
    /// let mut catalog = Catalog::new();
    /// catalog.register("r", b.finish());
    ///
    /// let engine = Explorer::new(catalog);
    /// let base = "SELECT genre, AVG(rating) AS val FROM r GROUP BY genre \
    ///             HAVING count(*) > 0 ORDER BY val DESC";
    /// assert_eq!(engine.answer_relation(base).unwrap().len(), 2);
    /// // Moving the threshold hits the cached group phase: no rescan.
    /// let strict = "SELECT genre, AVG(rating) AS val FROM r GROUP BY genre \
    ///               HAVING count(*) > 9 ORDER BY val DESC";
    /// assert!(engine.answer_relation(strict).unwrap().is_empty());
    /// assert_eq!(engine.stats().group_phase.hits, 1);
    /// ```
    pub fn answer_relation(&self, sql: &str) -> Result<Arc<AnswerSet>> {
        let stmt = parse(sql)?;
        let (table_id, table) = self.catalog.require_shared(&stmt.from)?;
        let bound = bind(&stmt, &table)?;
        let ro = self.relation_layers(table_id, &table, &bound)?;
        Ok(Arc::clone(&ro.entry.answers))
    }

    /// Layers 1–2 of the pipeline: the finished group phase and the
    /// dense-coded answer relation derived from it.
    fn relation_layers(
        &self,
        table_id: TableId,
        table: &Arc<Table>,
        bound: &BoundQuery,
    ) -> Result<RelationOutcome> {
        let group_fp = bound.group.fingerprint();

        // Layer 1: the finished group phase — the only stage that ever
        // touches the base table.
        let (grouped, group_out) = self.groups.get_or_build((table_id, group_fp), || {
            let mut scan = ParallelScanStats::default();
            let grouped =
                group_aggregate_auto(&bound.group, table, &mut GroupTable::new(0), &mut scan);
            self.parallel_scans
                .fetch_add(scan.parallel_scans, Ordering::Relaxed);
            grouped.map(Arc::new)
        })?;

        // Layer 2: the dense-coded answer relation, derived O(groups) from
        // the group phase via the direct (no string round-trip) path.
        let akey = (table_id, combine(group_fp, bound.output.fingerprint()));
        let (entry, answers_out) = self.answers.get_or_build(akey, || -> Result<_> {
            let answers = Arc::new(grouped.apply_answers(&bound.output)?);
            let fp = answers.fingerprint();
            Ok(Arc::new(AnswerEntry { answers, fp }))
        })?;
        Ok(RelationOutcome {
            entry,
            group_out,
            answers_out,
        })
    }

    fn view_internal(
        &self,
        state: &ExploreState,
        budget: Option<u64>,
    ) -> Result<(EngineView, CacheProvenance)> {
        if state.k == 0 {
            return Err(QagError::param("size knob k must be at least 1"));
        }
        if state.l == 0 {
            return Err(QagError::param("coverage knob L must be at least 1"));
        }
        let mut degradations: Vec<Degradation> = Vec::new();
        let poison_before = self.poison_stats();
        let stmt = parse(&state.sql)?;
        let (table_id, table) = self.catalog.require_shared(&stmt.from)?;
        let mut bound = bind(&stmt, &table)?;
        if let Some(t) = state.threshold {
            match bound.output.having.first_mut() {
                Some(h) => h.value = t,
                None => {
                    return Err(QagError::param(
                        "SetThreshold requires a query with a HAVING clause",
                    ))
                }
            }
        }

        // Layers 1–2: the finished group phase and the dense-coded answer
        // relation (shared with [`Explorer::answer_relation`]).
        let RelationOutcome {
            entry,
            group_out,
            answers_out,
        } = self.relation_layers(table_id, &table, &bound)?;
        let base = Arc::clone(&entry.answers);
        let base_fp = entry.fp;
        if base.is_empty() {
            return Err(QagError::Execution(
                "the query produced an empty answer relation; relax the threshold".to_string(),
            ));
        }
        let m = base.arity();
        let l_eff = state.l.min(base.len());
        let d_eff = state.d.min(m);

        // Layer 3: the (k, D) parameter plane — keyed by the answer set's
        // *content* fingerprint, so a threshold tick that does not change
        // the relation reuses the whole plane. On a memory miss the
        // persistent store (when configured) is probed before building:
        // a usable `.qag` file turns a cold build into a file read, and a
        // cold build writes its plane set back for the next process. All
        // store traffic runs with no layer lock held.
        let k_max = self.cfg.default_k_max.max(state.k);

        // Per-session memory budget: the gate bounds what a command
        // *retains* (relation + plane estimates), not the transient build
        // peak. Over budget the plane is shed — the view is served by one
        // uncached solve and nothing new is pinned; if even the relation
        // alone cannot fit, the command is refused with a typed error and
        // the caller's session state stays untouched.
        let rel_bytes = Self::relation_bytes(base.len(), m);
        if let Some(b) = budget {
            if rel_bytes > b {
                return Err(QagError::BudgetExceeded {
                    needed: rel_bytes,
                    budget: b,
                });
            }
        }
        let plane_est = self.plane_bytes(base.len(), m, k_max);
        let full_bytes = rel_bytes.saturating_add(plane_est);
        let shed_plane = budget.is_some_and(|b| full_bytes > b);

        let pkey = (base_fp, l_eff, k_max);
        let (plane, plane_out, store_out) = if shed_plane {
            degradations.push(Degradation::PlaneShed {
                needed: full_bytes,
                budget: budget.expect("shed implies a budget"),
            });
            (None, CacheOutcome::Miss, None)
        } else {
            let mut store_out = None;
            let mut write_back = None;
            let (p, plane_out) = self.planes.get_or_build(pkey, || -> Result<_> {
                let store_path = self.store_path(base_fp, l_eff, k_max);
                let loaded = store_path.as_ref().and_then(|path| {
                    self.store_probe(path, &base, base_fp, l_eff, k_max, &mut degradations)
                });
                if let Some(p) = loaded {
                    self.store_stats().loads += 1;
                    store_out = Some(CacheOutcome::Hit);
                    return Ok(Arc::new(p));
                }
                let built = Precomputed::build(
                    Arc::clone(&base),
                    l_eff,
                    PrecomputeConfig {
                        k_min: 1,
                        k_max,
                        d_min: 0,
                        d_max: m,
                        pool_factor: DEFAULT_POOL_FACTOR,
                        ..Default::default()
                    },
                )?;
                if store_path.is_some() {
                    self.store_stats().probe_misses += 1;
                    store_out = Some(CacheOutcome::Miss);
                }
                write_back = store_path;
                Ok(Arc::new(built))
            })?;
            // The layer published the plane to the memory cache *before*
            // this disk write-back: concurrent sessions racing the same key
            // stop duplicating the cold build as soon as the plane exists,
            // and the serialize + write cost never sits between them and a
            // hit.
            if let Some(path) = write_back {
                self.write_back(&p, &path, &mut degradations);
            }
            (Some(p), plane_out, store_out)
        };

        // The guidance plot: the full plane serves the complete (k, D)
        // grid; a shed plane degrades to the single requested point,
        // computed by one uncached solve (nothing retained).
        let (plot, shed_solution) = match &plane {
            Some(p) => (p.guidance(), None),
            None => {
                let summarizer = Summarizer::new(Arc::clone(&base), l_eff)?;
                let solution = summarizer.hybrid(state.k, d_eff)?;
                let plot = GuidancePlot {
                    l: l_eff,
                    k_values: vec![state.k],
                    series: vec![DSeries {
                        d: d_eff,
                        avg_by_k: vec![solution.avg()],
                    }],
                };
                (plot, Some(solution))
            }
        };

        // Summary: the plane's §6.2 stored solution for the overview, or a
        // cached owned summarizer run over the drill focus.
        let (relation, relation_fp, l_used, solution, summarizer_out) = match &state.drill {
            Some(p) if !p.slots().iter().all(|&s| s == STAR) => {
                if p.arity() != m {
                    return Err(QagError::param(format!(
                        "drill pattern arity {} does not match the relation's m={m}",
                        p.arity()
                    )));
                }
                let sub = Arc::new(drill_relation(&base, p)?);
                let sub_fp = sub.fingerprint();
                let l_sub = state.l.min(sub.len());
                let (summarizer, s_out) = self.summarizers.get_or_build((sub_fp, l_sub), || {
                    Summarizer::new(Arc::clone(&sub), l_sub).map(Arc::new)
                })?;
                let solution = summarizer.hybrid(state.k, d_eff.min(sub.arity()))?;
                (sub, sub_fp, l_sub, solution, Some(s_out))
            }
            _ => {
                let solution = match (&plane, shed_solution) {
                    (Some(p), _) => p.solution(state.k, d_eff)?,
                    (None, Some(s)) => s,
                    (None, None) => unreachable!("shed plane always computes a solution"),
                };
                (Arc::clone(&base), base_fp, l_eff, solution, None)
            }
        };

        // Surface poison recoveries that happened under this command's
        // lock acquisitions (comparing cumulative counters keeps the fast
        // path allocation-free).
        let poison_after = self.poison_stats().by_layer();
        for ((layer, before), (_, after)) in poison_before.by_layer().into_iter().zip(poison_after)
        {
            if after > before {
                degradations.push(Degradation::PoisonRecovered { layer });
            }
        }

        let provenance = CacheProvenance {
            group_phase: group_out,
            answers: answers_out,
            plane: plane_out,
            plane_store: store_out,
            summarizer: summarizer_out,
            degradations,
            stats: self.stats(),
        };
        let summary = summary_view(&relation, &solution, state.k, l_used, d_eff);
        Ok((
            EngineView {
                relation,
                relation_fp,
                l_eff: l_used,
                solution,
                summary,
                plot,
                retained_bytes: if shed_plane { rel_bytes } else { full_bytes },
            },
            provenance,
        ))
    }

    /// Write a cold-built plane set back to the store, then keep the
    /// directory under its byte budget. Neither step can fail the
    /// command: a dropped write-back only costs the next process its warm
    /// start, and GC trouble is retried by the next write-back.
    fn write_back(
        &self,
        plane: &Precomputed<'_>,
        path: &std::path::Path,
        degradations: &mut Vec<Degradation>,
    ) {
        let io = self.cfg.store_io.as_ref();
        match crate::store::save_with_retry(io, plane, path, &self.cfg.retry) {
            Ok(attempts) => {
                let mut st = self.store_stats();
                st.writes += 1;
                st.retries += u64::from(attempts - 1);
                drop(st);
                if attempts > 1 {
                    degradations.push(Degradation::StoreRetried { attempts });
                }
            }
            Err((_, attempts)) => {
                let mut st = self.store_stats();
                st.write_errors += 1;
                st.retries += u64::from(attempts.saturating_sub(1));
                drop(st);
                degradations.push(Degradation::StoreWriteBackDropped { attempts });
            }
        }
        if let (Some(gc_budget), Some(dir)) =
            (self.cfg.store_budget_bytes, self.cfg.store_dir.as_ref())
        {
            if let Ok(report) = crate::store::gc(io, dir, gc_budget) {
                let mut st = self.store_stats();
                st.gc_evictions += report.evicted as u64;
                st.gc_bytes_freed += report.bytes_freed;
            }
        }
    }
}

/// Render a solution into a [`SummaryView`].
fn summary_view(
    relation: &AnswerSet,
    solution: &Solution,
    k: usize,
    l: usize,
    d: usize,
) -> SummaryView {
    let clusters = solution
        .clusters
        .iter()
        .map(|c| ClusterView {
            pattern: c.pattern.clone(),
            label: relation.pattern_to_string(&c.pattern),
            size: c.members.len(),
            top_l: c.members.iter().filter(|&&t| (t as usize) < l).count(),
            sum: c.sum,
            avg: c.avg(),
        })
        .collect();
    SummaryView {
        attr_names: relation.attr_names().to_vec(),
        clusters,
        covered: solution.covered,
        total: relation.len(),
        avg: solution.avg(),
        k,
        l,
        d,
    }
}

/// The sub-relation covered by a drill pattern, re-encoded as its own
/// answer set (rank order is inherited from the base relation).
fn drill_relation(base: &AnswerSet, pattern: &Pattern) -> Result<AnswerSet> {
    let (ids, _) = base.scan_coverage(pattern);
    if ids.is_empty() {
        return Err(QagError::Execution(format!(
            "drill pattern {} covers no answers",
            base.pattern_to_string(pattern)
        )));
    }
    let mut builder = AnswerSetBuilder::new(base.attr_names().to_vec());
    for t in ids {
        let texts: Vec<&str> = base
            .tuple(t)
            .iter()
            .enumerate()
            .map(|(i, &c)| base.code_text(i, c))
            .collect();
        builder.push(&texts, base.val(t))?;
    }
    builder.finish()
}

/// What the previous command of a session summarized, kept for transition
/// rendering. The transition is only built when the current relation's
/// content fingerprint matches `relation_fp`, so the previous solution's
/// tuple ids are valid against the current relation by construction.
#[derive(Debug)]
struct LastView {
    relation_fp: u64,
    solution: Solution,
}

/// Everything needed to open an [`ExploreSession`] — the one documented
/// way into the engine for production callers (examples, the serving
/// layer, load generators). [`SessionSpec::default`] opens a session
/// with no query, equivalent to [`ExploreSession::new`].
#[derive(Debug, Clone, Default)]
pub struct SessionSpec {
    /// Open with this query already applied (the response is discarded;
    /// the first [`ExploreSession::apply`] then starts warm). `None`
    /// opens an empty session whose first command must be
    /// [`ExploreCommand::SetQuery`].
    pub sql: Option<String>,
    /// Session memory budget: `None` inherits
    /// [`ExplorerConfig::session_budget_bytes`]; `Some(b)` overrides it
    /// (`Some(None)` = explicitly unbounded).
    pub budget_bytes: Option<Option<u64>>,
}

impl Explorer {
    /// Open a session per `spec` — the documented front door. Collapses
    /// the historical trio of entry points (`run_query` for the relation,
    /// `answers_from_query` for the answer set, raw [`ExploreSession`]
    /// construction for the loop) into one call; the row-level
    /// `qagview_query` functions remain available as the differential
    /// test oracle.
    ///
    /// # Errors
    ///
    /// When [`SessionSpec::sql`] is set, propagates every error its
    /// `SetQuery` could produce (parse/bind failures, empty relation,
    /// budget refusal); no session is returned in that case.
    pub fn open_session(self: &Arc<Self>, spec: SessionSpec) -> Result<ExploreSession> {
        let mut session = ExploreSession::new(Arc::clone(self));
        if let Some(budget) = spec.budget_bytes {
            session.set_budget_bytes(budget);
        }
        if let Some(sql) = spec.sql {
            session.apply(ExploreCommand::SetQuery(sql))?;
        }
        Ok(session)
    }
}

/// One analyst's exploration session over a shared [`Explorer`].
///
/// The session is a thin state machine: it owns the current
/// [`ExploreState`], advances it via [`ExploreSession::apply`], and keeps
/// the previous solution so consecutive summaries over the same relation
/// come back with a band-diagram [`Transition`]. A command that errors
/// (unknown column, empty relation, drill that covers nothing) leaves the
/// state untouched.
#[derive(Debug)]
pub struct ExploreSession {
    engine: Arc<Explorer>,
    state: Option<ExploreState>,
    last: Option<LastView>,
    budget_bytes: Option<u64>,
    retained_bytes: u64,
}

impl ExploreSession {
    /// Open a session on a shared engine. The first command must be
    /// [`ExploreCommand::SetQuery`]. The memory budget starts at the
    /// engine's [`ExplorerConfig::session_budget_bytes`].
    pub fn new(engine: Arc<Explorer>) -> Self {
        let budget_bytes = engine.config().session_budget_bytes;
        ExploreSession {
            engine,
            state: None,
            last: None,
            budget_bytes,
            retained_bytes: 0,
        }
    }

    /// The engine this session runs on.
    pub fn engine(&self) -> &Arc<Explorer> {
        &self.engine
    }

    /// Override this session's memory budget (`None` = unbounded). Takes
    /// effect from the next command; see
    /// [`ExplorerConfig::session_budget_bytes`] for the semantics.
    pub fn set_budget_bytes(&mut self, budget: Option<u64>) {
        self.budget_bytes = budget;
    }

    /// This session's current memory budget.
    pub fn budget_bytes(&self) -> Option<u64> {
        self.budget_bytes
    }

    /// Estimated bytes the last successful command retained in the
    /// engine's shared caches on this session's behalf — the quantity the
    /// budget bounds. Zero before the first successful command.
    pub fn retained_bytes(&self) -> u64 {
        self.retained_bytes
    }

    /// The current exploration state (`None` until the first successful
    /// [`ExploreCommand::SetQuery`]).
    pub fn state(&self) -> Option<&ExploreState> {
        self.state.as_ref()
    }

    /// Snapshot everything needed to reconstruct this session later — on
    /// this engine, a fresh engine, or a fresh process — such that its
    /// next command responds byte-identically to the un-evicted session
    /// (see [`crate::checkpoint`]).
    pub fn checkpoint(&self) -> crate::checkpoint::SessionCheckpoint {
        crate::checkpoint::SessionCheckpoint {
            state: self.state.clone(),
            last: self
                .last
                .as_ref()
                .map(|lv| (lv.relation_fp, lv.solution.clone())),
            budget_bytes: self.budget_bytes,
            retained_bytes: self.retained_bytes,
        }
    }

    /// Rebuild a session from a checkpoint (the other half of
    /// [`ExploreSession::checkpoint`]).
    pub(crate) fn resume_from(
        engine: Arc<Explorer>,
        cp: &crate::checkpoint::SessionCheckpoint,
    ) -> ExploreSession {
        ExploreSession {
            engine,
            state: cp.state.clone(),
            last: cp.last.as_ref().map(|(fp, solution)| LastView {
                relation_fp: *fp,
                solution: solution.clone(),
            }),
            budget_bytes: cp.budget_bytes,
            retained_bytes: cp.retained_bytes,
        }
    }

    /// Advance the session by one command and return the refreshed view.
    ///
    /// # Errors
    ///
    /// Propagates parse/bind/execution errors and knob violations
    /// (`k == 0`, `L == 0`, `SetThreshold` without a `HAVING`, a drill
    /// pattern of the wrong arity or empty coverage, an empty answer
    /// relation), and [`QagError::BudgetExceeded`] when even the degraded
    /// serving path cannot fit this session's memory budget. The session
    /// state is unchanged on error.
    pub fn apply(&mut self, command: ExploreCommand) -> Result<ExploreResponse> {
        let next = match (&self.state, command) {
            (None, ExploreCommand::SetQuery(sql)) => ExploreState {
                sql,
                k: DEFAULT_K,
                l: DEFAULT_L,
                d: DEFAULT_D,
                threshold: None,
                drill: None,
            },
            (None, other) => {
                return Err(QagError::param(format!(
                    "session has no query yet; start with SetQuery (got {other:?})"
                )))
            }
            (Some(s), ExploreCommand::SetQuery(sql)) => ExploreState {
                sql,
                threshold: None,
                drill: None,
                ..s.clone()
            },
            (Some(s), ExploreCommand::SetThreshold(t)) => ExploreState {
                threshold: Some(t),
                ..s.clone()
            },
            (Some(s), ExploreCommand::SetK(k)) => ExploreState { k, ..s.clone() },
            (Some(s), ExploreCommand::SetL(l)) => ExploreState { l, ..s.clone() },
            (Some(s), ExploreCommand::SetD(d)) => ExploreState { d, ..s.clone() },
            (Some(s), ExploreCommand::DrillDown(p)) => ExploreState {
                drill: if p.slots().iter().all(|&c| c == STAR) {
                    None
                } else {
                    Some(p)
                },
                ..s.clone()
            },
        };
        let (view, provenance) = self.engine.view_internal(&next, self.budget_bytes)?;
        self.retained_bytes = view.retained_bytes;
        let transition = match &self.last {
            Some(last) if last.relation_fp == view.relation_fp => Some(Transition::between(
                &view.relation,
                &last.solution,
                &view.solution,
                view.l_eff,
            )),
            _ => None,
        };
        self.state = Some(next.clone());
        self.last = Some(LastView {
            relation_fp: view.relation_fp,
            solution: view.solution,
        });
        Ok(ExploreResponse {
            state: next,
            summary: view.summary,
            plot: view.plot,
            transition,
            provenance,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qagview_storage::{Cell, ColumnType, Schema, TableBuilder};

    fn catalog() -> Catalog {
        let schema = Schema::from_pairs(&[
            ("genre", ColumnType::Str),
            ("who", ColumnType::Str),
            ("rating", ColumnType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        let rows: &[(&str, &str, f64)] = &[
            ("adventure", "student", 4.8),
            ("adventure", "student", 4.4),
            ("adventure", "coder", 4.3),
            ("adventure", "coder", 4.1),
            ("romance", "student", 2.0),
            ("romance", "coder", 1.6),
            ("romance", "coder", 1.2),
            ("western", "student", 3.0),
        ];
        for &(g, w, r) in rows {
            b.push_row(vec![g.into(), w.into(), Cell::Float(r)])
                .unwrap();
        }
        let mut c = Catalog::new();
        c.register("ratings", b.finish());
        c
    }

    const SQL: &str = "SELECT genre, who, AVG(rating) AS val FROM ratings \
                       GROUP BY genre, who HAVING count(*) > 0 ORDER BY val DESC";

    fn session() -> ExploreSession {
        ExploreSession::new(Arc::new(Explorer::new(catalog())))
    }

    #[test]
    fn explorer_is_send_sync_and_sessions_are_send() {
        fn assert_send_sync<T: Send + Sync>() {}
        fn assert_send<T: Send>() {}
        assert_send_sync::<Explorer>();
        assert_send::<ExploreSession>();
    }

    #[test]
    fn first_command_must_be_set_query() {
        let mut s = session();
        assert!(s.apply(ExploreCommand::SetK(3)).is_err());
        assert!(s.state().is_none());
        assert!(s.apply(ExploreCommand::SetQuery(SQL.into())).is_ok());
        assert!(s.state().is_some());
    }

    #[test]
    fn full_loop_with_provenance() {
        let mut s = session();
        let r = s.apply(ExploreCommand::SetQuery(SQL.into())).unwrap();
        assert_eq!(r.provenance.group_phase, CacheOutcome::Miss);
        assert_eq!(r.provenance.plane, CacheOutcome::Miss);
        assert_eq!(r.summary.total, 5);
        assert!(r.transition.is_none());

        // A knob move: everything upstream is cached.
        let r = s.apply(ExploreCommand::SetK(3)).unwrap();
        assert_eq!(r.provenance.group_phase, CacheOutcome::Hit);
        assert_eq!(r.provenance.answers, CacheOutcome::Hit);
        assert_eq!(r.provenance.plane, CacheOutcome::Hit);
        assert!(r.transition.is_some(), "same relation => transition");
        assert_eq!(r.summary.clusters[0].label, "(adventure, *)");

        // A threshold tick that keeps the relation identical still hits
        // the plane (content-fingerprint keying).
        let r = s.apply(ExploreCommand::SetThreshold(0.5)).unwrap();
        assert_eq!(r.provenance.group_phase, CacheOutcome::Hit);
        assert_eq!(r.provenance.answers, CacheOutcome::Miss);
        assert_eq!(r.provenance.plane, CacheOutcome::Hit);
        assert!(r.transition.is_some());

        // A threshold tick that changes the relation misses the plane.
        let r = s.apply(ExploreCommand::SetThreshold(1.0)).unwrap();
        assert_eq!(r.provenance.group_phase, CacheOutcome::Hit);
        assert_eq!(r.provenance.plane, CacheOutcome::Miss);
        assert_eq!(r.summary.total, 3, "only count-2 groups survive");
        assert!(r.transition.is_none(), "relation changed");
    }

    #[test]
    fn drill_down_focuses_and_all_star_returns() {
        let mut s = session();
        s.apply(ExploreCommand::SetQuery(SQL.into())).unwrap();
        let r = s.apply(ExploreCommand::SetK(3)).unwrap();
        let m = r.summary.attr_names.len();
        let adventure = r
            .summary
            .clusters
            .iter()
            .find(|c| c.label == "(adventure, *)")
            .expect("an (adventure, *) cluster")
            .pattern
            .clone();
        let r = s.apply(ExploreCommand::DrillDown(adventure)).unwrap();
        assert_eq!(r.summary.total, 2, "two adventure groups");
        assert_eq!(r.provenance.summarizer, Some(CacheOutcome::Miss));
        assert!(r.transition.is_none(), "focus is a different relation");
        // Same drill again: the summarizer layer answers.
        let r = s
            .apply(ExploreCommand::DrillDown(r.state.drill.clone().unwrap()))
            .unwrap();
        assert_eq!(r.provenance.summarizer, Some(CacheOutcome::Hit));
        assert!(r.transition.is_some());
        // All-star pattern returns to the overview.
        let r = s
            .apply(ExploreCommand::DrillDown(Pattern::all_star(m)))
            .unwrap();
        assert!(r.state.drill.is_none());
        assert_eq!(r.summary.total, 5);
        assert_eq!(r.provenance.summarizer, None);
    }

    #[test]
    fn errors_leave_state_untouched() {
        let mut s = session();
        s.apply(ExploreCommand::SetQuery(SQL.into())).unwrap();
        let before = s.state().cloned();
        assert!(s.apply(ExploreCommand::SetK(0)).is_err());
        assert!(s.apply(ExploreCommand::SetL(0)).is_err());
        // Threshold beyond every group: empty relation.
        assert!(s.apply(ExploreCommand::SetThreshold(99.0)).is_err());
        // Drill with the wrong arity.
        assert!(s
            .apply(ExploreCommand::DrillDown(Pattern::new(vec![0])))
            .is_err());
        // New query against a missing table.
        assert!(s
            .apply(ExploreCommand::SetQuery(
                "SELECT x, AVG(y) AS val FROM nope GROUP BY x".into()
            ))
            .is_err());
        assert_eq!(s.state().cloned(), before);
        // And the session still works.
        assert!(s.apply(ExploreCommand::SetK(2)).is_ok());
    }

    #[test]
    fn set_threshold_requires_a_having_clause() {
        let mut s = session();
        s.apply(ExploreCommand::SetQuery(
            "SELECT genre, AVG(rating) AS val FROM ratings GROUP BY genre \
             ORDER BY val DESC"
                .into(),
        ))
        .unwrap();
        let err = s.apply(ExploreCommand::SetThreshold(1.0)).unwrap_err();
        assert!(err.to_string().contains("HAVING"), "{err}");
    }

    #[test]
    fn view_is_stateless_and_deterministic() {
        let engine = Explorer::new(catalog());
        let state = ExploreState {
            sql: SQL.into(),
            k: 3,
            l: 5,
            d: 1,
            threshold: Some(0.0),
            drill: None,
        };
        let (summary_a, plot_a) = engine.view(&state).unwrap();
        let (summary_b, plot_b) = engine.view(&state).unwrap();
        assert_eq!(summary_a, summary_b);
        assert_eq!(plot_a, plot_b);
    }

    #[test]
    fn per_layer_locks_serve_concurrent_cold_sessions() {
        // Two tables on one engine, driven cold from two threads at once.
        // Under the per-layer locks a cold plane build on one table holds
        // no lock while constructing, so both sessions complete and every
        // layer ends up populated for both tables. (Deadlock-freedom is by
        // construction: no path ever holds two layer locks.)
        let schema = Schema::from_pairs(&[
            ("genre", ColumnType::Str),
            ("who", ColumnType::Str),
            ("rating", ColumnType::Float),
        ])
        .unwrap();
        let mut c = catalog();
        let mut b = TableBuilder::new(schema);
        for &(g, w, r) in &[
            ("jazz", "student", 4.5),
            ("jazz", "coder", 3.5),
            ("punk", "student", 2.5),
            ("punk", "coder", 1.5),
        ] {
            b.push_row(vec![g.into(), w.into(), Cell::Float(r)])
                .unwrap();
        }
        c.register("albums", b.finish());
        let engine = Arc::new(Explorer::new(c));

        let album_sql = "SELECT genre, who, AVG(rating) AS val FROM albums \
                         GROUP BY genre, who ORDER BY val DESC";
        std::thread::scope(|scope| {
            let e1 = Arc::clone(&engine);
            let t1 = scope.spawn(move || {
                let mut s = ExploreSession::new(e1);
                s.apply(ExploreCommand::SetQuery(SQL.into())).unwrap()
            });
            let e2 = Arc::clone(&engine);
            let t2 = scope.spawn(move || {
                let mut s = ExploreSession::new(e2);
                s.apply(ExploreCommand::SetQuery(album_sql.into())).unwrap()
            });
            let r1 = t1.join().unwrap();
            let r2 = t2.join().unwrap();
            assert_eq!(r1.summary.total, 5);
            assert_eq!(r2.summary.total, 4);
        });
        let stats = engine.stats();
        assert_eq!(stats.group_phase.entries, 2);
        assert_eq!(stats.answers.entries, 2);
        assert_eq!(stats.planes.entries, 2);
    }

    #[test]
    fn store_tier_write_back_and_process_warm_start() {
        let dir = std::env::temp_dir().join(format!(
            "qag-explorer-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = ExplorerConfig {
            store_dir: Some(dir.clone()),
            ..Default::default()
        };

        // "Process 1": cold build, written back to disk.
        let shared = Arc::new(catalog());
        let engine = Arc::new(Explorer::from_shared(Arc::clone(&shared), cfg.clone()));
        let mut s = ExploreSession::new(Arc::clone(&engine));
        let cold = s.apply(ExploreCommand::SetQuery(SQL.into())).unwrap();
        assert_eq!(cold.provenance.plane, CacheOutcome::Miss);
        assert_eq!(cold.provenance.plane_store, Some(CacheOutcome::Miss));
        let stats = engine.stats().store;
        assert_eq!((stats.loads, stats.probe_misses, stats.writes), (0, 1, 1));
        assert_eq!(stats.write_errors, 0);
        let files: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(files.len(), 1, "exactly one .qag written");

        // Same engine, warm tick: memory hit, store not consulted.
        let warm = s.apply(ExploreCommand::SetK(3)).unwrap();
        assert_eq!(warm.provenance.plane, CacheOutcome::Hit);
        assert_eq!(warm.provenance.plane_store, None);

        // "Process 2": a fresh engine over the same catalog warm-starts
        // from the store and shows the user the exact same thing.
        let engine2 = Arc::new(Explorer::from_shared(Arc::clone(&shared), cfg));
        let mut s2 = ExploreSession::new(Arc::clone(&engine2));
        let restored = s2.apply(ExploreCommand::SetQuery(SQL.into())).unwrap();
        assert_eq!(restored.provenance.plane, CacheOutcome::Miss);
        assert_eq!(restored.provenance.plane_store, Some(CacheOutcome::Hit));
        assert_eq!(engine2.stats().store.loads, 1);
        assert!(cold.same_view(&restored), "store-served view must match");

        // A corrupt file is a probe miss, not an error: flip one byte.
        let path = files[0].as_ref().unwrap().path();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let engine3 = Arc::new(Explorer::from_shared(
            Arc::clone(&shared),
            ExplorerConfig {
                store_dir: Some(dir.clone()),
                ..Default::default()
            },
        ));
        let mut s3 = ExploreSession::new(Arc::clone(&engine3));
        let rebuilt = s3.apply(ExploreCommand::SetQuery(SQL.into())).unwrap();
        assert_eq!(rebuilt.provenance.plane_store, Some(CacheOutcome::Miss));
        assert!(cold.same_view(&rebuilt));
        // ... and the rebuild overwrote the corrupt file with a good one.
        let engine4 = Arc::new(Explorer::from_shared(
            Arc::clone(&shared),
            ExplorerConfig {
                store_dir: Some(dir.clone()),
                ..Default::default()
            },
        ));
        let mut s4 = ExploreSession::new(engine4);
        let reread = s4.apply(ExploreCommand::SetQuery(SQL.into())).unwrap();
        assert_eq!(reread.provenance.plane_store, Some(CacheOutcome::Hit));

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn session_budget_sheds_the_plane_then_refuses() {
        let engine = Arc::new(Explorer::new(catalog()));
        let mut s = ExploreSession::new(Arc::clone(&engine));
        assert_eq!(s.budget_bytes(), None);

        // Unbounded: the full plane path.
        let full = s.apply(ExploreCommand::SetQuery(SQL.into())).unwrap();
        assert!(full.provenance.degradations.is_empty());
        let full_retained = s.retained_bytes();
        assert!(full_retained > 0);

        // A budget that fits the relation but not the plane: the plane is
        // shed, the command still succeeds, and the plot collapses to the
        // single requested point.
        let mut s2 = ExploreSession::new(Arc::clone(&engine));
        s2.set_budget_bytes(Some(2_000));
        let shed = s2.apply(ExploreCommand::SetQuery(SQL.into())).unwrap();
        assert_eq!(shed.provenance.plane, CacheOutcome::Miss);
        assert_eq!(shed.provenance.plane_store, None);
        assert!(matches!(
            shed.provenance.degradations.as_slice(),
            [Degradation::PlaneShed { needed, budget: 2_000 }] if *needed > 2_000
        ));
        assert_eq!(shed.summary.k, DEFAULT_K);
        assert_eq!(shed.plot.k_values, vec![DEFAULT_K]);
        assert_eq!(shed.plot.series.len(), 1);
        assert!(s2.retained_bytes() <= 2_000);
        assert!(s2.retained_bytes() < full_retained);

        // A budget below even the relation: a typed refusal, state
        // untouched, and the session keeps working once the budget lifts.
        let before = s2.state().cloned();
        s2.set_budget_bytes(Some(100));
        let err = s2.apply(ExploreCommand::SetK(3)).unwrap_err();
        assert!(
            matches!(err, QagError::BudgetExceeded { needed, budget: 100 } if needed > 100),
            "{err}"
        );
        assert_eq!(s2.state().cloned(), before);
        s2.set_budget_bytes(None);
        let recovered = s2.apply(ExploreCommand::SetK(3)).unwrap();
        assert!(recovered.provenance.degradations.is_empty());
    }

    #[test]
    fn poisoned_plane_layer_recovers_by_clearing() {
        let engine = Arc::new(Explorer::new(catalog()));
        let mut s = ExploreSession::new(Arc::clone(&engine));
        s.apply(ExploreCommand::SetQuery(SQL.into())).unwrap();
        assert_eq!(engine.stats().planes.entries, 1);

        // Panic while holding the plane lock: the guard drops during the
        // unwind and poisons the mutex.
        engine.planes.poison();

        // The next command recovers: the layer is cleared (cold plane
        // rebuild), the event is counted and surfaced, and no panic
        // propagates to this session.
        let r = s.apply(ExploreCommand::SetK(3)).unwrap();
        assert_eq!(r.provenance.plane, CacheOutcome::Miss);
        assert!(r
            .provenance
            .degradations
            .contains(&Degradation::PoisonRecovered {
                layer: CacheLayer::Planes
            }));
        assert_eq!(engine.stats().poison.planes, 1);
        assert_eq!(engine.stats().poison.total(), 1);
        // And the layer is functional again: a further tick is a hit.
        let r = s.apply(ExploreCommand::SetK(2)).unwrap();
        assert_eq!(r.provenance.plane, CacheOutcome::Hit);
    }

    #[test]
    fn transient_probe_fault_retries_and_warm_starts() {
        use qagview_common::{FaultIo, FaultKind};
        let dir = std::env::temp_dir().join(format!(
            "qag-explorer-retry-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let shared = Arc::new(catalog());

        // Seed the store with a real engine.
        let engine = Arc::new(Explorer::from_shared(
            Arc::clone(&shared),
            ExplorerConfig {
                store_dir: Some(dir.clone()),
                ..Default::default()
            },
        ));
        ExploreSession::new(engine)
            .apply(ExploreCommand::SetQuery(SQL.into()))
            .unwrap();

        // A fresh "process" whose first store read fails transiently:
        // op 0 is the construction orphan sweep's list, op 1 the probe
        // read. The retry (after one recorded backoff) succeeds.
        let io = Arc::new(FaultIo::new());
        io.schedule(1, FaultKind::Error);
        let engine2 = Arc::new(Explorer::from_shared(
            Arc::clone(&shared),
            ExplorerConfig {
                store_dir: Some(dir.clone()),
                store_io: io.clone(),
                ..Default::default()
            },
        ));
        let r = ExploreSession::new(Arc::clone(&engine2))
            .apply(ExploreCommand::SetQuery(SQL.into()))
            .unwrap();
        assert_eq!(r.provenance.plane_store, Some(CacheOutcome::Hit));
        assert!(r
            .provenance
            .degradations
            .contains(&Degradation::StoreRetried { attempts: 2 }));
        let stats = engine2.stats().store;
        assert_eq!((stats.loads, stats.retries), (1, 1));
        assert_eq!(io.sleeps().len(), 1, "the retry slept one backoff");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_back_give_up_never_fails_the_command() {
        use qagview_common::{FaultIo, FaultKind};
        let dir = std::env::temp_dir().join(format!(
            "qag-explorer-giveup-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();

        // Crash the simulated process at the first write-back's
        // create_temp (op 2: list, probe read, create_temp): every retry
        // fails too, the write-back is dropped — and the analyst still
        // gets their summary.
        let io = Arc::new(FaultIo::new());
        io.schedule(2, FaultKind::Crash);
        let engine = Arc::new(Explorer::with_config(
            catalog(),
            ExplorerConfig {
                store_dir: Some(dir.clone()),
                store_io: io.clone(),
                ..Default::default()
            },
        ));
        let mut s = ExploreSession::new(Arc::clone(&engine));
        let r = s.apply(ExploreCommand::SetQuery(SQL.into())).unwrap();
        assert_eq!(r.summary.total, 5);
        assert_eq!(r.provenance.plane_store, Some(CacheOutcome::Miss));
        assert!(r
            .provenance
            .degradations
            .contains(&Degradation::StoreWriteBackDropped { attempts: 3 }));
        let stats = engine.stats().store;
        assert_eq!((stats.writes, stats.write_errors), (0, 1));
        // Nothing torn left on disk.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        // Serving continues from memory.
        let r = s.apply(ExploreCommand::SetK(3)).unwrap();
        assert_eq!(r.provenance.plane, CacheOutcome::Hit);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_gc_evicts_lru_and_retained_planes_still_warm_start() {
        let dir = std::env::temp_dir().join(format!(
            "qag-explorer-gc-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let shared = Arc::new(catalog());
        let sql_b = "SELECT genre, AVG(rating) AS val FROM ratings GROUP BY genre \
                     ORDER BY val DESC";

        // Write plane A with no GC budget and measure it.
        let engine = Arc::new(Explorer::from_shared(
            Arc::clone(&shared),
            ExplorerConfig {
                store_dir: Some(dir.clone()),
                ..Default::default()
            },
        ));
        ExploreSession::new(engine)
            .apply(ExploreCommand::SetQuery(SQL.into()))
            .unwrap();
        let size_a = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().metadata().unwrap().len())
            .sum::<u64>();
        assert!(size_a > 0);

        // mtime must separate the two writes for deterministic LRU order.
        std::thread::sleep(std::time::Duration::from_millis(20));

        // An engine with a budget of exactly one plane-A writes plane B,
        // overflows the budget, and GC evicts the older plane A.
        let engine2 = Arc::new(Explorer::from_shared(
            Arc::clone(&shared),
            ExplorerConfig {
                store_dir: Some(dir.clone()),
                store_budget_bytes: Some(size_a),
                ..Default::default()
            },
        ));
        ExploreSession::new(Arc::clone(&engine2))
            .apply(ExploreCommand::SetQuery(sql_b.into()))
            .unwrap();
        let stats = engine2.stats().store;
        assert_eq!(stats.gc_evictions, 1);
        assert!(stats.gc_bytes_freed > 0);
        let remaining: u64 = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().metadata().unwrap().len())
            .sum();
        assert!(remaining <= size_a, "directory over budget after GC");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);

        // The retained plane (B) still warm-starts a fresh process purely
        // from the store; the evicted one (A) is a clean probe miss.
        let engine3 = Arc::new(Explorer::from_shared(
            Arc::clone(&shared),
            ExplorerConfig {
                store_dir: Some(dir.clone()),
                ..Default::default()
            },
        ));
        let mut s3 = ExploreSession::new(Arc::clone(&engine3));
        let warm = s3.apply(ExploreCommand::SetQuery(sql_b.into())).unwrap();
        assert_eq!(warm.provenance.plane_store, Some(CacheOutcome::Hit));
        let rebuilt = s3.apply(ExploreCommand::SetQuery(SQL.into())).unwrap();
        assert_eq!(rebuilt.provenance.plane_store, Some(CacheOutcome::Miss));

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn orphan_temps_are_swept_at_engine_construction() {
        let dir = std::env::temp_dir().join(format!(
            "qag-explorer-orphan-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("plane-dead.qag.tmp.999.0"), b"torn").unwrap();
        std::fs::write(dir.join("plane-live.qag"), b"not actually a plane").unwrap();
        let engine = Explorer::with_config(
            catalog(),
            ExplorerConfig {
                store_dir: Some(dir.clone()),
                ..Default::default()
            },
        );
        assert_eq!(engine.stats().store.temp_cleanups, 1);
        assert!(!dir.join("plane-dead.qag.tmp.999.0").exists());
        assert!(dir.join("plane-live.qag").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_cache_eviction_is_bounded_and_counted() {
        let engine = Arc::new(Explorer::with_config(
            catalog(),
            ExplorerConfig {
                group_cache_entries: 2,
                ..Default::default()
            },
        ));
        let mut s = ExploreSession::new(Arc::clone(&engine));
        let sqls = [
            "SELECT genre, AVG(rating) AS val FROM ratings GROUP BY genre ORDER BY val DESC",
            "SELECT who, AVG(rating) AS val FROM ratings GROUP BY who ORDER BY val DESC",
            "SELECT genre, who, AVG(rating) AS val FROM ratings GROUP BY genre, who \
             ORDER BY val DESC",
        ];
        for sql in sqls {
            s.apply(ExploreCommand::SetQuery(sql.to_string())).unwrap();
        }
        let stats = engine.stats();
        assert_eq!(stats.group_phase.evictions, 1);
        assert_eq!(stats.group_phase.entries, 2);
        // The first (least recently used) query is cold again.
        let r = s
            .apply(ExploreCommand::SetQuery(sqls[0].to_string()))
            .unwrap();
        assert_eq!(r.provenance.group_phase, CacheOutcome::Miss);
    }

    #[test]
    fn open_session_is_the_front_door() {
        let engine = Arc::new(Explorer::new(catalog()));
        // Default spec == ExploreSession::new.
        let s = engine.open_session(SessionSpec::default()).unwrap();
        assert!(s.state().is_none());
        // With a query: the session opens warm at that query.
        let mut s = engine
            .open_session(SessionSpec {
                sql: Some(SQL.into()),
                ..Default::default()
            })
            .unwrap();
        assert_eq!(s.state().unwrap().sql, SQL);
        let r = s.apply(ExploreCommand::SetK(3)).unwrap();
        assert_eq!(r.provenance.group_phase, CacheOutcome::Hit);
        // A bad query refuses to open.
        assert!(engine
            .open_session(SessionSpec {
                sql: Some("SELECT x FROM nope".into()),
                ..Default::default()
            })
            .is_err());
    }

    #[test]
    fn answer_relation_serves_the_exact_relation_and_warms_the_caches() {
        let engine = Arc::new(Explorer::new(catalog()));
        let rel = engine.answer_relation(SQL).unwrap();
        assert_eq!(rel.len(), 5);
        let again = engine.answer_relation(SQL).unwrap();
        assert_eq!(rel.fingerprint(), again.fingerprint());
        // A session on the same query starts layer-1/2 warm.
        let mut s = engine.open_session(SessionSpec::default()).unwrap();
        let r = s.apply(ExploreCommand::SetQuery(SQL.into())).unwrap();
        assert_eq!(r.provenance.group_phase, CacheOutcome::Hit);
        assert_eq!(r.provenance.answers, CacheOutcome::Hit);
    }
}
