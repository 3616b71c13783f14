//! Incremental precomputation over the `(k, D)` parameter plane (§6.2).
//!
//! For a fixed `L`: run the Hybrid algorithm's Fixed-Order phase **once**
//! (distance-agnostic, pool `c · k_max`), then for every `D` replay the
//! Bottom-Up phases from that shared state. Along each `D`-descent, every
//! merge round yields the solution for one more value of `k`; the continuity
//! property (Prop. 6.1 — once a cluster is merged away it never returns)
//! means each cluster's visibility along the `k` axis is a single interval,
//! stored in one [`IntervalTree`] per `D`.

use crate::interval_tree::IntervalTree;
use crate::plot::{DSeries, GuidancePlot};
use qagview_common::par::{available_workers, map_ordered};
use qagview_common::{FixedBitSet, FxHashMap, QagError, Result};
use qagview_core::{
    fixed_order_phase, frontier_round, run_phases_reeval, EvalMode, Evaluator, FrontierPhase,
    GreedyRule, MergeFrontier, MergeSpec, Params, Seeding, Solution, SolutionCluster, WorkingSet,
};
use qagview_lattice::{
    AnswerSet, AnswersHandle, CandId, CandidateIndex, ClusterDirectory, Pattern, TupleId,
};
use std::sync::Arc;

/// Precomputation configuration.
#[derive(Debug, Clone, Copy)]
pub struct PrecomputeConfig {
    /// Smallest `k` to materialize.
    pub k_min: usize,
    /// Largest `k` to materialize (also sizes the Fixed-Order pool).
    pub k_max: usize,
    /// Smallest `D`.
    pub d_min: usize,
    /// Largest `D` (inclusive).
    pub d_max: usize,
    /// Hybrid pool factor `c` (pool = `c · k_max`).
    pub pool_factor: usize,
    /// Marginal evaluation mode for the merge phases.
    pub eval: EvalMode,
    /// Build the per-`D` planes on parallel threads.
    pub parallel: bool,
}

impl Default for PrecomputeConfig {
    fn default() -> Self {
        PrecomputeConfig {
            k_min: 1,
            k_max: 20,
            d_min: 0,
            d_max: 3,
            pool_factor: qagview_core::DEFAULT_POOL_FACTOR,
            eval: EvalMode::Delta,
            parallel: true,
        }
    }
}

/// Solution metadata for one recorded state along a `D`-descent.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StateMeta {
    pub(crate) size: usize,
    pub(crate) covered: usize,
    pub(crate) sum: f64,
}

impl StateMeta {
    fn avg(&self) -> f64 {
        if self.covered == 0 {
            0.0
        } else {
            self.sum / self.covered as f64
        }
    }
}

/// One `D`-plane: cluster lifetimes over `k` plus per-state objective values.
#[derive(Debug, Clone)]
pub(crate) struct DPlane {
    pub(crate) d: usize,
    pub(crate) tree: IntervalTree<CandId>,
    /// Recorded states in descent order (strictly decreasing `size`).
    pub(crate) states: Vec<StateMeta>,
}

impl DPlane {
    /// The state served for a given `k`: the first state whose size fits
    /// (the deepest state as a fallback for very small `k`). Sizes are
    /// strictly decreasing along the descent, so this is a binary search,
    /// not a scan.
    fn state_for_k(&self, k: usize) -> &StateMeta {
        let i = self.states.partition_point(|s| s.size > k);
        self.states
            .get(i)
            .unwrap_or_else(|| self.states.last().expect("at least one state recorded"))
    }

    /// Objective values for a whole ascending `k` range in one merged
    /// sweep: as `k` decreases, the serving state only moves deeper, so a
    /// single forward pointer covers the entire range in
    /// O(states + k-range) instead of one lookup per `k`.
    fn avg_by_k(&self, k_values: &[usize]) -> Vec<f64> {
        debug_assert!(k_values.windows(2).all(|w| w[0] < w[1]));
        let mut out = vec![0.0; k_values.len()];
        let mut idx = 0usize;
        for (pos, &k) in k_values.iter().enumerate().rev() {
            while idx < self.states.len() && self.states[idx].size > k {
                idx += 1;
            }
            let state = self
                .states
                .get(idx)
                .unwrap_or_else(|| self.states.last().expect("at least one state recorded"));
            out[pos] = state.avg();
        }
        out
    }
}

/// Where a plane set resolves candidate ids to patterns and coverage.
///
/// A plane built in-process serves straight from the live
/// [`CandidateIndex`]. A plane loaded from a `.qag` store serves from a
/// [`ClusterDirectory`] — the compact directory of exactly the clusters
/// the planes reference, with coverage sections materialized on demand —
/// so a warm-started process never rebuilds (or even fully decodes) the
/// candidate index. Both sources yield byte-identical solutions.
#[derive(Debug)]
pub(crate) enum ClusterSource {
    /// Backed by the live candidate index of an in-process build.
    Index(Arc<CandidateIndex>),
    /// Backed by a loaded store's cluster directory.
    Stored(ClusterDirectory),
}

/// Precomputed solutions for every `(k, D)` in the configured ranges at one
/// fixed `L`.
///
/// Like [`qagview_core::Summarizer`], the answer relation is held through
/// an [`AnswersHandle`]: built from `&AnswerSet` it borrows as before;
/// built from `Arc<AnswerSet>` it is `'static` and can live inside the
/// owned exploration engine's shared plane cache.
///
/// A `Precomputed` is also the unit of persistence: [`crate::store::save`]
/// writes it to a versioned, checksummed `.qag` file, and
/// [`crate::store::load`] reconstructs one (over a [`ClusterDirectory`]
/// instead of a live index) that serves byte-identical solutions.
#[derive(Debug)]
pub struct Precomputed<'a> {
    answers: AnswersHandle<'a>,
    source: ClusterSource,
    l: usize,
    cfg: PrecomputeConfig,
    planes: Vec<DPlane>,
}

impl<'a> Precomputed<'a> {
    /// Build the full plane set, constructing the candidate index
    /// (initialization step) internally. Accepts `&AnswerSet` or
    /// `Arc<AnswerSet>`.
    pub fn build(
        answers: impl Into<AnswersHandle<'a>>,
        l: usize,
        cfg: PrecomputeConfig,
    ) -> Result<Self> {
        let answers = answers.into();
        let index = CandidateIndex::build(&answers, l)?;
        Self::build_with_index(answers, index, cfg)
    }

    /// Build from a pre-constructed candidate index. Accepts an owned
    /// `CandidateIndex` or an `Arc<CandidateIndex>` — the latter lets
    /// several builds (or a benchmark's timed arms) share one index
    /// without cloning its coverage lists.
    pub fn build_with_index(
        answers: impl Into<AnswersHandle<'a>>,
        index: impl Into<Arc<CandidateIndex>>,
        cfg: PrecomputeConfig,
    ) -> Result<Self> {
        let answers = answers.into();
        let index = index.into();
        let planes = build_planes(&answers, &index, &cfg)?;
        Ok(Self::from_index(answers, index, cfg, planes))
    }

    /// Build with the pre-frontier descent engine: the pair set is rebuilt
    /// and all O(p²) merges are re-evaluated every round, and every `D`
    /// is descended independently on the calling thread (`cfg.parallel` is
    /// ignored). Kept as the differential oracle of [`Precomputed::build`]
    /// and as the baseline arm of the `plane_build` perf section; the
    /// planes are byte-identical.
    pub fn build_reeval(
        answers: impl Into<AnswersHandle<'a>>,
        index: impl Into<Arc<CandidateIndex>>,
        cfg: PrecomputeConfig,
    ) -> Result<Self> {
        let answers = answers.into();
        let index = index.into();
        let w0 = fixed_order_prefix(&answers, &index, &cfg)?;
        let planes = (cfg.d_min..=cfg.d_max)
            .map(|d| build_plane_reeval(w0.clone(), d, &cfg))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self::from_index(answers, index, cfg, planes))
    }

    fn from_index(
        answers: AnswersHandle<'a>,
        index: Arc<CandidateIndex>,
        cfg: PrecomputeConfig,
        planes: Vec<DPlane>,
    ) -> Self {
        Precomputed {
            answers,
            l: index.l(),
            source: ClusterSource::Index(index),
            cfg,
            planes,
        }
    }

    /// Reassemble a plane set from decoded store sections — the
    /// [`crate::store`] loading path. The caller (the store decoder) has
    /// already validated that every interval id resolves in `directory`.
    pub(crate) fn from_stored(
        answers: AnswersHandle<'a>,
        directory: ClusterDirectory,
        l: usize,
        cfg: PrecomputeConfig,
        planes: Vec<DPlane>,
    ) -> Self {
        Precomputed {
            answers,
            source: ClusterSource::Stored(directory),
            l,
            cfg,
            planes,
        }
    }

    /// The `L` this precomputation serves.
    pub fn l(&self) -> usize {
        self.l
    }

    /// The configuration used.
    pub fn config(&self) -> &PrecomputeConfig {
        &self.cfg
    }

    /// The answer relation the planes summarize.
    pub fn answers(&self) -> &AnswerSet {
        &self.answers
    }

    /// The live candidate index, when this plane set was built in-process
    /// (`None` for a plane set loaded from a store, which serves from its
    /// compact cluster directory instead).
    pub fn index(&self) -> Option<&CandidateIndex> {
        match &self.source {
            ClusterSource::Index(ix) => Some(ix),
            ClusterSource::Stored(_) => None,
        }
    }

    /// Whether this plane set was loaded from a persistent store.
    pub fn is_stored(&self) -> bool {
        matches!(self.source, ClusterSource::Stored(_))
    }

    /// The planes, for store serialization.
    pub(crate) fn planes(&self) -> &[DPlane] {
        &self.planes
    }

    /// Every candidate id any plane references, ascending and deduplicated
    /// — the cluster set a store file must carry.
    pub(crate) fn referenced_ids(&self) -> Vec<CandId> {
        let mut ids: Vec<CandId> = self
            .planes
            .iter()
            .flat_map(|p| p.tree.items().map(|(_, _, &id)| id))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Visit one candidate id's `(pattern, members, sum)` by reference —
    /// the allocation-free flavor of [`Precomputed::cluster`], used by
    /// store serialization so a write-back never clones coverage lists
    /// just to copy their bytes out. The stored arm still has to decode
    /// its lazy section into a scratch vector first.
    pub(crate) fn with_cluster<R>(
        &self,
        id: CandId,
        f: impl FnOnce(&Pattern, &[TupleId], f64) -> R,
    ) -> Result<R> {
        match &self.source {
            ClusterSource::Index(ix) => {
                let info = ix.info(id);
                Ok(f(&info.pattern, &info.cov, info.sum))
            }
            ClusterSource::Stored(dir) => {
                let sc = dir.get(id).ok_or_else(|| {
                    QagError::store(
                        qagview_common::StoreErrorKind::Corrupt,
                        format!("plane references cluster {id} missing from the store directory"),
                    )
                })?;
                let members = sc.materialize()?;
                Ok(f(sc.pattern(), &members, sc.sum()))
            }
        }
    }

    /// Resolve one candidate id to `(pattern, members, sum)` through
    /// whichever cluster source backs this plane set. Members come back
    /// ascending in both cases, so float accumulation downstream is
    /// byte-identical between a built and a loaded plane set.
    pub(crate) fn cluster(&self, id: CandId) -> Result<(Pattern, Vec<TupleId>, f64)> {
        match &self.source {
            ClusterSource::Index(ix) => {
                let info = ix.info(id);
                Ok((info.pattern.clone(), info.cov.clone(), info.sum))
            }
            ClusterSource::Stored(dir) => {
                let sc = dir.get(id).ok_or_else(|| {
                    QagError::store(
                        qagview_common::StoreErrorKind::Corrupt,
                        format!("plane references cluster {id} missing from the store directory"),
                    )
                })?;
                Ok((sc.pattern().clone(), sc.materialize()?, sc.sum()))
            }
        }
    }

    fn plane(&self, d: usize) -> Result<&DPlane> {
        self.planes
            .iter()
            .find(|p| p.d == d)
            .ok_or_else(|| QagError::param(format!("D={d} outside precomputed range")))
    }

    fn check_k(&self, k: usize) -> Result<()> {
        if k < self.cfg.k_min || k > self.cfg.k_max {
            return Err(QagError::param(format!(
                "k={k} outside precomputed range [{}, {}]",
                self.cfg.k_min, self.cfg.k_max
            )));
        }
        Ok(())
    }

    /// Retrieve the stored solution for `(k, d)` — the §6.2 fast path.
    pub fn solution(&self, k: usize, d: usize) -> Result<Solution> {
        self.check_k(k)?;
        let plane = self.plane(d)?;
        let ids = plane.tree.stab(k);
        let mut clusters: Vec<SolutionCluster> = Vec::with_capacity(ids.len());
        let mut covered = FixedBitSet::new(self.answers.len());
        let mut sum = 0.0;
        for &&id in &ids {
            let (pattern, members, cluster_sum) = self.cluster(id)?;
            for &t in &members {
                if covered.insert(t as usize) {
                    sum += self.answers.val(t);
                }
            }
            clusters.push(SolutionCluster {
                pattern,
                members,
                sum: cluster_sum,
            });
        }
        clusters.sort_by(|a, b| {
            b.avg()
                .partial_cmp(&a.avg())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.pattern.cmp_for_ties(&b.pattern))
        });
        Ok(Solution {
            clusters,
            covered: covered.count_ones(),
            sum,
        })
    }

    /// The stored objective value for `(k, d)` without materializing the
    /// clusters (drives the Fig. 2 plot).
    pub fn value(&self, k: usize, d: usize) -> Result<f64> {
        self.check_k(k)?;
        Ok(self.plane(d)?.state_for_k(k).avg())
    }

    /// The Fig. 2 guidance plot: average value vs. `k`, one series per `D`.
    /// Each series is filled by one merged sweep over the plane's states
    /// instead of a per-`k` lookup.
    pub fn guidance(&self) -> GuidancePlot {
        let k_values: Vec<usize> = (self.cfg.k_min..=self.cfg.k_max).collect();
        let series = self
            .planes
            .iter()
            .map(|p| DSeries {
                d: p.d,
                avg_by_k: p.avg_by_k(&k_values),
            })
            .collect();
        GuidancePlot {
            l: self.l,
            k_values,
            series,
        }
    }

    /// Total number of stored intervals across planes (space diagnostics:
    /// the §6.2 claim is `O(N_D)` trees instead of `O(N_k × N_D)` solutions).
    pub fn stored_intervals(&self) -> usize {
        self.planes.iter().map(|p| p.tree.len()).sum()
    }
}

/// Validate the configured ranges and run the Fixed-Order phase every
/// `D`-descent starts from: distance-agnostic (D = 0), enlarged pool.
fn fixed_order_prefix<'s>(
    answers: &'s AnswerSet,
    index: &'s CandidateIndex,
    cfg: &PrecomputeConfig,
) -> Result<WorkingSet<'s>> {
    if cfg.k_min == 0 || cfg.k_min > cfg.k_max {
        return Err(QagError::param(format!(
            "invalid k range [{}, {}]",
            cfg.k_min, cfg.k_max
        )));
    }
    if cfg.d_min > cfg.d_max || cfg.d_max > answers.arity() {
        return Err(QagError::param(format!(
            "invalid D range [{}, {}] for m={}",
            cfg.d_min,
            cfg.d_max,
            answers.arity()
        )));
    }
    let params = Params::new(cfg.k_max, index.l(), 0);
    params.validate(answers)?;
    let pool = cfg.pool_factor.max(2) * cfg.k_max;
    fixed_order_phase(answers, index, &params, pool, Seeding::None, cfg.eval)
}

/// Run the shared Fixed-Order phase, then replay one merge-frontier
/// descent per `D` on the worker pool.
fn build_planes(
    answers: &AnswerSet,
    index: &CandidateIndex,
    cfg: &PrecomputeConfig,
) -> Result<Vec<DPlane>> {
    let w0 = fixed_order_prefix(answers, index, cfg)?;

    // Frontier prototype, shared by every `D`-descent: the pool's O(p²)
    // pair LCAs are resolved once, and one throwaway selection warms the
    // score cache and the Delta-Judgment cache at the shared coverage
    // state. Each descent then starts from a reseeded clone with every
    // initial score already current.
    let mut evaluator = Evaluator::new(cfg.eval);
    let mut frontier: MergeFrontier<f64> = MergeFrontier::new(&w0, 0)?;
    // Warm through the lazy Max-Avg path so every score it does compute
    // carries proper bound state (the generic `select` would stamp
    // neutral always-refresh caps); LCAs it prunes stay never-scored and
    // keep their O(1) static bound.
    let _ = frontier.select_max_avg(&w0, FrontierPhase::All, &mut evaluator)?;

    // D = 0 and D = 1 planes are always identical: a pair violates D = 1
    // only at distance < 1, i.e. distance 0, which requires two *equal*
    // member patterns — impossible in the antichain the working set
    // maintains. So the D = 1 descent's phase 1 is provably empty and its
    // size phase replays D = 0's exactly; build one plane and clone it.
    // (The re-evaluation oracle keeps building both independently, so the
    // engine-differential tests verify this equivalence empirically.)
    let skip_d1 = cfg.d_min == 0 && cfg.d_max >= 1;
    let ds: Vec<usize> = (cfg.d_min..=cfg.d_max)
        .filter(|&d| !(skip_d1 && d == 1))
        .collect();
    // Each descent runs on its own reseeded frontier clone over the shared
    // Arc-backed index, and the pool returns the planes in `D` order, so
    // every byte is independent of the worker schedule.
    let workers = if cfg.parallel { available_workers() } else { 1 };
    let mut planes = map_ordered(
        &ds,
        workers,
        || (),
        |_, &d| build_plane_frontier(w0.clone(), frontier.reseed(d), evaluator.clone(), d, cfg),
    )
    .into_iter()
    .collect::<Result<Vec<_>>>()?;
    if skip_d1 {
        let pos = planes
            .iter()
            .position(|p| p.d == 0)
            .expect("D=0 plane built");
        let mut clone = planes[pos].clone();
        clone.d = 1;
        planes.insert(pos + 1, clone);
    }
    Ok(planes)
}

/// Translate recorded states and cluster lifetimes into a `DPlane`:
/// state `j` serves `k ∈ [size_j, size_{j-1} − 1]` (state 0 serves up to
/// `k_max`); the final state also serves every smaller `k` down to
/// `k_min`.
fn finish_plane(
    d: usize,
    states: Vec<StateMeta>,
    lifetimes: Lifetimes,
    cfg: &PrecomputeConfig,
) -> DPlane {
    let last = states.len() - 1;
    let sizes: Vec<usize> = states.iter().map(|s| s.size).collect();
    let mut items: Vec<(usize, usize, CandId)> = Vec::with_capacity(lifetimes.len());
    for (id, from, to) in lifetimes {
        let k_hi = if from == 0 {
            cfg.k_max
        } else {
            sizes[from - 1].saturating_sub(1)
        };
        let k_lo = if to == last { cfg.k_min } else { sizes[to] };
        let (k_lo, k_hi) = (k_lo.max(cfg.k_min), k_hi.min(cfg.k_max));
        if k_lo <= k_hi {
            items.push((k_lo, k_hi, id));
        }
    }
    // Canonical (lo, hi, id) order before tree construction. The lifetimes
    // arrive in descent bookkeeping order (partly hash-map iteration
    // order); sorting here makes the tree — and therefore every stab
    // order, every float accumulation over stabbed clusters, and the
    // store's serialized interval section — a pure function of the
    // interval *set*. A plane loaded from a store rebuilds the identical
    // tree from the same sorted items.
    items.sort_unstable();
    DPlane {
        d,
        tree: IntervalTree::build(items),
        states,
    }
}

/// Cluster lifetimes as `(id, from_state, to_state)` state-index spans.
type Lifetimes = Vec<(CandId, usize, usize)>;

fn state_of(w: &WorkingSet<'_>) -> StateMeta {
    StateMeta {
        size: w.len(),
        covered: w.covered_count(),
        sum: w.sum(),
    }
}

/// The frontier-driven plane build: a reseeded clone of the shared warmed
/// prototype carries the pair table through both phases, and the interval
/// bookkeeping is driven by the merge events (removed members close their
/// lifetime, the LCA opens one) instead of diffing the member list per
/// round.
fn build_plane_frontier(
    mut w: WorkingSet<'_>,
    mut frontier: MergeFrontier<f64>,
    mut evaluator: Evaluator,
    d: usize,
    cfg: &PrecomputeConfig,
) -> Result<DPlane> {
    // Phase 1: enforce the distance constraint (states during this phase
    // are infeasible for the requested D and are not recorded).
    while frontier.violating_count() > 0 {
        if frontier_round(
            &mut frontier,
            &mut w,
            FrontierPhase::Violating,
            &mut evaluator,
            GreedyRule::SolutionAvg,
        )?
        .is_none()
        {
            break;
        }
    }

    // Descent: states S_0, S_1, … with strictly decreasing size; birth
    // state per live cluster; finished lifetimes as state-index spans.
    let mut states = vec![state_of(&w)];
    let mut birth: FxHashMap<CandId, usize> = w.members().iter().map(|&m| (m, 0usize)).collect();
    let mut lifetimes: Lifetimes = Vec::new();

    while w.len() > cfg.k_min.max(1) {
        let Some(event) = frontier_round(
            &mut frontier,
            &mut w,
            FrontierPhase::All,
            &mut evaluator,
            GreedyRule::SolutionAvg,
        )?
        else {
            break;
        };
        let state_idx = states.len();
        states.push(state_of(&w));
        for &m in &event.removed {
            if m == event.lca {
                continue;
            }
            let b = birth.remove(&m).expect("vanished member had a birth state");
            lifetimes.push((m, b, state_idx - 1));
        }
        birth.entry(event.lca).or_insert(state_idx);
    }
    // Clusters alive at the end of the descent.
    for (&m, &b) in &birth {
        lifetimes.push((m, b, states.len() - 1));
    }
    Ok(finish_plane(d, states, lifetimes, cfg))
}

/// The pre-frontier plane build (differential oracle): per-round
/// re-evaluation via [`run_phases_reeval`], lifetimes from an O(p²)
/// member-list diff.
fn build_plane_reeval(mut w: WorkingSet<'_>, d: usize, cfg: &PrecomputeConfig) -> Result<DPlane> {
    let mut evaluator = Evaluator::new(cfg.eval);

    // Phase 1 only: descend with k = current size so no size merging runs.
    let len = w.len();
    run_phases_reeval(
        &mut w,
        d,
        len,
        &mut evaluator,
        GreedyRule::SolutionAvg,
        |_| {},
    )?;

    let mut states = vec![state_of(&w)];
    let mut birth: FxHashMap<CandId, usize> = w.members().iter().map(|&m| (m, 0usize)).collect();
    let mut lifetimes: Lifetimes = Vec::new();

    while w.len() > cfg.k_min.max(1) {
        let before: Vec<CandId> = w.members().to_vec();
        let specs: Vec<MergeSpec> = w
            .all_pairs()
            .into_iter()
            .map(|(i, j)| MergeSpec::Pair(i, j))
            .collect();
        if qagview_core::greedy_apply(&mut w, &specs, &mut evaluator, GreedyRule::SolutionAvg)?
            .is_none()
        {
            break;
        }
        let state_idx = states.len();
        states.push(state_of(&w));
        // Close lifetimes of clusters that vanished; open the new one.
        for &m in &before {
            if !w.members().contains(&m) {
                let b = birth.remove(&m).expect("vanished member had a birth state");
                lifetimes.push((m, b, state_idx - 1));
            }
        }
        for &m in w.members() {
            birth.entry(m).or_insert(state_idx);
        }
    }
    for (&m, &b) in &birth {
        lifetimes.push((m, b, states.len() - 1));
    }
    Ok(finish_plane(d, states, lifetimes, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qagview_core::Summarizer;
    use qagview_lattice::AnswerSetBuilder;

    fn answers() -> AnswerSet {
        let mut b = AnswerSetBuilder::new(vec!["a".into(), "b".into(), "c".into()]);
        let rows: Vec<(&str, &str, &str, f64)> = vec![
            ("x", "p", "1", 9.5),
            ("x", "q", "1", 8.75),
            ("x", "r", "1", 8.0),
            ("y", "p", "2", 7.5),
            ("y", "q", "2", 7.0),
            ("y", "r", "2", 6.5),
            ("w", "p", "3", 6.0),
            ("w", "q", "3", 5.5),
            ("z", "p", "1", 2.0),
            ("z", "q", "2", 1.5),
            ("v", "r", "3", 1.0),
            ("v", "p", "1", 0.5),
        ];
        for (a, bb, c, v) in rows {
            b.push(&[a, bb, c], v).unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn retrieved_solutions_are_feasible_for_all_k_d() {
        let s = answers();
        let cfg = PrecomputeConfig {
            k_min: 1,
            k_max: 8,
            d_min: 0,
            d_max: 3,
            parallel: false,
            ..Default::default()
        };
        let pre = Precomputed::build(&s, 8, cfg).unwrap();
        for d in 0..=3 {
            for k in 1..=8 {
                let sol = pre.solution(k, d).unwrap();
                let params = Params::new(k, 8, d);
                sol.verify(&s, &params)
                    .unwrap_or_else(|e| panic!("k={k} d={d}: {e}"));
            }
        }
    }

    #[test]
    fn value_matches_materialized_solution() {
        let s = answers();
        let cfg = PrecomputeConfig {
            k_min: 1,
            k_max: 6,
            d_min: 0,
            d_max: 2,
            parallel: false,
            ..Default::default()
        };
        let pre = Precomputed::build(&s, 6, cfg).unwrap();
        for d in 0..=2 {
            for k in 1..=6 {
                let sol = pre.solution(k, d).unwrap();
                let val = pre.value(k, d).unwrap();
                assert!(
                    (sol.avg() - val).abs() < 1e-9,
                    "k={k} d={d}: tree {} vs states {val}",
                    sol.avg()
                );
            }
        }
    }

    #[test]
    fn frontier_and_reeval_engines_build_identical_planes() {
        // Fixture values are dyadic, so the two engines must agree on
        // every stored solution bit-for-bit, across the whole plane.
        let s = answers();
        let base = PrecomputeConfig {
            k_min: 1,
            k_max: 8,
            d_min: 0,
            d_max: 3,
            parallel: false,
            ..Default::default()
        };
        let frontier = Precomputed::build(&s, 8, base).unwrap();
        let index = CandidateIndex::build(&s, 8).unwrap();
        let reeval = Precomputed::build_reeval(&s, index, base).unwrap();
        assert_eq!(frontier.stored_intervals(), reeval.stored_intervals());
        for d in 0..=3 {
            for k in 1..=8 {
                let a = frontier.solution(k, d).unwrap();
                let b = reeval.solution(k, d).unwrap();
                assert_eq!(a.patterns(), b.patterns(), "k={k} d={d}");
                assert_eq!(a.sum.to_bits(), b.sum.to_bits(), "k={k} d={d}");
                assert_eq!(a.covered, b.covered, "k={k} d={d}");
                assert_eq!(
                    frontier.value(k, d).unwrap().to_bits(),
                    reeval.value(k, d).unwrap().to_bits(),
                    "k={k} d={d}"
                );
            }
        }
        let ga = frontier.guidance();
        let gb = reeval.guidance();
        assert_eq!(ga, gb, "guidance plots must be identical");
    }

    #[test]
    fn state_lookup_binary_search_matches_scan() {
        let s = answers();
        let cfg = PrecomputeConfig {
            k_min: 1,
            k_max: 12,
            d_min: 0,
            d_max: 2,
            parallel: false,
            ..Default::default()
        };
        let pre = Precomputed::build(&s, 10, cfg).unwrap();
        for plane in &pre.planes {
            for k in 0..=14 {
                let fast = plane.state_for_k(k);
                let slow = plane
                    .states
                    .iter()
                    .find(|st| st.size <= k)
                    .unwrap_or_else(|| plane.states.last().unwrap());
                assert_eq!(fast.size, slow.size, "d={} k={k}", plane.d);
                assert_eq!(fast.sum.to_bits(), slow.sum.to_bits());
            }
            // The merged guidance sweep agrees with per-k lookups.
            let ks: Vec<usize> = (1..=12).collect();
            let swept = plane.avg_by_k(&ks);
            for (i, &k) in ks.iter().enumerate() {
                assert_eq!(swept[i].to_bits(), plane.state_for_k(k).avg().to_bits());
            }
        }
    }

    #[test]
    fn parallel_and_serial_builds_agree() {
        let s = answers();
        let base = PrecomputeConfig {
            k_min: 1,
            k_max: 7,
            d_min: 0,
            d_max: 3,
            ..Default::default()
        };
        let serial = Precomputed::build(
            &s,
            7,
            PrecomputeConfig {
                parallel: false,
                ..base
            },
        )
        .unwrap();
        let parallel = Precomputed::build(
            &s,
            7,
            PrecomputeConfig {
                parallel: true,
                ..base
            },
        )
        .unwrap();
        // Bit-for-bit across the whole grid: patterns, member lists,
        // union-coverage count, and every float down to its bit pattern
        // (cluster sums, union sums) — the parallel build must not just
        // pick the same clusters, it must reproduce the serial build's
        // exact accumulation results regardless of worker scheduling.
        for d in 0..=3 {
            for k in 1..=7 {
                let s = serial.solution(k, d).unwrap();
                let p = parallel.solution(k, d).unwrap();
                assert_eq!(s.covered, p.covered, "covered, k={k} d={d}");
                assert_eq!(
                    s.sum.to_bits(),
                    p.sum.to_bits(),
                    "union sum bits, k={k} d={d}"
                );
                assert_eq!(s.clusters.len(), p.clusters.len(), "k={k} d={d}");
                for (i, (sc, pc)) in s.clusters.iter().zip(&p.clusters).enumerate() {
                    assert_eq!(sc.pattern, pc.pattern, "cluster {i}, k={k} d={d}");
                    assert_eq!(sc.members, pc.members, "cluster {i}, k={k} d={d}");
                    assert_eq!(
                        sc.sum.to_bits(),
                        pc.sum.to_bits(),
                        "cluster {i} sum bits, k={k} d={d}"
                    );
                }
                assert_eq!(
                    serial.value(k, d).unwrap().to_bits(),
                    parallel.value(k, d).unwrap().to_bits(),
                    "stored value bits, k={k} d={d}"
                );
            }
        }
        // The Fig. 2 guidance plot derives from the same stored states:
        // identical series, float bits included.
        let (sg, pg) = (serial.guidance(), parallel.guidance());
        assert_eq!(sg.k_values, pg.k_values);
        for (ss, ps) in sg.series.iter().zip(&pg.series) {
            assert_eq!(ss.d, ps.d);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&ss.avg_by_k),
                bits(&ps.avg_by_k),
                "guidance d={}",
                ss.d
            );
        }
    }

    #[test]
    fn monotone_value_in_k_for_fixed_d() {
        // Each merge can only decrease (or keep) the solution average along
        // a descent, so the stored value is non-decreasing in k.
        let s = answers();
        let cfg = PrecomputeConfig {
            k_min: 1,
            k_max: 8,
            d_min: 1,
            d_max: 1,
            parallel: false,
            ..Default::default()
        };
        let pre = Precomputed::build(&s, 8, cfg).unwrap();
        let mut prev = f64::NEG_INFINITY;
        for k in 1..=8 {
            let v = pre.value(k, 1).unwrap();
            assert!(
                v + 1e-9 >= prev,
                "value dropped from {prev} to {v} at k={k}"
            );
            prev = v;
        }
    }

    #[test]
    fn out_of_range_queries_rejected() {
        let s = answers();
        let cfg = PrecomputeConfig {
            k_min: 2,
            k_max: 5,
            d_min: 1,
            d_max: 2,
            parallel: false,
            ..Default::default()
        };
        let pre = Precomputed::build(&s, 5, cfg).unwrap();
        assert!(pre.solution(1, 1).is_err());
        assert!(pre.solution(6, 1).is_err());
        assert!(pre.solution(3, 0).is_err());
        assert!(pre.solution(3, 3).is_err());
        assert!(pre.solution(3, 2).is_ok());
    }

    #[test]
    fn storage_is_compact() {
        let s = answers();
        let cfg = PrecomputeConfig {
            k_min: 1,
            k_max: 10,
            d_min: 0,
            d_max: 3,
            parallel: false,
            ..Default::default()
        };
        let pre = Precomputed::build(&s, 10, cfg).unwrap();
        // Interval count must be far below materializing k_max × (d_max+1)
        // solutions of up to pool size each.
        let naive_upper = 10 * 4 * 20;
        assert!(
            pre.stored_intervals() < naive_upper / 2,
            "stored {} intervals",
            pre.stored_intervals()
        );
    }

    #[test]
    fn guidance_plot_has_full_grid() {
        let s = answers();
        let cfg = PrecomputeConfig {
            k_min: 1,
            k_max: 6,
            d_min: 0,
            d_max: 2,
            parallel: false,
            ..Default::default()
        };
        let pre = Precomputed::build(&s, 6, cfg).unwrap();
        let plot = pre.guidance();
        assert_eq!(plot.k_values.len(), 6);
        assert_eq!(plot.series.len(), 3);
        for series in &plot.series {
            assert_eq!(series.avg_by_k.len(), 6);
        }
    }

    #[test]
    fn matches_direct_hybrid_at_k_max() {
        // At k = k_max with d = 0, the precomputed solution equals the
        // direct Hybrid run with the same pool (no descent merging needed).
        let s = answers();
        let k_max = 4;
        let cfg = PrecomputeConfig {
            k_min: 1,
            k_max,
            d_min: 0,
            d_max: 0,
            parallel: false,
            ..Default::default()
        };
        let pre = Precomputed::build(&s, 8, cfg).unwrap();
        let sm = Summarizer::new(&s, 8).unwrap();
        let direct = sm.hybrid(k_max, 0).unwrap();
        let stored = pre.solution(k_max, 0).unwrap();
        assert_eq!(direct.patterns(), stored.patterns());
    }

    #[test]
    fn invalid_config_rejected() {
        let s = answers();
        assert!(Precomputed::build(
            &s,
            5,
            PrecomputeConfig {
                k_min: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(Precomputed::build(
            &s,
            5,
            PrecomputeConfig {
                k_min: 5,
                k_max: 2,
                ..Default::default()
            }
        )
        .is_err());
        assert!(Precomputed::build(
            &s,
            5,
            PrecomputeConfig {
                d_min: 2,
                d_max: 9,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn continuity_once_removed_never_returns() {
        // Prop 6.1 observed directly on the descent bookkeeping: rebuild a
        // plane by hand and track membership.
        let s = answers();
        let idx = CandidateIndex::build(&s, 8).unwrap();
        let params = Params::new(8, 8, 0);
        let mut w =
            fixed_order_phase(&s, &idx, &params, 16, Seeding::None, EvalMode::Delta).unwrap();
        let mut evaluator = Evaluator::new(EvalMode::Delta);
        let mut ever_removed: std::collections::HashSet<CandId> = Default::default();
        while w.len() > 1 {
            let before: Vec<CandId> = w.members().to_vec();
            let specs: Vec<MergeSpec> = w
                .all_pairs()
                .into_iter()
                .map(|(i, j)| MergeSpec::Pair(i, j))
                .collect();
            if qagview_core::greedy_apply(&mut w, &specs, &mut evaluator, GreedyRule::SolutionAvg)
                .unwrap()
                .is_none()
            {
                break;
            }
            for m in w.members() {
                assert!(
                    !ever_removed.contains(m),
                    "cluster {m} returned after removal"
                );
            }
            for m in before {
                if !w.members().contains(&m) {
                    ever_removed.insert(m);
                }
            }
        }
    }
}
