//! The traced stage-by-stage replay shared by every workload: an open
//! re-run through each layer's public functions, and the plane lookups
//! and band-diagram transitions of a sequence of knob ticks.

use crate::trace::Tracer;
use qagview_common::json::Json;
use qagview_common::Result;
use qagview_core::{EvalMode, Solution, DEFAULT_POOL_FACTOR};
use qagview_interactive::explore::{DEFAULT_D, DEFAULT_K, DEFAULT_L};
use qagview_interactive::{
    ExploreCommand, ExploreResponse, ExplorerConfig, GuidancePlot, PrecomputeConfig, Precomputed,
};
use qagview_lattice::{AnswerSet, CandidateIndex};
use qagview_query::{bind, group_aggregate_auto, parse, GroupTable, ParallelScanStats};
use qagview_storage::Catalog;
use qagview_viz::Transition;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The stages of an open, in pipeline order; their spans sit directly
/// under a `replay` span.
pub const OPEN_STAGES: [&str; 7] = [
    "query.parse",
    "query.bind",
    "query.group_scan",
    "query.answers",
    "lattice.candidate_index",
    "precompute.descent",
    "precompute.lookup",
];

/// What the replay of one open computed.
pub struct Replay {
    pub answers: Arc<AnswerSet>,
    pub pre: Precomputed<'static>,
    pub solution: Solution,
    pub plot: GuidancePlot,
    pub candidates: usize,
    pub parallel_scan: bool,
    pub rows: usize,
}

/// Re-run the open of `sql` stage by stage, mirroring a fresh engine's
/// default session state (k, L, D and plane shape).
pub fn replay_open(tr: &mut Tracer, catalog: &Catalog, sql: &str) -> Result<Replay> {
    tr.span("replay", |tr| {
        let stmt = tr.span("query.parse", |_| parse(sql))?;
        let (table, bound) = tr.span("query.bind", |_| -> Result<_> {
            let (_, table) = catalog.require_shared(&stmt.from)?;
            let bound = bind(&stmt, &table)?;
            Ok((table, bound))
        })?;
        let mut scan = ParallelScanStats::default();
        let grouped = tr.span("query.group_scan", |_| {
            group_aggregate_auto(&bound.group, &table, &mut GroupTable::new(0), &mut scan)
        })?;
        let answers = Arc::new(tr.span("query.answers", |_| grouped.apply_answers(&bound.output))?);
        let l = DEFAULT_L.min(answers.len());
        let m = answers.arity();
        let index = tr.span("lattice.candidate_index", |_| {
            CandidateIndex::build(&answers, l)
        })?;
        let candidates = index.len();
        let cfg = PrecomputeConfig {
            k_min: 1,
            k_max: ExplorerConfig::default().default_k_max.max(DEFAULT_K),
            d_min: 0,
            d_max: m,
            pool_factor: DEFAULT_POOL_FACTOR,
            eval: EvalMode::Delta,
            parallel: true,
            ..Default::default()
        };
        let pre = tr.span("precompute.descent", |_| {
            Precomputed::build_with_index(Arc::clone(&answers), index, cfg)
        })?;
        let (solution, plot) = tr.span("precompute.lookup", |_| -> Result<_> {
            Ok((pre.solution(DEFAULT_K, DEFAULT_D.min(m))?, pre.guidance()))
        })?;
        Ok(Replay {
            answers,
            pre,
            solution,
            plot,
            candidates,
            parallel_scan: scan.parallel_scans > 0,
            rows: table.num_rows(),
        })
    })
}

/// Whether the replay computed what an end-to-end open served: the same
/// answer relation (by fingerprint), summary, and guidance plot.
pub fn same_computation(r: &Replay, resp: &ExploreResponse, fingerprint: u64) -> bool {
    let s = &resp.summary;
    r.answers.fingerprint() == fingerprint
        && r.plot == resp.plot
        && s.covered == r.solution.covered
        && s.avg.to_bits() == r.solution.avg().to_bits()
        && s.clusters.len() == r.solution.clusters.len()
        && s.clusters.iter().zip(&r.solution.clusters).all(|(v, c)| {
            v.pattern == c.pattern
                && v.size == c.members.len()
                && v.sum.to_bits() == c.sum.to_bits()
        })
}

/// Walk [`KNOB_TICKS`] from the default state: look each state's
/// solution up in the replayed plane (`precompute.lookup`) and diff it
/// against the previous one (`viz.transition`), as a tick does.
pub fn replay_ticks(tr: &mut Tracer, r: &Replay) -> Result<()> {
    let m = r.answers.arity();
    let (mut k, mut d) = (DEFAULT_K, DEFAULT_D.min(m));
    let mut prev = r.solution.clone();
    for cmd in &KNOB_TICKS {
        match cmd {
            ExploreCommand::SetK(v) => k = *v,
            ExploreCommand::SetD(v) => d = (*v).min(m),
            _ => continue,
        }
        let next = tr.span("precompute.lookup", |_| -> Result<_> {
            let solution = r.pre.solution(k, d)?;
            std::hint::black_box(r.pre.guidance());
            Ok(solution)
        })?;
        let l = r.pre.l();
        let t = tr.span("viz.transition", |_| {
            Transition::between(&r.answers, &prev, &next, l)
        });
        std::hint::black_box(t);
        prev = next;
    }
    Ok(())
}

/// Per op id, the summed duration of the open stages recorded directly
/// under a `replay` span (tick lookups after the replay are not part of
/// the open).
pub fn stage_sums(tr: &Tracer) -> BTreeMap<u64, f64> {
    let spans = tr.spans();
    let mut out = BTreeMap::new();
    for s in spans {
        if OPEN_STAGES.contains(&s.name) && s.parent.is_some_and(|p| spans[p].name == "replay") {
            *out.entry(s.op).or_insert(0.0) += s.ms();
        }
    }
    out
}

/// The request body of a typed command, as a client sends it.
pub fn command_body(cmd: &ExploreCommand) -> String {
    match cmd {
        ExploreCommand::SetQuery(sql) => Json::obj([
            ("cmd", Json::from("set_query")),
            ("sql", Json::from(sql.as_str())),
        ])
        .to_text(),
        ExploreCommand::SetK(v) => format!(r#"{{"cmd":"set_k","value":{v}}}"#),
        ExploreCommand::SetD(v) => format!(r#"{{"cmd":"set_d","value":{v}}}"#),
        ExploreCommand::SetL(v) => format!(r#"{{"cmd":"set_l","value":{v}}}"#),
        ExploreCommand::SetThreshold(v) => format!(r#"{{"cmd":"set_threshold","value":{v}}}"#),
        other => panic!("the workloads send no {other:?}"),
    }
}

/// One raw HTTP/1.1 request.
pub fn frame(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The session id in the body of a `POST /api/session` response.
pub fn session_id(body: &str) -> Option<String> {
    qagview_common::json::parse(body)
        .ok()?
        .get("session")?
        .as_str()
        .map(str::to_string)
}

/// The body of a raw HTTP response.
pub fn http_body(raw: &[u8]) -> Option<&str> {
    let text = std::str::from_utf8(raw).ok()?;
    Some(&text[text.find("\r\n\r\n")? + 4..])
}

/// The view digest a command response carries.
pub fn digest_of(body: &str) -> Option<&str> {
    const KEY: &str = "\"digest\":\"";
    let at = body.find(KEY)? + KEY.len();
    body.get(at..at + 16)
}

/// The analyst's knob ticks after an open: alternating `SetK` and
/// `SetD` moves, every one answered from the plane the open built. The
/// sequence is fixed (the seed varies the data and the query order), so
/// every run times the same mix of plane lookups and transitions.
pub const KNOB_TICKS: [ExploreCommand; 10] = [
    ExploreCommand::SetK(6),
    ExploreCommand::SetD(1),
    ExploreCommand::SetK(3),
    ExploreCommand::SetD(3),
    ExploreCommand::SetK(10),
    ExploreCommand::SetD(0),
    ExploreCommand::SetK(5),
    ExploreCommand::SetD(2),
    ExploreCommand::SetK(8),
    ExploreCommand::SetD(4),
];

/// Hits over lookups, 0 when a layer was never consulted.
pub fn ratio(hits: u64, lookups: u64) -> f64 {
    if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    }
}
