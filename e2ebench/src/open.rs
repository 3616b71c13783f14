//! The cold-open workloads, `open_5m` and `open_tpcds`.
//!
//! One operation is one analyst opening a query on a fresh engine: a new
//! `Explorer::from_shared` over the shared catalog, `open_session`, and
//! the `SetQuery` that returns the first summary (`open_ms`). The analyst
//! then turns the k and D knobs ([`layers::KNOB_TICKS`]) (`tick_ms`), the
//! first interactions after the first paint, all answered from the plane
//! the open built. Queries come from a small set of same-arity variants;
//! every round of ops visits each variant once, in a seeded order.

use crate::harness::{self, median, ms, timed_setup, Ledger, Rng};
use crate::layers::{self, command_body, frame, http_body, ratio, session_id};
use crate::Run;
use qagview_common::io::RealIo;
use qagview_common::json::Json;
use qagview_common::Result;
use qagview_datagen::movielens::{self, MovieLensConfig};
use qagview_datagen::tpcds::{self, StoreSalesConfig};
use qagview_interactive::{
    ExploreCommand, ExploreResponse, ExploreSession, Explorer, ExplorerConfig, SessionCheckpoint,
    SessionSpec,
};
use qagview_serve::{view_digest, view_json, Gateway, GatewayConfig};
use qagview_storage::{Catalog, TableBuilder};
use std::sync::Arc;
use std::time::Instant;

/// Opens an end-to-end run completes at least: the p90 needs ten samples
/// beyond it.
const MIN_OPENS: usize = 100;
/// In-process applies the traced run replays, so the `explore.apply`
/// p99 has ten samples beyond it.
const MIN_APPLIES: usize = 1_500;
/// Checkpoint round trips the traced run times.
const CHECKPOINT_ROUNDS: usize = 50;

/// The inputs of one open workload, fixed by its name and seed.
pub struct OpenWorkload {
    table: &'static str,
    rows: usize,
    seed: u64,
    variants: Vec<String>,
}

impl OpenWorkload {
    pub fn new(name: &str, seed: u64) -> Option<OpenWorkload> {
        let (table, rows, variants): (_, _, Vec<String>) = match name {
            // The paper query (m = 4) at four HAVING thresholds.
            "open_5m" => (
                "ratingtable",
                5_000_000,
                [10, 11, 12, 13]
                    .iter()
                    .map(|t| {
                        format!(
                            "SELECT hdec, agegrp, gender, occupation, AVG(rating) AS val \
                             FROM ratingtable GROUP BY hdec, agegrp, gender, occupation \
                             HAVING count(*) > {t} ORDER BY val DESC"
                        )
                    })
                    .collect(),
            ),
            // One m = 6 grouping ranked by four different measures.
            "open_tpcds" => (
                "store_sales",
                StoreSalesConfig::default().rows,
                ["net_profit", "net_paid", "sales_price", "list_price"]
                    .iter()
                    .map(|measure| {
                        format!(
                            "SELECT item_category, month, demo_gender, demo_marital, \
                             demo_education, channel, AVG({measure}) AS val FROM store_sales \
                             GROUP BY item_category, month, demo_gender, demo_marital, \
                             demo_education, channel HAVING count(*) > 5 ORDER BY val DESC"
                        )
                    })
                    .collect(),
            ),
            _ => return None,
        };
        Some(OpenWorkload {
            table,
            rows,
            seed,
            variants,
        })
    }

    /// Generate the table and register it: the workload's set-up. The
    /// data is the generator's canonical dataset; the run's seed varies
    /// what the analyst does with it (the query order), so the cost of a
    /// run does not depend on which plane states one dataset happens to
    /// produce.
    fn build_catalog(&self) -> Arc<Catalog> {
        let table = match self.table {
            "ratingtable" => {
                let cfg = MovieLensConfig {
                    ratings: self.rows,
                    ..Default::default()
                };
                let mut b = TableBuilder::with_capacity(movielens::rating_schema(), self.rows);
                for row in movielens::iter_rows(&cfg) {
                    b.push_row(row).expect("generated rows match the schema");
                }
                b.finish()
            }
            _ => tpcds::generate(&StoreSalesConfig {
                rows: self.rows,
                ..Default::default()
            })
            .expect("generated store_sales"),
        };
        let mut catalog = Catalog::new();
        catalog.register(self.table, table);
        Arc::new(catalog)
    }

    /// Variant order: every round visits each variant once, shuffled.
    fn schedule(&self) -> impl FnMut() -> usize {
        let mut rng = Rng::new(self.seed);
        let n = self.variants.len();
        let mut round: Vec<usize> = Vec::new();
        move || {
            if round.is_empty() {
                round = (0..n).collect();
                for i in (1..n).rev() {
                    round.swap(i, rng.below(i + 1));
                }
            }
            round.pop().expect("a refilled round")
        }
    }
}

/// What every op of a variant must reproduce: the oracle's answer
/// fingerprint and the view digests of the open and of each tick.
struct Expected {
    fingerprint: u64,
    digests: Vec<u64>,
}

/// One end-to-end op: the cold open, then the knob ticks.
struct OpenOp {
    open_ms: f64,
    tick_ms: Vec<f64>,
    engine: Arc<Explorer>,
    session: ExploreSession,
    /// The open's response, then one per tick.
    responses: Vec<ExploreResponse>,
}

fn fresh_engine(catalog: &Arc<Catalog>) -> Arc<Explorer> {
    Arc::new(Explorer::from_shared(
        Arc::clone(catalog),
        ExplorerConfig::default(),
    ))
}

fn open(
    catalog: &Arc<Catalog>,
    sql: &str,
) -> Result<(Arc<Explorer>, ExploreSession, ExploreResponse)> {
    let engine = fresh_engine(catalog);
    let mut session = engine.open_session(SessionSpec::default())?;
    let resp = session.apply(ExploreCommand::SetQuery(sql.to_string()))?;
    Ok((engine, session, resp))
}

/// Run one op; with a tracer, the open and each tick get a span.
fn run_op(
    catalog: &Arc<Catalog>,
    sql: &str,
    mut tracer: Option<&mut crate::trace::Tracer>,
) -> Result<OpenOp> {
    let t = Instant::now();
    let (engine, mut session, first) = match tracer.as_deref_mut() {
        Some(tr) => tr.span("explore.open", |_| open(catalog, sql))?,
        None => open(catalog, sql)?,
    };
    let open_ms = ms(t);
    let mut responses = vec![first];
    let mut tick_ms = Vec::with_capacity(layers::KNOB_TICKS.len());
    for cmd in &layers::KNOB_TICKS {
        let t = Instant::now();
        let resp = match tracer.as_deref_mut() {
            Some(tr) => tr.span("explore.apply", |_| session.apply(cmd.clone()))?,
            None => session.apply(cmd.clone())?,
        };
        tick_ms.push(ms(t));
        responses.push(resp);
    }
    Ok(OpenOp {
        open_ms,
        tick_ms,
        engine,
        session,
        responses,
    })
}

/// Count the op's open and ticks, each held to its variant's digest.
fn check_op(ledger: &mut Ledger, variant: usize, op: &OpenOp, expected: &Expected) {
    for (i, (resp, want)) in op.responses.iter().zip(&expected.digests).enumerate() {
        let what = if i == 0 {
            format!("open of variant {variant}")
        } else {
            format!("tick {i} of variant {variant}")
        };
        let got = format!("{:016x}", view_digest(resp));
        ledger.check_digest(&what, &format!("{want:016x}"), Some(&got));
    }
}

/// Before timing: each variant's answer relation must match the
/// row-engine oracle, and its first op fixes the digests every later op
/// of that variant is held to.
fn expectations(
    w: &OpenWorkload,
    catalog: &Arc<Catalog>,
    ledger: &mut Ledger,
) -> Result<Vec<Expected>> {
    let mut out = Vec::new();
    for (v, sql) in w.variants.iter().enumerate() {
        let oracle = qagview::answers_from_query(&qagview_query::run_query(catalog, sql)?)?;
        let engine_fp = fresh_engine(catalog).answer_relation(sql)?.fingerprint();
        ledger.check(
            &format!("answer relation of variant {v}"),
            engine_fp == oracle.fingerprint(),
            || {
                format!(
                    "engine {engine_fp:016x}, oracle {:016x}",
                    oracle.fingerprint()
                )
            },
        );
        let op = run_op(catalog, sql, None)?;
        out.push(Expected {
            fingerprint: oracle.fingerprint(),
            digests: op.responses.iter().map(view_digest).collect(),
        });
    }
    Ok(out)
}

/// Per-op facts recorded with the result.
fn op_record(variant: usize, op: &OpenOp) -> Json {
    let scan = op.responses[0].provenance.stats.scan;
    Json::obj([
        ("variant", Json::from(variant)),
        (
            "scan_path",
            Json::from(if scan.parallel_scans > 0 {
                "parallel"
            } else {
                "sequential"
            }),
        ),
        ("answers", Json::from(op.responses[0].summary.total)),
        ("open_ms", Json::from(op.open_ms)),
    ])
}

/// The untraced closed loop: at least `seconds` and `min_opens` opens.
fn run_loop(
    w: &OpenWorkload,
    catalog: &Arc<Catalog>,
    expected: &[Expected],
    seconds: f64,
    min_opens: usize,
    run: &mut Run,
) -> Result<(Vec<f64>, Vec<f64>)> {
    let mut next = w.schedule();
    let (mut opens, mut ticks) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || opens.len() < min_opens {
        let v = next();
        let op = run_op(catalog, &w.variants[v], None)?;
        check_op(&mut run.ledger, v, &op, &expected[v]);
        run.records.push(op_record(v, &op));
        opens.push(op.open_ms);
        ticks.extend_from_slice(&op.tick_ms);
    }
    Ok((opens, ticks))
}

pub fn run(w: &OpenWorkload, trace: bool, run: &mut Run) -> std::result::Result<Json, String> {
    let (setup_s, catalog) = timed_setup(3, 0.0, || w.build_catalog());
    run.metrics.set("setup_s", setup_s);
    let expected = expectations(w, &catalog, &mut run.ledger).map_err(|e| e.to_string())?;
    if trace {
        traced(w, &catalog, &expected, run)?;
    } else {
        let (opens, ticks) = run_loop(w, &catalog, &expected, run.seconds, MIN_OPENS, run)
            .map_err(|e| e.to_string())?;
        let m = &mut run.metrics;
        m.set("open_ms.p50", median(&opens));
        m.set("open_ms.p90", harness::percentile(&opens, 0.9)?);
        m.set("tick_ms.p50", median(&ticks));
        m.set("tick_ms.p99", harness::percentile(&ticks, 0.99)?);
        m.set(
            "ticks_per_s",
            ticks.len() as f64 / (ticks.iter().sum::<f64>() / 1e3),
        );
    }
    let rows = catalog.get(w.table).map_or(0, |t| t.num_rows());
    Ok(Json::obj([
        ("rows", Json::from(rows)),
        ("ticks_per_open", Json::from(layers::KNOB_TICKS.len())),
        (
            "variants",
            Json::Arr(w.variants.iter().map(|s| Json::from(s.as_str())).collect()),
        ),
    ]))
}

/// The in-process gateway twin of an op on its (now warm) engine: the
/// same command bytes a client would send, handled without a socket.
fn gateway_twin(run: &mut Run, engine: &Arc<Explorer>, sql: &str) -> bool {
    let gateway = Gateway::new(Arc::clone(engine), GatewayConfig::default());
    let created = gateway.handle_bytes(&frame("POST", "/api/session", ""));
    let Some(id) = http_body(&created).and_then(session_id) else {
        return false;
    };
    let path = format!("/api/session/{id}/command");
    let open = ExploreCommand::SetQuery(sql.to_string());
    let mut ok = true;
    for cmd in std::iter::once(&open).chain(&layers::KNOB_TICKS) {
        let raw = frame("POST", &path, &command_body(cmd));
        let resp = run
            .tracer
            .span("serve.handle", |_| gateway.handle_bytes(&raw));
        ok &= resp.starts_with(b"HTTP/1.1 200");
    }
    ok
}

/// The traced run: an untraced half for the overhead baseline, then a
/// traced half where every op is followed by its stage-by-stage replay,
/// the tick lookups and transitions, the encoding of its views, and its
/// gateway twin; then checkpoint round trips and in-process applies on
/// the last session.
fn traced(
    w: &OpenWorkload,
    catalog: &Arc<Catalog>,
    expected: &[Expected],
    run: &mut Run,
) -> std::result::Result<(), String> {
    let err = |e: qagview_common::QagError| e.to_string();
    let (untraced, _) = run_loop(w, catalog, expected, run.seconds / 2.0, 3, run).map_err(err)?;

    let mut next = w.schedule();
    let mut opens = Vec::new();
    let (mut scans, mut parallel, mut rows, mut candidates) = (0usize, 0usize, 0usize, 0usize);
    let (mut hits, mut lookups) = ([0u64; 4], [0u64; 4]);
    let mut retained = 0u64;
    let mut last = None;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < run.seconds / 2.0 || opens.len() < 3 {
        let v = next();
        let sql = &w.variants[v];
        run.tracer.begin_op();
        let op = run
            .tracer
            .span("op", |tr| run_op(catalog, sql, Some(tr)))
            .map_err(err)?;
        check_op(&mut run.ledger, v, &op, &expected[v]);
        run.records.push(op_record(v, &op));
        opens.push(op.open_ms);

        let replay = layers::replay_open(&mut run.tracer, catalog, sql).map_err(err)?;
        let same = layers::same_computation(&replay, &op.responses[0], expected[v].fingerprint);
        run.ledger
            .check(&format!("stage replay of variant {v}"), same, || {
                "the replay computed a different answer relation or summary".into()
            });
        scans += 1;
        parallel += usize::from(replay.parallel_scan);
        rows = replay.rows;
        candidates = replay.candidates;
        layers::replay_ticks(&mut run.tracer, &replay).map_err(err)?;
        for resp in &op.responses {
            std::hint::black_box(
                run.tracer
                    .span("serve.encode", |_| view_json(resp).to_text()),
            );
        }
        let twin_ok = gateway_twin(run, &op.engine, sql);
        run.ledger.check("gateway twin", twin_ok, || {
            "the gateway refused a command".into()
        });

        let stats = op.engine.stats();
        for (i, layer) in [
            stats.group_phase,
            stats.answers,
            stats.planes,
            stats.summarizers,
        ]
        .iter()
        .enumerate()
        {
            hits[i] += layer.hits;
            lookups[i] += layer.hits + layer.misses;
        }
        retained = retained.max(op.session.retained_bytes());
        last = Some(op);
    }

    let mut op = last.expect("at least one traced op");
    let path = run.scratch.join("open.qagsess");
    for _ in 0..CHECKPOINT_ROUNDS {
        let cp = run
            .tracer
            .span("checkpoint.write", |_| {
                let cp = op.session.checkpoint();
                cp.save_io(&RealIo, &path).map(|()| cp)
            })
            .map_err(err)?;
        let (loaded, session) = run
            .tracer
            .span("checkpoint.restore", |_| -> Result<_> {
                let loaded = SessionCheckpoint::load_io(&RealIo, &path)?;
                let session = loaded.resume(Arc::clone(&op.engine));
                Ok((loaded, session))
            })
            .map_err(err)?;
        run.ledger.check("checkpoint round trip", loaded == cp, || {
            "the restored checkpoint differs".into()
        });
        op.session = session;
    }
    let mut applies = 0;
    while applies < MIN_APPLIES {
        for cmd in &layers::KNOB_TICKS {
            run.tracer
                .span("explore.apply", |_| op.session.apply(cmd.clone()))
                .map_err(err)?;
            applies += 1;
        }
    }

    let tr = &run.tracer;
    let stage_sums = layers::stage_sums(tr);
    let open_wall = tr.per_op_sum(&["explore.open"]);
    let coverage: Vec<f64> = stage_sums
        .iter()
        .filter_map(|(op, stage)| open_wall.get(op).map(|wall| stage / wall))
        .collect();
    let stage_sums: Vec<f64> = stage_sums.into_values().collect();
    let scan_ms = median(&tr.durations("query.group_scan"));
    let parse_bind: Vec<f64> = tr
        .per_op_sum(&["query.parse", "query.bind"])
        .into_values()
        .collect();
    let applies = tr.durations("explore.apply");
    let m = &mut run.metrics;
    m.set("query.parse_bind_ms", median(&parse_bind));
    m.set("query.group_scan_ms", scan_ms);
    m.set("query.scan_mrows_per_s", rows as f64 / scan_ms / 1e3);
    m.set("query.parallel_scan_frac", parallel as f64 / scans as f64);
    m.set("query.answers_ms", median(&tr.durations("query.answers")));
    m.set(
        "lattice.candidate_index_ms",
        median(&tr.durations("lattice.candidate_index")),
    );
    m.set("lattice.candidates", candidates as f64);
    m.set(
        "precompute.descent_ms",
        median(&tr.durations("precompute.descent")),
    );
    m.set(
        "precompute.lookup_ms",
        median(&tr.durations("precompute.lookup")),
    );
    m.set("explore.apply_ms.p50", median(&applies));
    m.set("explore.apply_ms.p99", harness::percentile(&applies, 0.99)?);
    for (i, name) in [
        "explore.hit_ratio.group_phase",
        "explore.hit_ratio.answers",
        "explore.hit_ratio.planes",
        "explore.hit_ratio.summarizers",
    ]
    .into_iter()
    .enumerate()
    {
        m.set(name, ratio(hits[i], lookups[i]));
    }
    m.set("explore.retained_mb", retained as f64 / (1024.0 * 1024.0));
    m.set(
        "checkpoint.write_ms",
        median(&tr.durations("checkpoint.write")),
    );
    m.set(
        "checkpoint.restore_ms",
        median(&tr.durations("checkpoint.restore")),
    );
    // No server: nothing is evicted, restored, or sent over a wire.
    m.set("sessions.evictions_per_1k", 0.0);
    m.set("sessions.restores_per_1k", 0.0);
    m.set("serve.wire_ms", 0.0);
    m.set("viz.transition_ms", median(&tr.durations("viz.transition")));
    m.set("serve.handle_ms", median(&tr.durations("serve.handle")));
    m.set("serve.encode_ms", median(&tr.durations("serve.encode")));
    m.set("trace.coverage", median(&coverage));
    m.set("trace.stage_sum_ms", median(&stage_sums));
    m.set("trace.op_ms", median(&opens));
    m.set(
        "trace.overhead_frac",
        median(&opens) / median(&untraced) - 1.0,
    );
    Ok(())
}
