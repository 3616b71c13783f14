//! The served-tick workload, `serve_churn`.
//!
//! Scripted analyst sessions (open the paper query, then slider sweeps,
//! k/L/D turns, drill-down and back) over TCP keep-alive, from a closed
//! loop of at most two client connections against one `Server`. Each
//! client keeps its share of [`LIVE_SESSIONS`] live and round-robins their
//! steps; a finished session is deleted and a fresh one opened on a
//! seeded script. Live sessions outnumber the resident cap four to one,
//! so nearly every command restores its session from a checkpoint and
//! evicts another to one. The distinct plane keys of all scripts fit the
//! engine's plane cache, so the group phase and planes hit: time goes to
//! framing, session locks, checkpoint I/O, transitions and encoding.

use crate::harness::{self, median, percentile, timed_setup, Ledger, Rng};
use crate::layers::{self, frame, http_body, ratio, session_id};
use crate::Run;
use qagview_common::io::RealIo;
use qagview_common::json::{self, Json};
use qagview_datagen::movielens::{self, MovieLensConfig};
use qagview_interactive::{
    ExploreResponse, Explorer, ExplorerConfig, SessionCheckpoint, SessionSpec,
};
use qagview_serve::{
    parse_command, view_digest, view_json, Gateway, GatewayConfig, Server, ServerConfig,
    SessionConfig,
};
use qagview_storage::Catalog;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SQL: &str = "SELECT hdec, agegrp, gender, occupation, AVG(rating) AS val FROM ratingtable \
                   GROUP BY hdec, agegrp, gender, occupation \
                   HAVING count(*) > 10 ORDER BY val DESC";
const ARITY: usize = 4;
const ROWS: usize = 20_000;
/// Live sessions, split evenly across the client connections.
const LIVE_SESSIONS: usize = 24;
/// Resident-session cap: a quarter of the live sessions.
const MAX_RESIDENT: usize = 6;
/// In-process applies the traced run replays (the p99 needs ten samples
/// beyond it).
const MIN_APPLIES: usize = 1_500;
/// Stage replays of the served query's cold open in the traced run.
const OPEN_REPLAYS: usize = 30;

/// One step of a session script. A drill takes the first cluster of the
/// previous view that is not the all-`*` overview, as a UI tracking the
/// view would.
#[derive(Clone)]
enum Step {
    Body(String),
    DrillFirst,
    DrillBack,
}

fn set(cmd: &str, value: impl std::fmt::Display) -> Step {
    Step::Body(format!(r#"{{"cmd":"{cmd}","value":{value}}}"#))
}

/// The script variants: every session opens the paper query, then sweeps
/// sliders, turns knobs, and drills.
fn scripts() -> Vec<Vec<Step>> {
    let open = Step::Body(layers::command_body(
        &qagview_interactive::ExploreCommand::SetQuery(SQL.to_string()),
    ));
    let base = |tail: Vec<Step>| -> Vec<Step> {
        let mut s = vec![open.clone(), set("set_k", 6), set("set_l", 40)];
        s.extend(tail);
        s
    };
    vec![
        base(vec![
            set("set_threshold", 20.5),
            set("set_threshold", 20.0),
            set("set_k", 4),
        ]),
        base(vec![set("set_l", 12), Step::DrillFirst, Step::DrillBack]),
        base(vec![set("set_k", 8), set("set_l", 60), set("set_k", 5)]),
        base(vec![
            set("set_threshold", 30.5),
            set("set_k", 4),
            set("set_threshold", 30.0),
        ]),
        base(vec![
            set("set_d", 2),
            set("set_threshold", 20.5),
            set("set_d", 1),
        ]),
        vec![
            open.clone(),
            Step::DrillFirst,
            set("set_k", 4),
            Step::DrillBack,
            set("set_k", 6),
            set("set_l", 40),
        ],
        base(vec![
            set("set_l", 60),
            set("set_threshold", 30.5),
            set("set_threshold", 30.0),
        ]),
        base(vec![set("set_k", 8), set("set_l", 12), Step::DrillFirst]),
    ]
}

/// One scripted step as sent: its body, whether it opens the session's
/// query, and the digest the sequential oracle saw for it.
struct OracleStep {
    body: String,
    opens: bool,
    digest: String,
    answers: usize,
}

/// Sequential oracle: replay every script on a bare in-process session,
/// deriving drill bodies from the previous view.
fn oracle(catalog: &Arc<Catalog>, scripts: &[Vec<Step>]) -> Result<Vec<Vec<OracleStep>>, String> {
    let engine = Arc::new(Explorer::from_shared(
        Arc::clone(catalog),
        ExplorerConfig::default(),
    ));
    let mut out = Vec::new();
    for script in scripts {
        let mut session = engine
            .open_session(SessionSpec::default())
            .map_err(|e| e.to_string())?;
        let mut prev: Option<ExploreResponse> = None;
        let mut steps = Vec::new();
        for step in script {
            let body = match step {
                Step::Body(b) => b.clone(),
                Step::DrillFirst => {
                    let view = view_json(prev.as_ref().ok_or("a drill needs a previous view")?);
                    let pattern = view
                        .path("summary.clusters")
                        .and_then(|c| {
                            c.items()
                                .iter()
                                .filter_map(|c| c.get("pattern"))
                                .find(|p| p.items().iter().any(|slot| *slot != Json::Null))
                        })
                        .ok_or_else(|| {
                            format!(
                                "no cluster to drill into: {}",
                                view.path("summary")
                                    .map(|s| s.to_text())
                                    .unwrap_or_default()
                            )
                        })?
                        .to_text();
                    format!(r#"{{"cmd":"drill_down","pattern":{pattern}}}"#)
                }
                Step::DrillBack => {
                    let stars = ["null"; ARITY].join(",");
                    format!(r#"{{"cmd":"drill_down","pattern":[{stars}]}}"#)
                }
            };
            let cmd = parse_command(body.as_bytes()).map_err(|e| e.message())?;
            let resp = session.apply(cmd).map_err(|e| e.to_string())?;
            steps.push(OracleStep {
                opens: matches!(step, Step::Body(b) if b.contains("set_query")),
                digest: format!("{:016x}", view_digest(&resp)),
                answers: resp.summary.total,
                body,
            });
            prev = Some(resp);
        }
        out.push(steps);
    }
    Ok(out)
}

/// A minimal blocking keep-alive HTTP/1.1 client.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// One request; returns the status and the body.
    fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        self.writer.write_all(&frame(method, path, body))?;
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("status line"))?;
        let mut content_length = 0usize;
        loop {
            let mut h = String::new();
            if self.reader.read_line(&mut h)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let h = h.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some(v) = h.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().map_err(|_| bad("content length"))?;
            }
        }
        let mut buf = vec![0u8; content_length];
        self.reader.read_exact(&mut buf)?;
        Ok((
            status,
            String::from_utf8(buf).map_err(|_| bad("non-UTF-8 body"))?,
        ))
    }

    fn create_session(&mut self) -> std::io::Result<Option<String>> {
        let (status, body) = self.request("POST", "/api/session", "")?;
        Ok((status == 200).then(|| session_id(&body)).flatten())
    }
}

/// A live session slot of one client.
struct Slot {
    id: Option<String>,
    variant: usize,
    step: usize,
}

/// One timed request: when it was sent and answered, and what it was.
#[derive(Clone, Copy)]
struct Sample {
    start: Instant,
    end: Instant,
    /// `(variant, step)` of a command; `None` for session create/delete.
    key: Option<(usize, usize)>,
    opens: bool,
}

impl Sample {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// What one closed-loop pass over TCP produced.
struct Pass {
    samples: Vec<Sample>,
    ledger: Ledger,
    wall_s: f64,
}

/// Drive the server for `seconds` from `clients` closed-loop connections.
fn drive(
    addr: SocketAddr,
    oracle: &[Vec<OracleStep>],
    clients: usize,
    seconds: f64,
    seed: u64,
) -> Pass {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_client: Vec<(Vec<Sample>, Ledger)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let slots = LIVE_SESSIONS / clients;
                scope.spawn(move || {
                    client_loop(addr, oracle, slots, deadline, seed ^ (c as u64 + 1))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut pass = Pass {
        samples: Vec::new(),
        ledger: Ledger::default(),
        wall_s,
    };
    for (samples, ledger) in per_client {
        pass.samples.extend(samples);
        pass.ledger.merge(ledger);
    }
    pass
}

fn client_loop(
    addr: SocketAddr,
    oracle: &[Vec<OracleStep>],
    slots: usize,
    deadline: Instant,
    seed: u64,
) -> (Vec<Sample>, Ledger) {
    let mut ledger = Ledger::default();
    let mut samples = Vec::new();
    let mut rng = Rng::new(seed);
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            ledger.check("connect", false, || e.to_string());
            return (samples, ledger);
        }
    };
    // Scripts are dealt from seeded shuffles of all variants, so every
    // run replays the same mix of scripts in a different order.
    let mut deck: Vec<usize> = Vec::new();
    let mut deal = move || {
        if deck.is_empty() {
            deck = (0..oracle.len()).collect();
            for i in (1..deck.len()).rev() {
                deck.swap(i, rng.below(i + 1));
            }
        }
        deck.pop().expect("a refilled deck")
    };
    let mut slots: Vec<Slot> = (0..slots)
        .map(|_| Slot {
            id: None,
            variant: deal(),
            step: 0,
        })
        .collect();
    // Open the slots' sessions before the clock matters.
    for slot in &mut slots {
        slot.id = client.create_session().ok().flatten();
    }
    while Instant::now() < deadline {
        for slot in &mut slots {
            let script = &oracle[slot.variant];
            if slot.step == script.len() || slot.id.is_none() {
                // The analyst is done: close the session, open the next.
                if let Some(id) = slot.id.take() {
                    let start = Instant::now();
                    let res = client.request("DELETE", &format!("/api/session/{id}"), "");
                    samples.push(Sample {
                        start,
                        end: Instant::now(),
                        key: None,
                        opens: false,
                    });
                    ledger.check("delete session", matches!(res, Ok((200, _))), || {
                        format!("{res:?}")
                    });
                }
                let start = Instant::now();
                let res = client.create_session();
                samples.push(Sample {
                    start,
                    end: Instant::now(),
                    key: None,
                    opens: false,
                });
                let detail = format!("{res:?}");
                slot.id = res.ok().flatten();
                ledger.check("create session", slot.id.is_some(), || detail);
                slot.variant = deal();
                slot.step = 0;
                continue;
            }
            let step = &script[slot.step];
            let path = format!(
                "/api/session/{}/command",
                slot.id.as_deref().expect("a live slot")
            );
            let start = Instant::now();
            let res = client.request("POST", &path, &step.body);
            let end = Instant::now();
            samples.push(Sample {
                start,
                end,
                key: Some((slot.variant, slot.step)),
                opens: step.opens,
            });
            let got = match &res {
                Ok((200, body)) => layers::digest_of(body),
                _ => None,
            };
            let what = format!("variant {} step {}", slot.variant, slot.step);
            if !ledger.check_digest(&what, &step.digest, got) {
                // Start this analyst over rather than drift from the oracle.
                slot.step = script.len();
                if res.is_err() {
                    if let Ok(c) = Client::connect(addr) {
                        client = c;
                    }
                }
                continue;
            }
            slot.step += 1;
        }
    }
    for slot in &slots {
        if let Some(id) = &slot.id {
            let _ = client.request("DELETE", &format!("/api/session/{id}"), "");
        }
    }
    (samples, ledger)
}

/// `GET /api/metrics` counters of interest: requests, evictions, restores.
fn server_counters(addr: SocketAddr) -> Result<[f64; 3], String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let (status, body) = client
        .request("GET", "/api/metrics", "")
        .map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("/api/metrics answered {status}"));
    }
    let doc = json::parse(&body).map_err(|e| e.to_string())?;
    let get = |k: &str| {
        doc.get(k)
            .and_then(Json::as_f64)
            .ok_or(format!("/api/metrics lacks {k}"))
    };
    Ok([
        get("requests")?,
        get("sessions_evicted")?,
        get("sessions_restored")?,
    ])
}

/// The served system: engine, gateway and a running server.
struct Served {
    engine: Arc<Explorer>,
    server: Server,
}

fn boot(catalog: &Arc<Catalog>, checkpoints: &std::path::Path) -> std::io::Result<Served> {
    let engine = Arc::new(Explorer::from_shared(
        Arc::clone(catalog),
        ExplorerConfig::default(),
    ));
    let gateway = Arc::new(Gateway::new(
        Arc::clone(&engine),
        GatewayConfig {
            sessions: SessionConfig {
                shards: 8,
                max_resident: MAX_RESIDENT,
                checkpoint_dir: Some(checkpoints.to_path_buf()),
            },
            ..GatewayConfig::default()
        },
    ));
    let server = Server::start(gateway, "127.0.0.1:0", ServerConfig::default())?;
    Ok(Served { engine, server })
}

/// The generator's canonical dataset at [`ROWS`] rows; the run's seed
/// varies the analysts' scripts, not the data.
fn build_catalog() -> Arc<Catalog> {
    let table = movielens::generate(&MovieLensConfig {
        ratings: ROWS,
        ..Default::default()
    })
    .expect("generated ratingtable");
    let mut catalog = Catalog::new();
    catalog.register("ratingtable", table);
    Arc::new(catalog)
}

pub fn run(trace: bool, run: &mut Run) -> Result<Json, String> {
    let clients = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let seed = run.seed;
    let checkpoints = run.scratch.join("sessions");
    std::fs::create_dir_all(&checkpoints).map_err(|e| e.to_string())?;
    // Set-up: data generation, table build and server boot. Repeated so
    // the median is steady; every server but the last is shut down.
    let (setup_s, (catalog, mut served)) = timed_setup(3, 1.0, || {
        let catalog = build_catalog();
        let served = boot(&catalog, &checkpoints).expect("bind a loopback port");
        (catalog, served)
    });
    run.metrics.set("setup_s", setup_s);

    let scripts = scripts();
    let oracle = oracle(&catalog, &scripts)?;
    let addr = served.server.addr();
    // Warm the served engine's caches with one untimed pass per script.
    let warm = drive(addr, &oracle, 1, 0.3, seed ^ 0x5741_524d);
    run.ledger.merge(warm.ledger);

    let result = if trace {
        traced(run, &catalog, &served, &oracle, clients)
    } else {
        let pass = drive(addr, &oracle, clients, run.seconds, seed);
        run.ledger.merge(pass.ledger);
        tick_metrics(run, &pass)
    };
    let scan = served.engine.stats().scan;
    served.server.shutdown();
    result?;

    let mut records = Vec::new();
    for (v, steps) in oracle.iter().enumerate() {
        for (s, step) in steps.iter().enumerate() {
            records.push(Json::obj([
                ("variant", Json::from(v)),
                ("step", Json::from(s)),
                ("body", Json::from(step.body.as_str())),
                ("answers", Json::from(step.answers)),
            ]));
        }
    }
    run.records.extend(records);
    Ok(Json::obj([
        ("rows", Json::from(ROWS)),
        ("clients", Json::from(clients)),
        ("live_sessions", Json::from(LIVE_SESSIONS)),
        ("max_resident", Json::from(MAX_RESIDENT)),
        (
            "scan_path",
            Json::from(if scan.parallel_scans > 0 {
                "parallel"
            } else {
                "sequential"
            }),
        ),
    ]))
}

fn tick_metrics(run: &mut Run, pass: &Pass) -> Result<(), String> {
    let ticks: Vec<f64> = pass.samples.iter().map(Sample::ms).collect();
    let opens: Vec<f64> = pass
        .samples
        .iter()
        .filter(|s| s.opens)
        .map(Sample::ms)
        .collect();
    let m = &mut run.metrics;
    m.set("open_ms.p50", median(&opens));
    m.set("open_ms.p90", percentile(&opens, 0.9)?);
    m.set("tick_ms.p50", median(&ticks));
    m.set("tick_ms.p99", percentile(&ticks, 0.99)?);
    m.set("ticks_per_s", ticks.len() as f64 / pass.wall_s);
    Ok(())
}

/// The traced run: an untraced TCP pass for the overhead baseline; a
/// traced TCP pass (a span per request); then, with the server idle, the
/// in-process twins of every scripted request: `Gateway::handle_bytes`
/// on the same bytes, `ExploreSession::apply`, view encoding, and a
/// checkpoint round trip per step; and stage replays of the served
/// query's cold open.
fn traced(
    run: &mut Run,
    catalog: &Arc<Catalog>,
    served: &Served,
    oracle: &[Vec<OracleStep>],
    clients: usize,
) -> Result<(), String> {
    let err = |e: qagview_common::QagError| e.to_string();
    let addr = served.server.addr();
    let untraced = drive(addr, oracle, clients, run.seconds / 2.0, run.seed);
    run.ledger.merge(untraced.ledger);
    let untraced_p50 = median(&untraced.samples.iter().map(Sample::ms).collect::<Vec<_>>());

    let before = server_counters(addr)?;
    let stats_before = served.engine.stats();
    let pass = drive(addr, oracle, clients, run.seconds / 2.0, run.seed ^ 0x7472);
    run.ledger.merge(pass.ledger);
    let after = server_counters(addr)?;
    let stats_after = served.engine.stats();
    let mut rtt_by_key: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
    for s in &pass.samples {
        let op = run.tracer.begin_op();
        run.tracer.record("serve.request", s.start, s.end, op);
        if let Some(key) = s.key {
            rtt_by_key.entry(key).or_default().push(s.ms());
        }
    }
    let rtts: Vec<f64> = pass.samples.iter().map(Sample::ms).collect();

    // In-process twins of the scripted requests, on the same warm engine.
    let twin_gateway = Gateway::new(Arc::clone(&served.engine), GatewayConfig::default());
    let path = run.scratch.join("twin.qagsess");
    let mut handle_by_key: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
    let mut retained = 0u64;
    let mut applies = 0usize;
    while applies < MIN_APPLIES {
        for (v, steps) in oracle.iter().enumerate() {
            run.tracer.begin_op();
            let created = twin_gateway.handle_bytes(&frame("POST", "/api/session", ""));
            let id = http_body(&created)
                .and_then(session_id)
                .ok_or("twin session refused")?;
            let cmd_path = format!("/api/session/{id}/command");
            let mut session = served
                .engine
                .open_session(SessionSpec::default())
                .map_err(err)?;
            for (s, step) in steps.iter().enumerate() {
                let raw = frame("POST", &cmd_path, &step.body);
                let t = Instant::now();
                let resp = run
                    .tracer
                    .span("serve.handle", |_| twin_gateway.handle_bytes(&raw));
                handle_by_key
                    .entry((v, s))
                    .or_default()
                    .push(harness::ms(t));
                let got = http_body(&resp).and_then(layers::digest_of);
                run.ledger.check_digest("gateway twin", &step.digest, got);

                let cmd = parse_command(step.body.as_bytes()).map_err(|e| e.message())?;
                let resp = run
                    .tracer
                    .span("explore.apply", |_| session.apply(cmd))
                    .map_err(err)?;
                applies += 1;
                let text = run
                    .tracer
                    .span("serve.encode", |_| view_json(&resp).to_text());
                let digest = format!("{:016x}", qagview_common::wire::checksum64(text.as_bytes()));
                run.ledger
                    .check_digest("in-process apply", &step.digest, Some(&digest));
                retained = retained.max(session.retained_bytes());

                let cp = run
                    .tracer
                    .span("checkpoint.write", |_| {
                        let cp = session.checkpoint();
                        cp.save_io(&RealIo, &path).map(|()| cp)
                    })
                    .map_err(err)?;
                let (loaded, resumed) = run
                    .tracer
                    .span("checkpoint.restore", |_| -> qagview_common::Result<_> {
                        let loaded = SessionCheckpoint::load_io(&RealIo, &path)?;
                        let resumed = loaded.resume(Arc::clone(&served.engine));
                        Ok((loaded, resumed))
                    })
                    .map_err(err)?;
                run.ledger.check("checkpoint round trip", loaded == cp, || {
                    "the restored checkpoint differs".into()
                });
                session = resumed;
            }
            let _ = twin_gateway.handle_bytes(&frame("DELETE", &format!("/api/session/{id}"), ""));
        }
    }
    let _ = std::fs::remove_file(&path);

    // Stage replays of the served query's cold open, held to the oracle.
    let oracle_fp =
        qagview::answers_from_query(&qagview_query::run_query(catalog, SQL).map_err(err)?)
            .map_err(err)?
            .fingerprint();
    let fresh = Arc::new(Explorer::from_shared(
        Arc::clone(catalog),
        ExplorerConfig::default(),
    ));
    let first = fresh
        .open_session(SessionSpec::default())
        .and_then(|mut s| {
            s.apply(qagview_interactive::ExploreCommand::SetQuery(
                SQL.to_string(),
            ))
        })
        .map_err(err)?;
    let (mut parallel, mut rows, mut candidates) = (0usize, 0usize, 0usize);
    for _ in 0..OPEN_REPLAYS {
        run.tracer.begin_op();
        let replay = layers::replay_open(&mut run.tracer, catalog, SQL).map_err(err)?;
        let same = layers::same_computation(&replay, &first, oracle_fp);
        run.ledger.check("stage replay", same, || {
            "the replay computed a different summary".into()
        });
        parallel += usize::from(replay.parallel_scan);
        rows = replay.rows;
        candidates = replay.candidates;
        layers::replay_ticks(&mut run.tracer, &replay).map_err(err)?;
    }

    let tr = &run.tracer;
    let requests = (after[0] - before[0]).max(1.0);
    let handle_ms = median(&tr.durations("serve.handle"));
    let coverage: Vec<f64> = rtt_by_key
        .iter()
        .filter_map(|(key, rtt)| handle_by_key.get(key).map(|h| median(h) / median(rtt)))
        .collect();
    let scan_ms = median(&tr.durations("query.group_scan"));
    let parse_bind: Vec<f64> = tr
        .per_op_sum(&["query.parse", "query.bind"])
        .into_values()
        .collect();
    let applies = tr.durations("explore.apply");
    let layer_pairs = [
        (stats_before.group_phase, stats_after.group_phase),
        (stats_before.answers, stats_after.answers),
        (stats_before.planes, stats_after.planes),
        (stats_before.summarizers, stats_after.summarizers),
    ];
    let m = &mut run.metrics;
    m.set("query.parse_bind_ms", median(&parse_bind));
    m.set("query.group_scan_ms", scan_ms);
    m.set("query.scan_mrows_per_s", rows as f64 / scan_ms / 1e3);
    m.set(
        "query.parallel_scan_frac",
        parallel as f64 / OPEN_REPLAYS as f64,
    );
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
    m.set("explore.apply_ms.p99", percentile(&applies, 0.99)?);
    for (name, (b, a)) in [
        "explore.hit_ratio.group_phase",
        "explore.hit_ratio.answers",
        "explore.hit_ratio.planes",
        "explore.hit_ratio.summarizers",
    ]
    .into_iter()
    .zip(layer_pairs)
    {
        let hits = a.hits - b.hits;
        m.set(name, ratio(hits, hits + (a.misses - b.misses)));
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
    m.set(
        "sessions.evictions_per_1k",
        (after[1] - before[1]) / requests * 1e3,
    );
    m.set(
        "sessions.restores_per_1k",
        (after[2] - before[2]) / requests * 1e3,
    );
    m.set("viz.transition_ms", median(&tr.durations("viz.transition")));
    m.set("serve.handle_ms", handle_ms);
    m.set("serve.encode_ms", median(&tr.durations("serve.encode")));
    m.set("serve.wire_ms", median(&rtts) - handle_ms);
    m.set("trace.coverage", median(&coverage));
    // A request's layer spans are its in-process handling; the rest of
    // its round trip is the wire.
    m.set("trace.stage_sum_ms", handle_ms);
    m.set("trace.op_ms", median(&rtts));
    m.set("trace.overhead_frac", median(&rtts) / untraced_p50 - 1.0);
    Ok(())
}
