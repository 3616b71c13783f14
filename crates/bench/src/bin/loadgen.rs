//! Load generator and latency gate for the session server.
//!
//! Two phases, both against a server warm-booted from a `.qag` store:
//!
//! * **Load** — hundreds of concurrently live scripted sessions (slider
//!   sweeps, knob turns, drill-downs) driven over TCP by a pool of
//!   keep-alive clients, with the resident-session cap set well below the
//!   session count so eviction-to-checkpoint and transparent restore churn
//!   constantly under load. Every response's view digest is checked
//!   against a sequential bare-`Explorer` replay of the same script —
//!   byte-identical or it counts as a failure, and any failure fails the
//!   run.
//! * **Latency** — warm threshold ticks measured in-process (the same
//!   `Gateway::handle_bytes` bytes, no socket) and over TCP from a small
//!   client pool. The gate: TCP p99 must stay within 10× the in-process
//!   median (`latency_headroom = 10 · inproc_median / tcp_p99 ≥ 1`).
//!
//! With `--chaos`, the generator instead smoke-runs one faulted pass: a
//! server whose connections are wrapped in a scripted [`NetScript`]
//! (short reads/writes, a slow drip, a stall, a reset spread through the
//! pass) driven by a reconnect-and-retry client; every confirmed view
//! digest must still match the oracle, at least one fault must actually
//! fire, and nothing else runs.
//!
//! With `--bench`, the resulting `serve_tick` section is merged into
//! `BENCH_hotpath.json` at the repository root, where the
//! `perf_trajectory` gate enforces `serve_tick.latency_headroom` and
//! `serve_tick.throughput_ticks_per_s` against the committed baseline.
//!
//! ```text
//! loadgen [--sessions N] [--clients C] [--tick-clients T] [--rows R] [--bench] [--chaos]
//! ```

use qagview_bench::json::{self, Json};
use qagview_bench::{digest_of, repo_root, stable_digest, Client};
use qagview_common::wire::checksum64;
use qagview_datagen::movielens::{self, MovieLensConfig};
use qagview_interactive::{ExploreCommand, ExploreResponse, Explorer, ExplorerConfig, SessionSpec};
use qagview_lattice::Pattern;
use qagview_serve::{
    view_json, Gateway, GatewayConfig, NetFaultKind, NetScript, Server, ServerConfig, SessionConfig,
};
use qagview_storage::Catalog;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SQL: &str = "SELECT hdec, agegrp, gender, occupation, AVG(rating) AS val FROM ratingtable \
                   GROUP BY hdec, agegrp, gender, occupation \
                   HAVING count(*) > 10 ORDER BY val DESC";
const ARITY: usize = 4;

/// One step of a session script. Drill steps are computed from the
/// previous response (the first cluster of the current summary), so the
/// generator sends exactly what a UI tracking the view would send — and
/// the sequential oracle derives the same pattern from the same view.
#[derive(Clone)]
enum Step {
    Body(String),
    DrillFirst,
    DrillBack,
}

fn set(cmd: &str, value: impl std::fmt::Display) -> Step {
    Step::Body(format!(r#"{{"cmd":"{cmd}","value":{value}}}"#))
}

/// The scripted session variants: every session opens the paper query,
/// then sweeps sliders, turns knobs, and drills. Thresholds stay in a
/// band the 20k-row relation supports at every position.
fn scripts() -> Vec<Vec<Step>> {
    let open = Step::Body(format!(r#"{{"cmd":"set_query","sql":"{SQL}"}}"#));
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
        base(vec![set("set_d", 1), Step::DrillFirst, Step::DrillBack]),
        base(vec![set("set_k", 8), set("set_l", 60), set("set_k", 5)]),
        base(vec![
            set("set_threshold", 30.5),
            Step::DrillFirst,
            Step::DrillBack,
        ]),
        base(vec![
            set("set_d", 2),
            set("set_threshold", 20.5),
            set("set_d", 1),
        ]),
        base(vec![Step::DrillFirst, set("set_k", 4), Step::DrillBack]),
        base(vec![
            set("set_l", 60),
            set("set_threshold", 30.5),
            set("set_threshold", 30.0),
        ]),
        base(vec![set("set_k", 3), set("set_d", 1), Step::DrillFirst]),
    ]
}

fn catalog(rows: usize) -> Arc<Catalog> {
    let table = movielens::generate(&MovieLensConfig {
        ratings: rows,
        ..Default::default()
    })
    .expect("movielens table");
    let mut c = Catalog::new();
    c.register("ratingtable", table);
    Arc::new(c)
}

fn digest_hex(resp: &ExploreResponse) -> String {
    format!("{:016x}", checksum64(view_json(resp).to_text().as_bytes()))
}

/// Per-step oracle digests: the full view and its transition-less twin.
struct OracleStep {
    full: String,
    stable: String,
}

/// Sequential oracle: replay every script against a bare in-process session
/// and return the per-step view digests the server must reproduce.
fn oracle_digests(catalog: &Arc<Catalog>, scripts: &[Vec<Step>]) -> Vec<Vec<OracleStep>> {
    let engine = Arc::new(Explorer::from_shared(
        Arc::clone(catalog),
        ExplorerConfig::default(),
    ));
    scripts
        .iter()
        .map(|script| {
            let mut session = engine
                .open_session(SessionSpec::default())
                .expect("open oracle session");
            let mut prev: Option<ExploreResponse> = None;
            script
                .iter()
                .map(|step| {
                    let cmd = match step {
                        Step::Body(body) => {
                            qagview_serve::parse_command(body.as_bytes()).expect("script command")
                        }
                        Step::DrillFirst => {
                            let p = prev
                                .as_ref()
                                .and_then(|r| r.summary.clusters.first())
                                .map(|c| c.pattern.clone())
                                .expect("a cluster to drill into");
                            ExploreCommand::DrillDown(p)
                        }
                        Step::DrillBack => ExploreCommand::DrillDown(Pattern::all_star(ARITY)),
                    };
                    let resp = session.apply(cmd).expect("oracle replay step");
                    let step = OracleStep {
                        full: digest_hex(&resp),
                        stable: stable_digest(&view_json(&resp)),
                    };
                    prev = Some(resp);
                    step
                })
                .collect()
        })
        .collect()
}

/// Read timeout of every harness connection.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Materialize one step's request body, deriving drill patterns from the
/// previous response exactly as the oracle does.
fn step_body(step: &Step, prev: Option<&str>) -> String {
    match step {
        Step::Body(body) => body.clone(),
        Step::DrillFirst => {
            let doc = json::parse(prev.expect("a previous response")).expect("response JSON");
            let pattern = doc
                .path("view.summary.clusters")
                .and_then(|c| c.items().first())
                .and_then(|c| c.get("pattern"))
                .expect("a cluster pattern")
                .to_text();
            format!(r#"{{"cmd":"drill_down","pattern":{pattern}}}"#)
        }
        Step::DrillBack => {
            let stars = ["null"; ARITY].join(",");
            format!(r#"{{"cmd":"drill_down","pattern":[{stars}]}}"#)
        }
    }
}

struct LoadOutcome {
    commands: u64,
    failures: u64,
    wall_s: f64,
}

/// Phase 1: `sessions` concurrently live sessions, driven round-robin by
/// `clients` keep-alive connections, under a resident cap that forces
/// eviction/restore churn. Returns commands issued, failures, wall time.
fn run_load(
    addr: SocketAddr,
    sessions: usize,
    clients: usize,
    scripts: &[Vec<Step>],
    oracle: &[Vec<OracleStep>],
) -> LoadOutcome {
    let max_steps = scripts.iter().map(Vec::len).max().unwrap_or(0);
    let t = Instant::now();
    let per_client: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr, READ_TIMEOUT).expect("connect");
                    // This worker owns every session whose index ≡ c.
                    let mine: Vec<usize> = (0..sessions).filter(|s| s % clients == c).collect();
                    let mut ids = Vec::with_capacity(mine.len());
                    for _ in &mine {
                        let (status, body) = client
                            .request("POST", "/api/session", b"")
                            .expect("request");
                        assert_eq!(status, 200, "session create refused: {body}");
                        let id = json::parse(&body)
                            .ok()
                            .and_then(|d| {
                                d.get("session").and_then(|s| s.as_str().map(String::from))
                            })
                            .expect("session id");
                        ids.push(id);
                    }
                    let mut prev: Vec<Option<String>> = vec![None; mine.len()];
                    let (mut commands, mut failures) = (0u64, 0u64);
                    // Round-robin over this worker's sessions keeps all of
                    // them live at once — the whole pool stays concurrent.
                    #[allow(clippy::needless_range_loop)]
                    for step_idx in 0..max_steps {
                        for (slot, &s) in mine.iter().enumerate() {
                            let variant = s % scripts.len();
                            let Some(step) = scripts[variant].get(step_idx) else {
                                continue;
                            };
                            let body = step_body(step, prev[slot].as_deref());
                            let path = format!("/api/session/{}/command", ids[slot]);
                            let (status, resp) = client
                                .request("POST", &path, body.as_bytes())
                                .expect("request");
                            commands += 1;
                            let expected = &oracle[variant][step_idx].full;
                            if status != 200 || digest_of(&resp).as_ref() != Some(expected) {
                                failures += 1;
                                eprintln!(
                                    "FAIL session {s} step {step_idx}: status {status}, {resp}"
                                );
                            }
                            prev[slot] = Some(resp);
                        }
                    }
                    (commands, failures)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client worker"))
            .collect()
    });
    LoadOutcome {
        commands: per_client.iter().map(|&(c, _)| c).sum(),
        failures: per_client.iter().map(|&(_, f)| f).sum(),
        wall_s: t.elapsed().as_secs_f64(),
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Warm one session up to the steady threshold-flip state and return the
/// two tick bodies.
const WARM_CMDS: [&str; 4] = [
    // set_query body is built at runtime (SQL interpolation).
    "",
    r#"{"cmd":"set_k","value":6}"#,
    r#"{"cmd":"set_threshold","value":20.5}"#,
    r#"{"cmd":"set_threshold","value":20.0}"#,
];
const TICKS: [&str; 2] = [
    r#"{"cmd":"set_threshold","value":20.5}"#,
    r#"{"cmd":"set_threshold","value":20.0}"#,
];

fn warm_bodies() -> Vec<String> {
    let mut v = vec![format!(r#"{{"cmd":"set_query","sql":"{SQL}"}}"#)];
    v.extend(WARM_CMDS[1..].iter().map(|s| (*s).to_string()));
    v
}

/// Phase 2a: warm tick latency through `Gateway::handle_bytes` — the same
/// parse/route/serialize work as a TCP exchange, minus the socket.
fn inproc_tick_median_ms(gateway: &Gateway, reps: usize) -> f64 {
    let frame = |method: &str, path: &str, body: &str| {
        format!(
            "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    };
    let created = gateway.handle_bytes(&frame("POST", "/api/session", ""));
    let body_at = created
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header end")
        + 4;
    let id = json::parse(std::str::from_utf8(&created[body_at..]).expect("utf-8"))
        .ok()
        .and_then(|d| d.get("session").and_then(|s| s.as_str().map(String::from)))
        .expect("session id");
    let path = format!("/api/session/{id}/command");
    for body in warm_bodies() {
        let resp = gateway.handle_bytes(&frame("POST", &path, &body));
        assert!(resp.starts_with(b"HTTP/1.1 200"), "warmup refused");
    }
    let mut samples: Vec<f64> = (0..reps)
        .map(|i| {
            let raw = frame("POST", &path, TICKS[i % 2]);
            let t = Instant::now();
            let resp = gateway.handle_bytes(&raw);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            assert!(resp.starts_with(b"HTTP/1.1 200"), "tick refused");
            ms
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Phase 2b: the same warm ticks over TCP from `clients` concurrent
/// connections. Returns (p50, p99, ticks/s).
fn tcp_ticks(addr: SocketAddr, clients: usize, ticks_each: usize) -> (f64, f64, f64) {
    let t = Instant::now();
    let mut all: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr, READ_TIMEOUT).expect("connect");
                    let (status, body) = client
                        .request("POST", "/api/session", b"")
                        .expect("request");
                    assert_eq!(status, 200, "{body}");
                    let id = json::parse(&body)
                        .ok()
                        .and_then(|d| d.get("session").and_then(|s| s.as_str().map(String::from)))
                        .expect("session id");
                    let path = format!("/api/session/{id}/command");
                    for body in warm_bodies() {
                        let (status, resp) = client
                            .request("POST", &path, body.as_bytes())
                            .expect("request");
                        assert_eq!(status, 200, "warmup refused: {resp}");
                    }
                    (0..ticks_each)
                        .map(|i| {
                            let t = Instant::now();
                            let (status, _) = client
                                .request("POST", &path, TICKS[i % 2].as_bytes())
                                .expect("request");
                            let ms = t.elapsed().as_secs_f64() * 1e3;
                            assert_eq!(status, 200, "tick refused");
                            ms
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("tick client"))
            .collect()
    });
    let wall = t.elapsed().as_secs_f64();
    all.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let throughput = all.len() as f64 / wall;
    (percentile(&all, 0.50), percentile(&all, 0.99), throughput)
}

/// `--chaos`: one faulted pass. A scripted [`NetScript`] injects short
/// reads/writes, a slow drip, a stall, and a reset at fixed op indices
/// while a reconnect-and-retry client drives scripted sessions; every
/// confirmed digest must match the oracle and at least one fault must
/// fire. Returns `true` on a clean pass.
fn run_chaos(
    catalog: &Arc<Catalog>,
    scripts: &[Vec<Step>],
    oracle: &[Vec<OracleStep>],
    sessions: usize,
) -> bool {
    let engine = Arc::new(Explorer::from_shared(
        Arc::clone(catalog),
        ExplorerConfig::default(),
    ));
    let gateway = Arc::new(Gateway::new(Arc::clone(&engine), GatewayConfig::default()));
    let net = Arc::new(NetScript::new());
    let kinds = [
        NetFaultKind::ShortRead,
        NetFaultKind::ShortWrite,
        NetFaultKind::SlowDrip,
        NetFaultKind::Stall,
        NetFaultKind::Reset,
    ];
    for (i, kind) in kinds.iter().enumerate() {
        net.schedule((25 + i * 50) as u64, *kind);
    }
    let cfg = ServerConfig {
        read_timeout: Duration::from_millis(500),
        request_deadline: Duration::from_secs(2),
        write_timeout: Duration::from_secs(2),
        net_script: Some(Arc::clone(&net)),
        ..ServerConfig::default()
    };
    let mut server =
        Server::start(Arc::clone(&gateway), "127.0.0.1:0", cfg).expect("bind chaos server");
    let addr = server.addr();

    let (mut commands, mut failures, mut resends) = (0u64, 0u64, 0u64);
    for s in 0..sessions {
        let variant = s % scripts.len();
        let mut client: Option<Client> = None;
        let mut id: Option<String> = None;
        let mut prev: Option<String> = None;
        for (step_idx, step) in scripts[variant].iter().enumerate() {
            // One step: retry across transport failures and retryable
            // refusals; resends are safe (absolute-state commands).
            let mut sent = 0usize;
            let confirmed = loop {
                if sent >= 8 {
                    break None;
                }
                if client.is_none() {
                    client = Some(Client::connect(addr, READ_TIMEOUT).expect("connect"));
                }
                let c = client.as_mut().expect("client");
                if id.is_none() {
                    match c.request("POST", "/api/session", b"") {
                        Ok((200, body)) => {
                            id = json::parse(&body).ok().and_then(|d| {
                                d.get("session").and_then(|s| s.as_str().map(String::from))
                            });
                            continue;
                        }
                        Ok(_) | Err(_) => {
                            client = None;
                            continue;
                        }
                    }
                }
                let path = format!(
                    "/api/session/{}/command",
                    id.as_deref().expect("session id")
                );
                let body = step_body(step, prev.as_deref());
                sent += 1;
                match c.request("POST", &path, body.as_bytes()) {
                    Ok((200, resp)) => break Some((resp, sent > 1)),
                    Ok((408 | 503, _)) => client = None,
                    Ok((status, resp)) => {
                        eprintln!("CHAOS FAIL session {s} step {step_idx}: {status} {resp}");
                        break None;
                    }
                    Err(_) => client = None,
                }
            };
            commands += 1;
            match confirmed {
                Some((resp, retried)) => {
                    if retried {
                        resends += 1;
                    }
                    let expected = &oracle[variant][step_idx];
                    let ok = if retried {
                        json::parse(&resp)
                            .ok()
                            .and_then(|d| d.get("view").cloned())
                            .is_some_and(|v| stable_digest(&v) == expected.stable)
                    } else {
                        digest_of(&resp).as_ref() == Some(&expected.full)
                    };
                    if !ok {
                        failures += 1;
                        eprintln!("CHAOS DIGEST MISMATCH session {s} step {step_idx}: {resp}");
                    }
                    prev = Some(resp);
                }
                None => failures += 1,
            }
        }
    }
    server.shutdown();
    let fired = net.faults_fired();
    let m = gateway.metrics();
    let timeout_class = m
        .request_timeouts
        .load(std::sync::atomic::Ordering::Relaxed)
        + m.idle_closes.load(std::sync::atomic::Ordering::Relaxed)
        + m.write_timeouts.load(std::sync::atomic::Ordering::Relaxed);
    let error_class = m.net_errors.load(std::sync::atomic::Ordering::Relaxed)
        + m.protocol_errors.load(std::sync::atomic::Ordering::Relaxed);
    eprintln!(
        "chaos: {commands} commands across {sessions} sessions, {failures} failures, \
         {resends} resent steps, {fired} faults fired \
         ({timeout_class} timeout-class, {error_class} error-class events)"
    );
    if fired == 0 {
        eprintln!("chaos: no fault ever fired — the pass proved nothing");
        return false;
    }
    failures == 0
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qag-loadgen-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("reset temp dir");
    }
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn main() {
    let mut sessions = 200usize;
    let mut clients = 16usize;
    let mut tick_clients = 2usize;
    let mut rows = 20_000usize;
    let mut bench = false;
    let mut chaos = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut num = |name: &str| -> usize {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} needs a number"))
        };
        match arg.as_str() {
            "--sessions" => sessions = num("--sessions"),
            "--clients" => clients = num("--clients"),
            "--tick-clients" => tick_clients = num("--tick-clients"),
            "--rows" => rows = num("--rows"),
            "--bench" => bench = true,
            "--chaos" => chaos = true,
            other => panic!("unknown flag {other}"),
        }
    }
    clients = clients.clamp(1, sessions.max(1));

    let catalog = catalog(rows);
    let scripts = scripts();
    eprintln!(
        "loadgen: {sessions} sessions over {clients} clients, {} script variants, {rows} rows",
        scripts.len()
    );

    // Sequential oracle first: the digests every concurrent session must hit.
    let oracle = oracle_digests(&catalog, &scripts);

    if chaos {
        // Smoke-run one faulted pass instead of the load/latency phases.
        let ok = run_chaos(&catalog, &scripts, &oracle, sessions.clamp(1, 8));
        std::process::exit(if ok { 0 } else { 1 });
    }

    // Warm the .qag store with one pass over the script states, then boot
    // the serving engine from it — the restarted-process serving path.
    let store_dir = temp_dir("store");
    let ckpt_dir = temp_dir("ckpt");
    let engine_cfg = || ExplorerConfig {
        store_dir: Some(store_dir.clone()),
        ..ExplorerConfig::default()
    };
    {
        let warm = Arc::new(Explorer::from_shared(Arc::clone(&catalog), engine_cfg()));
        let mut s = warm
            .open_session(SessionSpec::default())
            .expect("open warm session");
        for body in warm_bodies() {
            let cmd = qagview_serve::parse_command(body.as_bytes()).expect("warm command");
            s.apply(cmd).expect("store warm-up");
        }
    } // engine drops: the store outlives the process that wrote it
    let engine = Arc::new(Explorer::from_shared(Arc::clone(&catalog), engine_cfg()));

    // Resident cap well below the session count: the load phase must churn
    // through eviction + restore, not quietly keep everything resident.
    let max_resident = (sessions / 3).max(8);
    let gateway = Arc::new(Gateway::new(
        Arc::clone(&engine),
        GatewayConfig {
            sessions: SessionConfig {
                shards: 16,
                max_resident,
                checkpoint_dir: Some(ckpt_dir.clone()),
            },
            ..GatewayConfig::default()
        },
    ));
    let mut server = Server::start(Arc::clone(&gateway), "127.0.0.1:0", ServerConfig::default())
        .expect("bind server");
    let addr = server.addr();
    eprintln!("serving on {addr} (resident cap {max_resident})");

    let load = run_load(addr, sessions, clients, &scripts, &oracle);
    let m = gateway.metrics();
    let load_ticks_per_s = load.commands as f64 / load.wall_s;
    let evicted = m
        .sessions_evicted
        .load(std::sync::atomic::Ordering::Relaxed);
    let restored = m
        .sessions_restored
        .load(std::sync::atomic::Ordering::Relaxed);
    eprintln!(
        "load: {} commands across {sessions} sessions in {:.2} s ({load_ticks_per_s:.0} cmd/s), \
         {} failures, {evicted} evictions, {restored} restores",
        load.commands, load.wall_s, load.failures
    );

    let inproc_median = inproc_tick_median_ms(&gateway, 201);
    let (tcp_p50, tcp_p99, ticks_per_s) = tcp_ticks(addr, tick_clients, 100);
    let headroom = 10.0 * inproc_median / tcp_p99;
    eprintln!(
        "latency: in-process median {inproc_median:.3} ms; TCP x{tick_clients} \
         p50 {tcp_p50:.3} ms, p99 {tcp_p99:.3} ms ({ticks_per_s:.0} ticks/s); \
         headroom {headroom:.2} (>= 1 required)"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&store_dir);
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    let section = Json::obj([
        (
            "what",
            Json::from(
                "session-server load + latency gate: concurrent scripted sessions over TCP with \
                 eviction/restore churn, every view digest checked against a sequential bare-Explorer \
                 replay; then warm threshold ticks in-process vs over TCP \
                 (latency_headroom = 10 * inproc_median / tcp_p99, >= 1 required)",
            ),
        ),
        ("rows", Json::from(rows)),
        ("sessions", Json::from(sessions)),
        ("clients", Json::from(clients)),
        ("max_resident", Json::from(max_resident)),
        ("script_commands", Json::from(load.commands)),
        ("failed_commands", Json::from(load.failures)),
        ("evictions", Json::from(evicted)),
        ("restores", Json::from(restored)),
        ("load_wall_s", Json::from(load.wall_s)),
        ("load_commands_per_s", Json::from(load_ticks_per_s)),
        ("tick_clients", Json::from(tick_clients)),
        ("inproc_tick_median_ms", Json::from(inproc_median)),
        ("tcp_tick_p50_ms", Json::from(tcp_p50)),
        ("tcp_tick_p99_ms", Json::from(tcp_p99)),
        ("latency_headroom", Json::from(headroom)),
        ("throughput_ticks_per_s", Json::from(ticks_per_s)),
    ]);
    println!(
        "{}",
        Json::obj([("serve_tick", section.clone())]).to_text_pretty()
    );

    if bench {
        let path = repo_root().join("BENCH_hotpath.json");
        let mut doc = match std::fs::read_to_string(&path) {
            Ok(text) => json::parse(&text)
                .unwrap_or_else(|e| panic!("existing {} is not valid JSON: {e}", path.display())),
            Err(_) => Json::obj([]),
        };
        doc.set("serve_tick", section);
        let mut out = doc.to_text_pretty();
        out.push('\n');
        std::fs::write(&path, out).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        eprintln!("merged serve_tick into {}", path.display());
    }

    let mut ok = true;
    if load.failures > 0 {
        eprintln!(
            "loadgen: {} failed commands (digest mismatch or refusal)",
            load.failures
        );
        ok = false;
    }
    if evicted == 0 || restored == 0 {
        eprintln!(
            "loadgen: eviction/restore was not exercised (evicted {evicted}, restored {restored})"
        );
        ok = false;
    }
    if headroom < 1.0 {
        eprintln!("loadgen: TCP p99 {tcp_p99:.3} ms exceeds 10x the in-process median {inproc_median:.3} ms");
        ok = false;
    }
    if !ok {
        std::process::exit(1);
    }
}
