//! CI network-chaos soak driver: the wire-level twin of `chaos` (which
//! sweeps storage faults). Three phases against real TCP servers:
//!
//! 1. **Fault matrix** — enumerate network fault kind × injection point
//!    (stride-sampled op index) × concurrent sessions, each trial on a
//!    fresh server whose every connection is wrapped in a scripted
//!    [`qagview_serve::FaultStream`]. A retry-tolerant client
//!    (reconnect + resend; the
//!    command vocabulary is absolute-state, so a resend is idempotent)
//!    must end every session with view digests byte-identical to a
//!    fault-free sequential oracle, with no panic anywhere.
//! 2. **Kill-at-op matrix** — a client checkpoints after every confirmed
//!    command; the server is killed (no drain, no checkpoint sweep)
//!    after command K, restarted over the same directory, and the client
//!    resumes from its last confirmed step. Every resumed digest must
//!    match the oracle and the first resumed response must be flagged
//!    `restored`.
//! 3. **Drain** — a draining server must checkpoint every resident
//!    session and a restart must restore them bit-identically, with the
//!    drain counters populated.
//!
//! ```text
//! chaos_net [--stride N] [--sessions S] [--log <event-log.json>]
//! ```
//!
//! Any violation is recorded in the event log (the CI artifact) and
//! fails the process with a nonzero exit.

use qagview_bench::{digest_of, json, stable_digest, Client};
use qagview_interactive::{Explorer, ExplorerConfig};
use qagview_serve::{
    Gateway, GatewayConfig, NetFaultKind, NetFaultPlan, NetScript, Server, ServerConfig,
    SessionConfig, ALL_NET_FAULT_KINDS,
};
use qagview_storage::{Catalog, Cell, ColumnType, Schema, TableBuilder};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

const SQL: &str = "SELECT genre, who, AVG(rating) AS val FROM ratings \
                   GROUP BY genre, who HAVING count(*) > 0 ORDER BY val DESC";

fn catalog() -> Arc<Catalog> {
    let schema = Schema::from_pairs(&[
        ("genre", ColumnType::Str),
        ("who", ColumnType::Str),
        ("rating", ColumnType::Float),
    ])
    .expect("schema");
    let mut b = TableBuilder::new(schema);
    let rows: &[(&str, &str, f64)] = &[
        ("adventure", "student", 4.75),
        ("adventure", "student", 4.5),
        ("adventure", "coder", 4.25),
        ("adventure", "coder", 4.0),
        ("adventure", "artist", 3.75),
        ("romance", "student", 2.0),
        ("romance", "coder", 1.5),
        ("romance", "coder", 1.25),
        ("romance", "artist", 2.25),
        ("western", "student", 3.0),
        ("western", "coder", 3.5),
        ("western", "artist", 2.75),
        ("scifi", "student", 4.0),
        ("scifi", "coder", 3.25),
        ("scifi", "artist", 3.0),
    ];
    for &(g, w, r) in rows {
        b.push_row(vec![g.into(), w.into(), Cell::Float(r)])
            .expect("row");
    }
    let mut c = Catalog::new();
    c.register("ratings", b.finish());
    Arc::new(c)
}

/// Scripted sessions of absolute-state commands (safe to resend after a
/// transport failure: re-applying yields the same view).
fn script(variant: usize) -> Vec<String> {
    let set_query = format!(r#"{{"cmd":"set_query","sql":"{SQL}"}}"#);
    let common: Vec<String> = vec![
        set_query,
        r#"{"cmd":"set_k","value":3}"#.into(),
        r#"{"cmd":"set_l","value":6}"#.into(),
    ];
    let tail: Vec<String> = match variant % 4 {
        0 => vec![
            r#"{"cmd":"set_threshold","value":1}"#.into(),
            r#"{"cmd":"set_k","value":2}"#.into(),
            r#"{"cmd":"set_d","value":1}"#.into(),
        ],
        1 => vec![
            r#"{"cmd":"set_d","value":1}"#.into(),
            r#"{"cmd":"set_threshold","value":1}"#.into(),
            r#"{"cmd":"set_threshold","value":0}"#.into(),
        ],
        2 => vec![
            r#"{"cmd":"set_k","value":4}"#.into(),
            r#"{"cmd":"set_l","value":4}"#.into(),
            r#"{"cmd":"set_k","value":2}"#.into(),
        ],
        _ => vec![
            r#"{"cmd":"set_threshold","value":1}"#.into(),
            r#"{"cmd":"set_k","value":2}"#.into(),
            r#"{"cmd":"set_threshold","value":0}"#.into(),
        ],
    };
    common.into_iter().chain(tail).collect()
}

/// Per-step oracle digests. `full` covers the whole serialized view;
/// `stable` drops the `transition` panel, which is a delta from the
/// *previous* view: when a transport failure forces a resend, the
/// command double-applies — the resulting state, summary, and plot are
/// identical (absolute-state commands), but the retried step's
/// transition legitimately describes a self-transition. So a step
/// confirmed on the first attempt must match `full` byte for byte, and
/// a retried step must match `stable`.
struct StepOracle {
    full: String,
    stable: String,
}

fn checksum_hex(text: &str) -> String {
    format!("{:016x}", qagview_common::wire::checksum64(text.as_bytes()))
}

/// Fault-free oracle: per-variant, per-step response digests from a bare
/// sequential [`qagview_interactive::ExploreSession`] replay.
fn oracle_digests(catalog: &Arc<Catalog>, variants: usize) -> Vec<Vec<StepOracle>> {
    (0..variants)
        .map(|v| {
            let engine = Arc::new(Explorer::from_shared(
                Arc::clone(catalog),
                ExplorerConfig::default(),
            ));
            let mut session = engine
                .open_session(qagview_interactive::SessionSpec::default())
                .expect("open oracle session");
            script(v)
                .iter()
                .map(|body| {
                    let cmd =
                        qagview_serve::parse_command(body.as_bytes()).expect("script command");
                    let resp = session.apply(cmd).expect("oracle step");
                    let view = qagview_serve::view_json(&resp);
                    StepOracle {
                        full: checksum_hex(&view.to_text()),
                        stable: stable_digest(&view),
                    }
                })
                .collect()
        })
        .collect()
}

/// Check one confirmed response against the oracle for its step.
fn digest_matches(resp: &str, oracle: &StepOracle, retried: bool) -> bool {
    if retried {
        json::parse(resp)
            .ok()
            .and_then(|d| d.get("view").cloned())
            .is_some_and(|v| stable_digest(&v) == oracle.stable)
    } else {
        digest_of(resp).as_deref() == Some(&oracle.full)
    }
}

fn gateway(catalog: &Arc<Catalog>, ckpt_dir: Option<PathBuf>) -> Arc<Gateway> {
    let engine = Arc::new(Explorer::from_shared(
        Arc::clone(catalog),
        ExplorerConfig::default(),
    ));
    Arc::new(Gateway::new(
        engine,
        GatewayConfig {
            sessions: SessionConfig {
                checkpoint_dir: ckpt_dir,
                ..SessionConfig::default()
            },
            ..GatewayConfig::default()
        },
    ))
}

fn server_cfg(net_script: Option<Arc<NetScript>>) -> ServerConfig {
    ServerConfig {
        max_connections: 64,
        // Tight budgets keep stall trials fast; injected stalls surface
        // synchronously, so these mostly bound real scheduling noise.
        read_timeout: Duration::from_millis(500),
        request_deadline: Duration::from_millis(2000),
        write_timeout: Duration::from_millis(2000),
        drain_deadline: Duration::from_secs(2),
        net_script,
    }
}

fn session_of(response_body: &str) -> Option<String> {
    json::parse(response_body)
        .ok()?
        .get("session")
        .and_then(|s| s.as_str().map(str::to_string))
}

const MAX_ATTEMPTS: usize = 8;

/// Read timeout of every chaos client connection.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Issue one request, reconnecting and resending on transport failure or
/// a retryable refusal (408/503). A sticky crash fault is "rebooted"
/// (the network heals) after it has been observed — the client side of a
/// flapping link. Returns the first definitive `(status, body, retried)`
/// where `retried` records whether the request was sent more than once.
fn request_with_retry(
    client: &mut Option<Client>,
    addr: SocketAddr,
    net: Option<&Arc<NetScript>>,
    method: &str,
    path: &str,
    body: &[u8],
) -> Result<(u16, String, bool), String> {
    let mut sent = 0usize;
    for attempt in 0..MAX_ATTEMPTS {
        if client.is_none() {
            match Client::connect(addr, READ_TIMEOUT) {
                Ok(c) => *client = Some(c),
                Err(e) => {
                    if attempt + 1 == MAX_ATTEMPTS {
                        return Err(format!("connect failed: {e}"));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                    continue;
                }
            }
        }
        let result = client
            .as_mut()
            .expect("client present")
            .request(method, path, body);
        sent += 1;
        match result {
            Ok((status, _resp)) if status == 408 || status == 503 => {
                // A typed, retryable refusal; the server closes after a
                // 408, so start fresh either way.
                *client = None;
            }
            Ok((status, resp)) => return Ok((status, resp, sent > 1)),
            Err(_) => {
                *client = None;
                if let Some(net) = net {
                    if net.is_crashed() {
                        net.reboot();
                    }
                }
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Err(format!("retries exhausted on {method} {path}"))
}

/// Drive one scripted session to completion against a (possibly faulted)
/// server, checking every confirmed digest against the oracle.
fn drive_session(
    addr: SocketAddr,
    net: Option<&Arc<NetScript>>,
    variant: usize,
    oracle: &[Vec<StepOracle>],
) -> Result<(), String> {
    let mut client: Option<Client> = None;
    let (status, body, _) =
        request_with_retry(&mut client, addr, net, "POST", "/api/session", b"")?;
    if status != 200 {
        return Err(format!("session create refused: {status} {body}"));
    }
    let id = session_of(&body).ok_or("create response without a session id")?;
    let path = format!("/api/session/{id}/command");
    for (step, body) in script(variant).iter().enumerate() {
        let (status, resp, retried) =
            request_with_retry(&mut client, addr, net, "POST", &path, body.as_bytes())?;
        if status != 200 {
            return Err(format!("step {step} refused: {status} {resp}"));
        }
        let expected = &oracle[variant % oracle.len()][step];
        if !digest_matches(&resp, expected, retried) {
            return Err(format!(
                "step {step} digest diverged from the oracle: {resp}"
            ));
        }
    }
    Ok(())
}

struct Trial {
    kind: String,
    at_op: u64,
    sessions: usize,
    faults_fired: usize,
    timeouts: u64,
    net_errors: u64,
    violation: Option<String>,
}

/// One fault-matrix trial: a fresh server with a single scheduled fault,
/// `sessions` concurrent scripted clients, digest-checked to the oracle.
fn run_trial(
    catalog: &Arc<Catalog>,
    oracle: &[Vec<StepOracle>],
    kind: NetFaultKind,
    at_op: u64,
    sessions: usize,
) -> Trial {
    let net = Arc::new(NetScript::with_plan(vec![NetFaultPlan { at_op, kind }]));
    let gw = gateway(catalog, None);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut srv = Server::start(
            Arc::clone(&gw),
            "127.0.0.1:0",
            server_cfg(Some(Arc::clone(&net))),
        )
        .expect("bind trial server");
        let addr = srv.addr();
        let errors: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..sessions)
                .map(|v| {
                    let net = Arc::clone(&net);
                    scope.spawn(move || drive_session(addr, Some(&net), v, oracle))
                })
                .collect();
            handles
                .into_iter()
                .filter_map(|h| match h.join() {
                    Ok(Ok(())) => None,
                    Ok(Err(e)) => Some(e),
                    Err(_) => Some("client thread panicked".into()),
                })
                .collect()
        });
        srv.shutdown();
        errors
    }));
    let violation = match outcome {
        Err(_) => Some("server-side panic".to_string()),
        Ok(errors) if !errors.is_empty() => Some(errors.join("; ")),
        Ok(_) => None,
    };
    let m = gw.metrics();
    Trial {
        kind: kind.name().to_string(),
        at_op,
        sessions,
        faults_fired: net.faults_fired(),
        timeouts: m.request_timeouts.load(Ordering::Relaxed)
            + m.idle_closes.load(Ordering::Relaxed)
            + m.write_timeouts.load(Ordering::Relaxed)
            + m.deadline_exceeded.load(Ordering::Relaxed),
        net_errors: m.net_errors.load(Ordering::Relaxed)
            + m.protocol_errors.load(Ordering::Relaxed),
        violation,
    }
}

struct KillTrial {
    kill_after: usize,
    violation: Option<String>,
}

/// Kill-at-op: checkpoint after every confirmed command, kill the server
/// (no drain) after `kill_after` commands, restart over the same
/// directory, resume from the last confirmed step.
fn run_kill_trial(
    catalog: &Arc<Catalog>,
    oracle: &[Vec<StepOracle>],
    dir: &Path,
    kill_after: usize,
) -> KillTrial {
    let variant = kill_after % 4;
    let bodies = script(variant);
    let fail = |msg: String| KillTrial {
        kill_after,
        violation: Some(msg),
    };
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("reset kill dir");
    }
    std::fs::create_dir_all(dir).expect("create kill dir");

    let gw = gateway(catalog, Some(dir.to_path_buf()));
    let mut srv =
        Server::start(Arc::clone(&gw), "127.0.0.1:0", server_cfg(None)).expect("bind kill server");
    let mut client = Some(Client::connect(srv.addr(), READ_TIMEOUT).expect("connect"));
    let (status, body, _) =
        match request_with_retry(&mut client, srv.addr(), None, "POST", "/api/session", b"") {
            Ok(r) => r,
            Err(e) => return fail(e),
        };
    if status != 200 {
        return fail(format!("create refused: {status} {body}"));
    }
    let id = session_of(&body).expect("session id");
    let cmd_path = format!("/api/session/{id}/command");
    let ckpt_path = format!("/api/session/{id}/checkpoint");
    for (step, body) in bodies.iter().take(kill_after).enumerate() {
        let c = client.as_mut().expect("live client");
        match c.request("POST", &cmd_path, body.as_bytes()) {
            Ok((200, resp)) if digest_matches(&resp, &oracle[variant][step], false) => {}
            Ok((s, resp)) => return fail(format!("pre-kill step {step}: {s} {resp}")),
            Err(e) => return fail(format!("pre-kill step {step}: {e}")),
        }
        match c.request("POST", &ckpt_path, b"") {
            Ok((200, _)) => {}
            Ok((s, resp)) => return fail(format!("checkpoint after step {step}: {s} {resp}")),
            Err(e) => return fail(format!("checkpoint after step {step}: {e}")),
        }
    }
    srv.kill();
    drop(srv);
    drop(client);

    // Restart over the same directory; resume from the last confirmed
    // step. With no commands confirmed there is nothing on disk and the
    // session is (correctly) gone — skip the resume in that case.
    if kill_after == 0 {
        return KillTrial {
            kill_after,
            violation: None,
        };
    }
    let gw2 = gateway(catalog, Some(dir.to_path_buf()));
    let mut srv2 =
        Server::start(Arc::clone(&gw2), "127.0.0.1:0", server_cfg(None)).expect("rebind server");
    let mut client = Some(Client::connect(srv2.addr(), READ_TIMEOUT).expect("reconnect"));
    for (step, body) in bodies.iter().enumerate().skip(kill_after) {
        let result = request_with_retry(
            &mut client,
            srv2.addr(),
            None,
            "POST",
            &cmd_path,
            body.as_bytes(),
        );
        match result {
            Ok((200, resp, retried)) => {
                if !digest_matches(&resp, &oracle[variant][step], retried) {
                    return fail(format!("post-kill step {step} diverged: {resp}"));
                }
                if step == kill_after {
                    let restored = json::parse(&resp)
                        .ok()
                        .and_then(|d| d.path("provenance.restored").and_then(|r| r.as_bool()));
                    if restored != Some(true) {
                        return fail(format!(
                            "first post-kill response not flagged restored: {resp}"
                        ));
                    }
                }
            }
            Ok((s, resp, _)) => return fail(format!("post-kill step {step}: {s} {resp}")),
            Err(e) => return fail(format!("post-kill step {step}: {e}")),
        }
    }
    srv2.shutdown();
    std::fs::remove_dir_all(dir).ok();
    KillTrial {
        kill_after,
        violation: None,
    }
}

/// Drain phase: N resident sessions mid-script, a graceful drain must
/// checkpoint all of them (counters included), and a restart must
/// restore each bit-identically.
fn run_drain_phase(catalog: &Arc<Catalog>, oracle: &[Vec<StepOracle>], dir: &Path) -> Vec<String> {
    let mut violations = Vec::new();
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("reset drain dir");
    }
    std::fs::create_dir_all(dir).expect("create drain dir");
    let gw = gateway(catalog, Some(dir.to_path_buf()));
    let mut srv =
        Server::start(Arc::clone(&gw), "127.0.0.1:0", server_cfg(None)).expect("bind drain server");
    let n = 3usize;
    let split = 4usize; // commands before the drain; the rest resume after
    let mut ids = Vec::new();
    for (v, oracle_v) in oracle.iter().enumerate().take(n) {
        let mut client = Some(Client::connect(srv.addr(), READ_TIMEOUT).expect("connect"));
        let (_, body, _) =
            request_with_retry(&mut client, srv.addr(), None, "POST", "/api/session", b"")
                .expect("create");
        let id = session_of(&body).expect("session id");
        for (step, body) in script(v).iter().take(split).enumerate() {
            let path = format!("/api/session/{id}/command");
            let (status, resp, retried) = request_with_retry(
                &mut client,
                srv.addr(),
                None,
                "POST",
                &path,
                body.as_bytes(),
            )
            .expect("pre-drain command");
            if status != 200 || !digest_matches(&resp, &oracle_v[step], retried) {
                violations.push(format!("drain session {v} step {step}: {status} {resp}"));
            }
        }
        ids.push(id);
    }
    let report = srv.drain();
    if report.checkpointed != n || report.checkpoint_failures != 0 {
        violations.push(format!(
            "drain checkpointed {} of {n} with {} failures",
            report.checkpointed, report.checkpoint_failures
        ));
    }
    let m = gw.metrics();
    if m.drains.load(Ordering::Relaxed) == 0
        || m.drain_checkpoints.load(Ordering::Relaxed) != n as u64
    {
        violations.push("drain counters not populated".into());
    }

    let gw2 = gateway(catalog, Some(dir.to_path_buf()));
    let mut srv2 =
        Server::start(Arc::clone(&gw2), "127.0.0.1:0", server_cfg(None)).expect("rebind server");
    for (v, id) in ids.iter().enumerate() {
        let mut client = Some(Client::connect(srv2.addr(), READ_TIMEOUT).expect("reconnect"));
        for (step, body) in script(v).iter().enumerate().skip(split) {
            let path = format!("/api/session/{id}/command");
            let (status, resp, retried) = request_with_retry(
                &mut client,
                srv2.addr(),
                None,
                "POST",
                &path,
                body.as_bytes(),
            )
            .expect("post-drain command");
            if status != 200 || !digest_matches(&resp, &oracle[v][step], retried) {
                violations.push(format!(
                    "post-drain session {v} step {step} diverged: {status} {resp}"
                ));
            }
        }
    }
    srv2.shutdown();
    std::fs::remove_dir_all(dir).ok();
    violations
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[allow(clippy::too_many_arguments)]
fn write_event_log(
    path: &Path,
    baseline_ops: u64,
    stride: u64,
    trials: &[Trial],
    kills: &[KillTrial],
    drain_violations: &[String],
    total_timeouts: u64,
    total_net_errors: u64,
) {
    let mut out = String::new();
    let violations = trials.iter().filter(|t| t.violation.is_some()).count()
        + kills.iter().filter(|t| t.violation.is_some()).count()
        + drain_violations.len();
    out.push_str("{\n");
    out.push_str(&format!("  \"baseline_ops\": {baseline_ops},\n"));
    out.push_str(&format!("  \"stride\": {stride},\n"));
    out.push_str(&format!(
        "  \"fault_kinds\": {},\n",
        ALL_NET_FAULT_KINDS.len()
    ));
    out.push_str(&format!("  \"trials\": {},\n", trials.len()));
    out.push_str(&format!("  \"kill_trials\": {},\n", kills.len()));
    out.push_str(&format!("  \"violations\": {violations},\n"));
    out.push_str(&format!("  \"timeout_class_events\": {total_timeouts},\n"));
    out.push_str(&format!(
        "  \"net_error_class_events\": {total_net_errors},\n"
    ));
    out.push_str("  \"events\": [\n");
    for (i, t) in trials.iter().enumerate() {
        let sep = if i + 1 == trials.len() { "" } else { "," };
        let violation = match &t.violation {
            Some(v) => format!("\"{}\"", json_escape(v)),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "    {{\"kind\": \"{}\", \"op\": {}, \"sessions\": {}, \"faults_fired\": {}, \
             \"timeouts\": {}, \"net_errors\": {}, \"violation\": {}}}{}\n",
            t.kind, t.at_op, t.sessions, t.faults_fired, t.timeouts, t.net_errors, violation, sep
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"kill_matrix\": [\n");
    for (i, t) in kills.iter().enumerate() {
        let sep = if i + 1 == kills.len() { "" } else { "," };
        let violation = match &t.violation {
            Some(v) => format!("\"{}\"", json_escape(v)),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "    {{\"kill_after\": {}, \"violation\": {}}}{}\n",
            t.kill_after, violation, sep
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"drain_violations\": [{}]\n",
        drain_violations
            .iter()
            .map(|v| format!("\"{}\"", json_escape(v)))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str("}\n");
    std::fs::write(path, out).expect("write event log");
}

fn main() -> ExitCode {
    let mut stride_points = 8u64;
    let mut sessions = 3usize;
    let mut log_path = PathBuf::from("CHAOS_NET_events.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--stride" => {
                stride_points = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--stride needs a number")
            }
            "--sessions" => {
                sessions = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--sessions needs a number")
            }
            "--log" => log_path = PathBuf::from(args.next().expect("--log needs a path")),
            other => {
                eprintln!(
                    "usage: chaos_net [--stride N] [--sessions S] [--log <file>]; got {other}"
                );
                return ExitCode::from(2);
            }
        }
    }
    let t0 = std::time::Instant::now();
    let catalog = catalog();
    let oracle = oracle_digests(&catalog, 4);

    // Baseline over a transparent (empty) script: learn the op space and
    // prove the fault machinery itself is invisible when silent.
    let baseline_net = Arc::new(NetScript::new());
    let baseline = run_trial_baseline(&catalog, &oracle, &baseline_net, sessions);
    if let Some(v) = baseline {
        eprintln!("BASELINE VIOLATION: {v}");
        return ExitCode::FAILURE;
    }
    let total_ops = baseline_net.ops_seen();
    // Stride-sample the op axis to `stride_points` injection points per
    // kind; the full product is quadratic and this box has one core. The
    // stride is recorded in the event log — sampled, not silently capped.
    let stride = (total_ops / stride_points).max(1);
    println!(
        "baseline: {total_ops} net ops across {sessions} sessions; sampling every {stride} ops"
    );

    let mut trials = Vec::new();
    for kind in ALL_NET_FAULT_KINDS {
        for point in 0..stride_points {
            let at_op = point * stride;
            if at_op >= total_ops {
                break;
            }
            for n in [1usize, sessions.max(2)] {
                let t = run_trial(&catalog, &oracle, kind, at_op, n);
                if let Some(v) = &t.violation {
                    eprintln!("VIOLATION kind={kind} op={at_op} sessions={n}: {v}");
                }
                trials.push(t);
            }
        }
    }
    let total_timeouts: u64 = trials.iter().map(|t| t.timeouts).sum();
    let total_net_errors: u64 = trials.iter().map(|t| t.net_errors).sum();
    let fired: usize = trials.iter().map(|t| t.faults_fired).sum();
    println!(
        "fault matrix: {} trials, {fired} faults fired, {total_timeouts} timeout-class and \
         {total_net_errors} error-class events",
        trials.len()
    );
    // Satellite contract: the fault matrix must actually exercise the
    // timeout/error counters — a silent run means the injection or the
    // metrics are broken.
    let mut meta_violations = 0usize;
    if fired == 0 {
        eprintln!("VIOLATION: no network fault ever fired");
        meta_violations += 1;
    }
    for kind in ALL_NET_FAULT_KINDS {
        if !trials
            .iter()
            .any(|t| t.kind == kind.name() && t.faults_fired > 0)
        {
            eprintln!("VIOLATION: fault kind {kind} never fired in any trial");
            meta_violations += 1;
        }
    }
    if total_timeouts + total_net_errors == 0 {
        eprintln!("VIOLATION: fault matrix left every timeout/error counter at zero");
        meta_violations += 1;
    }

    let kill_dir = std::env::temp_dir().join(format!("qag-chaos-net-kill-{}", std::process::id()));
    let script_len = script(0).len();
    let kills: Vec<KillTrial> = (0..=script_len)
        .map(|k| {
            let t = run_kill_trial(&catalog, &oracle, &kill_dir, k);
            if let Some(v) = &t.violation {
                eprintln!("KILL VIOLATION kill_after={k}: {v}");
            }
            t
        })
        .collect();
    println!("kill matrix: {} trials", kills.len());

    let drain_dir =
        std::env::temp_dir().join(format!("qag-chaos-net-drain-{}", std::process::id()));
    let drain_violations = run_drain_phase(&catalog, &oracle, &drain_dir);
    for v in &drain_violations {
        eprintln!("DRAIN VIOLATION: {v}");
    }

    write_event_log(
        &log_path,
        total_ops,
        stride,
        &trials,
        &kills,
        &drain_violations,
        total_timeouts,
        total_net_errors,
    );
    let violations = trials.iter().filter(|t| t.violation.is_some()).count()
        + kills.iter().filter(|t| t.violation.is_some()).count()
        + drain_violations.len()
        + meta_violations;
    println!(
        "{} fault + {} kill trials + drain in {:?}: {violations} violations; log at {}",
        trials.len(),
        kills.len(),
        t0.elapsed(),
        log_path.display()
    );
    if violations == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The baseline pass: identical workload over an empty (transparent)
/// script on a real server; also counts the op space for sampling.
fn run_trial_baseline(
    catalog: &Arc<Catalog>,
    oracle: &[Vec<StepOracle>],
    net: &Arc<NetScript>,
    sessions: usize,
) -> Option<String> {
    let gw = gateway(catalog, None);
    let mut srv = Server::start(
        Arc::clone(&gw),
        "127.0.0.1:0",
        server_cfg(Some(Arc::clone(net))),
    )
    .expect("bind baseline server");
    let addr = srv.addr();
    let errors: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|v| scope.spawn(move || drive_session(addr, None, v, oracle)))
            .collect();
        handles
            .into_iter()
            .filter_map(|h| match h.join() {
                Ok(Ok(())) => None,
                Ok(Err(e)) => Some(e),
                Err(_) => Some("baseline client panicked".into()),
            })
            .collect()
    });
    srv.shutdown();
    if net.faults_fired() != 0 {
        return Some("empty script fired faults during the baseline".into());
    }
    if errors.is_empty() {
        None
    } else {
        Some(errors.join("; "))
    }
}
