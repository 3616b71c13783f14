//! Wire-protocol compatibility: a v1-shaped client still round-trips
//! exact sessions untouched, and the clients of the removed v2 fidelity
//! surface get well-defined answers — a `fidelity` field on create is
//! ignored (the session is exact), and `set_fidelity` / `await_exact` are
//! typed unknown-command refusals that leave the session as it was.

mod common;

use common::{bare_replay, once, script, session_id, view_text};
use qagview_common::json;
use qagview_serve::{Server, ServerConfig, SessionConfig};
use std::sync::Arc;

/// What a v1 client reads out of a command response: exactly the fields
/// the v1 protocol defined, via get-based lookups that ignore everything
/// else. Panics if any v1 field went missing.
fn v1_view(response_body: &str) -> String {
    let doc = json::parse(response_body).unwrap();
    for field in ["session", "seq", "digest", "provenance", "view"] {
        assert!(doc.get(field).is_some(), "v1 field {field:?} missing");
    }
    let prov = doc.get("provenance").unwrap();
    for field in [
        "group_phase",
        "answers",
        "plane",
        "degradations",
        "restored",
    ] {
        assert!(prov.get(field).is_some(), "v1 provenance.{field} missing");
    }
    let view = doc.get("view").unwrap();
    for field in ["state", "summary", "plot", "transition"] {
        assert!(view.get(field).is_some(), "v1 view.{field} missing");
    }
    view.to_text()
}

fn digest(response_body: &str) -> String {
    json::parse(response_body)
        .unwrap()
        .get("digest")
        .and_then(|d| d.as_str().map(str::to_string))
        .expect("response carries a digest")
}

/// Run `script(0)` on a session created with `create_body` and return
/// every response's view digest.
fn script_digests(addr: std::net::SocketAddr, create_body: &[u8]) -> Vec<String> {
    let (status, body) = once(addr, "POST", "/api/session", create_body);
    assert_eq!(status, 200, "{body}");
    let path = format!("/api/session/{}/command", session_id(&body));
    script(0)
        .iter()
        .map(|cmd| {
            let (status, body) = once(addr, "POST", &path, cmd.as_bytes());
            assert_eq!(status, 200, "{cmd} -> {body}");
            digest(&body)
        })
        .collect()
}

#[test]
fn v1_shaped_client_round_trips_exact_sessions() {
    let gw = common::gateway(SessionConfig::default());
    let mut server =
        Server::start(Arc::clone(&gw), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.addr();

    // A v1 create body: empty.
    let (status, body) = once(addr, "POST", "/api/session", b"");
    assert_eq!(status, 200, "{body}");
    let sid = session_id(&body);
    let path = format!("/api/session/{sid}/command");

    let views: Vec<String> = script(0)
        .iter()
        .map(|cmd| {
            let (status, body) = once(addr, "POST", &path, cmd.as_bytes());
            assert_eq!(status, 200, "{cmd} -> {body}");
            // The server stamps "v":3; a get-based v1 client never looks.
            assert!(body.contains("\"v\":3"), "{body}");
            assert!(!body.contains("fidelity"), "{body}");
            v1_view(&body)
        })
        .collect();

    // The views a v1 client extracts are byte-identical to the bare
    // sequential oracle — the v1 contract, unchanged.
    assert_eq!(views, bare_replay(&script(0)));
    server.shutdown();
}

/// Create one session per body in `bodies` and assert each serves the
/// same view digests as a session created with an empty body.
fn assert_create_bodies_serve_plain_sessions(bodies: &[&[u8]]) {
    let gw = common::gateway(SessionConfig::default());
    let mut server =
        Server::start(Arc::clone(&gw), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.addr();

    let plain = script_digests(addr, b"");
    for body in bodies {
        assert_eq!(
            script_digests(addr, body),
            plain,
            "{}",
            String::from_utf8_lossy(body)
        );
    }
    server.shutdown();
}

#[test]
fn fidelity_on_create_is_ignored_and_the_session_is_exact() {
    assert_create_bodies_serve_plain_sessions(&[
        br#"{"fidelity":"approximate"}"#,
        br#"{"fidelity":"exact"}"#,
    ]);
}

#[test]
fn bad_fidelity_values_on_create_are_ignored() {
    assert_create_bodies_serve_plain_sessions(&[br#"{"fidelity":"fuzzy"}"#, br#"{"fidelity":7}"#]);
}

#[test]
fn removed_fidelity_verbs_are_unknown_commands() {
    let gw = common::gateway(SessionConfig::default());
    let mut server =
        Server::start(Arc::clone(&gw), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.addr();

    let (status, body) = once(addr, "POST", "/api/session", b"");
    assert_eq!(status, 200, "{body}");
    let sid = session_id(&body);
    let path = format!("/api/session/{sid}/command");
    let info = |addr| {
        let (status, body) = once(addr, "GET", &format!("/api/session/{sid}"), b"");
        assert_eq!(status, 200, "{body}");
        body
    };

    let script = script(0);
    let (status, first) = once(addr, "POST", &path, script[0].as_bytes());
    assert_eq!(status, 200, "{first}");
    let before = info(addr);
    assert!(before.contains("\"seq\":1"), "{before}");

    for cmd in [
        &br#"{"cmd":"set_fidelity","mode":"approximate"}"#[..],
        br#"{"cmd":"set_fidelity","mode":"exact"}"#,
        br#"{"cmd":"await_exact"}"#,
    ] {
        let (status, body) = once(addr, "POST", &path, cmd);
        assert_eq!(status, 400, "{body}");
        let doc = json::parse(&body).unwrap();
        assert_eq!(
            doc.path("error.kind").and_then(|k| k.as_str()),
            Some("bad_command"),
            "{body}"
        );
        assert!(body.contains("unknown cmd"), "{body}");
        assert_eq!(info(addr), before, "a refusal must not move the session");
    }

    // The next command continues the sequence as if the refused verbs had
    // never been sent.
    let (status, next) = once(addr, "POST", &path, script[1].as_bytes());
    assert_eq!(status, 200, "{next}");
    assert!(next.contains("\"seq\":2"), "{next}");
    assert_eq!(view_text(&next), bare_replay(&script[..2])[1]);
    server.shutdown();
}
