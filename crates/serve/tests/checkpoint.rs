//! Checkpoint round-trips: restart restore is bit-identical, eviction
//! under a tight resident cap is transparent, and write faults on the
//! checkpoint path degrade — they never corrupt a session or a durable
//! checkpoint. A checkpoint in an older format is a typed "unknown
//! session", never a restore.

mod common;

use common::{bare_replay, gateway_with, script, session_id, temp_dir, view_text, SQL};
use qagview_common::io::{FaultIo, FaultKind};
use qagview_common::wire::{checksum64, Writer};
use qagview_common::StoreErrorKind;
use qagview_interactive::checkpoint::CHECKPOINT_MAGIC;
use qagview_interactive::{checkpoint_file_name, ExplorerConfig, SessionCheckpoint};
use qagview_serve::{Gateway, SessionConfig};
use std::path::PathBuf;
use std::sync::Arc;

fn sessions_with_dir(dir: &std::path::Path, max_resident: usize) -> SessionConfig {
    SessionConfig {
        max_resident,
        checkpoint_dir: Some(PathBuf::from(dir)),
        ..SessionConfig::default()
    }
}

/// Drive the gateway through the same raw-bytes path a socket would.
fn req(gw: &Gateway, method: &str, path: &str, body: &str) -> (u16, String) {
    let raw = format!(
        "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    let resp = gw.handle_bytes(raw.as_bytes());
    let text = String::from_utf8(resp).unwrap();
    let status: u16 = text.split(' ').nth(1).unwrap().parse().unwrap();
    let body_at = text.find("\r\n\r\n").unwrap() + 4;
    (status, text[body_at..].to_string())
}

fn create(gw: &Gateway) -> String {
    let (status, body) = req(gw, "POST", "/api/session", "");
    assert_eq!(status, 200, "{body}");
    session_id(&body)
}

fn command(gw: &Gateway, sid: &str, body: &str) -> String {
    let (status, resp) = req(gw, "POST", &format!("/api/session/{sid}/command"), body);
    assert_eq!(status, 200, "{body} -> {resp}");
    resp
}

fn restored(response_body: &str) -> bool {
    qagview_common::json::parse(response_body)
        .unwrap()
        .path("provenance.restored")
        .and_then(qagview_common::json::Json::as_bool)
        .expect("provenance carries the restore marker")
}

#[test]
fn restart_restore_is_bit_identical() {
    let dir = temp_dir("restart");
    let gw1 = gateway_with(ExplorerConfig::default(), sessions_with_dir(&dir, 8));
    let sid = create(&gw1);
    for cmd in &script(0) {
        assert!(!restored(&command(&gw1, &sid, cmd)));
    }
    let (status, body) = req(&gw1, "POST", &format!("/api/session/{sid}/checkpoint"), "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"checkpointed\":true"));
    drop(gw1); // the process dies here

    // A new process: fresh gateway, fresh engine, same checkpoint dir.
    let gw2 = gateway_with(ExplorerConfig::default(), sessions_with_dir(&dir, 8));

    // Its freshly issued ids must not collide with the checkpointed one.
    let fresh = create(&gw2);
    assert_ne!(fresh, sid);

    // The next command restores transparently: provenance says so, and
    // the view is byte-identical to an uninterrupted sequential run.
    let next = r#"{"cmd":"set_k","value":2}"#;
    let body = command(&gw2, &sid, next);
    assert!(
        restored(&body),
        "restore must be visible in provenance: {body}"
    );
    let view = view_text(&body);
    let mut full = script(0);
    full.push(next.to_string());
    let oracle = bare_replay(&full);
    assert_eq!(view, *oracle.last().unwrap(), "restored view diverges");
    let digest = format!("{:016x}", checksum64(view.as_bytes()));
    assert!(body.contains(&digest), "digest mismatch after restore");

    // Once resident, the next command is an ordinary (non-restore) tick.
    let again = command(&gw2, &sid, r#"{"cmd":"set_k","value":3}"#);
    assert!(!restored(&again));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn eviction_under_a_one_session_cap_is_transparent() {
    let dir = temp_dir("evict");
    let gw = gateway_with(ExplorerConfig::default(), sessions_with_dir(&dir, 1));

    // Two sessions ping-pong over a single resident slot: every command
    // to the non-resident one evicts the other and restores from its
    // just-written checkpoint.
    let a = create(&gw);
    let b = create(&gw); // evicts a
    let script_a = script(0);
    let script_b = script(1);
    let mut views_a = Vec::new();
    let mut views_b = Vec::new();
    let mut restores = 0;
    for (cmd_a, cmd_b) in script_a.iter().zip(&script_b) {
        let resp = command(&gw, &a, cmd_a);
        restores += usize::from(restored(&resp));
        views_a.push(view_text(&resp));
        let resp = command(&gw, &b, cmd_b);
        restores += usize::from(restored(&resp));
        views_b.push(view_text(&resp));
    }
    assert_eq!(gw.sessions().resident(), 1, "the cap held throughout");
    assert!(restores >= 2, "the ping-pong must actually restore");
    assert!(
        gw.metrics()
            .sessions_evicted
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 2,
        "evictions must be counted"
    );
    assert_eq!(views_a, bare_replay(&script_a), "session a diverged");
    assert_eq!(views_b, bare_replay(&script_b), "session b diverged");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_write_faults_degrade_never_corrupt() {
    let dir = temp_dir("faults");
    let fault = Arc::new(FaultIo::new());
    let engine_cfg = ExplorerConfig {
        store_io: Arc::clone(&fault) as _,
        ..ExplorerConfig::default()
    };
    let gw = gateway_with(engine_cfg, sessions_with_dir(&dir, 1));

    let a = create(&gw);
    let script_a = script(2);
    for cmd in &script_a {
        command(&gw, &a, cmd);
    }
    // A good durable checkpoint of a's state, written fault-free.
    let (status, _) = req(&gw, "POST", &format!("/api/session/{a}/checkpoint"), "");
    assert_eq!(status, 200);

    // Now every eviction attempt hits a write fault: admitting a second
    // session finds nothing evictable and is refused with a typed 429 —
    // and a is untouched.
    fault.schedule(fault.ops_seen(), FaultKind::Error);
    let (status, body) = req(&gw, "POST", "/api/session", "");
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("session_limit"), "{body}");
    assert!(
        gw.metrics()
            .checkpoint_failures
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    let next = r#"{"cmd":"set_k","value":2}"#;
    let resp = command(&gw, &a, next);
    assert!(!restored(&resp), "a must have stayed resident");
    let mut full = script_a.clone();
    full.push(next.to_string());
    assert_eq!(view_text(&resp), *bare_replay(&full).last().unwrap());

    // An explicit checkpoint that tears mid-write is a typed 500; the
    // session keeps serving and the older durable checkpoint survives
    // (the tear happened on the temp file, never the real one).
    fault.schedule(fault.ops_seen() + 1, FaultKind::TornWrite);
    let (status, body) = req(&gw, "POST", &format!("/api/session/{a}/checkpoint"), "");
    assert_eq!(status, 500, "{body}");
    command(&gw, &a, r#"{"cmd":"set_l","value":4}"#);
    drop(gw);

    // A clean process over the same dir restores from the good (pre-tear)
    // checkpoint, bit-identically.
    let gw2 = gateway_with(ExplorerConfig::default(), sessions_with_dir(&dir, 8));
    let resp = command(&gw2, &a, next);
    assert!(restored(&resp));
    assert_eq!(view_text(&resp), *bare_replay(&full).last().unwrap());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A version-2 checkpoint image (the format that carried the fidelity
/// bytes of the removed sampled mode) of a session at `sql` with the
/// default knobs and no previous view.
fn version_2_image(sql: &str) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_bytes(&CHECKPOINT_MAGIC);
    w.put_u32(2);
    w.put_u64(0); // checksum, patched below
    w.put_u8(1); // state present
    w.put_str_u32(sql);
    for knob in [4u64, 8, 2] {
        w.put_u64(knob);
    }
    w.put_u8(0); // no threshold override
    w.put_u8(0); // no drill
    w.put_u8(0); // fidelity: exact
    w.put_u8(0); // no previous view
    w.put_u8(0); // no budget override
    w.put_u64(0); // retained bytes
    w.put_u8(0); // default fidelity: exact
    w.put_u8(1); // background refinement on
    let sum = checksum64(&w.as_bytes()[20..]);
    w.patch_u64(12, sum);
    w.into_bytes()
}

#[test]
fn a_version_2_checkpoint_is_a_typed_unknown_session() {
    let dir = temp_dir("v2");
    let gw = gateway_with(ExplorerConfig::default(), sessions_with_dir(&dir, 1));
    let a = create(&gw);
    command(&gw, &a, &script(0)[0]);
    create(&gw); // evicts a, writing its checkpoint
    let path = dir.join(checkpoint_file_name(u64::from_str_radix(&a, 16).unwrap()));
    assert!(path.exists(), "eviction must have checkpointed a");

    // An upgrade left a version-2 image where a's checkpoint was.
    let image = version_2_image(SQL);
    assert_eq!(
        SessionCheckpoint::from_bytes(&image)
            .unwrap_err()
            .store_kind(),
        Some(StoreErrorKind::UnsupportedVersion)
    );
    std::fs::write(&path, &image).unwrap();

    let restored_count = || {
        gw.metrics()
            .sessions_restored
            .load(std::sync::atomic::Ordering::Relaxed)
    };
    let before = restored_count();
    let (status, body) = req(
        &gw,
        "POST",
        &format!("/api/session/{a}/command"),
        r#"{"cmd":"set_k","value":2}"#,
    );
    assert_eq!(status, 404, "{body}");
    let doc = qagview_common::json::parse(&body).unwrap();
    assert_eq!(
        doc.path("error.kind").and_then(|k| k.as_str()),
        Some("unknown_session"),
        "{body}"
    );
    assert!(body.contains("checkpoint unusable"), "{body}");
    assert_eq!(restored_count(), before, "nothing may be restored");
    assert_eq!(gw.sessions().resident(), 1, "the refusal admitted nothing");
    std::fs::remove_dir_all(&dir).unwrap();
}
