//! Chaos property harness: enumerate **every** injectable fault point in
//! a save→load→explore script and prove the engine degrades instead of
//! dying.
//!
//! The script drives two simulated "processes" (engines) over one store
//! directory through a [`FaultIo`]. A baseline run with no faults counts
//! the I/O ops and records a digest of every response. Then one trial per
//! `(op index, fault kind)` pair re-runs the identical script with that
//! single fault injected and asserts:
//!
//! 1. **no panic** anywhere (each trial runs under `catch_unwind`);
//! 2. every command still succeeds — the store is a pure cache, so no
//!    store fault may fail a command — and its view digest (f64 bits
//!    included) is **identical** to the no-fault baseline;
//! 3. after the fault clears (`reboot` for crash kinds), a fresh engine
//!    over the surviving directory still serves the baseline views.
//!
//! The crash matrix test drives the atomic write path specifically: a
//! kill at every crash point must leave the complete old file, the
//! complete new file, or a clean probe miss — never a partial read.

use qagview_common::io::ALL_FAULT_KINDS;
use qagview_common::{FaultIo, FaultKind, FaultPlan, FxHasher, StoreErrorKind};
use qagview_interactive::{
    store, ExploreCommand, ExploreResponse, ExploreSession, Explorer, ExplorerConfig,
    PrecomputeConfig, Precomputed, StoreReader,
};
use qagview_storage::{Catalog, Cell, ColumnType, Schema, TableBuilder};
use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::sync::Arc;

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

/// Digest of everything a response shows the user — floats as raw bits,
/// so "identical" means bit-identical. Cache provenance is deliberately
/// excluded: a fault changes *where* an answer came from, never the
/// answer.
fn digest(r: &ExploreResponse) -> u64 {
    fn s(h: &mut FxHasher, x: &str) {
        h.write(x.as_bytes());
        h.write_u8(0xff);
    }
    let mut h = FxHasher::default();
    s(&mut h, &r.state.sql);
    h.write_usize(r.state.k);
    h.write_usize(r.state.l);
    h.write_usize(r.state.d);
    for c in &r.summary.clusters {
        s(&mut h, &c.label);
        h.write_usize(c.size);
        h.write_usize(c.top_l);
        h.write_u64(c.sum.to_bits());
        h.write_u64(c.avg.to_bits());
    }
    h.write_usize(r.summary.covered);
    h.write_usize(r.summary.total);
    h.write_u64(r.summary.avg.to_bits());
    h.write_usize(r.plot.l);
    for &k in &r.plot.k_values {
        h.write_usize(k);
    }
    for series in &r.plot.series {
        h.write_usize(series.d);
        for v in &series.avg_by_k {
            h.write_u64(v.to_bits());
        }
    }
    h.write_u8(u8::from(r.transition.is_some()));
    h.finish()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "qag-chaos-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn engine_over(io: &Arc<FaultIo>, dir: &Path, catalog: Arc<Catalog>) -> Arc<Explorer> {
    Arc::new(Explorer::from_shared(
        catalog,
        ExplorerConfig {
            store_dir: Some(dir.to_path_buf()),
            store_io: io.clone(),
            ..Default::default()
        },
    ))
}

/// Run the canonical save→load→explore script and return the digest of
/// every response in order. The script covers: cold build + write-back,
/// a warm memory tick, then a second "process" that warm-starts from the
/// store (orphan sweep, probe read, recency touch) and ticks again.
fn run_script(io: &Arc<FaultIo>, dir: &Path, catalog: &Arc<Catalog>) -> Vec<u64> {
    let mut digests = Vec::new();
    let engine1 = engine_over(io, dir, Arc::clone(catalog));
    let mut s1 = ExploreSession::new(engine1);
    for cmd in [
        ExploreCommand::SetQuery(SQL.into()),
        ExploreCommand::SetK(3),
    ] {
        let r = s1.apply(cmd).expect("store faults must not fail commands");
        digests.push(digest(&r));
    }
    drop(s1);
    let engine2 = engine_over(io, dir, Arc::clone(catalog));
    let mut s2 = ExploreSession::new(engine2);
    for cmd in [
        ExploreCommand::SetQuery(SQL.into()),
        ExploreCommand::SetK(3),
    ] {
        let r = s2.apply(cmd).expect("store faults must not fail commands");
        digests.push(digest(&r));
    }
    digests
}

#[test]
fn every_fault_point_degrades_gracefully_and_recovers_byte_identical() {
    let catalog = Arc::new(catalog());

    // Baseline: no faults. Counts the op space and fixes the expected
    // view digests.
    let baseline_dir = temp_dir("baseline");
    let recorder = Arc::new(FaultIo::new());
    let baseline = run_script(&recorder, &baseline_dir, &catalog);
    let total_ops = recorder.ops_seen();
    assert!(
        total_ops >= 8,
        "script should exercise list/read/create/write/sync/rename/touch, saw {total_ops} ops"
    );
    // No *injected* faults in the baseline (the probe read of the
    // not-yet-written file legitimately fails with NotFound).
    assert!(
        recorder.events().iter().all(|e| e.fault.is_none()),
        "baseline must be fault-free"
    );
    std::fs::remove_dir_all(&baseline_dir).unwrap();

    // One trial per (op, kind): the trial script must neither panic nor
    // change any view, and after the fault clears a fresh engine over the
    // surviving directory must reproduce the baseline views exactly.
    let mut trials = 0u32;
    for at_op in 0..total_ops {
        for kind in ALL_FAULT_KINDS {
            trials += 1;
            let dir = temp_dir(&format!("t{at_op}-{kind}"));
            let io = Arc::new(FaultIo::with_plan(vec![FaultPlan { at_op, kind }]));
            let trial = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_script(&io, &dir, &catalog)
            }));
            let digests = match trial {
                Ok(d) => d,
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| payload.downcast_ref::<&str>().copied())
                        .unwrap_or("<non-string panic payload>");
                    panic!("PANIC with {kind} injected at op {at_op}: {msg}")
                }
            };
            assert_eq!(
                digests, baseline,
                "view diverged under {kind} at op {at_op}"
            );

            // Fault cleared: reboot the simulated machine and prove the
            // directory still serves baseline views, whatever state the
            // fault left it in.
            io.reboot();
            let recovered = run_script(&io, &dir, &catalog);
            assert_eq!(
                recovered, baseline,
                "post-fault recovery diverged after {kind} at op {at_op}"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
    assert_eq!(trials, total_ops as u32 * ALL_FAULT_KINDS.len() as u32);
}

fn built_plane(catalog_answers: &Arc<qagview_lattice::AnswerSet>, k_max: usize) -> Vec<u8> {
    let cfg = PrecomputeConfig {
        k_min: 1,
        k_max,
        d_min: 0,
        d_max: catalog_answers.arity(),
        parallel: false,
        ..Default::default()
    };
    let pre = Precomputed::build(Arc::clone(catalog_answers), 5, cfg).unwrap();
    store::to_bytes(&pre).unwrap()
}

fn answers() -> Arc<qagview_lattice::AnswerSet> {
    let mut b = qagview_lattice::AnswerSetBuilder::new(vec!["a".into(), "b".into()]);
    let rows: &[(&str, &str, f64)] = &[
        ("x", "p", 9.0),
        ("x", "q", 8.0),
        ("y", "p", 7.0),
        ("y", "q", 6.0),
        ("z", "p", 2.0),
    ];
    for &(a, bb, v) in rows {
        b.push(&[a, bb], v).unwrap();
    }
    Arc::new(b.finish().unwrap())
}

/// The write-back crash matrix: kill at every crash point of the atomic
/// save (pre-temp, mid-temp, pre-rename at sync, pre-rename at rename,
/// post-rename), with and without a pre-existing old file. A reopen must
/// see the complete old image, the complete new image, or a clean probe
/// miss — never a torn read — and the orphan sweep must leave no temp
/// debris behind.
#[test]
fn crash_matrix_never_exposes_a_partial_file() {
    let ans = answers();
    let old_image = built_plane(&ans, 6);
    let new_image = built_plane(&ans, 8);
    assert_ne!(old_image, new_image, "matrix needs two distinct images");

    // Save ops are create_temp(0), write(1), sync(2), rename(3).
    let crash_points: &[(u64, FaultKind, &str)] = &[
        (0, FaultKind::Crash, "pre-temp"),
        (1, FaultKind::Crash, "mid-temp"),
        (2, FaultKind::Crash, "pre-rename (sync)"),
        (3, FaultKind::Crash, "pre-rename (rename)"),
        (3, FaultKind::CrashAfter, "post-rename"),
    ];
    for with_old_file in [false, true] {
        for &(at_op, kind, label) in crash_points {
            let dir = temp_dir(&format!("crash-{at_op}-{kind}-{with_old_file}"));
            let path = dir.join("plane-under-test.qag");
            if with_old_file {
                std::fs::write(&path, &old_image).unwrap();
            }
            let io = Arc::new(FaultIo::with_plan(vec![FaultPlan { at_op, kind }]));
            let pre = {
                let cfg = PrecomputeConfig {
                    k_min: 1,
                    k_max: 8,
                    d_min: 0,
                    d_max: ans.arity(),
                    parallel: false,
                    ..Default::default()
                };
                Precomputed::build(Arc::clone(&ans), 5, cfg).unwrap()
            };
            let result = store::save_io(io.as_ref(), &pre, &path);
            match kind {
                FaultKind::CrashAfter => {
                    // The op applied; only the acknowledgement was lost.
                    assert!(result.is_err(), "{label}: caller still sees a failure");
                }
                _ => assert!(result.is_err(), "{label}: crash must surface as an error"),
            }

            // "Reboot" and inspect what a next process finds.
            io.reboot();
            let swept = store::clean_orphan_temps(io.as_ref(), &dir).unwrap();
            let files: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            assert!(
                files.iter().all(|p| !p.to_string_lossy().contains(".tmp.")),
                "{label}: temp debris survived the sweep (removed {swept}): {files:?}"
            );
            match StoreReader::open(&path) {
                Ok(_) => {
                    let on_disk = std::fs::read(&path).unwrap();
                    assert!(
                        on_disk == old_image || on_disk == new_image,
                        "{label}: readable file is neither the old nor the new image"
                    );
                    if kind == FaultKind::CrashAfter {
                        assert_eq!(on_disk, new_image, "{label}: rename happened");
                    } else if with_old_file {
                        assert_eq!(on_disk, old_image, "{label}: old file must survive");
                    }
                }
                Err(e) => {
                    assert_eq!(
                        e.store_kind(),
                        Some(StoreErrorKind::NotFound),
                        "{label}: unreadable file must be a clean miss, got {e}"
                    );
                    assert!(
                        !with_old_file && kind != FaultKind::CrashAfter,
                        "{label}: the old (or renamed new) file vanished"
                    );
                }
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// GC under fault: a remove that fails mid-eviction skips the file and
/// keeps going; the next pass finishes the job. The directory never
/// loses a file it should have kept.
#[test]
fn gc_survives_failed_removes_and_converges() {
    let dir = temp_dir("gc-chaos");
    for (i, name) in ["plane-0.qag", "plane-1.qag", "plane-2.qag", "plane-3.qag"]
        .iter()
        .enumerate()
    {
        let p = dir.join(name);
        std::fs::write(&p, vec![0u8; 100]).unwrap();
        let t = std::time::SystemTime::UNIX_EPOCH
            + std::time::Duration::from_secs(3_000_000 + i as u64 * 60);
        std::fs::File::options()
            .write(true)
            .open(&p)
            .unwrap()
            .set_modified(t)
            .unwrap();
    }
    // Op 0 is the list; op 1 the first (oldest) remove — fail it.
    let io = FaultIo::with_plan(vec![FaultPlan {
        at_op: 1,
        kind: FaultKind::Error,
    }]);
    let report = store::gc(&io, &dir, 200).unwrap();
    // The failed remove was skipped; eviction continued with the next
    // oldest files until the budget held.
    assert_eq!(report.evicted, 2);
    assert!(
        dir.join("plane-0.qag").exists(),
        "failed remove left intact"
    );
    assert!(dir.join("plane-3.qag").exists(), "newest file retained");
    // A later clean pass can still evict the survivor of the failed
    // remove (it is the oldest file left).
    let report = store::gc(&io, &dir, 100).unwrap();
    assert_eq!(report.evicted, 1);
    assert_eq!(report.bytes_retained, 100);
    assert!(!dir.join("plane-0.qag").exists());
    assert!(dir.join("plane-3.qag").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}
