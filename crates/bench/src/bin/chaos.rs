//! CI chaos driver: exhaustively re-run the save→load→explore script
//! with one injected fault per `(op index, fault kind)` pair, over a
//! fixed grid of retry-jitter seeds, and write a machine-readable event
//! log for the CI artifact.
//!
//! ```text
//! chaos [<event-log.json>]     # default: CHAOS_events.json in the cwd
//! ```
//!
//! Every trial must satisfy the robustness contract the test-suite
//! harness (`crates/interactive/tests/chaos.rs`) property-checks:
//!
//! * no panic — a fault surfaces as a typed error or is absorbed;
//! * no command failure — the store is a pure cache, so no store fault
//!   may fail an exploration command;
//! * view digests (f64 bits included) identical to the no-fault baseline,
//!   both *during* the fault and after it clears (simulated reboot).
//!
//! Any violation is recorded in the event log and fails the process with
//! a nonzero exit, failing the CI job.

use qagview_common::io::ALL_FAULT_KINDS;
use qagview_common::{FaultIo, FaultPlan, FxHasher, RetryPolicy};
use qagview_interactive::{ExploreCommand, ExploreResponse, Explorer, ExplorerConfig, SessionSpec};
use qagview_storage::{Catalog, Cell, ColumnType, Schema, TableBuilder};
use std::hash::Hasher as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

/// Retry-jitter seeds the grid sweeps: backoff jitter must never change
/// what the user sees, only when the disk is re-poked.
const SEEDS: [u64; 3] = [1807, 42, 0xdecaf];

const SQL: &str = "SELECT genre, who, AVG(rating) AS val FROM ratings \
                   GROUP BY genre, who HAVING count(*) > 0 ORDER BY val DESC";

fn catalog() -> Catalog {
    let schema = Schema::from_pairs(&[
        ("genre", ColumnType::Str),
        ("who", ColumnType::Str),
        ("rating", ColumnType::Float),
    ])
    .expect("schema");
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
            .expect("row");
    }
    let mut c = Catalog::new();
    c.register("ratings", b.finish());
    c
}

fn digest(r: &ExploreResponse) -> u64 {
    let mut h = FxHasher::default();
    h.write(r.state.sql.as_bytes());
    h.write_usize(r.state.k);
    h.write_usize(r.state.l);
    h.write_usize(r.state.d);
    for c in &r.summary.clusters {
        h.write(c.label.as_bytes());
        h.write_u8(0xff);
        h.write_usize(c.size);
        h.write_usize(c.top_l);
        h.write_u64(c.sum.to_bits());
        h.write_u64(c.avg.to_bits());
    }
    h.write_usize(r.summary.covered);
    h.write_usize(r.summary.total);
    h.write_u64(r.summary.avg.to_bits());
    for series in &r.plot.series {
        h.write_usize(series.d);
        for &v in &series.avg_by_k {
            h.write_u64(v.to_bits());
        }
    }
    h.finish()
}

fn engine_over(io: &Arc<FaultIo>, dir: &Path, catalog: Arc<Catalog>, seed: u64) -> Arc<Explorer> {
    Arc::new(Explorer::from_shared(
        catalog,
        ExplorerConfig {
            store_dir: Some(dir.to_path_buf()),
            store_io: io.clone(),
            retry: RetryPolicy {
                seed,
                ..Default::default()
            },
            ..Default::default()
        },
    ))
}

/// The canonical script: two simulated processes over one store
/// directory. Returns per-command view digests, or the command error.
fn run_script(
    io: &Arc<FaultIo>,
    dir: &Path,
    catalog: &Arc<Catalog>,
    seed: u64,
) -> Result<Vec<u64>, String> {
    let mut digests = Vec::new();
    for _process in 0..2 {
        let engine = engine_over(io, dir, Arc::clone(catalog), seed);
        let mut session = engine
            .open_session(SessionSpec::default())
            .expect("open session");
        for cmd in [
            ExploreCommand::SetQuery(SQL.into()),
            ExploreCommand::SetK(3),
        ] {
            match session.apply(cmd) {
                Ok(r) => digests.push(digest(&r)),
                Err(e) => return Err(e.to_string()),
            }
        }
    }
    Ok(digests)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qag-chaos-bin-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear temp dir");
    }
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

struct Trial {
    seed: u64,
    at_op: u64,
    kind: String,
    sleeps: usize,
    faults_fired: usize,
    violation: Option<String>,
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn write_event_log(path: &Path, total_ops: u64, trials: &[Trial]) {
    let mut out = String::new();
    let violations = trials.iter().filter(|t| t.violation.is_some()).count();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"seeds\": [{}],\n",
        SEEDS.map(|s| s.to_string()).join(", ")
    ));
    out.push_str(&format!("  \"baseline_ops\": {total_ops},\n"));
    out.push_str(&format!("  \"fault_kinds\": {},\n", ALL_FAULT_KINDS.len()));
    out.push_str(&format!("  \"trials\": {},\n", trials.len()));
    out.push_str(&format!("  \"violations\": {violations},\n"));
    out.push_str("  \"events\": [\n");
    for (i, t) in trials.iter().enumerate() {
        let sep = if i + 1 == trials.len() { "" } else { "," };
        let violation = match &t.violation {
            Some(v) => format!("\"{}\"", json_escape(v)),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "    {{\"seed\": {}, \"op\": {}, \"kind\": \"{}\", \"sleeps\": {}, \
             \"faults_fired\": {}, \"violation\": {}}}{}\n",
            t.seed, t.at_op, t.kind, t.sleeps, t.faults_fired, violation, sep
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).expect("write event log");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let log_path = match args.as_slice() {
        [] => PathBuf::from("CHAOS_events.json"),
        [p] => PathBuf::from(p),
        _ => {
            eprintln!("usage: chaos [<event-log.json>]");
            return ExitCode::from(2);
        }
    };
    let catalog = Arc::new(catalog());
    let t0 = std::time::Instant::now();

    // Baseline: learn the op space and the expected digests. The op
    // sequence is deterministic, so one baseline serves every seed.
    let baseline_dir = temp_dir("baseline");
    let recorder = Arc::new(FaultIo::new());
    let baseline = run_script(&recorder, &baseline_dir, &catalog, SEEDS[0]).expect("baseline run");
    let total_ops = recorder.ops_seen();
    std::fs::remove_dir_all(&baseline_dir).expect("clean baseline dir");
    println!(
        "baseline: {total_ops} I/O ops, {} responses",
        baseline.len()
    );

    let mut trials = Vec::new();
    for seed in SEEDS {
        for at_op in 0..total_ops {
            for kind in ALL_FAULT_KINDS {
                let dir = temp_dir(&format!("s{seed}-t{at_op}-{kind}"));
                let io = Arc::new(FaultIo::with_plan(vec![FaultPlan { at_op, kind }]));
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_script(&io, &dir, &catalog, seed)
                }));
                let mut violation = match outcome {
                    Err(_) => Some("panic".to_string()),
                    Ok(Err(e)) => Some(format!("command failed: {e}")),
                    Ok(Ok(d)) if d != baseline => {
                        Some("view diverged from baseline under fault".to_string())
                    }
                    Ok(Ok(_)) => None,
                };
                // Fault cleared: reboot and demand byte-identical views
                // from whatever the fault left on disk.
                if violation.is_none() {
                    io.reboot();
                    violation = match run_script(&io, &dir, &catalog, seed) {
                        Err(e) => Some(format!("post-fault command failed: {e}")),
                        Ok(d) if d != baseline => {
                            Some("post-fault recovery diverged from baseline".to_string())
                        }
                        Ok(_) => None,
                    };
                }
                if let Some(v) = &violation {
                    eprintln!("VIOLATION seed={seed} op={at_op} kind={kind}: {v}");
                }
                trials.push(Trial {
                    seed,
                    at_op,
                    kind: kind.to_string(),
                    sleeps: io.sleeps().len(),
                    faults_fired: io.events().iter().filter(|e| e.fault.is_some()).count(),
                    violation,
                });
                std::fs::remove_dir_all(&dir).expect("clean trial dir");
            }
        }
    }

    write_event_log(&log_path, total_ops, &trials);
    let violations = trials.iter().filter(|t| t.violation.is_some()).count();
    println!(
        "{} trials ({} seeds × {} ops × {} kinds) in {:?}: {} violations; log at {}",
        trials.len(),
        SEEDS.len(),
        total_ops,
        ALL_FAULT_KINDS.len(),
        t0.elapsed(),
        violations,
        log_path.display()
    );
    if violations == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
