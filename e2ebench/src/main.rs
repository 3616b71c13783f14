//! The repository's benchmark of record.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <open_5m|open_tpcds|serve_churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is a closed loop driven from this one process through
//! the system's public surface (`Explorer::open_session`,
//! `ExploreSession::apply`, `Gateway::handle_bytes`, the TCP `Server`),
//! with every operation's output checked. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` runs the traced variant, writes its
//! spans under `.bench_out/`, and prints the per-layer metrics. Standard
//! output ends with one JSON result line; the line before it is a report
//! of the host and the per-op facts (scan path, answer count).

mod harness;
mod layers;
mod open;
mod serve;
mod trace;

use harness::{Ledger, Metrics};
use qagview_common::json::Json;
use std::path::PathBuf;
use trace::Tracer;

/// Everything one run accumulates.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    /// Run-private directory for checkpoints and other files the system
    /// writes; removed when the run ends.
    pub scratch: PathBuf,
    pub ledger: Ledger,
    pub records: Vec<Json>,
    pub metrics: Metrics,
    pub tracer: Tracer,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args, run: &mut Run) -> Result<Json, String> {
    if let Some(w) = open::OpenWorkload::new(&args.workload, args.seed) {
        open::run(&w, args.trace, run)
    } else if args.workload == "serve_churn" {
        serve::run(args.trace, run)
    } else {
        Err(format!("unknown workload {}", args.workload))
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(".bench_out");
    let scratch = out_dir.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("e2ebench: create {}: {e}", scratch.display());
        std::process::exit(2);
    }
    let mut state = Run {
        seed: args.seed,
        seconds: args.seconds,
        scratch: scratch.clone(),
        ledger: Ledger::default(),
        records: Vec::new(),
        metrics: Metrics::default(),
        tracer: Tracer::new(),
    };
    let outcome = run(&args, &mut state);
    let _ = std::fs::remove_dir_all(&scratch);
    let details = match outcome {
        Ok(details) => details,
        Err(e) => {
            eprintln!("e2ebench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    state.metrics.set("peak_rss_mb", harness::peak_rss_mb());
    state.metrics.set("error_frac", state.ledger.error_frac());

    let tag = format!("{}-seed{}", args.workload, args.seed);
    if args.trace {
        let path = out_dir.join(format!("spans-{tag}.json"));
        if let Err(e) = state.tracer.write(&path) {
            eprintln!("e2ebench: write {}: {e}", path.display());
            std::process::exit(1);
        }
        for (name, (count, self_ms)) in state.tracer.self_time_by_name() {
            eprintln!("  self time {name:<26} {count:>7} spans {self_ms:>12.3} ms");
        }
    }
    let catalogue: &[(&str, &str)] = if args.trace {
        &harness::PER_LAYER
    } else {
        &harness::END_TO_END
    };
    let metrics = match state.metrics.render(catalogue) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    };
    let report = Json::obj([
        ("workload", Json::from(args.workload.as_str())),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        ("trace", Json::from(args.trace)),
        ("host", harness::host_json()),
        ("details", details),
        ("ops", Json::Arr(std::mem::take(&mut state.records))),
    ]);
    let report_path = out_dir.join(format!("report-{tag}-trace{}.json", u8::from(args.trace)));
    if let Err(e) = std::fs::write(&report_path, report.to_text()) {
        eprintln!("e2ebench: write {}: {e}", report_path.display());
        std::process::exit(1);
    }
    // The line before the result: the host and workload facts, with the
    // per-op records left in the report file.
    let mut facts = report;
    if let Json::Obj(map) = &mut facts {
        map.remove("ops");
    }
    facts.set("report", Json::from(report_path.display().to_string()));
    println!("{}", facts.to_text());
    println!(
        "{}",
        harness::result_line(state.ledger.failed == 0, state.ledger, metrics)
    );
}
