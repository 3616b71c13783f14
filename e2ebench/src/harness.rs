//! Workload-independent pieces of the benchmark: the metric catalogue,
//! percentiles with an enforced tail depth, the correctness ledger,
//! host facts, and the result line.

use qagview_common::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics, printed on every `--trace 0` run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("open_ms.p50", "ms"),
    ("open_ms.p90", "ms"),
    ("tick_ms.p50", "ms"),
    ("tick_ms.p99", "ms"),
    ("ticks_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed on every `--trace 1` run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("error_frac", "frac"),
    ("query.parse_bind_ms", "ms"),
    ("query.group_scan_ms", "ms"),
    ("query.scan_mrows_per_s", "Mrows/s"),
    ("query.parallel_scan_frac", "frac"),
    ("query.answers_ms", "ms"),
    ("lattice.candidate_index_ms", "ms"),
    ("lattice.candidates", "count"),
    ("precompute.descent_ms", "ms"),
    ("precompute.lookup_ms", "ms"),
    ("explore.apply_ms.p50", "ms"),
    ("explore.apply_ms.p99", "ms"),
    ("explore.hit_ratio.group_phase", "frac"),
    ("explore.hit_ratio.answers", "frac"),
    ("explore.hit_ratio.planes", "frac"),
    ("explore.hit_ratio.summarizers", "frac"),
    ("explore.retained_mb", "MB"),
    ("checkpoint.write_ms", "ms"),
    ("checkpoint.restore_ms", "ms"),
    ("sessions.evictions_per_1k", "count"),
    ("sessions.restores_per_1k", "count"),
    ("viz.transition_ms", "ms"),
    ("serve.handle_ms", "ms"),
    ("serve.encode_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("trace.coverage", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.stage_sum_ms", "ms"),
    ("trace.op_ms", "ms"),
];

/// Samples a tail percentile needs strictly beyond it before it counts
/// as a number.
pub const TAIL_DEPTH: usize = 10;

/// Whether `name` is a legal metric name: non-empty `[A-Za-z0-9_.-]+`.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Nearest-rank percentile `p` (0 < p < 1) of `samples`. A tail
/// percentile (p > 0.5) with fewer than [`TAIL_DEPTH`] samples beyond it
/// is an error: there is not enough data to say where the tail is.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    if samples.is_empty() {
        return Err(format!("p{} of an empty sample", p * 100.0));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let beyond = sorted.len() - rank;
    if p > 0.5 && beyond < TAIL_DEPTH {
        return Err(format!(
            "p{} of {} samples has {beyond} samples beyond it (need {TAIL_DEPTH})",
            p * 100.0,
            sorted.len()
        ));
    }
    Ok(sorted[rank - 1])
}

/// Median (nearest rank) of a non-empty sample.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).expect("median of a non-empty sample")
}

/// Ledger of attempted operations and the ones that failed: refused,
/// errored, or answered with output that differs from the oracle.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
}

impl Ledger {
    /// Count one operation whose output digest should equal `expected`.
    pub fn check_digest(&mut self, what: &str, expected: &str, got: Option<&str>) -> bool {
        self.check(what, got == Some(expected), || {
            format!("digest {got:?}, expected {expected}")
        })
    }

    /// Count one operation; `ok` says whether its output was right.
    pub fn check(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("e2ebench: FAIL {what}: {}", detail());
            }
        }
        ok
    }

    pub fn merge(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed operations over attempted ones.
    pub fn error_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Named metric values of one run, emitted in the result line.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The result object of the catalogue `wanted`: every metric must be
    /// present and finite, or the run reports which one is missing.
    pub fn render(&self, wanted: &[(&'static str, &'static str)]) -> Result<Json, String> {
        let mut out = BTreeMap::new();
        for &(name, unit) in wanted {
            if !valid_metric_name(name) {
                return Err(format!("metric name {name:?} is not [A-Za-z0-9_.-]+"));
            }
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            out.insert(
                name.to_string(),
                Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))]),
            );
        }
        Ok(Json::Obj(out))
    }
}

/// The last line of standard output.
pub fn result_line(correct: bool, ledger: Ledger, metrics: Json) -> String {
    Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(ledger.attempted.max(1))),
        ("failed", Json::from(ledger.failed)),
        ("metrics", metrics),
    ])
    .to_text()
}

/// Host facts every result is recorded with: both auto-dispatch
/// decisions (parallel scan, parallel candidate index) depend on them.
pub fn host_json() -> Json {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj([
        ("available_parallelism", Json::from(cores)),
        ("cpu_model", Json::from(cpu)),
        ("os", Json::from(std::env::consts::OS)),
        ("arch", Json::from(std::env::consts::ARCH)),
    ])
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Run `setup` at least `min_reps` times and until `min_total_s` seconds
/// have passed; return the median duration in seconds and the last
/// result (earlier results are dropped before the next repetition starts,
/// so peak memory holds one copy).
pub fn timed_setup<T>(min_reps: usize, min_total_s: f64, mut setup: impl FnMut() -> T) -> (f64, T) {
    let start = Instant::now();
    let mut durations = Vec::new();
    let mut last = None;
    while durations.len() < min_reps || start.elapsed().as_secs_f64() < min_total_s {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        durations.push(t.elapsed().as_secs_f64());
    }
    (median(&durations), last.expect("at least one setup ran"))
}

/// Deterministic xorshift generator for seeded workload choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

pub fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_legal() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_metric_name(name), "bad metric name {name:?}");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit:?}");
        }
        assert!(!valid_metric_name("open ms"));
        assert!(!valid_metric_name("tick_ms{p99}"));
        assert!(!valid_metric_name(""));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let doc = qagview_common::json::parse(&text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .expect("metric list")
                .items()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let emitted: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, emitted, "{key} in BENCHMARK.json");
        }
    }

    #[test]
    fn shallow_tail_percentile_is_an_error() {
        let samples: Vec<f64> = (0..99).map(f64::from).collect();
        // 99 samples: p90 is rank 90, leaving 9 beyond it.
        assert!(percentile(&samples, 0.9).is_err());
        let samples: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.9), Ok(89.0));
        let samples: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(percentile(&samples, 0.99).is_err());
        let samples: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.99), Ok(989.0));
        // The median has no tail-depth requirement.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), Ok(2.0));
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn corrupted_digest_counts_as_an_error() {
        let good = "00ff00ff00ff00ff";
        let mut ledger = Ledger::default();
        assert!(ledger.check_digest("op", good, Some(good)));
        assert_eq!(ledger.error_frac(), 0.0);
        let mut corrupted = good.to_string();
        corrupted.replace_range(0..1, "1");
        assert!(!ledger.check_digest("op", good, Some(&corrupted)));
        assert!(!ledger.check_digest("op", good, None));
        assert_eq!(
            ledger,
            Ledger {
                attempted: 3,
                failed: 2
            }
        );
        assert!((ledger.error_frac() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn missing_metric_is_reported_not_printed() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.5);
        assert!(m.render(&[("setup_s", "s")]).is_ok());
        assert!(m
            .render(&[("setup_s", "s"), ("open_ms.p50", "ms")])
            .is_err());
        m.set("open_ms.p50", f64::NAN);
        assert!(m.render(&[("open_ms.p50", "ms")]).is_err());
    }
}
