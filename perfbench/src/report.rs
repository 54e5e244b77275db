//! Result reporting: one `metric` line per value (name, value, unit),
//! a provenance line, and the final JSON object on the last line.

use std::fmt::Write as _;
use std::time::{SystemTime, UNIX_EPOCH};

/// Everything one run reports.
pub struct Report {
    /// Traced run: end-to-end values are printed but the final object
    /// carries the per-layer metrics.
    trace: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness mismatches; any makes the run incorrect.
    pub mismatches: Vec<String>,
    /// Metrics for the final JSON object, in insertion order.
    metrics: Vec<(String, f64, String)>,
}

impl Report {
    pub fn new(trace: bool) -> Report {
        Report {
            trace,
            attempted: 0,
            failed: 0,
            mismatches: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Records a metric for the final JSON object and prints it.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        let value = if value.is_finite() { value } else { 0.0 };
        println!("metric {name} {value} {unit}");
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// An end-to-end metric: in the final object of an untraced run,
    /// printed only in a traced one.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &str) {
        if self.trace {
            println!("untraced-in-trace-run {name} {value} {unit}");
        } else {
            self.metric(name, value, unit);
        }
    }

    /// A raw host time behind a normalized end-to-end metric (see
    /// `calib`), printed with its unit.
    pub fn raw(&self, name: &str, value: f64, unit: &str) {
        println!("raw {name} {value} {unit}");
    }

    /// A workload-specific name for an end-to-end value (the names the
    /// layer map in `layers.json` uses), printed with its unit.
    pub fn alias(&self, name: &str, value: f64, unit: &str) {
        println!("metric-alias {name} {value} {unit}");
    }

    /// Prints a value that is not part of the final JSON object.
    pub fn info(&self, name: &str, value: impl std::fmt::Display) {
        println!("info {name} {value}");
    }

    /// Records a correctness mismatch (one failed operation).
    pub fn mismatch(&mut self, what: String) {
        eprintln!("perfbench: MISMATCH {what}");
        self.failed += 1;
        self.mismatches.push(what);
    }

    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// The final line: `{"correct","attempted","failed","metrics"}`.
    pub fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push_str(", ");
            }
            let _ = write!(m, r#""{name}": {{"value": {value:?}, "unit": "{unit}"}}"#);
        }
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{m}}}}}"#,
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The git revision of the working directory, read from `.git` without
/// running git (so nothing outside the directory is consulted).
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".to_string()),
    }
}

/// UTC timestamp as `YYYY-MM-DDTHH:MM:SSZ`.
fn utc_now() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (days, rem) = (secs / 86_400, secs % 86_400);
    // Civil-from-days (Howard Hinnant's algorithm).
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

/// The provenance line printed with every result.
pub fn provenance(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    nproc: usize,
    cpu: Option<usize>,
) -> String {
    let cpu = cpu.map_or("null".to_string(), |c| c.to_string());
    format!(
        r#"provenance {{"workload": "{workload}", "seed": {seed}, "seconds": {seconds}, "trace": {trace}, "git_rev": "{}", "rustc": "{}", "profile": "{}", "nproc": {nproc}, "cpu": {cpu}, "utc": "{}", "scheduler": "{:?}"}}"#,
        git_rev(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        utc_now(),
        soff_sim::Scheduler::default()
    )
}
