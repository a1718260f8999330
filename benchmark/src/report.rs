//! Metrics, the host fingerprint, and the output format.

use std::fmt::Write as _;

use crate::stats::Spread;

/// One measured metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json` or the benchmark's doc.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
    /// Samples behind the value (1 for a single count or ratio).
    pub samples: usize,
    /// Median and quartiles of the per-sample (or per-round) values.
    pub spread: Option<Spread>,
}

/// Everything one invocation measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Every answer was right.
    pub correct: bool,
    /// Operations attempted in the measured window(s).
    pub attempted: u64,
    /// Errors, refusals and transport failures among them.
    pub failed: u64,
    /// Wrong or torn answers, one line each (any entry fails the run).
    pub wrong: Vec<String>,
    /// Metrics in the order they were measured.
    pub metrics: Vec<Metric>,
    /// Metrics this workload cannot measure, with the reason.
    pub absent: Vec<(String, String)>,
    /// Reconciliation checks: name, violations, samples checked.
    pub reconcile: Vec<(String, usize, usize)>,
    /// Workload constants worth recording next to the numbers.
    pub config: Vec<(String, String)>,
}

impl Report {
    /// An empty, so-far-correct report.
    pub fn new() -> Report {
        Report { correct: true, ..Report::default() }
    }

    /// Add a metric with its sample count.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.put_spread(name, value, unit, samples, None);
    }

    /// Add a metric whose per-sample values have a spread.
    pub fn put_spread(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: usize,
        spread: Option<Spread>,
    ) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric { name: name.to_string(), value, unit, samples, spread });
    }

    /// Add the median of a sample, with its quartiles.
    pub fn put_median(&mut self, name: &str, values: &[f64], unit: &'static str) {
        match Spread::of(values) {
            Some(s) => self.put_spread(name, s.median, unit, s.n, Some(s)),
            None => self.absent(name, "no samples"),
        }
    }

    /// Record why a metric is not measured here.
    pub fn absent(&mut self, name: &str, why: &str) {
        self.absent.retain(|(n, _)| n != name);
        self.absent.push((name.to_string(), why.to_string()));
    }

    /// Record a wrong answer (fails the run).
    pub fn wrong(&mut self, what: String) {
        self.correct = false;
        if self.wrong.len() < 20 {
            self.wrong.push(what);
        }
    }

    /// Record a reconciliation check.
    pub fn reconcile(&mut self, name: &str, violations: usize, checked: usize) {
        self.reconcile.push((name.to_string(), violations, checked));
    }

    /// Record a workload constant.
    pub fn config(&mut self, key: &str, value: impl ToString) {
        self.config.push((key.to_string(), value.to_string()));
    }

    /// The named metric, if measured.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Facts about the machine and build that every result carries.
#[derive(Debug, Clone)]
pub struct Host {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// CPU model string.
    pub cpu: String,
    /// Last-level cache size as the kernel reports it.
    pub l3: String,
    /// `rustc --version` of the toolchain on the path.
    pub rustc: String,
    /// Commit of the checkout, when it is a git repository.
    pub commit: String,
}

impl Host {
    /// Probe the host (reads `/proc` and `/sys`, runs `rustc --version`).
    pub fn probe() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let l3 = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string());
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        Host { nproc, cpu, l3, rustc, commit: git_commit() }
    }
}

/// The checkout's commit, read from `.git` without running git (the
/// benchmark may run from an export that has no repository).
fn git_commit() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let head = match std::fs::read_to_string(root.join(".git/HEAD")) {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(root.join(".git").join(reference))
            .map(|c| c.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(root.join(".git/packed-refs")).map(|packed| {
                    packed
                        .lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split(' ').next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head,
    }
}

/// Record the process's resident-set high-water mark as `peak_rss_mb`
/// (MB of 10^6 bytes). Workloads call this right after their measured
/// window, before any further set-up.
pub fn put_peak_rss(report: &mut Report) {
    let kb: Option<f64> = std::fs::read_to_string("/proc/self/status").ok().and_then(|status| {
        status.lines().find(|l| l.starts_with("VmHWM:"))?.split_whitespace().nth(1)?.parse().ok()
    });
    match kb {
        Some(kb) => report.put("peak_rss_mb", kb * 1024.0 / 1e6, "MB", 1),
        None => report.absent("peak_rss_mb", "no VmHWM in /proc/self/status"),
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit the measurement has.
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "non-finite number in output");
    let s = format!("{v:?}");
    s.strip_suffix(".0").map_or(s.clone(), |t| t.to_string())
}

/// The one-line detail record printed before the result line: host,
/// constants, every metric with its spread, absences, reconciliation.
pub fn detail_json(workload: &str, seed: u64, trace: bool, host: &Host, report: &Report) -> String {
    let mut o = String::from("{");
    let _ =
        write!(o, "\"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, ", json_str(workload));
    let _ = write!(
        o,
        "\"host\": {{\"nproc\": {}, \"cpu\": {}, \"l3\": {}, \"rustc\": {}, \"commit\": {}}}, ",
        host.nproc,
        json_str(&host.cpu),
        json_str(&host.l3),
        json_str(&host.rustc),
        json_str(&host.commit)
    );
    let config: Vec<String> =
        report.config.iter().map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))).collect();
    let _ = write!(o, "\"config\": {{{}}}, ", config.join(", "));
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let spread = m.spread.map_or(String::new(), |s| {
                format!(
                    ", \"q1\": {}, \"median\": {}, \"q3\": {}",
                    json_num(s.q1),
                    json_num(s.median),
                    json_num(s.q3)
                )
            });
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}{spread}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit),
                m.samples
            )
        })
        .collect();
    let _ = write!(o, "\"metrics\": {{{}}}, ", metrics.join(", "));
    let absent: Vec<String> =
        report.absent.iter().map(|(n, w)| format!("{}: {}", json_str(n), json_str(w))).collect();
    let _ = write!(o, "\"absent\": {{{}}}, ", absent.join(", "));
    let reconcile: Vec<String> = report
        .reconcile
        .iter()
        .map(|(n, v, c)| format!("{}: {{\"violations\": {v}, \"checked\": {c}}}", json_str(n)))
        .collect();
    let _ = write!(o, "\"reconcile\": {{{}}}, ", reconcile.join(", "));
    let wrong: Vec<String> = report.wrong.iter().map(|w| json_str(w)).collect();
    let _ = write!(o, "\"wrong\": [{}]}}", wrong.join(", "));
    o
}

/// The result line: exactly `correct`, `attempted`, `failed` and the
/// `declared` metrics. A declared metric the workload did not measure
/// is reported as 0 (its reason is in the detail record).
pub fn result_json(report: &Report, declared: &[(&str, &'static str)]) -> String {
    let metrics: Vec<String> = declared
        .iter()
        .map(|&(name, unit)| {
            let value = report.get(name).map_or(0.0, |m| m.value);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_helpers_escape_and_keep_digits() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_num(1.0), "1");
        assert_eq!(json_num(0.123456789012), "0.123456789012");
        assert_eq!(json_num(1e-7), "1e-7");
    }

    #[test]
    fn result_line_lists_exactly_the_declared_metrics() {
        let mut r = Report::new();
        r.attempted = 3;
        r.put("a_ms", 1.5, "ms", 3);
        r.put("extra", 2.0, "count", 1);
        let line = result_json(&r, &[("a_ms", "ms"), ("b_s", "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b_s\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }
}
