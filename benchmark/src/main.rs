//! The repository's benchmark: one command that generates seeded
//! inputs, drives one named workload against the real public entry
//! points, checks every answer, and prints every metric by name with
//! its unit. See `README.md` beside this crate for the workloads, the
//! metrics, and which layer metric should move which end-to-end one.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload join_large --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is the result record; the line
//! before it is the detail record (host, constants, spreads,
//! reconciliation). A wrong answer exits with status 1.

mod join;
mod oracle;
mod report;
mod schedule;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;

use report::{detail_json, result_json, Host, Report};

/// The workloads, by name.
pub const WORKLOADS: [&str; 4] = ["join_large", "join_skew", "serve_read", "serve_htap"];

/// End-to-end metrics every untraced run reports (the list in
/// `BENCHMARK.json`). Each is measured on every workload.
pub const E2E_METRICS: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("join_mtuples_s", "Mtuples/s"),
    ("join_p50_ms", "ms"),
    ("goodput_qps", "1/s"),
];

/// Per-layer metrics every traced run reports (the list in
/// `BENCHMARK.json`); a layer a workload does not exercise reads 0 and
/// the detail record says why.
pub const LAYER_METRICS: [(&str, &str); 42] = [
    ("core.partition_ms", "ms"),
    ("core.partition_ns_per_tuple", "ns"),
    ("core.sort_s_ms", "ms"),
    ("core.sort_r_ms", "ms"),
    ("core.sort_ns_per_tuple", "ns"),
    ("core.worker_imbalance", "ratio"),
    ("core.merge_ms", "ms"),
    ("core.merge_ns_per_tuple", "ns"),
    ("core.anytime_coverage.interactive", "ratio"),
    ("core.anytime_coverage.batch", "ratio"),
    ("sched.submit_us", "us"),
    ("sched.queue_wait_ms.p50.interactive", "ms"),
    ("sched.queue_wait_ms.p90.interactive", "ms"),
    ("sched.queue_wait_ms.p50.batch", "ms"),
    ("sched.queue_wait_ms.p90.batch", "ms"),
    ("sched.queue_wait_ms.p50.normal", "ms"),
    ("sched.degraded_share", "ratio"),
    ("sched.completed_by_class.interactive", "count"),
    ("sched.completed_by_class.batch", "count"),
    ("sched.completed_by_class.normal", "count"),
    ("sched.deadline_missed", "count"),
    ("run_cache.hit_ratio", "ratio"),
    ("run_cache.evictions", "count"),
    ("run_cache.resident_mb", "MiB"),
    ("snapshot.delta_tuples", "tuples"),
    ("compaction.folds", "count"),
    ("compaction.rewrite_ratio", "ratio"),
    ("session.write_us", "us"),
    ("exec.execution_ms", "ms"),
    ("protocol.encode_us.query", "us"),
    ("protocol.encode_us.explain", "us"),
    ("protocol.encode_us.write", "us"),
    ("protocol.decode_us.query_result", "us"),
    ("protocol.decode_us.explained", "us"),
    ("protocol.decode_us.written", "us"),
    ("protocol.reply_bytes", "bytes"),
    ("server.front_end_ms", "ms"),
    ("server.degraded", "count"),
    ("server.partial_answers", "count"),
    ("bench.send_lag_ms", "ms"),
    ("bench.backlog_end", "count"),
    ("bench.trace_overhead", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => {
                return Err(format!(
                    "unknown flag {other}; usage: --workload <{}> --seed N --seconds S --trace 0|1",
                    WORKLOADS.join("|")
                ))
            }
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {}", WORKLOADS.join(", ")));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must lie in (0, 600], not {seconds}"));
    }
    Ok(Args { workload, seed: seed.unwrap_or(1), seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let host = Host::probe();
    let mut report = Report::new();
    report.config("seconds", args.seconds);
    let tracer = match args.workload.as_str() {
        "join_large" => {
            join::run(join::JoinKind::Large, args.seed, args.seconds, args.trace, &mut report)
        }
        "join_skew" => {
            join::run(join::JoinKind::Skew, args.seed, args.seconds, args.trace, &mut report)
        }
        "serve_read" => {
            serve::run(serve::ServeKind::Read, args.seed, args.seconds, args.trace, &mut report)
        }
        _ => serve::run(serve::ServeKind::Htap, args.seed, args.seconds, args.trace, &mut report),
    };
    let failed_share = report.failed as f64 / report.attempted.max(1) as f64;
    report.put("failed_share", failed_share, "ratio", report.attempted as usize);

    let declared: &[(&str, &str)] = if args.trace { &LAYER_METRICS } else { &E2E_METRICS };
    for &(name, _) in declared {
        if report.get(name).is_none() && !report.absent.iter().any(|(n, _)| n == name) {
            report.absent(name, "not exercised by this workload");
        }
    }
    if args.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.json", args.workload, args.seed));
        match tracer.write_json(&path) {
            Ok(()) => report.config("trace_file", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
        report.config("spans", tracer.spans().len());
    }

    println!(
        "workload {} seed {} ({} s{})",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" }
    );
    println!(
        "host: {} x {}, L3 {}, {}, commit {}",
        host.nproc, host.cpu, host.l3, host.rustc, host.commit
    );
    for m in &report.metrics {
        let spread = m.spread.map_or(String::new(), |s| {
            format!(", q1 {:.4} / median {:.4} / q3 {:.4}", s.q1, s.median, s.q3)
        });
        println!("  {:<40} {:>14.4} {:<10} (n = {}{spread})", m.name, m.value, m.unit, m.samples);
    }
    for (name, why) in &report.absent {
        println!("  {name:<40} absent: {why}");
    }
    for (name, violations, checked) in &report.reconcile {
        let verdict = if *violations == 0 { "ok" } else { "VIOLATED" };
        println!("  reconcile {name}: {verdict} ({violations} of {checked})");
    }
    for w in &report.wrong {
        println!("  WRONG: {w}");
    }
    println!("{}", detail_json(&args.workload, args.seed, args.trace, &host, &report));
    println!("{}", result_json(&report, declared));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("wrong answers: the run fails");
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_command_line_parses() {
        let a =
            args(&["--workload", "serve_read", "--seed", "7", "--seconds", "10", "--trace", "1"])
                .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_read", 7, 10.0, true)
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "join_skew", "--trace", "2"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "join_skew", "--bogus"]).is_err());
    }

    #[test]
    fn declared_metrics_match_the_benchmark_manifest() {
        let manifest = include_str!("../../BENCHMARK.json");
        let names = |list: &[(&str, &str)]| -> Vec<String> {
            list.iter().map(|(n, u)| format!("\"name\": \"{n}\", \"unit\": \"{u}\"")).collect()
        };
        for entry in names(&E2E_METRICS).iter().chain(names(&LAYER_METRICS).iter()) {
            assert!(manifest.contains(entry.as_str()), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(manifest.contains(&format!("\"name\": \"{w}\"")), "BENCHMARK.json lacks {w}");
        }
        let declared = manifest.matches("\"name\": ").count();
        assert_eq!(declared, WORKLOADS.len() + E2E_METRICS.len() + LAYER_METRICS.len());
    }
}
