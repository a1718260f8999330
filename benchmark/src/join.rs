//! `join_large` and `join_skew`: the paper query through an uncached
//! `Session::query`, one query at a time, P-MPSM at the pool's width.

use std::sync::Arc;
use std::time::Instant;

use mpsm_core::cdf::{equi_height_bounds, Cdf};
use mpsm_core::context::ExecContext;
use mpsm_core::histogram::{combine_histograms, compute_histogram, RadixDomain};
use mpsm_core::merge::merge_join;
use mpsm_core::partition::range_partition_ctx;
use mpsm_core::sink::JoinSink;
use mpsm_core::splitter::compute_splitters;
use mpsm_core::tuple::key_range;
use mpsm_core::worker::{chunk_ranges, OwnedSlots};
use mpsm_core::{JoinConfig, Tuple};
use mpsm_exec::{QueryError, QuerySpec, Relation, SchedulerConfig, Session};

use crate::oracle::{hash_join, JoinAnswer};
use crate::report::{put_peak_rss, Report};
use crate::stats::{median, Spread};
use crate::trace::Tracer;

/// Which join workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Uniform FK, 2^22 ⋈ 2^24: 320 MiB of input, above a 300 MiB L3.
    Large,
    /// Figure 16's negatively correlated 80:20 skew, 2^20 ⋈ 2^22, key
    /// domain |R|/2: cache-resident, duplicate-heavy runs.
    Skew,
}

/// |S| / |R|: the paper's multiplicity.
const MULTIPLICITY: usize = 4;
/// Times the set-up is repeated; `setup_s` is the median.
const SETUPS: usize = 3;
/// Repetitions of the phase-entry timings in a traced run.
const ENTRY_REPS: usize = 3;
/// A phase-entry timing agrees with the query's `JoinStats` when their
/// ratio lies in `[1 / PHASE_TOLERANCE, PHASE_TOLERANCE]`. The two are
/// separate executions on a shared machine, so only a gross mismatch
/// (a phase attributed to the wrong place) counts as a violation.
pub const PHASE_TOLERANCE: f64 = 2.0;
/// The client's round trip may exceed the query's queue wait plus
/// execution by this much (ticket hand-off and thread wake-up) before
/// the parts count as not summing to the round trip.
pub const ROUND_TRIP_SLACK_MS: f64 = 1.0;
/// Rounding slack when comparing the plan's millisecond figures.
pub const ROUNDING_MS: f64 = 0.01;

impl JoinKind {
    fn private_len(self) -> usize {
        match self {
            JoinKind::Large => 1 << 22,
            JoinKind::Skew => 1 << 20,
        }
    }

    fn generate(self, seed: u64) -> mpsm_workload::Workload {
        let r_len = self.private_len();
        match self {
            JoinKind::Large => mpsm_workload::fk::fk_uniform(r_len, MULTIPLICITY, seed),
            JoinKind::Skew => mpsm_workload::skew::skewed_negative_correlation(
                r_len,
                MULTIPLICITY,
                (r_len / 2) as u64,
                seed,
            ),
        }
    }
}

/// Counts joined rows and keeps the paper aggregate.
#[derive(Debug, Default)]
struct CountMax(JoinAnswer);

impl JoinSink for CountMax {
    type Result = JoinAnswer;

    fn on_match(&mut self, private: Tuple, public: Tuple) {
        self.0.rows += 1;
        let v = private.payload.wrapping_add(public.payload);
        self.0.max = Some(self.0.max.map_or(v, |m| m.max(v)));
    }

    fn finish(self) -> JoinAnswer {
        self.0
    }

    fn combine(a: JoinAnswer, b: JoinAnswer) -> JoinAnswer {
        JoinAnswer { max: a.max.max(b.max), rows: a.rows + b.rows }
    }
}

/// Per-query observations of one measured pass.
#[derive(Debug, Default)]
struct Pass {
    latency_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    execution_ms: Vec<f64>,
    phases_ms: [Vec<f64>; 4],
    imbalance: Vec<f64>,
    attempted: u64,
    failed: u64,
    elapsed_s: f64,
    /// Queries whose queue wait + execution exceeded the round trip.
    parts_exceed: usize,
    /// Queries whose parts fell short of the round trip by more than
    /// the slack.
    parts_short: usize,
    /// Queries whose phase sum exceeded their execution time.
    phases_exceed: usize,
}

fn measure(
    session: &Session,
    r: &Arc<Relation>,
    s: &Arc<Relation>,
    oracle: JoinAnswer,
    seconds: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Pass {
    let mut pass = Pass::default();
    let start = Instant::now();
    let mut request = 0u64;
    while pass.attempted == 0 || start.elapsed().as_secs_f64() < seconds {
        request += 1;
        pass.attempted += 1;
        let t0 = Instant::now();
        let (submitted, root) = tracer
            .span("sched.submit", "", None, request, || session.submit(QuerySpec::join(r, s)));
        let outcome = match submitted {
            Ok(ticket) => tracer.span("sched.wait", "", root, request, || ticket.wait()).0,
            Err(err) => Err(mpsm_exec::QueryError::Rejected(err)),
        };
        let rtt_ms = t0.elapsed().as_secs_f64() * 1e3;
        let out = match outcome {
            Ok(out) => out,
            Err(err) => {
                pass.failed += 1;
                eprintln!("query {request} failed: {err}");
                continue;
            }
        };
        let res = &out.result;
        if res.max_payload_sum != oracle.max
            || res.r_selected != r.len()
            || res.s_selected != s.len()
        {
            report.wrong(format!(
                "query {request}: max {:?} over {}x{} rows, oracle {:?} over {}x{}",
                res.max_payload_sum,
                res.r_selected,
                res.s_selected,
                oracle.max,
                r.len(),
                s.len()
            ));
        }
        let queue_ms = out.queue_wait.as_secs_f64() * 1e3;
        let exec_ms = out.execution.as_secs_f64() * 1e3;
        let phases = res.stats.phases_ms();
        pass.latency_ms.push(rtt_ms);
        pass.queue_wait_ms.push(queue_ms);
        pass.execution_ms.push(exec_ms);
        for (p, v) in phases.iter().enumerate() {
            pass.phases_ms[p].push(*v);
        }
        pass.imbalance.push(res.stats.imbalance());
        if queue_ms + exec_ms > rtt_ms + ROUNDING_MS {
            pass.parts_exceed += 1;
        }
        if rtt_ms - (queue_ms + exec_ms) > ROUND_TRIP_SLACK_MS + 0.05 * rtt_ms {
            pass.parts_short += 1;
        }
        if phases.iter().sum::<f64>() > exec_ms + ROUNDING_MS {
            pass.phases_exceed += 1;
        }
    }
    pass.elapsed_s = start.elapsed().as_secs_f64();
    pass
}

/// Time P-MPSM's phases through `mpsm-core`'s public entry points on
/// the query's inputs and pool width; returns per-phase critical-path
/// milliseconds, the scatter's own milliseconds, and the answer.
fn phase_entries(r: &[Tuple], s: &[Tuple], threads: usize) -> ([f64; 4], f64, JoinAnswer) {
    let cx = ExecContext::flat(threads);
    let config = JoinConfig::with_threads(threads);
    let critical_ms =
        |d: Vec<std::time::Duration>| d.into_iter().max().unwrap_or_default().as_secs_f64() * 1e3;

    // Phase 1: copy and sort the public chunks (ExecContext::sort_run).
    let s_ranges = chunk_ranges(s.len(), threads);
    let (s_runs, d1) = cx.pool().run_timed(|w| {
        let mut scope = cx.scope(w);
        let mut run = cx.adopt(w, s[s_ranges[w].clone()].to_vec());
        let home = run.home();
        cx.sort_run(w, &mut run, home, &mut scope);
        run
    });

    // Phase 2: CDF, key range, histograms, splitters, and the scatter
    // (partition::range_partition_ctx).
    let p2 = Instant::now();
    let fan = config.cdf_fan * threads;
    let locals = cx.pool().run(|w| (equi_height_bounds(&s_runs[w], fan), s_runs[w].len()));
    let cdf = Cdf::from_local_bounds(&locals);
    let r_chunks: Vec<&[Tuple]> =
        chunk_ranges(r.len(), threads).into_iter().map(|rng| &r[rng]).collect();
    let (lo, hi) = r_chunks
        .iter()
        .filter_map(|c| key_range(c))
        .fold((u64::MAX, 0), |(lo, hi), (a, b)| (lo.min(a), hi.max(b)));
    let domain = RadixDomain::from_range(lo.min(hi), hi, config.radix_bits);
    let histograms = cx.pool().run(|w| compute_histogram(r_chunks[w], &domain));
    let splitters = compute_splitters(&combine_histograms(&histograms), &domain, &cdf, threads);
    let scatter = Instant::now();
    let partitions = range_partition_ctx(&cx, &r_chunks, &domain, &splitters);
    let scatter_ms = scatter.elapsed().as_secs_f64() * 1e3;
    let phase2_ms = p2.elapsed().as_secs_f64() * 1e3;

    // Phase 3: sort each private partition in place.
    let slots = OwnedSlots::new(partitions);
    let (r_runs, d3) = cx.pool().run_timed(|w| {
        let mut scope = cx.scope(w);
        let mut part = slots.take(w);
        let home = part.home();
        cx.sort_run(w, &mut part, home, &mut scope);
        part
    });

    // Phase 4: merge every private run with every public run from the
    // first private key on (merge::merge_join).
    let (answers, d4) = cx.pool().run_timed(|w| {
        let mut sink = CountMax::default();
        if let Some(first) = r_runs[w].first() {
            for s_run in &s_runs {
                let from = s_run.partition_point(|t| t.key < first.key);
                merge_join(&r_runs[w], &s_run[from..], &mut sink);
            }
        }
        sink.finish()
    });
    let answer = CountMax::combine_all(answers);
    ([critical_ms(d1), phase2_ms, critical_ms(d3), critical_ms(d4)], scatter_ms, answer)
}

/// Run one join workload and fill `report`.
pub fn run(kind: JoinKind, seed: u64, seconds: f64, trace: bool, report: &mut Report) -> Tracer {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.config("pool_threads", threads);
    report.config("r_tuples", kind.private_len());
    report.config("s_tuples", kind.private_len() * MULTIPLICITY);
    if kind == JoinKind::Skew {
        report.config("key_domain", kind.private_len() / 2);
    }

    // Set-up: generate, register, warm up. The measured session is the
    // first; more set-ups are timed after the measurement, so the
    // high-water mark is the measured session's own.
    let (session, r, s, warm, first) = set_up(kind, seed, threads);
    let mut setups = vec![first];

    // The oracle runs outside every timed region.
    let oracle = hash_join(r.tuples(), s.tuples());
    match warm {
        Ok(max) if max == oracle.max => {}
        other => report.wrong(format!("warm-up answer {other:?}, oracle {:?}", oracle.max)),
    }
    report.config("join_rows", oracle.rows);

    let origin = Instant::now();
    let plain = measure(&session, &r, &s, oracle, seconds, &mut Tracer::new(origin, false), report);
    let input_tuples = (r.len() + s.len()) as f64;
    let answers = plain.latency_ms.len() as f64;
    report.attempted += plain.attempted;
    report.failed += plain.failed;
    report.put_median("join_p50_ms", &plain.latency_ms, "ms");
    let throughput = answers * input_tuples / plain.elapsed_s / 1e6;
    report.put("join_mtuples_s", throughput, "Mtuples/s", plain.latency_ms.len());
    report.put("goodput_qps", answers / plain.elapsed_s, "1/s", plain.latency_ms.len());
    put_peak_rss(report);

    let mut tracer = Tracer::new(origin, trace);
    if trace {
        traced(&session, &r, &s, oracle, seconds, threads, &plain, &mut tracer, report);
    }
    drop((session, r, s));
    while setups.len() < SETUPS {
        setups.push(set_up(kind, seed, threads).4);
    }
    report.put_spread("setup_s", median(&setups), "s", setups.len(), Spread::of(&setups));
    tracer
}

type SetUp = (Session, Arc<Relation>, Arc<Relation>, Result<Option<u64>, QueryError>, f64);

/// Generate the inputs, register them with a fresh uncached session, and
/// run one warm-up query; returns the session, the relations, the
/// warm-up answer and the seconds it all took.
fn set_up(kind: JoinKind, seed: u64, threads: usize) -> SetUp {
    let t0 = Instant::now();
    let w = kind.generate(seed);
    let session = Session::uncached(SchedulerConfig::new(threads));
    let r = session.register(Relation::new("R", w.r));
    let s = session.register(Relation::new("S", w.s));
    let warm = session.query(QuerySpec::join(&r, &s)).map(|o| o.result.max_payload_sum);
    let secs = t0.elapsed().as_secs_f64();
    (session, r, s, warm, secs)
}

/// The traced pass, the phase-entry timings, and the layer metrics.
#[allow(clippy::too_many_arguments)]
fn traced(
    session: &Session,
    r: &Arc<Relation>,
    s: &Arc<Relation>,
    oracle: JoinAnswer,
    seconds: f64,
    threads: usize,
    plain: &Pass,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let input_tuples = (r.len() + s.len()) as f64;

    let before = session.scheduler().metrics();
    let traced = measure(session, r, s, oracle, seconds, tracer, report);
    report.attempted += traced.attempted;
    report.failed += traced.failed;
    let overhead = median(&traced.latency_ms) / median(&plain.latency_ms);
    report.put("bench.trace_overhead", overhead, "ratio", traced.latency_ms.len());
    layer_metrics(report, &traced, tracer, r.len() as f64, input_tuples);
    let after = session.scheduler().metrics();
    let submitted = after.submitted - before.submitted;
    let degraded = (after.degraded - before.degraded) as f64;
    report.put(
        "sched.completed_by_class.normal",
        (after.completed - before.completed) as f64,
        "count",
        1,
    );
    report.put("sched.degraded_share", degraded / submitted.max(1) as f64, "ratio", 1);
    report.put(
        "sched.deadline_missed",
        (after.deadline_missed - before.deadline_missed) as f64,
        "count",
        1,
    );
    report.reconcile(
        "join.queue_plus_execution_le_round_trip",
        traced.parts_exceed,
        traced.latency_ms.len(),
    );
    report.reconcile("join.parts_sum_to_round_trip", traced.parts_short, traced.latency_ms.len());
    report.reconcile("join.phase_sum_le_execution", traced.phases_exceed, traced.latency_ms.len());

    // Phase entry points on the same inputs and width, cross-checked
    // against the JoinStats the traced queries published.
    let mut entry = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    let mut scatter = Vec::new();
    for rep in 0..ENTRY_REPS {
        let t0 = Instant::now();
        let (phases, scatter_ms, answer) = phase_entries(r.tuples(), s.tuples(), threads);
        tracer.record("core.phase_entries", "", None, rep as u64, t0, Instant::now());
        if answer != oracle {
            report.wrong(format!("phase entry points joined {answer:?}, oracle {oracle:?}"));
        }
        for (p, v) in phases.iter().enumerate() {
            entry[p].push(*v);
        }
        scatter.push(scatter_ms);
    }
    report.put_median("core.scatter_entry_ms", &scatter, "ms");
    for (p, times) in entry.iter().enumerate() {
        let from_stats = median(&traced.phases_ms[p]);
        let ratio = median(times) / from_stats.max(1e-9);
        let ok = (1.0 / PHASE_TOLERANCE..=PHASE_TOLERANCE).contains(&ratio);
        report.put(&format!("core.phase{}_entry_ratio", p + 1), ratio, "ratio", times.len());
        report.reconcile(&format!("core.phase{}_entry_vs_joinstats", p + 1), usize::from(!ok), 1);
    }
}

fn layer_metrics(report: &mut Report, pass: &Pass, tracer: &Tracer, r_len: f64, tuples: f64) {
    let [p1, p2, p3, p4] = [0, 1, 2, 3].map(|p| median(&pass.phases_ms[p]));
    let n = pass.latency_ms.len();
    report.put_median("core.partition_ms", &pass.phases_ms[1], "ms");
    report.put("core.partition_ns_per_tuple", p2 * 1e6 / r_len, "ns", n);
    report.put_median("core.sort_s_ms", &pass.phases_ms[0], "ms");
    report.put_median("core.sort_r_ms", &pass.phases_ms[2], "ms");
    report.put("core.sort_ns_per_tuple", (p1 + p3) * 1e6 / tuples, "ns", n);
    report.put_median("core.worker_imbalance", &pass.imbalance, "ratio");
    report.put_median("core.merge_ms", &pass.phases_ms[3], "ms");
    report.put("core.merge_ns_per_tuple", p4 * 1e6 / tuples, "ns", n);
    report.put_median("sched.submit_us", &tracer.micros_of("sched.submit", None), "us");
    report.put_median("sched.queue_wait_ms.p50.normal", &pass.queue_wait_ms, "ms");
    report.put_median("exec.execution_ms", &pass.execution_ms, "ms");
    report.put("bench.backlog_end", 0.0, "count", 1);
    for (name, why) in [
        ("core.anytime_coverage.interactive", "no deadline: the plain four-phase path runs"),
        ("core.anytime_coverage.batch", "no deadline: the plain four-phase path runs"),
        ("run_cache.hit_ratio", "uncached session: the run cache is bypassed"),
        ("run_cache.evictions", "uncached session: the run cache is bypassed"),
        ("run_cache.resident_mb", "uncached session: the run cache is bypassed"),
        ("snapshot.delta_tuples", "no writes"),
        ("compaction.folds", "no writes"),
        ("compaction.rewrite_ratio", "no writes"),
        ("session.write_us", "no writes"),
        ("bench.send_lag_ms", "closed loop: queries have no due time"),
    ] {
        report.absent(name, why);
    }
}
