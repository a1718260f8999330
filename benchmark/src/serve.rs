//! `serve_read` and `serve_htap`: the query service in-process over
//! real loopback TCP, driven open loop by one thread per connection.
//!
//! Each connection sends pipelined frames on a seeded schedule and the
//! server answers in FIFO order per connection. Every request is timed
//! from when it was *due*, so a stalled server or a late generator
//! shows up in the latency instead of thinning the load.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mpsm_core::Tuple;
use mpsm_exec::{Relation, RunCache, RunCacheStats, SchedulerConfig, Session};
use mpsm_serve::protocol::{read_frame, write_frame, Frame, MetricsBody, QueryBody};
use mpsm_serve::{Server, ServerHandle};

use crate::oracle::{closed_form_max, closed_form_relation, WritePrefixes};
use crate::report::{put_peak_rss, Report};
use crate::schedule::{query_stream, with_metrics_at, write_stream, Arrival, Kind, Rng};
use crate::stats::{median, min_samples_for, sorted, supported_percentile, Spread};
use crate::trace::Tracer;

/// Which serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    /// Interactive ladder over a constant batch background.
    Read,
    /// One writer beside one interactive reader.
    Htap,
}

impl ServeKind {
    /// Keys per closed-form relation (R and S each); the sorted runs
    /// fit the run cache's default budget. `serve_read` uses 2^18 so
    /// that its top step lies above full-answer capacity. `serve_htap`
    /// uses 2^21 so that a full answer costs about 10 ms: the wake-up
    /// and preemption delays of the threads around the merge (a few
    /// hundred microseconds up to a few milliseconds on a shared host)
    /// are then a small share of its latency.
    fn keys(self) -> u64 {
        match self {
            ServeKind::Read => 1 << 18,
            ServeKind::Htap => 1 << 21,
        }
    }
}

/// `serve_read`: interactive arrivals per second at each ladder step.
/// The top step lies above the service's full-answer capacity.
pub const LADDER: [f64; 4] = [500.0, 1000.0, 1500.0, 2000.0];
/// `serve_read`: batch arrivals per second, constant over the ladder.
pub const BATCH_RATE: f64 = 100.0;
/// `serve_read`: every fourth interactive query carries this deadline
/// (µs). `serve_htap` sends none: on a dirty snapshot a deadline query
/// rebuilds R's runs from scratch and the FIFO reply order holds up the
/// replies behind it, which made the workload's median swing between
/// runs.
pub const DEADLINE_US: u64 = 2_000;
/// How many interactive `serve_read` queries per deadline query.
pub const DEADLINE_EVERY: usize = 4;
/// `slo_qps`: interactive p99 limit a ladder step must meet.
pub const SLO_P99_MS: f64 = 25.0;
/// A step's backlog "grows" when it ends with more requests
/// outstanding than it started with, beyond this many.
pub const BACKLOG_SLACK: usize = 8;
/// `serve_htap`: writes per second and tuples per write.
pub const WRITE_RATE: f64 = 200.0;
/// Tuples per write batch.
pub const WRITE_BATCH: usize = 16;
/// `serve_htap`: interactive queries per second (about a fifth of the
/// two pool threads' time at 2^21 keys, so queries rarely queue).
pub const HTAP_QUERY_RATE: f64 = 20.0;
/// Traced runs send every this-many-th query as an `Explain` frame
/// (coprime with the deadline period, so the sample spans the mix).
pub const EXPLAIN_EVERY: usize = 7;
/// Times the set-up is repeated; `setup_s` is the median.
const SETUPS: usize = 3;
/// Warm-up queries per connection before the measured window.
const WARMUP_QUERIES: usize = 40;
/// How long replies may still arrive after the last due time.
const DRAIN: Duration = Duration::from_secs(20);
/// Idle poll interval of a connection thread.
const POLL: Duration = Duration::from_micros(100);
/// Rounding slack of the plan's millisecond figures (three decimals,
/// up to six numbers summed).
pub const ROUNDING_MS: f64 = 0.01;

/// What came back for one request.
#[derive(Debug, Clone)]
enum Reply {
    Answer { max: Option<u64>, r_selected: u64, s_selected: u64, complete: bool, coverage: f64 },
    Explained(String),
    Written,
    Metrics(MetricsBody),
    Error,
}

/// One sent request and its fate.
#[derive(Debug, Clone)]
struct Record {
    arrival: Arrival,
    sent_us: u64,
    recv_us: Option<u64>,
    reply: Option<Reply>,
    reply_bytes: usize,
    /// Write batches acknowledged when the request was sent.
    acked_before_send: usize,
    /// Write batches sent when the reply arrived.
    sent_before_reply: usize,
}

impl Record {
    fn latency_ms(&self) -> Option<f64> {
        self.recv_us.map(|r| r.saturating_sub(self.arrival.due_us) as f64 / 1e3)
    }

    fn round_trip_ms(&self) -> Option<f64> {
        self.recv_us.map(|r| r.saturating_sub(self.sent_us) as f64 / 1e3)
    }

    fn priority(&self) -> Option<u8> {
        match self.arrival.kind {
            Kind::Query { priority, .. } => Some(priority),
            _ => None,
        }
    }

    /// Coverage of an answered query: the reply's, or the `Anytime`
    /// row's for an explained one (a plan without it ran to the end).
    fn coverage(&self) -> Option<f64> {
        match self.reply.as_ref()? {
            Reply::Answer { coverage, .. } => Some(*coverage),
            Reply::Explained(text) => {
                Some(explain_field(text, "Anytime [coverage=", "%").map_or(1.0, |pct| pct / 100.0))
            }
            _ => None,
        }
    }
}

/// Counters the HTAP connections share to bracket each answer.
#[derive(Debug, Default)]
struct WriteClock {
    sent: AtomicUsize,
    acked: AtomicUsize,
}

/// One connection's run: its records, the generator's lateness, and
/// whether the transport failed.
struct ConnRun {
    records: Vec<Record>,
    send_lag_ms: Vec<f64>,
    transport_error: Option<String>,
    tracer: Tracer,
}

fn frame_name(frame: &Frame) -> &'static str {
    match frame {
        Frame::Query(_) => "query",
        Frame::Explain(_) => "explain",
        Frame::Write { .. } => "write",
        Frame::Metrics => "metrics",
        Frame::QueryResult(_) => "query_result",
        Frame::Explained { .. } => "explained",
        Frame::Written { .. } => "written",
        Frame::MetricsReport(_) => "metrics_report",
        Frame::Error { .. } => "error",
        _ => "other",
    }
}

/// Drive one connection through `plan`, open loop, from `epoch`.
#[allow(clippy::too_many_arguments)]
fn drive(
    mut stream: TcpStream,
    conn_id: u64,
    plan: &[Arrival],
    batches: &[Vec<(u64, u64)>],
    clock: &WriteClock,
    epoch: Instant,
    explain: bool,
    tracer: Tracer,
) -> ConnRun {
    let mut run =
        ConnRun { records: Vec::new(), send_lag_ms: Vec::new(), transport_error: None, tracer };
    if let Err(e) = stream.set_nonblocking(true) {
        run.transport_error = Some(e.to_string());
        return run;
    }
    let now_us = || epoch.elapsed().as_micros() as u64;
    let last_due = plan.last().map_or(0, |a| a.due_us);
    let give_up_us = last_due + DRAIN.as_micros() as u64;
    let (mut wbuf, mut wat) = (Vec::<u8>::new(), 0usize);
    let mut rbuf = Vec::<u8>::new();
    let mut chunk = vec![0u8; 64 << 10];
    let mut inflight = VecDeque::<usize>::new();
    let mut next = 0usize;
    let mut queries = 0usize;
    while epoch > Instant::now() {
        std::thread::sleep(POLL);
    }
    'run: loop {
        let mut progress = false;
        let now = now_us();
        while next < plan.len() && plan[next].due_us <= now {
            let arrival = &plan[next];
            let request = (conn_id << 32) | next as u64;
            let mut acked_before_send = 0;
            let frame = match arrival.kind {
                Kind::Query { priority, deadline_us } => {
                    acked_before_send = clock.acked.load(Ordering::SeqCst);
                    let body = QueryBody {
                        r: "R".to_string(),
                        s: "S".to_string(),
                        deadline_micros: deadline_us,
                        priority,
                        rows_cap: 0,
                    };
                    queries += 1;
                    if explain && queries.is_multiple_of(EXPLAIN_EVERY) {
                        Frame::Explain(body)
                    } else {
                        Frame::Query(body)
                    }
                }
                Kind::Write { batch } => {
                    clock.sent.fetch_add(1, Ordering::SeqCst);
                    Frame::Write { name: "R".to_string(), tuples: batches[batch].clone() }
                }
                Kind::Metrics => Frame::Metrics,
            };
            let (body, _) =
                run.tracer
                    .span("protocol.encode", frame_name(&frame), None, request, || frame.encode());
            wbuf.extend_from_slice(&(body.len() as u32).to_le_bytes());
            wbuf.extend_from_slice(&body);
            run.send_lag_ms.push(now.saturating_sub(arrival.due_us) as f64 / 1e3);
            run.records.push(Record {
                arrival: arrival.clone(),
                sent_us: now,
                recv_us: None,
                reply: None,
                reply_bytes: 0,
                acked_before_send,
                sent_before_reply: 0,
            });
            inflight.push_back(run.records.len() - 1);
            next += 1;
            progress = true;
        }
        while wat < wbuf.len() {
            match stream.write(&wbuf[wat..]) {
                Ok(0) => {
                    run.transport_error = Some("server stopped reading".to_string());
                    break 'run;
                }
                Ok(n) => {
                    wat += n;
                    progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    run.transport_error = Some(e.to_string());
                    break 'run;
                }
            }
        }
        if wat == wbuf.len() {
            wbuf.clear();
            wat = 0;
        }
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => {
                    run.transport_error = Some("server closed the connection".to_string());
                    break 'run;
                }
                Ok(n) => {
                    rbuf.extend_from_slice(&chunk[..n]);
                    progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    run.transport_error = Some(e.to_string());
                    break 'run;
                }
            }
        }
        let recv = now_us();
        let mut at = 0;
        while rbuf.len() - at >= 4 {
            let len = u32::from_le_bytes(rbuf[at..at + 4].try_into().expect("4 bytes")) as usize;
            if rbuf.len() - at - 4 < len {
                break;
            }
            let body = &rbuf[at + 4..at + 4 + len];
            at += 4 + len;
            let Some(idx) = inflight.pop_front() else {
                run.transport_error = Some("reply without a request".to_string());
                break 'run;
            };
            let request = (conn_id << 32) | idx as u64;
            let t0 = Instant::now();
            let decoded = Frame::decode(body);
            let detail = decoded.as_ref().map_or("malformed", frame_name);
            run.tracer.record("protocol.decode", detail, None, request, t0, Instant::now());
            let reply = match decoded {
                Ok(Frame::QueryResult(r)) => Reply::Answer {
                    max: r.max_payload_sum,
                    r_selected: r.r_selected,
                    s_selected: r.s_selected,
                    complete: r.complete,
                    coverage: r.coverage,
                },
                Ok(Frame::Explained { text }) => Reply::Explained(text),
                Ok(Frame::Written { .. }) => {
                    clock.acked.fetch_add(1, Ordering::SeqCst);
                    Reply::Written
                }
                Ok(Frame::MetricsReport(m)) => Reply::Metrics(m),
                Ok(Frame::Error { code, message }) => {
                    eprintln!("request {request}: server error {code}: {message}");
                    Reply::Error
                }
                Ok(other) => {
                    run.transport_error = Some(format!("unexpected reply {other:?}"));
                    break 'run;
                }
                Err(e) => {
                    run.transport_error = Some(format!("undecodable reply: {e}"));
                    break 'run;
                }
            };
            let record = &mut run.records[idx];
            record.recv_us = Some(recv);
            record.reply = Some(reply);
            record.reply_bytes = len;
            record.sent_before_reply = clock.sent.load(Ordering::SeqCst);
        }
        rbuf.drain(..at);
        if next == plan.len() && inflight.is_empty() {
            break;
        }
        if now_us() > give_up_us {
            break;
        }
        if !progress {
            let until_due = plan
                .get(next)
                .map_or(POLL.as_micros() as u64, |a| a.due_us.saturating_sub(now_us()));
            std::thread::sleep(POLL.min(Duration::from_micros(until_due.max(1))));
        }
    }
    // Requests never sent still count as attempted (and lost).
    for arrival in &plan[next..] {
        run.records.push(Record {
            arrival: arrival.clone(),
            sent_us: u64::MAX,
            recv_us: None,
            reply: None,
            reply_bytes: 0,
            acked_before_send: 0,
            sent_before_reply: 0,
        });
    }
    run
}

/// A number in an EXPLAIN row: the text between `prefix` and `suffix`.
fn explain_field(text: &str, prefix: &str, suffix: &str) -> Option<f64> {
    let start = text.find(prefix)? + prefix.len();
    let end = start + text[start..].find(suffix)?;
    text[start..end].trim().parse().ok()
}

/// Queue wait and, when the query executed, the four phase times of
/// an explained plan.
fn explain_timings(text: &str) -> Option<(f64, Option<[f64; 4]>)> {
    let queue = explain_field(text, "Queue [wait = ", " ms")?;
    let phases = || {
        let start = text.find("Phases [1: ")? + "Phases [".len();
        let row = &text[start..start + text[start..].find(']')?];
        let mut phases = [0.0; 4];
        for (i, part) in row.split(", ").enumerate().take(4) {
            let value = part.split_once(": ")?.1.trim_end_matches(" ms");
            phases[i] = value.parse().ok()?;
        }
        Some(phases)
    };
    Some((queue, phases()))
}

/// `(base version, delta tuples, base rows)` of R in an explained plan.
fn explain_snapshot(text: &str) -> Option<(u64, u64, u64)> {
    let row = &text[text.find("Snapshot [R: ")?..];
    let version = explain_field(row, "base=v", ",")? as u64;
    let delta = explain_field(row, "delta=", " tuples]")? as u64;
    let rows = explain_field(text, "Scan R [", " rows]")? as u64;
    Some((version, delta, rows))
}

/// A running in-process server with its two client connections.
struct Service {
    handle: ServerHandle,
    cache: Option<Arc<RunCache>>,
    conns: [TcpStream; 2],
}

fn exchange(stream: &mut TcpStream, frame: &Frame) -> io::Result<Frame> {
    write_frame(stream, frame)?;
    match read_frame(stream)? {
        Some(Ok(frame)) => Ok(frame),
        Some(Err(e)) => Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
        None => Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed")),
    }
}

/// Start a server, connect, register R and S, and warm both
/// connections up with the queries they will send.
fn start(kind: ServeKind, seed: u64, threads: usize, priorities: [u8; 2]) -> io::Result<Service> {
    let keys = kind.keys();
    let session = Session::new(SchedulerConfig::new(threads));
    let cache = session.run_cache().cloned();
    let handle = Server::bind("127.0.0.1:0", session)?.spawn()?;
    let connect = || -> io::Result<TcpStream> {
        let s = TcpStream::connect(handle.addr())?;
        s.set_nodelay(true)?;
        Ok(s)
    };
    let mut conns = [connect()?, connect()?];
    let mut order = Rng::new(seed, 10);
    for name in ["R", "S"] {
        let tuples = closed_form_relation(keys, &mut order);
        match exchange(&mut conns[0], &Frame::Register { name: name.to_string(), tuples })? {
            Frame::Registered { .. } => {}
            other => return Err(io::Error::other(format!("register {name}: {other:?}"))),
        }
    }
    for (conn, priority) in conns.iter_mut().zip(priorities) {
        for _ in 0..WARMUP_QUERIES {
            let body = QueryBody {
                r: "R".to_string(),
                s: "S".to_string(),
                deadline_micros: 0,
                priority,
                rows_cap: 0,
            };
            match exchange(conn, &Frame::Query(body))? {
                Frame::QueryResult(r) if r.max_payload_sum == Some(closed_form_max(keys)) => {}
                other => return Err(io::Error::other(format!("warm-up answer {other:?}"))),
            }
        }
    }
    Ok(Service { handle, cache, conns })
}

/// [`start`], timed.
fn timed_start(kind: ServeKind, seed: u64, threads: usize, priorities: [u8; 2]) -> (Service, f64) {
    let t0 = Instant::now();
    let service = start(kind, seed, threads, priorities).expect("serve set-up failed");
    (service, t0.elapsed().as_secs_f64())
}

fn stop(service: Service) {
    let Service { handle, conns, .. } = service;
    drop(conns);
    handle.shutdown();
}

/// One plan per connection, plus the write batches `Write` arrivals
/// name.
type Plans = ([Vec<Arrival>; 2], Vec<Vec<(u64, u64)>>);

/// The measured window's plans.
fn plans(kind: ServeKind, seed: u64, seconds: f64) -> Plans {
    let window_us = (seconds * 1e6) as u64;
    match kind {
        ServeKind::Read => {
            let step_us = window_us / LADDER.len() as u64;
            let interactive = query_stream(
                &mut Rng::new(seed, 1),
                &LADDER,
                step_us,
                2,
                (DEADLINE_US, DEADLINE_EVERY),
            );
            let boundaries: Vec<(u64, usize)> =
                (0..=LADDER.len()).map(|k| (k as u64 * step_us, k.min(LADDER.len() - 1))).collect();
            let interactive = with_metrics_at(interactive, &boundaries);
            let batch_rates = [BATCH_RATE; LADDER.len()];
            let batch = query_stream(&mut Rng::new(seed, 2), &batch_rates, step_us, 0, (0, 1));
            ([interactive, batch], Vec::new())
        }
        ServeKind::Htap => {
            let reader =
                query_stream(&mut Rng::new(seed, 3), &[HTAP_QUERY_RATE], window_us, 2, (0, 1));
            let reader = with_metrics_at(reader, &[(0, 0), (window_us, 0)]);
            let writes = write_stream(&mut Rng::new(seed, 4), WRITE_RATE, window_us);
            let n = kind.keys();
            let mut draw = Rng::new(seed, 5);
            let batches = (0..writes.len())
                .map(|i| (0..WRITE_BATCH).map(|_| (draw.below(n), 2 * n + i as u64)).collect())
                .collect();
            ([reader, writes], batches)
        }
    }
}

/// One measured window: both connections driven concurrently.
struct Window {
    records: [Vec<Record>; 2],
    /// From the window's start to its last reply, in seconds: the time
    /// the service actually took to answer the window's requests.
    span_s: f64,
    send_lag_ms: Vec<f64>,
    transport_errors: Vec<String>,
    cache_before: RunCacheStats,
    cache_after: RunCacheStats,
    tracer: Tracer,
}

fn window(
    service: &Service,
    plans: &[Vec<Arrival>; 2],
    batches: &[Vec<(u64, u64)>],
    explain: bool,
    origin: Instant,
) -> Window {
    let clock = WriteClock::default();
    let cache_stats = || service.cache.as_ref().map(|c| c.stats()).unwrap_or_default();
    let cache_before = cache_stats();
    let epoch = Instant::now() + Duration::from_millis(5);
    let runs: Vec<ConnRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let stream = service.conns[i].try_clone().expect("clone connection");
                let (plan, clock) = (&plans[i], &clock);
                let tracer = Tracer::new(origin, explain);
                scope.spawn(move || {
                    drive(stream, i as u64, plan, batches, clock, epoch, explain, tracer)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("connection thread panicked")).collect()
    });
    let cache_after = cache_stats();
    let mut tracer = Tracer::new(origin, explain);
    let mut send_lag_ms = Vec::new();
    let mut transport_errors = Vec::new();
    let mut records: [Vec<Record>; 2] = [Vec::new(), Vec::new()];
    for (i, run) in runs.into_iter().enumerate() {
        tracer.absorb(run.tracer);
        send_lag_ms.extend(run.send_lag_ms);
        transport_errors.extend(run.transport_error);
        records[i] = run.records;
    }
    let last_us = records.iter().flatten().filter_map(|r| r.recv_us).max().unwrap_or(0);
    let span_s = last_us as f64 / 1e6;
    Window { records, span_s, send_lag_ms, transport_errors, cache_before, cache_after, tracer }
}

/// Check every reply; count attempts and failures.
fn check(kind: ServeKind, w: &Window, prefixes: Option<&WritePrefixes>, report: &mut Report) {
    let keys = kind.keys();
    let full = closed_form_max(keys);
    for record in w.records.iter().flatten() {
        if record.arrival.kind == Kind::Metrics {
            continue;
        }
        report.attempted += 1;
        let Some(reply) = &record.reply else {
            report.failed += 1;
            continue;
        };
        let Reply::Answer { max, r_selected, s_selected, complete, .. } = *reply else {
            if let Reply::Error = reply {
                report.failed += 1;
            }
            continue;
        };
        // A query whose deadline passed before its inputs were resolved
        // returns the empty prefix: nothing selected, nothing joined.
        let empty_prefix = !complete && r_selected == 0 && s_selected == 0;
        let verdict = match (kind, prefixes) {
            _ if empty_prefix => {
                max.is_none().then_some(()).ok_or(format!("empty prefix with max {max:?}"))
            }
            (ServeKind::Htap, Some(p)) => p
                .check(
                    record.acked_before_send,
                    record.sent_before_reply,
                    r_selected,
                    max,
                    complete,
                )
                .map(|_| ())
                .and_then(|()| {
                    (s_selected == keys).then_some(()).ok_or(format!("s_selected {s_selected}"))
                }),
            _ => {
                let max_ok =
                    if complete { max == Some(full) } else { max.is_none_or(|m| m <= full) };
                if max_ok && r_selected == keys && s_selected == keys {
                    Ok(())
                } else {
                    Err(format!(
                        "{} answer {max:?} over {r_selected}x{s_selected}, closed form {full}",
                        if complete { "complete" } else { "partial" }
                    ))
                }
            }
        };
        if let Err(why) = verdict {
            report.wrong(format!("request due at {} us: {why}", record.arrival.due_us));
        }
    }
    for e in &w.transport_errors {
        eprintln!("transport failure: {e}");
    }
}

/// Requests sent by `t` (µs) and not yet answered at `t`.
fn outstanding_at(records: &[&Record], t: u64) -> usize {
    records.iter().filter(|r| r.sent_us <= t && r.recv_us.is_none_or(|x| x > t)).count()
}

fn latencies<'a>(records: impl Iterator<Item = &'a Record>) -> Vec<f64> {
    sorted(records.filter_map(Record::latency_ms).collect())
}

/// Latency under the ≥10-beyond rule: the median always, p99 when the
/// sample supports it, else the highest of p95 and p90 it supports
/// (under that percentile's own name).
fn put_latency(report: &mut Report, prefix: &str, lat: &[f64]) {
    report.put_median(&format!("{prefix}_p50_ms"), lat, "ms");
    if let Some(v) = supported_percentile(lat, 99.0) {
        report.put(&format!("{prefix}_p99_ms"), v, "ms", lat.len());
        return;
    }
    report.absent(
        &format!("{prefix}_p99_ms"),
        &format!("{} samples: p99 needs {}", lat.len(), min_samples_for(99.0)),
    );
    for p in [95.0, 90.0] {
        if let Some(v) = supported_percentile(lat, p) {
            report.put(&format!("{prefix}_p{p}_ms"), v, "ms", lat.len());
            return;
        }
    }
}

/// Σ coverage of answered queries (checked answers only ever reach
/// here: a wrong one already failed the run).
fn coverage_sum<'a>(records: impl Iterator<Item = &'a Record>) -> (f64, usize, usize) {
    let (mut sum, mut answers, mut partial) = (0.0, 0, 0);
    for c in records.filter_map(Record::coverage) {
        sum += c;
        answers += 1;
        partial += usize::from(c < 1.0);
    }
    (sum, answers, partial)
}

fn metrics_snapshots(records: &[Record]) -> Vec<MetricsBody> {
    records
        .iter()
        .filter_map(|r| match r.reply {
            Some(Reply::Metrics(m)) => Some(m),
            _ => None,
        })
        .collect()
}

/// End-to-end metrics of `serve_read`: the ladder, then the top step.
fn read_metrics(w: &Window, seconds: f64, report: &mut Report) {
    let step_us = (seconds * 1e6) as u64 / LADDER.len() as u64;
    let all: Vec<&Record> = w.records.iter().flatten().filter(|r| r.priority().is_some()).collect();
    let in_step = |r: &&Record, k: usize| r.arrival.step == k;
    let mut slo = 0.0;
    for (k, rate) in LADDER.iter().enumerate() {
        let lat =
            latencies(all.iter().copied().filter(|r| in_step(r, k) && r.priority() == Some(2)));
        let p99 = supported_percentile(&lat, 99.0);
        let growth = outstanding_at(&all, (k as u64 + 1) * step_us)
            .saturating_sub(outstanding_at(&all, k as u64 * step_us));
        report.put(&format!("ladder.{k}.offered_qps"), *rate, "1/s", 1);
        report.put_median(&format!("ladder.{k}.interactive_p50_ms"), &lat, "ms");
        if let Some(p) = p99 {
            report.put(&format!("ladder.{k}.interactive_p99_ms"), p, "ms", lat.len());
        }
        report.put(&format!("ladder.{k}.backlog_growth"), growth as f64, "count", 1);
        let (sum, answers, partial) = coverage_sum(all.iter().copied().filter(|r| in_step(r, k)));
        let step_s = step_us as f64 / 1e6;
        report.put(&format!("ladder.{k}.goodput_qps"), sum / step_s, "1/s", answers);
        report.put(
            &format!("ladder.{k}.partial_share"),
            partial as f64 / answers.max(1) as f64,
            "ratio",
            answers,
        );
        if p99.is_some_and(|p| p <= SLO_P99_MS) && growth <= BACKLOG_SLACK {
            slo = *rate;
        }
    }
    report.put("slo_qps", slo, "1/s", LADDER.len());

    // Gated metrics: goodput over the whole ladder, latency at the base
    // step (below capacity). The overloaded steps are bistable — whole
    // runs settle in a high- or a low-coverage regime — so their
    // figures are reported but not gated.
    let (sum, answers, _) = coverage_sum(all.iter().copied());
    report.put("goodput_qps", sum / w.span_s, "1/s", answers);
    let tuples = 2.0 * ServeKind::Read.keys() as f64;
    report.put("join_mtuples_s", sum * tuples / w.span_s / 1e6, "Mtuples/s", answers);
    let base = latencies(all.iter().copied().filter(|r| in_step(r, 0)));
    report.put_median("join_p50_ms", &base, "ms");

    let top = LADDER.len() - 1;
    let top_records: Vec<&Record> = all.iter().copied().filter(|r| in_step(r, top)).collect();
    let class = |p: u8| top_records.iter().copied().filter(move |r| r.priority() == Some(p));
    put_latency(report, "interactive", &latencies(class(2)));
    put_latency(report, "batch", &latencies(class(0)));
    let step_s = step_us as f64 / 1e6;
    let (sum, answers, partial) = coverage_sum(top_records.iter().copied());
    report.put("partial_share", partial as f64 / answers.max(1) as f64, "ratio", answers);
    report.put("top_step.goodput_qps", sum / step_s, "1/s", answers);
    report.put_median("top_step.join_p50_ms", &latencies(top_records.iter().copied()), "ms");
    report.put("top_step.offered_qps", LADDER[top] + BATCH_RATE, "1/s", 1);
    report.put(
        "top_step.answered.interactive",
        class(2).filter(|r| r.reply.is_some()).count() as f64,
        "count",
        1,
    );
    report.put(
        "top_step.answered.batch",
        class(0).filter(|r| r.reply.is_some()).count() as f64,
        "count",
        1,
    );
}

/// End-to-end metrics of `serve_htap`: the reader and the writer.
fn htap_metrics(w: &Window, report: &mut Report) {
    let reads: Vec<&Record> = w.records[0].iter().filter(|r| r.priority().is_some()).collect();
    let writes: Vec<&Record> = w.records[1].iter().collect();
    put_latency(report, "interactive", &latencies(reads.iter().copied()));
    put_latency(report, "write", &latencies(writes.iter().copied()));
    report.put_median("join_p50_ms", &latencies(reads.iter().copied()), "ms");
    let (sum, answers, partial) = coverage_sum(reads.iter().copied());
    report.put("goodput_qps", sum / w.span_s, "1/s", answers);
    let joined: f64 = reads
        .iter()
        .filter_map(|r| match r.reply {
            Some(Reply::Answer { r_selected, s_selected, coverage, .. }) => {
                Some(coverage * (r_selected + s_selected) as f64)
            }
            _ => r.coverage().map(|c| c * 2.0 * ServeKind::Htap.keys() as f64),
        })
        .sum();
    report.put("join_mtuples_s", joined / w.span_s / 1e6, "Mtuples/s", answers);
    report.put("partial_share", partial as f64 / answers.max(1) as f64, "ratio", answers);
    report.put(
        "writes.acked",
        writes.iter().filter(|r| r.reply.is_some()).count() as f64,
        "count",
        1,
    );
}

/// Per-layer metrics of a traced window.
fn layer_metrics(kind: ServeKind, w: &Window, seconds: f64, report: &mut Report) {
    let queries: Vec<&Record> =
        w.records.iter().flatten().filter(|r| r.priority().is_some()).collect();
    let window_end_us = (seconds * 1e6) as u64;

    // Explained samples: queue wait, phases, front end, snapshots.
    let mut queue = [Vec::new(), Vec::new()];
    let mut phases = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    let mut front_end = Vec::new();
    let mut exceed = 0;
    let mut checked = 0;
    let mut deltas = Vec::new();
    let mut versions = std::collections::BTreeMap::new();
    for r in &queries {
        let (Some(Reply::Explained(text)), Some(rtt)) = (&r.reply, r.round_trip_ms()) else {
            continue;
        };
        if let Some((v, delta, rows)) = explain_snapshot(text) {
            deltas.push(delta as f64);
            versions.insert(v, rows);
        }
        let Some((q, p)) = explain_timings(text) else { continue };
        checked += 1;
        queue[usize::from(r.priority() == Some(2))].push(q);
        // A query whose deadline passed in the queue never executed:
        // its plan has no Phases row and adds no phase samples.
        if let Some(p) = p {
            for (i, v) in p.iter().enumerate() {
                phases[i].push(*v);
            }
        }
        let parts = q + p.map_or(0.0, |p| p.iter().sum::<f64>());
        if parts > rtt + ROUNDING_MS {
            exceed += 1;
        }
        front_end.push((rtt - parts).max(0.0));
    }
    report.reconcile("serve.queue_plus_phases_le_round_trip", exceed, checked);
    report.put_median("server.front_end_ms", &front_end, "ms");
    let tuples = 2.0 * kind.keys() as f64;
    let [p1, p2, p3, p4] = [0, 1, 2, 3].map(|i| median(&phases[i]));
    report.put_median("core.sort_s_ms", &phases[0], "ms");
    report.put_median("core.partition_ms", &phases[1], "ms");
    report.put_median("core.sort_r_ms", &phases[2], "ms");
    report.put_median("core.merge_ms", &phases[3], "ms");
    report.put("core.partition_ns_per_tuple", p2 * 2e6 / tuples, "ns", phases[1].len());
    report.put("core.sort_ns_per_tuple", (p1 + p3) * 1e6 / tuples, "ns", phases[0].len());
    report.put("core.merge_ns_per_tuple", p4 * 1e6 / tuples, "ns", phases[3].len());
    for (class, name) in [(1, "interactive"), (0, "batch")] {
        let q = sorted(queue[class].clone());
        if q.is_empty() {
            report.absent(&format!("sched.queue_wait_ms.p50.{name}"), "no explained samples");
            continue;
        }
        report.put_median(&format!("sched.queue_wait_ms.p50.{name}"), &q, "ms");
        match supported_percentile(&q, 90.0) {
            Some(v) => report.put(&format!("sched.queue_wait_ms.p90.{name}"), v, "ms", q.len()),
            None => report.absent(
                &format!("sched.queue_wait_ms.p90.{name}"),
                &format!("{} explained samples: p90 needs 100", q.len()),
            ),
        }
    }

    // Client-side class accounting and coverage.
    for (p, name) in [(2u8, "interactive"), (0, "batch")] {
        let class: Vec<&Record> =
            queries.iter().copied().filter(|r| r.priority() == Some(p)).collect();
        if class.is_empty() {
            report.absent(&format!("core.anytime_coverage.{name}"), "no queries of this class");
            continue;
        }
        let (sum, answers, _) = coverage_sum(class.iter().copied());
        report.put(
            &format!("core.anytime_coverage.{name}"),
            sum / answers.max(1) as f64,
            "ratio",
            answers,
        );
        report.put(&format!("sched.completed_by_class.{name}"), answers as f64, "count", 1);
    }

    // Counters the server publishes (Metrics-frame deltas).
    let snaps = metrics_snapshots(&w.records[0]);
    if let (Some(first), Some(last)) = (snaps.first(), snaps.last()) {
        let submitted = last.submitted - first.submitted;
        let degraded = last.degraded - first.degraded;
        report.put("sched.degraded_share", degraded as f64 / submitted.max(1) as f64, "ratio", 1);
        report.put(
            "sched.deadline_missed",
            (last.deadline_missed - first.deadline_missed) as f64,
            "count",
            1,
        );
        report.put("server.degraded", degraded as f64, "count", 1);
        report.put(
            "server.partial_answers",
            (last.partial_answers - first.partial_answers) as f64,
            "count",
            1,
        );
    }

    // Run cache (the session's own stats, read in-process).
    let (b, a) = (&w.cache_before, &w.cache_after);
    let lookups = (a.hits - b.hits) + (a.misses - b.misses);
    report.put(
        "run_cache.hit_ratio",
        (a.hits - b.hits) as f64 / lookups.max(1) as f64,
        "ratio",
        lookups as usize,
    );
    report.put("run_cache.evictions", (a.evictions - b.evictions) as f64, "count", 1);
    report.put("run_cache.resident_mb", a.bytes as f64 / (1 << 20) as f64, "MiB", 1);

    // Protocol spans.
    for (name, detail) in [
        ("protocol.encode_us.query", "query"),
        ("protocol.encode_us.explain", "explain"),
        ("protocol.encode_us.write", "write"),
        ("protocol.decode_us.query_result", "query_result"),
        ("protocol.decode_us.explained", "explained"),
        ("protocol.decode_us.written", "written"),
    ] {
        let span =
            if name.starts_with("protocol.encode") { "protocol.encode" } else { "protocol.decode" };
        let us = w.tracer.micros_of(span, Some(detail));
        if us.is_empty() {
            report.absent(name, "no frames of this type");
        } else {
            report.put_median(name, &us, "us");
        }
    }
    let bytes: Vec<f64> = queries
        .iter()
        .filter(|r| matches!(r.reply, Some(Reply::Answer { .. })))
        .map(|r| r.reply_bytes as f64)
        .collect();
    report.put(
        "protocol.reply_bytes",
        bytes.iter().sum::<f64>() / bytes.len().max(1) as f64,
        "bytes",
        bytes.len(),
    );

    // The generator's own validity.
    let lag = sorted(w.send_lag_ms.clone());
    let lag_p99 = supported_percentile(&lag, 99.0).or(lag.last().copied()).unwrap_or(0.0);
    report.put("bench.send_lag_ms", lag_p99, "ms", lag.len());
    let all: Vec<&Record> = w.records.iter().flatten().collect();
    report.put("bench.backlog_end", outstanding_at(&all, window_end_us) as f64, "count", 1);

    if kind == ServeKind::Htap {
        report.put_median("snapshot.delta_tuples", &deltas, "tuples");
        let first = versions.keys().next().copied().unwrap_or(1);
        let last = versions.keys().next_back().copied().unwrap_or(1);
        let folds = last - first;
        report.put("compaction.folds", folds as f64, "count", versions.len());
        // Each fold rewrites the whole relation; sizes come from the
        // versions the explained samples saw, scaled to every fold.
        let seen: Vec<u64> =
            versions.iter().filter(|(v, _)| **v > first).map(|(_, r)| *r).collect();
        let rewritten = if seen.is_empty() {
            0.0
        } else {
            seen.iter().sum::<u64>() as f64 * folds as f64 / seen.len() as f64
        };
        let written =
            (WRITE_BATCH * w.records[1].iter().filter(|r| r.reply.is_some()).count()) as f64;
        report.put("compaction.rewrite_ratio", rewritten / written.max(1.0), "ratio", seen.len());
    } else {
        for name in ["snapshot.delta_tuples", "compaction.folds", "compaction.rewrite_ratio"] {
            report.absent(name, "no writes");
        }
    }
    for (name, why) in [
        ("sched.submit_us", "the server calls Session::submit; no wire-visible boundary"),
        ("exec.execution_ms", "QueryOutput.execution does not travel on the wire"),
        ("core.worker_imbalance", "JoinStats per worker does not travel on the wire"),
    ] {
        report.absent(name, why);
    }
}

/// Replay the HTAP write batches through `Session::append` on a private
/// session holding the same base relation, timing each call.
fn replay_writes(
    batches: &[Vec<(u64, u64)>],
    seed: u64,
    threads: usize,
    tracer: &mut Tracer,
) -> Vec<f64> {
    let session = Session::new(SchedulerConfig::new(threads));
    let mut order = Rng::new(seed, 10);
    let base = closed_form_relation(ServeKind::Htap.keys(), &mut order);
    session.register(Relation::new("R", base.into_iter().map(|(k, p)| Tuple::new(k, p)).collect()));
    let mut us = Vec::with_capacity(batches.len());
    for (i, batch) in batches.iter().enumerate() {
        let tuples = batch.iter().map(|&(k, p)| Tuple::new(k, p));
        let t0 = Instant::now();
        let (res, _) =
            tracer.span("session.append", "", None, i as u64, || session.append("R", tuples));
        us.push(t0.elapsed().as_secs_f64() * 1e6);
        res.expect("R is registered");
    }
    us
}

/// Run one serve workload and fill `report`.
pub fn run(kind: ServeKind, seed: u64, seconds: f64, trace: bool, report: &mut Report) -> Tracer {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.config("pool_threads", threads);
    report.config("keys_per_relation", kind.keys());
    match kind {
        ServeKind::Read => {
            report.config("ladder_qps", format!("{LADDER:?}"));
            report.config("deadline_us", DEADLINE_US);
            report.config("batch_qps", BATCH_RATE);
            report.config("slo_p99_ms", SLO_P99_MS);
        }
        ServeKind::Htap => {
            report.config("write_qps", WRITE_RATE);
            report.config("write_batch", WRITE_BATCH);
            report.config("query_qps", HTAP_QUERY_RATE);
        }
    }
    let priorities = match kind {
        ServeKind::Read => [2, 0],
        ServeKind::Htap => [2, 2],
    };
    let (plans, batches) = plans(kind, seed, seconds);
    let prefixes = (kind == ServeKind::Htap).then(|| WritePrefixes::new(kind.keys(), &batches));
    let origin = Instant::now();

    // The measured service is the first one this process starts: the
    // high-water mark is read before any further set-up, so it is the
    // service's own and not an artefact of repeated set-ups.
    let (service, first) = timed_start(kind, seed, threads, priorities);
    let mut setups = vec![first];
    let plain = window(&service, &plans, &batches, false, origin);
    check(kind, &plain, prefixes.as_ref(), report);
    match kind {
        ServeKind::Read => read_metrics(&plain, seconds, report),
        ServeKind::Htap => htap_metrics(&plain, report),
    }
    put_peak_rss(report);
    stop(service);
    let mut tracer = Tracer::new(origin, trace);
    if trace {
        // Same seed, same schedule, fresh server: the traced window
        // must not inherit the untraced window's backlog or writes.
        let (service, t) = timed_start(kind, seed, threads, priorities);
        setups.push(t);
        let traced = window(&service, &plans, &batches, true, origin);
        stop(service);
        let mut scratch = Report::new();
        check(kind, &traced, prefixes.as_ref(), report);
        match kind {
            ServeKind::Read => read_metrics(&traced, seconds, &mut scratch),
            ServeKind::Htap => htap_metrics(&traced, &mut scratch),
        }
        let ratio = |name: &str| {
            let (a, b) = (scratch.get(name)?.value, report.get(name)?.value);
            (b > 0.0).then_some(a / b)
        };
        match ratio("join_p50_ms") {
            Some(r) => report.put("bench.trace_overhead", r, "ratio", 1),
            None => report.absent("bench.trace_overhead", "no answered queries"),
        }
        layer_metrics(kind, &traced, seconds, report);
        tracer.absorb(traced.tracer);
        if kind == ServeKind::Htap {
            let us = replay_writes(&batches, seed, threads, &mut tracer);
            report.put_median("session.write_us", &us, "us");
        } else {
            report.absent("session.write_us", "no writes");
        }
    }
    while setups.len() < SETUPS {
        let (service, t) = timed_start(kind, seed, threads, priorities);
        setups.push(t);
        stop(service);
    }
    report.put_spread("setup_s", median(&setups), "s", setups.len(), Spread::of(&setups));
    tracer
}

#[cfg(test)]
mod tests {
    use super::*;

    const PLAN: &str = "Queue [wait = 0.125 ms; shed=0, deadline_missed=1, partial=2, degraded=3]
└─ Aggregate [max(R.payload + S.payload)]
   └─ Join [P-MPSM; T = 2]
      ├─ Anytime [coverage=39.5%, runs=1/2, partial]
      ├─ Snapshot [R: base=v3, delta=48 tuples]
      ├─ Snapshot [S: base=v1, delta=0 tuples]
      ├─ Phases [1: 0.000 ms, 2: 0.010 ms, 3: 0.000 ms, 4: 0.420 ms]
      ├─ private (R):
      │  └─ Select [out = 131120 rows]
      │     └─ Scan R [131072 rows]
";

    #[test]
    fn explain_rows_parse() {
        assert_eq!(explain_timings(PLAN), Some((0.125, Some([0.0, 0.01, 0.0, 0.42]))));
        let expired = "Queue [wait = 3.398 ms; shed=0]\n└─ Aggregate [max(R.payload + S.payload)]";
        assert_eq!(explain_timings(expired), Some((3.398, None)));
        assert_eq!(explain_snapshot(PLAN), Some((3, 48, 131072)));
        assert_eq!(explain_field(PLAN, "Anytime [coverage=", "%"), Some(39.5));
        assert_eq!(explain_timings("Aggregate [max]"), None);
    }

    #[test]
    fn outstanding_counts_sent_and_unanswered() {
        let rec = |sent, recv| Record {
            arrival: Arrival { due_us: sent, kind: Kind::Metrics, step: 0 },
            sent_us: sent,
            recv_us: recv,
            reply: None,
            reply_bytes: 0,
            acked_before_send: 0,
            sent_before_reply: 0,
        };
        let (a, b, c) = (rec(0, Some(10)), rec(5, None), rec(20, Some(30)));
        let all = [&a, &b, &c];
        assert_eq!(outstanding_at(&all, 7), 2);
        assert_eq!(outstanding_at(&all, 15), 1);
        assert_eq!(outstanding_at(&all, 25), 2);
    }
}
