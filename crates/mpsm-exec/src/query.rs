//! The paper's benchmark query, end to end (§5.1).
//!
//! ```sql
//! SELECT max(R.payload + S.payload)
//! FROM R, S
//! WHERE R.joinkey = S.joinkey
//! ```
//!
//! with optional selections on both inputs (the paper applies a
//! selection so "no referential integrity (foreign keys) or indexes
//! could be exploited").

use std::sync::Arc;
use std::time::{Duration, Instant};

use mpsm_core::context::ExecContext;
use mpsm_core::join::anytime::{
    merge_run_sets_anytime, merge_run_sets_anytime_capped, AnytimeOutcome, AnytimeToken,
};
use mpsm_core::join::delta::{merge_delta_sides_in, DeltaSide};
use mpsm_core::join::runs::{build_run_set, join_runs_in, RunsInput, SharedRunSet};
use mpsm_core::join::{JoinAlgorithm, PooledJoin};
use mpsm_core::sink::{CollectSink, MaxAggSink};
use mpsm_core::stats::{JoinStats, Phase};
use mpsm_core::worker::SharedWorkerPool;
use mpsm_core::Tuple;
use mpsm_numa::NumaBuf;

use crate::ops::{JoinOp, MaxPayloadSum, Select};
use crate::plan::{AnytimeInfo, PlacementInfo, PlanStep, QueryPlan, RunCacheInfo, RunCacheOutcome};
use crate::run_cache::{splitter_fingerprint, BuildPermit, Lookup, RunCache, RunKey};
use crate::scan::Relation;
use crate::session::{Predicate, QuerySpec};
use crate::snapshot::Snapshot;

/// Result of one paper-query execution.
#[derive(Debug, Clone)]
pub struct PaperQueryResult {
    /// `max(R.payload + S.payload)`, `None` if the join is empty.
    pub max_payload_sum: Option<u64>,
    /// Tuples surviving the R selection.
    pub r_selected: usize,
    /// Tuples surviving the S selection.
    pub s_selected: usize,
    /// Join phase statistics.
    pub stats: JoinStats,
    /// The executed plan, for EXPLAIN-style display.
    pub plan: QueryPlan,
    /// Joined `(key, r_payload, s_payload)` rows in key order, present
    /// only when the spec asked to collect them
    /// ([`QuerySpec::collect_rows`](crate::session::QuerySpec::collect_rows)).
    /// On a deadline-hit anytime query this is a key-order **prefix**
    /// of the full join (see [`mpsm_core::join::anytime`]).
    pub rows: Option<Vec<(u64, u64, u64)>>,
}

/// Run `scan → select → join → max` with the given join algorithm.
/// `threads` drives the parallel selections (the join uses its own
/// configuration).
pub fn paper_query<J, PR, PS>(
    r: &Relation,
    s: &Relation,
    r_pred: PR,
    s_pred: PS,
    algorithm: &J,
    threads: usize,
) -> PaperQueryResult
where
    J: JoinAlgorithm,
    PR: Fn(&Tuple) -> bool + Sync,
    PS: Fn(&Tuple) -> bool + Sync,
{
    let r_sel = Select::new(r, r_pred).execute(threads);
    let s_sel = Select::new(s, s_pred).execute(threads);
    let join = JoinOp::new(algorithm);
    let (max, stats) = MaxPayloadSum::over(&join, &r_sel, &s_sel);
    assemble(algorithm.name(), threads, r, s, r_sel.len(), s_sel.len(), max, stats)
}

/// [`paper_query`] with every parallel section — both selections and
/// all join phases — submitted to a caller-provided shared pool. The
/// pool's width is the degree of parallelism; no threads are spawned.
///
/// This is the execution path of the [`crate::sched`] scheduler: many
/// concurrent queries call this against the same pool, and their phases
/// interleave FIFO-fairly instead of oversubscribing the machine. The
/// returned plan carries the join's per-phase timings
/// ([`QueryPlan::phases_ms`]); the scheduler adds the queue wait.
pub fn paper_query_on<J, PR, PS>(
    pool: &SharedWorkerPool,
    r: &Relation,
    s: &Relation,
    r_pred: PR,
    s_pred: PS,
    algorithm: &J,
) -> PaperQueryResult
where
    J: PooledJoin,
    PR: Fn(&Tuple) -> bool + Sync,
    PS: Fn(&Tuple) -> bool + Sync,
{
    paper_query_in(&ExecContext::over_pool(pool), r, s, Some(&r_pred), Some(&s_pred), algorithm)
}

/// A selection predicate borrowed for one execution.
type PredicateRef<'a> = &'a (dyn Fn(&Tuple) -> bool + Sync);

/// [`paper_query`] inside an [`ExecContext`] — the unified execution
/// path: selections and join phases run on the context's pool, run and
/// partition storage comes from its node-local arenas, and the plan's
/// `Placement` node reports which node the query was pinned to (if any)
/// plus the audited local/remote split of the join's memory traffic.
///
/// A side with a predicate is materialized by a [`Select`] phase; a
/// side without one (`None`) is joined straight from
/// [`Relation::tuples`], so an unfiltered query copies its inputs only
/// where the join itself does (phase 1's runs, phase 2's partitions).
///
/// One context should serve one query (the scheduler derives a fresh
/// context per admitted query); reusing a context accumulates counters
/// across executions and the placement line reports the mix.
pub fn paper_query_in<J: JoinAlgorithm>(
    cx: &ExecContext,
    r: &Relation,
    s: &Relation,
    r_pred: Option<PredicateRef<'_>>,
    s_pred: Option<PredicateRef<'_>>,
    algorithm: &J,
) -> PaperQueryResult {
    let select = |rel: &Relation, pred: Option<PredicateRef<'_>>| {
        pred.map(|pred| Select::new(rel, pred).execute_in(cx))
    };
    let (r_sel, s_sel) = (select(r, r_pred), select(s, s_pred));
    let r_rows = r_sel.as_deref().unwrap_or(r.tuples());
    let s_rows = s_sel.as_deref().unwrap_or(s.tuples());
    let join = JoinOp::new(algorithm);
    let (max, stats) = MaxPayloadSum::over_in(cx, &join, r_rows, s_rows);
    let mut out =
        assemble(algorithm.name(), cx.threads(), r, s, r_rows.len(), s_rows.len(), max, stats);
    out.plan.phases_ms = Some(out.stats.phases_ms());
    out.plan.phase_tuples = Some((r_rows.len() + s_rows.len()) as u64);
    out.plan.sort_kernel = Some(cx.sort_tuning().describe());
    out.plan.placement = Some(placement_of(cx));
    out
}

/// Derive the plan's `Placement` node from a context's audited memory
/// traffic.
fn placement_of(cx: &ExecContext) -> PlacementInfo {
    let remote = cx.counters().remote_fraction();
    PlacementInfo {
        node: cx.single_node().map(|n| n.0),
        local_pct: (1.0 - remote) * 100.0,
        remote_pct: remote * 100.0,
        flat: cx.topology().nodes <= 1,
        arena_bytes: cx.arena().stats().iter().map(|s| s.bytes).collect(),
    }
}

/// [`paper_query_in`] with a sorted-run cache consulted for both
/// unfiltered, catalog-registered inputs.
///
/// Per side, three outcomes (reported on the plan's `RunCache` node):
///
/// * **hit** — the cache holds the relation's public sorted runs for
///   this `(id, version, splitter fingerprint)` key; partition + sort
///   are skipped and the merge phase joins the cached runs directly.
/// * **miss** — no entry; the side is built from base tuples and, if
///   this query won the single-flight race, the produced runs are
///   published for later queries. Losing the race still executes
///   (uncached) — a key is never computed twice into one slot.
/// * **bypass** — the side is filtered or unregistered, so its runs
///   are query-specific and never touch the cache.
pub(crate) fn paper_query_cached(
    cx: &ExecContext,
    spec: &QuerySpec,
    cache: &Arc<RunCache>,
) -> PaperQueryResult {
    let config = spec.join.config();
    let radix_bits = config.radix_bits;
    let fingerprint = splitter_fingerprint(cx.threads(), radix_bits);

    let r_prep = prep_side(cx, &spec.r, &spec.r_pred, spec.r_filtered, cache, fingerprint);
    let s_prep = prep_side(cx, &spec.s, &spec.s_pred, spec.s_filtered, cache, fingerprint);
    let r_input = side_input(&r_prep, &spec.r);
    let s_input = side_input(&s_prep, &spec.s);

    let out = join_runs_in::<MaxAggSink>(cx, r_input, s_input, radix_bits);
    if let Some(permit) = r_prep.permit {
        permit.publish(out.r_runs.clone());
    }
    if let Some(permit) = s_prep.permit {
        permit.publish(out.s_runs.clone());
    }

    let mut result = assemble(
        spec.join.name(),
        cx.threads(),
        &spec.r,
        &spec.s,
        r_prep.rows,
        s_prep.rows,
        out.result,
        out.stats,
    );
    result.plan.phases_ms = Some(result.stats.phases_ms());
    result.plan.phase_tuples = Some((r_prep.rows + s_prep.rows) as u64);
    result.plan.sort_kernel = Some(cx.sort_tuning().describe());
    result.plan.placement = Some(placement_of(cx));
    let totals = cache.stats();
    result.plan.run_cache = Some(RunCacheInfo {
        r: r_prep.outcome,
        s: s_prep.outcome,
        hits: totals.hits,
        misses: totals.misses,
        evictions: totals.evictions,
    });
    result
}

/// One join input's cache disposition, resolved before the join runs.
struct SidePrep {
    /// Selected tuples, present only when the side is filtered.
    selected: Option<Vec<Tuple>>,
    /// Cached runs, present only on a hit.
    cached: Option<SharedRunSet>,
    /// Single-flight build permit, present only when this query won a
    /// miss and must publish the runs it builds.
    permit: Option<BuildPermit>,
    /// What the plan's `RunCache` node reports for this side.
    outcome: RunCacheOutcome,
    /// Rows entering the join from this side.
    rows: usize,
}

fn prep_side(
    cx: &ExecContext,
    rel: &Relation,
    pred: &Predicate,
    filtered: bool,
    cache: &Arc<RunCache>,
    fingerprint: u64,
) -> SidePrep {
    if filtered {
        // Query-specific rows: runs would be useless to other queries.
        let selected = Select::new(rel, |t| pred(t)).execute_in(cx);
        let rows = selected.len();
        return SidePrep {
            selected: Some(selected),
            cached: None,
            permit: None,
            outcome: RunCacheOutcome::Bypass,
            rows,
        };
    }
    if rel.version() == 0 {
        // Unregistered relations have no identity to key on.
        return SidePrep {
            selected: None,
            cached: None,
            permit: None,
            outcome: RunCacheOutcome::Bypass,
            rows: rel.len(),
        };
    }
    let key = RunKey { relation: rel.id(), version: rel.version(), fingerprint };
    match cache.lookup(key) {
        Lookup::Hit(runs) => SidePrep {
            selected: None,
            cached: Some(runs),
            permit: None,
            outcome: RunCacheOutcome::Hit,
            rows: rel.len(),
        },
        Lookup::Miss(permit) => SidePrep {
            selected: None,
            cached: None,
            permit: Some(permit),
            outcome: RunCacheOutcome::Miss,
            rows: rel.len(),
        },
        // Another query is building this key right now; run uncached
        // rather than wait (never compute twice into one slot).
        Lookup::Busy => SidePrep {
            selected: None,
            cached: None,
            permit: None,
            outcome: RunCacheOutcome::Miss,
            rows: rel.len(),
        },
    }
}

/// The paper query over consistent snapshots with live deltas — the
/// HTAP read path. Each side joins as base runs (served from the run
/// cache keyed on the snapshot's **base** version, so writes never
/// poison a key) plus an on-the-fly-sorted run of the delta's added
/// tuples, with deleted/overwritten base keys masked inside the merge.
/// Taken whenever at least one captured snapshot has a non-zero delta
/// watermark; clean queries stay on [`paper_query_cached`] /
/// [`paper_query_in`] unchanged.
pub(crate) fn paper_query_snapshot(cx: &ExecContext, spec: &QuerySpec) -> PaperQueryResult {
    let radix_bits = spec.join.config().radix_bits;
    let fingerprint = splitter_fingerprint(cx.threads(), radix_bits);
    let wall = Instant::now();
    let mut stats = JoinStats::new(cx.threads());

    let r_prep = prep_snapshot_side(
        cx,
        true,
        &spec.r,
        spec.r_snapshot.as_ref(),
        &spec.r_pred,
        spec.r_filtered,
        spec.cache.as_ref(),
        fingerprint,
        radix_bits,
        &mut stats,
    );
    let s_prep = prep_snapshot_side(
        cx,
        false,
        &spec.s,
        spec.s_snapshot.as_ref(),
        &spec.s_pred,
        spec.s_filtered,
        spec.cache.as_ref(),
        fingerprint,
        radix_bits,
        &mut stats,
    );

    let r_side = DeltaSide { base: &r_prep.base, delta: r_prep.delta.as_ref(), mask: &r_prep.mask };
    let s_side = DeltaSide { base: &s_prep.base, delta: s_prep.delta.as_ref(), mask: &s_prep.mask };
    let (r_rows, s_rows) = (r_side.logical_tuples(), s_side.logical_tuples());
    let max = merge_delta_sides_in::<MaxAggSink>(cx, r_side, s_side, &mut stats);
    stats.wall = wall.elapsed();

    let mut result =
        assemble(spec.join.name(), cx.threads(), &spec.r, &spec.s, r_rows, s_rows, max, stats);
    result.plan.phases_ms = Some(result.stats.phases_ms());
    result.plan.phase_tuples = Some((r_rows + s_rows) as u64);
    result.plan.sort_kernel = Some(cx.sort_tuning().describe());
    result.plan.placement = Some(placement_of(cx));
    if let Some(cache) = &spec.cache {
        let totals = cache.stats();
        result.plan.run_cache = Some(RunCacheInfo {
            r: r_prep.outcome,
            s: s_prep.outcome,
            hits: totals.hits,
            misses: totals.misses,
            evictions: totals.evictions,
        });
    }
    result
}

/// One snapshot side, resolved to merge inputs: base runs, the sorted
/// delta run, and the base-key mask.
struct SnapPrep {
    base: SharedRunSet,
    delta: Option<NumaBuf<Tuple>>,
    mask: Vec<u64>,
    outcome: RunCacheOutcome,
}

#[allow(clippy::too_many_arguments)]
fn prep_snapshot_side(
    cx: &ExecContext,
    private: bool,
    rel: &Relation,
    snapshot: Option<&Snapshot>,
    pred: &Predicate,
    filtered: bool,
    cache: Option<&Arc<RunCache>>,
    fingerprint: u64,
    radix_bits: u32,
    stats: &mut JoinStats,
) -> SnapPrep {
    let (partition_phase, sort_phase) =
        if private { (Phase::Two, Phase::Three) } else { (Phase::One, Phase::One) };
    let plain = |tuples: &[Tuple], stats: &mut JoinStats| {
        Arc::new(build_run_set(cx, tuples, radix_bits, partition_phase, sort_phase, stats))
    };
    if filtered {
        // Query-specific rows: materialize the snapshot's literal
        // state (base + visible delta), filter, and build private
        // runs. Never cached — same bypass rule as the clean path.
        let source = match snapshot {
            Some(snapshot) => snapshot.materialize(),
            None => rel.tuples().to_vec(),
        };
        let selected: Vec<Tuple> = source.into_iter().filter(|t| pred(t)).collect();
        return SnapPrep {
            base: plain(&selected, stats),
            delta: None,
            mask: vec![],
            outcome: RunCacheOutcome::Bypass,
        };
    }
    let Some(snapshot) = snapshot else {
        // The side lives outside any catalog: no snapshot, no cache
        // identity — build from its raw tuples.
        return SnapPrep {
            base: plain(rel.tuples(), stats),
            delta: None,
            mask: vec![],
            outcome: RunCacheOutcome::Bypass,
        };
    };

    let overlay = snapshot.overlay();
    let base_rel = snapshot.base();
    let (base, outcome) = match cache {
        Some(cache) if base_rel.version() > 0 => {
            let key = RunKey { relation: base_rel.id(), version: base_rel.version(), fingerprint };
            match cache.lookup(key) {
                Lookup::Hit(runs) => (runs, RunCacheOutcome::Hit),
                Lookup::Miss(permit) => {
                    let built = plain(base_rel.tuples(), stats);
                    permit.publish(built.clone());
                    (built, RunCacheOutcome::Miss)
                }
                // Someone else is building this base; don't wait.
                Lookup::Busy => (plain(base_rel.tuples(), stats), RunCacheOutcome::Miss),
            }
        }
        _ => (plain(base_rel.tuples(), stats), RunCacheOutcome::Bypass),
    };

    // The delta's adds become one extra sorted run — tiny, so one
    // worker sorts it with the tuned kernels; its cost books under the
    // side's sort phase.
    let delta = if overlay.adds.is_empty() {
        None
    } else {
        let sort_start = Instant::now();
        let mut scope = cx.scope(0);
        let run = cx.sorted_run(0, &overlay.adds, &mut scope);
        let mut durations = vec![Duration::ZERO; cx.threads()];
        durations[0] = sort_start.elapsed();
        stats.record_phase(sort_phase, &durations);
        cx.record(sort_phase, [scope.finish()]);
        Some(run)
    };
    SnapPrep { base, delta, mask: overlay.masked, outcome }
}

/// The paper query with an interruptible merge phase — the SLA-serving
/// path. Both sides resolve to sorted run sets (cache-served when
/// clean and registered), then [`merge_run_sets_anytime`] joins them
/// under `token`: when the token expires mid-merge the query returns
/// best-so-far results plus a coverage estimate on the plan's
/// `Anytime` row instead of failing.
///
/// With [`QuerySpec::collect_rows`](crate::session::QuerySpec::collect_rows)
/// set, the joined rows come back sorted by `(key, r_payload,
/// s_payload)` and truncated to the cap; a partial answer's rows are a
/// key-order prefix of the full join's (the anytime contract). The cap
/// is *streaming*: the merge stops between blocks once enough rows
/// exist, so a capped query never pays for rows its caller discards —
/// its coverage (and its aggregate, computed over the merged-so-far
/// rows before truncation) reflects the key prefix actually merged.
pub fn paper_query_anytime(
    cx: &ExecContext,
    spec: &QuerySpec,
    token: &AnytimeToken,
) -> PaperQueryResult {
    let radix_bits = spec.join.config().radix_bits;
    let fingerprint = splitter_fingerprint(cx.threads(), radix_bits);
    let wall = Instant::now();
    let mut stats = JoinStats::new(cx.threads());

    let r_side = resolve_anytime_side(
        cx,
        true,
        &spec.r,
        spec.r_snapshot.as_ref(),
        &spec.r_pred,
        spec.r_filtered,
        spec.cache.as_ref(),
        fingerprint,
        radix_bits,
        &mut stats,
    );
    let s_side = resolve_anytime_side(
        cx,
        false,
        &spec.s,
        spec.s_snapshot.as_ref(),
        &spec.s_pred,
        spec.s_filtered,
        spec.cache.as_ref(),
        fingerprint,
        radix_bits,
        &mut stats,
    );

    fn info<R>(out: &AnytimeOutcome<R>) -> AnytimeInfo {
        AnytimeInfo {
            coverage: out.coverage(),
            merged_runs: out.merged_runs,
            total_runs: out.total_runs,
            complete: out.complete,
            capped: out.capped,
            ranges: out.ranges.clone(),
        }
    }
    let (anytime, rows, max) = match spec.rows_cap {
        Some(cap) => {
            // Streaming cap: the merge itself stops (between key-aligned
            // blocks) once at least `cap` rows exist, instead of
            // materializing the whole join and truncating. The coverage
            // on the Anytime row therefore reports how little of the
            // input a capped query actually had to merge.
            let out = merge_run_sets_anytime_capped::<CollectSink>(
                cx,
                &r_side.runs,
                &s_side.runs,
                token,
                Some(cap),
                &mut stats,
            );
            let anytime = info(&out);
            let mut rows = out.result;
            rows.sort_unstable();
            let max = rows.iter().map(|&(_, rp, sp)| rp.wrapping_add(sp)).max();
            rows.truncate(cap);
            (anytime, Some(rows), max)
        }
        None => {
            let out = merge_run_sets_anytime::<MaxAggSink>(
                cx,
                &r_side.runs,
                &s_side.runs,
                token,
                &mut stats,
            );
            (info(&out), None, out.result)
        }
    };
    stats.wall = wall.elapsed();

    let mut result = assemble(
        spec.join.name(),
        cx.threads(),
        &spec.r,
        &spec.s,
        r_side.rows,
        s_side.rows,
        max,
        stats,
    );
    result.rows = rows;
    result.plan.anytime = Some(anytime);
    result.plan.phases_ms = Some(result.stats.phases_ms());
    result.plan.phase_tuples = Some((r_side.rows + s_side.rows) as u64);
    result.plan.sort_kernel = Some(cx.sort_tuning().describe());
    result.plan.placement = Some(placement_of(cx));
    if let Some(cache) = &spec.cache {
        let totals = cache.stats();
        result.plan.run_cache = Some(RunCacheInfo {
            r: r_side.outcome,
            s: s_side.outcome,
            hits: totals.hits,
            misses: totals.misses,
            evictions: totals.evictions,
        });
    }
    result
}

/// The result of an anytime query whose deadline had already passed
/// when a coordinator popped it: an empty partial (coverage 0, zero
/// runs merged) produced without touching the inputs. The scheduler
/// uses this to honour an SLA that expired in the queue without
/// spending merge work it is certain to discard.
pub(crate) fn expired_in_queue_result(cx: &ExecContext, spec: &QuerySpec) -> PaperQueryResult {
    let stats = JoinStats::new(cx.threads());
    let mut result = assemble(spec.join.name(), cx.threads(), &spec.r, &spec.s, 0, 0, None, stats);
    result.rows = spec.rows_cap.map(|_| Vec::new());
    result.plan.anytime = Some(AnytimeInfo {
        coverage: 0.0,
        merged_runs: 0,
        total_runs: 0,
        complete: false,
        capped: false,
        ranges: vec![],
    });
    result
}

/// One anytime join input, resolved to sorted runs.
struct AnytimeSide {
    runs: SharedRunSet,
    outcome: RunCacheOutcome,
    /// Rows entering the join from this side.
    rows: usize,
}

#[allow(clippy::too_many_arguments)]
fn resolve_anytime_side(
    cx: &ExecContext,
    private: bool,
    rel: &Relation,
    snapshot: Option<&Snapshot>,
    pred: &Predicate,
    filtered: bool,
    cache: Option<&Arc<RunCache>>,
    fingerprint: u64,
    radix_bits: u32,
    stats: &mut JoinStats,
) -> AnytimeSide {
    let (partition_phase, sort_phase) =
        if private { (Phase::Two, Phase::Three) } else { (Phase::One, Phase::One) };
    let build = |tuples: &[Tuple], stats: &mut JoinStats| {
        Arc::new(build_run_set(cx, tuples, radix_bits, partition_phase, sort_phase, stats))
    };
    let dirty = snapshot.is_some_and(|s| s.delta_len() > 0);
    if filtered || dirty {
        // Filtered rows are query-specific and a dirty snapshot's
        // literal state has no cacheable version: both materialize and
        // build fresh runs (correctness over reuse — the interruptible
        // path favours a well-defined prefix contract over the
        // delta-merge optimization).
        let selected: Vec<Tuple> = match (snapshot, filtered) {
            (Some(snapshot), true) => {
                snapshot.materialize().into_iter().filter(|t| pred(t)).collect()
            }
            (Some(snapshot), false) => snapshot.materialize(),
            (None, _) => Select::new(rel, |t| pred(t)).execute_in(cx),
        };
        let rows = selected.len();
        return AnytimeSide {
            runs: build(&selected, stats),
            outcome: RunCacheOutcome::Bypass,
            rows,
        };
    }
    // Clean side: the snapshot's base (or the raw handle) is the
    // canonical tuple source, and its version keys the run cache.
    let base_rel: &Relation = match snapshot {
        Some(snapshot) => snapshot.base(),
        None => rel,
    };
    let rows = base_rel.len();
    let (runs, outcome) = match cache {
        Some(cache) if base_rel.version() > 0 => {
            let key = RunKey { relation: base_rel.id(), version: base_rel.version(), fingerprint };
            match cache.lookup(key) {
                Lookup::Hit(runs) => (runs, RunCacheOutcome::Hit),
                Lookup::Miss(permit) => {
                    let built = build(base_rel.tuples(), stats);
                    permit.publish(built.clone());
                    (built, RunCacheOutcome::Miss)
                }
                // Someone else is building this base; don't wait.
                Lookup::Busy => (build(base_rel.tuples(), stats), RunCacheOutcome::Miss),
            }
        }
        _ => (build(base_rel.tuples(), stats), RunCacheOutcome::Bypass),
    };
    AnytimeSide { runs, outcome, rows }
}

fn side_input<'a>(prep: &'a SidePrep, rel: &'a Relation) -> RunsInput<'a> {
    match (&prep.cached, &prep.selected) {
        (Some(runs), _) => RunsInput::Runs(runs.clone()),
        (None, Some(sel)) => RunsInput::Tuples(sel),
        (None, None) => RunsInput::Tuples(rel.tuples()),
    }
}

#[allow(clippy::too_many_arguments)]
fn assemble(
    algorithm: &str,
    threads: usize,
    r: &Relation,
    s: &Relation,
    r_selected: usize,
    s_selected: usize,
    max: Option<u64>,
    stats: JoinStats,
) -> PaperQueryResult {
    let plan = QueryPlan {
        algorithm: algorithm.to_string(),
        threads,
        private: vec![
            PlanStep::Scan { relation: r.name().to_string(), rows: r.len() },
            PlanStep::Select { rows_out: r_selected },
        ],
        public: vec![
            PlanStep::Scan { relation: s.name().to_string(), rows: s.len() },
            PlanStep::Select { rows_out: s_selected },
        ],
        aggregate: "max(R.payload + S.payload)".to_string(),
        join_rows: None,
        queue_wait_ms: None,
        queue_counters: None,
        anytime: None,
        phases_ms: None,
        phase_tuples: None,
        sort_kernel: None,
        placement: None,
        run_cache: None,
        snapshots: vec![],
    };
    PaperQueryResult { max_payload_sum: max, r_selected, s_selected, stats, plan, rows: None }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsm_core::join::b_mpsm::BMpsmJoin;
    use mpsm_core::join::p_mpsm::PMpsmJoin;
    use mpsm_core::join::JoinConfig;

    fn rel(name: &str, n: u64) -> Relation {
        Relation::new(name, (0..n).map(|k| Tuple::new(k, k)).collect())
    }

    #[test]
    fn full_pipeline_on_known_data() {
        let r = rel("R", 100);
        let s = rel("S", 100);
        let algo = PMpsmJoin::new(JoinConfig::with_threads(4));
        let out = paper_query(&r, &s, |_| true, |_| true, &algo, 4);
        assert_eq!(out.r_selected, 100);
        assert_eq!(out.s_selected, 100);
        assert_eq!(out.max_payload_sum, Some(99 + 99));
    }

    #[test]
    fn selection_narrows_the_join() {
        let r = rel("R", 100);
        let s = rel("S", 100);
        let algo = BMpsmJoin::new(JoinConfig::with_threads(2));
        // Keep keys < 50 in R, keys >= 40 in S: overlap 40..50.
        let out = paper_query(&r, &s, |t| t.key < 50, |t| t.key >= 40, &algo, 2);
        assert_eq!(out.r_selected, 50);
        assert_eq!(out.s_selected, 60);
        assert_eq!(out.max_payload_sum, Some(49 + 49));
    }

    #[test]
    fn empty_join_returns_none() {
        let r = rel("R", 10);
        let s = rel("S", 10);
        let algo = PMpsmJoin::new(JoinConfig::with_threads(2));
        let out = paper_query(&r, &s, |t| t.key < 3, |t| t.key > 7, &algo, 2);
        assert_eq!(out.max_payload_sum, None);
    }

    #[test]
    fn plan_explains_the_pipeline() {
        let r = rel("R", 100);
        let s = rel("S", 200);
        let algo = PMpsmJoin::new(JoinConfig::with_threads(2));
        let out = paper_query(&r, &s, |t| t.key < 10, |_| true, &algo, 2);
        let text = out.plan.explain();
        assert!(text.contains("Join [P-MPSM; T = 2]"), "{text}");
        assert!(text.contains("Scan R [100 rows]"), "{text}");
        assert!(text.contains("Select [out = 10 rows]"), "{text}");
        assert!(text.contains("Scan S [200 rows]"), "{text}");
    }

    #[test]
    fn pooled_query_matches_spawning_query() {
        let r = rel("R", 400);
        let s = Relation::new("S", (0..1600u64).map(|i| Tuple::new(i % 400, i)).collect());
        let algo = PMpsmJoin::new(JoinConfig::with_threads(4));
        let spawning = paper_query(&r, &s, |t| t.key % 2 == 0, |_| true, &algo, 4);
        let pool = SharedWorkerPool::new(4);
        let pooled = paper_query_on(&pool, &r, &s, |t| t.key % 2 == 0, |_| true, &algo);
        assert_eq!(pooled.max_payload_sum, spawning.max_payload_sum);
        assert_eq!(pooled.r_selected, spawning.r_selected);
        assert_eq!(pooled.s_selected, spawning.s_selected);
        assert!(pooled.plan.phases_ms.is_some(), "pooled plans record phase timings");
        assert!(pool.phases_served() > 0, "all sections ran on the shared pool");
    }

    #[test]
    fn context_query_reports_placement() {
        use mpsm_numa::{NodeId, Topology};

        let r = rel("R", 300);
        let s = Relation::new("S", (0..1200u64).map(|i| Tuple::new(i % 300, i)).collect());
        let algo = PMpsmJoin::new(JoinConfig::with_threads(4));
        // Spread over the paper machine: workers on all four sockets.
        let cx = ExecContext::new(Topology::paper_machine(), 4);
        let out = paper_query_in(&cx, &r, &s, None, None, &algo);
        let placement = out.plan.placement.clone().expect("context queries report placement");
        assert_eq!(placement.node, None, "4 workers round-robin over 4 sockets");
        assert!(placement.remote_pct > 0.0, "cross-socket scatter traffic exists");
        assert!(out.plan.explain().contains("Placement [node=spread"), "{}", out.plan.explain());
        // Pinned to one node: everything except the interleaved
        // base-table reads is local, so locality beats the spread run.
        let pinned = cx.pinned_to(NodeId(1));
        let out = paper_query_in(&pinned, &r, &s, None, None, &algo);
        let pinned_placement = out.plan.placement.clone().expect("placement");
        assert_eq!(pinned_placement.node, Some(1));
        assert!(
            pinned_placement.local_pct > placement.local_pct,
            "pinned {} % vs spread {} %",
            pinned_placement.local_pct,
            placement.local_pct
        );
        assert!(out.plan.explain().contains("Placement [node=1, local="), "{}", out.plan.explain());
    }

    #[test]
    fn algorithms_agree_on_the_query() {
        let r = rel("R", 500);
        let s = Relation::new("S", (0..2000u64).map(|i| Tuple::new(i % 500, i)).collect());
        let p = PMpsmJoin::new(JoinConfig::with_threads(4));
        let b = BMpsmJoin::new(JoinConfig::with_threads(4));
        let out_p = paper_query(&r, &s, |_| true, |_| true, &p, 4);
        let out_b = paper_query(&r, &s, |_| true, |_| true, &b, 4);
        assert_eq!(out_p.max_payload_sum, out_b.max_payload_sum);
    }
}
