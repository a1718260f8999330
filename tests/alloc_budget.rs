//! Allocation budget of an unfiltered, uncached paper query.
//!
//! P-MPSM copies each base relation once by design: phase 1 copies the
//! S chunks into sorted runs and phase 2 scatters R into its partitions
//! (§2.1, §3.2). The only other large buffer is the sort's ping-pong
//! scratch, which a pool worker keeps for the pool's lifetime. A
//! counting global allocator pins both facts on a `Session::query`:
//!
//! * the first query allocates at most 2.5 × 16 B × (|R|+|S|): the runs,
//!   the partitions, and the workers' first scratch — no selection
//!   copy of either input;
//! * a second query on the same session allocates at most
//!   1.5 × 16 B × (|R|+|S|): its scratch is not allocated again.
//!
//! The allocator counts every thread of the process, so this file holds
//! exactly one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mpsm::core::Tuple;
use mpsm::exec::{QuerySpec, Relation, SchedulerConfig, Session};

/// Bytes handed out so far: every allocation's size plus every
/// reallocation's growth.
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call forwards to `System` unchanged; the counter is a
// side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let growth = new_size.saturating_sub(layout.size());
        ALLOCATED.fetch_add(growth as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const R_LEN: u64 = 1 << 16;
const S_LEN: u64 = 1 << 18;
const TUPLE_BYTES: f64 = std::mem::size_of::<Tuple>() as f64;

/// `max(r.payload + s.payload)` over the equi-join of a key-unique `r`.
fn oracle_max(r: &[Tuple], s: &[Tuple]) -> Option<u64> {
    let by_key: HashMap<u64, u64> = r.iter().map(|t| (t.key, t.payload)).collect();
    s.iter().filter_map(|t| by_key.get(&t.key).map(|p| p + t.payload)).max()
}

/// Run `spec` and return its answer with the bytes allocated meanwhile,
/// in units of 16 B × (|R|+|S|).
fn measured(session: &Session, spec: QuerySpec) -> (Option<u64>, f64) {
    let before = ALLOCATED.load(Ordering::SeqCst);
    let out = session.query(spec).expect("query succeeds");
    let bytes = ALLOCATED.load(Ordering::SeqCst) - before;
    (out.result.max_payload_sum, bytes as f64 / (TUPLE_BYTES * (R_LEN + S_LEN) as f64))
}

#[test]
fn unfiltered_query_copies_each_input_once_and_reuses_sort_scratch() {
    let r_tuples: Vec<Tuple> = (0..R_LEN).map(|k| Tuple::new(k, k * 3)).collect();
    let s_tuples: Vec<Tuple> =
        (0..S_LEN).map(|i| Tuple::new(i.wrapping_mul(2654435761) % R_LEN, i)).collect();
    let expected = oracle_max(&r_tuples, &s_tuples);
    let even_r: Vec<Tuple> = r_tuples.iter().copied().filter(|t| t.key % 2 == 0).collect();
    let expected_filtered = oracle_max(&even_r, &s_tuples);

    let session = Session::uncached(SchedulerConfig::new(2));
    let r: Arc<Relation> = session.register(Relation::new("R", r_tuples));
    let s: Arc<Relation> = session.register(Relation::new("S", s_tuples));

    let (first, first_factor) = measured(&session, QuerySpec::join(&r, &s));
    assert_eq!(first, expected);
    assert!(
        first_factor <= 2.5,
        "first unfiltered query allocated {first_factor:.2} × 16 B × (|R|+|S|) (bound 2.5)"
    );

    let (second, second_factor) = measured(&session, QuerySpec::join(&r, &s));
    assert_eq!(second, expected);
    assert!(
        second_factor <= 1.5,
        "second unfiltered query allocated {second_factor:.2} × 16 B × (|R|+|S|) (bound 1.5): \
         sort scratch was allocated again"
    );

    // A filtered side still goes through the selection.
    let out = session
        .query(QuerySpec::join(&r, &s).filter_r(|t| t.key % 2 == 0))
        .expect("filtered query succeeds");
    assert_eq!(out.result.max_payload_sum, expected_filtered);
    assert_eq!(out.result.r_selected as u64, R_LEN / 2);
    assert_eq!(out.result.s_selected as u64, S_LEN);
}
