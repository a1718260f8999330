//! Bitonic sorting networks — the paper's §6 outlook.
//!
//! > "For sorting in MPSM we developed our own Radix/IntroSort. In the
//! > future however, wider SIMD registers will allow to explore bitonic
//! > SIMD sorting \[6\]."
//!
//! This module provides that exploration in portable Rust: Batcher's
//! bitonic network as a **branch-free** sequence of compare-exchanges.
//! Each exchange computes an all-ones/all-zeros mask from the key
//! comparison and blends keys *and payloads* with bitwise selects —
//! no data-dependent branch, so the schedule is fixed and the branch
//! predictor has nothing to mispredict (the property that makes the
//! network the right leaf kernel for small buckets of *random* keys,
//! where insertion sort eats a mispredict per element). The same fixed
//! schedule is what the feature-gated AVX2 path in [`super::simd`]
//! vectorizes four lanes at a time.
//!
//! Non-power-of-two inputs go through a padded scratch network. Two
//! subtleties the seed version got wrong, both fixed here:
//!
//! * **Padding is accounted, not assumed.** Sentinels are
//!   `(u64::MAX, u64::MAX)` tuples, which are value-identical to a real
//!   tuple with that key and payload. The copy-back therefore drops
//!   *exactly* `pad` sentinel-valued tuples from the tail instead of
//!   truncating at `n` — a real `u64::MAX`-keyed tuple can never lose
//!   its payload to a sentinel (see `unpad_into`).
//! * **The scratch is reusable.** Hot paths thread a [`SortScratch`]
//!   (one per sorting thread) so non-power-of-two leaves — i.e.
//!   almost every radix bucket — allocate nothing after warmup.
//!
//! Entry points: [`bitonic_sort_with`] (any slice, caller scratch),
//! [`bitonic_sort`] (convenience wrapper with a local scratch),
//! [`bitonic_sort_pow2`] (in-place network), and
//! [`introsort_bitonic`] (legacy ablation: quicksort with network
//! leaves at the fixed [`BITONIC_BLOCK`]).

use crate::tuple::Tuple;

/// Partition size at which [`introsort_bitonic`] switches to the
/// network (a 32-element network has 15 rounds of compare-exchanges).
/// The tuned kernels use `SortTuning::block` instead; this constant is
/// the legacy ablation's fixed threshold.
pub const BITONIC_BLOCK: usize = 32;

/// The padding sentinel for non-power-of-two networks. Value-identical
/// to a real `(u64::MAX, u64::MAX)` tuple, which is why the copy-back
/// counts sentinels instead of trusting values (see `unpad_into`).
pub(crate) const PAD: Tuple = Tuple::new(u64::MAX, u64::MAX);

/// Reusable scratch for the padded network and the SIMD SoA staging.
/// One per sorting thread (see `three_phase_sort_audited`), so
/// recursion leaves never allocate. All buffers grow to the largest block seen and stay.
#[derive(Debug, Default)]
pub struct SortScratch {
    /// Padded AoS staging for the scalar network.
    pub(crate) pad: Vec<Tuple>,
    /// SoA key lanes for the SIMD network.
    #[cfg_attr(not(all(feature = "simd-sort", target_arch = "x86_64")), allow(dead_code))]
    pub(crate) keys: Vec<u64>,
    /// SoA payload lanes, permuted alongside the keys.
    #[cfg_attr(not(all(feature = "simd-sort", target_arch = "x86_64")), allow(dead_code))]
    pub(crate) payloads: Vec<u64>,
    /// Ping-pong buffer for the out-of-place radix scatter; grows to
    /// the largest run the thread sorts and stays (the point of
    /// reusable scratch: the 16 bytes/tuple are paid once, not per
    /// sort call).
    pub(crate) aux: Vec<Tuple>,
}

impl SortScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        SortScratch::default()
    }
}

/// One branch-free compare-exchange: order the pair `(a, b)` by key,
/// ascending if `up`. The comparison becomes an all-ones/all-zeros
/// mask; keys and payloads are blended with bitwise selects, so the
/// compiled form is `cmp` + `setcc`/`neg` + and/or — no branch.
#[inline(always)]
fn compare_exchange(tuples: &mut [Tuple], i: usize, l: usize, up: bool) {
    let a = tuples[i];
    let b = tuples[l];
    // All-ones when the pair is out of order for this direction.
    let m = (((a.key > b.key) == up) as u64).wrapping_neg();
    tuples[i] = Tuple::new((a.key & !m) | (b.key & m), (a.payload & !m) | (b.payload & m));
    tuples[l] = Tuple::new((b.key & !m) | (a.key & m), (b.payload & !m) | (a.payload & m));
}

/// In-place bitonic network over a power-of-two-sized slice.
///
/// # Panics
/// Panics if `tuples.len()` is not a power of two.
pub fn bitonic_sort_pow2(tuples: &mut [Tuple]) {
    let n = tuples.len();
    assert!(n.is_power_of_two() || n == 0, "bitonic network needs a power-of-two size");
    if n < 2 {
        return;
    }
    let mut k = 2;
    while k <= n {
        let mut j = k / 2;
        while j > 0 {
            for i in 0..n {
                let l = i ^ j;
                if l > i {
                    // Direction flips every `k` elements, producing the
                    // bitonic sequences the next stage merges.
                    compare_exchange(tuples, i, l, (i & k) == 0);
                }
            }
            j /= 2;
        }
        k *= 2;
    }
}

/// Copy the sorted, padded `sorted` buffer back into `out`, dropping
/// exactly `pad` sentinel-valued tuples. Sentinels carry the maximum
/// key, so they live in the tail region together with any *real*
/// `u64::MAX`-keyed tuples; a real `(MAX, p≠MAX)` tuple never matches
/// the sentinel value, and a real `(MAX, MAX)` tuple is value-identical
/// to a sentinel, so dropping either is observationally the same. The
/// backward scan keeps `sorted.len() - pad == out.len()` tuples in
/// order.
pub(crate) fn unpad_into(sorted: &[Tuple], out: &mut [Tuple], pad: usize) {
    debug_assert_eq!(sorted.len(), out.len() + pad);
    let mut removed = 0usize;
    let mut write = out.len();
    for &t in sorted.iter().rev() {
        if removed < pad && t.key == PAD.key && t.payload == PAD.payload {
            removed += 1;
            continue;
        }
        write -= 1;
        out[write] = t;
    }
    debug_assert_eq!(removed, pad, "network lost a padding sentinel");
    debug_assert_eq!(write, 0);
}

/// Largest slice handled by the exact-size odd-even schedules — covers
/// every block threshold the tuner sweeps, so hot leaves never pad.
pub(crate) const MAX_EXACT_NETWORK: usize = 128;

/// Precomputed Batcher odd-even comparator schedules for every size up
/// to [`MAX_EXACT_NETWORK`], flattened into one pair array.
struct Schedules {
    offsets: [usize; MAX_EXACT_NETWORK + 2],
    pairs: Vec<(u8, u8)>,
}

/// Batcher's odd-even mergesort uses *ascending comparators only*, so
/// the power-of-two network pruned to the pairs whose both lanes are
/// `< n` is a valid sorting network for exactly `n` lanes: imagining
/// `+∞` sentinels in lanes `≥ n`, every pruned comparator would have
/// been a no-op (its upper lane already holds the maximum), hence
/// removing it cannot change the result on the live lanes. (Bitonic
/// networks flip comparator directions, so this pruning is *not* valid
/// there — which is exactly why arbitrary sizes needed padding.) The
/// `zero_one_principle_validates_every_exact_schedule` test verifies
/// the pruned schedules exhaustively.
fn batcher_pairs_into(n: usize, pairs: &mut Vec<(u8, u8)>) {
    if n < 2 {
        return;
    }
    let pn = n.next_power_of_two();
    let mut p = 1usize;
    while p < pn {
        let mut k = p;
        while k >= 1 {
            let mut j = k % p;
            while j + k < pn {
                for i in 0..k {
                    let a = i + j;
                    let b = i + j + k;
                    if b >= pn {
                        break;
                    }
                    if a / (2 * p) == b / (2 * p) && b < n {
                        pairs.push((a as u8, b as u8));
                    }
                }
                j += 2 * k;
            }
            k /= 2;
        }
        p *= 2;
    }
}

fn schedules() -> &'static Schedules {
    static S: std::sync::OnceLock<Schedules> = std::sync::OnceLock::new();
    S.get_or_init(|| {
        let mut offsets = [0usize; MAX_EXACT_NETWORK + 2];
        let mut pairs = Vec::new();
        for (n, off) in offsets.iter_mut().enumerate().take(MAX_EXACT_NETWORK + 1) {
            *off = pairs.len();
            batcher_pairs_into(n, &mut pairs);
        }
        offsets[MAX_EXACT_NETWORK + 1] = pairs.len();
        Schedules { offsets, pairs }
    })
}

/// Sort a slice of at most `MAX_EXACT_NETWORK` (128) tuples in place with
/// its exact-size odd-even schedule: branch-free compare-exchanges, no
/// padding, no staging copy. This is the leaf the radix recursion
/// actually hits (~`INSERTION_CUTOFF`-sized buckets whose sizes spread
/// across power-of-two boundaries, where a padded network would pay for
/// up to 2× its real input).
pub fn network_sort_exact(tuples: &mut [Tuple]) {
    let n = tuples.len();
    debug_assert!(n <= MAX_EXACT_NETWORK);
    if n < 2 {
        return;
    }
    let s = schedules();
    for &(a, b) in &s.pairs[s.offsets[n]..s.offsets[n + 1]] {
        let (lo, hi) = (a as usize, b as usize);
        let x = tuples[lo];
        let y = tuples[hi];
        // Ascending comparator, branch-free: all-ones mask when out of
        // order, bitwise blend of keys and payloads.
        let m = ((x.key > y.key) as u64).wrapping_neg();
        tuples[lo] = Tuple::new((x.key & !m) | (y.key & m), (x.payload & !m) | (y.payload & m));
        tuples[hi] = Tuple::new((y.key & !m) | (x.key & m), (y.payload & !m) | (x.payload & m));
    }
}

/// Sort any slice with the branch-free networks. Slices up to
/// `MAX_EXACT_NETWORK` (128) tuples — every block size the tuner sweeps —
/// run in place through their exact-size odd-even schedule (no
/// allocation, no padding); larger non-power-of-two inputs stage
/// through `scratch` (no allocation after the scratch has grown once).
/// This is the hot-path entry used by the tuned `finish_bucket`.
pub fn bitonic_sort_with(tuples: &mut [Tuple], scratch: &mut SortScratch) {
    let n = tuples.len();
    if n < 2 {
        return;
    }
    if n <= MAX_EXACT_NETWORK {
        network_sort_exact(tuples);
        return;
    }
    if n.is_power_of_two() {
        bitonic_sort_pow2(tuples);
        return;
    }
    let padded = n.next_power_of_two();
    scratch.pad.clear();
    scratch.pad.reserve(padded);
    scratch.pad.extend_from_slice(tuples);
    scratch.pad.resize(padded, PAD);
    bitonic_sort_pow2(&mut scratch.pad);
    unpad_into(&scratch.pad, tuples, padded - n);
}

/// Convenience wrapper over [`bitonic_sort_with`] with a one-off local
/// scratch. Hot paths should thread a per-worker [`SortScratch`]
/// instead.
pub fn bitonic_sort(tuples: &mut [Tuple]) {
    let mut scratch = SortScratch::new();
    bitonic_sort_with(tuples, &mut scratch);
}

/// Depth-limited quicksort that hands partitions `≤ block` to `leaf`
/// (a network kernel working through `scratch`). This is the phase-2
/// shape shared by every network-finishing kernel; the tuned
/// `finish_bucket` calls it with the scalar or SIMD leaf and the
/// tuning's block threshold.
pub(crate) fn quicksort_to_network<F>(
    tuples: &mut [Tuple],
    block: usize,
    scratch: &mut SortScratch,
    leaf: &mut F,
) where
    F: FnMut(&mut [Tuple], &mut SortScratch),
{
    if tuples.len() < 2 {
        return;
    }
    if tuples.len() <= block {
        leaf(tuples, scratch);
        return;
    }
    let depth_limit = 2 * tuples.len().ilog2();
    sort_rec(tuples, depth_limit, block, scratch, leaf);
}

/// Quicksort (same depth-limited scheme as [`super::intro`]) that
/// finishes small partitions with the bitonic network immediately —
/// no deferred insertion pass needed. Legacy ablation entry with the
/// fixed [`BITONIC_BLOCK`]; allocates one scratch per call (not per
/// leaf, as the seed version did).
pub fn introsort_bitonic(tuples: &mut [Tuple]) {
    let mut scratch = SortScratch::new();
    quicksort_to_network(tuples, BITONIC_BLOCK, &mut scratch, &mut bitonic_sort_with);
}

fn sort_rec<F>(
    tuples: &mut [Tuple],
    depth_left: u32,
    block: usize,
    scratch: &mut SortScratch,
    leaf: &mut F,
) where
    F: FnMut(&mut [Tuple], &mut SortScratch),
{
    let mut slice = tuples;
    let mut depth = depth_left;
    loop {
        if slice.len() <= block {
            leaf(slice, scratch);
            return;
        }
        if depth == 0 {
            super::intro::heapsort(slice);
            return;
        }
        let split = hoare_partition(slice);
        depth -= 1;
        let (left, right) = slice.split_at_mut(split + 1);
        if left.len() < right.len() {
            sort_rec(left, depth, block, scratch, leaf);
            slice = right;
        } else {
            sort_rec(right, depth, block, scratch, leaf);
            slice = left;
        }
    }
}

/// Same Hoare partition as `super::intro` (duplicated locally because
/// the two modules are alternative phase-2 strategies with different
/// leaf handling; keeping them independent keeps the ablation honest).
fn hoare_partition(tuples: &mut [Tuple]) -> usize {
    let len = tuples.len();
    let mid = len / 2;
    if tuples[mid].key < tuples[0].key {
        tuples.swap(mid, 0);
    }
    if tuples[len - 1].key < tuples[0].key {
        tuples.swap(len - 1, 0);
    }
    if tuples[len - 1].key < tuples[mid].key {
        tuples.swap(len - 1, mid);
    }
    let pivot = tuples[mid].key;
    let mut i = 0usize;
    let mut j = len - 1;
    loop {
        while tuples[i].key < pivot {
            i += 1;
        }
        while tuples[j].key > pivot {
            j -= 1;
        }
        if i >= j {
            return j.min(len - 2);
        }
        tuples.swap(i, j);
        i += 1;
        j -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::is_key_sorted;

    fn pseudo_random(n: usize, seed: u64) -> Vec<Tuple> {
        let mut state = seed | 1;
        (0..n)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                Tuple::new(state >> 32, i as u64)
            })
            .collect()
    }

    #[test]
    fn network_sorts_all_power_of_two_sizes() {
        for exp in 0..10u32 {
            let mut data = pseudo_random(1 << exp, exp as u64 + 1);
            bitonic_sort_pow2(&mut data);
            assert!(is_key_sorted(&data), "size {}", 1 << exp);
        }
    }

    #[test]
    fn padded_network_sorts_arbitrary_sizes() {
        for n in [0usize, 1, 3, 5, 17, 31, 33, 100, 1000, 1025] {
            let mut data = pseudo_random(n, n as u64 + 7);
            let mut expected: Vec<u64> = data.iter().map(|t| t.key).collect();
            expected.sort_unstable();
            bitonic_sort(&mut data);
            assert!(is_key_sorted(&data), "size {n}");
            let got: Vec<u64> = data.iter().map(|t| t.key).collect();
            assert_eq!(got, expected, "size {n}: padding must not leak");
        }
    }

    #[test]
    fn network_preserves_payload_pairs() {
        let mut data = pseudo_random(64, 3);
        let mut before: Vec<(u64, u64)> = data.iter().map(|t| (t.key, t.payload)).collect();
        bitonic_sort_pow2(&mut data);
        let mut after: Vec<(u64, u64)> = data.iter().map(|t| (t.key, t.payload)).collect();
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after);
    }

    #[test]
    fn network_handles_duplicates() {
        let mut data: Vec<Tuple> = (0..128).map(|i| Tuple::new(i % 5, i)).collect();
        bitonic_sort_pow2(&mut data);
        assert!(is_key_sorted(&data));
    }

    #[test]
    fn real_max_keyed_tuples_keep_their_payloads() {
        // Regression for the seed's padding bug: with a non-power-of-two
        // size, sentinels (MAX, MAX) and real MAX-keyed tuples share the
        // tail of the padded network; the truncating copy-back used to
        // hand a real tuple the sentinel's payload. Every payload must
        // survive exactly.
        for n in [3usize, 5, 7, 11, 21, 33, 100] {
            let mut data: Vec<Tuple> = (0..n as u64).map(|i| Tuple::new(u64::MAX, i)).collect();
            let mut scratch = SortScratch::new();
            bitonic_sort_with(&mut data, &mut scratch);
            let mut payloads: Vec<u64> = data.iter().map(|t| t.payload).collect();
            payloads.sort_unstable();
            assert_eq!(
                payloads,
                (0..n as u64).collect::<Vec<_>>(),
                "size {n}: payload lost to a sentinel"
            );
            assert!(data.iter().all(|t| t.key == u64::MAX));
        }
        // Mixed case: MAX-keyed tuples among ordinary ones, including a
        // real (MAX, MAX) tuple which is value-identical to a sentinel.
        let mut data = vec![
            Tuple::new(5, 50),
            Tuple::new(u64::MAX, 1),
            Tuple::new(7, 70),
            Tuple::new(u64::MAX, u64::MAX),
            Tuple::new(u64::MAX, 2),
        ];
        let mut expected: Vec<(u64, u64)> = data.iter().map(|t| (t.key, t.payload)).collect();
        expected.sort_unstable();
        bitonic_sort(&mut data);
        assert!(is_key_sorted(&data));
        // Equal-key payload order is unspecified; the multiset must
        // survive exactly (the buggy copy-back dropped (MAX, 1) or
        // (MAX, 2) in favor of a sentinel).
        let mut got: Vec<(u64, u64)> = data.iter().map(|t| (t.key, t.payload)).collect();
        got.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn scratch_is_reused_across_leaves() {
        let mut scratch = SortScratch::new();
        let mut data = pseudo_random(1000, 5);
        bitonic_sort_with(&mut data, &mut scratch);
        let grown = scratch.pad.capacity();
        assert!(grown >= 1024, "large non-pow2 sort must stage through the scratch");
        // A second, smaller sort must not shrink or reallocate.
        let mut data2 = pseudo_random(300, 6);
        bitonic_sort_with(&mut data2, &mut scratch);
        assert_eq!(scratch.pad.capacity(), grown);
        assert!(is_key_sorted(&data) && is_key_sorted(&data2));
        // Leaf-sized inputs never touch the heap at all.
        let mut data3 = pseudo_random(100, 7);
        let mut empty = SortScratch::new();
        bitonic_sort_with(&mut data3, &mut empty);
        assert_eq!(empty.pad.capacity(), 0);
        assert!(is_key_sorted(&data3));
    }

    #[test]
    fn zero_one_principle_validates_every_exact_schedule() {
        // A comparator network sorts all inputs iff it sorts all 0-1
        // sequences (Knuth 5.3.4). Exhaustive up to 2^n sequences gets
        // expensive fast, so go exhaustive where feasible and spot-check
        // the larger schedules with every rotation of a few patterns.
        for n in 0..=16usize {
            for bits in 0u32..(1u32 << n) {
                let mut data: Vec<Tuple> =
                    (0..n).map(|i| Tuple::new(((bits >> i) & 1) as u64, i as u64)).collect();
                network_sort_exact(&mut data);
                assert!(is_key_sorted(&data), "n={n} bits={bits:b}");
                assert_eq!(
                    data.iter().filter(|t| t.key == 1).count(),
                    bits.count_ones() as usize,
                    "n={n}: multiset changed"
                );
            }
        }
        for n in [17usize, 23, 31, 33, 48, 63, 65, 100, 127, 128] {
            let mut state = n as u64;
            for _ in 0..2000 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let mut data: Vec<Tuple> =
                    (0..n).map(|i| Tuple::new((state >> (i % 60)) & 1, i as u64)).collect();
                let ones = data.iter().filter(|t| t.key == 1).count();
                network_sort_exact(&mut data);
                assert!(is_key_sorted(&data), "n={n}");
                assert_eq!(data.iter().filter(|t| t.key == 1).count(), ones);
            }
        }
    }

    #[test]
    fn exact_network_matches_std_sort_at_every_size() {
        for n in 0..=MAX_EXACT_NETWORK {
            let mut data = pseudo_random(n, n as u64 + 3);
            let mut expected: Vec<u64> = data.iter().map(|t| t.key).collect();
            expected.sort_unstable();
            network_sort_exact(&mut data);
            let got: Vec<u64> = data.iter().map(|t| t.key).collect();
            assert_eq!(got, expected, "size {n}");
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn pow2_entry_rejects_other_sizes() {
        let mut data = pseudo_random(24, 1);
        bitonic_sort_pow2(&mut data);
    }

    #[test]
    fn introsort_bitonic_sorts_large_input() {
        let mut data = pseudo_random(50_000, 9);
        introsort_bitonic(&mut data);
        assert!(is_key_sorted(&data));
    }

    #[test]
    fn introsort_bitonic_matches_three_phase() {
        let mut a = pseudo_random(10_000, 21);
        let mut b = a.clone();
        introsort_bitonic(&mut a);
        crate::sort::three_phase_sort(&mut b);
        assert_eq!(
            a.iter().map(|t| t.key).collect::<Vec<_>>(),
            b.iter().map(|t| t.key).collect::<Vec<_>>()
        );
    }

    #[test]
    fn introsort_bitonic_adversarial_duplicates() {
        let mut data: Vec<Tuple> = (0..60_000).map(|i| Tuple::new(i % 2, i)).collect();
        introsort_bitonic(&mut data);
        assert!(is_key_sorted(&data));
    }
}
