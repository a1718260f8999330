//! Seeded, open-loop request schedules.
//!
//! Everything a serve workload sends — arrival times, classes,
//! deadlines, write batches — is a function of the workload seed and
//! the constants below. Nothing is derived from a latency measured at
//! run time, so two runs with one seed send the same bytes at the same
//! offsets, however fast the program under test is.

/// SplitMix64: tiny, seedable, and good enough for arrival jitter and
/// key draws (the program under test never sees the generator).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream of one workload seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Arrivals at `rate` per second inside `[start_us, end_us)`: one per
/// slot of `1 / rate`, at a seeded uniform offset inside its slot.
/// The rate is exact and bursts are bounded (at most two arrivals per
/// slot length), so run-to-run differences come from the program, not
/// from the luck of a Poisson draw.
pub fn jittered_arrivals(rng: &mut Rng, rate: f64, start_us: u64, end_us: u64) -> Vec<u64> {
    let slot_us = 1e6 / rate;
    let slots = ((end_us - start_us) as f64 / slot_us).floor() as u64;
    (0..slots)
        .map(|k| start_us + ((k as f64 + rng.unit()) * slot_us) as u64)
        .filter(|&at| at < end_us)
        .collect()
}

/// One scheduled request on one connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival {
    /// Offset from the start of the measured window, in microseconds.
    pub due_us: u64,
    /// What to send.
    pub kind: Kind,
    /// Ladder step the arrival belongs to (0 when there is no ladder).
    pub step: usize,
}

/// What one arrival sends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Kind {
    /// A paper query.
    Query {
        /// Wire priority: 0 batch, 2 interactive.
        priority: u8,
        /// Wire deadline in microseconds, 0 for none.
        deadline_us: u64,
    },
    /// A `Write` frame appending write batch `batch`.
    Write {
        /// Index into the workload's write batches.
        batch: usize,
    },
    /// A `Metrics` frame (counter snapshot at a step boundary).
    Metrics,
}

/// A query stream: jittered arrivals at `rates[k]` during ladder step
/// `k` (steps of `step_us`), priority `priority`, and every
/// `deadline_every`-th query carrying `deadline_us`.
pub fn query_stream(
    rng: &mut Rng,
    rates: &[f64],
    step_us: u64,
    priority: u8,
    (deadline_us, deadline_every): (u64, usize),
) -> Vec<Arrival> {
    let mut out = Vec::new();
    for (step, &rate) in rates.iter().enumerate() {
        let start = step as u64 * step_us;
        for due_us in jittered_arrivals(rng, rate, start, start + step_us) {
            let deadline_us =
                if out.len() % deadline_every == deadline_every - 1 { deadline_us } else { 0 };
            out.push(Arrival { due_us, kind: Kind::Query { priority, deadline_us }, step });
        }
    }
    out
}

/// Insert a `Metrics` arrival at each boundary offset (kept sorted by
/// due time; a metrics frame due with a query goes first).
pub fn with_metrics_at(mut stream: Vec<Arrival>, boundaries: &[(u64, usize)]) -> Vec<Arrival> {
    for &(due_us, step) in boundaries {
        let at = stream.partition_point(|a| a.due_us < due_us);
        stream.insert(at, Arrival { due_us, kind: Kind::Metrics, step });
    }
    stream
}

/// A write stream: jittered arrivals at `rate` over `[0, end_us)`, the
/// `i`-th arrival sending write batch `i`.
pub fn write_stream(rng: &mut Rng, rate: f64, end_us: u64) -> Vec<Arrival> {
    jittered_arrivals(rng, rate, 0, end_us)
        .into_iter()
        .enumerate()
        .map(|(batch, due_us)| Arrival { due_us, kind: Kind::Write { batch }, step: 0 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_one_schedule() {
        let make =
            |seed| query_stream(&mut Rng::new(seed, 1), &[500.0, 1000.0], 200_000, 2, (700, 4));
        assert_eq!(make(7), make(7));
        assert_ne!(make(7), make(8));
        let writes = |seed| write_stream(&mut Rng::new(seed, 2), 300.0, 500_000);
        assert_eq!(writes(3), writes(3));
    }

    #[test]
    fn streams_follow_their_rates_and_steps() {
        let s = query_stream(&mut Rng::new(1, 1), &[1000.0, 4000.0], 1_000_000, 2, (700, 4));
        let per_step = |k| s.iter().filter(|a| a.step == k).count() as f64;
        assert_eq!((per_step(0), per_step(1)), (1000.0, 4000.0));
        assert!(s.windows(2).all(|w| w[0].due_us <= w[1].due_us), "due times ascend");
        assert!(s.iter().all(|a| a.due_us < 2_000_000));
        // One arrival per slot: no slot of the first step holds two.
        assert!(s
            .iter()
            .filter(|a| a.step == 0)
            .enumerate()
            .all(|(k, a)| a.due_us / 1000 == k as u64));
        let with_deadline =
            s.iter().filter(|a| matches!(a.kind, Kind::Query { deadline_us: 700, .. })).count();
        assert_eq!(with_deadline, s.len() / 4);
    }

    #[test]
    fn metrics_frames_land_at_boundaries() {
        let s = query_stream(&mut Rng::new(1, 1), &[1000.0, 1000.0], 100_000, 2, (0, 1));
        let s = with_metrics_at(s, &[(0, 0), (100_000, 1), (200_000, 1)]);
        let at: Vec<_> = s.iter().filter(|a| a.kind == Kind::Metrics).map(|a| a.due_us).collect();
        assert_eq!(at, vec![0, 100_000, 200_000]);
        assert_eq!(s.first().map(|a| &a.kind), Some(&Kind::Metrics));
        assert!(s.windows(2).all(|w| w[0].due_us <= w[1].due_us));
    }
}
