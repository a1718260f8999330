//! Answer oracles. None of them shares code with the engine: the join
//! oracle is a hash join, the serve oracles are closed forms.

use std::collections::HashMap;

use mpsm_core::Tuple;

/// The paper query's answer: `max(R.payload + S.payload)` and the
/// number of joined rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinAnswer {
    /// `None` when the join is empty.
    pub max: Option<u64>,
    /// Joined rows.
    pub rows: u64,
}

/// Hash-join oracle: per R key, its count and largest payload; then one
/// probe per S tuple.
pub fn hash_join(r: &[Tuple], s: &[Tuple]) -> JoinAnswer {
    let mut by_key: HashMap<u64, (u64, u64)> = HashMap::with_capacity(r.len());
    for t in r {
        let e = by_key.entry(t.key).or_insert((0, 0));
        e.0 += 1;
        e.1 = e.1.max(t.payload);
    }
    let mut answer = JoinAnswer { max: None, rows: 0 };
    for t in s {
        if let Some(&(count, max_payload)) = by_key.get(&t.key) {
            answer.rows += count;
            let v = max_payload.wrapping_add(t.payload);
            answer.max = Some(answer.max.map_or(v, |m| m.max(v)));
        }
    }
    answer
}

/// The closed-form relation both serve workloads start from: every key
/// in `0..n` exactly once, payload = key, in a seeded order.
pub fn closed_form_relation(n: u64, order: &mut crate::schedule::Rng) -> Vec<(u64, u64)> {
    let mut keys: Vec<u64> = (0..n).collect();
    order.shuffle(&mut keys);
    keys.into_iter().map(|k| (k, k)).collect()
}

/// `max(R.payload + S.payload)` of two closed-form relations over `0..n`.
pub fn closed_form_max(n: u64) -> u64 {
    2 * (n - 1)
}

/// The answers of the HTAP workload's query after each prefix of its
/// write batches: `R` and `S` start as closed-form relations over
/// `0..n`, and write batch `i` appends `batch_len` tuples to `R`, each
/// with a key in `0..n` (so it joins exactly one `S` tuple, whose
/// payload equals the key).
#[derive(Debug, Clone)]
pub struct WritePrefixes {
    n: u64,
    batch_len: u64,
    /// `maxes[j]`: the full answer once batches `0..j` are visible.
    maxes: Vec<u64>,
}

impl WritePrefixes {
    /// Closed forms for every prefix of `batches`.
    pub fn new(n: u64, batches: &[Vec<(u64, u64)>]) -> Self {
        let batch_len = batches.first().map_or(0, |b| b.len() as u64);
        assert!(batches.iter().all(|b| b.len() as u64 == batch_len), "batches share one size");
        let mut maxes = vec![closed_form_max(n)];
        for batch in batches {
            assert!(batch.iter().all(|&(k, _)| k < n), "written keys join one S tuple");
            let best = batch.iter().map(|&(k, p)| p + k).max().unwrap_or(0);
            maxes.push(maxes.last().copied().unwrap_or(0).max(best));
        }
        WritePrefixes { n, batch_len, maxes }
    }

    /// Which prefix a reply saw, from the R rows that entered the join.
    pub fn prefix_of(&self, r_selected: u64) -> Option<usize> {
        let extra = r_selected.checked_sub(self.n)?;
        if self.batch_len == 0 {
            return (extra == 0).then_some(0);
        }
        let j = (extra % self.batch_len == 0).then_some((extra / self.batch_len) as usize)?;
        (j < self.maxes.len()).then_some(j)
    }

    /// Check one reply against the bracket: it must show some prefix
    /// `j` with `acked_before_send <= j <= sent_before_reply`, and its
    /// max must equal (complete) or not exceed (partial) that prefix's
    /// closed form.
    pub fn check(
        &self,
        acked_before_send: usize,
        sent_before_reply: usize,
        r_selected: u64,
        max: Option<u64>,
        complete: bool,
    ) -> Result<usize, String> {
        let j = self
            .prefix_of(r_selected)
            .ok_or_else(|| format!("r_selected {r_selected} matches no write prefix"))?;
        if !(acked_before_send..=sent_before_reply).contains(&j) {
            return Err(format!(
                "reply saw {j} write batches, outside [{acked_before_send}, {sent_before_reply}]"
            ));
        }
        let expected = self.maxes[j];
        let ok = if complete { max == Some(expected) } else { max.is_none_or(|m| m <= expected) };
        if ok {
            Ok(j)
        } else {
            Err(format!(
                "{} answer {max:?} after {j} write batches, closed form {expected}",
                if complete { "complete" } else { "partial" }
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Rng;

    fn nested_loop(r: &[Tuple], s: &[Tuple]) -> JoinAnswer {
        let mut answer = JoinAnswer { max: None, rows: 0 };
        for a in r {
            for b in s.iter().filter(|b| b.key == a.key) {
                answer.rows += 1;
                let v = a.payload + b.payload;
                answer.max = Some(answer.max.map_or(v, |m| m.max(v)));
            }
        }
        answer
    }

    #[test]
    fn hash_join_matches_a_nested_loop() {
        let mut rng = Rng::new(11, 0);
        for (r_len, s_len, domain) in [(0, 5, 4), (5, 0, 4), (40, 160, 8), (64, 256, 300)] {
            let r: Vec<Tuple> = (0..r_len).map(|i| Tuple::new(rng.below(domain), i)).collect();
            let s: Vec<Tuple> = (0..s_len).map(|i| Tuple::new(rng.below(domain), i)).collect();
            assert_eq!(hash_join(&r, &s), nested_loop(&r, &s), "|R|={r_len} |S|={s_len}");
        }
    }

    #[test]
    fn closed_form_relations_hold_every_key_once() {
        let mut rel = closed_form_relation(100, &mut Rng::new(3, 0));
        let max = {
            let r: Vec<Tuple> = rel.iter().map(|&(k, p)| Tuple::new(k, p)).collect();
            hash_join(&r, &r)
        };
        assert_eq!(max, JoinAnswer { max: Some(closed_form_max(100)), rows: 100 });
        rel.sort_unstable();
        assert!(rel.iter().enumerate().all(|(i, &(k, p))| k == i as u64 && p == k));
    }

    fn prefixes() -> WritePrefixes {
        // n = 10: base answer 18. Batch 0 raises it to 25, batch 1
        // leaves it, batch 2 raises it to 40.
        WritePrefixes::new(
            10,
            &[vec![(5, 20), (1, 2)], vec![(0, 3), (2, 2)], vec![(9, 31), (0, 0)]],
        )
    }

    #[test]
    fn write_prefix_closed_forms_follow_the_batches() {
        let p = prefixes();
        assert_eq!(p.maxes, vec![18, 25, 25, 40]);
        assert_eq!(p.prefix_of(10), Some(0));
        assert_eq!(p.prefix_of(14), Some(2));
        assert_eq!(p.prefix_of(13), None, "not a whole number of batches");
        assert_eq!(p.prefix_of(18), None, "more batches than were written");
        assert_eq!(p.prefix_of(9), None);
    }

    #[test]
    fn the_bracket_accepts_only_prefixes_between_ack_and_reply() {
        let p = prefixes();
        // Two batches visible (r_selected = 14), answer 25.
        assert_eq!(p.check(1, 3, 14, Some(25), true), Ok(2));
        assert_eq!(p.check(2, 2, 14, Some(25), true), Ok(2));
        // Acked before send, yet not visible: a lost write.
        assert!(p.check(3, 3, 14, Some(25), true).is_err());
        // Visible although not yet sent when the reply came back.
        assert!(p.check(0, 1, 14, Some(25), true).is_err());
        // Right prefix, wrong answer: a torn read.
        assert!(p.check(0, 3, 14, Some(40), true).is_err());
        assert!(p.check(0, 3, 14, Some(18), true).is_err());
        // A partial may fall short of the closed form, never exceed it.
        assert_eq!(p.check(0, 3, 14, Some(18), false), Ok(2));
        assert_eq!(p.check(0, 3, 14, None, false), Ok(2));
        assert!(p.check(0, 3, 14, Some(26), false).is_err());
    }
}
