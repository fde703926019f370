//! Output checks against oracles that share no code with the batmap
//! path, and order-independent digests of the checked answers.
//!
//! * pairs: exact [`PairMap`] equality with FP-growth's pair miner;
//! * itemsets: itemset and support equality with recursive FP-growth;
//! * serving: every answer equals a brute force over sorted tidlists of
//!   the live transactions, which the benchmark keeps itself
//!   ([`LiveModel`]).
//!
//! A check returns the first differing key (smallest in key order), so
//! a failure names something reproducible.

use batmap_server::{Probe, Request, Response};
use fim::apriori::Itemset;
use fim::PairMap;

/// 64-bit finalizer (splitmix64), the digests' mixing function.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Order-independent digest: a wrapping sum of mixed entries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Digest {
    pub fn add(&mut self, words: &[u64]) {
        let h = words.iter().fold(0x5EED_u64, |h, &w| mix(h ^ w));
        self.0 = self.0.wrapping_add(h);
    }
}

pub fn digest_pairs(pairs: &PairMap) -> Digest {
    let mut d = Digest::default();
    for (&(a, b), &s) in pairs {
        d.add(&[a as u64, b as u64, s]);
    }
    d
}

pub fn digest_itemsets(sets: &[Itemset]) -> Digest {
    let mut d = Digest::default();
    for set in sets {
        let mut words: Vec<u64> = set.items.iter().map(|&i| i as u64).collect();
        words.push(u64::MAX);
        words.push(set.support);
        d.add(&words);
    }
    d
}

/// `None` when `got == want`; otherwise the smallest differing pair.
pub fn diff_pairs(got: &PairMap, want: &PairMap) -> Option<String> {
    let mut bad: Vec<(u32, u32)> = got
        .iter()
        .filter(|(k, v)| want.get(k) != Some(v))
        .map(|(&k, _)| k)
        .collect();
    bad.extend(want.keys().filter(|k| !got.contains_key(k)));
    let key = bad.into_iter().min()?;
    Some(format!(
        "pair {key:?}: got {:?}, oracle {:?}",
        got.get(&key),
        want.get(&key)
    ))
}

/// `None` when both hold the same itemsets with the same supports
/// (in any order); otherwise the smallest differing itemset.
pub fn diff_itemsets(got: &[Itemset], want: &[Itemset]) -> Option<String> {
    use std::collections::BTreeMap;
    let index = |sets: &[Itemset]| -> BTreeMap<Vec<u32>, u64> {
        sets.iter().map(|s| (s.items.clone(), s.support)).collect()
    };
    let (g, w) = (index(got), index(want));
    if g.len() != got.len() {
        return Some(format!(
            "{} duplicate itemsets in the answer",
            got.len() - g.len()
        ));
    }
    let key = g
        .iter()
        .filter(|(k, v)| w.get(*k) != Some(v))
        .map(|(k, _)| k)
        .chain(w.keys().filter(|k| !g.contains_key(*k)))
        .min()?;
    Some(format!(
        "itemset {key:?}: got {:?}, oracle {:?}",
        g.get(key),
        w.get(key)
    ))
}

/// The benchmark's own copy of the served corpus: the live
/// transactions by slot, their vertical view rebuilt at each write
/// fence, and the transactions as of the last compaction (to predict
/// `Flushed(n)`).
pub struct LiveModel {
    n_items: u32,
    txns: Vec<Vec<u32>>,
    /// Transactions as of the last flush.
    flushed: Vec<Vec<u32>>,
    tidlists: Vec<Vec<u32>>,
    /// Scratch bitmap over transaction slots, for top-k brute force.
    probe_bits: Vec<u64>,
}

impl LiveModel {
    pub fn new(n_items: u32, txns: Vec<Vec<u32>>) -> LiveModel {
        let mut model = LiveModel {
            n_items,
            flushed: txns.clone(),
            probe_bits: vec![0; txns.len().div_ceil(64)],
            txns,
            tidlists: Vec::new(),
        };
        model.rebuild();
        model
    }

    /// Rebuild the vertical view from the live transactions.
    pub fn rebuild(&mut self) {
        self.tidlists = vec![Vec::new(); self.n_items as usize];
        for (tid, t) in self.txns.iter().enumerate() {
            for &item in t {
                self.tidlists[item as usize].push(tid as u32);
            }
        }
    }

    pub fn n_items(&self) -> u32 {
        self.n_items
    }

    pub fn slots(&self) -> usize {
        self.txns.len()
    }

    pub fn count(&self, a: u32, b: u32) -> u64 {
        let (x, y) = (&self.tidlists[a as usize], &self.tidlists[b as usize]);
        let (small, large) = if x.len() <= y.len() { (x, y) } else { (y, x) };
        small
            .iter()
            .filter(|t| large.binary_search(t).is_ok())
            .count() as u64
    }

    pub fn member(&self, set: u32, element: u32) -> bool {
        self.tidlists[set as usize].binary_search(&element).is_ok()
    }

    /// The `k` sets sharing most transactions with `probe` (count
    /// descending, then id ascending; zero counts and the probe itself
    /// left out).
    pub fn top_k(&mut self, probe: u32, k: usize) -> Vec<(u32, u64)> {
        self.probe_bits.iter_mut().for_each(|w| *w = 0);
        for &t in &self.tidlists[probe as usize] {
            self.probe_bits[t as usize / 64] |= 1 << (t % 64);
        }
        let bits = &self.probe_bits;
        let mut hits: Vec<(u32, u64)> = self
            .tidlists
            .iter()
            .enumerate()
            .filter(|&(s, _)| s as u32 != probe)
            .map(|(s, list)| {
                let n = list
                    .iter()
                    .filter(|&&t| bits[t as usize / 64] >> (t % 64) & 1 == 1)
                    .count();
                (s as u32, n as u64)
            })
            .filter(|&(_, n)| n > 0)
            .collect();
        hits.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        hits.truncate(k);
        hits
    }

    /// The brute-force answer to a read request.
    pub fn answer(&mut self, request: &Request) -> Response {
        match *request {
            Request::Count { a, b } => Response::Count(self.count(a, b)),
            Request::Member { set, element } => Response::Member(self.member(set, element)),
            Request::TopK {
                probe: Probe::Set(p),
                k,
            } => Response::TopK(self.top_k(p, k as usize)),
            ref other => panic!("the model answers reads only, not {other:?}"),
        }
    }

    /// Apply a write; returns the response the server must give.
    /// Writes change the transactions only: the vertical view is
    /// rebuilt at the fence ([`LiveModel::rebuild`]).
    pub fn apply(&mut self, request: &Request) -> Response {
        match request {
            Request::Insert { tid, items } => {
                let slot = &mut self.txns[*tid as usize];
                assert!(
                    slot.is_empty(),
                    "the write plan inserts into free slots only"
                );
                *slot = items.clone();
                Response::Applied(items.len() as u64)
            }
            Request::Remove { tid } => {
                let removed = std::mem::take(&mut self.txns[*tid as usize]);
                Response::Applied(removed.len() as u64)
            }
            Request::Flush => {
                // Memberships that differ from the last compacted base.
                let folded: usize = self
                    .txns
                    .iter()
                    .zip(&self.flushed)
                    .filter(|(now, then)| now != then)
                    .map(|(now, then)| {
                        let common = now.iter().filter(|i| then.binary_search(i).is_ok()).count();
                        now.len() + then.len() - 2 * common
                    })
                    .sum();
                self.flushed.clone_from(&self.txns);
                Response::Flushed(folded as u64)
            }
            other => panic!("not a write: {other:?}"),
        }
    }
}

/// `None` when `got` is the expected answer, else a description.
pub fn diff_response(
    what: &str,
    request: &Request,
    got: &Response,
    want: &Response,
) -> Option<String> {
    (got != want).then(|| format!("{what} {request:?}: got {got:?}, brute force {want:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(entries: &[((u32, u32), u64)]) -> PairMap {
        entries.iter().copied().collect()
    }

    #[test]
    fn corrupted_pair_support_is_rejected_with_its_key() {
        let want = pairs(&[((0, 1), 5), ((0, 2), 3), ((1, 2), 4)]);
        assert_eq!(diff_pairs(&want.clone(), &want), None);
        let mut got = want.clone();
        got.insert((0, 2), 2);
        let msg = diff_pairs(&got, &want).expect("corruption detected");
        assert!(msg.contains("(0, 2)"), "{msg}");
        // A missing pair and an extra pair are both caught.
        let mut missing = want.clone();
        missing.remove(&(1, 2));
        assert!(diff_pairs(&missing, &want).unwrap().contains("(1, 2)"));
        let mut extra = want.clone();
        extra.insert((3, 4), 1);
        assert!(diff_pairs(&extra, &want).unwrap().contains("(3, 4)"));
        assert_ne!(digest_pairs(&got), digest_pairs(&want));
    }

    #[test]
    fn corrupted_itemset_is_rejected_and_order_does_not_matter() {
        let set = |items: &[u32], support| Itemset {
            items: items.to_vec(),
            support,
        };
        let want = vec![set(&[0, 1], 9), set(&[0, 1, 2], 7), set(&[1, 2], 8)];
        let reordered = vec![want[2].clone(), want[0].clone(), want[1].clone()];
        assert_eq!(diff_itemsets(&reordered, &want), None);
        assert_eq!(digest_itemsets(&reordered), digest_itemsets(&want));
        let mut got = want.clone();
        got[1].support = 6;
        assert!(diff_itemsets(&got, &want).unwrap().contains("[0, 1, 2]"));
        assert_ne!(digest_itemsets(&got), digest_itemsets(&want));
    }

    #[test]
    fn model_answers_match_hand_counts_and_reject_a_wrong_answer() {
        let mut model = LiveModel::new(4, vec![vec![0, 1], vec![0, 1, 2], vec![], vec![1, 3]]);
        assert_eq!(model.count(0, 1), 2);
        assert!(model.member(3, 3) && !model.member(3, 0));
        assert_eq!(model.top_k(1, 10), vec![(0, 2), (2, 1), (3, 1)]);
        let count = Request::Count { a: 0, b: 1 };
        let want = model.answer(&count);
        assert_eq!(
            diff_response("read", &count, &Response::Count(2), &want),
            None
        );
        assert!(diff_response("read", &count, &Response::Count(3), &want).is_some());

        let insert = Request::Insert {
            tid: 2,
            items: vec![0, 2],
        };
        assert_eq!(model.apply(&insert), Response::Applied(2));
        assert_eq!(
            model.apply(&Request::Remove { tid: 0 }),
            Response::Applied(2)
        );
        // Two memberships added in slot 2, two removed from slot 0.
        assert_eq!(model.apply(&Request::Flush), Response::Flushed(4));
        assert_eq!(model.apply(&Request::Flush), Response::Flushed(0));
        model.rebuild();
        assert_eq!(model.count(0, 2), 2);
    }
}
