//! Levelwise frequent k-itemset mining: the pair pipeline for level 2,
//! then one materialized prefix intersection per candidate group.
//!
//! The paper closes (§V) by asking how to count itemsets beyond pairs.
//! [`LevelwiseMiner`] answers with the standard vertical-mining
//! composition: fold the intersection of a shared prefix once, then
//! count every extension against it.
//!
//! 1. **Level 2** comes from the ordinary tiled pair pipeline
//!    ([`crate::miner::mine`]) — or from caller-supplied frequent
//!    pairs, so any pair engine can seed it.
//! 2. **Candidates** for each level `k = 3..=d` come from the Apriori
//!    join ([`fim::apriori::generate_candidates`]): a k-itemset can
//!    only be frequent if all its (k−1)-subsets are. The join emits
//!    candidates sorted, with all extensions of one (k−1)-prefix
//!    consecutive.
//! 3. **Per-item sets.** Every item that appears in a candidate is
//!    held once per call, in the smaller of two forms: a dense
//!    `⌈m/64⌉`-word bitmap over the `m` transactions when
//!    [`bitmap_width_bytes`]`(m) ≤ `[`tidlist_width_bytes`]`(len)`
//!    (the footprint rule of the hybrid storage policy), otherwise its
//!    sorted tidlist, borrowed from the vertical view.
//! 4. **Prefix fold.** For each prefix group the `k − 1` prefix items
//!    are intersected once into a per-worker buffer: a word-wise AND
//!    when every prefix item is dense, otherwise a sorted tid list —
//!    the sparsest operand's tids, filtered through the others' bit
//!    tests or galloping searches.
//! 5. **Per-extension count.** Each extension is counted against that
//!    buffer: AND + popcount when both sides are dense, the sparse
//!    side's tids streamed through the dense side's bit test, or
//!    [`fim::merge::count_galloping`] when both are sparse.
//! 6. **Parallelism**: prefix groups are partitioned across workers
//!    with the same longest-processing-time rule the tile executors
//!    use ([`crate::executor::balanced_partition`]), honouring the
//!    [`Parallelism`] knob (and therefore `BATMAP_THREADS`).
//!
//! Both forms count exactly; [`LevelReport::fallback`] tallies the
//! candidates counted against a sparse prefix. The storage
//! [`batmap::ReprPolicy`] governs the pair stage only; for `k ≥ 3` the
//! footprint rule decides per item.
//!
//! Levels that produce no candidates are still reported — as
//! zero-candidate [`LevelReport`]s — and short-circuit all the work
//! above (no candidate join, no vertical view, no per-item sets), so
//! an empty level 2 costs nothing.
//!
//! The d-of-(d+1) [`batmap::MultiwayBatmap`] of §V stays in the batmap
//! crate as the paper's reproduction; this engine does not use it. Its
//! k-way positional sweep visits all `(d+1)·r` slots per candidate: on
//! the repository benchmark's dense itemset workload (32 items, 40,920
//! candidates at k = 3..4) the mining call took about 60× as long.

use crate::executor::balanced_partition;
use crate::miner::{mine, MinerConfig, MiningReport};
use batmap::repr::{bitmap_width_bytes, tidlist_width_bytes};
use batmap::Parallelism;
use fim::apriori::{generate_candidates, Itemset};
use fim::merge::count_galloping;
use fim::pairs::PairMap;
use fim::{TransactionDb, VerticalDb};
use hpcutil::Stopwatch;
use rayon::prelude::*;
use std::cell::OnceCell;

/// Configuration of the levelwise engine.
#[derive(Debug, Clone)]
pub struct LevelwiseConfig {
    /// Largest itemset size to mine (`d`). Must be in `2..=15`.
    pub depth: usize,
    /// Configuration of the level-2 pair stage; its `minsup` and
    /// `threads` govern the higher levels too.
    pub pair: MinerConfig,
}

impl Default for LevelwiseConfig {
    fn default() -> Self {
        LevelwiseConfig {
            depth: 3,
            pair: MinerConfig::default(),
        }
    }
}

/// Per-level accounting. Every level `2..=depth` is reported, including
/// levels with zero candidates (a level the Apriori join exhausted is
/// data, not an omission).
#[derive(Debug, Clone, Default)]
pub struct LevelReport {
    /// Itemset size of this level.
    pub k: usize,
    /// Candidates the Apriori join generated (for level 2: the seeded
    /// frequent pairs themselves).
    pub candidates: usize,
    /// Candidates at or above `minsup`.
    pub frequent: usize,
    /// Candidates counted against a dense (bitmap) prefix intersection.
    pub batched: usize,
    /// Candidates counted against a sparse (sorted tid list) prefix
    /// intersection: some prefix item is held as a tidlist.
    pub fallback: usize,
    /// Wall seconds spent generating and counting this level.
    pub wall_s: f64,
}

/// Full result of a levelwise run.
#[derive(Debug, Clone)]
pub struct LevelwiseReport {
    /// All frequent itemsets of size `2..=depth`, sorted by (size,
    /// items).
    pub itemsets: Vec<Itemset>,
    /// One entry per level `k = 2..=depth`, in order.
    pub levels: Vec<LevelReport>,
    /// Candidate items held as tidlists rather than bitmaps (their
    /// tidlist is smaller than a bitmap over all transactions).
    pub fallback_items: usize,
    /// The pair stage's full report when this run mined level 2 itself
    /// ([`LevelwiseMiner::mine`]); `None` when seeded from caller
    /// pairs.
    pub pair_report: Option<MiningReport>,
}

impl LevelwiseReport {
    /// The report of level `k`, if `k` is within the mined depth.
    pub fn level(&self, k: usize) -> Option<&LevelReport> {
        self.levels.iter().find(|l| l.k == k)
    }

    /// The frequent itemsets of size `k`, in item order.
    pub fn itemsets_of_len(&self, k: usize) -> Vec<&Itemset> {
        self.itemsets
            .iter()
            .filter(|s| s.items.len() == k)
            .collect()
    }
}

/// The levelwise k-itemset mining engine. See the module docs for the
/// pipeline; construct with [`LevelwiseMiner::new`], run with
/// [`LevelwiseMiner::mine`] (pairs included) or
/// [`LevelwiseMiner::mine_from_pairs`] (seed level 2 externally).
#[derive(Debug, Clone, Default)]
pub struct LevelwiseMiner {
    config: LevelwiseConfig,
}

impl LevelwiseMiner {
    /// Create an engine for the given configuration.
    ///
    /// # Panics
    /// Panics unless `2 ≤ depth ≤ 15` (the bound the serving protocol
    /// enforces too).
    pub fn new(config: LevelwiseConfig) -> Self {
        assert!(
            (2..=15).contains(&config.depth),
            "depth must be in 2..=15, got {}",
            config.depth
        );
        LevelwiseMiner { config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &LevelwiseConfig {
        &self.config
    }

    /// Mine all frequent itemsets of size `2..=depth`: the tiled pair
    /// pipeline produces level 2, the prefix-fold levels follow.
    pub fn mine(&self, db: &TransactionDb) -> LevelwiseReport {
        let pair_report = mine(db, &self.config.pair);
        let mut report = self.mine_from_pairs(db, &pair_report.pairs);
        report.pair_report = Some(pair_report);
        report
    }

    /// [`LevelwiseMiner::mine`] with an **already-built** pair corpus —
    /// e.g. one loaded from a snapshot
    /// (`Preprocessed::read_snapshot`) — so level 2 skips
    /// preprocessing entirely (`crate::miner::mine_preprocessed`).
    /// Produces the same itemsets as a full run over the database the
    /// corpus was built from (pinned by `tests/snapshot.rs`).
    pub fn mine_with_preprocessed(
        &self,
        db: &TransactionDb,
        pre: &crate::preprocess::Preprocessed,
    ) -> LevelwiseReport {
        let pair_report = crate::miner::mine_preprocessed(db, pre, &self.config.pair);
        let mut report = self.mine_from_pairs(db, &pair_report.pairs);
        report.pair_report = Some(pair_report);
        report
    }

    /// Mine levels `3..=depth` on top of caller-supplied frequent
    /// pairs. `frequent_pairs` must be the minsup-filtered pair
    /// supports of `db` (from any engine); level 2 is reported from
    /// them verbatim.
    pub fn mine_from_pairs(&self, db: &TransactionDb, frequent_pairs: &PairMap) -> LevelwiseReport {
        let minsup = self.config.pair.minsup.max(1);
        let mut itemsets: Vec<Itemset> = frequent_pairs
            .iter()
            .map(|(&(i, j), &support)| Itemset {
                items: vec![i, j],
                support,
            })
            .collect();
        itemsets.sort_unstable_by(|a, b| a.items.cmp(&b.items));
        let mut levels = vec![LevelReport {
            k: 2,
            candidates: frequent_pairs.len(),
            frequent: frequent_pairs.len(),
            ..Default::default()
        }];
        let mut current: Vec<Vec<u32>> = itemsets.iter().map(|s| s.items.clone()).collect();

        // Built lazily: the vertical view exists only once some level
        // has candidates, and each item's set only once it appears in
        // one.
        let vertical: OnceCell<VerticalDb> = OnceCell::new();
        let mut sets: Vec<Option<ItemSet<'_>>> = Vec::new();

        for k in 3..=self.config.depth {
            let mut sw = Stopwatch::start();
            // Short-circuit exhausted levels: no join, no counting —
            // but still a (zero-candidate) report.
            let candidates = if current.is_empty() {
                Vec::new()
            } else {
                generate_candidates(&current)
            };
            let mut level = LevelReport {
                k,
                candidates: candidates.len(),
                ..Default::default()
            };
            if candidates.is_empty() {
                current.clear();
                level.wall_s = sw.lap().as_secs_f64();
                levels.push(level);
                continue;
            }
            let vertical = vertical.get_or_init(|| VerticalDb::from_horizontal(db));
            sets.resize_with(vertical.n_items() as usize, || None);
            for &item in candidates.iter().flatten() {
                sets[item as usize]
                    .get_or_insert_with(|| ItemSet::build(vertical.tidlist(item), vertical.m()));
            }
            let supports = count_level(
                &candidates,
                &sets,
                self.config.pair.options.threads,
                &mut level,
            );
            current = Vec::new();
            for (cand, support) in candidates.into_iter().zip(supports) {
                if support >= minsup {
                    level.frequent += 1;
                    current.push(cand.clone());
                    itemsets.push(Itemset {
                        items: cand,
                        support,
                    });
                }
            }
            level.wall_s = sw.lap().as_secs_f64();
            levels.push(level);
        }
        itemsets.sort_unstable_by(|a, b| (a.items.len(), &a.items).cmp(&(b.items.len(), &b.items)));
        LevelwiseReport {
            itemsets,
            levels,
            fallback_items: sets
                .iter()
                .filter(|s| matches!(s, Some(ItemSet::Sparse(_))))
                .count(),
            pair_report: None,
        }
    }
}

/// One prefix-group of a level's candidate list: `len` consecutive
/// candidates starting at `start`, all sharing their first `k − 1`
/// items.
#[derive(Debug, Clone, Copy)]
struct Group {
    start: usize,
    len: usize,
}

/// Count one level's candidates, prefix-group by prefix-group,
/// partitioned across workers with the executors' LPT rule. Returns
/// supports aligned with `candidates` and fills the level's
/// batched/fallback tallies.
fn count_level(
    candidates: &[Vec<u32>],
    sets: &[Option<ItemSet<'_>>],
    threads: Parallelism,
    level: &mut LevelReport,
) -> Vec<u64> {
    let groups = prefix_groups(candidates);
    let workers = threads.resolve_with(rayon::current_num_threads());
    let buckets = if workers <= 1 || groups.len() < 2 {
        vec![groups]
    } else {
        balanced_partition(groups, workers, |g| g.len)
    };
    let count = |bucket: Vec<Group>| {
        let (counts, fallback) = count_bucket(&bucket, candidates, sets);
        (bucket, counts, fallback)
    };
    let counted: Vec<(Vec<Group>, Vec<u64>, usize)> = if buckets.len() == 1 {
        buckets.into_iter().map(count).collect()
    } else {
        let run = || -> Vec<_> { buckets.into_par_iter().map(count).collect() };
        match threads.pinned() {
            Some(n) if n > 1 => hpcutil::scoped_pool(n, run),
            _ => run(),
        }
    };
    let mut supports = vec![0u64; candidates.len()];
    for (bucket, counts, fallback) in counted {
        level.fallback += fallback;
        let mut counts = counts.as_slice();
        for g in bucket {
            let (group, rest) = counts.split_at(g.len);
            supports[g.start..g.start + g.len].copy_from_slice(group);
            counts = rest;
        }
    }
    level.batched = candidates.len() - level.fallback;
    supports
}

/// Split a sorted candidate list into its runs of equal (k−1)-prefixes.
fn prefix_groups(candidates: &[Vec<u32>]) -> Vec<Group> {
    let mut groups: Vec<Group> = Vec::new();
    for (i, cand) in candidates.iter().enumerate() {
        let prefix = &cand[..cand.len() - 1];
        match groups.last_mut() {
            Some(g) if candidates[g.start][..prefix.len()] == *prefix => g.len += 1,
            _ => groups.push(Group { start: i, len: 1 }),
        }
    }
    groups
}

/// Count one worker's groups in order, reusing one prefix buffer
/// across them. Returns the supports of the groups' candidates,
/// concatenated, and how many were counted against a sparse prefix.
fn count_bucket(
    groups: &[Group],
    candidates: &[Vec<u32>],
    sets: &[Option<ItemSet<'_>>],
) -> (Vec<u64>, usize) {
    let set = |item: u32| {
        sets[item as usize]
            .as_ref()
            .expect("candidate items are built")
    };
    let mut prefix = PrefixBuf::default();
    let mut counts = Vec::with_capacity(groups.iter().map(|g| g.len).sum());
    let mut fallback = 0;
    for g in groups {
        let cands = &candidates[g.start..g.start + g.len];
        let items = &cands[0][..cands[0].len() - 1];
        let folded = prefix.fold(items.iter().map(|&i| set(i)));
        if matches!(folded, Prefix::Sparse(_)) {
            fallback += g.len;
        }
        counts.extend(cands.iter().map(|c| {
            let ext = set(*c.last().expect("candidates are non-empty"));
            folded.count(ext)
        }));
    }
    (counts, fallback)
}

/// One item's vertical set, in the form the footprint rule picks.
enum ItemSet<'v> {
    /// Bit `t` of word `t / 64` set iff transaction `t` holds the item.
    Dense(Box<[u64]>),
    /// The item's sorted tidlist, borrowed from the vertical view.
    Sparse(&'v [u32]),
}

impl<'v> ItemSet<'v> {
    /// Hold `tidlist`, over `m` transactions, in the smaller form.
    fn build(tidlist: &'v [u32], m: u32) -> Self {
        if bitmap_width_bytes(m as u64) > tidlist_width_bytes(tidlist.len()) {
            return ItemSet::Sparse(tidlist);
        }
        let mut words = vec![0u64; (m as usize).div_ceil(64)];
        for &t in tidlist {
            words[t as usize / 64] |= 1 << (t % 64);
        }
        ItemSet::Dense(words.into_boxed_slice())
    }
}

/// A materialized prefix intersection.
enum Prefix<'a> {
    /// Every prefix item is dense: the AND of their bitmaps.
    Dense(&'a [u64]),
    /// Some prefix item is sparse: the sorted tids in every prefix set.
    Sparse(&'a [u32]),
}

impl Prefix<'_> {
    /// `|prefix ∩ ext|`.
    fn count(&self, ext: &ItemSet<'_>) -> u64 {
        match (self, ext) {
            (Prefix::Dense(p), ItemSet::Dense(e)) => p
                .iter()
                .zip(e.iter())
                .map(|(a, b)| (a & b).count_ones() as u64)
                .sum(),
            (Prefix::Dense(words), ItemSet::Sparse(tids)) => count_bits(words, tids),
            (Prefix::Sparse(tids), ItemSet::Dense(words)) => count_bits(words, tids),
            (Prefix::Sparse(p), ItemSet::Sparse(e)) => count_galloping(p, e),
        }
    }
}

/// The per-worker scratch the prefix fold writes into.
#[derive(Default)]
struct PrefixBuf {
    words: Vec<u64>,
    tids: Vec<u32>,
}

impl PrefixBuf {
    /// Intersect the prefix `items` (at least one) into this buffer.
    fn fold<'a, 'v: 'a>(
        &mut self,
        items: impl Iterator<Item = &'a ItemSet<'v>> + Clone,
    ) -> Prefix<'_> {
        let sparsest = items
            .clone()
            .enumerate()
            .filter_map(|(i, s)| match s {
                ItemSet::Sparse(tids) => Some((i, *tids)),
                ItemSet::Dense(_) => None,
            })
            .min_by_key(|(_, tids)| tids.len());
        let Some((seed_at, seed)) = sparsest else {
            let mut bitmaps = items.map(|s| match s {
                ItemSet::Dense(words) => words,
                ItemSet::Sparse(_) => unreachable!("no prefix item is sparse"),
            });
            self.words.clear();
            self.words
                .extend_from_slice(bitmaps.next().expect("prefixes are non-empty"));
            for words in bitmaps {
                for (a, b) in self.words.iter_mut().zip(words.iter()) {
                    *a &= b;
                }
            }
            return Prefix::Dense(&self.words);
        };
        self.tids.clear();
        self.tids.extend_from_slice(seed);
        for (i, set) in items.enumerate() {
            match set {
                _ if i == seed_at => {}
                ItemSet::Dense(words) => self.tids.retain(|&t| bit(words, t)),
                ItemSet::Sparse(list) => {
                    let mut at = 0;
                    self.tids.retain(|&t| {
                        at = gallop(list, at, t);
                        list.get(at) == Some(&t)
                    });
                }
            }
        }
        Prefix::Sparse(&self.tids)
    }
}

/// Whether bit `t` is set.
#[inline]
fn bit(words: &[u64], t: u32) -> bool {
    words[t as usize / 64] >> (t % 64) & 1 == 1
}

/// How many of `tids` have their bit set in `words`.
fn count_bits(words: &[u64], tids: &[u32]) -> u64 {
    tids.iter().filter(|&&t| bit(words, t)).count() as u64
}

/// First index `≥ from` of `list` whose value is `≥ x`: exponential
/// steps from `from`, then a binary search in the last step.
fn gallop(list: &[u32], from: usize, x: u32) -> usize {
    let mut step = 1;
    let mut hi = from;
    while hi < list.len() && list[hi] < x {
        hi = (hi + step).min(list.len());
        step *= 2;
    }
    let lo = from.max(hi.saturating_sub(step / 2));
    lo + list[lo..hi].partition_point(|&y| y < x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miner::Engine;
    use fim::apriori;
    use std::collections::BTreeSet;

    fn db() -> TransactionDb {
        TransactionDb::new(
            12,
            (0..600usize)
                .map(|t| (0..12u32).filter(|&i| (t as u32 + i * 5) % 7 < 3).collect())
                .collect(),
        )
    }

    /// 1000 transactions (not a multiple of 64, so the tail word is
    /// live): items 0 and 1 sparse (24 and 12 tids, below the 32-tid
    /// footprint threshold), 2..=5 dense, 6 sparse again, 7 never
    /// occurs. Every sparse tid also carries the dense items.
    fn mixed_db() -> TransactionDb {
        TransactionDb::new(
            8,
            (0..1000u32)
                .map(|t| {
                    let rare = t % 41 == 3;
                    (0..8u32)
                        .filter(|&i| match i {
                            0 => rare,
                            1 | 6 => rare && t % 2 == i % 2,
                            2..=5 => rare || (t * 7 + i * 13) % 10 < 6,
                            _ => false,
                        })
                        .collect()
                })
                .collect(),
        )
    }

    fn config(depth: usize, minsup: u64) -> LevelwiseConfig {
        LevelwiseConfig {
            depth,
            pair: MinerConfig {
                minsup,
                engine: Engine::Cpu,
                ..Default::default()
            },
        }
    }

    /// Oracle comparison helper: the apriori levelwise miner over the
    /// same depth, sorted the same way.
    fn oracle(d: &TransactionDb, minsup: u64, depth: usize) -> Vec<Itemset> {
        let mut sets = apriori::mine(d, minsup, depth);
        sets.sort_unstable_by(|a, b| (a.items.len(), &a.items).cmp(&(b.items.len(), &b.items)));
        sets
    }

    fn frequent_pairs(d: &TransactionDb, minsup: u64) -> PairMap {
        mine(
            d,
            &MinerConfig {
                minsup,
                ..Default::default()
            },
        )
        .pairs
    }

    #[test]
    fn matches_apriori_across_depths_and_minsups() {
        let d = db();
        for depth in [2usize, 3, 4, 5] {
            for minsup in [20u64, 60, 120] {
                let report = LevelwiseMiner::new(config(depth, minsup)).mine(&d);
                assert_eq!(
                    report.itemsets,
                    oracle(&d, minsup, depth),
                    "depth={depth} minsup={minsup}"
                );
                assert_eq!(report.levels.len(), depth - 1, "one report per level");
                for (i, level) in report.levels.iter().enumerate() {
                    assert_eq!(level.k, i + 2);
                    assert_eq!(
                        level.frequent,
                        report.itemsets_of_len(level.k).len(),
                        "depth={depth} minsup={minsup} k={}",
                        level.k
                    );
                }
                assert!(report.pair_report.is_some());
            }
        }
    }

    #[test]
    fn forced_fallback_still_exact() {
        // Sparse items force the sorted-tid-list prefix path; dense
        // ones keep the bitmap path busy in the same run.
        let d = mixed_db();
        for depth in [3usize, 4, 5] {
            let report = LevelwiseMiner::new(config(depth, 5)).mine(&d);
            assert_eq!(report.itemsets, oracle(&d, 5, depth), "depth={depth}");
            assert_eq!(report.fallback_items, 3, "items 0, 1 and 6 are tidlists");
            let (batched, fallback) = report.levels[1..]
                .iter()
                .fold((0, 0), |(b, f), l| (b + l.batched, f + l.fallback));
            assert!(batched > 0 && fallback > 0, "depth={depth}");
            for level in &report.levels[1..] {
                assert_eq!(level.batched + level.fallback, level.candidates);
            }
        }
    }

    #[test]
    fn prefix_fold_exact() {
        // Both forms of every operand, incl. an empty tidlist and a
        // universe whose last word is partial, against a set oracle.
        let m = 1000u32;
        let lists: Vec<Vec<u32>> = vec![
            (0..m).filter(|t| t % 2 == 0).collect(),
            (0..m).filter(|t| t % 3 == 0).collect(),
            (0..m).filter(|t| t % 5 == 0 || *t == m - 1).collect(),
            vec![0, 30, 990, 999],
            Vec::new(),
        ];
        let dense = |l: &[u32]| {
            let mut words = vec![0u64; (m as usize).div_ceil(64)];
            l.iter()
                .for_each(|&t| words[t as usize / 64] |= 1 << (t % 64));
            ItemSet::Dense(words.into_boxed_slice())
        };
        let forms: Vec<[ItemSet<'_>; 2]> = lists
            .iter()
            .map(|l| [dense(l), ItemSet::Sparse(l)])
            .collect();
        let exact = |ids: &[usize]| {
            let mut acc: BTreeSet<u32> = lists[ids[0]].iter().copied().collect();
            for &i in &ids[1..] {
                acc.retain(|t| lists[i].contains(t));
            }
            acc.len() as u64
        };
        let mut buf = PrefixBuf::default();
        for ids in [vec![0, 1, 2], vec![2, 0, 1], vec![0, 3, 2], vec![1, 4, 0]] {
            let (prefix, ext) = ids.split_at(ids.len() - 1);
            for mask in 0..1u32 << ids.len() {
                let form = |pos: usize, id: usize| &forms[id][(mask >> pos & 1) as usize];
                let folded = buf.fold(prefix.iter().enumerate().map(|(p, &id)| form(p, id)));
                assert_eq!(
                    folded.count(form(prefix.len(), ext[0])),
                    exact(&ids),
                    "ids={ids:?} mask={mask:b}"
                );
            }
        }
        // The footprint rule: 32 tids of 1000 cost as much as the
        // 16-word bitmap, so they go dense; 31 stay a tidlist.
        assert!(matches!(
            ItemSet::build(&lists[0][..32], m),
            ItemSet::Dense(_)
        ));
        assert!(matches!(
            ItemSet::build(&lists[0][..31], m),
            ItemSet::Sparse(_)
        ));
        assert!(matches!(ItemSet::build(&[], m), ItemSet::Sparse(_)));
    }

    #[test]
    fn empty_levels_are_reported_not_skipped() {
        // minsup above every pair support: level 2 is empty, levels
        // 3..=5 must still appear as zero-candidate reports.
        let d = db();
        let report = LevelwiseMiner::new(config(5, 1_000_000)).mine(&d);
        assert!(report.itemsets.is_empty());
        assert_eq!(report.levels.len(), 4);
        for level in &report.levels {
            assert_eq!(level.candidates, 0, "k={}", level.k);
            assert_eq!(level.frequent, 0);
        }
        // And no per-item set was built.
        assert_eq!(report.fallback_items, 0);
    }

    #[test]
    fn seeded_pairs_match_full_run() {
        let d = db();
        let minsup = 40;
        let full = LevelwiseMiner::new(config(4, minsup)).mine(&d);
        let pairs = frequent_pairs(&d, minsup);
        let seeded = LevelwiseMiner::new(config(4, minsup)).mine_from_pairs(&d, &pairs);
        assert_eq!(seeded.itemsets, full.itemsets);
        assert!(seeded.pair_report.is_none());
    }

    #[test]
    fn triples_match_apriori_level3() {
        let d = db();
        for minsup in [20u64, 60, 120] {
            let pairs = frequent_pairs(&d, minsup);
            let report = LevelwiseMiner::new(config(3, minsup)).mine_from_pairs(&d, &pairs);
            let expect = oracle(&d, minsup, 3);
            let expect: Vec<&Itemset> = expect.iter().filter(|s| s.items.len() == 3).collect();
            assert_eq!(report.itemsets_of_len(3), expect, "minsup={minsup}");
        }
    }

    #[test]
    fn depth3_equals_level3_of_deeper_runs() {
        let d = mixed_db();
        for minsup in [5u64, 20] {
            let pairs = frequent_pairs(&d, minsup);
            let triples = LevelwiseMiner::new(config(3, minsup)).mine_from_pairs(&d, &pairs);
            let deeper = LevelwiseMiner::new(config(5, minsup)).mine_from_pairs(&d, &pairs);
            assert_eq!(
                triples.itemsets_of_len(3),
                deeper.itemsets_of_len(3),
                "minsup={minsup}"
            );
            assert_eq!(
                triples.level(3).map(|l| l.candidates),
                deeper.level(3).map(|l| l.candidates)
            );
        }
    }

    #[test]
    fn no_frequent_pairs_no_triples() {
        let d = db();
        let report = LevelwiseMiner::new(config(3, 1)).mine_from_pairs(&d, &PairMap::default());
        assert!(report.itemsets.is_empty());
        assert_eq!(report.level(3).map(|l| l.candidates), Some(0));
        assert_eq!(report.fallback_items, 0, "no per-item sets built");
    }

    #[test]
    fn parallel_and_serial_agree() {
        for d in [db(), mixed_db()] {
            let mut serial_cfg = config(4, 5);
            serial_cfg.pair.options.threads = Parallelism::Serial;
            let serial = LevelwiseMiner::new(serial_cfg).mine(&d);
            for threads in [2usize, 4, 8] {
                let mut cfg = config(4, 5);
                cfg.pair.options.threads = Parallelism::threads(threads);
                let parallel = LevelwiseMiner::new(cfg).mine(&d);
                assert_eq!(parallel.itemsets, serial.itemsets, "threads={threads}");
                for (p, s) in parallel.levels.iter().zip(&serial.levels) {
                    assert_eq!((p.batched, p.fallback), (s.batched, s.fallback));
                }
            }
        }
    }

    #[test]
    fn hybrid_policy_matches_batmap_and_routes_tidlists_to_exact_merge() {
        // Dense head plus sparse co-occurring tails (8 tids of 800,
        // below the 13-word bitmap's footprint): the storage policy
        // only shapes the pair stage, so both policies report the same
        // itemsets and route the same sparse items to the merge path.
        let d = TransactionDb::new(
            10,
            (0..800usize)
                .map(|t| {
                    (0..10u32)
                        .filter(|&i| {
                            if i < 3 {
                                (t as u32 + i) % 3 < 2
                            } else {
                                t as u32 % 100 == i % 2
                            }
                        })
                        .collect()
                })
                .collect(),
        );
        let mut batmap_cfg = config(4, 4);
        batmap_cfg.pair.options.repr = batmap::ReprPolicy::Batmap;
        let baseline = LevelwiseMiner::new(batmap_cfg).mine(&d);
        assert_eq!(baseline.itemsets, oracle(&d, 4, 4));

        let mut hybrid_cfg = config(4, 4);
        hybrid_cfg.pair.options.repr = batmap::ReprPolicy::Hybrid;
        let hybrid = LevelwiseMiner::new(hybrid_cfg).mine(&d);
        assert_eq!(hybrid.itemsets, baseline.itemsets);
        for report in [&baseline, &hybrid] {
            assert_eq!(report.fallback_items, 7, "items 3..=9 are tidlists");
            let fallback: usize = report.levels.iter().map(|l| l.fallback).sum();
            let batched: usize = report.levels[1..].iter().map(|l| l.batched).sum();
            assert!(fallback > 0 && batched > 0);
        }
    }

    #[test]
    #[should_panic]
    fn depth_out_of_range_rejected() {
        let _ = LevelwiseMiner::new(config(1, 1));
    }

    #[test]
    fn prefix_groups_are_runs() {
        let cands = vec![
            vec![0, 1, 2],
            vec![0, 1, 5],
            vec![0, 2, 3],
            vec![4, 5, 6],
            vec![4, 5, 7],
        ];
        let groups = prefix_groups(&cands);
        let shape: Vec<(usize, usize)> = groups.iter().map(|g| (g.start, g.len)).collect();
        assert_eq!(shape, vec![(0, 2), (2, 1), (3, 2)]);
    }
}
