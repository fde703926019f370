//! Property-based tests of the levelwise k-itemset engine: random
//! databases, every depth up to 5, two independent oracles (levelwise
//! Apriori and FP-Growth), and databases mixing dense (bitmap) and
//! sparse (tidlist) items so both prefix-fold paths run.

use fim::apriori::{self, Itemset};
use fim::{fpgrowth, TransactionDb};
use pairminer::{mine, Engine, LevelwiseConfig, LevelwiseMiner, MinerConfig, Parallelism};
use proptest::collection::{btree_set, vec};
use proptest::prelude::*;

fn arb_db() -> impl Strategy<Value = TransactionDb> {
    // Up to 50 transactions over up to 16 items, wide enough for
    // frequent itemsets beyond pairs to appear regularly.
    (3u32..16, 1usize..50).prop_flat_map(|(n, m)| {
        vec(vec(0u32..n, 0..(n as usize).min(10)), m).prop_map(move |ts| TransactionDb::new(n, ts))
    })
}

/// A database mixing both per-item forms. `m` transactions (mostly not
/// a multiple of 64, so the bitmaps' tail word is live); items 0, 1, 8
/// and 9 are sparse (fewer tids than the `⌈m/64⌉`-word bitmap costs),
/// 2..=7 dense, 10 never occurs. Item 0 holds exactly the `rare` tids
/// and every rare transaction carries all dense items, so the
/// candidate {0, 2, 3} (sparse prefix) and {2, 3, 4} (dense prefix)
/// exist whenever `minsup ≤ rare.len()`.
fn arb_mixed_db() -> impl Strategy<Value = TransactionDb> {
    (65u32..400, any::<u64>()).prop_flat_map(|(m, seed)| {
        let max_sparse = 2 * m.div_ceil(64) as usize - 1;
        btree_set(0..m, 3..max_sparse + 1).prop_map(move |rare| {
            let mut state = seed | 1;
            let mut coin = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % 10
            };
            let txns = (0..m)
                .map(|t| {
                    let is_rare = rare.contains(&t);
                    (0..11u32)
                        .filter(|&i| match i {
                            0 => is_rare,
                            1 | 8 | 9 => is_rare && coin() < 8,
                            2..=7 => is_rare || coin() < 5,
                            _ => false,
                        })
                        .collect()
                })
                .collect();
            TransactionDb::new(11, txns)
        })
    })
}

fn levelwise_config(depth: usize, minsup: u64) -> LevelwiseConfig {
    LevelwiseConfig {
        depth,
        pair: MinerConfig {
            minsup,
            engine: Engine::Cpu,
            ..Default::default()
        },
    }
}

/// Canonical ordering shared by engine output and oracles.
fn canonical(mut sets: Vec<Itemset>) -> Vec<Itemset> {
    sets.sort_unstable_by(|a, b| (a.items.len(), &a.items).cmp(&(b.items.len(), &b.items)));
    sets
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The levelwise batmap engine equals the Apriori oracle for every
    /// depth up to 5 and arbitrary minsup.
    #[test]
    fn levelwise_matches_apriori_oracle(
        db in arb_db(),
        minsup in 1u64..6,
        depth in 2usize..6,
    ) {
        let report = LevelwiseMiner::new(levelwise_config(depth, minsup)).mine(&db);
        let expect = canonical(apriori::mine(&db, minsup, depth));
        prop_assert_eq!(report.itemsets, expect);
    }

    /// …and equals FP-Growth, a structurally unrelated second oracle.
    #[test]
    fn levelwise_matches_fpgrowth(db in arb_db(), minsup in 1u64..6, depth in 3usize..6) {
        let report = LevelwiseMiner::new(levelwise_config(depth, minsup)).mine(&db);
        let expect = canonical(
            fpgrowth::mine(&db, minsup, depth)
                .into_iter()
                .filter(|s| s.items.len() >= 2)
                .collect(),
        );
        prop_assert_eq!(report.itemsets, expect);
    }

    /// The sparse prefix path (a prefix item held as a tidlist) is
    /// exact alongside the dense one: both oracles at every depth,
    /// serial equals parallel, and every candidate is counted by
    /// exactly one path — with both paths taken in every case.
    #[test]
    fn forced_fallback_is_exact(db in arb_mixed_db(), minsup in 1u64..4, threads in 2usize..5) {
        for depth in 3usize..=5 {
            let report = LevelwiseMiner::new(levelwise_config(depth, minsup)).mine(&db);
            prop_assert_eq!(&report.itemsets, &canonical(apriori::mine(&db, minsup, depth)));
            let expect = canonical(
                fpgrowth::mine(&db, minsup, depth)
                    .into_iter()
                    .filter(|s| s.items.len() >= 2)
                    .collect(),
            );
            prop_assert_eq!(&report.itemsets, &expect);
            let mut config = levelwise_config(depth, minsup);
            config.pair.options = config.pair.options.threads(Parallelism::threads(threads));
            let parallel = LevelwiseMiner::new(config).mine(&db);
            prop_assert_eq!(&parallel.itemsets, &report.itemsets);
            let (mut batched, mut fallback) = (0, 0);
            for level in &report.levels[1..] {
                prop_assert_eq!(level.batched + level.fallback, level.candidates);
                batched += level.batched;
                fallback += level.fallback;
            }
            prop_assert!(batched > 0 && fallback > 0, "batched {} fallback {}", batched, fallback);
            prop_assert!((1..=4).contains(&report.fallback_items));
        }
    }

    /// A depth-3 run reports exactly the Apriori oracle's triples.
    #[test]
    fn triples_equal_levelwise_depth3(db in arb_db(), minsup in 1u64..5) {
        let pairs = mine(&db, &MinerConfig { minsup, ..Default::default() }).pairs;
        let report = LevelwiseMiner::new(levelwise_config(3, minsup)).mine_from_pairs(&db, &pairs);
        let expect = canonical(apriori::mine(&db, minsup, 3));
        let expect: Vec<&Itemset> = expect.iter().filter(|s| s.items.len() == 3).collect();
        prop_assert_eq!(report.itemsets_of_len(3), expect);
    }

    /// Thread counts never change results (the LPT candidate
    /// partitioning is a pure work split).
    #[test]
    fn parallel_counting_matches_serial(db in arb_db(), threads in 2usize..6) {
        let mut serial_config = levelwise_config(4, 2);
        serial_config.pair.options = serial_config.pair.options.threads(Parallelism::Serial);
        let serial = LevelwiseMiner::new(serial_config).mine(&db);
        let mut parallel_config = levelwise_config(4, 2);
        parallel_config.pair.options = parallel_config
            .pair
            .options
            .threads(Parallelism::threads(threads));
        let parallel = LevelwiseMiner::new(parallel_config).mine(&db);
        prop_assert_eq!(serial.itemsets, parallel.itemsets);
    }

    /// Structural invariants of the report: one level per k, per-level
    /// tallies consistent, empty levels present.
    #[test]
    fn level_reports_are_complete(db in arb_db(), minsup in 1u64..8, depth in 2usize..6) {
        let report = LevelwiseMiner::new(levelwise_config(depth, minsup)).mine(&db);
        prop_assert_eq!(report.levels.len(), depth - 1);
        for (i, level) in report.levels.iter().enumerate() {
            prop_assert_eq!(level.k, i + 2);
            prop_assert!(level.frequent <= level.candidates);
            prop_assert_eq!(
                level.frequent,
                report.itemsets.iter().filter(|s| s.items.len() == level.k).count()
            );
            if level.k > 2 {
                prop_assert_eq!(level.batched + level.fallback, level.candidates);
            }
        }
    }
}
