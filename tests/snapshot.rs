//! Snapshot-serving equivalence, pinned: `mine` end-to-end over the
//! tiled engines and `mine_levelwise` must produce identical reports
//! whether the corpus is freshly built inside `mine`, arena-built
//! up front (`preprocess` + `mine_preprocessed`), or loaded from a
//! persisted snapshot (`write_snapshot` → `read_snapshot` →
//! `mine_preprocessed`) — the storage layer and the persistence format
//! must be invisible to every mining result.

use batmap::{Parallelism, ReprPolicy};
use fim::{TransactionDb, VerticalDb};
use gpu_sim::DeviceSpec;
use pairminer::{
    mine, mine_preprocessed, preprocess_with, Engine, LevelwiseConfig, LevelwiseMiner, MinerConfig,
    Preprocessed,
};

fn db() -> TransactionDb {
    TransactionDb::new(
        36,
        (0..800usize)
            .map(|t| (0..36u32).filter(|&i| (t as u32 + i * 7) % 9 < 2).collect())
            .collect(),
    )
}

/// Build the corpus exactly as `mine` would for `config`, then push it
/// through a snapshot write→read cycle.
fn snapshot_corpus(d: &TransactionDb, config: &MinerConfig) -> Preprocessed {
    let vertical = VerticalDb::from_horizontal(d);
    let pre = preprocess_with(
        &vertical,
        config.seed,
        config.max_loop,
        config.options.repr(ReprPolicy::Batmap),
    );
    let mut buf = Vec::new();
    pre.write_snapshot(&mut buf).unwrap();
    Preprocessed::read_snapshot(&mut buf.as_slice()).unwrap()
}

#[test]
fn mine_is_identical_fresh_arena_built_and_snapshot_loaded() {
    let d = db();
    for engine in [Engine::Cpu, Engine::Gpu(DeviceSpec::gtx285())] {
        for threads in [Parallelism::Serial, Parallelism::threads(4)] {
            let config = MinerConfig {
                k: 32,
                engine: engine.clone(),
                options: batmap::EngineOptions::auto().threads(threads),
                ..Default::default()
            };
            // Freshly built inside `mine`.
            let fresh = mine(&d, &config);
            // Arena-built up front, served without re-preprocessing.
            let vertical = VerticalDb::from_horizontal(&d);
            let pre = preprocess_with(
                &vertical,
                config.seed,
                config.max_loop,
                config.options.repr(ReprPolicy::Batmap),
            );
            let arena_built = mine_preprocessed(&d, &pre, &config);
            // Loaded from a persisted snapshot.
            let loaded = snapshot_corpus(&d, &config);
            let snapshot_served = mine_preprocessed(&d, &loaded, &config);

            let label = format!("engine {engine:?} threads {threads}");
            assert_eq!(fresh.pairs, arena_built.pairs, "{label} (arena-built)");
            assert_eq!(fresh.pairs, snapshot_served.pairs, "{label} (snapshot)");
            assert_eq!(fresh.comparisons, snapshot_served.comparisons, "{label}");
            assert_eq!(
                fresh.failed_pair_occurrences, snapshot_served.failed_pair_occurrences,
                "{label}"
            );
            // Serving a snapshot pays no preprocessing.
            assert_eq!(snapshot_served.timings.preprocess_s, 0.0, "{label}");
        }
    }
}

#[test]
fn snapshot_serving_recovers_failed_insertions_too() {
    // MaxLoop = 1 forces failed insertions; the snapshot carries the
    // failure list, so the served counts stay exact.
    let d = TransactionDb::new(
        24,
        (0..3000usize)
            .map(|t| {
                (0..24u32)
                    .filter(|&i| (t as u32 + i * 7) % 30 < 2)
                    .collect()
            })
            .collect(),
    );
    let config = MinerConfig {
        max_loop: 1,
        ..Default::default()
    };
    let fresh = mine(&d, &config);
    assert!(
        fresh.failed_pair_occurrences > 0,
        "fixture must force failures"
    );
    let loaded = snapshot_corpus(&d, &config);
    assert!(!loaded.failed.is_empty(), "snapshot must carry failures");
    let served = mine_preprocessed(&d, &loaded, &config);
    assert_eq!(fresh.pairs, served.pairs);
    assert_eq!(
        fresh.failed_pair_occurrences,
        served.failed_pair_occurrences
    );
    assert_eq!(fresh.pairs, fim::pairs::brute_force_pairs(&d, 1));
}

#[test]
fn mine_levelwise_is_identical_fresh_and_snapshot_loaded() {
    let d = db();
    let config = LevelwiseConfig {
        depth: 4,
        pair: MinerConfig {
            minsup: 25,
            engine: Engine::Cpu,
            ..Default::default()
        },
    };
    let miner = LevelwiseMiner::new(config.clone());
    let fresh = miner.mine(&d);
    let loaded = snapshot_corpus(&d, &config.pair);
    let served = miner.mine_with_preprocessed(&d, &loaded);
    assert_eq!(fresh.itemsets, served.itemsets);
    assert_eq!(fresh.levels.len(), served.levels.len());
    for (f, s) in fresh.levels.iter().zip(&served.levels) {
        assert_eq!(
            (f.k, f.candidates, f.frequent),
            (s.k, s.candidates, s.frequent)
        );
    }
    assert!(served.pair_report.is_some());
}

/// A snapshot fixture small enough to probe byte-by-byte.
fn tiny_snapshot_bytes() -> Vec<u8> {
    let d = TransactionDb::new(
        10,
        (0..60usize)
            .map(|t| (0..10u32).filter(|&i| (t as u32 + i * 3) % 5 < 2).collect())
            .collect(),
    );
    let vertical = VerticalDb::from_horizontal(&d);
    let pre = preprocess_with(
        &vertical,
        3,
        128,
        batmap::EngineOptions::auto().repr(ReprPolicy::Hybrid),
    );
    let mut buf = Vec::new();
    pre.write_snapshot(&mut buf).unwrap();
    buf
}

/// A write torn at *any* byte — mid-magic, mid-header, mid-directory,
/// mid-payload, mid-side-tables — must come back as the torn-write
/// variant of the taxonomy ([`batmap::SnapshotError::is_torn`]), never
/// a panic, never a silent success, and never be misread as bit-rot.
#[test]
fn truncation_at_every_byte_reads_as_torn() {
    let bytes = tiny_snapshot_bytes();
    for cut in 0..bytes.len() {
        match Preprocessed::read_snapshot(&mut &bytes[..cut]) {
            Ok(_) => panic!("truncation at byte {cut}/{} parsed", bytes.len()),
            Err(e) => assert!(
                e.is_torn(),
                "truncation at byte {cut}/{} must read as torn, got: {e}",
                bytes.len()
            ),
        }
    }
    // And the untouched bytes still load, so the loop above proved
    // something about truncation, not about a broken fixture.
    Preprocessed::read_snapshot(&mut bytes.as_slice()).unwrap();
}

/// Bit-rot: flipping the low bit of any single byte must fail the
/// read with a typed error. Checksummed sections must report
/// `Corrupted`; the magic/version envelope must report a format
/// error; nothing may parse successfully.
#[test]
fn single_bit_corruption_never_parses() {
    let bytes = tiny_snapshot_bytes();
    let mut saw_corrupted = false;
    let mut saw_format = false;
    for i in 0..bytes.len() {
        let mut rotten = bytes.clone();
        rotten[i] ^= 1;
        match Preprocessed::read_snapshot(&mut rotten.as_slice()) {
            Ok(_) => panic!("bit flip at byte {i} parsed successfully"),
            Err(batmap::SnapshotError::Corrupted(_)) => saw_corrupted = true,
            Err(batmap::SnapshotError::Format(_)) => saw_format = true,
            // Length-field flips legitimately look like truncation;
            // Io cannot happen from an in-memory slice.
            Err(_) => {}
        }
    }
    assert!(saw_corrupted, "checksums must catch payload bit-rot");
    assert!(saw_format, "the magic/version envelope must be validated");
}

/// The atomic write path: a failure while filling the temp file must
/// leave a previously persisted snapshot byte-identical and loadable,
/// and must not litter the directory with temp files.
#[test]
fn failed_atomic_write_preserves_previous_snapshot() {
    let dir = std::env::temp_dir().join(format!("batmap-snaptest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pinned.batmap");
    let golden = tiny_snapshot_bytes();
    batmap::arena::atomic_write(&path, |w| {
        use std::io::Write;
        w.write_all(&golden)
    })
    .unwrap();

    // Fill halfway, then die.
    let result = batmap::arena::atomic_write(&path, |w| {
        use std::io::Write;
        w.write_all(&golden[..golden.len() / 2])?;
        Err(std::io::Error::other("simulated crash mid-write"))
    });
    assert!(result.is_err());
    assert_eq!(
        std::fs::read(&path).unwrap(),
        golden,
        "old snapshot must be byte-identical after a failed overwrite"
    );
    Preprocessed::read_snapshot(&mut std::fs::read(&path).unwrap().as_slice()).unwrap();
    let leftovers = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
        .count();
    assert_eq!(leftovers, 0, "failed writes must clean up their temp file");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mine_preprocessed_rejects_mismatched_database() {
    let d = db();
    let other = TransactionDb::new(12, vec![vec![0, 1], vec![1, 2]]);
    let config = MinerConfig::default();
    let loaded = snapshot_corpus(&d, &config);
    let result = std::panic::catch_unwind(|| mine_preprocessed(&other, &loaded, &config));
    assert!(result.is_err(), "foreign database must be rejected");
}
