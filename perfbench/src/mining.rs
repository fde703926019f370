//! The two mining workloads.
//!
//! * `pairs_uniform` — the paper's regime (§IV-A generator, many
//!   distinct items, density above 1%): nearly all time is the tile
//!   sweep and the harvest, so tile-path, kernel and prefetch changes
//!   show here.
//! * `itemsets_dense` — few items, high density, depth 4: nearly all
//!   time is levelwise k-way counting and the pair stage is tiny, so
//!   it isolates the levelwise engine.

use crate::check;
use crate::trace::Tracer;
use crate::{median, metric, percentile, Args, Metric, Report};
use batmap::EngineOptions;
use datagen::uniform::{self, UniformSpec};
use fim::{TransactionDb, VerticalDb};
use hpcutil::MemoryFootprint;
use pairminer::failed::FailedPairs;
use pairminer::{
    mine_preprocessed, preprocess_with, Engine, LevelwiseConfig, LevelwiseMiner, MinerConfig,
    ParallelCpuExecutor, Preprocessed, SerialCpuExecutor, Tile, TileConsumer, TileExecutor,
    TilePlan,
};
use std::time::Instant;

/// Calls a timing loop makes at least, whatever `--seconds` says.
const MIN_SAMPLES: usize = 3;

/// The generator's input: uniform density, as in the paper's §IV-A.
fn generate(n_items: u32, density: f64, total_items: usize, seed: u64) -> TransactionDb {
    let spec = UniformSpec {
        n_items,
        density,
        total_items,
        seed,
    };
    let db = uniform::generate(&spec);
    // Generation must be a pure function of the seed.
    assert_eq!(
        uniform::generate(&spec).transactions(),
        db.transactions(),
        "the generator is not deterministic"
    );
    db
}

fn cpu_config(k: usize, minsup: u64) -> MinerConfig {
    MinerConfig {
        k,
        minsup,
        engine: Engine::Cpu,
        options: EngineOptions::auto(),
        ..MinerConfig::default()
    }
}

/// Build the corpus `reps` times, timing each build; every build must
/// give the same counters. Returns the set-up times and the last build.
fn build_repeatedly(
    reps: usize,
    tr: &mut Tracer,
    report: &mut Report,
    mut build: impl FnMut(&mut Tracer, u64) -> Preprocessed,
) -> (Vec<f64>, Preprocessed) {
    let mut times = Vec::with_capacity(reps);
    let mut last: Option<Preprocessed> = None;
    for rep in 0..reps as u64 {
        drop(last.take());
        let t = Instant::now();
        let open = tr.begin("setup", rep);
        let pre = build(tr, rep);
        tr.end(open);
        times.push(t.elapsed().as_secs_f64());
        report.record_corpus(&pre);
        last = Some(pre);
    }
    (times, last.expect("at least one build"))
}

/// The mining call's time at the highest of p99/p90/p75/p50 with at
/// least ten samples beyond it.
fn tail(samples: &[f64]) -> Option<(&'static str, f64)> {
    [
        (99.0, "mine_s_p99"),
        (90.0, "mine_s_p90"),
        (75.0, "mine_s_p75"),
        (50.0, "mine_s_p50"),
    ]
    .into_iter()
    .find(|(p, _)| samples.len() as f64 * (1.0 - p / 100.0) >= 10.0)
    .map(|(p, name)| (name, percentile(samples, p)))
}

/// Timed calls of one mining operation. In a traced run the first half
/// of the time runs untraced and the second half traced, so the two
/// medians give the tracing overhead.
struct Timing {
    untraced: Vec<f64>,
    traced: Vec<f64>,
}

impl Timing {
    /// Run `op` (one warm-up call, not counted) until `seconds` have
    /// passed. `op` returns its own duration in seconds and the first
    /// wrong answer, if any; a wrong answer ends the loop.
    fn run(
        args: &Args,
        tr: &mut Tracer,
        report: &mut Report,
        mut op: impl FnMut(&mut Tracer, u64, bool) -> (f64, Option<String>),
    ) -> Timing {
        let mut timing = Timing {
            untraced: Vec::new(),
            traced: Vec::new(),
        };
        tr.set_enabled(false);
        let (_, warm_wrong) = op(tr, 0, false);
        report.attempted += 1;
        report.mismatch = report.mismatch.take().or(warm_wrong);
        let phases: &[bool] = if args.trace { &[false, true] } else { &[false] };
        let mut id = 1u64;
        for &traced in phases {
            tr.set_enabled(traced);
            let budget = args.seconds / phases.len() as f64;
            let start = Instant::now();
            let samples = if traced {
                &mut timing.traced
            } else {
                &mut timing.untraced
            };
            while report.mismatch.is_none()
                && (samples.len() < MIN_SAMPLES || start.elapsed().as_secs_f64() < budget)
            {
                let (secs, wrong) = op(tr, id, traced);
                id += 1;
                report.attempted += 1;
                samples.push(secs);
                report.mismatch = wrong;
            }
        }
        tr.set_enabled(args.trace);
        timing
    }

    /// The samples the end-to-end metrics come from.
    fn measured(&self) -> &[f64] {
        &self.untraced
    }

    fn overhead(&self) -> Vec<Metric> {
        let (u, t) = (median(&self.untraced) * 1e3, median(&self.traced) * 1e3);
        vec![
            metric("trace.op_p50_ms_untraced", u, "ms", self.untraced.len()),
            metric("trace.op_p50_ms_traced", t, "ms", self.traced.len()),
            metric("trace.overhead_pct", (t / u - 1.0) * 100.0, "%", 1),
        ]
    }
}

fn op_metrics(
    report: &mut Report,
    setup: &[f64],
    samples: &[f64],
    work: usize,
    pre: &Preprocessed,
) {
    let total: f64 = samples.iter().sum();
    report.e2e = vec![
        metric("setup_s", median(setup), "s", setup.len()),
        metric("op_p50_ms", median(samples) * 1e3, "ms", samples.len()),
        metric(
            "work_per_s",
            (work * samples.len()) as f64 / total,
            "1/s",
            samples.len(),
        ),
        metric("corpus_bytes", pre.heap_bytes() as f64, "bytes", 1),
    ];
    report
        .detail
        .push(metric("mine_s", median(samples), "s", samples.len()));
    if let Some((name, value)) = tail(samples) {
        report.detail.push(metric(name, value, "s", samples.len()));
    }
}

/// Counts every cell of every tile: the benchmark's own consumer, so a
/// sweep is timed without the miner's harvest.
#[derive(Default)]
struct CountingConsumer {
    tiles: u64,
    total: u64,
}

impl TileConsumer for CountingConsumer {
    fn consume(&mut self, _tile: &Tile, counts: &[u64]) {
        self.tiles += 1;
        self.total += counts.iter().sum::<u64>();
    }

    fn absorb(&mut self, other: Self) {
        self.tiles += other.tiles;
        self.total += other.total;
    }
}

/// Bytes a sweep reads, computed from set widths: every executed
/// comparison of a row set with a column set reads both payloads.
fn sweep_bytes(pre: &Preprocessed, plan: &TilePlan) -> u64 {
    let mut prefix = vec![0u64; pre.padded_items() + 1];
    for s in 0..pre.padded_items() {
        prefix[s + 1] = prefix[s] + pre.payload(s).width_bytes() as u64;
    }
    let span = |base: usize, len: usize| prefix[base + len] - prefix[base];
    plan.tiles()
        .iter()
        .map(|t| {
            t.cols as u64 * span(t.row_base, t.rows) + t.rows as u64 * span(t.col_base, t.cols)
        })
        .sum()
}

pub fn pairs_uniform(args: &Args, tr: &mut Tracer) -> Report {
    const SETUP_REPS: usize = 5;
    let db = generate(2048, 0.05, 1_000_000, args.seed);
    let config = cpu_config(2048, 20);
    let mut report = Report::default();

    tr.set_enabled(args.trace);
    let (setup, pre) = build_repeatedly(SETUP_REPS, tr, &mut report, |tr, rep| {
        let v = tr.span("fim.vertical", rep, || VerticalDb::from_horizontal(&db));
        tr.span("pairminer.preprocess", rep, || {
            preprocess_with(&v, config.seed, config.max_loop, config.options)
        })
    });
    let oracle = tr.span("oracle.fpgrowth", 0, || {
        fim::fpgrowth::mine_pairs(&db, config.minsup)
    });

    let plan = TilePlan::new(pre.padded_items(), config.k);
    let executed = plan.executed_comparisons() as u64;
    let bytes = sweep_bytes(&pre, &plan);

    let mut digest = check::Digest::default();
    let timing = Timing::run(args, tr, &mut report, |tr, op, traced| {
        let open = tr.begin("op", op);
        let t = Instant::now();
        let mined = tr.span("pairminer.mine", op, || {
            mine_preprocessed(&db, &pre, &config)
        });
        let secs = t.elapsed().as_secs_f64();
        let mut wrong = check::diff_pairs(&mined.pairs, &oracle);
        if op == 0 {
            digest = check::digest_pairs(&mined.pairs);
        }
        if traced {
            // The layers of the call above, each through its own
            // public entry point.
            tr.span("pairminer.plan", op, || {
                let plan = TilePlan::new(pre.padded_items(), config.k);
                let failed = FailedPairs::build(&pre.failed, &db, &pre.item_to_sorted, config.k);
                std::hint::black_box((plan, failed));
            });
            let parallel = ParallelCpuExecutor {
                parallelism: config.options.threads,
            };
            let (par, _) = tr.span("pairminer.sweep", op, || {
                parallel.execute(&pre, &plan, CountingConsumer::default)
            });
            let (ser, _) = tr.span("pairminer.sweep_serial", op, || {
                SerialCpuExecutor.execute(&pre, &plan, CountingConsumer::default)
            });
            if (par.tiles, par.total) != (ser.tiles, ser.total) {
                wrong = wrong.or(Some(format!(
                    "parallel sweep (tiles, sum) {:?} != serial {:?}",
                    (par.tiles, par.total),
                    (ser.tiles, ser.total)
                )));
            }
        }
        tr.end(open);
        (secs, wrong)
    });

    op_metrics(&mut report, &setup, timing.measured(), oracle.len(), &pre);
    report.digest = digest.0;
    report.counters.extend([
        ("pairminer.executed_comparisons", executed),
        ("pairminer.sweep_bytes", bytes),
        ("frequent_pairs", oracle.len() as u64),
    ]);

    if args.trace {
        let apriori = tr.span("oracle.apriori", 0, || {
            fim::apriori::mine_pairs(&db, config.minsup)
        });
        if report.mismatch.is_none() {
            report.mismatch =
                check::diff_pairs(&apriori, &oracle).map(|d| format!("apriori vs fp-growth: {d}"));
        }
        let ms = |span: &str| median(&tr.durations_ms(span));
        let n = |span: &str| tr.durations_ms(span).len();
        let timed = |name, span| metric(name, ms(span), "ms", n(span));
        let (mine, plan, sweep) = (
            ms("pairminer.mine"),
            ms("pairminer.plan"),
            ms("pairminer.sweep"),
        );
        let serial = ms("pairminer.sweep_serial");
        let runs = n("pairminer.sweep");
        report.layer = vec![
            timed("fim.vertical_ms", "fim.vertical"),
            timed("pairminer.preprocess_ms", "pairminer.preprocess"),
            timed("pairminer.plan_ms", "pairminer.plan"),
            timed("pairminer.sweep_ms", "pairminer.sweep"),
            timed("pairminer.sweep_serial_ms", "pairminer.sweep_serial"),
            metric("pairminer.parallel_speedup", serial / sweep, "x", runs),
            // Derived: the mining call minus its plan and sweep.
            metric("pairminer.harvest_ms", mine - plan - sweep, "ms", runs),
            metric(
                "pairminer.executed_comparisons",
                executed as f64,
                "count",
                1,
            ),
            metric("pairminer.sweep_bytes", bytes as f64, "bytes", 1),
            metric(
                "pairminer.sweep_gbps",
                bytes as f64 / (sweep * 1e6),
                "GB/s",
                runs,
            ),
            timed("oracle.apriori_ms", "oracle.apriori"),
            timed("oracle.fpgrowth_ms", "oracle.fpgrowth"),
            metric(
                "oracle.apriori_over_mine",
                ms("oracle.apriori") / mine,
                "x",
                1,
            ),
            metric(
                "oracle.fpgrowth_over_mine",
                ms("oracle.fpgrowth") / mine,
                "x",
                1,
            ),
        ];
        let corpus = report.corpus_layer();
        report.layer.extend(corpus);
        report.layer.extend(timing.overhead());
        let parts = ms("fim.vertical") + ms("pairminer.preprocess");
        println!(
            "  accounts: fim.vertical + pairminer.preprocess = {parts:.3} ms of setup {:.3} ms ({:.1}%)",
            ms("setup"),
            100.0 * parts / ms("setup")
        );
    }
    report
}

pub fn itemsets_dense(args: &Args, tr: &mut Tracer) -> Report {
    const SETUP_REPS: usize = 21;
    const DEPTH: usize = 4;
    let db = generate(32, 0.3, 48_000, args.seed);
    let config = cpu_config(64, 40);
    let miner = LevelwiseMiner::new(LevelwiseConfig {
        depth: DEPTH,
        pair: config.clone(),
        ..LevelwiseConfig::default()
    });
    let mut report = Report::default();
    let vertical = VerticalDb::from_horizontal(&db);

    tr.set_enabled(args.trace);
    let (setup, pre) = build_repeatedly(SETUP_REPS, tr, &mut report, |tr, rep| {
        tr.span("pairminer.preprocess", rep, || {
            preprocess_with(&vertical, config.seed, config.max_loop, config.options)
        })
    });
    let oracle = tr.span("oracle.fpgrowth", 0, || {
        fim::fpgrowth::mine(&db, config.minsup, DEPTH)
    });

    let mut levels = None;
    let mut digest = check::Digest::default();
    let timing = Timing::run(args, tr, &mut report, |tr, op, _| {
        let open = tr.begin("op", op);
        let t = Instant::now();
        let pairs = tr.span("levelwise.pair_stage", op, || {
            mine_preprocessed(&db, &pre, &config)
        });
        let mined = tr.span("levelwise.kway", op, || {
            miner.mine_from_pairs(&db, &pairs.pairs)
        });
        let secs = t.elapsed().as_secs_f64();
        tr.end(open);
        let wrong = check::diff_itemsets(&mined.itemsets, &oracle);
        if op == 0 {
            digest = check::digest_itemsets(&mined.itemsets);
        }
        levels = Some(mined.levels);
        (secs, wrong)
    });
    let levels = levels.expect("at least one mining call");
    let level = |k: usize| {
        levels
            .iter()
            .find(|l| l.k == k)
            .cloned()
            .unwrap_or_default()
    };
    let (k3, k4) = (level(3), level(4));
    let batched = (k3.batched + k4.batched) as u64;
    let fallback = (k3.fallback + k4.fallback) as u64;

    // Work is candidates counted: fixed by the item count and depth,
    // unlike the frequent-itemset count, which swings with the seed.
    op_metrics(
        &mut report,
        &setup,
        timing.measured(),
        k3.candidates + k4.candidates,
        &pre,
    );
    report.digest = digest.0;
    report.counters.extend([
        ("levelwise.k3_candidates", k3.candidates as u64),
        ("levelwise.k4_candidates", k4.candidates as u64),
        ("levelwise.batched", batched),
        ("levelwise.fallback", fallback),
        ("frequent_itemsets", oracle.len() as u64),
    ]);

    if args.trace {
        let eclat = tr.span("oracle.eclat", 0, || {
            fim::eclat::mine(&db, config.minsup, DEPTH)
        });
        if report.mismatch.is_none() {
            report.mismatch =
                check::diff_itemsets(&eclat, &oracle).map(|d| format!("eclat vs fp-growth: {d}"));
        }
        let ms = |span: &str| median(&tr.durations_ms(span));
        let n = |span: &str| tr.durations_ms(span).len();
        let timed = |name, span| metric(name, ms(span), "ms", n(span));
        let (pair_stage, kway) = (ms("levelwise.pair_stage"), ms("levelwise.kway"));
        let candidates = (k3.candidates + k4.candidates) as f64;
        let mine = median(&timing.traced) * 1e3;
        let count = |name, v: u64| metric(name, v as f64, "count", 1);
        report.layer = vec![
            timed("pairminer.preprocess_ms", "pairminer.preprocess"),
            timed("levelwise.pair_stage_ms", "levelwise.pair_stage"),
            timed("levelwise.kway_ms", "levelwise.kway"),
            count("levelwise.k3_candidates", k3.candidates as u64),
            count("levelwise.k4_candidates", k4.candidates as u64),
            count("levelwise.batched", batched),
            count("levelwise.fallback", fallback),
            metric(
                "levelwise.candidates_per_s",
                candidates / (kway / 1e3),
                "1/s",
                n("levelwise.kway"),
            ),
            timed("oracle.eclat_ms", "oracle.eclat"),
            timed("oracle.fpgrowth_ms", "oracle.fpgrowth"),
            metric(
                "oracle.fpgrowth_over_mine",
                ms("oracle.fpgrowth") / mine,
                "x",
                1,
            ),
        ];
        let corpus = report.corpus_layer();
        report.layer.extend(corpus);
        report.layer.extend(timing.overhead());
        println!(
            "  accounts: levelwise.pair_stage + levelwise.kway = {:.3} ms of mining call {mine:.3} ms ({:.1}%)",
            pair_stage + kway,
            100.0 * (pair_stage + kway) / mine
        );
    }
    report
}
