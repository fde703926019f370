//! The repository benchmark: one command, three workloads, checked
//! outputs, and a traced run that breaks the end-to-end numbers into
//! layers.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload pairs_uniform|itemsets_dense|serve_rw \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Human-readable lines come first; the last line of standard output
//! is one JSON object `{"correct", "attempted", "failed", "metrics"}`
//! holding the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). A wrong answer, a failed operation, or a
//! deterministic counter that differs from an earlier run with the same
//! seed and binary makes the exit code 1.

mod check;
mod mining;
mod serve;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a count or a single shot).
    pub samples: usize,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// What a workload run hands back to `main`.
#[derive(Default)]
pub struct Report {
    /// End-to-end metrics, every name of [`END_TO_END`].
    pub e2e: Vec<Metric>,
    /// The workload's own metrics under their plain names (printed,
    /// not part of the JSON line), e.g. `mine_s` or `read_p99_ms`.
    pub detail: Vec<Metric>,
    /// Per-layer metrics from the traced run (names of [`PER_LAYER`]).
    pub layer: Vec<Metric>,
    /// Counters that must repeat exactly for the same seed.
    pub counters: Vec<(&'static str, u64)>,
    /// Order-independent digest of the checked answers.
    pub digest: u64,
    pub attempted: u64,
    pub failed: u64,
    /// First wrong answer, if any.
    pub mismatch: Option<String>,
}

impl Report {
    /// Record the deterministic facts of a built corpus; a later build
    /// of the same input must give the same ones.
    pub fn record_corpus(&mut self, pre: &pairminer::Preprocessed) {
        use hpcutil::MemoryFootprint;
        let hist = pre.repr_histogram();
        let counters = vec![
            ("corpus_bytes", pre.heap_bytes() as u64),
            ("batmap.failed_inserts", pre.stats.failures),
            ("batmap.sets_batmap", hist[0] as u64),
            ("batmap.sets_bitmap", hist[1] as u64),
            ("batmap.sets_tidlist", hist[2] as u64),
        ];
        if self.counters.is_empty() {
            self.counters = counters;
        } else if self.counters[..counters.len()] != counters[..] && self.mismatch.is_none() {
            self.mismatch = Some(format!(
                "two builds of one input differ: {:?} vs {counters:?}",
                &self.counters[..counters.len()]
            ));
        }
    }

    /// The `batmap.*` counters as per-layer metrics.
    pub fn corpus_layer(&self) -> Vec<Metric> {
        self.counters
            .iter()
            .filter(|(name, _)| name.starts_with("batmap."))
            .map(|&(name, v)| metric(name, v as f64, "count", 1))
            .collect()
    }
}

/// End-to-end metric names, in `BENCHMARK.json` order. Every workload
/// reports all of them.
pub const END_TO_END: &[&str] = &["setup_s", "op_p50_ms", "work_per_s", "corpus_bytes"];

/// Per-layer metric names and units, in `BENCHMARK.json` order. A
/// workload that does not run a layer reports it as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fim.vertical_ms", "ms"),
    ("pairminer.preprocess_ms", "ms"),
    ("pairminer.plan_ms", "ms"),
    ("pairminer.sweep_ms", "ms"),
    ("pairminer.sweep_serial_ms", "ms"),
    ("pairminer.parallel_speedup", "x"),
    ("pairminer.harvest_ms", "ms"),
    ("pairminer.executed_comparisons", "count"),
    ("pairminer.sweep_bytes", "bytes"),
    ("pairminer.sweep_gbps", "GB/s"),
    ("batmap.failed_inserts", "count"),
    ("batmap.sets_batmap", "count"),
    ("batmap.sets_bitmap", "count"),
    ("batmap.sets_tidlist", "count"),
    ("levelwise.pair_stage_ms", "ms"),
    ("levelwise.kway_ms", "ms"),
    ("levelwise.k3_candidates", "count"),
    ("levelwise.k4_candidates", "count"),
    ("levelwise.batched", "count"),
    ("levelwise.fallback", "count"),
    ("levelwise.candidates_per_s", "1/s"),
    ("oracle.apriori_ms", "ms"),
    ("oracle.fpgrowth_ms", "ms"),
    ("oracle.eclat_ms", "ms"),
    ("oracle.fpgrowth_over_mine", "x"),
    ("oracle.apriori_over_mine", "x"),
    ("pairminer.snapshot_write_ms", "ms"),
    ("server.open_ms", "ms"),
    ("proto.encode_ns", "ns"),
    ("proto.decode_ns", "ns"),
    ("engine.query_us", "us"),
    ("engine.inproc_qps", "1/s"),
    ("engine.topk_ms", "ms"),
    ("engine.write_us", "us"),
    ("ingest.flush_ms", "ms"),
    ("ingest.flushed_memberships", "count"),
    ("server.shed", "count"),
    ("serve.read_p99_ms", "ms"),
    ("serve.topk_p50_ms", "ms"),
    ("serve.write_p50_ms", "ms"),
    ("trace.op_p50_ms_untraced", "ms"),
    ("trace.op_p50_ms_traced", "ms"),
    ("trace.overhead_pct", "%"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Median of `samples` (which need not be sorted).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Percentile by linear interpolation; 0 when there are no samples (a
/// layer the run did not reach reports 0, like one it does not have).
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    hpcutil::stats::percentile_sorted(&sorted, pct)
}

/// Where traces and counter records go: the build directory the
/// benchmark was built into, so they stay out of the sources.
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    target.join("perfbench-runs")
}

/// Compare the deterministic counters with the record an earlier run
/// of the same binary left for the same workload and seed (or leave
/// one). Returns the first counter that differs.
fn check_counters(args: &Args, report: &Report) -> Option<String> {
    let exe = std::env::current_exe().ok()?;
    let meta = std::fs::metadata(&exe).ok()?;
    let modified = meta
        .modified()
        .ok()?
        .duration_since(std::time::UNIX_EPOCH)
        .ok()?;
    let stamp = format!("binary {} {}", meta.len(), modified.as_nanos());
    let mut body = format!("{stamp}\n");
    for (name, value) in &report.counters {
        body.push_str(&format!("{name} {value}\n"));
    }
    body.push_str(&format!("digest {:016x}\n", report.digest));
    let dir = out_dir();
    let path = dir.join(format!("counters-{}-{}.txt", args.workload, args.seed));
    if let Ok(previous) = std::fs::read_to_string(&path) {
        if previous.lines().next() == Some(stamp.as_str()) {
            return previous
                .lines()
                .zip(body.lines())
                .find(|(a, b)| a != b)
                .map(|(a, b)| {
                    format!("counter differs from an earlier run: was {a:?}, now {b:?}")
                });
        }
    }
    if std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, body))
        .is_err()
    {
        eprintln!("note: could not record counters at {}", path.display());
    }
    None
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload pairs_uniform|itemsets_dense|serve_rw \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let origin = Instant::now();
    let mut tracer = trace::Tracer::new(false, origin);
    let mut report = match args.workload.as_str() {
        "pairs_uniform" => mining::pairs_uniform(&args, &mut tracer),
        "itemsets_dense" => mining::itemsets_dense(&args, &mut tracer),
        "serve_rw" => serve::serve_rw(&args, &mut tracer),
        other => {
            eprintln!("error: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    if report.mismatch.is_none() {
        report.mismatch = check_counters(&args, &report);
    }

    println!(
        "workload {} seed {} seconds {} trace {} threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for m in report.e2e.iter().chain(&report.detail) {
        println!(
            "  {:<28} {:>16.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "  {:<28} {:>16.6} {:<6} (n={})",
        "error_rate", error_rate, "ratio", report.attempted
    );
    for (name, value) in &report.counters {
        println!("  counter {name} = {value}");
    }
    println!("  answers digest {:016x}", report.digest);

    let metrics: Vec<Metric> = if args.trace {
        for m in &report.layer {
            assert!(
                PER_LAYER.iter().any(|&(name, _)| name == m.name),
                "per-layer metric {} is not declared",
                m.name
            );
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                report
                    .layer
                    .iter()
                    .find(|m| m.name == name)
                    .cloned()
                    .unwrap_or_else(|| metric(name, 0.0, unit, 0))
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&name| {
                report
                    .e2e
                    .iter()
                    .find(|m| m.name == name)
                    .cloned()
                    .unwrap_or_else(|| panic!("workload did not report {name}"))
            })
            .collect()
    };
    if args.trace {
        for m in &metrics {
            println!("  layer {:<32} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let dir = out_dir();
        let path = dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| tracer.write_jsonl(&path)) {
            Ok(()) => eprintln!(
                "trace: {} spans written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
        }
        eprintln!(
            "trace: {:<34} {:>7} {:>12} {:>12}",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, n, total, own) in tracer.summary() {
            eprintln!("trace: {name:<34} {n:>7} {total:>12.3} {own:>12.3}");
        }
    }
    if let Some(mismatch) = &report.mismatch {
        eprintln!("WRONG ANSWER: {mismatch}");
    }
    let correct = report.mismatch.is_none();
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        fields.join(", ")
    );
    if !correct || report.failed > 0 {
        std::process::exit(1);
    }
}
