//! `serve_rw`: a zipf webdocs corpus served over TCP loopback to a
//! closed loop of two clients, with fenced writes between read phases.
//!
//! Each cycle, each client sends [`BURSTS`] pipelined bursts of
//! [`BURST`] point reads (15/16 counts against one of [`HOT`] hot probe
//! sets, which is what admission batching coalesces, and 1/16
//! membership probes), then one top-k call. After both finish, client 0
//! makes [`INSERTS`] inserts and [`REMOVES`] removes, and a flush every
//! [`FLUSH_EVERY`]th cycle, so reads between flushes run over a
//! non-empty delta. The benchmark checks every answer against its own
//! brute force over the live transactions, outside the timed windows.
//!
//! The workload exercises proto, engine batching, the mixed-repr
//! kernels, the delta-corrected read path and compaction, and bypasses
//! the tile executors and levelwise mining.

use crate::check::{self, Digest, LiveModel};
use crate::trace::Tracer;
use crate::{median, metric, percentile, Args, Metric, Report};
use batmap::{EngineOptions, ReprPolicy};
use batmap_server::{
    Client, EngineConfig, Probe, QueryEngine, Request, Response, RetryPolicy, Server,
};
use datagen::webdocs::{self, WebDocsSpec};
use fim::{TransactionDb, VerticalDb};
use pairminer::{preprocess_with, MinerConfig};
use std::collections::BTreeSet;
use std::time::Instant;

const DOCUMENTS: usize = 4_000;
/// Free transaction slots the writes fill.
const FREE_SLOTS: usize = 4_000;
const MEAN_DOC_LEN: usize = 60;
const CLIENTS: usize = 2;
const BURSTS: usize = 64;
const BURST: usize = 32;
const HOT: u32 = 16;
const TOP_K: u32 = 10;
const INSERTS: usize = 6;
const REMOVES: usize = 2;
const FLUSH_EVERY: u64 = 8;
const SETUP_REPS: usize = 5;
/// Cycles whose answers and flushes feed the deterministic digest and
/// counters; every run makes at least this many.
const DIGEST_CYCLES: u64 = 64;

/// splitmix64 stream: the workload's request generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Rng {
        Rng(check::mix(seed ^ check::mix(stream)))
    }

    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        check::mix(self.0) % n
    }
}

/// The reads of one client in one cycle.
fn read_plan(seed: u64, cycle: u64, client: usize, n: u32, m: u32) -> (Vec<Vec<Request>>, Request) {
    let mut rng = Rng::new(
        seed,
        cycle
            .wrapping_mul(CLIENTS as u64)
            .wrapping_add(client as u64),
    );
    let bursts = (0..BURSTS)
        .map(|_| {
            (0..BURST)
                .map(|_| {
                    if rng.below(16) == 15 {
                        Request::Member {
                            set: rng.below(n as u64) as u32,
                            element: rng.below(m as u64) as u32,
                        }
                    } else {
                        let a = rng.below(HOT as u64) as u32;
                        let mut b = rng.below(n as u64) as u32;
                        if b == a {
                            b = (b + 1) % n;
                        }
                        Request::Count { a, b }
                    }
                })
                .collect()
        })
        .collect();
    let topk = Request::TopK {
        probe: Probe::Set(rng.below(HOT as u64) as u32),
        k: TOP_K,
    };
    (bursts, topk)
}

/// What one client saw in one read phase.
struct ReadPhase {
    start: Instant,
    end: Instant,
    burst_secs: Vec<f64>,
    bursts: Vec<std::io::Result<Vec<Response>>>,
    topk_secs: f64,
    topk: std::io::Result<Response>,
    tracer: Tracer,
}

fn read_phase(
    client: &mut Client,
    bursts: &[Vec<Request>],
    topk: &Request,
    mut tr: Tracer,
    cycle: u64,
) -> ReadPhase {
    let start = Instant::now();
    let mut burst_secs = Vec::with_capacity(bursts.len());
    let mut answers = Vec::with_capacity(bursts.len());
    for burst in bursts {
        let t = Instant::now();
        let got = tr.span("client.burst", cycle, || client.pipeline(0, burst));
        burst_secs.push(t.elapsed().as_secs_f64());
        answers.push(got);
    }
    let end = Instant::now();
    let t = Instant::now();
    let topk_answer = tr.span("client.topk", cycle, || client.call(0, topk));
    ReadPhase {
        start,
        end,
        burst_secs,
        bursts: answers,
        topk_secs: t.elapsed().as_secs_f64(),
        topk: topk_answer,
        tracer: tr,
    }
}

/// Tallies an answer against the model's; a refused or failed
/// operation counts as failed, a different answer as wrong.
struct Tally<'a> {
    report: &'a mut Report,
    digest: Option<&'a mut Digest>,
    shed: &'a mut u64,
}

impl Tally<'_> {
    fn answer(
        &mut self,
        what: &str,
        request: &Request,
        got: Result<&Response, &std::io::Error>,
        want: &Response,
    ) {
        self.report.attempted += 1;
        let got = match got {
            Ok(Response::Overloaded) => {
                *self.shed += 1;
                self.report.failed += 1;
                return;
            }
            Ok(Response::Error(e)) => {
                eprintln!("{what} {request:?} failed: {e}");
                self.report.failed += 1;
                return;
            }
            Ok(got) => got,
            Err(e) => {
                eprintln!("{what} {request:?} failed: {e}");
                self.report.failed += 1;
                return;
            }
        };
        if self.report.mismatch.is_none() {
            self.report.mismatch = check::diff_response(what, request, got, want);
        }
        if let Some(d) = self.digest.as_deref_mut() {
            let mut words = Vec::new();
            words.extend(encode_request(request).chunks(8).map(word));
            words.push(u64::MAX);
            let mut body = Vec::new();
            got.encode_body(&mut body);
            words.extend(body.chunks(8).map(word));
            d.add(&words);
        }
    }
}

fn word(chunk: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w[..chunk.len()].copy_from_slice(chunk);
    u64::from_le_bytes(w)
}

fn encode_request(request: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    request.encode_body(&mut out);
    out
}

/// The served stack of one set-up repetition.
struct Stack {
    handle: batmap_server::ServerHandle,
    clients: Vec<Client>,
}

impl Stack {
    fn stop(self) {
        drop(self.clients);
        self.handle.join();
    }
}

pub fn serve_rw(args: &Args, tr: &mut Tracer) -> Report {
    let mut report = Report::default();
    // Documents after the first DOCUMENTS are the insert stream; the
    // vocabulary covers them all, so inserts stay in the item space.
    let spec = WebDocsSpec {
        documents: DOCUMENTS + FREE_SLOTS,
        mean_doc_len: MEAN_DOC_LEN,
        seed: args.seed,
        ..WebDocsSpec::default()
    };
    let all = webdocs::generate(&spec);
    assert_eq!(
        webdocs::generate(&spec).transactions(),
        all.transactions(),
        "the generator is not deterministic"
    );
    let stream: Vec<Vec<u32>> = all.transactions()[DOCUMENTS..].to_vec();
    let mut slots: Vec<Vec<u32>> = all.transactions()[..DOCUMENTS].to_vec();
    slots.resize(DOCUMENTS + FREE_SLOTS, Vec::new());
    let db = TransactionDb::new(all.n_items(), slots.clone());
    let vertical = VerticalDb::from_horizontal(&db);
    let n = db.n_items();
    let m = slots.len() as u32;
    let options = EngineOptions::auto().repr(ReprPolicy::Hybrid);
    let defaults = MinerConfig::default();
    let dir = crate::out_dir();
    std::fs::create_dir_all(&dir).expect("create the run directory");
    let snapshot = dir.join(format!("serve_rw-{}.snap", std::process::id()));

    // Set-up, repeated: build, snapshot, open, bind, connect.
    tr.set_enabled(args.trace);
    let mut setup = Vec::new();
    let mut stack: Option<Stack> = None;
    for rep in 0..SETUP_REPS as u64 {
        if let Some(old) = stack.take() {
            old.stop();
        }
        let t = Instant::now();
        let open = tr.begin("setup", rep);
        let pre = tr.span("pairminer.preprocess", rep, || {
            preprocess_with(&vertical, defaults.seed, defaults.max_loop, options)
        });
        tr.span("pairminer.snapshot_write", rep, || {
            pre.write_snapshot_file(&snapshot)
        })
        .expect("write the snapshot");
        let engine = tr
            .span("server.open", rep, || {
                QueryEngine::open_snapshots(&[&snapshot], EngineConfig::default())
            })
            .expect("open the snapshot");
        let handle = tr.span("server.bind", rep, || {
            Server::bind_tcp("127.0.0.1:0").map(|s| s.serve(engine))
        });
        let handle = handle.expect("bind a loopback port");
        let addr = handle.tcp_addr().expect("tcp address");
        let clients = tr.span("client.connect", rep, || {
            (0..CLIENTS)
                .map(|_| Client::connect_tcp(addr).map(|c| c.with_retry(RetryPolicy::none())))
                .collect::<std::io::Result<Vec<_>>>()
        });
        let clients = clients.expect("connect to the server");
        tr.end(open);
        setup.push(t.elapsed().as_secs_f64());
        report.record_corpus(&pre);
        stack = Some(Stack { handle, clients });
    }
    let mut stack = stack.expect("at least one set-up");
    let corpus_bytes = report.counters[0].1 as f64;
    let mut model = LiveModel::new(n, slots);
    let mut shed = 0u64;

    if args.trace {
        in_process(
            args,
            tr,
            &snapshot,
            &stream,
            &mut model,
            &mut report,
            &mut shed,
        );
    }

    // The write plan's state: free slots (lowest first), live slots,
    // and the next document of the insert stream.
    let mut free: BTreeSet<u32> = (DOCUMENTS as u32..m).collect();
    let mut live: Vec<u32> = (0..DOCUMENTS as u32).collect();
    let mut next_doc = 0usize;
    let mut write_rng = Rng::new(args.seed, u64::MAX);

    let mut digest = Digest::default();
    let mut flushed_memberships = 0u64;
    // Read samples as [untraced, traced]; top-k, write and flush
    // latencies from the untraced phase only.
    let mut bursts: [Vec<f64>; 2] = Default::default();
    let mut read_secs = [0f64; 2];
    let mut reads = [0u64; 2];
    let mut topks = Vec::new();
    let mut writes = Vec::new();
    let mut flushes = Vec::new();

    let phases: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let mut cycle = 0u64;
    for &traced in phases {
        tr.set_enabled(traced);
        let budget = args.seconds / phases.len() as f64;
        let start = Instant::now();
        let p = usize::from(traced);
        while report.mismatch.is_none()
            && (start.elapsed().as_secs_f64() < budget || cycle < DIGEST_CYCLES)
        {
            if free.len() < INSERTS {
                eprintln!("serve_rw: free slots exhausted after {cycle} cycles; ending the run");
                break;
            }
            let open = tr.begin("cycle", cycle);
            let parent = tr.current();
            let plans: Vec<_> = (0..CLIENTS)
                .map(|c| read_plan(args.seed, cycle, c, n, m))
                .collect();
            let phases_seen: Vec<ReadPhase> = std::thread::scope(|scope| {
                let workers: Vec<_> = stack
                    .clients
                    .iter_mut()
                    .zip(&plans)
                    .enumerate()
                    .map(|(c, (client, (plan, topk)))| {
                        let lane = tr.lane(1 + cycle * CLIENTS as u64 + c as u64, parent);
                        scope.spawn(move || read_phase(client, plan, topk, lane, cycle))
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().expect("client thread"))
                    .collect()
            });
            let first = phases_seen.iter().map(|r| r.start).min().expect("clients");
            let last = phases_seen.iter().map(|r| r.end).max().expect("clients");
            read_secs[p] += (last - first).as_secs_f64();

            // Check the reads against the state they ran on.
            let check = tr.begin("bench.check", cycle);
            for (seen, (plan, topk)) in phases_seen.into_iter().zip(&plans) {
                bursts[p].extend(&seen.burst_secs);
                if !traced {
                    topks.push(seen.topk_secs);
                }
                tr.absorb(seen.tracer);
                let mut tally = Tally {
                    report: &mut report,
                    digest: (cycle < DIGEST_CYCLES).then_some(&mut digest),
                    shed: &mut shed,
                };
                for (burst, got) in plan.iter().zip(&seen.bursts) {
                    reads[p] += burst.len() as u64;
                    for (j, request) in burst.iter().enumerate() {
                        let want = model.answer(request);
                        tally.answer("read", request, got.as_ref().map(|g| &g[j]), &want);
                    }
                }
                let want = model.answer(topk);
                tally.answer("top-k", topk, seen.topk.as_ref(), &want);
            }
            tr.end(check);

            // The write fence: client 0 writes, the model follows.
            let mut plan = Vec::new();
            for _ in 0..INSERTS {
                let tid = free.pop_first().expect("free slot");
                live.push(tid);
                plan.push(Request::Insert {
                    tid,
                    items: stream[next_doc % stream.len()].clone(),
                });
                next_doc += 1;
            }
            for _ in 0..REMOVES {
                let tid = live.swap_remove(write_rng.below(live.len() as u64) as usize);
                free.insert(tid);
                plan.push(Request::Remove { tid });
            }
            if cycle % FLUSH_EVERY == FLUSH_EVERY - 1 {
                plan.push(Request::Flush);
            }
            for request in &plan {
                let is_flush = matches!(request, Request::Flush);
                let name = if is_flush {
                    "client.flush"
                } else {
                    "client.write"
                };
                let t = Instant::now();
                let got = tr.span(name, cycle, || stack.clients[0].call(0, request));
                let secs = t.elapsed().as_secs_f64();
                if !traced {
                    if is_flush { &mut flushes } else { &mut writes }.push(secs);
                }
                let want = model.apply(request);
                if let (Response::Flushed(k), true) = (&want, cycle < DIGEST_CYCLES) {
                    flushed_memberships += k;
                }
                let mut tally = Tally {
                    report: &mut report,
                    digest: (cycle < DIGEST_CYCLES).then_some(&mut digest),
                    shed: &mut shed,
                };
                tally.answer("write", request, got.as_ref(), &want);
            }
            model.rebuild();
            tr.end(open);
            cycle += 1;
        }
    }
    tr.set_enabled(args.trace);
    stack.stop();
    let _ = std::fs::remove_file(&snapshot);

    let measured = &bursts[0];
    let qps = reads[0] as f64 / read_secs[0];
    report.e2e = vec![
        metric("setup_s", median(&setup), "s", setup.len()),
        metric("op_p50_ms", median(measured) * 1e3, "ms", measured.len()),
        metric("work_per_s", qps, "1/s", reads[0] as usize),
        metric("corpus_bytes", corpus_bytes, "bytes", 1),
    ];
    report.detail = vec![
        metric("qps", qps, "1/s", reads[0] as usize),
        metric("read_p50_ms", median(measured) * 1e3, "ms", measured.len()),
        metric(
            "read_p99_ms",
            percentile(measured, 99.0) * 1e3,
            "ms",
            measured.len(),
        ),
        metric("topk_p50_ms", median(&topks) * 1e3, "ms", topks.len()),
        metric("write_p50_ms", median(&writes) * 1e3, "ms", writes.len()),
        metric("flush_p50_ms", median(&flushes) * 1e3, "ms", flushes.len()),
        metric("cycles", cycle as f64, "count", 1),
    ];
    report.digest = digest.0;
    report
        .counters
        .push(("ingest.flushed_memberships", flushed_memberships));

    if args.trace {
        let timed = |name, span: &str| {
            let spans = tr.durations_ms(span);
            metric(name, median(&spans), "ms", spans.len())
        };
        let traced = &bursts[1];
        let (u, t) = (median(measured) * 1e3, median(traced) * 1e3);
        let qps_traced = reads[1] as f64 / read_secs[1];
        println!(
            "  tracing: qps untraced {qps:.0} traced {qps_traced:.0}; \
             burst p50 untraced {u:.4} ms traced {t:.4} ms"
        );
        let layer: Vec<Metric> = vec![
            timed("pairminer.preprocess_ms", "pairminer.preprocess"),
            timed("pairminer.snapshot_write_ms", "pairminer.snapshot_write"),
            timed("server.open_ms", "server.open"),
            timed("ingest.flush_ms", "client.flush"),
            metric(
                "ingest.flushed_memberships",
                flushed_memberships as f64,
                "count",
                1,
            ),
            metric("server.shed", shed as f64, "count", 1),
            metric(
                "serve.read_p99_ms",
                percentile(traced, 99.0) * 1e3,
                "ms",
                traced.len(),
            ),
            timed("serve.topk_p50_ms", "client.topk"),
            timed("serve.write_p50_ms", "client.write"),
            metric("trace.op_p50_ms_untraced", u, "ms", measured.len()),
            metric("trace.op_p50_ms_traced", t, "ms", traced.len()),
            metric("trace.overhead_pct", (t / u - 1.0) * 100.0, "%", 1),
        ];
        report.layer.extend(layer);
        let corpus = report.corpus_layer();
        report.layer.extend(corpus);
    }
    report
}

/// Traced-run only: the engine and protocol layers without sockets, on
/// a second engine opened from the same snapshot, before any write
/// (so `model` still describes it).
fn in_process(
    args: &Args,
    tr: &mut Tracer,
    snapshot: &std::path::Path,
    stream: &[Vec<u32>],
    model: &mut LiveModel,
    report: &mut Report,
    shed: &mut u64,
) {
    let engine = QueryEngine::open_snapshots(&[snapshot], EngineConfig::default())
        .expect("open the snapshot");
    let (n, m) = (model.n_items(), model.slots() as u32);
    let (bursts, _) = read_plan(args.seed, u64::MAX, 0, n, m);
    let mut tally = Tally {
        report,
        digest: None,
        shed,
    };

    // One query at a time.
    for request in bursts.iter().flatten().take(512) {
        let got = tr.span("engine.query", 0, || engine.query(0, request.clone()));
        let want = model.answer(request);
        tally.answer("in-process read", request, Ok(&got), &want);
    }
    // Whole bursts through `submit` with one reply channel, so the
    // admission queues batch them.
    let t = Instant::now();
    let mut answers = Vec::with_capacity(bursts.len());
    for burst in &bursts {
        let got = tr.span("engine.submit_burst", 0, || {
            let (tx, rx) = std::sync::mpsc::channel();
            for (id, request) in burst.iter().enumerate() {
                engine.submit(0, id as u64, request.clone(), &tx);
            }
            drop(tx);
            let mut got: Vec<(u64, Response)> = rx.iter().collect();
            got.sort_by_key(|(id, _)| *id);
            got
        });
        answers.push(got);
    }
    let inproc_secs = t.elapsed().as_secs_f64();
    for (burst, got) in bursts.iter().zip(&answers) {
        for (j, request) in burst.iter().enumerate() {
            let want = model.answer(request);
            let got = got
                .get(j)
                .filter(|(id, _)| *id == j as u64)
                .map(|(_, r)| r.clone());
            let got = got.unwrap_or(Response::Error("no reply".into()));
            tally.answer("in-process burst read", request, Ok(&got), &want);
        }
    }
    for probe in 0..HOT {
        let request = Request::TopK {
            probe: Probe::Set(probe),
            k: TOP_K,
        };
        let got = tr.span("engine.topk", 0, || engine.query(0, request.clone()));
        let want = model.answer(&request);
        tally.answer("in-process top-k", &request, Ok(&got), &want);
    }
    // Insert then remove, leaving the engine as it was.
    let tid = DOCUMENTS as u32;
    for doc in stream.iter().take(32) {
        for request in [
            Request::Insert {
                tid,
                items: doc.clone(),
            },
            Request::Remove { tid },
        ] {
            let got = tr.span("engine.write", 0, || engine.query(0, request.clone()));
            tally.answer(
                "in-process write",
                &request,
                Ok(&got),
                &Response::Applied(doc.len() as u64),
            );
        }
    }
    drop(engine);

    // The wire format, over the same requests and their answers; every
    // message must decode back to itself.
    let requests: Vec<Request> = bursts.into_iter().flatten().collect();
    let responses: Vec<Response> = answers.into_iter().flatten().map(|(_, r)| r).collect();
    let messages = (requests.len() + responses.len()) as f64;
    let encode = |body: &dyn Fn(&mut Vec<u8>)| {
        let mut out = Vec::new();
        body(&mut out);
        out
    };
    let t = Instant::now();
    let (request_bytes, response_bytes) = tr.span("proto.encode", 0, || {
        let q: Vec<Vec<u8>> = requests
            .iter()
            .map(|r| encode(&|o| r.encode_body(o)))
            .collect();
        let a: Vec<Vec<u8>> = responses
            .iter()
            .map(|r| encode(&|o| r.encode_body(o)))
            .collect();
        (q, a)
    });
    let encode_ns = t.elapsed().as_nanos() as f64 / messages;
    let t = Instant::now();
    let (q, a) = tr.span("proto.decode", 0, || {
        let q: Vec<_> = request_bytes
            .iter()
            .map(|b| Request::decode_body(b))
            .collect();
        let a: Vec<_> = response_bytes
            .iter()
            .map(|b| Response::decode_body(b))
            .collect();
        (q, a)
    });
    let decode_ns = t.elapsed().as_nanos() as f64 / messages;
    let round_trips = q
        .iter()
        .zip(&requests)
        .all(|(d, r)| matches!(d, Ok(x) if x == r))
        && a.iter()
            .zip(&responses)
            .all(|(d, r)| matches!(d, Ok(x) if x == r));
    if !round_trips && tally.report.mismatch.is_none() {
        tally.report.mismatch = Some("a message did not decode back to itself".into());
    }

    let us = |span: &str| median(&tr.durations_ms(span)) * 1e3;
    let n = |span: &str| tr.durations_ms(span).len();
    let reads = requests.len();
    tally.report.layer.extend([
        metric("proto.encode_ns", encode_ns, "ns", messages as usize),
        metric("proto.decode_ns", decode_ns, "ns", messages as usize),
        metric(
            "engine.query_us",
            us("engine.query"),
            "us",
            n("engine.query"),
        ),
        metric(
            "engine.inproc_qps",
            reads as f64 / inproc_secs,
            "1/s",
            reads,
        ),
        metric(
            "engine.topk_ms",
            us("engine.topk") / 1e3,
            "ms",
            n("engine.topk"),
        ),
        metric(
            "engine.write_us",
            us("engine.write"),
            "us",
            n("engine.write"),
        ),
    ]);
}
