//! `serve`: an in-process resident server over the treebank, with two
//! connections sending a repeated six-query XPath mix in lockstep
//! rounds. `max_batch` is the number of connections, so every admission
//! window dispatches when it is full, and the window's make-up repeats
//! from run to run.

use crate::calib::{self, Reference};
use crate::gen::{self, PoolQuery};
use crate::probe;
use crate::trace::Tracer;
use crate::{
    cpu, ingest, ms, stats, timed_setup, write_xml, Config, Layers, OpCount, Report, Setup,
    SETUP_REPS,
};
use arb_server::protocol::{OutputKind, QueryResult, ServerStatsReply, WireLanguage, WireStats};
use arb_server::{Client, Server, ServerConfig, ServerHandle};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Element target of the document: about 424k nodes, a 1.1 MB `.arb`
/// that fits the L2 cache.
pub const ELEMS: usize = 100_000;
/// The document size the gated figures are scaled to: about the mean node
/// count of the generator for [`ELEMS`] elements.
pub const NOMINAL_NODES: u64 = 425_000;

/// The six-query mix. Connection `c` sends `MIX[(r + 3c) % 6]` in round
/// `r`, so the windows are three pairs that repeat every cycle.
pub const MIX: [&str; 6] = [
    "//NP//VP",
    "//S[NP and VP]",
    "//NP[not(PP)]/VP",
    "//VP/following-sibling::NP",
    "//S//NP[not(.//PP)]",
    "//PP",
];

const CONNS: usize = 2;
/// Rounds in one cycle of the mix.
const CYCLE: usize = MIX.len();
/// Distinct window shapes in a cycle, hence automata builds in warm-up.
const SHAPES: u64 = (CYCLE / 2) as u64;
/// Measured rounds at least: whole cycles giving enough round samples
/// for a p90.
const MIN_ROUNDS: usize = stats::MIN_SAMPLES.div_ceil(CYCLE) * CYCLE;

/// The name the server registers the database under (its file stem).
pub const DB_NAME: &str = "doc";

/// Sets up a server workload once: ingest, then start the server over
/// the new file. Returns the handle, the times and the `.arb` path.
pub fn setup_server(
    cfg: &Config,
    xml: &Path,
    k: usize,
    server: ServerConfig,
    tracer: &mut Tracer,
) -> Result<(ServerHandle, Setup, PathBuf), String> {
    let arb = cfg.dir.join(format!("s{k}")).join(format!("{DB_NAME}.arb"));
    std::fs::create_dir_all(arb.parent().expect("set-up dir")).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let (db, mut setup) = ingest(xml, &arb, tracer, k as u64)?;
    drop(db);
    let t1 = Instant::now();
    let handle = tracer
        .span("server.start", k as u64, |_| Server::start(server, &[&arb]))
        .map_err(|e| e.to_string())?;
    setup.start_s = t1.elapsed().as_secs_f64();
    setup.total_s = t0.elapsed().as_secs_f64();
    Ok((handle, setup, arb))
}

/// One reply of the measured rounds.
struct Reply {
    round: usize,
    query: usize,
    latency_ms: f64,
    count: u64,
    stats: WireStats,
}

struct Pass {
    replies: Vec<Reply>,
    failed: u64,
    rounds: usize,
    wall_s: f64,
    /// CPU time of the whole process (server and clients) in each
    /// measured cycle of the mix, and the reference kernel's CPU time in
    /// the run just before the cycle.
    cycles: Vec<(f64, f64)>,
    /// Server counters at the start, after warm-up, and at the end.
    before: ServerStatsReply,
    warm: ServerStatsReply,
    after: ServerStatsReply,
}

/// Warm-up cycle, then measured lockstep rounds until the budget is spent
/// and at least [`MIN_ROUNDS`] rounds ran, ending on a whole cycle.
fn pass(addr: &str, cfg: &Config, tracer: &mut Tracer) -> Result<Pass, String> {
    let mut probe = Client::connect(addr).map_err(|e| e.to_string())?;
    let before = probe.server_stats().map_err(|e| e.to_string())?;
    let barrier = Barrier::new(CONNS);
    let stop = AtomicBool::new(false);
    let mut forks = Vec::new();
    for _ in 0..CONNS {
        forks.push((
            Client::connect(addr).map_err(|e| e.to_string())?,
            tracer.fork(),
        ));
    }
    type Warm = (ServerStatsReply, Instant);
    type Out = Result<(Vec<Reply>, u64, Option<Warm>, Tracer, Vec<(f64, f64)>), String>;
    let outs: Vec<Out> = std::thread::scope(|scope| {
        let handles: Vec<_> = forks
            .into_iter()
            .enumerate()
            .map(|(c, (mut client, mut t))| {
                let (barrier, stop) = (&barrier, &stop);
                scope.spawn(move || -> Out {
                    let mut replies = Vec::new();
                    // At each measured cycle's start, and at the end of
                    // the last: a reference kernel run (while the other
                    // connection waits at the barrier), then the
                    // process's CPU clock.
                    let mut marks = Vec::new();
                    let mut reference = Reference::new();
                    let mut failed = 0;
                    let mut warm = None;
                    let mut start = Instant::now();
                    let mut round = 0;
                    // An error stops both threads at the next barrier,
                    // so neither waits there for the other forever.
                    let mut error = None;
                    loop {
                        barrier.wait();
                        // Both replies of the last round are in.
                        if c == 0 && round >= CYCLE && round % CYCLE == 0 {
                            let kernel_ms = reference.run();
                            marks.push((kernel_ms, cpu::process_ms()));
                        }
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let qi = (round + 3 * c) % CYCLE;
                        let t0 = Instant::now();
                        let op = (round * CONNS + c) as u64;
                        let reply = t.span("client.query", op, |_| {
                            client.query(DB_NAME, WireLanguage::XPath, OutputKind::Count, MIX[qi])
                        });
                        let latency_ms = ms(t0.elapsed());
                        match reply {
                            Ok(r) if round >= CYCLE => match r.result {
                                QueryResult::Count(count) => replies.push(Reply {
                                    round,
                                    query: qi,
                                    latency_ms,
                                    count,
                                    stats: r.stats,
                                }),
                                other => error = Some(format!("count query answered {other:?}")),
                            },
                            Ok(_) => {}
                            Err(e) if round >= CYCLE => {
                                eprintln!("serve: query failed: {e}");
                                failed += 1;
                            }
                            Err(e) => error = Some(format!("warm-up query failed: {e}")),
                        }
                        round += 1;
                        if c == 0 && round % CYCLE == 0 {
                            if round == CYCLE {
                                // Both replies of the last warm-up round are in.
                                match client.server_stats() {
                                    Ok(s) => {
                                        start = Instant::now();
                                        warm = Some((s, start));
                                    }
                                    Err(e) => error = Some(e.to_string()),
                                }
                            } else if round - CYCLE >= MIN_ROUNDS && start.elapsed() >= cfg.budget()
                            {
                                stop.store(true, Ordering::SeqCst);
                            }
                        }
                        if error.is_some() {
                            stop.store(true, Ordering::SeqCst);
                        }
                    }
                    match error {
                        Some(e) => Err(e),
                        None => Ok((replies, failed, warm, t, marks)),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let end = Instant::now();
    let after = probe.server_stats().map_err(|e| e.to_string())?;
    let mut replies = Vec::new();
    let mut failed = 0;
    let mut warm = None;
    let mut marks = Vec::new();
    for out in outs {
        let (r, f, w, t, m) = out?;
        marks.extend(m);
        replies.extend(r);
        failed += f;
        warm = warm.or(w);
        tracer.absorb(t);
    }
    let (warm, start) = warm.ok_or("no warm-up snapshot")?;
    let rounds = replies.iter().map(|r| r.round).max().unwrap_or(CYCLE) + 1 - CYCLE;
    if marks.len() != rounds / CYCLE + 1 {
        return Err(format!(
            "{} CPU marks for {rounds} measured rounds",
            marks.len()
        ));
    }
    Ok(Pass {
        replies,
        failed,
        rounds,
        wall_s: (end - start).as_secs_f64(),
        // A cycle's span holds the next cycle's kernel run; take it out.
        cycles: marks
            .windows(2)
            .map(|w| (w[1].1 - w[0].1 - w[1].0, w[0].0))
            .collect(),
        before,
        warm,
        after,
    })
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let (tree, labels) = gen::treebank(ELEMS, cfg.seed);
    let nodes = tree.len() as u64;
    let xml = cfg.dir.join("doc.xml");
    write_xml(&tree, &labels, &xml)?;
    // Expected counts, from the direct evaluator on the in-memory tree.
    let expected: Vec<u64> = MIX
        .iter()
        .map(|q| {
            let path = arb_xpath::parse_xpath(q).expect("mix parses");
            arb_xpath::DirectEvaluator::new(&tree, &labels)
                .evaluate(&path)
                .count() as u64
        })
        .collect();
    drop(tree);

    let server = ServerConfig {
        max_batch: CONNS,
        // Lockstep windows fill within microseconds; the long timer only
        // guards against a descheduled client splitting a pair.
        batch_window: Duration::from_millis(500),
        ..ServerConfig::default()
    };
    let mut tracer = Tracer::new(cfg.trace);
    let mut setups = Vec::new();
    let mut live = None;
    let mut reference = Reference::new();
    for k in 0..SETUP_REPS {
        if let Some((handle, _)) = live.take() {
            ServerHandle::shutdown(handle);
        }
        let ((handle, arb), setup) = timed_setup(&mut reference, || {
            let (handle, setup, arb) = setup_server(cfg, &xml, k, server.clone(), &mut tracer)?;
            Ok(((handle, arb), setup))
        })?;
        setups.push(setup);
        live = Some((handle, arb));
    }
    let (handle, arb) = live.expect("at least one set-up");
    let addr = handle.local_addr().to_string();

    let untraced = if cfg.trace {
        Some(pass(&addr, cfg, &mut Tracer::new(false))?)
    } else {
        None
    };
    let main = pass(&addr, cfg, &mut tracer)?;
    handle.shutdown();

    let mut report = Report::default();
    report.ops.push(OpCount {
        name: "query",
        attempted: main.replies.len() as u64 + main.failed,
        failed: main.failed,
    });
    let latencies: Vec<f64> = main.replies.iter().map(|r| r.latency_ms).collect();
    let rounds = round_latencies(&main.replies);
    // Medians over cycles, so a burst of host contention moves them less
    // than it would move a mean.
    let per_cycle = |f: &dyn Fn(f64, f64) -> f64| {
        stats::median(
            &main
                .cycles
                .iter()
                .map(|&(c, k)| f(c, k))
                .collect::<Vec<_>>(),
        )
    };
    let norm_ms = per_cycle(&calib::normalise);
    let cpu_ms = per_cycle(&|c, _| c);
    let (per_round, per_query) = (CYCLE as f64, (CYCLE * CONNS) as f64);
    report.cost(
        "query",
        norm_ms / per_query,
        cpu_ms / per_query,
        nodes,
        NOMINAL_NODES,
    );
    report.cost(
        "op",
        norm_ms / per_round,
        cpu_ms / per_round,
        nodes,
        NOMINAL_NODES,
    );
    report.kernel(&main.cycles.iter().map(|c| c.1).collect::<Vec<_>>());
    report.common(&setups, &arb)?;
    report.wall("query", &latencies);
    report.wall("round", &rounds);
    let qps = main.replies.len() as f64 / main.wall_s;
    report.note(format!(
        "wall throughput (not gated): {qps:.3} queries/s, {:.3} Mnodes/s",
        qps * nodes as f64 / 1e6
    ));
    report.note(format!(
        "document: {nodes} nodes; {} measured rounds of {CONNS} lockstep queries in {:.2} s",
        main.rounds, main.wall_s
    ));
    report.note(format!(
        "latency histogram (ms):\n{}",
        stats::histogram(&latencies, 5.0)
    ));

    if cfg.trace {
        let mut l = Layers::new();
        let base = untraced
            .as_ref()
            .expect("traced runs measure untraced first");
        let replies: Vec<(f64, WireStats)> = main
            .replies
            .iter()
            .map(|r| (r.latency_ms, r.stats))
            .collect();
        // The first pass warmed the window shapes up.
        server_layers(&mut l, &replies, &base.before, &main.warm, &main.after);
        // Probes fill in the layers the lockstep loop does not reach:
        // compile, automata and storage in-process on the same file and
        // mix, and a few edits replayed on a copy of the document.
        let mut db = arb_engine::Database::open_arb(&arb).map_err(|e| e.to_string())?;
        let mix: Vec<PoolQuery> = MIX
            .iter()
            .map(|q| PoolQuery::XPath(q.to_string()))
            .collect();
        probe::run(&mut db, &mix, &mut tracer)?.layers(&mut l);
        crate::update::probe_edits(cfg, &xml, ELEMS, &mut l, &mut tracer)?;
        let base_lat: Vec<f64> = base.replies.iter().map(|r| r.latency_ms).collect();
        l.insert(
            "trace.overhead_query_p50_ms",
            stats::percentile(&latencies, 50.0) - stats::percentile(&base_lat, 50.0),
        );
        l.insert(
            "trace.overhead_op_p50_ms",
            stats::percentile(&rounds, 50.0)
                - stats::percentile(&round_latencies(&base.replies), 50.0),
        );
        report.traced(&setups, &l, &tracer, "serve", cfg.seed)?;
    }

    // The first pass of the run builds the warm-up shapes' automata.
    if let Some(first) = &untraced {
        check(first, &expected, true)?;
    }
    check(&main, &expected, untraced.is_none())?;
    report.note(
        "checks: every count equals the direct evaluator's; every window held both connections' \
         queries; 1.000 scans per query; no automata builds after the warm-up cycle",
    );
    Ok(report)
}

/// The round latency: the slower of the two lockstep replies.
fn round_latencies(replies: &[Reply]) -> Vec<f64> {
    let mut by_round = std::collections::BTreeMap::<usize, f64>::new();
    for r in replies {
        let e = by_round.entry(r.round).or_insert(0.0);
        *e = e.max(r.latency_ms);
    }
    by_round.into_values().collect()
}

/// The server layers, from each reply's round trip (ms) and wire stats
/// and the server's counters: `from`..`to` is the measured region,
/// `first`..`to` the whole run (for automata builds).
pub fn server_layers(
    l: &mut Layers,
    replies: &[(f64, WireStats)],
    first: &ServerStatsReply,
    from: &ServerStatsReply,
    to: &ServerStatsReply,
) {
    let col = |f: &dyn Fn(f64, &WireStats) -> f64| {
        replies
            .iter()
            .map(|(ms, s)| f(*ms, s))
            .collect::<Vec<f64>>()
    };
    let us = |v: u64| v as f64 / 1e3;
    let pass = |s: &WireStats| us(s.phase1_us + s.phase2_us);
    l.insert(
        "engine.phase1_ms",
        stats::median(&col(&|_, s| us(s.phase1_us))),
    );
    l.insert(
        "engine.phase2_ms",
        stats::median(&col(&|_, s| us(s.phase2_us))),
    );
    l.insert(
        "server.queue_wait_ms",
        stats::median(&col(&|_, s| us(s.queue_wait_us))),
    );
    l.insert("server.pass_ms", stats::median(&col(&|_, s| pass(s))));
    l.insert(
        "server.other_ms",
        stats::median(&col(&|ms, s| ms - us(s.queue_wait_us) - pass(s))),
    );
    l.insert(
        "server.batch_size",
        stats::mean(&col(&|_, s| f64::from(s.batch_size))),
    );
    l.insert(
        "server.cache_hit_ratio",
        stats::mean(&col(&|_, s| f64::from(u8::from(s.cache_hit)))),
    );
    let requests = (to.requests - from.requests).max(1) as f64;
    let scans = (to.backward_scans + to.forward_scans) - (from.backward_scans + from.forward_scans);
    l.insert("server.scans_per_query", scans as f64 / requests);
    l.insert(
        "server.automata_builds",
        (to.automata_builds - first.automata_builds) as f64,
    );
}

/// Every count equals the direct evaluator's, and the server did exactly
/// what the lockstep predicts: full windows of two, one scan pair per
/// window, and automata built only for the warm-up cycle's shapes.
fn check(p: &Pass, expected: &[u64], first_pass: bool) -> Result<(), String> {
    for r in &p.replies {
        if r.count != expected[r.query] {
            return Err(format!(
                "{} counted {} nodes in round {}, the direct evaluator {}",
                MIX[r.query], r.count, r.round, expected[r.query]
            ));
        }
        let s = &r.stats;
        if s.batch_size as usize != CONNS || s.backward_scans != 1 || s.forward_scans != 1 {
            return Err(format!(
                "round {}: window of {} with {}+{} scans, the lockstep predicts {CONNS} with 1+1",
                r.round, s.batch_size, s.backward_scans, s.forward_scans
            ));
        }
    }
    let (w, a) = (&p.warm, &p.after);
    let requests = a.requests - w.requests;
    let scans = (a.backward_scans + a.forward_scans) - (w.backward_scans + w.forward_scans);
    if requests != p.replies.len() as u64 || scans != requests {
        return Err(format!(
            "server counted {requests} requests and {scans} scans for {} replies",
            p.replies.len()
        ));
    }
    let warm_builds = w.automata_builds - p.before.automata_builds;
    if a.automata_builds != w.automata_builds || (first_pass && warm_builds != SHAPES) {
        return Err(format!(
            "automata builds: {warm_builds} in warm-up (predicted {SHAPES}), {} after",
            a.automata_builds - w.automata_builds
        ));
    }
    Ok(())
}
