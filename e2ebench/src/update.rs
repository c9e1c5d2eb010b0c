//! `update`: an in-process server over the treebank with a standing
//! batch registered. One connection sends a seeded stream of subtree
//! edits through `UpdateDoc` and reads with one query after each edit.

use crate::calib::{self, Reference};
use crate::gen::{self, Edit, EditStream, Mirror, PoolQuery};
use crate::probe;
use crate::serve::{server_layers, setup_server, DB_NAME, ELEMS, NOMINAL_NODES};
use crate::trace::Tracer;
use crate::{
    cpu, ingest, ms, stats, timed_setup, write_xml, Config, Layers, OpCount, Report, SETUP_REPS,
};
use arb_engine::{DocUpdate, StandingQuery};
use arb_server::protocol::{
    OutputKind, QueryResult, ServerStatsReply, UpdateReply, WireLanguage, WireStats, WireUpdate,
};
use arb_server::{Client, ServerConfig, ServerHandle};
use arb_tree::LabelTable;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// The standing batch registered before the edits start.
pub const STANDING: [&str; 2] = ["//NP//VP", "//S[NP and VP]"];
/// The read after every edit.
pub const READ: &str = "//VP/following-sibling::NP";
/// Edits at least, so the update p90 has ten samples beyond it.
const MIN_UPDATES: usize = stats::MIN_SAMPLES;
/// Edit pairs in one cycle of the stream: it visits the document's ten
/// tenths and alternates two kinds of pair, so ten pairs hold every kind
/// in every tenth. Runs measure whole cycles.
const CYCLE_PAIRS: usize = 10;
/// Edit pairs generated per second of budget: several times what the
/// program gets through, so the stream never runs dry.
const PAIRS_PER_SECOND: f64 = 30.0;

/// One edit and the read after it.
struct Step {
    edit: Edit,
    reply: UpdateReply,
    update_ms: f64,
    read_ms: f64,
    /// CPU time of the whole process (client and server) during the
    /// `UpdateDoc` round trip and during the read.
    update_cpu_ms: f64,
    read_cpu_ms: f64,
    /// The reference kernel's CPU time, run just before the edit.
    kernel_ms: f64,
    read_count: u64,
    read_stats: WireStats,
}

struct Pass {
    steps: Vec<Step>,
    wall_s: f64,
    /// The concurrent reader's reads, if one ran.
    reads: Vec<(f64, u64)>,
    before: ServerStatsReply,
    after: ServerStatsReply,
}

fn wire(edit: &Edit) -> WireUpdate {
    match edit.clone() {
        Edit::Append { under, xml } => WireUpdate::AppendChild {
            under: under as u32,
            xml,
        },
        Edit::Splice { at, xml } => WireUpdate::SpliceSubtree { at: at as u32, xml },
        Edit::Delete { at } => WireUpdate::DeleteSubtree { at: at as u32 },
    }
}

fn doc_update(edit: &Edit) -> DocUpdate {
    match edit.clone() {
        Edit::Append { under, xml } => DocUpdate::AppendChild {
            under: under as u32,
            xml,
        },
        Edit::Splice { at, xml } => DocUpdate::SpliceSubtree { at: at as u32, xml },
        Edit::Delete { at } => DocUpdate::DeleteSubtree { at: at as u32 },
    }
}

/// Whole cycles of edit pairs, each edit followed by a read, until the
/// budget is spent and at least [`MIN_UPDATES`] edits were made. With a `reader` address,
/// a second connection reads in a closed loop meanwhile.
fn pass(
    client: &mut Client,
    reader: Option<&str>,
    pairs: &mut impl Iterator<Item = [Edit; 2]>,
    cfg: &Config,
    tracer: &mut Tracer,
    op0: usize,
) -> Result<Pass, String> {
    let before = client.server_stats().map_err(|e| e.to_string())?;
    let stop = AtomicBool::new(false);
    let reader = reader
        .map(Client::connect)
        .transpose()
        .map_err(|e| e.to_string())?;
    let (steps, wall_s, reads) = std::thread::scope(|scope| {
        let other = reader.map(|c| scope.spawn(|| concurrent_reads(c, &stop)));
        let steps = edit_loop(client, pairs, cfg, tracer, op0);
        stop.store(true, Ordering::SeqCst);
        let reads = match other {
            Some(h) => h.join().expect("reader thread"),
            None => Ok(Vec::new()),
        };
        steps.map(|(s, w)| (s, w, reads))
    })?;
    let after = client.server_stats().map_err(|e| e.to_string())?;
    Ok(Pass {
        steps,
        wall_s,
        reads: reads?,
        before,
        after,
    })
}

fn edit_loop(
    client: &mut Client,
    pairs: &mut impl Iterator<Item = [Edit; 2]>,
    cfg: &Config,
    tracer: &mut Tracer,
    op0: usize,
) -> Result<(Vec<Step>, f64), String> {
    let mut steps: Vec<Step> = Vec::new();
    let mut reference = Reference::new();
    let start = Instant::now();
    while steps.len() < MIN_UPDATES || start.elapsed() < cfg.budget() {
        for _ in 0..CYCLE_PAIRS {
            let pair = pairs.next().ok_or("the edit stream ran dry")?;
            for edit in pair {
                let op = (op0 + steps.len()) as u64;
                let kernel_ms = reference.run();
                let c0 = cpu::process_ms();
                let t0 = Instant::now();
                let reply = tracer
                    .span("client.update_doc", op, |_| {
                        client.update_doc(DB_NAME, wire(&edit))
                    })
                    .map_err(|e| format!("update {edit:?}: {e}"))?;
                let update_ms = ms(t0.elapsed());
                let c1 = cpu::process_ms();
                let t1 = Instant::now();
                let read = tracer
                    .span("client.query", op, |_| {
                        client.query(DB_NAME, WireLanguage::XPath, OutputKind::Count, READ)
                    })
                    .map_err(|e| format!("read after update: {e}"))?;
                let read_ms = ms(t1.elapsed());
                let c2 = cpu::process_ms();
                let QueryResult::Count(read_count) = read.result else {
                    return Err(format!("count query answered {:?}", read.result));
                };
                steps.push(Step {
                    edit,
                    reply,
                    update_ms,
                    read_ms,
                    update_cpu_ms: c1 - c0,
                    read_cpu_ms: c2 - c1,
                    kernel_ms,
                    read_count,
                    read_stats: read.stats,
                });
            }
        }
    }
    Ok((steps, start.elapsed().as_secs_f64()))
}

/// The second connection's closed loop of reads: (latency ms, count).
fn concurrent_reads(mut client: Client, stop: &AtomicBool) -> Result<Vec<(f64, u64)>, String> {
    let mut out = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        let t = Instant::now();
        let reply = client
            .query(DB_NAME, WireLanguage::XPath, OutputKind::Count, READ)
            .map_err(|e| format!("concurrent read: {e}"))?;
        let QueryResult::Count(n) = reply.result else {
            return Err(format!("count query answered {:?}", reply.result));
        };
        out.push((ms(t.elapsed()), n));
    }
    Ok(out)
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let (tree, labels) = gen::treebank(ELEMS, cfg.seed);
    let xml = cfg.dir.join("doc.xml");
    write_xml(&tree, &labels, &xml)?;
    let start_doc = Mirror::from_tree(&tree);
    drop(tree);
    let mut stream = EditStream::new(start_doc.clone(), labels.clone(), cfg.seed);
    let n_pairs = (cfg.seconds * PAIRS_PER_SECOND).ceil() as usize * if cfg.trace { 2 } else { 1 };
    let stream_pairs: Vec<[Edit; 2]> = (0..n_pairs.max(MIN_UPDATES))
        .map(|_| stream.next_pair())
        .collect();
    drop(stream);

    let mut tracer = Tracer::new(cfg.trace);
    let mut setups = Vec::new();
    let mut live: Option<(ServerHandle, Client, Vec<Vec<u32>>, std::path::PathBuf)> = None;
    let mut reference = Reference::new();
    for k in 0..SETUP_REPS {
        if let Some((handle, ..)) = live.take() {
            handle.shutdown();
        }
        let (up, setup) = timed_setup(&mut reference, || {
            let (handle, mut setup, arb) =
                setup_server(cfg, &xml, k, ServerConfig::default(), &mut tracer)?;
            let t = Instant::now();
            let mut client = Client::connect(handle.local_addr()).map_err(|e| e.to_string())?;
            let reg = tracer
                .span("server.register", k as u64, |_| {
                    client.register(DB_NAME, WireLanguage::XPath, &STANDING)
                })
                .map_err(|e| format!("register: {e}"))?;
            setup.total_s += t.elapsed().as_secs_f64();
            Ok(((handle, client, reg.initial, arb), setup))
        })?;
        setups.push(setup);
        live = Some(up);
    }
    let (handle, mut client, initial, arb) = live.expect("at least one set-up");
    let addr = handle.local_addr().to_string();
    let reader = cfg.reader.then_some(addr.as_str());

    let mut pairs = stream_pairs.into_iter();
    let untraced = if cfg.trace {
        Some(pass(
            &mut client,
            reader,
            &mut pairs,
            cfg,
            &mut Tracer::new(false),
            0,
        )?)
    } else {
        None
    };
    let op0 = untraced.as_ref().map_or(0, |p| p.steps.len());
    let main = pass(&mut client, reader, &mut pairs, cfg, &mut tracer, op0)?;
    drop(client);
    handle.shutdown();

    let mut report = Report::default();
    let updates = main.steps.len() as u64;
    report.ops.push(OpCount {
        name: "update_doc",
        attempted: updates,
        failed: 0,
    });
    report.ops.push(OpCount {
        name: "read",
        attempted: updates,
        failed: 0,
    });
    let reads: Vec<f64> = main.steps.iter().map(|s| s.read_ms).collect();
    let edits: Vec<f64> = main.steps.iter().map(|s| s.update_ms).collect();
    // Medians over whole cycles of the edit stream, so a burst of host
    // contention moves them less than it would move a mean.
    let per_cycle = |f: &dyn Fn(&Step) -> f64| {
        let sums: Vec<f64> = main
            .steps
            .chunks(2 * CYCLE_PAIRS)
            .map(|c| c.iter().map(f).sum::<f64>() / c.len() as f64)
            .collect();
        stats::median(&sums)
    };
    // Size-preserving edit pairs keep the node count at the start's.
    let nodes = start_doc.len() as u64;
    report.cost(
        "query",
        per_cycle(&|s| calib::normalise(s.read_cpu_ms, s.kernel_ms)),
        per_cycle(&|s| s.read_cpu_ms),
        nodes,
        NOMINAL_NODES,
    );
    report.cost(
        "op",
        per_cycle(&|s| calib::normalise(s.update_cpu_ms, s.kernel_ms)),
        per_cycle(&|s| s.update_cpu_ms),
        nodes,
        NOMINAL_NODES,
    );
    report.kernel(&main.steps.iter().map(|s| s.kernel_ms).collect::<Vec<_>>());
    report.common(&setups, &arb)?;
    report.wall("query", &reads);
    report.wall("update", &edits);
    report.note(format!(
        "wall throughput (not gated): {:.3} edits/s",
        updates as f64 / main.wall_s
    ));
    report.note(format!(
        "document: {nodes} nodes; {updates} edits, each followed by one read, in {:.2} s",
        main.wall_s
    ));
    report.note(format!(
        "update latency histogram (ms):\n{}",
        stats::histogram(&edits, 5.0)
    ));
    report.note(format!(
        "read latency histogram (ms):\n{}",
        stats::histogram(&reads, 5.0)
    ));
    if cfg.reader {
        let other: Vec<f64> = main.reads.iter().map(|r| r.0).collect();
        report.note(format!(
            "concurrent reader (not gated): {} reads, p50 {:.1} ms, p90 {:.1} ms",
            other.len(),
            stats::percentile(&other, 50.0),
            stats::percentile(&other, 90.0)
        ));
    }

    let all: Vec<&Step> = untraced
        .iter()
        .flat_map(|p| &p.steps)
        .chain(&main.steps)
        .collect();
    if cfg.trace {
        let mut l = Layers::new();
        let col = |f: &dyn Fn(&Step) -> f64| main.steps.iter().map(f).collect::<Vec<f64>>();
        l.insert(
            "engine.dirty_nodes",
            stats::mean(&col(&|s| s.reply.dirty_nodes as f64)),
        );
        l.insert(
            "engine.retained_sta_blocks",
            stats::mean(&col(&|s| s.reply.retained_sta_blocks as f64)),
        );
        let replayed: Vec<Edit> = all.iter().map(|s| s.edit.clone()).collect();
        replay(cfg, &xml, &replayed, &mut l, &mut tracer)?;
        let mut queries: Vec<PoolQuery> = STANDING
            .iter()
            .map(|q| PoolQuery::XPath(q.to_string()))
            .collect();
        queries.push(PoolQuery::XPath(READ.to_string()));
        let mut db = arb_engine::Database::open_arb(&arb).map_err(|e| e.to_string())?;
        probe::run(&mut db, &queries, &mut tracer)?.layers(&mut l);
        let replies: Vec<(f64, WireStats)> = main
            .steps
            .iter()
            .map(|s| (s.read_ms, s.read_stats))
            .collect();
        let base = untraced
            .as_ref()
            .expect("traced runs measure untraced first");
        server_layers(&mut l, &replies, &base.before, &main.before, &main.after);
        let base_reads: Vec<f64> = base.steps.iter().map(|s| s.read_ms).collect();
        let base_edits: Vec<f64> = base.steps.iter().map(|s| s.update_ms).collect();
        l.insert(
            "trace.overhead_query_p50_ms",
            stats::percentile(&reads, 50.0) - stats::percentile(&base_reads, 50.0),
        );
        l.insert(
            "trace.overhead_op_p50_ms",
            stats::percentile(&edits, 50.0) - stats::percentile(&base_edits, 50.0),
        );
        report.traced(&setups, &l, &tracer, "update", cfg.seed)?;
    }

    for p in untraced.iter().chain(Some(&main)) {
        check_counters(p)?;
    }
    let reads: Vec<u64> = untraced
        .iter()
        .chain(Some(&main))
        .flat_map(|p| p.reads.iter().map(|r| r.1))
        .collect();
    check_steps(&start_doc, &labels, &initial, &all, &reads)?;
    report.note(
        "checks: node counts, edit windows, pushed deltas and read-after-write counts match the \
         benchmark's own mirror under the direct evaluator; refreshes made no scans",
    );
    Ok(report)
}

/// Edit pairs the traced runs of `adhoc` and `serve` replay.
const PROBE_PAIRS: usize = 10;

/// The update layers of a workload without edits: replays the first
/// pairs of the seeded edit stream over its document.
pub fn probe_edits(
    cfg: &Config,
    xml: &std::path::Path,
    elems: usize,
    l: &mut Layers,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let (tree, labels) = gen::treebank(elems, cfg.seed);
    let mut stream = EditStream::new(Mirror::from_tree(&tree), labels, cfg.seed);
    drop(tree);
    let edits: Vec<Edit> = (0..PROBE_PAIRS).flat_map(|_| stream.next_pair()).collect();
    replay(cfg, xml, &edits, l, tracer)
}

/// Replays edits in-process on a fresh copy of the document:
/// `Database::apply_update` then `StandingQuery::refresh` of the standing
/// batch, which must make no scans.
fn replay(
    cfg: &Config,
    xml: &std::path::Path,
    edits: &[Edit],
    l: &mut Layers,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let arb = cfg.dir.join("replay").join(format!("{DB_NAME}.arb"));
    std::fs::create_dir_all(arb.parent().expect("replay dir")).map_err(|e| e.to_string())?;
    let (mut db, _) = ingest(xml, &arb, &mut Tracer::new(false), 0)?;
    let queries = STANDING
        .iter()
        .map(|q| db.compile_xpath(q).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut standing = StandingQuery::new(&queries);
    standing.prime(&db).map_err(|e| e.to_string())?;
    let (mut apply, mut refresh, mut dirty, mut retained) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (i, edit) in edits.iter().enumerate() {
        let t = Instant::now();
        let applied = tracer
            .span("storage.apply", i as u64, |_| {
                db.apply_update(&doc_update(edit))
            })
            .map_err(|e| e.to_string())?;
        apply.push(ms(t.elapsed()));
        let t = Instant::now();
        let r = tracer
            .span("engine.refresh", i as u64, |_| {
                standing.refresh(&db, &applied)
            })
            .map_err(|e| e.to_string())?;
        refresh.push(ms(t.elapsed()));
        let s = &r.batch.outcomes[0].stats;
        if s.backward_scans != 0 || s.forward_scans != 0 {
            return Err(format!(
                "a refresh made {}+{} scans",
                s.backward_scans, s.forward_scans
            ));
        }
        dirty.push(s.dirty_nodes as f64);
        retained.push(s.retained_sta_blocks as f64);
    }
    l.insert("storage.apply_ms", stats::median(&apply));
    l.insert("engine.refresh_ms", stats::median(&refresh));
    l.insert("engine.dirty_nodes", stats::mean(&dirty));
    l.insert("engine.retained_sta_blocks", stats::mean(&retained));
    l.insert(
        "storage.file_bytes",
        db.as_disk()
            .ok_or("replay needs a disk database")?
            .file_bytes() as f64,
    );
    Ok(())
}

/// Server counters: one `UpdateDoc` and one push per edit, one request
/// per read, and one scan each way per shared pass, so the refreshes
/// scanned nothing.
fn check_counters(p: &Pass) -> Result<(), String> {
    let (b, a) = (&p.before, &p.after);
    let n = p.steps.len() as u64;
    let reads = n + p.reads.len() as u64;
    let passes = a.batches - b.batches;
    let (bwd, fwd) = (
        a.backward_scans - b.backward_scans,
        a.forward_scans - b.forward_scans,
    );
    if a.doc_updates - b.doc_updates != n
        || a.delta_pushes - b.delta_pushes != n
        || a.requests - b.requests != reads
        || bwd != passes
        || fwd != passes
    {
        return Err(format!(
            "{n} edits and {reads} reads: server counted {} updates, {} pushes, {} requests, {passes} passes, {bwd}+{fwd} scans",
            a.doc_updates - b.doc_updates,
            a.delta_pushes - b.delta_pushes,
            a.requests - b.requests
        ));
    }
    for s in &p.steps {
        let w = &s.read_stats;
        if w.backward_scans + w.forward_scans > 2 {
            return Err(format!(
                "a read made {}+{} scans",
                w.backward_scans, w.forward_scans
            ));
        }
    }
    Ok(())
}

/// What the direct evaluator says about one mirror state.
struct Expected {
    standing: Vec<Vec<u32>>,
    read: u64,
}

fn direct(doc: &Mirror, labels: &LabelTable) -> Expected {
    let tree = doc.to_tree();
    let eval = |q: &str| {
        let path = arb_xpath::parse_xpath(q).expect("workload queries parse");
        arb_xpath::DirectEvaluator::new(&tree, labels).evaluate(&path)
    };
    Expected {
        standing: STANDING.iter().map(|q| gen::node_ids(&eval(q))).collect(),
        read: eval(READ).count() as u64,
    }
}

/// Replays the edits on the benchmark's own mirror and checks, after
/// every edit, the node count and edit window the server reported, each
/// standing query's result (previous result shifted by the window plus
/// the pushed delta), and the read-after-write count, all against the
/// direct evaluator on the mirror.
///
/// A concurrent reader's counts race with the edits, so each must only
/// equal the direct evaluator's count at some epoch of the run.
fn check_steps(
    start: &Mirror,
    labels: &LabelTable,
    initial: &[Vec<u32>],
    steps: &[&Step],
    concurrent: &[u64],
) -> Result<(), String> {
    // Two threads evaluate alternate steps; each replays every edit.
    let expected: Vec<(usize, Expected)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|w| {
                scope.spawn(move || {
                    let mut doc = start.clone();
                    let mut out = Vec::new();
                    if w == 0 {
                        out.push((0, direct(&doc, labels)));
                    }
                    for (i, s) in steps.iter().enumerate() {
                        doc.apply(&s.edit, labels);
                        if (i + 1) % 2 == w {
                            out.push((i + 1, direct(&doc, labels)));
                        }
                    }
                    out
                })
            })
            .collect();
        let mut all: Vec<(usize, Expected)> = workers
            .into_iter()
            .flat_map(|w| w.join().expect("check thread"))
            .collect();
        all.sort_by_key(|(i, _)| *i);
        all
    });
    let mut results: Vec<Vec<u32>> = initial.to_vec();
    if results != expected[0].1.standing {
        return Err("the registration's initial results differ from the direct evaluator's".into());
    }
    let mut doc = start.clone();
    for (i, step) in steps.iter().enumerate() {
        let before = doc.len();
        let (pos, removed, inserted) = doc.apply(&step.edit, labels);
        let r = &step.reply;
        if r.nodes != (before + inserted - removed) as u64
            || r.nodes != doc.len() as u64
            || (r.pos as usize, r.removed as usize, r.inserted as usize) != (pos, removed, inserted)
        {
            return Err(format!(
                "edit {i} ({:?}): server reports window ({}, -{}, +{}) and {} nodes, the mirror ({pos}, -{removed}, +{inserted}) and {} nodes",
                step.edit, r.pos, r.removed, r.inserted, r.nodes, doc.len()
            ));
        }
        let push = r.pushes.first().ok_or("an update pushed no deltas")?;
        let want = &expected[i + 1].1;
        for (q, (set, delta)) in results.iter_mut().zip(&push.queries).enumerate() {
            let shift = inserted as i64 - removed as i64;
            let mut next: Vec<u32> = set
                .iter()
                .filter(|&&v| (v as usize) < pos || (v as usize) >= pos + removed)
                .map(|&v| {
                    if (v as usize) < pos {
                        v
                    } else {
                        (v as i64 + shift) as u32
                    }
                })
                .filter(|v| !delta.removed.contains(v))
                .chain(delta.added.iter().copied())
                .collect();
            next.sort_unstable();
            if next != want.standing[q] {
                return Err(format!(
                    "edit {i}: {} holds {} nodes after the pushed delta, the direct evaluator {}",
                    STANDING[q],
                    next.len(),
                    want.standing[q].len()
                ));
            }
            *set = next;
        }
        if step.read_count != want.read {
            return Err(format!(
                "edit {i}: read {READ} counted {}, the direct evaluator {}",
                step.read_count, want.read
            ));
        }
    }
    let epochs: std::collections::BTreeSet<u64> = expected.iter().map(|(_, e)| e.read).collect();
    if let Some(n) = concurrent.iter().find(|n| !epochs.contains(n)) {
        return Err(format!(
            "a concurrent read counted {n}, which no epoch of the run has"
        ));
    }
    Ok(())
}
