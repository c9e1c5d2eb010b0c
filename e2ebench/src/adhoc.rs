//! `adhoc`: one caller sends a seeded pool of distinct queries, each
//! compiled and prepared on a fresh `Session` of a disk database whose
//! `.arb` file is larger than the L2 cache, so every query misses every
//! cache the program has.

use crate::calib::{self, Reference};
use crate::gen::{self, PoolQuery};
use crate::probe::{self, compile};
use crate::trace::Tracer;
use crate::{
    cpu, ingest, ms, stats, timed_setup, write_xml, Config, Layers, OpCount, Report, SETUP_REPS,
};
use arb_core::EvalStats;
use arb_engine::{Database, EvalRequest, NodeSetSink};
use std::time::Instant;

/// Element target of the document: about 1.67M nodes, a 4.4 MB `.arb`.
const ELEMS: usize = 400_000;
/// The document size the gated figures are scaled to: about the mean node
/// count of the generator for [`ELEMS`] elements.
const NOMINAL_NODES: u64 = 1_680_000;
/// Figure 6 path queries in the pool: six of each size from 5 to 15.
const PATHS: usize = 66;
/// XPath location paths in the pool: every shape with every predicate
/// kind once.
const XPATHS: usize = 28;
/// Every how many pool queries the traced run probes one.
const PROBE_EVERY: usize = 5;

struct Sample {
    latency_ms: f64,
    /// CPU time of the calling thread, which does all of the query's work.
    cpu_ms: f64,
    /// The reference kernel's CPU time, run just before the query.
    kernel_ms: f64,
    compile_ms: f64,
    prepare_ms: f64,
    stats: EvalStats,
}

/// One cold query: compile, prepare a fresh session, evaluate.
fn cold_query(
    db: &mut Database,
    q: &PoolQuery,
    tracer: &mut Tracer,
    op: u64,
) -> Result<(Sample, Vec<u32>), String> {
    tracer.span("adhoc.query", op, |t| {
        let c0 = cpu::thread_ms();
        let t0 = Instant::now();
        let query = t.span("xpath.compile", op, |_| compile(db, q))?;
        let t1 = Instant::now();
        let session = t.span("engine.prepare", op, |_| db.prepare(&[query]));
        let t2 = Instant::now();
        let mut sink = NodeSetSink::default();
        let report = t
            .span("engine.eval", op, |_| {
                session.eval(&EvalRequest::new(), &mut sink)
            })
            .map_err(|e| format!("{}: {e}", q.text()))?;
        let latency_ms = ms(t0.elapsed());
        let cpu_ms = cpu::thread_ms() - c0;
        let stats = report.batch.ok_or("no outcome")?.outcomes[0].stats.clone();
        let selected = gen::node_ids(&sink.sets()[0]);
        Ok((
            Sample {
                latency_ms,
                cpu_ms,
                kernel_ms: 0.0,
                compile_ms: ms(t1 - t0),
                prepare_ms: ms(t2 - t1),
                stats,
            },
            selected,
        ))
    })
}

struct Pass {
    samples: Vec<Sample>,
    wall_s: f64,
    failed: u64,
}

/// Whole rounds over the pool until the budget is spent. The first
/// round's results are kept for the checks.
fn pass(
    db: &mut Database,
    pool: &[PoolQuery],
    cfg: &Config,
    tracer: &mut Tracer,
    results: &mut [Option<Vec<u32>>],
) -> Pass {
    let mut reference = Reference::new();
    let mut p = Pass {
        samples: Vec::new(),
        wall_s: 0.0,
        failed: 0,
    };
    let start = Instant::now();
    while p.samples.len() as u64 + p.failed == 0 || start.elapsed() < cfg.budget() {
        for (ix, q) in pool.iter().enumerate() {
            let op = p.samples.len() as u64 + p.failed;
            let kernel_ms = reference.run();
            match cold_query(db, q, tracer, op) {
                Ok((sample, selected)) => {
                    p.samples.push(Sample {
                        kernel_ms,
                        ..sample
                    });
                    if results[ix].is_none() {
                        results[ix] = Some(selected);
                    }
                }
                Err(e) => {
                    eprintln!("adhoc: query failed: {e}");
                    p.failed += 1;
                }
            }
        }
    }
    p.wall_s = start.elapsed().as_secs_f64();
    p
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let (tree, labels) = gen::treebank(ELEMS, cfg.seed);
    let nodes = tree.len() as u64;
    let xml = cfg.dir.join("doc.xml");
    write_xml(&tree, &labels, &xml)?;
    drop(tree);
    let pool = gen::query_pool(cfg.seed, PATHS, XPATHS);

    let mut tracer = Tracer::new(cfg.trace);
    let mut setups = Vec::new();
    let mut db = None;
    let mut reference = Reference::new();
    for k in 0..SETUP_REPS {
        let arb = cfg.dir.join(format!("s{k}")).join("doc.arb");
        std::fs::create_dir_all(arb.parent().unwrap()).map_err(|e| e.to_string())?;
        let (d, s) = timed_setup(&mut reference, || ingest(&xml, &arb, &mut tracer, k as u64))?;
        setups.push(s);
        db = Some((d, arb));
    }
    let (mut db, arb) = db.expect("at least one set-up");

    let mut results: Vec<Option<Vec<u32>>> = vec![None; pool.len()];
    // The traced run measures the same rounds untraced first, so the
    // difference shows what tracing costs.
    let untraced = if cfg.trace {
        Some(pass(
            &mut db,
            &pool,
            cfg,
            &mut Tracer::new(false),
            &mut results,
        ))
    } else {
        None
    };
    let main = pass(&mut db, &pool, cfg, &mut tracer, &mut results);

    let mut report = Report::default();
    report.ops.push(OpCount {
        name: "query",
        attempted: main.samples.len() as u64 + main.failed,
        failed: main.failed,
    });
    let latencies: Vec<f64> = main.samples.iter().map(|s| s.latency_ms).collect();
    // Means over whole rounds of the pool, whose make-up is fixed.
    let n = main.samples.len() as f64;
    let norm_ms = main
        .samples
        .iter()
        .map(|s| calib::normalise(s.cpu_ms, s.kernel_ms))
        .sum::<f64>()
        / n;
    let cpu_ms = main.samples.iter().map(|s| s.cpu_ms).sum::<f64>() / n;
    report.cost("query", norm_ms, cpu_ms, nodes, NOMINAL_NODES);
    report.cost("op", norm_ms, cpu_ms, nodes, NOMINAL_NODES);
    report.kernel(&main.samples.iter().map(|s| s.kernel_ms).collect::<Vec<_>>());
    report.common(&setups, &arb)?;
    report.wall("query", &latencies);
    let qps = main.samples.len() as f64 / main.wall_s;
    report.note(format!(
        "wall throughput (not gated): {qps:.3} queries/s, {:.3} Mnodes/s",
        qps * nodes as f64 / 1e6
    ));
    report.note(format!(
        "document: {nodes} nodes; pool: {PATHS} path + {XPATHS} XPath queries; {} queries in {:.2} s",
        latencies.len(),
        main.wall_s
    ));
    report.note(format!(
        "latency histogram (ms):\n{}",
        stats::histogram(&latencies, 25.0)
    ));

    if cfg.trace {
        let mut l = Layers::new();
        let col = |f: fn(&Sample) -> f64| main.samples.iter().map(f).collect::<Vec<f64>>();
        l.insert("xpath.compile_ms", stats::median(&col(|s| s.compile_ms)));
        l.insert("engine.prepare_ms", stats::median(&col(|s| s.prepare_ms)));
        l.insert(
            "engine.phase1_ms",
            stats::median(&col(|s| ms(s.stats.phase1_time))),
        );
        l.insert(
            "engine.phase2_ms",
            stats::median(&col(|s| ms(s.stats.phase2_time))),
        );
        let evals: Vec<EvalStats> = main.samples.iter().map(|s| s.stats.clone()).collect();
        probe::eval_layers(&evals, &mut l);
        let sampled: Vec<PoolQuery> = pool.iter().step_by(PROBE_EVERY).cloned().collect();
        probe::run(&mut db, &sampled, &mut tracer)?.layers(&mut l);
        // The server and the update path, which the loop bypasses, on the
        // same file.
        probe::server(&arb, &sampled, &mut l, &mut tracer)?;
        crate::update::probe_edits(cfg, &xml, ELEMS, &mut l, &mut tracer)?;
        let untraced = untraced.expect("traced runs measure untraced first");
        let base: Vec<f64> = untraced.samples.iter().map(|s| s.latency_ms).collect();
        let overhead = stats::percentile(&latencies, 50.0) - stats::percentile(&base, 50.0);
        l.insert("trace.overhead_query_p50_ms", overhead);
        l.insert("trace.overhead_op_p50_ms", overhead);
        report.traced(&setups, &l, &tracer, "adhoc", cfg.seed)?;
    }
    drop(db);

    check(cfg, &pool, &results, &main.samples, nodes)?;
    report
        .note("checks: every pool query's node set equals the independent evaluator's".to_string());
    Ok(report)
}

/// Compares every query's node set with the naive fixpoint (path
/// queries) or the direct XPath evaluator, on the in-memory tree, and
/// checks that every evaluation made one scan each way.
fn check(
    cfg: &Config,
    pool: &[PoolQuery],
    results: &[Option<Vec<u32>>],
    samples: &[Sample],
    nodes: u64,
) -> Result<(), String> {
    for s in samples {
        if s.stats.backward_scans != 1 || s.stats.forward_scans != 1 || s.stats.nodes != nodes {
            return Err(format!(
                "an evaluation made {} backward and {} forward scans over {} of {nodes} nodes",
                s.stats.backward_scans, s.stats.forward_scans, s.stats.nodes
            ));
        }
    }
    let (tree, labels) = gen::treebank(ELEMS, cfg.seed);
    let expected: Vec<(usize, Vec<u32>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|w| {
                let (tree, labels) = (&tree, &labels);
                scope.spawn(move || {
                    let mut labels = labels.clone();
                    (w..pool.len())
                        .step_by(2)
                        .map(|ix| (ix, oracle(&pool[ix], tree, &mut labels)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("oracle thread"))
            .collect()
    });
    for (ix, want) in expected {
        if let Some(got) = &results[ix] {
            if *got != want {
                return Err(format!(
                    "{}: engine selected {} nodes, the independent evaluator {}",
                    pool[ix].text(),
                    got.len(),
                    want.len()
                ));
            }
        }
    }
    Ok(())
}

fn oracle(
    q: &PoolQuery,
    tree: &arb_tree::BinaryTree,
    labels: &mut arb_tree::LabelTable,
) -> Vec<u32> {
    match q {
        PoolQuery::Path { program, .. } => {
            let prog = arb_tmnf::compile(program, labels).expect("pool programs parse");
            let pred = prog.pred_id("QUERY").expect("path programs define QUERY");
            gen::node_ids(arb_tmnf::naive::evaluate(&prog, tree).extent(pred))
        }
        PoolQuery::XPath(src) => {
            let path = arb_xpath::parse_xpath(src).expect("pool paths parse");
            gen::node_ids(&arb_xpath::DirectEvaluator::new(tree, labels).evaluate(&path))
        }
    }
}
