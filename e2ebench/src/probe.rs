//! Traced-run probes that split a query's time by layer from outside:
//! the lazy δ work (a cold run minus a warm rerun of the same session),
//! evaluation on the materialized tree (which bounds the storage share),
//! and full raw scans of the database file.

use crate::gen::PoolQuery;
use crate::trace::Tracer;
use crate::{ms, stats, Layers};
use arb_core::EvalStats;
use arb_engine::{Database, EvalRequest, NodeSetSink, Query};
use arb_server::protocol::{OutputKind, WireLanguage};
use arb_server::{Client, Server, ServerConfig};
use std::path::Path;
use std::time::Instant;

/// Compiles a pool query against the database (`Database::compile_tmnf`
/// or `Database::compile_xpath`).
pub fn compile(db: &mut Database, q: &PoolQuery) -> Result<Query, String> {
    match q {
        PoolQuery::Path { program, .. } => db.compile_tmnf(program),
        PoolQuery::XPath(src) => db.compile_xpath(src),
    }
    .map_err(|e| format!("{}: {e}", q.text()))
}

/// Per-query figures of the probe.
#[derive(Default)]
pub struct Probe {
    /// Statistics of each query's cold run.
    pub cold: Vec<EvalStats>,
    pub compile_ms: Vec<f64>,
    pub prepare_ms: Vec<f64>,
    pub lazy_delta_ms: Vec<f64>,
    pub warm_ms: Vec<f64>,
    pub memory_ms: Vec<f64>,
    pub bwd_decode_ms: f64,
    pub fwd_decode_ms: f64,
}

/// Raw scan repetitions; the probe reports their median.
const SCAN_REPS: usize = 5;

/// Runs every query cold, warm and in memory on a fresh session each,
/// then scans the whole file both ways.
pub fn run(db: &mut Database, queries: &[PoolQuery], tracer: &mut Tracer) -> Result<Probe, String> {
    let mut p = Probe::default();
    for (i, q) in queries.iter().enumerate() {
        let op = i as u64;
        let t = Instant::now();
        let query = compile(db, q)?;
        p.compile_ms.push(ms(t.elapsed()));
        let t = Instant::now();
        let session = db.prepare(&[query]);
        p.prepare_ms.push(ms(t.elapsed()));
        let mut timed = |name: &'static str, req: &EvalRequest| {
            let t = Instant::now();
            let report = tracer
                .span(name, op, |_| session.eval(req, &mut NodeSetSink::default()))
                .map_err(|e| format!("{}: {e}", q.text()))?;
            let stats = report
                .batch
                .map(|b| b.outcomes[0].stats.clone())
                .unwrap_or_default();
            Ok::<_, String>((ms(t.elapsed()), stats))
        };
        let (cold_ms, cold) = timed("probe.cold_eval", &EvalRequest::new())?;
        let (warm_ms, _) = timed("probe.warm_eval", &EvalRequest::new())?;
        let (_, memory) = timed("core.memory_eval", &EvalRequest::new().prefer_memory(true))?;
        p.cold.push(cold);
        p.lazy_delta_ms.push(cold_ms - warm_ms);
        p.warm_ms.push(warm_ms);
        // Evaluation time on the tree, without the materialization.
        p.memory_ms.push(ms(memory.total_time()));
    }
    let disk = db.as_disk().ok_or("probe needs a disk database")?;
    let mut bwd = Vec::new();
    let mut fwd = Vec::new();
    for rep in 0..SCAN_REPS as u64 {
        let t = Instant::now();
        let n = tracer.span("storage.bwd_decode", rep, |_| {
            let mut scan = disk.backward_scan()?;
            let mut n = 0u64;
            while scan.next_record()?.is_some() {
                n += 1;
            }
            Ok::<_, std::io::Error>(n)
        });
        bwd.push(ms(t.elapsed()));
        let t = Instant::now();
        let m = tracer.span("storage.fwd_decode", rep, |_| {
            let mut scan = disk.forward_scan()?;
            let mut n = 0u64;
            while scan.next_record()?.is_some() {
                n += 1;
            }
            Ok::<_, std::io::Error>(n)
        });
        fwd.push(ms(t.elapsed()));
        let (n, m) = (n.map_err(|e| e.to_string())?, m.map_err(|e| e.to_string())?);
        if n != db.node_count() || m != db.node_count() {
            return Err(format!(
                "raw scans read {n} and {m} records of {}",
                db.node_count()
            ));
        }
    }
    p.bwd_decode_ms = stats::median(&bwd);
    p.fwd_decode_ms = stats::median(&fwd);
    Ok(p)
}

impl Probe {
    /// Fills the probe's layers (those the workload did not record).
    pub fn layers(&self, l: &mut Layers) {
        l.insert("xpath.compile_ms", stats::median(&self.compile_ms));
        l.insert("engine.prepare_ms", stats::median(&self.prepare_ms));
        l.insert("core.lazy_delta_ms", stats::median(&self.lazy_delta_ms));
        l.insert("core.warm_eval_ms", stats::median(&self.warm_ms));
        l.insert("core.memory_eval_ms", stats::median(&self.memory_ms));
        l.insert("storage.bwd_decode_ms", self.bwd_decode_ms);
        l.insert("storage.fwd_decode_ms", self.fwd_decode_ms);
        eval_layers(&self.cold, l);
    }
}

/// The server layers of a workload that does not use the server: starts
/// one over the workload's file and sends each query once through one
/// connection.
pub fn server(
    arb: &Path,
    queries: &[PoolQuery],
    l: &mut Layers,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let t = Instant::now();
    let handle = tracer
        .span("server.start", 0, |_| {
            Server::start(ServerConfig::default(), &[arb])
        })
        .map_err(|e| e.to_string())?;
    l.insert("server.start_s", t.elapsed().as_secs_f64());
    let name = arb
        .file_stem()
        .and_then(|s| s.to_str())
        .ok_or("database name")?;
    let mut client = Client::connect(handle.local_addr()).map_err(|e| e.to_string())?;
    let before = client.server_stats().map_err(|e| e.to_string())?;
    let mut replies = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let (language, src) = match q {
            PoolQuery::Path { program, .. } => (WireLanguage::Tmnf, program),
            PoolQuery::XPath(src) => (WireLanguage::XPath, src),
        };
        let t = Instant::now();
        let reply = tracer
            .span("client.query", i as u64, |_| {
                client.query(name, language, OutputKind::Count, src)
            })
            .map_err(|e| format!("{}: {e}", q.text()))?;
        replies.push((ms(t.elapsed()), reply.stats));
    }
    let after = client.server_stats().map_err(|e| e.to_string())?;
    drop(client);
    handle.shutdown();
    crate::serve::server_layers(l, &replies, &before, &before, &after);
    Ok(())
}

/// Automata and storage layers from evaluation statistics.
pub fn eval_layers(runs: &[EvalStats], l: &mut Layers) {
    let col = |f: &dyn Fn(&EvalStats) -> f64| runs.iter().map(f).collect::<Vec<f64>>();
    l.insert(
        "core.automata_build_ms",
        stats::median(&col(&|s| ms(s.automata_build_time))),
    );
    l.insert(
        "core.transitions",
        stats::mean(&col(&|s| {
            (s.phase1_transitions + s.phase2_transitions) as f64
        })),
    );
    l.insert("core.bu_states", stats::mean(&col(&|s| s.bu_states as f64)));
    l.insert("core.td_states", stats::mean(&col(&|s| s.td_states as f64)));
    l.insert(
        "storage.blocks_decoded",
        stats::mean(&col(&|s| s.blocks_decoded as f64)),
    );
    l.insert(
        "storage.sta_bytes_per_node",
        stats::mean(&col(&|s| {
            s.sta_encoded_bytes as f64 / s.nodes.max(1) as f64
        })),
    );
}
