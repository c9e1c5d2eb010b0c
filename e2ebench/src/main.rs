//! End-to-end benchmark of the arb-rs query engine, server and update
//! path. See README.md for the workloads, metrics and reference figures.
//!
//! ```text
//! e2ebench --workload adhoc|serve|update --seed N --seconds S --trace 0|1
//! e2ebench --workload W --seed N --seconds S --trace 0|1 --repeat K
//! ```
//!
//! One run builds its inputs from the seed, measures for at least the
//! given seconds in whole rounds, checks every output against an
//! evaluator that does not share the program's automata, and prints one
//! JSON object as its last line. `--repeat K` runs K seeds (N, N+1, ...)
//! in child processes and prints each metric's median and quartiles.

mod adhoc;
mod calib;
mod cpu;
mod gen;
mod probe;
mod serve;
mod stats;
mod trace;
mod update;

use arb_engine::Database;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use trace::Tracer;

/// What one run is asked to do.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `update` only: a second connection reads while the edits run.
    pub reader: bool,
    /// A directory of the run's own, removed when the run ends.
    pub dir: PathBuf,
}

impl Config {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// How many times each run sets up its database; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// Counts of one operation type.
pub struct OpCount {
    pub name: &'static str,
    pub attempted: u64,
    pub failed: u64,
}

/// Per-layer figures of a traced run, by name. The first figure recorded
/// for a layer stands: a workload records what its own loop measured,
/// then the probes fill in the layers the loop does not reach.
#[derive(Default, Clone)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn insert(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_insert(value);
    }
}

/// Every per-layer metric with its unit, in print order. A traced run
/// reports all of them.
pub const LAYERS: &[(&str, &str)] = &[
    ("xml.parse_s", "s"),
    ("storage.create_s", "s"),
    ("server.start_s", "s"),
    ("xpath.compile_ms", "ms"),
    ("engine.prepare_ms", "ms"),
    ("engine.phase1_ms", "ms"),
    ("engine.phase2_ms", "ms"),
    ("core.automata_build_ms", "ms"),
    ("core.lazy_delta_ms", "ms"),
    ("core.warm_eval_ms", "ms"),
    ("core.transitions", "count"),
    ("core.bu_states", "count"),
    ("core.td_states", "count"),
    ("storage.bwd_decode_ms", "ms"),
    ("storage.fwd_decode_ms", "ms"),
    ("core.memory_eval_ms", "ms"),
    ("storage.blocks_decoded", "count"),
    ("storage.sta_bytes_per_node", "B/node"),
    ("server.queue_wait_ms", "ms"),
    ("server.pass_ms", "ms"),
    ("server.other_ms", "ms"),
    ("server.batch_size", "count"),
    ("server.scans_per_query", "count"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.automata_builds", "count"),
    ("storage.apply_ms", "ms"),
    ("engine.refresh_ms", "ms"),
    ("engine.dirty_nodes", "count"),
    ("engine.retained_sta_blocks", "count"),
    ("storage.file_bytes", "B"),
    ("trace.overhead_query_p50_ms", "ms"),
    ("trace.overhead_op_p50_ms", "ms"),
];

/// What a run measured.
#[derive(Default)]
pub struct Report {
    pub ops: Vec<OpCount>,
    /// End-to-end metrics (name, value, unit), in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Per-layer metrics of a traced run, in [`LAYERS`] order.
    pub layers: Vec<(String, f64, &'static str)>,
    /// Lines printed before the result (sample counts, self times).
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Reports `{prefix}_norm_ms`, CPU time per operation at the
    /// reference kernel's nominal speed (see [`calib`]) on a document of
    /// `nominal` nodes, and notes the raw CPU time per operation beside
    /// it. The generator's node count for a fixed element target varies
    /// with the seed by several percent, and every operation the workloads
    /// time is linear in it (two scans, or an O(n) apply), so the figure is
    /// scaled by `nominal / nodes`.
    pub fn cost(&mut self, prefix: &str, norm_ms: f64, cpu_ms: f64, nodes: u64, nominal: u64) {
        let scale = nominal as f64 / nodes as f64;
        self.metric(&format!("{prefix}_norm_ms"), norm_ms * scale, "ms");
        self.note(format!(
            "{prefix} CPU time (not gated): {cpu_ms:.3} ms per operation on {nodes} nodes"
        ));
    }

    /// Notes the reference kernel's CPU times over the run.
    pub fn kernel(&mut self, runs_ms: &[f64]) {
        let [q1, q2, q3] = stats::quartiles(runs_ms);
        self.note(format!(
            "reference kernel: {} runs, CPU time q1 {q1:.4}, median {q2:.4}, q3 {q3:.4} ms (nominal {} ms)",
            runs_ms.len(),
            calib::NOMINAL_MS
        ));
    }

    /// Notes a wall-clock latency distribution: median, and p90 when
    /// at least ten samples lie beyond it, with the sample count. Not
    /// gated; see [`Self::cost`].
    pub fn wall(&mut self, prefix: &str, samples: &[f64]) {
        let p90 = stats::p90(samples).map_or(String::new(), |p| format!(", p90 {p:.3} ms"));
        self.note(format!(
            "{prefix} wall latency (not gated): {} samples, p50 {:.3} ms{p90}",
            samples.len(),
            stats::percentile(samples, 50.0),
        ));
    }

    /// The end-to-end metrics every workload reports, from its sizes.
    pub fn common(&mut self, setup: &[Setup], db_path: &Path) -> Result<(), String> {
        let col = |f: fn(&Setup) -> f64| setup.iter().map(f).collect::<Vec<_>>();
        self.metric("setup_s", stats::median(&col(|s| s.norm_s)), "s");
        self.note(format!(
            "set-up wall time (not gated): median {:.4} s of {}",
            stats::median(&col(|s| s.total_s)),
            setup.len()
        ));
        let db = arb_storage::ArbDatabase::open(db_path).map_err(|e| e.to_string())?;
        self.metric(
            "bytes_per_node",
            db.file_bytes() as f64 / f64::from(db.node_count()),
            "B/node",
        );
        self.metric("peak_rss_mb", peak_rss_mb()?, "MiB");
        Ok(())
    }

    /// Completes a traced run: adds the set-up layers to `l` (where no
    /// probe measured them), records every layer in [`LAYERS`] order,
    /// prints the spans' self times and writes the spans out.
    pub fn traced(
        &mut self,
        setup: &[Setup],
        l: &Layers,
        tracer: &Tracer,
        workload: &str,
        seed: u64,
    ) -> Result<(), String> {
        let med = |f: fn(&Setup) -> f64| stats::median(&setup.iter().map(f).collect::<Vec<_>>());
        let mut l = l.clone();
        l.insert("xml.parse_s", med(|s| s.parse_s));
        l.insert("storage.create_s", med(|s| s.create_s));
        l.insert("server.start_s", med(|s| s.start_s));
        for name in l.0.keys() {
            assert!(
                LAYERS.iter().any(|(n, _)| n == name),
                "unlisted layer {name}"
            );
        }
        for (name, unit) in LAYERS {
            let value =
                *l.0.get(name)
                    .ok_or(format!("layer {name} was not measured"))?;
            self.layers.push((name.to_string(), value, unit));
        }
        self.note(format!("span self times:\n{}", tracer.self_time_table()));
        let dir = Path::new(".bench_data").join("traces");
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
        tracer.write_jsonl(&path).map_err(|e| e.to_string())?;
        self.note(format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        ));
        Ok(())
    }
}

/// Times of one set-up: XML ingest, open, and (on the server workloads)
/// server start.
#[derive(Clone, Copy, Default)]
pub struct Setup {
    pub parse_s: f64,
    pub create_s: f64,
    pub start_s: f64,
    pub total_s: f64,
    /// The process's CPU time over the whole set-up, in s at the
    /// reference kernel's nominal speed: what `setup_s` reports.
    pub norm_s: f64,
}

/// Runs one set-up `f` after a reference kernel run, and records its
/// process CPU time at the kernel's nominal speed in [`Setup::norm_s`].
pub fn timed_setup<T>(
    reference: &mut calib::Reference,
    f: impl FnOnce() -> Result<(T, Setup), String>,
) -> Result<(T, Setup), String> {
    let kernel_ms = reference.run();
    let c0 = cpu::process_ms();
    let (out, mut setup) = f()?;
    setup.norm_s = calib::normalise(cpu::process_ms() - c0, kernel_ms) / 1e3;
    Ok((out, setup))
}

/// Parses the XML file and writes it as a `.arb` database at `arb`
/// (`arb_xml::to_tree` then `create_from_tree_with`), then opens it.
pub fn ingest(
    xml: &Path,
    arb: &Path,
    tracer: &mut Tracer,
    op: u64,
) -> Result<(Database, Setup), String> {
    let t0 = Instant::now();
    let tree = tracer.span("xml.parse", op, |_| {
        let file = std::fs::File::open(xml).map_err(|e| e.to_string())?;
        let mut labels = arb_tree::LabelTable::new();
        let tree = arb_xml::to_tree(
            BufReader::new(file),
            &arb_xml::XmlConfig::default(),
            &mut labels,
        )
        .map_err(|e| e.to_string())?;
        Ok::<_, String>((tree, labels))
    })?;
    let parse_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    tracer.span("storage.create", op, |_| {
        arb_storage::create_from_tree_with(&tree.0, &tree.1, arb, arb_storage::FormatVersion::V2)
            .map_err(|e| e.to_string())
    })?;
    drop(tree);
    let create_s = t1.elapsed().as_secs_f64();
    let db = tracer.span("engine.open", op, |_| {
        Database::open_arb(arb).map_err(|e| e.to_string())
    })?;
    Ok((
        db,
        Setup {
            parse_s,
            create_s,
            start_s: 0.0,
            total_s: t0.elapsed().as_secs_f64(),
            norm_s: 0.0,
        },
    ))
}

/// The XML text of a generated document.
pub fn write_xml(
    tree: &arb_tree::BinaryTree,
    labels: &arb_tree::LabelTable,
    path: &Path,
) -> Result<(), String> {
    let mut out = Vec::with_capacity(tree.len() * 3);
    arb_xml::write_tree(tree, labels, &mut out).map_err(|e| e.to_string())?;
    std::fs::write(path, out).map_err(|e| e.to_string())
}

/// The process's high-water resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    reader: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
        value
            .parse()
            .map_err(|_| format!("bad value {value:?} for {flag}"))
    }
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 12.0,
        trace: false,
        reader: false,
        repeat: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = parse(flag, value)?,
            "--seconds" => args.seconds = parse(flag, value)?,
            "--trace" => args.trace = parse::<u8>(flag, value)? != 0,
            "--concurrent-reader" => args.reader = parse::<u8>(flag, value)? != 0,
            "--repeat" => args.repeat = Some(parse(flag, value)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["adhoc", "serve", "update"].contains(&args.workload.as_str()) {
        return Err("--workload adhoc|serve|update is required".to_string());
    }
    Ok(args)
}

/// The result line: end-to-end metrics, or per-layer ones when traced.
fn json_line(report: &Report, traced: bool) -> String {
    let attempted: u64 = report.ops.iter().map(|o| o.attempted).sum();
    let failed: u64 = report.ops.iter().map(|o| o.failed).sum();
    let shown = if traced {
        &report.layers
    } else {
        &report.metrics
    };
    let mut metrics = String::new();
    for (i, (name, value, unit)) in shown.iter().enumerate() {
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!("{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}")
}

fn run_once(args: &Args) -> Result<Report, String> {
    let dir =
        PathBuf::from(".bench_data").join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        reader: args.reader,
        dir: dir.clone(),
    };
    let result = match args.workload.as_str() {
        "adhoc" => adhoc::run(&cfg),
        "serve" => serve::run(&cfg),
        _ => update::run(&cfg),
    };
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Runs `k` seeds of one workload in child processes and prints each
/// metric's median and quartiles.
fn repeat(args: &Args, k: usize) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
    for i in 0..k as u64 {
        let seed = args.seed + i;
        let out = Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .args(["--concurrent-reader", if args.reader { "1" } else { "0" }])
            .output()
            .map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            return Err(format!(
                "seed {seed} failed ({}): {}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let last = stdout.lines().last().unwrap_or_default();
        println!("seed {seed}: {last}");
        for (name, unit, value) in parse_metrics(last) {
            match values.iter_mut().find(|(n, _, _)| *n == name) {
                Some((_, _, vs)) => vs.push(value),
                None => values.push((name, unit, vec![value])),
            }
        }
    }
    println!(
        "\n{:<32} {:>10} {:>12} {:>12} {:>12} {:>8}",
        "metric", "unit", "q1", "median", "q3", "iqr/med"
    );
    for (name, unit, vs) in &values {
        let [q1, q2, q3] = stats::quartiles(vs);
        let spread = if q2 != 0.0 { (q3 - q1) / q2.abs() } else { 0.0 };
        println!("{name:<32} {unit:>10} {q1:>12.4} {q2:>12.4} {q3:>12.4} {spread:>8.4}");
    }
    Ok(())
}

/// Reads `"name": {"value": v, "unit": "u"}` entries back from a result
/// line printed by [`json_line`].
fn parse_metrics(line: &str) -> Vec<(String, String, f64)> {
    let mut out = Vec::new();
    let Some(body) = line.split("\"metrics\": {").nth(1) else {
        return out;
    };
    for entry in body.split("}, ") {
        let name = entry.split('"').nth(1).unwrap_or_default().to_string();
        let value = entry
            .split("\"value\": ")
            .nth(1)
            .and_then(|v| v.split(',').next())
            .and_then(|v| v.trim().parse::<f64>().ok());
        let unit = entry
            .split("\"unit\": \"")
            .nth(1)
            .and_then(|u| u.split('"').next())
            .unwrap_or_default()
            .to_string();
        if let Some(value) = value {
            out.push((name, unit, value));
        }
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(k) = args.repeat {
        return match repeat(&args, k) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("e2ebench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run_once(&args) {
        Ok(report) => {
            for op in &report.ops {
                println!(
                    "ops {:<16} attempted {:>6} failed {:>3}",
                    op.name, op.attempted, op.failed
                );
            }
            for line in &report.notes {
                println!("{line}");
            }
            for (name, value, unit) in report.metrics.iter().chain(&report.layers) {
                println!("{name:<32} {value:>14.4} {unit}");
            }
            println!("{}", json_line(&report, args.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let mut r = Report::default();
        r.ops.push(OpCount {
            name: "query",
            attempted: 10,
            failed: 0,
        });
        r.metric("query_norm_ms", 1.25, "ms");
        r.metric("qps", 80.5, "1/s");
        let line = json_line(&r, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        let parsed = parse_metrics(&line);
        assert_eq!(
            parsed,
            vec![
                ("query_norm_ms".to_string(), "ms".to_string(), 1.25),
                ("qps".to_string(), "1/s".to_string(), 80.5)
            ]
        );
    }
}
