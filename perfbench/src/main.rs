//! The repository benchmark. One run sets up one workload from a seed,
//! times whole passes over its ops for `--seconds`, checks every op, and
//! prints its metrics — end-to-end ones with `--trace 0`, per-layer ones
//! from a separate traced run with `--trace 1`. The last line of standard
//! output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table1|sparse|fabric|service|all> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --write-spec
//! ```
//!
//! Run it from the repository root: table1 reads
//! `tests/golden_makespans.txt`, and traced runs write their spans under
//! `perfbench/out/`.

mod fabric;
mod service;
mod sparse;
mod spec;
mod stats;
mod table1;
mod trace;

use ring_sim::RunReport;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use trace::Tracer;

/// Setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

static NEXT_OP: AtomicU64 = AtomicU64::new(1);

/// A fresh op id (spans of one op share it).
pub fn next_op() -> u64 {
    NEXT_OP.fetch_add(1, Ordering::Relaxed)
}

/// Derives an independent input seed for stream `k` of a workload
/// (splitmix64 finalizer).
pub fn derive_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add((k + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one timed pass produced.
#[derive(Default)]
pub struct Pass {
    /// Host latency of each op, in ms.
    pub op_ms: Vec<f64>,
    /// Ops attempted.
    pub attempted: u64,
    /// One message per failed op.
    pub failures: Vec<String>,
    /// Unit jobs processed.
    pub jobs: u64,
    /// Simulated node-steps (nodes × steps, summed over engine calls).
    pub node_steps: u64,
    /// Per-layer counts, recorded where each layer returns.
    pub counts: BTreeMap<&'static str, f64>,
    /// Workload-specific result quality (name, value, unit).
    pub quality: Vec<(&'static str, f64, &'static str)>,
}

impl Pass {
    /// Adds `v` to count `k`.
    pub fn add(&mut self, k: &'static str, v: f64) {
        *self.counts.entry(k).or_insert(0.0) += v;
    }

    /// Count `k` (0 if never recorded).
    pub fn count(&self, k: &str) -> f64 {
        self.counts.get(k).copied().unwrap_or(0.0)
    }

    /// Records the counts of one ring-engine report on an `m`-node ring.
    pub fn add_engine(&mut self, r: &RunReport, m: usize, sequential: bool) {
        let node_steps = (m as u64 * r.metrics.steps) as f64;
        let active = r.metrics.busy_steps_per_node.iter().sum::<u64>() as f64;
        self.add("engine.steps", r.metrics.steps as f64);
        self.add("engine.node_steps", node_steps);
        self.add("engine.active_node_steps", active);
        self.add("engine.messages", r.metrics.messages_sent as f64);
        self.add("engine.job_hops", r.metrics.job_hops as f64);
        if sequential {
            self.add("engine.seq_node_steps", node_steps);
            self.add("engine.seq_active_node_steps", active);
        }
        self.node_steps += node_steps as u64;
    }
}

/// A set-up workload.
pub trait Workload {
    /// Facts about the generated inputs and executor choices, for the log.
    fn describe(&self) -> Vec<(&'static str, String)>;
    /// One timed pass over every op.
    fn pass(&mut self, t: &Tracer) -> Pass;
}

fn setup(name: &str, seed: u64, t: &Tracer) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "table1" => Box::new(table1::setup(seed, t)?),
        "sparse" => Box::new(sparse::setup(seed, t)?),
        "fabric" => Box::new(fabric::setup(seed, t)?),
        "service" => Box::new(service::setup(seed, t)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    write_spec: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS,
        trace: false,
        write_spec: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-spec" {
            args.write_spec = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.write_spec && args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// The commit of the checkout, when it is a git work tree.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Records the machine and configuration, and refuses a configuration
/// whose shards or load-generator threads exceed the cores.
fn environment() -> Result<Vec<(&'static str, String)>, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for (what, n) in [
        ("shards", spec::SHARDS),
        ("client threads", spec::CLIENT_THREADS),
    ] {
        if n > cores {
            return Err(format!("{n} {what} exceed the {cores} available cores"));
        }
    }
    Ok(vec![
        ("cores", cores.to_string()),
        ("shards", spec::SHARDS.to_string()),
        ("client_threads", spec::CLIENT_THREADS.to_string()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        ("commit", git_commit()),
    ])
}

/// The outcome of measuring one workload.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

struct Timed {
    wall: f64,
    pass: Pass,
}

/// Whether to start another round: the first always runs, and later ones
/// while stopping after one more would land nearer the budget than now.
fn another_round(started: Instant, rounds: usize, budget: Duration) -> bool {
    let elapsed = started.elapsed();
    rounds == 0 || elapsed + elapsed / (2 * rounds as u32) < budget
}

fn timed_pass(w: &mut dyn Workload, t: &Tracer) -> Timed {
    let begun = Instant::now();
    let pass = t.span("bench.pass", 0, || w.pass(t));
    Timed {
        wall: begun.elapsed().as_secs_f64(),
        pass,
    }
}

fn tally(passes: &[Timed], attempted: &mut u64, failed: &mut u64) {
    for p in passes {
        *attempted += p.pass.attempted;
        *failed += p.pass.failures.len() as u64;
        for f in p.pass.failures.iter().take(5) {
            println!("FAILED {f}");
        }
    }
}

fn median_of(passes: &[Timed], f: impl Fn(&Timed) -> f64) -> f64 {
    stats::median(&passes.iter().map(f).collect::<Vec<_>>())
}

fn run_workload(name: &str, args: &Args) -> Result<Outcome, String> {
    let ws = spec::workload(name).ok_or(format!("unknown workload `{name}`"))?;
    println!(
        "workload {name} seed={} seconds={} trace={}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("  op: {}", ws.op);
    println!("  stresses: {}", ws.stresses);
    println!("  bypasses: {}", ws.bypasses);

    let tracer = Tracer::new(args.trace);
    let mut setups = Vec::new();
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        let begun = Instant::now();
        let w = tracer.span("bench.setup", 0, || setup(name, args.seed, &tracer))?;
        setups.push(begun.elapsed().as_secs_f64());
        workload = Some(w);
    }
    let mut w = workload.expect("at least one setup");
    for (k, v) in w.describe() {
        println!("  {k}: {v}");
    }
    let setup_spans = tracer.take();

    let budget = Duration::from_secs_f64(args.seconds as f64);
    let (mut attempted, mut failed) = (0, 0);
    let started = Instant::now();
    if !args.trace {
        let mut passes = Vec::new();
        while another_round(started, passes.len(), budget) {
            passes.push(timed_pass(w.as_mut(), &tracer));
        }
        tally(&passes, &mut attempted, &mut failed);
        return Ok(Outcome {
            attempted,
            failed,
            metrics: end_to_end(&passes, &setups),
        });
    }

    // Traced run: untraced and traced passes alternate, so both see the
    // same machine; the difference of their medians is the overhead.
    let untraced = Tracer::new(false);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while another_round(started, traced.len(), budget) {
        plain.push(timed_pass(w.as_mut(), &untraced));
        traced.push(timed_pass(w.as_mut(), &tracer));
    }
    tally(&plain, &mut attempted, &mut failed);
    tally(&traced, &mut attempted, &mut failed);
    let spans = tracer.take();
    let overhead = median_of(&traced, |p| p.wall) - median_of(&plain, |p| p.wall);
    let metrics = per_layer(&traced, &spans, &setup_spans, SETUP_REPS, overhead);
    write_spans(name, args.seed, &setup_spans, &spans);
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

fn end_to_end(passes: &[Timed], setups: &[f64]) -> Vec<(&'static str, f64, &'static str)> {
    let ops: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.pass.op_ms.iter().copied())
        .collect();
    let tail = stats::tail(&ops, 95.0);
    let attempted: u64 = passes.iter().map(|p| p.pass.attempted).sum();
    let failed: usize = passes.iter().map(|p| p.pass.failures.len()).sum();
    let values = [
        ("setup_s", stats::median(setups)),
        ("wall_s", median_of(passes, |p| p.wall)),
        ("op_p50_ms", stats::median(&ops)),
        ("op_p95_ms", tail.value),
        (
            "node_steps_per_s",
            median_of(passes, |p| p.pass.node_steps as f64 / p.wall),
        ),
        (
            "jobs_per_s",
            median_of(passes, |p| p.pass.jobs as f64 / p.wall),
        ),
        ("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0)),
    ];
    let walls: Vec<String> = passes.iter().map(|p| format!("{:.3}", p.wall)).collect();
    println!("pass walls (s): {}", walls.join(" "));
    println!(
        "end-to-end ({} passes, setup median of {}):",
        passes.len(),
        setups.len()
    );
    let mut out = Vec::new();
    for (name, value) in values {
        let m = spec::END_TO_END
            .iter()
            .find(|m| m.name == name)
            .expect("metric in spec");
        let note = match name {
            "op_p50_ms" => format!("  (median of {} ops)", ops.len()),
            "op_p95_ms" => format!(
                "  (p{:.1} of {} ops, {} beyond)",
                tail.pct, tail.count, tail.beyond
            ),
            _ => String::new(),
        };
        println!("  {name:<20} {value:>16.6} {}{note}", m.unit);
        out.push((m.name, value, m.unit));
    }
    println!(
        "  {:<20} {:>16.6} ratio",
        "failed_frac",
        failed as f64 / attempted.max(1) as f64
    );
    for (name, value, unit) in &passes[0].pass.quality {
        println!("  {name:<20} {value:>16.6} {unit}");
    }
    out
}

fn per_layer(
    passes: &[Timed],
    spans: &[trace::Span],
    setup_spans: &[trace::Span],
    setups: usize,
    overhead: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let n = passes.len() as f64;
    let selfs = trace::self_seconds_by_name(spans);
    let setup_selfs = trace::self_seconds_by_name(setup_spans);
    let per_pass = |k: &str| selfs.get(k).copied().unwrap_or(0.0) / n;
    let count = |k: &str| passes.iter().map(|p| p.pass.count(k)).sum::<f64>() / n;
    let ratio = |a: f64, b: f64| if a > 0.0 && b > 0.0 { a / b } else { 0.0 };
    let engine_run =
        per_pass("engine.run_unit") + per_pass("engine.run_span") + per_pass("engine.run");
    let p50_under_op = |k: &str| stats::median(&trace::durations_ms_under(spans, k, "bench.op"));
    let generations = count("service.generations");

    let value = |name: &str| -> f64 {
        match name {
            "workloads.gen_s" | "scenario.parse_s" => {
                let layer = name.trim_end_matches("_s");
                setup_selfs.get(layer).copied().unwrap_or(0.0) / setups as f64
            }
            "engine.run_s" => engine_run,
            "engine.par_s" => per_pass("engine.run_unit_par"),
            "engine.ns_per_node_step" => ratio(engine_run * 1e9, count("engine.seq_node_steps")),
            "engine.ns_per_active_node_step" => {
                ratio(engine_run * 1e9, count("engine.seq_active_node_steps"))
            }
            "engine.par_over_run" => {
                ratio(per_pass("engine.run_unit"), per_pass("engine.run_unit_par"))
            }
            "trace.encode_s"
            | "trace.decode_s"
            | "oracle.check_s"
            | "opt.exact_s"
            | "checkpoint.encode_s"
            | "checkpoint.decode_s"
            | "checkpoint.restore_s"
            | "fabric.run_s"
            | "fabric.par_s" => per_pass(name.trim_end_matches("_s")),
            "fabric.par_over_run" => ratio(per_pass("fabric.run"), per_pass("fabric.par")),
            "service.submit_ms_p50" => p50_under_op("service.submit"),
            "service.wait_ms_p50" => p50_under_op("service.wait"),
            "service.rounds_per_generation" => ratio(count("service.engine_rounds"), generations),
            "bench.trace_overhead_s" => overhead,
            counted => count(counted),
        }
    };
    println!(
        "per-layer ({} traced passes; times are self time per pass):",
        passes.len()
    );
    let mut out = Vec::new();
    for m in spec::PER_LAYER {
        let v = value(m.name);
        println!(
            "  {:<32} {v:>16.6} {:<6} moves: {}",
            m.name, m.unit, m.moves
        );
        out.push((m.name, v, m.unit));
    }
    out
}

fn write_spans(name: &str, seed: u64, setup_spans: &[trace::Span], spans: &[trace::Span]) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("spans-{name}-seed{seed}.jsonl"));
    let text = trace::to_jsonl(setup_spans) + &trace::to_jsonl(spans);
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, text)) {
        Ok(()) => println!(
            "spans: {} written to {}",
            setup_spans.len() + spans.len(),
            path.display()
        ),
        Err(e) => println!("spans: not written ({e})"),
    }
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v, u)| {
            let v = if v.is_finite() {
                format!("{v:?}")
            } else {
                "0.0".into()
            };
            format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.write_spec {
        match std::fs::write("BENCHMARK.json", spec::render_benchmark_json()) {
            Ok(()) => println!("wrote BENCHMARK.json"),
            Err(e) => {
                eprintln!("perfbench: BENCHMARK.json: {e}");
                std::process::exit(1);
            }
        }
        if args.workload.is_empty() {
            return;
        }
    }
    let env = match environment() {
        Ok(env) => env,
        Err(e) => {
            eprintln!("perfbench: refusing to run: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "env {}",
        env.iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );

    let names: Vec<&str> = match args.workload.as_str() {
        "all" => spec::WORKLOADS.iter().map(|w| w.name).collect(),
        one => vec![one],
    };
    let prefix = names.len() > 1;
    let (mut attempted, mut failed, mut metrics) = (0, 0, Vec::new());
    for name in &names {
        match run_workload(name, &args) {
            Ok(o) => {
                attempted += o.attempted;
                failed += o.failed;
                for (k, v, u) in o.metrics {
                    let key = if prefix {
                        format!("{name}.{k}")
                    } else {
                        k.to_string()
                    };
                    metrics.push((key, v, u));
                }
            }
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                std::process::exit(1);
            }
        }
    }
    println!(
        "{}",
        result_line(failed == 0, attempted.max(1), failed, &metrics)
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
