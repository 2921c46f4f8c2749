//! `.ring` scenario execution: `ringsched run|compete|serve <plan.ring>`.
//!
//! A scenario file carries the whole experiment — workload, algorithm,
//! executor, faults, trace level — so the subcommands only add operational
//! overrides: `--executor run|par` re-runs the same plan under a
//! different executor (the CI conformance matrix), and `--trace-out <dir>`
//! captures binary `RINGTRACE` files for every row. Serve-mode plans are
//! translated to the `serve` flag set and handed to the service front end.

use ring_scenario::{execute, load_plan, ExecMode, Mode, Plan, Workload};
use ring_sched::dynamic::render_arrivals;
use std::collections::HashMap;
use std::process::exit;

fn load(path: &str) -> Plan {
    load_plan(path).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        exit(2)
    })
}

/// Applies `--executor run|par` on top of the plan's own spec.
fn apply_executor_override(plan: &mut Plan, flags: &HashMap<String, String>) {
    let Some(mode) = flags.get("executor") else {
        return;
    };
    let mode = match mode.as_str() {
        "run" => ExecMode::Run,
        "par" => ExecMode::Par,
        other => {
            eprintln!("--executor must be run or par (got {other})");
            exit(2)
        }
    };
    plan.executor.mode = mode;
    if let Some(shards) = flags.get("shards") {
        plan.executor.shards = Some(shards.parse().unwrap_or_else(|_| {
            eprintln!("--shards must be a number");
            exit(2)
        }));
    }
}

fn expect_mode(plan: &Plan, want: Mode, cmd: &str) {
    if plan.mode != want {
        eprintln!(
            "scenario `{}` has mode = {}, run it with `ringsched {}`",
            plan.name,
            plan.mode.name(),
            plan.mode.name()
        );
        eprintln!(
            "(`ringsched {cmd}` only accepts mode = {} plans)",
            want.name()
        );
        exit(2)
    }
}

/// `ringsched run <plan.ring>`.
pub fn cmd_run_scenario(path: &str, flags: &HashMap<String, String>) {
    let mut plan = load(path);
    expect_mode(&plan, Mode::Run, "run");
    apply_executor_override(&mut plan, flags);
    let trace_out = flags.get("trace-out").map(|dir| {
        // Capturing traces implies recording them.
        plan.trace_full = true;
        std::path::PathBuf::from(dir)
    });
    let report = execute(&plan).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        exit(1)
    });
    println!(
        "scenario {} [{}]: {} rows",
        report.name,
        plan.executor.mode.name(),
        report.rows.len()
    );
    if let Some(dir) = &trace_out {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| {
            eprintln!("cannot create {}: {e}", dir.display());
            exit(1)
        });
    }
    for row in &report.rows {
        println!(
            "  {:<24} {:<3} makespan={}",
            row.case, row.algorithm, row.makespan
        );
        if let (Some(dir), Some(trace)) = (&trace_out, &row.trace) {
            let file = dir.join(format!("{}-{}.ringtrace", row.case, row.algorithm));
            trace.write_to_file(&file).unwrap_or_else(|e| {
                eprintln!("cannot write {}: {e}", file.display());
                exit(1)
            });
        }
    }
    if let Some(dir) = &trace_out {
        println!("traces -> {}/", dir.display());
    }
    println!("digest: {:016x}", report.digest);
}

/// `ringsched compete <plan.ring>`.
pub fn cmd_compete_scenario(path: &str, flags: &HashMap<String, String>) {
    let mut plan = load(path);
    expect_mode(&plan, Mode::Compete, "compete");
    apply_executor_override(&mut plan, flags);
    let report = execute(&plan).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        exit(1)
    });
    println!(
        "scenario {} [{}]: {} measurements",
        report.name,
        plan.executor.mode.name(),
        report.ratios.len()
    );
    print!("{}", ring_compete::render_table(&report.ratios));
    println!("digest: {:016x}", report.digest);
}

/// `ringsched serve <plan.ring>`: translates the plan to the `serve` flag
/// set and delegates to the service front end, so a scenario drives the
/// exact same code path as hand-written flags.
pub fn cmd_serve_scenario(path: &str, flags: &HashMap<String, String>) {
    let plan = load(path);
    expect_mode(&plan, Mode::Serve, "serve");
    let Workload::Arrivals(arrivals) = &plan.workload else {
        eprintln!("{path}: serve plans carry an arrivals workload");
        exit(2)
    };
    let m = plan.stated_m().unwrap_or_else(|| {
        eprintln!("{path}: serve plans state [topology] m");
        exit(2)
    });
    let mut serve_flags: HashMap<String, String> = HashMap::new();
    serve_flags.insert("m".to_string(), m.to_string());
    serve_flags.insert("arrivals".to_string(), render_arrivals(arrivals));
    if let Some(ring_scenario::AlgSelect::One { name, c }) = &plan.algorithm {
        serve_flags.insert("alg".to_string(), name.clone());
        if let Some(c) = c {
            serve_flags.insert("c".to_string(), c.to_string());
        }
    }
    if plan.executor.mode != ExecMode::Run {
        let shards = plan
            .executor
            .shards
            .unwrap_or(ring_scenario::DEFAULT_SHARDS);
        serve_flags.insert("par".to_string(), shards.to_string());
    }
    if let Some(svc) = &plan.service {
        if let Some(v) = svc.epoch {
            serve_flags.insert("epoch".to_string(), v.to_string());
        }
        if let Some(v) = svc.queue_cap {
            serve_flags.insert("queue-cap".to_string(), v.to_string());
        }
        if let Some(v) = svc.slo {
            serve_flags.insert("slo".to_string(), v.to_string());
        }
        if let Some(v) = svc.drain_at {
            serve_flags.insert("drain-at".to_string(), v.to_string());
        }
    }
    // Operational flags (snapshot path, resume) pass through unchanged.
    for key in ["snapshot", "resume"] {
        if let Some(v) = flags.get(key) {
            serve_flags.insert(key.to_string(), v.clone());
        }
    }
    println!("scenario {} -> serve", plan.name);
    crate::service_cmd::cmd_serve(&serve_flags);
}
