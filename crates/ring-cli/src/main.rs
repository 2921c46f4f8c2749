//! `ringsched` — command-line front end for the ring scheduling library.
//!
//! ```text
//! ringsched catalog                               list the 51 Table 1 cases
//! ringsched run --alg c1 --workload concentrated --m 64 --n 4096
//! ringsched run --alg a2 --case II-m100-r500 --threaded
//! ringsched capacitated --m 16 --n 400
//! ringsched optimum --workload concentrated --m 64 --n 4096
//! ringsched lower-bound-demo --w 20000 --z 100 --m 2048
//! ringsched mesh --rows 16 --cols 16 --n 4096
//! ringsched optimal-schedule --m 8 --n 16
//! ringsched save --workload uniform --m 100 --n 500 --out inst.txt
//! ringsched run --instance inst.txt --alg a2
//! ringsched run --alg c2 --m 64 --n 4096 --checkpoint-every 50 --checkpoint-dir snaps
//! ringsched resume snaps/snap-0000000100.ringsnap
//! ringsched bench --json BENCH_engine.json
//! ringsched run --arrivals "0@0:500;40@21:160" --m 64
//! ringsched serve --m 64 --arrivals "0@0:500;40@21:160" --queue-cap 800
//! ringsched loadgen --mode closed --clients 8 --m 256 --seed 7
//! ringsched bench-service --json BENCH_service.json
//! ringsched compete --case sec5-j-w60-z3-m48 --policy mig
//! ringsched run scenarios/catalog-part1.ring --executor par
//! ringsched run scenarios/fault-drop.ring --trace-out traces/
//! ringsched trace diff traces/a.ringtrace traces/b.ringtrace
//! ```

mod bench;
mod compete_cmd;
mod scenario_cmd;
mod service_cmd;
mod trace_cmd;

use ring_opt::exact::{optimum_capacitated, optimum_uncapacitated, OptResult, SolverBudget};
use ring_opt::{capacitated_lower_bound, uncapacitated_lower_bound};
use ring_sched::capacitated::run_capacitated;
use ring_sched::dynamic::{parse_arrivals, run_dynamic, run_dynamic_par, DynamicInstance};
use ring_sched::unit::{
    resume_unit, run_unit, run_unit_checkpointed, run_unit_faulty, run_unit_par,
    run_unit_par_faulty, UnitConfig, UnitRun,
};
use ring_sim::{FaultPlan, Instance, SimError, Snapshot, TraceLevel};
use ring_workloads::{catalog, random, section5::Section5, structured};
use std::collections::HashMap;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: ringsched <command> [options]\n\
         \n\
         commands:\n\
         \x20 catalog                         list the 51 Table 1 cases\n\
         \x20 run                             run a unit-job algorithm\n\
         \x20   --alg a1|b1|c1|a2|b2|c2       algorithm (default c1)\n\
         \x20   --case <id>                   a catalog case id, or:\n\
         \x20   --workload concentrated|region|uniform  (default concentrated)\n\
         \x20   --m <ring size> --n <jobs> [--seed <s>] [--c <const>]\n\
         \x20   --threaded                    one OS thread per processor\n\
         \x20   --par <shards>                parallel engine on <shards> threads\n\
         \x20   --observe                     emit per-step observability JSON\n\
         \x20   --faults <spec>               deterministic fault plan, entries\n\
         \x20                                 separated by ';':\n\
         \x20                                   drop:<node><cw|ccw>@<from>..<until>\n\
         \x20                                   delay=<d>:<node><cw|ccw>@<from>..<until>\n\
         \x20                                   cap=<u>:<node><cw|ccw>@<from>..<until>\n\
         \x20                                   stall:<node>@<from>..<until>\n\
         \x20                                   slow=<k>:<node>@<from>..<until>\n\
         \x20                                   seed=<s>[@<horizon>]  (random plan)\n\
         \x20   --checkpoint-every <k>        write a snapshot every k steps\n\
         \x20   --checkpoint-dir <d>          snapshot directory (default checkpoints/)\n\
         \x20   --arrivals <spec>             dynamic model: jobs released online,\n\
         \x20                                 entries <time>@<processor>:<count>\n\
         \x20                                 separated by ';' (uses --m, --alg, --par)\n\
         \x20 resume <snapshot>               continue a checkpointed run\n\
         \x20   [--par <shards>] [--alg <a>]  (--alg only if the snapshot has no\n\
         \x20                                 algorithm metadata)\n\
         \x20 capacitated                     run the \u{a7}7 algorithm\n\
         \x20   --m <ring size> --n <jobs> | --case <id>\n\
         \x20 optimum                         exact optimum + lower bounds\n\
         \x20   --workload ... --m --n | --case <id> [--capacitated]\n\
         \x20 lower-bound-demo                \u{a7}5 two-instance construction\n\
         \x20   --w <jobs per heap> --z <half gap> --m <ring size>\n\
         \x20 mesh                            \u{a7}8 open problem: 2D torus scheduling\n\
         \x20   --rows <r> --cols <c> --n <jobs>\n\
         \x20 save                            write a generated instance to a file\n\
         \x20   --workload ... --m --n --out <path>\n\
         \x20 optimal-schedule                print an exact optimal schedule\n\
         \x20   --workload ... --m --n | --case <id> | --instance <path>\n\
         \x20 bench                           engine throughput baseline\n\
         \x20   [--json <path>] [--sizes 256,1024,4096] [--reps 3]\n\
         \x20   [--shards 8] [--check <baseline.json>]\n\
         \x20 serve                           online job-submission service\n\
         \x20   --m <ring size> [--alg <a>] [--epoch <e>] [--queue-cap <j>]\n\
         \x20   [--slo <steps>] [--par <shards>] [--arrivals <spec>]\n\
         \x20   [--drain-at <t> [--snapshot <path>]]   drain into a snapshot\n\
         \x20   [--resume <snapshot>]                  continue a drained service\n\
         \x20 loadgen                         seeded service load generator\n\
         \x20   [--mode open|closed] [--clients <k>] [--batches <b>]\n\
         \x20   [--max-batch <j>] [--spacing <s>] [--seed <s>]\n\
         \x20   plus the `serve` service flags (--m --alg --epoch ...)\n\
         \x20 bench-service                   service throughput + tail latency\n\
         \x20   [--json <path>] [--sizes 256,1024,4096] [--shards 8]\n\
         \x20   [--check <baseline.json>]\n\
         \x20 compete                         competitive ratios vs exact optimum\n\
         \x20   [--case <id>]                 one adversarial-catalog case\n\
         \x20   [--arrivals <spec> --m <m>]   a custom dynamic script\n\
         \x20   [--policy a1|b1|c1|a2|b2|c2|mig|ml] [--par <shards>]\n\
         \x20 trace <sub>                     binary-trace toolchain:\n\
         \x20   info|verify|diff|slice|dump|json  (see `ringsched trace`)\n\
         \n\
         `run`, `compete`, and `serve` also accept a `.ring` scenario file\n\
         as a positional argument; the plan carries the whole experiment.\n\
         Overrides: --executor run|par, --shards <s>, --trace-out <dir>.\n\
         \n\
         `run`, `capacitated`, and `optimum` also accept --instance <path>\n\
         to load an instance written by `save`."
    );
    exit(2)
}

pub(crate) fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(key) = a.strip_prefix("--") {
            let val = args.get(i + 1);
            if val.map_or(true, |v| v.starts_with("--")) {
                flags.insert(key.to_string(), "true".to_string());
            } else {
                flags.insert(key.to_string(), val.unwrap().clone());
                i += 1;
            }
        } else {
            eprintln!("unexpected argument: {a}");
            usage();
        }
        i += 1;
    }
    flags
}

pub(crate) fn get_u64(flags: &HashMap<String, String>, key: &str, default: u64) -> u64 {
    flags
        .get(key)
        .map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("--{key} must be a number, got {v}");
                usage()
            })
        })
        .unwrap_or(default)
}

fn build_instance(flags: &HashMap<String, String>) -> Instance {
    if let Some(path) = flags.get("instance") {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            exit(2)
        });
        return ring_workloads::io::read_instance(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            exit(2)
        });
    }
    if let Some(id) = flags.get("case") {
        return catalog()
            .into_iter()
            .find(|c| &c.id == id)
            .unwrap_or_else(|| {
                eprintln!("unknown case id {id} (see `ringsched catalog`)");
                exit(2)
            })
            .instance;
    }
    let m = get_u64(flags, "m", 64) as usize;
    let n = get_u64(flags, "n", 1024);
    let seed = get_u64(flags, "seed", 1994);
    match flags
        .get("workload")
        .map(String::as_str)
        .unwrap_or("concentrated")
    {
        "concentrated" => structured::concentrated_node(m, n),
        "region" => structured::concentrated_region(m, n / structured::region_width(m) as u64),
        "uniform" => random::uniform(m, n.max(1), seed),
        other => {
            eprintln!("unknown workload {other}");
            usage()
        }
    }
}

pub(crate) fn alg_config(flags: &HashMap<String, String>) -> UnitConfig {
    let mut cfg = match flags
        .get("alg")
        .map(|s| s.to_lowercase())
        .as_deref()
        .unwrap_or("c1")
    {
        "a1" => UnitConfig::a1(),
        "b1" => UnitConfig::b1(),
        "c1" => UnitConfig::c1(),
        "a2" => UnitConfig::a2(),
        "b2" => UnitConfig::b2(),
        "c2" => UnitConfig::c2(),
        other => {
            eprintln!("unknown algorithm {other}");
            usage()
        }
    };
    if let Some(c) = flags.get("c") {
        cfg = cfg.with_c(c.parse().unwrap_or_else(|_| {
            eprintln!("--c must be a number");
            usage()
        }));
    }
    cfg
}

fn cmd_catalog() {
    for case in catalog() {
        println!(
            "{:<22} m={:<5} n={:<9} {}",
            case.id,
            case.instance.num_processors(),
            case.instance.total_work(),
            case.description
        );
    }
}

/// `run --arrivals <spec>`: the dynamic (online-release) model. Jobs are
/// injected at their release steps and the makespan is compared against
/// the release-time-aware lower bound.
fn cmd_run_arrivals(spec: &str, flags: &HashMap<String, String>) {
    for bad in [
        "threaded",
        "faults",
        "checkpoint-every",
        "instance",
        "case",
        "workload",
    ] {
        if flags.contains_key(bad) {
            eprintln!("--arrivals runs the dynamic model; --{bad} is not supported with it");
            exit(2);
        }
    }
    let m = get_u64(flags, "m", 64) as usize;
    let arrivals = parse_arrivals(spec, m).unwrap_or_else(|e| {
        eprintln!("bad --arrivals spec: {e}");
        usage()
    });
    let inst = DynamicInstance::new(m, arrivals);
    let mut cfg = alg_config(flags);
    if flags.contains_key("observe") {
        cfg = cfg.with_observe();
    }
    println!(
        "dynamic instance: m={} n={} over {} arrivals (last release {}) | algorithm {}",
        inst.num_processors(),
        inst.total_work(),
        inst.arrivals().len(),
        inst.last_arrival(),
        cfg.name()
    );
    let shards = flags.get("par").map(|s| {
        let s: usize = s.parse().unwrap_or_else(|_| {
            eprintln!("--par must be a shard count");
            usage()
        });
        s.max(1)
    });
    let run = match shards {
        Some(s) => run_dynamic_par(&inst, &cfg, s),
        None => run_dynamic(&inst, &cfg),
    }
    .unwrap_or_else(|e| {
        eprintln!("run failed: {e}");
        exit(1)
    });
    println!(
        "makespan: {} (dynamic lower bound {}, ratio <= {:.3})",
        run.makespan,
        run.lower_bound,
        run.makespan as f64 / run.lower_bound.max(1) as f64
    );
    println!(
        "messages: {}; job-hops: {}",
        run.report.metrics.messages_sent, run.report.metrics.job_hops
    );
    if let Some(obs) = &run.report.observability {
        println!("observability: {}", obs.to_json());
    }
}

fn cmd_run(flags: &HashMap<String, String>) {
    if let Some(spec) = flags.get("arrivals") {
        cmd_run_arrivals(spec, flags);
        return;
    }
    let inst = build_instance(flags);
    let mut cfg = alg_config(flags);
    if flags.contains_key("observe") {
        cfg = cfg.with_observe();
    }
    let faults = flags.get("faults").map(|spec| {
        FaultPlan::parse(spec, inst.num_processors()).unwrap_or_else(|e| {
            eprintln!("bad --faults spec: {e}");
            usage()
        })
    });
    let lb = uncapacitated_lower_bound(&inst);
    println!(
        "instance: m={} n={} | algorithm {}",
        inst.num_processors(),
        inst.total_work(),
        cfg.name()
    );
    if flags.contains_key("threaded") {
        if faults.is_some() {
            eprintln!("--faults is not supported by the threaded executor (use --par)");
            exit(2);
        }
        if flags.contains_key("checkpoint-every") {
            eprintln!("--checkpoint-every is not supported by the threaded executor (use --par)");
            exit(2);
        }
        let run = ring_net::run_unit_threaded(&inst, &cfg).unwrap_or_else(|e| {
            eprintln!("run failed: {e}");
            exit(1)
        });
        println!("threaded executor: {} threads", inst.num_processors());
        println!(
            "makespan: {} (lower bound {lb}, ratio <= {:.3})",
            run.makespan,
            run.makespan as f64 / lb.max(1) as f64
        );
        println!("messages sent: {}", run.messages_sent);
    } else {
        let shards = flags.get("par").map(|s| {
            let s: usize = s.parse().unwrap_or_else(|_| {
                eprintln!("--par must be a shard count");
                usage()
            });
            s.max(1)
        });
        let run = if flags.contains_key("checkpoint-every") {
            let every = get_u64(flags, "checkpoint-every", 0);
            if every == 0 {
                eprintln!("--checkpoint-every must be positive");
                usage()
            }
            let dir = std::path::PathBuf::from(
                flags
                    .get("checkpoint-dir")
                    .map(String::as_str)
                    .unwrap_or("checkpoints"),
            );
            std::fs::create_dir_all(&dir).unwrap_or_else(|e| {
                eprintln!("cannot create {}: {e}", dir.display());
                exit(1)
            });
            // The metadata lets `resume` rebuild the policy; `c` travels as
            // raw bits so the resumed run is bit-identical.
            let meta = format!(
                "alg={} c_bits={:016x}",
                cfg.name().to_lowercase(),
                cfg.c.to_bits()
            );
            println!("checkpointing every {every} steps into {}/", dir.display());
            let out = dir.clone();
            run_unit_checkpointed(&inst, &cfg, faults.as_ref(), shards, every, &meta, {
                move |snap: &Snapshot| {
                    snap.write_to_file(&out.join(format!("snap-{:010}.ringsnap", snap.t)))
                }
            })
        } else {
            match (shards, &faults) {
                (Some(s), Some(p)) => run_unit_par_faulty(&inst, &cfg, p, s),
                (Some(s), None) => run_unit_par(&inst, &cfg, s),
                (None, Some(p)) => run_unit_faulty(&inst, &cfg, p),
                (None, None) => run_unit(&inst, &cfg),
            }
        }
        .unwrap_or_else(|e| {
            eprintln!("run failed: {e}");
            exit(1)
        });
        println!(
            "makespan: {} (lower bound {lb}, ratio <= {:.3})",
            run.makespan,
            run.makespan as f64 / lb.max(1) as f64
        );
        println!(
            "bucket travel max: {} hops; wrapped: {}; messages: {}; job-hops: {}",
            run.max_bucket_travel,
            run.wrapped,
            run.report.metrics.messages_sent,
            run.report.metrics.job_hops
        );
        if faults.is_some() {
            println!(
                "faults: dropped {} delayed {} retried {}",
                run.report.metrics.messages_dropped,
                run.report.metrics.messages_delayed,
                run.report.metrics.messages_retried
            );
        }
        let opt = optimum_uncapacitated(&inst, Some(run.makespan), &SolverBudget::default());
        match opt {
            OptResult::Exact(v) => println!(
                "exact optimum: {v}; approximation factor {:.3}",
                run.makespan as f64 / v.max(1) as f64
            ),
            OptResult::LowerBoundOnly(v) => println!(
                "instance too large for exact solve; factor vs lower bound {v}: {:.3}",
                run.makespan as f64 / v.max(1) as f64
            ),
        }
        if let Some(obs) = &run.report.observability {
            println!("observability: {}", obs.to_json());
        }
    }
}

fn cmd_resume(path: &str, flags: &HashMap<String, String>) {
    let snap = Snapshot::read_from_file(std::path::Path::new(path)).unwrap_or_else(|e| {
        eprintln!("cannot load snapshot {path}: {e}");
        exit(1)
    });
    println!("snapshot: {}", snap.summary());
    let mut alg = None;
    let mut c_bits = None;
    for tok in snap.app_meta.split_whitespace() {
        if let Some(v) = tok.strip_prefix("alg=") {
            alg = Some(v.to_string());
        } else if let Some(v) = tok.strip_prefix("c_bits=") {
            c_bits = u64::from_str_radix(v, 16).ok();
        }
    }
    let alg = flags.get("alg").cloned().or(alg).unwrap_or_else(|| {
        eprintln!("snapshot carries no algorithm metadata; pass --alg");
        exit(2)
    });
    let mut cfg = UnitConfig::from_name(&alg).unwrap_or_else(|| {
        eprintln!("unknown algorithm {alg} in snapshot metadata");
        exit(2)
    });
    if let Some(bits) = c_bits {
        cfg = cfg.with_c(f64::from_bits(bits));
    }
    let shards = flags.get("par").map(|s| {
        let s: usize = s.parse().unwrap_or_else(|_| {
            eprintln!("--par must be a shard count");
            usage()
        });
        s.max(1)
    });
    let run: UnitRun = resume_unit(&cfg, &snap, shards).unwrap_or_else(|e: SimError| {
        eprintln!("resume failed: {e}");
        exit(1)
    });
    println!(
        "resumed algorithm {} from step {} on m={}",
        cfg.name(),
        snap.t,
        snap.m
    );
    println!("makespan: {}", run.makespan);
    println!(
        "bucket travel max: {} hops; wrapped: {}; messages: {}; job-hops: {}",
        run.max_bucket_travel,
        run.wrapped,
        run.report.metrics.messages_sent,
        run.report.metrics.job_hops
    );
    if snap.faults.is_some() {
        println!(
            "faults: dropped {} delayed {} retried {}",
            run.report.metrics.messages_dropped,
            run.report.metrics.messages_delayed,
            run.report.metrics.messages_retried
        );
    }
    if let Some(obs) = &run.report.observability {
        println!("observability: {}", obs.to_json());
    }
}

fn cmd_capacitated(flags: &HashMap<String, String>) {
    let inst = build_instance(flags);
    let lb = capacitated_lower_bound(&inst);
    if flags.contains_key("threaded") {
        let run = ring_net::run_capacitated_threaded(&inst).unwrap_or_else(|e| {
            eprintln!("run failed: {e}");
            exit(1)
        });
        println!("makespan: {} (lower bound {lb})", run.makespan);
        return;
    }
    let run = run_capacitated(&inst, TraceLevel::Off).unwrap_or_else(|e| {
        eprintln!("run failed: {e}");
        exit(1)
    });
    println!("makespan: {} (lower bound {lb})", run.makespan);
    println!(
        "max load after first idle: {} (Lemma 11b: <= 3)",
        run.max_load_after_low
    );
    match optimum_capacitated(&inst, Some(run.makespan), &SolverBudget::default()) {
        OptResult::Exact(v) => println!(
            "exact optimum: {v}; makespan <= 2L+2 = {}: {}",
            2 * v + 2,
            run.makespan <= 2 * v + 2
        ),
        OptResult::LowerBoundOnly(v) => {
            println!("instance too large for exact solve; lower bound {v}")
        }
    }
}

fn cmd_optimum(flags: &HashMap<String, String>) {
    let inst = build_instance(flags);
    println!(
        "m={} n={} lemma1 LB={} mean LB={}",
        inst.num_processors(),
        inst.total_work(),
        ring_opt::lemma1_lower_bound(&inst),
        ring_opt::mean_load_bound(&inst)
    );
    if flags.contains_key("capacitated") {
        println!(
            "lemma10/capacitated LB = {}",
            capacitated_lower_bound(&inst)
        );
        match optimum_capacitated(&inst, None, &SolverBudget::default()) {
            OptResult::Exact(v) => println!("exact capacitated optimum = {v}"),
            OptResult::LowerBoundOnly(v) => println!("too large; lower bound = {v}"),
        }
    } else {
        match optimum_uncapacitated(&inst, None, &SolverBudget::default()) {
            OptResult::Exact(v) => println!("exact optimum = {v}"),
            OptResult::LowerBoundOnly(v) => println!("too large; lower bound = {v}"),
        }
    }
}

fn cmd_lower_bound_demo(flags: &HashMap<String, String>) {
    let w = get_u64(flags, "w", 20_000);
    let z = get_u64(flags, "z", 100) as usize;
    let m = get_u64(flags, "m", 2_048) as usize;
    let s = Section5::new(w, z, m);
    println!(
        "Section 5 construction: W={w} per heap, gap 2z+1={} on an m={m} ring",
        2 * z + 1
    );
    println!("optimum of J (single heap):  {}", s.optimum_j());
    println!("optimum of I (two heaps):    {}", s.lemma8_optimum());
    println!(
        "For the first z = {z} steps no processor can distinguish I from J;\n\
         committing to J's optimum forces extra work on I — Theorem 2 turns\n\
         this into the 1.06 distributed lower bound."
    );
}

fn cmd_mesh(flags: &HashMap<String, String>) {
    use ring_mesh::{mesh_lower_bound, optimum_torus, run_mesh, MeshConfig, MeshInstance};
    let rows = get_u64(flags, "rows", 16) as usize;
    let cols = get_u64(flags, "cols", 16) as usize;
    let n = get_u64(flags, "n", 4096);
    let inst = MeshInstance::concentrated(rows, cols, 0, n);
    let run = run_mesh(&inst, &MeshConfig::default());
    let lb = mesh_lower_bound(&inst);
    println!("{rows}x{cols} torus, {n} jobs on node 0");
    println!("two-phase bucket makespan: {}", run.makespan);
    println!("lower bound:               {lb}");
    match optimum_torus(&inst, Some(run.makespan), &SolverBudget::default()) {
        OptResult::Exact(v) => println!(
            "exact optimum:             {v} (empirical factor {:.3})",
            run.makespan as f64 / v.max(1) as f64
        ),
        OptResult::LowerBoundOnly(v) => {
            println!(
                "too large for exact solve; factor vs LB {v}: {:.3}",
                run.makespan as f64 / v.max(1) as f64
            )
        }
    }
}

fn cmd_optimal_schedule(flags: &HashMap<String, String>) {
    use ring_opt::assignment::extract_assignment;
    let inst = build_instance(flags);
    let sched = match extract_assignment(&inst, None, &SolverBudget::default()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot extract a schedule: {e}");
            exit(1)
        }
    };
    println!(
        "exact optimum {} on m={} (n={})",
        sched.makespan,
        inst.num_processors(),
        inst.total_work()
    );
    println!(
        "jobs moved: {} ({} job-hops of communication)",
        sched.jobs_moved(),
        sched.job_hops()
    );
    let mut moves = sched.moves.clone();
    moves.sort_by_key(|mv| (mv.from, mv.to));
    for mv in moves.iter().take(40) {
        println!(
            "  {:>4} jobs: {} -> {} (distance {})",
            mv.count, mv.from, mv.to, mv.dist
        );
    }
    if moves.len() > 40 {
        println!("  ... and {} more moves", moves.len() - 40);
    }
    debug_assert_eq!(sched.verify(&inst), None);
}

fn cmd_save(flags: &HashMap<String, String>) {
    let inst = build_instance(flags);
    let Some(path) = flags.get("out") else {
        eprintln!("save needs --out <path>");
        exit(2)
    };
    let text = ring_workloads::io::write_instance(&inst);
    std::fs::write(path, text).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        exit(1)
    });
    println!(
        "wrote m={} n={} instance to {path}",
        inst.num_processors(),
        inst.total_work()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    if cmd == "resume" {
        // `resume` takes the snapshot path as a positional argument.
        let Some(path) = args.get(1).filter(|p| !p.starts_with("--")) else {
            eprintln!("resume needs a snapshot path");
            usage()
        };
        cmd_resume(path, &parse_flags(&args[2..]));
        return;
    }
    if cmd == "trace" {
        // `trace` has its own positional-argument subcommands.
        trace_cmd::cmd_trace(&args[1..]);
        return;
    }
    // `run`, `compete`, and `serve` accept a `.ring` scenario file as a
    // positional argument: the plan carries the whole experiment and the
    // remaining flags are operational overrides.
    if let Some(path) = args
        .get(1)
        .filter(|p| !p.starts_with("--") && p.ends_with(".ring"))
    {
        let flags = parse_flags(&args[2..]);
        match cmd.as_str() {
            "run" => scenario_cmd::cmd_run_scenario(path, &flags),
            "compete" => scenario_cmd::cmd_compete_scenario(path, &flags),
            "serve" => scenario_cmd::cmd_serve_scenario(path, &flags),
            other => {
                eprintln!("`{other}` does not take a scenario file");
                usage()
            }
        }
        return;
    }
    let flags = parse_flags(&args[1..]);
    match cmd.as_str() {
        "catalog" => cmd_catalog(),
        "run" => cmd_run(&flags),
        "capacitated" => cmd_capacitated(&flags),
        "optimum" => cmd_optimum(&flags),
        "lower-bound-demo" => cmd_lower_bound_demo(&flags),
        "mesh" => cmd_mesh(&flags),
        "save" => cmd_save(&flags),
        "optimal-schedule" => cmd_optimal_schedule(&flags),
        "bench" => bench::cmd_bench(&flags),
        "serve" => service_cmd::cmd_serve(&flags),
        "loadgen" => service_cmd::cmd_loadgen(&flags),
        "bench-service" => service_cmd::cmd_bench_service(&flags),
        "compete" => compete_cmd::cmd_compete(&flags),
        _ => usage(),
    }
}
