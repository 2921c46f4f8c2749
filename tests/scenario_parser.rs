//! `.ring` parser conformance: the rejection table and the random-plan
//! round-trip battery.
//!
//! The rejection table pins the parser's typed errors *exactly* — line,
//! column, and `ErrorKind` — so error positions are part of the DSL's
//! contract, not an accident of implementation. The proptest battery
//! generates random valid [`Plan`]s across every mode/workload/executor
//! combination and checks `parse_plan(render(p)) == p` bit-identically
//! (f64 drop-off constants travel through Rust's shortest-round-trip
//! formatting, so even those are exact).
//!
//! Case counts scale with `RING_FAULT_SEEDS` like the other randomized
//! suites.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ring_scenario::{
    parse_plan, AlgSelect, CatalogSel, ErrorKind, ExecMode, ExecutorSpec, Mode, Plan, ServiceSpec,
    ShapeKind, TopoKind, Workload,
};
use ring_sched::dynamic::Arrival;
use ring_sim::FaultPlan;

/// Base 64 cases per property, scaled by `RING_FAULT_SEEDS`.
fn cases() -> u32 {
    let mult: u32 = std::env::var("RING_FAULT_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    64 * mult.max(1)
}

// ---------------------------------------------------------------------------
// The rejection table: every malformed input pins (line, col, kind) exactly.
// ---------------------------------------------------------------------------

struct Rejection {
    input: &'static str,
    line: usize,
    col: usize,
    kind: ErrorKind,
}

fn rejection_table() -> Vec<Rejection> {
    let conflict = |msg: &str| ErrorKind::Conflict(msg.to_string());
    let bad = |key: &str, msg: &str| ErrorKind::BadValue {
        key: key.to_string(),
        msg: msg.to_string(),
    };
    let range = |key: &str, msg: &str| ErrorKind::OutOfRange {
        key: key.to_string(),
        msg: msg.to_string(),
    };
    vec![
        // Lexical shape.
        Rejection {
            input: "[scenario]\nname = t\njust some text\n",
            line: 3,
            col: 1,
            kind: ErrorKind::Malformed("expected `key = value` or `[section]`".to_string()),
        },
        Rejection {
            input: "[scenario\nname = t\n",
            line: 1,
            col: 1,
            kind: ErrorKind::Malformed("section header is missing `]`".to_string()),
        },
        Rejection {
            input: "name = orphan\n",
            line: 1,
            col: 1,
            kind: ErrorKind::Malformed("key `name` appears before any [section]".to_string()),
        },
        Rejection {
            input: "[scenario]\nname =\n",
            line: 2,
            col: 7,
            kind: bad("name", "empty value"),
        },
        // Unknown / duplicate sections and keys.
        Rejection {
            input: "[scenario]\nname = t\n\n[topographies]\nm = 4\n",
            line: 4,
            col: 1,
            kind: ErrorKind::UnknownSection("topographies".to_string()),
        },
        Rejection {
            input: "[scenario]\nname = t\n\n[workload]\n  loaads = 1 2\n",
            line: 5,
            col: 3,
            kind: ErrorKind::UnknownKey("loaads".to_string()),
        },
        Rejection {
            input: "[scenario]\nname = t\n\n[workload]\nloads = 1\n\n[workload]\nloads = 2\n",
            line: 7,
            col: 1,
            kind: ErrorKind::DuplicateSection("workload".to_string()),
        },
        Rejection {
            input: "[scenario]\nname = a\nname = b\n",
            line: 3,
            col: 1,
            kind: ErrorKind::DuplicateKey("name".to_string()),
        },
        // Out-of-range values.
        Rejection {
            input: "[scenario]\nname = t\n\n[topology]\nm = 16777217\n\n[workload]\nshape = concentrated\nn = 5\n",
            line: 5,
            col: 5,
            kind: range("m", "must be 1..=16777216 (got 16777217)"),
        },
        Rejection {
            input: "[scenario]\nname = t\n\n[workload]\nloads = 4\n\n[algorithm]\nname = c1\nc = 1.0\n",
            line: 9,
            col: 5,
            kind: range("c", "must be a finite number > 1 (got 1.0)"),
        },
        Rejection {
            input: "[scenario]\nname = t\n\n[workload]\nloads = 4\n\n[executor]\nmode = par\nshards = 0\n",
            line: 9,
            col: 10,
            kind: range("shards", "must be 1..=1024 (got 0)"),
        },
        // Conflicting settings.
        Rejection {
            input: "[scenario]\nname = t\n\n[workload]\nloads = 4\n\n[executor]\nwindow = 16\n",
            line: 8,
            col: 1,
            kind: conflict("`window` requires executor mode par"),
        },
        Rejection {
            input: "[scenario]\nname = t\n\n[workload]\nloads = 4\n\n[executor]\nsteal-seed = 3\n",
            line: 8,
            col: 1,
            kind: conflict("`steal-seed` requires executor mode par"),
        },
        Rejection {
            input: "[scenario]\nname = t\n\n[topology]\nkind = torus\nrows = 3\ncols = 3\n\n[workload]\nshape = concentrated\nn = 9\n\n[executor]\nmode = par\nsteal-seed = 3\n",
            line: 15,
            col: 1,
            kind: conflict("`steal-seed` requires a ring topology"),
        },
        Rejection {
            input: "[scenario]\nname = t\n\n[workload]\ncatalog = all\nloads = 1 2\n",
            line: 6,
            col: 1,
            kind: conflict("`loads` conflicts with `catalog` (one workload source only)"),
        },
        Rejection {
            input: "[scenario]\nname = t\n\n[topology]\nm = 3\n\n[workload]\nloads = 1 2\n",
            line: 5,
            col: 1,
            kind: conflict("m = 3 disagrees with 2 loads"),
        },
        Rejection {
            input: "[scenario]\nname = t\n\n[topology]\nm = 10\n\n[workload]\ncatalog = all\n",
            line: 5,
            col: 1,
            kind: conflict("m is implied by the workload"),
        },
        Rejection {
            input: "[scenario]\nname = t\n\n[workload]\nloads = 4\n\n[algorithm]\nname = all6\nc = 2.0\n",
            line: 9,
            col: 1,
            kind: conflict("`c` cannot be combined with name = all6"),
        },
        Rejection {
            input: "[scenario]\nname = t\n\n[topology]\nm = 4\n\n[workload]\narrivals = 0@0:5\n\n[faults]\nplan = stall:1@0..2\n",
            line: 10,
            col: 1,
            kind: conflict("[faults] cannot be combined with an arrival workload"),
        },
        Rejection {
            input: "[scenario]\nname = t\n\n[workload]\nloads = 4\n\n[compete]\npolicies = c1\n",
            line: 7,
            col: 1,
            kind: conflict("[compete] requires mode = compete"),
        },
        Rejection {
            input: "[scenario]\nname = t\nmode = compete\n\n[workload]\ncompete-catalog = all\n\n[algorithm]\nname = c1\n",
            line: 8,
            col: 1,
            kind: conflict("[algorithm] is not used in compete mode (select via [compete] policies)"),
        },
        Rejection {
            input: "[scenario]\nname = t\n\n[workload]\nshape = uniform\nn = 10\n",
            line: 5,
            col: 1,
            kind: ErrorKind::Missing("`seed` in [workload] (required by shape = uniform)".to_string()),
        },
        Rejection {
            input: "[scenario]\nname = t\n\n[workload]\nshape = concentrated\nn = 10\nseed = 4\n",
            line: 7,
            col: 1,
            kind: conflict("`seed` is only meaningful for shape = uniform or datacenter"),
        },
        // Bad values.
        Rejection {
            input: "[scenario]\nname = t\nmode = batch\n\n[workload]\nloads = 1\n",
            line: 3,
            col: 8,
            kind: bad("mode", "`batch` is not run, compete, or serve"),
        },
        Rejection {
            input: "[scenario]\nname = t\n\n[workload]\nloads = 4\n\n[executor]\nmode = steal\n",
            line: 8,
            col: 8,
            kind: bad(
                "mode",
                "`steal` is not an executor mode (`par` is the work-stealing executor)",
            ),
        },
        Rejection {
            input: "[scenario]\nname = t\n\n[workload]\nloads = 4\n\n[executor]\nmode = par\nrebalance = true\n",
            line: 9,
            col: 1,
            kind: ErrorKind::UnknownKey("rebalance".to_string()),
        },
        Rejection {
            input: "[scenario]\nname = t\n\n[workload]\ncase = I-m10-d1-missing\n",
            line: 5,
            col: 8,
            kind: bad("case", "unknown catalog case id `I-m10-d1-missing`"),
        },
        Rejection {
            input: "[scenario]\nname = t\n\n[workload]\nloads = 1 2 x\n",
            line: 5,
            col: 9,
            kind: bad("loads", "expected space-separated load counts"),
        },
        Rejection {
            input: "[scenario]\nname = t\nmode = compete\n\n[workload]\ncompete-catalog = all\n\n[compete]\npolicies = c1 c9\n",
            line: 9,
            col: 12,
            kind: bad("policies", "unknown policy `c9` (a1 b1 c1 a2 b2 c2 mig ml)"),
        },
        // Missing requirements.
        Rejection {
            input: "[workload]\nloads = 1\n",
            line: 0,
            col: 0,
            kind: ErrorKind::Missing("[scenario] section".to_string()),
        },
        Rejection {
            input: "[scenario]\nname = t\n",
            line: 0,
            col: 0,
            kind: ErrorKind::Missing("[workload] section".to_string()),
        },
        Rejection {
            input: "[scenario]\nname = t\n\n[workload]\nn = 4\nshape = concentrated\n",
            line: 6,
            col: 1,
            kind: ErrorKind::Missing("[topology] m (required by a shape workload)".to_string()),
        },
    ]
}

#[test]
fn rejection_table_errors_are_exact() {
    for (i, case) in rejection_table().into_iter().enumerate() {
        let err = parse_plan(case.input)
            .err()
            .unwrap_or_else(|| panic!("rejection case #{i} unexpectedly parsed:\n{}", case.input));
        assert_eq!(
            (err.line, err.col, &err.kind),
            (case.line, case.col, &case.kind),
            "rejection case #{i} produced `{err}` — wrong position or kind for:\n{}",
            case.input
        );
    }
}

#[test]
fn rejections_display_line_and_column() {
    let err = parse_plan("[scenario]\nname = t\n\n[workload]\nlodas = 1\n").unwrap_err();
    assert_eq!(err.to_string(), "line 5, col 1: unknown key `lodas`");
}

// ---------------------------------------------------------------------------
// Random-plan round trips: parse(render(p)) == p for every mode.
// ---------------------------------------------------------------------------

fn random_executor(rng: &mut StdRng) -> ExecutorSpec {
    let mode = if rng.gen_bool(0.5) {
        ExecMode::Run
    } else {
        ExecMode::Par
    };
    let mut ex = ExecutorSpec {
        mode,
        compress: rng.gen_bool(0.3),
        ..ExecutorSpec::default()
    };
    if mode == ExecMode::Par {
        if rng.gen_bool(0.7) {
            ex.shards = Some(rng.gen_range(1..=16));
        }
        if rng.gen_bool(0.4) {
            ex.window = Some(if rng.gen_bool(0.25) {
                u64::MAX
            } else {
                rng.gen_range(1..=64)
            });
        }
        if rng.gen_bool(0.5) {
            ex.tasks_per_shard = Some(rng.gen_range(1..=8));
        }
        if rng.gen_bool(0.5) {
            ex.steal_seed = Some(rng.gen_range(0..1_000_000));
        }
        if rng.gen_bool(0.5) {
            ex.threads = Some(rng.gen_range(1..=8));
        }
    }
    ex
}

fn random_arrivals(rng: &mut StdRng, m: usize) -> Vec<Arrival> {
    let k = rng.gen_range(1..=5);
    let mut t = 0u64;
    (0..k)
        .map(|_| {
            t += rng.gen_range(1..=20u64);
            Arrival {
                time: t,
                processor: rng.gen_range(0..m),
                count: rng.gen_range(1..=50),
            }
        })
        .collect()
}

fn random_algorithm(rng: &mut StdRng, allow_all6: bool) -> Option<AlgSelect> {
    const NAMES: [&str; 6] = ["a1", "b1", "c1", "a2", "b2", "c2"];
    match rng.gen_range(0..3) {
        0 if allow_all6 => Some(AlgSelect::AllSix),
        0 | 1 => Some(AlgSelect::One {
            name: NAMES[rng.gen_range(0..NAMES.len())].to_string(),
            c: if rng.gen_bool(0.5) {
                // Any finite f64 > 1 survives the round trip exactly:
                // render uses shortest-round-trip formatting.
                Some(1.0 + rng.gen_range(0.001..9.0))
            } else {
                None
            },
        }),
        _ => None,
    }
}

fn random_run_plan(rng: &mut StdRng, idx: u64) -> Plan {
    let (m, workload) = match rng.gen_range(0..5) {
        0 => {
            let len = rng.gen_range(1..=12);
            let loads = (0..len).map(|_| rng.gen_range(0..200)).collect();
            (None, Workload::Loads(loads))
        }
        1 => (None, Workload::Case("I-m10-d1-huge".to_string())),
        2 => {
            let sel = [
                CatalogSel::All,
                CatalogSel::Part1,
                CatalogSel::Part2,
                CatalogSel::Part3,
            ][rng.gen_range(0..4usize)];
            (None, Workload::Catalog(sel))
        }
        3 => {
            let kind = [
                ShapeKind::Concentrated,
                ShapeKind::Region,
                ShapeKind::Uniform,
            ][rng.gen_range(0..3usize)];
            let seed = if kind == ShapeKind::Uniform {
                rng.gen_range(0..10_000)
            } else {
                0
            };
            (
                Some(rng.gen_range(1..=256)),
                Workload::Shape {
                    kind,
                    n: rng.gen_range(1..=10_000),
                    seed,
                },
            )
        }
        _ => {
            let m = rng.gen_range(1..=64);
            (Some(m), Workload::Arrivals(random_arrivals(rng, m)))
        }
    };
    let arrivals = matches!(workload, Workload::Arrivals(_));
    let faultable = matches!(workload, Workload::Loads(_) | Workload::Shape { .. });
    let mut executor = random_executor(rng);
    if arrivals {
        // Arrival workloads accept only the plain par knobs.
        executor.window = None;
        executor.tasks_per_shard = None;
        executor.steal_seed = None;
        executor.threads = None;
    }
    let faults = if faultable && rng.gen_bool(0.4) {
        let fault_m = match &workload {
            Workload::Loads(loads) => loads.len(),
            Workload::Shape { .. } => m.unwrap(),
            _ => unreachable!(),
        };
        let plan = FaultPlan::random(fault_m, rng.gen_range(8..128), rng.gen_range(0..1_000_000));
        if plan.is_empty() {
            None
        } else {
            Some(plan)
        }
    } else {
        None
    };
    Plan {
        name: format!("prop-run-{idx}"),
        mode: Mode::Run,
        kind: TopoKind::Ring,
        m,
        racks: None,
        rows: None,
        cols: None,
        workload,
        algorithm: random_algorithm(rng, true),
        executor,
        faults,
        trace_full: rng.gen_bool(0.3),
        policies: None,
        service: None,
    }
}

fn random_compete_plan(rng: &mut StdRng, idx: u64) -> Plan {
    const POLICIES: [&str; 8] = ["a1", "b1", "c1", "a2", "b2", "c2", "mig", "ml"];
    let (m, workload) = match rng.gen_range(0..3) {
        0 => (None, Workload::CompeteCatalog),
        1 => (None, Workload::CompeteCase("burst-m32-n400".to_string())),
        _ => {
            let m = rng.gen_range(1..=64);
            (Some(m), Workload::Arrivals(random_arrivals(rng, m)))
        }
    };
    let executor = ExecutorSpec {
        mode: if rng.gen_bool(0.5) {
            ExecMode::Par
        } else {
            ExecMode::Run
        },
        shards: if rng.gen_bool(0.5) {
            Some(rng.gen_range(1..=16))
        } else {
            None
        },
        ..ExecutorSpec::default()
    };
    let policies = if rng.gen_bool(0.6) {
        let k = rng.gen_range(1..=POLICIES.len());
        Some(POLICIES[..k].iter().map(|s| s.to_string()).collect())
    } else {
        None
    };
    Plan {
        name: format!("prop-compete-{idx}"),
        mode: Mode::Compete,
        kind: TopoKind::Ring,
        m,
        racks: None,
        rows: None,
        cols: None,
        workload,
        algorithm: None,
        executor: ExecutorSpec {
            shards: if executor.mode == ExecMode::Run {
                None
            } else {
                executor.shards
            },
            ..executor
        },
        faults: None,
        trace_full: false,
        policies,
        service: None,
    }
}

fn random_serve_plan(rng: &mut StdRng, idx: u64) -> Plan {
    let m = rng.gen_range(1..=64);
    let opt = |rng: &mut StdRng, hi: u64| {
        if rng.gen_bool(0.5) {
            Some(rng.gen_range(1..=hi))
        } else {
            None
        }
    };
    let service = if rng.gen_bool(0.7) {
        Some(ServiceSpec {
            epoch: opt(rng, 64),
            queue_cap: opt(rng, 10_000),
            slo: opt(rng, 100_000),
            drain_at: opt(rng, 1_000),
        })
    } else {
        None
    };
    let mode = if rng.gen_bool(0.5) {
        ExecMode::Par
    } else {
        ExecMode::Run
    };
    Plan {
        name: format!("prop-serve-{idx}"),
        mode: Mode::Serve,
        kind: TopoKind::Ring,
        m: Some(m),
        racks: None,
        rows: None,
        cols: None,
        workload: Workload::Arrivals(random_arrivals(rng, m)),
        algorithm: random_algorithm(rng, false),
        executor: ExecutorSpec {
            mode,
            shards: if mode == ExecMode::Par && rng.gen_bool(0.5) {
                Some(rng.gen_range(1..=16))
            } else {
                None
            },
            ..ExecutorSpec::default()
        },
        faults: None,
        trace_full: false,
        policies: None,
        service,
    }
}

fn assert_round_trip(plan: &Plan) {
    let rendered = plan.render();
    let reparsed = parse_plan(&rendered)
        .unwrap_or_else(|e| panic!("rendered plan does not reparse: {e}\n---\n{rendered}"));
    assert_eq!(&reparsed, plan, "round trip drifted:\n{rendered}");
    assert_eq!(
        reparsed.render(),
        rendered,
        "rendering is not a fixed point"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn run_plans_round_trip(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        assert_round_trip(&random_run_plan(&mut rng, seed));
    }

    #[test]
    fn compete_plans_round_trip(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        assert_round_trip(&random_compete_plan(&mut rng, seed));
    }

    #[test]
    fn serve_plans_round_trip(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        assert_round_trip(&random_serve_plan(&mut rng, seed));
    }
}
