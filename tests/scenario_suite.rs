//! The `.ring`-driven conformance suite.
//!
//! One data-driven runner executes every checked-in `scenarios/*.ring`
//! file and pins the results three ways:
//!
//! * `tests/golden_scenarios.txt` — per-scenario result digests
//!   (re-bless with `RING_BLESS=1` after an intended change);
//! * bit-identity against the older golden tables: the three
//!   `catalog-part*.ring` sweeps must reproduce all 306 rows of
//!   `tests/golden_makespans.txt`, and `compete-catalog.ring` the 80
//!   measurement rows of `tests/golden_ratios.txt`;
//! * the executor matrix: every traced run-mode scenario digests identically and
//!   trace-diffs clean under `run` and `par`, and every captured
//!   trace replays oracle-clean.
//!
//! The binary-trace size gate lives here too: on the m=4096 drain shape
//! the `RINGTRACE` form must be at most a quarter of the JSON full-trace
//! form.

use ring_scenario::{execute, parse_plan, ExecMode, Mode, Plan};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(rel)
}

/// Every checked-in scenario, sorted by file name for stable ordering.
fn all_scenarios() -> Vec<(String, Plan)> {
    let dir = repo_path("scenarios");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|entry| entry.expect("dir entry").file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".ring"))
        .collect();
    names.sort();
    assert!(!names.is_empty(), "scenarios/ has no .ring files");
    names
        .into_iter()
        .map(|name| {
            let text = std::fs::read_to_string(dir.join(&name))
                .unwrap_or_else(|e| panic!("cannot read {name}: {e}"));
            let plan = parse_plan(&text)
                .unwrap_or_else(|e| panic!("scenarios/{name} does not parse: {e}"));
            (name, plan)
        })
        .collect()
}

#[test]
fn every_scenario_parses_and_renders_canonically() {
    for (name, plan) in all_scenarios() {
        let rendered = plan.render();
        let reparsed = parse_plan(&rendered)
            .unwrap_or_else(|e| panic!("{name}: canonical rendering does not reparse: {e}"));
        assert_eq!(reparsed, plan, "{name}: render/parse round trip drifted");
        assert_eq!(
            reparsed.render(),
            rendered,
            "{name}: rendering is not a fixed point"
        );
    }
}

/// Golden digests for every executable scenario. Serve-mode plans are
/// interactive (covered by `service_recovery`) and are parse-pinned only.
#[test]
fn scenario_digests_match_golden_snapshot() {
    let golden_path = repo_path("tests/golden_scenarios.txt");
    let mut actual = String::from(
        "# scenario rows digest — regenerate with RING_BLESS=1 (see scenario_suite.rs)\n",
    );
    for (name, plan) in all_scenarios() {
        if plan.mode == Mode::Serve {
            writeln!(actual, "{name} serve-mode -").unwrap();
            continue;
        }
        let report =
            execute(&plan).unwrap_or_else(|e| panic!("scenarios/{name} failed to execute: {e}"));
        let rows = report.rows.len() + report.ratios.len();
        writeln!(actual, "{name} {rows} {:016x}", report.digest).unwrap();
    }
    if std::env::var("RING_BLESS").is_ok() {
        std::fs::write(&golden_path, &actual).expect("write golden file");
        eprintln!("blessed {}", golden_path.display());
        return;
    }
    let expected = std::fs::read_to_string(&golden_path)
        .expect("tests/golden_scenarios.txt missing — run with RING_BLESS=1 to create it");
    assert_eq!(
        actual, expected,
        "scenario digests drifted from the golden snapshot; \
         if intended, re-bless with RING_BLESS=1"
    );
}

/// The three catalog sweeps reproduce `tests/golden_makespans.txt`
/// bit-identically — all 306 (case × algorithm) rows, none missing.
#[test]
fn catalog_scenarios_reproduce_golden_makespans() {
    let mut from_scenarios: BTreeMap<(String, String), u64> = BTreeMap::new();
    for (name, plan) in all_scenarios() {
        if !name.starts_with("catalog-part") {
            continue;
        }
        let report = execute(&plan).unwrap_or_else(|e| panic!("{name}: {e}"));
        for row in report.rows {
            let prev =
                from_scenarios.insert((row.case.clone(), row.algorithm.clone()), row.makespan);
            assert!(
                prev.is_none(),
                "{name}: duplicate row {}/{}",
                row.case,
                row.algorithm
            );
        }
    }
    let golden = std::fs::read_to_string(repo_path("tests/golden_makespans.txt"))
        .expect("tests/golden_makespans.txt present");
    let mut golden_rows = 0usize;
    for line in golden
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let mut parts = line.split_whitespace();
        let case = parts.next().unwrap().to_string();
        let alg = parts.next().unwrap().to_string();
        let makespan: u64 = parts.next().unwrap().parse().unwrap();
        golden_rows += 1;
        assert_eq!(
            from_scenarios.get(&(case.clone(), alg.clone())),
            Some(&makespan),
            "catalog scenarios disagree with golden_makespans.txt on {case}/{alg}"
        );
    }
    assert_eq!(golden_rows, 306, "golden table shape changed");
    assert_eq!(
        from_scenarios.len(),
        golden_rows,
        "catalog scenarios produced rows the golden table does not have"
    );
}

/// `compete-catalog.ring` reproduces every measurement row of
/// `tests/golden_ratios.txt` bit-identically.
#[test]
fn compete_catalog_scenario_reproduces_golden_ratios() {
    let (_, plan) = all_scenarios()
        .into_iter()
        .find(|(name, _)| name == "compete-catalog.ring")
        .expect("scenarios/compete-catalog.ring exists");
    let report = execute(&plan).expect("compete catalog executes");
    let mut measured: BTreeMap<(String, String), (u64, u64, bool)> = BTreeMap::new();
    for r in &report.ratios {
        measured.insert(
            (r.case.clone(), r.policy.clone()),
            (r.online, r.denominator, r.exact),
        );
    }
    let golden = std::fs::read_to_string(repo_path("tests/golden_ratios.txt"))
        .expect("tests/golden_ratios.txt present");
    let mut golden_rows = 0usize;
    for line in golden
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let mut parts = line.split_whitespace();
        let case = parts.next().unwrap().to_string();
        if case == "digest" {
            // The golden table's trailer digest is the same FNV the compete
            // scenario reports — pin them against each other.
            let golden_digest = u64::from_str_radix(parts.next().unwrap(), 16).unwrap();
            assert_eq!(
                report.digest, golden_digest,
                "compete-catalog.ring digest drifted from golden_ratios.txt"
            );
            continue;
        }
        let policy = parts.next().unwrap().to_string();
        let online: u64 = parts.next().unwrap().parse().unwrap();
        let denominator: u64 = parts.next().unwrap().parse().unwrap();
        let exact = parts.next().unwrap() == "exact";
        golden_rows += 1;
        assert_eq!(
            measured.get(&(case.clone(), policy.clone())),
            Some(&(online, denominator, exact)),
            "compete-catalog.ring disagrees with golden_ratios.txt on {case}/{policy}"
        );
    }
    assert_eq!(
        measured.len(),
        golden_rows,
        "row count drifted from the golden table"
    );
}

/// The executor matrix: every run-mode scenario (the catalog sweeps are
/// covered by the digest test; here we take the trace-carrying ones so
/// the diff is meaningful) digests identically and trace-diffs clean
/// across executors, and every trace replays oracle-clean.
#[test]
fn executors_agree_and_traces_replay_clean() {
    for (name, base_plan) in all_scenarios() {
        if base_plan.mode != Mode::Run || !base_plan.trace_full {
            continue;
        }
        let mut reference: Option<(ExecMode, ring_scenario::PlanReport)> = None;
        for mode in [ExecMode::Run, ExecMode::Par] {
            let mut plan = base_plan.clone();
            plan.executor.mode = mode;
            let report =
                execute(&plan).unwrap_or_else(|e| panic!("{name} under {}: {e}", mode.name()));
            for row in &report.rows {
                let trace = row
                    .trace
                    .as_ref()
                    .unwrap_or_else(|| panic!("{name}: trace_full plans carry traces"));
                let violations = trace.check();
                assert!(
                    violations.is_empty(),
                    "{name} under {}: {}/{} trace violates the oracle: {:?}",
                    mode.name(),
                    row.case,
                    row.algorithm,
                    violations
                );
            }
            match &reference {
                None => reference = Some((mode, report)),
                Some((ref_mode, ref_report)) => {
                    assert_eq!(
                        ref_report.digest,
                        report.digest,
                        "{name}: digest differs between {} and {}",
                        ref_mode.name(),
                        mode.name()
                    );
                    for (a, b) in ref_report.rows.iter().zip(report.rows.iter()) {
                        let (ta, tb) = (a.trace.as_ref().unwrap(), b.trace.as_ref().unwrap());
                        assert_eq!(
                            ta.diff(tb),
                            None,
                            "{name}: {}/{} trace diverges between {} and {}",
                            a.case,
                            a.algorithm,
                            ref_mode.name(),
                            mode.name()
                        );
                    }
                }
            }
        }
    }
}

/// The trace-size gate: on the m=4096 drain shape the binary form is at
/// most a quarter of the JSON full-trace form (the ISSUE's ≥4× bound).
#[test]
fn binary_trace_beats_json_four_fold_on_the_drain_shape() {
    let (_, plan) = all_scenarios()
        .into_iter()
        .find(|(name, _)| name == "drain-m4096.ring")
        .expect("scenarios/drain-m4096.ring exists");
    let report = execute(&plan).expect("drain scenario executes");
    let trace = report.rows[0]
        .trace
        .as_ref()
        .expect("drain scenario records a full trace");
    let binary = trace.to_bytes().len();
    let json = trace.to_json().len();
    assert!(
        binary * 4 <= json,
        "binary trace is {binary} bytes vs {json} JSON bytes — less than a 4x reduction"
    );
    // And the compact form still replays through the unmodified oracle.
    assert!(trace.check().is_empty(), "drain trace replays oracle-clean");
}
