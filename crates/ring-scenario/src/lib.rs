//! `ring-scenario` — the `.ring` experiment DSL.
//!
//! A `.ring` file describes an experiment end-to-end: topology size,
//! workload (explicit loads, catalog cases, generated shapes, arrival
//! scripts), fault plan, algorithm selection with drop-off constant,
//! executor and its knobs (shards, locality window, work-stealing tuning), trace
//! level, compete-policy set, and service SLOs. [`parse_plan`] turns the
//! text into a validated [`Plan`] with position-carrying typed errors;
//! [`Plan::render`] is its exact inverse (canonical normal form);
//! [`execute`] runs the plan through the same `ring-sched` entry points the
//! CLI uses and returns makespans, compete ratios, a digest, and — with
//! `level = full` — binary [`ring_sim::TraceFile`] traces the oracle
//! replays.
//!
//! # Example
//!
//! ```
//! let text = "\
//! [scenario]
//! name = smoke
//!
//! [workload]
//! loads = 12 0 0 4
//!
//! [algorithm]
//! name = c1
//! ";
//! let plan = ring_scenario::parse_plan(text).unwrap();
//! assert_eq!(plan.stated_m(), Some(4));
//! // render() is the canonical inverse of parse_plan().
//! assert_eq!(ring_scenario::parse_plan(&plan.render()).unwrap(), plan);
//! let report = ring_scenario::execute(&plan).unwrap();
//! assert_eq!(report.rows.len(), 1);
//! assert!(report.rows[0].makespan >= 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod exec;
mod parse;
mod plan;

pub use error::{ErrorKind, ScenarioError};
pub use exec::{execute, PlanReport, PlanRow, DEFAULT_SHARDS};
pub use parse::{load_plan, parse_plan, MAX_M};
pub use plan::{
    AlgSelect, CatalogSel, ExecMode, ExecutorSpec, Mode, Plan, ServiceSpec, ShapeKind, TopoKind,
    Workload,
};

#[cfg(test)]
mod tests {
    use super::*;
    use ring_sim::FaultPlan;

    fn parse(text: &str) -> Plan {
        parse_plan(text).unwrap_or_else(|e| panic!("parse failed: {e}\n---\n{text}"))
    }

    fn round_trip(plan: &Plan) {
        let rendered = plan.render();
        let reparsed = parse_plan(&rendered)
            .unwrap_or_else(|e| panic!("render did not reparse: {e}\n---\n{rendered}"));
        assert_eq!(
            &reparsed, plan,
            "render/parse round trip drifted:\n{rendered}"
        );
        // Canonical: rendering the reparse reproduces the bytes.
        assert_eq!(reparsed.render(), rendered);
    }

    #[test]
    fn minimal_run_plan() {
        let plan = parse("[scenario]\nname = t\n\n[workload]\nloads = 1 2 3\n");
        assert_eq!(plan.mode, Mode::Run);
        assert_eq!(plan.workload, Workload::Loads(vec![1, 2, 3]));
        assert_eq!(plan.stated_m(), Some(3));
        assert!(plan.algorithm.is_none());
        round_trip(&plan);
    }

    #[test]
    fn comments_and_whitespace_are_ignored() {
        let plan = parse(
            "# header comment\n\n[scenario]  # trailing\n  name = t  \n\n[workload]\nloads = 5  5\n",
        );
        assert_eq!(plan.name, "t");
        assert_eq!(plan.workload, Workload::Loads(vec![5, 5]));
    }

    #[test]
    fn full_steal_plan_round_trips() {
        let text = "\
[scenario]
name = steal-hotspot

[topology]
m = 64

[workload]
shape = uniform
n = 40
seed = 7

[algorithm]
name = c2
c = 2.5

[executor]
mode = par
shards = 8
window = 16
compress = true
tasks-per-shard = 6
steal-seed = 11
threads = 4

[faults]
plan = drop:3cw@10..20;stall:1@0..5

[trace]
level = full
";
        let plan = parse(text);
        assert_eq!(plan.executor.mode, ExecMode::Par);
        assert_eq!(plan.executor.tasks_per_shard, Some(6));
        assert!(plan.trace_full);
        assert!(plan.faults.is_some());
        round_trip(&plan);
    }

    #[test]
    fn window_l_round_trips() {
        let plan = parse(
            "[scenario]\nname = t\n\n[workload]\nloads = 9\n\n[executor]\nmode = par\nwindow = L\n",
        );
        assert_eq!(plan.executor.window, Some(u64::MAX));
        round_trip(&plan);
    }

    #[test]
    fn fault_seed_expands_to_a_concrete_plan() {
        let plan = parse(
            "[scenario]\nname = t\n\n[workload]\nloads = 4 4 4 4\n\n[faults]\nseed = 3\nhorizon = 32\n",
        );
        let faults = plan.faults.clone().expect("seed expands to a plan");
        assert_eq!(faults, FaultPlan::random(4, 32, 3));
        // The rendered form carries the expanded spec, not the seed.
        round_trip(&plan);
    }

    #[test]
    fn compete_plan_round_trips() {
        let plan = parse(
            "[scenario]\nname = cc\nmode = compete\n\n[workload]\ncompete-catalog = all\n\n[compete]\npolicies = c1 mig\n",
        );
        assert_eq!(plan.mode, Mode::Compete);
        assert_eq!(
            plan.policies,
            Some(vec!["c1".to_string(), "mig".to_string()])
        );
        round_trip(&plan);
    }

    #[test]
    fn serve_plan_round_trips() {
        let plan = parse(
            "[scenario]\nname = svc\nmode = serve\n\n[topology]\nm = 8\n\n[workload]\narrivals = 0@0:5;3@4:2\n\n[algorithm]\nname = c1\n\n[service]\nepoch = 4\nqueue-cap = 32\nslo = 100\ndrain-at = 50\n",
        );
        assert_eq!(plan.mode, Mode::Serve);
        let svc = plan.service.expect("service section parsed");
        assert_eq!(svc.epoch, Some(4));
        assert_eq!(svc.drain_at, Some(50));
        round_trip(&plan);
    }

    #[test]
    fn catalog_case_workload() {
        let plan = parse(
            "[scenario]\nname = t\n\n[workload]\ncase = I-m10-d1-huge\n\n[algorithm]\nname = all6\n",
        );
        assert_eq!(plan.algorithm, Some(AlgSelect::AllSix));
        round_trip(&plan);
    }

    fn err(text: &str) -> ScenarioError {
        parse_plan(text).expect_err("expected a parse error")
    }

    #[test]
    fn unknown_section_is_positioned() {
        let e = err("[scenario]\nname = t\n\n[wurkload]\nloads = 1\n");
        assert_eq!((e.line, e.col), (4, 1));
        assert_eq!(e.kind, ErrorKind::UnknownSection("wurkload".to_string()));
    }

    #[test]
    fn unknown_key_is_positioned() {
        let e = err("[scenario]\nname = t\n\n[workload]\nlodas = 1\n");
        assert_eq!((e.line, e.col), (5, 1));
        assert_eq!(e.kind, ErrorKind::UnknownKey("lodas".to_string()));
    }

    #[test]
    fn duplicate_section_rejected() {
        let e = err("[scenario]\nname = t\n\n[workload]\nloads = 1\n\n[workload]\nloads = 2\n");
        assert_eq!((e.line, e.col), (7, 1));
        assert_eq!(e.kind, ErrorKind::DuplicateSection("workload".to_string()));
    }

    #[test]
    fn duplicate_key_rejected() {
        let e = err("[scenario]\nname = t\nname = u\n");
        assert_eq!((e.line, e.col), (3, 1));
        assert_eq!(e.kind, ErrorKind::DuplicateKey("name".to_string()));
    }

    #[test]
    fn out_of_range_m() {
        let e = err("[scenario]\nname = t\n\n[topology]\nm = 0\n\n[workload]\nshape = concentrated\nn = 5\n");
        assert_eq!((e.line, e.col), (5, 5));
        assert!(matches!(e.kind, ErrorKind::OutOfRange { ref key, .. } if key == "m"));
    }

    #[test]
    fn conflicting_executor_knobs() {
        let e = err("[scenario]\nname = t\n\n[workload]\nloads = 1\n\n[executor]\nshards = 4\n");
        assert_eq!((e.line, e.col), (8, 1));
        assert_eq!(
            e.kind,
            ErrorKind::Conflict("`shards` requires executor mode par".to_string())
        );
    }

    #[test]
    fn two_workload_sources_conflict() {
        let e = err("[scenario]\nname = t\n\n[workload]\nloads = 1\ncase = I-m10-d1-huge\n");
        assert_eq!((e.line, e.col), (6, 1));
        assert!(matches!(e.kind, ErrorKind::Conflict(_)));
    }

    #[test]
    fn m_loads_disagreement_is_a_conflict() {
        let e = err("[scenario]\nname = t\n\n[topology]\nm = 5\n\n[workload]\nloads = 1 2\n");
        assert!(matches!(e.kind, ErrorKind::Conflict(ref msg) if msg.contains("disagrees")));
    }

    #[test]
    fn executes_a_smoke_plan() {
        let plan = parse(
            "[scenario]\nname = t\n\n[workload]\nloads = 16 0 0 0\n\n[algorithm]\nname = c1\n\n[trace]\nlevel = full\n",
        );
        let report = execute(&plan).unwrap();
        assert_eq!(report.rows.len(), 1);
        let row = &report.rows[0];
        assert!(row.makespan >= 4);
        let trace = row.trace.as_ref().expect("trace level = full");
        assert!(trace.check().is_empty(), "oracle-clean trace");
    }

    #[test]
    fn hier_datacenter_plan_round_trips_and_executes() {
        let text = "\
[scenario]
name = dc

[topology]
kind = hier
racks = 4
m = 8

[workload]
shape = datacenter
n = 300
seed = 7

[trace]
level = full
";
        let plan = parse(text);
        assert_eq!(plan.kind, TopoKind::Hier);
        assert_eq!((plan.racks, plan.m), (Some(4), Some(8)));
        round_trip(&plan);
        let report = execute(&plan).unwrap();
        assert_eq!(report.rows.len(), 1);
        let row = &report.rows[0];
        assert_eq!(row.algorithm, "diffuse");
        assert_eq!(row.case, "datacenter-hier:4x8-n300-s7");
        assert!(row.makespan > 0);
        assert!(row.trace.is_some());
    }

    #[test]
    fn torus_plan_round_trips_and_executes() {
        let plan = parse(
            "[scenario]\nname = tt\n\n[topology]\nkind = torus\nrows = 3\ncols = 4\n\n[workload]\nshape = concentrated\nn = 60\n",
        );
        assert_eq!(plan.kind, TopoKind::Torus);
        round_trip(&plan);
        let report = execute(&plan).unwrap();
        assert_eq!(report.rows[0].case, "concentrated-torus:3x4-n60");
        assert!(report.rows[0].makespan < 60, "diffusion must export work");
    }

    #[test]
    fn clique_plan_defaults_to_the_clique_scheduler() {
        let plan = parse(
            "[scenario]\nname = cq\n\n[topology]\nkind = clique\nm = 12\n\n[workload]\nshape = concentrated\nn = 120\n",
        );
        assert_eq!(plan.kind, TopoKind::Clique);
        round_trip(&plan);
        let report = execute(&plan).unwrap();
        assert_eq!(report.rows[0].algorithm, "clique");
        assert!(
            report.rows[0].makespan <= 14,
            "constant-round balance (got {})",
            report.rows[0].makespan
        );
    }

    #[test]
    fn topology_executors_agree_on_the_digest() {
        let base = "[scenario]\nname = eq\n\n[topology]\nkind = torus\nrows = 4\ncols = 4\n\n[workload]\nloads = 9 0 0 31 0 0 7 0 0 0 55 0 1 0 0 2\n";
        let seq = execute(&parse(base)).unwrap();
        for shards in [2, 3] {
            let par = execute(&parse(&format!(
                "{base}\n[executor]\nmode = par\nshards = {shards}\n"
            )))
            .unwrap();
            assert_eq!(seq.digest, par.digest, "run vs par({shards}) drifted");
        }
    }

    #[test]
    fn clique_algorithm_needs_a_clique() {
        let e = err(
            "[scenario]\nname = t\n\n[topology]\nkind = torus\nrows = 3\ncols = 3\n\n[workload]\nshape = uniform\nn = 10\nseed = 1\n\n[algorithm]\nname = clique\n",
        );
        assert!(matches!(e.kind, ErrorKind::Conflict(ref m) if m.contains("kind = clique")));
    }

    #[test]
    fn ring_only_knobs_rejected_off_ring() {
        let e = err(
            "[scenario]\nname = t\n\n[topology]\nkind = clique\nm = 8\n\n[workload]\nshape = concentrated\nn = 9\n\n[executor]\nmode = par\nwindow = 4\n",
        );
        assert!(matches!(e.kind, ErrorKind::Conflict(ref m) if m.contains("ring topology")));
    }

    #[test]
    fn torus_size_comes_from_its_dims() {
        let e = err(
            "[scenario]\nname = t\n\n[topology]\nkind = torus\nrows = 3\ncols = 3\nm = 9\n\n[workload]\nshape = uniform\nn = 4\nseed = 0\n",
        );
        assert!(matches!(e.kind, ErrorKind::Conflict(ref m) if m.contains("rows × cols")));
    }

    #[test]
    fn par_and_run_executors_agree() {
        let base = "[scenario]\nname = t\n\n[workload]\nloads = 30 0 2 0 0 9 0 0\n";
        let seq = execute(&parse(base)).unwrap();
        let par = execute(&parse(&format!(
            "{base}\n[executor]\nmode = par\nshards = 3\n"
        )))
        .unwrap();
        assert_eq!(
            seq.digest, par.digest,
            "digest must be executor-independent"
        );
    }
}
