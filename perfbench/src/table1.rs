//! `table1`: the paper's Table 1 — all 51 catalog cases under the six §6
//! algorithms on the sequential engine, each case's denominator from the
//! exact solver under the fast experiment budget, and a full trace through
//! encode → decode → oracle on every Part II and Part III row.

use crate::trace::Tracer;
use crate::{derive_seed, next_op, Pass, Workload};
use ring_experiments::ExperimentConfig;
use ring_opt::exact::{optimum_uncapacitated, OptResult};
use ring_scenario::{CatalogSel, Workload as PlanWorkload};
use ring_sched::unit::{run_unit, UnitConfig};
use ring_sim::TraceFile;
use ring_workloads::{CatalogCase, Part};
use std::collections::HashMap;
use std::time::Instant;

const GOLDEN_PATH: &str = "tests/golden_makespans.txt";

pub struct Table1 {
    cases: Vec<CatalogCase>,
    algorithms: Vec<(&'static str, UnitConfig)>,
    /// Golden makespans by (case id, algorithm), for rows whose instance is
    /// the catalog's own.
    golden: HashMap<(String, String), u64>,
    /// Case ids whose loads were regenerated from the seed.
    regenerated: Vec<String>,
}

fn plan_text() -> &'static str {
    "[scenario]\nname = bench-table1\n\n[workload]\ncatalog = all\n"
}

fn read_golden() -> Result<HashMap<(String, String), u64>, String> {
    let text = std::fs::read_to_string(GOLDEN_PATH).map_err(|e| format!("{GOLDEN_PATH}: {e}"))?;
    let mut out = HashMap::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let f: Vec<&str> = line.split_whitespace().collect();
        let [id, alg, makespan] = f[..] else {
            return Err(format!("{GOLDEN_PATH}: malformed line `{line}`"));
        };
        let makespan = makespan
            .parse()
            .map_err(|_| format!("{GOLDEN_PATH}: `{line}`"))?;
        out.insert((id.to_string(), alg.to_string()), makespan);
    }
    Ok(out)
}

/// `II-m1000-r500` → (1000, 500).
fn part2_shape(id: &str) -> Option<(usize, u64)> {
    let mut it = id.split('-').skip(1);
    let m = it.next()?.strip_prefix('m')?.parse().ok()?;
    let max = it.next()?.strip_prefix('r')?.parse().ok()?;
    Some((m, max))
}

pub fn setup(seed: u64, t: &Tracer) -> Result<Table1, String> {
    let plan = t
        .span("scenario.parse", 0, || {
            ring_scenario::parse_plan(plan_text())
        })
        .map_err(|e| e.to_string())?;
    let PlanWorkload::Catalog(sel) = plan.workload else {
        return Err("table1 plan must select the catalog".into());
    };
    let mut regenerated = Vec::new();
    let cases = t.span("workloads.gen", 0, || {
        let mut cases: Vec<CatalogCase> = ring_workloads::catalog()
            .into_iter()
            .filter(|c| match sel {
                CatalogSel::All => true,
                CatalogSel::Part1 => c.part == Part::Structured,
                CatalogSel::Part2 => c.part == Part::Random,
                CatalogSel::Part3 => c.part == Part::Adversary,
            })
            .collect();
        if seed != crate::spec::DEFAULT_SEED {
            for (i, case) in cases.iter_mut().enumerate() {
                if case.part != Part::Random {
                    continue;
                }
                let (m, max) = part2_shape(&case.id).expect("Part II ids are II-m<m>-r<max>");
                case.instance =
                    ring_workloads::random::uniform(m, max, derive_seed(seed, i as u64));
                regenerated.push(case.id.clone());
            }
        }
        cases
    });
    let golden = read_golden()?;
    let algorithms = UnitConfig::all_six().to_vec();
    let w = Table1 {
        cases,
        algorithms,
        golden,
        regenerated,
    };
    w.warm_up()?;
    Ok(w)
}

impl Table1 {
    /// Runs the small (m = 10) cases once so caches and allocators are warm
    /// before the first timed op.
    fn warm_up(&self) -> Result<(), String> {
        let small: Vec<CatalogCase> = self
            .cases
            .iter()
            .filter(|c| c.instance.num_processors() == 10)
            .cloned()
            .collect();
        let t = Tracer::new(false);
        let mut sink = Pass::default();
        for case in &small {
            self.case(case, &t, &mut sink);
        }
        match sink.failures.first() {
            Some(f) => Err(format!("warm-up failed: {f}")),
            None => Ok(()),
        }
    }

    fn case(&self, case: &CatalogCase, t: &Tracer, p: &mut Pass) {
        let traced = case.part != Part::Structured;
        let m = case.instance.num_processors();
        let check_golden = !self.regenerated.contains(&case.id);
        let mut makespans = Vec::with_capacity(self.algorithms.len());
        for &(alg, cfg) in &self.algorithms {
            let op = next_op();
            let cfg = if traced { cfg.with_trace() } else { cfg };
            let started = Instant::now();
            let outcome = t.span("bench.op", op, || -> Result<u64, String> {
                let run = t
                    .span("engine.run_unit", op, || run_unit(&case.instance, &cfg))
                    .map_err(|e| format!("{} {alg}: {e}", case.id))?;
                p.add_engine(&run.report, m, true);
                p.jobs += case.instance.total_work();
                if check_golden {
                    let want = self.golden.get(&(case.id.clone(), alg.to_string()));
                    if want != Some(&run.makespan) {
                        return Err(format!(
                            "{} {alg}: makespan {} vs golden {want:?}",
                            case.id, run.makespan
                        ));
                    }
                }
                if traced {
                    let (file, bytes) = t.span("trace.encode", op, || {
                        let file = TraceFile::from_report(&run.report, None, "");
                        let bytes = file.to_bytes();
                        (file, bytes)
                    });
                    p.add("trace.bytes", bytes.len() as f64);
                    let back = t
                        .span("trace.decode", op, || TraceFile::from_bytes(&bytes))
                        .map_err(|e| format!("{} {alg}: decode: {e}", case.id))?;
                    if back.digest() != file.digest() {
                        return Err(format!("{} {alg}: decoded trace digest differs", case.id));
                    }
                    let violations = t.span("oracle.check", op, || back.check());
                    p.add("oracle.violations", violations.len() as f64);
                    if let Some(v) = violations.first() {
                        return Err(format!("{} {alg}: oracle: {v:?}", case.id));
                    }
                }
                Ok(run.makespan)
            });
            p.op_ms.push(started.elapsed().as_secs_f64() * 1e3);
            p.attempted += 1;
            match outcome {
                Ok(makespan) => makespans.push(makespan),
                Err(e) => p.failures.push(e),
            }
        }
        let Some(&hint) = makespans.iter().min() else {
            return;
        };
        let budget = ExperimentConfig::fast().budget;
        let opt = t.span("opt.exact", 0, || {
            optimum_uncapacitated(&case.instance, Some(hint), &budget)
        });
        p.add("opt.solves", 1.0);
        p.add(
            "opt.exact_cases",
            f64::from(u8::from(matches!(opt, OptResult::Exact(_)))),
        );
        let denominator = opt.value().max(1);
        for &makespan in &makespans {
            if makespan < denominator {
                p.failures.push(format!(
                    "{}: makespan {makespan} below optimum {denominator}",
                    case.id
                ));
            }
            p.add("quality.factor_sum", makespan as f64 / denominator as f64);
            p.add("quality.rows", 1.0);
        }
    }
}

impl Workload for Table1 {
    fn describe(&self) -> Vec<(&'static str, String)> {
        vec![
            ("cases", self.cases.len().to_string()),
            (
                "rows_per_pass",
                (self.cases.len() * self.algorithms.len()).to_string(),
            ),
            (
                "regenerated_part2_cases",
                self.regenerated.len().to_string(),
            ),
            (
                "golden_checked",
                if self.regenerated.is_empty() {
                    "all rows"
                } else {
                    "Part I and III rows"
                }
                .to_string(),
            ),
        ]
    }

    fn pass(&mut self, t: &Tracer) -> Pass {
        let mut p = Pass::default();
        for case in &self.cases {
            self.case(case, t, &mut p);
        }
        let rows = p.count("quality.rows").max(1.0);
        p.quality.push((
            "makespan_over_opt",
            p.count("quality.factor_sum") / rows,
            "ratio",
        ));
        p.quality
            .push(("opt_exact_cases", p.count("opt.exact_cases"), "count"));
        p
    }
}
