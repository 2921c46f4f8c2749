//! `sparse`: C1 on a large ring holding one seeded pile, run to completion
//! under `run_unit` and `run_unit_par`, plus a checkpoint round trip at
//! mid-run (span → snapshot → bytes → decode → resume → finish). Nearly
//! every node-step is idle.

use crate::trace::Tracer;
use crate::{derive_seed, next_op, Pass, Workload};
use ring_scenario::Workload as PlanWorkload;
use ring_sched::unit::{build_unit_nodes, run_unit, run_unit_par, UnitConfig};
use ring_sim::{Engine, EngineConfig, Instance, RunReport, Snapshot, SpanOutcome};
use std::time::Instant;

pub struct Sparse {
    instance: Instance,
    cfg: UnitConfig,
    shards: usize,
    /// The first pass's `run_unit` report; later passes must repeat it.
    reference: Option<RunReport>,
}

fn plan_text(m: usize, n: u64, shards: usize) -> String {
    format!(
        "[scenario]\nname = bench-sparse\n\n[topology]\nm = {m}\n\n[workload]\nshape = concentrated\nn = {n}\n\n\
         [algorithm]\nname = c1\n\n[executor]\nmode = par\nshards = {shards}\n"
    )
}

pub fn setup(seed: u64, t: &Tracer) -> Result<Sparse, String> {
    let w = build(1 << 17, 1 << 15, seed, t)?;
    // Warm-up: the same three ops on a 2^15-node ring.
    let mut small = build(1 << 15, 1 << 13, seed, &Tracer::new(false))?;
    let p = small.pass(&Tracer::new(false));
    if let Some(f) = p.failures.first() {
        return Err(format!("warm-up failed: {f}"));
    }
    Ok(w)
}

fn build(m: usize, n: u64, seed: u64, t: &Tracer) -> Result<Sparse, String> {
    let plan = t
        .span("scenario.parse", 0, || {
            ring_scenario::parse_plan(&plan_text(m, n, crate::spec::SHARDS))
        })
        .map_err(|e| e.to_string())?;
    let (PlanWorkload::Shape { n, .. }, Some(m)) = (&plan.workload, plan.stated_m()) else {
        return Err("sparse plan must state m and a shape".into());
    };
    let cfg = match &plan.algorithm {
        Some(ring_scenario::AlgSelect::One { name, .. }) => UnitConfig::from_name(name),
        _ => None,
    }
    .ok_or("sparse plan must name one algorithm")?;
    let shards = plan.executor.shards.unwrap_or(crate::spec::SHARDS);
    // One pile at a seeded position, nothing else on the ring.
    let instance = t.span("workloads.gen", 0, || {
        ring_workloads::random::clustered(m, 1, *n, 0, derive_seed(seed, 0))
    });
    Ok(Sparse {
        instance,
        cfg,
        shards,
        reference: None,
    })
}

impl Sparse {
    fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            max_steps: self.cfg.max_steps,
            compress: self.cfg.compress,
            window: self.cfg.window,
            par: self.cfg.par,
            ..EngineConfig::default()
        }
    }

    /// Runs to `makespan / 2`, snapshots, round-trips the bytes, resumes on
    /// fresh nodes and finishes sequentially.
    fn checkpoint_round_trip(
        &self,
        pause_at: u64,
        t: &Tracer,
        op: u64,
        p: &mut Pass,
    ) -> Result<RunReport, String> {
        let m = self.instance.num_processors();
        let nodes = build_unit_nodes(&self.instance, &self.cfg);
        let mut engine = Engine::new(nodes, self.instance.total_work(), self.engine_config());
        match t
            .span("engine.run_span", op, || engine.run_span(pause_at))
            .map_err(|e| e.to_string())?
        {
            SpanOutcome::Paused { .. } => {}
            SpanOutcome::Done(_) => return Err(format!("finished before step {pause_at}")),
        }
        let bytes = t
            .span("checkpoint.encode", op, || {
                engine.snapshot().map(|s| s.to_bytes())
            })
            .map_err(|e| e.to_string())?;
        drop(engine);
        p.add("checkpoint.bytes", bytes.len() as f64);
        let snap = t
            .span("checkpoint.decode", op, || Snapshot::from_bytes(&bytes))
            .map_err(|e| e.to_string())?;
        drop(bytes);
        let fresh = build_unit_nodes(&Instance::from_loads(vec![0; m]), &self.cfg);
        let mut resumed = t
            .span("checkpoint.restore", op, || {
                Engine::resume(fresh, self.engine_config(), &snap)
            })
            .map_err(|e| e.to_string())?;
        drop(snap);
        t.span("engine.run", op, || resumed.run())
            .map_err(|e| e.to_string())
    }
}

impl Workload for Sparse {
    fn describe(&self) -> Vec<(&'static str, String)> {
        let m = self.instance.num_processors();
        let pile = self
            .instance
            .loads()
            .iter()
            .position(|&x| x > 0)
            .unwrap_or(0);
        vec![
            ("ring", m.to_string()),
            ("pile_jobs", self.instance.total_work().to_string()),
            ("pile_at", pile.to_string()),
            ("shards", self.shards.to_string()),
        ]
    }

    fn pass(&mut self, t: &Tracer) -> Pass {
        let mut p = Pass::default();
        let m = self.instance.num_processors();
        let op = next_op();
        let started = Instant::now();
        let result = t.span("bench.op", op, || -> Result<(), String> {
            let run = t
                .span("engine.run_unit", op, || {
                    run_unit(&self.instance, &self.cfg)
                })
                .map_err(|e| format!("run: {e}"))?;
            p.add_engine(&run.report, m, true);
            let par = t
                .span("engine.run_unit_par", op, || {
                    run_unit_par(&self.instance, &self.cfg, self.shards)
                })
                .map_err(|e| format!("par: {e}"))?;
            p.add_engine(&par.report, m, false);
            let resumed = self
                .checkpoint_round_trip(run.makespan / 2, t, op, &mut p)
                .map_err(|e| format!("checkpoint: {e}"))?;
            p.add_engine(&resumed, m, true);
            p.jobs += 3 * self.instance.total_work();
            if par.report != run.report {
                return Err("run_unit_par report differs from run_unit".into());
            }
            if resumed != run.report {
                return Err("resumed report differs from the uninterrupted run".into());
            }
            if let Some(reference) = &self.reference {
                if *reference != run.report {
                    return Err("run_unit report changed between passes".into());
                }
            }
            self.reference = Some(run.report);
            Ok(())
        });
        p.op_ms.push(started.elapsed().as_secs_f64() * 1e3);
        p.attempted += 1;
        if let Err(e) = result {
            p.failures.push(e);
        }
        p
    }
}
