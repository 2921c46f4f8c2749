//! `fabric`: the topology-generic engine off the ring — diffusion of one
//! seeded pile on a 512×512 torus and the congested-clique batch scheduler
//! on a skewed 16384-node clique, each under `run` and `par`.

use crate::trace::Tracer;
use crate::{derive_seed, next_op, Pass, Workload};
use ring_scenario::{AlgSelect, Workload as PlanWorkload};
use ring_sched::fabric::{run_fabric, FabricAlgo};
use ring_sim::{AnyTopology, EngineConfig, RunReport, Topology};
use std::time::Instant;

struct Shape {
    topo: AnyTopology,
    algo: FabricAlgo,
    loads: Vec<u64>,
}

pub struct Fabric {
    shapes: Vec<Shape>,
    shards: usize,
}

const TORUS_PLAN: &str = "[scenario]\nname = bench-fabric-torus\n\n[topology]\nkind = torus\nrows = {rows}\ncols = {cols}\n\n\
    [workload]\nshape = concentrated\nn = {pile}\n\n[algorithm]\nname = diffuse\n\n[executor]\nmode = par\nshards = {shards}\n";

const CLIQUE_PLAN: &str = "[scenario]\nname = bench-fabric-clique\n\n[topology]\nkind = clique\nm = {m}\n\n\
    [workload]\nshape = uniform\nn = {bg}\nseed = {seed}\n\n[algorithm]\nname = clique\n\n[executor]\nmode = par\nshards = {shards}\n";

/// Torus side, pile size; clique size, background maximum.
struct Size {
    side: usize,
    pile: u64,
    clique: usize,
    bg: u64,
}

const FULL: Size = Size {
    side: 512,
    pile: 1 << 16,
    clique: 1 << 14,
    bg: 16,
};
const WARM: Size = Size {
    side: 256,
    pile: 1 << 14,
    clique: 4096,
    bg: 16,
};

fn fill(template: &str, vars: &[(&str, String)]) -> String {
    vars.iter().fold(template.to_string(), |s, (k, v)| {
        s.replace(&format!("{{{k}}}"), v)
    })
}

pub fn setup(seed: u64, t: &Tracer) -> Result<Fabric, String> {
    let w = build(&FULL, seed, t)?;
    let mut warm = build(&WARM, seed, &Tracer::new(false))?;
    if let Some(f) = warm.pass(&Tracer::new(false)).failures.first() {
        return Err(format!("warm-up failed: {f}"));
    }
    Ok(w)
}

fn build(size: &Size, seed: u64, t: &Tracer) -> Result<Fabric, String> {
    let shards = crate::spec::SHARDS.to_string();
    let texts = [
        fill(
            TORUS_PLAN,
            &[
                ("rows", size.side.to_string()),
                ("cols", size.side.to_string()),
                ("pile", size.pile.to_string()),
                ("shards", shards.clone()),
            ],
        ),
        fill(
            CLIQUE_PLAN,
            &[
                ("m", size.clique.to_string()),
                ("bg", size.bg.to_string()),
                ("seed", derive_seed(seed, 2).to_string()),
                ("shards", shards),
            ],
        ),
    ];
    let mut shapes = Vec::new();
    let mut plan_shards = crate::spec::SHARDS;
    for text in &texts {
        let plan = t
            .span("scenario.parse", 0, || ring_scenario::parse_plan(text))
            .map_err(|e| e.to_string())?;
        let topo = plan
            .fabric_topology()
            .ok_or("fabric plans must name a non-ring topology")?;
        let algo = match &plan.algorithm {
            Some(AlgSelect::One { name, .. }) => FabricAlgo::parse(name)?,
            _ => return Err("fabric plans must name one algorithm".into()),
        };
        plan_shards = plan.executor.shards.unwrap_or(plan_shards);
        let n = topo.len();
        let loads = t.span("workloads.gen", 0, || match plan.workload {
            // One pile at a seeded node.
            PlanWorkload::Shape { n: pile, .. } if algo == FabricAlgo::Diffuse => {
                ring_workloads::random::clustered(n, 1, pile, 0, derive_seed(seed, 1))
            }
            // Light uniform background plus heavy piles on one node in 16.
            PlanWorkload::Shape { n: bg, seed, .. } => {
                ring_workloads::random::clustered(n, n / 16, 2048, bg, seed)
            }
            _ => ring_sim::Instance::from_loads(vec![0; n]),
        });
        if loads.total_work() == 0 {
            return Err("fabric plan generated no work".into());
        }
        shapes.push(Shape {
            topo,
            algo,
            loads: loads.loads().to_vec(),
        });
    }
    Ok(Fabric {
        shapes,
        shards: plan_shards,
    })
}

fn conserves(report: &RunReport, total: u64) -> bool {
    report.metrics.total_processed() == total
        && report.metrics.processed_per_node.iter().sum::<u64>() == total
}

impl Workload for Fabric {
    fn describe(&self) -> Vec<(&'static str, String)> {
        let mut out = vec![("shards", self.shards.to_string())];
        for s in &self.shapes {
            let label = if s.algo == FabricAlgo::Diffuse {
                "torus"
            } else {
                "clique"
            };
            out.push((
                label,
                format!(
                    "{} ({} jobs, {})",
                    s.topo,
                    s.loads.iter().sum::<u64>(),
                    s.algo.name()
                ),
            ));
        }
        out
    }

    fn pass(&mut self, t: &Tracer) -> Pass {
        let mut p = Pass::default();
        let op = next_op();
        let started = Instant::now();
        let result = t.span("bench.op", op, || -> Result<(), String> {
            for s in &self.shapes {
                let total: u64 = s.loads.iter().sum();
                let cfg = EngineConfig::default();
                let run = t
                    .span("fabric.run", op, || {
                        run_fabric(&s.topo, &s.loads, s.algo, cfg.clone(), None)
                    })
                    .map_err(|e| format!("{} run: {e}", s.topo))?;
                let par = t
                    .span("fabric.par", op, || {
                        run_fabric(&s.topo, &s.loads, s.algo, cfg, Some(self.shards))
                    })
                    .map_err(|e| format!("{} par: {e}", s.topo))?;
                for r in [&run, &par] {
                    let node_steps = (s.topo.len() as u64 * r.metrics.steps) as f64;
                    p.add("fabric.node_steps", node_steps);
                    p.add("fabric.messages", r.metrics.messages_sent as f64);
                    p.node_steps += node_steps as u64;
                    p.jobs += total;
                }
                if par != run {
                    return Err(format!("{}: par report differs from run", s.topo));
                }
                if !conserves(&run, total) {
                    return Err(format!(
                        "{}: processed work differs from the {total} generated",
                        s.topo
                    ));
                }
            }
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
