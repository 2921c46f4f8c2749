//! `service`: the online service on a 4096-node ring under its default
//! `Auto` executor, driven by two client threads — one open-loop
//! (`try_submit` on a seeded virtual-time schedule) and one closed-loop
//! (`submit` → `wait` → think).

use crate::trace::Tracer;
use crate::{derive_seed, next_op, Pass, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ring_scenario::Workload as PlanWorkload;
use ring_sched::dynamic::Arrival;
use ring_service::{Admission, ExecutorMode, Outcome, Resolution, Service, ServiceConfig, Ticket};
use std::collections::HashMap;
use std::time::Instant;

/// Batches each client submits per pass.
const BATCHES: usize = 2000;
/// Jobs per batch are drawn from `1..=MAX_BATCH`.
const MAX_BATCH: u64 = 32;
/// Open-loop gaps are drawn from `1..=2·SPACING`, closed-loop think times
/// from `1..=SPACING` (virtual steps).
const SPACING: u64 = 8;

pub struct ServiceLoad {
    cfg: ServiceConfig,
    /// The open-loop client's schedule, as parsed from the plan.
    open: Vec<Arrival>,
    /// The closed-loop client's (processor, count, think) stream.
    closed: Vec<(usize, u64, u64)>,
    /// Completion-log digest of the first pass.
    digest: Option<u64>,
}

fn plan_text(m: usize, epoch: u64, open: &[Arrival]) -> String {
    format!(
        "[scenario]\nname = bench-service\nmode = serve\n\n[topology]\nm = {m}\n\n[workload]\narrivals = {}\n\n\
         [algorithm]\nname = c1\n\n[service]\nepoch = {epoch}\nqueue-cap = {}\nslo = {}\n",
        ring_sched::dynamic::render_arrivals(open),
        1u64 << 20,
        1u64 << 16,
    )
}

pub fn setup(seed: u64, t: &Tracer) -> Result<ServiceLoad, String> {
    let w = build(4096, BATCHES, seed, t)?;
    let mut warm = build(4096, 300, seed, &Tracer::new(false))?;
    if let Some(f) = warm.pass(&Tracer::new(false)).failures.first() {
        return Err(format!("warm-up failed: {f}"));
    }
    Ok(w)
}

fn build(m: usize, batches: usize, seed: u64, t: &Tracer) -> Result<ServiceLoad, String> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 3));
    let mut time = 0;
    let open: Vec<Arrival> = (0..batches)
        .map(|_| {
            time += rng.gen_range(1..=2 * SPACING);
            Arrival {
                time,
                processor: rng.gen_range(0..m),
                count: rng.gen_range(1..=MAX_BATCH),
            }
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 4));
    let closed = (0..batches)
        .map(|_| {
            (
                rng.gen_range(0..m),
                rng.gen_range(1..=MAX_BATCH),
                rng.gen_range(1..=SPACING),
            )
        })
        .collect();
    let text = plan_text(m, 32, &open);
    let plan = t
        .span("scenario.parse", 0, || ring_scenario::parse_plan(&text))
        .map_err(|e| e.to_string())?;
    let (PlanWorkload::Arrivals(open), Some(m), Some(svc)) = (plan.workload, plan.m, plan.service)
    else {
        return Err("service plan must state m, arrivals and [service]".into());
    };
    let mut cfg = ServiceConfig::new(m).with_executor(ExecutorMode::Auto);
    if let Some(epoch) = svc.epoch {
        cfg = cfg.with_epoch(epoch);
    }
    if let Some(cap) = svc.queue_cap {
        cfg = cfg.with_queue_cap(cap);
    }
    if let Some(slo) = svc.slo {
        cfg = cfg.with_slo_horizon(slo);
    }
    Ok(ServiceLoad {
        cfg,
        open,
        closed,
        digest: None,
    })
}

impl Workload for ServiceLoad {
    fn describe(&self) -> Vec<(&'static str, String)> {
        let exec = match self.cfg.executor.shards_for(self.cfg.m) {
            Some(s) => format!("par({s})"),
            None => "run".to_string(),
        };
        vec![
            ("ring", self.cfg.m.to_string()),
            ("executor", format!("auto -> {exec}")),
            (
                "clients",
                format!(
                    "{} (1 open-loop, 1 closed-loop)",
                    crate::spec::CLIENT_THREADS
                ),
            ),
            ("batches_per_client", self.open.len().to_string()),
        ]
    }

    fn pass(&mut self, t: &Tracer) -> Pass {
        let mut p = Pass::default();
        let (service, handles) = t.span("service.start", 0, || {
            Service::start(self.cfg.clone(), crate::spec::CLIENT_THREADS)
        });
        let mut resolved: Vec<(Ticket, Resolution)> = Vec::new();
        let mut op_ms = Vec::with_capacity(self.closed.len());
        std::thread::scope(|scope| {
            let (open_h, closed_h) = (&handles[0], &handles[1]);
            let open = &self.open;
            let opened = scope.spawn(move || {
                t.span("service.open_client", 0, || {
                    let mut tickets = Vec::with_capacity(open.len());
                    for a in open {
                        open_h.advance_to(a.time);
                        tickets.push(t.span("service.try_submit", 0, || {
                            open_h.try_submit(a.processor, a.count)
                        }));
                    }
                    let out: Vec<_> = tickets
                        .into_iter()
                        .map(|tk| (tk, t.span("service.wait", 0, || open_h.wait(tk))))
                        .collect();
                    open_h.close();
                    out
                })
            });
            for &(processor, count, think) in &self.closed {
                let op = next_op();
                let started = Instant::now();
                let (ticket, resolution) = t.span("bench.op", op, || {
                    let (ticket, admission) =
                        t.span("service.submit", op, || closed_h.submit(processor, count));
                    let resolution = match admission {
                        Admission::Admitted { .. } => {
                            t.span("service.wait", op, || closed_h.wait(ticket))
                        }
                        Admission::Shed { at, reason } => Resolution::Shed { at, reason },
                    };
                    (ticket, resolution)
                });
                op_ms.push(started.elapsed().as_secs_f64() * 1e3);
                resolved.push((ticket, resolution));
                closed_h.advance_to(closed_h.now() + think);
            }
            closed_h.close();
            resolved.extend(opened.join().expect("open-loop client panicked"));
        });
        t.span("service.await_idle", 0, || service.await_idle());
        let report = t.span("service.report", 0, || service.report());
        let log = service.completion_log();
        drop(handles);
        drop(service);

        p.op_ms = op_ms;
        p.attempted = resolved.len() as u64;
        let mut logged: HashMap<Ticket, u32> = HashMap::new();
        for e in &log {
            *logged.entry(e.ticket).or_default() += 1;
            if e.outcome != Outcome::Completed {
                p.failures
                    .push(format!("ticket {:?}: {:?}", e.ticket, e.outcome));
            }
        }
        for (ticket, r) in &resolved {
            match (logged.get(ticket), r) {
                (Some(1), Resolution::Completed { .. }) => {}
                (Some(1), Resolution::Shed { .. }) => {} // counted from the log above
                (n, r) => p.failures.push(format!(
                    "ticket {ticket:?}: logged {n:?} times, resolved {r:?}"
                )),
            }
        }
        if log.len() != resolved.len() {
            p.failures.push(format!(
                "{} log entries for {} tickets",
                log.len(),
                resolved.len()
            ));
        }
        let digest = ring_service::log_digest(&log);
        if *self.digest.get_or_insert(digest) != digest {
            p.failures.push(format!(
                "completion-log digest {digest:x} differs from the first pass"
            ));
        }
        p.jobs = report.completed_jobs;
        p.node_steps = report.engine_rounds * report.m as u64;
        p.add("service.generations", report.generations as f64);
        p.add("service.engine_rounds", report.engine_rounds as f64);
        p.add("service.peak_outstanding", report.peak_outstanding as f64);
        p.add("service.shed_jobs", report.shed_jobs() as f64);
        // Epochs in which the ring ran no engine round (unrecorded epochs
        // are ones where nothing happened at all).
        let busy = report
            .samples
            .iter()
            .filter(|s| s.engine_rounds > 0)
            .count() as u64;
        p.add(
            "service.idle_epochs",
            (report.now / report.epoch).saturating_sub(busy) as f64,
        );
        p.quality
            .push(("sojourn_p99_steps", report.latency.p99 as f64, "steps"));
        p
    }
}
