//! The sequential engine's sparse frontier on mostly idle rings.
//!
//! `Engine::run` visits only the nodes that can act in a round: those that
//! stepped last round, those a neighbour just sent to, and sleepers whose
//! quiescence promise expires. `ring_net::run_threaded` steps every node
//! every round (the dense reference), and `Engine::par_run` skips quiet
//! nodes per task. On concentrated piles and on sparse arrival scripts —
//! whose nodes sleep on finite promises until their next release — all of
//! them must agree, and pausing or checkpointing while most nodes sleep
//! must not change the report.

use proptest::prelude::*;
use ring_net::run_unit_threaded;
use ring_sched::dynamic::{
    build_dynamic_nodes, run_dynamic, run_dynamic_par, Arrival, DynamicInstance,
};
use ring_sched::unit::{run_unit, run_unit_par, UnitConfig};
use ring_sim::{Engine, EngineConfig, Instance, RunReport, Snapshot, SpanOutcome};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// One large and one small pile on a 1024–8192 node ring, so nearly
    /// every node-step is idle: the frontier engine, the thread-per-node
    /// dense reference and the parallel engine agree.
    #[test]
    fn sparse_piles_agree_across_all_three_executors(
        m in 1024usize..8193,
        at in 0usize..8192,
        pile in 1u64..400,
        second in 0u64..100,
        alg in 0usize..6,
        shards in 2usize..5,
    ) {
        let mut loads = vec![0u64; m];
        loads[at % m] += pile;
        loads[(at + m / 3) % m] += second;
        let inst = Instance::from_loads(loads);
        let (name, cfg) = UnitConfig::all_six()[alg];
        let cfg = cfg.with_trace();

        let seq = run_unit(&inst, &cfg).unwrap();
        let thr = run_unit_threaded(&inst, &cfg).unwrap();
        prop_assert_eq!(seq.makespan, thr.makespan, "{} on m={}", name, m);
        prop_assert_eq!(&seq.report.metrics.processed_per_node, &thr.processed_per_node);
        prop_assert_eq!(seq.report.metrics.messages_sent, thr.messages_sent);
        let par = run_unit_par(&inst, &cfg, shards).unwrap();
        prop_assert_eq!(&seq.report, &par.report, "{} with {} shards", name, shards);
    }
}

/// Runs `inst` sequentially in spans that pause after each of `cuts`
/// rounds (cycling), with every arrival known to its node up front, so
/// nodes sleep on finite promises across the pauses. Every other pause
/// round-trips the engine through snapshot bytes onto fresh nodes.
fn run_in_spans(inst: &DynamicInstance, cfg: &UnitConfig, cuts: &[u64]) -> RunReport {
    let m = inst.num_processors();
    let config = EngineConfig {
        max_steps: Some(u64::MAX),
        trace: cfg.trace,
        compress: cfg.compress,
        ..EngineConfig::default()
    };
    let mut nodes = build_dynamic_nodes(m, cfg);
    for &a in inst.arrivals() {
        nodes[a.processor].inject(a);
    }
    let mut engine = Engine::new(nodes, inst.total_work(), config.clone());
    let mut pause_at = 0;
    for (k, cut) in cuts.iter().cycle().enumerate() {
        pause_at += cut;
        match engine.run_span(pause_at).unwrap() {
            SpanOutcome::Done(report) => return *report,
            SpanOutcome::Paused { .. } if k % 2 == 1 => {
                let bytes = engine.snapshot().unwrap().to_bytes();
                let snap = Snapshot::from_bytes(&bytes).unwrap();
                engine =
                    Engine::resume(build_dynamic_nodes(m, cfg), config.clone(), &snap).unwrap();
            }
            SpanOutcome::Paused { .. } => {}
        }
    }
    unreachable!("cycling pauses always reach completion")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A few releases scattered over a 64–512 node ring and 400 rounds:
    /// nodes holding a future release promise to stay quiet only until it,
    /// so they wake on the frontier's expiry heap. The run matches the
    /// parallel engine, and spans paused (and checkpointed) at random
    /// boundaries finish with the same report, with and without step
    /// compression.
    #[test]
    fn arrival_scripts_wake_on_time_and_survive_pauses(
        m in 64usize..513,
        raw in prop::collection::vec((0usize..512, 0u64..400, 1u64..60), 1..6),
        alg in 0usize..6,
        compress in 0u8..2,
        cuts in prop::collection::vec(1u64..40, 1..6),
        shards in 2usize..4,
    ) {
        let arrivals = raw
            .iter()
            .map(|&(p, time, count)| Arrival { time, processor: p % m, count })
            .collect();
        let inst = DynamicInstance::new(m, arrivals);
        let (name, cfg) = UnitConfig::all_six()[alg];
        let mut cfg = cfg.with_trace();
        if compress == 1 {
            cfg = cfg.with_compress();
        }

        let whole = run_dynamic(&inst, &cfg).unwrap().report;
        let par = run_dynamic_par(&inst, &cfg, shards).unwrap().report;
        prop_assert_eq!(&whole, &par, "{} with {} shards", name, shards);
        let spans = run_in_spans(&inst, &cfg, &cuts);
        prop_assert_eq!(&whole, &spans, "{} paused every {:?}", name, &cuts);
    }
}
