//! Sequential vs parallel engine: `Engine::run` against
//! `Engine::par_run` on the same instances, up to m = 4096.
//!
//! The two executors produce bit-identical reports (asserted once per
//! group before timing), so this measures pure execution cost: arena
//! stepping on one thread versus arc sharding with two barriers per
//! round. Small rings should favor `run` (barriers dominate); the
//! crossover is the number worth watching as `m` grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ring_sched::unit::{run_unit, run_unit_par, UnitConfig};
use ring_sim::stream::{stream_engine, Representation, StreamSpec};
use ring_sim::{EngineConfig, Instance};
use std::hint::black_box;

/// A concentrated load: one source, 16·m unit jobs — the workload shape
/// with the longest wavefronts (bucket travels Θ(√n) hops).
fn instance(m: usize) -> Instance {
    Instance::concentrated(m, 0, (m as u64) * 16)
}

fn run_vs_par_run(c: &mut Criterion) {
    let shard_counts = [2usize, 4, 8];
    for &m in &[256usize, 1024, 4096] {
        let inst = instance(m);
        let cfg = UnitConfig::c1();
        // Equivalence guard: never benchmark two executors that disagree.
        let seq = run_unit(&inst, &cfg).unwrap();
        for &s in &shard_counts {
            let par = run_unit_par(&inst, &cfg, s).unwrap();
            assert_eq!(seq.report, par.report, "m={m} shards={s} diverged");
        }

        let mut group = c.benchmark_group(format!("engine/m={m}"));
        group.throughput(Throughput::Elements(m as u64));
        group.bench_function("run", |b| {
            b.iter(|| run_unit(black_box(&inst), &cfg).unwrap().makespan)
        });
        for &s in &shard_counts {
            group.bench_with_input(BenchmarkId::new("par_run", s), &s, |b, &s| {
                b.iter(|| run_unit_par(black_box(&inst), &cfg, s).unwrap().makespan)
            });
        }
        group.finish();
    }
}

fn coalesced_representation(c: &mut Criterion) {
    // The count-coalesced message axis: the same stream workload with one
    // arena entry per unit job versus one run per link per step, plus the
    // drain shape with quiescent-span step compression on and off. The
    // `ringsched bench` subcommand tracks the same ratios as a JSON
    // trajectory baseline (BENCH_engine.json).
    for &m in &[256usize, 1024] {
        let spread = StreamSpec::spread(m, 48 * m as u64);
        let drain = StreamSpec::drain(m, 16 * m as u64);
        let cfg = |compress| EngineConfig {
            compress,
            ..EngineConfig::default()
        };
        // Equivalence guard, as above: never benchmark variants that
        // disagree.
        let base = stream_engine(&spread, Representation::PerUnit, cfg(false))
            .run()
            .unwrap();
        let coal = stream_engine(&spread, Representation::Coalesced, cfg(false))
            .run()
            .unwrap();
        assert_eq!(base, coal, "m={m} representations diverged");

        let mut group = c.benchmark_group(format!("engine/stream/m={m}"));
        group.throughput(Throughput::Elements(spread.total_work()));
        for (name, repr) in [
            ("per_unit", Representation::PerUnit),
            ("coalesced", Representation::Coalesced),
        ] {
            group.bench_function(name, |b| {
                b.iter(|| {
                    stream_engine(black_box(&spread), repr, cfg(false))
                        .run()
                        .unwrap()
                        .makespan
                })
            });
        }
        for (name, compress) in [("drain", false), ("drain_compressed", true)] {
            group.bench_function(name, |b| {
                b.iter(|| {
                    stream_engine(black_box(&drain), Representation::Coalesced, cfg(compress))
                        .run()
                        .unwrap()
                        .makespan
                })
            });
        }
        group.finish();
    }
}

fn observe_overhead(c: &mut Criterion) {
    // The observability series are opt-in; this pins down what turning
    // them on costs relative to a bare run.
    let inst = instance(1024);
    let mut group = c.benchmark_group("engine/observe");
    group.bench_function("off", |b| {
        b.iter(|| {
            run_unit(black_box(&inst), &UnitConfig::c1())
                .unwrap()
                .makespan
        })
    });
    group.bench_function("on", |b| {
        b.iter(|| {
            run_unit(black_box(&inst), &UnitConfig::c1().with_observe())
                .unwrap()
                .makespan
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = run_vs_par_run, coalesced_representation, observe_overhead
}
criterion_main!(benches);
