//! The benchmark's specification: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics with the end-to-end metric each
//! is predicted to move. `BENCHMARK.json` at the repository root is
//! rendered from these tables (`--write-spec`), and a test keeps the
//! checked-in file equal to the rendering.

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u64 = 20;

/// Shards given to every parallel executor the benchmark calls directly.
pub const SHARDS: usize = 2;

/// Load-generator client threads of the service workload.
pub const CLIENT_THREADS: usize = 2;

/// The seed at which table1 runs the unmodified catalog and checks every
/// row against `tests/golden_makespans.txt`.
pub const DEFAULT_SEED: u64 = 1994;

/// One workload.
pub struct WorkloadSpec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload exists (one sentence).
    pub why: &'static str,
    /// What one timed op is.
    pub op: &'static str,
    /// Layers that carry the pass.
    pub stresses: &'static str,
    /// Layers the pass does not reach.
    pub bypasses: &'static str,
}

/// One end-to-end metric (measured with tracing off).
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// One per-layer metric (measured in the traced run).
pub struct PerLayer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// The end-to-end metric and workload this layer metric should move.
    pub moves: &'static str,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "table1",
        why: "The paper's experiment: dense rings where the bucket kernel, engine step, trace codec, oracle and exact solver carry the pass.",
        op: "one (case, algorithm) row: run_unit, plus trace encode/decode and oracle replay on Part II/III rows",
        stresses: "ring-workloads, ring-scenario, ring-sched + ring-sim engine (run), tracefile, oracle, ring-opt",
        bypasses: "parallel executors, checkpoint, fabric, ring-service",
    },
    WorkloadSpec {
        name: "sparse",
        why: "A 2^17-node ring with one 2^15-job pile is over 99.9% idle, so per-node bookkeeping, the parallel executor and the checkpoint codec carry the pass.",
        op: "one pass: run_unit, run_unit_par(2) and a mid-run checkpoint round trip, checked against each other",
        stresses: "ring-sched + ring-sim engine (run, par, run_span), checkpoint",
        bypasses: "tracefile, oracle, ring-opt, fabric, ring-service",
    },
    WorkloadSpec {
        name: "fabric",
        why: "The only workload where the topology-generic Fabric engine and ring-topology carry the pass: torus diffusion and the clique scheduler.",
        op: "one pass: torus:512x512 diffusion and clique:16384 batch scheduling, each under run and par(2), checked against each other",
        stresses: "ring-sim fabric, ring-topology, ring_sched::fabric, ring-workloads",
        bypasses: "ring engine, tracefile, oracle, checkpoint, ring-opt, ring-service",
    },
    WorkloadSpec {
        name: "service",
        why: "The online service runs the engine as many short run_span generations and is the only workload with admission, locks and wake-ups.",
        op: "one closed-loop batch, from Handle::submit until Handle::wait returns",
        stresses: "ring-service (admission, epoch loop, completion), ring-sim run_span/par_run_span",
        bypasses: "tracefile, oracle, checkpoint, ring-opt, fabric",
    },
];

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p95_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "node_steps_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "jobs_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
];

pub const PER_LAYER: &[PerLayer] = &[
    PerLayer {
        name: "workloads.gen_s",
        unit: "s",
        better: "lower",
        moves: "setup_s on all",
    },
    PerLayer {
        name: "scenario.parse_s",
        unit: "s",
        better: "lower",
        moves: "setup_s on all",
    },
    PerLayer {
        name: "engine.run_s",
        unit: "s",
        better: "lower",
        moves: "wall_s, node_steps_per_s on sparse and table1",
    },
    PerLayer {
        name: "engine.par_s",
        unit: "s",
        better: "lower",
        moves: "wall_s, node_steps_per_s on sparse",
    },
    PerLayer {
        name: "engine.steps",
        unit: "count",
        better: "lower",
        moves: "none (denominator)",
    },
    PerLayer {
        name: "engine.node_steps",
        unit: "count",
        better: "lower",
        moves: "none (denominator)",
    },
    PerLayer {
        name: "engine.active_node_steps",
        unit: "count",
        better: "lower",
        moves: "none (denominator)",
    },
    PerLayer {
        name: "engine.messages",
        unit: "count",
        better: "lower",
        moves: "none (denominator)",
    },
    PerLayer {
        name: "engine.job_hops",
        unit: "count",
        better: "lower",
        moves: "none (denominator)",
    },
    PerLayer {
        name: "engine.ns_per_node_step",
        unit: "ns",
        better: "lower",
        moves: "node_steps_per_s on sparse (idle cost)",
    },
    PerLayer {
        name: "engine.ns_per_active_node_step",
        unit: "ns",
        better: "lower",
        moves: "node_steps_per_s on table1 (dense cost)",
    },
    PerLayer {
        name: "engine.par_over_run",
        unit: "ratio",
        better: "higher",
        moves: "wall_s on sparse",
    },
    PerLayer {
        name: "trace.encode_s",
        unit: "s",
        better: "lower",
        moves: "wall_s, op_p95_ms on table1",
    },
    PerLayer {
        name: "trace.decode_s",
        unit: "s",
        better: "lower",
        moves: "wall_s, op_p95_ms on table1",
    },
    PerLayer {
        name: "trace.bytes",
        unit: "bytes",
        better: "lower",
        moves: "wall_s, op_p95_ms on table1",
    },
    PerLayer {
        name: "oracle.check_s",
        unit: "s",
        better: "lower",
        moves: "wall_s, op_p95_ms on table1",
    },
    PerLayer {
        name: "oracle.violations",
        unit: "count",
        better: "lower",
        moves: "failed count on table1",
    },
    PerLayer {
        name: "opt.exact_s",
        unit: "s",
        better: "lower",
        moves: "wall_s on table1",
    },
    PerLayer {
        name: "opt.solves",
        unit: "count",
        better: "lower",
        moves: "wall_s on table1",
    },
    PerLayer {
        name: "opt.exact_cases",
        unit: "count",
        better: "higher",
        moves: "makespan_over_opt on table1 (guard)",
    },
    PerLayer {
        name: "checkpoint.encode_s",
        unit: "s",
        better: "lower",
        moves: "wall_s, peak_rss_mb on sparse",
    },
    PerLayer {
        name: "checkpoint.decode_s",
        unit: "s",
        better: "lower",
        moves: "wall_s, peak_rss_mb on sparse",
    },
    PerLayer {
        name: "checkpoint.restore_s",
        unit: "s",
        better: "lower",
        moves: "wall_s, peak_rss_mb on sparse",
    },
    PerLayer {
        name: "checkpoint.bytes",
        unit: "bytes",
        better: "lower",
        moves: "wall_s, peak_rss_mb on sparse",
    },
    PerLayer {
        name: "fabric.run_s",
        unit: "s",
        better: "lower",
        moves: "wall_s, node_steps_per_s on fabric",
    },
    PerLayer {
        name: "fabric.par_s",
        unit: "s",
        better: "lower",
        moves: "wall_s, node_steps_per_s on fabric",
    },
    PerLayer {
        name: "fabric.par_over_run",
        unit: "ratio",
        better: "higher",
        moves: "wall_s on fabric",
    },
    PerLayer {
        name: "fabric.node_steps",
        unit: "count",
        better: "lower",
        moves: "none (denominator)",
    },
    PerLayer {
        name: "fabric.messages",
        unit: "count",
        better: "lower",
        moves: "wall_s on fabric",
    },
    PerLayer {
        name: "service.submit_ms_p50",
        unit: "ms",
        better: "lower",
        moves: "op_p50_ms on service",
    },
    PerLayer {
        name: "service.wait_ms_p50",
        unit: "ms",
        better: "lower",
        moves: "op_p50_ms on service",
    },
    PerLayer {
        name: "service.generations",
        unit: "count",
        better: "lower",
        moves: "jobs_per_s on service",
    },
    PerLayer {
        name: "service.engine_rounds",
        unit: "count",
        better: "lower",
        moves: "jobs_per_s on service",
    },
    PerLayer {
        name: "service.rounds_per_generation",
        unit: "ratio",
        better: "lower",
        moves: "jobs_per_s on service",
    },
    PerLayer {
        name: "service.peak_outstanding",
        unit: "count",
        better: "lower",
        moves: "failed count, sojourn_p99_steps on service",
    },
    PerLayer {
        name: "service.shed_jobs",
        unit: "count",
        better: "lower",
        moves: "failed count on service",
    },
    PerLayer {
        name: "service.idle_epochs",
        unit: "count",
        better: "lower",
        moves: "failed count, sojourn_p99_steps on service",
    },
    PerLayer {
        name: "bench.trace_overhead_s",
        unit: "s",
        better: "lower",
        moves: "none (traced minus untraced wall_s)",
    },
];

/// Looks up a workload by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders `BENCHMARK.json`: exactly the keys the benchmark contract allows.
/// Each op definition and layer prediction stays in this file.
pub fn render_benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n");
    s.push_str("  \"paths\": [\"perfbench\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better),
                m.bound
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_in_benchmark_json_matches_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, render_benchmark_json(), "rerun with --write-spec");
    }

    #[test]
    fn spec_respects_the_contract_limits() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "names must be unique");
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(
                m.bound <= setup.bound,
                "setup_s must carry the largest bound"
            );
        }
    }
}
