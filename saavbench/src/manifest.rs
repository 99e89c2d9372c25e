//! The benchmark's contract: the command, workloads and metrics that
//! `BENCHMARK.json` lists. `--print-manifest` renders it, and a test
//! keeps the committed file equal to the rendering.

use crate::workload::Workload;

/// Seconds one timed run measures.
pub const RUN_SECONDS: u64 = 30;

/// How the benchmark is invoked, from the root of a checkout.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "saavbench/Cargo.toml",
    "--",
];

/// End-to-end metrics, reported per workload with tracing off:
/// `(name, unit, bound)`. Lower is better for all three. `op_us` gets the
/// widest bound allowed: on a shared 2-vCPU host, CPU steal and the
/// host's drifting speed move it by 10 % and more between runs, most on
/// `city` (tick barriers). The heap metric sums each thread's own rise, so it
/// does not depend on how workers' jobs overlap and repeats to within
/// 1 %.
pub const END_TO_END: [(&str, &str, f64); 3] = [
    ("op_us", "us", 0.25),
    ("setup_s", "s", 0.25),
    ("peak_heap_mb", "MiB", 0.05),
];

/// Per-layer metrics of the traced run: `(name, unit, better)`.
pub const PER_LAYER: [(&str, &str, &str); 47] = [
    ("fleet.batch_ms.cold", "ms", "lower"),
    ("fleet.batch_ms.width1.cold", "ms", "lower"),
    ("executor.speedup.cold", "x", "higher"),
    ("executor.steals.cold", "count/batch", "lower"),
    ("fleet.batch_ms.overload", "ms", "lower"),
    ("fleet.batch_ms.width1.overload", "ms", "lower"),
    ("executor.speedup.overload", "x", "higher"),
    ("executor.steals.overload", "count/batch", "lower"),
    ("fleet.batch_ms.warm", "ms", "lower"),
    ("fleet.batch_ms.width1.warm", "ms", "lower"),
    ("executor.speedup.warm", "x", "higher"),
    ("executor.steals.warm", "count/batch", "lower"),
    ("cache.key_ns", "ns", "lower"),
    ("cache.hit_ns", "ns", "lower"),
    ("cache.miss_insert_ns", "ns", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("runner.assemble_us", "us", "lower"),
    ("runner.tick_ns", "ns", "lower"),
    ("runner.tick_1hz_ns", "ns", "lower"),
    ("runner.finish_us", "us", "lower"),
    ("runner.ns_per_vehicle_tick", "ns", "lower"),
    ("runner.tick_ns.first_min", "ns", "lower"),
    ("runner.tick_ns.last_min", "ns", "lower"),
    ("rte.deadline_misses", "count", "lower"),
    ("monitor.anomalies", "count", "lower"),
    ("coordinator.escalations", "count", "lower"),
    ("coordinator.resolved_ratio", "ratio", "higher"),
    ("tracer.entries", "count", "lower"),
    ("mcc.switches", "count", "lower"),
    ("mcc.rejected", "count", "lower"),
    ("mcc.rolled_back", "count", "lower"),
    ("cosim.ns_per_member_tick", "ns", "lower"),
    ("v2v.sent", "count", "lower"),
    ("v2v.dropped", "count", "lower"),
    ("city.assemble_ms", "ms", "lower"),
    ("city.tick_us", "us", "lower"),
    ("city.tick_1hz_us", "us", "lower"),
    ("city.op_us.width1", "us", "lower"),
    ("surrogate.ns_per_vehicle_tick", "ns", "lower"),
    ("city.surrogate_vehicle_ticks", "count", "lower"),
    ("city.full_vehicle_ticks", "count", "lower"),
    ("city.promotions", "count", "lower"),
    ("city.max_full_tier", "count", "lower"),
    ("pool.tick_barriers", "count", "lower"),
    ("telemetry.mounted_overhead", "ratio", "lower"),
    ("telemetry.mounted_overhead.city", "ratio", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
];

/// The unit of metric `name`, from either list.
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|&(n, u, _)| (n, u))
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find(|&(n, _)| n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name} is not in the manifest"))
}

/// `BENCHMARK.json`, as committed at the root of the repository.
pub fn json() -> String {
    let quoted = |s: &str| format!("\"{s}\"");
    let command: Vec<String> = COMMAND.iter().map(|s| quoted(s)).collect();
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|(n, u, b)| {
            format!("    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"lower\", \"bound\": {b}}}")
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(n, u, b)| {
            format!("    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\"}}")
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"saavbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        command.join(", "),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}
