//! Every metric the benchmark prints: name, unit, direction and, for the
//! end-to-end ones, the regression bound. `BENCHMARK.json` is rendered from
//! these tables (`archperf manifest`) and a unit test keeps the two equal.

use crate::workloads;

/// One end-to-end metric of the contract.
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Whether a higher value is the better one.
    pub higher_is_better: bool,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

/// `(name, unit, higher is better)` of a per-layer metric; they have no
/// bound.
type Layer = (&'static str, &'static str, bool);

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    (name, unit, false)
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    (name, unit, true)
}

/// Seconds one run measures for, as the driver passes it.
pub const RUN_SECONDS: u64 = 12;

/// What a user of the system sees; every workload reports every one, from
/// the untraced run.
pub const END_TO_END: [Metric; 7] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("run_s", "s", false, 0.25),
    e2e("work_per_s", "1/s", true, 0.25),
    e2e("first_result_ms", "ms", false, 0.25),
    e2e("op_ms_p50", "ms", false, 0.25),
    e2e("slowest_op_ms", "ms", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.25),
];

/// The five engine configurations of the per-engine passes.
pub const ENGINES: [&str; 5] = [
    "single-step",
    "trace",
    "compiled",
    "partitioned-w1",
    "partitioned-w2",
];

/// The engine configurations the direct probes run under.
pub const PROBE_ENGINES: [&str; 4] = ["single-step", "trace", "compiled", "partitioned-w2"];

/// The direct `MtaMachine::run` probes.
pub const PROBES: [&str; 4] = ["chase", "alu", "hotspot", "sync"];

/// Per-layer metrics with fixed names; the `mta-sim` per-engine and probe
/// families are appended by [`per_layer`]. A layer is a crate. A traced run
/// reports 0 for a layer its workload does not call.
const LAYER_FIXED: [Layer; 67] = [
    lower("graph.list_random_ns_per_node", "ns"),
    lower("graph.gnm_ns_per_edge", "ns"),
    lower("graph.csr_ns_per_edge", "ns"),
    lower("graph.gen_share", "ratio"),
    lower("listrank.sim_mta_ns_per_instr", "ns"),
    lower("listrank.sim_smp_ns_per_access", "ns"),
    lower("listrank.native_ns_per_elem", "ns"),
    lower("concomp.sim_mta_ns_per_instr", "ns"),
    lower("concomp.sim_smp_ns_per_access", "ns"),
    lower("concomp.native_ns_per_edge", "ns"),
    lower("coloring.sim_mta_ns_per_instr", "ns"),
    lower("coloring.sim_smp_ns_per_access", "ns"),
    lower("coloring.native_ns_per_edge", "ns"),
    lower("coloring.rounds_mta", "count"),
    lower("coloring.rounds_smp", "count"),
    lower("bfs.sim_mta_ns_per_instr", "ns"),
    lower("bfs.sim_smp_ns_per_access", "ns"),
    lower("bfs.native_ns_per_edge", "ns"),
    lower("bfs.levels", "count"),
    lower("apps.euler_mta_ns_per_instr", "ns"),
    lower("apps.euler_smp_ns_per_access", "ns"),
    lower("apps.msf_native_ns_per_edge", "ns"),
    lower("apps.biconn_native_ns_per_edge", "ns"),
    lower("mta-sim.build_ns_per_instr", "ns"),
    lower("mta-sim.asm_ns_per_line", "ns"),
    lower("mta-sim.region_setup_us", "us"),
    lower("mta-sim.memory.load_ns", "ns"),
    lower("mta-sim.memory.store_ns", "ns"),
    lower("mta-sim.memory.fetch_add_ns", "ns"),
    lower("mta-sim.memory.sync_pair_ns", "ns"),
    higher("mta-sim.utilization", "ratio"),
    lower("mta-sim.sync_retries_per_instr", "ratio"),
    lower("mta-sim.windows_per_kcycle", "ratio"),
    lower("mta-sim.fault_slowdown", "ratio"),
    lower("core.fault_parse_us", "us"),
    lower("core.fault_touch_ns", "ns"),
    lower("smp-sim.seq_read_ns", "ns"),
    lower("smp-sim.rand_read_ns", "ns"),
    lower("smp-sim.rand_write_ns", "ns"),
    lower("smp-sim.phase_overhead_us", "us"),
    higher("smp-sim.l1_hit_rate", "ratio"),
    lower("smp-sim.mem_access_rate", "ratio"),
    higher("smp-sim.prefetch_coverage", "ratio"),
    lower("smp-sim.tlb_misses_per_kaccess", "ratio"),
    lower("smp-sim.bus_limited_phase_share", "ratio"),
    lower("smp-sim.ordered_over_random_sim", "ratio"),
    lower("smp-sim.ordered_over_random_host", "ratio"),
    lower("bench.spec_validate_ns", "ns"),
    lower("bench.cache_key_ns", "ns"),
    lower("bench.display_name_us", "us"),
    lower("bench.checkpoint_record_us", "us"),
    lower("bench.checkpoint_lookup_us", "us"),
    lower("bench.isolate_ns", "ns"),
    lower("archgraphd.json.parse_ns_per_byte", "ns"),
    lower("archgraphd.protocol.parse_request_us", "us"),
    lower("archgraphd.protocol.cell_line_ns", "ns"),
    lower("archgraphd.cache.lookup_us", "us"),
    lower("archgraphd.cache.record_us", "us"),
    lower("archgraphd.queue.submit_us", "us"),
    lower("archgraphd.queue.noop_cell_us", "us"),
    lower("archgraphd.server.connect_ping_ms", "ms"),
    lower("archgraphd.server.ping_rtt_us", "us"),
    lower("archgraphd.server.warm_submit_persistent_ms", "ms"),
    lower("archgraphd.warm_submit_ms_p90", "ms"),
    higher("archgraphd.warm_hit_ratio", "ratio"),
    higher("archgraphd.cold_worker_busy_share", "ratio"),
    lower("archperf.trace_overhead_share", "ratio"),
];

/// One per-layer metric: owned name, unit, direction.
pub struct LayerMetric {
    /// Name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// Whether a higher value is the better one.
    pub higher_is_better: bool,
}

/// Every per-layer metric, in print order.
pub fn per_layer() -> Vec<LayerMetric> {
    let mut out = Vec::new();
    let mut add = |name: String, unit, higher_is_better| {
        out.push(LayerMetric {
            name,
            unit,
            higher_is_better,
        })
    };
    for (name, unit, higher_is_better) in LAYER_FIXED {
        add(name.to_string(), unit, higher_is_better);
    }
    for engine in ENGINES {
        add(format!("mta-sim.{engine}.ns_per_instr"), "ns", false);
    }
    for probe in PROBES {
        for engine in PROBE_ENGINES {
            add(
                format!("mta-sim.probe.{probe}.{engine}.ns_per_instr"),
                "ns",
                false,
            );
        }
        add(
            format!("mta-sim.probe.{probe}.events_per_instr"),
            "ratio",
            false,
        );
        add(
            format!("mta-sim.probe.{probe}.batched_fraction"),
            "ratio",
            true,
        );
    }
    out
}

/// Whether a per-layer metric is an exact count: it repeats exactly for a
/// given seed on any host, and two runs of it compare with `==`.
pub fn is_exact(name: &str) -> bool {
    name.starts_with("coloring.rounds_")
        || name == "bfs.levels"
        || name.ends_with(".events_per_instr")
        || name.ends_with(".batched_fraction")
        || matches!(
            name,
            "mta-sim.utilization"
                | "mta-sim.sync_retries_per_instr"
                | "mta-sim.windows_per_kcycle"
                | "smp-sim.l1_hit_rate"
                | "smp-sim.mem_access_rate"
                | "smp-sim.prefetch_coverage"
                | "smp-sim.tlb_misses_per_kaccess"
                | "smp-sim.bus_limited_phase_share"
                | "smp-sim.ordered_over_random_sim"
                | "archgraphd.warm_hit_ratio"
        )
}

fn better(higher_is_better: bool) -> &'static str {
    if higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmarks/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmarks\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = workloads::ALL
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.higher_is_better),
                m.bound
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m.higher_is_better)
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

    fn valid_name(s: &str) -> bool {
        let first = s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_used_once() {
        let layer = per_layer();
        assert!(layer.len() <= 128, "{} per-layer metrics", layer.len());
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(layer.iter().map(|m| m.name.as_str()));
        names.extend(workloads::ALL.iter().map(|w| w.name));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(layer.iter().map(|m| m.unit))
        {
            let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(!unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = &END_TO_END[0];
        assert_eq!((setup.name, setup.unit), ("setup_s", "s"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_is_the_rendered_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate it with `archperf manifest`"
        );
        assert!(on_disk.len() <= 64 * 1024);
        archgraphd::json::Json::parse(&on_disk).expect("BENCHMARK.json parses");
    }
}
