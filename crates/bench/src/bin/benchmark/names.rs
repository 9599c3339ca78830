//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` carries the
//! same lists (a unit test holds the two equal); README.md says which
//! end-to-end metric each per-layer metric is expected to move.

/// Which direction of change is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[cfg(test)]
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// Workload names, in report (and round-robin) order.
pub const WORKLOADS: [&str; 6] = [
    "cmp8",
    "core4",
    "pcl_pipe",
    "lss_front",
    "cmp8_observed",
    "sweep_durable",
];

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics with the share of the base value by which each may
/// worsen before `compare` calls it a regression.
pub const END_TO_END: [(Metric, f64); 3] = [
    (m("steps_per_s", "1/s", Higher), 0.25),
    (m("peak_rss_mb", "MiB", Lower), 0.05),
    (m("setup_s", "s", Lower), 0.25),
];

/// Per-layer metrics; the prefix of each name is the module it measures.
/// Where a workload never enters a layer the metric reads 0.
pub const PER_LAYER: [Metric; 57] = [
    m("lss.parse_s", "s", Lower),
    m("lss.parse_mb_per_s", "MB/s", Higher),
    m("lss.elab_s", "s", Lower),
    m("lss.elab_inst_per_s", "1/s", Higher),
    m("core.topology.build_s", "s", Lower),
    m("systems.cmp.build_s", "s", Lower),
    m("core.compile.plan_s", "s", Lower),
    m("core.compile.islands", "count", Lower),
    m("core.compile.max_island", "count", Lower),
    m("core.compile.straight", "count", Higher),
    m("core.compile.levels", "count", Lower),
    m("core.kernel.spec_instances", "count", Higher),
    m("core.kernel.dynamic_instances", "count", Lower),
    m("core.kernel.fast_edges", "count", Higher),
    m("core.kernel.total_edges", "count", Lower),
    m("core.exec.construct_s", "s", Lower),
    m("core.exec.first_step_s", "s", Lower),
    m("core.exec.reacts_per_step", "count", Lower),
    m("core.exec.commits_per_step", "count", Lower),
    m("core.exec.defaults_per_step", "count", Lower),
    m("core.exec.ns_per_react", "ns", Lower),
    m("core.exec.ns_per_step", "ns", Lower),
    m("core.exec.window_ms_p50", "ms", Lower),
    m("core.exec.window_ms_hi", "ms", Lower),
    m("core.exec.window_samples", "count", Higher),
    m("core.exec.allocs_per_step", "count", Lower),
    m("core.exec.alloc_bytes_per_step", "B", Lower),
    m("core.probe.counting_ratio", "ratio", Lower),
    m("core.trace.jsonl_ratio", "ratio", Lower),
    m("core.vcd.ratio", "ratio", Lower),
    m("core.profile.ratio", "ratio", Lower),
    m("core.probe.events_per_step", "count", Lower),
    m("core.trace.jsonl_bytes_per_step", "B", Lower),
    m("core.snapshot.capture_us", "us", Lower),
    m("core.snapshot.encode_us", "us", Lower),
    m("core.snapshot.decode_us", "us", Lower),
    m("core.snapshot.restore_us", "us", Lower),
    m("core.snapshot.write_file_us", "us", Lower),
    m("core.snapshot.bytes", "B", Lower),
    m("core.supervisor.governed_ratio", "ratio", Lower),
    m("ensemble.single_ratio", "ratio", Lower),
    m("ensemble.replica_build_s", "s", Lower),
    m("ensemble.manifest_append_us", "us", Lower),
    m("ensemble.manifest_bytes", "B", Lower),
    m("ensemble.stream_bytes", "B", Lower),
    m("ensemble.checkpoints_written", "count", Lower),
    m("ensemble.resume_noop_s", "s", Lower),
    m("upl.react_share", "ratio", Lower),
    m("mpl.react_share", "ratio", Lower),
    m("ccl.react_share", "ratio", Lower),
    m("pcl.react_share", "ratio", Lower),
    m("engine.react_share", "ratio", Lower),
    m("upl.minstr_per_s", "M/s", Higher),
    m("baseline.mono_core_ratio", "ratio", Lower),
    m("host.calib_floor_ms", "ms", Lower),
    m("host.fast_share", "ratio", Higher),
    m("trace.overhead_ratio", "ratio", Lower),
];

/// The unit a metric is reported in.
pub fn unit_of(metric: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|(m, _)| m)
        .chain(&PER_LAYER)
        .find(|m| m.name == metric)
        .map_or("", |m| m.unit)
}
