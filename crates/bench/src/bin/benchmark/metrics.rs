//! From one workload's samples to its named metrics.

use crate::driver::{Rep, Samples};
use crate::names::{END_TO_END, PER_LAYER};
use crate::spans::{layer_self_s, Span};
use crate::stats::{fast_share, floor, floor_run_s, high_percentile, median};

/// Below this share of window samples near their floor, the floors rest
/// on a few stray samples and the set's times are not a result. Sets that
/// agreed to 1% had shares of 0.06-0.17, so the line sits under those; it
/// cannot tell a set that never saw the fast regime at all (see README).
pub const MIN_FAST_SHARE: f64 = 0.03;

fn ok(reps: &[Rep]) -> Vec<&Rep> {
    reps.iter().filter(|r| r.ok()).collect()
}

/// Window times, one row per repetition. Where the workload declared its
/// windows identical work, every window becomes a row of its own, so
/// that they share one floor; `run_floor_s` scales it back up.
fn windows(reps: &[&Rep]) -> Vec<Vec<u64>> {
    if reps.first().is_some_and(|r| r.uniform) {
        reps.iter()
            .flat_map(|r| r.window_ns())
            .map(|ns| vec![ns])
            .collect()
    } else {
        reps.iter().map(|r| r.window_ns()).collect()
    }
}

/// The floor run time: the sum over windows of each window's minimum
/// over repetitions.
fn run_floor_s(reps: &[&Rep]) -> f64 {
    let pooled = reps
        .first()
        .map_or(1, |r| if r.uniform { r.windows.len() } else { 1 });
    floor_run_s(&windows(reps)) * pooled as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Floor, over repetitions, of a span's self time in seconds.
fn layer_floor_s(reps: &[&Rep], span: &str) -> f64 {
    floor(
        &reps
            .iter()
            .map(|r| layer_self_s(&r.spans, span))
            .collect::<Vec<_>>(),
    )
}

/// Floor, over repetitions, of a span's whole duration in seconds.
fn span_floor_s(reps: &[&Rep], span: &str) -> f64 {
    let total = |spans: &[Span]| {
        spans
            .iter()
            .filter(|s| s.name == span)
            .map(|s| s.end - s.start)
            .sum::<u64>() as f64
            / 1e9
    };
    floor(&reps.iter().map(|r| total(&r.spans)).collect::<Vec<_>>())
}

/// Repetitions that ran and checked out, against those attempted.
pub fn tally(s: &Samples) -> (u64, u64) {
    let attempted = s.all().count() as u64;
    let failed = s.all().filter(|r| !r.ok()).count() as u64;
    (attempted, failed)
}

/// The first failure in the set, for the human-readable report.
pub fn first_failure(s: &Samples) -> Option<&str> {
    s.all().find_map(|r| r.failure.as_deref())
}

/// Share of the untraced window samples within 5% of their floor.
pub fn set_fast_share(s: &Samples) -> f64 {
    fast_share(&windows(&ok(&s.plain)))
}

/// The end-to-end metrics, from the untraced repetitions only. `None`
/// when no untraced repetition succeeded.
pub fn end_to_end(s: &Samples) -> Option<Vec<(&'static str, f64)>> {
    let plain = ok(&s.plain);
    let first = plain.first()?;
    let run_s = run_floor_s(&plain);
    let setup: Vec<Vec<u64>> = plain.iter().map(|r| r.setup.clone()).collect();
    let rss: Vec<f64> = plain
        .iter()
        .map(|r| r.count("rss_kb") as f64 / 1024.0)
        .collect();
    Some(
        END_TO_END
            .iter()
            .map(|(m, _)| {
                let v = match m.name {
                    "steps_per_s" => ratio(first.steps() as f64, run_s),
                    "peak_rss_mb" => median(&rss),
                    "setup_s" => floor_run_s(&setup),
                    other => unreachable!("end-to-end metric {other} has no formula"),
                };
                (m.name, v)
            })
            .collect(),
    )
}

/// The per-layer metrics, from the traced repetitions, the sink variants
/// and (for the floors they are compared with) the untraced repetitions.
/// `None` when either pass has no successful repetition.
pub fn per_layer(s: &Samples) -> Option<Vec<(&'static str, f64)>> {
    let plain = ok(&s.plain);
    let traced = ok(&s.traced);
    let (p0, t0) = (plain.first()?, traced.first()?);
    let run_s = run_floor_s(&plain);
    let steps = p0.steps() as f64;
    let per_step = |count: &str| ratio(t0.count(count) as f64, t0.count("exec.steps") as f64);
    let layer_s = |span: &str| layer_floor_s(&traced, span);
    let window_ms: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.window_ns())
        .map(|ns| ns as f64 / 1e6)
        .collect();

    // Sink variants ran a prefix of the windows; each is compared with
    // the unobserved variant over the same prefix.
    let sink = |label: &str| s.sinks.get(label).map(|v| ok(v)).unwrap_or_default();
    let sink_run_s = |label: &str| run_floor_s(&sink(label));
    let sink_ratio = |label: &str| ratio(sink_run_s(label), sink_run_s("off"));
    let sink_per_step = |label: &str, count: &str| {
        sink(label)
            .first()
            .map_or(0.0, |r| ratio(r.count(count) as f64, r.steps() as f64))
    };
    // Handler time by owning library, from the fastest profiled run;
    // what is left of that run's time is the engine's.
    let profiled = sink("profile");
    let fastest = profiled
        .iter()
        .min_by_key(|r| r.window_ns().iter().sum::<u64>());
    let lib_share = |lib: &str| {
        fastest.map_or(0.0, |r| {
            ratio(
                r.count(&format!("lib_ns.{lib}")) as f64,
                r.window_ns().iter().sum::<u64>() as f64,
            )
        })
    };
    let handler_share: f64 = ["upl", "mpl", "ccl", "pcl", "nil", "systems"]
        .iter()
        .map(|l| lib_share(l))
        .sum();

    let reacts_per_step = per_step("exec.reacts");
    let ns_per_step = ratio(run_s * 1e9, steps);
    let parse_s = layer_s("lss.parse");
    let elab_s = layer_s("lss.elaborate");
    Some(
        PER_LAYER
            .iter()
            .map(|m| {
                let v = match m.name {
                    "lss.parse_s" => parse_s,
                    "lss.parse_mb_per_s" => ratio(t0.count("lss_bytes") as f64 / 1e6, parse_s),
                    "lss.elab_s" => elab_s,
                    "lss.elab_inst_per_s" => ratio(t0.count("instances") as f64, elab_s),
                    "core.topology.build_s" => layer_s("core.topology"),
                    "systems.cmp.build_s" => layer_s("systems.cmp.build"),
                    "core.compile.plan_s" => layer_s("core.compile"),
                    "core.compile.islands" => t0.count("plan.islands") as f64,
                    "core.compile.max_island" => t0.count("plan.max_island") as f64,
                    "core.compile.straight" => t0.count("plan.straight") as f64,
                    "core.compile.levels" => t0.count("plan.levels") as f64,
                    "core.kernel.spec_instances" => t0.count("kernel.spec") as f64,
                    "core.kernel.dynamic_instances" => t0.count("kernel.dynamic") as f64,
                    "core.kernel.fast_edges" => t0.count("kernel.fast_edges") as f64,
                    "core.kernel.total_edges" => t0.count("kernel.total_edges") as f64,
                    "core.exec.construct_s" => layer_s("core.exec.construct"),
                    "core.exec.first_step_s" => layer_s("core.exec.first_step"),
                    "core.exec.reacts_per_step" => reacts_per_step,
                    "core.exec.commits_per_step" => per_step("exec.commits"),
                    "core.exec.defaults_per_step" => per_step("exec.defaults"),
                    "core.exec.ns_per_react" => ratio(ns_per_step, reacts_per_step),
                    "core.exec.ns_per_step" => ns_per_step,
                    "core.exec.window_ms_p50" => median(&window_ms),
                    "core.exec.window_ms_hi" => high_percentile(&window_ms),
                    "core.exec.window_samples" => window_ms.len() as f64,
                    "core.exec.allocs_per_step" => {
                        ratio(t0.count("allocs") as f64, t0.steps() as f64)
                    }
                    "core.exec.alloc_bytes_per_step" => {
                        ratio(t0.count("alloc_bytes") as f64, t0.steps() as f64)
                    }
                    "core.probe.counting_ratio" => sink_ratio("counting"),
                    "core.trace.jsonl_ratio" => sink_ratio("jsonl"),
                    "core.vcd.ratio" => sink_ratio("vcd"),
                    "core.profile.ratio" => sink_ratio("profile"),
                    "core.probe.events_per_step" => sink_per_step("counting", "probe_events"),
                    "core.trace.jsonl_bytes_per_step" => sink_per_step("jsonl", "jsonl_bytes"),
                    "core.snapshot.capture_us" => layer_s("core.snapshot.capture") * 1e6,
                    "core.snapshot.encode_us" => layer_s("core.snapshot.encode") * 1e6,
                    "core.snapshot.decode_us" => layer_s("core.snapshot.decode") * 1e6,
                    "core.snapshot.restore_us" => layer_s("core.snapshot.restore") * 1e6,
                    "core.snapshot.write_file_us" => layer_s("core.snapshot.write_file") * 1e6,
                    "core.snapshot.bytes" => t0.count("snapshot_bytes") as f64,
                    "core.supervisor.governed_ratio" => sink_ratio("governed"),
                    "ensemble.single_ratio" => {
                        ratio(layer_s("ensemble.single"), layer_s("ensemble.bare"))
                    }
                    "ensemble.replica_build_s" => span_floor_s(&traced, "ensemble.replica_build"),
                    "ensemble.manifest_append_us" => ratio(
                        layer_s("ensemble.manifest_append") * 1e6,
                        t0.count("manifest_appends") as f64,
                    ),
                    "ensemble.manifest_bytes" => t0.count("manifest_bytes") as f64,
                    "ensemble.stream_bytes" => t0.count("stream_bytes") as f64,
                    "ensemble.checkpoints_written" => t0.count("checkpoints_written") as f64,
                    "ensemble.resume_noop_s" => layer_s("ensemble.resume_noop"),
                    "upl.react_share" => lib_share("upl"),
                    "mpl.react_share" => lib_share("mpl"),
                    "ccl.react_share" => lib_share("ccl"),
                    "pcl.react_share" => lib_share("pcl"),
                    "engine.react_share" if fastest.is_some() => 1.0 - handler_share,
                    "engine.react_share" => 0.0,
                    "upl.minstr_per_s" => ratio(p0.count("retired") as f64 / 1e6, run_s),
                    "baseline.mono_core_ratio" => ratio(run_s, layer_s("baseline.mono_core")),
                    "host.calib_floor_ms" => layer_s("host.calib") * 1e3,
                    "host.fast_share" => set_fast_share(s),
                    "trace.overhead_ratio" => ratio(run_floor_s(&traced), run_s),
                    other => unreachable!("per-layer metric {other} has no formula"),
                };
                (m.name, v)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(window_ns: &[u64], uniform: bool) -> Rep {
        Rep {
            windows: window_ns.iter().map(|&ns| (ns, 10)).collect(),
            uniform,
            ..Rep::default()
        }
    }

    #[test]
    fn identical_windows_share_one_floor() {
        let (a, b) = (rep(&[30, 50], false), rep(&[40, 20], false));
        assert_eq!(run_floor_s(&[&a, &b]), 50e-9); // 30 + 20
        let (a, b) = (rep(&[30, 50], true), rep(&[40, 20], true));
        assert_eq!(run_floor_s(&[&a, &b]), 40e-9); // 2 windows x 20
    }

    #[test]
    fn end_to_end_uses_successful_untraced_repetitions_only() {
        let mut good = rep(&[1_000_000, 1_000_000], false);
        good.setup = vec![2_000, 3_000];
        good.counts.insert("rss_kb".to_owned(), 2048);
        let mut bad = rep(&[1, 1], false);
        bad.failure = Some("check".to_owned());
        let s = Samples {
            plain: vec![good, bad],
            ..Samples::default()
        };
        let m = end_to_end(&s).expect("one good repetition");
        assert_eq!(
            m,
            vec![
                ("steps_per_s", 10_000.0),
                ("peak_rss_mb", 2.0),
                ("setup_s", 5e-6)
            ]
        );
        assert_eq!(tally(&s), (2, 1));
        assert!(per_layer(&s).is_none());
    }
}
