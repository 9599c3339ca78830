//! Kernel throughput: simulated time-steps per host second on three
//! representative netlists (8x8 mesh under uniform traffic, the E2 CMP,
//! the E8 stage-4 core), under the compiled scheduler — followed by the
//! probe-overhead section: the same workloads with each observer
//! attached, proving the probe-off path pays nothing for observability.
//!
//! Prints markdown tables so `regen_experiments.sh` can capture the
//! numbers; the same workloads feed the report binary's kernel section.
//!
//! Flags (after `--`):
//!
//! ```text
//! --smoke                  quick 200-cycle iterations — the CI guard
//! --cycles N               override measured cycles per run
//! --best-of N              keep the best of N runs per cell (default 3;
//!                          the experiment tables use 5)
//! --baseline PATH          compare probe-off steps/sec against a recorded
//!                          baseline TSV; exit 1 on regression
//! --tolerance PCT          allowed regression vs baseline (default 5)
//! --write-baseline PATH    record this run's probe-off numbers as the new
//!                          baseline TSV
//! ```
//!
//! Throughput cells keep the best of N runs: the minimum host time is the
//! least-interfered measurement, which is what a regression guard must
//! compare on a shared machine.

use liberty_bench::ensemble::{LssFactory, ENSEMBLE_SPEC};
use liberty_bench::kernel::{
    run_workload_governed, run_workload_probed, run_workload_specialized, KernelRun, ProbeMode,
    MEASURED_SCHEDS, WORKLOADS, W_PCL,
};
use liberty_bench::{table, timed};
use liberty_core::prelude::{CancelToken, JsonlProbe, SchedKind};
use liberty_ensemble::{run_sweep, ReplicaFactory, SweepConfig};
use std::collections::BTreeMap;
use std::io::Write;

/// Label for the ensemble-overhead baseline rows.
const W_ENS: &str = "lss ensemble fixture";

/// One-replica config over the ensemble fixture with auto-checkpoints
/// off, so the comparison isolates the harness (manifest, supervision,
/// worker dispatch) rather than snapshot I/O.
fn ensemble_cfg(cycles: u64) -> SweepConfig {
    let mut cfg = SweepConfig::new(cycles);
    cfg.checkpoint_every = 0;
    cfg
}

/// Fresh scratch directory per measurement (a sweep refuses to start
/// over an existing manifest).
fn ensemble_scratch(tag: u32) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("kernel-bench-ens-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench scratch dir");
    dir
}

/// The exact work one replica does, minus the harness: a bare governed
/// run of the fixture streaming canonical JSONL through a buffered
/// writer — the cheapest correct single-run setup. The ensemble replica
/// filters harness lines and group-commits its stream at checkpoint
/// cadence (its durability invariant), so the margin charges it for
/// that too.
fn bare_replica_secs(cycles: u64, tag: u32) -> f64 {
    let dir = ensemble_scratch(tag);
    let factory = LssFactory::new(ENSEMBLE_SPEC, SchedKind::Compiled);
    let spec = ensemble_cfg(cycles)
        .replicas()
        .into_iter()
        .next()
        .expect("one replica");
    let mut sim = factory.build(&spec).expect("fixture builds");
    let file = std::io::BufWriter::new(
        std::fs::File::create(dir.join("bare.jsonl")).expect("stream file"),
    );
    sim.set_probe(Box::new(JsonlProbe::new(file).canonical()));
    let (_report, secs) = timed(|| sim.run_governed(cycles));
    let _ = std::fs::remove_dir_all(&dir);
    secs
}

/// The same run through the sweep harness as a one-replica ensemble.
fn ensemble_replica_secs(cycles: u64, tag: u32) -> f64 {
    let dir = ensemble_scratch(tag);
    let factory = LssFactory::new(ENSEMBLE_SPEC, SchedKind::Compiled);
    let cancel = CancelToken::new();
    let (report, secs) = timed(|| {
        run_sweep(&dir, &ensemble_cfg(cycles), &cancel, &factory).expect("one-replica sweep")
    });
    assert!(report.complete(), "bench sweep must complete");
    let _ = std::fs::remove_dir_all(&dir);
    secs
}

fn throughput_rows(runs: &[KernelRun]) -> Vec<Vec<String>> {
    runs.iter()
        .map(|r| {
            vec![
                r.workload.to_string(),
                format!("{:?}", r.sched),
                r.cycles.to_string(),
                format!("{:.1}", r.secs * 1e3),
                format!("{:.0}", r.steps_per_sec()),
            ]
        })
        .collect()
}

fn baseline_key(r: &KernelRun) -> String {
    format!("{}\t{:?}", r.workload, r.sched)
}

/// Cargo runs benches with the package directory as cwd; resolve relative
/// baseline paths against the workspace root so
/// `--baseline ci/kernel_baseline.tsv` works from either.
fn resolve(path: &str) -> std::path::PathBuf {
    let p = std::path::Path::new(path);
    if p.is_absolute() || p.exists() {
        p.to_path_buf()
    } else {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(p)
    }
}

/// Best (least-interfered) of `n` measurements.
fn best_of(
    n: u32,
    workload: &'static str,
    sched: SchedKind,
    cycles: u64,
    mode: ProbeMode,
) -> KernelRun {
    (0..n.max(1))
        .map(|_| run_workload_probed(workload, sched, cycles, mode))
        .min_by(|a, b| a.secs.total_cmp(&b.secs))
        .expect("n >= 1")
}

fn main() {
    let mut cycles: u64 = 2000;
    let mut best: u32 = 3;
    let mut baseline: Option<String> = None;
    let mut write_baseline: Option<String> = None;
    let mut tolerance: f64 = 5.0;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => cycles = 200,
            "--cycles" => {
                cycles = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--cycles N")
            }
            "--best-of" => {
                best = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--best-of N")
            }
            "--baseline" => baseline = Some(args.next().expect("--baseline PATH")),
            "--write-baseline" => {
                write_baseline = Some(args.next().expect("--write-baseline PATH"))
            }
            "--tolerance" => {
                tolerance = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--tolerance PCT")
            }
            // Ignore the harness arguments `cargo bench` forwards.
            _ => {}
        }
    }

    // --- Throughput (probe off) ---
    let mut off_runs = Vec::new();
    for &w in WORKLOADS {
        for &sched in MEASURED_SCHEDS {
            off_runs.push(best_of(best, w, sched, cycles, ProbeMode::Off));
        }
    }
    println!(
        "{}",
        table(
            &["workload", "scheduler", "cycles", "host ms", "steps/sec"],
            &throughput_rows(&off_runs)
        )
    );

    // --- Probe overhead: each observer vs the probe-off path ---
    let mut rows = Vec::new();
    for &w in WORKLOADS {
        let off = off_runs
            .iter()
            .find(|r| r.workload == w && r.sched == SchedKind::Compiled)
            .expect("off run measured");
        let mut row = vec![w.to_string(), format!("{:.0}", off.steps_per_sec())];
        for &mode in &ProbeMode::ALL[1..] {
            let r = best_of(best, w, SchedKind::Compiled, cycles, mode);
            row.push(format!(
                "{:.0} ({:.2}x)",
                r.steps_per_sec(),
                off.steps_per_sec() / r.steps_per_sec()
            ));
        }
        rows.push(row);
    }
    println!(
        "{}",
        table(
            &[
                "workload (Compiled)",
                "off steps/s",
                "counting (slowdown)",
                "profiler (slowdown)",
                "vcd (slowdown)",
            ],
            &rows
        )
    );

    // --- Supervisor parity: a never-binding budget vs nothing installed ---
    // Both sides run the supervisor's one loop; this table documents
    // what a live budget axis costs at each step boundary when it never
    // binds.
    let mut rows = Vec::new();
    for &w in WORKLOADS {
        let off = off_runs
            .iter()
            .find(|r| r.workload == w && r.sched == SchedKind::Compiled)
            .expect("off run measured");
        let g = (0..best.max(1))
            .map(|_| run_workload_governed(w, SchedKind::Compiled, cycles))
            .min_by(|a, b| a.secs.total_cmp(&b.secs))
            .expect("best >= 1");
        rows.push(vec![
            w.to_string(),
            format!("{:.0}", off.steps_per_sec()),
            format!(
                "{:.0} ({:.2}x)",
                g.steps_per_sec(),
                off.steps_per_sec() / g.steps_per_sec()
            ),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "workload (Compiled)",
                "supervisor off steps/s",
                "governed, unbounded (slowdown)",
            ],
            &rows
        )
    );

    // --- Handler specialization: compiled plan, kernels on/off ---
    let spec_best = |on: bool| {
        (0..best.max(1))
            .map(|_| run_workload_specialized(W_PCL, cycles, on))
            .min_by(|a, b| a.secs.total_cmp(&b.secs))
            .expect("best >= 1")
    };
    let (spec_on, spec_off) = (spec_best(true), spec_best(false));
    let spec_margin = spec_on.steps_per_sec() / spec_off.steps_per_sec();
    println!(
        "{}",
        table(
            &[
                "workload (Compiled)",
                "dynamic steps/s",
                "specialized steps/s",
                "speedup",
            ],
            &[vec![
                W_PCL.to_string(),
                format!("{:.0}", spec_off.steps_per_sec()),
                format!("{:.0}", spec_on.steps_per_sec()),
                format!("{spec_margin:.2}x"),
            ]]
        )
    );

    // --- Ensemble harness overhead: one-replica sweep vs a bare run ---
    // Same modules, same scheduler, same canonical JSONL stream; the
    // sweep adds the manifest, supervision (catch_unwind + budget +
    // cancel), and worker dispatch. The margin below is
    // ensemble-throughput / bare-throughput (1.0 = free harness).
    let best_secs = |f: &dyn Fn(u64, u32) -> f64| {
        (0..best.max(1))
            .map(|i| f(cycles, i))
            .min_by(|a, b| a.total_cmp(b))
            .expect("best >= 1")
    };
    let bare_sps = cycles as f64 / best_secs(&bare_replica_secs);
    let ens_sps = cycles as f64 / best_secs(&ensemble_replica_secs);
    let ens_margin = ens_sps / bare_sps;
    println!(
        "{}",
        table(
            &[
                "workload (Compiled)",
                "bare run steps/s",
                "1-replica ensemble steps/s",
                "ensemble/single",
            ],
            &[vec![
                W_ENS.to_string(),
                format!("{bare_sps:.0}"),
                format!("{ens_sps:.0}"),
                format!("{ens_margin:.2}x"),
            ]]
        )
    );

    // --- Baseline guard (supervisor off: the default run path) ---
    if let Some(path) = write_baseline {
        let mut f = std::fs::File::create(resolve(&path)).expect("create baseline file");
        writeln!(
            f,
            "# workload\tscheduler\tsteps_per_sec (probe off, {cycles} cycles)"
        )
        .unwrap();
        for r in &off_runs {
            writeln!(f, "{}\t{:.0}", baseline_key(r), r.steps_per_sec()).unwrap();
        }
        writeln!(
            f,
            "{W_PCL}\tCompiled[specialized]\t{:.0}",
            spec_on.steps_per_sec()
        )
        .unwrap();
        writeln!(f, "{W_PCL}\tspecialized/dynamic\t{spec_margin:.2}").unwrap();
        writeln!(f, "{W_ENS}\tensemble/single\t{ens_margin:.2}").unwrap();
        println!("baseline written to {path}");
    }
    if let Some(path) = baseline {
        let text = std::fs::read_to_string(resolve(&path)).expect("read baseline file");
        let recorded: BTreeMap<String, f64> = text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .map(|l| {
                let (key, v) = l.rsplit_once('\t').expect("key\\tvalue");
                (key.to_string(), v.parse().expect("numeric baseline"))
            })
            .collect();
        let mut failed = false;
        for r in &off_runs {
            let key = baseline_key(r);
            let Some(&base) = recorded.get(&key) else {
                println!("baseline: no entry for {key:?}, skipping");
                continue;
            };
            let now = r.steps_per_sec();
            let delta = 100.0 * (now - base) / base;
            let verdict = if delta < -tolerance {
                failed = true;
                "REGRESSED"
            } else {
                "ok"
            };
            println!("baseline: {key}  {base:.0} -> {now:.0} steps/s ({delta:+.1}%) {verdict}");
        }
        // Specialized-path guards: absolute throughput floor, plus the
        // margin over the dynamic compiled plan (catches a silent
        // universal fallback, which would pass the absolute floor).
        if let Some(&base) = recorded.get(&format!("{W_PCL}\tCompiled[specialized]")) {
            let now = spec_on.steps_per_sec();
            let delta = 100.0 * (now - base) / base;
            let verdict = if delta < -tolerance {
                failed = true;
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "baseline: {W_PCL}\tCompiled[specialized]  {base:.0} -> {now:.0} steps/s \
                 ({delta:+.1}%) {verdict}"
            );
        }
        if let Some(&base) = recorded.get(&format!("{W_PCL}\tspecialized/dynamic")) {
            let verdict = if spec_margin < base {
                failed = true;
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "baseline: {W_PCL}\tspecialized/dynamic  required {base:.2}x, \
                 measured {spec_margin:.2}x {verdict}"
            );
        }
        // Ensemble-harness guard: the one-replica sweep must retain at
        // least the recorded fraction of bare-run throughput (catches
        // per-step supervision cost leaking into the replica hot loop).
        if let Some(&base) = recorded.get(&format!("{W_ENS}\tensemble/single")) {
            let verdict = if ens_margin < base {
                failed = true;
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "baseline: {W_ENS}\tensemble/single  required {base:.2}x, \
                 measured {ens_margin:.2}x {verdict}"
            );
        }
        if failed {
            eprintln!(
                "probe-off throughput regressed more than {tolerance}% vs {path}; \
                 if the host changed, regenerate with --write-baseline"
            );
            std::process::exit(1);
        }
    }
}
