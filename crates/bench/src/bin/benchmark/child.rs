//! One repetition of one workload, in a fresh process. The driver spawns
//! this binary as `benchmark child ...` and reads the record printed on
//! standard output when the repetition ends:
//!
//! ```text
//! setup <k> <ns>                one phase of set-up
//! window <k> <ns> <steps>       one timed window
//! uniform                       every window timed the same work
//! count <name> <u64>            counts (`rss_kb` and `probe_ref` ride here too)
//! span <id> <parent|-> <name> <start_ns> <end_ns>   (traced pass only)
//! fail <why>                    an output check or guard failed
//! ok                            the repetition ran to its end
//! ```

use crate::alloc;
use crate::cpu;
use crate::spans::{setup_phases, Spans};
use crate::workloads::{self, attach, Input, Rig, SinkKind, Tap};
use liberty_baseline::mono_core::{MonoConfig, MonoCore};
use liberty_core::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// What a repetition measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Untraced: the end-to-end numbers come from these.
    Plain,
    /// Spans, allocation counts and the per-layer probes.
    Traced,
    /// A shortened run under one observer.
    Sink(SinkKind),
}

pub struct ChildArgs {
    pub workload: String,
    pub seed: u64,
    pub mode: Mode,
    /// Stop after this many timed windows (shortened runs skip the
    /// end-of-run checks).
    pub windows: Option<usize>,
    pub smoke: bool,
}

/// The record a repetition prints.
pub struct Record {
    text: String,
    failed: bool,
}

impl Record {
    fn new() -> Record {
        Record {
            // Room for every line up front: appending a window line must
            // not allocate while allocations are being counted.
            text: String::with_capacity(1 << 16),
            failed: false,
        }
    }
    pub fn count(&mut self, name: &str, v: u64) {
        writeln!(self.text, "count {name} {v}").expect("write to String");
    }
    pub fn window(&mut self, k: usize, ns: u64, steps: u64) {
        writeln!(self.text, "window {k} {ns} {steps}").expect("write to String");
    }
    /// Declare that every window of this repetition timed identical work,
    /// so the windows share one floor.
    pub fn uniform(&mut self) {
        self.text.push_str("uniform\n");
    }
    pub fn fail(&mut self, why: &str) {
        self.failed = true;
        writeln!(self.text, "fail {}", why.replace('\n', " ")).expect("write to String");
    }
}

/// Where repetitions put their files: beside the executable, which the
/// build put inside the checkout, in a directory of this process's own.
pub fn scratch_root() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("benchmark-scratch")))
        .unwrap_or_else(|| PathBuf::from("benchmark-scratch"))
}

/// Run the repetition and print its record; the exit code says whether
/// it got as far as printing one.
pub fn run(args: &ChildArgs) -> std::process::ExitCode {
    let scratch = scratch_root().join(std::process::id().to_string());
    let mut rec = Record::new();
    let traced = args.mode == Mode::Traced;
    let mut spans = Spans::new();
    let result = std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("create {}: {e}", scratch.display()))
        .and_then(|()| {
            spans.enter("rep");
            if traced {
                spans.scope("host.calib", calibrate);
            }
            let r = if args.workload == "sweep_durable" {
                crate::sweep::rep(args, &scratch, &mut rec, &mut spans)
            } else {
                sim_rep(args, &scratch, &mut rec, &mut spans)
            };
            spans.exit();
            r
        });
    let _ = std::fs::remove_dir_all(&scratch);
    if let Err(why) = result {
        rec.fail(&why);
    }
    rec.count("rss_kb", peak_rss_kb());
    if let Some(ns) = cpu::reference() {
        rec.count("probe_ref", ns);
    }
    for (k, ns) in setup_phases(&spans.spans).into_iter().enumerate() {
        writeln!(rec.text, "setup {k} {ns}").expect("write to String");
    }
    for (i, s) in spans.spans.iter().enumerate().filter(|_| traced) {
        let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
        writeln!(
            rec.text,
            "span {i} {parent} {} {} {}",
            s.name, s.start, s.end
        )
        .expect("write to String");
    }
    if !rec.failed {
        rec.text.push_str("ok\n");
    }
    print!("{}", rec.text);
    std::process::ExitCode::SUCCESS
}

/// A fixed arithmetic kernel: its floor time says which regime the host
/// was in while this repetition ran.
fn calibrate() {
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    for _ in 0..8_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
}

/// The process's peak resident set (`VmHWM`), in KiB; 0 where `/proc`
/// does not say.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// How the timed part of one segment ended.
struct Timed {
    /// False when `--windows` cut the run short.
    complete: bool,
    /// Allocations and bytes counted while the windows ran.
    allocs: (u64, u64),
}

/// Run `rig` to its end (or the window limit) in timed windows, recording
/// each under the next index after `timed.len()`.
fn run_windows(
    rig: &mut Rig,
    limit: Option<usize>,
    count_allocs: bool,
    timed: &mut Vec<(Instant, Instant)>,
    rec: &mut Record,
) -> Result<Timed, String> {
    let mut complete = true;
    let before = alloc::counted();
    // Nothing in this loop allocates on the benchmark's side, so the
    // counts are the simulator's own.
    alloc::set_counting(count_allocs);
    loop {
        cpu::settle();
        let p0 = rig.progress.read(&rig.sim);
        let n = rig.window.min(rig.horizon.saturating_sub(rig.sim.now()));
        let halted = &rig.halted;
        let t = Instant::now();
        let mut ran = rig
            .sim
            .run_until(n, |_| halted())
            .map_err(|e| e.to_string())?;
        let over = halted() || rig.sim.now() >= rig.horizon;
        if over {
            for _ in 0..rig.drain {
                rig.sim.step().map_err(|e| e.to_string())?;
            }
            ran += rig.drain;
        }
        let end = Instant::now();
        let k = timed.len();
        timed.push((t, end));
        rec.window(k, (end - t).as_nanos() as u64, ran);
        // Busy-window guard: a window in which the simulated system made
        // no progress would inflate steps_per_s.
        if rig.progress.read(&rig.sim) == p0 {
            rec.fail(&format!("window {k} made no simulated progress"));
        }
        if over {
            break;
        }
        if limit.is_some_and(|w| timed.len() >= w) {
            complete = false;
            break;
        }
    }
    alloc::set_counting(false);
    let after = alloc::counted();
    if rig.sim.now() >= workloads::STEP_CAP {
        return Err("run hit the step cap without finishing".to_owned());
    }
    Ok(Timed {
        complete,
        allocs: (after.0 - before.0, after.1 - before.1),
    })
}

/// What the attached sink saw, into the record.
fn read_tap(
    tap: Tap,
    sim: &Simulator,
    lib_ns: &mut BTreeMap<String, u64>,
    rec: &mut Record,
) -> Result<(), String> {
    match tap {
        Tap::None => {}
        Tap::Counting(h) => {
            let c = h.get();
            rec.count(
                "probe_events",
                c.reacts + c.commits + c.resolutions + c.transfers,
            );
        }
        Tap::Bytes(n) => rec.count("jsonl_bytes", n.load(std::sync::atomic::Ordering::Relaxed)),
        Tap::File(path) => {
            let len = std::fs::metadata(&path).map_or(0, |m| m.len());
            if len == 0 {
                rec.fail("observed run wrote no JSONL");
            }
            rec.count("observed_bytes", len);
        }
        Tap::Profile(h) => {
            // Handler time by the library that owns the template.
            let registry = liberty_systems::full_registry();
            for row in h.report().rows {
                let id = sim.instance_by_name(&row.name).ok_or("profiled instance")?;
                let template = &sim.topology().instance(id).spec.template;
                let lib = workloads::library_of(template, &registry)
                    .ok_or_else(|| format!("template {template:?} has no library"))?;
                *lib_ns.entry(lib).or_default() += row.total_ns();
            }
        }
    }
    Ok(())
}

fn sim_rep(
    args: &ChildArgs,
    scratch: &std::path::Path,
    rec: &mut Record,
    spans: &mut Spans,
) -> Result<(), String> {
    let input = Input::new(&args.workload, args.seed, args.smoke)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let kind = match args.mode {
        Mode::Sink(k) => k,
        _ => SinkKind::Own,
    };
    let traced = args.mode == Mode::Traced;
    let stream = scratch.join("observed.jsonl");
    let own_file = input.observed().then_some(stream.as_path());

    let mut digests = Vec::new();
    let mut totals = EngineMetrics::default();
    let mut retired = 0u64;
    let mut allocs = (0u64, 0u64);
    let mut timed: Vec<(Instant, Instant)> = Vec::with_capacity(256);
    let mut lib_ns: BTreeMap<String, u64> = BTreeMap::new();
    let mut complete = true;

    for seg in 0..input.segments() {
        if args.windows.is_some_and(|w| timed.len() >= w) {
            complete = false;
            break;
        }
        // Set-up: inputs in memory to a simulator that finished step 0.
        cpu::settle();
        spans.enter("setup");
        let mut rig = input.build(seg, spans)?;
        let tap = spans.scope("core.probe.attach", || attach(&mut rig.sim, kind, own_file))?;
        spans
            .scope("core.exec.first_step", || rig.sim.step())
            .map_err(|e| e.to_string())?;
        spans.exit();

        let first = timed.len();
        let base = (rig.sim.metrics(), rig.progress.read(&rig.sim));
        let run = run_windows(&mut rig, args.windows, traced, &mut timed, rec)?;
        complete &= run.complete;
        allocs.0 += run.allocs.0;
        allocs.1 += run.allocs.1;
        spans.enter("run");
        for (i, &(a, b)) in timed[first..].iter().enumerate() {
            spans.record(format!("core.exec.window[{}]", first + i), a, b);
        }
        spans.exit();

        // Counts of the timed part only (set-up's first step excluded).
        let m = rig.sim.metrics();
        totals.steps += m.steps - base.0.steps;
        totals.reacts += m.reacts - base.0.reacts;
        totals.commits += m.commits - base.0.commits;
        totals.defaults += m.defaults - base.0.defaults;
        if let workloads::Progress::Retired(_) = rig.progress {
            retired += rig.progress.read(&rig.sim) - base.1;
        }

        drop(rig.sim.take_probe()); // flush a buffered stream
        read_tap(tap, &rig.sim, &mut lib_ns, rec)?;
        if complete {
            spans.enter("check");
            if let Err(why) = (rig.check)(&rig.sim) {
                rec.fail(&why);
            }
            digests.push(workloads::stats_digest(&rig.sim));
            spans.exit();
        }
        if traced && seg + 1 == input.segments() {
            structure(&rig.sim, rec);
            snapshot_probes(&mut rig.sim, scratch, rec, spans)?;
        }
    }

    if traced {
        if let Input::Core4 { programs } = &input {
            spans.scope("baseline.mono_core", || mono_core(programs))?;
        }
    }

    exec_counts(&totals, rec);
    rec.count("retired", retired);
    rec.count("lss_bytes", input.lss_bytes());
    if traced {
        rec.count("allocs", allocs.0);
        rec.count("alloc_bytes", allocs.1);
    }
    for (lib, ns) in lib_ns {
        rec.count(&format!("lib_ns.{lib}"), ns);
    }
    if complete {
        let all: Vec<u8> = digests.iter().flat_map(|d| d.to_le_bytes()).collect();
        let digest = liberty_core::snapshot::crc32(&all);
        rec.count("digest", u64::from(digest));
        // The smoke inputs are smaller, so only full runs are pinned.
        if !args.smoke && workloads::pinned_digest(&args.workload) != Some(digest) {
            rec.fail(&format!(
                "sim_digest {digest:#010x} differs from the pinned value"
            ));
        }
    }
    Ok(())
}

/// Engine work behind the timed steps.
pub fn exec_counts(m: &EngineMetrics, rec: &mut Record) {
    rec.count("exec.steps", m.steps);
    rec.count("exec.reacts", m.reacts);
    rec.count("exec.commits", m.commits);
    rec.count("exec.defaults", m.defaults);
}

/// Plan and specialization structure: exact counts that say how much of
/// the netlist the compiled scheduler's fast paths reach.
pub fn structure(sim: &Simulator, rec: &mut Record) {
    if let Some(plan) = sim.compiled_plan() {
        let max_island = plan
            .nodes()
            .iter()
            .map(|n| match n {
                PlanNode::Island { members, .. } => members.len(),
                PlanNode::Straight(_) => 0,
            })
            .max()
            .unwrap_or(0);
        rec.count("plan.islands", plan.island_count() as u64);
        rec.count("plan.max_island", max_island as u64);
        rec.count("plan.straight", plan.straight_count() as u64);
        rec.count("plan.levels", plan.levels().len() as u64);
        rec.count("instances", plan.instance_count() as u64);
    }
    if let Some(s) = sim.plan_summary() {
        rec.count("kernel.spec", s.specialized as u64);
        rec.count("kernel.dynamic", s.dynamic as u64);
        rec.count("kernel.fast_edges", s.fast_edges as u64);
        rec.count("kernel.total_edges", s.total_edges as u64);
    }
}

/// Time one checkpoint round trip through `core.snapshot`, where the
/// model's state can be saved at all (`upl` modules hold opaque values
/// that refuse `state_save`; those workloads read 0).
pub fn snapshot_probes(
    sim: &mut Simulator,
    scratch: &std::path::Path,
    rec: &mut Record,
    spans: &mut Spans,
) -> Result<(), String> {
    let t = Instant::now();
    let Ok(snap) = sim.snapshot() else {
        return Ok(());
    };
    spans.record("core.snapshot.capture".to_owned(), t, Instant::now());
    let bytes = spans.scope("core.snapshot.encode", || snap.to_bytes());
    let path = scratch.join("probe.ckpt");
    spans
        .scope("core.snapshot.write_file", || snap.write_file(&path))
        .map_err(|e| e.to_string())?;
    let back = spans
        .scope("core.snapshot.decode", || Snapshot::from_bytes(&bytes))
        .map_err(|e| e.to_string())?;
    spans
        .scope("core.snapshot.restore", || sim.restore(&back))
        .map_err(|e| e.to_string())?;
    rec.count("snapshot_bytes", bytes.len() as u64);
    Ok(())
}

/// The hand-written monolithic core on the same eight programs: what the
/// structural model's generality costs in host time.
fn mono_core(programs: &[std::sync::Arc<liberty_upl::isa::Program>]) -> Result<(), String> {
    for prog in programs {
        let cfg = MonoConfig {
            mem_latency: 12,
            predict: true,
            ..MonoConfig::default()
        };
        let mut mono = MonoCore::new(prog, cfg);
        mono.run(50_000_000).map_err(|e| e.to_string())?;
        if !mono.halted() {
            return Err(format!("MonoCore did not halt on {}", prog.name));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Progress;

    /// A source that dries up after three items: the first window moves
    /// items, the later ones only burn steps.
    fn drying_rig() -> Rig {
        let mut b = NetlistBuilder::new();
        let (s, m) = liberty_pcl::source::seq(&Params::new().with("count", 3i64)).unwrap();
        let src = b.add("src", s, m).unwrap();
        let (s, m) = liberty_pcl::sink::counting(&Params::new()).unwrap();
        let dst = b.add("dst", s, m).unwrap();
        b.connect(src, "out", dst, "in").unwrap();
        Rig {
            sim: Simulator::new(b.build().unwrap(), SchedKind::Compiled),
            window: 5,
            horizon: 15,
            halted: Box::new(|| false),
            drain: 0,
            progress: Progress::Transfers,
            check: Box::new(|_| Ok(())),
        }
    }

    #[test]
    fn a_window_without_simulated_progress_fails_the_repetition() {
        let mut rec = Record::new();
        let mut timed = Vec::new();
        let run = run_windows(&mut drying_rig(), None, false, &mut timed, &mut rec).unwrap();
        assert!(run.complete);
        assert_eq!(timed.len(), 3);
        assert!(rec.failed);
        assert!(rec
            .text
            .contains("fail window 1 made no simulated progress"));
        assert!(!rec.text.contains("fail window 0"));
    }

    #[test]
    fn the_window_limit_cuts_a_run_short() {
        let mut rec = Record::new();
        let mut timed = Vec::new();
        let run = run_windows(&mut drying_rig(), Some(1), false, &mut timed, &mut rec).unwrap();
        assert!(!run.complete && !rec.failed);
        assert_eq!(
            rec.text,
            format!("window 0 {} 5\n", (timed[0].1 - timed[0].0).as_nanos())
        );
    }
}
