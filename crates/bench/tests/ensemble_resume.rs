//! Ensemble resilience: an interrupted sweep — budget cut, SIGINT-style
//! cancellation, a real `kill -9` — resumes to durable artifacts
//! **byte-identical** to an uninterrupted control's: every per-replica
//! canonical stream and the aggregate `metrics.csv`.
//!
//! The oracle mirrors `cancel_resume.rs`, lifted from one simulator to
//! the whole sweep directory: run the identical grid twice, interrupt
//! one of the runs arbitrarily often, and compare the directories when
//! both settle. Chaos coverage: a forced panic in one replica (at build
//! time and from inside a handler) must leave every survivor's bytes
//! untouched and exactly one `failed` manifest record behind.

use liberty_bench::ensemble::{child_config, LssFactory, ENSEMBLE_SPEC};
use liberty_core::prelude::*;
use liberty_ensemble::{
    manifest, resume_config, resume_sweep, run_sweep, EnsembleError, ParamSweep, Record,
    ReplicaFactory, ReplicaSpec, SweepConfig, SweepReport, MANIFEST_FILE,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::time::Duration;

const TOTAL: u64 = 48;
const ALL_SCHEDS: [SchedKind; 2] = [SchedKind::Sweep, SchedKind::Compiled];

/// A fresh per-test sweep directory under the system temp dir.
fn tdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("lse-ens-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// The fixture grid (depth=2..3 x 2 seeds = 4 replicas) over `cycles`
/// steps on `threads` lanes, checkpointing every 8 steps.
fn base_config(cycles: u64, threads: usize) -> SweepConfig {
    let mut cfg = child_config(cycles);
    cfg.base_seed = 11;
    cfg.threads = threads;
    cfg.checkpoint_every = 8;
    cfg
}

/// Compare two settled sweep directories' durable artifacts byte for
/// byte: each replica stream, then the aggregate CSV.
#[track_caller]
fn assert_dirs_eq(control: &Path, other: &Path, total: usize, ctx: &str) {
    for i in 0..total {
        let name = format!("r{i:04}.jsonl");
        let a = std::fs::read(control.join(&name)).expect("control stream");
        let b = std::fs::read(other.join(&name)).expect("interrupted stream");
        assert!(
            a == b,
            "{ctx}: stream {name} differs ({} vs {} bytes)",
            a.len(),
            b.len()
        );
        assert!(!a.is_empty(), "{ctx}: stream {name} is empty");
    }
    let a = std::fs::read_to_string(control.join("metrics.csv")).expect("control csv");
    let b = std::fs::read_to_string(other.join("metrics.csv")).expect("interrupted csv");
    assert_eq!(a, b, "{ctx}: metrics.csv");
}

/// Keep resuming (same config, budgets included) until every replica is
/// terminal.
fn resume_until_complete<F: ReplicaFactory>(
    dir: &Path,
    cfg: &SweepConfig,
    factory: &F,
    max_rounds: usize,
) -> SweepReport {
    for _ in 0..max_rounds {
        let r = resume_sweep(dir, cfg, &CancelToken::new(), factory).expect("resume round");
        if r.complete() {
            return r;
        }
    }
    panic!("sweep did not settle within {max_rounds} resume rounds");
}

#[test]
fn budget_cut_sweeps_resume_byte_identically_across_schedulers() {
    for sched in ALL_SCHEDS {
        let factory = LssFactory::new(ENSEMBLE_SPEC, sched);
        let ctx = format!("{sched:?}");
        let control = tdir(&format!("ctl-{ctx}"));
        let cfg = base_config(TOTAL, 2);
        let ctl = run_sweep(&control, &cfg, &CancelToken::new(), &factory).expect("control");
        assert!(ctl.complete() && ctl.done == 4, "{ctx}: {}", ctl.render());

        // Every invocation is amputated after 17 executed steps per
        // replica; three resume rounds stitch the full horizon back.
        let cut = tdir(&format!("cut-{ctx}"));
        let mut cut_cfg = cfg.clone();
        cut_cfg.max_steps = Some(17);
        let first = run_sweep(&cut, &cut_cfg, &CancelToken::new(), &factory).expect("cut");
        assert_eq!(
            (first.interrupted, first.done),
            (4, 0),
            "{ctx}: step budget parks every replica"
        );
        let settled = resume_until_complete(&cut, &cut_cfg, &factory, 6);
        assert_eq!(settled.done, 4, "{ctx}");
        assert_dirs_eq(&control, &cut, 4, &ctx);

        std::fs::remove_dir_all(&control).ok();
        std::fs::remove_dir_all(&cut).ok();
    }
}

#[test]
fn cancellation_fans_out_to_in_flight_replicas_and_leaves_a_summary() {
    const CYCLES: u64 = 4000;
    let factory = LssFactory::new(ENSEMBLE_SPEC, SchedKind::Compiled);
    let control = tdir("can-ctl");
    let mut ctl_cfg = base_config(CYCLES, 2);
    ctl_cfg.checkpoint_every = 64;
    let ctl = run_sweep(&control, &ctl_cfg, &CancelToken::new(), &factory).expect("control");
    assert!(ctl.complete());

    // The cut point is wall-clock (exactly what a SIGINT is), so retry
    // until the cancellation lands while replicas are in flight.
    let mut caught = false;
    for attempt in 0..5 {
        let dir = tdir("can-cut");
        let token = CancelToken::new();
        let t = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20 + 10 * attempt));
                token.cancel();
            })
        };
        let r = run_sweep(&dir, &ctl_cfg, &token, &factory).expect("cancelled sweep");
        t.join().unwrap();
        if r.complete() {
            std::fs::remove_dir_all(&dir).ok();
            continue; // cancel landed too late; try a fresh sweep
        }
        caught = true;
        assert!(
            r.interrupted + r.pending > 0,
            "incomplete sweep with nothing left: {}",
            r.render()
        );
        // Satellite contract: the manifest's final entry is a summary
        // naming the completed/interrupted tally of this invocation.
        let m = manifest::load(&dir.join(MANIFEST_FILE)).expect("manifest");
        let s = m
            .summaries
            .last()
            .expect("summary appended on cancellation");
        if let Record::Summary {
            done,
            failed,
            interrupted,
            pending,
        } = s
        {
            assert_eq!(
                done + failed + interrupted + pending,
                4,
                "tally covers the grid"
            );
            assert_eq!((*done, *failed), (r.done, r.failed));
        } else {
            panic!("summaries holds non-summary record {s:?}");
        }
        // In-flight replicas parked under cause=cancel with a clean-cut
        // checkpoint recorded.
        for rec in m.latest.values() {
            if let Record::Interrupted { cause, .. } = rec {
                assert_eq!(cause, "cancel");
            }
        }

        let settled = resume_until_complete(&dir, &ctl_cfg, &factory, 3);
        assert_eq!(settled.done, 4);
        assert_dirs_eq(&control, &dir, 4, "sigint-style cancel");
        std::fs::remove_dir_all(&dir).ok();
        break;
    }
    assert!(caught, "cancellation never landed mid-sweep in 5 attempts");
    std::fs::remove_dir_all(&control).ok();
}

// ---------------------------------------------------------------------
// Forced-panic chaos: one replica dies, survivors must not notice.
// ---------------------------------------------------------------------

/// Emits one word per step on an output port — steady stream traffic.
struct Ticker;
impl Module for Ticker {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        ctx.send(PortId(0), 0, Value::Word(ctx.now()))
    }
    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        if ctx.transferred_out(PortId(0), 0) {
            ctx.count("ticks", 1);
        }
        Ok(())
    }
}

/// Consumes the ticker's stream — and, when armed, panics from inside
/// its `react` handler at one step.
struct Eater {
    panic_at: Option<u64>,
}
impl Module for Eater {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        if self.panic_at == Some(ctx.now()) {
            panic!("injected handler panic at step {}", ctx.now());
        }
        ctx.set_ack(PortId(0), 0, true)
    }
    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        if ctx.transferred_in(PortId(0), 0).is_some() {
            ctx.count("eaten", 1);
        }
        Ok(())
    }
}

/// Builds a two-instance netlist directly (no LSS): a ticker feeding an
/// eater armed to panic only in the victim replica.
struct HandlerPanicFactory {
    victim: Option<usize>,
    at: u64,
}
impl ReplicaFactory for HandlerPanicFactory {
    fn build(&self, spec: &ReplicaSpec) -> Result<Simulator, SimError> {
        let mut b = NetlistBuilder::new();
        let t = b.add(
            "tick",
            ModuleSpec::new("ticker").output("out", 1, 1),
            Box::new(Ticker),
        )?;
        let e = b.add(
            "eat",
            ModuleSpec::new("eater").input("in", 1, 1),
            Box::new(Eater {
                panic_at: (self.victim == Some(spec.index)).then_some(self.at),
            }),
        )?;
        b.connect(t, "out", e, "in")?;
        let mut sim = Simulator::new(b.build()?, SchedKind::Sweep);
        // Arm the kernel's handler supervision (Abort still fails the
        // run, but as a structured `SimError::Panic` pinned to the step
        // rather than a raw unwind into the sweep lane).
        sim.set_failure_policy(FailurePolicy::Abort);
        Ok(sim)
    }
}

/// Panics before a simulator even exists — only the runner's
/// `catch_unwind` stands between this and the whole sweep.
struct PanicOnBuild {
    inner: HandlerPanicFactory,
    victim: usize,
}
impl ReplicaFactory for PanicOnBuild {
    fn build(&self, spec: &ReplicaSpec) -> Result<Simulator, SimError> {
        if spec.index == self.victim {
            panic!("injected build panic for replica {}", spec.index);
        }
        self.inner.build(spec)
    }
}

fn assert_one_failure_survivors_intact(
    control: &Path,
    chaos: &Path,
    report: &SweepReport,
    victim: usize,
    reason_marker: &str,
) {
    assert!(report.complete(), "{}", report.render());
    assert_eq!((report.done, report.failed), (3, 1), "{}", report.render());
    let m = manifest::load(&chaos.join(MANIFEST_FILE)).expect("manifest");
    let failed: Vec<_> = m
        .latest
        .iter()
        .filter_map(|(r, rec)| match rec {
            Record::Failed { reason, .. } => Some((*r, reason.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(
        failed.len(),
        1,
        "exactly one failed manifest entry: {failed:?}"
    );
    assert_eq!(failed[0].0, victim);
    assert!(
        failed[0].1.contains(reason_marker),
        "failure reason names the panic: {}",
        failed[0].1
    );
    // Survivors: streams byte-identical to the all-healthy control, CSV
    // rows identical too.
    let ctl_csv = std::fs::read_to_string(control.join("metrics.csv")).expect("control csv");
    let chaos_csv = std::fs::read_to_string(chaos.join("metrics.csv")).expect("chaos csv");
    for i in 0..4 {
        if i == victim {
            continue;
        }
        let name = format!("r{i:04}.jsonl");
        assert_eq!(
            std::fs::read(control.join(&name)).expect("control stream"),
            std::fs::read(chaos.join(&name)).expect("chaos stream"),
            "survivor {name} perturbed by the victim's panic"
        );
        let row = |csv: &str| {
            csv.lines()
                .find(|l| l.starts_with(&format!("{i},")))
                .map(str::to_owned)
        };
        assert_eq!(row(&ctl_csv), row(&chaos_csv), "survivor CSV row {i}");
        assert!(row(&ctl_csv).is_some());
    }
}

#[test]
fn forced_handler_panic_in_one_replica_leaves_survivors_byte_identical() {
    let mut cfg = SweepConfig::new(TOTAL);
    cfg.seeds = 4;
    cfg.threads = 2;
    let healthy = HandlerPanicFactory {
        victim: None,
        at: 24,
    };
    let control = tdir("hp-ctl");
    let ctl = run_sweep(&control, &cfg, &CancelToken::new(), &healthy).expect("control");
    assert!(ctl.complete() && ctl.done == 4);

    let chaos_dir = tdir("hp-chaos");
    let chaos = HandlerPanicFactory {
        victim: Some(2),
        at: 24,
    };
    let r = run_sweep(&chaos_dir, &cfg, &CancelToken::new(), &chaos).expect("chaos sweep");
    assert_one_failure_survivors_intact(&control, &chaos_dir, &r, 2, "panic");
    // The victim's failure is pinned to the injected step.
    let m = manifest::load(&chaos_dir.join(MANIFEST_FILE)).unwrap();
    if let Some(Record::Failed { steps, .. }) = m.latest.get(&2) {
        assert_eq!(*steps, 24, "victim died at the injected step");
    }
    std::fs::remove_dir_all(&control).ok();
    std::fs::remove_dir_all(&chaos_dir).ok();
}

#[test]
fn forced_build_panic_is_isolated_by_the_supervisor() {
    let mut cfg = SweepConfig::new(TOTAL);
    cfg.seeds = 4;
    cfg.threads = 2;
    let healthy = HandlerPanicFactory {
        victim: None,
        at: 0,
    };
    let control = tdir("bp-ctl");
    run_sweep(&control, &cfg, &CancelToken::new(), &healthy).expect("control");

    let chaos_dir = tdir("bp-chaos");
    let chaos = PanicOnBuild {
        inner: HandlerPanicFactory {
            victim: None,
            at: 0,
        },
        victim: 1,
    };
    let r = run_sweep(&chaos_dir, &cfg, &CancelToken::new(), &chaos).expect("chaos sweep");
    assert_one_failure_survivors_intact(&control, &chaos_dir, &r, 1, "injected build panic");
    std::fs::remove_dir_all(&control).ok();
    std::fs::remove_dir_all(&chaos_dir).ok();
}

// ---------------------------------------------------------------------
// Untrusted manifests: damaged lines under a valid CRC, oversized grids.
// ---------------------------------------------------------------------

/// `payload` as a manifest line with its CRC recomputed.
fn crc_line(payload: &[u8]) -> Vec<u8> {
    let mut line = format!("{:08x}\t", liberty_core::snapshot::crc32(payload)).into_bytes();
    line.extend_from_slice(payload);
    line
}

#[test]
fn damaged_manifest_lines_under_a_valid_crc_never_panic_the_loader() {
    // A real manifest with every record type: a param sweep cut by a
    // step budget (start, interrupted with a checkpoint path, summary),
    // resumed until replica 1 panics (failed, with a reason) and the
    // rest finish (done).
    let dir = tdir("mutants");
    let mut cfg = base_config(TOTAL, 1);
    cfg.max_steps = Some(17);
    let factory = HandlerPanicFactory {
        victim: Some(1),
        at: 24,
    };
    run_sweep(&dir, &cfg, &CancelToken::new(), &factory).expect("cut sweep");
    resume_until_complete(&dir, &cfg, &factory, 6);
    let path = dir.join(MANIFEST_FILE);
    let text = std::fs::read(&path).expect("manifest");
    let payloads: Vec<Vec<u8>> = text
        .split(|&c| c == b'\n')
        .filter(|l| !l.is_empty())
        .map(|l| {
            l.splitn(2, |&c| c == b'\t')
                .nth(1)
                .expect("crc field")
                .to_vec()
        })
        .collect();
    for kind in ["sweep", "start", "interrupted", "done", "failed", "summary"] {
        let tag = format!("t={kind} ");
        assert!(
            payloads.iter().any(|p| p.starts_with(tag.as_bytes())),
            "the fixture manifest lacks a `{kind}` record"
        );
    }

    // Every line, truncated at each byte, with each bit flipped, and
    // spliced onto the tail of every other line at a stride. The last
    // line is written without its newline, as a torn append leaves it.
    let (mut cases, mut refused, mut torn, mut panics) = (0u64, 0u64, 0u64, Vec::new());
    for (i, p) in payloads.iter().enumerate() {
        let mut mutants: Vec<Vec<u8>> = (0..p.len()).map(|k| p[..k].to_vec()).collect();
        for at in 0..p.len() {
            for bit in 0..8 {
                let mut m = p.clone();
                m[at] ^= 1 << bit;
                mutants.push(m);
            }
        }
        for (j, q) in payloads.iter().enumerate() {
            if j != i {
                for at in (0..p.len()).step_by(3) {
                    let mut m = p[..at].to_vec();
                    m.extend_from_slice(&q[at.min(q.len())..]);
                    mutants.push(m);
                }
            }
        }
        let last = i + 1 == payloads.len();
        for m in mutants {
            let mut bytes = Vec::new();
            for (k, other) in payloads.iter().enumerate() {
                bytes.extend_from_slice(&crc_line(if k == i { &m } else { other }));
                if !(last && k == i) {
                    bytes.push(b'\n');
                }
            }
            std::fs::write(&path, &bytes).expect("write mutant");
            cases += 1;
            let verdict = std::panic::catch_unwind(|| {
                let loaded = manifest::load(&path).map(|l| l.torn_tail);
                let config = resume_config(&dir).map(|c| c.checked_total());
                (loaded, config)
            });
            let Ok((loaded, config)) = verdict else {
                panics.push(format!("line {i}: {}", String::from_utf8_lossy(&m)));
                continue;
            };
            // A line that does not parse is a torn tail when last and
            // corruption anywhere else. (A flipped bit that makes a
            // newline splits the line; only no-panic holds for those.)
            let parses = Record::parse(&String::from_utf8_lossy(&m)).is_ok();
            if !parses && !m.contains(&b'\n') {
                let what = String::from_utf8_lossy(&m);
                if last {
                    assert!(matches!(loaded, Ok(true)), "line {i} `{what}`: {loaded:?}");
                } else {
                    assert!(loaded.is_err(), "line {i} `{what}` was accepted");
                }
            }
            torn += u64::from(matches!(loaded, Ok(true)));
            refused += u64::from(config.is_err());
            if let Ok(total) = config {
                assert!(total.is_ok(), "resume_config returned an unusable grid");
            }
        }
    }
    assert!(
        panics.is_empty(),
        "{} panics: {:?}",
        panics.len(),
        &panics[..panics.len().min(5)]
    );
    assert!(
        cases > 10_000 && refused > 0 && torn > 0,
        "{cases} cases, {refused} refused, {torn} torn"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn oversized_grids_are_refused_by_every_entry_point() {
    let factory = HandlerPanicFactory {
        victim: None,
        at: 0,
    };
    let geometry = |e: EnsembleError| match e {
        EnsembleError::Geometry(m) => m,
        other => panic!("not a geometry error: {other}"),
    };
    // The CLI shape: both ranges overflowed `hi - lo` before.
    for range in [
        "n=-9223372036854775808..9223372036854775807",
        "n=-1..9223372036854775807",
    ] {
        assert!(ParamSweep::parse(range).is_err(), "{range}");
    }
    // A config built in code.
    let dir = tdir("oversized");
    let mut cfg = SweepConfig::new(4);
    cfg.seeds = u64::MAX;
    let err = run_sweep(&dir, &cfg, &CancelToken::new(), &factory).unwrap_err();
    assert!(geometry(err).contains("replica list"));
    assert!(
        !dir.join(MANIFEST_FILE).exists(),
        "nothing written for a refused grid"
    );
    let err = resume_sweep(&dir, &cfg, &CancelToken::new(), &factory).unwrap_err();
    geometry(err);

    // A manifest header with a valid CRC and an impossible seed count.
    std::fs::create_dir_all(&dir).unwrap();
    let header = b"t=sweep v=1 total=1 seeds=18446744073709551615 base_seed=1 cycles=4 \
                   param=- fault_rate=-";
    let mut bytes = crc_line(header);
    bytes.push(b'\n');
    std::fs::write(dir.join(MANIFEST_FILE), bytes).unwrap();
    assert!(
        manifest::load(&dir.join(MANIFEST_FILE)).is_ok(),
        "the header itself parses"
    );
    geometry(resume_config(&dir).unwrap_err());

    // A header whose `total` disagrees with its own geometry.
    let mut bytes =
        crc_line(b"t=sweep v=1 total=5 seeds=2 base_seed=1 cycles=4 param=- fault_rate=-");
    bytes.push(b'\n');
    std::fs::write(dir.join(MANIFEST_FILE), bytes).unwrap();
    let err = resume_config(&dir).unwrap_err();
    assert!(err.to_string().contains("5 replicas"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any (scheduler, cut depth, lane count, fault plan, base seed)
    /// draw: the repeatedly budget-amputated sweep settles to bytes
    /// identical to its uninterrupted control.
    #[test]
    fn any_budget_cut_resumes_identically(
        sched_ix in 0usize..ALL_SCHEDS.len(),
        cut in 5u64..40,
        threads in 1usize..4,
        base_seed in any::<u64>(),
        faulty in any::<bool>(),
        rate in 0.05f64..0.3,
    ) {
        let sched = ALL_SCHEDS[sched_ix];
        let factory = LssFactory::new(ENSEMBLE_SPEC, sched);
        let mut cfg = base_config(TOTAL, threads);
        cfg.base_seed = base_seed;
        if faulty {
            cfg.fault_rate = Some(rate);
        }
        let ctx = format!("{sched:?} cut={cut} threads={threads} faulty={faulty}");
        let control = tdir(&format!("pp-ctl-{sched_ix}"));
        let ctl = run_sweep(&control, &cfg, &CancelToken::new(), &factory).expect("control");
        prop_assert!(ctl.complete(), "{}: {}", ctx, ctl.render());

        let cut_dir = tdir(&format!("pp-cut-{sched_ix}"));
        let mut cut_cfg = cfg.clone();
        cut_cfg.max_steps = Some(cut);
        let first = run_sweep(&cut_dir, &cut_cfg, &CancelToken::new(), &factory).expect("cut");
        prop_assert!(!first.complete(), "{}: a {cut}-step budget must interrupt", ctx);
        resume_until_complete(&cut_dir, &cut_cfg, &factory, 12);
        assert_dirs_eq(&control, &cut_dir, 4, &ctx);
        std::fs::remove_dir_all(&control).ok();
        std::fs::remove_dir_all(&cut_dir).ok();
    }
}

// ---------------------------------------------------------------------
// Real process death: SIGINT and SIGKILL against a child sweep.
// ---------------------------------------------------------------------

#[cfg(unix)]
mod child {
    use super::*;
    use std::process::{Child, Command, Stdio};

    const CHILD_CYCLES: u64 = 4000;

    fn spawn_child(dir: &Path) -> Child {
        Command::new(env!("CARGO_BIN_EXE_sweep_child"))
            .arg(dir)
            .arg(CHILD_CYCLES.to_string())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn sweep_child")
    }

    /// Wait until some replica has a durable checkpoint. Returns true if
    /// the child was still mid-sweep at that moment (the interesting
    /// case); false if it finished first (interruption degenerates to a
    /// no-op resume, still asserted).
    fn wait_for_checkpoint(dir: &Path, c: &mut Child) -> bool {
        let deadline = std::time::Instant::now() + Duration::from_secs(120);
        while std::time::Instant::now() < deadline {
            let found = (0..4).any(|i| {
                std::fs::read_dir(dir.join(format!("r{i:04}.ckpt")))
                    .map(|mut d| d.next().is_some())
                    .unwrap_or(false)
            });
            let running = c.try_wait().expect("try_wait").is_none();
            if found {
                return running;
            }
            if !running {
                return false;
            }
            std::thread::sleep(Duration::from_micros(300));
        }
        panic!("sweep_child produced no checkpoint within 120s");
    }

    fn control_dir(tag: &str, factory: &LssFactory) -> PathBuf {
        let control = tdir(tag);
        let mut cfg = child_config(CHILD_CYCLES);
        cfg.checkpoint_every = 0; // execution knob: the control needs none
        let ctl = run_sweep(&control, &cfg, &CancelToken::new(), factory).expect("control");
        assert!(ctl.complete(), "{}", ctl.render());
        control
    }

    #[test]
    fn hard_killed_sweep_resumes_byte_identically() {
        let factory = LssFactory::new(ENSEMBLE_SPEC, SchedKind::Compiled);
        let control = control_dir("kill-ctl", &factory);

        let dir = tdir("kill");
        let mut c = spawn_child(&dir);
        let mid_flight = wait_for_checkpoint(&dir, &mut c);
        c.kill().ok(); // SIGKILL: no destructors, no flushes, no summary
        c.wait().expect("reap child");
        if !mid_flight {
            eprintln!("note: child completed before the kill; resume is a no-op pass");
        }

        // The manifest may end in a torn line and parked `start` records;
        // resume must still reconstruct the exact bytes.
        let r = resume_sweep(
            &dir,
            &child_config(CHILD_CYCLES),
            &CancelToken::new(),
            &factory,
        )
        .expect("resume after kill -9");
        assert!(r.complete(), "{}", r.render());
        assert_dirs_eq(&control, &dir, 4, "kill -9");
        std::fs::remove_dir_all(&control).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sigint_parks_the_child_cleanly_and_the_child_resumes_it() {
        let factory = LssFactory::new(ENSEMBLE_SPEC, SchedKind::Compiled);
        let control = control_dir("int-ctl", &factory);

        let dir = tdir("int");
        let mut c = spawn_child(&dir);
        let mid_flight = wait_for_checkpoint(&dir, &mut c);
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        unsafe {
            kill(c.id() as i32, 2); // SIGINT
        }
        let status = c.wait().expect("reap child");
        if mid_flight && status.code() == Some(2) {
            // Clean interruption: every in-flight replica parked with a
            // clean-cut checkpoint and the manifest closes with a summary.
            let m = manifest::load(&dir.join(MANIFEST_FILE)).expect("manifest");
            match m.summaries.last() {
                Some(Record::Summary {
                    done,
                    failed,
                    interrupted,
                    pending,
                }) => {
                    assert_eq!(done + failed + interrupted + pending, 4);
                    assert!(interrupted + pending > 0, "exit code 2 implies work left");
                }
                other => panic!("manifest must close with a summary, got {other:?}"),
            }
            for rec in m.latest.values() {
                if let Record::Interrupted { cause, ckpt, .. } = rec {
                    assert_eq!(cause, "cancel");
                    assert!(ckpt.is_some(), "cancellation records its checkpoint");
                }
            }
        } else {
            eprintln!("note: SIGINT landed after completion; resume is a no-op pass");
        }

        // Resume through the child binary itself (the CLI path).
        let status = Command::new(env!("CARGO_BIN_EXE_sweep_child"))
            .arg(&dir)
            .arg(CHILD_CYCLES.to_string())
            .arg("resume")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .expect("resume child");
        assert!(status.success(), "resume run completes the sweep");
        assert_dirs_eq(&control, &dir, 4, "sigint");
        std::fs::remove_dir_all(&control).ok();
        std::fs::remove_dir_all(&dir).ok();
    }
}
