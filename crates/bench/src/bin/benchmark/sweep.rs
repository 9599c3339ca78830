//! The `sweep_durable` workload: a supervised, checkpointed replica sweep
//! through `liberty_ensemble::run_sweep`, the way a user explores a
//! parameter range and expects to survive a kill. Its cost is a result of
//! its own: one ensemble replica runs at a fraction of a bare run's speed.
//!
//! The fixture and factory are copies of the resilience suite's, so that
//! suite can change without moving this workload.

use crate::alloc;
use crate::child::{exec_counts, snapshot_probes, structure, ChildArgs, Mode, Record};
use crate::cpu;
use crate::spans::Spans;
use liberty_core::prelude::*;
use liberty_core::snapshot::crc32;
use liberty_ensemble::{
    resume_sweep, run_sweep, ManifestWriter, ParamSweep, Record as ManifestRecord, ReplicaFactory,
    ReplicaSpec, SweepConfig, SweepHeader, SweepReport, TopoCache, MANIFEST_FILE,
};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// A PCL mix whose sources stay busy for the whole horizon and whose
/// queue depth is the swept parameter.
const FIXTURE: &str = r#"
module main {
    param depth = 4;
    instance a : seq_source { count = 100000; };
    instance b : seq_source { count = 100000; start = 500000; };
    instance arb : arbiter { policy = "round_robin"; };
    instance q : queue { depth = depth; };
    instance d : delay { latency = 2; };
    instance dst : sink;
    connect a.out -> arb.in;
    connect b.out -> arb.in;
    connect arb.out -> q.in;
    connect q.out -> d.in;
    connect d.out -> dst.in;
}
"#;

/// Sweeps per repetition, each its own timed window, and steps per
/// replica. One 4000-step sweep would be a single 120 ms window, too long
/// to fall inside one fast spell of the host; four 30 ms windows do.
const SWEEPS: u64 = 4;
const CYCLES: u64 = 1000;
const SMOKE_CYCLES: u64 = 300;
/// Pinned CRC32 over the four replica streams of one full sweep.
const PINNED_STREAMS: u32 = 0x2659_5181;
/// Records appended to time one manifest append.
const APPENDS: u64 = 64;

/// Parse and elaborate per replica, then run the fresh modules over the
/// parameter point's shared topology — the construction path the sweep
/// CLI uses.
struct Factory {
    registry: Registry,
    cache: TopoCache,
}

impl ReplicaFactory for Factory {
    fn build(&self, spec: &ReplicaSpec) -> Result<Simulator, SimError> {
        let ast = liberty_lss::parse(FIXTURE)?;
        let (net, _) =
            liberty_lss::elaborate(&ast, &self.registry, "main", &spec.params(&Params::new()))?;
        let (topo, modules) = net.into_parts();
        let shared = self.cache.unify(&spec.point_label(), topo);
        Ok(Simulator::from_parts(shared, modules, SchedKind::Compiled))
    }
}

fn factory() -> Factory {
    Factory {
        registry: liberty_systems::full_registry(),
        cache: TopoCache::new(),
    }
}

/// 2 depths x 2 seeds, a checkpoint every 256 steps. One lane: on this
/// two-core host a two-lane sweep is at its floor only while both cores
/// are in their fast regime at once, and its floor moved 16% between
/// sets where the one-lane floor moves 3%.
fn grid(seed: u64, cycles: u64) -> SweepConfig {
    let mut cfg = SweepConfig::new(cycles);
    cfg.sweep = Some(ParamSweep::parse("depth=2..3").expect("static sweep"));
    cfg.seeds = 2;
    cfg.base_seed = seed;
    cfg.threads = 1;
    cfg.checkpoint_every = 256;
    cfg
}

/// One replica, one lane, no periodic checkpoints: what is left is the
/// harness itself.
fn single(seed: u64, cycles: u64) -> SweepConfig {
    let mut cfg = SweepConfig::new(cycles);
    cfg.base_seed = seed;
    cfg.checkpoint_every = 0;
    cfg
}

fn sweep(dir: &Path, cfg: &SweepConfig, factory: &Factory) -> Result<SweepReport, String> {
    run_sweep(dir, cfg, &CancelToken::new(), factory).map_err(|e| e.to_string())
}

fn streams(dir: &Path, cfg: &SweepConfig) -> Result<Vec<Vec<u8>>, String> {
    cfg.replicas()
        .iter()
        .map(|r| {
            let path = dir.join(format!("{}.jsonl", r.file_stem()));
            std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))
        })
        .collect()
}

pub fn rep(
    args: &ChildArgs,
    scratch: &Path,
    rec: &mut Record,
    spans: &mut Spans,
) -> Result<(), String> {
    let traced = args.mode == Mode::Traced;
    let cycles = if args.smoke { SMOKE_CYCLES } else { CYCLES };
    let cfg = grid(args.seed, cycles);
    let err = |e: SimError| e.to_string();

    // Set-up: one replica, layer by layer, to the end of its first step.
    let factory = factory();
    let spec0 = cfg
        .replicas()
        .into_iter()
        .next()
        .expect("grid is not empty");
    cpu::settle();
    spans.enter("setup");
    spans.enter("ensemble.replica_build");
    let ast = spans
        .scope("lss.parse", || liberty_lss::parse(FIXTURE))
        .map_err(err)?;
    let (net, _) = spans
        .scope("lss.elaborate", || {
            liberty_lss::elaborate(
                &ast,
                &factory.registry,
                "main",
                &spec0.params(&Params::new()),
            )
        })
        .map_err(err)?;
    let (topo, modules) = spans.scope("core.topology", || net.into_parts());
    let topo = Arc::new(topo);
    spans.scope("core.compile", || {
        topo.plan();
    });
    let mut sim = spans.scope("core.exec.construct", || {
        Simulator::from_parts(topo, modules, SchedKind::Compiled)
    });
    spans.exit();
    spans
        .scope("core.exec.first_step", || sim.step())
        .map_err(err)?;
    spans.exit();
    rec.count("lss_bytes", FIXTURE.len() as u64);

    // The timed sweeps: each `run_sweep` call is one window.
    let dir = |k: u64| scratch.join(format!("sweep{k}"));
    let replica_steps = cfg.total() as u64 * cycles;
    let mut reports = Vec::new();
    let mut timed = Vec::new();
    let before = alloc::counted();
    if traced {
        alloc::set_counting(true);
    }
    for k in 0..SWEEPS {
        let cfg_k = grid(args.seed.wrapping_add(k), cycles);
        cpu::settle();
        let t = Instant::now();
        let report = sweep(&dir(k), &cfg_k, &factory);
        let end = Instant::now();
        rec.window(k as usize, (end - t).as_nanos() as u64, replica_steps);
        timed.push((t, end));
        reports.push(report);
    }
    alloc::set_counting(false);
    let after = alloc::counted();
    // The four sweeps do identical work (a fixture without stochastic
    // templates ignores its seed), so they share one floor: four times
    // the samples for a minimum that file-system state makes hard to hit.
    rec.uniform();
    spans.enter("run");
    for (k, &(t, end)) in timed.iter().enumerate() {
        spans.record(format!("core.exec.window[{k}]"), t, end);
    }
    spans.exit();

    // Checks: every replica ran its full horizon and moved items (the
    // busy-window guard), and its stream matches a control sweep of one
    // replica per depth that took no periodic checkpoints. (The fixture has no stochastic template, so replicas
    // of one depth must agree whatever their seed.)
    spans.enter("check");
    let mut control_cfg = cfg.clone();
    control_cfg.seeds = 1;
    control_cfg.checkpoint_every = 0;
    let control_dir = scratch.join("control");
    sweep(&control_dir, &control_cfg, &factory)?;
    let control = streams(&control_dir, &control_cfg)?;
    let want: Vec<&Vec<u8>> = cfg
        .replicas()
        .iter()
        .map(|r| &control[r.index / cfg.seeds as usize])
        .collect();
    let mut first = Vec::new();
    for (k, report) in reports.into_iter().enumerate() {
        let report = report?;
        if !report.complete() || report.failed > 0 {
            rec.fail(&format!("sweep {k} incomplete: {}", report.render()));
        }
        for r in &report.replicas {
            match &r.record {
                ManifestRecord::Done {
                    steps, transfers, ..
                } if *steps == cycles && *transfers > 0 => {}
                other => rec.fail(&format!(
                    "sweep {k} replica {} settled as {other:?}",
                    r.spec.index
                )),
            }
        }
        let got = streams(&dir(k as u64), &cfg)?;
        if got.iter().ne(want.iter().copied()) {
            rec.fail(&format!(
                "sweep {k}: replica streams differ from the control's"
            ));
        }
        if k == 0 {
            first = got;
        }
    }
    let digest = crc32(&first.concat());
    rec.count("digest", u64::from(digest));
    if !args.smoke && digest != PINNED_STREAMS {
        rec.fail(&format!(
            "sim_digest {digest:#010x} differs from the pinned value"
        ));
    }
    spans.exit();

    if traced {
        rec.count("allocs", after.0 - before.0);
        rec.count("alloc_bytes", after.1 - before.1);
        let stream_bytes = first.iter().map(|s| s.len() as u64).sum();
        rec.count("stream_bytes", stream_bytes);
        layer_probes(scratch, &dir(0), &cfg, &factory, rec, spans)?;
    }
    Ok(())
}

/// The traced pass's calls into `ensemble`, `core.snapshot` and the bare
/// engine, one span each.
fn layer_probes(
    scratch: &Path,
    dir: &Path,
    cfg: &SweepConfig,
    factory: &Factory,
    rec: &mut Record,
    spans: &mut Spans,
) -> Result<(), String> {
    // What the sweep left on disk.
    let manifest = std::fs::metadata(dir.join(MANIFEST_FILE)).map_or(0, |m| m.len());
    let mut checkpoints = 0u64;
    for r in cfg.replicas() {
        let ckpts = dir.join(format!("{}.ckpt", r.file_stem()));
        checkpoints += std::fs::read_dir(&ckpts).map_or(0, |d| d.count() as u64);
    }
    rec.count("manifest_bytes", manifest);
    rec.count("checkpoints_written", checkpoints);

    // Resuming a finished sweep: load the manifest, skip everything.
    let resumed = spans
        .scope("ensemble.resume_noop", || {
            resume_sweep(dir, cfg, &CancelToken::new(), factory)
        })
        .map_err(|e| e.to_string())?;
    if resumed.skipped != cfg.total() {
        rec.fail("resume over a complete manifest re-ran a replica");
    }

    // One manifest append.
    let path = scratch.join("append.tsv");
    let mut w = ManifestWriter::create(&path, &SweepHeader::of(cfg)).map_err(|e| e.to_string())?;
    spans
        .scope("ensemble.manifest_append", || {
            (0..APPENDS).try_for_each(|r| w.append(&ManifestRecord::Start { r: r as usize }))
        })
        .map_err(|e| e.to_string())?;
    rec.count("manifest_appends", APPENDS);

    // The harness's price: a one-replica sweep against the same replica
    // run bare, streaming the same canonical JSONL through a buffer.
    let one = single(cfg.base_seed, cfg.cycles);
    let one_dir = scratch.join("single");
    let done = spans.scope("ensemble.single", || sweep(&one_dir, &one, factory))?;
    if !done.complete() {
        rec.fail("one-replica sweep incomplete");
    }
    let spec = one.replicas().into_iter().next().expect("one replica");
    let bare_path = scratch.join("bare.jsonl");
    let mut sim = spans.scope("ensemble.bare", || -> Result<Simulator, String> {
        let mut sim = factory.build(&spec).map_err(|e| e.to_string())?;
        let file = std::fs::File::create(&bare_path).map_err(|e| e.to_string())?;
        let out = std::io::BufWriter::new(file);
        sim.set_probe(Box::new(JsonlProbe::new(out).canonical()));
        let report = sim.run_governed(cfg.cycles);
        drop(sim.take_probe());
        match report.error {
            Some(e) => Err(e.to_string()),
            None => Ok(sim),
        }
    })?;

    // The bare replica stands in for the engine-level metrics.
    exec_counts(&sim.metrics(), rec);
    structure(&sim, rec);
    snapshot_probes(&mut sim, scratch, rec, spans)
}
