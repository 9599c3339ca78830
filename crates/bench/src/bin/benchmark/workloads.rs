//! The five simulator workloads (`sweep_durable` lives in `sweep.rs`):
//! their seed-derived inputs, the set-up path cut into one span per layer
//! call, the stop condition, the simulated-progress counter behind the
//! busy-window guard, and the output check.
//!
//! Everything here goes through the public API of the library crates;
//! README.md lists the symbols, so a refactor knows which signatures the
//! benchmark follows.

use crate::lssgen::{self, Shape};
use crate::spans::Spans;
use liberty_core::prelude::*;
use liberty_core::snapshot::crc32;
use liberty_systems::cmp::{build_cmp, CmpConfig};
use liberty_upl::core::{build_core, CoreConfig};
use liberty_upl::emu::Machine;
use liberty_upl::isa::Program;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Steps `pcl_pipe` runs (the first belongs to set-up).
const PCL_STEPS: u64 = 160_000;
/// Register stages in the `pcl_pipe` word pipeline.
const PCL_STAGES: usize = 20;
/// Steps `lss_front` runs after set-up's first.
const LSS_STEPS: u64 = 20;
/// `cmp8` producer/consumer items: above 256 the per-pair memory regions
/// overlap and `check_results()` fails.
const CMP_ITEMS: u64 = 256;
/// No workload needs more steps than this; a run that reaches it failed.
pub const STEP_CAP: u64 = 1_000_000;

/// Pinned CRC32 of each workload's simulated statistics (see
/// [`stats_digest`]): a simulator-only speed-up must leave them alone.
pub fn pinned_digest(workload: &str) -> Option<u32> {
    Some(match workload {
        "cmp8" | "cmp8_observed" => 0x5189_2bee,
        "core4" => 0xcda7_7966,
        "pcl_pipe" => 0x4afe_f21f,
        "lss_front" => 0xc7da_154a,
        _ => return None,
    })
}

/// What observes the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SinkKind {
    /// The workload's own sink: none, except `cmp8_observed`'s JSONL file.
    Own,
    Off,
    Counting,
    Jsonl,
    Vcd,
    Profile,
    /// No probe, but the run supervisor armed with a budget that never
    /// binds.
    Governed,
}

impl SinkKind {
    /// The variants the traced pass measures against `Off`.
    pub const VARIANTS: [SinkKind; 6] = [
        SinkKind::Off,
        SinkKind::Counting,
        SinkKind::Jsonl,
        SinkKind::Vcd,
        SinkKind::Profile,
        SinkKind::Governed,
    ];

    pub fn label(self) -> &'static str {
        match self {
            SinkKind::Own => "own",
            SinkKind::Off => "off",
            SinkKind::Counting => "counting",
            SinkKind::Jsonl => "jsonl",
            SinkKind::Vcd => "vcd",
            SinkKind::Profile => "profile",
            SinkKind::Governed => "governed",
        }
    }

    pub fn parse(s: &str) -> Option<SinkKind> {
        [SinkKind::Own]
            .into_iter()
            .chain(SinkKind::VARIANTS)
            .find(|k| k.label() == s)
    }
}

/// Read side of an attached sink.
pub enum Tap {
    None,
    Counting(ProbeCountsHandle),
    /// Bytes a discarding JSONL writer was handed.
    Bytes(Arc<AtomicU64>),
    Profile(ProfileHandle),
    /// A JSONL stream on disk.
    File(std::path::PathBuf),
}

/// A writer that counts and discards.
struct CountWrite(Arc<AtomicU64>);

impl Write for CountWrite {
    fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
        self.0.fetch_add(b.len() as u64, Ordering::Relaxed);
        Ok(b.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Install `kind` on `sim`; `own_file` is where an `Own` JSONL stream
/// goes (only `cmp8_observed` has one).
pub fn attach(sim: &mut Simulator, kind: SinkKind, own_file: Option<&Path>) -> Result<Tap, String> {
    Ok(match kind {
        SinkKind::Own => match own_file {
            None => Tap::None,
            Some(path) => {
                let file = std::fs::File::create(path)
                    .map_err(|e| format!("create {}: {e}", path.display()))?;
                let out = std::io::BufWriter::with_capacity(1 << 16, file);
                sim.set_probe(Box::new(JsonlProbe::new(out).canonical()));
                Tap::File(path.to_owned())
            }
        },
        SinkKind::Off => Tap::None,
        SinkKind::Counting => {
            let (p, h) = CountingProbe::new();
            sim.set_probe(Box::new(p));
            Tap::Counting(h)
        }
        SinkKind::Jsonl => {
            let n = Arc::new(AtomicU64::new(0));
            let out = std::io::BufWriter::with_capacity(1 << 16, CountWrite(n.clone()));
            sim.set_probe(Box::new(JsonlProbe::new(out).canonical()));
            Tap::Bytes(n)
        }
        SinkKind::Vcd => {
            sim.set_probe(Box::new(VcdProbe::new(std::io::sink())));
            Tap::None
        }
        SinkKind::Profile => {
            let (p, h) = Profiler::new();
            sim.set_probe(Box::new(p));
            Tap::Profile(h)
        }
        SinkKind::Governed => {
            sim.set_budget(RunBudget::new().max_steps(u64::MAX));
            Tap::None
        }
    })
}

/// Which simulated counter must advance in every timed window.
pub enum Progress {
    /// Instructions retired by these decode stages.
    Retired(Vec<InstanceId>),
    /// Items delivered across any edge.
    Transfers,
}

impl Progress {
    pub fn read(&self, sim: &Simulator) -> u64 {
        match self {
            Progress::Retired(decodes) => decodes
                .iter()
                .map(|&d| sim.stats().counter(d, "retired"))
                .sum(),
            Progress::Transfers => sim.transfer_counts().iter().sum(),
        }
    }
}

type Check = Box<dyn FnOnce(&Simulator) -> Result<(), String>>;

/// One simulator ready for its first step, plus what the run loop and
/// the checks need.
pub struct Rig {
    pub sim: Simulator,
    /// Steps per timed window.
    pub window: u64,
    /// Step count at which a fixed-length run ends.
    pub horizon: u64,
    /// True once a run-to-completion workload is done (polled each step).
    pub halted: Box<dyn Fn() -> bool>,
    /// Steps run after `halted` to drain in-flight writebacks.
    pub drain: u64,
    pub progress: Progress,
    /// Output check, run after a complete run.
    pub check: Check,
}

/// A workload's inputs, made from the seed before any timer starts.
pub enum Input {
    Cmp { observed: bool },
    Core4 { programs: Vec<Arc<Program>> },
    Pcl { start: u64, a: u64, b: u64 },
    Lss { text: String, shape: Shape },
}

impl Input {
    pub fn new(workload: &str, seed: u64, smoke: bool) -> Option<Input> {
        let mut rng = seed;
        Some(match workload {
            // `build_cmp` hard-codes its NoC traffic seed, so the seed
            // cannot reach these two.
            "cmp8" => Input::Cmp { observed: false },
            "cmp8_observed" => Input::Cmp { observed: true },
            "core4" => Input::Core4 {
                programs: liberty_upl::program::catalog()
                    .into_iter()
                    .map(Arc::new)
                    .collect(),
            },
            "pcl_pipe" => Input::Pcl {
                start: lssgen::splitmix(&mut rng) % 1_000_000,
                a: lssgen::splitmix(&mut rng) % 1000,
                b: lssgen::splitmix(&mut rng) % 1000,
            },
            "lss_front" => {
                let shape = if smoke { lssgen::SMOKE } else { lssgen::FULL };
                Input::Lss {
                    text: lssgen::generate(seed, shape),
                    shape,
                }
            }
            _ => return None,
        })
    }

    /// Simulators this workload builds and runs, one after the other.
    pub fn segments(&self) -> usize {
        match self {
            Input::Core4 { programs } => programs.len(),
            _ => 1,
        }
    }

    /// True when the workload streams its own JSONL to a file.
    pub fn observed(&self) -> bool {
        matches!(self, Input::Cmp { observed: true })
    }

    /// Input bytes the LSS front end reads (0 when it is not entered).
    pub fn lss_bytes(&self) -> u64 {
        match self {
            Input::Lss { text, .. } => text.len() as u64,
            _ => 0,
        }
    }

    /// Build segment `seg` up to, not including, its first step.
    pub fn build(&self, seg: usize, spans: &mut Spans) -> Result<Rig, String> {
        match self {
            Input::Cmp { .. } => build_cmp8(spans),
            Input::Core4 { programs } => build_core4(programs[seg].clone(), spans),
            Input::Pcl { start, a, b } => build_pcl(*start, *a, *b, spans),
            Input::Lss { text, shape } => build_lss(text, *shape, spans),
        }
    }
}

fn err(e: SimError) -> String {
    e.to_string()
}

/// The layers every workload crosses after its netlist exists: topology
/// tables, plan compilation, simulator construction.
fn assemble(net: Netlist, spans: &mut Spans) -> Simulator {
    let (topo, modules) = spans.scope("core.topology", || net.into_parts());
    let topo = Arc::new(topo);
    spans.scope("core.compile", || {
        topo.plan();
    });
    spans.scope("core.exec.construct", || {
        Simulator::from_parts(topo, modules, SchedKind::Compiled)
    })
}

fn build_cmp8(spans: &mut Spans) -> Result<Rig, String> {
    let cfg = CmpConfig {
        cores: 8,
        items: CMP_ITEMS,
        ordering: None,
        with_noc: true,
        noc_rate: 0.05,
    };
    let (net, cmp) = spans
        .scope("systems.cmp.build", || {
            let mut b = NetlistBuilder::new();
            let cmp = build_cmp(&mut b, "", &cfg)?;
            Ok::<_, SimError>((b.build()?, cmp))
        })
        .map_err(err)?;
    let sim = assemble(net, spans);
    let cmp = Arc::new(cmp);
    let done = cmp.clone();
    Ok(Rig {
        sim,
        window: 256,
        horizon: STEP_CAP,
        halted: Box::new(move || done.done()),
        drain: 0,
        progress: Progress::Retired(cmp.cores.iter().map(|c| c.ids.decode).collect()),
        check: Box::new(move |_| cmp.check_results()),
    })
}

/// The stage-4 core of the refinement experiment: bimodal predictor,
/// D-cache, slow DRAM.
fn stage4() -> CoreConfig {
    CoreConfig {
        fetch_q: 4,
        iw: 4,
        rob: 8,
        predictor: Some(Params::new().with("kind", "bimodal")),
        cache: Some(Params::new()),
        mem_latency: 12,
        ..CoreConfig::default()
    }
}

fn build_core4(prog: Arc<Program>, spans: &mut Spans) -> Result<Rig, String> {
    let (net, handles) = spans
        .scope("upl.core.build", || {
            let mut b = NetlistBuilder::new();
            let (handles, _) = build_core(&mut b, "", prog.clone(), &stage4())?;
            Ok::<_, SimError>((b.build()?, handles))
        })
        .map_err(err)?;
    let sim = assemble(net, spans);
    let halted = handles.arch.halted.clone();
    let decode = handles.ids.decode;
    Ok(Rig {
        sim,
        // One window per program: the run ends at halt, not at a count.
        window: STEP_CAP,
        horizon: STEP_CAP,
        halted: Box::new(move || halted.load(Ordering::SeqCst)),
        drain: 16,
        progress: Progress::Retired(vec![decode]),
        check: Box::new(move |sim| {
            // The independent reference: a functional emulator that
            // shares no code with the structural pipeline.
            let mut emu = Machine::new(&prog);
            emu.run(&prog, 50_000_000).map_err(err)?;
            if *handles.arch.regs.lock() != emu.regs {
                return Err(format!("{}: registers differ from emu::Machine", prog.name));
            }
            let retired = sim.stats().counter(decode, "retired");
            if retired != emu.retired {
                return Err(format!(
                    "{}: retired {retired}, emu::Machine retired {}",
                    prog.name, emu.retired
                ));
            }
            Ok(())
        }),
    })
}

/// The 48-instance specializable pipeline (a copy of the kernel bench's,
/// so that bench can change without moving this workload): a
/// backpressured queue/register word pipeline, a tee-fed inverter/delay
/// side channel and a repeating-tuple ALU stream.
fn build_pcl(start: u64, a: u64, b_op: u64, spans: &mut Spans) -> Result<Rig, String> {
    use liberty_pcl::{alu, delay, inverter, queue, register, sink, source, tee};
    let net = spans
        .scope("pcl.build", || {
            let mut b = NetlistBuilder::new();
            let p = Params::new;
            let (s, m) = source::seq(&p().with("start", start as i64))?;
            let gen = b.add("gen", s, m)?;
            let (s, m) = tee::tee(&p())?;
            let t = b.add("tee", s, m)?;
            b.connect(gen, "out", t, "in")?;
            let mut prev = t;
            for i in 0..PCL_STAGES {
                let (s, m) = queue::queue(&p().with("depth", 2i64))?;
                let q = b.add(format!("q{i}"), s, m)?;
                b.connect(prev, "out", q, "in")?;
                let (s, m) = register::reg(&p())?;
                let r = b.add(format!("r{i}"), s, m)?;
                b.connect(q, "out", r, "in")?;
                prev = r;
            }
            let (s, m) = sink::counting(&p())?;
            let k0 = b.add("k0", s, m)?;
            b.connect(prev, "out", k0, "in")?;
            let (s, m) = inverter::inverter(&p())?;
            let inv = b.add("inv", s, m)?;
            b.connect(t, "out", inv, "in")?;
            let (s, m) = delay::delay(&p().with("latency", 2i64))?;
            let d = b.add("dly", s, m)?;
            b.connect(inv, "out", d, "in")?;
            let (s, m) = sink::counting(&p())?;
            let k1 = b.add("k1", s, m)?;
            b.connect(d, "out", k1, "in")?;
            let (s, m) = source::repeating(alu::op_value(0, a, b_op));
            let ops = b.add("ops", s, m)?;
            let (s, m) = alu::alu(&p())?;
            let al = b.add("alu", s, m)?;
            b.connect(ops, "out", al, "in")?;
            let (s, m) = queue::queue(&p().with("depth", 4i64))?;
            let aq = b.add("aq", s, m)?;
            b.connect(al, "out", aq, "in")?;
            let (s, m) = sink::counting(&p())?;
            let k2 = b.add("k2", s, m)?;
            b.connect(aq, "out", k2, "in")?;
            b.build()
        })
        .map_err(err)?;
    let sim = assemble(net, spans);
    Ok(Rig {
        sim,
        window: 8000,
        horizon: PCL_STEPS,
        halted: Box::new(|| false),
        drain: 0,
        progress: Progress::Transfers,
        check: Box::new(move |sim| {
            // Closed forms. The queue/register pipeline moves one item
            // every other cycle once its 2-cycle stages have filled; the
            // side channel and the ALU stream run at full rate.
            let n = sim.now();
            let k0 = (n - 2 * PCL_STAGES as u64).div_ceil(2);
            let expect = [
                ("k0", k0, k0 * start + k0 * (k0 - 1) / 2),
                ("k1", n - 2, (n - 1) / 2),
                ("k2", n - 1, (n - 1) * (a + b_op)),
            ];
            for (name, received, sum) in expect {
                let id = sim.instance_by_name(name).ok_or("missing sink")?;
                let got = (
                    sim.stats().counter(id, "received"),
                    sim.stats().counter(id, "sum"),
                );
                if got != (received, sum) {
                    return Err(format!(
                        "{name}: received/sum {got:?}, closed form {:?}",
                        (received, sum)
                    ));
                }
            }
            Ok(())
        }),
    })
}

fn build_lss(text: &str, shape: Shape, spans: &mut Spans) -> Result<Rig, String> {
    let ast = spans
        .scope("lss.parse", || liberty_lss::parse(text))
        .map_err(err)?;
    let (net, report) = spans
        .scope("lss.elaborate", || {
            let reg = liberty_systems::full_registry();
            liberty_lss::elaborate(&ast, &reg, "main", &Params::new())
        })
        .map_err(err)?;
    if report.leaf_instances as u64 != shape.leaves() {
        return Err(format!(
            "elaborated {} leaves, generator promised {}",
            report.leaf_instances,
            shape.leaves()
        ));
    }
    drop(ast);
    let sim = assemble(net, spans);
    Ok(Rig {
        sim,
        window: 2,
        horizon: LSS_STEPS + 1,
        halted: Box::new(|| false),
        drain: 0,
        progress: Progress::Transfers,
        check: Box::new(move |sim| {
            // Closed form: a sink behind `lanes` queue/register pairs has
            // received one item every other cycle since they filled.
            let n = sim.now();
            let behind = |lanes: u64| (n + 1).saturating_sub(2 * lanes) / 2;
            let want = shape.chains * behind(lssgen::CHAIN_LANES)
                + shape.clusters * lssgen::ROWS * behind(lssgen::LANES);
            let got = sim.stats().counter_total("received");
            if got != want {
                return Err(format!("sinks received {got}, closed form {want}"));
            }
            Ok(())
        }),
    })
}

/// CRC32 over the simulated statistics and the step count. Value sums
/// (`*.sum`) are left out: they follow the seed, and the closed-form
/// checks cover them.
pub fn stats_digest(sim: &Simulator) -> u32 {
    let r = sim.report();
    let mut text = format!("now={}\n", sim.now());
    for (k, v) in &r.counters {
        if !k.ends_with(".sum") {
            text.push_str(&format!("c {k} {v}\n"));
        }
    }
    for (k, s) in &r.samples {
        text.push_str(&format!(
            "s {k} {} {:016x} {:016x} {:016x}\n",
            s.n,
            s.sum.to_bits(),
            s.min.to_bits(),
            s.max.to_bits()
        ));
    }
    for (k, h) in &r.histograms {
        text.push_str(&format!("h {k} {} {}", h.count(), h.sum()));
        for (lo, hi, n) in h.buckets() {
            text.push_str(&format!(" {lo}-{hi}:{n}"));
        }
        text.push('\n');
    }
    crc32(text.as_bytes())
}

/// The library a template belongs to. The registry knows the templates
/// LSS can name; the stages `build_core`, `build_grid` and
/// `shared_memory` add directly are listed here.
pub fn library_of(template: &str, registry: &Registry) -> Option<String> {
    if let Ok(t) = registry.get(template) {
        return Some(t.library.clone());
    }
    let lib = match template {
        "fetch" | "decode" | "execute" | "memstage" | "predictor" | "cache" => "upl",
        "route_compute" => "ccl",
        "snoop_bus" => "mpl",
        "mem_array" | "repeating_source" | "script_source" => "pcl",
        _ => return None,
    };
    Some(lib.to_owned())
}
