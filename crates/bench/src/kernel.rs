//! Kernel throughput workloads shared by `benches/kernel.rs` and the
//! experiment report's kernel-throughput section.
//!
//! Three representative netlists exercise the per-timestep kernel paths:
//! a large mesh (many edges, moderate activity), the E2 chip
//! multiprocessor (heterogeneous templates, bus + NoC), and the E8
//! stage-4 core (deep pipeline with predictor and D-cache). Throughput is
//! reported as simulated time-steps per host second.

use crate::timed;
use liberty_ccl::topology::build_grid;
use liberty_ccl::traffic::{traffic_gen, traffic_sink, Pattern, TrafficCfg};
use liberty_core::prelude::*;
use liberty_systems::cmp::{cmp_simulator, CmpConfig};
use liberty_upl::core::{core_simulator, CoreConfig};
use liberty_upl::program;
use std::sync::Arc;

/// Names of the kernel throughput workloads, in report order.
///
/// The first three are system-level netlists; all contain cyclic SCCs, so
/// the compiled scheduler runs them as island fixed points. The
/// `(acyclic)` workloads are pure-DAG kernel microbenchmarks with
/// minimal handler bodies — they isolate per-react scheduler overhead,
/// which is exactly what schedule compilation removes. All three are
/// built in anti-topological creation order: real elaborated netlists do
/// not hand the scheduler a topologically sorted instance order, and the
/// Sweep oracle would otherwise ride construction-order luck.
pub const WORKLOADS: &[&str] = &[
    "mesh 8x8 uniform 0.1",
    "CMP 8-core + NoC",
    "core stage-4",
    W_SCATTER,
    W_FANOUT,
    W_CHAIN,
    W_PCL,
];

const W_SCATTER: &str = "scatter 256 (acyclic)";
const W_FANOUT: &str = "fanout 16x2 (acyclic)";
const W_CHAIN: &str = "chain 256 (acyclic)";

/// The module-dominated specialization workload (E19): every instance is
/// a stock `pcl` template, so under the compiled scheduler the
/// whole netlist lowers to type-specialized kernels.
pub const W_PCL: &str = "pcl pipeline 48 (specializable)";

/// The acyclic subset of [`WORKLOADS`] (the E18 speedup bar applies to
/// these).
pub const ACYCLIC_WORKLOADS: &[&str] = &[W_SCATTER, W_FANOUT, W_CHAIN];

/// The schedulers the throughput tables and the CI baseline guard
/// measure (Sweep is excluded: it is the reference the engine is checked
/// against, not a contender).
pub const MEASURED_SCHEDS: &[SchedKind] = &[SchedKind::Compiled];

/// One measured kernel run.
#[derive(Clone, Debug)]
pub struct KernelRun {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: &'static str,
    /// Scheduler used.
    pub sched: SchedKind,
    /// Time-steps executed.
    pub cycles: u64,
    /// Host seconds for the run (construction excluded).
    pub secs: f64,
}

impl KernelRun {
    /// Simulated time-steps per host second.
    pub fn steps_per_sec(&self) -> f64 {
        self.cycles as f64 / self.secs
    }
}

fn mesh8x8(sched: SchedKind) -> Simulator {
    let mut b = NetlistBuilder::new();
    let fabric = build_grid(&mut b, "n.", 8, 8, 4, 1, false).unwrap();
    for id in 0..fabric.nodes {
        let (g_spec, g_mod) = traffic_gen(TrafficCfg {
            nodes: fabric.nodes,
            width: 8,
            my: id,
            rate: 0.1,
            pattern: Pattern::Uniform,
            flits: 4,
            seed: 3,
            ..TrafficCfg::default()
        });
        let g = b.add(format!("g{id}"), g_spec, g_mod).unwrap();
        let (ti, tp) = fabric.local_in[id as usize];
        b.connect(g, "out", ti, tp).unwrap();
        let (k_spec, k_mod) = traffic_sink(Some(id));
        let k = b.add(format!("s{id}"), k_spec, k_mod).unwrap();
        let (fo, fp) = fabric.local_out[id as usize];
        b.connect(fo, fp, k, "in").unwrap();
    }
    let (topo, modules) = b.build().unwrap().into_parts();
    Simulator::from_parts(Arc::new(topo), modules, sched)
}

fn cmp8(sched: SchedKind) -> Simulator {
    let cfg = CmpConfig {
        cores: 8,
        items: 16,
        ordering: None,
        with_noc: true,
        noc_rate: 0.05,
    };
    cmp_simulator(&cfg, sched).unwrap().0
}

fn core_s4(sched: SchedKind) -> Simulator {
    let cfg = CoreConfig {
        fetch_q: 4,
        iw: 4,
        rob: 8,
        predictor: Some(Params::new().with("kind", "bimodal")),
        cache: Some(Params::new()),
        mem_latency: 12,
        ..CoreConfig::default()
    };
    core_simulator(Arc::new(program::branchy(256)), &cfg, sched)
        .unwrap()
        .0
}

// --- Acyclic kernel microbenchmark modules -------------------------------
//
// Deliberately minimal handler bodies (`no_commit`, one or two port
// operations per react): the measured quantity is what the *kernel*
// spends per handler invocation, so the handlers themselves must be as
// close to free as the module contract allows.

const M_IN: PortId = PortId(0);
const M_OUT: PortId = PortId(1);
const M_SRC_OUT: PortId = PortId(0);

struct WordSrc;
impl Module for WordSrc {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        ctx.send(M_SRC_OUT, 0, Value::Word(ctx.now()))
    }
    fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
        Ok(())
    }
}

struct Forward;
impl Module for Forward {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        match ctx.recv(M_IN, 0, true)? {
            Res::Yes(v) => ctx.send(M_OUT, 0, v),
            Res::No => ctx.send_nothing(M_OUT, 0),
            Res::Unknown => Ok(()),
        }
    }
    fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
        Ok(())
    }
}

struct WordSink;
impl Module for WordSink {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        ctx.recv(M_IN, 0, true).map(|_| ())
    }
    fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
        Ok(())
    }
}

/// Root of the fanout tree: drives `n` output connections.
struct FanSrc(u32);
impl Module for FanSrc {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        for i in 0..self.0 as usize {
            ctx.send(M_SRC_OUT, i, Value::Word(ctx.now()))?;
        }
        Ok(())
    }
    fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
        Ok(())
    }
}

/// Interior fanout-tree node: forwards its input to `n` children.
struct Bcast(u32);
impl Module for Bcast {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        match ctx.recv(M_IN, 0, true)? {
            Res::Yes(v) => {
                for i in 0..self.0 as usize {
                    ctx.send(M_OUT, i, v.clone())?;
                }
                Ok(())
            }
            Res::No => {
                for i in 0..self.0 as usize {
                    ctx.send_nothing(M_OUT, i)?;
                }
                Ok(())
            }
            Res::Unknown => Ok(()),
        }
    }
    fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
        Ok(())
    }
}

fn src_spec() -> ModuleSpec {
    ModuleSpec::new("wsrc").output("out", 1, 1).no_commit()
}

fn sink_spec() -> ModuleSpec {
    ModuleSpec::new("wsink").input("in", 1, 1).no_commit()
}

/// `n` independent src→sink pairs — the flattest possible DAG, one port
/// operation per handler. Sinks are created first (anti-topological).
fn scatter(n: u32, sched: SchedKind) -> Simulator {
    let mut b = NetlistBuilder::new();
    let sinks: Vec<_> = (0..n)
        .map(|i| {
            b.add(format!("k{i}"), sink_spec(), Box::new(WordSink))
                .unwrap()
        })
        .collect();
    for i in 0..n {
        let s = b
            .add(format!("s{i}"), src_spec(), Box::new(WordSrc))
            .unwrap();
        b.connect(s, "out", sinks[i as usize], "in").unwrap();
    }
    Simulator::new(b.build().unwrap(), sched)
}

/// Broadcast tree: a root fans a word out over `branch` children per
/// node, `depth` levels deep; leaves are sinks. Built leaves-first
/// (anti-topological).
fn fanout_tree(branch: u32, depth: u32, sched: SchedKind) -> Simulator {
    let mut b = NetlistBuilder::new();
    let root_spec = ModuleSpec::new("fsrc")
        .output("out", branch, branch)
        .no_commit();
    let node_spec = ModuleSpec::new("bcast")
        .input("in", 1, 1)
        .output("out", branch, branch)
        .no_commit();
    let mut below: Vec<_> = (0..branch.pow(depth))
        .map(|i| {
            b.add(format!("leaf{i}"), sink_spec(), Box::new(WordSink))
                .unwrap()
        })
        .collect();
    for lvl in (1..depth).rev() {
        let mut cur = Vec::new();
        for i in 0..branch.pow(lvl) {
            let n = b
                .add(
                    format!("n{lvl}_{i}"),
                    node_spec.clone(),
                    Box::new(Bcast(branch)),
                )
                .unwrap();
            for c in 0..branch {
                b.connect(n, "out", below[(i * branch + c) as usize], "in")
                    .unwrap();
            }
            cur.push(n);
        }
        below = cur;
    }
    let root = b.add("root", root_spec, Box::new(FanSrc(branch))).unwrap();
    for c in 0..branch {
        b.connect(root, "out", below[c as usize], "in").unwrap();
    }
    Simulator::new(b.build().unwrap(), sched)
}

/// A `stages`-deep forwarding pipeline, built sink-first so the creation
/// order is anti-topological (a Sweep pass in id order resolves one stage;
/// the compiled plan reacts each stage once).
fn chain_rev(stages: usize, sched: SchedKind) -> Simulator {
    let mut b = NetlistBuilder::new();
    let fwd_spec = ModuleSpec::new("fwd")
        .input("in", 1, 1)
        .output("out", 1, 1)
        .no_commit();
    let mut next = b.add("sink", sink_spec(), Box::new(WordSink)).unwrap();
    for i in (1..stages).rev() {
        let f = b
            .add(format!("f{i}"), fwd_spec.clone(), Box::new(Forward))
            .unwrap();
        b.connect(f, "out", next, "in").unwrap();
        next = f;
    }
    let s = b.add("src", src_spec(), Box::new(WordSrc)).unwrap();
    b.connect(s, "out", next, "in").unwrap();
    Simulator::new(b.build().unwrap(), sched)
}

/// The E19 microbenchmark: a backpressured queue/register pipeline, a
/// tee-fed inverter/delay side channel, and a repeating-tuple ALU stream
/// — the E11 "core" shape where handler bodies (not scheduling) dominate
/// each step. Every template is a specializable `pcl` module; the tee and
/// ALU ack-feedback SCCs become specialized fixed-point islands.
fn pcl_pipeline(stages: usize, sched: SchedKind) -> Simulator {
    use liberty_pcl::{alu, delay, inverter, queue, register, sink, source, tee};
    let mut b = NetlistBuilder::new();
    let p = Params::new;
    // Word pipeline: seq -> tee -> (queue -> register)* -> sink.
    let (s_spec, s_mod) = source::seq(&p().with("start", 1i64)).unwrap();
    let gen = b.add("gen", s_spec, s_mod).unwrap();
    let (t_spec, t_mod) = tee::tee(&p()).unwrap();
    let t = b.add("tee", t_spec, t_mod).unwrap();
    b.connect(gen, "out", t, "in").unwrap();
    let mut prev = t;
    let mut prev_port = "out";
    for i in 0..stages {
        let (q_spec, q_mod) = queue::queue(&p().with("depth", 2i64)).unwrap();
        let q = b.add(format!("q{i}"), q_spec, q_mod).unwrap();
        b.connect(prev, prev_port, q, "in").unwrap();
        let (r_spec, r_mod) = register::reg(&p()).unwrap();
        let r = b.add(format!("r{i}"), r_spec, r_mod).unwrap();
        b.connect(q, "out", r, "in").unwrap();
        (prev, prev_port) = (r, "out");
    }
    let (k_spec, k_mod) = sink::counting(&p()).unwrap();
    let k0 = b.add("k0", k_spec, k_mod).unwrap();
    b.connect(prev, prev_port, k0, "in").unwrap();
    // Side channel: tee -> inverter -> delay -> sink.
    let (i_spec, i_mod) = inverter::inverter(&p()).unwrap();
    let inv = b.add("inv", i_spec, i_mod).unwrap();
    b.connect(t, "out", inv, "in").unwrap();
    let (d_spec, d_mod) = delay::delay(&p().with("latency", 2i64)).unwrap();
    let d = b.add("dly", d_spec, d_mod).unwrap();
    b.connect(inv, "out", d, "in").unwrap();
    let (k_spec, k_mod) = sink::counting(&p()).unwrap();
    let k1 = b.add("k1", k_spec, k_mod).unwrap();
    b.connect(d, "out", k1, "in").unwrap();
    // Tuple stream: repeating (op, a, b) -> alu -> queue -> sink.
    let (a_src_spec, a_src_mod) = source::repeating(alu::op_value(0, 40, 2));
    let asrc = b.add("ops", a_src_spec, a_src_mod).unwrap();
    let (a_spec, a_mod) = alu::alu(&p()).unwrap();
    let a = b.add("alu", a_spec, a_mod).unwrap();
    b.connect(asrc, "out", a, "in").unwrap();
    let (q_spec, q_mod) = queue::queue(&p().with("depth", 4i64)).unwrap();
    let aq = b.add("aq", q_spec, q_mod).unwrap();
    b.connect(a, "out", aq, "in").unwrap();
    let (k_spec, k_mod) = sink::counting(&p()).unwrap();
    let k2 = b.add("k2", k_spec, k_mod).unwrap();
    b.connect(aq, "out", k2, "in").unwrap();
    Simulator::new(b.build().unwrap(), sched)
}

/// Build the named workload (panics on an unknown name).
pub fn build(workload: &str, sched: SchedKind) -> Simulator {
    match workload {
        w if w == WORKLOADS[0] => mesh8x8(sched),
        w if w == WORKLOADS[1] => cmp8(sched),
        w if w == WORKLOADS[2] => core_s4(sched),
        w if w == W_SCATTER => scatter(256, sched),
        w if w == W_FANOUT => fanout_tree(16, 2, sched),
        w if w == W_CHAIN => chain_rev(256, sched),
        w if w == W_PCL => pcl_pipeline(20, sched),
        other => panic!("unknown kernel workload {other:?}"),
    }
}

/// Run the serial compiled scheduler on a workload with handler
/// specialization forced on or off — the E19 numerator and denominator.
pub fn run_workload_specialized(workload: &'static str, cycles: u64, on: bool) -> KernelRun {
    let mut sim = build(workload, SchedKind::Compiled);
    sim.set_specialization(on);
    sim.run(cycles / 10).unwrap();
    let (_, secs) = timed(|| sim.run(cycles).unwrap());
    KernelRun {
        workload,
        sched: SchedKind::Compiled,
        cycles,
        secs,
    }
}

/// Which observer (if any) a measured run carries — the x-axis of the
/// probe-overhead experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeMode {
    /// No probe attached: the unobserved plan walk, whose straight nodes
    /// and kernels run no probe code.
    Off,
    /// The cheapest real probe (counters behind a mutex, locked once a
    /// step).
    Counting,
    /// The per-instance wall-clock profiler.
    Profile,
    /// Full VCD waveform emission, written to `std::io::sink()` so the
    /// measurement is serialization cost, not disk bandwidth.
    Vcd,
}

impl ProbeMode {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            ProbeMode::Off => "off",
            ProbeMode::Counting => "counting",
            ProbeMode::Profile => "profiler",
            ProbeMode::Vcd => "vcd",
        }
    }

    /// All modes, report order.
    pub const ALL: &'static [ProbeMode] = &[
        ProbeMode::Off,
        ProbeMode::Counting,
        ProbeMode::Profile,
        ProbeMode::Vcd,
    ];

    fn install(self, sim: &mut Simulator) {
        match self {
            ProbeMode::Off => {}
            ProbeMode::Counting => {
                let (p, _h) = CountingProbe::new();
                sim.set_probe(Box::new(p));
            }
            ProbeMode::Profile => {
                let (p, _h) = Profiler::new();
                sim.set_probe(Box::new(p));
            }
            ProbeMode::Vcd => sim.set_probe(Box::new(VcdProbe::new(std::io::sink()))),
        }
    }
}

/// Run one workload for `cycles` steps under a probe mode, measuring host
/// time (construction and warm-up excluded).
pub fn run_workload_probed(
    workload: &'static str,
    sched: SchedKind,
    cycles: u64,
    mode: ProbeMode,
) -> KernelRun {
    let mut sim = build(workload, sched);
    mode.install(&mut sim);
    // Warm-up settles allocator and cache effects out of the measurement.
    sim.run(cycles / 10).unwrap();
    let (_, secs) = timed(|| sim.run(cycles).unwrap());
    KernelRun {
        workload,
        sched,
        cycles,
        secs,
    }
}

/// Run one workload with no probe attached.
pub fn run_workload(workload: &'static str, sched: SchedKind, cycles: u64) -> KernelRun {
    run_workload_probed(workload, sched, cycles, ProbeMode::Off)
}

/// Run one workload with a step budget far above the horizon, so the
/// budget is checked at every step boundary but never binds — the
/// supervisor-parity experiment. Every run goes through the same
/// supervisor loop; against [`run_workload`] (nothing installed) this
/// measures what a boxed supervisor with a live budget axis adds.
pub fn run_workload_governed(workload: &'static str, sched: SchedKind, cycles: u64) -> KernelRun {
    let mut sim = build(workload, sched);
    sim.set_budget(RunBudget::new().max_steps(u64::MAX));
    sim.run(cycles / 10).unwrap();
    let (_, secs) = timed(|| sim.run(cycles).unwrap());
    KernelRun {
        workload,
        sched,
        cycles,
        secs,
    }
}

/// Measure every workload with every measured scheduler.
pub fn run_all(cycles: u64) -> Vec<KernelRun> {
    let mut out = Vec::new();
    for &w in WORKLOADS {
        for &sched in MEASURED_SCHEDS {
            out.push(run_workload(w, sched, cycles));
        }
    }
    out
}
