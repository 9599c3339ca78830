//! Allocation discipline of the kernel hot path: a steady-state run
//! moving *scalar* values must not touch the heap at all. And of set-up:
//! LSS text to first step stays within a per-leaf allocation budget,
//! phase by phase.
//!
//! `Value`'s hand-written `Clone` copies the scalar variants (`Unit`,
//! `Bool`, `Word`, `Int`, `Float`) without `Arc` refcount traffic or
//! allocation, and the kernel's per-step structures (signal slots,
//! transfer list, worklists, wake buffer, stats entries) all reach fixed
//! capacity after warm-up. This test holds the whole stack to that
//! contract with a counting global allocator: one million word transfers
//! through a 64-stage forwarding chain, zero allocations.
//!
//! Kept as its own integration test binary, and counted *per thread*:
//! the simulator runs entirely on the test thread, while libtest's main
//! thread waits the test out with timed channel receives that allocate
//! now and then — a process-wide counter flakes on that background
//! noise.

use liberty_core::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

std::thread_local! {
    // Const-initialized and Drop-free, so the allocator never recurses
    // into lazy TLS setup and teardown access stays safe (`try_with`).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations charged to the calling thread so far.
fn allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(p, l, n) }
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(l) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

const P_IN: PortId = PortId(0);
const P_OUT: PortId = PortId(1);
/// The source's only port ("out") is its port 0.
const SRC_OUT: PortId = PortId(0);

/// Sends the current cycle number every step.
struct WordSrc;
impl Module for WordSrc {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        ctx.send(SRC_OUT, 0, Value::Word(ctx.now()))
    }
    fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
        Ok(())
    }
}

/// Forwards its input's data wire and accepts unconditionally.
struct Forward;
impl Module for Forward {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        ctx.set_ack(P_IN, 0, true)?;
        match ctx.data(P_IN, 0) {
            Res::Yes(v) => ctx.send(P_OUT, 0, v),
            Res::No => ctx.send_nothing(P_OUT, 0),
            Res::Unknown => Ok(()), // producer not settled yet
        }
    }
    fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
        Ok(())
    }
}

/// Accepts and counts everything it receives.
struct CountingSink;
impl Module for CountingSink {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        ctx.set_ack(P_IN, 0, true)
    }
    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        if let Some(Value::Word(_)) = ctx.transferred_in(P_IN, 0) {
            ctx.count("received", 1);
        }
        Ok(())
    }
}

/// A source, `stages - 1` forwarders, and a sink: `stages` edges total.
fn chain(stages: usize, sched: SchedKind) -> Simulator {
    let mut b = NetlistBuilder::new();
    let src_spec = ModuleSpec::new("wsrc").output("out", 1, 1);
    let fwd_spec = ModuleSpec::new("fwd").input("in", 1, 1).output("out", 1, 1);
    let sink_spec = ModuleSpec::new("wsink").input("in", 1, 1);
    let mut prev = b.add("src", src_spec, Box::new(WordSrc)).unwrap();
    for i in 1..stages {
        let f = b
            .add(format!("f{i}"), fwd_spec.clone(), Box::new(Forward))
            .unwrap();
        b.connect(prev, "out", f, "in").unwrap();
        prev = f;
    }
    let k = b.add("sink", sink_spec, Box::new(CountingSink)).unwrap();
    b.connect(prev, "out", k, "in").unwrap();
    Simulator::new(b.build().unwrap(), sched)
}

#[test]
fn a_million_word_transfers_allocate_nothing() {
    const STAGES: usize = 64;
    const STEPS: u64 = 16_384; // 64 transfers/step * 16384 = 2^20 > 1e6

    // One run call, and the same steps as the repo benchmark's timed
    // windows: `run_until(16, pred)` calls, each a separate pass through
    // the run loop — so the loop itself builds nothing per call.
    let drivers: [fn(&mut Simulator); 2] = [
        |sim| sim.run(STEPS).unwrap(),
        |sim| {
            for _ in 0..STEPS / 16 {
                assert_eq!(sim.run_until(16, |_| false).unwrap(), 16);
            }
        },
    ];
    for drive in drivers {
        let mut sim = chain(STAGES, SchedKind::Compiled);
        // Warm-up: let every lazily grown structure (transfer list, wake
        // buffer, stats entries, plan-order scratch) reach steady capacity.
        sim.run(4).unwrap();
        let before = allocs();
        drive(&mut sim);
        let after = allocs();
        assert_eq!(
            after - before,
            0,
            "steady-state scalar transfers must not allocate"
        );
        let k = sim.instance_by_name("sink").unwrap();
        assert_eq!(sim.stats().counter(k, "received"), 4 + STEPS);
        let transfers: u64 = sim.transfer_counts().iter().sum();
        assert!(transfers >= 1_000_000, "moved {transfers} values");
    }
}

/// An LSS text of the repo benchmark's `lss_front` shape: a hierarchical
/// section (a lane is a queue feeding a register; a row is a source,
/// `lanes` lanes in series and a sink; a cluster is an array of rows)
/// and a flat section of `chains` fully written-out
/// source→queue→register→queue→register→sink chains.
fn front_spec(clusters: usize, rows: usize, chains: usize) -> String {
    use std::fmt::Write;
    let mut s = String::from(
        "module lane {
            param depth = 2;
            port in rx;
            port out tx;
            instance q : queue { depth = depth; };
            instance r : register;
            connect self.rx -> q.in;
            connect q.out -> r.in;
            connect r.out -> self.tx;
        }
        module row {
            param n = 4;
            param first = 0;
            instance gen : seq_source { start = first; };
            instance st[n] : lane { depth = 2; };
            instance dst : sink;
            connect gen.out -> st[0].rx;
            for i in 0..n - 1 { connect st[i].tx -> st[i + 1].rx; }
            connect st[n - 1].tx -> dst.in;
        }
        module cluster {
            param rows = 1;
            param base = 0;
            instance r[rows] : row { n = 4; first = base; };
        }
        module main {\n",
    );
    for c in 0..clusters {
        writeln!(
            s,
            "instance cluster{c} : cluster {{ rows = {rows}; base = {c}; }};"
        )
        .unwrap();
    }
    for c in 0..chains {
        let p = format!("chain{c:04}");
        writeln!(
            s,
            "instance {p}_source : seq_source {{ start = {c}; step = 1; }};"
        )
        .unwrap();
        for st in 0..2 {
            writeln!(s, "instance {p}_queue{st} : queue {{ depth = 2; }};").unwrap();
            writeln!(s, "instance {p}_register{st} : register;").unwrap();
        }
        writeln!(s, "instance {p}_sink : sink;").unwrap();
        writeln!(s, "connect {p}_source.out -> {p}_queue0.in;").unwrap();
        writeln!(s, "connect {p}_queue0.out -> {p}_register0.in;").unwrap();
        writeln!(s, "connect {p}_register0.out -> {p}_queue1.in;").unwrap();
        writeln!(s, "connect {p}_queue1.out -> {p}_register1.in;").unwrap();
        writeln!(s, "connect {p}_register1.out -> {p}_sink.in;").unwrap();
    }
    s.push_str("}\n");
    s
}

/// Per-leaf allocation budgets of set-up: parsing, elaborating, and the
/// whole way from LSS text to the first step. Parsing interns each
/// identifier into one buffer; elaborating allocates a leaf its flat name,
/// its module and what the module's constructor keeps (a queue's buffer),
/// and an `instance` statement its parameters; the first step's share is
/// the kernels' materialization.
const PARSE_BUDGET: f64 = 1.0;
const ELABORATE_BUDGET: f64 = 4.0;
const TOTAL_BUDGET: f64 = 8.0;

#[test]
fn set_up_stays_within_its_per_phase_allocation_budget() {
    // Three quarters of the leaves flat, one quarter hierarchical, as in
    // the benchmark's 40 000-leaf input.
    let text = front_spec(1, 40, 200);
    let reg = liberty_systems::full_registry();
    let mut phases = Vec::new();
    let mut mark = allocs();
    let mut lap = |name: &'static str| {
        let now = allocs();
        phases.push((name, now - mark));
        mark = now;
    };
    let spec = liberty_lss::parse(&text).unwrap();
    lap("parse");
    let (net, report) = liberty_lss::elaborate(&spec, &reg, "main", &Params::new()).unwrap();
    lap("elaborate");
    let (topo, modules) = net.into_parts();
    lap("topology");
    let topo = std::sync::Arc::new(topo);
    topo.plan();
    lap("plan");
    let mut sim = Simulator::from_parts(topo, modules, SchedKind::Compiled);
    lap("construct");
    sim.step().unwrap();
    lap("first step");
    assert_eq!(report.leaf_instances, 1600);
    let per_leaf = |n: u64| n as f64 / report.leaf_instances as f64;
    let total = per_leaf(phases.iter().map(|p| p.1).sum());
    let (parse, elaborate) = (per_leaf(phases[0].1), per_leaf(phases[1].1));
    assert!(
        parse <= PARSE_BUDGET && elaborate <= ELABORATE_BUDGET && total <= TOTAL_BUDGET,
        "allocations a leaf: parse {parse:.2} (budget {PARSE_BUDGET}), elaborate \
         {elaborate:.2} (budget {ELABORATE_BUDGET}), total {total:.2} (budget \
         {TOTAL_BUDGET}): {phases:?}"
    );
}
