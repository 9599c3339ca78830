//! Specialization-equivalence suite: type-specialized handler kernels
//! must be *observationally indistinguishable* from the dynamic handler
//! bodies they replace (docs/KERNEL.md §7).
//!
//! The oracle mirrors the scheduler-equivalence suite, pointed at the
//! specialization toggle instead of the scheduler axis:
//!
//! 1. **Engagement** — the classifier must actually specialize the
//!    specializable systems (a silent universal fallback would make every
//!    other test here vacuous).
//! 2. **Final architectural state** — identical [`StatsReport`], per-edge
//!    transfer counts, engine metrics, and snapshot bytes with
//!    specialization on vs off, for every spec in `specs/` and the
//!    module-dominated E19 workload.
//! 3. **Canonical probe streams** — attaching a probe mid-run writes
//!    kernel state back losslessly; the stream suffix and final state
//!    must match a run that never specialized.
//! 4. **Checkpoint compatibility** — snapshots taken with specialization
//!    on restore into simulators running with it off (and vice versa)
//!    and resume byte-identically.
//! 5. **Fault plans force fallback, not wrong answers** — random
//!    (seed, rate) draws yield one canonical stream and one verdict
//!    whether or not specialization was requested.
//! 6. **Verdicts and kernels stay put** — the plan verdicts of the paper's
//!    systems are pinned, and a step after a probe detaches or a restore
//!    runs on kernels again.

use liberty_bench::kernel::{build, WORKLOADS, W_PCL};
use liberty_core::prelude::*;
use liberty_lss::build_simulator;
use liberty_systems::cmp::{cmp_simulator, CmpConfig};
use liberty_systems::full_registry;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const CYCLES: u64 = 32;

/// Shared byte buffer implementing `Write` for in-memory JSONL capture.
#[derive(Clone, Default)]
struct Buf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
impl Write for Buf {
    fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(b);
        Ok(b.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}
impl Buf {
    fn take(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

/// Every runnable spec in `specs/` (ring_osc diverges by design and is
/// exercised separately), plus the module-dominated E19 workload.
fn targets() -> Vec<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let mut t: Vec<String> = std::fs::read_dir(dir)
        .expect("specs/ readable")
        .filter_map(|e| {
            let p = e.ok()?.path();
            let name = p.file_name()?.to_str()?.to_owned();
            (p.extension()?.to_str()? == "lss" && name != "ring_osc.lss")
                .then(|| format!("specs/{name}"))
        })
        .collect();
    t.sort();
    assert!(t.len() >= 3, "specs/ corpus shrank: {t:?}");
    t.push(W_PCL.to_owned());
    t
}

fn build_target(name: &str) -> Simulator {
    if name == W_PCL {
        build(W_PCL, SchedKind::Compiled)
    } else {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(name);
        let src = std::fs::read_to_string(&path).expect("spec readable");
        let registry = full_registry();
        build_simulator(&src, &registry, "main", &Params::new(), SchedKind::Compiled)
            .expect("spec elaborates")
            .0
    }
}

/// Final-state fingerprint of a finished run.
fn fingerprint(sim: &mut Simulator) -> (StatsReport, Vec<u64>, u64, u64, u64, Option<Vec<u8>>) {
    let m = sim.metrics();
    let snap = sim.snapshot().ok().map(|s| s.to_bytes());
    (
        sim.report(),
        sim.transfer_counts().to_vec(),
        m.reacts,
        m.commits,
        m.defaults,
        snap,
    )
}

#[test]
fn specializable_systems_actually_specialize() {
    // W_PCL is built from stock pcl templates only: everything lowers.
    let sim = build_target(W_PCL);
    let s = sim.plan_summary().expect("compiled plan");
    assert!(s.enabled, "specialization off by default?\n{s}");
    assert_eq!(s.dynamic, 0, "dynamic stragglers in W_PCL:\n{s}");
    assert_eq!(s.fast_edges, s.total_edges, "slow edges in W_PCL:\n{s}");
    // The shipped pipeline spec lowers completely too.
    let sim = build_target("specs/pipeline.lss");
    let s = sim.plan_summary().expect("compiled plan");
    assert_eq!(s.dynamic, 0, "dynamic stragglers in pipeline.lss:\n{s}");
    // Dynamic instances carry a reason; specialized ones must not.
    for name in targets() {
        for row in &build_target(&name).plan_summary().expect("plan").instances {
            assert_eq!(
                row.reason.is_some(),
                !row.specialized,
                "{name}/{}",
                row.name
            );
        }
    }
}

#[test]
fn specialization_toggle_is_observationally_invisible() {
    for name in targets() {
        let mut on = build_target(&name);
        assert!(
            on.plan_summary().expect("compiled plan").specialized > 0,
            "{name}: nothing specialized — toggle test is vacuous"
        );
        on.run(CYCLES).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut off = build_target(&name);
        off.set_specialization(false);
        off.run(CYCLES).unwrap_or_else(|e| panic!("{name}: {e}"));
        let (fp_on, fp_off) = (fingerprint(&mut on), fingerprint(&mut off));
        assert_eq!(fp_on.0, fp_off.0, "{name}: stats report");
        assert_eq!(fp_on.1, fp_off.1, "{name}: transfer counts");
        assert_eq!(fp_on.2, fp_off.2, "{name}: reacts");
        assert_eq!(fp_on.3, fp_off.3, "{name}: commits");
        assert_eq!(fp_on.4, fp_off.4, "{name}: defaults");
        assert_eq!(fp_on.5, fp_off.5, "{name}: snapshot bytes");
    }
}

/// A dynamic source: sends its step number on even steps.
struct EvenSteps;
impl Module for EvenSteps {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        if ctx.now().is_multiple_of(2) {
            ctx.send(PortId(0), 0, Value::Word(ctx.now()))
        } else {
            ctx.send_nothing(PortId(0), 0)
        }
    }
    fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
        Ok(())
    }
}

/// A dynamic, activity-gated consumer that accepts one step in four.
struct Picky;
impl Module for Picky {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        ctx.set_ack(PortId(0), 0, ctx.now() % 4 == 1)
    }
    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        ctx.count("commits", 1);
        Ok(())
    }
}

/// Kernels, dynamic handlers and both kinds of island in one plan:
/// `gen -> tee -> {q -> picky, r -> k0}` lowers up to `picky` (the tee
/// reads acks, so it shares a specialized island with `q` and `r`), and
/// `dsrc -> tee2 -> dk` stays dynamic behind its hand-written source
/// (another island). `gen` emits seven words, one step in three; `picky`
/// drains `q` one step in four, so `q` sits non-empty (pending) through
/// transfer-free steps, then everything gated goes idle.
fn mixed_netlist() -> Simulator {
    use liberty_pcl::{queue, register, sink, source, tee};
    let p = Params::new;
    let mut b = NetlistBuilder::new();
    let mut add = |name: &str, (spec, module): Instantiated| b.add(name, spec, module).unwrap();
    let gen_params = p()
        .with("start", 1i64)
        .with("count", 7i64)
        .with("period", 3i64);
    let gen = add("gen", source::seq(&gen_params).unwrap());
    let t = add("tee", tee::tee(&p()).unwrap());
    let q = add("q", queue::queue(&p().with("depth", 2i64)).unwrap());
    let r = add("r", register::reg(&p()).unwrap());
    let k0 = add("k0", sink::counting(&p()).unwrap());
    let picky_spec = ModuleSpec::new("picky")
        .input("in", 1, 1)
        .commit_only_when_active();
    let picky = add("picky", (picky_spec, Box::new(Picky)));
    let dsrc_spec = ModuleSpec::new("even_steps").output("out", 1, 1);
    let dsrc = add("dsrc", (dsrc_spec, Box::new(EvenSteps)));
    let t2 = add("tee2", tee::tee(&p()).unwrap());
    let dk = add("dk", sink::counting(&p()).unwrap());
    for (src, dst) in [
        (gen, t),
        (t, q),
        (t, r),
        (q, picky),
        (r, k0),
        (dsrc, t2),
        (t2, dk),
    ] {
        b.connect(src, "out", dst, "in").unwrap();
    }
    Simulator::new(b.build().unwrap(), SchedKind::Compiled)
}

#[test]
fn mixed_plan_commits_identically_at_every_step() {
    let mut on = mixed_netlist();
    let summary = on.plan_summary().expect("compiled plan");
    assert_eq!((summary.specialized, summary.dynamic), (5, 4), "{summary}");
    assert_eq!(on.compiled_plan().unwrap().island_count(), 2);
    let mut off = mixed_netlist();
    off.set_specialization(false);
    let mut commits_per_step = Vec::new();
    for step in 0..40 {
        let before = on.metrics().commits;
        on.step().unwrap();
        off.step().unwrap();
        commits_per_step.push(on.metrics().commits - before);
        assert_eq!(on.metrics(), off.metrics(), "step {step}: metrics");
        assert_eq!(
            on.transfer_counts(),
            off.transfer_counts(),
            "step {step}: transfer counts"
        );
        assert_eq!(
            on.snapshot().unwrap().to_bytes(),
            off.snapshot().unwrap().to_bytes(),
            "step {step}: snapshot bytes"
        );
    }
    assert_eq!(on.report(), off.report());
    // The gating rule had work to do on both tiers: busy steps, steps
    // where only `q`'s pending state forced a commit, and idle ones.
    let busiest = *commits_per_step.iter().max().unwrap();
    let idlest = *commits_per_step.iter().min().unwrap();
    assert!(idlest < busiest, "{commits_per_step:?}");
    let picky = on.instance_by_name("picky").unwrap();
    let picked = on.stats().counter(picky, "commits");
    assert!(0 < picked && picked < 40, "picky was idle on some steps");
}

#[test]
fn midrun_probe_attach_despecializes_losslessly() {
    for name in targets() {
        let run_split = |specialize: bool| {
            let mut sim = build_target(&name);
            sim.set_specialization(specialize);
            sim.run(CYCLES / 2)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let buf = Buf::default();
            sim.set_probe(Box::new(JsonlProbe::new(buf.clone()).canonical()));
            sim.run(CYCLES / 2)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            drop(sim.take_probe()); // flush
            (buf.take(), fingerprint(&mut sim))
        };
        let (stream_on, fp_on) = run_split(true);
        let (stream_off, fp_off) = run_split(false);
        assert!(!stream_on.is_empty(), "{name}: empty canonical stream");
        assert_eq!(stream_on, stream_off, "{name}: canonical stream suffix");
        assert_eq!(fp_on, fp_off, "{name}: final state");
    }
}

#[test]
fn checkpoints_are_compatible_across_specialization() {
    for name in targets() {
        // Straight-through reference, never specialized.
        let mut reference = build_target(&name);
        reference.set_specialization(false);
        reference.run(CYCLES).unwrap();
        let Some(ref_bytes) = fingerprint(&mut reference).5 else {
            continue; // system refuses to snapshot: nothing to roundtrip
        };
        // Specialized first leg -> snapshot -> dynamic second leg...
        let mut a = build_target(&name);
        a.run(CYCLES / 2).unwrap();
        let snap_a = a.snapshot().expect("snapshot");
        let mut a2 = build_target(&name);
        a2.set_specialization(false);
        a2.restore(&snap_a).expect("restore");
        a2.run(CYCLES - CYCLES / 2).unwrap();
        // ...and dynamic first leg -> snapshot -> specialized second leg.
        let mut b = build_target(&name);
        b.set_specialization(false);
        b.run(CYCLES / 2).unwrap();
        let snap_b = b.snapshot().expect("snapshot");
        assert_eq!(
            snap_a.to_bytes(),
            snap_b.to_bytes(),
            "{name}: midpoint snapshots differ across specialization"
        );
        let mut b2 = build_target(&name);
        b2.restore(&snap_b).expect("restore");
        b2.run(CYCLES - CYCLES / 2).unwrap();
        for (leg, sim) in [("spec->dyn", &mut a2), ("dyn->spec", &mut b2)] {
            let bytes = fingerprint(sim).5.expect("snapshot");
            assert_eq!(bytes, ref_bytes, "{name} {leg}: final snapshot");
        }
    }
}

/// One observed run with the probe attached from step 0 (which suppresses
/// specialization; `requested` records what the host asked for).
fn observed_run(
    name: &str,
    requested: bool,
    faults: (u64, f64),
) -> (String, Result<(), String>, StatsReport, Vec<u64>) {
    let mut sim = build_target(name);
    sim.set_specialization(requested);
    let buf = Buf::default();
    sim.set_probe(Box::new(JsonlProbe::new(buf.clone()).canonical()));
    let (seed, rate) = faults;
    let topo = sim.topology().clone();
    sim.set_fault_plan(FaultPlan::random(seed, &topo, CYCLES, rate));
    sim.set_failure_policy(FailurePolicy::Quarantine);
    sim.set_watchdog(1_000_000);
    let verdict = sim.run(CYCLES).map_err(|e| e.to_string());
    drop(sim.take_probe());
    let transfers = sim.transfer_counts().to_vec();
    (buf.take(), verdict, sim.report(), transfers)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Fault plans force the dynamic fallback, never a wrong answer:
    /// requesting specialization changes nothing observable under any
    /// random fault plan.
    #[test]
    fn fault_plans_force_fallback_not_wrong_answers(
        seed in any::<u64>(),
        rate in 0.05f64..0.45,
        tgt in 0usize..4,
    ) {
        let names = targets();
        let name = &names[tgt % names.len()];
        let (s1, v1, r1, t1) = observed_run(name, true, (seed, rate));
        let (s0, v0, r0, t0) = observed_run(name, false, (seed, rate));
        prop_assert_eq!(&v1, &v0, "{}: verdict", name);
        prop_assert_eq!(&s1, &s0, "{}: canonical stream", name);
        prop_assert_eq!(&r1, &r0, "{}: final stats", name);
        prop_assert_eq!(&t1, &t0, "{}: transfer counts", name);
    }
}

#[test]
fn ring_osc_divergence_is_specialization_independent() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs/ring_osc.lss");
    let src = std::fs::read_to_string(path).expect("ring_osc.lss readable");
    let registry = full_registry();
    let diverge = |specialize: bool| {
        let (mut sim, _) =
            build_simulator(&src, &registry, "main", &Params::new(), SchedKind::Compiled)
                .expect("spec elaborates");
        sim.set_specialization(specialize);
        sim.set_watchdog(512);
        sim.run(4).unwrap_err().to_string()
    };
    // The watchdog despecializes (fixed-point divergence diagnostics need
    // the dynamic engine), so both runs must report the exact same
    // structured divergence.
    assert_eq!(diverge(true), diverge(false));
}

/// A plan's verdicts: specialized instances, dynamic instances, fast
/// edges, total edges, and how many instances each demotion reason keeps
/// dynamic (the reason up to the neighbour it names).
type Verdicts = (usize, usize, usize, usize, BTreeMap<String, usize>);

fn verdicts(sim: &Simulator) -> (Verdicts, Vec<String>) {
    let s = sim.plan_summary().expect("compiled plan");
    let mut reasons = BTreeMap::new();
    for why in s.instances.iter().filter_map(|r| r.reason.as_deref()) {
        let key = why.split(" \"").next().unwrap_or(why).to_owned();
        *reasons.entry(key).or_insert(0) += 1;
    }
    let specialized = s.instances.iter().filter(|r| r.specialized);
    let names = specialized.map(|r| r.name.clone()).collect();
    let counts = (s.specialized, s.dynamic, s.fast_edges, s.total_edges);
    ((counts.0, counts.1, counts.2, counts.3, reasons), names)
}

fn reasons(pairs: &[(&str, usize)]) -> BTreeMap<String, usize> {
    pairs.iter().map(|&(k, n)| (k.to_owned(), n)).collect()
}

/// The plan verdicts of the paper's systems, and exactly which instances
/// specialize: a change to the classifier that demotes (or promotes) an
/// instance must show up here.
#[test]
fn plan_verdicts_of_the_papers_systems_are_pinned() {
    const CYCLIC: &str = "data-cyclic island (needs fixed-point iteration)";
    const NO_HINT: &str = "dynamic template (no kernel hint)";
    const WIRE: &str = "wire type did not resolve to an unboxed shape";
    let pcl = "gen tee q0 r0 q1 r1 q2 r2 q3 r3 q4 r4 q5 r5 q6 r6 q7 r7 q8 r8 q9 r9 \
        q10 r10 q11 r11 q12 r12 q13 r13 q14 r14 q15 r15 q16 r16 q17 r17 q18 r18 q19 r19 \
        k0 inv dly k1 ops alu aq k2";
    // The router input buffers at the fabric's edge (no producer).
    let mesh = "n.r0.ibuf0 n.r0.ibuf3 n.r1.ibuf0 n.r2.ibuf0 n.r3.ibuf0 n.r4.ibuf0 \
        n.r5.ibuf0 n.r6.ibuf0 n.r7.ibuf0 n.r7.ibuf1 n.r8.ibuf3 n.r15.ibuf1 n.r16.ibuf3 \
        n.r23.ibuf1 n.r24.ibuf3 n.r31.ibuf1 n.r32.ibuf3 n.r39.ibuf1 n.r40.ibuf3 \
        n.r47.ibuf1 n.r48.ibuf3 n.r55.ibuf1 n.r56.ibuf2 n.r56.ibuf3 n.r57.ibuf2 \
        n.r58.ibuf2 n.r59.ibuf2 n.r60.ibuf2 n.r61.ibuf2 n.r62.ibuf2 n.r63.ibuf1 n.r63.ibuf2";
    let cmp4 = "noc.r0.ibuf0 noc.r0.ibuf3 noc.r1.ibuf0 noc.r1.ibuf1 \
        noc.r2.ibuf2 noc.r2.ibuf3 noc.r3.ibuf1 noc.r3.ibuf2";
    let cmp8 = "noc.r0.ibuf0 noc.r0.ibuf3 noc.r1.ibuf0 noc.r2.ibuf0 noc.r2.ibuf1 \
        noc.r3.ibuf3 noc.r5.ibuf1 noc.r6.ibuf2 noc.r6.ibuf3 noc.r7.ibuf2 noc.r8.ibuf1 \
        noc.r8.ibuf2";
    let cmp4_cfg = CmpConfig {
        cores: 4,
        items: 16,
        ordering: None,
        with_noc: true,
        noc_rate: 0.05,
    };
    let cases: [(&str, Simulator, Verdicts, &str); 5] = [
        (
            W_PCL,
            build(W_PCL, SchedKind::Compiled),
            (50, 0, 48, 48, reasons(&[])),
            pcl,
        ),
        (
            "mesh",
            build(WORKLOADS[0], SchedKind::Compiled),
            (
                32,
                1344,
                0,
                1536,
                reasons(&[(CYCLIC, 768), (NO_HINT, 512), (WIRE, 64)]),
            ),
            mesh,
        ),
        (
            "4-core CMP",
            cmp_simulator(&cmp4_cfg, SchedKind::Compiled).unwrap().0,
            (
                8,
                109,
                0,
                148,
                reasons(&[(CYCLIC, 52), (NO_HINT, 53), (WIRE, 4)]),
            ),
            cmp4,
        ),
        (
            "8-core CMP",
            build(WORKLOADS[1], SchedKind::Compiled),
            (
                12,
                247,
                0,
                329,
                reasons(&[(CYCLIC, 125), (NO_HINT, 113), (WIRE, 9)]),
            ),
            cmp8,
        ),
        (
            "stage-4 core",
            build(WORKLOADS[2], SchedKind::Compiled),
            (0, 11, 0, 18, reasons(&[(CYCLIC, 4), (NO_HINT, 7)])),
            "",
        ),
    ];
    for (name, sim, want, specialized) in cases {
        let (got, names) = verdicts(&sim);
        assert_eq!(got, want, "{name}");
        assert_eq!(
            names,
            specialized.split_whitespace().collect::<Vec<_>>(),
            "{name}"
        );
    }
}

/// Forwards everything to a wrapped module, counting its `state_restore`
/// calls: outside a restore, each one writes a live kernel back.
struct Watched {
    inner: Box<dyn Module>,
    restores: Arc<AtomicU64>,
}

impl Module for Watched {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        self.inner.react(ctx)
    }
    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        self.inner.commit(ctx)
    }
    fn pending(&self) -> bool {
        self.inner.pending()
    }
    fn state_save(&self) -> Result<Vec<u8>, SimError> {
        self.inner.state_save()
    }
    fn state_restore(&mut self, state: &[u8]) -> Result<(), SimError> {
        self.restores.fetch_add(1, Ordering::Relaxed);
        self.inner.state_restore(state)
    }
    fn specialize(&self) -> Option<KernelHint> {
        self.inner.specialize()
    }
}

/// A watched script source feeding a collecting sink.
fn scripted(specialize: bool) -> (Simulator, Arc<AtomicU64>) {
    let mut b = NetlistBuilder::new();
    let (spec, inner) = liberty_pcl::source::script((10..20).map(Value::Word).collect());
    let restores = Arc::new(AtomicU64::new(0));
    let watched = Watched {
        inner,
        restores: restores.clone(),
    };
    let src = b.add("src", spec, Box::new(watched)).unwrap();
    let (spec, sink, _) = liberty_pcl::sink::collecting();
    let k = b.add("k", spec, sink).unwrap();
    b.connect(src, "out", k, "in").unwrap();
    let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
    sim.set_specialization(specialize);
    (sim, restores)
}

/// With a source part-way through its script, the step after a probe
/// detaches and the step after a restore run on kernels again (the
/// source's cursor, a bare `u64` in its state blob, lowers at any value),
/// and the run matches one that never specialized.
#[test]
fn kernels_come_back_after_probe_detach_and_restore_mid_script() {
    let (mut sim, restores) = scripted(true);
    // True when the last step ran on kernels: attaching a probe writes
    // live kernel state back into the module, and only then.
    let ran_on_kernels = |sim: &mut Simulator| {
        let before = restores.load(Ordering::Relaxed);
        sim.set_probe(Box::new(CountingProbe::new().0));
        drop(sim.take_probe());
        restores.load(Ordering::Relaxed) - before == 1
    };
    sim.run(3).unwrap();
    assert!(ran_on_kernels(&mut sim), "kernels from the first step");
    sim.step().unwrap();
    assert!(ran_on_kernels(&mut sim), "kernels after the probe detached");
    let snap = sim.snapshot().unwrap();
    sim.restore(&snap).unwrap();
    sim.step().unwrap();
    assert!(ran_on_kernels(&mut sim), "kernels after a restore");
    assert!(sim.plan_summary().unwrap().enabled);
    sim.step().unwrap();
    let (mut reference, _) = scripted(false);
    reference.run(sim.now()).unwrap();
    assert_eq!(sim.transfer_counts(), reference.transfer_counts());
    assert_eq!(sim.report(), reference.report());
    let bytes = |s: &Simulator| s.snapshot().unwrap().to_bytes();
    assert_eq!(bytes(&sim), bytes(&reference));
}
