//! Property-based tests of the kernel's central guarantees:
//!
//! * the reaction fixed point (and therefore every statistic) is
//!   independent of the scheduler — the compiled engine agrees with the
//!   naive sweep on arbitrary layered netlists;
//! * monotonic signal writes never corrupt state, and contradictory writes
//!   are always detected.

use liberty_core::prelude::*;
use proptest::prelude::*;

const P0: PortId = PortId(0);
const P1: PortId = PortId(1);

/// Source emitting a pseudo-random word stream (deterministic from seed).
struct RndSource {
    state: u64,
}
impl RndSource {
    fn next_word(&self) -> u64 {
        // xorshift of current state, without mutating (react is re-entrant).
        let mut x = self.state.max(1);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }
}
impl Module for RndSource {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        let w = self.next_word();
        for i in 0..ctx.width(P0) {
            ctx.send(P0, i, Value::Word(w.wrapping_add(i as u64)))?;
        }
        Ok(())
    }
    fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
        self.state = self.next_word();
        Ok(())
    }
}
fn src_spec() -> ModuleSpec {
    ModuleSpec::new("rnd_source").output("out", 0, u32::MAX)
}

/// Combinational adder: waits for all inputs to resolve, then emits the
/// sum of present words on every output connection.
struct Adder;
impl Module for Adder {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        let mut sum = 0u64;
        for i in 0..ctx.width(P0) {
            match ctx.data(P0, i) {
                Res::Unknown => return Ok(()), // wait for full resolution
                Res::No => {}
                Res::Yes(v) => sum = sum.wrapping_add(v.as_word().unwrap_or(0)),
            }
        }
        for i in 0..ctx.width(P0) {
            ctx.set_ack(P0, i, true)?;
        }
        for i in 0..ctx.width(P1) {
            ctx.send(P1, i, Value::Word(sum))?;
        }
        Ok(())
    }
    fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
        Ok(())
    }
}
fn adder_spec() -> ModuleSpec {
    ModuleSpec::new("adder")
        .input("in", 0, u32::MAX)
        .output("out", 0, u32::MAX)
}

/// Registered accumulator stage: emits its accumulated state, adds
/// accepted inputs at commit.
struct Accum {
    acc: u64,
}
impl Module for Accum {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        for i in 0..ctx.width(P0) {
            ctx.set_ack(P0, i, true)?;
        }
        for i in 0..ctx.width(P1) {
            ctx.send(P1, i, Value::Word(self.acc))?;
        }
        Ok(())
    }
    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        for i in 0..ctx.width(P0) {
            if let Some(v) = ctx.transferred_in(P0, i) {
                self.acc = self.acc.wrapping_add(v.as_word().unwrap_or(0));
            }
        }
        Ok(())
    }
}
fn accum_spec() -> ModuleSpec {
    ModuleSpec::new("accum")
        .input("in", 0, u32::MAX)
        .output("out", 0, u32::MAX)
}

/// Accum whose template opted into activity-gated commit: its commit only
/// reacts to completed transfers, so skipping transfer-free steps must not
/// change any observable. Mixing these into random netlists checks that
/// the gating decision is scheduler-independent.
fn gated_accum_spec() -> ModuleSpec {
    ModuleSpec::new("gated_accum")
        .input("in", 0, u32::MAX)
        .output("out", 0, u32::MAX)
        .commit_only_when_active()
}

/// Collector summing everything it receives.
struct Collect;
impl Module for Collect {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        for i in 0..ctx.width(P0) {
            ctx.set_ack(P0, i, true)?;
        }
        Ok(())
    }
    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        for i in 0..ctx.width(P0) {
            if let Some(v) = ctx.transferred_in(P0, i) {
                ctx.count("received", 1);
                ctx.count("sum", v.as_word().unwrap_or(0));
            }
        }
        Ok(())
    }
}
fn collect_spec() -> ModuleSpec {
    ModuleSpec::new("collect").input("in", 0, u32::MAX)
}

/// Description of a random layered netlist: `layers[i]` holds the module
/// kind of each node in layer i; edges connect consecutive layers by the
/// `wiring` permutation seeds.
#[derive(Clone, Debug)]
struct NetDesc {
    seed: u64,
    layers: Vec<Vec<u8>>, // 0 = adder, 1 = accum, 2 = gated accum
    wiring: Vec<u64>,
}

fn build(desc: &NetDesc, sched: SchedKind) -> (Simulator, InstanceId) {
    let mut b = NetlistBuilder::new();
    let src = b
        .add(
            "src",
            src_spec(),
            Box::new(RndSource {
                state: desc.seed | 1,
            }),
        )
        .unwrap();
    let mut prev: Vec<InstanceId> = vec![src];
    for (li, layer) in desc.layers.iter().enumerate() {
        let mut cur = Vec::new();
        for (ni, kind) in layer.iter().enumerate() {
            let name = format!("n{li}_{ni}");
            let id = match kind % 3 {
                0 => b.add(name, adder_spec(), Box::new(Adder)).unwrap(),
                1 => b
                    .add(name, accum_spec(), Box::new(Accum { acc: 0 }))
                    .unwrap(),
                _ => b
                    .add(name, gated_accum_spec(), Box::new(Accum { acc: 0 }))
                    .unwrap(),
            };
            cur.push(id);
        }
        // Deterministic wiring: each previous node feeds one or two
        // current nodes chosen by the wiring seed.
        let w = desc.wiring.get(li).copied().unwrap_or(7);
        for (pi, &p) in prev.iter().enumerate() {
            let t1 = cur[(pi as u64 ^ w) as usize % cur.len()];
            b.connect(p, "out", t1, "in").unwrap();
            if (w >> pi) & 1 == 1 {
                let t2 = cur[(pi as u64 + w) as usize % cur.len()];
                b.connect(p, "out", t2, "in").unwrap();
            }
        }
        prev = cur;
    }
    let k = b.add("k", collect_spec(), Box::new(Collect)).unwrap();
    for &p in &prev {
        b.connect(p, "out", k, "in").unwrap();
    }
    let sim = Simulator::new(b.build().unwrap(), sched);
    (sim, k)
}

fn desc_strategy() -> impl Strategy<Value = NetDesc> {
    (
        any::<u64>(),
        prop::collection::vec(prop::collection::vec(0u8..3, 1..5), 1..5),
        prop::collection::vec(any::<u64>(), 5),
    )
        .prop_map(|(seed, layers, wiring)| NetDesc {
            seed,
            layers,
            wiring,
        })
}

/// The compiled engine reaches the Sweep oracle's fixed point on `desc`
/// (with activity-gated modules mixed in), so every observable agrees:
/// collected statistics, the per-edge transfer counts, and the number of
/// commit invocations (the gated-commit skip decision is a property of
/// the fixed point, not the schedule).
fn assert_schedulers_agree(desc: &NetDesc) {
    let (mut w, kw) = build(desc, SchedKind::Sweep);
    let (mut c, kc) = build(desc, SchedKind::Compiled);
    w.run(20).unwrap();
    c.run(20).unwrap();
    prop_assert_eq!(
        w.stats().counter(kw, "received"),
        c.stats().counter(kc, "received")
    );
    prop_assert_eq!(w.stats().counter(kw, "sum"), c.stats().counter(kc, "sum"));
    // The same transfers completed on every edge under both schedules.
    prop_assert_eq!(w.transfer_counts(), c.transfer_counts());
    // Identical commit sets: gating skipped the same instances.
    prop_assert_eq!(w.metrics().commits, c.metrics().commits);
    // The compiled plan is an optimization: never more handler runs.
    prop_assert!(c.metrics().reacts <= w.metrics().reacts);
}

/// The case recorded in `props.proptest-regressions` (the vendored
/// `proptest` does not replay that file).
#[test]
fn schedulers_agree_on_the_recorded_single_adder_netlist() {
    assert_schedulers_agree(&NetDesc {
        seed: 0,
        layers: vec![vec![0]],
        wiring: vec![0, 0, 8, 18056986763698656286, 15391133146151953638],
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sweep and the compiled engine agree on random layered netlists.
    #[test]
    fn schedulers_agree_on_random_netlists(desc in desc_strategy()) {
        assert_schedulers_agree(&desc);
    }

    /// Monotonic wire writes: the first resolution sticks; equal rewrites
    /// are idempotent; conflicting rewrites always error.
    #[test]
    fn wire_resolution_is_monotone(first in 0u64..4, second in 0u64..4) {
        let mut s = SignalState::default();
        let to_res = |x: u64| if x == 0 { Res::No } else { Res::Yes(Value::Word(x)) };
        s.write_data(to_res(first)).unwrap();
        let r = s.write_data(to_res(second));
        if first == second {
            prop_assert!(r.is_ok());
        } else {
            prop_assert!(r.is_err());
        }
        // State unchanged by the failed/idempotent second write.
        prop_assert_eq!(s.data.clone(), to_res(first));
    }

    /// Transfers require all three wires; any missing wire means no value
    /// moves.
    #[test]
    fn transfer_requires_full_handshake(d in any::<bool>(), e in any::<bool>(), a in any::<bool>()) {
        let mut s = SignalState::default();
        if d { s.write_data(Res::Yes(Value::Word(1))).unwrap(); } else { s.write_data(Res::No).unwrap(); }
        if e { s.write_enable(Res::Yes(())).unwrap(); } else { s.write_enable(Res::No).unwrap(); }
        if a { s.write_ack(Res::Yes(())).unwrap(); } else { s.write_ack(Res::No).unwrap(); }
        prop_assert_eq!(s.transfers(), d && e && a);
    }

    /// After the defaults pass, every wire is resolved and the defaults
    /// never overwrite an explicit resolution.
    #[test]
    fn defaults_complete_resolution(d in 0u8..3, e in 0u8..3, a in 0u8..3) {
        let mut s = SignalState::default();
        if d == 1 { s.write_data(Res::No).unwrap(); }
        if d == 2 { s.write_data(Res::Yes(Value::Word(9))).unwrap(); }
        if e == 1 { s.write_enable(Res::No).unwrap(); }
        if e == 2 { s.write_enable(Res::Yes(())).unwrap(); }
        if a == 1 { s.write_ack(Res::No).unwrap(); }
        if a == 2 { s.write_ack(Res::Yes(())).unwrap(); }
        let before = (s.data.clone(), s.enable.clone(), s.ack.clone());
        s.apply_defaults();
        prop_assert!(s.data.is_resolved() && s.enable.is_resolved() && s.ack.is_resolved());
        if before.0.is_resolved() { prop_assert_eq!(s.data, before.0); }
        if before.1.is_resolved() { prop_assert_eq!(s.enable, before.1); }
        if before.2.is_resolved() { prop_assert_eq!(s.ack, before.2); }
    }
}
