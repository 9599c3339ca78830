//! Deterministic handshake-level fault injection.
//!
//! The three-signal contract and the default control semantics (paper
//! §2.1) exist so independently developed components keep interoperating
//! when one of them misbehaves. That guarantee is only testable if
//! misbehaviour can be *injected*: a [`FaultPlan`] describes, ahead of a
//! run, which wires of which connections get dropped, stalled or
//! corrupted at which time-steps, and which instances are forced to panic
//! or run slow. Plans are pure data — a deterministic function of their
//! seed — so the same plan replayed on any scheduler perturbs the same
//! writes the same way, and a chaos soak that finds a bug is replayable
//! from its seed alone.
//!
//! Faults act at the kernel's single write choke point: a signal fault on
//! `(edge, wire)` transforms every *module* write to that wire during the
//! fault's step window. The kernel's own default-semantics writes are
//! never faulted — defaults are the safety net under test, not the test
//! subject. Because the transformation is a deterministic function of
//! `(kind, edge, wire, step, seed)`, faulted modules still resolve wires
//! monotonically and the per-step fixed point stays unique, which is what
//! keeps probe streams byte-identical across schedulers.
//!
//! The fault-off hot path pays nothing: without resilience state the
//! plan walk runs its straight nodes and kernels with no fault code, and
//! an island member tests one `Option` per invocation (`react_one` in
//! `crate::exec`).

use crate::netlist::{EdgeId, InstanceId};
use crate::signal::{Res, Wire, WireWrite};
use crate::topology::Topology;
use crate::value::Value;

/// What a signal fault does to writes on its wire while active.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Swallow the write: the wire stays `Unknown` until the default
    /// phase resolves it (models a lost signal).
    Drop,
    /// Force the write to `No`: data withheld / not enabled / refused
    /// (models a stuck-at-absent wire or a stalled consumer).
    Stall,
    /// Corrupt the written value: word payloads are XORed with a
    /// seed-derived mask, enable/ack polarity is flipped (models bit
    /// errors on the wire).
    Corrupt,
}

impl FaultKind {
    /// Report label ("drop" / "stall" / "corrupt").
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Stall => "stall",
            FaultKind::Corrupt => "corrupt",
        }
    }
}

/// One wire-level fault: `kind` applies to module writes of `wire` on
/// `edge` for every step in `[from, until)`.
#[derive(Clone, Debug, PartialEq)]
pub struct SignalFault {
    /// Target connection.
    pub edge: EdgeId,
    /// Which of its three wires.
    pub wire: Wire,
    /// Transformation applied while active.
    pub kind: FaultKind,
    /// First step the fault is active (inclusive).
    pub from: u64,
    /// First step the fault is inactive again (exclusive).
    pub until: u64,
}

/// An instance-level fault.
#[derive(Clone, Debug, PartialEq)]
pub enum InstFaultKind {
    /// Force a panic at the instance's first `react` of step `at`.
    Panic {
        /// Step at which the panic fires.
        at: u64,
    },
    /// Busy-delay every `react` of the instance by `spin_us`
    /// microseconds for steps in `[from, until)` — a latency spike that
    /// perturbs host timing without touching simulated behaviour.
    Latency {
        /// First affected step (inclusive).
        from: u64,
        /// First unaffected step (exclusive).
        until: u64,
        /// Host-time delay per `react`, in microseconds.
        spin_us: u64,
    },
}

/// One instance-level fault entry.
#[derive(Clone, Debug, PartialEq)]
pub struct InstanceFault {
    /// Target instance.
    pub inst: InstanceId,
    /// What happens to it.
    pub kind: InstFaultKind,
}

/// What the kernel does when a module handler fails (panics or returns
/// an error) during a resilient run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Abort the run with a structured error — today's strict behaviour.
    #[default]
    Abort,
    /// Isolate the faulting instance for the rest of the run: its
    /// handlers are never invoked again and its ports fall back to the
    /// default control semantics, so the rest of the system keeps
    /// running degraded (paper §2.2: partial specifications execute).
    Quarantine,
}

/// A deterministic, seed-driven fault-injection plan.
///
/// Build one explicitly with the `drop_wire` / `stall_wire` /
/// `corrupt_wire` / `panic_at` / `latency` builders, or draw a random
/// plan for a given topology with [`FaultPlan::random`]. Install on a
/// simulator with `Simulator::set_fault_plan`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    signals: Vec<SignalFault>,
    instances: Vec<InstanceFault>,
}

impl FaultPlan {
    /// An empty plan; `seed` parameterizes the corruption masks.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// The seed the plan (and its corruption masks) derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Add a [`FaultKind::Drop`] on `wire` of `edge` for `[from, until)`.
    pub fn drop_wire(mut self, edge: EdgeId, wire: Wire, from: u64, until: u64) -> Self {
        self.signals.push(SignalFault {
            edge,
            wire,
            kind: FaultKind::Drop,
            from,
            until,
        });
        self
    }

    /// Add a [`FaultKind::Stall`] on `wire` of `edge` for `[from, until)`.
    pub fn stall_wire(mut self, edge: EdgeId, wire: Wire, from: u64, until: u64) -> Self {
        self.signals.push(SignalFault {
            edge,
            wire,
            kind: FaultKind::Stall,
            from,
            until,
        });
        self
    }

    /// Add a [`FaultKind::Corrupt`] on `wire` of `edge` for `[from, until)`.
    pub fn corrupt_wire(mut self, edge: EdgeId, wire: Wire, from: u64, until: u64) -> Self {
        self.signals.push(SignalFault {
            edge,
            wire,
            kind: FaultKind::Corrupt,
            from,
            until,
        });
        self
    }

    /// Force `inst` to panic at its first `react` of step `at`.
    pub fn panic_at(mut self, inst: InstanceId, at: u64) -> Self {
        self.instances.push(InstanceFault {
            inst,
            kind: InstFaultKind::Panic { at },
        });
        self
    }

    /// Delay every `react` of `inst` by `spin_us` µs for `[from, until)`.
    pub fn latency(mut self, inst: InstanceId, from: u64, until: u64, spin_us: u64) -> Self {
        self.instances.push(InstanceFault {
            inst,
            kind: InstFaultKind::Latency {
                from,
                until,
                spin_us,
            },
        });
        self
    }

    /// The wire-level fault entries.
    pub fn signal_faults(&self) -> &[SignalFault] {
        &self.signals
    }

    /// The instance-level fault entries.
    pub fn instance_faults(&self) -> &[InstanceFault] {
        &self.instances
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.signals.is_empty() && self.instances.is_empty()
    }

    /// Draw a random plan for `topo`, fully determined by `seed`:
    /// roughly `intensity × edges` wire faults (drop/stall/corrupt on a
    /// random wire, with a random step window inside `[0, horizon)`) and
    /// up to `intensity × instances` forced panics. Latency spikes are
    /// never drawn (they only perturb host time); add them explicitly
    /// with [`FaultPlan::latency`] when wanted.
    pub fn random(seed: u64, topo: &Topology, horizon: u64, intensity: f64) -> Self {
        let mut rng = SplitMix::new(seed);
        let mut plan = FaultPlan::new(seed);
        let horizon = horizon.max(1);
        let n_edges = topo.edge_count() as u64;
        let n_insts = topo.instance_count() as u64;
        let n_signal = ((n_edges as f64 * intensity).ceil() as u64).min(n_edges.max(1));
        for _ in 0..n_signal {
            if n_edges == 0 {
                break;
            }
            let edge = EdgeId((rng.next() % n_edges) as u32);
            let wire = match rng.next() % 3 {
                0 => Wire::Data,
                1 => Wire::Enable,
                _ => Wire::Ack,
            };
            let kind = match rng.next() % 3 {
                0 => FaultKind::Drop,
                1 => FaultKind::Stall,
                _ => FaultKind::Corrupt,
            };
            let from = rng.next() % horizon;
            let len = 1 + rng.next() % 16;
            let fault = SignalFault {
                edge,
                wire,
                kind,
                from,
                until: (from + len).min(horizon),
            };
            plan.signals.push(fault);
        }
        let n_panic = ((n_insts as f64 * intensity * 0.25).ceil() as u64).min(n_insts.max(1));
        for _ in 0..n_panic {
            if n_insts == 0 {
                break;
            }
            let inst = InstanceId((rng.next() % n_insts) as u32);
            let at = rng.next() % horizon;
            plan.instances.push(InstanceFault {
                inst,
                kind: InstFaultKind::Panic { at },
            });
        }
        plan
    }

    /// Compile into the per-step lookup form the kernel uses.
    pub(crate) fn compile(&self, n_instances: usize) -> CompiledFaults {
        let mut instances = self.instances.clone();
        instances.sort_by_key(|f| f.inst.0);
        let mut signals = self.signals.clone();
        signals.sort_by_key(|f| (f.edge.0, f.wire.idx() as u8));
        CompiledFaults {
            seed: self.seed,
            signals,
            instances,
            quarantine_on_panic: instances_with_panics(&self.instances, n_instances),
        }
    }
}

fn instances_with_panics(faults: &[InstanceFault], n: usize) -> Vec<bool> {
    let mut v = vec![false; n];
    for f in faults {
        if matches!(f.kind, InstFaultKind::Panic { .. }) {
            if let Some(slot) = v.get_mut(f.inst.0 as usize) {
                *slot = true;
            }
        }
    }
    v
}

/// The plan in kernel form: entries pre-sorted so per-step activation
/// tables come out in deterministic `(edge, wire)` / instance order, and
/// probe emission needs no extra sorting.
#[derive(Debug)]
pub(crate) struct CompiledFaults {
    pub(crate) seed: u64,
    signals: Vec<SignalFault>,
    instances: Vec<InstanceFault>,
    /// Instances the plan will eventually panic (unused today, kept for
    /// schedule introspection in tests).
    #[allow(dead_code)]
    quarantine_on_panic: Vec<bool>,
}

impl CompiledFaults {
    /// Remove every instance-level fault targeting `inst`. The recovery
    /// path calls this before rolling back to the last checkpoint, so
    /// the replayed steps no longer re-inject the failure that triggered
    /// the rollback. Returns how many entries were masked.
    pub(crate) fn mask_instance(&mut self, inst: u32) -> usize {
        let before = self.instances.len();
        self.instances.retain(|f| f.inst.0 != inst);
        before - self.instances.len()
    }

    /// Remove every wire-level fault on `edge` (all three wires) — the
    /// divergence-recovery analogue of [`CompiledFaults::mask_instance`].
    /// Returns how many entries were masked.
    pub(crate) fn mask_edge(&mut self, edge: u32) -> usize {
        let before = self.signals.len();
        self.signals.retain(|f| f.edge.0 != edge);
        before - self.signals.len()
    }

    /// Build the active table for `now`. Plans are small (tens of
    /// entries), so a linear scan per step is cheaper than anything
    /// fancier — and only runs when a plan is installed at all.
    pub(crate) fn activate(&self, now: u64, out: &mut ActiveFaults) {
        out.clear();
        for f in &self.signals {
            if f.from <= now && now < f.until {
                // Later entries on the same (edge, wire) are shadowed by
                // the first: one active fault per wire.
                let key = (f.edge.0, f.wire.idx() as u8);
                if out.signals.last().map(|s| (s.0, s.1)) != Some(key) {
                    out.signals.push((f.edge.0, f.wire.idx() as u8, f.kind));
                }
            }
        }
        for f in &self.instances {
            match f.kind {
                InstFaultKind::Panic { at } if at == now => out.panics.push(f.inst.0),
                InstFaultKind::Latency {
                    from,
                    until,
                    spin_us,
                } if from <= now && now < until => out.latency.push((f.inst.0, spin_us)),
                _ => {}
            }
        }
        out.panics.dedup();
    }
}

/// Faults active in the current step, in deterministic order: signals
/// sorted by `(edge, wire)`, instances by id.
#[derive(Debug, Default)]
pub(crate) struct ActiveFaults {
    pub(crate) signals: Vec<(u32, u8, FaultKind)>,
    pub(crate) panics: Vec<u32>,
    pub(crate) latency: Vec<(u32, u64)>,
}

impl ActiveFaults {
    pub(crate) fn clear(&mut self) {
        self.signals.clear();
        self.panics.clear();
        self.latency.clear();
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.signals.is_empty() && self.panics.is_empty() && self.latency.is_empty()
    }

    /// The active fault on `(edge, wire)`, if any.
    pub(crate) fn signal(&self, edge: u32, wire: Wire) -> Option<FaultKind> {
        let key = (edge, wire.idx() as u8);
        self.signals
            .binary_search_by_key(&key, |s| (s.0, s.1))
            .ok()
            .map(|i| self.signals[i].2)
    }

    /// True when `inst` must panic at its first react this step.
    pub(crate) fn panics(&self, inst: u32) -> bool {
        self.panics.binary_search(&inst).is_ok()
    }

    /// The latency spike for `inst` this step, in microseconds.
    pub(crate) fn latency_us(&self, inst: u32) -> Option<u64> {
        self.latency
            .binary_search_by_key(&inst, |l| l.0)
            .ok()
            .map(|i| self.latency[i].1)
    }
}

/// Apply a fault to a module's wire write. Returns `None` when the write
/// is swallowed ([`FaultKind::Drop`]). Deterministic in
/// `(kind, edge, wire, now, seed)` and in the written value, so repeated
/// writes of equal values stay idempotent and the per-step fixed point
/// stays unique under every scheduler.
pub(crate) fn apply_fault(
    kind: FaultKind,
    w: WireWrite,
    edge: u32,
    now: u64,
    seed: u64,
) -> Option<WireWrite> {
    match kind {
        FaultKind::Drop => None,
        FaultKind::Stall => Some(match w {
            WireWrite::Data(_) => WireWrite::Data(Res::No),
            WireWrite::Enable(_) => WireWrite::Enable(Res::No),
            WireWrite::Ack(_) => WireWrite::Ack(Res::No),
        }),
        FaultKind::Corrupt => Some(match w {
            // Word payloads get a seed-derived XOR mask; other payload
            // shapes pass through unchanged (type-preserving corruption
            // keeps downstream models running, which is the point of a
            // survivable fault).
            WireWrite::Data(Res::Yes(Value::Word(v))) => {
                WireWrite::Data(Res::Yes(Value::Word(v ^ corruption_mask(edge, now, seed))))
            }
            WireWrite::Data(d) => WireWrite::Data(d),
            // Control wires flip polarity.
            WireWrite::Enable(Res::Yes(())) => WireWrite::Enable(Res::No),
            WireWrite::Enable(_) => WireWrite::Enable(Res::Yes(())),
            WireWrite::Ack(Res::Yes(())) => WireWrite::Ack(Res::No),
            WireWrite::Ack(_) => WireWrite::Ack(Res::Yes(())),
        }),
    }
}

/// Non-zero XOR mask for [`FaultKind::Corrupt`] on a data word.
fn corruption_mask(edge: u32, now: u64, seed: u64) -> u64 {
    let m = splitmix(seed ^ (u64::from(edge) << 32) ^ now.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    m | 1
}

/// Finalizer of the SplitMix64 generator: the one mixing function behind
/// corruption masks and [`FaultPlan::random`].
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Tiny deterministic generator for [`FaultPlan::random`] — the core
/// crate stays dependency-free, and plan determinism does not hinge on
/// any external crate's stream stability.
struct SplitMix {
    state: u64,
}

impl SplitMix {
    fn new(seed: u64) -> Self {
        SplitMix { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix(self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::ModuleSpec;
    use crate::netlist::NetlistBuilder;
    use crate::prelude::{CommitCtx, Module, ReactCtx, SimError};

    struct Nop;
    impl Module for Nop {
        fn react(&mut self, _: &mut ReactCtx<'_>) -> Result<(), SimError> {
            Ok(())
        }
        fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
            Ok(())
        }
    }

    fn tiny_topo() -> Topology {
        let mut b = NetlistBuilder::new();
        let s = b
            .add(
                "s",
                ModuleSpec::new("src").output("out", 1, 1),
                Box::new(Nop),
            )
            .unwrap();
        let k = b
            .add("k", ModuleSpec::new("snk").input("in", 1, 1), Box::new(Nop))
            .unwrap();
        b.connect(s, "out", k, "in").unwrap();
        b.build().unwrap().into_parts().0
    }

    #[test]
    fn random_plans_are_seed_deterministic() {
        let topo = tiny_topo();
        let a = FaultPlan::random(42, &topo, 100, 0.5);
        let b = FaultPlan::random(42, &topo, 100, 0.5);
        let c = FaultPlan::random(43, &topo, 100, 0.5);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds draw different plans");
        assert!(!a.is_empty());
        for f in a.signal_faults() {
            assert!(f.from < f.until && f.until <= 100);
            assert!((f.edge.0 as usize) < topo.edge_count());
        }
    }

    #[test]
    fn activation_window_is_half_open() {
        let plan = FaultPlan::new(1).drop_wire(EdgeId(0), Wire::Data, 5, 7);
        let compiled = plan.compile(2);
        let mut active = ActiveFaults::default();
        compiled.activate(4, &mut active);
        assert!(active.signal(0, Wire::Data).is_none());
        compiled.activate(5, &mut active);
        assert_eq!(active.signal(0, Wire::Data), Some(FaultKind::Drop));
        compiled.activate(6, &mut active);
        assert_eq!(active.signal(0, Wire::Data), Some(FaultKind::Drop));
        compiled.activate(7, &mut active);
        assert!(active.signal(0, Wire::Data).is_none());
        assert!(
            active.signal(0, Wire::Enable).is_none(),
            "other wires clean"
        );
    }

    #[test]
    fn panic_and_latency_activation() {
        let plan = FaultPlan::new(1)
            .panic_at(InstanceId(1), 3)
            .latency(InstanceId(0), 2, 4, 50);
        let compiled = plan.compile(2);
        let mut active = ActiveFaults::default();
        compiled.activate(3, &mut active);
        assert!(active.panics(1));
        assert!(!active.panics(0));
        assert_eq!(active.latency_us(0), Some(50));
        compiled.activate(4, &mut active);
        assert!(!active.panics(1));
        assert_eq!(active.latency_us(0), None);
    }

    #[test]
    fn apply_fault_transformations() {
        let w = WireWrite::Data(Res::Yes(Value::Word(5)));
        assert!(apply_fault(FaultKind::Drop, w.clone(), 0, 0, 1).is_none());
        assert_eq!(
            apply_fault(FaultKind::Stall, w.clone(), 0, 0, 1),
            Some(WireWrite::Data(Res::No))
        );
        // Corruption is deterministic and idempotent-compatible: the same
        // write corrupts to the same value.
        let c1 = apply_fault(FaultKind::Corrupt, w.clone(), 3, 7, 9).unwrap();
        let c2 = apply_fault(FaultKind::Corrupt, w.clone(), 3, 7, 9).unwrap();
        assert_eq!(c1, c2);
        assert_ne!(c1, w, "mask is non-zero");
        // Control-wire corruption flips polarity.
        assert_eq!(
            apply_fault(FaultKind::Corrupt, WireWrite::Ack(Res::Yes(())), 0, 0, 1),
            Some(WireWrite::Ack(Res::No))
        );
        assert_eq!(
            apply_fault(FaultKind::Corrupt, WireWrite::Enable(Res::No), 0, 0, 1),
            Some(WireWrite::Enable(Res::Yes(())))
        );
    }

    #[test]
    fn masking_removes_plan_entries() {
        let plan = FaultPlan::new(1)
            .drop_wire(EdgeId(0), Wire::Data, 0, 10)
            .stall_wire(EdgeId(1), Wire::Ack, 0, 10)
            .panic_at(InstanceId(0), 3)
            .panic_at(InstanceId(1), 4);
        let mut compiled = plan.compile(2);
        assert_eq!(compiled.mask_instance(0), 1);
        assert_eq!(compiled.mask_instance(0), 0, "idempotent");
        assert_eq!(compiled.mask_edge(0), 1);
        let mut active = ActiveFaults::default();
        compiled.activate(3, &mut active);
        assert!(!active.panics(0));
        assert!(active.signal(0, Wire::Data).is_none());
        assert_eq!(active.signal(1, Wire::Ack), Some(FaultKind::Stall));
        compiled.activate(4, &mut active);
        assert!(active.panics(1), "other entries survive");
    }

    #[test]
    fn shadowing_keeps_one_fault_per_wire() {
        let plan = FaultPlan::new(1)
            .drop_wire(EdgeId(0), Wire::Data, 0, 10)
            .stall_wire(EdgeId(0), Wire::Data, 0, 10);
        let compiled = plan.compile(1);
        let mut active = ActiveFaults::default();
        compiled.activate(5, &mut active);
        assert_eq!(active.signals.len(), 1, "second entry shadowed");
        assert_eq!(active.signal(0, Wire::Data), Some(FaultKind::Drop));
    }
}
