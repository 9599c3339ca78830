//! Combinational word inverter — and the library's deliberate
//! *divergence probe*.
//!
//! Drives `out` with the logical negation of `in` (bit 0 of a word; "no
//! data" counts as 0, so an undriven input produces a 1). The output is
//! purely combinational: it resolves in the same time-step as the input,
//! with no registered state in between.
//!
//! That combinational pass-through is the point. A ring with an odd
//! number of inverters (the classic ring oscillator) has no fixed point
//! within a time-step, so simulating one exercises the kernel's
//! convergence watchdog: with oscillation tolerance enabled
//! ([`Simulator::set_watchdog`]) the run terminates in a structured
//! [`SimError::Divergence`] naming the oscillating wires. The
//! `specs/ring_osc.lss` specification and `docs/ROBUSTNESS.md` build on
//! this template.
//!
//! ## Ports
//! * `in` (input, width 1), `out` (output, width 1).
//!
//! ## Parameters
//! * none.

use liberty_core::prelude::*;

const P_IN: PortId = PortId(0);
const P_OUT: PortId = PortId(1);

struct Inverter;

impl Module for Inverter {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        ctx.set_ack(P_IN, 0, true)?;
        match ctx.data(P_IN, 0) {
            // Not resolved yet: stay silent; the kernel re-wakes us when
            // the input resolves (possibly to the default "no data").
            Res::Unknown => Ok(()),
            Res::No => ctx.send(P_OUT, 0, Value::Word(1)),
            Res::Yes(v) => {
                let w = v.as_word().unwrap_or(0);
                ctx.send(P_OUT, 0, Value::Word(1 - (w & 1)))
            }
        }
    }

    fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
        Ok(())
    }

    fn specialize(&self) -> Option<KernelHint> {
        // Odd rings have no fixed point; even rings do but need in-step
        // iteration. Either way the classifier keeps cyclic islands
        // dynamic, so the hint is unconditional here.
        Some(KernelHint::Inverter)
    }
}

const INVERTER_SPEC: ModuleSpec = ModuleSpec::fixed(
    "inverter",
    &[PortSpec::input("in", 0, 1), PortSpec::output("out", 0, 1)],
)
.commit_only_when_active();

/// Construct an inverter (see module docs).
pub fn inverter(_params: &Params) -> Result<Instantiated, SimError> {
    Ok((INVERTER_SPEC, Box::new(Inverter)))
}

/// Register the `inverter` template.
pub fn register(reg: &mut Registry) {
    reg.register(
        "pcl",
        "inverter",
        "combinational logical-NOT of a word; odd rings exercise the divergence watchdog",
        inverter,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink;
    use crate::source;

    #[test]
    fn inverts_words_and_silence() {
        let mut b = NetlistBuilder::new();
        let (s_spec, s_mod) = source::script(vec![Value::Word(0), Value::Word(1), Value::Word(7)]);
        let s = b.add("s", s_spec, s_mod).unwrap();
        let (i_spec, i_mod) = inverter(&Params::new()).unwrap();
        let inv = b.add("i", i_spec, i_mod).unwrap();
        let (k_spec, k_mod, h) = sink::collecting();
        let k = b.add("k", k_spec, k_mod).unwrap();
        b.connect(s, "out", inv, "in").unwrap();
        b.connect(inv, "out", k, "in").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        sim.run(5).unwrap();
        let got: Vec<u64> = h.values().iter().filter_map(Value::as_word).collect();
        // 0 -> 1, 1 -> 0, 7 (odd) -> 0, then the drained source's "no
        // data" default reads as 0 -> 1.
        assert_eq!(got, vec![1, 0, 0, 1, 1]);
    }

    #[test]
    fn odd_ring_diverges_even_ring_settles() {
        let build = |n: usize| {
            let mut b = NetlistBuilder::new();
            let ids: Vec<InstanceId> = (0..n)
                .map(|i| {
                    let (spec, m) = inverter(&Params::new()).unwrap();
                    b.add(format!("inv{i}"), spec, m).unwrap()
                })
                .collect();
            for i in 0..n {
                b.connect(ids[i], "out", ids[(i + 1) % n], "in").unwrap();
            }
            Simulator::new(b.build().unwrap(), SchedKind::Compiled)
        };
        let mut odd = build(3);
        odd.set_watchdog(256);
        let err = odd.run(1).unwrap_err();
        assert!(err.as_divergence().is_some(), "{err}");
        let mut even = build(4);
        even.set_watchdog(256);
        even.run(4).unwrap();
    }
}
