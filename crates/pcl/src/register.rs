//! Single-entry pipeline register (latch stage).
//!
//! The simplest stateful primitive: holds at most one value, offers it
//! downstream, accepts a new one when empty. A `queue` with `depth = 1`
//! behaves identically; this standalone version exists because pipeline
//! registers are instantiated in large numbers and need no `VecDeque`.
//!
//! ## Parameters
//! * none.

use liberty_core::prelude::*;

const P_IN: PortId = PortId(0);
const P_OUT: PortId = PortId(1);

struct Reg {
    held: Option<Value>,
}

impl Module for Reg {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        match &self.held {
            Some(v) => ctx.send(P_OUT, 0, v.clone())?,
            None => ctx.send_nothing(P_OUT, 0)?,
        }
        ctx.set_ack(P_IN, 0, self.held.is_none())?;
        Ok(())
    }

    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        if ctx.transferred_out(P_OUT, 0) {
            self.held = None;
            ctx.count("forwarded", 1);
        }
        if let Some(v) = ctx.transferred_in(P_IN, 0) {
            self.held = Some(v);
        }
        Ok(())
    }

    fn state_save(&self) -> Result<Vec<u8>, SimError> {
        let mut w = StateWriter::new();
        match &self.held {
            Some(v) => {
                w.put_bool(true);
                w.put_value(v)?;
            }
            None => w.put_bool(false),
        }
        Ok(w.into_bytes())
    }

    fn state_restore(&mut self, state: &[u8]) -> Result<(), SimError> {
        if state.is_empty() {
            self.held = None;
            return Ok(());
        }
        let mut r = StateReader::new(state);
        self.held = if r.get_bool()? {
            Some(r.get_value()?)
        } else {
            None
        };
        r.expect_end()
    }

    fn specialize(&self) -> Option<KernelHint> {
        Some(KernelHint::Register)
    }
}

// Commit only reacts to completed transfers, so the kernel may skip it
// on steps where none touched this register.
const REGISTER_SPEC: ModuleSpec = ModuleSpec::fixed(
    "register",
    &[PortSpec::input("in", 0, 1), PortSpec::output("out", 0, 1)],
)
.commit_only_when_active();

/// Construct a pipeline register.
pub fn reg(_params: &Params) -> Result<Instantiated, SimError> {
    Ok((REGISTER_SPEC, Box::new(Reg { held: None })))
}

/// Register the `register` template.
pub fn register(reg_: &mut Registry) {
    reg_.register("pcl", "register", "single-entry pipeline latch", reg);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink;
    use crate::source;

    #[test]
    fn half_throughput_without_drain_bypass() {
        // Accepts only when empty, so it alternates accept/forward.
        let mut b = NetlistBuilder::new();
        let (s_spec, s_mod) = source::script((0..6).map(Value::Word).collect());
        let s = b.add("s", s_spec, s_mod).unwrap();
        let (r_spec, r_mod) = reg(&Params::new()).unwrap();
        let r = b.add("r", r_spec, r_mod).unwrap();
        let (k_spec, k_mod, h) = sink::collecting();
        let k = b.add("k", k_spec, k_mod).unwrap();
        b.connect(s, "out", r, "in").unwrap();
        b.connect(r, "out", k, "in").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        sim.run(12).unwrap();
        let got: Vec<u64> = h.values().iter().filter_map(Value::as_word).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(sim.stats().counter(r, "forwarded"), 6);
    }

    #[test]
    fn register_matches_depth_one_queue() {
        let run = |use_queue: bool| -> Vec<u64> {
            let mut b = NetlistBuilder::new();
            let (s_spec, s_mod) = source::script((0..5).map(Value::Word).collect());
            let s = b.add("s", s_spec, s_mod).unwrap();
            let (m_spec, m_mod) = if use_queue {
                crate::queue::queue(&Params::new().with("depth", 1i64)).unwrap()
            } else {
                reg(&Params::new()).unwrap()
            };
            let m = b.add("m", m_spec, m_mod).unwrap();
            let (k_spec, k_mod, h) = sink::collecting();
            let k = b.add("k", k_spec, k_mod).unwrap();
            b.connect(s, "out", m, "in").unwrap();
            b.connect(m, "out", k, "in").unwrap();
            let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
            sim.run(15).unwrap();
            h.values().iter().filter_map(Value::as_word).collect()
        };
        assert_eq!(run(true), run(false));
    }
}
