//! Tee: replicate one input stream to several consumers.
//!
//! ## Ports
//! * `in` (input, width 1), `out` (output, any width).
//!
//! ## Parameters
//! * `policy` (str): `"all"` (default — the input is consumed only when
//!   *every* consumer accepts, synchronous broadcast) or `"any"` (consumed
//!   when at least one accepts; refusing consumers miss the value).

use liberty_core::prelude::*;

const P_IN: PortId = PortId(0);
const P_OUT: PortId = PortId(1);

struct Tee {
    require_all: bool,
}

impl Module for Tee {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        let out_w = ctx.width(P_OUT);
        match ctx.data(P_IN, 0) {
            Res::Unknown => return Ok(()),
            Res::No => {
                for j in 0..out_w {
                    ctx.send_nothing(P_OUT, j)?;
                }
                ctx.set_ack(P_IN, 0, true)?;
                return Ok(());
            }
            Res::Yes(v) => {
                // Drive data only; enable is qualified below once every
                // consumer's answer is known, so "all" broadcasts are
                // atomic: either every consumer takes the value or none do.
                for j in 0..out_w {
                    ctx.set_data(P_OUT, j, Res::Yes(v.clone()))?;
                }
            }
        }
        let mut all = true;
        let mut any = false;
        for j in 0..out_w {
            match ctx.ack(P_OUT, j)? {
                Res::Unknown => return Ok(()), // wait
                Res::Yes(()) => any = true,
                Res::No => all = false,
            }
        }
        let consume = if self.require_all { all } else { any };
        for j in 0..out_w {
            // In "all" mode a single refusal disables every delivery; in
            // "any" mode each accepting consumer takes its copy.
            ctx.set_enable(P_OUT, j, !self.require_all || all)?;
        }
        ctx.set_ack(P_IN, 0, consume)?;
        Ok(())
    }

    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        if ctx.transferred_in(P_IN, 0).is_some() {
            ctx.count("consumed", 1);
        }
        for j in 0..ctx.width(P_OUT) {
            if ctx.transferred_out(P_OUT, j) {
                ctx.count("delivered", 1);
            }
        }
        Ok(())
    }

    fn specialize(&self) -> Option<KernelHint> {
        Some(KernelHint::Tee {
            require_all: self.require_all,
        })
    }
}

const TEE_SPEC: ModuleSpec = ModuleSpec::fixed(
    "tee",
    &[
        PortSpec::input("in", 0, 1),
        PortSpec::output("out", 0, u32::MAX),
    ],
)
.with_ack_in_react();

/// Construct a tee (see module docs).
pub fn tee(params: &Params) -> Result<Instantiated, SimError> {
    let require_all = match params.str_or("policy", "all")?.as_str() {
        "all" => true,
        "any" => false,
        other => {
            return Err(SimError::param(format!(
                "tee: unknown policy {other:?} (all, any)"
            )))
        }
    };
    Ok((TEE_SPEC, Box::new(Tee { require_all })))
}

/// Register the `tee` template.
pub fn register(reg: &mut Registry) {
    reg.register(
        "pcl",
        "tee",
        "1-to-N replicator; params: policy = all | any",
        tee,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink;
    use crate::source;

    /// A sink that accepts on even cycles only.
    struct EvenSink;
    impl Module for EvenSink {
        fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
            ctx.set_ack(PortId(0), 0, ctx.now() % 2 == 0)
        }
        fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
            if ctx.transferred_in(PortId(0), 0).is_some() {
                ctx.count("received", 1);
            }
            Ok(())
        }
    }

    fn setup(policy: &str) -> (Simulator, InstanceId, InstanceId, sink::Collected) {
        let mut b = NetlistBuilder::new();
        let (s_spec, s_mod) = source::script((0..4).map(Value::Word).collect());
        let s = b.add("s", s_spec, s_mod).unwrap();
        let (t_spec, t_mod) = tee(&Params::new().with("policy", policy)).unwrap();
        let t = b.add("t", t_spec, t_mod).unwrap();
        let (k_spec, k_mod, h) = sink::collecting();
        let k = b.add("k", k_spec, k_mod).unwrap();
        let e = b
            .add(
                "e",
                ModuleSpec::new("even_sink").input("in", 1, 1),
                Box::new(EvenSink),
            )
            .unwrap();
        b.connect(s, "out", t, "in").unwrap();
        b.connect(t, "out", k, "in").unwrap();
        b.connect(t, "out", e, "in").unwrap();
        (
            Simulator::new(b.build().unwrap(), SchedKind::Compiled),
            t,
            e,
            h,
        )
    }

    #[test]
    fn all_policy_synchronizes_on_slowest() {
        let (mut sim, t, e, h) = setup("all");
        sim.run(8).unwrap();
        // EvenSink accepts on cycles 0,2,4,6: exactly 4 broadcasts.
        assert_eq!(sim.stats().counter(t, "consumed"), 4);
        assert_eq!(sim.stats().counter(e, "received"), 4);
        assert_eq!(h.len(), 4);
        // Both consumers saw the same, complete sequence.
        let got: Vec<u64> = h.values().iter().filter_map(Value::as_word).collect();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn any_policy_drops_at_refusers() {
        let (mut sim, t, e, h) = setup("any");
        sim.run(4).unwrap();
        // The always-accepting sink drives progress every cycle...
        assert_eq!(sim.stats().counter(t, "consumed"), 4);
        assert_eq!(h.len(), 4);
        // ...while the even-cycle sink catches only half.
        assert_eq!(sim.stats().counter(e, "received"), 2);
    }

    #[test]
    fn unknown_policy_rejected() {
        assert!(tee(&Params::new().with("policy", "most")).is_err());
    }
}
