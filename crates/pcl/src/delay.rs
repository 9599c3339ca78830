//! Fixed-latency delay line (pipeline of `latency` stages).
//!
//! Models wires/pipelines with transport latency and limited in-flight
//! capacity. Stalls (does not drop) when the consumer refuses.
//!
//! ## Ports
//! * `in` (input, width 1), `out` (output, width 1).
//!
//! ## Parameters
//! * `latency` (int, default 1) — cycles between acceptance and first
//!   availability downstream; also the in-flight capacity.

use liberty_core::prelude::*;
use std::collections::VecDeque;

const P_IN: PortId = PortId(0);
const P_OUT: PortId = PortId(1);

struct Delay {
    latency: u64,
    /// (value, ready_at) in acceptance order.
    inflight: VecDeque<(Value, u64)>,
}

impl Module for Delay {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        match self.inflight.front() {
            Some((v, ready)) if *ready <= ctx.now() => ctx.send(P_OUT, 0, v.clone())?,
            _ => ctx.send_nothing(P_OUT, 0)?,
        }
        // Capacity latency + 1: the extra slot stands in for the output
        // register, letting the line sustain one value per cycle even
        // though acceptance cannot see same-cycle departures.
        ctx.set_ack(P_IN, 0, (self.inflight.len() as u64) <= self.latency)?;
        Ok(())
    }

    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        if ctx.transferred_out(P_OUT, 0) {
            self.inflight.pop_front();
            ctx.count("delivered", 1);
        }
        if let Some(v) = ctx.transferred_in(P_IN, 0) {
            self.inflight.push_back((v, ctx.now() + self.latency));
            ctx.count("accepted", 1);
        }
        Ok(())
    }

    fn state_save(&self) -> Result<Vec<u8>, SimError> {
        let mut w = StateWriter::new();
        w.put_len(self.inflight.len());
        for (v, ready) in &self.inflight {
            w.put_value(v)?;
            w.put_u64(*ready);
        }
        Ok(w.into_bytes())
    }

    fn state_restore(&mut self, state: &[u8]) -> Result<(), SimError> {
        if state.is_empty() {
            self.inflight.clear();
            return Ok(());
        }
        let mut r = StateReader::new(state);
        let n = r.get_len()?;
        if n as u64 > self.latency + 1 {
            return Err(SimError::model(format!(
                "delay: restored in-flight count {n} exceeds capacity {}",
                self.latency + 1
            )));
        }
        let mut inflight = VecDeque::with_capacity(n);
        for _ in 0..n {
            let v = r.get_value()?;
            let ready = r.get_u64()?;
            inflight.push_back((v, ready));
        }
        r.expect_end()?;
        self.inflight = inflight;
        Ok(())
    }

    fn specialize(&self) -> Option<KernelHint> {
        Some(KernelHint::Delay {
            latency: self.latency,
        })
    }
}

// Commit only reacts to completed transfers; idle steps are skipped.
const DELAY_SPEC: ModuleSpec = ModuleSpec::fixed(
    "delay",
    &[PortSpec::input("in", 0, 1), PortSpec::output("out", 0, 1)],
)
.commit_only_when_active();

/// Construct a delay line (see module docs).
pub fn delay(params: &Params) -> Result<Instantiated, SimError> {
    let latency = params.usize_or("latency", 1)? as u64;
    if latency == 0 {
        return Err(SimError::param("delay: latency must be >= 1 (use a wire)"));
    }
    Ok((
        DELAY_SPEC,
        Box::new(Delay {
            latency,
            inflight: VecDeque::new(),
        }),
    ))
}

/// Register the `delay` template.
pub fn register(reg: &mut Registry) {
    reg.register(
        "pcl",
        "delay",
        "fixed-latency stalling delay line; params: latency",
        delay,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink;
    use crate::source;

    fn run(latency: i64, n: u64, cycles: u64) -> (Vec<u64>, Simulator, InstanceId) {
        let mut b = NetlistBuilder::new();
        let (s_spec, s_mod) = source::script((0..n).map(Value::Word).collect());
        let s = b.add("s", s_spec, s_mod).unwrap();
        let (d_spec, d_mod) = delay(&Params::new().with("latency", latency)).unwrap();
        let d = b.add("d", d_spec, d_mod).unwrap();
        let (k_spec, k_mod, h) = sink::collecting();
        let k = b.add("k", k_spec, k_mod).unwrap();
        b.connect(s, "out", d, "in").unwrap();
        b.connect(d, "out", k, "in").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        sim.run(cycles).unwrap();
        (
            h.values().iter().filter_map(Value::as_word).collect(),
            sim,
            d,
        )
    }

    #[test]
    fn latency_one_is_next_cycle() {
        let (got, _, _) = run(1, 1, 1);
        assert!(got.is_empty());
        let (got, _, _) = run(1, 1, 2);
        assert_eq!(got, vec![0]);
    }

    #[test]
    fn latency_three_delays_three() {
        // Word accepted on cycle 0 delivers on cycle 3.
        let (got, _, _) = run(3, 1, 3);
        assert!(got.is_empty());
        let (got, _, _) = run(3, 1, 4);
        assert_eq!(got, vec![0]);
    }

    #[test]
    fn full_throughput_after_fill() {
        // With in-flight capacity == latency, a delay sustains one word
        // per cycle: n words in n + latency cycles.
        let (got, _, _) = run(3, 10, 13);
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn order_preserved() {
        let (got, _, _) = run(2, 6, 20);
        assert_eq!(got, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn zero_latency_rejected() {
        assert!(delay(&Params::new().with("latency", 0i64)).is_err());
    }

    #[test]
    fn counters_match_deliveries() {
        let (got, sim, d) = run(2, 5, 20);
        assert_eq!(sim.stats().counter(d, "delivered"), got.len() as u64);
        assert_eq!(sim.stats().counter(d, "accepted"), 5);
    }
}
