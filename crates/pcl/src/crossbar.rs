//! Crossbar: routes [`Routed`] values from N inputs to M outputs with
//! per-output arbitration.
//!
//! ## Ports
//! * `in` (input, any width): [`Routed`] values; `dst` selects the output
//!   connection.
//! * `out` (output, any width).
//!
//! ## Parameters
//! * `strip` (bool, default true) — forward only the payload; when false
//!   the whole `Routed` is forwarded (for multi-hop fabrics).
//! * `policy` (str, default "fixed") — per-output arbitration among
//!   contending inputs: "fixed" or "round_robin".

use crate::Routed;
use liberty_core::prelude::*;

const P_IN: PortId = PortId(0);
const P_OUT: PortId = PortId(1);

struct Crossbar {
    strip: bool,
    round_robin: bool,
    /// Per-output round-robin pointer.
    rr: Vec<usize>,
    /// Scratch, rebuilt by every `react` and `commit` (so not state):
    /// each input's requested output (None = no request) ...
    dsts: Vec<Option<u32>>,
    /// ... and each output's winning input.
    winners: Vec<Option<usize>>,
}

impl Crossbar {
    /// Fill `winners` for `out_w` outputs from the requests in `dsts`.
    fn assign(&mut self, out_w: usize) {
        let n = self.dsts.len();
        self.winners.clear();
        for j in 0..out_w {
            let mut requesters = (0..n).filter(|&i| self.dsts[i] == Some(j as u32));
            let winner = if self.round_robin {
                let ptr = self.rr.get(j).copied().unwrap_or(0);
                requesters.min_by_key(|&i| (i + n - ptr % n.max(1)) % n)
            } else {
                requesters.next()
            };
            self.winners.push(winner);
        }
    }
}

impl Module for Crossbar {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        let n = ctx.width(P_IN);
        let out_w = ctx.width(P_OUT);
        self.dsts.clear();
        for i in 0..n {
            self.dsts.push(match ctx.data(P_IN, i) {
                Res::Unknown => return Ok(()), // need every request wire
                Res::No => None,
                Res::Yes(v) => Some(Routed::from_value(&v)?.dst),
            });
        }
        // Reject out-of-range destinations outright.
        if let Some(d) = self.dsts.iter().flatten().find(|&&d| d as usize >= out_w) {
            return Err(SimError::model(format!(
                "{}: Routed dst {} out of range ({} outputs)",
                ctx.name(),
                d,
                out_w
            )));
        }
        self.assign(out_w);
        // Drive outputs.
        for j in 0..out_w {
            match self.winners[j] {
                Some(i) => {
                    if let Res::Yes(v) = ctx.data(P_IN, i) {
                        let fwd = if self.strip {
                            Routed::from_value(&v)?.payload.clone()
                        } else {
                            v
                        };
                        ctx.send(P_OUT, j, fwd)?;
                    }
                }
                None => ctx.send_nothing(P_OUT, j)?,
            }
        }
        // Input flow control: losers refuse; idle accept; winners mirror
        // the output ack (lossless).
        for i in 0..n {
            match self.dsts[i] {
                None => ctx.set_ack(P_IN, i, true)?,
                Some(d) => {
                    let j = d as usize;
                    if self.winners[j] == Some(i) {
                        match ctx.ack(P_OUT, j)? {
                            Res::Unknown => {} // re-woken on resolution
                            Res::Yes(()) => ctx.set_ack(P_IN, i, true)?,
                            Res::No => ctx.set_ack(P_IN, i, false)?,
                        }
                    } else {
                        ctx.set_ack(P_IN, i, false)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        let n = ctx.width(P_IN);
        let out_w = ctx.width(P_OUT);
        if self.rr.len() < out_w {
            self.rr.resize(out_w, 0);
        }
        self.dsts.clear();
        for i in 0..n {
            self.dsts.push(match ctx.data(P_IN, i) {
                // A corrupted destination is rejected by react; never let
                // it through to the winner-table indexing below.
                Res::Yes(v) => Some(Routed::from_value(&v)?.dst).filter(|&d| (d as usize) < out_w),
                _ => None,
            });
        }
        self.assign(out_w);
        for j in 0..out_w {
            if ctx.transferred_out(P_OUT, j) {
                ctx.count("forwarded", 1);
                if let Some(w) = self.winners[j] {
                    if self.round_robin {
                        self.rr[j] = (w + 1) % n.max(1);
                    }
                }
            }
        }
        // Conflict census: inputs that requested but lost.
        let contending = (0..n)
            .filter(|&i| self.dsts[i].is_some_and(|d| self.winners[d as usize] != Some(i)))
            .count();
        if contending > 0 {
            ctx.count("conflicts", contending as u64);
        }
        Ok(())
    }

    fn state_save(&self) -> Result<Vec<u8>, SimError> {
        // Only the round-robin pointers are durable; `strip` and the
        // policy flag are configuration.
        let mut w = StateWriter::new();
        w.put_len(self.rr.len());
        for &p in &self.rr {
            w.put_u64(p as u64);
        }
        Ok(w.into_bytes())
    }

    fn state_restore(&mut self, state: &[u8]) -> Result<(), SimError> {
        if state.is_empty() {
            self.rr.clear();
            return Ok(());
        }
        let mut r = StateReader::new(state);
        let n = r.get_len()?;
        let mut rr = Vec::with_capacity(n);
        for _ in 0..n {
            rr.push(r.get_u64()? as usize);
        }
        r.expect_end()?;
        self.rr = rr;
        Ok(())
    }
}

const CROSSBAR_SPEC: ModuleSpec = ModuleSpec::fixed(
    "crossbar",
    &[
        PortSpec::input("in", 0, u32::MAX),
        PortSpec::output("out", 0, u32::MAX),
    ],
)
.with_ack_in_react();

/// Construct a crossbar (see module docs).
pub fn crossbar(params: &Params) -> Result<Instantiated, SimError> {
    let strip = params.bool_or("strip", true)?;
    let round_robin = match params.str_or("policy", "fixed")?.as_str() {
        "fixed" => false,
        "round_robin" => true,
        other => {
            return Err(SimError::param(format!(
                "crossbar: unknown policy {other:?} (fixed, round_robin)"
            )))
        }
    };
    Ok((
        CROSSBAR_SPEC,
        Box::new(Crossbar {
            strip,
            round_robin,
            rr: Vec::new(),
            dsts: Vec::new(),
            winners: Vec::new(),
        }),
    ))
}

/// Register the `crossbar` template.
pub fn register(reg: &mut Registry) {
    reg.register(
        "pcl",
        "crossbar",
        "N-to-M Routed crossbar; params: strip, policy = fixed | round_robin",
        crossbar,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink;
    use crate::source;

    #[test]
    fn routes_by_destination() {
        let mut b = NetlistBuilder::new();
        let (s_spec, s_mod) = source::script(vec![
            Routed::wrap(1, Value::Word(10)),
            Routed::wrap(0, Value::Word(20)),
            Routed::wrap(1, Value::Word(30)),
        ]);
        let s = b.add("s", s_spec, s_mod).unwrap();
        let (x_spec, x_mod) = crossbar(&Params::new()).unwrap();
        let x = b.add("x", x_spec, x_mod).unwrap();
        let (k0_spec, k0_mod, h0) = sink::collecting();
        let k0 = b.add("k0", k0_spec, k0_mod).unwrap();
        let (k1_spec, k1_mod, h1) = sink::collecting();
        let k1 = b.add("k1", k1_spec, k1_mod).unwrap();
        b.connect(s, "out", x, "in").unwrap();
        b.connect(x, "out", k0, "in").unwrap();
        b.connect(x, "out", k1, "in").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        sim.run(6).unwrap();
        let g0: Vec<u64> = h0.values().iter().filter_map(Value::as_word).collect();
        let g1: Vec<u64> = h1.values().iter().filter_map(Value::as_word).collect();
        assert_eq!(g0, vec![20]);
        assert_eq!(g1, vec![10, 30]);
    }

    #[test]
    fn contention_is_arbitrated_and_lossless() {
        let mut b = NetlistBuilder::new();
        let (a_spec, a_mod) = source::script(vec![
            Routed::wrap(0, Value::Word(1)),
            Routed::wrap(0, Value::Word(2)),
        ]);
        let a = b.add("a", a_spec, a_mod).unwrap();
        let (c_spec, c_mod) = source::script(vec![
            Routed::wrap(0, Value::Word(3)),
            Routed::wrap(0, Value::Word(4)),
        ]);
        let c = b.add("c", c_spec, c_mod).unwrap();
        let (x_spec, x_mod) = crossbar(&Params::new().with("policy", "round_robin")).unwrap();
        let x = b.add("x", x_spec, x_mod).unwrap();
        let (k_spec, k_mod, h) = sink::collecting();
        let k = b.add("k", k_spec, k_mod).unwrap();
        b.connect(a, "out", x, "in").unwrap();
        b.connect(c, "out", x, "in").unwrap();
        b.connect(x, "out", k, "in").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        sim.run(8).unwrap();
        let mut got: Vec<u64> = h.values().iter().filter_map(Value::as_word).collect();
        // All four values arrive exactly once (losslessness)...
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3, 4]);
        // ...and contention was recorded.
        assert!(sim.stats().counter(x, "conflicts") > 0);
    }

    #[test]
    fn strip_false_forwards_routed() {
        let mut b = NetlistBuilder::new();
        let (s_spec, s_mod) = source::script(vec![Routed::wrap(0, Value::Word(5))]);
        let s = b.add("s", s_spec, s_mod).unwrap();
        let (x_spec, x_mod) = crossbar(&Params::new().with("strip", false)).unwrap();
        let x = b.add("x", x_spec, x_mod).unwrap();
        let (k_spec, k_mod, h) = sink::collecting();
        let k = b.add("k", k_spec, k_mod).unwrap();
        b.connect(s, "out", x, "in").unwrap();
        b.connect(x, "out", k, "in").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        sim.run(3).unwrap();
        let vals = h.values();
        assert_eq!(vals.len(), 1);
        let r = Routed::from_value(&vals[0]).unwrap();
        assert_eq!(r.dst, 0);
        assert_eq!(r.payload.as_word(), Some(5));
    }

    #[test]
    fn out_of_range_destination_errors() {
        let mut b = NetlistBuilder::new();
        let (s_spec, s_mod) = source::script(vec![Routed::wrap(7, Value::Word(5))]);
        let s = b.add("s", s_spec, s_mod).unwrap();
        let (x_spec, x_mod) = crossbar(&Params::new()).unwrap();
        let x = b.add("x", x_spec, x_mod).unwrap();
        let (k_spec, k_mod, _h) = sink::collecting();
        let k = b.add("k", k_spec, k_mod).unwrap();
        b.connect(s, "out", x, "in").unwrap();
        b.connect(x, "out", k, "in").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        assert!(sim.step().is_err());
    }
}
