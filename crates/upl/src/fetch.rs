//! Fetch stage: program counter, speculation control, predictor interface.
//!
//! ## Ports
//! * `instr` (out, 1): [`Fetched`] instructions in program order.
//! * `redirect` (in, 0..1): [`Redirect`] from execute; takes effect next
//!   cycle (one bubble).
//! * `pred_q` (out, 0..1) / `pred_a` (in, 0..1): same-cycle combinational
//!   query to a branch predictor. **Leaving these unconnected is the
//!   partial-specification default**: fetch then stalls on every
//!   conditional branch until execute resolves it.
//!
//! Direct jumps (`jal`) are followed immediately; `jalr` always stalls
//! (its target is register-dependent); `halt` stops fetch.

use crate::isa::{Instr, Program};
use crate::uop::{Fetched, Prediction, Redirect, PRED_STALL};
use liberty_core::prelude::*;
use std::sync::Arc;

const P_INSTR: PortId = PortId(0);
const P_REDIRECT: PortId = PortId(1);
const P_PRED_Q: PortId = PortId(2);
const P_PRED_A: PortId = PortId(3);

/// The fetch stage module. Construct with [`fetch`].
pub struct Fetch {
    prog: Arc<Program>,
    pc: u64,
    epoch: u64,
    seq: u64,
    /// Waiting for a redirect to resolve an unpredicted control transfer.
    stalled: bool,
    /// Fetched a halt; stop until redirected (a wrong-path halt is
    /// restarted by the eventual redirect).
    stopped: bool,
}

impl Module for Fetch {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        if ctx.width(P_REDIRECT) > 0 {
            ctx.set_ack(P_REDIRECT, 0, true)?;
        }
        if ctx.width(P_PRED_A) > 0 {
            ctx.set_ack(P_PRED_A, 0, true)?;
        }
        let idle = self.stalled || self.stopped || self.pc as usize >= self.prog.instrs.len();
        if idle {
            ctx.send_nothing(P_INSTR, 0)?;
            if ctx.width(P_PRED_Q) > 0 {
                ctx.send_nothing(P_PRED_Q, 0)?;
            }
            return Ok(());
        }
        let instr = self.prog.instrs[self.pc as usize];
        let use_pred = ctx.width(P_PRED_Q) > 0 && ctx.width(P_PRED_A) > 0;
        let pred_next = match instr {
            Instr::Jal { target, .. } => {
                if use_pred {
                    ctx.send_nothing(P_PRED_Q, 0)?;
                }
                target
            }
            Instr::Jalr { .. } => {
                if use_pred {
                    ctx.send_nothing(P_PRED_Q, 0)?;
                }
                PRED_STALL
            }
            Instr::Br { target, .. } => {
                if use_pred {
                    ctx.send(P_PRED_Q, 0, Value::Word(self.pc))?;
                    match ctx.data(P_PRED_A, 0) {
                        Res::Unknown => return Ok(()), // re-woken on answer
                        Res::No => self.pc + 1,        // silent predictor
                        Res::Yes(v) => {
                            let p = v.downcast_ref::<Prediction>().ok_or_else(|| {
                                SimError::type_err(format!(
                                    "fetch: expected Prediction, got {}",
                                    v.kind()
                                ))
                            })?;
                            if p.taken {
                                p.target.unwrap_or(target)
                            } else {
                                self.pc + 1
                            }
                        }
                    }
                } else {
                    PRED_STALL
                }
            }
            _ => {
                if use_pred {
                    ctx.send_nothing(P_PRED_Q, 0)?;
                }
                self.pc + 1
            }
        };
        ctx.send(
            P_INSTR,
            0,
            Value::wrap(Fetched {
                seq: self.seq,
                epoch: self.epoch,
                pc: self.pc,
                instr,
                pred_next,
            }),
        )
    }

    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        // Advance past a successfully issued instruction.
        if ctx.transferred_out(P_INSTR, 0) {
            let instr = self.prog.instrs[self.pc as usize];
            self.seq += 1;
            ctx.count("fetched", 1);
            match instr {
                Instr::Halt => self.stopped = true,
                Instr::Jal { target, .. } => self.pc = target,
                Instr::Jalr { .. } => self.stalled = true,
                Instr::Br {
                    target, cond: _, ..
                } => {
                    // Recompute what react sent: stall or predicted path.
                    // react's decision is a pure function of state + the
                    // final predictor answer, available here.
                    let use_pred = ctx.width(P_PRED_Q) > 0 && ctx.width(P_PRED_A) > 0;
                    if use_pred {
                        match ctx.data(P_PRED_A, 0) {
                            Res::Yes(v) => {
                                let p = v.downcast_ref::<Prediction>().expect("checked in react");
                                if p.taken {
                                    self.pc = p.target.unwrap_or(target);
                                } else {
                                    self.pc += 1;
                                }
                            }
                            _ => self.pc += 1,
                        }
                    } else {
                        self.stalled = true;
                    }
                }
                _ => self.pc += 1,
            }
        }
        // A redirect overrides everything and clears stall/stop.
        if ctx.width(P_REDIRECT) > 0 {
            if let Some(v) = ctx.transferred_in(P_REDIRECT, 0) {
                let r = v.downcast_ref::<Redirect>().ok_or_else(|| {
                    SimError::type_err(format!("fetch: expected Redirect, got {}", v.kind()))
                })?;
                if r.epoch > self.epoch {
                    self.epoch = r.epoch;
                    self.pc = r.next_pc;
                    self.stalled = false;
                    self.stopped = false;
                    ctx.count("redirects", 1);
                }
            }
        }
        Ok(())
    }
}

const FETCH_SPEC: ModuleSpec = ModuleSpec::fixed(
    "fetch",
    &[
        PortSpec::output("instr", 1, 1),
        PortSpec::input("redirect", 0, 1),
        PortSpec::output("pred_q", 0, 1),
        PortSpec::input("pred_a", 0, 1),
    ],
);

/// Construct a fetch stage for a program.
pub fn fetch(prog: Arc<Program>) -> Instantiated {
    (
        FETCH_SPEC,
        Box::new(Fetch {
            prog,
            pc: 0,
            epoch: 0,
            seq: 0,
            stalled: false,
            stopped: false,
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use liberty_pcl::sink;

    #[test]
    fn fetches_straightline_in_order() {
        let p = Arc::new(assemble("t", "nop\nnop\nnop\nhalt").unwrap());
        let mut b = NetlistBuilder::new();
        let (f_spec, f_mod) = fetch(p);
        let f = b.add("f", f_spec, f_mod).unwrap();
        let (k_spec, k_mod, h) = sink::collecting();
        let k = b.add("k", k_spec, k_mod).unwrap();
        b.connect(f, "instr", k, "in").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        sim.run(10).unwrap();
        let seqs: Vec<u64> = h
            .values()
            .iter()
            .map(|v| v.downcast_ref::<Fetched>().unwrap().seq)
            .collect();
        // 3 nops + halt, then fetch stops.
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        assert_eq!(sim.stats().counter(f, "fetched"), 4);
    }

    #[test]
    fn stalls_on_branch_without_predictor() {
        let p = Arc::new(assemble("t", "beq r0, r0, 0\nnop\nhalt").unwrap());
        let mut b = NetlistBuilder::new();
        let (f_spec, f_mod) = fetch(p);
        let f = b.add("f", f_spec, f_mod).unwrap();
        let (k_spec, k_mod, h) = sink::collecting();
        let k = b.add("k", k_spec, k_mod).unwrap();
        b.connect(f, "instr", k, "in").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        sim.run(10).unwrap();
        // Only the branch is fetched; fetch waits forever for a redirect.
        assert_eq!(h.len(), 1);
        let f0 = h.values()[0].downcast_ref::<Fetched>().cloned().unwrap();
        assert_eq!(f0.pred_next, PRED_STALL);
        assert_eq!(sim.stats().counter(f, "fetched"), 1);
    }

    #[test]
    fn follows_direct_jumps() {
        let p = Arc::new(assemble("t", "jal r0, two\nnop\ntwo: halt").unwrap());
        let mut b = NetlistBuilder::new();
        let (f_spec, f_mod) = fetch(p);
        let f = b.add("f", f_spec, f_mod).unwrap();
        let (k_spec, k_mod, h) = sink::collecting();
        let k = b.add("k", k_spec, k_mod).unwrap();
        b.connect(f, "instr", k, "in").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        sim.run(10).unwrap();
        let pcs: Vec<u64> = h
            .values()
            .iter()
            .map(|v| v.downcast_ref::<Fetched>().unwrap().pc)
            .collect();
        assert_eq!(pcs, vec![0, 2]);
        assert_eq!(sim.stats().counter(f, "fetched"), 2);
    }
}
