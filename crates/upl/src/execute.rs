//! Execute stage: ALU operations (shared with the PCL ALU semantics),
//! branch resolution, redirect generation and predictor training.
//!
//! ## Ports
//! * `uop` (in, 1): decoded [`Uop`]s.
//! * `wb` (out, 1): [`ExecResult`] completions for non-memory ops.
//! * `mem` (out, 0..1): [`MemUop`]s to the memory stage.
//! * `redirect` (out, any): [`Redirect`] broadcast (fetch, decode, ...).
//! * `bru` (out, 0..1): [`BrUpdate`] predictor training.

use crate::isa::Instr;
use crate::uop::{BrUpdate, ExecResult, MemUop, Redirect, Uop, PRED_STALL};
use liberty_core::prelude::*;

const P_UOP: PortId = PortId(0);
const P_WB: PortId = PortId(1);
const P_MEM: PortId = PortId(2);
const P_REDIRECT: PortId = PortId(3);
const P_BRU: PortId = PortId(4);

/// What execute decides about one micro-op.
struct Outcome {
    result: Option<ExecResult>,
    mem: Option<MemUop>,
    redirect: Option<Redirect>,
    update: Option<BrUpdate>,
}

/// The execute stage module. Construct with [`execute`].
pub struct Execute {
    epoch: u64,
}

impl Execute {
    fn evaluate(u: &Uop) -> Outcome {
        let mut o = Outcome {
            result: None,
            mem: None,
            redirect: None,
            update: None,
        };
        let wb = |dest: Option<u8>, value: u64, halt: bool| ExecResult {
            seq: u.seq,
            epoch: u.epoch,
            dest,
            value,
            halt,
        };
        match u.instr {
            Instr::Alu { op, rd, .. } => {
                o.result = Some(wb((rd != 0).then_some(rd), op.eval(u.a, u.b), false))
            }
            Instr::AluI { op, rd, imm, .. } => {
                o.result = Some(wb((rd != 0).then_some(rd), op.eval(u.a, imm as u64), false))
            }
            Instr::Li { rd, imm } => {
                o.result = Some(wb((rd != 0).then_some(rd), imm as u64, false))
            }
            Instr::Nop => o.result = Some(wb(None, 0, false)),
            Instr::Halt => o.result = Some(wb(None, 0, true)),
            Instr::Ld { rd, off, .. } => {
                o.mem = Some(MemUop {
                    seq: u.seq,
                    epoch: u.epoch,
                    write: false,
                    addr: u.a.wrapping_add(off as u64),
                    data: 0,
                    dest: (rd != 0).then_some(rd),
                })
            }
            Instr::St { off, .. } => {
                o.mem = Some(MemUop {
                    seq: u.seq,
                    epoch: u.epoch,
                    write: true,
                    addr: u.a.wrapping_add(off as u64),
                    data: u.b,
                    dest: None,
                })
            }
            Instr::Br { cond, target, .. } => {
                let taken = cond.eval(u.a, u.b);
                let actual = if taken { target } else { u.pc + 1 };
                o.result = Some(wb(None, 0, false));
                o.update = Some(BrUpdate {
                    pc: u.pc,
                    taken,
                    target,
                });
                if actual != u.pred_next {
                    o.redirect = Some(Redirect {
                        epoch: u.epoch + 1,
                        next_pc: actual,
                        from_seq: u.seq,
                    });
                }
            }
            Instr::Jal { rd, target } => {
                o.result = Some(wb((rd != 0).then_some(rd), u.pc + 1, false));
                if target != u.pred_next {
                    o.redirect = Some(Redirect {
                        epoch: u.epoch + 1,
                        next_pc: target,
                        from_seq: u.seq,
                    });
                }
            }
            Instr::Jalr { rd, off, .. } => {
                let actual = u.a.wrapping_add(off as u64);
                o.result = Some(wb((rd != 0).then_some(rd), u.pc + 1, false));
                if actual != u.pred_next {
                    o.redirect = Some(Redirect {
                        epoch: u.epoch + 1,
                        next_pc: actual,
                        from_seq: u.seq,
                    });
                }
            }
        }
        o
    }

    fn send_all_nothing(&self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        ctx.send_nothing(P_WB, 0)?;
        if ctx.width(P_MEM) > 0 {
            ctx.send_nothing(P_MEM, 0)?;
        }
        for j in 0..ctx.width(P_REDIRECT) {
            ctx.send_nothing(P_REDIRECT, j)?;
        }
        if ctx.width(P_BRU) > 0 {
            ctx.send_nothing(P_BRU, 0)?;
        }
        Ok(())
    }
}

impl Module for Execute {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        match ctx.data(P_UOP, 0) {
            Res::Unknown => Ok(()),
            Res::No => {
                self.send_all_nothing(ctx)?;
                ctx.set_ack(P_UOP, 0, true)
            }
            Res::Yes(v) => {
                let u = *v.downcast_ref::<Uop>().ok_or_else(|| {
                    SimError::type_err(format!("execute: expected Uop, got {}", v.kind()))
                })?;
                if u.epoch < self.epoch {
                    self.send_all_nothing(ctx)?;
                    return ctx.set_ack(P_UOP, 0, true);
                }
                let o = Execute::evaluate(&u);
                // Drive every output.
                match &o.result {
                    Some(r) => ctx.send(P_WB, 0, Value::wrap(*r))?,
                    None => ctx.send_nothing(P_WB, 0)?,
                }
                if ctx.width(P_MEM) > 0 {
                    match &o.mem {
                        Some(m) => ctx.send(P_MEM, 0, Value::wrap(*m))?,
                        None => ctx.send_nothing(P_MEM, 0)?,
                    }
                } else if o.mem.is_some() {
                    return Err(SimError::model(format!(
                        "{}: memory instruction but no `mem` port connected",
                        ctx.name()
                    )));
                }
                for j in 0..ctx.width(P_REDIRECT) {
                    match &o.redirect {
                        Some(r) => ctx.send(P_REDIRECT, j, Value::wrap(*r))?,
                        None => ctx.send_nothing(P_REDIRECT, j)?,
                    }
                }
                if ctx.width(P_BRU) > 0 {
                    match &o.update {
                        Some(b) => ctx.send(P_BRU, 0, Value::wrap(*b))?,
                        None => ctx.send_nothing(P_BRU, 0)?,
                    }
                }
                // Consume iff the op's primary product is accepted.
                let accepted = if o.mem.is_some() {
                    ctx.ack(P_MEM, 0)?
                } else {
                    ctx.ack(P_WB, 0)?
                };
                match accepted {
                    Res::Unknown => Ok(()),
                    Res::Yes(()) => ctx.set_ack(P_UOP, 0, true),
                    Res::No => ctx.set_ack(P_UOP, 0, false),
                }
            }
        }
    }

    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        if let Some(v) = ctx.transferred_in(P_UOP, 0) {
            let u = v.downcast_ref::<Uop>().expect("checked in react");
            if u.epoch >= self.epoch {
                ctx.count("executed", 1);
                let o = Execute::evaluate(u);
                if let Some(r) = o.redirect {
                    self.epoch = r.epoch;
                    if u.pred_next != PRED_STALL {
                        ctx.count("mispredicts", 1);
                    } else {
                        ctx.count("stall_resolves", 1);
                    }
                }
                if u.instr.is_control() {
                    ctx.count("branches", 1);
                }
            } else {
                ctx.count("squashed", 1);
            }
        }
        Ok(())
    }
}

const EXECUTE_SPEC: ModuleSpec = ModuleSpec::fixed(
    "execute",
    &[
        PortSpec::input("uop", 0, 1),
        PortSpec::output("wb", 1, 1),
        PortSpec::output("mem", 0, 1),
        PortSpec::output("redirect", 0, u32::MAX),
        PortSpec::output("bru", 0, 1),
    ],
)
.with_ack_in_react();

/// Construct an execute stage.
pub fn execute() -> Instantiated {
    (EXECUTE_SPEC, Box::new(Execute { epoch: 0 }))
}
