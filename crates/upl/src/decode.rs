//! Decode / register-read / commit stage.
//!
//! Owns the architectural register file and a scoreboard of in-flight
//! destinations. Issues at most one micro-op per cycle, stalling on RAW
//! and WAW hazards (no bypass network — results become visible the cycle
//! after writeback). Also serves as the commit point: writeback results
//! arrive on `wb`, retire instructions, update the register file and
//! release scoreboard entries.
//!
//! ## Ports
//! * `instr` (in, 1): [`Fetched`] from the fetch buffer.
//! * `uop` (out, 1): decoded [`Uop`] with operand values.
//! * `wb` (in, any): [`ExecResult`] completions.
//! * `redirect` (in, 0..1): squash notification from execute.

use crate::isa::Instr;
use crate::uop::{ExecResult, Fetched, Redirect, Uop};
use liberty_core::prelude::*;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const P_INSTR: PortId = PortId(0);
const P_UOP: PortId = PortId(1);
const P_WB: PortId = PortId(2);
const P_REDIRECT: PortId = PortId(3);

/// Observable architectural state owned by the decode/commit stage.
#[derive(Clone, Default)]
pub struct DecodeHandles {
    /// The register file.
    pub regs: Arc<Mutex<[u64; 32]>>,
    /// Set when a `halt` retires.
    pub halted: Arc<AtomicBool>,
}

impl DecodeHandles {
    /// Has a halt retired?
    pub fn is_halted(&self) -> bool {
        self.halted.load(Ordering::SeqCst)
    }
}

struct Busy {
    seq: u64,
    dest: u8,
}

/// The decode stage module. Construct with [`decode`].
pub struct Decode {
    handles: DecodeHandles,
    busy: Vec<Busy>,
    epoch: u64,
}

impl Decode {
    fn hazard(&self, instr: &Instr) -> bool {
        let dest_conflict = instr
            .dest()
            .is_some_and(|d| self.busy.iter().any(|b| b.dest == d));
        let src_conflict = instr
            .sources()
            .any(|s| self.busy.iter().any(|b| b.dest == s));
        dest_conflict || src_conflict
    }

    /// Operand read: `a` = rs1-like value, `b` = rs2-like value.
    fn operands(&self, instr: &Instr) -> (u64, u64) {
        let regs = self.handles.regs.lock();
        let r = |i: u8| regs[i as usize];
        match *instr {
            Instr::Alu { rs1, rs2, .. } | Instr::Br { rs1, rs2, .. } => (r(rs1), r(rs2)),
            Instr::AluI { rs1, .. } | Instr::Ld { rs1, .. } | Instr::Jalr { rs1, .. } => {
                (r(rs1), 0)
            }
            Instr::St { rs1, rs2, .. } => (r(rs1), r(rs2)),
            _ => (0, 0),
        }
    }
}

impl Module for Decode {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        for i in 0..ctx.width(P_WB) {
            ctx.set_ack(P_WB, i, true)?;
        }
        if ctx.width(P_REDIRECT) > 0 {
            ctx.set_ack(P_REDIRECT, 0, true)?;
        }
        match ctx.data(P_INSTR, 0) {
            Res::Unknown => Ok(()),
            Res::No => {
                ctx.send_nothing(P_UOP, 0)?;
                ctx.set_ack(P_INSTR, 0, true)
            }
            Res::Yes(v) => {
                let f = *v.downcast_ref::<Fetched>().ok_or_else(|| {
                    SimError::type_err(format!("decode: expected Fetched, got {}", v.kind()))
                })?;
                if f.epoch < self.epoch {
                    // Wrong-path leftovers: consume and drop.
                    ctx.send_nothing(P_UOP, 0)?;
                    return ctx.set_ack(P_INSTR, 0, true);
                }
                if self.hazard(&f.instr) {
                    ctx.count("hazard_stalls", 1);
                    ctx.send_nothing(P_UOP, 0)?;
                    return ctx.set_ack(P_INSTR, 0, false);
                }
                let (a, b) = self.operands(&f.instr);
                ctx.send(
                    P_UOP,
                    0,
                    Value::wrap(Uop {
                        seq: f.seq,
                        epoch: f.epoch,
                        pc: f.pc,
                        instr: f.instr,
                        a,
                        b,
                        pred_next: f.pred_next,
                    }),
                )?;
                // Lossless issue: consume the instruction only if the
                // micro-op is accepted downstream.
                match ctx.ack(P_UOP, 0)? {
                    Res::Unknown => Ok(()),
                    Res::Yes(()) => ctx.set_ack(P_INSTR, 0, true),
                    Res::No => ctx.set_ack(P_INSTR, 0, false),
                }
            }
        }
    }

    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        // Retire completions.
        for i in 0..ctx.width(P_WB) {
            if let Some(v) = ctx.transferred_in(P_WB, i) {
                let r = v.downcast_ref::<ExecResult>().ok_or_else(|| {
                    SimError::type_err(format!("decode: expected ExecResult, got {}", v.kind()))
                })?;
                if let Some(d) = r.dest {
                    self.handles.regs.lock()[d as usize] = r.value;
                }
                self.busy.retain(|b| b.seq != r.seq);
                ctx.count("retired", 1);
                if r.halt {
                    self.handles.halted.store(true, Ordering::SeqCst);
                    ctx.count("halted", 1);
                }
            }
        }
        // Record newly issued destinations.
        if let Some(v) = ctx.transferred_in(P_INSTR, 0) {
            let f = v.downcast_ref::<Fetched>().expect("checked in react");
            if f.epoch >= self.epoch {
                if let Some(d) = f.instr.dest() {
                    self.busy.push(Busy {
                        seq: f.seq,
                        dest: d,
                    });
                }
            }
        }
        // Squash on redirect: only entries *younger* than the redirecting
        // instruction are wrong-path; older in-flight instructions (e.g. a
        // load issued before the branch) are architecturally live and will
        // still write back — pruning them would let dependents issue with
        // stale registers.
        if ctx.width(P_REDIRECT) > 0 {
            if let Some(v) = ctx.transferred_in(P_REDIRECT, 0) {
                let r = v.downcast_ref::<Redirect>().ok_or_else(|| {
                    SimError::type_err(format!("decode: expected Redirect, got {}", v.kind()))
                })?;
                if r.epoch > self.epoch {
                    self.epoch = r.epoch;
                    self.busy.retain(|b| b.seq <= r.from_seq);
                }
            }
        }
        Ok(())
    }
}

const DECODE_SPEC: ModuleSpec = ModuleSpec::fixed(
    "decode",
    &[
        PortSpec::input("instr", 0, 1),
        PortSpec::output("uop", 0, 1),
        PortSpec::input("wb", 0, u32::MAX),
        PortSpec::input("redirect", 0, 1),
    ],
)
.with_ack_in_react();

/// Construct a decode stage; the returned handles expose the register file
/// and halt flag for architectural-state checks.
pub fn decode() -> (ModuleSpec, Box<dyn Module>, DecodeHandles) {
    let handles = DecodeHandles::default();
    (
        DECODE_SPEC,
        Box::new(Decode {
            handles: handles.clone(),
            busy: Vec::new(),
            epoch: 0,
        }),
        handles,
    )
}
