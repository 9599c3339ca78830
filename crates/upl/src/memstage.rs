//! Memory stage: a blocking, in-order load/store unit that talks to the
//! data-memory hierarchy (a `cache` or a PCL `mem_array`) through the
//! standard request/response protocol.
//!
//! ## Ports
//! * `uop` (in, 1): [`MemUop`]s from execute.
//! * `req` (out, 1) / `resp` (in, 1): [`liberty_pcl::memarray::MemReq`] /
//!   `MemResp` to the hierarchy.
//! * `wb` (out, 1): [`ExecResult`] completions.

use crate::uop::{ExecResult, MemUop};
use liberty_core::prelude::*;
use liberty_pcl::memarray::{MemReq, MemResp};

const P_UOP: PortId = PortId(0);
const P_REQ: PortId = PortId(1);
const P_RESP: PortId = PortId(2);
const P_WB: PortId = PortId(3);

/// The memory stage module. Construct with [`memstage`].
pub struct MemStage {
    pending: Option<MemUop>,
}

impl Module for MemStage {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        match &self.pending {
            None => {
                ctx.send_nothing(P_WB, 0)?;
                ctx.set_ack(P_RESP, 0, true)?;
                match ctx.data(P_UOP, 0) {
                    Res::Unknown => Ok(()),
                    Res::No => {
                        ctx.send_nothing(P_REQ, 0)?;
                        ctx.set_ack(P_UOP, 0, true)
                    }
                    Res::Yes(v) => {
                        let m = *v.downcast_ref::<MemUop>().ok_or_else(|| {
                            SimError::type_err(format!(
                                "memstage: expected MemUop, got {}",
                                v.kind()
                            ))
                        })?;
                        let req = MemReq {
                            write: m.write,
                            addr: m.addr,
                            data: m.data,
                            tag: m.seq,
                        };
                        ctx.send(P_REQ, 0, Value::wrap(req))?;
                        // Accept the uop iff the hierarchy accepts the
                        // request (lossless).
                        match ctx.ack(P_REQ, 0)? {
                            Res::Unknown => Ok(()),
                            Res::Yes(()) => ctx.set_ack(P_UOP, 0, true),
                            Res::No => ctx.set_ack(P_UOP, 0, false),
                        }
                    }
                }
            }
            Some(p) => {
                ctx.set_ack(P_UOP, 0, false)?;
                ctx.send_nothing(P_REQ, 0)?;
                match ctx.data(P_RESP, 0) {
                    Res::Unknown => Ok(()),
                    Res::No => {
                        ctx.send_nothing(P_WB, 0)?;
                        ctx.set_ack(P_RESP, 0, true)
                    }
                    Res::Yes(v) => {
                        let r = v.downcast_ref::<MemResp>().ok_or_else(|| {
                            SimError::type_err(format!(
                                "memstage: expected MemResp, got {}",
                                v.kind()
                            ))
                        })?;
                        if r.tag != p.seq {
                            return Err(SimError::model(format!(
                                "memstage: response tag {} does not match pending seq {}",
                                r.tag, p.seq
                            )));
                        }
                        ctx.send(
                            P_WB,
                            0,
                            Value::wrap(ExecResult {
                                seq: p.seq,
                                epoch: p.epoch,
                                dest: p.dest,
                                value: r.data,
                                halt: false,
                            }),
                        )?;
                        // Consume the response iff writeback is accepted.
                        match ctx.ack(P_WB, 0)? {
                            Res::Unknown => Ok(()),
                            Res::Yes(()) => ctx.set_ack(P_RESP, 0, true),
                            Res::No => ctx.set_ack(P_RESP, 0, false),
                        }
                    }
                }
            }
        }
    }

    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        if self.pending.is_some() {
            if ctx.transferred_in(P_RESP, 0).is_some() {
                let p = self.pending.take().expect("pending");
                ctx.count(if p.write { "stores" } else { "loads" }, 1);
            }
        } else if let Some(v) = ctx.transferred_in(P_UOP, 0) {
            let m = v.downcast_ref::<MemUop>().expect("checked in react");
            self.pending = Some(*m);
        }
        Ok(())
    }
}

const MEMSTAGE_SPEC: ModuleSpec = ModuleSpec::fixed(
    "memstage",
    &[
        PortSpec::input("uop", 0, 1),
        PortSpec::output("req", 1, 1),
        PortSpec::input("resp", 1, 1),
        PortSpec::output("wb", 1, 1),
    ],
)
.with_ack_in_react();

/// Construct a memory stage.
pub fn memstage() -> Instantiated {
    (MEMSTAGE_SPEC, Box::new(MemStage { pending: None }))
}
