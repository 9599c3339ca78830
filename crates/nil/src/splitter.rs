//! Address splitter: routes a CPU memory stream to two downstream
//! request/response pairs by address — the memory-mapped-I/O decoder that
//! lets a UPL core talk to device registers (paper §3.5: "support for the
//! various hardware assists and memory-mapped registers").
//!
//! Blocking (one outstanding request), matching the blocking memstage.
//!
//! ## Ports
//! * `req` (in, 1) / `resp` (out, 1): CPU side.
//! * `lo_req` (out, 1) / `lo_resp` (in, 1): addresses `< split`.
//! * `hi_req` (out, 1) / `hi_resp` (in, 1): addresses `>= split`
//!   (forwarded with `split` subtracted).

use liberty_core::prelude::*;
use liberty_pcl::memarray::{MemReq, MemResp};

const P_REQ: PortId = PortId(0);
const P_RESP: PortId = PortId(1);
const P_LO_REQ: PortId = PortId(2);
const P_LO_RESP: PortId = PortId(3);
const P_HI_REQ: PortId = PortId(4);
const P_HI_RESP: PortId = PortId(5);

struct Pending {
    hi: bool,
    sent: bool,
    req: MemReq,
}

/// The splitter module. Construct with [`splitter`].
pub struct Splitter {
    split: u64,
    pending: Option<Pending>,
    ready: Option<MemResp>,
}

impl Module for Splitter {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        ctx.set_ack(P_LO_RESP, 0, true)?;
        ctx.set_ack(P_HI_RESP, 0, true)?;
        match &self.ready {
            Some(r) => ctx.send(P_RESP, 0, Value::wrap(r.clone()))?,
            None => ctx.send_nothing(P_RESP, 0)?,
        }
        match &self.pending {
            Some(p) if !p.sent => {
                if p.hi {
                    ctx.send_nothing(P_LO_REQ, 0)?;
                    ctx.send(P_HI_REQ, 0, Value::wrap(p.req.clone()))?;
                } else {
                    ctx.send(P_LO_REQ, 0, Value::wrap(p.req.clone()))?;
                    ctx.send_nothing(P_HI_REQ, 0)?;
                }
            }
            _ => {
                ctx.send_nothing(P_LO_REQ, 0)?;
                ctx.send_nothing(P_HI_REQ, 0)?;
            }
        }
        ctx.set_ack(P_REQ, 0, self.pending.is_none() && self.ready.is_none())?;
        Ok(())
    }

    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        if ctx.transferred_out(P_RESP, 0) {
            self.ready = None;
        }
        if ctx.transferred_out(P_LO_REQ, 0) || ctx.transferred_out(P_HI_REQ, 0) {
            if let Some(p) = &mut self.pending {
                if !p.sent {
                    p.sent = true;
                }
            }
        }
        for port in [P_LO_RESP, P_HI_RESP] {
            if let Some(v) = ctx.transferred_in(port, 0) {
                let r = v.downcast_ref::<MemResp>().cloned().ok_or_else(|| {
                    SimError::type_err(format!("splitter: expected MemResp, got {}", v.kind()))
                })?;
                self.pending = None;
                self.ready = Some(r);
            }
        }
        if let Some(v) = ctx.transferred_in(P_REQ, 0) {
            let mut r = v.downcast_ref::<MemReq>().cloned().ok_or_else(|| {
                SimError::type_err(format!("splitter: expected MemReq, got {}", v.kind()))
            })?;
            let hi = r.addr >= self.split;
            if hi {
                r.addr -= self.split;
            }
            ctx.count(if hi { "hi_reqs" } else { "lo_reqs" }, 1);
            self.pending = Some(Pending {
                hi,
                sent: false,
                req: r,
            });
        }
        Ok(())
    }
}

const SPLITTER_SPEC: ModuleSpec = ModuleSpec::fixed(
    "splitter",
    &[
        PortSpec::input("req", 0, 1),
        PortSpec::output("resp", 0, 1),
        PortSpec::output("lo_req", 1, 1),
        PortSpec::input("lo_resp", 1, 1),
        PortSpec::output("hi_req", 1, 1),
        PortSpec::input("hi_resp", 1, 1),
    ],
);

/// Construct a splitter. Parameter: `split` (first hi-side address,
/// default 65536).
pub fn splitter(params: &Params) -> Result<Instantiated, SimError> {
    Ok((
        SPLITTER_SPEC,
        Box::new(Splitter {
            split: params.int_or("split", 65536)? as u64,
            pending: None,
            ready: None,
        }),
    ))
}
