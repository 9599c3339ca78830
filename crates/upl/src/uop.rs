//! Payload types flowing between pipeline stage modules.
//!
//! Everything is carried as [`liberty_core::value::Value`] opaques, so the
//! PCL queues buffering these payloads stay completely payload-agnostic —
//! the composability property the paper's component contract provides.
//! Each type is a [`Payload`] whose word layout its impl documents.

use crate::isa::Instr;
use liberty_core::{Payload, WordSink};

/// Sentinel `pred_next` meaning "no prediction: fetch has stalled and the
/// execute stage must send a redirect with the actual next pc".
pub const PRED_STALL: u64 = u64::MAX;

/// A fetched instruction, tagged for ordering and squash.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fetched {
    /// Fetch order number.
    pub seq: u64,
    /// Speculation epoch at fetch time.
    pub epoch: u64,
    /// The instruction's pc (instruction index).
    pub pc: u64,
    /// The instruction.
    pub instr: Instr,
    /// Predicted next pc, or [`PRED_STALL`].
    pub pred_next: u64,
}

/// A decoded micro-op with operand values read at register read.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Uop {
    /// Fetch order number.
    pub seq: u64,
    /// Speculation epoch.
    pub epoch: u64,
    /// Instruction pc.
    pub pc: u64,
    /// The instruction.
    pub instr: Instr,
    /// First operand value (rs1).
    pub a: u64,
    /// Second operand value (rs2).
    pub b: u64,
    /// Predicted next pc, or [`PRED_STALL`].
    pub pred_next: u64,
}

/// A completed result heading for writeback/commit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExecResult {
    /// Fetch order number (releases the scoreboard entry).
    pub seq: u64,
    /// Speculation epoch.
    pub epoch: u64,
    /// Destination register, if any.
    pub dest: Option<u8>,
    /// Result value (ignored when `dest` is `None`).
    pub value: u64,
    /// True when this result retires a `halt`.
    pub halt: bool,
}

/// A memory operation issued by execute to the memory stage.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemUop {
    /// Fetch order number.
    pub seq: u64,
    /// Speculation epoch.
    pub epoch: u64,
    /// True for stores.
    pub write: bool,
    /// Word address.
    pub addr: u64,
    /// Store data.
    pub data: u64,
    /// Load destination register.
    pub dest: Option<u8>,
}

/// A control-flow redirect from execute to fetch and decode.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Redirect {
    /// The new speculation epoch (strictly greater than any prior).
    pub epoch: u64,
    /// Where fetch must resume.
    pub next_pc: u64,
    /// Sequence number of the redirecting instruction: everything younger
    /// (`seq > from_seq`) is wrong-path and must be squashed; everything
    /// older is still architecturally live.
    pub from_seq: u64,
}

/// A resolved-branch notification for predictor training.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BrUpdate {
    /// The branch's pc.
    pub pc: u64,
    /// Whether it was taken.
    pub taken: bool,
    /// The taken target.
    pub target: u64,
}

/// A branch prediction answer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Prediction {
    /// Predicted taken?
    pub taken: bool,
    /// Predicted target when taken (from the BTB).
    pub target: Option<u64>,
}

/// Layout: `[seq, epoch, pc, instr.0, instr.1, pred_next]`, the
/// instruction as [`Instr::words`].
impl Payload for Fetched {
    const KIND: &'static str = "upl.Fetched";
    fn encode(&self, out: &mut dyn WordSink) {
        let [i0, i1] = self.instr.words();
        for w in [self.seq, self.epoch, self.pc, i0, i1, self.pred_next] {
            out.word(w);
        }
    }
}

/// Layout: `[seq, epoch, pc, instr.0, instr.1, a, b, pred_next]`, the
/// instruction as [`Instr::words`].
impl Payload for Uop {
    const KIND: &'static str = "upl.Uop";
    fn encode(&self, out: &mut dyn WordSink) {
        let [i0, i1] = self.instr.words();
        for w in [
            self.seq,
            self.epoch,
            self.pc,
            i0,
            i1,
            self.a,
            self.b,
            self.pred_next,
        ] {
            out.word(w);
        }
    }
}

/// Layout: `[seq, epoch, dest?, value, halt]`, `dest?` as
/// [`WordSink::opt`].
impl Payload for ExecResult {
    const KIND: &'static str = "upl.ExecResult";
    fn encode(&self, out: &mut dyn WordSink) {
        out.word(self.seq);
        out.word(self.epoch);
        out.opt(self.dest.map(u64::from));
        out.word(self.value);
        out.word(u64::from(self.halt));
    }
}

/// Layout: `[seq, epoch, write, addr, data, dest?]`, `dest?` as
/// [`WordSink::opt`].
impl Payload for MemUop {
    const KIND: &'static str = "upl.MemUop";
    fn encode(&self, out: &mut dyn WordSink) {
        out.word(self.seq);
        out.word(self.epoch);
        out.word(u64::from(self.write));
        out.word(self.addr);
        out.word(self.data);
        out.opt(self.dest.map(u64::from));
    }
}

/// Layout: `[epoch, next_pc, from_seq]`.
impl Payload for Redirect {
    const KIND: &'static str = "upl.Redirect";
    fn encode(&self, out: &mut dyn WordSink) {
        out.word(self.epoch);
        out.word(self.next_pc);
        out.word(self.from_seq);
    }
}

/// Layout: `[pc, taken, target]`.
impl Payload for BrUpdate {
    const KIND: &'static str = "upl.BrUpdate";
    fn encode(&self, out: &mut dyn WordSink) {
        out.word(self.pc);
        out.word(u64::from(self.taken));
        out.word(self.target);
    }
}

/// Layout: `[taken, target?]`, `target?` as [`WordSink::opt`].
impl Payload for Prediction {
    const KIND: &'static str = "upl.Prediction";
    fn encode(&self, out: &mut dyn WordSink) {
        out.word(u64::from(self.taken));
        out.opt(self.target);
    }
}
