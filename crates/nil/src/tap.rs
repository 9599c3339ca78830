//! Frame taps: capture and replay of network traffic (paper §3.5:
//! "collecting the I/O traces of host and network traffic that will later
//! drive the simulation").
//!
//! A [`frame_tap`] sits transparently on a frame stream, recording
//! `(time, frame)` pairs into a shared trace; [`replay_source`] plays a
//! recorded trace back with its original inter-arrival timing — so a
//! detailed producer can be captured once and replayed many times against
//! model variants.

use crate::eth::EthFrame;
use liberty_core::prelude::*;
use parking_lot::Mutex;
use std::sync::Arc;

const P_IN: PortId = PortId(0);
const P_OUT: PortId = PortId(1);

/// A captured trace: `(capture time, frame)` in capture order.
pub type FrameTrace = Arc<Mutex<Vec<(u64, EthFrame)>>>;

struct Tap {
    trace: FrameTrace,
    held: Option<Value>,
}

impl Module for Tap {
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
        }
        if let Some(v) = ctx.transferred_in(P_IN, 0) {
            let f = EthFrame::from_value(&v)?.clone();
            self.trace.lock().push((ctx.now(), f));
            ctx.count("captured", 1);
            self.held = Some(v);
        }
        Ok(())
    }
}

const FRAME_TAP_SPEC: ModuleSpec = ModuleSpec::fixed(
    "frame_tap",
    &[PortSpec::input("in", 1, 1), PortSpec::output("out", 1, 1)],
);

/// A transparent recording stage for frame streams (one-entry store and
/// forward; adds one cycle, like any register). Returns the trace handle.
pub fn frame_tap() -> (ModuleSpec, Box<dyn Module>, FrameTrace) {
    let trace: FrameTrace = Arc::default();
    (
        FRAME_TAP_SPEC,
        Box::new(Tap {
            trace: trace.clone(),
            held: None,
        }),
        trace,
    )
}

struct Replay {
    script: Vec<(u64, EthFrame)>,
    next: usize,
}

impl Module for Replay {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        match self.script.get(self.next) {
            Some((at, f)) if *at <= ctx.now() => ctx.send(P_IN, 0, f.clone().into_value()),
            _ => ctx.send_nothing(P_IN, 0),
        }
    }

    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        if ctx.transferred_out(P_IN, 0) {
            self.next += 1;
            ctx.count("replayed", 1);
        }
        Ok(())
    }
}

const REPLAY_SOURCE_SPEC: ModuleSpec =
    ModuleSpec::fixed("replay_source", &[PortSpec::output("out", 0, 1)]);

/// Replays a captured trace with its original timing (frames become
/// eligible at their capture times; backpressure may delay them further).
pub fn replay_source(trace: &FrameTrace) -> Instantiated {
    (
        REPLAY_SOURCE_SPEC,
        Box::new(Replay {
            script: trace.lock().clone(),
            next: 0,
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use liberty_pcl::{sink, source};

    fn frame(id: u64, len: u32) -> Value {
        EthFrame {
            src: 0,
            dst: 1,
            len_bytes: len,
            id,
            created: 0,
            payload: None,
        }
        .into_value()
    }

    #[test]
    fn tap_captures_transparently() {
        let mut b = NetlistBuilder::new();
        let (s_spec, s_mod) = source::script(vec![frame(1, 8), frame(2, 16)]);
        let s = b.add("s", s_spec, s_mod).unwrap();
        let (t_spec, t_mod, trace) = frame_tap();
        let t = b.add("tap", t_spec, t_mod).unwrap();
        let (k_spec, k_mod, h) = sink::collecting();
        let k = b.add("k", k_spec, k_mod).unwrap();
        b.connect(s, "out", t, "in").unwrap();
        b.connect(t, "out", k, "in").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        sim.run(10).unwrap();
        // Everything flows through...
        assert_eq!(h.len(), 2);
        // ...and the trace recorded both frames with timestamps.
        let tr = trace.lock();
        assert_eq!(tr.len(), 2);
        assert_eq!(tr[0].1.id, 1);
        assert_eq!(tr[1].1.id, 2);
        assert!(tr[0].0 < tr[1].0);
    }

    #[test]
    fn capture_then_replay_reproduces_stream_and_timing() {
        // Capture a gappy stream.
        let trace: FrameTrace = Arc::default();
        {
            let mut tr = trace.lock();
            tr.push((
                0,
                EthFrame {
                    src: 0,
                    dst: 1,
                    len_bytes: 8,
                    id: 10,
                    created: 0,
                    payload: None,
                },
            ));
            tr.push((
                5,
                EthFrame {
                    src: 0,
                    dst: 1,
                    len_bytes: 8,
                    id: 11,
                    created: 0,
                    payload: None,
                },
            ));
        }
        let mut b = NetlistBuilder::new();
        let (r_spec, r_mod) = replay_source(&trace);
        let r = b.add("r", r_spec, r_mod).unwrap();
        let (k_spec, k_mod, h) = sink::collecting();
        let k = b.add("k", k_spec, k_mod).unwrap();
        b.connect(r, "out", k, "in").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        sim.run(3).unwrap();
        assert_eq!(h.len(), 1, "second frame not yet eligible");
        sim.run(4).unwrap();
        assert_eq!(h.len(), 2);
        let ids: Vec<u64> = h
            .values()
            .iter()
            .map(|v| EthFrame::from_value(v).unwrap().id)
            .collect();
        assert_eq!(ids, vec![10, 11]);
    }
}
