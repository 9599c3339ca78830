//! The FIFO queue template — the paper's flagship reusable component.
//!
//! "A single module template can be instantiated to model a processor's
//! instruction window, its reorder buffer, and the I/O buffers in a packet
//! router" (§2.1). This template is exactly that component: UPL's
//! instruction window and ROB and CCL's router buffers are all instances
//! of it with different algorithmic parameters.
//!
//! ## Ports
//! * `in` (input, any width): offers to enqueue; connection index is
//!   acceptance priority.
//! * `out` (output, any width): connection *j* offers the *j*-th oldest
//!   entry; consumers pop by accepting.
//!
//! ## Parameters
//! * `depth` (int, default 8) — capacity.
//! * `bypass` (bool, default false) — combinational fall-through: when the
//!   queue is empty an arriving value is offered downstream in the same
//!   cycle (requires `in` and `out` of width 1; declares
//!   `reads_ack_in_react`).

use liberty_core::prelude::*;
use std::collections::VecDeque;

const P_IN: PortId = PortId(0);
const P_OUT: PortId = PortId(1);

struct Queue {
    depth: usize,
    bypass: bool,
    items: VecDeque<Value>,
}

impl Queue {
    fn free(&self) -> usize {
        self.depth - self.items.len()
    }
}

impl Module for Queue {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        let in_w = ctx.width(P_IN);
        let out_w = ctx.width(P_OUT);

        // Offer the oldest entries, one per output connection.
        for j in 0..out_w {
            match self.items.get(j) {
                Some(v) => ctx.send(P_OUT, j, v.clone())?,
                None if self.bypass && self.items.is_empty() => {
                    // Bypass: fall through an arriving value combinationally.
                    match ctx.data(P_IN, 0) {
                        Res::Yes(v) => ctx.send(P_OUT, j, v)?,
                        Res::No => ctx.send_nothing(P_OUT, j)?,
                        Res::Unknown => {} // wait for the input to resolve
                    }
                }
                None => ctx.send_nothing(P_OUT, j)?,
            }
        }

        // Flow control on the input side.
        if self.bypass && self.items.is_empty() {
            // Accept iff the fall-through wins downstream acceptance, or we
            // have room to latch it; with depth >= 1 and empty, room is
            // guaranteed, so accept unconditionally.
            ctx.set_ack(P_IN, 0, true)?;
            return Ok(());
        }
        let free = self.free();
        if free >= in_w {
            // Room for every possible offer: accept unconditionally, no
            // need to wait for the offers to resolve.
            for i in 0..in_w {
                ctx.set_ack(P_IN, i, true)?;
            }
        } else {
            // Contended: must see all offers to allocate space by priority
            // (connection index order).
            for i in 0..in_w {
                if matches!(ctx.data(P_IN, i), Res::Unknown) {
                    return Ok(()); // resolve later
                }
            }
            let mut budget = free;
            for i in 0..in_w {
                let present = ctx.data(P_IN, i).is_yes();
                if present && budget > 0 {
                    ctx.set_ack(P_IN, i, true)?;
                    budget -= 1;
                } else if present {
                    ctx.set_ack(P_IN, i, false)?;
                } else {
                    // No offer: ack value is irrelevant; accept.
                    ctx.set_ack(P_IN, i, true)?;
                }
            }
        }
        Ok(())
    }

    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        let out_w = ctx.width(P_OUT);
        let in_w = ctx.width(P_IN);

        let bypassing = self.bypass && self.items.is_empty();

        // Pop accepted offers (indices are positions from the front, so
        // back to front keeps the remaining ones valid).
        let mut popped: u64 = 0;
        for j in (0..out_w.min(self.items.len())).rev() {
            if ctx.transferred_out(P_OUT, j) {
                self.items.remove(j);
                popped += 1;
            }
        }
        ctx.count("deq", popped);

        // A bypass transfer moves the input straight through: it was
        // offered from the input wire, not from `items`.
        let bypassed = bypassing && ctx.transferred_out(P_OUT, 0);
        if bypassed {
            ctx.count("deq", 1);
            ctx.count("bypassed", 1);
        }

        // Push accepted inputs in priority order.
        for i in 0..in_w {
            if let Some(v) = ctx.transferred_in(P_IN, i) {
                if bypassed && i == 0 {
                    continue; // went straight through
                }
                debug_assert!(self.items.len() < self.depth);
                self.items.push_back(v);
                ctx.count("enq", 1);
            }
        }
        if self.items.len() == self.depth {
            ctx.count("full_cycles", 1);
        }
        ctx.sample("occupancy", self.items.len() as f64);
        ctx.histo("occupancy_dist", self.items.len() as u64);
        Ok(())
    }

    fn pending(&self) -> bool {
        // Occupancy/full_cycles bookkeeping must run while anything is
        // buffered, even on steps without a transfer.
        !self.items.is_empty()
    }

    fn state_save(&self) -> Result<Vec<u8>, SimError> {
        let mut w = StateWriter::new();
        w.put_len(self.items.len());
        for v in &self.items {
            w.put_value(v)?;
        }
        Ok(w.into_bytes())
    }

    fn state_restore(&mut self, state: &[u8]) -> Result<(), SimError> {
        if state.is_empty() {
            self.items.clear();
            return Ok(());
        }
        let mut r = StateReader::new(state);
        let n = r.get_len()?;
        if n > self.depth {
            return Err(SimError::model(format!(
                "queue: restored occupancy {n} exceeds depth {}",
                self.depth
            )));
        }
        let mut items = VecDeque::with_capacity(self.depth);
        for _ in 0..n {
            items.push_back(r.get_value()?);
        }
        r.expect_end()?;
        self.items = items;
        Ok(())
    }

    fn specialize(&self) -> Option<KernelHint> {
        // Bypass queues are combinational fall-throughs; the classifier
        // keeps them dynamic (and explains why in the plan summary).
        Some(KernelHint::Queue {
            depth: self.depth,
            bypass: self.bypass,
        })
    }
}

// Commit is a no-op when no transfer touched the queue and it holds
// nothing (occupancy/full_cycles stats only matter while occupied), so
// the kernel may skip it on idle-and-empty steps.
const QUEUE_SPEC: ModuleSpec = ModuleSpec::fixed(
    "queue",
    &[
        PortSpec::input("in", 0, u32::MAX),
        PortSpec::output("out", 0, u32::MAX),
    ],
)
.commit_only_when_active();

/// A bypass queue: one connection a side.
const BYPASS_QUEUE_SPEC: ModuleSpec = ModuleSpec::fixed(
    "queue",
    &[PortSpec::input("in", 0, 1), PortSpec::output("out", 0, 1)],
)
.commit_only_when_active();

/// Construct a queue instance from parameters (see module docs).
pub fn queue(params: &Params) -> Result<Instantiated, SimError> {
    let depth = params.usize_or("depth", 8)?;
    if depth == 0 {
        return Err(SimError::param("queue: depth must be >= 1"));
    }
    let bypass = params.bool_or("bypass", false)?;
    let spec = if bypass {
        BYPASS_QUEUE_SPEC
    } else {
        QUEUE_SPEC
    };
    Ok((
        spec,
        Box::new(Queue {
            depth,
            bypass,
            items: VecDeque::with_capacity(depth),
        }),
    ))
}

/// Register the `queue` template.
pub fn register(reg: &mut Registry) {
    reg.register(
        "pcl",
        "queue",
        "FIFO buffer; params: depth, bypass. Reused as instruction window, ROB, router buffer.",
        queue,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink;
    use crate::source;

    fn pipeline(
        depth: usize,
        bypass: bool,
        feed: Vec<Value>,
    ) -> (Simulator, InstanceId, sink::Collected) {
        let mut b = NetlistBuilder::new();
        let (s_spec, s_mod) = source::script(feed);
        let src = b.add("src", s_spec, s_mod).unwrap();
        let (q_spec, q_mod) = queue(
            &Params::new()
                .with("depth", depth as i64)
                .with("bypass", bypass),
        )
        .unwrap();
        let q = b.add("q", q_spec, q_mod).unwrap();
        let (k_spec, k_mod, handle) = sink::collecting();
        let k = b.add("k", k_spec, k_mod).unwrap();
        b.connect(src, "out", q, "in").unwrap();
        b.connect(q, "out", k, "in").unwrap();
        let sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        (sim, q, handle)
    }

    fn words(n: u64) -> Vec<Value> {
        (0..n).map(Value::Word).collect()
    }

    #[test]
    fn fifo_order_preserved() {
        let (mut sim, _q, handle) = pipeline(4, false, words(6));
        sim.run(20).unwrap();
        let got: Vec<u64> = handle.values().iter().filter_map(Value::as_word).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn non_bypass_adds_a_cycle() {
        // Without bypass the first word arrives at the sink one cycle after
        // it enters the queue.
        let (mut sim, _q, handle) = pipeline(4, false, words(1));
        sim.run(1).unwrap();
        assert_eq!(handle.values().len(), 0);
        sim.run(1).unwrap();
        assert_eq!(handle.values().len(), 1);
    }

    #[test]
    fn bypass_is_same_cycle() {
        let (mut sim, _q, handle) = pipeline(4, true, words(1));
        sim.run(1).unwrap();
        assert_eq!(handle.values().len(), 1);
    }

    #[test]
    fn bypass_preserves_order_under_load() {
        let (mut sim, q, handle) = pipeline(2, true, words(8));
        sim.run(30).unwrap();
        let got: Vec<u64> = handle.values().iter().filter_map(Value::as_word).collect();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
        // Every word flowed through a sink that always accepts, so the
        // queue never filled and everything bypassed.
        assert_eq!(sim.stats().counter(q, "bypassed"), 8);
    }

    /// A sink that accepts only every `period`-th cycle.
    struct SlowSink {
        period: u64,
    }
    impl Module for SlowSink {
        fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
            let open = ctx.now() % self.period == 0;
            for i in 0..ctx.width(PortId(0)) {
                ctx.set_ack(PortId(0), i, open)?;
            }
            Ok(())
        }
        fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
            for i in 0..ctx.width(PortId(0)) {
                if ctx.transferred_in(PortId(0), i).is_some() {
                    ctx.count("received", 1);
                }
            }
            Ok(())
        }
    }

    #[test]
    fn backpressure_fills_queue_and_stalls_source() {
        let mut b = NetlistBuilder::new();
        let (s_spec, s_mod) = source::script(words(20));
        let src = b.add("src", s_spec, s_mod).unwrap();
        let (q_spec, q_mod) = queue(&Params::new().with("depth", 3i64)).unwrap();
        let q = b.add("q", q_spec, q_mod).unwrap();
        let k = b
            .add(
                "k",
                ModuleSpec::new("slow_sink").input("in", 1, 1),
                Box::new(SlowSink { period: 4 }),
            )
            .unwrap();
        b.connect(src, "out", q, "in").unwrap();
        b.connect(q, "out", k, "in").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        sim.run(16).unwrap();
        // Sink opens on cycles 0,4,8,12 but the queue is empty on cycle 0:
        // 3 deliveries in 16 cycles.
        assert_eq!(sim.stats().counter(k, "received"), 3);
        // Queue must have hit its capacity.
        let occ = sim.stats().get_sample(q, "occupancy").unwrap();
        assert_eq!(occ.max, 3.0);
        assert!(sim.stats().counter(q, "full_cycles") > 0);
        // Conservation: enq == deq + still-queued.
        let enq = sim.stats().counter(q, "enq");
        let deq = sim.stats().counter(q, "deq");
        assert_eq!(deq, 3);
        assert!(enq >= deq && enq <= deq + 3);
    }

    #[test]
    fn multi_input_priority_by_connection_index() {
        // Two sources contend for one free slot per cycle; connection 0
        // (added first) wins.
        let mut b = NetlistBuilder::new();
        let (a_spec, a_mod) = source::repeating(Value::Word(111));
        let a = b.add("a", a_spec, a_mod).unwrap();
        let (c_spec, c_mod) = source::repeating(Value::Word(222));
        let c = b.add("c", c_spec, c_mod).unwrap();
        let (q_spec, q_mod) = queue(&Params::new().with("depth", 1i64)).unwrap();
        let q = b.add("q", q_spec, q_mod).unwrap();
        let (k_spec, k_mod, handle) = sink::collecting();
        let k = b.add("k", k_spec, k_mod).unwrap();
        b.connect(a, "out", q, "in").unwrap();
        b.connect(c, "out", q, "in").unwrap();
        b.connect(q, "out", k, "in").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        sim.run(8).unwrap();
        let got = handle.values();
        assert!(!got.is_empty());
        assert!(got.iter().all(|v| v.as_word() == Some(111)));
    }

    #[test]
    fn multi_output_pops_in_order() {
        // One source, queue with two output connections into a 2-wide sink.
        let mut b = NetlistBuilder::new();
        let (s_spec, s_mod) = source::script(words(6));
        let src = b.add("src", s_spec, s_mod).unwrap();
        let (q_spec, q_mod) = queue(&Params::new().with("depth", 8i64)).unwrap();
        let q = b.add("q", q_spec, q_mod).unwrap();
        let (k_spec, k_mod, handle) = sink::collecting();
        let k = b.add("k", k_spec, k_mod).unwrap();
        b.connect(src, "out", q, "in").unwrap();
        b.connect(q, "out", k, "in").unwrap();
        b.connect(q, "out", k, "in").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        sim.run(20).unwrap();
        let got: Vec<u64> = handle.values().iter().filter_map(Value::as_word).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn zero_depth_rejected() {
        assert!(queue(&Params::new().with("depth", 0i64)).is_err());
    }

    #[test]
    fn schedulers_agree_on_queue_pipeline() {
        for sched in [SchedKind::Sweep, SchedKind::Compiled] {
            let mut b = NetlistBuilder::new();
            let (s_spec, s_mod) = source::script(words(10));
            let src = b.add("src", s_spec, s_mod).unwrap();
            let (q_spec, q_mod) = queue(&Params::new().with("depth", 2i64)).unwrap();
            let q = b.add("q", q_spec, q_mod).unwrap();
            let (k_spec, k_mod, handle) = sink::collecting();
            let k = b.add("k", k_spec, k_mod).unwrap();
            b.connect(src, "out", q, "in").unwrap();
            b.connect(q, "out", k, "in").unwrap();
            let mut sim = Simulator::new(b.build().unwrap(), sched);
            sim.run(30).unwrap();
            let got: Vec<u64> = handle.values().iter().filter_map(Value::as_word).collect();
            assert_eq!(got, (0..10).collect::<Vec<_>>(), "{sched:?}");
        }
    }
}
