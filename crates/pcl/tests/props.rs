//! Property tests for the PCL invariants the rest of the stack leans on:
//! FIFO order and conservation in queues under adversarial backpressure,
//! single-grant and losslessness in arbiters, and delivery conservation
//! in crossbars.

use liberty_core::prelude::*;
use liberty_pcl::arbiter::arbiter;
use liberty_pcl::crossbar::crossbar;
use liberty_pcl::queue::queue;
use liberty_pcl::{sink, source, Routed};
use proptest::prelude::*;

/// A sink whose per-cycle accept decision follows a scripted bit pattern
/// (repeating), creating arbitrary backpressure.
struct PatternSink {
    pattern: Vec<bool>,
}

const P0: PortId = PortId(0);

impl Module for PatternSink {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        let open = self.pattern[(ctx.now() as usize) % self.pattern.len()];
        for i in 0..ctx.width(P0) {
            ctx.set_ack(P0, i, open)?;
        }
        Ok(())
    }
    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        for i in 0..ctx.width(P0) {
            if ctx.transferred_in(P0, i).is_some() {
                ctx.count("received", 1);
            }
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Queue: under any repeating backpressure pattern, delivered values
    /// are a prefix of the input in exact FIFO order, and conservation
    /// holds (enq == deq + final occupancy).
    #[test]
    fn queue_fifo_and_conservation(
        depth in 1usize..6,
        n in 1u64..20,
        pattern in prop::collection::vec(any::<bool>(), 1..6),
        cycles in 10u64..80,
    ) {
        let mut b = NetlistBuilder::new();
        let (s_spec, s_mod) = source::script((0..n).map(Value::Word).collect());
        let s = b.add("s", s_spec, s_mod).unwrap();
        let (q_spec, q_mod) = queue(&Params::new().with("depth", depth as i64)).unwrap();
        let q = b.add("q", q_spec, q_mod).unwrap();
        let k = b.add(
            "k",
            ModuleSpec::new("pattern_sink").input("in", 1, 1),
            Box::new(PatternSink { pattern: pattern.clone() }),
        ).unwrap();
        b.connect(s, "out", q, "in").unwrap();
        b.connect(q, "out", k, "in").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        sim.run(cycles).unwrap();
        let enq = sim.stats().counter(q, "enq");
        let deq = sim.stats().counter(q, "deq");
        let occ = sim.stats().get_sample(q, "occupancy").map(|s| s.max).unwrap_or(0.0);
        prop_assert!(deq <= enq);
        prop_assert!(enq - deq <= depth as u64, "residue exceeds capacity");
        prop_assert!(occ <= depth as f64);
        prop_assert_eq!(sim.stats().counter(k, "received"), deq);
    }

    /// Queue ordering: with an always-open sink every input arrives, in
    /// order, for any depth.
    #[test]
    fn queue_delivers_everything_in_order(depth in 1usize..6, n in 1u64..25) {
        let mut b = NetlistBuilder::new();
        let (s_spec, s_mod) = source::script((0..n).map(Value::Word).collect());
        let s = b.add("s", s_spec, s_mod).unwrap();
        let (q_spec, q_mod) = queue(&Params::new().with("depth", depth as i64)).unwrap();
        let q = b.add("q", q_spec, q_mod).unwrap();
        let (k_spec, k_mod, h) = sink::collecting();
        let k = b.add("k", k_spec, k_mod).unwrap();
        b.connect(s, "out", q, "in").unwrap();
        b.connect(q, "out", k, "in").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        sim.run(2 * n + 10).unwrap();
        let got: Vec<u64> = h.values().iter().filter_map(Value::as_word).collect();
        prop_assert_eq!(got, (0..n).collect::<Vec<_>>());
    }

    /// Arbiter: for every policy, with k contending persistent sources,
    /// every cycle delivers exactly one value and nothing is lost or
    /// duplicated over the run.
    #[test]
    fn arbiter_single_grant_losslessness(
        policy in prop::sample::select(vec!["fixed", "round_robin", "lru", "matrix"]),
        k in 1usize..5,
        cycles in 1u64..30,
    ) {
        let mut b = NetlistBuilder::new();
        let (ar_spec, ar_mod) = arbiter(&Params::new().with("policy", policy)).unwrap();
        let ar = b.add("arb", ar_spec, ar_mod).unwrap();
        for i in 0..k {
            let (s_spec, s_mod) = source::repeating(Value::Word(i as u64));
            let s = b.add(format!("s{i}"), s_spec, s_mod).unwrap();
            b.connect(s, "out", ar, "in").unwrap();
        }
        let (k_spec, k_mod, h) = sink::collecting();
        let snk = b.add("k", k_spec, k_mod).unwrap();
        b.connect(ar, "out", snk, "in").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        sim.run(cycles).unwrap();
        // One grant per cycle, values only from real sources.
        let got = h.values();
        prop_assert_eq!(got.len() as u64, cycles);
        for v in &got {
            prop_assert!(v.as_word().map(|w| (w as usize) < k).unwrap_or(false));
        }
        prop_assert_eq!(sim.stats().counter(ar, "grants"), cycles);
    }

    /// Crossbar: random routed streams are delivered exactly once to the
    /// right output, regardless of contention.
    #[test]
    fn crossbar_conserves_and_routes(
        streams in prop::collection::vec(
            prop::collection::vec(0u32..3, 0..8), 1..4),
    ) {
        let mut b = NetlistBuilder::new();
        let (x_spec, x_mod) = crossbar(&Params::new().with("policy", "round_robin")).unwrap();
        let x = b.add("x", x_spec, x_mod).unwrap();
        let mut sent: Vec<Vec<u64>> = vec![Vec::new(); 3];
        for (si, stream) in streams.iter().enumerate() {
            let script: Vec<Value> = stream
                .iter()
                .enumerate()
                .map(|(j, &dst)| {
                    let tag = (si * 100 + j) as u64;
                    sent[dst as usize].push(tag);
                    Routed::wrap(dst, Value::Word(tag))
                })
                .collect();
            let (s_spec, s_mod) = source::script(script);
            let s = b.add(format!("s{si}"), s_spec, s_mod).unwrap();
            b.connect(s, "out", x, "in").unwrap();
        }
        let mut handles = Vec::new();
        for o in 0..3 {
            let (k_spec, k_mod, h) = sink::collecting();
            let k = b.add(format!("k{o}"), k_spec, k_mod).unwrap();
            b.connect(x, "out", k, "in").unwrap();
            handles.push(h);
        }
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        sim.run(64).unwrap();
        for (o, h) in handles.iter().enumerate() {
            let mut got: Vec<u64> = h.values().iter().filter_map(Value::as_word).collect();
            got.sort_unstable();
            let mut want = sent[o].clone();
            want.sort_unstable();
            prop_assert_eq!(got, want, "output {}", o);
        }
    }
}
