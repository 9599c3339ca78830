//! The plan's island wake table, checked from outside the engine.
//!
//! 1. **The table is the filtered reader table.** Over random cyclic
//!    `pcl` netlists, every (edge, wire) entry of
//!    [`CompiledPlan::wake_target`] equals the topology's reader of that
//!    wire iff reader and writer share an island, and nothing otherwise.
//! 2. **Pushing at the write changes no run.** On the same netlists the
//!    compiled scheduler — specialized and not — reaches the final state
//!    and the canonical stream of the Sweep oracle, which has no wake
//!    table at all.
//! 3. **The resolve log keeps react order.** The *full* JSONL stream
//!    (resolve events and handler brackets: scheduler-dependent by
//!    design, so it pins invocation and resolution order) of the 4-core
//!    CMP and `specs/pipeline.lss` under `Compiled` is the one the engine
//!    wrote before wakes moved into the write path — pinned by length and
//!    CRC, recorded at the parent commit of that change.

use liberty_bench::SharedBuf;
use liberty_core::compile::NO_ISLAND;
use liberty_core::prelude::*;
use liberty_core::snapshot::crc32;
use liberty_lss::build_simulator;
use liberty_pcl::{arbiter, delay, queue, register, sink, source, tee};
use liberty_systems::cmp::{build_cmp, CmpConfig};
use liberty_systems::full_registry;
use proptest::prelude::*;

/// A random `pcl` netlist with feedback: `kinds[i]` picks node `i`'s
/// template, `links` are candidate connections (reduced modulo the node
/// count). Every cycle is closed through a state element — a feedback
/// connection may only leave a queue, register or delay — so the step's
/// fixed point exists whatever the draw.
#[derive(Clone, Debug)]
struct NetDesc {
    kinds: Vec<u8>,
    links: Vec<(usize, usize)>,
}

const QUEUE: u8 = 0;
const REGISTER: u8 = 1;
const DELAY: u8 = 2;
const TEE: u8 = 3;
const ARBITER: u8 = 4;

fn build(desc: &NetDesc, sched: SchedKind) -> Simulator {
    let p = Params::new;
    let n = desc.kinds.len();
    let mut b = NetlistBuilder::new();
    let nodes: Vec<InstanceId> = desc
        .kinds
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            let (spec, module) = match kind {
                QUEUE => queue::queue(&p().with("depth", 2i64)),
                REGISTER => register::reg(&p()),
                DELAY => delay::delay(&p().with("latency", 2i64)),
                TEE => tee::tee(&p()),
                _ => arbiter::arbiter(&p().with("policy", "round_robin")),
            }
            .unwrap();
            b.add(format!("n{i}"), spec, module).unwrap()
        })
        .collect();
    // Port capacities of the stock templates: one-in/one-out except where
    // the template is a fan-out or fan-in point.
    let mut ins = vec![0u32; n];
    let mut outs = vec![0u32; n];
    let in_cap = |k: u8| {
        if matches!(k, QUEUE | ARBITER) {
            u32::MAX
        } else {
            1
        }
    };
    let out_cap = |k: u8| {
        if matches!(k, QUEUE | TEE) {
            u32::MAX
        } else {
            1
        }
    };
    let (s_spec, s_mod) = source::seq(&p().with("start", 1i64)).unwrap();
    let src = b.add("src", s_spec, s_mod).unwrap();
    b.connect(src, "out", nodes[0], "in").unwrap();
    ins[0] = 1;
    // A spine so every node is reachable, then the random links.
    let spine = (1..n).map(|i| (i - 1, i));
    for (a, z) in spine.chain(desc.links.iter().map(|&(a, z)| (a % n, z % n))) {
        let feedback = a >= z;
        if feedback && !matches!(desc.kinds[a], QUEUE | REGISTER | DELAY) {
            continue;
        }
        if outs[a] >= out_cap(desc.kinds[a]) || ins[z] >= in_cap(desc.kinds[z]) {
            continue;
        }
        b.connect(nodes[a], "out", nodes[z], "in").unwrap();
        outs[a] += 1;
        ins[z] += 1;
    }
    let (k_spec, k_mod) = sink::counting(&p()).unwrap();
    let k = b.add("k", k_spec, k_mod).unwrap();
    for (i, &node) in nodes.iter().enumerate() {
        if outs[i] == 0 {
            b.connect(node, "out", k, "in").unwrap();
        }
    }
    Simulator::new(b.build().unwrap(), sched)
}

fn desc_strategy() -> impl Strategy<Value = NetDesc> {
    (
        prop::collection::vec(0u8..5, 2..10),
        prop::collection::vec((0usize..64, 0usize..64), 0..14),
    )
        .prop_map(|(kinds, links)| NetDesc { kinds, links })
}

/// Final state and canonical stream of a 40-step run.
fn observed(mut sim: Simulator) -> (String, StatsReport, Vec<u64>) {
    let buf = SharedBuf::default();
    sim.set_probe(Box::new(JsonlProbe::new(buf.clone()).canonical()));
    sim.run(40).unwrap();
    drop(sim.take_probe()); // flush
    let stream = buf.text();
    (stream, sim.report(), sim.transfer_counts().to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn wake_table_is_the_reader_table_filtered_to_the_writers_island(desc in desc_strategy()) {
        let sim = build(&desc, SchedKind::Compiled);
        let topo = sim.topology();
        let plan = topo.plan();
        for (e, em) in topo.edge_metas().iter().enumerate() {
            let e = EdgeId(e as u32);
            for wire in [Wire::Data, Wire::Enable, Wire::Ack] {
                // The sender drives data and enable, the receiver ack.
                let writer = if wire == Wire::Ack { em.dst.inst } else { em.src.inst };
                let island = plan.island_of(writer.0);
                let want = topo
                    .reader(wire, e)
                    .filter(|&r| island != NO_ISLAND && plan.island_of(r) == island);
                prop_assert_eq!(plan.wake_target(wire, e), want, "{:?} of edge {}", wire, e.0);
            }
        }
    }

    #[test]
    fn pushing_wakes_at_the_write_reaches_the_worklist_fixed_point(desc in desc_strategy()) {
        let reference = observed(build(&desc, SchedKind::Sweep));
        for specialize in [true, false] {
            let mut sim = build(&desc, SchedKind::Compiled);
            sim.set_specialization(specialize);
            // Unobserved first, so the specialized path (kernel lanes
            // reporting to the wake sink) runs too.
            let mut bare = build(&desc, SchedKind::Compiled);
            bare.set_specialization(specialize);
            bare.run(40).unwrap();
            let got = observed(sim);
            prop_assert_eq!(&got, &reference, "specialize={}", specialize);
            prop_assert_eq!(bare.report(), reference.1.clone());
            prop_assert_eq!(bare.transfer_counts(), reference.2.as_slice());
        }
    }
}

#[test]
fn the_generator_draws_islands() {
    // A guard on the property tests above: a queue feeding back into an
    // arbiter is an island, and its wake table is not empty.
    let desc = NetDesc {
        kinds: vec![ARBITER, QUEUE, TEE],
        links: vec![(1, 0)],
    };
    let sim = build(&desc, SchedKind::Compiled);
    let plan = sim.topology().plan();
    assert!(plan.island_count() > 0);
    let edges = sim.topology().edge_count() as u32;
    let targets = (0..edges)
        .filter(|&e| plan.wake_target(Wire::Data, EdgeId(e)).is_some())
        .count();
    assert!(targets > 0, "an island without a wake target");
}

/// Length and CRC of the full (resolve events, handler brackets) JSONL
/// stream of a `Compiled` run.
fn full_stream(mut sim: Simulator, steps: u64) -> (usize, u32) {
    let buf = SharedBuf::default();
    sim.set_probe(Box::new(JsonlProbe::new(buf.clone()).with_handlers()));
    sim.run(steps).unwrap();
    drop(sim.take_probe());
    let bytes = buf.0.lock().unwrap();
    assert!(
        bytes.windows(9).any(|w| w == b"\"resolve\""),
        "the stream carries resolve events"
    );
    (bytes.len(), crc32(&bytes))
}

#[test]
fn full_streams_keep_react_and_resolve_order() {
    let cfg = CmpConfig {
        cores: 4,
        items: 64,
        ordering: None,
        with_noc: true,
        noc_rate: 0.05,
    };
    let mut b = NetlistBuilder::new();
    build_cmp(&mut b, "", &cfg).unwrap();
    let cmp = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
    assert_eq!(full_stream(cmp, 300), CMP4_STREAM, "4-core CMP");

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs/pipeline.lss");
    let src = std::fs::read_to_string(path).expect("spec readable");
    let (pipeline, _) = build_simulator(
        &src,
        &full_registry(),
        "main",
        &Params::new(),
        SchedKind::Compiled,
    )
    .expect("spec elaborates");
    assert_eq!(full_stream(pipeline, 300), PIPELINE_STREAM, "pipeline.lss");
}

/// (bytes, CRC32) of the streams above. The CMP's was re-pinned when
/// payloads began to render as `KIND[words]` instead of `Debug` text:
/// outside the `value` fields the stream is byte-identical to the one it
/// replaces (12 519 701 bytes, CRC 925 403 420), and its 1 415 distinct
/// values map one-to-one onto the old renderings.
const CMP4_STREAM: (usize, u32) = (12_023_656, 3_000_864_054);
const PIPELINE_STREAM: (usize, u32) = (400_581, 1_139_174_709);
