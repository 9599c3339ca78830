//! Network property tests: delivery conservation and routing correctness
//! on randomly sized meshes under random traffic parameters, and routing-
//! function invariants (progress: every hop strictly reduces distance).

use liberty_ccl::route::RouteKind;
use liberty_ccl::topology::build_grid;
use liberty_ccl::traffic::{traffic_gen, traffic_sink, Pattern, TrafficCfg};
use liberty_core::prelude::*;
use proptest::prelude::*;

fn mesh_sim(
    w: u32,
    h: u32,
    rate: f64,
    seed: u64,
    pattern: Pattern,
) -> (Simulator, Vec<InstanceId>, Vec<InstanceId>) {
    let mut b = NetlistBuilder::new();
    let fabric = build_grid(&mut b, "n.", w, h, 4, 1, false).unwrap();
    let mut gens = Vec::new();
    let mut sinks = Vec::new();
    for id in 0..fabric.nodes {
        let (g_spec, g_mod) = traffic_gen(TrafficCfg {
            nodes: fabric.nodes,
            width: w,
            my: id,
            rate,
            pattern,
            flits: 4,
            seed,
            ..TrafficCfg::default()
        });
        let g = b.add(format!("g{id}"), g_spec, g_mod).unwrap();
        let (ti, tp) = fabric.local_in[id as usize];
        b.connect(g, "out", ti, tp).unwrap();
        // expect_dst(Some(id)) turns any misroute into a hard error.
        let (k_spec, k_mod) = traffic_sink(Some(id));
        let k = b.add(format!("s{id}"), k_spec, k_mod).unwrap();
        let (fo, fp) = fabric.local_out[id as usize];
        b.connect(fo, fp, k, "in").unwrap();
        gens.push(g);
        sinks.push(k);
    }
    (
        Simulator::new(b.build().unwrap(), SchedKind::Compiled),
        gens,
        sinks,
    )
}

/// On any mesh, for any moderate load, pattern and seed: nothing is
/// misrouted (checked inside the sinks), nothing is duplicated or
/// conjured (received <= injected), and after a drain window the
/// network delivers the bulk of the offered load.
fn assert_mesh_conserves_packets(w: u32, h: u32, rate: f64, seed: u64, pat: Pattern) {
    let (mut sim, gens, sinks) = mesh_sim(w, h, rate, seed, pat);
    sim.run(400).unwrap();
    let injected: u64 = gens
        .iter()
        .map(|&g| sim.stats().counter(g, "injected"))
        .sum();
    let received: u64 = sinks
        .iter()
        .map(|&k| sim.stats().counter(k, "received"))
        .sum();
    prop_assert!(received <= injected, "conjured packets");
    prop_assert!(
        received as f64 >= injected as f64 * 0.7,
        "lost too much: {received}/{injected}"
    );
    // Latency is at least the minimum path cost when anything moved.
    if let Some(lat) = sim.stats().sample_total("latency") {
        prop_assert!(lat.min >= 2.0, "impossible latency {}", lat.min);
    }
}

/// The case recorded in `props.proptest-regressions` (the vendored
/// `proptest` does not replay that file).
#[test]
fn recorded_small_bit_complement_mesh_conserves_packets() {
    assert_mesh_conserves_packets(2, 3, 0.01, 2, Pattern::BitComplement);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn mesh_conserves_packets(
        w in 2u32..5,
        h in 2u32..4,
        rate in 0.01f64..0.15,
        seed in any::<u64>(),
        pat in prop::sample::select(vec![Pattern::Uniform, Pattern::Transpose, Pattern::BitComplement]),
    ) {
        assert_mesh_conserves_packets(w, h, rate, seed, pat);
    }

    /// Mesh XY routing progress: from any router toward any destination,
    /// following the routing function strictly reduces remaining hops —
    /// so every packet terminates and no routing cycle exists.
    #[test]
    fn mesh_xy_routing_makes_progress(w in 1u32..7, h in 1u32..7, src in 0u32..49, dst in 0u32..49) {
        let n = w * h;
        let (src, dst) = (src % n, dst % n);
        let mut at = src;
        let dist = |a: u32, b: u32| {
            let (ax, ay) = (a % w, a / w);
            let (bx, by) = (b % w, b / w);
            (ax.abs_diff(bx) + ay.abs_diff(by)) as i64
        };
        let mut steps = 0;
        loop {
            let k = RouteKind::MeshXy { w, h, my: at };
            let port = k.route(dst).unwrap();
            if port == 4 {
                prop_assert_eq!(at, dst);
                break;
            }
            let (x, y) = (at % w, at / w);
            let next = match port {
                0 => (y - 1) * w + x,
                1 => y * w + x + 1,
                2 => (y + 1) * w + x,
                3 => y * w + x - 1,
                _ => unreachable!(),
            };
            prop_assert!(dist(next, dst) < dist(at, dst), "no progress at {at}");
            at = next;
            steps += 1;
            prop_assert!(steps <= (w + h) as i64, "path too long");
        }
    }

    /// Ring routing progress (both directions, with wrap).
    #[test]
    fn ring_routing_makes_progress(n in 2u32..12, src in 0u32..12, dst in 0u32..12) {
        let (src, dst) = (src % n, dst % n);
        let mut at = src;
        let dist = |a: u32, b: u32| {
            let cw = (b + n - a) % n;
            cw.min(n - cw) as i64
        };
        let mut steps = 0;
        loop {
            let k = RouteKind::Ring { n, my: at };
            let port = k.route(dst).unwrap();
            if port == 2 {
                prop_assert_eq!(at, dst);
                break;
            }
            let next = match port {
                0 => (at + 1) % n,
                1 => (at + n - 1) % n,
                _ => unreachable!(),
            };
            prop_assert!(dist(next, dst) < dist(at, dst), "no progress at {at}");
            at = next;
            steps += 1;
            prop_assert!(steps <= n as i64, "path too long");
        }
    }

    /// Torus routing progress with wraparound distance.
    #[test]
    fn torus_routing_makes_progress(w in 2u32..6, h in 2u32..6, src in 0u32..36, dst in 0u32..36) {
        let n = w * h;
        let (src, dst) = (src % n, dst % n);
        let mut at = src;
        let dist = |a: u32, b: u32| {
            let (ax, ay) = (a % w, a / w);
            let (bx, by) = (b % w, b / w);
            let dx = (bx + w - ax) % w;
            let dy = (by + h - ay) % h;
            (dx.min(w - dx) + dy.min(h - dy)) as i64
        };
        let mut steps = 0;
        loop {
            let k = RouteKind::TorusXy { w, h, my: at };
            let port = k.route(dst).unwrap();
            if port == 4 {
                prop_assert_eq!(at, dst);
                break;
            }
            let (x, y) = (at % w, at / w);
            let next = match port {
                0 => ((y + h - 1) % h) * w + x,
                1 => y * w + (x + 1) % w,
                2 => ((y + 1) % h) * w + x,
                3 => y * w + (x + w - 1) % w,
                _ => unreachable!(),
            };
            prop_assert!(dist(next, dst) < dist(at, dst), "no progress at {at}");
            at = next;
            steps += 1;
            prop_assert!(steps <= (w + h) as i64, "path too long");
        }
    }
}
