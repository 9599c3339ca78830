//! E11 microbenchmarks: the structural simulator's host-speed cost versus
//! the monolithic baseline and the functional emulator.

use criterion::{criterion_group, criterion_main, Criterion};
use liberty_baseline::mono_core::{MonoConfig, MonoCore};
use liberty_baseline::mono_net::MonoMesh;
use liberty_ccl::topology::build_grid;
use liberty_ccl::traffic::{traffic_gen, traffic_sink, Pattern, TrafficCfg};
use liberty_core::prelude::*;
use liberty_upl::core::{core_simulator, run_to_halt, CoreConfig};
use liberty_upl::emu::Machine;
use liberty_upl::program;
use std::sync::Arc;

fn bench_core(c: &mut Criterion) {
    let prog = program::fib(24);
    let mut g = c.benchmark_group("e11_core");
    g.bench_function("emulator", |b| {
        b.iter(|| {
            let mut m = Machine::new(&prog);
            m.run(&prog, 10_000_000).unwrap()
        })
    });
    g.bench_function("monolithic", |b| {
        b.iter(|| {
            let mut m = MonoCore::new(&prog, MonoConfig::default());
            m.run(10_000_000).unwrap().retired
        })
    });
    let arc = Arc::new(prog.clone());
    g.bench_function("structural", |b| {
        b.iter_batched(
            || core_simulator(arc.clone(), &CoreConfig::default(), SchedKind::Compiled).unwrap(),
            |(mut sim, handles)| run_to_halt(&mut sim, &handles, 1_000_000).unwrap(),
            criterion::BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_net(c: &mut Criterion) {
    let mut g = c.benchmark_group("e11_net");
    g.bench_function("monolithic_mesh", |b| {
        b.iter(|| {
            let mut net = MonoMesh::new(4, 4, 0.1, 4, 7);
            net.run(1000).delivered
        })
    });
    g.bench_function("structural_mesh", |b| {
        b.iter_batched(
            || {
                let mut nb = NetlistBuilder::new();
                let fabric = build_grid(&mut nb, "n.", 4, 4, 4, 1, false).unwrap();
                for id in 0..fabric.nodes {
                    let (g_spec, g_mod) = traffic_gen(TrafficCfg {
                        nodes: fabric.nodes,
                        width: 4,
                        my: id,
                        rate: 0.1,
                        pattern: Pattern::Uniform,
                        flits: 4,
                        seed: 7,
                        ..TrafficCfg::default()
                    });
                    let gi = nb.add(format!("g{id}"), g_spec, g_mod).unwrap();
                    let (ti, tp) = fabric.local_in[id as usize];
                    nb.connect(gi, "out", ti, tp).unwrap();
                    let (k_spec, k_mod) = traffic_sink(Some(id));
                    let k = nb.add(format!("s{id}"), k_spec, k_mod).unwrap();
                    let (fo, fp) = fabric.local_out[id as usize];
                    nb.connect(fo, fp, k, "in").unwrap();
                }
                Simulator::new(nb.build().unwrap(), SchedKind::Compiled)
            },
            |mut sim| sim.run(1000).unwrap(),
            criterion::BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_core, bench_net
}
criterion_main!(benches);
