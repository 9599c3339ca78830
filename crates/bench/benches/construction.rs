//! E1 microbenchmarks: the Fig. 1 pipeline — LSS parse, elaboration, and
//! simulator construction at growing system sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use liberty_bench::chain_spec;
use liberty_core::prelude::*;
use liberty_lss::{elaborate, parse};
use liberty_systems::full_registry;

fn bench_construction(c: &mut Criterion) {
    let reg = full_registry();
    let mut g = c.benchmark_group("e1_construction");
    for n in [16usize, 128, 512] {
        let src = chain_spec(n);
        g.bench_with_input(BenchmarkId::new("parse", n), &src, |b, src| {
            b.iter(|| parse(src).unwrap())
        });
        let spec = parse(&src).unwrap();
        g.bench_with_input(BenchmarkId::new("elaborate", n), &spec, |b, spec| {
            b.iter(|| elaborate(spec, &reg, "main", &Params::new()).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("construct", n), &spec, |b, spec| {
            b.iter_batched(
                || elaborate(spec, &reg, "main", &Params::new()).unwrap().0,
                |net| Simulator::new(net, SchedKind::Compiled),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_construction
}
criterion_main!(benches);
