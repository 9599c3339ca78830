//! The LSS front end builds exactly the netlist it always built: for
//! every shipped specification and for the `lss_front` benchmark's smoke
//! text, a CRC over the elaborated netlist (instance names in id order,
//! their templates, every edge's two endpoints as `(instance, port,
//! slot)`, and the `ElabReport`) and a CRC over the statistics after 50
//! steps are pinned. The benchmark's digests depend on both, and no
//! other test covers exact netlist identity.

use liberty_core::prelude::*;
use liberty_core::snapshot::crc32;
use std::fmt::Write;

#[path = "../src/bin/benchmark/lssgen.rs"]
#[allow(dead_code)]
mod lssgen;

/// Steps run before the statistics are fingerprinted.
const STEPS: u64 = 50;

/// CRC32 of the elaborated netlist and its report.
fn netlist_crc(net: &Netlist, report: &liberty_lss::ElabReport) -> u32 {
    let mut text = String::new();
    for (i, m) in net.instances.iter().enumerate() {
        writeln!(text, "i {i} {} {}", m.name, m.spec.template).unwrap();
    }
    for e in &net.edges {
        let (s, d) = (e.src, e.dst);
        writeln!(
            text,
            "e {} {} {} -> {} {} {}",
            s.inst.0, s.port.0, s.index, d.inst.0, d.port.0, d.index
        )
        .unwrap();
    }
    writeln!(
        text,
        "r {} {} {:?} {:?}",
        report.leaf_instances, report.edges, report.template_uses, report.module_uses
    )
    .unwrap();
    crc32(text.as_bytes())
}

/// CRC32 of the statistics after [`STEPS`] steps, or of the step error.
fn stats_crc(net: Netlist) -> u32 {
    let mut sim = Simulator::new(net, SchedKind::Compiled);
    let mut text = match sim.run(STEPS) {
        Ok(()) => format!("now={}\n", sim.now()),
        Err(e) => format!("error at {}: {e}\n", sim.now()),
    };
    let r = sim.report();
    for (k, v) in &r.counters {
        writeln!(text, "c {k} {v}").unwrap();
    }
    for (k, s) in &r.samples {
        writeln!(
            text,
            "s {k} {} {:016x} {:016x} {:016x}",
            s.n,
            s.sum.to_bits(),
            s.min.to_bits(),
            s.max.to_bits()
        )
        .unwrap();
    }
    for (k, h) in &r.histograms {
        write!(text, "h {k} {} {}", h.count(), h.sum()).unwrap();
        for (lo, hi, n) in h.buckets() {
            write!(text, " {lo}-{hi}:{n}").unwrap();
        }
        text.push('\n');
    }
    crc32(text.as_bytes())
}

fn fingerprint(src: &str) -> (u32, u32) {
    let reg = liberty_systems::full_registry();
    let spec = liberty_lss::parse(src).expect("parses");
    let (net, report) =
        liberty_lss::elaborate(&spec, &reg, "main", &Params::new()).expect("elaborates");
    (netlist_crc(&net, &report), stats_crc(net))
}

fn shipped(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../specs")
        .join(name);
    std::fs::read_to_string(path).expect("readable spec")
}

#[test]
fn shipped_specs_elaborate_to_the_pinned_netlists() {
    let pinned = [
        ("dual_core_noc.lss", (0x80f5_b171, 0x93df_7811)),
        ("pipeline.lss", (0x5d74_4ab1, 0xea05_7723)),
        ("refinement.lss", (0x9b3f_776e, 0x0c32_948b)),
        ("ring_osc.lss", (0xdc5f_dff1, 0x7bb9_a609)),
    ];
    for (name, want) in pinned {
        let got = fingerprint(&shipped(name));
        assert_eq!(got, want, "{name}: (netlist, stats) CRCs {got:08x?}");
    }
}

#[test]
fn lss_front_smoke_text_elaborates_to_the_pinned_netlist() {
    let got = fingerprint(&lssgen::generate(1, lssgen::SMOKE));
    assert_eq!(
        got,
        (0x0c8b_aec4, 0x4061_c463),
        "(netlist, stats) CRCs {got:08x?}"
    );
}
