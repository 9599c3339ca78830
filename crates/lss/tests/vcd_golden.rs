//! Golden-file test: the VCD waveform dumped for `specs/pipeline.lss`
//! must be structurally valid — a parseable header, three `$var`
//! declarations per elaborated connection, scopes mirroring the instance
//! hierarchy, and strictly increasing timestamps. This is the executable
//! form of the README's "watch your simulator run" claim.

use liberty_core::prelude::*;
use liberty_lss::build_simulator;
use std::sync::{Arc, Mutex};

#[derive(Clone, Default)]
struct Shared(Arc<Mutex<Vec<u8>>>);
impl std::io::Write for Shared {
    fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(b);
        Ok(b.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn pipeline_lss_vcd_is_structurally_valid() {
    let src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../specs/pipeline.lss"
    ))
    .expect("specs/pipeline.lss readable");
    let mut registry = Registry::new();
    liberty_pcl::register_all(&mut registry);
    let (mut sim, rep) =
        build_simulator(&src, &registry, "main", &Params::new(), SchedKind::Compiled).unwrap();

    let buf = Shared::default();
    sim.set_probe(Box::new(VcdProbe::new(buf.clone())));
    sim.run(30).unwrap();
    drop(sim); // flush

    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();

    // --- Header ---
    assert!(text.starts_with("$version"), "header starts with $version");
    assert!(text.contains("$timescale 1 ns $end"));
    let defs_end = text
        .find("$enddefinitions $end")
        .expect("$enddefinitions present");
    let header = &text[..defs_end];

    // Three $var declarations (data/enable/ack) per elaborated edge.
    let vars = header.matches("$var ").count();
    assert_eq!(vars, 3 * rep.edges, "3 wires per connection");
    assert!(header.contains("$var reg 64 "), "data vectors are 64-bit");
    assert!(header.contains("$var wire 1 "), "enable/ack are scalar");

    // Scopes mirror the elaborated hierarchy: the stage array flattens to
    // dotted names like `st0.buf`, which must appear as nested scopes.
    assert!(header.contains("$scope module st_0 $end"), "{header}");
    assert!(header.contains("$scope module buf $end"), "{header}");
    assert_eq!(
        header.matches("$scope module ").count(),
        header.matches("$upscope $end").count(),
        "balanced scopes"
    );

    // --- Body ---
    // Initial unknowns are dumped before the first timestamp.
    let body = &text[defs_end..];
    assert!(body.contains("$dumpvars"));

    // Timestamps strictly increase.
    let stamps: Vec<u64> = body
        .lines()
        .filter(|l| l.starts_with('#'))
        .map(|l| l[1..].parse().expect("numeric timestamp"))
        .collect();
    assert_eq!(stamps.len(), 30, "one timestamp per step");
    assert!(
        stamps.windows(2).all(|w| w[0] < w[1]),
        "timestamps monotonically increase: {stamps:?}"
    );

    // Every value-change line references a declared identifier code.
    let codes: std::collections::HashSet<&str> = header
        .lines()
        .filter(|l| l.trim_start().starts_with("$var "))
        .map(|l| l.split_whitespace().nth(3).expect("id code field"))
        .collect();
    assert_eq!(codes.len(), vars, "id codes are unique");
    for line in body.lines() {
        if line.starts_with('#') || line.starts_with('$') || line.is_empty() {
            continue;
        }
        let code = if let Some(rest) = line.strip_prefix('b') {
            rest.split_whitespace().nth(1).expect("vector change code")
        } else {
            &line[1..]
        };
        assert!(codes.contains(code), "undeclared id code in {line:?}");
    }

    // The pipeline moves data, so at least one data vector with a real
    // payload and at least one enable assertion must appear.
    assert!(
        body.lines()
            .any(|l| l.starts_with('b') && !l.starts_with("bx") && !l.starts_with("bz")),
        "some data payload dumped"
    );
    assert!(
        body.lines().any(|l| l.starts_with('1')),
        "some wire asserted"
    );
}
