//! End-to-end LSS tests: parse → elaborate → simulate, hierarchy
//! flattening, instance arrays, loops, parameter propagation, and
//! diagnostics.

use liberty_core::prelude::*;
use liberty_lss::{build_simulator, elaborate, parse, ElabReport};

fn registry() -> Registry {
    let mut r = Registry::new();
    liberty_pcl::register_all(&mut r);
    r
}

fn run(src: &str, cycles: u64) -> (Simulator, ElabReport) {
    let (mut sim, rep) = build_simulator(
        src,
        &registry(),
        "main",
        &Params::new(),
        SchedKind::Compiled,
    )
    .unwrap();
    sim.run(cycles).unwrap();
    (sim, rep)
}

#[test]
fn flat_pipeline_runs() {
    let (sim, rep) = run(
        r#"
        module main {
            instance gen : seq_source { count = 7; };
            instance q : queue { depth = 4; };
            instance dst : sink;
            connect gen.out -> q.in;
            connect q.out -> dst.in;
        }
        "#,
        20,
    );
    let dst = sim.instance_by_name("dst").unwrap();
    assert_eq!(sim.stats().counter(dst, "received"), 7);
    assert_eq!(rep.leaf_instances, 3);
    assert_eq!(rep.edges, 2);
}

#[test]
fn hierarchy_flattens_with_dotted_names() {
    let (sim, rep) = run(
        r#"
        module stage {
            param depth = 2;
            port in rx;
            port out tx;
            instance buf : queue { depth = depth; };
            connect self.rx -> buf.in;
            connect buf.out -> self.tx;
        }
        module main {
            instance gen : seq_source { count = 5; };
            instance s : stage { depth = 3; };
            instance dst : sink;
            connect gen.out -> s.rx;
            connect s.tx -> dst.in;
        }
        "#,
        20,
    );
    assert!(sim.instance_by_name("s.buf").is_some());
    let dst = sim.instance_by_name("dst").unwrap();
    assert_eq!(sim.stats().counter(dst, "received"), 5);
    assert_eq!(rep.module_uses["stage"], 1);
    assert_eq!(rep.module_uses["main"], 1);
}

#[test]
fn instance_arrays_and_for_loops() {
    let (sim, rep) = run(
        r#"
        module main {
            param n = 4;
            instance gen : seq_source { count = 6; };
            instance st[n] : register;
            instance dst : sink;
            connect gen.out -> st[0].in;
            for i in 0..n - 1 {
                connect st[i].out -> st[i + 1].in;
            }
            connect st[n - 1].out -> dst.in;
        }
        "#,
        60,
    );
    assert!(sim.instance_by_name("st[0]").is_some());
    assert!(sim.instance_by_name("st[3]").is_some());
    let dst = sim.instance_by_name("dst").unwrap();
    assert_eq!(sim.stats().counter(dst, "received"), 6);
    assert_eq!(rep.template_uses["register"], 4);
    assert_eq!(rep.edges, 5);
}

#[test]
fn nested_hierarchy_two_levels() {
    let (sim, _rep) = run(
        r#"
        module inner {
            port in rx;
            port out tx;
            instance r : register;
            connect self.rx -> r.in;
            connect r.out -> self.tx;
        }
        module outer {
            port in rx;
            port out tx;
            instance a : inner;
            instance b : inner;
            connect self.rx -> a.rx;
            connect a.tx -> b.rx;
            connect b.tx -> self.tx;
        }
        module main {
            instance gen : seq_source { count = 3; };
            instance o : outer;
            instance dst : sink;
            connect gen.out -> o.rx;
            connect o.tx -> dst.in;
        }
        "#,
        40,
    );
    assert!(sim.instance_by_name("o.a.r").is_some());
    assert!(sim.instance_by_name("o.b.r").is_some());
    let dst = sim.instance_by_name("dst").unwrap();
    assert_eq!(sim.stats().counter(dst, "received"), 3);
}

#[test]
fn hierarchical_arrays() {
    let (sim, rep) = run(
        r#"
        module stage {
            port in rx;
            port out tx;
            instance r : register;
            connect self.rx -> r.in;
            connect r.out -> self.tx;
        }
        module main {
            param n = 3;
            instance gen : seq_source { count = 4; };
            instance st[n] : stage;
            instance dst : sink;
            connect gen.out -> st[0].rx;
            for i in 0..n - 1 { connect st[i].tx -> st[i + 1].rx; }
            connect st[n - 1].tx -> dst.in;
        }
        "#,
        40,
    );
    assert!(sim.instance_by_name("st[1].r").is_some());
    let dst = sim.instance_by_name("dst").unwrap();
    assert_eq!(sim.stats().counter(dst, "received"), 4);
    assert_eq!(rep.module_uses["stage"], 3);
}

#[test]
fn root_parameter_overrides() {
    let src = r#"
        module main {
            param count = 2;
            instance gen : seq_source { count = count; };
            instance dst : sink;
            connect gen.out -> dst.in;
        }
    "#;
    let (mut sim, _) = build_simulator(
        src,
        &registry(),
        "main",
        &Params::new().with("count", 9i64),
        SchedKind::Compiled,
    )
    .unwrap();
    sim.run(20).unwrap();
    let dst = sim.instance_by_name("dst").unwrap();
    assert_eq!(sim.stats().counter(dst, "received"), 9);
}

#[test]
fn params_reference_earlier_params() {
    let (sim, _) = run(
        r#"
        module main {
            param base = 3;
            param total = base * 2;
            instance gen : seq_source { count = total; };
            instance dst : sink;
            connect gen.out -> dst.in;
        }
        "#,
        20,
    );
    let dst = sim.instance_by_name("dst").unwrap();
    assert_eq!(sim.stats().counter(dst, "received"), 6);
}

#[test]
fn partial_specification_executes() {
    // A module with an unbound exported port and a dangling queue still
    // builds and runs — the paper's iterative-refinement property.
    let (sim, _) = run(
        r#"
        module main {
            instance gen : seq_source { count = 3; };
            instance q : queue;
            connect gen.out -> q.in;
        }
        "#,
        10,
    );
    let q = sim.instance_by_name("q").unwrap();
    assert_eq!(sim.stats().counter(q, "enq"), 3);
}

// --- diagnostics ---

fn expect_err(src: &str, needle: &str) {
    let err = match build_simulator(
        src,
        &registry(),
        "main",
        &Params::new(),
        SchedKind::Compiled,
    ) {
        Err(e) => e,
        Ok(_) => panic!("expected error containing {needle:?}"),
    };
    let msg = err.to_string();
    assert!(msg.contains(needle), "error {msg:?} missing {needle:?}");
}

#[test]
fn unknown_template_diagnosed() {
    expect_err("module main { instance x : warp_core; }", "warp_core");
}

#[test]
fn unknown_instance_in_connect_diagnosed() {
    expect_err(
        "module main { instance s : sink; connect ghost.out -> s.in; }",
        "ghost",
    );
}

#[test]
fn unknown_root_diagnosed() {
    expect_err("module other { }", "main");
}

#[test]
fn index_out_of_range_diagnosed() {
    expect_err(
        r#"module main {
            instance r[2] : register;
            instance s : sink;
            connect r[5].out -> s.in;
        }"#,
        "out of range",
    );
}

#[test]
fn recursion_diagnosed() {
    expect_err(
        r#"
        module a { instance b1 : b; }
        module b { instance a1 : a; }
        module main { instance x : a; }
        "#,
        "recursive",
    );
}

#[test]
fn duplicate_instance_diagnosed() {
    expect_err(
        "module main { instance x : sink; instance x : sink; }",
        "duplicate",
    );
}

#[test]
fn unknown_override_diagnosed() {
    expect_err(
        r#"
        module stage { port in rx; instance s : sink; connect self.rx -> s.in; }
        module main { instance st : stage { mystery = 1; }; }
        "#,
        "mystery",
    );
}

#[test]
fn double_binding_diagnosed() {
    expect_err(
        r#"
        module stage {
            port in rx;
            instance a : sink;
            instance b : sink;
            connect self.rx -> a.in;
            connect self.rx -> b.in;
        }
        module main { instance st : stage; }
        "#,
        "bound twice",
    );
}

#[test]
fn wrong_direction_self_binding_diagnosed() {
    expect_err(
        r#"
        module stage {
            port out tx;
            instance g : seq_source;
            connect self.tx -> g.out;
        }
        module main { instance st : stage; }
        "#,
        "is an output",
    );
}

#[test]
fn division_by_zero_diagnosed() {
    expect_err("module main { param x = 1 / 0; }", "division by zero");
}

/// Elaborate `param a = <expr>;` and an array of `a + i64::MAX + 3`
/// sinks, returning how many were made: 2 iff `a` is `i64::MIN`.
fn sinks_after_min_offset(expr: &str) -> usize {
    let src = format!(
        "module main {{ param a = {expr}; instance s[a + 9223372036854775807 + 3] : sink; }}"
    );
    let spec = parse(&src).unwrap();
    let (_, rep) = elaborate(&spec, &registry(), "main", &Params::new()).unwrap();
    rep.template_uses["sink"]
}

const I64_MIN: &str = "(0 - 9223372036854775807 - 1)";

#[test]
fn integer_division_overflow_wraps() {
    assert_eq!(sinks_after_min_offset(&format!("{I64_MIN} / (0 - 1)")), 2);
}

#[test]
fn integer_remainder_overflow_wraps() {
    // `i64::MIN % -1` is 0, so size the array from it directly.
    let spec = parse(&format!(
        "module main {{ param a = {I64_MIN} % (0 - 1); instance s[a + 2] : sink; }}"
    ))
    .unwrap();
    let (_, rep) = elaborate(&spec, &registry(), "main", &Params::new()).unwrap();
    assert_eq!(rep.template_uses["sink"], 2);
}

#[test]
fn integer_negation_overflow_wraps() {
    assert_eq!(sinks_after_min_offset(&format!("-{I64_MIN}")), 2);
}

#[test]
fn elaborate_reports_census() {
    let spec = parse(
        r#"
        module pair {
            port in rx;
            instance q1 : queue;
            instance q2 : queue;
            connect self.rx -> q1.in;
            connect q1.out -> q2.in;
        }
        module main {
            instance p[3] : pair;
            instance g : seq_source;
            connect g.out -> p[0].rx;
        }
        "#,
    )
    .unwrap();
    let (_, rep) = elaborate(&spec, &registry(), "main", &Params::new()).unwrap();
    assert_eq!(rep.template_uses["queue"], 6);
    assert_eq!(rep.template_uses["seq_source"], 1);
    assert_eq!(rep.module_uses["pair"], 3);
    assert_eq!(rep.leaf_instances, 7);
}

#[test]
fn conditional_elaboration_selects_structure() {
    // `with_buffer` toggles a queue between source and sink: conditional
    // structure under a parameter, resolved at elaboration time.
    let src = r#"
        module main {
            param with_buffer = 1;
            instance gen : seq_source { count = 5; };
            instance dst : sink;
            if with_buffer {
                instance q : queue { depth = 2; };
                connect gen.out -> q.in;
                connect q.out -> dst.in;
            } else {
                connect gen.out -> dst.in;
            }
        }
    "#;
    // Enabled: the queue exists.
    let (mut sim, rep) = build_simulator(
        src,
        &registry(),
        "main",
        &Params::new(),
        SchedKind::Compiled,
    )
    .unwrap();
    assert_eq!(rep.template_uses.get("queue"), Some(&1));
    sim.run(20).unwrap();
    let dst = sim.instance_by_name("dst").unwrap();
    assert_eq!(sim.stats().counter(dst, "received"), 5);
    // Disabled via root override: direct connection, no queue.
    let (mut sim2, rep2) = build_simulator(
        src,
        &registry(),
        "main",
        &Params::new().with("with_buffer", 0i64),
        SchedKind::Compiled,
    )
    .unwrap();
    assert_eq!(rep2.template_uses.get("queue"), None);
    sim2.run(20).unwrap();
    let dst2 = sim2.instance_by_name("dst").unwrap();
    assert_eq!(sim2.stats().counter(dst2, "received"), 5);
}

#[test]
fn conditional_condition_type_checked() {
    expect_err(
        r#"module main { if "yes" { instance s : sink; } }"#,
        "bool or int",
    );
}

#[test]
fn names_are_scoped_to_their_module_instance() {
    // A loop variable shadows a parameter inside the loop only.
    let (sim, rep) = run(
        r#"
        module main {
            param i = 3;
            instance g[4] : seq_source { count = 2; };
            instance k[4] : sink;
            for i in 0..3 { connect g[i].out -> k[i].in; }
            connect g[i].out -> k[i].in;
        }
        "#,
        10,
    );
    assert_eq!(rep.edges, 4);
    assert_eq!(sim.stats().counter_total("received"), 8);
    // Two instances of one module each bind their own `q`, and the
    // module's names are not the parent's: sibling instances, the parent
    // after them, and each element of an array see only their own.
    let (sim, rep) = run(
        r#"
        module stage {
            param depth = 1;
            port in rx;
            port out tx;
            instance q : queue { depth = depth; };
            connect self.rx -> q.in;
            connect q.out -> self.tx;
        }
        module main {
            instance q : seq_source { count = 3; };
            instance a : stage { depth = 2; };
            instance b[2] : stage;
            instance k : sink;
            connect q.out -> a.rx;
            connect a.tx -> b[0].rx;
            connect b[0].tx -> b[1].rx;
            connect b[1].tx -> k.in;
        }
        "#,
        20,
    );
    assert_eq!(rep.leaf_instances, 5);
    let k = sim.instance_by_name("k").unwrap();
    assert_eq!(sim.stats().counter(k, "received"), 3);
    for name in ["a.q", "b[0].q", "b[1].q"] {
        assert!(sim.instance_by_name(name).is_some(), "{name}");
    }
    // A module sees neither its parent's instances nor its parameters.
    expect_err(
        r#"
        module inner { instance s : sink; connect q.out -> s.in; }
        module main { instance q : seq_source; instance x : inner; }
        "#,
        "unknown instance \"q\"",
    );
    expect_err(
        r#"
        module inner { instance s : queue { depth = n; }; }
        module main { param n = 2; instance x : inner; }
        "#,
        "unknown parameter or variable \"n\"",
    );
}

#[test]
fn a_huge_array_of_modules_is_not_sized_up_front() {
    // 2^62 elements of a four-port module: their export slots would
    // overflow a `usize` if reserved at once. The first element binds a
    // port and then fails, so elaboration must stop there with that
    // element's diagnostic.
    expect_err(
        r#"
        module stage {
            port in a; port in b; port in c; port in d;
            instance s : sink;
            connect self.a -> s.in;
            instance z : no_such_template;
        }
        module main { instance x[4611686018427387904] : stage; }
        "#,
        "no_such_template",
    );
}
