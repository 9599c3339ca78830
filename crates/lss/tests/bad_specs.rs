//! Every file under `specs/bad/` must fail to build — with a structured
//! diagnostic, never a panic or a hang. Files whose defect is lexical or
//! syntactic must carry a `line:col` position in the message.

use liberty_core::prelude::*;
use liberty_lss::build_simulator;

fn bad_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs/bad")
}

/// Registry with just enough templates that elaboration-stage corpus
/// files fail for the *intended* reason, not "unknown template: queue".
fn registry() -> Registry {
    let mut r = Registry::new();
    liberty_pcl::register_all(&mut r);
    r
}

#[test]
fn every_bad_spec_fails_with_a_diagnostic() {
    let reg = registry();
    let mut seen = 0;
    let mut entries: Vec<_> = std::fs::read_dir(bad_dir())
        .expect("specs/bad exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "lss"))
        .collect();
    entries.sort();
    for path in entries {
        seen += 1;
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(&path).expect("readable spec");
        let err = build_simulator(&src, &reg, "main", &Params::new(), SchedKind::Compiled)
            .map(|_| ())
            .expect_err(&format!("{name}: must not build"));
        let msg = err.to_string();
        assert!(!msg.is_empty(), "{name}: empty diagnostic");
        // Parse/lex failures must point at the offending source position.
        let parse_err = liberty_lss::parse(&src).is_err();
        if parse_err {
            let has_pos = msg
                .split(|c: char| !(c.is_ascii_digit() || c == ':'))
                .any(|tok| {
                    let mut it = tok.split(':');
                    matches!(
                        (it.next(), it.next()),
                        (Some(l), Some(c))
                            if !l.is_empty() && !c.is_empty()
                                && l.chars().all(|ch| ch.is_ascii_digit())
                                && c.chars().all(|ch| ch.is_ascii_digit())
                    )
                })
                || msg.contains("end of input");
            assert!(has_pos, "{name}: no line:col in {msg:?}");
        }
    }
    assert!(seen >= 10, "corpus shrank: only {seen} bad specs");
}

/// The exact diagnostic of every corpus file: positions count characters,
/// and each message names the token the front end stopped at.
#[test]
fn bad_spec_diagnostics_are_pinned() {
    let pinned = [
        ("bad_port_dir.lss", "elaboration error: 3:10: expected `in` or `out` after `port`, found `sideways`"),
        ("bad_token.lss", "elaboration error: 3:16: unexpected character '@'"),
        ("dangling_connect.lss", "elaboration error: module main: unknown instance \"ghost\" in connect"),
        ("deep_nesting.lss", "elaboration error: 2:153: nesting deeper than 128 levels (unbalanced brackets?), found `(`"),
        ("duplicate_module_override.lss", "elaboration error: module main: instance \"s\": duplicate parameter override \"n\""),
        ("duplicate_override.lss", "elaboration error: module main: instance \"q\": duplicate parameter override \"depth\""),
        ("duplicate_param.lss", "elaboration error: module stage: duplicate parameter \"n\""),
        ("misspelt_override.lss", "elaboration error: module main: instance \"q\": unknown parameter override \"dpeth\" (template \"queue\" never reads it)"),
        ("missing_semi.lss", "elaboration error: 4:5: expected `;`, found `instance`"),
        ("toplevel_statement.lss", "elaboration error: 2:1: expected `module`, found `instance`"),
        ("unclosed_module.lss", "elaboration error: end of input: expected `}` to close module"),
        ("unknown_template.lss", "elaboration error: unknown module template \"no_such_template_exists\"; known: alu, arbiter, crossbar, delay, inverter, mem_array, queue, register, seq_source, sink, tee"),
        ("unterminated_comment.lss", "elaboration error: 1:1: unterminated block comment"),
        ("unterminated_string.lss", "elaboration error: 3:39: unterminated string"),
    ];
    let reg = registry();
    for (name, want) in pinned {
        let src = std::fs::read_to_string(bad_dir().join(name)).expect("readable spec");
        let err = build_simulator(&src, &reg, "main", &Params::new(), SchedKind::Compiled)
            .map(|_| ())
            .expect_err(name);
        assert_eq!(err.to_string(), want, "{name}");
    }
}

#[test]
fn good_specs_still_build() {
    // Guard against the robustness work rejecting valid input: every
    // shipped specification must elaborate and build against the full
    // template library.
    let reg = liberty_systems::full_registry();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let mut built = 0;
    for entry in std::fs::read_dir(&dir).expect("specs directory") {
        let path = entry.expect("readable entry").path();
        if path.extension().is_none_or(|x| x != "lss") {
            continue;
        }
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(&path).expect("readable");
        let (_, report) = build_simulator(&src, &reg, "main", &Params::new(), SchedKind::Compiled)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(report.leaf_instances > 0, "{name}");
        built += 1;
    }
    assert!(built >= 4, "only {built} shipped specs");
}
