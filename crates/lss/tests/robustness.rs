//! The LSS front end never panics on malformed text (ROADMAP 6(c) for
//! specifications): every truncation and every one-character substitution
//! of the shipped specs and of the `specs/bad/` corpus goes through
//! `parse` and, when that succeeds, `elaborate`, and must come back `Ok`
//! or a `SimError`. Cuts and substitutions land on char boundaries of
//! the text, so the multi-byte `é` in the alphabet also puts non-ASCII
//! bytes where the lexer slices identifiers, numbers and strings.

use liberty_core::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// Replacement characters: string, escape, comment and range delimiters,
/// the arrow's halves, brackets, a digit, a two-byte character, newline.
const ALPHABET: [char; 13] = [
    '"', '\\', '/', '*', '.', '-', '>', '[', '{', ';', '9', 'é', '\n',
];

fn corpus() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let mut files = Vec::new();
    for dir in [root.clone(), root.join("bad")] {
        for entry in std::fs::read_dir(&dir).expect("specs directory") {
            let path = entry.expect("readable entry").path();
            if path.extension().is_some_and(|x| x == "lss") {
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                files.push((name, std::fs::read_to_string(&path).expect("readable spec")));
            }
        }
    }
    files.sort();
    files
}

/// Parse, then elaborate what parsed; any panic is reported with the text.
fn front_end(reg: &Registry, text: &str) {
    let run = || {
        if let Ok(spec) = liberty_lss::parse(text) {
            let _ = liberty_lss::elaborate(&spec, reg, "main", &Params::new());
        }
    };
    if catch_unwind(AssertUnwindSafe(run)).is_err() {
        panic!("the front end panicked on {text:?}");
    }
}

#[test]
fn truncations_and_substitutions_never_panic() {
    let mut reg = Registry::new();
    liberty_pcl::register_all(&mut reg);
    let mut cases = 0usize;
    let mut mutated = String::new();
    for (name, src) in corpus() {
        let bounds: Vec<usize> = src.char_indices().map(|(i, _)| i).collect();
        for &at in &bounds {
            front_end(&reg, &src[..at]);
            let next = at + src[at..].chars().next().map_or(0, char::len_utf8);
            for c in ALPHABET {
                mutated.clear();
                mutated.push_str(&src[..at]);
                mutated.push(c);
                mutated.push_str(&src[next..]);
                front_end(&reg, &mutated);
            }
            cases += 1 + ALPHABET.len();
        }
        assert!(!bounds.is_empty(), "{name} is empty");
    }
    assert!(cases > 50_000, "corpus shrank: {cases} cases");
}
