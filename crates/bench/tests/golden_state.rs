//! Golden-state regression corpus: checked-in checkpoints for three
//! example systems at a fixed step, plus a corpus of deliberately broken
//! checkpoint files (mirroring `specs/bad/` for the specification
//! parser).
//!
//! The golden files pin the *entire durable state* of each system —
//! module state blobs, per-edge transfer counts, engine metrics, and the
//! statistics store — under one fixed scheduler. Any change that shifts
//! simulation semantics, statistics accounting, or the checkpoint
//! encoding itself shows up as a byte diff here before it ships.
//!
//! Golden hashes are only stable per scheduler (engine counters such as
//! `reacts` legitimately differ between schedulers), so the corpus is
//! generated under [`GOLDEN_SCHED`] exclusively.
//!
//! Regenerate after an *intentional* semantics or format change with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p liberty-bench --test golden_state
//! ```

use liberty_bench::kernel::{build, WORKLOADS};
use liberty_core::prelude::*;
use liberty_lss::build_simulator;
use liberty_systems::full_registry;
use std::path::PathBuf;

/// Step at which every golden checkpoint is taken.
const GOLDEN_STEP: u64 = 40;
/// The fixed scheduler golden state is defined under.
const GOLDEN_SCHED: SchedKind = SchedKind::Compiled;
/// The three example systems in the corpus: (golden file stem, system
/// name). Systems whose queues carry opaque payloads (UPL uops, CCL
/// packets) refuse to snapshot by design and cannot be pinned here —
/// see docs/ROBUSTNESS.md.
const GOLDEN_SPECS: [(&str, &str); 3] = [
    ("pipeline", "specs/pipeline.lss"),
    ("refinement", "specs/refinement.lss"),
    ("scatter", "scatter 256 (acyclic)"),
];

fn repo_root() -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn golden_dir() -> PathBuf {
    repo_root().join("ci/golden")
}

/// `pipeline` -> `ci/golden/pipeline.compiled.ckpt`.
fn golden_path(stem: &str) -> PathBuf {
    golden_dir().join(format!("{stem}.compiled.ckpt"))
}

fn regen() -> bool {
    std::env::var_os("GOLDEN_REGEN").is_some_and(|v| v == "1")
}

fn build_spec(name: &str, sched: SchedKind) -> Simulator {
    if WORKLOADS.contains(&name) {
        return build(name, sched);
    }
    let src = std::fs::read_to_string(repo_root().join(name)).expect("spec readable");
    let registry = full_registry();
    build_simulator(&src, &registry, "main", &Params::new(), sched)
        .expect("spec elaborates")
        .0
}

/// Build a spec's system, run it to the golden step, and snapshot.
fn golden_snapshot(spec: &str) -> Snapshot {
    let mut sim = build_spec(spec, GOLDEN_SCHED);
    sim.run(GOLDEN_STEP)
        .unwrap_or_else(|e| panic!("{spec}: {e}"));
    sim.snapshot().expect("snapshot")
}

#[test]
fn golden_checkpoints_match_a_fresh_build() {
    for (stem, spec) in GOLDEN_SPECS {
        let snap = golden_snapshot(spec);
        let path = golden_path(stem);
        if regen() {
            std::fs::create_dir_all(golden_dir()).expect("mkdir ci/golden");
            snap.write_file(&path).expect("write golden");
            eprintln!("regenerated {}", path.display());
            continue;
        }
        let golden = Snapshot::read_file(path.as_path()).unwrap_or_else(|e| {
            panic!(
                "{}: unreadable golden checkpoint ({e}); run with GOLDEN_REGEN=1 \
                 to (re)generate the corpus",
                path.display()
            )
        });
        assert_eq!(
            snap.to_bytes(),
            golden.to_bytes(),
            "{spec}: rebuilt state diverges from the golden checkpoint \
             (state hash {:#010x} vs golden {:#010x}); if the semantics \
             change is intentional, regenerate with GOLDEN_REGEN=1",
            snap.state_hash(),
            golden.state_hash(),
        );
    }
}

#[test]
fn golden_checkpoints_restore_and_resnapshot_identically() {
    // Restoring a golden file into a fresh build and snapshotting again
    // must reproduce the file byte for byte: restore loses nothing that
    // snapshot records, for every system in the corpus.
    for (stem, spec) in GOLDEN_SPECS {
        let path = golden_path(stem);
        if regen() {
            continue; // corpus being rewritten by the test above
        }
        let golden = Snapshot::read_file(path.as_path()).expect("golden readable");
        let mut sim = build_spec(spec, GOLDEN_SCHED);
        sim.restore(&golden)
            .unwrap_or_else(|e| panic!("{spec}: {e}"));
        assert_eq!(sim.now(), GOLDEN_STEP, "{spec}: restored step");
        let again = sim.snapshot().expect("snapshot");
        assert_eq!(again.to_bytes(), golden.to_bytes(), "{spec}");
    }
}

// ---------------------------------------------------------------------
// Broken-checkpoint corpus: ci/golden/bad/*.ckpt
// ---------------------------------------------------------------------

/// A corruption applied to a valid checkpoint's bytes.
type Corruption = fn(Vec<u8>) -> Vec<u8>;

/// (file name, corruption applied to a valid checkpoint's bytes).
fn corruptions() -> Vec<(&'static str, Corruption)> {
    vec![
        ("bad_magic.ckpt", |mut b| {
            b[..4].copy_from_slice(b"NOPE");
            b
        }),
        ("bad_version.ckpt", |mut b| {
            b[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
            b
        }),
        ("bad_crc.ckpt", |mut b| {
            let last = b.len() - 1;
            b[last] ^= 0xFF;
            b
        }),
        ("truncated.ckpt", |mut b| {
            b.truncate(b.len() - 7);
            b
        }),
        ("short_header.ckpt", |mut b| {
            b.truncate(9);
            b
        }),
    ]
}

fn expect_diag(name: &str, err: &SimError) {
    let c = err
        .as_checkpoint()
        .unwrap_or_else(|| panic!("{name}: non-checkpoint error {err}"));
    let ok = match name {
        "bad_magic.ckpt" => matches!(c, CheckpointError::BadMagic { .. }),
        "bad_version.ckpt" => matches!(c, CheckpointError::VersionMismatch { .. }),
        "bad_crc.ckpt" => matches!(c, CheckpointError::ChecksumMismatch { .. }),
        "truncated.ckpt" | "short_header.ckpt" => {
            matches!(c, CheckpointError::Truncated { .. })
        }
        other => panic!("unknown corpus file {other}"),
    };
    assert!(ok, "{name}: wrong diagnostic {c:?}");
}

#[test]
fn broken_checkpoint_corpus_yields_structured_diagnostics() {
    let bad_dir = golden_dir().join("bad");
    if regen() {
        // Derive the corpus deterministically from the pipeline golden
        // state so regeneration is reproducible.
        std::fs::create_dir_all(&bad_dir).expect("mkdir ci/golden/bad");
        let good = golden_snapshot(GOLDEN_SPECS[0].1).to_bytes();
        for (name, corrupt) in corruptions() {
            std::fs::write(bad_dir.join(name), corrupt(good.clone())).expect("write corpus");
            eprintln!("regenerated {}", bad_dir.join(name).display());
        }
    }
    for (name, _) in corruptions() {
        let err = match Snapshot::read_file(&bad_dir.join(name)) {
            Ok(_) => panic!("{name}: corrupted checkpoint was accepted"),
            Err(e) => e,
        };
        expect_diag(name, &err);
    }
}

/// Offset of the payload in a checkpoint envelope (magic, version,
/// payload length).
const PAYLOAD_AT: usize = 16;

#[test]
fn corrupted_payloads_with_a_valid_checksum_fail_cleanly() {
    // Past the checksum, the payload decoder and `restore` are all that
    // stand between a corrupted file and the engine: every byte of every
    // golden payload, set to each of a few extreme values under a
    // recomputed CRC, must decode, restore into a fresh build and run
    // three steps — or stop at a structured `SimError`. Never a panic.
    if regen() {
        return; // corpus being rewritten
    }
    let (mut decoded, mut refused, mut panics) = (0u64, 0u64, Vec::new());
    for (stem, spec) in GOLDEN_SPECS {
        let good = std::fs::read(golden_path(stem)).expect("golden readable");
        let end = good.len() - 4;
        for at in PAYLOAD_AT..end {
            for v in [0x00u8, 0xff, 0x01, 0x80, 0x7f] {
                if good[at] == v {
                    continue;
                }
                let mut bytes = good.clone();
                bytes[at] = v;
                let crc = liberty_core::snapshot::crc32(&bytes[PAYLOAD_AT..end]);
                bytes[end..].copy_from_slice(&crc.to_le_bytes());
                let outcome = std::panic::catch_unwind(|| {
                    let Ok(snap) = Snapshot::from_bytes(&bytes) else {
                        return (false, false);
                    };
                    let mut sim = build_spec(spec, GOLDEN_SCHED);
                    if sim.restore(&snap).is_err() {
                        return (true, true);
                    }
                    let _ = sim.run(3);
                    (true, false)
                });
                match outcome {
                    Ok((d, r)) => {
                        decoded += d as u64;
                        refused += r as u64;
                    }
                    Err(_) => panics.push(format!("{stem}: byte {at} = {v:#04x}")),
                }
            }
        }
    }
    assert!(panics.is_empty(), "{} panics: {panics:?}", panics.len());
    // Both later gates were reached: some mutants decode, and `restore`
    // refuses some of those.
    assert!(
        decoded > 0 && refused > 0,
        "{decoded} decoded, {refused} refused"
    );
}

#[test]
fn truncated_and_spliced_payloads_in_a_valid_envelope_fail_cleanly() {
    // The envelope is rebuilt around each damaged payload — length field
    // and CRC recomputed — so the damage gets past the envelope checks
    // to the payload decoder and `restore`: every golden payload cut at
    // each byte, with a stretch cut out of its middle, and spliced onto
    // the tail of another golden payload, at strides. Each must decode,
    // restore and run three steps, or stop at a structured `SimError`.
    if regen() {
        return; // corpus being rewritten
    }
    let goldens: Vec<(&str, Vec<u8>)> = GOLDEN_SPECS
        .iter()
        .map(|&(stem, spec)| {
            let good = std::fs::read(golden_path(stem)).expect("golden readable");
            (spec, good[PAYLOAD_AT..good.len() - 4].to_vec())
        })
        .collect();
    let envelope = |payload: &[u8]| {
        let mut bytes = good_header(payload.len());
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&liberty_core::snapshot::crc32(payload).to_le_bytes());
        bytes
    };
    let (mut cases, mut decoded, mut panics) = (0u64, 0u64, Vec::new());
    for (g, (spec, p)) in goldens.iter().enumerate() {
        let stride = (p.len() / 48).max(1);
        let mut mutants: Vec<(String, Vec<u8>)> = (0..p.len())
            .map(|k| (format!("cut at {k}"), p[..k].to_vec()))
            .collect();
        for a in (0..p.len()).step_by(stride) {
            for b in (a + 1..=p.len()).step_by(stride) {
                let mut m = p[..a].to_vec();
                m.extend_from_slice(&p[b..]);
                mutants.push((format!("{a}..{b} cut out"), m));
            }
            for (h, (_, q)) in goldens.iter().enumerate().filter(|&(h, _)| h != g) {
                for b in (0..q.len()).step_by(stride) {
                    let mut m = p[..a].to_vec();
                    m.extend_from_slice(&q[b..]);
                    mutants.push((format!("..{a} + golden {h} {b}.."), m));
                }
            }
        }
        for (what, m) in mutants {
            cases += 1;
            let bytes = envelope(&m);
            let outcome = std::panic::catch_unwind(|| {
                let Ok(snap) = Snapshot::from_bytes(&bytes) else {
                    return false;
                };
                let mut sim = build_spec(spec, GOLDEN_SCHED);
                if sim.restore(&snap).is_ok() {
                    let _ = sim.run(3);
                }
                true
            });
            match outcome {
                Ok(d) => decoded += u64::from(d),
                Err(_) => panics.push(format!("{spec}: {what}")),
            }
        }
    }
    assert!(panics.is_empty(), "{} panics: {panics:?}", panics.len());
    assert!(cases > 10_000, "{cases} cases");
    // A splice at offset 0 hands over another golden whole, so the
    // decoder is reached with payloads it accepts too.
    assert!(decoded > 0, "{decoded} of {cases} decoded");
}

/// Magic, version and payload length: a valid envelope header.
fn good_header(payload_len: usize) -> Vec<u8> {
    let mut h = liberty_core::snapshot::MAGIC.to_vec();
    h.extend_from_slice(&liberty_core::snapshot::FORMAT_VERSION.to_le_bytes());
    h.extend_from_slice(&(payload_len as u64).to_le_bytes());
    assert_eq!(h.len(), PAYLOAD_AT);
    h
}

#[test]
fn missing_checkpoint_reports_the_offending_path() {
    // The Io diagnostic names the file it failed on — both structurally
    // and in the rendered message, so an operator can tell *which* of a
    // run's checkpoints was unreadable.
    let absent = golden_dir().join("bad").join("no_such.ckpt");
    let err = Snapshot::read_file(&absent).expect_err("missing file must not read");
    match err.as_checkpoint() {
        Some(CheckpointError::Io { path, .. }) => {
            assert!(path.ends_with("no_such.ckpt"), "{}", path.display());
        }
        other => panic!("wrong diagnostic {other:?}"),
    }
    assert!(err.to_string().contains("no_such.ckpt"), "{err}");
}
