//! Property tests for the processor stack: on *randomly generated* LIR
//! programs (guaranteed to terminate by construction), the structural
//! core must retire exactly the emulator's architectural state — under
//! both schedulers and across microarchitectural configurations.

use liberty_core::prelude::*;
use liberty_upl::core::{core_simulator, run_to_halt, CoreConfig};
use liberty_upl::emu::Machine;
use liberty_upl::isa::{AluOp, BrCond, Instr, Program};
use proptest::prelude::*;
use std::sync::Arc;

/// One randomly generated instruction slot (branch targets are patched to
/// be strictly forward, so every program terminates).
#[derive(Clone, Debug)]
enum Slot {
    Alu {
        op: u8,
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    AluI {
        op: u8,
        rd: u8,
        rs1: u8,
        imm: i16,
    },
    Li {
        rd: u8,
        imm: i16,
    },
    Ld {
        rd: u8,
        rs1: u8,
        off: u8,
    },
    St {
        rs2: u8,
        rs1: u8,
        off: u8,
    },
    Br {
        cond: u8,
        rs1: u8,
        rs2: u8,
        skip: u8,
    },
    Jal {
        rd: u8,
        skip: u8,
    },
    Nop,
}

fn alu_op(x: u8) -> AluOp {
    match x % 10 {
        0 => AluOp::Add,
        1 => AluOp::Sub,
        2 => AluOp::And,
        3 => AluOp::Or,
        4 => AluOp::Xor,
        5 => AluOp::Shl,
        6 => AluOp::Shr,
        7 => AluOp::Mul,
        8 => AluOp::Slt,
        _ => AluOp::Sltu,
    }
}

fn br_cond(x: u8) -> BrCond {
    match x % 4 {
        0 => BrCond::Eq,
        1 => BrCond::Ne,
        2 => BrCond::Lt,
        _ => BrCond::Ge,
    }
}

fn materialize(slots: &[Slot]) -> Program {
    let n = slots.len() as u64;
    let instrs: Vec<Instr> = slots
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let i = i as u64;
            match *s {
                Slot::Alu { op, rd, rs1, rs2 } => Instr::Alu {
                    op: alu_op(op),
                    rd: rd % 8,
                    rs1: rs1 % 8,
                    rs2: rs2 % 8,
                },
                Slot::AluI { op, rd, rs1, imm } => Instr::AluI {
                    op: alu_op(op),
                    rd: rd % 8,
                    rs1: rs1 % 8,
                    imm: i64::from(imm),
                },
                Slot::Li { rd, imm } => Instr::Li {
                    rd: rd % 8,
                    imm: i64::from(imm),
                },
                Slot::Ld { rd, rs1, off } => Instr::Ld {
                    rd: rd % 8,
                    rs1: rs1 % 8,
                    off: i64::from(off % 32),
                },
                Slot::St { rs2, rs1, off } => Instr::St {
                    rs2: rs2 % 8,
                    rs1: rs1 % 8,
                    off: i64::from(off % 32),
                },
                Slot::Br {
                    cond,
                    rs1,
                    rs2,
                    skip,
                } => Instr::Br {
                    cond: br_cond(cond),
                    rs1: rs1 % 8,
                    rs2: rs2 % 8,
                    // Strictly forward: termination by construction.
                    target: (i + 1 + u64::from(skip % 4)).min(n),
                },
                Slot::Jal { rd, skip } => Instr::Jal {
                    rd: rd % 8,
                    target: (i + 1 + u64::from(skip % 3)).min(n),
                },
                Slot::Nop => Instr::Nop,
            }
        })
        .chain(std::iter::once(Instr::Halt))
        .collect();
    Program {
        name: "random".to_owned(),
        instrs,
        mem_words: 256,
        init_mem: (0..16).map(|i| (i, i * 7 + 3)).collect(),
    }
}

fn slot_strategy() -> impl Strategy<Value = Slot> {
    prop_oneof![
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(op, rd, rs1, rs2)| Slot::Alu { op, rd, rs1, rs2 }),
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<i16>())
            .prop_map(|(op, rd, rs1, imm)| Slot::AluI { op, rd, rs1, imm }),
        (any::<u8>(), any::<i16>()).prop_map(|(rd, imm)| Slot::Li { rd, imm }),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(rd, rs1, off)| Slot::Ld {
            rd,
            rs1,
            off
        }),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(rs2, rs1, off)| Slot::St {
            rs2,
            rs1,
            off
        }),
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(cond, rs1, rs2, skip)| {
            Slot::Br {
                cond,
                rs1,
                rs2,
                skip,
            }
        }),
        (any::<u8>(), any::<u8>()).prop_map(|(rd, skip)| Slot::Jal { rd, skip }),
        Just(Slot::Nop),
    ]
}

fn check(prog: &Program, cfg: &CoreConfig, sched: SchedKind) {
    let mut emu = Machine::new(prog);
    emu.run(prog, 1_000_000).unwrap();
    assert!(emu.halted);
    let (mut sim, handles) = core_simulator(Arc::new(prog.clone()), cfg, sched).unwrap();
    run_to_halt(&mut sim, &handles, 500_000).unwrap();
    assert!(handles.arch.is_halted(), "structural core did not halt");
    assert_eq!(&*handles.arch.regs.lock(), &emu.regs, "registers");
    assert_eq!(&*handles.mem.as_ref().unwrap().lock(), &emu.mem, "memory");
    assert_eq!(
        sim.stats().counter(handles.ids.decode, "retired"),
        emu.retired,
        "retired count"
    );
}

/// The speculating + cached core (the config with the most machinery
/// that could corrupt architectural state).
fn full_config() -> CoreConfig {
    CoreConfig {
        fetch_q: 4,
        iw: 4,
        rob: 8,
        predictor: Some(Params::new().with("kind", "gshare")),
        cache: Some(Params::new().with("sets", 4i64).with("ways", 2i64)),
        mem_latency: 6,
        external_mem: false,
    }
}

/// The two programs recorded in `props.proptest-regressions` (the
/// vendored `proptest` does not replay that file), on both cores.
#[test]
fn recorded_slot_programs_match_emulator() {
    let recorded = [
        vec![
            Slot::Ld {
                rd: 222,
                rs1: 0,
                off: 0,
            },
            Slot::Br {
                cond: 3,
                rs1: 7,
                rs2: 0,
                skip: 153,
            },
            Slot::Br {
                cond: 1,
                rs1: 88,
                rs2: 243,
                skip: 178,
            },
            Slot::Li {
                rd: 118,
                imm: 31045,
            },
        ],
        vec![
            Slot::Li { rd: 51, imm: 5364 },
            Slot::Ld {
                rd: 131,
                rs1: 0,
                off: 16,
            },
            Slot::Br {
                cond: 83,
                rs1: 4,
                rs2: 46,
                skip: 151,
            },
            Slot::Nop,
            Slot::St {
                rs2: 145,
                rs1: 81,
                off: 141,
            },
            Slot::Br {
                cond: 191,
                rs1: 218,
                rs2: 132,
                skip: 122,
            },
            Slot::Ld {
                rd: 38,
                rs1: 107,
                off: 39,
            },
            Slot::St {
                rs2: 54,
                rs1: 122,
                off: 228,
            },
        ],
    ];
    for slots in &recorded {
        let prog = materialize(slots);
        check(&prog, &CoreConfig::default(), SchedKind::Compiled);
        check(&prog, &full_config(), SchedKind::Compiled);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random programs, default core, under the Sweep oracle.
    #[test]
    fn random_programs_match_emulator(slots in prop::collection::vec(slot_strategy(), 1..40)) {
        let prog = materialize(&slots);
        check(&prog, &CoreConfig::default(), SchedKind::Sweep);
    }

    /// Random programs, full core, under the compiled engine.
    #[test]
    fn random_programs_match_emulator_full_config(
        slots in prop::collection::vec(slot_strategy(), 1..30)
    ) {
        let prog = materialize(&slots);
        check(&prog, &full_config(), SchedKind::Compiled);
    }
}
