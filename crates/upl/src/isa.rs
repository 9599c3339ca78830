//! The LIR instruction set — the synthetic RISC ISA standing in for the
//! paper's IA-64/Alpha models (see DESIGN.md §5: the paper's claims are
//! about model composition, not ISA fidelity).
//!
//! LIR is a 64-bit, 32-register, word-addressed load/store architecture.
//! Register `r0` reads as zero and ignores writes.

use liberty_core::prelude::SimError;
use std::fmt;

/// ALU operations. Codes match [`liberty_pcl::alu::compute`] so the
//  structural execute stage and the functional emulator share semantics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (mod 64).
    Shl,
    /// Logical shift right (mod 64).
    Shr,
    /// Wrapping multiplication.
    Mul,
    /// Set if less-than, signed.
    Slt,
    /// Set if less-than, unsigned.
    Sltu,
}

impl AluOp {
    /// The PCL ALU opcode for this operation.
    pub fn code(self) -> u64 {
        match self {
            AluOp::Add => 0,
            AluOp::Sub => 1,
            AluOp::And => 2,
            AluOp::Or => 3,
            AluOp::Xor => 4,
            AluOp::Shl => 5,
            AluOp::Shr => 6,
            AluOp::Mul => 7,
            AluOp::Slt => 8,
            AluOp::Sltu => 9,
        }
    }

    /// Evaluate the operation (delegates to the PCL ALU for shared
    /// semantics).
    pub fn eval(self, a: u64, b: u64) -> u64 {
        liberty_pcl::alu::compute(self.code(), a, b).expect("valid op code")
    }

    /// Parse a mnemonic stem ("add", "slt", ...).
    pub fn parse(s: &str) -> Option<AluOp> {
        Some(match s {
            "add" => AluOp::Add,
            "sub" => AluOp::Sub,
            "and" => AluOp::And,
            "or" => AluOp::Or,
            "xor" => AluOp::Xor,
            "shl" => AluOp::Shl,
            "shr" => AluOp::Shr,
            "mul" => AluOp::Mul,
            "slt" => AluOp::Slt,
            "sltu" => AluOp::Sltu,
            _ => return None,
        })
    }
}

impl fmt::Display for AluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
            AluOp::Mul => "mul",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
        };
        write!(f, "{s}")
    }
}

/// Branch conditions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BrCond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than, signed.
    Lt,
    /// Greater or equal, signed.
    Ge,
}

impl BrCond {
    /// Evaluate the condition.
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            BrCond::Eq => a == b,
            BrCond::Ne => a != b,
            BrCond::Lt => (a as i64) < (b as i64),
            BrCond::Ge => (a as i64) >= (b as i64),
        }
    }
}

impl fmt::Display for BrCond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BrCond::Eq => "beq",
            BrCond::Ne => "bne",
            BrCond::Lt => "blt",
            BrCond::Ge => "bge",
        };
        write!(f, "{s}")
    }
}

/// One LIR instruction. `target`s are absolute instruction indices
/// (resolved from labels by the assembler).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Instr {
    /// `op rd, rs1, rs2`
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: u8,
        /// First source.
        rs1: u8,
        /// Second source.
        rs2: u8,
    },
    /// `opi rd, rs1, imm`
    AluI {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: u8,
        /// Source register.
        rs1: u8,
        /// Immediate operand.
        imm: i64,
    },
    /// `li rd, imm` — load a full 64-bit immediate.
    Li {
        /// Destination register.
        rd: u8,
        /// Immediate value.
        imm: i64,
    },
    /// `ld rd, off(rs1)` — load the word at `rs1 + off`.
    Ld {
        /// Destination register.
        rd: u8,
        /// Base register.
        rs1: u8,
        /// Word offset.
        off: i64,
    },
    /// `st rs2, off(rs1)` — store `rs2` to `rs1 + off`.
    St {
        /// Value register.
        rs2: u8,
        /// Base register.
        rs1: u8,
        /// Word offset.
        off: i64,
    },
    /// `beq/bne/blt/bge rs1, rs2, target`
    Br {
        /// Condition.
        cond: BrCond,
        /// First compare register.
        rs1: u8,
        /// Second compare register.
        rs2: u8,
        /// Branch target (instruction index).
        target: u64,
    },
    /// `jal rd, target` — link `pc + 1` into `rd`, jump to `target`.
    Jal {
        /// Link register.
        rd: u8,
        /// Jump target (instruction index).
        target: u64,
    },
    /// `jalr rd, rs1, off` — link `pc + 1`, jump to `rs1 + off`.
    Jalr {
        /// Link register.
        rd: u8,
        /// Base register.
        rs1: u8,
        /// Offset.
        off: i64,
    },
    /// Stop the machine.
    Halt,
    /// Do nothing.
    Nop,
}

impl Instr {
    /// The destination register this instruction writes, if any (`r0`
    /// writes are discarded and report no destination).
    pub fn dest(&self) -> Option<u8> {
        let d = match self {
            Instr::Alu { rd, .. }
            | Instr::AluI { rd, .. }
            | Instr::Li { rd, .. }
            | Instr::Ld { rd, .. }
            | Instr::Jal { rd, .. }
            | Instr::Jalr { rd, .. } => *rd,
            _ => return None,
        };
        (d != 0).then_some(d)
    }

    /// Source registers read by this instruction (`r0` reads are
    /// constants and report no source).
    pub fn sources(&self) -> impl Iterator<Item = u8> {
        let (a, b) = match *self {
            Instr::Alu { rs1, rs2, .. }
            | Instr::Br { rs1, rs2, .. }
            | Instr::St { rs1, rs2, .. } => (rs1, rs2),
            Instr::AluI { rs1, .. } | Instr::Ld { rs1, .. } | Instr::Jalr { rs1, .. } => (rs1, 0),
            _ => (0, 0),
        };
        [a, b].into_iter().filter(|&r| r != 0)
    }

    /// True for control-flow instructions (branches and jumps).
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Instr::Br { .. } | Instr::Jal { .. } | Instr::Jalr { .. }
        )
    }

    /// True for memory instructions.
    pub fn is_mem(&self) -> bool {
        matches!(self, Instr::Ld { .. } | Instr::St { .. })
    }

    /// The instruction as two words, the layout payloads embed it with.
    /// Word 0 packs a byte each, low to high: the variant (`Alu` 0,
    /// `AluI` 1, `Li` 2, `Ld` 3, `St` 4, `Br` 5, `Jal` 6, `Jalr` 7,
    /// `Halt` 8, `Nop` 9), the [`AluOp::code`] or branch condition
    /// (`beq` 0, `bne` 1, `blt` 2, `bge` 3), `rd`, `rs1`, `rs2`. Word 1 is
    /// the immediate, offset (two's complement) or target. Absent fields
    /// are 0, so equal instructions and equal words coincide.
    pub fn words(&self) -> [u64; 2] {
        let pack = |tag: u64, op: u64, rd: u8, rs1: u8, rs2: u8| {
            tag | op << 8 | u64::from(rd) << 16 | u64::from(rs1) << 24 | u64::from(rs2) << 32
        };
        match *self {
            Instr::Alu { op, rd, rs1, rs2 } => [pack(0, op.code(), rd, rs1, rs2), 0],
            Instr::AluI { op, rd, rs1, imm } => [pack(1, op.code(), rd, rs1, 0), imm as u64],
            Instr::Li { rd, imm } => [pack(2, 0, rd, 0, 0), imm as u64],
            Instr::Ld { rd, rs1, off } => [pack(3, 0, rd, rs1, 0), off as u64],
            Instr::St { rs2, rs1, off } => [pack(4, 0, 0, rs1, rs2), off as u64],
            Instr::Br {
                cond,
                rs1,
                rs2,
                target,
            } => [pack(5, cond as u64, 0, rs1, rs2), target],
            Instr::Jal { rd, target } => [pack(6, 0, rd, 0, 0), target],
            Instr::Jalr { rd, rs1, off } => [pack(7, 0, rd, rs1, 0), off as u64],
            Instr::Halt => [pack(8, 0, 0, 0, 0), 0],
            Instr::Nop => [pack(9, 0, 0, 0, 0), 0],
        }
    }
}

/// An assembled program: instruction memory plus data-memory size.
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    /// Human-readable name (workload catalog key).
    pub name: String,
    /// Instruction memory; the entry point is index 0.
    pub instrs: Vec<Instr>,
    /// Words of data memory the program expects.
    pub mem_words: usize,
    /// Initial data-memory contents as `(addr, value)` pairs.
    pub init_mem: Vec<(u64, u64)>,
}

/// Validate register index syntax (`r0`..`r31`).
pub fn parse_reg(s: &str) -> Result<u8, SimError> {
    let body = s
        .strip_prefix('r')
        .ok_or_else(|| SimError::model(format!("bad register {s:?} (expected rN)")))?;
    let n: u8 = body
        .parse()
        .map_err(|_| SimError::model(format!("bad register {s:?}")))?;
    if n >= 32 {
        return Err(SimError::model(format!(
            "register {s:?} out of range (r0..r31)"
        )));
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_codes_roundtrip_through_pcl() {
        for op in [
            AluOp::Add,
            AluOp::Sub,
            AluOp::And,
            AluOp::Or,
            AluOp::Xor,
            AluOp::Shl,
            AluOp::Shr,
            AluOp::Mul,
            AluOp::Slt,
            AluOp::Sltu,
        ] {
            // eval must agree with the PCL ALU for arbitrary operands.
            assert_eq!(
                op.eval(13, 7),
                liberty_pcl::alu::compute(op.code(), 13, 7).unwrap()
            );
            assert_eq!(AluOp::parse(&op.to_string()), Some(op));
        }
        assert_eq!(AluOp::parse("frobnicate"), None);
    }

    #[test]
    fn branch_conditions() {
        assert!(BrCond::Eq.eval(3, 3));
        assert!(!BrCond::Eq.eval(3, 4));
        assert!(BrCond::Ne.eval(3, 4));
        assert!(BrCond::Lt.eval(u64::MAX, 0)); // -1 < 0 signed
        assert!(BrCond::Ge.eval(0, u64::MAX));
    }

    #[test]
    fn dest_and_sources() {
        let i = Instr::Alu {
            op: AluOp::Add,
            rd: 3,
            rs1: 1,
            rs2: 0,
        };
        assert_eq!(i.dest(), Some(3));
        assert_eq!(i.sources().collect::<Vec<_>>(), vec![1]); // r0 filtered
        let st = Instr::St {
            rs2: 4,
            rs1: 5,
            off: 0,
        };
        assert_eq!(st.dest(), None);
        assert_eq!(st.sources().collect::<Vec<_>>(), vec![5, 4]);
        let z = Instr::Li { rd: 0, imm: 1 };
        assert_eq!(z.dest(), None); // r0 writes discarded
    }

    #[test]
    fn classification() {
        assert!(Instr::Br {
            cond: BrCond::Eq,
            rs1: 0,
            rs2: 0,
            target: 0
        }
        .is_control());
        assert!(Instr::Ld {
            rd: 1,
            rs1: 0,
            off: 0
        }
        .is_mem());
        assert!(!Instr::Nop.is_control());
    }

    #[test]
    fn register_parsing() {
        assert_eq!(parse_reg("r0").unwrap(), 0);
        assert_eq!(parse_reg("r31").unwrap(), 31);
        assert!(parse_reg("r32").is_err());
        assert!(parse_reg("x1").is_err());
        assert!(parse_reg("rX").is_err());
    }
}
