//! A monolithic in-order processor simulator, written the conventional
//! way: one `struct`, one `step` loop, ad-hoc stage latches. Functionality,
//! timing and control are intertwined — which is precisely why such
//! simulators are hard to reuse (paper §2.1) — but it is fast and simple.
//!
//! The timing model mirrors the structural core's shape (fetch buffer,
//! scoreboard stalls, stall-on-branch or bimodal prediction, blocking
//! memory with fixed latency), though cycle counts are not guaranteed to
//! match the structural model; architectural results are.

use liberty_core::prelude::SimError;
use liberty_upl::isa::{Instr, Program};

/// Configuration knobs mirroring the structural `CoreConfig`.
#[derive(Clone, Debug)]
pub struct MonoConfig {
    /// DRAM latency in cycles.
    pub mem_latency: u64,
    /// Enable a bimodal predictor (else stall on branches).
    pub predict: bool,
    /// Predictor table entries.
    pub pred_entries: usize,
}

impl Default for MonoConfig {
    fn default() -> Self {
        MonoConfig {
            mem_latency: 4,
            predict: false,
            pred_entries: 256,
        }
    }
}

/// Run statistics.
#[derive(Clone, Debug, Default)]
pub struct MonoStats {
    /// Cycles simulated until halt.
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Branch mispredictions (predictor mode).
    pub mispredicts: u64,
    /// Cycles lost to memory.
    pub mem_stall_cycles: u64,
}

struct InFlightMem {
    ready_at: u64,
    dest: Option<u8>,
    value: u64,
}

/// The monolithic simulator.
pub struct MonoCore {
    prog: Program,
    regs: [u64; 32],
    mem: Vec<u64>,
    pc: u64,
    halted: bool,
    /// Busy destination registers (scoreboard).
    busy: Vec<u8>,
    /// Blocking memory op in flight.
    mem_op: Option<InFlightMem>,
    /// Bimodal counters + BTB.
    counters: Vec<u8>,
    btb: Vec<Option<(u64, u64)>>,
    /// Stall-on-branch state.
    waiting_branch: bool,
    cfg: MonoConfig,
    stats: MonoStats,
    now: u64,
}

impl MonoCore {
    /// Create a simulator for a program.
    pub fn new(prog: &Program, cfg: MonoConfig) -> Self {
        let mut mem = vec![0u64; prog.mem_words];
        for &(a, v) in &prog.init_mem {
            let idx = (a as usize) % prog.mem_words;
            mem[idx] = v;
        }
        MonoCore {
            prog: prog.clone(),
            regs: [0; 32],
            mem,
            pc: 0,
            halted: false,
            busy: Vec::new(),
            mem_op: None,
            counters: vec![1; cfg.pred_entries],
            btb: vec![None; cfg.pred_entries],
            waiting_branch: false,
            cfg,
            stats: MonoStats::default(),
            now: 0,
        }
    }

    fn read(&self, r: u8) -> u64 {
        self.regs[r as usize]
    }

    fn write(&mut self, r: u8, v: u64) {
        if r != 0 {
            self.regs[r as usize] = v;
        }
    }

    /// One cycle of the monolithic loop.
    pub fn step(&mut self) -> Result<(), SimError> {
        self.now += 1;
        self.stats.cycles += 1;
        // Memory completion.
        if let Some(m) = &self.mem_op {
            if m.ready_at <= self.now {
                let m = self.mem_op.take().expect("checked");
                if let Some(d) = m.dest {
                    self.write(d, m.value);
                    self.busy.retain(|&b| b != d);
                }
                self.stats.retired += 1;
            } else {
                self.stats.mem_stall_cycles += 1;
                return Ok(());
            }
        }
        if self.halted || self.waiting_branch {
            // waiting_branch only in predictor-less mode; branch resolves
            // immediately in this simplified pipe, so it never sticks.
            self.waiting_branch = false;
        }
        if self.halted {
            return Ok(());
        }
        let Some(&instr) = self.prog.instrs.get(self.pc as usize) else {
            return Err(SimError::model(format!(
                "mono_core: pc {} out of range",
                self.pc
            )));
        };
        // Scoreboard: stall if a source or the dest is busy.
        let hazard = instr.sources().any(|s| self.busy.contains(&s))
            || instr.dest().is_some_and(|d| self.busy.contains(&d));
        if hazard {
            return Ok(());
        }
        let mut next = self.pc + 1;
        match instr {
            Instr::Alu { op, rd, rs1, rs2 } => {
                let v = op.eval(self.read(rs1), self.read(rs2));
                self.write(rd, v);
                self.stats.retired += 1;
            }
            Instr::AluI { op, rd, rs1, imm } => {
                let v = op.eval(self.read(rs1), imm as u64);
                self.write(rd, v);
                self.stats.retired += 1;
            }
            Instr::Li { rd, imm } => {
                self.write(rd, imm as u64);
                self.stats.retired += 1;
            }
            Instr::Ld { rd, rs1, off } => {
                let a = (self.read(rs1).wrapping_add(off as u64) as usize) % self.mem.len();
                let value = self.mem[a];
                if rd != 0 {
                    self.busy.push(rd);
                }
                self.mem_op = Some(InFlightMem {
                    ready_at: self.now + self.cfg.mem_latency,
                    dest: (rd != 0).then_some(rd),
                    value,
                });
            }
            Instr::St { rs2, rs1, off } => {
                let a = (self.read(rs1).wrapping_add(off as u64) as usize) % self.mem.len();
                self.mem[a] = self.read(rs2);
                self.mem_op = Some(InFlightMem {
                    ready_at: self.now + self.cfg.mem_latency,
                    dest: None,
                    value: 0,
                });
            }
            Instr::Br {
                cond,
                rs1,
                rs2,
                target,
            } => {
                let taken = cond.eval(self.read(rs1), self.read(rs2));
                let actual = if taken { target } else { self.pc + 1 };
                if self.cfg.predict {
                    let i = (self.pc as usize) % self.counters.len();
                    let pred_taken =
                        self.counters[i] >= 2 && self.btb[i].is_some_and(|(p, _)| p == self.pc);
                    let pred_next = if pred_taken {
                        self.btb[i].map(|(_, t)| t).unwrap_or(self.pc + 1)
                    } else {
                        self.pc + 1
                    };
                    if pred_next != actual {
                        self.stats.mispredicts += 1;
                        // Flush penalty: the structural pipe loses the
                        // front-end refill; approximate with 3 cycles.
                        self.stats.cycles += 3;
                        self.now += 3;
                    }
                    if taken {
                        self.counters[i] = (self.counters[i] + 1).min(3);
                        self.btb[i] = Some((self.pc, target));
                    } else {
                        self.counters[i] = self.counters[i].saturating_sub(1);
                    }
                } else {
                    // Stall-on-branch: front end idles until resolution;
                    // approximate the structural pipe's bubble.
                    self.stats.cycles += 2;
                    self.now += 2;
                }
                next = actual;
                self.stats.retired += 1;
            }
            Instr::Jal { rd, target } => {
                self.write(rd, self.pc + 1);
                next = target;
                self.stats.retired += 1;
            }
            Instr::Jalr { rd, rs1, off } => {
                let t = self.read(rs1).wrapping_add(off as u64);
                self.write(rd, self.pc + 1);
                next = t;
                self.stats.retired += 1;
            }
            Instr::Halt => {
                self.halted = true;
                self.stats.retired += 1;
            }
            Instr::Nop => {
                self.stats.retired += 1;
            }
        }
        self.pc = next;
        Ok(())
    }

    /// Run until halt (with outstanding memory drained) or `max_cycles`.
    pub fn run(&mut self, max_cycles: u64) -> Result<&MonoStats, SimError> {
        while !self.halted || self.mem_op.is_some() {
            if self.stats.cycles >= max_cycles {
                break;
            }
            self.step()?;
        }
        Ok(&self.stats)
    }

    /// Final architectural register file.
    pub fn regs(&self) -> &[u64; 32] {
        &self.regs
    }

    /// Final memory contents.
    pub fn mem(&self) -> &[u64] {
        &self.mem
    }

    /// Statistics so far.
    pub fn stats(&self) -> &MonoStats {
        &self.stats
    }

    /// Has the program halted?
    pub fn halted(&self) -> bool {
        self.halted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liberty_upl::emu::Machine;
    use liberty_upl::program;

    fn check(prog: &Program, cfg: MonoConfig) -> MonoStats {
        let mut mono = MonoCore::new(prog, cfg);
        mono.run(10_000_000).unwrap();
        assert!(mono.halted(), "{} did not halt", prog.name);
        let mut emu = Machine::new(prog);
        emu.run(prog, 10_000_000).unwrap();
        assert_eq!(mono.regs(), &emu.regs, "{}: registers differ", prog.name);
        assert_eq!(mono.mem(), &emu.mem[..], "{}: memory differs", prog.name);
        assert_eq!(
            mono.stats().retired,
            emu.retired,
            "{}: retired differ",
            prog.name
        );
        mono.stats().clone()
    }

    #[test]
    fn catalog_matches_emulator_stalling() {
        for p in program::catalog() {
            check(&p, MonoConfig::default());
        }
    }

    #[test]
    fn catalog_matches_emulator_predicting() {
        for p in program::catalog() {
            check(
                &p,
                MonoConfig {
                    predict: true,
                    ..MonoConfig::default()
                },
            );
        }
    }

    #[test]
    fn predictor_reduces_cycles_on_branchy() {
        let p = program::branchy(256);
        let stall = check(&p, MonoConfig::default());
        let pred = check(
            &p,
            MonoConfig {
                predict: true,
                ..MonoConfig::default()
            },
        );
        assert!(pred.cycles < stall.cycles);
        assert!(pred.mispredicts > 0);
    }
}
