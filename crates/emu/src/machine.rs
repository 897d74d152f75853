//! The guest machine: loader, interpreter, trap dispatch and the
//! language-runtime unwinder.

use crate::cost::{CostModel, ExecStats};
use crate::icache::ICache;
use crate::memory::Memory;
use crate::runtime::RuntimeLib;
use icfgp_isa::{decode, Addr, Arch, Inst, Reg, SysOp};
use icfgp_obj::{names, Binary, BinaryKind, RaRule, UnwindTable};
use std::collections::HashMap;
use std::fmt;

/// ABI: argument/return/exception register.
pub(crate) const RET_REG: usize = 8;

/// Pseudo return address marking the end of a finalizer call.
const FINI_SENTINEL: u64 = 0xFFFF_FFFF_FFFF_FE00;

/// How to load and run a binary.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Load bias added to every link-time address (PIE only).
    pub bias: u64,
    /// Parse `.trap_map`/`.ra_map` and enable the runtime library
    /// (the `LD_PRELOAD` analog). Required for rewritten binaries that
    /// use trap trampolines or RA translation.
    pub preload_runtime: bool,
    /// Guest stack size in bytes.
    pub stack_size: usize,
    /// Instruction budget before the run is cut off.
    pub fuel: u64,
    /// Cost model.
    pub cost: CostModel,
}

impl Default for LoadOptions {
    fn default() -> LoadOptions {
        LoadOptions {
            bias: 0,
            preload_runtime: false,
            stack_size: 1 << 20,
            fuel: 500_000_000,
            cost: CostModel::default(),
        }
    }
}

/// Why a load failed before any instruction ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// A non-zero bias was requested for position-dependent code.
    BiasOnNonPie,
    /// Allocated sections overlap or a relocation slot is unmapped
    /// (malformed binary).
    BadLayout(String),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::BiasOnNonPie => {
                write!(f, "cannot rebase a position-dependent binary")
            }
            LoadError::BadLayout(e) => write!(f, "bad section layout: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// Why a run crashed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrashReason {
    /// Decoding failed at `pc` — wild control flow hit poison bytes or
    /// data (this is what the rewriter's "overwrite `.text` with
    /// illegal bytes" strong test detects).
    IllegalInstruction {
        /// Faulting PC (runtime address).
        pc: u64,
    },
    /// Execution left every executable segment.
    UnmappedExecution {
        /// Faulting PC.
        pc: u64,
    },
    /// A data access touched unmapped or read-only memory.
    BadMemoryAccess {
        /// Faulting address.
        addr: u64,
        /// PC of the access.
        pc: u64,
    },
    /// A trap executed with no trap-map entry (or no runtime loaded).
    UnhandledTrap {
        /// Trap PC.
        pc: u64,
    },
    /// The unwinder found no recipe for a frame's resume address —
    /// exactly how C++ exceptions die in a rewritten binary without RA
    /// translation.
    UnwindFailure {
        /// Untranslatable resume address.
        pc: u64,
    },
    /// An exception unwound past `main`.
    UncaughtException,
    /// The guest aborted (Go-runtime panic analog).
    GuestAbort {
        /// Abort code.
        code: i64,
    },
    /// A misaligned PC on a fixed-width architecture.
    MisalignedPc {
        /// Faulting PC.
        pc: u64,
    },
    /// Loading failed before execution.
    LoadFailed {
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for CrashReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrashReason::IllegalInstruction { pc } => write!(f, "illegal instruction at {pc:#x}"),
            CrashReason::UnmappedExecution { pc } => write!(f, "execution left the image at {pc:#x}"),
            CrashReason::BadMemoryAccess { addr, pc } => {
                write!(f, "bad memory access to {addr:#x} at pc {pc:#x}")
            }
            CrashReason::UnhandledTrap { pc } => write!(f, "unhandled trap at {pc:#x}"),
            CrashReason::UnwindFailure { pc } => write!(f, "cannot unwind through {pc:#x}"),
            CrashReason::UncaughtException => write!(f, "uncaught exception"),
            CrashReason::GuestAbort { code } => write!(f, "guest abort with code {code}"),
            CrashReason::MisalignedPc { pc } => write!(f, "misaligned pc {pc:#x}"),
            CrashReason::LoadFailed { reason } => write!(f, "load failed: {reason}"),
        }
    }
}

/// Result of running a binary.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The program halted normally (finalizers included).
    Halted(ExecStats),
    /// The program crashed.
    Crashed {
        /// What went wrong.
        reason: CrashReason,
        /// Counters up to the crash.
        stats: ExecStats,
    },
    /// The instruction budget ran out (treated as a failure by the
    /// harness — rewritten binaries must terminate).
    OutOfFuel(ExecStats),
}

impl Outcome {
    /// The stats regardless of how the run ended.
    #[must_use]
    pub fn stats(&self) -> &ExecStats {
        match self {
            Outcome::Halted(s) | Outcome::OutOfFuel(s) => s,
            Outcome::Crashed { stats, .. } => stats,
        }
    }

    /// Whether the program halted normally.
    #[must_use]
    pub fn is_success(&self) -> bool {
        matches!(self, Outcome::Halted(_))
    }

    /// The output stream if the run succeeded.
    #[must_use]
    pub fn success_output(&self) -> Option<&[i64]> {
        match self {
            Outcome::Halted(s) => Some(&s.output),
            _ => None,
        }
    }
}

/// The guest machine.
#[derive(Debug)]
pub struct Machine {
    arch: Arch,
    gprs: [i64; 32],
    lr: i64,
    tar: i64,
    cmp: (i64, i64),
    pc: u64,
    mem: Memory,
    bias: u64,
    sp_reg: usize,
    runtime: Option<RuntimeLib>,
    unwind: UnwindTable,
    fini_range: Option<(u64, usize)>,
    fini_queue: Vec<u64>,
    cost: CostModel,
    icache: ICache,
    fuel: u64,
    stats: ExecStats,
    decode_cache: HashMap<u64, (Inst, u8)>,
}

impl Machine {
    /// Load `binary` into a fresh machine.
    ///
    /// # Errors
    ///
    /// [`LoadError`] when rebasing position-dependent code, when the
    /// binary's sections overlap or when a relocation slot is unmapped.
    pub fn load(binary: &Binary, options: &LoadOptions) -> Result<Machine, LoadError> {
        if options.bias != 0 && !binary.meta.pie {
            return Err(LoadError::BiasOnNonPie);
        }
        binary
            .validate_layout()
            .map_err(|e| LoadError::BadLayout(e.to_string()))?;
        let bias = options.bias;
        let mut mem = Memory::new();
        for sec in binary.sections() {
            let f = sec.flags();
            if !f.alloc || sec.is_empty() {
                continue;
            }
            mem.map(bias + sec.addr(), sec.data().to_vec(), f.write, f.exec);
        }
        // Apply RELATIVE relocations the way the loader would.
        for reloc in binary.runtime_relocations() {
            let value = bias + reloc.addend;
            mem.write_force(bias + reloc.at, &value.to_le_bytes())
                .map_err(|_| {
                    LoadError::BadLayout(format!("relocation slot {:#x} is not mapped", reloc.at))
                })?;
        }
        // Guest stack, placed far above the image.
        let stack_base = 0x7000_0000u64;
        mem.map(stack_base, vec![0; options.stack_size], true, false);
        let sp = stack_base + options.stack_size as u64 - 64;

        let mut m = Machine {
            arch: binary.arch,
            gprs: [0; 32],
            lr: 0,
            tar: 0,
            cmp: (0, 0),
            pc: bias + binary.entry,
            mem,
            bias,
            sp_reg: binary.arch.sp().0 as usize,
            runtime: options.preload_runtime.then(|| RuntimeLib::from_binary(binary)),
            unwind: binary.unwind.clone(),
            fini_range: binary
                .section(names::FINI_ARRAY)
                .map(|s| (bias + s.addr(), s.len() / 8)),
            fini_queue: Vec::new(),
            cost: options.cost.clone(),
            icache: ICache::new(options.cost.icache),
            fuel: options.fuel,
            stats: ExecStats::default(),
            decode_cache: HashMap::new(),
        };
        m.gprs[m.sp_reg] = sp as i64;
        if binary.kind == BinaryKind::Exec {
            // Sentinel return address for `main`.
            if binary.arch == Arch::X64 {
                m.gprs[m.sp_reg] -= 8;
                let spv = m.gprs[m.sp_reg] as u64;
                m.mem.write(spv, &0u64.to_le_bytes()).expect("stack is writable");
            } else {
                m.lr = 0;
            }
        }
        if let Some(toc) = binary.toc_base {
            m.gprs[2] = (bias + toc) as i64;
        }
        Ok(m)
    }

    /// Current program counter (runtime address).
    #[must_use]
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Read a GPR.
    #[must_use]
    pub fn gpr(&self, reg: Reg) -> i64 {
        self.gprs[reg.0 as usize]
    }

    /// Set a GPR (test hook).
    pub fn set_gpr(&mut self, reg: Reg, value: i64) {
        self.gprs[reg.0 as usize] = value;
    }

    /// Counters so far.
    #[must_use]
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Guest memory (test hook).
    #[must_use]
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// The load bias this machine was created with.
    #[must_use]
    pub fn bias(&self) -> u64 {
        self.bias
    }

    /// Map an additional region into the running machine (dynamic
    /// instrumentation: the injected `.instr`/`.jt_clone`/map
    /// sections).
    ///
    /// # Panics
    ///
    /// Panics when the region overlaps an existing mapping.
    pub fn map_region(&mut self, addr: u64, data: Vec<u8>, writable: bool, executable: bool) {
        self.mem.map(addr, data, writable, executable);
    }

    /// Overwrite bytes in the running image regardless of page
    /// permissions (the dynamic instrumenter's `mprotect`+patch).
    /// Invalidates affected decode-cache entries.
    ///
    /// # Errors
    ///
    /// Returns the faulting address when the range is unmapped.
    pub fn patch_code(&mut self, addr: u64, bytes: &[u8]) -> Result<(), u64> {
        self.mem.write_force(addr, bytes)?;
        // Any cached decode whose instruction could overlap the patch
        // is dropped (instructions are at most 16 bytes).
        let lo = addr.saturating_sub(16);
        let hi = addr + bytes.len() as u64;
        self.decode_cache.retain(|pc, _| *pc < lo || *pc >= hi);
        Ok(())
    }

    /// Redirect the paused program counter (dynamic attach migrates a
    /// paused thread into the relocated code).
    pub fn set_pc(&mut self, pc: u64) {
        self.pc = pc;
    }

    /// Install (or replace) the runtime library's maps — the dynamic
    /// equivalent of `LD_PRELOAD`-ing it at startup.
    pub fn install_runtime(&mut self, runtime: RuntimeLib) {
        self.runtime = Some(runtime);
    }

    /// Run until halt, crash, or fuel exhaustion.
    pub fn run(&mut self) -> Outcome {
        loop {
            if let Some(outcome) = self.step() {
                return outcome;
            }
        }
    }

    /// Execute one instruction; `Some` when the run ended.
    pub fn step(&mut self) -> Option<Outcome> {
        // Pseudo-PCs: normal-exit bookkeeping.
        if self.pc == 0 {
            return Some(self.finish());
        }
        if self.pc == FINI_SENTINEL {
            return match self.fini_queue.pop() {
                Some(next) => {
                    self.enter_fini(next);
                    None
                }
                None => Some(Outcome::Halted(std::mem::take(&mut self.stats))),
            };
        }
        if self.stats.instructions >= self.fuel {
            return Some(Outcome::OutOfFuel(std::mem::take(&mut self.stats)));
        }
        if self.arch.is_fixed_width() && !self.pc.is_multiple_of(4) {
            return Some(self.crash(CrashReason::MisalignedPc { pc: self.pc }));
        }
        let (inst, len) = match self.fetch_decode() {
            Ok(v) => v,
            Err(reason) => return Some(self.crash(reason)),
        };
        self.stats.instructions += 1;
        self.stats.cycles += self.cost.base;
        let misses = self.icache.fetch(self.pc, u64::from(len));
        self.stats.icache_misses += misses;
        self.stats.cycles += misses * self.cost.icache_miss;
        match self.exec(&inst, u64::from(len)) {
            Ok(Flow::Continue) => None,
            Ok(Flow::Halt) => Some(self.finish()),
            Err(reason) => Some(self.crash(reason)),
        }
    }

    fn crash(&mut self, reason: CrashReason) -> Outcome {
        Outcome::Crashed { reason, stats: std::mem::take(&mut self.stats) }
    }

    /// Normal halt: run finalizers, then stop.
    fn finish(&mut self) -> Outcome {
        if self.fini_queue.is_empty() {
            if let Some((addr, count)) = self.fini_range.take() {
                // Read the (possibly rewritten) slots from guest memory.
                let mut targets = Vec::new();
                for i in 0..count {
                    if let Some(v) = self.mem.read_int(addr + 8 * i as u64, 8, false) {
                        targets.push(v as u64);
                    }
                }
                targets.reverse(); // pop() runs them in order
                self.fini_queue = targets;
                if let Some(next) = self.fini_queue.pop() {
                    self.enter_fini(next);
                    // Resume the interpreter loop to run finalizers.
                    self.pc_guard();
                    return match self.run_to_end() {
                        Some(o) => o,
                        None => Outcome::Halted(std::mem::take(&mut self.stats)),
                    };
                }
            }
        }
        Outcome::Halted(std::mem::take(&mut self.stats))
    }

    fn pc_guard(&self) {}

    fn run_to_end(&mut self) -> Option<Outcome> {
        loop {
            if let Some(outcome) = self.step() {
                return Some(outcome);
            }
        }
    }

    fn enter_fini(&mut self, target: u64) {
        if self.arch == Arch::X64 {
            self.gprs[self.sp_reg] -= 8;
            let spv = self.gprs[self.sp_reg] as u64;
            let _ = self.mem.write(spv, &FINI_SENTINEL.to_le_bytes());
        } else {
            self.lr = FINI_SENTINEL as i64;
        }
        self.pc = target;
    }

    fn fetch_decode(&mut self) -> Result<(Inst, u8), CrashReason> {
        if let Some((inst, len)) = self.decode_cache.get(&self.pc) {
            return Ok((inst.clone(), *len));
        }
        let max = self.arch.max_inst_len();
        let bytes = self
            .mem
            .fetch(self.pc, max)
            .ok_or(CrashReason::UnmappedExecution { pc: self.pc })?;
        let (inst, len) =
            decode(bytes, self.arch).map_err(|_| CrashReason::IllegalInstruction { pc: self.pc })?;
        self.decode_cache.insert(self.pc, (inst.clone(), len as u8));
        Ok((inst, len as u8))
    }

    fn ea(&self, addr: &Addr, inst_addr: u64) -> u64 {
        if addr.pc_rel {
            return inst_addr.wrapping_add_signed(addr.disp);
        }
        let mut v = addr.disp;
        if let Some(b) = addr.base {
            v = v.wrapping_add(self.gprs[b.0 as usize]);
        }
        if let Some(i) = addr.index {
            v = v.wrapping_add(self.gprs[i.0 as usize].wrapping_mul(i64::from(addr.scale)));
        }
        v as u64
    }

    fn push(&mut self, value: u64, pc: u64) -> Result<(), CrashReason> {
        self.gprs[self.sp_reg] -= 8;
        let sp = self.gprs[self.sp_reg] as u64;
        self.mem
            .write(sp, &value.to_le_bytes())
            .map_err(|addr| CrashReason::BadMemoryAccess { addr, pc })
    }

    fn pop(&mut self, pc: u64) -> Result<u64, CrashReason> {
        let sp = self.gprs[self.sp_reg] as u64;
        let v = self
            .mem
            .read_int(sp, 8, false)
            .ok_or(CrashReason::BadMemoryAccess { addr: sp, pc })?;
        self.gprs[self.sp_reg] += 8;
        Ok(v as u64)
    }

    /// Transfer to a call target, recording the return address.
    fn do_call(&mut self, target: u64, ret: u64, pc: u64) -> Result<(), CrashReason> {
        if self.arch == Arch::X64 {
            self.push(ret, pc)?;
        } else {
            self.lr = ret as i64;
        }
        self.pc = target;
        self.stats.cycles += self.cost.taken_branch;
        Ok(())
    }

    #[allow(clippy::too_many_lines)]
    fn exec(&mut self, inst: &Inst, len: u64) -> Result<Flow, CrashReason> {
        let pc = self.pc;
        let next = pc + len;
        let g = |m: &Machine, r: Reg| m.gprs[r.0 as usize];
        match inst {
            Inst::Halt => return Ok(Flow::Halt),
            Inst::Nop => self.pc = next,
            Inst::Trap => {
                self.stats.traps += 1;
                self.stats.cycles += self.cost.trap;
                let target = self
                    .runtime
                    .as_ref()
                    .and_then(|rt| rt.trap_map.target(pc - self.bias));
                match target {
                    Some(t) => self.pc = self.bias + t,
                    None => return Err(CrashReason::UnhandledTrap { pc }),
                }
            }
            Inst::MovImm { dst, imm } => {
                self.gprs[dst.0 as usize] = *imm;
                self.pc = next;
            }
            Inst::MovReg { dst, src } => {
                self.gprs[dst.0 as usize] = g(self, *src);
                self.pc = next;
            }
            Inst::Alu { op, dst, a, b } => {
                self.gprs[dst.0 as usize] = op.eval(g(self, *a), g(self, *b));
                self.pc = next;
            }
            Inst::AluImm { op, dst, src, imm } => {
                self.gprs[dst.0 as usize] = op.eval(g(self, *src), i64::from(*imm));
                self.pc = next;
            }
            Inst::OrShl16 { dst, imm } => {
                let v = g(self, *dst);
                self.gprs[dst.0 as usize] = (v << 16) | i64::from(*imm);
                self.pc = next;
            }
            Inst::AddShl16 { dst, src, imm } => {
                self.gprs[dst.0 as usize] = g(self, *src).wrapping_add(i64::from(*imm) << 16);
                self.pc = next;
            }
            Inst::AddImm16 { dst, src, imm } => {
                self.gprs[dst.0 as usize] = g(self, *src).wrapping_add(i64::from(*imm));
                self.pc = next;
            }
            Inst::AdrPage { dst, page_delta } => {
                let page = (pc & !0xFFF).wrapping_add_signed(page_delta << 12);
                self.gprs[dst.0 as usize] = page as i64;
                self.pc = next;
            }
            Inst::Cmp { a, b } => {
                self.cmp = (g(self, *a), g(self, *b));
                self.pc = next;
            }
            Inst::CmpImm { a, imm } => {
                self.cmp = (g(self, *a), i64::from(*imm));
                self.pc = next;
            }
            Inst::Load { dst, addr, width, sign } => {
                let ea = self.ea(addr, pc);
                let v = self
                    .mem
                    .read_int(ea, width.bytes() as usize, *sign)
                    .ok_or(CrashReason::BadMemoryAccess { addr: ea, pc })?;
                self.gprs[dst.0 as usize] = v;
                self.pc = next;
            }
            Inst::Store { src, addr, width } => {
                let ea = self.ea(addr, pc);
                self.mem
                    .write_int(ea, g(self, *src), width.bytes() as usize)
                    .map_err(|addr| CrashReason::BadMemoryAccess { addr, pc })?;
                self.pc = next;
            }
            Inst::Lea { dst, addr } => {
                self.gprs[dst.0 as usize] = self.ea(addr, pc) as i64;
                self.pc = next;
            }
            Inst::Push { src } => {
                let v = g(self, *src) as u64;
                self.push(v, pc)?;
                self.pc = next;
            }
            Inst::Pop { dst } => {
                let v = self.pop(pc)?;
                self.gprs[dst.0 as usize] = v as i64;
                self.pc = next;
            }
            Inst::Jump { offset } => {
                self.pc = pc.wrapping_add_signed(*offset);
                self.stats.cycles += self.cost.taken_branch;
            }
            Inst::JumpCond { cond, offset } => {
                if cond.eval(self.cmp.0, self.cmp.1) {
                    self.pc = pc.wrapping_add_signed(*offset);
                    self.stats.cycles += self.cost.taken_branch;
                } else {
                    self.pc = next;
                }
            }
            Inst::JumpReg { src } => {
                self.pc = g(self, *src) as u64;
                self.stats.cycles += self.cost.indirect_branch;
            }
            Inst::JumpMem { addr } => {
                let ea = self.ea(addr, pc);
                let v = self
                    .mem
                    .read_int(ea, 8, false)
                    .ok_or(CrashReason::BadMemoryAccess { addr: ea, pc })?;
                self.pc = v as u64;
                self.stats.cycles += self.cost.indirect_branch;
            }
            Inst::Call { offset } => {
                self.do_call(pc.wrapping_add_signed(*offset), next, pc)?;
            }
            Inst::CallReg { src } => {
                let t = g(self, *src) as u64;
                self.stats.cycles += self.cost.indirect_branch;
                self.do_call(t, next, pc)?;
            }
            Inst::CallMem { addr } => {
                let ea = self.ea(addr, pc);
                let v = self
                    .mem
                    .read_int(ea, 8, false)
                    .ok_or(CrashReason::BadMemoryAccess { addr: ea, pc })?;
                self.stats.cycles += self.cost.indirect_branch;
                self.do_call(v as u64, next, pc)?;
            }
            Inst::Ret => {
                let ra = if self.arch == Arch::X64 { self.pop(pc)? } else { self.lr as u64 };
                self.pc = ra;
                self.stats.cycles += self.cost.taken_branch;
            }
            Inst::MoveToTar { src } => {
                self.tar = g(self, *src);
                self.pc = next;
            }
            Inst::JumpTar => {
                self.pc = self.tar as u64;
                self.stats.cycles += self.cost.indirect_branch;
            }
            Inst::CallTar => {
                let t = self.tar as u64;
                self.stats.cycles += self.cost.indirect_branch;
                self.do_call(t, next, pc)?;
            }
            Inst::MoveFromLr { dst } => {
                self.gprs[dst.0 as usize] = self.lr;
                self.pc = next;
            }
            Inst::MoveToLr { src } => {
                self.lr = g(self, *src);
                self.pc = next;
            }
            Inst::Sys { op, arg } => {
                let v = g(self, *arg);
                match op {
                    SysOp::Out => {
                        self.stats.output.push(v);
                        self.pc = next;
                    }
                    SysOp::Abort => return Err(CrashReason::GuestAbort { code: v }),
                    SysOp::Throw => {
                        self.stats.throws += 1;
                        self.unwind_throw(v)?;
                    }
                    SysOp::RaTranslate => {
                        let slot = v as u64;
                        let cur = self
                            .mem
                            .read_int(slot, 8, false)
                            .ok_or(CrashReason::BadMemoryAccess { addr: slot, pc })?
                            as u64;
                        if let Some(rt) = &self.runtime {
                            self.stats.ra_translations += 1;
                            self.stats.cycles += self.cost.ra_translate;
                            if let Some(orig) = rt.ra_map.translate(cur.wrapping_sub(self.bias)) {
                                let fixed = self.bias + orig;
                                self.mem
                                    .write(slot, &fixed.to_le_bytes())
                                    .map_err(|addr| CrashReason::BadMemoryAccess { addr, pc })?;
                            }
                        }
                        self.pc = next;
                    }
                }
            }
        }
        Ok(Flow::Continue)
    }

    /// C++-style exception dispatch: walk frames using the *original*
    /// unwind table, translating each resume address through the RA map
    /// when the runtime library is loaded (§6.1).
    fn unwind_throw(&mut self, exception: i64) -> Result<(), CrashReason> {
        let mut pc_cur = self.pc;
        let mut sp_cur = self.gprs[self.sp_reg] as u64;
        let mut top_frame = true;
        loop {
            self.stats.unwind_steps += 1;
            self.stats.cycles += self.cost.unwind_step_cost();
            let mut link_pc = pc_cur.wrapping_sub(self.bias);
            if let Some(rt) = &self.runtime {
                self.stats.ra_translations += 1;
                self.stats.cycles += self.cost.ra_translate;
                link_pc = rt.translate_ra(link_pc);
            }
            // Return addresses point one past the call; look up `ra-1`
            // so the recipe and call-site ranges of the *calling*
            // instruction apply (standard unwinder behaviour).
            let lookup_pc = if top_frame { link_pc } else { link_pc - 1 };
            let entry = self
                .unwind
                .lookup(lookup_pc)
                .ok_or(CrashReason::UnwindFailure { pc: pc_cur })?
                .clone();
            if let Some(lp) = entry.landing_pad_for(lookup_pc) {
                // Resume in the catch frame. The landing pad is an
                // *original-code* address; in a rewritten binary a
                // trampoline there bounces into `.instr`.
                self.pc = self.bias + lp;
                self.gprs[self.sp_reg] = sp_cur as i64;
                self.gprs[RET_REG] = exception;
                return Ok(());
            }
            let ra = match entry.ra {
                RaRule::LinkRegister => {
                    if top_frame {
                        self.lr as u64
                    } else {
                        // A leaf frame cannot be mid-stack.
                        return Err(CrashReason::UnwindFailure { pc: pc_cur });
                    }
                }
                RaRule::StackSlot { offset } => {
                    let slot = sp_cur.wrapping_add_signed(offset);
                    self.mem
                        .read_int(slot, 8, false)
                        .ok_or(CrashReason::BadMemoryAccess { addr: slot, pc: pc_cur })?
                        as u64
                }
            };
            if ra == 0 || ra == FINI_SENTINEL {
                return Err(CrashReason::UncaughtException);
            }
            sp_cur += entry.frame_size + if self.arch == Arch::X64 { 8 } else { 0 };
            pc_cur = ra;
            top_frame = false;
        }
    }
}

enum Flow {
    Continue,
    Halt,
}

#[cfg(test)]
mod tests {
    use super::*;
    use icfgp_asm::{epilogue, prologue, BinaryBuilder, FuncDef, Item, UnwindSpec};
    use icfgp_isa::{AluOp, Cond};
    use icfgp_obj::Language;

    fn run_ok(bin: &Binary) -> ExecStats {
        match crate::run(bin, &LoadOptions::default()) {
            Outcome::Halted(stats) => stats,
            other => panic!("expected halt, got {other:?}"),
        }
    }

    /// fib(10) computed with a loop, on every architecture.
    #[test]
    fn loop_program_runs_everywhere() {
        for arch in Arch::ALL {
            let mut b = BinaryBuilder::new(arch);
            b.add_function(FuncDef::new(
                "main",
                Language::C,
                vec![
                    Item::I(Inst::MovImm { dst: Reg(8), imm: 0 }),
                    Item::I(Inst::MovImm { dst: Reg(9), imm: 1 }),
                    Item::I(Inst::MovImm { dst: Reg(10), imm: 10 }),
                    Item::Label("loop".into()),
                    Item::I(Inst::Alu { op: AluOp::Add, dst: Reg(11), a: Reg(8), b: Reg(9) }),
                    Item::I(Inst::MovReg { dst: Reg(8), src: Reg(9) }),
                    Item::I(Inst::MovReg { dst: Reg(9), src: Reg(11) }),
                    Item::I(Inst::AluImm { op: AluOp::Sub, dst: Reg(10), src: Reg(10), imm: 1 }),
                    Item::I(Inst::CmpImm { a: Reg(10), imm: 0 }),
                    Item::JccL(Cond::Gt, "loop".into()),
                    Item::I(Inst::Sys { op: SysOp::Out, arg: Reg(8) }),
                    Item::I(Inst::Halt),
                ],
            ));
            b.set_entry("main");
            let bin = b.build().unwrap();
            let stats = run_ok(&bin);
            assert_eq!(stats.output, vec![55], "fib(10) on {arch}");
            assert!(stats.instructions > 50);
        }
    }

    /// Calls and returns across all three calling conventions.
    #[test]
    fn call_ret_roundtrip() {
        for arch in Arch::ALL {
            let mut b = BinaryBuilder::new(arch);
            let mut main_items = prologue(arch, 16, false);
            main_items.push(Item::I(Inst::MovImm { dst: Reg(8), imm: 20 }));
            main_items.push(Item::CallF("double".into()));
            main_items.push(Item::I(Inst::Sys { op: SysOp::Out, arg: Reg(8) }));
            main_items.push(Item::I(Inst::Halt));
            b.add_function(FuncDef::new("main", Language::C, main_items));
            let mut dbl = vec![Item::I(Inst::Alu {
                op: AluOp::Add,
                dst: Reg(8),
                a: Reg(8),
                b: Reg(8),
            })];
            dbl.extend(epilogue(arch, 0, true));
            b.add_function(FuncDef::new("double", Language::C, dbl));
            b.set_entry("main");
            let bin = b.build().unwrap();
            assert_eq!(run_ok(&bin).output, vec![40], "on {arch}");
        }
    }

    /// Indirect calls through a function-pointer slot in `.data`,
    /// with PIE relocation applied at a non-zero load bias.
    #[test]
    fn indirect_call_through_relocated_pointer_with_bias() {
        for arch in Arch::ALL {
            let mut b = BinaryBuilder::new(arch);
            b.pie(true);
            let mut main_items = prologue(arch, 16, false);
            main_items.push(Item::LoadFrom {
                dst: Reg(9),
                target: icfgp_asm::RefTarget::Data("fp".into()),
                offset: 0,
                width: icfgp_isa::Width::W8,
                sign: false,
                tmp: Reg(10),
            });
            match arch {
                Arch::Ppc64le => {
                    main_items.push(Item::I(Inst::MoveToTar { src: Reg(9) }));
                    main_items.push(Item::I(Inst::CallTar));
                }
                _ => main_items.push(Item::I(Inst::CallReg { src: Reg(9) })),
            }
            main_items.push(Item::I(Inst::Sys { op: SysOp::Out, arg: Reg(8) }));
            main_items.push(Item::I(Inst::Halt));
            b.add_function(FuncDef::new("main", Language::C, main_items));
            let mut f = vec![Item::I(Inst::MovImm { dst: Reg(8), imm: 99 })];
            f.extend(epilogue(arch, 0, true));
            b.add_function(FuncDef::new("target", Language::C, f));
            b.push_data(
                Some("fp"),
                icfgp_asm::DataItem::Addr {
                    target: icfgp_asm::RefTarget::Func("target".into()),
                    delta: 0,
                },
            );
            b.set_entry("main");
            let bin = b.build().unwrap();
            let opts = LoadOptions { bias: 0x30_0000, ..LoadOptions::default() };
            match crate::run(&bin, &opts) {
                Outcome::Halted(stats) => assert_eq!(stats.output, vec![99], "on {arch}"),
                other => panic!("{arch}: {other:?}"),
            }
        }
    }

    /// A thrown exception reaches the catch landing pad two frames up.
    #[test]
    fn exception_unwinds_to_landing_pad() {
        for arch in Arch::ALL {
            let mut b = BinaryBuilder::new(arch);
            // main: calls catcher, prints its result.
            let mut main_items = prologue(arch, 32, false);
            main_items.push(Item::CallF("catcher".into()));
            main_items.push(Item::I(Inst::Sys { op: SysOp::Out, arg: Reg(8) }));
            main_items.extend(epilogue(arch, 32, false));
            main_items.pop(); // drop ret
            main_items.push(Item::I(Inst::Halt));
            b.add_function(FuncDef::new("main", Language::C, main_items));
            // catcher: try { thrower() } catch(e) { return e + 1 }
            let mut c = prologue(arch, 32, false);
            c.push(Item::Label("try_start".into()));
            c.push(Item::CallF("thrower".into()));
            c.push(Item::Label("try_end".into()));
            // Normal path: return 0 (not taken).
            c.push(Item::I(Inst::MovImm { dst: Reg(8), imm: 0 }));
            c.extend(epilogue(arch, 32, false));
            c.push(Item::Label("landing".into()));
            c.push(Item::I(Inst::AluImm { op: AluOp::Add, dst: Reg(8), src: Reg(8), imm: 1 }));
            c.extend(epilogue(arch, 32, false));
            b.add_function(
                FuncDef::new("catcher", Language::Cpp, c).with_unwind(UnwindSpec {
                    frame_size: 32,
                    ra: None,
                    call_sites: vec![("try_start".into(), "try_end".into(), "landing".into())],
                }),
            );
            // thrower: deep frame that throws 41.
            let mut t = prologue(arch, 48, false);
            t.push(Item::I(Inst::MovImm { dst: Reg(9), imm: 41 }));
            t.push(Item::I(Inst::Sys { op: SysOp::Throw, arg: Reg(9) }));
            t.extend(epilogue(arch, 48, false));
            b.add_function(
                FuncDef::new("thrower", Language::Cpp, t)
                    .with_unwind(UnwindSpec { frame_size: 48, ra: None, call_sites: vec![] }),
            );
            b.set_entry("main");
            let bin = b.build().unwrap();
            let stats = run_ok(&bin);
            assert_eq!(stats.output, vec![42], "catch got 41, +1, on {arch}");
            assert_eq!(stats.throws, 1);
            assert!(stats.unwind_steps >= 2, "thrower frame + catcher frame");
        }
    }

    /// Without an unwind entry for the thrower, unwinding fails — the
    /// mechanism that breaks rewritten binaries lacking RA translation.
    #[test]
    fn unwind_fails_without_recipe() {
        let arch = Arch::X64;
        let mut b = BinaryBuilder::new(arch);
        let mut t = prologue(arch, 16, false);
        t.push(Item::I(Inst::MovImm { dst: Reg(9), imm: 7 }));
        t.push(Item::I(Inst::Sys { op: SysOp::Throw, arg: Reg(9) }));
        t.extend(epilogue(arch, 16, false));
        b.add_function(FuncDef::new("main", Language::Cpp, t)); // no unwind spec
        b.set_entry("main");
        let bin = b.build().unwrap();
        match crate::run(&bin, &LoadOptions::default()) {
            Outcome::Crashed { reason: CrashReason::UnwindFailure { .. }, .. } => {}
            other => panic!("expected unwind failure, got {other:?}"),
        }
    }

    /// An uncaught exception that unwinds past main's sentinel.
    #[test]
    fn uncaught_exception_reported() {
        let arch = Arch::Aarch64;
        let mut b = BinaryBuilder::new(arch);
        let mut t = prologue(arch, 16, false);
        t.push(Item::I(Inst::MovImm { dst: Reg(9), imm: 7 }));
        t.push(Item::I(Inst::Sys { op: SysOp::Throw, arg: Reg(9) }));
        t.extend(epilogue(arch, 16, false));
        b.add_function(
            FuncDef::new("main", Language::Cpp, t)
                .with_unwind(UnwindSpec { frame_size: 16, ra: None, call_sites: vec![] }),
        );
        b.set_entry("main");
        let bin = b.build().unwrap();
        match crate::run(&bin, &LoadOptions::default()) {
            Outcome::Crashed { reason: CrashReason::UncaughtException, .. } => {}
            other => panic!("expected uncaught exception, got {other:?}"),
        }
    }

    /// Finalizers registered in `.fini_array` run after `halt`.
    #[test]
    fn finalizers_run_after_halt() {
        for arch in Arch::ALL {
            let mut b = BinaryBuilder::new(arch);
            b.add_function(FuncDef::new(
                "main",
                Language::C,
                vec![
                    Item::I(Inst::MovImm { dst: Reg(8), imm: 1 }),
                    Item::I(Inst::Sys { op: SysOp::Out, arg: Reg(8) }),
                    Item::I(Inst::Halt),
                ],
            ));
            let mut d = vec![
                Item::I(Inst::MovImm { dst: Reg(8), imm: 2 }),
                Item::I(Inst::Sys { op: SysOp::Out, arg: Reg(8) }),
            ];
            d.extend(epilogue(arch, 0, true));
            b.add_function(FuncDef::new("dtor", Language::C, d));
            b.add_fini("dtor");
            b.set_entry("main");
            let bin = b.build().unwrap();
            assert_eq!(run_ok(&bin).output, vec![1, 2], "on {arch}");
        }
    }

    /// A bare trap crashes without the runtime library; with a trap map
    /// and the preload flag it transfers control.
    #[test]
    fn trap_dispatch_through_trap_map() {
        use icfgp_obj::{Section, SectionFlags, SectionKind, TrapMap};
        let arch = Arch::X64;
        let mut b = BinaryBuilder::new(arch);
        b.add_function(FuncDef::new(
            "main",
            Language::C,
            vec![Item::I(Inst::Trap), Item::I(Inst::Halt)],
        ));
        b.add_function(FuncDef::new(
            "island",
            Language::C,
            vec![
                Item::I(Inst::MovImm { dst: Reg(8), imm: 5 }),
                Item::I(Inst::Sys { op: SysOp::Out, arg: Reg(8) }),
                Item::I(Inst::Halt),
            ],
        ));
        b.set_entry("main");
        let mut bin = b.build().unwrap();
        // Without the runtime: crash.
        match crate::run(&bin, &LoadOptions::default()) {
            Outcome::Crashed { reason: CrashReason::UnhandledTrap { .. }, .. } => {}
            other => panic!("expected trap crash, got {other:?}"),
        }
        // Add a trap map redirecting the trap to `island`.
        let mut tm = TrapMap::new();
        tm.insert(bin.entry, bin.function_named("island").unwrap().addr);
        let addr = bin.address_space_end() + 0x1000;
        bin.add_section(Section::new(
            names::TRAP_MAP,
            addr,
            tm.to_bytes(),
            SectionFlags::ro(),
            SectionKind::RuntimeMap,
        ));
        let opts = LoadOptions { preload_runtime: true, ..LoadOptions::default() };
        match crate::run(&bin, &opts) {
            Outcome::Halted(stats) => {
                assert_eq!(stats.output, vec![5]);
                assert_eq!(stats.traps, 1);
                assert!(stats.cycles >= CostModel::default().trap);
            }
            other => panic!("{other:?}"),
        }
    }

    /// Executing poison bytes is an illegal-instruction crash.
    #[test]
    fn poison_bytes_crash() {
        let mut b = BinaryBuilder::new(Arch::X64);
        b.add_function(FuncDef::new("main", Language::C, vec![Item::I(Inst::Halt)]));
        b.set_entry("main");
        let mut bin = b.build().unwrap();
        let entry = bin.entry;
        bin.section_mut(".text").unwrap().write(entry, &[0xFF]);
        match crate::run(&bin, &LoadOptions::default()) {
            Outcome::Crashed { reason: CrashReason::IllegalInstruction { .. }, .. } => {}
            other => panic!("expected illegal instruction, got {other:?}"),
        }
    }

    /// Fuel exhaustion is reported, not hung.
    #[test]
    fn infinite_loop_runs_out_of_fuel() {
        let mut b = BinaryBuilder::new(Arch::X64);
        b.add_function(FuncDef::new(
            "main",
            Language::C,
            vec![Item::Label("x".into()), Item::JmpL("x".into())],
        ));
        b.set_entry("main");
        let bin = b.build().unwrap();
        let opts = LoadOptions { fuel: 10_000, ..LoadOptions::default() };
        assert!(matches!(crate::run(&bin, &opts), Outcome::OutOfFuel(_)));
    }

    /// Rebasing a non-PIE binary is refused.
    #[test]
    fn bias_on_non_pie_rejected() {
        let mut b = BinaryBuilder::new(Arch::X64);
        b.add_function(FuncDef::new("main", Language::C, vec![Item::I(Inst::Halt)]));
        b.set_entry("main");
        let bin = b.build().unwrap();
        let opts = LoadOptions { bias: 0x1000, ..LoadOptions::default() };
        assert!(matches!(Machine::load(&bin, &opts), Err(LoadError::BiasOnNonPie)));
    }
}
