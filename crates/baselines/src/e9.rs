//! Instruction patching (E9Patch-style): rewriting without control
//! flow recovery.
//!
//! No CFG is consulted for correctness: each instrumented point's
//! instruction span is displaced into a stub
//! (`[payload][displaced insts][branch back]`) and the span's first
//! bytes are overwritten with a branch to the stub. Execution stays in
//! the *original* code everywhere else, so:
//!
//! * calls and returns keep original addresses — stack unwinding works
//!   with no support machinery (Table 1's "NA" means "no problem to
//!   solve", until a call lands *inside* a displaced span);
//! * every instrumented block costs a branch out and a branch back,
//!   the >100% overhead §1 quotes;
//! * a span too small for the branch falls back to a trap (E9Patch's
//!   x86-64 byte tricks buy reach we don't model; on the RISC
//!   architectures a 4-byte branch always fits but may lack reach).

use icfgp_cfg::{analyze, AnalysisConfig};
use icfgp_core::RewriteError;
use icfgp_isa::{encode, encode_into, Arch, Inst};
use icfgp_obj::{names, Binary, Section, SectionFlags, SectionKind, TrapMap};

/// Result of instruction patching.
#[derive(Debug, Clone)]
pub struct E9Outcome {
    /// The patched binary.
    pub binary: Binary,
    /// Blocks whose entry was patched.
    pub patched_blocks: usize,
    /// Patches that had to use a trap.
    pub traps: usize,
    /// Total stub bytes emitted.
    pub stub_bytes: u64,
}

/// Patch every basic-block entry of every function with an empty
/// payload stub.
///
/// Block discovery uses the analysis crate purely as a convenience for
/// the harness (the real tool takes instruction addresses from its
/// user); analysis *failures* don't matter — whatever blocks are known
/// get patched, the rest of the code runs unmodified.
///
/// # Errors
///
/// Only encoding failures surface as errors.
pub fn instruction_patching(binary: &Binary) -> Result<E9Outcome, RewriteError> {
    let arch = binary.arch;
    let analysis = analyze(binary, &AnalysisConfig::default());
    let stub_base = align_up(binary.address_space_end() + 0x1000, 0x1000);
    let branch_len = if arch == Arch::X64 { 5u64 } else { 4 };

    let mut out = binary.clone();
    let mut stubs: Vec<u8> = Vec::new();
    let mut trap_map = TrapMap::new();
    let mut patched_blocks = 0usize;
    let mut traps = 0usize;
    let nop = encode(&Inst::Nop, arch)?;

    for func in analysis.funcs.values() {
        for (bstart, block) in &func.blocks {
            patched_blocks += 1;
            // Collect the displaced span: instructions from the block
            // start until the branch fits.
            let mut span: Vec<(u64, Inst, u8)> = Vec::new();
            let mut span_len = 0u64;
            for (addr, (inst, len)) in func.insts.range(*bstart..block.end) {
                span.push((*addr, inst.clone(), *len));
                span_len += u64::from(*len);
                if span_len >= branch_len {
                    break;
                }
            }
            let resume = bstart + span_len;
            let stub_addr = stub_base + stubs.len() as u64;

            let use_trap = if span_len < branch_len {
                true
            } else if arch != Arch::X64 {
                // RISC: one-instruction branch, bounded reach.
                (stub_addr as i64 - *bstart as i64).abs() > arch.short_branch_reach()
            } else {
                false
            };

            if use_trap {
                traps += 1;
                let trap = encode(&Inst::Trap, arch)?;
                out.write(*bstart, &trap)
                    .map_err(|e| RewriteError::Unsupported(e.to_string()))?;
                trap_map.insert(*bstart, stub_addr);
            } else {
                let mut patch =
                    branch_bytes(arch, *bstart, stub_addr).map_err(RewriteError::Encode)?;
                while (patch.len() as u64) < span_len {
                    patch.extend_from_slice(&nop);
                }
                patch.truncate(span_len as usize);
                out.write(*bstart, &patch)
                    .map_err(|e| RewriteError::Unsupported(e.to_string()))?;
            }

            // Emit the stub: displaced insts with operand fixups, then
            // the branch back.
            for (orig_addr, inst, _len) in &span {
                let at = stub_base + stubs.len() as u64;
                let fixed = fixup(inst, *orig_addr, at);
                encode_into(&fixed, arch, &mut stubs)?;
            }
            let last_falls = span.last().is_some_and(|(_, inst, _)| inst.falls_through());
            if last_falls {
                let at = stub_base + stubs.len() as u64;
                let back = branch_bytes(arch, at, resume).map_err(RewriteError::Encode)?;
                stubs.extend_from_slice(&back);
            }
            // Keep RISC alignment between stubs.
            while !(stubs.len() as u64).is_multiple_of(arch.inst_align()) {
                stubs.push(nop[0]);
            }
        }
    }

    let stub_bytes = stubs.len() as u64;
    out.add_section(Section::new(
        names::INSTR,
        stub_base,
        stubs,
        SectionFlags::exec(),
        SectionKind::Text,
    ));
    if !trap_map.is_empty() {
        let addr = align_up(out.address_space_end(), 16);
        out.add_section(Section::new(
            names::TRAP_MAP,
            addr,
            trap_map.to_bytes(),
            SectionFlags::ro(),
            SectionKind::RuntimeMap,
        ));
    }
    Ok(E9Outcome { binary: out, patched_blocks, traps, stub_bytes })
}

/// A plain unconditional branch, padded to the platform patch size.
fn branch_bytes(arch: Arch, from: u64, to: u64) -> Result<Vec<u8>, String> {
    let offset = to as i64 - from as i64;
    let mut bytes = encode(&Inst::Jump { offset }, arch).map_err(|e| e.to_string())?;
    if arch == Arch::X64 {
        let nop = encode(&Inst::Nop, arch).expect("nop");
        while bytes.len() < 5 {
            bytes.extend_from_slice(&nop);
        }
    }
    Ok(bytes)
}

/// Re-encode a displaced instruction at its stub position, keeping all
/// targets pointing at the *original* address space.
fn fixup(inst: &Inst, orig_addr: u64, new_addr: u64) -> Inst {
    let shift = orig_addr as i64 - new_addr as i64;
    let fix_addr = |a: &icfgp_isa::Addr| {
        if a.pc_rel {
            icfgp_isa::Addr::pc_rel(a.disp + shift)
        } else {
            *a
        }
    };
    match inst {
        Inst::Jump { offset } => Inst::Jump { offset: offset + shift },
        Inst::JumpCond { cond, offset } => Inst::JumpCond { cond: *cond, offset: offset + shift },
        Inst::Call { offset } => Inst::Call { offset: offset + shift },
        Inst::Load { dst, addr, width, sign } => {
            Inst::Load { dst: *dst, addr: fix_addr(addr), width: *width, sign: *sign }
        }
        Inst::Store { src, addr, width } => {
            Inst::Store { src: *src, addr: fix_addr(addr), width: *width }
        }
        Inst::Lea { dst, addr } => Inst::Lea { dst: *dst, addr: fix_addr(addr) },
        Inst::JumpMem { addr } => Inst::JumpMem { addr: fix_addr(addr) },
        Inst::CallMem { addr } => Inst::CallMem { addr: fix_addr(addr) },
        Inst::AdrPage { dst, page_delta } => {
            // Recompute the page delta against the stub position.
            let target_page = ((orig_addr & !0xFFF) as i64 >> 12) + page_delta;
            Inst::AdrPage { dst: *dst, page_delta: target_page - (new_addr as i64 >> 12) }
        }
        other => other.clone(),
    }
}

fn align_up(v: u64, a: u64) -> u64 {
    v + (a - (v % a)) % a
}

#[cfg(test)]
mod tests {
    use super::*;
    use icfgp_asm::{epilogue, prologue, BinaryBuilder, FuncDef, Item};
    use icfgp_emu::{run, LoadOptions, Outcome};
    use icfgp_isa::{AluOp, Cond, Reg, SysOp};
    use icfgp_obj::Language;

    #[test]
    fn patched_binary_behaves_identically() {
        for arch in Arch::ALL {
            let mut b = BinaryBuilder::new(arch);
            let mut main = prologue(arch, 16, false);
            main.push(Item::I(Inst::MovImm { dst: Reg(8), imm: 3 }));
            main.push(Item::Label("loop".into()));
            main.push(Item::I(Inst::AluImm { op: AluOp::Sub, dst: Reg(8), src: Reg(8), imm: 1 }));
            main.push(Item::I(Inst::CmpImm { a: Reg(8), imm: 0 }));
            main.push(Item::JccL(Cond::Gt, "loop".into()));
            main.push(Item::CallF("leaf".into()));
            main.push(Item::I(Inst::Sys { op: SysOp::Out, arg: Reg(8) }));
            main.push(Item::I(Inst::Halt));
            b.add_function(FuncDef::new("main", Language::C, main));
            let mut leaf = vec![Item::I(Inst::MovImm { dst: Reg(8), imm: 9 })];
            leaf.extend(epilogue(arch, 0, true));
            b.add_function(FuncDef::new("leaf", Language::C, leaf));
            b.set_entry("main");
            let bin = b.build().unwrap();
            let expected = match run(&bin, &LoadOptions::default()) {
                Outcome::Halted(s) => s.output,
                o => panic!("{o:?}"),
            };
            let patched = instruction_patching(&bin).unwrap();
            assert!(patched.patched_blocks >= 4, "{arch}: {}", patched.patched_blocks);
            let opts = LoadOptions { preload_runtime: true, ..LoadOptions::default() };
            match run(&patched.binary, &opts) {
                Outcome::Halted(s) => {
                    assert_eq!(s.output, expected, "{arch}");
                    // The bouncing shows up as extra instructions.
                    assert!(
                        s.instructions
                            > run(&bin, &LoadOptions::default()).stats().instructions,
                        "{arch}: stubs add executed instructions"
                    );
                }
                o => panic!("{arch}: {o:?}"),
            }
        }
    }
}
