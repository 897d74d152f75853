//! Multiverse-style rewriting: direct control flow rewritten, indirect
//! control flow handled by **dynamic translation** (Table 1).
//!
//! Instead of trampolines, every indirect jump/call in the relocated
//! code is replaced by a call to a *translation routine* — genuine
//! guest code emitted into the rewritten binary — that binary-searches
//! a translation table (original block address → relocated address)
//! and redirects control. An indirect transfer that took one
//! instruction now takes a call plus an `O(log n)` lookup, which is
//! exactly why §2.2 says dynamic translation "significantly increases
//! runtime overhead".
//!
//! Stack unwinding uses call emulation, as the real Multiverse does.
//!
//! Implementation strategy: run the incremental engine in `dir` mode
//! with call emulation, then post-process the relocated code: every
//! `jmp reg`/`call reg`-class instruction becomes a spill + call into
//! the emitted translator. The translation table is the engine's own
//! block map, serialised into a new `.trans_tab` section.

use icfgp_core::{
    Instrumentation, RewriteConfig, RewriteError, RewriteMode, Rewriter, UnwindStrategy,
};
use icfgp_isa::{encode, encode_into, Addr, AluOp, Arch, Cond, Inst, Reg, Width};
use icfgp_obj::{Binary, Section, SectionFlags, SectionKind};

/// Outcome of Multiverse-style rewriting.
#[derive(Debug, Clone)]
pub struct MultiverseOutcome {
    /// The rewritten binary.
    pub binary: Binary,
    /// Indirect transfer sites routed through the translator.
    pub translated_sites: usize,
    /// Translation-table entries.
    pub table_entries: usize,
    /// The underlying engine report.
    pub report: icfgp_core::RewriteReport,
}

/// Registers used by the translator ABI (instrumentation-reserved in
/// the workload ABI, so clobbering them at indirect-transfer sites is
/// safe — real Multiverse spills registers instead).
const T_ARG: Reg = Reg(14); // in: original target; out: translated target
const T_TMP: Reg = Reg(15);

/// Rewrite `binary` Multiverse-style.
///
/// # Errors
///
/// Propagates [`RewriteError`] from the underlying engine or from
/// re-encoding the translated sites.
pub fn multiverse(
    binary: &Binary,
    instr: &Instrumentation,
) -> Result<MultiverseOutcome, RewriteError> {
    let arch = binary.arch;
    // Base rewrite: direct control flow only, call emulation (so
    // returns land at original call sites, caught by... nothing — the
    // translator handles them? No: Multiverse translates *indirect*
    // transfers; returns under call emulation go to original
    // fall-through addresses, which dir-mode patching covers with
    // trampolines. We therefore keep patching enabled for CFL blocks
    // and route only register/memory-indirect transfers through the
    // translator.
    let mut config = RewriteConfig::new(RewriteMode::Dir);
    config.unwind = UnwindStrategy::CallEmulation;
    // Leave slack after indirect sites so they can be widened into
    // translator detours.
    config.indirect_site_padding = 8;
    let rewriter = Rewriter::new(config);
    let base = rewriter.rewrite(binary, instr)?;
    let report = base.report.clone();
    // Real Multiverse is x86-only; ppc64le's `tar`-indirect transfers
    // cannot be intercepted without knowing the mtspr source. The base
    // (patched) rewrite is returned unchanged there.
    if arch == Arch::Ppc64le {
        return Ok(MultiverseOutcome {
            binary: base.binary,
            translated_sites: 0,
            table_entries: 0,
            report,
        });
    }
    let mut out = base.binary;

    // ----- the translation table ------------------------------------
    // (original block start, relocated address) pairs, sorted — read
    // by the guest translator with plain loads.
    let instr_sec = out
        .section(icfgp_obj::names::INSTR)
        .ok_or_else(|| RewriteError::Unsupported("no .instr emitted".into()))?;
    let instr_range = (instr_sec.addr(), instr_sec.end());
    let mut pairs: Vec<(u64, u64)> = base.block_map.iter().map(|(k, v)| (*k, *v)).collect();
    pairs.sort_unstable();
    let mut tab = Vec::with_capacity(8 + pairs.len() * 16);
    tab.extend_from_slice(&(pairs.len() as u64).to_le_bytes());
    for (k, v) in &pairs {
        tab.extend_from_slice(&k.to_le_bytes());
        tab.extend_from_slice(&v.to_le_bytes());
    }
    let tab_addr = align_up(out.address_space_end(), 16);
    out.add_section(Section::new(
        ".trans_tab",
        tab_addr,
        tab,
        SectionFlags::ro(),
        SectionKind::ReadOnlyData,
    ));

    // ----- the translator routine ------------------------------------
    // fn translate(): T_ARG = lookup(T_ARG); binary search over
    // .trans_tab. Falls through to return T_ARG unchanged on a miss
    // (uninstrumented target).
    let trans_addr = align_up(out.address_space_end(), 16);
    let translator = emit_translator(arch, trans_addr, tab_addr).map_err(RewriteError::Encode)?;
    out.add_section(Section::new(
        ".translator",
        trans_addr,
        translator,
        SectionFlags::exec(),
        SectionKind::Text,
    ));

    // ----- route indirect transfers through the translator -------------
    // Scan the relocated code; every register-indirect transfer
    // becomes: mov T_ARG, target; call translator; jmp/call T_ARG.
    // The replacement is longer than the original instruction, so each
    // site becomes a detour stub appended after the translator.
    let mut stubs: Vec<u8> = Vec::new();
    let stubs_base = align_up(trans_addr + out.section(".translator").expect("added").len() as u64, 16);
    let mut translated_sites = 0usize;
    let mut patches: Vec<(u64, Vec<u8>)> = Vec::new();
    {
        let instr_sec = out.section(icfgp_obj::names::INSTR).expect("checked");
        let data = instr_sec.data().to_vec();
        let mut addr = instr_range.0;
        while addr < instr_range.1 {
            let off = (addr - instr_range.0) as usize;
            let Ok((inst, len)) = icfgp_isa::decode(&data[off..], arch) else {
                addr += arch.inst_align().max(1);
                continue;
            };
            let target_reg = match &inst {
                Inst::JumpReg { src } | Inst::CallReg { src } => Some(*src),
                Inst::JumpTar | Inst::CallTar => Some(Reg(255)), // in tar
                _ => None,
            };
            if let Some(reg) = target_reg {
                let stub_addr = stubs_base + stubs.len() as u64;
                // Patch the site with a branch to the stub; the span
                // includes the slack the engine left after the site.
                let span = len + 8;
                let site_patch =
                    branch_padded(arch, addr, stub_addr, span).map_err(RewriteError::Encode)?;
                patches.push((addr, site_patch));
                // Stub: T_ARG = target; call translator; re-issue the
                // transfer via T_ARG.
                let mut stub = Vec::new();
                let enc = |i: &Inst, out: &mut Vec<u8>, at: u64| -> Result<(), RewriteError> {
                    let _ = at;
                    encode_into(i, arch, out)?;
                    Ok(())
                };
                if reg == Reg(255) {
                    // ppc64le: the target lives in `tar`; there is no
                    // move-from-tar, so the dispatch code's mtspr source
                    // register is unknown here. Re-route via a
                    // conservative trick: keep the original transfer
                    // (tar already holds an original address translated
                    // only by the table—the translator cannot help
                    // without reading tar). Multiverse never supported
                    // ppc64le; mirror that.
                    patches.pop();
                    addr += len as u64;
                    continue;
                }
                // RISC calls clobber the link register, which at an
                // emulated-call site holds the emulated return
                // address: preserve it around the translator call.
                let preserve_lr = arch.has_link_register();
                if preserve_lr {
                    enc(&Inst::MoveFromLr { dst: T_TMP }, &mut stub, 0)?;
                    enc(
                        &Inst::Store {
                            src: T_TMP,
                            addr: Addr::base_disp(arch.sp(), -48),
                            width: Width::W8,
                        },
                        &mut stub,
                        0,
                    )?;
                }
                enc(&Inst::MovReg { dst: T_ARG, src: reg }, &mut stub, 0)?;
                // call translator (direct)
                let at = stub_addr + stub.len() as u64;
                enc(
                    &Inst::Call { offset: trans_addr as i64 - at as i64 },
                    &mut stub,
                    at,
                )?;
                if preserve_lr {
                    enc(
                        &Inst::Load {
                            dst: T_TMP,
                            addr: Addr::base_disp(arch.sp(), -48),
                            width: Width::W8,
                            sign: false,
                        },
                        &mut stub,
                        0,
                    )?;
                    enc(&Inst::MoveToLr { src: T_TMP }, &mut stub, 0)?;
                }
                match inst {
                    Inst::JumpReg { .. } => enc(&Inst::JumpReg { src: T_ARG }, &mut stub, 0)?,
                    Inst::CallReg { .. } => {
                        enc(&Inst::CallReg { src: T_ARG }, &mut stub, 0)?;
                        // Return path: back past the site and its slack.
                        let at = stub_addr + stub.len() as u64;
                        let back = addr + len as u64 + 8;
                        stub.extend_from_slice(
                            &branch_exact(arch, at, back).map_err(RewriteError::Encode)?,
                        );
                    }
                    _ => unreachable!("filtered above"),
                }
                stubs.extend_from_slice(&stub);
                while !(stubs.len() as u64).is_multiple_of(arch.inst_align()) {
                    stubs.push(0);
                }
                translated_sites += 1;
            }
            addr += len as u64;
        }
    }
    for (addr, bytes) in patches {
        out.write(addr, &bytes)
            .map_err(|e| RewriteError::Unsupported(e.to_string()))?;
    }
    if !stubs.is_empty() {
        out.add_section(Section::new(
            ".trans_stubs",
            stubs_base,
            stubs,
            SectionFlags::exec(),
            SectionKind::Text,
        ));
    }

    Ok(MultiverseOutcome {
        binary: out,
        translated_sites,
        table_entries: pairs.len(),
        report,
    })
}

/// The translator: binary search over `.trans_tab`, in guest code.
///
/// ABI: `T_ARG` in/out, clobbers `T_TMP` and `r12`/`r13`.
fn emit_translator(arch: Arch, base: u64, tab_addr: u64) -> Result<Vec<u8>, String> {
    let lo = Reg(12);
    let hi = Reg(13);
    // tmp = &tab; n = [tab]; lo = 0; hi = n.
    // Loop: while lo < hi { mid = (lo+hi)/2; k = tab[8+mid*16];
    //   if k == T_ARG -> return tab[16+mid*16];
    //   if k < T_ARG -> lo = mid+1 else hi = mid }
    // return T_ARG (miss).
    // Registers: T_TMP = table base; r12 = lo; r13 = hi; T_ARG holds
    // the key and, transiently, mid/k via arithmetic on the stack —
    // to stay register-frugal we use the red zone below sp for two
    // spills.
    let sp = arch.sp();
    let spill_key = -16i64;
    let spill_mid = -24i64;
    let save_lo = -56i64;
    let save_hi = -64i64;
    let mut out: Vec<u8> = Vec::new();
    let enc = |i: &Inst, out: &mut Vec<u8>| -> Result<(), String> {
        out.extend_from_slice(&encode(i, arch).map_err(|e| e.to_string())?);
        Ok(())
    };
    // Prologue: preserve the caller's r12/r13 (a real translation
    // routine saves what it uses), spill the key, lo = 0.
    enc(&Inst::Store { src: lo, addr: Addr::base_disp(sp, save_lo), width: Width::W8 }, &mut out)?;
    enc(&Inst::Store { src: hi, addr: Addr::base_disp(sp, save_hi), width: Width::W8 }, &mut out)?;
    enc(&Inst::Store { src: T_ARG, addr: Addr::base_disp(sp, spill_key), width: Width::W8 }, &mut out)?;
    enc(&Inst::MovImm { dst: lo, imm: 0 }, &mut out)?;
    // T_TMP = tab_addr.
    materialize_abs(arch, T_TMP, tab_addr, base + out.len() as u64, &mut out)?;
    enc(&Inst::Load { dst: hi, addr: Addr::base_only(T_TMP), width: Width::W8, sign: false }, &mut out)?;

    // Loop head.
    let loop_head = out.len();
    // if lo >= hi -> miss
    enc(&Inst::Cmp { a: lo, b: hi }, &mut out)?;
    let jmiss_at = out.len();
    // placeholder cond branch; patched after we know the miss offset.
    enc(&Inst::JumpCond { cond: Cond::UGe, offset: 0x100 }, &mut out)?;
    let jmiss_len = out.len() - jmiss_at;
    // mid = (lo + hi) >> 1  (kept in T_ARG transiently; key respilled)
    enc(&Inst::Alu { op: AluOp::Add, dst: T_ARG, a: lo, b: hi }, &mut out)?;
    enc(&Inst::AluImm { op: AluOp::Shr, dst: T_ARG, src: T_ARG, imm: 1 }, &mut out)?;
    enc(&Inst::Store { src: T_ARG, addr: Addr::base_disp(sp, spill_mid), width: Width::W8 }, &mut out)?;
    // k = tab[8 + mid*16]: addr = tab + 8 + mid<<4.
    enc(&Inst::AluImm { op: AluOp::Shl, dst: T_ARG, src: T_ARG, imm: 4 }, &mut out)?;
    enc(&Inst::Alu { op: AluOp::Add, dst: T_ARG, a: T_ARG, b: T_TMP }, &mut out)?;
    enc(&Inst::Load { dst: T_ARG, addr: Addr::base_disp(T_ARG, 8), width: Width::W8, sign: false }, &mut out)?;
    // compare with the key.
    enc(&Inst::Store { src: lo, addr: Addr::base_disp(sp, -32), width: Width::W8 }, &mut out)?;
    enc(&Inst::Load { dst: lo, addr: Addr::base_disp(sp, spill_key), width: Width::W8, sign: false }, &mut out)?;
    enc(&Inst::Cmp { a: T_ARG, b: lo }, &mut out)?;
    enc(&Inst::Load { dst: lo, addr: Addr::base_disp(sp, -32), width: Width::W8, sign: false }, &mut out)?;
    let jeq_at = out.len();
    enc(&Inst::JumpCond { cond: Cond::Eq, offset: 0x100 }, &mut out)?;
    let jeq_len = out.len() - jeq_at;
    let jlt_at = out.len();
    enc(&Inst::JumpCond { cond: Cond::ULt, offset: 0x100 }, &mut out)?;
    let jlt_len = out.len() - jlt_at;
    // k > key: hi = mid.
    enc(&Inst::Load { dst: hi, addr: Addr::base_disp(sp, spill_mid), width: Width::W8, sign: false }, &mut out)?;
    let jback1_at = out.len();
    enc(&Inst::Jump { offset: loop_head as i64 - jback1_at as i64 }, &mut out)?;
    // k < key: lo = mid + 1.
    let lt_target = out.len();
    enc(&Inst::Load { dst: lo, addr: Addr::base_disp(sp, spill_mid), width: Width::W8, sign: false }, &mut out)?;
    enc(&Inst::AluImm { op: AluOp::Add, dst: lo, src: lo, imm: 1 }, &mut out)?;
    let jback2_at = out.len();
    enc(&Inst::Jump { offset: loop_head as i64 - jback2_at as i64 }, &mut out)?;
    // hit: T_ARG = tab[16 + mid*16]; restore r12/r13.
    let hit_target = out.len();
    enc(&Inst::Load { dst: T_ARG, addr: Addr::base_disp(sp, spill_mid), width: Width::W8, sign: false }, &mut out)?;
    enc(&Inst::AluImm { op: AluOp::Shl, dst: T_ARG, src: T_ARG, imm: 4 }, &mut out)?;
    enc(&Inst::Alu { op: AluOp::Add, dst: T_ARG, a: T_ARG, b: T_TMP }, &mut out)?;
    enc(&Inst::Load { dst: T_ARG, addr: Addr::base_disp(T_ARG, 16), width: Width::W8, sign: false }, &mut out)?;
    enc(&Inst::Load { dst: lo, addr: Addr::base_disp(sp, save_lo), width: Width::W8, sign: false }, &mut out)?;
    enc(&Inst::Load { dst: hi, addr: Addr::base_disp(sp, save_hi), width: Width::W8, sign: false }, &mut out)?;
    enc(&Inst::Ret, &mut out)?;
    // miss: T_ARG = original key; restore r12/r13.
    let miss_target = out.len();
    enc(&Inst::Load { dst: T_ARG, addr: Addr::base_disp(sp, spill_key), width: Width::W8, sign: false }, &mut out)?;
    enc(&Inst::Load { dst: lo, addr: Addr::base_disp(sp, save_lo), width: Width::W8, sign: false }, &mut out)?;
    enc(&Inst::Load { dst: hi, addr: Addr::base_disp(sp, save_hi), width: Width::W8, sign: false }, &mut out)?;
    enc(&Inst::Ret, &mut out)?;

    // Patch the three forward branches.
    patch_branch(arch, &mut out, jmiss_at, jmiss_len, miss_target)?;
    patch_branch(arch, &mut out, jeq_at, jeq_len, hit_target)?;
    patch_branch(arch, &mut out, jlt_at, jlt_len, lt_target)?;
    Ok(out)
}

fn patch_branch(
    arch: Arch,
    out: &mut [u8],
    at: usize,
    len: usize,
    target: usize,
) -> Result<(), String> {
    let (inst, _) = icfgp_isa::decode(&out[at..], arch).map_err(|e| e.to_string())?;
    let cond = match inst {
        Inst::JumpCond { cond, .. } => cond,
        _ => return Err("expected a conditional branch".into()),
    };
    let fixed = Inst::JumpCond { cond, offset: target as i64 - at as i64 };
    let mut bytes = encode(&fixed, arch).map_err(|e| e.to_string())?;
    if bytes.len() > len {
        return Err(format!("branch form grew: {} vs {len}", bytes.len()));
    }
    // A shrunken form is nop-padded (the fall-through path executes
    // the nops, which is harmless).
    let nop = encode(&Inst::Nop, arch).expect("nop");
    while bytes.len() < len {
        bytes.extend_from_slice(&nop);
    }
    out[at..at + len].copy_from_slice(&bytes);
    Ok(())
}

fn materialize_abs(
    arch: Arch,
    reg: Reg,
    value: u64,
    at: u64,
    out: &mut Vec<u8>,
) -> Result<(), String> {
    let enc = |i: &Inst, out: &mut Vec<u8>| -> Result<(), String> {
        out.extend_from_slice(&encode(i, arch).map_err(|e| e.to_string())?);
        Ok(())
    };
    match arch {
        Arch::X64 => enc(&Inst::Lea { dst: reg, addr: Addr::pc_rel(value as i64 - at as i64) }, out),
        Arch::Aarch64 => {
            let page_delta = ((value as i64 + 0x800) >> 12) - (at as i64 >> 12);
            let low = value as i64 - (((at as i64 >> 12) + page_delta) << 12);
            enc(&Inst::AdrPage { dst: reg, page_delta }, out)?;
            enc(&Inst::AluImm { op: AluOp::Add, dst: reg, src: reg, imm: low as i32 }, out)
        }
        Arch::Ppc64le => Err("multiverse does not support ppc64le".into()),
    }
}

/// A branch padded with nops to overwrite exactly `span` bytes.
fn branch_padded(arch: Arch, from: u64, to: u64, span: usize) -> Result<Vec<u8>, String> {
    let mut bytes = branch_exact(arch, from, to)?;
    if bytes.len() > span {
        return Err(format!("site too small: {} > {span}", bytes.len()));
    }
    let nop = encode(&Inst::Nop, arch).expect("nop");
    while bytes.len() < span {
        bytes.extend_from_slice(&nop);
    }
    bytes.truncate(span);
    Ok(bytes)
}

fn branch_exact(arch: Arch, from: u64, to: u64) -> Result<Vec<u8>, String> {
    let offset = to as i64 - from as i64;
    let mut bytes = encode(&Inst::Jump { offset }, arch).map_err(|e| e.to_string())?;
    if arch == Arch::X64 && bytes.len() < 5 {
        let nop = encode(&Inst::Nop, arch).expect("nop");
        while bytes.len() < 5 {
            bytes.extend_from_slice(&nop);
        }
    }
    Ok(bytes)
}

fn align_up(v: u64, a: u64) -> u64 {
    v + (a - (v % a)) % a
}

#[cfg(test)]
mod tests {
    use super::*;
    use icfgp_core::Points;
    use icfgp_emu::{run, LoadOptions, Outcome};
    use icfgp_workloads::{generate, GenParams};

    #[test]
    fn multiverse_translates_indirect_transfers() {
        for arch in [Arch::X64, Arch::Aarch64] {
            let w = generate(&GenParams::small("mv", arch, 31));
            let base = match run(&w.binary, &LoadOptions::default()) {
                Outcome::Halted(s) => s,
                o => panic!("{o:?}"),
            };
            let out = multiverse(&w.binary, &Instrumentation::empty(Points::EveryBlock))
                .expect("multiverse rewrites");
            assert!(out.translated_sites > 0, "{arch}: indirect sites routed");
            assert!(out.table_entries > 10, "{arch}");
            let opts = LoadOptions { preload_runtime: true, ..LoadOptions::default() };
            match run(&out.binary, &opts) {
                Outcome::Halted(s) => {
                    assert_eq!(s.output, base.output, "{arch}");
                    assert!(
                        s.cycles > base.cycles,
                        "{arch}: dynamic translation costs cycles"
                    );
                }
                o => panic!("{arch}: {o:?}"),
            }
        }
    }

    #[test]
    fn multiverse_refuses_ppc() {
        let w = generate(&GenParams::small("mv", Arch::Ppc64le, 31));
        // ppc indirect transfers go through `tar`; we mirror real
        // Multiverse's x86-only scope by leaving them untranslated —
        // the binary must still run (trampolines catch the targets).
        let out = multiverse(&w.binary, &Instrumentation::empty(Points::EveryBlock)).unwrap();
        assert_eq!(out.translated_sites, 0);
        let opts = LoadOptions { preload_runtime: true, ..LoadOptions::default() };
        assert!(run(&out.binary, &opts).is_success());
    }
}
