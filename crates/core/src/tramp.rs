//! Trampoline instruction sequences (§7, Table 2).
//!
//! Every sequence is position independent: x64 and aarch64 forms are
//! PC-relative, and the ppc64le long form computes the target relative
//! to the TOC register `r2`, which the loader materialises — so all
//! forms work in shared libraries and PIEs.
//!
//! The long forms are built from two pieces that relocation shares:
//! `materialize` loads an address into a register (the paper's
//! `addis/addi` off the TOC, `adrp/add`, or x64 `lea`/`mov`), and
//! `far_branch` jumps or calls through it. Trampolines, relocated far
//! branches back into original code, far emulated calls, jump-table
//! bases, function-pointer immediates and counter payloads all emit
//! through them, into the caller's buffer.

use icfgp_isa::{encode, encode_into, Addr, AluOp, Arch, BranchSpec, EncodeError, Inst, Reg, Width};

/// Encode the short trampoline: a single direct branch.
///
/// Returns `None` when the displacement exceeds the short form's reach
/// (±128 B on x64, ±32 MB on ppc64le, ±128 MB on aarch64).
#[must_use]
pub fn short_branch(arch: Arch, from: u64, to: u64) -> Option<Vec<u8>> {
    let offset = to as i64 - from as i64;
    if offset.abs() > arch.short_branch_reach() {
        return None;
    }
    let bytes = encode(&Inst::Jump { offset }, arch).ok()?;
    // On x64 the encoder picks the 2-byte form for in-range offsets;
    // out-of-range short offsets were rejected above.
    (bytes.len() <= arch.short_branch_len()).then_some(bytes)
}

/// Encode the x64 near branch (the 5-byte ±2 GB form).
///
/// # Errors
///
/// Fails only for offsets beyond ±2 GB.
pub fn near_branch_x64(from: u64, to: u64) -> Result<Vec<u8>, EncodeError> {
    let mut out = Vec::with_capacity(Arch::X64.long_branch_len());
    far_branch(&mut out, Arch::X64, from, to, None, None, false)?;
    Ok(out)
}

/// The long trampoline sequence for `arch`: `far_branch` as a jump.
///
/// * x64 — the 5-byte near branch (no scratch register needed);
/// * ppc64le — `addis scratch, r2, hi; addi scratch, scratch, lo;
///   mtspr tar, scratch; bctar` (±2 GB around the TOC). When no dead
///   register is available pass `scratch: None` to get the
///   save/restore variant (6 instructions, spills `r12` below the
///   stack pointer);
/// * aarch64 — `adrp scratch, hi; add scratch, scratch, lo; br
///   scratch` (±4 GB). Requires a scratch register: returns `None`
///   without one (the paper falls back to a trap here).
///
/// `toc` is the run-time value of `r2` (required on ppc64le). Returns
/// `None` when `to` is out of the long form's reach.
#[must_use]
pub fn long_branch(
    arch: Arch,
    from: u64,
    to: u64,
    toc: Option<u64>,
    scratch: Option<Reg>,
) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(long_branch_len(arch, scratch.is_none()));
    far_branch(&mut out, arch, from, to, toc, scratch, false).ok()?;
    Some(out)
}

/// Length in bytes of the long form (with/without the ppc64le
/// save/restore variant's spill and reload).
#[must_use]
pub fn long_branch_len(arch: Arch, save_restore: bool) -> usize {
    let spill = if save_restore && arch == Arch::Ppc64le { 8 } else { 0 };
    arch.long_branch_len() + spill
}

/// Append the sequence that loads `value` into `reg` when placed at
/// `at`:
///
/// * x64 — `lea reg, [pc + disp]` in a PIE, `mov reg, imm` otherwise;
/// * ppc64le — `addis reg, r2, hi; addi reg, reg, lo`, reaching ±2 GB
///   around `toc` (the run-time value of `r2`);
/// * aarch64 — `adrp reg, page; add reg, reg, low`, reaching ±4 GB
///   around `at`.
///
/// # Errors
///
/// Fails, appending nothing, when `value` is out of reach, the operands
/// do not encode, or ppc64le has no TOC.
pub(crate) fn materialize(
    out: &mut Vec<u8>,
    arch: Arch,
    at: u64,
    value: u64,
    reg: Reg,
    pie: bool,
    toc: Option<u64>,
) -> Result<(), EncodeError> {
    match arch {
        Arch::X64 => {
            let inst = if pie {
                Inst::Lea { dst: reg, addr: Addr::pc_rel(value as i64 - at as i64) }
            } else {
                Inst::MovImm { dst: reg, imm: value as i64 }
            };
            encode_into(&inst, arch, out)?;
        }
        Arch::Ppc64le => {
            let toc = toc.ok_or(EncodeError::BadAddressingMode { arch, what: "no TOC for r2" })?;
            let delta = value as i64 - toc as i64;
            let reach = arch.long_branch_reach();
            let out_of_reach = EncodeError::BranchOutOfRange { arch, offset: delta, max: reach };
            if delta.abs() > reach {
                return Err(out_of_reach);
            }
            // `addi` adds a signed lo, so hi rounds up at lo's sign bit
            // and overflows i16 just below +2 GB.
            let hi = i16::try_from((delta + 0x8000) >> 16).map_err(|_| out_of_reach)?;
            let lo = (delta - (i64::from(hi) << 16)) as i16;
            encode_into(&Inst::AddShl16 { dst: reg, src: Reg(2), imm: hi }, arch, out)?;
            encode_into(&Inst::AddImm16 { dst: reg, src: reg, imm: lo }, arch, out)?;
        }
        Arch::Aarch64 => {
            // `adrp`'s 21-bit page delta is the reach. `add` takes a
            // signed 12-bit low part, so the page rounds to nearest.
            let page = value.wrapping_add(0x800) & !0xFFF;
            encode_into(&adrp(reg, at, page), arch, out)?;
            let low = value.wrapping_sub(page) as i64 as i32;
            encode_into(&Inst::AluImm { op: AluOp::Add, dst: reg, src: reg, imm: low }, arch, out)?;
        }
    }
    Ok(())
}

/// The aarch64 `adrp` placed at `at` that loads the 4 KiB page holding
/// `value` into `dst`.
pub(crate) fn adrp(dst: Reg, at: u64, value: u64) -> Inst {
    Inst::AdrPage { dst, page_delta: (value as i64 >> 12) - (at as i64 >> 12) }
}

/// Append the far branch placed at `at` to `to` — a call when `call`
/// is set, else a jump:
///
/// * x64 — the 5-byte near `jmp`/`call` (a short `jmp` is padded with
///   nops, so the length does not depend on the distance);
/// * ppc64le — [`materialize`] into `scratch`, `mtspr tar`, then
///   `bctar`/`bctarl`. With `scratch: None`, `r12` is spilled below the
///   stack pointer and reloaded before the transfer;
/// * aarch64 — [`materialize`] into `scratch`, then `br`/`blr`; there
///   is no variant without a scratch register.
///
/// The length is [`long_branch_len`].
///
/// # Errors
///
/// Fails when `to` is out of reach or the form needs what is missing
/// (a TOC on ppc64le, a scratch register on aarch64); `out` may then
/// hold part of the sequence.
pub(crate) fn far_branch(
    out: &mut Vec<u8>,
    arch: Arch,
    at: u64,
    to: u64,
    toc: Option<u64>,
    scratch: Option<Reg>,
    call: bool,
) -> Result<(), EncodeError> {
    let start = out.len();
    if arch == Arch::X64 {
        let offset = to as i64 - at as i64;
        let inst = if call { Inst::Call { offset } } else { Inst::Jump { offset } };
        if encode_into(&inst, arch, out)? < arch.long_branch_len() {
            out.resize(start + arch.long_branch_len(), encode(&Inst::Nop, arch)?[0]);
        }
        return Ok(());
    }
    let reg = match (scratch, arch) {
        (Some(r), _) => r,
        (None, Arch::Ppc64le) => Reg(12),
        (None, _) => {
            return Err(EncodeError::UnsupportedOnArch { arch, what: "far branch without scratch" })
        }
    };
    let slot = Addr::base_disp(arch.sp(), -8);
    if scratch.is_none() {
        encode_into(&Inst::Store { src: reg, addr: slot, width: Width::W8 }, arch, out)?;
    }
    let here = at + (out.len() - start) as u64;
    materialize(out, arch, here, to, reg, false, toc)?;
    let transfer = if arch == Arch::Ppc64le {
        encode_into(&Inst::MoveToTar { src: reg }, arch, out)?;
        if scratch.is_none() {
            let reload = Inst::Load { dst: reg, addr: slot, width: Width::W8, sign: false };
            encode_into(&reload, arch, out)?;
        }
        if call { Inst::CallTar } else { Inst::JumpTar }
    } else if call {
        Inst::CallReg { src: reg }
    } else {
        Inst::JumpReg { src: reg }
    };
    encode_into(&transfer, arch, out)?;
    Ok(())
}

/// The trap trampoline: a single trap instruction; the runtime
/// library's signal handler finishes the transfer through `.trap_map`.
#[must_use]
pub fn trap_trampoline(arch: Arch) -> Vec<u8> {
    encode(&Inst::Trap, arch).expect("trap encodes")
}

/// Regenerate the paper's Table 2: the trampoline forms per
/// architecture.
#[must_use]
pub fn trampoline_table() -> Vec<(Arch, Vec<BranchSpec>)> {
    Arch::ALL.iter().map(|a| (*a, a.branch_specs())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use icfgp_isa::decode;

    #[test]
    fn short_branch_reach_limits() {
        assert!(short_branch(Arch::X64, 0x1000, 0x1040).is_some());
        assert!(short_branch(Arch::X64, 0x1000, 0x2000).is_none());
        assert!(short_branch(Arch::Ppc64le, 0x1000, 0x1000 + (16 << 20)).is_some());
        assert!(short_branch(Arch::Ppc64le, 0x1000, 0x1000 + (64 << 20)).is_none());
        assert!(short_branch(Arch::Aarch64, 0x1000, 0x1000 + (64 << 20)).is_some());
    }

    #[test]
    fn near_branch_is_five_bytes_even_when_close() {
        let b = near_branch_x64(0x1000, 0x1002).unwrap();
        assert_eq!(b.len(), 5);
        let (inst, _) = decode(&b, Arch::X64).unwrap();
        assert_eq!(inst, Inst::Jump { offset: 2 });
    }

    #[test]
    fn ppc_long_form_lengths_match_table2() {
        let toc = Some(0x40_8000u64);
        let with_scratch =
            long_branch(Arch::Ppc64le, 0x1000, 0x4000_0000, toc, Some(Reg(9))).unwrap();
        assert_eq!(with_scratch.len(), Arch::Ppc64le.long_branch_len(), "4 instructions");
        let without =
            long_branch(Arch::Ppc64le, 0x1000, 0x4000_0000, toc, None).unwrap();
        assert_eq!(without.len(), long_branch_len(Arch::Ppc64le, true), "6 instructions");
    }

    #[test]
    fn aarch_long_form_needs_scratch() {
        assert!(long_branch(Arch::Aarch64, 0x1000, 0x4000_0000, None, None).is_none());
        let b = long_branch(Arch::Aarch64, 0x1000, 0x4000_0000, None, Some(Reg(17))).unwrap();
        assert_eq!(b.len(), Arch::Aarch64.long_branch_len(), "3 instructions");
    }

    #[test]
    fn long_branch_decodes_to_expected_sequence() {
        let b = long_branch(Arch::Aarch64, 0x1000, 0x123_4560, None, Some(Reg(17))).unwrap();
        let (i0, _) = decode(&b[0..4], Arch::Aarch64).unwrap();
        let (i1, _) = decode(&b[4..8], Arch::Aarch64).unwrap();
        let (i2, _) = decode(&b[8..12], Arch::Aarch64).unwrap();
        assert!(matches!(i0, Inst::AdrPage { .. }));
        assert!(matches!(i1, Inst::AluImm { .. }));
        assert_eq!(i2, Inst::JumpReg { src: Reg(17) });
    }

    #[test]
    fn trap_fits_any_block() {
        assert_eq!(trap_trampoline(Arch::X64).len(), 1);
        assert_eq!(trap_trampoline(Arch::Ppc64le).len(), 4);
        assert_eq!(trap_trampoline(Arch::Aarch64).len(), 4);
    }

    #[test]
    fn table2_regenerates() {
        let t = trampoline_table();
        assert_eq!(t.len(), 3);
        assert_eq!(t[0].1[1].len_bytes, 5); // x64 near
        assert_eq!(t[1].1[1].insns, 4); // ppc long
        assert_eq!(t[2].1[1].insns, 3); // aarch long
    }
}
