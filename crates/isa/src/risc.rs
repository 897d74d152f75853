//! Byte encoding for the RISC models (ppc64le-like and aarch64-like):
//! fixed 4-byte little-endian words with bit-packed fields.
//!
//! The immediate-field widths are chosen so that the branch reaches of
//! the paper's Table 2 fall out mechanically:
//!
//! * direct branch/call: offset>>2 in a signed **24-bit** field on
//!   ppc64le (±32 MB) and a signed **26-bit** field on aarch64
//!   (±128 MB);
//! * `adrp` (aarch64 only): a signed **21-bit** page delta (±4 GB);
//! * `addis` (ppc64le only): a 16-bit high immediate (±2 GB around the
//!   base register, normally the TOC pointer `r2`);
//! * conditional branches: offset>>2 in a signed 19-bit field (±1 MB).
//!
//! Instructions that exist on only one of the two RISC machines
//! (`adrp`, `addis`, `mtspr tar`/`bctar`, `br reg`/`blr reg`) are
//! rejected by the encoder for the other machine, mirroring the real
//! ISA differences the paper's trampoline designs navigate.

use crate::{Addr, AluOp, Arch, Cond, DecodeError, EncodeError, Inst, Reg, SysOp, Width};

// Top-6-bit opcodes (word bits 31:26) for wide-immediate formats.
const T6_JUMP: u32 = 0x30;
const T6_CALL: u32 = 0x31;
const T6_ADRP: u32 = 0x32;
const T6_ADDIS: u32 = 0x33;
const T6_ADDI: u32 = 0x34;

// Top-8-bit opcodes (word bits 31:24). Must stay below 0xC0 so they
// never alias the top-6 space.
const OP_HALT: u32 = 0x00;
const OP_NOP: u32 = 0x01;
const OP_TRAP: u32 = 0x02;
const OP_RET: u32 = 0x03;
const OP_MOVIMM16: u32 = 0x10;
const OP_MOVREG: u32 = 0x11;
const OP_ALU_BASE: u32 = 0x12; // ..=0x19
const OP_ALUIMM_BASE: u32 = 0x20; // ..=0x27
const OP_ORSHL16: u32 = 0x28;
const OP_CMP: u32 = 0x2A;
const OP_CMPIMM16: u32 = 0x2B;
const OP_LOAD_DISP: u32 = 0x40;
const OP_LOAD_IDX: u32 = 0x41;
const OP_STORE_DISP: u32 = 0x42;
const OP_STORE_IDX: u32 = 0x43;
const OP_JUMPCOND: u32 = 0x50;
const OP_JUMPREG: u32 = 0x51;
const OP_CALLREG: u32 = 0x52;
const OP_MOVETOTAR: u32 = 0x53;
const OP_JUMPTAR: u32 = 0x54;
const OP_CALLTAR: u32 = 0x55;
const OP_MFLR: u32 = 0x56;
const OP_MTLR: u32 = 0x57;
const OP_SYS: u32 = 0x60;

fn check_reg(arch: Arch, r: Reg) -> Result<u32, EncodeError> {
    if r.0 < 32 {
        Ok(u32::from(r.0))
    } else {
        Err(EncodeError::BadRegister { arch, reg: r })
    }
}

/// Sign-extend the low `bits` bits of `v`.
fn sext(v: u32, bits: u32) -> i64 {
    let shift = 64 - bits;
    ((i64::from(v)) << shift) >> shift
}

fn fits_signed(v: i64, bits: u32) -> bool {
    let min = -(1i64 << (bits - 1));
    let max = (1i64 << (bits - 1)) - 1;
    (min..=max).contains(&v)
}

fn branch_field_bits(arch: Arch) -> u32 {
    match arch {
        Arch::Ppc64le => 24,
        Arch::Aarch64 => 26,
        Arch::X64 => unreachable!("x64 is not a RISC model"),
    }
}

fn encode_branch_offset(arch: Arch, offset: i64) -> Result<u32, EncodeError> {
    if offset % 4 != 0 {
        return Err(EncodeError::Misaligned { arch, offset });
    }
    let bits = branch_field_bits(arch);
    let word_off = offset / 4;
    if !fits_signed(word_off, bits) {
        return Err(EncodeError::BranchOutOfRange {
            arch,
            offset,
            max: ((1i64 << (bits - 1)) - 1) * 4,
        });
    }
    Ok((word_off as u32) & ((1 << bits) - 1))
}

fn unsupported(arch: Arch, what: &'static str) -> EncodeError {
    EncodeError::UnsupportedOnArch { arch, what }
}

/// Encode a base+disp memory operand's width/sign/disp fields.
fn mem_disp_fields(
    arch: Arch,
    addr: &Addr,
    width: Width,
    sign: bool,
) -> Result<(u32, u32, u32), EncodeError> {
    if addr.pc_rel {
        return Err(EncodeError::BadAddressingMode { arch, what: "pc-relative data access" });
    }
    let base = addr
        .base
        .ok_or(EncodeError::BadAddressingMode { arch, what: "memory access without base" })?;
    let base = check_reg(arch, base)?;
    if !fits_signed(addr.disp, 11) {
        return Err(EncodeError::DispOutOfRange { arch, disp: addr.disp, bits: 11 });
    }
    let disp = (addr.disp as u32) & 0x7FF;
    let ws = (u32::from(width.log2()) << 12) | (u32::from(sign) << 11);
    Ok((base, ws, disp))
}

/// Encode one instruction for a RISC model, appending its word to
/// `out`.
pub(crate) fn encode(inst: &Inst, arch: Arch, out: &mut Vec<u8>) -> Result<(), EncodeError> {
    debug_assert!(arch.is_fixed_width());
    out.extend_from_slice(&encode_word(inst, arch)?.to_le_bytes());
    Ok(())
}

fn encode_word(inst: &Inst, arch: Arch) -> Result<u32, EncodeError> {
    let op8 = |op: u32, fields: u32| (op << 24) | (fields & 0x00FF_FFFF);
    Ok(match inst {
        Inst::Halt => op8(OP_HALT, 0),
        Inst::Nop => op8(OP_NOP, 0),
        Inst::Trap => op8(OP_TRAP, 0),
        Inst::Ret => op8(OP_RET, 0),
        Inst::MovImm { dst, imm } => {
            let d = check_reg(arch, *dst)?;
            if !fits_signed(*imm, 16) {
                return Err(EncodeError::ImmOutOfRange { arch, imm: *imm, bits: 16 });
            }
            op8(OP_MOVIMM16, (d << 19) | ((*imm as u32) & 0xFFFF))
        }
        Inst::MovReg { dst, src } => {
            let d = check_reg(arch, *dst)?;
            let s = check_reg(arch, *src)?;
            op8(OP_MOVREG, (d << 19) | (s << 14))
        }
        Inst::Alu { op, dst, a, b } => {
            let d = check_reg(arch, *dst)?;
            let ra = check_reg(arch, *a)?;
            let rb = check_reg(arch, *b)?;
            op8(OP_ALU_BASE + u32::from(op.code()), (d << 19) | (ra << 14) | (rb << 9))
        }
        Inst::AluImm { op, dst, src, imm } => {
            let d = check_reg(arch, *dst)?;
            let s = check_reg(arch, *src)?;
            if !fits_signed(i64::from(*imm), 12) {
                return Err(EncodeError::ImmOutOfRange { arch, imm: i64::from(*imm), bits: 12 });
            }
            op8(
                OP_ALUIMM_BASE + u32::from(op.code()),
                (d << 19) | (s << 14) | ((*imm as u32) & 0xFFF),
            )
        }
        Inst::OrShl16 { dst, imm } => {
            let d = check_reg(arch, *dst)?;
            op8(OP_ORSHL16, (d << 19) | u32::from(*imm))
        }
        Inst::AddShl16 { dst, src, imm } => {
            if arch != Arch::Ppc64le {
                return Err(unsupported(arch, "addis"));
            }
            let d = check_reg(arch, *dst)?;
            let s = check_reg(arch, *src)?;
            (T6_ADDIS << 26) | (d << 21) | (s << 16) | (u32::from(*imm as u16))
        }
        Inst::AddImm16 { dst, src, imm } => {
            if arch != Arch::Ppc64le {
                return Err(unsupported(arch, "addi (16-bit)"));
            }
            let d = check_reg(arch, *dst)?;
            let s = check_reg(arch, *src)?;
            (T6_ADDI << 26) | (d << 21) | (s << 16) | (u32::from(*imm as u16))
        }
        Inst::AdrPage { dst, page_delta } => {
            if arch != Arch::Aarch64 {
                return Err(unsupported(arch, "adrp"));
            }
            let d = check_reg(arch, *dst)?;
            if !fits_signed(*page_delta, 21) {
                return Err(EncodeError::ImmOutOfRange { arch, imm: *page_delta, bits: 21 });
            }
            (T6_ADRP << 26) | (d << 21) | ((*page_delta as u32) & 0x1F_FFFF)
        }
        Inst::Cmp { a, b } => {
            let ra = check_reg(arch, *a)?;
            let rb = check_reg(arch, *b)?;
            op8(OP_CMP, (ra << 19) | (rb << 14))
        }
        Inst::CmpImm { a, imm } => {
            let ra = check_reg(arch, *a)?;
            if !fits_signed(i64::from(*imm), 16) {
                return Err(EncodeError::ImmOutOfRange { arch, imm: i64::from(*imm), bits: 16 });
            }
            op8(OP_CMPIMM16, (ra << 19) | ((*imm as u32) & 0xFFFF))
        }
        Inst::Load { dst, addr, width, sign } => {
            let d = check_reg(arch, *dst)?;
            if let Some(index) = addr.index {
                if addr.disp != 0 {
                    return Err(EncodeError::BadAddressingMode {
                        arch,
                        what: "indexed access with displacement",
                    });
                }
                let base = addr.base.ok_or(EncodeError::BadAddressingMode {
                    arch,
                    what: "indexed access without base",
                })?;
                let b = check_reg(arch, base)?;
                let i = check_reg(arch, index)?;
                if !matches!(addr.scale, 1 | 2 | 4 | 8) {
                    return Err(EncodeError::BadAddressingMode { arch, what: "scale" });
                }
                let scale_log2 = addr.scale.trailing_zeros();
                op8(
                    OP_LOAD_IDX,
                    (d << 19)
                        | (b << 14)
                        | (i << 9)
                        | (u32::from(width.log2()) << 7)
                        | (u32::from(*sign) << 6)
                        | (scale_log2 << 4),
                )
            } else {
                let (b, ws, disp) = mem_disp_fields(arch, addr, *width, *sign)?;
                op8(OP_LOAD_DISP, (d << 19) | (b << 14) | ws | disp)
            }
        }
        Inst::Store { src, addr, width } => {
            let s = check_reg(arch, *src)?;
            if let Some(index) = addr.index {
                if addr.disp != 0 {
                    return Err(EncodeError::BadAddressingMode {
                        arch,
                        what: "indexed access with displacement",
                    });
                }
                let base = addr.base.ok_or(EncodeError::BadAddressingMode {
                    arch,
                    what: "indexed access without base",
                })?;
                let b = check_reg(arch, base)?;
                let i = check_reg(arch, index)?;
                if !matches!(addr.scale, 1 | 2 | 4 | 8) {
                    return Err(EncodeError::BadAddressingMode { arch, what: "scale" });
                }
                let scale_log2 = addr.scale.trailing_zeros();
                op8(
                    OP_STORE_IDX,
                    (s << 19)
                        | (b << 14)
                        | (i << 9)
                        | (u32::from(width.log2()) << 7)
                        | (scale_log2 << 4),
                )
            } else {
                let (b, ws, disp) = mem_disp_fields(arch, addr, *width, false)?;
                op8(OP_STORE_DISP, (s << 19) | (b << 14) | ws | disp)
            }
        }
        Inst::Lea { .. } => return Err(unsupported(arch, "lea")),
        Inst::Push { .. } => return Err(unsupported(arch, "push")),
        Inst::Pop { .. } => return Err(unsupported(arch, "pop")),
        Inst::Jump { offset } => (T6_JUMP << 26) | encode_branch_offset(arch, *offset)?,
        Inst::Call { offset } => (T6_CALL << 26) | encode_branch_offset(arch, *offset)?,
        Inst::JumpCond { cond, offset } => {
            if offset % 4 != 0 {
                return Err(EncodeError::Misaligned { arch, offset: *offset });
            }
            let word_off = offset / 4;
            if !fits_signed(word_off, 19) {
                return Err(EncodeError::BranchOutOfRange {
                    arch,
                    offset: *offset,
                    max: ((1i64 << 18) - 1) * 4,
                });
            }
            op8(
                OP_JUMPCOND,
                (u32::from(cond.code()) << 20) | ((word_off as u32) & 0x7_FFFF),
            )
        }
        Inst::JumpReg { src } => {
            if arch != Arch::Aarch64 {
                return Err(unsupported(arch, "br reg"));
            }
            op8(OP_JUMPREG, check_reg(arch, *src)? << 19)
        }
        Inst::CallReg { src } => {
            if arch != Arch::Aarch64 {
                return Err(unsupported(arch, "blr reg"));
            }
            op8(OP_CALLREG, check_reg(arch, *src)? << 19)
        }
        Inst::JumpMem { .. } => return Err(unsupported(arch, "jmp [mem]")),
        Inst::CallMem { .. } => return Err(unsupported(arch, "call [mem]")),
        Inst::MoveToTar { src } => {
            if arch != Arch::Ppc64le {
                return Err(unsupported(arch, "mtspr tar"));
            }
            op8(OP_MOVETOTAR, check_reg(arch, *src)? << 19)
        }
        Inst::JumpTar => {
            if arch != Arch::Ppc64le {
                return Err(unsupported(arch, "bctar"));
            }
            op8(OP_JUMPTAR, 0)
        }
        Inst::CallTar => {
            if arch != Arch::Ppc64le {
                return Err(unsupported(arch, "bctarl"));
            }
            op8(OP_CALLTAR, 0)
        }
        Inst::MoveFromLr { dst } => op8(OP_MFLR, check_reg(arch, *dst)? << 19),
        Inst::MoveToLr { src } => op8(OP_MTLR, check_reg(arch, *src)? << 19),
        Inst::Sys { op, arg } => {
            op8(OP_SYS, (u32::from(op.code()) << 16) | (check_reg(arch, *arg)? << 11))
        }
    })
}

/// Decode one instruction from the front of `bytes` on a RISC model.
pub(crate) fn decode(bytes: &[u8], arch: Arch) -> Result<(Inst, usize), DecodeError> {
    debug_assert!(arch.is_fixed_width());
    if bytes.len() < 4 {
        return Err(DecodeError::Truncated { arch, needed: 4, have: bytes.len() });
    }
    let word = u32::from_le_bytes(bytes[..4].try_into().unwrap());
    let inst = decode_word(word, arch)?;
    Ok((inst, 4))
}

fn decode_word(word: u32, arch: Arch) -> Result<Inst, DecodeError> {
    let top6 = word >> 26;
    let reg = |v: u32| Reg((v & 0x1F) as u8);
    match top6 {
        T6_JUMP | T6_CALL => {
            let bits = branch_field_bits(arch);
            let offset = sext(word & ((1 << bits) - 1), bits) * 4;
            return Ok(if top6 == T6_JUMP {
                Inst::Jump { offset }
            } else {
                Inst::Call { offset }
            });
        }
        T6_ADRP => {
            if arch != Arch::Aarch64 {
                return Err(DecodeError::IllegalOpcode { arch, opcode: (word >> 24) as u8 });
            }
            return Ok(Inst::AdrPage {
                dst: reg(word >> 21),
                page_delta: sext(word & 0x1F_FFFF, 21),
            });
        }
        T6_ADDIS | T6_ADDI => {
            if arch != Arch::Ppc64le {
                return Err(DecodeError::IllegalOpcode { arch, opcode: (word >> 24) as u8 });
            }
            let dst = reg(word >> 21);
            let src = reg(word >> 16);
            let imm = (word & 0xFFFF) as u16 as i16;
            return Ok(if top6 == T6_ADDIS {
                Inst::AddShl16 { dst, src, imm }
            } else {
                Inst::AddImm16 { dst, src, imm }
            });
        }
        _ => {}
    }
    let op = word >> 24;
    let f = word & 0x00FF_FFFF;
    let bad = |what: &'static str| DecodeError::BadOperand { arch, what };
    Ok(match op {
        OP_HALT => Inst::Halt,
        OP_NOP => Inst::Nop,
        OP_TRAP => Inst::Trap,
        OP_RET => Inst::Ret,
        OP_MOVIMM16 => Inst::MovImm { dst: reg(f >> 19), imm: sext(f & 0xFFFF, 16) },
        OP_MOVREG => Inst::MovReg { dst: reg(f >> 19), src: reg(f >> 14) },
        _ if (OP_ALU_BASE..OP_ALU_BASE + 8).contains(&op) => Inst::Alu {
            op: AluOp::from_code((op - OP_ALU_BASE) as u8).ok_or(bad("alu op"))?,
            dst: reg(f >> 19),
            a: reg(f >> 14),
            b: reg(f >> 9),
        },
        _ if (OP_ALUIMM_BASE..OP_ALUIMM_BASE + 8).contains(&op) => Inst::AluImm {
            op: AluOp::from_code((op - OP_ALUIMM_BASE) as u8).ok_or(bad("alu op"))?,
            dst: reg(f >> 19),
            src: reg(f >> 14),
            imm: sext(f & 0xFFF, 12) as i32,
        },
        OP_ORSHL16 => Inst::OrShl16 { dst: reg(f >> 19), imm: (f & 0xFFFF) as u16 },
        OP_CMP => Inst::Cmp { a: reg(f >> 19), b: reg(f >> 14) },
        OP_CMPIMM16 => Inst::CmpImm { a: reg(f >> 19), imm: sext(f & 0xFFFF, 16) as i32 },
        OP_LOAD_DISP => Inst::Load {
            dst: reg(f >> 19),
            addr: Addr::base_disp(reg(f >> 14), sext(f & 0x7FF, 11)),
            width: Width::from_log2(((f >> 12) & 3) as u8).ok_or(bad("width"))?,
            sign: f & (1 << 11) != 0,
        },
        OP_LOAD_IDX => Inst::Load {
            dst: reg(f >> 19),
            addr: Addr::base_index(reg(f >> 14), reg(f >> 9), 1 << ((f >> 4) & 3)),
            width: Width::from_log2(((f >> 7) & 3) as u8).ok_or(bad("width"))?,
            sign: f & (1 << 6) != 0,
        },
        OP_STORE_DISP => Inst::Store {
            src: reg(f >> 19),
            addr: Addr::base_disp(reg(f >> 14), sext(f & 0x7FF, 11)),
            width: Width::from_log2(((f >> 12) & 3) as u8).ok_or(bad("width"))?,
        },
        OP_STORE_IDX => Inst::Store {
            src: reg(f >> 19),
            addr: Addr::base_index(reg(f >> 14), reg(f >> 9), 1 << ((f >> 4) & 3)),
            width: Width::from_log2(((f >> 7) & 3) as u8).ok_or(bad("width"))?,
        },
        OP_JUMPCOND => Inst::JumpCond {
            cond: Cond::from_code(((f >> 20) & 0xF) as u8).ok_or(bad("cond"))?,
            offset: sext(f & 0x7_FFFF, 19) * 4,
        },
        OP_JUMPREG if arch == Arch::Aarch64 => Inst::JumpReg { src: reg(f >> 19) },
        OP_CALLREG if arch == Arch::Aarch64 => Inst::CallReg { src: reg(f >> 19) },
        OP_MOVETOTAR if arch == Arch::Ppc64le => Inst::MoveToTar { src: reg(f >> 19) },
        OP_JUMPTAR if arch == Arch::Ppc64le => Inst::JumpTar,
        OP_CALLTAR if arch == Arch::Ppc64le => Inst::CallTar,
        OP_MFLR => Inst::MoveFromLr { dst: reg(f >> 19) },
        OP_MTLR => Inst::MoveToLr { src: reg(f >> 19) },
        OP_SYS => Inst::Sys {
            op: SysOp::from_code(((f >> 16) & 0xFF) as u8).ok_or(bad("sys op"))?,
            arg: reg(f >> 11),
        },
        _ => return Err(DecodeError::IllegalOpcode { arch, opcode: op as u8 }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(inst: &Inst, arch: Arch) -> Result<Vec<u8>, EncodeError> {
        crate::encode(inst, arch)
    }

    fn roundtrip(inst: Inst, arch: Arch) {
        let bytes = encode(&inst, arch).expect("encode");
        assert_eq!(bytes.len(), 4);
        let (decoded, len) = decode(&bytes, arch).expect("decode");
        assert_eq!(decoded, inst, "on {arch}");
        assert_eq!(len, 4);
    }

    fn roundtrip_both(inst: Inst) {
        roundtrip(inst.clone(), Arch::Ppc64le);
        roundtrip(inst, Arch::Aarch64);
    }

    #[test]
    fn roundtrip_common() {
        roundtrip_both(Inst::Halt);
        roundtrip_both(Inst::Nop);
        roundtrip_both(Inst::Trap);
        roundtrip_both(Inst::Ret);
        roundtrip_both(Inst::MovImm { dst: Reg(31), imm: -32768 });
        roundtrip_both(Inst::MovReg { dst: Reg(7), src: Reg(30) });
        roundtrip_both(Inst::Alu { op: AluOp::Xor, dst: Reg(1), a: Reg(2), b: Reg(3) });
        roundtrip_both(Inst::AluImm { op: AluOp::Add, dst: Reg(1), src: Reg(1), imm: -2048 });
        roundtrip_both(Inst::OrShl16 { dst: Reg(9), imm: 0xBEEF });
        roundtrip_both(Inst::Cmp { a: Reg(4), b: Reg(5) });
        roundtrip_both(Inst::CmpImm { a: Reg(4), imm: 1000 });
        roundtrip_both(Inst::MoveFromLr { dst: Reg(0) });
        roundtrip_both(Inst::MoveToLr { src: Reg(0) });
        roundtrip_both(Inst::Sys { op: SysOp::Throw, arg: Reg(8) });
    }

    #[test]
    fn roundtrip_memory() {
        roundtrip_both(Inst::Load {
            dst: Reg(3),
            addr: Addr::base_disp(Reg(1), -1024),
            width: Width::W8,
            sign: false,
        });
        roundtrip_both(Inst::Load {
            dst: Reg(3),
            addr: Addr::base_index(Reg(10), Reg(11), 4),
            width: Width::W4,
            sign: true,
        });
        roundtrip_both(Inst::Store {
            src: Reg(3),
            addr: Addr::base_disp(Reg(1), 1023),
            width: Width::W1,
        });
        roundtrip_both(Inst::Store {
            src: Reg(3),
            addr: Addr::base_index(Reg(10), Reg(11), 8),
            width: Width::W8,
        });
    }

    #[test]
    fn roundtrip_branches() {
        roundtrip_both(Inst::Jump { offset: 4096 });
        roundtrip_both(Inst::Jump { offset: -4096 });
        roundtrip_both(Inst::Call { offset: (32 << 20) - 4 });
        roundtrip_both(Inst::JumpCond { cond: Cond::UGt, offset: -(1 << 20) });
        roundtrip(Inst::Jump { offset: 64 << 20 }, Arch::Aarch64); // beyond ppc reach
    }

    #[test]
    fn arch_specific_instructions() {
        roundtrip(Inst::AddShl16 { dst: Reg(12), src: Reg(2), imm: -0x7000 }, Arch::Ppc64le);
        roundtrip(Inst::AddImm16 { dst: Reg(12), src: Reg(12), imm: 0x7FFF }, Arch::Ppc64le);
        assert!(encode(&Inst::AddImm16 { dst: Reg(0), src: Reg(0), imm: 1 }, Arch::Aarch64)
            .is_err());
        roundtrip(Inst::MoveToTar { src: Reg(12) }, Arch::Ppc64le);
        roundtrip(Inst::JumpTar, Arch::Ppc64le);
        roundtrip(Inst::CallTar, Arch::Ppc64le);
        roundtrip(Inst::AdrPage { dst: Reg(16), page_delta: -(1 << 20) }, Arch::Aarch64);
        roundtrip(Inst::JumpReg { src: Reg(16) }, Arch::Aarch64);
        roundtrip(Inst::CallReg { src: Reg(16) }, Arch::Aarch64);

        assert!(encode(&Inst::AdrPage { dst: Reg(0), page_delta: 1 }, Arch::Ppc64le).is_err());
        assert!(encode(&Inst::AddShl16 { dst: Reg(0), src: Reg(2), imm: 1 }, Arch::Aarch64)
            .is_err());
        assert!(encode(&Inst::JumpReg { src: Reg(0) }, Arch::Ppc64le).is_err());
        assert!(encode(&Inst::JumpTar, Arch::Aarch64).is_err());
    }

    #[test]
    fn branch_reach_matches_table2() {
        // ppc64le: ±32 MB.
        let max_ppc = (32 << 20) - 4;
        assert!(encode(&Inst::Jump { offset: max_ppc }, Arch::Ppc64le).is_ok());
        assert!(encode(&Inst::Jump { offset: 32 << 20 }, Arch::Ppc64le).is_err());
        assert!(encode(&Inst::Jump { offset: -(32 << 20) }, Arch::Ppc64le).is_ok());
        // aarch64: ±128 MB.
        let max_a64 = (128 << 20) - 4;
        assert!(encode(&Inst::Jump { offset: max_a64 }, Arch::Aarch64).is_ok());
        assert!(encode(&Inst::Jump { offset: 128 << 20 }, Arch::Aarch64).is_err());
    }

    #[test]
    fn adrp_reach_is_4gb() {
        // ±2^20 pages of 4 KiB = ±4 GB around the current page.
        assert!(encode(&Inst::AdrPage { dst: Reg(0), page_delta: (1 << 20) - 1 }, Arch::Aarch64)
            .is_ok());
        assert!(encode(&Inst::AdrPage { dst: Reg(0), page_delta: 1 << 20 }, Arch::Aarch64)
            .is_err());
    }

    #[test]
    fn misaligned_branch_rejected() {
        assert!(matches!(
            encode(&Inst::Jump { offset: 6 }, Arch::Ppc64le),
            Err(EncodeError::Misaligned { .. })
        ));
    }

    #[test]
    fn poison_word_is_illegal() {
        // 0xFFFFFFFF: top6 = 0x3F (not special), top8 = 0xFF (undefined).
        assert!(matches!(
            decode(&[0xFF, 0xFF, 0xFF, 0xFF], Arch::Aarch64),
            Err(DecodeError::IllegalOpcode { .. })
        ));
    }

    #[test]
    fn x64_only_insts_rejected() {
        assert!(encode(&Inst::Push { src: Reg(0) }, Arch::Ppc64le).is_err());
        assert!(encode(&Inst::Lea { dst: Reg(0), addr: Addr::pc_rel(0) }, Arch::Aarch64).is_err());
        assert!(encode(&Inst::JumpMem { addr: Addr::base_only(Reg(1)) }, Arch::Aarch64).is_err());
    }

    #[test]
    fn large_imm_rejected_needs_expansion() {
        assert!(matches!(
            encode(&Inst::MovImm { dst: Reg(0), imm: 1 << 20 }, Arch::Aarch64),
            Err(EncodeError::ImmOutOfRange { .. })
        ));
    }
}
