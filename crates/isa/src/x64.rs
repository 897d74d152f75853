//! Byte encoding for the x64 model: variable-length, 1–10 bytes.
//!
//! The encoding is deliberately x86-64-shaped without being x86-64:
//! `push`/`pop` pack the register into the opcode (1 byte), short jumps
//! are 2 bytes with an 8-bit displacement, near jumps/calls are 5 bytes,
//! the trap is the 1-byte `0xCC`, and memory operands use a mode byte
//! followed by optional index and displacement bytes. `0xFF` is an
//! illegal opcode, which the rewriter uses as poison filler for
//! overwritten `.text` bytes.

use crate::{Addr, AluOp, Arch, Cond, DecodeError, EncodeError, Inst, Reg, SysOp, Width};

const A: Arch = Arch::X64;

// Opcode map. Gaps are illegal opcodes.
const OP_HALT: u8 = 0x00;
const OP_NOP: u8 = 0x01;
const OP_RET: u8 = 0x03;
const OP_MOVIMM64: u8 = 0x10;
const OP_MOVIMM32: u8 = 0x11;
const OP_MOVREG: u8 = 0x12;
const OP_ALU_BASE: u8 = 0x13; // ..=0x1A
const OP_ALUIMM32_BASE: u8 = 0x20; // ..=0x27
const OP_ALUIMM8_BASE: u8 = 0x28; // ..=0x2F
const OP_CMP: u8 = 0x30;
const OP_CMPIMM32: u8 = 0x31;
const OP_CMPIMM8: u8 = 0x32;
const OP_LOAD: u8 = 0x40;
const OP_STORE: u8 = 0x41;
const OP_LEA: u8 = 0x42;
const OP_JMPMEM: u8 = 0x43;
const OP_CALLMEM: u8 = 0x44;
const OP_PUSH_BASE: u8 = 0x50; // ..=0x5F, reg in low nibble
const OP_POP_BASE: u8 = 0x60; // ..=0x6F
const OP_JMP_SHORT: u8 = 0x70;
const OP_JMP_NEAR: u8 = 0x71;
const OP_CALL_NEAR: u8 = 0x72;
const OP_JMP_REG: u8 = 0x73;
const OP_CALL_REG: u8 = 0x74;
const OP_JCC_SHORT: u8 = 0x80;
const OP_JCC_NEAR: u8 = 0x81;
const OP_SYS: u8 = 0xA0;
const OP_TRAP: u8 = 0xCC;

fn check_reg(r: Reg) -> Result<(), EncodeError> {
    if r.0 < 16 {
        Ok(())
    } else {
        Err(EncodeError::BadRegister { arch: A, reg: r })
    }
}

fn reg_pair(a: Reg, b: Reg) -> u8 {
    (a.0 << 4) | b.0
}

fn unsupported(what: &'static str) -> EncodeError {
    EncodeError::UnsupportedOnArch { arch: A, what }
}

/// Encode a memory operand (mode byte + operand bytes) after `opcode`.
fn encode_mem(out: &mut Vec<u8>, reg: Reg, addr: &Addr, width: Width, sign: bool)
    -> Result<(), EncodeError> {
    check_reg(reg)?;
    if addr.pc_rel {
        if addr.base.is_some() || addr.index.is_some() {
            return Err(EncodeError::BadAddressingMode {
                arch: A,
                what: "pc-relative with base or index",
            });
        }
        let disp = i32::try_from(addr.disp)
            .map_err(|_| EncodeError::DispOutOfRange { arch: A, disp: addr.disp, bits: 32 })?;
        let mode = width.log2() | (u8::from(sign) << 2) | (1 << 3) | (2 << 6);
        out.push(mode);
        out.push(reg.0 << 4);
        out.extend_from_slice(&disp.to_le_bytes());
        return Ok(());
    }
    if !matches!(addr.scale, 1 | 2 | 4 | 8) {
        return Err(EncodeError::BadAddressingMode { arch: A, what: "scale not 1/2/4/8" });
    }
    let disp_kind: u8 = if addr.disp == 0 {
        0
    } else if i8::try_from(addr.disp).is_ok() {
        1
    } else if i32::try_from(addr.disp).is_ok() {
        2
    } else {
        return Err(EncodeError::DispOutOfRange { arch: A, disp: addr.disp, bits: 32 });
    };
    let mut mode = width.log2() | (u8::from(sign) << 2) | (disp_kind << 6);
    if addr.base.is_some() {
        mode |= 1 << 4;
    }
    if addr.index.is_some() {
        mode |= 1 << 5;
    }
    out.push(mode);
    let base = addr.base.unwrap_or(Reg(0));
    if let Some(b) = addr.base {
        check_reg(b)?;
    }
    out.push(reg_pair(reg, base));
    if let Some(idx) = addr.index {
        check_reg(idx)?;
        out.push((idx.0 << 4) | addr.scale.trailing_zeros() as u8);
    }
    match disp_kind {
        1 => out.push(addr.disp as i8 as u8),
        2 => out.extend_from_slice(&(addr.disp as i32).to_le_bytes()),
        _ => {}
    }
    Ok(())
}

fn decode_mem(bytes: &[u8], needs_reg: bool)
    -> Result<(Reg, Addr, Width, bool, usize), DecodeError> {
    let trunc = |needed| DecodeError::Truncated { arch: A, needed, have: bytes.len() };
    if bytes.len() < 2 {
        return Err(trunc(2));
    }
    let mode = bytes[0];
    let width = Width::from_log2(mode & 3)
        .ok_or(DecodeError::BadOperand { arch: A, what: "width" })?;
    let sign = mode & (1 << 2) != 0;
    let pc_rel = mode & (1 << 3) != 0;
    let has_base = mode & (1 << 4) != 0;
    let has_index = mode & (1 << 5) != 0;
    let disp_kind = mode >> 6;
    let reg = Reg(bytes[1] >> 4);
    let base = Reg(bytes[1] & 0xF);
    let mut pos = 2usize;
    if pc_rel {
        if disp_kind != 2 || has_base || has_index {
            return Err(DecodeError::BadOperand { arch: A, what: "pc-relative mode bits" });
        }
        if bytes.len() < pos + 4 {
            return Err(trunc(pos + 4));
        }
        let disp = i32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        pos += 4;
        let _ = needs_reg;
        return Ok((reg, Addr::pc_rel(i64::from(disp)), width, sign, pos));
    }
    let mut addr = Addr {
        base: has_base.then_some(base),
        index: None,
        scale: 1,
        disp: 0,
        pc_rel: false,
    };
    if has_index {
        if bytes.len() < pos + 1 {
            return Err(trunc(pos + 1));
        }
        let ib = bytes[pos];
        pos += 1;
        let scale_log2 = ib & 0xF;
        if scale_log2 > 3 {
            return Err(DecodeError::BadOperand { arch: A, what: "scale" });
        }
        addr.index = Some(Reg(ib >> 4));
        addr.scale = 1 << scale_log2;
    }
    match disp_kind {
        0 => {}
        1 => {
            if bytes.len() < pos + 1 {
                return Err(trunc(pos + 1));
            }
            addr.disp = i64::from(bytes[pos] as i8);
            pos += 1;
        }
        2 => {
            if bytes.len() < pos + 4 {
                return Err(trunc(pos + 4));
            }
            addr.disp = i64::from(i32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()));
            pos += 4;
        }
        _ => return Err(DecodeError::BadOperand { arch: A, what: "disp kind" }),
    }
    Ok((reg, addr, width, sign, pos))
}

/// Encode one instruction for the x64 model, appending to `out`. May
/// leave a partial encoding behind on error ([`crate::encode_into`]
/// truncates it).
pub(crate) fn encode(inst: &Inst, out: &mut Vec<u8>) -> Result<(), EncodeError> {
    match inst {
        Inst::Halt => out.push(OP_HALT),
        Inst::Nop => out.push(OP_NOP),
        Inst::Trap => out.push(OP_TRAP),
        Inst::Ret => out.push(OP_RET),
        Inst::MovImm { dst, imm } => {
            check_reg(*dst)?;
            if let Ok(v) = i32::try_from(*imm) {
                out.push(OP_MOVIMM32);
                out.push(dst.0);
                out.extend_from_slice(&v.to_le_bytes());
            } else {
                out.push(OP_MOVIMM64);
                out.push(dst.0);
                out.extend_from_slice(&imm.to_le_bytes());
            }
        }
        Inst::MovReg { dst, src } => {
            check_reg(*dst)?;
            check_reg(*src)?;
            out.push(OP_MOVREG);
            out.push(reg_pair(*dst, *src));
        }
        Inst::Alu { op, dst, a, b } => {
            check_reg(*dst)?;
            check_reg(*a)?;
            check_reg(*b)?;
            out.push(OP_ALU_BASE + op.code());
            out.push(reg_pair(*dst, *a));
            out.push(b.0);
        }
        Inst::AluImm { op, dst, src, imm } => {
            check_reg(*dst)?;
            check_reg(*src)?;
            if let Ok(v) = i8::try_from(*imm) {
                out.push(OP_ALUIMM8_BASE + op.code());
                out.push(reg_pair(*dst, *src));
                out.push(v as u8);
            } else {
                out.push(OP_ALUIMM32_BASE + op.code());
                out.push(reg_pair(*dst, *src));
                out.extend_from_slice(&imm.to_le_bytes());
            }
        }
        Inst::OrShl16 { .. } => return Err(unsupported("orshl16")),
        Inst::AddShl16 { .. } => return Err(unsupported("addis")),
        Inst::AddImm16 { .. } => return Err(unsupported("addi (16-bit)")),
        Inst::AdrPage { .. } => return Err(unsupported("adrp")),
        Inst::Cmp { a, b } => {
            check_reg(*a)?;
            check_reg(*b)?;
            out.push(OP_CMP);
            out.push(reg_pair(*a, *b));
        }
        Inst::CmpImm { a, imm } => {
            check_reg(*a)?;
            if let Ok(v) = i8::try_from(*imm) {
                out.push(OP_CMPIMM8);
                out.push(a.0);
                out.push(v as u8);
            } else {
                out.push(OP_CMPIMM32);
                out.push(a.0);
                out.extend_from_slice(&imm.to_le_bytes());
            }
        }
        Inst::Load { dst, addr, width, sign } => {
            out.push(OP_LOAD);
            encode_mem(out, *dst, addr, *width, *sign)?;
        }
        Inst::Store { src, addr, width } => {
            out.push(OP_STORE);
            encode_mem(out, *src, addr, *width, false)?;
        }
        Inst::Lea { dst, addr } => {
            out.push(OP_LEA);
            encode_mem(out, *dst, addr, Width::W8, false)?;
        }
        Inst::JumpMem { addr } => {
            out.push(OP_JMPMEM);
            encode_mem(out, Reg(0), addr, Width::W8, false)?;
        }
        Inst::CallMem { addr } => {
            out.push(OP_CALLMEM);
            encode_mem(out, Reg(0), addr, Width::W8, false)?;
        }
        Inst::Push { src } => {
            check_reg(*src)?;
            out.push(OP_PUSH_BASE | src.0);
        }
        Inst::Pop { dst } => {
            check_reg(*dst)?;
            out.push(OP_POP_BASE | dst.0);
        }
        Inst::Jump { offset } => {
            if let Ok(v) = i8::try_from(*offset) {
                out.push(OP_JMP_SHORT);
                out.push(v as u8);
            } else if let Ok(v) = i32::try_from(*offset) {
                out.push(OP_JMP_NEAR);
                out.extend_from_slice(&v.to_le_bytes());
            } else {
                return Err(EncodeError::BranchOutOfRange {
                    arch: A,
                    offset: *offset,
                    max: i64::from(i32::MAX),
                });
            }
        }
        Inst::Call { offset } => {
            let v = i32::try_from(*offset).map_err(|_| EncodeError::BranchOutOfRange {
                arch: A,
                offset: *offset,
                max: i64::from(i32::MAX),
            })?;
            out.push(OP_CALL_NEAR);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Inst::JumpCond { cond, offset } => {
            if let Ok(v) = i8::try_from(*offset) {
                out.push(OP_JCC_SHORT);
                out.push(cond.code());
                out.push(v as u8);
            } else if let Ok(v) = i32::try_from(*offset) {
                out.push(OP_JCC_NEAR);
                out.push(cond.code());
                out.extend_from_slice(&v.to_le_bytes());
            } else {
                return Err(EncodeError::BranchOutOfRange {
                    arch: A,
                    offset: *offset,
                    max: i64::from(i32::MAX),
                });
            }
        }
        Inst::JumpReg { src } => {
            check_reg(*src)?;
            out.push(OP_JMP_REG);
            out.push(src.0);
        }
        Inst::CallReg { src } => {
            check_reg(*src)?;
            out.push(OP_CALL_REG);
            out.push(src.0);
        }
        Inst::MoveToTar { .. } => return Err(unsupported("mtspr tar")),
        Inst::JumpTar => return Err(unsupported("bctar")),
        Inst::CallTar => return Err(unsupported("bctarl")),
        Inst::MoveFromLr { .. } => return Err(unsupported("mflr")),
        Inst::MoveToLr { .. } => return Err(unsupported("mtlr")),
        Inst::Sys { op, arg } => {
            check_reg(*arg)?;
            out.push(OP_SYS);
            out.push(op.code());
            out.push(arg.0);
        }
    }
    Ok(())
}

/// Decode one instruction from the front of `bytes` on the x64 model.
pub(crate) fn decode(bytes: &[u8]) -> Result<(Inst, usize), DecodeError> {
    let trunc = |needed| DecodeError::Truncated { arch: A, needed, have: bytes.len() };
    let op = *bytes.first().ok_or(trunc(1))?;
    let need = |n: usize| if bytes.len() < n { Err(trunc(n)) } else { Ok(()) };
    let i32_at = |pos: usize| i32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
    match op {
        OP_HALT => Ok((Inst::Halt, 1)),
        OP_NOP => Ok((Inst::Nop, 1)),
        OP_TRAP => Ok((Inst::Trap, 1)),
        OP_RET => Ok((Inst::Ret, 1)),
        OP_MOVIMM64 => {
            need(10)?;
            let imm = i64::from_le_bytes(bytes[2..10].try_into().unwrap());
            Ok((Inst::MovImm { dst: Reg(bytes[1]), imm }, 10))
        }
        OP_MOVIMM32 => {
            need(6)?;
            Ok((Inst::MovImm { dst: Reg(bytes[1]), imm: i64::from(i32_at(2)) }, 6))
        }
        OP_MOVREG => {
            need(2)?;
            Ok((Inst::MovReg { dst: Reg(bytes[1] >> 4), src: Reg(bytes[1] & 0xF) }, 2))
        }
        _ if (OP_ALU_BASE..OP_ALU_BASE + 8).contains(&op) => {
            need(3)?;
            let aop = AluOp::from_code(op - OP_ALU_BASE)
                .ok_or(DecodeError::BadOperand { arch: A, what: "alu op" })?;
            Ok((
                Inst::Alu {
                    op: aop,
                    dst: Reg(bytes[1] >> 4),
                    a: Reg(bytes[1] & 0xF),
                    b: Reg(bytes[2]),
                },
                3,
            ))
        }
        _ if (OP_ALUIMM32_BASE..OP_ALUIMM32_BASE + 8).contains(&op) => {
            need(6)?;
            let aop = AluOp::from_code(op - OP_ALUIMM32_BASE).unwrap();
            Ok((
                Inst::AluImm {
                    op: aop,
                    dst: Reg(bytes[1] >> 4),
                    src: Reg(bytes[1] & 0xF),
                    imm: i32_at(2),
                },
                6,
            ))
        }
        _ if (OP_ALUIMM8_BASE..OP_ALUIMM8_BASE + 8).contains(&op) => {
            need(3)?;
            let aop = AluOp::from_code(op - OP_ALUIMM8_BASE).unwrap();
            Ok((
                Inst::AluImm {
                    op: aop,
                    dst: Reg(bytes[1] >> 4),
                    src: Reg(bytes[1] & 0xF),
                    imm: i32::from(bytes[2] as i8),
                },
                3,
            ))
        }
        OP_CMP => {
            need(2)?;
            Ok((Inst::Cmp { a: Reg(bytes[1] >> 4), b: Reg(bytes[1] & 0xF) }, 2))
        }
        OP_CMPIMM32 => {
            need(6)?;
            Ok((Inst::CmpImm { a: Reg(bytes[1]), imm: i32_at(2) }, 6))
        }
        OP_CMPIMM8 => {
            need(3)?;
            Ok((Inst::CmpImm { a: Reg(bytes[1]), imm: i32::from(bytes[2] as i8) }, 3))
        }
        OP_LOAD => {
            let (reg, addr, width, sign, n) = decode_mem(&bytes[1..], true)?;
            Ok((Inst::Load { dst: reg, addr, width, sign }, 1 + n))
        }
        OP_STORE => {
            let (reg, addr, width, _, n) = decode_mem(&bytes[1..], true)?;
            Ok((Inst::Store { src: reg, addr, width }, 1 + n))
        }
        OP_LEA => {
            let (reg, addr, _, _, n) = decode_mem(&bytes[1..], true)?;
            Ok((Inst::Lea { dst: reg, addr }, 1 + n))
        }
        OP_JMPMEM => {
            let (_, addr, _, _, n) = decode_mem(&bytes[1..], false)?;
            Ok((Inst::JumpMem { addr }, 1 + n))
        }
        OP_CALLMEM => {
            let (_, addr, _, _, n) = decode_mem(&bytes[1..], false)?;
            Ok((Inst::CallMem { addr }, 1 + n))
        }
        _ if (OP_PUSH_BASE..=OP_PUSH_BASE | 0xF).contains(&op) => {
            Ok((Inst::Push { src: Reg(op & 0xF) }, 1))
        }
        _ if (OP_POP_BASE..=OP_POP_BASE | 0xF).contains(&op) => {
            Ok((Inst::Pop { dst: Reg(op & 0xF) }, 1))
        }
        OP_JMP_SHORT => {
            need(2)?;
            Ok((Inst::Jump { offset: i64::from(bytes[1] as i8) }, 2))
        }
        OP_JMP_NEAR => {
            need(5)?;
            Ok((Inst::Jump { offset: i64::from(i32_at(1)) }, 5))
        }
        OP_CALL_NEAR => {
            need(5)?;
            Ok((Inst::Call { offset: i64::from(i32_at(1)) }, 5))
        }
        OP_JMP_REG => {
            need(2)?;
            Ok((Inst::JumpReg { src: Reg(bytes[1]) }, 2))
        }
        OP_CALL_REG => {
            need(2)?;
            Ok((Inst::CallReg { src: Reg(bytes[1]) }, 2))
        }
        OP_JCC_SHORT => {
            need(3)?;
            let cond = Cond::from_code(bytes[1])
                .ok_or(DecodeError::BadOperand { arch: A, what: "cond" })?;
            Ok((Inst::JumpCond { cond, offset: i64::from(bytes[2] as i8) }, 3))
        }
        OP_JCC_NEAR => {
            need(6)?;
            let cond = Cond::from_code(bytes[1])
                .ok_or(DecodeError::BadOperand { arch: A, what: "cond" })?;
            Ok((Inst::JumpCond { cond, offset: i64::from(i32_at(2)) }, 6))
        }
        OP_SYS => {
            need(3)?;
            let sop = SysOp::from_code(bytes[1])
                .ok_or(DecodeError::BadOperand { arch: A, what: "sys op" })?;
            Ok((Inst::Sys { op: sop, arg: Reg(bytes[2]) }, 3))
        }
        _ => Err(DecodeError::IllegalOpcode { arch: A, opcode: op }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(inst: &Inst) -> Result<Vec<u8>, EncodeError> {
        crate::encode(inst, A)
    }

    fn roundtrip(inst: Inst) {
        let bytes = encode(&inst).expect("encode");
        let (decoded, len) = decode(&bytes).expect("decode");
        assert_eq!(decoded, inst, "bytes: {bytes:x?}");
        assert_eq!(len, bytes.len());
    }

    #[test]
    fn roundtrip_simple() {
        roundtrip(Inst::Halt);
        roundtrip(Inst::Nop);
        roundtrip(Inst::Trap);
        roundtrip(Inst::Ret);
        roundtrip(Inst::Push { src: Reg(15) });
        roundtrip(Inst::Pop { dst: Reg(0) });
    }

    #[test]
    fn roundtrip_imm_forms() {
        roundtrip(Inst::MovImm { dst: Reg(3), imm: 42 });
        roundtrip(Inst::MovImm { dst: Reg(3), imm: 0x1234_5678_9abc });
        roundtrip(Inst::AluImm { op: AluOp::Add, dst: Reg(1), src: Reg(2), imm: 5 });
        roundtrip(Inst::AluImm { op: AluOp::Sub, dst: Reg(1), src: Reg(2), imm: 100_000 });
        roundtrip(Inst::CmpImm { a: Reg(9), imm: -2 });
        roundtrip(Inst::CmpImm { a: Reg(9), imm: 1 << 20 });
    }

    #[test]
    fn roundtrip_mem_forms() {
        roundtrip(Inst::Load {
            dst: Reg(2),
            addr: Addr::base_disp(Reg(4), -16),
            width: Width::W8,
            sign: false,
        });
        roundtrip(Inst::Load {
            dst: Reg(2),
            addr: Addr::base_index(Reg(5), Reg(6), 4),
            width: Width::W4,
            sign: true,
        });
        roundtrip(Inst::Load {
            dst: Reg(2),
            addr: Addr::pc_rel(0x1000),
            width: Width::W8,
            sign: false,
        });
        roundtrip(Inst::Store {
            src: Reg(7),
            addr: Addr::base_disp(Reg(4), 0x2000),
            width: Width::W2,
        });
        roundtrip(Inst::Lea { dst: Reg(8), addr: Addr::pc_rel(-64) });
        roundtrip(Inst::JumpMem { addr: Addr::base_disp(Reg(4), 8) });
        roundtrip(Inst::CallMem { addr: Addr::pc_rel(256) });
    }

    #[test]
    fn roundtrip_branches() {
        roundtrip(Inst::Jump { offset: 5 });
        roundtrip(Inst::Jump { offset: -120 });
        roundtrip(Inst::Jump { offset: 1 << 20 });
        roundtrip(Inst::Call { offset: -4096 });
        roundtrip(Inst::JumpCond { cond: Cond::UGt, offset: 64 });
        roundtrip(Inst::JumpCond { cond: Cond::Ne, offset: 1 << 16 });
        roundtrip(Inst::JumpReg { src: Reg(11) });
        roundtrip(Inst::CallReg { src: Reg(12) });
    }

    #[test]
    fn branch_length_selection() {
        assert_eq!(encode(&Inst::Jump { offset: 100 }).unwrap().len(), 2);
        assert_eq!(encode(&Inst::Jump { offset: 1000 }).unwrap().len(), 5);
        assert_eq!(encode(&Inst::JumpCond { cond: Cond::Eq, offset: 50 }).unwrap().len(), 3);
        assert_eq!(encode(&Inst::JumpCond { cond: Cond::Eq, offset: 5000 }).unwrap().len(), 6);
    }

    #[test]
    fn illegal_opcode_is_an_error() {
        assert!(matches!(
            decode(&[0xFF, 0, 0, 0]),
            Err(DecodeError::IllegalOpcode { opcode: 0xFF, .. })
        ));
    }

    #[test]
    fn risc_only_insts_rejected() {
        assert!(encode(&Inst::JumpTar).is_err());
        assert!(encode(&Inst::AdrPage { dst: Reg(0), page_delta: 1 }).is_err());
        assert!(encode(&Inst::MoveFromLr { dst: Reg(0) }).is_err());
    }

    #[test]
    fn register_bounds_checked() {
        assert!(encode(&Inst::MovReg { dst: Reg(16), src: Reg(0) }).is_err());
        assert!(encode(&Inst::Push { src: Reg(31) }).is_err());
    }

    #[test]
    fn out_of_range_branch_rejected() {
        assert!(matches!(
            encode(&Inst::Jump { offset: 3 << 31 }),
            Err(EncodeError::BranchOutOfRange { .. })
        ));
    }
}
