#![warn(missing_docs)]
//! Architecture models for the incremental-CFG-patching reproduction.
//!
//! This crate defines the three machine models the paper evaluates on —
//! x86-64, ppc64le and aarch64 — as *synthetic but structurally faithful*
//! instruction sets. The properties that matter for binary rewriting are
//! modelled exactly:
//!
//! * **Instruction granularity** — x64 instructions are variable length
//!   (1–10 bytes here, 1–15 on real hardware); ppc64le and aarch64
//!   instructions are fixed 4-byte words.
//! * **Branch reach** — per Table 2 of the paper: x64 short branch ±128 B
//!   (2 B), near branch ±2 GB (5 B); ppc64le `b` ±32 MB (1 insn) and the
//!   4-insn `addis/addi/mtspr tar/bctar` sequence reaching ±2 GB; aarch64
//!   `b` ±128 MB (1 insn) and the 3-insn `adrp/add/br` sequence reaching
//!   ±4 GB.
//! * **Trap size** — a trap is a 1-byte instruction on x64 (`int3`-like)
//!   and a single 4-byte word on the RISC architectures, so a trap always
//!   fits where any instruction fits.
//! * **Indirect-branch idioms** — ppc64le has no register-indirect jump;
//!   control must flow through the `tar` special register
//!   (`mtspr`/`bctar`), which is why its long trampoline is 4 instructions
//!   and needs a scratch GPR. aarch64 and x64 jump through a GPR directly.
//!
//! The semantic instruction set ([`Inst`]) is architecture-neutral; the
//! per-architecture byte encodings live in [`encode`]/[`decode`] and
//! enforce each machine's length and reach rules, returning
//! [`EncodeError::BranchOutOfRange`] exactly where a real assembler would.
//!
//! # Example
//!
//! ```
//! use icfgp_isa::{Arch, Inst, encode, decode};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A near jump on x64 is five bytes; the same semantic jump on
//! // aarch64 is one 4-byte word.
//! let jmp = Inst::Jump { offset: 0x1000 };
//! assert_eq!(encode(&jmp, Arch::X64)?.len(), 5);
//! assert_eq!(encode(&jmp, Arch::Aarch64)?.len(), 4);
//!
//! // Round-trip through the decoder.
//! let bytes = encode(&jmp, Arch::Ppc64le)?;
//! let (decoded, len) = decode(&bytes, Arch::Ppc64le)?;
//! assert_eq!(decoded, jmp);
//! assert_eq!(len, 4);
//! # Ok(())
//! # }
//! ```

mod arch;
mod cond;
mod inst;
mod risc;
mod x64;

pub use arch::{Arch, BranchSpec};
pub use cond::Cond;
pub use inst::{Addr, AluOp, Inst, Reg, SysOp, Width};

use std::fmt;

/// Error returned when an instruction cannot be encoded for an
/// architecture.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // fields are named self-descriptively and shown by Display
pub enum EncodeError {
    /// The instruction does not exist on this architecture (e.g. `push`
    /// on ppc64le, `adrp` on x64).
    UnsupportedOnArch { arch: Arch, what: &'static str },
    /// A branch or page offset does not fit in the encoding's immediate
    /// field.
    BranchOutOfRange { arch: Arch, offset: i64, max: i64 },
    /// An immediate operand does not fit in the encoding's field.
    ImmOutOfRange { arch: Arch, imm: i64, bits: u8 },
    /// A displacement does not fit in the encoding's field.
    DispOutOfRange { arch: Arch, disp: i64, bits: u8 },
    /// A register id is outside the architecture's register file.
    BadRegister { arch: Arch, reg: Reg },
    /// The addressing mode is not expressible on this architecture.
    BadAddressingMode { arch: Arch, what: &'static str },
    /// A RISC branch target or offset is not 4-byte aligned.
    Misaligned { arch: Arch, offset: i64 },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::UnsupportedOnArch { arch, what } => {
                write!(f, "{what} is not encodable on {arch}")
            }
            EncodeError::BranchOutOfRange { arch, offset, max } => {
                write!(f, "branch offset {offset:#x} exceeds ±{max:#x} on {arch}")
            }
            EncodeError::ImmOutOfRange { arch, imm, bits } => {
                write!(f, "immediate {imm:#x} does not fit in {bits} bits on {arch}")
            }
            EncodeError::DispOutOfRange { arch, disp, bits } => {
                write!(f, "displacement {disp:#x} does not fit in {bits} bits on {arch}")
            }
            EncodeError::BadRegister { arch, reg } => {
                write!(f, "register r{} is out of range on {arch}", reg.0)
            }
            EncodeError::BadAddressingMode { arch, what } => {
                write!(f, "addressing mode not supported on {arch}: {what}")
            }
            EncodeError::Misaligned { arch, offset } => {
                write!(f, "offset {offset:#x} is not 4-byte aligned on {arch}")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Error returned when bytes cannot be decoded as an instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // fields are named self-descriptively and shown by Display
pub enum DecodeError {
    /// The byte sequence starts with an opcode that is not defined.
    IllegalOpcode { arch: Arch, opcode: u8 },
    /// The byte sequence is shorter than the instruction it starts.
    Truncated { arch: Arch, needed: usize, have: usize },
    /// An operand field holds an invalid value (bad register, bad width,
    /// bad condition code...).
    BadOperand { arch: Arch, what: &'static str },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::IllegalOpcode { arch, opcode } => {
                write!(f, "illegal opcode {opcode:#04x} on {arch}")
            }
            DecodeError::Truncated { arch, needed, have } => {
                write!(f, "truncated instruction on {arch}: need {needed} bytes, have {have}")
            }
            DecodeError::BadOperand { arch, what } => {
                write!(f, "bad operand on {arch}: {what}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Encode a semantic instruction into the byte encoding of `arch`,
/// appending to `out`; returns the encoded length. On error `out` is
/// left as it was.
///
/// # Errors
///
/// Returns an [`EncodeError`] when the instruction does not exist on the
/// architecture, an operand does not fit the encoding, or a RISC branch
/// offset is unaligned or out of reach.
///
/// # Example
///
/// ```
/// use icfgp_isa::{Arch, Inst, encode_into, EncodeError};
///
/// // ppc64le's direct branch reaches only ±32 MB (Table 2): a longer
/// // jump must go through the 4-instruction `tar` sequence instead.
/// let mut out = Vec::new();
/// let too_far = Inst::Jump { offset: 1 << 26 };
/// assert!(matches!(
///     encode_into(&too_far, Arch::Ppc64le, &mut out),
///     Err(EncodeError::BranchOutOfRange { .. })
/// ));
/// assert!(out.is_empty());
/// assert_eq!(encode_into(&too_far, Arch::Aarch64, &mut out), Ok(4)); // ±128 MB reach
/// ```
pub fn encode_into(inst: &Inst, arch: Arch, out: &mut Vec<u8>) -> Result<usize, EncodeError> {
    let start = out.len();
    let done = match arch {
        Arch::X64 => x64::encode(inst, out),
        Arch::Ppc64le | Arch::Aarch64 => risc::encode(inst, arch, out),
    };
    match done {
        Ok(()) => Ok(out.len() - start),
        Err(e) => {
            out.truncate(start);
            Err(e)
        }
    }
}

/// Encode a semantic instruction into a fresh buffer: [`encode_into`]
/// for callers that keep the bytes on their own.
///
/// # Errors
///
/// Same as [`encode_into`].
pub fn encode(inst: &Inst, arch: Arch) -> Result<Vec<u8>, EncodeError> {
    let mut out = Vec::with_capacity(arch.max_inst_len());
    encode_into(inst, arch, &mut out)?;
    Ok(out)
}

/// Decode one instruction from the front of `bytes`.
///
/// Returns the instruction and the number of bytes it occupies.
///
/// # Errors
///
/// Returns a [`DecodeError`] for unknown opcodes, truncated input, or
/// malformed operand fields. Hitting an illegal opcode is load-bearing
/// for the rewriter's "overwrite `.text` with illegal bytes" strong test.
pub fn decode(bytes: &[u8], arch: Arch) -> Result<(Inst, usize), DecodeError> {
    match arch {
        Arch::X64 => x64::decode(bytes),
        Arch::Ppc64le | Arch::Aarch64 => risc::decode(bytes, arch),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn near_jump_lengths_match_table2() {
        let j = Inst::Jump { offset: 0x100000 };
        assert_eq!(encode(&j, Arch::X64).unwrap().len(), 5);
        assert_eq!(encode(&j, Arch::Ppc64le).unwrap().len(), 4);
        assert_eq!(encode(&j, Arch::Aarch64).unwrap().len(), 4);
    }

    #[test]
    fn short_jump_is_two_bytes_on_x64() {
        let j = Inst::Jump { offset: -100 };
        assert_eq!(encode(&j, Arch::X64).unwrap().len(), 2);
    }

    #[test]
    fn trap_is_one_instruction_everywhere() {
        assert_eq!(encode(&Inst::Trap, Arch::X64).unwrap().len(), 1);
        assert_eq!(encode(&Inst::Trap, Arch::Ppc64le).unwrap().len(), 4);
        assert_eq!(encode(&Inst::Trap, Arch::Aarch64).unwrap().len(), 4);
    }

    #[test]
    fn failed_encode_leaves_the_buffer_as_it_was() {
        // x64 writes the opcode before it checks the operand register.
        let addr = Addr::base_only(Reg(1));
        let bad = Inst::Load { dst: Reg(16), addr, width: Width::W8, sign: false };
        let mut out = vec![0xAA];
        assert!(encode_into(&bad, Arch::X64, &mut out).is_err());
        assert_eq!(out, [0xAA]);
    }

    #[test]
    fn push_is_x64_only() {
        let p = Inst::Push { src: Reg(3) };
        assert!(encode(&p, Arch::X64).is_ok());
        assert!(matches!(
            encode(&p, Arch::Ppc64le),
            Err(EncodeError::UnsupportedOnArch { .. })
        ));
    }
}
