//! Symbolic evaluation of trampoline byte sequences.
//!
//! A trampoline is a short straight-line sequence ending in an
//! unconditional transfer (§7, Table 2). This module decodes the
//! patched bytes and re-derives, from the encodings alone:
//!
//! * where the sequence transfers control, and
//! * which registers it leaves modified (a register that is saved to
//!   memory before being overwritten and reloaded before the final
//!   transfer is *not* clobbered — the ppc64le save/restore form).
//!
//! The evaluator is deliberately conservative: any instruction whose
//! effect on the transfer target cannot be derived constant-folds to
//! "unknown", and an indirect transfer through an unknown register is
//! an error, not a guess.

use icfgp_isa::{decode, AluOp, Arch, Inst, Reg};
use std::collections::{BTreeMap, BTreeSet};

/// Where a trampoline sequence transfers control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transfer {
    /// Unconditional transfer to a statically known address.
    Jump(u64),
    /// Trap instruction (the runtime finishes the transfer through
    /// `.trap_map`).
    Trap,
}

/// The derived effect of one trampoline sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqEffect {
    /// The terminal control transfer.
    pub transfer: Transfer,
    /// Registers whose value at the transfer differs from their value
    /// at sequence entry (save/restored registers excluded).
    pub clobbered: BTreeSet<Reg>,
}

/// Symbolically evaluate the byte sequence at `base`.
///
/// `toc` is the load-time value of the ppc64le TOC register (`r2`),
/// needed to resolve the TOC-relative long form.
///
/// # Errors
///
/// A human-readable reason when the sequence does not decode, falls
/// through its end, or transfers through a register whose value the
/// evaluation cannot derive.
pub fn eval_sequence(
    arch: Arch,
    base: u64,
    bytes: &[u8],
    toc: Option<u64>,
) -> Result<SeqEffect, String> {
    let mut consts: BTreeMap<Reg, u64> = BTreeMap::new();
    let mut clobbered: BTreeSet<Reg> = BTreeSet::new();
    let mut saved: BTreeSet<Reg> = BTreeSet::new();
    let mut tar: Option<u64> = None;
    let mut off = 0usize;
    while off < bytes.len() {
        let addr = base + off as u64;
        let (inst, len) = decode(&bytes[off..], arch)
            .map_err(|e| format!("undecodable byte at {addr:#x}: {e}"))?;
        off += len;
        // A value becomes unknown-but-modified unless proven otherwise.
        let def = |reg: Reg,
                       value: Option<u64>,
                       consts: &mut BTreeMap<Reg, u64>,
                       clobbered: &mut BTreeSet<Reg>| {
            clobbered.insert(reg);
            match value {
                Some(v) => {
                    consts.insert(reg, v);
                }
                None => {
                    consts.remove(&reg);
                }
            }
        };
        match inst {
            Inst::Nop => {}
            Inst::Trap => {
                return Ok(SeqEffect { transfer: Transfer::Trap, clobbered });
            }
            Inst::Jump { offset } => {
                return Ok(SeqEffect {
                    transfer: Transfer::Jump(addr.wrapping_add_signed(offset)),
                    clobbered,
                });
            }
            Inst::JumpReg { src } => {
                let target = consts.get(&src).copied().ok_or_else(|| {
                    format!("indirect jump at {addr:#x} through unknown register r{}", src.0)
                })?;
                return Ok(SeqEffect { transfer: Transfer::Jump(target), clobbered });
            }
            Inst::JumpTar => {
                let target = tar.ok_or_else(|| {
                    format!("bctar at {addr:#x} with unknown target register")
                })?;
                return Ok(SeqEffect { transfer: Transfer::Jump(target), clobbered });
            }
            Inst::MoveToTar { src } => {
                tar = consts.get(&src).copied();
            }
            Inst::AdrPage { dst, page_delta } => {
                let value = (addr & !0xFFF).wrapping_add_signed(page_delta << 12);
                def(dst, Some(value), &mut consts, &mut clobbered);
            }
            Inst::AddShl16 { dst, src, imm } => {
                let base_val = if arch.toc() == Some(src) {
                    toc
                } else {
                    consts.get(&src).copied()
                };
                let value = base_val.map(|b| b.wrapping_add_signed(i64::from(imm) << 16));
                def(dst, value, &mut consts, &mut clobbered);
            }
            Inst::AddImm16 { dst, src, imm } => {
                let value =
                    consts.get(&src).map(|b| b.wrapping_add_signed(i64::from(imm)));
                def(dst, value, &mut consts, &mut clobbered);
            }
            Inst::AluImm { op: AluOp::Add, dst, src, imm } => {
                let value =
                    consts.get(&src).map(|b| b.wrapping_add_signed(i64::from(imm)));
                def(dst, value, &mut consts, &mut clobbered);
            }
            Inst::Store { src, .. } => {
                // A spill of a still-original value: a later reload
                // makes any intervening overwrite a non-clobber.
                if !clobbered.contains(&src) {
                    saved.insert(src);
                }
            }
            Inst::Load { dst, .. } => {
                if saved.contains(&dst) {
                    // Restore: the register holds its entry value again
                    // (we do not model the memory slot's address — the
                    // placement emitter only pairs one spill with one
                    // reload per sequence).
                    clobbered.remove(&dst);
                    consts.remove(&dst);
                } else {
                    def(dst, None, &mut consts, &mut clobbered);
                }
            }
            other if other.is_control_flow() => {
                return Err(format!(
                    "unexpected control-flow instruction {other:?} at {addr:#x} inside a trampoline"
                ));
            }
            other => {
                if let Some(dst) = other.def_reg() {
                    def(dst, None, &mut consts, &mut clobbered);
                }
            }
        }
    }
    Err(format!("sequence at {base:#x} falls through its end without a transfer"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use icfgp_core::tramp;

    #[test]
    fn short_branch_evaluates_to_target() {
        for arch in [Arch::X64, Arch::Ppc64le, Arch::Aarch64] {
            // +0x40 is inside the short reach of every arch; +0x80
            // would be the asymmetric x64 rel8 edge (reach 128 but the
            // positive range stops at +127).
            let bytes = tramp::short_branch(arch, 0x1000, 0x1040).unwrap();
            let e = eval_sequence(arch, 0x1000, &bytes, None).unwrap();
            assert_eq!(e.transfer, Transfer::Jump(0x1040), "{arch:?}");
            assert!(e.clobbered.is_empty());
        }
    }

    /// splitmix64 step: the sweep's seeded stream.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Deltas from the long form's anchor (the TOC on ppc64le, the
    /// branch elsewhere) on both sides of its reach, each marked in or
    /// out of reach. The ppc64le and aarch64 limits are where the
    /// encodings run out, just inside `Arch::long_branch_reach`:
    /// `addis` rounds up at `addi`'s sign bit, and `adrp` counts pages
    /// from the branch's own page (`page_off` bytes into it).
    fn reach_edges(arch: Arch, page_off: i64) -> [(i64, bool); 8] {
        let reach = arch.long_branch_reach();
        let (lo, hi) = match arch {
            Arch::X64 => (-reach, reach - 1),
            Arch::Ppc64le => (-reach, reach - 0x8001),
            Arch::Aarch64 => (-reach - 0x800 - page_off, reach - 0x801 - page_off),
        };
        // Four-byte steps keep RISC targets word aligned.
        let (lo, hi) = if arch == Arch::X64 { (lo, hi) } else { ((lo + 3) & !3, hi & !3) };
        [
            (lo, true),
            (lo - 4, false),
            (hi, true),
            (hi + 4, false),
            (-reach / 2, true),
            (reach / 2, true),
            (-2 * reach, false),
            (2 * reach, false),
        ]
    }

    /// The shared long form over a seeded sweep of `(from, to, toc)`
    /// per arch: in reach it transfers to `to`, clobbers only its
    /// scratch register (none on x64 and in the ppc64le save/restore
    /// variant) and is `Arch::long_branch_len()` bytes (+8 for the
    /// spill and reload); out of reach it is `None`, never wrapped
    /// bytes.
    #[test]
    fn long_form_sweep() {
        let mut rng = 0x1cf9_2026u64;
        for arch in Arch::ALL {
            for _ in 0..64 {
                let from = ((1 << 36) + next(&mut rng) % (1 << 36)) & !3;
                let toc = ((1 << 36) + next(&mut rng) % (1 << 36)) & !3;
                let scratch = match (arch, next(&mut rng) % 3) {
                    (Arch::X64, _) => None,
                    (Arch::Ppc64le, 0) => None,
                    _ => Some(Reg(3 + (next(&mut rng) % 15) as u8)),
                };
                let anchor = if arch == Arch::Ppc64le { toc } else { from };
                let reach = arch.long_branch_reach() - 0x1_0000;
                let inside = ((next(&mut rng) % (2 * reach as u64)) as i64 - reach) & !3;
                let mut deltas = reach_edges(arch, (from & 0xfff) as i64).to_vec();
                deltas.push((inside, true));
                for (delta, in_reach) in deltas {
                    let to = anchor.wrapping_add_signed(delta);
                    let what = format!("{arch} from {from:#x} to {to:#x} toc {toc:#x}");
                    let bytes = tramp::long_branch(arch, from, to, Some(toc), scratch);
                    if !in_reach {
                        assert_eq!(bytes, None, "{what}: out of reach must not encode");
                        continue;
                    }
                    let bytes = bytes.expect(&what);
                    let e = eval_sequence(arch, from, &bytes, Some(toc)).expect(&what);
                    assert_eq!(e.transfer, Transfer::Jump(to), "{what}");
                    let spill = if arch == Arch::Ppc64le && scratch.is_none() { 8 } else { 0 };
                    assert_eq!(bytes.len(), arch.long_branch_len() + spill, "{what}");
                    assert_eq!(e.clobbered, scratch.into_iter().collect(), "{what}");
                }
            }
        }
    }

    #[test]
    fn aarch_long_form_needs_scratch() {
        assert_eq!(tramp::long_branch(Arch::Aarch64, 0x1000, 0x2000_0000, None, None), None);
    }

    #[test]
    fn trap_is_a_trap() {
        for arch in [Arch::X64, Arch::Ppc64le, Arch::Aarch64] {
            let bytes = tramp::trap_trampoline(arch);
            let e = eval_sequence(arch, 0x1000, &bytes, None).unwrap();
            assert_eq!(e.transfer, Transfer::Trap, "{arch:?}");
        }
    }

    #[test]
    fn fallthrough_is_an_error() {
        let bytes = icfgp_isa::encode(&Inst::Nop, Arch::X64).unwrap();
        assert!(eval_sequence(Arch::X64, 0x1000, &bytes, None).is_err());
    }
}
