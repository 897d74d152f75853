//! Function-pointer analysis (§5.2).
//!
//! Rewriting inter-procedural indirect control flow does not require
//! knowing where indirect calls go — only where function pointers are
//! *defined*. Definitions found:
//!
//! * **relocation slots** (PIE): every RELATIVE relocation whose
//!   target is a function entry, excluding slots inside discovered
//!   jump tables (those are cloned, not pointer-rewritten). This
//!   deliberately includes language-specific function tables such as
//!   the Go `.pclntab` — the analysis has no way to tell them apart,
//!   which is exactly why `func-ptr` mode fails on Go binaries;
//! * **bare data words** (non-PIE): 8-byte-aligned words whose value
//!   equals a function entry. This over-approximates — an integer that
//!   happens to collide with a code address gets rewritten too, the
//!   documented unsafety of `func-ptr` mode;
//! * **code materialisations**: `lea`/`mov`/`adrp`+`add`/TOC pairs
//!   producing a function entry, with optional forward slicing through
//!   add-immediates to catch the `&runtime.goexit + 1` pattern of
//!   Listing 1 (the stored pointer targets `entry + delta`).

use crate::analysis::{collect_addr_consts, AnalysisConfig, FuncMap};
use icfgp_isa::{AluOp, Inst};
use icfgp_obj::{Binary, SectionKind};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The evidence class behind a function-pointer definition — the
/// provenance the soundness auditor (`icfgp-audit`) grades for
/// `ICFGP-A003`. Trust order: `Relocation` (link-time ground truth) >
/// `CodeMaterialisation` without escape > `WordScan` and escaping
/// materialisations (the value's uses cannot be enumerated).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FpEvidence {
    /// A RELATIVE relocation slot: link-time ground truth.
    Relocation,
    /// A bare data word whose value happens to equal a function entry
    /// (the non-PIE scan): the word may be an integer that collides
    /// with a code address.
    WordScan,
    /// A code-side materialisation of the entry address.
    CodeMaterialisation {
        /// The materialised value is subsequently stored to memory, so
        /// its consumers cannot be enumerated statically — the pointer
        /// *escapes*.
        escapes: bool,
    },
}

/// Where a function pointer is defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FpDefSite {
    /// An 8-byte data slot (relocation target or matched word).
    DataSlot {
        /// Slot virtual address.
        addr: u64,
    },
    /// A code-side materialisation; the rewriter fixes the relocated
    /// copy of these instructions instead of a data slot.
    CodeImm {
        /// Address of the (completing) materialising instruction.
        inst_addr: u64,
        /// First instruction of a two-instruction idiom, if any.
        pair_first: Option<u64>,
    },
}

/// One function-pointer definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FpDef {
    /// The definition site.
    pub site: FpDefSite,
    /// Entry address of the pointed-to function.
    pub target_fn: u64,
    /// Delta applied by downstream arithmetic before the pointer is
    /// used (`&goexit + 1` has delta 1). The rewritten value must be
    /// `relocated(target_fn + delta) - delta` so consumers that add
    /// `delta` land on a real relocated instruction.
    pub delta: i64,
    /// Evidence provenance of this definition (see [`FpEvidence`]).
    pub evidence: FpEvidence,
}

/// Find all function-pointer definitions in the binary.
#[must_use]
pub fn analyze_function_pointers(
    binary: &Binary,
    funcs: &FuncMap,
    config: &AnalysisConfig,
) -> Vec<FpDef> {
    let mut defs: Vec<FpDef> = Vec::new();
    let in_jump_table = |addr: u64| {
        funcs.values().flat_map(|f| &f.jump_tables).any(|t| {
            addr >= t.table_addr && addr < t.table_addr + t.count * u64::from(t.entry_width)
        })
    };
    let is_entry = |v: u64| binary.function_starting_at(v).is_some();

    if binary.meta.pie {
        for reloc in binary.runtime_relocations() {
            if is_entry(reloc.addend) && !in_jump_table(reloc.at) {
                defs.push(FpDef {
                    site: FpDefSite::DataSlot { addr: reloc.at },
                    target_fn: reloc.addend,
                    delta: 0,
                    evidence: FpEvidence::Relocation,
                });
            }
        }
    } else {
        // Non-PIE: scan data sections for words matching entries.
        for sec in binary.sections() {
            if sec.flags().exec
                || !sec.flags().alloc
                || !matches!(sec.kind(), SectionKind::Data | SectionKind::ReadOnlyData)
            {
                continue;
            }
            let mut addr = sec.addr() & !7;
            if addr < sec.addr() {
                addr += 8;
            }
            while addr + 8 <= sec.end() {
                if let Ok(v) = binary.read_u64(addr) {
                    if is_entry(v) && !in_jump_table(addr) {
                        defs.push(FpDef {
                            site: FpDefSite::DataSlot { addr },
                            target_fn: v,
                            delta: 0,
                            evidence: FpEvidence::WordScan,
                        });
                    }
                }
                addr += 8;
            }
        }
    }

    // Code-side materialisations of function entries.
    for func in funcs.values() {
        for ev in collect_addr_consts(&func.insts, binary) {
            if !is_entry(ev.value) {
                continue;
            }
            // Skip materialisations that are actually jump-table base
            // setups.
            if func
                .jump_tables
                .iter()
                .any(|t| t.base_insts.contains(&ev.inst_addr))
            {
                continue;
            }
            let mut delta = 0i64;
            if config.funcptr_arith_tracking {
                delta = forward_delta(&func.insts, ev.inst_addr, ev.reg);
            }
            let escapes = escapes_to_memory(&func.insts, ev.inst_addr, ev.reg);
            defs.push(FpDef {
                site: FpDefSite::CodeImm { inst_addr: ev.inst_addr, pair_first: ev.pair_first },
                target_fn: ev.value,
                delta,
                evidence: FpEvidence::CodeMaterialisation { escapes },
            });
        }
    }

    // The Listing 1 pattern: a function-pointer *load* from a data
    // slot followed by arithmetic before the value is stored. The
    // definition is the slot; record the delta against it.
    if config.funcptr_arith_tracking {
        let slot_defs: Vec<(usize, u64)> = defs
            .iter()
            .enumerate()
            .filter_map(|(i, d)| match d.site {
                FpDefSite::DataSlot { addr } => Some((i, addr)),
                FpDefSite::CodeImm { .. } => None,
            })
            .collect();
        for func in funcs.values() {
            // Find loads whose source address resolves to a known slot.
            for (addr, (inst, len)) in &func.insts {
                let Inst::Load { dst, addr: a, .. } = inst else { continue };
                let src_addr = if a.pc_rel {
                    Some(addr.wrapping_add_signed(a.disp))
                } else {
                    // RISC: materialised address in the base register.
                    collect_addr_consts(&func.insts, binary)
                        .iter()
                        .rev()
                        .find(|ev| ev.inst_addr < *addr && Some(ev.reg) == a.base)
                        .map(|ev| ev.value)
                };
                let Some(src_addr) = src_addr else { continue };
                if let Some((i, _)) = slot_defs.iter().find(|(_, s)| *s == src_addr) {
                    let delta = forward_delta(&func.insts, addr + u64::from(*len) - 1, *dst);
                    if delta != 0 {
                        defs[*i].delta = delta;
                    }
                }
            }
        }
    }

    defs.sort_by_key(|d| match d.site {
        FpDefSite::DataSlot { addr } => (0, addr),
        FpDefSite::CodeImm { inst_addr, .. } => (1, inst_addr),
    });
    defs.dedup();
    defs
}

/// Forward scan: does the value in `reg` (as of just after
/// `from_addr`) get stored to memory before the register is
/// redefined? A stored function-pointer value escapes the slice — its
/// consumers cannot be enumerated statically.
fn escapes_to_memory(
    insts: &BTreeMap<u64, (Inst, u8)>,
    from_addr: u64,
    reg: icfgp_isa::Reg,
) -> bool {
    for (_, (inst, _)) in insts.range(from_addr + 1..).take(8) {
        match inst {
            Inst::Store { src, .. } if *src == reg => return true,
            _ => {
                if inst.def_reg() == Some(reg) {
                    return false;
                }
            }
        }
    }
    false
}

/// Forward-slice `reg` from just after `from_addr`: accumulate
/// add-immediates applied before the value is stored or the register
/// is clobbered.
fn forward_delta(
    insts: &BTreeMap<u64, (Inst, u8)>,
    from_addr: u64,
    reg: icfgp_isa::Reg,
) -> i64 {
    let mut delta = 0i64;
    for (_, (inst, _)) in insts.range(from_addr + 1..).take(8) {
        match inst {
            Inst::AluImm { op: AluOp::Add, dst, src, imm } if *dst == reg && *src == reg => {
                delta += i64::from(*imm);
            }
            Inst::AddImm16 { dst, src, imm } if *dst == reg && *src == reg => {
                delta += i64::from(*imm);
            }
            Inst::Store { src, .. } if *src == reg => return delta,
            _ => {
                if inst.def_reg() == Some(reg) {
                    return delta;
                }
            }
        }
    }
    delta
}
