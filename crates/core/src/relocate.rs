//! The code relocation engine: emits `.instr`, the jump-table clones,
//! the block/instruction maps and the RA map.
//!
//! Relocated code layout (per function, per block):
//! `[Go-traceback RA payload?][instrumentation payload?][block insts]`.
//! Instruction operands are re-resolved:
//!
//! * direct branches/calls target the *relocated* copy when the callee
//!   was relocated, the original address otherwise (where an entry
//!   trampoline catches execution);
//! * PC-relative data references are re-encoded against the original
//!   data (which does not move);
//! * jump-table base materialisations are retargeted to the table's
//!   clone, and compact table loads are widened to 4 bytes (§5.1);
//! * function-pointer materialisations are retargeted to
//!   `relocated(fn + delta) - delta` in `func-ptr` mode (§5.2);
//! * under call emulation, calls expand to
//!   "materialise original return address; set it as the return
//!   address; jump" (§2.3) — optionally reproducing the historical
//!   stack-indirect bug.
//!
//! # Incremental pipeline
//!
//! Relocation runs in four stages. Per-function **fragments** (entry
//! lists with sizes and fragment-relative offsets, each with its
//! canonical emission) are built in parallel through the
//! content-addressed [`crate::cache`]; a cheap sequential **layout**
//! pass places fragments back to back (exactly reproducing the
//! historical single-cursor layout, so output bytes are identical for
//! any thread count) and assigns clone addresses and counter slots;
//! the **fix-up** pass patches each function's canonical emission in
//! parallel, outside the cache; a final sequential pass fills the
//! table clones. Fragments are address-independent, so a warm cache
//! turns a re-rewrite into layout plus memcpy.
//!
//! # Position-independent fragments
//!
//! A fragment record carries its **canonical** emission
//! ([`RelocEmit`]): the fragment encoded at base 0 with every
//! layout-dependent entry (branches, pc-relative data, table bases,
//! counters, emulated calls) left as a nop-filled span recorded in a
//! patch-point list. The canonical bytes are a pure function of the
//! fragment and the architecture, so they live and are looked up with
//! the fragment, under one key. That key derives from the *weak*
//! per-function analysis key (environment × bytes × config — no
//! whole-binary fingerprint, no layout base), so it hits across
//! near-identical binaries and across layout shifts within one binary.
//! A cheap [`fixup`] pass re-encodes just the patch spans against the
//! real base/clone/counter addresses and the resolve map — running the
//! same per-entry encoder a cold emission runs, so fixed-up shared
//! bytes are identical to a cold rewrite by construction.

use crate::cache::{cfg_fingerprint, hash_of, unique_key, FragPayload, RewriteCache};
use crate::trace::TraceEvent;
use crate::config::{FuncMode, LayoutOrder, RewriteConfig, RewriteMode, UnwindStrategy};
use crate::instrument::{Instrumentation, Payload};
use crate::pool;
use crate::rewriter::RewriteError;
use icfgp_cfg::{BinaryAnalysis, FpDefSite, FuncCfg, FuncStatus, JumpTableDesc};
use crate::tramp;
use icfgp_isa::{encode, encode_into, Addr, AluOp, Arch, Cond, Inst, Reg, SysOp, Width};
use icfgp_obj::{Binary, RaMap};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Instrumentation-reserved scratch register for emitted sequences.
const RESERVED: Reg = Reg(15);

/// One cloned jump table.
#[derive(Debug, Clone)]
pub struct TableClone {
    /// The analysed table.
    pub desc: JumpTableDesc,
    /// Where the clone lives (`.jt_clone`).
    pub clone_addr: u64,
    /// Entry width of the clone (compact tables are widened to 4).
    pub entry_width: u8,
    /// Clone contents.
    pub bytes: Vec<u8>,
    /// RELATIVE relocation slots the clone needs in PIE binaries
    /// (absolute entries): (slot address, link-time value).
    pub reloc_slots: Vec<(u64, u64)>,
}

/// Where one jump table's clone goes in `.jt_clone`, fixed before
/// relocation fills it in.
pub(crate) struct CloneSlot<'a> {
    /// Entry of the function that jumps through the table.
    pub func: u64,
    /// The analysed table.
    pub desc: &'a JumpTableDesc,
    /// Where the clone lives.
    pub clone_addr: u64,
    /// Entry width of the clone (compact tables are widened to 4).
    pub entry_width: u8,
}

/// The relocation result.
#[derive(Debug, Clone)]
pub struct RelocatedCode {
    /// `.instr` contents.
    pub code: Vec<u8>,
    /// `.instr` base address.
    pub base: u64,
    /// Original block start → relocated address (payload start).
    pub block_map: BTreeMap<u64, u64>,
    /// Original instruction address → relocated instruction address.
    pub inst_map: BTreeMap<u64, u64>,
    /// Relocated→original return-address map.
    pub ra_map: RaMap,
    /// Jump-table clones (`.jt_clone` contents), empty in `dir` mode.
    pub clones: Vec<TableClone>,
    /// `.jt_clone` base address.
    pub clone_base: u64,
    /// Number of counter slots allocated (for `.icounters`).
    pub counter_slots: usize,
    /// `.icounters` base address.
    pub icounters_base: u64,
    /// In-place table overwrites (the unsafe `clone_tables = false`
    /// ablation).
    pub inplace_table_writes: Vec<(u64, Vec<u8>)>,
}

/// Whether a table's base materialisation can be retargeted: its
/// instructions must be adjacent in the instruction stream (pairs are
/// rewritten as a unit).
#[must_use]
pub fn table_cloneable(func: &FuncCfg, desc: &JumpTableDesc) -> bool {
    if desc.base_insts.is_empty() {
        // The x64 absolute-displacement memory jump: cloning rewrites
        // the displacement of the copied jump instruction itself.
        return desc.load_addr == desc.jump_addr;
    }
    if desc.base_insts.len() == 1 {
        return true;
    }
    if desc.base_insts.len() > 2 {
        return false;
    }
    let first = desc.base_insts[0];
    let Some((_, len)) = func.insts.get(&first) else { return false };
    desc.base_insts[1] == first + u64::from(*len)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum BKind {
    Jump,
    Cond(Cond),
    Call,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum RKind {
    Copy(Inst),
    Payload(Inst),
    /// A per-block execution counter; the slot index is local to the
    /// fragment (the layout pass assigns each function a slot base).
    CounterPayload { slot: usize },
    GoRaPayload,
    BranchOrig { bkind: BKind, orig_target: u64, far: bool },
    PcRelData { inst: Inst, orig_addr: u64 },
    PcRelPage { page_value: u64, dst: Reg },
    /// The clone index is local to the function (its cloneable tables
    /// in `jump_tables` order); emission receives the per-function
    /// clone address slice.
    JtBase { inst: Inst, clone_idx: usize, pair: bool },
    /// A memory-indirect table jump whose displacement is retargeted to
    /// the clone (`jmp [idx*8 + table]` → `jmp [idx*8 + clone]`).
    JtMemJump { inst: Inst, clone_idx: usize },
    JtLoadWiden { inst: Inst },
    FpImm { inst: Inst, target_fn: u64, delta: i64, pair: bool },
    EmulatedCall { call: Inst, orig_ret: u64, direct_target: Option<u64>, far: bool },
    /// Nop slack after indirect transfers
    /// ([`RewriteConfig::indirect_site_padding`]).
    Pad(u64),
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct REntry {
    /// Original (addr, len); `None` for payload entries.
    orig: Option<(u64, u8)>,
    /// Extra original instruction consumed by a pair rewrite.
    orig_extra: Option<(u64, u8)>,
    kind: RKind,
    /// Offset from the fragment base (which layout keeps
    /// instruction-aligned, preserving per-entry alignment).
    new_addr: u64,
    size: u64,
}

/// Everything relocation needs.
pub(crate) struct RelocateInput<'a> {
    pub binary: &'a Binary,
    pub analysis: &'a BinaryAnalysis,
    pub config: &'a RewriteConfig,
    pub instr: &'a Instrumentation,
    /// `.jt_clone` base (clones precede `.instr`).
    pub clone_base: u64,
    /// The `.jt_clone` layout, in address order (each function's
    /// clones adjacent, in `jump_tables` order).
    pub clones: &'a [CloneSlot<'a>],
    /// `.instr` base.
    pub instr_base: u64,
    /// Emit the buggy call emulation for stack-indirect calls.
    pub emulation_stack_bug: bool,
    /// Weak (cross-binary) per-function analysis identities (from
    /// [`crate::cache::analyze_incremental`]); fragment keys derive
    /// from these so relocation work is shared across
    /// near-identical binaries.
    pub weak_keys: &'a BTreeMap<u64, u64>,
}

/// An address-independent per-function relocation recipe: the sized
/// entry list, with offsets relative to the fragment base.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct FuncFragment {
    entries: Vec<REntry>,
    /// Original block start → index of the block's first entry.
    block_starts: Vec<(u64, usize)>,
    /// Counter payload slots used (local numbering from 0).
    counter_slots: usize,
    /// Fragment size in bytes.
    size: u64,
}

/// One function's emitted relocated code plus its return-address map
/// contributions (absolute addresses, produced by [`fixup`] — never
/// cached).
#[derive(Debug, Clone)]
pub(crate) struct EmittedFunc {
    bytes: Vec<u8>,
    /// (relocated RA, original RA) pairs, in entry order.
    ra_pairs: Vec<(u64, u64)>,
}

/// How a patch span's bytes depend on the final layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) enum PatchKind {
    /// Re-encoded against the span's own final address (pc-relative
    /// data references, page materialisations).
    SelfRel,
    /// Re-encoded against another function's or block's resolved
    /// address (branches, fp materialisations, emulated calls).
    TargetRel,
    /// Re-encoded against an assigned jump-table clone address.
    TableSlot,
    /// Re-encoded against the assigned `.icounters` slot address.
    CounterSlot,
}

/// One layout-dependent span of a canonical emission.
#[derive(Debug, Clone, Hash, Serialize, Deserialize)]
pub(crate) struct PatchPoint {
    /// Index of the fragment entry the span belongs to.
    entry_idx: usize,
    /// Span offset from the fragment base (== the entry's `new_addr`).
    off: u64,
    /// Span width in bytes (== the entry's sized length).
    width: u64,
    /// Dependency class (validated against the entry's kind).
    kind: PatchKind,
}

/// The cached, position-independent emission of one fragment: the
/// bytes as emitted at base 0 with every layout-dependent span
/// nop-filled, plus the patch-point list [`fixup`] re-encodes. Shared
/// across binaries (weak-keyed), so a decoded payload re-validates
/// structurally against the fragment on every lookup; a mismatch can
/// only be corruption and quarantines rather than mis-fixing a span.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct RelocEmit {
    bytes: Vec<u8>,
    patches: Vec<PatchPoint>,
    /// Self-fingerprint over `(bytes, patches)`, checked on decode.
    self_fp: u64,
}

/// The patch class a fragment entry needs, `None` when its encoding
/// is position-independent (cached verbatim in the canonical bytes).
fn patch_kind_of(kind: &RKind) -> Option<PatchKind> {
    match kind {
        RKind::PcRelData { .. } | RKind::PcRelPage { .. } => Some(PatchKind::SelfRel),
        RKind::BranchOrig { .. } | RKind::FpImm { .. } | RKind::EmulatedCall { .. } => {
            Some(PatchKind::TargetRel)
        }
        RKind::JtBase { .. } | RKind::JtMemJump { .. } => Some(PatchKind::TableSlot),
        RKind::CounterPayload { .. } => Some(PatchKind::CounterSlot),
        RKind::Copy(_)
        | RKind::Payload(_)
        | RKind::GoRaPayload
        | RKind::JtLoadWiden { .. }
        | RKind::Pad(_) => None,
    }
}

impl RelocEmit {
    fn fingerprint(bytes: &[u8], patches: &[PatchPoint]) -> u64 {
        let mut h = DefaultHasher::new();
        0x5E1F_F21Du64.hash(&mut h);
        h.write(bytes);
        patches.hash(&mut h);
        h.finish()
    }

    /// Whether this decoded emission structurally belongs to `frag`:
    /// byte length, self-fingerprint, and a patch point per
    /// layout-dependent entry, in order, with matching spans. Run on
    /// every fragment lookup before any fix-up; failure quarantines.
    pub(crate) fn validates(&self, frag: &FuncFragment) -> bool {
        if self.bytes.len() as u64 != frag.size
            || self.self_fp != Self::fingerprint(&self.bytes, &self.patches)
        {
            return false;
        }
        let mut want = frag.entries.iter().enumerate().filter_map(|(i, e)| {
            patch_kind_of(&e.kind).map(|k| (i, e.new_addr, e.size, k))
        });
        for p in &self.patches {
            match want.next() {
                Some((i, off, width, kind))
                    if p.entry_idx == i && p.off == off && p.width == width && p.kind == kind => {}
                _ => return false,
            }
        }
        want.next().is_none()
    }

    /// Deterministically corrupt one patch point (or the fingerprint
    /// when there are none) — the chaos-fault hook for exercising the
    /// quarantine path.
    pub(crate) fn corrupt_one_patch_point(&mut self) {
        match self.patches.first_mut() {
            Some(p) => p.off ^= 1,
            None => self.self_fp ^= 1,
        }
    }
}

/// Relocate all selected functions. Cache outcomes and per-function
/// wall-time samples land on the cache's trace spine, not in the
/// return value.
pub(crate) fn relocate(
    input: &RelocateInput<'_>,
    cache: &RewriteCache,
    threads: usize,
) -> Result<RelocatedCode, RewriteError> {
    let binary = input.binary;
    let arch = binary.arch;
    let config = input.config;
    let pie = binary.meta.pie;
    let toc = binary.toc_base;

    // Selected, analysable functions, in layout order.
    let mut selected: Vec<&FuncCfg> = input
        .analysis
        .funcs
        .values()
        .filter(|f| {
            f.status == FuncStatus::Ok
                && input.instr.points.selects_function(f.entry)
                && config.func_mode(f.entry) != FuncMode::Skip
        })
        .collect();
    if config.layout == LayoutOrder::ReverseFunctions {
        selected.reverse();
    }
    let relocated_ranges: Vec<(u64, u64)> = selected.iter().map(|f| (f.start, f.end)).collect();

    // Far-branch decision for branches from `.instr` back to original
    // code (conservative span estimate; only matters on RISC).
    let far_to_orig = if arch == Arch::X64 {
        false
    } else {
        let span = input.instr_base + 4 * binary.loaded_size() - binary.sections()[0].addr();
        span as i64 > arch.short_branch_reach() - (1 << 20)
    };

    // ----- build fragments (parallel, cached) --------------------------
    let binary_fp = crate::cache::binary_fingerprint(binary);
    let instr_fp = hash_of(input.instr);
    let keyed: Vec<(&FuncCfg, u64, u64)> = selected
        .iter()
        .map(|f| {
            let cfg_fp = cfg_fingerprint(f);
            (*f, fragment_key(input, f, cfg_fp, instr_fp, far_to_orig, &relocated_ranges), cfg_fp)
        })
        .collect();
    let frag_results = pool::map(threads, &keyed, |_, (func, key, cfg_fp)| {
        let started = std::time::Instant::now();
        let out = cache.lookup(
            *key,
            binary_fp,
            |p: &FragPayload| p.cfg_fp == *cfg_fp && p.emit.validates(&p.frag),
            || -> Result<_, RewriteError> {
                let frag = build_fragment(input, func, far_to_orig, &relocated_ranges)?;
                let emit = canonical_emit(&frag, arch)?;
                Ok(FragPayload { frag, emit, cfg_fp: *cfg_fp, origin_fp: binary_fp })
            },
        );
        (out, u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX))
    });
    let trace = cache.trace();
    let mut frags: Vec<Arc<FragPayload>> = Vec::with_capacity(keyed.len());
    for ((func, _, _), (r, ns)) in keyed.iter().zip(frag_results) {
        // Timing events come from the orchestrator so the trace stream
        // stays deterministic across thread counts.
        trace.emit(TraceEvent::FuncSpan { entry: func.entry, ns });
        frags.push(r?);
    }

    // ----- clones at their laid-out addresses --------------------------
    let mut clones: Vec<TableClone> = Vec::new();
    let mut func_clone_addrs: HashMap<u64, Vec<u64>> = HashMap::new(); // entry -> clone addrs
    for slot in input.clones {
        func_clone_addrs.entry(slot.func).or_default().push(slot.clone_addr);
        clones.push(TableClone {
            desc: slot.desc.clone(),
            clone_addr: slot.clone_addr,
            entry_width: slot.entry_width,
            bytes: Vec::new(),
            reloc_slots: Vec::new(),
        });
    }

    // ----- layout (sequential, cheap) ----------------------------------
    // Functions arrive in address order and entries ascend within a
    // fragment, so both maps are built from already-sorted pairs —
    // collect + from_iter bulk-builds the trees instead of paying a
    // tree insert per instruction on every (warm) rewrite.
    let mut inst_pairs: Vec<(u64, u64)> = Vec::new();
    let mut block_pairs: Vec<(u64, u64)> = Vec::new();
    let mut placed: Vec<(u64, usize)> = Vec::with_capacity(frags.len()); // (base, slot base)
    let mut cursor = input.instr_base;
    let mut slot_cursor = 0usize;
    for p in &frags {
        let frag = &p.frag;
        let base = align_up(cursor, arch.inst_align());
        for e in &frag.entries {
            if let Some((a, _)) = e.orig {
                inst_pairs.push((a, base + e.new_addr));
            }
            if let Some((a, _)) = e.orig_extra {
                // Second member of a pair: lands mid-entry; map to the
                // entry start (good enough for fp deltas).
                inst_pairs.push((a, base + e.new_addr));
            }
        }
        for (bstart, idx) in &frag.block_starts {
            block_pairs.push((*bstart, base + frag.entries[*idx].new_addr));
        }
        placed.push((base, slot_cursor));
        slot_cursor += frag.counter_slots;
        cursor = base + frag.size;
    }
    let inst_map: BTreeMap<u64, u64> = inst_pairs.into_iter().collect();
    let block_map: BTreeMap<u64, u64> = block_pairs.into_iter().collect();
    let instr_end = cursor;
    let counter_slots = slot_cursor;
    let icounters_base = align_up(instr_end, 0x1000);

    let resolve = |orig: u64| -> u64 {
        if let Some(v) = block_map.get(&orig) {
            return *v;
        }
        if let Some(v) = inst_map.get(&orig) {
            return *v;
        }
        orig
    };

    // ----- fix-up (parallel, per function) -----------------------------
    let empty_addrs: Vec<u64> = Vec::new();
    let emit_results = pool::map(threads, &frags, |i, p| {
        let (base, slot_base) = placed[i];
        let clone_addrs = func_clone_addrs.get(&keyed[i].0.entry).unwrap_or(&empty_addrs);
        let started = std::time::Instant::now();
        let out = fixup(
            &p.emit,
            &p.frag,
            base,
            arch,
            pie,
            toc,
            &resolve,
            clone_addrs,
            slot_base,
            icounters_base,
            input.emulation_stack_bug,
        );
        (out, u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX))
    });

    // ----- merge (deterministic, address order of the layout) ----------
    let nop = encode(&Inst::Nop, arch).expect("nop");
    let mut code: Vec<u8> = Vec::with_capacity((instr_end - input.instr_base) as usize);
    let mut ra_map = RaMap::new();
    for (i, (r, ns)) in emit_results.into_iter().enumerate() {
        let emitted = r?;
        trace.emit(TraceEvent::FuncSpan { entry: keyed[i].0.entry, ns });
        let (base, _) = placed[i];
        // Alignment padding between fragments.
        while input.instr_base + code.len() as u64 != base {
            code.extend_from_slice(&nop);
        }
        debug_assert_eq!(emitted.bytes.len() as u64, frags[i].frag.size);
        code.extend_from_slice(&emitted.bytes);
        for (ra, oa) in &emitted.ra_pairs {
            ra_map.insert(*ra, *oa);
        }
    }
    debug_assert_eq!(input.instr_base + code.len() as u64, instr_end);

    // ----- fill clones --------------------------------------------------------
    let mut inplace_table_writes = Vec::new();
    let mut filled: Vec<TableClone> = Vec::new();
    for clone in clones {
        let desc = &clone.desc;
        let mut bytes = Vec::with_capacity((desc.count * u64::from(clone.entry_width)) as usize);
        let mut reloc_slots = Vec::new();
        let targets: HashMap<u64, u64> = desc.targets.iter().copied().collect();
        for i in 0..desc.count {
            let value: i64 = if let Some(t) = targets.get(&i) {
                let v = desc.kind.entry_for(resolve(*t), clone.clone_addr);
                if pie && desc.kind == icfgp_cfg::TableKind::Absolute {
                    // The loader must rebase absolute entries.
                    reloc_slots
                        .push((clone.clone_addr + i * u64::from(clone.entry_width), v as u64));
                }
                v
            } else {
                // Over-approximation garbage: copy the original raw
                // value (sign-extended); never dereferenced at run
                // time (§5.1 Failure 3).
                read_entry_raw(binary, desc, i)
            };
            if clone.entry_width == 4 && i32::try_from(value).is_err() {
                return Err(RewriteError::TableEntryOverflow {
                    table: desc.table_addr,
                    value,
                });
            }
            bytes.extend_from_slice(&value.to_le_bytes()[..clone.entry_width as usize]);
        }
        filled.push(TableClone { bytes, reloc_slots, ..clone });
    }
    // In-place ablation: overwrite the original table instead.
    if !config.clone_tables {
        for func in &selected {
            if !matches!(config.rewrite_mode_for(func.entry), Some(m) if m >= RewriteMode::Jt) {
                continue;
            }
            for desc in &func.jump_tables {
                if !table_cloneable(func, desc) {
                    continue;
                }
                let targets: HashMap<u64, u64> = desc.targets.iter().copied().collect();
                let mut bytes = Vec::new();
                for i in 0..desc.count {
                    let value: i64 = if let Some(t) = targets.get(&i) {
                        desc.kind.entry_for(resolve(*t), desc.table_addr)
                    } else {
                        read_entry_raw(binary, desc, i)
                    };
                    // Truncate into the original width — compact tables
                    // overflow here, absolute tables overrun their real
                    // end under over-approximation. Both are the
                    // documented failure.
                    bytes.extend_from_slice(&value.to_le_bytes()[..desc.entry_width as usize]);
                }
                inplace_table_writes.push((desc.table_addr, bytes));
            }
        }
    }

    Ok(RelocatedCode {
        code,
        base: input.instr_base,
        block_map,
        inst_map,
        ra_map,
        clones: filled,
        clone_base: input.clone_base,
        counter_slots,
        icounters_base,
        inplace_table_writes,
    })
}

/// The content-addressed identity of one function's fragment: the
/// *weak* (cross-binary) CFG identity plus a content fingerprint of
/// the analysed CFG itself, the Go-traceback attribute (the only
/// other symbol bit the build reads), the ladder rung, every
/// rewrite-config bit the fragment build reads, the instrumentation
/// request, and the cross-function inputs (function-pointer sites
/// with their owners' rungs; the relocated ranges when far-branch
/// decisions apply). No whole-binary fingerprint and no layout base:
/// near-identical binaries, and successive ladder rounds of one
/// binary, share fragments.
fn fragment_key(
    input: &RelocateInput<'_>,
    func: &FuncCfg,
    cfg_fp: u64,
    instr_fp: u64,
    far_to_orig: bool,
    relocated_ranges: &[(u64, u64)],
) -> u64 {
    let config = input.config;
    let weak_key = input.weak_keys.get(&func.entry).copied().unwrap_or_else(unique_key);
    let go_traceback = input
        .binary
        .function_starting_at(func.entry)
        .is_some_and(|s| s.attrs.is_go_traceback);
    let mut h = DefaultHasher::new();
    0xF7A7u64.hash(&mut h);
    weak_key.hash(&mut h);
    cfg_fp.hash(&mut h);
    go_traceback.hash(&mut h);
    func.fp_landing_targets.hash(&mut h);
    config.func_mode(func.entry).hash(&mut h);
    config.mode.hash(&mut h);
    config.unwind.hash(&mut h);
    config.clone_tables.hash(&mut h);
    config.layout.hash(&mut h);
    config.indirect_site_padding.hash(&mut h);
    instr_fp.hash(&mut h);
    far_to_orig.hash(&mut h);
    if far_to_orig {
        // Only far decisions read the relocated set; keeping it out of
        // the key otherwise lets ladder demotions leave other
        // functions' fragments warm.
        relocated_ranges.hash(&mut h);
    }
    if config.mode == RewriteMode::FuncPtr
        && config.rewrite_mode_for(func.entry) == Some(RewriteMode::FuncPtr)
    {
        for def in &input.analysis.fp_defs {
            let FpDefSite::CodeImm { inst_addr, pair_first } = def.site else { continue };
            if inst_addr < func.start || inst_addr >= func.end {
                continue;
            }
            let owner = input
                .analysis
                .func_at(def.target_fn.wrapping_add_signed(def.delta))
                .map_or(def.target_fn, |f| f.entry);
            inst_addr.hash(&mut h);
            def.target_fn.hash(&mut h);
            def.delta.hash(&mut h);
            pair_first.hash(&mut h);
            (config.rewrite_mode_for(owner) == Some(RewriteMode::FuncPtr)).hash(&mut h);
        }
    }
    h.finish()
}

/// Build one function's fragment: classify every instruction of every
/// block into relocation entries and size them. Pure in the function's
/// CFG, its ladder rung, the config bits hashed by [`fragment_key`]
/// and (on RISC) the relocated ranges.
fn build_fragment(
    input: &RelocateInput<'_>,
    func: &FuncCfg,
    far_to_orig: bool,
    relocated_ranges: &[(u64, u64)],
) -> Result<FuncFragment, RewriteError> {
    let binary = input.binary;
    let arch = binary.arch;
    let config = input.config;
    let pie = binary.meta.pie;
    let is_relocated = |addr: u64| relocated_ranges.iter().any(|(s, e)| addr >= *s && addr < *e);
    let go_payload = config.unwind == UnwindStrategy::RaTranslation && binary.pclntab.is_some();

    // Local clone indices: the function's cloneable tables in
    // `jump_tables` order, mirroring the global assignment walk.
    let mut local_clone_idx: HashMap<u64, usize> = HashMap::new(); // jump_addr -> local idx
    if config.clone_tables
        && matches!(config.rewrite_mode_for(func.entry), Some(m) if m >= RewriteMode::Jt)
    {
        let mut next = 0usize;
        for desc in &func.jump_tables {
            if table_cloneable(func, desc) {
                local_clone_idx.insert(desc.jump_addr, next);
                next += 1;
            }
        }
    }

    let mut entries: Vec<REntry> = Vec::new();
    let mut block_starts: Vec<(u64, usize)> = Vec::new();
    let mut counter_slots = 0usize;

    // Per-function rewrite site maps.
    let mut base_site: HashMap<u64, (usize, bool)> = HashMap::new(); // first inst -> (clone idx, pair)
    let mut base_covered: HashMap<u64, usize> = HashMap::new(); // any base inst -> clone idx
    let mut widen_site: HashMap<u64, usize> = HashMap::new(); // load addr -> clone idx
    let mut memjump_site: HashMap<u64, usize> = HashMap::new();
    for desc in &func.jump_tables {
        let Some(&idx) = local_clone_idx.get(&desc.jump_addr) else { continue };
        if desc.base_insts.is_empty() {
            // Displacement-form memory jump.
            memjump_site.insert(desc.jump_addr, idx);
            continue;
        }
        base_site.insert(desc.base_insts[0], (idx, desc.base_insts.len() == 2));
        for a in &desc.base_insts {
            base_covered.insert(*a, idx);
        }
        if desc.entry_width < 4 {
            widen_site.insert(desc.load_addr, idx);
        }
    }
    let mut fp_site: HashMap<u64, (u64, i64, bool)> = HashMap::new(); // first inst -> (fn, delta, pair)
    let mut fp_covered: HashMap<u64, ()> = HashMap::new();
    if config.mode == RewriteMode::FuncPtr
        && config.rewrite_mode_for(func.entry) == Some(RewriteMode::FuncPtr)
    {
        for def in &input.analysis.fp_defs {
            let FpDefSite::CodeImm { inst_addr, pair_first } = def.site else { continue };
            if inst_addr < func.start || inst_addr >= func.end {
                continue;
            }
            // Keep pointers into demoted functions aimed at their
            // (intact) original code.
            let owner = input
                .analysis
                .func_at(def.target_fn.wrapping_add_signed(def.delta))
                .map_or(def.target_fn, |f| f.entry);
            if config.rewrite_mode_for(owner) != Some(RewriteMode::FuncPtr) {
                continue;
            }
            if base_covered.contains_key(&inst_addr) {
                continue;
            }
            match pair_first {
                Some(first) => {
                    // Pairs must be adjacent to rewrite as a unit.
                    let adjacent = func
                        .insts
                        .get(&first)
                        .is_some_and(|(_, l)| first + u64::from(*l) == inst_addr);
                    if adjacent && !base_covered.contains_key(&first) {
                        fp_site.insert(first, (def.target_fn, def.delta, true));
                        fp_covered.insert(first, ());
                        fp_covered.insert(inst_addr, ());
                    }
                }
                None => {
                    fp_site.insert(inst_addr, (def.target_fn, def.delta, false));
                    fp_covered.insert(inst_addr, ());
                }
            }
        }
    }

    let mut blocks: Vec<u64> = func.blocks.keys().copied().collect();
    if config.layout == LayoutOrder::ReverseBlocks {
        blocks.reverse();
    }
    for (bi, bstart) in blocks.iter().copied().enumerate() {
        let block = &func.blocks[&bstart];
        block_starts.push((bstart, entries.len()));
        let mut block_has_leader_entry = false;
        // Go traceback RA-translation instrumentation at the
        // entries of findfunc/pcvalue analogs (§6.2).
        if go_payload && bstart == func.entry {
            if let Some(sym) = binary.function_starting_at(func.entry) {
                if sym.attrs.is_go_traceback {
                    entries.push(REntry {
                        orig: None,
                        orig_extra: None,
                        kind: RKind::GoRaPayload,
                        new_addr: 0,
                        size: 0,
                    });
                    block_has_leader_entry = true;
                }
            }
        }
        if input.instr.points.selects_block(func.entry, bstart) {
            match &input.instr.payload {
                Payload::Empty => {}
                Payload::Insts(insts) => {
                    for inst in insts {
                        entries.push(REntry {
                            orig: None,
                            orig_extra: None,
                            kind: RKind::Payload(inst.clone()),
                            new_addr: 0,
                            size: 0,
                        });
                    }
                }
                Payload::BlockCounter { .. } => {
                    entries.push(REntry {
                        orig: None,
                        orig_extra: None,
                        kind: RKind::CounterPayload { slot: counter_slots },
                        new_addr: 0,
                        size: 0,
                    });
                    counter_slots += 1;
                }
            }
        }
        let _ = block_has_leader_entry;

        // Block instructions.
        let mut skip_next: Option<u64> = None;
        for (addr, (inst, len)) in func.insts.range(block.start..block.end) {
            if skip_next == Some(*addr) {
                skip_next = None;
                continue;
            }
            let orig = Some((*addr, *len));
            // Jump-table base retarget?
            if let Some((idx, pair)) = base_site.get(addr) {
                let mut orig_extra = None;
                if *pair {
                    let second = addr + u64::from(*len);
                    if let Some((_, l2)) = func.insts.get(&second) {
                        orig_extra = Some((second, *l2));
                        skip_next = Some(second);
                    }
                }
                entries.push(REntry {
                    orig,
                    orig_extra,
                    kind: RKind::JtBase { inst: inst.clone(), clone_idx: *idx, pair: *pair },
                    new_addr: 0,
                    size: 0,
                });
                continue;
            }
            if base_covered.contains_key(addr) {
                // Second instruction of a base pair: consumed above.
                continue;
            }
            // Function-pointer materialisation retarget?
            if let Some((target_fn, delta, pair)) = fp_site.get(addr) {
                let mut orig_extra = None;
                if *pair {
                    let second = addr + u64::from(*len);
                    if let Some((_, l2)) = func.insts.get(&second) {
                        orig_extra = Some((second, *l2));
                        skip_next = Some(second);
                    }
                }
                entries.push(REntry {
                    orig,
                    orig_extra,
                    kind: RKind::FpImm {
                        inst: inst.clone(),
                        target_fn: *target_fn,
                        delta: *delta,
                        pair: *pair,
                    },
                    new_addr: 0,
                    size: 0,
                });
                continue;
            }
            if fp_covered.contains_key(addr) {
                continue;
            }
            // Displacement-form memory-indirect table jump?
            if let Some(idx) = memjump_site.get(addr) {
                entries.push(REntry {
                    orig,
                    orig_extra: None,
                    kind: RKind::JtMemJump { inst: inst.clone(), clone_idx: *idx },
                    new_addr: 0,
                    size: 0,
                });
                continue;
            }
            // Widened compact-table load?
            if widen_site.contains_key(addr) {
                entries.push(REntry {
                    orig,
                    orig_extra: None,
                    kind: RKind::JtLoadWiden { inst: inst.clone() },
                    new_addr: 0,
                    size: 0,
                });
                continue;
            }
            // Calls under emulation.
            if inst.is_call() && config.unwind == UnwindStrategy::CallEmulation {
                let direct_target = inst.direct_offset().map(|o| addr.wrapping_add_signed(o));
                let far = far_to_orig && direct_target.is_some_and(|t| !is_relocated(t));
                let pad_after = config.indirect_site_padding > 0 && inst.is_indirect();
                entries.push(REntry {
                    orig,
                    orig_extra: None,
                    kind: RKind::EmulatedCall {
                        call: inst.clone(),
                        orig_ret: addr + u64::from(*len),
                        direct_target,
                        far,
                    },
                    new_addr: 0,
                    size: 0,
                });
                if pad_after {
                    entries.push(REntry {
                        orig: None,
                        orig_extra: None,
                        kind: RKind::Pad(config.indirect_site_padding),
                        new_addr: 0,
                        size: 0,
                    });
                }
                continue;
            }
            // Direct branches / calls.
            if let Some(off) = inst.direct_offset() {
                let orig_target = addr.wrapping_add_signed(off);
                let bkind = match inst {
                    Inst::Call { .. } => BKind::Call,
                    Inst::JumpCond { cond, .. } => BKind::Cond(*cond),
                    _ => BKind::Jump,
                };
                let far = far_to_orig && !is_relocated(orig_target);
                if far && matches!(bkind, BKind::Cond(_)) {
                    return Err(RewriteError::Unsupported(
                        "conditional branch to unrelocated far target".to_string(),
                    ));
                }
                entries.push(REntry {
                    orig,
                    orig_extra: None,
                    kind: RKind::BranchOrig { bkind, orig_target, far },
                    new_addr: 0,
                    size: 0,
                });
                continue;
            }
            // PC-relative data / pages.
            let pcrel = match inst {
                Inst::Load { addr: a, .. }
                | Inst::Store { addr: a, .. }
                | Inst::Lea { addr: a, .. }
                | Inst::JumpMem { addr: a }
                | Inst::CallMem { addr: a } => a.pc_rel,
                _ => false,
            };
            if pcrel {
                entries.push(REntry {
                    orig,
                    orig_extra: None,
                    kind: RKind::PcRelData { inst: inst.clone(), orig_addr: *addr },
                    new_addr: 0,
                    size: 0,
                });
                continue;
            }
            if let Inst::AdrPage { dst, page_delta } = inst {
                let page_value = (addr & !0xFFF).wrapping_add_signed(page_delta << 12);
                entries.push(REntry {
                    orig,
                    orig_extra: None,
                    kind: RKind::PcRelPage { page_value, dst: *dst },
                    new_addr: 0,
                    size: 0,
                });
                continue;
            }
            let pad_after = config.indirect_site_padding > 0 && inst.is_indirect();
            entries.push(REntry {
                orig,
                orig_extra: None,
                kind: RKind::Copy(inst.clone()),
                new_addr: 0,
                size: 0,
            });
            if pad_after {
                entries.push(REntry {
                    orig: None,
                    orig_extra: None,
                    kind: RKind::Pad(config.indirect_site_padding),
                    new_addr: 0,
                    size: 0,
                });
            }
        }
        // Fall-through repair: when the physically-next emitted
        // block is not this block's fall-through successor (block
        // reordering, or gaps), make the fall-through explicit.
        let falls = func
            .insts
            .range(block.start..block.end)
            .next_back()
            .is_some_and(|(_, (inst, _))| inst.falls_through());
        let next_emitted = blocks.get(bi + 1).copied();
        if falls && next_emitted != Some(block.end) {
            entries.push(REntry {
                orig: None,
                orig_extra: None,
                kind: RKind::BranchOrig {
                    bkind: BKind::Jump,
                    orig_target: block.end,
                    far: far_to_orig && !is_relocated(block.end),
                },
                new_addr: 0,
                size: 0,
            });
        }
    }

    // ----- sizing (fragment-relative) ----------------------------------
    let mut cursor = 0u64;
    let mut scratch = Vec::with_capacity(arch.max_inst_len());
    for e in &mut entries {
        // Keep RISC alignment (the fragment base is aligned by layout).
        cursor = align_up(cursor, arch.inst_align());
        e.new_addr = cursor;
        e.size = entry_size(&e.kind, arch, pie, &mut scratch)?;
        cursor += e.size;
    }

    Ok(FuncFragment { entries, block_starts, counter_slots, size: cursor })
}

/// Pad `out` with whole nops up to `end` bytes and truncate to exactly
/// `end` (a trailing partial nop is acceptable slack — it is never
/// reached).
fn pad_to(out: &mut Vec<u8>, end: u64, nop: &[u8]) {
    while (out.len() as u64) < end {
        out.extend_from_slice(nop);
    }
    out.truncate(end as usize);
}

/// Nop-fill the rest of `e`'s sized slot; `out` holds the fragment from
/// offset 0 and the entry's emission ends it.
fn fill_slot(out: &mut Vec<u8>, e: &REntry, nop: &[u8]) {
    let end = e.new_addr + e.size;
    debug_assert!(
        out.len() as u64 <= end,
        "entry emitted {} > sized {} for {:?}",
        out.len() as u64 - e.new_addr,
        e.size,
        e.kind
    );
    pad_to(out, end, nop);
}

/// Emit one fragment's canonical (base-0, position-independent) form:
/// position-independent entries encode verbatim; layout-dependent
/// entries become nop-filled spans recorded as patch points. Pure in
/// the fragment and the architecture — the fragment record stores it
/// and shares it across binaries.
fn canonical_emit(frag: &FuncFragment, arch: Arch) -> Result<RelocEmit, RewriteError> {
    let nop = encode(&Inst::Nop, arch)?;
    let mut bytes: Vec<u8> = Vec::with_capacity(frag.size as usize);
    let mut patches: Vec<PatchPoint> = Vec::new();
    for (i, e) in frag.entries.iter().enumerate() {
        // Alignment padding between entries.
        pad_to(&mut bytes, e.new_addr, &nop);
        if let Some(kind) = patch_kind_of(&e.kind) {
            patches.push(PatchPoint { entry_idx: i, off: e.new_addr, width: e.size, kind });
        } else {
            // Position-independent entries never read the layout
            // inputs; encode them at their canonical offset with inert
            // stand-ins.
            let at = e.new_addr;
            emit_entry(&mut bytes, e, at, arch, false, None, &|orig| orig, &[], 0, 0, false)?;
        }
        fill_slot(&mut bytes, e, &nop);
    }
    let self_fp = RelocEmit::fingerprint(&bytes, &patches);
    Ok(RelocEmit { bytes, patches, self_fp })
}

/// Fix up a canonical emission against the real layout: copy the
/// canonical bytes between patch spans and re-encode each span at
/// `base` with the assigned clone/counter addresses and the resolve
/// map, and collect the RA-map pairs. Runs the same per-entry encoder a
/// cold emission runs, so the result is byte-identical to emitting the
/// whole fragment at `base` directly.
#[allow(clippy::too_many_arguments)]
fn fixup(
    canonical: &RelocEmit,
    frag: &FuncFragment,
    base: u64,
    arch: Arch,
    pie: bool,
    toc: Option<u64>,
    resolve: &(impl Fn(u64) -> u64 + Sync),
    clone_addrs: &[u64],
    slot_base: usize,
    icounters_base: u64,
    emulation_stack_bug: bool,
) -> Result<EmittedFunc, RewriteError> {
    let nop = encode(&Inst::Nop, arch)?;
    let canon = &canonical.bytes;
    let mut bytes = Vec::with_capacity(canon.len());
    for p in &canonical.patches {
        let e = &frag.entries[p.entry_idx];
        bytes.extend_from_slice(&canon[bytes.len()..e.new_addr as usize]);
        emit_entry(
            &mut bytes,
            e,
            base + e.new_addr,
            arch,
            pie,
            toc,
            resolve,
            clone_addrs,
            slot_base,
            icounters_base,
            emulation_stack_bug,
        )?;
        fill_slot(&mut bytes, e, &nop);
    }
    bytes.extend_from_slice(&canon[bytes.len()..]);
    // RA map entries: real calls and throw sites.
    let mut ra_pairs: Vec<(u64, u64)> = Vec::new();
    for e in &frag.entries {
        let at = base + e.new_addr;
        match &e.kind {
            RKind::BranchOrig { bkind: BKind::Call, .. } => {
                let (oa, ol) = e.orig.expect("calls have originals");
                ra_pairs.push((at + e.size, oa + u64::from(ol)));
            }
            RKind::Copy(inst) if inst.is_call() => {
                let (oa, ol) = e.orig.expect("calls have originals");
                ra_pairs.push((at + e.size, oa + u64::from(ol)));
            }
            // Throw sites are recorded under *both* unwind strategies:
            // in the real system `__cxa_throw` is itself entered by an
            // (emulated or real) call, so its frame is attributable;
            // our Throw-as-instruction model needs the site mapped.
            RKind::Copy(Inst::Sys { op: SysOp::Throw, .. }) => {
                let (oa, _) = e.orig.expect("throws have originals");
                ra_pairs.push((at, oa));
            }
            _ => {}
        }
    }
    Ok(EmittedFunc { bytes, ra_pairs })
}

fn read_entry_raw(binary: &Binary, desc: &JumpTableDesc, i: u64) -> i64 {
    let addr = desc.table_addr + i * u64::from(desc.entry_width);
    let Ok(bytes) = binary.read(addr, desc.entry_width as usize) else { return 0 };
    let mut buf = [0u8; 8];
    buf[..bytes.len()].copy_from_slice(bytes);
    let v = u64::from_le_bytes(buf) as i64;
    if desc.kind.signed() && desc.entry_width < 8 {
        let shift = 64 - u32::from(desc.entry_width) * 8;
        (v << shift) >> shift
    } else {
        v
    }
}

fn align_up(v: u64, a: u64) -> u64 {
    if a <= 1 {
        v
    } else {
        v + (a - (v % a)) % a
    }
}

/// Encoded length of `inst`, measured in `scratch` (reused across a
/// fragment's entries).
fn inst_len(inst: &Inst, arch: Arch, scratch: &mut Vec<u8>) -> Result<u64, RewriteError> {
    scratch.clear();
    Ok(encode_into(inst, arch, scratch)? as u64)
}

/// Deterministic entry sizes (stable across sizing and emission).
fn entry_size(
    kind: &RKind,
    arch: Arch,
    pie: bool,
    scratch: &mut Vec<u8>,
) -> Result<u64, RewriteError> {
    let x64 = arch == Arch::X64;
    let long = arch.long_branch_len() as u64;
    let short = arch.short_branch_len() as u64;
    Ok(match kind {
        RKind::Copy(inst) | RKind::Payload(inst) => inst_len(inst, arch, scratch)?,
        RKind::CounterPayload { .. } => {
            if x64 {
                17 // load(7) + add(3) + store(7), pc-relative
            } else {
                // addr pair(8) + load(4) + add(4) + store(4) emit 20
                // bytes; the slot keeps 4 spare.
                24
            }
        }
        RKind::GoRaPayload => {
            if x64 {
                6 // add r15, sp, off (3) + sys (3)
            } else {
                8
            }
        }
        RKind::BranchOrig { bkind: BKind::Cond(_), .. } if x64 => 6, // jcc rel32
        // x64 jumps and calls take the 5-byte near form; RISC ones the
        // one-word branch, or the long form back into original code.
        RKind::BranchOrig { far, .. } => {
            if x64 || *far {
                long
            } else {
                short
            }
        }
        RKind::PcRelData { inst, .. } => {
            // PC-relative forms always carry disp32: fixed size.
            inst_len(inst, arch, scratch)?
        }
        RKind::PcRelPage { .. } => 4,
        RKind::JtBase { pair, .. } | RKind::FpImm { pair, .. } => {
            if x64 {
                if pie {
                    7 // lea
                } else {
                    6 // mov imm32 (clone addresses stay below 2^31)
                }
            } else if *pair {
                8
            } else {
                4
            }
        }
        RKind::JtLoadWiden { inst } => {
            // Same structural encoding, different width/scale bits.
            inst_len(inst, arch, scratch)?
        }
        RKind::JtMemJump { inst, .. } => {
            // Worst case: the displacement widens to i32.
            let widened = match inst {
                Inst::JumpMem { addr } => {
                    let mut a = *addr;
                    a.disp = 0x7fff_0000;
                    Inst::JumpMem { addr: a }
                }
                other => other.clone(),
            };
            inst_len(&widened, arch, scratch)?
        }
        RKind::Pad(n) => *n,
        RKind::EmulatedCall { call, far, .. } => {
            if x64 {
                // lea r15, [rip + d] (7) in a PIE, else mov r15, imm32
                // (6); push (1); jump form
                let jump_len = match call {
                    Inst::Call { .. } => long,
                    Inst::CallReg { .. } => 2,
                    Inst::CallMem { .. } => inst_len(call, arch, scratch)?, // same operand bytes
                    _ => return Err(RewriteError::Unsupported("emulated call form".into())),
                };
                (if pie { 7 } else { 6 }) + 1 + jump_len
            } else {
                // addr pair (8) + mtlr (4) + jump form
                8 + 4 + if *far { long } else { short }
            }
        }
    })
}

/// Append `e`'s encoding, placed at `at`, to `out`.
#[allow(clippy::too_many_arguments)]
fn emit_entry(
    out: &mut Vec<u8>,
    e: &REntry,
    at: u64,
    arch: Arch,
    pie: bool,
    toc: Option<u64>,
    resolve: &(impl Fn(u64) -> u64 + Sync),
    clone_addrs: &[u64],
    slot_base: usize,
    icounters_base: u64,
    emulation_stack_bug: bool,
) -> Result<(), RewriteError> {
    let start = out.len();
    // Address of the next byte appended.
    let here = |out: &Vec<u8>| at + (out.len() - start) as u64;
    let x64 = arch == Arch::X64;
    match &e.kind {
        RKind::Pad(_) => {}
        RKind::Copy(inst) | RKind::Payload(inst) => {
            encode_into(inst, arch, out)?;
        }
        RKind::CounterPayload { slot } => {
            let slot_addr = icounters_base + 8 * (slot_base + *slot) as u64;
            let (r1, r2) = (Reg(14), RESERVED);
            let add = Inst::AluImm { op: AluOp::Add, dst: r1, src: r1, imm: 1 };
            if x64 {
                // Two pc-relative accesses around an add.
                let slot_at = |from: u64| Addr::pc_rel(slot_addr as i64 - from as i64);
                let load = Inst::Load { dst: r1, addr: slot_at(at), width: Width::W8, sign: false };
                encode_into(&load, arch, out)?;
                encode_into(&add, arch, out)?;
                let store = Inst::Store { src: r1, addr: slot_at(here(out)), width: Width::W8 };
                encode_into(&store, arch, out)?;
            } else {
                tramp::materialize(out, arch, at, slot_addr, r2, pie, toc)?;
                let slot = Addr::base_only(r2);
                let load = Inst::Load { dst: r1, addr: slot, width: Width::W8, sign: false };
                encode_into(&load, arch, out)?;
                encode_into(&add, arch, out)?;
                encode_into(&Inst::Store { src: r1, addr: slot, width: Width::W8 }, arch, out)?;
            }
        }
        RKind::GoRaPayload => {
            // The Go argument (the unwinding PC) lives on the stack:
            // translate it in place before findfunc/pcvalue consume it.
            let off = if x64 { 8 } else { 0 };
            let arg = Inst::AluImm { op: AluOp::Add, dst: RESERVED, src: arch.sp(), imm: off };
            encode_into(&arg, arch, out)?;
            encode_into(&Inst::Sys { op: SysOp::RaTranslate, arg: RESERVED }, arch, out)?;
        }
        RKind::BranchOrig { bkind, orig_target, far } => {
            let target = resolve(*orig_target);
            let offset = target as i64 - at as i64;
            let inst = match bkind {
                BKind::Jump => Inst::Jump { offset },
                BKind::Cond(c) => Inst::JumpCond { cond: *c, offset },
                BKind::Call => Inst::Call { offset },
            };
            if !*far {
                encode_into(&inst, arch, out)?;
            } else if matches!(bkind, BKind::Cond(_)) {
                return Err(RewriteError::Unsupported("far branch form".into()));
            } else {
                // Far form back into original code (RISC only).
                let call = *bkind == BKind::Call;
                tramp::far_branch(out, arch, at, target, toc, Some(RESERVED), call)?;
            }
        }
        RKind::PcRelData { inst, orig_addr } => {
            let retarget = |a: &Addr| -> Addr {
                let target = orig_addr.wrapping_add_signed(a.disp);
                Addr::pc_rel(target as i64 - at as i64)
            };
            let new_inst = match inst {
                Inst::Load { dst, addr, width, sign } => {
                    Inst::Load { dst: *dst, addr: retarget(addr), width: *width, sign: *sign }
                }
                Inst::Store { src, addr, width } => {
                    Inst::Store { src: *src, addr: retarget(addr), width: *width }
                }
                Inst::Lea { dst, addr } => Inst::Lea { dst: *dst, addr: retarget(addr) },
                Inst::JumpMem { addr } => Inst::JumpMem { addr: retarget(addr) },
                Inst::CallMem { addr } => Inst::CallMem { addr: retarget(addr) },
                _ => return Err(RewriteError::Unsupported("pc-rel form".into())),
            };
            encode_into(&new_inst, arch, out)?;
        }
        RKind::PcRelPage { page_value, dst } => {
            encode_into(&tramp::adrp(*dst, at, *page_value), arch, out)?;
        }
        RKind::JtBase { inst, clone_idx, .. } => {
            let dst = inst.def_reg().ok_or_else(|| {
                RewriteError::Unsupported("jump-table base without destination".into())
            })?;
            tramp::materialize(out, arch, at, clone_addrs[*clone_idx], dst, pie, toc)?;
        }
        RKind::JtLoadWiden { inst } => {
            let Inst::Load { dst, addr, .. } = inst else {
                return Err(RewriteError::Unsupported("widen non-load".into()));
            };
            let mut a = *addr;
            a.scale = 4;
            let widened = Inst::Load { dst: *dst, addr: a, width: Width::W4, sign: true };
            encode_into(&widened, arch, out)?;
        }
        RKind::JtMemJump { inst, clone_idx } => {
            let Inst::JumpMem { addr } = inst else {
                return Err(RewriteError::Unsupported("mem-jump retarget".into()));
            };
            let mut a = *addr;
            a.disp = clone_addrs[*clone_idx] as i64;
            encode_into(&Inst::JumpMem { addr: a }, arch, out)?;
        }
        RKind::FpImm { inst, target_fn, delta, .. } => {
            let dst = inst.def_reg().ok_or_else(|| {
                RewriteError::Unsupported("fp materialisation without destination".into())
            })?;
            let relocated = resolve(target_fn.wrapping_add_signed(*delta));
            let value = relocated.wrapping_add_signed(-*delta);
            tramp::materialize(out, arch, at, value, dst, pie, toc)?;
        }
        RKind::EmulatedCall { call, orig_ret, direct_target, far } => {
            // The original return address, position-independent in a
            // PIE: pushed on x64, moved into the link register on RISC.
            tramp::materialize(out, arch, at, *orig_ret, RESERVED, pie, toc)?;
            let save =
                if x64 { Inst::Push { src: RESERVED } } else { Inst::MoveToLr { src: RESERVED } };
            encode_into(&save, arch, out)?;
            let jump = match call {
                Inst::Call { .. } => {
                    let target = resolve(direct_target.expect("direct call"));
                    let jump_at = here(out);
                    if x64 || *far {
                        // The near form on x64; through tar / a register
                        // on RISC.
                        tramp::far_branch(out, arch, jump_at, target, toc, Some(Reg(12)), false)?;
                        return Ok(());
                    }
                    Inst::Jump { offset: target as i64 - jump_at as i64 }
                }
                Inst::CallTar if !x64 => Inst::JumpTar,
                Inst::CallReg { src } => Inst::JumpReg { src: *src },
                Inst::CallMem { addr } if x64 => {
                    let mut a = *addr;
                    // The push above moved the stack pointer: a correct
                    // emulation adjusts sp-relative operands; the
                    // historical SRBI bug does not.
                    if !emulation_stack_bug && a.base == Some(arch.sp()) {
                        a.disp += 8;
                    }
                    if a.pc_rel {
                        let (oa, _) = e.orig.expect("mem call has original");
                        let target = oa.wrapping_add_signed(a.disp);
                        a = Addr::pc_rel(target as i64 - here(out) as i64);
                    }
                    Inst::JumpMem { addr: a }
                }
                _ => return Err(RewriteError::Unsupported("emulated call form".into())),
            };
            encode_into(&jump, arch, out)?;
        }
    }
    Ok(())
}
