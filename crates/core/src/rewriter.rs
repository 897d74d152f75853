//! The rewriting driver: analysis → CFL blocks → relocation →
//! trampoline placement → output binary assembly.

use crate::cache::{analyze_incremental, hash_of, RewriteCache, RewriteStats};
use crate::trace::SpanKind;
use crate::cfl::effective_cfl_blocks;
use crate::config::{FuncMode, RewriteConfig, RewriteMode, UnwindStrategy};
use crate::instrument::Instrumentation;
use crate::placement::{place_function, PlaceCtx, PlacementPlan, ScratchPool, TrampolineKind};
use crate::pool;
use crate::relocate::{relocate, table_cloneable, CloneSlot, RelocateInput};
use crate::report::{RewriteReport, SkipReason};
use icfgp_isa::EncodeError;
use icfgp_cfg::{live_in_at_blocks, BinaryAnalysis, FuncStatus, LivenessResult, TableKind};
use icfgp_obj::{names, Binary, RaMap, RelocKind, Section, SectionFlags, SectionKind, TrapMap};
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::fmt;

/// Rewriting failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RewriteError {
    /// An instruction could not be re-encoded.
    Encode(String),
    /// A construct the rewriter does not support.
    Unsupported(String),
    /// A cloned or in-place table entry does not fit its width.
    TableEntryOverflow {
        /// Table start address.
        table: u64,
        /// The overflowing entry value.
        value: i64,
    },
    /// The instrumentation payload is invalid (control flow or
    /// PC-relative operands).
    BadPayload(String),
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteError::Encode(e) => write!(f, "encoding failed: {e}"),
            RewriteError::Unsupported(w) => write!(f, "unsupported construct: {w}"),
            RewriteError::TableEntryOverflow { table, value } => {
                write!(f, "table {table:#x}: entry value {value:#x} overflows")
            }
            RewriteError::BadPayload(w) => write!(f, "bad payload: {w}"),
        }
    }
}

impl std::error::Error for RewriteError {}

impl From<EncodeError> for RewriteError {
    fn from(e: EncodeError) -> Self {
        RewriteError::Encode(e.to_string())
    }
}

/// Result of rewriting.
#[derive(Debug, Clone)]
pub struct RewriteOutcome {
    /// The rewritten binary.
    pub binary: Binary,
    /// What happened, in numbers.
    pub report: RewriteReport,
    /// Original block start → relocated address, for every relocated
    /// block (useful to downstream tooling, e.g. dynamic-translation
    /// tables).
    pub block_map: std::collections::BTreeMap<u64, u64>,
    /// Original instruction address → relocated instruction address
    /// (needed by dynamic attach to migrate paused program counters).
    pub inst_map: std::collections::BTreeMap<u64, u64>,
    /// Placement byproducts for the static verifier; `Some` when
    /// [`RewriteConfig::collect_artifacts`] is set.
    pub artifacts: Option<RewriteArtifacts>,
    /// Cache hit/miss counters and per-stage wall-clock timings for
    /// this rewrite (`icfgp rewrite --stats`).
    pub stats: RewriteStats,
}

/// One cloned jump table, summarised for external consumers (the
/// `icfgp-verify` checker): where the original lives, where the clone
/// went and how its entries are encoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CloneSummary {
    /// Address of the dispatching indirect jump.
    pub jump_addr: u64,
    /// Original table start address.
    pub table_addr: u64,
    /// Original entry width in bytes.
    pub orig_entry_width: u8,
    /// Clone entry width in bytes (compact tables are widened to 4).
    pub clone_entry_width: u8,
    /// Entry count (as analysed, possibly over-approximated).
    pub count: u64,
    /// Clone start address inside `.jt_clone`.
    pub clone_addr: u64,
    /// Target expression of the table.
    pub kind: TableKind,
    /// Whether the original table data lives inside `.text`.
    pub in_text: bool,
}

/// Byproducts of one rewrite that a static translation-validation pass
/// needs: per-function placement plans, the scratch-pool provenance
/// log, clone descriptors and the runtime maps before serialisation.
#[derive(Debug, Clone, Default)]
pub struct RewriteArtifacts {
    /// `(function entry, placement plan)` per instrumented function.
    pub plans: Vec<(u64, PlacementPlan)>,
    /// Every range donated to the scratch pool, in donation order
    /// (inter-function padding, dead inline tables, renamed `.old.*`
    /// sections, and per-trampoline superblock leftovers).
    pub scratch_ranges: Vec<(u64, u64)>,
    /// Jump-table clone descriptors (`jt`/`func-ptr` modes).
    pub clones: Vec<CloneSummary>,
    /// `[start, end)` of the `.instr` section.
    pub instr_range: (u64, u64),
    /// `[start, end)` of the `.jt_clone` region (empty when nothing
    /// was cloned).
    pub clone_range: (u64, u64),
    /// The relocated→original return-address map as emitted.
    pub ra_map: RaMap,
    /// The trap-trampoline map as emitted.
    pub trap_map: TrapMap,
    /// The mode each point-selected function was actually rewritten
    /// under (analysis failures appear as [`FuncMode::Skip`]). The
    /// degradation ladder reads this to build dispositions.
    pub func_modes: BTreeMap<u64, FuncMode>,
}

/// The incremental-CFG-patching rewriter.
#[derive(Debug, Clone)]
pub struct Rewriter {
    config: RewriteConfig,
    /// Worker threads for the parallel analysis/relocation stages.
    /// Output bytes are identical for any value (§layout determinism).
    threads: usize,
    /// Reproduce the historical SRBI bug: call emulation does not
    /// adjust stack-relative indirect call operands after pushing the
    /// return address.
    pub emulation_stack_bug: bool,
}

impl Rewriter {
    /// A rewriter with the given configuration, using
    /// [`pool::default_threads`] workers (`ICFGP_THREADS` override).
    #[must_use]
    pub fn new(config: RewriteConfig) -> Rewriter {
        Rewriter { config, threads: pool::default_threads(), emulation_stack_bug: false }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &RewriteConfig {
        &self.config
    }

    /// Override the worker-thread count (clamped to
    /// `1..=`[`pool::MAX_THREADS`]). The thread count never changes the
    /// output bytes, only how fast they are produced, so it is a
    /// rewriter property rather than part of [`RewriteConfig`] (and
    /// never enters cache keys).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Rewriter {
        self.threads = threads.clamp(1, pool::MAX_THREADS);
        self
    }

    /// The worker-thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Rewrite `binary` under the instrumentation request.
    ///
    /// Equivalent to [`Rewriter::rewrite_cached`] with a fresh
    /// single-use cache (the per-function stages still run in
    /// parallel; nothing is reused across calls).
    ///
    /// # Errors
    ///
    /// [`RewriteError`] on unencodable constructs, invalid payloads,
    /// or table-entry overflow in the in-place ablation. Analysis
    /// *failures* are not errors: affected functions are skipped and
    /// recorded in the report (§4.3).
    pub fn rewrite(
        &self,
        binary: &Binary,
        instr: &Instrumentation,
    ) -> Result<RewriteOutcome, RewriteError> {
        self.rewrite_cached(binary, instr, &RewriteCache::new())
    }

    /// Rewrite `binary`, memoising per-function analysis, relocation
    /// fragments (with their canonical emitted code) and liveness in
    /// `cache`. Passing the
    /// same cache across rewrites of related inputs (ladder rounds,
    /// fault seeds, incremental re-rewrites) skips all per-function
    /// work whose inputs did not change; results are byte-identical
    /// to a cold [`Rewriter::rewrite`].
    ///
    /// # Errors
    ///
    /// As [`Rewriter::rewrite`].
    pub fn rewrite_cached(
        &self,
        binary: &Binary,
        instr: &Instrumentation,
        cache: &RewriteCache,
    ) -> Result<RewriteOutcome, RewriteError> {
        let trace = cache.trace();
        let snap = trace.snapshot();
        let rewrite_span = trace.span(SpanKind::Rewrite);
        instr
            .validate()
            .map_err(|inst| RewriteError::BadPayload(inst.to_string()))?;
        let arch = binary.arch;
        let analysis_span = trace.span(SpanKind::Analysis);
        let run = analyze_incremental(binary, &self.config.analysis, cache, self.threads);
        analysis_span.close();
        let analysis = &*run.analysis;

        // ----- region layout ------------------------------------------
        let region_start =
            align_up(binary.address_space_end() + self.config.instr_gap, 0x1000);
        // Clones first: their layout is fixed before relocation.
        let clone_base = region_start;
        let clones = clone_layout(analysis, &self.config, instr, clone_base);
        let clone_size = clones.last().map_or(0, |c| {
            c.clone_addr + c.desc.count * u64::from(c.entry_width) - clone_base
        });
        let instr_base = align_up(clone_base + clone_size, 0x1000);

        // ----- relocation ----------------------------------------------
        let relocate_span = trace.span(SpanKind::Relocate);
        let reloc = relocate(
            &RelocateInput {
                binary,
                analysis,
                config: &self.config,
                instr,
                clone_base,
                clones: &clones,
                instr_base,
                emulation_stack_bug: self.emulation_stack_bug,
                weak_keys: &run.weak_keys,
            },
            cache,
            self.threads,
        )?;
        relocate_span.close();

        // ----- assemble the output binary --------------------------------
        let mut out = binary.clone();
        let mut report = RewriteReport {
            total_funcs: analysis.funcs.len(),
            original_size: binary.loaded_size(),
            ..RewriteReport::default()
        };

        // Retire the dynamic-linking sections: move copies to the end,
        // rename the originals into scratch space (Figure 1).
        let mut scratch_end = align_up(reloc.icounters_base + 8 * reloc.counter_slots as u64, 16);
        let mut moved: Vec<Section> = Vec::new();
        for sec in out.sections_mut() {
            if sec.kind() == SectionKind::DynamicMeta {
                let mut copy = sec.clone();
                copy.set_addr(scratch_end);
                scratch_end += copy.len() as u64;
                moved.push(copy);
                sec.set_name(format!("{}{}", names::OLD_PREFIX, sec.name()));
                sec.set_kind(SectionKind::Scratch);
                // Scratch space holds trampolines: it must be
                // executable and writable to the rewriter.
                sec.set_flags(SectionFlags { alloc: true, write: false, exec: true });
            }
        }
        for sec in moved {
            out.add_section(sec);
        }

        // New sections.
        if !reloc.clones.is_empty() {
            let mut bytes = vec![0u8; clone_size as usize];
            for clone in &reloc.clones {
                let off = (clone.clone_addr - clone_base) as usize;
                bytes[off..off + clone.bytes.len()].copy_from_slice(&clone.bytes);
            }
            out.add_section(Section::new(
                names::JT_CLONE,
                clone_base,
                bytes,
                SectionFlags::ro(),
                SectionKind::ReadOnlyData,
            ));
            for clone in &reloc.clones {
                for (slot, value) in &clone.reloc_slots {
                    out.relocations.push(icfgp_obj::Relocation::relative(*slot, *value));
                }
            }
        }
        let instr_len = reloc.code.len() as u64;
        out.add_section(Section::new(
            names::INSTR,
            instr_base,
            reloc.code,
            SectionFlags::exec(),
            SectionKind::Text,
        ));
        if reloc.counter_slots > 0 {
            out.add_section(Section::new(
                ".icounters",
                reloc.icounters_base,
                vec![0u8; 8 * reloc.counter_slots],
                SectionFlags::rw(),
                SectionKind::Data,
            ));
        }

        // ----- function-pointer data-slot rewriting -----------------------
        if self.config.mode == RewriteMode::FuncPtr {
            for def in &analysis.fp_defs {
                let icfgp_cfg::FpDefSite::DataSlot { addr } = def.site else { continue };
                // Pointers into a ladder-demoted function stay
                // unrewritten: its original code is intact (not
                // poisoned below `func-ptr` semantics) only when the
                // owner itself still runs at `func-ptr`.
                let owner = analysis
                    .func_at(def.target_fn.wrapping_add_signed(def.delta))
                    .map_or(def.target_fn, |f| f.entry);
                if self.config.rewrite_mode_for(owner) != Some(RewriteMode::FuncPtr) {
                    continue;
                }
                let relocated = reloc
                    .block_map
                    .get(&def.target_fn.wrapping_add_signed(def.delta))
                    .or_else(|| reloc.inst_map.get(&def.target_fn.wrapping_add_signed(def.delta)));
                let Some(&relocated) = relocated else { continue };
                let value = relocated.wrapping_add_signed(-def.delta);
                if out.write_u64(addr, value).is_ok() {
                    report.fp_slots_rewritten += 1;
                    // PIE: retarget the relocation so the loader writes
                    // the relocated (biased) value.
                    for r in &mut out.relocations {
                        if r.at == addr && r.kind == RelocKind::Relative {
                            r.addend = value;
                        }
                    }
                }
            }
            report.fp_code_sites_rewritten = analysis
                .fp_defs
                .iter()
                .filter(|d| matches!(d.site, icfgp_cfg::FpDefSite::CodeImm { .. }))
                .count();
        }

        // In-place table overwrites (ablation).
        for (addr, bytes) in &reloc.inplace_table_writes {
            // Writes may overrun the real table into neighbouring data:
            // that is the point of the experiment. Out-of-section
            // writes are clipped.
            let _ = out.write(*addr, bytes);
        }

        // ----- poison + trampolines ----------------------------------------
        let selected: Vec<u64> = analysis
            .funcs
            .values()
            .filter(|f| {
                f.status == FuncStatus::Ok
                    && instr.points.selects_function(f.entry)
                    && self.config.func_mode(f.entry) != FuncMode::Skip
            })
            .map(|f| f.entry)
            .collect();
        if self.config.poison_text {
            for entry in &selected {
                // Trap-only functions keep their original code live:
                // unknown blocks (under-approximated analysis) execute
                // the pristine bytes in place.
                if self.config.is_trap_only(*entry) {
                    continue;
                }
                let f = &analysis.funcs[entry];
                // Poison code bytes, but never in-code jump-table data:
                // dir mode (and uncloneable tables) still read it.
                let mut holes = f.inline_data.clone();
                holes.sort_unstable();
                let mut cursor = f.start;
                for (hs, he) in holes.into_iter().chain(std::iter::once((f.end, f.end))) {
                    if hs > cursor {
                        let poison = vec![0xFFu8; (hs - cursor) as usize];
                        let _ = out.write(cursor, &poison);
                    }
                    cursor = cursor.max(he);
                }
            }
        }

        // Scratch pool: inter-function padding, dead inline tables,
        // renamed dynamic-linking sections.
        let mut pool = ScratchPool::new();
        if self.config.placement.use_padding {
            let funcs: Vec<(u64, u64)> =
                binary.functions().map(|s| (s.addr, s.end())).collect();
            let text = binary.text().map_err(|e| RewriteError::Unsupported(e.to_string()))?;
            for w in funcs.windows(2) {
                if w[0].1 < w[1].0 {
                    pool.donate(w[0].1, w[1].0);
                }
            }
            if let Some(last) = funcs.last() {
                if last.1 < text.end() {
                    pool.donate(last.1, text.end());
                }
            }
        }
        if self.config.clone_tables {
            for entry in &selected {
                if !matches!(self.config.rewrite_mode_for(*entry), Some(m) if m >= RewriteMode::Jt)
                {
                    continue;
                }
                let f = &analysis.funcs[entry];
                for desc in &f.jump_tables {
                    if desc.in_text && table_cloneable(f, desc) {
                        pool.donate(
                            desc.table_addr,
                            desc.table_addr + desc.count * u64::from(desc.entry_width),
                        );
                    }
                }
            }
        }
        if self.config.placement.use_scratch_sections {
            for sec in out.scratch_sections() {
                pool.donate(sec.addr(), sec.end());
            }
        }

        let placement_span = trace.span(SpanKind::Placement);
        let mut trap_map = TrapMap::new();
        let mut all_plans: Vec<(u64, PlacementPlan)> = Vec::new();
        for entry in &selected {
            let f = &analysis.funcs[entry];
            let cfl = effective_cfl_blocks(f, &self.config);
            report.cfl_blocks += cfl.len();
            let corrupt = self.config.analysis.inject.iter().any(
                |i| matches!(i, icfgp_cfg::InjectedFault::CorruptLiveness { entry } if *entry == f.entry),
            );
            // Liveness is pure in the (assembled) CFG, so keying on the
            // analysis identity plus the fp-landing splits suffices.
            let func_key = run
                .func_keys
                .get(entry)
                .copied()
                .unwrap_or_else(crate::cache::unique_key);
            let lkey = hash_of(&(0x11FEu64, func_key, &f.fp_landing_targets, corrupt));
            // Liveness is per-binary (never shared), so no binary
            // fingerprint is needed to classify a hit.
            let Ok(liveness) = cache.lookup(
                lkey,
                0,
                |_| true,
                || {
                    Ok::<_, Infallible>(if corrupt {
                        LivenessResult::assume_all_dead(f, arch)
                    } else {
                        live_in_at_blocks(f, arch)
                    })
                },
            );
            let pcfg = self.config.placement_for(*entry);
            let plan = place_function(
                &PlaceCtx {
                    arch,
                    func: f,
                    cfl: &cfl,
                    block_map: &reloc.block_map,
                    liveness: &liveness,
                    toc: binary.toc_base,
                    placement: &pcfg,
                },
                &mut pool,
            );
            for t in &plan.trampolines {
                match t.kind {
                    TrampolineKind::Short => report.tramp_short += 1,
                    TrampolineKind::Long { .. } => report.tramp_long += 1,
                    TrampolineKind::MultiHop { .. } => report.tramp_multi_hop += 1,
                    TrampolineKind::Trap => report.tramp_trap += 1,
                }
            }
            for (addr, target) in &plan.trap_entries {
                trap_map.insert(*addr, *target);
            }
            all_plans.push((*entry, plan));
        }
        for (_, plan) in &all_plans {
            for patch in &plan.patches {
                out.write(patch.addr, &patch.bytes).map_err(|e| {
                    RewriteError::Unsupported(format!("patch failed: {e}"))
                })?;
            }
        }
        placement_span.close();

        // ----- runtime maps --------------------------------------------------
        let mut map_end = scratch_end;
        let needs_ra_map = self.config.unwind != UnwindStrategy::None && !reloc.ra_map.is_empty();
        report.ra_map_entries = reloc.ra_map.len();
        if needs_ra_map {
            let bytes = reloc.ra_map.to_bytes();
            map_end = align_up(map_end, 16);
            out.add_section(Section::new(
                names::RA_MAP,
                map_end,
                bytes,
                SectionFlags::ro(),
                SectionKind::RuntimeMap,
            ));
            map_end += out.section(names::RA_MAP).expect("just added").len() as u64;
        }
        if !trap_map.is_empty() {
            let bytes = trap_map.to_bytes();
            map_end = align_up(map_end, 16);
            out.add_section(Section::new(
                names::TRAP_MAP,
                map_end,
                bytes,
                SectionFlags::ro(),
                SectionKind::RuntimeMap,
            ));
        }

        // Entry point: jump straight into the relocated main.
        if let Some(new_entry) = reloc.block_map.get(&binary.entry) {
            out.entry = *new_entry;
        }

        // ----- report ----------------------------------------------------------
        report.instrumented_funcs = selected.len();
        let selected_total = analysis
            .funcs
            .values()
            .filter(|f| instr.points.selects_function(f.entry))
            .count();
        report.coverage = if selected_total == 0 {
            1.0
        } else {
            selected.len() as f64 / selected_total as f64
        };
        report.cloned_tables = reloc.clones.len();
        for f in analysis.funcs.values() {
            match &f.status {
                FuncStatus::Failed(fail) => {
                    report.skipped.push((f.entry, SkipReason::AnalysisFailed(fail.clone())));
                }
                FuncStatus::Ok if !instr.points.selects_function(f.entry) => {
                    report.skipped.push((f.entry, SkipReason::NotSelected));
                }
                FuncStatus::Ok if self.config.func_mode(f.entry) == FuncMode::Skip => {
                    report.skipped.push((f.entry, SkipReason::Demoted));
                }
                FuncStatus::Ok => {}
            }
        }
        report.rewritten_size = out.loaded_size();
        debug_assert!(out.validate_layout().is_ok());
        let artifacts = if self.config.collect_artifacts {
            Some(RewriteArtifacts {
                plans: all_plans,
                scratch_ranges: pool.donations().to_vec(),
                clones: reloc
                    .clones
                    .iter()
                    .map(|c| CloneSummary {
                        jump_addr: c.desc.jump_addr,
                        table_addr: c.desc.table_addr,
                        orig_entry_width: c.desc.entry_width,
                        clone_entry_width: c.entry_width,
                        count: c.desc.count,
                        clone_addr: c.clone_addr,
                        kind: c.desc.kind,
                        in_text: c.desc.in_text,
                    })
                    .collect(),
                instr_range: (instr_base, instr_base + instr_len),
                clone_range: (clone_base, clone_base + clone_size),
                ra_map: reloc.ra_map.clone(),
                trap_map: trap_map.clone(),
                func_modes: analysis
                    .funcs
                    .values()
                    .filter(|f| instr.points.selects_function(f.entry))
                    .map(|f| {
                        let mode = if f.status == FuncStatus::Ok {
                            self.config.func_mode(f.entry)
                        } else {
                            FuncMode::Skip
                        };
                        (f.entry, mode)
                    })
                    .collect(),
            })
        } else {
            None
        };
        rewrite_span.close();
        let stats = trace.rewrite_stats_since(&snap, self.threads, cache.store_src());
        Ok(RewriteOutcome {
            binary: out,
            report,
            block_map: reloc.block_map,
            inst_map: reloc.inst_map,
            artifacts,
            stats,
        })
    }
}

/// Lay out `.jt_clone` from `base`: every cloneable table of each
/// selected function rewritten in `jt` mode or above, in analysis
/// order, aligned to its (widened) entry width. Empty in the in-place
/// ablation (`clone_tables = false`).
fn clone_layout<'a>(
    analysis: &'a BinaryAnalysis,
    config: &RewriteConfig,
    instr: &Instrumentation,
    base: u64,
) -> Vec<CloneSlot<'a>> {
    let mut slots = Vec::new();
    if !config.clone_tables {
        return slots;
    }
    let mut cursor = base;
    for func in analysis.funcs.values() {
        if func.status != FuncStatus::Ok
            || !instr.points.selects_function(func.entry)
            || !matches!(config.rewrite_mode_for(func.entry), Some(m) if m >= RewriteMode::Jt)
        {
            continue;
        }
        for desc in func.jump_tables.iter().filter(|d| table_cloneable(func, d)) {
            let entry_width = desc.entry_width.max(4);
            cursor = align_up(cursor, u64::from(entry_width));
            slots.push(CloneSlot { func: func.entry, desc, clone_addr: cursor, entry_width });
            cursor += desc.count * u64::from(entry_width);
        }
    }
    slots
}

fn align_up(v: u64, a: u64) -> u64 {
    if a <= 1 {
        v
    } else {
        v + (a - (v % a)) % a
    }
}


