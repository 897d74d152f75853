//! Rewriting configuration.

use crate::fault::FaultPlan;
use icfgp_cfg::AnalysisConfig;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// The three incremental rewriting modes (§3): each mode rewrites one
/// more class of control flow and removes the corresponding CFL-block
/// class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum RewriteMode {
    /// Rewrite only direct control flow; jump-table targets and
    /// function entries remain CFL blocks.
    Dir,
    /// Additionally clone jump tables so intra-procedural indirect
    /// jumps stay in the relocated code.
    Jt,
    /// Additionally rewrite function-pointer definitions so indirect
    /// calls land in the relocated code directly.
    FuncPtr,
}

impl fmt::Display for RewriteMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RewriteMode::Dir => "dir",
            RewriteMode::Jt => "jt",
            RewriteMode::FuncPtr => "func-ptr",
        };
        f.write_str(s)
    }
}

/// Per-function rewriting mode — one rung of the graceful-degradation
/// ladder. Ordered by how much of the function is rewritten:
///
/// `Full(FuncPtr) > Full(Jt) > Full(Dir) > TrapOnly > Skip`
///
/// `TrapOnly` relocates the function like `dir` mode but leaves the
/// original bytes **unpoisoned** and installs a trap trampoline at
/// every known block: even if analysis under-approximated the block
/// set, execution landing at an undiscovered block runs the intact
/// original code (and bounces into `.instr` at the next known block),
/// and trap trampolines clobber no registers. It is the sturdiest rung
/// that still instruments the function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FuncMode {
    /// The function is fully rewritten at the given mode (poisoned
    /// original bytes, best-form trampolines).
    Full(RewriteMode),
    /// Relocated like `dir` mode, original bytes kept executable,
    /// trap-only trampolines at every known block.
    TrapOnly,
    /// The function is left completely untouched.
    Skip,
}

impl FuncMode {
    /// Ladder height: `Skip` = 0 up to `Full(FuncPtr)` = 4.
    #[must_use]
    pub fn rank(self) -> u8 {
        match self {
            FuncMode::Skip => 0,
            FuncMode::TrapOnly => 1,
            FuncMode::Full(RewriteMode::Dir) => 2,
            FuncMode::Full(RewriteMode::Jt) => 3,
            FuncMode::Full(RewriteMode::FuncPtr) => 4,
        }
    }

    /// The next rung down, or `None` from `Skip`.
    #[must_use]
    pub fn lower(self) -> Option<FuncMode> {
        match self {
            FuncMode::Full(RewriteMode::FuncPtr) => Some(FuncMode::Full(RewriteMode::Jt)),
            FuncMode::Full(RewriteMode::Jt) => Some(FuncMode::Full(RewriteMode::Dir)),
            FuncMode::Full(RewriteMode::Dir) => Some(FuncMode::TrapOnly),
            FuncMode::TrapOnly => Some(FuncMode::Skip),
            FuncMode::Skip => None,
        }
    }

    /// The [`RewriteMode`] the relocation machinery applies for this
    /// rung (`TrapOnly` behaves like `dir`); `None` for `Skip`.
    #[must_use]
    pub fn rewrite_mode(self) -> Option<RewriteMode> {
        match self {
            FuncMode::Full(m) => Some(m),
            FuncMode::TrapOnly => Some(RewriteMode::Dir),
            FuncMode::Skip => None,
        }
    }
}

impl PartialOrd for FuncMode {
    fn partial_cmp(&self, other: &FuncMode) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FuncMode {
    fn cmp(&self, other: &FuncMode) -> std::cmp::Ordering {
        self.rank().cmp(&other.rank())
    }
}

impl fmt::Display for FuncMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FuncMode::Full(m) => write!(f, "{m}"),
            FuncMode::TrapOnly => f.write_str("trap-only"),
            FuncMode::Skip => f.write_str("skip"),
        }
    }
}

/// Error budget for graceful degradation: how far below `floor` the
/// per-function outcomes may sink before the rewrite as a whole is
/// declared failed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradationPolicy {
    /// Functions achieving a mode below this rung count against the
    /// budget.
    pub floor: FuncMode,
    /// Maximum fraction (0.0–1.0) of selected functions allowed below
    /// `floor`.
    pub max_below_floor: f64,
}

impl Default for DegradationPolicy {
    fn default() -> DegradationPolicy {
        DegradationPolicy { floor: FuncMode::Full(RewriteMode::Dir), max_below_floor: 0.25 }
    }
}

impl DegradationPolicy {
    /// Whether `below_floor` functions out of `total` exceed the
    /// budget.
    #[must_use]
    pub fn exceeded(&self, below_floor: usize, total: usize) -> bool {
        total > 0 && below_floor as f64 > self.max_below_floor * total as f64
    }
}

/// How the rewritten binary supports stack unwinding (§6, Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnwindStrategy {
    /// Runtime return-address translation: real calls in `.instr`, an
    /// emitted `.ra_map`, original `.eh_frame` left untouched. Call
    /// fall-through blocks are *not* CFL blocks.
    RaTranslation,
    /// Legacy call emulation (Multiverse/SRBI): every call is emulated
    /// by pushing the *original* return address, so returns land in
    /// original code — call fall-through blocks become CFL blocks and
    /// every return bounces.
    CallEmulation,
    /// No unwinding support: real calls, no RA map. C++ exceptions and
    /// Go traceback crash in rewritten code.
    None,
}

/// Trampoline placement options (the §4/§7 machinery, individually
/// switchable for the ablation benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PlacementConfig {
    /// Extend CFL blocks over following scratch blocks into
    /// trampoline superblocks.
    pub superblocks: bool,
    /// Use inter-function alignment padding as scratch space.
    pub use_padding: bool,
    /// Use the renamed `.old.dynsym`/`.old.dynstr`/`.old.rela_dyn`
    /// sections as scratch space.
    pub use_scratch_sections: bool,
    /// Allow two-hop trampolines (short branch to an island holding a
    /// long branch).
    pub multi_hop: bool,
    /// Install trampolines at *every* block instead of only CFL blocks
    /// (the SRBI strategy §4.2 improves on).
    pub every_block: bool,
    /// Donate the dead bytes after each installed trampoline to the
    /// scratch pool — part of §2.2's "identify more code bytes that can
    /// be safely reused"; mainstream rewriters only used padding.
    pub reuse_block_leftovers: bool,
    /// Place a trap trampoline at every CFL block regardless of
    /// budget or reach (the [`FuncMode::TrapOnly`] rung: traps
    /// overwrite the fewest bytes and clobber no registers).
    pub force_trap: bool,
}

impl Default for PlacementConfig {
    fn default() -> PlacementConfig {
        PlacementConfig {
            superblocks: true,
            use_padding: true,
            use_scratch_sections: true,
            multi_hop: true,
            every_block: false,
            reuse_block_leftovers: true,
            force_trap: false,
        }
    }
}

/// Order in which relocated code is laid out in `.instr` — the §8.3
/// BOLT-comparison transforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayoutOrder {
    /// Original address order.
    Original,
    /// Reverse the order of functions, keep block order.
    ReverseFunctions,
    /// Keep function order, reverse blocks within each function.
    ReverseBlocks,
}

/// Full rewriting configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RewriteConfig {
    /// Rewriting mode.
    pub mode: RewriteMode,
    /// Binary-analysis capabilities to use.
    pub analysis: AnalysisConfig,
    /// Stack-unwinding support.
    pub unwind: UnwindStrategy,
    /// Trampoline placement options.
    pub placement: PlacementConfig,
    /// Overwrite every relocated function's `.text` bytes with illegal
    /// instructions before installing trampolines — the paper's strong
    /// correctness test (§8: "serves as a strong test to detect any
    /// mistakes").
    pub poison_text: bool,
    /// Clone jump tables to `.jt_clone` (the safe strategy); when
    /// false, tables are overwritten in place, which corrupts
    /// neighbouring data under over-approximation (§5.1 Failure 3
    /// ablation).
    pub clone_tables: bool,
    /// Extra bytes between the end of the original image and `.instr`
    /// (forces far placement, stressing branch reach on the RISC
    /// architectures).
    pub instr_gap: u64,
    /// Layout order for relocated code.
    pub layout: LayoutOrder,
    /// Append this many nop bytes after every relocated indirect
    /// control transfer. Post-processing rewriters (the
    /// Multiverse-style dynamic-translation baseline) need the slack to
    /// widen those sites into translator detours. Default 0.
    pub indirect_site_padding: u64,
    /// Attach [`RewriteArtifacts`](crate::RewriteArtifacts) (placement
    /// plans, scratch-pool donations, clone descriptors, runtime maps)
    /// to the [`RewriteOutcome`](crate::RewriteOutcome) so the
    /// `icfgp-verify` translation-validation pass can check the
    /// rewrite statically. Cheap to collect; on by default. The pass
    /// itself is opt-in (`icfgp verify`, `icfgp rewrite --verify`, or
    /// calling the verifier crate directly).
    pub collect_artifacts: bool,
    /// Per-function mode overrides (the degradation ladder's state).
    /// Functions not listed here use [`RewriteConfig::mode`]. The
    /// rewriter, relocation engine, CFL computation and verifier all
    /// consult this map through [`RewriteConfig::func_mode`], so both
    /// sides of translation validation agree on what each function was
    /// supposed to get.
    pub func_modes: BTreeMap<u64, FuncMode>,
    /// Deterministic fault-injection plan, armed against the binary
    /// before rewriting (the chaos layer). `None` injects nothing.
    pub fault_plan: Option<FaultPlan>,
    /// Error budget for graceful degradation.
    pub degradation: DegradationPolicy,
    /// Run the static soundness audit (`icfgp-audit`) before rewriting
    /// and start each function at the highest ladder rung its evidence
    /// justifies (predictive mode gating, `icfgp rewrite
    /// --audit-gate`). Consulted by the degradation-ladder driver in
    /// `icfgp-verify` after the fault plan is armed, so the audit sees
    /// the injected faults it must predict.
    pub audit_gate: bool,
}

impl RewriteConfig {
    /// Default configuration for a mode: full analysis, RA
    /// translation, all placement machinery, table cloning, poisoned
    /// text.
    #[must_use]
    pub fn new(mode: RewriteMode) -> RewriteConfig {
        RewriteConfig {
            mode,
            analysis: AnalysisConfig::default(),
            unwind: UnwindStrategy::RaTranslation,
            placement: PlacementConfig::default(),
            poison_text: true,
            clone_tables: true,
            instr_gap: 0x1000,
            layout: LayoutOrder::Original,
            indirect_site_padding: 0,
            collect_artifacts: true,
            func_modes: BTreeMap::new(),
            fault_plan: None,
            degradation: DegradationPolicy::default(),
            audit_gate: false,
        }
    }

    /// The effective mode of the function at `entry`.
    #[must_use]
    pub fn func_mode(&self, entry: u64) -> FuncMode {
        self.func_modes.get(&entry).copied().unwrap_or(FuncMode::Full(self.mode))
    }

    /// The [`RewriteMode`] the relocation machinery applies to the
    /// function at `entry`; `None` when the function is skipped.
    #[must_use]
    pub fn rewrite_mode_for(&self, entry: u64) -> Option<RewriteMode> {
        self.func_mode(entry).rewrite_mode()
    }

    /// Whether the function at `entry` is on the trap-only rung.
    #[must_use]
    pub fn is_trap_only(&self, entry: u64) -> bool {
        self.func_mode(entry) == FuncMode::TrapOnly
    }

    /// The placement configuration for the function at `entry`:
    /// trap-only functions force trap trampolines at every block and
    /// never donate their (still live) block leftovers to the scratch
    /// pool.
    #[must_use]
    pub fn placement_for(&self, entry: u64) -> PlacementConfig {
        let mut p = self.placement;
        if self.is_trap_only(entry) {
            p.every_block = true;
            p.force_trap = true;
            p.reuse_block_leftovers = false;
        }
        p
    }
}

/// Fingerprint a [`RewriteConfig`], covering every field that
/// influences the output bytes. The degradation ladder keys its stored
/// demotion rounds on it (with the binary fingerprint), so a rerun
/// under any other configuration replays nothing.
#[must_use]
pub fn config_fingerprint(cfg: &RewriteConfig) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    cfg.mode.hash(&mut h);
    cfg.analysis.fingerprint().hash(&mut h);
    cfg.unwind.hash(&mut h);
    cfg.placement.hash(&mut h);
    cfg.poison_text.hash(&mut h);
    cfg.clone_tables.hash(&mut h);
    cfg.instr_gap.hash(&mut h);
    cfg.layout.hash(&mut h);
    cfg.indirect_site_padding.hash(&mut h);
    cfg.collect_artifacts.hash(&mut h);
    cfg.func_modes.hash(&mut h);
    // FaultPlan carries f64 probabilities; hash its canonical JSON.
    let plan = cfg
        .fault_plan
        .as_ref()
        .map(|p| serde_json::to_string(p).unwrap_or_default())
        .unwrap_or_default();
    plan.hash(&mut h);
    cfg.degradation.floor.hash(&mut h);
    cfg.degradation.max_below_floor.to_bits().hash(&mut h);
    cfg.audit_gate.hash(&mut h);
    // Mix through the record checksum so the fingerprint is not the
    // raw DefaultHasher state.
    crate::store::checksum64(&[&h.finish().to_le_bytes()])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_fingerprint_tracks_every_knob() {
        let base = RewriteConfig::new(RewriteMode::FuncPtr);
        let fp = config_fingerprint(&base);
        assert_eq!(fp, config_fingerprint(&base.clone()), "deterministic");
        let mut other = base.clone();
        other.mode = RewriteMode::Dir;
        assert_ne!(fp, config_fingerprint(&other));
        let mut other = base.clone();
        other.analysis.func_timeout_ms = Some(5);
        assert_ne!(fp, config_fingerprint(&other));
        let mut other = base.clone();
        other.func_modes.insert(0x99, FuncMode::Skip);
        assert_ne!(fp, config_fingerprint(&other));
    }

    #[test]
    fn mode_display() {
        assert_eq!(RewriteMode::Dir.to_string(), "dir");
        assert_eq!(RewriteMode::Jt.to_string(), "jt");
        assert_eq!(RewriteMode::FuncPtr.to_string(), "func-ptr");
    }

    #[test]
    fn default_config_is_the_papers() {
        let c = RewriteConfig::new(RewriteMode::Jt);
        assert_eq!(c.unwind, UnwindStrategy::RaTranslation);
        assert!(c.clone_tables);
        assert!(c.placement.superblocks);
        assert!(!c.placement.every_block);
        assert!(c.poison_text);
    }
}
