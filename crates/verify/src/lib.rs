//! Static translation validation for incremental CFG patching.
//!
//! Binary rewriting is only useful when it is trustworthy: §8 of the
//! paper validates rewrites *dynamically*, by running original and
//! rewritten binaries and diffing their traces. This crate adds the
//! complementary *static* check — a translation-validation pass that
//! takes the original [`Binary`] plus the
//! [`RewriteOutcome`] and proves four
//! properties without executing anything:
//!
//! 1. **Patch integrity** ([`Check::PatchOverlap`],
//!    [`Check::PatchBudget`], [`Check::ScratchProvenance`]) — no two
//!    patches overlap, every inline patch fits its trampoline
//!    superblock, and every multi-hop island sits on bytes that were
//!    explicitly donated to the scratch pool.
//! 2. **Trampoline soundness** ([`Check::TrampReach`],
//!    [`Check::TrampClobber`]) — each patched sequence is decoded and
//!    symbolically evaluated: it must transfer to the block's
//!    relocated copy, the encoded form must be within its
//!    architectural reach, and it must only modify registers that are
//!    dead on entry to the block.
//! 3. **CFL completeness** ([`Check::CflCompleteness`],
//!    [`Check::OverApproximation`]) — the CFL set is recomputed from a
//!    *strict* re-analysis (heuristics off, injected faults cleared);
//!    an uncovered CFL block or a dropped jump-table target is an
//!    error (the catastrophic under-approximation class of Figure 2),
//!    while extra coverage is a warning (the wasteful-but-safe
//!    over-approximation class).
//! 4. **Map well-formedness** ([`Check::MapWellFormed`]) — `.ra_map`
//!    and `.trap_map` parse, round-trip, agree with the rewriter's
//!    records and the block map, and are injective where the runtime
//!    requires it; jump-table clones live in `.jt_clone`, never alias
//!    or modify the original table, and each entry resolves to its
//!    target's relocated address.
//!
//! The pass consumes the [`RewriteArtifacts`] the rewriter attaches to
//! its outcome (on by default via
//! [`RewriteConfig::collect_artifacts`]); running the verifier itself
//! is opt-in (`icfgp verify`, `icfgp rewrite --verify`, or calling
//! [`verify_rewrite`] directly).

#![warn(missing_docs)]

mod cfl;
mod clones;
mod eval;
mod ladder;
mod maps;
mod patches;
mod report;
mod tramps;

pub use eval::{eval_sequence, SeqEffect, Transfer};
pub use icfgp_core::LadderStep;
pub use ladder::{
    rewrite_with_ladder, rewrite_with_ladder_cached, rewrite_with_ladder_supervised,
    FuncDisposition, LadderError, LadderOutcome, LADDER_POLICY, MAX_ROUNDS,
};
pub use report::{Check, Diagnostic, Severity, VerifyReport};

use icfgp_cfg::{analyze, BinaryAnalysis};
use icfgp_core::{RewriteArtifacts, RewriteConfig, RewriteOutcome};
use icfgp_obj::Binary;
use std::fmt;

/// Why verification could not run at all (as opposed to running and
/// finding problems, which is a [`VerifyReport`] full of diagnostics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The outcome carries no [`RewriteArtifacts`]: the rewrite ran
    /// with [`RewriteConfig::collect_artifacts`] disabled.
    MissingArtifacts,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::MissingArtifacts => f.write_str(
                "rewrite outcome carries no artifacts; rerun with collect_artifacts enabled",
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Statically validate `outcome` as a rewrite of `original` under
/// `config` (the configuration the rewrite was produced with).
///
/// Returns a [`VerifyReport`]; the rewrite is sound iff
/// [`VerifyReport::is_clean`] — warnings mark wasteful-but-safe
/// over-approximation, infos mark functions neither side analyses.
///
/// # Errors
///
/// [`VerifyError::MissingArtifacts`] when the outcome was produced
/// with artifact collection disabled.
pub fn verify_rewrite(
    original: &Binary,
    outcome: &RewriteOutcome,
    config: &RewriteConfig,
) -> Result<VerifyReport, VerifyError> {
    verify_against(original, outcome, config, &strict_analysis(original, config))
}

/// The verifier's oracle: the strict re-analysis of `original`, with
/// the same resolution limits as the rewrite (so clean rewrites
/// re-analyse identically), but heuristics off and injected faults
/// cleared. Functions only the heuristics can classify become analysis
/// failures here and are skipped with an info diagnostic — the
/// verifier never guesses. This is the sequential reference; the
/// ladder derives the same analysis from its rewrite's
/// ([`icfgp_core::derive_strict_analysis`]).
fn strict_analysis(original: &Binary, config: &RewriteConfig) -> BinaryAnalysis {
    analyze(original, &config.analysis.strictened())
}

/// [`verify_rewrite`] against an already computed strict analysis of
/// `original` under `config.analysis`.
fn verify_against(
    original: &Binary,
    outcome: &RewriteOutcome,
    config: &RewriteConfig,
    strict: &BinaryAnalysis,
) -> Result<VerifyReport, VerifyError> {
    let artifacts: &RewriteArtifacts =
        outcome.artifacts.as_ref().ok_or(VerifyError::MissingArtifacts)?;
    let mut report = VerifyReport::default();
    patches::check_patches(artifacts, &mut report);
    tramps::check_trampolines(original, outcome, artifacts, strict, &mut report);
    cfl::check_cfl(outcome, artifacts, strict, config, &mut report);
    clones::check_clones(original, outcome, artifacts, strict, config, &mut report);
    maps::check_maps(outcome, artifacts, config, &mut report);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use icfgp_core::{Instrumentation, Points, RewriteMode, Rewriter};
    use icfgp_isa::Arch;

    fn small(arch: Arch) -> Binary {
        icfgp_workloads::generate(&icfgp_workloads::GenParams::small("verify", arch, 7)).binary
    }

    #[test]
    fn clean_rewrite_verifies_on_all_arches() {
        for arch in [Arch::X64, Arch::Ppc64le, Arch::Aarch64] {
            let bin = small(arch);
            let config = RewriteConfig::new(RewriteMode::Jt);
            let out = Rewriter::new(config.clone())
                .rewrite(&bin, &Instrumentation::empty(Points::EveryBlock))
                .unwrap();
            let report = verify_rewrite(&bin, &out, &config).unwrap();
            let errs: Vec<_> = report.errors().collect();
            assert!(errs.is_empty(), "{arch:?}: {errs:#?}");
            assert!(report.functions_checked > 0);
        }
    }

    #[test]
    fn missing_artifacts_is_an_error() {
        let bin = small(Arch::X64);
        let mut config = RewriteConfig::new(RewriteMode::Dir);
        config.collect_artifacts = false;
        let out = Rewriter::new(config.clone())
            .rewrite(&bin, &Instrumentation::empty(Points::EveryBlock))
            .unwrap();
        assert_eq!(verify_rewrite(&bin, &out, &config), Err(VerifyError::MissingArtifacts));
    }

    #[test]
    fn tampered_trampoline_is_caught() {
        let bin = small(Arch::X64);
        let config = RewriteConfig::new(RewriteMode::Jt);
        let mut out = Rewriter::new(config.clone())
            .rewrite(&bin, &Instrumentation::empty(Points::EveryBlock))
            .unwrap();
        // Corrupt one trampoline's recorded target: reach/consistency
        // checks must notice the disagreement with the block map.
        let arts = out.artifacts.as_mut().unwrap();
        let t = arts
            .plans
            .iter_mut()
            .flat_map(|(_, p)| p.trampolines.iter_mut())
            .next()
            .unwrap();
        t.target += 2;
        let report = verify_rewrite(&bin, &out, &config).unwrap();
        assert!(!report.is_clean());
    }
}
