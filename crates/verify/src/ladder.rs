//! The graceful-degradation ladder: verify-driven per-function mode
//! lowering.
//!
//! A rewrite under a faulty analysis can be unsound — dropped
//! jump-table targets, corrupt liveness, latent analysis bugs. Instead
//! of shipping an unsound binary or aborting the whole rewrite, the
//! ladder runs a counterexample-guided loop:
//!
//! ```text
//!   full(func-ptr) ──► full(jt) ──► full(dir) ──► trap-only ──► skip
//! ```
//!
//! Each round rewrites, verifies like [`verify_rewrite`](crate::verify_rewrite)
//! (one strict re-analysis per run is the oracle), attributes every
//! error diagnostic to the function it occurred in, and lowers each
//! offending function one
//! rung. The loop converges because ranks strictly decrease and are
//! bounded below by skip; a round with errors but no attributable
//! victim is [`LadderError::NoConvergence`].
//!
//! The strict re-analysis is computed beside the first executed
//! round: that round's rewrite runs on a scoped worker
//! ([`icfgp_core::pool::join`]) while the calling thread analyses, and
//! the two meet before the round's verification. Later rounds reuse
//! the analysis. With `ICFGP_THREADS=1` both run in turn on the
//! calling thread and the ladder starts no thread. Each executed
//! round's verification sits in a [`SpanKind::Verify`] span.
//!
//! Every function's journey is recorded as a [`FuncDisposition`]
//! (requested mode, achieved mode, the steps taken and why), and the
//! configured [`DegradationPolicy`](icfgp_core::DegradationPolicy)
//! turns the count of functions below the floor into a pass/fail
//! budget verdict.

use crate::{strict_analysis, verify_against, VerifyError, VerifyReport};
use icfgp_cfg::{AnalysisFailure, BinaryAnalysis};
use icfgp_core::{
    apply_audit_gate, binary_fingerprint, config_fingerprint, ladder_key, pool, FuncMode,
    GateSummary, Instrumentation, LadderRound, LadderStep, RewriteCache, RewriteConfig,
    RewriteError, RewriteOutcome, RewriteStats, Rewriter, SkipReason, SpanKind, TraceEvent,
};
use icfgp_obj::Binary;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Upper bound on verify→lower→rewrite rounds. Each round lowers every
/// offending function at least one rung and there are five rungs, so
/// any converging ladder finishes well within this.
pub const MAX_ROUNDS: usize = 12;

/// Version of the ladder's policy, folded into every stored round's
/// key ([`ladder_key`]). Bump it with any change that can alter which
/// functions a round demotes: the verifier's checks, the strict
/// re-analysis, victim attribution or the lowering rule. Rounds stored
/// under an older policy then replay nothing, instead of imposing
/// demotions the current ladder would not make (the final round's
/// verification cannot catch an over-demotion).
pub const LADDER_POLICY: u64 = 1;

/// What finally happened to one point-selected function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FuncDisposition {
    /// Function entry address.
    pub entry: u64,
    /// The mode originally requested for it.
    pub requested: FuncMode,
    /// The mode it was actually rewritten under in the final round.
    pub achieved: FuncMode,
    /// Ladder steps taken, in order.
    pub steps: Vec<LadderStep>,
    /// The analysis failure, for functions skipped by analysis.
    pub failure: Option<AnalysisFailure>,
}

/// Result of a converged ladder run.
#[derive(Debug, Clone)]
pub struct LadderOutcome {
    /// The final (verified-clean) rewrite.
    pub outcome: RewriteOutcome,
    /// The final verification report (zero errors).
    pub verify: VerifyReport,
    /// Per-function dispositions, by entry address.
    pub dispositions: Vec<FuncDisposition>,
    /// Rewrite→verify rounds executed (1 = clean first try).
    pub rounds: usize,
    /// Functions whose achieved mode is below the policy floor.
    pub below_floor: usize,
    /// Whether `below_floor` exceeds the configured error budget.
    pub budget_exceeded: bool,
    /// Per-round cache counters and timings, in round order. With a
    /// shared [`RewriteCache`], rounds after the first re-analyse
    /// nothing and re-rewrite only the demoted functions.
    pub round_stats: Vec<RewriteStats>,
    /// The predictive-gate summary, when `config.audit_gate` was set:
    /// the audit verdicts and every starting rung the gate installed
    /// before round one.
    pub gate: Option<GateSummary>,
    /// Rounds replayed from the store instead of executed (0 for a
    /// cold run). `rounds` includes them, so a resumed run reports the
    /// same total as its uninterrupted twin while having executed only
    /// `rounds - resumed_rounds` of them.
    pub resumed_rounds: usize,
}

impl LadderOutcome {
    /// Whether every function achieved its requested mode.
    #[must_use]
    pub fn fully_clean(&self) -> bool {
        self.dispositions.iter().all(|d| d.achieved == d.requested)
    }

    /// Dispositions that degraded below their request.
    pub fn degraded(&self) -> impl Iterator<Item = &FuncDisposition> {
        self.dispositions.iter().filter(|d| d.achieved < d.requested)
    }
}

/// Why the ladder could not produce a verified rewrite at all.
#[derive(Debug, Clone, PartialEq)]
pub enum LadderError {
    /// The rewriter itself failed (unencodable construct etc.); there
    /// is no output binary to degrade.
    Rewrite(RewriteError),
    /// Verification could not run (missing artifacts).
    Verify(VerifyError),
    /// A round still had errors but none could be attributed to a
    /// lowerable function.
    NoConvergence {
        /// Rounds executed before giving up.
        rounds: usize,
        /// The error diagnostics that remained.
        remaining_errors: Vec<String>,
    },
    /// The run was deliberately aborted by the `abort_after_rounds`
    /// knob of [`rewrite_with_ladder_supervised`] after the round was
    /// stored and flushed — the chaos kill campaign's in-process
    /// stand-in for SIGKILL at a round boundary. Rerun over the same
    /// store to finish the run.
    Interrupted {
        /// Total rounds (replayed + executed) before the abort.
        rounds: usize,
    },
}

impl fmt::Display for LadderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LadderError::Rewrite(e) => write!(f, "rewrite failed: {e}"),
            LadderError::Verify(e) => write!(f, "verification could not run: {e}"),
            LadderError::NoConvergence { rounds, remaining_errors } => write!(
                f,
                "ladder did not converge after {rounds} rounds; {} unattributable error(s)",
                remaining_errors.len()
            ),
            LadderError::Interrupted { rounds } => write!(
                f,
                "run interrupted after {rounds} stored round(s); rerun over the same store to finish"
            ),
        }
    }
}

impl std::error::Error for LadderError {}

impl From<RewriteError> for LadderError {
    fn from(e: RewriteError) -> LadderError {
        LadderError::Rewrite(e)
    }
}

impl From<VerifyError> for LadderError {
    fn from(e: VerifyError) -> LadderError {
        LadderError::Verify(e)
    }
}

/// Rewrite `binary` under `config`, verify, and degrade per function
/// until the verifier reports zero errors.
///
/// When `config.fault_plan` is set it is armed against the binary
/// first (this is how chaos campaigns enter). Artifact collection is
/// forced on — the verifier is the ladder's oracle.
///
/// # Errors
///
/// [`LadderError`] when no verified rewrite can be produced at all;
/// *degradation* is not an error (inspect
/// [`LadderOutcome::budget_exceeded`] for the policy verdict).
pub fn rewrite_with_ladder(
    binary: &Binary,
    config: &RewriteConfig,
    instr: &Instrumentation,
) -> Result<LadderOutcome, LadderError> {
    rewrite_with_ladder_cached(binary, config, instr, &RewriteCache::new())
}

/// [`rewrite_with_ladder`] with an explicit [`RewriteCache`].
///
/// The cache is shared across every round: demoting a function changes
/// only that function's cache keys, so each subsequent round re-does
/// per-function work for the demoted functions alone and serves every
/// untouched function from the cache (analysis is shared wholesale —
/// ladder rungs never change the [`icfgp_cfg::AnalysisConfig`]). Pass
/// the same cache across seeds or related binaries to share further.
///
/// With a store attached, each demotion round is stored as a
/// [`LadderRound`] in the round's flush ([`ladder_key`]), and a run
/// over the same store replays the stored rounds before it rewrites
/// anything: a rerun of a killed or finished ladder executes only the
/// rounds no store holds. Without a store nothing is replayed.
///
/// # Errors
///
/// As [`rewrite_with_ladder`].
pub fn rewrite_with_ladder_cached(
    binary: &Binary,
    config: &RewriteConfig,
    instr: &Instrumentation,
    cache: &RewriteCache,
) -> Result<LadderOutcome, LadderError> {
    rewrite_with_ladder_supervised(binary, config, instr, cache, None)
}

/// [`rewrite_with_ladder_cached`] that aborts with
/// [`LadderError::Interrupted`] once it has executed
/// `abort_after_rounds` rounds (replayed ones do not count), each
/// stored and flushed: exactly the store a SIGKILL at that round
/// boundary leaves (the chaos kill axis's stand-in for one).
///
/// # Errors
///
/// As [`rewrite_with_ladder`], plus [`LadderError::Interrupted`] when
/// the abort fires.
pub fn rewrite_with_ladder_supervised(
    binary: &Binary,
    config: &RewriteConfig,
    instr: &Instrumentation,
    cache: &RewriteCache,
    abort_after_rounds: Option<usize>,
) -> Result<LadderOutcome, LadderError> {
    let mut cfg = config.clone();
    cfg.collect_artifacts = true;
    if let Some(plan) = cfg.fault_plan.clone() {
        plan.arm_cached(binary, &mut cfg, cache);
    }
    // Predictive gating runs *after* the fault plan is armed, so the
    // audit grades the injected faults the verifier will catch and the
    // ladder starts each function at a statically justified rung.
    let gate = cfg
        .audit_gate
        .then(|| apply_audit_gate(binary, &mut cfg, cache));
    let mut steps: BTreeMap<u64, Vec<LadderStep>> = BTreeMap::new();
    let mut round_stats: Vec<RewriteStats> = Vec::new();

    // Replay the stored demotion rounds over the gate's starting rungs,
    // exactly as the run that stored them applied them, up to the first
    // round the store lacks or that fails the ladder's own rule. A
    // replayed round keeps its place in the trace: its span and its
    // demotions, without the rewrite it no longer runs.
    let fps = cache.store().map(|_| (binary_fingerprint(binary), config_fingerprint(config)));
    let key = |round: usize| fps.map(|(b, c)| ladder_key(b, c, instr, LADDER_POLICY, round));
    let trace = cache.trace();
    let demoted = |entry: u64, round: usize, step: &LadderStep| {
        trace.emit(TraceEvent::Demotion {
            entry,
            round: round as u32,
            from: step.from.to_string(),
            to: step.to.to_string(),
        });
    };
    let mut replayed = 0;
    while replayed + 1 < MAX_ROUNDS {
        let round = replayed + 1;
        let Some(stored) = key(round)
            .and_then(|k| cache.stored_ladder_round(k, |r| replayable(binary, &cfg, r)))
        else {
            break;
        };
        let round_span = trace.span(SpanKind::Round { round: round as u32 });
        for (entry, step) in stored.demotions {
            demoted(entry, round, &step);
            cfg.func_modes.insert(entry, step.to);
            steps.entry(entry).or_default().push(step);
        }
        round_span.close();
        replayed = round;
    }

    // Rungs change only `func_modes`, never the analysis config, so
    // every round verifies against one strict re-analysis. The rewrite
    // never reads it, so this thread computes it while the first
    // executed round rewrites on a worker. Not the other way round: the
    // memory a thread frees stays in its own malloc arena, and the
    // caller's later allocations (the output's serialisation) reuse
    // what the strict analysis freed here; computed on the worker it
    // raised peak RSS by about 10% on libxul.
    let mut strict: Option<BinaryAnalysis> = None;
    for round in replayed + 1..=MAX_ROUNDS {
        let round_span = trace.span(SpanKind::Round { round: round as u32 });
        let rewriter = Rewriter::new(cfg.clone());
        let rewrite = || rewriter.rewrite_cached(binary, instr, cache);
        let outcome = if strict.is_some() {
            rewrite()
        } else {
            let (outcome, analysis) =
                pool::join(rewriter.threads(), rewrite, || strict_analysis(binary, &cfg));
            strict = Some(analysis);
            outcome
        }?;
        round_stats.push(outcome.stats);
        let verify_span = trace.span(SpanKind::Verify);
        let strict = strict.as_ref().expect("computed beside the first executed round");
        let verify = verify_against(binary, &outcome, &cfg, strict)?;
        verify_span.close();
        if verify.is_clean() {
            // Persist everything this ladder computed (no-op without
            // an attached store) before handing the outcome back, so a
            // later process starts warm even if this one never exits
            // cleanly.
            cache.flush_store();
            round_span.close();
            return Ok(finish(
                config,
                &cfg,
                outcome,
                verify,
                steps,
                round,
                round_stats,
                gate,
                replayed,
            ));
        }

        // Attribute each error to the function it belongs to.
        let artifacts = outcome.artifacts.as_ref().expect("collect_artifacts forced on");
        let mut victims: BTreeMap<u64, String> = BTreeMap::new();
        let mut unattributed: Vec<String> = Vec::new();
        for d in verify.errors() {
            let owner = binary.function_at(d.addr).map(|s| s.addr).or_else(|| {
                // Relocated-side addresses: find the plan that placed
                // the patch, trampoline or trap entry.
                artifacts
                    .plans
                    .iter()
                    .find(|(_, p)| {
                        p.patches
                            .iter()
                            .any(|pa| d.addr >= pa.addr && d.addr < pa.addr + pa.bytes.len() as u64)
                            || p.trampolines.iter().any(|t| t.block == d.addr || t.target == d.addr)
                            || p.trap_entries.iter().any(|(a, t)| *a == d.addr || *t == d.addr)
                    })
                    .map(|(e, _)| *e)
                    .or_else(|| {
                        // Clone-side addresses map back through the
                        // dispatching jump.
                        artifacts
                            .clones
                            .iter()
                            .find(|c| {
                                let end =
                                    c.clone_addr + c.count * u64::from(c.clone_entry_width);
                                d.addr == c.jump_addr
                                    || d.addr == c.table_addr
                                    || (d.addr >= c.clone_addr && d.addr < end)
                            })
                            .and_then(|c| binary.function_at(c.jump_addr).map(|s| s.addr))
                    })
            });
            match owner {
                Some(entry) => {
                    victims.entry(entry).or_insert_with(|| d.to_string());
                }
                None => unattributed.push(d.to_string()),
            }
        }

        // Lower each victim one rung; a victim already at skip cannot
        // go lower.
        let mut lowered = false;
        let mut demotions = BTreeMap::new();
        for (entry, reason) in victims {
            let cur = cfg.func_mode(entry);
            let Some(next) = cur.lower() else {
                unattributed.push(format!("{entry:#x} already at {cur}, cannot lower: {reason}"));
                continue;
            };
            let step = LadderStep { from: cur, to: next, reason };
            steps.entry(entry).or_default().push(step.clone());
            demoted(entry, round, &step);
            demotions.insert(entry, step);
            cfg.func_modes.insert(entry, next);
            lowered = true;
        }
        if !lowered {
            return Err(LadderError::NoConvergence {
                rounds: round,
                remaining_errors: unattributed,
            });
        }
        // The round record goes into the same flush as the round's
        // per-function results, so a stored round is always backed by
        // them.
        if let Some(k) = key(round) {
            cache.store_ladder_round(k, &LadderRound { demotions });
        }
        cache.flush_store();
        round_span.close();
        if abort_after_rounds.is_some_and(|k| round - replayed >= k) {
            return Err(LadderError::Interrupted { rounds: round });
        }
    }
    Err(LadderError::NoConvergence {
        rounds: MAX_ROUNDS,
        remaining_errors: vec!["round limit reached with errors remaining".into()],
    })
}

/// Whether a stored round is one this ladder could have produced over
/// `cfg`: at least one demotion, each of a function of `binary`,
/// exactly one rung down from the function's current rung.
fn replayable(binary: &Binary, cfg: &RewriteConfig, round: &LadderRound) -> bool {
    !round.demotions.is_empty()
        && round.demotions.iter().all(|(&entry, step)| {
            binary.function_starting_at(entry).is_some()
                && step.from == cfg.func_mode(entry)
                && step.from.lower() == Some(step.to)
        })
}

/// Build the final outcome: dispositions from the last round's
/// artifacts and skip records, plus the policy verdict.
#[allow(clippy::too_many_arguments)]
fn finish(
    requested_cfg: &RewriteConfig,
    final_cfg: &RewriteConfig,
    outcome: RewriteOutcome,
    verify: VerifyReport,
    mut steps: BTreeMap<u64, Vec<LadderStep>>,
    rounds: usize,
    round_stats: Vec<RewriteStats>,
    gate: Option<GateSummary>,
    resumed_rounds: usize,
) -> LadderOutcome {
    let artifacts = outcome.artifacts.as_ref().expect("collect_artifacts forced on");
    let failures: BTreeMap<u64, AnalysisFailure> = outcome
        .report
        .skipped
        .iter()
        .filter_map(|(e, r)| match r {
            SkipReason::AnalysisFailed(f) => Some((*e, f.clone())),
            _ => None,
        })
        .collect();
    let demoted_to_skip: BTreeSet<u64> = outcome
        .report
        .skipped
        .iter()
        .filter(|(_, r)| *r == SkipReason::Demoted)
        .map(|(e, _)| *e)
        .collect();
    let mut dispositions: Vec<FuncDisposition> = artifacts
        .func_modes
        .iter()
        .map(|(entry, achieved)| FuncDisposition {
            entry: *entry,
            requested: requested_cfg.func_mode(*entry),
            achieved: *achieved,
            steps: steps.remove(entry).unwrap_or_default(),
            failure: failures.get(entry).cloned(),
        })
        .collect();
    // Functions the ladder demoted to skip drop out of func_modes only
    // if never selected; make sure they are represented.
    for entry in demoted_to_skip {
        if !dispositions.iter().any(|d| d.entry == entry) {
            dispositions.push(FuncDisposition {
                entry,
                requested: requested_cfg.func_mode(entry),
                achieved: FuncMode::Skip,
                steps: steps.remove(&entry).unwrap_or_default(),
                failure: None,
            });
        }
    }
    dispositions.sort_by_key(|d| d.entry);
    let below_floor = dispositions
        .iter()
        .filter(|d| d.achieved < final_cfg.degradation.floor)
        .count();
    let budget_exceeded =
        final_cfg.degradation.exceeded(below_floor, dispositions.len());
    LadderOutcome {
        outcome,
        verify,
        dispositions,
        rounds,
        below_floor,
        budget_exceeded,
        round_stats,
        gate,
        resumed_rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icfgp_core::{FaultPlan, Points, RewriteMode};
    use icfgp_isa::Arch;

    fn small(arch: Arch, seed: u64) -> Binary {
        icfgp_workloads::generate(&icfgp_workloads::GenParams::small("ladder", arch, seed)).binary
    }

    #[test]
    fn clean_binary_converges_in_one_round() {
        let bin = small(Arch::X64, 7);
        let cfg = RewriteConfig::new(RewriteMode::FuncPtr);
        let out =
            rewrite_with_ladder(&bin, &cfg, &Instrumentation::empty(Points::EveryBlock)).unwrap();
        assert_eq!(out.rounds, 1);
        assert!(out.fully_clean(), "{:#?}", out.degraded().collect::<Vec<_>>());
        assert!(!out.budget_exceeded);
        assert!(out.verify.is_clean());
    }

    /// Invalid instrumentation fails the first executed round's
    /// rewrite, which runs beside the strict re-analysis: the error
    /// still comes back as the ladder's own.
    #[test]
    fn bad_payload_fails_the_overlapped_first_round() {
        use icfgp_core::Payload;
        use icfgp_isa::Inst;
        let bin = small(Arch::X64, 7);
        let instr = Instrumentation {
            points: Points::EveryBlock,
            payload: Payload::Insts(vec![Inst::Jump { offset: 4 }]),
        };
        let cfg = RewriteConfig::new(RewriteMode::FuncPtr);
        let err = rewrite_with_ladder(&bin, &cfg, &instr).unwrap_err();
        assert!(matches!(err, LadderError::Rewrite(RewriteError::BadPayload(_))), "{err}");
    }

    /// Each executed round verifies under one verify span; rounds
    /// replayed from the store verify nothing and hold none.
    #[test]
    fn one_verify_span_per_executed_round() {
        use icfgp_core::{CacheStore, Trace};
        let verify_spans = |events: &[TraceEvent]| {
            events
                .iter()
                .filter(|e| matches!(e, TraceEvent::SpanOpen { span: SpanKind::Verify }))
                .count()
        };
        let bin = small(Arch::X64, 7);
        let instr = Instrumentation::empty(Points::EveryBlock);
        let cache = RewriteCache::with_trace(Trace::recording());
        let cfg = RewriteConfig::new(RewriteMode::FuncPtr);
        let clean = rewrite_with_ladder_cached(&bin, &cfg, &instr, &cache).unwrap();
        assert_eq!(clean.rounds, 1);
        assert_eq!(verify_spans(&cache.trace().sealed()), 1);

        let mut faulted = cfg;
        faulted.fault_plan = Some(FaultPlan::standard(2));
        faulted.degradation.max_below_floor = 1.0;
        let dir = std::env::temp_dir()
            .join(format!("icfgp-ladder-verify-span-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for run in ["cold", "resumed"] {
            let cache = RewriteCache::with_store(std::sync::Arc::new(CacheStore::open(&dir)));
            cache.trace().record();
            let out = rewrite_with_ladder_cached(&bin, &faulted, &instr, &cache).unwrap();
            assert!(out.rounds > 1, "the faulted ladder must demote");
            assert_eq!(out.resumed_rounds > 0, run == "resumed");
            assert_eq!(
                verify_spans(&cache.trace().sealed()),
                out.rounds - out.resumed_rounds,
                "{run}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulted_rewrite_degrades_but_verifies() {
        let bin = small(Arch::X64, 7);
        let mut cfg = RewriteConfig::new(RewriteMode::FuncPtr);
        cfg.fault_plan = Some(FaultPlan::aggressive(3));
        let out =
            rewrite_with_ladder(&bin, &cfg, &Instrumentation::empty(Points::EveryBlock)).unwrap();
        assert!(out.verify.is_clean(), "final round must verify with zero errors");
        // Aggressive faults guarantee at least one function degraded
        // or analysis-skipped.
        assert!(
            out.degraded().count() > 0 || out.dispositions.iter().any(|d| d.failure.is_some()),
            "{:#?}",
            out.dispositions
        );
        // Monotone: achieved never exceeds requested.
        for d in &out.dispositions {
            assert!(d.achieved <= d.requested, "{d:#?}");
            for s in &d.steps {
                assert!(s.to < s.from, "{s:?} must strictly descend");
            }
        }
    }

    /// Every round verifies against the one strict analysis computed
    /// beside the first executed round. Replay a multi-round faulted ladder round by
    /// round from its stored demotions: each round's report equals a
    /// fresh [`crate::verify_rewrite`] of that round's outcome.
    #[test]
    fn shared_strict_analysis_matches_per_round_verify() {
        use icfgp_core::{binary_fingerprint, config_fingerprint, CacheStore};
        let bin = small(Arch::X64, 7);
        let mut config = RewriteConfig::new(RewriteMode::FuncPtr);
        let plan = FaultPlan::standard(2);
        config.fault_plan = Some(plan.clone());
        config.degradation.max_below_floor = 1.0;
        let instr = Instrumentation::empty(Points::EveryBlock);
        let dir = std::env::temp_dir()
            .join(format!("icfgp-ladder-strict-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = RewriteCache::with_store(std::sync::Arc::new(CacheStore::open(&dir)));
        let out = rewrite_with_ladder_cached(&bin, &config, &instr, &cache).unwrap();
        assert!(out.rounds > 1, "the faulted ladder must demote");

        let mut cfg = config.clone();
        cfg.collect_artifacts = true;
        plan.arm_cached(&bin, &mut cfg, &cache);
        let strict = strict_analysis(&bin, &cfg);
        let (bfp, cfp) = (binary_fingerprint(&bin), config_fingerprint(&config));
        for round in 1..=out.rounds {
            let outcome = Rewriter::new(cfg.clone()).rewrite_cached(&bin, &instr, &cache).unwrap();
            let shared = verify_against(&bin, &outcome, &cfg, &strict).unwrap();
            assert_eq!(shared, crate::verify_rewrite(&bin, &outcome, &cfg).unwrap(), "round {round}");
            assert_eq!(shared.is_clean(), round == out.rounds, "round {round}");
            if round == out.rounds {
                assert_eq!(shared, out.verify);
                break;
            }
            let stored = cache
                .stored_ladder_round(ladder_key(bfp, cfp, &instr, LADDER_POLICY, round), |_| true)
                .expect("every demotion round is stored");
            for (entry, step) in stored.demotions {
                cfg.func_modes.insert(entry, step.to);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dispositions_serialise() {
        let d = FuncDisposition {
            entry: 0x1000,
            requested: FuncMode::Full(RewriteMode::FuncPtr),
            achieved: FuncMode::TrapOnly,
            steps: vec![LadderStep {
                from: FuncMode::Full(RewriteMode::FuncPtr),
                to: FuncMode::Full(RewriteMode::Jt),
                reason: "clobber".into(),
            }],
            failure: None,
        };
        let json = serde_json::to_string(&d).unwrap();
        let back: FuncDisposition = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
    }
}
