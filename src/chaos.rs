//! Chaos campaigns: sweep faults over workloads and check the paper's
//! §4.3 failure-mode promise — a bad analysis, a crash or a lying
//! cache server may cost coverage or recompute time, never output
//! bytes.
//!
//! A campaign is the cartesian product of workloads × architectures ×
//! rewriting modes × fault seeds, swept by one runner
//! ([`run_campaign`]). Each case arms the seed's [`FaultPlan`]; the
//! campaign's [`FaultAxis`] picks what else the case injects and which
//! oracles judge it:
//!
//! | axis | injects | oracles |
//! |---|---|---|
//! | [`FaultAxis::Seed`] | analysis faults (store I/O faults too, over a store directory) | the ladder converges; the rewrite emulates equivalently; the budget verdict; no verify-forced demotion on an audited-proven function |
//! | [`FaultAxis::KillResume`] | a kill after every journal boundary | the reference journal is complete; the run stops at exactly round *k*; the journal header matches; at every kill point the resume is byte-identical, has identical dispositions and correct round accounting, and misses strictly fewer stages than cold |
//! | [`FaultAxis::Net`] | transport faults against a live store server | store conservation for every client; byte identity with a cold run; the 120 s deadline; the server store is undamaged; lookup conservation against a fault-free client; a second warm client is strictly warmer |
//!
//! Every case yields one [`CaseResult`]; the cases roll up into a
//! [`CampaignReport`] whose worst [`CaseStatus`] is the `icfgp chaos`
//! exit code.

use icfgp_core::{
    apply_audit_gate, audit_mode_of, binary_fingerprint, config_fingerprint, CacheStore,
    DegradationPolicy, FaultPlan, FuncMode, Instrumentation, Points, Registry, RemoteStore,
    RewriteCache, RewriteConfig, RewriteMode, RewriteStats, RunJournal, StoreBackend,
    StoreStats, Trace,
};
use icfgp_emu::{run, LoadOptions, Outcome};
use icfgp_isa::Arch;
use icfgp_obj::Binary;
use icfgp_verify::{
    rewrite_with_ladder_cached, rewrite_with_ladder_supervised, LadderError, Supervisor,
};
use icfgp_workloads::{
    docker_like, driverlib_like, firefox_like, generate, spec_params, switch_demo, GenParams,
    SPEC_NAMES,
};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// What a campaign injects into each case, and so which oracles judge
/// it (see the module table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum FaultAxis {
    /// Seeded analysis faults, plus store I/O faults over a store
    /// directory.
    Seed,
    /// A deterministic kill after every journal boundary, then a
    /// resume.
    KillResume,
    /// Seeded transport faults against a live in-process store server.
    Net,
}

/// What a chaos campaign should sweep.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The fault family each case injects.
    pub axis: FaultAxis,
    /// Workload names (`small`, `switch_demo`, `spec:NAME`).
    pub workloads: Vec<String>,
    /// Architectures to cover.
    pub arches: Vec<Arch>,
    /// Requested rewriting modes.
    pub modes: Vec<RewriteMode>,
    /// Fault seeds; each seed is one independent fault plan.
    pub seeds: Vec<u64>,
    /// Fault-plan intensity (`none`/`quiet`/`standard`/`aggressive`).
    pub intensity: String,
    /// Degradation policy applied to every case.
    pub policy: DegradationPolicy,
    /// On the seed axis, an optional persistent store shared by every
    /// case: each case's fault plan also arms the store's I/O fault
    /// hooks, so store damage is judged by the same oracles. On the
    /// kill-resume and net axes, the scratch root for each case's
    /// store, journal and server subdirectories (a temporary
    /// directory when unset); each case empties its subdirectories
    /// before use.
    pub dir: Option<PathBuf>,
    /// Shared trace spine every case's caches, stores and clients emit
    /// onto (`--trace`); `None` keeps per-case private collectors.
    pub trace: Option<Arc<Trace>>,
}

impl CampaignConfig {
    /// The default sweep for `axis`. The kill-resume and net axes run
    /// `small` on x86-64 only: under the standard plan it ladders
    /// through 3 (jt) and 4 (func-ptr) rounds on most seeds — real kill
    /// points and real store traffic, not trivial one-round passes.
    #[must_use]
    pub fn new(axis: FaultAxis) -> CampaignConfig {
        let (workloads, arches, modes, seeds): (&[&str], _, _, _) = match axis {
            FaultAxis::Seed => (
                &["small", "switch_demo"],
                vec![Arch::X64, Arch::Ppc64le, Arch::Aarch64],
                vec![RewriteMode::Dir, RewriteMode::Jt, RewriteMode::FuncPtr],
                (1..=8).collect(),
            ),
            FaultAxis::KillResume => (
                &["small"],
                vec![Arch::X64],
                vec![RewriteMode::Jt, RewriteMode::FuncPtr],
                vec![2, 3],
            ),
            FaultAxis::Net => (
                &["small"],
                vec![Arch::X64],
                vec![RewriteMode::Jt, RewriteMode::FuncPtr],
                vec![1, 2, 3],
            ),
        };
        CampaignConfig {
            axis,
            workloads: workloads.iter().map(|w| (*w).to_string()).collect(),
            arches,
            modes,
            seeds,
            intensity: "standard".into(),
            policy: DegradationPolicy::default(),
            dir: None,
            trace: None,
        }
    }
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig::new(FaultAxis::Seed)
    }
}

/// Per-case verdict, from best to worst.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", tag = "kind", content = "detail")]
pub enum CaseStatus {
    /// Seed axis: every function achieved its requested mode; verify
    /// clean; emulation equivalent. Kill-resume and net axes: every
    /// oracle held.
    #[default]
    Clean,
    /// Some functions degraded or were analysis-skipped, within the
    /// error budget; verify clean; emulation equivalent.
    Degraded,
    /// The ladder converged but more functions fell below the policy
    /// floor than the budget allows.
    BudgetExceeded,
    /// The ladder could not produce a verified rewrite at all.
    LadderFailed(String),
    /// The rewritten binary did not emulate equivalently.
    EmulationDiverged(String),
    /// A kill-resume or net oracle failed; the detail names the first
    /// failure.
    Failed(String),
}

impl CaseStatus {
    /// Campaign exit-code contribution: 0 clean, 1 degraded (budget
    /// verdicts included — on a heavily faulted small workload an
    /// exceeded budget is the policy *working*, reported in the
    /// matrix), 2 for real robustness failures: no verified rewrite
    /// produced, behavioural divergence, or a failed axis oracle.
    #[must_use]
    pub fn exit_code(&self) -> u8 {
        match self {
            CaseStatus::Clean => 0,
            CaseStatus::Degraded | CaseStatus::BudgetExceeded => 1,
            CaseStatus::LadderFailed(_)
            | CaseStatus::EmulationDiverged(_)
            | CaseStatus::Failed(_) => 2,
        }
    }

    /// One-character matrix cell.
    #[must_use]
    pub fn cell(&self) -> char {
        match self {
            CaseStatus::Clean => '.',
            CaseStatus::Degraded => 'd',
            CaseStatus::BudgetExceeded => 'B',
            CaseStatus::LadderFailed(_) => 'L',
            CaseStatus::EmulationDiverged(_) => 'X',
            CaseStatus::Failed(_) => 'F',
        }
    }

    /// The failure detail, for the three failing verdicts.
    #[must_use]
    pub fn detail(&self) -> Option<&str> {
        match self {
            CaseStatus::LadderFailed(w)
            | CaseStatus::EmulationDiverged(w)
            | CaseStatus::Failed(w) => Some(w),
            _ => None,
        }
    }
}

/// The static-audit cross-check for one case: verdict counts under the
/// requested mode, plus the soundness comparison against the ladder.
///
/// The comparison is the seed axis's audit oracle: a function the
/// auditor grades `proven` must never need a verify-forced demotion —
/// [`CaseAudit::demoted_proven`] counts violations and is expected to
/// be zero in every case.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CaseAudit {
    /// Functions whose relevant evidence is fully proven.
    pub proven: u64,
    /// Worst relevant finding is over-approximation.
    pub over_approx: u64,
    /// Worst relevant finding is under-approximation risk.
    pub under_approx_risk: u64,
    /// Worst relevant finding is unknown.
    pub unknown: u64,
    /// Verify-forced ladder demotions that landed on an audited-proven
    /// function (an audit soundness violation; always expected 0).
    pub demoted_proven: u64,
}

/// One campaign case: its identity, its verdict, and the counters its
/// axis's oracles compared (zero on the other axes).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CaseResult {
    /// Workload name.
    pub workload: String,
    /// Architecture.
    pub arch: String,
    /// Requested mode.
    pub mode: String,
    /// Fault seed.
    pub seed: u64,
    /// Verdict.
    pub status: CaseStatus,
    /// Ladder rounds: the case's ladder on the seed axis (0 when it
    /// failed), the uninterrupted reference on the kill-resume axis.
    pub rounds: usize,
    /// Seed: point-selected functions in the case.
    pub funcs: usize,
    /// Seed: functions that ended below their requested mode.
    pub degraded_funcs: usize,
    /// Seed: functions below the policy floor.
    pub below_floor: usize,
    /// Seed: static-audit verdicts and the verify-vs-audit cross-check.
    pub audit: CaseAudit,
    /// Kill-resume: kill points exercised (`rounds - 1`; 0 when the
    /// reference converged in one round and the case passes
    /// trivially).
    pub kill_points: usize,
    /// Kill-resume and net: stage misses of the cold reference run.
    pub cold_misses: u64,
    /// Kill-resume: worst resumed-run stage misses across kill points
    /// (must stay below `cold_misses`).
    pub resumed_misses: u64,
    /// Net: transport faults the injector actually fired.
    pub injected: u64,
    /// Net: the faulted client's store counters over its run (a
    /// snapshot delta, so a shared trace does not mix clients).
    pub store: Option<StoreStats>,
    /// Net: store lookups the fault-free first warm client accounted;
    /// the faulted client must account exactly as many.
    pub warm_first_lookups: u64,
    /// Net: stage misses of the first fault-free client on a fresh
    /// server.
    pub warm_first_misses: u64,
    /// Net: stage misses of the second client against the now-warm
    /// server (must be strictly below `warm_first_misses`).
    pub warm_second_misses: u64,
}

impl CaseResult {
    /// One progress line: identity, verdict cell, failure detail, and
    /// the counters the `axis` oracles compared.
    #[must_use]
    pub fn line(&self, axis: FaultAxis) -> String {
        let note = self.status.detail().map(|w| format!(" ({w})")).unwrap_or_default();
        let counters = match axis {
            FaultAxis::Seed => format!(
                "{} round(s), {}/{} degraded",
                self.rounds, self.degraded_funcs, self.funcs
            ),
            FaultAxis::KillResume => format!(
                "{} round(s), {} kill point(s), misses {} cold / {} worst resumed",
                self.rounds, self.kill_points, self.cold_misses, self.resumed_misses
            ),
            FaultAxis::Net => {
                let s = self.store.unwrap_or_default();
                format!(
                    "{} injected, {} retries, {} trip(s), {} hit / {} miss remote, warm {} -> {}",
                    self.injected,
                    s.retries,
                    s.breaker_trips,
                    s.remote_hits,
                    s.remote_misses,
                    self.warm_first_misses,
                    self.warm_second_misses,
                )
            }
        };
        format!(
            "{}/{}/{} seed {}: {}{note} [{counters}]",
            self.workload,
            self.arch,
            self.mode,
            self.seed,
            self.status.cell()
        )
    }
}

/// Aggregated campaign results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// The fault family the campaign swept.
    pub axis: FaultAxis,
    /// Every case, in sweep order.
    pub cases: Vec<CaseResult>,
    /// Seed axis over a store directory: persistent-store counters over
    /// the whole campaign. Quarantines here are *expected* under store
    /// fault injection — the exit code only reflects case verdicts.
    pub store: Option<StoreStats>,
}

impl CampaignReport {
    /// Worst exit code across all cases (the campaign verdict).
    #[must_use]
    pub fn exit_code(&self) -> u8 {
        self.cases.iter().map(|c| c.status.exit_code()).max().unwrap_or(0)
    }

    /// Count of cases with the given exit contribution.
    #[must_use]
    pub fn count(&self, code: u8) -> usize {
        self.cases.iter().filter(|c| c.status.exit_code() == code).count()
    }

    /// Audit verdicts summed over every case. `demoted_proven` being
    /// non-zero means the static auditor certified a function the
    /// verifier then demoted — a soundness bug worth failing CI over.
    #[must_use]
    pub fn audit_totals(&self) -> CaseAudit {
        let mut t = CaseAudit::default();
        for c in &self.cases {
            t.proven += c.audit.proven;
            t.over_approx += c.audit.over_approx;
            t.under_approx_risk += c.audit.under_approx_risk;
            t.unknown += c.audit.unknown;
            t.demoted_proven += c.audit.demoted_proven;
        }
        t
    }

    /// Render the robustness matrix (one row per workload/arch/mode,
    /// one cell per seed), the verdict line, the axis summary, and the
    /// detail of every failed case.
    #[must_use]
    pub fn render(&self) -> String {
        let id = |c: &CaseResult| format!("{}/{}/{}", c.workload, c.arch, c.mode);
        let mut seeds: Vec<u64> = Vec::new();
        let mut rows: Vec<String> = Vec::new();
        for c in &self.cases {
            if !seeds.contains(&c.seed) {
                seeds.push(c.seed);
            }
            if !rows.contains(&id(c)) {
                rows.push(id(c));
            }
        }
        let mut out = format!("{:<34}", "workload/arch/mode");
        for s in &seeds {
            let _ = write!(out, "{s:>3}");
        }
        out.push('\n');
        for row in rows {
            let _ = write!(out, "{row:<34}");
            for s in &seeds {
                let cell = self
                    .cases
                    .iter()
                    .find(|c| id(c) == row && c.seed == *s)
                    .map_or(' ', |c| c.status.cell());
                let _ = write!(out, "{cell:>3}");
            }
            out.push('\n');
        }
        let _ = write!(
            out,
            "{} case(s): {} clean, {} degraded, {} failed   \
             (. clean, d degraded, B budget exceeded, L ladder failed, \
             X emulation diverged, F oracle failed)",
            self.cases.len(),
            self.count(0),
            self.count(1),
            self.count(2),
        );
        match self.axis {
            FaultAxis::Seed => {
                let audit = self.audit_totals();
                let _ = write!(
                    out,
                    "\naudit: {} proven, {} over-approx, {} under-approx-risk, {} unknown \
                     verdict(s) across cases; {} verify-forced demotion(s) on proven functions",
                    audit.proven,
                    audit.over_approx,
                    audit.under_approx_risk,
                    audit.unknown,
                    audit.demoted_proven,
                );
            }
            FaultAxis::KillResume => {
                let points: usize = self.cases.iter().map(|c| c.kill_points).sum();
                let _ = write!(out, "\nkill-resume: {points} kill point(s) resumed");
            }
            FaultAxis::Net => {
                let injected: u64 = self.cases.iter().map(|c| c.injected).sum();
                let _ = write!(out, "\nnet: {injected} transport fault(s) injected");
            }
        }
        if let Some(s) = &self.store {
            let _ = write!(
                out,
                "\nstore: {} hit / {} miss persisted, {} flushed record(s), \
                 {} quarantined record(s), {} quarantined segment(s), \
                 {} lock timeout(s), {} I/O error(s)",
                s.hits,
                s.misses,
                s.flushed_records,
                s.quarantined_records,
                s.quarantined_segments,
                s.lock_timeouts,
                s.io_errors,
            );
        }
        for c in &self.cases {
            if let Some(w) = c.status.detail() {
                let _ = write!(out, "\n{} seed {}: {w}", id(c), c.seed);
            }
        }
        out
    }
}

/// Build the named workload for `arch`. Supports the same names as
/// `icfgp gen` minus the ones that need extra parameters.
///
/// # Errors
///
/// A message naming the unknown workload.
pub fn build_workload(name: &str, arch: Arch) -> Result<Binary, String> {
    if let Some(spec) = name.strip_prefix("spec:") {
        let spec = SPEC_NAMES
            .iter()
            .find(|n| **n == spec)
            .ok_or_else(|| format!("unknown SPEC benchmark {spec}"))?;
        return Ok(generate(&spec_params(spec, arch, false)).binary);
    }
    match name {
        "small" => Ok(generate(&GenParams::small("chaos", arch, 3)).binary),
        "switch_demo" | "switch-demo" => Ok(switch_demo(arch, false).binary),
        "firefox" => Ok(firefox_like(arch, 1).binary),
        "docker" => Ok(docker_like(arch, 3, 100).binary),
        "driverlib" => Ok(driverlib_like(arch, 400, 30).0.binary),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Dynamic oracle: same outcome class and same output stream.
///
/// # Errors
///
/// A human-readable description of the divergence.
pub fn emulates_equivalently(original: &Binary, rewritten: &Binary) -> Result<(), String> {
    let orig = run(original, &LoadOptions::default());
    let new = run(
        rewritten,
        &LoadOptions { preload_runtime: true, ..LoadOptions::default() },
    );
    match (&orig, &new) {
        (Outcome::Halted(a), Outcome::Halted(b)) => {
            if a.output == b.output {
                Ok(())
            } else {
                Err(format!("output diverged: {:?} vs {:?}", a.output, b.output))
            }
        }
        // Both crash: same failure class is equivalent enough for
        // crashy workloads.
        (Outcome::Crashed { .. }, Outcome::Crashed { .. })
        | (Outcome::OutOfFuel(_), Outcome::OutOfFuel(_)) => Ok(()),
        (a, b) => Err(format!(
            "outcome class diverged: original {} vs rewritten {}",
            outcome_name(a),
            outcome_name(b)
        )),
    }
}

fn outcome_name(o: &Outcome) -> &'static str {
    match o {
        Outcome::Halted(_) => "halted",
        Outcome::Crashed { .. } => "crashed",
        Outcome::OutOfFuel(_) => "out-of-fuel",
    }
}

/// One sweep point, as the per-axis case functions see it.
struct Case<'a> {
    binary: &'a Binary,
    /// `workload-arch-mode-seed`: names the case's scratch
    /// subdirectories.
    label: String,
    seed: u64,
    /// The requested mode, the seed's fault plan and the policy.
    config: RewriteConfig,
    /// The per-binary cache the seed axis shares across modes and
    /// seeds: the clean victim-picking analysis is computed once per
    /// binary, and each seed re-does only the per-function work its
    /// injections touch.
    cache: &'a RewriteCache,
    /// Scratch root for the kill-resume and net axes.
    dir: &'a Path,
    trace: Option<&'a Arc<Trace>>,
}

impl Case<'_> {
    /// The case's scratch subdirectory `name`, emptied of anything an
    /// earlier campaign over the same root left there.
    fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let d = self.dir.join(format!("{}-{name}", self.label));
        match std::fs::remove_dir_all(&d) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                Err(format!("clear {}: {e}", d.display()))
            }
            _ => Ok(d),
        }
    }
}

/// A per-axis case function: fills the counters its oracles compare
/// into the result and returns the verdict; an `Err` is the first
/// failed oracle.
type CaseFn = fn(&Case, &mut CaseResult) -> Result<CaseStatus, String>;

/// Every case instruments every block.
fn every_block() -> Instrumentation {
    Instrumentation::empty(Points::EveryBlock)
}

/// The serialised bytes an output binary is compared by.
fn output_bytes(binary: &Binary) -> Vec<u8> {
    serde_json::to_vec(binary).unwrap_or_default()
}

/// Stage misses a run had to compute (everything not served from the
/// in-memory cache or the persistent store).
fn stage_misses(stats: &[RewriteStats]) -> u64 {
    stats
        .iter()
        .map(|s| {
            s.func_analyses.misses + s.fragments.misses + s.emits.misses + s.liveness.misses
        })
        .sum()
}

/// Open a per-case persistent store, emitting onto the shared
/// campaign trace when one is configured.
fn open_case_store(dir: &Path, trace: Option<&Arc<Trace>>) -> Arc<CacheStore> {
    match trace {
        Some(t) => Arc::new(CacheStore::open_traced(
            dir,
            icfgp_core::store::lock_timeout(),
            Arc::clone(t),
            icfgp_core::StoreSrc::Local,
        )),
        None => Arc::new(CacheStore::open(dir)),
    }
}

/// Seed axis: audit the faulted analysis, ladder to a verified
/// rewrite, and emulate both binaries.
fn seed_case(case: &Case, r: &mut CaseResult) -> Result<CaseStatus, String> {
    let (binary, config, cache) = (case.binary, &case.config, case.cache);
    // Static audit of the same faulted analysis the ladder will see.
    // The gate's func-mode installs land in a throwaway clone: chaos
    // keeps the ladder reactive so the cross-check below compares
    // independent oracles. The report is memoised through `cache`, and
    // its key excludes the mode — the three mode sweeps share one
    // audit per (binary, seed).
    let mut audit_cfg = config.clone();
    if let Some(plan) = audit_cfg.fault_plan.clone() {
        plan.arm_cached(binary, &mut audit_cfg, cache);
    }
    let gate = apply_audit_gate(binary, &mut audit_cfg, cache);
    r.audit = CaseAudit {
        proven: gate.counts.proven,
        over_approx: gate.counts.over_approx,
        under_approx_risk: gate.counts.under_approx_risk,
        unknown: gate.counts.unknown,
        demoted_proven: 0,
    };
    // No supervisor is attached, so `Interrupted` cannot occur; any
    // error means the ladder produced no rewrite.
    let ladder = match rewrite_with_ladder_cached(binary, config, &every_block(), cache) {
        Ok(l) => l,
        Err(e) => return Ok(CaseStatus::LadderFailed(e.to_string())),
    };
    // Every verify-forced demotion must land on a function the auditor
    // did *not* grade proven.
    let proven = gate.report.proven_functions(audit_mode_of(config.mode));
    r.audit.demoted_proven = ladder
        .dispositions
        .iter()
        .filter(|d| !d.steps.is_empty() && proven.contains(&d.entry))
        .count() as u64;
    r.rounds = ladder.rounds;
    r.funcs = ladder.dispositions.len();
    r.degraded_funcs = ladder.degraded().count();
    r.below_floor = ladder.below_floor;
    if let Err(why) = emulates_equivalently(binary, &ladder.outcome.binary) {
        return Ok(CaseStatus::EmulationDiverged(why));
    }
    Ok(if ladder.budget_exceeded {
        CaseStatus::BudgetExceeded
    } else if ladder.fully_clean() && ladder.dispositions.iter().all(|d| d.failure.is_none()) {
        CaseStatus::Clean
    } else {
        CaseStatus::Degraded
    })
}

/// Kill-resume axis.
///
/// First an uninterrupted supervised run establishes the reference
/// (output bytes, dispositions, cold stage-miss count, round count).
/// Then for every journal boundary `k` in `1..rounds`, a fresh store
/// directory hosts a run aborted after `k` rounds (the deterministic
/// stand-in for SIGKILL — the abort lands after the round's store
/// flush and journal append, exactly the state a kill leaves behind),
/// and a process-equivalent (fresh store handle, journal replay)
/// resumes it; [`resume_at`] judges each kill point.
fn kill_case(case: &Case, r: &mut CaseResult) -> Result<CaseStatus, String> {
    let (binary, config) = (case.binary, &case.config);
    let (bfp, cfp) = (binary_fingerprint(binary), config_fingerprint(config));
    let ref_dir = case.fresh_dir("ref")?;
    let ref_journal = ref_dir.join("run.journal");
    let reference = {
        let cache = RewriteCache::with_store(open_case_store(&ref_dir, case.trace));
        let journal = RunJournal::create(&ref_journal, bfp, cfp)
            .map_err(|e| format!("reference journal: {e}"))?;
        let sup = Supervisor { journal: Some(&journal), ..Supervisor::default() };
        rewrite_with_ladder_supervised(binary, config, &every_block(), &cache, &sup)
            .map_err(|e| format!("reference ladder: {e}"))?
    };
    r.rounds = reference.rounds;
    r.cold_misses = stage_misses(&reference.round_stats);
    let ref_bytes = output_bytes(&reference.outcome.binary);
    // The reference journal must read back as a completed run.
    let log = RunJournal::load(&ref_journal).map_err(|e| format!("reference journal load: {e}"))?;
    if !log.complete || log.rounds.len() != reference.rounds {
        return Err(format!(
            "reference journal incomplete: {} round(s), complete={}",
            log.rounds.len(),
            log.complete
        ));
    }
    emulates_equivalently(binary, &reference.outcome.binary)
        .map_err(|why| format!("reference emulation: {why}"))?;
    r.kill_points = reference.rounds.saturating_sub(1);
    for k in 1..reference.rounds {
        let misses = resume_at(case, k, &reference, &ref_bytes, r.cold_misses)
            .map_err(|e| format!("kill point {k}: {e}"))?;
        r.resumed_misses = r.resumed_misses.max(misses);
    }
    Ok(CaseStatus::Clean)
}

/// One kill point: abort after `k` rounds, resume, and return the
/// resumed run's stage misses. The oracles: the run stops at exactly
/// round `k`; the journal replays `k` incomplete rounds under the
/// reference's header; the resumed output bytes equal `ref_bytes` and
/// the dispositions equal the reference's; the resume replays `k` of the reference's rounds;
/// and it misses strictly fewer stages than `cold_misses` — resume
/// redoes strictly less work.
fn resume_at(
    case: &Case,
    k: usize,
    reference: &icfgp_verify::LadderOutcome,
    ref_bytes: &[u8],
    cold_misses: u64,
) -> Result<u64, String> {
    let (binary, config) = (case.binary, &case.config);
    let (bfp, cfp) = (binary_fingerprint(binary), config_fingerprint(config));
    let case_dir = case.fresh_dir(&format!("k{k}"))?;
    let journal_path = case_dir.join("run.journal");
    // The run that dies: abort after k journaled-and-flushed rounds,
    // then drop every handle (the kill).
    {
        let store = open_case_store(&case_dir, case.trace);
        let cache = RewriteCache::with_store(store.clone());
        let journal =
            RunJournal::create(&journal_path, bfp, cfp).map_err(|e| format!("journal: {e}"))?;
        let sup = Supervisor {
            journal: Some(&journal),
            abort_after_rounds: Some(k),
            ..Supervisor::default()
        };
        match rewrite_with_ladder_supervised(binary, config, &every_block(), &cache, &sup) {
            Err(LadderError::Interrupted { rounds }) if rounds == k => {}
            Err(e) => return Err(format!("expected interrupt, got: {e}")),
            Ok(_) => return Err("run finished instead of aborting".into()),
        }
        // Clear any injected-fault backlog so the disk state is exactly
        // "everything the journal acknowledged": the supervised ladder
        // flushed each round, but injected lock contention may have
        // deferred records past the retry budget.
        store.arm_faults(icfgp_core::StoreFaults::default());
        store.flush();
    }
    // The resume: a fresh process-equivalent loads the journal and the
    // warm store and picks up at round k+1.
    let replay = RunJournal::load(&journal_path).map_err(|e| format!("journal load: {e}"))?;
    if replay.complete
        || replay.rounds.len() != k
        || replay.header.binary_fp != bfp
        || replay.header.config_fp != cfp
    {
        return Err(format!(
            "journal replay mismatch ({} round(s), complete={})",
            replay.rounds.len(),
            replay.complete
        ));
    }
    let cache = RewriteCache::with_store(open_case_store(&case_dir, case.trace));
    let sup = Supervisor { resume: Some(&replay), ..Supervisor::default() };
    let resumed = rewrite_with_ladder_supervised(binary, config, &every_block(), &cache, &sup)
        .map_err(|e| format!("resume ladder: {e}"))?;
    if output_bytes(&resumed.outcome.binary) != ref_bytes {
        return Err("resumed bytes diverge from reference".into());
    }
    if resumed.dispositions != reference.dispositions {
        return Err("resumed dispositions diverge from reference".into());
    }
    if resumed.rounds != reference.rounds || resumed.resumed_rounds != k {
        return Err(format!(
            "resumed {} of {} round(s), expected {k} of {}",
            resumed.resumed_rounds, resumed.rounds, reference.rounds
        ));
    }
    let misses = stage_misses(&resumed.round_stats);
    if misses >= cold_misses {
        return Err(format!(
            "resume recomputed {misses} stage(s), no better than the cold run's {cold_misses}"
        ));
    }
    Ok(misses)
}

/// Strip the network knobs from a plan, leaving compute and store
/// faults intact (the warm-pair oracle must run over a clean wire).
fn without_net_faults(plan: &FaultPlan) -> FaultPlan {
    let mut p = plan.clone();
    p.net_delay = 0.0;
    p.net_drop = 0.0;
    p.net_torn_response = 0.0;
    p.net_bit_flip_reply = 0.0;
    p.net_lease_expire = 0.0;
    p.net_kill_mid_put = 0.0;
    p
}

/// Rewrite through a remote `store` client, flush, and check the
/// registry's conservation laws on the client's store delta. Returns
/// the output bytes, the stage misses and the delta.
fn client_run(
    case: &Case,
    tag: &str,
    config: &RewriteConfig,
    store: Arc<RemoteStore>,
) -> Result<(Vec<u8>, u64, StoreStats), String> {
    // Campaigns can share one trace across every client, so per-client
    // numbers come from a snapshot delta, not the raw counters.
    let before = store.stats();
    let cache = RewriteCache::with_store(store.clone());
    let l = rewrite_with_ladder_cached(case.binary, config, &every_block(), &cache)
        .map_err(|e| format!("{tag} ladder: {e}"))?;
    cache.flush_store();
    let s = store.stats().delta_since(&before);
    let violations = Registry::check(tag, &s);
    if !violations.is_empty() {
        return Err(format!("{tag} conservation broken: {}", violations.join("; ")));
    }
    Ok((output_bytes(&l.outcome.binary), stage_misses(&l.round_stats), s))
}

/// Net axis. Three phases share the case's fault plan:
///
/// 1. **cold reference** — a storeless run pins the expected output
///    bytes;
/// 2. **faulted client** — an in-process server over a fresh
///    directory, with the client's transport wrapped in a
///    [`FaultyTransport`](icfgp_core::FaultyTransport) armed from the
///    plan's net knobs (the `kill_mid_put` fault gets the server's real
///    stop flag, so it kills the server mid-run). Oracles: store
///    conservation, byte identity with the cold reference, the run
///    completes within 120 s, and the server directory holds no
///    corrupt records;
/// 3. **warm pair** — a second fresh server, two fault-free clients in
///    sequence under the same compute faults. Oracles: store
///    conservation and byte identity for both; lookup conservation —
///    the faulted client accounted exactly as many lookups as the
///    fault-free first client, so net faults flipped hits to misses
///    without ever losing or double-counting a lookup; and the second
///    client's stage misses are strictly below the first's.
fn net_case(case: &Case, r: &mut CaseResult) -> Result<CaseStatus, String> {
    use icfgp_core::{
        parse_store_url, serve, FaultyTransport, RemoteOptions, RetryPolicy, ServeOptions,
        TcpTransport,
    };
    use std::time::{Duration, Instant};
    let (binary, config) = (case.binary, &case.config);
    let timeout = Duration::from_millis(500);

    // Phase 1: cold reference, no store at all.
    let cold_cache =
        case.trace.map_or_else(RewriteCache::new, |t| RewriteCache::with_trace(Arc::clone(t)));
    let cold = rewrite_with_ladder_cached(binary, config, &every_block(), &cold_cache)
        .map_err(|e| format!("cold reference ladder: {e}"))?;
    let cold_bytes = output_bytes(&cold.outcome.binary);
    r.cold_misses = stage_misses(&cold.round_stats);

    // Phase 2: faulted client against a live in-process server.
    let deadline = Instant::now() + Duration::from_secs(120);
    let srv_dir = case.fresh_dir("srv")?;
    let server = serve("127.0.0.1:0", &srv_dir, ServeOptions::default())
        .map_err(|e| format!("serve: {e}"))?;
    let net = config.fault_plan.as_ref().expect("every case arms a plan").net_faults();
    let transport = TcpTransport::new(server.addr(), timeout);
    let faulty = FaultyTransport::new(Box::new(transport), net, Some(server.stop_flag()));
    let injected = faulty.injected_counter();
    let store = Arc::new(RemoteStore::with_transport(
        Box::new(faulty),
        server.url(),
        RemoteOptions {
            overflow_dir: None,
            timeout,
            breaker_threshold: 4,
            retry: RetryPolicy::seeded(case.seed),
            trace: case.trace.cloned(),
        },
    ));
    let (faulted_bytes, _, s) = client_run(case, "net-faulted", config, store)?;
    r.injected = injected.load(std::sync::atomic::Ordering::Relaxed);
    r.store = Some(s);
    server.kill();
    if faulted_bytes != cold_bytes {
        return Err("faulted output diverged from cold reference".into());
    }
    if Instant::now() > deadline {
        return Err("faulted run blew the 120s retry/watchdog budget".into());
    }
    let report = icfgp_core::store::verify_dir(&srv_dir);
    if report.corrupt_records > 0 || report.bad_segments > 0 || report.truncated_segments > 0 {
        return Err(format!(
            "server store damaged: {} corrupt record(s), {} bad / {} truncated segment(s)",
            report.corrupt_records, report.bad_segments, report.truncated_segments
        ));
    }

    // Phase 3: fault-free warm pair on a fresh server. Compute faults
    // stay armed (same plan, net knobs zeroed), so both clients do the
    // same work and only the store changes between them.
    let mut warm_config = config.clone();
    warm_config.fault_plan = config.fault_plan.as_ref().map(without_net_faults);
    let server = serve("127.0.0.1:0", &case.fresh_dir("warm")?, ServeOptions::default())
        .map_err(|e| format!("warm serve: {e}"))?;
    let url = parse_store_url(&server.url()).expect("server url is well-formed");
    let connect = || {
        let opts = RemoteOptions {
            timeout,
            retry: RetryPolicy::seeded(case.seed),
            trace: case.trace.cloned(),
            ..RemoteOptions::default()
        };
        Arc::new(RemoteStore::connect(&url, opts))
    };
    let (first_bytes, first, first_s) = client_run(case, "warm-first", &warm_config, connect())?;
    let (second_bytes, second, _) = client_run(case, "warm-second", &warm_config, connect())?;
    server.kill();
    r.warm_first_misses = first;
    r.warm_second_misses = second;
    r.warm_first_lookups = first_s.lookups;
    if first_bytes != cold_bytes || second_bytes != cold_bytes {
        return Err("warm output diverged from cold reference".into());
    }
    if s.lookups != first_s.lookups {
        return Err(format!(
            "lookup conservation broken: faulted client accounted {} lookup(s), \
             fault-free client {}",
            s.lookups, first_s.lookups
        ));
    }
    if second >= first {
        return Err(format!("second client not warmer: {second} misses vs first client's {first}"));
    }
    Ok(CaseStatus::Clean)
}

/// Run the full campaign: sweep workloads × arches × modes × seeds
/// through the axis's case function. `progress` is called after each
/// case (the CLI prints a line; tests pass a no-op).
///
/// # Errors
///
/// A message naming an unknown workload or an unusable scratch
/// directory; fault and rewrite problems are per-case verdicts, not
/// campaign errors.
pub fn run_campaign(
    config: &CampaignConfig,
    mut progress: impl FnMut(&CaseResult),
) -> Result<CampaignReport, String> {
    let case_fn: CaseFn = match config.axis {
        FaultAxis::Seed => seed_case,
        FaultAxis::KillResume => kill_case,
        FaultAxis::Net => net_case,
    };
    let trace = config.trace.as_ref();
    // The seed axis shares one persistent store across the campaign
    // (content-addressed keys make sharing across workloads safe); the
    // other axes treat the directory as a scratch root.
    let store = match (config.axis, &config.dir) {
        (FaultAxis::Seed, Some(d)) => Some(open_case_store(d, trace)),
        _ => None,
    };
    let scratch = config.dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("icfgp-chaos-{}", std::process::id()))
    });
    if config.axis != FaultAxis::Seed {
        std::fs::create_dir_all(&scratch)
            .map_err(|e| format!("create {}: {e}", scratch.display()))?;
    }
    let mut report = CampaignReport { axis: config.axis, cases: Vec::new(), store: None };
    for wl in &config.workloads {
        for &arch in &config.arches {
            let binary = build_workload(wl, arch)?;
            let cache = match (&store, trace) {
                (Some(s), _) => RewriteCache::with_store(s.clone()),
                (None, Some(t)) => RewriteCache::with_trace(Arc::clone(t)),
                (None, None) => RewriteCache::new(),
            };
            for &mode in &config.modes {
                for &seed in &config.seeds {
                    let mut rw = RewriteConfig::new(mode);
                    rw.fault_plan = FaultPlan::named(&config.intensity, seed);
                    rw.degradation = config.policy;
                    let case = Case {
                        binary: &binary,
                        label: format!("{wl}-{arch}-{mode}-{seed}"),
                        seed,
                        config: rw,
                        cache: &cache,
                        dir: &scratch,
                        trace,
                    };
                    let mut result = CaseResult {
                        workload: wl.clone(),
                        arch: arch.to_string(),
                        mode: mode.to_string(),
                        seed,
                        ..CaseResult::default()
                    };
                    result.status = case_fn(&case, &mut result).unwrap_or_else(CaseStatus::Failed);
                    progress(&result);
                    report.cases.push(result);
                }
            }
            // Persist what this binary's sweep computed before moving
            // on, so a crash mid-campaign still leaves a warm store.
            cache.flush_store();
        }
    }
    if let Some(store) = &store {
        // Disarm fault hooks left by the final case and flush clean.
        store.arm_faults(icfgp_core::StoreFaults::default());
        store.flush();
        report.store = Some(store.stats());
    }
    Ok(report)
}

/// Parse a `--floor` CLI value.
///
/// # Errors
///
/// A message listing the accepted values.
pub fn parse_floor(s: &str) -> Result<FuncMode, String> {
    match s {
        "dir" => Ok(FuncMode::Full(RewriteMode::Dir)),
        "jt" => Ok(FuncMode::Full(RewriteMode::Jt)),
        "func-ptr" => Ok(FuncMode::Full(RewriteMode::FuncPtr)),
        "trap-only" => Ok(FuncMode::TrapOnly),
        "skip" => Ok(FuncMode::Skip),
        other => Err(format!(
            "unknown floor {other}; expected dir|jt|func-ptr|trap-only|skip"
        )),
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_smoke_x64() {
        let config = CampaignConfig {
            workloads: vec!["switch_demo".into()],
            arches: vec![Arch::X64],
            modes: vec![RewriteMode::Jt],
            seeds: vec![1, 2],
            ..CampaignConfig::default()
        };
        let report = run_campaign(&config, |_| {}).unwrap();
        assert_eq!(report.cases.len(), 2);
        assert!(report.exit_code() <= 1, "{}", report.render());
        let matrix = report.render();
        assert!(matrix.contains("switch_demo/x86-64/jt"), "{matrix}");
        // The third oracle: the auditor graded every case, and no
        // verify-forced demotion landed on a proven function.
        let audit = report.audit_totals();
        assert!(audit.proven + audit.over_approx + audit.under_approx_risk + audit.unknown > 0);
        assert_eq!(audit.demoted_proven, 0, "{matrix}");
        assert!(matrix.contains("audit:"), "{matrix}");
    }

    #[test]
    fn kill_campaign_smoke_x64() {
        let dir = std::env::temp_dir()
            .join(format!("icfgp-kill-smoke-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = CampaignConfig {
            modes: vec![RewriteMode::Jt],
            seeds: vec![2],
            dir: Some(dir.clone()),
            ..CampaignConfig::new(FaultAxis::KillResume)
        };
        let report = run_campaign(&config, |_| {}).unwrap();
        assert_eq!(report.cases.len(), 1);
        assert_eq!(report.exit_code(), 0, "{}", report.render());
        // Standard seed 2 demotes at least one function on `small`, so
        // the case exercises real kill points, not the trivial path.
        let case = &report.cases[0];
        assert!(case.rounds > 1, "{}", report.render());
        assert!(case.kill_points >= 1, "{}", report.render());
        assert!(case.resumed_misses < case.cold_misses, "{}", report.render());
        let json = serde_json::to_string(&report).unwrap();
        let back: CampaignReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn net_campaign_smoke_x64() {
        let dir =
            std::env::temp_dir().join(format!("icfgp-net-smoke-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = CampaignConfig {
            modes: vec![RewriteMode::Jt],
            seeds: vec![1, 2],
            intensity: "aggressive".into(),
            dir: Some(dir.clone()),
            ..CampaignConfig::new(FaultAxis::Net)
        };
        let report = run_campaign(&config, |_| {}).unwrap();
        assert_eq!(report.cases.len(), 2);
        assert_eq!(report.exit_code(), 0, "{}", report.render());
        // Aggressive intensity must actually exercise the fault paths.
        let injected: u64 = report.cases.iter().map(|c| c.injected).sum();
        assert!(injected > 0, "no faults injected: {}", report.render());
        for c in &report.cases {
            let lookups = c.store.map_or(0, |s| s.lookups);
            assert!(lookups > 0 && lookups == c.warm_first_lookups, "{}", report.render());
            assert!(c.warm_second_misses < c.warm_first_misses, "{}", report.render());
        }
        let json = serde_json::to_string(&report).unwrap();
        let back: CampaignReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_shared_fragment_quarantines_and_recomputes_identically() {
        use icfgp_core::Rewriter;
        // Populate a store with one binary, then rewrite a perturbed
        // fleet variant through it with patch-point corruption armed
        // on every store read-back. The per-lookup re-validation must
        // quarantine every corrupted record and recompute — the output
        // must stay byte-identical, never silently mis-fixed-up.
        let mut p = GenParams::small("corrupt", Arch::X64, 5);
        p.filler_funcs = 8;
        let b1 = generate(&p).binary;
        p.perturb = 1;
        let b2 = generate(&p).binary;
        let instr = Instrumentation::empty(Points::EveryBlock);
        let rw = Rewriter::new(RewriteConfig::new(RewriteMode::Jt));
        let cold2 = rw.rewrite_cached(&b2, &instr, &RewriteCache::new()).expect("cold");

        let dir = std::env::temp_dir()
            .join(format!("icfgp-corrupt-patch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cache = RewriteCache::with_store(Arc::new(CacheStore::open(&dir)));
            let _ = rw.rewrite_cached(&b1, &instr, &cache).expect("populate");
            cache.flush_store();
        }
        let cache = RewriteCache::with_store(Arc::new(CacheStore::open(&dir)));
        let mut plan = FaultPlan::none(9);
        plan.corrupt_patch_point = 1.0;
        let mut cfg = rw.config().clone();
        plan.arm_cached(&b2, &mut cfg, &cache);
        let warm = rw.rewrite_cached(&b2, &instr, &cache).expect("warm under corruption");

        assert_eq!(
            cold2.binary, warm.binary,
            "corrupted shared records must recompute byte-identically"
        );
        let s = cache.store_stats();
        assert!(
            s.quarantined_records > 0,
            "every corrupted fragment/emit must be quarantined: {s:?}"
        );
        assert_eq!(
            warm.stats.fragments.hits + warm.stats.emits.hits,
            0,
            "nothing may be served from a corrupted record: {:?} {:?}",
            warm.stats.fragments,
            warm.stats.emits
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn case_status_exit_codes() {
        assert_eq!(CaseStatus::Clean.exit_code(), 0);
        assert_eq!(CaseStatus::Degraded.exit_code(), 1);
        assert_eq!(CaseStatus::BudgetExceeded.exit_code(), 1);
        assert_eq!(CaseStatus::LadderFailed("x".into()).exit_code(), 2);
        assert_eq!(CaseStatus::EmulationDiverged("x".into()).exit_code(), 2);
        assert_eq!(CaseStatus::Failed("x".into()).exit_code(), 2);
    }

    #[test]
    fn report_serialises() {
        let mut r = CampaignReport { axis: FaultAxis::Seed, cases: Vec::new(), store: None };
        r.cases.push(CaseResult {
            workload: "small".into(),
            arch: "x86-64".into(),
            mode: "jt".into(),
            seed: 1,
            status: CaseStatus::Degraded,
            rounds: 3,
            funcs: 10,
            degraded_funcs: 2,
            below_floor: 1,
            audit: CaseAudit {
                proven: 7,
                over_approx: 1,
                under_approx_risk: 2,
                unknown: 0,
                demoted_proven: 0,
            },
            ..CaseResult::default()
        });
        let json = serde_json::to_string(&r).unwrap();
        let back: CampaignReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }
}
