//! Deterministic fault injection — the chaos layer's front end.
//!
//! A [`FaultPlan`] is a seeded, serialisable description of *how much*
//! of each failure class from the paper's Figure 2 to inject into a
//! rewrite. [`FaultPlan::arm`] materialises the plan against a
//! concrete binary: it runs a clean analysis to enumerate candidate
//! victims (functions, jump tables), draws from a seeded PRNG, and
//! fills [`RewriteConfig`] with the corresponding
//! [`InjectedFault`]s and stress knobs. The same seed against the same
//! binary always produces the same faults, so every chaos campaign
//! case is reproducible from `(workload, arch, mode, seed)`.
//!
//! The knobs map onto the paper's failure classes:
//!
//! * `fail_function` / `panic_function` — spurious analysis failure,
//!   and a latent analysis *bug* (caught per function by the isolation
//!   boundary in `icfgp_cfg::analyze`);
//! * `drop_table_targets` — jump-table under-approximation, the
//!   catastrophic class (§5.1/Figure 2);
//! * `add_table_targets` — over-approximation, wasteful but safe;
//! * `corrupt_liveness` — a wrong scratch-register oracle, so long
//!   trampolines may clobber live registers;
//! * `stall_function` — a pathological function whose analysis blows
//!   past its work-unit budget, so the watchdog demotes it
//!   (`AnalysisFailure::Budget`) instead of hanging;
//! * `shrink_budgets` / `starve_scratch` / `exhaust_reach` — placement
//!   stress: no superblocks, no scratch sources (so no islands), and a
//!   `.instr` gap beyond the short-branch reach.
//!
//! Arming touches only the [`RewriteConfig`]. The `store_*`, `net_*`
//! and `corrupt_patch_point` knobs describe faults in the machinery
//! around a rewrite; the code that opens the store, builds the
//! transport or builds the cache arms them ([`FaultPlan::store_faults`],
//! [`FaultPlan::net_faults`],
//! [`RewriteCache::arm_patch_corruption`](crate::RewriteCache::arm_patch_corruption)).
//! Only chaos campaigns and tests do, so `--fault-seed` on a user's run
//! never damages the user's store or wire.

use crate::config::RewriteConfig;
use icfgp_cfg::{FuncStatus, InjectedFault};
use icfgp_obj::Binary;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A seeded, serialisable fault-injection plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// PRNG seed; the whole plan is a pure function of this and the
    /// binary.
    pub seed: u64,
    /// Probability a function's analysis is forced to report failure.
    pub fail_function: f64,
    /// Probability a function's analysis panics (isolated per
    /// function).
    pub panic_function: f64,
    /// Probability a resolved jump table loses trailing entries
    /// (under-approximation).
    pub drop_table_targets: f64,
    /// Probability a resolved jump table gains infeasible entries
    /// (over-approximation).
    pub add_table_targets: f64,
    /// Probability a function's liveness oracle claims every register
    /// dead.
    pub corrupt_liveness: f64,
    /// Probability a function's analysis stalls: it is charged
    /// [`FaultPlan::stall_units`] watchdog work units up front, which
    /// (when above `AnalysisConfig::max_work_units`) deterministically
    /// trips the analysis watchdog (`AnalysisFailure::Budget`).
    #[serde(default)]
    pub stall_function: f64,
    /// Work units an injected stall charges (see
    /// [`FaultPlan::stall_function`]).
    #[serde(default)]
    pub stall_units: u64,
    /// Disable trampoline superblocks (shrinks every inline budget to
    /// the CFL block itself).
    pub shrink_budgets: bool,
    /// Disable all three scratch sources (padding, `.old.*` sections,
    /// block leftovers) so multi-hop islands cannot be allocated.
    pub starve_scratch: bool,
    /// Push `.instr` beyond the architecture's short-branch reach so
    /// short trampolines cannot reach it directly.
    pub exhaust_reach: bool,
    /// Probability a persistent-store flush writes a torn (truncated
    /// mid-record) segment. Store faults damage persistence only — the
    /// cache recomputes through them, so output bytes never change.
    pub store_torn_write: f64,
    /// Probability a flushed store segment gets one bit flipped.
    pub store_bit_flip: f64,
    /// Probability a store flush finds the directory lock busy and
    /// defers (records stay pending).
    pub store_lock_contention: f64,
    /// Probability a store-decoded shared fragment payload is
    /// corrupted in a way its frame checksum cannot see (a patch-point
    /// offset flip, a stale CFG fingerprint). Exercises the per-lookup
    /// re-validation: the payload must quarantine and recompute, never
    /// mis-fix-up a span — output bytes never change.
    #[serde(default)]
    pub corrupt_patch_point: f64,
    /// Probability a remote-store exchange is delayed
    /// [`FaultPlan::net_delay_ms`] before sending. Net faults damage
    /// only the transport — the client's retry/breaker ladder
    /// absorbs them, so output bytes never change and runs stay
    /// bounded.
    #[serde(default)]
    pub net_delay: f64,
    /// Injected network delay length in milliseconds.
    #[serde(default)]
    pub net_delay_ms: u64,
    /// Probability a remote-store connection drops before the request
    /// is sent.
    #[serde(default)]
    pub net_drop: f64,
    /// Probability a remote-store response arrives torn (truncated
    /// mid-frame).
    #[serde(default)]
    pub net_torn_response: f64,
    /// Probability a remote-store response fails its frame checksum (a
    /// lying server; caught by validation).
    #[serde(default)]
    pub net_bit_flip_reply: f64,
    /// Probability the server dies mid-`PUT` (reply dropped; later
    /// connections refused when the campaign wires the kill flag).
    #[serde(default)]
    pub net_kill_mid_put: f64,
}

impl FaultPlan {
    /// A plan injecting nothing (useful as a base to customise).
    #[must_use]
    pub fn none(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            fail_function: 0.0,
            panic_function: 0.0,
            drop_table_targets: 0.0,
            add_table_targets: 0.0,
            corrupt_liveness: 0.0,
            stall_function: 0.0,
            stall_units: 0,
            shrink_budgets: false,
            starve_scratch: false,
            exhaust_reach: false,
            store_torn_write: 0.0,
            store_bit_flip: 0.0,
            store_lock_contention: 0.0,
            corrupt_patch_point: 0.0,
            net_delay: 0.0,
            net_delay_ms: 0,
            net_drop: 0.0,
            net_torn_response: 0.0,
            net_bit_flip_reply: 0.0,
            net_kill_mid_put: 0.0,
        }
    }

    /// Low fault rates, no placement stress.
    #[must_use]
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan {
            fail_function: 0.05,
            panic_function: 0.02,
            drop_table_targets: 0.10,
            add_table_targets: 0.10,
            corrupt_liveness: 0.05,
            store_torn_write: 0.05,
            store_bit_flip: 0.05,
            corrupt_patch_point: 0.05,
            net_delay: 0.05,
            net_delay_ms: 5,
            net_drop: 0.05,
            net_torn_response: 0.05,
            net_bit_flip_reply: 0.05,
            ..FaultPlan::none(seed)
        }
    }

    /// The default campaign intensity: every fault class active plus
    /// placement stress.
    #[must_use]
    pub fn standard(seed: u64) -> FaultPlan {
        FaultPlan {
            fail_function: 0.10,
            panic_function: 0.05,
            drop_table_targets: 0.35,
            add_table_targets: 0.25,
            corrupt_liveness: 0.15,
            shrink_budgets: seed.is_multiple_of(2),
            starve_scratch: seed.is_multiple_of(3),
            exhaust_reach: !seed.is_multiple_of(2),
            store_torn_write: 0.15,
            store_bit_flip: 0.10,
            store_lock_contention: 0.10,
            corrupt_patch_point: 0.10,
            net_delay: 0.10,
            net_delay_ms: 10,
            net_drop: 0.10,
            net_torn_response: 0.10,
            net_bit_flip_reply: 0.10,
            ..FaultPlan::none(seed)
        }
    }

    /// High fault rates and full placement stress.
    #[must_use]
    pub fn aggressive(seed: u64) -> FaultPlan {
        FaultPlan {
            fail_function: 0.25,
            panic_function: 0.15,
            drop_table_targets: 0.75,
            add_table_targets: 0.50,
            corrupt_liveness: 0.50,
            // Well past the default 2^20-unit analysis budget: a drawn
            // stall always trips the watchdog.
            stall_function: 0.10,
            stall_units: 1 << 22,
            shrink_budgets: true,
            starve_scratch: true,
            exhaust_reach: true,
            store_torn_write: 0.50,
            store_bit_flip: 0.25,
            store_lock_contention: 0.25,
            corrupt_patch_point: 0.30,
            net_delay: 0.20,
            net_delay_ms: 20,
            net_drop: 0.25,
            net_torn_response: 0.20,
            net_bit_flip_reply: 0.15,
            net_kill_mid_put: 0.02,
            ..FaultPlan::none(seed)
        }
    }

    /// A named intensity (`none`/`quiet`/`standard`/`aggressive`).
    #[must_use]
    pub fn named(name: &str, seed: u64) -> Option<FaultPlan> {
        match name {
            "none" => Some(FaultPlan::none(seed)),
            "quiet" => Some(FaultPlan::quiet(seed)),
            "standard" => Some(FaultPlan::standard(seed)),
            "aggressive" => Some(FaultPlan::aggressive(seed)),
            _ => None,
        }
    }

    /// The I/O fault classes of this plan, in the form
    /// [`crate::store::StoreBackend::arm_faults`] takes.
    #[must_use]
    pub fn store_faults(&self) -> crate::store::StoreFaults {
        crate::store::StoreFaults {
            seed: self.seed,
            torn_write: self.store_torn_write,
            bit_flip: self.store_bit_flip,
            lock_contention: self.store_lock_contention,
        }
    }

    /// The network fault classes of this plan, in the form the
    /// remote-store transport
    /// ([`FaultyTransport`](crate::net::FaultyTransport)) takes.
    #[must_use]
    pub fn net_faults(&self) -> crate::net::NetFaults {
        crate::net::NetFaults {
            seed: self.seed,
            delay: self.net_delay,
            delay_ms: self.net_delay_ms,
            drop: self.net_drop,
            torn_response: self.net_torn_response,
            bit_flip_reply: self.net_bit_flip_reply,
            kill_mid_put: self.net_kill_mid_put,
        }
    }

    /// Materialise the plan against `binary`: run a clean analysis to
    /// pick victims and fill `config` with injections and stress
    /// knobs. Deterministic in `(self, binary)`. Store, wire and
    /// read-back faults are left to whoever builds those.
    pub fn arm(&self, binary: &Binary, config: &mut RewriteConfig) {
        self.arm_cached(binary, config, &crate::cache::RewriteCache::new());
    }

    /// [`FaultPlan::arm`] through a [`crate::cache::RewriteCache`]: the
    /// victim-picking clean analysis is served from the cache when a
    /// previous seed (or rewrite) already analysed this binary. The
    /// injections chosen are identical to [`FaultPlan::arm`]. The work
    /// sits in one [`SpanKind::FaultArm`](crate::trace::SpanKind::FaultArm)
    /// span on the cache's trace.
    pub fn arm_cached(
        &self,
        binary: &Binary,
        config: &mut RewriteConfig,
        cache: &crate::cache::RewriteCache,
    ) {
        let trace = cache.trace();
        let span = trace.span(crate::trace::SpanKind::FaultArm);
        let mut rng = SmallRng::seed_from_u64(self.seed);
        fn chance(rng: &mut SmallRng, p: f64) -> bool {
            p > 0.0 && rng.gen_range(0u64..10_000) < (p * 10_000.0) as u64
        }
        let mut clean = config.analysis.clone();
        clean.inject.clear();
        let run = crate::cache::analyze_incremental(
            binary,
            &clean,
            cache,
            crate::pool::default_threads(),
        );
        let analysis = &*run.analysis;
        let mut inject: Vec<InjectedFault> = Vec::new();
        for func in analysis.funcs.values() {
            if func.status != FuncStatus::Ok {
                continue;
            }
            let entry = func.entry;
            if chance(&mut rng, self.fail_function) {
                inject.push(InjectedFault::FailFunction { entry });
            } else if chance(&mut rng, self.panic_function) {
                inject.push(InjectedFault::PanicFunction { entry });
            } else if chance(&mut rng, self.stall_function) {
                inject.push(InjectedFault::StallFunction { entry, units: self.stall_units });
            }
            if chance(&mut rng, self.corrupt_liveness) {
                inject.push(InjectedFault::CorruptLiveness { entry });
            }
            for jt in &func.jump_tables {
                if jt.count > 1 && chance(&mut rng, self.drop_table_targets) {
                    let drop = 1 + rng.gen_range(0..jt.count.div_ceil(2));
                    inject.push(InjectedFault::UnderApproximateTable {
                        jump_addr: jt.jump_addr,
                        drop: drop.min(jt.count - 1),
                    });
                } else if chance(&mut rng, self.add_table_targets) {
                    let extra = 1 + rng.gen_range(0u64..3);
                    inject.push(InjectedFault::OverApproximateTable {
                        jump_addr: jt.jump_addr,
                        extra,
                    });
                }
            }
        }
        config.analysis.inject.extend(inject);
        if self.shrink_budgets {
            config.placement.superblocks = false;
        }
        if self.starve_scratch {
            config.placement.use_padding = false;
            config.placement.use_scratch_sections = false;
            config.placement.reuse_block_leftovers = false;
        }
        if self.exhaust_reach {
            // Just past the short-branch reach: shorts cannot reach
            // `.instr` directly, long forms and islands still can.
            let gap = binary.arch.short_branch_reach() as u64 + (32 << 20);
            config.instr_gap = config.instr_gap.max(gap);
        }
        span.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RewriteMode;
    use icfgp_isa::Arch;

    fn small(arch: Arch) -> Binary {
        icfgp_workloads::generate(&icfgp_workloads::GenParams::small("fault", arch, 3)).binary
    }

    #[test]
    fn arm_is_deterministic() {
        let bin = small(Arch::X64);
        let plan = FaultPlan::standard(42);
        let mut a = RewriteConfig::new(RewriteMode::Jt);
        let mut b = RewriteConfig::new(RewriteMode::Jt);
        plan.arm(&bin, &mut a);
        plan.arm(&bin, &mut b);
        assert_eq!(a, b);
        assert_eq!(a.analysis.inject, b.analysis.inject);
    }

    #[test]
    fn different_seeds_differ() {
        let bin = small(Arch::X64);
        let mut a = RewriteConfig::new(RewriteMode::Jt);
        let mut b = RewriteConfig::new(RewriteMode::Jt);
        FaultPlan::aggressive(1).arm(&bin, &mut a);
        FaultPlan::aggressive(2).arm(&bin, &mut b);
        // Aggressive rates essentially guarantee non-empty injections.
        assert!(!a.analysis.inject.is_empty());
        assert_ne!(a.analysis.inject, b.analysis.inject);
    }

    #[test]
    fn plan_roundtrips_through_json() {
        let plan = FaultPlan::standard(7);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }
}
