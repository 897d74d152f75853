//! The four workloads: their inputs, their in-process references, and
//! the fleet's seeded variant stream.

use icfgp_core::{Instrumentation, Points, RewriteConfig, RewriteMode};
use icfgp_emu::{ExecStats, LoadOptions, Outcome};
use icfgp_isa::Arch;
use icfgp_obj::Binary;

/// One benchmark workload. See the crate docs for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `firefox_like(X64, 8)`, no store.
    ColdLibxul,
    /// `driverlib_like(X64, 12644, 702)`, no store.
    ColdDriverlib,
    /// The libxul input over a `--cache-dir` filled in setup.
    WarmDiskLibxul,
    /// Seeded near-identical gcc variants over one `--store-url` server.
    FleetRemote,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::ColdLibxul,
        Workload::ColdDriverlib,
        Workload::WarmDiskLibxul,
        Workload::FleetRemote,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdLibxul => "cold-libxul",
            Workload::ColdDriverlib => "cold-driverlib",
            Workload::WarmDiskLibxul => "warm-disk-libxul",
            Workload::FleetRemote => "fleet-remote",
        }
    }

    /// Look a workload up by [`Workload::name`].
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The configuration every request uses: `--mode func-ptr`, CLI
/// defaults otherwise.
#[must_use]
pub fn rewrite_config() -> RewriteConfig {
    RewriteConfig::new(RewriteMode::FuncPtr)
}

/// Every block instrumented, the CLI default.
#[must_use]
pub fn instrumentation() -> Instrumentation {
    Instrumentation::empty(Points::EveryBlock)
}

/// The libxul-like input: 1,739 functions mixing C++, Rust and C.
#[must_use]
pub fn libxul() -> Binary {
    icfgp_workloads::firefox_like(Arch::X64, 8).binary
}

/// The driver-library input at the paper's §9 size: 12,644 tiny,
/// densely packed functions.
#[must_use]
pub fn driverlib() -> Binary {
    icfgp_workloads::driverlib_like(Arch::X64, 12_644, 702)
        .0
        .binary
}

/// One fleet variant: gcc with 400 cold fillers, a few of which
/// `perturb` renames and swaps (0 is the pristine base).
#[must_use]
pub fn fleet_variant(perturb: u64) -> Binary {
    let mut p = icfgp_workloads::spec_params("602.gcc_s", Arch::X64, false);
    p.filler_funcs = 400;
    p.perturb = perturb;
    icfgp_workloads::generate(&p).binary
}

/// The perturb value of the `i`-th request of the fleet stream for
/// `seed`: a splitmix64 draw, never 0 (the base variant).
#[must_use]
pub fn fleet_perturb(seed: u64, i: u64) -> u64 {
    let mut x = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (x ^ (x >> 31)) % (1 << 32) + 1
}

/// The variant the traced pass rewrites on `fleet-remote`. Fixed, not
/// seeded, so its counts repeat exactly across seeds.
pub const TRACE_PERTURB: u64 = 1;

/// Timed `fleet-remote` requests per second of `--seconds`. Every
/// variant adds records to the served store, and request latency grows
/// with the store (from about 370 ms to 1,400 ms over 500 variants on a
/// 2-vCPU machine), so a run measured for a fixed time would see more
/// growth the faster the machine happened to be. A fixed count gives
/// every run the same store history; 3 per second fills `--seconds` on
/// that machine.
pub const FLEET_REQUESTS_PER_S: f64 = 3.0;

/// What a correct request must produce for one input, computed in
/// process by a storeless `rewrite_with_ladder` and checked by
/// emulation, independently of the rewriter.
#[derive(Debug, Clone)]
pub struct Reference {
    /// The serialised rewritten binary a request must write.
    pub bytes: Vec<u8>,
    /// Point-selected functions rewritten.
    pub funcs: usize,
    /// `RewriteReport::coverage` (a fraction).
    pub coverage: f64,
    /// `RewriteReport::size_increase` (a fraction).
    pub size_increase: f64,
    /// Emulation of the original binary.
    pub emu_orig: ExecStats,
    /// Emulation of the rewritten binary, runtime library preloaded.
    pub emu_rw: ExecStats,
}

/// Compute and check the reference for `binary`.
///
/// # Errors
///
/// The ladder fails, or the original and rewritten binaries do not both
/// halt with equal output.
pub fn reference(binary: &Binary) -> Result<Reference, String> {
    let ladder = icfgp_verify::rewrite_with_ladder(binary, &rewrite_config(), &instrumentation())
        .map_err(|e| format!("reference rewrite: {e}"))?;
    let orig = icfgp_emu::run(binary, &LoadOptions::default());
    let rw = icfgp_emu::run(
        &ladder.outcome.binary,
        &LoadOptions {
            preload_runtime: true,
            ..LoadOptions::default()
        },
    );
    let halted = |o: Outcome| match o {
        Outcome::Halted(s) => Ok(s),
        other => Err(format!("reference emulation did not halt: {other:?}")),
    };
    let (emu_orig, emu_rw) = (halted(orig)?, halted(rw)?);
    if emu_orig.output != emu_rw.output {
        return Err("reference rewrite changed the program's output".to_string());
    }
    let report = &ladder.outcome.report;
    Ok(Reference {
        bytes: serde_json::to_vec(&ladder.outcome.binary).map_err(|e| e.to_string())?,
        funcs: report.instrumented_funcs,
        coverage: report.coverage,
        size_increase: report.size_increase(),
        emu_orig,
        emu_rw,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_stream_is_seeded_and_never_the_base() {
        let a: Vec<u64> = (0..64).map(|i| fleet_perturb(1, i)).collect();
        let b: Vec<u64> = (0..64).map(|i| fleet_perturb(2, i)).collect();
        assert_eq!(a, (0..64).map(|i| fleet_perturb(1, i)).collect::<Vec<_>>());
        assert_ne!(a, b);
        assert!(a.iter().chain(&b).all(|&p| p != 0));
    }
}
