#![warn(missing_docs)]
//! Incremental CFG patching — the paper's primary contribution.
//!
//! Given a [`icfgp_obj::Binary`] and an [`Instrumentation`] request,
//! the [`Rewriter`] produces a rewritten binary whose layout matches
//! Figure 1 of the paper:
//!
//! * original `.text` keeps (only) **trampolines** that redirect any
//!   control flow landing there into the relocated code;
//! * a new **`.instr`** section holds the relocated code with
//!   instrumentation payloads inserted;
//! * cloned jump tables live in **`.jt_clone`** (`jt`/`func-ptr`
//!   modes);
//! * `.dynsym`/`.dynstr`/`.rela_dyn` are moved and the originals
//!   renamed to `.old.*` — dead bytes that become **scratch space**
//!   for multi-hop trampolines (§7);
//! * **`.ra_map`** records relocated→original return addresses for
//!   runtime RA translation (§6) and **`.trap_map`** backs the
//!   trap-signal handler.
//!
//! The three [`RewriteMode`]s remove CFL-block classes incrementally
//! (§4.2): `dir` rewrites only direct control flow, `jt` additionally
//! clones jump tables, `func-ptr` additionally rewrites
//! function-pointer definitions. Stack unwinding support is chosen by
//! [`UnwindStrategy`]: runtime RA translation (the paper's approach),
//! legacy call emulation (SRBI's approach, kept for the baseline), or
//! none.
//!
//! # Example
//!
//! ```
//! use icfgp_core::{Instrumentation, Points, RewriteConfig, RewriteMode, Rewriter};
//! use icfgp_asm::{BinaryBuilder, FuncDef, Item};
//! use icfgp_isa::{Arch, Inst, Reg, SysOp};
//! use icfgp_obj::Language;
//! use icfgp_emu::{run, LoadOptions, Outcome};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = BinaryBuilder::new(Arch::X64);
//! b.add_function(FuncDef::new("main", Language::C, vec![
//!     Item::I(Inst::MovImm { dst: Reg(8), imm: 7 }),
//!     Item::I(Inst::Sys { op: SysOp::Out, arg: Reg(8) }),
//!     Item::I(Inst::Halt),
//! ]));
//! b.set_entry("main");
//! let bin = b.build()?;
//!
//! let config = RewriteConfig::new(RewriteMode::FuncPtr);
//! let rewriter = Rewriter::new(config);
//! let out = rewriter.rewrite(&bin, &Instrumentation::empty(Points::EveryBlock))?;
//!
//! // The rewritten binary behaves identically.
//! let opts = LoadOptions { preload_runtime: true, ..LoadOptions::default() };
//! match run(&out.binary, &opts) {
//!     Outcome::Halted(stats) => assert_eq!(stats.output, vec![7]),
//!     other => panic!("{other:?}"),
//! }
//! assert!(out.report.coverage >= 1.0);
//! # Ok(())
//! # }
//! ```

pub mod cache;
mod cfl;
mod config;
pub mod dynamic;
mod fault;
pub mod gate;
mod instrument;
pub mod net;
mod placement;
pub mod pool;
mod relocate;
mod report;
pub mod retry;
mod rewriter;
pub mod store;
pub mod trace;
pub mod tramp;

pub use cache::{
    analyze_incremental, binary_fingerprint, derive_strict_analysis, ladder_key, AnalysisRun,
    LadderRound, LadderStep, RewriteCache, RewriteStats, StageStats, StageTimings,
};
pub use cfl::{cfl_blocks, effective_cfl_blocks, CflReason};
pub use config::{
    config_fingerprint, DegradationPolicy, FuncMode, LayoutOrder, PlacementConfig, RewriteConfig,
    RewriteMode, UnwindStrategy,
};
pub use fault::FaultPlan;
pub use net::{
    parse_store_url, serve, FaultyTransport, NetFaults, RemoteOptions, RemoteStore, ServeHandle,
    ServeOptions, ServerStats, StoreUrl, TcpTransport, Transport,
};
pub use gate::{apply_audit_gate, audit_mode_of, reach_check_of, GateSummary};
pub use instrument::{Instrumentation, Payload, Points};
pub use placement::{Patch, PlacedTrampoline, PlacementPlan, ScratchPool, TrampolineKind};
pub use relocate::{table_cloneable, RelocatedCode};
pub use report::{RewriteReport, SkipReason};
pub use retry::RetryPolicy;
pub use rewriter::{CloneSummary, RewriteArtifacts, RewriteError, RewriteOutcome, Rewriter};
pub use store::{
    CacheStore, CompactReport, CorruptKind, Stage, StoreBackend, StoreEvent, StoreEventKind,
    StoreFaults, StoreStats, StoreVerifyReport,
};
pub use trace::{Registry, SpanKind, StoreOp, StoreSrc, Trace, TraceEvent, TraceSummary};
pub use tramp::trampoline_table;
